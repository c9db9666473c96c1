//! Randomized edit-sequence oracle for the incremental engine: after
//! *every* upsert/remove in a random sequence, `Engine::check_dirty`
//! must be byte-identical — violations, order, coverage, and witness
//! counters — to a from-scratch batch build-and-check of the same
//! corpus. This is the contract that lets the engine cache outcomes,
//! keep a resident unique index, and skip clean configurations without
//! a semantics review: the batch pipeline is the spec.
//!
//! Edits are deterministic (seeded xoshiro) and deliberately messy:
//! duplicated lines (tripping unique contracts), deleted lines (tripping
//! presence/ordering), value rewrites (tripping relational witnesses),
//! fresh configurations, and removals. Runs over both generator families
//! (EDGE indentation and WAN flat syntax) at parallelism 1 and 8.
//!
//! Every few steps the contract set is swapped — a relearn, an equal
//! copy, or a perturbed set — and checked again before the next edit, so
//! the oracle also pins which swaps may keep the outcome cache: the
//! batch side always checks under the set the test last installed, and
//! the engine must hold that set at every check.

use concord_bench::seed;
use concord_core::{
    check_parallel_with_stats, CheckReport, CheckStats, Contract, ContractSet, Dataset,
    LearnParams, RelationKind,
};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_engine::{Engine, EngineCheckReport, EngineOptions};
use concord_rng::rngs::StdRng;
use concord_rng::{Rng, SeedableRng};

/// Random edit steps per (style, parallelism) sequence.
const STEPS: usize = 30;

/// Edit steps between contract swaps.
const SWAP_EVERY: usize = 5;

/// Renders a report to a canonical string (same convention as the
/// check-engine oracle: violation order matters, coverage sets do not).
fn render(report: &CheckReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("{v:?}\n"));
    }
    for c in &report.coverage.per_config {
        let mut covered: Vec<usize> = c.covered.iter().copied().collect();
        covered.sort_unstable();
        out.push_str(&format!(
            "coverage {} total={} covered={covered:?}\n",
            c.name, c.total_lines
        ));
        for (cat, lines) in &c.by_category {
            let mut lines: Vec<usize> = lines.iter().copied().collect();
            lines.sort_unstable();
            out.push_str(&format!("  {cat}: {lines:?}\n"));
        }
    }
    out
}

/// One random text mutation: duplicate a line, delete a line, or rewrite
/// the digits of a line (new parameter value, often a new pattern).
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return "vlan 1\n".to_string();
    }
    let i = rng.gen_range(0..lines.len());
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    match rng.gen_range(0..3u32) {
        0 => out.insert(i, lines[i].to_string()),
        1 => {
            out.remove(i);
        }
        _ => {
            let digit = char::from(b'0' + rng.gen_range(0..10u32) as u8);
            out[i] = out[i]
                .chars()
                .map(|c| if c.is_ascii_digit() { digit } else { c })
                .collect();
        }
    }
    let mut joined = out.join("\n");
    joined.push('\n');
    joined
}

/// Inserts `(name, text)` into the name-sorted mirror corpus.
fn mirror_upsert(corpus: &mut Vec<(String, String)>, name: &str, text: String) {
    match corpus.iter_mut().find(|(n, _)| n == name) {
        Some(entry) => entry.1 = text,
        None => {
            let at = corpus.partition_point(|(n, _)| n.as_str() < name);
            corpus.insert(at, (name.to_string(), text));
        }
    }
}

fn assert_counters_equal(incremental: &CheckStats, batch: &CheckStats, context: &str) {
    assert_eq!(incremental.contracts, batch.contracts, "{context}");
    assert_eq!(incremental.violations, batch.violations, "{context}");
    assert_eq!(
        incremental.witness_indexes, batch.witness_indexes,
        "{context}: cached index counters must replay exactly"
    );
    assert_eq!(
        incremental.witness_entries, batch.witness_entries,
        "{context}"
    );
    assert_eq!(
        incremental.witness_probes, batch.witness_probes,
        "{context}"
    );
    assert_eq!(
        incremental.witness_probe_hits, batch.witness_probe_hits,
        "{context}"
    );
}

/// `set` with one contract changed. With `drop` a random contract goes,
/// which also moves the resolution fingerprint. Otherwise a field the
/// fingerprint cannot see changes — a relation, a unique contract's
/// once-per-config flag, a type contract's valid types — so only a
/// cache keyed by the set itself notices the swap.
fn perturb(set: &ContractSet, rng: &mut StdRng, drop: bool) -> ContractSet {
    let mut out = set.clone();
    let n = out.contracts.len();
    let start = rng.gen_range(0..n);
    if !drop {
        for k in 0..n {
            match &mut out.contracts[(start + k) % n] {
                Contract::Relational(r) => {
                    let all = RelationKind::all();
                    let at = all.iter().position(|&kind| kind == r.relation);
                    r.relation = all[(at.unwrap_or(0) + 1) % all.len()];
                }
                Contract::Unique {
                    once_per_config, ..
                } => *once_per_config = !*once_per_config,
                Contract::Type { valid, .. } => {
                    valid.pop();
                }
                _ => continue,
            }
            return out;
        }
    }
    out.contracts.remove(start);
    out
}

/// Runs `check_dirty`, asserting that the engine holds `expected` before
/// and after it: neither an edit nor a check may change the contract set.
fn check_under(engine: &mut Engine, expected: &ContractSet, context: &str) -> EngineCheckReport {
    assert!(
        engine.contracts() == Some(expected),
        "contract set changed before the check at {context}"
    );
    let report = engine.check_dirty().expect("contracts loaded");
    assert!(
        engine.contracts() == Some(expected),
        "contract set changed during the check at {context}"
    );
    report
}

/// Asserts `incremental` equals a from-scratch batch build of `corpus`
/// checked under `contracts`.
fn assert_matches_batch(
    contracts: &ContractSet,
    incremental: &EngineCheckReport,
    corpus: &[(String, String)],
    metadata: &[(String, String)],
    parallelism: usize,
    context: &str,
) {
    let batch_dataset = Dataset::from_named_texts(corpus, metadata).expect("batch dataset builds");
    let (batch_report, batch_stats) =
        check_parallel_with_stats(contracts, &batch_dataset, parallelism);
    assert_eq!(
        render(&incremental.report),
        render(&batch_report),
        "engine diverged from batch at {context}"
    );
    assert_counters_equal(&incremental.stats, &batch_stats, context);
}

fn run_sequence(style: Style, parallelism: usize, salt: u64) {
    let spec = RoleSpec {
        name: format!("EQ{salt}"),
        devices: 6,
        style,
        blocks: 4,
        with_metadata: true,
    };
    let role = generate_role(&spec, seed());
    let mut corpus = role.configs.clone();
    corpus.sort();
    let metadata = role.metadata.clone();

    let options = EngineOptions {
        parallelism,
        learn: LearnParams::default(),
        ..EngineOptions::default()
    };
    let mut engine = Engine::from_corpus(&corpus, &metadata, options).expect("engine builds");
    engine.relearn();
    let learned = engine.contracts().expect("just learned").clone();
    assert!(!learned.is_empty(), "sequence needs contracts to check");
    // The set the test has installed: the batch side checks under it,
    // and the engine must still hold it at every check.
    let mut expected = learned.clone();

    let mut rng = StdRng::seed_from_u64(seed() ^ salt);
    let mut total_dirty = 0usize;
    let mut reuse_steps = 0usize;
    let (mut kept_swaps, mut dropped_swaps) = (0usize, 0usize);
    for step in 0..STEPS {
        // A random edit against both the engine and the mirror corpus.
        match rng.gen_range(0..10u32) {
            // Remove a random configuration (keeping at least two).
            0 if corpus.len() > 2 => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus[i].0.clone();
                corpus.remove(i);
                assert!(engine.remove_config(&name).is_some());
            }
            // Add a fresh configuration mutated from an existing one.
            1 => {
                let i = rng.gen_range(0..corpus.len());
                let text = mutate(&corpus[i].1.clone(), &mut rng);
                let name = format!("gen-{salt}-{step}");
                mirror_upsert(&mut corpus, &name, text.clone());
                engine.upsert_config(&name, &text);
            }
            // Mutate an existing configuration in place.
            _ => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus[i].0.clone();
                let text = mutate(&corpus[i].1.clone(), &mut rng);
                mirror_upsert(&mut corpus, &name, text.clone());
                engine.upsert_config(&name, &text);
            }
        }

        let context = format!("{style:?} p={parallelism} step {step}");
        let incremental = check_under(&mut engine, &expected, &context);
        assert_matches_batch(
            &expected,
            &incremental,
            &corpus,
            &metadata,
            parallelism,
            &context,
        );
        total_dirty += incremental.engine.dirty_configs;
        if incremental.engine.reused_configs > 0 {
            reuse_steps += 1;
        }
        assert_eq!(
            engine.snapshot_stats().dirty_configs,
            0,
            "nothing left dirty after {context}"
        );

        // Swap the contract set — relearn, an equal copy, or a perturbed
        // set — and check again with no edit between: an equal set keeps
        // every cached outcome, a different one rechecks every config.
        if step % SWAP_EVERY == SWAP_EVERY - 1 {
            let swap = step / SWAP_EVERY;
            let held = expected.clone();
            match swap % 3 {
                0 => {
                    engine.relearn();
                    expected = engine.contracts().expect("just relearned").clone();
                }
                1 => engine.set_contracts(held.clone()),
                // A relearn below the support threshold learns nothing;
                // perturb the first set then.
                _ => {
                    let base = if held.is_empty() { &learned } else { &held };
                    expected = perturb(base, &mut rng, swap.is_multiple_of(2));
                    engine.set_contracts(expected.clone());
                }
            }
            let equal = expected == held;
            let context = format!("{context}, swap {swap}");
            let swapped = check_under(&mut engine, &expected, &context);
            assert_matches_batch(
                &expected,
                &swapped,
                &corpus,
                &metadata,
                parallelism,
                &context,
            );
            if equal {
                assert_eq!(swapped.engine.dirty_configs, 0, "{context}");
                assert!(!swapped.engine.resolution_invalidated, "{context}");
                kept_swaps += 1;
            } else {
                assert_eq!(swapped.engine.dirty_configs, corpus.len(), "{context}");
                assert!(swapped.engine.resolution_invalidated, "{context}");
                dropped_swaps += 1;
            }
        }
    }
    assert!(
        kept_swaps > 0 && dropped_swaps > 0,
        "{style:?} p={parallelism}: {kept_swaps} swaps kept the cache, {dropped_swaps} dropped it"
    );
    // The sequence must actually exercise the incremental path: most
    // steps touch one config, so reuse has to dominate recomputation.
    assert!(
        reuse_steps > STEPS / 2,
        "{style:?} p={parallelism}: only {reuse_steps}/{STEPS} steps reused cache"
    );
    assert!(
        total_dirty >= STEPS,
        "every step dirties at least one config"
    );
}

#[test]
fn random_edits_match_batch_edge_indent() {
    for parallelism in [1, 8] {
        run_sequence(Style::EdgeIndent, parallelism, 11 + parallelism as u64);
    }
}

#[test]
fn random_edits_match_batch_wan_flat() {
    for parallelism in [1, 8] {
        run_sequence(Style::WanFlat, parallelism, 23 + parallelism as u64);
    }
}

#[test]
fn random_edits_match_batch_wan_indent() {
    for parallelism in [1, 8] {
        run_sequence(Style::WanIndent, parallelism, 37 + parallelism as u64);
    }
}
