//! Randomized edit-sequence oracle for the arena-interned SoA dataset:
//! the pre-refactor array-of-structs [`LegacyDataset`] (feature
//! `legacy-ir`) is driven through the *same* seeded upsert/remove
//! sequence as the production [`Dataset`], and after every step the two
//! must agree line for line — pattern text, params, line numbers,
//! originals, metadata flags — and produce byte-identical LEARN and
//! CHECK output with identical stats counters. Runs over both generator
//! families (EDGE indentation and WAN flat syntax) at parallelism 1
//! and 8, mirroring `engine_equivalence`.
//!
//! This is the refactor's semantics pin: interning and
//! structure-of-arrays layout are allowed to change memory, never
//! bytes.

use concord_bench::seed;
use concord_core::{
    check_parallel_with_stats, learn, CheckStats, ContractSet, Dataset, LearnParams, LegacyDataset,
};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_lexer::Lexer;
use concord_rng::rngs::StdRng;
use concord_rng::{Rng, SeedableRng};

/// Random edit steps per (style, parallelism) sequence.
const STEPS: usize = 25;

/// Asserts the SoA dataset and the legacy oracle hold identical line
/// records, field for field.
fn assert_line_identical(soa: &Dataset, legacy: &LegacyDataset, context: &str) {
    assert_eq!(
        soa.configs.len(),
        legacy.configs.len(),
        "{context}: configs"
    );
    assert_eq!(
        soa.pattern_count(),
        legacy.table.len(),
        "{context}: pattern tables"
    );
    let mut legacy_own_lines = 0usize;
    for (cs, cl) in soa.configs.iter().zip(&legacy.configs) {
        let name = soa.name_of(cs);
        assert_eq!(name, cl.name, "{context}");
        assert_eq!(cs.format, cl.format, "{context}: {name}");
        assert_eq!(cs.len(), cl.lines.len(), "{context}: {name} line count");
        for (ls, ll) in cs.lines(&soa.arenas).zip(&cl.lines) {
            assert_eq!(
                soa.table.text(ls.pattern),
                legacy.table.text(ll.pattern),
                "{context}: {name}:{}",
                ls.line_no
            );
            assert_eq!(
                ls.params,
                &ll.params[..],
                "{context}: {name}:{}",
                ls.line_no
            );
            assert_eq!(ls.line_no, ll.line_no, "{context}: {name}");
            assert_eq!(
                ls.original, &*ll.original,
                "{context}: {name}:{}",
                ls.line_no
            );
            assert_eq!(ls.is_meta, ll.is_meta, "{context}: {name}:{}", ls.line_no);
        }
        legacy_own_lines += cl.lines.iter().filter(|l| !l.is_meta).count();
    }
    // Satellite pin: the SoA side's O(1) counter equals the legacy
    // O(lines) recount after every edit.
    assert_eq!(
        soa.total_lines(),
        legacy_own_lines,
        "{context}: O(1) total_lines diverged from recount"
    );
}

fn assert_counters_equal(a: &CheckStats, b: &CheckStats, context: &str) {
    assert_eq!(a.contracts, b.contracts, "{context}");
    assert_eq!(a.violations, b.violations, "{context}");
    assert_eq!(a.witness_indexes, b.witness_indexes, "{context}");
    assert_eq!(a.witness_entries, b.witness_entries, "{context}");
    assert_eq!(a.witness_probes, b.witness_probes, "{context}");
    assert_eq!(a.witness_probe_hits, b.witness_probe_hits, "{context}");
}

/// One random text mutation (same shapes as `engine_equivalence`):
/// duplicate a line, delete a line, or rewrite digits.
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

fn run_sequence(style: Style, parallelism: usize, salt: u64) {
    let spec = RoleSpec {
        name: format!("IR{salt}"),
        devices: 6,
        style,
        blocks: 4,
        with_metadata: true,
    };
    let role = generate_role(&spec, seed());
    let mut corpus = role.configs.clone();
    corpus.sort();
    let metadata = role.metadata.clone();

    let lexer = Lexer::standard();
    let mut soa = Dataset::from_named_texts(&corpus, &metadata).expect("SoA dataset builds");
    let mut legacy = LegacyDataset::from_named_texts(&corpus, &metadata);
    assert_line_identical(
        &soa,
        &legacy,
        &format!("{style:?} p={parallelism} seed build"),
    );

    // One fixed contract set pins CHECK for the whole sequence; LEARN
    // equivalence is asserted per step on the evolving corpus.
    let params = LearnParams::default();
    let contracts: ContractSet = learn(&soa, &params);
    assert!(!contracts.is_empty(), "sequence needs contracts to check");

    let mut rng = StdRng::seed_from_u64(seed() ^ salt);
    for step in 0..STEPS {
        let context = format!("{style:?} p={parallelism} step {step}");
        match rng.gen_range(0..10u32) {
            0 if corpus.len() > 2 => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus[i].0.clone();
                corpus.remove(i);
                let si = soa.remove_config(&name);
                let li = legacy.remove_config(&name);
                assert_eq!(si, li, "{context}: remove index");
                assert!(si.is_some(), "{context}");
            }
            1 => {
                let i = rng.gen_range(0..corpus.len());
                let text = mutate(&corpus[i].1.clone(), &mut rng);
                let name = format!("gen-{salt}-{step}");
                corpus.push((name.clone(), text.clone()));
                let si = soa.upsert_config(&name, &text, None, &lexer, true, None);
                let li = legacy.upsert_config(&name, &text, &lexer, true, None);
                assert_eq!(si, li, "{context}: insert index");
            }
            _ => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus[i].0.clone();
                let text = mutate(&corpus[i].1.clone(), &mut rng);
                corpus[i].1 = text.clone();
                let si = soa.upsert_config(&name, &text, None, &lexer, true, None);
                let li = legacy.upsert_config(&name, &text, &lexer, true, None);
                assert_eq!(si, li, "{context}: replace index");
            }
        }

        assert_line_identical(&soa, &legacy, &context);

        // Byte-identical LEARN over both representations. The legacy
        // side converts through `to_dataset()` (a full re-intern), so
        // any drift in interning order or dedup shows up here.
        let soa_learned = learn(&soa, &params).to_json();
        let legacy_learned = learn(&legacy.to_dataset(), &params).to_json();
        assert_eq!(
            soa_learned, legacy_learned,
            "{context}: LEARN diverged between representations"
        );

        // Byte-identical CHECK (violations, order, coverage) plus
        // identical witness counters.
        let (soa_report, soa_stats) = check_parallel_with_stats(&contracts, &soa, parallelism);
        let (legacy_report, legacy_stats) =
            check_parallel_with_stats(&contracts, &legacy.to_dataset(), parallelism);
        assert_eq!(
            format!("{:?}", soa_report.violations),
            format!("{:?}", legacy_report.violations),
            "{context}: CHECK violations diverged"
        );
        assert_eq!(
            soa_report.coverage.summary().fraction,
            legacy_report.coverage.summary().fraction,
            "{context}: coverage diverged"
        );
        assert_counters_equal(&soa_stats, &legacy_stats, &context);
    }
}

#[test]
fn random_edits_match_legacy_edge_indent() {
    for parallelism in [1, 8] {
        run_sequence(Style::EdgeIndent, parallelism, 31 + parallelism as u64);
    }
}

#[test]
fn random_edits_match_legacy_wan_flat() {
    for parallelism in [1, 8] {
        run_sequence(Style::WanFlat, parallelism, 47 + parallelism as u64);
    }
}
