//! Randomized edit-sequence oracle for incremental learning: after
//! *every* upsert/remove in a random sequence, a delta relearn (fold
//! the persisted per-config sketches, re-mining only edited configs)
//! must produce a contract set byte-identical to the sequential
//! reference learner (`learn_reference`) run over a fresh dataset of the
//! same name-sorted corpus, metadata and learn parameters. This is the
//! contract that lets the engine cache miner sketches without a
//! semantics review: the reference learner is the spec. It shares no
//! sketch, fold or emit code with the engine, so a bug there cannot
//! pass on both sides (the engine's `delta_learn = false` path runs the
//! same fold, and is pinned by the engine's own unit tests).
//!
//! Edits are deterministic (seeded xoshiro) and deliberately messy:
//! duplicated lines (perturbing uniqueness counts), deleted lines
//! (presence/ordering support), value rewrites (relational witnesses,
//! often fresh patterns), fresh configurations, and removals. Runs over
//! both generator families (EDGE indentation and WAN flat syntax) at
//! parallelism 1 and 8.

use concord_bench::seed;
use concord_core::{learn_reference, sketch_config, ConfigSketch, Dataset, LearnParams};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_engine::{Engine, EngineOptions};
use concord_json::Json;
use concord_rng::rngs::StdRng;
use concord_rng::{Rng, SeedableRng};

/// Random edit steps per (style, parallelism) sequence.
const STEPS: usize = 20;

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

fn run_sequence(style: Style, parallelism: usize, salt: u64) {
    let spec = RoleSpec {
        name: format!("LD{salt}"),
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
    assert!(options.delta_learn, "delta learn is the default");
    let params = options.learn.clone();
    let mut delta = Engine::from_corpus(&corpus, &metadata, options).expect("engine builds");

    let mut rng = StdRng::seed_from_u64(seed() ^ salt);
    let mut reuse_steps = 0usize;
    for step in 0..=STEPS {
        delta.relearn();
        let dataset = Dataset::from_named_texts(&corpus, &metadata).expect("dataset builds");
        let context = format!("{style:?} p={parallelism} step {step}");
        assert_eq!(
            delta.contracts().expect("learned").to_json(),
            learn_reference(&dataset, &params).to_json(),
            "delta learn diverged from the reference learner at {context}"
        );
        let ld = delta.learn_delta();
        assert_eq!(ld.dirty, 0, "every config sketched after {context}");
        if ld.reused_last_learn > 0 {
            reuse_steps += 1;
        }
        if step == STEPS {
            break;
        }

        // A random edit against the engine and the mirror corpus.
        match rng.gen_range(0..10u32) {
            // Remove a random configuration (keeping at least two).
            0 if corpus.len() > 2 => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus.remove(i).0;
                assert!(delta.remove_config(&name).is_some());
            }
            // Add a fresh configuration mutated from an existing one.
            1 => {
                let i = rng.gen_range(0..corpus.len());
                let text = mutate(&corpus[i].1.clone(), &mut rng);
                let name = format!("gen-{salt}-{step}");
                let at = corpus.partition_point(|(n, _)| n.as_str() < name.as_str());
                corpus.insert(at, (name.clone(), text.clone()));
                delta.upsert_config(&name, &text);
            }
            // Mutate an existing configuration in place.
            _ => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus[i].0.clone();
                let text = mutate(&corpus[i].1.clone(), &mut rng);
                corpus[i].1 = text.clone();
                delta.upsert_config(&name, &text);
            }
        }
    }
    // The sequence must actually exercise the sketch cache: most steps
    // touch one config, so reuse has to dominate re-mining.
    assert!(
        reuse_steps > STEPS / 2,
        "{style:?} p={parallelism}: only {reuse_steps}/{STEPS} relearns reused sketches"
    );
}

#[test]
fn random_edit_relearns_match_reference_edge_indent() {
    for parallelism in [1, 8] {
        run_sequence(Style::EdgeIndent, parallelism, 101 + parallelism as u64);
    }
}

#[test]
fn random_edit_relearns_match_reference_wan_flat() {
    for parallelism in [1, 8] {
        run_sequence(Style::WanFlat, parallelism, 211 + parallelism as u64);
    }
}

#[test]
fn random_edit_relearns_match_reference_wan_indent() {
    for parallelism in [1, 8] {
        run_sequence(Style::WanIndent, parallelism, 307 + parallelism as u64);
    }
}

/// Persisted sketches round-trip exactly and stay compact: every
/// config's checkpoint bundle decodes to the sketch it was rendered
/// from, and the bundles total at most 20x the configs' text (the
/// relational section indexes its nodes and witnesses instead of
/// repeating them per candidate).
#[test]
fn persisted_sketches_round_trip_and_stay_compact() {
    let spec = RoleSpec {
        name: "LDSIZE".to_string(),
        devices: 24,
        style: Style::EdgeIndent,
        blocks: 32,
        with_metadata: true,
    };
    let role = generate_role(&spec, seed());
    let options = EngineOptions::default();
    let params = options.learn.clone();
    let mut engine =
        Engine::from_corpus(&role.configs, &role.metadata, options).expect("engine builds");
    engine.relearn();
    let ds = engine.dataset();

    let mut sketch_bytes = 0;
    for ci in 0..ds.configs.len() {
        let name = ds.config_name(ci);
        let rendered = engine.export_sketch_for(name).expect("sketched").render();
        sketch_bytes += rendered.len();
        let bundle = Json::parse(&rendered).expect("bundle parses");
        let entry = &bundle["configs"][0];
        assert_eq!(entry["name"].as_str(), Some(name));
        let decoded = ConfigSketch::from_json(&entry["sketch"], &ds.table);
        assert_eq!(
            decoded.as_ref(),
            Some(&sketch_config(ds, ci, &params)),
            "{name}"
        );
    }

    let text_bytes: usize = role.configs.iter().map(|(_, text)| text.len()).sum();
    assert!(
        sketch_bytes <= 20 * text_bytes,
        "sketch bundles are {sketch_bytes} B, {:.1}x the {text_bytes} B of config text",
        sketch_bytes as f64 / text_bytes as f64
    );
}
