//! Incremental-learn scaling: full relearn vs folding persisted miner
//! sketches on a single-configuration edit.
//!
//! For each corpus size the harness builds two engines over the same
//! corpus — one with the sketch cache (the default), one with
//! `delta_learn` off (the from-scratch oracle) — learns once to warm
//! the cache, then measures the steady-state edit loop both ways:
//!
//! * **full relearn** — the `EngineOptions::delta_learn = false`
//!   oracle: re-mine every configuration from scratch on every LEARN;
//! * **delta relearn** — `Engine::upsert_config` of the one edited file
//!   followed by `Engine::relearn`, which re-sketches one configuration
//!   and folds the cached sketches of everything else.
//!
//! The contract sets are asserted byte-identical before any timing is
//! reported, every sample. Results go to `BENCH_learn_delta.json` at
//! the repository root (full runs; smoke runs only write
//! `target/experiments/learn_delta_scaling.json`). Pass `--smoke` (or
//! set `CONCORD_LEARN_DELTA_SMOKE=1`) for the small CI sizes.

use concord_bench::{fmt_secs, seed, timed, write_result};
use concord_core::LearnParams;
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_engine::{Engine, EngineOptions};
use concord_json::{json, Json};
use std::time::Duration;

/// Timed edit→relearn samples per path; the minimum is the estimate.
const SAMPLES: usize = 3;

/// Per-device block multiplicity (matches `engine_scaling`: learning
/// stays non-trivial so the delta win is about work avoided).
const BLOCKS_FULL: usize = 192;
const BLOCKS_SMOKE: usize = 48;

fn blocks() -> usize {
    std::env::var("CONCORD_LEARN_DELTA_BLOCKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke() { BLOCKS_SMOKE } else { BLOCKS_FULL })
}

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("CONCORD_LEARN_DELTA_SMOKE").is_ok_and(|v| v == "1")
}

fn main() {
    let sizes: &[usize] = if smoke() {
        &[4, 8, 16]
    } else {
        &[8, 16, 32, 64]
    };
    let parallelism = 1; // measure work avoided, not the thread pool

    let mut entries: Vec<Json> = Vec::new();
    for &devices in sizes {
        let spec = RoleSpec {
            name: format!("LD{devices}"),
            devices,
            style: Style::EdgeIndent,
            blocks: blocks(),
            with_metadata: false,
        };
        let role = generate_role(&spec, seed());
        let mut corpus = role.configs.clone();
        corpus.sort();

        let delta_options = EngineOptions {
            parallelism,
            learn: LearnParams::default(),
            ..EngineOptions::default()
        };
        assert!(delta_options.delta_learn, "delta learn is the default");
        let full_options = EngineOptions {
            delta_learn: false,
            ..delta_options.clone()
        };
        let mut delta = Engine::from_corpus(&corpus, &[], delta_options).expect("engine builds");
        let mut full = Engine::from_corpus(&corpus, &[], full_options).expect("engine builds");
        // Cold start: the first delta relearn sketches every config.
        delta.relearn();
        full.relearn();

        // The steady-state edit: toggle one device's text between its
        // original and a one-line-longer variant, invalidating exactly
        // one sketch per round.
        let target = corpus[0].0.clone();
        let base = corpus[0].1.clone();
        let longer = {
            let last = base.lines().next_back().expect("non-empty config");
            format!("{base}{last}\n")
        };

        let mut full_best: Option<Duration> = None;
        let mut delta_best: Option<Duration> = None;
        for sample in 0..SAMPLES {
            let text = if sample % 2 == 0 { &longer } else { &base };

            let (_, delta_time) = timed(|| {
                delta.upsert_config(&target, text);
                delta.relearn()
            });
            let (_, full_time) = timed(|| {
                full.upsert_config(&target, text);
                full.relearn()
            });
            assert_eq!(
                delta.contracts().expect("learned").to_json(),
                full.contracts().expect("learned").to_json(),
                "{devices} configs, sample {sample}: contract sets diverged"
            );
            if full_best.is_none_or(|t| full_time < t) {
                full_best = Some(full_time);
            }
            if delta_best.is_none_or(|t| delta_time < t) {
                delta_best = Some(delta_time);
            }
        }
        let full_time = full_best.expect("SAMPLES > 0");
        let delta_time = delta_best.expect("SAMPLES > 0");
        let speedup = full_time.as_secs_f64() / delta_time.as_secs_f64().max(1e-9);
        let ld = delta.learn_delta();

        println!(
            "{:>4} configs ({} lines, {} contracts): full relearn {} / delta {} ({speedup:.1}x), mined {}/{}",
            devices,
            role.total_lines(),
            delta.contracts().expect("learned").len(),
            fmt_secs(full_time),
            fmt_secs(delta_time),
            ld.mined_last_learn,
            ld.mined_last_learn + ld.reused_last_learn,
        );

        entries.push(json!({
            "configs": devices,
            "lines": role.total_lines(),
            "contracts": delta.contracts().expect("learned").len(),
            "full_relearn_secs": full_time.as_secs_f64(),
            "delta_relearn_secs": delta_time.as_secs_f64(),
            "speedup": speedup,
            "mined_configs": ld.mined_last_learn,
            "reused_configs": ld.reused_last_learn,
        }));
    }

    let result = json!({
        "schema": "concord-bench-learn-delta/v1",
        "smoke": smoke(),
        "max_rss_kb": concord_bench::microbench::max_rss_kb(),
        "seed": seed(),
        "blocks": blocks(),
        "parallelism": parallelism,
        "sizes": Json::Array(entries),
    });
    write_result("learn_delta_scaling", &result);
    if !smoke() {
        write_bench_file(&result);
    }
}

/// Writes the latest full-ladder run to `BENCH_learn_delta.json` at the
/// repository root (a snapshot, like `BENCH_engine.json` — the scaling
/// curve is the artifact, not its history).
fn write_bench_file(result: &Json) {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_learn_delta.json");
    let text = concord_json::to_string_pretty(result).expect("result serializes");
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}
