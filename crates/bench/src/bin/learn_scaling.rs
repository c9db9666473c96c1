//! Learn-engine scaling: the sequential reference learner
//! (`learn_reference`, kept behind the `reference-learn` feature) vs the
//! parallel learn engine on growing relational-heavy workloads.
//!
//! For each dataset size the harness times three learners (minimum of
//! several samples): the pre-optimization reference (sequential miners,
//! left-fold relational accumulation, std hashing), the optimized engine
//! at parallelism 1 (isolating the algorithmic wins — per-config
//! sketches, Fx hashing, allocation discipline), and the optimized
//! engine at parallelism 8 (adding parallel sketching of each chunk of
//! configs and parallel minimization; the fold stays sequential).
//! Contract sets are asserted identical before the timings are compared,
//! then the curve is recorded into `BENCH_learn.json` at the repository
//! root (and `target/experiments/learn_scaling.json`). Each rung's
//! per-miner rows (`miners`, `relational_merge_secs`, `minimize_secs`)
//! come from the parallelism-1 run: a miner's row sums the wall-clock
//! time of every config it sketched, which at parallelism 8 on fewer
//! cores counts the time a worker sat descheduled. Pass `--smoke` (or
//! set `CONCORD_LEARN_SMOKE=1`) for the small CI sizes.
//!
//! The workload is the EdgeIndent generator with many repeated blocks
//! per device: relational candidate mining and witness accumulation
//! dominate, which is what parallel sketching and the Fx hot paths
//! target.

use concord_bench::{dataset_of, fmt_secs, seed, timed, write_result};
use concord_core::{learn_reference, learn_with_stats, ContractSet, LearnParams};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_json::{json, Json};
use std::time::Duration;

/// Timed learn samples per engine; the minimum is the reported estimate.
/// Samples are interleaved round-robin across the three engines so a
/// transient noise window (another tenant, frequency dip) degrades all
/// arms alike instead of skewing one ratio.
const SAMPLES: usize = 5;

/// Repeated-block knob (`CONCORD_LEARN_BLOCKS` overrides): per-device
/// VLAN/interface/prefix-list multiplicity. Relational mining cost grows
/// with the number of candidate witnesses per config, so this is the
/// axis that stresses the relational sketch and fold. Full runs use the value
/// the committed `BENCH_learn.json` was measured at; smoke runs shrink
/// it to keep CI fast.
const BLOCKS_FULL: usize = 96;
const BLOCKS_SMOKE: usize = 24;

fn blocks() -> usize {
    std::env::var("CONCORD_LEARN_BLOCKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke() { BLOCKS_SMOKE } else { BLOCKS_FULL })
}

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("CONCORD_LEARN_SMOKE").is_ok_and(|v| v == "1")
}

/// Keeps the fastest sample seen so far for one engine.
fn keep_min<T>(best: &mut Option<(T, Duration)>, sample: (T, Duration)) {
    if best.as_ref().is_none_or(|(_, t)| sample.1 < *t) {
        *best = Some(sample);
    }
}

fn main() {
    let sizes: &[usize] = if smoke() {
        &[4, 8, 16]
    } else {
        &[8, 16, 32, 64]
    };

    let mut entries: Vec<Json> = Vec::new();
    for &devices in sizes {
        let spec = RoleSpec {
            name: format!("SCALE{devices}"),
            devices,
            style: Style::EdgeIndent,
            blocks: blocks(),
            with_metadata: false,
        };
        let role = generate_role(&spec, seed());
        let dataset = dataset_of(&role);
        // Constants on: per-line Present mining adds sketch-side load, so
        // every miner's sketch section has real work.
        let params = LearnParams {
            learn_constants: true,
            ..LearnParams::default()
        };
        let p8 = LearnParams {
            parallelism: 8,
            ..params.clone()
        };

        let mut reference_best: Option<(ContractSet, Duration)> = None;
        let mut p1_best = None;
        let mut p8_best = None;
        for _ in 0..SAMPLES {
            keep_min(
                &mut reference_best,
                timed(|| learn_reference(&dataset, &params)),
            );
            keep_min(&mut p1_best, timed(|| learn_with_stats(&dataset, &params)));
            keep_min(&mut p8_best, timed(|| learn_with_stats(&dataset, &p8)));
        }
        let (reference, reference_time) = reference_best.expect("SAMPLES > 0");
        let (optimized_p1, p1_time) = p1_best.expect("SAMPLES > 0");
        let (optimized_p8, p8_time) = p8_best.expect("SAMPLES > 0");
        if std::env::var_os("CONCORD_LEARN_DEBUG_STATS").is_some() {
            eprintln!("p8 stats: {:?}", optimized_p8.1);
        }
        assert_eq!(
            reference.contracts, optimized_p1.0.contracts,
            "optimized learner (p=1) must match the reference before timings are comparable"
        );
        assert_eq!(
            reference.contracts, optimized_p8.0.contracts,
            "optimized learner (p=8) must match the reference before timings are comparable"
        );
        // Single-thread rows: summed per-config sketch times are CPU
        // time only while workers do not outnumber cores.
        let stats = optimized_p1.1;

        let speedup_p1 = reference_time.as_secs_f64() / p1_time.as_secs_f64().max(1e-9);
        let speedup_p8 = reference_time.as_secs_f64() / p8_time.as_secs_f64().max(1e-9);
        println!(
            "{:>4} configs ({} lines, {} contracts): reference {} / optimized p1 {} ({speedup_p1:.1}x) / optimized p8 {} ({speedup_p8:.1}x)",
            devices,
            role.total_lines(),
            reference.contracts.len(),
            fmt_secs(reference_time),
            fmt_secs(p1_time),
            fmt_secs(p8_time),
        );

        let miners = Json::Array(
            stats
                .miner_times
                .iter()
                .map(|(name, time)| json!({ "name": name.as_str(), "secs": time.as_secs_f64() }))
                .collect(),
        );
        entries.push(json!({
            "configs": devices,
            "lines": role.total_lines(),
            "contracts": reference.contracts.len(),
            "reference_secs": reference_time.as_secs_f64(),
            "optimized_p1_secs": p1_time.as_secs_f64(),
            "optimized_p8_secs": p8_time.as_secs_f64(),
            "speedup_p1": speedup_p1,
            "speedup_p8": speedup_p8,
            "relational_merge_secs": stats.relational_merge_time.as_secs_f64(),
            "fanout_truncations": stats.fanout_truncations,
            "minimize_secs": stats.minimize_time.as_secs_f64(),
            "miners": miners,
        }));
    }

    let result = json!({
        "schema": "concord-bench-learn/v1",
        "smoke": smoke(),
        "max_rss_kb": concord_bench::microbench::max_rss_kb(),
        "seed": seed(),
        "blocks": blocks(),
        "sizes": Json::Array(entries),
    });
    write_result("learn_scaling", &result);
    if !smoke() {
        write_bench_file(&result);
    }
}

/// Writes the latest run to `BENCH_learn.json` at the repository root.
/// A snapshot, not an append-only log: the scaling curve is the
/// artifact, not its history. Smoke runs skip it — the committed
/// snapshot is always a full-ladder measurement.
fn write_bench_file(result: &Json) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_learn.json");
    let text = concord_json::to_string_pretty(result).expect("result serializes");
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}
