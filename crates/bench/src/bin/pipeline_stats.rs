//! Pipeline performance trajectory: records per-stage timing and lex-cache
//! effectiveness into `BENCH_pipeline.json` at the repository root (and
//! `target/experiments/pipeline_stats.json`), so successive changes have a
//! measured baseline to compare against.
//!
//! The workload is the deterministic synthetic W2 role (same generator the
//! paper-table harness uses), so numbers are comparable across runs on the
//! same machine. Dataset construction is measured twice — scanner only,
//! then with the shared lex cache — to keep the cache's speedup visible in
//! the trajectory.

use concord_bench::{fmt_secs, scale, seed, workspace_root, write_result};
use concord_core::{
    check_parallel_with_stats, learn_with_stats, Dataset, LearnParams, PipelineStats,
};
use concord_datagen::{generate_role, standard_roles};
use concord_json::{json, Json};
use concord_lexer::{LexCache, Lexer};
use std::time::{Duration, Instant};

/// Timed build samples; the minimum is the reported estimate.
const SAMPLES: usize = 5;

fn min_build_time(
    configs: &[(String, String)],
    lexer: &Lexer,
    cached: bool,
) -> (Duration, concord_core::BuildStats) {
    let mut best: Option<(Duration, concord_core::BuildStats)> = None;
    for _ in 0..SAMPLES {
        // A fresh cache per sample: we measure one cold build, not reuse.
        let cache = LexCache::new();
        let cache_ref = cached.then_some(&cache);
        let start = Instant::now();
        let (_, stats) = Dataset::build_with_stats(configs, &[], lexer, true, 1, cache_ref)
            .expect("build succeeds");
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, stats));
        }
    }
    best.expect("SAMPLES > 0")
}

fn main() {
    let spec = standard_roles(scale())
        .into_iter()
        .find(|s| s.name == "W2")
        .expect("W2 exists");
    let role = generate_role(&spec, seed());
    let lexer = Lexer::standard();
    let params = LearnParams::default();

    let (uncached_time, uncached_stats) = min_build_time(&role.configs, &lexer, false);
    let (cached_time, cached_stats) = min_build_time(&role.configs, &lexer, true);
    let speedup = uncached_time.as_secs_f64() / cached_time.as_secs_f64().max(1e-9);

    let total = Instant::now();
    let cache = LexCache::new();
    let (dataset, build_stats) =
        Dataset::build_with_stats(&role.configs, &[], &lexer, true, 1, Some(&cache))
            .expect("build succeeds");
    let (contracts, learn_stats) = learn_with_stats(&dataset, &params);
    let (_report, check_stats) = check_parallel_with_stats(&contracts, &dataset, 1);
    let pipeline = PipelineStats {
        check: Some(check_stats),
        build: Some(build_stats),
        learn: Some(learn_stats),
        engine: None,
        total_time: total.elapsed(),
    };

    println!(
        "build W2 ({} configs, {} lines): uncached {} / cached {} ({speedup:.2}x, {} hits / {} misses)",
        role.configs.len(),
        uncached_stats.lines,
        fmt_secs(uncached_time),
        fmt_secs(cached_time),
        cached_stats.cache_hits,
        cached_stats.cache_misses,
    );
    println!("{}", pipeline.render_text());
    assert!(
        cached_stats.cache_hits > 0,
        "repetitive configs must hit the lex cache"
    );

    let result = json!({
        "schema": "concord-bench-pipeline/v1",
        "max_rss_kb": concord_bench::microbench::max_rss_kb(),
        "workload": json!({
            "role": "W2",
            "scale": scale(),
            "seed": seed(),
            "configs": role.configs.len(),
            "lines": uncached_stats.lines,
            "patterns": uncached_stats.patterns,
        }),
        "build_uncached_secs": uncached_time.as_secs_f64(),
        "build_cached_secs": cached_time.as_secs_f64(),
        "cache_speedup": speedup,
        "pipeline": pipeline.to_json(),
    });
    write_result("pipeline_stats", &result);
    write_trajectory(&result);
}

/// Appends this run to the `BENCH_pipeline.json` trajectory at the
/// repository root (a JSON array, one entry per recorded run).
fn write_trajectory(result: &Json) {
    let path = workspace_root().join("BENCH_pipeline.json");
    let mut runs: Vec<Json> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|json| json.as_array().map(<[Json]>::to_vec))
        .unwrap_or_default();
    runs.push(result.clone());
    let text = concord_json::to_string_pretty(&Json::Array(runs)).expect("trajectory serializes");
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("(appended run to {})", path.display()),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}
