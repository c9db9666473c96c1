//! Incremental-engine scaling: batch full rebuild vs the resident
//! `concord-engine` snapshot on a single-configuration edit.
//!
//! For each corpus size the harness builds an engine, learns contracts
//! once, then measures the steady-state edit loop both ways:
//!
//! * **full rebuild** — what the batch workflow pays per edit: rebuild
//!   the [`Dataset`] from all texts (fresh lex cache — a batch run has
//!   no memory) and run the full compiled check;
//! * **incremental** — `Engine::upsert_config` of the one edited file
//!   followed by `Engine::check_dirty`, which re-lexes one file through
//!   the persistent cache and re-checks one configuration.
//!
//! The reports are asserted byte-identical before any timing is
//! reported, every sample. Results go to `BENCH_engine.json` at the
//! repository root (full runs; smoke runs only write
//! `target/experiments/engine_scaling.json`). Pass `--smoke` (or set
//! `CONCORD_ENGINE_SMOKE=1`) for the small CI sizes.
//!
//! A second, **resident** ladder scales the fleet dimension instead of
//! the per-device dimension: thousands of small (~12 line)
//! configurations held by a durable [`ResilientEngine`]. Each rung
//! records deterministic heap accounting (arena-interned SoA bytes vs
//! the `legacy-ir` oracle's per-record `Arc` bytes, pattern table
//! excluded on both sides), the process RSS high-water, and the
//! segmented-checkpoint scorecard: a full checkpoint (every segment
//! written, into a fresh directory — the price a monolithic snapshot
//! pays every time) against a checkpoint after one edit (one segment
//! plus the manifest).

use concord_bench::{fmt_secs, seed, timed, write_result};
use concord_core::{check_parallel_with_stats, CheckReport, Dataset, LearnParams, LegacyDataset};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_engine::{Engine, EngineOptions, ResilientEngine, StateDir};
use concord_json::{json, Json};
use concord_lexer::{LexCache, Lexer};
use std::time::Duration;

/// Timed edit→check samples per path; the minimum is the estimate.
const SAMPLES: usize = 3;

/// Per-device block multiplicity (see `check_scaling` for the rationale;
/// the engine benchmark keeps checking non-trivial so the incremental
/// win is about work avoided, not noise).
const BLOCKS_FULL: usize = 192;
const BLOCKS_SMOKE: usize = 48;

fn blocks() -> usize {
    std::env::var("CONCORD_ENGINE_BLOCKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke() { BLOCKS_SMOKE } else { BLOCKS_FULL })
}

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("CONCORD_ENGINE_SMOKE").is_ok_and(|v| v == "1")
}

fn assert_reports_equal(incremental: &CheckReport, batch: &CheckReport, context: &str) {
    assert_eq!(
        incremental.violations, batch.violations,
        "{context}: violations diverged"
    );
    assert_eq!(
        incremental.coverage.per_config, batch.coverage.per_config,
        "{context}: coverage diverged"
    );
}

/// One small resident-fleet configuration (~12 lines). Lines repeat
/// heavily across devices — as real fleet snapshots do — so interning
/// has sharing to exploit; the hostname and vlan rotation keep the
/// corpus non-degenerate.
fn resident_config(i: usize) -> (String, String) {
    let name = format!("res{i:06}");
    let vlan_a = 10 + (i % 8);
    let vlan_b = 20 + (i % 8);
    let text = [
        format!("hostname {name}"),
        format!("vlan {vlan_a}"),
        format!("vlan {vlan_b}"),
        "interface Ethernet1".to_string(),
        " description uplink".to_string(),
        " mtu 9100".to_string(),
        format!(" switchport access vlan {vlan_a}"),
        "interface Ethernet2".to_string(),
        " description peer".to_string(),
        " mtu 9100".to_string(),
        format!(" switchport access vlan {vlan_b}"),
        "ntp server 10.0.0.1".to_string(),
    ]
    .join("\n")
        + "\n";
    (name, text)
}

/// One rung of the resident ladder: memory accounting plus the
/// full-vs-edit checkpoint comparison at `devices` configurations.
fn resident_rung(devices: usize) -> Json {
    let corpus: Vec<(String, String)> = (0..devices).map(resident_config).collect();

    // Deterministic heap accounting. The legacy oracle counts every
    // distinct `Arc` payload once; the SoA side reports its arenas.
    // Both exclude the shared pattern table, so the ratio isolates what
    // the refactor changed: per-record ownership vs interned storage.
    let legacy_heap_bytes = LegacyDataset::from_named_texts(&corpus, &[]).heap_bytes() as u64;

    let dir = std::env::temp_dir().join(format!(
        "concord-engine-resident-{}-{devices}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = EngineOptions {
        parallelism: 1,
        learn: LearnParams::default(),
        ..EngineOptions::default()
    };
    let ((mut engine, _resumed), boot_time) = timed(|| {
        ResilientEngine::with_store(&corpus, &[], Lexer::standard(), options, &dir)
            .expect("resident engine boots")
    });
    engine.set_checkpoint_every(0); // explicit checkpoints only

    // Full checkpoint: the same image into a fresh directory, whose
    // store has written nothing, so every configuration is serialized
    // and written — the cost a monolithic snapshot pays on *every*
    // checkpoint.
    let full_dir = dir.with_extension("full");
    let _ = std::fs::remove_dir_all(&full_dir);
    let (mut fresh, _) = StateDir::open(&full_dir).expect("fresh state dir opens");
    let (full, full_time) = timed(|| fresh.checkpoint(engine.image()));
    let full = full.expect("full checkpoint succeeds");
    assert_eq!(
        (full.segments_written, full.segments_skipped),
        (devices as u64, 0),
        "{devices} configs: the full checkpoint must write every segment"
    );

    // Checkpoint after one edit: exactly one segment plus the manifest.
    let (target, base) = corpus[0].clone();
    let longer = format!("{base}ntp server 10.0.0.2\n");
    let mut edit_best: Option<Duration> = None;
    for sample in 0..SAMPLES {
        let text = if sample % 2 == 0 { &longer } else { &base };
        engine.upsert(&target, text).expect("upsert succeeds");
        let (ok, edit_time) = timed(|| engine.checkpoint());
        assert!(ok, "{devices} configs: edit checkpoint failed");
        if edit_best.is_none_or(|t| edit_time < t) {
            edit_best = Some(edit_time);
        }
    }
    let edit_time = edit_best.expect("SAMPLES > 0");

    let memory = engine.snapshot_stats().expect("stats available").memory;
    // Pin the segmented-store invariant the timing relies on: the seed
    // checkpoint wrote the whole fleet, and every edit checkpoint wrote
    // exactly one segment and skipped the rest.
    assert_eq!(
        memory.segments_written,
        devices as u64 + SAMPLES as u64,
        "{devices} configs: unexpected segment write count"
    );
    assert_eq!(
        memory.segments_skipped,
        (SAMPLES * (devices - 1)) as u64,
        "{devices} configs: unexpected segment skip count"
    );

    let soa_heap_bytes = memory.string_arena_bytes + memory.param_arena_bytes + memory.column_bytes;
    let heap_ratio = legacy_heap_bytes as f64 / (soa_heap_bytes as f64).max(1.0);
    let speedup = full_time.as_secs_f64() / edit_time.as_secs_f64().max(1e-9);
    let rss_kb = concord_bench::microbench::max_rss_kb().unwrap_or(0);

    println!(
        "{devices:>7} resident configs: boot {} / full checkpoint {} / edit checkpoint {} ({speedup:.1}x); heap {:.1} MiB SoA vs {:.1} MiB legacy ({heap_ratio:.1}x); rss high-water {rss_kb} KiB",
        fmt_secs(boot_time),
        fmt_secs(full_time),
        fmt_secs(edit_time),
        soa_heap_bytes as f64 / (1024.0 * 1024.0),
        legacy_heap_bytes as f64 / (1024.0 * 1024.0),
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&full_dir);
    json!({
        "configs": devices,
        "boot_secs": boot_time.as_secs_f64(),
        "checkpoint_full_secs": full_time.as_secs_f64(),
        "checkpoint_edit_secs": edit_time.as_secs_f64(),
        "checkpoint_speedup": speedup,
        "soa_heap_bytes": soa_heap_bytes,
        "legacy_heap_bytes": legacy_heap_bytes,
        "heap_ratio": heap_ratio,
        "segments_written": memory.segments_written,
        "segments_skipped": memory.segments_skipped,
        "max_rss_kb": rss_kb,
    })
}

fn main() {
    let sizes: &[usize] = if smoke() {
        &[4, 8, 16]
    } else {
        &[8, 16, 32, 64]
    };
    let resident_sizes: &[usize] = if smoke() {
        &[100, 500]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let parallelism = 1; // measure work avoided, not the thread pool

    let mut entries: Vec<Json> = Vec::new();
    for &devices in sizes {
        let spec = RoleSpec {
            name: format!("ENG{devices}"),
            devices,
            style: Style::EdgeIndent,
            blocks: blocks(),
            with_metadata: false,
        };
        let role = generate_role(&spec, seed());
        let mut corpus = role.configs.clone();
        corpus.sort();

        let options = EngineOptions {
            parallelism,
            learn: LearnParams::default(),
            ..EngineOptions::default()
        };
        let mut engine = Engine::from_corpus(&corpus, &[], options).expect("engine builds");
        engine.relearn();
        let contracts = engine.contracts().expect("just learned").clone();
        engine.check_dirty().expect("contracts loaded");

        // The steady-state edit: toggle one device's text between its
        // original and a one-line-longer variant (the duplicated last
        // line reuses an existing pattern, so contract resolution — and
        // therefore the outcome cache — survives the edit).
        let target = corpus[0].0.clone();
        let base = corpus[0].1.clone();
        let longer = {
            let last = base.lines().next_back().expect("non-empty config");
            format!("{base}{last}\n")
        };

        let lexer = Lexer::standard();
        let mut full_best: Option<Duration> = None;
        let mut incr_best: Option<Duration> = None;
        let mut last_violations = 0usize;
        let mut last_dirty = 0usize;
        let mut last_reused = 0usize;
        for sample in 0..SAMPLES {
            let text = if sample % 2 == 0 { &longer } else { &base };
            corpus[0].1 = text.clone();

            let (incr_report, incr_time) = timed(|| {
                engine.upsert_config(&target, text);
                engine.check_dirty().expect("contracts loaded").report
            });
            let ((full_report, _), full_time) = timed(|| {
                let cache = LexCache::new();
                let (dataset, _) = Dataset::build_with_stats(
                    &corpus,
                    &[],
                    &lexer,
                    true,
                    parallelism,
                    Some(&cache),
                )
                .expect("dataset builds");
                check_parallel_with_stats(&contracts, &dataset, parallelism)
            });
            assert_reports_equal(
                &incr_report,
                &full_report,
                &format!("{devices} configs, sample {sample}"),
            );
            last_violations = incr_report.violations.len();
            if full_best.is_none_or(|t| full_time < t) {
                full_best = Some(full_time);
            }
            if incr_best.is_none_or(|t| incr_time < t) {
                incr_best = Some(incr_time);
            }
            let last = engine.snapshot_stats().last_check.expect("checked");
            last_dirty = last.dirty_configs;
            last_reused = last.reused_configs;
        }
        let full_time = full_best.expect("SAMPLES > 0");
        let incr_time = incr_best.expect("SAMPLES > 0");
        let speedup = full_time.as_secs_f64() / incr_time.as_secs_f64().max(1e-9);

        println!(
            "{:>4} configs ({} lines, {} contracts): rebuild {} / incremental {} ({speedup:.1}x), dirty {}/{}, {} violations",
            devices,
            role.total_lines(),
            contracts.len(),
            fmt_secs(full_time),
            fmt_secs(incr_time),
            last_dirty,
            last_dirty + last_reused,
            last_violations,
        );

        entries.push(json!({
            "configs": devices,
            "lines": role.total_lines(),
            "contracts": contracts.len(),
            "violations": last_violations,
            "full_rebuild_secs": full_time.as_secs_f64(),
            "incremental_secs": incr_time.as_secs_f64(),
            "speedup": speedup,
            "dirty_configs": last_dirty,
            "reused_configs": last_reused,
        }));
    }

    // The resident ladder runs in ascending order after the edit-loop
    // ladder, so each rung's RSS high-water reflects the largest fleet
    // held so far.
    let resident: Vec<Json> = resident_sizes
        .iter()
        .map(|&devices| resident_rung(devices))
        .collect();

    let result = json!({
        "schema": "concord-bench-engine/v1",
        "smoke": smoke(),
        "max_rss_kb": concord_bench::microbench::max_rss_kb(),
        "seed": seed(),
        "blocks": blocks(),
        "parallelism": parallelism,
        "sizes": Json::Array(entries),
        "resident": Json::Array(resident),
    });
    write_result("engine_scaling", &result);
    if !smoke() {
        write_bench_file(&result);
    }
}

/// Writes the latest full-ladder run to `BENCH_engine.json` at the
/// repository root (a snapshot, like `BENCH_check.json` — the scaling
/// curve is the artifact, not its history).
fn write_bench_file(result: &Json) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let text = concord_json::to_string_pretty(result).expect("result serializes");
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}
