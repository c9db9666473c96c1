//! One benchmark for Concord's users: CI jobs that learn contracts per
//! role and wait for a verdict per change, and operators editing and
//! reading a resident `concord serve`.
//!
//! ```text
//! concord-perfbench --concord <binary> --workload <name> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the real `concord` binary (CLI processes, or
//! `concord serve --listen` over loopback TCP in a closed loop) and
//! prints the end-to-end metrics. `--trace 1` does the same run, then
//! replays its exact operation sequence in-process against the public
//! API with spans around every layer call, with spans off, on, then off
//! again, and prints the per-layer metrics. Either way the last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod batch;
mod corpus;
mod edit;
mod proc;
mod read;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use stats::{Ledger, Span};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["batch_roles", "serve_edit", "serve_read"];

/// End-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("learn_cpu_ms", "ms"),
    ("verdict_cpu_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports (`--trace 1`); a layer a
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("lexer.build_s", "s"),
    ("lexer.lines_per_s", "1/s"),
    ("lexer.cache_hit_rate", "ratio"),
    ("learn.present_s", "s"),
    ("learn.ordering_s", "s"),
    ("learn.type_s", "s"),
    ("learn.sequence_s", "s"),
    ("learn.unique_s", "s"),
    ("learn.relational_s", "s"),
    ("learn.minimize_s", "s"),
    ("learn.sketch_s", "s"),
    ("learn.finalize_s", "s"),
    ("engine.mined_per_learn", "count"),
    ("check.compile_s", "s"),
    ("check.present_s", "s"),
    ("check.pattern_s", "s"),
    ("check.sequence_s", "s"),
    ("check.relational_s", "s"),
    ("check.unique_s", "s"),
    ("check.coverage_s", "s"),
    ("check.witness_probes", "count"),
    ("check.probe_hit_rate", "ratio"),
    ("engine.boot_s", "s"),
    ("engine.upsert_s", "s"),
    ("engine.check_s", "s"),
    ("engine.relearn_s", "s"),
    ("engine.reused_ratio", "ratio"),
    ("image.resident_mb", "MiB"),
    ("memory.counted_mb", "MiB"),
    ("memory.uncounted_mb", "MiB"),
    ("wal.append_s", "s"),
    ("wal.fsync_s", "s"),
    ("wal.bytes_per_edit", "B"),
    ("vfs.syncs_per_edit", "count"),
    ("store.segment_write_s", "s"),
    ("store.fsync_s", "s"),
    ("store.bytes_per_edit", "B"),
    ("store.space_amplification", "ratio"),
    ("store.load_s", "s"),
    ("fleet.parts_s", "s"),
    ("fleet.merge_s", "s"),
    ("serve.check_overhead_us", "us"),
    ("serve.gen_overhead_us", "us"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Set-ups per run, spread across its measurement time; `setup_s` is
/// their median.
pub const SETUPS: usize = 8;

/// What one benchmark run needs.
pub struct Ctx {
    /// The `concord` binary under test.
    pub concord: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Scratch directory of this run (removed at exit).
    pub run_dir: PathBuf,
}

/// The engine options `concord serve --parallelism 2` boots with, for
/// the in-process replays.
pub fn serve_options() -> concord_engine::EngineOptions {
    concord_engine::EngineOptions {
        embed_context: true,
        parallelism: 2,
        learn: concord_core::LearnParams {
            parallelism: 2,
            ..concord_core::LearnParams::default()
        },
        staleness_threshold: 0.2,
        lex_cache_cap: 64 * 1024,
        delta_learn: true,
    }
}

/// Wraps a library error for `?` in an `io::Result` function.
pub fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Named metric values with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// Counts of operations tried and operations that failed or answered
/// wrongly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations against the program.
    pub tally: Tally,
    /// The contract's end-to-end metrics.
    pub end_to_end: Metrics,
    /// The workload's own named metrics (printed, and kept in the
    /// result file).
    pub detail: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// The traced replay's spans and ledger (traced runs only).
    pub trace: Option<(Vec<Span>, Ledger)>,
}

struct Args {
    concord: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut concord = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--concord" => concord = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        concord: concord.ok_or("--concord is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("concord-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench");
    let run_dir = work.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        concord: args.concord.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds.max(1)),
        run_dir: run_dir.clone(),
    };
    let result = std::fs::create_dir_all(&run_dir).and_then(|()| match args.workload.as_str() {
        "batch_roles" => batch::run(&ctx, args.trace),
        "serve_edit" => edit::run(&ctx, args.trace),
        _ => read::run(&ctx, args.trace),
    });
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(outcome) => {
            if let Err(e) = report(&args, &work, &outcome) {
                eprintln!("concord-perfbench: writing results: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("concord-perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Host facts recorded with every result.
fn host() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    vec![
        ("cores", cores.to_string()),
        ("kernel", kernel),
        ("commit", commit),
        (
            "source_fnv64",
            format!("{:016x}", source_hash(Path::new("."))),
        ),
    ]
}

/// FNV-1a over the repository's sources (`Cargo.*` and `crates/`), so a
/// result names the code it measured even outside a git checkout.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    concord_json::Json::Str(s.to_string()).render()
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the human-readable lines and the final JSON line, and writes
/// the full result (and the spans of a traced run) under `.perfbench/`.
fn report(args: &Args, work: &Path, outcome: &Outcome) -> std::io::Result<()> {
    let host = host();
    let mut out = std::io::stdout().lock();
    let facts: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    writeln!(
        out,
        "# workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        facts.join(" ")
    )?;
    let tally = outcome.tally;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let failed = format!("({} failed of {})", tally.failed, tally.attempted);
    writeln!(out, "{:<28} {error_rate:>14.6} {failed}", "error_rate")?;
    for (name, (v, unit)) in &outcome.detail.0 {
        writeln!(out, "{name:<28} {:>14} {unit}", format!("{v:.6}"))?;
    }
    if let Some((_, ledger)) = &outcome.trace {
        writeln!(out, "# traced replay ledger (self time by layer)")?;
        for &(layer, calls, ns) in &ledger.layers {
            writeln!(
                out,
                "  {layer:<26} {calls:>8} calls {:>12.6} s {:>6.1}%",
                ns as f64 / 1e9,
                100.0 * ns as f64 / ledger.total_ns.max(1) as f64
            )?;
        }
        writeln!(
            out,
            "  {:<26} {:>8}       {:>12.6} s {:>6.1}%",
            "unattributed",
            "",
            ledger.unattributed_ns as f64 / 1e9,
            100.0 * ledger.unattributed_share()
        )?;
    }

    let (names, source): (&[(&str, &str)], &Metrics) = if args.trace {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let listed: Vec<(String, f64, &str)> = names
        .iter()
        .map(|&(name, unit)| (name.to_string(), source.get(name).unwrap_or(0.0), unit))
        .collect();
    for (name, v, unit) in &listed {
        writeln!(out, "{name:<28} {:>14} {unit}", format!("{v:.6}"))?;
    }

    std::fs::create_dir_all(work.join("results"))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let all: Vec<(String, f64, &str)> = outcome
        .end_to_end
        .0
        .iter()
        .chain(&outcome.detail.0)
        .chain(&outcome.per_layer.0)
        .map(|(n, &(v, u))| (n.clone(), v, u))
        .collect();
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let layers_json: Vec<String> = outcome.trace.as_ref().map_or_else(Vec::new, |(_, l)| {
        l.layers
            .iter()
            .map(|&(name, calls, ns)| {
                format!(
                    "{{\"layer\": {}, \"calls\": {calls}, \"self_s\": {}}}",
                    json_str(name),
                    json_num(ns as f64 / 1e9)
                )
            })
            .collect()
    });
    std::fs::write(
        work.join("results").join(format!("{stem}.json")),
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \"metrics\": {}, \"layers\": [{}]}}\n",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            host_json.join(", "),
            tally.attempted,
            tally.failed,
            json_num(error_rate),
            metrics_json(&all),
            layers_json.join(", ")
        ),
    )?;
    if let Some((spans, _)) = &outcome.trace {
        let mut file = std::io::BufWriter::new(std::fs::File::create(
            work.join("results").join(format!("{stem}.spans.jsonl")),
        )?);
        for s in spans {
            writeln!(
                file,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                json_str(s.name),
                s.start,
                s.end,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.op
            )?;
        }
        file.flush()?;
    }

    writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&listed)
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this harness must name the same metrics.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = concord_json::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|n| n.as_str())
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(|n| n.as_str())
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn metric_lines_render_as_json() {
        let text = metrics_json(&[("setup_s".to_string(), 0.8125, "s")]);
        let json = concord_json::Json::parse(&text).expect("valid JSON");
        assert_eq!(
            json.get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.8125)
        );
    }
}
