//! `serve_edit`: an operator's edit-to-verdict loop against a durable
//! `concord serve --state-dir`, ending in `kill -9` and a restart.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use concord_core::{
    check_parallel_with_stats, finalize_sketches, sketch_config, ContractSet, Dataset, Violation,
};
use concord_engine::{ResilientEngine, StateDir};
use concord_json::Json;
use concord_lexer::{LexCache, Lexer};

use crate::corpus::{self, plant_incident, Corpus, Planted, INCIDENTS};
use crate::proc::{check_count, proc_status_kb, violation_site, Server};
use crate::stats::{iqm, median, per_op_us, percentile, self_times, Ledger, Span};
use crate::trace::{FileClass, IoCounts, TimingVfs, Tracer};
use crate::{io_err, serve_options, Ctx, Outcome, Tally, SETUPS};

/// A LEARN follows every 16th edit cycle.
const LEARN_EVERY: u64 = 16;
/// Edit cycles measured at least, so p95 has ten samples beyond it (p99
/// is reported only from runs long enough for 1000).
const MIN_CYCLES: usize = 200;
/// Edit cycles each set-up server runs before its `VmHWM` is read.
const PROBE_CYCLES: u64 = 8;
/// The engine's auto-checkpoint cadence in WAL appends (its default).
const CHECKPOINT_EVERY: u64 = 64;
/// WAL records left un-checkpointed at the kill, so every restart
/// replays the same amount.
const REPLAY_TAIL: u64 = 32;
/// Edited devices checked alone for the `check.*` / `lexer.*` layers.
const PROBES: usize = 48;

fn serve_args(corpus: &Corpus, state_dir: &Path) -> Vec<String> {
    let mut args = corpus.glob_args();
    args.extend(
        [
            "--state-dir",
            &state_dir.display().to_string(),
            "--workers",
            "2",
            "--parallelism",
            "2",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    args
}

/// Every edit the workload can make: per device, each incident planted.
struct Edits {
    planted: Vec<Vec<Planted>>,
}

impl Edits {
    fn new(corpus: &Corpus) -> Edits {
        Edits {
            planted: corpus
                .configs
                .iter()
                .map(|(_, text)| {
                    (0..INCIDENTS.len())
                        .map(|i| plant_incident(text, i))
                        .collect()
                })
                .collect(),
        }
    }

    /// Cycle `k`: even cycles plant an incident into a device, odd
    /// cycles restore it, so at most one device is ever faulted.
    fn of(&self, k: u64) -> (usize, Option<&Planted>) {
        let devices = self.planted.len() as u64;
        let d = ((k / 2) % devices) as usize;
        if k % 2 == 1 {
            return (d, None);
        }
        let kind = ((k / 2 + k / (2 * devices)) % INCIDENTS.len() as u64) as usize;
        (d, Some(&self.planted[d][kind]))
    }

    fn text<'a>(&'a self, corpus: &'a Corpus, k: u64) -> (usize, &'a str) {
        let (d, planted) = self.of(k);
        (d, planted.map_or(corpus.configs[d].1.as_str(), |p| &p.text))
    }

    /// The faulted device after cycles `0..k`, if any.
    fn faulted_after(&self, k: u64) -> Option<(usize, &Planted)> {
        let last = k.checked_sub(1)?;
        let (d, planted) = self.of(last);
        planted.map(|p| (d, p))
    }
}

/// Whether a verdict over sites `(config, line)` is the known answer: a
/// restored corpus is clean; a planted incident is reported, only in its
/// device, and at the fault. A deleted line (incident 0) leaves no line
/// to point at; an inserted line is reported on itself or, when it
/// breaks an adjacency contract, on the line it was inserted after.
fn verdict_ok(sites: &[(&str, Option<u32>)], faulted: Option<(&str, &Planted)>) -> bool {
    match faulted {
        None => sites.is_empty(),
        Some((device, planted)) => {
            let at_fault = |line: Option<u32>| {
                planted.kind == 0
                    || line == Some(planted.line_no)
                    || line == Some(planted.line_no - 1)
            };
            !sites.is_empty()
                && sites.iter().all(|&(c, _)| c == device)
                && sites.iter().any(|&(_, l)| at_fault(l))
        }
    }
}

fn text_verdict_ok(
    violations: &[String],
    summary: &str,
    faulted: Option<(&str, &Planted)>,
) -> bool {
    let sites: Option<Vec<(&str, Option<u32>)>> =
        violations.iter().map(|v| violation_site(v)).collect();
    check_count(summary) == Some(violations.len()) && sites.is_some_and(|s| verdict_ok(&s, faulted))
}

fn report_verdict_ok(violations: &[Violation], faulted: Option<(&str, &Planted)>) -> bool {
    let sites: Vec<(&str, Option<u32>)> = violations
        .iter()
        .map(|v| (v.config.as_str(), v.line_no))
        .collect();
    verdict_ok(&sites, faulted)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// STATS `memory` bytes the engine accounts for.
pub fn counted_bytes(stats_line: &str) -> Option<u64> {
    let json = Json::parse(stats_line.trim().strip_prefix("ok stats ")?).ok()?;
    let memory = json.get("memory")?;
    let field = |k: &str| memory.get(k).and_then(Json::as_u64).unwrap_or(0);
    Some(
        field("string_arena_bytes")
            + field("param_arena_bytes")
            + field("pattern_table_bytes")
            + field("column_bytes"),
    )
}

fn upsert_ok(ack: &str, name: &str, gen: u64) -> bool {
    ack.starts_with(&format!("ok upsert {name} "))
        && ack.trim_end().ends_with(&format!(" gen={gen}"))
}

/// One set-up on a fresh server and state directory: spawn → first
/// LEARN and first CHECK answered is the set-up time. The server then
/// runs a short fixed edit loop, a LEARN and a forced CHECKPOINT, so
/// the `VmHWM` read after it covers the edit path, the relearn and
/// checkpoint serialization. Returns `(setup_s, hwm_mb)`.
fn setup_probe(
    ctx: &Ctx,
    corpus: &Corpus,
    edits: &Edits,
    state_dir: &Path,
    tally: &mut Tally,
) -> io::Result<(f64, f64)> {
    let t = Instant::now();
    let server = Server::spawn(&ctx.concord, &serve_args(corpus, state_dir))?;
    let mut client = server.connect()?;
    tally.note(client.simple("LEARN")?.starts_with("ok learn"));
    let (violations, summary) = client.check()?;
    tally.note(text_verdict_ok(&violations, &summary, None));
    let setup_s = t.elapsed().as_secs_f64();

    let mut gens = vec![0u64; corpus.configs.len()];
    for k in 0..PROBE_CYCLES {
        let (d, text) = edits.text(corpus, k);
        let name = corpus.configs[d].0.as_str();
        gens[d] += 1;
        tally.note(upsert_ok(&client.upsert(name, text)?, name, gens[d]));
        let (violations, summary) = client.check()?;
        let faulted = edits.of(k).1.map(|p| (name, p));
        tally.note(text_verdict_ok(&violations, &summary, faulted));
    }
    tally.note(client.simple("LEARN")?.starts_with("ok learn"));
    tally.note(client.simple("CHECKPOINT")?.starts_with("ok checkpoint"));
    let hwm_mb = proc_status_kb(server.pid(), "VmHWM").unwrap_or(0) as f64 / 1024.0;
    drop(client);
    server.kill()?;
    std::fs::remove_dir_all(state_dir)?;
    Ok((setup_s, hwm_mb))
}

/// Runs the workload; with `trace`, also the in-process replay.
///
/// One measured server runs the edit loop. At [`SETUPS`] evenly spaced
/// points of the measurement time the loop pauses (the pause is not
/// measured) for a [`setup_probe`] on a server of its own; `setup_s`
/// and `peak_rss_mb` are medians over those.
pub fn run(ctx: &Ctx, trace: bool) -> io::Result<Outcome> {
    let corpus = corpus::edit_corpus(&ctx.run_dir.join("corpus"), ctx.seed)?;
    let edits = Edits::new(&corpus);
    let mut tally = Tally::default();

    let state_dir = ctx.run_dir.join("state");
    let server = Server::spawn(&ctx.concord, &serve_args(&corpus, &state_dir))?;
    let mut client = server.connect()?;
    tally.note(client.simple("LEARN")?.starts_with("ok learn"));
    let (violations, summary) = client.check()?;
    tally.note(text_verdict_ok(&violations, &summary, None));

    let mut setups = Vec::new();
    let mut setup_hwm = Vec::new();
    let mut probe = |tally: &mut Tally| -> io::Result<Duration> {
        let t = Instant::now();
        let dir = ctx.run_dir.join(format!("setup-{}", setups.len()));
        let (setup_s, hwm_mb) = setup_probe(ctx, &corpus, &edits, &dir, tally)?;
        setups.push(setup_s);
        setup_hwm.push(hwm_mb);
        Ok(t.elapsed())
    };

    let devices = corpus.configs.len();
    let mut gens = vec![0u64; devices];
    let mut appends = 1u64; // the set-up LEARN
    let (mut edit, mut write, mut learn) = (Vec::new(), Vec::new(), Vec::new());
    // Server CPU seconds over the measured edit cycles, and ms per LEARN.
    let (mut cycle_cpu_s, mut learn_cpu_ms) = (0.0, Vec::new());
    let mut k = 0u64;
    let mut probes_done = 0u32;
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut measured_wall = Duration::ZERO;
    let mut measuring = true;
    loop {
        let elapsed = start.elapsed() - paused;
        if (probes_done as usize) < SETUPS && elapsed >= ctx.seconds * probes_done / SETUPS as u32 {
            paused += probe(&mut tally)?;
            probes_done += 1;
            continue;
        }
        // The window ends on the append phase it started at (1, or 2
        // after a LEARN's double step), so every run measures whole
        // checkpoint periods and the same share of checkpoint work.
        let whole = matches!(appends % CHECKPOINT_EVERY, 1 | 2);
        if measuring
            && (elapsed >= ctx.seconds * 3
                || (elapsed >= ctx.seconds && edit.len() >= MIN_CYCLES && whole))
        {
            measuring = false;
            measured_wall = elapsed;
        }
        if !measuring && appends % CHECKPOINT_EVERY == REPLAY_TAIL {
            break;
        }
        let (d, text) = edits.text(&corpus, k);
        let name = &corpus.configs[d].0;
        let cpu0 = server.cpu_s()?;
        let t0 = Instant::now();
        let ack = client.upsert(name, text)?;
        let t1 = Instant::now();
        let (violations, summary) = client.check()?;
        let t2 = Instant::now();
        let cpu1 = server.cpu_s()?;
        gens[d] += 1;
        appends += 1;
        tally.note(upsert_ok(&ack, name, gens[d]));
        let faulted = edits.of(k).1.map(|p| (name.as_str(), p));
        let ok = text_verdict_ok(&violations, &summary, faulted);
        if !ok {
            eprintln!(
                "serve_edit: cycle {k} on {name}: unexpected verdict {summary:?} {:?}",
                violations.iter().take(3).collect::<Vec<_>>()
            );
        }
        tally.note(ok);
        if measuring {
            edit.push(ms(t2 - t0));
            write.push(ms(t1 - t0));
            cycle_cpu_s += cpu1 - cpu0;
        }
        if k % LEARN_EVERY == LEARN_EVERY - 1 {
            let t = Instant::now();
            tally.note(client.simple("LEARN")?.starts_with("ok learn"));
            let wall = t.elapsed();
            let cpu2 = server.cpu_s()?;
            appends += 1;
            if measuring {
                learn.push(ms(wall));
                learn_cpu_ms.push((cpu2 - cpu1) * 1e3);
            }
        }
        k += 1;
    }
    let cycles = k;
    let measured_cycles = edit.len();

    let stats = client.simple("STATS")?;
    let counted = counted_bytes(&stats);
    tally.note(counted.is_some());
    let hwm_kb = proc_status_kb(server.pid(), "VmHWM").unwrap_or(0);
    let rss_kb = proc_status_kb(server.pid(), "VmRSS").unwrap_or(0);
    let state_bytes = dir_bytes(&state_dir);
    drop(client);
    server.kill()?;

    // Restart from the state directory: first correct verdict, then
    // every acknowledged UPSERT must read back.
    let faulted = edits
        .faulted_after(cycles)
        .map(|(d, p)| (corpus.configs[d].0.as_str(), p));
    let t = Instant::now();
    let server = Server::spawn(&ctx.concord, &serve_args(&corpus, &state_dir))?;
    let mut client = server.connect()?;
    let (violations, summary) = client.check()?;
    let recover = t.elapsed().as_secs_f64();
    tally.note(text_verdict_ok(&violations, &summary, faulted));
    let mut gen_us = Vec::new();
    for (d, (name, _)) in corpus.configs.iter().enumerate() {
        let t = Instant::now();
        let line = client.simple(&format!("GEN {name}"))?;
        gen_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.note(line.trim_end() == format!("ok gen {name} {}", gens[d]));
    }
    drop(client);
    server.kill()?;

    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    let e = &mut out.end_to_end;
    e.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    e.set("learn_cpu_ms", iqm(&learn_cpu_ms).unwrap_or(0.0), "ms");
    e.set(
        "verdict_cpu_ms",
        cycle_cpu_s * 1e3 / measured_cycles.max(1) as f64,
        "ms",
    );
    // The measured server's own end-of-run high-water mark depends on
    // how far its loop got; the set-up servers' marks after the same
    // fixed work do not.
    e.set("peak_rss_mb", median(&setup_hwm).unwrap_or(0.0), "MiB");
    let d = &mut out.detail;
    d.set("edit_check_p50_ms", median(&edit).unwrap_or(0.0), "ms");
    if let Some(p95) = percentile(&edit, 0.95) {
        d.set("edit_check_p95_ms", p95, "ms");
    }
    if let Some(p99) = percentile(&edit, 0.99) {
        d.set("edit_check_p99_ms", p99, "ms");
    }
    d.set(
        "edit_cycles_s",
        measured_cycles as f64 / measured_wall.as_secs_f64().max(1e-9),
        "1/s",
    );
    d.set("relearn_p50_ms", median(&learn).unwrap_or(0.0), "ms");
    d.set("recover_s", recover, "s");
    d.set("write_p50_ms", median(&write).unwrap_or(0.0), "ms");
    d.set("run_peak_rss_mb", hwm_kb as f64 / 1024.0, "MiB");
    d.set("edit_cycles", measured_cycles as f64, "count");
    d.set(
        "state_dir_mb",
        state_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    let amplification = state_bytes as f64 / corpus.bytes().max(1) as f64;
    d.set("store.space_amplification", amplification, "ratio");
    let counted_mb = counted.unwrap_or(0) as f64 / (1024.0 * 1024.0);
    d.set("memory.counted_mb", counted_mb, "MiB");

    if trace {
        let measured = Measured {
            cycles,
            gens,
            edit_p50_us: median(&edit).unwrap_or(0.0) * 1e3,
            gen_p50_us: median(&gen_us).unwrap_or(0.0),
            counted_mb,
            uncounted_mb: rss_kb as f64 / 1024.0 - counted_mb,
            amplification,
        };
        traced(ctx, &corpus, &edits, &measured, &mut out)?;
    }
    Ok(out)
}

/// What the timed run measured that the traced replay builds on.
struct Measured {
    /// Edit cycles run, padding included: the replay runs as many.
    cycles: u64,
    /// Acknowledged UPSERTs per device.
    gens: Vec<u64>,
    /// Client-side medians the replay's engine time is subtracted from.
    edit_p50_us: f64,
    gen_p50_us: f64,
    counted_mb: f64,
    uncounted_mb: f64,
    amplification: f64,
}

/// What one in-process replay measured.
struct Replay {
    total_ns: u64,
    spans: Vec<Span>,
    /// Ops of the edit loop.
    loop_ops: std::ops::Range<u64>,
    /// Per-path-class I/O during the edit loop.
    io: Vec<(FileClass, IoCounts)>,
    syncs: u64,
    mined: Vec<u64>,
    dirty: u64,
    reused: u64,
    image_bytes: u64,
    contracts: String,
}

const CLASSES: [FileClass; 4] = [
    FileClass::Wal,
    FileClass::Segment,
    FileClass::Manifest,
    FileClass::Other,
];

/// Replays the run's operations in-process, one `ResilientEngine` over
/// a [`TimingVfs`], and checks every verdict again.
fn replay(
    ctx: &Ctx,
    corpus: &Corpus,
    edits: &Edits,
    cycles: u64,
    gens: &[u64],
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
) -> io::Result<Replay> {
    let dir = ctx.run_dir.join("replay");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let vfs = Arc::new(TimingVfs::new(Arc::clone(tracer)));
    let boot = |op: u64, name: &'static str| {
        tracer.span(name, Some(op), || {
            ResilientEngine::with_store_vfs(
                &corpus.configs,
                &corpus.metadata,
                Lexer::standard(),
                serve_options(),
                &dir,
                Arc::clone(&vfs) as Arc<dyn concord_engine::Vfs>,
            )
        })
    };
    let (mut engine, _) = boot(0, "engine.boot").map_err(io_err)?;
    tally.note(
        tracer
            .span("engine.relearn", Some(1), || engine.relearn())
            .is_ok(),
    );
    let report = tracer.span("engine.check", Some(2), || engine.check());
    tally.note(report.is_ok_and(|r| report_verdict_ok(&r.report.violations, None)));

    let before: Vec<IoCounts> = CLASSES.iter().map(|&c| vfs.counts(c)).collect();
    let syncs_before = vfs.total_syncs();
    let (mut mined, mut dirty, mut reused) = (Vec::new(), 0u64, 0u64);
    let first = 3u64;
    for k in 0..cycles {
        let op = Some(first + k);
        let (d, text) = edits.text(corpus, k);
        let name = corpus.configs[d].0.as_str();
        let upserted = tracer.span("engine.upsert", op, || engine.upsert(name, text));
        tally.note(upserted.is_ok());
        let report = tracer
            .span("engine.check", op, || engine.check())
            .map_err(io_err)?;
        let faulted = edits.of(k).1.map(|p| (name, p));
        let ok = tracer.span("harness.verify", op, || {
            report_verdict_ok(&report.report.violations, faulted)
        });
        tally.note(ok);
        dirty += report.engine.dirty_configs as u64;
        reused += report.engine.reused_configs as u64;
        if k % LEARN_EVERY == LEARN_EVERY - 1 {
            tally.note(
                tracer
                    .span("engine.relearn", op, || engine.relearn())
                    .is_ok(),
            );
            mined.push(engine.learn_delta().map_err(io_err)?.mined_last_learn);
        }
    }
    let io: Vec<(FileClass, IoCounts)> = CLASSES
        .iter()
        .zip(&before)
        .map(|(&c, b)| {
            let now = vfs.counts(c);
            (
                c,
                IoCounts {
                    bytes: now.bytes - b.bytes,
                    syncs: now.syncs - b.syncs,
                },
            )
        })
        .collect();
    let syncs = vfs.total_syncs() - syncs_before;
    let image = engine.image();
    let image_bytes = image
        .configs
        .iter()
        .map(|c| (c.name.len() + c.text.len() + c.sketch.as_ref().map_or(0, String::len)) as u64)
        .sum::<u64>()
        + image
            .metadata
            .iter()
            .map(|(n, t)| (n.len() + t.len()) as u64)
            .sum::<u64>()
        + image.contracts.as_ref().map_or(0, |c| c.len() as u64);
    let contracts = image.contracts.clone().unwrap_or_default();
    drop(engine); // the process dies here; only the state directory survives

    let op = first + cycles;
    let loaded = tracer.span("store.load", Some(op), || {
        StateDir::open_vfs(&dir, Arc::clone(&vfs) as Arc<dyn concord_engine::Vfs>)
    });
    tally.note(loaded.is_ok());
    drop(loaded);
    let (mut engine, resumed) = boot(op + 1, "engine.recover").map_err(io_err)?;
    tally.note(resumed);
    let faulted = edits
        .faulted_after(cycles)
        .map(|(d, p)| (corpus.configs[d].0.as_str(), p));
    let report = tracer.span("engine.check", Some(op + 2), || engine.check());
    tally.note(report.is_ok_and(|r| report_verdict_ok(&r.report.violations, faulted)));
    for (d, (name, _)) in corpus.configs.iter().enumerate() {
        let gen = tracer.span("engine.gen", Some(op + 3 + d as u64), || {
            engine.config_generation(name)
        });
        tally.note(gen == Ok(Some(gens[d])));
    }
    let total_ns = tracer.now();
    Ok(Replay {
        total_ns,
        spans: tracer.spans(),
        loop_ops: first..first + cycles,
        io,
        syncs,
        mined,
        dirty,
        reused,
        image_bytes,
        contracts,
    })
}

/// Self seconds of layer `name` over the spans of ops in `ops`.
fn self_in(spans: &[Span], selfs: &[u64], name: &str, ops: &std::ops::Range<u64>) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && ops.contains(&s.op))
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum()
}

fn traced(
    ctx: &Ctx,
    corpus: &Corpus,
    edits: &Edits,
    run: &Measured,
    out: &mut Outcome,
) -> io::Result<()> {
    let (cycles, gens) = (run.cycles, run.gens.as_slice());
    // Spans off, on, off: the mean of the two untraced passes cancels
    // the first pass's warm-up out of the overhead.
    let mut off_s = 0.0;
    let mut traced_pass = None;
    for on in [false, true, false] {
        let r = replay(
            ctx,
            corpus,
            edits,
            cycles,
            gens,
            &Tracer::new(on),
            &mut out.tally,
        )?;
        if on {
            traced_pass = Some(r);
        } else {
            off_s += r.total_ns as f64 / 2e9;
        }
    }
    let r = traced_pass.expect("one pass traces");
    let ledger = Ledger::new(&r.spans, r.total_ns);
    let selfs = self_times(&r.spans);
    let edits_n = cycles.max(1) as f64;
    let m = &mut out.per_layer;

    // Engine layers: mean self time per call.
    m.set("engine.boot_s", ledger.per_call("engine.boot"), "s");
    m.set("engine.upsert_s", ledger.per_call("engine.upsert"), "s");
    m.set("engine.check_s", ledger.per_call("engine.check"), "s");
    m.set("engine.relearn_s", ledger.per_call("engine.relearn"), "s");
    m.set(
        "engine.reused_ratio",
        r.reused as f64 / (r.dirty + r.reused).max(1) as f64,
        "ratio",
    );
    let mined = r.mined.iter().sum::<u64>() as f64 / r.mined.len().max(1) as f64;
    m.set("engine.mined_per_learn", mined, "count");
    m.set(
        "image.resident_mb",
        r.image_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    m.set("memory.counted_mb", run.counted_mb, "MiB");
    m.set("memory.uncounted_mb", run.uncounted_mb, "MiB");

    // Durability layers: per edit over the edit loop.
    let io = |class: FileClass| {
        r.io.iter()
            .find(|(c, _)| *c == class)
            .map_or(IoCounts::default(), |(_, n)| *n)
    };
    let ops = &r.loop_ops;
    m.set(
        "wal.append_s",
        self_in(&r.spans, &selfs, "wal.append", ops) / edits_n,
        "s",
    );
    m.set(
        "wal.fsync_s",
        self_in(&r.spans, &selfs, "wal.fsync", ops) / edits_n,
        "s",
    );
    m.set(
        "wal.bytes_per_edit",
        io(FileClass::Wal).bytes as f64 / edits_n,
        "B",
    );
    m.set("vfs.syncs_per_edit", r.syncs as f64 / edits_n, "count");
    m.set(
        "store.segment_write_s",
        (self_in(&r.spans, &selfs, "store.segment_write", ops)
            + self_in(&r.spans, &selfs, "store.manifest_write", ops))
            / edits_n,
        "s",
    );
    m.set(
        "store.fsync_s",
        self_in(&r.spans, &selfs, "store.fsync", ops) / edits_n,
        "s",
    );
    let store_bytes = io(FileClass::Segment).bytes + io(FileClass::Manifest).bytes;
    m.set("store.bytes_per_edit", store_bytes as f64 / edits_n, "B");
    m.set("store.space_amplification", run.amplification, "ratio");
    let load: Vec<f64> = r
        .spans
        .iter()
        .filter(|s| s.name == "store.load")
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .collect();
    m.set("store.load_s", median(&load).unwrap_or(0.0), "s");

    // Serve overhead: client latency minus the replayed engine time.
    let engine_edit = per_op_us(&r.spans, |s| {
        ops.contains(&s.op) && matches!(s.name, "engine.upsert" | "engine.check")
    });
    m.set(
        "serve.check_overhead_us",
        run.edit_p50_us - median(&engine_edit).unwrap_or(0.0),
        "us",
    );
    let gen_ops = ops.end + 3..ops.end + 3 + gens.len() as u64;
    let engine_gen = per_op_us(&r.spans, |s| {
        gen_ops.contains(&s.op) && s.name == "engine.gen"
    });
    m.set(
        "serve.gen_overhead_us",
        run.gen_p50_us - median(&engine_gen).unwrap_or(0.0),
        "us",
    );
    m.set("unattributed_share", ledger.unattributed_share(), "ratio");
    let on_s = r.total_ns as f64 / 1e9;
    m.set(
        "trace.overhead_share",
        (on_s - off_s) / off_s.max(1e-9),
        "ratio",
    );
    out.detail.set("trace.total_s", on_s, "s");
    out.detail.set("trace.untraced_s", off_s, "s");

    probes(corpus, edits, &r.contracts, mined, out)?;
    out.trace = Some((r.spans, ledger));
    Ok(())
}

/// Side measurements outside the replay: the learn sketch/fold split
/// behind LEARN, and the check phases and lexing of one edited device.
fn probes(
    corpus: &Corpus,
    edits: &Edits,
    contracts_json: &str,
    mined_per_learn: f64,
    out: &mut Outcome,
) -> io::Result<()> {
    let lexer = Lexer::standard();
    let params = serve_options().learn;
    let (dataset, _) =
        Dataset::build_with_stats(&corpus.configs, &corpus.metadata, &lexer, true, 2, None)
            .map_err(io_err)?;
    let mut sketch_s = Vec::new();
    let mut sketches = Vec::new();
    for ci in 0..dataset.configs.len() {
        let t = Instant::now();
        sketches.push(sketch_config(&dataset, ci, &params));
        sketch_s.push(t.elapsed().as_secs_f64());
    }
    let refs: Vec<_> = sketches.iter().collect();
    let t = Instant::now();
    let (_, _) = finalize_sketches(&dataset, &refs, &params);
    let finalize_s = t.elapsed().as_secs_f64();
    let mean_sketch = sketch_s.iter().sum::<f64>() / sketch_s.len().max(1) as f64;
    let m = &mut out.per_layer;
    m.set("learn.sketch_s", mean_sketch * mined_per_learn, "s");
    m.set("learn.finalize_s", finalize_s, "s");

    let contracts = ContractSet::from_json(contracts_json).map_err(io_err)?;
    let cache = LexCache::new();
    let (mut build_s, mut lines, mut hits, mut misses) = (0.0, 0usize, 0u64, 0u64);
    let (mut compile, mut probes_n, mut probe_hits) = (0.0, 0u64, 0u64);
    let mut phases: std::collections::BTreeMap<String, f64> = Default::default();
    for k in 0..PROBES as u64 {
        let (d, text) = edits.text(corpus, k);
        let one = [(corpus.configs[d].0.clone(), text.to_string())];
        let t = Instant::now();
        let (ds, build) =
            Dataset::build_with_stats(&one, &corpus.metadata, &lexer, true, 1, Some(&cache))
                .map_err(io_err)?;
        build_s += t.elapsed().as_secs_f64();
        lines += build.lines;
        hits += build.cache_hits;
        misses += build.cache_misses;
        let (_, stats) = check_parallel_with_stats(&contracts, &ds, 1);
        compile += stats.compile_time.as_secs_f64();
        probes_n += stats.witness_probes;
        probe_hits += stats.witness_probe_hits;
        for (name, t) in &stats.category_times {
            *phases.entry(name.clone()).or_default() += t.as_secs_f64();
        }
    }
    let n = PROBES as f64;
    m.set("lexer.build_s", build_s / n, "s");
    m.set("lexer.lines_per_s", lines as f64 / build_s.max(1e-9), "1/s");
    m.set(
        "lexer.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.set("check.compile_s", compile / n, "s");
    for (name, total) in &phases {
        m.set(&format!("check.{name}_s"), total / n, "s");
    }
    m.set("check.witness_probes", probes_n as f64 / n, "count");
    m.set(
        "check.probe_hit_rate",
        probe_hits as f64 / probes_n.max(1) as f64,
        "ratio",
    );
    Ok(())
}
