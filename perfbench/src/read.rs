//! `serve_read`: a read-heavy mix against a memory-only
//! `concord serve --shards 2` over a wide flat-WAN corpus.

use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};

use concord_core::{ContractSet, Dataset};
use concord_engine::{
    merge_check_aggregates, Engine, ResilientEngine, ShardCheckAggregate, ShardRouter,
};
use concord_lexer::{LexCache, Lexer};
use concord_rng::rngs::StdRng;
use concord_rng::{Rng, SeedableRng};

use crate::corpus::{self, read_variant, Corpus};
use crate::edit::counted_bytes;
use crate::proc::{check_count, proc_status_kb, Server};
use crate::stats::{iqm, median, per_op_us, percentile, Ledger, Span};
use crate::trace::Tracer;
use crate::{io_err, serve_options, Ctx, Outcome, Tally, SETUPS};

/// Shards of the fleet.
const SHARDS: usize = 2;
/// Client connections (the host's core count).
const CONNECTIONS: usize = 2;
/// CHECKs and GENs measured at least, across connections and rounds, so
/// each p99 has ten samples beyond it.
const MIN_SAMPLES: usize = 1000;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Gen(usize),
    Check,
    Upsert(usize),
}

/// Connection `c`'s next request: ~50% GEN, ~45% CHECK, ~5% UPSERT. A
/// connection writes and reads only the devices it owns (index ≡ c mod
/// CONNECTIONS), so it knows every generation it should read back.
fn next_op(rng: &mut StdRng, c: usize, devices: usize) -> Op {
    let owned = (devices - c).div_ceil(CONNECTIONS);
    let device = c + CONNECTIONS * rng.gen_range(0..owned);
    match rng.gen_range(0..100u32) {
        0..=49 => Op::Gen(device),
        50..=94 => Op::Check,
        _ => Op::Upsert(device),
    }
}

/// The text an upsert writes: devices alternate between their variant
/// and their original text.
fn upsert_text(corpus: &Corpus, device: usize, generation_after: u64) -> String {
    let base = &corpus.configs[device].1;
    if generation_after % 2 == 1 {
        read_variant(base)
    } else {
        base.clone()
    }
}

fn serve_args(corpus: &Corpus) -> Vec<String> {
    let mut args = corpus.glob_args();
    args.extend(
        ["--shards", "2", "--workers", "2", "--parallelism", "2"]
            .iter()
            .map(|s| s.to_string()),
    );
    args
}

/// One connection's run.
#[derive(Default)]
struct ConnRun {
    ops: Vec<Op>,
    check_ms: Vec<f64>,
    gen_us: Vec<f64>,
    write_ms: Vec<f64>,
    tally: Tally,
    wall: Duration,
}

fn connection(
    server: &Server,
    corpus: &Corpus,
    c: usize,
    seed: u64,
    seconds: Duration,
) -> io::Result<ConnRun> {
    let mut client = server.connect()?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64));
    let devices = corpus.configs.len();
    let mut gens = vec![0u64; devices];
    let mut run = ConnRun::default();
    let want = MIN_SAMPLES.div_ceil(CONNECTIONS * SETUPS);
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        let enough = run.check_ms.len() >= want && run.gen_us.len() >= want;
        if elapsed >= seconds * 3 || (elapsed >= seconds && enough) {
            run.wall = elapsed;
            return Ok(run);
        }
        let op = next_op(&mut rng, c, devices);
        run.ops.push(op);
        let t = Instant::now();
        match op {
            Op::Gen(d) => {
                let name = &corpus.configs[d].0;
                let line = client.simple(&format!("GEN {name}"))?;
                run.gen_us.push(t.elapsed().as_secs_f64() * 1e6);
                run.tally
                    .note(line.trim_end() == format!("ok gen {name} {}", gens[d]));
            }
            Op::Check => {
                let (violations, summary) = client.check()?;
                run.check_ms.push(t.elapsed().as_secs_f64() * 1e3);
                run.tally
                    .note(check_count(&summary) == Some(violations.len()));
            }
            Op::Upsert(d) => {
                let name = &corpus.configs[d].0;
                gens[d] += 1;
                let ack = client.upsert(name, &upsert_text(corpus, d, gens[d]))?;
                run.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                run.tally.note(
                    ack.starts_with(&format!("ok upsert {name} "))
                        && ack.trim_end().ends_with(&format!(" gen={}", gens[d])),
                );
            }
        }
    }
}

/// Runs the workload; with `trace`, also the in-process replay.
///
/// The run is [`SETUPS`] rounds, each on a fresh server: set-up (spawn →
/// LEARN → CHECK), then an equal slice of the measurement time of the
/// read mix, then the server's `VmHWM`. Set-up, LEARN and peak memory
/// are medians over the rounds, so they are sampled across the whole
/// run rather than in one stretch at its start.
pub fn run(ctx: &Ctx, trace: bool) -> io::Result<Outcome> {
    let corpus = corpus::read_corpus(&ctx.run_dir.join("corpus"), ctx.seed)?;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    // Wall and server CPU ms of each round's first LEARN.
    let (mut learns, mut learn_cpu) = (Vec::new(), Vec::new());
    let mut hwm_mb = Vec::new();
    // Server CPU seconds over the read mix, all rounds.
    let mut mix_cpu_s = 0.0;
    let mut all_runs = Vec::new();
    let mut last = None;
    let slice = ctx.seconds / SETUPS as u32;
    for round in 0..SETUPS {
        let t = Instant::now();
        let server = Server::spawn(&ctx.concord, &serve_args(&corpus))?;
        let mut client = server.connect()?;
        let cpu = server.cpu_s()?;
        let tl = Instant::now();
        tally.note(client.simple("LEARN")?.starts_with("ok learn"));
        learns.push(tl.elapsed().as_secs_f64() * 1e3);
        learn_cpu.push((server.cpu_s()? - cpu) * 1e3);
        let (violations, summary) = client.check()?;
        tally.note(check_count(&summary) == Some(violations.len()));
        setups.push(t.elapsed().as_secs_f64());
        drop(client);

        let seed = ctx
            .seed
            .wrapping_mul(SETUPS as u64)
            .wrapping_add(round as u64);
        let cpu = server.cpu_s()?;
        let runs: Vec<ConnRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let (server, corpus) = (&server, &corpus);
                    scope.spawn(move || connection(server, corpus, c, seed, slice))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        mix_cpu_s += server.cpu_s()? - cpu;
        hwm_mb.push(proc_status_kb(server.pid(), "VmHWM").unwrap_or(0) as f64 / 1024.0);

        if round + 1 == SETUPS {
            let mut stats_client = server.connect()?;
            let stats = stats_client.simple("STATS")?;
            let counted = counted_bytes(&stats);
            tally.note(counted.is_some());
            let rss_kb = proc_status_kb(server.pid(), "VmRSS").unwrap_or(0);
            last = Some((counted, rss_kb));
        }
        server.kill()?;
        all_runs.push(runs);
    }
    let (counted, rss_kb) = last.expect("SETUPS > 0");

    let mut check_ms = Vec::new();
    let mut gen_us = Vec::new();
    let mut write_ms = Vec::new();
    let mut ops = 0usize;
    let mut wall = Duration::ZERO;
    for runs in &all_runs {
        let mut round_wall = Duration::ZERO;
        for r in runs {
            check_ms.extend(&r.check_ms);
            gen_us.extend(&r.gen_us);
            write_ms.extend(&r.write_ms);
            ops += r.ops.len();
            round_wall = round_wall.max(r.wall);
            tally.attempted += r.tally.attempted;
            tally.failed += r.tally.failed;
        }
        wall += round_wall;
    }

    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    let ops_per_s = ops as f64 / wall.as_secs_f64().max(1e-9);
    let e = &mut out.end_to_end;
    e.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    e.set("learn_cpu_ms", iqm(&learn_cpu).unwrap_or(0.0), "ms");
    e.set(
        "verdict_cpu_ms",
        mix_cpu_s * 1e3 / check_ms.len().max(1) as f64,
        "ms",
    );
    e.set("peak_rss_mb", median(&hwm_mb).unwrap_or(0.0), "MiB");
    let d = &mut out.detail;
    d.set("learn_p50_ms", median(&learns).unwrap_or(0.0), "ms");
    d.set("check_read_p50_ms", median(&check_ms).unwrap_or(0.0), "ms");
    if let Some(p99) = percentile(&check_ms, 0.99) {
        d.set("check_read_p99_ms", p99, "ms");
    }
    if let Some(p99) = percentile(&gen_us, 0.99) {
        d.set("gen_p99_us", p99, "us");
    }
    d.set("read_ops_s", ops_per_s, "1/s");
    d.set("write_p50_ms", median(&write_ms).unwrap_or(0.0), "ms");
    d.set(
        "run_peak_rss_mb",
        hwm_mb.iter().copied().fold(0.0, f64::max),
        "MiB",
    );
    d.set("checks", check_ms.len() as f64, "count");
    d.set("gens", gen_us.len() as f64, "count");
    d.set("upserts", write_ms.len() as f64, "count");
    let counted_mb = counted.unwrap_or(0) as f64 / (1024.0 * 1024.0);
    d.set("memory.counted_mb", counted_mb, "MiB");

    if trace {
        let tcp = (
            median(&check_ms).unwrap_or(0.0) * 1e3,
            median(&gen_us).unwrap_or(0.0),
        );
        let memory = (counted_mb, rss_kb as f64 / 1024.0 - counted_mb);
        let runs = all_runs.last().expect("SETUPS > 0");
        traced(&corpus, runs, tcp, memory, &mut out)?;
    }
    Ok(out)
}

struct Replay {
    total_ns: u64,
    spans: Vec<Span>,
    check_ops: HashSet<u64>,
    gen_ops: HashSet<u64>,
    dirty: u64,
    reused: u64,
    image_bytes: u64,
}

/// A fleet CHECK as the server runs it: per-shard aggregates cached
/// until that shard is written, a rendered report cached until any is.
struct FleetCheck {
    aggregates: Vec<Option<ShardCheckAggregate>>,
    rendered: Option<String>,
    /// Configurations rechecked / reused across CHECKs.
    dirty: u64,
    reused: u64,
}

impl FleetCheck {
    fn check(
        &mut self,
        shards: &mut [ResilientEngine],
        contracts: &ContractSet,
        tracer: &Tracer,
        op: u64,
        tally: &mut Tally,
    ) {
        if self.rendered.is_some() {
            tracer.span("serve.cached_check", Some(op), || self.rendered.clone());
            tally.note(true);
            return;
        }
        for (s, shard) in shards.iter_mut().enumerate() {
            if self.aggregates[s].is_some() {
                self.reused += shard.image().configs.len() as u64;
                continue;
            }
            let parts = tracer.span("fleet.parts", Some(op), || {
                shard.check_parts().map(ShardCheckAggregate::new)
            });
            let Ok(agg) = parts else {
                tally.note(false);
                return;
            };
            self.dirty += agg.parts.dirty_configs as u64;
            self.reused += agg.parts.reused_configs as u64;
            self.aggregates[s] = Some(agg);
        }
        let refs: Vec<&ShardCheckAggregate> = self.aggregates.iter().flatten().collect();
        let report = tracer.span("fleet.merge", Some(op), || {
            merge_check_aggregates(contracts, &refs)
        });
        let text = tracer.span("serve.render", Some(op), || {
            let mut text = String::new();
            for v in &report.violations {
                text.push_str(&format!("{v}\n"));
            }
            text
        });
        tally.note(text.lines().count() == report.violations.len());
        self.rendered = Some(text);
    }
}

/// Replays both connections' requests in-process (one
/// `ResilientEngine` per shard, routed by `ShardRouter`), interleaved
/// one request per connection at a time.
fn replay(
    corpus: &Corpus,
    runs: &[ConnRun],
    tracer: &Tracer,
    tally: &mut Tally,
) -> io::Result<Replay> {
    let router = ShardRouter::new(SHARDS);
    let mut partitions = vec![Vec::new(); SHARDS];
    for (name, text) in &corpus.configs {
        partitions[router.route(name)].push((name.clone(), text.clone()));
    }
    let mut shards = Vec::new();
    for part in &partitions {
        let shard = tracer.span("engine.boot", Some(0), || {
            ResilientEngine::new(part, &[], Lexer::standard(), serve_options())
        });
        shards.push(shard.map_err(io_err)?);
    }

    // LEARN: a scratch engine over the name-sorted union corpus, whose
    // contracts every shard then loads.
    let mut union: Vec<(String, String)> = shards.iter().flat_map(|s| s.image().corpus()).collect();
    union.sort();
    let mut scratch = tracer
        .span("engine.boot", Some(1), || {
            Engine::from_corpus_with_lexer(&union, &[], Lexer::standard(), serve_options())
        })
        .map_err(io_err)?;
    tracer.span("engine.relearn", Some(1), || scratch.relearn());
    let contracts: ContractSet = scratch.contracts().cloned().unwrap_or_default();
    drop(scratch);
    let json = contracts.to_json();
    for shard in &mut shards {
        let loaded = tracer.span("engine.set_contracts", Some(1), || {
            shard.set_contracts_json(&json)
        });
        tally.note(loaded.is_ok());
    }

    let mut fleet = FleetCheck {
        aggregates: vec![None; SHARDS],
        rendered: None,
        dirty: 0,
        reused: 0,
    };
    fleet.check(&mut shards, &contracts, tracer, 2, tally);

    let mut gens = vec![0u64; corpus.configs.len()];
    let mut check_ops = HashSet::new();
    let mut gen_ops = HashSet::new();
    let longest = runs.iter().map(|r| r.ops.len()).max().unwrap_or(0);
    let mut op = 3u64;
    for i in 0..longest {
        for run in runs {
            let Some(&request) = run.ops.get(i) else {
                continue;
            };
            match request {
                Op::Gen(d) => {
                    let name = &corpus.configs[d].0;
                    let s = tracer.span("fleet.route", Some(op), || router.route(name));
                    let gen =
                        tracer.span("engine.gen", Some(op), || shards[s].config_generation(name));
                    tally.note(gen == Ok(Some(gens[d])));
                    gen_ops.insert(op);
                }
                Op::Check => {
                    fleet.check(&mut shards, &contracts, tracer, op, tally);
                    check_ops.insert(op);
                }
                Op::Upsert(d) => {
                    let name = &corpus.configs[d].0;
                    gens[d] += 1;
                    let text = upsert_text(corpus, d, gens[d]);
                    let s = tracer.span("fleet.route", Some(op), || router.route(name));
                    let done =
                        tracer.span("engine.upsert", Some(op), || shards[s].upsert(name, &text));
                    tally.note(done.is_ok());
                    fleet.aggregates[s] = None;
                    fleet.rendered = None;
                }
            }
            op += 1;
        }
    }
    let image_bytes = shards
        .iter()
        .flat_map(|s| s.image().configs.iter())
        .map(|c| (c.name.len() + c.text.len() + c.sketch.as_ref().map_or(0, String::len)) as u64)
        .sum::<u64>()
        + shards.len() as u64 * json.len() as u64;
    Ok(Replay {
        total_ns: tracer.now(),
        spans: tracer.spans(),
        check_ops,
        gen_ops,
        dirty: fleet.dirty,
        reused: fleet.reused,
        image_bytes,
    })
}

fn traced(
    corpus: &Corpus,
    runs: &[ConnRun],
    tcp: (f64, f64),
    memory: (f64, f64),
    out: &mut Outcome,
) -> io::Result<()> {
    // Spans off, on, off: the mean of the two untraced passes cancels
    // the first pass's warm-up out of the overhead.
    let mut off_s = 0.0;
    let mut traced_pass = None;
    for on in [false, true, false] {
        let r = replay(corpus, runs, &Tracer::new(on), &mut out.tally)?;
        if on {
            traced_pass = Some(r);
        } else {
            off_s += r.total_ns as f64 / 2e9;
        }
    }
    let r = traced_pass.expect("one pass traces");
    let ledger = Ledger::new(&r.spans, r.total_ns);
    let m = &mut out.per_layer;
    m.set("engine.boot_s", ledger.per_call("engine.boot"), "s");
    m.set("engine.upsert_s", ledger.per_call("engine.upsert"), "s");
    m.set("engine.relearn_s", ledger.per_call("engine.relearn"), "s");
    m.set(
        "engine.reused_ratio",
        r.reused as f64 / (r.dirty + r.reused).max(1) as f64,
        "ratio",
    );
    m.set("fleet.parts_s", ledger.per_call("fleet.parts"), "s");
    m.set("fleet.merge_s", ledger.per_call("fleet.merge"), "s");
    m.set(
        "image.resident_mb",
        r.image_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    m.set("memory.counted_mb", memory.0, "MiB");
    m.set("memory.uncounted_mb", memory.1, "MiB");
    m.set(
        "serve.check_overhead_us",
        tcp.0 - median(&per_op_us(&r.spans, |s| r.check_ops.contains(&s.op))).unwrap_or(0.0),
        "us",
    );
    m.set(
        "serve.gen_overhead_us",
        tcp.1 - median(&per_op_us(&r.spans, |s| r.gen_ops.contains(&s.op))).unwrap_or(0.0),
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

    // Lexing the corpus, the work behind each shard's boot.
    let cache = LexCache::new();
    let t = Instant::now();
    let (_, build) = Dataset::build_with_stats(
        &corpus.configs,
        &[],
        &Lexer::standard(),
        true,
        2,
        Some(&cache),
    )
    .map_err(io_err)?;
    let build_s = t.elapsed().as_secs_f64();
    m.set("lexer.build_s", build_s, "s");
    m.set(
        "lexer.lines_per_s",
        build.lines as f64 / build_s.max(1e-9),
        "1/s",
    );
    m.set(
        "lexer.cache_hit_rate",
        build.cache_hits as f64 / (build.cache_hits + build.cache_misses).max(1) as f64,
        "ratio",
    );
    out.trace = Some((r.spans, ledger));
    Ok(())
}
