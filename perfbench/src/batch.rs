//! `batch_roles`: the per-role CI job. `concord learn`, then
//! `concord check` of held-out faulted devices, for each of the ten
//! standard roles, as separate CLI processes.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use concord_core::{
    check_naive, check_parallel_with_stats, learn_with_stats, ContractSet, Dataset, LearnParams,
    Violation,
};
use concord_json::{FromJson, Json};
use concord_lexer::{LexCache, Lexer};

use crate::corpus::{self, BatchRole, Corpus, Texts};
use crate::proc::run_cli;
use crate::stats::{iqm, median, Ledger};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Outcome, Tally, SETUPS};

/// Worker threads for `--parallelism` (the host has two cores).
const PARALLELISM: usize = 2;

/// The known answer for one role: the contracts the first learn wrote
/// and the naive checker's violations of the held-out set under them.
struct Oracle {
    contracts_json: String,
    violations: Vec<Violation>,
}

struct Paths {
    contracts: String,
    violations: String,
}

fn paths(ctx: &Ctx, role: &BatchRole) -> Paths {
    let dir = ctx.run_dir.join("out");
    Paths {
        contracts: dir
            .join(format!("{}-contracts.json", role.name))
            .display()
            .to_string(),
        violations: dir
            .join(format!("{}-violations.json", role.name))
            .display()
            .to_string(),
    }
}

fn learn_args(role: &BatchRole, p: &Paths) -> Vec<String> {
    let mut args = vec!["learn".to_string()];
    args.extend(role.train.glob_args());
    args.extend(
        ["--out", &p.contracts, "--parallelism", "2"]
            .iter()
            .map(|s| s.to_string()),
    );
    args
}

fn check_args(role: &BatchRole, p: &Paths) -> Vec<String> {
    let mut args = vec!["check".to_string()];
    args.extend(role.held_out.glob_args());
    args.extend(
        [
            "--contracts",
            &p.contracts,
            "--out",
            &p.violations,
            "--parallelism",
            "2",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    args
}

fn held_out_dataset(held: &Corpus) -> Dataset {
    Dataset::build_with_stats(
        &held.configs,
        &held.metadata,
        &Lexer::standard(),
        true,
        1,
        None,
    )
    .expect("generated corpora build")
    .0
}

/// Builds the oracle from the contracts a CLI learn wrote.
fn oracle(role: &BatchRole, p: &Paths) -> io::Result<Oracle> {
    let contracts_json = std::fs::read_to_string(&p.contracts)?;
    let contracts = ContractSet::from_json(&contracts_json)
        .map_err(|e| io::Error::other(format!("{}: {e}", p.contracts)))?;
    let violations = check_naive(&contracts, &held_out_dataset(&role.held_out)).violations;
    Ok(Oracle {
        contracts_json,
        violations,
    })
}

fn read_violations(path: &str) -> Option<Vec<Violation>> {
    let json = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    json.as_array()?
        .iter()
        .map(|v| Violation::from_json(v).ok())
        .collect()
}

/// Runs the workload; with `trace`, also the in-process replay.
pub fn run(ctx: &Ctx, trace: bool) -> io::Result<Outcome> {
    let roles = corpus::batch_roles(&ctx.run_dir.join("corpus"), ctx.seed)?;
    std::fs::create_dir_all(ctx.run_dir.join("out"))?;
    let mut tally = Tally::default();
    let mut oracles: HashMap<String, Oracle> = HashMap::new();
    let mut pass_peaks_mb = Vec::new();

    let mut setups = Vec::new();
    // Per pass over the roles: wall and CPU seconds of the learn
    // processes, and of the check processes.
    let (mut learn_sums, mut check_sums) = (Vec::new(), Vec::new());
    let (mut learn_cpu_sums, mut check_cpu_sums) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while learn_sums.len() < SETUPS || start.elapsed() < ctx.seconds {
        // Set-up before every pass, so its samples span the run: time to
        // the first verdict, learn then check of the first role from cold
        // processes.
        let role = &roles[0];
        let p = paths(ctx, role);
        let learned = run_cli(&ctx.concord, &learn_args(role, &p))?;
        let checked = run_cli(&ctx.concord, &check_args(role, &p))?;
        tally.note(learned.code == Some(0));
        tally.note(checked.code.is_some_and(|c| c <= 1));
        setups.push((learned.wall + checked.wall).as_secs_f64());

        let (mut learn_sum, mut check_sum) = (0.0, 0.0);
        let (mut learn_cpu, mut check_cpu) = (0.0, 0.0);
        let mut peak_kb = 0u64;
        for role in &roles {
            let p = paths(ctx, role);
            let learned = run_cli(&ctx.concord, &learn_args(role, &p))?;
            let checked = run_cli(&ctx.concord, &check_args(role, &p))?;
            learn_sum += learned.wall.as_secs_f64();
            check_sum += checked.wall.as_secs_f64();
            learn_cpu += learned.cpu.as_secs_f64();
            check_cpu += checked.cpu.as_secs_f64();
            peak_kb = peak_kb.max(learned.max_rss_kb).max(checked.max_rss_kb);

            // Outside the timed region: compare with the known answer.
            if !oracles.contains_key(&role.name) && learned.code == Some(0) {
                oracles.insert(role.name.clone(), oracle(role, &p)?);
            }
            let known = oracles.get(&role.name);
            let contracts_ok = learned.code == Some(0)
                && known.is_some_and(|o| {
                    std::fs::read_to_string(&p.contracts).is_ok_and(|t| t == o.contracts_json)
                });
            tally.note(contracts_ok);
            let got = read_violations(&p.violations);
            let verdict_ok = known.is_some_and(|o| {
                let want_code = if o.violations.is_empty() { 0 } else { 1 };
                checked.code == Some(want_code) && got.as_ref() == Some(&o.violations)
            });
            if !verdict_ok {
                eprintln!(
                    "batch_roles: {} check disagrees with the naive oracle",
                    role.name
                );
            }
            tally.note(verdict_ok);
        }
        learn_sums.push(learn_sum);
        check_sums.push(check_sum);
        learn_cpu_sums.push(learn_cpu);
        check_cpu_sums.push(check_cpu);
        pass_peaks_mb.push(peak_kb as f64 / 1024.0);
    }
    let held_out_violations: usize = oracles.values().map(|o| o.violations.len()).sum();

    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    let e = &mut out.end_to_end;
    e.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    e.set(
        "learn_cpu_ms",
        iqm(&learn_cpu_sums).unwrap_or(0.0) * 1e3,
        "ms",
    );
    e.set(
        "verdict_cpu_ms",
        iqm(&check_cpu_sums).unwrap_or(0.0) * 1e3,
        "ms",
    );
    // The largest process of a pass, median over passes.
    e.set("peak_rss_mb", median(&pass_peaks_mb).unwrap_or(0.0), "MiB");
    let d = &mut out.detail;
    d.set("batch_learn_s", median(&learn_sums).unwrap_or(0.0), "s");
    d.set("batch_check_s", median(&check_sums).unwrap_or(0.0), "s");
    d.set("passes", learn_sums.len() as f64, "count");
    d.set("held_out_violations", held_out_violations as f64, "count");

    if trace {
        replay(ctx, &roles, &mut out)?;
    }
    Ok(out)
}

/// Per-pass sums of the stats the library reports about its own phases.
#[derive(Default)]
struct PhaseSums {
    lines: usize,
    hits: u64,
    misses: u64,
    miners: HashMap<String, f64>,
    minimize: f64,
    compile: f64,
    check_phases: HashMap<String, f64>,
    probes: u64,
    probe_hits: u64,
}

fn read_texts(dir: &Path, ext: &str) -> io::Result<Texts> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push((name, std::fs::read_to_string(&path)?));
        }
    }
    out.sort();
    Ok(out)
}

fn read_corpus(c: &Corpus) -> io::Result<(Texts, Texts)> {
    let configs = read_texts(&c.config_dir, "cfg")?;
    let metadata = match &c.meta_dir {
        Some(dir) => read_texts(dir, "meta")?,
        None => Vec::new(),
    };
    Ok((configs, metadata))
}

/// One in-process pass over the roles, as the CLI processes do it.
fn replay_pass(ctx: &Ctx, roles: &[BatchRole], tracer: &Tracer) -> io::Result<PhaseSums> {
    let lexer = Lexer::standard();
    let params = LearnParams {
        parallelism: PARALLELISM,
        ..LearnParams::default()
    };
    let dir = ctx.run_dir.join("replay");
    std::fs::create_dir_all(&dir)?;
    let mut sums = PhaseSums::default();
    for (op, role) in roles.iter().enumerate() {
        let op = Some(op as u64);
        // learn
        let (configs, metadata) = tracer.span("io.read", op, || read_corpus(&role.train))?;
        let cache = LexCache::new();
        let (dataset, build) = tracer
            .span("lexer.build", op, || {
                Dataset::build_with_stats(
                    &configs,
                    &metadata,
                    &lexer,
                    true,
                    PARALLELISM,
                    Some(&cache),
                )
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (contracts, learned) = tracer.span("learn", op, || learn_with_stats(&dataset, &params));
        let path = dir.join(format!("{}-contracts.json", role.name));
        tracer.span("io.write", op, || {
            std::fs::write(&path, contracts.to_json())
        })?;
        drop(dataset);
        sums.lines += build.lines;
        sums.hits += build.cache_hits;
        sums.misses += build.cache_misses;
        for (name, t) in &learned.miner_times {
            *sums.miners.entry(name.clone()).or_default() += t.as_secs_f64();
        }
        sums.minimize += learned.minimize_time.as_secs_f64();

        // check
        let text = tracer.span("io.read", op, || std::fs::read_to_string(&path))?;
        let contracts = tracer
            .span("contracts.parse", op, || ContractSet::from_json(&text))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (configs, metadata) = tracer.span("io.read", op, || read_corpus(&role.held_out))?;
        let cache = LexCache::new();
        let (dataset, build) = tracer
            .span("lexer.build", op, || {
                Dataset::build_with_stats(
                    &configs,
                    &metadata,
                    &lexer,
                    true,
                    PARALLELISM,
                    Some(&cache),
                )
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (report, checked) = tracer.span("check", op, || {
            check_parallel_with_stats(&contracts, &dataset, PARALLELISM)
        });
        let out = dir.join(format!("{}-violations.json", role.name));
        tracer.span("io.write", op, || {
            let json = concord_json::to_string_pretty(&report.violations)
                .map_err(|e| io::Error::other(e.to_string()))?;
            std::fs::write(&out, json)
        })?;
        sums.lines += build.lines;
        sums.hits += build.cache_hits;
        sums.misses += build.cache_misses;
        sums.compile += checked.compile_time.as_secs_f64();
        for (name, t) in &checked.category_times {
            *sums.check_phases.entry(name.clone()).or_default() += t.as_secs_f64();
        }
        sums.probes += checked.witness_probes;
        sums.probe_hits += checked.witness_probe_hits;
    }
    Ok(sums)
}

/// The traced replay: passes with spans off, on, then off again; the
/// mean of the two untraced passes cancels the first pass's warm-up out
/// of the overhead.
fn replay(ctx: &Ctx, roles: &[BatchRole], out: &mut Outcome) -> io::Result<()> {
    let untraced = || -> io::Result<f64> {
        let t = Instant::now();
        replay_pass(ctx, roles, &Tracer::new(false))?;
        Ok(t.elapsed().as_secs_f64())
    };
    let before = untraced()?;
    let on = Tracer::new(true);
    let sums = replay_pass(ctx, roles, &on)?;
    let total = on.now();
    let off_s = (before + untraced()?) / 2.0;
    let spans = on.spans();
    let ledger = Ledger::new(&spans, total);

    let m: &mut Metrics = &mut out.per_layer;
    let (_, build_s) = ledger.layer("lexer.build");
    m.set("lexer.build_s", build_s, "s");
    m.set(
        "lexer.lines_per_s",
        sums.lines as f64 / build_s.max(1e-9),
        "1/s",
    );
    m.set(
        "lexer.cache_hit_rate",
        sums.hits as f64 / (sums.hits + sums.misses).max(1) as f64,
        "ratio",
    );
    for miner in [
        "present",
        "ordering",
        "type",
        "sequence",
        "unique",
        "relational",
    ] {
        let v = sums.miners.get(miner).copied().unwrap_or(0.0);
        m.set(&format!("learn.{miner}_s"), v, "s");
    }
    m.set("learn.minimize_s", sums.minimize, "s");
    m.set("check.compile_s", sums.compile, "s");
    for phase in [
        "present",
        "pattern",
        "sequence",
        "relational",
        "unique",
        "coverage",
    ] {
        let v = sums.check_phases.get(phase).copied().unwrap_or(0.0);
        m.set(&format!("check.{phase}_s"), v, "s");
    }
    m.set("check.witness_probes", sums.probes as f64, "count");
    m.set(
        "check.probe_hit_rate",
        sums.probe_hits as f64 / sums.probes.max(1) as f64,
        "ratio",
    );
    m.set("unattributed_share", ledger.unattributed_share(), "ratio");
    let on_s = total as f64 / 1e9;
    m.set(
        "trace.overhead_share",
        (on_s - off_s) / off_s.max(1e-9),
        "ratio",
    );
    out.detail.set("trace.total_s", on_s, "s");
    out.detail.set("trace.untraced_s", off_s, "s");
    out.trace = Some((spans, ledger));
    Ok(())
}
