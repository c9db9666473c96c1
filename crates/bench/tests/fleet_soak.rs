//! Fleet fault soak: a sharded `concord serve` under seeded shard-leader
//! crashes, byte-compared against a one-shard oracle.
//!
//! Two real servers boot in-process over loopback TCP from the same
//! seeded corpus: the subject (`--shards 3` with a durable state
//! directory and fault injection enabled) and the oracle (`--shards 1`,
//! never faulted). Seeded edit traffic is mirrored to both, and every
//! round crashes one shard leader mid-CHECK ([`FLEET_FAULTS`]). The
//! invariants, every round:
//!
//! * every non-CHECK response is byte-identical to the oracle's;
//! * the faulted CHECK answers the injected fault, nothing else;
//! * the next CHECK's violations and coverage are byte-identical to the
//!   oracle's (the `dirty=`/`reused=` counters may differ, since the
//!   rebuilt leader re-checks its shard from scratch — see DESIGN.md,
//!   "Fleet architecture");
//! * the repeat CHECK — both servers answering from their caches — is
//!   byte-identical in full, counters included.
//!
//! Everything is a pure function of `CONCORD_SOAK_SEED` (default
//! `0xC0C0`); `CONCORD_SOAK_ITERS` (default 12) scales the run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use concord_engine::fault::{FaultKind, FaultPlan, FLEET_FAULTS};
use concord_engine::ShardRouter;

const SHARDS: usize = 3;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concord-fleet-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A `Write` the server thread and the harness share, polled for the
/// `listening on <addr>` announcement.
#[derive(Clone, Default)]
struct SharedOut(Arc<Mutex<Vec<u8>>>);

impl Write for SharedOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("out lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn spawn_server(extra: &[&str]) -> String {
    let mut argv: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--deadline-ms",
        "30000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    argv.extend(extra.iter().map(|s| s.to_string()));
    let out = SharedOut::default();
    {
        let mut sink = out.clone();
        std::thread::spawn(move || concord_cli::run(&argv, &mut sink));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = String::from_utf8_lossy(&out.0.lock().expect("out lock")).into_owned();
        if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
            return line["listening on ".len()..].to_string();
        }
        assert!(Instant::now() < deadline, "server never announced: {text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends one command (with body for UPSERT) and reads its full
    /// response: one line for most verbs, violations + summary for
    /// CHECK.
    fn request(&mut self, wire: &str) -> String {
        self.writer.write_all(wire.as_bytes()).expect("send");
        let check = wire.starts_with("CHECK");
        let mut response = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read response");
            assert!(n > 0, "server closed mid-response to {wire:?}");
            response.push_str(&line);
            if !check || line.starts_with("ok check ") || line.starts_with("err ") {
                return response;
            }
        }
    }
}

/// A CHECK response with the incremental counters masked — everything a
/// correctness argument rests on (violations, coverage, line counts),
/// none of the cache telemetry.
fn mask_counters(response: &str) -> String {
    match response.find("; dirty=") {
        Some(i) => response[..i].to_string(),
        None => response.to_string(),
    }
}

/// Mirrors one command to both servers and asserts byte-identical
/// responses; returns the (shared) response.
fn mirrored(subject: &mut Client, oracle: &mut Client, wire: &str, context: &str) -> String {
    let got = subject.request(wire);
    let want = oracle.request(wire);
    assert_eq!(got, want, "{context}: {wire:?} diverged");
    got
}

#[test]
fn sharded_serve_survives_fleet_faults_byte_identically() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let iters = env_u64("CONCORD_SOAK_ITERS", 12) as usize;
    let mut plan = FaultPlan::new(seed ^ 0xF1EE7);

    // Shared seeded corpus on disk; both servers boot from the glob.
    let corpus_dir = temp_dir("corpus");
    let pool = 10usize;
    for i in 0..8 {
        std::fs::write(corpus_dir.join(format!("dev{i}.cfg")), plan.config_text())
            .expect("write config");
    }
    let glob = format!("{}/*.cfg", corpus_dir.display());
    let state_dir = temp_dir("state");

    let subject_addr = spawn_server(&[
        "--configs",
        &glob,
        "--shards",
        "3",
        "--state-dir",
        &state_dir.display().to_string(),
        "--enable-fault-injection",
    ]);
    let oracle_addr = spawn_server(&["--configs", &glob]);
    let mut subject = Client::connect(&subject_addr);
    let mut oracle = Client::connect(&oracle_addr);
    let router = ShardRouter::new(SHARDS);
    // A device per shard, for targeting faults at the shard that owns it.
    let device_on = |shard: usize| -> String {
        (0..pool)
            .map(|i| format!("dev{i}"))
            .find(|name| router.route(name) == shard)
            .unwrap_or_else(|| panic!("no pool device routes to shard {shard}"))
    };

    mirrored(&mut subject, &mut oracle, "LEARN\n", "initial learn");

    for round in 0..iters {
        let context = format!("round {round} seed {seed}");

        // Seeded mirrored edit traffic.
        for _ in 0..2 {
            match plan.index(4) {
                0 | 1 => {
                    let name = plan.device_name(pool);
                    let body = plan.config_text();
                    mirrored(
                        &mut subject,
                        &mut oracle,
                        &format!("UPSERT {name}\n{body}.\n"),
                        &context,
                    );
                }
                2 => {
                    let name = plan.device_name(pool);
                    mirrored(
                        &mut subject,
                        &mut oracle,
                        &format!("REMOVE {name}\n"),
                        &context,
                    );
                }
                _ => {
                    let name = plan.device_name(pool);
                    mirrored(
                        &mut subject,
                        &mut oracle,
                        &format!("GEN {name}\n"),
                        &context,
                    );
                }
            }
        }

        // One fleet fault per round, subject-only.
        let fault = FLEET_FAULTS[round % FLEET_FAULTS.len()];
        let shard = plan.index(SHARDS);
        match fault {
            FaultKind::ShardCrash => {
                // Dirty the target shard so the armed panic actually
                // fires inside its next CHECK recompute.
                let device = device_on(shard);
                let body = plan.config_text();
                mirrored(
                    &mut subject,
                    &mut oracle,
                    &format!("UPSERT {device}\n{body}.\n"),
                    &context,
                );
                let armed = subject.request(&format!("FAULT check {shard}\n"));
                assert!(armed.starts_with("ok fault armed"), "{context}: {armed}");
            }
            other => panic!("unexpected fleet fault {other:?}"),
        }

        // Post-fault invariant 1: the faulted CHECK answers the fault.
        let faulted = subject.request("CHECK\n");
        assert_eq!(
            faulted, "err internal injected fault: Check\n",
            "{context} fault {fault:?}: the faulted check must answer the fault"
        );

        // Post-fault invariant 2: the next CHECK, on the rebuilt leader,
        // answers with violations and coverage byte-identical to the
        // oracle's.
        let got = subject.request("CHECK\n");
        let want = oracle.request("CHECK\n");
        assert!(
            got.contains("ok check "),
            "{context}: post-fault check did not answer: {got}"
        );
        assert_eq!(
            mask_counters(&got),
            mask_counters(&want),
            "{context} fault {fault:?}: post-fault check diverged from oracle"
        );

        // Post-fault invariant 3: the steady-state repeat CHECK — both
        // sides answering from their report caches — is byte-identical
        // in full, incremental counters included.
        mirrored(&mut subject, &mut oracle, "CHECK\n", &context);

        // Periodic mirrored LEARN keeps the contract sets (and their
        // delta-learn counters) in lockstep.
        if round % 4 == 3 {
            mirrored(&mut subject, &mut oracle, "LEARN\n", &context);
            mirrored(&mut subject, &mut oracle, "CONTRACTS\n", &context);
        }
    }

    mirrored(&mut subject, &mut oracle, "QUIT\n", "shutdown");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
}
