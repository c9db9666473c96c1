//! `concord serve`: resident incremental engines behind a request
//! protocol.
//!
//! The batch commands (`learn`, `check`) rebuild the pipeline from disk
//! on every invocation. `serve` instead holds resident engines for the
//! whole session and absorbs single-configuration edits, so each CHECK
//! costs work proportional to what changed since the last one (§3.7's
//! interactive workflow).
//!
//! The default protocol is plain text, one command per line (LF or
//! CRLF):
//!
//! ```text
//! UPSERT <name>     -- followed by the configuration body, terminated
//!                      by a line containing only "."
//! REMOVE <name>
//! LEARN             -- relearn contracts from the current snapshot;
//!                      folds cached per-config sketches, re-mining
//!                      only edited configs
//! CHECK             -- report violations; recomputes only dirty configs
//! GEN <name>        -- the configuration's edit generation
//! CONTRACTS         -- how many contracts are loaded
//! STATS             -- one-line JSON engine snapshot
//! HEALTH            -- storage health one-liner
//! CHECKPOINT        -- force a durable checkpoint (needs --state-dir)
//! BATCH <n>         -- the next n commands, their responses streamed
//!                      back in order, then an `ok batch <n>` trailer
//! QUIT
//! ```
//!
//! A connection whose first byte is `0xC3` speaks the length-prefixed
//! binary framing instead (see [`crate::protocol`]); both framings
//! drive the same request handler, so stdin, TCP, text, and binary are
//! thin adapters over one engine API.
//!
//! Every response line starts with `ok` or `err`; errors carry a stable
//! machine-readable code (`err busy`, `err deadline`, `err too-large`,
//! `err bad-utf8`, `err bad-request …`, `err unknown-command …`,
//! `err unknown-config …`, `err not-learned`, `err internal …`,
//! `err persist …`, `err poisoned`).
//!
//! # One serving path
//!
//! Every request executes against a [`crate::fleet::Fleet`]: N shard
//! engines behind a consistent-hash router, N = `--shards` (default 1,
//! one engine holding the whole corpus). Each shard leader sits behind
//! a deadline-bounded read/write lock ([`crate::sync::DeadlineRwLock`]),
//! and CHECK is answered from cached per-shard parts and a rendered
//! report cache whenever nothing changed. See the fleet module for what
//! differs between one shard and many.
//!
//! On Linux (x86_64/aarch64) TCP connections are served by a readiness
//! event loop (`epoll` via raw syscalls, no external crates): one I/O
//! thread owns every socket and feeds parsed requests to a small
//! executor pool (`--workers`), pipelined requests on one connection
//! execute in order, and responses never interleave. Other targets fall
//! back to a thread-per-connection loop with the same limits.
//!
//! # Robustness
//!
//! Each shard engine is a [`ResilientEngine`]: a panic inside any
//! operation poisons the live snapshot and rebuilds from the
//! last-known-good image, so the process never dies and never answers
//! from suspect state. With `--state-dir` every acknowledged mutation
//! is WAL-logged (fsync'd) and periodically checkpointed, so `kill -9`
//! + restart resumes byte-identical.
//!
//! Load shedding caps concurrent connections (`--max-conns`, default
//! twice the worker count) with `err busy`. Oversized lines
//! (`--max-line-bytes`) and bodies (`--max-body-bytes`) are rejected
//! without touching the engine, invalid UTF-8 is reported as
//! `err bad-utf8`, and a client that trickles a request slower than
//! `--deadline-ms` (slow-loris) is disconnected with `err deadline`.
//! Everything is `std`-only.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use concord_core::ServeTransportStats;
use concord_engine::{EngineFault, ResilientEngine};

use crate::args::ServeArgs;
use crate::fleet::Fleet;
use crate::protocol::{frame_response, BatchItem, Framing, ParseEvent, Request, SessionParser};
use crate::CliError;

/// Request-level limits shared by every connection.
#[derive(Debug, Clone, Copy)]
pub struct ServeLimits {
    /// Per-request deadline: covers reading one command (and its body)
    /// and waiting for the engine lock.
    pub deadline: Duration,
    /// Maximum bytes in one protocol line (or binary frame name).
    pub max_line: usize,
    /// Maximum bytes in one UPSERT body (or binary frame body).
    pub max_body: usize,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            deadline: Duration::from_millis(5000),
            max_line: 64 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

/// Transport-layer counters, reported under `serve` in STATS (schema
/// v7). All relaxed: they are monotonic telemetry, not synchronization.
#[derive(Debug, Default)]
struct TransportCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    binary_frames: AtomicU64,
    shared_reads: AtomicU64,
    exclusive_ops: AtomicU64,
}

impl TransportCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeTransportStats {
        ServeTransportStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            binary_frames: self.binary_frames.load(Ordering::Relaxed),
            shared_reads: self.shared_reads.load(Ordering::Relaxed),
            exclusive_ops: self.exclusive_ops.load(Ordering::Relaxed),
        }
    }

    /// Counts one request (or whole batch) as a write when any part of
    /// it mutates, as a read otherwise.
    fn count_access(&self, write: bool) {
        TransportCounters::bump(if write {
            &self.exclusive_ops
        } else {
            &self.shared_reads
        });
    }
}

/// State shared by every connection: the fleet, the limits, and the
/// serve-layer counters.
pub struct ServeShared {
    pub(crate) fleet: Fleet,
    limits: ServeLimits,
    /// `FAULT <op>` verb enabled (deterministic panic injection for the
    /// robustness harness; off unless `--enable-fault-injection`).
    faults_enabled: bool,
    requests_rejected: AtomicU64,
    deadlines_hit: AtomicU64,
    transport: TransportCounters,
}

impl ServeShared {
    /// Serves one engine: a one-shard fleet.
    pub fn new(engine: ResilientEngine, limits: ServeLimits, faults_enabled: bool) -> ServeShared {
        ServeShared::with_fleet(Fleet::one(engine), limits, faults_enabled)
    }

    pub(crate) fn with_fleet(
        fleet: Fleet,
        limits: ServeLimits,
        faults_enabled: bool,
    ) -> ServeShared {
        ServeShared {
            fleet,
            limits,
            faults_enabled,
            requests_rejected: AtomicU64::new(0),
            deadlines_hit: AtomicU64::new(0),
            transport: TransportCounters::default(),
        }
    }

    pub(crate) fn limits(&self) -> ServeLimits {
        self.limits
    }

    pub(crate) fn reject(&self) {
        self.requests_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn deadline_hit(&self) {
        self.deadlines_hit.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_connection(&self) {
        TransportCounters::bump(&self.transport.connections);
    }

    pub(crate) fn faults_enabled(&self) -> bool {
        self.faults_enabled
    }

    /// The serve-layer robustness overlay: `(requests_rejected,
    /// deadlines_hit)` — counted here, not in any engine.
    pub(crate) fn serve_overlay(&self) -> (u64, u64) {
        (
            self.requests_rejected.load(Ordering::Relaxed),
            self.deadlines_hit.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn transport_snapshot(&self) -> ServeTransportStats {
        self.transport.snapshot()
    }
}

/// One rendered response, already in the session's framing.
pub(crate) struct Reply {
    pub(crate) bytes: Vec<u8>,
    /// The session ends after this response is written.
    pub(crate) quit: bool,
}

/// Turns one parse event into its framed response, applying the
/// rejection taxonomy and executing requests against the fleet. This
/// is the single request handler every transport drives.
pub(crate) fn respond(shared: &ServeShared, event: ParseEvent, framing: Framing) -> Reply {
    if framing == Framing::Binary {
        TransportCounters::bump(&shared.transport.binary_frames);
    }
    let (text, quit) = match event {
        ParseEvent::Request(req) => {
            TransportCounters::bump(&shared.transport.requests);
            execute_request(shared, req)
        }
        ParseEvent::Error { line, reject } => {
            if reject {
                shared.reject();
            }
            (format!("{line}\n"), false)
        }
        ParseEvent::Fatal { line, reject } => {
            if reject {
                shared.reject();
            }
            (format!("{line}\n"), true)
        }
    };
    let mut bytes = Vec::with_capacity(text.len() + 8);
    frame_response(framing, text.as_bytes(), &mut bytes);
    Reply { bytes, quit }
}

/// The framed `err deadline` response (the transport counts the hit and
/// closes the connection after writing it).
pub(crate) fn deadline_reply(framing: Framing) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame_response(framing, b"err deadline\n", &mut bytes);
    bytes
}

/// Whether a request mutates engine state.
fn is_write_op(req: &Request) -> bool {
    matches!(
        req,
        Request::Upsert { .. }
            | Request::Remove { .. }
            | Request::Learn
            | Request::Checkpoint
            | Request::Fault { .. }
    )
}

/// Executes one top-level request; returns the response text and
/// whether the session ends.
fn execute_request(shared: &ServeShared, req: Request) -> (String, bool) {
    match req {
        Request::Quit => ("ok bye\n".to_string(), true),
        Request::Batch(items) => {
            TransportCounters::bump(&shared.transport.batches);
            shared
                .transport
                .batched_requests
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            let write = items
                .iter()
                .any(|item| matches!(item, BatchItem::Run(req) if is_write_op(req)));
            shared.transport.count_access(write);
            (
                crate::fleet::execute_batch(shared, &shared.fleet, &items),
                false,
            )
        }
        req => {
            shared.transport.count_access(is_write_op(&req));
            (crate::fleet::execute(shared, &shared.fleet, &req), false)
        }
    }
}

pub(crate) fn render_gen(result: Result<Option<u64>, EngineFault>, name: &str) -> String {
    match result {
        Ok(Some(gen)) => format!("ok gen {name} {gen}\n"),
        Ok(None) => format!("err unknown-config {name}\n"),
        Err(fault) => format!("{}\n", fault_line(&fault)),
    }
}

/// Renders an [`EngineFault`] as a protocol error line. Messages are
/// flattened to one line so the framing survives arbitrary panic text.
pub(crate) fn fault_line(fault: &EngineFault) -> String {
    let one_line = |s: &str| s.replace(['\n', '\r'], " ");
    match fault {
        EngineFault::UnknownConfig(name) => format!("err unknown-config {}", one_line(name)),
        EngineFault::NoContracts => "err no contracts loaded".to_string(),
        EngineFault::BadContracts(e) => format!("err bad-request {}", one_line(e)),
        EngineFault::Panicked(msg) => format!("err internal {}", one_line(msg)),
        EngineFault::Persist(e) => format!("err persist {}", one_line(e)),
        EngineFault::StorageDegraded(e) => format!("err storage-degraded {}", one_line(e)),
        EngineFault::Poisoned => "err poisoned".to_string(),
    }
}

/// Runs `concord serve`. Returns the process exit code.
pub fn run_serve(args: &ServeArgs, out: &mut dyn Write) -> Result<i32, CliError> {
    let limits = ServeLimits {
        deadline: Duration::from_millis(args.deadline_ms.max(1)),
        max_line: args.max_line_bytes.max(64),
        max_body: args.max_body_bytes.max(64),
    };
    let fleet = crate::fleet::build_fleet(args)?;
    let shared = Arc::new(ServeShared::with_fleet(fleet, limits, args.enable_faults));
    let workers = args.workers.max(1);
    let max_conns = if args.max_conns == 0 {
        workers * 2
    } else {
        args.max_conns
    };
    match &args.listen {
        Some(addr) => serve_tcp(&shared, addr, args.once, workers, max_conns, out),
        None => {
            let stdin = std::io::stdin();
            serve_session(&shared, stdin.lock(), out)
                .map_err(|e| CliError::Io("<stdin>".to_string(), e))?;
            Ok(0)
        }
    }
}

/// On Linux, TCP is served by the epoll readiness event loop.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn serve_tcp(
    shared: &Arc<ServeShared>,
    addr: &str,
    once: bool,
    workers: usize,
    max_conns: usize,
    out: &mut dyn Write,
) -> Result<i32, CliError> {
    crate::eventloop::run_event_loop(shared, addr, once, workers, max_conns, out)
}

/// Portable fallback: thread-per-connection with the same limits,
/// shedding, and protocol behavior (minus readiness-driven I/O).
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn serve_tcp(
    shared: &Arc<ServeShared>,
    addr: &str,
    once: bool,
    _workers: usize,
    max_conns: usize,
    out: &mut dyn Write,
) -> Result<i32, CliError> {
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;

    let io_err = |e: std::io::Error| CliError::Io(addr.to_string(), e);
    let listener = TcpListener::bind(addr).map_err(io_err)?;
    let local = listener.local_addr().map_err(io_err)?;
    // The bound port (OS-chosen under `--listen 127.0.0.1:0`) goes to
    // stdout so a driver can connect.
    let _ = writeln!(out, "listening on {local}");
    let _ = out.flush();

    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let mut stream = stream.map_err(io_err)?;
        if once {
            prepare_stream(shared, &stream);
            let reader = match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => return Ok(0),
            };
            let _ = serve_session(shared, reader, &mut stream);
            return Ok(0);
        }
        if active.load(Ordering::SeqCst) >= max_conns {
            shared.reject();
            let _ = stream.write_all(b"err busy\n");
            continue; // dropping the stream closes the shed connection
        }
        active.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let active = Arc::clone(&active);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                prepare_stream(&shared, &stream);
                if let Ok(reader) = stream.try_clone() {
                    let mut writer = stream;
                    let _ = serve_session(&shared, reader, &mut writer);
                }
                active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
    Ok(0)
}

/// Short read timeouts keep a blocking session responsive enough to
/// enforce deadlines against slow-loris clients.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn prepare_stream(shared: &ServeShared, stream: &std::net::TcpStream) {
    let poll = shared.limits.deadline.min(Duration::from_millis(100));
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_write_timeout(Some(shared.limits.deadline));
}

/// Runs one protocol session over arbitrary blocking byte transports
/// (stdin, a test cursor, the fallback TCP path).
///
/// The engine outlives the session: the TCP server passes the same
/// shared state to every connection, so edits persist across
/// reconnects.
pub fn serve_session<R: Read, W: Write + ?Sized>(
    shared: &ServeShared,
    mut input: R,
    out: &mut W,
) -> std::io::Result<()> {
    shared.count_connection();
    let limits = shared.limits;
    let mut parser = SessionParser::new(limits.max_line, limits.max_body);
    let mut chunk = [0u8; 8192];
    let mut eof = false;
    loop {
        while let Some(event) = parser.next_event() {
            let reply = respond(shared, event, parser.framing());
            out.write_all(&reply.bytes)?;
            out.flush()?;
            if reply.quit {
                return Ok(());
            }
        }
        if eof {
            return Ok(());
        }
        if let Some(since) = parser.pending_since() {
            if since.elapsed() >= limits.deadline {
                // Slow-loris: answer and free the session.
                shared.deadline_hit();
                out.write_all(&deadline_reply(parser.framing()))?;
                out.flush()?;
                return Ok(());
            }
        }
        match input.read(&mut chunk) {
            Ok(0) => {
                parser.set_eof();
                eof = true;
            }
            Ok(n) => parser.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Socket poll tick: loop to re-check the deadline.
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_frame, encode_subframe, opcode};
    use concord_engine::EngineOptions;
    use std::io::Cursor;

    fn corpus() -> Vec<(String, String)> {
        (0..6)
            .map(|i| {
                (
                    format!("dev{i}"),
                    format!(
                        "hostname DEV{}\nrouter bgp 65000\nvlan {}\n",
                        100 + i,
                        250 + i
                    ),
                )
            })
            .collect()
    }

    fn fresh_shared() -> ServeShared {
        let engine = ResilientEngine::new(
            &corpus(),
            &[],
            concord_lexer::Lexer::standard(),
            EngineOptions::default(),
        )
        .unwrap();
        ServeShared::new(engine, ServeLimits::default(), true)
    }

    fn session(shared: &ServeShared, script: &str) -> String {
        let mut out = Vec::new();
        serve_session(shared, Cursor::new(script.as_bytes().to_vec()), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn session_bytes(shared: &ServeShared, script: &[u8]) -> String {
        let mut out = Vec::new();
        serve_session(shared, Cursor::new(script.to_vec()), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// Runs a binary-framed session and returns the decoded
    /// `(status, payload)` responses.
    fn binary_session(shared: &ServeShared, script: &[u8]) -> Vec<(u8, String)> {
        let mut out = Vec::new();
        serve_session(shared, Cursor::new(script.to_vec()), &mut out).unwrap();
        let mut frames = Vec::new();
        let mut rest = &out[..];
        while !rest.is_empty() {
            let (status, payload, consumed) = decode_response(rest).expect("well-framed response");
            frames.push((status, String::from_utf8(payload.to_vec()).unwrap()));
            rest = &rest[consumed..];
        }
        frames
    }

    #[test]
    fn scripted_session_learns_edits_and_checks() {
        let shared = fresh_shared();
        let out = session(
            &shared,
            "LEARN\nCHECK\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nCHECK\nQUIT\n",
        );
        assert!(out.contains("ok learn"), "{out}");
        assert!(out.contains("ok check 0 violations"), "{out}");
        // The edited dev0 lost its bgp line: one dirty config, violations.
        assert!(out.contains("missing required line"), "{out}");
        assert!(out.contains("dirty=1 reused=5"), "{out}");
        assert!(out.ends_with("ok bye\n"), "{out}");
    }

    #[test]
    fn session_state_persists_across_sessions() {
        // Reconnecting (a second session on the same shared state) sees
        // the first session's edits — the engine outlives the transport.
        let shared = fresh_shared();
        session(&shared, "LEARN\nCHECK\nREMOVE dev5\n");
        let out = session(&shared, "CHECK\nSTATS\n");
        assert!(out.contains("dirty=0 reused=5"), "{out}");
        assert!(out.contains("\"edits\":1"), "{out}");
    }

    #[test]
    fn errors_are_reported_inline_and_engine_stays_usable() {
        let shared = fresh_shared();
        let out = session(
            &shared,
            "CHECK\nREMOVE nope\nUPSERT\nFLY\nREMOVE\nGEN nope\nLEARN\nCHECK\nQUIT\n",
        );
        assert!(out.contains("err no contracts loaded"), "{out}");
        assert!(out.contains("err unknown-config nope"), "{out}");
        assert!(out.contains("err bad-request UPSERT requires"), "{out}");
        assert!(out.contains("err unknown-command \"FLY\""), "{out}");
        assert!(out.contains("err bad-request REMOVE requires"), "{out}");
        // And after all those errors the engine still works.
        assert!(out.contains("ok learn"), "{out}");
        assert!(out.contains("ok check 0 violations"), "{out}");
    }

    #[test]
    fn unknown_config_generation_is_an_error_not_zero() {
        let shared = fresh_shared();
        let out = session(&shared, "GEN dev0\nGEN ghost\nQUIT\n");
        assert!(out.contains("ok gen dev0 0"), "{out}");
        assert!(out.contains("err unknown-config ghost"), "{out}");
    }

    #[test]
    fn contracts_before_learn_is_not_learned_not_zero() {
        let shared = fresh_shared();
        let out = session(&shared, "CONTRACTS\nLEARN\nCONTRACTS\nQUIT\n");
        assert!(out.contains("err not-learned"), "{out}");
        assert!(out.contains("ok contracts"), "{out}");
        assert!(!out.contains("ok contracts 0"), "{out}");
    }

    #[test]
    fn unterminated_upsert_body_ends_session_without_touching_engine() {
        let shared = fresh_shared();
        let out = session(&shared, "UPSERT dev9\nvlan 1\n");
        assert!(
            out.contains("err bad-request UPSERT body not terminated"),
            "{out}"
        );
        // dev9 must NOT exist: the partial body never reached the engine.
        let out = session(&shared, "GEN dev9\nQUIT\n");
        assert!(out.contains("err unknown-config dev9"), "{out}");
    }

    #[test]
    fn crlf_lines_are_equivalent_to_lf() {
        let shared = fresh_shared();
        let lf = session(&shared, "LEARN\nUPSERT dev0\nvlan 1\n.\nCHECK\nQUIT\n");
        let shared2 = fresh_shared();
        let crlf = session(
            &shared2,
            "LEARN\r\nUPSERT dev0\r\nvlan 1\r\n.\r\nCHECK\r\nQUIT\r\n",
        );
        assert_eq!(lf, crlf);
    }

    #[test]
    fn non_utf8_input_is_rejected_and_session_continues() {
        let shared = fresh_shared();
        let mut script = Vec::new();
        script.extend_from_slice(b"LEARN\n");
        script.extend_from_slice(&[0xFF, 0xFE, 0x80, b'\n']);
        script.extend_from_slice(b"CHECK\nQUIT\n");
        let out = session_bytes(&shared, &script);
        assert!(out.contains("err bad-utf8"), "{out}");
        assert!(out.contains("ok check 0 violations"), "{out}");
        assert!(out.ends_with("ok bye\n"), "{out}");
    }

    #[test]
    fn oversized_line_is_rejected_and_session_continues() {
        let engine = ResilientEngine::new(
            &corpus(),
            &[],
            concord_lexer::Lexer::standard(),
            EngineOptions::default(),
        )
        .unwrap();
        let limits = ServeLimits {
            max_line: 64,
            ..ServeLimits::default()
        };
        let shared = ServeShared::new(engine, limits, false);
        let long = "X".repeat(1000);
        let out = session(&shared, &format!("{long}\nLEARN\nQUIT\n"));
        assert!(out.contains("err too-large"), "{out}");
        assert!(out.contains("ok learn"), "{out}");
    }

    #[test]
    fn oversized_body_is_rejected_but_engine_stays_clean() {
        let engine = ResilientEngine::new(
            &corpus(),
            &[],
            concord_lexer::Lexer::standard(),
            EngineOptions::default(),
        )
        .unwrap();
        let limits = ServeLimits {
            max_body: 32,
            ..ServeLimits::default()
        };
        let shared = ServeShared::new(engine, limits, false);
        let big_body = "vlan 1\n".repeat(20);
        let out = session(
            &shared,
            &format!("UPSERT huge\n{big_body}.\nGEN huge\nQUIT\n"),
        );
        assert!(out.contains("err too-large"), "{out}");
        assert!(out.contains("err unknown-config huge"), "{out}");
    }

    #[test]
    fn fault_verb_arms_a_panic_and_recovery_matches_oracle() {
        let shared = fresh_shared();
        let clean = session(&shared, "LEARN\nCHECK\n");
        let check_line = clean
            .lines()
            .find(|l| l.starts_with("ok check"))
            .unwrap()
            .to_string();
        let out = session(&shared, "FAULT check\nCHECK\nCHECK\nQUIT\n");
        assert!(out.contains("ok fault armed check"), "{out}");
        assert!(out.contains("err internal injected fault"), "{out}");
        // The recovered engine re-checks from scratch, same answer.
        assert!(out.contains(&check_line), "{out}");
    }

    /// A LEARN whose WAL append fails has already swapped the new set in
    /// memory: it answers `err storage-degraded`, and CONTRACTS and
    /// CHECK then answer from that set, as `ResilientEngine::contracts`
    /// and `check` do — first with no earlier set, then with one.
    #[test]
    fn learn_whose_wal_append_fails_still_serves_the_engines_contracts() {
        use concord_engine::{FaultKind, FaultVfs};
        let dir = std::env::temp_dir().join(format!("concord-serve-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = FaultVfs::new(0x1EA2);
        let (lexer, options) = (concord_lexer::Lexer::standard(), EngineOptions::default());
        let (engine, _) = ResilientEngine::with_store_vfs(
            &corpus(),
            &[],
            lexer.clone(),
            options.clone(),
            &dir,
            Arc::new(fault.clone()),
        )
        .unwrap();
        let shared = ServeShared::new(engine, ServeLimits::default(), false);
        let mut oracle = ResilientEngine::new(&corpus(), &[], lexer, options).unwrap();
        let mut sizes = Vec::new();
        for round in 0..2 {
            if round == 1 {
                // Every config gains a line, so the second set differs.
                for (name, text) in corpus() {
                    let text = format!("{text}logging host 10.0.0.1\n");
                    oracle.upsert(&name, &text).unwrap();
                    let out = session(&shared, &format!("UPSERT {name}\n{text}.\n"));
                    assert!(out.starts_with("ok upsert"), "{out}");
                }
            }
            fault.fail_all_writes(Some(FaultKind::Eio));
            let out = session(&shared, "LEARN\n");
            assert!(out.starts_with("err storage-degraded"), "{out}");
            fault.fail_all_writes(None);
            oracle.relearn().unwrap();
            sizes.push(oracle.contracts().unwrap().expect("learned").len());
            let report = oracle.check().unwrap().report;
            let violations: String = report.violations.iter().map(|v| format!("{v}\n")).collect();
            let (n, count) = (sizes[round], report.violations.len());
            let want = format!("ok contracts {n}\n{violations}ok check {count} violations;");
            let got = session(&shared, "CONTRACTS\nCHECK\n");
            assert!(
                got.starts_with(&want),
                "round {round}: {got}\nwant:\n{want}"
            );
        }
        assert_ne!(sizes[0], sizes[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A FAULT kind that names no engine operation is a bad request.
    /// That includes the two WAL-follower kinds the fleet no longer has.
    #[test]
    fn unknown_fault_kinds_are_bad_requests() {
        let shared = fresh_shared();
        let out = session(
            &shared,
            "FAULT bogus-kind\nFAULT replica-lag 0\nFAULT stale-read 0\nQUIT\n",
        );
        assert_eq!(
            out,
            "err bad-request unknown fault kind \"bogus-kind\"\n\
             err bad-request unknown fault kind \"replica-lag 0\"\n\
             err bad-request unknown fault kind \"stale-read 0\"\n\
             ok bye\n"
        );
    }

    #[test]
    fn fault_verb_is_refused_without_opt_in() {
        let engine = ResilientEngine::new(
            &corpus(),
            &[],
            concord_lexer::Lexer::standard(),
            EngineOptions::default(),
        )
        .unwrap();
        let shared = ServeShared::new(engine, ServeLimits::default(), false);
        let out = session(&shared, "FAULT check\nQUIT\n");
        assert!(out.contains("err unknown-command \"FAULT\""), "{out}");
    }

    #[test]
    fn learn_reports_delta_counters_and_stats_carry_learn_delta() {
        let shared = fresh_shared();
        let out = session(
            &shared,
            "LEARN\nLEARN\nUPSERT dev0\nvlan 1\n.\nLEARN\nSTATS\nQUIT\n",
        );
        let learns: Vec<&str> = out.lines().filter(|l| l.starts_with("ok learn")).collect();
        assert_eq!(learns.len(), 3, "{out}");
        assert!(learns[0].ends_with("mined=6 reused=0"), "{out}");
        assert!(learns[1].ends_with("mined=0 reused=6"), "{out}");
        assert!(learns[2].ends_with("mined=1 reused=5"), "{out}");
        let stats_line = out
            .lines()
            .find(|l| l.starts_with("ok stats "))
            .expect("stats line");
        let json =
            concord_json::Json::parse(stats_line.strip_prefix("ok stats ").unwrap()).unwrap();
        assert_eq!(json["learn_delta"]["enabled"].as_bool(), Some(true));
        assert_eq!(json["learn_delta"]["sketches"].as_u64(), Some(6));
        assert_eq!(json["learn_delta"]["mined_last_learn"].as_u64(), Some(1));
        assert_eq!(json["learn_delta"]["contracts_edits"].as_u64(), Some(1));
    }

    #[test]
    fn stats_is_one_json_line_with_robustness() {
        let shared = fresh_shared();
        let out = session(&shared, "NOPE\nSTATS\n");
        let stats_line = out
            .lines()
            .find(|l| l.starts_with("ok stats "))
            .expect("stats line");
        let json_part = stats_line.strip_prefix("ok stats ").unwrap();
        let json = concord_json::Json::parse(json_part).expect("valid JSON");
        assert_eq!(json["configs"].as_u64(), Some(6));
        assert!(json["contracts"].is_null());
        assert_eq!(
            json["robustness"]["requests_rejected"].as_u64(),
            Some(1),
            "{json_part}"
        );
    }

    #[test]
    fn stats_reports_serve_transport_counters() {
        let shared = fresh_shared();
        let out = session(&shared, "GEN dev0\nSTATS\nQUIT\n");
        let stats_line = out
            .lines()
            .find(|l| l.starts_with("ok stats "))
            .expect("stats line");
        let json =
            concord_json::Json::parse(stats_line.strip_prefix("ok stats ").unwrap()).unwrap();
        assert_eq!(json["serve"]["connections"].as_u64(), Some(1), "{out}");
        // GEN served under the shared lock; STATS itself may be shared
        // or exclusive depending on cache state, so only GEN is pinned.
        assert!(json["serve"]["shared_reads"].as_u64() >= Some(1), "{out}");
        assert_eq!(json["serve"]["batches"].as_u64(), Some(0), "{out}");
    }

    #[test]
    fn batch_matches_the_same_commands_sent_singly() {
        // Byte-equality oracle: a BATCH response is the concatenation of
        // the N single-command responses plus the trailer.
        let shared = fresh_shared();
        session(&shared, "LEARN\nCHECK\n"); // warm contracts + report cache
        let singles = session(&shared, "CHECK\nGEN dev0\nCONTRACTS\nGEN ghost\nNOPE\n");
        let shared2 = fresh_shared();
        session(&shared2, "LEARN\nCHECK\n");
        let batched = session(
            &shared2,
            "BATCH 5\nCHECK\nGEN dev0\nCONTRACTS\nGEN ghost\nNOPE\nQUIT\n",
        );
        assert_eq!(batched, format!("{singles}ok batch 5\nok bye\n"));
    }

    #[test]
    fn batch_with_mutations_executes_in_order_under_one_lock() {
        let shared = fresh_shared();
        let out = session(
            &shared,
            "LEARN\nCHECK\nBATCH 3\nUPSERT dev0\nhostname DEV100\nrouter bgp 65000\nvlan 250\n.\nCHECK\nGEN dev0\nQUIT\n",
        );
        assert!(out.contains("ok upsert dev0"), "{out}");
        assert!(out.contains("dirty=1 reused=5"), "{out}");
        assert!(out.contains("ok gen dev0 1"), "{out}");
        assert!(out.contains("ok batch 3"), "{out}");
        assert!(out.ends_with("ok bye\n"), "{out}");
    }

    #[test]
    fn batch_count_validation_and_eof_mid_batch() {
        let shared = fresh_shared();
        let out = session(&shared, "BATCH 0\nBATCH 9999\nQUIT\n");
        assert_eq!(
            out.matches("err bad-request BATCH requires a count between 1 and 1024")
                .count(),
            2,
            "{out}"
        );
        let out = session(&shared, "BATCH 3\nCHECK\n");
        assert!(out.contains("err bad-request BATCH not completed"), "{out}");
    }

    #[test]
    fn binary_session_matches_text_session_payloads() {
        let shared_text = fresh_shared();
        let text = session(
            &shared_text,
            "LEARN\nUPSERT dev0\nvlan 1\n.\nCHECK\nGEN dev0\nQUIT\n",
        );

        let shared_bin = fresh_shared();
        let mut script = Vec::new();
        encode_frame(opcode::LEARN, b"", b"", &mut script);
        encode_frame(opcode::UPSERT, b"dev0", b"vlan 1\n", &mut script);
        encode_frame(opcode::CHECK, b"", b"", &mut script);
        encode_frame(opcode::GEN, b"dev0", b"", &mut script);
        encode_frame(opcode::QUIT, b"", b"", &mut script);
        let frames = binary_session(&shared_bin, &script);
        let joined: String = frames.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(joined, text, "binary payloads must match text protocol");
        assert!(frames.iter().all(|(status, _)| *status == 0), "{frames:?}");
    }

    #[test]
    fn binary_error_frames_carry_status_one() {
        let shared = fresh_shared();
        let mut script = Vec::new();
        encode_frame(opcode::GEN, b"ghost", b"", &mut script);
        encode_frame(opcode::QUIT, b"", b"", &mut script);
        let frames = binary_session(&shared, &script);
        assert_eq!(frames[0].0, 1, "{frames:?}");
        assert_eq!(frames[0].1, "err unknown-config ghost\n");
        assert_eq!(frames[1].0, 0);
        assert_eq!(frames[1].1, "ok bye\n");
    }

    #[test]
    fn binary_batch_executes_like_text_batch() {
        let shared = fresh_shared();
        session(&shared, "LEARN\nCHECK\n");
        let text = session(&shared, "BATCH 2\nCHECK\nGEN dev0\nQUIT\n");
        let expected_payload = text.strip_suffix("ok bye\n").expect("quit trailer");

        let shared2 = fresh_shared();
        session(&shared2, "LEARN\nCHECK\n");
        let mut body = Vec::new();
        encode_subframe(opcode::CHECK, b"", b"", &mut body);
        encode_subframe(opcode::GEN, b"dev0", b"", &mut body);
        let mut script = Vec::new();
        encode_frame(opcode::BATCH, b"", &body, &mut script);
        encode_frame(opcode::QUIT, b"", b"", &mut script);
        let frames = binary_session(&shared2, &script);
        assert_eq!(frames[0].1, expected_payload);
        assert_eq!(frames[1].1, "ok bye\n");
    }

    #[test]
    fn binary_garbage_frames_never_touch_the_engine() {
        let shared = fresh_shared();
        session(&shared, "LEARN\nCHECK\n");
        // A hostile "frame": valid magic, nonsense lengths and opcodes.
        let mut script = vec![0xC3, 0x77];
        script.extend_from_slice(&u32::MAX.to_le_bytes());
        script.extend_from_slice(&u32::MAX.to_le_bytes());
        script.extend_from_slice(&[0xC3, 0x00, 0x01]);
        let frames = binary_session(&shared, &script);
        assert!(frames.iter().all(|(status, _)| *status == 1), "{frames:?}");
        // The engine state is untouched: a clean session still answers.
        let out = session(&shared, "CHECK\nQUIT\n");
        assert!(out.contains("ok check 0 violations"), "{out}");
    }
}
