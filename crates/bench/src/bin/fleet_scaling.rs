//! Fleet scaling: sharded `concord serve` vs a one-shard serve on the
//! same corpus — answer identity and CHECK-after-edit throughput.
//!
//! The harness boots one real `concord serve --listen` instance per
//! shard count (1, 2, 4, 8) over a shared on-disk corpus and drives it
//! over loopback TCP:
//!
//! * **Identity.** A scripted session (LEARN, edits, CHECK, GEN,
//!   REMOVE, relearn) runs against every shard count, and its full
//!   transcript must be byte-identical to the `--shards 1` transcript.
//!   This is asserted, not just recorded.
//! * **Scaling.** Per shard count: rounds of "UPSERT one device, then
//!   CHECK", timing only the CHECK round trips. Every shard count runs
//!   the same fleet code with the same per-shard parts cache, so the
//!   ratio over `--shards 1` measures sharding alone: a CHECK after one
//!   edit rechecks the owning shard and merges the others from cache.
//!   GEN round trips are timed the same way as a read-path baseline.
//!
//! Results go to `target/experiments/fleet_scaling.json`; full runs
//! snapshot `BENCH_fleet.json` at the repository root, where CI gates
//! the sharded CHECK speedups. Pass `--smoke` (or
//! `CONCORD_FLEET_SMOKE=1`) for the small CI sizes.

use concord_bench::{timed, write_result};
use concord_json::{json, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("CONCORD_FLEET_SMOKE").is_ok_and(|v| v == "1")
}

/// Corpus devices. A CHECK after one edit rechecks the owning shard's
/// share of them; the merge of the other shards' cached parts is
/// O(shards) integer sums.
fn devices() -> usize {
    if smoke() {
        48
    } else {
        768
    }
}

/// Lines per device config. Scales the one-config recheck equally at
/// every shard count.
fn lines_per_device() -> usize {
    if smoke() {
        24
    } else {
        192
    }
}

/// Timed UPSERT+CHECK rounds per shard count.
fn rounds() -> usize {
    if smoke() {
        6
    } else {
        32
    }
}

/// GEN round trips timed per shard count.
fn gen_rounds() -> usize {
    if smoke() {
        64
    } else {
        512
    }
}

fn shard_counts() -> &'static [usize] {
    &[1, 2, 4, 8]
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

fn spawn_server(extra: &[String]) -> String {
    let mut argv: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--deadline-ms",
        "60000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    argv.extend(extra.iter().cloned());
    let out = SharedOut::default();
    {
        let mut sink = out.clone();
        std::thread::spawn(move || concord_cli::run(&argv, &mut sink));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
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
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends one command (with body for UPSERT) and reads its full
    /// response: one line for most verbs, violations + summary for
    /// CHECK, the full JSON line for STATS.
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

/// One device's config: a uniform many-line body (every device carries
/// the same values, so learning mines presence contracts but no
/// fleet-wide unique contracts and the boot corpus checks
/// violation-free). Odd `variant`s drop the final line — an edit that
/// genuinely dirties the device (and may violate a mined contract)
/// without interning any line shape the boot corpus doesn't already
/// hold, so no resolution invalidation skews the scaling loop.
fn config_body(lines: usize, variant: usize) -> String {
    let mut body = String::from("hostname DEVX\nrouter bgp 65000\n");
    let mut n = 2;
    let mut block = 0usize;
    while n + 2 <= lines {
        body.push_str(&format!(
            "vlan {}\ninterface Vlan{}\n",
            100 + block,
            100 + block
        ));
        n += 2;
        block += 1;
    }
    if variant % 2 == 1 {
        let trimmed = body.trim_end_matches('\n');
        let cut = trimmed.rfind('\n').map_or(0, |i| i + 1);
        body.truncate(cut);
    }
    body
}

fn write_corpus(count: usize, lines: usize) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("concord-fleet-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    for i in 0..count {
        std::fs::write(dir.join(format!("dev{i}.cfg")), config_body(lines, 0))
            .expect("write corpus");
    }
    let glob = format!("{}/*.cfg", dir.display());
    (dir, glob)
}

fn server_args(glob: &str, shards: usize) -> Vec<String> {
    vec![
        "--configs".to_string(),
        glob.to_string(),
        "--shards".to_string(),
        shards.to_string(),
    ]
}

/// The identity script: every answer-bearing verb, including edits that
/// cross shard boundaries and a relearn over the edited corpus.
fn identity_transcript(addr: &str, lines: usize) -> String {
    let mut client = Client::connect(addr);
    let mut transcript = String::new();
    let body = config_body(lines, 1);
    let script: Vec<String> = vec![
        "LEARN\n".to_string(),
        "CHECK\n".to_string(),
        format!("UPSERT dev0\n{body}.\n"),
        "CHECK\n".to_string(),
        "CHECK\n".to_string(),
        "GEN dev0\n".to_string(),
        "GEN dev1\n".to_string(),
        format!("UPSERT devnew\n{body}.\n"),
        "REMOVE dev2\n".to_string(),
        "CHECK\n".to_string(),
        "LEARN\n".to_string(),
        "CONTRACTS\n".to_string(),
        "CHECK\n".to_string(),
        "QUIT\n".to_string(),
    ];
    for wire in script {
        transcript.push_str(&client.request(&wire));
    }
    transcript
}

/// Timed scaling cell: per round, UPSERT one (rotating) device with an
/// alternating body, then CHECK; only the CHECK round trips are summed.
/// Returns (checks/sec, gens/sec, the last CHECK response).
fn scaling_cell(addr: &str, count: usize, lines: usize) -> (f64, f64, String) {
    let mut client = Client::connect(addr);
    let learned = client.request("LEARN\n");
    assert!(learned.starts_with("ok learn "), "{learned}");
    // Warm: first CHECK pays the full from-cold recheck, second settles
    // the report caches.
    client.request("CHECK\n");
    client.request("CHECK\n");

    let mut check_time = Duration::ZERO;
    let mut last = String::new();
    for round in 0..rounds() {
        let device = format!("dev{}", round % count);
        let body = config_body(lines, round + 1);
        let up = client.request(&format!("UPSERT {device}\n{body}.\n"));
        assert!(up.starts_with("ok upsert "), "{up}");
        let (response, elapsed) = timed(|| client.request("CHECK\n"));
        assert!(response.contains("ok check "), "{response}");
        check_time += elapsed;
        last = response;
    }
    let checks_per_sec = rounds() as f64 / check_time.as_secs_f64().max(1e-9);

    let mut gen_time = Duration::ZERO;
    for round in 0..gen_rounds() {
        let device = format!("dev{}", round % count);
        let (response, elapsed) = timed(|| client.request(&format!("GEN {device}\n")));
        assert!(response.starts_with("ok gen "), "{response}");
        gen_time += elapsed;
    }
    let gens_per_sec = gen_rounds() as f64 / gen_time.as_secs_f64().max(1e-9);

    client.request("QUIT\n");
    (checks_per_sec, gens_per_sec, last)
}

fn main() {
    let count = devices();
    let lines = lines_per_device();
    let (dir, glob) = write_corpus(count, lines);

    // Identity: every shard count answers byte-identically to one
    // shard.
    let baseline = identity_transcript(&spawn_server(&server_args(&glob, 1)), lines);
    let mut identity_cells: Vec<Json> = Vec::new();
    for &shards in shard_counts().iter().skip(1) {
        let transcript = identity_transcript(&spawn_server(&server_args(&glob, shards)), lines);
        assert_eq!(
            transcript, baseline,
            "--shards {shards} diverged from --shards 1"
        );
        identity_cells.push(json!({ "shards": shards, "identical": true }));
    }
    println!(
        "identity: {} devices x {} lines byte-identical across shard counts {:?}",
        count,
        lines,
        shard_counts()
    );

    // Scaling: CHECK-after-edit and GEN throughput per shard count.
    let mut cells: Vec<Json> = Vec::new();
    let mut base_checks = 0.0f64;
    let mut base_gens = 0.0f64;
    let mut check_speedup_at_8 = 0.0f64;
    let mut last_responses: Vec<String> = Vec::new();
    for &shards in shard_counts() {
        let addr = spawn_server(&server_args(&glob, shards));
        let (checks_per_sec, gens_per_sec, last) = scaling_cell(&addr, count, lines);
        if shards == 1 {
            base_checks = checks_per_sec;
            base_gens = gens_per_sec;
        }
        let check_speedup = checks_per_sec / base_checks.max(1e-9);
        let gen_speedup = gens_per_sec / base_gens.max(1e-9);
        if shards == 8 {
            check_speedup_at_8 = check_speedup;
        }
        println!(
            "{shards:>2} shards: {checks_per_sec:>8.1} checks/s ({check_speedup:.2}x)  {gens_per_sec:>8.1} gens/s ({gen_speedup:.2}x)"
        );
        last_responses.push(last);
        cells.push(json!({
            "shards": shards,
            "checks_per_sec": checks_per_sec,
            "check_speedup": check_speedup,
            "gens_per_sec": gens_per_sec,
            "gen_speedup": gen_speedup,
        }));
    }
    // The timed loops end in the same corpus state for every shard
    // count, so even the final CHECK answers must agree byte for byte
    // (modulo the incremental counters, identical here since every cell
    // runs the same edit sequence).
    for (i, response) in last_responses.iter().enumerate() {
        assert_eq!(
            response,
            &last_responses[0],
            "final CHECK at {} shards diverged",
            shard_counts()[i]
        );
    }

    let result = json!({
        "schema": "concord-bench-fleet/v1",
        "smoke": smoke(),
        "max_rss_kb": concord_bench::microbench::max_rss_kb(),
        "devices": count,
        "lines_per_device": lines,
        "rounds": rounds(),
        "gen_rounds": gen_rounds(),
        "identity": json!({
            "identical": true,
            "cells": Json::Array(identity_cells),
        }),
        "scaling": Json::Array(cells),
        "summary": json!({
            "check_speedup_at_8": check_speedup_at_8,
        }),
    });
    write_result("fleet_scaling", &result);
    if !smoke() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet.json");
        let text = concord_json::to_string_pretty(&result).expect("result serializes");
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("(wrote {})", path.display()),
            Err(e) => eprintln!("(could not write {}: {e})", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
