//! End-to-end smoke test of `concord serve --listen`: boot a real TCP
//! server on an OS-assigned port, drive a scripted session over the
//! socket, and check the deterministic protocol responses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `Write` the server thread and the test can share: the test polls it
/// for the `listening on <addr>` line to learn the port.
#[derive(Clone, Default)]
struct SharedOut(Arc<Mutex<Vec<u8>>>);

impl Write for SharedOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedOut {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

#[test]
fn tcp_session_round_trips() {
    let dir = std::env::temp_dir().join(format!("concord-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..6 {
        std::fs::write(
            dir.join(format!("dev{i}.cfg")),
            format!(
                "hostname DEV{}\nrouter bgp 65000\nvlan {}\n",
                100 + i,
                250 + i
            ),
        )
        .unwrap();
    }
    let configs = format!("{}/*.cfg", dir.display());

    let out = SharedOut::default();
    let server = {
        let mut out = out.clone();
        let argv: Vec<String> = [
            "serve",
            "--configs",
            &configs,
            "--listen",
            "127.0.0.1:0",
            "--once",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        std::thread::spawn(move || concord_cli::run(&argv, &mut out))
    };

    // Wait for the server to announce its port.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        let text = out.text();
        if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
            break line["listening on ".len()..].to_string();
        }
        assert!(Instant::now() < deadline, "server never announced: {text}");
        std::thread::sleep(Duration::from_millis(10));
    };

    let stream = TcpStream::connect(&addr).expect("connect to serve");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut send = |cmd: &str| {
        writer.write_all(cmd.as_bytes()).unwrap();
        writer.flush().unwrap();
    };
    let read_until_ok = |reader: &mut BufReader<TcpStream>| -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "connection closed early: {lines:?}"
            );
            let trimmed = line.trim_end().to_string();
            let done = trimmed.starts_with("ok ") || trimmed.starts_with("err ");
            lines.push(trimmed);
            if done {
                return lines;
            }
        }
    };

    send("LEARN\n");
    let learn = read_until_ok(&mut reader);
    assert!(learn.last().unwrap().starts_with("ok learn"), "{learn:?}");

    send("CHECK\n");
    let check = read_until_ok(&mut reader);
    let first_check = check.last().unwrap();
    assert!(
        first_check.starts_with("ok check 0 violations"),
        "{check:?}"
    );
    assert!(first_check.ends_with("dirty=6 reused=0"), "{check:?}");

    // Break one device over the wire, then re-check: only it is dirty.
    send("UPSERT dev0\nhostname DEV100\nvlan 250\n.\n");
    let upsert = read_until_ok(&mut reader);
    assert!(
        upsert.last().unwrap().starts_with("ok upsert dev0"),
        "{upsert:?}"
    );

    send("CHECK\n");
    let recheck = read_until_ok(&mut reader);
    assert!(
        recheck.iter().any(|l| l.contains("missing required line")),
        "{recheck:?}"
    );
    assert!(
        recheck.last().unwrap().contains("dirty=1 reused=5"),
        "{recheck:?}"
    );

    send("STATS\n");
    let stats = read_until_ok(&mut reader);
    assert!(stats.last().unwrap().starts_with("ok stats {"), "{stats:?}");
    assert!(
        stats.last().unwrap().contains("\"storage\""),
        "stats must carry the storage health object: {stats:?}"
    );

    send("HEALTH\n");
    let health = read_until_ok(&mut reader);
    assert_eq!(
        health.last().unwrap(),
        "ok health healthy faults=0 retries=0 transitions=0 recoveries=0 shards=1 degraded_shards=0",
        "{health:?}"
    );

    send("QUIT\n");
    let bye = read_until_ok(&mut reader);
    assert_eq!(bye.last().unwrap(), "ok bye");

    let code = server.join().expect("server thread");
    assert_eq!(code, 0, "serve --once exits cleanly: {}", out.text());
    let _ = std::fs::remove_dir_all(&dir);
}
