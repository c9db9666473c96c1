//! Driving the real `concord` binary: CLI processes, `concord serve`
//! over loopback TCP, and per-process CPU time and peak memory.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How a finished CLI process ended.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Spawn to exit.
    pub wall: Duration,
    /// CPU time the process used, user plus system, all its threads.
    pub cpu: Duration,
    /// The process's own peak resident set, KiB.
    pub max_rss_kb: u64,
}

extern "C" {
    // `pid_t wait4(pid_t, int *, int, struct rusage *)` and
    // `long sysconf(int)` from the C library std already links.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Runs `concord <args>` to completion with output discarded, reporting
/// its wall time, CPU time and own peak RSS (the kernel's `ru_maxrss` for
/// that child, which is the `VmHWM` its `/proc/<pid>/status` showed
/// before exit).
pub fn run_cli(concord: &Path, args: &[String]) -> io::Result<Finished> {
    let start = Instant::now();
    let child = Command::new(concord)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    // `struct rusage` on 64-bit Linux: two `timeval`s (user, then
    // system: seconds and microseconds each), then fourteen longs
    // starting with `ru_maxrss` (KiB).
    let mut usage = [0i64; 18];
    loop {
        // SAFETY: `status` and `usage` are live, writable, and sized for
        // `int` and `struct rusage` (144 bytes on 64-bit Linux); `pid`
        // is this process's own unreaped child, which `child` never
        // waits on after this point.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    drop(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    let micros = |secs: i64, us: i64| u64::try_from(secs * 1_000_000 + us).unwrap_or(0);
    Ok(Finished {
        code,
        wall,
        cpu: Duration::from_micros(micros(usage[0], usage[1]) + micros(usage[2], usage[3])),
        max_rss_kb: u64::try_from(usage[4]).unwrap_or(0),
    })
}

/// One `VmXXX:` field of `/proc/<pid>/status`, KiB.
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks: the
/// 14th and 15th fields, counted after the parenthesised command name
/// (which may itself hold spaces and parentheses).
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds a running process has used so far, user plus system,
/// including threads that have exited.
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = stat_cpu_ticks(&stat)
        .ok_or_else(|| io::Error::other(format!("unparsable /proc/{pid}/stat")))?;
    // SAFETY: `sysconf` only reads a constant of the C library; any
    // name is valid to ask for.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err(io::Error::other("sysconf(_SC_CLK_TCK) failed"));
    }
    Ok(ticks as f64 / hz as f64)
}

/// A running `concord serve --listen` process.
pub struct Server {
    child: Child,
    /// Held so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The `host:port` it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `concord serve <args> --listen 127.0.0.1:0` and waits for
    /// its `listening on` line (the engine has booted by then).
    pub fn spawn(concord: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(concord)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr.to_string();
                return Ok(Server {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    /// The server's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds the server has used so far.
    pub fn cpu_s(&self) -> io::Result<f64> {
        proc_cpu_s(self.pid())
    }

    /// Opens a client connection.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.addr)
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server abandoned on an error path must not outlive the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A closed-loop protocol client: one request, then its whole response.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }

    /// Sends a one-line request and returns its one-line response.
    pub fn simple(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.line()
    }

    /// `UPSERT name` with `text` as the body; returns the response line.
    pub fn upsert(&mut self, name: &str, text: &str) -> io::Result<String> {
        let mut req = String::with_capacity(text.len() + name.len() + 16);
        req.push_str("UPSERT ");
        req.push_str(name);
        req.push('\n');
        req.push_str(text);
        if !text.ends_with('\n') {
            req.push('\n');
        }
        req.push_str(".\n");
        self.writer.write_all(req.as_bytes())?;
        self.line()
    }

    /// `CHECK`: the violation lines, then the `ok check` / `err` line.
    pub fn check(&mut self) -> io::Result<(Vec<String>, String)> {
        self.writer.write_all(b"CHECK\n")?;
        let mut violations = Vec::new();
        loop {
            let line = self.line()?;
            if line.starts_with("ok check") || line.starts_with("err") {
                return Ok((violations, line));
            }
            violations.push(line);
        }
    }
}

/// A parsed `ok check N violations; ...` summary: the violation count.
pub fn check_count(summary: &str) -> Option<usize> {
    summary
        .strip_prefix("ok check ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A violation line `config:line: message [category]`, reduced to its
/// config and line number (`None` for a line-less `config: ...`).
pub fn violation_site(line: &str) -> Option<(&str, Option<u32>)> {
    let (config, rest) = line.split_once(':')?;
    let line_no = rest
        .split_once(':')
        .and_then(|(n, _)| n.parse::<u32>().ok());
    Some((config, line_no))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_check_summary_and_violation_sites() {
        assert_eq!(
            check_count("ok check 12 violations; coverage 9.0% of 3 lines; dirty=1 reused=2\n"),
            Some(12)
        );
        assert_eq!(check_count("err no contracts loaded\n"), None);
        assert_eq!(
            violation_site("E1-dev3:41: unexpected line [ordering]"),
            Some(("E1-dev3", Some(41)))
        );
        assert_eq!(
            violation_site("E1-dev3: missing required line router bgp [present]"),
            Some(("E1-dev3", None))
        );
    }

    #[test]
    fn stat_cpu_is_utime_plus_stime_after_the_command_name() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (con cord) S 1 4242 4242 0 -1 4194560 900 0 3 0 150 27 0 0 20 0 5 0\n";
        assert_eq!(stat_cpu_ticks(stat), Some(177));
        assert_eq!(stat_cpu_ticks("4242 (x) S 1"), None);
        assert!(proc_cpu_s(std::process::id()).expect("own /proc stat") >= 0.0);
    }
}
