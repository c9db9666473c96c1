//! Readiness-driven TCP serving: an epoll event loop built on raw
//! syscalls (no external crates, no libc).
//!
//! One I/O thread owns the listener, every connection socket, and every
//! per-connection parser/buffer. Sockets are nonblocking; `epoll` says
//! which are ready. Parsed requests queue per connection and are handed
//! — one in-flight job per connection, whole queue at a time — to a
//! small executor pool that runs the shared request handler
//! ([`crate::serve::respond`]). Because a connection never has two jobs
//! in flight, pipelined requests execute and answer strictly in order
//! while different connections proceed concurrently (readers sharing
//! a shard engine's lock, writers exclusive).
//!
//! Executors signal completion back through a channel plus a one-byte
//! write to a `UnixStream` self-pipe registered in the epoll set, so
//! the I/O thread never polls. A ~50 ms `epoll_wait` tick bounds the
//! slow-loris scan: a connection whose partially-received request is
//! older than the deadline is answered `err deadline` and closed.
//!
//! The syscall layer is deliberately tiny — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`/`epoll_pwait`, `close` — and is gated to
//! Linux on x86_64/aarch64; other targets use the blocking fallback in
//! `serve.rs`.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::protocol::{Framing, ParseEvent, SessionParser};
use crate::serve::{deadline_reply, respond, ServeShared};
use crate::CliError;

/// Readiness flags (uapi `eventpoll.h`).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;

/// The kernel's epoll event record. On x86_64 the ABI packs it (no
/// padding between `events` and `data`); aarch64 uses natural layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_arch = "x86_64")]
mod sys {
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_WAIT: usize = 232;
    pub const CLOSE: usize = 3;

    /// Raw Linux syscall, up to four arguments. The kernel returns the
    /// result (or a negated errno) in `rax`; `rcx`/`r11` are clobbered
    /// by the `syscall` instruction itself.
    ///
    /// # Safety
    /// The caller must pass a valid syscall number and arguments whose
    /// pointees (if any) live across the call.
    pub unsafe fn syscall(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// epoll_wait(epfd, events, maxevents, timeout_ms).
    ///
    /// # Safety
    /// `events` must point to at least `maxevents` writable records.
    pub unsafe fn epoll_wait(
        epfd: usize,
        events: usize,
        maxevents: usize,
        timeout: usize,
    ) -> isize {
        syscall(EPOLL_WAIT, epfd, events, maxevents, timeout)
    }
}

#[cfg(target_arch = "aarch64")]
mod sys {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const CLOSE: usize = 57;

    /// Raw Linux syscall, up to six arguments (`svc #0`, number in
    /// `x8`, result in `x0`).
    ///
    /// # Safety
    /// The caller must pass a valid syscall number and arguments whose
    /// pointees (if any) live across the call.
    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack)
        );
        ret
    }

    /// # Safety
    /// As for [`syscall6`].
    pub unsafe fn syscall(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        syscall6(nr, a1, a2, a3, a4, 0, 0)
    }

    /// aarch64 has no `epoll_wait`; `epoll_pwait` with a null sigmask is
    /// the exact equivalent.
    ///
    /// # Safety
    /// `events` must point to at least `maxevents` writable records.
    pub unsafe fn epoll_wait(
        epfd: usize,
        events: usize,
        maxevents: usize,
        timeout: usize,
    ) -> isize {
        syscall6(EPOLL_PWAIT, epfd, events, maxevents, timeout, 0, 0)
    }
}

/// Converts a raw syscall return into an [`std::io::Result`].
fn check(ret: isize) -> std::io::Result<usize> {
    if ret < 0 {
        Err(std::io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// A minimal owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let ret = unsafe { sys::syscall(sys::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) };
        check(ret).map(|fd| Epoll { fd: fd as RawFd })
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let ret = unsafe {
            sys::syscall(
                sys::EPOLL_CTL,
                self.fd as usize,
                op,
                fd as usize,
                std::ptr::addr_of_mut!(ev) as usize,
            )
        };
        check(ret).map(|_| ())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, retrying on EINTR. Returns how many entries
    /// of `events` were filled.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            let ret = unsafe {
                sys::epoll_wait(
                    self.fd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            sys::syscall(sys::CLOSE, self.fd as usize, 0, 0, 0);
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// One job handed to the executor pool: a connection's whole pending
/// queue, executed in order.
struct Job {
    token: u64,
    framing: Framing,
    events: Vec<ParseEvent>,
}

/// What an executor produced for one job.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    quit: bool,
}

/// Per-connection state machine owned by the I/O thread.
struct Conn {
    stream: TcpStream,
    parser: SessionParser,
    /// Parsed events not yet handed to an executor.
    queue: VecDeque<ParseEvent>,
    /// One job in flight (ordering guarantee).
    busy: bool,
    /// Pending response bytes and the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Peer finished sending (EOF seen).
    read_closed: bool,
    /// Session over (QUIT/fatal/deadline): flush `out`, then close.
    closing: bool,
    /// Events currently registered with epoll, to skip redundant MODs.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, max_line: usize, max_body: usize) -> Conn {
        Conn {
            stream,
            parser: SessionParser::new(max_line, max_body),
            queue: VecDeque::new(),
            busy: false,
            out: Vec::new(),
            out_pos: 0,
            read_closed: false,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The epoll interest this connection currently needs.
    fn wanted_interest(&self) -> u32 {
        let mut events = 0;
        if !self.read_closed && !self.closing {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if self.has_output() {
            events |= EPOLLOUT;
        }
        events
    }

    /// Done when nothing remains to read, execute, or write.
    fn finished(&self) -> bool {
        if self.busy || self.has_output() {
            return false;
        }
        self.closing || (self.read_closed && self.queue.is_empty() && !self.parser.pending())
    }
}

/// Runs the epoll event loop until shutdown (`--once`: the first
/// accepted connection closing ends the process with exit code 0).
pub(crate) fn run_event_loop(
    shared: &Arc<ServeShared>,
    addr: &str,
    once: bool,
    workers: usize,
    max_conns: usize,
    out: &mut dyn Write,
) -> Result<i32, CliError> {
    let io_err = |e: std::io::Error| CliError::Io(addr.to_string(), e);
    let listener = TcpListener::bind(addr).map_err(io_err)?;
    let local = listener.local_addr().map_err(io_err)?;
    // The bound port (OS-chosen under `--listen 127.0.0.1:0`) goes to
    // stdout so a driver can connect.
    let _ = writeln!(out, "listening on {local}");
    let _ = out.flush();
    listener.set_nonblocking(true).map_err(io_err)?;

    let epoll = Epoll::new().map_err(io_err)?;
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .map_err(io_err)?;

    // Completion signal: executors write one byte into a self-pipe the
    // epoll set watches, so the I/O thread parks in epoll_wait only.
    let (wake_tx, wake_rx) = UnixStream::pair().map_err(io_err)?;
    wake_rx.set_nonblocking(true).map_err(io_err)?;
    wake_tx.set_nonblocking(true).map_err(io_err)?;
    epoll
        .add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)
        .map_err(io_err)?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let mut pool = Vec::with_capacity(workers);
    for i in 0..workers {
        let shared = Arc::clone(shared);
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let wake = wake_tx.try_clone().map_err(io_err)?;
        let handle = std::thread::Builder::new()
            .name(format!("serve-exec-{i}"))
            .spawn(move || executor(&shared, &job_rx, &done_tx, &wake))
            .map_err(io_err)?;
        pool.push(handle);
    }
    drop(done_tx);

    let limits = shared.limits();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut accepting = true;
    let mut once_accepted = false;
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    // The tick bounds the slow-loris scan even when no fd fires.
    let tick_ms = (limits.deadline.min(Duration::from_millis(50)).as_millis() as i32).max(1);

    loop {
        let n = epoll.wait(&mut events, tick_ms).map_err(io_err)?;
        for slot in events.iter().take(n) {
            // Copy out of the (possibly packed) record before use.
            let token = slot.data;
            let ready = slot.events;
            match token {
                TOKEN_LISTENER => {
                    if !accepting {
                        continue;
                    }
                    accept_ready(
                        shared,
                        &listener,
                        &epoll,
                        &mut conns,
                        &mut next_token,
                        max_conns,
                        limits.max_line,
                        limits.max_body,
                    );
                    if once && next_token > FIRST_CONN_TOKEN {
                        // One connection is in: stop accepting for good.
                        accepting = false;
                        once_accepted = true;
                        let _ = epoll.delete(listener.as_raw_fd());
                    }
                }
                TOKEN_WAKE => {
                    let mut drain = [0u8; 256];
                    while let Ok(n) = (&wake_rx).read(&mut drain) {
                        if n == 0 {
                            break;
                        }
                    }
                }
                token => {
                    if ready & (EPOLLERR | EPOLLHUP) != 0 {
                        close_conn(&epoll, &mut conns, token);
                        continue;
                    }
                    if ready & (EPOLLIN | EPOLLRDHUP) != 0 {
                        read_ready(&epoll, &mut conns, token);
                    }
                    if ready & EPOLLOUT != 0 {
                        let failed = match conns.get_mut(&token) {
                            Some(conn) => flush_output(conn).is_err(),
                            None => false,
                        };
                        if failed {
                            close_conn(&epoll, &mut conns, token);
                        }
                    }
                }
            }
        }

        // Drain completions (arrive with a wake byte, but drain every
        // pass: cheap, and immune to a saturated self-pipe).
        while let Ok(done) = done_rx.try_recv() {
            let failed = match conns.get_mut(&done.token) {
                Some(conn) => {
                    conn.busy = false;
                    conn.out.extend_from_slice(&done.bytes);
                    if done.quit {
                        conn.closing = true;
                        conn.queue.clear();
                    }
                    flush_output(conn).is_err()
                }
                None => false, // connection already closed
            };
            if failed {
                close_conn(&epoll, &mut conns, done.token);
            }
        }

        // Dispatch, enforce deadlines, sync epoll interest, and reap
        // finished connections.
        let mut to_close = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if !conn.busy && !conn.closing && !conn.queue.is_empty() {
                let job = Job {
                    token,
                    framing: conn.parser.framing(),
                    events: conn.queue.drain(..).collect(),
                };
                conn.busy = true;
                if job_tx.send(job).is_err() {
                    conn.busy = false;
                    conn.closing = true;
                }
            }
            if !conn.closing {
                if let Some(since) = conn.parser.pending_since() {
                    if since.elapsed() >= limits.deadline {
                        shared.deadline_hit();
                        let framing = conn.parser.framing();
                        conn.out.extend_from_slice(&deadline_reply(framing));
                        conn.closing = true;
                        conn.queue.clear();
                    }
                }
            }
            if flush_output(conn).is_err() || conn.finished() {
                to_close.push(token);
                continue;
            }
            let wanted = conn.wanted_interest();
            if wanted != conn.interest {
                let _ = epoll.modify(conn.stream.as_raw_fd(), wanted, token);
                conn.interest = wanted;
            }
        }
        for token in to_close {
            close_conn(&epoll, &mut conns, token);
        }

        if once_accepted && conns.is_empty() {
            break;
        }
    }

    // Shut the pool down: closing the job channel ends the executors.
    drop(job_tx);
    for handle in pool {
        let _ = handle.join();
    }
    Ok(0)
}

/// Executor thread: take a job, run its events in order through the
/// shared request handler, report the concatenated response.
fn executor(
    shared: &ServeShared,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done: &mpsc::Sender<Completion>,
    wake: &UnixStream,
) {
    loop {
        let job = {
            let guard = match jobs.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(job) = job else {
            return; // channel closed: shut down
        };
        let mut bytes = Vec::new();
        let mut quit = false;
        for event in job.events {
            let reply = respond(shared, event, job.framing);
            bytes.extend_from_slice(&reply.bytes);
            if reply.quit {
                quit = true;
                break; // events after QUIT/fatal are dropped
            }
        }
        if done
            .send(Completion {
                token: job.token,
                bytes,
                quit,
            })
            .is_err()
        {
            return;
        }
        // A full pipe is fine: a wake byte is already pending and the
        // I/O thread drains the completion channel on every pass.
        let mut pipe = wake;
        let _ = pipe.write(&[1]);
    }
}

/// Accepts every pending connection, shedding with `err busy` beyond
/// the connection cap.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    shared: &Arc<ServeShared>,
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    max_conns: usize,
    max_line: usize,
    max_body: usize,
) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if conns.len() >= max_conns {
                    // Load shedding: answer before the socket ever
                    // reaches the engine, then drop (closes it).
                    shared.reject();
                    let _ = stream.write_all(b"err busy\n");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                let conn = Conn::new(stream, max_line, max_body);
                if epoll
                    .add(conn.stream.as_raw_fd(), conn.interest, token)
                    .is_ok()
                {
                    shared.count_connection();
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Reads everything available from a ready connection and parses it
/// into the connection's event queue.
fn read_ready(epoll: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
    let mut failed = false;
    if let Some(conn) = conns.get_mut(&token) {
        if conn.read_closed || conn.closing {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.parser.set_eof();
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => conn.parser.push(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if !failed {
            while let Some(event) = conn.parser.next_event() {
                conn.queue.push_back(event);
            }
        }
    }
    if failed {
        close_conn(epoll, conns, token);
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush_output(conn: &mut Conn) -> std::io::Result<()> {
    while conn.has_output() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "connection write stalled",
                ))
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Ok(())
}

/// Deregisters and drops one connection.
fn close_conn(epoll: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        // Dropping the stream closes the socket.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_reports_readiness_with_the_registered_token() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        epoll.add(b.as_raw_fd(), EPOLLIN, 42).expect("ctl add");

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let n = epoll.wait(&mut events, 0).expect("wait");
        assert_eq!(n, 0, "nothing ready yet");

        a.write_all(b"x").expect("write");
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let token = events[0].data;
        let ready = events[0].events;
        assert_eq!(token, 42);
        assert_ne!(ready & EPOLLIN, 0);

        epoll.delete(b.as_raw_fd()).expect("ctl del");
        let n = epoll.wait(&mut events, 0).expect("wait after del");
        assert_eq!(n, 0);
    }

    #[test]
    fn epoll_modify_switches_interest() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        a.write_all(b"x").expect("write");
        // Registered for OUT only: the pending IN byte must not fire.
        epoll.add(b.as_raw_fd(), EPOLLOUT, 7).expect("ctl add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let n = epoll.wait(&mut events, 100).expect("wait");
        assert_eq!(n, 1);
        let ready = events[0].events;
        assert_eq!(ready & EPOLLIN, 0);
        assert_ne!(ready & EPOLLOUT, 0);

        epoll.modify(b.as_raw_fd(), EPOLLIN, 7).expect("ctl mod");
        let n = epoll.wait(&mut events, 100).expect("wait");
        assert_eq!(n, 1);
        let ready = events[0].events;
        assert_ne!(ready & EPOLLIN, 0);
    }
}
