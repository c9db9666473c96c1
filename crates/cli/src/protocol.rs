//! Wire protocol for `concord serve`: request model, streaming parser,
//! and framing.
//!
//! One [`SessionParser`] per connection turns raw bytes into
//! [`ParseEvent`]s, independent of how the bytes arrive (blocking stdin,
//! the epoll event loop, a test cursor). Two framings share the same
//! request model:
//!
//! * **Text** — the original line protocol (one command per LF/CRLF
//!   line, UPSERT bodies terminated by a `.` line), extended with
//!   `BATCH <n>`: the next `n` command lines execute in order and
//!   their responses are concatenated, followed by an `ok batch <n>`
//!   trailer.
//! * **Binary** — opt-in length-prefixed frames with zero-copy parsing:
//!   the payload is sliced out of the connection's read buffer and
//!   validated in place; the only copy is the one that materializes the
//!   owned request. A request frame is
//!   `0xC3 | opcode u8 | name_len u32 LE | body_len u32 LE | name | body`;
//!   a response frame is `0xC4 | status u8 | len u32 LE | payload` where
//!   `status` is 0 (`ok`) or 1 (`err`) and the payload carries the exact
//!   bytes the text protocol would have written. A BATCH frame
//!   (opcode 11) nests sub-frames without the leading magic byte.
//!
//! A connection picks its framing with its first byte: `0xC3` (invalid
//! as UTF-8 text, so never the start of a text command) selects binary
//! for the whole session.
//!
//! The parser enforces the serve limits (`max_line`, `max_body`) before
//! any allocation sized by attacker-controlled input, and reports
//! protocol failures as pre-rendered response lines using the same
//! stable error taxonomy as the original serve loop (`err too-large`,
//! `err bad-utf8`, `err bad-request …`, `err unknown-command …`).

use std::time::Instant;

/// First byte of a binary request frame (and the framing selector).
pub const FRAME_REQUEST: u8 = 0xC3;
/// First byte of a binary response frame.
pub const FRAME_RESPONSE: u8 = 0xC4;

/// Binary opcodes, one per protocol verb.
#[allow(missing_docs)] // names mirror the text verbs one-for-one
pub mod opcode {
    pub const UPSERT: u8 = 1;
    pub const REMOVE: u8 = 2;
    pub const LEARN: u8 = 3;
    pub const CHECK: u8 = 4;
    pub const GEN: u8 = 5;
    pub const CONTRACTS: u8 = 6;
    pub const STATS: u8 = 7;
    pub const CHECKPOINT: u8 = 8;
    pub const FAULT: u8 = 9;
    pub const QUIT: u8 = 10;
    pub const BATCH: u8 = 11;
    pub const HEALTH: u8 = 12;
}

/// Largest accepted `BATCH` count, shared by both framings.
pub const MAX_BATCH: usize = 1024;

/// One parsed protocol request, framing-independent.
#[allow(missing_docs)] // variants mirror the protocol verbs documented above
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Upsert {
        name: String,
        body: String,
    },
    Remove {
        name: String,
    },
    Learn,
    Check,
    Gen {
        name: String,
    },
    Contracts,
    Stats,
    Checkpoint,
    /// `HEALTH`: storage health — degraded/healthy plus fault counters.
    Health,
    /// `FAULT <kind>`; whether the verb is enabled (and whether the kind
    /// parses) is decided at execution time, like the original loop.
    Fault {
        rest: String,
    },
    Quit,
    /// `BATCH <n>`: sub-commands executed under one lock acquisition.
    Batch(Vec<BatchItem>),
}

/// One entry of a BATCH: a runnable request, or a protocol-level
/// failure whose response line is emitted in place — exactly what the
/// same input would have produced sent on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// A runnable sub-request.
    Run(Request),
    /// A malformed sub-command: `line` is emitted verbatim in the batch
    /// response and `reject` counts toward `requests_rejected`.
    Error {
        #[allow(missing_docs)]
        line: String,
        #[allow(missing_docs)]
        reject: bool,
    },
}

/// What the parser produced from the buffered bytes.
#[allow(missing_docs)] // field meanings documented on the variants
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEvent {
    /// A complete request, ready to execute.
    Request(Request),
    /// A protocol error; respond and keep the session open. `reject`
    /// means it counts toward `requests_rejected`.
    Error { line: String, reject: bool },
    /// A protocol error that ends the session after the response.
    Fatal { line: String, reject: bool },
}

/// Session framing, fixed by the first byte received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// No bytes received yet; the deciding first byte is still pending.
    Unknown,
    /// The line protocol.
    Text,
    /// Length-prefixed `0xC3`/`0xC4` frames.
    Binary,
}

/// Latched failure while collecting an UPSERT body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyFail {
    TooLarge,
    BadUtf8,
}

/// Parser state between events.
#[derive(Debug)]
enum State {
    /// Expecting a command line (text) or a frame (binary).
    Command,
    /// Collecting an UPSERT body up to the `.` sentinel.
    Body {
        name: String,
        body: String,
        failed: Option<BodyFail>,
    },
}

/// Text-mode batch collection in progress.
#[derive(Debug)]
struct BatchCollect {
    want: usize,
    items: Vec<BatchItem>,
}

/// A complete line extracted from the buffer, classified like the
/// original bounded line reader.
enum LineEvent {
    /// Need more bytes.
    Pending,
    /// Clean end of input.
    Eof,
    Line(String),
    Oversized,
    NonUtf8,
}

/// What one parsed command line means.
enum Parsed {
    Req(Request),
    /// UPSERT: the body follows.
    NeedBody {
        name: String,
    },
    Error {
        line: String,
        reject: bool,
    },
    /// `BATCH <n>` opens a collection.
    BatchStart {
        want: usize,
    },
}

/// Incremental, non-blocking protocol parser for one session.
///
/// Feed bytes with [`SessionParser::push`], then drain events with
/// [`SessionParser::next_event`] until it returns `None`. Call
/// [`SessionParser::set_eof`] once input is exhausted so trailing
/// unterminated input is classified (a final line without a newline is
/// processed; a disconnect mid-UPSERT-body is a fatal
/// `err bad-request`). [`SessionParser::pending_since`] reports when the
/// first byte of the currently incomplete request arrived — the
/// deadline anchor for slow-loris enforcement.
pub struct SessionParser {
    max_line: usize,
    max_body: usize,
    framing: Framing,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted periodically.
    pos: usize,
    /// Text mode: discarding an oversized line up to its newline.
    draining: bool,
    state: State,
    batch: Option<BatchCollect>,
    pending_since: Option<Instant>,
    eof: bool,
}

impl SessionParser {
    /// A parser for one fresh session under the given limits.
    pub fn new(max_line: usize, max_body: usize) -> SessionParser {
        SessionParser {
            max_line,
            max_body,
            framing: Framing::Unknown,
            buf: Vec::new(),
            pos: 0,
            draining: false,
            state: State::Command,
            batch: None,
            pending_since: None,
            eof: false,
        }
    }

    /// The framing this session locked onto (after its first byte).
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if !self.pending() {
            self.pending_since = Some(Instant::now());
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Marks clean end of input.
    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    /// Whether a request is partially received (or parsed state is
    /// mid-request) — the condition the deadline scan watches.
    pub fn pending(&self) -> bool {
        self.pos < self.buf.len() || !matches!(self.state, State::Command) || self.batch.is_some()
    }

    /// When the first byte of the currently incomplete request arrived.
    pub fn pending_since(&self) -> Option<Instant> {
        if self.pending() {
            self.pending_since
        } else {
            None
        }
    }

    /// Produces the next event, or `None` when more input is needed (or
    /// input ended cleanly).
    pub fn next_event(&mut self) -> Option<ParseEvent> {
        if self.framing == Framing::Unknown {
            if self.pos >= self.buf.len() {
                return None;
            }
            self.framing = if self.buf[self.pos] == FRAME_REQUEST {
                Framing::Binary
            } else {
                Framing::Text
            };
        }
        let event = match self.framing {
            Framing::Binary => self.next_binary(),
            _ => self.next_text(),
        };
        if event.is_some() {
            // Whatever remains buffered belongs to the next request(s);
            // their deadline clock starts now.
            self.pending_since = self.pending().then(Instant::now);
        }
        self.compact();
        event
    }

    /// Reclaims consumed buffer space once it dominates the allocation.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    // ---- text framing ----

    /// Extracts the next complete line, mirroring the bounded reader the
    /// blocking loop used: oversized lines switch to drain mode (and
    /// report once, at the newline), CRLF folds to LF, invalid UTF-8 is
    /// classified rather than propagated, and trailing bytes at EOF
    /// surface as a final line.
    fn take_line(&mut self) -> LineEvent {
        if let Some(rel) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
            let start = self.pos;
            self.pos += rel + 1;
            if self.draining {
                self.draining = false;
                return LineEvent::Oversized;
            }
            let line = &self.buf[start..start + rel];
            if line.len() > self.max_line {
                return LineEvent::Oversized;
            }
            let line = match line.last() {
                Some(b'\r') => &line[..line.len() - 1],
                _ => line,
            };
            return match std::str::from_utf8(line) {
                Ok(text) => LineEvent::Line(text.to_string()),
                Err(_) => LineEvent::NonUtf8,
            };
        }
        if self.buf.len() - self.pos > self.max_line {
            self.draining = true;
        }
        if self.draining {
            // Nothing before the next newline survives; drop it now so a
            // flood never accumulates.
            self.pos = self.buf.len();
        }
        if self.eof {
            if self.pos >= self.buf.len() || self.draining {
                return LineEvent::Eof;
            }
            let line = &self.buf[self.pos..];
            let event = match std::str::from_utf8(line) {
                Ok(text) => LineEvent::Line(text.to_string()),
                Err(_) => LineEvent::NonUtf8,
            };
            self.pos = self.buf.len();
            return event;
        }
        LineEvent::Pending
    }

    fn next_text(&mut self) -> Option<ParseEvent> {
        loop {
            if !matches!(self.state, State::Body { .. }) {
                match self.take_line() {
                    LineEvent::Pending => return None,
                    LineEvent::Eof => {
                        if self.batch.take().is_some() {
                            return Some(ParseEvent::Fatal {
                                line: "err bad-request BATCH not completed".to_string(),
                                reject: true,
                            });
                        }
                        return None;
                    }
                    LineEvent::Oversized => {
                        let line = format!("err too-large line exceeds {} bytes", self.max_line);
                        if let Some(event) = self.deliver_failure(line) {
                            return Some(event);
                        }
                    }
                    LineEvent::NonUtf8 => {
                        if let Some(event) = self.deliver_failure("err bad-utf8".to_string()) {
                            return Some(event);
                        }
                    }
                    LineEvent::Line(text) => {
                        let trimmed = text.trim();
                        if trimmed.is_empty() {
                            continue;
                        }
                        match self.parse_command(trimmed) {
                            Parsed::NeedBody { name } => {
                                self.state = State::Body {
                                    name,
                                    body: String::new(),
                                    failed: None,
                                };
                            }
                            Parsed::Req(req) => {
                                if let Some(event) = self.deliver_request(req) {
                                    return Some(event);
                                }
                            }
                            Parsed::Error { line, reject } => {
                                if let Some(event) = self.deliver_error(line, reject) {
                                    return Some(event);
                                }
                            }
                            Parsed::BatchStart { want } => {
                                if self.batch.is_some() {
                                    // Unreachable from input (nested BATCH
                                    // parses as an item error), kept as a
                                    // defensive reply.
                                    if let Some(event) = self.deliver_error(
                                        "err bad-request BATCH cannot be nested".to_string(),
                                        true,
                                    ) {
                                        return Some(event);
                                    }
                                } else {
                                    self.batch = Some(BatchCollect {
                                        want,
                                        items: Vec::new(),
                                    });
                                }
                            }
                        }
                    }
                }
            } else {
                match self.take_line() {
                    LineEvent::Pending => return None,
                    LineEvent::Eof => {
                        self.state = State::Command;
                        self.batch = None;
                        return Some(ParseEvent::Fatal {
                            line: "err bad-request UPSERT body not terminated by `.`".to_string(),
                            reject: false,
                        });
                    }
                    LineEvent::Oversized => {
                        if let State::Body { failed, .. } = &mut self.state {
                            failed.get_or_insert(BodyFail::TooLarge);
                        }
                    }
                    LineEvent::NonUtf8 => {
                        if let State::Body { failed, .. } = &mut self.state {
                            failed.get_or_insert(BodyFail::BadUtf8);
                        }
                    }
                    LineEvent::Line(text) => {
                        if text.trim_end_matches(['\r', '\n']) == "." {
                            let state = std::mem::replace(&mut self.state, State::Command);
                            let State::Body { name, body, failed } = state else {
                                continue;
                            };
                            let outcome = match failed {
                                None => Ok(Request::Upsert { name, body }),
                                Some(BodyFail::TooLarge) => Err(format!(
                                    "err too-large body exceeds {} bytes",
                                    self.max_body
                                )),
                                Some(BodyFail::BadUtf8) => Err("err bad-utf8".to_string()),
                            };
                            let event = match outcome {
                                Ok(req) => self.deliver_request(req),
                                Err(line) => self.deliver_error(line, true),
                            };
                            if let Some(event) = event {
                                return Some(event);
                            }
                        } else if let State::Body { body, failed, .. } = &mut self.state {
                            if failed.is_none() {
                                body.push_str(&text);
                                body.push('\n');
                                if body.len() > self.max_body {
                                    body.clear();
                                    *failed = Some(BodyFail::TooLarge);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Routes a completed request: batch item, or a top-level event.
    fn deliver_request(&mut self, req: Request) -> Option<ParseEvent> {
        match &mut self.batch {
            Some(collect) => {
                let item = match req {
                    Request::Quit => BatchItem::Error {
                        line: "err bad-request QUIT inside BATCH".to_string(),
                        reject: true,
                    },
                    other => BatchItem::Run(other),
                };
                collect.items.push(item);
                self.finish_batch_if_complete()
            }
            None => Some(ParseEvent::Request(req)),
        }
    }

    /// Routes a protocol error: batch item, or a top-level event.
    fn deliver_error(&mut self, line: String, reject: bool) -> Option<ParseEvent> {
        match &mut self.batch {
            Some(collect) => {
                collect.items.push(BatchItem::Error { line, reject });
                self.finish_batch_if_complete()
            }
            None => Some(ParseEvent::Error { line, reject }),
        }
    }

    /// Routes a line-level failure (oversized / non-UTF-8), which always
    /// counts as rejected.
    fn deliver_failure(&mut self, line: String) -> Option<ParseEvent> {
        self.deliver_error(line, true)
    }

    fn finish_batch_if_complete(&mut self) -> Option<ParseEvent> {
        let done = self.batch.as_ref().is_some_and(|c| c.items.len() >= c.want);
        if done {
            let collect = self.batch.take()?;
            return Some(ParseEvent::Request(Request::Batch(collect.items)));
        }
        None
    }

    fn parse_command(&self, trimmed: &str) -> Parsed {
        let (command, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (trimmed, ""),
        };
        let require_name = |cmd: &str, build: &dyn Fn(String) -> Request| {
            if rest.is_empty() {
                Parsed::Error {
                    line: format!("err bad-request {cmd} requires a configuration name"),
                    reject: true,
                }
            } else {
                Parsed::Req(build(rest.to_string()))
            }
        };
        match command {
            "UPSERT" => {
                if rest.is_empty() {
                    Parsed::Error {
                        line: "err bad-request UPSERT requires a configuration name".to_string(),
                        reject: true,
                    }
                } else {
                    Parsed::NeedBody {
                        name: rest.to_string(),
                    }
                }
            }
            "REMOVE" => require_name("REMOVE", &|name| Request::Remove { name }),
            "GEN" => require_name("GEN", &|name| Request::Gen { name }),
            "LEARN" => Parsed::Req(Request::Learn),
            "CHECK" => Parsed::Req(Request::Check),
            "CONTRACTS" => Parsed::Req(Request::Contracts),
            "STATS" => Parsed::Req(Request::Stats),
            "CHECKPOINT" => Parsed::Req(Request::Checkpoint),
            "HEALTH" => Parsed::Req(Request::Health),
            "FAULT" => Parsed::Req(Request::Fault {
                rest: rest.to_string(),
            }),
            "QUIT" => {
                if self.batch.is_some() {
                    Parsed::Error {
                        line: "err bad-request QUIT inside BATCH".to_string(),
                        reject: true,
                    }
                } else {
                    Parsed::Req(Request::Quit)
                }
            }
            "BATCH" => {
                if self.batch.is_some() {
                    Parsed::Error {
                        line: "err bad-request BATCH cannot be nested".to_string(),
                        reject: true,
                    }
                } else {
                    match rest.parse::<usize>() {
                        Ok(n) if (1..=MAX_BATCH).contains(&n) => Parsed::BatchStart { want: n },
                        _ => Parsed::Error {
                            line: format!(
                                "err bad-request BATCH requires a count between 1 and {MAX_BATCH}"
                            ),
                            reject: true,
                        },
                    }
                }
            }
            other => Parsed::Error {
                line: format!("err unknown-command {other:?}"),
                reject: true,
            },
        }
    }

    // ---- binary framing ----

    fn next_binary(&mut self) -> Option<ParseEvent> {
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            return None;
        }
        if avail[0] != FRAME_REQUEST {
            self.pos = self.buf.len();
            return Some(ParseEvent::Fatal {
                line: "err bad-request bad frame magic".to_string(),
                reject: true,
            });
        }
        if avail.len() < 10 {
            return None; // header incomplete (EOF mid-frame closes silently)
        }
        let name_len = u32::from_le_bytes([avail[2], avail[3], avail[4], avail[5]]) as usize;
        let body_len = u32::from_le_bytes([avail[6], avail[7], avail[8], avail[9]]) as usize;
        // Enforce limits before buffering a frame of that size: the
        // lengths are attacker-controlled and must never drive an
        // allocation past the configured bounds.
        if name_len > self.max_line {
            self.pos = self.buf.len();
            return Some(ParseEvent::Fatal {
                line: format!("err too-large line exceeds {} bytes", self.max_line),
                reject: true,
            });
        }
        if body_len > self.max_body {
            self.pos = self.buf.len();
            return Some(ParseEvent::Fatal {
                line: format!("err too-large body exceeds {} bytes", self.max_body),
                reject: true,
            });
        }
        let total = 10 + name_len + body_len;
        if avail.len() < total {
            return None;
        }
        let op = avail[1];
        // Zero-copy: name and body are validated as slices of the read
        // buffer; the only copy is the owned materialization inside the
        // built request.
        let name = &avail[10..10 + name_len];
        let body = &avail[10 + name_len..total];
        let event = if op == opcode::BATCH {
            Some(self.parse_binary_batch(body))
        } else {
            match build_binary_request(op, name, body, false) {
                BatchItem::Run(req) => Some(ParseEvent::Request(req)),
                BatchItem::Error { line, reject } => Some(ParseEvent::Error { line, reject }),
            }
        };
        self.pos += total;
        event
    }

    /// Parses the sub-frames of a binary BATCH body (`opcode u8 |
    /// name_len u32 | body_len u32 | name | body`, concatenated, no
    /// magic). The outer frame already passed the body limit, so the
    /// total is bounded; each sub-frame re-checks its own limits for
    /// parity with the text protocol.
    fn parse_binary_batch(&self, mut body: &[u8]) -> ParseEvent {
        let mut items = Vec::new();
        while !body.is_empty() {
            if body.len() < 9 || items.len() >= MAX_BATCH {
                return ParseEvent::Error {
                    line: "err bad-request malformed BATCH frame".to_string(),
                    reject: true,
                };
            }
            let name_len = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
            let body_len = u32::from_le_bytes([body[5], body[6], body[7], body[8]]) as usize;
            let total = match 9usize
                .checked_add(name_len)
                .and_then(|n| n.checked_add(body_len))
            {
                Some(total) if total <= body.len() => total,
                _ => {
                    return ParseEvent::Error {
                        line: "err bad-request malformed BATCH frame".to_string(),
                        reject: true,
                    }
                }
            };
            let op = body[0];
            let item = if name_len > self.max_line {
                BatchItem::Error {
                    line: format!("err too-large line exceeds {} bytes", self.max_line),
                    reject: true,
                }
            } else if body_len > self.max_body {
                BatchItem::Error {
                    line: format!("err too-large body exceeds {} bytes", self.max_body),
                    reject: true,
                }
            } else {
                build_binary_request(op, &body[9..9 + name_len], &body[9 + name_len..total], true)
            };
            items.push(item);
            body = &body[total..];
        }
        if items.is_empty() {
            return ParseEvent::Error {
                line: format!("err bad-request BATCH requires a count between 1 and {MAX_BATCH}"),
                reject: true,
            };
        }
        ParseEvent::Request(Request::Batch(items))
    }
}

/// Builds one request from a binary frame's fields; protocol failures
/// come back as pre-rendered error items matching the text taxonomy.
fn build_binary_request(op: u8, name: &[u8], body: &[u8], in_batch: bool) -> BatchItem {
    let error = |line: String| BatchItem::Error { line, reject: true };
    let utf8 = |bytes: &[u8]| -> Result<String, BatchItem> {
        match std::str::from_utf8(bytes) {
            Ok(text) => Ok(text.to_string()),
            Err(_) => Err(error("err bad-utf8".to_string())),
        }
    };
    let named = |verb: &str, name: &[u8]| -> Result<String, BatchItem> {
        if name.is_empty() {
            return Err(error(format!(
                "err bad-request {verb} requires a configuration name"
            )));
        }
        utf8(name)
    };
    match op {
        opcode::UPSERT => match (named("UPSERT", name), utf8(body)) {
            (Ok(name), Ok(body)) => BatchItem::Run(Request::Upsert { name, body }),
            (Err(item), _) | (_, Err(item)) => item,
        },
        opcode::REMOVE => match named("REMOVE", name) {
            Ok(name) => BatchItem::Run(Request::Remove { name }),
            Err(item) => item,
        },
        opcode::GEN => match named("GEN", name) {
            Ok(name) => BatchItem::Run(Request::Gen { name }),
            Err(item) => item,
        },
        opcode::LEARN => BatchItem::Run(Request::Learn),
        opcode::CHECK => BatchItem::Run(Request::Check),
        opcode::CONTRACTS => BatchItem::Run(Request::Contracts),
        opcode::STATS => BatchItem::Run(Request::Stats),
        opcode::CHECKPOINT => BatchItem::Run(Request::Checkpoint),
        opcode::HEALTH => BatchItem::Run(Request::Health),
        opcode::FAULT => match utf8(name) {
            Ok(rest) => BatchItem::Run(Request::Fault { rest }),
            Err(item) => item,
        },
        opcode::QUIT => {
            if in_batch {
                error("err bad-request QUIT inside BATCH".to_string())
            } else {
                BatchItem::Run(Request::Quit)
            }
        }
        opcode::BATCH => error("err bad-request BATCH cannot be nested".to_string()),
        other => error(format!("err unknown-command \"opcode {other}\"")),
    }
}

/// Appends `response` to `out` in the session's framing: text verbatim,
/// or wrapped in one `0xC4` response frame whose status byte reflects
/// the final response line (`0` for `ok…`, `1` otherwise).
pub fn frame_response(framing: Framing, response: &[u8], out: &mut Vec<u8>) {
    match framing {
        Framing::Binary => {
            let status = match final_line(response) {
                Some(line) if line.starts_with(b"ok") => 0u8,
                _ => 1u8,
            };
            out.push(FRAME_RESPONSE);
            out.push(status);
            out.extend_from_slice(&(response.len() as u32).to_le_bytes());
            out.extend_from_slice(response);
        }
        _ => out.extend_from_slice(response),
    }
}

/// The last non-empty line of a response, which carries its status.
fn final_line(response: &[u8]) -> Option<&[u8]> {
    response.split(|&b| b == b'\n').rfind(|l| !l.is_empty())
}

/// Encodes one binary request frame (client-side helper for tests and
/// the throughput bench).
pub fn encode_frame(op: u8, name: &[u8], body: &[u8], out: &mut Vec<u8>) {
    // A top-level frame is the magic byte followed by the sub-frame layout.
    out.push(FRAME_REQUEST);
    encode_subframe(op, name, body, out);
}

/// Encodes the magic-less sub-frame layout used inside BATCH bodies.
pub fn encode_subframe(op: u8, name: &[u8], body: &[u8], out: &mut Vec<u8>) {
    out.push(op);
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(body);
}

/// Decodes one binary response frame from the front of `buf`:
/// `Some((status, payload, consumed))`, or `None` if incomplete.
pub fn decode_response(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
    if buf.len() < 6 || buf[0] != FRAME_RESPONSE {
        return None;
    }
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    let total = 6 + len;
    if buf.len() < total {
        return None;
    }
    Some((buf[1], &buf[6..total], total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(parser: &mut SessionParser) -> Vec<ParseEvent> {
        let mut events = Vec::new();
        while let Some(event) = parser.next_event() {
            events.push(event);
        }
        events
    }

    fn parse_all(input: &[u8], max_line: usize, max_body: usize) -> Vec<ParseEvent> {
        let mut parser = SessionParser::new(max_line, max_body);
        parser.push(input);
        parser.set_eof();
        drain(&mut parser)
    }

    #[test]
    fn text_commands_parse_and_pipelined_requests_queue_up() {
        let events = parse_all(b"LEARN\nCHECK\nGEN dev0\nQUIT\n", 1024, 4096);
        assert_eq!(
            events,
            vec![
                ParseEvent::Request(Request::Learn),
                ParseEvent::Request(Request::Check),
                ParseEvent::Request(Request::Gen {
                    name: "dev0".to_string()
                }),
                ParseEvent::Request(Request::Quit),
            ]
        );
    }

    #[test]
    fn upsert_body_collects_to_sentinel_across_partial_pushes() {
        let mut parser = SessionParser::new(1024, 4096);
        parser.push(b"UPSERT de");
        assert!(parser.next_event().is_none());
        assert!(parser.pending());
        parser.push(b"v0\nvlan 1\nvl");
        assert!(parser.next_event().is_none());
        parser.push(b"an 2\n.\n");
        assert_eq!(
            parser.next_event(),
            Some(ParseEvent::Request(Request::Upsert {
                name: "dev0".to_string(),
                body: "vlan 1\nvlan 2\n".to_string(),
            }))
        );
        assert!(!parser.pending());
    }

    #[test]
    fn crlf_and_trailing_line_without_newline_match_legacy_reader() {
        let events = parse_all(b"LEARN\r\nGEN dev0", 1024, 4096);
        assert_eq!(
            events,
            vec![
                ParseEvent::Request(Request::Learn),
                ParseEvent::Request(Request::Gen {
                    name: "dev0".to_string()
                }),
            ]
        );
    }

    #[test]
    fn protocol_errors_use_the_legacy_taxonomy() {
        let events = parse_all(b"FLY\nUPSERT\nREMOVE\nGEN\n", 1024, 4096);
        let lines: Vec<&str> = events
            .iter()
            .map(|e| match e {
                ParseEvent::Error { line, reject: true } => line.as_str(),
                other => panic!("expected rejecting error, got {other:?}"),
            })
            .collect();
        assert_eq!(
            lines,
            vec![
                "err unknown-command \"FLY\"",
                "err bad-request UPSERT requires a configuration name",
                "err bad-request REMOVE requires a configuration name",
                "err bad-request GEN requires a configuration name",
            ]
        );
    }

    #[test]
    fn oversized_line_drains_and_session_continues() {
        let mut input = vec![b'x'; 100];
        input.push(b'\n');
        input.extend_from_slice(b"LEARN\n");
        let events = parse_all(&input, 64, 4096);
        assert_eq!(events.len(), 2);
        assert!(
            matches!(&events[0], ParseEvent::Error { line, reject: true }
                if line == "err too-large line exceeds 64 bytes"),
            "{events:?}"
        );
        assert_eq!(events[1], ParseEvent::Request(Request::Learn));
    }

    #[test]
    fn unterminated_body_is_fatal_and_non_utf8_body_latches() {
        let events = parse_all(b"UPSERT dev0\nvlan 1\n", 1024, 4096);
        assert_eq!(
            events,
            vec![ParseEvent::Fatal {
                line: "err bad-request UPSERT body not terminated by `.`".to_string(),
                reject: false,
            }]
        );

        let mut input = Vec::new();
        input.extend_from_slice(b"UPSERT dev0\n");
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        input.extend_from_slice(b".\nLEARN\n");
        let events = parse_all(&input, 1024, 4096);
        assert_eq!(
            events,
            vec![
                ParseEvent::Error {
                    line: "err bad-utf8".to_string(),
                    reject: true
                },
                ParseEvent::Request(Request::Learn),
            ]
        );
    }

    #[test]
    fn oversized_body_latches_too_large() {
        let body = "vlan 1\n".repeat(20);
        let input = format!("UPSERT huge\n{body}.\nGEN huge\n");
        let events = parse_all(input.as_bytes(), 1024, 32);
        assert_eq!(
            events,
            vec![
                ParseEvent::Error {
                    line: "err too-large body exceeds 32 bytes".to_string(),
                    reject: true
                },
                ParseEvent::Request(Request::Gen {
                    name: "huge".to_string()
                }),
            ]
        );
    }

    #[test]
    fn batch_collects_n_commands_including_bodies_and_errors() {
        let events = parse_all(
            b"BATCH 4\nCHECK\nUPSERT dev0\nvlan 1\n.\nQUIT\nNOPE\nGEN dev0\n",
            1024,
            4096,
        );
        assert_eq!(events.len(), 2, "{events:?}");
        let ParseEvent::Request(Request::Batch(items)) = &events[0] else {
            panic!("expected batch, got {events:?}");
        };
        assert_eq!(items.len(), 4);
        assert_eq!(items[0], BatchItem::Run(Request::Check));
        assert_eq!(
            items[1],
            BatchItem::Run(Request::Upsert {
                name: "dev0".to_string(),
                body: "vlan 1\n".to_string()
            })
        );
        assert_eq!(
            items[2],
            BatchItem::Error {
                line: "err bad-request QUIT inside BATCH".to_string(),
                reject: true
            }
        );
        assert_eq!(
            items[3],
            BatchItem::Error {
                line: "err unknown-command \"NOPE\"".to_string(),
                reject: true
            }
        );
        assert_eq!(
            events[1],
            ParseEvent::Request(Request::Gen {
                name: "dev0".to_string()
            })
        );
    }

    #[test]
    fn batch_count_is_validated_and_eof_mid_batch_is_fatal() {
        let events = parse_all(b"BATCH\nBATCH 0\nBATCH 4096\nBATCH zz\n", 1024, 4096);
        assert_eq!(events.len(), 4);
        for event in &events {
            assert!(
                matches!(event, ParseEvent::Error { line, .. }
                    if line == "err bad-request BATCH requires a count between 1 and 1024"),
                "{event:?}"
            );
        }
        let events = parse_all(b"BATCH 3\nCHECK\n", 1024, 4096);
        assert_eq!(
            events,
            vec![ParseEvent::Fatal {
                line: "err bad-request BATCH not completed".to_string(),
                reject: true
            }]
        );
    }

    #[test]
    fn nested_batch_is_an_item_error() {
        let events = parse_all(b"BATCH 2\nBATCH 2\nCHECK\n", 1024, 4096);
        let ParseEvent::Request(Request::Batch(items)) = &events[0] else {
            panic!("{events:?}");
        };
        assert_eq!(
            items[0],
            BatchItem::Error {
                line: "err bad-request BATCH cannot be nested".to_string(),
                reject: true
            }
        );
        assert_eq!(items[1], BatchItem::Run(Request::Check));
    }

    #[test]
    fn binary_frames_round_trip_every_opcode() {
        let mut input = Vec::new();
        encode_frame(opcode::UPSERT, b"dev0", b"vlan 1\n", &mut input);
        encode_frame(opcode::REMOVE, b"dev1", b"", &mut input);
        encode_frame(opcode::LEARN, b"", b"", &mut input);
        encode_frame(opcode::CHECK, b"", b"", &mut input);
        encode_frame(opcode::GEN, b"dev0", b"", &mut input);
        encode_frame(opcode::CONTRACTS, b"", b"", &mut input);
        encode_frame(opcode::STATS, b"", b"", &mut input);
        encode_frame(opcode::CHECKPOINT, b"", b"", &mut input);
        encode_frame(opcode::HEALTH, b"", b"", &mut input);
        encode_frame(opcode::FAULT, b"check", b"", &mut input);
        encode_frame(opcode::QUIT, b"", b"", &mut input);
        let events = parse_all(&input, 1024, 4096);
        assert_eq!(
            events,
            vec![
                ParseEvent::Request(Request::Upsert {
                    name: "dev0".to_string(),
                    body: "vlan 1\n".to_string()
                }),
                ParseEvent::Request(Request::Remove {
                    name: "dev1".to_string()
                }),
                ParseEvent::Request(Request::Learn),
                ParseEvent::Request(Request::Check),
                ParseEvent::Request(Request::Gen {
                    name: "dev0".to_string()
                }),
                ParseEvent::Request(Request::Contracts),
                ParseEvent::Request(Request::Stats),
                ParseEvent::Request(Request::Checkpoint),
                ParseEvent::Request(Request::Health),
                ParseEvent::Request(Request::Fault {
                    rest: "check".to_string()
                }),
                ParseEvent::Request(Request::Quit),
            ]
        );
    }

    #[test]
    fn binary_frame_split_across_pushes_stays_pending() {
        let mut frame = Vec::new();
        encode_frame(opcode::UPSERT, b"dev0", b"vlan 1\n", &mut frame);
        let mut parser = SessionParser::new(1024, 4096);
        parser.push(&frame[..7]);
        assert!(parser.next_event().is_none());
        assert_eq!(parser.framing(), Framing::Binary);
        assert!(parser.pending());
        parser.push(&frame[7..]);
        assert!(matches!(
            parser.next_event(),
            Some(ParseEvent::Request(Request::Upsert { .. }))
        ));
        assert!(!parser.pending());
    }

    #[test]
    fn binary_length_limits_are_enforced_before_buffering() {
        let mut input = vec![FRAME_REQUEST, opcode::UPSERT];
        input.extend_from_slice(&5u32.to_le_bytes());
        input.extend_from_slice(&(u32::MAX).to_le_bytes());
        let events = parse_all(&input, 1024, 4096);
        assert_eq!(
            events,
            vec![ParseEvent::Fatal {
                line: "err too-large body exceeds 4096 bytes".to_string(),
                reject: true
            }]
        );
    }

    #[test]
    fn binary_bad_magic_and_unknown_opcode() {
        let mut parser = SessionParser::new(1024, 4096);
        let mut input = Vec::new();
        encode_frame(opcode::LEARN, b"", b"", &mut input);
        input.push(0x00); // not a frame start
        parser.push(&input);
        parser.set_eof();
        assert_eq!(
            parser.next_event(),
            Some(ParseEvent::Request(Request::Learn))
        );
        assert_eq!(
            parser.next_event(),
            Some(ParseEvent::Fatal {
                line: "err bad-request bad frame magic".to_string(),
                reject: true
            })
        );

        let mut input = Vec::new();
        encode_frame(250, b"", b"", &mut input);
        let events = parse_all(&input, 1024, 4096);
        assert_eq!(
            events,
            vec![ParseEvent::Error {
                line: "err unknown-command \"opcode 250\"".to_string(),
                reject: true
            }]
        );
    }

    #[test]
    fn binary_batch_nests_subframes_without_magic() {
        let mut body = Vec::new();
        encode_subframe(opcode::CHECK, b"", b"", &mut body);
        encode_subframe(opcode::GEN, b"dev0", b"", &mut body);
        encode_subframe(opcode::QUIT, b"", b"", &mut body);
        let mut input = Vec::new();
        encode_frame(opcode::BATCH, b"", &body, &mut input);
        let events = parse_all(&input, 1024, 4096);
        let ParseEvent::Request(Request::Batch(items)) = &events[0] else {
            panic!("{events:?}");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], BatchItem::Run(Request::Check));
        assert_eq!(
            items[1],
            BatchItem::Run(Request::Gen {
                name: "dev0".to_string()
            })
        );
        assert_eq!(
            items[2],
            BatchItem::Error {
                line: "err bad-request QUIT inside BATCH".to_string(),
                reject: true
            }
        );
    }

    #[test]
    fn binary_batch_rejects_malformed_and_empty_bodies() {
        let mut input = Vec::new();
        encode_frame(opcode::BATCH, b"", &[opcode::CHECK, 9, 9], &mut input);
        let events = parse_all(&input, 1024, 4096);
        assert_eq!(
            events,
            vec![ParseEvent::Error {
                line: "err bad-request malformed BATCH frame".to_string(),
                reject: true
            }]
        );
        let mut input = Vec::new();
        encode_frame(opcode::BATCH, b"", b"", &mut input);
        let events = parse_all(&input, 1024, 4096);
        assert_eq!(
            events,
            vec![ParseEvent::Error {
                line: "err bad-request BATCH requires a count between 1 and 1024".to_string(),
                reject: true
            }]
        );
    }

    #[test]
    fn response_framing_wraps_payload_with_status() {
        let mut out = Vec::new();
        frame_response(Framing::Text, b"ok gen dev0 0\n", &mut out);
        assert_eq!(out, b"ok gen dev0 0\n");

        let mut out = Vec::new();
        frame_response(
            Framing::Binary,
            b"violation x\nok check 1 violations\n",
            &mut out,
        );
        let (status, payload, consumed) = decode_response(&out).expect("frame decodes");
        assert_eq!(status, 0);
        assert_eq!(payload, b"violation x\nok check 1 violations\n");
        assert_eq!(consumed, out.len());

        let mut out = Vec::new();
        frame_response(Framing::Binary, b"err unknown-config ghost\n", &mut out);
        let (status, _, _) = decode_response(&out).expect("frame decodes");
        assert_eq!(status, 1);
    }

    #[test]
    fn pending_since_anchors_on_first_byte_of_incomplete_request() {
        let mut parser = SessionParser::new(1024, 4096);
        assert!(parser.pending_since().is_none());
        parser.push(b"CHE");
        let started = parser.pending_since().expect("pending");
        assert!(parser.next_event().is_none());
        parser.push(b"C"); // still incomplete: anchor must not move
        assert_eq!(parser.pending_since(), Some(started));
        parser.push(b"K\n");
        assert_eq!(
            parser.next_event(),
            Some(ParseEvent::Request(Request::Check))
        );
        assert!(parser.pending_since().is_none());
    }
}
