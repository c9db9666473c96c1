//! Hand-rolled argument parsing for the `concord` tool.

use concord_core::LearnParams;

/// The usage text printed by `concord help`.
pub const USAGE: &str = "\
concord - learn and check network configuration contracts

USAGE:
  concord learn --configs <glob> [--metadata <glob>] [--tokens <file>]
                [--out <file>] [--support N] [--confidence F]
                [--score-threshold F] [--parallelism N] [--constants]
                [--ranges] [--no-embed] [--no-minimize]
                [--stats text|json] [--disable <category>]...
  concord check --configs <glob> --contracts <file> [--metadata <glob>]
                [--tokens <file>] [--out <file>] [--html <file>]
                [--suppress <file>] [--parallelism N]
                [--disable-ordering] [--no-embed] [--stats text|json]
  concord ci    --pre <glob> --post <glob> [--metadata <glob>]
                [--tokens <file>] [--suppress <file>] [--keep-ordering]
                [--support N] [--confidence F] [--parallelism N]
  concord coverage --configs <glob> --contracts <file> [--metadata <glob>]
                [--tokens <file>] [--uncovered N] [--parallelism N]
  concord serve [--configs <glob>] [--contracts <file>] [--metadata <glob>]
                [--tokens <file>] [--support N] [--confidence F]
                [--parallelism N] [--no-embed]
                [--listen <addr>] [--once] [--workers N]
                [--max-conns N] [--deadline-ms N] [--max-line-bytes N]
                [--max-body-bytes N] [--state-dir <dir>]
                [--shards N]
                [--lex-cache-cap N] [--enable-fault-injection]
  concord help

Categories for --disable: present ordering type sequence unique relational

--stats text prints a per-stage timing summary (lexing with cache
hit/miss counts, each miner's sketch, fold and emit, minimization,
checking); --stats json
emits the same data as one machine-readable object (schema
concord-pipeline-stats/v13, see DESIGN.md) instead of the human
summary.

serve holds a resident incremental engine and answers a request
protocol on stdin/stdout or TCP (--listen). On Linux, TCP runs on an
epoll event loop: pipelined requests on one connection execute in
order while connections proceed concurrently, a repeated CHECK and
GEN/CONTRACTS/HEALTH reads run side by side, and --workers executor
threads run requests. Text verbs: UPSERT <name> (+ body, `.`
terminated), REMOVE <name>, LEARN, CHECK, GEN <name>, CONTRACTS,
STATS, HEALTH, CHECKPOINT, BATCH <n> (the next n commands, answered in
order plus an `ok batch <n>` trailer), QUIT.
A connection whose first byte is 0xC3 speaks the equivalent
length-prefixed binary framing instead (see DESIGN.md).
Requests are bounded by --max-line-bytes / --max-body-bytes and a
per-request --deadline-ms; beyond --max-conns concurrent connections
(default: twice --workers) load is shed with `err busy`. With
--state-dir the engine checkpoints snapshots and fsyncs a write-ahead
log so a killed process resumes exactly where it stopped. --shards N
(default 1) consistent-hashes device names onto N engine shards (with
more than one, each keeps a state subdirectory under --state-dir) so
an edit dirties only its shard; violations and coverage match
--shards 1, and DESIGN.md lists the counters that can differ. Each
shard leader answers its own reads: a leader that panics answers that
request with `err internal` and is rebuilt from its last-known-good
state before the next one. LEARN folds cached per-config miner
sketches, re-mining only edited configurations. See TUTORIAL.md for a
walkthrough.";

/// Per-stage statistics reporting mode (`--stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// No statistics output.
    #[default]
    Off,
    /// Human-readable summary appended to normal output.
    Text,
    /// One `concord-pipeline-stats/v13` JSON object replacing the human
    /// summary.
    Json,
}

impl StatsMode {
    fn parse(raw: &str) -> Result<StatsMode, UsageError> {
        match raw {
            "text" => Ok(StatsMode::Text),
            "json" => Ok(StatsMode::Json),
            other => Err(UsageError(format!(
                "--stats expects `text` or `json`, got {other:?}"
            ))),
        }
    }
}

/// A parsed command.
#[derive(Debug)]
pub enum Command {
    /// `concord learn`.
    Learn(LearnArgs),
    /// `concord check`.
    Check(CheckArgs),
    /// `concord ci` (learn from pre-change, check post-change; Figure 10).
    Ci(CiArgs),
    /// `concord coverage` (per-line configuration coverage, §3.9).
    Coverage(CoverageArgs),
    /// `concord serve` (resident incremental engine, §3.7).
    Serve(ServeArgs),
    /// `concord help`.
    Help,
}

/// Arguments for `concord serve`.
#[derive(Debug)]
pub struct ServeArgs {
    /// Optional glob selecting the initial configuration corpus (the
    /// session starts empty without it).
    pub configs: Option<String>,
    /// Optional contracts file to preload (otherwise the session's first
    /// LEARN produces them).
    pub contracts: Option<String>,
    /// Optional glob selecting metadata files.
    pub metadata: Option<String>,
    /// Optional custom token definition file.
    pub tokens: Option<String>,
    /// Learning parameters for in-session LEARN commands.
    pub params: LearnParams,
    /// Context embedding enabled.
    pub embed: bool,
    /// Worker threads.
    pub parallelism: usize,
    /// TCP address to listen on (`None` serves stdin/stdout).
    pub listen: Option<String>,
    /// Exit after the first TCP connection closes (smoke tests).
    pub once: bool,
    /// TCP worker threads (the bounded connection pool).
    pub workers: usize,
    /// Concurrent connection cap before load shedding (`err busy`);
    /// 0 picks the default of twice `workers`.
    pub max_conns: usize,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: u64,
    /// Maximum bytes in one protocol line.
    pub max_line_bytes: usize,
    /// Maximum bytes in one UPSERT body.
    pub max_body_bytes: usize,
    /// Durable state directory (snapshot + write-ahead log).
    pub state_dir: Option<String>,
    /// Number of engine shards device names are consistent-hashed onto
    /// (1 = one engine holding the whole corpus).
    pub shards: usize,
    /// Lexeme cache capacity in entries (0 = unbounded).
    pub lex_cache_cap: usize,
    /// Enable the FAULT verb (deterministic panic injection for the
    /// robustness harness).
    pub enable_faults: bool,
}

/// Arguments for `concord coverage`.
#[derive(Debug)]
pub struct CoverageArgs {
    /// Glob selecting configuration files.
    pub configs: String,
    /// The contracts file produced by `concord learn`.
    pub contracts: String,
    /// Optional glob selecting metadata files.
    pub metadata: Option<String>,
    /// Optional custom token definition file.
    pub tokens: Option<String>,
    /// How many uncovered lines to list (0 = summary only).
    pub uncovered: usize,
    /// Worker threads.
    pub parallelism: usize,
}

/// Arguments for `concord ci`.
#[derive(Debug)]
pub struct CiArgs {
    /// Glob selecting pre-change configuration files (training).
    pub pre: String,
    /// Glob selecting post-change configuration files (checked).
    pub post: String,
    /// Optional glob selecting metadata files.
    pub metadata: Option<String>,
    /// Optional custom token definition file.
    pub tokens: Option<String>,
    /// Optional suppression file (operator feedback, one substring per
    /// line).
    pub suppress: Option<String>,
    /// Keep ordering contracts (the production default drops them, §5.4).
    pub keep_ordering: bool,
    /// Learning parameters.
    pub params: LearnParams,
    /// Worker threads.
    pub parallelism: usize,
}

/// Arguments for `concord learn`.
#[derive(Debug)]
pub struct LearnArgs {
    /// Glob selecting training configuration files.
    pub configs: String,
    /// Optional glob selecting metadata files.
    pub metadata: Option<String>,
    /// Optional custom token definition file.
    pub tokens: Option<String>,
    /// Output contracts file.
    pub out: String,
    /// Learning parameters.
    pub params: LearnParams,
    /// Context embedding enabled (`--no-embed` clears it).
    pub embed: bool,
    /// Worker threads.
    pub parallelism: usize,
    /// Per-stage statistics reporting.
    pub stats: StatsMode,
}

/// Arguments for `concord check`.
#[derive(Debug)]
pub struct CheckArgs {
    /// Glob selecting configuration files to check.
    pub configs: String,
    /// The contracts file produced by `concord learn`.
    pub contracts: String,
    /// Optional glob selecting metadata files.
    pub metadata: Option<String>,
    /// Optional custom token definition file.
    pub tokens: Option<String>,
    /// Optional JSON violations output.
    pub out: Option<String>,
    /// Optional HTML report output.
    pub html: Option<String>,
    /// Optional suppression file (operator feedback via the report UI,
    /// §4): contracts matching any listed substring are dropped.
    pub suppress: Option<String>,
    /// Drop ordering contracts before checking (§5.4 production default).
    pub disable_ordering: bool,
    /// Context embedding enabled.
    pub embed: bool,
    /// Worker threads.
    pub parallelism: usize,
    /// Per-stage statistics reporting.
    pub stats: StatsMode,
}

/// A usage error with its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl std::error::Error for UsageError {}

/// Parses `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, UsageError> {
    let err = |msg: String| Err(UsageError(msg));
    match argv.first().map(String::as_str) {
        Some("learn") => parse_learn(&argv[1..]),
        Some("check") => parse_check(&argv[1..]),
        Some("ci") => parse_ci(&argv[1..]),
        Some("coverage") => parse_coverage(&argv[1..]),
        Some("serve") => parse_serve(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some(other) => err(format!("unknown command {other:?}")),
        None => err("missing command".to_string()),
    }
}

/// Iterates `--flag value` / `--flag` style arguments.
struct Flags<'a> {
    argv: &'a [String],
    pos: usize,
}

impl<'a> Flags<'a> {
    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.argv.get(self.pos)?;
        self.pos += 1;
        Some(flag)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, UsageError> {
        match self.argv.get(self.pos) {
            Some(v) if !v.starts_with("--") => {
                self.pos += 1;
                Ok(v)
            }
            _ => Err(UsageError(format!("flag {flag} requires a value"))),
        }
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| UsageError(format!("invalid value {raw:?} for {flag}")))
    }
}

/// Parses a learn flag that `learn`, `ci` and `serve` share
/// (`--support`, `--confidence`, `--parallelism`), refusing any other
/// flag as unknown.
fn learn_flag(
    flags: &mut Flags<'_>,
    flag: &str,
    params: &mut LearnParams,
    parallelism: &mut usize,
) -> Result<(), UsageError> {
    match flag {
        "--support" => params.support = flags.parse(flag)?,
        "--confidence" => {
            params.confidence = flags.parse(flag)?;
            if !(0.0..=1.0).contains(&params.confidence) {
                return Err(UsageError("--confidence must be in [0, 1]".to_string()));
            }
        }
        "--parallelism" => {
            *parallelism = flags.parse(flag)?;
            params.parallelism = *parallelism;
        }
        other => return Err(UsageError(format!("unknown flag {other:?}"))),
    }
    Ok(())
}

fn parse_learn(argv: &[String]) -> Result<Command, UsageError> {
    let mut args = LearnArgs {
        configs: String::new(),
        metadata: None,
        tokens: None,
        out: "contracts.json".to_string(),
        params: LearnParams::default(),
        embed: true,
        parallelism: 1,
        stats: StatsMode::Off,
    };
    let mut flags = Flags { argv, pos: 0 };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--configs" => args.configs = flags.value(flag)?.to_string(),
            "--metadata" => args.metadata = Some(flags.value(flag)?.to_string()),
            "--tokens" => args.tokens = Some(flags.value(flag)?.to_string()),
            "--out" => args.out = flags.value(flag)?.to_string(),
            "--stats" => args.stats = StatsMode::parse(flags.value(flag)?)?,
            "--score-threshold" => args.params.score_threshold = flags.parse(flag)?,
            "--constants" => args.params.learn_constants = true,
            "--ranges" => args.params.enable_range = true,
            "--no-embed" => args.embed = false,
            "--no-minimize" => args.params.minimize = false,
            "--disable" => match flags.value(flag)? {
                "present" => args.params.enable_present = false,
                "ordering" => args.params.enable_ordering = false,
                "type" => args.params.enable_type = false,
                "sequence" => args.params.enable_sequence = false,
                "unique" => args.params.enable_unique = false,
                "relational" => args.params.enable_relational = false,
                other => {
                    return Err(UsageError(format!("unknown category {other:?}")));
                }
            },
            other => learn_flag(&mut flags, other, &mut args.params, &mut args.parallelism)?,
        }
    }
    if args.configs.is_empty() {
        return Err(UsageError("learn requires --configs".to_string()));
    }
    Ok(Command::Learn(args))
}

fn parse_check(argv: &[String]) -> Result<Command, UsageError> {
    let mut args = CheckArgs {
        configs: String::new(),
        contracts: String::new(),
        metadata: None,
        tokens: None,
        out: None,
        html: None,
        suppress: None,
        disable_ordering: false,
        embed: true,
        parallelism: 1,
        stats: StatsMode::Off,
    };
    let mut flags = Flags { argv, pos: 0 };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--configs" => args.configs = flags.value(flag)?.to_string(),
            "--contracts" => args.contracts = flags.value(flag)?.to_string(),
            "--metadata" => args.metadata = Some(flags.value(flag)?.to_string()),
            "--tokens" => args.tokens = Some(flags.value(flag)?.to_string()),
            "--out" => args.out = Some(flags.value(flag)?.to_string()),
            "--stats" => args.stats = StatsMode::parse(flags.value(flag)?)?,
            "--html" => args.html = Some(flags.value(flag)?.to_string()),
            "--suppress" => args.suppress = Some(flags.value(flag)?.to_string()),
            "--parallelism" => args.parallelism = flags.parse(flag)?,
            "--disable-ordering" => args.disable_ordering = true,
            "--no-embed" => args.embed = false,
            other => return Err(UsageError(format!("unknown flag {other:?}"))),
        }
    }
    if args.configs.is_empty() {
        return Err(UsageError("check requires --configs".to_string()));
    }
    if args.contracts.is_empty() {
        return Err(UsageError("check requires --contracts".to_string()));
    }
    Ok(Command::Check(args))
}

fn parse_ci(argv: &[String]) -> Result<Command, UsageError> {
    let mut args = CiArgs {
        pre: String::new(),
        post: String::new(),
        metadata: None,
        tokens: None,
        suppress: None,
        keep_ordering: false,
        params: LearnParams::default(),
        parallelism: 1,
    };
    let mut flags = Flags { argv, pos: 0 };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--pre" => args.pre = flags.value(flag)?.to_string(),
            "--post" => args.post = flags.value(flag)?.to_string(),
            "--metadata" => args.metadata = Some(flags.value(flag)?.to_string()),
            "--tokens" => args.tokens = Some(flags.value(flag)?.to_string()),
            "--suppress" => args.suppress = Some(flags.value(flag)?.to_string()),
            "--keep-ordering" => args.keep_ordering = true,
            other => learn_flag(&mut flags, other, &mut args.params, &mut args.parallelism)?,
        }
    }
    if args.pre.is_empty() || args.post.is_empty() {
        return Err(UsageError("ci requires --pre and --post".to_string()));
    }
    Ok(Command::Ci(args))
}

fn parse_coverage(argv: &[String]) -> Result<Command, UsageError> {
    let mut args = CoverageArgs {
        configs: String::new(),
        contracts: String::new(),
        metadata: None,
        tokens: None,
        uncovered: 10,
        parallelism: 1,
    };
    let mut flags = Flags { argv, pos: 0 };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--configs" => args.configs = flags.value(flag)?.to_string(),
            "--contracts" => args.contracts = flags.value(flag)?.to_string(),
            "--metadata" => args.metadata = Some(flags.value(flag)?.to_string()),
            "--tokens" => args.tokens = Some(flags.value(flag)?.to_string()),
            "--uncovered" => args.uncovered = flags.parse(flag)?,
            "--parallelism" => args.parallelism = flags.parse(flag)?,
            other => return Err(UsageError(format!("unknown flag {other:?}"))),
        }
    }
    if args.configs.is_empty() || args.contracts.is_empty() {
        return Err(UsageError(
            "coverage requires --configs and --contracts".to_string(),
        ));
    }
    Ok(Command::Coverage(args))
}

fn parse_serve(argv: &[String]) -> Result<Command, UsageError> {
    let mut args = ServeArgs {
        configs: None,
        contracts: None,
        metadata: None,
        tokens: None,
        params: LearnParams::default(),
        embed: true,
        parallelism: 1,
        listen: None,
        once: false,
        workers: 4,
        max_conns: 0,
        deadline_ms: 5000,
        max_line_bytes: 64 * 1024,
        max_body_bytes: 1024 * 1024,
        state_dir: None,
        shards: 1,
        lex_cache_cap: 64 * 1024,
        enable_faults: false,
    };
    let mut flags = Flags { argv, pos: 0 };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--configs" => args.configs = Some(flags.value(flag)?.to_string()),
            "--contracts" => args.contracts = Some(flags.value(flag)?.to_string()),
            "--metadata" => args.metadata = Some(flags.value(flag)?.to_string()),
            "--tokens" => args.tokens = Some(flags.value(flag)?.to_string()),
            "--no-embed" => args.embed = false,
            "--listen" => args.listen = Some(flags.value(flag)?.to_string()),
            "--once" => args.once = true,
            "--workers" => {
                args.workers = flags.parse(flag)?;
                if args.workers == 0 {
                    return Err(UsageError("--workers must be at least 1".to_string()));
                }
            }
            "--max-conns" => args.max_conns = flags.parse(flag)?,
            "--deadline-ms" => {
                args.deadline_ms = flags.parse(flag)?;
                if args.deadline_ms == 0 {
                    return Err(UsageError("--deadline-ms must be at least 1".to_string()));
                }
            }
            "--max-line-bytes" => args.max_line_bytes = flags.parse(flag)?,
            "--max-body-bytes" => args.max_body_bytes = flags.parse(flag)?,
            "--state-dir" => args.state_dir = Some(flags.value(flag)?.to_string()),
            "--shards" => {
                args.shards = flags.parse(flag)?;
                if args.shards == 0 {
                    return Err(UsageError("--shards must be at least 1".to_string()));
                }
            }
            "--lex-cache-cap" => args.lex_cache_cap = flags.parse(flag)?,
            "--enable-fault-injection" => args.enable_faults = true,
            other => learn_flag(&mut flags, other, &mut args.params, &mut args.parallelism)?,
        }
    }
    Ok(Command::Serve(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_learn_defaults() {
        let cmd = parse_args(&argv(&["learn", "--configs", "cfg/*.txt"])).unwrap();
        match cmd {
            Command::Learn(a) => {
                assert_eq!(a.configs, "cfg/*.txt");
                assert_eq!(a.out, "contracts.json");
                assert_eq!(a.params.support, 5);
                assert!(a.embed);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_learn_tuning_flags() {
        let cmd = parse_args(&argv(&[
            "learn",
            "--configs",
            "c/*",
            "--support",
            "10",
            "--confidence",
            "0.9",
            "--score-threshold",
            "2.5",
            "--parallelism",
            "8",
            "--constants",
            "--no-embed",
            "--disable",
            "ordering",
            "--disable",
            "type",
        ]))
        .unwrap();
        match cmd {
            Command::Learn(a) => {
                assert_eq!(a.params.support, 10);
                assert!((a.params.confidence - 0.9).abs() < 1e-9);
                assert!((a.params.score_threshold - 2.5).abs() < 1e-9);
                assert_eq!(a.parallelism, 8);
                assert!(a.params.learn_constants);
                assert!(!a.embed);
                assert!(!a.params.enable_ordering);
                assert!(!a.params.enable_type);
                assert!(a.params.enable_present);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn learn_requires_configs() {
        assert!(parse_args(&argv(&["learn"])).is_err());
    }

    #[test]
    fn check_requires_contracts() {
        assert!(parse_args(&argv(&["check", "--configs", "x/*"])).is_err());
        assert!(parse_args(&argv(&[
            "check",
            "--configs",
            "x/*",
            "--contracts",
            "c.json"
        ]))
        .is_ok());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_args(&argv(&["learn", "--configs", "x", "--support", "lots"])).is_err());
        assert!(parse_args(&argv(&["learn", "--configs", "x", "--confidence", "1.5"])).is_err());
        assert!(parse_args(&argv(&["learn", "--configs", "x", "--disable", "bogus"])).is_err());
        assert!(parse_args(&argv(&["learn", "--configs"])).is_err());
    }

    #[test]
    fn ci_parses_learn_flags_and_refuses_out_of_range_confidence() {
        let ci = |extra: &[&str]| {
            let mut args = vec!["ci", "--pre", "a/*", "--post", "b/*"];
            args.extend_from_slice(extra);
            parse_args(&argv(&args))
        };
        match ci(&[
            "--support",
            "3",
            "--confidence",
            "0.9",
            "--parallelism",
            "2",
        ])
        .unwrap()
        {
            Command::Ci(a) => {
                assert_eq!(a.params.support, 3);
                assert!((a.params.confidence - 0.9).abs() < 1e-9);
                assert_eq!(a.parallelism, 2);
                assert_eq!(a.params.parallelism, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["5", "-0.1", "NaN"] {
            let err = ci(&["--confidence", bad]).unwrap_err();
            assert!(err.0.contains("--confidence must be in [0, 1]"), "{err}");
        }
        assert!(ci(&["--support", "lots"]).is_err());
        assert!(ci(&["--bogus"]).is_err());
    }

    #[test]
    fn serve_refuses_out_of_range_confidence() {
        match parse_args(&argv(&["serve", "--support", "3", "--confidence", "1"])).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.params.support, 3);
                assert_eq!(a.params.confidence, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_args(&argv(&["serve", "--confidence", "5"])).unwrap_err();
        assert!(err.0.contains("--confidence must be in [0, 1]"), "{err}");
    }

    #[test]
    fn parses_serve() {
        let cmd = parse_args(&argv(&[
            "serve",
            "--configs",
            "cfg/*.txt",
            "--listen",
            "127.0.0.1:0",
            "--once",
            "--parallelism",
            "4",
            "--workers",
            "8",
            "--max-conns",
            "32",
            "--deadline-ms",
            "1500",
            "--max-line-bytes",
            "4096",
            "--max-body-bytes",
            "16384",
            "--state-dir",
            "/tmp/concord-state",
            "--shards",
            "4",
            "--lex-cache-cap",
            "1024",
            "--enable-fault-injection",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.configs.as_deref(), Some("cfg/*.txt"));
                assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
                assert!(a.once);
                assert_eq!(a.parallelism, 4);
                assert_eq!(a.params.parallelism, 4);
                assert_eq!(a.workers, 8);
                assert_eq!(a.max_conns, 32);
                assert_eq!(a.deadline_ms, 1500);
                assert_eq!(a.max_line_bytes, 4096);
                assert_eq!(a.max_body_bytes, 16384);
                assert_eq!(a.state_dir.as_deref(), Some("/tmp/concord-state"));
                assert_eq!(a.shards, 4);
                assert_eq!(a.lex_cache_cap, 1024);
                assert!(a.enable_faults);
            }
            other => panic!("unexpected {other:?}"),
        }
        // serve needs no flags at all: an empty resident session is valid.
        match parse_args(&argv(&["serve"])).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.workers, 4);
                assert_eq!(a.max_conns, 0, "0 means twice --workers at runtime");
                assert_eq!(a.deadline_ms, 5000);
                assert_eq!(a.lex_cache_cap, 64 * 1024);
                assert!(a.state_dir.is_none());
                assert_eq!(a.shards, 1, "one shard holds the whole corpus");
                assert!(!a.enable_faults);
            }
            other => panic!("unexpected {other:?}"),
        }
        let unknown = parse_args(&argv(&["serve", "--staleness", "0.4"])).unwrap_err();
        assert!(
            unknown.to_string().contains("unknown flag \"--staleness\""),
            "{unknown}"
        );
        assert!(parse_args(&argv(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--deadline-ms", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--shards", "0"])).is_err());
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert!(matches!(parse_args(&argv(&[h])).unwrap(), Command::Help));
        }
    }
}
