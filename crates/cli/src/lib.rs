#![warn(missing_docs)]

//! The `concord` command-line tool (§4 of the paper).
//!
//! Two modes:
//!
//! ```text
//! concord learn --configs <glob> [--metadata <glob>] [--tokens <file>]
//!               [--out contracts.json] [--support N] [--confidence F]
//!               [--score-threshold F] [--parallelism N] [--constants]
//!               [--no-embed] [--disable <category>]...
//!
//! concord check --configs <glob> --contracts contracts.json
//!               [--metadata <glob>] [--tokens <file>]
//!               [--out violations.json] [--html report.html]
//!               [--parallelism N] [--disable-ordering] [--no-embed]
//! ```
//!
//! `learn` writes the learned contract set as JSON; `check` prints
//! violations, optionally writes them as JSON and as a self-contained
//! HTML report, and exits non-zero when violations were found.

mod args;
mod ci;
mod eventloop;
mod fleet;
mod glob;
pub mod protocol;
mod report;
mod serve;
mod sync;

pub use args::{
    parse_args, CheckArgs, CiArgs, Command, CoverageArgs, LearnArgs, ServeArgs, StatsMode,
    UsageError,
};
pub use ci::{is_suppressed, load_suppressions};
pub use glob::expand_glob;
pub use serve::{serve_session, ServeLimits, ServeShared};

use std::path::Path;
use std::time::Instant;

use concord_core::{
    check_parallel, check_parallel_with_stats, learn_with_stats, BuildStats, ContractSet, Dataset,
    PipelineStats,
};
use concord_lexer::Lexer;

/// Top-level error for CLI runs.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage (unknown flag, missing value, ...).
    Usage(UsageError),
    /// An I/O failure with its path context.
    Io(String, std::io::Error),
    /// Invalid input contents (token file, contracts file, ...).
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "usage error: {e}"),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

/// Runs the CLI with the given arguments (excluding the program name).
///
/// Returns the process exit code: 0 on success, 1 when `check` found
/// violations, 2 on usage or input errors.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    match run_inner(argv, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "concord: {e}");
            2
        }
    }
}

fn run_inner(argv: &[String], out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    match parse_args(argv)? {
        Command::Learn(args) => run_learn(&args, out),
        Command::Check(args) => run_check(&args, out),
        Command::Ci(args) => ci::run_ci(&args, out),
        Command::Coverage(args) => run_coverage(&args, out),
        Command::Serve(args) => serve::run_serve(&args, out),
        Command::Help => {
            let _ = writeln!(out, "{}", args::USAGE);
            Ok(0)
        }
    }
}

fn run_learn(args: &LearnArgs, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let total = Instant::now();
    let (dataset, build_stats) = load_dataset_with_stats(
        &args.configs,
        args.metadata.as_deref(),
        args.tokens.as_deref(),
        args.embed,
        args.parallelism,
    )?;
    let (contracts, learn_stats) = learn_with_stats(&dataset, &args.params);
    let json = contracts.to_json();
    write_file(&args.out, &json)?;
    let stats = PipelineStats {
        build: Some(build_stats),
        learn: Some(learn_stats),
        check: None,
        engine: None,
        total_time: total.elapsed(),
    };
    if args.stats == StatsMode::Json {
        let _ = writeln!(out, "{}", stats.to_json().render_pretty());
        return Ok(0);
    }
    let _ = writeln!(
        out,
        "learned {} contracts from {} configurations ({} lines, {} patterns, {} parameters) -> {}",
        contracts.len(),
        dataset.configs.len(),
        dataset.total_lines(),
        dataset.pattern_count(),
        dataset.parameter_count(),
        args.out,
    );
    for (category, count) in contracts.count_by_category() {
        let _ = writeln!(out, "  {category:<10} {count}");
    }
    if args.stats == StatsMode::Text {
        let _ = writeln!(out, "{}", stats.render_text());
    }
    Ok(0)
}

fn run_check(args: &CheckArgs, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let contracts_json = read_file(&args.contracts)?;
    let mut contracts = ContractSet::from_json(&contracts_json)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", args.contracts)))?;
    if args.disable_ordering {
        // The production deployment disables ordering contracts (§5.4).
        contracts
            .contracts
            .retain(|c| !matches!(c, concord_core::Contract::Ordering { .. }));
    }
    if let Some(path) = &args.suppress {
        let suppressions = ci::load_suppressions(path)?;
        contracts
            .contracts
            .retain(|c| !ci::is_suppressed(c, &suppressions));
    }
    let total = Instant::now();
    let (dataset, build_stats) = load_dataset_with_stats(
        &args.configs,
        args.metadata.as_deref(),
        args.tokens.as_deref(),
        args.embed,
        args.parallelism,
    )?;
    let (report, check_stats) = check_parallel_with_stats(&contracts, &dataset, args.parallelism);
    let stats = PipelineStats {
        build: Some(build_stats),
        learn: None,
        check: Some(check_stats),
        engine: None,
        total_time: total.elapsed(),
    };

    if args.stats == StatsMode::Json {
        let _ = writeln!(out, "{}", stats.to_json().render_pretty());
    } else {
        for v in &report.violations {
            let _ = writeln!(out, "{v}");
        }
        let summary = report.coverage.summary();
        let _ = writeln!(
            out,
            "{} violations; coverage {:.1}% of {} lines",
            report.violations.len(),
            summary.fraction * 100.0,
            summary.total_lines,
        );
        if args.stats == StatsMode::Text {
            let _ = writeln!(out, "{}", stats.render_text());
        }
    }

    if let Some(path) = &args.out {
        let json =
            concord_json::to_string_pretty(&report.violations).expect("violations serialize");
        write_file(path, &json)?;
    }
    if let Some(path) = &args.html {
        write_file(path, &report::html_report(&contracts, &report))?;
    }
    Ok(if report.violations.is_empty() { 0 } else { 1 })
}

fn run_coverage(args: &CoverageArgs, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let contracts_json = read_file(&args.contracts)?;
    let contracts = ContractSet::from_json(&contracts_json)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", args.contracts)))?;
    let dataset = load_dataset(
        &args.configs,
        args.metadata.as_deref(),
        args.tokens.as_deref(),
        true,
        args.parallelism,
    )?;
    let report = check_parallel(&contracts, &dataset, args.parallelism);
    let summary = report.coverage.summary();
    let _ = writeln!(
        out,
        "coverage: {:.1}% ({} / {} lines) under {} contracts",
        summary.fraction * 100.0,
        summary.covered_lines,
        summary.total_lines,
        contracts.len(),
    );
    for (category, fraction) in &summary.by_category {
        let _ = writeln!(out, "  {category:<10} {:>5.1}%", fraction * 100.0);
    }
    if args.uncovered > 0 {
        let _ = writeln!(out, "uncovered lines (first {}):", args.uncovered);
        let mut shown = 0usize;
        'outer: for (config, cov) in dataset.configs.iter().zip(&report.coverage.per_config) {
            for (i, line) in config.lines(&dataset.arenas).enumerate() {
                if line.is_meta || cov.covered().contains(i) {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {}:{} {}",
                    dataset.name_of(config),
                    line.line_no,
                    line.original
                );
                shown += 1;
                if shown >= args.uncovered {
                    break 'outer;
                }
            }
        }
        if shown == 0 {
            let _ = writeln!(out, "  (none)");
        }
    }
    Ok(0)
}

/// Loads configurations (and optional metadata) matching the globs.
pub fn load_dataset(
    configs_glob: &str,
    metadata_glob: Option<&str>,
    tokens_file: Option<&str>,
    embed: bool,
    parallelism: usize,
) -> Result<Dataset, CliError> {
    load_dataset_with_stats(configs_glob, metadata_glob, tokens_file, embed, parallelism)
        .map(|(dataset, _)| dataset)
}

/// Like [`load_dataset`], also reporting construction statistics
/// (lex/intern timing and lex-cache hit counts).
pub fn load_dataset_with_stats(
    configs_glob: &str,
    metadata_glob: Option<&str>,
    tokens_file: Option<&str>,
    embed: bool,
    parallelism: usize,
) -> Result<(Dataset, BuildStats), CliError> {
    let lexer = match tokens_file {
        Some(path) => build_lexer(path)?,
        None => Lexer::standard(),
    };
    let config_files = read_glob(configs_glob)?;
    if config_files.is_empty() {
        return Err(CliError::Invalid(format!(
            "no files match --configs {configs_glob}"
        )));
    }
    let metadata_files = match metadata_glob {
        Some(glob) => read_glob(glob)?,
        None => Vec::new(),
    };
    let cache = concord_lexer::LexCache::new();
    Dataset::build_with_stats(
        &config_files,
        &metadata_files,
        &lexer,
        embed,
        parallelism,
        Some(&cache),
    )
    .map_err(|e| CliError::Invalid(e.to_string()))
}

/// Parses a custom-token definition file: one `name<ws>regex` pair per
/// line; `#` starts a comment.
pub fn build_lexer(path: &str) -> Result<Lexer, CliError> {
    let text = read_file(path)?;
    let mut defs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, regex)) = line.split_once(char::is_whitespace) else {
            return Err(CliError::Invalid(format!(
                "{path}:{}: expected `name regex`",
                i + 1
            )));
        };
        defs.push((name.trim().to_string(), regex.trim().to_string()));
    }
    Lexer::with_custom(defs).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
}

pub(crate) fn read_glob(pattern: &str) -> Result<Vec<(String, String)>, CliError> {
    let mut out = Vec::new();
    for path in expand_glob(pattern).map_err(|e| CliError::Io(pattern.to_string(), e))? {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string_lossy().into_owned());
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Io(path.to_string_lossy().into_owned(), e))?;
        out.push((name, text));
    }
    out.sort();
    Ok(out)
}

pub(crate) fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| CliError::Io(path.to_string(), e))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| CliError::Io(path.to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("concord-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_str(argv: &[&str]) -> (i32, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("concord learn"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let (code, out) = run_str(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(out.contains("usage error"));
    }

    #[test]
    fn learn_then_check_end_to_end() {
        let dir = tempdir("e2e");
        for i in 0..6 {
            std::fs::write(
                dir.join(format!("dev{i}.cfg")),
                format!(
                    "hostname DEV{}\nrouter bgp 65000\n vlan {}\n",
                    100 + i,
                    250 + i
                ),
            )
            .unwrap();
        }
        let configs = format!("{}/*.cfg", dir.display());
        let contracts = format!("{}/contracts.json", dir.display());

        let (code, out) = run_str(&["learn", "--configs", &configs, "--out", &contracts]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("learned"));
        assert!(std::fs::metadata(&contracts).is_ok());

        // Clean configs check clean.
        let (code, out) = run_str(&["check", "--configs", &configs, "--contracts", &contracts]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 violations"));

        // A broken config trips the check (exit code 1).
        std::fs::write(dir.join("dev0.cfg"), "hostname DEV100\n").unwrap();
        let violations = format!("{}/violations.json", dir.display());
        let html = format!("{}/report.html", dir.display());
        let (code, out) = run_str(&[
            "check",
            "--configs",
            &configs,
            "--contracts",
            &contracts,
            "--out",
            &violations,
            "--html",
            &html,
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("missing required line"));
        let json = std::fs::read_to_string(&violations).unwrap();
        assert!(json.contains("router bgp"));
        let html_text = std::fs::read_to_string(&html).unwrap();
        assert!(html_text.contains("<html"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_mode_emits_schema_object() {
        let dir = tempdir("stats");
        for i in 0..6 {
            std::fs::write(
                dir.join(format!("dev{i}.cfg")),
                format!(
                    "hostname DEV{}\nrouter bgp 65000\n vlan {}\n",
                    100 + i,
                    250 + i
                ),
            )
            .unwrap();
        }
        let configs = format!("{}/*.cfg", dir.display());
        let contracts = format!("{}/contracts.json", dir.display());

        let (code, out) = run_str(&[
            "learn",
            "--configs",
            &configs,
            "--out",
            &contracts,
            "--stats",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        let json = concord_json::Json::parse(&out).expect("stats output is one JSON object");
        assert_eq!(
            json["schema"].as_str(),
            Some(concord_core::STATS_SCHEMA),
            "{out}"
        );
        // Six configs share line shapes, so the cache must have hits.
        assert!(json["build"]["cache"]["hits"].as_u64().unwrap() > 0);
        assert!(json["learn"]["miners"].as_array().unwrap().len() > 1);
        assert!(json["check"].is_null());

        let (code, out) = run_str(&[
            "check",
            "--configs",
            &configs,
            "--contracts",
            &contracts,
            "--stats",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        let json = concord_json::Json::parse(&out).expect("stats output is one JSON object");
        assert!(json["learn"].is_null());
        assert_eq!(json["check"]["violations"].as_u64(), Some(0));
        assert!(json["check"]["parallelism"].as_u64().unwrap() >= 1);

        // Text mode keeps the human summary and appends a stats block.
        let (code, out) = run_str(&[
            "check",
            "--configs",
            &configs,
            "--contracts",
            &contracts,
            "--stats",
            "text",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 violations"));
        assert!(out.contains("lex cache:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_rejects_unknown_mode() {
        let (code, out) = run_str(&["learn", "--configs", "x/*", "--stats", "xml"]);
        assert_eq!(code, 2);
        assert!(out.contains("--stats"));
    }

    #[test]
    fn missing_configs_glob_errors() {
        let (code, out) = run_str(&[
            "learn",
            "--configs",
            "/nonexistent-concord-path/*.cfg",
            "--out",
            "/tmp/unused.json",
        ]);
        assert_eq!(code, 2);
        assert!(out.contains("no files match"));
    }

    #[test]
    fn tokens_file_parses() {
        let dir = tempdir("tokens");
        let tokens = dir.join("tokens.txt");
        std::fs::write(&tokens, "# comment\niface ([eE]t|ae)-?[0-9]+\n").unwrap();
        let lexer = build_lexer(tokens.to_str().unwrap()).unwrap();
        let (pattern, _) = lexer.lex_fragment("interface Et1");
        assert_eq!(pattern, "interface [a:iface]");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tokens_file_bad_regex_errors() {
        let dir = tempdir("badtokens");
        let tokens = dir.join("tokens.txt");
        std::fs::write(&tokens, "bad (((\n").unwrap();
        assert!(build_lexer(tokens.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tokens_file_with_a_huge_repetition_is_refused() {
        // Unrolled, `x{20000}` would be a 20001-instruction program; the
        // regex crate refuses it like any other malformed definition.
        let dir = tempdir("hugetokens");
        let tokens = dir.join("tokens.txt");
        std::fs::write(&tokens, "big x{20000}\n").unwrap();
        std::fs::write(dir.join("dev0.cfg"), "hostname dev0\n").unwrap();
        let (code, out) = run_str(&[
            "learn",
            "--configs",
            &format!("{}/*.cfg", dir.display()),
            "--out",
            &format!("{}/contracts.json", dir.display()),
            "--tokens",
            tokens.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("invalid token definition [big]"), "{out}");
        assert!(!dir.join("contracts.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disable_ordering_drops_ordering_contracts() {
        let dir = tempdir("noord");
        for i in 0..6 {
            std::fs::write(dir.join(format!("dev{i}.cfg")), "alpha line\nbeta line\n").unwrap();
        }
        let configs = format!("{}/*.cfg", dir.display());
        let contracts = format!("{}/contracts.json", dir.display());
        let (code, _) = run_str(&["learn", "--configs", &configs, "--out", &contracts]);
        assert_eq!(code, 0);

        // Break the ordering in one config.
        std::fs::write(dir.join("dev0.cfg"), "alpha line\ngamma\nbeta line\n").unwrap();
        let (code_with, _) = run_str(&["check", "--configs", &configs, "--contracts", &contracts]);
        let (code_without, out) = run_str(&[
            "check",
            "--configs",
            &configs,
            "--contracts",
            &contracts,
            "--disable-ordering",
        ]);
        assert_eq!(code_with, 1);
        assert_eq!(code_without, 0, "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
