//! Golden equivalence: the compiled check engine must produce
//! byte-identical reports to the naive oracle (`check_naive_parallel`,
//! kept behind the `naive-check` feature) — same violations in the same
//! order, same coverage — across config styles, injected faults, and
//! worker counts. This is the contract that lets every optimization in
//! the compiled engine land without a semantics review: the oracle is
//! the spec.

use concord_bench::{default_params, seed};
use concord_core::{
    check_naive, check_naive_parallel, check_parallel, CheckReport, ContractSet, Dataset,
};
use concord_datagen::faults::{incidents, inject, Fault};
use concord_datagen::{generate_role, GeneratedRole, RoleSpec, Style};

/// Renders a report to a canonical string. Violations keep engine order
/// (order equality is part of the contract); coverage lists every
/// covered line, overall and per category, in line order.
fn render(report: &CheckReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("{v:?}\n"));
    }
    for c in &report.coverage.per_config {
        let covered: Vec<usize> = c.covered().iter().collect();
        out.push_str(&format!(
            "coverage {} total={} covered={covered:?}\n",
            c.name, c.total_lines
        ));
        for (cat, lines) in c.by_category() {
            let lines: Vec<usize> = lines.iter().collect();
            out.push_str(&format!("  {cat}: {lines:?}\n"));
        }
    }
    out
}

/// Applies a rotating fault per device; devices whose text lacks the
/// fault's marker stay clean (faults target style-specific lines).
fn with_faults(role: &GeneratedRole) -> Vec<(String, String)> {
    let faults = [
        incidents::MISSING_AGGREGATE,
        incidents::ROGUE_VLAN_BLOCK,
        incidents::VRF_INSERTION,
        Fault::ReplaceValue("10.", "172."),
        Fault::DuplicateLineContaining("vlan"),
    ];
    role.configs
        .iter()
        .enumerate()
        .map(|(i, (name, text))| {
            let text = match inject(text, faults[i % faults.len()]) {
                Some(injection) => injection.text,
                None => text.clone(),
            };
            (name.clone(), text)
        })
        .collect()
}

fn assert_engines_agree(contracts: &ContractSet, dataset: &Dataset, label: &str) {
    for parallelism in [1, 8] {
        let compiled = check_parallel(contracts, dataset, parallelism);
        let naive = check_naive_parallel(contracts, dataset, parallelism);
        assert_eq!(
            render(&compiled),
            render(&naive),
            "engines diverge on {label} at parallelism {parallelism}"
        );
        // The faulted datasets must actually exercise the engines.
        if label.contains("faulted") {
            assert!(
                !compiled.violations.is_empty(),
                "{label} produced no violations — the faults were not injected"
            );
        }
    }
}

fn check_style(style: Style, name: &str) {
    let spec = RoleSpec {
        name: name.to_string(),
        devices: 8,
        style,
        blocks: 6,
        with_metadata: style == Style::EdgeIndent,
    };
    let role = generate_role(&spec, seed());
    // Constants on: present-exact contracts join the mix, so every
    // violation and coverage category is exercised.
    let dataset =
        Dataset::from_named_texts(&role.configs, &role.metadata).expect("clean dataset builds");
    let contracts = concord_core::learn(&dataset, &default_params());
    assert!(!contracts.is_empty(), "{name} learned no contracts");

    assert_engines_agree(&contracts, &dataset, &format!("{name} clean"));

    let faulted = with_faults(&role);
    let faulted_dataset =
        Dataset::from_named_texts(&faulted, &role.metadata).expect("faulted dataset builds");
    assert_engines_agree(&contracts, &faulted_dataset, &format!("{name} faulted"));
}

#[test]
fn compiled_engine_matches_naive_on_edge_style() {
    check_style(Style::EdgeIndent, "EDGE-EQ");
}

#[test]
fn compiled_engine_matches_naive_on_wan_style() {
    check_style(Style::WanFlat, "WAN-EQ");
}

/// Runs the `concord` CLI in process, returning its exit code and output.
fn run_cli(argv: &[&str]) -> (i32, String) {
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    let mut out = Vec::new();
    let code = concord_cli::run(&argv, &mut out);
    (code, String::from_utf8(out).expect("utf-8 output"))
}

/// `concord coverage --uncovered` and the `check --html` coverage table
/// match, line for line, what the naive checker's coverage of the same
/// files says: the summary, every category, every listed uncovered line,
/// and every configuration's covered count.
#[test]
fn coverage_output_matches_naive_coverage_exactly() {
    let dir = std::env::temp_dir().join(format!("concord-coverage-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = RoleSpec {
        name: "COV-PIN".to_string(),
        devices: 6,
        style: Style::EdgeIndent,
        blocks: 4,
        with_metadata: true,
    };
    let role = generate_role(&spec, seed());
    assert!(!role.metadata.is_empty());
    for (sub, files, ext) in [
        ("configs", &role.configs, ".cfg"),
        ("meta", &role.metadata, ""),
    ] {
        std::fs::create_dir_all(dir.join(sub)).expect("temp dir");
        for (name, text) in files {
            std::fs::write(dir.join(sub).join(format!("{name}{ext}")), text).expect("write");
        }
    }
    let path = |rel: &str| dir.join(rel).to_string_lossy().into_owned();
    let (configs, metadata) = (path("configs/*.cfg"), path("meta/*"));
    let (contracts, html) = (path("contracts.json"), path("report.html"));
    let (code, out) = run_cli(&[
        "learn",
        "--configs",
        &configs,
        "--metadata",
        &metadata,
        "--out",
        &contracts,
        "--constants",
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, coverage) = run_cli(&[
        "coverage",
        "--configs",
        &configs,
        "--metadata",
        &metadata,
        "--contracts",
        &contracts,
        "--uncovered",
        "200",
    ]);
    assert_eq!(code, 0, "{coverage}");
    let (code, out) = run_cli(&[
        "check",
        "--configs",
        &configs,
        "--metadata",
        &metadata,
        "--contracts",
        &contracts,
        "--html",
        &html,
    ]);
    assert!(code <= 1, "{out}");
    let html = std::fs::read_to_string(&html).expect("html report");

    let set = ContractSet::from_json(&std::fs::read_to_string(&contracts).expect("contracts"))
        .expect("contracts parse");
    let dataset =
        concord_cli::load_dataset(&configs, Some(&metadata), None, true, 1).expect("dataset loads");
    let naive = check_naive(&set, &dataset);
    let summary = naive.coverage.summary();
    assert!(summary.by_category.len() > 1, "{summary:?}");
    let mut want = format!(
        "coverage: {:.1}% ({} / {} lines) under {} contracts\n",
        summary.fraction * 100.0,
        summary.covered_lines,
        summary.total_lines,
        set.len(),
    );
    for (category, fraction) in &summary.by_category {
        want.push_str(&format!("  {category:<10} {:>5.1}%\n", fraction * 100.0));
    }
    want.push_str("uncovered lines (first 200):\n");
    let mut shown = 0;
    for (config, cov) in dataset.configs.iter().zip(&naive.coverage.per_config) {
        for (i, line) in config.lines(&dataset.arenas).enumerate() {
            if shown < 200 && !line.is_meta && !cov.covered().contains(i) {
                let name = dataset.name_of(config);
                want.push_str(&format!("  {name}:{} {}\n", line.line_no, line.original));
                shown += 1;
            }
        }
    }
    assert!(shown > 0, "the role leaves lines uncovered");
    assert_eq!(coverage, want);

    let headline = format!(
        "coverage <strong>{:.1}%</strong> of {} lines",
        summary.fraction * 100.0,
        summary.total_lines
    );
    assert!(html.contains(&headline), "{headline}");
    for cov in &naive.coverage.per_config {
        let covered = cov.covered().len();
        let row = format!(
            "<tr><td>{}</td><td>{}</td><td>{covered}</td><td>{:.1}%</td></tr>\n",
            cov.name,
            cov.total_lines,
            covered as f64 / cov.total_lines as f64 * 100.0
        );
        assert!(html.contains(&row), "{row}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
