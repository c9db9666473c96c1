//! Integration tests driving the `concord` CLI end to end over generated
//! datasets written to disk — the workflow of Figure 2.

use concord_datagen::{faults, generate_role, standard_roles};

fn run(argv: &[String]) -> (i32, String) {
    let mut out = Vec::new();
    let code = concord_cli::run(argv, &mut out);
    (code, String::from_utf8(out).unwrap())
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

struct TempTree(std::path::PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("concord-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempTree(dir)
    }

    fn path(&self, rel: &str) -> String {
        self.0.join(rel).to_string_lossy().into_owned()
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a generated role to disk as the CLI expects it.
fn write_role(tree: &TempTree, sub: &str) -> concord_datagen::GeneratedRole {
    let spec = standard_roles(0.5)
        .into_iter()
        .find(|s| s.name == "E1")
        .unwrap();
    let role = generate_role(&spec, 77);
    std::fs::create_dir_all(tree.0.join(sub)).unwrap();
    for (name, text) in &role.configs {
        std::fs::write(tree.0.join(sub).join(format!("{name}.cfg")), text).unwrap();
    }
    for (name, text) in &role.metadata {
        std::fs::write(tree.0.join(sub).join(name), text).unwrap();
    }
    role
}

#[test]
fn figure_2_workflow_over_files() {
    let tree = TempTree::new("fig2");
    let role = write_role(&tree, "train");
    let contracts = tree.path("contracts.json");

    // concord learn.
    let (code, out) = run(&args(&[
        "learn",
        "--configs",
        &tree.path("train/*.cfg"),
        "--metadata",
        &tree.path("train/*.yaml"),
        "--out",
        &contracts,
        "--constants",
    ]));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("learned"));

    // concord check on the clean training files: only the planted type
    // anomaly may be flagged.
    let (code, out) = run(&args(&[
        "check",
        "--configs",
        &tree.path("train/*.cfg"),
        "--metadata",
        &tree.path("train/*.yaml"),
        "--contracts",
        &contracts,
        "--disable-ordering",
    ]));
    let non_type: Vec<&str> = out
        .lines()
        .filter(|l| l.contains('[') && !l.contains("[type]"))
        .collect();
    assert!(non_type.is_empty(), "{out}");
    let _ = code; // 0 or 1 depending on the anomaly flag.

    // Inject the §5.5 missing-aggregate incident into one device.
    let (victim, text) = &role.configs[0];
    let injected = faults::inject(text, faults::incidents::MISSING_AGGREGATE).unwrap();
    std::fs::create_dir_all(tree.0.join("test")).unwrap();
    std::fs::write(tree.0.join(format!("test/{victim}.cfg")), injected.text).unwrap();
    for (name, text) in &role.metadata {
        std::fs::write(tree.0.join("test").join(name), text).unwrap();
    }

    let violations = tree.path("violations.json");
    let html = tree.path("report.html");
    let (code, out) = run(&args(&[
        "check",
        "--configs",
        &tree.path("test/*.cfg"),
        "--metadata",
        &tree.path("test/*.yaml"),
        "--contracts",
        &contracts,
        "--disable-ordering",
        "--out",
        &violations,
        "--html",
        &html,
    ]));
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("aggregate-address"), "{out}");
    assert!(std::fs::read_to_string(&violations)
        .unwrap()
        .contains("aggregate-address"));
    assert!(std::fs::read_to_string(&html).unwrap().contains("<table"));
}

#[test]
fn coverage_subcommand_reports() {
    let tree = TempTree::new("cov");
    write_role(&tree, "train");
    let contracts = tree.path("contracts.json");
    let (code, _) = run(&args(&[
        "learn",
        "--configs",
        &tree.path("train/*.cfg"),
        "--metadata",
        &tree.path("train/*.yaml"),
        "--out",
        &contracts,
        "--constants",
    ]));
    assert_eq!(code, 0);

    let (code, out) = run(&args(&[
        "coverage",
        "--configs",
        &tree.path("train/*.cfg"),
        "--metadata",
        &tree.path("train/*.yaml"),
        "--contracts",
        &contracts,
        "--uncovered",
        "5",
    ]));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("coverage:"), "{out}");
    assert!(out.contains("present"), "{out}");
    assert!(out.contains("uncovered lines"), "{out}");
}

#[test]
fn parallelism_flag_produces_identical_results() {
    let tree = TempTree::new("par");
    write_role(&tree, "train");
    let c1 = tree.path("c1.json");
    let c8 = tree.path("c8.json");
    let (code, _) = run(&args(&[
        "learn",
        "--configs",
        &tree.path("train/*.cfg"),
        "--out",
        &c1,
    ]));
    assert_eq!(code, 0);
    let (code, _) = run(&args(&[
        "learn",
        "--configs",
        &tree.path("train/*.cfg"),
        "--out",
        &c8,
        "--parallelism",
        "8",
    ]));
    assert_eq!(code, 0);
    assert_eq!(
        std::fs::read_to_string(&c1).unwrap(),
        std::fs::read_to_string(&c8).unwrap()
    );
}

#[test]
fn custom_tokens_change_learned_patterns() {
    let tree = TempTree::new("tok");
    std::fs::create_dir_all(tree.0.join("cfg")).unwrap();
    for i in 0..6 {
        std::fs::write(
            tree.0.join(format!("cfg/dev{i}.cfg")),
            format!("interface Et{i}\nmtu 9214\n"),
        )
        .unwrap();
    }
    let tokens = tree.path("tokens.txt");
    std::fs::write(&tokens, "iface [eE]t[0-9]+\n").unwrap();
    let with = tree.path("with.json");
    let without = tree.path("without.json");

    let (code, _) = run(&args(&[
        "learn",
        "--configs",
        &tree.path("cfg/*.cfg"),
        "--out",
        &without,
    ]));
    assert_eq!(code, 0);
    let (code, _) = run(&args(&[
        "learn",
        "--configs",
        &tree.path("cfg/*.cfg"),
        "--tokens",
        &tokens,
        "--out",
        &with,
    ]));
    assert_eq!(code, 0);

    let with_text = std::fs::read_to_string(&with).unwrap();
    let without_text = std::fs::read_to_string(&without).unwrap();
    assert!(with_text.contains("[a:iface]"), "{with_text}");
    assert!(!without_text.contains("[a:iface]"));
}

/// The binary's stdout bytes and exit code for `argv`.
fn spawn(argv: &[String]) -> (i32, Vec<u8>) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_concord"))
        .args(argv)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .expect("the concord binary runs");
    (output.status.code().expect("exited"), output.stdout)
}

#[test]
fn binary_stdout_equals_the_library_run() {
    let tree = TempTree::new("stdout");
    let role = write_role(&tree, "train");
    let contracts = tree.path("contracts.json");
    let learn = args(&[
        "learn",
        "--configs",
        &tree.path("train/*.cfg"),
        "--metadata",
        &tree.path("train/*.yaml"),
        "--out",
        &contracts,
    ]);
    let (code, out) = run(&learn);
    assert_eq!(code, 0, "{out}");
    assert_eq!(spawn(&learn), (code, out.into_bytes()), "learn");

    // A faulted corpus, so `check` prints violation lines and exits 1.
    std::fs::create_dir_all(tree.0.join("test")).unwrap();
    for (name, text) in &role.configs {
        let text = faults::inject(text, faults::incidents::MISSING_AGGREGATE)
            .map_or(text.clone(), |injected| injected.text);
        std::fs::write(tree.0.join(format!("test/{name}.cfg")), text).unwrap();
    }
    let check = args(&[
        "check",
        "--configs",
        &tree.path("test/*.cfg"),
        "--contracts",
        &contracts,
    ]);
    let (code, out) = run(&check);
    assert_eq!(code, 1, "{out}");
    assert!(out.lines().count() > 2, "{out}");
    assert_eq!(spawn(&check), (code, out.into_bytes()), "check");

    let usage = args(&["check", "--no-such-flag"]);
    let (code, out) = run(&usage);
    assert_eq!(code, 2, "{out}");
    assert_eq!(spawn(&usage), (code, out.into_bytes()), "usage error");
}
