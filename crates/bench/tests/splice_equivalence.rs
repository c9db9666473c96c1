//! Edit-local UPSERT oracle: `Engine::upsert_config` diffs the new text
//! against the held one and re-lexes only the window an edit can change.
//! After every random edit the engine's dataset must equal, id for id, a
//! twin `Dataset` that took the same edits with no previous text (the
//! whole-text window), and its CHECK must equal a fresh engine's and
//! `check_naive`'s over the same corpus. Seeded by `concord_rng::prop`
//! (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).
//!
//! The splice guard pins how many lines an edit re-lexes, counted as lex
//! cache lookups (hits plus misses), so a regression to whole-device
//! re-lexing fails it.

use concord_core::{check_naive, CheckReport, ConfigIr, ContractSet, Dataset};
use concord_datagen::faults::{incidents, inject};
use concord_datagen::{generate_role_with, RoleSpec, Style};
use concord_engine::{Engine, EngineOptions};
use concord_formats::{embed, FormatCategory};
use concord_lexer::Lexer;
use concord_rng::prop;
use concord_rng::{Rng, StdRng};

/// Cases per property when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 16;

/// Devices per generated role: the edited one plus peers, so learning
/// finds contracts for the edits to break.
const PEERS: usize = 3;

const YAML: &str = "\
hostname: leaf1
site: 12
vlans:
  - 10
  - 20
bgp:
  asn: 65001
  neighbors:
    - peer: 10.0.0.1
      remote: 65100
";

const JSON: &str = "{\n  \"hostname\": \"leaf1\",\n  \"mtu\": 9214,\n  \"vlans\": [\n    10,\n    20\n  ],\n  \"bgp\": {\n    \"asn\": 65001\n  }\n}\n";

/// The corpus a case edits: `PEERS` EdgeIndent and `PEERS` WanFlat
/// devices, a YAML text and a JSON text, name-sorted. Returns it with
/// the four edited names. Blank lines sit below some of the edited
/// EdgeIndent device's block headers, so a header edit's window has to
/// run past them.
fn corpus(rng: &mut StdRng) -> (Vec<(String, String)>, [String; 4]) {
    let seed = rng.gen_range(0..1_000_000u64);
    let mut configs = Vec::new();
    for (name, style, blocks) in [("E1", Style::EdgeIndent, 3), ("W6", Style::WanFlat, 2)] {
        let spec = RoleSpec {
            name: name.to_string(),
            devices: PEERS,
            style,
            blocks,
            with_metadata: false,
        };
        configs.extend(generate_role_with(&spec, seed, false).configs);
    }
    let lines: Vec<String> = configs[0].1.lines().map(str::to_string).collect();
    let mut spaced = String::new();
    for (i, line) in lines.iter().enumerate() {
        spaced.push_str(line);
        spaced.push('\n');
        if is_header(&lines, i) && rng.gen_bool(0.3) {
            let blank = *prop::pick(rng, &["", "  ", "\t"]);
            spaced.push_str(blank);
            spaced.push('\n');
        }
    }
    configs[0].1 = spaced;
    configs.push(("doc-json".to_string(), JSON.to_string()));
    configs.push(("doc-yaml".to_string(), YAML.to_string()));
    configs.sort();
    let edited = [
        "E1-dev0".to_string(),
        "W6-r0".to_string(),
        "doc-yaml".to_string(),
        "doc-json".to_string(),
    ];
    (configs, edited)
}

/// A line's leading whitespace and the rest.
fn split_indent(line: &str) -> (&str, &str) {
    let body = line.trim_start_matches([' ', '\t']);
    (&line[..line.len() - body.len()], body)
}

/// Whether line `i` heads a block: the next non-blank line is deeper.
fn is_header(lines: &[String], i: usize) -> bool {
    let width = |l: &str| split_indent(l).0.len();
    lines[i + 1..]
        .iter()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|next| width(next) > width(&lines[i]))
}

/// One random edit of `text`, keeping its line endings unless the edit
/// toggles them.
fn edit(text: &str, rng: &mut StdRng) -> String {
    let mut crlf = text.contains("\r\n");
    let mut trailing = text.ends_with('\n');
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = |rng: &mut StdRng, n: usize| rng.gen_range(0..n.max(1));
    let indents = ["", " ", "  ", "   ", "    ", "\t", " \t", "      "];
    match rng.gen_range(0..11u32) {
        // Insert a fresh line or a re-valued copy of a neighbour.
        0 => {
            let i = at(rng, lines.len() + 1);
            let line = match lines.get(i) {
                Some(l) if rng.gen_bool(0.5) => l.replace(|c: char| c.is_ascii_digit(), "7"),
                _ => format!(
                    "{}{} {}",
                    prop::pick(rng, &indents),
                    prop::pick(rng, &["vlan", "mtu", "description", "set system"]),
                    rng.gen_range(0..5000u32)
                ),
            };
            lines.insert(i, line);
        }
        // Delete a line.
        1 if !lines.is_empty() => {
            lines.remove(at(rng, lines.len()));
        }
        // Duplicate a line.
        2 if !lines.is_empty() => {
            let i = at(rng, lines.len());
            lines.insert(i, lines[i].clone());
        }
        // Replace a line's values.
        3 if !lines.is_empty() => {
            let i = at(rng, lines.len());
            let digit = char::from(b'0' + rng.gen_range(0..10u32) as u8);
            lines[i] = lines[i]
                .chars()
                .map(|c| if c.is_ascii_digit() { digit } else { c })
                .collect();
        }
        // Re-indent a block header (moving its children in or out) or a
        // leaf line.
        4 if !lines.is_empty() => {
            let headers: Vec<usize> = (0..lines.len()).filter(|&i| is_header(&lines, i)).collect();
            let i = if !headers.is_empty() && rng.gen_bool(0.6) {
                *prop::pick(rng, &headers)
            } else {
                at(rng, lines.len())
            };
            let body = split_indent(&lines[i]).1.to_string();
            lines[i] = format!("{}{body}", prop::pick(rng, &indents));
        }
        // Add a blank or whitespace-only line.
        5 => {
            let i = at(rng, lines.len() + 1);
            lines.insert(i, prop::pick(rng, &["", " ", "\t", "   "]).to_string());
        }
        // Remove a blank or whitespace-only line.
        6 => {
            if let Some(i) = lines.iter().position(|l| l.trim().is_empty()) {
                lines.remove(i);
            }
        }
        // Tab indentation: one indented line's leading spaces, or every
        // line's, become tabs.
        7 => {
            let all = rng.gen_bool(0.3);
            let one = at(rng, lines.len());
            for (i, line) in lines.iter_mut().enumerate() {
                if all || i == one {
                    let (indent, body) = split_indent(line);
                    if !indent.is_empty() {
                        *line = format!("{}{body}", "\t".repeat(indent.len().div_ceil(3)));
                    }
                }
            }
        }
        8 => crlf = !crlf,
        9 => trailing = !trailing,
        // An identical re-upsert.
        _ => return text.to_string(),
    }
    let mut out = lines.join(if crlf { "\r\n" } else { "\n" });
    if trailing && !lines.is_empty() {
        out.push_str(if crlf { "\r\n" } else { "\n" });
    }
    out
}

/// Replaces `name`'s text in the name-sorted corpus.
fn set_text(corpus: &mut [(String, String)], name: &str, text: &str) {
    let entry = corpus
        .iter_mut()
        .find(|(n, _)| n == name)
        .expect("edited configs stay in the corpus");
    entry.1 = text.to_string();
}

/// One configuration's format, own length and four id columns.
type Columns = (FormatCategory, usize, Vec<(u32, u32, u32, u32)>);

fn columns(config: &ConfigIr) -> Columns {
    let rows = (0..config.len())
        .map(|li| {
            (
                config.pattern(li).0,
                config.params_id(li).0,
                config.line_no(li),
                config.original_id(li).0,
            )
        })
        .collect();
    (config.format, config.own_line_count(), rows)
}

fn assert_datasets_equal(spliced: &Dataset, whole: &Dataset, context: &str) {
    assert_eq!(spliced.configs.len(), whole.configs.len(), "{context}");
    for (a, b) in spliced.configs.iter().zip(&whole.configs) {
        assert_eq!(a.name, b.name, "{context}");
        assert_eq!(columns(a), columns(b), "{context}: {}", spliced.name_of(a));
    }
    assert_eq!(
        spliced.table.len(),
        whole.table.len(),
        "{context}: patterns"
    );
    assert_eq!(
        spliced.arenas.strings.len(),
        whole.arenas.strings.len(),
        "{context}: string arena"
    );
    assert_eq!(
        spliced.arenas.params.len(),
        whole.arenas.params.len(),
        "{context}: param arena"
    );
}

/// A report as text: violations in order, then every covered line.
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

fn fresh_check(corpus: &[(String, String)], contracts: &ContractSet) -> CheckReport {
    let mut fresh =
        Engine::from_corpus(corpus, &[], EngineOptions::default()).expect("corpus builds");
    fresh.set_contracts(contracts.clone());
    fresh.check_dirty().expect("contracts loaded").report
}

/// After every edit, the spliced dataset equals the whole-text twin and
/// the engine's CHECK equals a fresh engine's and `check_naive`'s.
#[test]
fn spliced_upserts_match_whole_text_rebuilds() {
    prop::check("spliced_upserts_match_whole_text_rebuilds", CASES, |rng| {
        let (mut corpus, edited) = corpus(rng);
        let lexer = Lexer::standard();
        let mut engine =
            Engine::from_corpus(&corpus, &[], EngineOptions::default()).expect("corpus builds");
        let mut twin = Dataset::build(&corpus, &[], &lexer, true, 1).expect("corpus builds");
        engine.relearn();
        let contracts = engine.contracts().expect("just learned").clone();
        assert_datasets_equal(engine.dataset(), &twin, "boot");

        for step in 0..rng.gen_range(1..=8usize) {
            let name = prop::pick(rng, &edited).clone();
            let old = &corpus.iter().find(|(n, _)| *n == name).expect("held").1;
            let text = edit(old, rng);
            let context = format!("step {step}: {name} <- {text:?}");
            engine.upsert_config(&name, &text);
            twin.upsert_config(&name, &text, None, &lexer, true, None);
            set_text(&mut corpus, &name, &text);
            assert_datasets_equal(engine.dataset(), &twin, &context);

            let spliced = render(&engine.check_dirty().expect("contracts loaded").report);
            assert_eq!(
                spliced,
                render(&fresh_check(&corpus, &contracts)),
                "{context}"
            );
            let naive = Dataset::build(&corpus, &[], &lexer, true, 1).expect("corpus builds");
            assert_eq!(
                spliced,
                render(&check_naive(&contracts, &naive)),
                "{context}"
            );
        }
    });
}

/// Lex cache lookups (hits plus misses) `upsert` makes.
fn lookups(engine: &mut Engine, name: &str, text: &str) -> u64 {
    let count = |e: &Engine| {
        let stats = e.snapshot_stats();
        stats.lex_cache.hits + stats.lex_cache.misses
    };
    let before = count(engine);
    engine.upsert_config(name, text);
    count(engine) - before
}

/// The splice guard: an edit re-lexes the lines it can change, not the
/// device.
#[test]
fn an_upsert_relexes_only_the_lines_an_edit_can_change() {
    let spec = RoleSpec {
        name: "E1".to_string(),
        devices: 2,
        style: Style::EdgeIndent,
        blocks: 256,
        with_metadata: true,
    };
    let role = generate_role_with(&spec, 59, false);
    let mut configs = role.configs.clone();
    configs.push(("doc-yaml".to_string(), YAML.to_string()));
    let mut engine =
        Engine::from_corpus(&configs, &role.metadata, EngineOptions::default()).expect("builds");
    let (name, clean) = role.configs[0].clone();
    assert!(clean.lines().count() > 4000, "a large device");

    // Each §5.5 incident and each restore: at most one line.
    for fault in [
        incidents::MISSING_AGGREGATE,
        incidents::ROGUE_VLAN_BLOCK,
        incidents::VRF_INSERTION,
    ] {
        let planted = inject(&clean, fault)
            .expect("edge configs carry every marker")
            .text;
        assert!(lookups(&mut engine, &name, &planted) <= 1, "{fault:?}");
        assert!(
            lookups(&mut engine, &name, &clean) <= 1,
            "{fault:?} restore"
        );
    }

    // An identical re-upsert re-lexes nothing.
    assert_eq!(lookups(&mut engine, &name, &clean), 0);

    // Re-indenting a block header re-lexes exactly that block: the
    // header and the lines below it that sit deeper.
    let lines: Vec<&str> = clean.lines().collect();
    let header = (0..lines.len() - 1)
        .find(|&i| {
            !lines[i].starts_with(' ') && lines[i + 1].starts_with(' ') && !lines[i].is_empty()
        })
        .expect("a block");
    let block = 1 + lines[header + 1..]
        .iter()
        .take_while(|l| l.starts_with(' '))
        .count();
    assert!(block > 1);
    let mut reindented = lines.clone();
    let moved = format!(" {}", lines[header]);
    reindented[header] = &moved;
    let reindented = reindented.join("\n") + "\n";
    assert_eq!(lookups(&mut engine, &name, &reindented), block as u64);
    assert_eq!(lookups(&mut engine, &name, &clean), block as u64);

    // A one-line YAML edit re-lexes the whole text.
    let yaml = YAML.replace("site: 12", "site: 13");
    assert_eq!(
        lookups(&mut engine, "doc-yaml", &yaml),
        embed(&yaml, FormatCategory::Yaml).len() as u64
    );
}
