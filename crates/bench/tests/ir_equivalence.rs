//! Randomized edit-sequence oracle for the dataset's whole-text edit
//! path: a [`Dataset`] is driven through a seeded upsert/remove sequence,
//! and after every step it must agree with [`Dataset::build`] of the
//! current name-sorted corpus and metadata. Names come in the same
//! order, each upsert and remove returns the corpus position, every
//! line matches field for field (pattern text, params, line number,
//! original, metadata flag), `total_lines` matches, and LEARN and CHECK
//! give byte-identical output with identical witness counters. Runs over
//! both generator families (EDGE indentation with metadata, WAN flat
//! syntax) at parallelism 1 and 8, mirroring `engine_equivalence`.
//!
//! Interner lengths are not compared: an edited dataset keeps the
//! entries its edits orphaned, which a fresh build never interns. Ids
//! may differ for the same reason; everything read through them may
//! not. (`splice_equivalence` pins the edit-local window against this
//! whole-text path, id for id.)

use concord_bench::seed;
use concord_core::{
    check_parallel_with_stats, learn, CheckStats, ContractSet, Dataset, LearnParams,
};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_lexer::Lexer;
use concord_rng::rngs::StdRng;
use concord_rng::{Rng, SeedableRng};

/// Random edit steps per (style, parallelism) sequence.
const STEPS: usize = 25;

/// Asserts the edited dataset and a fresh build hold the same
/// configurations, in the same order, line for line.
fn assert_line_identical(edited: &Dataset, built: &Dataset, context: &str) {
    let names = |ds: &Dataset| -> Vec<String> {
        (0..ds.configs.len())
            .map(|i| ds.config_name(i).to_string())
            .collect()
    };
    assert_eq!(names(edited), names(built), "{context}: config names");
    for (ce, cb) in edited.configs.iter().zip(&built.configs) {
        let name = edited.name_of(ce);
        assert_eq!(ce.format, cb.format, "{context}: {name}");
        assert_eq!(ce.len(), cb.len(), "{context}: {name} line count");
        for (le, lb) in ce.lines(&edited.arenas).zip(cb.lines(&built.arenas)) {
            let at = format!("{context}: {name}:{}", lb.line_no);
            assert_eq!(
                edited.table.text(le.pattern),
                built.table.text(lb.pattern),
                "{at}"
            );
            assert_eq!(le.params, lb.params, "{at}");
            assert_eq!(le.line_no, lb.line_no, "{at}");
            assert_eq!(le.original, lb.original, "{at}");
            assert_eq!(le.is_meta, lb.is_meta, "{at}");
        }
    }
    assert_eq!(
        edited.total_lines(),
        built.total_lines(),
        "{context}: total_lines"
    );
}

fn assert_counters_equal(a: &CheckStats, b: &CheckStats, context: &str) {
    assert_eq!(a.contracts, b.contracts, "{context}");
    assert_eq!(a.violations, b.violations, "{context}");
    assert_eq!(a.witness_indexes, b.witness_indexes, "{context}");
    assert_eq!(a.witness_entries, b.witness_entries, "{context}");
    assert_eq!(a.witness_probes, b.witness_probes, "{context}");
    assert_eq!(a.witness_probe_hits, b.witness_probe_hits, "{context}");
}

/// One random text mutation (same shapes as `engine_equivalence`):
/// duplicate a line, delete a line, or rewrite digits.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return "vlan 1\n".to_string();
    }
    let i = rng.gen_range(0..lines.len());
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    match rng.gen_range(0..3u32) {
        0 => out.insert(i, lines[i].to_string()),
        1 => {
            out.remove(i);
        }
        _ => {
            let digit = char::from(b'0' + rng.gen_range(0..10u32) as u8);
            out[i] = out[i]
                .chars()
                .map(|c| if c.is_ascii_digit() { digit } else { c })
                .collect();
        }
    }
    let mut joined = out.join("\n");
    joined.push('\n');
    joined
}

fn run_sequence(style: Style, parallelism: usize, salt: u64) {
    let spec = RoleSpec {
        name: format!("IR{salt}"),
        devices: 6,
        style,
        blocks: 4,
        with_metadata: style == Style::EdgeIndent,
    };
    let role = generate_role(&spec, seed());
    let mut corpus = role.configs.clone();
    corpus.sort();
    let metadata = role.metadata.clone();
    // Only the EDGE generator emits metadata; its sequences pin the
    // rows every configuration gets appended.
    assert_eq!(
        !metadata.is_empty(),
        matches!(style, Style::EdgeIndent),
        "metadata rows"
    );

    let lexer = Lexer::standard();
    let build = |corpus: &[(String, String)]| {
        Dataset::build(corpus, &metadata, &lexer, true, parallelism).expect("dataset builds")
    };
    let mut edited = build(&corpus);

    // One fixed contract set pins CHECK for the whole sequence; LEARN
    // equivalence is asserted per step on the evolving corpus.
    let params = LearnParams::default();
    let contracts: ContractSet = learn(&edited, &params);
    assert!(!contracts.is_empty(), "sequence needs contracts to check");

    let mut rng = StdRng::seed_from_u64(seed() ^ salt);
    for step in 0..STEPS {
        let context = format!("{style:?} p={parallelism} step {step}");
        match rng.gen_range(0..10u32) {
            0 if corpus.len() > 2 => {
                let i = rng.gen_range(0..corpus.len());
                let (name, _) = corpus.remove(i);
                assert_eq!(edited.remove_config(&name), Some(i), "{context}: remove");
            }
            1 => {
                let source = rng.gen_range(0..corpus.len());
                let text = mutate(&corpus[source].1, &mut rng);
                // Named after its source, so it sorts right after it:
                // inserts land inside the corpus, not only at its end.
                let name = format!("{}-{step}", corpus[source].0);
                let i = corpus.partition_point(|(n, _)| *n < name);
                corpus.insert(i, (name.clone(), text.clone()));
                let (at, _) = edited.upsert_config(&name, &text, None, &lexer, true, None);
                assert_eq!(at, i, "{context}: insert");
            }
            _ => {
                let i = rng.gen_range(0..corpus.len());
                let text = mutate(&corpus[i].1, &mut rng);
                corpus[i].1 = text.clone();
                let name = &corpus[i].0;
                let (at, _) = edited.upsert_config(name, &text, None, &lexer, true, None);
                assert_eq!(at, i, "{context}: replace");
            }
        }

        let built = build(&corpus);
        assert_line_identical(&edited, &built, &context);

        // Byte-identical LEARN: any drift in interning order or dedup
        // the edits introduced shows up here.
        assert_eq!(
            learn(&edited, &params).to_json(),
            learn(&built, &params).to_json(),
            "{context}: LEARN diverged from the fresh build"
        );

        // Byte-identical CHECK (violations, order, coverage) plus
        // identical witness counters.
        let (edited_report, edited_stats) =
            check_parallel_with_stats(&contracts, &edited, parallelism);
        let (built_report, built_stats) =
            check_parallel_with_stats(&contracts, &built, parallelism);
        assert_eq!(
            format!("{:?}", edited_report.violations),
            format!("{:?}", built_report.violations),
            "{context}: CHECK violations diverged"
        );
        assert_eq!(
            edited_report.coverage.per_config, built_report.coverage.per_config,
            "{context}: coverage diverged"
        );
        assert_counters_equal(&edited_stats, &built_stats, &context);
    }
}

#[test]
fn random_edits_match_a_fresh_build_edge_indent() {
    for parallelism in [1, 8] {
        run_sequence(Style::EdgeIndent, parallelism, 31 + parallelism as u64);
    }
}

#[test]
fn random_edits_match_a_fresh_build_wan_flat() {
    for parallelism in [1, 8] {
        run_sequence(Style::WanFlat, parallelism, 47 + parallelism as u64);
    }
}
