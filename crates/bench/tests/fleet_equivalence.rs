//! Randomized edit-sequence oracle for the sharded CHECK: after every
//! edit, fleets of 1, 2 and 3 shard engines (partitioned by
//! `ShardRouter`) merge their parts with `merge_check_aggregates` into
//! exactly the report a from-scratch batch check of the same corpus
//! gives — violations in order, covered lines and total lines. The
//! unique pass is the part under test: each shard keeps a resident
//! unique index, and the merge joins them across shards.
//!
//! Edits duplicate, delete or rewrite a line, copy a line from another
//! device (so unique values collide, often across shards), and add and
//! remove devices. Aggregates held from before a step must still merge
//! to the previous report: an engine updates its index in place only
//! when no aggregate shares it.
//!
//! Cases come from `concord_rng::prop` (`CONCORD_PROP_SEED`,
//! `CONCORD_PROP_CASES`); every case runs one sequence without and one
//! with metadata.

use concord_core::{check_parallel_with_stats, ContractSet, Dataset};
use concord_datagen::{generate_role, RoleSpec, Style};
use concord_engine::{
    merge_check_aggregates, Engine, EngineOptions, FleetCheckReport, ShardCheckAggregate,
    ShardRouter,
};
use concord_rng::prop;
use concord_rng::{Rng, StdRng};

/// Cases per style when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 2;
/// Edits per sequence.
const STEPS: usize = 30;
/// The shard counts every step is checked at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 3];

/// One fleet: its router and one engine per shard.
struct Fleet {
    router: ShardRouter,
    shards: Vec<Engine>,
}

impl Fleet {
    fn new(
        shards: usize,
        corpus: &[(String, String)],
        metadata: &[(String, String)],
        contracts: &ContractSet,
    ) -> Fleet {
        let router = ShardRouter::new(shards);
        let mut parts: Vec<Vec<(String, String)>> = vec![Vec::new(); shards];
        for (name, text) in corpus {
            parts[router.route(name)].push((name.clone(), text.clone()));
        }
        let shards = parts
            .iter()
            .map(|part| {
                let mut engine = Engine::from_corpus(part, metadata, EngineOptions::default())
                    .expect("shard engine builds");
                engine.set_contracts(contracts.clone());
                engine
            })
            .collect();
        Fleet { router, shards }
    }

    fn upsert(&mut self, name: &str, text: &str) {
        self.shards[self.router.route(name)].upsert_config(name, text);
    }

    fn remove(&mut self, name: &str) {
        let removed = self.shards[self.router.route(name)].remove_config(name);
        assert!(removed.is_some(), "{name} was held");
    }

    fn aggregates(&mut self) -> Vec<ShardCheckAggregate> {
        self.shards
            .iter_mut()
            .map(|e| ShardCheckAggregate::new(e.check_parts().expect("contracts loaded")))
            .collect()
    }
}

fn merge(contracts: &ContractSet, aggregates: &[ShardCheckAggregate]) -> FleetCheckReport {
    merge_check_aggregates(contracts, &aggregates.iter().collect::<Vec<_>>())
}

/// One random text edit of device `i`: duplicate, delete or rewrite a
/// line, or copy in a line of another device.
fn edit(corpus: &[(String, String)], i: usize, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = corpus[i].1.lines().map(str::to_string).collect();
    if lines.is_empty() {
        return "vlan 1\n".to_string();
    }
    let at = rng.gen_range(0..lines.len());
    match rng.gen_range(0..4u32) {
        0 => lines.insert(at, lines[at].clone()),
        1 => {
            lines.remove(at);
        }
        2 => {
            let digit = char::from(b'0' + rng.gen_range(0..10u8));
            lines[at] = lines[at]
                .chars()
                .map(|c| if c.is_ascii_digit() { digit } else { c })
                .collect();
        }
        _ => {
            let donor: Vec<&str> = corpus[rng.gen_range(0..corpus.len())].1.lines().collect();
            if let Some(line) = donor.get(rng.gen_range(0..donor.len().max(1))) {
                lines.insert(at, line.to_string());
            }
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Sets `(name, text)` in the name-sorted mirror corpus.
fn mirror_upsert(corpus: &mut Vec<(String, String)>, name: &str, text: String) {
    match corpus.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(i) => corpus[i].1 = text,
        Err(i) => corpus.insert(i, (name.to_string(), text)),
    }
}

/// Runs one edit sequence; returns the number of steps whose report
/// held a unique violation.
fn run_sequence(style: Style, with_metadata: bool, rng: &mut StdRng) -> usize {
    let spec = RoleSpec {
        name: "FQ".to_string(),
        devices: 7,
        style,
        blocks: 3,
        with_metadata,
    };
    let role = generate_role(&spec, rng.next_u64());
    let mut corpus = role.configs.clone();
    corpus.sort();
    let metadata = role.metadata;

    let mut learner =
        Engine::from_corpus(&corpus, &metadata, EngineOptions::default()).expect("learner builds");
    learner.relearn();
    let contracts = learner.contracts().expect("just learned").clone();

    let mut fleets: Vec<Fleet> = SHARD_COUNTS
        .iter()
        .map(|&n| Fleet::new(n, &corpus, &metadata, &contracts))
        .collect();
    let mut held: Vec<Option<(Vec<ShardCheckAggregate>, FleetCheckReport)>> =
        fleets.iter().map(|_| None).collect();
    let mut unique_steps = 0;
    for step in 0..STEPS {
        match rng.gen_range(0..10u32) {
            0 if corpus.len() > 2 => {
                let name = corpus.remove(rng.gen_range(0..corpus.len())).0;
                fleets.iter_mut().for_each(|f| f.remove(&name));
            }
            1 => {
                let text = edit(&corpus, rng.gen_range(0..corpus.len()), rng);
                let name = format!("new{step}");
                mirror_upsert(&mut corpus, &name, text.clone());
                fleets.iter_mut().for_each(|f| f.upsert(&name, &text));
            }
            _ => {
                let i = rng.gen_range(0..corpus.len());
                let name = corpus[i].0.clone();
                let text = edit(&corpus, i, rng);
                mirror_upsert(&mut corpus, &name, text.clone());
                fleets.iter_mut().for_each(|f| f.upsert(&name, &text));
            }
        }

        let dataset = Dataset::from_named_texts(&corpus, &metadata).expect("batch dataset");
        let (batch, _) = check_parallel_with_stats(&contracts, &dataset, 1);
        let coverage = batch.coverage.summary();
        if batch.violations.iter().any(|v| v.category == "unique") {
            unique_steps += 1;
        }
        for ((fleet, kept), shards) in fleets.iter_mut().zip(&mut held).zip(SHARD_COUNTS) {
            let context = format!("{style:?} metadata={with_metadata} shards={shards} step {step}");
            // Half the time the previous aggregates are still held while
            // the shards recheck, so the engines must copy, not mutate.
            let previous = if rng.gen_bool(0.5) { kept.take() } else { None };
            *kept = None;
            let aggregates = fleet.aggregates();
            let report = merge(&contracts, &aggregates);
            assert_eq!(report.violations, batch.violations, "{context}");
            assert_eq!(report.covered_lines, coverage.covered_lines, "{context}");
            assert_eq!(report.total_lines, coverage.total_lines, "{context}");
            if let Some((old, old_report)) = previous {
                assert_eq!(
                    merge(&contracts, &old),
                    old_report,
                    "{context}: held parts moved"
                );
            }
            *kept = Some((aggregates, report));
        }
    }
    unique_steps
}

fn run_style(name: &str, style: Style) {
    let (mut sequences, mut unique_steps) = (0, 0);
    prop::check(name, CASES, |rng| {
        // Only edge roles carry metadata; a WAN style runs twice bare.
        for with_metadata in [false, style == Style::EdgeIndent] {
            unique_steps += run_sequence(style, with_metadata, rng);
            sequences += 1;
        }
    });
    // The edits must keep the unique pass busy: unique violations in at
    // least a quarter of all steps.
    assert!(
        unique_steps * 4 >= sequences * STEPS,
        "{style:?}: unique violations in only {unique_steps} of {} steps",
        sequences * STEPS
    );
}

#[test]
fn fleet_merge_matches_batch_edge_indent() {
    run_style("fleet_merge_matches_batch_edge_indent", Style::EdgeIndent);
}

#[test]
fn fleet_merge_matches_batch_wan_flat() {
    run_style("fleet_merge_matches_batch_wan_flat", Style::WanFlat);
}

#[test]
fn fleet_merge_matches_batch_wan_indent() {
    run_style("fleet_merge_matches_batch_wan_indent", Style::WanIndent);
}
