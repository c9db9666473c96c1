//! Property tests for the learning and checking engines, on seeded
//! fleets from `concord_rng::prop` (`CONCORD_PROP_SEED`,
//! `CONCORD_PROP_CASES`).

use concord_core::{
    check, finalize_sketches, learn, learn_with_stats, sketch_config, ConfigSketch, Contract,
    ContractSet, Dataset, LearnParams,
};
use concord_json::Json;
use concord_rng::prop;
use concord_rng::{Rng, StdRng};

/// Cases per property when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 24;

/// Builds a dataset from generated config texts.
fn dataset(texts: Vec<String>) -> Dataset {
    let configs: Vec<(String, String)> = texts
        .into_iter()
        .enumerate()
        .map(|(i, t)| (format!("dev{i}"), t))
        .collect();
    Dataset::from_named_texts(&configs, &[]).unwrap()
}

/// A small fleet of template-driven configs: shared structure with
/// per-device values.
fn fleet(rng: &mut StdRng) -> Vec<String> {
    let devices = rng.gen_range(6..10usize);
    let vlan_count = rng.gen_range(1..6u32);
    let vlan_base = rng.gen_range(0..200u32);
    let with_plist = rng.gen_bool(0.5);
    let with_bgp = rng.gen_bool(0.5);
    (0..devices)
        .map(|d| {
            let mut text = format!("hostname DEV{}\n", 1000 + d);
            text.push_str(&format!("interface Loopback0\n ip address 10.7.{d}.34\n"));
            if with_plist {
                text.push_str("ip prefix-list lo\n");
                text.push_str(&format!(" seq 10 permit 10.7.{d}.34/32\n"));
                text.push_str(" seq 20 permit 0.0.0.0/0\n");
            }
            if with_bgp {
                text.push_str("router bgp 65001\n");
                for v in 0..vlan_count {
                    let vlan = 100 + vlan_base + v;
                    text.push_str(&format!(
                        " vlan {vlan}\n  rd 10.7.250.1:10{vlan}\n  vni {vlan}\n"
                    ));
                }
            }
            text
        })
        .collect()
}

/// Learning is deterministic and its output survives JSON.
#[test]
fn learn_deterministic_and_serializable() {
    prop::check("learn_deterministic_and_serializable", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let params = LearnParams::default();
        let a = learn(&ds, &params);
        let b = learn(&ds, &params);
        assert_eq!(a.contracts, b.contracts);
        let back = ContractSet::from_json(&a.to_json()).unwrap();
        assert_eq!(back.contracts, a.contracts);
    });
}

/// Contracts learned from a template fleet hold on that fleet.
#[test]
fn learned_contracts_hold_on_training_set() {
    prop::check("learned_contracts_hold_on_training_set", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let contracts = learn(&ds, &LearnParams::default());
        let report = check(&contracts, &ds);
        assert!(
            report.violations.is_empty(),
            "self-check violations: {:#?}",
            &report.violations[..report.violations.len().min(3)]
        );
    });
}

/// §3.9 equivalence: a line is covered iff removing it (at the IR
/// level) produces at least one violation.
#[test]
fn coverage_agrees_with_removal_simulation() {
    prop::check("coverage_agrees_with_removal_simulation", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let contracts = learn(&ds, &LearnParams::default());
        let report = check(&contracts, &ds);
        assert!(report.violations.is_empty());
        for (ci, cov) in report.coverage.per_config.iter().enumerate() {
            let config = &ds.configs[ci];
            for li in 0..config.len() {
                if config.is_meta(li) {
                    continue;
                }
                let mut without = ds.clone();
                without.remove_line(ci, li);
                let removed_report = check(&contracts, &without);
                let violates = !removed_report.violations.is_empty();
                let line = ds.line(config, li);
                assert_eq!(
                    cov.covered().contains(li),
                    violates,
                    "config {} line {} ({}): covered={} but removal violations={:#?}",
                    ds.name_of(config),
                    line.line_no,
                    line.original,
                    cov.covered().contains(li),
                    &removed_report.violations[..removed_report.violations.len().min(3)]
                );
            }
        }
    });
}

/// Parallel checking matches sequential checking exactly.
#[test]
fn check_parallel_matches_sequential() {
    prop::check("check_parallel_matches_sequential", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let contracts = learn(&ds, &LearnParams::default());
        let seq = concord_core::check_parallel(&contracts, &ds, 1);
        let par = concord_core::check_parallel(&contracts, &ds, 4);
        assert_eq!(seq.violations, par.violations);
        assert_eq!(
            seq.coverage.summary().covered_lines,
            par.coverage.summary().covered_lines
        );
    });
}

/// Coverage accounting is internally consistent: per-category sets
/// are subsets of the total, and fractions are within [0, 1].
#[test]
fn coverage_accounting_consistent() {
    prop::check("coverage_accounting_consistent", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let contracts = learn(&ds, &LearnParams::default());
        let report = check(&contracts, &ds);
        for cov in &report.coverage.per_config {
            assert!(cov.covered().len() <= cov.total_lines);
            for (_, lines) in cov.by_category() {
                for li in lines.iter() {
                    assert!(cov.covered().contains(li));
                }
            }
        }
        let summary = report.coverage.summary();
        assert!((0.0..=1.0).contains(&summary.fraction));
        for fraction in summary.by_category.values() {
            assert!((0.0..=1.0).contains(fraction));
        }
    });
}

/// Minimization preserves checking outcomes on the training set and
/// never grows the relational contract count.
#[test]
fn minimization_preserves_clean_check() {
    prop::check("minimization_preserves_clean_check", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let minimized = learn(&ds, &LearnParams::default());
        let full = learn(
            &ds,
            &LearnParams {
                minimize: false,
                ..LearnParams::default()
            },
        );
        let count = |set: &ContractSet| {
            set.contracts
                .iter()
                .filter(|c| matches!(c, Contract::Relational(_)))
                .count()
        };
        assert!(count(&minimized) <= count(&full));
        assert!(check(&minimized, &ds).violations.is_empty());
        assert!(check(&full, &ds).violations.is_empty());
    });
}

/// Checking never panics on mismatched contract/dataset pairs: any
/// learned set can be applied to any other fleet.
#[test]
fn check_total_on_foreign_datasets() {
    prop::check("check_total_on_foreign_datasets", CASES, |rng| {
        let contracts = learn(&dataset(fleet(rng)), &LearnParams::default());
        let report = check(&contracts, &dataset(fleet(rng)));
        // Violations must reference valid contract indices.
        for v in &report.violations {
            assert!(v.contract_index < contracts.len());
        }
    });
}

/// Learn parameters with every miner on, so every sketch section is
/// populated.
fn all_miners() -> LearnParams {
    LearnParams {
        learn_constants: true,
        enable_range: true,
        ..LearnParams::default()
    }
}

/// Every config's sketch decodes from its rendered JSON to an equal
/// sketch.
#[test]
fn sketches_round_trip_through_json() {
    prop::check("sketches_round_trip_through_json", CASES, |rng| {
        let ds = dataset(fleet(rng));
        for ci in 0..ds.configs.len() {
            let sketch = sketch_config(&ds, ci, &all_miners());
            let mut rendered = String::new();
            sketch.write_json(&ds.table, &mut rendered);
            let decoded = ConfigSketch::from_json(&Json::parse(&rendered).unwrap(), &ds.table);
            assert_eq!(decoded.as_ref(), Some(&sketch), "config {ci}");
        }
    });
}

/// Folding decoded sketches learns exactly what a full learn does.
#[test]
fn decoded_sketches_fold_like_a_full_learn() {
    prop::check("decoded_sketches_fold_like_a_full_learn", CASES, |rng| {
        let ds = dataset(fleet(rng));
        let params = all_miners();
        let decoded: Vec<ConfigSketch> = (0..ds.configs.len())
            .map(|ci| {
                let mut json = String::new();
                sketch_config(&ds, ci, &params).write_json(&ds.table, &mut json);
                ConfigSketch::from_json(&Json::parse(&json).unwrap(), &ds.table).unwrap()
            })
            .collect();
        let refs: Vec<&ConfigSketch> = decoded.iter().collect();
        let (folded, folded_stats) = finalize_sketches(&ds, &refs, &params);
        let (full, full_stats) = learn_with_stats(&ds, &params);
        assert_eq!(folded.to_json(), full.to_json());
        assert_eq!(
            folded_stats.fanout_truncations,
            full_stats.fanout_truncations
        );
    });
}

/// A config that leads a fleet's dataset so that its pattern ids are
/// reassigned: a few lines of patterns the fleet lacks, then `text`'s
/// top-level blocks in reverse order. The dataset interns the new
/// patterns first, shifting every fleet pattern's id, and meets the
/// fleet's patterns out of their usual order, so some pairs swap.
fn reordering_lead(rng: &mut StdRng, text: &str) -> String {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        match blocks.last_mut() {
            Some(block) if line.starts_with(' ') => block.push_str(line),
            _ => blocks.push(line.to_string()),
        }
        blocks.last_mut().unwrap().push('\n');
    }
    let mut lead: String = (0..rng.gen_range(1..4u32))
        .map(|k| format!("lead-only keyword{k} {}\n", rng.gen_range(0..100u32)))
        .collect();
    for block in blocks.iter().rev() {
        lead.push_str(block);
    }
    lead
}

/// Sketches decoded against a table whose pattern ids were reassigned —
/// shifted, and reordered — fold with a newly mined sketch into exactly
/// what a full learn of that dataset gives.
#[test]
fn sketches_decode_under_reassigned_pattern_ids() {
    prop::check(
        "sketches_decode_under_reassigned_pattern_ids",
        CASES,
        |rng| {
            let texts = fleet(rng);
            let params = all_miners();
            let ds = dataset(texts.clone());
            let rendered: Vec<String> = (0..ds.configs.len())
                .map(|ci| {
                    let mut rendered = String::new();
                    sketch_config(&ds, ci, &params).write_json(&ds.table, &mut rendered);
                    rendered
                })
                .collect();

            let lead = reordering_lead(rng, &texts[0]);
            let shifted = dataset(std::iter::once(lead).chain(texts).collect());
            let ids: Vec<(u32, u32)> = ds
                .table
                .iter()
                .map(|(id, text)| (id.0, shifted.table.get(text).expect("still interned").0))
                .collect();
            assert!(ids.iter().any(|(old, new)| old != new), "no id moved");
            assert!(
                ids.windows(2).any(|pair| pair[1].1 < pair[0].1),
                "no pair of ids swapped order"
            );

            let mut sketches = vec![sketch_config(&shifted, 0, &params)];
            for text in &rendered {
                let json = Json::parse(text).unwrap();
                sketches.push(ConfigSketch::from_json(&json, &shifted.table).expect("decodes"));
            }
            let refs: Vec<&ConfigSketch> = sketches.iter().collect();
            let (folded, folded_stats) = finalize_sketches(&shifted, &refs, &params);
            let (full, full_stats) = learn_with_stats(&shifted, &params);
            assert_eq!(folded.to_json(), full.to_json());
            assert_eq!(
                folded_stats.fanout_truncations,
                full_stats.fanout_truncations
            );
        },
    );
}

/// Removing a whole config from the dataset must never create violations
/// in other configs (checking is per-config except `unique`, which only
/// gets easier).
#[test]
fn removing_a_config_never_hurts_others() {
    let texts: Vec<String> = (0..8)
        .map(|d| {
            format!(
                "hostname DEV{}\nvlan {}\nvni {}\n",
                1000 + d,
                100 + d,
                100 + d
            )
        })
        .collect();
    let ds = dataset(texts);
    let contracts = learn(&ds, &LearnParams::default());
    assert!(check(&contracts, &ds).violations.is_empty());
    let mut smaller = ds.clone();
    assert_eq!(smaller.remove_config("dev0"), Some(0));
    assert!(check(&contracts, &smaller).violations.is_empty());
}

/// The public IR is inspectable for downstream tooling.
#[test]
fn dataset_ir_is_inspectable() {
    let ds = dataset(vec!["vlan 7\n".to_string()]);
    let config = &ds.configs[0];
    assert_eq!(config.len(), 1);
    assert_eq!(ds.table.text(config.pattern(0)), "/vlan [a:num]");
}
