//! End-to-end tests of the check engine and coverage measurement.

use concord_core::{
    check, finalize_sketches, learn, sketch_config, ConfigSketch, Contract, ContractSet, Dataset,
    LearnParams,
};
use concord_types::ValueType;

fn dataset(texts: &[String]) -> Dataset {
    let configs: Vec<(String, String)> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("dev{i}"), t.clone()))
        .collect();
    Dataset::from_named_texts(&configs, &[]).unwrap()
}

fn single(text: &str) -> Dataset {
    dataset(&[text.to_string()])
}

fn contracts(list: Vec<Contract>) -> ContractSet {
    ContractSet {
        contracts: list,
        relational_before_minimization: 0,
    }
}

#[test]
fn present_violation_reports_missing_pattern() {
    let set = contracts(vec![Contract::Present {
        pattern: "/router bgp [a:num]".to_string(),
    }]);
    let report = check(&set, &single("hostname X1\n"));
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert_eq!(v.category, "present");
    assert_eq!(v.config, "dev0");
    assert_eq!(v.line_no, None);
    assert!(v.message.contains("missing"));
}

#[test]
fn present_satisfied_is_quiet() {
    let set = contracts(vec![Contract::Present {
        pattern: "/router bgp [a:num]".to_string(),
    }]);
    let report = check(&set, &single("router bgp 65000\n"));
    assert!(report.violations.is_empty());
}

#[test]
fn ordering_violation_localizes_line() {
    let set = contracts(vec![Contract::Ordering {
        first: "/evpn ether-segment".to_string(),
        second: "/route-target import [a:mac]".to_string(),
    }]);
    // Flat config (no indentation) so patterns stay top-level.
    let good = single("evpn ether-segment\nroute-target import 00:00:0c:d3:00:6e\n");
    assert!(check(&set, &good).violations.is_empty());

    let bad = single("evpn ether-segment\nmtu 9214\n");
    let report = check(&set, &bad);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].line_no, Some(1));
    assert_eq!(report.violations[0].category, "ordering");
}

#[test]
fn type_violation_flags_mistyped_line() {
    let set = contracts(vec![Contract::Type {
        pattern: "/ip address [?]".to_string(),
        hole: 0,
        valid: vec![ValueType::Ip4],
    }]);
    let bad = single("ip address 10.0.0.0/24\n");
    let report = check(&set, &bad);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].message.contains("[pfx4]"));
    assert_eq!(report.violations[0].line_no, Some(1));

    let good = single("ip address 10.0.0.1\n");
    assert!(check(&set, &good).violations.is_empty());
}

#[test]
fn sequence_violation_reports_break_point() {
    let set = contracts(vec![Contract::Sequence {
        pattern: "/seq [a:num] permit [b:pfx4]".to_string(),
        param: 0,
    }]);
    let bad =
        single("seq 10 permit 10.0.0.0/8\nseq 20 permit 10.1.0.0/16\nseq 40 permit 10.2.0.0/16\n");
    let report = check(&set, &bad);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].line_no, Some(3));

    let good =
        single("seq 10 permit 10.0.0.0/8\nseq 20 permit 10.1.0.0/16\nseq 30 permit 10.2.0.0/16\n");
    assert!(check(&set, &good).violations.is_empty());
}

#[test]
fn unique_violation_flags_reuse_across_configs() {
    let set = contracts(vec![Contract::Unique {
        pattern: "/hostname DEV[a:num]".to_string(),
        param: 0,
        once_per_config: false,
    }]);
    let ds = dataset(&[
        "hostname DEV100\n".to_string(),
        "hostname DEV100\n".to_string(),
    ]);
    let report = check(&set, &ds);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].config, "dev1");
    assert!(report.violations[0].message.contains("reused"));
}

#[test]
fn unique_once_per_config_flags_missing() {
    let set = contracts(vec![Contract::Unique {
        pattern: "/hostname DEV[a:num]".to_string(),
        param: 0,
        once_per_config: true,
    }]);
    let ds = dataset(&["hostname DEV1\n".to_string(), "vlan 5\n".to_string()]);
    let report = check(&set, &ds);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].config, "dev1");
    assert!(report.violations[0].message.contains("found none"));
}

#[test]
fn relational_violation_names_value() {
    // Learn Figure 1 contract 2 from clean configs, then break one.
    let train: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "interface Loopback0\n ip address 10.14.14.{i}\nip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\n"
            )
        })
        .collect();
    let learned = learn(&dataset(&train), &LearnParams::default());

    let bad = single(
        "interface Loopback0\n ip address 10.14.14.99\nip prefix-list lo\n seq 10 permit 10.14.14.1/32\n",
    );
    let report = check(&learned, &bad);
    // Relational violations carry the relation's real category name
    // (equality / contains / affix), never a generic "relational".
    let relational: Vec<_> = report
        .violations
        .iter()
        .filter(|v| matches!(v.category.as_str(), "equality" | "contains" | "affix"))
        .collect();
    assert!(
        !relational.is_empty(),
        "violations: {:#?}",
        report.violations
    );
    assert!(relational.iter().any(|v| v.message.contains("10.14.14.99")));
    assert!(relational.iter().any(|v| v.line_no == Some(2)));
}

#[test]
fn vacuous_contracts_pass_on_unrelated_configs() {
    let set = contracts(vec![
        Contract::Ordering {
            first: "/never seen".to_string(),
            second: "/also never".to_string(),
        },
        Contract::Sequence {
            pattern: "/absent [a:num]".to_string(),
            param: 0,
        },
    ]);
    let report = check(&set, &single("something else entirely\n"));
    assert!(report.violations.is_empty());
}

#[test]
fn present_exact_checks_constant_lines() {
    let set = contracts(vec![Contract::PresentExact {
        line: "/seq 20 permit 0.0.0.0/0".to_string(),
    }]);
    assert!(check(&set, &single("seq 20 permit 0.0.0.0/0\n"))
        .violations
        .is_empty());
    let report = check(&set, &single("seq 20 permit 10.0.0.0/8\n"));
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].category, "present");
}

#[test]
fn violations_sorted_by_config_and_line() {
    let set = contracts(vec![Contract::Present {
        pattern: "/needed".to_string(),
    }]);
    let ds = dataset(&["x\n".to_string(), "y\n".to_string()]);
    let report = check(&set, &ds);
    let configs: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.config.as_str())
        .collect();
    assert_eq!(configs, vec!["dev0", "dev1"]);
}

// --- Coverage (§3.9) ---

#[test]
fn coverage_present_covers_sole_line() {
    let set = contracts(vec![Contract::Present {
        pattern: "/router bgp [a:num]".to_string(),
    }]);
    let ds = single("router bgp 65000\nvlan 5\n");
    let report = check(&set, &ds);
    let summary = report.coverage.summary();
    assert_eq!(summary.total_lines, 2);
    assert_eq!(summary.covered_lines, 1);
    assert!((summary.fraction - 0.5).abs() < 1e-9);
    assert!((summary.by_category["present"] - 0.5).abs() < 1e-9);
}

#[test]
fn coverage_present_not_covered_when_duplicated() {
    // Two lines match the pattern: removing either leaves one.
    let set = contracts(vec![Contract::Present {
        pattern: "/vlan [a:num]".to_string(),
    }]);
    let report = check(&set, &single("vlan 5\nvlan 6\n"));
    assert_eq!(report.coverage.summary().covered_lines, 0);
}

#[test]
fn coverage_ordering_covers_followers() {
    let set = contracts(vec![Contract::Ordering {
        first: "/evpn ether-segment".to_string(),
        second: "/route-target import [a:mac]".to_string(),
    }]);
    let report = check(
        &set,
        &single("evpn ether-segment\nroute-target import 00:00:0c:d3:00:6e\nmtu 9214\n"),
    );
    let summary = report.coverage.summary();
    assert_eq!(summary.covered_lines, 1);
    // The covered line is the route-target (index 1).
    assert!(report.coverage.per_config[0].covered().contains(1));
}

#[test]
fn coverage_type_contract_covers_nothing() {
    let set = contracts(vec![Contract::Type {
        pattern: "/ip address [?]".to_string(),
        hole: 0,
        valid: vec![ValueType::Ip4],
    }]);
    let report = check(&set, &single("ip address 10.0.0.1\n"));
    assert_eq!(report.coverage.summary().covered_lines, 0);
}

#[test]
fn coverage_sequence_covers_interior() {
    let set = contracts(vec![Contract::Sequence {
        pattern: "/seq [a:num] permit [b:pfx4]".to_string(),
        param: 0,
    }]);
    // Length 4: the two interior lines are covered.
    let report = check(
        &set,
        &single("seq 10 permit 10.0.0.0/8\nseq 20 permit 10.1.0.0/16\nseq 30 permit 10.2.0.0/16\nseq 40 permit 10.3.0.0/16\n"),
    );
    let cov = &report.coverage.per_config[0];
    assert_eq!(cov.covered().iter().collect::<Vec<_>>(), [1, 2]);

    // Length 3: removing the middle leaves a valid 2-progression, so
    // nothing is covered.
    let report = check(
        &set,
        &single("seq 10 permit 10.0.0.0/8\nseq 20 permit 10.1.0.0/16\nseq 30 permit 10.2.0.0/16\n"),
    );
    assert!(report.coverage.per_config[0].covered().is_empty());
}

#[test]
fn coverage_unique_once_per_config() {
    let once = contracts(vec![Contract::Unique {
        pattern: "/hostname DEV[a:num]".to_string(),
        param: 0,
        once_per_config: true,
    }]);
    let report = check(&once, &single("hostname DEV7\nvlan 5\n"));
    assert_eq!(report.coverage.summary().covered_lines, 1);

    let multi = contracts(vec![Contract::Unique {
        pattern: "/hostname DEV[a:num]".to_string(),
        param: 0,
        once_per_config: false,
    }]);
    let report = check(&multi, &single("hostname DEV7\nvlan 5\n"));
    assert_eq!(report.coverage.summary().covered_lines, 0);
}

#[test]
fn coverage_relational_covers_sole_witness() {
    let train: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "interface Loopback0\n ip address 10.14.14.{i}\nip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\n"
            )
        })
        .collect();
    let ds = dataset(&train);
    let learned = learn(&ds, &LearnParams::default());
    let report = check(&learned, &ds);
    // The prefix-list entry (the sole witness for the loopback address)
    // must be covered by the contains contract in every config.
    let summary = report.coverage.summary();
    assert!(summary.by_category.contains_key("contains"), "{summary:#?}");
    assert!(summary.by_category["contains"] > 0.0);
    assert!(report.violations.is_empty(), "training set is clean");
}

#[test]
fn full_pipeline_coverage_is_high_on_regular_dataset() {
    let train: Vec<String> = (0..10)
        .map(|i| {
            format!(
                "hostname DEV{}\ninterface Loopback0\n ip address 10.14.14.{i}\nip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\nrouter bgp 65015\n vlan {}\n  rd 10.14.14.117:10{}\n",
                1000 + i,
                250 + i,
                250 + i
            )
        })
        .collect();
    let ds = dataset(&train);
    let learned = learn(&ds, &LearnParams::default());
    let report = check(&learned, &ds);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    let summary = report.coverage.summary();
    assert!(
        summary.fraction > 0.5,
        "expected decent coverage, got {} ({summary:#?})",
        summary.fraction
    );
}

// --- Report summaries and stats ---

#[test]
fn report_summaries_group_violations() {
    let set = contracts(vec![
        Contract::Present {
            pattern: "/needed".to_string(),
        },
        Contract::Type {
            pattern: "/ip address [?]".to_string(),
            hole: 0,
            valid: vec![ValueType::Ip4],
        },
    ]);
    let ds = dataset(&[
        "ip address 10.0.0.0/24\n".to_string(),
        "something\n".to_string(),
    ]);
    let report = check(&set, &ds);
    let by_category = report.violations_by_category();
    assert_eq!(by_category["present"], 2);
    assert_eq!(by_category["type"], 1);
    let by_config = report.violations_by_config();
    assert_eq!(by_config.len(), 2);
    assert_eq!(by_config[0], ("dev0".to_string(), 2));
    assert_eq!(by_config[1], ("dev1".to_string(), 1));
}

#[test]
fn learn_with_stats_reports_phases() {
    // Matching `vlan`/`vni` values, plus one value shared by twelve
    // keywords: eleven candidates per instance trip a one-witness
    // fan-out guard (eight satisfied candidates).
    let texts: Vec<String> = (0..8)
        .map(|i| {
            let shared: String = [
                "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
                "juliet", "kilo", "lima",
            ]
            .iter()
            .map(|k| format!("{k} {}\n", 300 + i))
            .collect();
            format!("vlan {}\nvni {}\n{shared}", 100 + i, 100 + i)
        })
        .collect();
    let ds = dataset(&texts);
    let params = LearnParams {
        enable_type: false,
        enable_range: true,
        max_witnesses_per_instance: 1,
        ..LearnParams::default()
    };
    let (learned, stats) = concord_core::learn_with_stats(&ds, &params);
    let names: Vec<&str> = stats.miner_times.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "present",
            "ordering",
            "sequence",
            "unique",
            "range",
            "relational"
        ]
    );

    let relational = |set: &ContractSet| {
        set.contracts
            .iter()
            .filter(|c| matches!(c, Contract::Relational(_)))
            .count()
    };
    let unminimized = learn(
        &ds,
        &LearnParams {
            minimize: false,
            ..params.clone()
        },
    );
    assert_eq!(
        stats.relational_before_minimization,
        relational(&unminimized)
    );
    assert_eq!(stats.relational_after_minimization, relational(&learned));
    assert!(stats.relational_after_minimization < stats.relational_before_minimization);
    assert_eq!(
        learned.relational_before_minimization,
        stats.relational_before_minimization
    );

    let sketches: Vec<ConfigSketch> = (0..ds.configs.len())
        .map(|ci| sketch_config(&ds, ci, &params))
        .collect();
    let refs: Vec<&ConfigSketch> = sketches.iter().collect();
    let (_, folded) = finalize_sketches(&ds, &refs, &params);
    assert!(stats.fanout_truncations > 0);
    assert_eq!(stats.fanout_truncations, folded.fanout_truncations);
}

#[test]
fn range_contracts_learn_and_check() {
    let texts: Vec<String> = (0..8)
        .map(|i| format!("mtu {}\n", if i % 2 == 0 { 1500 } else { 9214 }))
        .collect();
    let ds = dataset(&texts);
    let params = LearnParams {
        enable_range: true,
        ..LearnParams::default()
    };
    let learned = learn(&ds, &params);
    assert!(learned
        .contracts
        .iter()
        .any(|c| matches!(c, Contract::Range { .. })));
    // In-range values pass; out-of-range values are flagged.
    assert!(check(&learned, &single("mtu 1500\n")).violations.is_empty());
    let report = check(&learned, &single("mtu 64000\n"));
    assert!(
        report.violations.iter().any(|v| v.category == "range"),
        "{:#?}",
        report.violations
    );
    // Range contracts never cover lines (like type contracts).
    let cov = check(&learned, &ds).coverage.summary();
    assert!(!cov.by_category.contains_key("range"));
}

#[test]
fn violations_by_config_groups_in_first_seen_order() {
    use concord_core::{CoverageReport, Violation};
    let mk = |config: &str, line_no: u32| Violation {
        contract_index: 0,
        category: "present".to_string(),
        config: config.to_string(),
        line_no: Some(line_no),
        line: String::new(),
        message: String::new(),
    };
    let report = concord_core::CheckReport {
        violations: vec![
            mk("zeta", 1),
            mk("alpha", 1),
            mk("zeta", 2),
            mk("alpha", 2),
            mk("zeta", 3),
        ],
        coverage: CoverageReport {
            per_config: Vec::new(),
        },
    };
    // Counts aggregate per config, but the grouping preserves the order
    // in which each config first appears in the violation list.
    assert_eq!(
        report.violations_by_config(),
        vec![("zeta".to_string(), 3), ("alpha".to_string(), 2)]
    );
}

#[test]
fn violation_categories_match_their_contracts() {
    let train: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "interface Loopback0\n ip address 10.14.14.{i}\nip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\n"
            )
        })
        .collect();
    let mut set = learn(&dataset(&train), &LearnParams::default());
    set.contracts.push(Contract::Present {
        pattern: "/router bgp [a:num]".to_string(),
    });

    let bad = single(
        "interface Loopback0\n ip address 10.14.14.99\nip prefix-list lo\n seq 10 permit 10.14.14.1/32\n",
    );
    let report = check(&set, &bad);
    assert!(!report.violations.is_empty());
    // Every violation's category is exactly its contract's category —
    // one source of truth (Contract::category), never a literal.
    for v in &report.violations {
        assert_eq!(
            v.category,
            set.contracts[v.contract_index].category(),
            "{v:#?}"
        );
    }
    let distinct: std::collections::BTreeSet<&str> = report
        .violations
        .iter()
        .map(|v| v.category.as_str())
        .collect();
    assert!(distinct.len() >= 2, "want several categories: {distinct:?}");
}
