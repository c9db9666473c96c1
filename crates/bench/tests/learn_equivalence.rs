//! Golden equivalence: the parallel learn engine must produce contract
//! sets identical to the sequential reference learner (`learn_reference`,
//! kept behind the `reference-learn` feature) — same contracts in the
//! same order — across config styles, parallelism levels and learn
//! chunk boundaries. This is the contract that lets every optimization
//! in the learn engine (parallel per-config sketches, the chunked fold,
//! Fx hashing, parallel minimization) land without a semantics review:
//! the reference is the spec.

use concord_bench::{default_params, seed};
use concord_core::{learn, learn_reference, Dataset, LearnParams};
use concord_datagen::{generate_role, RoleSpec, Style};

fn learn_style(style: Style, name: &str) {
    let spec = RoleSpec {
        name: name.to_string(),
        devices: 8,
        style,
        blocks: 6,
        with_metadata: style == Style::EdgeIndent,
    };
    let role = generate_role(&spec, seed());
    let dataset = Dataset::from_named_texts(&role.configs, &role.metadata).expect("dataset builds");

    // Constants on (via default_params): present-exact mining joins the
    // mix, so every miner participates in the comparison.
    let reference = learn_reference(&dataset, &default_params());
    assert!(
        !reference.contracts.is_empty(),
        "{name} learned no contracts"
    );

    let mut runs = Vec::new();
    for parallelism in [1, 8] {
        let params = LearnParams {
            parallelism,
            ..default_params()
        };
        let optimized = learn(&dataset, &params);
        assert_eq!(
            reference.contracts, optimized.contracts,
            "optimized learner diverges from the reference on {name} at parallelism {parallelism}"
        );
        runs.push(optimized);
    }
    // Full-pipeline determinism across worker counts (not just vs the
    // reference): parallelism must never change the learned set.
    assert_eq!(
        runs[0].contracts, runs[1].contracts,
        "{name} learns differently at parallelism 1 vs 8"
    );
}

#[test]
fn parallel_learner_matches_reference_on_edge_style() {
    learn_style(Style::EdgeIndent, "EDGE-LEARN-EQ");
}

#[test]
fn parallel_learner_matches_reference_on_wan_style() {
    learn_style(Style::WanFlat, "WAN-LEARN-EQ");
}

#[test]
fn parallel_learner_matches_reference_across_chunks() {
    // More than two 64-config learn chunks, so the fold crosses chunk
    // boundaries. With a one-witness cap a relational score is the score
    // of the first witnessing config's value, so what is learned depends
    // on which configs are folded first.
    let spec = RoleSpec {
        name: "EDGE-LEARN-CHUNKS".to_string(),
        devices: 150,
        style: Style::EdgeIndent,
        blocks: 2,
        with_metadata: true,
    };
    let role = generate_role(&spec, seed());
    let dataset = Dataset::from_named_texts(&role.configs, &role.metadata).expect("dataset builds");
    let params = LearnParams {
        max_score_witnesses: 1,
        ..default_params()
    };
    let reference = learn_reference(&dataset, &params);
    assert!(!reference.contracts.is_empty());
    for parallelism in [1, 2, 8] {
        let learned = learn(
            &dataset,
            &LearnParams {
                parallelism,
                ..params.clone()
            },
        );
        assert_eq!(
            reference.contracts, learned.contracts,
            "chunked learn diverges from the reference at parallelism {parallelism}"
        );
    }
}
