//! Whole-pipeline robustness tests: random mutations of generated
//! configurations must never panic the pipeline, and every reported
//! violation must be well-localized. The properties run on seeded cases
//! from `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).

use concord::core::{check, learn, Dataset, LearnParams};
use concord::datagen::{generate_role, standard_roles};
use concord_rng::{prop, Rng};

/// Cases per property when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 16;

/// Applies a deterministic text-level mutation to one config.
fn mutate(text: &str, kind: u8, pos: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return text.to_string();
    }
    let i = pos % lines.len();
    let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    match kind % 6 {
        0 => {
            out.remove(i);
        }
        1 => out.insert(i, "garbage inserted line 42".to_string()),
        2 => out[i] = out[i].replace(|c: char| c.is_ascii_digit(), "9"),
        3 => out.swap(i, (i + 1) % lines.len()),
        4 => out[i] = format!("{}{}", out[i], out[i]),
        _ => out[i] = out[i].chars().rev().collect(),
    }
    let mut joined = out.join("\n");
    joined.push('\n');
    joined
}

/// Checking mutated configurations is total, and violations always
/// point at real lines of the named configuration.
#[test]
fn mutated_configs_check_without_panic() {
    prop::check("mutated_configs_check_without_panic", CASES, |rng| {
        let role_idx = rng.gen_range(0..10usize);
        let seed = rng.gen_range(0..50u64);
        let kind = rng.gen_range(0..12u8);
        let pos = rng.gen_range(0..500usize);
        let spec = &standard_roles(0.25)[role_idx];
        let role = generate_role(spec, 9000 + seed);
        let train = Dataset::from_named_texts(&role.configs, &role.metadata).unwrap();
        let params = LearnParams {
            support: 2,
            ..LearnParams::default()
        };
        let contracts = learn(&train, &params);

        let (victim, text) = &role.configs[0];
        let mutated = mutate(text, kind, pos);
        let test = Dataset::from_named_texts(&[(victim.clone(), mutated.clone())], &role.metadata)
            .unwrap();
        let report = check(&contracts, &test);

        let line_count = mutated.lines().count() as u32;
        for v in &report.violations {
            assert_eq!(v.config.as_str(), victim.as_str());
            assert!(v.contract_index < contracts.len());
            if let Some(n) = v.line_no {
                // Metadata violations carry metadata line numbers; config
                // violations must stay within the file.
                let meta_lines = role
                    .metadata
                    .iter()
                    .map(|(_, t)| t.lines().count() as u32)
                    .max()
                    .unwrap_or(0);
                assert!(
                    n >= 1 && (n <= line_count || n <= meta_lines),
                    "line {n} out of range (config {line_count} lines)"
                );
            }
        }
    });
}

/// Deleting a random line never makes checking report *fewer*
/// categories than deleting nothing... more precisely: the clean
/// config checks clean except for planted anomalies, and deletion
/// only ever adds violations about this config.
#[test]
fn deletion_only_adds_violations() {
    prop::check("deletion_only_adds_violations", CASES, |rng| {
        let seed = rng.gen_range(0..30u64);
        let pos = rng.gen_range(0..300usize);
        let spec = standard_roles(0.25)
            .into_iter()
            .find(|s| s.name == "W1")
            .unwrap();
        let role = generate_role(&spec, 7000 + seed);
        let train = Dataset::from_named_texts(&role.configs, &role.metadata).unwrap();
        let params = LearnParams {
            support: 2,
            ..LearnParams::default()
        };
        let contracts = learn(&train, &params);

        let (victim, text) = &role.configs[0];
        let clean =
            Dataset::from_named_texts(&[(victim.clone(), text.clone())], &role.metadata).unwrap();
        let clean_count = check(&contracts, &clean).violations.len();

        let mutated = mutate(text, 0, pos); // Kind 0 = deletion.
        let test = Dataset::from_named_texts(&[(victim.clone(), mutated)], &role.metadata).unwrap();
        let mutated_count = check(&contracts, &test).violations.len();
        // Deleting a line can remove at most the violations that pointed
        // at it; it cannot reduce the count below clean minus a handful.
        assert!(
            mutated_count + 3 >= clean_count,
            "deletion hid violations: clean={clean_count} mutated={mutated_count}"
        );
    });
}

/// The lexer + embedder handle pathological inputs without panicking.
#[test]
fn pathological_inputs_are_total() {
    let nasty = [
        "".to_string(),
        "\n\n\n".to_string(),
        " ".repeat(10_000),
        "x".repeat(10_000),
        format!("{}\n", "9".repeat(5_000)),
        "déjà vu ünïcode ライン\n".to_string(),
        "{\"unterminated\": \n".to_string(),
        "key: [unclosed\n".to_string(),
        "\t\tmixed \t indentation\n  spaces\n".to_string(),
        "0x 0x0x 1.2.3.4.5.6.7.8 :::::: ff:ff\n".to_string(),
    ];
    let configs: Vec<(String, String)> = nasty
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("n{i}"), t.clone()))
        .collect();
    let ds = Dataset::from_named_texts(&configs, &[]).unwrap();
    let contracts = learn(&ds, &LearnParams::default());
    let report = check(&contracts, &ds);
    let _ = report.coverage.summary();
}
