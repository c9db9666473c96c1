#![warn(missing_docs)]

//! Shared infrastructure for the experiment harness.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §5 for the index). This library
//! provides the common pieces: dataset construction from the synthetic
//! roles, wall-clock timing, the ground-truth *oracle* that replaces the
//! paper's GPT-4 + manual review (a learned contract is a true positive
//! iff it keeps holding on freshly generated devices from the same role
//! template), the deterministic 1–10 scorer standing in for the LLM, the
//! sample-size statistics of §5.4, and machine-readable result output
//! under the workspace's `target/experiments/`.

pub mod microbench;
pub mod oracle;
pub mod precision;
pub mod stats;

use std::time::{Duration, Instant};

use concord_core::{Dataset, LearnParams};
use concord_datagen::{generate_role, standard_roles, GeneratedRole, RoleSpec};

/// The scale factor for dataset generation, read from `CONCORD_SCALE`
/// (default 0.5 — laptop-friendly; raise it to approach paper-scale).
pub fn scale() -> f64 {
    std::env::var("CONCORD_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// The base seed for dataset generation, read from `CONCORD_SEED`.
pub fn seed() -> u64 {
    std::env::var("CONCORD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20260427)
}

/// Returns the ten standard roles at the configured scale.
pub fn roles() -> Vec<RoleSpec> {
    standard_roles(scale())
}

/// Generates a role with the configured seed.
pub fn generate(spec: &RoleSpec) -> GeneratedRole {
    generate_role(spec, seed())
}

/// Builds a [`Dataset`] from a generated role.
pub fn dataset_of(role: &GeneratedRole) -> Dataset {
    Dataset::from_named_texts(&role.configs, &role.metadata).expect("dataset builds")
}

/// Default learning parameters for experiments (constants enabled, as the
/// coverage tables assume; ordering learned — the harness filters where a
/// table calls for it).
pub fn default_params() -> LearnParams {
    LearnParams {
        learn_constants: true,
        ..LearnParams::default()
    }
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration like the paper's tables (`0.1s`, `16.0s`).
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.1}s", d.as_secs_f64())
}

/// The workspace root: result files land under it whatever directory a
/// bench binary runs from.
pub fn workspace_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the bench crate sits at crates/bench in the workspace")
}

/// Writes a machine-readable experiment result under the workspace's
/// `target/experiments/<name>.json`.
pub fn write_result(name: &str, json: &concord_json::Value) {
    let dir = workspace_root().join("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(text) = concord_json::to_string_pretty(json) {
            let _ = std::fs::write(&path, text);
            eprintln!("(wrote {})", path.display());
        }
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = *w))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Groups the 8 per-category columns of Tables 4–7 in paper order.
pub const CATEGORY_COLUMNS: [&str; 8] = [
    "present", "ordering", "type", "unique", "sequence", "equality", "contains", "affix",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_generate_at_scale() {
        let roles = roles();
        assert_eq!(roles.len(), 10);
    }

    #[test]
    fn timing_is_positive() {
        let (v, d) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn fmt_secs_matches_table_style() {
        assert_eq!(fmt_secs(Duration::from_millis(100)), "0.1s");
        assert_eq!(fmt_secs(Duration::from_secs(16)), "16.0s");
    }

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[4, 4]);
        assert_eq!(r, "a    bb  ");
    }
}
