//! Configuration coverage (§3.9).
//!
//! > A configuration line is covered if removing it would violate at least
//! > one contract.
//!
//! Rather than literally re-checking the configuration once per line,
//! coverage is computed analytically per contract category (each rule
//! below states exactly when removing a line flips a contract from
//! satisfied to violated):
//!
//! - **present**: a line is covered when it is the *only* line matching
//!   the required pattern (or exact text) in its configuration;
//! - **ordering**: a line matching `second`, preceded by a `first` line,
//!   is covered when the line after it does not also match `second`;
//! - **type**: never covers (removing a line cannot introduce a mistyped
//!   line — the paper calls this out explicitly);
//! - **sequence**: interior elements of an arithmetic progression of
//!   length ≥ 4 are covered (removing one tears a hole; endpoints shorten
//!   the progression without breaking it, and at length 3 the two
//!   survivors of an interior removal still form a valid progression);
//! - **unique**: covered only for `once_per_config` uniques, where removal
//!   leaves the configuration without its mandatory single instance;
//! - **relational**: a consequent line is covered when it is the *sole
//!   witness* of some antecedent instance (other than itself).
//!
//! Coverage executes against the compiled [`CheckProgram`]: it reuses the
//! per-configuration [`ProgramContext`] that checking built, so the
//! transformed-value cache is shared and the relational rule costs no
//! extra probes — the check pass's fused witness queries already stashed
//! every sole-witness line. The naive variant
//! ([`config_coverage_naive`]) is retained behind the `naive-check`
//! feature as the equivalence oracle.
//!
//! A configuration's coverage ([`ConfigCoverage`]) is one bit per line,
//! plus one such bit set per category that covers a line. Both variants
//! set bits through one setter, which skips metadata rows, and readers
//! take the bits as they stand: a count, a membership test, or the
//! covered indices in line order.

use std::collections::{BTreeMap, HashMap};

use concord_graph::BitSet;
use concord_types::Transform;

use crate::check::program::{CheckProgram, ProgramContext};
#[cfg(any(test, feature = "naive-check"))]
use crate::check::{find_witnesses, ConfigContext, Resolved, ResolvedContract};
use crate::contract::Contract;
#[cfg(any(test, feature = "naive-check"))]
use crate::contract::ContractSet;
use crate::ir::ConfigIr;
#[cfg(any(test, feature = "naive-check"))]
use crate::ir::Dataset;
use crate::learn::sequence_is_sequential;

/// Coverage of one configuration: one bit per line, overall and per
/// contract category. Both rule implementations build it through one
/// setter, so compiled and naive coverage compare equal exactly when they
/// cover the same lines in the same categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigCoverage {
    /// The configuration name.
    pub name: String,
    /// Number of (non-metadata) lines.
    pub total_lines: usize,
    covered: BitSet,
    by_category: Vec<(&'static str, BitSet)>,
}

impl ConfigCoverage {
    /// The covered lines, as indices into the configuration's line list
    /// (a metadata row is never covered): their count, membership, and
    /// the indices in line order.
    pub fn covered(&self) -> &BitSet {
        &self.covered
    }

    /// The covered lines per contract category, in category-name order.
    /// Only categories covering at least one line appear.
    pub fn by_category(&self) -> impl Iterator<Item = (&'static str, &BitSet)> {
        self.by_category
            .iter()
            .map(|(category, lines)| (*category, lines))
    }

    /// No covered lines yet, sized to `config`'s lines.
    fn new(name: &str, config: &ConfigIr) -> Self {
        ConfigCoverage {
            name: name.to_string(),
            total_lines: config.own_line_count(),
            covered: BitSet::new(config.len()),
            by_category: Vec::new(),
        }
    }

    /// Marks line `li` covered by a contract of `category`, unless it is a
    /// metadata row. A line is usually reported many times (every
    /// relational sole witness, every contract sharing it); a bit set
    /// absorbs the repeats, and the category list stays tiny (one entry
    /// per contract category, at most seven), so a search beats hashing.
    fn cover(&mut self, config: &ConfigIr, category: &'static str, li: usize) {
        if config.is_meta(li) {
            return;
        }
        self.covered.insert(li);
        let at = match self
            .by_category
            .binary_search_by(|(c, _)| (*c).cmp(category))
        {
            Ok(at) => at,
            Err(at) => {
                self.by_category
                    .insert(at, (category, BitSet::new(config.len())));
                at
            }
        };
        self.by_category[at].1.insert(li);
    }
}

/// Coverage of a whole dataset.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Per-configuration coverage, in dataset order.
    pub per_config: Vec<ConfigCoverage>,
}

/// Aggregated coverage numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSummary {
    /// Total lines across all configurations.
    pub total_lines: usize,
    /// Lines covered by at least one contract.
    pub covered_lines: usize,
    /// `covered_lines / total_lines` (0 when empty).
    pub fraction: f64,
    /// Fraction of all lines covered by each category individually.
    pub by_category: BTreeMap<String, f64>,
}

impl CoverageReport {
    /// Aggregates per-config coverage into dataset totals.
    pub fn summary(&self) -> CoverageSummary {
        let total: usize = self.per_config.iter().map(|c| c.total_lines).sum();
        let covered: usize = self.per_config.iter().map(|c| c.covered.len()).sum();
        let mut by_category: BTreeMap<String, usize> = BTreeMap::new();
        for config in &self.per_config {
            for (cat, lines) in config.by_category() {
                *by_category.entry(cat.to_string()).or_insert(0) += lines.len();
            }
        }
        let frac = |n: usize| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        };
        CoverageSummary {
            total_lines: total,
            covered_lines: covered,
            fraction: frac(covered),
            by_category: by_category.into_iter().map(|(k, v)| (k, frac(v))).collect(),
        }
    }
}

/// Computes coverage of one configuration against the compiled program,
/// reusing the per-configuration context (value cache + witness indexes)
/// the check pass built.
pub(crate) fn config_coverage(
    program: &CheckProgram<'_>,
    config: &ConfigIr,
    pctx: &ProgramContext<'_>,
) -> ConfigCoverage {
    let contracts = &program.contracts.contracts;
    let ctx = &pctx.ctx;
    let mut cov = ConfigCoverage::new(program.dataset.name_of(config), config);

    // Exact-line groups are only needed for PresentExact contracts.
    let filled_groups: HashMap<&str, Vec<usize>> = if program.resolved.need_filled_lines {
        let mut map: HashMap<&str, Vec<usize>> = HashMap::new();
        for (li, filled) in ctx.filled_by_line.iter().enumerate() {
            map.entry(filled.as_str()).or_default().push(li);
        }
        map
    } else {
        HashMap::new()
    };

    // Present: the only line matching the pattern is covered.
    for &(idx, id) in &program.present {
        let Some(id) = id else { continue };
        if let Some(idxs) = ctx.lines_by_pattern.get(&id) {
            if idxs.len() == 1 {
                cov.cover(config, contracts[idx].category(), idxs[0]);
            }
        }
    }
    for &idx in &program.present_exact {
        let Contract::PresentExact { line } = &contracts[idx] else {
            unreachable!("present-exact op on non-exact contract")
        };
        if let Some(idxs) = filled_groups.get(line.as_str()) {
            if idxs.len() == 1 {
                cov.cover(config, contracts[idx].category(), idxs[0]);
            }
        }
    }

    // Ordering: a `second` line preceded by `first` and not followed by
    // another `second` is the sole adjacency witness. Dispatched on the
    // second pattern's occurrence list instead of scanning every line.
    for &(idx, f, s) in &program.ordering {
        let Some(s) = s else { continue };
        let Some(seconds) = ctx.lines_by_pattern.get(&s) else {
            continue;
        };
        for &li in seconds {
            let prev_matches = li > 0
                && config.pattern(li - 1) == f
                && config.is_meta(li - 1) == config.is_meta(li);
            if !prev_matches {
                continue;
            }
            let next_also_matches = li + 1 < config.len()
                && config.pattern(li + 1) == s
                && config.is_meta(li + 1) == config.is_meta(li);
            if !next_also_matches {
                cov.cover(config, contracts[idx].category(), li);
            }
        }
    }

    // Type and range contracts flag existing lines; removal cannot
    // violate them, so they cover nothing (§3.9).

    // Sequence: interior elements of a valid progression of length ≥ 4.
    for &(idx, id) in &program.sequence {
        let Contract::Sequence { param, .. } = &contracts[idx] else {
            unreachable!("sequence op on non-sequence contract")
        };
        let values = ctx.values_of(config, id, *param, &Transform::Id);
        let nums: Vec<&concord_types::BigNum> =
            values.iter().filter_map(|(v, _)| v.as_num()).collect();
        if nums.len() >= 4 && sequence_is_sequential(&nums) {
            for (_, li) in &values[1..values.len() - 1] {
                cov.cover(config, contracts[idx].category(), *li);
            }
        }
    }

    // Unique: only `once_per_config` uniques cover their single instance.
    for &(idx, id) in &program.unique {
        let Contract::Unique {
            once_per_config, ..
        } = &contracts[idx]
        else {
            unreachable!("unique op on non-unique contract")
        };
        if !once_per_config {
            continue;
        }
        if let Some(idxs) = ctx.lines_by_pattern.get(&id) {
            if idxs.len() == 1 {
                cov.cover(config, contracts[idx].category(), idxs[0]);
            }
        }
    }

    // Relational: a consequent line that is the sole witness of some
    // antecedent instance (other than itself) is covered. The check
    // pass's fused probes already identified these lines — consume the
    // stash instead of re-probing every antecedent.
    for (idx, w) in pctx.take_relational_cover() {
        cov.cover(config, contracts[idx].category(), w as usize);
    }

    cov
}

/// Computes coverage of one configuration under `contracts` with the
/// naive per-contract scans (the equivalence oracle for
/// [`config_coverage`]).
#[cfg(any(test, feature = "naive-check"))]
pub(crate) fn config_coverage_naive(
    contracts: &ContractSet,
    dataset: &Dataset,
    config: &ConfigIr,
    resolved: &Resolved,
    ctx: &ConfigContext<'_>,
) -> ConfigCoverage {
    let mut cov = ConfigCoverage::new(dataset.name_of(config), config);

    // Exact-line groups are only needed for PresentExact contracts.
    let filled_groups: HashMap<&str, Vec<usize>> = if resolved.need_filled_lines {
        let mut map: HashMap<&str, Vec<usize>> = HashMap::new();
        for (li, filled) in ctx.filled_by_line.iter().enumerate() {
            map.entry(filled.as_str()).or_default().push(li);
        }
        map
    } else {
        HashMap::new()
    };

    for (idx, contract) in contracts.contracts.iter().enumerate() {
        let category = contract.category();
        match (contract, &resolved.by_contract[idx]) {
            (Contract::Present { .. }, ResolvedContract::Present(id)) => {
                let Some(id) = id else { continue };
                if let Some(idxs) = ctx.lines_by_pattern.get(id) {
                    if idxs.len() == 1 {
                        cov.cover(config, category, idxs[0]);
                    }
                }
            }
            (Contract::PresentExact { line }, ResolvedContract::PresentExact) => {
                if let Some(idxs) = filled_groups.get(line.as_str()) {
                    if idxs.len() == 1 {
                        cov.cover(config, category, idxs[0]);
                    }
                }
            }
            (Contract::Ordering { .. }, ResolvedContract::Ordering(f, s)) => {
                let (Some(f), Some(s)) = (f, s) else { continue };
                for li in 0..config.len() {
                    if config.pattern(li) != *s {
                        continue;
                    }
                    let prev_matches = li > 0
                        && config.pattern(li - 1) == *f
                        && config.is_meta(li - 1) == config.is_meta(li);
                    if !prev_matches {
                        continue;
                    }
                    let next_also_matches = li + 1 < config.len()
                        && config.pattern(li + 1) == *s
                        && config.is_meta(li + 1) == config.is_meta(li);
                    if !next_also_matches {
                        cov.cover(config, category, li);
                    }
                }
            }
            (Contract::Type { .. }, ResolvedContract::Type(_))
            | (Contract::Range { .. }, ResolvedContract::Range(_)) => {
                // Type and range contracts flag existing lines; removal
                // cannot violate them, so they cover nothing (§3.9).
            }
            (Contract::Sequence { param, .. }, ResolvedContract::Sequence(id)) => {
                let values = ctx.values_of(config, *id, *param, &Transform::Id);
                let nums: Vec<&concord_types::BigNum> =
                    values.iter().filter_map(|(v, _)| v.as_num()).collect();
                if nums.len() >= 4 && sequence_is_sequential(&nums) {
                    for (v, li) in &values[1..values.len() - 1] {
                        let _ = v;
                        cov.cover(config, category, *li);
                    }
                }
            }
            (
                Contract::Unique {
                    once_per_config, ..
                },
                ResolvedContract::Unique(id),
            ) => {
                if !once_per_config {
                    continue;
                }
                let Some(id) = id else { continue };
                if let Some(idxs) = ctx.lines_by_pattern.get(id) {
                    if idxs.len() == 1 {
                        cov.cover(config, category, idxs[0]);
                    }
                }
            }
            (Contract::Relational(r), ResolvedContract::Relational(a, c)) => {
                let antecedents =
                    ctx.values_of(config, *a, r.antecedent.param, &r.antecedent.transform);
                if antecedents.is_empty() {
                    continue;
                }
                let consequents =
                    ctx.values_of(config, *c, r.consequent.param, &r.consequent.transform);
                for (v1, li) in antecedents.iter() {
                    let wits = find_witnesses(r.relation, v1, &consequents);
                    if wits.len() == 1 && wits[0] != *li {
                        cov.cover(config, category, wits[0]);
                    }
                }
            }
            _ => unreachable!("resolved variant mismatch"),
        }
    }

    cov
}
