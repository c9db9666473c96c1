//! Contract checking (§3.8).
//!
//! [`check`] evaluates a [`ContractSet`] against a [`Dataset`] of test
//! configurations, reporting every violation with the configuration name,
//! line number, and offending values — the "actionable" property of
//! contracts. It also measures configuration coverage (§3.9) via
//! [`coverage`].
//!
//! Checking runs on the compiled engine ([`program::CheckProgram`]):
//! contracts are compiled once per (contract set, dataset) into
//! pattern-dispatched checks with indexed relational witnesses, then
//! executed per configuration. The original naive engine is retained
//! behind the `naive-check` feature (and in tests) as the equivalence
//! oracle and benchmark baseline — see `check_naive`.

pub mod coverage;
pub mod program;
mod unique;
mod witness;

pub use program::{CheckCounters, CheckProgram, ConfigOutcome};
pub use unique::{join_unique_indexes, UniqueIndex, UniqueTable, UniqueViolation};

use std::collections::{HashMap, HashSet};

use crate::fxhash::FxHashMap;
use std::time::Instant;

use concord_lexer::type_agnostic_pattern;
use concord_types::{Transform, Value};

use crate::contract::{Contract, ContractSet};
#[cfg(any(test, feature = "naive-check"))]
use crate::contract::{RelationKind, RelationalContract};
use crate::ir::{ConfigIr, Dataset, PatternId};
#[cfg(any(test, feature = "naive-check"))]
use crate::learn::sequence_is_sequential;
use crate::parallel;
use crate::stats::CheckStats;

/// One contract violation, localized to a configuration and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated contract in the checked [`ContractSet`].
    pub contract_index: usize,
    /// The contract's category name.
    pub category: String,
    /// Name of the configuration the violation occurred in.
    pub config: String,
    /// 1-based line number, when the violation points at a line (missing
    /// lines have no number).
    pub line_no: Option<u32>,
    /// The offending line's text (or the missing pattern).
    pub line: String,
    /// Human-readable explanation.
    pub message: String,
}

impl concord_json::ToJson for Violation {
    fn to_json(&self) -> concord_json::Json {
        concord_json::Json::Object(vec![
            ("contract_index".to_string(), self.contract_index.to_json()),
            ("category".to_string(), self.category.to_json()),
            ("config".to_string(), self.config.to_json()),
            ("line_no".to_string(), self.line_no.to_json()),
            ("line".to_string(), self.line.to_json()),
            ("message".to_string(), self.message.to_json()),
        ])
    }
}

impl concord_json::FromJson for Violation {
    fn from_json(value: &concord_json::Json) -> Result<Self, concord_json::Error> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| concord_json::Error::custom(format!("missing field {key:?}")))
        };
        Ok(Violation {
            contract_index: usize::from_json(field("contract_index")?)?,
            category: String::from_json(field("category")?)?,
            config: String::from_json(field("config")?)?,
            line_no: Option::<u32>::from_json(field("line_no")?)?,
            line: String::from_json(field("line")?)?,
            message: String::from_json(field("message")?)?,
        })
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line_no {
            Some(n) => write!(
                f,
                "{}:{n}: {} [{}]",
                self.config, self.message, self.category
            ),
            None => write!(f, "{}: {} [{}]", self.config, self.message, self.category),
        }
    }
}

/// The result of checking contracts against a dataset.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// All violations found, ordered by (config, line, contract).
    pub violations: Vec<Violation>,
    /// Configuration coverage of the checked contracts (§3.9).
    pub coverage: coverage::CoverageReport,
}

impl CheckReport {
    /// Counts violations per contract category.
    pub fn violations_by_category(&self) -> std::collections::BTreeMap<String, usize> {
        let mut out = std::collections::BTreeMap::new();
        for v in &self.violations {
            *out.entry(v.category.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Counts violations per configuration, in order of each
    /// configuration's first appearance in the violation list.
    pub fn violations_by_config(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        let mut slot: HashMap<&str, usize> = HashMap::new();
        for v in &self.violations {
            match slot.get(v.config.as_str()) {
                Some(&i) => out[i].1 += 1,
                None => {
                    slot.insert(&v.config, out.len());
                    out.push((v.config.clone(), 1));
                }
            }
        }
        out
    }
}

/// Checks `contracts` against every configuration of `dataset`.
pub fn check(contracts: &ContractSet, dataset: &Dataset) -> CheckReport {
    check_parallel(contracts, dataset, 1)
}

/// Checks with an explicit parallelism level (workers across configs).
pub fn check_parallel(
    contracts: &ContractSet,
    dataset: &Dataset,
    parallelism: usize,
) -> CheckReport {
    check_parallel_with_stats(contracts, dataset, parallelism).0
}

/// Checks with an explicit parallelism level, also reporting
/// [`CheckStats`]: compile time, witness index/probe counters, and
/// per-phase wall-clock times.
///
/// With `parallelism > 1` the per-phase times are summed across workers
/// (CPU time, not wall-clock); `check_time` is the end-to-end wall-clock.
pub fn check_parallel_with_stats(
    contracts: &ContractSet,
    dataset: &Dataset,
    parallelism: usize,
) -> (CheckReport, CheckStats) {
    let start = Instant::now();
    let program = CheckProgram::compile(contracts, dataset);

    let per_config = parallel::map(
        &dataset.configs,
        |config| program.run_config(config),
        parallelism,
    );

    let mut violations = Vec::new();
    let mut coverages = Vec::new();
    let mut phases = program::PhaseTimes::default();
    let mut counters = CheckCounters::default();
    for outcome in per_config {
        violations.extend(outcome.violations);
        coverages.push(outcome.coverage);
        counters.accumulate(&outcome.counters);
        phases.present += outcome.phases.present;
        phases.pattern += outcome.phases.pattern;
        phases.sequence += outcome.phases.sequence;
        phases.relational += outcome.phases.relational;
        phases.coverage += outcome.phases.coverage;
    }

    // Unique contracts are global: one index across all configs at once.
    let unique_start = Instant::now();
    violations.extend(program.check_unique(dataset));
    let unique_time = unique_start.elapsed();

    // Each configuration's list is in report order already, but a batch
    // dataset may list configurations out of name order or hold two with
    // one name, and the unique rows interleave: sort the whole list.
    violations.sort_by(|a, b| {
        (&a.config, a.line_no, a.contract_index).cmp(&(&b.config, b.line_no, b.contract_index))
    });

    let stats = CheckStats {
        contracts: contracts.len(),
        violations: violations.len(),
        parallelism: parallelism.max(1),
        check_time: start.elapsed(),
        compile_time: program.compile_time,
        witness_indexes: counters.indexes_built,
        witness_entries: counters.index_entries,
        witness_probes: counters.probes,
        witness_probe_hits: counters.probe_hits,
        category_times: vec![
            ("present".to_string(), phases.present),
            ("pattern".to_string(), phases.pattern),
            ("sequence".to_string(), phases.sequence),
            ("relational".to_string(), phases.relational),
            ("unique".to_string(), unique_time),
            ("coverage".to_string(), phases.coverage),
        ],
    };

    (
        CheckReport {
            violations,
            coverage: coverage::CoverageReport {
                per_config: coverages,
            },
        },
        stats,
    )
}

/// The naive reference checker: every contract scans for its pattern and
/// every relational probe scans all consequents. Retained as the
/// equivalence oracle for the compiled engine and as the benchmark
/// baseline (`check_scaling`); output is byte-identical to
/// [`check_parallel`] by construction (and pinned by the golden test).
#[cfg(any(test, feature = "naive-check"))]
pub fn check_naive(contracts: &ContractSet, dataset: &Dataset) -> CheckReport {
    check_naive_parallel(contracts, dataset, 1)
}

/// Naive checking with an explicit parallelism level.
#[cfg(any(test, feature = "naive-check"))]
pub fn check_naive_parallel(
    contracts: &ContractSet,
    dataset: &Dataset,
    parallelism: usize,
) -> CheckReport {
    let resolved = resolve(contracts, dataset);

    let per_config: Vec<(Vec<Violation>, coverage::ConfigCoverage)> = parallel::map(
        &dataset.configs,
        |config| {
            let ctx = ConfigContext::new(config, dataset, &resolved);
            let violations = check_config(contracts, dataset, config, &resolved, &ctx);
            let cov = coverage::config_coverage_naive(contracts, dataset, config, &resolved, &ctx);
            (violations, cov)
        },
        parallelism,
    );

    let mut violations = Vec::new();
    let mut coverages = Vec::new();
    for (v, c) in per_config {
        violations.extend(v);
        coverages.push(c);
    }

    // Unique contracts are global: check across all configs at once.
    violations.extend(check_unique_global(contracts, dataset, &resolved));

    violations.sort_by(|a, b| {
        (&a.config, a.line_no, a.contract_index).cmp(&(&b.config, b.line_no, b.contract_index))
    });

    CheckReport {
        violations,
        coverage: coverage::CoverageReport {
            per_config: coverages,
        },
    }
}

/// Contract pattern texts resolved against the test dataset's interner.
pub(crate) struct Resolved {
    /// For each contract, its patterns resolved to the dataset's ids
    /// (`None` when the pattern never occurs in the dataset).
    pub by_contract: Vec<ResolvedContract>,
    /// Whether any `PresentExact` contract exists (enables filled-line
    /// sets).
    pub need_filled_lines: bool,
}

pub(crate) enum ResolvedContract {
    Present(Option<PatternId>),
    PresentExact,
    Ordering(Option<PatternId>, Option<PatternId>),
    /// All dataset pattern ids whose type-agnostic form equals the
    /// contract's pattern.
    Type(HashSet<PatternId>),
    Sequence(Option<PatternId>),
    Unique(Option<PatternId>),
    Range(Option<PatternId>),
    Relational(Option<PatternId>, Option<PatternId>),
}

fn resolve(contracts: &ContractSet, dataset: &Dataset) -> Resolved {
    let mut need_filled_lines = false;
    // The agnostic rewrite is pattern-count work; compute it once only if
    // any type contract exists.
    let agnostic_index: HashMap<String, HashSet<PatternId>> = if contracts
        .contracts
        .iter()
        .any(|c| matches!(c, Contract::Type { .. }))
    {
        let mut map: HashMap<String, HashSet<PatternId>> = HashMap::new();
        for (id, text) in dataset.table.iter() {
            map.entry(type_agnostic_pattern(text))
                .or_default()
                .insert(id);
        }
        map
    } else {
        HashMap::new()
    };
    let by_contract = contracts
        .contracts
        .iter()
        .map(|c| match c {
            Contract::Present { pattern } => ResolvedContract::Present(dataset.table.get(pattern)),
            Contract::PresentExact { .. } => {
                need_filled_lines = true;
                ResolvedContract::PresentExact
            }
            Contract::Ordering { first, second } => {
                ResolvedContract::Ordering(dataset.table.get(first), dataset.table.get(second))
            }
            Contract::Type { pattern, .. } => {
                ResolvedContract::Type(agnostic_index.get(pattern).cloned().unwrap_or_default())
            }
            Contract::Sequence { pattern, .. } => {
                ResolvedContract::Sequence(dataset.table.get(pattern))
            }
            Contract::Unique { pattern, .. } => {
                ResolvedContract::Unique(dataset.table.get(pattern))
            }
            Contract::Range { pattern, .. } => ResolvedContract::Range(dataset.table.get(pattern)),
            Contract::Relational(r) => ResolvedContract::Relational(
                dataset.table.get(&r.antecedent.pattern),
                dataset.table.get(&r.consequent.pattern),
            ),
        })
        .collect();
    Resolved {
        by_contract,
        need_filled_lines,
    }
}

/// Per-configuration evaluation context: occurrence maps and cached
/// transformed-value collections. Borrows the dataset's arenas so line
/// parameters can be resolved from SoA ids on demand.
pub(crate) struct ConfigContext<'d> {
    /// The dataset's shared arenas (param/text resolution).
    arenas: &'d crate::ir::Arenas,
    /// Pattern id → line indices.
    pub lines_by_pattern: FxHashMap<PatternId, Vec<usize>>,
    /// Per-line filled exact text (empty unless `PresentExact` contracts
    /// exist).
    pub filled_by_line: Vec<String>,
    /// Filled exact line texts as a set (derived from `filled_by_line`).
    pub filled_lines: HashSet<String>,
    /// Memoized transformed-value collections: many contracts share the
    /// same `(pattern, param, transform)` node, and coverage re-reads
    /// what checking already computed.
    values_cache: std::cell::RefCell<FxHashMap<NodeCacheKey, SharedValues>>,
}

/// Cache key for transformed-value collections.
type NodeCacheKey = (PatternId, u16, crate::learn::indexes::TransformTag);

/// A shared, immutable collection of transformed values with their line
/// indices.
pub(crate) type SharedValues = std::rc::Rc<Vec<(Value, usize)>>;

impl<'d> ConfigContext<'d> {
    pub(crate) fn new(config: &ConfigIr, dataset: &'d Dataset, resolved: &Resolved) -> Self {
        let mut lines_by_pattern: FxHashMap<PatternId, Vec<usize>> = FxHashMap::default();
        for (i, &pattern) in config.patterns().iter().enumerate() {
            lines_by_pattern.entry(pattern).or_default().push(i);
        }
        let filled_by_line: Vec<String> = if resolved.need_filled_lines {
            config
                .lines(&dataset.arenas)
                .map(|l| crate::learn::fill_pattern(dataset.table.text(l.pattern), l.params))
                .collect()
        } else {
            Vec::new()
        };
        let filled_lines = filled_by_line.iter().cloned().collect();
        ConfigContext {
            arenas: &dataset.arenas,
            lines_by_pattern,
            filled_by_line,
            filled_lines,
            values_cache: std::cell::RefCell::new(FxHashMap::default()),
        }
    }

    /// Collects the transformed values of `(pattern, param)` with
    /// `transform`, paired with their line indices. Results are memoized
    /// per context.
    pub(crate) fn values_of(
        &self,
        config: &ConfigIr,
        pattern: Option<PatternId>,
        param: u16,
        transform: &Transform,
    ) -> SharedValues {
        let Some(pattern) = pattern else {
            return std::rc::Rc::new(Vec::new());
        };
        let key = (
            pattern,
            param,
            crate::learn::indexes::TransformTag::from_transform(transform),
        );
        if let Some(cached) = self.values_cache.borrow().get(&key) {
            return cached.clone();
        }
        let values: Vec<(Value, usize)> = self
            .lines_by_pattern
            .get(&pattern)
            .map(|idxs| {
                idxs.iter()
                    .filter_map(|&li| {
                        let params = self.arenas.params.slice(config.params_id(li));
                        let value = params.get(usize::from(param))?;
                        Some((transform.apply(&value.value)?, li))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let rc = std::rc::Rc::new(values);
        self.values_cache.borrow_mut().insert(key, rc.clone());
        rc
    }
}

/// Evaluates one relational witness: does any consequent value relate to
/// `v1`? The naive O(consequents) scan — the compiled engine answers the
/// same question through a [`witness::WitnessIndex`].
#[cfg(any(test, feature = "naive-check"))]
pub(crate) fn find_witnesses(
    relation: RelationKind,
    v1: &Value,
    consequents: &[(Value, usize)],
) -> Vec<usize> {
    let mut out = Vec::new();
    for (v2, li) in consequents {
        let holds = match relation {
            RelationKind::Equals => v1 == v2,
            RelationKind::Contains => match (v1, v2) {
                (Value::Ip(a), Value::Net(n)) => n.contains(*a),
                (Value::Net(inner), Value::Net(outer)) => outer.contains_net(inner),
                _ => false,
            },
            RelationKind::StartsWith => match (v1.as_str(), v2.as_str()) {
                (Some(s1), Some(s2)) => s2.starts_with(s1),
                _ => false,
            },
            RelationKind::EndsWith => match (v1.as_str(), v2.as_str()) {
                (Some(s1), Some(s2)) => s2.ends_with(s1),
                _ => false,
            },
        };
        if holds {
            out.push(*li);
        }
    }
    out
}

#[cfg(any(test, feature = "naive-check"))]
fn check_config(
    contracts: &ContractSet,
    dataset: &Dataset,
    config: &ConfigIr,
    resolved: &Resolved,
    ctx: &ConfigContext<'_>,
) -> Vec<Violation> {
    let arenas = &dataset.arenas;
    let config_name = dataset.name_of(config);
    let mut out = Vec::new();
    for (idx, contract) in contracts.contracts.iter().enumerate() {
        match (contract, &resolved.by_contract[idx]) {
            (Contract::Present { pattern }, ResolvedContract::Present(id)) => {
                let present = id
                    .map(|id| ctx.lines_by_pattern.contains_key(&id))
                    .unwrap_or(false);
                if !present {
                    out.push(Violation {
                        contract_index: idx,
                        category: contract.category().to_string(),
                        config: config_name.to_string(),
                        line_no: None,
                        line: pattern.clone(),
                        message: format!("missing required line matching {pattern}"),
                    });
                }
            }
            (Contract::PresentExact { line }, ResolvedContract::PresentExact) => {
                if !ctx.filled_lines.contains(line) {
                    out.push(Violation {
                        contract_index: idx,
                        category: contract.category().to_string(),
                        config: config_name.to_string(),
                        line_no: None,
                        line: line.clone(),
                        message: format!("missing required exact line {line:?}"),
                    });
                }
            }
            (Contract::Ordering { first, second }, ResolvedContract::Ordering(f, s)) => {
                let Some(f) = f else { continue };
                let Some(line_idxs) = ctx.lines_by_pattern.get(f) else {
                    continue;
                };
                for &li in line_idxs {
                    let line = config.line(arenas, li);
                    let ok = match s {
                        Some(s) if li + 1 < config.len() => {
                            config.pattern(li + 1) == *s && config.is_meta(li + 1) == line.is_meta
                        }
                        _ => false,
                    };
                    if !ok {
                        out.push(Violation {
                            contract_index: idx,
                            category: contract.category().to_string(),
                            config: config_name.to_string(),
                            line_no: Some(line.line_no),
                            line: line.original.to_string(),
                            message: format!(
                                "line matching {first} must be immediately followed by a line matching {second}"
                            ),
                        });
                    }
                }
            }
            (
                Contract::Type {
                    pattern,
                    hole,
                    valid,
                },
                ResolvedContract::Type(ids),
            ) => {
                // Any line whose agnostic pattern matches but whose hole
                // type is not in the valid set.
                for line in config.lines(arenas) {
                    if !ids.contains(&line.pattern) {
                        continue;
                    }
                    let Some(param) = line.params.get(usize::from(*hole)) else {
                        continue;
                    };
                    if !valid.contains(&param.ty) {
                        out.push(Violation {
                            contract_index: idx,
                            category: contract.category().to_string(),
                            config: config_name.to_string(),
                            line_no: Some(line.line_no),
                            line: line.original.to_string(),
                            message: format!(
                                "type [{}] is not allowed at hole {hole} of {pattern}",
                                param.ty.name()
                            ),
                        });
                    }
                }
            }
            (Contract::Sequence { pattern, param }, ResolvedContract::Sequence(id)) => {
                let values = ctx.values_of(config, *id, *param, &Transform::Id);
                let nums: Vec<&concord_types::BigNum> =
                    values.iter().filter_map(|(v, _)| v.as_num()).collect();
                if nums.len() >= 2 && !sequence_is_sequential(&nums) {
                    // Report the first line where the progression breaks.
                    let step = nums[1].abs_diff(nums[0]);
                    let break_at = nums
                        .windows(2)
                        .position(|w| w[1] <= w[0] || w[1].abs_diff(w[0]) != step)
                        .map(|i| i + 1)
                        .unwrap_or(1);
                    let li = values[break_at].1;
                    let line = config.line(arenas, li);
                    out.push(Violation {
                        contract_index: idx,
                        category: contract.category().to_string(),
                        config: config_name.to_string(),
                        line_no: Some(line.line_no),
                        line: line.original.to_string(),
                        message: format!(
                            "values of param {param} of {pattern} are not equidistant"
                        ),
                    });
                }
            }
            (Contract::Unique { .. }, ResolvedContract::Unique(_)) => {
                // Handled globally in `check_unique_global`.
            }
            (
                Contract::Range {
                    pattern,
                    param,
                    min,
                    max,
                },
                ResolvedContract::Range(id),
            ) => {
                let values = ctx.values_of(config, *id, *param, &Transform::Id);
                for (value, li) in values.iter() {
                    let Some(n) = value.as_num() else { continue };
                    if n < min || n > max {
                        let line = config.line(arenas, *li);
                        out.push(Violation {
                            contract_index: idx,
                            category: contract.category().to_string(),
                            config: config_name.to_string(),
                            line_no: Some(line.line_no),
                            line: line.original.to_string(),
                            message: format!(
                                "value {n} of param {param} of {pattern} is outside [{min}, {max}]"
                            ),
                        });
                    }
                }
            }
            (Contract::Relational(r), ResolvedContract::Relational(a, c)) => {
                out.extend(check_relational(
                    idx,
                    r,
                    contract.category(),
                    dataset,
                    config,
                    ctx,
                    *a,
                    *c,
                ));
            }
            _ => unreachable!("resolved variant mismatch"),
        }
    }
    out
}

#[cfg(any(test, feature = "naive-check"))]
#[allow(clippy::too_many_arguments)]
fn check_relational(
    idx: usize,
    r: &RelationalContract,
    category: &'static str,
    dataset: &Dataset,
    config: &ConfigIr,
    ctx: &ConfigContext<'_>,
    antecedent: Option<PatternId>,
    consequent: Option<PatternId>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let antecedents = ctx.values_of(
        config,
        antecedent,
        r.antecedent.param,
        &r.antecedent.transform,
    );
    if antecedents.is_empty() {
        return out;
    }
    let consequents = ctx.values_of(
        config,
        consequent,
        r.consequent.param,
        &r.consequent.transform,
    );
    for (v1, li) in antecedents.iter() {
        if find_witnesses(r.relation, v1, &consequents).is_empty() {
            let line = config.line(&dataset.arenas, *li);
            out.push(Violation {
                contract_index: idx,
                category: category.to_string(),
                config: dataset.name_of(config).to_string(),
                line_no: Some(line.line_no),
                line: line.original.to_string(),
                message: format!(
                    "no line matching {} satisfies {} for value {}",
                    r.consequent.pattern,
                    r.relation.name(),
                    v1.render(),
                ),
            });
        }
    }
    out
}

#[cfg(any(test, feature = "naive-check"))]
fn check_unique_global(
    contracts: &ContractSet,
    dataset: &Dataset,
    resolved: &Resolved,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, contract) in contracts.contracts.iter().enumerate() {
        let (
            Contract::Unique {
                pattern,
                param,
                once_per_config,
            },
            ResolvedContract::Unique(id),
        ) = (contract, &resolved.by_contract[idx])
        else {
            continue;
        };
        let Some(id) = id else { continue };
        let mut seen: HashSet<String> = HashSet::new();
        for config in &dataset.configs {
            let config_name = dataset.name_of(config);
            let mut count_here = 0u32;
            for line in config.lines(&dataset.arenas) {
                if line.pattern != *id {
                    continue;
                }
                count_here += 1;
                let Some(p) = line.params.get(usize::from(*param)) else {
                    continue;
                };
                let rendered = p.value.render();
                if seen.contains(&rendered) {
                    out.push(Violation {
                        contract_index: idx,
                        category: contract.category().to_string(),
                        config: config_name.to_string(),
                        line_no: Some(line.line_no),
                        line: line.original.to_string(),
                        message: format!(
                            "value {rendered} of param {param} of {pattern} is reused"
                        ),
                    });
                } else {
                    seen.insert(rendered);
                }
            }
            if *once_per_config && count_here == 0 {
                out.push(Violation {
                    contract_index: idx,
                    category: contract.category().to_string(),
                    config: config_name.to_string(),
                    line_no: None,
                    line: pattern.clone(),
                    message: format!("expected exactly one line matching {pattern}, found none"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let configs = vec![(
            "dev0".to_string(),
            "interface Loopback0\n ip address 10.0.0.1\n ip address 10.0.0.2\n".to_string(),
        )];
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    fn empty_set() -> ContractSet {
        ContractSet {
            contracts: Vec::new(),
            relational_before_minimization: 0,
        }
    }

    fn ip_address_pattern(ds: &Dataset) -> PatternId {
        ds.table
            .iter()
            .find(|(_, text)| text.contains("ip address"))
            .map(|(id, _)| id)
            .expect("ip address pattern interned")
    }

    #[test]
    fn values_of_memoizes_per_node() {
        let ds = toy_dataset();
        let config = &ds.configs[0];
        let resolved = resolve(&empty_set(), &ds);
        let ctx = ConfigContext::new(config, &ds, &resolved);

        // The pattern with an IP parameter (the `ip address` lines).
        let pattern = ip_address_pattern(&ds);

        let first = ctx.values_of(config, Some(pattern), 0, &Transform::Id);
        assert_eq!(first.len(), 2, "both ip address lines collected");
        let second = ctx.values_of(config, Some(pattern), 0, &Transform::Id);
        assert!(
            std::rc::Rc::ptr_eq(&first, &second),
            "cache hit must return the same allocation"
        );

        // A different transform is a different cache node.
        let other = ctx.values_of(config, Some(pattern), 0, &Transform::Str);
        assert!(!std::rc::Rc::ptr_eq(&first, &other));
    }

    #[test]
    fn values_of_out_of_domain_is_empty() {
        let ds = toy_dataset();
        let config = &ds.configs[0];
        let resolved = resolve(&empty_set(), &ds);
        let ctx = ConfigContext::new(config, &ds, &resolved);
        let pattern = ip_address_pattern(&ds);

        // Unresolved pattern: nothing to collect.
        assert!(ctx.values_of(config, None, 0, &Transform::Id).is_empty());
        // Parameter index past the line's arity.
        assert!(ctx
            .values_of(config, Some(pattern), 99, &Transform::Id)
            .is_empty());
        // Transform outside the value's domain (hex of an IP address)
        // drops every occurrence.
        assert!(ctx
            .values_of(config, Some(pattern), 0, &Transform::Hex)
            .is_empty());
        // The empty results are memoized too.
        let a = ctx.values_of(config, Some(pattern), 99, &Transform::Id);
        let b = ctx.values_of(config, Some(pattern), 99, &Transform::Id);
        assert!(std::rc::Rc::ptr_eq(&a, &b));
    }
}
