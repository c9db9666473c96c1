//! The compiled check engine.
//!
//! [`CheckProgram::compile`] turns a `ContractSet` + `Dataset` into an
//! executable program, once; [`CheckProgram::run_config`] then runs it
//! against each configuration. Compilation inverts the naive
//! contracts × lines loop:
//!
//! - **pattern dispatch**: type, range, and ordering checks are grouped
//!   by the dataset [`PatternId`] they apply to, so one pass over a
//!   configuration's lines visits, per line, only the contracts that can
//!   fire on it (the naive engine scans every line once *per type
//!   contract*);
//! - **indexed witnesses**: each relational contract's consequent node is
//!   compiled to a [`WitnessIndex`] spec — deduplicated across contracts
//!   sharing the node — and built lazily per configuration, turning every
//!   antecedent probe from O(consequents) into O(1)/O(log) with one fused
//!   query that answers checking ("any witness?") and coverage ("the sole
//!   witness?") in a single index walk;
//! - **single-pass uniques**: unique contracts are grouped by pattern id,
//!   so one pass over a configuration's pattern column extracts its
//!   [`UniqueTable`] for every unique contract at once; the tables meet
//!   in a [`UniqueIndex`] ([`CheckProgram::check_unique`]).
//!
//! Coverage ([`coverage::config_coverage`]) executes against the same
//! program and per-configuration context, so checking and coverage share
//! the transformed-value cache and the witness indexes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use concord_types::Transform;

use crate::contract::{Contract, ContractSet, RelationKind};
use crate::ir::{ConfigIr, Dataset, PatternId};
use crate::learn::indexes::TransformTag;
use crate::learn::sequence_is_sequential;

use super::coverage::{self, ConfigCoverage};
use super::unique::{UniqueIndex, UniqueTable};
use super::witness::{WitnessIndex, WitnessProbe};
use super::{ConfigContext, Resolved, ResolvedContract, Violation};

/// A check dispatched per line by the line's pattern id.
#[derive(Debug, Clone, Copy)]
enum LineOp {
    /// A `Type` contract whose agnostic pattern set contains this id.
    Type { idx: usize },
    /// A `Range` contract on this pattern.
    Range { idx: usize },
    /// An `Ordering` contract whose `first` pattern is this id; the
    /// resolved `second` id rides along (`None` when `second` never
    /// occurs in the dataset — every instance then violates).
    Ordering {
        idx: usize,
        second: Option<PatternId>,
    },
}

/// One compiled relational contract: the antecedent probe node plus the
/// id of the (shared) witness index over its consequent node.
#[derive(Debug, Clone)]
struct CompiledRelational {
    /// Contract index in the checked set.
    idx: usize,
    /// Resolved antecedent pattern id.
    antecedent: Option<PatternId>,
    /// Index into [`CheckProgram::index_specs`].
    index_id: usize,
}

/// The consequent node + relation a [`WitnessIndex`] is built over.
/// Deduplicated: contracts sharing `(pattern, param, transform,
/// relation)` share one index per configuration.
#[derive(Debug, Clone)]
struct IndexSpec {
    relation: RelationKind,
    pattern: Option<PatternId>,
    param: u16,
    transform: Transform,
}

/// A contract set compiled against one dataset's pattern table.
///
/// Compile once, execute per configuration — the shape of the
/// deployment story where contracts are long-lived and every config
/// change is checked on commit.
pub struct CheckProgram<'c> {
    pub(crate) contracts: &'c ContractSet,
    pub(crate) resolved: Resolved,
    pub(crate) dataset: &'c Dataset,
    /// `Present` contracts: `(idx, resolved pattern id)`.
    pub(crate) present: Vec<(usize, Option<PatternId>)>,
    /// `PresentExact` contracts.
    pub(crate) present_exact: Vec<usize>,
    /// Per-pattern dispatched line checks (type / range / ordering).
    line_ops: HashMap<PatternId, Vec<LineOp>>,
    /// `Ordering` contracts (for coverage): `(idx, first, second)`.
    pub(crate) ordering: Vec<(usize, PatternId, Option<PatternId>)>,
    /// `Sequence` contracts: `(idx, resolved pattern id)`.
    pub(crate) sequence: Vec<(usize, Option<PatternId>)>,
    /// Resolved `Unique` contracts: `(idx, pattern id)`.
    pub(crate) unique: Vec<(usize, PatternId)>,
    /// Unique contract indices grouped by pattern id (single-pass check).
    unique_ops: HashMap<PatternId, Vec<usize>>,
    /// Compiled relational contracts.
    relational: Vec<CompiledRelational>,
    /// Deduplicated witness-index specs.
    index_specs: Vec<IndexSpec>,
    /// Wall-clock time spent compiling.
    pub compile_time: Duration,
}

/// Per-configuration execution state: the shared [`ConfigContext`]
/// (occurrence maps + transformed-value cache) plus lazily built witness
/// indexes and probe counters. Checking builds it; coverage reuses it.
pub(crate) struct ProgramContext<'a> {
    /// Occurrence maps and the transformed-value cache.
    pub ctx: ConfigContext<'a>,
    config: &'a ConfigIr,
    /// Lazily built witness indexes, one slot per [`IndexSpec`].
    witness: RefCell<Vec<Option<Rc<WitnessIndex>>>>,
    /// Sole-witness lines recorded by the check pass's fused probes:
    /// `(contract index, consequent line index)`. Coverage consumes this
    /// instead of re-probing every antecedent.
    relational_cover: RefCell<Vec<(usize, u32)>>,
    /// Stats counters (witness probes and index sizes).
    pub counters: ExecCounters,
}

/// Per-configuration execution counters, aggregated into
/// [`CheckStats`](crate::CheckStats).
#[derive(Debug, Default)]
pub(crate) struct ExecCounters {
    /// Witness indexes actually built (lazy: unprobed specs cost nothing).
    pub indexes_built: Cell<u64>,
    /// Total consequent occurrences indexed.
    pub index_entries: Cell<u64>,
    /// Antecedent probes issued.
    pub probes: Cell<u64>,
    /// Probes that found a witness (non-violations).
    pub probe_hits: Cell<u64>,
}

impl ExecCounters {
    /// The plain (cacheable) snapshot of these counters.
    fn snapshot(&self) -> CheckCounters {
        CheckCounters {
            indexes_built: self.indexes_built.get(),
            index_entries: self.index_entries.get(),
            probes: self.probes.get(),
            probe_hits: self.probe_hits.get(),
        }
    }
}

/// Execution counters of one configuration's check run, in plain
/// cloneable form. Deterministic for a given configuration and compiled
/// program, so the incremental engine caches them alongside violations
/// and coverage and replays them into aggregate
/// [`CheckStats`](crate::CheckStats) without re-running the
/// configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Witness indexes built for this configuration.
    pub indexes_built: u64,
    /// Total consequent occurrences indexed.
    pub index_entries: u64,
    /// Relational antecedent probes issued.
    pub probes: u64,
    /// Probes that found a witness (non-violations).
    pub probe_hits: u64,
}

impl CheckCounters {
    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &CheckCounters) {
        self.indexes_built += other.indexes_built;
        self.index_entries += other.index_entries;
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
    }
}

/// Everything one configuration contributes to a check run, minus the
/// unique pass (see [`CheckProgram::unique_table`]): the unit of
/// work `check_parallel` fans out — and the unit of caching for the
/// incremental engine, which recomputes outcomes only for edited
/// configurations.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// Violations found in this configuration, in report order: by line
    /// number (a missing line first), then contract index. Ties keep
    /// emission order.
    pub violations: Vec<Violation>,
    /// The configuration's coverage.
    pub coverage: ConfigCoverage,
    /// Execution counters (witness indexes / probes).
    pub counters: CheckCounters,
    /// Per-phase wall-clock times (not cacheable — timing only).
    pub(crate) phases: PhaseTimes,
}

/// Wall-clock time per check phase for one configuration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseTimes {
    pub present: Duration,
    pub pattern: Duration,
    pub sequence: Duration,
    pub relational: Duration,
    pub coverage: Duration,
}

impl<'a> ProgramContext<'a> {
    pub(crate) fn new(program: &CheckProgram<'a>, config: &'a ConfigIr) -> Self {
        ProgramContext {
            ctx: ConfigContext::new(config, program.dataset, &program.resolved),
            config,
            witness: RefCell::new(vec![None; program.index_specs.len()]),
            relational_cover: RefCell::new(Vec::new()),
            counters: ExecCounters::default(),
        }
    }

    /// The `(contract index, consequent line)` pairs where the check
    /// pass found exactly one witness covering a distinct line.
    pub(crate) fn take_relational_cover(&self) -> Vec<(usize, u32)> {
        std::mem::take(&mut self.relational_cover.borrow_mut())
    }

    /// Returns the witness index for spec `id`, building it on first use
    /// from the context's (memoized) transformed-value collection.
    pub(crate) fn witness_index(&self, program: &CheckProgram<'_>, id: usize) -> Rc<WitnessIndex> {
        if let Some(built) = &self.witness.borrow()[id] {
            return built.clone();
        }
        let spec = &program.index_specs[id];
        let values = self
            .ctx
            .values_of(self.config, spec.pattern, spec.param, &spec.transform);
        let index = Rc::new(WitnessIndex::build(spec.relation, &values));
        self.counters
            .indexes_built
            .set(self.counters.indexes_built.get() + 1);
        self.counters
            .index_entries
            .set(self.counters.index_entries.get() + index.len() as u64);
        self.witness.borrow_mut()[id] = Some(index.clone());
        index
    }
}

impl<'c> CheckProgram<'c> {
    /// Compiles `contracts` against `dataset`'s pattern table.
    pub fn compile(contracts: &'c ContractSet, dataset: &'c Dataset) -> Self {
        let start = Instant::now();
        let resolved = super::resolve(contracts, dataset);

        let mut present = Vec::new();
        let mut present_exact = Vec::new();
        let mut line_ops: HashMap<PatternId, Vec<LineOp>> = HashMap::new();
        let mut ordering = Vec::new();
        let mut sequence = Vec::new();
        let mut unique = Vec::new();
        let mut unique_ops: HashMap<PatternId, Vec<usize>> = HashMap::new();
        let mut relational = Vec::new();
        let mut index_specs: Vec<IndexSpec> = Vec::new();
        let mut index_ids: HashMap<(Option<PatternId>, u16, TransformTag, RelationKind), usize> =
            HashMap::new();

        for (idx, (contract, rc)) in contracts
            .contracts
            .iter()
            .zip(&resolved.by_contract)
            .enumerate()
        {
            match (contract, rc) {
                (Contract::Present { .. }, ResolvedContract::Present(id)) => {
                    present.push((idx, *id));
                }
                (Contract::PresentExact { .. }, ResolvedContract::PresentExact) => {
                    present_exact.push(idx);
                }
                (Contract::Ordering { .. }, ResolvedContract::Ordering(f, s)) => {
                    if let Some(f) = f {
                        line_ops
                            .entry(*f)
                            .or_default()
                            .push(LineOp::Ordering { idx, second: *s });
                        ordering.push((idx, *f, *s));
                    }
                }
                (Contract::Type { .. }, ResolvedContract::Type(ids)) => {
                    for id in ids {
                        line_ops.entry(*id).or_default().push(LineOp::Type { idx });
                    }
                }
                (Contract::Sequence { .. }, ResolvedContract::Sequence(id)) => {
                    sequence.push((idx, *id));
                }
                (Contract::Unique { .. }, ResolvedContract::Unique(id)) => {
                    if let Some(id) = id {
                        unique.push((idx, *id));
                        unique_ops.entry(*id).or_default().push(idx);
                    }
                }
                (Contract::Range { .. }, ResolvedContract::Range(id)) => {
                    if let Some(id) = id {
                        line_ops.entry(*id).or_default().push(LineOp::Range { idx });
                    }
                }
                (Contract::Relational(r), ResolvedContract::Relational(a, c)) => {
                    let key = (
                        *c,
                        r.consequent.param,
                        TransformTag::from_transform(&r.consequent.transform),
                        r.relation,
                    );
                    let index_id = *index_ids.entry(key).or_insert_with(|| {
                        index_specs.push(IndexSpec {
                            relation: r.relation,
                            pattern: *c,
                            param: r.consequent.param,
                            transform: r.consequent.transform.clone(),
                        });
                        index_specs.len() - 1
                    });
                    relational.push(CompiledRelational {
                        idx,
                        antecedent: *a,
                        index_id,
                    });
                }
                _ => unreachable!("resolved variant mismatch"),
            }
        }

        // Per-pattern op lists are probed per line: keep each list in
        // contract order so violation emission order matches the naive
        // engine's (stable sort ties on identical keys).
        CheckProgram {
            contracts,
            resolved,
            dataset,
            present,
            present_exact,
            line_ops,
            ordering,
            sequence,
            unique,
            unique_ops,
            relational,
            index_specs,
            compile_time: start.elapsed(),
        }
    }

    /// Full per-configuration execution returning the configuration's
    /// [`ConfigOutcome`]: violations, coverage, and counters (the
    /// `check_parallel` work item, and the incremental engine's cached
    /// unit).
    ///
    /// The outcome depends only on the configuration's lines and this
    /// program's contract resolution
    /// ([`CheckProgram::resolution_fingerprint`]) — not on any other
    /// configuration — which is what makes per-configuration caching
    /// sound.
    pub fn run_config(&self, config: &ConfigIr) -> ConfigOutcome {
        let pctx = ProgramContext::new(self, config);
        let (mut violations, mut phases) = self.run_checks(config, &pctx);
        violations.sort_by_key(|v| (v.line_no, v.contract_index));
        let t = Instant::now();
        let coverage = coverage::config_coverage(self, config, &pctx);
        phases.coverage = t.elapsed();
        ConfigOutcome {
            violations,
            coverage,
            counters: pctx.counters.snapshot(),
            phases,
        }
    }

    /// A stable fingerprint of this program's contract resolution: how
    /// every contract pattern resolved against the dataset's interner
    /// (including type-agnostic pattern sets).
    ///
    /// Per-configuration outcomes ([`CheckProgram::run_config`]) and
    /// unique tables ([`CheckProgram::unique_table`]) are functions of
    /// `(configuration lines, resolution)` alone, so a cached result is
    /// valid exactly as long as this fingerprint is unchanged. Editing a
    /// dataset only grows the interner; the fingerprint moves only when a
    /// new pattern makes a previously unresolved contract resolve (or
    /// joins a type-agnostic set), at which point every cached outcome
    /// must be recomputed.
    pub fn resolution_fingerprint(&self) -> u64 {
        let mut h = crate::fxhash::FxHasher::default();
        for rc in &self.resolved.by_contract {
            match rc {
                super::ResolvedContract::Present(id) => {
                    0u8.hash(&mut h);
                    id.hash(&mut h);
                }
                super::ResolvedContract::PresentExact => 1u8.hash(&mut h),
                super::ResolvedContract::Ordering(a, b) => {
                    2u8.hash(&mut h);
                    a.hash(&mut h);
                    b.hash(&mut h);
                }
                super::ResolvedContract::Type(ids) => {
                    3u8.hash(&mut h);
                    let mut sorted: Vec<PatternId> = ids.iter().copied().collect();
                    sorted.sort_unstable();
                    sorted.hash(&mut h);
                }
                super::ResolvedContract::Sequence(id) => {
                    4u8.hash(&mut h);
                    id.hash(&mut h);
                }
                super::ResolvedContract::Unique(id) => {
                    5u8.hash(&mut h);
                    id.hash(&mut h);
                }
                super::ResolvedContract::Range(id) => {
                    6u8.hash(&mut h);
                    id.hash(&mut h);
                }
                super::ResolvedContract::Relational(a, c) => {
                    7u8.hash(&mut h);
                    a.hash(&mut h);
                    c.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Runs all per-configuration checks (everything except the global
    /// unique pass and coverage).
    fn run_checks(
        &self,
        config: &ConfigIr,
        pctx: &ProgramContext<'_>,
    ) -> (Vec<Violation>, PhaseTimes) {
        let mut out = Vec::new();
        let mut phases = PhaseTimes::default();
        let ctx = &pctx.ctx;
        let arenas = &self.dataset.arenas;
        let config_name = self.dataset.name_of(config);

        // Presence: O(1) per contract.
        let t = Instant::now();
        for &(idx, id) in &self.present {
            let present = id
                .map(|id| ctx.lines_by_pattern.contains_key(&id))
                .unwrap_or(false);
            if !present {
                let Contract::Present { pattern } = &self.contracts.contracts[idx] else {
                    unreachable!("present op on non-present contract")
                };
                out.push(Violation {
                    contract_index: idx,
                    category: self.contracts.contracts[idx].category().to_string(),
                    config: config_name.to_string(),
                    line_no: None,
                    line: pattern.clone(),
                    message: format!("missing required line matching {pattern}"),
                });
            }
        }
        for &idx in &self.present_exact {
            let Contract::PresentExact { line } = &self.contracts.contracts[idx] else {
                unreachable!("present-exact op on non-exact contract")
            };
            if !ctx.filled_lines.contains(line) {
                out.push(Violation {
                    contract_index: idx,
                    category: self.contracts.contracts[idx].category().to_string(),
                    config: config_name.to_string(),
                    line_no: None,
                    line: line.clone(),
                    message: format!("missing required exact line {line:?}"),
                });
            }
        }
        phases.present = t.elapsed();

        // Pattern-dispatched line checks: one pass over the pattern
        // column; a line is materialized only when an op fires on its id.
        let t = Instant::now();
        if !self.line_ops.is_empty() {
            for li in 0..config.len() {
                let Some(ops) = self.line_ops.get(&config.pattern(li)) else {
                    continue;
                };
                let line = config.line(arenas, li);
                for op in ops {
                    match *op {
                        LineOp::Type { idx } => {
                            let Contract::Type {
                                pattern,
                                hole,
                                valid,
                            } = &self.contracts.contracts[idx]
                            else {
                                unreachable!("type op on non-type contract")
                            };
                            let Some(param) = line.params.get(usize::from(*hole)) else {
                                continue;
                            };
                            if !valid.contains(&param.ty) {
                                out.push(Violation {
                                    contract_index: idx,
                                    category: self.contracts.contracts[idx].category().to_string(),
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
                        LineOp::Range { idx } => {
                            let Contract::Range {
                                pattern,
                                param,
                                min,
                                max,
                            } = &self.contracts.contracts[idx]
                            else {
                                unreachable!("range op on non-range contract")
                            };
                            let Some(p) = line.params.get(usize::from(*param)) else {
                                continue;
                            };
                            let Some(n) = p.value.as_num() else { continue };
                            if n < min || n > max {
                                out.push(Violation {
                                    contract_index: idx,
                                    category: self.contracts.contracts[idx].category().to_string(),
                                    config: config_name.to_string(),
                                    line_no: Some(line.line_no),
                                    line: line.original.to_string(),
                                    message: format!(
                                        "value {n} of param {param} of {pattern} is outside [{min}, {max}]"
                                    ),
                                });
                            }
                        }
                        LineOp::Ordering { idx, second } => {
                            let Contract::Ordering {
                                first,
                                second: second_text,
                            } = &self.contracts.contracts[idx]
                            else {
                                unreachable!("ordering op on non-ordering contract")
                            };
                            let ok = match second {
                                Some(s) if li + 1 < config.len() => {
                                    config.pattern(li + 1) == s
                                        && config.is_meta(li + 1) == line.is_meta
                                }
                                _ => false,
                            };
                            if !ok {
                                out.push(Violation {
                                    contract_index: idx,
                                    category: self.contracts.contracts[idx].category().to_string(),
                                    config: config_name.to_string(),
                                    line_no: Some(line.line_no),
                                    line: line.original.to_string(),
                                    message: format!(
                                        "line matching {first} must be immediately followed by a line matching {second_text}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        phases.pattern = t.elapsed();

        // Sequences: per contract, over the node's memoized values.
        let t = Instant::now();
        for &(idx, id) in &self.sequence {
            let Contract::Sequence { pattern, param } = &self.contracts.contracts[idx] else {
                unreachable!("sequence op on non-sequence contract")
            };
            let values = ctx.values_of(config, id, *param, &Transform::Id);
            let nums: Vec<&concord_types::BigNum> =
                values.iter().filter_map(|(v, _)| v.as_num()).collect();
            if nums.len() >= 2 && !sequence_is_sequential(&nums) {
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
                    category: self.contracts.contracts[idx].category().to_string(),
                    config: config_name.to_string(),
                    line_no: Some(line.line_no),
                    line: line.original.to_string(),
                    message: format!("values of param {param} of {pattern} are not equidistant"),
                });
            }
        }
        phases.sequence = t.elapsed();

        // Relational: indexed antecedent probes. Each fused probe also
        // resolves the coverage rule (a sole witness on a distinct line
        // covers that line), stashed for `config_coverage` to consume.
        let t = Instant::now();
        for compiled in &self.relational {
            let Contract::Relational(r) = &self.contracts.contracts[compiled.idx] else {
                unreachable!("relational op on non-relational contract")
            };
            let antecedents = ctx.values_of(
                config,
                compiled.antecedent,
                r.antecedent.param,
                &r.antecedent.transform,
            );
            if antecedents.is_empty() {
                continue;
            }
            let index = pctx.witness_index(self, compiled.index_id);
            let mut cover = pctx.relational_cover.borrow_mut();
            let mut probes = 0u64;
            let mut hits = 0u64;
            for (v1, li) in antecedents.iter() {
                probes += 1;
                match index.probe(v1) {
                    WitnessProbe::Zero => {
                        let line = config.line(arenas, *li);
                        out.push(Violation {
                            contract_index: compiled.idx,
                            category: self.contracts.contracts[compiled.idx]
                                .category()
                                .to_string(),
                            config: config_name.to_string(),
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
                    WitnessProbe::One(w) => {
                        hits += 1;
                        if w as usize != *li {
                            cover.push((compiled.idx, w));
                        }
                    }
                    WitnessProbe::Many => hits += 1,
                }
            }
            pctx.counters
                .probes
                .set(pctx.counters.probes.get() + probes);
            pctx.counters
                .probe_hits
                .set(pctx.counters.probe_hits.get() + hits);
        }
        phases.relational = t.elapsed();

        (out, phases)
    }

    /// Extracts one configuration's [`UniqueTable`]: every event the
    /// configuration contributes to the unique pass, in line order. Like
    /// [`CheckProgram::run_config`], the table depends only on the
    /// configuration's lines and the contract resolution, so the
    /// incremental engine re-extracts it only after an edit.
    pub fn unique_table(&self, config: &ConfigIr) -> UniqueTable {
        let mut table = UniqueTable::default();
        if self.unique.is_empty() {
            return table;
        }
        for li in 0..config.len() {
            let Some(ops) = self.unique_ops.get(&config.pattern(li)) else {
                continue;
            };
            let line = config.line(&self.dataset.arenas, li);
            for &idx in ops {
                let Contract::Unique { param, .. } = &self.contracts.contracts[idx] else {
                    unreachable!("unique op on non-unique contract")
                };
                let rendered = line
                    .params
                    .get(usize::from(*param))
                    .map(|p| p.value.render());
                table.push(idx, line.line_no, line.original, rendered);
            }
        }
        table
    }

    /// An empty [`UniqueIndex`] over the unique contracts that resolved
    /// against this program's dataset.
    pub fn unique_index(&self) -> UniqueIndex {
        UniqueIndex::new(self.contracts, self.unique.iter().map(|&(idx, _)| idx))
    }

    /// Checks all unique contracts over the dataset: every
    /// configuration's table goes into one index, ranked by dataset
    /// position, which then lists its violations.
    pub(crate) fn check_unique(&self, dataset: &Dataset) -> Vec<Violation> {
        if self.unique.is_empty() {
            return Vec::new();
        }
        let mut index = self.unique_index();
        for (rank, config) in dataset.configs.iter().enumerate() {
            index.insert_ranked(rank, dataset.name_of(config), self.unique_table(config));
        }
        index
            .violations(self.contracts)
            .into_iter()
            .map(|row| row.violation)
            .collect()
    }
}
