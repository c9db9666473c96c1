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
//! program and per-configuration context, and takes the rows the check
//! pass recorded for the relational and sequence rules, so it re-probes
//! nothing.
//!
//! **Edit-local recheck.** Relational and sequence contracts are
//! line-local: a contract's violations, covered rows and witness tallies
//! in a configuration depend only on the rows of the patterns it names.
//! [`CheckProgram::recheck_config`] takes a configuration's outcome from
//! before an edit and the rows the edit changed ([`RowEdit`]), re-runs
//! only the relational and sequence contracts naming a pattern of those
//! rows, and carries every other one's violation rows, covered rows and
//! tally across, moved by the row shift. The passes over every line
//! (presence, the type/range/ordering line ops, coverage assembly, and
//! the unique table the engine extracts beside the outcome) run in full
//! either way. A full run ([`CheckProgram::run_config`]) is the same
//! code with every pattern touched.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use concord_types::Transform;

use crate::contract::{Contract, ContractSet, RelationKind};
use crate::ir::{ConfigIr, Dataset, PatternId, RowEdit};
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
/// indexes. Checking builds it; coverage reuses its context.
struct ProgramContext<'a> {
    /// Occurrence maps and the transformed-value cache.
    ctx: ConfigContext<'a>,
    config: &'a ConfigIr,
    /// Lazily built witness indexes, one slot per [`IndexSpec`].
    witness: RefCell<Vec<Option<Rc<WitnessIndex>>>>,
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

/// What one relational contract's probes found in a configuration.
#[derive(Debug, Clone, Copy, Default)]
struct RelationalTally {
    /// Antecedent occurrences probed.
    probes: u32,
    /// Probes that found a witness.
    hits: u32,
    /// Occurrences in the witness index probed (0 when none was).
    entries: u32,
}

/// The relational and sequence contracts the run behind a
/// [`ConfigOutcome`] re-ran: every one in a full run, only those naming
/// a pattern the edit touched in an edit-local recheck.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rerun {
    /// Relational contracts re-run.
    pub relational: usize,
    /// Sequence contracts re-run.
    pub sequence: usize,
    /// Antecedent occurrences the re-run relational contracts probed.
    pub probes: u64,
}

/// Everything one configuration contributes to a check run, minus the
/// unique pass (see [`CheckProgram::unique_table`]): the unit of
/// work `check_parallel` fans out — and the unit of caching for the
/// incremental engine, which recomputes outcomes only for edited
/// configurations, and there only the contracts an edit touched.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// Violations found in this configuration, in report order: by line
    /// number (a missing line first), contract index, then row.
    pub violations: Vec<Violation>,
    /// The configuration's coverage.
    pub coverage: ConfigCoverage,
    /// Execution counters (witness indexes / probes).
    pub counters: CheckCounters,
    /// What the run that produced this outcome re-ran.
    pub rerun: Rerun,
    /// The row each violation points at, index-aligned with
    /// `violations` (`u32::MAX` for a missing line).
    rows: Vec<u32>,
    /// The rows relational and sequence contracts cover: relational sole
    /// witnesses and the interior rows of a sequence.
    covers: CoverRows,
    /// One tally per relational contract, in program order.
    relational: Vec<RelationalTally>,
    /// Per-phase wall-clock times (not cacheable — timing only).
    pub(crate) phases: PhaseTimes,
}

impl ConfigOutcome {
    /// Heap bytes this outcome holds: its violations with their strings,
    /// the coverage bits and names, and the per-contract rows and
    /// tallies an edit-local recheck carries. Excludes the outcome
    /// value itself.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let strings: usize = self
            .violations
            .iter()
            .map(|v| {
                v.category.capacity()
                    + v.config.capacity()
                    + v.line.capacity()
                    + v.message.capacity()
            })
            .sum();
        self.violations.capacity() * size_of::<Violation>()
            + strings
            + self.coverage.heap_bytes()
            + self.rows.capacity() * size_of::<u32>()
            + self.covers.heap_bytes()
            + self.relational.capacity() * size_of::<RelationalTally>()
    }
}

/// The rows the sequence and relational contracts cover in one
/// configuration, one contract after another. A contract is named by its
/// position in program order: the sequence contracts, then the relational
/// ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoverRows {
    /// Every contract's rows, end to end.
    rows: Vec<u32>,
    /// For each contract that covers a row, in program order: its
    /// position, and where its rows end in `rows`.
    ends: Vec<(u32, u32)>,
}

impl CoverRows {
    /// Ends the rows of contract `k`: those pushed since the previous
    /// contract's.
    fn close(&mut self, k: usize) {
        let end = u32::try_from(self.rows.len()).expect("covered rows fit u32");
        if self.ends.last().map_or(0, |&(_, end)| end) < end {
            let k = u32::try_from(k).expect("contract count fits u32");
            self.ends.push((k, end));
        }
    }

    /// Appends contract `k`'s rows of `previous`, moved by `edit`, as
    /// contract `k`'s rows.
    fn carry(&mut self, previous: &CoverRows, k: usize, edit: &RowEdit) {
        if let Ok(i) = previous.ends.binary_search_by_key(&k, |&(k, _)| k as usize) {
            let start = i.checked_sub(1).map_or(0, |j| previous.ends[j].1) as usize;
            let rows = &previous.rows[start..previous.ends[i].1 as usize];
            self.rows.extend(rows.iter().map(|&row| edit.moved(row)));
        }
        self.close(k);
    }

    /// Each contract that covers a row, with its rows, in program order.
    pub(crate) fn by_contract(&self) -> impl Iterator<Item = (usize, &[u32])> {
        let mut start = 0;
        self.ends.iter().map(move |&(k, end)| {
            let rows = &self.rows[start..end as usize];
            start = end as usize;
            (k as usize, rows)
        })
    }

    fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + self.ends.capacity() * std::mem::size_of::<(u32, u32)>()
    }
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
    fn new(program: &CheckProgram<'a>, config: &'a ConfigIr) -> Self {
        ProgramContext {
            ctx: ConfigContext::new(config, program.dataset, &program.resolved),
            config,
            witness: RefCell::new(vec![None; program.index_specs.len()]),
        }
    }

    /// Returns the witness index for spec `id`, building it on first use
    /// from the context's (memoized) transformed-value collection.
    fn witness_index(&self, program: &CheckProgram<'_>, id: usize) -> Rc<WitnessIndex> {
        if let Some(built) = &self.witness.borrow()[id] {
            return built.clone();
        }
        let spec = &program.index_specs[id];
        let values = self
            .ctx
            .values_of(self.config, spec.pattern, spec.param, &spec.transform);
        let index = Rc::new(WitnessIndex::build(spec.relation, &values));
        self.witness.borrow_mut()[id] = Some(index.clone());
        index
    }
}

/// What a run found, before it is sorted into a [`ConfigOutcome`]:
/// violations with the row each points at, the rows relational and
/// sequence contracts cover, the relational tallies, and which contracts
/// an edit-local recheck skipped.
struct Found {
    violations: Vec<(u32, Violation)>,
    covers: CoverRows,
    relational: Vec<RelationalTally>,
    rerun: Rerun,
    /// Per contract index: skipped, its findings to be carried.
    skipped: Vec<bool>,
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
    /// unit). The same code as [`CheckProgram::recheck_config`] with
    /// every pattern touched.
    ///
    /// The outcome depends only on the configuration's lines and this
    /// program's contract resolution
    /// ([`CheckProgram::resolution_fingerprint`]) — not on any other
    /// configuration — which is what makes per-configuration caching
    /// sound.
    pub fn run_config(&self, config: &ConfigIr) -> ConfigOutcome {
        self.recheck_config(config, None)
    }

    /// Runs `config`, given its outcome under this program from before
    /// an edit and the rows that edit changed (`None` runs it in full).
    ///
    /// Only the relational and sequence contracts naming a pattern the
    /// edit touched are re-run. Every other one reads only rows outside
    /// the changed ones, which kept their pattern, parameters and text,
    /// so its violations, covered rows and tally are the previous ones
    /// moved by the row shift; each carried violation re-reads its line
    /// number from its moved row (metadata rows keep their file's
    /// numbers). Presence, the line ops and coverage assembly run in
    /// full. The outcome equals [`CheckProgram::run_config`]'s.
    ///
    /// `previous` must come from a program of the same contract set and
    /// resolution, over the configuration as it was before the edit.
    pub fn recheck_config(
        &self,
        config: &ConfigIr,
        previous: Option<(&ConfigOutcome, &RowEdit)>,
    ) -> ConfigOutcome {
        let pctx = ProgramContext::new(self, config);
        let (mut found, mut phases) = self.run_checks(config, &pctx, previous);
        if let Some((outcome, edit)) = previous {
            self.carry(config, outcome, edit, &mut found);
        }
        let Found {
            mut violations,
            mut covers,
            relational,
            rerun,
            ..
        } = found;
        // The outcome keeps the covered rows for the next recheck to
        // carry: drop the growth slack.
        covers.shrink_to_fit();
        violations.sort_unstable_by_key(|(row, v)| (v.line_no, v.contract_index, *row));
        let (rows, violations) = violations.into_iter().unzip();
        let t = Instant::now();
        let coverage = coverage::config_coverage(self, config, &pctx.ctx, &covers);
        phases.coverage = t.elapsed();
        ConfigOutcome {
            violations,
            coverage,
            counters: self.counters(&relational),
            rerun,
            rows,
            covers,
            relational,
            phases,
        }
    }

    /// Moves into `found` the violations `previous` holds for the
    /// relational and sequence contracts `found` skipped, with line
    /// numbers re-read from the moved rows. Their covered rows and
    /// tallies were carried as the contracts were skipped.
    fn carry(
        &self,
        config: &ConfigIr,
        previous: &ConfigOutcome,
        edit: &RowEdit,
        found: &mut Found,
    ) {
        for (v, &row) in previous.violations.iter().zip(&previous.rows) {
            if found.skipped[v.contract_index] {
                let row = edit.moved(row);
                let mut v = v.clone();
                v.line_no = Some(config.line_no(row as usize));
                found.violations.push((row, v));
            }
        }
    }

    /// The index of the contract at position `k` of [`CoverRows`]'s
    /// program order: the sequence contracts, then the relational ones.
    pub(crate) fn covering_contract(&self, k: usize) -> usize {
        match k.checked_sub(self.sequence.len()) {
            Some(r) => self.relational[r].idx,
            None => self.sequence[k].0,
        }
    }

    /// The configuration's witness counters from its relational tallies:
    /// an index counts once, when some contract probed it.
    fn counters(&self, tallies: &[RelationalTally]) -> CheckCounters {
        let mut built = vec![false; self.index_specs.len()];
        let mut counters = CheckCounters::default();
        for (compiled, tally) in self.relational.iter().zip(tallies) {
            counters.probes += u64::from(tally.probes);
            counters.probe_hits += u64::from(tally.hits);
            if tally.probes > 0 && !std::mem::replace(&mut built[compiled.index_id], true) {
                counters.indexes_built += 1;
                counters.index_entries += u64::from(tally.entries);
            }
        }
        counters
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

    /// Runs the per-configuration checks (everything except the global
    /// unique pass and coverage assembly): every presence check and line
    /// op, and the relational and sequence contracts an edit touched (all
    /// of them without `previous`). A skipped relational contract keeps
    /// its previous tally.
    fn run_checks(
        &self,
        config: &ConfigIr,
        pctx: &ProgramContext<'_>,
        previous: Option<(&ConfigOutcome, &RowEdit)>,
    ) -> (Found, PhaseTimes) {
        let edit = previous.map(|(_, edit)| edit);
        let mut out = Vec::new();
        let mut covers = CoverRows::default();
        let mut rerun = Rerun::default();
        let mut skipped = vec![false; self.contracts.contracts.len()];
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
                out.push((
                    u32::MAX,
                    Violation {
                        contract_index: idx,
                        category: self.contracts.contracts[idx].category().to_string(),
                        config: config_name.to_string(),
                        line_no: None,
                        line: pattern.clone(),
                        message: format!("missing required line matching {pattern}"),
                    },
                ));
            }
        }
        for &idx in &self.present_exact {
            let Contract::PresentExact { line } = &self.contracts.contracts[idx] else {
                unreachable!("present-exact op on non-exact contract")
            };
            if !ctx.filled_lines.contains(line) {
                out.push((
                    u32::MAX,
                    Violation {
                        contract_index: idx,
                        category: self.contracts.contracts[idx].category().to_string(),
                        config: config_name.to_string(),
                        line_no: None,
                        line: line.clone(),
                        message: format!("missing required exact line {line:?}"),
                    },
                ));
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
                                out.push((
                                    li as u32,
                                    Violation {
                                        contract_index: idx,
                                        category: self.contracts.contracts[idx]
                                            .category()
                                            .to_string(),
                                        config: config_name.to_string(),
                                        line_no: Some(line.line_no),
                                        line: line.original.to_string(),
                                        message: format!(
                                            "type [{}] is not allowed at hole {hole} of {pattern}",
                                            param.ty.name()
                                        ),
                                    },
                                ));
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
                                out.push((li as u32, Violation {
                                    contract_index: idx,
                                    category: self.contracts.contracts[idx].category().to_string(),
                                    config: config_name.to_string(),
                                    line_no: Some(line.line_no),
                                    line: line.original.to_string(),
                                    message: format!(
                                        "value {n} of param {param} of {pattern} is outside [{min}, {max}]"
                                    ),
                                }));
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
                                out.push((li as u32, Violation {
                                    contract_index: idx,
                                    category: self.contracts.contracts[idx].category().to_string(),
                                    config: config_name.to_string(),
                                    line_no: Some(line.line_no),
                                    line: line.original.to_string(),
                                    message: format!(
                                        "line matching {first} must be immediately followed by a line matching {second_text}"
                                    ),
                                }));
                            }
                        }
                    }
                }
            }
        }
        phases.pattern = t.elapsed();

        // Sequences: per contract, over the node's memoized values. The
        // coverage rule rides along: the interior rows of a valid
        // progression of length >= 4 are covered.
        let t = Instant::now();
        for (k, &(idx, id)) in self.sequence.iter().enumerate() {
            if !touches(edit, id) {
                let (previous, edit) = previous.expect("a full run touches every pattern");
                skipped[idx] = true;
                covers.carry(&previous.covers, k, edit);
                continue;
            }
            rerun.sequence += 1;
            let Contract::Sequence { pattern, param } = &self.contracts.contracts[idx] else {
                unreachable!("sequence op on non-sequence contract")
            };
            let values = ctx.values_of(config, id, *param, &Transform::Id);
            let nums: Vec<&concord_types::BigNum> =
                values.iter().filter_map(|(v, _)| v.as_num()).collect();
            let sequential = sequence_is_sequential(&nums);
            if nums.len() >= 4 && sequential {
                for (_, li) in &values[1..values.len() - 1] {
                    covers.rows.push(*li as u32);
                }
            }
            if nums.len() >= 2 && !sequential {
                let step = nums[1].abs_diff(nums[0]);
                let break_at = nums
                    .windows(2)
                    .position(|w| w[1] <= w[0] || w[1].abs_diff(w[0]) != step)
                    .map(|i| i + 1)
                    .unwrap_or(1);
                let li = values[break_at].1;
                let line = config.line(arenas, li);
                out.push((
                    li as u32,
                    Violation {
                        contract_index: idx,
                        category: self.contracts.contracts[idx].category().to_string(),
                        config: config_name.to_string(),
                        line_no: Some(line.line_no),
                        line: line.original.to_string(),
                        message: format!(
                            "values of param {param} of {pattern} are not equidistant"
                        ),
                    },
                ));
            }
            covers.close(k);
        }
        phases.sequence = t.elapsed();

        // Relational: indexed antecedent probes. Each fused probe also
        // resolves the coverage rule (a sole witness on a distinct line
        // covers that line).
        let t = Instant::now();
        let mut relational = Vec::with_capacity(self.relational.len());
        for (k, compiled) in self.relational.iter().enumerate() {
            let consequent = self.index_specs[compiled.index_id].pattern;
            if !touches(edit, compiled.antecedent) && !touches(edit, consequent) {
                let (previous, edit) = previous.expect("a full run touches every pattern");
                skipped[compiled.idx] = true;
                relational.push(previous.relational[k]);
                covers.carry(&previous.covers, self.sequence.len() + k, edit);
                continue;
            }
            rerun.relational += 1;
            let mut tally = RelationalTally::default();
            let Contract::Relational(r) = &self.contracts.contracts[compiled.idx] else {
                unreachable!("relational op on non-relational contract")
            };
            let antecedents = ctx.values_of(
                config,
                compiled.antecedent,
                r.antecedent.param,
                &r.antecedent.transform,
            );
            if !antecedents.is_empty() {
                let index = pctx.witness_index(self, compiled.index_id);
                tally.entries = index.len() as u32;
                for (v1, li) in antecedents.iter() {
                    tally.probes += 1;
                    match index.probe(v1) {
                        WitnessProbe::Zero => {
                            let line = config.line(arenas, *li);
                            out.push((
                                *li as u32,
                                Violation {
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
                                },
                            ));
                        }
                        WitnessProbe::One(w) => {
                            tally.hits += 1;
                            if w as usize != *li {
                                covers.rows.push(w);
                            }
                        }
                        WitnessProbe::Many => tally.hits += 1,
                    }
                }
            }
            rerun.probes += u64::from(tally.probes);
            relational.push(tally);
            covers.close(self.sequence.len() + k);
        }
        phases.relational = t.elapsed();

        let found = Found {
            violations: out,
            covers,
            relational,
            rerun,
            skipped,
        };
        (found, phases)
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

/// Whether a contract reading pattern `id` re-runs after `edit`: always
/// in a full run (no edit), otherwise when a changed row carries `id`. An
/// unresolved pattern reads no rows.
fn touches(edit: Option<&RowEdit>, id: Option<PatternId>) -> bool {
    match edit {
        None => true,
        Some(edit) => id.is_some_and(|id| edit.touches(id)),
    }
}
