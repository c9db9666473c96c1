#![warn(missing_docs)]

//! The resident incremental engine (§3.7's interactive workflow).
//!
//! The batch pipeline rebuilds everything from scratch on every run:
//! re-lex the corpus, re-learn or re-load contracts, re-check every
//! configuration. That is the right shape for CI, but an interactive
//! session — an operator editing one device config at a time, a language
//! server, the CLI's `serve` mode — touches one file per event and wants
//! an answer proportional to the edit, not the corpus.
//!
//! [`Engine`] owns a versioned snapshot of the whole pipeline state:
//!
//! * a mutable [`Dataset`] with a stable [`ConfigId`] and a generation
//!   counter per configuration, plus each configuration's current text
//!   (shared with the [`EngineImage`], not copied) — edits go through
//!   [`Engine::upsert_config`] / [`Engine::remove_config`]; an upsert
//!   diffs the new text against the held one and re-lexes only the lines
//!   the edit can change, through a persistent [`LexCache`];
//! * the current [`ContractSet`] (learned in-engine or loaded), with an
//!   epoch counter bumped on every swap;
//! * cached per-configuration check outcomes keyed by the contract set
//!   they were checked under and its resolution fingerprint, so
//!   [`Engine::check_dirty`] re-runs checks only for configurations
//!   edited since the last call and patches the rest in from the cache.
//!   An edited configuration keeps its previous outcome with the rows
//!   the splice changed, and its recheck re-runs only the relational and
//!   sequence contracts reading those rows' patterns
//!   ([`CheckProgram::recheck_config`]). A swap to an equal set — the
//!   common relearn of a stable fleet — keeps the cache; a swap to a
//!   different set drops it.
//!
//! The output contract is strict: `check_dirty` is **byte-identical** to
//! compiling and running the batch checker over the current snapshot
//! (`concord-bench`'s `engine_equivalence` oracle drives random edit
//! sequences against exactly that). The caching is sound because a
//! configuration's outcome depends only on its own lines and on how the
//! contract patterns resolved against the interner
//! ([`CheckProgram::resolution_fingerprint`]). The one cross-configuration
//! pass (unique contracts) keeps its state resident in a [`UniqueIndex`]:
//! a check after an edit swaps in only the edited configurations' unique
//! values, and the index lists the pass's violations in time
//! proportional to them.
//!
//! Learning is incremental too: [`Engine::relearn`] re-sketches only
//! the configurations edited since their sketch was mined and folds
//! every cached per-configuration sketch into the contract set, the
//! same fold a batch learn runs, so the result is byte-identical to a
//! full learn. The engine also tracks *staleness* — the fraction of
//! lines churned since the last learn — and [`Engine::relearn_if_stale`]
//! runs that delta relearn once the drift crosses a threshold.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use concord_core::{
    learn_with_stats, parallel, sketch_params_fingerprint, CheckProgram, CheckReport, CheckStats,
    ConfigOutcome, ConfigSketch, ContractSet, CoverageReport, Dataset, DatasetError,
    EngineCheckStats, EngineStats, Fold, LearnDeltaStats, LearnParams, LearnStats, LexCacheStats,
    MemoryStats, RowEdit, UniqueIndex, UniqueTable, Upserted, SKETCH_FORMAT_VERSION,
};
use concord_json::{push_number, push_string, Json};
use concord_lexer::{LexCache, Lexer};

pub mod fault;
mod fleet;
mod image;
mod resilient;
mod router;
mod store;
mod vfs;
mod wal;

pub use fleet::{merge_check_aggregates, FleetCheckReport, ShardCheckAggregate};
pub use image::{EngineImage, ImageConfig, ImageError};
pub use resilient::{BootError, EngineFault, OpKind, ResilientEngine};
pub use router::{ShardRouter, VNODES_PER_SHARD};
pub use store::{LoadOutcome, StateDir, StoreError};
pub use vfs::{FaultKind, FaultPlan, FaultVfs, RealVfs, StorageError, Vfs, VfsFile};
pub use wal::{Wal, WalOp, WalRecord};

/// A stable identifier for a configuration held by an [`Engine`].
///
/// Ids survive edits: replacing a configuration's text keeps its id (and
/// bumps its generation); ids are never reused after a remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigId(pub u64);

/// Tuning knobs of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Whether to embed hierarchical context into patterns (§3.2).
    pub embed_context: bool,
    /// Worker threads for checking and learning.
    pub parallelism: usize,
    /// Learning parameters used by [`Engine::relearn`].
    pub learn: LearnParams,
    /// Staleness fraction at which [`Engine::relearn_if_stale`] fires: a
    /// full relearn runs once `changed lines / corpus lines at last
    /// learn` reaches this value.
    pub staleness_threshold: f64,
    /// Upper bound on entries held by the persistent [`LexCache`]
    /// (`0` = unbounded). Long-lived processes should set a cap so the
    /// cache cannot grow without limit; see `LexCache::with_capacity`.
    pub lex_cache_cap: usize,
    /// Whether [`Engine::relearn`] runs incrementally — re-sketching
    /// only configurations edited since their sketch was mined, then
    /// folding all cached sketches — instead of re-mining the full
    /// corpus. With it unset the engine keeps no sketches and relearns
    /// from scratch through the same sketch and fold code: the path
    /// `learn_delta_scaling` (and perfbench) time the cache against.
    /// The unit test `delta_relearn_is_byte_identical_to_full_relearn`
    /// pins the two paths byte-identical, so this is a performance knob,
    /// not a semantics knob; the randomized delta-learn oracles compare
    /// with `learn_reference` instead.
    pub delta_learn: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            embed_context: true,
            parallelism: 1,
            learn: LearnParams::default(),
            staleness_threshold: 0.2,
            lex_cache_cap: 0,
            delta_learn: true,
        }
    }
}

/// The engine's lifetime counters, exposed for persistence: restoring
/// them alongside the configuration texts makes a rebuilt engine
/// indistinguishable from one that never stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Next id handed to a newly inserted configuration.
    pub next_id: u64,
    /// Lifetime count of upserts and removes.
    pub edits: u64,
    /// Lifetime count of relearns.
    pub relearns: u64,
    /// Bumped whenever the contract set is swapped, whether or not the
    /// new set differs. The check cache is keyed by the set itself; this
    /// counter tells a caller comparing counters (the serve layer) that
    /// a swap may have changed what CHECK answers.
    pub contracts_epoch: u64,
    /// Corpus size (own lines) when contracts were last learned/loaded.
    pub lines_at_last_learn: usize,
    /// Own lines churned since the last learn.
    pub changed_lines_since_learn: usize,
    /// Value of `edits` when the current contracts were learned or
    /// loaded — records which dataset generation the contracts claim to
    /// describe, so a caller can tell "checked against fresh contracts"
    /// from "checked against contracts set N edits ago".
    pub contracts_edits: u64,
}

/// Why an [`Engine`] call could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// [`Engine::check_dirty`] was called before any contracts were
    /// learned or loaded.
    NoContracts,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoContracts => {
                f.write_str("no contracts loaded: call relearn() or set_contracts() first")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of one [`Engine::check_dirty`] call.
#[derive(Debug, Clone)]
pub struct EngineCheckReport {
    /// The full check report over the current snapshot — byte-identical
    /// to a from-scratch batch check of the same dataset and contracts.
    pub report: CheckReport,
    /// Aggregate check statistics. Counters (violations, witness indexes,
    /// probes) are exact sums over all configurations, replayed from the
    /// cache for clean ones; per-phase times cover only this call's
    /// recomputed work, so `category_times` is empty.
    pub stats: CheckStats,
    /// What this call patched versus recomputed.
    pub engine: EngineCheckStats,
}

/// The unassembled result of one [`Engine::check_parts`] call.
#[derive(Debug, Clone)]
pub struct CheckParts {
    /// Every configuration's cached check outcome, in this engine's
    /// dataset (name) order, shared rather than copied. A recheck swaps a
    /// new outcome into the engine, so these never change under a later
    /// edit.
    pub configs: Vec<Arc<ConfigOutcome>>,
    /// The engine's unique index, shared rather than copied. The engine
    /// updates its own through [`Arc::make_mut`], so these parts never
    /// change under a later edit.
    pub unique: Arc<UniqueIndex>,
    /// Configurations re-checked by this call.
    pub dirty_configs: usize,
    /// Configurations served from the outcome cache.
    pub reused_configs: usize,
    /// Witness indexes built for the re-checked configurations.
    pub witness_indexes_rebuilt: u64,
    /// Witness indexes of the configurations served from the cache.
    pub witness_indexes_patched: u64,
    /// Whether a resolution change invalidated this engine's cache.
    pub resolution_invalidated: bool,
    /// The contract set these parts were checked under — the set to
    /// merge them with.
    pub contracts: Arc<ContractSet>,
    /// Time spent compiling the contract set against the dataset.
    pub compile_time: Duration,
}

/// One configuration's engine-side bookkeeping, parallel to
/// `dataset.configs`: identity, edit generation, current text, and the
/// cached check results (marked stale on edit, brought current by
/// [`Engine::check_dirty`]).
#[derive(Debug, Clone)]
struct Slot {
    id: u64,
    generation: u64,
    /// The text the configuration's dataset lines were built from — the
    /// base the next upsert diffs against. Shared with the image.
    text: Arc<str>,
    /// Cached per-configuration outcome, shared with the [`CheckParts`]
    /// that carry it.
    checked: Checked,
    /// Cached learn sketch (`None` while dirty; mined lazily by the next
    /// delta relearn, or restored from a persisted snapshot).
    sketch: Option<ConfigSketch>,
}

impl Slot {
    fn new(id: u64, text: Arc<str>) -> Slot {
        Slot {
            id,
            generation: 0,
            text,
            checked: Checked::Dirty,
            sketch: None,
        }
    }

    /// The cached outcome, when it is current.
    fn current(&self) -> Option<&Arc<ConfigOutcome>> {
        match &self.checked {
            Checked::Current(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// Heap bytes the slot's cached outcome holds: the `Arc` allocation
    /// (its two counts and the outcome) and the outcome's heap, plus an
    /// edit's pattern list.
    fn outcome_bytes(&self) -> usize {
        let held = |outcome: &ConfigOutcome| {
            2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<ConfigOutcome>()
                + outcome.heap_bytes()
        };
        match &self.checked {
            Checked::Dirty => 0,
            Checked::Edited(outcome, edit) => held(outcome) + edit.heap_bytes(),
            Checked::Current(outcome) => held(outcome),
        }
    }
}

/// A slot's check state under the cached key.
#[derive(Debug, Clone)]
enum Checked {
    /// No usable outcome: the next check runs the configuration in full.
    Dirty,
    /// The outcome from before one spliced edit, and the rows it
    /// changed: the next check re-runs only the contracts the edit
    /// touched.
    Edited(Arc<ConfigOutcome>, RowEdit),
    /// The outcome of the configuration as it stands.
    Current(Arc<ConfigOutcome>),
}

/// A resident pipeline snapshot absorbing single-configuration edits.
///
/// See the [crate docs](crate) for the model. The batch pipeline is the
/// degenerate use: build a fresh engine from a corpus, check once, drop —
/// `check_dirty` on a fresh engine *is* the batch check.
pub struct Engine {
    lexer: Lexer,
    /// Persistent across edits: re-upserting a file whose line shapes
    /// were seen before costs hash lookups, not regex scans.
    cache: LexCache,
    options: EngineOptions,
    dataset: Dataset,
    /// One entry per configuration, kept index-aligned with
    /// `dataset.configs` through every upsert/remove.
    slots: Vec<Slot>,
    /// Shared so [`CheckParts`] can carry the set they were checked
    /// under without deep-copying it.
    contracts: Option<Arc<ContractSet>>,
    /// The contract set and resolution fingerprint the cached outcomes
    /// were checked under. `check_dirty` keeps them while the current
    /// set is this one or equals it and the fingerprint holds, and
    /// invalidates them all otherwise (two different sets can resolve
    /// identically, so the fingerprint alone is not a key).
    cached_key: Option<(Arc<ContractSet>, u64)>,
    /// The unique pass's state over every checked configuration, built
    /// under `cached_key`. Shared with [`CheckParts`]; updated in place
    /// through [`Arc::make_mut`] when no parts hold it.
    unique: Arc<UniqueIndex>,
    /// The lifetime counters, persisted in the image as they stand.
    counters: EngineCounters,
    /// Configurations re-sketched / reused by the most recent relearn.
    last_learn_mined: u64,
    last_learn_reused: u64,
    last_check: Option<EngineCheckStats>,
}

impl Engine {
    /// Creates an empty engine with the standard lexer.
    pub fn new(options: EngineOptions) -> Engine {
        Self::with_lexer(Lexer::standard(), options)
    }

    /// Creates an empty engine with a custom lexer.
    pub fn with_lexer(lexer: Lexer, options: EngineOptions) -> Engine {
        let cache = LexCache::with_capacity(options.lex_cache_cap);
        Engine {
            lexer,
            cache,
            options,
            dataset: Dataset::default(),
            slots: Vec::new(),
            contracts: None,
            cached_key: None,
            unique: Arc::default(),
            counters: EngineCounters::default(),
            last_learn_mined: 0,
            last_learn_reused: 0,
            last_check: None,
        }
    }

    /// Builds an engine over an initial corpus (the "fresh engine + one
    /// transaction" form of the batch pipeline).
    ///
    /// Configurations are name-sorted first so the snapshot order matches
    /// what a sequence of [`Engine::upsert_config`] calls produces — and
    /// what the CLI's glob loader produces.
    pub fn from_corpus(
        configs: &[(String, String)],
        metadata: &[(String, String)],
        options: EngineOptions,
    ) -> Result<Engine, DatasetError> {
        Self::from_corpus_with_lexer(configs, metadata, Lexer::standard(), options)
    }

    /// [`Engine::from_corpus`] with a custom lexer.
    pub fn from_corpus_with_lexer(
        configs: &[(String, String)],
        metadata: &[(String, String)],
        lexer: Lexer,
        options: EngineOptions,
    ) -> Result<Engine, DatasetError> {
        let texts: Vec<(&str, Arc<str>)> = configs
            .iter()
            .map(|(name, text)| (name.as_str(), Arc::from(text.as_str())))
            .collect();
        Self::from_texts(texts, metadata, lexer, options)
    }

    /// A fresh engine over the image's configurations and metadata,
    /// holding the image's texts rather than copies: ids `0..n`,
    /// generation 0, no contracts.
    pub(crate) fn from_image_corpus(
        image: &EngineImage,
        lexer: Lexer,
        options: EngineOptions,
    ) -> Result<Engine, DatasetError> {
        let texts: Vec<(&str, Arc<str>)> = image
            .configs
            .iter()
            .map(|c| (c.name.as_str(), Arc::clone(&c.text)))
            .collect();
        Self::from_texts(texts, &image.metadata, lexer, options)
    }

    /// Builds over `(name, text)` pairs, name-sorted first, keeping each
    /// text as its configuration's held text.
    fn from_texts(
        mut texts: Vec<(&str, Arc<str>)>,
        metadata: &[(String, String)],
        lexer: Lexer,
        options: EngineOptions,
    ) -> Result<Engine, DatasetError> {
        texts.sort();
        let mut engine = Self::with_lexer(lexer, options);
        let (dataset, _) = Dataset::build_with_stats(
            &texts,
            metadata,
            &engine.lexer,
            engine.options.embed_context,
            engine.options.parallelism,
            Some(&engine.cache),
        )?;
        engine.slots = texts
            .into_iter()
            .enumerate()
            .map(|(i, (_, text))| Slot::new(i as u64, text))
            .collect();
        engine.counters.next_id = dataset.configs.len() as u64;
        engine.dataset = dataset;
        Ok(engine)
    }

    /// Rebuilds an engine from a persisted [`EngineImage`]: same
    /// configurations in the same order, same ids and generations, same
    /// counters, same contracts, and the image's texts shared rather
    /// than copied. Check results are recomputed on demand
    /// (they are derived state), so the first `check_dirty` after a
    /// restore is a full batch check — byte-identical by the engine's
    /// own equivalence contract.
    pub fn from_image(
        image: &EngineImage,
        lexer: Lexer,
        options: EngineOptions,
    ) -> Result<Engine, ImageError> {
        let mut engine =
            Self::from_image_corpus(image, lexer, options).map_err(ImageError::Dataset)?;
        // The image is name-sorted like the corpus build, so slot `i` is
        // image config `i`.
        for (slot, config) in engine.slots.iter_mut().zip(&image.configs) {
            slot.id = config.id;
            slot.generation = config.generation;
        }
        if let Some(json) = &image.contracts {
            let contracts =
                ContractSet::from_json(json).map_err(|e| ImageError::Contracts(e.to_string()))?;
            engine.contracts = Some(Arc::new(contracts));
        }
        engine.counters = image.counters;
        // Sketches are derived state: import what survives the version,
        // params, and generation guards; anything else (including a
        // corrupt per-config bundle) is silently re-mined by the next
        // delta relearn.
        for config in &image.configs {
            if let Some(text) = &config.sketch {
                if let Ok(bundle) = Json::parse(text) {
                    engine.import_sketches(&bundle);
                }
            }
        }
        Ok(engine)
    }

    /// The current snapshot's dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The engine's lifetime counters (for persistence).
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// `(name, generation)` for every configuration, in dataset order.
    pub fn generations(&self) -> Vec<(String, u64)> {
        self.dataset
            .configs
            .iter()
            .zip(&self.slots)
            .map(|(c, s)| (self.dataset.name_of(c).to_string(), s.generation))
            .collect()
    }

    /// The current contract set, if any.
    pub fn contracts(&self) -> Option<&ContractSet> {
        self.contracts.as_deref()
    }

    /// The current contract set as a shared handle (no deep copy).
    pub fn shared_contracts(&self) -> Option<Arc<ContractSet>> {
        self.contracts.clone()
    }

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The stable id of the configuration named `name`.
    pub fn config_id(&self, name: &str) -> Option<ConfigId> {
        let i = self.dataset.config_index(name)?;
        Some(ConfigId(self.slots[i].id))
    }

    /// The edit generation of the configuration named `name` (0 for a
    /// never-replaced configuration, +1 per replacing upsert).
    pub fn config_generation(&self, name: &str) -> Option<u64> {
        let i = self.dataset.config_index(name)?;
        Some(self.slots[i].generation)
    }

    /// The current text of the configuration named `name`, as a shared
    /// handle (no copy).
    pub fn config_text(&self, name: &str) -> Option<&Arc<str>> {
        let i = self.dataset.config_index(name)?;
        Some(&self.slots[i].text)
    }

    /// Inserts or replaces one configuration and marks only it dirty.
    /// Returns the configuration's stable id.
    ///
    /// A replacement is diffed against the held text by line, and only
    /// the lines the edit can change are re-embedded, re-lexed (through
    /// the engine's persistent lex cache) and spliced into the dataset
    /// ([`Dataset::upsert_config`]): the changed lines, and in an
    /// indentation format the block lines below them. JSON, YAML, a
    /// changed format or a new configuration re-lex the whole text. The
    /// result is the dataset a whole-text rebuild gives, id for id.
    ///
    /// A spliced edit of a configuration whose outcome is current keeps
    /// that outcome with the rows the splice changed, so the next check
    /// re-runs only what reads them. A second edit before that check, a
    /// whole-text window or a new configuration leaves nothing to carry:
    /// the next check runs the configuration in full.
    pub fn upsert_config(&mut self, name: &str, text: &str) -> ConfigId {
        let held = self.dataset.config_index(name);
        let text: Arc<str> = Arc::from(text);
        let Upserted {
            index: i,
            churn,
            edit,
        } = self.dataset.upsert_config(
            name,
            &text,
            held.map(|i| &*self.slots[i].text),
            &self.lexer,
            self.options.embed_context,
            Some(&self.cache),
        );
        if held.is_some() {
            // Replaced in place: same identity, new generation, dirty.
            let slot = &mut self.slots[i];
            slot.generation += 1;
            slot.text = text;
            slot.checked = match (std::mem::replace(&mut slot.checked, Checked::Dirty), edit) {
                (Checked::Current(outcome), Some(edit)) => Checked::Edited(outcome, edit),
                _ => Checked::Dirty,
            };
            slot.sketch = None;
        } else {
            self.slots.insert(i, Slot::new(self.counters.next_id, text));
            self.counters.next_id += 1;
        }
        self.counters.edits += 1;
        self.counters.changed_lines_since_learn += churn;
        ConfigId(self.slots[i].id)
    }

    /// Removes the configuration named `name`, returning its id (`None`
    /// when no such configuration exists). Other configurations' cached
    /// outcomes stay valid, and the unique index drops only the removed
    /// configuration's values: a value it held first passes to its next
    /// holder.
    pub fn remove_config(&mut self, name: &str) -> Option<ConfigId> {
        let i = self.dataset.config_index(name)?;
        let own = self.dataset.configs[i].own_line_count();
        self.dataset.remove_config(name);
        let slot = self.slots.remove(i);
        if self.unique.contains(name) {
            Arc::make_mut(&mut self.unique).remove(name);
        }
        self.counters.edits += 1;
        self.counters.changed_lines_since_learn += own;
        Some(ConfigId(slot.id))
    }

    /// Swaps in an externally produced contract set (e.g. loaded from the
    /// JSON a `learn` run wrote). Resets the staleness clock: **the
    /// caller asserts these contracts describe the current snapshot.**
    /// The engine cannot verify that assertion — it records the current
    /// edit counter as [`EngineCounters::contracts_edits`] so consumers
    /// (stats, serve clients) can at least tell how many edits the
    /// snapshot has absorbed since the contracts were installed; edits
    /// made *after* this call accumulate staleness normally and drive
    /// [`Engine::relearn_if_stale`] as usual.
    pub fn set_contracts(&mut self, contracts: ContractSet) {
        self.contracts = Some(Arc::new(contracts));
        self.contracts_swapped();
    }

    /// Counts a contract swap and restarts the staleness clock at the
    /// current snapshot.
    fn contracts_swapped(&mut self) {
        let c = &mut self.counters;
        c.contracts_epoch += 1;
        c.contracts_edits = c.edits;
        c.lines_at_last_learn = self.dataset.total_lines();
        c.changed_lines_since_learn = 0;
    }

    /// Learns a fresh contract set from the current snapshot, replacing
    /// the previous one and resetting the staleness clock.
    ///
    /// With [`EngineOptions::delta_learn`] set (the default) this is an
    /// O(edit) operation in the steady state: only configurations edited
    /// since their sketch was mined are re-sketched, and the contract
    /// set is produced by folding the cached per-configuration sketches
    /// — the exact fold + emit code the full learner runs, so the result
    /// is byte-identical to a full relearn.
    pub fn relearn(&mut self) -> LearnStats {
        let stats = if self.options.delta_learn {
            self.relearn_delta()
        } else {
            let (contracts, stats) = learn_with_stats(&self.dataset, &self.options.learn);
            self.contracts = Some(Arc::new(contracts));
            self.last_learn_mined = self.dataset.configs.len() as u64;
            self.last_learn_reused = 0;
            stats
        };
        self.counters.relearns += 1;
        self.contracts_swapped();
        stats
    }

    /// The delta-learn path: sketch the configurations that lack a
    /// sketch (in parallel), then fold every sketch in dataset order.
    /// The stats' miner times cover the configurations sketched here.
    fn relearn_delta(&mut self) -> LearnStats {
        let dirty: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sketch.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut fold = Fold::new(&self.dataset, &self.options.learn);
        let mined = fold.sketch(&dirty, self.options.parallelism);
        for (&i, sketch) in dirty.iter().zip(mined) {
            self.slots[i].sketch = Some(sketch);
        }
        self.last_learn_mined = dirty.len() as u64;
        self.last_learn_reused = (self.slots.len() - dirty.len()) as u64;
        let sketches: Vec<&ConfigSketch> = self
            .slots
            .iter()
            .map(|s| s.sketch.as_ref().expect("just populated"))
            .collect();
        fold.add(&sketches);
        let (contracts, stats) = fold.finish();
        self.contracts = Some(Arc::new(contracts));
        stats
    }

    /// Fraction of the corpus changed since the last learn: `lines
    /// churned by edits / corpus size`. An upsert counts the own lines
    /// its splice removed plus those it inserted: the changed lines, and
    /// in an indentation format the block lines below them, so one
    /// changed leaf line counts 2 and a whole-text re-lex every old and
    /// every new line. A remove counts the removed configuration's own
    /// lines. `1.0` when no learn has happened over a non-empty corpus.
    ///
    /// The denominator is `max(own lines at last learn, own lines now)`:
    /// a corpus that *grew* since the learn would otherwise overshoot
    /// (churn measured against a smaller, stale corpus), and a corpus
    /// that shrank would undershoot — removals count their removed lines
    /// in the numerator, so dividing by the shrunken size would double-
    /// discount them.
    pub fn staleness(&self) -> f64 {
        if self.contracts.is_none() {
            return if self.dataset.configs.is_empty() {
                0.0
            } else {
                1.0
            };
        }
        let denominator = self
            .counters
            .lines_at_last_learn
            .max(self.dataset.total_lines())
            .max(1);
        self.counters.changed_lines_since_learn as f64 / denominator as f64
    }

    /// Relearns when no contracts are loaded yet or when
    /// [`Engine::staleness`] has reached the configured threshold.
    /// Returns the learn stats when a relearn ran.
    pub fn relearn_if_stale(&mut self) -> Option<LearnStats> {
        if self.contracts.is_none() || self.staleness() >= self.options.staleness_threshold {
            Some(self.relearn())
        } else {
            None
        }
    }

    /// Renders one configuration's cached learn sketch as a JSON bundle
    /// for persistence, or `None` when the config is unknown or its
    /// sketch has not been mined yet. The bundle records the sketch
    /// format version, a fingerprint of the learn parameters the sketch
    /// was mined under, and a one-entry `configs` list holding the
    /// configuration's name, edit generation and sketch, so
    /// [`Engine::import_sketches`] (which takes the parsed bundle) can
    /// reject anything stale. The text is written straight from the
    /// resident sketch, with no intermediate value tree. The segmented
    /// checkpoint path stores one bundle per config so an unedited
    /// configuration's sketch is never re-rendered.
    pub fn export_sketch_for(&self, name: &str) -> Option<String> {
        let mut out = String::new();
        self.write_sketch_at(self.dataset.config_index(name)?, &mut out)
            .then_some(out)
    }

    /// Appends the [`Engine::export_sketch_for`] bundle of the
    /// configuration at dataset index `i` to `out`; `false`, with `out`
    /// untouched, when it has no sketch or `i` is past the end. The
    /// checkpoint walks the name-sorted image and the engine's
    /// configurations together and writes every bundle through one
    /// buffer, so each bundle the image keeps is an exact-size copy: a
    /// string grown by doubling carries slack that stays resident.
    pub(crate) fn write_sketch_at(&self, i: usize, out: &mut String) -> bool {
        let Some(slot) = self.slots.get(i) else {
            return false;
        };
        let Some(sketch) = &slot.sketch else {
            return false;
        };
        out.push_str("{\"version\":");
        push_number(out, SKETCH_FORMAT_VERSION as f64);
        out.push_str(",\"params\":");
        push_string(out, &sketch_params_fingerprint(&self.options.learn));
        out.push_str(",\"configs\":[{\"name\":");
        push_string(out, self.dataset.config_name(i));
        out.push_str(",\"generation\":");
        push_number(out, slot.generation as f64);
        out.push_str(",\"sketch\":");
        sketch.write_json(&self.dataset.table, out);
        out.push_str("}]}");
        true
    }

    /// Restores cached sketches from a bundle written by
    /// [`Engine::export_sketch_for`], returning how many were accepted.
    /// Sketches are derived state, so every guard fails *safe* to "no
    /// sketch" (re-mined by the next delta relearn): a format-version or
    /// learn-params mismatch drops the whole bundle; per configuration,
    /// an unknown name, a generation mismatch, or an undecodable sketch
    /// (e.g. a pattern no longer interned) drops just that entry.
    pub fn import_sketches(&mut self, bundle: &Json) -> usize {
        if bundle.get("version").and_then(Json::as_u64) != Some(SKETCH_FORMAT_VERSION) {
            return 0;
        }
        let fingerprint = sketch_params_fingerprint(&self.options.learn);
        if bundle.get("params").and_then(Json::as_str) != Some(fingerprint.as_str()) {
            return 0;
        }
        let Some(entries) = bundle.get("configs").and_then(Json::as_array) else {
            return 0;
        };
        let mut imported = 0;
        for entry in entries {
            let Some(name) = entry.get("name").and_then(Json::as_str) else {
                continue;
            };
            let Some(generation) = entry.get("generation").and_then(Json::as_u64) else {
                continue;
            };
            let Some(i) = self.dataset.config_index(name) else {
                continue;
            };
            if self.slots[i].generation != generation {
                continue;
            }
            let Some(sketch) = entry
                .get("sketch")
                .and_then(|j| ConfigSketch::from_json(j, &self.dataset.table))
            else {
                continue;
            };
            self.slots[i].sketch = Some(sketch);
            imported += 1;
        }
        imported
    }

    /// Checks the current snapshot, recomputing only dirty
    /// configurations and patching everything else in from the cache.
    ///
    /// The returned report is byte-identical to a from-scratch batch
    /// check ([`concord_core::check_parallel_with_stats`]) of the same
    /// dataset and contracts. The cache survives a contract swap to an
    /// equal set (a relearn that re-derives the held contracts costs no
    /// recheck). A resolution change — a set different from the one the
    /// cache was checked under, or an edit interning a pattern that makes
    /// a contract resolve differently
    /// ([`CheckProgram::resolution_fingerprint`]) — invalidates the whole
    /// cache (correctness first; neither moves unless cached outcomes
    /// may have gone stale).
    ///
    /// The violations come from [`Engine::check_parts`] through
    /// [`merge_check_aggregates`], the merge the serving fleet runs.
    pub fn check_dirty(&mut self) -> Result<EngineCheckReport, EngineError> {
        let start = Instant::now();
        let shard = ShardCheckAggregate::new(self.check_parts()?);
        let parts = &shard.parts;
        let engine = self.last_check.expect("check_parts records its counters");
        // The server's merge, over one shard: the violations in the
        // report order the batch checker sorts into.
        let merged = merge_check_aggregates(&parts.contracts, &[&shard]);
        let mut counters = concord_core::CheckCounters::default();
        let coverages = parts
            .configs
            .iter()
            .map(|outcome| {
                counters.accumulate(&outcome.counters);
                outcome.coverage.clone()
            })
            .collect();
        let stats = CheckStats {
            contracts: parts.contracts.len(),
            violations: merged.violations.len(),
            parallelism: self.options.parallelism.max(1),
            check_time: start.elapsed(),
            compile_time: parts.compile_time,
            witness_indexes: counters.indexes_built,
            witness_entries: counters.index_entries,
            witness_probes: counters.probes,
            witness_probe_hits: counters.probe_hits,
            // Per-phase times are not replayable from cached outcomes.
            category_times: Vec::new(),
        };
        Ok(EngineCheckReport {
            report: CheckReport {
                violations: merged.violations,
                coverage: CoverageReport {
                    per_config: coverages,
                },
            },
            stats,
            engine,
        })
    }

    /// Checks the current snapshot like [`Engine::check_dirty`], but
    /// returns the *unassembled* parts instead of the merged report:
    /// every configuration's cached outcome (its violations in report
    /// order, its coverage and counters), shared rather than copied, plus
    /// the engine's unique index. A serving fleet collects every shard's
    /// parts, merges the configurations' violations in global name order
    /// (the dataset order an unsharded engine would hold) and joins the
    /// shards' unique indexes, reproducing [`Engine::check_dirty`]'s
    /// report byte for byte while each shard pays only for its own dirty
    /// configurations.
    ///
    /// `check_dirty` is this call plus that merge over one shard, so the
    /// engine's own CHECK and the server's run the same code.
    pub fn check_parts(&mut self) -> Result<CheckParts, EngineError> {
        let contracts = self.contracts.clone().ok_or(EngineError::NoContracts)?;
        let program = CheckProgram::compile(&contracts, &self.dataset);
        let (dirty, resolution_invalidated) = refresh_outcomes(
            &mut self.slots,
            &mut self.cached_key,
            &mut self.unique,
            &self.dataset,
            &program,
            &contracts,
            self.options.parallelism,
        );
        let configs = self
            .slots
            .iter()
            .map(|s| Arc::clone(s.current().expect("just checked")))
            .collect();
        let engine = check_stats(&self.slots, &dirty, resolution_invalidated);
        self.last_check = Some(engine);
        let compile_time = program.compile_time;
        drop(program);
        Ok(CheckParts {
            configs,
            unique: Arc::clone(&self.unique),
            dirty_configs: engine.dirty_configs,
            reused_configs: engine.reused_configs,
            witness_indexes_rebuilt: engine.witness_indexes_rebuilt,
            witness_indexes_patched: engine.witness_indexes_patched,
            resolution_invalidated,
            contracts,
            compile_time,
        })
    }

    /// The incremental-learn cache counters: occupancy, configs mined
    /// vs reused by the last relearn, and the edit generation the
    /// current contracts describe.
    pub fn learn_delta(&self) -> LearnDeltaStats {
        LearnDeltaStats {
            enabled: self.options.delta_learn,
            sketches: self.slots.iter().filter(|s| s.sketch.is_some()).count(),
            dirty: self.slots.iter().filter(|s| s.sketch.is_none()).count(),
            mined_last_learn: self.last_learn_mined,
            reused_last_learn: self.last_learn_reused,
            contracts_edits: self.counters.contracts_edits,
        }
    }

    /// A snapshot of the engine's state and lifetime counters.
    pub fn snapshot_stats(&self) -> EngineStats {
        let cache = self.cache.stats();
        EngineStats {
            configs: self.dataset.configs.len(),
            lines: self.dataset.configs.iter().map(|c| c.len()).sum(),
            patterns: self.dataset.pattern_count(),
            contracts: self.contracts.as_deref().map(ContractSet::len),
            edits: self.counters.edits,
            relearns: self.counters.relearns,
            dirty_configs: self.slots.iter().filter(|s| s.current().is_none()).count(),
            staleness: self.staleness(),
            lex_cache: LexCacheStats {
                hits: cache.hits,
                misses: cache.misses,
                evictions: cache.evictions,
            },
            generations: self.generations().into_iter().collect(),
            robustness: None,
            last_check: self.last_check,
            learn_delta: self.learn_delta(),
            memory: self.memory_stats(),
            storage: None,
            serve: None,
            fleet: None,
        }
    }

    /// Arena/interner heap accounting for the SoA dataset, plus the
    /// heap held by the cached learn sketches and check outcomes. The
    /// segmented-checkpoint
    /// counters stay zero here: a bare engine has no store; the
    /// resilient layer fills them in.
    fn memory_stats(&self) -> MemoryStats {
        let (strings, params, table, columns) = self.dataset.arena_bytes();
        let sketches: usize = self
            .slots
            .iter()
            .filter_map(|slot| slot.sketch.as_ref())
            .map(ConfigSketch::heap_bytes)
            .sum();
        MemoryStats {
            string_arena_bytes: strings as u64,
            param_arena_bytes: params as u64,
            pattern_table_bytes: table as u64,
            column_bytes: columns as u64,
            sketch_bytes: sketches as u64,
            outcome_bytes: self.slots.iter().map(Slot::outcome_bytes).sum::<usize>() as u64,
            interned_strings: self.dataset.interned_strings() as u64,
            interned_param_slices: self.dataset.interned_param_slices() as u64,
            segments_written: 0,
            segments_skipped: 0,
        }
    }
}

/// Ensures every slot holds a current outcome under `contracts` and
/// `program`'s resolution fingerprint, and `unique` every
/// configuration's current unique table, re-running only dirty
/// configurations (in parallel): an edited one from its previous outcome
/// and the rows its edit changed, any other in full. The cache is kept
/// when `contracts` is the set it was checked under or equals it (one
/// O(contracts) compare on the first check after a swap) and the
/// fingerprint holds; otherwise every outcome is dropped and a new index
/// started. Returns the sorted
/// dirty indices and whether a resolution change invalidated the cache.
/// A free function over disjoint [`Engine`] fields because `program`
/// immutably borrows the engine's dataset and contracts while the slots
/// are written.
fn refresh_outcomes(
    slots: &mut [Slot],
    cached_key: &mut Option<(Arc<ContractSet>, u64)>,
    unique: &mut Arc<UniqueIndex>,
    dataset: &Dataset,
    program: &CheckProgram<'_>,
    contracts: &Arc<ContractSet>,
    parallelism: usize,
) -> (Vec<usize>, bool) {
    let fingerprint = program.resolution_fingerprint();
    let kept = cached_key.as_ref().is_some_and(|(set, cached)| {
        *cached == fingerprint && (Arc::ptr_eq(set, contracts) || set == contracts)
    });
    let resolution_invalidated = cached_key.is_some() && !kept;
    if !kept {
        for slot in slots.iter_mut() {
            slot.checked = Checked::Dirty;
        }
        *unique = Arc::new(program.unique_index());
    }
    // Hold the current set even when an equal one was kept, so the next
    // check takes the pointer compare and the replaced set is freed.
    *cached_key = Some((Arc::clone(contracts), fingerprint));

    let dirty: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.current().is_none())
        .map(|(i, _)| i)
        .collect();

    // Re-check dirty configurations in parallel; each produces its
    // cacheable outcome plus its unique-event table (empty when no
    // unique contract resolved).
    let recomputed: Vec<(ConfigOutcome, UniqueTable)> = parallel::map(
        &dirty,
        |&i| {
            let config = &dataset.configs[i];
            let previous = match &slots[i].checked {
                Checked::Edited(outcome, edit) => Some((&**outcome, edit)),
                _ => None,
            };
            (
                program.recheck_config(config, previous),
                program.unique_table(config),
            )
        },
        parallelism,
    );
    if !dirty.is_empty() {
        let index = Arc::make_mut(unique);
        for (&i, (outcome, table)) in dirty.iter().zip(recomputed) {
            slots[i].checked = Checked::Current(Arc::new(outcome));
            index.insert(dataset.config_name(i), table);
        }
    }
    (dirty, resolution_invalidated)
}

/// What one check call recomputed versus patched in from the outcome
/// cache (`dirty` is sorted), for `last_check`.
fn check_stats(slots: &[Slot], dirty: &[usize], resolution_invalidated: bool) -> EngineCheckStats {
    let mut rebuilt = 0u64;
    let mut patched = 0u64;
    for (i, slot) in slots.iter().enumerate() {
        let built = slot.current().expect("just checked").counters.indexes_built;
        if dirty.binary_search(&i).is_ok() {
            rebuilt += built;
        } else {
            patched += built;
        }
    }
    EngineCheckStats {
        dirty_configs: dirty.len(),
        reused_configs: slots.len() - dirty.len(),
        resolution_invalidated,
        witness_indexes_rebuilt: rebuilt,
        witness_indexes_patched: patched,
    }
}

#[cfg(test)]
mod tempdir;

#[cfg(test)]
mod tests {
    use super::*;
    use concord_core::check_parallel_with_stats;
    use concord_json::ToJson;

    fn corpus() -> Vec<(String, String)> {
        (0..6)
            .map(|i| {
                (
                    format!("dev{i}"),
                    format!(
                        "hostname DEV{}\nrouter bgp 65000\ninterface Loopback0\n ip address 10.0.0.{}\nvlan {}\n",
                        100 + i,
                        i + 1,
                        250 + i
                    ),
                )
            })
            .collect()
    }

    /// Batch-checks `engine`'s current snapshot from scratch.
    fn batch(engine: &Engine) -> (CheckReport, CheckStats) {
        check_parallel_with_stats(
            engine.contracts().expect("contracts loaded"),
            engine.dataset(),
            1,
        )
    }

    fn assert_reports_equal(a: &CheckReport, b: &CheckReport) {
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.coverage.per_config.len(), b.coverage.per_config.len());
        for (ca, cb) in a.coverage.per_config.iter().zip(&b.coverage.per_config) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn fresh_engine_check_matches_batch() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        let incremental = engine.check_dirty().unwrap();
        let (report, stats) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
        assert_eq!(incremental.stats.violations, stats.violations);
        assert_eq!(incremental.stats.witness_indexes, stats.witness_indexes);
        assert_eq!(incremental.stats.witness_probes, stats.witness_probes);
        assert_eq!(incremental.engine.dirty_configs, 6);
        assert_eq!(incremental.engine.reused_configs, 0);
    }

    #[test]
    fn edit_rechecks_only_the_dirty_config() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();

        // Break one device: drop its bgp line.
        engine.upsert_config(
            "dev2",
            "hostname DEV102\ninterface Loopback0\n ip address 10.0.0.3\nvlan 252\n",
        );
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 1);
        assert_eq!(incremental.engine.reused_configs, 5);
        assert!(!incremental.engine.resolution_invalidated);
        assert!(!incremental.report.violations.is_empty());

        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
    }

    /// The CHECK after one spliced edit re-runs only the contracts that
    /// read the rows it changed (an identical re-upsert changes none);
    /// after two edits of one configuration it runs that configuration
    /// in full. Both answer what the batch checker answers.
    #[test]
    fn one_edit_rechecks_edit_locally_and_two_in_full() {
        let corpus: Vec<(String, String)> = (0..6)
            .map(|i| {
                let text = format!(
                    "hostname DEV{i}\nvlan 10\nvlan 20\nvlan 30\ninterface Ethernet1\n switchport access vlan 20\n"
                );
                (format!("dev{i}"), text)
            })
            .collect();
        let mut engine = Engine::from_corpus(&corpus, &[], EngineOptions::default()).unwrap();
        engine.relearn();
        let full = engine.check_parts().unwrap().configs[2].rerun;
        assert!(full.relational + full.sequence > 0, "{full:?}");

        engine.upsert_config("dev2", &corpus[2].1);
        let parts = engine.check_parts().unwrap();
        assert_eq!(parts.dirty_configs, 1);
        assert_eq!(parts.configs[2].rerun, concord_core::Rerun::default());
        assert_reports_equal(&engine.check_dirty().unwrap().report, &batch(&engine).0);

        engine.upsert_config("dev2", &corpus[2].1);
        engine.upsert_config("dev2", &corpus[2].1);
        assert_eq!(engine.check_parts().unwrap().configs[2].rerun, full);
        assert_reports_equal(&engine.check_dirty().unwrap().report, &batch(&engine).0);
    }

    #[test]
    fn new_pattern_that_changes_resolution_invalidates_the_cache() {
        let configs: Vec<(String, String)> = (0..6)
            .map(|i| (format!("dev{i}"), format!("vlan {}\n", 10 + i)))
            .collect();
        let mut engine = Engine::from_corpus(&configs, &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();

        // A brand-new line shape interns new patterns; if any contract
        // resolves differently the whole cache must be dropped.
        engine.upsert_config("dev0", "vlan 10\nmtu jumbo frames on\n");
        let incremental = engine.check_dirty().unwrap();
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
        if incremental.engine.resolution_invalidated {
            assert_eq!(incremental.engine.dirty_configs, 6);
        }

        // An edit reusing only known line shapes stays a 1-config check.
        engine.upsert_config("dev1", "vlan 99\n");
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 1);
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
    }

    /// A relearn that re-derives the held set bumps the swap counter but
    /// keeps every cached outcome and the unique index.
    #[test]
    fn relearn_without_edits_keeps_the_check_cache() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();
        let held = engine.shared_contracts().unwrap();

        engine.relearn();
        assert_eq!(engine.counters().contracts_epoch, 2, "every swap counts");
        let relearned = engine.shared_contracts().unwrap();
        assert!(!Arc::ptr_eq(&held, &relearned), "a relearn swaps the set");
        assert_eq!(held, relearned, "and re-derives the same contracts");
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 0);
        assert_eq!(incremental.engine.reused_configs, 6);
        assert!(!incremental.engine.resolution_invalidated);
        let (report, stats) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
        assert_eq!(incremental.stats.violations, stats.violations);
        assert_eq!(incremental.stats.witness_probes, stats.witness_probes);
    }

    #[test]
    fn relearn_after_an_edit_rechecks_only_the_edited_config() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();
        let held = engine.shared_contracts().unwrap();

        // Re-upserting a device's own text dirties it without changing
        // what a relearn derives.
        let (name, text) = &corpus()[2];
        engine.upsert_config(name, text);
        engine.relearn();
        assert_eq!(engine.shared_contracts().unwrap(), held);
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 1);
        assert_eq!(incremental.engine.reused_configs, 5);
        assert!(!incremental.engine.resolution_invalidated);
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
    }

    #[test]
    fn set_contracts_with_an_equal_set_keeps_the_check_cache() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();

        engine.set_contracts(engine.contracts().unwrap().clone());
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 0);
        assert!(!incremental.engine.resolution_invalidated);
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
    }

    #[test]
    fn set_contracts_with_a_different_set_rechecks_every_config() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();

        let mut fewer = engine.contracts().unwrap().clone();
        assert!(fewer.contracts.pop().is_some());
        engine.set_contracts(fewer);
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 6);
        assert_eq!(incremental.engine.reused_configs, 0);
        assert!(incremental.engine.resolution_invalidated);
        let (report, stats) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
        assert_eq!(incremental.stats.contracts, stats.contracts);
    }

    #[test]
    fn check_parts_records_the_same_last_check_as_check_dirty() {
        let mut parts = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        let mut dirty = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        for engine in [&mut parts, &mut dirty] {
            engine.relearn();
        }
        for step in 0..3 {
            if step == 1 {
                for engine in [&mut parts, &mut dirty] {
                    engine.upsert_config("dev2", "hostname DEV102\nvlan 252\n");
                }
            }
            let computed = parts.check_parts().unwrap();
            let report = dirty.check_dirty().unwrap();
            assert_eq!(parts.snapshot_stats().last_check, Some(report.engine));
            assert_eq!(computed.dirty_configs, report.engine.dirty_configs);
            assert_eq!(computed.reused_configs, report.engine.reused_configs);
        }
    }

    /// CHECK shares cached outcomes instead of copying them: after one
    /// upsert only the edited configuration's outcome is new, and after a
    /// remove every survivor keeps its outcome.
    #[test]
    fn check_parts_share_cached_outcomes() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        let before = engine.check_parts().unwrap();
        engine.upsert_config("dev2", "hostname DEV102\nvlan 252\n");
        let after = engine.check_parts().unwrap();
        assert_eq!(after.dirty_configs, 1);
        assert_eq!(before.configs.len(), after.configs.len());
        for (i, (was, now)) in before.configs.iter().zip(&after.configs).enumerate() {
            assert_eq!(Arc::ptr_eq(was, now), i != 2, "dev{i}");
        }

        engine.remove_config("dev4");
        let removed = engine.check_parts().unwrap();
        assert_eq!(removed.dirty_configs, 0);
        let mut survivors = after.configs.clone();
        survivors.remove(4);
        assert_eq!(survivors.len(), removed.configs.len());
        for (was, now) in survivors.iter().zip(&removed.configs) {
            assert!(Arc::ptr_eq(was, now));
        }
    }

    #[test]
    fn remove_config_keeps_the_unique_pass_exact() {
        // vlan ids are globally unique in this corpus, so learning yields
        // unique contracts whose cross-config state must survive removal.
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();

        assert!(engine.remove_config("dev3").is_some());
        assert!(engine.remove_config("dev3").is_none());
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 0);
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);

        // Re-adding a config that duplicates another's vlan id must trip
        // the unique contract even though only the new config is dirty.
        engine.upsert_config(
            "dev9",
            "hostname DEV109\nrouter bgp 65000\ninterface Loopback0\n ip address 10.0.0.9\nvlan 250\n",
        );
        let incremental = engine.check_dirty().unwrap();
        assert_eq!(incremental.engine.dirty_configs, 1);
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
    }

    #[test]
    fn ids_are_stable_and_generations_advance() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        let id = engine.config_id("dev2").unwrap();
        assert_eq!(engine.config_generation("dev2"), Some(0));

        let same = engine.upsert_config("dev2", "vlan 1\n");
        assert_eq!(same, id, "replacement keeps the id");
        assert_eq!(engine.config_generation("dev2"), Some(1));

        let fresh = engine.upsert_config("dev2b", "vlan 2\n");
        assert_ne!(fresh, id);
        engine.remove_config("dev2b");
        let refresh = engine.upsert_config("dev2b", "vlan 2\n");
        assert_ne!(refresh, fresh, "ids are never reused");
    }

    #[test]
    fn check_without_contracts_is_an_error() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        assert_eq!(engine.check_dirty().unwrap_err(), EngineError::NoContracts);
        assert!(!engine.check_dirty().unwrap_err().to_string().is_empty());
    }

    #[test]
    fn staleness_accumulates_and_relearn_if_stale_fires() {
        let options = EngineOptions {
            staleness_threshold: 0.5,
            ..EngineOptions::default()
        };
        let mut engine = Engine::from_corpus(&corpus(), &[], options).unwrap();
        assert_eq!(engine.staleness(), 1.0, "no contracts yet");
        assert!(engine.relearn_if_stale().is_some(), "first call learns");
        assert_eq!(engine.staleness(), 0.0);
        assert!(engine.relearn_if_stale().is_none());

        // 6 configs x 5 own lines = 30 lines at learn. One replacement
        // (5 old + 5 new) is 10/30 churn: still below 0.5.
        engine.upsert_config(
            "dev0",
            "hostname DEV200\nrouter bgp 65000\ninterface Loopback0\n ip address 10.0.9.1\nvlan 350\n",
        );
        assert!(engine.staleness() > 0.0);
        assert!(engine.relearn_if_stale().is_none());

        // A second replacement crosses it.
        engine.upsert_config(
            "dev1",
            "hostname DEV201\nrouter bgp 65000\ninterface Loopback0\n ip address 10.0.9.2\nvlan 351\n",
        );
        assert!(engine.staleness() >= 0.5);
        assert!(engine.relearn_if_stale().is_some());
        assert_eq!(engine.snapshot_stats().relearns, 2);
    }

    #[test]
    fn staleness_counts_the_lines_an_upsert_splices() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        // One changed line inside dev2's five: one row out, one row in.
        engine.upsert_config(
            "dev2",
            "hostname DEV102\nrouter bgp 65001\ninterface Loopback0\n ip address 10.0.0.3\nvlan 252\n",
        );
        assert_eq!(engine.counters().changed_lines_since_learn, 2);
        assert!((engine.staleness() - 2.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_stats_track_edits_and_cache() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        engine.upsert_config("dev0", "vlan 900\n");
        engine.remove_config("dev5");
        let stats = engine.snapshot_stats();
        assert_eq!(stats.configs, 5);
        assert_eq!(stats.edits, 2);
        assert_eq!(stats.contracts, Some(engine.contracts().unwrap().len()));
        assert_eq!(stats.dirty_configs, 5, "nothing checked yet");
        assert!(
            stats.lex_cache.hits > 0,
            "repeated line shapes must hit the persistent cache"
        );
        engine.check_dirty().unwrap();
        let stats = engine.snapshot_stats();
        assert_eq!(stats.dirty_configs, 0);
        assert_eq!(stats.last_check.unwrap().dirty_configs, 5);
    }

    #[test]
    fn delta_relearn_is_byte_identical_to_full_relearn() {
        let delta_options = EngineOptions::default();
        assert!(delta_options.delta_learn, "delta learn is the default");
        let full_options = EngineOptions {
            delta_learn: false,
            ..EngineOptions::default()
        };
        let mut delta = Engine::from_corpus(&corpus(), &[], delta_options).unwrap();
        let mut full = Engine::from_corpus(&corpus(), &[], full_options).unwrap();

        let edits: Vec<(&str, Option<&str>)> = vec![
            ("dev2", Some("hostname DEV900\nvlan 900\n")),
            (
                "dev7",
                Some("hostname DEV907\nrouter bgp 65000\nvlan 907\n"),
            ),
            ("dev0", None),
            (
                "dev7",
                Some("hostname DEV908\nrouter bgp 65000\nvlan 908\n"),
            ),
        ];
        for step in 0..=edits.len() {
            delta.relearn();
            full.relearn();
            assert_eq!(
                delta.contracts().unwrap().to_json(),
                full.contracts().unwrap().to_json(),
                "divergence after {step} edits"
            );
            if let Some((name, text)) = edits.get(step) {
                match text {
                    Some(text) => {
                        delta.upsert_config(name, text);
                        full.upsert_config(name, text);
                    }
                    None => {
                        delta.remove_config(name);
                        full.remove_config(name);
                    }
                }
            }
        }
    }

    #[test]
    fn delta_relearn_mines_only_dirty_configs() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        let ld = engine.snapshot_stats().learn_delta;
        assert!(ld.enabled);
        assert_eq!(ld.mined_last_learn, 6, "cold start sketches everything");
        assert_eq!(ld.reused_last_learn, 0);
        assert_eq!(ld.sketches, 6);
        assert_eq!(ld.dirty, 0);

        engine.upsert_config("dev2", "hostname DEV902\nvlan 902\n");
        assert_eq!(engine.snapshot_stats().learn_delta.dirty, 1);
        engine.relearn();
        let ld = engine.snapshot_stats().learn_delta;
        assert_eq!(ld.mined_last_learn, 1, "only the edited config re-mines");
        assert_eq!(ld.reused_last_learn, 5);

        // A no-edit relearn reuses every sketch.
        engine.relearn();
        let ld = engine.snapshot_stats().learn_delta;
        assert_eq!(ld.mined_last_learn, 0);
        assert_eq!(ld.reused_last_learn, 6);
    }

    /// STATS `memory.sketch_bytes` is the heap of the cached sketches: an
    /// UPSERT drops the edited config's bytes, and the next LEARN
    /// restores them.
    #[test]
    fn sketch_bytes_follow_the_cached_sketches() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        let sketch_bytes = |engine: &Engine| engine.snapshot_stats().memory.sketch_bytes;
        assert_eq!(sketch_bytes(&engine), 0, "nothing sketched before a LEARN");
        engine.relearn();
        let learned = sketch_bytes(&engine);
        let i = engine.dataset.config_index("dev2").unwrap();
        let dev2 = engine.slots[i].sketch.as_ref().unwrap().heap_bytes() as u64;
        assert!(dev2 > 0 && dev2 < learned);

        let (_, text) = &corpus()[2];
        engine.upsert_config("dev2", "hostname DEV902\nvlan 902\n");
        assert_eq!(sketch_bytes(&engine), learned - dev2);
        engine.relearn();
        let edited = engine.slots[i].sketch.as_ref().unwrap().heap_bytes() as u64;
        assert_eq!(sketch_bytes(&engine), learned - dev2 + edited);

        engine.upsert_config("dev2", text);
        assert_eq!(sketch_bytes(&engine), learned - dev2);
        engine.relearn();
        assert_eq!(sketch_bytes(&engine), learned);
    }

    #[test]
    fn staleness_does_not_overshoot_when_the_corpus_grows() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        // Learned over 30 lines; a 90-line newcomer triples the corpus.
        let big: String = (0..90).map(|i| format!("vlan {}\n", 1000 + i)).collect();
        engine.upsert_config("dev-big", &big);
        let staleness = engine.staleness();
        assert!(
            staleness <= 1.0,
            "growth must not overshoot: got {staleness}"
        );
        // 90 changed lines over the grown 120-line corpus.
        assert!((staleness - 0.75).abs() < 1e-9, "got {staleness}");
    }

    #[test]
    fn staleness_does_not_double_discount_when_the_corpus_shrinks() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        // Learned over 30 lines; removing 3 configs churns 15 of them.
        for name in ["dev0", "dev1", "dev2"] {
            engine.remove_config(name);
        }
        let staleness = engine.staleness();
        // Against the shrunken 15-line corpus this would read 1.0,
        // double-discounting the removals already in the numerator.
        assert!((staleness - 0.5).abs() < 1e-9, "got {staleness}");

        // Removing everything still saturates and still fires a relearn.
        for name in ["dev3", "dev4", "dev5"] {
            engine.remove_config(name);
        }
        assert!((engine.staleness() - 1.0).abs() < 1e-9);
        let options = EngineOptions {
            staleness_threshold: 0.9,
            ..EngineOptions::default()
        };
        let mut engine = Engine::from_corpus(&corpus(), &[], options).unwrap();
        engine.relearn_if_stale();
        for name in ["dev0", "dev1", "dev2", "dev3", "dev4", "dev5"] {
            engine.remove_config(name);
        }
        assert!(engine.relearn_if_stale().is_some());
    }

    #[test]
    fn set_contracts_records_the_edit_generation_it_describes() {
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.relearn();
        let contracts = engine.contracts().unwrap().clone();

        engine.upsert_config("dev0", "vlan 77\n");
        assert!(engine.staleness() > 0.0);
        engine.set_contracts(contracts.clone());
        assert_eq!(engine.staleness(), 0.0, "caller asserts freshness");
        assert_eq!(engine.snapshot_stats().learn_delta.contracts_edits, 1);

        // Edits after the install accumulate staleness from that point.
        engine.upsert_config("dev1", "vlan 78\n");
        assert!(engine.staleness() > 0.0);
        let stats = engine.snapshot_stats();
        assert_eq!(stats.edits, 2);
        assert_eq!(
            stats.learn_delta.contracts_edits, 1,
            "contracts still describe edit 1"
        );
        engine.relearn();
        assert_eq!(engine.snapshot_stats().learn_delta.contracts_edits, 2);
    }

    /// Every config's sketch bundle, as the checkpoint path writes them.
    fn export_all_sketches(engine: &Engine) -> Vec<Json> {
        engine
            .generations()
            .iter()
            .map(|(name, _)| {
                Json::parse(&engine.export_sketch_for(name).expect("sketched"))
                    .expect("bundle parses")
            })
            .collect()
    }

    fn import_all(engine: &mut Engine, bundles: &[Json]) -> usize {
        bundles.iter().map(|b| engine.import_sketches(b)).sum()
    }

    #[test]
    fn sketches_round_trip_through_export_import() {
        let mut source = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        source.relearn();
        let bundles = export_all_sketches(&source);

        let mut restored = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        assert_eq!(import_all(&mut restored, &bundles), 6);
        assert_eq!(restored.snapshot_stats().learn_delta.sketches, 6);
        restored.relearn();
        let ld = restored.snapshot_stats().learn_delta;
        assert_eq!(ld.mined_last_learn, 0, "imported sketches are reused");
        assert_eq!(ld.reused_last_learn, 6);
        assert_eq!(
            restored.contracts().unwrap().to_json(),
            source.contracts().unwrap().to_json()
        );
    }

    #[test]
    fn import_sketches_rejects_stale_bundles() {
        let mut source = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        source.relearn();
        let bundles = export_all_sketches(&source);

        // A format-version mismatch drops the bundle.
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        for version in [SKETCH_FORMAT_VERSION - 1, SKETCH_FORMAT_VERSION + 1] {
            let mut wrong_version = bundles[0].clone();
            if let Json::Object(fields) = &mut wrong_version {
                for (k, v) in fields.iter_mut() {
                    if k == "version" {
                        *v = version.to_json();
                    }
                }
            }
            assert_eq!(engine.import_sketches(&wrong_version), 0);
        }

        // Learn-params mismatch drops the whole bundle: these sketches
        // were mined under different semantics.
        let options = EngineOptions {
            learn: LearnParams {
                support: 4,
                ..LearnParams::default()
            },
            ..EngineOptions::default()
        };
        let mut engine = Engine::from_corpus(&corpus(), &[], options).unwrap();
        assert_eq!(import_all(&mut engine, &bundles), 0);

        // A replaced config's entry is stale (generation moved on); the
        // other configs' bundles still import.
        let mut engine = Engine::from_corpus(&corpus(), &[], EngineOptions::default()).unwrap();
        engine.upsert_config("dev3", "vlan 9999\n");
        assert_eq!(import_all(&mut engine, &bundles), 5);
        assert_eq!(engine.snapshot_stats().learn_delta.dirty, 1);

        // An unknown config's entry is skipped too.
        let mut engine =
            Engine::from_corpus(&corpus()[..5], &[], EngineOptions::default()).unwrap();
        assert_eq!(import_all(&mut engine, &bundles), 5);
    }

    #[test]
    fn corrupt_persisted_sketches_are_dropped_not_fatal() {
        let mut image = EngineImage::from_corpus(&corpus(), &[]);
        image.configs[0].sketch = Some("{not json".to_string());
        let mut engine =
            Engine::from_image(&image, Lexer::standard(), EngineOptions::default()).unwrap();
        assert_eq!(engine.snapshot_stats().learn_delta.sketches, 0);
        // The next relearn simply re-mines everything.
        engine.relearn();
        assert_eq!(engine.snapshot_stats().learn_delta.mined_last_learn, 6);
    }

    #[test]
    fn metadata_flows_through_engine_edits() {
        let metadata = vec![("site.yaml".to_string(), "siteId: 9\n".to_string())];
        let mut engine =
            Engine::from_corpus(&corpus(), &metadata, EngineOptions::default()).unwrap();
        engine.relearn();
        engine.check_dirty().unwrap();
        engine.upsert_config("dev7", "vlan 901\n");
        let incremental = engine.check_dirty().unwrap();
        let (report, _) = batch(&engine);
        assert_reports_equal(&incremental.report, &report);
        let ds = engine.dataset();
        assert!(ds
            .configs
            .iter()
            .all(|c| (0..c.len()).any(|li| c.is_meta(li))));
    }
}
