//! Panic isolation, graceful degradation, and durable state for the
//! engine.
//!
//! [`ResilientEngine`] wraps an [`Engine`] with three guarantees the
//! raw engine does not make:
//!
//! 1. **Panic isolation.** Every operation runs under
//!    [`std::panic::catch_unwind`]. A panic escaping the engine marks
//!    the live snapshot *poisoned* — its incremental caches can no
//!    longer be trusted — and the wrapper immediately rebuilds a fresh
//!    engine from the last-known-good [`EngineImage`], which the
//!    panicking operation never touched (the image is only updated
//!    *after* an operation succeeds). The rebuild is oracle-equivalent
//!    by construction: a from-scratch engine over the same corpus and
//!    contracts, so the next check is byte-identical to a batch run.
//! 2. **Durability.** With a [`StateDir`] attached, every successful
//!    mutation is appended to an fsync'd WAL before it is acknowledged,
//!    and the image is checkpointed atomically every
//!    `checkpoint_every` appends. A killed process resumes from
//!    snapshot + WAL replay exactly where it stopped.
//! 3. **Deterministic fault injection.** Tests arm panics per
//!    operation kind ([`ResilientEngine::arm_panic`]); the injected
//!    panic fires inside the guarded region, exercising the real
//!    recovery path with no timing dependence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use concord_core::{
    ContractSet, DatasetError, EngineStats, LearnStats, MemoryStats, RobustnessStats, StorageStats,
};
use concord_lexer::Lexer;

use crate::image::{EngineImage, ImageError};
use crate::store::{StateDir, StoreError};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{WalOp, WalRecord};
use crate::{CheckParts, ConfigId, Engine, EngineCheckReport, EngineError, EngineOptions};

/// Bounded retries before a failing append/checkpoint degrades the
/// engine to read-only. Attempt `n` sleeps `1 << (n - 1)` ms first
/// (1/2/4 ms), so a transient hiccup is absorbed in under 10 ms.
const STORAGE_RETRY_LIMIT: u32 = 3;

/// The operation kinds a fault can be armed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`ResilientEngine::upsert`].
    Upsert,
    /// [`ResilientEngine::remove`].
    Remove,
    /// [`ResilientEngine::relearn`].
    Learn,
    /// [`ResilientEngine::set_contracts_json`].
    SetContracts,
    /// [`ResilientEngine::check`].
    Check,
    /// [`ResilientEngine::snapshot_stats`].
    Stats,
}

impl OpKind {
    /// Parses the lowercase name used by the serve protocol's
    /// fault-injection verb.
    pub fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "upsert" => OpKind::Upsert,
            "remove" => OpKind::Remove,
            "learn" => OpKind::Learn,
            "set-contracts" => OpKind::SetContracts,
            "check" => OpKind::Check,
            "stats" => OpKind::Stats,
            _ => return None,
        })
    }
}

/// Why a resilient-engine operation failed. Every variant leaves the
/// engine usable for the next request (possibly after an internal
/// rebuild), except [`EngineFault::Poisoned`] which reports that the
/// rebuild itself failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineFault {
    /// A named configuration does not exist.
    UnknownConfig(String),
    /// No contracts are loaded yet.
    NoContracts,
    /// A supplied contract set failed to parse.
    BadContracts(String),
    /// The operation panicked; the engine was rebuilt from the
    /// last-known-good image and the operation was *not* applied.
    Panicked(String),
    /// The operation was applied in memory but could not be made
    /// durable (WAL append failed).
    Persist(String),
    /// Storage is persistently failing: the engine is in degraded
    /// read-only mode. Reads keep serving from the resident snapshot;
    /// writes are rejected until a re-probe succeeds.
    StorageDegraded(String),
    /// The engine is poisoned and could not be rebuilt.
    Poisoned,
}

impl std::fmt::Display for EngineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineFault::UnknownConfig(name) => write!(f, "unknown config {name:?}"),
            EngineFault::NoContracts => f.write_str("no contracts loaded"),
            EngineFault::BadContracts(e) => write!(f, "bad contracts: {e}"),
            EngineFault::Panicked(msg) => write!(f, "operation panicked: {msg}"),
            EngineFault::Persist(e) => write!(f, "persistence failed: {e}"),
            EngineFault::StorageDegraded(e) => {
                write!(f, "storage degraded, serving read-only: {e}")
            }
            EngineFault::Poisoned => f.write_str("engine poisoned and rebuild failed"),
        }
    }
}

impl std::error::Error for EngineFault {}

/// Why a [`ResilientEngine`] could not boot.
#[derive(Debug)]
pub enum BootError {
    /// The seed corpus failed to build.
    Dataset(DatasetError),
    /// The state directory was unreadable.
    Store(StoreError),
    /// The persisted image failed to decode or rebuild.
    Image(ImageError),
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Dataset(e) => write!(f, "building seed corpus: {e}"),
            BootError::Store(e) => write!(f, "opening state dir: {e}"),
            BootError::Image(e) => write!(f, "restoring snapshot: {e}"),
        }
    }
}

impl std::error::Error for BootError {}

impl From<DatasetError> for BootError {
    fn from(e: DatasetError) -> BootError {
        BootError::Dataset(e)
    }
}

impl From<StoreError> for BootError {
    fn from(e: StoreError) -> BootError {
        BootError::Store(e)
    }
}

impl From<ImageError> for BootError {
    fn from(e: ImageError) -> BootError {
        BootError::Image(e)
    }
}

/// A fault-isolated, optionally durable [`Engine`] wrapper.
pub struct ResilientEngine {
    /// `None` while poisoned (a panic escaped and the rebuild failed).
    engine: Option<Engine>,
    /// Last-known-good pure-data mirror; never touched by a failing op.
    image: EngineImage,
    lexer: Lexer,
    options: EngineOptions,
    store: Option<StateDir>,
    robustness: RobustnessStats,
    /// The next successful check runs on a freshly rebuilt engine and
    /// is counted as degraded (recomputed from scratch, still exact).
    degraded_pending: bool,
    /// Armed fault injections, consumed one per matching operation.
    armed: Vec<OpKind>,
    checkpoint_every: u64,
    appends_since_checkpoint: u64,
    /// Cumulative segmented-checkpoint counters: only the `segments_*`
    /// fields move; the engine's own accounting fills the rest.
    checkpoint_memory: MemoryStats,
    /// The storage-health counters the engine itself keeps (the store
    /// counts injected faults and GC errors). While `degraded`, storage
    /// is persistently failing: writes are rejected, reads keep serving
    /// from the resident snapshot, and every write attempt re-probes the
    /// storage stack for recovery.
    storage: StorageStats,
}

impl ResilientEngine {
    /// Builds a memory-only resilient engine over a corpus.
    pub fn new(
        configs: &[(String, String)],
        metadata: &[(String, String)],
        lexer: Lexer,
        options: EngineOptions,
    ) -> Result<ResilientEngine, DatasetError> {
        let image = EngineImage::from_corpus(configs, metadata);
        let engine = Engine::from_image_corpus(&image, lexer.clone(), options.clone())?;
        Ok(Self::assemble(engine, image, lexer, options, None))
    }

    /// Wraps a live `engine` built from `image`, with every counter at
    /// zero and no fault armed.
    fn assemble(
        engine: Engine,
        image: EngineImage,
        lexer: Lexer,
        options: EngineOptions,
        store: Option<StateDir>,
    ) -> ResilientEngine {
        ResilientEngine {
            engine: Some(engine),
            image,
            lexer,
            options,
            store,
            robustness: RobustnessStats::default(),
            degraded_pending: false,
            armed: Vec::new(),
            checkpoint_every: 64,
            appends_since_checkpoint: 0,
            checkpoint_memory: MemoryStats::default(),
            storage: StorageStats::default(),
        }
    }

    /// Builds a durable resilient engine backed by `dir`. A fresh
    /// directory is seeded from `configs` and checkpointed immediately;
    /// a directory with a usable snapshot resumes from it (plus WAL
    /// replay) and **ignores** `configs`. Returns whether the engine
    /// resumed from persisted state.
    pub fn with_store(
        configs: &[(String, String)],
        metadata: &[(String, String)],
        lexer: Lexer,
        options: EngineOptions,
        dir: &Path,
    ) -> Result<(ResilientEngine, bool), BootError> {
        Self::with_store_vfs(configs, metadata, lexer, options, dir, Arc::new(RealVfs))
    }

    /// Like [`ResilientEngine::with_store`] but with every filesystem
    /// operation routed through `vfs` — the fault-injection and
    /// crash-point entry point.
    pub fn with_store_vfs(
        configs: &[(String, String)],
        metadata: &[(String, String)],
        lexer: Lexer,
        options: EngineOptions,
        dir: &Path,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(ResilientEngine, bool), BootError> {
        let (store, load) = StateDir::open_vfs(dir, vfs)?;
        let resumed = load.image.is_some();
        let mut me = match load.image {
            Some(image) => {
                let engine = Engine::from_image(&image, lexer.clone(), options.clone())?;
                Self::assemble(engine, image, lexer, options, Some(store))
            }
            None => {
                let mut me = Self::new(configs, metadata, lexer, options)?;
                me.store = Some(store);
                me
            }
        };
        if !load.replay.is_empty() {
            me.robustness.wal_replays += 1;
            me.robustness.wal_records_replayed += load.replay.len() as u64;
            for record in &load.replay {
                me.replay(record);
            }
        }
        // Fold the replayed (or seeded) state into a fresh checkpoint
        // so the next crash replays from here.
        me.checkpoint();
        Ok((me, resumed))
    }

    /// The last-known-good image (also the soak oracle's input).
    pub fn image(&self) -> &EngineImage {
        &self.image
    }

    /// Robustness counters accumulated so far.
    pub fn robustness(&self) -> RobustnessStats {
        self.robustness
    }

    /// Sets the auto-checkpoint cadence (`0` disables auto
    /// checkpoints; explicit [`ResilientEngine::checkpoint`] calls
    /// still work).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.checkpoint_every = every;
    }

    /// Arms one injected panic against the next operation of `kind`.
    /// Test support: the panic fires inside the guarded region, so it
    /// exercises the exact production recovery path.
    pub fn arm_panic(&mut self, kind: OpKind) {
        self.armed.push(kind);
    }

    /// Whether the engine is currently poisoned (rebuild failed).
    pub fn poisoned(&self) -> bool {
        self.engine.is_none()
    }

    /// The edit generation of `name`, if it exists.
    pub fn config_generation(&self, name: &str) -> Result<Option<u64>, EngineFault> {
        Ok(self
            .engine
            .as_ref()
            .ok_or(EngineFault::Poisoned)?
            .config_generation(name))
    }

    /// The incremental-learn cache counters of the live engine.
    pub fn learn_delta(&self) -> Result<concord_core::LearnDeltaStats, EngineFault> {
        Ok(self
            .engine
            .as_ref()
            .ok_or(EngineFault::Poisoned)?
            .learn_delta())
    }

    /// The loaded contract set, if any, as a shared handle.
    pub fn contracts(&self) -> Result<Option<Arc<ContractSet>>, EngineFault> {
        Ok(self
            .engine
            .as_ref()
            .ok_or(EngineFault::Poisoned)?
            .shared_contracts())
    }

    /// Inserts or replaces one configuration.
    pub fn upsert(&mut self, name: &str, text: &str) -> Result<ConfigId, EngineFault> {
        let op = WalOp::Upsert {
            name: name.to_string(),
            text: text.to_string(),
        };
        match self.write(OpKind::Upsert, op)? {
            Applied::Upserted(id) => Ok(id),
            _ => unreachable!("an upsert applies as one"),
        }
    }

    /// Removes one configuration; `Ok(None)` when it did not exist.
    pub fn remove(&mut self, name: &str) -> Result<Option<ConfigId>, EngineFault> {
        let op = WalOp::Remove {
            name: name.to_string(),
        };
        match self.write(OpKind::Remove, op)? {
            Applied::Removed(id) => Ok(id),
            _ => unreachable!("a remove applies as one"),
        }
    }

    /// Learns a fresh contract set from the current snapshot.
    pub fn relearn(&mut self) -> Result<LearnStats, EngineFault> {
        match self.write(OpKind::Learn, WalOp::Learn)? {
            Applied::Learned(stats) => Ok(stats),
            _ => unreachable!("a learn applies as one"),
        }
    }

    /// Swaps in a contract set from its JSON serialization, returning
    /// the number of contracts loaded.
    pub fn set_contracts_json(&mut self, json: &str) -> Result<usize, EngineFault> {
        let op = WalOp::SetContracts {
            json: json.to_string(),
        };
        match self.write(OpKind::SetContracts, op)? {
            Applied::ContractsSet(len) => Ok(len),
            _ => unreachable!("a contract swap applies as one"),
        }
    }

    /// Checks the current snapshot (incremental when the engine is
    /// healthy, full-recompute right after a recovery — both exact).
    pub fn check(&mut self) -> Result<EngineCheckReport, EngineFault> {
        self.checked(Engine::check_dirty)
    }

    /// Checks the current snapshot and returns the unassembled
    /// per-configuration parts (see [`Engine::check_parts`]) — the
    /// sharded fleet's CHECK primitive. Guarded exactly like
    /// [`ResilientEngine::check`]: an armed `Check` fault fires inside
    /// this path too, and a post-recovery run counts as degraded.
    pub fn check_parts(&mut self) -> Result<CheckParts, EngineFault> {
        self.checked(Engine::check_parts)
    }

    /// Runs one check under the `Check` guard, counting the first
    /// successful check after a recovery as degraded.
    fn checked<T>(
        &mut self,
        check: impl FnOnce(&mut Engine) -> Result<T, EngineError>,
    ) -> Result<T, EngineFault> {
        let result = self.guarded(OpKind::Check, check)?;
        let value = result.map_err(|e| match e {
            EngineError::NoContracts => EngineFault::NoContracts,
        })?;
        if self.degraded_pending {
            self.robustness.degraded_checks += 1;
            self.degraded_pending = false;
        }
        Ok(value)
    }

    /// Engine statistics with the robustness counters and segmented-
    /// checkpoint counters attached.
    pub fn snapshot_stats(&mut self) -> Result<EngineStats, EngineFault> {
        let mut stats = self.guarded(OpKind::Stats, |e| e.snapshot_stats())?;
        stats.robustness = Some(self.robustness);
        stats.memory.accumulate(&self.checkpoint_memory);
        stats.storage = Some(self.storage_stats());
        Ok(stats)
    }

    /// Whether the engine is in degraded read-only mode (storage is
    /// persistently failing; reads still serve from the snapshot).
    pub fn degraded(&self) -> bool {
        self.storage.degraded
    }

    /// The storage-health counters (v10 `storage` stats and the serve
    /// protocol's `HEALTH` verb). All zero for a memory-only engine.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            faults_injected: self.store.as_ref().map_or(0, StateDir::injected_faults),
            gc_remove_errors: self.store.as_ref().map_or(0, StateDir::gc_remove_errors),
            ..self.storage
        }
    }

    /// Checkpoints now (no-op without a store). Returns whether a
    /// checkpoint was written; failures are counted, not fatal.
    pub fn checkpoint(&mut self) -> bool {
        if self.store.is_none() {
            return false;
        }
        // Learn sketches are derived state synced into the image only
        // here, not per-op: WAL replay reconstructs them (edits mark
        // configs dirty, a replayed Learn re-mines), so serializing them
        // on every append would be wasted work. An image config only
        // needs a fill when its sketch is `None` — at a fixed
        // (id, generation) a sketch is written at most once, so a
        // `Some` is already final and the segment holding it can be
        // skipped by the store. The image mirrors the engine's
        // name-sorted configurations index for index, so the two are
        // walked together rather than looked up by name.
        if let Some(engine) = self.engine.as_ref() {
            let names = engine.dataset();
            let mut bundle = String::new();
            assert_eq!(
                self.image.configs.len(),
                names.configs.len(),
                "the image mirrors the engine's configurations"
            );
            for (i, config) in self.image.configs.iter_mut().enumerate() {
                assert_eq!(
                    config.name,
                    names.config_name(i),
                    "the image mirrors the engine's configuration order"
                );
                if config.sketch.is_none() {
                    bundle.clear();
                    if engine.write_sketch_at(i, &mut bundle) {
                        config.sketch = Some(bundle.clone());
                    }
                }
            }
        }
        let mut attempt = 0u32;
        loop {
            let Some(store) = self.store.as_mut() else {
                return false;
            };
            match store.checkpoint(&self.image) {
                Ok(stats) => {
                    self.note_storage_ok();
                    self.robustness.checkpoints += 1;
                    self.checkpoint_memory.segments_written += stats.segments_written;
                    self.checkpoint_memory.segments_skipped += stats.segments_skipped;
                    self.appends_since_checkpoint = 0;
                    return true;
                }
                Err(e) => {
                    if !e.retryable() || attempt >= STORAGE_RETRY_LIMIT {
                        self.robustness.persist_errors += 1;
                        self.note_storage_degraded();
                        return false;
                    }
                    attempt += 1;
                    self.storage.retries += 1;
                    std::thread::sleep(Duration::from_millis(1u64 << (attempt - 1)));
                }
            }
        }
    }

    /// Runs `f` on the live engine under `catch_unwind`, poisoning and
    /// rebuilding on escape.
    fn guarded<T>(
        &mut self,
        kind: OpKind,
        f: impl FnOnce(&mut Engine) -> T,
    ) -> Result<T, EngineFault> {
        self.ensure_engine()?;
        let inject = self.take_armed(kind);
        let engine = self.engine.as_mut().ok_or(EngineFault::Poisoned)?;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected fault: {kind:?}");
            }
            f(engine)
        }));
        match result {
            Ok(value) => Ok(value),
            Err(payload) => {
                let msg = panic_message(payload);
                self.engine = None;
                self.rebuild_from_image();
                Err(EngineFault::Panicked(msg))
            }
        }
    }

    /// Rebuilds from the last-known-good image, guarding the rebuild
    /// itself (a panic there leaves the engine poisoned).
    fn rebuild_from_image(&mut self) {
        let rebuilt = catch_unwind(AssertUnwindSafe(|| {
            Engine::from_image(&self.image, self.lexer.clone(), self.options.clone())
        }));
        match rebuilt {
            Ok(Ok(engine)) => {
                self.engine = Some(engine);
                self.robustness.panics_recovered += 1;
                self.degraded_pending = true;
            }
            Ok(Err(_)) | Err(_) => {
                self.engine = None;
            }
        }
    }

    fn ensure_engine(&mut self) -> Result<(), EngineFault> {
        if self.engine.is_none() {
            self.rebuild_from_image();
        }
        if self.engine.is_none() {
            return Err(EngineFault::Poisoned);
        }
        Ok(())
    }

    fn take_armed(&mut self, kind: OpKind) -> bool {
        match self.armed.iter().position(|k| *k == kind) {
            Some(i) => {
                self.armed.remove(i);
                true
            }
            None => false,
        }
    }

    /// Appends one op to the WAL (when a store is attached), advancing
    /// `applied_seq` and auto-checkpointing on cadence.
    ///
    /// A failed append is retried up to [`STORAGE_RETRY_LIMIT`] times
    /// with exponential backoff; the WAL tail is repaired between
    /// attempts, because a mid-write failure can leave a torn line that
    /// would bury the retried record where replay cannot see it.
    /// Exhausting the retries (or a non-retryable corruption error)
    /// degrades the engine to read-only.
    fn log(&mut self, op: WalOp) -> Result<(), EngineFault> {
        if self.store.is_none() {
            return Ok(());
        }
        let mut attempt = 0u32;
        loop {
            let store = self.store.as_mut().expect("store attached");
            match store.append(&op) {
                Ok(seq) => {
                    self.note_storage_ok();
                    self.image.applied_seq = seq;
                    self.appends_since_checkpoint += 1;
                    if self.checkpoint_every > 0
                        && self.appends_since_checkpoint >= self.checkpoint_every
                    {
                        self.checkpoint();
                    }
                    return Ok(());
                }
                Err(e) => {
                    if !e.retryable() || attempt >= STORAGE_RETRY_LIMIT {
                        self.robustness.persist_errors += 1;
                        self.note_storage_degraded();
                        return Err(EngineFault::StorageDegraded(e.to_string()));
                    }
                    attempt += 1;
                    self.storage.retries += 1;
                    // Repair the torn tail before retrying; if the
                    // repair itself fails, the retried append surfaces
                    // the same error and the loop degrades as usual.
                    let store = self.store.as_mut().expect("store attached");
                    let _ = store.recover_wal();
                    std::thread::sleep(Duration::from_millis(1u64 << (attempt - 1)));
                }
            }
        }
    }

    /// A write-path operation succeeded: leave degraded mode if we were
    /// in it.
    fn note_storage_ok(&mut self) {
        if self.storage.degraded {
            self.storage.degraded = false;
            self.storage.recoveries += 1;
        }
    }

    /// A write-path operation failed after retries: enter degraded
    /// read-only mode (idempotent).
    fn note_storage_degraded(&mut self) {
        if !self.storage.degraded {
            self.storage.degraded = true;
            self.storage.degraded_transitions += 1;
        }
    }

    /// Gate at the top of every mutation. Healthy engines pass through;
    /// a degraded engine re-probes the storage stack (repairing the WAL
    /// tail first, since the failure that degraded us may have torn it)
    /// and either recovers or rejects the write without touching the
    /// in-memory snapshot — degraded mode is genuinely read-only.
    fn ensure_writable(&mut self) -> Result<(), EngineFault> {
        if !self.storage.degraded {
            return Ok(());
        }
        let Some(store) = self.store.as_mut() else {
            self.storage.degraded = false;
            return Ok(());
        };
        match store.recover_wal().and_then(|()| store.probe()) {
            Ok(()) => {
                self.note_storage_ok();
                Ok(())
            }
            Err(e) => Err(EngineFault::StorageDegraded(e.to_string())),
        }
    }

    /// A live write: the engine step under the panic guard, the image
    /// step, then the WAL append. A remove of an absent configuration
    /// changes nothing and logs nothing; a contract swap logs the set as
    /// the engine holds it.
    fn write(&mut self, kind: OpKind, op: WalOp) -> Result<Applied, EngineFault> {
        self.ensure_writable()?;
        let applied = self.guarded(kind, |e| engine_step(e, &op))??;
        self.mirror(&op);
        match (op, &applied) {
            (WalOp::Remove { .. }, Applied::Removed(None)) => {}
            (WalOp::SetContracts { .. }, _) => self.log(WalOp::SetContracts {
                json: self.image.contracts.clone().unwrap_or_default(),
            })?,
            (op, _) => self.log(op)?,
        }
        Ok(applied)
    }

    /// Applies one replayed WAL record: the same engine and image steps
    /// as a live write, without the guard (a panic here fails the boot)
    /// and without re-logging.
    fn replay(&mut self, record: &WalRecord) {
        if let Some(engine) = self.engine.as_mut() {
            if engine_step(engine, &record.op).is_ok() {
                self.mirror(&record.op);
            }
        }
        self.image.applied_seq = record.seq;
    }

    /// The image step of a write the engine applied: the image records
    /// the text with the id and generation the engine assigned, the set
    /// the engine now holds, and the engine's counters.
    fn mirror(&mut self, op: &WalOp) {
        let Some(engine) = self.engine.as_ref() else {
            return;
        };
        match op {
            WalOp::Upsert { name, .. } => {
                if let (Some(id), Some(generation), Some(text)) = (
                    engine.config_id(name),
                    engine.config_generation(name),
                    engine.config_text(name),
                ) {
                    self.image.upsert(name, Arc::clone(text), id.0, generation);
                }
            }
            WalOp::Remove { name } => {
                self.image.remove(name);
            }
            WalOp::Learn | WalOp::SetContracts { .. } => {
                self.image.contracts = engine.contracts().map(ContractSet::to_json);
            }
        }
        self.image.counters = engine.counters();
    }
}

/// What the engine step of one write returned.
enum Applied {
    Upserted(ConfigId),
    Removed(Option<ConfigId>),
    Learned(LearnStats),
    ContractsSet(usize),
}

/// The engine step every write runs, live or replayed.
fn engine_step(engine: &mut Engine, op: &WalOp) -> Result<Applied, EngineFault> {
    Ok(match op {
        WalOp::Upsert { name, text } => Applied::Upserted(engine.upsert_config(name, text)),
        WalOp::Remove { name } => Applied::Removed(engine.remove_config(name)),
        WalOp::Learn => Applied::Learned(engine.relearn()),
        WalOp::SetContracts { json } => {
            let contracts = ContractSet::from_json(json)
                .map_err(|e| EngineFault::BadContracts(e.to_string()))?;
            let len = contracts.len();
            engine.set_contracts(contracts);
            Applied::ContractsSet(len)
        }
    })
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn corpus() -> Vec<(String, String)> {
        (0..6)
            .map(|i| {
                (
                    format!("dev{i}"),
                    format!("hostname DEV{}\nvlan {}\nmtu 1500\n", 100 + i, 250 + i),
                )
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("resilient-{tag}"))
    }

    fn oracle_report(me: &ResilientEngine) -> crate::EngineCheckReport {
        let image = me.image();
        let mut oracle =
            Engine::from_corpus(&image.corpus(), &image.metadata, EngineOptions::default())
                .expect("oracle builds");
        if let Some(json) = &image.contracts {
            oracle.set_contracts(ContractSet::from_json(json).expect("contracts parse"));
        }
        oracle.check_dirty().expect("oracle checks")
    }

    #[test]
    fn injected_panic_recovers_and_next_check_matches_oracle() {
        let mut me =
            ResilientEngine::new(&corpus(), &[], Lexer::standard(), EngineOptions::default())
                .expect("builds");
        me.relearn().expect("learns");
        me.check().expect("checks");

        me.arm_panic(OpKind::Upsert);
        let err = me.upsert("dev0", "vlan 999\n").expect_err("panic injected");
        assert!(matches!(err, EngineFault::Panicked(_)), "{err:?}");
        assert!(!me.poisoned(), "rebuilt eagerly");
        assert_eq!(me.robustness().panics_recovered, 1);

        // The failed upsert must NOT have been applied.
        let got = me.check().expect("post-recovery check");
        assert_eq!(me.robustness().degraded_checks, 1);
        let want = oracle_report(&me);
        assert_eq!(got.report.violations, want.report.violations);

        // And the engine is fully usable: the same upsert now succeeds.
        me.upsert("dev0", "vlan 999\n")
            .expect("works after recovery");
        let got = me.check().expect("checks");
        let want = oracle_report(&me);
        assert_eq!(got.report.violations, want.report.violations);
    }

    #[test]
    fn panic_during_check_recovers_too() {
        let mut me =
            ResilientEngine::new(&corpus(), &[], Lexer::standard(), EngineOptions::default())
                .expect("builds");
        me.relearn().expect("learns");
        me.arm_panic(OpKind::Check);
        assert!(matches!(me.check(), Err(EngineFault::Panicked(_))));
        let got = me.check().expect("recovered");
        let want = oracle_report(&me);
        assert_eq!(got.report.violations, want.report.violations);
    }

    #[test]
    fn durable_engine_resumes_after_drop_without_checkpoint() {
        let dir = tmp_dir("resume");
        let (mut me, resumed) = ResilientEngine::with_store(
            &corpus(),
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("boots");
        assert!(!resumed);
        me.set_checkpoint_every(0); // force crash-style WAL-only recovery
        me.relearn().expect("learns");
        me.upsert("dev0", "vlan 999\nmtu 9000\n").expect("upserts");
        me.remove("dev5").expect("removes");
        let want_gens = {
            let e = me.engine.as_ref().expect("live");
            e.generations()
        };
        let want = me.check().expect("checks").report;
        drop(me); // simulated kill: no checkpoint since the edits

        let (mut back, resumed) = ResilientEngine::with_store(
            &[],
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("reboots");
        assert!(resumed);
        assert!(back.robustness().wal_replays >= 1);
        assert_eq!(back.engine.as_ref().expect("live").generations(), want_gens);
        let got = back.check().expect("checks").report;
        assert_eq!(got.violations, want.violations);
        assert_eq!(
            got.coverage.per_config.len(),
            want.coverage.per_config.len()
        );
    }

    #[test]
    fn image_records_the_ids_and_generations_the_engine_assigned() {
        let dir = tmp_dir("ids");
        let boot = |configs: &[(String, String)]| {
            let (me, _) = ResilientEngine::with_store(
                configs,
                &[],
                Lexer::standard(),
                EngineOptions::default(),
                &dir,
            )
            .expect("boots");
            me
        };
        let mirrors = |me: &ResilientEngine| {
            let engine = me.engine.as_ref().expect("live");
            let image = me.image();
            let gens: Vec<(String, u64)> = image
                .configs
                .iter()
                .map(|c| (c.name.clone(), c.generation))
                .collect();
            assert_eq!(gens, engine.generations());
            for c in &image.configs {
                assert_eq!(Some(ConfigId(c.id)), engine.config_id(&c.name));
            }
            assert_eq!(image.counters, engine.counters());
        };
        let mut me = boot(&corpus());
        me.set_checkpoint_every(0);
        for (name, text) in [
            ("dev1", "vlan 77\n"),
            ("aaa", "vlan 1\n"),
            ("dev1", "vlan 78\n"),
        ] {
            me.upsert(name, text).expect("upserts");
        }
        me.remove("dev3").expect("removes");
        assert_eq!(me.remove("dev3").expect("no-op"), None);
        me.upsert("dev3", "vlan 3\n").expect("re-inserts");
        mirrors(&me);
        let want = me.image().clone();
        drop(me);

        // Replayed from the WAL, the same writes leave the same image.
        let back = boot(&[]);
        mirrors(&back);
        assert_eq!(back.image(), &want);
    }

    #[test]
    fn sketches_survive_checkpoint_and_reboot() {
        let dir = tmp_dir("sketches");
        let (mut me, _) = ResilientEngine::with_store(
            &corpus(),
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("boots");
        me.relearn().expect("learns");
        me.checkpoint();
        let want_contracts = me
            .engine
            .as_ref()
            .expect("live")
            .contracts()
            .expect("learned")
            .to_json();
        drop(me); // simulated kill after the checkpoint

        let (mut back, resumed) = ResilientEngine::with_store(
            &[],
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("reboots");
        assert!(resumed);
        let ld = back.snapshot_stats().expect("stats").learn_delta;
        assert_eq!(ld.sketches, 6, "sketches restored from the snapshot");
        assert_eq!(ld.dirty, 0);

        // A relearn on the resumed engine reuses every persisted sketch
        // and reproduces the pre-crash contracts byte for byte.
        back.relearn().expect("relearns");
        let ld = back.snapshot_stats().expect("stats").learn_delta;
        assert_eq!(ld.mined_last_learn, 0);
        assert_eq!(ld.reused_last_learn, 6);
        assert_eq!(
            back.engine
                .as_ref()
                .expect("live")
                .contracts()
                .expect("learned")
                .to_json(),
            want_contracts
        );
    }

    #[test]
    fn kill_between_checkpoint_and_learn_replays_edits_over_stale_sketches() {
        let dir = tmp_dir("stale-sketches");
        let (mut me, _) = ResilientEngine::with_store(
            &corpus(),
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("boots");
        me.set_checkpoint_every(0);
        me.relearn().expect("learns");
        me.checkpoint();
        // Edits after the checkpoint live only in the WAL; the persisted
        // sketches for the edited configs are now stale.
        me.upsert("dev0", "vlan 999\nmtu 9000\n").expect("upserts");
        me.remove("dev5").expect("removes");
        me.relearn().expect("relearns");
        let want_contracts = me
            .engine
            .as_ref()
            .expect("live")
            .contracts()
            .expect("learned")
            .to_json();
        drop(me); // kill: sketches on disk predate the replayed edits

        let (back, resumed) = ResilientEngine::with_store(
            &[],
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("reboots");
        assert!(resumed);
        assert!(back.robustness().wal_replays >= 1);
        // The replayed Learn re-mined the edited configs over the
        // surviving sketches; the result matches the pre-kill learn.
        assert_eq!(
            back.engine
                .as_ref()
                .expect("live")
                .contracts()
                .expect("learned")
                .to_json(),
            want_contracts
        );
    }

    #[test]
    fn transient_storage_fault_is_absorbed_by_retries() {
        use crate::vfs::{FaultKind, FaultVfs};
        let dir = tmp_dir("retry");
        let fault = FaultVfs::new(0xA11);
        let (mut me, _) = ResilientEngine::with_store_vfs(
            &corpus(),
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
            Arc::new(fault.clone()),
        )
        .expect("boots");
        me.set_checkpoint_every(0);
        me.relearn().expect("learns");

        // One failing fsync on the next append: the retry loop must
        // absorb it and acknowledge the op.
        fault.fail_next_syncs(1, FaultKind::Eio);
        me.upsert("dev0", "vlan 999\n")
            .expect("retry absorbs fault");
        let storage = me.storage_stats();
        assert!(!storage.degraded);
        assert!(storage.retries >= 1, "{storage:?}");
        assert!(storage.faults_injected >= 1, "{storage:?}");
        assert_eq!(storage.degraded_transitions, 0);

        // The retried record must be replayable: reboot and compare.
        let want_gens = me.engine.as_ref().expect("live").generations();
        let want = me.check().expect("checks").report;
        drop(me);
        let (mut back, resumed) = ResilientEngine::with_store(
            &[],
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("reboots");
        assert!(resumed);
        assert!(back.robustness().wal_replays >= 1);
        assert_eq!(
            back.engine.as_ref().expect("live").generations(),
            want_gens,
            "the retried upsert survived the reboot"
        );
        let got = back.check().expect("checks").report;
        assert_eq!(got.violations, want.violations);
    }

    #[test]
    fn persistent_storage_failure_degrades_then_recovers() {
        use crate::vfs::{FaultKind, FaultVfs};
        let dir = tmp_dir("degrade");
        let fault = FaultVfs::new(0xDE6);
        let (mut me, _) = ResilientEngine::with_store_vfs(
            &corpus(),
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
            Arc::new(fault.clone()),
        )
        .expect("boots");
        me.set_checkpoint_every(0);
        me.relearn().expect("learns");
        me.check().expect("checks");

        // The disk goes persistently bad: the first write exhausts its
        // retries and flips the engine into degraded read-only mode.
        fault.fail_all_writes(Some(FaultKind::Eio));
        let err = me.upsert("dev0", "vlan 999\n").expect_err("disk is dead");
        assert!(matches!(err, EngineFault::StorageDegraded(_)), "{err:?}");
        assert!(me.degraded());
        let storage = me.storage_stats();
        assert_eq!(storage.degraded_transitions, 1);
        assert_eq!(storage.retries, STORAGE_RETRY_LIMIT as u64);

        // Degraded mode is genuinely read-only: rejected writes never
        // touch the in-memory snapshot...
        let err = me.upsert("brand-new", "vlan 1\n").expect_err("read-only");
        assert!(matches!(err, EngineFault::StorageDegraded(_)), "{err:?}");
        assert_eq!(
            me.config_generation("brand-new").expect("live"),
            None,
            "rejected write must not be applied"
        );
        // ...while reads keep serving from the resident snapshot.
        let got = me.check().expect("reads still work");
        let want = oracle_report(&me);
        assert_eq!(got.report.violations, want.report.violations);

        // Storage heals: the next write re-probes, recovers, and is
        // applied + durable again.
        fault.fail_all_writes(None);
        me.upsert("brand-new", "vlan 1\n").expect("recovered");
        assert!(!me.degraded());
        let storage = me.storage_stats();
        assert_eq!(storage.recoveries, 1);
        assert!(me.checkpoint(), "checkpoint works again");

        // The healed state (including the edit that triggered the
        // degrade, which the checkpoint persisted from the image) is
        // what a reboot sees.
        drop(me);
        let (mut back, resumed) = ResilientEngine::with_store(
            &[],
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("reboots");
        assert!(resumed);
        let got = back.check().expect("checks");
        let want = oracle_report(&back);
        assert_eq!(got.report.violations, want.report.violations);
        assert!(back
            .engine
            .as_ref()
            .expect("live")
            .config_generation("brand-new")
            .is_some());
    }

    #[test]
    fn stats_carry_robustness_counters() {
        let mut me =
            ResilientEngine::new(&corpus(), &[], Lexer::standard(), EngineOptions::default())
                .expect("builds");
        me.relearn().expect("learns");
        me.arm_panic(OpKind::Learn);
        assert!(me.relearn().is_err());
        let stats = me.snapshot_stats().expect("stats");
        let rob = stats.robustness.expect("attached");
        assert_eq!(rob.panics_recovered, 1);
    }

    /// Every file a durable session leaves in its state directory, as
    /// `path length fnv1a-64` lines sorted by path. The session runs
    /// LEARN, UPSERT, CHECKPOINT and UPSERT over a corpus whose texts and
    /// metadata carry a `"`, a `\`, a tab and a non-ASCII character, so
    /// the manifest and its backup, segments with and without sketches,
    /// and both WAL files hold every escape the writers make.
    ///
    /// These lines pin the on-disk format: a change to how the manifest,
    /// the segments, the sketches or the WAL records are written must
    /// leave them as they are. A learn change that alters the sketches
    /// or the contracts updates them on purpose, in the same change.
    #[test]
    fn state_dir_bytes_match_golden() {
        let dir = tmp_dir("golden");
        let text = |i: usize, site: &str| {
            format!(
                "hostname DEV{i}\ndescription \"uplink\\core-{i}\"\n\tmtu 9214\n\
                 location {site}\nvlan {}\n",
                250 + i
            )
        };
        let configs: Vec<(String, String)> = (0..6)
            .map(|i| (format!("dev{i}"), text(i, "Zürich")))
            .collect();
        let metadata = vec![(
            "site.json".to_string(),
            "{\"site\": \"Zürich\\\\dc\\t1\", \"vlans\": [250, 251, 252, 253, 254, 255]}\n"
                .to_string(),
        )];
        let (mut me, resumed) = ResilientEngine::with_store(
            &configs,
            &metadata,
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("boots");
        assert!(!resumed);
        me.set_checkpoint_every(0);
        me.relearn().expect("learns");
        me.upsert("dev1", &text(1, "Genève")).expect("upserts");
        assert!(me.checkpoint());
        me.upsert("dev3", &text(7, "Zürich")).expect("upserts");
        drop(me);

        let mut files: Vec<String> = Vec::new();
        for sub in ["", "segments"] {
            for entry in std::fs::read_dir(dir.join(sub)).expect("lists") {
                let entry = entry.expect("entry");
                if entry.file_type().expect("type").is_file() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    files.push(if sub.is_empty() {
                        name
                    } else {
                        format!("{sub}/{name}")
                    });
                }
            }
        }
        files.sort();
        let got: Vec<String> = files
            .iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(name)).expect("reads");
                format!(
                    "{name} {} {:016x}",
                    bytes.len(),
                    crate::router::fnv1a(&bytes)
                )
            })
            .collect();
        let want = [
            "manifest.json 2783 d416168c65e8ee68",
            "manifest.json.bak 573 84596bbb23468c64",
            "segments/cfg-0000000000000000-0000000000000000-0.seg 190 0b358fd532c0c1db",
            "segments/cfg-0000000000000000-0000000000000000-1.seg 4741 fc20e98d3636913d",
            "segments/cfg-0000000000000001-0000000000000000-0.seg 190 26ab54bd85cfe36b",
            "segments/cfg-0000000000000001-0000000000000001-0.seg 190 809bc673dfde2e31",
            "segments/cfg-0000000000000002-0000000000000000-0.seg 190 be46931abe316aed",
            "segments/cfg-0000000000000002-0000000000000000-1.seg 4741 d8004140e76ccb37",
            "segments/cfg-0000000000000003-0000000000000000-0.seg 190 b6f713a32ff9792c",
            "segments/cfg-0000000000000003-0000000000000000-1.seg 4741 3fd864a5da373f89",
            "segments/cfg-0000000000000004-0000000000000000-0.seg 190 01b86fd997c5a60f",
            "segments/cfg-0000000000000004-0000000000000000-1.seg 4726 c95a967e5afc1df5",
            "segments/cfg-0000000000000005-0000000000000000-0.seg 190 e84080524fe13ee6",
            "segments/cfg-0000000000000005-0000000000000000-1.seg 4741 cda1caf522ca980b",
            "wal.log 148 8ed576c367559fe4",
            "wal.log.old 180 aad3e45b831bb632",
        ];
        assert_eq!(got, want, "\n{}\n", got.join("\n"));
    }
}
