//! Per-stage pipeline instrumentation.
//!
//! [`PipelineStats`] aggregates the observable cost of one pipeline run:
//! dataset construction ([`BuildStats`] — embedding + lexing with cache
//! hit/miss counters, then pattern interning), learning
//! ([`LearnStats`](crate::LearnStats) — each miner, minimization), and checking ([`CheckStats`]). The CLI serializes it
//! with [`PipelineStats::to_json`] under `--stats json`; the schema is
//! documented in DESIGN.md ("Performance & instrumentation").

use std::collections::BTreeMap;
use std::time::Duration;

use concord_json::{Json, ToJson};

use crate::learn::LearnStats;

/// Schema identifier emitted in the JSON form, bumped on breaking
/// changes to the layout. v2 added the compiled-check fields
/// (`compile_secs`, `witness`, `categories`) to the `check` stage; v3
/// added the parallel-learn fields (`miner_parallelism`,
/// `relational_merge_secs`, `fanout_truncations`) to the `learn` stage;
/// v4 added the `engine` stage (incremental-engine counters: edits
/// absorbed, dirty vs reused configurations, reused lex entries, patched
/// vs rebuilt witness indexes); v5 added the robustness counters
/// (`engine.robustness`: requests rejected, deadlines hit, panics
/// recovered, WAL replays, degraded checks), per-configuration edit
/// generations (`engine.generations`), and lex-cache evictions; v6 added
/// the incremental-learning counters (`engine.learn_delta`: sketch cache
/// occupancy, configs re-sketched vs reused by the last relearn, and the
/// edit counter the current contracts were learned at); v7 added the
/// serve transport counters (`engine.serve`: connections, requests,
/// batches and batched sub-requests, binary frames, and reads served
/// under the shared lock vs exclusive engine operations); v8 added the
/// fleet object (`engine.fleet`: per-shard counters with applied WAL
/// sequence, robustness and WAL-follower lag, the router's hash
/// distribution, and one-pass summed totals — `null` outside `concord
/// serve`); v9 added the memory object
/// (`engine.memory`: arena-interner heap accounting for the
/// structure-of-arrays dataset — string/param/pattern-table/column
/// bytes and interned-entry counts — plus the segmented-checkpoint
/// scorecard of segments written vs skipped); v10 added the storage
/// object (`engine.storage`: injected storage faults, bounded-retry
/// attempts, degraded-mode transitions and recoveries, and GC removal
/// errors that were previously swallowed — plus the live degraded
/// flag surfaced by the serve `HEALTH` verb); v11 added
/// `engine.memory.sketch_bytes`, the heap held by the resident learn
/// sketches; v12 dropped `view_secs`, `simple_miners_secs` and
/// `miner_parallelism` from the `learn` stage, which learns by folding
/// per-config sketches with no occurrence view or concurrent miners,
/// and made each `learn.miners` entry the miner's sketch time summed
/// over the configs sketched plus its fold and emit; v13 dropped the
/// WAL-follower entries from each fleet shard and their read and lag
/// sums from the fleet totals, since the shard leader answers every
/// read; v14 added `engine.memory.outcome_bytes`, the heap held by the
/// cached per-configuration check outcomes.
pub const STATS_SCHEMA: &str = "concord-pipeline-stats/v14";

/// Statistics from one [`Dataset::build_with_stats`](crate::Dataset::build_with_stats) run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Number of configurations built.
    pub configs: usize,
    /// Total line records across all configurations (including appended
    /// metadata lines).
    pub lines: usize,
    /// Distinct patterns interned.
    pub patterns: usize,
    /// Wall-clock time embedding all files and lexing the metadata, plus
    /// the time the ordered intern pass spent scanning new line shapes.
    pub lex_time: Duration,
    /// Wall-clock time of the ordered intern pass less its scanning:
    /// shape lookups, interning and assembling the columns.
    pub intern_time: Duration,
    /// Whether a lex cache was in use.
    pub cache_enabled: bool,
    /// Lex-cache hits contributed by this build.
    pub cache_hits: u64,
    /// Lex-cache misses contributed by this build (distinct line shapes
    /// actually scanned). A build looks each distinct shape up once and
    /// counts its repeats as hits, so an unbounded cache reports what a
    /// lookup per line would.
    pub cache_misses: u64,
}

impl BuildStats {
    /// Lex-cache hit rate in `[0, 1]` for this build; `0` when the cache
    /// was disabled or unused.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

impl ToJson for BuildStats {
    fn to_json(&self) -> Json {
        concord_json::json!({
            "configs": self.configs,
            "lines": self.lines,
            "patterns": self.patterns,
            "lex_secs": self.lex_time.as_secs_f64(),
            "intern_secs": self.intern_time.as_secs_f64(),
            "cache": concord_json::json!({
                "enabled": self.cache_enabled,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate(),
            }),
        })
    }
}

/// Statistics from one checking run on the compiled engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Contracts checked.
    pub contracts: usize,
    /// Violations reported.
    pub violations: usize,
    /// Worker threads used.
    pub parallelism: usize,
    /// Wall-clock checking time (compile + execute + coverage).
    pub check_time: Duration,
    /// Time compiling the [`CheckProgram`](crate::CheckProgram).
    pub compile_time: Duration,
    /// Witness indexes built across all configurations (lazy — only
    /// probed consequent nodes are indexed).
    pub witness_indexes: u64,
    /// Total consequent occurrences indexed.
    pub witness_entries: u64,
    /// Relational antecedent probes issued.
    pub witness_probes: u64,
    /// Probes that found a witness (non-violations).
    pub witness_probe_hits: u64,
    /// Per-phase check time, in execution order (present, pattern,
    /// sequence, relational, unique, coverage). Summed across workers,
    /// so CPU time when `parallelism > 1`.
    pub category_times: Vec<(String, Duration)>,
}

impl CheckStats {
    /// Fraction of witness probes that found a witness (0 when no probes
    /// were issued).
    pub fn probe_hit_rate(&self) -> f64 {
        if self.witness_probes == 0 {
            0.0
        } else {
            self.witness_probe_hits as f64 / self.witness_probes as f64
        }
    }
}

impl ToJson for CheckStats {
    fn to_json(&self) -> Json {
        let categories = Json::Array(
            self.category_times
                .iter()
                .map(|(name, time)| {
                    concord_json::json!({
                        "name": name.as_str(),
                        "secs": time.as_secs_f64(),
                    })
                })
                .collect(),
        );
        concord_json::json!({
            "contracts": self.contracts,
            "violations": self.violations,
            "parallelism": self.parallelism,
            "check_secs": self.check_time.as_secs_f64(),
            "compile_secs": self.compile_time.as_secs_f64(),
            "witness": concord_json::json!({
                "indexes": self.witness_indexes,
                "entries": self.witness_entries,
                "probes": self.witness_probes,
                "probe_hits": self.witness_probe_hits,
                "hit_rate": self.probe_hit_rate(),
            }),
            "categories": categories,
        })
    }
}

impl ToJson for LearnStats {
    fn to_json(&self) -> Json {
        let miners = Json::Array(
            self.miner_times
                .iter()
                .map(|(name, time)| {
                    concord_json::json!({
                        "name": name.as_str(),
                        "secs": time.as_secs_f64(),
                    })
                })
                .collect(),
        );
        concord_json::json!({
            "miners": miners,
            "relational_secs": self.relational_time.as_secs_f64(),
            "relational_merge_secs": self.relational_merge_time.as_secs_f64(),
            "fanout_truncations": self.fanout_truncations,
            "minimize_secs": self.minimize_time.as_secs_f64(),
            "relational_before_minimization": self.relational_before_minimization,
            "relational_after_minimization": self.relational_after_minimization,
        })
    }
}

/// Field-wise sum of two counter sets: integers add, flags OR (a fleet is
/// degraded if any shard is), and nested records sum field by field.
trait Accumulate {
    fn accumulate(&mut self, other: &Self);
}

impl Accumulate for u64 {
    fn accumulate(&mut self, other: &u64) {
        *self += other;
    }
}

impl Accumulate for bool {
    fn accumulate(&mut self, other: &bool) {
        *self |= other;
    }
}

/// Declares a stats record whose JSON keys are its field names: the
/// struct as written, a [`ToJson`] that puts each field under its own
/// name in declaration order, and — for a record declared
/// `struct Name: Accumulate` — an `accumulate` that adds another record
/// into it field by field. A new metric is one field line.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $sum:ident)? {
            $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl ToJson for $name {
            fn to_json(&self) -> Json {
                Json::Object(vec![
                    $( (stringify!($field).to_string(), self.$field.to_json()), )*
                ])
            }
        }

        record!(@sum $name [$($sum)?] $($field)*);
    };
    (@sum $name:ident [] $($field:ident)*) => {};
    (@sum $name:ident [Accumulate] $($field:ident)*) => {
        impl $name {
            /// Adds another record into this one, field by field (the
            /// fleet rollup sums every shard's record in one pass).
            pub fn accumulate(&mut self, other: &$name) {
                $( Accumulate::accumulate(&mut self.$field, &other.$field); )*
            }
        }

        impl Accumulate for $name {
            fn accumulate(&mut self, other: &$name) {
                $name::accumulate(self, other);
            }
        }
    };
}

record! {
    /// Incremental counters of one `Engine::check_dirty` call: how much of
    /// the check was patched from the cache versus recomputed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineCheckStats {
        /// Configurations re-checked this call (dirty or invalidated).
        pub dirty_configs: usize,
        /// Configurations whose cached outcome was reused untouched.
        pub reused_configs: usize,
        /// Whether a resolution change (a contract set different from the
        /// one the cache was checked under, or an edit that re-resolved a
        /// contract pattern) forced a full cache invalidation. A swap to an
        /// equal set, such as a relearn that re-derives the held contracts,
        /// does not.
        pub resolution_invalidated: bool,
        /// Witness indexes rebuilt while re-checking dirty configurations.
        pub witness_indexes_rebuilt: u64,
        /// Witness indexes patched in place — carried over inside reused
        /// per-configuration outcomes instead of being rebuilt.
        pub witness_indexes_patched: u64,
    }
}

record! {
    /// Robustness counters of a fault-tolerant resident engine
    /// (`ResilientEngine` in `concord-engine` plus the `concord serve`
    /// transport layer): how often the hardening machinery actually fired.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RobustnessStats: Accumulate {
        /// Requests refused before touching the engine: load shedding
        /// (`err busy`), oversized lines/bodies, malformed or non-UTF-8
        /// input.
        pub requests_rejected: u64,
        /// Requests that hit their deadline (slow reads or engine-lock
        /// waits) and were answered with `err deadline`.
        pub deadlines_hit: u64,
        /// Worker panics caught, after which the engine was rebuilt from its
        /// last-known-good image.
        pub panics_recovered: u64,
        /// Startup recoveries that replayed a write-ahead log.
        pub wal_replays: u64,
        /// Individual WAL records applied across all replays.
        pub wal_records_replayed: u64,
        /// Snapshot checkpoints written (atomic rename + WAL rotation).
        pub checkpoints: u64,
        /// Checks served from a freshly rebuilt (post-recovery) engine — a
        /// full recompute instead of the incremental path.
        pub degraded_checks: u64,
        /// Persistence failures swallowed without losing in-memory state
        /// (WAL append or checkpoint I/O errors).
        pub persist_errors: u64,
    }
}

record! {
    /// Incremental-learning counters of a resident engine: the state of its
    /// per-configuration sketch cache and what the most recent relearn
    /// actually recomputed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LearnDeltaStats {
        /// Whether the engine relearns by folding cached sketches (the delta
        /// path) or always re-mines the full corpus (the oracle path).
        pub enabled: bool,
        /// Configurations with a cached sketch.
        pub sketches: usize,
        /// Configurations whose sketch is missing (edited since it was
        /// mined, or never mined).
        pub dirty: usize,
        /// Configurations re-sketched by the most recent relearn.
        pub mined_last_learn: u64,
        /// Configurations whose cached sketch the most recent relearn reused.
        pub reused_last_learn: u64,
        /// Value of the `edits` counter when the current contracts were
        /// learned or loaded — `edits - contracts_edits` edits have happened
        /// since, so `0` distance means the contracts describe the current
        /// snapshot.
        pub contracts_edits: u64,
    }
}

record! {
    /// Memory accounting for the arena-interned structure-of-arrays
    /// dataset and the resident learn sketches, plus the
    /// segmented-checkpoint scorecard (the v9 `memory` stats object). Byte
    /// figures are exact heap-allocation sums from the structures
    /// themselves, not RSS estimates, so they are stable across allocators
    /// and platforms.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MemoryStats: Accumulate {
        /// Bytes held by the interned-string arena (originals and names).
        pub string_arena_bytes: u64,
        /// Bytes held by the interned parameter-slice arena.
        pub param_arena_bytes: u64,
        /// Bytes held by the pattern table.
        pub pattern_table_bytes: u64,
        /// Bytes held by the per-config SoA line columns.
        pub column_bytes: u64,
        /// Bytes held by the resident per-config learn sketches (v11).
        pub sketch_bytes: u64,
        /// Bytes held by the cached per-config check outcomes: their
        /// violations with the strings, coverage bits and names, and the
        /// per-contract rows an edit-local recheck carries (v14).
        pub outcome_bytes: u64,
        /// Distinct strings interned (deduplicated across the corpus).
        pub interned_strings: u64,
        /// Distinct parameter slices interned.
        pub interned_param_slices: u64,
        /// Segment files written across all checkpoints of this process.
        pub segments_written: u64,
        /// Clean segments skipped (already durable) across all checkpoints.
        pub segments_skipped: u64,
    }
}

record! {
    /// Storage-fault counters of a durable resident engine (the v10
    /// `storage` stats object): what the fault-injecting VFS actually
    /// threw at the durability layer and how the engine absorbed it —
    /// bounded retries, degraded read-only transitions, and automatic
    /// recoveries once writes succeed again. Also surfaced by the serve
    /// `HEALTH` verb. Summed over shards, the fleet is degraded if any
    /// shard is.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StorageStats: Accumulate {
        /// Whether the engine is currently in degraded read-only mode
        /// (writes answer `err storage-degraded`; reads keep serving from
        /// the resident snapshot).
        pub degraded: bool,
        /// Faults injected by the VFS layer (0 on a passthrough `RealVfs`).
        pub faults_injected: u64,
        /// WAL-append / checkpoint attempts retried after a storage error
        /// (each backoff step counts once).
        pub retries: u64,
        /// Transitions into degraded read-only mode after the bounded
        /// retry budget was exhausted.
        pub degraded_transitions: u64,
        /// Automatic recoveries out of degraded mode once a write probe
        /// succeeded again.
        pub recoveries: u64,
        /// Segment-GC / WAL-rotation removals that failed — previously
        /// swallowed with `let _ =`, now counted and logged once.
        pub gc_remove_errors: u64,
    }
}

record! {
    /// Transport-layer counters of one `concord serve` process: how traffic
    /// actually reached the engine (connections, pipelined requests, BATCH
    /// amortization, binary frames) and the split between requests that
    /// only read engine state and requests that mutate it.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServeTransportStats {
        /// Connections accepted (stdin counts as one).
        pub connections: u64,
        /// Requests answered, across all connections and framings
        /// (BATCH counts as one request; its sub-commands are counted in
        /// `batched_requests`).
        pub requests: u64,
        /// BATCH requests executed.
        pub batches: u64,
        /// Sub-commands executed inside BATCH requests.
        pub batched_requests: u64,
        /// Requests that arrived as length-prefixed binary frames.
        pub binary_frames: u64,
        /// Requests (a BATCH counts once) that only read engine state:
        /// CHECK/GEN/STATS/CONTRACTS/HEALTH.
        pub shared_reads: u64,
        /// Requests (a BATCH counts once) that mutate engine state:
        /// UPSERT/REMOVE/LEARN/CHECKPOINT and fault verbs.
        pub exclusive_ops: u64,
    }
}

record! {
    /// One shard's slice of a [`FleetStats`] snapshot.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FleetShardStats {
        /// Shard index in router order.
        pub shard: usize,
        /// Configurations currently routed to this shard.
        pub configs: usize,
        /// Highest WAL sequence the shard leader has applied.
        pub applied_seq: u64,
        /// Reads counted on this shard: each GEN routed to it, and each
        /// CHECK that recomputes its parts. CONTRACTS and a CHECK answered
        /// from cached parts are not counted.
        pub reads: u64,
        /// Write verbs (UPSERT / REMOVE / contract swaps) executed on this
        /// shard leader.
        pub writes: u64,
        /// The shard leader's robustness counters.
        pub robustness: RobustnessStats,
    }
}

record! {
    /// One-pass sums over every shard in a [`FleetStats`] snapshot. Built by
    /// a single fold over the shard entries, so the totals and the per-shard
    /// objects come from the same snapshot and always agree (the v7 layout
    /// overlaid serve counters read-side, which could drift from the
    /// engine-held copies).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FleetTotals {
        /// Σ shard configs.
        pub configs: usize,
        /// Σ shard reads.
        pub reads: u64,
        /// Σ shard writes.
        pub writes: u64,
        /// Σ shard robustness counters, field by field.
        pub robustness: RobustnessStats,
    }
}

record! {
    /// Fleet-level statistics of a `concord serve` process (one shard
    /// unless `--shards`): the consistent-hash router's device
    /// distribution, per-shard counters, and one-pass
    /// summed totals. `None` in `EngineStats` outside `concord serve`.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FleetStats {
        /// Per-shard entries, in shard (router) order.
        pub shards: Vec<FleetShardStats>,
        /// Devices the router currently maps to each shard, in shard order —
        /// the observed hash distribution.
        pub router: Vec<usize>,
        /// One-pass sums over `shards` (see [`FleetStats::rollup`]).
        pub totals: FleetTotals,
    }
}

impl FleetStats {
    /// Folds the per-shard entries into [`FleetTotals`] in one pass.
    pub fn rollup(shards: &[FleetShardStats]) -> FleetTotals {
        let mut totals = FleetTotals::default();
        for shard in shards {
            totals.configs += shard.configs;
            totals.reads += shard.reads;
            totals.writes += shard.writes;
            totals.robustness.accumulate(&shard.robustness);
        }
        totals
    }
}

record! {
    /// Lex-cache reuse across a resident engine's lifetime (the engine's
    /// `lex_cache` object). Hits plus misses count the lines lexed: an
    /// upsert lexes only its edit window, so it adds the lines an edit
    /// can change, not every line of the upserted text.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LexCacheStats: Accumulate {
        /// Lines reused from the persistent cache instead of re-scanned.
        pub hits: u64,
        /// Lines scanned.
        pub misses: u64,
        /// Entries evicted (0 for an unbounded cache).
        pub evictions: u64,
    }
}

record! {
    /// A snapshot of a resident incremental engine (`Engine::snapshot_stats`
    /// in `concord-engine`): the versioned dataset, the edit/relearn history,
    /// and the lex-cache reuse across all edits absorbed so far.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct EngineStats {
        /// Configurations in the snapshot.
        pub configs: usize,
        /// Total line records (including appended metadata lines).
        pub lines: usize,
        /// Distinct interned patterns (append-only across edits).
        pub patterns: usize,
        /// Contracts currently loaded (`None` before the first learn/load).
        pub contracts: Option<usize>,
        /// Upserts + removes absorbed since the engine was built.
        pub edits: u64,
        /// Full relearns performed.
        pub relearns: u64,
        /// Configurations currently awaiting re-check.
        pub dirty_configs: usize,
        /// Fraction of lines changed since the last learn (the
        /// `relearn_if_stale` signal).
        pub staleness: f64,
        /// Lex-cache reuse across the engine's lifetime.
        pub lex_cache: LexCacheStats,
        /// Per-configuration edit generations by name. Survives crash
        /// recovery, so a restarted engine reports the same generations as
        /// an uninterrupted one.
        pub generations: BTreeMap<String, u64>,
        /// Counters of the most recent `check_dirty` call.
        pub last_check: Option<EngineCheckStats>,
        /// Fault-tolerance counters, when the engine runs behind the
        /// hardened serve layer (`None` for a bare `Engine`).
        pub robustness: Option<RobustnessStats>,
        /// Incremental-learning counters (sketch cache and last relearn).
        pub learn_delta: LearnDeltaStats,
        /// Arena/interner memory accounting and segmented-checkpoint
        /// counters.
        pub memory: MemoryStats,
        /// Storage-fault and degraded-mode counters, when the engine runs
        /// behind the hardened durability layer (`None` for a bare
        /// `Engine`).
        pub storage: Option<StorageStats>,
        /// Serve transport counters, when the stats were produced by a
        /// `concord serve` process (`None` for a bare engine).
        pub serve: Option<ServeTransportStats>,
        /// Fleet rollup, when the stats were produced by a `concord serve`
        /// process (`None` for a bare engine).
        pub fleet: Option<FleetStats>,
    }
}

/// Aggregated per-stage statistics for one CLI or harness invocation.
///
/// Stages that did not run (e.g. no checking in `learn`) stay `None` and
/// serialize as `null`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    /// Dataset construction (embed + lex + intern).
    pub build: Option<BuildStats>,
    /// Contract learning.
    pub learn: Option<LearnStats>,
    /// Contract checking.
    pub check: Option<CheckStats>,
    /// Incremental-engine state, when the run went through a resident
    /// engine (`concord-cli serve`) instead of the batch pipeline.
    pub engine: Option<EngineStats>,
    /// End-to-end wall-clock time of the instrumented run.
    pub total_time: Duration,
}

impl PipelineStats {
    /// Serializes to the documented [`STATS_SCHEMA`] object.
    pub fn to_json(&self) -> Json {
        concord_json::json!({
            "schema": STATS_SCHEMA,
            "total_secs": self.total_time.as_secs_f64(),
            "build": self.build,
            "learn": self.learn,
            "check": self.check,
            "engine": self.engine,
        })
    }

    /// Renders a human-readable multi-line summary (the `--stats text`
    /// form).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some(b) = &self.build {
            out.push_str(&format!(
                "build: {} configs, {} lines, {} patterns in {:.3}s lex + {:.3}s intern\n",
                b.configs,
                b.lines,
                b.patterns,
                b.lex_time.as_secs_f64(),
                b.intern_time.as_secs_f64(),
            ));
            if b.cache_enabled {
                out.push_str(&format!(
                    "  lex cache: {} hits / {} misses ({:.1}% hit rate)\n",
                    b.cache_hits,
                    b.cache_misses,
                    100.0 * b.cache_hit_rate(),
                ));
            } else {
                out.push_str("  lex cache: disabled\n");
            }
        }
        if let Some(l) = &self.learn {
            out.push_str("learn:");
            for (i, (name, time)) in l.miner_times.iter().enumerate() {
                let sep = if i == 0 { " " } else { ", " };
                out.push_str(&format!("{sep}{name} {:.3}s", time.as_secs_f64()));
            }
            out.push_str(&format!(
                "; minimize {:.3}s ({} -> {} relational)\n",
                l.minimize_time.as_secs_f64(),
                l.relational_before_minimization,
                l.relational_after_minimization,
            ));
            out.push_str(&format!(
                "  relational fold {:.3}s; fan-out truncations {}\n",
                l.relational_merge_time.as_secs_f64(),
                l.fanout_truncations,
            ));
        }
        if let Some(c) = &self.check {
            out.push_str(&format!(
                "check: {} contracts, {} violations in {:.3}s (parallelism {})\n",
                c.contracts,
                c.violations,
                c.check_time.as_secs_f64(),
                c.parallelism,
            ));
            out.push_str(&format!(
                "  compile {:.3}s; witness indexes: {} ({} entries); probes: {} ({:.1}% hit)\n",
                c.compile_time.as_secs_f64(),
                c.witness_indexes,
                c.witness_entries,
                c.witness_probes,
                100.0 * c.probe_hit_rate(),
            ));
            if !c.category_times.is_empty() {
                let parts: Vec<String> = c
                    .category_times
                    .iter()
                    .map(|(name, time)| format!("{name} {:.3}s", time.as_secs_f64()))
                    .collect();
                out.push_str(&format!("  phases: {}\n", parts.join(", ")));
            }
        }
        if let Some(e) = &self.engine {
            out.push_str(&format!(
                "engine: {} configs, {} lines, {} patterns; {} edits, {} relearns, {} dirty\n",
                e.configs, e.lines, e.patterns, e.edits, e.relearns, e.dirty_configs,
            ));
            out.push_str(&format!(
                "  staleness {:.3}; lex cache {} hits / {} misses / {} evictions\n",
                e.staleness, e.lex_cache.hits, e.lex_cache.misses, e.lex_cache.evictions,
            ));
            let d = &e.learn_delta;
            out.push_str(&format!(
                "  learn delta: {}; {} sketches / {} dirty; last learn mined {} / reused {}; contracts at edit {}\n",
                if d.enabled { "enabled" } else { "disabled" },
                d.sketches,
                d.dirty,
                d.mined_last_learn,
                d.reused_last_learn,
                d.contracts_edits,
            ));
            let m = &e.memory;
            out.push_str(&format!(
                "  memory: {} KiB strings + {} KiB params + {} KiB patterns + {} KiB columns; {} strings / {} param slices interned; segments {} written / {} skipped\n",
                m.string_arena_bytes / 1024,
                m.param_arena_bytes / 1024,
                m.pattern_table_bytes / 1024,
                m.column_bytes / 1024,
                m.interned_strings,
                m.interned_param_slices,
                m.segments_written,
                m.segments_skipped,
            ));
            if let Some(r) = &e.robustness {
                out.push_str(&format!(
                    "  robustness: {} rejected, {} deadlines, {} panics recovered, {} WAL replays ({} records), {} checkpoints, {} degraded checks\n",
                    r.requests_rejected,
                    r.deadlines_hit,
                    r.panics_recovered,
                    r.wal_replays,
                    r.wal_records_replayed,
                    r.checkpoints,
                    r.degraded_checks,
                ));
            }
            if let Some(s) = &e.storage {
                out.push_str(&format!(
                    "  storage: {}; {} faults injected, {} retries, {} degraded transitions / {} recoveries, {} GC remove errors\n",
                    if s.degraded { "DEGRADED (read-only)" } else { "healthy" },
                    s.faults_injected,
                    s.retries,
                    s.degraded_transitions,
                    s.recoveries,
                    s.gc_remove_errors,
                ));
            }
            if let Some(s) = &e.serve {
                out.push_str(&format!(
                    "  serve: {} connections, {} requests ({} batches / {} batched, {} binary); {} shared reads / {} exclusive ops\n",
                    s.connections,
                    s.requests,
                    s.batches,
                    s.batched_requests,
                    s.binary_frames,
                    s.shared_reads,
                    s.exclusive_ops,
                ));
            }
            if let Some(f) = &e.fleet {
                out.push_str(&format!(
                    "  fleet: {} shards; router {:?}; {} reads / {} writes\n",
                    f.shards.len(),
                    f.router,
                    f.totals.reads,
                    f.totals.writes,
                ));
            }
            if let Some(c) = &e.last_check {
                out.push_str(&format!(
                    "  last check: {} dirty / {} reused configs; witness indexes {} rebuilt / {} patched{}\n",
                    c.dirty_configs,
                    c.reused_configs,
                    c.witness_indexes_rebuilt,
                    c.witness_indexes_patched,
                    if c.resolution_invalidated {
                        "; resolution invalidated"
                    } else {
                        ""
                    },
                ));
            }
        }
        out.push_str(&format!("total: {:.3}s", self.total_time.as_secs_f64()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = concat!(
        r#"{"schema":"concord-pipeline-stats/v14","total_secs":0.08,"build":{"configs":4,"#,
        r#""lines":100,"patterns":12,"lex_secs":0.05,"intern_secs":0.005,"#,
        r#""cache":{"enabled":true,"hits":75,"misses":25,"hit_rate":0.75}},"#,
        r#""learn":{"miners":[{"name":"present","secs":0.003},{"name":"relational","#,
        r#""secs":0.009}],"relational_secs":0.009,"relational_merge_secs":0.002,"#,
        r#""fanout_truncations":17,"minimize_secs":0.001,"relational_before_minimization":10,"#,
        r#""relational_after_minimization":4},"check":{"contracts":20,"violations":1,"#,
        r#""parallelism":8,"check_secs":0.007,"compile_secs":0.00012,"witness":{"indexes":3,"#,
        r#""entries":450,"probes":200,"probe_hits":198,"hit_rate":0.99},"#,
        r#""categories":[{"name":"present","secs":0.001},{"name":"relational","secs":0.004}]},"#,
        r#""engine":{"configs":4,"lines":120,"patterns":12,"contracts":20,"edits":3,"#,
        r#""relearns":1,"dirty_configs":1,"staleness":0.125,"lex_cache":{"hits":90,"misses":30,"#,
        r#""evictions":4},"generations":{"dev0":2,"dev1":0},"last_check":{"dirty_configs":1,"#,
        r#""reused_configs":3,"resolution_invalidated":false,"witness_indexes_rebuilt":2,"#,
        r#""witness_indexes_patched":6},"robustness":{"requests_rejected":5,"deadlines_hit":2,"#,
        r#""panics_recovered":1,"wal_replays":1,"wal_records_replayed":12,"checkpoints":3,"#,
        r#""degraded_checks":1,"persist_errors":4},"learn_delta":{"enabled":true,"sketches":3,"#,
        r#""dirty":1,"mined_last_learn":2,"reused_last_learn":2,"contracts_edits":3},"#,
        r#""memory":{"string_arena_bytes":4096,"param_arena_bytes":1024,"#,
        r#""pattern_table_bytes":512,"column_bytes":2048,"sketch_bytes":8192,"#,
        r#""outcome_bytes":3072,"interned_strings":100,"interned_param_slices":40,"#,
        r#""segments_written":7,"#,
        r#""segments_skipped":21},"storage":{"degraded":true,"faults_injected":14,"retries":6,"#,
        r#""degraded_transitions":2,"recoveries":1,"gc_remove_errors":3},"#,
        r#""serve":{"connections":9,"requests":40,"batches":2,"batched_requests":16,"#,
        r#""binary_frames":8,"shared_reads":30,"exclusive_ops":10},"#,
        r#""fleet":{"shards":[{"shard":0,"configs":3,"applied_seq":7,"reads":20,"writes":5,"#,
        r#""robustness":{"requests_rejected":2,"deadlines_hit":1,"panics_recovered":0,"#,
        r#""wal_replays":0,"wal_records_replayed":0,"checkpoints":2,"degraded_checks":0,"#,
        r#""persist_errors":0}},{"shard":1,"configs":1,"applied_seq":4,"reads":10,"writes":4,"#,
        r#""robustness":{"requests_rejected":3,"deadlines_hit":0,"panics_recovered":1,"#,
        r#""wal_replays":0,"wal_records_replayed":0,"checkpoints":0,"degraded_checks":0,"#,
        r#""persist_errors":0}}],"router":[3,1],"totals":{"configs":4,"reads":30,"writes":9,"#,
        r#""robustness":{"requests_rejected":5,"deadlines_hit":1,"panics_recovered":1,"#,
        r#""wal_replays":0,"wal_records_replayed":0,"checkpoints":2,"degraded_checks":0,"#,
        r#""persist_errors":0}}}}}"#,
    );

    fn sample_fleet() -> FleetStats {
        let shards = vec![
            FleetShardStats {
                shard: 0,
                configs: 3,
                applied_seq: 7,
                reads: 20,
                writes: 5,
                robustness: RobustnessStats {
                    requests_rejected: 2,
                    deadlines_hit: 1,
                    checkpoints: 2,
                    ..RobustnessStats::default()
                },
            },
            FleetShardStats {
                shard: 1,
                configs: 1,
                applied_seq: 4,
                reads: 10,
                writes: 4,
                robustness: RobustnessStats {
                    requests_rejected: 3,
                    panics_recovered: 1,
                    ..RobustnessStats::default()
                },
            },
        ];
        let totals = FleetStats::rollup(&shards);
        FleetStats {
            shards,
            router: vec![3, 1],
            totals,
        }
    }

    fn sample() -> PipelineStats {
        PipelineStats {
            build: Some(BuildStats {
                configs: 4,
                lines: 100,
                patterns: 12,
                lex_time: Duration::from_millis(50),
                intern_time: Duration::from_millis(5),
                cache_enabled: true,
                cache_hits: 75,
                cache_misses: 25,
            }),
            learn: Some(LearnStats {
                miner_times: vec![
                    ("present".to_string(), Duration::from_millis(3)),
                    ("relational".to_string(), Duration::from_millis(9)),
                ],
                relational_time: Duration::from_millis(9),
                relational_merge_time: Duration::from_millis(2),
                minimize_time: Duration::from_millis(1),
                fanout_truncations: 17,
                relational_before_minimization: 10,
                relational_after_minimization: 4,
            }),
            check: Some(CheckStats {
                contracts: 20,
                violations: 1,
                parallelism: 8,
                check_time: Duration::from_millis(7),
                compile_time: Duration::from_micros(120),
                witness_indexes: 3,
                witness_entries: 450,
                witness_probes: 200,
                witness_probe_hits: 198,
                category_times: vec![
                    ("present".to_string(), Duration::from_millis(1)),
                    ("relational".to_string(), Duration::from_millis(4)),
                ],
            }),
            engine: Some(EngineStats {
                configs: 4,
                lines: 120,
                patterns: 12,
                contracts: Some(20),
                edits: 3,
                relearns: 1,
                dirty_configs: 1,
                staleness: 0.125,
                lex_cache: LexCacheStats {
                    hits: 90,
                    misses: 30,
                    evictions: 4,
                },
                // Inserted out of name order; the map renders them by name.
                generations: BTreeMap::from([("dev1".to_string(), 0), ("dev0".to_string(), 2)]),
                last_check: Some(EngineCheckStats {
                    dirty_configs: 1,
                    reused_configs: 3,
                    resolution_invalidated: false,
                    witness_indexes_rebuilt: 2,
                    witness_indexes_patched: 6,
                }),
                robustness: Some(RobustnessStats {
                    requests_rejected: 5,
                    deadlines_hit: 2,
                    panics_recovered: 1,
                    wal_replays: 1,
                    wal_records_replayed: 12,
                    checkpoints: 3,
                    degraded_checks: 1,
                    persist_errors: 4,
                }),
                learn_delta: LearnDeltaStats {
                    enabled: true,
                    sketches: 3,
                    dirty: 1,
                    mined_last_learn: 2,
                    reused_last_learn: 2,
                    contracts_edits: 3,
                },
                memory: MemoryStats {
                    string_arena_bytes: 4096,
                    param_arena_bytes: 1024,
                    pattern_table_bytes: 512,
                    column_bytes: 2048,
                    sketch_bytes: 8192,
                    outcome_bytes: 3072,
                    interned_strings: 100,
                    interned_param_slices: 40,
                    segments_written: 7,
                    segments_skipped: 21,
                },
                storage: Some(StorageStats {
                    degraded: true,
                    faults_injected: 14,
                    retries: 6,
                    degraded_transitions: 2,
                    recoveries: 1,
                    gc_remove_errors: 3,
                }),
                serve: Some(ServeTransportStats {
                    connections: 9,
                    requests: 40,
                    batches: 2,
                    batched_requests: 16,
                    binary_frames: 8,
                    shared_reads: 30,
                    exclusive_ops: 10,
                }),
                fleet: Some(sample_fleet()),
            }),
            total_time: Duration::from_millis(80),
        }
    }

    #[test]
    fn json_shape_matches_schema() {
        let json = sample().to_json();
        assert_eq!(json["schema"].as_str(), Some(STATS_SCHEMA));
        assert!(json["total_secs"].as_f64().unwrap() > 0.0);
        assert_eq!(json["build"]["configs"].as_u64(), Some(4));
        assert_eq!(json["build"]["cache"]["hits"].as_u64(), Some(75));
        assert!((json["build"]["cache"]["hit_rate"].as_f64().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(json["learn"]["miners"][0]["name"].as_str(), Some("present"));
        assert_eq!(
            json["learn"]["miners"][1]["name"].as_str(),
            Some("relational")
        );
        assert!(json["learn"].get("miner_parallelism").is_none());
        assert!(json["learn"].get("view_secs").is_none());
        assert!(json["learn"]["relational_merge_secs"].as_f64().unwrap() > 0.0);
        assert_eq!(json["learn"]["fanout_truncations"].as_u64(), Some(17));
        assert_eq!(json["check"]["violations"].as_u64(), Some(1));
        assert!(json["check"]["compile_secs"].as_f64().unwrap() > 0.0);
        assert_eq!(json["check"]["witness"]["indexes"].as_u64(), Some(3));
        assert_eq!(json["check"]["witness"]["probes"].as_u64(), Some(200));
        assert!((json["check"]["witness"]["hit_rate"].as_f64().unwrap() - 0.99).abs() < 1e-12);
        assert_eq!(
            json["check"]["categories"][1]["name"].as_str(),
            Some("relational")
        );
        assert_eq!(json["engine"]["edits"].as_u64(), Some(3));
        assert_eq!(json["engine"]["dirty_configs"].as_u64(), Some(1));
        assert_eq!(json["engine"]["lex_cache"]["hits"].as_u64(), Some(90));
        assert_eq!(json["engine"]["lex_cache"]["evictions"].as_u64(), Some(4));
        assert_eq!(json["engine"]["generations"]["dev0"].as_u64(), Some(2));
        assert_eq!(json["engine"]["generations"]["dev1"].as_u64(), Some(0));
        assert_eq!(
            json["engine"]["robustness"]["panics_recovered"].as_u64(),
            Some(1)
        );
        assert_eq!(
            json["engine"]["robustness"]["requests_rejected"].as_u64(),
            Some(5)
        );
        assert_eq!(
            json["engine"]["robustness"]["wal_records_replayed"].as_u64(),
            Some(12)
        );
        assert_eq!(
            json["engine"]["robustness"]["degraded_checks"].as_u64(),
            Some(1)
        );
        assert_eq!(
            json["engine"]["last_check"]["reused_configs"].as_u64(),
            Some(3)
        );
        assert_eq!(
            json["engine"]["last_check"]["witness_indexes_patched"].as_u64(),
            Some(6)
        );
        assert_eq!(
            json["engine"]["last_check"]["resolution_invalidated"].as_bool(),
            Some(false)
        );
        assert_eq!(
            json["engine"]["learn_delta"]["enabled"].as_bool(),
            Some(true)
        );
        assert_eq!(json["engine"]["learn_delta"]["sketches"].as_u64(), Some(3));
        assert_eq!(json["engine"]["learn_delta"]["dirty"].as_u64(), Some(1));
        assert_eq!(
            json["engine"]["learn_delta"]["mined_last_learn"].as_u64(),
            Some(2)
        );
        assert_eq!(
            json["engine"]["learn_delta"]["reused_last_learn"].as_u64(),
            Some(2)
        );
        assert_eq!(
            json["engine"]["learn_delta"]["contracts_edits"].as_u64(),
            Some(3)
        );
        assert_eq!(
            json["engine"]["memory"]["string_arena_bytes"].as_u64(),
            Some(4096)
        );
        assert_eq!(
            json["engine"]["memory"]["column_bytes"].as_u64(),
            Some(2048)
        );
        assert_eq!(
            json["engine"]["memory"]["sketch_bytes"].as_u64(),
            Some(8192)
        );
        assert_eq!(
            json["engine"]["memory"]["outcome_bytes"].as_u64(),
            Some(3072)
        );
        assert_eq!(
            json["engine"]["memory"]["interned_strings"].as_u64(),
            Some(100)
        );
        assert_eq!(
            json["engine"]["memory"]["segments_written"].as_u64(),
            Some(7)
        );
        assert_eq!(
            json["engine"]["memory"]["segments_skipped"].as_u64(),
            Some(21)
        );
        assert_eq!(json["engine"]["storage"]["degraded"].as_bool(), Some(true));
        assert_eq!(
            json["engine"]["storage"]["faults_injected"].as_u64(),
            Some(14)
        );
        assert_eq!(json["engine"]["storage"]["retries"].as_u64(), Some(6));
        assert_eq!(
            json["engine"]["storage"]["degraded_transitions"].as_u64(),
            Some(2)
        );
        assert_eq!(json["engine"]["storage"]["recoveries"].as_u64(), Some(1));
        assert_eq!(
            json["engine"]["storage"]["gc_remove_errors"].as_u64(),
            Some(3)
        );
        assert_eq!(json["engine"]["serve"]["connections"].as_u64(), Some(9));
        assert_eq!(json["engine"]["serve"]["batches"].as_u64(), Some(2));
        assert_eq!(
            json["engine"]["serve"]["batched_requests"].as_u64(),
            Some(16)
        );
        assert_eq!(json["engine"]["serve"]["binary_frames"].as_u64(), Some(8));
        assert_eq!(json["engine"]["serve"]["shared_reads"].as_u64(), Some(30));
        assert_eq!(json["engine"]["serve"]["exclusive_ops"].as_u64(), Some(10));
        assert_eq!(
            json["engine"]["fleet"]["shards"][0]["shard"].as_u64(),
            Some(0)
        );
        assert_eq!(
            json["engine"]["fleet"]["shards"][0]["applied_seq"].as_u64(),
            Some(7)
        );
        assert_eq!(json["engine"]["fleet"]["router"][0].as_u64(), Some(3));
        assert_eq!(
            json["engine"]["fleet"]["totals"]["configs"].as_u64(),
            Some(4)
        );
        assert_eq!(
            json["engine"]["fleet"]["totals"]["robustness"]["requests_rejected"].as_u64(),
            Some(5)
        );
    }

    /// The compact render of [`sample`], byte for byte: key order, nesting
    /// and number formatting of every record (the name-keyed fields are
    /// checked by value in `json_shape_matches_schema`, not by order).
    #[test]
    fn json_render_matches_golden_bytes() {
        let rendered = sample().to_json().render();
        assert_eq!(rendered, GOLDEN);
    }

    #[test]
    fn fleet_rollup_totals_equal_sum_of_shards() {
        let fleet = sample_fleet();
        let mut configs = 0;
        let mut reads = 0;
        let mut writes = 0;
        let mut robustness = RobustnessStats::default();
        for shard in &fleet.shards {
            configs += shard.configs;
            reads += shard.reads;
            writes += shard.writes;
            robustness.accumulate(&shard.robustness);
        }
        assert_eq!(fleet.totals.configs, configs);
        assert_eq!(fleet.totals.reads, reads);
        assert_eq!(fleet.totals.writes, writes);
        assert_eq!(fleet.totals.robustness, robustness);
        assert_eq!(fleet.totals.robustness.requests_rejected, 5);
        assert_eq!(fleet.totals.robustness.deadlines_hit, 1);
        assert_eq!(fleet.totals.robustness.panics_recovered, 1);
        assert_eq!(fleet.totals.robustness.checkpoints, 2);
    }

    #[test]
    fn missing_stages_serialize_as_null() {
        let stats = PipelineStats::default();
        let json = stats.to_json();
        assert!(json["build"].is_null());
        assert!(json["learn"].is_null());
        assert!(json["check"].is_null());
        assert!(json["engine"].is_null());
    }

    #[test]
    fn text_rendering_mentions_cache() {
        let text = sample().render_text();
        assert!(text.contains("lex cache: 75 hits / 25 misses"));
        assert!(text.contains("learn: present 0.003s, relational 0.009s; minimize"));
        assert!(text.contains("relational fold 0.002s"));
        assert!(text.contains("fan-out truncations 17"));
        assert!(text.contains("witness indexes: 3 (450 entries)"));
        assert!(text.contains("probes: 200 (99.0% hit)"));
        assert!(text.contains("phases: present 0.001s, relational 0.004s"));
        assert!(text
            .contains("engine: 4 configs, 120 lines, 12 patterns; 3 edits, 1 relearns, 1 dirty"));
        assert!(text.contains("lex cache 90 hits / 30 misses / 4 evictions"));
        assert!(text.contains(
            "robustness: 5 rejected, 2 deadlines, 1 panics recovered, 1 WAL replays (12 records), 3 checkpoints, 1 degraded checks"
        ));
        assert!(text.contains(
            "last check: 1 dirty / 3 reused configs; witness indexes 2 rebuilt / 6 patched"
        ));
        assert!(text.contains(
            "learn delta: enabled; 3 sketches / 1 dirty; last learn mined 2 / reused 2; contracts at edit 3"
        ));
        assert!(text.contains(
            "storage: DEGRADED (read-only); 14 faults injected, 6 retries, 2 degraded transitions / 1 recoveries, 3 GC remove errors"
        ));
        assert!(text.contains(
            "serve: 9 connections, 40 requests (2 batches / 16 batched, 8 binary); 30 shared reads / 10 exclusive ops"
        ));
        assert!(
            text.contains("fleet: 2 shards; router [3, 1]; 30 reads / 9 writes"),
            "{text}"
        );
        assert!(text.contains("total:"));
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(BuildStats::default().cache_hit_rate(), 0.0);
        assert_eq!(CheckStats::default().probe_hit_rate(), 0.0);
    }
}
