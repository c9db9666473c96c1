//! The serving fleet: every `concord serve` request runs here, against
//! N shard engines behind a consistent-hash router (`--shards`, default
//! 1).
//!
//! A [`Fleet`] holds N [`ResilientEngine`] shard leaders behind one
//! protocol endpoint. Device names are consistent-hashed onto shards by
//! [`ShardRouter`], so:
//!
//! * **Writes** (UPSERT/REMOVE) touch exactly one shard leader, and
//!   dirty only `O(corpus / N)` of the next CHECK's work.
//! * **CHECK** runs [`ResilientEngine::check_parts`] per shard and
//!   merges with [`merge_check_aggregates`], reproducing the engine's
//!   batch-equivalent report byte for byte. A shard unchanged since the
//!   last CHECK is served from its cached parts without touching its
//!   engine, and a CHECK with no write since the last one is served
//!   from the rendered-report cache (`dirty=0 reused=<all>`).
//! * **GEN** reads the owning shard leader under its shared lock, so
//!   an acknowledged write is always visible.
//!
//! Every read and write goes through the shard leader. A leader that
//! panics mid-operation answers that request with the fault and
//! rebuilds itself from its last-known-good image, so the next request
//! is answered as a from-scratch engine over the same state would
//! answer it.
//!
//! # One shard
//!
//! The shard holds the whole corpus, so LEARN is the leader's own delta
//! relearn, and UPSERT ids and every STATS counter come from the leader
//! engine. Its state lives at the `--state-dir` root: the layout
//! [`ResilientEngine::with_store`] writes.
//!
//! # More shards
//!
//! No shard sees the whole corpus, so LEARN mines a scratch engine over
//! the name-sorted union corpus (the contracts one engine over the
//! union learns) and distributes them to every leader, and a registry
//! assigns device ids in arrival order over the name-sorted boot corpus
//! and replays the one-engine sketch-cache counters. Shard `i` lives
//! under `<state-dir>/shard-<i>/`. The tests pin the counters
//! that differ from one shard: `dirty=`/`reused=` after an edit that
//! changes how contracts resolve, and after a restart the ids of new
//! devices and LEARN's `mined=`/`reused=`. A LEARN that fails on one
//! shard after another took the new set leaves the shards split, and
//! CHECK refuses to merge their parts until a LEARN succeeds on all.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use concord_core::{
    EngineCheckStats, EngineStats, FleetShardStats, FleetStats, LearnDeltaStats, RobustnessStats,
    StorageStats,
};
use concord_engine::{
    merge_check_aggregates, Engine, EngineOptions, OpKind, ResilientEngine, ShardCheckAggregate,
    ShardRouter,
};
use concord_json::ToJson;
use concord_lexer::Lexer;

use crate::args::ServeArgs;
use crate::protocol::{BatchItem, Request};
use crate::serve::{fault_line, render_gen, ServeShared};
use crate::sync::DeadlineRwLock;
use crate::{build_lexer, read_file, read_glob, CliError};

/// Mutex acquisition that rides through poisoning. Fleet bookkeeping is
/// rebuilt-safe (shard engines recover from their last-known-good
/// image), so a panicked peer must not wedge every later request.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One shard: a leader engine behind a deadline lock, and the per-shard
/// caches/counters.
struct FleetShard {
    leader: DeadlineRwLock<ResilientEngine>,
    /// Bumped whenever the leader's next CHECK may answer differently;
    /// keys the check-parts cache.
    version: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    /// `(shard version, aggregate)`: the last CHECK's per-shard
    /// contribution, pre-sorted and pre-summed for the merge fast
    /// path. A CHECK at an unchanged version reuses it without locking
    /// the leader, so a CHECK pays only for shards that changed.
    parts: Mutex<Option<(u64, Arc<ShardCheckAggregate>)>>,
}

/// What a fleet of more than one shard keeps because no shard sees the
/// whole corpus: the inputs its LEARN builds the union engine from, and
/// the registry that stands in for one engine's ids and counters.
struct Union {
    metadata: Vec<(String, String)>,
    lexer: Lexer,
    options: EngineOptions,
    registry: Mutex<Registry>,
}

/// Union-corpus identity and learn bookkeeping. Ids are assigned in
/// arrival order over the name-sorted union corpus — the same order
/// `Engine::from_corpus` assigns; `clean` mirrors one engine's sketch
/// cache (evicted on edit, refilled by LEARN) to reproduce its
/// `mined=`/`reused=` counters.
struct Registry {
    ids: HashMap<String, u64>,
    next_id: u64,
    clean: HashSet<String>,
    mined_last_learn: u64,
    reused_last_learn: u64,
    /// Shard edit total when the current contracts were learned.
    contracts_edits: u64,
    relearns: u64,
    /// The merged counters of the last CHECK that recomputed anything.
    last_check: Option<EngineCheckStats>,
    /// A failed LEARN left leaders holding different contract sets:
    /// CHECK refuses to merge their parts until a LEARN succeeds on
    /// every shard (a restart also re-unifies them).
    split: bool,
}

/// A reserved upsert id, with enough context to roll the reservation
/// back if the shard operation faults (a panic rebuild doesn't consume
/// an engine id, so neither may the registry).
struct ReservedUpsert {
    id: u64,
    new: bool,
    was_clean: bool,
}

/// The serve backend: router, shard leaders, and the fleet-level
/// caches.
pub(crate) struct Fleet {
    router: ShardRouter,
    shards: Vec<FleetShard>,
    /// Fleet-wide version (bumped with every shard version); keys the
    /// rendered CHECK cache.
    version: AtomicU64,
    /// `(fleet version, rendered replay-form response)`: a repeat CHECK
    /// with no intervening write answers from here with `dirty=0
    /// reused=N`.
    check_cache: Mutex<Option<(u64, String)>>,
    /// `None` at one shard, whose leader holds the whole corpus.
    union: Option<Union>,
}

/// Builds the fleet from the serve arguments: partitions the corpus by
/// router, validates the shard count against `<state-dir>/fleet.json`
/// (resuming with a different `--shards` would silently re-route
/// devices), boots one shard leader per partition (under [`shard_dir`]
/// when durable), records the count, adopts resumed contracts (or the
/// `--contracts` file on a fresh boot) and distributes them.
pub(crate) fn build_fleet(args: &ServeArgs) -> Result<Fleet, CliError> {
    let lexer = match &args.tokens {
        Some(path) => build_lexer(path)?,
        None => Lexer::standard(),
    };
    let read = |glob: &Option<String>| match glob {
        Some(glob) => read_glob(glob),
        None => Ok(Vec::new()),
    };
    let corpus = read(&args.configs)?;
    let metadata = read(&args.metadata)?;
    let options = EngineOptions {
        embed_context: args.embed,
        parallelism: args.parallelism,
        learn: args.params.clone(),
        lex_cache_cap: args.lex_cache_cap,
        ..EngineOptions::default()
    };
    let router = ShardRouter::new(args.shards);
    let n = router.shards();
    let mut partitions: Vec<Vec<(String, String)>> = vec![Vec::new(); n];
    for (name, text) in corpus {
        let shard = router.route(&name);
        partitions[shard].push((name, text));
    }
    let root = args.state_dir.as_deref().map(Path::new);
    let unrecorded = match root {
        Some(root) => check_manifest(root, n)?,
        None => false,
    };

    let mut leaders = Vec::with_capacity(n);
    let mut adopted: Option<String> = None;
    let mut resumed_any = false;
    for (i, part) in partitions.iter().enumerate() {
        let (engine, resumed) = match root {
            Some(root) => ResilientEngine::with_store(
                part,
                &metadata,
                lexer.clone(),
                options.clone(),
                &shard_dir(root, n, i),
            )
            .map_err(|e| boot_error(n, i, e))?,
            None => (
                ResilientEngine::new(part, &metadata, lexer.clone(), options.clone())
                    .map_err(|e| boot_error(n, i, e))?,
                false,
            ),
        };
        if resumed {
            resumed_any = true;
            if adopted.is_none() {
                adopted = engine.image().contracts.clone();
            }
        }
        leaders.push(engine);
    }
    // Recorded only once every shard booted, so a directory a leader
    // refuses is left as it was.
    if let (Some(root), true) = (root, unrecorded) {
        let path = root.join("fleet.json");
        let manifest = concord_json::json!({ "shards": n });
        std::fs::write(&path, manifest.render())
            .map_err(|e| CliError::Io(path.display().to_string(), e))?;
    }

    // The state directory is the durable truth: a resumed fleet keeps
    // the contracts it persisted; only a fresh boot loads the file.
    let contracts = match adopted {
        Some(json) => Some(("contracts".to_string(), json)),
        None if resumed_any => None,
        None => match &args.contracts {
            Some(path) => Some((path.clone(), read_file(path)?)),
            None => None,
        },
    };
    if let Some((source, json)) = &contracts {
        for (i, leader) in leaders.iter_mut().enumerate() {
            if leader.image().contracts.as_deref() != Some(json.as_str()) {
                leader
                    .set_contracts_json(json)
                    .map_err(|e| boot_error(n, i, format!("{source}: {e}")))?;
            }
        }
    }

    let union = (n > 1).then(|| {
        // Ids in name-sorted arrival order over the (possibly resumed)
        // union corpus — the order `Engine::from_corpus` assigns.
        let mut names: Vec<String> = leaders
            .iter()
            .flat_map(|l| l.image().corpus().into_iter().map(|(name, _)| name))
            .collect();
        names.sort();
        let registry = Registry {
            next_id: names.len() as u64,
            ids: names
                .into_iter()
                .enumerate()
                .map(|(i, name)| (name, i as u64))
                .collect(),
            clean: HashSet::new(),
            mined_last_learn: 0,
            reused_last_learn: 0,
            contracts_edits: 0,
            relearns: 0,
            last_check: None,
            split: false,
        };
        Union {
            metadata,
            lexer: lexer.clone(),
            options: options.clone(),
            registry: Mutex::new(registry),
        }
    });

    Ok(Fleet::new(router, leaders, union))
}

/// A boot failure, naming the shard when there is more than one.
fn boot_error(shards: usize, i: usize, e: impl std::fmt::Display) -> CliError {
    CliError::Invalid(if shards == 1 {
        e.to_string()
    } else {
        format!("shard {i}: {e}")
    })
}

/// Where shard `i` of `shards` keeps its durable state: the state
/// directory itself for one shard, `shard-<i>/` below it otherwise.
fn shard_dir(root: &Path, shards: usize, i: usize) -> PathBuf {
    if shards == 1 {
        root.to_path_buf()
    } else {
        root.join(format!("shard-{i}"))
    }
}

/// Refuses to reopen a state directory under a different shard count
/// than `fleet.json` records: the router would silently send devices to
/// shards that don't hold them. Also refuses a one-shard directory that
/// still keeps its shard under `shard-0/`, the layout an earlier
/// one-shard serve with WAL followers wrote before shard 0 moved to the
/// root. Returns whether the count is still to be recorded.
fn check_manifest(dir: &Path, shards: usize) -> Result<bool, CliError> {
    std::fs::create_dir_all(dir).map_err(|e| CliError::Io(dir.display().to_string(), e))?;
    let path = dir.join("fleet.json");
    let recorded = match std::fs::read_to_string(&path) {
        Ok(text) => {
            let json = concord_json::Json::parse(&text)
                .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
            Some(json["shards"].as_u64().unwrap_or(0) as usize)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(CliError::Io(path.display().to_string(), e)),
    };
    if let Some(recorded) = recorded.filter(|r| *r != shards) {
        return Err(CliError::Invalid(format!(
            "{}: state directory was created with --shards {recorded}; reopening with \
             --shards {shards} would re-route devices away from the shards that hold them",
            path.display()
        )));
    }
    if shards == 1 && dir.join("shard-0").is_dir() {
        return Err(CliError::Invalid(format!(
            "{}: one-shard state lives at the state directory root; move the files in \
             shard-0/ up one level to reopen it",
            dir.display()
        )));
    }
    Ok(recorded.is_none())
}

impl Fleet {
    /// A one-shard fleet over `leader`.
    pub(crate) fn one(leader: ResilientEngine) -> Fleet {
        Fleet::new(ShardRouter::new(1), vec![leader], None)
    }

    fn new(router: ShardRouter, leaders: Vec<ResilientEngine>, union: Option<Union>) -> Fleet {
        Fleet {
            router,
            shards: leaders
                .into_iter()
                .map(|leader| FleetShard {
                    leader: DeadlineRwLock::new(leader),
                    version: AtomicU64::new(0),
                    reads: AtomicU64::new(0),
                    writes: AtomicU64::new(0),
                    parts: Mutex::new(None),
                })
                .collect(),
            version: AtomicU64::new(0),
            check_cache: Mutex::new(None),
            union,
        }
    }

    fn shard_for(&self, name: &str) -> &FleetShard {
        &self.shards[self.router.route(name)]
    }

    /// Bumps `shard`'s version and the fleet's: the next CHECK stops
    /// serving the rendered report and `shard`'s cached parts, and runs
    /// that shard on its leader (dropping the stale parts first).
    fn invalidate(&self, shard: &FleetShard) {
        shard.version.fetch_add(1, Ordering::Release);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Runs one write op on `shard`'s locked leader, then publishes new
    /// versions when the op changed what the leader's next CHECK
    /// answers. The leader's persisted counters move with every applied
    /// edit or contract swap (even one whose WAL append then failed),
    /// and a panic recovery rebuilds the engine, so its next CHECK
    /// recomputes everything.
    fn apply<T>(
        &self,
        shard: &FleetShard,
        leader: &mut ResilientEngine,
        op: impl FnOnce(&mut ResilientEngine) -> T,
    ) -> T {
        let state = |leader: &ResilientEngine| {
            (
                leader.image().counters,
                leader.robustness().panics_recovered,
                leader.poisoned(),
            )
        };
        let before = state(leader);
        let result = op(leader);
        if state(leader) != before {
            self.invalidate(shard);
        }
        result
    }

    fn registry(&self) -> Option<MutexGuard<'_, Registry>> {
        self.union.as_ref().map(|u| lock(&u.registry))
    }

    fn reserve_upsert(&self, name: &str) -> Option<ReservedUpsert> {
        let mut reg = self.registry()?;
        let was_clean = reg.clean.remove(name);
        Some(match reg.ids.get(name).copied() {
            Some(id) => ReservedUpsert {
                id,
                new: false,
                was_clean,
            },
            None => {
                let id = reg.next_id;
                reg.next_id += 1;
                reg.ids.insert(name.to_string(), id);
                ReservedUpsert {
                    id,
                    new: true,
                    was_clean,
                }
            }
        })
    }

    /// Undoes a reservation after a faulted upsert. Under concurrent
    /// reservations the freed id may stay consumed; sequential traffic
    /// rolls back exactly.
    fn rollback_upsert(&self, name: &str, reserved: Option<&ReservedUpsert>) {
        let (Some(reserved), Some(mut reg)) = (reserved, self.registry()) else {
            return;
        };
        if reserved.new && reg.ids.get(name) == Some(&reserved.id) {
            reg.ids.remove(name);
            if reg.next_id == reserved.id + 1 {
                reg.next_id = reserved.id;
            }
        }
        if reserved.was_clean {
            reg.clean.insert(name.to_string());
        }
    }

    fn registry_remove(&self, name: &str) -> Option<(u64, bool)> {
        let mut reg = self.registry()?;
        let id = reg.ids.remove(name)?;
        let was_clean = reg.clean.remove(name);
        Some((id, was_clean))
    }

    fn registry_restore(&self, name: &str, entry: Option<(u64, bool)>) {
        let (Some((id, was_clean)), Some(mut reg)) = (entry, self.registry()) else {
            return;
        };
        reg.ids.insert(name.to_string(), id);
        if was_clean {
            reg.clean.insert(name.to_string());
        }
    }
}

/// Executes one non-batch request against the fleet.
pub(crate) fn execute(shared: &ServeShared, fleet: &Fleet, req: &Request) -> String {
    match req {
        Request::Upsert { name, body } => fleet_upsert(shared, fleet, name, body),
        Request::Remove { name } => fleet_remove(shared, fleet, name),
        Request::Gen { name } => fleet_gen(shared, fleet, name),
        Request::Learn => match &fleet.union {
            None => learn_in_place(shared, fleet),
            Some(union) => learn_union(shared, fleet, union),
        },
        Request::Check => fleet_check(shared, fleet),
        Request::Contracts => fleet_contracts(shared, fleet),
        Request::Stats => fleet_stats(shared, fleet),
        Request::Checkpoint => fleet_checkpoint(shared, fleet),
        Request::Health => fleet_health(shared, fleet),
        Request::Fault { rest } => fleet_fault(shared, fleet, rest),
        // Routed before dispatch; a dispatch bug is answered, not
        // panicked over.
        Request::Quit | Request::Batch(_) => "err internal invalid request routing\n".to_string(),
    }
}

fn cutoff(shared: &ServeShared) -> Instant {
    Instant::now() + shared.limits().deadline
}

fn deadline(shared: &ServeShared) -> String {
    shared.deadline_hit();
    "err deadline\n".to_string()
}

fn fleet_upsert(shared: &ServeShared, fleet: &Fleet, name: &str, body: &str) -> String {
    let reserved = fleet.reserve_upsert(name);
    let shard = fleet.shard_for(name);
    let Some(mut guard) = shard.leader.write(cutoff(shared)) else {
        fleet.rollback_upsert(name, reserved.as_ref());
        return deadline(shared);
    };
    let result = fleet.apply(shard, &mut guard, |leader| leader.upsert(name, body));
    match result {
        Ok(id) => {
            shard.writes.fetch_add(1, Ordering::Relaxed);
            let id = reserved.map_or(id.0, |r| r.id);
            match guard.config_generation(name) {
                Ok(Some(gen)) => format!("ok upsert {name} id={id} gen={gen}\n"),
                Ok(None) => format!("err unknown-config {name}\n"),
                Err(fault) => format!("{}\n", fault_line(&fault)),
            }
        }
        Err(fault) => {
            fleet.rollback_upsert(name, reserved.as_ref());
            format!("{}\n", fault_line(&fault))
        }
    }
}

fn fleet_remove(shared: &ServeShared, fleet: &Fleet, name: &str) -> String {
    let removed = fleet.registry_remove(name);
    let shard = fleet.shard_for(name);
    let Some(mut guard) = shard.leader.write(cutoff(shared)) else {
        fleet.registry_restore(name, removed);
        return deadline(shared);
    };
    let result = fleet.apply(shard, &mut guard, |leader| leader.remove(name));
    match result {
        Ok(Some(_)) => {
            shard.writes.fetch_add(1, Ordering::Relaxed);
            format!("ok remove {name}\n")
        }
        Ok(None) => {
            fleet.registry_restore(name, removed);
            format!("err unknown-config {name}\n")
        }
        Err(fault) => {
            fleet.registry_restore(name, removed);
            format!("{}\n", fault_line(&fault))
        }
    }
}

/// GEN reads the owning shard leader under its shared lock.
fn fleet_gen(shared: &ServeShared, fleet: &Fleet, name: &str) -> String {
    let shard = fleet.shard_for(name);
    shard.reads.fetch_add(1, Ordering::Relaxed);
    match shard.leader.read(cutoff(shared)) {
        Some(guard) => render_gen(guard.config_generation(name), name),
        None => deadline(shared),
    }
}

/// LEARN at one shard: the leader holds the whole corpus, so its own
/// delta relearn is the answer.
fn learn_in_place(shared: &ServeShared, fleet: &Fleet) -> String {
    let shard = &fleet.shards[0];
    let Some(mut guard) = shard.leader.write(cutoff(shared)) else {
        return deadline(shared);
    };
    if let Err(fault) = fleet.apply(shard, &mut guard, ResilientEngine::relearn) {
        return format!("{}\n", fault_line(&fault));
    }
    shard.writes.fetch_add(1, Ordering::Relaxed);
    // A relearn that succeeded leaves a live engine holding its set.
    let n = guard.contracts().ok().flatten().map_or(0, |c| c.len());
    let delta = guard.learn_delta().unwrap_or_default();
    format!(
        "ok learn {n} contracts mined={} reused={}\n",
        delta.mined_last_learn, delta.reused_last_learn
    )
}

/// LEARN at more than one shard takes every shard's write lock (in
/// shard order — the one global lock order every multi-shard path
/// uses), mines a scratch engine over the name-sorted union corpus
/// (the contracts one engine over it learns), distributes the set to
/// every leader, and reports one engine's mined/reused counters from
/// the registry's clean set.
fn learn_union(shared: &ServeShared, fleet: &Fleet, union: &Union) -> String {
    let cutoff = cutoff(shared);
    let mut guards = Vec::with_capacity(fleet.shards.len());
    for shard in &fleet.shards {
        match shard.leader.write(cutoff) {
            Some(guard) => guards.push(guard),
            None => return deadline(shared),
        }
    }
    let mut corpus: Vec<(String, String)> = guards
        .iter()
        .flat_map(|guard| guard.image().corpus())
        .collect();
    corpus.sort();
    let mut scratch = match Engine::from_corpus_with_lexer(
        &corpus,
        &union.metadata,
        union.lexer.clone(),
        union.options.clone(),
    ) {
        Ok(engine) => engine,
        // Unreachable in practice: the same inputs built the shards.
        Err(e) => return format!("err internal {}\n", one_line(&e.to_string())),
    };
    scratch.relearn();
    let Some(set) = scratch.shared_contracts() else {
        return "err not-learned\n".to_string();
    };
    let json = set.to_json();
    // Every leader is offered the set even after one fails, so a failed
    // WAL append (which leaves the set installed in memory) cannot split
    // the fleet by itself.
    let mut failed = None;
    for (shard, guard) in fleet.shards.iter().zip(guards.iter_mut()) {
        match fleet.apply(shard, guard, |leader| leader.set_contracts_json(&json)) {
            Ok(_) => {
                shard.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(fault) => {
                failed.get_or_insert(fault);
            }
        }
    }
    let mut reg = lock(&union.registry);
    if let Some(fault) = failed {
        let sets: Vec<_> = guards.iter().map(|g| g.contracts().ok()).collect();
        reg.split = sets.windows(2).any(|pair| pair[0] != pair[1]);
        return format!("{}\n", fault_line(&fault));
    }
    reg.split = false;
    let reused = reg.clean.len() as u64;
    let mined = reg.ids.len() as u64 - reused;
    reg.clean = reg.ids.keys().cloned().collect();
    reg.mined_last_learn = mined;
    reg.reused_last_learn = reused;
    reg.contracts_edits = guards.iter().map(|g| g.image().counters.edits).sum();
    reg.relearns += 1;
    format!(
        "ok learn {} contracts mined={mined} reused={reused}\n",
        set.len()
    )
}

/// CHECK: per-shard parts (cached for clean shards, recomputed under
/// the leader's write lock for dirty ones), merged in deterministic
/// shard order into the engine's report. A leader that faults answers
/// the CHECK with its fault; it has already rebuilt, so the next CHECK
/// recomputes that shard from scratch.
fn fleet_check(shared: &ServeShared, fleet: &Fleet) -> String {
    let fleet_version = fleet.version.load(Ordering::Acquire);
    if let Some((version, text)) = lock(&fleet.check_cache).as_ref() {
        if *version == fleet_version {
            return text.clone();
        }
    }
    if fleet.registry().is_some_and(|reg| reg.split) {
        return "err internal shards hold different contract sets; LEARN again\n".to_string();
    }
    let cutoff = cutoff(shared);
    let mut parts: Vec<Arc<ShardCheckAggregate>> = Vec::with_capacity(fleet.shards.len());
    let mut stats = EngineCheckStats::default();
    for shard in &fleet.shards {
        let mut slot = lock(&shard.parts);
        let cached_version = shard.version.load(Ordering::Acquire);
        if let Some((version, cached)) = slot.as_ref() {
            if *version == cached_version {
                // Clean shard: every one of its configurations is reused,
                // and every witness index patched (the cached parts still
                // carry the counters of the check that computed them, so
                // the counters are summed here, not there).
                stats.reused_configs += cached.parts.configs.len();
                stats.witness_indexes_patched +=
                    cached.parts.witness_indexes_rebuilt + cached.parts.witness_indexes_patched;
                parts.push(Arc::clone(cached));
                continue;
            }
        }
        let Some(mut guard) = shard.leader.write(cutoff) else {
            return deadline(shared);
        };
        // Stale parts share the leader's unique index; dropping them
        // first lets the leader update the index in place.
        *slot = None;
        // Re-read under the write lock: the version is stable while we
        // hold it, so the cache entry is keyed consistently.
        let shard_version = shard.version.load(Ordering::Acquire);
        let computed = match guard.check_parts() {
            Ok(computed) => computed,
            Err(fault) => return format!("{}\n", fault_line(&fault)),
        };
        shard.reads.fetch_add(1, Ordering::Relaxed);
        stats.dirty_configs += computed.dirty_configs;
        stats.reused_configs += computed.reused_configs;
        stats.witness_indexes_rebuilt += computed.witness_indexes_rebuilt;
        stats.witness_indexes_patched += computed.witness_indexes_patched;
        stats.resolution_invalidated |= computed.resolution_invalidated;
        let arc = Arc::new(ShardCheckAggregate::new(computed));
        *slot = Some((shard_version, Arc::clone(&arc)));
        parts.push(arc);
    }
    // Every shard checked under the same set: one LEARN installed it
    // everywhere, and a split never reaches here.
    let refs: Vec<&ShardCheckAggregate> = parts.iter().map(|p| p.as_ref()).collect();
    let report = merge_check_aggregates(&parts[0].parts.contracts, &refs);
    let mut violations = String::new();
    for v in &report.violations {
        let _ = writeln!(violations, "{v}");
    }
    let summary = |dirty: usize, reused: usize| {
        format!(
            "ok check {} violations; coverage {:.1}% of {} lines; dirty={dirty} reused={reused}\n",
            report.violations.len(),
            report.coverage_fraction() * 100.0,
            report.total_lines,
        )
    };
    let first = format!(
        "{violations}{}",
        summary(stats.dirty_configs, stats.reused_configs)
    );
    // A repeat CHECK at this fleet version recomputes nothing: dirty=0,
    // reused=all.
    let total_configs: usize = parts.iter().map(|p| p.parts.configs.len()).sum();
    let replay = violations + &summary(0, total_configs);
    *lock(&fleet.check_cache) = Some((fleet_version, replay));
    if let Some(mut reg) = fleet.registry() {
        reg.last_check = Some(stats);
    }
    first
}

/// STATS: per-shard engine snapshots summed in shard order (at one
/// shard, the leader's own snapshot), plus the `fleet` object
/// (per-shard counters, router distribution, and one-pass totals).
/// Each shard's `applied_seq` is read from its leader's image under the
/// same lock as its snapshot.
fn fleet_stats(shared: &ServeShared, fleet: &Fleet) -> String {
    let cutoff = cutoff(shared);
    let mut shard_stats: Vec<EngineStats> = Vec::with_capacity(fleet.shards.len());
    let mut applied_seqs: Vec<u64> = Vec::with_capacity(fleet.shards.len());
    for shard in &fleet.shards {
        let Some(mut guard) = shard.leader.write(cutoff) else {
            return deadline(shared);
        };
        match fleet.apply(shard, &mut guard, ResilientEngine::snapshot_stats) {
            Ok(stats) => {
                shard_stats.push(stats);
                applied_seqs.push(guard.image().applied_seq);
            }
            Err(fault) => return format!("{}\n", fault_line(&fault)),
        }
    }
    let mut stats = EngineStats {
        contracts: shard_stats[0].contracts,
        last_check: shard_stats[0].last_check,
        learn_delta: shard_stats[0].learn_delta,
        ..EngineStats::default()
    };
    let mut robustness = RobustnessStats::default();
    let mut storage = StorageStats::default();
    let mut fleet_shards = Vec::with_capacity(fleet.shards.len());
    for (i, (shard, s)) in fleet.shards.iter().zip(shard_stats).enumerate() {
        stats.configs += s.configs;
        stats.lines += s.lines;
        // Approximate: a pattern shared by configs on two shards counts
        // once per shard (each shard interns independently).
        stats.patterns += s.patterns;
        stats.edits += s.edits;
        stats.relearns += s.relearns;
        stats.dirty_configs += s.dirty_configs;
        stats.staleness = stats.staleness.max(s.staleness);
        stats.lex_cache.accumulate(&s.lex_cache);
        // Shards partition the names; the map orders the union by name.
        stats.generations.extend(s.generations);
        stats.memory.accumulate(&s.memory);
        if let Some(r) = &s.robustness {
            robustness.accumulate(r);
        }
        if let Some(st) = &s.storage {
            storage.accumulate(st);
        }
        fleet_shards.push(FleetShardStats {
            shard: i,
            configs: s.configs,
            applied_seq: applied_seqs[i],
            reads: shard.reads.load(Ordering::Relaxed),
            writes: shard.writes.load(Ordering::Relaxed),
            robustness: s.robustness.unwrap_or_default(),
        });
    }
    if let Some(reg) = fleet.registry() {
        stats.relearns = reg.relearns;
        stats.last_check = reg.last_check;
        stats.learn_delta = LearnDeltaStats {
            enabled: true,
            sketches: reg.clean.len(),
            dirty: reg.ids.len().saturating_sub(reg.clean.len()),
            mined_last_learn: reg.mined_last_learn,
            reused_last_learn: reg.reused_last_learn,
            contracts_edits: reg.contracts_edits,
        };
    }
    let (rejected, deadlines) = shared.serve_overlay();
    robustness.requests_rejected = rejected;
    robustness.deadlines_hit = deadlines;
    stats.robustness = Some(robustness);
    stats.storage = Some(storage);
    stats.serve = Some(shared.transport_snapshot());
    let router: Vec<usize> = fleet_shards.iter().map(|s| s.configs).collect();
    let totals = FleetStats::rollup(&fleet_shards);
    stats.fleet = Some(FleetStats {
        shards: fleet_shards,
        router,
        totals,
    });
    format!("ok stats {}\n", stats.to_json().render())
}

/// CONTRACTS: the size of leader 0's set (every leader holds it).
fn fleet_contracts(shared: &ServeShared, fleet: &Fleet) -> String {
    let Some(guard) = fleet.shards[0].leader.read(cutoff(shared)) else {
        return deadline(shared);
    };
    match guard.contracts() {
        Ok(Some(contracts)) => format!("ok contracts {}\n", contracts.len()),
        Ok(None) => "err not-learned\n".to_string(),
        Err(fault) => format!("{}\n", fault_line(&fault)),
    }
}

/// HEALTH: per-shard storage counters accumulated under shared read
/// locks, plus the shard/degraded-shard census. The fleet is degraded
/// when any shard leader is.
fn fleet_health(shared: &ServeShared, fleet: &Fleet) -> String {
    let cutoff = cutoff(shared);
    let mut storage = StorageStats::default();
    let mut degraded_shards = 0usize;
    for shard in &fleet.shards {
        let Some(guard) = shard.leader.read(cutoff) else {
            return deadline(shared);
        };
        let s = guard.storage_stats();
        if s.degraded {
            degraded_shards += 1;
        }
        storage.accumulate(&s);
    }
    format!(
        "ok health {} faults={} retries={} transitions={} recoveries={} shards={} degraded_shards={}\n",
        if storage.degraded { "degraded" } else { "healthy" },
        storage.faults_injected,
        storage.retries,
        storage.degraded_transitions,
        storage.recoveries,
        fleet.shards.len(),
        degraded_shards,
    )
}

fn fleet_checkpoint(shared: &ServeShared, fleet: &Fleet) -> String {
    let cutoff = cutoff(shared);
    for shard in &fleet.shards {
        let Some(mut guard) = shard.leader.write(cutoff) else {
            return deadline(shared);
        };
        if !guard.checkpoint() {
            return "err persist checkpoint failed or no --state-dir\n".to_string();
        }
    }
    "ok checkpoint\n".to_string()
}

/// The FAULT verb. `FAULT <op> [shard]` arms a deterministic panic on
/// that shard's leader (default shard 0) and invalidates the shard's
/// caches, so the armed operation runs next instead of a cached answer.
/// Any other kind is a bad request.
fn fleet_fault(shared: &ServeShared, fleet: &Fleet, rest: &str) -> String {
    if !shared.faults_enabled() {
        shared.reject();
        return "err unknown-command \"FAULT\"\n".to_string();
    }
    let bad = |shared: &ServeShared| {
        shared.reject();
        format!("err bad-request unknown fault kind {rest:?}\n")
    };
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    let shard_at = |i: usize| -> Option<usize> {
        match tokens.get(i) {
            None => Some(0),
            Some(t) => t.parse().ok().filter(|s| *s < fleet.shards.len()),
        }
    };
    match tokens.first().copied() {
        Some(op) => match (OpKind::parse(op), shard_at(1)) {
            (Some(kind), Some(s)) => {
                let shard = &fleet.shards[s];
                match shard.leader.write(cutoff(shared)) {
                    Some(mut guard) => {
                        guard.arm_panic(kind);
                        fleet.invalidate(shard);
                        format!("ok fault armed {rest}\n")
                    }
                    None => deadline(shared),
                }
            }
            _ => bad(shared),
        },
        None => bad(shared),
    }
}

fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// BATCH against the fleet: the items run in order, each exactly as if
/// it had been sent singly, then the `ok batch` trailer.
pub(crate) fn execute_batch(shared: &ServeShared, fleet: &Fleet, items: &[BatchItem]) -> String {
    let mut out = String::new();
    for item in items {
        match item {
            BatchItem::Error { line, reject } => {
                if *reject {
                    shared.reject();
                }
                out.push_str(line);
                out.push('\n');
            }
            BatchItem::Run(req) => out.push_str(&execute(shared, fleet, req)),
        }
    }
    out.push_str(&format!("ok batch {}\n", items.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ServeArgs;
    use crate::serve::{serve_session, ServeLimits};
    use concord_core::LearnParams;
    use std::io::Cursor;
    use std::path::PathBuf;

    /// `concord-fleet-<tag>-<pid>` under the system temp dir, created
    /// empty and removed on drop, so a failing test cleans up too.
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("concord-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The serve tests' six-config corpus.
    fn corpus() -> Vec<(String, String)> {
        (0..6)
            .map(|i| {
                (
                    format!("dev{i}"),
                    format!(
                        "hostname DEV{}\nrouter bgp 65000\nvlan {}\n",
                        100 + i,
                        250 + i
                    ),
                )
            })
            .collect()
    }

    /// Writes [`corpus`] as files and returns their directory with the
    /// glob that selects them.
    fn corpus_glob(tag: &str) -> (TempDir, String) {
        let dir = temp_dir(&format!("corpus-{tag}"));
        for (name, text) in corpus() {
            std::fs::write(dir.join(format!("{name}.cfg")), text).expect("write config");
        }
        let glob = format!("{}/*.cfg", dir.display());
        (dir, glob)
    }

    fn serve_args(glob: &str, shards: usize, state_dir: Option<&Path>) -> ServeArgs {
        ServeArgs {
            configs: Some(glob.to_string()),
            contracts: None,
            metadata: None,
            tokens: None,
            params: LearnParams::default(),
            embed: true,
            parallelism: 1,
            listen: None,
            once: false,
            workers: 4,
            max_conns: 0,
            deadline_ms: 5000,
            max_line_bytes: 64 * 1024,
            max_body_bytes: 1024 * 1024,
            state_dir: state_dir.map(|d| d.display().to_string()),
            shards,
            lex_cache_cap: 64 * 1024,
            enable_faults: true,
        }
    }

    fn fleet_shared(args: &ServeArgs) -> ServeShared {
        let fleet = build_fleet(args).expect("fleet builds");
        ServeShared::with_fleet(fleet, ServeLimits::default(), args.enable_faults)
    }

    fn session(shared: &ServeShared, script: &str) -> String {
        let mut out = Vec::new();
        serve_session(shared, Cursor::new(script.as_bytes().to_vec()), &mut out)
            .expect("session runs");
        String::from_utf8(out).expect("utf8 output")
    }

    /// The full interactive workflow — learn, edit, check, gen, remove,
    /// re-learn — answers byte-identically at 1 and 3 shards. The edits
    /// reuse known line shapes so no shard drops its cache for a
    /// resolution change (the one documented counter divergence).
    #[test]
    fn fleet_session_is_byte_identical_to_single_engine() {
        let (_corpus, glob) = corpus_glob("identity");
        let script = "LEARN\nCHECK\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nCHECK\nGEN dev0\n\
                      GEN dev3\nCONTRACTS\nUPSERT dev9\nhostname DEV109\nrouter bgp 65000\n\
                      vlan 999\n.\nCHECK\nLEARN\nREMOVE dev3\nGEN nope\nCHECK\nLEARN\nQUIT\n";
        let single = session(&fleet_shared(&serve_args(&glob, 1, None)), script);
        let fleet = session(&fleet_shared(&serve_args(&glob, 3, None)), script);
        assert_eq!(single, fleet);
        // The script exercised real work, not just error paths.
        assert!(single.contains("ok learn"), "{single}");
        assert!(single.contains("missing required line"), "{single}");
        assert!(single.contains("dirty=1 reused=5"), "{single}");
        assert!(single.contains("ok upsert dev9 id=6"), "{single}");
        // Both sessions edited dev0 and dev9 since the first LEARN.
        assert!(single.contains("mined=2 reused=5"), "{single}");
    }

    /// A BATCH against a three-shard fleet equals the same commands
    /// sent singly, and equals the one-shard batch, byte for byte.
    #[test]
    fn fleet_batch_matches_singles_and_single_engine() {
        let (_corpus, glob) = corpus_glob("batch");
        let singles_script = "LEARN\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nGEN dev0\n\
                              GEN dev5\nREMOVE dev2\nCHECK\nQUIT\n";
        let batch_script = "LEARN\nBATCH 5\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nGEN dev0\n\
                            GEN dev5\nREMOVE dev2\nCHECK\nQUIT\n";
        let args = serve_args(&glob, 3, None);
        let singles = session(&fleet_shared(&args), singles_script);
        let batched = session(&fleet_shared(&args), batch_script);
        let singles_body = singles.strip_suffix("ok bye\n").expect("quit ack");
        assert_eq!(batched, format!("{singles_body}ok batch 5\nok bye\n"));
        let oracle = session(&fleet_shared(&serve_args(&glob, 1, None)), batch_script);
        assert_eq!(batched, oracle);
    }

    /// A REMOVE and an UPSERT of the same name inside one batch must
    /// assign a fresh id, exactly like the one-shard batch.
    #[test]
    fn fleet_batch_remove_then_upsert_assigns_fresh_id() {
        let (_corpus, glob) = corpus_glob("batch-reuse");
        let script = "BATCH 2\nREMOVE dev1\nUPSERT dev1\nhostname DEV101\nvlan 251\n.\nQUIT\n";
        let fleet = session(&fleet_shared(&serve_args(&glob, 3, None)), script);
        let single = session(&fleet_shared(&serve_args(&glob, 1, None)), script);
        assert_eq!(fleet, single);
        assert!(fleet.contains("ok upsert dev1 id=6"), "{fleet}");
    }

    /// STATS at shards > 1 reports the v8 `fleet` object, with totals
    /// equal to the per-shard sums and the router distribution covering
    /// the whole corpus.
    #[test]
    fn fleet_stats_reports_v8_fleet_object_with_consistent_totals() {
        let (_corpus, glob) = corpus_glob("stats");
        let shared = fleet_shared(&serve_args(&glob, 3, None));
        let out = session(
            &shared,
            "LEARN\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nCHECK\nGEN dev1\nSTATS\nQUIT\n",
        );
        let line = out
            .lines()
            .find(|l| l.starts_with("ok stats "))
            .expect("stats line");
        let json =
            concord_json::Json::parse(line.trim_start_matches("ok stats ")).expect("stats parse");
        let fleet = &json["fleet"];
        let shards = match fleet["shards"] {
            concord_json::Json::Array(ref v) => v,
            _ => panic!("fleet.shards missing: {line}"),
        };
        assert_eq!(shards.len(), 3);
        let sum = |key: &str| -> u64 {
            shards
                .iter()
                .map(|s| s[key].as_u64().expect("shard counter"))
                .sum()
        };
        assert_eq!(fleet["totals"]["configs"].as_u64(), Some(sum("configs")));
        assert_eq!(fleet["totals"]["reads"].as_u64(), Some(sum("reads")));
        assert_eq!(fleet["totals"]["writes"].as_u64(), Some(sum("writes")));
        assert_eq!(sum("configs"), 6);
        assert_eq!(
            sum("writes"),
            4,
            "3 learn distributions + 1 upsert land on shards"
        );
        assert_eq!(json["configs"].as_u64(), Some(6));
        // The router distribution is the per-shard config counts.
        let router_total: u64 = match fleet["router"] {
            concord_json::Json::Array(ref v) => v.iter().map(|c| c.as_u64().unwrap_or(0)).sum(),
            _ => panic!("fleet.router missing: {line}"),
        };
        assert_eq!(router_total, 6);
    }

    /// Reopening a state directory under a different `--shards` is
    /// refused: the router would re-route devices away from the shards
    /// that hold them. A one-shard directory that keeps its shard under
    /// `shard-0/` is refused too, rather than silently re-seeded.
    #[test]
    fn reopening_with_a_different_shard_count_is_refused() {
        let (_corpus, glob) = corpus_glob("manifest");
        let refusal =
            |shards: usize, dir: &Path| match build_fleet(&serve_args(&glob, shards, Some(dir))) {
                Ok(_) => panic!("--shards {shards} on {} must refuse", dir.display()),
                Err(e) => e.to_string(),
            };
        for (created, reopened) in [(2, 4), (1, 2)] {
            let dir = temp_dir(&format!("manifest-state-{created}"));
            drop(fleet_shared(&serve_args(&glob, created, Some(&dir))));
            assert_eq!(dir.join("manifest.json").exists(), created == 1);
            let err = refusal(reopened, &dir);
            assert!(err.contains(&format!("--shards {created}")), "{err}");
        }
        let legacy = temp_dir("manifest-state-legacy");
        std::fs::create_dir_all(legacy.join("shard-0")).expect("legacy layout");
        let err = refusal(1, &legacy);
        assert!(err.contains("shard-0/"), "{err}");

        // A monolithic snapshot is refused by name, and the directory is
        // left as it was: no fleet.json, no WAL.
        let snapshot_only = temp_dir("manifest-state-snapshot");
        let snapshot = snapshot_only.join("snapshot.json");
        let bytes = b"concord-engine-snapshot/v1 crc32=00000000\n{}\n";
        std::fs::write(&snapshot, bytes).expect("legacy snapshot");
        let err = refusal(1, &snapshot_only);
        assert!(err.contains(&snapshot.display().to_string()), "{err}");
        assert_eq!(std::fs::read(&snapshot).expect("still there"), bytes);
        let names: Vec<_> = std::fs::read_dir(&*snapshot_only)
            .expect("listing")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["snapshot.json"]);
    }

    /// A sharded fleet resumes from its state directories: edits from a
    /// previous process survive, and answers match a from-scratch oracle
    /// over the surviving corpus.
    #[test]
    fn fleet_resumes_from_state_directories() {
        let (_corpus, glob) = corpus_glob("resume");
        let dir = temp_dir("resume-state");
        let args = serve_args(&glob, 2, Some(&dir));
        {
            let shared = fleet_shared(&args);
            let out = session(
                &shared,
                "LEARN\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nREMOVE dev4\nQUIT\n",
            );
            assert!(out.contains("ok remove dev4"), "{out}");
        }
        let shared = fleet_shared(&args);
        let out = session(&shared, "GEN dev0\nGEN dev4\nCONTRACTS\nCHECK\nQUIT\n");
        assert!(out.contains("ok gen dev0 1"), "{out}");
        assert!(out.contains("err unknown-config dev4"), "{out}");
        assert!(out.contains("ok contracts"), "{out}");
        assert!(out.contains("missing required line"), "{out}");
        assert!(out.contains("ok check"), "{out}");
    }

    /// The last STATS response of a session, parsed.
    fn stats_json(out: &str) -> concord_json::Json {
        let line = out
            .lines()
            .rfind(|l| l.starts_with("ok stats "))
            .expect("stats line");
        concord_json::Json::parse(line.trim_start_matches("ok stats ")).expect("stats parse")
    }

    /// Shard `i` leader's own `snapshot_stats()`, as JSON.
    fn leader_stats(shared: &ServeShared, i: usize) -> concord_json::Json {
        let cutoff = Instant::now() + std::time::Duration::from_secs(5);
        let mut leader = shared.fleet.shards[i]
            .leader
            .write(cutoff)
            .expect("leader lock");
        leader.snapshot_stats().expect("leader stats").to_json()
    }

    /// The CHECK summary with the incremental counters masked.
    fn masked(check: &str) -> &str {
        check.split("; dirty=").next().unwrap_or(check)
    }

    /// An armed fault fires on the next CHECK even when every cache is
    /// warm: `FAULT check 0` invalidates shard 0's cached parts and the
    /// rendered report, so the CHECK runs on the armed leader. The
    /// rebuilt leader then answers as before.
    #[test]
    fn armed_fault_is_not_swallowed_by_a_warm_cache() {
        let (_corpus, glob) = corpus_glob("warm-fault");
        let shared = fleet_shared(&serve_args(&glob, 2, None));
        let out = session(&shared, "LEARN\nCHECK\nFAULT check 0\nCHECK\nCHECK\nQUIT\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[2], "ok fault armed check 0", "{out}");
        assert_eq!(lines[3], "err internal injected fault: Check", "{out}");
        assert_eq!(masked(lines[4]), masked(lines[1]), "{out}");
    }

    /// UPSERTs that give every config one more line, so the next LEARN
    /// learns a different set.
    fn edits_adding_a_line() -> String {
        corpus()
            .iter()
            .map(|(name, text)| format!("UPSERT {name}\n{text}logging host 10.0.0.1\n.\n"))
            .collect()
    }

    /// Everything from the last LEARN answer on.
    fn from_last_learn(out: &str) -> &str {
        &out[out.rfind("ok learn").expect("a learn")..]
    }

    /// A LEARN that installs the new set on shard 0 but not on shard 1
    /// (an armed `set-contracts` panic rebuilds that leader with its old
    /// set) leaves parts that must not be merged under one set: CHECK
    /// refuses until a LEARN succeeds on every shard, and then answers
    /// as one shard does.
    #[test]
    fn check_refuses_shards_split_by_a_failed_learn_until_relearned() {
        let (_corpus, glob) = corpus_glob("split");
        let edits = edits_adding_a_line();
        let script =
            format!("LEARN\n{edits}FAULT set-contracts 1\nLEARN\nCHECK\nLEARN\nCHECK\nQUIT\n");
        let out = session(&fleet_shared(&serve_args(&glob, 2, None)), &script);
        let refused = "err internal injected fault: SetContracts\n\
                       err internal shards hold different contract sets";
        assert!(out.contains(refused), "{out}");
        let oracle = session(
            &fleet_shared(&serve_args(&glob, 1, None)),
            &format!("LEARN\n{edits}LEARN\nCHECK\nQUIT\n"),
        );
        assert_eq!(from_last_learn(&out), from_last_learn(&oracle));
    }

    /// The STATS fields one engine reports.
    const ENGINE_FIELDS: [&str; 11] = [
        "configs",
        "lines",
        "patterns",
        "edits",
        "relearns",
        "staleness",
        "learn_delta",
        "last_check",
        "memory",
        "storage",
        "robustness",
    ];

    /// At one shard, STATS is the leader's own snapshot (plus the
    /// serve and fleet objects), before and after a restart on the
    /// same state directory.
    #[test]
    fn one_shard_stats_are_the_leaders_own_before_and_after_restart() {
        let (_corpus, glob) = corpus_glob("leader-stats");
        let dir = temp_dir("leader-stats-state");
        let args = serve_args(&glob, 1, Some(&dir));
        let scripts = [
            "LEARN\nCHECK\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nREMOVE dev4\nCHECK\nLEARN\n\
             STATS\nQUIT\n",
            "CHECK\nUPSERT dev4\nvlan 254\n.\nLEARN\nSTATS\nQUIT\n",
        ];
        for (round, script) in scripts.iter().enumerate() {
            let shared = fleet_shared(&args);
            let stats = stats_json(&session(&shared, script));
            let leader = leader_stats(&shared, 0);
            for field in ENGINE_FIELDS {
                assert_eq!(stats[field], leader[field], "round {round}: {field}");
            }
            assert_eq!(stats["contracts"], leader["contracts"]);
            assert_eq!(stats["generations"], leader["generations"]);
            assert_eq!(stats["fleet"]["totals"]["configs"], leader["configs"]);
        }
    }

    /// STATS `last_check` after an edit is the same at every shard
    /// count: a rechecked shard contributes its own witness-index split,
    /// and a shard served from cache counts all of its indexes as
    /// patched.
    #[test]
    fn last_check_after_an_edit_is_the_same_at_every_shard_count() {
        let glob = format!(
            "{}/../../examples/configs/*.cfg",
            env!("CARGO_MANIFEST_DIR")
        );
        let script = "LEARN\nCHECK\nUPSERT leaf2\nhostname X\n.\nCHECK\nSTATS\nQUIT\n";
        let last_checks = [1, 2, 3].map(|shards| {
            let mut args = serve_args(&glob, shards, None);
            args.params.support = 3;
            stats_json(&session(&fleet_shared(&args), script))["last_check"].clone()
        });
        let patched = last_checks[0]["witness_indexes_patched"].as_u64();
        assert!(patched.is_some_and(|n| n > 0), "{:?}", last_checks[0]);
        assert_eq!(last_checks[1], last_checks[0]);
        assert_eq!(last_checks[2], last_checks[0]);
    }

    /// At more than one shard, STATS `memory` is the sum of the shards'.
    #[test]
    fn multi_shard_memory_is_the_sum_over_shards() {
        let (_corpus, glob) = corpus_glob("memory");
        let shared = fleet_shared(&serve_args(&glob, 3, None));
        let stats = stats_json(&session(
            &shared,
            "LEARN\nUPSERT dev0\nhostname DEV100\nvlan 250\n.\nCHECK\nSTATS\nQUIT\n",
        ));
        let shards: Vec<concord_json::Json> = (0..3).map(|i| leader_stats(&shared, i)).collect();
        for key in [
            "string_arena_bytes",
            "param_arena_bytes",
            "pattern_table_bytes",
            "column_bytes",
            "sketch_bytes",
            "interned_strings",
            "interned_param_slices",
            "segments_written",
            "segments_skipped",
        ] {
            let sum: u64 = shards
                .iter()
                .map(|s| s["memory"][key].as_u64().expect("shard memory"))
                .sum();
            assert_eq!(stats["memory"][key].as_u64(), Some(sum), "{key}");
        }
        assert!(stats["memory"]["string_arena_bytes"].as_u64() > Some(0));
    }

    /// A state directory a bare [`ResilientEngine::with_store`] wrote —
    /// the root layout the unsharded serve has always written — reopens
    /// through `serve --state-dir` with the engine's own answers. A new
    /// device draws the engine's next id, never a removed device's.
    #[test]
    fn engine_written_root_layout_reopens_with_identical_answers() {
        let (_corpus, glob) = corpus_glob("root-layout");
        let dir = temp_dir("root-layout-state");
        let (mut engine, resumed) = ResilientEngine::with_store(
            &corpus(),
            &[],
            Lexer::standard(),
            EngineOptions::default(),
            &dir,
        )
        .expect("engine boots");
        assert!(!resumed);
        engine.relearn().expect("learns");
        engine
            .upsert("dev0", "hostname DEV100\nvlan 250\n")
            .expect("upserts");
        engine.upsert("dev9", "vlan 9\n").expect("upserts");
        engine.remove("dev9").expect("removes");
        let report = engine.check().expect("checks").report;
        let next_id = engine.image().counters.next_id;
        drop(engine);

        let mut want_check = String::new();
        for v in &report.violations {
            want_check.push_str(&format!("{v}\n"));
        }
        let summary = report.coverage.summary();
        // A reopened engine rechecks everything once.
        want_check.push_str(&format!(
            "ok check {} violations; coverage {:.1}% of {} lines; dirty=6 reused=0\n",
            report.violations.len(),
            summary.fraction * 100.0,
            summary.total_lines,
        ));
        assert!(!report.violations.is_empty(), "dev0 lost its bgp line");

        let shared = fleet_shared(&serve_args(&glob, 1, Some(&dir)));
        let out = session(
            &shared,
            "GEN dev0\nGEN dev9\nCHECK\nUPSERT zz\nvlan 1\n.\nQUIT\n",
        );
        assert_eq!(
            out,
            format!(
                "ok gen dev0 1\nerr unknown-config dev9\n{want_check}ok upsert zz id={next_id} \
                 gen=0\nok bye\n"
            )
        );
        // Six boot devices took ids 0-5 and dev9 took 6: re-deriving ids
        // from the six surviving names would hand out 6 again.
        assert_eq!(next_id, 7);
    }

    /// First divergence from one shard at N > 1: after an edit that
    /// changes how contracts resolve, one engine drops its whole
    /// outcome cache while the fleet drops only the owning shard's, so
    /// the `dirty=`/`reused=` counters differ. Violations and coverage
    /// do not.
    #[test]
    fn multi_shard_counters_diverge_after_a_resolution_changing_edit() {
        // Contracts learned where every device runs NTP resolve nothing
        // for that line until an edit brings the first one in.
        let with_ntp: Vec<(String, String)> = corpus()
            .into_iter()
            .map(|(name, text)| (name, format!("{text}ntp server 10.0.0.1\n")))
            .collect();
        let mut learner =
            Engine::from_corpus(&with_ntp, &[], EngineOptions::default()).expect("learner");
        learner.relearn();
        let contracts_dir = temp_dir("resolution-contracts");
        let contracts = contracts_dir.join("contracts.json");
        std::fs::write(&contracts, learner.contracts().expect("learned").to_json())
            .expect("write contracts");

        let (_corpus, glob) = corpus_glob("resolution");
        let script = format!("CHECK\nUPSERT dev0\n{}.\nCHECK\nQUIT\n", with_ntp[0].1);
        let run = |shards: usize| {
            let mut args = serve_args(&glob, shards, None);
            args.contracts = Some(contracts.display().to_string());
            session(&fleet_shared(&args), &script)
        };
        let (one, three) = (run(1), run(3));
        let last_check = |out: &str| {
            out.lines()
                .rfind(|l| l.starts_with("ok check"))
                .expect("check line")
                .to_string()
        };
        assert!(last_check(&one).ends_with("dirty=6 reused=0"), "{one}");
        assert_ne!(last_check(&one), last_check(&three), "{three}");
        let masked_lines =
            |out: &str| -> Vec<String> { out.lines().map(|l| masked(l).to_string()).collect() };
        assert_eq!(masked_lines(&one), masked_lines(&three));
    }

    /// Second divergence from one shard at N > 1: a restarted fleet
    /// re-derives ids from the sorted surviving names and starts its
    /// sketch-cache mirror empty, so after a REMOVE and a restart a new
    /// device can draw the removed one's id, and the first LEARN reports
    /// every config mined. One shard keeps the engine's persisted id
    /// counter and sketches.
    #[test]
    fn multi_shard_restart_rederives_ids_and_learn_counters() {
        let (_corpus, glob) = corpus_glob("restart-ids");
        let first = "LEARN\nUPSERT dev9\nvlan 9\n.\nREMOVE dev9\nQUIT\n";
        let second = "LEARN\nUPSERT zz\nvlan 1\n.\nQUIT\n";
        let mut answers = Vec::new();
        for shards in [1, 3] {
            let dir = temp_dir(&format!("restart-ids-state-{shards}"));
            let args = serve_args(&glob, shards, Some(&dir));
            session(&fleet_shared(&args), first);
            let out = session(&fleet_shared(&args), second);
            answers.push(out.lines().skip(1).collect::<Vec<_>>().join("\n"));
            let learn = out.lines().next().unwrap_or_default().to_string();
            answers.push(
                learn
                    .split(" contracts ")
                    .nth(1)
                    .unwrap_or_default()
                    .to_string(),
            );
        }
        assert_eq!(
            answers,
            [
                "ok upsert zz id=7 gen=0\nok bye",
                "mined=0 reused=6",
                "ok upsert zz id=6 gen=0\nok bye",
                "mined=6 reused=0",
            ]
        );
    }
}
