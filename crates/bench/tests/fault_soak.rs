//! Randomized fault-injection soak for the resilient engine.
//!
//! A seeded [`FaultPlan`] drives a durable [`ResilientEngine`] through
//! a stream of edits while rotating through every storage- and
//! panic-level fault class: torn WAL tails, truncated checkpoint
//! manifests, torn per-config segments, and forced panics inside
//! upsert / check / learn. After **every** fault
//! the engine must still answer, and its CHECK report must match — byte
//! for byte — a clean engine rebuilt from scratch out of the recovered
//! image (the oracle the paper's incremental-equivalence argument rests
//! on). After every storage fault the recovered image must also equal
//! the image from before the crash: no acknowledged write is lost. Request-level faults (malformed / oversized / disconnect) are
//! protocol concerns and are soaked at the serve layer in
//! `concord-cli`'s robustness tests.
//!
//! Everything is a pure function of `CONCORD_SOAK_SEED` (default
//! `0xC0C0`), and `CONCORD_SOAK_ITERS` (default 48) scales the run for
//! CI soak jobs. A failing step prints both so it replays exactly.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use concord_core::{learn_reference, CheckReport, ContractSet, Dataset, RobustnessStats};
use concord_engine::fault::{FaultKind, FaultPlan, ALL_FAULTS};
// The storage-level (VFS) fault types share names with the plan-level
// ones above; alias them apart.
use concord_engine::{Engine, EngineFault, EngineImage, EngineOptions, OpKind, ResilientEngine};
use concord_engine::{FaultKind as StorageFault, FaultVfs};
use concord_lexer::Lexer;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A fresh state directory private to one test. The harness runs these
/// tests in parallel, so a directory named by the pid alone would let
/// one test delete another's state; `tag` must name the test.
fn soak_dir(tag: &str) -> PathBuf {
    assert!(!tag.is_empty(), "every soak test needs its own directory");
    let dir = std::env::temp_dir().join(format!("concord-fault-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders a check report the way the serve layer does, so "matches
/// byte for byte" means the bytes a client would actually see.
fn render(report: &CheckReport) -> String {
    let mut s = String::new();
    for v in &report.violations {
        let _ = writeln!(s, "{v}");
    }
    let summary = report.coverage.summary();
    let _ = writeln!(
        s,
        "{} violations; coverage {:.3}% of {} lines",
        report.violations.len(),
        summary.fraction * 100.0,
        summary.total_lines,
    );
    s
}

/// The from-scratch oracle: a fresh engine built out of the resilient
/// engine's last-known-good image, checked in full.
fn oracle(me: &ResilientEngine) -> String {
    let image = me.image();
    let mut oracle =
        Engine::from_corpus(&image.corpus(), &image.metadata, EngineOptions::default())
            .expect("oracle builds");
    if let Some(json) = &image.contracts {
        oracle.set_contracts(ContractSet::from_json(json).expect("image contracts parse"));
    }
    render(&oracle.check_dirty().expect("oracle checks").report)
}

/// The learn oracle: the contract set the sequential reference learner
/// (`learn_reference`) derives from a fresh dataset of the recovered
/// corpus, as its canonical JSON. It shares no sketch, fold or emit
/// code with the engine's delta relearn.
fn learn_oracle(me: &ResilientEngine) -> String {
    let image = me.image();
    let dataset = Dataset::from_named_texts(&image.corpus(), &image.metadata)
        .expect("learn oracle dataset builds");
    learn_reference(&dataset, &EngineOptions::default().learn).to_json()
}

/// Everything a crash must preserve: the image of every acknowledged
/// write (configs with their ids and generations, metadata, contracts,
/// counters, `applied_seq`). Captured sketches are derived state a
/// reboot may re-mine, so they are left out.
fn acknowledged(me: &ResilientEngine) -> EngineImage {
    let mut image = me.image().clone();
    for config in &mut image.configs {
        config.sketch = None;
    }
    image
}

fn reboot(dir: &Path) -> ResilientEngine {
    let (mut back, _) =
        ResilientEngine::with_store(&[], &[], Lexer::standard(), EngineOptions::default(), dir)
            .expect("reboot after fault");
    back.set_checkpoint_every(4);
    back
}

#[test]
fn storage_and_panic_fault_soak() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let iters = env_u64("CONCORD_SOAK_ITERS", 48) as usize;
    let dir = soak_dir("panic");
    let mut plan = FaultPlan::new(seed);

    let corpus: Vec<(String, String)> = (0..8)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let (mut me, resumed) = ResilientEngine::with_store(
        &corpus,
        &[],
        Lexer::standard(),
        EngineOptions::default(),
        &dir,
    )
    .expect("boots");
    assert!(!resumed);
    me.set_checkpoint_every(4);
    me.relearn().expect("initial learn");

    let mut reboots = 0u64;
    // Robustness counters of every engine the soak booted: a reboot
    // starts the next engine's counters at zero.
    let mut rob = RobustnessStats::default();
    for step in 0..iters {
        // Seeded edit traffic between faults.
        match plan.index(4) {
            0 | 1 => {
                let name = plan.device_name(10);
                let text = plan.config_text();
                me.upsert(&name, &text)
                    .unwrap_or_else(|e| panic!("step {step}: upsert failed: {e}"));
            }
            2 => {
                let name = plan.device_name(10);
                let _ = me
                    .remove(&name)
                    .unwrap_or_else(|e| panic!("step {step}: remove failed: {e}"));
            }
            _ => {
                me.relearn()
                    .unwrap_or_else(|e| panic!("step {step}: relearn failed: {e}"));
            }
        }

        // Rotate deterministically through every fault class so a short
        // run still covers all of them; the *shape* of each fault (how
        // many bytes survive a tear, which device a panic hits) stays
        // seeded.
        let fault = ALL_FAULTS[step % ALL_FAULTS.len()];
        match fault {
            FaultKind::TornWal | FaultKind::TruncatedSnapshot | FaultKind::TornSegment => {
                let before = acknowledged(&me);
                rob.accumulate(&me.robustness());
                drop(me);
                let _ = match fault {
                    FaultKind::TornWal => plan.tear_wal(&dir),
                    FaultKind::TruncatedSnapshot => plan.truncate_snapshot(&dir),
                    _ => plan.tear_fresh_segment(&dir),
                }
                .expect("storage fault");
                me = reboot(&dir);
                reboots += 1;
                assert_eq!(
                    acknowledged(&me),
                    before,
                    "step {step} fault {fault:?} seed {seed}: the reboot lost an acknowledged write"
                );
            }
            FaultKind::PanicUpsert => {
                me.arm_panic(OpKind::Upsert);
                let err = me.upsert(&plan.device_name(10), &plan.config_text());
                assert!(
                    matches!(err, Err(EngineFault::Panicked(_))),
                    "step {step}: expected injected panic, got {err:?}"
                );
            }
            FaultKind::PanicCheck => {
                me.arm_panic(OpKind::Check);
                let err = me.check();
                assert!(
                    matches!(err, Err(EngineFault::Panicked(_))),
                    "step {step}: expected injected panic, got {:?}",
                    err.map(|r| r.engine)
                );
            }
            FaultKind::PanicLearn => {
                me.arm_panic(OpKind::Learn);
                let err = me.relearn();
                assert!(
                    matches!(err, Err(EngineFault::Panicked(_))),
                    "step {step}: expected injected panic, got {err:?}"
                );
            }
            // Request-level faults: exercised against the serve layer in
            // concord-cli's robustness tests, no engine-level analogue.
            FaultKind::MalformedRequest | FaultKind::OversizedRequest | FaultKind::Disconnect => {}
            // `ALL_FAULTS` holds no fleet fault: shard crashes are
            // soaked against a real sharded server in `fleet_soak.rs`.
            FaultKind::ShardCrash => unreachable!("fleet fault in ALL_FAULTS"),
        }

        // Post-fault invariant: the engine answers, and byte-for-byte
        // agrees with a clean rebuild of its own image.
        let got = render(
            &me.check()
                .unwrap_or_else(|e| panic!("step {step} fault {fault:?}: check failed: {e}"))
                .report,
        );
        let want = oracle(&me);
        assert_eq!(
            got, want,
            "step {step} fault {fault:?} seed {seed}: post-fault check diverged from oracle"
        );

        // Sketch-replay invariant: a delta relearn on the recovered
        // engine — folding whatever sketches survived checkpointing,
        // torn storage, and WAL replay — must byte-identically match the
        // reference learner over the same corpus.
        if step % 4 == 3 {
            me.relearn()
                .unwrap_or_else(|e| panic!("step {step}: post-fault relearn failed: {e}"));
            let got = me.image().contracts.clone().expect("just learned");
            assert_eq!(
                got,
                learn_oracle(&me),
                "step {step} fault {fault:?} seed {seed}: delta relearn diverged from the reference learner"
            );
        }
    }

    rob.accumulate(&me.robustness());
    assert!(rob.panics_recovered >= 1, "{rob:?}");
    assert!(reboots >= 1 && rob.wal_replays >= 1, "{rob:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sketch persistence under `kill -9`: sketches checkpointed with the
/// snapshot are reused after a reboot, edits that only live in the WAL
/// invalidate exactly their configs, and a *torn* persisted sketch
/// bundle (bit-flipped snapshot payload) falls back to the backup
/// rather than poisoning the learner — in every case the post-reboot
/// delta relearn is byte-identical to the reference learner.
#[test]
fn sketch_cache_survives_kill_and_torn_persistence() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let dir = soak_dir("sketch");
    let mut plan = FaultPlan::new(seed ^ 0x5E7C);

    let corpus: Vec<(String, String)> = (0..8)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let (mut me, _) = ResilientEngine::with_store(
        &corpus,
        &[],
        Lexer::standard(),
        EngineOptions::default(),
        &dir,
    )
    .expect("boots");
    me.set_checkpoint_every(0);
    me.relearn().expect("initial learn");
    me.checkpoint();

    // Post-checkpoint edits live only in the WAL: after a kill, the
    // persisted sketches for these configs are stale by generation.
    me.upsert("dev0", &plan.config_text()).expect("upserts");
    me.remove("dev7").expect("removes");
    drop(me); // kill -9: no checkpoint since the edits

    let mut back = reboot(&dir);
    let ld = back.learn_delta().expect("live");
    assert!(
        ld.sketches >= 5,
        "persisted sketches must survive the reboot: {ld:?}"
    );
    assert!(
        ld.dirty >= 1,
        "WAL-replayed edits must invalidate their sketches: {ld:?}"
    );
    back.relearn().expect("relearns");
    let got = back.image().contracts.clone().expect("just learned");
    assert_eq!(
        got,
        learn_oracle(&back),
        "seed {seed}: post-kill delta relearn diverged from the reference learner"
    );
    back.checkpoint();
    drop(back);

    // Tear a persisted sketch: corrupt the newest segment of an edited
    // config (referenced by the live manifest only — the per-segment
    // CRC catches it and recovery falls back to the backup manifest
    // plus WAL replay). The learner must come back clean either way.
    assert!(
        plan.tear_fresh_segment(&dir).expect("tear segment"),
        "an edited config must leave two segment generations on disk"
    );

    let mut back = reboot(&dir);
    back.relearn().expect("relearns after torn segment");
    let got = back.image().contracts.clone().expect("just learned");
    assert_eq!(
        got,
        learn_oracle(&back),
        "seed {seed}: post-tear delta relearn diverged from the reference learner"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill between segment writes and the manifest rename: the crash
/// strands fully-written *orphan* segments (tmp + fsync + rename means
/// no half files), the old manifest still pins the old immutable
/// segments, and recovery is old-manifest + WAL replay. The orphans
/// are swept by the next checkpoint's garbage collector.
#[test]
fn kill_between_segment_writes_and_manifest_recovers_from_old_manifest() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let dir = soak_dir("manifest");
    let mut plan = FaultPlan::new(seed ^ 0x0DD5);

    let corpus: Vec<(String, String)> = (0..6)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let (mut me, _) = ResilientEngine::with_store(
        &corpus,
        &[],
        Lexer::standard(),
        EngineOptions::default(),
        &dir,
    )
    .expect("boots");
    me.set_checkpoint_every(0);
    me.relearn().expect("initial learn");
    me.checkpoint();

    // Edits acknowledged into the WAL but never checkpointed.
    me.upsert("dev1", &plan.config_text()).expect("upserts");
    me.upsert("dev2", &plan.config_text()).expect("upserts");
    drop(me); // kill -9 before any further checkpoint

    // Simulate the torn checkpoint: the next checkpoint would have
    // written fresh segments for dev1/dev2 *before* the manifest
    // rename. Strand plausible orphans (new generation, garbage
    // payload is irrelevant — nothing references them).
    let seg_dir = dir.join("segments");
    for orphan in [
        "cfg-0000000000000001-0000000000000007-0.seg",
        "cfg-0000000000000002-0000000000000007-0.seg",
    ] {
        std::fs::write(
            seg_dir.join(orphan),
            b"concord-engine-segment/v1 crc32=00000000\n{}\n",
        )
        .expect("orphan written");
    }

    let mut back = reboot(&dir);
    let got = render(&back.check().expect("post-crash check").report);
    assert_eq!(
        got,
        oracle(&back),
        "seed {seed}: recovery from old manifest + WAL diverged from oracle"
    );
    back.relearn().expect("relearns");
    assert_eq!(
        back.image().contracts.clone().expect("just learned"),
        learn_oracle(&back),
        "seed {seed}: post-crash delta relearn diverged from the reference learner"
    );

    // The reboot checkpointed (with_store folds replayed state), so the
    // orphans must be gone: unreferenced by both retained manifests.
    for orphan in [
        "cfg-0000000000000001-0000000000000007-0.seg",
        "cfg-0000000000000002-0000000000000007-0.seg",
    ] {
        assert!(
            !seg_dir.join(orphan).exists(),
            "orphan {orphan} survived garbage collection"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after the manifest rename but before the WAL truncate-and-
/// rotate finished: records already folded into the manifest reappear
/// in both `wal.log.old` and `wal.log`. Replay must skip every one of
/// them (`seq <= applied_seq`) instead of double-applying.
#[test]
fn rotated_but_untruncated_wal_does_not_double_apply() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let dir = soak_dir("rotated-wal");
    let mut plan = FaultPlan::new(seed ^ 0x3A1B);

    let corpus: Vec<(String, String)> = (0..6)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let (mut me, _) = ResilientEngine::with_store(
        &corpus,
        &[],
        Lexer::standard(),
        EngineOptions::default(),
        &dir,
    )
    .expect("boots");
    me.set_checkpoint_every(0);
    me.relearn().expect("initial learn");
    me.upsert("dev3", &plan.config_text()).expect("upserts");
    me.checkpoint();
    let want_before = render(&me.check().expect("pre-crash check").report);
    drop(me); // kill -9 mid-rotation, emulated below

    std::fs::copy(dir.join("wal.log.old"), dir.join("wal.log")).expect("wal re-duplicated");

    let mut back = reboot(&dir);
    let got = render(&back.check().expect("post-crash check").report);
    assert_eq!(
        got, want_before,
        "seed {seed}: duplicated WAL records changed the recovered state"
    );
    assert_eq!(
        got,
        oracle(&back),
        "seed {seed}: recovery with duplicated WALs diverged from oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn boot_with_vfs(corpus: &[(String, String)], dir: &Path, vfs: &FaultVfs) -> ResilientEngine {
    let (mut me, _) = ResilientEngine::with_store_vfs(
        corpus,
        &[],
        Lexer::standard(),
        EngineOptions::default(),
        dir,
        std::sync::Arc::new(vfs.clone()),
    )
    .expect("boots through fault vfs");
    me.set_checkpoint_every(0);
    me
}

/// ENOSPC tearing a write in half — once inside a WAL append, once
/// inside a checkpoint segment write. Both must be absorbed by the
/// engine's bounded retries (the torn tail repaired in between), never
/// degrade the engine, and leave a directory whose recovery is
/// byte-identical to the from-scratch oracle.
#[test]
fn enospc_mid_segment_write_is_retried_clean() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let dir = soak_dir("enospc");
    let mut plan = FaultPlan::new(seed ^ 0x5E6C);
    let corpus: Vec<(String, String)> = (0..6)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let vfs = FaultVfs::new(seed ^ 0x5E6C);
    let mut me = boot_with_vfs(&corpus, &dir, &vfs);
    me.relearn().expect("initial learn");

    // Half-write the next WAL append, then run out of space.
    vfs.fail_next(1, StorageFault::ShortWrite);
    me.upsert("dev0", &plan.config_text())
        .expect("short-written WAL append must be retried to success");

    // Same mid-write ENOSPC inside the checkpoint's segment writer.
    vfs.fail_next(1, StorageFault::ShortWrite);
    assert!(
        me.checkpoint(),
        "checkpoint must retry past the torn segment"
    );

    let storage = me.storage_stats();
    assert!(!storage.degraded, "transient ENOSPC must not degrade");
    assert!(storage.retries >= 2, "both faults retried: {storage:?}");
    assert!(storage.faults_injected >= 2, "faults counted: {storage:?}");
    assert_eq!(storage.degraded_transitions, 0);
    let want = render(&me.check().expect("post-fault check").report);
    drop(me);

    let mut back = reboot(&dir);
    let got = render(&back.check().expect("post-reboot check").report);
    assert_eq!(
        got, want,
        "seed {seed}: torn writes changed recovered state"
    );
    assert_eq!(
        got,
        oracle(&back),
        "seed {seed}: recovery after mid-write ENOSPC diverged from oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An fsync that fails after its data write landed: the append must be
/// retried (re-syncing a possibly duplicated record the replay's seq
/// dedup absorbs), acknowledged, and survive a reboot byte-identically.
#[test]
fn fsync_failure_then_retry_recovers() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let dir = soak_dir("fsync");
    let mut plan = FaultPlan::new(seed ^ 0xF5C0);
    let corpus: Vec<(String, String)> = (0..6)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let vfs = FaultVfs::new(seed ^ 0xF5C0);
    let mut me = boot_with_vfs(&corpus, &dir, &vfs);
    me.relearn().expect("initial learn");

    vfs.fail_next_syncs(1, StorageFault::Eio);
    me.upsert("dev1", &plan.config_text())
        .expect("append whose fsync failed once must be retried to success");

    let storage = me.storage_stats();
    assert!(!storage.degraded, "one failed fsync must not degrade");
    assert!(storage.retries >= 1, "fsync failure retried: {storage:?}");
    let want = render(&me.check().expect("post-fault check").report);
    let want_gen = me.config_generation("dev1").expect("generation read");
    drop(me);

    let mut back = reboot(&dir);
    assert_eq!(
        back.config_generation("dev1").expect("generation read"),
        want_gen,
        "seed {seed}: the retried append was lost across reboot"
    );
    let got = render(&back.check().expect("post-reboot check").report);
    assert_eq!(
        got, want,
        "seed {seed}: fsync retry changed recovered state"
    );
    assert_eq!(
        got,
        oracle(&back),
        "seed {seed}: recovery after fsync failure diverged from oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degraded-mode contract end to end: persistent storage failure
/// drives the engine read-only after bounded retries, CHECK keeps
/// answering byte-identically to the oracle the whole time, writes are
/// refused without touching memory, and the engine re-probes its way
/// back to healthy the moment the device recovers — all deterministic
/// under the soak seed.
#[test]
fn degraded_read_only_serves_then_recovers_when_faults_clear() {
    let seed = env_u64("CONCORD_SOAK_SEED", 0xC0C0);
    let dir = soak_dir("degraded");
    let mut plan = FaultPlan::new(seed ^ 0xDE64);
    let corpus: Vec<(String, String)> = (0..8)
        .map(|i| (format!("dev{i}"), plan.config_text()))
        .collect();
    let vfs = FaultVfs::new(seed ^ 0xDE64);
    let mut me = boot_with_vfs(&corpus, &dir, &vfs);
    me.relearn().expect("initial learn");
    me.upsert("dev0", &plan.config_text())
        .expect("healthy write");

    // The device dies for good (until further notice).
    vfs.fail_all_writes(Some(StorageFault::Eio));
    let err = me
        .upsert("dev1", &plan.config_text())
        .expect_err("write on a dead device must be refused");
    assert!(
        matches!(err, EngineFault::StorageDegraded(_)),
        "expected storage-degraded, got {err}"
    );
    assert!(
        me.degraded(),
        "engine must be degraded after retry exhaustion"
    );

    // Degraded is read-only: refused writes leave no trace, and CHECK
    // keeps answering from the resident state, matching the oracle.
    for i in 0..3 {
        let name = format!("ghost{i}");
        assert!(me.upsert(&name, &plan.config_text()).is_err());
        assert_eq!(
            me.config_generation(&name).expect("degraded read"),
            None,
            "ghost write applied"
        );
        assert_eq!(
            render(&me.check().expect("degraded check").report),
            oracle(&me),
            "seed {seed}: degraded CHECK diverged from oracle"
        );
    }
    let storage = me.storage_stats();
    assert_eq!(
        storage.degraded_transitions, 1,
        "one transition: {storage:?}"
    );
    assert!(storage.retries >= 1 && storage.faults_injected >= 1);

    // The device comes back; the next write re-probes and recovers.
    vfs.fail_all_writes(None);
    me.upsert("dev1", &plan.config_text())
        .expect("write after the device recovers");
    assert!(!me.degraded(), "engine must recover once writes succeed");
    let storage = me.storage_stats();
    assert!(storage.recoveries >= 1, "recovery counted: {storage:?}");
    assert!(me.checkpoint(), "post-recovery checkpoint");
    let want = render(&me.check().expect("post-recovery check").report);
    drop(me);

    let mut back = reboot(&dir);
    let got = render(&back.check().expect("post-reboot check").report);
    assert_eq!(
        got, want,
        "seed {seed}: degraded episode changed durable state"
    );
    assert_eq!(
        got,
        oracle(&back),
        "seed {seed}: recovery after degraded episode diverged from oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
