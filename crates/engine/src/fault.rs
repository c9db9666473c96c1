//! Deterministic fault-injection support for the resilient engine.
//!
//! A [`FaultPlan`] is a seeded [`concord_rng::StdRng`] plus generators
//! for every fault class the hardening work defends against: torn WAL
//! tails (a partial record after the acknowledged ones, as a crash
//! mid-append leaves), truncated checkpoint manifests, torn segments,
//! malformed / non-UTF-8 / oversized
//! requests, mid-session disconnects, and forced panics inside engine
//! operations. Everything is a pure function of the seed — no
//! wall-clock, no OS randomness — so a failing soak run replays
//! exactly from its seed.
//!
//! The module lives in the library (not `#[cfg(test)]`) because the
//! soak tests in `concord-bench` and the serve robustness tests in
//! `concord-cli` both drive it; it has no effect on production paths
//! unless explicitly invoked.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;

use concord_rng::{Rng, SeedableRng, StdRng};

use crate::store::SegRef;
use crate::wal::{encode_record, Wal, WalOp};

/// The fault classes a soak run rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Leave a partial record at the end of the live WAL (simulated
    /// crash during an append that was never acknowledged).
    TornWal,
    /// Truncate the live checkpoint manifest mid-payload (simulated
    /// crash during checkpoint, or bit rot).
    TruncatedSnapshot,
    /// Truncate a segment file referenced only by the live manifest
    /// (bit rot inside one config's segment), forcing recovery through
    /// the backup manifest plus WAL replay.
    TornSegment,
    /// Arm a panic inside an upsert.
    PanicUpsert,
    /// Arm a panic inside a check.
    PanicCheck,
    /// Arm a panic inside a learn.
    PanicLearn,
    /// Send a malformed (possibly non-UTF-8) request line.
    MalformedRequest,
    /// Send a request line larger than the configured limit.
    OversizedRequest,
    /// Disconnect mid-request (e.g. between an UPSERT header and its
    /// body sentinel).
    Disconnect,
    /// Crash one shard's leader (armed panic inside its next CHECK):
    /// that CHECK answers the fault, and the leader, rebuilt from its
    /// last-known-good image, answers the next one.
    ShardCrash,
}

/// The fault kinds one engine and its serve layer are soaked against,
/// in rotation order.
pub const ALL_FAULTS: [FaultKind; 9] = [
    FaultKind::TornWal,
    FaultKind::TruncatedSnapshot,
    FaultKind::TornSegment,
    FaultKind::PanicUpsert,
    FaultKind::PanicCheck,
    FaultKind::PanicLearn,
    FaultKind::MalformedRequest,
    FaultKind::OversizedRequest,
    FaultKind::Disconnect,
];

/// The fleet-only fault kinds, in rotation order — what a sharded soak
/// adds on top of [`ALL_FAULTS`]'s single-engine classes.
pub const FLEET_FAULTS: [FaultKind; 1] = [FaultKind::ShardCrash];

/// A seeded source of faults and hostile inputs.
pub struct FaultPlan {
    rng: StdRng,
}

impl FaultPlan {
    /// Builds a plan from a seed; two plans with the same seed produce
    /// the same fault sequence on any platform.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Picks the next fault to inject.
    pub fn pick(&mut self) -> FaultKind {
        ALL_FAULTS[self.rng.gen_range(0..ALL_FAULTS.len())]
    }

    /// Uniform integer in `[0, bound)` (for choosing targets).
    pub fn index(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound.max(1))
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// A deterministic device name for edit traffic.
    pub fn device_name(&mut self, pool: usize) -> String {
        format!("dev{}", self.rng.gen_range(0..pool.max(1)))
    }

    /// A deterministic configuration text: mostly well-formed lines so
    /// the corpus keeps learnable structure, with occasional oddities.
    pub fn config_text(&mut self) -> String {
        let vlan = self.rng.gen_range(1..4000u32);
        let mtu = [1500u32, 9000, 1400][self.rng.gen_range(0..3usize)];
        let host = self.rng.gen_range(100..999u32);
        let mut text = format!("hostname DEV{host}\nvlan {vlan}\nmtu {mtu}\n");
        if self.rng.gen_bool(0.2) {
            text.push_str("interface Loopback0\n ip address 10.0.0.1\n");
        }
        text
    }

    /// A malformed request line: random bytes (newline-free, so it
    /// stays one protocol line), possibly invalid UTF-8.
    pub fn garbage_line(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.rng.gen_range(1..max_len.max(2));
        (0..len)
            .map(|_| {
                let b = self.rng.gen_range(0..=255u32) as u8;
                if b == b'\n' || b == b'\r' {
                    0xFF
                } else {
                    b
                }
            })
            .collect()
    }

    /// A request line guaranteed to exceed `limit` bytes.
    pub fn oversized_line(&mut self, limit: usize) -> Vec<u8> {
        let extra = self.rng.gen_range(1..1024usize);
        let mut line = Vec::with_capacity(limit + extra);
        line.extend_from_slice(b"UPSERT ");
        while line.len() < limit + extra {
            line.push(b'x');
        }
        line
    }

    /// Appends a random non-empty proper prefix of one well-formed
    /// record to the live WAL, simulating a crash in the middle of an
    /// append: the prefix holds no newline, so it stays the torn tail,
    /// and every acknowledged record before it survives. Returns
    /// `false` when there is no WAL.
    pub fn tear_wal(&mut self, state_dir: &Path) -> io::Result<bool> {
        let path = state_dir.join("wal.log");
        if !path.exists() {
            return Ok(false);
        }
        let (records, _) = Wal::read_records(&path)?;
        let seq = records.last().map_or(1, |r| r.seq + 1);
        let op = WalOp::Upsert {
            name: self.device_name(10),
            text: self.config_text(),
        };
        let line = encode_record(seq, &op);
        let keep = self.rng.gen_range(1..line.len());
        let mut file = OpenOptions::new().append(true).open(&path)?;
        file.write_all(&line.as_bytes()[..keep])?;
        file.sync_all()?;
        Ok(true)
    }

    /// Truncates the live checkpoint manifest mid-payload, simulating a
    /// crash during checkpoint. Returns `false` when there is nothing to
    /// truncate.
    pub fn truncate_snapshot(&mut self, state_dir: &Path) -> io::Result<bool> {
        self.truncate_file(&state_dir.join("manifest.json"))
    }

    /// Truncates the *newest* segment of a config that has more than
    /// one on-disk segment file — by construction a segment referenced
    /// by the live manifest only, never the `.bak` (backup refs are
    /// strictly older for a duplicated id). Tearing a shared segment
    /// would corrupt both fallback rungs at once, which no real crash
    /// can do: segments are written tmp + fsync + rename, so a kill
    /// mid-checkpoint only ever strands whole orphan files. Returns
    /// `false` when no config has a duplicated segment.
    pub fn tear_fresh_segment(&mut self, state_dir: &Path) -> io::Result<bool> {
        let seg_dir = state_dir.join("segments");
        let entries = match std::fs::read_dir(&seg_dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut by_id: HashMap<u64, Vec<SegRef>> = HashMap::new();
        for entry in entries.flatten() {
            if let Some(seg) = SegRef::parse(&entry.file_name().to_string_lossy()) {
                by_id.entry(seg.id).or_default().push(seg);
            }
        }
        let mut candidates: Vec<SegRef> = by_id
            .values()
            .filter(|refs| refs.len() >= 2)
            .filter_map(|refs| refs.iter().max_by_key(|r| (r.generation, r.sketch)))
            .copied()
            .collect();
        if candidates.is_empty() {
            return Ok(false);
        }
        candidates.sort_by_key(|r| (r.id, r.generation, r.sketch));
        let pick = candidates[self.index(candidates.len())];
        self.truncate_file(&seg_dir.join(pick.file_name()))
    }

    fn truncate_file(&mut self, path: &Path) -> io::Result<bool> {
        let len = match std::fs::metadata(path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        if len < 2 {
            return Ok(false);
        }
        let keep = self.rng.gen_range(1..len);
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep)?;
        file.sync_all()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut a = FaultPlan::new(42);
        let mut b = FaultPlan::new(42);
        for _ in 0..64 {
            assert_eq!(a.pick(), b.pick());
            assert_eq!(a.garbage_line(64), b.garbage_line(64));
            assert_eq!(a.config_text(), b.config_text());
        }
    }

    #[test]
    fn oversized_line_exceeds_limit() {
        let mut plan = FaultPlan::new(7);
        for _ in 0..16 {
            assert!(plan.oversized_line(4096).len() > 4096);
        }
    }

    #[test]
    fn garbage_lines_stay_single_line() {
        let mut plan = FaultPlan::new(9);
        for _ in 0..64 {
            let line = plan.garbage_line(128);
            assert!(!line.contains(&b'\n'));
            assert!(!line.contains(&b'\r'));
        }
    }

    #[test]
    fn tearing_a_missing_wal_is_a_no_op() {
        let dir = TempDir::new("fault");
        std::fs::create_dir_all(&dir).unwrap();
        let mut plan = FaultPlan::new(1);
        assert!(!plan.tear_wal(&dir).unwrap());
        assert!(!plan.truncate_snapshot(&dir).unwrap());
    }

    #[test]
    fn a_torn_wal_keeps_every_acknowledged_record() {
        let dir = TempDir::new("fault-tear");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 1).unwrap();
        wal.append(&WalOp::Learn).unwrap();
        wal.append(&WalOp::Remove {
            name: "dev0".to_string(),
        })
        .unwrap();
        drop(wal);
        let (acked, _) = Wal::read_records(&path).unwrap();
        let mut plan = FaultPlan::new(3);
        for _ in 0..8 {
            assert!(plan.tear_wal(&dir).unwrap());
            assert_eq!(Wal::read_records(&path).unwrap(), (acked.clone(), true));
            // A boot repairs the tail before appending.
            drop(Wal::open_append(&path, 3).unwrap());
        }
    }
}
