//! Virtual filesystem layer for the durability path.
//!
//! Every filesystem operation `wal.rs` and `store.rs` perform goes
//! through the [`Vfs`] trait — never `std::fs` directly (CI greps for
//! that). Two implementations exist: the passthrough [`RealVfs`], and
//! the seeded [`FaultVfs`] that injects deterministic `EIO`/`ENOSPC`/
//! short-write/torn-rename/fsync-lie faults, counts every sync point
//! (`sync_data`/`sync_all`/directory fsync), and can simulate a crash
//! at an exact sync point for exhaustive crash-point exploration
//! (`crates/bench/tests/crash_points.rs`).
//!
//! The crash model is "friendly": writes issued before the crash point
//! remain visible after "reboot" (the page cache of a single-node
//! fault model — we enumerate *where* the process dies, not reordering
//! by the disk itself), the sync at the crash point fails, and every
//! subsequent mutating operation fails until the `FaultVfs` is
//! discarded and the directory is reopened through a healthy VFS.
//!
//! [`StorageError`] is the typed error the durability layer reports
//! upward: `NoSpace` (ENOSPC) and `Io` (everything else transient) are
//! retryable and eventually degrade the engine to read-only; `Corrupt`
//! is a checksum/framing failure that retrying cannot fix.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An open writable file handle produced by a [`Vfs`]. Mutation is
/// exclusively `&mut self`, so `Sync` costs implementations nothing and
/// keeps engines holding a handle shareable across threads.
pub trait VfsFile: Send + Sync {
    /// Appends/writes the whole buffer at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file data (and metadata needed to read it back) to
    /// stable storage — a sync point.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes file data and all metadata to stable storage — a sync
    /// point.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem surface of the durability layer. Object-safe so the
/// WAL and store can hold an `Arc<dyn Vfs>` chosen at boot.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Opens an existing file for in-place writes (no truncation) —
    /// the torn-tail repair path.
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (or truncates) a file for writing — checkpoint `.tmp`
    /// siblings.
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file in create-append mode — the WAL.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Lists the file names (not paths) inside a directory.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Fsyncs a directory so renames/removals inside it are durable —
    /// a sync point. Best-effort on platforms that refuse to open
    /// directories.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Faults injected so far (0 for a passthrough implementation).
    fn injected_faults(&self) -> u64 {
        0
    }
}

const ENOSPC: i32 = 28;
const EIO: i32 = 5;

/// Typed storage error reported by the durability layer, so callers
/// can distinguish out-of-space from generic I/O from corruption (and
/// serve can answer `err storage-degraded` vs `err internal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// ENOSPC — the device is out of space. Retryable once space frees.
    NoSpace(String),
    /// Any other I/O failure (EIO, permissions, a failed fsync, ...).
    Io(String),
    /// Checksum or framing mismatch — retrying cannot help.
    Corrupt(String),
}

impl StorageError {
    /// Classifies an `io::Error`: raw OS error 28 (ENOSPC) becomes
    /// [`StorageError::NoSpace`], everything else [`StorageError::Io`].
    pub fn from_io(err: io::Error) -> StorageError {
        if err.raw_os_error() == Some(ENOSPC) {
            StorageError::NoSpace(err.to_string())
        } else {
            StorageError::Io(err.to_string())
        }
    }

    /// Whether a bounded retry could plausibly succeed (`true` for
    /// `NoSpace`/`Io`, `false` for `Corrupt`).
    pub fn retryable(&self) -> bool {
        !matches!(self, StorageError::Corrupt(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSpace(msg) => write!(f, "no space: {msg}"),
            StorageError::Io(msg) => write!(f, "io: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Passthrough [`Vfs`] over `std::fs` — the production implementation.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(path)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory fsync is best-effort: some filesystems refuse to
        // open directories, and losing it only widens the crash window.
        if let Ok(dir) = File::open(path) {
            dir.sync_all()?;
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// One kind of injectable storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with EIO.
    Eio,
    /// Fail with ENOSPC.
    NoSpace,
    /// Write roughly half the buffer for real, then fail with ENOSPC —
    /// a torn mid-segment / mid-record write.
    ShortWrite,
    /// `rename` removes the source and fails — the classic
    /// non-atomic-rename crash shape (recovered by the `.bak` ladder).
    TornRename,
    /// `sync_*` returns `Ok` without flushing anything (a lying disk
    /// cache). Counted, not failed.
    FsyncLie,
}

/// Probabilities (per mille, applied per operation) for the seeded
/// probabilistic fault plan used by the soak tests. All zero by
/// default; explicit queued faults work without a plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Chance (‰) a mutating op fails with EIO.
    pub eio_per_mille: u32,
    /// Chance (‰) a mutating op fails with ENOSPC.
    pub enospc_per_mille: u32,
    /// Chance (‰) a data write is torn short.
    pub short_write_per_mille: u32,
    /// Chance (‰) a sync lies instead of flushing.
    pub fsync_lie_per_mille: u32,
    /// Chance (‰) a rename tears (removes source, then fails).
    pub torn_rename_per_mille: u32,
}

#[derive(Debug, Default)]
struct FaultState {
    /// xorshift64* state for the probabilistic plan.
    rng: u64,
    plan: FaultPlan,
    /// Explicitly queued faults, consumed front-first by the next
    /// mutating operations.
    queued: Vec<FaultKind>,
    /// Like `queued` but only consumed by sync points.
    queued_syncs: Vec<FaultKind>,
    /// When set, every mutating operation fails with this kind until
    /// cleared — the "disk is persistently broken" switch.
    fail_all: Option<FaultKind>,
}

#[derive(Debug)]
struct FaultCore {
    inner: RealVfs,
    state: Mutex<FaultState>,
    /// Sync points observed (every `sync_data`/`sync_all`/`sync_dir`).
    sync_points: AtomicU64,
    /// Crash when the sync-point counter reaches this value: that sync
    /// fails and the "process" is dead — all later mutations fail.
    crash_at_sync: AtomicU64,
    crashed: AtomicBool,
    faults: AtomicU64,
    fsync_lies: AtomicU64,
}

enum SyncAction {
    Flush,
    Lie,
}

impl FaultCore {
    fn count_fault(&self) {
        self.faults.fetch_add(1, Ordering::SeqCst);
    }

    fn dead(&self) -> Option<io::Error> {
        if self.crashed.load(Ordering::SeqCst) {
            Some(io::Error::from_raw_os_error(EIO))
        } else {
            None
        }
    }

    fn roll(state: &mut FaultState, per_mille: u32) -> bool {
        if per_mille == 0 {
            return false;
        }
        // xorshift64* — deterministic, no external deps.
        let mut x = state.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % 1000 < per_mille as u64
    }

    /// Draws the fault (if any) for one mutating non-sync operation.
    fn draw_fault(&self, is_write: bool, is_rename: bool) -> Option<FaultKind> {
        let mut state = self.state.lock().expect("fault state poisoned");
        if let Some(kind) = state.fail_all {
            return Some(kind);
        }
        if !state.queued.is_empty() {
            return Some(state.queued.remove(0));
        }
        let plan = state.plan;
        if is_write && Self::roll(&mut state, plan.short_write_per_mille) {
            return Some(FaultKind::ShortWrite);
        }
        if is_rename && Self::roll(&mut state, plan.torn_rename_per_mille) {
            return Some(FaultKind::TornRename);
        }
        if Self::roll(&mut state, plan.eio_per_mille) {
            return Some(FaultKind::Eio);
        }
        if Self::roll(&mut state, plan.enospc_per_mille) {
            return Some(FaultKind::NoSpace);
        }
        None
    }

    /// Draws the fault (if any) for one sync point.
    fn draw_sync_fault(&self) -> Option<FaultKind> {
        let mut state = self.state.lock().expect("fault state poisoned");
        if let Some(kind) = state.fail_all {
            return Some(kind);
        }
        if !state.queued_syncs.is_empty() {
            return Some(state.queued_syncs.remove(0));
        }
        if !state.queued.is_empty() {
            return Some(state.queued.remove(0));
        }
        let plan = state.plan;
        if Self::roll(&mut state, plan.fsync_lie_per_mille) {
            return Some(FaultKind::FsyncLie);
        }
        None
    }

    fn fault_error(&self, kind: FaultKind) -> io::Error {
        self.count_fault();
        match kind {
            FaultKind::NoSpace | FaultKind::ShortWrite => io::Error::from_raw_os_error(ENOSPC),
            _ => io::Error::from_raw_os_error(EIO),
        }
    }

    /// Registers one sync point; returns an error if this point is the
    /// armed crash point, a queued/planned sync fault fires, or the
    /// crash already happened.
    fn on_sync(&self) -> io::Result<SyncAction> {
        if let Some(err) = self.dead() {
            return Err(err);
        }
        let point = self.sync_points.fetch_add(1, Ordering::SeqCst) + 1;
        if point >= self.crash_at_sync.load(Ordering::SeqCst) {
            self.crashed.store(true, Ordering::SeqCst);
            self.count_fault();
            return Err(io::Error::from_raw_os_error(EIO));
        }
        match self.draw_sync_fault() {
            Some(FaultKind::FsyncLie) => {
                self.count_fault();
                self.fsync_lies.fetch_add(1, Ordering::SeqCst);
                Ok(SyncAction::Lie)
            }
            Some(kind) => Err(self.fault_error(kind)),
            None => Ok(SyncAction::Flush),
        }
    }

    /// Gate for one mutating non-sync operation. `Ok(Some(_))` means a
    /// special-shaped fault (short write / torn rename) the caller
    /// must enact itself.
    fn on_mutate(&self, is_write: bool, is_rename: bool) -> io::Result<Option<FaultKind>> {
        if let Some(err) = self.dead() {
            return Err(err);
        }
        match self.draw_fault(is_write, is_rename) {
            Some(FaultKind::ShortWrite) if is_write => Ok(Some(FaultKind::ShortWrite)),
            Some(FaultKind::TornRename) if is_rename => Ok(Some(FaultKind::TornRename)),
            Some(FaultKind::FsyncLie) => Ok(None),
            Some(kind) => Err(self.fault_error(kind)),
            None => Ok(None),
        }
    }
}

/// Fault-injecting [`Vfs`] wrapping [`RealVfs`]: deterministic under a
/// fixed seed, with explicit per-operation fault queues for targeted
/// tests, a persistent-failure switch for degraded-mode soaks, and
/// crash-at-sync-point emulation for exhaustive crash exploration.
/// Cheap to clone — clones share all counters and knobs.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    core: Arc<FaultCore>,
}

impl FaultVfs {
    /// A fault VFS with no plan and nothing queued — a pure sync-point
    /// counter until faults are armed.
    pub fn new(seed: u64) -> FaultVfs {
        FaultVfs {
            core: Arc::new(FaultCore {
                inner: RealVfs,
                state: Mutex::new(FaultState {
                    // xorshift needs a nonzero state; fold the seed in.
                    rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                    ..FaultState::default()
                }),
                sync_points: AtomicU64::new(0),
                crash_at_sync: AtomicU64::new(u64::MAX),
                crashed: AtomicBool::new(false),
                faults: AtomicU64::new(0),
                fsync_lies: AtomicU64::new(0),
            }),
        }
    }

    /// A fault VFS with a probabilistic per-operation plan.
    pub fn with_plan(seed: u64, plan: FaultPlan) -> FaultVfs {
        let vfs = FaultVfs::new(seed);
        vfs.core.state.lock().expect("fault state poisoned").plan = plan;
        vfs
    }

    /// Arms a crash at the `n`th sync point from now (1-based): that
    /// sync fails, and every subsequent mutating operation fails until
    /// the VFS is discarded.
    pub fn crash_at_sync_point(&self, n: u64) {
        let base = self.core.sync_points.load(Ordering::SeqCst);
        self.core.crash_at_sync.store(base + n, Ordering::SeqCst);
    }

    /// Queues `n` faults of `kind`, consumed by the next `n` mutating
    /// operations (writes, syncs, renames, removes, creates).
    pub fn fail_next(&self, n: usize, kind: FaultKind) {
        let mut state = self.core.state.lock().expect("fault state poisoned");
        state.queued.extend(std::iter::repeat_n(kind, n));
    }

    /// Queues `n` faults of `kind` consumed only by sync points —
    /// targeted fsync-failure tests without disturbing the data write.
    pub fn fail_next_syncs(&self, n: usize, kind: FaultKind) {
        let mut state = self.core.state.lock().expect("fault state poisoned");
        state.queued_syncs.extend(std::iter::repeat_n(kind, n));
    }

    /// Turns persistent failure on (`Some(kind)`) or off (`None`).
    /// While on, every mutating operation fails — the engine should
    /// exhaust its retries and degrade to read-only.
    pub fn fail_all_writes(&self, kind: Option<FaultKind>) {
        self.core
            .state
            .lock()
            .expect("fault state poisoned")
            .fail_all = kind;
    }

    /// Sync points observed so far.
    pub fn sync_points(&self) -> u64 {
        self.core.sync_points.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has triggered.
    pub fn crashed(&self) -> bool {
        self.core.crashed.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn faults(&self) -> u64 {
        self.core.faults.load(Ordering::SeqCst)
    }

    /// Fsync lies told so far (syncs acknowledged without flushing).
    pub fn fsync_lies(&self) -> u64 {
        self.core.fsync_lies.load(Ordering::SeqCst)
    }

    fn open_checked(
        &self,
        open: impl FnOnce(&RealVfs) -> io::Result<Box<dyn VfsFile>>,
    ) -> io::Result<Box<dyn VfsFile>> {
        self.core.on_mutate(false, false)?;
        let inner = open(&self.core.inner)?;
        Ok(Box::new(FaultHandle {
            inner,
            core: self.core.clone(),
        }))
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.core.inner.read(path)
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open_checked(|real| real.open_write(path))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open_checked(|real| real.create_truncate(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open_checked(|real| real.open_append(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.core.on_mutate(false, false)?;
        self.core.inner.create_dir_all(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.core.on_mutate(false, true)? {
            Some(FaultKind::TornRename) => {
                // Tear the rename: the source vanishes, the target is
                // never written. Recovery must fall back to `.bak`.
                let _ = self.core.inner.remove_file(from);
                Err(self.core.fault_error(FaultKind::Eio))
            }
            _ => self.core.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.core.on_mutate(false, false)?;
        self.core.inner.remove_file(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.core.inner.read_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.core.on_sync()? {
            SyncAction::Lie => Ok(()),
            SyncAction::Flush => self.core.inner.sync_dir(path),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.core.inner.exists(path)
    }

    fn injected_faults(&self) -> u64 {
        self.faults()
    }
}

/// A write handle that re-checks its parent [`FaultVfs`] on every
/// operation, so crashes and queued faults fire mid-stream.
struct FaultHandle {
    inner: Box<dyn VfsFile>,
    core: Arc<FaultCore>,
}

impl VfsFile for FaultHandle {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.core.on_mutate(true, false)? {
            Some(FaultKind::ShortWrite) => {
                // Land half the bytes for real, then report ENOSPC —
                // the reader-side crc/truncation machinery must cope.
                let half = buf.len() / 2;
                self.inner.write_all(&buf[..half])?;
                Err(self.core.fault_error(FaultKind::ShortWrite))
            }
            _ => self.inner.write_all(buf),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.core.on_sync()? {
            SyncAction::Lie => Ok(()),
            SyncAction::Flush => self.inner.sync_data(),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.core.on_sync()? {
            SyncAction::Lie => Ok(()),
            SyncAction::Flush => self.inner.sync_all(),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.core.on_mutate(true, false)?;
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn tmp_dir(tag: &str) -> TempDir {
        let dir = TempDir::new(&format!("vfs-{tag}"));
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn real_vfs_round_trips_and_lists() {
        let dir = tmp_dir("real");
        let vfs = RealVfs;
        let path = dir.join("a.txt");
        let mut f = vfs.create_truncate(&path).expect("create");
        f.write_all(b"hello").expect("write");
        f.sync_all().expect("sync");
        drop(f);
        assert_eq!(vfs.read(&path).expect("read"), b"hello");
        assert!(vfs.exists(&path));
        let names = vfs.read_dir(&dir).expect("read_dir");
        assert_eq!(names, vec!["a.txt".to_string()]);
        vfs.rename(&path, &dir.join("b.txt")).expect("rename");
        assert!(!vfs.exists(&path));
        vfs.sync_dir(&dir).expect("sync_dir");
        vfs.remove_file(&dir.join("b.txt")).expect("remove");
    }

    #[test]
    fn fault_vfs_counts_sync_points_and_crashes_on_schedule() {
        let dir = tmp_dir("crash");
        let fault = FaultVfs::new(7);
        let path = dir.join("wal.log");
        let mut f = fault.open_append(&path).expect("open");
        f.write_all(b"one\n").expect("write");
        f.sync_data().expect("sync 1");
        assert_eq!(fault.sync_points(), 1);

        fault.crash_at_sync_point(1);
        f.write_all(b"two\n").expect("write before crash lands");
        assert!(f.sync_data().is_err(), "crash point sync must fail");
        assert!(fault.crashed());
        // After the crash every mutation fails, reads still work.
        assert!(f.write_all(b"three\n").is_err());
        assert!(fault.open_append(&path).is_err());
        assert!(fault.rename(&path, &dir.join("x")).is_err());
        // Friendly crash model: pre-crash writes are visible on reboot.
        assert_eq!(RealVfs.read(&path).expect("read back"), b"one\ntwo\n");
    }

    #[test]
    fn queued_faults_fire_in_order_and_classify() {
        let dir = tmp_dir("queue");
        let fault = FaultVfs::new(3);
        let path = dir.join("f");
        let mut f = fault.create_truncate(&path).expect("create");
        fault.fail_next(1, FaultKind::NoSpace);
        let err = f.write_all(b"xxxx").expect_err("queued enospc");
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(matches!(
            StorageError::from_io(err),
            StorageError::NoSpace(_)
        ));
        // Queue drained: next write succeeds.
        f.write_all(b"ok").expect("write after queue drained");
        assert_eq!(fault.faults(), 1);
    }

    #[test]
    fn short_write_lands_half_then_fails() {
        let dir = tmp_dir("short");
        let fault = FaultVfs::new(5);
        let path = dir.join("f");
        let mut f = fault.create_truncate(&path).expect("create");
        fault.fail_next(1, FaultKind::ShortWrite);
        assert!(f.write_all(b"abcdefgh").is_err());
        drop(f);
        assert_eq!(RealVfs.read(&path).expect("read"), b"abcd");
    }

    #[test]
    fn torn_rename_drops_source_without_writing_target() {
        let dir = tmp_dir("torn");
        let fault = FaultVfs::new(9);
        let src = dir.join("src");
        let dst = dir.join("dst");
        let mut f = fault.create_truncate(&src).expect("create");
        f.write_all(b"payload").expect("write");
        drop(f);
        fault.fail_next(1, FaultKind::TornRename);
        assert!(fault.rename(&src, &dst).is_err());
        assert!(!fault.exists(&src), "torn rename removes the source");
        assert!(!fault.exists(&dst), "torn rename never creates the target");
    }

    #[test]
    fn fail_all_writes_blocks_until_cleared() {
        let dir = tmp_dir("failall");
        let fault = FaultVfs::new(11);
        let path = dir.join("f");
        fault.fail_all_writes(Some(FaultKind::Eio));
        assert!(fault.create_truncate(&path).is_err());
        fault.fail_all_writes(None);
        let mut f = fault.create_truncate(&path).expect("healthy again");
        f.write_all(b"x").expect("write");
    }

    #[test]
    fn fsync_lie_acknowledges_without_flush_and_counts() {
        let dir = tmp_dir("lie");
        let fault = FaultVfs::new(13);
        let mut f = fault.create_truncate(&dir.join("f")).expect("create");
        f.write_all(b"x").expect("write");
        fault.fail_next_syncs(1, FaultKind::FsyncLie);
        f.sync_all().expect("a lie looks like success");
        assert_eq!(fault.fsync_lies(), 1);
        assert_eq!(fault.faults(), 1);
    }

    #[test]
    fn plan_is_deterministic_under_a_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let fault = FaultVfs::with_plan(
                seed,
                FaultPlan {
                    eio_per_mille: 300,
                    ..FaultPlan::default()
                },
            );
            (0..64)
                .map(|_| fault.core.draw_fault(false, false).is_some())
                .collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds should diverge");
    }

    #[test]
    fn storage_error_classifies_and_displays() {
        let enospc = StorageError::from_io(io::Error::from_raw_os_error(28));
        assert!(matches!(enospc, StorageError::NoSpace(_)));
        assert!(enospc.retryable());
        let eio = StorageError::from_io(io::Error::from_raw_os_error(5));
        assert!(matches!(eio, StorageError::Io(_)));
        assert!(eio.retryable());
        let corrupt = StorageError::Corrupt("bad crc".to_string());
        assert!(!corrupt.retryable());
        assert_eq!(corrupt.to_string(), "corrupt: bad crc");
    }
}
