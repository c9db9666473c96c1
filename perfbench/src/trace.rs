//! In-memory span recording and a timing [`Vfs`] for the traced replay.
//!
//! Spans are recorded around calls into each layer's public functions
//! from this crate only; the program itself is not instrumented. The
//! durability layer is reached through [`TimingVfs`], which wraps
//! [`RealVfs`] so WAL and checkpoint I/O shows up as child spans of the
//! engine operation that issued it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use concord_engine::{RealVfs, Vfs, VfsFile};

use crate::stats::Span;

thread_local! {
    /// Open spans on this thread: (index, op id).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans in memory; a disabled tracer only runs the closures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(on: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `op` starts a new workload
    /// operation; `None` inherits the enclosing span's.
    pub fn span<T>(&self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (parent, inherited) = STACK.with(|s| s.borrow().last().copied()).unzip();
        let op = op.or(inherited).unwrap_or(0);
        let start = self.now();
        let index = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                op,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push((index, op)));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("span list lock")[index].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// What a path in a state directory holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileClass {
    /// `wal.log` / `wal.log.old`.
    Wal,
    /// `segments/*`.
    Segment,
    /// `manifest*`.
    Manifest,
    /// Directories and anything else.
    Other,
}

impl FileClass {
    fn of(path: &Path) -> FileClass {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let parent = path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str());
        if name.starts_with("wal.log") {
            FileClass::Wal
        } else if parent == Some("segments") {
            FileClass::Segment
        } else if name.starts_with("manifest") {
            FileClass::Manifest
        } else {
            FileClass::Other
        }
    }

    fn write_span(self) -> &'static str {
        match self {
            FileClass::Wal => "wal.append",
            FileClass::Segment => "store.segment_write",
            FileClass::Manifest => "store.manifest_write",
            FileClass::Other => "store.other_write",
        }
    }

    fn sync_span(self) -> &'static str {
        match self {
            FileClass::Wal => "wal.fsync",
            _ => "store.fsync",
        }
    }
}

/// Bytes written and sync points per [`FileClass`]; kept whether or not
/// spans are on (counting costs nothing next to the I/O).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Bytes written.
    pub bytes: u64,
    /// Sync points (`sync_data`, `sync_all`, directory fsync).
    pub syncs: u64,
}

type IoBook = Arc<Mutex<BTreeMap<FileClass, IoCounts>>>;

/// A [`Vfs`] that delegates to [`RealVfs`], records a span for every
/// write, sync and read, and keeps per-path-class byte and sync counts.
pub struct TimingVfs {
    inner: RealVfs,
    tracer: Arc<Tracer>,
    book: IoBook,
}

impl fmt::Debug for TimingVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingVfs").finish_non_exhaustive()
    }
}

impl TimingVfs {
    /// A timing VFS recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> TimingVfs {
        TimingVfs {
            inner: RealVfs,
            tracer,
            book: Arc::default(),
        }
    }

    /// The counts of one path class so far.
    pub fn counts(&self, class: FileClass) -> IoCounts {
        self.book
            .lock()
            .expect("io book lock")
            .get(&class)
            .copied()
            .unwrap_or_default()
    }

    /// Sync points across every class.
    pub fn total_syncs(&self) -> u64 {
        let book = self.book.lock().expect("io book lock");
        book.values().map(|c| c.syncs).sum()
    }

    fn note(&self, class: FileClass, f: impl FnOnce(&mut IoCounts)) {
        f(self
            .book
            .lock()
            .expect("io book lock")
            .entry(class)
            .or_default());
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TimedFile {
            inner: file,
            class: FileClass::of(path),
            tracer: Arc::clone(&self.tracer),
            book: Arc::clone(&self.book),
        })
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
    tracer: Arc<Tracer>,
    book: IoBook,
}

impl TimedFile {
    fn note(&self, f: impl FnOnce(&mut IoCounts)) {
        f(self
            .book
            .lock()
            .expect("io book lock")
            .entry(self.class)
            .or_default());
    }
}

impl VfsFile for TimedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.note(|c| c.bytes += buf.len() as u64);
        let tracer = Arc::clone(&self.tracer);
        tracer.span(self.class.write_span(), None, || self.inner.write_all(buf))
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.note(|c| c.syncs += 1);
        let tracer = Arc::clone(&self.tracer);
        tracer.span(self.class.sync_span(), None, || self.inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.note(|c| c.syncs += 1);
        let tracer = Arc::clone(&self.tracer);
        tracer.span(self.class.sync_span(), None, || self.inner.sync_all())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let tracer = Arc::clone(&self.tracer);
        tracer.span("store.meta", None, || self.inner.set_len(len))
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.tracer
            .span("store.read", None, || self.inner.read(path))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self
            .tracer
            .span("store.meta", None, || self.inner.open_write(path))?;
        Ok(self.wrap(path, file))
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self
            .tracer
            .span("store.meta", None, || self.inner.create_truncate(path))?;
        Ok(self.wrap(path, file))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self
            .tracer
            .span("store.meta", None, || self.inner.open_append(path))?;
        Ok(self.wrap(path, file))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.tracer
            .span("store.meta", None, || self.inner.create_dir_all(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tracer
            .span("store.meta", None, || self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tracer
            .span("store.meta", None, || self.inner.remove_file(path))
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.tracer
            .span("store.meta", None, || self.inner.read_dir(path))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.note(FileClass::Other, |c| c.syncs += 1);
        self.tracer
            .span("store.fsync", None, || self.inner.sync_dir(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_classify_by_state_dir_layout() {
        assert_eq!(FileClass::of(Path::new("s/wal.log")), FileClass::Wal);
        assert_eq!(FileClass::of(Path::new("s/wal.log.old")), FileClass::Wal);
        assert_eq!(
            FileClass::of(Path::new("s/segments/cfg-1-2-0.seg")),
            FileClass::Segment
        );
        assert_eq!(
            FileClass::of(Path::new("s/manifest.tmp")),
            FileClass::Manifest
        );
        assert_eq!(FileClass::of(Path::new("s/segments")), FileClass::Other);
    }

    #[test]
    fn nested_spans_record_parent_and_inherit_op() {
        let tracer = Tracer::new(true);
        tracer.span("engine.upsert", Some(7), || {
            tracer.span("wal.fsync", None, || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("engine.check", Some(1), || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
