//! The crash-safe state directory: segmented snapshot + WAL.
//!
//! Layout of `--state-dir`:
//!
//! ```text
//! manifest.json          checkpoint manifest: segment refs + shared state
//! manifest.json.bak      the manifest before that
//! segments/              one immutable file per configuration
//!   cfg-<id>-<gen>-<s>.seg
//! wal.log                ops appended since the last checkpoint
//! wal.log.old            ops between the previous two checkpoints
//! manifest.tmp           in-flight manifest (transient)
//! segments/*.tmp         in-flight segments (transient)
//! ```
//!
//! A checkpoint is **incremental**: each configuration serializes into
//! its own segment file whose name encodes `(id, generation,
//! has-sketch)`. Because a segment's content at a fixed name is
//! immutable — an edit bumps the generation, and at a fixed generation
//! a learn sketch is captured at most once (`None` → `Some`, never
//! rewritten) — a configuration whose segment this store already wrote
//! or loaded under the right name is simply *skipped*, on the store's
//! own record (the skip map) without a filesystem call. Garbage
//! collection needs no directory listing either: the store remembers
//! the refs of both manifests it keeps, and a checkpoint deletes only
//! the segments that the `.bak` manifest it drops referenced alone.
//! Checkpoint cost is O(dirtied configs) in filesystem calls, not
//! O(fleet).
//!
//! The write order makes the whole ladder atomic: write dirty segments
//! (tmp + fsync + rename), fsync `segments/`, write `manifest.tmp`,
//! fsync it, rotate `manifest.json` → `.bak`, rename the tmp into
//! place, fsync the directory, then rotate the WAL. A crash at any
//! point leaves either the old manifest (orphan new segments are swept
//! at the next open) or the new one (fully referenced). Because the
//! `.bak` manifest plus *both* WAL files cover every acknowledged op
//! since the previous checkpoint, a torn `manifest.json` recovers: load
//! falls back to the backup and replays the WALs, skipping records
//! already folded into the image (`seq <= applied_seq`). Segments
//! referenced by the `.bak` manifest are retained by the garbage
//! collector, so the fallback always finds its files.
//!
//! Opening a directory sweeps `segments/` once: every file neither kept
//! manifest references — orphans of a checkpoint that crashed or failed
//! before its manifest landed, and `.tmp` files — is deleted.
//!
//! Manifest and segment files carry a one-line header
//! (`concord-engine-manifest/v1 crc32=XXXXXXXX` /
//! `concord-engine-segment/v1 crc32=XXXXXXXX`) followed by the JSON
//! payload; the checksum covers the payload, so truncated or
//! bit-flipped files are detected rather than trusted.
//!
//! The manifest and its backup are the only loadable images. A
//! directory holding the monolithic `snapshot.json` that builds before
//! segmented checkpoints wrote, and no manifest, is refused with an
//! error naming the file, and left as it is.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use concord_json::{push_array, push_number, push_string, FromJson, Json};

use crate::image::{EngineImage, ImageConfig};
use crate::vfs::{RealVfs, StorageError, Vfs};
use crate::wal::{crc32, Wal, WalOp, WalRecord};
use crate::EngineCounters;

/// Magic header prefix of a checkpoint manifest.
const MANIFEST_MAGIC: &str = "concord-engine-manifest/v1";
/// Magic header prefix of a per-config segment file.
const SEGMENT_MAGIC: &str = "concord-engine-segment/v1";

/// Why a state-directory operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The manifest and its backup were both unreadable or corrupt.
    Corrupt(String),
    /// The directory holds a monolithic snapshot (the named file) and no
    /// manifest: a layout this build does not load.
    Legacy(PathBuf),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "state dir i/o: {e}"),
            StoreError::Corrupt(msg) => write!(f, "state dir corrupt: {msg}"),
            StoreError::Legacy(path) => write!(
                f,
                "{}: monolithic snapshots are no longer loaded; checkpoint the directory \
                 once with an older concord build that writes manifest.json, or move the \
                 file away to start empty",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<StorageError> for StoreError {
    fn from(e: StorageError) -> StoreError {
        match e {
            StorageError::Corrupt(msg) => StoreError::Corrupt(msg),
            other => StoreError::Io(io::Error::other(other.to_string())),
        }
    }
}

/// What one [`StateDir::checkpoint`] call actually wrote: the
/// incremental-checkpoint scorecard. `segments_skipped` counts configs
/// whose on-disk segment already matched `(id, generation, sketch)` and
/// were not re-serialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Segment files serialized and fsync'd by this checkpoint.
    pub segments_written: u64,
    /// Clean configs whose existing segment was reused as-is.
    pub segments_skipped: u64,
}

/// A reference to one immutable segment file: the per-config identity a
/// manifest pins and a file name encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SegRef {
    pub id: u64,
    pub generation: u64,
    /// Whether the segment carries a captured learn sketch. Part of the
    /// identity because a sketch lands *after* the text at the same
    /// generation: `(id, gen, false)` and `(id, gen, true)` are distinct
    /// immutable files.
    pub sketch: bool,
}

impl SegRef {
    fn of(config: &ImageConfig) -> SegRef {
        SegRef {
            id: config.id,
            generation: config.generation,
            sketch: config.sketch.is_some(),
        }
    }

    pub(crate) fn file_name(&self) -> String {
        format!(
            "cfg-{:016x}-{:016x}-{}.seg",
            self.id,
            self.generation,
            u8::from(self.sketch)
        )
    }

    /// Parses a `cfg-<id>-<gen>-<0|1>.seg` file name; `None` for
    /// anything else (tmp files, foreign droppings).
    pub(crate) fn parse(name: &str) -> Option<SegRef> {
        let rest = name.strip_prefix("cfg-")?.strip_suffix(".seg")?;
        let mut parts = rest.split('-');
        let id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let generation = u64::from_str_radix(parts.next()?, 16).ok()?;
        let sketch = match parts.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(SegRef {
            id,
            generation,
            sketch,
        })
    }
}

/// What [`StateDir::open`] found on disk.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The last durable image (`None` for a fresh directory).
    pub image: Option<EngineImage>,
    /// Acknowledged ops to replay on top of the image, in sequence
    /// order (already filtered to `seq > image.applied_seq`).
    pub replay: Vec<WalRecord>,
    /// Whether a torn or corrupt WAL tail was discarded during load.
    pub wal_torn: bool,
    /// Whether the live manifest was unusable and its `.bak` was used.
    pub used_backup: bool,
}

/// An open state directory with its live WAL handle.
#[derive(Debug)]
pub struct StateDir {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    wal: Wal,
    /// Segments known to exist on disk with the right content, keyed by
    /// config id → `(generation, has-sketch)`. The incremental skip
    /// map: a config whose identity matches is not re-serialized.
    written: HashMap<u64, (u64, bool)>,
    /// Refs of `manifest.json` (empty while there is none).
    live_refs: Vec<SegRef>,
    /// Refs of `manifest.json.bak`: the garbage collector keeps their
    /// files so the backup stays loadable.
    bak_refs: Vec<SegRef>,
    /// Segment-GC / WAL-rotation removals that failed. Counted (surfaced
    /// in the v10 `storage` stats object) and logged once.
    gc_remove_errors: u64,
    gc_error_logged: bool,
}

impl StateDir {
    /// Opens (creating if needed) the state directory through the real
    /// filesystem. See [`StateDir::open_vfs`].
    pub fn open(dir: &Path) -> Result<(StateDir, LoadOutcome), StoreError> {
        StateDir::open_vfs(dir, Arc::new(RealVfs))
    }

    /// Opens (creating if needed) the state directory, loading whatever
    /// snapshot + WAL state survived and sweeping unreferenced files out
    /// of `segments/`. The returned [`StateDir`] has the WAL open for
    /// appending with the sequence continuing after the highest sequence
    /// seen on disk. All I/O — now and for the life of the store — goes
    /// through `vfs`.
    pub fn open_vfs(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<(StateDir, LoadOutcome), StoreError> {
        vfs.create_dir_all(dir)?;
        let live_path = dir.join("manifest.json");
        let bak_path = dir.join("manifest.json.bak");
        let (image, used_backup, live_refs, bak_refs) =
            if let Some((image, refs)) = read_manifest(vfs.as_ref(), &live_path, dir)? {
                let bak_refs = read_verified(vfs.as_ref(), &bak_path, MANIFEST_MAGIC)?
                    .and_then(|payload| decode_manifest(&payload))
                    .map(|(_, refs)| refs)
                    .unwrap_or_default();
                (Some(image), false, refs, bak_refs)
            } else if let Some((image, refs)) = read_manifest(vfs.as_ref(), &bak_path, dir)? {
                // Drop the unreadable live file so the next checkpoint's
                // rotation cannot clobber the good backup with garbage.
                remove_if_exists(vfs.as_ref(), &live_path)?;
                (Some(image), true, Vec::new(), refs)
            } else {
                let legacy = dir.join("snapshot.json");
                if vfs.exists(&legacy) {
                    return Err(StoreError::Legacy(legacy));
                }
                if vfs.exists(&live_path) || vfs.exists(&bak_path) {
                    return Err(StoreError::Corrupt(
                        "manifest and its backup both unreadable".to_string(),
                    ));
                }
                (None, false, Vec::new(), Vec::new())
            };
        let loaded = if used_backup { &bak_refs } else { &live_refs };
        let written: HashMap<u64, (u64, bool)> = loaded
            .iter()
            .map(|r| (r.id, (r.generation, r.sketch)))
            .collect();

        let applied_seq = image.as_ref().map(|i| i.applied_seq).unwrap_or(0);
        let (old_records, old_torn) =
            Wal::read_records_vfs(vfs.as_ref(), &dir.join("wal.log.old"))?;
        let (new_records, new_torn) = Wal::read_records_vfs(vfs.as_ref(), &dir.join("wal.log"))?;
        let mut replay: Vec<WalRecord> = old_records
            .into_iter()
            .chain(new_records)
            .filter(|r| r.seq > applied_seq)
            .collect();
        replay.sort_by_key(|r| r.seq);
        replay.dedup_by_key(|r| r.seq);

        let max_seq = replay.last().map(|r| r.seq).unwrap_or(applied_seq);
        let wal = Wal::open_append_vfs(vfs.as_ref(), &dir.join("wal.log"), max_seq + 1)?;
        let mut state = StateDir {
            dir: dir.to_path_buf(),
            vfs,
            wal,
            written,
            live_refs,
            bak_refs,
            gc_remove_errors: 0,
            gc_error_logged: false,
        };
        state.sweep_segments();
        Ok((
            state,
            LoadOutcome {
                image,
                replay,
                wal_torn: old_torn || new_torn,
                used_backup,
            },
        ))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one op to the WAL (fsync'd). Returns its sequence.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, StorageError> {
        self.wal.append(op)
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Probes whether the storage stack accepts writes again (an empty
    /// write + fsync on the live WAL handle). Used to re-probe out of
    /// degraded mode without consuming a sequence number.
    pub fn probe(&mut self) -> Result<(), StorageError> {
        self.wal.probe()
    }

    /// Re-opens the live WAL after a failed append, truncating any torn
    /// line the failure left behind. A retry that appended after a torn
    /// partial line would bury its (acknowledged) record behind garbage
    /// where replay could never see it — so retries must repair first.
    pub fn recover_wal(&mut self) -> Result<(), StorageError> {
        let next_seq = self.wal.next_seq();
        self.wal = Wal::open_append_vfs(self.vfs.as_ref(), &self.dir.join("wal.log"), next_seq)?;
        Ok(())
    }

    /// Faults the VFS injected so far (0 on a passthrough [`RealVfs`]).
    pub fn injected_faults(&self) -> u64 {
        self.vfs.injected_faults()
    }

    /// Segment-GC / WAL-rotation removals that failed so far.
    pub fn gc_remove_errors(&self) -> u64 {
        self.gc_remove_errors
    }

    /// Best-effort removal: a leftover file costs disk, never
    /// correctness, so a failure is counted (and logged once per store)
    /// rather than returned.
    fn remove_counted(&mut self, path: &Path) {
        if let Err(err) = self.vfs.remove_file(path) {
            self.gc_remove_errors += 1;
            if !self.gc_error_logged {
                self.gc_error_logged = true;
                eprintln!(
                    "concord: state-dir cleanup failed (counted, further errors suppressed): {}: {err}",
                    path.display()
                );
            }
        }
    }

    /// Deletes every file in `segments/` that neither kept manifest
    /// references. Runs once, at open.
    fn sweep_segments(&mut self) {
        let seg_dir = self.dir.join("segments");
        let Ok(names) = self.vfs.read_dir(&seg_dir) else {
            return;
        };
        let keep: HashSet<String> = self
            .live_refs
            .iter()
            .chain(&self.bak_refs)
            .map(SegRef::file_name)
            .collect();
        for name in names.iter().filter(|name| !keep.contains(*name)) {
            self.remove_counted(&seg_dir.join(name));
        }
    }

    /// Atomically checkpoints `image` (whose `applied_seq` must cover
    /// every op appended so far) and rotates the WAL. Only segments for
    /// configs dirtied since the last checkpoint are re-serialized.
    pub fn checkpoint(&mut self, image: &EngineImage) -> Result<CheckpointStats, StorageError> {
        let vfs = self.vfs.clone();
        let seg_dir = self.dir.join("segments");
        vfs.create_dir_all(&seg_dir)
            .map_err(StorageError::from_io)?;

        // 1. Segments: write every config whose (id, generation,
        //    sketch) identity is not already durable, skip the rest.
        //    Every payload of the checkpoint, the manifest's included,
        //    is written into the one `payload` buffer.
        let mut stats = CheckpointStats::default();
        let mut refs: Vec<SegRef> = Vec::with_capacity(image.configs.len());
        let mut payload = String::new();
        for config in &image.configs {
            let sref = SegRef::of(config);
            if self.written.get(&config.id) == Some(&(sref.generation, sref.sketch)) {
                stats.segments_skipped += 1;
            } else {
                payload.clear();
                config.write_json(&mut payload);
                write_verified(
                    vfs.as_ref(),
                    &seg_dir.join(sref.file_name()),
                    SEGMENT_MAGIC,
                    &payload,
                )?;
                self.written
                    .insert(config.id, (sref.generation, sref.sketch));
                stats.segments_written += 1;
            }
            refs.push(sref);
        }
        if stats.segments_written > 0 {
            vfs.sync_dir(&seg_dir).map_err(StorageError::from_io)?;
        }

        // 2. Manifest: refs + all the non-per-config image state. The
        //    rename ladder is what makes the checkpoint atomic — until
        //    the new manifest lands, the old one still pins the old
        //    (immutable, still-present) segments.
        payload.clear();
        write_manifest(image, &refs, &mut payload);
        let tmp_path = self.dir.join("manifest.tmp");
        let manifest_path = self.dir.join("manifest.json");
        let bak_path = self.dir.join("manifest.json.bak");
        write_verified(vfs.as_ref(), &tmp_path, MANIFEST_MAGIC, &payload)?;
        let superseded = vfs.exists(&manifest_path);
        if superseded {
            vfs.rename(&manifest_path, &bak_path)
                .map_err(StorageError::from_io)?;
        }
        vfs.rename(&tmp_path, &manifest_path)
            .map_err(StorageError::from_io)?;
        vfs.sync_dir(&self.dir).map_err(StorageError::from_io)?;

        // 3. Rotate the WAL: everything in the current log is folded
        //    into the manifest just written; keep it one generation as
        //    `.old` so the `.bak` manifest stays recoverable. A failed
        //    removal of the doomed `.old` is counted, not fatal — the
        //    rename below overwrites it anyway. When no live manifest
        //    was superseded (open dropped it as unreadable and loaded
        //    `.bak`), `.bak` is a checkpoint older than usual and both
        //    logs still hold the ops since it, so neither is rotated:
        //    rotating would drop `.old`, and a fall back to `.bak` would
        //    then silently skip its ops.
        if superseded || !vfs.exists(&bak_path) {
            let next_seq = self.wal.next_seq();
            let wal_path = self.dir.join("wal.log");
            let old_path = self.dir.join("wal.log.old");
            if vfs.exists(&old_path) {
                self.remove_counted(&old_path);
            }
            if vfs.exists(&wal_path) {
                vfs.rename(&wal_path, &old_path)
                    .map_err(StorageError::from_io)?;
            }
            self.wal = Wal::open_append_vfs(vfs.as_ref(), &wal_path, next_seq)?;
            vfs.sync_dir(&self.dir).map_err(StorageError::from_io)?;
        }

        // 4. Garbage-collect: the rotation dropped the previous `.bak`;
        //    delete the segments it referenced that neither the new
        //    manifest nor the new `.bak` does.
        if superseded {
            let dropped =
                std::mem::replace(&mut self.bak_refs, std::mem::take(&mut self.live_refs));
            let kept: HashSet<SegRef> = refs.iter().chain(&self.bak_refs).copied().collect();
            for sref in dropped.iter().filter(|r| !kept.contains(r)) {
                self.remove_counted(&seg_dir.join(sref.file_name()));
            }
        }
        self.live_refs = refs;
        Ok(stats)
    }
}

/// Appends the manifest payload: segment refs in config order plus
/// everything in the image that is not per-config.
fn write_manifest(image: &EngineImage, refs: &[SegRef], out: &mut String) {
    out.push_str("{\"configs\":");
    push_array(out, refs, |out, r| {
        out.push_str("{\"id\":");
        push_number(out, r.id as f64);
        out.push_str(",\"generation\":");
        push_number(out, r.generation as f64);
        out.push_str(if r.sketch {
            ",\"sketch\":true}"
        } else {
            ",\"sketch\":false}"
        });
    });
    out.push_str(",\"metadata\":");
    push_array(out, &image.metadata, |out, (name, text)| {
        out.push('[');
        push_string(out, name);
        out.push(',');
        push_string(out, text);
        out.push(']');
    });
    out.push_str(",\"contracts\":");
    match &image.contracts {
        Some(json) => push_string(out, json),
        None => out.push_str("null"),
    }
    out.push_str(",\"counters\":");
    image.counters.write_json(out);
    out.push_str(",\"applied_seq\":");
    push_number(out, image.applied_seq as f64);
    out.push('}');
}

/// Decodes a manifest payload ([`write_manifest`]'s shape): the segment
/// refs in config order, and an image holding the shared state with its
/// configs still empty. `None` for any other shape.
fn decode_manifest(payload: &str) -> Option<(EngineImage, Vec<SegRef>)> {
    let json = Json::parse(payload).ok()?;
    let refs = json
        .get("configs")?
        .as_array()?
        .iter()
        .map(|entry| {
            Some(SegRef {
                id: entry.get("id")?.as_u64()?,
                generation: entry.get("generation")?.as_u64()?,
                sketch: entry.get("sketch")?.as_bool()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let metadata = json
        .get("metadata")?
        .as_array()?
        .iter()
        .map(|pair| match pair.as_array()? {
            [name, text] => Some((name.as_str()?.to_string(), text.as_str()?.to_string())),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let contracts = match json.get("contracts") {
        None | Some(Json::Null) => None,
        Some(set) => Some(set.as_str()?.to_string()),
    };
    let image = EngineImage {
        configs: Vec::new(),
        metadata,
        contracts,
        counters: EngineCounters::from_json(json.get("counters")?).ok()?,
        applied_seq: json.get("applied_seq")?.as_u64()?,
    };
    Some((image, refs))
}

/// Reads and verifies a manifest plus every segment it references;
/// `Ok(None)` when the manifest is missing, corrupt, or any referenced
/// segment is missing/corrupt/mismatched (the caller falls back to the
/// backup).
fn read_manifest(
    vfs: &dyn Vfs,
    path: &Path,
    dir: &Path,
) -> Result<Option<(EngineImage, Vec<SegRef>)>, StoreError> {
    let Some((mut image, refs)) =
        read_verified(vfs, path, MANIFEST_MAGIC)?.and_then(|payload| decode_manifest(&payload))
    else {
        return Ok(None);
    };

    // Assemble configs from their segments, verifying each against the
    // identity the manifest pins.
    let seg_dir = dir.join("segments");
    let mut configs: Vec<ImageConfig> = Vec::with_capacity(refs.len());
    for sref in &refs {
        let Some(payload) = read_verified(vfs, &seg_dir.join(sref.file_name()), SEGMENT_MAGIC)?
        else {
            return Ok(None);
        };
        let Ok(json) = Json::parse(&payload) else {
            return Ok(None);
        };
        let Ok(config) = ImageConfig::from_json(&json) else {
            return Ok(None);
        };
        if SegRef::of(&config) != *sref {
            return Ok(None);
        }
        configs.push(config);
    }
    image.configs = configs;
    Ok(Some((image, refs)))
}

/// Writes `payload` to `path` atomically-ish for segment/tmp use: a
/// crc-headed file written via a sibling `.tmp`, fsync'd, renamed into
/// place. (The *manifest* rename ladder on top of this is what makes a
/// whole checkpoint atomic.)
fn write_verified(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &str,
    payload: &str,
) -> Result<(), StorageError> {
    let tmp_path = path.with_extension("tmp");
    let mut tmp = vfs
        .create_truncate(&tmp_path)
        .map_err(StorageError::from_io)?;
    tmp.write_all(format!("{magic} crc32={:08x}\n", crc32(payload.as_bytes())).as_bytes())
        .map_err(StorageError::from_io)?;
    tmp.write_all(payload.as_bytes())
        .map_err(StorageError::from_io)?;
    tmp.write_all(b"\n").map_err(StorageError::from_io)?;
    tmp.sync_all().map_err(StorageError::from_io)?;
    drop(tmp);
    vfs.rename(&tmp_path, path).map_err(StorageError::from_io)?;
    Ok(())
}

/// Reads a crc-headed file; `Ok(None)` when missing or corrupt.
fn read_verified(vfs: &dyn Vfs, path: &Path, magic: &str) -> Result<Option<String>, StoreError> {
    let text = match vfs.read(path) {
        Ok(bytes) => match String::from_utf8(bytes) {
            Ok(text) => text,
            Err(_) => return Ok(None),
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let Some((header, payload)) = text.split_once('\n') else {
        return Ok(None);
    };
    let payload = payload.strip_suffix('\n').unwrap_or(payload);
    let Some(crc_part) = header
        .strip_prefix(magic)
        .and_then(|rest| rest.trim().strip_prefix("crc32="))
    else {
        return Ok(None);
    };
    let Ok(want) = u32::from_str_radix(crc_part, 16) else {
        return Ok(None);
    };
    if crc32(payload.as_bytes()) != want {
        return Ok(None);
    }
    Ok(Some(payload.to_string()))
}

fn remove_if_exists(vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
    match vfs.remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::vfs::VfsFile;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("store-{tag}"))
    }

    fn image_with(configs: &[(&str, &str)], applied_seq: u64) -> EngineImage {
        let corpus: Vec<(String, String)> = configs
            .iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect();
        let mut image = EngineImage::from_corpus(&corpus, &[]);
        image.applied_seq = applied_seq;
        image
    }

    /// Replaces `name`'s text the way an engine edit does: same id,
    /// next generation.
    fn edit(image: &mut EngineImage, name: &str, text: &str) {
        let config = image
            .configs
            .iter()
            .find(|c| c.name == name)
            .expect("known config");
        let (id, generation) = (config.id, config.generation + 1);
        image.upsert(name, text, id, generation);
    }

    fn segment_files(dir: &Path) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(dir.join("segments"))
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }

    #[test]
    fn fresh_dir_loads_empty() {
        let dir = tmp_dir("fresh");
        let (state, load) = StateDir::open(&dir).unwrap();
        assert!(load.image.is_none());
        assert!(load.replay.is_empty());
        assert!(!load.wal_torn);
        assert_eq!(state.next_seq(), 1);
    }

    #[test]
    fn checkpoint_then_reopen_restores_image_and_skips_folded_ops() {
        let dir = tmp_dir("checkpoint");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let s1 = state
            .append(&WalOp::Upsert {
                name: "dev0".to_string(),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        // Every field the manifest and the segment carry round-trips.
        let mut image = image_with(&[("dev0", "vlan 1\n")], s1);
        image.metadata = vec![("site.yaml".to_string(), "siteId: 9\n".to_string())];
        image.contracts = Some("{\"schema\": \"x\"}".to_string());
        image.configs[0].sketch = Some("{\"version\": 2}".to_string());
        image.counters.edits = 3;
        image.counters.contracts_edits = 2;
        state.checkpoint(&image).unwrap();
        let s2 = state
            .append(&WalOp::Remove {
                name: "dev0".to_string(),
            })
            .unwrap();
        assert_eq!(s2, s1 + 1);
        drop(state);

        let (state, load) = StateDir::open(&dir).unwrap();
        let got = load.image.expect("snapshot present");
        assert_eq!(got, image);
        assert_eq!(load.replay.len(), 1, "only the post-checkpoint op replays");
        assert_eq!(load.replay[0].seq, s2);
        assert!(!load.used_backup);
        assert_eq!(state.next_seq(), s2 + 1);
    }

    #[test]
    fn clean_segments_are_skipped_dirty_ones_rewritten() {
        let dir = tmp_dir("incremental");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let mut image = image_with(
            &[("a", "vlan 1\n"), ("b", "vlan 2\n"), ("c", "vlan 3\n")],
            0,
        );
        let first = state.checkpoint(&image).unwrap();
        assert_eq!(first.segments_written, 3);
        assert_eq!(first.segments_skipped, 0);

        // Nothing changed: the whole fleet is skipped.
        let idle = state.checkpoint(&image).unwrap();
        assert_eq!(idle.segments_written, 0);
        assert_eq!(idle.segments_skipped, 3);

        // One edit dirties exactly one segment.
        edit(&mut image, "b", "vlan 99\n");
        image.applied_seq = 1;
        let edit = state.checkpoint(&image).unwrap();
        assert_eq!(edit.segments_written, 1);
        assert_eq!(edit.segments_skipped, 2);

        drop(state);
        let (_, load) = StateDir::open(&dir).unwrap();
        assert_eq!(load.image.expect("manifest loads"), image);
    }

    #[test]
    fn sketch_capture_rewrites_the_segment_once() {
        let dir = tmp_dir("sketchseg");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let mut image = image_with(&[("a", "vlan 1\n")], 0);
        state.checkpoint(&image).unwrap();

        // A sketch landing at the same generation is a new identity …
        image.configs[0].sketch = Some("{\"version\": 1}".to_string());
        let captured = state.checkpoint(&image).unwrap();
        assert_eq!(captured.segments_written, 1);

        // … and final: the next checkpoint skips it again.
        let idle = state.checkpoint(&image).unwrap();
        assert_eq!(idle.segments_written, 0);
        assert_eq!(idle.segments_skipped, 1);

        drop(state);
        let (_, load) = StateDir::open(&dir).unwrap();
        assert_eq!(
            load.image.expect("manifest loads").configs[0].sketch,
            image.configs[0].sketch
        );
    }

    #[test]
    fn unreferenced_segments_are_garbage_collected() {
        let dir = tmp_dir("gc");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let mut image = image_with(&[("a", "vlan 1\n"), ("b", "vlan 2\n")], 0);
        state.checkpoint(&image).unwrap();
        let gen0 = segment_files(&dir);
        assert_eq!(gen0.len(), 2);

        edit(&mut image, "a", "vlan 2\n");
        state.checkpoint(&image).unwrap();
        // Old a-segment retained: the .bak manifest still pins it.
        assert_eq!(segment_files(&dir).len(), 3);

        edit(&mut image, "a", "vlan 3\n");
        state.checkpoint(&image).unwrap();
        // Two manifests deep, generation-0 `a` is unreferenced → gone.
        let files = segment_files(&dir);
        assert_eq!(files.len(), 3);
        assert!(!files.contains(&gen0[0]), "{files:?}");
    }

    #[test]
    fn truncated_manifest_falls_back_to_backup_plus_wals() {
        let dir = tmp_dir("truncated");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let s1 = state
            .append(&WalOp::Upsert {
                name: "a".to_string(),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        state
            .checkpoint(&image_with(&[("a", "vlan 1\n")], s1))
            .unwrap();
        let s2 = state
            .append(&WalOp::Upsert {
                name: "b".to_string(),
                text: "vlan 2\n".to_string(),
            })
            .unwrap();
        state
            .checkpoint(&image_with(&[("a", "vlan 1\n"), ("b", "vlan 2\n")], s2))
            .unwrap();
        let s3 = state
            .append(&WalOp::Upsert {
                name: "c".to_string(),
                text: "vlan 3\n".to_string(),
            })
            .unwrap();
        drop(state);

        // Truncate the live manifest mid-payload.
        let manifest = dir.join("manifest.json");
        let bytes = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();

        let (_, load) = StateDir::open(&dir).unwrap();
        assert!(load.used_backup);
        let image = load.image.expect("backup usable");
        assert_eq!(image.applied_seq, s1);
        // Replay covers everything after the backup's checkpoint: the
        // op folded only into the (lost) newer manifest, plus the tail.
        let seqs: Vec<u64> = load.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![s2, s3]);
    }

    /// A boot that fell back to `.bak` checkpoints with no live manifest
    /// to supersede, so `.bak` stays a checkpoint older than usual. That
    /// checkpoint must not rotate away the ops since `.bak`: a second
    /// torn manifest falls back to the same `.bak` and must still replay
    /// every acknowledged op.
    #[test]
    fn checkpoint_after_a_backup_load_keeps_the_ops_since_the_backup() {
        let dir = tmp_dir("bak-twice");
        let upsert = |name: &str| WalOp::Upsert {
            name: name.to_string(),
            text: "vlan 1\n".to_string(),
        };
        let tear = |dir: &Path| {
            let manifest = dir.join("manifest.json");
            let bytes = std::fs::read(&manifest).unwrap();
            std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();
        };
        let (mut state, _) = StateDir::open(&dir).unwrap();
        state.checkpoint(&image_with(&[], 0)).unwrap();
        let s1 = state.append(&upsert("a")).unwrap();
        state
            .checkpoint(&image_with(&[("a", "vlan 1\n")], s1))
            .unwrap();
        let s2 = state.append(&upsert("b")).unwrap();
        drop(state);
        tear(&dir);

        let (mut state, load) = StateDir::open(&dir).unwrap();
        assert!(load.used_backup);
        let seqs: Vec<u64> = load.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![s1, s2]);
        state
            .checkpoint(&image_with(&[("a", "vlan 1\n"), ("b", "vlan 1\n")], s2))
            .unwrap();
        let s3 = state.append(&upsert("c")).unwrap();
        drop(state);
        tear(&dir);

        let (_, load) = StateDir::open(&dir).unwrap();
        assert!(load.used_backup);
        assert_eq!(load.image.expect("backup usable").applied_seq, 0);
        let seqs: Vec<u64> = load.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![s1, s2, s3]);
    }

    #[test]
    fn torn_live_only_segment_falls_back_to_backup_manifest() {
        let dir = tmp_dir("tornseg");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let s1 = state
            .append(&WalOp::Upsert {
                name: "a".to_string(),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        state
            .checkpoint(&image_with(&[("a", "vlan 1\n")], s1))
            .unwrap();
        let s2 = state
            .append(&WalOp::Upsert {
                name: "a".to_string(),
                text: "vlan 2\n".to_string(),
            })
            .unwrap();
        let mut edited = image_with(&[("a", "vlan 2\n")], s2);
        edited.configs[0].generation = 1;
        state.checkpoint(&edited).unwrap();
        drop(state);

        // Corrupt the generation-1 segment: referenced only by the live
        // manifest (the .bak still pins generation 0).
        let seg = dir.join("segments").join(
            SegRef {
                id: 0,
                generation: 1,
                sketch: false,
            }
            .file_name(),
        );
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let (_, load) = StateDir::open(&dir).unwrap();
        assert!(load.used_backup, "live manifest unusable via its segment");
        let image = load.image.expect("backup usable");
        assert_eq!(image.applied_seq, s1);
        // The edit folded into the lost manifest replays from the WALs.
        let seqs: Vec<u64> = load.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![s2]);
    }

    #[test]
    fn segment_manifest_generation_mismatch_is_rejected() {
        let dir = tmp_dir("genmismatch");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let mut image = image_with(&[("a", "vlan 1\n")], 0);
        state.checkpoint(&image).unwrap();
        edit(&mut image, "a", "vlan 2\n");
        state.checkpoint(&image).unwrap();
        drop(state);

        // Copy the stale generation-0 segment over the generation-1
        // file: well-formed, valid crc, wrong identity.
        let seg_dir = dir.join("segments");
        let gen0 = SegRef {
            id: 0,
            generation: 0,
            sketch: false,
        };
        let gen1 = SegRef {
            id: 0,
            generation: 1,
            sketch: false,
        };
        std::fs::copy(
            seg_dir.join(gen0.file_name()),
            seg_dir.join(gen1.file_name()),
        )
        .unwrap();

        let (_, load) = StateDir::open(&dir).unwrap();
        assert!(load.used_backup, "live manifest must reject the impostor");
        assert_eq!(
            &*load.image.expect("backup usable").configs[0].text,
            "vlan 1\n"
        );
    }

    #[test]
    fn a_directory_holding_only_a_monolithic_snapshot_is_refused_untouched() {
        let dir = tmp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("snapshot.json");
        let bytes = b"concord-engine-snapshot/v1 crc32=00000000\n{}\n";
        std::fs::write(&snapshot, bytes).unwrap();

        let err = StateDir::open(&dir).expect_err("a monolithic snapshot is not loaded");
        assert!(
            err.to_string().contains(&snapshot.display().to_string()),
            "{err}"
        );
        assert_eq!(std::fs::read(&snapshot).unwrap(), bytes);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["snapshot.json"]);
    }

    /// A passthrough [`Vfs`] counting the calls whose number could grow
    /// with the fleet.
    #[derive(Debug, Default)]
    struct CountingVfs {
        exists: AtomicU64,
        read_dir: AtomicU64,
        remove_file: AtomicU64,
    }

    impl CountingVfs {
        fn take(&self) -> [u64; 3] {
            [&self.exists, &self.read_dir, &self.remove_file].map(|n| n.swap(0, Ordering::Relaxed))
        }
    }

    impl Vfs for CountingVfs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealVfs.read(path)
        }
        fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            RealVfs.open_write(path)
        }
        fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            RealVfs.create_truncate(path)
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            RealVfs.open_append(path)
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            RealVfs.create_dir_all(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealVfs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.remove_file.fetch_add(1, Ordering::Relaxed);
            RealVfs.remove_file(path)
        }
        fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
            self.read_dir.fetch_add(1, Ordering::Relaxed);
            RealVfs.read_dir(path)
        }
        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            RealVfs.sync_dir(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.exists.fetch_add(1, Ordering::Relaxed);
            RealVfs.exists(path)
        }
    }

    /// `[exists, read_dir, remove_file]` calls of the third checkpoint
    /// after one-config edits over a fleet of `n`: by then both kept
    /// manifests hold an edit, so the checkpoint drops a `.bak` whose
    /// edited segment it must delete.
    fn edit_checkpoint_calls(n: usize) -> [u64; 3] {
        let dir = tmp_dir(&format!("counting-{n}"));
        let vfs = Arc::new(CountingVfs::default());
        let (mut state, _) = StateDir::open_vfs(&dir, vfs.clone()).unwrap();
        let corpus: Vec<(String, String)> = (0..n)
            .map(|i| (format!("dev{i:04}"), format!("vlan {i}\n")))
            .collect();
        let mut image = EngineImage::from_corpus(&corpus, &[]);
        state.checkpoint(&image).unwrap();
        for round in 0..3 {
            edit(&mut image, "dev0000", &format!("vlan {}\n", n + round));
            vfs.take();
            state.checkpoint(&image).unwrap();
        }
        let calls = vfs.take();
        drop(state);
        let (_, load) = StateDir::open(&dir).unwrap();
        assert_eq!(load.image.expect("manifest loads"), image);
        calls
    }

    #[test]
    fn an_edit_checkpoint_makes_the_same_filesystem_calls_at_any_fleet_size() {
        let small = edit_checkpoint_calls(10);
        assert_eq!(small, edit_checkpoint_calls(1000));
        let [_, read_dir, remove_file] = small;
        assert_eq!(read_dir, 0, "no directory listing");
        assert_eq!(
            remove_file, 2,
            "the rotated-out WAL and one dropped segment"
        );
    }

    #[test]
    fn stale_wal_records_older_than_the_checkpoint_are_skipped_not_double_applied() {
        let dir = tmp_dir("stale");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        let _s1 = state
            .append(&WalOp::Upsert {
                name: "a".to_string(),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        let s2 = state
            .append(&WalOp::Upsert {
                name: "b".to_string(),
                text: "vlan 2\n".to_string(),
            })
            .unwrap();
        let image = image_with(&[("a", "vlan 1\n"), ("b", "vlan 2\n")], s2);
        state.checkpoint(&image).unwrap();
        drop(state);

        // Simulate a crash that left rotated-but-not-truncated state:
        // the records already folded into the snapshot reappear in the
        // live WAL (and still sit in `wal.log.old`). Replay must skip
        // every one of them — `seq <= applied_seq` — not apply them a
        // second time on top of the image.
        std::fs::copy(dir.join("wal.log.old"), dir.join("wal.log")).unwrap();
        let (state, load) = StateDir::open(&dir).unwrap();
        let got = load.image.expect("snapshot present");
        assert_eq!(got, image);
        assert!(
            load.replay.is_empty(),
            "folded ops must not double-apply: {:?}",
            load.replay
        );
        assert_eq!(
            state.next_seq(),
            s2 + 1,
            "sequence continues after the tail"
        );
    }

    #[test]
    fn missing_everything_but_wal_is_corrupt_free_fresh_start() {
        let dir = tmp_dir("walonly");
        let (mut state, _) = StateDir::open(&dir).unwrap();
        state
            .append(&WalOp::Upsert {
                name: "a".to_string(),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        drop(state);
        let (_, load) = StateDir::open(&dir).unwrap();
        assert!(load.image.is_none());
        assert_eq!(load.replay.len(), 1, "ops before any checkpoint replay");
    }

    #[test]
    fn segref_file_names_round_trip() {
        let r = SegRef {
            id: 0xdead_beef,
            generation: 42,
            sketch: true,
        };
        assert_eq!(SegRef::parse(&r.file_name()), Some(r));
        assert_eq!(SegRef::parse("cfg-zz-0-0.seg"), None);
        assert_eq!(
            SegRef::parse("cfg-0000000000000000-0000000000000000-0.seg.tmp"),
            None
        );
        assert_eq!(SegRef::parse("manifest.json"), None);
    }
}
