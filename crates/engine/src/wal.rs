//! Append-only write-ahead log of engine mutations.
//!
//! Each record is one line: an 8-hex-digit CRC-32 (IEEE) of the JSON
//! payload, a space, the payload, `\n`. The payload carries a
//! monotonically increasing sequence number and the operation:
//!
//! ```text
//! 9a7f0c12 {"seq":42,"op":{"Upsert":{"name":"dev0","text":"vlan 1\n"}}}
//! ```
//!
//! Appends are `fsync`'d before the server acknowledges the operation,
//! so an acknowledged op survives a crash. Replay is torn-tail
//! tolerant: a record that is truncated mid-line (no trailing newline),
//! fails its checksum, or does not parse marks the end of the log —
//! everything before it is applied, everything at and after it is
//! discarded. A discarded tail is always an *unacknowledged* op, so
//! dropping it cannot lose acknowledged state.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use concord_json::{push_number, push_string, Error as JsonError, FromJson, Json};

use crate::vfs::{RealVfs, StorageError, Vfs, VfsFile};

/// One logged engine mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or replace a configuration.
    Upsert {
        /// Configuration name.
        name: String,
        /// Full configuration text.
        text: String,
    },
    /// Remove a configuration.
    Remove {
        /// Configuration name.
        name: String,
    },
    /// Relearn contracts from the current snapshot (deterministic given
    /// the dataset, so logging the op is enough to replay the result).
    Learn,
    /// Swap in an externally supplied contract set (exact JSON).
    SetContracts {
        /// The contract set's JSON serialization.
        json: String,
    },
}

/// A sequenced WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; 0 means "nothing applied").
    pub seq: u64,
    /// The operation.
    pub op: WalOp,
}

impl FromJson for WalOp {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some("Learn") = value.as_str() {
            return Ok(WalOp::Learn);
        }
        let obj = value
            .as_object()
            .ok_or_else(|| JsonError::custom("wal op is not an object"))?;
        match obj {
            [(tag, body)] if tag == "Upsert" => Ok(WalOp::Upsert {
                name: req_str(body, "name")?,
                text: req_str(body, "text")?,
            }),
            [(tag, body)] if tag == "Remove" => Ok(WalOp::Remove {
                name: req_str(body, "name")?,
            }),
            [(tag, body)] if tag == "SetContracts" => Ok(WalOp::SetContracts {
                json: req_str(body, "json")?,
            }),
            _ => Err(JsonError::custom("unknown wal op tag")),
        }
    }
}

fn req_str(value: &Json, key: &str) -> Result<String, JsonError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| JsonError::custom(format!("wal op missing string field {key:?}")))
}

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the bytewise
/// table of the reflected IEEE polynomial, and `CRC_TABLES[k]` advances
/// a byte's contribution through `k` more zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing by 8: eight table
/// lookups fold eight input bytes at a time, and the bytewise table
/// takes the tail. It checksums WAL records, segments and manifests.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// An open, append-only WAL file. All I/O goes through the [`Vfs`]
/// handle chosen at open time.
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    next_seq: u64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path` for appending
    /// through the real filesystem. The first appended record gets
    /// sequence `next_seq`.
    pub fn open_append(path: &Path, next_seq: u64) -> Result<Wal, StorageError> {
        Wal::open_append_vfs(&RealVfs, path, next_seq)
    }

    /// Like [`Wal::open_append`] but through an explicit [`Vfs`].
    ///
    /// Any torn tail left by a crash mid-append is truncated first:
    /// appending *after* garbage would bury every new — acknowledged —
    /// record behind the bad line, where replay (which stops at the
    /// first undecodable record) could never see it. The discarded
    /// bytes are by construction an unacknowledged partial append, so
    /// truncation cannot lose durable state.
    pub fn open_append_vfs(vfs: &dyn Vfs, path: &Path, next_seq: u64) -> Result<Wal, StorageError> {
        match vfs.read(path) {
            Ok(bytes) => {
                let valid = valid_prefix_len(&bytes);
                if valid < bytes.len() as u64 {
                    let mut f = vfs.open_write(path).map_err(StorageError::from_io)?;
                    f.set_len(valid).map_err(StorageError::from_io)?;
                    f.sync_data().map_err(StorageError::from_io)?;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(StorageError::from_io(e)),
        }
        let file = vfs.open_append(path).map_err(StorageError::from_io)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            next_seq,
        })
    }

    /// The path this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record and syncs it to disk. Returns the record's
    /// sequence number; the op is durable once this returns `Ok`.
    ///
    /// On `Err` the sequence number is *not* consumed, so a retry of
    /// the same op reuses it. A failed attempt may leave a torn or
    /// duplicate line behind; replay's torn-tail truncation and
    /// sequence dedup absorb both, but a caller retrying after a
    /// mid-write failure should first repair the tail (see
    /// `StateDir::recover_wal`).
    pub fn append(&mut self, op: &WalOp) -> Result<u64, StorageError> {
        let seq = self.next_seq;
        let line = encode_record(seq, op);
        self.file
            .write_all(line.as_bytes())
            .map_err(StorageError::from_io)?;
        self.file.sync_data().map_err(StorageError::from_io)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes nothing but syncs the WAL handle — a cheap probe of
    /// whether the storage stack is accepting writes again. Used to
    /// re-probe out of degraded mode without consuming a sequence
    /// number or risking a torn record.
    pub fn probe(&mut self) -> Result<(), StorageError> {
        self.file
            .write_all(&[])
            .and_then(|()| self.file.sync_data())
            .map_err(StorageError::from_io)
    }

    /// Reads every intact record from the log at `path`, stopping at the
    /// first torn, corrupt, or unparseable line (see module docs).
    /// Returns the records plus whether a tail was discarded. A missing
    /// file is an empty log.
    pub fn read_records(path: &Path) -> io::Result<(Vec<WalRecord>, bool)> {
        Wal::read_records_vfs(&RealVfs, path)
    }

    /// Like [`Wal::read_records`] but through an explicit [`Vfs`].
    pub fn read_records_vfs(vfs: &dyn Vfs, path: &Path) -> io::Result<(Vec<WalRecord>, bool)> {
        let bytes = match vfs.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut rest: &[u8] = &bytes;
        loop {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                // No newline: either clean EOF or a torn final record.
                return Ok((records, !rest.is_empty()));
            };
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            match decode_line(line) {
                Some(record) => records.push(record),
                None => return Ok((records, true)),
            }
        }
    }
}

/// One record as its WAL line, trailing newline included: the payload
/// `{"seq":…,"op":…}` is written in place after room for its checksum,
/// which is filled in last. The payload's strings escape newlines, so
/// the only newline is the last byte. [`decode_line`] reads it back.
pub(crate) fn encode_record(seq: u64, op: &WalOp) -> String {
    const CRC_FIELD: usize = "00000000 ".len();
    let mut line = String::from("00000000 {\"seq\":");
    push_number(&mut line, seq as f64);
    line.push_str(",\"op\":");
    match op {
        WalOp::Upsert { name, text } => {
            line.push_str("{\"Upsert\":{\"name\":");
            push_string(&mut line, name);
            line.push_str(",\"text\":");
            push_string(&mut line, text);
            line.push_str("}}");
        }
        WalOp::Remove { name } => {
            line.push_str("{\"Remove\":{\"name\":");
            push_string(&mut line, name);
            line.push_str("}}");
        }
        WalOp::Learn => line.push_str("\"Learn\""),
        WalOp::SetContracts { json } => {
            line.push_str("{\"SetContracts\":{\"json\":");
            push_string(&mut line, json);
            line.push_str("}}");
        }
    }
    line.push('}');
    let crc = crc32(&line.as_bytes()[CRC_FIELD..]);
    line.replace_range(..CRC_FIELD - 1, &format!("{crc:08x}"));
    line.push('\n');
    line
}

/// Byte length of the longest prefix of `bytes` made of intact records
/// — the point [`Wal::read_records`] would stop at.
fn valid_prefix_len(bytes: &[u8]) -> u64 {
    let mut valid = 0usize;
    let mut rest = bytes;
    loop {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            return valid as u64;
        };
        if decode_line(&rest[..nl]).is_none() {
            return valid as u64;
        }
        valid += nl + 1;
        rest = &rest[nl + 1..];
    }
}

/// Decodes one `crc payload` line; `None` on any mismatch.
fn decode_line(line: &[u8]) -> Option<WalRecord> {
    let line = std::str::from_utf8(line).ok()?;
    let (crc_hex, payload) = line.split_once(' ')?;
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc32(payload.as_bytes()) != want {
        return None;
    }
    let json = Json::parse(payload).ok()?;
    let seq = json.get("seq").and_then(Json::as_u64)?;
    let op = WalOp::from_json(json.get("op")?).ok()?;
    Some(WalRecord { seq, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn tmp_dir(tag: &str) -> TempDir {
        let dir = TempDir::new(&format!("wal-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Every op kind encodes to the exact line the value-tree encoder
    /// wrote (recorded from it), escapes and checksum included.
    #[test]
    fn records_encode_to_their_known_lines() {
        let cases = [
            (
                WalOp::Upsert {
                    name: "dév\t\"0\"".to_string(),
                    text: "vlan 1\n\tdescription \"a\\b\" é\u{1}\n".to_string(),
                },
                r#"ba65ff20 {"seq":41,"op":{"Upsert":{"name":"dév\t\"0\"","text":"vlan 1\n\tdescription \"a\\b\" é\u0001\n"}}}"#,
            ),
            (
                WalOp::Remove {
                    name: "dév\\1".to_string(),
                },
                r#"2cc53ff9 {"seq":42,"op":{"Remove":{"name":"dév\\1"}}}"#,
            ),
            (WalOp::Learn, r#"59aa5add {"seq":43,"op":"Learn"}"#),
            (
                WalOp::SetContracts {
                    json: "{\n  \"contracts\": [\"x\\ty\"]\n}".to_string(),
                },
                r#"c2f0bd12 {"seq":44,"op":{"SetContracts":{"json":"{\n  \"contracts\": [\"x\\ty\"]\n}"}}}"#,
            ),
        ];
        for (seq, (op, line)) in (41..).zip(cases) {
            assert_eq!(encode_record(seq, &op), format!("{line}\n"));
            let record = decode_line(line.as_bytes()).expect("decodes");
            assert_eq!((record.seq, record.op), (seq, op));
        }
    }

    /// CRC-32 one bit at a time, straight from the reflected polynomial.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Every length and alignment: the eight-byte body, the bytewise
    /// tail, and the hand-over between them.
    #[test]
    fn sliced_crc32_matches_the_bitwise_reference() {
        let mut rng = Lcg(0x0c2c_3200);
        let buffer: Vec<u8> = (0..308).map(|_| rng.next() as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise_crc32(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        let ops = vec![
            WalOp::Upsert {
                name: "dev0".to_string(),
                text: "vlan 1\nmtu 1500\n".to_string(),
            },
            WalOp::Learn,
            WalOp::Remove {
                name: "dev0".to_string(),
            },
            WalOp::SetContracts {
                json: "{\"contracts\": []}".to_string(),
            },
        ];
        let mut wal = Wal::open_append(&path, 1).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        assert_eq!(wal.next_seq(), 5);
        let (records, torn) = Wal::read_records(&path).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(&r.op, &ops[i]);
        }
    }

    #[test]
    fn torn_tail_is_discarded_but_prefix_survives() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 1).unwrap();
        for i in 0..3 {
            wal.append(&WalOp::Upsert {
                name: format!("dev{i}"),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        }
        drop(wal);
        // Tear: chop the last 5 bytes off the file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (records, torn) = Wal::read_records(&path).unwrap();
        assert!(torn);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn open_append_truncates_torn_tail_before_appending() {
        let dir = tmp_dir("truncate");
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 1).unwrap();
        for i in 0..3 {
            wal.append(&WalOp::Upsert {
                name: format!("dev{i}"),
                text: "vlan 1\n".to_string(),
            })
            .unwrap();
        }
        drop(wal);
        // Tear: chop the last 5 bytes, leaving 2 intact records. A
        // restart then appends a new acknowledged op.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut wal = Wal::open_append(&path, 3).unwrap();
        wal.append(&WalOp::Learn).unwrap();
        drop(wal);
        // The new record must be visible to replay: the torn tail was
        // truncated, not appended after.
        let (records, torn) = Wal::read_records(&path).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].seq, 3);
        assert_eq!(records[2].op, WalOp::Learn);
    }

    #[test]
    fn corrupt_crc_stops_replay_at_that_record() {
        let dir = tmp_dir("crc");
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 1).unwrap();
        for i in 0..3 {
            wal.append(&WalOp::Remove {
                name: format!("dev{i}"),
            })
            .unwrap();
        }
        drop(wal);
        // Flip one payload byte in the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        let mid = lines[0] + 12;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (records, torn) = Wal::read_records(&path).unwrap();
        assert!(torn);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let dir = tmp_dir("missing");
        let (records, torn) = Wal::read_records(&dir.join("nope.log")).unwrap();
        assert!(records.is_empty());
        assert!(!torn);
    }

    /// Tiny deterministic generator for the torn-tail fuzz loop.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    fn fuzz_op(rng: &mut Lcg, i: usize) -> WalOp {
        match rng.next() % 4 {
            0 => WalOp::Upsert {
                name: format!("dev{}", rng.next() % 16),
                text: format!(
                    "vlan {}\nmtu {}\n",
                    rng.next() % 4096,
                    1500 + rng.next() % 8
                ),
            },
            1 => WalOp::Remove {
                name: format!("dev{}", rng.next() % 16),
            },
            2 => WalOp::Learn,
            _ => WalOp::SetContracts {
                json: format!("{{\"contracts\": [], \"tag\": {i}}}"),
            },
        }
    }

    /// Property: truncating a valid log at *every* byte offset inside
    /// the final record always replays exactly the prefix records, and
    /// `open_append` recovers cleanly (truncates the tear, then appends
    /// a record that replay sees). Seeded so a failure reproduces.
    #[test]
    fn torn_tail_property_every_truncation_offset() {
        let seed = std::env::var("CONCORD_WAL_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5eed_cafe_u64);
        let mut rng = Lcg(seed);
        let dir = tmp_dir("fuzz");
        for round in 0..4 {
            let n_records = 2 + (rng.next() % 4) as usize;
            let ops: Vec<WalOp> = (0..n_records).map(|i| fuzz_op(&mut rng, i)).collect();
            let pristine = dir.join(format!("pristine-{round}.log"));
            let mut wal = Wal::open_append(&pristine, 1).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            drop(wal);
            let bytes = std::fs::read(&pristine).unwrap();
            // Start of the final record = one past the second-to-last
            // newline (0 for a single-record log).
            let newlines: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i)
                .collect();
            assert_eq!(newlines.len(), n_records);
            let last_start = if n_records >= 2 {
                newlines[n_records - 2] + 1
            } else {
                0
            };
            let path = dir.join(format!("torn-{round}.log"));
            for cut in last_start..bytes.len() {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                let (records, torn) = Wal::read_records(&path).unwrap();
                assert_eq!(
                    records.len(),
                    n_records - 1,
                    "seed {seed} round {round} cut {cut}: replay must yield the prefix"
                );
                for (i, r) in records.iter().enumerate() {
                    assert_eq!(r.seq, i as u64 + 1, "seed {seed} round {round} cut {cut}");
                    assert_eq!(r.op, ops[i], "seed {seed} round {round} cut {cut}");
                }
                assert_eq!(
                    torn,
                    cut > last_start,
                    "seed {seed} round {round} cut {cut}: a clean prefix is not torn"
                );
                // open_append must truncate the tear and take appends
                // that replay then sees.
                let mut wal = Wal::open_append(&path, n_records as u64).unwrap();
                wal.append(&WalOp::Learn).unwrap();
                drop(wal);
                let (records, torn) = Wal::read_records(&path).unwrap();
                assert!(!torn, "seed {seed} round {round} cut {cut}");
                assert_eq!(
                    records.len(),
                    n_records,
                    "seed {seed} round {round} cut {cut}"
                );
                assert_eq!(records[n_records - 1].op, WalOp::Learn);
            }
        }
    }
}
