//! Write-ahead log for append batches.
//!
//! Every `append_facts` batch a session accepts is appended here **before**
//! the in-memory layer promotion is acknowledged: serialize the batch
//! (predicate symbols + resolved values, length-prefixed, checksummed),
//! `write_all`, `fsync`, and only then promote. A session recovered from the
//! log replays the same batches through the same append path, so stamps,
//! FactIds and labelled-null ids come out bit-identical to the never-crashed
//! session — the log records *submitted* batches verbatim (duplicates
//! included) precisely because replay must feed the termination strategy the
//! same sequence it saw live. (A session registers appends with its strategy
//! only for programs that can hold a labelled null; for the rest the order
//! is moot, but the log does not need to know which kind it serves.)
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic record*
//! magic  := "VADWAL1\0"                                 (8 bytes)
//! record := len:u32le  checksum:u64le  payload[len]     (checksum = FNV-1a 64 of payload)
//! payload:= count:u32le  fact*
//! fact   := plen:u16le  predicate[plen]  arity:u16le  value*
//! value  := tag:u8  body                                 (see `encode_value`)
//! ```
//!
//! A **torn tail** — a record whose length prefix, payload, or checksum is
//! incomplete or wrong (the classic partial-write-then-crash) — is detected
//! on open: the file is truncated back to the last whole record and a typed
//! [`TornTail`] warning is returned. Everything before the tear is trusted
//! (each record's checksum covers its payload).
//!
//! The log is the only file a session writes or recovers from; a recovered
//! session rebuilds all of its in-memory state by replay.
//!
//! Fault points (`wal.append`, `wal.partial_write`, `wal.fsync`) let the
//! crash-recovery property tests fail or kill a session at every
//! interesting instant; see `vadalog_fault`.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vadalog_fault as fault;
use vadalog_model::{Fact, Value};

/// Magic header of a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"VADWAL1\0";

/// Errors from WAL I/O.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`].
    BadMagic(PathBuf),
    /// A batch contained a labelled null; only ground facts are appendable,
    /// so only ground facts are loggable.
    NonGround { predicate: String },
    /// An injected fault fired (test harness only).
    Fault(fault::FaultError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic(p) => write!(f, "{} is not a Vadalog log file", p.display()),
            WalError::NonGround { predicate } => {
                write!(f, "cannot log non-ground fact for {predicate}")
            }
            WalError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<fault::FaultError> for WalError {
    fn from(e: fault::FaultError) -> Self {
        WalError::Fault(e)
    }
}

/// Typed warning for a torn/corrupt tail truncated on open.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TornTail {
    /// Byte offset the file was truncated back to (end of last whole record).
    pub offset: u64,
    /// Bytes dropped by the truncation.
    pub dropped_bytes: u64,
    /// Why the tail was rejected.
    pub reason: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn wal tail: {} ({} bytes dropped, log truncated to offset {})",
            self.reason, self.dropped_bytes, self.offset
        )
    }
}

/// Result of opening a WAL: the writer positioned at the end, the replayed
/// batches in append order, and the torn-tail warning if the file needed
/// truncation.
pub struct WalOpen {
    /// The log, ready for further appends.
    pub wal: Wal,
    /// Every durable batch, in the order it was appended.
    pub batches: Vec<Vec<Fact>>,
    /// Present when a torn/corrupt tail was truncated away.
    pub torn_tail: Option<TornTail>,
}

/// An open write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Open (or create) the log at `path`, replay its durable records, and
    /// truncate any torn tail. The returned [`Wal`] appends after the last
    /// whole record.
    pub fn open(path: &Path) -> Result<WalOpen, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(&WAL_MAGIC)?;
            file.sync_data()?;
            return Ok(WalOpen {
                wal: Wal {
                    file,
                    path: path.to_owned(),
                },
                batches: Vec::new(),
                torn_tail: None,
            });
        }
        let mut bytes = Vec::with_capacity(len as usize);
        file.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(WalError::BadMagic(path.to_owned()));
        }
        let mut batches = Vec::new();
        let mut good_end = WAL_MAGIC.len();
        let mut torn: Option<String> = None;
        let mut cursor = good_end;
        while cursor < bytes.len() {
            match decode_record(&bytes[cursor..]) {
                Ok((batch, consumed)) => {
                    batches.push(batch);
                    cursor += consumed;
                    good_end = cursor;
                }
                Err(reason) => {
                    torn = Some(reason);
                    break;
                }
            }
        }
        let torn_tail = torn.map(|reason| TornTail {
            offset: good_end as u64,
            dropped_bytes: (bytes.len() - good_end) as u64,
            reason,
        });
        if torn_tail.is_some() {
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(WalOpen {
            wal: Wal {
                file,
                path: path.to_owned(),
            },
            batches,
            torn_tail,
        })
    }

    /// Path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one batch: serialize, write, fsync. Returns only after the
    /// record is durable — callers must not acknowledge the corresponding
    /// layer promotion before this returns `Ok`.
    pub fn append_batch(&mut self, facts: &[Fact]) -> Result<(), WalError> {
        fault::point("wal.append")?;
        let record = encode_record(facts)?;
        if let Err(e) = fault::point("wal.partial_write") {
            // Simulate a crash mid-write: half the record reaches the disk,
            // then the append fails. Recovery must truncate this tail.
            self.file.write_all(&record[..record.len() / 2])?;
            let _ = self.file.sync_data();
            return Err(e.into());
        }
        self.file.write_all(&record)?;
        fault::point("wal.fsync")?;
        self.file.sync_data()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// record encoding
// ---------------------------------------------------------------------------

fn encode_record(facts: &[Fact]) -> Result<Vec<u8>, WalError> {
    let mut payload = Vec::new();
    put_u32(&mut payload, facts.len() as u32);
    for fact in facts {
        if !fact.is_ground() {
            return Err(WalError::NonGround {
                predicate: fact.predicate_name(),
            });
        }
        put_str16(&mut payload, &fact.predicate_name());
        put_u16(&mut payload, fact.args.len() as u16);
        for value in &fact.args {
            encode_value(&mut payload, value);
        }
    }
    let mut record = Vec::with_capacity(12 + payload.len());
    put_u32(&mut record, payload.len() as u32);
    record.extend_from_slice(&fnv64(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    Ok(record)
}

/// Decode one record from the front of `bytes`; returns the batch and the
/// number of bytes consumed, or a human-readable reason the tail is torn.
fn decode_record(bytes: &[u8]) -> Result<(Vec<Fact>, usize), String> {
    if bytes.len() < 12 {
        return Err(format!("incomplete record header ({} bytes)", bytes.len()));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let Some(payload) = bytes.get(12..12 + len) else {
        return Err(format!(
            "incomplete record payload ({} of {len} bytes)",
            bytes.len() - 12
        ));
    };
    if fnv64(payload) != checksum {
        return Err("record checksum mismatch".into());
    }
    let mut c = Cursor::new(payload);
    let decode = |c: &mut Cursor| -> Option<Vec<Fact>> {
        let count = c.u32()?;
        let mut batch = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let predicate = c.str16()?;
            let arity = c.u16()? as usize;
            let mut args = Vec::with_capacity(arity);
            for _ in 0..arity {
                args.push(c.value()?);
            }
            batch.push(Fact::new(&predicate, args));
        }
        c.done()?;
        Some(batch)
    };
    match decode(&mut c) {
        Some(batch) => Ok((batch, 12 + len)),
        // A checksummed payload that fails structural decode means a version
        // or logic mismatch, not a torn write — but truncating is still the
        // safe recovery (we keep the trusted prefix).
        None => Err("record payload failed to decode".into()),
    }
}

fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(1);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(2);
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::List(items) => {
            out.push(5);
            put_u32(out, items.len() as u32);
            for item in items {
                encode_value(out, item);
            }
        }
        Value::Set(items) => {
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items {
                encode_value(out, item);
            }
        }
        // Callers reject non-ground facts before encoding (WalError::NonGround).
        Value::Null(_) => unreachable!("non-ground facts are rejected before encoding"),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str16(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            1 => Value::Float(f64::from_bits(self.u64()?)),
            2 => {
                let len = self.u32()? as usize;
                let bytes = self.take(len)?;
                Value::str(std::str::from_utf8(bytes).ok()?)
            }
            3 => Value::Bool(self.u8()? != 0),
            4 => Value::Date(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            5 => {
                let n = self.u32()? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Value::List(items)
            }
            6 => {
                let n = self.u32()? as usize;
                let mut items = std::collections::BTreeSet::new();
                for _ in 0..n {
                    items.insert(self.value()?);
                }
                Value::Set(items)
            }
            _ => return None,
        })
    }

    fn done(&mut self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// FNV-1a 64 — stable, dependency-free, plenty for torn-write detection.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vadalog-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn sample_batches() -> Vec<Vec<Fact>> {
        vec![
            vec![
                Fact::new("Edge", vec![Value::str("a"), Value::str("b")]),
                Fact::new("Score", vec![Value::Int(-7), Value::Float(2.5)]),
            ],
            vec![Fact::new(
                "Mixed",
                vec![
                    Value::Bool(true),
                    Value::Date(19000),
                    Value::List(vec![Value::Int(1), Value::str("x")]),
                    Value::Set(BTreeSet::from([Value::Int(3), Value::Int(1)])),
                ],
            )],
            vec![],
        ]
    }

    #[test]
    fn append_then_reopen_round_trips_batches() {
        let path = temp_path("roundtrip");
        let batches = sample_batches();
        {
            let mut open = Wal::open(&path).unwrap();
            assert!(open.batches.is_empty());
            assert!(open.torn_tail.is_none());
            for batch in &batches {
                open.wal.append_batch(batch).unwrap();
            }
        }
        let open = Wal::open(&path).unwrap();
        assert_eq!(open.batches, batches);
        assert!(open.torn_tail.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_with_warning_and_log_stays_appendable() {
        let path = temp_path("torn");
        {
            let mut open = Wal::open(&path).unwrap();
            open.wal
                .append_batch(&[Fact::new("Edge", vec![Value::Int(1)])])
                .unwrap();
        }
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-write: half a record's worth of garbage.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x55; 7]).unwrap();
        drop(file);
        let mut open = Wal::open(&path).unwrap();
        assert_eq!(open.batches.len(), 1);
        let torn = open.torn_tail.expect("tail should be torn");
        assert_eq!(torn.offset, good_len);
        assert_eq!(torn.dropped_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        // The truncated log accepts further appends.
        open.wal
            .append_batch(&[Fact::new("Edge", vec![Value::Int(2)])])
            .unwrap();
        let open = Wal::open(&path).unwrap();
        assert_eq!(open.batches.len(), 2);
        assert!(open.torn_tail.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_byte_is_caught_by_checksum() {
        let path = temp_path("corrupt");
        {
            let mut open = Wal::open(&path).unwrap();
            open.wal
                .append_batch(&[Fact::new("Edge", vec![Value::str("hello")])])
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let open = Wal::open(&path).unwrap();
        assert!(open.batches.is_empty());
        let torn = open.torn_tail.expect("flipped byte should fail checksum");
        assert!(torn.reason.contains("checksum"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_wal_file_is_rejected_not_truncated() {
        let path = temp_path("notawal");
        std::fs::write(&path, b"definitely not a wal file").unwrap();
        assert!(matches!(Wal::open(&path), Err(WalError::BadMagic(_))));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a wal file".to_vec()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_ground_batches_are_rejected_before_any_write() {
        let path = temp_path("nonground");
        let mut open = Wal::open(&path).unwrap();
        let null_fact = Fact::new("P", vec![Value::Null(vadalog_model::NullId(7))]);
        assert!(matches!(
            open.wal.append_batch(&[null_fact]),
            Err(WalError::NonGround { .. })
        ));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            WAL_MAGIC.len() as u64
        );
        std::fs::remove_file(&path).unwrap();
    }
}
