//! The one checksummed append-only log every durable client speaks.
//!
//! A log file is JSON lines. Each line is one record's fields plus a
//! `crc`: the **CRC32** of the record's canonical payload string, so torn
//! writes and bit rot are detected. What a line *means* belongs to its
//! client, through a [`Record`] codec: the tuner's
//! [`JournalLine`](crate::db::JournalLine), and `tvm-serve`'s lifecycle
//! records. Everything else exists once, here:
//!
//! * [`load`] never aborts on corrupt input: it recovers the valid records
//!   and a [`RecoveryReport`] says exactly what was dropped (truncated
//!   tail, garbage bytes, checksum mismatches, replayed appends);
//! * [`Log::append`] flushes each record at a line boundary and
//!   [`Log::sync`] forces it to stable storage;
//! * [`Log::open`] truncates a torn tail back to the last valid record so
//!   later appends land on a clean boundary;
//! * [`save`] / [`Log::compact`] rewrite a file atomically (temp file +
//!   rename): a crash leaves the old file or the new one, never a mix.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use tvm_json::Value;

/// CRC32 (IEEE polynomial, bitwise) — the record checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One field value of a record. How each type is spelled, in JSON and in
/// the canonical string the checksum covers, is decided once, here.
pub enum Field {
    /// JSON: an integer while it fits JSON's `i64`, else 16 hex digits in
    /// a string (the convention for `f64` bits). Canonical: decimal.
    U64(u64),
    /// JSON: a number, or `"inf"` / `"-inf"` / `"nan"` (JSON has none).
    /// Canonical: the exact bit pattern, so the check is byte-stable
    /// however JSON happened to spell the number.
    F64(f64),
    /// Verbatim in both.
    Str(String),
}

impl Field {
    fn json(self) -> Value {
        match self {
            Field::U64(v) => {
                i64::try_from(v).map_or_else(|_| Value::Str(format!("{v:016x}")), Value::Int)
            }
            Field::F64(v) if v.is_finite() => Value::Float(v),
            Field::F64(v) => Value::Str(v.to_string().to_lowercase()),
            Field::Str(s) => Value::Str(s),
        }
    }

    fn canonical(&self) -> String {
        match self {
            Field::U64(v) => v.to_string(),
            Field::F64(v) => format!("{:016x}", v.to_bits()),
            Field::Str(s) => s.clone(),
        }
    }
}

/// One client's line format.
pub trait Record: Sized {
    /// The record as named fields. All of them, joined by `|` in this
    /// order, are the canonical string; all but those with an empty name
    /// are the line's JSON members (the log adds `crc`).
    fn fields(&self) -> Vec<(&'static str, Field)>;

    /// Decodes one parsed line's members.
    fn decode(line: &Value) -> Result<Self, String>;

    /// Identity under which a second record is the same append replayed
    /// (a crashed writer re-sending, a file copied onto itself); the log
    /// keeps the first. Human-readable: it is quoted in the recovery
    /// note. `None` = never a duplicate.
    fn dedup_key(&self) -> Option<String>;
}

fn member<'a>(line: &'a Value, key: &str) -> Result<&'a Value, String> {
    line.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// A required string member.
pub fn str_field(line: &Value, key: &str) -> Result<String, String> {
    member(line, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key} must be a string"))
}

/// A required `u64` member, in either spelling of [`Field::U64`].
pub fn u64_field(line: &Value, key: &str) -> Result<u64, String> {
    let v = member(line, key)?;
    match v.as_str() {
        Some(hex) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16).ok()
        }
        Some(_) => None,
        None => v.as_i64().and_then(|i| u64::try_from(i).ok()),
    }
    .ok_or_else(|| format!("{key} must be an unsigned integer"))
}

/// A required `f64` member, in either spelling of [`Field::F64`].
pub fn f64_field(line: &Value, key: &str) -> Result<f64, String> {
    let v = member(line, key)?;
    match v.as_str() {
        Some(s @ ("inf" | "-inf" | "nan")) => s.parse().ok(),
        Some(_) => None,
        None => v.as_f64(),
    }
    .ok_or_else(|| format!("{key} must be a number"))
}

/// Why a line was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum LineError {
    /// Not valid JSON, or missing/ill-typed fields.
    Malformed(String),
    /// Parsed fine but the stored checksum disagrees with the payload.
    Checksum,
}

fn checksum(fields: &[(&'static str, Field)]) -> u32 {
    let canonical: Vec<String> = fields.iter().map(|(_, f)| f.canonical()).collect();
    crc32(canonical.join("|").as_bytes())
}

/// One checksummed log line for `rec` (no trailing newline).
pub fn encode_line<R: Record>(rec: &R) -> String {
    let fields = rec.fields();
    let crc = Value::Int(i64::from(checksum(&fields)));
    let members = fields.into_iter().filter(|(name, _)| !name.is_empty());
    Value::object(
        members
            .map(|(name, f)| (name, f.json()))
            .chain([("crc", crc)]),
    )
    .to_string()
}

/// Parses and checksum-verifies one line; `None` for a blank line.
pub fn parse_line<R: Record>(line: &str) -> Result<Option<R>, LineError> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let v = tvm_json::from_str(line).map_err(|e| LineError::Malformed(e.to_string()))?;
    let stored_crc = member(&v, "crc")
        .map_err(LineError::Malformed)?
        .as_i64()
        .and_then(|c| u32::try_from(c).ok())
        .ok_or_else(|| LineError::Malformed("crc must be a 32-bit integer".into()))?;
    let rec = R::decode(&v).map_err(LineError::Malformed)?;
    if stored_crc != checksum(&rec.fields()) {
        return Err(LineError::Checksum);
    }
    Ok(Some(rec))
}

/// What a load recovered and what it had to drop. Every non-blank line is
/// counted exactly once: `kept + dropped()`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Valid records kept.
    pub kept: usize,
    /// Partial final line dropped (torn append).
    pub dropped_truncated: usize,
    /// Unparseable lines dropped.
    pub dropped_corrupt: usize,
    /// Lines whose checksum disagreed with their payload.
    pub dropped_checksum: usize,
    /// Records whose [`Record::dedup_key`] was already present.
    pub dropped_duplicates: usize,
    /// Human-readable notes, one per dropped line.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// Total dropped lines.
    pub fn dropped(&self) -> usize {
        self.dropped_truncated
            + self.dropped_corrupt
            + self.dropped_checksum
            + self.dropped_duplicates
    }

    /// True when nothing was dropped.
    pub fn clean(&self) -> bool {
        self.dropped() == 0
    }
}

/// Recovers the valid records of a log file's bytes. The last value is
/// the offset after the last valid line: anything beyond it is a torn
/// tail, not interior damage.
fn scan<R: Record>(bytes: &[u8]) -> (Vec<R>, RecoveryReport, usize) {
    let mut records = Vec::new();
    let mut report = RecoveryReport::default();
    let mut seen: HashSet<String> = HashSet::new();
    let (mut end, mut valid_end) = (0, 0);
    for (i, raw) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        end += raw.len();
        let text = String::from_utf8_lossy(raw);
        let (count, note) = match parse_line::<R>(text.trim_end_matches('\n')) {
            Ok(parsed) => {
                // A replayed append is still a valid line (compaction
                // removes it; truncation must not).
                valid_end = end;
                match parsed.map(|rec| (rec.dedup_key(), rec)) {
                    Some((Some(key), _)) if seen.contains(&key) => (
                        &mut report.dropped_duplicates,
                        format!("duplicate record ({key})"),
                    ),
                    Some((key, rec)) => {
                        seen.extend(key);
                        report.kept += 1;
                        records.push(rec);
                        continue;
                    }
                    None => continue,
                }
            }
            Err(LineError::Checksum) => (&mut report.dropped_checksum, "checksum mismatch".into()),
            Err(LineError::Malformed(e)) if !raw.ends_with(b"\n") => (
                &mut report.dropped_truncated,
                format!("truncated final line ({e})"),
            ),
            Err(LineError::Malformed(e)) => (&mut report.dropped_corrupt, e),
        };
        *count += 1;
        report.notes.push(format!("line {}: {note}", i + 1));
    }
    (records, report, valid_end)
}

/// Loads a log file; corrupt, torn, checksum-failing and duplicate lines
/// are dropped (not fatal) and itemized in the report.
pub fn load<R: Record>(path: &Path) -> std::io::Result<(Vec<R>, RecoveryReport)> {
    let (records, report, _) = scan(&std::fs::read(path)?);
    Ok((records, report))
}

/// Writes `records` as a whole log file, atomically (temp + rename).
pub fn save<R: Record>(
    path: &Path,
    records: impl IntoIterator<Item = impl Borrow<R>>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        for r in records {
            writeln!(f, "{}", encode_line(r.borrow()))?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// The append-only write path of one log file of `R` records. The log
/// owns the file, not the records: a client folds what [`Log::open`]
/// recovered into its own state and keeps it current as it appends.
pub struct Log<R> {
    path: PathBuf,
    file: File,
    _codec: PhantomData<fn(R)>,
}

impl<R: Record> Log<R> {
    fn over(path: &Path, file: File) -> Log<R> {
        Log {
            path: path.to_path_buf(),
            file,
            _codec: PhantomData,
        }
    }

    /// Creates a fresh (truncated) log.
    pub fn create(path: &Path) -> std::io::Result<Log<R>> {
        Ok(Self::over(path, File::create(path)?))
    }

    /// Opens (or creates) a log, recovering its valid records in file
    /// order and truncating any torn tail so subsequent appends land on a
    /// clean record boundary.
    pub fn open(path: &Path) -> std::io::Result<(Log<R>, Vec<R>, RecoveryReport)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, report, valid_end) = scan(&bytes);
        if valid_end < bytes.len() {
            file.set_len(valid_end as u64)?;
        } else if bytes.last().is_some_and(|&b| b != b'\n') {
            // The last record's newline never reached the file: complete
            // the boundary, or the next append would join its line and
            // both would be lost.
            file.write_all(b"\n")?;
        }
        Ok((Self::over(path, file), records, report))
    }

    /// Appends one record and flushes it to the OS at a line boundary.
    pub fn append(&mut self, rec: &R) -> std::io::Result<()> {
        writeln!(self.file, "{}", encode_line(rec))?;
        self.file.flush()
    }

    /// Forces log contents to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Rewrites the log atomically as exactly `records` — the client's
    /// valid, deduplicated view. A crash during compaction leaves the old
    /// log intact.
    pub fn compact(
        &mut self,
        records: impl IntoIterator<Item = impl Borrow<R>>,
    ) -> std::io::Result<()> {
        save::<R>(&self.path, records)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}
