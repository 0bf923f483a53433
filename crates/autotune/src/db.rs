//! Tuning-log database (Fig. 11's "log" / "database" box) and its
//! crash-safe journal.
//!
//! Records are JSON lines keyed by task name, mirroring upstream TVM's
//! autotvm log format. Durability — per-line checksums, recovery with a
//! [`RecoveryReport`], torn-tail truncation, flush-per-append, atomic
//! compaction — is the shared [`crate::log`]; this module owns only the
//! tuner's line format, [`JournalLine`]:
//!
//! * a **trial** ([`DbRecord`]) carries its 1-based trial number within
//!   its task, so a replayed append is detected as a duplicate;
//! * a **meta** line pins the tuner seed a task was journaled under, so a
//!   resume under a different seed is refused instead of diverging;
//! * a **sig** line is the task's invariant feature signature, the key of
//!   the transfer lookup.
//!
//! A tuning run journaled through [`crate::tuner::tune_with`] can
//! therefore be killed at any record boundary and resumed to the
//! identical final best configuration.

use std::path::Path;

use tvm_json::Value;

use crate::config::ConfigEntity;
pub use crate::log::{crc32, LineError, RecoveryReport};
use crate::log::{f64_field, str_field, u64_field, Field, Log, Record};
use crate::tuner::TuneResult;

/// One persisted measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct DbRecord {
    /// Task name (workload + target).
    pub task: String,
    /// 1-based trial number within the task.
    pub trial: u64,
    /// Config index within the task's space.
    pub config_index: u64,
    /// Human-readable knob values.
    pub config: String,
    /// Measured milliseconds (`f64::INFINITY` for invalid configs).
    pub cost_ms: f64,
}

/// Signatures are serialized as exact f64 bit patterns (hex, comma
/// joined) so the journal round-trips byte-for-byte regardless of any
/// JSON float formatting.
fn sig_to_string(sig: &[f64]) -> String {
    sig.iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

fn sig_from_string(s: &str) -> Option<Vec<f64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|h| u64::from_str_radix(h, 16).ok().map(f64::from_bits))
        .collect()
}

/// One line of a tuning journal.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalLine {
    /// Run metadata: task + tuner seed.
    Meta {
        /// Task name.
        task: String,
        /// Tuner RNG seed the journaled run used.
        seed: u64,
    },
    /// A task's invariant feature-space signature (for transfer lookup).
    Sig {
        /// Task name.
        task: String,
        /// Signature values (see [`crate::features::task_signature`]).
        sig: Vec<f64>,
    },
    /// A measured trial.
    Trial(DbRecord),
}

impl JournalLine {
    /// Parses and checksum-verifies one journal line (`None` if blank).
    pub fn parse(line: &str) -> Result<Option<JournalLine>, LineError> {
        crate::log::parse_line(line)
    }
}

/// A trial line has no `kind`: its canonical string alone leads with
/// `trial`.
impl Record for JournalLine {
    fn fields(&self) -> Vec<(&'static str, Field)> {
        let kind = |k: &str| ("kind", Field::Str(k.into()));
        match self {
            JournalLine::Meta { task, seed } => vec![
                kind("meta"),
                ("task", Field::Str(task.clone())),
                ("seed", Field::U64(*seed)),
            ],
            JournalLine::Sig { task, sig } => vec![
                kind("sig"),
                ("task", Field::Str(task.clone())),
                ("sig", Field::Str(sig_to_string(sig))),
            ],
            JournalLine::Trial(rec) => vec![
                ("", Field::Str("trial".into())),
                ("trial", Field::U64(rec.trial)),
                ("task", Field::Str(rec.task.clone())),
                ("config_index", Field::U64(rec.config_index)),
                ("config", Field::Str(rec.config.clone())),
                ("cost_ms", Field::F64(rec.cost_ms)),
            ],
        }
    }

    fn decode(line: &Value) -> Result<JournalLine, String> {
        let task = str_field(line, "task")?;
        match line.get("kind").and_then(|k| k.as_str()) {
            Some("meta") => Ok(JournalLine::Meta {
                task,
                seed: u64_field(line, "seed")?,
            }),
            Some("sig") => Ok(JournalLine::Sig {
                task,
                sig: sig_from_string(&str_field(line, "sig")?).ok_or("sig must be hex f64 bits")?,
            }),
            _ => Ok(JournalLine::Trial(DbRecord {
                task,
                trial: u64_field(line, "trial")?,
                config_index: u64_field(line, "config_index")?,
                config: str_field(line, "config")?,
                cost_ms: f64_field(line, "cost_ms")?,
            })),
        }
    }

    /// First writer wins for a task's meta and signature.
    fn dedup_key(&self) -> Option<String> {
        Some(match self {
            JournalLine::Meta { task, .. } => format!("meta of task `{task}`"),
            JournalLine::Sig { task, .. } => format!("signature of task `{task}`"),
            JournalLine::Trial(rec) => format!("task `{}`, trial {}", rec.task, rec.trial),
        })
    }
}

impl DbRecord {
    /// Compact JSON form (one checksummed log line).
    pub fn to_json(&self) -> String {
        crate::log::encode_line(&JournalLine::Trial(self.clone()))
    }
}

/// In-memory database of tuning records.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// All records, append order.
    pub records: Vec<DbRecord>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    fn next_trial(&self, task: &str) -> u64 {
        self.records
            .iter()
            .filter(|r| r.task == task)
            .map(|r| r.trial)
            .max()
            .unwrap_or(0)
            + 1
    }

    /// Appends one record (trial number assigned automatically).
    pub fn add(&mut self, task: &str, cfg: &ConfigEntity, cost_ms: f64) {
        self.records.push(DbRecord {
            task: task.to_string(),
            trial: self.next_trial(task),
            config_index: cfg.index,
            config: cfg.summary(),
            cost_ms,
        });
    }

    /// Appends a whole tuning history.
    pub fn add_result(&mut self, task: &str, space: &crate::config::ConfigSpace, r: &TuneResult) {
        for rec in &r.history {
            if rec.cost_ms.is_finite() {
                let cfg = space.get(rec.config_index);
                self.add(task, &cfg, rec.cost_ms);
            }
        }
    }

    /// Best (finite) record for a task, if any.
    pub fn best(&self, task: &str) -> Option<&DbRecord> {
        self.records
            .iter()
            .filter(|r| r.task == task && r.cost_ms.is_finite())
            .min_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms))
    }

    /// Serializes as checksummed JSON lines, atomically (temp + rename):
    /// a crash mid-save leaves either the old file or the new one, never
    /// a half-written mix.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let lines = self.records.iter().cloned().map(JournalLine::Trial);
        crate::log::save::<JournalLine>(path, lines)
    }

    /// Loads JSON lines, recovering from corruption (see
    /// [`Database::load_with_report`] for the drop accounting).
    pub fn load(path: &Path) -> std::io::Result<Database> {
        Ok(Self::load_with_report(path)?.0)
    }

    /// Loads the trials of a tuning log or journal; corrupt, torn,
    /// checksum-failing and duplicate lines are dropped (not fatal) and
    /// itemized in the report (which also counts meta and signature
    /// lines).
    pub fn load_with_report(path: &Path) -> std::io::Result<(Database, RecoveryReport)> {
        let (lines, report) = crate::log::load::<JournalLine>(path)?;
        let mut db = Database::new();
        for line in lines {
            if let JournalLine::Trial(rec) = line {
                db.records.push(rec);
            }
        }
        Ok((db, report))
    }
}

/// Append-only crash-safe tuning journal: a [`Log`] of [`JournalLine`]s
/// plus the tables they fold into.
pub struct Journal {
    log: Log<JournalLine>,
    /// Recovered + appended records.
    pub db: Database,
    metas: Vec<(String, u64)>,
    sigs: Vec<(String, Vec<f64>)>,
}

impl Journal {
    fn over(log: Log<JournalLine>) -> Journal {
        Journal {
            log,
            db: Database::new(),
            metas: Vec::new(),
            sigs: Vec::new(),
        }
    }

    /// Creates a fresh (truncated) journal.
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        Log::create(path).map(Journal::over)
    }

    /// Opens (or creates) a journal, recovering valid records and
    /// truncating any torn tail so subsequent appends land on a clean
    /// record boundary.
    pub fn open(path: &Path) -> std::io::Result<(Journal, RecoveryReport)> {
        let (log, lines, report) = Log::open(path)?;
        let mut journal = Journal::over(log);
        lines.into_iter().for_each(|line| journal.absorb(line));
        Ok((journal, report))
    }

    fn absorb(&mut self, line: JournalLine) {
        match line {
            JournalLine::Meta { task, seed } => self.metas.push((task, seed)),
            JournalLine::Sig { task, sig } => self.sigs.push((task, sig)),
            JournalLine::Trial(rec) => self.db.records.push(rec),
        }
    }

    fn write(&mut self, line: JournalLine) -> std::io::Result<()> {
        self.log.append(&line)?;
        self.absorb(line);
        Ok(())
    }

    /// Appends one record and flushes it to the OS at a line boundary.
    pub fn append(&mut self, rec: DbRecord) -> std::io::Result<()> {
        self.write(JournalLine::Trial(rec))
    }

    /// Records run metadata for a task (first writer wins).
    pub fn append_meta(&mut self, task: &str, seed: u64) -> std::io::Result<()> {
        if self.meta_seed(task).is_some() {
            return Ok(());
        }
        let task = task.to_string();
        self.write(JournalLine::Meta { task, seed })
    }

    /// The journaled tuner seed for a task, if any.
    pub fn meta_seed(&self, task: &str) -> Option<u64> {
        self.metas.iter().find(|(t, _)| t == task).map(|&(_, s)| s)
    }

    /// Records a task's invariant feature-space signature (first writer
    /// wins — a task's signature never changes across runs).
    pub fn append_sig(&mut self, task: &str, sig: &[f64]) -> std::io::Result<()> {
        if self.signature(task).is_some() {
            return Ok(());
        }
        let (task, sig) = (task.to_string(), sig.to_vec());
        self.write(JournalLine::Sig { task, sig })
    }

    /// The journaled signature for a task, if any.
    pub fn signature(&self, task: &str) -> Option<&[f64]> {
        self.sigs
            .iter()
            .find(|(t, _)| t == task)
            .map(|(_, s)| s.as_slice())
    }

    /// The journaled task nearest to `sig` in invariant feature space
    /// (squared L2), skipping `exclude` (the task being tuned) and tasks
    /// with no finite best record to transfer from. Distance ties break
    /// towards the earliest-journaled task, keeping the choice stable
    /// across replays.
    pub fn nearest_task(&self, sig: &[f64], exclude: &str) -> Option<&str> {
        self.sigs
            .iter()
            .filter(|(t, _)| t != exclude && self.db.best(t).is_some())
            .min_by(|(_, a), (_, b)| {
                crate::features::signature_distance(a, sig)
                    .total_cmp(&crate::features::signature_distance(b, sig))
            })
            .map(|(t, _)| t.as_str())
    }

    /// Trials recorded for a task, in trial order.
    pub fn trials_for(&self, task: &str) -> Vec<&DbRecord> {
        let mut v: Vec<&DbRecord> = self.db.records.iter().filter(|r| r.task == task).collect();
        v.sort_by_key(|r| r.trial);
        v
    }

    /// Forces journal contents to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }

    /// Rewrites the journal atomically with only valid, deduplicated
    /// content (metas and signatures first, then records in order). A
    /// crash during compaction leaves the old journal intact.
    pub fn compact(&mut self) -> std::io::Result<()> {
        let metas = self.metas.iter().cloned();
        let sigs = self.sigs.iter().cloned();
        let lines = metas
            .map(|(task, seed)| JournalLine::Meta { task, seed })
            .chain(sigs.map(|(task, sig)| JournalLine::Sig { task, sig }))
            .chain(self.db.records.iter().cloned().map(JournalLine::Trial));
        self.log.compact(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigSpace;

    #[test]
    fn best_picks_minimum() {
        let mut space = ConfigSpace::new();
        space.define_knob("k", &[1, 2, 3]);
        let mut db = Database::new();
        db.add("conv", &space.get(0), 3.0);
        db.add("conv", &space.get(1), 1.5);
        db.add("dense", &space.get(2), 0.5);
        assert_eq!(db.best("conv").expect("exists").cost_ms, 1.5);
        assert_eq!(db.best("dense").expect("exists").config_index, 2);
        assert!(db.best("missing").is_none());
    }

    #[test]
    fn save_load_round_trip() {
        let mut space = ConfigSpace::new();
        space.define_knob("k", &[4, 8]);
        let mut db = Database::new();
        db.add("t", &space.get(1), 2.25);
        let dir = std::env::temp_dir().join("tvm_rs_db_test.jsonl");
        db.save(&dir).expect("save");
        let loaded = Database::load(&dir).expect("load");
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].cost_ms, 2.25);
        assert_eq!(loaded.records[0].config, "k=8");
        assert_eq!(loaded.records[0].trial, 1);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn trial_numbers_count_per_task() {
        let mut space = ConfigSpace::new();
        space.define_knob("k", &[4, 8]);
        let mut db = Database::new();
        db.add("a", &space.get(0), 1.0);
        db.add("b", &space.get(0), 1.0);
        db.add("a", &space.get(1), 2.0);
        let trials: Vec<u64> = db.records.iter().map(|r| r.trial).collect();
        assert_eq!(trials, vec![1, 1, 2]);
    }

    #[test]
    fn infinite_costs_round_trip() {
        let rec = DbRecord {
            task: "t".into(),
            trial: 1,
            config_index: 3,
            config: "k=1".into(),
            cost_ms: f64::INFINITY,
        };
        let line = rec.to_json();
        assert_eq!(JournalLine::parse(&line), Ok(Some(JournalLine::Trial(rec))));
    }

    #[test]
    fn checksum_detects_payload_tampering() {
        let rec = DbRecord {
            task: "t".into(),
            trial: 1,
            config_index: 3,
            config: "k=1".into(),
            cost_ms: 2.5,
        };
        let line = rec.to_json();
        assert!(JournalLine::parse(&line).is_ok());
        let tampered = line.replace("2.5", "9.5");
        assert_eq!(
            JournalLine::parse(&tampered),
            Err(LineError::Checksum),
            "{tampered}"
        );
    }

    #[test]
    fn crc_outside_u32_is_malformed_not_truncated() {
        let rec = DbRecord {
            task: "t".into(),
            trial: 1,
            config_index: u64::MAX,
            config: "k=1".into(),
            cost_ms: 2.5,
        };
        let line = rec.to_json();
        assert!(line.contains("\"ffffffffffffffff\""), "{line}");
        assert_eq!(
            JournalLine::parse(&line),
            Ok(Some(JournalLine::Trial(rec.clone())))
        );
        // `crc + 2^32` used to alias `crc` through `as u32`.
        let crc = crc32(b"trial|1|t|18446744073709551615|k=1|4004000000000000");
        let aliased = line.replace(
            &format!("\"crc\":{crc}"),
            &format!("\"crc\":{}", u64::from(crc) + (1 << 32)),
        );
        assert_ne!(aliased, line);
        assert!(
            matches!(JournalLine::parse(&aliased), Err(LineError::Malformed(_))),
            "{aliased}"
        );
    }

    #[test]
    fn signatures_round_trip_and_pick_nearest() {
        let path = std::env::temp_dir().join("tvm_rs_db_sig_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut space = ConfigSpace::new();
        space.define_knob("k", &[1, 2, 3]);
        {
            let mut j = Journal::create(&path).expect("create");
            j.append_sig("near", &[1.0, 2.0, 0.125]).expect("sig");
            j.append_sig("far", &[9.0, 9.0, 9.0]).expect("sig");
            j.append_sig("nobest", &[1.0, 2.0, 0.0]).expect("sig");
            // First writer wins: a second signature for `near` is a no-op.
            j.append_sig("near", &[5.0, 5.0, 5.0]).expect("sig");
            let mut db = Database::new();
            db.add("near", &space.get(1), 1.5);
            db.add("far", &space.get(2), 2.0);
            for r in db.records {
                j.append(r).expect("append");
            }
        }
        let (j, report) = Journal::open(&path).expect("open");
        assert!(report.clean(), "{report:?}");
        assert_eq!(j.signature("near"), Some(&[1.0, 2.0, 0.125][..]));
        // `nobest` is nearest in space but has no record to transfer from.
        assert_eq!(j.nearest_task(&[1.0, 2.0, 0.1], "self"), Some("near"));
        // The task being tuned never transfers from itself.
        assert_eq!(j.nearest_task(&[1.0, 2.0, 0.1], "near"), Some("far"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sig_checksum_detects_tampering() {
        let path = std::env::temp_dir().join("tvm_rs_db_sig_tamper.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path).expect("create");
            j.append_sig("t", &[1.0, 2.0]).expect("sig");
        }
        let line = std::fs::read_to_string(&path).expect("read");
        match JournalLine::parse(line.trim_end()) {
            Ok(Some(JournalLine::Sig { task, sig })) => {
                assert_eq!(task, "t");
                assert_eq!(sig, vec![1.0, 2.0]);
            }
            other => panic!("expected sig line, got {other:?}"),
        }
        // Flip one bit of the signature payload.
        let tampered = line.replacen("3ff", "3fe", 1);
        assert_ne!(tampered, line);
        assert_eq!(
            JournalLine::parse(tampered.trim_end()),
            Err(LineError::Checksum)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_preserves_signatures() {
        let path = std::env::temp_dir().join("tvm_rs_db_sig_compact.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut space = ConfigSpace::new();
        space.define_knob("k", &[1, 2]);
        {
            let mut j = Journal::create(&path).expect("create");
            j.append_sig("t", &[0.5, -2.0, f64::INFINITY]).expect("sig");
            let mut db = Database::new();
            db.add("t", &space.get(0), 1.0);
            for r in db.records {
                j.append(r).expect("append");
            }
            j.compact().expect("compact");
        }
        let (j, report) = Journal::open(&path).expect("open");
        assert!(report.clean(), "{report:?}");
        assert_eq!(j.signature("t"), Some(&[0.5, -2.0, f64::INFINITY][..]));
        assert_eq!(j.db.records.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
