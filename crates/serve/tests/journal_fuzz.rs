//! Fuzz tier for the one log reader, through both of its clients' line
//! formats: the tuner's journal and the version registry's lifecycle
//! records.
//!
//! From a valid journal, a seeded mix of the damage a crashed writer or a
//! bad disk leaves — truncation at any byte offset, single-byte flips,
//! appends written twice, inserted garbage lines, bytes that are not
//! UTF-8 — must never panic the reader, never invent or reorder a record,
//! never lose count of a line, and always leave a log that can be
//! appended to and compacted.

use std::fmt::Debug;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use tvm_autotune::db::JournalLine;
use tvm_autotune::log::{encode_line, load, Log, Record};
use tvm_autotune::{ConfigEntity, Database};
use tvm_serve::{LifecycleOp, LifecycleRecord, Model, ModelVersion};

/// Text the old `:`/`|`-delimited encodings could not carry, plus JSON's
/// own escapes.
const TEXTS: [&str; 5] = ["v1", "rc:1|hotfix", "say \"hi\"\\n", "naïve ✓", ""];

fn coin(rng: &mut StdRng, p: f64) -> bool {
    rng.next_f64() < p
}

/// A `u64` that exercises both spellings: small, and above `i64::MAX`.
fn wide(rng: &mut StdRng) -> u64 {
    if coin(rng, 0.5) {
        rng.random_range(0..1000)
    } else {
        u64::MAX - rng.random_range(0..1000u64)
    }
}

fn text(rng: &mut StdRng) -> String {
    TEXTS[rng.random_range(0..TEXTS.len())].to_string()
}

/// Each journal's last record is the one `check` appends after recovery,
/// so its identity (trial, transition) is still unused.
fn tuner_journal(rng: &mut StdRng, n: usize) -> Vec<JournalLine> {
    let mut lines = vec![
        JournalLine::Meta {
            task: "conv".into(),
            seed: wide(rng),
        },
        JournalLine::Sig {
            task: "conv".into(),
            sig: vec![0.5, -2.0, f64::INFINITY, rng.random_range(0.0..1.0)],
        },
    ];
    // Trials as the tuner's database numbers them: 1, 2, … per task.
    let costs = [1.5, 0.1 + 0.2, f64::INFINITY, 1e-300];
    let mut db = Database::new();
    for _ in 0..n {
        let cfg = ConfigEntity {
            index: wide(rng),
            values: vec![(text(rng), 8)],
        };
        db.add("conv", &cfg, costs[rng.random_range(0..costs.len())]);
    }
    lines.extend(db.records.into_iter().map(JournalLine::Trial));
    lines
}

fn lifecycle_journal(rng: &mut StdRng, n: usize) -> Vec<LifecycleRecord> {
    let ops = [
        LifecycleOp::Register,
        LifecycleOp::Promote,
        LifecycleOp::Rollback,
    ];
    (0..=n as u64)
        .map(|seq| LifecycleRecord {
            seq,
            op: ops[rng.random_range(0..ops.len())],
            version: ModelVersion {
                model: Model::Mlp,
                weights: wide(rng),
                label: text(rng),
            },
            reason: text(rng),
        })
        .collect()
}

/// Damages a well-formed log file. At most one byte of any line changes:
/// every line must carry its `crc`, so a damaged `crc` key drops the line
/// as malformed, and a checksum promises to catch only small damage: a
/// line changed in several places may collide with another valid line.
fn damage(rng: &mut StdRng, lines: &[String]) -> Vec<u8> {
    let mut damaged: Vec<Vec<u8>> = Vec::new();
    for line in lines {
        let mut line = format!("{line}\n").into_bytes();
        let at = rng.random_range(0..line.len());
        match rng.random_range(0..10) {
            0 | 1 => line[at] ^= rng.random_range(1..256) as u8,
            2 => line.insert(at, 0xFF), // never valid UTF-8
            _ => {}
        }
        damaged.push(line.clone());
        // A crash between append and ack: the writer sends the line again.
        if coin(rng, 0.15) {
            damaged.push(line);
        }
    }
    for _ in 0..rng.random_range(0..3) {
        let mut garbage: Vec<u8> = (0..rng.random_range(0..40))
            .map(|_| rng.next_u64() as u8)
            .collect();
        garbage.push(b'\n');
        damaged.insert(rng.random_range(0..damaged.len() + 1), garbage);
    }
    let mut bytes = damaged.concat();
    if coin(rng, 0.5) {
        let mut cut = rng.random_range(0..bytes.len() + 1);
        if coin(rng, 0.3) {
            // The crash that loses only a record's newline.
            cut = bytes[..cut].iter().rposition(|&b| b == b'\n').unwrap_or(0);
        }
        bytes.truncate(cut);
    }
    bytes
}

/// Lines the reader must account for, by its own definition of blank.
fn non_blank_lines(bytes: &[u8]) -> usize {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .filter(|l| !String::from_utf8_lossy(l).trim().is_empty())
        .count()
}

fn is_subsequence<R: PartialEq>(sub: &[R], of: &[R]) -> bool {
    let mut of = of.iter();
    sub.iter().all(|s| of.any(|o| o == s))
}

/// `journal`'s last record is held back and appended after recovery.
fn check<R: Record + Clone + PartialEq + Debug>(name: &str, seed: u64, mut journal: Vec<R>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fresh = journal.pop().expect("at least one record");
    let written = journal;
    let lines: Vec<String> = written.iter().map(encode_line).collect();
    let bytes = damage(&mut rng, &lines);
    let path = std::env::temp_dir().join(format!(
        "tvm_journal_fuzz_{name}_{}_{seed:016x}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).expect("write");

    let (mut log, recovered, report) = Log::<R>::open(&path).expect("open");
    assert!(
        is_subsequence(&recovered, &written),
        "{name}/{seed}: recovered {recovered:?}\nfrom written {written:?}"
    );
    assert_eq!(report.kept, recovered.len(), "{name}/{seed}: {report:?}");
    assert_eq!(
        report.kept + report.dropped(),
        non_blank_lines(&bytes),
        "{name}/{seed}: {report:?}"
    );
    assert_eq!(report.notes.len(), report.dropped(), "{name}/{seed}");

    // Whatever the damage, the log takes an append at a clean boundary…
    log.append(&fresh).expect("append");
    drop(log);
    let mut expected = recovered;
    expected.push(fresh);
    let (mut log, reopened, report) = Log::<R>::open(&path).expect("reopen");
    assert_eq!(reopened, expected, "{name}/{seed}: {report:?}");
    assert_eq!(report.dropped_truncated, 0, "{name}/{seed}: {report:?}");
    // …and compacts to exactly what it recovered.
    log.compact(&reopened).expect("compact");
    drop(log);
    let (compacted, report) = load::<R>(&path).expect("load");
    assert_eq!(compacted, expected, "{name}/{seed}");
    assert!(report.clean(), "{name}/{seed}: {report:?}");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn damaged_journals_recover_in_order_and_stay_appendable(seed in any::<u64>(), n in 1usize..9) {
        let rng = &mut StdRng::seed_from_u64(seed);
        check("tuner", seed, tuner_journal(rng, n));
        check("lifecycle", seed, lifecycle_journal(rng, n));
    }
}
