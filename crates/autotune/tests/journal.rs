//! Crash-safety tier for the tuning journal: every corruption mode the
//! satellite list names — truncated final line, garbage bytes, checksum
//! mismatch, duplicate records — recovers the valid prefix and itemizes
//! what was dropped; compaction is atomic and idempotent.

use std::path::PathBuf;

use tvm_autotune::db::{crc32, Journal, JournalLine, LineError};
use tvm_autotune::{ConfigSpace, Database, DbRecord};

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn sample_lines(n: usize) -> Vec<String> {
    let mut space = ConfigSpace::new();
    space.define_knob("k", &[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut db = Database::new();
    for i in 0..n {
        db.add("conv", &space.get(i as u64), 1.0 + i as f64);
    }
    db.records.iter().map(|r| r.to_json()).collect()
}

#[test]
fn truncated_final_line_recovers_prefix() {
    let path = tmp("tvm_rs_journal_trunc.jsonl");
    let lines = sample_lines(4);
    let mut text = lines[..3].join("\n") + "\n";
    text.push_str(&lines[3][..lines[3].len() / 2]); // torn write, no newline
    std::fs::write(&path, &text).expect("write");

    let (db, report) = Database::load_with_report(&path).expect("load");
    assert_eq!(db.records.len(), 3, "valid prefix recovered");
    assert_eq!(report.kept, 3);
    assert_eq!(report.dropped_truncated, 1, "{report:?}");
    assert_eq!(report.dropped(), 1);
    assert!(report.notes[0].contains("truncated"), "{:?}", report.notes);

    // Journal::open truncates the torn tail so appends land cleanly.
    let before = std::fs::metadata(&path).expect("meta").len();
    let (mut j, _) = Journal::open(&path).expect("open");
    let after = std::fs::metadata(&path).expect("meta").len();
    assert!(after < before, "torn tail physically removed");
    j.append(DbRecord {
        task: "conv".into(),
        trial: 4,
        config_index: 7,
        config: "k=8".into(),
        cost_ms: 9.0,
    })
    .expect("append");
    drop(j);
    let (db2, report2) = Database::load_with_report(&path).expect("reload");
    assert!(report2.clean(), "{report2:?}");
    assert_eq!(db2.records.len(), 4);
    assert_eq!(db2.records[3].cost_ms, 9.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_bytes_are_dropped_and_reported() {
    let path = tmp("tvm_rs_journal_garbage.jsonl");
    let lines = sample_lines(3);
    let text = format!(
        "{}\n\u{0}\u{1}\u{2}not json at all\n{}\n{}\n",
        lines[0], lines[1], lines[2]
    );
    std::fs::write(&path, &text).expect("write");
    let (db, report) = Database::load_with_report(&path).expect("load");
    assert_eq!(db.records.len(), 3, "records around the garbage survive");
    assert_eq!(report.dropped_corrupt, 1, "{report:?}");
    // Interior damage: opening must NOT truncate away the valid records
    // that follow it.
    let (j, _) = Journal::open(&path).expect("open");
    assert_eq!(j.db.records.len(), 3);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checksum_mismatch_is_detected_and_dropped() {
    let path = tmp("tvm_rs_journal_crc.jsonl");
    let lines = sample_lines(3);
    // Flip the payload of the middle record without updating its crc.
    let tampered = lines[1].replace("2.0", "0.002");
    assert_ne!(tampered, lines[1], "test must actually tamper");
    assert_eq!(JournalLine::parse(&tampered), Err(LineError::Checksum));
    let text = format!("{}\n{}\n{}\n", lines[0], tampered, lines[2]);
    std::fs::write(&path, &text).expect("write");
    let (db, report) = Database::load_with_report(&path).expect("load");
    assert_eq!(db.records.len(), 2);
    assert_eq!(report.dropped_checksum, 1, "{report:?}");
    assert!(
        report.notes.iter().any(|n| n.contains("checksum")),
        "{:?}",
        report.notes
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trial_line_without_crc_is_dropped_as_malformed() {
    let path = tmp("tvm_rs_journal_no_crc.jsonl");
    let lines = sample_lines(3);
    // A damaged `crc` key leaves a line that is otherwise a whole trial.
    let renamed = lines[1].replace("\"crc\"", "\"crx\"");
    assert_ne!(renamed, lines[1], "test must actually rename the key");
    assert!(
        matches!(JournalLine::parse(&renamed), Err(LineError::Malformed(_))),
        "{:?}",
        JournalLine::parse(&renamed)
    );
    let text = format!("{}\n{}\n{}\n", lines[0], renamed, lines[2]);
    std::fs::write(&path, &text).expect("write");
    let (db, report) = Database::load_with_report(&path).expect("load");
    assert_eq!(db.records.len(), 2);
    assert_eq!(report.dropped_corrupt, 1, "{report:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_records_are_deduplicated_and_reported() {
    let path = tmp("tvm_rs_journal_dup.jsonl");
    let lines = sample_lines(3);
    // Record 2 written twice (e.g. a crash between append and ack).
    let text = format!("{}\n{}\n{}\n{}\n", lines[0], lines[1], lines[1], lines[2]);
    std::fs::write(&path, &text).expect("write");
    let (db, report) = Database::load_with_report(&path).expect("load");
    assert_eq!(db.records.len(), 3, "one copy of each trial kept");
    assert_eq!(report.dropped_duplicates, 1, "{report:?}");
    assert!(
        report.notes.iter().any(|n| n.contains("duplicate")),
        "{:?}",
        report.notes
    );
    // Compaction rewrites the journal without the duplicate.
    let (mut j, _) = Journal::open(&path).expect("open");
    j.compact().expect("compact");
    drop(j);
    let (db2, report2) = Database::load_with_report(&path).expect("reload");
    assert!(report2.clean(), "{report2:?}");
    assert_eq!(db2.records.len(), 3);
    assert!(
        !std::fs::read_dir(std::env::temp_dir())
            .expect("dir")
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy() == "tvm_rs_journal_dup.jsonl.tmp"),
        "compaction leaves no temp file behind"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_corruption_at_once() {
    let path = tmp("tvm_rs_journal_mixed.jsonl");
    let lines = sample_lines(4);
    let tampered = lines[2].replace("3.0", "30.0");
    let mut text = format!(
        "{}\n<<garbage>>\n{}\n{}\n{}\n{}\n",
        lines[0], lines[1], lines[1], tampered, lines[3]
    );
    text.push_str(&lines[0][..10]); // torn tail
    std::fs::write(&path, &text).expect("write");
    let (db, report) = Database::load_with_report(&path).expect("load");
    assert_eq!(db.records.len(), 3, "records 1, 2, 4 survive");
    assert_eq!(report.kept, 3);
    assert_eq!(report.dropped_corrupt, 1);
    assert_eq!(report.dropped_duplicates, 1);
    assert_eq!(report.dropped_checksum, 1);
    assert_eq!(report.dropped_truncated, 1);
    assert_eq!(report.dropped(), 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn meta_lines_round_trip_and_are_checksummed() {
    let path = tmp("tvm_rs_journal_meta.jsonl");
    {
        let mut j = Journal::create(&path).expect("create");
        j.append_meta("conv", 42).expect("meta");
        j.append_meta("conv", 43).expect("meta"); // first writer wins
        j.append(DbRecord {
            task: "conv".into(),
            trial: 1,
            config_index: 0,
            config: "k=1".into(),
            cost_ms: 1.0,
        })
        .expect("append");
    }
    let (j, report) = Journal::open(&path).expect("open");
    assert!(report.clean(), "{report:?}");
    assert_eq!(j.meta_seed("conv"), Some(42));
    assert_eq!(j.meta_seed("other"), None);
    assert_eq!(j.trials_for("conv").len(), 1);
    // A tampered meta line fails its checksum.
    let text = std::fs::read_to_string(&path).expect("read");
    let bad = text.replacen("42", "41", 1);
    let meta_line = bad.lines().next().expect("meta line");
    assert_eq!(JournalLine::parse(meta_line), Err(LineError::Checksum));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crc32_matches_known_vectors() {
    // IEEE CRC-32 check value for "123456789".
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn atomic_save_replaces_not_mixes() {
    let path = tmp("tvm_rs_journal_atomic.jsonl");
    let mut space = ConfigSpace::new();
    space.define_knob("k", &[1, 2]);
    let mut db = Database::new();
    db.add("t", &space.get(0), 1.0);
    db.save(&path).expect("save");
    let mut db2 = Database::new();
    db2.add("t", &space.get(1), 2.0);
    db2.save(&path).expect("overwrite");
    let (loaded, report) = Database::load_with_report(&path).expect("load");
    assert!(report.clean());
    assert_eq!(loaded.records.len(), 1, "old contents fully replaced");
    assert_eq!(loaded.records[0].cost_ms, 2.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seed_above_i64_max_is_journaled_and_guards_the_resume() {
    // JSON integers stop at i64::MAX; a seed above it used to be written
    // as a float the reader refused, so the meta line was lost and a
    // resume under any other seed went through.
    use tvm_autotune::{tune_with, ConfigEntity, TuneOptions, TunerKind, TuningTask};
    use tvm_te::{compute, create_schedule, lower, placeholder};

    let mut space = ConfigSpace::new();
    space.define_split("tile", 64, 64);
    let builder = |cfg: &ConfigEntity| {
        let a = placeholder(&[64], tvm_ir::DType::float32(), "A");
        let b = compute(&[64], "B", |i| a.at(&[i[0].clone()]) + 1);
        let mut s = create_schedule(std::slice::from_ref(&b));
        s.split(&b, &b.op.axes()[0], cfg.get("tile"))?;
        lower(&s, &[a.clone(), b], "inc")
    };
    let task = TuningTask {
        name: "inc64".into(),
        space,
        builder: std::sync::Arc::new(builder),
        target: tvm_sim::arm_a53(),
        sim_opts: Default::default(),
    };
    let opts = TuneOptions {
        n_trials: 4,
        seed: u64::MAX,
        ..Default::default()
    };
    let path = tmp("tvm_rs_journal_big_seed.jsonl");
    {
        let mut j = Journal::create(&path).expect("create");
        tune_with(&task, &opts, TunerKind::Random, None, Some(&mut j)).expect("tunes");
    }
    let (mut j, report) = Journal::open(&path).expect("open");
    assert!(report.clean(), "{report:?}");
    assert_eq!(j.meta_seed("inc64"), Some(u64::MAX));
    assert_eq!(j.trials_for("inc64").len(), 4);
    let other = TuneOptions { seed: 1, ..opts };
    let err = tune_with(&task, &other, TunerKind::Random, None, Some(&mut j))
        .expect_err("a journal written under another seed must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_file(&path);
}
