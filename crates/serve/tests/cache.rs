//! Artifact-cache crash-safety: the journal survives kills, torn tails,
//! and garbage; a warm restart rebuilds every journaled entry to its
//! recorded fingerprint (no cold build) and serves bit-identical results.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use tvm::compiler::GroupDecision;
use tvm_autotune::log::Log;
use tvm_serve::{
    generate, ArtifactCache, ArtifactRecord, BatchPolicy, Model, ServeOutcome, Service,
    ServiceConfig, TenantConfig, TenantTraffic, TrafficSpec,
};

fn tmp_journal(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "tvm_serve_cache_{name}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn trace(seed: u64) -> Vec<tvm_serve::Request> {
    generate(&TrafficSpec {
        seed,
        horizon_ms: 120.0,
        tenants: vec![TenantTraffic {
            tenant: "t".into(),
            rate_rps: 300.0,
            models: vec![Model::Mlp, Model::TinyCnn],
            bursts: vec![],
            deadline_budget_ms: None,
        }],
    })
}

fn config(path: &Path) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantConfig::new("t").queue_cap(4096)],
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        keep_outputs: false,
        cache_path: Some(path.to_path_buf()),
        ..ServiceConfig::default()
    }
}

fn digests(responses: &[tvm_serve::ResponseRecord]) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = responses
        .iter()
        .filter_map(|r| match &r.outcome {
            ServeOutcome::Ok { digest, .. } => Some((r.id, *digest)),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn warm_restart_replays_decisions_and_serves_identical_bits() {
    let path = tmp_journal("warm");
    let t = trace(404);

    // Cold service: compiles everything, journals decisions.
    let mut cold = Service::new(config(&path)).expect("cold service");
    let (cold_responses, cold_stats) = cold.run(t.clone());
    assert!(
        cold_stats.cache.cold_builds > 0,
        "first run must build cold"
    );
    assert_eq!(cold_stats.cache.warm_builds, 0);
    drop(cold); // "crash": the journal is whatever was flushed per append

    // Restarted service over the same journal: every compile must replay
    // a journaled decision — zero cold builds — and outputs must match.
    let mut warm = Service::new(config(&path)).expect("warm service");
    let (warm_responses, warm_stats) = warm.run(t.clone());
    assert_eq!(
        warm_stats.cache.cold_builds, 0,
        "warm restart recompiled from scratch: {:?}",
        warm_stats.cache
    );
    assert_eq!(
        warm_stats.cache.warm_builds, cold_stats.cache.cold_builds,
        "every cached entry must warm-build exactly once"
    );
    assert_eq!(warm_stats.cache.fingerprint_mismatches, 0);
    assert_eq!(
        digests(&cold_responses),
        digests(&warm_responses),
        "warm restart changed served bits"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_and_garbage_are_dropped_then_deduped() {
    let path = tmp_journal("torn");
    let t = trace(17);

    let mut svc = Service::new(config(&path)).expect("service");
    let (_, stats) = svc.run(t.clone());
    let entries = stats.cache.cold_builds;
    assert!(entries > 0);
    drop(svc);

    // Simulate a crash mid-append: torn half line at the tail, plus an
    // interior garbage line a flaky disk might leave.
    {
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        writeln!(f, "not json at all {{{{").expect("garbage");
        write!(f, "{{\"task\":\"serve/mlp64/b4").expect("torn tail");
    }

    let mut svc2 = Service::new(config(&path)).expect("reopen");
    let report = svc2.cache().recovery().clone();
    assert!(
        report.dropped_truncated >= 1,
        "torn tail not detected: {report:?}"
    );
    assert!(
        report.dropped_corrupt >= 1,
        "garbage line not detected: {report:?}"
    );
    assert_eq!(report.kept as u64, entries, "valid records must survive");

    // And the recovered journal still warm-serves identical results.
    let (r2, s2) = svc2.run(t.clone());
    assert_eq!(s2.cache.cold_builds, 0, "recovery lost cached decisions");
    let mut svc3 = Service::new(ServiceConfig {
        cache_path: None,
        ..config(&path)
    })
    .expect("fresh");
    let (r3, _) = svc3.run(t);
    assert_eq!(
        digests(&r2),
        digests(&r3),
        "recovered cache serves different bits than a fresh compile"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_journal_lines_dedup_to_latest_trial() {
    let path = tmp_journal("dup");
    let t = trace(88);

    let mut svc = Service::new(config(&path)).expect("service");
    let (_, stats) = svc.run(t.clone());
    drop(svc);
    assert!(stats.cache.cold_builds > 0);

    // A crashed writer can replay appends: duplicate the journal onto
    // itself (every (task, trial) now appears twice).
    let body = std::fs::read_to_string(&path).expect("read journal");
    {
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{body}").expect("duplicate");
    }

    let mut svc2 = Service::new(config(&path)).expect("reopen");
    assert!(
        svc2.cache().recovery().dropped_duplicates > 0,
        "duplicates not detected: {:?}",
        svc2.cache().recovery()
    );
    let (_, s2) = svc2.run(t);
    assert_eq!(s2.cache.cold_builds, 0, "dedup broke decision replay");
    assert_eq!(s2.cache.fingerprint_mismatches, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_fingerprint_falls_back_to_cold_build_and_self_heals() {
    let path = tmp_journal("stale");
    let target = tvm::target::arm_a53();

    // Journal one real build, then a stale entry whose decisions decode
    // but whose fingerprint can't match any real build.
    {
        let mut cache = ArtifactCache::open(&path).expect("open");
        let m = cache
            .get_or_build(Model::Mlp, 2, &target, None, 0)
            .expect("build");
        drop(m);
        cache.sync().expect("sync");
    }
    // Re-journal the entry under a higher generation with a fingerprint
    // no real build can match, through the log itself so the checksum
    // stays valid (an "honest" stale entry, e.g. from an older compiler
    // version).
    {
        let (mut log, records, _) = Log::<ArtifactRecord>::open(&path).expect("journal");
        let [built] = &records[..] else {
            panic!("one record expected, got {records:?}");
        };
        log.append(&ArtifactRecord {
            generation: 99,
            fingerprint: 0xDEAD_BEEF,
            decisions: vec![GroupDecision::Attach],
            total_ms: 1.0,
            ..built.clone()
        })
        .expect("append stale");
    }

    let mut cache = ArtifactCache::open(&path).expect("reopen");
    let m = cache
        .get_or_build(Model::Mlp, 2, &target, None, 0)
        .expect("rebuild");
    drop(m);
    let stats = cache.stats();
    assert_eq!(
        stats.fingerprint_mismatches, 1,
        "stale entry must be detected"
    );
    assert_eq!(
        stats.cold_builds, 1,
        "mismatch must fall back to cold build"
    );
    // The cold build re-journaled under generation 100; a third open
    // warm-builds.
    drop(cache);
    let mut cache2 = ArtifactCache::open(&path).expect("third open");
    let _ = cache2
        .get_or_build(Model::Mlp, 2, &target, None, 0)
        .expect("warm");
    assert_eq!(cache2.stats().warm_builds, 1, "cache did not self-heal");
    assert_eq!(cache2.stats().cold_builds, 0);
    let _ = std::fs::remove_file(&path);
}
