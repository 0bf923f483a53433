//! Blue/green rollout campaign suite: canary health gates, corrupt-
//! candidate rollback with zero wrong answers, journaled lifecycle
//! crash-safety, and warm-restart recovery.
//!
//! The central safety claim: while a candidate exists, tenants are served
//! the *stable* version's bits — the candidate only ever executes in
//! canary shadow. A corrupted candidate therefore rolls back without a
//! single wrong answer reaching a tenant, and the whole campaign is a
//! deterministic function of the seed.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

use tvm_autotune::log::Log;
use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, LifecycleOp, LifecycleRecord, Model, ModelVersion,
    ResponseRecord, RolloutConfig, Service, ServiceConfig, ServiceStats, TenantConfig,
    TenantTraffic, TrafficSpec, VersionRegistry,
};
use tvm_sim::FaultPlan;

fn tmp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "tvm_serve_rollout_{name}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Steady single-model traffic: enough batches for several canary
/// windows, light enough to never shed.
fn trace(seed: u64) -> Vec<tvm_serve::Request> {
    generate(&TrafficSpec {
        seed,
        horizon_ms: 300.0,
        tenants: vec![TenantTraffic {
            tenant: "t".into(),
            rate_rps: 400.0,
            models: vec![Model::Mlp],
            bursts: vec![],
            deadline_budget_ms: None,
        }],
    })
}

fn config(version_path: Option<PathBuf>, faults: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantConfig::new("t").queue_cap(4096)],
        admission: AdmissionConfig {
            max_outstanding: 1 << 14,
            ..AdmissionConfig::default()
        },
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 1.0,
            ..BatchPolicy::default()
        },
        devices: 2,
        faults,
        version_path,
        rollout: RolloutConfig {
            canary_fraction: 1.0,
            window_ms: 20.0,
            min_canary_batches: 3,
            max_candidate_failures: 2,
        },
        ..ServiceConfig::default()
    }
}

/// id → digest of every completed request; panics on anything that is
/// not a clean completion (these traces are sized to never shed).
fn ok_digests(responses: &[ResponseRecord]) -> BTreeMap<u64, u32> {
    responses
        .iter()
        .map(|r| match &r.outcome {
            tvm_serve::ServeOutcome::Ok { digest, .. } => (r.id, *digest),
            other => panic!("request {} did not complete: {other:?}", r.id),
        })
        .collect()
}

/// The fault-free, rollout-free reference digests for a trace.
fn oracle(seed: u64) -> BTreeMap<u64, u32> {
    let mut svc = Service::new(config(None, FaultPlan::none())).expect("oracle service");
    let (responses, _) = svc.run(trace(seed));
    ok_digests(&responses)
}

fn corrupt_campaign(seed: u64) -> (Vec<ResponseRecord>, ServiceStats) {
    // A bit-compatible candidate (same weights, new label — a re-tuned
    // artifact) whose outputs a bad push corrupts fleet-wide.
    let cand = ModelVersion {
        model: Model::Mlp,
        weights: 0,
        label: "v1-retuned".into(),
    };
    let mut faults = FaultPlan::none();
    faults.corrupt_version(cand.fingerprint(), seed ^ 0x0BAD);
    let mut svc = Service::new(config(None, faults)).expect("service");
    svc.begin_rollout(Model::Mlp, 0, "v1-retuned")
        .expect("rollout");
    svc.run(trace(seed))
}

#[test]
fn corrupt_candidate_rolls_back_with_zero_wrong_answers() {
    let reference = oracle(11);
    let (responses, stats) = corrupt_campaign(11);

    // The gate fired: at least one canary batch observed the corruption
    // and the candidate was rolled back, never promoted.
    assert!(stats.rollout.canary_batches > 0, "no canary batches ran");
    assert!(
        stats.rollout.digest_mismatches > 0,
        "corruption never observed: {:?}",
        stats.rollout
    );
    assert_eq!(stats.rollout.rollbacks, 1, "rollback did not fire");
    assert_eq!(stats.rollout.promotions, 0, "corrupt candidate promoted");

    // The safety property: every answer a tenant received is the stable
    // version's bits — zero wrong answers, before, during, and after the
    // canary window.
    let got = ok_digests(&responses);
    assert_eq!(got.len(), reference.len());
    for (id, digest) in &reference {
        assert_eq!(
            got[id], *digest,
            "request {id} received corrupted candidate bits"
        );
    }
}

#[test]
fn corrupt_candidate_rollback_is_deterministic() {
    let a = corrupt_campaign(23);
    let b = corrupt_campaign(23);
    let fp = |run: &(Vec<ResponseRecord>, ServiceStats)| -> Vec<(u64, u64)> {
        run.0.iter().map(|r| (r.id, r.done_ms.to_bits())).collect()
    };
    assert_eq!(fp(&a), fp(&b), "campaign not reproducible");
    assert_eq!(a.1.rollout.rollbacks, b.1.rollout.rollbacks);
    assert_eq!(a.1.rollout.canary_batches, b.1.rollout.canary_batches);
    assert_eq!(a.1.rollout.digest_mismatches, b.1.rollout.digest_mismatches);
}

#[test]
fn healthy_candidate_promotes_and_persists() {
    let path = tmp_path("promote");
    let reference = oracle(42);
    let mut svc = Service::new(config(Some(path.clone()), FaultPlan::none())).expect("service");
    svc.begin_rollout(Model::Mlp, 0, "v1-retuned")
        .expect("rollout");
    let (responses, stats) = svc.run(trace(42));

    assert_eq!(
        stats.rollout.promotions, 1,
        "healthy candidate must promote"
    );
    assert_eq!(stats.rollout.rollbacks, 0);
    assert_eq!(stats.rollout.digest_mismatches, 0);
    assert!(stats.rollout.canary_batches >= 3);
    assert_eq!(svc.versions().stable(Model::Mlp).label, "v1-retuned");
    assert!(svc.versions().candidate(Model::Mlp).is_none());

    // Bit-compatible rollout: the served answers never changed.
    let got = ok_digests(&responses);
    for (id, digest) in &reference {
        assert_eq!(got[id], *digest, "request {id} changed bits");
    }
    drop(svc);

    // The promotion survives a restart.
    let reopened = Service::new(config(Some(path.clone()), FaultPlan::none())).expect("reopen");
    assert_eq!(reopened.versions().stable(Model::Mlp).label, "v1-retuned");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn weight_changing_rollout_switches_bits_only_after_promotion() {
    let reference = oracle(7);
    let mut svc = Service::new(config(None, FaultPlan::none())).expect("service");
    svc.begin_rollout(Model::Mlp, 9, "v2-weights")
        .expect("rollout");
    let (responses, stats) = svc.run(trace(7));

    assert_eq!(stats.rollout.promotions, 1);
    assert_eq!(svc.versions().stable(Model::Mlp).weights, 9);
    let got = ok_digests(&responses);
    let same = reference.iter().filter(|(id, d)| got[id] == **d).count();
    let changed = reference.len() - same;
    // Before promotion the stable (old-weight) bits are served; after
    // promotion the new weights legitimately change the answers.
    assert!(same > 0, "promotion happened before any stable answer");
    assert!(changed > 0, "promotion never took effect");
}

#[test]
fn retired_versions_leave_the_artifact_cache() {
    // A healthy weight change promotes (the old stable retires), then a
    // corrupt re-label of the new stable rolls back (the candidate
    // retires). Each cache entry holds an executor with its version's
    // weights, so only the current stable's entries may remain.
    let bad = ModelVersion {
        model: Model::Mlp,
        weights: 9,
        label: "v3-bad".into(),
    };
    let mut faults = FaultPlan::none();
    faults.corrupt_version(bad.fingerprint(), 0x0BAD);
    let mut svc = Service::new(config(None, faults)).expect("service");
    let only_stable = |svc: &Service| {
        let stable = svc.versions().stable(Model::Mlp).fingerprint();
        let keys: Vec<_> = svc.cache().keys().collect();
        assert!(!keys.is_empty(), "the stable version has no entries");
        for (model, bucket, fp) in keys {
            assert_eq!(model, Model::Mlp);
            assert_eq!(fp, stable, "bucket {bucket} of a retired version is cached");
        }
    };

    svc.begin_rollout(Model::Mlp, 9, "v2-weights")
        .expect("rollout");
    let first = trace(7);
    let (_, stats) = svc.run(first.clone());
    assert_eq!(stats.rollout.promotions, 1);
    assert_eq!(svc.versions().stable(Model::Mlp).label, "v2-weights");
    only_stable(&svc);

    svc.begin_rollout(Model::Mlp, 9, "v3-bad").expect("rollout");
    let later: Vec<_> = first
        .iter()
        .map(|r| tvm_serve::Request {
            id: r.id + first.len() as u64,
            arrival_ms: r.arrival_ms + 400.0,
            ..r.clone()
        })
        .collect();
    let (_, stats) = svc.run(later);
    assert_eq!(stats.rollout.rollbacks, 1);
    assert_eq!(svc.versions().stable(Model::Mlp).label, "v2-weights");
    only_stable(&svc);
}

#[test]
fn per_replica_corrupt_candidate_is_refuted_by_cross_device_canary() {
    // New weights mean stable bits can't gate the candidate; the canary
    // runs the candidate on both devices instead. Corrupting it on one
    // replica must still trip the gate.
    let cand = ModelVersion {
        model: Model::Mlp,
        weights: 5,
        label: "v2".into(),
    };
    let mut faults = FaultPlan::none();
    faults.corrupt_version_on(cand.fingerprint(), 0, 1234);
    let mut svc = Service::new(config(None, faults)).expect("service");
    svc.begin_rollout(Model::Mlp, 5, "v2").expect("rollout");
    let (responses, stats) = svc.run(trace(99));

    assert!(
        stats.rollout.digest_mismatches > 0,
        "per-replica corruption never observed: {:?}",
        stats.rollout
    );
    assert_eq!(stats.rollout.rollbacks, 1, "rollback did not fire");
    assert_eq!(stats.rollout.promotions, 0);
    // Tenants only ever saw the (uncorrupted) stable version.
    let got = ok_digests(&responses);
    let reference = oracle(99);
    for (id, digest) in &reference {
        assert_eq!(got[id], *digest, "request {id} served candidate bits");
    }
}

#[test]
fn warm_restart_after_rollback_resumes_stable() {
    let path = tmp_path("rollback_restart");
    let cand = ModelVersion {
        model: Model::Mlp,
        weights: 0,
        label: "v1-bad".into(),
    };
    let mut faults = FaultPlan::none();
    faults.corrupt_version(cand.fingerprint(), 555);
    let mut svc = Service::new(config(Some(path.clone()), faults)).expect("service");
    svc.begin_rollout(Model::Mlp, 0, "v1-bad").expect("rollout");
    let (_, stats) = svc.run(trace(3));
    assert_eq!(stats.rollout.rollbacks, 1);
    drop(svc); // crash after the (synced) rollback record

    // The restarted service resumes on the stable version with no
    // candidate, and serves oracle bits.
    let mut warm =
        Service::new(config(Some(path.clone()), FaultPlan::none())).expect("warm restart");
    assert_eq!(warm.versions().stable(Model::Mlp).label, "v0");
    assert!(warm.versions().candidate(Model::Mlp).is_none());
    let (responses, _) = warm.run(trace(3));
    let got = ok_digests(&responses);
    for (id, digest) in &oracle(3) {
        assert_eq!(got[id], *digest, "request {id} wrong after restart");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_mid_promotion_recovers_to_pre_promotion_stable() {
    let path = tmp_path("torn");
    {
        let mut reg = VersionRegistry::open(&path).expect("open");
        reg.register_candidate(Model::Mlp, 5, "v1")
            .expect("register");
        reg.sync().expect("sync");
        reg.promote(Model::Mlp).expect("promote");
        reg.sync().expect("sync");
    }
    // Power cut mid-append: the promote record's tail never hit disk.
    let len = std::fs::metadata(&path).expect("meta").len();
    let f = OpenOptions::new().write(true).open(&path).expect("open");
    f.set_len(len - 5).expect("truncate");
    drop(f);

    let reg = VersionRegistry::open(&path).expect("reopen");
    assert!(
        reg.recovery().dropped_truncated >= 1,
        "torn tail not detected: {:?}",
        reg.recovery()
    );
    // The interrupted promotion replays to the pre-promotion state: the
    // old stable serves, the candidate is still a candidate.
    assert_eq!(reg.stable(Model::Mlp).weights, 0);
    assert_eq!(reg.stable(Model::Mlp).label, "v0");
    assert_eq!(
        reg.candidate(Model::Mlp).map(|c| c.weights),
        Some(5),
        "candidate lost with the torn promotion"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_promotion_records_replay_idempotently() {
    let path = tmp_path("dup");
    {
        let mut reg = VersionRegistry::open(&path).expect("open");
        reg.register_candidate(Model::Mlp, 5, "v1")
            .expect("register");
        reg.promote(Model::Mlp).expect("promote");
        reg.sync().expect("sync");
    }
    // A crashed writer replays its appends: every line now appears twice.
    let body = std::fs::read_to_string(&path).expect("read");
    {
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{body}").expect("duplicate");
    }
    let reg = VersionRegistry::open(&path).expect("reopen");
    assert!(reg.recovery().dropped_duplicates > 0);
    assert_eq!(reg.stable(Model::Mlp).weights, 5);
    assert!(reg.candidate(Model::Mlp).is_none());

    // A *re-journaled* promotion under a fresh sequence number (not a byte-level
    // duplicate) must also be an idempotent no-op on replay.
    {
        let (mut log, _, _) = Log::<LifecycleRecord>::open(&path).expect("journal");
        log.append(&LifecycleRecord {
            seq: 99,
            op: LifecycleOp::Promote,
            version: ModelVersion {
                model: Model::Mlp,
                weights: 5,
                label: "v1".into(),
            },
            reason: String::new(),
        })
        .expect("append");
    }
    let reg = VersionRegistry::open(&path).expect("third open");
    assert_eq!(reg.stable(Model::Mlp).weights, 5);
    assert_eq!(reg.stable(Model::Mlp).label, "v1");
    assert!(reg.candidate(Model::Mlp).is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn weights_above_i64_max_survive_a_restart() {
    // JSON integers stop at i64::MAX; a weight seed above it used to be
    // written as a float the reader refused, so the promoted version
    // silently un-promoted on restart.
    let path = tmp_path("big_weights");
    let weights = u64::MAX - 5;
    {
        let mut reg = VersionRegistry::open(&path).expect("open");
        reg.register_candidate(Model::Mlp, weights, "v1")
            .expect("register");
        reg.promote(Model::Mlp).expect("promote");
        reg.sync().expect("sync");
    }
    let reg = VersionRegistry::open(&path).expect("reopen");
    assert!(reg.recovery().clean(), "{:?}", reg.recovery());
    assert_eq!(reg.recovery().kept, 2);
    assert_eq!(reg.stable(Model::Mlp).weights, weights);
    assert_eq!(reg.stable(Model::Mlp).label, "v1");
    assert!(reg.candidate(Model::Mlp).is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn labels_and_reasons_round_trip_verbatim() {
    // `:` and `|` were the old record encoding's delimiters and were
    // rewritten to `_`; a typed record carries any text as it is.
    let path = tmp_path("label");
    let label = "rc:1|hotfix";
    let in_memory = VersionRegistry::in_memory()
        .register_candidate(Model::Mlp, 3, label)
        .expect("register");
    assert_eq!(in_memory.label, label);
    {
        let mut reg = VersionRegistry::open(&path).expect("open");
        let v = reg
            .register_candidate(Model::Mlp, 3, label)
            .expect("register");
        assert_eq!(v, in_memory);
        reg.rollback(Model::Mlp, "digest|mismatch: row 3 \"bad\"")
            .expect("rollback");
        reg.register_candidate(Model::Mlp, 3, label)
            .expect("register again");
        reg.sync().expect("sync");
    }
    let reg = VersionRegistry::open(&path).expect("reopen");
    assert!(reg.recovery().clean(), "{:?}", reg.recovery());
    let reopened = reg.candidate(Model::Mlp).expect("candidate survives");
    assert_eq!(reopened, &in_memory);
    assert_eq!(reopened.fingerprint(), in_memory.fingerprint());
    let (records, _) = tvm_autotune::log::load::<LifecycleRecord>(&path).expect("load");
    assert_eq!(records[1].op, LifecycleOp::Rollback);
    assert_eq!(records[1].reason, "digest|mismatch: row 3 \"bad\"");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_journal_lines_are_dropped_not_fatal() {
    let path = tmp_path("garbage");
    {
        let mut reg = VersionRegistry::open(&path).expect("open");
        reg.register_candidate(Model::Mlp, 7, "v1")
            .expect("register");
        reg.sync().expect("sync");
    }
    {
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        writeln!(f, "not json at all {{{{").expect("garbage");
    }
    let reg = VersionRegistry::open(&path).expect("reopen");
    assert!(
        reg.recovery().dropped_corrupt >= 1,
        "garbage not detected: {:?}",
        reg.recovery()
    );
    assert_eq!(reg.candidate(Model::Mlp).map(|c| c.weights), Some(7));
    assert_eq!(reg.stable(Model::Mlp).label, "v0");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_rollout_is_refused_per_model_not_globally() {
    let mut svc = Service::new(config(None, FaultPlan::none())).expect("service");
    svc.begin_rollout(Model::Mlp, 1, "a").expect("first");
    assert!(svc.begin_rollout(Model::Mlp, 2, "b").is_err());
    // A different model's rollout is independent.
    svc.begin_rollout(Model::TinyCnn, 1, "a")
        .expect("other model");
}
