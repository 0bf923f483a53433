//! Versioned models and the blue/green rollout registry.
//!
//! A [`ModelVersion`] pins a servable model to a weight-set seed and a
//! human label; its [`fingerprint`](ModelVersion::fingerprint) is the
//! identity the artifact cache keys on and the fault plan corrupts.
//! The [`VersionRegistry`] tracks, per model, one **stable** version
//! (what tenants are served) and at most one **candidate** (the blue/
//! green "green" side, executed only in canary shadow until the health
//! gate promotes it). Every lifecycle transition — register, promote,
//! roll back — is journaled as a [`LifecycleRecord`] in the shared
//! checksummed append-only [`Log`], so a crash mid-promotion recovers to
//! the pre-promotion stable version: torn tails are truncated at a record
//! boundary and replay is a pure fold over the surviving records.

use std::collections::HashMap;
use std::path::Path;

use tvm_autotune::log::{crc32, str_field, u64_field, Field, Log, Record, RecoveryReport};
use tvm_json::Value;
use tvm_sim::mix64;

use crate::{Model, ServeError, ALL_MODELS};

/// One deployable version of a model: the graph plus a weight-set seed.
///
/// Weight seed `0` is the legacy initialization every pre-versioning
/// deployment used, so the baseline version serves bit-identical answers
/// to an unversioned service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelVersion {
    /// Which model this versions.
    pub model: Model,
    /// Weight-set seed mixed into parameter initialization (0 = legacy).
    pub weights: u64,
    /// Human label ("v0", "v1-retuned", …). Part of the fingerprint, so
    /// re-registering the same weights under a new label is a distinct
    /// version with its own artifacts.
    pub label: String,
}

impl ModelVersion {
    /// The implicit version every model starts at: legacy weights, "v0".
    pub fn baseline(model: Model) -> ModelVersion {
        ModelVersion {
            model,
            weights: 0,
            label: "v0".to_string(),
        }
    }

    /// Deterministic 64-bit identity of this version: model, weight
    /// seed, and label. Cache keys and fault-plan corruption target this.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix64(
            self.weights,
            u64::from(crc32(self.model.name().as_bytes())),
            0x7665_7273, // "vers"
        );
        for &b in self.label.as_bytes() {
            h = mix64(h, u64::from(b), 0x6c61_6265); // "labe"
        }
        h
    }
}

/// Canary/rollout policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct RolloutConfig {
    /// Fraction of a model's batches canaried while a candidate exists
    /// (shadow-executed on the candidate version). Clamped to (0, 1].
    pub canary_fraction: f64,
    /// How long (virtual ms) the canary window observes before the gate
    /// may promote.
    pub window_ms: f64,
    /// Minimum canaried batches before the gate may promote.
    pub min_canary_batches: u64,
    /// Candidate-side device failures (pool retry exhaustion, compile
    /// errors) tolerated inside the window before automatic rollback.
    pub max_candidate_failures: u64,
}

impl Default for RolloutConfig {
    fn default() -> RolloutConfig {
        RolloutConfig {
            canary_fraction: 0.25,
            window_ms: 50.0,
            min_canary_batches: 4,
            max_candidate_failures: 2,
        }
    }
}

impl RolloutConfig {
    /// Every N-th batch is a canary batch.
    pub fn canary_every(&self) -> u64 {
        let f = self.canary_fraction.clamp(1e-6, 1.0);
        (1.0 / f).round().max(1.0) as u64
    }
}

/// Rollout/canary counters for one [`Service::run`](crate::Service::run).
#[derive(Clone, Copy, Debug, Default)]
pub struct RolloutStats {
    /// Batches shadow-executed on a candidate version.
    pub canary_batches: u64,
    /// Rows those batches carried.
    pub canary_rows: u64,
    /// Canary rows whose digest disagreed with the health gate's
    /// reference (stable version, or the candidate on a second device).
    pub digest_mismatches: u64,
    /// Candidate-side device/compile failures observed in canary windows.
    pub candidate_failures: u64,
    /// Candidates promoted to stable.
    pub promotions: u64,
    /// Candidates rolled back.
    pub rollbacks: u64,
}

/// What a lifecycle record does to its model's rollout state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleOp {
    /// The version becomes the model's canary candidate.
    Register,
    /// The version becomes stable; the rollout ends. Self-contained, so a
    /// re-journaled promotion replays as an idempotent no-op.
    Promote,
    /// The candidate is discarded; stable is untouched.
    Rollback,
}

impl LifecycleOp {
    const ALL: [LifecycleOp; 3] = [Self::Register, Self::Promote, Self::Rollback];

    fn name(self) -> &'static str {
        match self {
            LifecycleOp::Register => "register",
            LifecycleOp::Promote => "promote",
            LifecycleOp::Rollback => "rollback",
        }
    }
}

/// One journaled lifecycle transition — the registry's line format:
/// `{"crc":…,"label":"v1","model":"mlp64","op":"promote","reason":"","seq":2,"weights":5}`.
#[derive(Clone, Debug, PartialEq)]
pub struct LifecycleRecord {
    /// 1-based transition number within the model; a replayed append
    /// repeats it and is dropped as a duplicate.
    pub seq: u64,
    /// The transition.
    pub op: LifecycleOp,
    /// The version registered, promoted or rolled back.
    pub version: ModelVersion,
    /// Why the candidate was rolled back (empty for other ops).
    pub reason: String,
}

impl Record for LifecycleRecord {
    fn fields(&self) -> Vec<(&'static str, Field)> {
        vec![
            ("model", Field::Str(self.version.model.name().into())),
            ("seq", Field::U64(self.seq)),
            ("op", Field::Str(self.op.name().into())),
            ("weights", Field::U64(self.version.weights)),
            ("label", Field::Str(self.version.label.clone())),
            ("reason", Field::Str(self.reason.clone())),
        ]
    }

    fn decode(line: &Value) -> Result<LifecycleRecord, String> {
        let model = str_field(line, "model")?;
        let op = str_field(line, "op")?;
        Ok(LifecycleRecord {
            seq: u64_field(line, "seq")?,
            op: LifecycleOp::ALL
                .into_iter()
                .find(|o| o.name() == op)
                .ok_or_else(|| format!("unknown lifecycle op `{op}`"))?,
            version: ModelVersion {
                model: Model::from_name(&model)
                    .ok_or_else(|| format!("unknown model `{model}`"))?,
                weights: u64_field(line, "weights")?,
                label: str_field(line, "label")?,
            },
            reason: str_field(line, "reason")?,
        })
    }

    fn dedup_key(&self) -> Option<String> {
        let model = self.version.model.name();
        Some(format!("model `{model}`, transition {}", self.seq))
    }
}

/// The per-model version registry with journaled lifecycle transitions.
pub struct VersionRegistry {
    journal: Option<Log<LifecycleRecord>>,
    stable: HashMap<Model, ModelVersion>,
    candidate: HashMap<Model, ModelVersion>,
    seq: HashMap<Model, u64>,
    recovery: RecoveryReport,
}

impl VersionRegistry {
    /// A purely in-memory registry (no persistence).
    pub fn in_memory() -> VersionRegistry {
        VersionRegistry {
            journal: None,
            stable: baseline_map(),
            candidate: HashMap::new(),
            seq: HashMap::new(),
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens (or creates) a journal-backed registry and replays the
    /// recorded lifecycle. Torn tails, replayed appends and garbage
    /// lines are handled by log recovery; an interrupted promotion (no
    /// promote record survived) replays to the pre-promotion stable.
    pub fn open(path: &Path) -> Result<VersionRegistry, ServeError> {
        let (journal, records, recovery) = Log::open(path)?;
        let mut reg = VersionRegistry {
            journal: Some(journal),
            recovery,
            ..VersionRegistry::in_memory()
        };
        records.into_iter().for_each(|rec| reg.apply(rec));
        Ok(reg)
    }

    /// Folds one transition into the registry state — the single step of
    /// both replay and live operation.
    fn apply(&mut self, rec: LifecycleRecord) {
        let model = rec.version.model;
        let seq = self.seq.entry(model).or_insert(0);
        *seq = rec.seq.max(*seq);
        match rec.op {
            LifecycleOp::Register => {
                self.candidate.insert(model, rec.version);
            }
            LifecycleOp::Promote => {
                self.candidate.remove(&model);
                self.stable.insert(model, rec.version);
            }
            LifecycleOp::Rollback => {
                self.candidate.remove(&model);
            }
        }
    }

    /// Journals a transition, then applies it: a failed append leaves the
    /// registry as it was.
    fn transition(
        &mut self,
        op: LifecycleOp,
        version: ModelVersion,
        reason: &str,
    ) -> Result<(), ServeError> {
        let rec = LifecycleRecord {
            seq: self.seq.get(&version.model).copied().unwrap_or(0) + 1,
            op,
            version,
            reason: reason.to_string(),
        };
        if let Some(j) = self.journal.as_mut() {
            j.append(&rec)?;
        }
        self.apply(rec);
        Ok(())
    }

    /// What journal recovery found on open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The version currently serving tenants.
    pub fn stable(&self, model: Model) -> ModelVersion {
        self.stable
            .get(&model)
            .cloned()
            .unwrap_or_else(|| ModelVersion::baseline(model))
    }

    /// The candidate under canary, if a rollout is in progress.
    pub fn candidate(&self, model: Model) -> Option<&ModelVersion> {
        self.candidate.get(&model)
    }

    /// Registers a rollout candidate. Starting a rollout while one is
    /// already in progress is a typed error, not a silent replacement.
    pub fn register_candidate(
        &mut self,
        model: Model,
        weights: u64,
        label: &str,
    ) -> Result<ModelVersion, ServeError> {
        if let Some(c) = self.candidate.get(&model) {
            return Err(ServeError::Rollout(format!(
                "rollout of `{}` already in progress for {}",
                c.label,
                model.name()
            )));
        }
        let v = ModelVersion {
            model,
            weights,
            label: label.to_string(),
        };
        if v == self.stable(model) {
            return Err(ServeError::Rollout(format!(
                "candidate `{label}` is already the stable version of {}",
                model.name()
            )));
        }
        self.transition(LifecycleOp::Register, v.clone(), "")?;
        Ok(v)
    }

    /// Promotes the candidate to stable (health gate passed).
    pub fn promote(&mut self, model: Model) -> Result<ModelVersion, ServeError> {
        let Some(c) = self.candidate.get(&model).cloned() else {
            return Err(ServeError::Rollout(format!(
                "no candidate to promote for {}",
                model.name()
            )));
        };
        self.transition(LifecycleOp::Promote, c.clone(), "")?;
        Ok(c)
    }

    /// Discards the candidate (health gate failed); tenants keep being
    /// served the stable version they never stopped receiving.
    pub fn rollback(&mut self, model: Model, reason: &str) -> Result<ModelVersion, ServeError> {
        let Some(c) = self.candidate.get(&model).cloned() else {
            return Err(ServeError::Rollout(format!(
                "no candidate to roll back for {}",
                model.name()
            )));
        };
        self.transition(LifecycleOp::Rollback, c, reason)?;
        Ok(self.stable(model))
    }

    /// Forces the lifecycle journal to stable storage.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        if let Some(j) = self.journal.as_mut() {
            j.sync()?;
        }
        Ok(())
    }
}

fn baseline_map() -> HashMap<Model, ModelVersion> {
    ALL_MODELS
        .iter()
        .map(|&m| (m, ModelVersion::baseline(m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_weights_zero() {
        let r = VersionRegistry::in_memory();
        for m in ALL_MODELS {
            assert_eq!(r.stable(m).weights, 0);
            assert!(r.candidate(m).is_none());
        }
    }

    #[test]
    fn fingerprints_separate_versions() {
        let a = ModelVersion::baseline(Model::Mlp);
        let b = ModelVersion {
            weights: 1,
            ..a.clone()
        };
        let c = ModelVersion {
            label: "v1".into(),
            ..a.clone()
        };
        let d = ModelVersion::baseline(Model::TinyCnn);
        let fps = [
            a.fingerprint(),
            b.fingerprint(),
            c.fingerprint(),
            d.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in 0..i {
                assert_ne!(fps[i], fps[j], "versions {i} and {j} collide");
            }
        }
        assert_eq!(
            a.fingerprint(),
            ModelVersion::baseline(Model::Mlp).fingerprint()
        );
    }

    #[test]
    fn lifecycle_register_promote_rollback() {
        let mut r = VersionRegistry::in_memory();
        r.register_candidate(Model::Mlp, 7, "v1").unwrap();
        assert_eq!(r.candidate(Model::Mlp).unwrap().weights, 7);
        // A second concurrent rollout is refused.
        assert!(r.register_candidate(Model::Mlp, 8, "v2").is_err());
        let v = r.promote(Model::Mlp).unwrap();
        assert_eq!(v.weights, 7);
        assert_eq!(r.stable(Model::Mlp).label, "v1");
        assert!(r.candidate(Model::Mlp).is_none());
        // Promote without a candidate is a typed error.
        assert!(r.promote(Model::Mlp).is_err());
        // Next rollout can be rolled back.
        r.register_candidate(Model::Mlp, 9, "v2").unwrap();
        let back = r.rollback(Model::Mlp, "digest mismatch").unwrap();
        assert_eq!(back.weights, 7);
        assert!(r.candidate(Model::Mlp).is_none());
    }

    #[test]
    fn journaled_lifecycle_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("tvm_version_reg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("versions.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut r = VersionRegistry::open(&path).unwrap();
            r.register_candidate(Model::Mlp, 5, "v1").unwrap();
            r.promote(Model::Mlp).unwrap();
            r.register_candidate(Model::TinyCnn, 3, "cnn-v1").unwrap();
            r.sync().unwrap();
        }
        let r = VersionRegistry::open(&path).unwrap();
        assert_eq!(r.stable(Model::Mlp).weights, 5);
        assert_eq!(r.stable(Model::Mlp).label, "v1");
        // The in-flight CNN rollout is still a candidate, not stable.
        assert_eq!(r.stable(Model::TinyCnn).weights, 0);
        assert_eq!(r.candidate(Model::TinyCnn).unwrap().weights, 3);
        let _ = std::fs::remove_file(&path);
    }
}
