//! Compiled-artifact cache with a crash-safe journal.
//!
//! Serving compiles each model once per (batch bucket, target, schedule
//! hash) and keeps the [`Module`] in memory behind an [`Arc`] so every
//! batch shares it. What survives a restart is the journal of what was
//! built: one [`ArtifactRecord`] per compile — its fingerprint and
//! per-group report — in the shared checksummed append-only [`Log`] (torn
//! tails truncated, replayed appends dropped). A build is a pure function
//! of graph, target and tuning state, so a warm start rebuilds the module
//! and checks it against the journaled fingerprint: on mismatch (a stale
//! journal, a changed compiler) the entry counts as a cold build and is
//! re-journaled under the next generation (the highest generation per key
//! wins).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use tvm::compiler::{build_with_report, BuildOptions, GroupDecision};
use tvm::target::Target;
use tvm_autotune::log::{
    crc32, f64_field, str_field, u64_field, Field, Log, Record, RecoveryReport,
};
use tvm_autotune::Database;
use tvm_json::Value;
use tvm_runtime::Module;

use crate::{Model, ServeError};

/// Cache traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Served from the in-memory module map.
    pub hits: u64,
    /// Compiles with no usable journal entry.
    pub cold_builds: u64,
    /// Compiles that reproduced their journaled fingerprint.
    pub warm_builds: u64,
    /// Journal entries whose fingerprint no longer matched the rebuild.
    pub fingerprint_mismatches: u64,
    /// Warm rebuilds rejected by the graph-layer static verifiers.
    pub verify_rejects: u64,
}

/// Hash of the tuning state a compile depends on: the best config index
/// per task in the database. Two databases that would steer the compiler
/// identically hash identically; no database hashes to 0.
pub fn schedule_hash(db: Option<&Database>) -> u32 {
    let Some(db) = db else { return 0 };
    let mut tasks: Vec<&str> = db.records.iter().map(|r| r.task.as_str()).collect();
    tasks.sort_unstable();
    tasks.dedup();
    let mut canon = String::new();
    for t in tasks {
        if let Some(best) = db.best(t) {
            canon.push_str(t);
            canon.push('=');
            canon.push_str(&best.config_index.to_string());
            canon.push('\n');
        }
    }
    crc32(canon.as_bytes())
}

fn encode_decisions(ds: &[GroupDecision]) -> String {
    ds.iter()
        .map(|d| match d {
            GroupDecision::Attach => 'A',
            GroupDecision::TemplateRoot => 'T',
        })
        .collect()
}

fn decode_decisions(s: &str) -> Option<Vec<GroupDecision>> {
    s.chars()
        .map(|c| match c {
            'A' => Some(GroupDecision::Attach),
            'T' => Some(GroupDecision::TemplateRoot),
            _ => None,
        })
        .collect()
}

/// Deterministic fingerprint of a compiled module: kernel names, their
/// simulated costs, the decision string, and the target. Identical
/// compiles fingerprint identically; a schedule change does not.
fn fingerprint(module: &Module, decisions: &[GroupDecision]) -> u32 {
    let mut canon = String::new();
    canon.push_str(&module.target_name);
    canon.push('|');
    canon.push_str(&encode_decisions(decisions));
    for k in &module.kernels {
        canon.push('|');
        canon.push_str(&k.name);
        canon.push(':');
        canon.push_str(&format!("{:.9e}", k.est_ms));
    }
    crc32(canon.as_bytes())
}

/// One journaled compile — the cache's line format:
/// `{"crc":…,"decisions":"ATTA","fingerprint":2868759204,"generation":1,"key":"serve/mlp64/b4/…","total_ms":0.0123}`.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactRecord {
    /// The compile's [`ArtifactCache::key`].
    pub key: String,
    /// 1-based rebuild count of this key; the highest generation is the
    /// entry a warm start checks its rebuild against.
    pub generation: u64,
    /// [`fingerprint`] of the module that was built.
    pub fingerprint: u32,
    /// The build's [`BuildReport::decisions`](tvm::BuildReport), one per
    /// fused group (`T` only in journals older compilers wrote).
    pub decisions: Vec<GroupDecision>,
    /// The module's simulated latency (informational).
    pub total_ms: f64,
}

impl Record for ArtifactRecord {
    fn fields(&self) -> Vec<(&'static str, Field)> {
        vec![
            ("key", Field::Str(self.key.clone())),
            ("generation", Field::U64(self.generation)),
            ("fingerprint", Field::U64(u64::from(self.fingerprint))),
            ("decisions", Field::Str(encode_decisions(&self.decisions))),
            ("total_ms", Field::F64(self.total_ms)),
        ]
    }

    fn decode(line: &Value) -> Result<ArtifactRecord, String> {
        Ok(ArtifactRecord {
            key: str_field(line, "key")?,
            generation: u64_field(line, "generation")?,
            fingerprint: u32::try_from(u64_field(line, "fingerprint")?)
                .map_err(|_| "fingerprint must fit 32 bits")?,
            decisions: decode_decisions(&str_field(line, "decisions")?)
                .ok_or("decisions must be a string of `A`/`T`")?,
            total_ms: f64_field(line, "total_ms")?,
        })
    }

    fn dedup_key(&self) -> Option<String> {
        Some(format!(
            "key `{}`, generation {}",
            self.key, self.generation
        ))
    }
}

/// The compiled-artifact cache: in-memory `Arc<Module>` map plus an
/// optional on-disk journal.
pub struct ArtifactCache {
    journal: Option<Log<ArtifactRecord>>,
    /// The newest journaled entry per key.
    journaled: HashMap<String, ArtifactRecord>,
    modules: HashMap<String, Arc<Module>>,
    stats: CacheStats,
    recovery: RecoveryReport,
}

impl ArtifactCache {
    /// A purely in-memory cache (no persistence).
    pub fn in_memory() -> ArtifactCache {
        ArtifactCache {
            journal: None,
            journaled: HashMap::new(),
            modules: HashMap::new(),
            stats: CacheStats::default(),
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens (or creates) a journal-backed cache. Recovery statistics for
    /// the existing journal — torn tails truncated, corrupt or duplicate
    /// lines dropped — are available via [`ArtifactCache::recovery`].
    pub fn open(path: &Path) -> Result<ArtifactCache, ServeError> {
        let (journal, records, recovery) = Log::open(path)?;
        let mut cache = ArtifactCache {
            journal: Some(journal),
            recovery,
            ..ArtifactCache::in_memory()
        };
        records.into_iter().for_each(|rec| cache.remember(rec));
        Ok(cache)
    }

    /// Keeps `rec` if it is its key's newest generation.
    fn remember(&mut self, rec: ArtifactRecord) {
        let newest = self.journaled.get(&rec.key).map_or(0, |r| r.generation);
        if rec.generation > newest {
            self.journaled.insert(rec.key.clone(), rec);
        }
    }

    /// What journal recovery found on open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Cache traffic so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache key for a compile: model, batch bucket, target, the
    /// hash of the tuning state the compile consults, and the model
    /// version's fingerprint (blue/green sides never share artifacts).
    pub fn key(model: Model, bucket: i64, target: &Target, sched: u32, version: u64) -> String {
        format!(
            "serve/{}/b{}/{}/s{:08x}/v{:016x}",
            model.name(),
            bucket,
            target.name(),
            sched,
            version
        )
    }

    /// Returns the compiled module for `model` at batch bucket `bucket`
    /// under version fingerprint `version`, building it if needed: an
    /// in-memory hit, else a build — warm when it reproduces the journaled
    /// fingerprint and verifies, cold (and journaled for next time)
    /// otherwise.
    pub fn get_or_build(
        &mut self,
        model: Model,
        bucket: i64,
        target: &Target,
        db: Option<&Database>,
        version: u64,
    ) -> Result<Arc<Module>, ServeError> {
        let sched = schedule_hash(db);
        let key = Self::key(model, bucket, target, sched, version);
        if let Some(m) = self.modules.get(&key) {
            self.stats.hits += 1;
            tvm_obs::counter_add("serve.cache.hits", 1);
            return Ok(Arc::clone(m));
        }
        let _sp = tvm_obs::span_with("serve.cache.build", &[("key", key.as_str())]);
        let graph = model.build_graph(bucket);
        let opts = BuildOptions {
            db,
            ..BuildOptions::default()
        };
        let (module, report) =
            build_with_report(&graph, target, &opts).map_err(|e| ServeError::CompileFailed {
                model: model.name().to_string(),
                detail: e.to_string(),
            })?;
        let built = fingerprint(&module, &report.decisions);

        // Warm: the journal already holds this very module, and it passes
        // the graph-layer verification (memory-plan safety, fusion
        // legality, slot contracts) a stale journal must not talk past.
        let warm = match self.journaled.get(&key) {
            None => false,
            Some(recorded) if built != recorded.fingerprint => {
                self.stats.fingerprint_mismatches += 1;
                tvm_obs::counter_add("serve.cache.fingerprint_mismatches", 1);
                false
            }
            Some(_) if module.verify().has_errors() => {
                self.stats.verify_rejects += 1;
                tvm_obs::counter_add("serve.cache.verify_rejects", 1);
                false
            }
            Some(_) => true,
        };
        if warm {
            self.stats.warm_builds += 1;
            tvm_obs::counter_add("serve.cache.warm_builds", 1);
        } else {
            self.stats.cold_builds += 1;
            tvm_obs::counter_add("serve.cache.cold_builds", 1);
            if let Some(j) = self.journal.as_mut() {
                let rec = ArtifactRecord {
                    key: key.clone(),
                    generation: self.journaled.get(&key).map_or(0, |r| r.generation) + 1,
                    fingerprint: built,
                    decisions: report.decisions,
                    total_ms: module.total_ms(),
                };
                j.append(&rec)?;
                self.remember(rec);
            }
        }
        let m = Arc::new(module);
        self.modules.insert(key, Arc::clone(&m));
        Ok(m)
    }

    /// Forces the journal to stable storage (crash-safety tests cut power
    /// right after this returns).
    pub fn sync(&mut self) -> Result<(), ServeError> {
        if let Some(j) = self.journal.as_mut() {
            j.sync()?;
        }
        Ok(())
    }
}
