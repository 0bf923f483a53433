//! The compiled-artifact cache: a memo of `tvm::build`, and the one owner
//! of everything a served version needs.
//!
//! A build is a pure function of graph, target and tuning database (§2),
//! and a service fixes the last two for its lifetime, so the cache owns
//! them and keys an entry by what varies: model, batch bucket and the
//! model version's fingerprint (blue/green sides never share artifacts).
//! Each entry is compiled once and holds the module behind an [`Arc`]
//! together with the one [`GraphExecutor`] that runs it, the version's
//! weights bound when the entry is built: §2's `create(graph, lib,
//! params)` happens once per entry, and a batch only binds its input and
//! runs. Nothing is persisted: the tuning journal is the durable record a
//! restart recompiles from.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use tvm::compiler::{build, BuildOptions};
use tvm::target::Target;
use tvm_autotune::Database;
use tvm_runtime::{GraphExecutor, Module};

use crate::{Model, ModelVersion, ServeError};

/// Cache traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Served from the memo.
    pub hits: u64,
    /// Compiles: one per distinct (model, bucket, version) served, and so
    /// one per executor built.
    pub cold_builds: u64,
}

/// One version of a model at one batch bucket, ready to serve: the
/// compiled module and the executor over it, holding the version's weights.
struct Artifact {
    module: Arc<Module>,
    executor: GraphExecutor,
}

/// `(model, batch bucket, version fingerprint) → artifact` for one target
/// and one tuning database.
pub struct ArtifactCache {
    target: Target,
    db: Option<Database>,
    entries: HashMap<(Model, i64, u64), Artifact>,
    stats: CacheStats,
}

impl ArtifactCache {
    /// An empty cache compiling for `target` under `db`.
    pub fn new(target: Target, db: Option<Database>) -> ArtifactCache {
        ArtifactCache {
            target,
            db,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The target every module is compiled for.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Cache traffic so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The `(model, bucket, version fingerprint)` key of every entry held.
    pub fn keys(&self) -> impl Iterator<Item = (Model, i64, u64)> + '_ {
        self.entries.keys().copied()
    }

    /// Returns the compiled module for `version` of `model` at batch
    /// bucket `bucket`, building the entry on first use and counting a
    /// hit otherwise.
    pub fn get_or_build(
        &mut self,
        model: Model,
        bucket: i64,
        version: &ModelVersion,
    ) -> Result<Arc<Module>, ServeError> {
        let key = (model, bucket, version.fingerprint());
        if self.entries.contains_key(&key) {
            self.stats.hits += 1;
        }
        Ok(Arc::clone(&self.artifact(key, version.weights)?.module))
    }

    /// The executor for `version` of `model` at `bucket`: the one
    /// [`ArtifactCache::get_or_build`] built, counting no hit, since a
    /// batch looks its module up once and may run more than once.
    pub(crate) fn executor(
        &mut self,
        model: Model,
        bucket: i64,
        version: &ModelVersion,
    ) -> Result<&mut GraphExecutor, ServeError> {
        let key = (model, bucket, version.fingerprint());
        Ok(&mut self.artifact(key, version.weights)?.executor)
    }

    /// Drops every entry of `version`: a retired version is never served
    /// again, and its executors hold its weights.
    pub(crate) fn evict(&mut self, version: &ModelVersion) {
        let (model, fp) = (version.model, version.fingerprint());
        self.entries.retain(|&(m, _, f), _| (m, f) != (model, fp));
    }

    /// The entry for `key`, compiling the module and binding the weight
    /// set `weights` to a new executor on a miss.
    fn artifact(
        &mut self,
        key: (Model, i64, u64),
        weights: u64,
    ) -> Result<&mut Artifact, ServeError> {
        let (model, bucket, _) = key;
        let slot = match self.entries.entry(key) {
            Entry::Occupied(e) => return Ok(e.into_mut()),
            Entry::Vacant(e) => e,
        };
        let _sp = tvm_obs::span_with("serve.cache.build", &[("model", model.name())]);
        let opts = BuildOptions {
            db: self.db.as_ref(),
            ..BuildOptions::default()
        };
        let module = build(&model.build_graph(bucket), &self.target, &opts).map_err(|e| {
            ServeError::CompileFailed {
                model: model.name().to_string(),
                detail: e.to_string(),
            }
        })?;
        self.stats.cold_builds += 1;
        let module = Arc::new(module);
        let executor = GraphExecutor::from_arc_with_weights(Arc::clone(&module), weights);
        Ok(slot.insert(Artifact { module, executor }))
    }
}
