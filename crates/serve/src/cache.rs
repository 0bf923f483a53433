//! The compiled-artifact cache: a memo of `tvm::build`.
//!
//! A build is a pure function of graph, target and tuning database (§2),
//! and a service fixes the last two for its lifetime, so the cache owns
//! them and keys a module by what varies: model, batch bucket and the
//! model version's fingerprint (blue/green sides never share artifacts).
//! Each module is compiled once and kept behind an [`Arc`] so every batch
//! shares it. Nothing is persisted: the tuning journal is the durable
//! record a restart recompiles from.

use std::collections::HashMap;
use std::sync::Arc;

use tvm::compiler::{build, BuildOptions};
use tvm::target::Target;
use tvm_autotune::Database;
use tvm_runtime::Module;

use crate::{Model, ServeError};

/// Cache traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Served from the memo.
    pub hits: u64,
    /// Compiles: one per distinct (model, bucket, version) served.
    pub cold_builds: u64,
}

/// `(model, batch bucket, version fingerprint) → module` for one target
/// and one tuning database.
pub struct ArtifactCache {
    target: Target,
    db: Option<Database>,
    modules: HashMap<(Model, i64, u64), Arc<Module>>,
    stats: CacheStats,
}

impl ArtifactCache {
    /// An empty cache compiling for `target` under `db`.
    pub fn new(target: Target, db: Option<Database>) -> ArtifactCache {
        ArtifactCache {
            target,
            db,
            modules: HashMap::new(),
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

    /// Returns the compiled module for `model` at batch bucket `bucket`
    /// under version fingerprint `version`, building it on first use.
    pub fn get_or_build(
        &mut self,
        model: Model,
        bucket: i64,
        version: u64,
    ) -> Result<Arc<Module>, ServeError> {
        let key = (model, bucket, version);
        if let Some(m) = self.modules.get(&key) {
            self.stats.hits += 1;
            tvm_obs::counter_add("serve.cache.hits", 1);
            return Ok(Arc::clone(m));
        }
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
        tvm_obs::counter_add("serve.cache.cold_builds", 1);
        let m = Arc::new(module);
        self.modules.insert(key, Arc::clone(&m));
        Ok(m)
    }
}
