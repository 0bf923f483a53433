//! Behavioral tests of the automated optimizer on a synthetic task whose
//! true cost surface is known exactly.

use std::sync::Arc;

use tvm_autotune::{tune, ConfigEntity, ConfigSpace, Database, TuneOptions, TunerKind, TuningTask};
use tvm_ir::DType;
use tvm_sim::arm_a53;
use tvm_te::{compute, create_schedule, lower, placeholder, TeError};

/// A tunable task: a 2-D copy whose tile knobs genuinely change simulated
/// cost (and a poison knob that makes some configs invalid).
fn synthetic_task() -> TuningTask {
    let mut space = ConfigSpace::new();
    space.define_split("tile", 256, 64);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("poison", &[0, 0, 0, 1]);
    let builder = move |cfg: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> {
        if cfg.get("poison") == 1 {
            return Err(TeError::msg("invalid configuration"));
        }
        let n = 256i64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let a2 = a.clone();
        let b = compute(&[n, n], "B", move |i| {
            a2.at(&[i[1].clone(), i[0].clone()]) + 1
        });
        let mut s = create_schedule(std::slice::from_ref(&b));
        let ax = b.op.axes();
        let (_, wi) = s.split(&b, &ax[1], cfg.get("tile")).unwrap();
        if cfg.get("vec") == 1 {
            s.vectorize(&b, &wi).unwrap();
        }
        lower(&s, &[a, b], "copy_t")
    };
    TuningTask {
        name: "synthetic_copy".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    }
}

#[test]
fn tuning_is_deterministic_per_seed() {
    let opts = TuneOptions {
        n_trials: 24,
        seed: 9,
        ..Default::default()
    };
    let r1 = tune(&synthetic_task(), &opts, TunerKind::GbtRank);
    let r2 = tune(&synthetic_task(), &opts, TunerKind::GbtRank);
    assert_eq!(r1.best_ms, r2.best_ms);
    let h1: Vec<u64> = r1.history.iter().map(|t| t.config_index).collect();
    let h2: Vec<u64> = r2.history.iter().map(|t| t.config_index).collect();
    assert_eq!(h1, h2);
    let opts2 = TuneOptions { seed: 10, ..opts };
    let r3 = tune(&synthetic_task(), &opts2, TunerKind::Random);
    let r4 = tune(
        &synthetic_task(),
        &TuneOptions { seed: 11, ..opts2 },
        TunerKind::Random,
    );
    let h3: Vec<u64> = r3.history.iter().map(|t| t.config_index).collect();
    let h4: Vec<u64> = r4.history.iter().map(|t| t.config_index).collect();
    assert_ne!(h3, h4, "different seeds explore differently");
}

#[test]
fn invalid_configs_are_skipped_not_fatal() {
    let opts = TuneOptions {
        n_trials: 32,
        seed: 3,
        ..Default::default()
    };
    for kind in [
        TunerKind::Random,
        TunerKind::Genetic,
        TunerKind::Evolutionary,
        TunerKind::GbtRank,
        TunerKind::Predefined,
    ] {
        let r = tune(&synthetic_task(), &opts, kind);
        assert!(r.best_ms.is_finite(), "{kind:?} found something valid");
        // Invalid (poisoned) trials appear as infinite cost, never as the
        // best.
        assert!(r.best_config.is_some());
        let best = r.best_config.expect("exists");
        assert_eq!(best.get("poison"), 0);
    }
}

#[test]
fn a_builder_that_always_fails_degrades_gracefully() {
    // Every config is malformed: the run must complete its budget with
    // all-infinite costs and no best — never panic, never hang — even
    // for the population-based tuners that feed costs back into search.
    let mut space = ConfigSpace::new();
    space.define_split("tile", 64, 64);
    space.define_knob("vec", &[0, 1]);
    let builder =
        |_: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> { Err(TeError::msg("broken")) };
    let task = TuningTask {
        name: "always_fails".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    };
    let opts = TuneOptions {
        n_trials: 20,
        seed: 9,
        ..Default::default()
    };
    for kind in [
        TunerKind::Evolutionary,
        TunerKind::GbtRank,
        TunerKind::Random,
    ] {
        let r = tune(&task, &opts, kind);
        assert_eq!(r.history.len(), 20, "{kind:?} spent the whole budget");
        assert!(r.history.iter().all(|t| t.cost_ms.is_infinite()));
        assert!(r.best_config.is_none(), "{kind:?} must not pick a best");
    }
}

#[test]
fn every_tuner_converges_on_the_easy_surface() {
    let opts = TuneOptions {
        n_trials: 48,
        seed: 5,
        ..Default::default()
    };
    let mut bests = Vec::new();
    for kind in [TunerKind::GbtRank, TunerKind::Genetic, TunerKind::Random] {
        bests.push(tune(&synthetic_task(), &opts, kind).best_ms);
    }
    let spread = bests.iter().cloned().fold(0.0f64, f64::max)
        / bests.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 1.5,
        "48 trials on a 28-point space: all close, got {bests:?}"
    );
}

#[test]
fn best_curve_is_monotone_nonincreasing() {
    let opts = TuneOptions {
        n_trials: 32,
        seed: 2,
        ..Default::default()
    };
    let r = tune(&synthetic_task(), &opts, TunerKind::GbtRank);
    for w in r.best_curve.windows(2) {
        assert!(w[1] <= w[0]);
    }
    assert_eq!(r.best_curve.len(), r.history.len());
}

#[test]
fn database_round_trips_tuning_results() {
    let task = synthetic_task();
    let opts = TuneOptions {
        n_trials: 16,
        seed: 4,
        ..Default::default()
    };
    let r = tune(&task, &opts, TunerKind::Random);
    let mut db = Database::new();
    db.add_result(&task.name, &task.space, &r);
    let best = db.best(&task.name).expect("recorded");
    assert_eq!(best.cost_ms, r.best_ms);
    // Rebuilding the config from the stored index reproduces the kernel.
    let cfg = task.space.get(best.config_index);
    let f = (task.builder)(&cfg).expect("still valid");
    assert!(!f.name.is_empty());
    // Persist and reload.
    let path = std::env::temp_dir().join("tvm_rs_tuner_behavior.jsonl");
    db.save(&path).expect("saves");
    let loaded = Database::load(&path).expect("loads");
    assert_eq!(
        loaded.best(&task.name).expect("exists").config_index,
        best.config_index
    );
    let _ = std::fs::remove_file(path);
}
