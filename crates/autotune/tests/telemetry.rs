//! Tuner telemetry: with observability enabled, a tuning run publishes
//! phase spans into the global `tvm-obs` registry. Its work counters are
//! not published: they live in the run's own `TuneStats`, which a
//! process-global registry could only sum across concurrent runs.
//!
//! Lives in its own test binary: the obs registry is process-global.

use std::sync::Arc;

use tvm_autotune::{tune, ConfigEntity, ConfigSpace, TuneOptions, TunerKind, TuningTask};
use tvm_ir::DType;
use tvm_sim::arm_a53;
use tvm_te::{compute, create_schedule, lower, placeholder, TeError};

fn synthetic_task() -> TuningTask {
    let mut space = ConfigSpace::new();
    space.define_split("tile", 64, 16);
    space.define_knob("vec", &[0, 1]);
    let builder = move |cfg: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> {
        let n = 64i64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let a2 = a.clone();
        let b = compute(&[n, n], "B", move |i| {
            a2.at(&[i[1].clone(), i[0].clone()]) + 1
        });
        let mut s = create_schedule(std::slice::from_ref(&b));
        let ax = b.op.axes();
        let (_, wi) = s.split(&b, &ax[1], cfg.get("tile"))?;
        if cfg.get("vec") == 1 {
            s.vectorize(&b, &wi)?;
        }
        lower(&s, &[a, b], "copy_t")
    };
    TuningTask {
        name: "telemetry_copy".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    }
}

#[test]
fn tuning_publishes_spans() {
    tvm_obs::Registry::global().reset();
    tvm_obs::set_enabled(true);
    let opts = TuneOptions {
        n_trials: 12,
        seed: 3,
        ..Default::default()
    };
    let result = tune(&synthetic_task(), &opts, TunerKind::GbtRank);
    tvm_obs::set_enabled(false);

    // Phase spans: one `tune` root, `measure` batches under it, and for a
    // GBT tuner at least one `fit` + `propose_sa` round.
    let events = tvm_obs::Registry::global().events();
    let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    assert!(names.contains(&"tune"), "{names:?}");
    assert!(names.contains(&"measure"), "{names:?}");
    assert!(names.contains(&"fit"), "{names:?}");
    assert!(names.contains(&"propose_sa"), "{names:?}");
    let tune_ev = events
        .iter()
        .find(|e| e.name() == "tune")
        .expect("tune span");
    assert!(
        tune_ev
            .args
            .iter()
            .any(|(k, v)| k == "task" && v == "telemetry_copy"),
        "{tune_ev:?}"
    );
    // Nested phases carry the tuner span as their path prefix.
    let fit_ev = events.iter().find(|e| e.name() == "fit").expect("fit span");
    assert!(fit_ev.path.contains("tune"), "{}", fit_ev.path);

    // The run's counts are in its report and nowhere else.
    assert!(result.stats.lookups > result.stats.lowerings);
    let counters = tvm_obs::Registry::global().counters();
    assert!(counters.is_empty(), "{counters:?}");
}
