//! Tier-1 fuzz tier: a fixed-budget, fixed-seed differential fuzzing run.
//!
//! Every random schedule drawn here lowers and executes identically to the
//! naive schedule of the same expression DAG. The seeds are pinned so CI
//! explores the same schedules on every run; bump the seed (not the
//! budget) when hunting for new counterexamples locally.

use tvm_verify::{fuzz, FuzzOptions, Outcome, Primitive, Repro, WorkloadKind, ALL_WORKLOADS};

#[test]
fn fuzz_tier_fifty_plus_schedules_match_the_oracle() {
    let report = fuzz(&FuzzOptions {
        seed: 0xC0FFEE,
        budget: 60,
        workloads: ALL_WORKLOADS.to_vec(),
        repro_dir: None,
        static_oracle: false,
    });
    assert_eq!(report.cases, 60);
    assert_eq!(
        report.invalid, 0,
        "the generator must only draw valid traces"
    );
    assert!(
        report.distinct_traces >= 50,
        "only {} distinct schedules drawn",
        report.distinct_traces
    );
    assert!(
        report.failures.is_empty(),
        "schedule/oracle mismatches:\n{}",
        report
            .failures
            .iter()
            .map(|f| format!(
                "  {} seed {}: {} — shrunk to {:?}",
                f.workload, f.seed, f.failure, f.shrunk
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.passed, 60);
}

#[test]
fn static_oracle_agrees_with_the_interpreter() {
    // Cross-check the static analyzer against the interpreter on a modest
    // pinned budget: any case the interpreter passes but the analyzer
    // flags is a failure with a shrunk reproducer. The full ≥200-case campaign runs in CI
    // via `verify-fuzz --static-oracle`.
    let report = fuzz(&FuzzOptions {
        seed: 0xC0FFEE,
        budget: 48,
        workloads: ALL_WORKLOADS.to_vec(),
        repro_dir: None,
        static_oracle: true,
    });
    assert_eq!(report.cases, 48);
    assert_eq!(
        report.static_checked, report.passed,
        "every interpreter-passing case must be statically checked"
    );
    assert!(
        report.failures.is_empty(),
        "static/interpreter disagreements:\n{}",
        report
            .failures
            .iter()
            .map(|f| format!(
                "  {} seed {}: {} — shrunk to {:?}",
                f.workload, f.seed, f.failure, f.shrunk
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn reproducers_replay_to_the_recorded_outcome() {
    // Round-trip a reproducer through disk and replay it: the outcome class
    // must match what was recorded. Uses a passing trace (the repo has no
    // live miscompile); the mechanism is identical for failures.
    let repro = Repro {
        workload: WorkloadKind::Conv2d,
        seed: 0xBEEF,
        failure: String::new(),
        primitives: vec![
            Primitive::ComputeInline {
                stage: "data_pad".into(),
            },
            Primitive::Split {
                stage: "conv".into(),
                leaf: 1,
                factor: 2,
            },
            Primitive::Vectorize {
                stage: "conv".into(),
                leaf: 2,
            },
        ],
        shrunk: vec![],
    };
    let dir = std::env::temp_dir().join("tvm_repro_fuzz_tier");
    let path = repro.save(&dir).expect("writes reproducer");
    let loaded = Repro::load(&path).expect("reads reproducer");
    assert_eq!(loaded, repro);
    assert_eq!(loaded.replay(), Outcome::Pass);
    let _ = std::fs::remove_file(path);
}

#[test]
fn property_checks_hold_under_the_ci_seed() {
    tvm_verify::check_simplify(0xC0FFEE, 48).expect("simplify is semantics-preserving");
}

// ---------------------------------------------------------------------------
// Flat engine vs. reference walker. `fuzz` above already compares the two on
// every scheduled program it draws (`run_case` executes through
// `tvm_verify::run_both`); the tests below count what was compared and carry
// the comparison to compiled model kernels.
// ---------------------------------------------------------------------------

use tvm_ir::{Expr, ForKind, LoweredFunc, Mutator, Stmt, StmtNode};
use tvm_runtime::NDArray;
use tvm_sim::{arm_a53, mali_t860, titanx, Target};
use tvm_verify::{apply_trace, build, case_seed, f32_buffers, generate, input_buffers, run_both};

#[test]
fn flat_engine_matches_the_walker_on_the_pinned_traces() {
    // The two fuzz tiers above share one seed, so the 48 static-oracle cases
    // are the first 48 of these 60. Some of them run a multiply-accumulate
    // nest as one reduce op: one of several levels, and one whose factor is
    // a padded read. Both kernels run: a sum kept in a register, and rows
    // cut into pieces.
    let (mut compared, mut reduce_loops, mut register_sums) = (0, 0, 0);
    let (mut deepest, mut guarded) = (0, 0);
    for case in 0..60 {
        let kind = ALL_WORKLOADS[case % ALL_WORKLOADS.len()];
        let seed = case_seed(0xC0FFEE, case);
        let w = build(kind);
        let trace = generate(kind, &w, seed);
        let mut s = tvm_te::create_schedule(std::slice::from_ref(&w.output));
        apply_trace(&mut s, &trace).expect("pinned traces apply");
        let f = tvm_te::lower(&s, &w.args, &format!("{kind}_parity")).expect("pinned traces lower");
        let run = run_both(&f, f32_buffers(input_buffers(&w, seed)), |_| {})
            .unwrap_or_else(|diff| panic!("{kind} case {case}: {diff}\n{}", f.body));
        run.result
            .unwrap_or_else(|e| panic!("{kind} case {case}: {e}"));
        assert!(run.stores > 0);
        compared += 1;
        let program = tvm_ir::Program::compile_f32(&f);
        reduce_loops += program.reduce_loops();
        register_sums += program.register_sums();
        deepest = program
            .reduce_depths()
            .into_iter()
            .fold(deepest, usize::max);
        guarded += program.guarded_factors();
    }
    assert_eq!(compared, 60);
    assert!(
        register_sums > 0,
        "no pinned trace keeps a sum in a register"
    );
    assert!(
        reduce_loops > register_sums,
        "no pinned trace runs a reduce nest in pieces"
    );
    assert!(deepest >= 2, "no pinned trace runs a nest of two levels");
    assert!(guarded > 0, "no pinned trace runs a guarded factor");
}

/// Cuts a kernel down to what the walker can run in tier-1: every
/// block-bound loop, and failing that the outermost loop, keeps only its
/// first iteration, and a serial loop around a barrier its first two (the
/// walker replays the whole nest once per barrier executed, so its time
/// grows with the square of that loop). The thread nests, the barriers and
/// the allocations stay as the compiler emitted them.
struct Cut {
    outermost: bool,
}

impl Mutator for Cut {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        let StmtNode::For {
            var,
            min,
            extent,
            kind,
            body,
        } = &*s.0
        else {
            return self.default_mutate_stmt(s);
        };
        let keep = match kind {
            ForKind::ThreadBinding(tag) if tag.is_block() => 1,
            ForKind::ThreadBinding(_) => i64::MAX,
            _ if std::mem::take(&mut self.outermost) => 1,
            _ if body.contains_barrier() => 2,
            _ => return s.clone(),
        };
        self.outermost = false;
        let extent = extent
            .as_int()
            .map_or(extent.clone(), |n| Expr::int(n.min(keep)));
        Stmt::loop_(var, min.clone(), extent, *kind, self.mutate_stmt(body))
    }
}

/// Compares the two engines on every kernel of `graph` built for `target`,
/// on seeded inputs. A kernel of more than `full_below` stores is compared
/// as [`Cut`] leaves it; returns how many were.
fn kernels_agree(name: &str, graph: &tvm_graph::Graph, target: &Target, full_below: u64) -> usize {
    let module = tvm::build(graph, target, &tvm::BuildOptions::default()).expect("builds");
    let mut cut = 0;
    for (ki, k) in module.kernels.iter().enumerate() {
        let what = format!("{name} {} #{ki} `{}`", target.name(), k.name);
        let arrays = |f: &LoweredFunc| -> Vec<Vec<f32>> {
            let mut arrays: Vec<Vec<f32>> = f
                .param_extents
                .iter()
                .enumerate()
                .map(|(p, &n)| NDArray::seeded(&[n as i64], (ki * 16 + p) as u64 + 1).data)
                .collect();
            arrays.last_mut().expect("output").fill(0.0);
            arrays
        };
        let mut probe = arrays(&k.func);
        let mut flat = tvm_ir::Interp::new();
        flat.run_f32(&k.func, &mut probe)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let func = if flat.store_count() <= full_below {
            k.func.clone()
        } else {
            cut += 1;
            LoweredFunc {
                body: Cut { outermost: true }.mutate_stmt(&k.func.body),
                ..k.func.clone()
            }
        };
        let run = run_both(&func, f32_buffers(arrays(&func)), |_| {})
            .unwrap_or_else(|diff| panic!("{what}: {diff}"));
        run.result.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(run.stores > 0, "{what}: nothing stored");
    }
    cut
}

#[test]
fn flat_engine_matches_the_walker_on_model_kernels() {
    for target in [arm_a53(), titanx(), mali_t860()] {
        // Whole kernels of the small CNN at both sizes the ledger runs ...
        for size in [16, 8] {
            let cnn = tvm_models::residual_cnn(size);
            let name = format!("cnn{size}");
            assert_eq!(kernels_agree(&name, &cnn, &target, u64::MAX), 0);
        }
        // ... and of resnet18(32) where the walker can afford them: it needs
        // ten to twenty seconds for one 250k-store GPU-scheduled kernel,
        // minutes for the model. The whole kernels run, on the flat engine,
        // in `tests/end_to_end.rs`.
        let cut = kernels_agree("resnet18", &tvm_models::resnet18(32), &target, 50_000);
        assert!(cut >= 20, "{}: only {cut} kernels were cut", target.name());
    }
}
