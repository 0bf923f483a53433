//! A planned tuning task lowers each schedule structure once, with every
//! annotation point marked (`tvm_te::mark_points`), and derives each
//! candidate from that kernel by relabeling the marked loops
//! (`tvm_te::relabel_loops`). This holds the derived kernels to fresh
//! lowerings of the candidates' own schedules: the printed bodies byte for
//! byte, and `tvm_sim::analyze` field for field, every `f64` by its bits.
//!
//! * Every planned task `tvm-topi` and the sketch generator build (dense,
//!   conv2d, depthwise, Winograd, bit-serial, and the dense and conv2d
//!   sketches) on every target: seeded structures, each with every
//!   combination of its annotation knobs, through the task's own builder,
//!   against the template or sketch applied to a fresh schedule and
//!   `tvm_te::lower`ed (rejections must read the same).
//! * The generated schedules of `tests/lowering_oracles.rs`, with seeded
//!   annotation points and choices, relabeled through the two `tvm-te`
//!   calls directly. Some structures put a point on a `vthread` leaf or on
//!   an axis that is no longer a leaf, which `mark_points` must refuse.
//!
//! A task builds each structure once (one plan miss), whether it lowers or
//! fails, and a structure whose point `mark_points` refuses gives every
//! candidate that one error. The generated-schedule test also reports how
//! often a point leaf had a loop that must not be relabeled (a reduction's
//! reset nest) or no marked loop at all (a thread-bound or unit-extent
//! leaf). Relabeling every loop over a point leaf, reset nests included,
//! fails both relabeling tests.
//!
//! The tests take one lock: the `tvm-te` counters they read are
//! process-wide.

use std::collections::HashSet;
use std::fmt::Write;
use std::sync::Mutex;

use tvm_autotune::planned::{planned_task, AnnPoints};
use tvm_autotune::{ConfigEntity, ConfigSpace, SketchTask, TuningTask};
use tvm_ir::stmt::StmtNode;
use tvm_ir::{DType, ForKind, IdMap, LoweredFunc, Stmt, VarId, Visitor};
use tvm_sim::{analyze, arm_a53, mali_t860, titanx, ProgramAnalysis, Target};
use tvm_te::{
    compute, create_schedule, lower, lower_stats, mark_points, placeholder, reduce_axis,
    relabel_loops, sum, Attach, IterVar, LoopAnn, Schedule, TeError, Tensor,
};
use tvm_topi::bitserial::{apply_bitserial_schedule, bitserial_conv2d, BitserialWorkload};
use tvm_topi::winograd::apply_winograd_schedule;
use tvm_topi::{self as topi, Conv2dWorkload, DenseWorkload};

static GLOBALS: Mutex<()> = Mutex::new(());

/// The knobs a planned task relabels instead of re-emitting.
const ANNOTATION_KNOBS: [&str; 3] = ["unroll", "vec", "par"];

/// splitmix64: the draws must not depend on any crate's RNG.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Every field of an analysis, `f64`s by their bits, maps sorted. Variables
/// print by name: the two sides may come from two builds of one operator.
fn render(an: &ProgramAnalysis) -> String {
    let ProgramAnalysis {
        accesses,
        flops,
        vector_flops,
        parallel_flops,
        parallel_extent,
        barriers,
        loop_iterations,
        branches,
        intrinsics,
        thread_extents,
        alloc_bytes,
    } = an;
    let mut out = String::new();
    for a in accesses {
        let tvm_sim::AccessRecord {
            buffer: _,
            name,
            scope,
            dtype,
            is_store,
            trips,
            footprint_at_depth,
            innermost_stride,
            thread_stride,
            loops,
        } = a;
        let fp: Vec<u64> = footprint_at_depth.iter().map(|f| f.to_bits()).collect();
        let loops: Vec<_> = loops
            .iter()
            .map(|l| (l.var.name().to_string(), l.min, l.extent, l.kind))
            .collect();
        let trips = trips.to_bits();
        let _ = writeln!(
            out,
            "{name} {scope:?} {dtype:?} {is_store} {trips:x} {fp:?} {innermost_stride} \
             {thread_stride:?} {loops:?}"
        );
    }
    for x in [
        flops,
        vector_flops,
        parallel_flops,
        barriers,
        loop_iterations,
        branches,
    ] {
        let _ = write!(out, "{:x} ", x.to_bits());
    }
    let _ = writeln!(out, "{parallel_extent}");
    for i in intrinsics {
        let _ = writeln!(out, "{} {:x}", i.name, i.trips.to_bits());
    }
    let mut threads: Vec<String> = thread_extents
        .iter()
        .map(|(t, e)| format!("{t:?}={e}"))
        .collect();
    threads.sort();
    let mut allocs: Vec<String> = alloc_bytes
        .iter()
        .map(|(s, b)| format!("{s:?}={:x}", b.to_bits()))
        .collect();
    allocs.sort();
    let _ = writeln!(out, "{threads:?} {allocs:?}");
    out
}

/// Asserts that `got` is `want`: the same rejection, or the same printed
/// body, parameters and analysis.
fn assert_same(what: &str, got: Result<LoweredFunc, TeError>, want: Result<LoweredFunc, TeError>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.body.to_string(), w.body.to_string(), "{what}: body");
            let names = |f: &LoweredFunc| -> Vec<String> {
                f.params.iter().map(|p| p.name().to_string()).collect()
            };
            assert_eq!(names(&g), names(&w), "{what}: params");
            assert_eq!(g.param_extents, w.param_extents, "{what}: param extents");
            assert_eq!(
                render(&analyze(&g)),
                render(&analyze(&w)),
                "{what}: analysis"
            );
        }
        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{what}: rejection"),
        (g, w) => panic!(
            "{what}: relabeled {:?}, emitted {:?}",
            g.map(|_| ()),
            w.map(|_| ())
        ),
    }
}

/// How a marked kernel's loops over point leaves look: loops to relabel
/// (`Unrolled`), and loops over a point leaf that keep their kind (reset
/// nests).
#[derive(Default)]
struct PointLoops {
    marked: usize,
    kept: usize,
}

impl PointLoops {
    fn of(f: &LoweredFunc, points: &IdMap<VarId, ForKind>) -> Self {
        struct W<'a>(&'a IdMap<VarId, ForKind>, PointLoops);
        impl Visitor for W<'_> {
            fn visit_stmt(&mut self, s: &Stmt) {
                if let StmtNode::For { var, kind, .. } = &*s.0 {
                    if self.0.contains_key(&var.id()) {
                        match kind {
                            ForKind::Unrolled => self.1.marked += 1,
                            _ => self.1.kept += 1,
                        }
                    }
                }
                self.walk_stmt(s);
            }
        }
        let mut w = W(points, PointLoops::default());
        w.visit_stmt(&f.body);
        w.1
    }
}

/// A template or sketch applied to a fresh schedule, annotation knobs
/// included.
type Apply = Box<dyn Fn(&mut Schedule, &ConfigEntity) -> Result<(), TeError>>;

/// One planned task beside the schedule its candidates must lower like:
/// `apply` is the template or sketch, annotation knobs included, applied to
/// a fresh schedule of `outputs`.
struct Case {
    task: TuningTask,
    outputs: Vec<Tensor>,
    args: Vec<Tensor>,
    apply: Apply,
}

impl Case {
    /// The candidate lowered from scratch and held to the target's limits,
    /// with the rejection text the task's builder gives.
    fn emitted(&self, cfg: &ConfigEntity) -> Result<LoweredFunc, TeError> {
        let mut s = create_schedule(&self.outputs);
        (self.apply)(&mut s, cfg)?;
        let f = lower(&s, &self.args, "reference")?;
        self.task
            .target
            .check_limits(&analyze(&f))
            .map_err(|e| TeError::msg(e.to_string()))?;
        Ok(f)
    }
}

fn dense_wl() -> DenseWorkload {
    DenseWorkload {
        m: 64,
        n: 512,
        k: 512,
        dtype: DType::float32(),
    }
}

/// Every planned task of `tvm-topi` and the sketch generator on `target`.
fn cases(target: &Target) -> Vec<Case> {
    let t = target.clone();
    let f32 = DType::float32();
    let c7 = topi::resnet18_convs()[6];
    let mut out = Vec::new();

    let (d, wt, o) = topi::dense(&dense_wl());
    let (d2, wt2, o2, t2) = (d.clone(), wt.clone(), o.clone(), t.clone());
    out.push(Case {
        task: topi::dense_task(dense_wl(), t.clone()),
        outputs: vec![o.clone()],
        args: vec![d.clone(), wt.clone(), o.clone()],
        apply: Box::new(move |s, cfg| topi::apply_dense_schedule(s, &d2, &wt2, &o2, &t2, cfg)),
    });
    if let Ok(task) = topi::dense_sketch_task(dense_wl(), t.clone()) {
        let sk = SketchTask::analyze(std::slice::from_ref(&o), &t).expect("sketchable");
        out.push(Case {
            task,
            outputs: vec![o.clone()],
            args: vec![d, wt, o],
            apply: Box::new(move |s, cfg| sk.apply_schedule(s, cfg)),
        });
    }

    let op = topi::conv2d(&c7, f32);
    let conv_args = vec![op.data.clone(), op.weight.clone(), op.out.clone()];
    if let Ok(task) = topi::conv2d_sketch_task(c7, f32, t.clone()) {
        let sk = SketchTask::analyze(std::slice::from_ref(&op.out), &t).expect("sketchable");
        out.push(Case {
            task,
            outputs: vec![op.out.clone()],
            args: conv_args.clone(),
            apply: Box::new(move |s, cfg| sk.apply_schedule(s, cfg)),
        });
    }
    let t2 = t.clone();
    out.push(Case {
        task: topi::conv2d_task(c7, f32, t.clone()),
        outputs: vec![op.out.clone()],
        args: conv_args,
        apply: Box::new(move |s, cfg| topi::apply_conv2d_schedule(s, &op, &t2, cfg)),
    });

    let dw = topi::mobilenet_dwconvs()[5];
    let op = topi::depthwise_conv2d(&dw, f32);
    let t2 = t.clone();
    out.push(Case {
        task: topi::depthwise_task(dw, f32, t.clone()),
        outputs: vec![op.out.clone()],
        args: vec![op.data.clone(), op.weight.clone(), op.out.clone()],
        apply: Box::new(move |s, cfg| topi::apply_depthwise_schedule(s, &op, &t2, cfg)),
    });

    let c6 = topi::resnet18_convs()[5];
    let op = topi::winograd_conv2d(&c6, f32);
    let t2 = t.clone();
    out.push(Case {
        task: topi::winograd_task(c6, f32, t.clone()),
        outputs: vec![op.out.clone()],
        args: vec![op.data.clone(), op.weight_t.clone(), op.out.clone()],
        apply: Box::new(move |s, cfg| apply_winograd_schedule(s, &op, &t2, cfg)),
    });

    let c2 = topi::resnet18_convs()[1];
    let bw = BitserialWorkload {
        conv: Conv2dWorkload {
            pad: 0,
            size: c2.size + 2 * c2.pad,
            ..c2
        },
        a_bits: 2,
        w_bits: 1,
    };
    for threaded in [false, true] {
        let (a, w, o) = bitserial_conv2d(&bw);
        let o2 = o.clone();
        out.push(Case {
            task: topi::bitserial::bitserial_task(bw, t.clone(), threaded),
            outputs: vec![o.clone()],
            args: vec![a, w, o],
            apply: Box::new(move |s, cfg| apply_bitserial_schedule(s, &o2, cfg)),
        });
    }
    out
}

/// The structural part of `cfg`: every knob a candidate does not relabel.
fn structure(cfg: &ConfigEntity) -> Vec<(String, i64)> {
    let structural = |(n, _): &&(String, i64)| !ANNOTATION_KNOBS.contains(&n.as_str());
    cfg.values.iter().filter(structural).cloned().collect()
}

/// `cfg` under every combination of the space's annotation knobs.
fn annotation_variants(task: &TuningTask, cfg: &ConfigEntity) -> Vec<ConfigEntity> {
    let mut out = vec![cfg.clone()];
    for knob in &task.space.knobs {
        if !ANNOTATION_KNOBS.contains(&knob.name.as_str()) {
            continue;
        }
        out = out
            .iter()
            .flat_map(|c| {
                knob.options.iter().map(move |&v| {
                    let mut c = c.clone();
                    for (n, x) in &mut c.values {
                        if *n == knob.name {
                            *x = v;
                        }
                    }
                    c
                })
            })
            .collect();
    }
    out
}

#[test]
fn every_planned_task_relabels_like_it_emits() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (mut candidates, mut accepted, mut relabeled, mut emitted) = (0u64, 0u64, 0u64, 0u64);
    let mut tasks = 0;
    for target in [titanx(), arm_a53(), mali_t860()] {
        for case in cases(&target) {
            tasks += 1;
            let space = &case.task.space;
            let mut rng = 0x4e1a_be15 ^ tasks;
            let (mut structures, mut misses) = (HashSet::new(), 0);
            for _ in 0..8 {
                let base = space.get(next(&mut rng) % space.size().max(1));
                structures.insert(structure(&base));
                for cfg in annotation_variants(&case.task, &base) {
                    let before = lower_stats();
                    let got = (case.task.builder)(&cfg);
                    let after = lower_stats();
                    misses += after.plan_misses - before.plan_misses;
                    relabeled += after.relabels - before.relabels;
                    emitted += after.lowerings - before.lowerings;
                    candidates += 1;
                    accepted += u64::from(got.is_ok());
                    let what = format!("{} {}", case.task.name, cfg.summary());
                    assert_same(&what, got, case.emitted(&cfg));
                }
            }
            // A structure that fails is cached as its error, so no
            // candidate of it builds it again.
            assert_eq!(
                misses,
                structures.len() as u64,
                "{}: plan misses against distinct structures",
                case.task.name
            );
        }
    }
    assert_eq!(tasks, 24, "every task on every target");
    assert!(
        accepted * 4 > candidates,
        "{accepted} of {candidates} accepted"
    );
    eprintln!(
        "{tasks} tasks: {candidates} candidates, {accepted} accepted, {relabeled} relabeled, \
         {emitted} structures emitted"
    );
}

#[test]
fn generated_schedules_relabel_like_they_emit() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let kinds = tvm_verify::ALL_WORKLOADS;
    let anns = [LoopAnn::Unroll, LoopAnn::Vectorize, LoopAnn::Parallel];
    let (mut structures, mut refused, mut candidates) = (0usize, 0usize, 0usize);
    let (mut reset, mut bound) = (0usize, 0usize);
    for case in 0..1000 {
        let kind = kinds[case % kinds.len()];
        let seed = tvm_verify::case_seed(0x51AB, case);
        let w = tvm_verify::build(kind);
        let trace = tvm_verify::generate(kind, &w, seed);
        let mut s = create_schedule(std::slice::from_ref(&w.output));
        tvm_verify::apply_trace(&mut s, &trace).expect("generated traces apply");
        let leaves: Vec<(Tensor, IterVar)> = s
            .stages
            .iter()
            .filter(|st| !matches!(st.attach, Attach::Inline))
            .flat_map(|st| st.leaf_iters.iter().map(|l| (st.tensor.clone(), l.clone())))
            .collect();
        if leaves.is_empty() {
            continue;
        }
        let mut rng = seed ^ 0xA11;
        let mut draw = |n: usize| next(&mut rng) as usize % n;
        let points: Vec<(Tensor, IterVar)> = (0..1 + draw(4))
            .map(|_| leaves[draw(leaves.len())].clone())
            .collect();
        structures += 1;

        // A point on a `vthread` leaf, or on an axis a split replaced, is
        // refused and leaves the schedule as it was.
        let refuse = draw(10);
        if refuse < 2 {
            let mut r = s.clone();
            let (t, iv) = &points[0];
            let bad = if refuse == 0 {
                r.vthread(t, iv).expect("a leaf");
                (t.clone(), iv.clone())
            } else {
                let st = r.stage(t).expect("a stage");
                let gone = st
                    .tensor
                    .op
                    .axes()
                    .into_iter()
                    .find(|a| !st.leaf_iters.iter().any(|l| l.var == a.var));
                match gone {
                    Some(a) => (t.clone(), a),
                    None => continue,
                }
            };
            let mut with_bad = points.clone();
            with_bad.push(bad);
            let attrs = format!(
                "{:?}",
                r.stages.iter().map(|s| &s.iter_attrs).collect::<Vec<_>>()
            );
            assert!(
                mark_points(&mut r, &with_bad).is_err(),
                "case {case}: not refused"
            );
            let after = format!(
                "{:?}",
                r.stages.iter().map(|s| &s.iter_attrs).collect::<Vec<_>>()
            );
            assert_eq!(attrs, after, "case {case}: a refused structure was marked");
            refused += 1;
            continue;
        }

        let mut m = s.clone();
        let base = mark_points(&mut m, &points).expect("leaves are marked");
        let marked = lower(&m, &w.args, "gen");
        if let Ok(f) = &marked {
            let loops = PointLoops::of(f, &base);
            reset += usize::from(loops.kept > 0);
            bound += usize::from(loops.marked == 0);
        }
        for _ in 0..4 {
            let chosen: Vec<(usize, LoopAnn)> = (0..draw(4))
                .map(|_| (draw(points.len()), anns[draw(anns.len())]))
                .collect();
            let mut r = s.clone();
            let mut kinds = base.clone();
            for &(p, ann) in &chosen {
                let (t, iv) = &points[p];
                r.annotate(t, iv, ann).expect("a leaf");
                kinds.insert(iv.var.id(), ann.loop_kind());
            }
            let got = marked.clone().map(|f| relabel_loops(&f, &kinds));
            assert_same(
                &format!("case {case} {chosen:?}"),
                got,
                lower(&r, &w.args, "gen"),
            );
            candidates += 1;
        }
    }
    eprintln!(
        "{structures} structures: {refused} refused, {candidates} candidates relabeled; {reset} \
         with a reset loop over a point, {bound} with no marked loop (every point thread-bound \
         or of unit extent)"
    );
    assert!(
        refused > 0 && reset > 0 && bound > 0,
        "the draws cover every rule"
    );
}

/// A matmul structure that runs its outer row tiles as virtual threads and
/// names that leaf as its `unroll` point.
fn vthread_rows(c: &Tensor, s: &mut Schedule, cfg: &ConfigEntity) -> Result<AnnPoints, TeError> {
    let ax = c.op.axes();
    let (io, _ii) = s.split(c, &ax[0], cfg.get("tile"))?;
    s.vthread(c, &io)?;
    Ok(AnnPoints {
        unroll: vec![(c.clone(), io)],
        vec: vec![(c.clone(), ax[1].clone())],
        par: None,
    })
}

/// Annotating a `vthread` leaf would replace the virtual thread, so the
/// structure is a template bug: each of its candidates gets the one typed
/// error naming the point, built once per structure, never emitted or
/// relabeled.
#[test]
fn a_structure_with_a_vthread_point_is_refused_once() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let n = 16;
    let a = placeholder(&[n, n], DType::float32(), "A");
    let b = placeholder(&[n, n], DType::float32(), "B");
    let k = reduce_axis(n, "k");
    let c = compute(&[n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    let mut space = ConfigSpace::new();
    space.define_split("tile", n, 8);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("unroll", &[0, 1]);
    let args = [a, b, c.clone()];
    let c2 = c.clone();
    let task = planned_task(
        "vthread_rows".into(),
        space,
        arm_a53(),
        std::slice::from_ref(&c),
        &args,
        "mm".into(),
        move |s, cfg| vthread_rows(&c2, s, cfg),
    );
    let before = lower_stats();
    let mut structures = HashSet::new();
    for idx in 0..task.space.size() {
        let cfg = task.space.get(idx);
        structures.insert(structure(&cfg));
        let mut s = create_schedule(std::slice::from_ref(&c));
        let points = vthread_rows(&c, &mut s, &cfg).expect("the structure applies");
        let (_, io) = &points.unroll[0];
        match (task.builder)(&cfg) {
            Err(TeError::VThreadPoint { iter, stage }) => {
                assert_eq!((iter.as_str(), stage.as_str()), (io.var.name(), "C"))
            }
            got => panic!("{}: {:?}", cfg.summary(), got.map(|_| ())),
        }
    }
    let after = lower_stats();
    assert!(structures.len() > 1 && structures.len() < task.space.size() as usize);
    assert_eq!(
        after.plan_misses - before.plan_misses,
        structures.len() as u64,
        "one plan miss per structure"
    );
    assert_eq!(after.lowerings, before.lowerings, "emitted");
    assert_eq!(after.relabels, before.relabels, "relabeled");
}
