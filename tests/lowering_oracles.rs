//! The two walks every lowered kernel pays for, held to slower oracles.
//!
//! * `sim::analyze` evaluates an access's strides on integers and keeps one
//!   bounds map for all its footprint depths. Its oracle substitutes the
//!   two points into the index and simplifies, and builds a fresh map per
//!   depth; strides and footprints must agree bit for bit.
//! * `simplify_stmt` inlines a unit-extent loop while it walks the body.
//!   Its oracle substitutes every unit loop's `min` into the body first and
//!   simplifies the result; the printed bodies must be equal.
//!
//! The corpus is every kernel of the five zoo models on the three targets,
//! fused and not, seeded configurations of the five tasks the perf ledger
//! tunes, and `tvm_verify::generate`d schedules. Lowered bodies are already
//! simplified, so the simplifier sees each one with loops cut to a unit
//! extent: all of them, or every other depth, which leaves ranged loops
//! around and inside the inlined ones.
//!
//! Emission writes thread-bound leaves as the canonical thread variables
//! while it builds a kernel, where it used to build each nest in the
//! stages' own leaves and substitute the whole nest after. The two-pass
//! emission is kept as a reference in `tvm-te`'s unit tests
//! (`lower::emission_oracle`), which an integration test cannot call; here
//! the printed bodies of the whole corpus are held to what the two-pass
//! emission printed for them, by digest.

use std::collections::HashMap;
use std::sync::Arc;

use tvm::BuildOptions;
use tvm_autotune::TuningTask;
use tvm_ir::expr::ExprNode;
use tvm_ir::stmt::StmtNode;
use tvm_ir::{
    eval_interval, simplify, simplify_stmt, substitute, substitute_stmt, DType, Expr, ForKind,
    Interval, LoweredFunc, MemScope, Mutator, Stmt, ThreadTag, Var, VarId, Visitor,
};
use tvm_sim::analysis::{analyze, LoopLevel};
use tvm_sim::{arm_a53, mali_t860, titanx};
use tvm_te::create_schedule;
use tvm_topi::{self as topi, DenseWorkload};

/// Distinct kernels of every zoo model on every target, fused and not.
fn zoo_kernels() -> Vec<(String, LoweredFunc)> {
    let models = [
        ("resnet18", tvm_models::resnet18(32)),
        ("mobilenet", tvm_models::mobilenet(32)),
        ("dqn", tvm_models::dqn()),
        ("dcgan", tvm_models::dcgan_generator()),
        ("lstm", tvm_models::lstm_lm(128, 4)),
    ];
    let mut out = Vec::new();
    for (tn, target) in [
        ("titanx", titanx()),
        ("arm_a53", arm_a53()),
        ("mali_t860", mali_t860()),
    ] {
        for (mn, graph) in &models {
            for no_fusion in [false, true] {
                let opts = BuildOptions {
                    no_fusion,
                    db: None,
                };
                let module = tvm::build(graph, &target, &opts).expect("zoo model builds");
                for (i, k) in module.kernels.iter().enumerate() {
                    let repeat = module.kernels[..i]
                        .iter()
                        .any(|e| Arc::ptr_eq(&e.program, &k.program));
                    if !repeat {
                        out.push((format!("{mn}/{tn}/{no_fusion}/{}", k.name), k.func.clone()));
                    }
                }
            }
        }
    }
    out
}

/// The five tasks `tune_ops` tunes.
fn ledger_tasks() -> Vec<TuningTask> {
    let dense = DenseWorkload {
        m: 64,
        n: 512,
        k: 512,
        dtype: DType::float32(),
    };
    let c7 = topi::resnet18_convs()[6];
    vec![
        topi::dense_task(dense, titanx()),
        topi::conv2d_task(c7, DType::float32(), titanx()),
        topi::conv2d_task(c7, DType::float32(), arm_a53()),
        topi::dense_sketch_task(dense, titanx()).expect("dense is sketchable"),
        topi::conv2d_sketch_task(c7, DType::float32(), titanx()).expect("conv2d is sketchable"),
    ]
}

/// Lowered bodies of `per_task` seeded configurations of every ledger task.
fn task_kernels(per_task: u64) -> Vec<(String, LoweredFunc)> {
    let mut out = Vec::new();
    for task in ledger_tasks() {
        for i in 0..per_task {
            let idx = tvm_verify::case_seed(0x5EED, i as usize) % task.space.size().max(1);
            if let Ok(f) = (task.builder)(&task.space.get(idx)) {
                out.push((format!("{}/{idx}", task.name), f));
            }
        }
    }
    out
}

/// Indices of the accesses `analyze` records, in its order: a store's index,
/// then the loads of its value and predicate; a load's index, not the loads
/// inside it; nothing in a loop's range or an allocation's extent.
#[derive(Default)]
struct Accesses(Vec<(bool, Expr)>);

impl Visitor for Accesses {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::For { body, .. }
            | StmtNode::Allocate { body, .. }
            | StmtNode::AttrStmt { body, .. } => self.visit_stmt(body),
            StmtNode::Store {
                index,
                value,
                predicate,
                ..
            } => {
                self.0.push((true, index.clone()));
                self.visit_expr(value);
                predicate.iter().for_each(|p| self.visit_expr(p));
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        match &*e.0 {
            ExprNode::Load {
                index, predicate, ..
            } => {
                self.0.push((false, index.clone()));
                predicate.iter().for_each(|p| self.visit_expr(p));
            }
            _ => self.walk_expr(e),
        }
    }
}

/// Oracle stride: `f(v+1) - f(v)` by substitution and simplification, with
/// every other loop var at its minimum; `-1` unless both fold.
fn stride_wrt(index: &Expr, var: &Var, loops: &[LoopLevel]) -> i64 {
    let mut at0: HashMap<VarId, Expr> = HashMap::new();
    let mut at1: HashMap<VarId, Expr> = HashMap::new();
    for l in loops {
        let base = Expr::int(l.min);
        at0.insert(l.var.id(), base.clone());
        at1.insert(l.var.id(), base);
    }
    at0.insert(var.id(), Expr::int(0));
    at1.insert(var.id(), Expr::int(1));
    let e0 = simplify(&substitute(index, &at0));
    let e1 = simplify(&substitute(index, &at1));
    match (e0.as_int(), e1.as_int()) {
        (Some(a), Some(b)) => b - a,
        _ => -1,
    }
}

/// Oracle footprints: a fresh bounds map per depth, loops `d..` ranging.
fn footprints(index: &Expr, loops: &[LoopLevel]) -> Vec<f64> {
    (0..=loops.len())
        .map(|d| {
            let mut bounds: HashMap<VarId, Interval> = HashMap::new();
            for (i, l) in loops.iter().enumerate() {
                let iv = if i >= d {
                    Interval::new(l.min, l.min + l.extent - 1)
                } else {
                    Interval::point(l.min)
                };
                bounds.insert(l.var.id(), iv);
            }
            match eval_interval(index, &bounds) {
                Some(iv) => iv.extent().expect("corpus widths fit i64") as f64,
                None => loops[d..].iter().map(|l| l.extent as f64).product(),
            }
        })
        .collect()
}

/// Checks every access record of `f` against the oracles; returns how many
/// there were.
fn check_analysis(name: &str, f: &LoweredFunc) -> usize {
    let an = analyze(f);
    let mut sites = Accesses::default();
    sites.visit_stmt(&f.body);
    assert_eq!(an.accesses.len(), sites.0.len(), "{name}: access count");
    for (r, (is_store, index)) in an.accesses.iter().zip(&sites.0) {
        let at = format!("{name}: {} {index}", r.name);
        assert_eq!(r.is_store, *is_store, "{at}");
        let innermost = r
            .loops
            .last()
            .map_or(0, |l| stride_wrt(index, &l.var, &r.loops));
        assert_eq!(r.innermost_stride, innermost, "{at}: innermost stride");
        let thread = r
            .loops
            .iter()
            .find(|l| matches!(l.kind, ForKind::ThreadBinding(ThreadTag::ThreadIdxX)))
            .map(|l| stride_wrt(index, &l.var, &r.loops));
        assert_eq!(r.thread_stride, thread, "{at}: thread stride");
        let want: Vec<u64> = footprints(index, &r.loops)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let got: Vec<u64> = r.footprint_at_depth.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{at}: footprints");
    }
    an.accesses.len()
}

#[test]
fn analysis_matches_its_substitution_oracle() {
    let corpus: Vec<_> = zoo_kernels().into_iter().chain(task_kernels(100)).collect();
    let records: usize = corpus.iter().map(|(n, f)| check_analysis(n, f)).sum();
    assert!(records > 5_000, "only {records} access records checked");
}

/// Inlines every loop whose extent simplifies to 1 by substituting its
/// `min` into the body, outermost first.
struct InlineUnitLoops;

impl Mutator for InlineUnitLoops {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        if let StmtNode::For {
            var,
            min,
            extent,
            body,
            ..
        } = &*s.0
        {
            if simplify(extent).as_int() == Some(1) {
                let sub = HashMap::from([(var.id(), min.clone())]);
                return self.mutate_stmt(&substitute_stmt(body, &sub));
            }
        }
        self.default_mutate_stmt(s)
    }
}

/// Asserts that `simplify_stmt` agrees with substituting first.
fn check_simplify(name: &str, s: &Stmt) {
    let got = simplify_stmt(s).to_string();
    let want = simplify_stmt(&InlineUnitLoops.mutate_stmt(s)).to_string();
    assert_eq!(
        got, want,
        "{name}: simplify_stmt differs from its oracle on\n{s}"
    );
}

/// `s` with every loop at a depth `cut` picks given a unit extent.
struct Cut<F>(F, usize);

impl<F: Fn(usize) -> bool> Mutator for Cut<F> {
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
        let depth = self.1;
        self.1 += 1;
        let body = self.mutate_stmt(body);
        self.1 -= 1;
        let extent = if (self.0)(depth) {
            Expr::int(1)
        } else {
            extent.clone()
        };
        Stmt::loop_(var, min.clone(), extent, *kind, body)
    }
}

fn check_simplify_cuts(name: &str, body: &Stmt) {
    check_simplify(name, body);
    check_simplify(&format!("{name}/all"), &Cut(|_| true, 0).mutate_stmt(body));
    check_simplify(
        &format!("{name}/even"),
        &Cut(|d| d % 2 == 0, 0).mutate_stmt(body),
    );
    check_simplify(
        &format!("{name}/odd"),
        &Cut(|d| d % 2 == 1, 0).mutate_stmt(body),
    );
}

#[test]
fn simplifier_matches_substitution_on_zoo_kernels() {
    for (name, f) in zoo_kernels() {
        check_simplify_cuts(&name, &f.body);
    }
}

/// Lowered bodies of 1,000 `tvm_verify::generate`d schedules.
fn generated_kernels() -> Vec<(String, LoweredFunc)> {
    let kinds = tvm_verify::ALL_WORKLOADS;
    (0..1000)
        .map(|case| {
            let kind = kinds[case % kinds.len()];
            let seed = tvm_verify::case_seed(0x51AB, case);
            let w = tvm_verify::build(kind);
            let trace = tvm_verify::generate(kind, &w, seed);
            let mut s = create_schedule(std::slice::from_ref(&w.output));
            tvm_verify::apply_trace(&mut s, &trace).expect("generated traces apply");
            let f = tvm_te::lower(&s, &w.args, "gen").expect("generated schedules lower");
            (format!("{kind}/{seed}"), f)
        })
        .collect()
}

#[test]
fn simplifier_matches_substitution_on_generated_schedules() {
    for (name, f) in generated_kernels() {
        check_simplify_cuts(&name, &f.body);
    }
}

/// FNV-1a over every kernel's name and printed body.
fn digest(kernels: &[(String, LoweredFunc)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (name, f) in kernels {
        for b in name.bytes().chain([0]).chain(f.body.to_string().bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Digests of the corpus as the two-pass emission printed it (captured
/// on the commit before emission renamed thread-bound leaves in the plan).
const TWO_PASS: &[(&str, usize, u64)] = &[
    ("zoo", 465, 0xb05bcd9fc84d3876),
    ("tasks", 482, 0x7f6c3fbc425a0076),
    ("generated", 1000, 0x1f7487365a6aa44a),
];

#[test]
fn emission_prints_what_the_two_pass_emission_printed() {
    let got = [
        ("zoo", zoo_kernels()),
        ("tasks", task_kernels(100)),
        ("generated", generated_kernels()),
    ]
    .map(|(name, ks)| (name, ks.len(), digest(&ks)));
    let table: String = got
        .iter()
        .map(|(n, len, d)| format!("    (\"{n}\", {len}, 0x{d:016x}),\n"))
        .collect();
    let want: Vec<(&str, usize, u64)> = TWO_PASS.to_vec();
    assert_eq!(got.to_vec(), want, "printed bodies moved; now:\n{table}");
}

fn store(buf: &Var, index: Expr) -> Stmt {
    Stmt::store(buf, index, Expr::f32(1.0))
}

#[test]
fn nested_unit_loops_inline() {
    let (x, y) = (Var::int("x"), Var::int("y"));
    let b = Var::new("b", DType::float32());
    // The inner loop's min reads the outer variable.
    let s = Stmt::for_(
        &x,
        3,
        1,
        Stmt::for_(&y, x.clone() * 2, 1, store(&b, x.clone() * 10 + y.clone())),
    );
    check_simplify("nested", &s);
    assert_eq!(
        simplify_stmt(&s).to_string(),
        store(&b, Expr::int(36)).to_string()
    );
    // The same variable twice: the outer loop's value reaches the inner
    // body, whose variable it already replaced.
    let s = Stmt::for_(
        &x,
        3,
        1,
        Stmt::for_(&x, x.clone() + 1, 1, store(&b, x.to_expr())),
    );
    check_simplify("shadowed", &s);
    assert_eq!(
        simplify_stmt(&s).to_string(),
        store(&b, Expr::int(3)).to_string()
    );
    // A replacement is simplified where it is read: the range of a loop
    // that rebinds its free `y` folds `y % 8` to `y` there.
    let s = Stmt::for_(
        &x,
        y.clone() % 8,
        1,
        Stmt::for_(&y, 0, 4, store(&b, x.to_expr())),
    );
    check_simplify("rebound", &s);
    assert_eq!(
        simplify_stmt(&s).to_string(),
        Stmt::for_(&y, 0, 4, store(&b, y.to_expr())).to_string()
    );
    // A min that reads the loop's own variable reads the free one, once.
    let s = Stmt::for_(&x, x.clone() + 1, 1, store(&b, x.to_expr()));
    check_simplify("own variable", &s);
    assert_eq!(
        simplify_stmt(&s).to_string(),
        store(&b, x.clone() + 1).to_string()
    );
}

#[test]
fn unit_loop_variable_in_an_inner_extent_and_a_guard() {
    let (x, y) = (Var::int("x"), Var::int("y"));
    let b = Var::new("b", DType::float32());
    // for x in [2, 3) { for y in [0, 8 - x) { if x + y < 8 { b[y] } } }
    let guarded = Stmt::if_then(
        (x.clone() + y.clone()).lt(Expr::int(8)),
        store(&b, y.to_expr()),
    );
    let s = Stmt::for_(
        &x,
        2,
        1,
        Stmt::for_(&y, 0, Expr::int(8) - x.clone(), guarded),
    );
    check_simplify("extent and guard", &s);
    let out = simplify_stmt(&s);
    let StmtNode::For { extent, body, .. } = &*out.0 else {
        panic!("the ranged loop stays: {out}");
    };
    assert_eq!(extent.as_int(), Some(6));
    // 2 + y < 8 over y in [0, 5]: the guard is proved and dropped.
    assert!(matches!(&*body.0, StmtNode::Store { .. }), "{out}");
}

#[test]
fn unit_loop_with_a_nonzero_min_in_a_ranged_nest() {
    let (i, x) = (Var::int("i"), Var::int("x"));
    let b = Var::new("b", DType::float32());
    let t = Var::new("t", DType::float32());
    // for i in [0, 4) { alloc t; for x in [i * 4 + 5, +1) { b[x % 4 + i] } }
    let inner = Stmt::for_(
        &x,
        i.clone() * 4 + 5,
        1,
        store(&b, x.clone() % 4 + i.clone()),
    );
    let s = Stmt::for_(
        &i,
        0,
        4,
        Stmt::allocate(&t, DType::float32(), 4, MemScope::Local, inner),
    );
    check_simplify("nonzero min", &s);
    assert!(
        simplify_stmt(&s)
            .to_string()
            .contains("(((i * 4) + 5) % 4) + i"),
        "{}",
        simplify_stmt(&s)
    );
}
