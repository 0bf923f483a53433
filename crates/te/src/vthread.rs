//! Virtual-thread lowering and explicit memory-latency hiding (§4.4, Fig 8).
//!
//! Decoupled access-execute (DAE) accelerators run their load, compute and
//! store units concurrently; correctness is enforced by dependence-token
//! queues between units. This module implements the paper's two-step
//! lowering:
//!
//! 1. **Token injection** — within each loop level, buffer read/write sets
//!    are computed per statement group and classified by executing unit;
//!    RAW edges get `push_dep_to`/`pop_dep_from` pairs, and cyclic WAR
//!    edges (a unit overwriting a buffer a downstream unit still reads)
//!    additionally get seed credits before the loop and drain pops after
//!    it — reproducing Fig. 8's middle column.
//! 2. **Virtual-thread interleaving** — each `vthread` loop is unrolled;
//!    buffers allocated inside it are duplicated per virtual thread and the
//!    copies' instruction streams are interleaved under the shared serial
//!    loops, yielding the single synchronized instruction stream of Fig.
//!    8's right column. The hardware (the VDLA simulator) then recovers
//!    pipeline parallelism from the tokens.

use std::collections::HashSet;

use tvm_ir::expr::ExprNode;
use tvm_ir::stmt::StmtNode;
use tvm_ir::{
    BufferScopes, Expr, ForKind, IdMap, MemScope, Mutator, PipeStage, Stmt, Var, VarId, Visitor,
};

/// Replaces `vthread` loops with ordinary serial loops — the correct
/// lowering for targets without a DAE pipeline (CPU/GPU).
pub fn lower_vthreads(s: &Stmt) -> Stmt {
    struct M;
    impl Mutator for M {
        // Only loop kinds change: no expression is rewritten.
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            e.clone()
        }

        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::For {
                var,
                min,
                extent,
                kind: ForKind::VThread,
                body,
            } = &*s.0
            {
                let body = self.mutate_stmt(body);
                return Stmt::loop_(var, min.clone(), extent.clone(), ForKind::Serial, body);
            }
            self.default_mutate_stmt(s)
        }
    }
    M.mutate_stmt(s)
}

/// Full DAE lowering: token injection plus virtual-thread interleaving.
pub fn lower_dae(s: &Stmt) -> Stmt {
    let scopes = s.alloc_scopes();
    let mut found = false;
    let out = map_vthreads(s, &scopes, &mut found);
    if found {
        out
    } else {
        inject_sync(&out, false, &scopes)
    }
}

fn map_vthreads(s: &Stmt, scopes: &BufferScopes, found: &mut bool) -> Stmt {
    struct M<'a> {
        scopes: &'a BufferScopes,
        found: &'a mut bool,
    }
    impl Mutator for M<'_> {
        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::For {
                var,
                min,
                extent,
                kind: ForKind::VThread,
                body,
            } = &*s.0
            {
                *self.found = true;
                let body = self.mutate_stmt(body);
                let lo = min.as_int().unwrap_or(0);
                let n = extent.as_int().unwrap_or(1);
                let synced = inject_sync(&body, true, self.scopes);
                return interleave(&synced, var, lo, n);
            }
            self.default_mutate_stmt(s)
        }
    }
    M {
        scopes,
        found: &mut *found,
    }
    .mutate_stmt(s)
}

fn scope_of(scopes: &BufferScopes, id: VarId) -> MemScope {
    scopes
        .get(&id)
        .map_or(MemScope::Global, |&(scope, _)| scope)
}

/// The unit that executes a store into a buffer of the given scope.
fn unit_of_store(scope: MemScope) -> PipeStage {
    match scope {
        MemScope::InpBuffer | MemScope::WgtBuffer => PipeStage::Load,
        MemScope::AccBuffer | MemScope::Local | MemScope::Shared => PipeStage::Compute,
        MemScope::Global => PipeStage::Store,
    }
}

fn unit_of_intrinsic(name: &str) -> Option<PipeStage> {
    if name.contains("load") {
        Some(PipeStage::Load)
    } else if name.contains("store") {
        Some(PipeStage::Store)
    } else if name.contains("gemm") || name.contains("alu") || name.contains("fill") {
        Some(PipeStage::Compute)
    } else {
        None
    }
}

/// Per-item buffer access summary: which unit writes / reads each buffer.
#[derive(Default, Clone, Debug)]
struct GroupInfo {
    writes: IdMap<VarId, PipeStage>,
    reads: IdMap<VarId, Vec<PipeStage>>,
}

fn group_info(s: &Stmt, scopes: &BufferScopes) -> GroupInfo {
    struct G<'a> {
        scopes: &'a BufferScopes,
        info: GroupInfo,
    }
    impl G<'_> {
        fn add_read(&mut self, id: VarId, unit: PipeStage) {
            let v = self.info.reads.entry(id).or_default();
            if !v.contains(&unit) {
                v.push(unit);
            }
        }
        fn collect_loads(&mut self, e: &Expr, unit: PipeStage) {
            struct L<'b, 'c> {
                g: &'b mut G<'c>,
                unit: PipeStage,
            }
            impl Visitor for L<'_, '_> {
                fn visit_expr(&mut self, e: &Expr) {
                    if let ExprNode::Load { buffer, .. } = &*e.0 {
                        self.g.add_read(buffer.id(), self.unit);
                    }
                    self.walk_expr(e);
                }
            }
            L { g: self, unit }.visit_expr(e);
        }
    }
    impl Visitor for G<'_> {
        fn visit_stmt(&mut self, s: &Stmt) {
            match &*s.0 {
                StmtNode::Store {
                    buffer,
                    index,
                    value,
                    predicate,
                } => {
                    let unit = unit_of_store(scope_of(self.scopes, buffer.id()));
                    self.info.writes.insert(buffer.id(), unit);
                    self.collect_loads(value, unit);
                    self.collect_loads(index, unit);
                    if let Some(p) = predicate {
                        self.collect_loads(p, unit);
                    }
                }
                StmtNode::Evaluate(e) => {
                    if let ExprNode::Call { name, args, .. } = &*e.0 {
                        if let Some(unit) = unit_of_intrinsic(name) {
                            // Convention: the first buffer-handle argument is
                            // the output; the rest are inputs.
                            let mut first = true;
                            for a in args {
                                if let ExprNode::Var(v) = &*a.0 {
                                    if first {
                                        self.info.writes.insert(v.id(), unit);
                                        first = false;
                                    } else {
                                        self.add_read(v.id(), unit);
                                    }
                                }
                            }
                        }
                    }
                    self.walk_stmt(s);
                }
                _ => self.walk_stmt(s),
            }
        }
    }
    let mut g = G {
        scopes,
        info: GroupInfo::default(),
    };
    g.visit_stmt(s);
    g.info
}

/// Injects DAE tokens across the whole statement. `cyclic_top` treats the
/// outermost statement sequence as the body of an implicit enclosing loop
/// (true for virtual-thread bodies, which repeat per outer tile).
pub fn inject_sync(s: &Stmt, cyclic_top: bool, scopes: &BufferScopes) -> Stmt {
    let rewritten = rewrite_loops(s, scopes);
    let (body, seeds, drains) = tokenize_level(&rewritten, cyclic_top, scopes);
    let mut items = seeds;
    items.push(body);
    items.extend(drains);
    Stmt::seq(items)
}

/// Recursively processes inner loops: each serial loop body becomes a
/// tokenized level, with its cyclic seeds/drains hoisted around the loop.
fn rewrite_loops(s: &Stmt, scopes: &BufferScopes) -> Stmt {
    struct R<'a> {
        scopes: &'a BufferScopes,
    }
    impl Mutator for R<'_> {
        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if let StmtNode::For {
                var,
                min,
                extent,
                kind,
                body,
            } = &*s.0
            {
                if !matches!(kind, ForKind::VThread) {
                    let body = self.mutate_stmt(body);
                    let (body, seeds, drains) = tokenize_level(&body, true, self.scopes);
                    let f = Stmt::loop_(var, min.clone(), extent.clone(), *kind, body);
                    let mut items = seeds;
                    items.push(f);
                    items.extend(drains);
                    return Stmt::seq(items);
                }
            }
            self.default_mutate_stmt(s)
        }
    }
    R { scopes }.mutate_stmt(s)
}

/// Tokenizes one level. Returns the transformed statement plus the seed
/// credits and drain pops that must be placed before/after the enclosing
/// loop.
fn tokenize_level(s: &Stmt, cyclic: bool, scopes: &BufferScopes) -> (Stmt, Vec<Stmt>, Vec<Stmt>) {
    match &*s.0 {
        // Transparent wrappers: the level continues inside.
        StmtNode::Allocate {
            buffer,
            dtype,
            extent,
            scope,
            body,
        } => {
            let (b, seeds, drains) = tokenize_level(body, cyclic, scopes);
            (
                Stmt::allocate(buffer, *dtype, extent.clone(), *scope, b),
                seeds,
                drains,
            )
        }
        StmtNode::LetStmt { var, value, body } => {
            let (b, seeds, drains) = tokenize_level(body, cyclic, scopes);
            (
                Stmt::new(StmtNode::LetStmt {
                    var: var.clone(),
                    value: value.clone(),
                    body: b,
                }),
                seeds,
                drains,
            )
        }
        StmtNode::Seq(items) => {
            let (items, seeds, drains) = tokenize_items(items, cyclic, scopes);
            (Stmt::seq(items), seeds, drains)
        }
        _ => {
            let (items, seeds, drains) = tokenize_items(std::slice::from_ref(s), cyclic, scopes);
            (Stmt::seq(items), seeds, drains)
        }
    }
}

fn push_tok(from: PipeStage, to: PipeStage) -> Stmt {
    Stmt::new(StmtNode::PushDep { from, to })
}

fn pop_tok(by: PipeStage, from: PipeStage) -> Stmt {
    Stmt::new(StmtNode::PopDep { by, from })
}

fn tokenize_items(
    items: &[Stmt],
    cyclic: bool,
    scopes: &BufferScopes,
) -> (Vec<Stmt>, Vec<Stmt>, Vec<Stmt>) {
    let infos: Vec<GroupInfo> = items.iter().map(|it| group_info(it, scopes)).collect();
    let n = items.len();
    let mut prefix: Vec<Vec<Stmt>> = vec![Vec::new(); n];
    let mut suffix: Vec<Vec<Stmt>> = vec![Vec::new(); n];
    let mut seeds: Vec<Stmt> = Vec::new();
    let mut drains: Vec<Stmt> = Vec::new();
    let mut raw_done: HashSet<(usize, usize, PipeStage, PipeStage)> = HashSet::new();
    let mut war_done: HashSet<(usize, usize, PipeStage, PipeStage)> = HashSet::new();

    // Forward RAW: item i writes a buffer item j (> i) reads on another unit.
    for i in 0..n {
        for j in i + 1..n {
            for (buf, uw) in &infos[i].writes {
                if let Some(readers) = infos[j].reads.get(buf) {
                    for ur in readers {
                        if ur != uw && raw_done.insert((i, j, *uw, *ur)) {
                            suffix[i].push(push_tok(*uw, *ur));
                            prefix[j].push(pop_tok(*ur, *uw));
                        }
                    }
                }
            }
        }
    }
    // Cyclic WAR: item iw's next-iteration write must wait for item ir's
    // current-iteration read to finish.
    if cyclic {
        for iw in 0..n {
            for ir in 0..n {
                if iw == ir {
                    continue;
                }
                for (buf, uw) in &infos[iw].writes {
                    if let Some(readers) = infos[ir].reads.get(buf) {
                        for ur in readers {
                            if ur != uw && war_done.insert((iw, ir, *uw, *ur)) {
                                prefix[iw].push(pop_tok(*uw, *ur));
                                suffix[ir].push(push_tok(*ur, *uw));
                                seeds.push(push_tok(*ur, *uw));
                                drains.push(pop_tok(*uw, *ur));
                            }
                        }
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for (i, item) in items.iter().enumerate() {
        out.append(&mut prefix[i]);
        out.push(item.clone());
        out.append(&mut suffix[i]);
    }
    (out, seeds, drains)
}

type CopySubst = (i64, IdMap<VarId, Var>);

/// Unrolls a virtual-thread loop, duplicating buffers allocated inside it
/// and interleaving the copies' statements under shared serial loops.
pub fn interleave(body: &Stmt, var: &Var, lo: i64, n: i64) -> Stmt {
    let copies: Vec<CopySubst> = (0..n).map(|i| (lo + i, IdMap::default())).collect();
    push_copies(body, var, &copies)
}

/// True when the subtree contains a pipeline boundary: a DMA pragma region
/// or dependence tokens.
fn has_boundary(s: &Stmt) -> bool {
    tvm_ir::find_stmt(s, |s| match &*s.0 {
        StmtNode::AttrStmt { key, .. } if key.starts_with("pragma.") => Some(true),
        StmtNode::PushDep { .. } | StmtNode::PopDep { .. } => Some(true),
        _ => None,
    })
}

/// True when the statement contains a loop that must stay shared across
/// virtual threads: a loop whose body has pipeline boundaries is the
/// software-pipeline loop the copies interleave within. Everything else —
/// including pure-compute loop nests and the tokens bracketing them — is
/// duplicated whole per copy so each copy's token/op bracket stays intact.
/// A pragma region is a leaf here: its loops are not looked into.
fn contains_shared_loop(s: &Stmt) -> bool {
    tvm_ir::find_stmt(s, |s| match &*s.0 {
        StmtNode::AttrStmt { key, .. } if key.starts_with("pragma.") => Some(false),
        StmtNode::For { body, .. } => Some(has_boundary(body)),
        _ => None,
    })
}

fn dup_for_copy(s: &Stmt, var: &Var, copy: &CopySubst) -> Stmt {
    let (i, bufmap) = copy;
    let mut vsub = IdMap::default();
    vsub.insert(var.id(), Expr::int(*i));
    let s1 = tvm_ir::substitute_stmt(s, &vsub);
    crate::rewrite::substitute_buffers(&s1, bufmap)
}

fn push_copies(s: &Stmt, var: &Var, copies: &[CopySubst]) -> Stmt {
    match &*s.0 {
        StmtNode::For {
            var: lv,
            min,
            extent,
            kind,
            body,
        } if !matches!(kind, ForKind::VThread) => {
            if has_boundary(body) {
                // Pipeline loop: shared across copies, interleave inside.
                Stmt::loop_(
                    lv,
                    min.clone(),
                    extent.clone(),
                    *kind,
                    push_copies(body, var, copies),
                )
            } else {
                // Pure compute nest: one whole copy per virtual thread.
                Stmt::seq(copies.iter().map(|c| dup_for_copy(s, var, c)).collect())
            }
        }
        StmtNode::Seq(items) => {
            // Interleave at per-virtual-thread *group* granularity (Fig. 8
            // right column): maximal runs of leaf statements — including
            // their dependence tokens — are emitted copy-by-copy, so a
            // unit's token pops pair with the pushes of the same copy's
            // producers; statements containing shared loops recurse.
            let mut out: Vec<Stmt> = Vec::new();
            let mut run: Vec<Stmt> = Vec::new();
            let flush = |run: &mut Vec<Stmt>, out: &mut Vec<Stmt>| {
                if run.is_empty() {
                    return;
                }
                for copy in copies {
                    for item in run.iter() {
                        out.push(dup_for_copy(item, var, copy));
                    }
                }
                run.clear();
            };
            for item in items {
                if contains_shared_loop(item) {
                    flush(&mut run, &mut out);
                    out.push(push_copies(item, var, copies));
                } else {
                    run.push(item.clone());
                }
            }
            flush(&mut run, &mut out);
            Stmt::seq(out)
        }
        StmtNode::Allocate {
            buffer,
            dtype,
            extent,
            scope,
            body,
        } => {
            let mut new_copies = copies.to_vec();
            let mut fresh: Vec<Var> = Vec::new();
            for (i, (_, map)) in new_copies.iter_mut().enumerate() {
                let nv = Var::new(format!("{}.v{}", buffer.name(), i), buffer.dtype());
                map.insert(buffer.id(), nv.clone());
                fresh.push(nv);
            }
            let mut inner = push_copies(body, var, &new_copies);
            for nv in fresh.into_iter().rev() {
                inner = Stmt::allocate(&nv, *dtype, extent.clone(), *scope, inner);
            }
            inner
        }
        // Non-pragma attributes are transparent.
        StmtNode::AttrStmt { key, value, body } if !key.starts_with("pragma.") => {
            Stmt::attr(key.clone(), value.clone(), push_copies(body, var, copies))
        }
        // Single leaf: one copy per virtual thread.
        _ => Stmt::seq(copies.iter().map(|c| dup_for_copy(s, var, c)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::{DType, Interp};

    #[test]
    fn serialize_vthreads_preserves_semantics() {
        let out = Var::new("O", DType::float32());
        let v = Var::int("vt");
        let i = Var::int("i");
        let body = Stmt::for_(
            &i,
            0,
            4,
            Stmt::store(
                &out,
                v.clone() * 4 + i.clone(),
                (v.clone() * 4 + i.clone()).cast(DType::float32()),
            ),
        );
        let s = Stmt::loop_(&v, 0, 2, ForKind::VThread, body);
        let lowered = lower_vthreads(&s);
        let f = tvm_ir::LoweredFunc {
            name: "t".into(),
            params: vec![out],
            param_dtypes: vec![DType::float32()],
            param_extents: vec![8],
            body: lowered,
        };
        let mut arrays = vec![vec![0.0f32; 8]];
        Interp::new().run_f32(&f, &mut arrays).expect("runs");
        assert_eq!(arrays[0], vec![0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn interleave_duplicates_buffers_and_preserves_semantics() {
        // Each vthread accumulates into its own local buffer, then writes
        // back; interleaving must keep the accumulators separate.
        let out = Var::new("O", DType::float32());
        let acc = Var::new("acc", DType::float32());
        let v = Var::int("vt");
        let k = Var::int("k");
        let init = Stmt::store(&acc, Expr::int(0), Expr::f32(0.0));
        let upd = Stmt::store(
            &acc,
            Expr::int(0),
            Expr::load(&acc, Expr::int(0)) + (v.clone() + 1).cast(DType::float32()),
        );
        let kloop = Stmt::for_(&k, 0, 3, upd);
        let wb = Stmt::store(&out, v.to_expr(), Expr::load(&acc, Expr::int(0)));
        let body = Stmt::allocate(
            &acc,
            DType::float32(),
            1,
            MemScope::AccBuffer,
            Stmt::seq(vec![init, kloop, wb]),
        );
        let s = Stmt::loop_(&v, 0, 2, ForKind::VThread, body);
        let lowered = lower_dae(&s);
        let f = tvm_ir::LoweredFunc {
            name: "t".into(),
            params: vec![out],
            param_dtypes: vec![DType::float32()],
            param_extents: vec![2],
            body: lowered,
        };
        let mut arrays = vec![vec![0.0f32; 2]];
        Interp::new().run_f32(&f, &mut arrays).expect("runs");
        assert_eq!(arrays[0], vec![3.0, 6.0]);
    }

    #[test]
    fn tokens_inserted_for_load_compute_pipeline() {
        // inp-buffer fill (load unit) then acc accumulate (compute unit)
        // inside a loop: expect RAW push/pop and cyclic WAR tokens with
        // seeds/drains.
        let inp = Var::new("il", DType::float32());
        let acc = Var::new("acc", DType::float32());
        let src = Var::new("A", DType::float32());
        let k = Var::int("k");
        let load = Stmt::store(&inp, Expr::int(0), Expr::load(&src, k.to_expr()));
        let compute = Stmt::store(
            &acc,
            Expr::int(0),
            Expr::load(&acc, Expr::int(0)) + Expr::load(&inp, Expr::int(0)),
        );
        let body = Stmt::seq(vec![load, compute]);
        let kloop = Stmt::for_(&k, 0, 4, body);
        let prog = Stmt::allocate(
            &inp,
            DType::float32(),
            1,
            MemScope::InpBuffer,
            Stmt::allocate(&acc, DType::float32(), 1, MemScope::AccBuffer, kloop),
        );
        let out = lower_dae(&prog);
        let text = out.to_string();
        assert!(text.contains("ld.push_dep_to(ex)"), "{text}");
        assert!(text.contains("ex.pop_dep_from(ld)"), "{text}");
        assert!(text.contains("ex.push_dep_to(ld)"), "{text}");
        assert!(text.contains("ld.pop_dep_from(ex)"), "{text}");
        // Program still computes the same result.
        let f = tvm_ir::LoweredFunc {
            name: "t".into(),
            params: vec![src.clone()],
            param_dtypes: vec![DType::float32()],
            param_extents: vec![4],
            body: out,
        };
        let mut arrays = vec![vec![1.0f32, 2.0, 3.0, 4.0]];
        Interp::new().run_f32(&f, &mut arrays).expect("runs");
    }

    #[test]
    fn token_balance_in_loops() {
        // Static token balance: per (from,to) queue, pushes == pops when
        // weighting by loop trip counts.
        let inp = Var::new("il", DType::float32());
        let acc = Var::new("acc", DType::float32());
        let src = Var::new("A", DType::float32());
        let k = Var::int("k");
        let load = Stmt::store(&inp, Expr::int(0), Expr::load(&src, k.to_expr()));
        let compute = Stmt::store(
            &acc,
            Expr::int(0),
            Expr::load(&acc, Expr::int(0)) + Expr::load(&inp, Expr::int(0)),
        );
        let kloop = Stmt::for_(&k, 0, 7, Stmt::seq(vec![load, compute]));
        let prog = Stmt::allocate(
            &inp,
            DType::float32(),
            1,
            MemScope::InpBuffer,
            Stmt::allocate(&acc, DType::float32(), 1, MemScope::AccBuffer, kloop),
        );
        let out = lower_dae(&prog);
        fn count(s: &Stmt, mult: i64, pushes: &mut i64, pops: &mut i64) {
            match &*s.0 {
                StmtNode::PushDep { .. } => *pushes += mult,
                StmtNode::PopDep { .. } => *pops += mult,
                StmtNode::For { extent, body, .. } => {
                    count(body, mult * extent.as_int().unwrap_or(1), pushes, pops)
                }
                StmtNode::Seq(v) => {
                    for it in v {
                        count(it, mult, pushes, pops);
                    }
                }
                StmtNode::Allocate { body, .. }
                | StmtNode::AttrStmt { body, .. }
                | StmtNode::LetStmt { body, .. } => count(body, mult, pushes, pops),
                _ => {}
            }
        }
        let (mut pushes, mut pops) = (0, 0);
        count(&out, 1, &mut pushes, &mut pops);
        assert!(pushes > 0);
        assert_eq!(pushes, pops, "token queues must balance:\n{out}");
    }
}
