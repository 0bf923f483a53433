//! Static analysis of lowered loop programs.
//!
//! Walks a [`LoweredFunc`] and summarizes, per memory access, the paper's
//! Fig. 13 statistics — access counts and the buffer footprint touched at
//! every loop depth — plus arithmetic counts and loop annotations. The
//! hardware models (`cpu`, `gpu`) and the autotuner's feature extractor
//! both consume this analysis.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tvm_ir::expr::ExprNode;
use tvm_ir::stmt::StmtNode;
use tvm_ir::{
    BinOp, CallKind, DType, Expr, ForKind, IdMap, Interval, LoweredFunc, MemScope, Stmt, ThreadTag,
    Var, VarId, Visitor,
};

/// One loop on the stack, outermost first.
#[derive(Clone, Debug)]
pub struct LoopLevel {
    /// Loop variable.
    pub var: Var,
    /// Constant lower bound (0 in generated code).
    pub min: i64,
    /// Constant extent.
    pub extent: i64,
    /// Execution kind.
    pub kind: ForKind,
}

/// A summarized load or store site.
#[derive(Clone, Debug)]
pub struct AccessRecord {
    /// Buffer variable id.
    pub buffer: VarId,
    /// Buffer display name, shared by every record of the buffer.
    pub name: Arc<str>,
    /// Memory scope the buffer was allocated in (global for params).
    pub scope: MemScope,
    /// Element type.
    pub dtype: DType,
    /// True for stores.
    pub is_store: bool,
    /// Dynamic execution count (product of enclosing loop extents).
    pub trips: f64,
    /// Distinct elements touched by the loops at depth `d..` for every
    /// depth `d` in `0..=depth` (index `depth` = single iteration).
    pub footprint_at_depth: Vec<f64>,
    /// Element stride with respect to the innermost enclosing loop
    /// variable; `0` if invariant, `-1` if unknown.
    pub innermost_stride: i64,
    /// Element stride with respect to `threadIdx.x`, if bound.
    pub thread_stride: Option<i64>,
    /// Enclosing loops, outermost first, shared by every record made
    /// under the same nest.
    pub loops: Arc<[LoopLevel]>,
}

impl AccessRecord {
    /// Reuse ratio at depth `d`: executed accesses inside the sub-nest per
    /// distinct element touched — the Fig. 13 "reuse" feature.
    pub fn reuse_at_depth(&self, d: usize) -> f64 {
        let inner_trips: f64 = self.loops[d..].iter().map(|l| l.extent as f64).product();
        let fp = self
            .footprint_at_depth
            .get(d)
            .copied()
            .unwrap_or(1.0)
            .max(1.0);
        inner_trips / fp
    }

    /// Bytes touched at depth `d`.
    pub fn bytes_at_depth(&self, d: usize) -> f64 {
        self.footprint_at_depth.get(d).copied().unwrap_or(1.0) * self.dtype.bytes() as f64
    }
}

/// Summary of a hardware-intrinsic call site.
#[derive(Clone, Debug)]
pub struct IntrinRecord {
    /// Intrinsic name.
    pub name: String,
    /// Dynamic execution count.
    pub trips: f64,
}

/// Whole-program analysis result.
#[derive(Clone, Debug, Default)]
pub struct ProgramAnalysis {
    /// Per-site access summaries.
    pub accesses: Vec<AccessRecord>,
    /// Total scalar floating/integer arithmetic operations executed.
    pub flops: f64,
    /// Flops executed inside vectorized loops (eligible for SIMD).
    pub vector_flops: f64,
    /// Flops executed inside parallel loops (eligible for multicore).
    pub parallel_flops: f64,
    /// Extent of the outermost parallel loop (1 if none).
    pub parallel_extent: i64,
    /// Dynamic executions of barriers.
    pub barriers: f64,
    /// Dynamic loop iterations started (loop overhead proxy); unrolled
    /// loops are free.
    pub loop_iterations: f64,
    /// Dynamic predicate (if/select) evaluations.
    pub branches: f64,
    /// Hardware intrinsic call sites.
    pub intrinsics: Vec<IntrinRecord>,
    /// Thread-axis extents, when bound.
    pub thread_extents: HashMap<ThreadTag, i64>,
    /// Per-scope allocated bytes (max live, approximated as sum).
    pub alloc_bytes: HashMap<MemScope, f64>,
}

impl ProgramAnalysis {
    /// Total threads per block (product of threadIdx extents).
    pub fn block_threads(&self) -> i64 {
        self.thread_extents
            .iter()
            .filter(|(t, _)| !t.is_block())
            .map(|(_, e)| *e)
            .product::<i64>()
            .max(1)
    }

    /// Total blocks in the grid (product of blockIdx extents).
    pub fn grid_blocks(&self) -> i64 {
        self.thread_extents
            .iter()
            .filter(|(t, _)| t.is_block())
            .map(|(_, e)| *e)
            .product::<i64>()
            .max(1)
    }
}

struct Walker {
    loops: Vec<LoopLevel>,
    /// `loops` as records hold it, built by the first access under a nest.
    shared_loops: Option<Arc<[LoopLevel]>>,
    /// Display name and scope of each buffer met so far; a buffer first met
    /// at an access was not allocated here, so it is a global parameter.
    buffers: IdMap<VarId, (Arc<str>, MemScope)>,
    out: ProgramAnalysis,
    cond_scale: f64,
}

static ANALYZE_CALLS: AtomicU64 = AtomicU64::new(0);

/// [`analyze`] calls since process start. An analysis is the price of a
/// cost-model query; callers that hold one are expected to reuse it
/// (`estimate_analysis`, the tuner's candidate memo), and deltas of this
/// count are how tests hold them to it.
pub fn analyze_calls() -> u64 {
    ANALYZE_CALLS.load(Ordering::Relaxed)
}

/// Analyzes a lowered function.
pub fn analyze(func: &LoweredFunc) -> ProgramAnalysis {
    ANALYZE_CALLS.fetch_add(1, Ordering::Relaxed);
    let mut w = Walker {
        loops: Vec::new(),
        shared_loops: None,
        buffers: IdMap::default(),
        out: ProgramAnalysis::default(),
        cond_scale: 1.0,
    };
    w.visit_stmt(&func.body);
    w.out
}

impl Walker {
    fn trips(&self) -> f64 {
        self.loops.iter().map(|l| l.extent as f64).product::<f64>() * self.cond_scale
    }

    fn in_kind(&self, pred: impl Fn(ForKind) -> bool) -> bool {
        self.loops.iter().any(|l| pred(l.kind))
    }

    fn record_access(&mut self, buffer: &Var, index: &Expr, is_store: bool) {
        let trips = self.trips();
        let footprints = self.footprints(index);
        let innermost_stride = self
            .loops
            .last()
            .map(|l| self.stride(index, l.var.id()))
            .unwrap_or(0);
        let thread_stride = self
            .loops
            .iter()
            .find(|l| matches!(l.kind, ForKind::ThreadBinding(ThreadTag::ThreadIdxX)))
            .map(|l| self.stride(index, l.var.id()));
        let (name, scope) = self
            .buffers
            .entry(buffer.id())
            .or_insert_with(|| (buffer.name().into(), MemScope::Global))
            .clone();
        let loops = self
            .shared_loops
            .get_or_insert_with(|| self.loops.as_slice().into());
        self.out.accesses.push(AccessRecord {
            buffer: buffer.id(),
            name,
            scope,
            dtype: buffer.dtype(),
            is_store,
            trips,
            footprint_at_depth: footprints,
            innermost_stride,
            thread_stride,
            loops: Arc::clone(loops),
        });
    }

    /// Interval width of `index` with loops `d..` ranging and the outer
    /// ones at their minimum, for every depth `d` in `0..=depth`. One map
    /// serves every depth: it starts with all loops ranging and pins one
    /// more loop per depth, and the width is evaluated again only where
    /// the newly pinned variable occurs in `index`. A loop whose range
    /// passes `i64` is left unbounded; where the width is unknown, the
    /// footprint is the trip count of the loops at that depth, the most it
    /// can be.
    fn footprints(&self, index: &Expr) -> Vec<f64> {
        let mut bounds: IdMap<VarId, Interval> =
            IdMap::with_capacity_and_hasher(self.loops.len(), Default::default());
        for l in &self.loops {
            match l.min.checked_add(l.extent - 1) {
                Some(hi) => bounds.insert(l.var.id(), Interval::new(l.min, hi)),
                None => bounds.remove(&l.var.id()),
            };
        }
        let reads = tvm_ir::collect_vars(index);
        let mut footprints = Vec::with_capacity(self.loops.len() + 1);
        let mut width = None;
        for d in 0..=self.loops.len() {
            let mut changed = d == 0;
            if d > 0 {
                // A loop shadowed by an inner loop of the same variable
                // leaves the inner range in place.
                let l = &self.loops[d - 1];
                if !self.loops[d..].iter().any(|m| m.var == l.var) {
                    bounds.insert(l.var.id(), Interval::point(l.min));
                    changed = reads.contains(&l.var);
                }
            }
            if changed {
                width = tvm_ir::eval_interval(index, &bounds).and_then(|iv| iv.extent());
            }
            footprints.push(match width {
                Some(n) => n as f64,
                None => self.loops[d..].iter().map(|l| l.extent as f64).product(),
            });
        }
        footprints
    }

    /// Element stride of `index` with respect to `var`: `f(var=1) -
    /// f(var=0)` with every other loop var at its minimum; `-1` when the
    /// index does not fold to a constant there.
    fn stride(&self, index: &Expr, var: VarId) -> i64 {
        let at = |v: i64| {
            tvm_ir::eval_const(index, &|id| {
                if id == var {
                    return Some(v);
                }
                let l = self.loops.iter().rev().find(|l| l.var.id() == id)?;
                Some(l.min)
            })
        };
        match (at(0), at(1)) {
            (Some(a), Some(b)) => b.checked_sub(a).unwrap_or(-1),
            _ => -1,
        }
    }
}

/// The walk reads every child except five, which it skips because reading
/// them would count address arithmetic as compute: store and load indices
/// (summarized by [`Walker::record_access`] instead), loop bounds,
/// allocation extents and attribute values. A load inside one of those is
/// not recorded either. An expression adds its own count after its
/// children's: the `f64` sums depend on that order in their last bits.
impl Visitor for Walker {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                // Skip: the bounds.
                let lo = min.as_int().unwrap_or(0);
                let n = extent.as_int().unwrap_or(1).max(0);
                if let ForKind::ThreadBinding(tag) = kind {
                    *self.out.thread_extents.entry(*tag).or_insert(1) *= n.max(1);
                }
                if !matches!(kind, ForKind::Unrolled | ForKind::ThreadBinding(_)) {
                    self.out.loop_iterations += self.trips() * n as f64;
                }
                if matches!(kind, ForKind::Parallel) && self.out.parallel_extent == 1 {
                    self.out.parallel_extent = n.max(1);
                }
                self.loops.push(LoopLevel {
                    var: var.clone(),
                    min: lo,
                    extent: n.max(1),
                    kind: *kind,
                });
                let enclosing = self.shared_loops.take();
                self.visit_stmt(body);
                self.loops.pop();
                self.shared_loops = enclosing;
            }
            StmtNode::Allocate {
                buffer,
                dtype,
                extent,
                scope,
                body,
            } => {
                // Skip: the extent.
                self.buffers
                    .insert(buffer.id(), (buffer.name().into(), *scope));
                let bytes = extent.as_int().unwrap_or(0) as f64 * dtype.bytes() as f64;
                *self.out.alloc_bytes.entry(*scope).or_insert(0.0) += bytes;
                self.visit_stmt(body);
            }
            StmtNode::Store {
                buffer,
                index,
                value,
                predicate,
            } => {
                // Skip: the index.
                self.record_access(buffer, index, true);
                self.visit_expr(value);
                if let Some(p) = predicate {
                    self.visit_expr(p);
                    self.out.branches += self.trips();
                }
            }
            StmtNode::IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                self.visit_expr(cond);
                self.out.branches += self.trips();
                self.visit_stmt(then_case);
                if let Some(e) = else_case {
                    // Both branches cost; assume the predicate is mostly
                    // true (guards) and weight the else branch lightly.
                    let saved = self.cond_scale;
                    self.cond_scale *= 0.5;
                    self.visit_stmt(e);
                    self.cond_scale = saved;
                }
            }
            StmtNode::Barrier => self.out.barriers += self.trips(),
            // Skip: the value.
            StmtNode::AttrStmt { body, .. } => self.visit_stmt(body),
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        match &*e.0 {
            ExprNode::Load {
                buffer,
                index,
                predicate,
            } => {
                // Skip: the index.
                self.record_access(buffer, index, false);
                if let Some(p) = predicate {
                    self.visit_expr(p);
                }
            }
            ExprNode::Binary { op, a, .. } => {
                self.walk_expr(e);
                let cost = match op {
                    BinOp::Div | BinOp::Mod if a.dtype().is_float() => 4.0,
                    _ => 1.0,
                };
                let t = self.trips() * cost;
                self.out.flops += t;
                if self.in_kind(|k| matches!(k, ForKind::Vectorized)) {
                    self.out.vector_flops += t;
                }
                if self.in_kind(|k| matches!(k, ForKind::Parallel)) {
                    self.out.parallel_flops += t;
                }
            }
            ExprNode::Cmp { .. } => {
                self.walk_expr(e);
                self.out.flops += self.trips();
            }
            ExprNode::Select { .. } => {
                self.walk_expr(e);
                self.out.branches += self.trips();
            }
            ExprNode::Call { name, kind, .. } => {
                self.walk_expr(e);
                match kind {
                    // Transcendentals cost ~8 scalar ops; popcount is a
                    // near-native instruction.
                    CallKind::PureIntrinsic => {
                        let unit = if name == "popcount" { 2.0 } else { 8.0 };
                        self.out.flops += self.trips() * unit;
                    }
                    CallKind::HardwareIntrinsic => {
                        let trips = self.trips();
                        self.out.intrinsics.push(IntrinRecord {
                            name: name.clone(),
                            trips,
                        });
                    }
                }
            }
            _ => self.walk_expr(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_te::{compute, create_schedule, lower, placeholder, reduce_axis, sum};

    fn matmul_func(tile: Option<i64>) -> LoweredFunc {
        let n = 64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let b = placeholder(&[n, n], DType::float32(), "B");
        let k = reduce_axis(n, "k");
        let c = compute(&[n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        let mut s = create_schedule(std::slice::from_ref(&c));
        if let Some(t) = tile {
            let ax = c.op.axes();
            let r = c.op.reduce_axes();
            let (yo, xo, yi, xi) = s.tile(&c, &ax[0], &ax[1], t, t).unwrap();
            let (ko, ki) = s.split(&c, &r[0], t).unwrap();
            s.reorder(&c, &[&yo, &xo, &ko, &yi, &xi, &ki]).unwrap();
        }
        lower(&s, &[a, b, c], "mm").expect("lowers")
    }

    #[test]
    fn flop_count_matches_matmul() {
        let f = matmul_func(None);
        let an = analyze(&f);
        // 64^3 multiply-adds = 2 * 64^3 flops.
        let expect = 2.0 * 64f64.powi(3);
        assert!(
            (an.flops - expect).abs() / expect < 0.05,
            "flops = {}",
            an.flops
        );
    }

    #[test]
    fn footprints_shrink_with_tiling() {
        let naive = analyze(&matmul_func(None));
        let tiled = analyze(&matmul_func(Some(8)));
        // Find the B loads (column-major walk, worst locality when naive).
        let b_naive = naive
            .accesses
            .iter()
            .find(|a| &*a.name == "B" && !a.is_store)
            .expect("B access");
        let b_tiled = tiled
            .accesses
            .iter()
            .find(|a| &*a.name == "B" && !a.is_store)
            .expect("B access");
        // Innermost two loops of the tiled version touch far fewer distinct
        // elements of B than the naive version's innermost two loops.
        let d_naive = b_naive.loops.len() - 2;
        let d_tiled = b_tiled.loops.len() - 2;
        assert!(
            b_tiled.footprint_at_depth[d_tiled] < b_naive.footprint_at_depth[d_naive],
            "tiled {} vs naive {}",
            b_tiled.footprint_at_depth[d_tiled],
            b_naive.footprint_at_depth[d_naive]
        );
    }

    #[test]
    fn stride_detection() {
        let f = matmul_func(None);
        let an = analyze(&f);
        let a_load = an
            .accesses
            .iter()
            .find(|x| &*x.name == "A" && !x.is_store)
            .expect("A");
        let b_load = an
            .accesses
            .iter()
            .find(|x| &*x.name == "B" && !x.is_store)
            .expect("B");
        // Innermost loop is k: A[y*64+k] has stride 1, B[k*64+x] stride 64.
        assert_eq!(a_load.innermost_stride, 1);
        assert_eq!(b_load.innermost_stride, 64);
    }

    #[test]
    fn trips_account_loops() {
        let f = matmul_func(None);
        let an = analyze(&f);
        let b_load = an
            .accesses
            .iter()
            .find(|x| &*x.name == "B" && !x.is_store)
            .expect("B");
        assert_eq!(b_load.trips, 64f64.powi(3));
        // Init store runs 64^2 times; update store 64^3.
        let stores: Vec<&AccessRecord> = an
            .accesses
            .iter()
            .filter(|a| &*a.name == "C" && a.is_store)
            .collect();
        assert_eq!(stores.len(), 2);
        let mut t: Vec<f64> = stores.iter().map(|a| a.trips).collect();
        t.sort_by(f64::total_cmp);
        assert_eq!(t, vec![64f64.powi(2), 64f64.powi(3)]);
    }

    #[test]
    fn reuse_ratio_reflects_locality() {
        let f = matmul_func(Some(8));
        let an = analyze(&f);
        let a_load = an
            .accesses
            .iter()
            .find(|x| &*x.name == "A" && !x.is_store)
            .expect("A");
        // Within one iteration of the innermost loop, reuse is 1.
        let d = a_load.loops.len();
        assert!((a_load.reuse_at_depth(d) - 1.0).abs() < 1e-9);
        // Across the whole nest there is massive reuse.
        assert!(a_load.reuse_at_depth(0) > 10.0);
    }

    /// `for i in [0, 8) { for j in [0, 4) { out[j] = in[index] } }`: the
    /// record of the load of `in`.
    fn load_record(index: impl Fn(&Var, &Var) -> Expr) -> AccessRecord {
        let (i, j) = (Var::int("i"), Var::int("j"));
        let (src, out) = (
            Var::new("in", DType::int32()),
            Var::new("out", DType::int32()),
        );
        let store = Stmt::store(&out, j.to_expr(), Expr::load(&src, index(&i, &j)));
        let body = Stmt::for_(&i, 0, 8, Stmt::for_(&j, 0, 4, store));
        let f = LoweredFunc {
            name: "f".into(),
            params: vec![src, out],
            param_dtypes: vec![DType::int32(); 2],
            param_extents: vec![64, 4],
            body,
        };
        analyze(&f).accesses.remove(1)
    }

    #[test]
    fn floordiv_and_mod_index_strides_and_footprints() {
        // (i*4 + j) / 2 * 16 + j % 2: j=0 -> 0, j=1 -> 1.
        let r = load_record(|i, j| (i.clone() * 4 + j.clone()) / 2 * 16 + j.clone() % 2);
        assert_eq!(r.innermost_stride, 1);
        // [0, 15*16 + 1] over the nest, i=0 pins it to [0, 16 + 1], one
        // element per iteration.
        assert_eq!(r.footprint_at_depth, vec![242.0, 18.0, 1.0]);
    }

    #[test]
    fn index_with_a_load_has_unknown_stride_and_trip_footprints() {
        let idx = Var::new("idx", DType::int32());
        let r = load_record(|_, j| Expr::load(&idx, j.to_expr()) + 1);
        assert_eq!(r.innermost_stride, -1);
        assert_eq!(r.footprint_at_depth, vec![32.0, 4.0, 1.0]);
    }
}
