//! Automatic sketch generation: schedule search spaces derived from the
//! tensor-expression DAG itself, with no hand-written template.
//!
//! A *sketch* is a structural schedule skeleton — multi-level tiling,
//! producer inlining, cache-stage placement, thread binding — enumerated
//! by walking the DAG ([`SketchTask::analyze`]). Each sketch leaves
//! *holes*: tile extents, compute-at positions, and annotation choices
//! (vectorize / parallel / unroll), declared as knobs of an ordinary
//! [`ConfigSpace`]. [`sketch_task`] packages the whole thing as a
//! [`TuningTask`], so the existing tuners — including the evolutionary
//! search and the journal-backed replay machinery — drive sketch spaces
//! and hand-written template spaces identically.
//!
//! Knob names are deliberately shared across workloads (`sketch`,
//! `t0`..`tN`, `r0`, `at`, `use_shared`, `vec`, `par`, `unroll`): the
//! transfer path ([`crate::transfer`]) maps a neighbor task's best
//! configs knob-by-knob onto a new task's space, which only works when
//! "tile the innermost axis by 8" means the same thing everywhere.
//!
//! Not every DAG is sketchable (symbolic extents, interior reductions,
//! multiple outputs). [`sketch_task`] then returns
//! [`TuneError::NotSketchable`] and the caller falls back to its
//! hand-written template — sketches extend the system, they do not
//! remove the escape hatch.

use std::sync::Arc;

use tvm_ir::{MemScope, ThreadTag};
use tvm_sim::Target;
use tvm_te::{ComputeBody, IterVar, Schedule, TeError, Tensor};

use crate::config::{ConfigEntity, ConfigSpace};
use crate::error::TuneError;
use crate::planned::{apply_annotations, cooperative_load, planned_task, AnnPoints};
use crate::tuner::TuningTask;

/// Cap on tile-knob options (divisors up to this bound).
const MAX_TILE: i64 = 32;
/// Cap on reduce-split options.
const MAX_RSPLIT: i64 = 64;

/// One structural derivation the `sketch` knob selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SketchKind {
    /// CPU: per-axis tiling, reduce split, fixed accumulator-friendly
    /// reorder (outer tiles, reduce outer, inner tiles, reduce inner).
    CpuTile,
    /// CPU: [`SketchKind::CpuTile`] plus a local cache-write accumulator
    /// attached at a knob-chosen outer loop.
    CpuTileCache,
    /// CPU: fuse-all + split for injective (no-reduction) anchors.
    CpuInjective,
    /// GPU: two-level thread tiling with block/thread binding, local
    /// accumulator, optional shared-memory cooperative fetch.
    GpuThreadTile,
    /// GPU: flat fuse-all thread mapping for injective anchors.
    GpuInjective,
}

/// The sketchable structure of a tensor-expression DAG: the anchor
/// (sole output) everything is scheduled around, the interior injective
/// producers each derivation inlines, and the enumerated sketches.
pub struct SketchTask {
    /// The single output tensor all derivations schedule.
    pub anchor: Tensor,
    /// Interior `Plain` producers inlined by every derivation.
    pub inlined: Vec<Tensor>,
    /// Placeholder inputs read (transitively) by the anchor.
    pub inputs: Vec<Tensor>,
    /// Tensors the anchor's body reads *directly* — the shared-memory
    /// cache candidates on GPU. Caching the direct read (which may be an
    /// inlined interior stage such as a zero-pad) keeps the anchor's
    /// indexing into the cached buffer affine, so the shared-memory
    /// footprint stays bounded; caching the placeholder underneath a
    /// `Select`-guarded pad would not.
    shared_reads: Vec<Tensor>,
    spatial_extents: Vec<i64>,
    reduce_extents: Vec<i64>,
    sketches: Vec<SketchKind>,
}

impl SketchTask {
    /// Walks the DAG and decides whether (and how) it can be sketched.
    pub fn analyze(outputs: &[Tensor], target: &Target) -> Result<SketchTask, TuneError> {
        let ns = |reason: &str| TuneError::NotSketchable {
            reason: reason.to_string(),
        };
        if outputs.len() != 1 {
            return Err(ns("multi-output DAGs need a hand-written template"));
        }
        let anchor = outputs[0].clone();
        let Some(spec) = anchor.op.spec().cloned() else {
            return Err(ns("output is a placeholder, nothing to schedule"));
        };
        let spatial_extents: Vec<i64> = anchor.shape().to_vec();
        if spatial_extents.iter().any(|&e| e < 1) {
            return Err(ns("non-positive spatial extent"));
        }
        let mut reduce_extents = Vec::new();
        for r in anchor.op.reduce_axes() {
            match r.dom.const_extent() {
                Some(e) if e >= 1 => reduce_extents.push(e),
                _ => return Err(ns("symbolic reduction extent")),
            }
        }
        // Interior ops must be injective (Plain) so every derivation can
        // inline them; an interior reduction would need its own anchor.
        let mut inlined = Vec::new();
        let mut inputs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut work: Vec<Tensor> = spec.reads.clone();
        while let Some(t) = work.pop() {
            if !seen.insert(t.op_id()) {
                continue;
            }
            match t.op.spec() {
                None => inputs.push(t),
                Some(s) => match &s.body {
                    ComputeBody::Plain(_) => {
                        work.extend(s.reads.iter().cloned());
                        inlined.push(t);
                    }
                    ComputeBody::Reduce { .. } => {
                        return Err(ns("interior reduction (multi-anchor DAG)"))
                    }
                },
            }
        }
        // Stable order for determinism: the worklist order depends on
        // read order, which is deterministic, but sort by name anyway so
        // the derivation is robust to future traversal changes.
        inlined.sort_by(|a, b| a.name().cmp(b.name()));
        inputs.sort_by(|a, b| a.name().cmp(b.name()));
        let mut shared_reads: Vec<Tensor> = Vec::new();
        for t in &spec.reads {
            if shared_reads.iter().all(|r| r.op_id() != t.op_id()) {
                shared_reads.push(t.clone());
            }
        }
        shared_reads.sort_by(|a, b| a.name().cmp(b.name()));
        let sketches = match (target.is_gpu(), reduce_extents.is_empty()) {
            (false, false) => vec![SketchKind::CpuTile, SketchKind::CpuTileCache],
            (false, true) => vec![SketchKind::CpuInjective],
            (true, false) => vec![SketchKind::GpuThreadTile],
            (true, true) => vec![SketchKind::GpuInjective],
        };
        Ok(SketchTask {
            anchor,
            inlined,
            inputs,
            shared_reads,
            spatial_extents,
            reduce_extents,
            sketches,
        })
    }

    /// Number of structural derivations.
    pub fn sketch_count(&self) -> usize {
        self.sketches.len()
    }

    /// Declares the config space covering every derivation's holes.
    pub fn space(&self, target: &Target) -> ConfigSpace {
        let mut space = ConfigSpace::new();
        let sketch_opts: Vec<i64> = (0..self.sketches.len() as i64).collect();
        space.define_knob("sketch", &sketch_opts);
        if target.is_gpu() {
            if self.reduce_extents.is_empty() {
                let total: i64 = self.spatial_extents.iter().product();
                space.define_split("t0", total.max(1), 256);
            } else {
                // One tile knob per spatial axis (same `t{j}` vocabulary
                // as the CPU sketches, so configs transfer across
                // targets); the inner tiles fuse into the thread index.
                // Axes wide enough also get a per-thread register step
                // `s{j}` — each thread then owns an `s{j}`-wide micro-tile
                // accumulated in registers (third tiling level).
                for (j, &e) in self.spatial_extents.iter().enumerate() {
                    space.define_split(format!("t{j}"), e, MAX_TILE);
                    if e >= 4 {
                        space.define_knob(format!("s{j}"), &[1, 2, 4]);
                    }
                }
                space.define_split("r0", self.reduce_extents[0], MAX_RSPLIT);
                space.define_knob("use_shared", &[0, 1]);
                space.define_knob("unroll", &[0, 1, 2]);
                // Occupancy-heuristic seeds: fill the thread tiles to a
                // target block size, keep the register steps small, and
                // split the reduce axis as deep as it goes — the
                // starting points a GPU programmer tries first. Two fill
                // orders: "column" gives the budget to the innermost
                // (coalescing) axes; "row" maxes the innermost axis,
                // then hands the rest to the outermost axes (channel-
                // heavy blocks, the shape conv kernels favor). The
                // tuner measures these in generation zero, so the cost
                // model is anchored at sane structures before random
                // exploration takes over.
                let max_divisor =
                    |e: i64, cap: i64| (1..=e.min(cap)).filter(|d| e % d == 0).max().unwrap_or(1);
                let n_axes = self.spatial_extents.len();
                let r0 = max_divisor(self.reduce_extents[0], MAX_RSPLIT);
                let r0_shallow = max_divisor(self.reduce_extents[0], 16);
                let mut tilings: Vec<Vec<(String, i64)>> = Vec::new();
                for cap in [1024i64, 256] {
                    // Column fill: innermost axis outward.
                    let mut col: Vec<(String, i64)> = Vec::new();
                    let mut budget = cap;
                    for (j, &e) in self.spatial_extents.iter().enumerate().rev() {
                        let t = max_divisor(e, MAX_TILE.min(budget));
                        budget = (budget / t).max(1);
                        col.push((format!("t{j}"), t));
                    }
                    // Row fill: innermost axis maxed, remaining budget
                    // from the outermost axis inward.
                    let mut row: Vec<(String, i64)> = Vec::new();
                    let mut budget = cap;
                    if let Some((&last, rest)) = self.spatial_extents.split_last() {
                        let t = max_divisor(last, MAX_TILE.min(budget));
                        budget = (budget / t).max(1);
                        row.push((format!("t{}", n_axes - 1), t));
                        for (j, &e) in rest.iter().enumerate() {
                            let t = max_divisor(e, MAX_TILE.min(budget));
                            budget = (budget / t).max(1);
                            row.push((format!("t{j}"), t));
                        }
                    }
                    tilings.push(col);
                    tilings.push(row);
                }
                // Variants per tiling: shared memory with and without a
                // register micro-tile; plus (first tiling only) a
                // shallow reduce chunk for when the full-tile footprint
                // overflows shared memory, and a plain global-memory
                // form.
                let mut variants: Vec<(usize, i64, i64, i64)> = Vec::new();
                for (i, _) in tilings.iter().enumerate() {
                    variants.push((i, 1, r0, 1));
                    variants.push((i, 1, r0, 2));
                }
                variants.push((0, 1, r0_shallow, 1));
                variants.push((0, 0, r0, 1));
                for (i, shared, r, step) in variants {
                    let mut kv: Vec<(&str, i64)> =
                        tilings[i].iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let steps: Vec<String> = (0..n_axes).map(|j| format!("s{j}")).collect();
                    for sname in &steps {
                        kv.push((sname.as_str(), step));
                    }
                    kv.push(("r0", r));
                    kv.push(("use_shared", shared));
                    kv.push(("unroll", 1));
                    space.add_seed(&kv);
                }
            }
        } else {
            if self.reduce_extents.is_empty() {
                let total: i64 = self.spatial_extents.iter().product();
                space.define_split("t0", total.max(1), 64);
            } else {
                for (j, &e) in self.spatial_extents.iter().enumerate() {
                    space.define_split(format!("t{j}"), e, MAX_TILE);
                }
                space.define_split("r0", self.reduce_extents[0], MAX_RSPLIT);
                space.define_knob("at", &[0, 1]);
                space.define_knob("unroll", &[0, 1, 2]);
            }
            space.define_knob("vec", &[0, 1]);
            space.define_knob("par", &[0, 1]);
        }
        space
    }

    fn inline_interiors(&self, s: &mut Schedule) -> Result<(), TeError> {
        for t in &self.inlined {
            s.compute_inline(t)?;
        }
        Ok(())
    }

    /// Applies the configuration `cfg` to a fresh schedule: its derivation,
    /// then its annotation knobs. This is the candidate a
    /// [`sketch_task`]'s builder lowers.
    pub fn apply_schedule(&self, s: &mut Schedule, cfg: &ConfigEntity) -> Result<(), TeError> {
        let points = self.apply(s, cfg)?;
        apply_annotations(s, cfg, &points)
    }

    /// Applies the derivation selected by `cfg` to a fresh schedule.
    fn apply(&self, s: &mut Schedule, cfg: &ConfigEntity) -> Result<AnnPoints, TeError> {
        let sk = cfg.try_get("sketch")?;
        let kind = *self
            .sketches
            .get(usize::try_from(sk).unwrap_or(usize::MAX))
            .ok_or(TuneError::NoSuchSketch {
                index: sk,
                available: self.sketches.len(),
            })?;
        match kind {
            SketchKind::CpuTile => self.apply_cpu_tile(s, cfg),
            SketchKind::CpuTileCache => self.apply_cpu_tile_cache(s, cfg),
            SketchKind::CpuInjective => self.apply_injective(s, cfg, false),
            SketchKind::GpuThreadTile => self.apply_gpu_thread_tile(s, cfg),
            SketchKind::GpuInjective => self.apply_injective(s, cfg, true),
        }
    }

    /// CPU sketch 0: split every spatial axis by its tile knob, split the
    /// first reduce axis, and order loops as
    /// `[outer tiles..., reduce-outer, other reduces..., inner tiles
    /// (except last), reduce-inner, last inner tile]` — the classic
    /// register-blocked accumulator nest with a vectorizable last axis.
    fn apply_cpu_tile(&self, s: &mut Schedule, cfg: &ConfigEntity) -> Result<AnnPoints, TeError> {
        self.inline_interiors(s)?;
        let out = &self.anchor;
        let axes = out.op.axes();
        let mut outers = Vec::new();
        let mut inners = Vec::new();
        for (j, ax) in axes.iter().enumerate() {
            let t = cfg.try_get(&format!("t{j}"))?;
            let (o, i) = s.split(out, ax, t)?;
            outers.push(o);
            inners.push(i);
        }
        let reduces = out.op.reduce_axes();
        let (ko, ki) = s.split(out, &reduces[0], cfg.try_get("r0")?)?;
        let mut order: Vec<&IterVar> = outers.iter().collect();
        order.push(&ko);
        order.extend(reduces[1..].iter());
        order.extend(inners.iter().take(inners.len().saturating_sub(1)));
        order.push(&ki);
        if let Some(last) = inners.last() {
            order.push(last);
        }
        s.reorder(out, &order)?;
        let mut holes = AnnPoints {
            unroll: vec![(out.clone(), ki.clone())],
            vec: Vec::from_iter(inners.last().map(|iv| (out.clone(), iv.clone()))),
            par: outers.first().map(|iv| (out.clone(), iv.clone())),
        };
        if inners.len() >= 2 {
            holes
                .unroll
                .push((out.clone(), inners[inners.len() - 2].clone()));
        }
        Ok(holes)
    }

    /// CPU sketch 1: tile the output's spatial axes, then compute the
    /// reduction in a `Local` cache-write stage attached at a knob-chosen
    /// outer loop (`at = 1` hoists it to the outermost tile loop).
    fn apply_cpu_tile_cache(
        &self,
        s: &mut Schedule,
        cfg: &ConfigEntity,
    ) -> Result<AnnPoints, TeError> {
        let out = &self.anchor;
        // cache_write must be the first primitive touching the stage.
        let cl = s.cache_write(out, MemScope::Local)?;
        self.inline_interiors(s)?;
        let axes = out.op.axes();
        let mut outers = Vec::new();
        let mut inners = Vec::new();
        for (j, ax) in axes.iter().enumerate() {
            let t = cfg.try_get(&format!("t{j}"))?;
            let (o, i) = s.split(out, ax, t)?;
            outers.push(o);
            inners.push(i);
        }
        let mut order: Vec<&IterVar> = outers.iter().collect();
        order.extend(inners.iter());
        s.reorder(out, &order)?;
        let attach = if cfg.try_get("at")? == 1 {
            outers.first()
        } else {
            outers.last()
        };
        let attach = attach.ok_or_else(|| TeError::msg("the anchor has no spatial axis"))?;
        s.compute_at(&cl, out, attach)?;
        let cl_reduces = cl.op.reduce_axes();
        let (ko, ki) = s.split(&cl, &cl_reduces[0], cfg.try_get("r0")?)?;
        let cl_axes = cl.op.axes();
        let mut cl_order: Vec<&IterVar> = vec![&ko, &ki];
        cl_order.extend(cl_axes.iter());
        s.reorder(&cl, &cl_order)?;
        Ok(AnnPoints {
            unroll: vec![(cl.clone(), ki.clone())],
            vec: Vec::from_iter(cl_axes.last().map(|iv| (cl.clone(), iv.clone()))),
            par: outers.first().map(|iv| (out.clone(), iv.clone())),
        })
    }

    /// Injective sketch (CPU and GPU): fuse all spatial axes, split once.
    fn apply_injective(
        &self,
        s: &mut Schedule,
        cfg: &ConfigEntity,
        gpu: bool,
    ) -> Result<AnnPoints, TeError> {
        self.inline_interiors(s)?;
        let out = &self.anchor;
        let axes = out.op.axes();
        let mut fused = axes[0].clone();
        for a in &axes[1..] {
            fused = s.fuse(out, &fused, a)?;
        }
        let (o, i) = s.split(out, &fused, cfg.try_get("t0")?)?;
        if gpu {
            s.bind(out, &o, ThreadTag::BlockIdxX)?;
            s.bind(out, &i, ThreadTag::ThreadIdxX)?;
            Ok(AnnPoints::default())
        } else {
            Ok(AnnPoints {
                unroll: Vec::new(),
                vec: vec![(out.clone(), i)],
                par: Some((out.clone(), o)),
            })
        }
    }

    /// GPU sketch: three-level spatial tiling. Each axis splits into
    /// block tile / thread tile / per-thread register step (`t{j}`,
    /// `s{j}`); outer tiles fuse into the block index, thread tiles fuse
    /// into the thread index (the innermost axis stays innermost, so
    /// consecutive threads touch consecutive addresses), and the step
    /// loops run serially per thread over a register micro-tile
    /// accumulated in a `Local` stage. The reduction is ordered
    /// `[r-outer, other reduces, r-inner, micro-tile]` so every loaded
    /// operand is reused across the whole micro-tile; shared-memory
    /// cooperative loads hang off the r-outer loop.
    fn apply_gpu_thread_tile(
        &self,
        s: &mut Schedule,
        cfg: &ConfigEntity,
    ) -> Result<AnnPoints, TeError> {
        let out = &self.anchor;
        let cl = s.cache_write(out, MemScope::Local)?;
        self.inline_interiors(s)?;
        let axes = out.op.axes();
        let mut outers = Vec::new();
        let mut inners = Vec::new();
        let mut steps = Vec::new();
        let mut tiles = Vec::new();
        for (j, ax) in axes.iter().enumerate() {
            let t = cfg.try_get(&format!("t{j}"))?;
            // Narrow axes declare no step knob; they step by 1.
            let step = cfg.try_get(&format!("s{j}")).unwrap_or(1);
            tiles.push(t);
            let (o, rest) = s.split(out, ax, t * step)?;
            outers.push(o);
            if step > 1 {
                let (m, i) = s.split(out, &rest, t)?;
                steps.push(m);
                inners.push(i);
            } else {
                inners.push(rest);
            }
        }
        let mut order: Vec<&IterVar> = outers.iter().collect();
        order.extend(inners.iter());
        order.extend(steps.iter());
        s.reorder(out, &order)?;
        // Bind each tiled axis to its own block/thread dimension —
        // innermost gets X (coalescing), then Y, then Z. Keeping the
        // bindings per-axis (instead of fusing everything into one
        // ThreadIdxX) keeps the indexing affine, so the shared-memory
        // footprint analysis can bound the cooperative loads below.
        // Workloads with more than three spatial axes fuse the extras
        // into the Z group (their tile knobs are usually 1 anyway —
        // e.g. conv2d's unit batch axis).
        let extra = axes.len().saturating_sub(3);
        let mut block = outers[extra].clone();
        let mut thread = inners[extra].clone();
        let mut thread_extent = tiles[extra];
        for j in (0..extra).rev() {
            block = s.fuse(out, &outers[j], &block)?;
            thread = s.fuse(out, &inners[j], &thread)?;
            thread_extent *= tiles[j];
        }
        let tags = [
            (ThreadTag::BlockIdxZ, ThreadTag::ThreadIdxZ),
            (ThreadTag::BlockIdxY, ThreadTag::ThreadIdxY),
            (ThreadTag::BlockIdxX, ThreadTag::ThreadIdxX),
        ];
        let bound = axes.len() - extra; // 1..=3 axis groups to bind
        let mut threads: Vec<(ThreadTag, i64)> = Vec::new();
        let mut inner_thread = thread.clone();
        for (g, &(btag, ttag)) in tags[3 - bound..].iter().enumerate() {
            let (b, t, e) = if g == 0 {
                (&block, &thread, thread_extent)
            } else {
                let j = extra + g;
                (&outers[j], &inners[j], tiles[j])
            };
            s.bind(out, b, btag)?;
            s.bind(out, t, ttag)?;
            threads.push((ttag, e));
            inner_thread = t.clone();
        }
        let mut holes = AnnPoints::default();
        s.compute_at(&cl, out, &inner_thread)?;
        let cl_reduces = cl.op.reduce_axes();
        let (ko, ki) = s.split(&cl, &cl_reduces[0], cfg.try_get("r0")?)?;
        let cl_axes = cl.op.axes();
        let mut cl_order: Vec<&IterVar> = vec![&ko];
        cl_order.extend(cl_reduces[1..].iter());
        cl_order.push(&ki);
        cl_order.extend(cl_axes.iter());
        s.reorder(&cl, &cl_order)?;
        holes.unroll.push((cl.clone(), ki.clone()));
        if let Some(last) = cl_reduces[1..].last() {
            holes.unroll.push((cl.clone(), last.clone()));
        }
        if cfg.try_get("use_shared")? == 1 {
            for read in &self.shared_reads {
                let sh = s.cache_read(read, MemScope::Shared, &[&cl])?;
                s.compute_at(&sh, &cl, &ko)?;
                cooperative_load(s, &sh, &threads)?;
            }
        }
        Ok(holes)
    }
}

/// Size of the sketch search space for a DAG, when sketchable. This is
/// what EXPERIMENTS.md reports: structural derivations x hole fillings.
pub fn sketch_space_size(outputs: &[Tensor], target: &Target) -> Option<u64> {
    let st = SketchTask::analyze(outputs, target).ok()?;
    Some(st.space(target).size())
}

/// Builds a [`TuningTask`] whose space and builder are derived entirely
/// from the DAG. `args` is the lowered function's argument list (inputs
/// then outputs, as for [`tvm_te::lower`]). Returns
/// [`TuneError::NotSketchable`] when the DAG needs a template.
pub fn sketch_task(
    name: impl Into<String>,
    outputs: &[Tensor],
    args: &[Tensor],
    target: Target,
) -> Result<TuningTask, TuneError> {
    let st = Arc::new(SketchTask::analyze(outputs, &target)?);
    let space = st.space(&target);
    let name = name.into();
    let structural = move |s: &mut Schedule, cfg: &ConfigEntity| st.apply(s, cfg);
    Ok(planned_task(
        name.clone(),
        space,
        target,
        outputs,
        args,
        name,
        structural,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::DType;
    use tvm_sim::analysis::analyze;
    use tvm_sim::target::{arm_a53, titanx};
    use tvm_te::{compute, placeholder, reduce_axis, sum};

    fn matmul(n: i64) -> (Tensor, Tensor, Tensor) {
        let a = placeholder(&[n, n], DType::float32(), "A");
        let b = placeholder(&[n, n], DType::float32(), "B");
        let k = reduce_axis(n, "k");
        let c = compute(&[n, n], "C", |i| {
            sum(
                a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
                std::slice::from_ref(&k),
            )
        });
        (a, b, c)
    }

    fn relu_matmul(n: i64) -> (Tensor, Tensor, Tensor) {
        let (a, b, c) = matmul(n);
        let r = compute(&[n, n], "R", |i| {
            tvm_ir::Expr::max(c.at(&[i[0].clone(), i[1].clone()]), 0.0f32.into())
        });
        (a, b, r)
    }

    #[test]
    fn matmul_is_sketchable_on_cpu_with_two_sketches() {
        let (_, _, c) = matmul(64);
        let cpu = arm_a53();
        let st = SketchTask::analyze(std::slice::from_ref(&c), &cpu).expect("sketchable");
        assert_eq!(st.sketch_count(), 2);
        let space = st.space(&cpu);
        assert!(space.size() > 1000, "space too small: {}", space.size());
        // Knob names are the shared transfer vocabulary.
        let names: Vec<&str> = space.knobs.iter().map(|k| k.name.as_str()).collect();
        assert!(names.contains(&"sketch"));
        assert!(names.contains(&"t0"));
        assert!(names.contains(&"r0"));
        assert!(names.contains(&"vec"));
    }

    #[test]
    fn every_cpu_sketch_builds_and_lowers() {
        let (a, b, c) = matmul(64);
        let task = sketch_task(
            "mm64_sketch",
            std::slice::from_ref(&c),
            &[a, b, c.clone()],
            arm_a53(),
        )
        .expect("sketchable");
        // Sample across the space: every decoded config must either lower
        // cleanly or be rejected with a typed error (none should panic).
        let n = task.space.size();
        let mut built = 0;
        for i in 0..24u64 {
            let cfg = task.space.get(i * (n / 24).max(1));
            if let Ok(f) = (task.builder)(&cfg) {
                built += 1;
                assert!(!f.name.is_empty());
            }
        }
        assert!(built > 0, "no sampled sketch config lowered");
        // Both structural derivations are reachable and lower.
        for sk in 0..2i64 {
            let mut values = task.space.get(0).values.clone();
            for v in &mut values {
                if v.0 == "sketch" {
                    v.1 = sk;
                }
                if v.0 == "t0" || v.0 == "t1" {
                    v.1 = 8;
                }
                if v.0 == "r0" {
                    v.1 = 4;
                }
            }
            let cfg = ConfigEntity { index: 0, values };
            (task.builder)(&cfg).unwrap_or_else(|e| panic!("sketch {sk}: {e}"));
        }
    }

    #[test]
    fn gpu_sketch_binds_threads_and_respects_shared_memory() {
        let (a, b, c) = matmul(64);
        let task = sketch_task(
            "mm64_sketch_gpu",
            std::slice::from_ref(&c),
            &[a, b, c.clone()],
            titanx(),
        )
        .expect("sketchable");
        let mut values = task.space.get(0).values.clone();
        for v in &mut values {
            match v.0.as_str() {
                "t0" | "t1" => v.1 = 8,
                "r0" => v.1 = 8,
                "use_shared" => v.1 = 1,
                _ => {}
            }
        }
        let cfg = ConfigEntity { index: 0, values };
        let f = (task.builder)(&cfg).expect("gpu sketch lowers");
        let an = analyze(&f);
        assert_eq!(an.block_threads(), 64, "8x8 thread tile");
        assert!(
            an.alloc_bytes
                .get(&MemScope::Shared)
                .copied()
                .unwrap_or(0.0)
                > 0.0,
            "use_shared=1 must allocate shared memory"
        );
    }

    #[test]
    fn injective_producers_are_inlined() {
        let (a, b, r) = relu_matmul(32);
        let cpu = arm_a53();
        // The relu output is Plain but reads an interior reduction — not
        // sketchable as a single anchor.
        let err = match SketchTask::analyze(std::slice::from_ref(&r), &cpu) {
            Err(e) => e,
            Ok(_) => panic!("relu-over-matmul should not sketch as one anchor"),
        };
        assert!(matches!(err, TuneError::NotSketchable { .. }), "{err}");
        // An elementwise chain *is* sketchable, and the interior op
        // inlines away.
        let pre = compute(&[32, 32], "P", |i| {
            a.at(&[i[0].clone(), i[1].clone()]) * tvm_ir::Expr::f32(2.0)
        });
        let post = compute(&[32, 32], "Q", |i| {
            pre.at(&[i[0].clone(), i[1].clone()]) + b.at(&[i[0].clone(), i[1].clone()])
        });
        let st = SketchTask::analyze(std::slice::from_ref(&post), &cpu).expect("sketchable");
        assert_eq!(st.inlined.len(), 1);
        assert_eq!(st.inlined[0].name(), "P");
        assert_eq!(st.sketches, vec![SketchKind::CpuInjective]);
        let task = sketch_task(
            "chain_sketch",
            std::slice::from_ref(&post),
            &[a.clone(), b.clone(), post.clone()],
            cpu,
        )
        .expect("task");
        let f = (task.builder)(&task.space.get(7)).expect("lowers");
        assert!(!f.name.is_empty());
    }

    #[test]
    fn bad_sketch_index_is_a_typed_error() {
        let (a, b, c) = matmul(16);
        let task = sketch_task(
            "mm16_sketch",
            std::slice::from_ref(&c),
            &[a, b, c.clone()],
            arm_a53(),
        )
        .expect("sketchable");
        let mut values = task.space.get(0).values.clone();
        for v in &mut values {
            if v.0 == "sketch" {
                v.1 = 99;
            }
        }
        let cfg = ConfigEntity { index: 0, values };
        let err = (task.builder)(&cfg).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn sketch_space_size_reports_the_derivation_product() {
        let (_, _, c) = matmul(64);
        let sz = sketch_space_size(std::slice::from_ref(&c), &arm_a53()).expect("size");
        assert!(sz > 1000);
        let a = placeholder(&[4], DType::float32(), "A");
        assert_eq!(
            sketch_space_size(std::slice::from_ref(&a), &arm_a53()),
            None,
            "placeholders are not sketchable"
        );
    }
}
