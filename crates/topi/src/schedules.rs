//! Schedule templates with declared knobs (§5.1's "schedule template
//! specification API"), for CPU and GPU targets, plus the tuning-task
//! constructors the optimizer consumes.

use tvm_autotune::planned::planned_task;
pub use tvm_autotune::planned::{apply_annotations, cooperative_load, AnnPoints};
use tvm_autotune::{ConfigEntity, ConfigSpace, TuningTask};
use tvm_ir::{MemScope, ThreadTag};
use tvm_sim::Target;
use tvm_te::{IterVar, Schedule, TeError, Tensor};

use crate::nn::{conv2d, dense, depthwise_conv2d, Conv2dOp};
use crate::workloads::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload};

/// Schedules an injective (element-wise) operator: parallel outer loop +
/// vectorized inner on CPU; flat thread mapping on GPU. Returns the leaf
/// bound to `threadIdx.x` on a GPU target, where a producer can attach so
/// that each thread computes only the points it reads.
pub fn schedule_injective(
    s: &mut Schedule,
    out: &Tensor,
    target: &Target,
) -> Result<Option<IterVar>, TeError> {
    let axes = out.op.axes();
    if axes.is_empty() {
        return Ok(None);
    }
    let mut fused = axes[0].clone();
    for a in &axes[1..] {
        fused = s.fuse(out, &fused, a)?;
    }
    let total: i64 = out.shape().iter().product();
    if target.is_gpu() {
        let threads = 256.min(total.max(1));
        let (bx, tx) = s.split(out, &fused, threads)?;
        s.bind(out, &bx, ThreadTag::BlockIdxX)?;
        s.bind(out, &tx, ThreadTag::ThreadIdxX)?;
        Ok(Some(tx))
    } else {
        let inner = 8.min(total.max(1));
        let (o, i) = s.split(out, &fused, inner)?;
        if total >= 4096 {
            s.parallel(out, &o)?;
        }
        s.vectorize(out, &i)?;
        Ok(None)
    }
}

/// The conv2d schedule space for a target.
pub fn conv2d_space(w: &Conv2dWorkload, target: &Target) -> ConfigSpace {
    let mut space = ConfigSpace::new();
    let o = w.out_size();
    if target.is_gpu() {
        space.define_split("tile_oc", w.out_c, 16);
        space.define_split("tile_oh", o, 16);
        space.define_split("tile_ow", o, 16);
        // Per-thread register-tile steps (each thread computes
        // step_oh x step_ow outputs).
        space.define_knob("step_oh", &[1, 2, 4]);
        space.define_knob("step_ow", &[1, 2, 4]);
        space.define_split("tile_rc", w.in_c, 64);
        space.define_knob("use_shared", &[0, 1]);
        space.define_knob("unroll", &[0, 1, 2]);
    } else {
        space.define_split("tile_oc", w.out_c, 32);
        space.define_split("tile_ow", o, 32);
        space.define_split("tile_rc", w.in_c, 32);
        space.define_knob("vec", &[0, 1]);
        space.define_knob("par", &[0, 1]);
        space.define_knob("unroll", &[0, 1]);
    }
    space
}

/// Applies a conv2d schedule configuration; shared by dense/depthwise via
/// the same knob names.
pub fn apply_conv2d_schedule(
    s: &mut Schedule,
    op: &Conv2dOp,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<(), TeError> {
    let points = apply_conv2d_structural(s, op, target, cfg)?;
    apply_annotations(s, cfg, &points)
}

/// The stage a GPU template tiles and binds, and the stage that accumulates
/// in each thread's registers under it. An operator on its own is the
/// kernel's output and accumulates in a register `cache_write` of itself;
/// under an element-wise `tail` the tail is the output and the operator
/// itself, scoped to registers, is the accumulator. Either way the kernel
/// has one root stage.
fn root_and_accumulator(
    s: &mut Schedule,
    out: &Tensor,
    tail: Option<&Tensor>,
) -> Result<(Tensor, Tensor), TeError> {
    Ok(match tail {
        Some(tail) => {
            s.set_scope(out, MemScope::Local)?;
            (tail.clone(), out.clone())
        }
        None => (out.clone(), s.cache_write(out, MemScope::Local)?),
    })
}

/// The structural half of the conv2d template: everything except the
/// annotation knobs, whose target loops are returned for later
/// application.
fn apply_conv2d_structural(
    s: &mut Schedule,
    op: &Conv2dOp,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<AnnPoints, TeError> {
    let mut points = AnnPoints::default();
    if let Some(p) = &op.pad {
        s.compute_inline(p)?;
    }
    let out = &op.out;
    if target.is_gpu() {
        let (root, cl) = root_and_accumulator(s, out, op.tail.as_ref())?;
        let root = &root;
        let ax = root.op.axes(); // n, oc, oh, ow
        let (t_oc, t_oh, t_ow) = (cfg.get("tile_oc"), cfg.get("tile_oh"), cfg.get("tile_ow"));
        let (s_oh, s_ow) = (cfg.get("step_oh"), cfg.get("step_ow"));
        let (oco, oci) = s.split(root, &ax[1], t_oc)?;
        // Three-level spatial tiling: block / thread / per-thread register
        // steps (each thread produces s_oh x s_ow outputs).
        let (oho, hrest) = s.split(root, &ax[2], t_oh * s_oh)?;
        let (ohm, ohi) = s.split(root, &hrest, t_oh)?;
        let (owo, wrest) = s.split(root, &ax[3], t_ow * s_ow)?;
        let (owm, owi) = s.split(root, &wrest, t_ow)?;
        s.reorder(
            root,
            &[&ax[0], &oco, &oho, &owo, &oci, &ohi, &owi, &ohm, &owm],
        )?;
        s.bind(root, &oco, ThreadTag::BlockIdxZ)?;
        s.bind(root, &oho, ThreadTag::BlockIdxY)?;
        s.bind(root, &owo, ThreadTag::BlockIdxX)?;
        s.bind(root, &oci, ThreadTag::ThreadIdxZ)?;
        s.bind(root, &ohi, ThreadTag::ThreadIdxY)?;
        s.bind(root, &owi, ThreadTag::ThreadIdxX)?;
        s.compute_at(&cl, root, &owi)?;
        let r = cl.op.reduce_axes(); // rc, rh, rw
        let (rco, rci) = s.split(&cl, &r[0], cfg.get("tile_rc"))?;
        let cl_ax = cl.op.axes();
        s.reorder(
            &cl,
            &[
                &rco, &r[1], &r[2], &rci, &cl_ax[0], &cl_ax[1], &cl_ax[2], &cl_ax[3],
            ],
        )?;
        points.unroll = vec![(cl.clone(), r[2].clone()), (cl.clone(), rci.clone())];
        if cfg.get("use_shared") == 1 {
            let src = op.pad.clone().unwrap_or_else(|| op.data.clone());
            let threads = [
                (ThreadTag::ThreadIdxZ, t_oc),
                (ThreadTag::ThreadIdxY, t_oh),
                (ThreadTag::ThreadIdxX, t_ow),
            ];
            let ds = s.cache_read(&src, MemScope::Shared, &[&cl])?;
            s.compute_at(&ds, &cl, &rco)?;
            cooperative_load(s, &ds, &threads)?;
            let ws = s.cache_read(&op.weight, MemScope::Shared, &[&cl])?;
            s.compute_at(&ws, &cl, &rco)?;
            cooperative_load(s, &ws, &threads)?;
        }
    } else {
        let root = op.tail.as_ref().unwrap_or(out);
        let ax = root.op.axes();
        let (oco, oci) = s.split(root, &ax[1], cfg.get("tile_oc"))?;
        let (owo, owi) = s.split(root, &ax[3], cfg.get("tile_ow"))?;
        s.reorder(root, &[&ax[0], &oco, &ax[2], &owo, &oci, &owi])?;
        // The accumulator's tile loops: the operator's own inner loops, or
        // under a tail its axes realized over one (oc, ow) tile of the tail.
        let (acc_oc, acc_ow) = if op.tail.is_some() {
            s.set_scope(out, MemScope::Local)?;
            s.compute_at(out, root, &owo)?;
            points.vec.push((root.clone(), owi));
            let acc_ax = out.op.axes();
            (acc_ax[1].clone(), acc_ax[3].clone())
        } else {
            (oci, owi)
        };
        let r = out.op.reduce_axes();
        if r.len() == 3 {
            let (rco, rci) = s.split(out, &r[0], cfg.get("tile_rc"))?;
            s.reorder(out, &[&rco, &r[1], &r[2], &rci, &acc_oc, &acc_ow])?;
            points.unroll = vec![(out.clone(), rci)];
        } else {
            // Depthwise: reduce axes are rh, rw only.
            s.reorder(out, &[&r[0], &r[1], &acc_oc, &acc_ow])?;
            points.unroll = vec![(out.clone(), r[1].clone())];
        }
        points.vec.push((out.clone(), acc_ow));
        points.par = Some((root.clone(), oco));
    }
    Ok(points)
}

/// The name a workload's tuning task carries on `target`, and so the key
/// of its records in a tuning [`Database`](tvm_autotune::Database).
/// `workload` is the workload's `describe()`.
pub fn task_name(workload: &str, target: &Target) -> String {
    format!("{workload}@{}", target.name())
}

/// Builds the tuning task for a conv2d workload.
pub fn conv2d_task(w: Conv2dWorkload, dtype: tvm_ir::DType, target: Target) -> TuningTask {
    let op = conv2d(&w, dtype);
    let args = [op.data.clone(), op.weight.clone(), op.out.clone()];
    let t2 = target.clone();
    planned_task(
        task_name(&w.describe(), &target),
        conv2d_space(&w, &target),
        target,
        std::slice::from_ref(&args[2]),
        &args,
        w.describe(),
        move |s, cfg| apply_conv2d_structural(s, &op, &t2, cfg),
    )
}

/// The depthwise-conv2d schedule space.
pub fn depthwise_space(w: &DepthwiseConv2dWorkload, target: &Target) -> ConfigSpace {
    let mut space = ConfigSpace::new();
    let o = w.out_size();
    if target.is_gpu() {
        space.define_split("tile_oc", w.channels, 16);
        space.define_split("tile_oh", o, 16);
        space.define_split("tile_ow", o, 16);
        space.define_knob("tile_rc", &[1]);
        space.define_knob("use_shared", &[0, 1]);
        space.define_knob("unroll", &[0, 1]);
    } else {
        space.define_split("tile_oc", w.channels, 32);
        space.define_split("tile_ow", o, 32);
        space.define_knob("tile_rc", &[1]);
        space.define_knob("vec", &[0, 1]);
        space.define_knob("par", &[0, 1]);
        space.define_knob("unroll", &[0, 1]);
    }
    space
}

/// Builds the tuning task for a depthwise conv2d workload.
pub fn depthwise_task(
    w: DepthwiseConv2dWorkload,
    dtype: tvm_ir::DType,
    target: Target,
) -> TuningTask {
    let op = depthwise_conv2d(&w, dtype);
    let args = [op.data.clone(), op.weight.clone(), op.out.clone()];
    let t2 = target.clone();
    planned_task(
        task_name(&w.describe(), &target),
        depthwise_space(&w, &target),
        target,
        std::slice::from_ref(&args[2]),
        &args,
        w.describe(),
        move |s, cfg| apply_depthwise_structural(s, &op, &t2, cfg),
    )
}

/// Applies a depthwise-conv schedule configuration.
pub fn apply_depthwise_schedule(
    s: &mut Schedule,
    op: &Conv2dOp,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<(), TeError> {
    let points = apply_depthwise_structural(s, op, target, cfg)?;
    apply_annotations(s, cfg, &points)
}

/// The structural half of the depthwise-conv template.
fn apply_depthwise_structural(
    s: &mut Schedule,
    op: &Conv2dOp,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<AnnPoints, TeError> {
    if !target.is_gpu() {
        return apply_conv2d_structural(s, op, target, cfg);
    }
    let mut points = AnnPoints::default();
    if let Some(p) = &op.pad {
        s.compute_inline(p)?;
    }
    let out = &op.out;
    let root = op.tail.as_ref().unwrap_or(out);
    let ax = root.op.axes();
    let (t_oc, t_oh, t_ow) = (cfg.get("tile_oc"), cfg.get("tile_oh"), cfg.get("tile_ow"));
    let (oco, oci) = s.split(root, &ax[1], t_oc)?;
    let (oho, ohi) = s.split(root, &ax[2], t_oh)?;
    let (owo, owi) = s.split(root, &ax[3], t_ow)?;
    s.reorder(root, &[&ax[0], &oco, &oho, &owo, &oci, &ohi, &owi])?;
    s.bind(root, &oco, ThreadTag::BlockIdxZ)?;
    s.bind(root, &oho, ThreadTag::BlockIdxY)?;
    s.bind(root, &owo, ThreadTag::BlockIdxX)?;
    s.bind(root, &oci, ThreadTag::ThreadIdxZ)?;
    s.bind(root, &ohi, ThreadTag::ThreadIdxY)?;
    s.bind(root, &owi, ThreadTag::ThreadIdxX)?;
    if op.tail.is_some() {
        // Each thread reduces its one output in a register under the tail.
        s.set_scope(out, MemScope::Local)?;
        s.compute_at(out, root, &owi)?;
    }
    let r = out.op.reduce_axes();
    if let Some(last) = r.last() {
        points.unroll = vec![(out.clone(), last.clone())];
    }
    Ok(points)
}

/// The dense (matmul) schedule space.
pub fn dense_space(w: &DenseWorkload, target: &Target) -> ConfigSpace {
    let mut space = ConfigSpace::new();
    if target.is_gpu() {
        space.define_split("tile_m", w.m, 16);
        space.define_split("tile_n", w.n, 32);
        space.define_split("tile_k", w.k, 64);
        space.define_knob("use_shared", &[0, 1]);
        space.define_knob("unroll", &[0, 1]);
    } else {
        space.define_split("tile_m", w.m, 32);
        space.define_split("tile_n", w.n, 32);
        space.define_split("tile_k", w.k, 32);
        space.define_knob("vec", &[0, 1]);
        space.define_knob("par", &[0, 1]);
        space.define_knob("unroll", &[0, 1]);
    }
    space
}

/// Applies a dense schedule configuration to `(data, weight, out)`.
pub fn apply_dense_schedule(
    s: &mut Schedule,
    data: &Tensor,
    weight: &Tensor,
    out: &Tensor,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<(), TeError> {
    apply_dense_schedule_with_tail(s, data, weight, out, None, target, cfg)
}

/// [`apply_dense_schedule`] for a dense layer followed by an element-wise
/// `tail` that is the kernel's output (see [`Conv2dOp::tail`]).
pub fn apply_dense_schedule_with_tail(
    s: &mut Schedule,
    data: &Tensor,
    weight: &Tensor,
    out: &Tensor,
    tail: Option<&Tensor>,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<(), TeError> {
    let points = apply_dense_structural(s, data, weight, out, tail, target, cfg)?;
    apply_annotations(s, cfg, &points)
}

/// The structural half of the dense template.
fn apply_dense_structural(
    s: &mut Schedule,
    data: &Tensor,
    weight: &Tensor,
    out: &Tensor,
    tail: Option<&Tensor>,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<AnnPoints, TeError> {
    let mut points = AnnPoints::default();
    if target.is_gpu() {
        let (root, cl) = root_and_accumulator(s, out, tail)?;
        let root = &root;
        let ax = root.op.axes();
        let (t_m, t_n) = (cfg.get("tile_m"), cfg.get("tile_n"));
        let (mo, mi) = s.split(root, &ax[0], t_m)?;
        let (no, ni) = s.split(root, &ax[1], t_n)?;
        s.reorder(root, &[&mo, &no, &mi, &ni])?;
        s.bind(root, &mo, ThreadTag::BlockIdxY)?;
        s.bind(root, &no, ThreadTag::BlockIdxX)?;
        s.bind(root, &mi, ThreadTag::ThreadIdxY)?;
        s.bind(root, &ni, ThreadTag::ThreadIdxX)?;
        s.compute_at(&cl, root, &ni)?;
        let r = cl.op.reduce_axes();
        let (ko, ki) = s.split(&cl, &r[0], cfg.get("tile_k"))?;
        let cl_ax = cl.op.axes();
        s.reorder(&cl, &[&ko, &ki, &cl_ax[0], &cl_ax[1]])?;
        points.unroll = vec![(cl.clone(), ki)];
        if cfg.get("use_shared") == 1 {
            let threads = [(ThreadTag::ThreadIdxY, t_m), (ThreadTag::ThreadIdxX, t_n)];
            let ds = s.cache_read(data, MemScope::Shared, &[&cl])?;
            s.compute_at(&ds, &cl, &ko)?;
            cooperative_load(s, &ds, &threads)?;
            let ws = s.cache_read(weight, MemScope::Shared, &[&cl])?;
            s.compute_at(&ws, &cl, &ko)?;
            cooperative_load(s, &ws, &threads)?;
        }
    } else {
        let root = tail.unwrap_or(out);
        let ax = root.op.axes();
        let (mo, mi) = s.split(root, &ax[0], cfg.get("tile_m"))?;
        let (no, ni) = s.split(root, &ax[1], cfg.get("tile_n"))?;
        s.reorder(root, &[&mo, &no, &mi, &ni])?;
        // As in the conv2d template: under a tail the accumulator is the
        // dense stage realized over one (m, n) tile of the tail.
        let (acc_m, acc_n) = if tail.is_some() {
            s.set_scope(out, MemScope::Local)?;
            s.compute_at(out, root, &no)?;
            points.vec.push((root.clone(), ni));
            let acc_ax = out.op.axes();
            (acc_ax[0].clone(), acc_ax[1].clone())
        } else {
            (mi, ni)
        };
        let r = out.op.reduce_axes();
        let (ko, ki) = s.split(out, &r[0], cfg.get("tile_k"))?;
        s.reorder(out, &[&ko, &acc_m, &ki, &acc_n])?;
        points.unroll = vec![(out.clone(), ki)];
        points.vec.push((out.clone(), acc_n));
        points.par = Some((root.clone(), mo));
    }
    Ok(points)
}

/// Builds the tuning task for a dense workload.
pub fn dense_task(w: DenseWorkload, target: Target) -> TuningTask {
    let func_name = w.describe();
    let (d, wt, out) = dense(&w);
    let args = [d.clone(), wt.clone(), out.clone()];
    let t2 = target.clone();
    planned_task(
        task_name(&func_name, &target),
        dense_space(&w, &target),
        target,
        std::slice::from_ref(&args[2]),
        &args,
        func_name,
        move |s, cfg| apply_dense_structural(s, &d, &wt, &out, None, &t2, cfg),
    )
}

/// Builds a dense tuning task whose space and schedule derivations come
/// from [`tvm_autotune::sketch_task`] instead of the hand-written
/// template above — same workload, same measurement path, different
/// search space. Errors with [`tvm_autotune::TuneError::NotSketchable`]
/// when the DAG falls outside the sketch generator's coverage.
pub fn dense_sketch_task(
    w: DenseWorkload,
    target: Target,
) -> Result<TuningTask, tvm_autotune::TuneError> {
    let (d, wt, out) = dense(&w);
    tvm_autotune::sketch_task(
        format!("sketch_dense_{}x{}x{}@{}", w.m, w.n, w.k, target.name()),
        std::slice::from_ref(&out),
        &[d, wt, out.clone()],
        target,
    )
}

/// Sketch-derived counterpart of [`conv2d_task`]; see
/// [`dense_sketch_task`].
pub fn conv2d_sketch_task(
    w: Conv2dWorkload,
    dtype: tvm_ir::DType,
    target: Target,
) -> Result<TuningTask, tvm_autotune::TuneError> {
    let op = conv2d(&w, dtype);
    tvm_autotune::sketch_task(
        format!("sketch_{}@{}", w.describe(), target.name()),
        std::slice::from_ref(&op.out),
        &[op.data.clone(), op.weight.clone(), op.out.clone()],
        target,
    )
}

/// A reasonable untuned default config (median tiles, all annotations on):
/// what "TVM without tuning" or a quick fallback would use.
pub fn default_config(space: &ConfigSpace) -> ConfigEntity {
    // Middle option of each knob, annotations enabled.
    let mut index = 0u64;
    let mut mult = 1u64;
    for k in &space.knobs {
        let n = k.options.len() as u64;
        let digit = if k.options == [0, 1] { 1 } else { n / 2 };
        index += digit.min(n - 1) * mult;
        mult *= n;
    }
    space.get(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::{DType, Interp};
    use tvm_sim::{arm_a53, estimate, titanx};

    fn wl() -> Conv2dWorkload {
        Conv2dWorkload {
            batch: 1,
            size: 14,
            in_c: 16,
            out_c: 32,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn conv_ref(w: &Conv2dWorkload, data: &[f32], wts: &[f32]) -> Vec<f32> {
        let o = w.out_size() as usize;
        let (ic, size, k, st, pad) = (
            w.in_c as usize,
            w.size as usize,
            w.kernel as usize,
            w.stride as usize,
            w.pad,
        );
        let mut out = vec![0.0f32; w.out_c as usize * o * o];
        for oc in 0..w.out_c as usize {
            for oy in 0..o {
                for ox in 0..o {
                    let mut acc = 0.0f64;
                    for c in 0..ic {
                        for dy in 0..k {
                            for dx in 0..k {
                                let iy = (oy * st + dy) as i64 - pad;
                                let ix = (ox * st + dx) as i64 - pad;
                                if (0..size as i64).contains(&iy) && (0..size as i64).contains(&ix)
                                {
                                    acc += data[c * size * size + iy as usize * size + ix as usize]
                                        as f64
                                        * wts[oc * ic * k * k + c * k * k + dy * k + dx] as f64;
                                }
                            }
                        }
                    }
                    out[oc * o * o + oy * o + ox] = acc as f32;
                }
            }
        }
        out
    }

    fn check_task_config(task: &TuningTask, w: &Conv2dWorkload, cfg: &ConfigEntity) {
        let f = (task.builder)(cfg).unwrap_or_else(|e| panic!("{e} for {}", cfg.summary()));
        let data: Vec<f32> = (0..w.in_c * w.size * w.size)
            .map(|i| ((i * 7 % 23) as f32) * 0.1 - 1.0)
            .collect();
        let wts: Vec<f32> = (0..w.out_c * w.in_c * w.kernel * w.kernel)
            .map(|i| ((i * 5 % 17) as f32) * 0.1 - 0.8)
            .collect();
        let want = conv_ref(w, &data, &wts);
        let o = w.out_size() as usize;
        let mut bufs = vec![data, wts, vec![0.0; w.out_c as usize * o * o]];
        Interp::new()
            .run_f32(&f, &mut bufs)
            .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
        for (i, (g, wv)) in bufs[2].iter().zip(&want).enumerate() {
            assert!(
                (g - wv).abs() <= 1e-3 * wv.abs().max(1.0),
                "cfg {}: idx {i}: {g} vs {wv}",
                cfg.summary()
            );
        }
    }

    #[test]
    fn cpu_conv_schedules_are_correct_across_configs() {
        let w = wl();
        let task = conv2d_task(w, DType::float32(), arm_a53());
        for idx in [0u64, 3, 17, 101, 999, 5555] {
            let cfg = task.space.get(idx);
            check_task_config(&task, &w, &cfg);
        }
    }

    #[test]
    fn gpu_conv_schedules_are_correct_across_configs() {
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 8,
            out_c: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let task = conv2d_task(w, DType::float32(), titanx());
        let mut checked = 0;
        for idx in [0u64, 7, 23, 117, 431] {
            let cfg = task.space.get(idx);
            if (task.builder)(&cfg).is_ok() {
                check_task_config(&task, &w, &cfg);
                checked += 1;
            }
        }
        assert!(checked >= 3, "too many invalid GPU configs");
    }

    #[test]
    fn shared_memory_variant_lowers_with_barriers() {
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 16,
            out_c: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let task = conv2d_task(w, DType::float32(), titanx());
        // Find a config with use_shared=1 that validates.
        let mut found = false;
        for idx in 0..task.space.size() {
            let cfg = task.space.get(idx);
            if cfg.get("use_shared") == 1 && cfg.get("tile_rc") <= 8 && cfg.get("tile_oc") >= 4 {
                if let Ok(f) = (task.builder)(&cfg) {
                    let text = f.body.to_string();
                    assert!(text.contains("@shared"), "{text}");
                    assert!(text.contains("memory_barrier_among_threads"));
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "no valid shared-memory config found");
    }

    #[test]
    fn tuning_space_is_large() {
        let w = resnet_c7();
        let space = conv2d_space(&w, &titanx());
        assert!(space.size() > 1000, "space size {}", space.size());
    }

    fn resnet_c7() -> Conv2dWorkload {
        crate::workloads::resnet18_convs()[6]
    }

    #[test]
    fn better_configs_exist_in_space() {
        // The space must contain configurations with meaningfully different
        // simulated performance (otherwise tuning is pointless).
        let w = wl();
        let task = conv2d_task(w, DType::float32(), arm_a53());
        let mut costs: Vec<f64> = Vec::new();
        for idx in (0..task.space.size()).step_by((task.space.size() / 24).max(1) as usize) {
            let cfg = task.space.get(idx);
            if let Ok(f) = (task.builder)(&cfg) {
                costs.push(estimate(&f, &task.target).millis());
            }
        }
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.5, "spread {min}..{max}");
    }

    #[test]
    fn dense_schedule_correct() {
        let w = DenseWorkload {
            m: 8,
            n: 16,
            k: 32,
            dtype: DType::float32(),
        };
        let task = dense_task(w, arm_a53());
        let cfg = default_config(&task.space);
        let f = (task.builder)(&cfg).expect("builds");
        let data: Vec<f32> = (0..w.m * w.k).map(|i| (i % 11) as f32 * 0.2).collect();
        let wts: Vec<f32> = (0..w.n * w.k)
            .map(|i| (i % 13) as f32 * 0.1 - 0.5)
            .collect();
        let mut want = vec![0.0f32; (w.m * w.n) as usize];
        for m in 0..w.m as usize {
            for n in 0..w.n as usize {
                let mut acc = 0.0;
                for k in 0..w.k as usize {
                    acc += data[m * w.k as usize + k] * wts[n * w.k as usize + k];
                }
                want[m * w.n as usize + n] = acc;
            }
        }
        let mut bufs = vec![data, wts, vec![0.0; (w.m * w.n) as usize]];
        Interp::new()
            .run_f32(&f, &mut bufs)
            .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
        for (g, wv) in bufs[2].iter().zip(&want) {
            assert!((g - wv).abs() < 1e-3);
        }
    }

    #[test]
    fn depthwise_gpu_schedule_correct() {
        let w = DepthwiseConv2dWorkload {
            batch: 1,
            size: 8,
            channels: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let task = depthwise_task(w, DType::float32(), titanx());
        let cfg = default_config(&task.space);
        let f = (task.builder)(&cfg).expect("builds");
        let data: Vec<f32> = (0..w.channels * w.size * w.size)
            .map(|i| (i % 9) as f32)
            .collect();
        let wts: Vec<f32> = (0..w.channels * 9).map(|i| (i % 5) as f32 * 0.3).collect();
        let o = w.out_size() as usize;
        let mut bufs = vec![
            data.clone(),
            wts.clone(),
            vec![0.0; w.channels as usize * o * o],
        ];
        Interp::new()
            .run_f32(&f, &mut bufs)
            .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
        // Spot-check one interior element.
        let (c, oy, ox) = (3usize, 4usize, 4usize);
        let mut acc = 0.0f32;
        for dy in 0..3usize {
            for dx in 0..3usize {
                let iy = oy + dy - 1;
                let ix = ox + dx - 1;
                acc += data[c * 64 + iy * 8 + ix] * wts[c * 9 + dy * 3 + dx];
            }
        }
        let got = bufs[2][c * o * o + oy * o + ox];
        assert!((got - acc).abs() < 1e-3, "{got} vs {acc}");
    }
}
