//! Winograd convolution F(2x2, 3x3) with pre-transformed weights — the
//! "TVM PT" series of Fig. 15 (Lavin & Gray's fast algorithm, expressed
//! entirely in the tensor expression language as the paper's appendix
//! describes for upstream TVM).
//!
//! The minimal-filtering identity `Y = A^T [ (G g G^T) .* (B^T d B) ] A`
//! turns each 3x3/stride-1 convolution over a 2x2 output tile into a
//! 4x4 element-wise product in the transform domain, cutting the
//! multiplication count 2.25x. Weights are transformed once at deployment
//! ("weight pre-transformed"), inputs per tile at runtime.

use tvm_autotune::planned::{apply_annotations, planned_task, AnnPoints};
use tvm_autotune::{ConfigEntity, ConfigSpace, TuningTask};
use tvm_ir::{DType, Expr};
use tvm_sim::Target;
use tvm_te::{compute, placeholder, reduce_axis, sum, Schedule, TeError, Tensor};

use crate::workloads::Conv2dWorkload;

/// Builds a compile-time constant matrix as a tensor expression (a select
/// chain over the index, the standard `const_matrix` trick).
pub fn const_matrix(values: &[Vec<f32>], name: &str) -> Tensor {
    let rows = values.len() as i64;
    let cols = values[0].len() as i64;
    let values: Vec<Vec<f32>> = values.to_vec();
    compute(&[rows, cols], name, move |i| {
        let mut e = Expr::f32(0.0);
        for (r, row) in values.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    let here = i[0]
                        .clone()
                        .eq(Expr::int(r as i64))
                        .and(i[1].clone().eq(Expr::int(c as i64)));
                    e = Expr::select(here, Expr::f32(v), e);
                }
            }
        }
        e
    })
}

fn g_matrix() -> Vec<Vec<f32>> {
    vec![
        vec![1.0, 0.0, 0.0],
        vec![0.5, 0.5, 0.5],
        vec![0.5, -0.5, 0.5],
        vec![0.0, 0.0, 1.0],
    ]
}

fn b_matrix() -> Vec<Vec<f32>> {
    // B^T rows (4x4).
    vec![
        vec![1.0, 0.0, -1.0, 0.0],
        vec![0.0, 1.0, 1.0, 0.0],
        vec![0.0, -1.0, 1.0, 0.0],
        vec![0.0, 1.0, 0.0, -1.0],
    ]
}

fn a_matrix() -> Vec<Vec<f32>> {
    // A^T rows (2x4).
    vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, -1.0, -1.0]]
}

/// The declared Winograd pipeline's stages, returned so schedules can
/// place each one.
pub struct WinogradOp {
    /// Input data placeholder `[1, ic, h, w]`.
    pub data: Tensor,
    /// *Pre-transformed* weights `[4, 4, oc, ic]` (computed offline by
    /// [`transform_weights_host`]).
    pub weight_t: Tensor,
    /// Padded input stage (inline).
    pub pad: Tensor,
    /// Input-transform stage `V[4, 4, ic, tiles]`.
    pub v: Tensor,
    /// Transform-domain batched product `M[4, 4, oc, tiles]`.
    pub m: Tensor,
    /// Output `[1, oc, oh, ow]`.
    pub out: Tensor,
    /// Output tiles per row.
    pub tiles_w: i64,
}

/// Declares the F(2x2, 3x3) Winograd convolution for a 3x3 / stride-1
/// workload.
pub fn winograd_conv2d(w: &Conv2dWorkload, dtype: DType) -> WinogradOp {
    assert_eq!(
        (w.kernel, w.stride),
        (3, 1),
        "winograd F(2,3) needs 3x3 stride-1"
    );
    assert_eq!(w.batch, 1, "batch 1 (inference)");
    let o = w.out_size();
    assert_eq!(o % 2, 0, "output size must be even for 2x2 tiles");
    let (ic, oc) = (w.in_c, w.out_c);
    let tiles_w = o / 2;
    let tiles = tiles_w * tiles_w;

    let data = placeholder(&[1, ic, w.size, w.size], dtype, "data");
    let weight_t = placeholder(&[4, 4, oc, ic], dtype, "weight_t");
    let pad = crate::nn::pad_spatial(&data, w.pad, "wino_pad");

    // Input transform: V[eps, nu, c, p] = sum_{i,j} B[i,eps] B[j,nu] d[..]
    let bt = const_matrix(&b_matrix(), "Bt");
    let ri = reduce_axis(4, "wi");
    let rj = reduce_axis(4, "wj");
    let padc = pad.clone();
    let btc = bt.clone();
    let v = compute(&[4, 4, ic, tiles], "wino_V", move |idx| {
        let (eps, nu, c, p) = (
            idx[0].clone(),
            idx[1].clone(),
            idx[2].clone(),
            idx[3].clone(),
        );
        let ty = p.clone() / tiles_w;
        let tx = p % tiles_w;
        let d = padc.at(&[Expr::int(0), c, ty * 2 + ri.expr(), tx * 2 + rj.expr()]);
        sum(
            btc.at(&[eps, ri.expr()]) * btc.at(&[nu, rj.expr()]) * d,
            &[ri.clone(), rj.clone()],
        )
    });

    // Transform-domain product: a batched GEMM over channels per (eps,nu).
    let rc = reduce_axis(ic, "wc");
    let (vc, wtc) = (v.clone(), weight_t.clone());
    let m = compute(&[4, 4, oc, tiles], "wino_M", move |idx| {
        let (eps, nu, k, p) = (
            idx[0].clone(),
            idx[1].clone(),
            idx[2].clone(),
            idx[3].clone(),
        );
        sum(
            wtc.at(&[eps.clone(), nu.clone(), k, rc.expr()]) * vc.at(&[eps, nu, rc.expr(), p]),
            std::slice::from_ref(&rc),
        )
    });

    // Inverse transform: Y[k, 2ty+vy, 2tx+vx] = sum A[vy,eps] A[vx,nu] M.
    let at = const_matrix(&a_matrix(), "At");
    let re = reduce_axis(4, "we");
    let rn = reduce_axis(4, "wn");
    let (mc, atc) = (m.clone(), at.clone());
    let out = compute(&[1, oc, o, o], "wino_out", move |idx| {
        let (k, y, x) = (idx[1].clone(), idx[2].clone(), idx[3].clone());
        let p = (y.clone() / 2) * tiles_w + x.clone() / 2;
        sum(
            atc.at(&[y % 2, re.expr()])
                * atc.at(&[x % 2, rn.expr()])
                * mc.at(&[re.expr(), rn.expr(), k, p]),
            &[re.clone(), rn.clone()],
        )
    });

    WinogradOp {
        data,
        weight_t,
        pad,
        v,
        m,
        out,
        tiles_w,
    }
}

/// Host-side weight pre-transform: `U = G g G^T`, laid out `[4, 4, oc, ic]`.
pub fn transform_weights_host(wts: &[f32], oc: usize, ic: usize) -> Vec<f32> {
    let g = g_matrix();
    let mut out = vec![0.0f32; 16 * oc * ic];
    for k in 0..oc {
        for c in 0..ic {
            let base = (k * ic + c) * 9;
            for eps in 0..4 {
                for nu in 0..4 {
                    let mut acc = 0.0f32;
                    for i in 0..3 {
                        for j in 0..3 {
                            acc += g[eps][i] * g[nu][j] * wts[base + i * 3 + j];
                        }
                    }
                    out[((eps * 4 + nu) * oc + k) * ic + c] = acc;
                }
            }
        }
    }
    out
}

/// The structural half of the Winograd schedule: tile the batched-GEMM
/// stage, inline the transforms' constant matrices, schedule the inverse
/// transform injectively. The annotation knobs' loops are returned: `vec`
/// vectorizes `pi`, `par` parallelizes `oco`.
///
/// CPU targets only: the pipeline's three root stages need grid-level
/// synchronization on a GPU (three kernel launches), and this stack lowers
/// one kernel per schedule.
fn apply_winograd_structural(
    s: &mut Schedule,
    op: &WinogradOp,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<AnnPoints, TeError> {
    if target.is_gpu() {
        return Err(TeError::msg(
            "winograd scheduling is CPU-only here (see docs)",
        ));
    }
    s.compute_inline(&op.pad)?;
    // Constant matrices fold away.
    for stage in s.stages.clone() {
        let name = stage.tensor.name().to_string();
        if name == "Bt" || name == "At" {
            s.compute_inline(&stage.tensor)?;
        }
    }
    let m = &op.m;
    let ax = m.op.axes(); // eps, nu, oc, p
    let (t_oc, t_p) = (cfg.get("tile_oc"), cfg.get("tile_p"));
    let (oco, oci) = s.split(m, &ax[2], t_oc)?;
    let (po, pi) = s.split(m, &ax[3], t_p)?;
    let r = m.op.reduce_axes();
    let (rco, rci) = s.split(m, &r[0], cfg.get("tile_rc"))?;
    s.reorder(m, &[&ax[0], &ax[1], &oco, &po, &rco, &rci, &oci, &pi])?;
    // V and the inverse transform get generic schedules in their own right.
    crate::schedules::schedule_injective(s, &op.out, target)?;
    let vax = op.v.op.axes();
    s.parallel(&op.v, &vax[2])?;
    Ok(AnnPoints {
        unroll: Vec::new(),
        vec: vec![(m.clone(), pi)],
        par: Some((m.clone(), oco)),
    })
}

/// Applies a Winograd schedule configuration (CPU targets only; see
/// [`winograd_task`]).
pub fn apply_winograd_schedule(
    s: &mut Schedule,
    op: &WinogradOp,
    target: &Target,
    cfg: &ConfigEntity,
) -> Result<(), TeError> {
    let points = apply_winograd_structural(s, op, target, cfg)?;
    apply_annotations(s, cfg, &points)
}

/// The Winograd schedule space.
pub fn winograd_space(w: &Conv2dWorkload) -> ConfigSpace {
    let mut space = ConfigSpace::new();
    let tiles = (w.out_size() / 2) * (w.out_size() / 2);
    space.define_split("tile_oc", w.out_c, 16);
    space.define_split("tile_p", tiles, 32);
    space.define_split("tile_rc", w.in_c, 32);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("par", &[0, 1]);
    space
}

/// Tuning task for the pre-transformed Winograd convolution.
pub fn winograd_task(w: Conv2dWorkload, dtype: DType, target: Target) -> TuningTask {
    let op = winograd_conv2d(&w, dtype);
    let args = [op.data.clone(), op.weight_t.clone(), op.out.clone()];
    let t2 = target.clone();
    planned_task(
        format!("wino_{}@{}", w.describe(), target.name()),
        winograd_space(&w),
        target,
        std::slice::from_ref(&args[2]),
        &args,
        format!("wino_{}", w.describe()),
        move |s, cfg| apply_winograd_structural(s, &op, &t2, cfg),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::Interp;
    use tvm_sim::{arm_a53, titanx};

    fn wl() -> Conv2dWorkload {
        Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 4,
            out_c: 6,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn direct_ref(w: &Conv2dWorkload, data: &[f32], wts: &[f32]) -> Vec<f32> {
        let o = w.out_size() as usize;
        let (ic, size) = (w.in_c as usize, w.size as usize);
        let mut out = vec![0.0f32; w.out_c as usize * o * o];
        for k in 0..w.out_c as usize {
            for y in 0..o {
                for x in 0..o {
                    let mut acc = 0.0f64;
                    for c in 0..ic {
                        for dy in 0..3usize {
                            for dx in 0..3usize {
                                let iy = y as i64 + dy as i64 - 1;
                                let ix = x as i64 + dx as i64 - 1;
                                if (0..size as i64).contains(&iy) && (0..size as i64).contains(&ix)
                                {
                                    acc += data[c * size * size + iy as usize * size + ix as usize]
                                        as f64
                                        * wts[((k * ic + c) * 3 + dy) * 3 + dx] as f64;
                                }
                            }
                        }
                    }
                    out[k * o * o + y * o + x] = acc as f32;
                }
            }
        }
        out
    }

    fn check(target: &Target, cfg_idx: u64) {
        let w = wl();
        let task = winograd_task(w, DType::float32(), target.clone());
        let cfg = task.space.get(cfg_idx);
        let f = (task.builder)(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let data: Vec<f32> = (0..w.in_c * w.size * w.size)
            .map(|i| ((i * 11 % 17) as f32) * 0.2 - 1.5)
            .collect();
        let wts: Vec<f32> = (0..w.out_c * w.in_c * 9)
            .map(|i| ((i * 7 % 13) as f32) * 0.25 - 1.0)
            .collect();
        let want = direct_ref(&w, &data, &wts);
        let wt_host = transform_weights_host(&wts, w.out_c as usize, w.in_c as usize);
        let o = w.out_size() as usize;
        let mut bufs = vec![data, wt_host, vec![0.0; w.out_c as usize * o * o]];
        Interp::new()
            .run_f32(&f, &mut bufs)
            .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
        for (i, (g, wv)) in bufs[2].iter().zip(&want).enumerate() {
            assert!(
                (g - wv).abs() <= 1e-3 * wv.abs().max(1.0),
                "{} cfg {cfg_idx} at {i}: {g} vs {wv}",
                target.name()
            );
        }
    }

    #[test]
    fn winograd_matches_direct_convolution_cpu() {
        for idx in [0u64, 5, 33] {
            check(&arm_a53(), idx);
        }
    }

    #[test]
    #[should_panic(expected = "CPU-only")]
    fn winograd_rejects_gpu_targets() {
        check(&titanx(), 7);
    }

    #[test]
    fn weight_pretransform_identity() {
        // An impulse kernel transforms to G G^T structure; spot-check a
        // known value: g = all-ones gives U[0][0] = 1, U[1][1] = 2.25... no:
        // U = G g G^T with g = 1s: U[1][1] = (0.5+0.5+0.5)^2 = 2.25? Row G[1]
        // = [.5,.5,.5] so (G g)[1][j] = 1.5 for all j; then x G^T row 1 ->
        // 1.5*1.5 = 2.25.
        let wts = vec![1.0f32; 9];
        let u = transform_weights_host(&wts, 1, 1);
        assert!((u[0] - 1.0).abs() < 1e-6); // U[0,0]
        assert!((u[4 + 1] - 2.25).abs() < 1e-6); // U[1,1]
    }

    #[test]
    fn winograd_reduces_multiplications() {
        // The transform-domain product does 16/(9*2.25)... count the
        // simulated flops of the M stage vs the direct conv at equal shape.
        let w = Conv2dWorkload {
            batch: 1,
            size: 28,
            in_c: 64,
            out_c: 64,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let task = winograd_task(w, DType::float32(), arm_a53());
        let f = (task.builder)(&task.space.get(0)).expect("builds");
        let wino = tvm_sim::analyze(&f).flops;
        let direct_task = crate::schedules::conv2d_task(w, DType::float32(), arm_a53());
        let fd = (direct_task.builder)(&direct_task.space.get(0)).expect("builds");
        let direct = tvm_sim::analyze(&fd).flops;
        // The GEMM stage alone is 2.25x smaller; transforms add back some.
        assert!(wino < direct, "winograd {wino} vs direct {direct}");
    }
}
