//! Ultra-low-precision operators (§6.2): bit-serial convolution on packed
//! sub-byte data.
//!
//! Quantized activations (2-bit) and weights (1-bit) are packed bitplane-
//! wise into `uint32` words along the channel dimension; multiplication
//! becomes `popcount(and)` per bitplane, weighted by the bitplane's place
//! value. An ARM-style bit-serial dot-product micro-kernel is exposed as a
//! tensor intrinsic (§4.3's "handcrafted micro-kernels" use case).

use tvm_autotune::planned::{apply_annotations, planned_task, AnnPoints};
use tvm_autotune::{ConfigEntity, ConfigSpace, TuningTask};
use tvm_ir::{DType, Expr, Interp, Stmt, Value};
use tvm_sim::{SimOptions, Target};
use tvm_te::{
    compute, placeholder, reduce_axis, sum, Schedule, TeError, Tensor, TensorIntrin,
    TensorIntrinImpl,
};

use crate::workloads::Conv2dWorkload;

/// Word width used for bit packing.
pub const PACK: i64 = 32;

/// A bit-serial convolution workload: a float conv plus precision config.
#[derive(Clone, Copy, Debug)]
pub struct BitserialWorkload {
    /// The underlying convolution shape.
    pub conv: Conv2dWorkload,
    /// Activation bits (2 in the paper's headline config).
    pub a_bits: i64,
    /// Weight bits (1 in the paper's headline config).
    pub w_bits: i64,
}

impl BitserialWorkload {
    /// Packed channel blocks.
    pub fn blocks(&self) -> i64 {
        (self.conv.in_c + PACK - 1) / PACK
    }

    /// Binary ops per output element (and+popcount per block per bitplane).
    pub fn binary_ops(&self) -> f64 {
        let o = self.conv.out_size() as f64;
        self.conv.out_c as f64
            * o
            * o
            * (self.blocks() * self.conv.kernel * self.conv.kernel * self.a_bits * self.w_bits)
                as f64
    }
}

/// Declares the packed bit-serial convolution.
///
/// Inputs: activations `[a_bits, blocks, h, w]` (uint32 bitplanes, already
/// padded spatially by the caller's packing) and weights
/// `[out_c, w_bits, blocks, kh, kw]`; output `[out_c, oh, ow]` int32.
pub fn bitserial_conv2d(w: &BitserialWorkload) -> (tvm_te::Tensor, tvm_te::Tensor, tvm_te::Tensor) {
    let c = &w.conv;
    assert_eq!(c.pad, 0, "pack padded activations on the host");
    let blocks = w.blocks();
    let a = placeholder(
        &[w.a_bits, blocks, c.size, c.size],
        DType::uint(32),
        "a_packed",
    );
    let wt = placeholder(
        &[c.out_c, w.w_bits, blocks, c.kernel, c.kernel],
        DType::uint(32),
        "w_packed",
    );
    let o = c.out_size();
    let rb = reduce_axis(w.a_bits, "rab");
    let rwb = reduce_axis(w.w_bits, "rwb");
    let rc = reduce_axis(blocks, "rcb");
    let rh = reduce_axis(c.kernel, "rh");
    let rw = reduce_axis(c.kernel, "rw");
    let stride = c.stride;
    let out = compute(&[c.out_c, o, o], "bitconv", |i| {
        let aw = a.at(&[
            rb.expr(),
            rc.expr(),
            i[1].clone() * stride + rh.expr(),
            i[2].clone() * stride + rw.expr(),
        ]);
        let ww = wt.at(&[i[0].clone(), rwb.expr(), rc.expr(), rh.expr(), rw.expr()]);
        let anded = Expr::binary(tvm_ir::BinOp::BitAnd, aw, ww);
        let pc = Expr::call("popcount", vec![anded], DType::int32());
        // Weight the contribution by both bitplanes' place values.
        let weighted = Expr::binary(
            tvm_ir::BinOp::Shl,
            pc,
            Expr::binary(tvm_ir::BinOp::Add, rb.expr(), rwb.expr()),
        );
        sum(
            weighted,
            &[rb.clone(), rwb.clone(), rc.clone(), rh.clone(), rw.clone()],
        )
    });
    (a, wt, out)
}

/// Declares the ARM-style bit-serial dot-product micro-kernel intrinsic:
/// one call reduces `blocks` packed words for 8 adjacent output pixels.
pub fn bitserial_dot_intrin(blocks: i64, pixels: i64) -> TensorIntrin {
    let x = placeholder(&[blocks, pixels], DType::int32(), "xb");
    let wv = placeholder(&[blocks], DType::int32(), "wb");
    let r = reduce_axis(blocks, "blk");
    let y = compute(&[pixels], "yb", |i| {
        let anded = Expr::binary(
            tvm_ir::BinOp::BitAnd,
            x.at(&[r.expr(), i[0].clone()]),
            wv.at(&[r.expr()]),
        );
        sum(
            Expr::call("popcount", vec![anded], DType::int32()),
            std::slice::from_ref(&r),
        )
    });
    let ops = blocks * pixels;
    TensorIntrin::new("arm.bitserial_dot", y, move |inputs, output| {
        let mut args = vec![
            output.access_ptr(),
            output.offset.clone(),
            inputs[0].access_ptr(),
            inputs[0].offset.clone(),
            inputs[0].strides[0].clone(),
            inputs[1].access_ptr(),
            inputs[1].offset.clone(),
        ];
        args.extend([Expr::int(blocks), Expr::int(pixels), Expr::int(ops)]);
        TensorIntrinImpl {
            reset: None,
            body: Stmt::evaluate(Expr::hw_call("arm.bitserial_dot_acc", args, DType::int32())),
        }
    })
}

/// Registers the micro-kernel's functional model. The accumulation chain
/// uses progressively wider types (the paper's memory-footprint trick):
/// popcounts accumulate in 16-bit then widen to 32-bit.
pub fn register_bitserial_interp(it: &mut Interp) {
    it.register_hw(
        "arm.bitserial_dot_acc",
        Box::new(|args, mem| {
            let out = match args[0] {
                Value::Handle(h) => h,
                _ => return Err(tvm_ir::InterpError::Unsupported("bad handle".into())),
            };
            let oo = args[1].as_int()?;
            let x = match args[2] {
                Value::Handle(h) => h,
                _ => return Err(tvm_ir::InterpError::Unsupported("bad handle".into())),
            };
            let (xo, xs) = (args[3].as_int()?, args[4].as_int()?);
            let w = match args[5] {
                Value::Handle(h) => h,
                _ => return Err(tvm_ir::InterpError::Unsupported("bad handle".into())),
            };
            let wo = args[6].as_int()?;
            let blocks = args[7].as_int()?;
            let pixels = args[8].as_int()?;
            for p in 0..pixels {
                let mut acc16: i64 = 0; // 16-bit intermediate accumulator
                for b in 0..blocks {
                    let xv = mem.load(x, xo + b * xs + p)?.as_int()?;
                    let wv = mem.load(w, wo + b)?.as_int()?;
                    acc16 = (acc16 + ((xv & wv) as u64).count_ones() as i64) & 0xffff;
                }
                let prev = mem.load(out, oo + p)?.as_int()?;
                mem.store(out, oo + p, Value::Int(prev + acc16))?;
            }
            Ok(Value::Int(0))
        }),
    );
}

/// Simulator cost of one micro-kernel call: the hand-tuned kernel retires
/// roughly 1.5x more and+popcount word-ops per cycle than compiler-
/// generated scalar code (the source of the §4.3 tensorization speedup).
pub fn bitserial_sim_options(blocks: i64, pixels: i64) -> SimOptions {
    let mut opts = SimOptions::default();
    let ops = (blocks * pixels) as f64;
    // (compute-op equivalents, L1 bytes touched) per call: 4 scalar-op
    // equivalents per word pair in generic code vs ~2.7 in the kernel.
    opts.intrin_costs
        .insert("arm.bitserial_dot_acc".into(), (ops * 4.0 / 1.5, ops * 8.0));
    opts
}

/// Tuning task for the plain (non-tensorized) bit-serial conv. The
/// annotation knobs: `unroll` unrolls the innermost reduction `r[4]`, `vec`
/// vectorizes `owi`, `par` parallelizes `oco` (multi-threaded only).
pub fn bitserial_task(w: BitserialWorkload, target: Target, threaded: bool) -> TuningTask {
    let mut space = ConfigSpace::new();
    let o = w.conv.out_size();
    space.define_split("tile_oc", w.conv.out_c, 32);
    space.define_split("tile_ow", o, 32);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("par", if threaded { &[0, 1] } else { &[0] });
    space.define_knob("unroll", &[0, 1]);
    let (a, wt, out) = bitserial_conv2d(&w);
    let args = [a, wt, out.clone()];
    planned_task(
        format!("bitserial_{}@{}", w.conv.describe(), target.name()),
        space,
        target,
        std::slice::from_ref(&args[2]),
        &args,
        format!("bitserial_{}", w.conv.describe()),
        move |s, cfg| apply_bitserial_structural(s, &out, cfg),
    )
}

/// Applies a bit-serial schedule configuration to the kernel's output
/// stage `out` (the third tensor [`bitserial_conv2d`] returns).
pub fn apply_bitserial_schedule(
    s: &mut Schedule,
    out: &Tensor,
    cfg: &ConfigEntity,
) -> Result<(), TeError> {
    let points = apply_bitserial_structural(s, out, cfg)?;
    apply_annotations(s, cfg, &points)
}

/// The structural half of the bit-serial template: channel and width
/// tiles outside the bit loops, the tiles' insides innermost.
fn apply_bitserial_structural(
    s: &mut Schedule,
    out: &Tensor,
    cfg: &ConfigEntity,
) -> Result<AnnPoints, TeError> {
    let ax = out.op.axes(); // oc, oh, ow
    let (oco, oci) = s.split(out, &ax[0], cfg.get("tile_oc"))?;
    let (owo, owi) = s.split(out, &ax[2], cfg.get("tile_ow"))?;
    let r = out.op.reduce_axes();
    s.reorder(
        out,
        &[
            &oco, &ax[1], &owo, &r[0], &r[1], &r[2], &r[3], &r[4], &oci, &owi,
        ],
    )?;
    Ok(AnnPoints {
        unroll: vec![(out.clone(), r[4].clone())],
        vec: vec![(out.clone(), owi)],
        par: Some((out.clone(), oco)),
    })
}

/// Packs float activations (quantized to `a_bits`) into bitplane words.
/// Layout `[a_bits, blocks, h, w]`, channel-minor within a word.
pub fn pack_activations(data: &[f32], in_c: usize, size: usize, a_bits: u32) -> Vec<i64> {
    let blocks = in_c.div_ceil(PACK as usize);
    let mut out = vec![0i64; a_bits as usize * blocks * size * size];
    let maxq = (1u32 << a_bits) - 1;
    for c in 0..in_c {
        for y in 0..size {
            for x in 0..size {
                let v = data[c * size * size + y * size + x].clamp(0.0, maxq as f32) as u32;
                for bit in 0..a_bits {
                    if (v >> bit) & 1 == 1 {
                        let blk = c / PACK as usize;
                        let lane = c % PACK as usize;
                        let idx = ((bit as usize * blocks + blk) * size + y) * size + x;
                        out[idx] |= 1i64 << lane;
                    }
                }
            }
        }
    }
    out
}

/// Packs binary weights `{0,1}` into words; layout `[oc, 1, blocks, kh, kw]`.
pub fn pack_weights(wts: &[f32], out_c: usize, in_c: usize, k: usize) -> Vec<i64> {
    let blocks = in_c.div_ceil(PACK as usize);
    let mut out = vec![0i64; out_c * blocks * k * k];
    for oc in 0..out_c {
        for c in 0..in_c {
            for dy in 0..k {
                for dx in 0..k {
                    let v = wts[((oc * in_c + c) * k + dy) * k + dx];
                    if v >= 0.5 {
                        let blk = c / PACK as usize;
                        let lane = c % PACK as usize;
                        let idx = ((oc * blocks + blk) * k + dy) * k + dx;
                        out[idx] |= 1i64 << lane;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_autotune::ConfigSpace as _CS;
    use tvm_sim::arm_a53;

    fn wl() -> BitserialWorkload {
        BitserialWorkload {
            conv: Conv2dWorkload {
                batch: 1,
                size: 10,
                in_c: 64,
                out_c: 8,
                kernel: 3,
                stride: 1,
                pad: 0,
            },
            a_bits: 2,
            w_bits: 1,
        }
    }

    /// Reference: quantized conv computed directly on unpacked data.
    fn reference(w: &BitserialWorkload, acts: &[f32], wts: &[f32]) -> Vec<i32> {
        let c = &w.conv;
        let (ic, size, k, oc_n) = (
            c.in_c as usize,
            c.size as usize,
            c.kernel as usize,
            c.out_c as usize,
        );
        let o = c.out_size() as usize;
        let mut out = vec![0i32; oc_n * o * o];
        for oc in 0..oc_n {
            for oy in 0..o {
                for ox in 0..o {
                    let mut acc = 0i32;
                    for ch in 0..ic {
                        for dy in 0..k {
                            for dx in 0..k {
                                let a = acts[ch * size * size + (oy + dy) * size + (ox + dx)]
                                    .clamp(0.0, 3.0) as i32;
                                let wv = if wts[((oc * ic + ch) * k + dy) * k + dx] >= 0.5 {
                                    1
                                } else {
                                    0
                                };
                                acc += a * wv;
                            }
                        }
                    }
                    out[oc * o * o + oy * o + ox] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn packed_bitserial_matches_quantized_reference() {
        let w = wl();
        let c = &w.conv;
        let acts: Vec<f32> = (0..c.in_c * c.size * c.size)
            .map(|i| (i * 13 % 4) as f32)
            .collect();
        let wts: Vec<f32> = (0..c.out_c * c.in_c * 9)
            .map(|i| ((i * 7) % 2) as f32)
            .collect();
        let want = reference(&w, &acts, &wts);
        let packed_a = pack_activations(&acts, c.in_c as usize, c.size as usize, w.a_bits as u32);
        let packed_w = pack_weights(&wts, c.out_c as usize, c.in_c as usize, 3);
        let task = bitserial_task(w, arm_a53(), true);
        let cfg = task.space.get(0);
        let f = (task.builder)(&cfg).expect("builds");
        let o = c.out_size() as usize;
        let u32t = DType::uint(32);
        let bufs = vec![
            tvm_ir::Buffer::from_i64(u32t, &packed_a),
            tvm_ir::Buffer::from_i64(u32t, &packed_w),
            tvm_ir::Buffer::zeros(DType::int32(), c.out_c as usize * o * o),
        ];
        let out = Interp::new()
            .run(&f, bufs)
            .unwrap_or_else(|e| panic!("{e}\n{}", f.body));
        for (g, wv) in out[2].to_i64().iter().zip(&want) {
            assert_eq!(*g as i32, *wv);
        }
    }

    #[test]
    fn microkernel_matches_plain_semantics() {
        // popcount dot-product intrinsic over a small block.
        let mut it = Interp::new();
        register_bitserial_interp(&mut it);
        let x = tvm_ir::Var::new("x", DType::int32());
        let wv = tvm_ir::Var::new("w", DType::int32());
        let out = tvm_ir::Var::new("o", DType::int32());
        let call = Expr::hw_call(
            "arm.bitserial_dot_acc",
            vec![
                out.to_expr(),
                Expr::int(0),
                x.to_expr(),
                Expr::int(0),
                Expr::int(2), // stride = pixels
                wv.to_expr(),
                Expr::int(0),
                Expr::int(2), // blocks
                Expr::int(2), // pixels
                Expr::int(4),
            ],
            DType::int32(),
        );
        let f = tvm_ir::LoweredFunc {
            name: "mk".into(),
            params: vec![x, wv, out],
            param_dtypes: vec![DType::int32(); 3],
            param_extents: vec![4, 2, 2],
            body: Stmt::evaluate(call),
        };
        // x: blocks x pixels = [[0b1011, 0b0110], [0b1111, 0b0001]]
        // w: [0b1010, 0b0011]
        let mut bufs = vec![
            vec![0b1011 as f32, 0b0110 as f32, 0b1111 as f32, 0b0001 as f32],
            vec![0b1010 as f32, 0b0011 as f32],
            vec![0.0f32, 0.0],
        ];
        it.run_f32(&f, &mut bufs).expect("runs");
        // pixel 0: popcount(1011&1010)=2 + popcount(1111&0011)=2 -> 4
        // pixel 1: popcount(0110&1010)=1 + popcount(0001&0011)=1 -> 2
        assert_eq!(bufs[2], vec![4.0, 2.0]);
    }

    #[test]
    fn binary_op_count_scales_with_bits() {
        let w1 = wl();
        let mut w2 = wl();
        w2.a_bits = 1;
        assert_eq!(w1.binary_ops(), 2.0 * w2.binary_ops());
    }

    #[test]
    fn space_includes_threading_knob_only_when_threaded() {
        fn knob_options(s: &_CS, name: &str) -> Vec<i64> {
            s.knobs
                .iter()
                .find(|k| k.name == name)
                .expect("knob")
                .options
                .clone()
        }
        let single = bitserial_task(wl(), arm_a53(), false);
        let multi = bitserial_task(wl(), arm_a53(), true);
        assert_eq!(knob_options(&single.space, "par"), vec![0]);
        assert_eq!(knob_options(&multi.space, "par"), vec![0, 1]);
    }
}
