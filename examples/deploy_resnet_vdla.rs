//! Accelerator deployment (§6.4): compile a matrix multiply for the VDLA —
//! DMA staging into on-chip SRAM, tensorized 16x16x16 GEMM-core tiles,
//! virtual-thread latency hiding — then run it both functionally (against
//! a reference) and on the pipeline simulator.
//!
//! Run with: `cargo run --release --example deploy_resnet_vdla`

use tvm_ir::{DType, Interp, MemScope};
use tvm_te::{compute, create_schedule, lower_with, placeholder, reduce_axis, sum, LowerOptions};
use tvm_vdla::{gemm_intrin, register_interp, run_timed, run_timed_monolithic, VdlaSpec};

fn main() {
    // A ResNet C9-like tile: 64x64 output, K = 128, fp32 functional model.
    let (m, n, k, t) = (64i64, 64, 128, 16);
    let a = placeholder(&[m, k], DType::float32(), "A");
    let b = placeholder(&[n, k], DType::float32(), "B");
    let kk = reduce_axis(k, "k");
    let c = compute(&[m, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), kk.expr()]) * b.at(&[i[1].clone(), kk.expr()]),
            std::slice::from_ref(&kk),
        )
    });

    let mut s = create_schedule(std::slice::from_ref(&c));
    let cl = s.cache_write(&c, MemScope::AccBuffer).unwrap();
    let ax = c.op.axes();
    let (_yo, xo, yi, _xi) = s.tile(&c, &ax[0], &ax[1], t, t).unwrap();
    let (_xoo, xov) = s.split(&c, &xo, 2).unwrap();
    s.vthread(&c, &xov).unwrap(); // two tiles in flight: latency hiding
    s.pragma(&c, &yi, "dma_copy").unwrap();
    s.compute_at(&cl, &c, &xov).unwrap();
    let clr = cl.op.reduce_axes();
    let (ko, _ki) = s.split(&cl, &clr[0], t).unwrap();
    let clax = cl.op.axes();
    s.reorder(&cl, &[&ko, &clax[0], &clax[1], &_ki]).unwrap();
    let al = s.cache_read(&a, MemScope::InpBuffer, &[&cl]).unwrap();
    let bl = s.cache_read(&b, MemScope::WgtBuffer, &[&cl]).unwrap();
    s.compute_at(&al, &cl, &ko).unwrap();
    s.compute_at(&bl, &cl, &ko).unwrap();
    let leaf = s.stage(&al).unwrap().leaf_iters[0].clone();
    s.pragma(&al, &leaf, "dma_copy").unwrap();
    let leaf = s.stage(&bl).unwrap().leaf_iters[0].clone();
    s.pragma(&bl, &leaf, "dma_copy").unwrap();
    s.tensorize(&cl, &clax[0], gemm_intrin(t, t, t, DType::float32()))
        .unwrap();

    let f = lower_with(
        &s,
        &[a, b, c],
        "vdla_gemm",
        &LowerOptions { dae_sync: true },
    )
    .expect("lowers");
    println!("generated DAE program with explicit dependence tokens:\n");
    for line in f.body.to_string().lines().take(18) {
        println!("  {line}");
    }
    println!("  ...\n");

    // Functional check against a host reference.
    let av: Vec<f32> = (0..m * k).map(|i| ((i % 17) as f32) * 0.1 - 0.8).collect();
    let bv: Vec<f32> = (0..n * k).map(|i| ((i % 13) as f32) * 0.1 - 0.6).collect();
    let mut it = Interp::new();
    register_interp(&mut it);
    let mut bufs = vec![av.clone(), bv.clone(), vec![0.0; (m * n) as usize]];
    it.run_f32(&f, &mut bufs).expect("executes");
    let mut max_err = 0.0f32;
    for y in 0..m as usize {
        for x in 0..n as usize {
            let mut acc = 0.0f32;
            for z in 0..k as usize {
                acc += av[y * k as usize + z] * bv[x * k as usize + z];
            }
            max_err = max_err.max((bufs[2][y * n as usize + x] - acc).abs());
        }
    }
    println!("functional check vs reference: max abs error {max_err:.2e}");
    assert!(max_err < 1e-3, "the VDLA program computes a wrong product");

    // Pipeline timing: monolithic vs decoupled access-execute.
    let spec = VdlaSpec {
        dram_bw_bytes_per_cycle: 64.0,
        ..VdlaSpec::default()
    };
    let mono = run_timed_monolithic(&f, &spec).expect("simulates");
    let dae = run_timed(&f, &spec).expect("simulates");
    println!(
        "monolithic pipeline: {:.0} cycles ({:.1}% GEMM-core utilization)",
        mono.cycles,
        mono.compute_utilization() * 100.0
    );
    println!(
        "DAE + virtual threads: {:.0} cycles ({:.1}% GEMM-core utilization)",
        dae.cycles,
        dae.compute_utilization() * 100.0
    );
    println!("latency hiding speedup: {:.2}x", mono.cycles / dae.cycles);
    assert!(dae.cycles < mono.cycles, "virtual threads hid no latency");
}
