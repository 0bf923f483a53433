//! Analytical performance models ("the hardware").
//!
//! These estimators play the role of running a program on real silicon:
//! the autotuner treats [`estimate`] as its ground-truth measurement, and
//! the benchmark harness reports its output as execution time. The models
//! capture the mechanisms the paper's optimizations exploit — multi-level
//! cache reuse under tiling, SIMD vectorization, multicore parallelism,
//! global-memory coalescing, shared-memory data reuse across threads, and
//! occupancy-based latency hiding — so schedule quality *orderings* match
//! the paper even though absolute times are synthetic.

use std::collections::HashMap;

use tvm_ir::{LoweredFunc, MemScope};

use crate::analysis::{analyze, AccessRecord, ProgramAnalysis};
use crate::target::{CpuSpec, GpuSpec, Target};

/// Estimated execution cost.
#[derive(Clone, Debug)]
pub struct Cost {
    /// Estimated cycles.
    pub cycles: f64,
    /// Arithmetic operations performed.
    pub flops: f64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: f64,
    /// Clock of the target, for time conversion.
    pub clock_ghz: f64,
    /// Named contributions (cycles) for diagnostics.
    pub breakdown: Vec<(String, f64)>,
}

impl Cost {
    /// Wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles / (self.clock_ghz * 1e9)
    }

    /// Wall-clock milliseconds.
    pub fn millis(&self) -> f64 {
        self.seconds() * 1e3
    }

    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops / self.seconds() / 1e9
    }

    /// Operational intensity in FLOPs/byte (roofline x-axis).
    pub fn intensity(&self) -> f64 {
        self.flops / self.dram_bytes.max(1.0)
    }
}

/// Extra simulation inputs.
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Equivalent scalar-op cost of each hardware intrinsic call (e.g. a
    /// tensorized micro-kernel): name -> (compute ops, L1 bytes).
    pub intrin_costs: HashMap<String, (f64, f64)>,
}

/// Estimates the cost of running `func` on `target`.
pub fn estimate(func: &LoweredFunc, target: &Target) -> Cost {
    estimate_with(func, target, &SimOptions::default())
}

/// Estimates with explicit options.
pub fn estimate_with(func: &LoweredFunc, target: &Target, opts: &SimOptions) -> Cost {
    let an = analyze(func);
    estimate_analysis(&an, target, opts)
}

/// Estimates from a precomputed analysis.
pub fn estimate_analysis(an: &ProgramAnalysis, target: &Target, opts: &SimOptions) -> Cost {
    match target {
        Target::Cpu(c) => cpu_cost(an, c, opts),
        Target::Gpu(g) => gpu_cost(an, g, opts),
    }
}

fn intrin_totals(an: &ProgramAnalysis, opts: &SimOptions) -> (f64, f64) {
    let mut flops = 0.0;
    let mut bytes = 0.0;
    for i in &an.intrinsics {
        let (f, b) = opts
            .intrin_costs
            .get(&i.name)
            .copied()
            .unwrap_or((16.0, 64.0));
        flops += i.trips * f;
        bytes += i.trips * b;
    }
    (flops, bytes)
}

/// Miss-traffic estimate for one access against a cache of `share` bytes:
/// the deepest loop sub-nest whose footprint fits entirely is re-fetched
/// once per iteration of the loops outside it.
fn miss_bytes(a: &AccessRecord, share: f64, line: f64) -> f64 {
    let elem = a.dtype.bytes() as f64;
    let depth = a.loops.len();
    // Spatial waste: a stride larger than one element fetches whole lines
    // but uses only one element of each.
    let stride = a.innermost_stride;
    let waste = if (-1..=1).contains(&stride) {
        1.0
    } else {
        (stride as f64 * elem).min(line) / elem
    };
    let mut d_star = 0;
    for d in 0..=depth {
        if a.footprint_at_depth[d] * elem * waste <= share {
            d_star = d;
            break;
        }
        d_star = d;
    }
    let outer_trips: f64 = a.loops[..d_star].iter().map(|l| l.extent as f64).product();
    outer_trips * a.footprint_at_depth[d_star] * elem * waste
}

fn cpu_cost(an: &ProgramAnalysis, cpu: &CpuSpec, opts: &SimOptions) -> Cost {
    let cores_eff = (cpu.cores as f64).min(an.parallel_extent as f64).max(1.0);
    let (iflops, ibytes) = intrin_totals(an, opts);

    // Compute roofline: vectorized flops use SIMD lanes; the parallel
    // fraction divides across cores (Amdahl).
    let scalar_flops = (an.flops - an.vector_flops).max(0.0);
    let serial_compute = scalar_flops / cpu.flops_per_cycle
        + an.vector_flops / (cpu.flops_per_cycle * cpu.simd_lanes as f64)
        + iflops / (cpu.flops_per_cycle * cpu.simd_lanes as f64);
    let par_frac = if an.flops > 0.0 {
        (an.parallel_flops / an.flops).clamp(0.0, 1.0)
    } else if an.parallel_extent > 1 {
        1.0
    } else {
        0.0
    };
    let compute = serial_compute * (1.0 - par_frac) + serial_compute * par_frac / cores_eff;

    // Memory: live global/shared accesses walk the hierarchy; `local`
    // accesses model registers and are free.
    let mem_accesses: Vec<&AccessRecord> = an
        .accesses
        .iter()
        .filter(|a| !matches!(a.scope, MemScope::Local))
        .collect();
    let n_buffers = {
        let mut ids: Vec<_> = mem_accesses.iter().map(|a| a.buffer).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len().max(1) as f64
    };
    let line = cpu.line_bytes as f64;
    // L1 traffic: every executed access touches L1.
    let l1_bytes: f64 = mem_accesses
        .iter()
        .map(|a| a.trips * a.dtype.bytes() as f64)
        .sum::<f64>()
        + ibytes;
    let mut level_cycles = vec![l1_bytes / (cpu.caches[0].bw_bytes_per_cycle * cores_eff)];
    let mut dram_bytes = 0.0;
    for (li, lvl) in cpu.caches.iter().enumerate() {
        let share = lvl.size as f64 / n_buffers;
        let missed: f64 = mem_accesses
            .iter()
            .map(|a| miss_bytes(a, share, line))
            .sum();
        if li + 1 < cpu.caches.len() {
            // Traffic into this level comes from the next level's bandwidth.
            let next_bw = cpu.caches[li + 1].bw_bytes_per_cycle;
            level_cycles.push(missed / (next_bw * cores_eff.sqrt().max(1.0)));
        } else {
            dram_bytes = missed;
            level_cycles.push(missed / cpu.dram_bw_bytes_per_cycle);
        }
    }

    let overhead = an.loop_iterations * 1.5 / cores_eff
        + an.branches * 2.0 / cores_eff
        + if an.parallel_extent > 1 {
            cpu.parallel_overhead_cycles
        } else {
            0.0
        };

    let mem_max = level_cycles.iter().cloned().fold(0.0, f64::max);
    let cycles = compute.max(mem_max) + overhead;
    let mut breakdown = vec![
        ("compute".to_string(), compute),
        ("l1".to_string(), level_cycles[0]),
        ("overhead".to_string(), overhead),
    ];
    for (i, c) in level_cycles.iter().enumerate().skip(1) {
        let name = if i == level_cycles.len() - 1 {
            "dram".to_string()
        } else {
            format!("l{}", i + 1)
        };
        breakdown.push((name, *c));
    }
    Cost {
        cycles,
        flops: an.flops + iflops,
        dram_bytes,
        clock_ghz: cpu.clock_ghz,
        breakdown,
    }
}

fn gpu_cost(an: &ProgramAnalysis, gpu: &GpuSpec, opts: &SimOptions) -> Cost {
    let blocks = an.grid_blocks() as f64;
    let block_threads = an.block_threads() as f64;
    let (iflops, _ibytes) = intrin_totals(an, opts);

    // fp16 runs at double rate on targets that support it.
    let min_elem = an
        .accesses
        .iter()
        .filter(|a| a.scope == MemScope::Global)
        .map(|a| a.dtype.bytes())
        .min()
        .unwrap_or(4);
    let rate = if min_elem <= 2 { gpu.fp16_rate } else { 1.0 };

    let exec_width = (gpu.sms * gpu.lanes_per_sm) as f64;
    let total_threads = (blocks * block_threads).max(1.0);
    let compute_util = (total_threads / exec_width).min(1.0).max(1.0 / exec_width);
    let compute = (an.flops + iflops) / (exec_width * gpu.flops_per_lane * rate) / compute_util;

    // Global traffic with coalescing.
    let mut dram_bytes = 0.0;
    for a in an.accesses.iter().filter(|a| a.scope == MemScope::Global) {
        let elem = a.dtype.bytes() as f64;
        let bytes = match a.thread_stride {
            Some(0) => a.trips * elem / 32.0, // broadcast across the warp
            Some(s) if s.unsigned_abs() as f64 * elem <= gpu.transaction_bytes as f64 => {
                a.trips * elem // coalesced
            }
            Some(_) => a.trips * gpu.transaction_bytes as f64, // scattered
            None => a.trips * elem,                            // serial walk by one thread
        };
        dram_bytes += bytes;
    }
    // Occupancy-driven latency hiding: too few resident threads per SM
    // leave memory latency exposed.
    let sms_used = blocks.min(gpu.sms as f64).max(1.0);
    let blocks_per_sm = (blocks / gpu.sms as f64).ceil().max(1.0);
    let resident_blocks = blocks_per_sm
        .min(
            (gpu.max_threads_per_sm as f64 / block_threads)
                .floor()
                .max(1.0),
        )
        .min(gpu.max_blocks_per_sm as f64);
    let resident = (block_threads * resident_blocks).min(gpu.max_threads_per_sm as f64);
    let occupancy = (resident / gpu.latency_hiding_threads as f64).clamp(0.02, 1.0);
    let dram = dram_bytes / gpu.dram_bw_bytes_per_cycle / occupancy
        * (gpu.sms as f64 / sms_used).max(1.0).sqrt();

    // Shared-memory traffic.
    let shared_bytes: f64 = an
        .accesses
        .iter()
        .filter(|a| a.scope == MemScope::Shared)
        .map(|a| a.trips * a.dtype.bytes() as f64)
        .sum();
    let shared = shared_bytes / (gpu.shared_bw_bytes_per_cycle * sms_used);

    // Barrier serialization: total block-level barriers, spread across SMs.
    let barrier_count = an.barriers / block_threads.max(1.0);
    let barriers = barrier_count / sms_used * gpu.barrier_cycles;

    let cycles = gpu.launch_cycles + compute.max(dram).max(shared) + barriers;
    Cost {
        cycles,
        flops: an.flops + iflops,
        dram_bytes,
        clock_ghz: gpu.clock_ghz,
        breakdown: vec![
            ("compute".into(), compute),
            ("dram".into(), dram),
            ("shared".into(), shared),
            ("barriers".into(), barriers),
            ("launch".into(), gpu.launch_cycles),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{arm_a53, titanx};
    use tvm_ir::{DType, ThreadTag};
    use tvm_te::{compute, create_schedule, lower, placeholder, reduce_axis, sum, Tensor};

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

    #[test]
    fn tiling_improves_cpu_matmul() {
        let n = 256;
        let (a, b, c) = matmul(n);
        let s = create_schedule(std::slice::from_ref(&c));
        let naive = lower(&s, &[a.clone(), b.clone(), c.clone()], "naive").expect("lowers");

        let (a2, b2, c2) = matmul(n);
        let mut s2 = create_schedule(std::slice::from_ref(&c2));
        let ax = c2.op.axes();
        let r = c2.op.reduce_axes();
        let (yo, xo, yi, xi) = s2.tile(&c2, &ax[0], &ax[1], 32, 32).unwrap();
        let (ko, ki) = s2.split(&c2, &r[0], 32).unwrap();
        s2.reorder(&c2, &[&yo, &xo, &ko, &yi, &ki, &xi]).unwrap();
        s2.vectorize(&c2, &xi).unwrap();
        s2.parallel(&c2, &yo).unwrap();
        let tiled = lower(&s2, &[a2, b2, c2], "tiled").expect("lowers");

        let t = arm_a53();
        let cn = estimate(&naive, &t);
        let ct = estimate(&tiled, &t);
        assert!(
            ct.cycles < cn.cycles / 2.0,
            "tiled {} vs naive {} cycles",
            ct.cycles,
            cn.cycles
        );
    }

    #[test]
    fn vectorize_helps_only_unit_stride() {
        let n = 512;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let b = compute(&[n, n], "B", |i| a.at(&[i[0].clone(), i[1].clone()]) * 2);
        let mut s = create_schedule(std::slice::from_ref(&b));
        let ax = b.op.axes();
        s.vectorize(&b, &ax[1]).unwrap(); // unit stride: good
        let good = lower(&s, &[a.clone(), b.clone()], "v_good").expect("lowers");

        let a2 = placeholder(&[n, n], DType::float32(), "A");
        let b2 = compute(&[n, n], "B", |i| a2.at(&[i[0].clone(), i[1].clone()]) * 2);
        let mut s2 = create_schedule(std::slice::from_ref(&b2));
        let ax2 = b2.op.axes();
        s2.reorder(&b2, &[&ax2[1], &ax2[0]]).unwrap();
        let bad = lower(&s2, &[a2, b2], "strided").expect("lowers");

        let t = arm_a53();
        assert!(estimate(&good, &t).cycles < estimate(&bad, &t).cycles);
    }

    #[test]
    fn gpu_prefers_more_parallelism() {
        let n = 1024;
        let (a, b, c) = matmul(n);
        let mut s = create_schedule(std::slice::from_ref(&c));
        let ax = c.op.axes();
        let (by, bx, ty, tx) = s.tile(&c, &ax[0], &ax[1], 16, 16).unwrap();
        s.bind(&c, &by, ThreadTag::BlockIdxY).unwrap();
        s.bind(&c, &bx, ThreadTag::BlockIdxX).unwrap();
        s.bind(&c, &ty, ThreadTag::ThreadIdxY).unwrap();
        s.bind(&c, &tx, ThreadTag::ThreadIdxX).unwrap();
        let wide = lower(&s, &[a.clone(), b.clone(), c.clone()], "wide").expect("lowers");

        let (a2, b2, c2) = matmul(n);
        let mut s2 = create_schedule(std::slice::from_ref(&c2));
        let ax2 = c2.op.axes();
        let (bx2, tx2) = s2.split(&c2, &ax2[0], 4).unwrap();
        s2.bind(&c2, &bx2, ThreadTag::BlockIdxX).unwrap();
        s2.bind(&c2, &tx2, ThreadTag::ThreadIdxX).unwrap();
        let narrow = lower(&s2, &[a2, b2, c2], "narrow").expect("lowers");

        let t = titanx();
        let cw = estimate(&wide, &t);
        let cn = estimate(&narrow, &t);
        assert!(
            cw.cycles < cn.cycles,
            "wide {} narrow {}",
            cw.cycles,
            cn.cycles
        );
    }

    #[test]
    fn breakdown_and_units_are_consistent() {
        let (a, b, c) = matmul(64);
        let s = create_schedule(std::slice::from_ref(&c));
        let f = lower(&s, &[a, b, c], "mm").expect("lowers");
        let cost = estimate(&f, &arm_a53());
        assert!(cost.cycles > 0.0);
        assert!(cost.millis() > 0.0);
        assert!(cost.gflops() > 0.0);
        assert!(!cost.breakdown.is_empty());
        // flops ~ 2*n^3.
        let expect = 2.0 * 64f64.powi(3);
        assert!((cost.flops - expect).abs() / expect < 0.1);
    }
}
