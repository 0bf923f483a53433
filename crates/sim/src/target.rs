//! Hardware target descriptions.
//!
//! These architectural models stand in for the paper's evaluation hardware
//! (see DESIGN.md): parameters are chosen to match the published
//! specifications of each device so that roofline positions and schedule
//! quality orderings are preserved, even though absolute times are
//! simulated rather than measured.

use std::fmt;

use tvm_ir::MemScope;

use crate::analysis::ProgramAnalysis;

/// One level of a CPU cache hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub size: usize,
    /// Bandwidth in bytes per cycle (per core for L1, shared otherwise).
    pub bw_bytes_per_cycle: f64,
    /// Access latency in cycles (used for the latency floor).
    pub latency: f64,
}

/// CPU architectural model.
#[derive(Clone, Debug)]
pub struct CpuSpec {
    /// Target name.
    pub name: String,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Physical cores.
    pub cores: usize,
    /// SIMD lanes for f32 (NEON = 4, AVX2 = 8).
    pub simd_lanes: usize,
    /// Scalar FLOPs retired per cycle per core (FMA issue width).
    pub flops_per_cycle: f64,
    /// Cache levels, L1 first.
    pub caches: Vec<CacheLevel>,
    /// DRAM bandwidth in bytes per cycle (whole chip).
    pub dram_bw_bytes_per_cycle: f64,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Cycles to fork/join a parallel region.
    pub parallel_overhead_cycles: f64,
}

/// GPU architectural model.
#[derive(Clone, Debug)]
pub struct GpuSpec {
    /// Target name.
    pub name: String,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Streaming multiprocessors (or shader cores).
    pub sms: usize,
    /// FP32 lanes per SM.
    pub lanes_per_sm: usize,
    /// FLOPs per lane per cycle (2 with FMA).
    pub flops_per_lane: f64,
    /// Global memory bandwidth in bytes per cycle.
    pub dram_bw_bytes_per_cycle: f64,
    /// Shared memory bandwidth in bytes per cycle per SM.
    pub shared_bw_bytes_per_cycle: f64,
    /// Shared memory capacity per SM in bytes.
    pub shared_bytes_per_sm: usize,
    /// Threads per SM needed to fully hide memory latency.
    pub latency_hiding_threads: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM (tiny blocks cap occupancy).
    pub max_blocks_per_sm: usize,
    /// Global memory transaction size in bytes (coalescing granule).
    pub transaction_bytes: usize,
    /// Cycles per barrier per block.
    pub barrier_cycles: f64,
    /// Kernel launch overhead in cycles.
    pub launch_cycles: f64,
    /// Relative fp16 throughput multiplier (2.0 where fp16 is double-rate).
    pub fp16_rate: f64,
}

/// Threads one block may bind on any modelled GPU.
const MAX_BLOCK_THREADS: i64 = 1024;

/// A kernel that asks one thread block for more than its target has. No
/// device would launch it, so it has no cost: tuning candidates and the
/// kernels of a build are both held to [`Target::check_limits`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LimitExceeded {
    /// The block's `shared` allocations, in bytes, do not fit one SM.
    SharedBytes(f64),
    /// The block binds more threads than the hardware schedules.
    BlockThreads(i64),
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitExceeded::SharedBytes(used) => write!(f, "shared memory overflow: {used} bytes"),
            LimitExceeded::BlockThreads(used) => write!(f, "too many threads: {used}"),
        }
    }
}

impl std::error::Error for LimitExceeded {}

/// A compilation/simulation target.
#[derive(Clone, Debug)]
pub enum Target {
    /// Multicore CPU with SIMD.
    Cpu(CpuSpec),
    /// Throughput-oriented GPU.
    Gpu(GpuSpec),
}

impl Target {
    /// Target display name.
    pub fn name(&self) -> &str {
        match self {
            Target::Cpu(c) => &c.name,
            Target::Gpu(g) => &g.name,
        }
    }

    /// Clock in GHz.
    pub fn clock_ghz(&self) -> f64 {
        match self {
            Target::Cpu(c) => c.clock_ghz,
            Target::Gpu(g) => g.clock_ghz,
        }
    }

    /// True for GPU targets.
    pub fn is_gpu(&self) -> bool {
        matches!(self, Target::Gpu(_))
    }

    /// Checks an analyzed kernel against the per-block hardware limits:
    /// shared bytes per SM and threads per block. CPUs have neither.
    pub fn check_limits(&self, an: &ProgramAnalysis) -> Result<(), LimitExceeded> {
        let Target::Gpu(g) = self else {
            return Ok(());
        };
        let shared = an
            .alloc_bytes
            .get(&MemScope::Shared)
            .copied()
            .unwrap_or(0.0);
        if shared > g.shared_bytes_per_sm as f64 {
            return Err(LimitExceeded::SharedBytes(shared));
        }
        let threads = an.block_threads();
        if threads > MAX_BLOCK_THREADS {
            return Err(LimitExceeded::BlockThreads(threads));
        }
        Ok(())
    }

    /// Peak FLOP/s of the target.
    pub fn peak_flops(&self) -> f64 {
        match self {
            Target::Cpu(c) => {
                c.clock_ghz * 1e9 * c.cores as f64 * c.simd_lanes as f64 * c.flops_per_cycle
            }
            Target::Gpu(g) => {
                g.clock_ghz * 1e9 * g.sms as f64 * g.lanes_per_sm as f64 * g.flops_per_lane
            }
        }
    }

    /// Peak DRAM bandwidth in bytes/s.
    pub fn peak_bw(&self) -> f64 {
        match self {
            Target::Cpu(c) => c.clock_ghz * 1e9 * c.dram_bw_bytes_per_cycle,
            Target::Gpu(g) => g.clock_ghz * 1e9 * g.dram_bw_bytes_per_cycle,
        }
    }
}

/// Server-class GPU modeled on the NVIDIA Titan X (Maxwell) used in §6.1:
/// 24 SMs × 128 lanes @ ~1.0 GHz ≈ 6.1 TFLOPS fp32, 336 GB/s GDDR5.
pub fn titanx() -> Target {
    Target::Gpu(GpuSpec {
        name: "titanx-sim".into(),
        clock_ghz: 1.0,
        sms: 24,
        lanes_per_sm: 128,
        flops_per_lane: 2.0,
        dram_bw_bytes_per_cycle: 336.0,
        shared_bw_bytes_per_cycle: 128.0,
        shared_bytes_per_sm: 96 * 1024,
        latency_hiding_threads: 512,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        transaction_bytes: 32,
        barrier_cycles: 30.0,
        launch_cycles: 3000.0,
        fp16_rate: 1.0,
    })
}

/// Embedded CPU modeled on the quad-core ARM Cortex-A53 @1.2GHz used in
/// §6.2 (Raspberry Pi 3 class): NEON 4-lane f32, 32KB L1D, 512KB shared L2.
pub fn arm_a53() -> Target {
    Target::Cpu(CpuSpec {
        name: "a53-sim".into(),
        clock_ghz: 1.2,
        cores: 4,
        simd_lanes: 4,
        flops_per_cycle: 2.0,
        caches: vec![
            CacheLevel {
                size: 32 * 1024,
                bw_bytes_per_cycle: 16.0,
                latency: 3.0,
            },
            CacheLevel {
                size: 512 * 1024,
                bw_bytes_per_cycle: 8.0,
                latency: 18.0,
            },
        ],
        dram_bw_bytes_per_cycle: 2.2, // ~2.6 GB/s LPDDR2 effective
        line_bytes: 64,
        parallel_overhead_cycles: 4000.0,
    })
}

/// Embedded GPU modeled on the ARM Mali-T860MP4 used in §6.3: 4 shader
/// cores, fp16 at double rate, ~24 GFLOPS fp32.
pub fn mali_t860() -> Target {
    Target::Gpu(GpuSpec {
        name: "mali-sim".into(),
        clock_ghz: 0.7,
        sms: 4,
        lanes_per_sm: 4,
        flops_per_lane: 2.0,
        dram_bw_bytes_per_cycle: 15.0, // shared LPDDR3 ~10.6 GB/s
        shared_bw_bytes_per_cycle: 32.0,
        shared_bytes_per_sm: 32 * 1024,
        latency_hiding_threads: 128,
        max_threads_per_sm: 256,
        max_blocks_per_sm: 8,
        transaction_bytes: 64,
        barrier_cycles: 40.0,
        launch_cycles: 8000.0,
        fp16_rate: 2.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titanx_peak_matches_spec() {
        let t = titanx();
        // ~6.1 TFLOPS fp32 and 336 GB/s.
        assert!((t.peak_flops() - 6.144e12).abs() / 6.144e12 < 0.01);
        assert!((t.peak_bw() - 336e9).abs() / 336e9 < 0.01);
    }

    #[test]
    fn a53_is_memory_lean() {
        let t = arm_a53();
        // Peak ~38 GFLOPS, a few GB/s of DRAM.
        assert!(t.peak_flops() < 50e9);
        assert!(t.peak_bw() < 5e9);
        assert!(!t.is_gpu());
    }

    #[test]
    fn block_limits_hold_gpus_only() {
        let mut an = ProgramAnalysis::default();
        an.alloc_bytes.insert(MemScope::Shared, 33.0 * 1024.0);
        an.thread_extents.insert(tvm_ir::ThreadTag::ThreadIdxX, 32);
        an.thread_extents.insert(tvm_ir::ThreadTag::ThreadIdxY, 64);
        an.thread_extents.insert(tvm_ir::ThreadTag::BlockIdxX, 4096);
        // A CPU has no thread blocks; the Titan X fits 33 KiB of shared
        // memory and the Mali does not; 2,048 threads fit neither.
        assert_eq!(arm_a53().check_limits(&an), Ok(()));
        let threads = titanx().check_limits(&an).expect_err("2048 threads");
        assert_eq!(threads, LimitExceeded::BlockThreads(2048));
        assert_eq!(threads.to_string(), "too many threads: 2048");
        let shared = mali_t860().check_limits(&an).expect_err("33 KiB shared");
        assert_eq!(shared.to_string(), "shared memory overflow: 33792 bytes");
        an.thread_extents.insert(tvm_ir::ThreadTag::ThreadIdxY, 32);
        assert_eq!(titanx().check_limits(&an), Ok(()));
    }

    #[test]
    fn mali_fp16_double_rate() {
        if let Target::Gpu(g) = mali_t860() {
            assert_eq!(g.fp16_rate, 2.0);
        } else {
            panic!("mali is a GPU target");
        }
    }
}
