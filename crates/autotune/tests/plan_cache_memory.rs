//! What a planned tuning task holds on to. Each plan-cache entry keeps one
//! structure's marked kernel and its annotation points, not the structure's
//! schedule and lowering plan, and the tuner's memo keeps each candidate's
//! feature vector and two numbers, not its whole analysis. A seeded
//! 32-trial GbtRank tune of ResNet-18's C7 on `titanx` is measured with a
//! counting global allocator, on a one-thread pool so the count does not
//! depend on how work is split between threads.
//!
//! The bounds are what this layout measured (887 structures, about 16 KiB
//! each), plus 10 %. Holding each structure's schedule and plan, and each
//! candidate's analysis, as the task and memo did before, this tune
//! retained 21.6 MiB and peaked at 26.1 MiB.
//!
//! Lives in its own test binary with a single test: the allocator counts
//! every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tvm_autotune::{tune, TuneOptions, TunerKind};
use tvm_ir::DType;
use tvm_sim::titanx;

/// Counts the bytes live on the heap and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// read the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

/// Bytes the task retains after the tune (its plan cache, space and
/// declaration), and the tune's peak, both above the live bytes before the
/// task was built.
fn c7_titanx_tune() -> (usize, usize) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    pool.install(|| {
        let c7 = tvm_topi::resnet18_convs()[6];
        let start = LIVE.load(Ordering::Relaxed);
        PEAK.store(start, Ordering::Relaxed);
        let task = tvm_topi::conv2d_task(c7, DType::float32(), titanx());
        let opts = TuneOptions {
            n_trials: 32,
            seed: 7,
            ..TuneOptions::default()
        };
        let result = tune(&task, &opts, TunerKind::GbtRank);
        assert_eq!(result.history.len(), 32);
        assert!(result.best_ms.is_finite());
        drop(result);
        let retained = LIVE.load(Ordering::Relaxed) - start;
        let peak = PEAK.load(Ordering::Relaxed) - start;
        drop(task);
        (retained, peak)
    })
}

#[test]
fn a_tuned_task_retains_kernels_not_schedules_and_plans() {
    let (retained, peak) = c7_titanx_tune();
    let (retained, peak) = (retained as f64 / MIB, peak as f64 / MIB);
    eprintln!("retained {retained:.3} MiB, peak {peak:.3} MiB");
    const RETAINED_MIB: f64 = 13.98;
    const PEAK_MIB: f64 = 14.93;
    assert!(
        retained <= RETAINED_MIB * 1.1,
        "the tuned task retains {retained:.3} MiB, over {RETAINED_MIB} MiB + 10 %"
    );
    assert!(
        peak <= PEAK_MIB * 1.1,
        "the tune peaked at {peak:.3} MiB, over {PEAK_MIB} MiB + 10 %"
    );
}
