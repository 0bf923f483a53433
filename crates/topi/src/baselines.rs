//! "Vendor library" baselines (cuDNN/cuBLAS, TFLite, ARM Compute Library,
//! MXNet handcrafted kernels, Caffe2 ultra-low-precision).
//!
//! Per DESIGN.md's substitution table: a vendor library is modeled as an
//! *expert-tuned fixed schedule* executed on the same architectural
//! simulator, scaled by a per-library efficiency factor that captures
//! hand-written-assembly quality on the shapes the library was tuned for —
//! and the lack of tuning on unconventional shapes (the effect behind
//! DQN's 3.8x win in §6.1: cuDNN is "not well optimized" for 4x4/stride-2
//! convolutions).

use std::cell::RefCell;
use std::collections::HashMap;

use tvm_autotune::{tune, TuneOptions, TunerKind};
use tvm_ir::DType;
use tvm_sim::Target;

use crate::schedules::{conv2d_task, dense_task, depthwise_task};
use crate::workloads::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload};

/// Which vendor library is being modeled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Library {
    /// NVIDIA cuDNN (server GPU convolutions).
    CuDnn,
    /// NVIDIA cuBLAS (server GPU matmul).
    CuBlas,
    /// MXNet's handcrafted depthwise kernels (§6.1).
    MxKernel,
    /// TensorFlow Lite kernels (ARM CPU, §6.2).
    TfLite,
    /// ARM Compute Library (Mali GPU, §6.3).
    ArmComputeLib,
    /// Caffe2 ultra-low-precision kernels (§6.2).
    Caffe2LowPrec,
}

/// True for the shapes a conv library is heavily hand-optimized for.
fn conv_is_standard(w: &Conv2dWorkload) -> bool {
    // 1x1 and 3x3 stride-1 convolutions (and the classic 7x7 stem) are the
    // bread and butter of vendor libraries.
    matches!((w.kernel, w.stride), (3, 1) | (1, 1) | (7, 2))
}

/// Library efficiency multiplier relative to a well-tuned kernel on the
/// same cost model: ~1 means the library matches a searched schedule
/// (which is what the paper observes for standard shapes), > 1 means the
/// library falls back to a slow generic path (the unconventional-shape
/// effect behind DQN's 3.8x).
fn conv_efficiency(lib: Library, w: &Conv2dWorkload) -> f64 {
    match lib {
        Library::CuDnn => {
            if conv_is_standard(w) {
                1.1
            } else {
                1.9 // generic fallback for 4x4/s2, 8x8/s4, 1x1/s2 ...
            }
        }
        Library::MxKernel => 1.6, // handcrafted but not tuned per shape
        Library::TfLite => {
            if conv_is_standard(w) {
                1.25
            } else {
                1.6
            }
        }
        Library::ArmComputeLib => {
            if conv_is_standard(w) {
                1.25
            } else {
                1.5
            }
        }
        Library::Caffe2LowPrec => {
            // The ultra-low-precision library is "not optimized" for
            // kernel-size-1 stride-2 layers (C5, C8, C11 in Fig. 18).
            if w.kernel == 1 && w.stride == 2 {
                2.5
            } else {
                1.2
            }
        }
        Library::CuBlas => 0.95,
    }
}

thread_local! {
    static EXPERT_CACHE: RefCell<HashMap<(String, DType), f64>> = RefCell::new(HashMap::new());
}

/// An expert-written kernel: a short deterministic ML-guided search of the
/// schedule space stands in for the vendor's hand optimization, so library
/// and compiler numbers share one cost model. Memoized per task name and
/// operand `dtype` (a task's name leaves its dtype out).
pub fn expert_ms(task: &tvm_autotune::TuningTask, dtype: DType) -> f64 {
    let key = (task.name.clone(), dtype);
    if let Some(v) = EXPERT_CACHE.with(|c| c.borrow().get(&key).copied()) {
        return v;
    }
    let opts = TuneOptions {
        n_trials: 32,
        batch: 8,
        sa_steps: 8,
        sa_chains: 8,
        seed: 7,
        warm_start: Vec::new(),
    };
    let best = tune(task, &opts, TunerKind::GbtRank).best_ms;
    EXPERT_CACHE.with(|c| c.borrow_mut().insert(key, best));
    best
}

/// Modeled vendor time for a convolution workload.
pub fn vendor_conv2d_ms(lib: Library, w: &Conv2dWorkload, dtype: DType, target: &Target) -> f64 {
    let task = conv2d_task(*w, dtype, target.clone());
    expert_ms(&task, dtype) * conv_efficiency(lib, w)
}

/// Modeled vendor time for a depthwise convolution.
pub fn vendor_depthwise_ms(
    lib: Library,
    w: &DepthwiseConv2dWorkload,
    dtype: DType,
    target: &Target,
) -> f64 {
    let task = depthwise_task(*w, dtype, target.clone());
    // Depthwise is "relatively new and not yet supported by the latest
    // libraries" — every baseline uses a handcrafted, per-shape-untuned
    // kernel.
    let eff = match lib {
        Library::MxKernel => 1.6,
        Library::TfLite => 1.3,
        Library::ArmComputeLib => 1.25,
        _ => 1.6,
    };
    expert_ms(&task, dtype) * eff
}

/// Modeled vendor time for a dense layer.
pub fn vendor_dense_ms(lib: Library, w: &DenseWorkload, target: &Target) -> f64 {
    let task = dense_task(*w, target.clone());
    let eff = match lib {
        Library::CuBlas => 0.9,
        Library::TfLite => 0.9,
        Library::ArmComputeLib => 0.9,
        _ => 1.0,
    };
    expert_ms(&task, w.dtype) * eff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{dqn_convs, resnet18_convs};
    use tvm_sim::titanx;

    #[test]
    fn cudnn_strong_on_standard_weak_on_unusual() {
        let t = titanx();
        let c2 = resnet18_convs()[1]; // 3x3 s1
        let dqn = dqn_convs()[1]; // 4x4 s2
        let std_eff = conv_efficiency(Library::CuDnn, &c2);
        let odd_eff = conv_efficiency(Library::CuDnn, &dqn);
        // Standard shapes are near-parity with a searched schedule; the
        // unconventional DQN shape pays a large generic-fallback penalty.
        assert!(std_eff < 1.3);
        assert!(odd_eff > 1.5);
        assert!(odd_eff / std_eff > 1.5);
        let ms = vendor_conv2d_ms(Library::CuDnn, &c2, DType::float32(), &t);
        assert!(ms > 0.0 && ms.is_finite());
    }

    #[test]
    fn caffe2_lowprec_weak_on_1x1_stride2() {
        let c5 = resnet18_convs()[4]; // 1x1 s2
        let c6 = resnet18_convs()[5]; // 3x3 s1
        assert!(
            conv_efficiency(Library::Caffe2LowPrec, &c5)
                > conv_efficiency(Library::Caffe2LowPrec, &c6)
        );
    }
}
