//! End-to-end baseline framework models (MXNet, TensorFlow, TF-XLA,
//! TFLite, ARM ComputeLib) assembled from the vendor kernel models: each
//! framework executes the graph kernel-by-kernel with its library's
//! operators, with or without injective-op fusion (XLA fuses).

use tvm_graph::{Graph, OpType};
use tvm_sim::{estimate, Target};
use tvm_te::{create_schedule, lower};
use tvm_topi::{self as topi, Library};

/// Which framework to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Framework {
    /// MXNet: cuDNN/cuBLAS + handcrafted depthwise, no fusion.
    MxNet,
    /// TensorFlow: same libraries, slightly more framework overhead.
    TensorFlow,
    /// TensorFlow XLA: JIT-fuses element-wise ops, library convs.
    TensorFlowXla,
    /// TensorFlow Lite on ARM CPU.
    TfLite,
    /// ARM Compute Library on Mali.
    ArmComputeLib,
}

fn conv_lib(fw: Framework) -> Library {
    match fw {
        Framework::MxNet | Framework::TensorFlow | Framework::TensorFlowXla => Library::CuDnn,
        Framework::TfLite => Library::TfLite,
        Framework::ArmComputeLib => Library::ArmComputeLib,
    }
}

fn dense_lib(fw: Framework) -> Library {
    match fw {
        Framework::MxNet | Framework::TensorFlow | Framework::TensorFlowXla => Library::CuBlas,
        Framework::TfLite => Library::TfLite,
        Framework::ArmComputeLib => Library::ArmComputeLib,
    }
}

/// Simulated cost of one stand-alone injective/reduction node executed as
/// its own kernel (what a non-fusing framework pays).
fn single_op_ms(g: &Graph, id: tvm_graph::NodeId, target: &Target) -> f64 {
    // Build a one-op kernel through the compiler path.
    let node = g.node(id);
    let inputs: Vec<tvm_te::Tensor> = node
        .inputs
        .iter()
        .map(|&i| tvm_te::placeholder(&g.node(i).shape, g.node(i).dtype, &g.node(i).name))
        .collect();
    let out = match &node.op {
        OpType::Relu => topi::relu(&inputs[0]),
        OpType::BiasAdd => topi::bias_add(&inputs[0], &inputs[1]),
        OpType::BatchNorm => topi::batch_norm(&inputs[0], &inputs[1], &inputs[2]),
        OpType::Add => topi::add(&inputs[0], &inputs[1]),
        OpType::Multiply => topi::multiply(&inputs[0], &inputs[1]),
        OpType::Tanh => topi::tanh_t(&inputs[0]),
        OpType::Sigmoid => topi::sigmoid_t(&inputs[0]),
        OpType::Softmax => topi::softmax(&inputs[0]),
        OpType::MaxPool2d {
            window,
            stride,
            pad,
        } => topi::max_pool2d(&inputs[0], *window, *stride, *pad),
        OpType::GlobalAvgPool => topi::global_avg_pool(&inputs[0]),
        OpType::Flatten => topi::flatten(&inputs[0]),
        OpType::Reshape => topi::reshape(&inputs[0], &node.shape),
        _ => return 0.0,
    };
    let mut s = create_schedule(std::slice::from_ref(&out));
    if topi::schedule_injective(&mut s, &out, target).is_err() {
        return 0.0;
    }
    let mut args = inputs;
    args.push(out);
    match lower(&s, &args, node.op.name()) {
        Ok(f) => estimate(&f, target).millis(),
        Err(_) => 0.0,
    }
}

/// Models a framework's end-to-end time on a graph.
pub fn framework_e2e_ms(g: &Graph, fw: Framework, target: &Target) -> f64 {
    let mut total = 0.0;
    let mut injective_total = 0.0;
    for node in &g.nodes {
        match &node.op {
            OpType::Input | OpType::Param => {}
            OpType::Conv2d(w) => {
                total += topi::vendor_conv2d_ms(conv_lib(fw), w, node.dtype, target)
            }
            OpType::DepthwiseConv2d(w) => {
                // "they implement their own versions of depthwise
                // convolution" — handcrafted, not library-backed.
                let lib = if matches!(
                    fw,
                    Framework::MxNet | Framework::TensorFlow | Framework::TensorFlowXla
                ) {
                    Library::MxKernel
                } else {
                    conv_lib(fw)
                };
                total += topi::vendor_depthwise_ms(lib, w, node.dtype, target);
            }
            OpType::Dense(w) => total += topi::vendor_dense_ms(dense_lib(fw), w, target),
            OpType::Conv2dTranspose {
                in_c,
                in_size,
                out_c,
                kernel,
                stride,
                ..
            } => {
                // Libraries run transposed conv as a generic (unoptimized)
                // convolution over the dilated input.
                let eq = tvm_topi::Conv2dWorkload {
                    batch: 1,
                    size: (*in_size - 1) * *stride + *kernel,
                    in_c: *in_c,
                    out_c: *out_c,
                    kernel: *kernel,
                    stride: 1,
                    pad: 0,
                };
                total += topi::vendor_conv2d_ms(conv_lib(fw), &eq, node.dtype, target) * 1.3;
            }
            _ => injective_total += single_op_ms(g, node.id, target),
        }
    }
    // XLA's JIT fuses element-wise chains: most of the injective kernel
    // launches and round trips disappear.
    let fw_overhead = match fw {
        Framework::TensorFlow => 1.06,
        Framework::TensorFlowXla => 1.0,
        _ => 1.03,
    };
    let injective = match fw {
        Framework::TensorFlowXla => injective_total * 0.35,
        _ => injective_total,
    };
    (total + injective) * fw_overhead
}
