//! Quickstart: the paper's §2 end-user flow — import a model, build a
//! deployable module for a target, deploy and run it.
//!
//! Run with: `cargo run --release --example quickstart`

use tvm::prelude::*;

const MODEL_JSON: &str = r#"{
    "inputs": [{"name": "data", "shape": [1, 3, 32, 32]}],
    "nodes": [
        {"name": "conv1", "op": "conv2d", "inputs": ["data"],
         "channels": 16, "kernel_size": 3, "strides": 1},
        {"name": "bn1", "op": "batch_norm", "inputs": ["conv1"]},
        {"name": "relu1", "op": "relu", "inputs": ["bn1"]},
        {"name": "pool1", "op": "max_pool2d", "inputs": ["relu1"], "pool_size": 2},
        {"name": "flat", "op": "flatten", "inputs": ["pool1"]},
        {"name": "fc", "op": "dense", "inputs": ["flat"], "units": 10},
        {"name": "prob", "op": "softmax", "inputs": ["fc"]}
    ],
    "outputs": ["prob"]
}"#;

fn main() {
    // 1. Import a model description (stands in for from_keras / ONNX).
    let graph = from_json(MODEL_JSON).expect("model imports");
    println!("imported graph: {} nodes", graph.nodes.len());

    // 2. Pick a target and build: graph-level optimization (fusion, memory
    //    planning) + operator-level code generation.
    let target = tvm::target::titanx();
    let module = build(&graph, &target, &BuildOptions::default()).expect("module builds");
    println!("{}", module.describe());

    // 3. Deploy: bind inputs, run, fetch outputs. Values are computed by
    //    the reference interpreter; time comes from the target simulator.
    let mut m = GraphExecutor::new(module);
    m.set_input("data", NDArray::seeded(&[1, 3, 32, 32], 99))
        .expect("binds");
    let ms = m.run().expect("runs");
    let out = m.get_output(0).expect("output");
    println!("ran in {ms:.4} simulated ms; output shape {:?}", out.shape);
    let sum: f32 = out.data.iter().sum();
    println!("softmax row sums to {sum:.4}");
    assert!((sum - 1.0).abs() < 1e-3);
}
