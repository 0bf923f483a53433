//! `GraphExecutor::run` reports into `tvm-obs` and nowhere else: with the
//! registry on, one run records one `run_op` span and one
//! `runtime.kernel_launches` per kernel; with it off, nothing; and the
//! outputs are the same bits either way. This file holds one test because
//! the registry is process-wide.

use std::sync::Arc;

use tvm::BuildOptions;
use tvm_graph::DenseWorkload;
use tvm_runtime::{GraphExecutor, NDArray};

#[test]
fn one_run_records_a_span_and_a_launch_per_kernel_only_when_enabled() {
    let mut g = tvm_graph::Graph::new();
    let x = g.input(&[2, 16], "data");
    let dense = |n| DenseWorkload {
        m: 2,
        n,
        k: 16,
        dtype: tvm_ir::DType::float32(),
    };
    let d = g.dense(x, dense(16), "fc");
    let h = g.relu(d, "relu");
    let head = g.dense(h, dense(4), "head");
    let shape = g.node(head).shape.clone();
    let sm = g.add(tvm_graph::OpType::Softmax, vec![head], shape, "prob");
    g.outputs.push(sm);
    let module = Arc::new(
        tvm::build(&g, &tvm::target::arm_a53(), &BuildOptions::default()).expect("builds"),
    );
    let kernels: Vec<&str> = module.kernels.iter().map(|k| k.name.as_str()).collect();
    assert!(kernels.len() >= 2, "{kernels:?}");
    let out_bytes: u64 = module
        .kernels
        .iter()
        .map(|k| {
            let node = module.graph.node(*k.args.last().expect("an output"));
            (node.shape.iter().product::<i64>() as usize * node.dtype.bytes()) as u64
        })
        .sum();

    let reg = tvm_obs::Registry::global();
    let run = |on: bool| {
        reg.reset();
        tvm_obs::set_enabled(on);
        let mut ex = GraphExecutor::from_arc(Arc::clone(&module));
        ex.set_input("data", NDArray::seeded(&[2, 16], 7))
            .expect("binds");
        ex.run().expect("runs");
        tvm_obs::set_enabled(false);
        let bits: Vec<u32> = ex
            .get_output(0)
            .expect("output")
            .data
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (bits, reg.events(), reg.counters())
    };

    let (off_bits, events, counters) = run(false);
    assert!(events.is_empty(), "{events:?}");
    assert!(counters.is_empty(), "{counters:?}");

    let (on_bits, events, counters) = run(true);
    let run_ops: Vec<_> = events.iter().filter(|e| e.name() == "run_op").collect();
    let named: Vec<&str> = run_ops
        .iter()
        .map(|e| match e.args.as_slice() {
            [(key, kernel)] if key == "kernel" => kernel.as_str(),
            other => panic!("`run_op` carries {other:?}"),
        })
        .collect();
    assert_eq!(
        named, kernels,
        "one `run_op` per kernel, in execution order"
    );
    assert_eq!(
        counters.get("runtime.kernel_launches"),
        Some(&(kernels.len() as u64))
    );
    assert_eq!(counters.get("runtime.output_bytes"), Some(&out_bytes));

    assert_eq!(on_bits, off_bits, "tracing changed the outputs");
}
