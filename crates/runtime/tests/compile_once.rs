//! A kernel's flat program is compiled by the first run that needs it and
//! kept on the module: however many times it runs, on however many
//! executors over one `Arc<Module>`, each distinct kernel is lowered once —
//! kernels a build found structurally equal share one program. This file
//! holds one test because it reads a process-wide `tvm-obs` counter.

use std::sync::Arc;

use tvm::BuildOptions;
use tvm_graph::DenseWorkload;
use tvm_runtime::{GraphExecutor, NDArray};

#[test]
fn runs_and_executors_share_one_compilation_per_kernel() {
    let mut g = tvm_graph::Graph::new();
    let x = g.input(&[2, 16], "data");
    let dense = |m, n, k| DenseWorkload {
        m,
        n,
        k,
        dtype: tvm_ir::DType::float32(),
    };
    // Three dense+relu layers of one shape (one distinct kernel between
    // them), then a head of another.
    let mut h = x;
    for i in 0..3 {
        let d = g.dense(h, dense(2, 16, 16), &format!("fc{i}"));
        h = g.relu(d, &format!("relu{i}"));
    }
    let head = g.dense(h, dense(2, 4, 16), "head");
    let shape = g.node(head).shape.clone();
    let sm = g.add(tvm_graph::OpType::Softmax, vec![head], shape, "prob");
    g.outputs.push(sm);
    let module = Arc::new(
        tvm::build(&g, &tvm::target::arm_a53(), &BuildOptions::default()).expect("builds"),
    );
    let distinct = module.distinct_kernels() as u64;
    assert_eq!((module.kernels.len(), distinct), (5, 3));
    assert!(
        module.kernels.iter().all(|k| k.program.get().is_none()),
        "a build compiles no program"
    );

    tvm_obs::set_enabled(true);
    let before = tvm_obs::counter_get("runtime.programs_compiled");
    let infer = |ex: &mut GraphExecutor, seed: u64| -> Vec<u32> {
        ex.set_input("data", NDArray::seeded(&[2, 16], seed))
            .expect("binds");
        ex.run().expect("runs");
        let out = ex.get_output(0).expect("output");
        out.data.iter().map(|v| v.to_bits()).collect()
    };
    // N runs on one executor ...
    let mut first = GraphExecutor::from_arc(Arc::clone(&module));
    let want: Vec<Vec<u32>> = (0..3).map(|seed| infer(&mut first, seed)).collect();
    assert_eq!(infer(&mut first, 0), want[0]);
    let compiled = || tvm_obs::counter_get("runtime.programs_compiled") - before;
    assert_eq!(compiled(), distinct, "one executor");
    // ... and M more executors on the same module, two at a time.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..2 {
                    let mut ex = GraphExecutor::from_arc(Arc::clone(&module));
                    for (seed, want) in want.iter().enumerate() {
                        assert_eq!(&infer(&mut ex, seed as u64), want);
                    }
                }
            });
        }
    });
    assert_eq!(compiled(), distinct, "four more executors on two threads");
    tvm_obs::set_enabled(false);
}
