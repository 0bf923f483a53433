//! On a GPU each thread of a fused kernel computes only the points its
//! output point reads (§4.2). A group's producers that the operator
//! templates do not place are attached under the output's `threadIdx.x`
//! leaf in thread-local memory. Were one left at root, its global buffer
//! would sit inside the kernel's thread loops and every thread would fill
//! it whole.

use tvm_graph::Graph;
use tvm_ir::{ForKind, Interp, MemScope, Stmt, StmtNode, Visitor};
use tvm_runtime::NDArray;
use tvm_serve::{Model, ALL_MODELS};
use tvm_sim::{mali_t860, titanx};

fn graphs() -> Vec<(String, Graph)> {
    let mut out = vec![
        ("resnet18".to_string(), tvm_models::resnet18(32)),
        ("mobilenet".to_string(), tvm_models::mobilenet(32)),
        ("lstm_lm".to_string(), tvm_models::lstm_lm(128, 4)),
        ("dqn".to_string(), tvm_models::dqn()),
        ("dcgan".to_string(), tvm_models::dcgan_generator()),
    ];
    for model in ALL_MODELS {
        for batch in [1, 8] {
            out.push((
                format!("{}_b{batch}", model.name()),
                model.build_graph(batch),
            ));
        }
    }
    out
}

/// Names of the `Global` buffers allocated inside a thread-bound loop.
#[derive(Default)]
struct GlobalInThread {
    depth: usize,
    found: Vec<String>,
}

impl Visitor for GlobalInThread {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::For {
                kind: ForKind::ThreadBinding(_),
                ..
            } => {
                self.depth += 1;
                self.walk_stmt(s);
                self.depth -= 1;
                return;
            }
            StmtNode::Allocate {
                buffer,
                scope: MemScope::Global,
                ..
            } if self.depth > 0 => self.found.push(buffer.name().to_string()),
            _ => {}
        }
        self.walk_stmt(s);
    }
}

#[test]
fn no_gpu_kernel_allocates_a_global_buffer_inside_its_thread_loops() {
    for target in [titanx(), mali_t860()] {
        for (model, graph) in graphs() {
            let module =
                tvm::build(&graph, &target, &tvm::BuildOptions::default()).expect("builds");
            for k in &module.kernels {
                let mut v = GlobalInThread::default();
                v.visit_stmt(&k.func.body);
                assert!(
                    v.found.is_empty(),
                    "{model} on {}: `{}` allocates {:?} in every thread",
                    target.name(),
                    k.name,
                    v.found
                );
            }
        }
    }
}

#[test]
fn tiny_cnn_pool_under_flatten_stores_each_point_once_on_titanx() {
    // 128 threads, one output point each: one pooled point (an init and
    // four window stores) and its flattened copy.
    let graph = Model::TinyCnn.build_graph(1);
    let module = tvm::build(&graph, &titanx(), &tvm::BuildOptions::default()).expect("builds");
    let k = module
        .kernels
        .iter()
        .find(|k| k.name == "fused_max_pool2d_flatten")
        .expect("a pool kernel");
    let mut arrays: Vec<Vec<f32>> = k
        .func
        .param_extents
        .iter()
        .enumerate()
        .map(|(p, &n)| NDArray::seeded(&[n as i64], p as u64 + 1).data)
        .collect();
    let mut interp = Interp::new();
    interp.run_f32(&k.func, &mut arrays).expect("runs");
    assert_eq!(interp.store_count(), 128 * 6);
}
