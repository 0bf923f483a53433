//! `tvm-runtime` — the deployable-module runtime (§2's end-user example):
//! `NDArray` tensors, a [`Module`] packaging the optimized graph with its
//! compiled kernels and memory plan, and a [`GraphExecutor`] with the
//! `set_input` / `run` / `get_output` interface.
//!
//! Execution is *functional* (the interpreter computes real values) while
//! timing is *simulated* (each kernel carries the cost its target simulator
//! estimated at compile time) — see DESIGN.md. A kernel is lowered to a
//! flat [`Program`] the first time it runs and the program is kept on the
//! module, so every later run, on any executor over the same
//! `Arc<Module>`, only executes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use tvm_graph::{FusedGraph, Graph, GraphReport, KernelView, MemoryPlan, NodeId, OpType};
use tvm_ir::{Interp, LoweredFunc, Program};

/// Typed executor failures: malformed bindings and interpreter faults are
/// recoverable `Err`s, not process aborts — a serving layer can reject one
/// bad request and keep the executor alive.
#[derive(Clone, Debug)]
pub enum RuntimeError {
    /// `set_input` named no input node.
    UnknownInput(String),
    /// `set_param` named no parameter node.
    UnknownParam(String),
    /// A bound tensor's shape disagrees with the graph node's shape.
    ShapeMismatch {
        /// Node name.
        name: String,
        /// Shape declared by the graph.
        expected: Vec<i64>,
        /// Shape of the tensor supplied.
        got: Vec<i64>,
    },
    /// `run` found an unbound input.
    MissingInput(String),
    /// `get_output` index out of range.
    BadOutputIndex {
        /// Index requested.
        index: usize,
        /// Number of graph outputs.
        outputs: usize,
    },
    /// `get_output` before a successful `run`.
    NotRun(String),
    /// A kernel's argument list is malformed (e.g. no output binding).
    MalformedKernel(String),
    /// A kernel referenced a node id outside the graph (stale or corrupt
    /// module).
    BadNodeRef {
        /// Kernel whose argument list holds the reference.
        kernel: String,
        /// The out-of-range node index.
        node: usize,
    },
    /// A tensor payload's length disagrees with its declared shape.
    DataMismatch {
        /// Elements the shape implies.
        expected: usize,
        /// Elements supplied.
        got: usize,
    },
    /// The interpreter faulted while executing a kernel.
    Interp {
        /// Display name of the kernel that faulted.
        kernel: String,
        /// The fault.
        error: tvm_ir::InterpError,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownInput(n) => write!(f, "no input named `{n}`"),
            RuntimeError::UnknownParam(n) => write!(f, "no param named `{n}`"),
            RuntimeError::ShapeMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "`{name}` shape mismatch: graph declares {expected:?}, tensor has {got:?}"
            ),
            RuntimeError::MissingInput(n) => write!(f, "missing value for `{n}` (unset input?)"),
            RuntimeError::BadOutputIndex { index, outputs } => {
                write!(f, "output index {index} out of range ({outputs} outputs)")
            }
            RuntimeError::NotRun(n) => write!(f, "output `{n}` not computed: run() first"),
            RuntimeError::MalformedKernel(n) => {
                write!(f, "kernel `{n}` has a malformed argument list")
            }
            RuntimeError::BadNodeRef { kernel, node } => {
                write!(
                    f,
                    "kernel `{kernel}` references node {node} outside the graph"
                )
            }
            RuntimeError::DataMismatch { expected, got } => {
                write!(f, "payload has {got} elements, shape implies {expected}")
            }
            RuntimeError::Interp { kernel, error } => {
                write!(f, "interpreter fault in kernel `{kernel}`: {error}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Interp { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A dense host tensor (f32).
#[derive(Clone, Debug, PartialEq)]
pub struct NDArray {
    /// Shape.
    pub shape: Vec<i64>,
    /// Row-major contents.
    pub data: Vec<f32>,
}

impl NDArray {
    /// Zero-filled tensor.
    pub fn zeros(shape: &[i64]) -> NDArray {
        NDArray {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product::<i64>() as usize],
        }
    }

    /// Tensor from contents, rejecting length mismatches and negative
    /// dimensions with a typed error instead of panicking — the request
    /// ingestion path of a serving layer.
    pub fn try_new(shape: &[i64], data: Vec<f32>) -> Result<NDArray, RuntimeError> {
        let expected = numel_of(shape).ok_or(RuntimeError::DataMismatch {
            expected: usize::MAX,
            got: data.len(),
        })?;
        if expected != data.len() {
            return Err(RuntimeError::DataMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(NDArray {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Deterministic pseudo-random tensor (for parameter initialization in
    /// examples and benches).
    pub fn seeded(shape: &[i64], seed: u64) -> NDArray {
        let n = shape.iter().product::<i64>() as usize;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let data = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect();
        NDArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }
}

/// Element count a shape implies; `None` when a dimension is negative or
/// the count overflows (a corrupt shape must not turn into a giant
/// allocation, a panic or a count wrapped to something small).
fn numel_of(shape: &[i64]) -> Option<usize> {
    shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(usize::try_from(d).ok()?))
}

/// Moves a kernel's input buffers back into their tensors (a tensor bound
/// twice went in once, so it comes back once) and returns the buffer after
/// them: the kernel's output, or an empty one if the inputs were cut short.
fn give_back(
    values: &mut [Option<NDArray>],
    inputs: &[NodeId],
    bufs: &mut Vec<Vec<f32>>,
) -> Vec<f32> {
    let mut bufs = bufs.drain(..);
    for (ai, (arg, buf)) in inputs.iter().zip(bufs.by_ref()).enumerate() {
        if !inputs[..ai].contains(arg) {
            if let Some(v) = values.get_mut(arg.0).and_then(Option::as_mut) {
                v.data = buf;
            }
        }
    }
    bufs.next().unwrap_or_default()
}

/// Simulator cost figures carried from compile time into the runtime, as
/// plain numbers so the runtime stays independent of `tvm-sim`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GroupCost {
    /// Simulated device cycles.
    pub cycles: f64,
    /// Floating-point operations executed.
    pub flops: f64,
    /// Bytes moved to/from simulated DRAM.
    pub dram_bytes: f64,
}

/// One compiled fused kernel.
pub struct CompiledGroup {
    /// The lowered function.
    pub func: LoweredFunc,
    /// Graph nodes whose values bind to the function's buffer params, in
    /// order; the last entry is the kernel output.
    pub args: Vec<NodeId>,
    /// Simulated execution time on the module's target.
    pub est_ms: f64,
    /// Detailed simulator cost (zeros when the builder does not model it).
    pub cost: GroupCost,
    /// Display name.
    pub name: String,
    /// The flat program of `func`, compiled by the first run that needs it
    /// (start it as `Default::default()`): a build never pays for it, and a
    /// module shared through an `Arc` compiles each kernel once however
    /// many executors run it. Kernels a build found structurally equal hold
    /// the same cell, so they are compiled and kept once between them.
    pub program: Arc<OnceLock<Program>>,
}

impl CompiledGroup {
    /// The kernel's flat program, compiling it on first use.
    pub fn program(&self) -> &Program {
        self.program.get_or_init(|| {
            tvm_obs::counter_add("runtime.programs_compiled", 1);
            Program::compile_f32(&self.func)
        })
    }
}

/// A deployable module: optimized graph + generated operators + plan —
/// the `(graph, lib, params)` triple of §2.
pub struct Module {
    /// The optimized graph.
    pub graph: Graph,
    /// The fusion grouping the kernels were generated from (kernel `i`
    /// implements group `i`) — kept so the graph-layer verifiers can check
    /// the module without re-deriving fusion.
    pub fused: FusedGraph,
    /// Compiled kernels in execution order.
    pub kernels: Vec<CompiledGroup>,
    /// Static memory plan.
    pub plan: MemoryPlan,
    /// Target name the module was built for.
    pub target_name: String,
}

impl Module {
    /// Total simulated end-to-end time.
    pub fn total_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.est_ms).sum()
    }

    /// Total simulated device cycles.
    pub fn total_cycles(&self) -> f64 {
        self.kernels.iter().map(|k| k.cost.cycles).sum()
    }

    /// The one static verdict on this module (`tvm_graph::verify_build`):
    /// memory-plan safety (recomputed liveness + interference), fusion
    /// legality, the cross-layer slot contracts proving each kernel's touch
    /// set fits the planner's allocation, and the loop-IR passes (`ssa`,
    /// `bounds`, `sync`) over each distinct kernel body. `tvm::build` gates
    /// only the graph passes and the hardware limits; this is for whoever
    /// wants the rest: `tvm-lint --graph`, the test suites, and a
    /// `debug_assert!` at the end of `tvm::build`.
    pub fn verify(&self) -> GraphReport {
        let views: Vec<KernelView<'_>> = self
            .kernels
            .iter()
            .map(|k| KernelView {
                name: &k.name,
                func: &k.func,
                args: &k.args,
            })
            .collect();
        tvm_graph::verify_build(&self.graph, &self.fused, &self.plan, &views)
    }

    /// Kernels with a program cell of their own: what the build compiled,
    /// as opposed to handed on to a structural repeat.
    pub fn distinct_kernels(&self) -> usize {
        let cells: HashSet<_> = self
            .kernels
            .iter()
            .map(|k| Arc::as_ptr(&k.program))
            .collect();
        cells.len()
    }

    /// The per-kernel report, read off the module alone: each kernel's
    /// simulated ms, cycles, flops, DRAM traffic, output bytes and storage
    /// slot, then the totals and how much the memory plan's slot sharing
    /// saved. Every column is fixed when the module is built, so the text
    /// is safe to golden-test.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{:<44} {:>10} {:>14} {:>12} {:>12} {:>10} {:>5}\n",
            "op", "est_ms", "cycles", "flops", "dram_bytes", "out_bytes", "slot"
        );
        for k in &self.kernels {
            let out = k.args.last().copied();
            let out_bytes = out
                .and_then(|id| self.graph.get(id))
                .map_or(0, |n| numel_of(&n.shape).unwrap_or(0) * n.dtype.bytes());
            let slot = out
                .and_then(|id| self.plan.storage_of.get(id.0))
                .filter(|&&s| s != usize::MAX)
                .map_or("-".to_string(), |s| s.to_string());
            s.push_str(&format!(
                "{:<44} {:>10.4} {:>14.0} {:>12.0} {:>12.0} {:>10} {:>5}\n",
                k.name, k.est_ms, k.cost.cycles, k.cost.flops, k.cost.dram_bytes, out_bytes, slot
            ));
        }
        s.push_str(&format!(
            "total: {:.4} ms, {:.0} cycles over {} ops; plan: {} slots, {} B planned vs {} B unshared\n",
            self.total_ms(),
            self.total_cycles(),
            self.kernels.len(),
            self.plan.slot_sizes.len(),
            self.plan.total_bytes(),
            self.plan.naive_bytes(&self.graph, &self.fused),
        ));
        s
    }
}

/// The graph executor: `runtime.create(graph, lib, ctx)` in §2.
///
/// The module is held behind an [`Arc`] so a serving layer can share one
/// compiled artifact across many concurrent batched executors without
/// recompiling or cloning kernels — see [`GraphExecutor::from_arc`].
/// An executor is meant to live: weights are bound once, and a run reuses
/// the storage of the run before for every kernel output.
pub struct GraphExecutor {
    module: Arc<Module>,
    /// Node values indexed by `NodeId`: bound inputs and parameters, and
    /// the kernel outputs the last run computed.
    values: Vec<Option<NDArray>>,
    /// Per kernel, its output from the run before, kept only for the
    /// allocation: no kernel reads it and no `get_output` returns it.
    spent: Vec<Option<NDArray>>,
}

impl GraphExecutor {
    /// Creates an executor and auto-initializes all parameters with
    /// deterministic pseudo-random values (override via
    /// [`GraphExecutor::set_param`]).
    pub fn new(module: Module) -> GraphExecutor {
        Self::from_arc(Arc::new(module))
    }

    /// Creates an executor over a shared compiled module (the serving
    /// cache hands the same `Arc` to every batch executor).
    pub fn from_arc(module: Arc<Module>) -> GraphExecutor {
        Self::from_arc_with_weights(module, 0)
    }

    /// [`GraphExecutor::from_arc`] with an explicit *weight-set seed*:
    /// every parameter is initialized from a stream keyed by both its
    /// node id and `weights`, so two executors with the same seed hold
    /// bit-identical weights and two seeds model two different pushed
    /// weight sets (the serving layer's versioned models). Seed `0`
    /// reproduces [`GraphExecutor::from_arc`] exactly.
    pub fn from_arc_with_weights(module: Arc<Module>, weights: u64) -> GraphExecutor {
        let values = module
            .graph
            .nodes
            .iter()
            .map(|node| {
                matches!(node.op, OpType::Param).then(|| {
                    let seed = (node.id.0 as u64 + 1)
                        .wrapping_add(weights.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    NDArray::seeded(&node.shape, seed)
                })
            })
            .collect();
        let spent = module.kernels.iter().map(|_| None).collect();
        GraphExecutor {
            module,
            values,
            spent,
        }
    }

    /// Module accessor.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Binds an input by node name; rejects unknown names and shape
    /// mismatches.
    pub fn set_input(&mut self, name: &str, value: NDArray) -> Result<(), RuntimeError> {
        let id = self
            .module
            .graph
            .nodes
            .iter()
            .find(|n| n.name == name && matches!(n.op, OpType::Input))
            .ok_or_else(|| RuntimeError::UnknownInput(name.to_string()))?
            .id;
        let expected = &self.module.graph.node(id).shape;
        if *expected != value.shape {
            return Err(RuntimeError::ShapeMismatch {
                name: name.to_string(),
                expected: expected.clone(),
                got: value.shape,
            });
        }
        self.values[id.0] = Some(value);
        Ok(())
    }

    /// Overrides a parameter by name; rejects unknown names and shape
    /// mismatches.
    pub fn set_param(&mut self, name: &str, value: NDArray) -> Result<(), RuntimeError> {
        let id = self
            .module
            .graph
            .nodes
            .iter()
            .find(|n| n.name == name && matches!(n.op, OpType::Param))
            .ok_or_else(|| RuntimeError::UnknownParam(name.to_string()))?
            .id;
        let expected = &self.module.graph.node(id).shape;
        if *expected != value.shape {
            return Err(RuntimeError::ShapeMismatch {
                name: name.to_string(),
                expected: expected.clone(),
                got: value.shape,
            });
        }
        self.values[id.0] = Some(value);
        Ok(())
    }

    /// Executes the graph; returns the simulated time in ms. Unbound
    /// inputs and interpreter faults come back as [`RuntimeError`]s and
    /// leave the executor usable (bind the input and run again); after one,
    /// no output of an earlier run is readable.
    ///
    /// Each kernel runs under a `tvm-obs` `run_op` span and adds to the
    /// `runtime.kernel_launches` and `runtime.output_bytes` counters, all
    /// inert unless `tvm_obs::set_enabled(true)`.
    pub fn run(&mut self) -> Result<f64, RuntimeError> {
        let mut total = 0.0;
        let module = Arc::clone(&self.module);
        // Every output of the run before is retired before any kernel runs,
        // so none is read as an input and none outlives a failed run.
        for (k, spent) in module.kernels.iter().zip(&mut self.spent) {
            let value = k.args.last().and_then(|out| self.values.get_mut(out.0));
            if let Some(v) = value.and_then(Option::take) {
                *spent = Some(v);
            }
        }
        let mut it = Interp::new();
        let mut bufs: Vec<Vec<f32>> = Vec::new();
        for (k, spent) in module.kernels.iter().zip(&mut self.spent) {
            let (&out_id, inputs) = k
                .args
                .split_last()
                .ok_or_else(|| RuntimeError::MalformedKernel(k.name.clone()))?;
            let node_of = |arg: NodeId| {
                module.graph.get(arg).ok_or(RuntimeError::BadNodeRef {
                    kernel: k.name.clone(),
                    node: arg.0,
                })
            };
            let out_node = node_of(out_id)?;
            let out_len = numel_of(&out_node.shape).ok_or(RuntimeError::BadNodeRef {
                kernel: k.name.clone(),
                node: out_id.0,
            })?;
            // The kernel reads its inputs in place: each tensor's data is
            // moved into `bufs` for the run and moved back after it.
            bufs.clear();
            for (ai, &arg) in inputs.iter().enumerate() {
                let buf = match inputs[..ai].iter().position(|&a| a == arg) {
                    Some(first) => bufs[first].clone(), // one tensor bound twice
                    None => match self.values.get_mut(arg.0).and_then(Option::as_mut) {
                        Some(v) => std::mem::take(&mut v.data),
                        None => {
                            give_back(&mut self.values, inputs, &mut bufs);
                            return Err(RuntimeError::MissingInput(node_of(arg)?.name.clone()));
                        }
                    },
                };
                bufs.push(buf);
            }
            // The output refills the storage it had the run before, zeroed
            // exactly as a fresh allocation would be.
            let mut out = spent.take().unwrap_or_else(|| NDArray {
                shape: out_node.shape.clone(),
                data: Vec::new(),
            });
            out.data.clear();
            out.data.resize(out_len, 0.0);
            bufs.push(std::mem::take(&mut out.data));
            let result = {
                let _op_span = tvm_obs::span_with("run_op", &[("kernel", &k.name)]);
                it.run_compiled(k.program(), &mut bufs)
            };
            out.data = give_back(&mut self.values, inputs, &mut bufs);
            if let Err(error) = result {
                *spent = Some(out);
                return Err(RuntimeError::Interp {
                    kernel: k.name.clone(),
                    error,
                });
            }
            tvm_obs::counter_add("runtime.kernel_launches", 1);
            tvm_obs::counter_add(
                "runtime.output_bytes",
                (out.numel() * out_node.dtype.bytes()) as u64,
            );
            self.values[out_id.0] = Some(out);
            total += k.est_ms;
        }
        Ok(total)
    }

    /// Fetches the i-th graph output as the last [`run`] computed it;
    /// [`RuntimeError::NotRun`] if that run failed before computing it.
    ///
    /// [`run`]: GraphExecutor::run
    pub fn get_output(&self, i: usize) -> Result<&NDArray, RuntimeError> {
        let outputs = self.module.graph.outputs.len();
        if i >= outputs {
            return Err(RuntimeError::BadOutputIndex { index: i, outputs });
        }
        let id = self.module.graph.outputs[i];
        self.values
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                let name = self
                    .module
                    .graph
                    .get(id)
                    .map(|n| n.name.clone())
                    .unwrap_or_else(|| format!("node#{}", id.0));
                RuntimeError::NotRun(name)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndarray_construction() {
        let a = NDArray::zeros(&[2, 3]);
        assert_eq!(a.numel(), 6);
        let b = NDArray::seeded(&[4, 4], 7);
        assert_eq!(b.numel(), 16);
        // Deterministic.
        assert_eq!(b, NDArray::seeded(&[4, 4], 7));
        assert_ne!(b, NDArray::seeded(&[4, 4], 8));
        assert!(b.data.iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn try_new_rejects_a_shape_whose_element_count_overflows() {
        // 2^32 x 2^32 elements: the count neither panics nor wraps to 0,
        // which an empty payload would match.
        for shape in [[1i64 << 32, 1 << 32], [i64::MAX, 3]] {
            let err = NDArray::try_new(&shape, vec![]).unwrap_err();
            assert!(
                matches!(err, RuntimeError::DataMismatch { got: 0, .. }),
                "{shape:?}: {err}"
            );
        }
        assert!(NDArray::try_new(&[0, 1 << 40], vec![]).is_ok());
    }

    #[test]
    fn weight_seed_zero_matches_default_and_seeds_differ() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4], "data");
        let w = g.add(OpType::Param, vec![], vec![4, 4], "w");
        g.outputs.push(x);
        let fused = tvm_graph::fuse(&g, true);
        let plan = tvm_graph::plan_memory(&g, &fused);
        let module = Arc::new(Module {
            graph: g,
            fused,
            kernels: vec![],
            plan,
            target_name: "test".into(),
        });
        let default = GraphExecutor::from_arc(Arc::clone(&module));
        let v0 = GraphExecutor::from_arc_with_weights(Arc::clone(&module), 0);
        let v1 = GraphExecutor::from_arc_with_weights(Arc::clone(&module), 1);
        let param = |ex: &GraphExecutor| ex.values[w.0].clone().expect("param");
        assert_eq!(param(&default), param(&v0), "seed 0 must be the default");
        assert_ne!(param(&v0), param(&v1), "weight sets must differ by seed");
        // Same seed, same bits — versioned weights are reproducible.
        let v1b = GraphExecutor::from_arc_with_weights(module, 1);
        assert_eq!(param(&v1), param(&v1b));
    }

    #[test]
    fn input_shape_checked() {
        // A minimal module with one input and no kernels.
        let mut g = Graph::new();
        let x = g.input(&[1, 4], "data");
        g.outputs.push(x);
        let fused = tvm_graph::fuse(&g, true);
        let plan = tvm_graph::plan_memory(&g, &fused);
        let module = Module {
            graph: g,
            fused,
            kernels: vec![],
            plan,
            target_name: "test".into(),
        };
        let mut ex = GraphExecutor::new(module);
        match ex.set_input("data", NDArray::zeros(&[2, 4])) {
            Err(RuntimeError::ShapeMismatch {
                name,
                expected,
                got,
            }) => {
                assert_eq!(name, "data");
                assert_eq!(expected, vec![1, 4]);
                assert_eq!(got, vec![2, 4]);
            }
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        // The executor survives the rejection: a correct bind still works.
        ex.set_input("data", NDArray::zeros(&[1, 4])).expect("ok");
    }
}
