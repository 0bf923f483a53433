//! The serving model zoo: small batch-parametric graphs.
//!
//! The `tvm-models` zoo hardcodes batch 1 (the paper's inference setting);
//! serving needs the *same* model compiled at several batch sizes so the
//! dynamic batcher can pick a bucket. Builders here take the batch as a
//! parameter and construct nodes in a batch-independent order, which makes
//! the runtime's seeded parameter initialization identical across batch
//! sizes — the property the batching-equivalence tests rely on.

use tvm_graph::{Conv2dWorkload, DenseWorkload, Graph, OpType};

/// A servable model identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Model {
    /// Two dense layers with relu, softmax head: `[b, 64] -> [b, 10]`.
    Mlp,
    /// Conv + pool + dense classifier: `[b, 3, 8, 8] -> [b, 10]`.
    TinyCnn,
}

/// Every servable model, in registry order.
pub const ALL_MODELS: [Model; 2] = [Model::Mlp, Model::TinyCnn];

impl Model {
    /// Stable registry name (used in cache keys and bench output).
    pub fn name(&self) -> &'static str {
        match self {
            Model::Mlp => "mlp64",
            Model::TinyCnn => "tiny_cnn",
        }
    }

    /// Looks a model up by its registry name.
    pub fn from_name(name: &str) -> Option<Model> {
        ALL_MODELS.iter().copied().find(|m| m.name() == name)
    }

    /// The graph input node's name.
    pub fn input_name(&self) -> &'static str {
        "data"
    }

    /// Input shape at a given batch size.
    pub fn input_shape(&self, batch: i64) -> Vec<i64> {
        match self {
            Model::Mlp => vec![batch, 64],
            Model::TinyCnn => vec![batch, 3, 8, 8],
        }
    }

    /// Elements in one request's input row (batch-1 slice).
    pub fn row_len(&self) -> usize {
        self.input_shape(1).iter().product::<i64>() as usize
    }

    /// Elements in one request's output row.
    pub fn out_row_len(&self) -> usize {
        10
    }

    /// Builds the computational graph at a given batch size. Node
    /// construction order (and therefore parameter node ids and their
    /// seeded contents) does not depend on `batch`.
    pub fn build_graph(&self, batch: i64) -> Graph {
        match self {
            Model::Mlp => {
                let mut g = Graph::new();
                let x = g.input(&[batch, 64], "data");
                let d1 = g.dense(
                    x,
                    DenseWorkload {
                        m: batch,
                        n: 32,
                        k: 64,
                        dtype: tvm_ir::DType::float32(),
                    },
                    "fc1",
                );
                let r = g.relu(d1, "relu1");
                let d2 = g.dense(
                    r,
                    DenseWorkload {
                        m: batch,
                        n: 10,
                        k: 32,
                        dtype: tvm_ir::DType::float32(),
                    },
                    "fc2",
                );
                let shape = g.node(d2).shape.clone();
                let sm = g.add(OpType::Softmax, vec![d2], shape, "prob");
                g.outputs.push(sm);
                g
            }
            Model::TinyCnn => {
                let mut g = Graph::new();
                let x = g.input(&[batch, 3, 8, 8], "data");
                let c = g.conv2d(
                    x,
                    Conv2dWorkload {
                        batch,
                        size: 8,
                        in_c: 3,
                        out_c: 8,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                    },
                    "conv1",
                );
                let r = g.relu(c, "relu1");
                let p = g.add(
                    OpType::MaxPool2d {
                        window: 2,
                        stride: 2,
                        pad: 0,
                    },
                    vec![r],
                    vec![batch, 8, 4, 4],
                    "pool1",
                );
                let f = g.add(OpType::Flatten, vec![p], vec![batch, 128], "flat");
                let d = g.dense(
                    f,
                    DenseWorkload {
                        m: batch,
                        n: 10,
                        k: 128,
                        dtype: tvm_ir::DType::float32(),
                    },
                    "fc",
                );
                let shape = g.node(d).shape.clone();
                let sm = g.add(OpType::Softmax, vec![d], shape, "prob");
                g.outputs.push(sm);
                g
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ids_are_batch_independent() {
        for m in ALL_MODELS {
            let g1 = m.build_graph(1);
            let g4 = m.build_graph(4);
            assert_eq!(g1.nodes.len(), g4.nodes.len());
            for (a, b) in g1.nodes.iter().zip(&g4.nodes) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.op.name(), b.op.name());
            }
        }
    }

    #[test]
    fn row_lens_match_shapes() {
        assert_eq!(Model::Mlp.row_len(), 64);
        assert_eq!(Model::TinyCnn.row_len(), 3 * 8 * 8);
    }
}
