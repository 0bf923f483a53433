//! The computational graph IR (Fig. 3): nodes are operations on tensors,
//! edges are data dependencies; attributes parameterize behavior.

use tvm_ir::DType;

use crate::workloads::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload};

/// Node identifier (index into [`Graph::nodes`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Operator fusion categories (§3): the four classes whose generic fusion
/// rules replace combinatorial handcrafted fused kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// One-to-one map (add, relu, bn, ...).
    Injective,
    /// Reduction (sum, pooling).
    Reduction,
    /// Complex but fusable with element-wise ops at its output (conv2d,
    /// dense).
    ComplexOutFusable,
    /// Cannot be fused (e.g. sort, softmax's multi-pass structure here).
    Opaque,
}

/// Graph operation types.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpType {
    /// External input.
    Input,
    /// Model parameter (weights/bias), known at deployment time.
    Param,
    /// 2-D convolution.
    Conv2d(Conv2dWorkload),
    /// Depthwise 2-D convolution.
    DepthwiseConv2d(DepthwiseConv2dWorkload),
    /// Fully connected layer.
    Dense(DenseWorkload),
    /// Transposed convolution (attrs: in_c, in_size, out_c, kernel, stride,
    /// out_pad).
    Conv2dTranspose {
        /// Input channels.
        in_c: i64,
        /// Input spatial size.
        in_size: i64,
        /// Output channels.
        out_c: i64,
        /// Kernel size.
        kernel: i64,
        /// Fractional stride.
        stride: i64,
        /// Output padding parameter.
        out_pad: i64,
    },
    /// Element-wise max(x, 0).
    Relu,
    /// Per-channel bias add.
    BiasAdd,
    /// Folded inference batch norm (scale, shift params).
    BatchNorm,
    /// Element-wise addition (residual connections).
    Add,
    /// Element-wise multiply.
    Multiply,
    /// Element-wise tanh.
    Tanh,
    /// Element-wise sigmoid.
    Sigmoid,
    /// Row softmax.
    Softmax,
    /// Max pooling (window, stride, pad).
    MaxPool2d {
        /// Window size.
        window: i64,
        /// Stride.
        stride: i64,
        /// Padding.
        pad: i64,
    },
    /// Global average pooling to `[n, c]`.
    GlobalAvgPool,
    /// `[n, c, h, w] -> [n, c*h*w]`.
    Flatten,
    /// Arbitrary same-size reshape (row-major reinterpretation).
    Reshape,
    /// Data-layout conversion inserted by the layout pass; attribute is the
    /// destination layout tag (e.g. `NCHW4c`).
    LayoutTransform {
        /// Destination layout tag.
        dst: String,
    },
}

impl OpType {
    /// The §3 fusion category of this operation.
    pub fn pattern(&self) -> Pattern {
        match self {
            OpType::Input | OpType::Param => Pattern::Injective,
            OpType::Conv2d(_)
            | OpType::DepthwiseConv2d(_)
            | OpType::Dense(_)
            | OpType::Conv2dTranspose { .. } => Pattern::ComplexOutFusable,
            OpType::MaxPool2d { .. } | OpType::GlobalAvgPool => Pattern::Reduction,
            OpType::Softmax => Pattern::Opaque,
            OpType::Relu
            | OpType::BiasAdd
            | OpType::BatchNorm
            | OpType::Add
            | OpType::Multiply
            | OpType::Tanh
            | OpType::Sigmoid
            | OpType::Flatten
            | OpType::Reshape
            | OpType::LayoutTransform { .. } => Pattern::Injective,
        }
    }

    /// Short mnemonic.
    pub fn name(&self) -> &'static str {
        match self {
            OpType::Input => "input",
            OpType::Param => "param",
            OpType::Conv2d(_) => "conv2d",
            OpType::DepthwiseConv2d(_) => "depthwise_conv2d",
            OpType::Dense(_) => "dense",
            OpType::Conv2dTranspose { .. } => "conv2d_transpose",
            OpType::Relu => "relu",
            OpType::BiasAdd => "bias_add",
            OpType::BatchNorm => "batch_norm",
            OpType::Add => "add",
            OpType::Multiply => "multiply",
            OpType::Tanh => "tanh",
            OpType::Sigmoid => "sigmoid",
            OpType::Softmax => "softmax",
            OpType::MaxPool2d { .. } => "max_pool2d",
            OpType::GlobalAvgPool => "global_avg_pool",
            OpType::Flatten => "flatten",
            OpType::Reshape => "reshape",
            OpType::LayoutTransform { .. } => "layout_transform",
        }
    }
}

/// One graph node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Identity.
    pub id: NodeId,
    /// Operation.
    pub op: OpType,
    /// Input edges.
    pub inputs: Vec<NodeId>,
    /// Display name.
    pub name: String,
    /// Inferred output shape.
    pub shape: Vec<i64>,
    /// Output element type.
    pub dtype: DType,
}

/// A computational graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Nodes in topological order (construction order).
    pub nodes: Vec<Node>,
    /// Output node ids.
    pub outputs: Vec<NodeId>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Node accessor. Panics on an out-of-range id; request-facing code
    /// (the runtime, the serving layer) should prefer [`Graph::get`].
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Checked node accessor: `None` for ids outside the graph (a stale or
    /// corrupt module reference), so callers can surface a typed error
    /// instead of panicking mid-request.
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Adds a node with explicit shape.
    pub fn add(
        &mut self,
        op: OpType,
        inputs: Vec<NodeId>,
        shape: Vec<i64>,
        name: impl Into<String>,
    ) -> NodeId {
        self.add_typed(op, inputs, shape, DType::float32(), name)
    }

    /// Adds a node with explicit shape and dtype.
    pub fn add_typed(
        &mut self,
        op: OpType,
        inputs: Vec<NodeId>,
        shape: Vec<i64>,
        dtype: DType,
        name: impl Into<String>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            op,
            inputs,
            name: name.into(),
            shape,
            dtype,
        });
        id
    }

    /// Declares an external input.
    pub fn input(&mut self, shape: &[i64], name: impl Into<String>) -> NodeId {
        self.add(OpType::Input, vec![], shape.to_vec(), name)
    }

    /// Declares a parameter tensor.
    pub fn param(&mut self, shape: &[i64], name: impl Into<String>) -> NodeId {
        self.add(OpType::Param, vec![], shape.to_vec(), name)
    }

    /// Convolution followed by nothing; weight param created implicitly.
    pub fn conv2d(&mut self, x: NodeId, w: Conv2dWorkload, name: &str) -> NodeId {
        let wt = self.param(&[w.out_c, w.in_c, w.kernel, w.kernel], format!("{name}_w"));
        let o = w.out_size();
        self.add(
            OpType::Conv2d(w),
            vec![x, wt],
            vec![w.batch, w.out_c, o, o],
            name,
        )
    }

    /// Depthwise convolution.
    pub fn depthwise_conv2d(
        &mut self,
        x: NodeId,
        w: DepthwiseConv2dWorkload,
        name: &str,
    ) -> NodeId {
        let wt = self.param(&[w.channels, w.kernel, w.kernel], format!("{name}_w"));
        let o = w.out_size();
        self.add(
            OpType::DepthwiseConv2d(w),
            vec![x, wt],
            vec![w.batch, w.channels, o, o],
            name,
        )
    }

    /// Dense layer.
    pub fn dense(&mut self, x: NodeId, w: DenseWorkload, name: &str) -> NodeId {
        let wt = self.param(&[w.n, w.k], format!("{name}_w"));
        self.add(OpType::Dense(w), vec![x, wt], vec![w.m, w.n], name)
    }

    /// Batch norm with implicit scale/shift params.
    pub fn batch_norm(&mut self, x: NodeId, name: &str) -> NodeId {
        let c = self.node(x).shape[1];
        let sc = self.param(&[c], format!("{name}_scale"));
        let sh = self.param(&[c], format!("{name}_shift"));
        let shape = self.node(x).shape.clone();
        self.add(OpType::BatchNorm, vec![x, sc, sh], shape, name)
    }

    /// ReLU.
    pub fn relu(&mut self, x: NodeId, name: &str) -> NodeId {
        let shape = self.node(x).shape.clone();
        self.add(OpType::Relu, vec![x], shape, name)
    }

    /// Element-wise add.
    pub fn add_op(&mut self, a: NodeId, b: NodeId, name: &str) -> NodeId {
        let shape = self.node(a).shape.clone();
        self.add(OpType::Add, vec![a, b], shape, name)
    }

    /// Consumers of each node: `consumers()[i]` lists the nodes reading
    /// node `i`, in node order, once per input edge.
    pub fn consumers(&self) -> Consumers {
        let mut start = vec![0usize; self.nodes.len() + 1];
        for n in &self.nodes {
            for &i in &n.inputs {
                start[i.0 + 1] += 1;
            }
        }
        for i in 0..self.nodes.len() {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut ids = vec![NodeId(0); start[self.nodes.len()]];
        for n in &self.nodes {
            for &i in &n.inputs {
                ids[next[i.0]] = n.id;
                next[i.0] += 1;
            }
        }
        Consumers { start, ids }
    }
}

/// Every node's consumers in one flat list (see [`Graph::consumers`]);
/// indexing by a node's position gives its slice.
#[derive(Clone, Debug)]
pub struct Consumers {
    /// Node `i`'s consumers are `ids[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    ids: Vec<NodeId>,
}

impl std::ops::Index<usize> for Consumers {
    type Output = [NodeId];

    fn index(&self, i: usize) -> &[NodeId] {
        &self.ids[self.start[i]..self.start[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_match_paper_categories() {
        assert_eq!(OpType::Relu.pattern(), Pattern::Injective);
        assert_eq!(OpType::GlobalAvgPool.pattern(), Pattern::Reduction);
        let w = crate::workloads::resnet18_convs()[1];
        assert_eq!(OpType::Conv2d(w).pattern(), Pattern::ComplexOutFusable);
        assert_eq!(OpType::Softmax.pattern(), Pattern::Opaque);
    }

    #[test]
    fn builder_wires_edges_and_shapes() {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8], "data");
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 3,
            out_c: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let c = g.conv2d(x, w, "conv1");
        let r = g.relu(c, "relu1");
        g.outputs.push(r);
        assert_eq!(g.node(c).shape, vec![1, 16, 8, 8]);
        assert_eq!(g.node(r).inputs, vec![c]);
        let cons = g.consumers();
        assert_eq!(cons[c.0], vec![r]);
        // One entry per input edge; a node nothing reads has none.
        let twice = g.add_op(r, r, "twice");
        let cons = g.consumers();
        assert_eq!(cons[r.0], [twice, twice]);
        assert!(cons[twice.0].is_empty());
        assert_eq!(cons[x.0], [c]);
    }
}
