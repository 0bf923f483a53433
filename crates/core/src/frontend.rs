//! Model frontend: imports a JSON model description into the graph IR —
//! the stand-in for the paper's Keras/MXNet/ONNX importers
//! (`t.frontend.from_keras`).
//!
//! Format: `{"inputs": [{"name", "shape"}], "nodes": [{"name", "op",
//! "inputs": [names], ...attrs}], "outputs": [names]}`.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use tvm_json::Value;

use tvm_graph::{Graph, NodeId, OpType};
use tvm_topi::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload};

/// Import error.
#[derive(Debug)]
pub struct FrontendError(pub String);

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frontend error: {}", self.0)
    }
}
impl std::error::Error for FrontendError {}

fn err<T>(m: impl Into<String>) -> Result<T, FrontendError> {
    Err(FrontendError(m.into()))
}

/// Largest element count of any tensor the frontend accepts (8 GiB of
/// `f32`). Every extent and attribute is bounded by it, which keeps shape
/// arithmetic far from `i64` overflow.
const MAX_ELEMS: i64 = i32::MAX as i64;

/// Integer attribute `key` of node `name`, in `min..=MAX_ELEMS`; `default`
/// when the attribute is absent.
fn attr(
    node: &Value,
    name: &str,
    key: &str,
    min: i64,
    default: Option<i64>,
) -> Result<i64, FrontendError> {
    let Some(v) = node.get(key) else {
        return default
            .ok_or_else(|| FrontendError(format!("node `{name}` needs integer attr `{key}`")));
    };
    match v.as_i64() {
        Some(v) if (min..=MAX_ELEMS).contains(&v) => Ok(v),
        _ => err(format!(
            "node `{name}`: attr `{key}` must be an integer in {min}..={MAX_ELEMS}, got {v}"
        )),
    }
}

/// Checks that `shape` has positive extents and at most [`MAX_ELEMS`]
/// elements.
fn check_shape(name: &str, shape: &[i64]) -> Result<(), FrontendError> {
    let elems = shape.iter().try_fold(1i64, |n, &d| {
        if d > 0 {
            n.checked_mul(d).filter(|&n| n <= MAX_ELEMS)
        } else {
            None
        }
    });
    match elems {
        Some(_) => Ok(()),
        None => err(format!(
            "`{name}` has shape {shape:?}: extents must be positive and hold at most {MAX_ELEMS} elements"
        )),
    }
}

/// The operand count and first-operand ranks each op accepts.
fn signature(op: &str) -> Option<(usize, RangeInclusive<usize>)> {
    Some(match op {
        "conv2d" | "depthwise_conv2d" | "max_pool2d" | "global_avg_pool" => (1, 4..=4),
        "dense" => (1, 2..=2),
        "batch_norm" | "flatten" => (1, 2..=usize::MAX),
        "relu" | "tanh" | "sigmoid" | "softmax" => (1, 0..=usize::MAX),
        "add" | "multiply" => (2, 0..=usize::MAX),
        _ => return None,
    })
}

/// The spatial size of an NCHW input a `window` slides over with `pad`:
/// square, and no smaller than the window once padded.
fn spatial(name: &str, shape: &[i64], window: i64, pad: i64) -> Result<i64, FrontendError> {
    let size = shape[2];
    if shape[3] != size {
        return err(format!("node `{name}` needs a square input, got {shape:?}"));
    }
    if window > size + 2 * pad {
        return err(format!(
            "node `{name}`: window {window} exceeds input {size} padded by {pad}"
        ));
    }
    Ok(size)
}

/// Parses a JSON model into a [`Graph`].
///
/// External input: a malformed model is an `Err`, never a panic. Every
/// graph returned has positive extents and the operand count each op
/// takes.
pub fn from_json(text: &str) -> Result<Graph, FrontendError> {
    let v: Value = tvm_json::from_str(text).map_err(|e| FrontendError(format!("bad json: {e}")))?;
    let mut g = Graph::new();
    let mut by_name: HashMap<String, NodeId> = HashMap::new();

    for inp in v.get("inputs").and_then(Value::as_array).unwrap_or(&vec![]) {
        let name = inp
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| FrontendError("input needs a name".into()))?;
        let shape = inp
            .get("shape")
            .and_then(Value::as_array)
            .and_then(|a| a.iter().map(Value::as_i64).collect::<Option<Vec<i64>>>())
            .ok_or_else(|| FrontendError(format!("input `{name}` needs an integer shape")))?;
        check_shape(name, &shape)?;
        let id = g.input(&shape, name);
        by_name.insert(name.to_string(), id);
    }

    for node in v.get("nodes").and_then(Value::as_array).unwrap_or(&vec![]) {
        let name = node
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| FrontendError("node needs a name".into()))?;
        let op = node
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| FrontendError(format!("node `{name}` needs an op")))?;
        let Some((arity, rank)) = signature(op) else {
            return err(format!("unsupported op `{op}`"));
        };
        let input_ids: Vec<NodeId> = node
            .get("inputs")
            .and_then(Value::as_array)
            .unwrap_or(&vec![])
            .iter()
            .map(|n| {
                let n = n
                    .as_str()
                    .ok_or_else(|| FrontendError(format!("inputs of `{name}` must be names")))?;
                by_name
                    .get(n)
                    .copied()
                    .ok_or_else(|| FrontendError(format!("unknown input `{n}` of `{name}`")))
            })
            .collect::<Result<_, _>>()?;
        if input_ids.len() != arity {
            return err(format!(
                "`{op}` node `{name}` takes {arity} input(s), got {}",
                input_ids.len()
            ));
        }
        let x = input_ids[0];
        let x_shape = g.node(x).shape.clone();
        if !rank.contains(&x_shape.len()) {
            return err(format!(
                "`{op}` node `{name}` cannot take a rank-{} input",
                x_shape.len()
            ));
        }
        if arity == 2 && g.node(input_ids[1]).shape != x_shape {
            return err(format!("`{op}` node `{name}` needs operands of one shape"));
        }
        let first_new = g.nodes.len();
        let id = match op {
            "conv2d" => {
                let kernel = attr(node, name, "kernel_size", 1, None)?;
                let pad = attr(node, name, "padding", 0, Some(kernel / 2))?;
                let w = Conv2dWorkload {
                    batch: x_shape[0],
                    size: spatial(name, &x_shape, kernel, pad)?,
                    in_c: x_shape[1],
                    out_c: attr(node, name, "channels", 1, None)?,
                    kernel,
                    stride: attr(node, name, "strides", 1, Some(1))?,
                    pad,
                };
                g.conv2d(x, w, name)
            }
            "depthwise_conv2d" => {
                let kernel = attr(node, name, "kernel_size", 1, None)?;
                let pad = attr(node, name, "padding", 0, Some(kernel / 2))?;
                let w = DepthwiseConv2dWorkload {
                    batch: x_shape[0],
                    size: spatial(name, &x_shape, kernel, pad)?,
                    channels: x_shape[1],
                    kernel,
                    stride: attr(node, name, "strides", 1, Some(1))?,
                    pad,
                };
                g.depthwise_conv2d(x, w, name)
            }
            "dense" => {
                let w = DenseWorkload {
                    m: x_shape[0],
                    n: attr(node, name, "units", 1, None)?,
                    k: x_shape[1],
                    dtype: tvm_ir::DType::float32(),
                };
                g.dense(x, w, name)
            }
            "relu" => g.relu(x, name),
            "batch_norm" => g.batch_norm(x, name),
            "add" => g.add_op(x, input_ids[1], name),
            "multiply" => g.add(OpType::Multiply, input_ids, x_shape, name),
            "tanh" => g.add(OpType::Tanh, input_ids, x_shape, name),
            "sigmoid" => g.add(OpType::Sigmoid, input_ids, x_shape, name),
            "softmax" => g.add(OpType::Softmax, input_ids, x_shape, name),
            "flatten" => {
                let flat: i64 = x_shape[1..].iter().product();
                g.add(OpType::Flatten, input_ids, vec![x_shape[0], flat], name)
            }
            "max_pool2d" => {
                let window = attr(node, name, "pool_size", 1, None)?;
                let stride = attr(node, name, "strides", 1, Some(window))?;
                let pad = attr(node, name, "padding", 0, Some(0))?;
                let o = (spatial(name, &x_shape, window, pad)? + 2 * pad - window) / stride + 1;
                g.add(
                    OpType::MaxPool2d {
                        window,
                        stride,
                        pad,
                    },
                    input_ids,
                    vec![x_shape[0], x_shape[1], o, o],
                    name,
                )
            }
            "global_avg_pool" => g.add(
                OpType::GlobalAvgPool,
                input_ids,
                vec![x_shape[0], x_shape[1]],
                name,
            ),
            _ => unreachable!("`signature` admitted `{op}`"),
        };
        // The op's output and the weights it declared.
        for n in &g.nodes[first_new..] {
            check_shape(&n.name, &n.shape)?;
        }
        by_name.insert(name.to_string(), id);
    }

    for out in v
        .get("outputs")
        .and_then(Value::as_array)
        .unwrap_or(&vec![])
    {
        let n = out
            .as_str()
            .ok_or_else(|| FrontendError("output must be a name".into()))?;
        let id = *by_name
            .get(n)
            .ok_or_else(|| FrontendError(format!("unknown output `{n}`")))?;
        g.outputs.push(id);
    }
    if g.outputs.is_empty() {
        // Default: last node.
        if let Some(last) = g.nodes.last() {
            g.outputs.push(last.id);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = r#"{
        "inputs": [{"name": "data", "shape": [1, 3, 16, 16]}],
        "nodes": [
            {"name": "c1", "op": "conv2d", "inputs": ["data"],
             "channels": 8, "kernel_size": 3, "strides": 1},
            {"name": "b1", "op": "batch_norm", "inputs": ["c1"]},
            {"name": "r1", "op": "relu", "inputs": ["b1"]},
            {"name": "p1", "op": "max_pool2d", "inputs": ["r1"], "pool_size": 2},
            {"name": "f1", "op": "flatten", "inputs": ["p1"]},
            {"name": "fc", "op": "dense", "inputs": ["f1"], "units": 10},
            {"name": "sm", "op": "softmax", "inputs": ["fc"]}
        ],
        "outputs": ["sm"]
    }"#;

    #[test]
    fn imports_a_small_cnn() {
        let g = from_json(MODEL).expect("imports");
        assert_eq!(g.node(g.outputs[0]).shape, vec![1, 10]);
        let convs = g.nodes.iter().filter(|n| n.op.name() == "conv2d").count();
        assert_eq!(convs, 1);
        // Implicit weight params created.
        assert!(g.nodes.iter().any(|n| n.name == "c1_w"));
    }

    #[test]
    fn unknown_op_is_an_error() {
        let bad = r#"{"inputs": [{"name": "x", "shape": [1, 4]}],
                      "nodes": [{"name": "q", "op": "quantum_fft", "inputs": ["x"]}]}"#;
        assert!(from_json(bad).is_err());
    }

    #[test]
    fn unknown_input_reference_is_an_error() {
        let bad = r#"{"inputs": [], "nodes": [{"name": "r", "op": "relu", "inputs": ["ghost"]}]}"#;
        assert!(from_json(bad).is_err());
    }

    /// One node `node` over input `x` of `shape`: the model must be refused
    /// with a message naming `why`.
    fn refused(shape: &str, node: &str, why: &str) {
        let text =
            format!(r#"{{"inputs": [{{"name": "x", "shape": {shape}}}], "nodes": [{node}]}}"#);
        match from_json(&text) {
            Ok(g) => panic!("accepted {text}: {g:?}"),
            Err(e) => assert!(e.0.contains(why), "{text}: {e}"),
        }
    }

    #[test]
    fn conv2d_over_a_rank_2_input_is_an_error() {
        refused(
            "[1, 8]",
            r#"{"name": "c", "op": "conv2d", "inputs": ["x"], "channels": 4, "kernel_size": 3}"#,
            "rank-2",
        );
    }

    #[test]
    fn op_without_inputs_is_an_error() {
        refused(
            "[1, 8]",
            r#"{"name": "r", "op": "relu"}"#,
            "takes 1 input(s), got 0",
        );
    }

    #[test]
    fn add_with_one_input_is_an_error() {
        refused(
            "[1, 8]",
            r#"{"name": "a", "op": "add", "inputs": ["x"]}"#,
            "takes 2 input(s), got 1",
        );
    }

    #[test]
    fn max_pool2d_with_zero_stride_is_an_error() {
        refused(
            "[1, 2, 8, 8]",
            r#"{"name": "p", "op": "max_pool2d", "inputs": ["x"], "pool_size": 2, "strides": 0}"#,
            "`strides`",
        );
    }

    #[test]
    fn flatten_of_a_rank_0_input_is_an_error() {
        refused(
            "[]",
            r#"{"name": "f", "op": "flatten", "inputs": ["x"]}"#,
            "rank-0",
        );
    }

    #[test]
    fn dense_on_a_rank_1_input_is_an_error() {
        refused(
            "[8]",
            r#"{"name": "d", "op": "dense", "inputs": ["x"], "units": 4}"#,
            "rank-1",
        );
    }

    #[test]
    fn negative_channels_are_an_error() {
        refused(
            "[1, 3, 8, 8]",
            r#"{"name": "c", "op": "conv2d", "inputs": ["x"], "channels": -2, "kernel_size": 3}"#,
            "`channels`",
        );
    }

    #[test]
    fn a_window_larger_than_its_padded_input_is_an_error() {
        refused(
            "[1, 3, 4, 4]",
            r#"{"name": "c", "op": "conv2d", "inputs": ["x"], "channels": 2, "kernel_size": 7,
                "padding": 1, "strides": 2}"#,
            "exceeds input 4",
        );
    }
}
