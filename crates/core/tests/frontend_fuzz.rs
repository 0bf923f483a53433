//! Fuzz tier for the model frontend, the last parser of external bytes.
//!
//! From a valid model that uses every op `tvm::frontend::from_json` knows,
//! a seeded mix of the damage a hand-edited or truncated file carries —
//! dropped keys, inputs of another rank, zero / negative / huge / non-integer
//! attributes, rewired or missing operands, swapped ops, flipped bytes and
//! truncation — must never panic the parser, and every graph it returns must
//! have positive extents and the operand count each op takes.

use proptest::prelude::*;

use tvm::frontend::from_json;
use tvm_graph::{Graph, OpType};
use tvm_json::Value;

const MODEL: &str = r#"{
    "inputs": [{"name": "data", "shape": [1, 3, 16, 16]},
               {"name": "side", "shape": [1, 8, 16, 16]}],
    "nodes": [
        {"name": "c1", "op": "conv2d", "inputs": ["data"],
         "channels": 8, "kernel_size": 3, "strides": 1, "padding": 1},
        {"name": "d1", "op": "depthwise_conv2d", "inputs": ["c1"], "kernel_size": 3},
        {"name": "b1", "op": "batch_norm", "inputs": ["d1"]},
        {"name": "a1", "op": "add", "inputs": ["b1", "side"]},
        {"name": "m1", "op": "multiply", "inputs": ["a1", "side"]},
        {"name": "r1", "op": "relu", "inputs": ["m1"]},
        {"name": "t1", "op": "tanh", "inputs": ["r1"]},
        {"name": "p1", "op": "max_pool2d", "inputs": ["t1"], "pool_size": 2, "strides": 2},
        {"name": "g1", "op": "global_avg_pool", "inputs": ["p1"]},
        {"name": "s1", "op": "sigmoid", "inputs": ["g1"]},
        {"name": "f1", "op": "flatten", "inputs": ["p1"]},
        {"name": "fc", "op": "dense", "inputs": ["f1"], "units": 10},
        {"name": "sm", "op": "softmax", "inputs": ["fc"]}
    ],
    "outputs": ["sm", "s1"]
}"#;

const OPS: [&str; 14] = [
    "conv2d",
    "depthwise_conv2d",
    "dense",
    "relu",
    "batch_norm",
    "add",
    "multiply",
    "tanh",
    "sigmoid",
    "softmax",
    "flatten",
    "max_pool2d",
    "global_avg_pool",
    "reshape",
];

const ATTRS: [&str; 6] = [
    "channels",
    "kernel_size",
    "strides",
    "padding",
    "pool_size",
    "units",
];

/// SplitMix64: the test's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// An attribute or extent a hostile file might carry.
fn odd_number(rng: &mut Rng) -> Value {
    match rng.below(10) {
        0 => Value::Int(0),
        1 => Value::Int(-1 - rng.below(4) as i64),
        2 => Value::Int(i64::MAX),
        3 => Value::Int(i64::MIN),
        4 => Value::Int(1 << (31 + rng.below(32))),
        5 => Value::Float(2.5),
        6 => Value::Str("3".into()),
        7 => Value::Null,
        _ => Value::Int(1 + rng.below(40) as i64),
    }
}

fn object(v: &mut Value) -> &mut std::collections::BTreeMap<String, Value> {
    match v {
        Value::Object(m) => m,
        _ => panic!("the model is made of objects"),
    }
}

fn array(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(a) => a,
        _ => panic!("the model's lists are arrays"),
    }
}

/// One structural mutation of a (possibly already mutated) model.
fn mutate(rng: &mut Rng, model: &mut Value) {
    let root = object(model);
    let section = *rng.pick(&["inputs", "nodes"]);
    let Some(list) = root.get_mut(section).map(array) else {
        return;
    };
    if list.is_empty() {
        return;
    }
    let at = rng.below(list.len());
    let Value::Object(item) = &mut list[at] else {
        return;
    };
    match rng.below(7) {
        0 => {
            // Drop a key.
            let keys: Vec<String> = item.keys().cloned().collect();
            if !keys.is_empty() {
                item.remove(rng.pick(&keys));
            }
        }
        1 => {
            let value = odd_number(rng);
            item.insert(rng.pick(&ATTRS).to_string(), value);
        }
        2 => {
            // Change a rank or an extent.
            if let Some(Value::Array(shape)) = item.get_mut("shape") {
                match rng.below(3) {
                    0 => {
                        shape.pop();
                    }
                    1 => shape.push(Value::Int(1 + rng.below(4) as i64)),
                    _ if !shape.is_empty() => {
                        let i = rng.below(shape.len());
                        shape[i] = odd_number(rng);
                    }
                    _ => {}
                }
            }
        }
        3 => {
            // Rewire operands: too few, too many, unknown, not a name.
            let inputs = item
                .entry("inputs".to_string())
                .or_insert_with(|| Value::Array(vec![]));
            if let Value::Array(inputs) = inputs {
                match rng.below(4) {
                    0 => {
                        inputs.pop();
                    }
                    1 => inputs.push(Value::Str(
                        rng.pick(&["data", "side", "c1", "p1", "ghost"]).to_string(),
                    )),
                    2 => inputs.push(Value::Int(0)),
                    _ => inputs.clear(),
                }
            }
        }
        4 => {
            item.insert("op".into(), Value::Str(rng.pick(&OPS).to_string()));
        }
        5 => {
            // The whole entry goes, stranding its consumers.
            list.remove(at);
        }
        _ => {
            let value = odd_number(rng);
            item.insert("shape".into(), Value::Array(vec![value; 1 + rng.below(5)]));
        }
    }
}

/// Byte-level damage: flips and truncation, after any structural change.
fn damage(rng: &mut Rng, text: String) -> String {
    let mut bytes = text.into_bytes();
    for _ in 0..rng.below(3) {
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(8);
    }
    if rng.below(3) == 0 {
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A seeded mutant of [`MODEL`].
fn mutant(seed: u64) -> String {
    let rng = &mut Rng(seed);
    let mut model = tvm_json::from_str(MODEL).expect("the base model is JSON");
    for _ in 0..1 + rng.below(3) {
        mutate(rng, &mut model);
    }
    let text = tvm_json::to_string(&model);
    if rng.below(2) == 0 {
        damage(rng, text)
    } else {
        text
    }
}

/// Operand count of each op the frontend emits.
fn arity(op: &OpType) -> usize {
    match op {
        OpType::Input | OpType::Param => 0,
        OpType::Relu
        | OpType::Tanh
        | OpType::Sigmoid
        | OpType::Softmax
        | OpType::Flatten
        | OpType::MaxPool2d { .. }
        | OpType::GlobalAvgPool => 1,
        OpType::Conv2d(_) | OpType::DepthwiseConv2d(_) | OpType::Dense(_) => 2,
        OpType::Add | OpType::Multiply => 2,
        OpType::BatchNorm => 3,
        other => panic!("the frontend does not emit `{}`", other.name()),
    }
}

/// What every graph the frontend returns must satisfy.
fn well_formed(g: &Graph) -> Result<(), String> {
    for n in &g.nodes {
        if n.shape.iter().any(|&d| d <= 0) {
            return Err(format!("`{}` has shape {:?}", n.name, n.shape));
        }
        if n.inputs.len() != arity(&n.op) {
            return Err(format!(
                "`{}` ({}) has {} operands",
                n.name,
                n.op.name(),
                n.inputs.len()
            ));
        }
        if n.inputs.iter().any(|i| i.0 >= n.id.0) {
            return Err(format!("`{}` reads a later node", n.name));
        }
    }
    if g.outputs.iter().any(|o| o.0 >= g.nodes.len()) {
        return Err("an output is not a node".into());
    }
    Ok(())
}

#[test]
fn the_base_model_imports() {
    let g = from_json(MODEL).expect("imports");
    well_formed(&g).expect("well formed");
    assert_eq!(g.node(g.outputs[0]).shape, vec![1, 10]);
}

#[test]
fn mutants_reach_both_verdicts() {
    let ok = (0..400).filter(|&s| from_json(&mutant(s)).is_ok()).count();
    assert!(ok > 20 && ok < 380, "{ok} of 400 mutants import");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_models_never_panic_and_import_well_formed(seed in any::<u64>()) {
        let text = mutant(seed);
        if let Ok(g) = from_json(&text) {
            if let Err(e) = well_formed(&g) {
                panic!("{e}\nfrom {text}");
            }
        }
    }
}
