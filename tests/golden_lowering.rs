//! Lowering identity: what `te` emits, what the simulator charges for it and
//! which configurations a task rejects, hashed over seeded configurations of
//! the five tasks the perf ledger tunes, of the Winograd and bit-serial tasks
//! Figs. 15 and 18 tune, and over every kernel of one ResNet-18 build per
//! target. The digests were captured on the commit
//! before tree rewrites started sharing unchanged subtrees, `te::emit`
//! substituted thread variables once per root stage and the tuner analyzed
//! each candidate once; a lowering change that moves one printed byte or one
//! bit of simulated cost changes a digest.
//!
//! When a digest legitimately changes, the failing test prints its rows of
//! the table in source form.

use std::sync::Arc;

use tvm::BuildOptions;
use tvm_autotune::TuningTask;
use tvm_ir::DType;
use tvm_sim::{arm_a53, estimate_with, mali_t860, titanx, SimOptions, Target};
use tvm_topi::bitserial::{bitserial_task, BitserialWorkload};
use tvm_topi::{self as topi, Conv2dWorkload, DenseWorkload};

/// Seeded configurations hashed per task.
const CONFIGS: usize = 320;

fn dense_wl() -> DenseWorkload {
    DenseWorkload {
        m: 64,
        n: 512,
        k: 512,
        dtype: DType::float32(),
    }
}

/// ResNet-18's C7 (Table 2): 28x28, 128 -> 256, 3x3 stride 2.
fn c7() -> Conv2dWorkload {
    topi::resnet18_convs()[6]
}

/// FNV-1a, as in `golden_history.rs`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// splitmix64: the configurations drawn must not depend on any crate's RNG.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Printed body, simulated cost and verdict of `CONFIGS` seeded
/// configurations of `task`, and how many of them it accepted.
fn digest_task(task: &TuningTask, seed: u64) -> (u64, usize) {
    let mut state = seed;
    let mut h = Fnv::new();
    let mut valid = 0usize;
    for _ in 0..CONFIGS {
        let idx = next(&mut state) % task.space.size().max(1);
        let cfg = task.space.get(idx);
        h.u64(idx);
        match (task.builder)(&cfg) {
            Ok(f) => {
                valid += 1;
                h.u64(1);
                h.str(&f.body.to_string());
                h.u64(
                    estimate_with(&f, &task.target, &task.sim_opts)
                        .millis()
                        .to_bits(),
                );
            }
            Err(e) => {
                h.u64(0);
                h.str(&e.to_string());
            }
        }
    }
    (h.0, valid)
}

/// One `resnet18(32)` build for `target`, as two digests. The first is over
/// every kernel's name, the cost the build recorded and the cost the
/// simulator gives its function now; the second adds the printed body of
/// each distinct kernel. A build hands the first kernel of a structure to
/// every repeat, so a repeat prints the first occurrence's buffer names:
/// bodies are pinned once per shared program cell.
fn digest_build(target: &Target) -> (u64, u64) {
    let module =
        tvm::build(&tvm_models::resnet18(32), target, &BuildOptions::default()).expect("builds");
    let mut costs = Fnv::new();
    let mut bodies = Fnv::new();
    costs.u64(module.kernels.len() as u64);
    for (i, k) in module.kernels.iter().enumerate() {
        costs.str(&k.name);
        costs.u64(k.est_ms.to_bits());
        costs.u64(
            estimate_with(&k.func, target, &SimOptions::default())
                .millis()
                .to_bits(),
        );
        let repeat = module.kernels[..i]
            .iter()
            .any(|e| Arc::ptr_eq(&e.program, &k.program));
        if !repeat {
            bodies.u64(i as u64);
            bodies.str(&k.func.body.to_string());
        }
    }
    bodies.u64(costs.0);
    (costs.0, bodies.0)
}

/// The five task rows were captured on the parent of the commit that
/// introduced this file. The six `resnet18@32` rows were re-captured on the
/// commit that gave each fused group one schedule (its master's template
/// applied to the group's output, with fallback tiles when the database has
/// no record): every kernel with a templated master moved, the pooling,
/// global-average and softmax kernels did not. Debug and release builds
/// check the same table, and with one candidate per group that now covers
/// which kernel ships, not only what it costs. The GPU rows moved again
/// when the fallback schedule attached a group's unplaced producers under
/// the output's thread axis (the pooling, global-average and softmax
/// kernels), and every body row when the printer began to print a float
/// division as `/`. The Winograd and bit-serial rows were captured on the
/// commit before those two tasks were built with `planned_task`.
const GOLDEN: &[(&str, u64)] = &[
    ("dense/titanx/template", 0x66b326ac8cae84f3),
    ("conv2d_c7/titanx/template", 0xaaad0e34335968e5),
    ("conv2d_c7/arm_a53/template", 0x4d7f234932ae7bba),
    ("dense/titanx/sketch", 0xa6e22b282d9fff60),
    ("conv2d_c7/titanx/sketch", 0x36a1368213f22a68),
    ("winograd_c6/arm_a53", 0xc17139c6813cd87a),
    ("bitserial_c2/arm_a53/1t", 0x3a390b130cd55965),
    ("bitserial_c2/arm_a53/mt", 0x560ecb827f34e4ea),
    ("resnet18@32/titanx/costs", 0x41b48f691f7405f9),
    ("resnet18@32/titanx", 0xed779c2fb9c0a60f),
    ("resnet18@32/arm_a53/costs", 0x3ea72d6c13e26c79),
    ("resnet18@32/arm_a53", 0xfd0172c1c33af547),
    ("resnet18@32/mali_t860/costs", 0x791439b9cbec1761),
    ("resnet18@32/mali_t860", 0xd7787af12cc35b1b),
];

fn check(actual: &[(String, u64)]) {
    let golden = |name: &str| GOLDEN.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
    let stale = actual.iter().any(|(name, d)| golden(name) != Some(*d));
    if stale {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!("golden digests differ; this run produced:\n{table}");
    }
}

fn check_task(name: &str, task: TuningTask, seed: u64) {
    let (d, valid) = digest_task(&task, seed);
    // A digest over nothing but rejections would pin no lowering.
    assert!(valid * 2 > CONFIGS, "{name}: only {valid} valid configs");
    check(&[(name.to_string(), d)]);
}

#[test]
fn dense_template_on_titanx_lowers_identically() {
    check_task(
        "dense/titanx/template",
        topi::dense_task(dense_wl(), titanx()),
        0x1001,
    );
}

#[test]
fn conv2d_template_on_titanx_lowers_identically() {
    check_task(
        "conv2d_c7/titanx/template",
        topi::conv2d_task(c7(), DType::float32(), titanx()),
        0x1002,
    );
}

#[test]
fn conv2d_template_on_arm_a53_lowers_identically() {
    check_task(
        "conv2d_c7/arm_a53/template",
        topi::conv2d_task(c7(), DType::float32(), arm_a53()),
        0x1003,
    );
}

#[test]
fn dense_sketch_on_titanx_lowers_identically() {
    check_task(
        "dense/titanx/sketch",
        topi::dense_sketch_task(dense_wl(), titanx()).expect("dense is sketchable"),
        0x1004,
    );
}

#[test]
fn conv2d_sketch_on_titanx_lowers_identically() {
    check_task(
        "conv2d_c7/titanx/sketch",
        topi::conv2d_sketch_task(c7(), DType::float32(), titanx()).expect("conv2d is sketchable"),
        0x1005,
    );
}

/// The Winograd task Fig. 15 tunes for C6 on `arm_a53`.
#[test]
fn winograd_c6_on_arm_a53_lowers_identically() {
    check_task(
        "winograd_c6/arm_a53",
        topi::winograd_task(topi::resnet18_convs()[5], DType::float32(), arm_a53()),
        0x1006,
    );
}

/// The single- and multi-threaded bit-serial tasks Fig. 18 tunes for C2:
/// the packed input is pre-padded, so the operator runs pad-free.
#[test]
fn bitserial_c2_on_arm_a53_lowers_identically() {
    let c = topi::resnet18_convs()[1];
    let w = BitserialWorkload {
        conv: Conv2dWorkload {
            pad: 0,
            size: c.size + 2 * c.pad,
            ..c
        },
        a_bits: 2,
        w_bits: 1,
    };
    let actual: Vec<(String, u64)> = [
        (false, "bitserial_c2/arm_a53/1t", 0x1007),
        (true, "bitserial_c2/arm_a53/mt", 0x1008),
    ]
    .iter()
    .map(|&(threaded, name, seed)| {
        let (d, valid) = digest_task(&bitserial_task(w, arm_a53(), threaded), seed);
        assert!(valid * 2 > CONFIGS, "{name}: only {valid} valid configs");
        (name.to_string(), d)
    })
    .collect();
    check(&actual);
}

#[test]
fn resnet18_kernels_lower_identically_on_every_target() {
    let actual: Vec<(String, u64)> = [
        ("titanx", titanx()),
        ("arm_a53", arm_a53()),
        ("mali_t860", mali_t860()),
    ]
    .iter()
    .flat_map(|(name, t)| {
        let (costs, bodies) = digest_build(t);
        [
            (format!("resnet18@32/{name}/costs"), costs),
            (format!("resnet18@32/{name}"), bodies),
        ]
    })
    .collect();
    check(&actual);
}
