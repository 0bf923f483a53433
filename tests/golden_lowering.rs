//! Lowering identity: what `te` emits, what the simulator charges for it and
//! which configurations a task rejects, hashed over seeded configurations of
//! the five tasks the perf ledger tunes, of the Winograd and bit-serial tasks
//! Figs. 15 and 18 tune, and over every kernel of one ResNet-18 build per
//! target. Each task and each build has two rows: a *program* row (what was
//! lowered, or why it was rejected) and a *price* row (what the simulator
//! charges for it). A lowering change that moves one printed byte moves a
//! program row; a simulator change that moves one bit of cost moves only
//! price rows, which is how such a change shows it left lowering alone.
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

/// Two digests over `CONFIGS` seeded configurations of `task`, and how many
/// of them it accepted. The program digest is over each configuration's
/// index, verdict and printed body (or rejection text); the price digest is
/// over the index and simulated cost of each accepted one. A lowering change
/// moves the first, a simulator change only the second.
fn digest_task(task: &TuningTask, seed: u64) -> (u64, u64, usize) {
    let mut state = seed;
    let mut program = Fnv::new();
    let mut price = Fnv::new();
    let mut valid = 0usize;
    for _ in 0..CONFIGS {
        let idx = next(&mut state) % task.space.size().max(1);
        let cfg = task.space.get(idx);
        program.u64(idx);
        match (task.builder)(&cfg) {
            Ok(f) => {
                valid += 1;
                program.u64(1);
                program.str(&f.body.to_string());
                price.u64(idx);
                price.u64(
                    estimate_with(&f, &task.target, &task.sim_opts)
                        .millis()
                        .to_bits(),
                );
            }
            Err(e) => {
                program.u64(0);
                program.str(&e.to_string());
            }
        }
    }
    (program.0, price.0, valid)
}

/// One `resnet18(32)` build for `target`, as two digests. The program
/// digest is over the kernel count and the printed body of each distinct
/// kernel; the price digest is over every kernel's name, the cost the build
/// recorded and the cost the simulator gives its function now. A build hands
/// the first kernel of a structure to every repeat, so a repeat prints the
/// first occurrence's buffer names: bodies are pinned once per shared
/// program cell.
fn digest_build(target: &Target) -> (u64, u64) {
    let module =
        tvm::build(&tvm_models::resnet18(32), target, &BuildOptions::default()).expect("builds");
    let mut program = Fnv::new();
    let mut price = Fnv::new();
    program.u64(module.kernels.len() as u64);
    price.u64(module.kernels.len() as u64);
    for (i, k) in module.kernels.iter().enumerate() {
        price.str(&k.name);
        price.u64(k.est_ms.to_bits());
        price.u64(
            estimate_with(&k.func, target, &SimOptions::default())
                .millis()
                .to_bits(),
        );
        let repeat = module.kernels[..i]
            .iter()
            .any(|e| Arc::ptr_eq(&e.program, &k.program));
        if !repeat {
            program.u64(i as u64);
            program.str(&k.func.body.to_string());
        }
    }
    (program.0, price.0)
}

/// Every row was captured on the commit before rows were split into a
/// program and a price: each `…/price` row of a build is that commit's
/// `…/costs` row under a new name. The lowering the program rows pin has
/// moved before, and each time every row named here was re-captured: when
/// each fused group got one schedule (its master's template with fallback
/// tiles), when the GPU fallback attached a group's unplaced producers
/// under the output's thread axis, when the printer began to print a float
/// division as `/`, and before the Winograd and bit-serial tasks were built
/// with `planned_task`. Debug and release builds check the same table. The
/// two GPU targets lower ResNet-18 to the same bodies and differ only in
/// price.
const GOLDEN: &[(&str, u64)] = &[
    ("dense/titanx/template/program", 0x84b9808e5ff6be7c),
    ("dense/titanx/template/price", 0xf4aea46cf1098af1),
    ("conv2d_c7/titanx/template/program", 0xa2df525300d74ab7),
    ("conv2d_c7/titanx/template/price", 0xef1d3a49dc4ae947),
    ("conv2d_c7/arm_a53/template/program", 0x86556acab1865609),
    ("conv2d_c7/arm_a53/template/price", 0x010feda1c02a9ff2),
    ("dense/titanx/sketch/program", 0x654e54a175647207),
    ("dense/titanx/sketch/price", 0xc155ef0e88161ffd),
    ("conv2d_c7/titanx/sketch/program", 0x9377f1dce55fe2e6),
    ("conv2d_c7/titanx/sketch/price", 0x41d02da3e7f5ca3a),
    ("winograd_c6/arm_a53/program", 0x72a136be453a0859),
    ("winograd_c6/arm_a53/price", 0x74461b077361c7ce),
    ("bitserial_c2/arm_a53/1t/program", 0xa91281ecef615641),
    ("bitserial_c2/arm_a53/1t/price", 0xffd3b6f29b8e55f8),
    ("bitserial_c2/arm_a53/mt/program", 0x9ad5c0e7dc988cbe),
    ("bitserial_c2/arm_a53/mt/price", 0xfeef9dfa76c06862),
    ("resnet18@32/titanx/program", 0xa1cf9c21869ef6d0),
    ("resnet18@32/titanx/price", 0x41b48f691f7405f9),
    ("resnet18@32/arm_a53/program", 0x054bb574a6ac00f2),
    ("resnet18@32/arm_a53/price", 0x3ea72d6c13e26c79),
    ("resnet18@32/mali_t860/program", 0xa1cf9c21869ef6d0),
    ("resnet18@32/mali_t860/price", 0x791439b9cbec1761),
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

/// The program and price rows of one task, after checking that it accepted
/// enough configurations: a digest over nothing but rejections would pin no
/// lowering.
fn task_rows(name: &str, task: &TuningTask, seed: u64) -> [(String, u64); 2] {
    let (program, price, valid) = digest_task(task, seed);
    assert!(valid * 2 > CONFIGS, "{name}: only {valid} valid configs");
    [
        (format!("{name}/program"), program),
        (format!("{name}/price"), price),
    ]
}

fn check_task(name: &str, task: TuningTask, seed: u64) {
    check(&task_rows(name, &task, seed));
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
    .flat_map(|&(threaded, name, seed)| {
        task_rows(name, &bitserial_task(w, arm_a53(), threaded), seed)
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
        let (program, price) = digest_build(t);
        [
            (format!("resnet18@32/{name}/program"), program),
            (format!("resnet18@32/{name}/price"), price),
        ]
    })
    .collect();
    check(&actual);
}
