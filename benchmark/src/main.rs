//! `tvm-perf` — the host-wall-clock perf ledger of the stack.
//!
//! `--workload W` measures one workload in this process and prints each
//! metric as `name unit value`, then one JSON object on the last line.
//! Without `--workload` every workload runs in a process of its own;
//! `--selfcheck` runs two such sets and compares them. See README.md.

mod harness;
mod reference;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use tvm_json::Value;

use harness::{Report, RunCfg, END_TO_END, PER_LAYER};
use workloads::{compile_zoo::CompileZoo, infer, serve, tune_ops::TuneOps};

/// Seconds one run measures: `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: u32 = 12;

/// Every workload with the one-line reason it is here.
#[rustfmt::skip]
const WORKLOADS: [(&str, &str); 6] = [
    ("compile_zoo", "tvm::build of the model zoo on 3 targets at 5 image sizes: graph passes, te lowering, sim cost and core's candidate choice, with no tuner and no interpreter"),
    ("tune_ops", "32-trial tune() of dense and conv2d C7 on template and sketch spaces under 2 workers: one operator, thousands of configurations, the opposite use of te and sim from compile_zoo"),
    ("infer_cpu_sched", "functional inference of 5 arm_a53 modules: runtime and the ir interpreter on serial and vectorized loop nests do all the work, compiler and tuner none"),
    ("infer_gpu_sched", "the same op on 3 titanx modules: thread nests, barrier phases, per-thread buffers and shared staging, so an interpreter change that helps CPU code and hurts GPU code shows"),
    ("serve_mix", "2 tenants, both models, full batches of 8 and chaos faults through Service::run: serving end to end, almost all host time in the interpreter on batched kernels"),
    ("serve_engine", "batch-1 Mlp requests from a steady tenant and a bursting tenant with deadlines: admission, DRR, the artifact cache, the pool and executor construction are a large share of each request"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    describe: bool,
    glossary: bool,
    history: bool,
    dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 20260927,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        selfcheck: false,
        describe: false,
        glossary: false,
        history: true,
        dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--dir" => a.dir = PathBuf::from(value()?),
            "--commit" => a.commit = value()?,
            "--selfcheck" => a.selfcheck = true,
            "--describe" => a.describe = true,
            "--glossary" => a.glossary = true,
            "--no-history" => a.history = false,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let known: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            return Err(format!(
                "unknown workload `{w}` (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Workers of the one multi-threaded workload, `tune_ops`.
pub fn threads() -> usize {
    nproc().min(2)
}

fn measure(workload: &str, cfg: &RunCfg) -> Report {
    // Every workload but `tune_ops` (which installs its own pool) runs the
    // stack's parallel regions on this one thread: the device pool evaluates
    // each batch on freshly spawned threads when it has two workers, and the
    // cost of spawning them moved `serve_engine` by 20 % between runs.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    pool.install(|| match workload {
        "compile_zoo" => harness::run::<CompileZoo>(cfg),
        "tune_ops" => harness::run::<TuneOps>(cfg),
        "infer_cpu_sched" => harness::run::<infer::CpuSched>(cfg),
        "infer_gpu_sched" => harness::run::<infer::GpuSched>(cfg),
        "serve_mix" => harness::run::<serve::Mix>(cfg),
        "serve_engine" => harness::run::<serve::Engine>(cfg),
        other => unreachable!("parse_args admitted `{other}`"),
    })
}

/// The result object of one workload run: the last line of its output.
fn result_json(r: &Report, units: &BTreeMap<&str, &str>) -> Value {
    let metrics: BTreeMap<String, Value> = r
        .metrics
        .iter()
        .map(|(name, v)| {
            let m = Value::object([
                ("value", Value::Float(*v)),
                ("unit", Value::from(units[name])),
            ]);
            (name.to_string(), m)
        })
        .collect();
    Value::object([
        ("correct", Value::Bool(r.outcome.check_failures.is_empty())),
        ("attempted", Value::from(r.outcome.attempted)),
        ("failed", Value::from(r.outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ])
}

fn units() -> BTreeMap<&'static str, &'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect()
}

fn append_history(a: &Args, results: BTreeMap<String, Value>) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = Value::object([
        ("ts", Value::from(ts)),
        ("commit", Value::from(a.commit.as_str())),
        ("nproc", Value::from(nproc() as u64)),
        ("seed", Value::from(a.seed)),
        ("seconds", Value::Float(a.seconds)),
        ("results", Value::Object(results)),
    ]);
    let path = a.dir.join("history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", tvm_json::to_string(&line)));
    if let Err(e) = appended {
        eprintln!("warning: could not append to {}: {e}", path.display());
    }
}

fn run_one(a: &Args, workload: &str) -> ExitCode {
    let cfg = RunCfg {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        out_dir: a.dir.join("out"),
    };
    let report = measure(workload, &cfg);
    let units = units();
    println!(
        "# {workload} seed {} seconds {} trace {} nproc {}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc()
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, v) in &report.metrics {
        println!("{name} {} {v}", units[name]);
    }
    for f in &report.outcome.check_failures {
        println!("# CHECK FAILED: {f}");
    }
    let result = result_json(&report, &units);
    if a.history {
        append_history(
            a,
            BTreeMap::from([(result_key(workload, a.trace), result.clone())]),
        );
    }
    println!("{}", tvm_json::to_string(&result));
    if report.outcome.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Key of one workload's run in a set of results and in `history.jsonl`.
fn result_key(workload: &str, trace: bool) -> String {
    format!("{workload}{}", if trace { "/trace" } else { "" })
}

/// Runs one workload in a child process, echoing its output; returns the
/// parsed result line.
fn spawn(a: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--no-history"])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&a.dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result =
        tvm_json::from_str(&last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    if !status.success() {
        println!("# {workload}: exited with {status}");
    }
    Ok(result)
}

/// One full set: every workload untraced, then traced when asked.
fn run_set(a: &Args) -> Result<BTreeMap<String, Value>, String> {
    let mut results = BTreeMap::new();
    for trace in [false, true] {
        if trace && !a.trace {
            break;
        }
        for (w, _) in WORKLOADS {
            results.insert(result_key(w, trace), spawn(a, w, trace)?);
        }
    }
    Ok(results)
}

fn all_correct(results: &BTreeMap<String, Value>) -> bool {
    results
        .values()
        .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true))
}

fn metric_of(results: &BTreeMap<String, Value>, key: &str, metric: &str) -> Option<f64> {
    results
        .get(key)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compares two sets of the same code: every end-to-end pair must agree
/// within its bound and every exact per-layer metric bit for bit.
fn selfcheck(a: &Args) -> Result<bool, String> {
    let first = run_set(a)?;
    let second = run_set(a)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    println!(
        "\n{:<16} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "metric", "workload", "first", "second", "diff", "bound"
    );
    for m in &END_TO_END {
        for (w, _) in WORKLOADS {
            let (Some(x), Some(y)) = (metric_of(&first, w, m.name), metric_of(&second, w, m.name))
            else {
                return Err(format!("{w}: {} missing", m.name));
            };
            let diff = (y - x) / x;
            let within = diff.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%{}",
                m.name,
                w,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    if a.trace {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            for (w, _) in WORKLOADS {
                let key = result_key(w, true);
                let (x, y) = (
                    metric_of(&first, &key, m.name),
                    metric_of(&second, &key, m.name),
                );
                if x.map(f64::to_bits) != y.map(f64::to_bits) {
                    ok = false;
                    println!("{:<28} {w:<16} {x:?} vs {y:?}  NOT EXACT", m.name);
                }
            }
        }
        println!("exact per-layer metrics compared bit for bit");
    }
    append_history(a, second);
    Ok(ok)
}

/// BENCHMARK.json, generated from the tables the measurements use.
fn describe() -> String {
    let quoted = tvm_json::escape;
    let rows = |rows: Vec<String>| rows.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quoted(name), quoted(why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tvm-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if a.describe {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    if a.glossary {
        // What BENCHMARK.json has no key for: which metrics must repeat
        // exactly, and which end-to-end metric each layer metric should move.
        for m in &PER_LAYER {
            let exact = if m.exact { "exact" } else { "timed" };
            println!(
                "{} | {} | {} | {exact} | {}",
                m.name, m.unit, m.better, m.moves
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Some(w) = a.workload.clone() {
        return run_one(&a, &w);
    }
    let outcome = if a.selfcheck {
        selfcheck(&a)
    } else {
        run_set(&a).map(|results| {
            let ok = all_correct(&results);
            if a.history {
                append_history(&a, results);
            }
            ok
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("# FAILED: a check did not hold");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tvm-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            describe(),
            "regenerate with `benchmark/run.sh --describe`"
        );
        let doc = tvm_json::from_str(&committed).expect("valid JSON");
        assert!(committed.len() <= 64 * 1024);
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        assert_eq!(
            doc.get("per_layer").and_then(Value::as_array).map(Vec::len),
            Some(PER_LAYER.len())
        );
    }
}
