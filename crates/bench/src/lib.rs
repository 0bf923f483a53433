//! `tvm-bench` — the evaluation harness. `figures` holds one data
//! generator per paper figure or table, `entries` prints each and checks
//! the paper's claims against it under the verdict rule in `claims`, and
//! the `figures` binary runs them; `EXPERIMENTS.md` records the outcomes.
//! Absolute numbers are simulator outputs (see DESIGN.md); the claims check
//! the paper's *shape*: who wins, by roughly what factor, where crossovers
//! fall.

pub mod baselines_e2e;
pub mod claims;
pub mod entries;
pub mod figures;
pub mod profiling;
pub mod vdla_gemm;

/// Prints a table of rows with a header.
pub fn print_table(title: &str, header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    println!("== {title} ==");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
    println!();
}
