//! Seeded properties of the loop-IR passes over generated GPU-style
//! programs (`gen`):
//!
//! * running a loop body twice in a row is the same as running it once as
//!   far as `sync` can tell, so replacing any loop body `B` by `B; B`
//!   leaves its diagnostics unchanged — which holds only if `sync` pairs a
//!   fill at the bottom of an iteration with the reads at the top of the
//!   next;
//! * no pass panics on any of these programs.

mod gen;

use tvm_analysis::{analyze_stmt, sync, AnalysisOptions};

const PROGRAMS: u64 = 1_000;

#[test]
fn doubling_a_loop_body_keeps_sync_diagnostics() {
    let mut flagged = 0;
    for seed in 0..PROGRAMS {
        let p = gen::program(seed);
        let diags = format!("{:?}", sync::check(&p.body, &p.params));
        flagged += usize::from(diags != "[]");
        analyze_stmt(&p.body, &p.params, &p.extents, &AnalysisOptions::all());
        for target in 0..gen::loop_count(&p.body) {
            let doubled = gen::double_loop_body(&p.body, target);
            assert_eq!(
                format!("{:?}", sync::check(&doubled, &p.params)),
                diags,
                "seed {seed}, loop {target} doubled:\n{doubled}"
            );
            analyze_stmt(&doubled, &p.params, &p.extents, &AnalysisOptions::all());
        }
    }
    // The generator reaches both verdicts.
    let share = flagged as f64 / PROGRAMS as f64;
    assert!((0.05..0.95).contains(&share), "{flagged} flagged");
}
