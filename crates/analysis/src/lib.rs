//! `tvm-analysis` — static verification of lowered `tvm-ir` programs.
//!
//! Upstream TVM guards its lowering pipeline with `VerifySSA`,
//! `VerifyMemory` and `VerifyGPUCode`; this crate is the equivalent for
//! our IR. Four passes run over a [`LoweredFunc`] body (or any closed
//! `Stmt` given its free buffer parameters):
//!
//! 1. [`ssa`] — def-before-use scoping: every `Var` referenced must be
//!    bound by an enclosing `For` / `Let` / `LetStmt` / `Allocate` (or be
//!    a parameter), and a variable may not be rebound while in scope.
//!    Rebinding in *disjoint sibling* scopes is legal — virtual-thread
//!    interleaving and per-stage init loops reuse leaf variables.
//! 2. [`bounds`] — buffer-bounds verification with `ir::interval`: every
//!    `Load` / `Store` index is classified [`Verdict::Proven`] (interval
//!    analysis shows it inside `[0, extent)`), [`Verdict::Refuted`] (a
//!    concrete in-range, guard-satisfying assignment drives the index out
//!    of bounds — reported with that witness), or [`Verdict::Unknown`].
//! 3. [`race`] — a data-race detector for `Parallel` / `Vectorized` /
//!    `VThread` / thread-bound loops: per-iteration may-read/may-write
//!    sets on non-private buffers, with barrier-aware phase splitting for
//!    thread-bound loops and an affine disjointness prover for the
//!    `split` / `fuse` index shapes schedules produce.
//! 4. [`sync`] — memory-scope / synchronization legality: no `Barrier`
//!    under thread-divergent control flow, and no read of a cooperatively
//!    filled `shared` buffer before a barrier publishes the fill.
//!
//! Diagnostics carry the pass name, a severity, and (for bounds
//! refutations and races) a witness string. Messages only ever name
//! variables and buffers by their display name, so diagnostic output is
//! stable across runs and suitable for golden-file tests.
//!
//! Nothing below the compiler calls this crate: `tvm-te` lowers and does
//! nothing else. The verdict on what a build ships is taken above it, by
//! `tvm_graph::verify_build` (`Module::verify`), which runs the graph
//! layer's own passes (`memplan`, `fusion`, `slot-contract`) and then
//! [`AnalysisOptions::lowering_hook`] over each distinct kernel. Those
//! passes reuse this crate's [`Diagnostic`] type and the [`bounds`]
//! machinery, so diagnostics from both layers render, sort and golden-test
//! identically.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affine;
pub mod bounds;
pub mod race;
pub mod ssa;
pub mod sync;

use std::collections::HashMap;
use std::fmt;

use tvm_ir::{
    eval_interval, BufferScopes, Expr, Interval, LoweredFunc, MemScope, Stmt, Var, VarId,
};

/// How bad a finding is. `Error` findings are definite rule violations;
/// `Warning` findings are suspicious but not provably wrong.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Suspicious construct; analysis could not prove it wrong.
    Warning,
    /// Definite violation (a witness or proof backs it).
    Error,
}

/// Outcome of one bounds check (pass 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Interval analysis proved the access in bounds.
    Proven,
    /// A concrete witness drives the access out of bounds.
    Refuted,
    /// Neither provable nor refutable with the available facts.
    Unknown,
}

/// One finding from one pass.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which pass produced it (`"ssa"`, `"bounds"`, `"race"`, `"sync"`).
    pub pass: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description; names variables/buffers, never ids.
    pub message: String,
    /// Concrete witness (bounds refutations) or offending index
    /// expressions (races), when available.
    pub witness: Option<String>,
}

impl Diagnostic {
    /// Error-severity finding, optionally carrying a concrete witness.
    pub fn error(pass: &'static str, message: impl Into<String>, witness: Option<String>) -> Self {
        Diagnostic {
            pass,
            severity: Severity::Error,
            message: message.into(),
            witness,
        }
    }

    /// Warning-severity finding.
    pub fn warning(pass: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            pass,
            severity: Severity::Warning,
            message: message.into(),
            witness: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.pass, self.message)?;
        if let Some(w) = &self.witness {
            write!(f, " ({w})")?;
        }
        Ok(())
    }
}

/// Which passes to run. `ssa`, `bounds` and `sync` always run; only the
/// race prover is optional.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Pass 3: data-race detection.
    pub race: bool,
}

impl AnalysisOptions {
    /// All four passes (what `tvm-lint` and the fuzzing oracle run).
    pub fn all() -> Self {
        AnalysisOptions { race: true }
    }

    /// The subset a built kernel is held to (`ssa` + `bounds` + `sync`):
    /// what `tvm_graph::verify_build` runs once per distinct kernel body.
    /// The race prover is reserved for lint and the fuzzing oracle. The
    /// name is frozen: `benchmark/` calls it.
    pub fn lowering_hook() -> Self {
        AnalysisOptions { race: false }
    }
}

/// Aggregate result of an analysis run.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Bounds checks attempted (pass 2).
    pub bounds_checked: usize,
    /// Bounds checks proven in range.
    pub bounds_proven: usize,
    /// Bounds checks refuted with a witness.
    pub bounds_refuted: usize,
    /// Bounds checks neither proven nor refuted.
    pub bounds_unknown: usize,
}

impl AnalysisReport {
    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True when any pass produced an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// One line per diagnostic plus a bounds summary, for logs and golden
    /// files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "bounds: {} checked, {} proven, {} refuted, {} unknown\n",
            self.bounds_checked, self.bounds_proven, self.bounds_refuted, self.bounds_unknown
        ));
        out
    }
}

/// Runs all passes over a lowered function.
pub fn analyze_func(f: &LoweredFunc) -> AnalysisReport {
    analyze_func_with(f, &AnalysisOptions::all())
}

/// Runs the selected passes over a lowered function.
pub fn analyze_func_with(f: &LoweredFunc, opts: &AnalysisOptions) -> AnalysisReport {
    analyze_stmt(&f.body, &f.params, &f.param_extents, opts)
}

/// Runs the selected passes over a closed statement whose free buffer
/// variables are `params` (with `param_extents[i]` elements each; extents
/// beyond `params.len()` are ignored, extra params get unknown extents).
pub fn analyze_stmt(
    body: &Stmt,
    params: &[Var],
    param_extents: &[usize],
    opts: &AnalysisOptions,
) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    report.diagnostics.extend(ssa::check(body, params));
    let (diags, stats) = bounds::check(body, params, param_extents);
    report.diagnostics.extend(diags);
    report.bounds_checked = stats.checked;
    report.bounds_proven = stats.proven;
    report.bounds_refuted = stats.refuted;
    report.bounds_unknown = stats.unknown;
    if opts.race {
        report.diagnostics.extend(race::check(body, params));
    }
    report.diagnostics.extend(sync::check(body, params));
    report
}

/// Every buffer `body` names, with its scope: `params` are global and
/// each allocation carries its own.
fn buffer_scopes(body: &Stmt, params: &[Var]) -> BufferScopes {
    let mut scopes: BufferScopes = params
        .iter()
        .map(|p| (p.id(), (MemScope::Global, p.clone())))
        .collect();
    scopes.extend(body.alloc_scopes());
    scopes
}

/// A pass that tracks the interval of each loop and let variable in scope
/// (`bounds`, and `race` both outside and inside a concurrent loop).
trait RangeScope: Sized {
    fn ranges(&mut self) -> &mut HashMap<VarId, Interval>;

    /// Runs `f` with `var` ranging over `iv`, then restores the enclosing
    /// scope. With no `iv`, an enclosing range of `var` stays visible in
    /// `f` and is dropped after it.
    fn with_range(&mut self, var: &Var, iv: Option<Interval>, f: impl FnOnce(&mut Self)) {
        let prev = iv.and_then(|iv| self.ranges().insert(var.id(), iv));
        f(self);
        match prev {
            Some(iv) => {
                self.ranges().insert(var.id(), iv);
            }
            None => {
                self.ranges().remove(&var.id());
            }
        }
    }
}

/// The interval a `For` over `[min, min + extent)` gives its variable;
/// `None` when a bound has no interval or the loop may run no iteration.
fn loop_range(min: &Expr, extent: &Expr, ranges: &HashMap<VarId, Interval>) -> Option<Interval> {
    let m = eval_interval(min, ranges)?;
    let e = eval_interval(extent, ranges)?;
    if e.max < 1 {
        return None;
    }
    Some(Interval {
        min: m.min,
        max: m.max.saturating_add(e.max - 1),
    })
}
