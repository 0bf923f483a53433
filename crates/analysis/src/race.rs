//! Pass 3: data-race detection for concurrent loops.
//!
//! For every `Parallel` / `Vectorized` / `VThread` / thread-bound loop
//! `L` with constant extent ≥ 2, this pass collects the may-read /
//! may-write access sets of `L`'s body on buffers that are *shared
//! across iterations* — allocated outside `L` and not in a per-iteration
//! memory scope — and flags write-write or read-write pairs that may
//! touch the same element from two distinct iteration instances.
//!
//! **Happens-before.** For thread-bound loops (non-block tags),
//! `Barrier` statements order accesses: the body is split into barrier
//! phases and only same-phase pairs are compared. A serial loop that
//! itself contains barriers runs in lockstep across threads, so its
//! cross-iteration pairs are barrier-ordered and only same-iteration
//! pairs are checked (the loop variable is *pinned* equal on both
//! sides). Barriers do not synchronize `Parallel` / `VThread` /
//! vectorized iterations or distinct thread blocks, so they split no
//! phases there.
//!
//! **Scopes.** `local` and the accelerator scopes are per-iteration
//! (registers / token-ordered DAE SRAM); `shared` is per-block, so it is
//! exempt when `L` is a block axis; buffers `Allocate`d inside `L`'s
//! body are private by construction.
//!
//! **Uniform writes.** Our execution model runs every statement on every
//! thread: an unbound producer stage nested under a thread loop writes
//! the same value to the same location once per thread. Such writes —
//! index and value independent of the loop variable, reading only
//! buffers whose content is itself iteration-invariant — are idempotent
//! and reported as benign, matching the interpreter's lockstep
//! semantics.
//!
//! **Disjointness.** Two instances of the same index expression are
//! disjoint when the index is provably injective in the loop variable.
//! The prover normalizes the index to an affine form over atoms
//! (variables, floor-div/mod of nested forms — the `split`/`fuse`
//! shapes), tightens atom ranges with guard-derived upper bounds (tail
//! guards like `ow < 14`), groups guarded sub-sums into single digits,
//! and applies a mixed-radix digit-separation argument: if every digit's
//! coefficient strictly dominates the total width of all smaller digits,
//! equal indices force equal digits, and recursively equal div/mod pairs
//! reconstruct their operand until the loop variable itself is forced
//! equal. Different index expressions fall back to interval
//! disjointness.

use std::collections::{HashMap, HashSet};

use tvm_ir::{
    collect_vars, eval_interval, BufferScopes, Expr, ExprNode, ForKind, Interval, MemScope, Stmt,
    StmtNode, Var, VarId, Visitor,
};

use crate::affine::{
    atom_eq, atom_interval, form_eq, form_interval, guard_constraints, normalize, Atom, LinForm,
    RangeEnv,
};
use crate::{loop_range, Diagnostic, RangeScope, Severity};

/// Checks `body` (with `params` as global buffers) for races.
pub fn check(body: &Stmt, params: &[Var]) -> Vec<Diagnostic> {
    let mut w = Walk {
        scopes: crate::buffer_scopes(body, params),
        ranges: HashMap::new(),
        diags: Vec::new(),
    };
    w.visit_stmt(body);
    w.diags
}

fn is_concurrent(kind: ForKind) -> bool {
    matches!(
        kind,
        ForKind::Parallel | ForKind::Vectorized | ForKind::VThread | ForKind::ThreadBinding(_)
    )
}

fn loop_desc(kind: ForKind) -> &'static str {
    match kind {
        ForKind::Parallel => "parallel",
        ForKind::Vectorized => "vectorized",
        ForKind::VThread => "vthread",
        ForKind::ThreadBinding(tag) => tag.name(),
        ForKind::Serial | ForKind::Unrolled => "serial",
    }
}

/// Top-level walk: finds concurrent loops and tracks outer ranges. It
/// reads no expression.
struct Walk {
    scopes: BufferScopes,
    ranges: HashMap<VarId, Interval>,
    diags: Vec<Diagnostic>,
}

impl RangeScope for Walk {
    fn ranges(&mut self) -> &mut HashMap<VarId, Interval> {
        &mut self.ranges
    }
}

impl Visitor for Walk {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let range = loop_range(min, extent, &self.ranges);
                if is_concurrent(*kind) {
                    if let (Some(n), Some(r)) = (extent.as_int(), range) {
                        if n >= 2 {
                            self.analyze_loop(var, r, *kind, body);
                        }
                    }
                }
                self.with_range(var, range, |w| w.visit_stmt(body));
            }
            StmtNode::LetStmt { var, value, body } => {
                let iv = eval_interval(value, &self.ranges);
                self.with_range(var, iv, |w| w.visit_stmt(body));
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, _: &Expr) {}
}

impl Walk {
    fn analyze_loop(&mut self, v: &Var, v_range: Interval, kind: ForKind, body: &Stmt) {
        let barrier_sensitive = matches!(kind, ForKind::ThreadBinding(t) if !t.is_block());
        let shared_exempt = matches!(kind, ForKind::ThreadBinding(t) if t.is_block());
        let mut ranges = self.ranges.clone();
        let pinned: HashSet<VarId> = ranges.keys().copied().collect();
        ranges.insert(v.id(), v_range);

        let mut col = Collector {
            v: v.clone(),
            barrier_sensitive,
            shared_exempt,
            scopes: &self.scopes,
            ranges,
            pinned,
            private: HashSet::new(),
            tainted: HashSet::new(),
            guards: Vec::new(),
            region: Vec::new(),
            closed: Vec::new(),
        };
        col.visit_stmt(body);

        let uniform = col.uniform_buffers();
        let mut reported: HashSet<VarId> = HashSet::new();
        for region in col.regions() {
            for i in 0..region.len() {
                for j in i..region.len() {
                    let (a, b) = (&region[i], &region[j]);
                    if a.buffer.id() != b.buffer.id()
                        || a.exempt
                        || (!a.write && !b.write)
                        || reported.contains(&a.buffer.id())
                    {
                        continue;
                    }
                    if [a, b]
                        .iter()
                        .filter(|x| x.write)
                        .all(|x| col.write_is_uniform(x, &uniform))
                    {
                        continue;
                    }
                    if col.disjoint(a, b) {
                        continue;
                    }
                    reported.insert(a.buffer.id());
                    let pair = match (a.write, b.write) {
                        (true, true) => "write-write",
                        _ => "read-write",
                    };
                    self.diags.push(Diagnostic {
                        pass: "race",
                        severity: Severity::Error,
                        message: format!(
                            "possible {pair} race on `{}` across iterations of {} loop `{}`",
                            a.buffer.name(),
                            loop_desc(kind),
                            v.name()
                        ),
                        witness: Some(if a.index.structural_eq(&b.index) {
                            format!("index `{}`", a.index)
                        } else {
                            format!("indices `{}` and `{}`", a.index, b.index)
                        }),
                    });
                }
            }
        }
    }
}

/// One recorded buffer access inside the analyzed loop body.
struct Access {
    buffer: Var,
    index: Expr,
    write: bool,
    value: Option<Expr>,
    predicate: Option<Expr>,
    /// Enclosing guards (including the store/load predicate).
    guards: Vec<Expr>,
    /// Variable ranges live at the access site.
    ranges: HashMap<VarId, Interval>,
    exempt: bool,
}

struct Collector<'a> {
    v: Var,
    barrier_sensitive: bool,
    shared_exempt: bool,
    scopes: &'a BufferScopes,
    ranges: HashMap<VarId, Interval>,
    /// Variables bound outside the loop (equal on both instances). A
    /// lockstep serial loop variable is also pinned while inside it.
    pinned: HashSet<VarId>,
    /// Buffers allocated inside the loop body (per-iteration).
    private: HashSet<VarId>,
    /// Let-bound variables whose value depends on the loop variable.
    tainted: HashSet<VarId>,
    guards: Vec<Expr>,
    /// The open barrier phase; only same-phase pairs are unordered.
    region: Vec<Access>,
    /// The non-empty phases closed before it, in program order.
    closed: Vec<Vec<Access>>,
}

impl RangeScope for Collector<'_> {
    fn ranges(&mut self) -> &mut HashMap<VarId, Interval> {
        &mut self.ranges
    }
}

/// Records the body's accesses.
impl Visitor for Collector<'_> {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &*s.0 {
            StmtNode::Barrier => {
                if self.barrier_sensitive {
                    self.new_region();
                }
            }
            StmtNode::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                self.visit_expr(min);
                self.visit_expr(extent);
                let lockstep = self.barrier_sensitive
                    && matches!(kind, ForKind::Serial | ForKind::Unrolled)
                    && body.contains_barrier();
                let range = loop_range(min, extent, &self.ranges);
                self.with_range(var, range, |col| {
                    if lockstep {
                        // All threads execute iteration k together
                        // (barriers inside keep them in step), so
                        // cross-iteration pairs are ordered; check
                        // same-iteration pairs with the loop variable
                        // pinned equal.
                        col.new_region();
                        let was_pinned = !col.pinned.insert(var.id());
                        col.visit_stmt(body);
                        if !was_pinned {
                            col.pinned.remove(&var.id());
                        }
                        col.new_region();
                    } else {
                        col.visit_stmt(body);
                    }
                });
            }
            StmtNode::Allocate { buffer, .. } => {
                self.private.insert(buffer.id());
                self.walk_stmt(s);
            }
            StmtNode::LetStmt { var, value, body } => {
                self.bind(var, value, |col| col.visit_stmt(body));
            }
            StmtNode::IfThenElse {
                cond,
                then_case,
                else_case,
            } => {
                self.visit_expr(cond);
                self.guarded(cond.clone(), |col| col.visit_stmt(then_case));
                if let Some(e) = else_case {
                    self.guarded(cond.clone().not(), |col| col.visit_stmt(e));
                }
            }
            StmtNode::Store {
                buffer,
                index,
                value,
                predicate,
            } => {
                self.walk_stmt(s);
                self.push_access(buffer, index, true, Some(value.clone()), predicate.clone());
            }
            _ => self.walk_stmt(s),
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        match &*e.0 {
            ExprNode::Select {
                cond,
                then_case,
                else_case,
            } => {
                // `select` guards its operands (cf. the padding idiom).
                self.visit_expr(cond);
                self.guarded(cond.clone(), |col| col.visit_expr(then_case));
                self.guarded(cond.clone().not(), |col| col.visit_expr(else_case));
            }
            ExprNode::Load {
                buffer,
                index,
                predicate,
            } => {
                self.walk_expr(e);
                self.push_access(buffer, index, false, None, predicate.clone());
            }
            ExprNode::Let { var, value, body } => {
                self.bind(var, value, |col| col.visit_expr(body));
            }
            _ => self.walk_expr(e),
        }
    }
}

impl Collector<'_> {
    fn new_region(&mut self) {
        if !self.region.is_empty() {
            self.closed.push(std::mem::take(&mut self.region));
        }
    }

    /// The barrier phases, in program order.
    fn regions(&self) -> impl Iterator<Item = &Vec<Access>> {
        self.closed.iter().chain([&self.region])
    }

    fn mentions_v(&self, e: &Expr) -> bool {
        collect_vars(e)
            .iter()
            .any(|x| x.id() == self.v.id() || self.tainted.contains(&x.id()))
    }

    /// Runs `f` under the extra guard `g`.
    fn guarded(&mut self, g: Expr, f: impl FnOnce(&mut Self)) {
        self.guards.push(g);
        f(self);
        self.guards.pop();
    }

    /// Reads `value`, then runs `f` with `var` bound to it.
    fn bind(&mut self, var: &Var, value: &Expr, f: impl FnOnce(&mut Self)) {
        self.visit_expr(value);
        if self.mentions_v(value) {
            self.tainted.insert(var.id());
        }
        let iv = eval_interval(value, &self.ranges);
        self.with_range(var, iv, f);
    }

    fn push_access(
        &mut self,
        buffer: &Var,
        index: &Expr,
        write: bool,
        value: Option<Expr>,
        predicate: Option<Expr>,
    ) {
        let exempt = self.private.contains(&buffer.id())
            || match self.scopes.get(&buffer.id()).map(|(scope, _)| scope) {
                None => true, // unknown handle: cannot reason, skip
                Some(MemScope::Local)
                | Some(MemScope::AccBuffer)
                | Some(MemScope::InpBuffer)
                | Some(MemScope::WgtBuffer) => true,
                Some(MemScope::Shared) => self.shared_exempt,
                Some(MemScope::Global) => false,
            };
        // Vector accesses: model the lane as a fresh independent
        // variable so the disjointness prover sees `base + stride*lane`.
        let (index, lane_range) = match &*index.0 {
            ExprNode::Ramp {
                base,
                stride,
                lanes,
            } => {
                let lane = Var::int("lane");
                let iv = Interval {
                    min: 0,
                    max: *lanes as i64 - 1,
                };
                (
                    base.clone() + stride.clone() * lane.to_expr(),
                    Some((lane, iv)),
                )
            }
            ExprNode::Broadcast { value, .. } => (value.clone(), None),
            _ => (index.clone(), None),
        };
        let mut guards = self.guards.clone();
        if let Some(p) = &predicate {
            guards.push(p.clone());
        }
        let mut ranges = self.ranges.clone();
        if let Some((lane, iv)) = lane_range {
            ranges.insert(lane.id(), iv);
        }
        self.region.push(Access {
            buffer: buffer.clone(),
            index,
            write,
            value,
            predicate,
            guards,
            ranges,
            exempt,
        });
    }

    /// Fixpoint: buffers whose content is identical on every iteration
    /// of the loop (inputs, plus buffers only written with
    /// iteration-invariant index/value from other uniform buffers).
    fn uniform_buffers(&self) -> HashSet<VarId> {
        let mut uniform: HashSet<VarId> = self
            .regions()
            .flatten()
            .map(|a| a.buffer.id())
            .chain(self.scopes.keys().copied())
            .collect();
        loop {
            let mut changed = false;
            for a in self.regions().flatten() {
                if a.write
                    && uniform.contains(&a.buffer.id())
                    && !self.write_is_uniform(a, &uniform)
                {
                    uniform.remove(&a.buffer.id());
                    changed = true;
                }
            }
            if !changed {
                return uniform;
            }
        }
    }

    /// True when this write stores an iteration-invariant value to an
    /// iteration-invariant location (idempotent across the loop).
    fn write_is_uniform(&self, a: &Access, uniform: &HashSet<VarId>) -> bool {
        if self.mentions_v(&a.index) {
            return false;
        }
        if a.value.as_ref().is_some_and(|v| self.mentions_v(v)) {
            return false;
        }
        if a.predicate.as_ref().is_some_and(|p| self.mentions_v(p)) {
            return false;
        }
        let mut loaded = HashSet::new();
        loads_of(&a.index, &mut loaded);
        if let Some(v) = &a.value {
            loads_of(v, &mut loaded);
        }
        loaded.iter().all(|b| uniform.contains(b))
    }

    /// Can two distinct iterations touch the same element through `a`
    /// and `b`? Returns true when provably not.
    fn disjoint(&self, a: &Access, b: &Access) -> bool {
        let mut ranges = a.ranges.clone();
        for (k, iv) in &b.ranges {
            ranges.entry(*k).or_insert(*iv);
        }
        if a.index.structural_eq(&b.index) {
            let guards = intersect_guards(&a.guards, &b.guards);
            if self.injective_in_v(&a.index, &guards, &ranges) {
                return true;
            }
        } else {
            let ia = self.access_interval(a);
            let ib = self.access_interval(b);
            if let (Some(x), Some(y)) = (ia, ib) {
                if x.max < y.min || y.max < x.min {
                    return true;
                }
            }
        }
        // Guards may restrict the loop variable to a single iteration
        // (elided thread tails: `if (tv < 1)`), making a distinct pair
        // impossible.
        if let (Some(ra), Some(rb)) = (self.v_restricted(a), self.v_restricted(b)) {
            if ra.min == ra.max && rb.min == rb.max && ra.min == rb.min {
                return true;
            }
        }
        false
    }

    fn v_restricted(&self, a: &Access) -> Option<Interval> {
        let base = *a.ranges.get(&self.v.id())?;
        let mut iv = base;
        for (form, ub) in guard_constraints(&a.guards) {
            if form.terms.len() == 1 && form.terms[0].1 == 1 {
                if let Atom::Var(x) = &form.terms[0].0 {
                    if x.id() == self.v.id() {
                        iv.max = iv.max.min(ub);
                    }
                }
            }
        }
        (iv.min <= iv.max).then_some(iv)
    }

    fn access_interval(&self, a: &Access) -> Option<Interval> {
        let constraints = guard_constraints(&a.guards);
        let env = RangeEnv {
            ranges: &a.ranges,
            constraints: &constraints,
        };
        if let Some(form) = normalize(&a.index) {
            if let Some(iv) = form_interval(&form, &env) {
                return Some(iv);
            }
        }
        eval_interval(&a.index, &a.ranges)
    }

    /// Proves `idx(v=x, w) == idx(v=y, w')  ==>  x == y` for in-range
    /// instances satisfying `guards`, via mixed-radix digit separation.
    fn injective_in_v(
        &self,
        idx: &Expr,
        guards: &[Expr],
        ranges: &HashMap<VarId, Interval>,
    ) -> bool {
        let Some(form) = normalize(idx) else {
            return false;
        };
        let constraints = guard_constraints(guards);
        let env = RangeEnv {
            ranges,
            constraints: &constraints,
        };

        let Some(seed) = self.digits_of(&form, &env) else {
            return false;
        };
        let mut queue: Vec<Vec<Digit>> = vec![seed];
        let mut equal_atoms: Vec<Atom> = Vec::new();
        let mut seen_forms: Vec<LinForm> = Vec::new();
        let mut steps = 0;
        while let Some(digits) = queue.pop() {
            steps += 1;
            if steps > 64 {
                return false;
            }
            // Pinned digits are equal on both instances and cancel; only
            // the rest must be separated.
            let mut active: Vec<&Digit> =
                digits.iter().filter(|d| !d.pinned && d.width > 0).collect();
            active.sort_by_key(|d| d.coef.unsigned_abs());
            let mut tail: i128 = 0;
            let mut separated = true;
            for d in &active {
                if (d.coef.unsigned_abs() as i128) <= tail {
                    separated = false;
                    break;
                }
                tail += d.coef.unsigned_abs() as i128 * d.width as i128;
            }
            if !separated {
                continue;
            }
            // Equal forms + separation => every digit equal.
            for d in active {
                match &d.kind {
                    DigitKind::Atom(Atom::Var(x)) if x.id() == self.v.id() => return true,
                    DigitKind::Atom(atom) => {
                        if !d.has_v && !matches!(atom, Atom::Div(..) | Atom::Mod(..)) {
                            continue;
                        }
                        if !equal_atoms.iter().any(|e| atom_eq(e, atom)) {
                            equal_atoms.push(atom.clone());
                        }
                    }
                    DigitKind::Group(f) => enqueue_form(f, &env, &mut seen_forms, &mut queue, self),
                }
            }
            // An equal div/mod pair over the same operand pins the
            // operand; a mod whose operand fits in one period does too.
            let mut derived: Vec<LinForm> = Vec::new();
            for atom in &equal_atoms {
                match atom {
                    Atom::Mod(f, c) => {
                        let whole = equal_atoms
                            .iter()
                            .any(|o| matches!(o, Atom::Div(g, d) if d == c && form_eq(g, f)));
                        let one_period = form_interval(f, &env).is_some_and(|iv| {
                            tvm_ir::floor_div(iv.min, *c) == tvm_ir::floor_div(iv.max, *c)
                        });
                        if whole || one_period {
                            derived.push((**f).clone());
                        }
                    }
                    Atom::Div(..) | Atom::Var(_) => {}
                }
            }
            for f in derived {
                enqueue_form(&f, &env, &mut seen_forms, &mut queue, self);
            }
        }
        false
    }

    /// Converts a form into separation digits, folding guard-constrained
    /// sub-sums (e.g. the split pieces of a guarded axis) into single
    /// digits with the tightened range.
    fn digits_of(&self, form: &LinForm, env: &RangeEnv<'_>) -> Option<Vec<Digit>> {
        let mut terms = form.terms.clone();
        let mut digits = Vec::new();
        for (cf, _ub) in env.constraints {
            // Grouping a form into itself would just hide its digits.
            if cf.terms.len() < 2 || form_eq(cf, form) {
                continue;
            }
            let Some(pos) = terms.iter().position(|(a, _)| atom_eq(a, &cf.terms[0].0)) else {
                continue;
            };
            let (c0_atom_coef, c0_form_coef) = (terms[pos].1, cf.terms[0].1);
            if c0_form_coef == 0 || c0_atom_coef % c0_form_coef != 0 {
                continue;
            }
            let m = c0_atom_coef / c0_form_coef;
            if m == 0 {
                continue;
            }
            let mut found = Vec::with_capacity(cf.terms.len());
            let mut ok = true;
            for (ca, cc) in &cf.terms {
                match terms
                    .iter()
                    .position(|(a, c)| atom_eq(a, ca) && *c == m.wrapping_mul(*cc))
                {
                    Some(i) if !found.contains(&i) => found.push(i),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let Some(iv) = form_interval(cf, env) else {
                continue;
            };
            found.sort_unstable_by(|x, y| y.cmp(x));
            for i in found {
                terms.remove(i);
            }
            digits.push(Digit {
                kind: DigitKind::Group(cf.clone()),
                coef: m,
                width: iv.max - iv.min,
                has_v: self.form_has_v(cf),
                pinned: self.form_pinned(cf),
            });
        }
        for (atom, coef) in terms {
            let iv = atom_interval(&atom, env)?;
            let mut vars = Vec::new();
            crate::affine::atom_vars(&atom, &mut vars);
            digits.push(Digit {
                kind: DigitKind::Atom(atom),
                coef,
                width: iv.max - iv.min,
                has_v: vars
                    .iter()
                    .any(|id| *id == self.v.id() || self.tainted.contains(id)),
                pinned: !vars.is_empty() && vars.iter().all(|id| self.pinned.contains(id)),
            });
        }
        Some(digits)
    }

    fn form_has_v(&self, f: &LinForm) -> bool {
        let mut vars = Vec::new();
        f.vars(&mut vars);
        vars.iter()
            .any(|id| *id == self.v.id() || self.tainted.contains(id))
    }

    fn form_pinned(&self, f: &LinForm) -> bool {
        let mut vars = Vec::new();
        f.vars(&mut vars);
        !vars.is_empty() && vars.iter().all(|id| self.pinned.contains(id))
    }
}

struct Digit {
    kind: DigitKind,
    coef: i64,
    /// `range.max - range.min` of the digit's value.
    width: i64,
    has_v: bool,
    pinned: bool,
}

enum DigitKind {
    Atom(Atom),
    Group(LinForm),
}

fn enqueue_form(
    f: &LinForm,
    env: &RangeEnv<'_>,
    seen: &mut Vec<LinForm>,
    queue: &mut Vec<Vec<Digit>>,
    col: &Collector<'_>,
) {
    if seen.iter().any(|s| form_eq(s, f)) {
        return;
    }
    seen.push(f.clone());
    if let Some(digits) = col.digits_of(f, env) {
        queue.push(digits);
    }
}

/// Splits a guard list into its top-level `And` conjuncts, so that
/// `[a && b]` and `[b]` (an init store vs. the guarded update store of
/// the same nest) intersect on `b` rather than on nothing.
fn conjuncts(guards: &[Expr]) -> Vec<Expr> {
    fn split(e: &Expr, out: &mut Vec<Expr>) {
        if let ExprNode::And { a, b } = &*e.0 {
            split(a, out);
            split(b, out);
        } else {
            out.push(e.clone());
        }
    }
    let mut out = Vec::new();
    for g in guards {
        split(g, &mut out);
    }
    out
}

fn intersect_guards(a: &[Expr], b: &[Expr]) -> Vec<Expr> {
    let cb = conjuncts(b);
    conjuncts(a)
        .into_iter()
        .filter(|g| cb.iter().any(|h| g.structural_eq(h)))
        .collect()
}

/// Adds every buffer `e` loads from to `out`.
fn loads_of(e: &Expr, out: &mut HashSet<VarId>) {
    struct Loads<'a>(&'a mut HashSet<VarId>);
    impl Visitor for Loads<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Load { buffer, .. } = &*e.0 {
                self.0.insert(buffer.id());
            }
            self.walk_expr(e);
        }
    }
    Loads(out).visit_expr(e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::{DType, ThreadTag};

    fn f32buf(name: &str) -> Var {
        Var::new(name, DType::float32())
    }

    fn par(var: &Var, extent: i64, body: Stmt) -> Stmt {
        Stmt::loop_(var, 0, extent, ForKind::Parallel, body)
    }

    #[test]
    fn disjoint_parallel_rows_are_clean() {
        let c = f32buf("C");
        let i = Var::int("i");
        let j = Var::int("j");
        let store = Stmt::store(&c, i.clone() * 8 + j.clone(), Expr::f32(0.0));
        let body = par(&i, 4, Stmt::for_(&j, 0, 8, store));
        assert!(check(&body, &[c]).is_empty());
    }

    #[test]
    fn overlapping_parallel_writes_race() {
        let c = f32buf("C");
        let i = Var::int("i");
        // every iteration writes C[0]
        let body = par(
            &i,
            4,
            Stmt::store(&c, Expr::int(0), i.to_expr().cast(DType::float32())),
        );
        let diags = check(&body, &[c]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("write-write"));
    }

    #[test]
    fn read_modify_write_same_element_is_clean() {
        let c = f32buf("C");
        let i = Var::int("i");
        let k = Var::int("k");
        // C[i] += k — reduction over serial k is fine under parallel i.
        let upd = Stmt::store(
            &c,
            i.to_expr(),
            Expr::load(&c, i.to_expr()) + k.to_expr().cast(DType::float32()),
        );
        let body = par(&i, 4, Stmt::for_(&k, 0, 3, upd));
        assert!(check(&body, &[c]).is_empty());
    }

    #[test]
    fn cross_iteration_read_races() {
        let c = f32buf("C");
        let d = f32buf("D");
        let i = Var::int("i");
        // D[i] = C[i]; C[(i+1) % 4] = 0  — read/write overlap across iters.
        let body = par(
            &i,
            4,
            Stmt::seq(vec![
                Stmt::store(&d, i.to_expr(), Expr::load(&c, i.to_expr())),
                Stmt::store(&c, (i.clone() + 1) % 4, Expr::f32(0.0)),
            ]),
        );
        let diags = check(&body, &[c, d]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`C`"));
    }

    #[test]
    fn fused_then_split_index_is_injective() {
        let c = f32buf("C");
        let fo = Var::int("fo");
        let fi = Var::int("fi");
        // f = fo*4 + fi; C[(f/8)*8 + f%8] — a fuse-then-split shape.
        let f = fo.clone() * 4 + fi.clone();
        let idx = f.clone() / 8 * 8 + f % 8;
        let body = par(
            &fo,
            8,
            Stmt::for_(&fi, 0, 4, Stmt::store(&c, idx, Expr::f32(0.0))),
        );
        assert!(check(&body, &[c]).is_empty());
    }

    #[test]
    fn guarded_tail_split_is_injective() {
        let c = f32buf("C");
        let io = Var::int("io");
        let ii = Var::int("ii");
        let j = Var::int("j");
        // i = io*4+ii ranges to 15 but the guard keeps i < 14; index
        // i*14 + j with |C| = 196. Without the guard grouping, the j
        // digit cannot be separated (4*14 + 13 overlaps); with it, the
        // index is injective in io.
        let i_expr = io.clone() * 4 + ii.clone();
        let idx = i_expr.clone() * 14 + j.clone();
        let store = Stmt::if_then(
            i_expr.lt(Expr::int(14)),
            Stmt::store(&c, idx, Expr::f32(0.0)),
        );
        let body = par(&io, 4, Stmt::for_(&ii, 0, 4, Stmt::for_(&j, 0, 14, store)));
        let diags = check(&body, &[c]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn init_and_guarded_update_share_tail_guard() {
        // The matmul shape a guarded reduction split produces: the init
        // store is guarded by `t < 10` alone, the update store by
        // `k < 14 && t < 10`. The init/update pair must intersect on the
        // shared conjunct or the tail guard is lost and `i0*10 + t`
        // cannot be separated (i0 has extent 12 > 10).
        let c = f32buf("C");
        let a = f32buf("A");
        let i0 = Var::int("i0");
        let i1o = Var::int("i1o");
        let i1i = Var::int("i1i");
        let ko = Var::int("ko");
        let ki = Var::int("ki");
        let t = i1o.clone() * 6 + i1i.clone();
        let k = ko.clone() * 5 + ki.clone();
        let idx = i0.clone() * 10 + t.clone();
        let init = Stmt::if_then(
            t.clone().lt(Expr::int(10)),
            Stmt::store(&c, idx.clone(), Expr::f32(0.0)),
        );
        let update = Stmt::if_then(
            k.clone().lt(Expr::int(14)).and(t.clone().lt(Expr::int(10))),
            Stmt::store(
                &c,
                idx.clone(),
                Expr::load(&c, idx) + Expr::load(&a, i0.clone() * 14 + k),
            ),
        );
        let kloop = Stmt::for_(&ko, 0, 3, Stmt::for_(&ki, 0, 5, update));
        let body = par(
            &i0,
            12,
            Stmt::for_(
                &i1o,
                0,
                2,
                Stmt::for_(&i1i, 0, 6, Stmt::seq(vec![init, kloop])),
            ),
        );
        let diags = check(&body, &[c, a]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn uniform_redundant_writes_are_benign() {
        let p = f32buf("P");
        let a = f32buf("A");
        let tx = Var::int("tx");
        let u = Var::int("u");
        // Every thread fills P identically from input A, then reads its
        // own slot: idempotent under the lockstep model.
        let fill = Stmt::for_(
            &u,
            0,
            8,
            Stmt::store(&p, u.to_expr(), Expr::load(&a, u.to_expr())),
        );
        let use_ = Stmt::evaluate(Expr::load(&p, tx.to_expr()));
        let body = Stmt::loop_(
            &tx,
            0,
            4,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            Stmt::seq(vec![fill, use_]),
        );
        assert!(check(&body, &[p, a]).is_empty());
    }

    #[test]
    fn shared_fill_with_barrier_is_clean_without_is_racy() {
        let s = f32buf("S");
        let a = f32buf("A");
        let o = f32buf("O");
        let tx = Var::int("tx");
        let fill = Stmt::store(&s, tx.to_expr(), Expr::load(&a, tx.to_expr()));
        let read = Stmt::store(&o, tx.to_expr(), Expr::load(&s, (tx.clone() + 1) % 4));
        let mk = |with_barrier: bool| {
            let mut items = vec![fill.clone()];
            if with_barrier {
                items.push(Stmt::new(StmtNode::Barrier));
            }
            items.push(read.clone());
            let thread = Stmt::loop_(
                &tx,
                0,
                4,
                ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
                Stmt::seq(items),
            );
            Stmt::allocate(&s, DType::float32(), 4, MemScope::Shared, thread)
        };
        assert!(check(&mk(true), &[a.clone(), o.clone()]).is_empty());
        let diags = check(&mk(false), &[a, o]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`S`"));
    }

    #[test]
    fn lockstep_barriered_loop_checks_same_iteration_only() {
        let s = f32buf("S");
        let a = f32buf("A");
        let o = f32buf("O");
        let tx = Var::int("tx");
        let k = Var::int("k");
        // for k { barrier; S[tx] = A[k*4+tx]; barrier; O[...] = S[3-tx] }
        // Classic double-buffer-free tiling: safe because barriers keep
        // iterations in lockstep.
        let fill = Stmt::store(&s, tx.to_expr(), Expr::load(&a, k.clone() * 4 + tx.clone()));
        let use_ = Stmt::store(
            &o,
            k.clone() * 4 + tx.clone(),
            Expr::load(&s, Expr::int(3) - tx.clone()),
        );
        let kloop = Stmt::for_(
            &k,
            0,
            4,
            Stmt::seq(vec![
                Stmt::new(StmtNode::Barrier),
                fill,
                Stmt::new(StmtNode::Barrier),
                use_,
            ]),
        );
        let thread = Stmt::loop_(
            &tx,
            0,
            4,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            kloop,
        );
        let body = Stmt::allocate(&s, DType::float32(), 4, MemScope::Shared, thread);
        assert!(check(&body, &[a, o]).is_empty());
    }

    #[test]
    fn shared_is_per_block_for_block_axes() {
        let s = f32buf("S");
        let bx = Var::int("bx");
        // Each block writes S[0]: shared is per-block, no race.
        let thread = Stmt::loop_(
            &bx,
            0,
            4,
            ForKind::ThreadBinding(ThreadTag::BlockIdxX),
            Stmt::store(&s, Expr::int(0), Expr::f32(1.0)),
        );
        let body = Stmt::allocate(&s, DType::float32(), 4, MemScope::Shared, thread);
        assert!(check(&body, &[]).is_empty());
    }

    #[test]
    #[allow(clippy::erasing_op)] // the index must mention `vt` yet collapse both vthreads
    fn vthread_overlap_is_flagged() {
        let c = f32buf("C");
        let vt = Var::int("vt");
        let body = Stmt::loop_(
            &vt,
            0,
            2,
            ForKind::VThread,
            Stmt::store(&c, vt.to_expr() % 2 * 0, Expr::f32(0.0)),
        );
        let diags = check(&body, &[c]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
