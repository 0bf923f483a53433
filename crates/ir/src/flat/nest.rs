//! Reduce nests: the plan a loop nest compiles to, the lift that adds a
//! level, and the two kernels a nest runs on, chosen when it is compiled:
//! its sum in a register ([`Machine::run_acc`]), or its box a row at a
//! time, each row cut into pieces (`row`).

use super::compile::{Affine, OpenLoop, Vid, V};
use super::*;

mod row;

/// Most loop levels one reduce nest spans.
const MAX_DEPTH: usize = 8;

/// Most affine integers one reduce nest tracks: the three indices and both
/// sides of up to six guard comparisons.
const MAX_LINS: usize = 15;

/// A perfect nest of loops around `S[s] = S[s] + a * b` run as one op, in
/// the walker's row-major order. Each factor is `X[x]` or a guarded
/// `select(c, X[x], k)`. Its `Yield` op is followed by the outermost
/// loop's scalar code, `scalar_len` ops from its `LoopGuard` to its
/// `LoopNext`, which runs instead when the nest cannot.
#[derive(Clone)]
pub(super) struct ReduceNest {
    /// Outermost first.
    pub(super) levels: Box<[NestLevel]>,
    /// Slots of `S` and of the two factors' buffers.
    slots: [u16; 3],
    /// The indices of `S` and of the two factors, then both sides of every
    /// guard comparison.
    lins: Box<[Lin]>,
    /// Each factor's guard, if it has one.
    pub(super) guards: [Option<Guard>; 2],
    /// Whether the nest keeps its sum in a register ([`Machine::run_acc`]):
    /// it is unguarded, and `S` moves along no level.
    pub(super) acc: bool,
    scalar_len: u16,
}

impl ReduceNest {
    /// The registers its `Yield` reads: each level's first iteration and
    /// limit, and each integer's base.
    pub(super) fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        let bounds = self.levels.iter().flat_map(|l| [l.lo, l.limit]);
        bounds.chain(self.lins.iter().map(|lin| lin.base))
    }

    /// The registers it writes when it runs: each level's counter, left at
    /// its limit. When it cannot run, its scalar code writes them instead.
    pub(super) fn counters(&self) -> impl Iterator<Item = Reg> + '_ {
        self.levels.iter().map(|l| l.counter)
    }

    /// Ops of scalar code after its `Yield`, which the nest skips when it
    /// runs.
    pub(super) fn scalar_len(&self) -> usize {
        self.scalar_len as usize
    }
}

/// Registers of a nest level's loop variable, first iteration and limit.
#[derive(Clone, Copy)]
pub(super) struct NestLevel {
    counter: Reg,
    lo: Reg,
    limit: Reg,
}

/// `i[base] + Σ strides[j] * k[j]` over the nest's loop variables `k`,
/// outermost first.
#[derive(Clone, Copy)]
struct Lin {
    base: Reg,
    strides: [i64; MAX_DEPTH],
}

/// A factor's guard: where every comparison holds it loads, elsewhere it is
/// `konst`.
#[derive(Clone)]
pub(super) struct Guard {
    /// `(a, b, strict)`: `lins[a] < lins[b]`, or `<=` unless strict.
    cmps: Vec<(usize, usize, bool)>,
    konst: f64,
}

/// The iteration box of a reduce nest: each level's first and last
/// iteration, outermost first.
#[derive(Clone, Copy)]
struct NestBox {
    depth: usize,
    lo: [i64; MAX_DEPTH],
    hi: [i64; MAX_DEPTH],
}

impl NestBox {
    /// Iterations of the innermost level.
    fn row_len(&self) -> usize {
        let d = self.depth - 1;
        (self.hi[d].abs_diff(self.lo[d]) + 1) as usize
    }

    /// The value of `lin`, whose base is `base`, at the box's first point,
    /// and its least and greatest value over the box; `None` if a step to
    /// any of them leaves `i64`. When all are `i64`s, so is every value
    /// between.
    fn range(&self, lin: &Lin, base: i64) -> Option<(i64, i64, i64)> {
        let (mut first, mut down, mut up) = (base, 0i64, 0i64);
        for j in 0..self.depth {
            let s = lin.strides[j];
            first = first.checked_add(s.checked_mul(self.lo[j])?)?;
            let d = s.checked_mul(self.hi[j].checked_sub(self.lo[j])?)?;
            if d < 0 {
                down = down.checked_add(d)?;
            } else {
                up = up.checked_add(d)?;
            }
        }
        Some((first, first.checked_add(down)?, first.checked_add(up)?))
    }

    /// This box with each outer level along which none of the lins that
    /// `seen` selects moves held at its first iteration: its rows show
    /// those lins every value the whole box's rows do.
    fn seen_by(&self, lins: &[Lin], seen: impl Fn(usize) -> bool) -> NestBox {
        let mut b = *self;
        for j in 0..self.depth - 1 {
            let mut lins = lins.iter().enumerate();
            if lins.all(|(i, lin)| !seen(i) || lin.strides[j] == 0) {
                b.hi[j] = b.lo[j];
            }
        }
        b
    }

    /// The value of every lin at the first iteration of the row at outer
    /// point `k`, `vals` holding them at the box's first point.
    fn point(&self, lins: &[Lin], vals: &[i64; MAX_LINS], k: &[i64; MAX_DEPTH]) -> [i64; MAX_LINS] {
        let moved: [i64; MAX_DEPTH] = std::array::from_fn(|j| k[j].wrapping_sub(self.lo[j]));
        let mut at = *vals;
        for (v, lin) in at.iter_mut().zip(lins) {
            for (s, m) in lin.strides.iter().zip(&moved[..self.depth - 1]) {
                *v = v.wrapping_add(s.wrapping_mul(*m));
            }
        }
        at
    }

    /// Calls `row` for each row in row-major order, until it returns
    /// `false`, with the row's outer point, the outermost level stepped to
    /// reach it (`depth - 1` for the first row) and the values of the
    /// first `N` lins at its first iteration, `at` at the first row;
    /// returns whether every call returned `true`. A step of level `j`
    /// adds each lin's stride along `j`, less the way back of every level
    /// between `j` and the innermost. Values wrap, so one that is an `i64`
    /// at a point is exact there.
    #[inline(always)]
    fn each_row<const N: usize>(
        &self,
        lins: &[Lin],
        mut at: [i64; N],
        mut row: impl FnMut(&[i64; MAX_DEPTH], usize, [i64; N]) -> bool,
    ) -> bool {
        let d = self.depth - 1;
        let mut carry = [[0i64; N]; MAX_DEPTH];
        let mut back = [0i64; N];
        for j in (0..d).rev() {
            let extent = self.hi[j].wrapping_sub(self.lo[j]);
            for ((c, b), lin) in carry[j].iter_mut().zip(&mut back).zip(lins) {
                *c = lin.strides[j].wrapping_sub(*b);
                *b = b.wrapping_add(lin.strides[j].wrapping_mul(extent));
            }
        }
        let (mut k, mut stepped) = (self.lo, d);
        loop {
            if !row(&k, stepped, at) {
                return false;
            }
            // The odometer over every level but the innermost.
            let mut j = d;
            loop {
                if j == 0 {
                    return true;
                }
                j -= 1;
                if k[j] < self.hi[j] {
                    k[j] += 1;
                    break;
                }
                k[j] = self.lo[j];
            }
            for (v, c) in at.iter_mut().zip(carry[j]) {
                *v = v.wrapping_add(c);
            }
            stepped = j;
        }
    }
}

/// Iterations `t0..t1` of a row of `n` where factor `f` of `r` loads, given
/// the lins' values `v` at the row's first iteration: all of them when it
/// is unguarded, else those where every guard comparison holds. Each
/// side of a comparison is an `i64` everywhere in the box, so its value is
/// exact and their difference is exact in `i128`.
fn span(r: &ReduceNest, f: usize, v: &[i64; MAX_LINS], n: usize) -> (usize, usize) {
    let Some(g) = &r.guards[f] else {
        return (0, n);
    };
    let d = r.levels.len() - 1;
    let (mut t0, mut t1) = (0i128, n as i128);
    for &(a, b, strict) in &g.cmps {
        // The comparison holds at iteration `t` iff `r0 + c * t <= 0`.
        let r0 = v[a] as i128 - v[b] as i128 + strict as i128;
        let c = r.lins[a].strides[d] as i128 - r.lins[b].strides[d] as i128;
        if c > 0 {
            t1 = t1.min(floor_div_pos(-r0, c) + 1);
        } else if c < 0 {
            t0 = t0.max(-floor_div_pos(-r0, -c));
        } else if r0 > 0 {
            return (0, 0);
        }
    }
    if t0 < t1 {
        (t0 as usize, t1 as usize)
    } else {
        (0, 0)
    }
}

/// `floor(a / b)` for `b > 0`, without a division for the usual `b = 1`.
fn floor_div_pos(a: i128, b: i128) -> i128 {
    if b == 1 {
        a
    } else {
        a.div_euclid(b)
    }
}

/// The slots of a reduce nest's `S`, to write, and of its two factors, to
/// read: the compiler admits no factor in `S`'s own slot. `None` if a slot
/// is not in `slots`.
#[inline(always)]
fn split_slots(slots: &mut [Slot], [s, x, y]: [u16; 3]) -> Option<(&mut Slot, &Slot, &Slot)> {
    let s = s as usize;
    let (before, rest) = slots.split_at_mut_checked(s)?;
    let (slot, after) = rest.split_first_mut()?;
    let (before, after): (&[Slot], &[Slot]) = (before, after);
    let other = |i: u16| match (i as usize).checked_sub(s + 1) {
        Some(k) => after.get(k),
        None => before.get(i as usize),
    };
    Some((slot, other(x)?, other(y)?))
}

impl Machine<'_> {
    /// Runs reduce nest `r`, whose scalar code starts at `start`, as one
    /// op: every iteration in the walker's row-major order, each rounding
    /// the walker's `f64` sum to `f32` as its store does, and counting one
    /// store; returns the op after the scalar code. Returns `start`, having
    /// changed nothing, if the box is empty, an access is out of bounds or
    /// an integer leaves `i64` anywhere in it: the scalar code then runs,
    /// and stores and faults where the walker does. Each access goes
    /// through its slot's `base`, so in a barriered nest a lane's own
    /// allocation is the current lane's copy.
    pub(super) fn run_reduce(
        &mut self,
        r: &ReduceNest,
        start: usize,
        ints: &mut [i64],
    ) -> Result<usize> {
        let ran = if r.acc {
            self.run_acc(r, ints).is_some()
        } else {
            self.run_box(r, ints)
        };
        Ok(if ran {
            start + r.scalar_len as usize
        } else {
            start
        })
    }

    /// Runs reduce nest `r`, guarded or with an `S` that moves, a row at a
    /// time, each row cut into pieces at its guards' span ends. Returns
    /// whether it ran; if not, it changed nothing.
    #[inline(never)]
    fn run_box(&mut self, r: &ReduceNest, ints: &mut [i64]) -> bool {
        let mut b = NestBox {
            depth: r.levels.len(),
            lo: [0; MAX_DEPTH],
            hi: [0; MAX_DEPTH],
        };
        let mut volume = 1u64;
        for (j, l) in r.levels.iter().enumerate() {
            let (first, limit) = (ints[l.lo as usize], ints[l.limit as usize]);
            if first >= limit {
                return false;
            }
            (b.lo[j], b.hi[j]) = (first, limit - 1);
            match volume.checked_mul(limit.abs_diff(first)) {
                Some(v) => volume = v,
                None => return false,
            }
        }
        let Some((s, x, y)) = split_slots(&mut self.mem.slots, r.slots) else {
            return false;
        };
        let (Data::F32(sv), Data::F32(xs), Data::F32(ys)) =
            (&mut s.buf.data, &x.buf.data, &y.buf.data)
        else {
            return false;
        };
        // Every lin is an `i64` all over the box, so the values `each_row`
        // keeps are exact; `S`'s index and an unguarded factor's are in
        // bounds all over it too.
        let lens = [
            Some(s.len),
            r.guards[0].is_none().then_some(x.len),
            r.guards[1].is_none().then_some(y.len),
        ];
        let mut vals = [0i64; MAX_LINS];
        for (i, lin) in r.lins.iter().enumerate() {
            let Some((first, min, max)) = b.range(lin, ints[lin.base as usize]) else {
                return false;
            };
            if let Some(&Some(len)) = lens.get(i) {
                if min < 0 || max as u64 >= len as u64 {
                    return false;
                }
            }
            vals[i] = first;
        }
        let (d, n) = (b.depth - 1, b.row_len());
        let stride = |i: usize| r.lins[i].strides[d];
        // A guarded factor loads only where its guard holds: in each row,
        // both ends of that span are in bounds, and so every index between.
        // Rows that differ only at levels the factor and its guard do not
        // move along are checked once.
        for (f, slot) in [x, y].into_iter().enumerate() {
            let Some(g) = &r.guards[f] else {
                continue;
            };
            let seen = |i: usize| i == f + 1 || g.cmps.iter().any(|&(a, b, _)| i == a || i == b);
            let in_bounds = |v: &[i64; MAX_LINS]| {
                let (t0, t1) = span(r, f, v, n);
                let index = |t: usize| v[f + 1].wrapping_add(stride(f + 1).wrapping_mul(t as i64));
                let len = slot.len as u64;
                t0 == t1 || (index(t0) as u64) < len && (index(t1 - 1) as u64) < len
            };
            if !b
                .seen_by(&r.lins, seen)
                .each_row(&r.lins, vals, |_, _, v| in_bounds(&v))
            {
                return false;
            }
        }
        // Where `S` and each factor are in their slots' storage at the
        // box's first point, wrapping: exact where they load or store.
        let bases = [s.base, x.base, y.base];
        let at = std::array::from_fn(|i| (bases[i] as i64).wrapping_add(vals[i]));
        row::run(r, &b, &vals, at, sv, [xs, ys]);
        self.ran(r, volume, ints);
        true
    }

    /// Records that reduce nest `r`, of `volume` iterations, ran: its
    /// stores, and each level's counter at its limit, where the scalar code
    /// leaves it.
    fn ran(&mut self, r: &ReduceNest, volume: u64, ints: &mut [i64]) {
        self.stores += volume;
        for l in &r.levels {
            ints[l.counter as usize] = ints[l.limit as usize];
        }
    }

    /// Runs reduce nest `r`, unguarded and with `S` one element all over
    /// its box (a dense layer's reduction, a GPU lane's accumulator), with
    /// the sum in a register from the box's first iteration to its last.
    /// The innermost level and each level around it that both factors walk
    /// on through, from where the level inside it ends (a split `k.o ×
    /// k.i`), are one row at the innermost strides; [`rows`] steps the
    /// levels outside the row. `S` is loaded once and stored once: no
    /// factor is in its slot and nothing in the box can fault, so the
    /// stores skipped in between cannot be observed. `None` if it did not
    /// run; it then changed nothing.
    fn run_acc(&mut self, r: &ReduceNest, ints: &mut [i64]) -> Option<()> {
        let (d, [_, lx, ly]) = (r.levels.len() - 1, [0, 1, 2].map(|i| &r.lins[i]));
        let inner = [lx.strides[d], ly.strides[d]];
        // One checked pass, innermost level first: the box's volume, each
        // factor's index at its first point, the row (levels `outer..`, of
        // `n` iterations) and each factor's least and greatest offset from
        // its first index, a joined level's reach being the row's.
        let mut first = [ints[lx.base as usize], ints[ly.base as usize]];
        let (mut down, mut up) = ([0i64; 2], [0i64; 2]);
        let (mut volume, mut n, mut outer) = (1u64, 1i64, r.levels.len());
        let mut reach = |f: usize, by: i64| {
            let to = if by < 0 { &mut down[f] } else { &mut up[f] };
            *to = to.checked_add(by)?;
            Some(())
        };
        for (j, l) in r.levels.iter().enumerate().rev() {
            let (lo, limit) = (ints[l.lo as usize], ints[l.limit as usize]);
            if lo >= limit {
                return None;
            }
            let extent = limit.checked_sub(lo)?;
            volume = volume.checked_mul(extent as u64)?;
            let strides = [lx.strides[j], ly.strides[j]];
            for (first, s) in first.iter_mut().zip(strides) {
                *first = first.checked_add(s.checked_mul(lo)?)?;
            }
            let joins = |f: usize| inner[f].checked_mul(n) == Some(strides[f]);
            if outer == j + 1 && joins(0) && joins(1) {
                (n, outer) = (n.checked_mul(extent)?, j);
            } else {
                for (f, s) in strides.into_iter().enumerate() {
                    reach(f, s.checked_mul(extent - 1)?)?;
                }
            }
        }
        for (f, s) in inner.into_iter().enumerate() {
            reach(f, s.checked_mul(n - 1)?)?;
        }
        let (s, x, y) = split_slots(&mut self.mem.slots, r.slots)?;
        let (Data::F32(sv), Data::F32(xs), Data::F32(ys)) =
            (&mut s.buf.data, &x.buf.data, &y.buf.data)
        else {
            return None;
        };
        let si = ints[r.lins[0].base as usize];
        if si as u64 >= s.len as u64 {
            return None;
        }
        let mut at = [0usize; 2];
        for (f, slot) in [x, y].into_iter().enumerate() {
            let (least, most) = (first[f].checked_add(down[f])?, first[f].checked_add(up[f])?);
            if least < 0 || most as u64 >= slot.len as u64 {
                return None;
            }
            at[f] = slot.base + first[f] as usize;
        }
        let factors: [&[f32]; 2] = [xs, ys];
        let steps = inner.map(|s| s as usize);
        let sum = &mut sv[s.base + si as usize];
        *sum = if outer == 0 {
            row(*sum, factors, at, steps, n as u64)
        } else {
            rows(r, ints, outer, *sum, factors, at, n as u64)
        };
        self.ran(r, volume, ints);
        Some(())
    }
}

/// `acc` after the `n` iterations of a row from `at`, each factor stepping
/// on by `steps`, each rounding the walker's `f64` sum to `f32`. The steps
/// wrap, so a negative stride works.
#[inline(always)]
fn row(mut acc: f32, [xs, ys]: [&[f32]; 2], at: [usize; 2], steps: [usize; 2], n: u64) -> f32 {
    let ([mut x, mut y], [sx, sy]) = (at, steps);
    for _ in 0..n {
        acc = (acc as f64 + xs[x] as f64 * ys[y] as f64) as f32;
        (x, y) = (x.wrapping_add(sx), y.wrapping_add(sy));
    }
    acc
}

/// [`Machine::run_acc`]'s rows of `n` when levels `..outer` are outside
/// the row: `acc` after each row in row-major order, the first from `at`,
/// the levels outside stepped by [`NestBox::each_row`] over a box whose
/// innermost level stands for the row. Out of line, so that a nest that
/// is one row sets up no odometer.
#[inline(never)]
fn rows(
    r: &ReduceNest,
    ints: &[i64],
    outer: usize,
    mut acc: f32,
    factors: [&[f32]; 2],
    at: [usize; 2],
    n: u64,
) -> f32 {
    let mut b = NestBox {
        depth: outer + 1,
        lo: [0; MAX_DEPTH],
        hi: [0; MAX_DEPTH],
    };
    for (j, l) in r.levels[..outer].iter().enumerate() {
        (b.lo[j], b.hi[j]) = (ints[l.lo as usize], ints[l.limit as usize] - 1);
    }
    let d = r.levels.len() - 1;
    let steps = [1, 2].map(|i| r.lins[i].strides[d] as usize);
    b.each_row(&r.lins[1..3], at.map(|a| a as i64), |_, _, at| {
        acc = row(acc, factors, at.map(|a| a as usize), steps, n);
        true
    });
    acc
}

/// An affine integer of a reduce nest under construction: `rest` plus
/// `strides[j]` times the variable of level `j`, outermost first, where
/// `rest` is invariant in every level.
#[derive(Clone)]
struct LinPlan {
    rest: Affine,
    strides: Vec<i64>,
}

/// A reduce nest under construction: [`ReduceNest`] over value numbers,
/// so that the loop around it can take it over as a new outermost level.
#[derive(Clone)]
pub(super) struct NestPlan {
    /// Counter, first iteration and limit of each level, outermost first.
    levels: Vec<(Vid, Vid, Vid)>,
    slots: [u16; 3],
    lins: Vec<LinPlan>,
    guards: [Option<Guard>; 2],
    /// The handoff it compiled to.
    handoff: usize,
}

impl Compiler<'_> {
    /// The one-level reduce nest of loop `l`, and the ops in front of the
    /// loop that its integers use. `None`, with nothing changed, unless
    /// `body` is `S[s] = S[s] + a * b` ([`mac_form`]) with `S` a float32
    /// buffer held as `f32`, both factors' buffers other than `S` and held
    /// as `f32`, and every index and guard side affine in the loop
    /// variable with every other term invariant in the loop.
    pub(super) fn plan_nest(&mut self, l: &OpenLoop, body: &Stmt) -> Option<(Vec<Op>, NestPlan)> {
        let form = mac_form(body)?;
        let mut slots = [0u16; 3];
        let buffers = [form.acc, form.factors[0].buffer, form.factors[1].buffer];
        for (slot, buffer) in slots.iter_mut().zip(buffers) {
            let &V::Handle(_, s) = self.vars.get(&buffer.id())? else {
                return None;
            };
            *slot = s;
        }
        let [s, x, y] = slots;
        let held_f32 = |slot: u16| self.slots[slot as usize].storage == Storage::F32;
        let float32 = self.slots[s as usize].dtype == DType::float32();
        if !(float32 && slots.iter().all(|&s| held_f32(s))) || x == s || y == s {
            return None;
        }
        // The integers: `S` as stored and as loaded, each factor's index,
        // then both sides of each guard comparison.
        let mut ints = vec![form.at[0], form.at[1]];
        ints.extend(form.factors.iter().map(|f| f.index));
        for f in &form.factors {
            ints.extend(f.cmps.iter().flat_map(|&(a, b, _)| [a, b]));
        }
        if ints.len() > MAX_LINS + 1 {
            return None;
        }
        let before = self.clone();
        self.open_level(self.cur_frame());
        let shadowed = self.vars.insert(l.var, V::Int(l.counter));
        let affines: Vec<Affine> = ints.iter().map(|e| self.affine(e)).collect();
        self.unbind(l.var, shadowed);
        let level = self.close_level();
        let inner = self.cur_level() + 1;
        let lins: Option<Vec<LinPlan>> = affines
            .into_iter()
            .map(|a| {
                let (rest, stride) = self.split(a, l.counter, inner)?;
                Some(LinPlan {
                    rest,
                    strides: vec![stride],
                })
            })
            .collect();
        match lins {
            Some(mut lins) if level.body.is_empty() && same(&lins[0], &lins[1]) => {
                lins.remove(1);
                let mut next = 3;
                let guards = form.factors.map(|f| {
                    let konst = f.konst?;
                    let cmps = f
                        .cmps
                        .iter()
                        .map(|&(_, _, strict)| {
                            next += 2;
                            (next - 2, next - 1, strict)
                        })
                        .collect();
                    Some(Guard { cmps, konst })
                });
                let plan = NestPlan {
                    levels: vec![(l.counter, l.lo, l.limit)],
                    slots,
                    lins,
                    guards,
                    handoff: 0,
                };
                Some((level.pre, plan))
            }
            _ => {
                *self = before;
                None
            }
        }
    }

    /// `inner`, the reduce nest that the body of loop `l` compiled to, with
    /// `l` as its new outermost level; `None`, with nothing changed, unless
    /// every inner level's range and every term of every integer but `l`'s
    /// variable is invariant in `l`. `body` is the loop's scalar code, from
    /// which the inner nest's `Yield` is taken out: the new nest falls back
    /// to the scalar code of every level.
    pub(super) fn lift(
        &mut self,
        inner: NestPlan,
        l: &OpenLoop,
        body: &mut Vec<Op>,
    ) -> Option<NestPlan> {
        let level = self.cur_level() + 1;
        let invariant = |v: Vid| self.values[v as usize].level < level;
        let ranges = inner
            .levels
            .iter()
            .all(|&(_, lo, limit)| invariant(lo) && invariant(limit));
        if inner.levels.len() == MAX_DEPTH || !ranges {
            return None;
        }
        let mut lins = Vec::with_capacity(inner.lins.len());
        for lin in &inner.lins {
            let (rest, stride) = self.split(lin.rest.clone(), l.counter, level)?;
            let mut strides = vec![stride];
            strides.extend(&lin.strides);
            lins.push(LinPlan { rest, strides });
        }
        let at = body
            .iter()
            .position(|op| op.code == Code::Yield && op.a as usize == inner.handoff)?;
        body.remove(at);
        debug_assert_eq!(self.handoffs.len(), inner.handoff + 1);
        self.handoffs.truncate(inner.handoff);
        let mut levels = vec![(l.counter, l.lo, l.limit)];
        levels.extend(inner.levels);
        Some(NestPlan {
            levels,
            lins,
            ..inner
        })
    }

    /// Computes the bases of `plan`'s integers in ops placed in front of
    /// the loop, which are returned with the `Yield` that hands the nest
    /// over; the nest's scalar code is `scalar_len` ops. The plan is kept
    /// for the loop around this one.
    pub(super) fn nest_handoff(&mut self, mut plan: NestPlan, scalar_len: u16) -> (Vec<Op>, Op) {
        self.open_level(self.cur_frame());
        let bases: Vec<Vid> = plan
            .lins
            .iter()
            .map(|lin| self.materialize(lin.rest.clone()))
            .collect();
        let level = self.close_level();
        debug_assert!(level.body.is_empty(), "every term is invariant");
        let lins: Box<[Lin]> = plan
            .lins
            .iter()
            .zip(bases)
            .map(|(lin, base)| {
                let mut strides = [0; MAX_DEPTH];
                strides[..lin.strides.len()].copy_from_slice(&lin.strides);
                Lin {
                    base: self.reg(base),
                    strides,
                }
            })
            .collect();
        let levels = plan
            .levels
            .iter()
            .map(|&(counter, lo, limit)| NestLevel {
                counter: self.values[counter as usize].reg,
                lo: self.reg(lo),
                limit: self.reg(limit),
            })
            .collect();
        let acc = matches!(plan.guards, [None, None]) && lins[0].strides == [0; MAX_DEPTH];
        self.handoffs.push(ReduceNest {
            levels,
            slots: plan.slots,
            lins,
            guards: plan.guards.clone(),
            acc,
            scalar_len,
        });
        plan.handoff = self.handoffs.len() - 1;
        let op = Op::new(Code::Yield, 0, plan.handoff as u16, 0, 0);
        self.nest = Some(plan);
        (level.pre, op)
    }

    /// `a` as `rest + stride * k`, with `k` the counter of the loop at
    /// `level`: `None` if a term of `rest` varies at that level or deeper.
    fn split(&self, mut a: Affine, k: Vid, level: usize) -> Option<(Affine, i64)> {
        let stride = match a.terms.iter().position(|&(v, _)| v == k) {
            Some(p) => a.terms.remove(p).1,
            None => 0,
        };
        let invariant = a
            .terms
            .iter()
            .all(|&(v, _)| self.values[v as usize].level < level);
        invariant.then_some((a, stride))
    }
}

/// Whether a loop of `kind` may be a level of a reduce nest.
pub(super) fn nests(kind: ForKind) -> bool {
    matches!(
        kind,
        ForKind::Serial | ForKind::Unrolled | ForKind::Vectorized
    )
}

/// Whether two affine integers of a reduce nest are the same.
fn same(a: &LinPlan, b: &LinPlan) -> bool {
    let terms = |l: &LinPlan| {
        let mut t = l.rest.terms.clone();
        t.sort_unstable();
        t
    };
    a.rest.c == b.rest.c && a.strides == b.strides && terms(a) == terms(b)
}

/// A loop body `S[s] = S[s] + a * b`: a float sum, in either order, of `S`
/// loaded where it is stored and a float product of two factors, every
/// access unpredicated.
struct MacForm<'a> {
    acc: &'a Var,
    /// `s` as stored and as loaded.
    at: [&'a Expr; 2],
    factors: [FactorForm<'a>; 2],
}

/// `buffer[index]`, or, with `konst`, `select(c, buffer[index], konst)`
/// where `c` is the conjunction of `cmps`: `(a, b, strict)` is integer
/// `a < b`, or `a <= b` unless strict.
struct FactorForm<'a> {
    buffer: &'a Var,
    index: &'a Expr,
    cmps: Vec<(&'a Expr, &'a Expr, bool)>,
    konst: Option<f64>,
}

/// `body` as a [`MacForm`]. Float addition and multiplication commute, so
/// the order of the sum does not matter, and the factors keep theirs.
fn mac_form(body: &Stmt) -> Option<MacForm<'_>> {
    fn load(e: &Expr) -> Option<(&Var, &Expr)> {
        match &*e.0 {
            ExprNode::Load {
                buffer,
                index,
                predicate: None,
            } => Some((buffer, index)),
            _ => None,
        }
    }
    /// The conjunction `c` as comparisons, if it is one of integer
    /// `< <= > >=` comparisons.
    fn conjunction<'a>(c: &'a Expr, out: &mut Vec<(&'a Expr, &'a Expr, bool)>) -> Option<()> {
        match &*c.0 {
            ExprNode::And { a, b } => {
                conjunction(a, out)?;
                conjunction(b, out)
            }
            ExprNode::Cmp { op, a, b } if !a.dtype().is_float() => {
                out.push(match op {
                    CmpOp::Lt => (a, b, true),
                    CmpOp::Le => (a, b, false),
                    CmpOp::Gt => (b, a, true),
                    CmpOp::Ge => (b, a, false),
                    CmpOp::Eq | CmpOp::Ne => return None,
                });
                Some(())
            }
            _ => None,
        }
    }
    fn factor(e: &Expr) -> Option<FactorForm<'_>> {
        if let Some((buffer, index)) = load(e) {
            return Some(FactorForm {
                buffer,
                index,
                cmps: Vec::new(),
                konst: None,
            });
        }
        let ExprNode::Select {
            cond,
            then_case,
            else_case,
        } = &*e.0
        else {
            return None;
        };
        let (buffer, index) = load(then_case)?;
        let &ExprNode::FloatImm { value, .. } = &*else_case.0 else {
            return None;
        };
        let mut cmps = Vec::new();
        conjunction(cond, &mut cmps)?;
        Some(FactorForm {
            buffer,
            index,
            cmps,
            konst: Some(value),
        })
    }
    fn product(e: &Expr) -> Option<[FactorForm<'_>; 2]> {
        match &*e.0 {
            ExprNode::Binary {
                op: BinOp::Mul,
                a,
                b,
                ..
            } if a.dtype().is_float() => Some([factor(a)?, factor(b)?]),
            _ => None,
        }
    }
    let StmtNode::Store {
        buffer,
        index,
        value,
        predicate: None,
    } = &*body.0
    else {
        return None;
    };
    let ExprNode::Binary {
        op: BinOp::Add,
        a,
        b,
        ..
    } = &*value.0
    else {
        return None;
    };
    let stored = |&(s, _): &(&Var, &Expr)| s.id() == buffer.id();
    let ((_, at), factors) = match (load(a).filter(stored), product(b)) {
        (Some(acc), Some(factors)) => (acc, factors),
        _ => (load(b).filter(stored)?, product(a)?),
    };
    a.dtype().is_float().then_some(MacForm {
        acc: buffer,
        at: [index, at],
        factors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reduce nests `body` compiles to, over float32 buffers `S`, `X`
    /// and `W` of 4,096.
    fn handoffs(body: impl Fn(&Var, &Var, &Var) -> Stmt) -> Vec<ReduceNest> {
        let [s, x, w] = ["S", "X", "W"].map(|n| Var::new(n, DType::float32()));
        let func = LoweredFunc {
            name: "t".into(),
            body: body(&s, &x, &w),
            params: vec![s, x, w],
            param_dtypes: vec![DType::float32(); 3],
            param_extents: vec![4096; 3],
        };
        Program::compile_f32(&func).handoffs.into_vec()
    }

    /// `S[s] = S[s] + X[x] * W[w]`.
    fn mac(s: &Var, x: &Var, w: &Var, at: [Expr; 3]) -> Stmt {
        let [si, xi, wi] = at;
        let sum = Expr::load(s, si.clone()) + Expr::load(x, xi) * Expr::load(w, wi);
        Stmt::store(s, si, sum)
    }

    #[test]
    fn a_gpu_conv_lane_and_a_split_dense_reduction_keep_the_sum_in_a_register() {
        // A `titanx` conv lane: `conv[0]` over `rh × rw × rc.i`, the data
        // tile read at `rc.i * 100 + (rh + 2) * 10 + rw`, the weight tile
        // at `rc.i * 9 + rh * 3 + rw`.
        let (rh, rw, rc) = (Var::int("rh"), Var::int("rw"), Var::int("rc.i"));
        let conv = handoffs(|s, x, w| {
            let data = rc.clone() * 100 + (rh.clone() + 2) * 10 + rw.clone();
            let weight = rc.clone() * 9 + rh.clone() * 3 + rw.clone();
            let body = mac(s, x, w, [Expr::int(0), data, weight]);
            Stmt::for_(
                &rh,
                0,
                3,
                Stmt::for_(&rw, 0, 3, Stmt::for_(&rc, 0, 8, body)),
            )
        });
        assert_eq!(
            (conv.len(), conv[0].levels.len(), conv[0].acc),
            (1, 3, true)
        );
        // A dense layer's `k.o × k.i` into `S[j]`, `j` bound outside the
        // nest.
        let (j, ko, ki) = (Var::int("j"), Var::int("k.o"), Var::int("k.i"));
        let dense = handoffs(|s, x, w| {
            let k = ko.clone() * 8 + ki.clone();
            let body = mac(s, x, w, [j.to_expr(), k.clone(), k * 16 + j.clone()]);
            let k_loops = Stmt::for_(&ko, 0, 4, Stmt::for_(&ki, 0, 8, body));
            Stmt::loop_(&j, 0, 16, ForKind::Parallel, k_loops)
        });
        assert_eq!(
            (dense.len(), dense[0].levels.len(), dense[0].acc),
            (1, 2, true)
        );
    }

    #[test]
    fn a_guarded_conv_nest_and_a_nest_whose_sum_moves_run_in_pieces() {
        // An `arm_a53` conv row: `S[i]` over `rw × i`, the data read under
        // its padding guard `0 <= i + rw - 1 < 8`.
        let (rw, i) = (Var::int("rw"), Var::int("i"));
        let guarded = handoffs(|s, x, w| {
            let at = i.clone() + rw.clone() - 1;
            let inside = at.clone().ge(Expr::int(0)).and(at.clone().lt(Expr::int(8)));
            let pixel = Expr::select(inside, Expr::load(x, at), Expr::f32(0.0));
            let sum = Expr::load(s, i.to_expr()) + pixel * Expr::load(w, rw.to_expr());
            let body = Stmt::store(s, i.to_expr(), sum);
            Stmt::for_(&rw, 0, 3, Stmt::for_(&i, 0, 8, body))
        });
        assert_eq!(
            (guarded.len(), guarded[0].levels.len(), guarded[0].acc),
            (1, 2, false)
        );
        // The same sums unguarded into `S[i]`, which moves along the
        // innermost level, and into `S[o]` over `o × k`, which moves along
        // the outer one.
        let (o, k) = (Var::int("o"), Var::int("k"));
        for (at, inner) in [(i.to_expr(), &i), (o.to_expr(), &k)] {
            let moving = handoffs(|s, x, w| {
                let body = mac(s, x, w, [at.clone(), inner.to_expr(), inner.to_expr()]);
                let outer = if inner.name() == "i" { &rw } else { &o };
                Stmt::for_(outer, 0, 3, Stmt::for_(inner, 0, 8, body))
            });
            assert_eq!(
                (moving.len(), moving[0].levels.len(), moving[0].acc),
                (1, 2, false)
            );
        }
    }
}
