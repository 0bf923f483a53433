//! Which registers the lanes of a barriered nest keep of their own.
//!
//! The lanes of a nest share one register window. A lane's turn starts at
//! the nest's first op or right after a barrier, and a register needs a
//! copy per lane only when the lane code writes it and its value where a
//! turn starts may be read. [`keep`] finds those by a backward liveness
//! pass over each nest's lane code, on bitsets of 128-bit words. Every other
//! register of the window holds the same value in every lane (an import,
//! or one the lane code never writes), or is written before it is read in
//! every turn, so the lane that runs next may find it as the last one left
//! it.

use super::*;

/// How an op uses a register of the window it runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Read,
    /// Written whenever the op runs.
    Write,
    /// Written on some runs of the op only: a reduce nest's counters, which
    /// its scalar code writes instead when the nest cannot run.
    MayWrite,
}

/// Sets each barriered nest's `keep_ints` and `keep_floats`: the registers
/// its lane code writes, its thread axes included, that are live where a
/// turn starts.
pub(super) fn keep(program: &mut Program) {
    let starts: Vec<(usize, usize)> = program
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.code == Code::Nest)
        .map(|(at, op)| (op.a as usize, at + 1))
        .collect();
    for (id, start) in starts {
        let Some(nest) = program.nests.get(id) else {
            continue;
        };
        let (ints, floats) = kept(program, nest, start);
        let nest = &mut program.nests[id];
        (nest.keep_ints, nest.keep_floats) = (ints, floats);
    }
}

/// One op of lane code, as the liveness pass sees it.
struct Step {
    /// Where it goes on: an op of the lane code, its end `len`, or
    /// nowhere, `len + 1`. Both of the last hold the empty set.
    next: [usize; 2],
    /// Whether an op jumps back to it: the head of a loop.
    head: bool,
}

/// The kept integer and float registers of `nest`, whose lane code starts
/// at op `start`. Register bit `r` is integer register `r`, bit `ints + r`
/// float register `r`. Each register's liveness is independent of every
/// other's, so the sets are solved a chunk of 128 registers at a time, one
/// `u128` per op.
fn kept(program: &Program, nest: &Nest, start: usize) -> (Box<[Reg]>, Box<[Reg]>) {
    let (len, ni) = (nest.len as usize, nest.ints as usize);
    let chunks = (ni + nest.floats as usize).div_ceil(128);
    let bit = |kind: Kind, r: Reg| match kind {
        Kind::Int => r as usize,
        Kind::Float => ni + r as usize,
    };
    // What each op reads and overwrites, `[gen, kill]` chunk by chunk, and
    // every register the lane code writes, its thread axes included.
    let mut flow = vec![[0u128; 2]; chunks * len];
    let mut written = vec![0u128; chunks];
    let mut steps: Vec<Step> = Vec::with_capacity(len);
    for i in 0..len {
        let next = roles(program, start + i, &mut |role, kind, r| {
            let b = bit(kind, r);
            let (at, one) = (b / 128 * len + i, 1u128 << (b % 128));
            match role {
                Role::Read => flow[at][0] |= one,
                Role::Write => flow[at][1] |= one,
                Role::MayWrite => {}
            }
            if role != Role::Read {
                written[b / 128] |= one;
            }
        });
        // No op jumps outside the lane code.
        let within = |n: usize| n.checked_sub(start).map_or(len, |n| n.min(len));
        let next = next.map(|n| n.map_or(len + 1, within));
        for s in next.into_iter().filter(|&s| s < i) {
            steps[s].head = true;
        }
        steps.push(Step {
            next,
            head: next.contains(&i),
        });
    }
    for &(var, _, _) in &nest.axes {
        let b = bit(Kind::Int, var);
        written[b / 128] |= 1 << (b % 128);
    }
    // A turn starts at the first op and after each barrier.
    let turn = |i: usize| i == 0 || program.ops[start + i - 1].code == Code::Barrier;
    let (mut ints, mut floats) = (Vec::new(), Vec::new());
    let mut live = vec![0u128; len + 2];
    for (c, written) in written.into_iter().enumerate() {
        let flow = &flow[c * len..(c + 1) * len];
        // `live[i]` is what is live before op `i`. Each sweep visits the
        // ops last to first, so liveness flows back along every forward
        // edge within one sweep, and across a back edge in the next when
        // its head changed: a nest of loops `d` deep settles within
        // `d + 2` sweeps.
        live.fill(0);
        let mut again = true;
        while again {
            #[cfg(test)]
            tests::count_sweep();
            again = false;
            for (i, (step, &[gen, kill])) in steps.iter().zip(flow).enumerate().rev() {
                let [a, b] = step.next;
                let v = gen | ((live[a] | live[b]) & !kill);
                if live[i] != v {
                    live[i] = v;
                    again |= step.head;
                }
            }
        }
        let at_turns = (0..=len).filter(|&i| turn(i)).fold(0, |k, i| k | live[i]);
        let keep = written & at_turns;
        for b in (0..128).filter(|k| keep >> k & 1 != 0).map(|k| c * 128 + k) {
            match b.checked_sub(ni) {
                None => ints.push(b as Reg),
                Some(f) => floats.push(f as Reg),
            }
        }
    }
    (ints.into_boxed_slice(), floats.into_boxed_slice())
}

/// Calls `touch` for every register of its window that `ops[at]` reads or
/// writes, reads first, and returns the ops it may go on to, past the
/// lane code's end included: none after a fault, two after a branch. Every
/// code has an arm, so a new op does not compile until it is given its
/// roles here.
fn roles(
    program: &Program,
    at: usize,
    touch: &mut impl FnMut(Role, Kind, Reg),
) -> [Option<usize>; 2] {
    use Code::*;
    use Kind::{Float as F, Int as I};
    use Role::{MayWrite, Read, Write};
    let Op { code, d, a, b, c } = program.ops[at];
    let next = Some(at + 1);
    let mut reads = |kind, regs: &[Reg]| regs.iter().for_each(|&r| touch(Read, kind, r));
    match code {
        IConst => touch(Write, I, d),
        FConst => touch(Write, F, d),
        IMov | IDivNz | INot | IBool | IQuant | IAbs | IPopcount => {
            reads(I, &[a]);
            touch(Write, I, d);
        }
        IAdd | ISub | IMul | IDiv | IMod | IMin | IMax | IAnd | IOr | IXor | IShl | IShr | IEq
        | INe | ILt | ILe => {
            reads(I, &[a, b]);
            touch(Write, I, d);
        }
        IMulAdd | IMulSub | ISelect => {
            reads(I, &[a, b, c]);
            touch(Write, I, d);
        }
        FMov | FRound32 | FRound16 | FUnary => {
            reads(F, &[a]);
            touch(Write, F, d);
        }
        FAdd | FSub | FMul | FDiv | FMod | FMin | FMax | FPow => {
            reads(F, &[a, b]);
            touch(Write, F, d);
        }
        FEq | FNe | FLt | FLe => {
            reads(F, &[a, b]);
            touch(Write, I, d);
        }
        FSelect => {
            reads(I, &[a]);
            reads(F, &[b, c]);
            touch(Write, F, d);
        }
        IToF => {
            reads(I, &[a]);
            touch(Write, F, d);
        }
        FToITrunc | FToIFloor => {
            reads(F, &[a]);
            touch(Write, I, d);
        }
        LoadF32 | LoadF64 => {
            reads(I, &[b, c]);
            touch(Write, F, d);
        }
        LoadI64 => {
            reads(I, &[b, c]);
            touch(Write, I, d);
        }
        StoreF32 | StoreF16 | StoreF64 => {
            reads(I, &[b, d]);
            reads(F, &[c]);
        }
        StoreI64 => reads(I, &[b, d, c]),
        Alloc => reads(I, &[b]),
        Jump => return [Some(at + 1 + a as usize), None],
        JumpIfZero | JumpIfNonZero => {
            reads(I, &[a]);
            return [next, Some(at + 1 + b as usize)];
        }
        LoopGuard => {
            reads(I, &[a, b]);
            return [next, Some(at + 1 + c as usize)];
        }
        LoopNext => {
            reads(I, &[a, b]);
            touch(Write, I, a);
            return [next, (at + 1).checked_sub(c as usize)];
        }
        Raise => return [None, None],
        HwCall => {
            let call = &program.hw_calls[a as usize];
            for arg in &call.args {
                match *arg {
                    HwArg::Int(r) => touch(Read, I, r),
                    HwArg::Float(r) => touch(Read, F, r),
                    HwArg::Handle(..) => {}
                }
            }
            if let Some((kind, r)) = call.ret {
                touch(Write, kind, r);
            }
        }
        // A nest inside lane code reads its axes' ranges and its imports
        // from this window, and writes nothing to it.
        Nest => {
            let nest = &program.nests[a as usize];
            for &(_, lo, n) in &nest.axes {
                reads(I, &[lo, n]);
            }
            nest.import_ints
                .iter()
                .for_each(|&(r, _)| touch(Read, I, r));
            nest.import_floats
                .iter()
                .for_each(|&(r, _)| touch(Read, F, r));
            return [Some(at + 1 + nest.len as usize), None];
        }
        // A reduce nest goes on after its `Yield` when it cannot run, and
        // past its scalar code when it does.
        Yield => {
            let r = &program.handoffs[a as usize];
            r.reads().for_each(|reg| touch(Read, I, reg));
            r.counters().for_each(|reg| touch(MayWrite, I, reg));
            return [next, Some(at + 1 + r.scalar_len())];
        }
        Barrier => {}
    }
    [next, None]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::ThreadTag;
    use std::cell::Cell;

    thread_local! {
        static SWEEPS: Cell<usize> = const { Cell::new(0) };
    }

    /// Counts one sweep of this thread's liveness pass.
    pub(super) fn count_sweep() {
        SWEEPS.with(|s| s.set(s.get() + 1));
    }

    /// `func` compiled for float32 arrays, and the sweeps its nests took.
    fn counted_compile(func: &LoweredFunc) -> (Program, usize) {
        SWEEPS.with(|s| s.set(0));
        let program = Program::compile_f32(func);
        (program, SWEEPS.with(Cell::get))
    }

    fn barrier() -> Stmt {
        Stmt::new(StmtNode::Barrier)
    }

    #[test]
    fn a_deep_barriered_loop_nest_converges_in_depth_plus_two_sweeps() {
        // Each of 16 nested loops, in a nest of 4 threads, reads a value
        // bound outside it after a barrier: every value lives across a
        // back edge, and the innermost needs what the outermost computes.
        let (o, tx) = (Var::new("O", DType::float32()), Var::int("tx"));
        let depth = 16;
        let vars: Vec<Var> = (0..depth).map(|d| Var::int(format!("k{d}"))).collect();
        let mut body = Stmt::store(&o, tx.to_expr(), Expr::f32(1.0));
        for k in vars.iter().rev() {
            let read = Stmt::store(&o, tx.to_expr() + k.to_expr(), Expr::f32(2.0));
            body = Stmt::for_(k, 0, 2, Stmt::seq(vec![barrier(), read, body]));
        }
        let nest = Stmt::loop_(
            &tx,
            0,
            4,
            ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
            body,
        );
        let func = LoweredFunc {
            name: "t".into(),
            params: vec![o],
            param_dtypes: vec![DType::float32()],
            param_extents: vec![8],
            body: nest,
        };
        let (program, sweeps) = counted_compile(&func);
        assert!(sweeps <= depth + 2, "{sweeps} sweeps for depth {depth}");
        // The thread axis and every loop's counter live across a barrier;
        // the limits are imports, and nothing else does.
        assert_eq!(program.lane_registers(), vec![(21, 1 + depth)]);
    }
}
