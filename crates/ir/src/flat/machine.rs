//! Running a program: the dispatch loop and the lanes of a barriered nest.

use super::*;

pub(super) struct Machine<'a> {
    pub(super) program: &'a Program,
    pub(super) mem: &'a mut MemState,
    pub(super) hw: &'a mut HashMap<String, HwHandlerFn>,
    pub(super) stores: u64,
}

/// Why [`Machine::run`] returned.
pub(super) enum Stop {
    /// Reached the end of its range.
    End,
    /// Reached a `Yield` op; the caller resumes at this op.
    Yield(usize),
    /// Reached a `Barrier` op; the lane resumes at this op.
    Barrier(usize),
}

fn wrap_int(v: i64, spec: u16) -> i64 {
    let bits = (spec & 0xff) as u32;
    let low = v & ((1i64 << bits) - 1);
    if spec >> 8 != 0 && low & (1i64 << (bits - 1)) != 0 {
        low - (1i64 << bits)
    } else {
        low
    }
}

/// `floor(n / k)`, `m` and `shift` being [`magic`](super::compile::magic)`(k)`.
/// With `s` all ones when `n` is negative, `n ^ s` is `n` or `-n - 1`, in
/// `0..2^63` either way, and `floor(n / k) = !floor((-n - 1) / k)` for a
/// negative `n`.
#[inline(always)]
pub(super) fn div_magic(n: i64, m: u64, shift: u32) -> i64 {
    let s = n >> 63;
    let q = ((((n ^ s) as u64 as u128) * m as u128) >> 64) as u64 >> shift;
    q as i64 ^ s
}

#[cold]
fn wrong_storage(slot: &Slot) -> InterpError {
    InterpError::Malformed(format!(
        "buffer `{}` changed storage under a run",
        slot.name
    ))
}

#[cold]
pub(super) fn malformed(what: &str) -> InterpError {
    InterpError::Malformed(format!("flat program: {what}"))
}

impl Machine<'_> {
    /// Executes `ops[pc..end]` on one register window.
    pub(super) fn run(
        &mut self,
        mut pc: usize,
        end: usize,
        ints: &mut [i64],
        floats: &mut [f64],
    ) -> Result<Stop> {
        use Code::*;
        let program = self.program;
        let ops = &program.ops[..end];
        while let Some(&Op { code, d, a, b, c }) = ops.get(pc) {
            let (d, a, b, c) = (d as usize, a as usize, b as usize, c as usize);
            pc += 1;
            match code {
                IConst => ints[d] = program.iconsts[a],
                FConst => floats[d] = program.fconsts[a],
                IMov => ints[d] = ints[a],
                FMov => floats[d] = floats[a],
                IAdd => ints[d] = ints[a].wrapping_add(ints[b]),
                ISub => ints[d] = ints[a].wrapping_sub(ints[b]),
                IMul => ints[d] = ints[a].wrapping_mul(ints[b]),
                IMulAdd => ints[d] = ints[a].wrapping_add(ints[b].wrapping_mul(ints[c])),
                IMulSub => ints[d] = ints[a].wrapping_sub(ints[b].wrapping_mul(ints[c])),
                IDiv | IMod => {
                    if ints[b] == 0 {
                        return Err(InterpError::DivideByZero);
                    }
                    ints[d] = if code == IDiv {
                        floor_div(ints[a], ints[b])
                    } else {
                        floor_mod(ints[a], ints[b])
                    };
                }
                IDivNz => ints[d] = div_magic(ints[a], program.iconsts[b] as u64, c as u32),
                IMin => ints[d] = ints[a].min(ints[b]),
                IMax => ints[d] = ints[a].max(ints[b]),
                IAnd => ints[d] = ints[a] & ints[b],
                IOr => ints[d] = ints[a] | ints[b],
                IXor => ints[d] = ints[a] ^ ints[b],
                IShl => ints[d] = ints[a].wrapping_shl(ints[b] as u32),
                IShr => ints[d] = ints[a].wrapping_shr(ints[b] as u32),
                IEq => ints[d] = (ints[a] == ints[b]) as i64,
                INe => ints[d] = (ints[a] != ints[b]) as i64,
                ILt => ints[d] = (ints[a] < ints[b]) as i64,
                ILe => ints[d] = (ints[a] <= ints[b]) as i64,
                INot => ints[d] = (ints[a] == 0) as i64,
                IBool => ints[d] = (ints[a] != 0) as i64,
                IQuant => ints[d] = wrap_int(ints[a], b as u16),
                IAbs => ints[d] = ints[a].wrapping_abs(),
                IPopcount => ints[d] = ints[a].count_ones() as i64,
                ISelect => ints[d] = if ints[a] != 0 { ints[b] } else { ints[c] },
                FAdd => floats[d] = floats[a] + floats[b],
                FSub => floats[d] = floats[a] - floats[b],
                FMul => floats[d] = floats[a] * floats[b],
                FDiv => floats[d] = floats[a] / floats[b],
                FMod => floats[d] = floats[a].rem_euclid(floats[b]),
                FMin => floats[d] = floats[a].min(floats[b]),
                FMax => floats[d] = floats[a].max(floats[b]),
                FEq => ints[d] = (floats[a] == floats[b]) as i64,
                FNe => ints[d] = (floats[a] != floats[b]) as i64,
                FLt => ints[d] = (floats[a] < floats[b]) as i64,
                FLe => ints[d] = (floats[a] <= floats[b]) as i64,
                FRound32 => floats[d] = floats[a] as f32 as f64,
                FRound16 => floats[d] = round_f16(floats[a]),
                FUnary => floats[d] = UNARY[b](floats[a]),
                FPow => floats[d] = floats[a].powf(floats[b]),
                FSelect => floats[d] = if ints[a] != 0 { floats[b] } else { floats[c] },
                IToF => floats[d] = ints[a] as f64,
                FToITrunc => ints[d] = floats[a] as i64,
                FToIFloor => ints[d] = floats[a].floor() as i64,
                LoadF32 => {
                    let slot = &self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[c]))?;
                    let Data::F32(v) = &slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    floats[d] = v[i] as f64;
                }
                LoadF64 => {
                    let slot = &self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[c]))?;
                    let Data::F64(v) = &slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    floats[d] = v[i];
                }
                LoadI64 => {
                    let slot = &self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[c]))?;
                    let Data::I64(v) = &slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    ints[d] = v[i];
                }
                StoreF32 | StoreF16 => {
                    self.stores += 1;
                    let slot = &mut self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[d]))?;
                    let Data::F32(v) = &mut slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    v[i] = if code == StoreF32 {
                        floats[c] as f32
                    } else {
                        round_f16(floats[c]) as f32
                    };
                }
                StoreF64 => {
                    self.stores += 1;
                    let slot = &mut self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[d]))?;
                    let bits = slot.buf.dtype.bits;
                    let Data::F64(v) = &mut slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    v[i] = match bits {
                        16 => round_f16(floats[c]),
                        32 => floats[c] as f32 as f64,
                        _ => floats[c],
                    };
                }
                StoreI64 => {
                    self.stores += 1;
                    let slot = &mut self.mem.slots[a];
                    let i = slot.at(ints[b].wrapping_add(ints[d]))?;
                    let dtype = slot.buf.dtype;
                    let Data::I64(v) = &mut slot.buf.data else {
                        return Err(wrong_storage(slot));
                    };
                    v[i] = if dtype.bits >= 64 {
                        ints[c]
                    } else {
                        let signed = (dtype.code == TypeCode::Int) as u16;
                        wrap_int(ints[c], dtype.bits as u16 | signed << 8)
                    };
                }
                Alloc => {
                    let n = ints[b].max(0) as usize;
                    let slot = &mut self.mem.slots[a];
                    slot.buf.data.zero(n);
                    (slot.base, slot.len) = (0, n);
                }
                Jump => pc += a,
                JumpIfZero => {
                    if ints[a] == 0 {
                        pc += b;
                    }
                }
                JumpIfNonZero => {
                    if ints[a] != 0 {
                        pc += b;
                    }
                }
                LoopGuard => {
                    if ints[a] >= ints[b] {
                        pc += c;
                    }
                }
                LoopNext => {
                    ints[a] += 1;
                    if ints[a] < ints[b] {
                        pc -= c;
                    }
                }
                Raise => return Err(program.errors[a].clone()),
                HwCall => self.hw_call(&program.hw_calls[a], ints, floats)?,
                Nest => {
                    let nest = &program.nests[a];
                    self.run_nest(nest, pc, ints, floats)?;
                    pc += nest.len as usize;
                }
                Yield => return Ok(Stop::Yield(pc)),
                Barrier => return Ok(Stop::Barrier(pc)),
            }
        }
        Ok(Stop::End)
    }

    fn hw_call(&mut self, call: &HwCall, ints: &mut [i64], floats: &mut [f64]) -> Result<()> {
        let mut args = Vec::with_capacity(call.args.len());
        for arg in &call.args {
            args.push(match *arg {
                HwArg::Int(r) => Value::Int(ints[r as usize]),
                HwArg::Float(r) => Value::Float(floats[r as usize]),
                HwArg::Handle(id, slot) => {
                    self.mem.alias(id, slot as usize);
                    Value::Handle(id)
                }
            });
        }
        let handler = self
            .hw
            .get_mut(&call.name)
            .ok_or_else(|| InterpError::UnknownIntrinsic(call.name.clone()))?;
        let value = handler(&args, self.mem)?;
        match call.ret {
            Some((Kind::Int, r)) => ints[r as usize] = value.as_int()?,
            Some((Kind::Float, r)) => floats[r as usize] = value.as_float()?,
            None => {}
        }
        Ok(())
    }

    /// Runs the lanes of `nest`, whose code starts at `start`, in turns
    /// from barrier to barrier, on one register window: each lane holds
    /// its kept registers, copied into the window when its turn starts and
    /// back out when it stops at a barrier. A reduce nest a lane yields
    /// runs on the window, within its turn.
    fn run_nest(&mut self, nest: &Nest, start: usize, ints: &[i64], floats: &[f64]) -> Result<()> {
        let mut lanes = 1usize;
        for &(_, _, n) in &nest.axes {
            let n = ints[n as usize].max(0) as usize;
            lanes = lanes.checked_mul(n).ok_or_else(too_many_lanes)?;
        }
        if lanes == 0 {
            return Ok(());
        }
        let (keep_ints, keep_floats) = (&nest.keep_ints[..], &nest.keep_floats[..]);
        let (ki, kf) = (keep_ints.len(), keep_floats.len());
        // What every lane holds, at most 8 bytes an element: its kept
        // registers, its `pc` and its allocations. Checked before anything
        // is allocated, so that each product below is in range.
        let per_lane = nest
            .lane_slots
            .iter()
            .try_fold((ki + kf + 1) * 8, |bytes, &(_, n)| {
                bytes.checked_add(n.checked_mul(8)?)
            });
        let bytes = per_lane.and_then(|b| b.checked_mul(lanes));
        if bytes.is_none_or(|b| b > isize::MAX as usize) {
            return Err(too_many_lanes());
        }
        let mut wi = vec![0i64; nest.ints as usize];
        let mut wf = vec![0f64; nest.floats as usize];
        for &(outer, inner) in &nest.import_ints {
            wi[inner as usize] = ints[outer as usize];
        }
        for &(outer, inner) in &nest.import_floats {
            wf[inner as usize] = floats[outer as usize];
        }
        let mut row_ints = Vec::with_capacity(lanes * ki);
        let mut row_floats = Vec::with_capacity(lanes * kf);
        for lane in 0..lanes {
            // Row-major: the last axis varies fastest.
            let mut rest = lane;
            for &(var, lo, n) in nest.axes.iter().rev() {
                let n = ints[n as usize] as usize;
                wi[var as usize] = ints[lo as usize].wrapping_add((rest % n) as i64);
                rest /= n;
            }
            row_ints.extend(keep_ints.iter().map(|&r| wi[r as usize]));
            row_floats.extend(keep_floats.iter().map(|&r| wf[r as usize]));
        }
        for &(slot, extent) in &nest.lane_slots {
            let slot = &mut self.mem.slots[slot as usize];
            slot.buf.data.zero(lanes * extent);
            slot.len = extent;
        }
        let end = start + nest.len as usize;
        let mut pcs = vec![start; lanes];
        loop {
            let mut waiting = 0;
            for (lane, pc) in pcs.iter_mut().enumerate() {
                if *pc == end {
                    continue;
                }
                for &(slot, extent) in &nest.lane_slots {
                    self.mem.slots[slot as usize].base = lane * extent;
                }
                let ri = &mut row_ints[lane * ki..(lane + 1) * ki];
                let rf = &mut row_floats[lane * kf..(lane + 1) * kf];
                for (&r, &v) in keep_ints.iter().zip(&*ri) {
                    wi[r as usize] = v;
                }
                for (&r, &v) in keep_floats.iter().zip(&*rf) {
                    wf[r as usize] = v;
                }
                loop {
                    match self.run(*pc, end, &mut wi, &mut wf)? {
                        Stop::Yield(next) => {
                            let a = self.program.ops[next - 1].a as usize;
                            let Some(r) = self.program.handoffs.get(a) else {
                                return Err(malformed("a nest yields no reduce nest"));
                            };
                            *pc = self.run_reduce(r, next, &mut wi)?;
                        }
                        Stop::Barrier(next) => {
                            *pc = next;
                            waiting += 1;
                            for (&r, v) in keep_ints.iter().zip(ri) {
                                *v = wi[r as usize];
                            }
                            for (&r, v) in keep_floats.iter().zip(rf) {
                                *v = wf[r as usize];
                            }
                            break;
                        }
                        Stop::End => {
                            *pc = end;
                            break;
                        }
                    }
                }
            }
            if waiting == 0 {
                return Ok(());
            }
            if waiting != lanes {
                return Err(InterpError::Malformed(
                    "barrier count diverges across threads".into(),
                ));
            }
        }
    }
}

#[cold]
fn too_many_lanes() -> InterpError {
    InterpError::Unsupported("a thread nest whose lanes do not fit in memory".into())
}
