//! Edge-case tests for the interpreter: error reporting, type quantization
//! on stores, predicated access, hardware intrinsics and GPU phasing corner
//! cases. Every program runs through [`run_both`]: the flat engine
//! (`Interp`) and the reference walker must agree on every buffer bit, on
//! the store count, and on the fault, its fields and what was stored before
//! it.

use std::collections::HashMap;

use tvm_ir::interp::Data;
use tvm_ir::{
    Buffer, DType, Expr, ExprNode, ForKind, Interp, InterpError, LoweredFunc, MemScope, MemState,
    Program, Stmt, StmtNode, Storage, ThreadTag, Value, Var,
};
use tvm_verify::reference::{eval_int, Engine};
use tvm_verify::{f32_buffers, run_both, Agreed};

fn func(params: Vec<Var>, dtypes: Vec<DType>, extents: Vec<usize>, body: Stmt) -> LoweredFunc {
    LoweredFunc {
        name: "t".into(),
        params,
        param_dtypes: dtypes,
        param_extents: extents,
        body,
    }
}

/// What both engines agree running `f` on `bufs` does, `setup` preparing
/// each; panics where they differ.
fn agreed(f: &LoweredFunc, bufs: Vec<Buffer>, setup: impl Fn(&mut dyn Engine)) -> Agreed {
    run_both(f, bufs, setup).unwrap_or_else(|diff| panic!("{diff}\n{}", f.body))
}

/// The buffers both engines leave, or the fault both raise.
fn both(f: &LoweredFunc, bufs: Vec<Buffer>) -> Result<Vec<Buffer>, InterpError> {
    let run = agreed(f, bufs, |_| {});
    run.result.map(|()| run.buffers)
}

/// `both` on float32 arrays, held as `f64` (`Buffer::from_f32`).
fn both_f32(f: &LoweredFunc, arrays: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, InterpError> {
    let bufs = arrays.iter().map(|a| Buffer::from_f32(a)).collect();
    both(f, bufs).map(|out| out.iter().map(Buffer::to_f32).collect())
}

fn f32_func(params: Vec<Var>, extents: Vec<usize>, body: Stmt) -> LoweredFunc {
    let n = params.len();
    func(params, vec![DType::float32(); n], extents, body)
}

fn threads(var: &Var, n: i64, body: Stmt) -> Stmt {
    Stmt::loop_(
        var,
        0,
        n,
        ForKind::ThreadBinding(ThreadTag::ThreadIdxX),
        body,
    )
}

fn barrier() -> Stmt {
    Stmt::new(StmtNode::Barrier)
}

#[test]
fn unbound_variable_is_reported_by_name() {
    let out = Var::new("O", DType::float32());
    let ghost = Var::int("ghost");
    let body = Stmt::store(&out, ghost.to_expr(), Expr::f32(1.0));
    let err = both_f32(&f32_func(vec![out], vec![4], body), &[vec![0.0; 4]]).unwrap_err();
    match err {
        InterpError::UnboundVar(n) => assert_eq!(n, "ghost"),
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn division_by_zero_is_an_error_not_a_crash() {
    let out = Var::new("O", DType::int32());
    let body = Stmt::store(&out, Expr::int(0), Expr::int(1) / Expr::int(0));
    let bufs = vec![Buffer::zeros(DType::int32(), 1)];
    let err = both(&func(vec![out], vec![DType::int32()], vec![1], body), bufs).unwrap_err();
    assert!(matches!(err, InterpError::DivideByZero));
}

#[test]
fn division_by_a_zero_that_is_never_reached_does_not_fault() {
    // The divisor is zero only in iterations the guard skips: the flat
    // engine must not hoist the division out of the conditional.
    let out = Var::new("O", DType::int32());
    let i = Var::int("i");
    let guarded = Stmt::if_then(
        i.to_expr().gt(Expr::int(0)),
        Stmt::store(&out, i.to_expr(), Expr::int(12) / i.to_expr()),
    );
    let body = Stmt::for_(&i, 0, 4, guarded);
    let bufs = vec![Buffer::zeros(DType::int32(), 4)];
    let got = both(&func(vec![out], vec![DType::int32()], vec![4], body), bufs).expect("runs");
    assert_eq!(got[0].to_i64(), vec![0, 12, 6, 4]);
}

#[test]
fn out_of_bounds_names_buffer_index_and_extent() {
    let a = Var::new("A", DType::float32());
    let o = Var::new("O", DType::float32());
    let i = Var::int("i");
    // The load walks off `A` at i = 4; three stores have happened by then.
    let body = Stmt::for_(
        &i,
        0,
        6,
        Stmt::store(&o, i.to_expr(), Expr::load(&a, i.clone() + 1)),
    );
    let err = both_f32(
        &f32_func(vec![a, o], vec![4, 6], body),
        &[vec![1.0; 4], vec![0.0; 6]],
    )
    .unwrap_err();
    match err {
        InterpError::OutOfBounds {
            buffer,
            index,
            extent,
        } => assert_eq!((buffer.as_str(), index, extent), ("A", 4, 4)),
        other => panic!("unexpected {other}"),
    }
    // A negative store index, through the integer path.
    let o = Var::new("O", DType::int8());
    let body = Stmt::store(&o, Expr::int(-1), Expr::int(1));
    let bufs = vec![Buffer::zeros(DType::int8(), 2)];
    let err = both(&func(vec![o], vec![DType::int8()], vec![2], body), bufs).unwrap_err();
    assert!(matches!(err, InterpError::OutOfBounds { index: -1, .. }));
}

#[test]
fn predicated_store_skips_when_false() {
    let out = Var::new("O", DType::float32());
    let i = Var::int("i");
    let pred_store = Stmt::new(StmtNode::Store {
        buffer: out.clone(),
        index: i.to_expr(),
        value: Expr::f32(7.0),
        predicate: Some(i.to_expr().lt(Expr::int(2))),
    });
    let body = Stmt::for_(&i, 0, 4, pred_store);
    let got = both_f32(&f32_func(vec![out], vec![4], body), &[vec![0.0; 4]]).expect("runs");
    assert_eq!(got[0], vec![7.0, 7.0, 0.0, 0.0]);
}

#[test]
fn predicated_load_reads_only_when_true() {
    // `A[i] if i < 3 else 0`, with i running past the end of `A`: the
    // predicate keeps the out-of-bounds element from being read.
    let a = Var::new("A", DType::float32());
    let out = Var::new("O", DType::float32());
    let i = Var::int("i");
    let load = Expr::new(ExprNode::Load {
        buffer: a.clone(),
        index: i.to_expr(),
        predicate: Some(i.to_expr().lt(Expr::int(3))),
    });
    let body = Stmt::for_(
        &i,
        0,
        5,
        Stmt::store(&out, i.to_expr(), load + Expr::f32(1.0)),
    );
    let got = both_f32(
        &f32_func(vec![a, out], vec![3, 5], body),
        &[vec![10.0, 20.0, 30.0], vec![0.0; 5]],
    )
    .expect("runs");
    assert_eq!(got[1], vec![11.0, 21.0, 31.0, 1.0, 1.0]);
}

#[test]
fn stores_quantize_to_buffer_dtype() {
    // Store 3.9 into an int8 buffer -> truncates through the int path; and
    // 200 wraps to -56.
    let out = Var::new("O", DType::int8());
    let body = Stmt::seq(vec![
        Stmt::store(&out, Expr::int(0), Expr::f32(3.9).cast(DType::int8())),
        Stmt::store(&out, Expr::int(1), Expr::int(200)),
    ]);
    let bufs = vec![Buffer::zeros(DType::int8(), 2)];
    let out_bufs = both(&func(vec![out], vec![DType::int8()], vec![2], body), bufs).expect("runs");
    assert_eq!(out_bufs[0].to_i64(), vec![3, -56]);
}

#[test]
fn uint2_stores_wrap_in_params_and_allocations() {
    // 0..8 stored into a uint2 scratch allocation and copied out: both the
    // allocation and the parameter keep the low two bits.
    let out = Var::new("O", DType::uint(2));
    let tmp = Var::new("T", DType::uint(2));
    let i = Var::int("i");
    let fill = Stmt::for_(&i, 0, 8, Stmt::store(&tmp, i.to_expr(), i.clone() - 2));
    let copy = Stmt::for_(
        &i,
        0,
        8,
        Stmt::store(&out, i.to_expr(), Expr::load(&tmp, i.to_expr()) + 5),
    );
    let body = Stmt::allocate(
        &tmp,
        DType::uint(2),
        8,
        MemScope::Global,
        Stmt::seq(vec![fill, copy]),
    );
    let bufs = vec![Buffer::zeros(DType::uint(2), 8)];
    let got = both(&func(vec![out], vec![DType::uint(2)], vec![8], body), bufs).expect("runs");
    // tmp = (i - 2) mod 4 = 2 3 0 1 ..., out = (tmp + 5) mod 4.
    assert_eq!(got[0].to_i64(), vec![3, 0, 1, 2, 3, 0, 1, 2]);
}

#[test]
fn popcount_counts_within_its_operands_width() {
    // -1 at int8, int32 and int64, a uint32 word with bit 31 set, and that
    // word stored into an int32 allocation, where it becomes i32::MIN and
    // is held sign-extended.
    let inputs = [
        (DType::int8(), -1),
        (DType::int32(), -1),
        (DType::int64(), -1),
        (DType::uint(32), 1 << 31),
    ];
    let vars: Vec<Var> = inputs
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| Var::new(format!("I{i}"), t))
        .collect();
    let out = Var::new("O", DType::int64());
    let word = Var::new("W", DType::int32());
    let popcount = |v: &Var| {
        Expr::call(
            "popcount",
            vec![Expr::load(v, Expr::int(0))],
            DType::int32(),
        )
    };
    let mut stores: Vec<Stmt> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| Stmt::store(&out, Expr::int(i as i64), popcount(v)))
        .collect();
    stores.push(Stmt::store(&word, Expr::int(0), Expr::int(1 << 31)));
    stores.push(Stmt::store(&out, Expr::int(4), popcount(&word)));
    let body = Stmt::allocate(
        &word,
        DType::int32(),
        1,
        MemScope::Global,
        Stmt::seq(stores),
    );
    let mut params = vars;
    params.push(out);
    let mut dtypes: Vec<DType> = inputs.iter().map(|&(t, _)| t).collect();
    dtypes.push(DType::int64());
    let mut bufs: Vec<Buffer> = inputs
        .iter()
        .map(|&(t, x)| Buffer::from_i64(t, &[x]))
        .collect();
    bufs.push(Buffer::zeros(DType::int64(), 5));
    let got = both(&func(params, dtypes, vec![1, 1, 1, 1, 5], body), bufs).expect("runs");
    assert_eq!(got[4].to_i64(), vec![8, 32, 64, 1, 1]);
}

#[test]
fn f16_buffer_rounds_on_store() {
    let out = Var::new("O", DType::float16());
    let tmp = Var::new("T", DType::float16());
    // Through an f16 allocation (f32 storage in the flat engine, f64 in
    // the walker) and into an f16 parameter.
    let body = Stmt::allocate(
        &tmp,
        DType::float16(),
        1,
        MemScope::Global,
        Stmt::seq(vec![
            Stmt::store(&tmp, Expr::int(0), Expr::f32(1.0 / 3.0)),
            Stmt::store(&out, Expr::int(0), Expr::load(&tmp, Expr::int(0))),
            Stmt::store(&out, Expr::int(1), Expr::f32(1.0e9)),
        ]),
    );
    let bufs = vec![Buffer::zeros(DType::float16(), 2)];
    let got = both(
        &func(vec![out], vec![DType::float16()], vec![2], body),
        bufs,
    )
    .expect("runs")[0]
        .to_f32();
    assert_ne!(got[0], 1.0f32 / 3.0);
    assert!((got[0] - 1.0 / 3.0).abs() < 1e-3);
    assert!(got[1].is_infinite());
}

#[test]
fn param_count_mismatch_is_malformed() {
    let out = Var::new("O", DType::float32());
    let f = f32_func(vec![out], vec![1], Stmt::nop());
    let err = both(&f, vec![]).unwrap_err();
    assert!(matches!(err, InterpError::Malformed(_)));
}

#[test]
fn vector_values_are_unsupported() {
    let out = Var::new("O", DType::float32());
    let ramp = Expr::new(ExprNode::Ramp {
        base: Expr::int(0),
        stride: Expr::int(1),
        lanes: 4,
    });
    let body = Stmt::store(&out, ramp, Expr::f32(1.0));
    let err = both_f32(&f32_func(vec![out], vec![4], body), &[vec![0.0; 4]]).unwrap_err();
    assert!(matches!(err, InterpError::Unsupported(_)), "{err}");
}

#[test]
fn divergent_barrier_counts_are_rejected() {
    // A barrier inside only one branch of a data-dependent if within a
    // thread nest is undefined behavior on real GPUs; the interpreter
    // reports it instead of hanging.
    let out = Var::new("O", DType::float32());
    let t = Var::int("t");
    let body = Stmt::new(StmtNode::IfThenElse {
        cond: t.to_expr().lt(Expr::int(1)),
        then_case: barrier(),
        else_case: Some(Stmt::store(&out, Expr::int(0), Expr::f32(1.0))),
    });
    // Make the nest contain at least one barrier so phasing engages.
    let with_sync = Stmt::seq(vec![barrier(), body]);
    let nest = threads(&t, 2, with_sync);
    let err = both_f32(&f32_func(vec![out], vec![1], nest), &[vec![0.0]]).unwrap_err();
    assert!(matches!(err, InterpError::Malformed(_)), "{err}");
}

#[test]
fn shared_staging_is_read_by_a_sibling_thread_after_the_barrier() {
    // Each thread t writes S[t], barrier, then reads S[(t+1) % N], twice
    // over (a serial loop around the two regions, barrier at both edges).
    let n = 4i64;
    let s = Var::new("S", DType::float32());
    let out = Var::new("O", DType::float32());
    let (t, k) = (Var::int("t"), Var::int("k"));
    let write = Stmt::store(
        &s,
        t.to_expr(),
        (t.clone() * 10 + k.clone()).cast(DType::float32()),
    );
    let read = Stmt::store(
        &out,
        k.clone() * n + t.clone(),
        Expr::load(&s, (t.clone() + 1) % n),
    );
    let rounds = Stmt::for_(&k, 0, 2, Stmt::seq(vec![write, barrier(), read, barrier()]));
    let kernel = Stmt::allocate(
        &s,
        DType::float32(),
        n,
        MemScope::Shared,
        threads(&t, n, rounds),
    );
    let got = both_f32(&f32_func(vec![out], vec![8], kernel), &[vec![0.0; 8]]).expect("runs");
    assert_eq!(got[0], vec![10.0, 20.0, 30.0, 0.0, 11.0, 21.0, 31.0, 1.0]);
}

#[test]
fn local_accumulator_persists_across_a_barriered_loop() {
    // acc[0] += k across a barriered k-loop, in a 2x3 nest: correct only
    // if each thread's allocation and registers survive its barriers.
    let acc = Var::new("acc", DType::float32());
    let out = Var::new("O", DType::float32());
    let (ty, tx, k) = (Var::int("ty"), Var::int("tx"), Var::int("k"));
    let init = Stmt::store(
        &acc,
        Expr::int(0),
        (ty.clone() * 3 + tx.clone()).cast(DType::float32()),
    );
    let update = Stmt::store(
        &acc,
        Expr::int(0),
        Expr::load(&acc, Expr::int(0)) + k.to_expr().cast(DType::float32()),
    );
    let kloop = Stmt::for_(&k, 0, 4, Stmt::seq(vec![barrier(), update]));
    let writeback = Stmt::store(
        &out,
        ty.clone() * 3 + tx.clone(),
        Expr::load(&acc, Expr::int(0)),
    );
    let body = Stmt::allocate(
        &acc,
        DType::float32(),
        1,
        MemScope::Local,
        Stmt::seq(vec![init, kloop, writeback]),
    );
    let nest = Stmt::loop_(
        &ty,
        0,
        2,
        ForKind::ThreadBinding(ThreadTag::ThreadIdxY),
        threads(&tx, 3, body),
    );
    let got = both_f32(&f32_func(vec![out], vec![6], nest), &[vec![0.0; 6]]).expect("runs");
    assert_eq!(got[0], vec![6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
}

#[test]
fn let_bound_before_a_barrier_keeps_its_value_in_the_flat_engine() {
    // let x = S[0]; barrier; thread 0 overwrites S[0]; O[t] = x.
    // Every thread reads S[0] before the barrier and the write comes after
    // it, so under §4.2's contract the program is race-free and both
    // threads store the old value: the flat engine's answer. The walker
    // re-executes the whole body once per phase and so re-evaluates the
    // `let` in the later phase, against memory that phase has already
    // changed: thread 1 sees thread 0's new S[0]. This is the one place the
    // two engines are pinned apart, each to its own answer.
    let s = Var::new("S", DType::float32());
    let out = Var::new("O", DType::float32());
    let (t, x) = (Var::int("t"), Var::new("x", DType::float32()));
    let overwrite = Stmt::if_then(
        t.to_expr().eq(Expr::int(0)),
        Stmt::store(&s, Expr::int(0), Expr::f32(9.0)),
    );
    let body = Stmt::new(StmtNode::LetStmt {
        var: x.clone(),
        value: Expr::load(&s, Expr::int(0)),
        body: Stmt::seq(vec![
            barrier(),
            overwrite,
            Stmt::store(&out, t.to_expr(), x.to_expr()),
        ]),
    });
    let f = f32_func(vec![s, out], vec![1, 2], threads(&t, 2, body));
    let mut flat = vec![vec![5.0f32], vec![0.0; 2]];
    Interp::new().run_f32(&f, &mut flat).expect("runs");
    assert_eq!(flat[1], vec![5.0, 5.0]);
    let diff = run_both(&f, f32_buffers(vec![vec![5.0], vec![0.0; 2]]), |_| {}).unwrap_err();
    assert_eq!(diff, "param 1[1]: flat Float(5.0), walker Float(9.0)");
}

#[test]
fn a_thread_count_past_usize_is_unsupported_and_allocates_nothing() {
    // Two axes of 2^32 threads each: their product does not fit a `usize`,
    // so the flat engine refuses the nest before it sets up any lane. The
    // walker would run the 2^64 threads one by one, so it is not asked.
    let out = Var::new("O", DType::float32());
    let (ty, tx) = (Var::int("ty"), Var::int("tx"));
    let body = Stmt::seq(vec![
        Stmt::store(&out, Expr::int(0), Expr::f32(1.0)),
        barrier(),
    ]);
    let axis =
        |var: &Var, tag, body| Stmt::loop_(var, 0, 1i64 << 32, ForKind::ThreadBinding(tag), body);
    let nest = axis(
        &ty,
        ThreadTag::ThreadIdxY,
        axis(&tx, ThreadTag::ThreadIdxX, body),
    );
    let f = f32_func(vec![out], vec![1], nest);
    let mut arrays = vec![vec![0.0f32]];
    let err = Interp::new().run_f32(&f, &mut arrays).unwrap_err();
    assert!(matches!(err, InterpError::Unsupported(_)), "{err}");
    assert_eq!(arrays[0], vec![0.0]);
}

#[test]
fn hardware_intrinsic_writes_through_a_handle() {
    // fill(T, base, n, v) on a scratch allocation inside a loop, then a
    // copy out: the handler addresses the allocation by its variable.
    let out = Var::new("O", DType::float32());
    let tmp = Var::new("T", DType::float32());
    let (i, j) = (Var::int("i"), Var::int("j"));
    let call = Expr::hw_call(
        "fill",
        vec![
            tmp.to_expr(),
            Expr::int(1),
            Expr::int(2),
            (i.clone() + 1).cast(DType::float32()),
        ],
        DType::int32(),
    );
    let copy = Stmt::for_(
        &j,
        0,
        3,
        Stmt::store(
            &out,
            i.clone() * 3 + j.clone(),
            Expr::load(&tmp, j.to_expr()),
        ),
    );
    let body = Stmt::for_(
        &i,
        0,
        2,
        Stmt::allocate(
            &tmp,
            DType::float32(),
            3,
            MemScope::Global,
            Stmt::seq(vec![Stmt::evaluate(call), copy]),
        ),
    );
    let setup = |it: &mut dyn Engine| {
        it.register_hw(
            "fill",
            Box::new(|args: &[Value], mem: &mut MemState| {
                let Value::Handle(id) = args[0] else {
                    return Err(InterpError::Unsupported("bad handle".into()));
                };
                let (base, n) = (args[1].as_int()?, args[2].as_int()?);
                for k in base..base + n {
                    let seen = mem.load(id, k)?.as_float()?;
                    mem.store(id, k, Value::Float(seen + args[3].as_float()?))?;
                }
                Ok(Value::Int(0))
            }),
        );
    };
    let f = f32_func(vec![out], vec![6], body);
    let run = agreed(&f, vec![Buffer::from_f32(&[0.0; 6])], setup);
    run.result.expect("runs");
    let got = run.buffers[0].to_f32();
    assert_eq!(got, vec![0.0, 1.0, 1.0, 0.0, 2.0, 2.0]);
    // Without the handler both engines name the intrinsic.
    let err = both(&f, vec![Buffer::from_f32(&[0.0; 6])]).unwrap_err();
    assert!(matches!(err, InterpError::UnknownIntrinsic(n) if n == "fill"));
}

#[test]
fn scalar_bindings_reach_expressions_and_programs() {
    let x = Var::int("x");
    let v = eval_int(&(x.clone() * 2), &[(x.clone(), 21)]).expect("evaluates");
    assert_eq!(v, 42);
    // ... and a run sees the binding as a constant.
    let out = Var::new("O", DType::float32());
    let body = Stmt::store(&out, Expr::int(0), (x.clone() * 2).cast(DType::float32()));
    let f = f32_func(vec![out], vec![1], body);
    let bind = |it: &mut dyn Engine| it.bind_scalar(&x, Value::Int(21));
    let run = agreed(&f, vec![Buffer::from_f32(&[0.0])], bind);
    run.result.expect("runs");
    assert_eq!(run.buffers[0].to_f32(), vec![42.0]);
}

#[test]
fn store_count_tracks_dynamic_work() {
    let out = Var::new("O", DType::float32());
    let i = Var::int("i");
    let body = Stmt::for_(&i, 0, 10, Stmt::store(&out, i.to_expr(), Expr::f32(1.0)));
    let mut it = Interp::new();
    it.run_f32(&f32_func(vec![out], vec![10], body), &mut [vec![0.0; 10]])
        .expect("runs");
    assert_eq!(it.store_count(), 10);
}

#[test]
fn vthread_loops_execute_serially_outside_dae() {
    let out = Var::new("O", DType::float32());
    let v = Var::int("vt");
    let body = Stmt::loop_(
        &v,
        0,
        3,
        ForKind::VThread,
        Stmt::store(&out, v.to_expr(), (v.clone() + 1).cast(DType::float32())),
    );
    let got = both_f32(&f32_func(vec![out], vec![3], body), &[vec![0.0; 3]]).expect("runs");
    assert_eq!(got[0], vec![1.0, 2.0, 3.0]);
}

#[test]
fn run_f32_reads_and_writes_the_arrays_in_place() {
    // The same program through `run_f32`: the arrays come back updated,
    // bit for bit what `run` on widened buffers returns.
    let a = Var::new("A", DType::float32());
    let out = Var::new("O", DType::float32());
    let i = Var::int("i");
    let body = Stmt::for_(
        &i,
        0,
        4,
        Stmt::store(
            &out,
            i.to_expr(),
            Expr::load(&a, i.to_expr()) * Expr::f32(1.1) + Expr::f32(0.3),
        ),
    );
    let f = f32_func(vec![a, out], vec![4, 4], body);
    let input = vec![vec![0.1f32, 0.7, -3.3, 1e-3], vec![0.0; 4]];
    let want = both_f32(&f, &input).expect("runs");
    let mut arrays = input;
    Interp::new().run_f32(&f, &mut arrays).expect("runs");
    assert_eq!(arrays, want);
}

// ---------------------------------------------------------------------------
// Vectorized loops. The flat engine compiles a `vectorized` loop that no
// reduce nest takes as it compiles a `serial` one, and runs its iterations
// one at a time; each case pins that the loop runs as scalar code and that
// both engines still agree on its buffers, stores and faults.
// ---------------------------------------------------------------------------

/// `f` compiled for parameters held as `bufs` are.
fn program(f: &LoweredFunc, bufs: &[Buffer]) -> Program {
    let params: Vec<(Storage, DType)> = bufs
        .iter()
        .map(|b| {
            let storage = match b.data {
                Data::F32(_) => Storage::F32,
                Data::F64(_) => Storage::F64,
                Data::I64(_) => Storage::I64,
            };
            (storage, b.dtype)
        })
        .collect();
    Program::compile(f, &params, &HashMap::new())
}

/// Loops of `f` compiled to reduce nests, for parameters held as `bufs`
/// are.
fn reduce_loops(f: &LoweredFunc, bufs: &[Buffer]) -> usize {
    program(f, bufs).reduce_loops()
}

fn vectorized(var: &Var, n: i64, body: Stmt) -> Stmt {
    Stmt::loop_(var, 0, n, ForKind::Vectorized, body)
}

/// Stores the flat engine makes running `f` on `arrays`.
fn stores_f32(f: &LoweredFunc, arrays: &[Vec<f32>]) -> u64 {
    let mut it = Interp::new();
    let _ = it.run_f32(f, &mut arrays.to_vec());
    it.store_count()
}

/// Runs `f`, which must fault, in both engines on float32 `arrays` held
/// as `f32`; returns the fault, the stores made before it and the contents
/// it left, which both engines agree on.
fn held_fault(f: &LoweredFunc, arrays: &[Vec<f32>]) -> (InterpError, u64, Vec<Vec<f32>>) {
    let run = agreed(f, f32_buffers(arrays.to_vec()), |_| {});
    let err = run.result.expect_err("faults");
    (
        err,
        run.stores,
        run.buffers.iter().map(Buffer::to_f32).collect(),
    )
}

#[test]
fn a_padded_row_guarded_at_both_edges_runs_as_scalar_code() {
    // O[i] = max(O[i], A[i + k - 1] if 0 <= i + k - 1 < 8 else 0): a padded
    // max-pool row, whose guard fails at the left edge for k = 0 and at the
    // right edge for k = 2. An iteration the guard excludes neither loads
    // nor bounds-checks.
    let (a, o) = (
        Var::new("A", DType::float32()),
        Var::new("O", DType::float32()),
    );
    let (k, i) = (Var::int("k"), Var::int("i"));
    let x = i.clone() + k.clone() - 1;
    let inside = x.clone().ge(Expr::int(0)).and(x.clone().lt(Expr::int(8)));
    let padded = Expr::select(inside, Expr::load(&a, x), Expr::f32(0.0));
    let pool = Stmt::store(&o, i.to_expr(), Expr::load(&o, i.to_expr()).max(padded));
    let f = f32_func(
        vec![a, o],
        vec![8, 8],
        Stmt::for_(&k, 0, 3, vectorized(&i, 8, pool)),
    );
    assert_eq!(reduce_loops_f32(&f), 0);
    let data: Vec<f32> = (0..8).map(|v| v as f32 * 0.37 - 1.1).collect();
    let got = both_f32(&f, &[data.clone(), vec![-9.0; 8]]).expect("runs");
    let want: Vec<f32> = (0..8)
        .map(|i: usize| {
            let near = data[i.saturating_sub(1)..(i + 2).min(8)].iter();
            let edge = if i == 0 || i == 7 { 0.0 } else { -9.0 };
            near.fold(edge, |m: f32, &v| m.max(v))
        })
        .collect();
    assert_eq!(got[1], want);
}

#[test]
fn out_of_bounds_read_at_lane_five_stores_lanes_zero_to_four() {
    let (a, o, i) = (
        Var::new("A", DType::float32()),
        Var::new("O", DType::float32()),
        Var::int("i"),
    );
    let body = vectorized(
        &i,
        8,
        Stmt::store(
            &o,
            i.to_expr(),
            Expr::load(&a, i.to_expr()) * Expr::f32(2.0),
        ),
    );
    let f = f32_func(vec![a, o], vec![5, 8], body);
    assert_eq!(reduce_loops_f32(&f), 0);
    let (err, stores, left) = held_fault(&f, &[vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![0.0; 8]]);
    match err {
        InterpError::OutOfBounds {
            buffer,
            index,
            extent,
        } => assert_eq!((buffer.as_str(), index, extent), ("A", 5, 5)),
        other => panic!("unexpected {other}"),
    }
    assert_eq!(stores, 5);
    assert_eq!(left[1], vec![2.0, 4.0, 6.0, 8.0, 10.0, 0.0, 0.0, 0.0]);
}

#[test]
fn masked_tail_store_writes_only_the_lanes_in_range() {
    // The softmax shape: 16 iterations, 2 × 8, over a 10-element output,
    // as an `if` around the store and as a predicated store.
    let (a, o) = (
        Var::new("A", DType::float32()),
        Var::new("O", DType::float32()),
    );
    let (fo, fi) = (Var::int("f.o"), Var::int("f.i"));
    let x = fo.clone() * 8 + fi.clone();
    let value = Expr::load(&a, x.clone()) * Expr::f32(0.5);
    let in_range = x.clone().lt(Expr::int(10));
    let guarded = Stmt::if_then(in_range.clone(), Stmt::store(&o, x.clone(), value.clone()));
    let predicated = Stmt::new(StmtNode::Store {
        buffer: o.clone(),
        index: x,
        value,
        predicate: Some(in_range),
    });
    let input: Vec<f32> = (0..10).map(|v| v as f32 - 4.5).collect();
    for store in [guarded, predicated] {
        let body = Stmt::for_(&fo, 0, 2, vectorized(&fi, 8, store));
        let f = f32_func(vec![a.clone(), o.clone()], vec![10, 10], body);
        assert_eq!(reduce_loops_f32(&f), 0);
        let arrays = [input.clone(), vec![0.0; 10]];
        let got = both_f32(&f, &arrays).expect("runs");
        assert_eq!(got[1], input.iter().map(|v| v * 0.5).collect::<Vec<_>>());
        assert_eq!(stores_f32(&f, &arrays), 10);
    }
}

#[test]
fn a_store_that_feeds_the_next_lane_falls_back_to_scalar_code() {
    // a[i + 1] = a[i] + 1: each iteration reads what the one before wrote,
    // so the iterations must run in order.
    let (a, i) = (Var::new("A", DType::float32()), Var::int("i"));
    let body = vectorized(
        &i,
        7,
        Stmt::store(
            &a,
            i.clone() + 1,
            Expr::load(&a, i.to_expr()) + Expr::f32(1.0),
        ),
    );
    let f = f32_func(vec![a], vec![8], body);
    assert_eq!(reduce_loops_f32(&f), 0);
    let got = both_f32(&f, &[vec![0.5; 8]]).expect("runs");
    assert_eq!(got[0], (0..8).map(|v| v as f32 + 0.5).collect::<Vec<_>>());
}

#[test]
fn extents_thirteen_and_zero_run_as_scalar_code() {
    for n in [13i64, 0] {
        let (a, o, i) = (
            Var::new("A", DType::float32()),
            Var::new("O", DType::float32()),
            Var::int("i"),
        );
        let body = vectorized(
            &i,
            n,
            Stmt::store(
                &o,
                i.to_expr(),
                Expr::load(&a, i.to_expr()) + Expr::f32(1.0),
            ),
        );
        let f = f32_func(vec![a, o], vec![13, 13], body);
        assert_eq!(reduce_loops_f32(&f), 0);
        let input: Vec<f32> = (0..13).map(|v| v as f32 * 0.1).collect();
        let arrays = [input.clone(), vec![-1.0; 13]];
        let got = both_f32(&f, &arrays).expect("runs");
        let want: Vec<f32> = (0..13)
            .map(|v| if v < n { input[v as usize] + 1.0 } else { -1.0 })
            .collect();
        assert_eq!(got[1], want);
        assert_eq!(stores_f32(&f, &arrays), n as u64);
    }
}

#[test]
fn f16_and_int8_stores_round_in_a_vectorized_loop() {
    let i = Var::int("i");
    // i / 3 into float16, held as f64 (a `run` buffer) and as f32.
    let o = Var::new("O", DType::float16());
    let third = i.to_expr().cast(DType::float32()) / Expr::f32(3.0);
    let f = func(
        vec![o.clone()],
        vec![DType::float16()],
        vec![11],
        vectorized(&i, 11, Stmt::store(&o, i.to_expr(), third)),
    );
    let f32_held = Buffer {
        dtype: DType::float16(),
        data: Data::F32(vec![0.0; 11]),
    };
    for buf in [Buffer::zeros(DType::float16(), 11), f32_held] {
        assert_eq!(reduce_loops(&f, std::slice::from_ref(&buf)), 0);
        let got = both(&f, vec![buf]).expect("runs")[0].to_f32();
        assert_ne!(got[1], 1.0f32 / 3.0);
        assert!((got[1] - 1.0 / 3.0).abs() < 1e-3);
    }
    // i * 50 into int8: wraps past 127.
    let o = Var::new("O", DType::int8());
    let f = func(
        vec![o.clone()],
        vec![DType::int8()],
        vec![9],
        vectorized(&i, 9, Stmt::store(&o, i.to_expr(), i.clone() * 50)),
    );
    let buf = Buffer::zeros(DType::int8(), 9);
    assert_eq!(reduce_loops(&f, std::slice::from_ref(&buf)), 0);
    let got = both(&f, vec![buf]).expect("runs");
    assert_eq!(
        got[0].to_i64(),
        vec![0, 50, 100, -106, -56, -6, 44, 94, -112]
    );
}

#[test]
fn checked_division_faults_only_on_a_lane_that_runs_it() {
    // 12 / (i - 3) divides by zero at i = 3. Guarded off there, it runs;
    // unguarded, it faults after three stores.
    let (o, i) = (Var::new("O", DType::int32()), Var::int("i"));
    let quotient = Expr::int(12) / (i.clone() - 3);
    let guarded = Stmt::if_then(
        i.to_expr().ne(Expr::int(3)),
        Stmt::store(&o, i.to_expr(), quotient.clone()),
    );
    let f = func(
        vec![o.clone()],
        vec![DType::int32()],
        vec![8],
        vectorized(&i, 8, guarded),
    );
    let buf = Buffer::zeros(DType::int32(), 8);
    assert_eq!(reduce_loops(&f, std::slice::from_ref(&buf)), 0);
    let got = both(&f, vec![buf.clone()]).expect("runs");
    assert_eq!(got[0].to_i64(), vec![-4, -6, -12, 0, 12, 6, 4, 3]);

    let f = func(
        vec![o.clone()],
        vec![DType::int32()],
        vec![8],
        vectorized(&i, 8, Stmt::store(&o, i.to_expr(), quotient)),
    );
    assert_eq!(reduce_loops(&f, std::slice::from_ref(&buf)), 0);
    let mut it = Interp::new();
    let err = it.run(&f, vec![buf.clone()]).unwrap_err();
    assert!(matches!(err, InterpError::DivideByZero));
    assert_eq!(it.store_count(), 3);
    assert!(matches!(
        both(&f, vec![buf]),
        Err(InterpError::DivideByZero)
    ));
}

// ---------------------------------------------------------------------------
// Reduce loops. The flat engine runs an innermost serial or unrolled
// `S[i] = S[i] + X[f(k)] * Y[g(k)]` loop as one dot product, and runs the
// loop's scalar code instead when it is empty or an access at either end of
// it is out of bounds; each case pins whether the loop compiled to a reduce
// loop and that both engines still agree.
// ---------------------------------------------------------------------------

fn reduce_loops_f32(f: &LoweredFunc) -> usize {
    Program::compile_f32(f).reduce_loops()
}

/// `both` on float32 arrays held as `f32`.
fn both_held(f: &LoweredFunc, arrays: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let got = both(f, f32_buffers(arrays.to_vec())).expect("runs");
    got.iter().map(Buffer::to_f32).collect()
}

/// `S[at] = S[at] + X[xi] * Y[yi]`.
fn mac(s: &Var, at: Expr, x: &Var, xi: Expr, y: &Var, yi: Expr) -> Stmt {
    let sum = Expr::load(s, at.clone()) + Expr::load(x, xi) * Expr::load(y, yi);
    Stmt::store(s, at, sum)
}

/// The walker's `acc = acc + x * y`, rounded to `f32` at every store.
fn dot(acc: f32, pairs: impl IntoIterator<Item = (f32, f32)>) -> f32 {
    pairs
        .into_iter()
        .fold(acc, |acc, (x, y)| (acc as f64 + x as f64 * y as f64) as f32)
}

/// `S`, `X`, `Y` (float32) and `k`.
fn sxyk() -> (Var, Var, Var, Var) {
    (
        Var::new("S", DType::float32()),
        Var::new("X", DType::float32()),
        Var::new("Y", DType::float32()),
        Var::int("k"),
    )
}

#[test]
fn dense_rows_run_as_reduce_loops_in_either_order() {
    // S[i] = S[i] + X[k] * Y[i * 5 + k] over an unrolled k, the `fused_dense`
    // kernels' loop, and the same sum written the other way round.
    let (s, x, y, k) = sxyk();
    let i = Var::int("i");
    let (at, xi, yi) = (i.to_expr(), k.to_expr(), i.clone() * 5 + k.clone());
    let forward = mac(&s, at.clone(), &x, xi.clone(), &y, yi.clone());
    let backward = Stmt::store(
        &s,
        at.clone(),
        Expr::load(&x, xi) * Expr::load(&y, yi) + Expr::load(&s, at),
    );
    let xs: Vec<f32> = (0..5).map(|v| v as f32 * 0.31 - 0.7).collect();
    let ys: Vec<f32> = (0..15).map(|v| 1.3 - v as f32 * 0.17).collect();
    for body in [forward, backward] {
        let rows = Stmt::for_(&i, 0, 3, Stmt::loop_(&k, 0, 5, ForKind::Unrolled, body));
        let f = f32_func(vec![x.clone(), y.clone(), s.clone()], vec![5, 15, 3], rows);
        assert_eq!(reduce_loops_f32(&f), 1);
        let arrays = [xs.clone(), ys.clone(), vec![0.25; 3]];
        let want: Vec<f32> = (0..3)
            .map(|r| dot(0.25, (0..5).map(|c| (xs[c], ys[r * 5 + c]))))
            .collect();
        assert_eq!(both_held(&f, &arrays)[2], want);
        assert_eq!(stores_f32(&f, &arrays), 15);
    }
}

#[test]
fn an_x_out_of_bounds_at_the_last_iteration_stores_seven_times_then_faults() {
    let (s, x, y, k) = sxyk();
    let body = Stmt::for_(
        &k,
        0,
        8,
        mac(&s, Expr::int(0), &x, k.to_expr(), &y, k.to_expr()),
    );
    let f = f32_func(vec![x, y, s], vec![7, 8, 1], body);
    assert_eq!(reduce_loops_f32(&f), 1);
    let xs: Vec<f32> = (0..7).map(|v| v as f32 + 0.5).collect();
    let ys = vec![0.75f32; 8];
    let (err, stores, left) = held_fault(&f, &[xs.clone(), ys.clone(), vec![1.0]]);
    match err {
        InterpError::OutOfBounds {
            buffer,
            index,
            extent,
        } => assert_eq!((buffer.as_str(), index, extent), ("X", 7, 7)),
        other => panic!("unexpected {other}"),
    }
    assert_eq!(stores, 7);
    assert_eq!(left[2], vec![dot(1.0, xs.into_iter().zip(ys))]);
}

#[test]
fn an_accumulator_out_of_bounds_faults_before_any_store() {
    let (s, x, y, k) = sxyk();
    let body = Stmt::for_(
        &k,
        0,
        4,
        mac(&s, Expr::int(3), &x, k.to_expr(), &y, k.to_expr()),
    );
    let f = f32_func(vec![x, y, s], vec![4, 4, 2], body);
    assert_eq!(reduce_loops_f32(&f), 1);
    let (err, stores, left) = held_fault(&f, &[vec![1.0; 4], vec![2.0; 4], vec![0.5; 2]]);
    assert!(
        matches!(&err, InterpError::OutOfBounds { buffer, index: 3, extent: 2 } if buffer == "S"),
        "{err}"
    );
    assert_eq!(stores, 0);
    assert_eq!(left[2], vec![0.5; 2]);
}

#[test]
fn reduce_loops_of_zero_and_negative_extent_store_nothing() {
    for n in [0i64, -3] {
        let (s, x, y, k) = sxyk();
        let body = Stmt::for_(
            &k,
            0,
            n,
            mac(&s, Expr::int(0), &x, k.to_expr(), &y, k.to_expr()),
        );
        let f = f32_func(vec![x, y, s], vec![4, 4, 1], body);
        assert_eq!(reduce_loops_f32(&f), 1);
        let arrays = [vec![1.0; 4], vec![2.0; 4], vec![0.5]];
        assert_eq!(both_held(&f, &arrays)[2], vec![0.5]);
        assert_eq!(stores_f32(&f, &arrays), 0);
    }
}

#[test]
fn stride_zero_and_negative_strides_run_as_reduce_loops() {
    // S[0] += X[2] * Y[7 - k] over 8 iterations, then S[1] += X[6 - 2k] * Y[k]
    // over 4: strides 0 and -1, then -2 and 1.
    let (s, x, y, k) = sxyk();
    let body = Stmt::seq(vec![
        Stmt::for_(
            &k,
            0,
            8,
            mac(
                &s,
                Expr::int(0),
                &x,
                Expr::int(2),
                &y,
                Expr::int(7) - k.clone(),
            ),
        ),
        Stmt::for_(
            &k,
            0,
            4,
            mac(
                &s,
                Expr::int(1),
                &x,
                Expr::int(6) - k.clone() * 2,
                &y,
                k.to_expr(),
            ),
        ),
    ]);
    let f = f32_func(vec![x, y, s], vec![7, 8, 2], body);
    assert_eq!(reduce_loops_f32(&f), 2);
    let xs: Vec<f32> = (0..7).map(|v| 0.9 - v as f32 * 0.4).collect();
    let ys: Vec<f32> = (0..8).map(|v| v as f32 * 1.7 + 0.01).collect();
    let arrays = [xs.clone(), ys.clone(), vec![0.125, -3.0]];
    let want = vec![
        dot(0.125, (0..8).map(|k| (xs[2], ys[7 - k]))),
        dot(-3.0, (0..4).map(|k| (xs[6 - 2 * k], ys[k]))),
    ];
    assert_eq!(both_held(&f, &arrays)[2], want);
    assert_eq!(stores_f32(&f, &arrays), 12);
}

#[test]
fn an_accumulator_read_at_another_index_stays_scalar() {
    // S[0] = S[1] + X[k] * Y[k], and S[0] = S[0] + S[k + 1] * Y[k]: the loop
    // reads what it stores somewhere the dot product would not.
    let (s, x, y, k) = sxyk();
    let zero = Expr::int(0);
    let elsewhere = Stmt::store(
        &s,
        zero.clone(),
        Expr::load(&s, Expr::int(1)) + Expr::load(&x, k.to_expr()) * Expr::load(&y, k.to_expr()),
    );
    let as_factor = mac(&s, zero.clone(), &s, k.clone() + 1, &y, k.to_expr());
    for body in [elsewhere, as_factor] {
        let f = f32_func(
            vec![x.clone(), y.clone(), s.clone()],
            vec![4, 4, 5],
            Stmt::for_(&k, 0, 4, body),
        );
        assert_eq!(reduce_loops_f32(&f), 0);
        let arrays = [
            vec![1.5; 4],
            vec![-0.5, 2.0, 0.25, 8.0],
            vec![0.1, 0.2, 0.3, 0.4, 0.5],
        ];
        both_held(&f, &arrays);
    }
}

#[test]
fn f16_f64_and_i64_accumulators_stay_scalar() {
    let accumulators = [
        (DType::float16(), Data::F32(vec![0.5])),
        (DType::float64(), Data::F64(vec![0.5])),
        (DType::int64(), Data::I64(vec![3])),
    ];
    for (dtype, data) in accumulators {
        let (_, x, y, k) = sxyk();
        let s = Var::new("S", dtype);
        let body = Stmt::for_(
            &k,
            0,
            4,
            mac(&s, Expr::int(0), &x, k.to_expr(), &y, k.to_expr()),
        );
        let f = func(
            vec![x, y, s],
            vec![DType::float32(), DType::float32(), dtype],
            vec![4, 4, 1],
            body,
        );
        let mut bufs = f32_buffers(vec![vec![0.3, 1.1, -2.5, 7.0], vec![1.0 / 3.0; 4]]);
        bufs.push(Buffer { dtype, data });
        assert_eq!(program(&f, &bufs).reduce_loops(), 0, "{dtype:?}");
        both(&f, bufs).expect("runs");
    }
}

#[test]
fn inf_and_nan_accumulate_as_in_the_walker() {
    // 3e38 * 10 overflows at the first store; inf + 1 * -inf is NaN, which
    // the last iteration keeps; a NaN factor poisons a finite sum; inf minus
    // a finite product stays inf.
    let nan = f32::NAN;
    let cases = [
        (
            vec![3e38, 3e38, 1.0, 2.0],
            vec![10.0, 10.0, f32::NEG_INFINITY, 1.0],
            nan,
        ),
        (vec![1.0, nan, 1.0, 4.0], vec![1.0; 4], nan),
        (
            vec![3e38, 3e38, 5.0, 1.0],
            vec![10.0, -1.0, -1.0, 2.0],
            f32::INFINITY,
        ),
    ];
    for (xs, ys, want) in cases {
        let (s, x, y, k) = sxyk();
        let body = Stmt::for_(
            &k,
            0,
            4,
            mac(&s, Expr::int(0), &x, k.to_expr(), &y, k.to_expr()),
        );
        let f = f32_func(vec![x, y, s], vec![4, 4, 1], body);
        assert_eq!(reduce_loops_f32(&f), 1);
        let got = both_held(&f, &[xs, ys, vec![0.0]])[2][0];
        assert!(got == want || got.is_nan() && want.is_nan(), "{got}");
    }
}

#[test]
fn indices_near_i64_max_agree_in_debug_and_release() {
    // The reduce loop's bounds check must not overflow (a panic in debug) or
    // wrap (release) where the scalar code wraps. X[k - (MAX - 3)] with k up
    // to MAX - 1 stays in bounds and runs as one op; X[k + MAX - 1] is out of
    // bounds at once and its last index overflows; X[2k + 4] at k = MAX - 1
    // is element 0 only because the index wraps, so the scalar code runs it;
    // X[2^62 k] for k < 5 is element 0 at both ends, the last by wrapping,
    // and out of bounds at k = 1, where the scalar code faults.
    let m = i64::MAX;
    let (s, x, y, k) = sxyk();
    let zero = Expr::int(0);
    let inside = Stmt::for_(
        &k,
        m - 3,
        3,
        mac(
            &s,
            zero.clone(),
            &x,
            k.clone() - (m - 3),
            &y,
            k.clone() - (m - 3),
        ),
    );
    let past = Stmt::for_(
        &k,
        0,
        4,
        mac(&s, zero.clone(), &x, k.clone() + (m - 1), &y, k.to_expr()),
    );
    let wrapped = Stmt::for_(
        &k,
        m - 1,
        1,
        mac(&s, zero.clone(), &x, k.clone() * 2 + 4, &y, zero.clone()),
    );
    let strided = Stmt::for_(
        &k,
        0,
        5,
        mac(
            &s,
            zero.clone(),
            &x,
            k.clone() * (1 << 62),
            &y,
            zero.clone(),
        ),
    );
    let arrays = [
        vec![0.5, -1.25, 3.0, 9.5],
        vec![2.0, 0.75, -4.0, 1.0],
        vec![0.1],
    ];
    let f = |body| f32_func(vec![x.clone(), y.clone(), s.clone()], vec![4, 4, 1], body);

    let f_inside = f(inside);
    assert_eq!(reduce_loops_f32(&f_inside), 1);
    let want = dot(0.1, (0..3).map(|i| (arrays[0][i], arrays[1][i])));
    assert_eq!(both_held(&f_inside, &arrays)[2], vec![want]);
    assert_eq!(stores_f32(&f_inside, &arrays), 3);

    let f_past = f(past);
    assert_eq!(reduce_loops_f32(&f_past), 1);
    let (err, stores, _) = held_fault(&f_past, &arrays);
    assert!(
        matches!(&err, InterpError::OutOfBounds { buffer, index, .. } if buffer == "X" && *index == m - 1),
        "{err}"
    );
    assert_eq!(stores, 0);

    let f_wrapped = f(wrapped);
    assert_eq!(reduce_loops_f32(&f_wrapped), 1);
    let want = dot(0.1, [(arrays[0][0], arrays[1][0])]);
    assert_eq!(both_held(&f_wrapped, &arrays)[2], vec![want]);
    assert_eq!(stores_f32(&f_wrapped, &arrays), 1);

    let f_strided = f(strided);
    assert_eq!(reduce_loops_f32(&f_strided), 1);
    let (err, stores, left) = held_fault(&f_strided, &arrays);
    assert!(
        matches!(&err, InterpError::OutOfBounds { buffer, index, .. } if buffer == "X" && *index == 1 << 62),
        "{err}"
    );
    assert_eq!(stores, 1);
    assert_eq!(left[2], vec![want]);
}

#[test]
fn a_reduction_inside_a_barriered_nest_runs_as_a_reduce_loop() {
    // Each of two threads sums X[k] * Y[k] into S[t] after a barrier.
    let (s, x, y, k) = sxyk();
    let t = Var::int("t");
    let sum = Stmt::for_(
        &k,
        0,
        4,
        mac(&s, t.to_expr(), &x, k.to_expr(), &y, k.to_expr()),
    );
    let nest = threads(&t, 2, Stmt::seq(vec![barrier(), sum]));
    let f = f32_func(vec![x, y, s], vec![4, 4, 2], nest);
    assert_eq!(reduce_loops_f32(&f), 1);
    let (xs, ys) = (vec![0.5, 1.5, -2.0, 4.0], vec![3.0, 0.25, 1.0, -0.5]);
    let got = both_held(&f, &[xs.clone(), ys.clone(), vec![1.0, -1.0]]);
    let want: Vec<f32> = [1.0, -1.0]
        .iter()
        .map(|&acc| dot(acc, xs.iter().copied().zip(ys.iter().copied())))
        .collect();
    assert_eq!(got[2], want);
    assert_eq!(stores_f32(&f, &[xs, ys, vec![1.0, -1.0]]), 8);
}

#[test]
fn a_thread_local_accumulator_reduces_into_its_own_lanes_copy() {
    // Three threads, each summing row `t` of X against Y into element 1 of
    // a thread-local `acc[2]` after a barrier, then writing it to `O[t]`.
    let (acc, x, y, k) = sxyk();
    let (out, t) = (Var::new("O", DType::float32()), Var::int("t"));
    let init = Stmt::store(&acc, Expr::int(1), t.to_expr().cast(DType::float32()));
    let sum = Stmt::for_(
        &k,
        0,
        4,
        mac(
            &acc,
            Expr::int(1),
            &x,
            t.to_expr() * 4 + k.to_expr(),
            &y,
            k.to_expr(),
        ),
    );
    let write = Stmt::store(&out, t.to_expr(), Expr::load(&acc, Expr::int(1)));
    let body = Stmt::allocate(
        &acc,
        DType::float32(),
        2,
        MemScope::Local,
        Stmt::seq(vec![init, barrier(), sum, write]),
    );
    let f = f32_func(vec![x, y, out], vec![12, 4, 3], threads(&t, 3, body));
    assert_eq!(reduce_loops_f32(&f), 1);
    let xs: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.0).collect();
    let ys = vec![3.0, 0.25, 1.0, -0.5];
    let got = both_held(&f, &[xs.clone(), ys.clone(), vec![0.0; 3]]);
    let want: Vec<f32> = (0..3)
        .map(|t| dot(t as f32, (0..4).map(|k| (xs[t * 4 + k], ys[k]))))
        .collect();
    assert_eq!(got[2], want);
}

// ---------------------------------------------------------------------------
// Reduce nests. A loop whose whole body is a loop that runs as a reduce nest
// takes it over as a new outermost level while every access stays affine in
// its variable, and a factor may be a padded read `select(c, X[x], k)`. Each
// case pins the nest's depth and guarded factors, and that both engines
// agree on buffers, store counts and faults.
// ---------------------------------------------------------------------------

/// Depth of each reduce nest, and guarded factors, of `f` compiled for
/// float32 arrays.
fn nests_f32(f: &LoweredFunc) -> (Vec<usize>, usize) {
    let p = Program::compile_f32(f);
    (p.reduce_depths(), p.guarded_factors())
}

/// `select(c, X[at], konst)`.
fn padded(c: Expr, x: &Var, at: Expr, konst: f32) -> Expr {
    Expr::select(c, Expr::load(x, at), Expr::f32(konst))
}

/// `S[at] = S[at] + a * b`.
fn mac_of(s: &Var, at: Expr, a: Expr, b: Expr) -> Stmt {
    Stmt::store(s, at.clone(), Expr::load(s, at) + a * b)
}

/// `lo <= e < hi`.
fn within(e: Expr, lo: i64, hi: i64) -> Expr {
    e.clone().ge(Expr::int(lo)).and(e.lt(Expr::int(hi)))
}

#[test]
fn nests_of_depth_two_to_five_run_as_one_op() {
    // Levels of extents 2, 3, 2, 3, 4, serial, unrolled and vectorized in
    // turn; S is indexed by the innermost and outermost variables and each
    // factor by a different mix of all of them.
    let (s, x, y, _) = sxyk();
    let extents = [2i64, 3, 2, 3, 4];
    let kinds = [ForKind::Serial, ForKind::Unrolled, ForKind::Vectorized];
    for depth in 2..=5 {
        let vars: Vec<Var> = (0..depth).map(|j| Var::int(format!("l{j}"))).collect();
        let term = |coeffs: &[i64]| {
            vars.iter()
                .zip(coeffs)
                .fold(Expr::int(0), |e, (v, &c)| e + v.clone() * c)
        };
        let last = &vars[depth - 1];
        let at = last.clone() + vars[0].clone() * 4;
        let xi = term(&[17, 5, 3, 7, 1][..depth]);
        let yi = term(&[1, 2, 9, 0, 3][..depth]) + 1;
        let mut body = mac_of(&s, at, Expr::load(&x, xi), Expr::load(&y, yi));
        for j in (0..depth).rev() {
            body = Stmt::loop_(&vars[j], 0, extents[j], kinds[j % 3], body);
        }
        let f = f32_func(
            vec![x.clone(), y.clone(), s.clone()],
            vec![64, 48, 12],
            body,
        );
        assert_eq!(nests_f32(&f), (vec![depth], 0), "depth {depth}");
        let xs: Vec<f32> = (0..64).map(|v| (v as f32 * 0.37).sin()).collect();
        let ys: Vec<f32> = (0..48).map(|v| 1.5 - v as f32 * 0.06).collect();
        let arrays = [xs, ys, vec![0.25; 12]];
        both_held(&f, &arrays);
        let volume: i64 = extents[..depth].iter().product();
        assert_eq!(stores_f32(&f, &arrays), volume as u64);
    }
}

#[test]
fn padded_conv_row_guarded_at_both_edges_runs_as_one_nest() {
    // O[i] += (A[i + k - 1] if 0 <= i + k - 1 < 8 else 0) * W[k]: the conv
    // kernels' hot loop, whose guard fails at the left edge for k = 0 and
    // at the right edge for k = 2.
    let (a, w, o) = (
        Var::new("A", DType::float32()),
        Var::new("W", DType::float32()),
        Var::new("O", DType::float32()),
    );
    let (k, i) = (Var::int("k"), Var::int("i"));
    let x = i.clone() + k.clone() - 1;
    let row = padded(within(x.clone(), 0, 8), &a, x, 0.0);
    let body = mac_of(&o, i.to_expr(), row, Expr::load(&w, k.to_expr()));
    let f = f32_func(
        vec![a, w, o],
        vec![8, 3, 8],
        Stmt::for_(&k, 0, 3, vectorized(&i, 8, body)),
    );
    assert_eq!(nests_f32(&f), (vec![2], 1));
    let data: Vec<f32> = (0..8).map(|v| v as f32 * 0.37 - 1.1).collect();
    let weights = vec![0.25f32, -1.5, 0.7];
    let got = both_f32(&f, &[data.clone(), weights.clone(), vec![0.1; 8]]).expect("runs");
    let mut want = vec![0.1f32; 8];
    for (k, &wk) in weights.iter().enumerate() {
        for (i, o) in want.iter_mut().enumerate() {
            let x = i as i64 + k as i64 - 1;
            let a = if (0..8).contains(&x) {
                data[x as usize]
            } else {
                0.0
            };
            *o = (*o as f64 + a as f64 * wk as f64) as f32;
        }
    }
    assert_eq!(got[2], want);
}

#[test]
fn a_padded_conv_guarded_at_an_outer_level_and_both_row_ends_runs_as_one_nest() {
    // A 3x3 convolution of a 5x6 image, padded by one: the guard on the
    // row, r + rh - 1, cuts whole rows at the top and bottom (an outer
    // level), and the one on the column cuts both ends of each row.
    let (a, w, o) = (
        Var::new("A", DType::float32()),
        Var::new("W", DType::float32()),
        Var::new("O", DType::float32()),
    );
    let (r, rh, rw, c) = (Var::int("r"), Var::int("rh"), Var::int("rw"), Var::int("c"));
    let (y, x) = (r.clone() + rh.clone() - 1, c.clone() + rw.clone() - 1);
    let guard = within(y.clone(), 0, 5).and(within(x.clone(), 0, 6));
    let pixel = padded(guard, &a, y * 6 + x, 0.0);
    let weight = Expr::load(&w, rh.clone() * 3 + rw.clone());
    let body = mac_of(&o, r.clone() * 6 + c.clone(), pixel, weight);
    let nest = Stmt::for_(
        &r,
        0,
        5,
        Stmt::for_(
            &rh,
            0,
            3,
            Stmt::loop_(&rw, 0, 3, ForKind::Unrolled, vectorized(&c, 6, body)),
        ),
    );
    let f = f32_func(vec![a, w, o], vec![30, 9, 30], nest);
    assert_eq!(nests_f32(&f), (vec![4], 1));
    let image: Vec<f32> = (0..30).map(|v| (v as f32 * 0.91).cos()).collect();
    let weights: Vec<f32> = (0..9).map(|v| v as f32 * 0.25 - 1.0).collect();
    let got = both_held(&f, &[image.clone(), weights.clone(), vec![0.0; 30]]);
    let mut want = vec![0.0f32; 30];
    for (at, out) in want.iter_mut().enumerate() {
        let (r, c) = ((at / 6) as i64, (at % 6) as i64);
        for (kh, kw) in (0..3).flat_map(|kh| (0..3).map(move |kw| (kh, kw))) {
            let (y, x) = (r + kh - 1, c + kw - 1);
            let v = if (0..5).contains(&y) && (0..6).contains(&x) {
                image[(y * 6 + x) as usize]
            } else {
                0.0
            };
            *out = (*out as f64 + v as f64 * weights[(kh * 3 + kw) as usize] as f64) as f32;
        }
    }
    assert_eq!(got[2], want);
    assert_eq!(stores_f32(&f, &[image, weights, vec![0.0; 30]]), 270);
}

#[test]
fn a_guard_coefficient_other_than_one_bounds_the_row_by_division() {
    // 3i + j >= 4, 2i < 13 + j and 20 - 3i > j over i in 0..9, j in 0..3:
    // each row's span ends fall between multiples of the coefficient, and
    // the last comparison's coefficient is negative.
    let (s, x, y, _) = sxyk();
    let (j, i) = (Var::int("j"), Var::int("i"));
    let guard = (i.clone() * 3 + j.clone())
        .ge(Expr::int(4))
        .and((i.clone() * 2).lt(j.clone() + 13))
        .and((Expr::int(20) - i.clone() * 3).gt(j.to_expr()));
    let a = padded(guard, &x, i.to_expr(), -0.5);
    let body = mac_of(&s, j.to_expr(), a, Expr::load(&y, i.clone() + j.clone()));
    let f = f32_func(
        vec![x, y, s],
        vec![9, 11, 3],
        Stmt::for_(&j, 0, 3, Stmt::for_(&i, 0, 9, body)),
    );
    assert_eq!(nests_f32(&f), (vec![2], 1));
    let xs: Vec<f32> = (0..9).map(|v| v as f32 + 0.5).collect();
    let ys: Vec<f32> = (0..11).map(|v| 0.75 - v as f32 * 0.125).collect();
    let got = both_held(&f, &[xs.clone(), ys.clone(), vec![1.0; 3]]);
    let want: Vec<f32> = (0..3i64)
        .map(|j| {
            let pairs = (0..9i64).map(|i| {
                let inside = 3 * i + j >= 4 && 2 * i < 13 + j && 20 - 3 * i > j;
                let a = if inside { xs[i as usize] } else { -0.5 };
                (a, ys[(i + j) as usize])
            });
            dot(1.0, pairs)
        })
        .collect();
    assert_eq!(got[2], want);
}

#[test]
fn an_accumulator_out_of_bounds_at_an_outer_corner_faults_before_any_store() {
    // S[j - 1] at j = 0 is out of bounds: the nest stores nothing and its
    // scalar code faults at once, as the walker does.
    let (s, x, y, k) = sxyk();
    let j = Var::int("j");
    let body = mac(&s, j.clone() - 1, &x, k.to_expr(), &y, k.to_expr());
    let f = f32_func(
        vec![x, y, s],
        vec![4, 4, 3],
        Stmt::for_(&j, 0, 3, Stmt::for_(&k, 0, 4, body)),
    );
    assert_eq!(nests_f32(&f), (vec![2], 0));
    let (err, stores, left) = held_fault(&f, &[vec![1.0; 4], vec![2.0; 4], vec![0.5; 3]]);
    assert!(
        matches!(&err, InterpError::OutOfBounds { buffer, index: -1, extent: 3 } if buffer == "S"),
        "{err}"
    );
    assert_eq!(stores, 0);
    assert_eq!(left[2], vec![0.5; 3]);
}

#[test]
fn a_guarded_read_out_of_bounds_on_the_last_row_replays_and_faults_as_the_walker() {
    // S[r] += (X[3r + k] if k <= r + 1 else 0) * Y[k]: rows 0 and 1 read X
    // in bounds, row 2 reads X[8] at k = 2. The scalar code stores the ten
    // iterations before it, then faults.
    let (s, x, y, k) = sxyk();
    let r = Var::int("r");
    let a = padded(
        k.to_expr().le(r.clone() + 1),
        &x,
        r.clone() * 3 + k.clone(),
        0.0,
    );
    let body = mac_of(&s, r.to_expr(), a, Expr::load(&y, k.to_expr()));
    let f = f32_func(
        vec![x, y, s],
        vec![8, 4, 3],
        Stmt::for_(&r, 0, 3, Stmt::for_(&k, 0, 4, body)),
    );
    assert_eq!(nests_f32(&f), (vec![2], 1));
    let xs: Vec<f32> = (0..8).map(|v| v as f32 * 0.5 + 0.25).collect();
    let ys = vec![1.0f32, -2.0, 0.5, 4.0];
    let (err, stores, left) = held_fault(&f, &[xs.clone(), ys.clone(), vec![0.0; 3]]);
    assert!(
        matches!(&err, InterpError::OutOfBounds { buffer, index: 8, extent: 8 } if buffer == "X"),
        "{err}"
    );
    assert_eq!(stores, 10);
    // The first `n` iterations of row `r`.
    let row = |r: usize, n: usize| {
        let a = |k: usize| if k <= r + 1 { xs[3 * r + k] } else { 0.0 };
        dot(0.0, (0..n).map(|k| (a(k), ys[k])))
    };
    assert_eq!(left[2], vec![row(0, 4), row(1, 4), row(2, 2)]);
}

#[test]
fn zero_and_negative_extents_at_an_outer_level_store_nothing() {
    // The outer level empty, and the inner one empty under three outer
    // iterations: the box is empty either way.
    for (outer, inner) in [(0i64, 4i64), (-2, 4), (3, 0), (3, -1)] {
        let (s, x, y, k) = sxyk();
        let j = Var::int("j");
        let body = mac(&s, j.to_expr(), &x, k.to_expr(), &y, k.to_expr());
        let f = f32_func(
            vec![x, y, s],
            vec![4, 4, 3],
            Stmt::for_(&j, 0, outer, Stmt::for_(&k, 0, inner, body)),
        );
        assert_eq!(nests_f32(&f), (vec![2], 0));
        let arrays = [vec![1.0; 4], vec![2.0; 4], vec![0.5; 3]];
        assert_eq!(both_held(&f, &arrays)[2], vec![0.5; 3]);
        assert_eq!(stores_f32(&f, &arrays), 0);
    }
}

#[test]
fn an_accumulator_read_as_a_factor_or_a_level_not_affine_is_not_lifted() {
    // S[j] += S[k + 3] * Y[k] reads the stored buffer as a factor: no
    // nest. S[j * j] += X[k] * Y[k] is a nest over k that the j loop cannot
    // take over, since S's index is not affine in j.
    let (s, x, y, k) = sxyk();
    let j = Var::int("j");
    let as_factor = mac(&s, j.to_expr(), &s, k.clone() + 3, &y, k.to_expr());
    let squared = mac(&s, j.clone() * j.clone(), &x, k.to_expr(), &y, k.to_expr());
    for (body, nests) in [(as_factor, vec![]), (squared, vec![1])] {
        let f = f32_func(
            vec![x.clone(), y.clone(), s.clone()],
            vec![4, 4, 7],
            Stmt::for_(&j, 0, 2, Stmt::for_(&k, 0, 4, body)),
        );
        assert_eq!(nests_f32(&f), (nests, 0));
        let arrays = [
            vec![1.5; 4],
            vec![-0.5, 2.0, 0.25, 8.0],
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        ];
        both_held(&f, &arrays);
    }
}

#[test]
fn an_else_arm_other_than_zero_is_the_value_outside_the_guard() {
    // Y[k] if k >= 2 else 3.25, and -0.0 on the other factor: outside its
    // guard a factor is the constant, sign of zero included, without a
    // load.
    let (s, x, y, k) = sxyk();
    let a = padded(k.to_expr().lt(Expr::int(5)), &x, k.to_expr(), -0.0);
    let b = padded(k.to_expr().ge(Expr::int(2)), &y, k.clone() - 2, 3.25);
    let body = mac_of(&s, Expr::int(0), a, b);
    let f = f32_func(vec![x, y, s], vec![5, 4, 1], Stmt::for_(&k, 0, 6, body));
    assert_eq!(nests_f32(&f), (vec![1], 2));
    let xs = vec![1.0f32, -2.0, 0.5, 4.0, 0.125];
    let ys = vec![-1.5f32, 2.0, 0.75, 8.0];
    let got = both_held(&f, &[xs.clone(), ys.clone(), vec![-0.0]]);
    let pairs = (0..6).map(|k| {
        let a = if k < 5 { xs[k] } else { -0.0 };
        let b = if k >= 2 { ys[k - 2] } else { 3.25 };
        (a, b)
    });
    assert_eq!(got[2][0].to_bits(), dot(-0.0, pairs).to_bits());
}

#[test]
fn inf_and_nan_flow_through_a_guarded_nest_as_in_the_walker() {
    // An infinite weight outside the guard meets the constant 0 (NaN), and
    // inside it an infinite or NaN pixel; a guard that holds nowhere still
    // multiplies every weight by the constant.
    let inf = f32::INFINITY;
    let cases = [
        (vec![1.0, inf, 2.0], vec![inf, 1.0, 1.0, 0.5], 4i64),
        (vec![f32::NAN, 1.0, 2.0], vec![1.0, 1.0, 1.0, 1.0], 4),
        (vec![1.0, 2.0, -inf], vec![2.0, 0.5, 1.0, -inf], 4),
        (vec![1.0, 2.0, 3.0], vec![1.0, -inf, 1.0, 1.0], 0),
    ];
    for (xs, ys, hi) in cases {
        let (s, x, y, k) = sxyk();
        let j = Var::int("j");
        let at = k.clone() + j.clone() - 1;
        let a = padded(within(at.clone(), 0, 3.min(hi)), &x, at, 0.0);
        let body = mac_of(&s, j.to_expr(), a, Expr::load(&y, k.to_expr()));
        let f = f32_func(
            vec![x, y, s],
            vec![3, 4, 2],
            Stmt::for_(&j, 0, 2, Stmt::for_(&k, 0, 4, body)),
        );
        assert_eq!(nests_f32(&f), (vec![2], 1));
        both_held(&f, &[xs, ys, vec![0.0; 2]]);
    }
}

#[test]
fn a_split_reduction_runs_as_one_row() {
    // S[0] += X[4 k.o + k.i] * Y[g] over k.o in 0..3, k.i in 0..4: with
    // g = 4 k.o + k.i every level walks on where the one inside it ends, so
    // the twelve iterations are one run; with g = 5 k.o + k.i they are
    // not, and with X one element short the last iteration faults after
    // eleven stores.
    let (s, x, y, _) = sxyk();
    let (ko, ki) = (Var::int("k.o"), Var::int("k.i"));
    let flat = ko.clone() * 4 + ki.clone();
    for (g, x_len) in [
        (flat.clone(), 12),
        (ko.clone() * 5 + ki.clone(), 12),
        (flat.clone(), 11),
    ] {
        let body = mac(&s, Expr::int(0), &x, flat.clone(), &y, g);
        let split = Stmt::for_(&ko, 0, 3, Stmt::loop_(&ki, 0, 4, ForKind::Unrolled, body));
        let f = f32_func(
            vec![x.clone(), y.clone(), s.clone()],
            vec![x_len, 15, 1],
            split,
        );
        assert_eq!(nests_f32(&f), (vec![2], 0));
        let xs: Vec<f32> = (0..x_len).map(|v| v as f32 * 0.3 - 1.0).collect();
        let ys: Vec<f32> = (0..15).map(|v| 0.5 + v as f32 * 0.07).collect();
        let arrays = [xs, ys, vec![0.75]];
        let run = agreed(&f, f32_buffers(arrays.to_vec()), |_| {});
        let stores = if x_len == 12 { 12 } else { 11 };
        assert_eq!((run.result.is_ok(), run.stores), (x_len == 12, stores));
    }
}

#[test]
fn a_lane_sum_over_a_box_that_is_no_row_rounds_at_every_iteration() {
    // S[0] += X[20 rc + 5 rh + rw] * Y[35 - (9 rc + 3 rh + rw)] over
    // rh, rw in 0..3 and rc in 0..4, a GPU conv lane's shape with the
    // weight walked backwards: no level walks on from the one inside it,
    // so the nest runs a row at a time with `S` in a register over the
    // whole box, and its 36 sums still round to f32 one by one, in order.
    // With X one element short the box check fails and the scalar code
    // faults after 35 stores.
    let (s, x, y, _) = sxyk();
    let (rh, rw, rc) = (Var::int("rh"), Var::int("rw"), Var::int("rc"));
    let xi = rc.clone() * 20 + rh.clone() * 5 + rw.clone();
    let yi = Expr::int(35) - (rc.clone() * 9 + rh.clone() * 3 + rw.clone());
    let body = mac(&s, Expr::int(0), &x, xi, &y, yi);
    let lane = Stmt::for_(
        &rc,
        0,
        4,
        Stmt::for_(&rh, 0, 3, Stmt::for_(&rw, 0, 3, body)),
    );
    let order = (0..4).flat_map(|c| (0..3).flat_map(move |h| (0..3).map(move |w| (c, h, w))));
    for x_len in [73, 72] {
        let f = f32_func(
            vec![x.clone(), y.clone(), s.clone()],
            vec![x_len, 36, 1],
            lane.clone(),
        );
        assert_eq!(nests_f32(&f), (vec![3], 0));
        let xs: Vec<f32> = (0..x_len).map(|v| 1.0 / (v as f32 + 3.0)).collect();
        let ys: Vec<f32> = (0..36).map(|v| 0.1 + v as f32 * 0.37).collect();
        let arrays = [xs.clone(), ys.clone(), vec![0.75]];
        let run = agreed(&f, f32_buffers(arrays.to_vec()), |_| {});
        if x_len == 73 {
            let pairs = order
                .clone()
                .map(|(c, h, w)| (xs[20 * c + 5 * h + w], ys[35 - (9 * c + 3 * h + w)]));
            let want = dot(0.75, pairs);
            assert_eq!(run.buffers[2].to_f32()[0].to_bits(), want.to_bits());
            assert_eq!((run.result.is_ok(), run.stores), (true, 36));
        } else {
            assert_eq!((run.result.is_ok(), run.stores), (false, 35));
        }
    }
}

/// SplitMix64, the seeded draws of the generated nests below.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next() % 2001) as f32 / 256.0 - 3.9)
            .collect()
    }
}

/// How a guard cuts one row, given whether it holds at each iteration:
/// named by which ends of the row it leaves out.
fn span_kind(holds: &[bool]) -> &'static str {
    match (
        holds.iter().position(|&h| h),
        holds.iter().rposition(|&h| h),
    ) {
        (None, _) | (_, None) => "empty",
        (Some(0), Some(last)) if last + 1 == holds.len() => "full",
        (Some(0), _) => "cut at the right",
        (_, Some(last)) if last + 1 == holds.len() => "cut at the left",
        _ => "cut at both ends",
    }
}

/// `-1`, `0`, `1` or `> 1`: how the tests below name a stride.
fn stride_name(s: i64) -> String {
    if s > 1 {
        "> 1".into()
    } else {
        s.to_string()
    }
}

/// `Σ s[j] * vars[j]` over levels of `extents`, shifted so that its least
/// value over the box is 0, and the number of values from there to its
/// greatest.
fn shifted(vars: &[Var], extents: &[i64], s: &[i64]) -> (Expr, i64) {
    let reach = |pick: fn(i64) -> i64| -> i64 {
        s.iter()
            .zip(extents)
            .map(|(&c, &e)| pick(c) * (e - 1))
            .sum()
    };
    let (low, high) = (reach(|c| c.min(0)), reach(|c| c.max(0)));
    let e = vars
        .iter()
        .zip(s)
        .fold(Expr::int(-low), |e, (v, &c)| e + v.clone() * c);
    (e, high - low + 1)
}

#[test]
fn generated_guarded_nests_agree_with_the_walker() {
    // MAC nests of one to five levels, with one or both factors (now and
    // then neither) a padded read `select(lo <= g < hi, X[x], k)`: every
    // index affine in every level, the innermost strides drawn from -1, 0,
    // 1 and more for the factors and 0, 1 and more for `S`, and each guard
    // placed to leave rows empty, cut at either or both ends, or full. Each
    // nest must form as generated and run as the walker does, bit for bit.
    let mut draw = Draw(0x7E57_0041);
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut see = |what: String| *seen.entry(what).or_default() += 1;
    for case in 0..300 {
        let depth = 1 + (draw.next() % 5) as usize;
        let vars: Vec<Var> = (0..depth).map(|j| Var::int(format!("l{j}"))).collect();
        let mut extents: Vec<i64> = (0..depth - 1).map(|_| draw.pick(&[1, 2, 3])).collect();
        extents.push(draw.pick(&[1, 2, 3, 5, 7]));
        let n = extents[depth - 1];
        // Strides along every level, the innermost last; each index is
        // shifted so that its least value over the box is 0.
        let strides = |draw: &mut Draw, inner: &[i64], outer: &[i64]| -> Vec<i64> {
            let mut s: Vec<i64> = (0..depth - 1).map(|_| draw.pick(outer)).collect();
            s.push(draw.pick(inner));
            s
        };
        let affine = |s: &[i64]| shifted(&vars, &extents, s);
        let s_strides = strides(&mut draw, &[0, 1, 2, 3], &[0, 1, 4, 9]);
        let (at, s_len) = affine(&s_strides);
        let guarded = match draw.next() % 7 {
            0 | 1 => [true, false],
            2 | 3 => [false, true],
            4 | 5 => [true, true],
            _ => [false, false],
        };
        let (x, y) = (
            Var::new("X", DType::float32()),
            Var::new("Y", DType::float32()),
        );
        let mut lens = [0i64; 2];
        let mut factors = Vec::new();
        let mut guards = Vec::new();
        for (f, buffer) in [&x, &y].into_iter().enumerate() {
            let s = strides(&mut draw, &[-1, 0, 1, 2, 3], &[-2, -1, 0, 1, 3]);
            see(format!("factor stride {}", stride_name(s[depth - 1])));
            let (index, len) = affine(&s);
            lens[f] = len;
            if !guarded[f] {
                factors.push(Expr::load(buffer, index));
                continue;
            }
            // The guard's side: its innermost stride decides which end of
            // a row it cuts; `lo` and `hi` are placed around its range.
            let g = strides(&mut draw, &[-1, 1, 2], &[-1, 0, 1, 2]);
            let (side, range) = affine(&g);
            let (lo, hi) = match draw.next() % 5 {
                0 => (range, range + 3),
                1 => (0, range),
                2 => (1, range),
                3 => (1, range - 1),
                _ => (range / 2, range),
            };
            let konst = draw.pick(&[0.0, -0.0, 1.5, -2.25]);
            guards.push((g, lo, hi));
            factors.push(padded(within(side, lo, hi), buffer, index, konst));
        }
        // Which rows each guard leaves empty, cuts or keeps whole.
        let points = extents[..depth - 1]
            .iter()
            .fold(vec![vec![]], |points, &e| {
                let grown = points
                    .iter()
                    .flat_map(|p: &Vec<i64>| (0..e).map(move |k| [p.clone(), vec![k]].concat()));
                grown.collect()
            });
        for (g, lo, hi) in &guards {
            let shift: i64 = g
                .iter()
                .zip(&extents)
                .map(|(&c, &e)| c.min(0) * (e - 1))
                .sum();
            for point in &points {
                let holds: Vec<bool> = (0..n)
                    .map(|t| {
                        let k = point.iter().chain([&t]);
                        let v = g.iter().zip(k).map(|(c, k)| c * k).sum::<i64>() - shift;
                        *lo <= v && v < *hi
                    })
                    .collect();
                see(format!("span {}", span_kind(&holds)));
            }
        }
        see(format!("S stride {}", stride_name(s_strides[depth - 1])));
        if n == 1 {
            see("row of 1".into());
        }
        let s = Var::new("S", DType::float32());
        let [a, b]: [Expr; 2] = factors.try_into().expect("two factors");
        let mut body = mac_of(&s, at, a, b);
        let kinds = [ForKind::Serial, ForKind::Unrolled, ForKind::Vectorized];
        for j in (0..depth).rev() {
            body = Stmt::loop_(&vars[j], 0, extents[j], draw.pick(&kinds), body);
        }
        let f = f32_func(
            vec![x, y, s],
            vec![lens[0] as usize, lens[1] as usize, s_len as usize],
            body,
        );
        let guarded = guarded.iter().filter(|&&g| g).count();
        assert_eq!(
            nests_f32(&f),
            (vec![depth], guarded),
            "case {case}:\n{}",
            f.body
        );
        let arrays = [
            draw.values(lens[0] as usize),
            draw.values(lens[1] as usize),
            draw.values(s_len as usize),
        ];
        let run = agreed(&f, f32_buffers(arrays.to_vec()), |_| {});
        let volume: i64 = extents.iter().product();
        assert_eq!((run.result.is_ok(), run.stores), (true, volume as u64));
    }
    // Unguarded nests into one element of `S`, which keep the sum in a
    // register: the innermost level joins each level around it along which
    // both factors walk on from where the level inside it ends (the inner
    // stride times the iterations inside it, negative ones too), and an
    // odometer steps the rest. Each outer level is drawn to join or not.
    for case in 0..200 {
        let depth = 2 + (draw.next() % 4) as usize;
        let vars: Vec<Var> = (0..depth).map(|j| Var::int(format!("l{j}"))).collect();
        let mut extents: Vec<i64> = (0..depth - 1).map(|_| draw.pick(&[1, 2, 3])).collect();
        extents.push(draw.pick(&[1, 2, 3, 5, 7]));
        let inner = [0, 1].map(|_| draw.pick(&[-2, -1, 0, 1, 3]));
        let mut strides = inner.map(|s| vec![s; depth]);
        let mut inside = extents[depth - 1];
        for j in (0..depth - 1).rev() {
            let join = !draw.next().is_multiple_of(3);
            for (f, s) in strides.iter_mut().enumerate() {
                s[j] = if join {
                    inner[f] * inside
                } else {
                    draw.pick(&[-5, -1, 0, 2, 7])
                };
            }
            inside *= extents[j];
        }
        // How many outer levels join, as the kernel finds them.
        let mut joined = 0;
        let mut inside = extents[depth - 1];
        for j in (0..depth - 1).rev() {
            if strides.iter().zip(inner).any(|(s, i)| s[j] != i * inside) {
                break;
            }
            joined += 1;
            inside *= extents[j];
        }
        see(match joined {
            0 => "no level joins".into(),
            j if j == depth - 1 => "every level joins".into(),
            _ => "some levels join".into(),
        });
        if strides.iter().flatten().any(|&s| s < 0) {
            see("negative stride into a register sum".into());
        }
        let [x, y, s] = ["X", "Y", "S"].map(|n| Var::new(n, DType::float32()));
        let [(xi, x_len), (yi, y_len)] = [0, 1].map(|f| shifted(&vars, &extents, &strides[f]));
        let mut body = mac(&s, Expr::int(1), &x, xi, &y, yi);
        let kinds = [ForKind::Serial, ForKind::Unrolled, ForKind::Vectorized];
        for j in (0..depth).rev() {
            body = Stmt::loop_(&vars[j], 0, extents[j], draw.pick(&kinds), body);
        }
        let f = f32_func(vec![x, y, s], vec![x_len as usize, y_len as usize, 2], body);
        let p = Program::compile_f32(&f);
        let formed = (p.reduce_depths(), p.guarded_factors(), p.register_sums());
        assert_eq!(formed, (vec![depth], 0, 1), "case {case}:\n{}", f.body);
        let arrays = [
            draw.values(x_len as usize),
            draw.values(y_len as usize),
            draw.values(2),
        ];
        let run = agreed(&f, f32_buffers(arrays.to_vec()), |_| {});
        let volume: i64 = extents.iter().product();
        assert_eq!((run.result.is_ok(), run.stores), (true, volume as u64));
    }
    let wanted = [
        "span empty",
        "span cut at the left",
        "span cut at the right",
        "span cut at both ends",
        "span full",
        "factor stride -1",
        "factor stride 0",
        "factor stride 1",
        "factor stride > 1",
        "S stride 0",
        "S stride 1",
        "S stride > 1",
        "row of 1",
        "every level joins",
        "some levels join",
        "no level joins",
        "negative stride into a register sum",
    ];
    for what in wanted {
        assert!(seen.contains_key(what), "no case has {what}: {seen:?}");
    }
}

#[test]
fn a_constant_piece_multiplies_inf_and_nan_and_flips_the_sign_of_zero() {
    // S[i] (and, summed, S[0]) += (X[i - 2] if 2 <= i < 5 else 0.0) * Y[i]
    // from S = -0.0: outside the span the constant still multiplies Y, so
    // 0 * inf and 0 * NaN are NaN, and -0.0 + 0.0 * 1.5 is +0.0. A kernel
    // that skipped the constant's pieces would leave -0.0, and no NaN.
    let (s, x, y, k) = sxyk();
    let inf = f32::INFINITY;
    let ys = vec![inf, 1.5, 2.0, -0.5, 4.0, f32::NAN, -1.25, 3.0];
    let xs = vec![0.75, -2.0, 1.0];
    let a = padded(within(k.to_expr(), 2, 5), &x, k.clone() - 2, 0.0);
    for (at, s_len) in [(k.to_expr(), 8), (Expr::int(0), 1)] {
        let body = mac_of(&s, at, a.clone(), Expr::load(&y, k.to_expr()));
        let f = f32_func(
            vec![x.clone(), y.clone(), s.clone()],
            vec![3, 8, s_len],
            Stmt::for_(&k, 0, 8, body),
        );
        assert_eq!(nests_f32(&f), (vec![1], 1));
        let got = both_held(&f, &[xs.clone(), ys.clone(), vec![-0.0; s_len]]);
        let term = |i: usize| if (2..5).contains(&i) { xs[i - 2] } else { 0.0 };
        if s_len == 8 {
            let want: Vec<f32> = (0..8).map(|i| dot(-0.0, [(term(i), ys[i])])).collect();
            assert!(got[2][0].is_nan() && got[2][5].is_nan(), "{:?}", got[2]);
            assert_eq!(got[2][1].to_bits(), 0.0f32.to_bits());
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[2][1..5]), bits(&want[1..5]));
            assert_eq!(bits(&got[2][6..]), bits(&want[6..]));
        } else {
            assert!(got[2][0].is_nan(), "{:?}", got[2]);
        }
    }
}

#[test]
fn constant_division_floors_exactly_in_both_engines() {
    // `Q[i] = X[i] // k` and `R[i] = X[i] % k` over `int64` dividends at the
    // ends of `i64`, around `0` and `±k`, and drawn from a seed, for every
    // `k` in 1..=1024 (shifts and masks at the powers of two, multiply-high
    // elsewhere), large odd `k`, and negative `k`, which divide in
    // hardware. `i64::MIN // -1` wraps to `i64::MIN`, remainder `0`.
    let (x, q, r, i) = (
        Var::new("X", DType::int64()),
        Var::new("Q", DType::int64()),
        Var::new("R", DType::int64()),
        Var::int("i"),
    );
    let large = [(1i64 << 31) - 1, 1_000_000_007, (1 << 62) + 1, i64::MAX];
    let mut draw = Draw(43);
    for k in (1..=1024).chain(large).chain([-1, -3, -16]) {
        let mut xs = vec![
            i64::MIN,
            i64::MIN + 1,
            -k - 1,
            -k,
            -1,
            0,
            k - 1,
            k,
            i64::MAX,
        ];
        xs.extend((0..7).map(|_| draw.next() as i64));
        let n = xs.len();
        let at = || Expr::load(&x, i.to_expr());
        let body = Stmt::for_(
            &i,
            0,
            n as i64,
            Stmt::seq(vec![
                Stmt::store(&q, i.to_expr(), at().floordiv(Expr::int(k))),
                Stmt::store(&r, i.to_expr(), at() % Expr::int(k)),
            ]),
        );
        let f = func(
            vec![x.clone(), q.clone(), r.clone()],
            vec![DType::int64(); 3],
            vec![n; 3],
            body,
        );
        let bufs = vec![
            Buffer::from_i64(DType::int64(), &xs),
            Buffer::zeros(DType::int64(), n),
            Buffer::zeros(DType::int64(), n),
        ];
        let hardware = if k > 0 { 0 } else { 2 };
        assert_eq!(program(&f, &bufs).hardware_divides(), hardware, "{k}");
        let got = both(&f, bufs).expect("no divisor is zero");
        let want = |op: fn(i64, i64) -> i64| xs.iter().map(|&v| op(v, k)).collect::<Vec<_>>();
        assert_eq!(got[1].to_i64(), want(tvm_ir::floor_div), "{xs:?} // {k}");
        assert_eq!(got[2].to_i64(), want(tvm_ir::floor_mod), "{xs:?} % {k}");
    }
}
