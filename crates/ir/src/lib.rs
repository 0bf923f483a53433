//! `tvm-ir` — the low-level intermediate representation of the tvm-rs stack.
//!
//! This crate provides the typed expression and loop-statement IR that the
//! tensor-expression layer (`tvm-te`) lowers into, together with the
//! analyses and tools every other layer relies on:
//!
//! * [`dtype`] — scalar/vector numeric types, including sub-byte quantized
//!   integers and `float16`;
//! * [`expr`] / [`stmt`] — immutable reference-counted IR trees with
//!   operator-overloaded builders;
//! * [`visit`] — visitor/mutator traversal and variable substitution;
//! * [`mod@simplify`] — constant folding, affine canonicalization and
//!   interval-based predicate elimination;
//! * [`interval`] — conservative integer range analysis;
//! * [`idhash`] — the deterministic hasher of maps keyed by ids;
//! * [`printer`] — the Python-like pseudo-code printer used in the paper's
//!   listings;
//! * [`interp`] / [`flat`] — the interpreter: one engine, which compiles a
//!   function to a flat register program and runs it with faithful GPU
//!   barrier semantics. Its oracle, a tree walker, lives with the other
//!   oracles in `tvm_verify::reference`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dtype;
pub mod expr;
pub mod flat;
pub mod idhash;
pub mod interp;
pub mod interval;
pub mod printer;
pub mod simplify;
pub mod stmt;
pub mod visit;

pub use dtype::{DType, TypeCode};
pub use expr::{BinOp, CallKind, CmpOp, Expr, ExprNode, Range, Var, VarId};
pub use flat::{Program, Storage};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use interp::{Buffer, Interp, InterpError, MemState, Value};
pub use interval::{eval_interval, floor_div, floor_mod, prove_cmp, Interval};
pub use simplify::{eval_const, simplify, simplify_stmt, simplify_with, Simplifier};
pub use stmt::{
    BufferScopes, ForKind, LoweredFunc, MemScope, PipeStage, Stmt, StmtNode, ThreadTag,
};
pub use visit::{
    collect_vars, find_stmt, substitute, substitute_one, substitute_stmt, Mutator, Visitor,
};
