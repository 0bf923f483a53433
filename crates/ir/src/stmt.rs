//! The low-level statement IR: loop nests, stores, allocations and the
//! synchronization primitives needed by GPU barriers and the decoupled
//! access-execute (DAE) accelerator pipeline of §4.4.

use std::fmt;
use std::sync::Arc;

use crate::dtype::DType;
use crate::expr::{Expr, Var, VarId};
use crate::idhash::IdMap;
use crate::visit::{find_stmt, Visitor};

/// Each allocated buffer's memory scope and `Var`, keyed by its id
/// ([`Stmt::alloc_scopes`]).
pub type BufferScopes = IdMap<VarId, (MemScope, Var)>;

/// GPU thread-axis tags for the `bind` schedule primitive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThreadTag {
    /// Grid x dimension.
    BlockIdxX,
    /// Grid y dimension.
    BlockIdxY,
    /// Grid z dimension.
    BlockIdxZ,
    /// Block-local thread x dimension.
    ThreadIdxX,
    /// Block-local thread y dimension.
    ThreadIdxY,
    /// Block-local thread z dimension.
    ThreadIdxZ,
}

impl ThreadTag {
    /// True for the block (grid) axes.
    pub fn is_block(self) -> bool {
        matches!(
            self,
            ThreadTag::BlockIdxX | ThreadTag::BlockIdxY | ThreadTag::BlockIdxZ
        )
    }

    /// Canonical name, e.g. `threadIdx.x`.
    pub fn name(self) -> &'static str {
        match self {
            ThreadTag::BlockIdxX => "blockIdx.x",
            ThreadTag::BlockIdxY => "blockIdx.y",
            ThreadTag::BlockIdxZ => "blockIdx.z",
            ThreadTag::ThreadIdxX => "threadIdx.x",
            ThreadTag::ThreadIdxY => "threadIdx.y",
            ThreadTag::ThreadIdxZ => "threadIdx.z",
        }
    }
}

/// Execution flavor of a [`StmtNode::For`] loop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ForKind {
    /// Ordinary sequential loop.
    Serial,
    /// CPU multi-core parallel loop (`parallel` schedule primitive).
    Parallel,
    /// SIMD-vectorized loop (`vectorize`).
    Vectorized,
    /// Fully unrolled loop (`unroll`).
    Unrolled,
    /// Loop bound to a GPU thread axis (`bind`); iterations run on distinct
    /// hardware threads.
    ThreadBinding(ThreadTag),
    /// Virtual thread for DAE latency hiding (§4.4); eliminated by the
    /// virtual-thread lowering pass which interleaves its iterations.
    VThread,
}

/// Memory scope of an allocation — the paper's "special memory scope"
/// schedule space extension (Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemScope {
    /// Off-chip DRAM, visible to all threads.
    Global,
    /// GPU shared memory: visible within a thread block, requires barriers.
    Shared,
    /// Per-thread registers / stack.
    Local,
    /// Accelerator on-chip accumulator SRAM (VDLA `acc_buffer`).
    AccBuffer,
    /// Accelerator on-chip input SRAM (VDLA `inp_buffer`).
    InpBuffer,
    /// Accelerator on-chip weight SRAM (VDLA `wgt_buffer`).
    WgtBuffer,
}

impl MemScope {
    /// Canonical name used by the printer and the schedule API.
    pub fn name(self) -> &'static str {
        match self {
            MemScope::Global => "global",
            MemScope::Shared => "shared",
            MemScope::Local => "local",
            MemScope::AccBuffer => "acc_buffer",
            MemScope::InpBuffer => "inp_buffer",
            MemScope::WgtBuffer => "wgt_buffer",
        }
    }

    /// Parses a scope name.
    pub fn parse(s: &str) -> Option<MemScope> {
        Some(match s {
            "global" => MemScope::Global,
            "shared" => MemScope::Shared,
            "local" => MemScope::Local,
            "acc_buffer" => MemScope::AccBuffer,
            "inp_buffer" => MemScope::InpBuffer,
            "wgt_buffer" => MemScope::WgtBuffer,
            _ => return None,
        })
    }
}

/// DAE pipeline stages between which dependence tokens flow (Fig. 9).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PipeStage {
    /// Memory load unit.
    Load,
    /// Compute (GEMM / ALU) unit.
    Compute,
    /// Memory store unit.
    Store,
}

impl PipeStage {
    /// Canonical short name (`ld` / `ex` / `st`), matching Fig. 8.
    pub fn name(self) -> &'static str {
        match self {
            PipeStage::Load => "ld",
            PipeStage::Compute => "ex",
            PipeStage::Store => "st",
        }
    }
}

/// Interior node of a [`Stmt`] tree.
#[derive(Clone, Debug)]
pub enum StmtNode {
    /// `let var = value; body`.
    LetStmt { var: Var, value: Expr, body: Stmt },
    /// Key/value annotation wrapped around `body` (e.g. pragmas, pipeline
    /// stage tags for DAE lowering).
    AttrStmt {
        key: String,
        value: Expr,
        body: Stmt,
    },
    /// Scalar or vector store `buffer[index] = value`.
    Store {
        buffer: Var,
        index: Expr,
        value: Expr,
        predicate: Option<Expr>,
    },
    /// Allocation of `extent` elements of `dtype` in `scope`, live for
    /// `body`.
    Allocate {
        buffer: Var,
        dtype: DType,
        extent: Expr,
        scope: MemScope,
        body: Stmt,
    },
    /// Loop `for var in [min, min+extent) { body }` with execution `kind`.
    For {
        var: Var,
        min: Expr,
        extent: Expr,
        kind: ForKind,
        body: Stmt,
    },
    /// Statement sequence.
    Seq(Vec<Stmt>),
    /// Conditional.
    IfThenElse {
        cond: Expr,
        then_case: Stmt,
        else_case: Option<Stmt>,
    },
    /// Expression evaluated for effect (hardware intrinsic calls).
    Evaluate(Expr),
    /// `memory_barrier_among_threads()` — synchronizes a GPU thread block
    /// and makes shared-memory stores visible (§4.2).
    Barrier,
    /// DAE token push: `from.push_dep_to(to)` (§4.4 / Fig. 8).
    PushDep { from: PipeStage, to: PipeStage },
    /// DAE token pop: `by.pop_dep_from(from)`.
    PopDep { by: PipeStage, from: PipeStage },
}

/// A reference-counted, immutable statement.
#[derive(Clone, Debug)]
pub struct Stmt(pub Arc<StmtNode>);

impl Stmt {
    /// Wraps a node.
    pub fn new(node: StmtNode) -> Self {
        Stmt(Arc::new(node))
    }

    /// Unpredicated flat store.
    pub fn store(buffer: &Var, index: Expr, value: Expr) -> Stmt {
        Stmt::new(StmtNode::Store {
            buffer: buffer.clone(),
            index,
            value,
            predicate: None,
        })
    }

    /// Serial loop.
    pub fn for_(var: &Var, min: impl Into<Expr>, extent: impl Into<Expr>, body: Stmt) -> Stmt {
        Stmt::loop_(var, min, extent, ForKind::Serial, body)
    }

    /// Loop with an explicit kind.
    pub fn loop_(
        var: &Var,
        min: impl Into<Expr>,
        extent: impl Into<Expr>,
        kind: ForKind,
        body: Stmt,
    ) -> Stmt {
        Stmt::new(StmtNode::For {
            var: var.clone(),
            min: min.into(),
            extent: extent.into(),
            kind,
            body,
        })
    }

    /// Sequence, flattening nested sequences and dropping no-ops.
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        let mut flat = Vec::with_capacity(stmts.len());
        for s in stmts {
            match &*s.0 {
                StmtNode::Seq(inner) => flat.extend(inner.iter().cloned()),
                _ => flat.push(s),
            }
        }
        match <[Stmt; 1]>::try_from(flat) {
            Ok([only]) => only,
            Err(flat) => Stmt::new(StmtNode::Seq(flat)),
        }
    }

    /// No-op statement (empty sequence).
    pub fn nop() -> Stmt {
        Stmt::new(StmtNode::Seq(Vec::new()))
    }

    /// True if this is an empty sequence.
    pub fn is_nop(&self) -> bool {
        matches!(&*self.0, StmtNode::Seq(v) if v.is_empty())
    }

    /// True when both handles point at the same node — how a
    /// [`crate::Mutator`] reports "unchanged".
    pub fn same_as(&self, other: &Stmt) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Allocation wrapper.
    pub fn allocate(
        buffer: &Var,
        dtype: DType,
        extent: impl Into<Expr>,
        scope: MemScope,
        body: Stmt,
    ) -> Stmt {
        Stmt::new(StmtNode::Allocate {
            buffer: buffer.clone(),
            dtype,
            extent: extent.into(),
            scope,
            body,
        })
    }

    /// Annotation wrapper.
    pub fn attr(key: impl Into<String>, value: Expr, body: Stmt) -> Stmt {
        Stmt::new(StmtNode::AttrStmt {
            key: key.into(),
            value,
            body,
        })
    }

    /// Conditional with no else branch.
    pub fn if_then(cond: Expr, then_case: Stmt) -> Stmt {
        Stmt::new(StmtNode::IfThenElse {
            cond,
            then_case,
            else_case: None,
        })
    }

    /// Hardware/pure intrinsic evaluated for effect.
    pub fn evaluate(e: Expr) -> Stmt {
        Stmt::new(StmtNode::Evaluate(e))
    }

    /// True if a `Barrier` statement occurs anywhere in this statement.
    pub fn contains_barrier(&self) -> bool {
        find_stmt(self, |s| matches!(&*s.0, StmtNode::Barrier).then_some(true))
    }

    /// The scope of every buffer `Allocate`d anywhere in this statement.
    /// Buffers it does not allocate, such as function parameters, are
    /// absent; callers treat them as global.
    pub fn alloc_scopes(&self) -> BufferScopes {
        struct Scopes(BufferScopes);
        impl Visitor for Scopes {
            fn visit_expr(&mut self, _: &Expr) {}

            fn visit_stmt(&mut self, s: &Stmt) {
                if let StmtNode::Allocate { buffer, scope, .. } = &*s.0 {
                    self.0.insert(buffer.id(), (*scope, buffer.clone()));
                }
                self.walk_stmt(s);
            }
        }
        let mut v = Scopes(BufferScopes::default());
        v.visit_stmt(self);
        v.0
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_stmt(self, f, 0)
    }
}

/// A lowered function: the unit handed to back-ends, simulators and the
/// interpreter.
#[derive(Clone, Debug)]
pub struct LoweredFunc {
    /// Function name.
    pub name: String,
    /// Parameter order: buffer handles first (in user-specified order), then
    /// scalar params.
    pub params: Vec<Var>,
    /// Element type of each buffer param, parallel to the buffer prefix of
    /// `params`.
    pub param_dtypes: Vec<DType>,
    /// Flat length (elements) of each buffer param.
    pub param_extents: Vec<usize>,
    /// Function body.
    pub body: Stmt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;

    #[test]
    fn seq_flattens() {
        let buf = Var::new("b", DType::float32());
        let s1 = Stmt::store(&buf, Expr::int(0), Expr::f32(1.0));
        let s2 = Stmt::store(&buf, Expr::int(1), Expr::f32(2.0));
        let nested = Stmt::seq(vec![Stmt::seq(vec![s1.clone(), s2.clone()]), s1.clone()]);
        match &*nested.0 {
            StmtNode::Seq(v) => assert_eq!(v.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn seq_of_one_unwraps() {
        let buf = Var::new("b", DType::float32());
        let s1 = Stmt::store(&buf, Expr::int(0), Expr::f32(1.0));
        let s = Stmt::seq(vec![s1]);
        assert!(matches!(&*s.0, StmtNode::Store { .. }));
    }

    #[test]
    fn barriers_and_allocations_are_found_in_every_branch() {
        let (out, tmp) = (
            Var::new("o", DType::float32()),
            Var::new("t", DType::float32()),
        );
        let (i, x) = (Var::int("i"), Var::int("x"));
        let store = Stmt::store(&out, Expr::int(0), Expr::f32(1.0));
        let branchy = |else_case: Stmt| {
            Stmt::new(StmtNode::IfThenElse {
                cond: i.to_expr().lt(Expr::int(1)),
                then_case: store.clone(),
                else_case: Some(else_case),
            })
        };
        let nest = |leaf: Stmt| {
            let let_ = Stmt::new(StmtNode::LetStmt {
                var: x.clone(),
                value: Expr::int(2),
                body: branchy(leaf),
            });
            Stmt::for_(&i, 0, 4, Stmt::attr("k", Expr::int(0), let_))
        };
        let barrier = Stmt::seq(vec![store.clone(), Stmt::new(StmtNode::Barrier)]);
        assert!(nest(barrier).contains_barrier());
        assert!(!nest(store.clone()).contains_barrier());
        let alloc = Stmt::allocate(&tmp, DType::float32(), 8, MemScope::Shared, store.clone());
        let scopes = nest(alloc).alloc_scopes();
        assert_eq!(scopes.len(), 1);
        assert_eq!(scopes[&tmp.id()].0, MemScope::Shared);
        assert!(nest(store.clone()).alloc_scopes().is_empty());
    }

    #[test]
    fn scope_parse_round_trip() {
        for s in [
            MemScope::Global,
            MemScope::Shared,
            MemScope::Local,
            MemScope::AccBuffer,
            MemScope::InpBuffer,
            MemScope::WgtBuffer,
        ] {
            assert_eq!(MemScope::parse(s.name()), Some(s));
        }
        assert_eq!(MemScope::parse("bogus"), None);
    }
}
