//! VDLA instruction stream generation.
//!
//! The compiler (tvm-te with `dae_sync` lowering) produces a loop program
//! whose leaves are DMA-copy pragma regions, `vdla.*` hardware-intrinsic
//! calls and dependence-token operations. This module statically unrolls
//! that program into the linear instruction stream the accelerator
//! consumes (Fig. 8 right column / Fig. 9 instruction stream).

use std::collections::HashMap;

use tvm_ir::expr::ExprNode;
use tvm_ir::stmt::StmtNode;
use tvm_ir::{BufferScopes, Expr, LoweredFunc, MemScope, PipeStage, Stmt, VarId};

/// One VDLA instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum VdlaInstr {
    /// DMA from DRAM into on-chip SRAM.
    Load {
        /// Payload size.
        bytes: u64,
    },
    /// DMA from the accumulator to DRAM.
    Store {
        /// Payload size.
        bytes: u64,
    },
    /// Dense tile on the GEMM core.
    Gemm {
        /// Multiply-accumulates performed.
        macs: u64,
    },
    /// Vector-ALU tile (bias add, activation, accumulator reset).
    Alu {
        /// Element operations performed.
        ops: u64,
    },
    /// Dependence-token push (`from.push_dep_to(to)`).
    Push {
        /// Producing unit.
        from: PipeStage,
        /// Consuming unit.
        to: PipeStage,
    },
    /// Dependence-token pop (`by.pop_dep_from(from)`).
    Pop {
        /// Unit that blocks.
        by: PipeStage,
        /// Unit whose token is awaited.
        from: PipeStage,
    },
}

impl VdlaInstr {
    /// The unit that executes this instruction.
    pub fn unit(&self) -> PipeStage {
        match self {
            VdlaInstr::Load { .. } => PipeStage::Load,
            VdlaInstr::Store { .. } => PipeStage::Store,
            VdlaInstr::Gemm { .. } | VdlaInstr::Alu { .. } => PipeStage::Compute,
            VdlaInstr::Push { from, .. } => *from,
            VdlaInstr::Pop { by, .. } => *by,
        }
    }
}

/// Trace-generation error.
#[derive(Debug, Clone)]
pub struct IsaError(pub String);

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vdla trace error: {}", self.0)
    }
}
impl std::error::Error for IsaError {}

/// Generates the instruction stream for a DAE-lowered function.
pub fn trace(func: &LoweredFunc) -> Result<Vec<VdlaInstr>, IsaError> {
    let scopes = func.body.alloc_scopes();
    let mut out = Vec::new();
    let mut env: HashMap<VarId, i64> = HashMap::new();
    walk(&func.body, &scopes, &mut env, &mut out)?;
    Ok(out)
}

fn eval(e: &Expr, env: &HashMap<VarId, i64>) -> Result<i64, IsaError> {
    let subst: HashMap<VarId, Expr> = env.iter().map(|(k, v)| (*k, Expr::int(*v))).collect();
    tvm_ir::simplify(&tvm_ir::substitute(e, &subst))
        .as_int()
        .ok_or_else(|| IsaError(format!("non-constant expression in trace: {e}")))
}

/// Size in elements × element bytes of the stores under a DMA region.
fn dma_bytes(s: &Stmt, scopes: &BufferScopes) -> (u64, bool) {
    // Returns (bytes, is_store_to_dram).
    fn inner(s: &Stmt, mult: u64, scopes: &BufferScopes, acc: &mut (u64, bool)) {
        match &*s.0 {
            StmtNode::For { extent, body, .. } => inner(
                body,
                mult * extent.as_int().unwrap_or(1).max(0) as u64,
                scopes,
                acc,
            ),
            StmtNode::Seq(items) => {
                for it in items {
                    inner(it, mult, scopes, acc);
                }
            }
            StmtNode::IfThenElse { then_case, .. } => inner(then_case, mult, scopes, acc),
            StmtNode::Store { buffer, .. } => {
                acc.0 += mult * buffer.dtype().bytes() as u64;
                let scope = scopes
                    .get(&buffer.id())
                    .map_or(MemScope::Global, |&(sc, _)| sc);
                if scope == MemScope::Global {
                    acc.1 = true;
                }
            }
            StmtNode::Allocate { body, .. }
            | StmtNode::AttrStmt { body, .. }
            | StmtNode::LetStmt { body, .. } => inner(body, mult, scopes, acc),
            _ => {}
        }
    }
    let mut acc = (0u64, false);
    inner(s, 1, scopes, &mut acc);
    acc
}

fn walk(
    s: &Stmt,
    scopes: &BufferScopes,
    env: &mut HashMap<VarId, i64>,
    out: &mut Vec<VdlaInstr>,
) -> Result<(), IsaError> {
    match &*s.0 {
        StmtNode::AttrStmt { key, body, .. } if key == "pragma.dma_copy" => {
            let (bytes, to_dram) = dma_bytes(body, scopes);
            out.push(if to_dram {
                VdlaInstr::Store { bytes }
            } else {
                VdlaInstr::Load { bytes }
            });
            Ok(())
        }
        StmtNode::AttrStmt { body, .. } | StmtNode::LetStmt { body, .. } => {
            walk(body, scopes, env, out)
        }
        StmtNode::Allocate { body, .. } => walk(body, scopes, env, out),
        StmtNode::For {
            var,
            min,
            extent,
            body,
            ..
        } => {
            let lo = eval(min, env)?;
            let n = eval(extent, env)?;
            for i in lo..lo + n {
                env.insert(var.id(), i);
                walk(body, scopes, env, out)?;
            }
            env.remove(&var.id());
            Ok(())
        }
        StmtNode::Seq(items) => {
            for it in items {
                walk(it, scopes, env, out)?;
            }
            Ok(())
        }
        StmtNode::IfThenElse {
            cond,
            then_case,
            else_case,
        } => {
            if eval(cond, env)? != 0 {
                walk(then_case, scopes, env, out)
            } else if let Some(e) = else_case {
                walk(e, scopes, env, out)
            } else {
                Ok(())
            }
        }
        StmtNode::Evaluate(e) => {
            if let ExprNode::Call { name, args, .. } = &*e.0 {
                if name.starts_with("vdla.gemm") {
                    // Convention: last argument is the MAC count.
                    let macs = args
                        .last()
                        .and_then(|a| eval(a, env).ok())
                        .unwrap_or(0)
                        .max(0) as u64;
                    out.push(VdlaInstr::Gemm { macs });
                } else if name.starts_with("vdla.alu") || name.starts_with("vdla.fill") {
                    let ops = args
                        .last()
                        .and_then(|a| eval(a, env).ok())
                        .unwrap_or(0)
                        .max(0) as u64;
                    out.push(VdlaInstr::Alu { ops });
                }
            }
            Ok(())
        }
        StmtNode::Store { buffer, .. } => {
            // Fallback: plain element store on the accelerator counts as an
            // ALU op (or a DMA word if it targets DRAM).
            let scope = scopes
                .get(&buffer.id())
                .map_or(MemScope::Global, |&(sc, _)| sc);
            match scope {
                MemScope::Global => out.push(VdlaInstr::Store {
                    bytes: buffer.dtype().bytes() as u64,
                }),
                MemScope::InpBuffer | MemScope::WgtBuffer => out.push(VdlaInstr::Load {
                    bytes: buffer.dtype().bytes() as u64,
                }),
                _ => out.push(VdlaInstr::Alu { ops: 1 }),
            }
            Ok(())
        }
        StmtNode::PushDep { from, to } => {
            out.push(VdlaInstr::Push {
                from: *from,
                to: *to,
            });
            Ok(())
        }
        StmtNode::PopDep { by, from } => {
            out.push(VdlaInstr::Pop {
                by: *by,
                from: *from,
            });
            Ok(())
        }
        StmtNode::Barrier => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_ir::{DType, ForKind, Var};

    #[test]
    fn trace_unrolls_loops_and_sizes_dma() {
        let src = Var::new("A", DType::int8());
        let dst = Var::new("AL", DType::int8());
        let i = Var::int("i");
        let copy = Stmt::for_(
            &i,
            0,
            64,
            Stmt::store(&dst, i.to_expr(), Expr::load(&src, i.to_expr())),
        );
        let dma = Stmt::attr("pragma.dma_copy", Expr::int(64), copy);
        let k = Var::int("k");
        let gemm = Stmt::evaluate(Expr::hw_call(
            "vdla.gemm",
            vec![dst.to_expr(), Expr::int(256)],
            DType::int32(),
        ));
        let body = Stmt::loop_(&k, 0, 3, ForKind::Serial, Stmt::seq(vec![dma, gemm]));
        let prog = Stmt::allocate(&dst, DType::int8(), 64, MemScope::InpBuffer, body);
        let f = LoweredFunc {
            name: "t".into(),
            params: vec![src],
            param_dtypes: vec![DType::int8()],
            param_extents: vec![64],
            body: prog,
        };
        let tr = trace(&f).expect("trace");
        assert_eq!(tr.len(), 6);
        assert_eq!(tr[0], VdlaInstr::Load { bytes: 64 });
        assert_eq!(tr[1], VdlaInstr::Gemm { macs: 256 });
    }
}
