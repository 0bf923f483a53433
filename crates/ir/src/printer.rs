//! Pretty-printer producing the Python-like pseudo code used throughout the
//! paper's figures (`for yo in range(128): ...`).

use std::fmt;

use crate::expr::{BinOp, CmpOp, Expr, ExprNode};
use crate::stmt::{ForKind, Stmt, StmtNode};

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "//",
        BinOp::Mod => "%",
        BinOp::Min => "min",
        BinOp::Max => "max",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
    }
}

fn cmpop_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// Writes an expression.
pub fn fmt_expr(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    use ExprNode::*;
    match &*e.0 {
        IntImm { value, dtype } => {
            if dtype.is_bool() {
                write!(f, "{}", *value != 0)
            } else {
                write!(f, "{value}")
            }
        }
        FloatImm { value, .. } => write!(f, "{value:?}"),
        StringImm(s) => write!(f, "{s:?}"),
        Var(v) => write!(f, "{}", v.name()),
        Cast { dtype, value } => write!(f, "{dtype}({value})"),
        Binary { op, a, b, .. } => match op {
            BinOp::Min | BinOp::Max => write!(f, "{}({a}, {b})", binop_str(*op)),
            // A float division is true division; `//` is integer floor
            // division, as both engines compute them.
            BinOp::Div if e.dtype().is_float() => write!(f, "({a} / {b})"),
            _ => write!(f, "({a} {} {b})", binop_str(*op)),
        },
        Cmp { op, a, b } => write!(f, "({a} {} {b})", cmpop_str(*op)),
        And { a, b } => write!(f, "({a} and {b})"),
        Or { a, b } => write!(f, "({a} or {b})"),
        Not { a } => write!(f, "(not {a})"),
        Select {
            cond,
            then_case,
            else_case,
        } => {
            write!(f, "({then_case} if {cond} else {else_case})")
        }
        Load {
            buffer,
            index,
            predicate,
        } => {
            write!(f, "{}[{index}]", buffer.name())?;
            if let Some(p) = predicate {
                write!(f, " if {p}")?;
            }
            Ok(())
        }
        Ramp {
            base,
            stride,
            lanes,
        } => write!(f, "ramp({base}, {stride}, {lanes})"),
        Broadcast { value, lanes } => write!(f, "bcast({value}, {lanes})"),
        Let { var, value, body } => write!(f, "(let {} = {value} in {body})", var.name()),
        Call { name, args, .. } => {
            write!(f, "{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")
        }
    }
}

fn indent(f: &mut fmt::Formatter<'_>, n: usize) -> fmt::Result {
    for _ in 0..n {
        write!(f, "  ")?;
    }
    Ok(())
}

/// Writes a statement at an indentation level.
pub fn fmt_stmt(s: &Stmt, f: &mut fmt::Formatter<'_>, level: usize) -> fmt::Result {
    use StmtNode::*;
    match &*s.0 {
        LetStmt { var, value, body } => {
            indent(f, level)?;
            writeln!(f, "let {} = {value}", var.name())?;
            fmt_stmt(body, f, level)
        }
        AttrStmt { key, value, body } => {
            indent(f, level)?;
            writeln!(f, "# attr {key} = {value}")?;
            fmt_stmt(body, f, level)
        }
        Store {
            buffer,
            index,
            value,
            predicate,
        } => {
            indent(f, level)?;
            write!(f, "{}[{index}] = {value}", buffer.name())?;
            if let Some(p) = predicate {
                write!(f, " if {p}")?;
            }
            writeln!(f)
        }
        Allocate {
            buffer,
            dtype,
            extent,
            scope,
            body,
        } => {
            indent(f, level)?;
            writeln!(
                f,
                "alloc {}: {dtype}[{extent}] @{}",
                buffer.name(),
                scope.name()
            )?;
            fmt_stmt(body, f, level)
        }
        For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            indent(f, level)?;
            let kw = match kind {
                ForKind::Serial => "for",
                ForKind::Parallel => "parallel for",
                ForKind::Vectorized => "vectorized for",
                ForKind::Unrolled => "unrolled for",
                ForKind::ThreadBinding(tag) => {
                    writeln!(
                        f,
                        "for {} bound to {} in range({min}, {min} + {extent}):",
                        var.name(),
                        tag.name()
                    )?;
                    return fmt_stmt(body, f, level + 1);
                }
                ForKind::VThread => "for vthread",
            };
            if min.as_int() == Some(0) {
                writeln!(f, "{kw} {} in range({extent}):", var.name())?;
            } else {
                writeln!(f, "{kw} {} in range({min}, {min} + {extent}):", var.name())?;
            }
            fmt_stmt(body, f, level + 1)
        }
        Seq(stmts) => {
            if stmts.is_empty() {
                indent(f, level)?;
                writeln!(f, "pass")
            } else {
                for st in stmts {
                    fmt_stmt(st, f, level)?;
                }
                Ok(())
            }
        }
        IfThenElse {
            cond,
            then_case,
            else_case,
        } => {
            indent(f, level)?;
            writeln!(f, "if {cond}:")?;
            fmt_stmt(then_case, f, level + 1)?;
            if let Some(e) = else_case {
                indent(f, level)?;
                writeln!(f, "else:")?;
                fmt_stmt(e, f, level + 1)?;
            }
            Ok(())
        }
        Evaluate(e) => {
            indent(f, level)?;
            writeln!(f, "{e}")
        }
        Barrier => {
            indent(f, level)?;
            writeln!(f, "memory_barrier_among_threads()")
        }
        PushDep { from, to } => {
            indent(f, level)?;
            writeln!(f, "{}.push_dep_to({})", from.name(), to.name())
        }
        PopDep { by, from } => {
            indent(f, level)?;
            writeln!(f, "{}.pop_dep_from({})", by.name(), from.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dtype::DType;
    use crate::expr::{Expr, Var};
    use crate::stmt::Stmt;

    #[test]
    fn prints_paper_style_loops() {
        let y = Var::int("y");
        let buf = Var::new("C", DType::float32());
        let s = Stmt::for_(&y, 0, 1024, Stmt::store(&buf, y.to_expr(), Expr::f32(0.0)));
        let out = s.to_string();
        assert!(out.contains("for y in range(1024):"), "{out}");
        assert!(out.contains("C[y] = 0.0"), "{out}");
    }

    #[test]
    fn prints_expressions() {
        let x = Var::int("x");
        let e = (x.clone() * 8 + 3).min(Expr::int(100));
        assert_eq!(e.to_string(), "min(((x * 8) + 3), 100)");
    }

    #[test]
    fn prints_float_division_as_true_division_and_int_division_as_floor() {
        let (x, n) = (Var::int("x"), Var::int("n"));
        assert_eq!((x.to_expr() / n.to_expr()).to_string(), "(x // n)");
        let (a, b) = (
            Var::new("a", DType::float32()),
            Var::new("b", DType::float32()),
        );
        let e = Expr::load(&a, x.to_expr()) / Expr::load(&b, Expr::int(0));
        assert_eq!(e.to_string(), "(a[x] / b[0])");
    }
}
