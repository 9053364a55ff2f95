//! Mini-C pretty printer. Output re-parses with `vapor-frontend`
//! (round-trip tested there).

use std::fmt::Write as _;

use crate::expr::Expr;
use crate::kernel::{ArrayKind, Kernel, VarKind};
use crate::sem::{BinOp, UnOp};
use crate::stmt::Stmt;

/// Operator precedence (higher binds tighter). Must match the parser.
pub fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::CmpEq | BinOp::CmpLt => 1,
        BinOp::Or => 2,
        BinOp::Xor => 3,
        BinOp::And => 4,
        BinOp::Shl | BinOp::Shr => 5,
        BinOp::Add | BinOp::Sub => 6,
        BinOp::Mul | BinOp::Div => 7,
        BinOp::Min | BinOp::Max => 8, // rendered as calls; never ambiguous
    }
}

fn write_expr(out: &mut String, k: &Kernel, e: &Expr, parent_prec: u8) {
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Float(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else if v.is_infinite() {
                // A literal too large for `f64` reads back as infinity.
                out.push_str(if *v > 0.0 { "1e999" } else { "-1e999" });
            } else if v.fract() == 0.0 {
                // `{v}` prints a large whole float as integer digits.
                let _ = write!(out, "{v:e}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Expr::Var(v) => out.push_str(&k.var(*v).name),
        Expr::Load { array, index } => {
            out.push_str(&k.array(*array).name);
            out.push('[');
            write_expr(out, k, index, 0);
            out.push(']');
        }
        Expr::Bin { op, lhs, rhs } => match op {
            BinOp::Min | BinOp::Max => {
                out.push_str(op.symbol());
                out.push('(');
                write_expr(out, k, lhs, 0);
                out.push_str(", ");
                write_expr(out, k, rhs, 0);
                out.push(')');
            }
            _ => {
                let p = precedence(*op);
                if p < parent_prec {
                    out.push('(');
                }
                write_expr(out, k, lhs, p);
                let _ = write!(out, " {} ", op.symbol());
                // Left-associative grammar: right operand needs one more level.
                write_expr(out, k, rhs, p + 1);
                if p < parent_prec {
                    out.push(')');
                }
            }
        },
        Expr::Un { op, arg } => match op {
            UnOp::Neg => {
                out.push('-');
                write_expr(out, k, arg, 9);
            }
            UnOp::Abs | UnOp::Sqrt => {
                out.push_str(op.name());
                out.push('(');
                write_expr(out, k, arg, 0);
                out.push(')');
            }
        },
        Expr::Cast { ty, arg } => {
            let _ = write!(out, "({ty})");
            write_expr(out, k, arg, 9);
        }
    }
}

fn write_stmt(out: &mut String, k: &Kernel, s: &Stmt, indent: usize) {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let name = &k.var(*var).name;
            let _ = write!(out, "{pad}for (long {name} = ");
            write_expr(out, k, lo, 0);
            let _ = write!(out, "; {name} < ");
            write_expr(out, k, hi, 0);
            if *step == 1 {
                let _ = writeln!(out, "; {name}++) {{");
            } else {
                let _ = writeln!(out, "; {name} += {step}) {{");
            }
            for st in body {
                write_stmt(out, k, st, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Assign { var, value } => {
            let _ = write!(out, "{pad}{} = ", k.var(*var).name);
            write_expr(out, k, value, 0);
            out.push_str(";\n");
        }
        Stmt::Store {
            array,
            index,
            value,
        } => {
            let _ = write!(out, "{pad}{}[", k.array(*array).name);
            write_expr(out, k, index, 0);
            out.push_str("] = ");
            write_expr(out, k, value, 0);
            out.push_str(";\n");
        }
    }
}

/// Render a kernel as mini-C source text.
pub fn print_kernel(k: &Kernel) -> String {
    let mut out = String::new();
    let _ = write!(out, "kernel {}(", k.name);
    let mut first = true;
    for v in k.vars.iter().filter(|v| v.kind == VarKind::Param) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{} {}", v.ty, v.name);
    }
    for a in &k.arrays {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let prefix = match a.kind {
            ArrayKind::Global => "global ",
            ArrayKind::PointerParam => "",
        };
        let _ = write!(out, "{prefix}{} {}[]", a.elem, a.name);
    }
    out.push_str(") {\n");
    for v in k.vars.iter().filter(|v| v.kind == VarKind::Local) {
        let _ = writeln!(out, "  {} {};", v.ty, v.name);
    }
    for s in &k.body {
        write_stmt(&mut out, k, s, 1);
    }
    out.push_str("}\n");
    out
}

/// Render one expression (handy in error messages and debug output).
pub fn print_expr(k: &Kernel, e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, k, e, 0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ty::ScalarTy;

    #[test]
    fn prints_saxpy_like_c() {
        let mut b = KernelBuilder::new("saxpy");
        let n = b.scalar_param("n", ScalarTy::I64);
        let a = b.scalar_param("alpha", ScalarTy::F32);
        let x = b.array_param("x", ScalarTy::F32);
        let y = b.array_param("y", ScalarTy::F32);
        let i = b.fresh_loop_var("i");
        b.for_loop(i, Expr::Int(0), Expr::Var(n), 1, |b| {
            b.store(
                y,
                Expr::Var(i),
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, Expr::Var(a), Expr::load(x, Expr::Var(i))),
                    Expr::load(y, Expr::Var(i)),
                ),
            );
        });
        let k = b.finish();
        let text = print_kernel(&k);
        assert!(text.contains("kernel saxpy(long n, float alpha, float x[], float y[]) {"));
        assert!(text.contains("y[i] = alpha * x[i] + y[i];"));
    }

    #[test]
    fn parenthesizes_by_precedence() {
        let mut b = KernelBuilder::new("t");
        let x = b.scalar_param("x", ScalarTy::I32);
        let k = b.finish();
        // (x + x) * x needs parens; x + x * x does not.
        let sum = Expr::bin(BinOp::Add, Expr::Var(x), Expr::Var(x));
        let e = Expr::bin(BinOp::Mul, sum.clone(), Expr::Var(x));
        assert_eq!(print_expr(&k, &e), "(x + x) * x");
        let e = Expr::bin(
            BinOp::Add,
            Expr::Var(x),
            Expr::bin(BinOp::Mul, Expr::Var(x), Expr::Var(x)),
        );
        assert_eq!(print_expr(&k, &e), "x + x * x");
        // Left-assoc: a - (b - c) must keep parens.
        let e = Expr::bin(
            BinOp::Sub,
            Expr::Var(x),
            Expr::bin(BinOp::Sub, Expr::Var(x), Expr::Var(x)),
        );
        assert_eq!(print_expr(&k, &e), "x - (x - x)");
    }

    #[test]
    fn every_float_prints_as_a_float_literal() {
        let k = KernelBuilder::new("t").finish();
        let show = |v: f64| print_expr(&k, &Expr::Float(v));
        assert_eq!(show(3.0), "3.0");
        assert_eq!(show(0.2), "0.2");
        assert_eq!(show(1e20), "1e20");
        assert_eq!(show(-1.5e300), "-1.5e300");
        assert_eq!(show(f64::INFINITY), "1e999");
        assert_eq!(show(f64::NEG_INFINITY), "-1e999");
    }

    #[test]
    fn min_max_render_as_calls() {
        let mut b = KernelBuilder::new("t");
        let x = b.scalar_param("x", ScalarTy::I32);
        let k = b.finish();
        let e = Expr::bin(BinOp::Max, Expr::Var(x), Expr::Int(0));
        assert_eq!(print_expr(&k, &e), "max(x, 0)");
    }
}
