//! Affine analysis of subscript expressions (the scalar-evolution slice
//! the vectorizer needs).
//!
//! A subscript is decomposed into `Σ coeff_v · v  +  Σ c_p · p  +  k`
//! where `v` ranges over loop variables (coefficients may be constants or
//! a single parameter symbol, covering `i*N + j` row-major walks), `p`
//! over scalar `long` parameters, and `k` is a constant.

use std::collections::BTreeMap;

use vapor_ir::{BinOp, Expr, Kernel, VarId, VarKind};

/// Coefficient of a loop variable: constant or a parameter symbol times a
/// constant (`i * N`, `i * 2 * N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coeff {
    /// Constant coefficient.
    Const(i64),
    /// `c * param` coefficient.
    Sym(VarId, i64),
}

impl Coeff {
    /// The constant value, if constant.
    pub fn as_const(self) -> Option<i64> {
        match self {
            Coeff::Const(c) => Some(c),
            Coeff::Sym(..) => None,
        }
    }
}

/// An affine form over loop variables and parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Affine {
    /// Per-loop-variable coefficients.
    pub loops: BTreeMap<VarId, Coeff>,
    /// Per-parameter linear terms (parameters appearing additively).
    pub params: BTreeMap<VarId, i64>,
    /// Constant term.
    pub konst: i64,
}

impl Affine {
    /// The zero form.
    pub fn zero() -> Affine {
        Affine::default()
    }

    fn constant(k: i64) -> Affine {
        Affine {
            konst: k,
            ..Default::default()
        }
    }

    fn var(k: &Kernel, v: VarId) -> Option<Affine> {
        let mut a = Affine::zero();
        match k.var(v).kind {
            VarKind::Loop => {
                a.loops.insert(v, Coeff::Const(1));
            }
            VarKind::Param => {
                a.params.insert(v, 1);
            }
            VarKind::Local => return None, // locals are not affine symbols
        }
        Some(a)
    }

    fn add(mut self, other: &Affine, sign: i64) -> Option<Affine> {
        for (v, c) in &other.loops {
            let cur = self.loops.remove(v);
            let merged = match (cur, *c) {
                (None, Coeff::Const(x)) => Coeff::Const(sign * x),
                (None, Coeff::Sym(p, x)) => Coeff::Sym(p, sign * x),
                (Some(Coeff::Const(a)), Coeff::Const(b)) => Coeff::Const(a + sign * b),
                (Some(Coeff::Sym(p, a)), Coeff::Sym(q, b)) if p == q => Coeff::Sym(p, a + sign * b),
                _ => return None, // mixed constant/symbolic coefficients
            };
            if !matches!(merged, Coeff::Const(0) | Coeff::Sym(_, 0)) {
                self.loops.insert(*v, merged);
            }
        }
        for (p, c) in &other.params {
            let e = self.params.entry(*p).or_insert(0);
            *e += sign * c;
            if *e == 0 {
                self.params.remove(p);
            }
        }
        self.konst += sign * other.konst;
        Some(self)
    }

    pub(crate) fn scale_const(mut self, c: i64) -> Option<Affine> {
        for coeff in self.loops.values_mut() {
            *coeff = match *coeff {
                Coeff::Const(x) => Coeff::Const(x * c),
                Coeff::Sym(p, x) => Coeff::Sym(p, x * c),
            };
        }
        for v in self.params.values_mut() {
            *v *= c;
        }
        self.konst *= c;
        Some(self)
    }

    /// Multiply by a single parameter symbol (only pure loop-var forms
    /// with constant coefficients can absorb it).
    fn scale_sym(mut self, p: VarId) -> Option<Affine> {
        if !self.params.is_empty() || self.konst != 0 {
            return None; // would create p*q or p*const terms beyond our form
        }
        for coeff in self.loops.values_mut() {
            *coeff = match *coeff {
                Coeff::Const(x) => Coeff::Sym(p, x),
                Coeff::Sym(..) => return None,
            };
        }
        Some(self)
    }

    /// Coefficient of a loop variable (0 if absent).
    pub fn coeff_of(&self, v: VarId) -> Coeff {
        self.loops.get(&v).copied().unwrap_or(Coeff::Const(0))
    }

    /// Whether the form mentions the loop variable at all.
    pub fn uses_loop(&self, v: VarId) -> bool {
        self.loops.contains_key(&v)
    }

    /// The difference `self - other` if representable.
    pub fn minus(&self, other: &Affine) -> Option<Affine> {
        self.clone().add(other, -1)
    }

    /// If the form is a plain constant, its value.
    pub fn as_const(&self) -> Option<i64> {
        if self.loops.is_empty() && self.params.is_empty() {
            Some(self.konst)
        } else {
            None
        }
    }
}

/// Analyze an index expression into affine form. Returns `None` for
/// non-affine subscripts (locals, products of loop variables, ...).
pub fn analyze(k: &Kernel, e: &Expr) -> Option<Affine> {
    match e {
        Expr::Int(v) => Some(Affine::constant(*v)),
        Expr::Float(_) => None,
        Expr::Var(v) => Affine::var(k, *v),
        Expr::Load { .. } => None,
        Expr::Cast { arg, .. } => analyze(k, arg),
        Expr::Un {
            op: vapor_ir::UnOp::Neg,
            arg,
        } => analyze(k, arg)?.scale_const(-1),
        Expr::Un { .. } => None,
        Expr::Bin { op, lhs, rhs } => {
            let l = analyze(k, lhs);
            let r = analyze(k, rhs);
            match op {
                BinOp::Add => l?.add(&r?, 1),
                BinOp::Sub => l?.add(&r?, -1),
                BinOp::Mul => {
                    let (l, r) = (l?, r?);
                    if let Some(c) = r.as_const() {
                        l.scale_const(c)
                    } else if let Some(c) = l.as_const() {
                        r.scale_const(c)
                    } else if r.loops.is_empty() && r.params.len() == 1 && r.konst == 0 {
                        let (&p, &c) = r.params.iter().next().unwrap();
                        if c == 1 {
                            l.scale_sym(p)
                        } else {
                            l.scale_const(c)?.scale_sym(p)
                        }
                    } else if l.loops.is_empty() && l.params.len() == 1 && l.konst == 0 {
                        let (&p, &c) = l.params.iter().next().unwrap();
                        if c == 1 {
                            r.scale_sym(p)
                        } else {
                            r.scale_const(c)?.scale_sym(p)
                        }
                    } else {
                        None
                    }
                }
                BinOp::Shl => {
                    let c = r?.as_const()?;
                    if (0..31).contains(&c) {
                        l?.scale_const(1 << c)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_ir::{KernelBuilder, ScalarTy};

    fn kernel() -> (Kernel, VarId, VarId, VarId, VarId) {
        let mut b = KernelBuilder::new("t");
        let n = b.scalar_param("n", ScalarTy::I64);
        let m = b.scalar_param("m", ScalarTy::I64);
        let i = b.fresh_loop_var("i");
        let j = b.fresh_loop_var("j");
        (b.finish(), n, m, i, j)
    }

    #[test]
    fn linear_combination() {
        let (k, n, _m, i, j) = kernel();
        // i*n + j + 3
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::Var(i), Expr::Var(n)),
                Expr::Var(j),
            ),
            Expr::Int(3),
        );
        let a = analyze(&k, &e).unwrap();
        assert_eq!(a.coeff_of(i), Coeff::Sym(n, 1));
        assert_eq!(a.coeff_of(j), Coeff::Const(1));
        assert_eq!(a.konst, 3);
    }

    #[test]
    fn strided_and_shifted() {
        let (k, _, _, i, _) = kernel();
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Int(2), Expr::Var(i)),
            Expr::Int(1),
        );
        let a = analyze(&k, &e).unwrap();
        assert_eq!(a.coeff_of(i), Coeff::Const(2));
        assert_eq!(a.konst, 1);

        let e = Expr::bin(BinOp::Shl, Expr::Var(i), Expr::Int(3));
        let a = analyze(&k, &e).unwrap();
        assert_eq!(a.coeff_of(i), Coeff::Const(8));
    }

    #[test]
    fn subtraction_cancels() {
        let (k, _, _, i, _) = kernel();
        let e = Expr::bin(BinOp::Sub, Expr::Var(i), Expr::Var(i));
        let a = analyze(&k, &e).unwrap();
        assert_eq!(a.as_const(), Some(0));
        assert!(!a.uses_loop(i));
    }

    #[test]
    fn nonaffine_rejected() {
        let (k, _, _, i, j) = kernel();
        // i * j is not affine.
        let e = Expr::bin(BinOp::Mul, Expr::Var(i), Expr::Var(j));
        assert!(analyze(&k, &e).is_none());
        // loads are not affine
        let e2 = Expr::bin(BinOp::Mul, Expr::Var(i), Expr::Var(i));
        assert!(analyze(&k, &e2).is_none());
    }

    #[test]
    fn difference_of_offsets() {
        let (k, _, _, i, _) = kernel();
        let a1 = analyze(&k, &Expr::bin(BinOp::Add, Expr::Var(i), Expr::Int(2))).unwrap();
        let a2 = analyze(&k, &Expr::Var(i)).unwrap();
        let d = a1.minus(&a2).unwrap();
        assert_eq!(d.as_const(), Some(2));
    }
}
