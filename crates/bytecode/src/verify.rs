//! Bytecode verifier: register/type discipline and structural rules.
//!
//! The verifier enforces the typing rules of Table 1 so that the online
//! stage can lower in a single pass without re-checking, mirroring the
//! paper's requirement that JIT vectorization be linear in code size.

use std::fmt;

use vapor_ir::{BinOp, ScalarTy, UnOp};

use crate::func::BcFunction;
use crate::op::{Op, ShiftAmt};
use crate::stmt::{BcStmt, GuardCond, Step};
use crate::ty::{Addr, BcTy, Operand, Reg};

/// Verification error.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError(pub String);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode verification failed: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

fn err<T>(msg: impl Into<String>) -> Result<T, VerifyError> {
    Err(VerifyError(msg.into()))
}

struct Checker<'a> {
    f: &'a BcFunction,
}

impl<'a> Checker<'a> {
    fn reg_ty(&self, r: Reg) -> Result<BcTy, VerifyError> {
        if (r.0 as usize) < self.f.regs.len() {
            Ok(self.f.regs[r.0 as usize])
        } else {
            err(format!("register {r} out of range in {}", self.f.name))
        }
    }

    fn operand_ty(&self, o: &Operand) -> Result<Option<BcTy>, VerifyError> {
        match o {
            Operand::Reg(r) => Ok(Some(self.reg_ty(*r)?)),
            Operand::ConstI(_) | Operand::ConstF(_) => Ok(None),
        }
    }

    fn expect_scalar(&self, o: &Operand, ty: ScalarTy, what: &str) -> Result<(), VerifyError> {
        match (self.operand_ty(o)?, o) {
            (Some(BcTy::Scalar(t)), _) if t == ty => Ok(()),
            (None, Operand::ConstI(_)) => Ok(()),
            (None, Operand::ConstF(_)) if ty.is_float() => Ok(()),
            (got, _) => err(format!(
                "{what}: expected scalar {ty}, found {got:?} in {}",
                self.f.name
            )),
        }
    }

    fn expect_vec(&self, r: Reg, ty: ScalarTy, what: &str) -> Result<(), VerifyError> {
        match self.reg_ty(r)? {
            BcTy::Vec(t) if t == ty => Ok(()),
            got => err(format!(
                "{what}: expected vector of {ty}, found {got} for {r} in {}",
                self.f.name
            )),
        }
    }

    fn check_addr(&self, a: &Addr, elem: ScalarTy, what: &str) -> Result<(), VerifyError> {
        if (a.base.0 as usize) >= self.f.arrays.len() {
            return err(format!("{what}: array symbol out of range"));
        }
        let decl = self.f.array(a.base);
        if decl.elem != elem {
            return err(format!(
                "{what}: address into {}[] of {} used at element type {elem}",
                decl.name, decl.elem
            ));
        }
        self.expect_scalar(&a.index, ScalarTy::I64, &format!("{what}: index"))
    }

    /// Result type of an op, with full operand checking.
    fn op_result_ty(&self, op: &Op) -> Result<BcTy, VerifyError> {
        use BcTy::{Scalar, Vec as V};
        match op {
            Op::GetVf { .. } | Op::GetAlignLimit(_) => Ok(Scalar(ScalarTy::I64)),
            Op::LoopBound { vect, scalar, .. } => {
                self.expect_scalar(vect, ScalarTy::I64, "loop_bound.vect")?;
                self.expect_scalar(scalar, ScalarTy::I64, "loop_bound.scalar")?;
                Ok(Scalar(ScalarTy::I64))
            }
            Op::InitUniform(t, v) => {
                self.expect_scalar(v, *t, "init_uniform")?;
                Ok(V(*t))
            }
            Op::InitAffine(t, v, i) => {
                self.expect_scalar(v, *t, "init_affine.val")?;
                self.expect_scalar(i, *t, "init_affine.inc")?;
                Ok(V(*t))
            }
            Op::InitReduc(t, v, d) => {
                self.expect_scalar(v, *t, "init_reduc.val")?;
                self.expect_scalar(d, *t, "init_reduc.default")?;
                Ok(V(*t))
            }
            Op::ReducPlus(t, r) | Op::ReducMax(t, r) | Op::ReducMin(t, r) => {
                self.expect_vec(*r, *t, "reduc")?;
                Ok(Scalar(*t))
            }
            Op::DotProduct(t, a, b, c) => {
                let w = t
                    .widened()
                    .ok_or_else(|| VerifyError(format!("dot_product: {t} has no widened type")))?;
                self.expect_vec(*a, *t, "dot_product.v1")?;
                self.expect_vec(*b, *t, "dot_product.v2")?;
                self.expect_vec(*c, w, "dot_product.acc")?;
                Ok(V(w))
            }
            Op::WidenMultHi(t, a, b) | Op::WidenMultLo(t, a, b) => {
                let w = t
                    .widened()
                    .ok_or_else(|| VerifyError(format!("widen_mult: {t} has no widened type")))?;
                self.expect_vec(*a, *t, "widen_mult.v1")?;
                self.expect_vec(*b, *t, "widen_mult.v2")?;
                Ok(V(w))
            }
            Op::Pack(t, a, b) => {
                let n = t
                    .narrowed()
                    .ok_or_else(|| VerifyError(format!("pack: {t} has no narrowed type")))?;
                self.expect_vec(*a, *t, "pack.v1")?;
                self.expect_vec(*b, *t, "pack.v2")?;
                Ok(V(n))
            }
            Op::UnpackHi(t, a) | Op::UnpackLo(t, a) => {
                let w = t
                    .widened()
                    .ok_or_else(|| VerifyError(format!("unpack: {t} has no widened type")))?;
                self.expect_vec(*a, *t, "unpack")?;
                Ok(V(w))
            }
            Op::CvtInt2Fp(t, a) => {
                let ft = t
                    .float_counterpart()
                    .ok_or_else(|| VerifyError(format!("cvt_int2fp: no float of width of {t}")))?;
                self.expect_vec(*a, *t, "cvt_int2fp")?;
                Ok(V(ft))
            }
            Op::CvtFp2Int(t, a) => {
                let it = t
                    .int_counterpart()
                    .ok_or_else(|| VerifyError(format!("cvt_fp2int: no int of width of {t}")))?;
                self.expect_vec(*a, *t, "cvt_fp2int")?;
                Ok(V(it))
            }
            Op::VBin(op, t, a, b) => {
                if op.is_comparison() {
                    return err("vector comparisons are not part of the split layer");
                }
                if matches!(op, BinOp::Shl | BinOp::Shr) {
                    return err("use shift_left/shift_right idioms for vector shifts");
                }
                if op.int_only() && t.is_float() {
                    return err(format!("integer-only vector op {op:?} at {t}"));
                }
                if *op == BinOp::Div && !t.is_float() {
                    return err("integer vector division is not supported by any SIMD target");
                }
                self.expect_vec(*a, *t, "vbin.lhs")?;
                self.expect_vec(*b, *t, "vbin.rhs")?;
                Ok(V(*t))
            }
            Op::VUn(op, t, a) => {
                if *op == UnOp::Sqrt && !t.is_float() {
                    return err("vector sqrt on integer type");
                }
                self.expect_vec(*a, *t, "vun")?;
                Ok(V(*t))
            }
            Op::VShl(t, v, amt) | Op::VShr(t, v, amt) => {
                if t.is_float() {
                    return err("vector shift on float type");
                }
                self.expect_vec(*v, *t, "vshift")?;
                match amt {
                    ShiftAmt::Scalar(o) => self.expect_scalar(o, *t, "vshift.amount")?,
                    ShiftAmt::PerLane(r) => self.expect_vec(*r, *t, "vshift.amounts")?,
                }
                Ok(V(*t))
            }
            Op::Extract {
                ty,
                stride,
                offset,
                srcs,
            } => {
                if *stride == 0 || srcs.len() != *stride as usize {
                    return err(format!(
                        "extract: needs exactly `stride` sources, got {} for stride {stride}",
                        srcs.len()
                    ));
                }
                if offset >= stride {
                    return err("extract: offset must be < stride");
                }
                for r in srcs {
                    self.expect_vec(*r, *ty, "extract.src")?;
                }
                Ok(V(*ty))
            }
            Op::InterleaveHi(t, a, b) | Op::InterleaveLo(t, a, b) => {
                self.expect_vec(*a, *t, "interleave.v1")?;
                self.expect_vec(*b, *t, "interleave.v2")?;
                Ok(V(*t))
            }
            Op::ALoad(t, a) | Op::AlignLoad(t, a) => {
                self.check_addr(a, *t, "vector load")?;
                Ok(V(*t))
            }
            Op::GetRt {
                ty,
                addr,
                modulo,
                mis,
            } => {
                self.check_addr(addr, *ty, "get_rt")?;
                if *modulo != 0 && mis >= modulo {
                    return err("get_rt: mis must be < mod when mod != 0");
                }
                Ok(BcTy::RealignToken)
            }
            Op::RealignLoad {
                ty,
                lo,
                hi,
                rt,
                addr,
                mis,
                modulo,
            } => {
                self.check_addr(addr, *ty, "realign_load")?;
                if *modulo != 0 && mis >= modulo {
                    return err("realign_load: mis must be < mod when mod != 0");
                }
                match (lo, hi, rt) {
                    (Some(l), Some(h), Some(r)) => {
                        self.expect_vec(*l, *ty, "realign_load.v1")?;
                        self.expect_vec(*h, *ty, "realign_load.v2")?;
                        if self.reg_ty(*r)? != BcTy::RealignToken {
                            return err("realign_load.rt must be a realignment token");
                        }
                    }
                    (None, None, None) => {}
                    _ => return err("realign_load: v1/v2/rt must all be present or all absent"),
                }
                Ok(V(*ty))
            }
            Op::SBin(op, t, a, b) => {
                if op.int_only() && t.is_float() {
                    return err(format!("integer-only scalar op {op:?} at {t}"));
                }
                self.expect_scalar(a, *t, "sbin.lhs")?;
                self.expect_scalar(b, *t, "sbin.rhs")?;
                Ok(Scalar(if op.is_comparison() {
                    ScalarTy::I32
                } else {
                    *t
                }))
            }
            Op::SUn(op, t, a) => {
                if *op == UnOp::Sqrt && !t.is_float() {
                    return err("scalar sqrt on integer type");
                }
                self.expect_scalar(a, *t, "sun")?;
                Ok(Scalar(*t))
            }
            Op::SCast { from, to, arg } => {
                self.expect_scalar(arg, *from, "cvt")?;
                Ok(Scalar(*to))
            }
            Op::SLoad(t, a) => {
                self.check_addr(a, *t, "scalar load")?;
                Ok(Scalar(*t))
            }
            Op::Copy(o) => match self.operand_ty(o)? {
                Some(t) => Ok(t),
                // Constant copies adopt the destination's declared type;
                // checked at the Def site.
                None => Ok(Scalar(ScalarTy::I64)),
            },
        }
    }

    fn check_guard(&self, g: &GuardCond) -> Result<(), VerifyError> {
        match g {
            GuardCond::TypeSupported(_) | GuardCond::VsAtLeast(_) | GuardCond::OpsSupported(_) => {
                Ok(())
            }
            GuardCond::StrideAligned {
                array,
                stride,
                ty: _,
            } => {
                if (array.0 as usize) >= self.f.arrays.len() {
                    return err("stride_aligned guard references unknown array");
                }
                self.expect_scalar(stride, ScalarTy::I64, "stride_aligned.stride")
            }
            GuardCond::BaseAligned(a) => {
                if (a.0 as usize) < self.f.arrays.len() {
                    Ok(())
                } else {
                    err("base_aligned guard references unknown array")
                }
            }
            GuardCond::NoAlias(a, b) => {
                if (a.0 as usize) < self.f.arrays.len() && (b.0 as usize) < self.f.arrays.len() {
                    Ok(())
                } else {
                    err("no_alias guard references unknown array")
                }
            }
            GuardCond::All(gs) => {
                for g in gs {
                    self.check_guard(g)?;
                }
                Ok(())
            }
        }
    }

    fn check_stmt(&self, s: &BcStmt) -> Result<(), VerifyError> {
        match s {
            BcStmt::Def { dst, op } => {
                let declared = self.reg_ty(*dst)?;
                let result = self.op_result_ty(op)?;
                // Constant copies adopt the declared type.
                if let Op::Copy(o @ (Operand::ConstI(_) | Operand::ConstF(_))) = op {
                    return match (declared, o) {
                        (BcTy::Scalar(t), Operand::ConstF(_)) if t.is_float() => Ok(()),
                        (BcTy::Scalar(_), Operand::ConstI(_)) => Ok(()),
                        _ => err(format!("constant copy into incompatible register {dst}")),
                    };
                }
                if declared != result {
                    return err(format!(
                        "{}: register {dst} declared {declared} but defined as {result}",
                        self.f.name
                    ));
                }
                Ok(())
            }
            BcStmt::VStore {
                ty,
                addr,
                src,
                mis,
                modulo,
            } => {
                if *modulo != 0 && mis >= modulo {
                    return err("vector store: mis must be < mod when mod != 0");
                }
                self.check_addr(addr, *ty, "vector store")?;
                self.expect_vec(*src, *ty, "vector store src")
            }
            BcStmt::SStore { ty, addr, src } => {
                self.check_addr(addr, *ty, "scalar store")?;
                self.expect_scalar(src, *ty, "scalar store src")
            }
            BcStmt::Loop {
                var,
                lo,
                limit,
                step,
                body,
                ..
            } => {
                match self.reg_ty(*var)? {
                    BcTy::Scalar(ScalarTy::I64) => {}
                    got => return err(format!("loop variable {var} must be long, is {got}")),
                }
                self.expect_scalar(lo, ScalarTy::I64, "loop lower bound")?;
                self.expect_scalar(limit, ScalarTy::I64, "loop limit")?;
                if let Step::Const(k) = step {
                    if *k <= 0 {
                        return err("loop step must be positive");
                    }
                }
                for st in body {
                    self.check_stmt(st)?;
                }
                Ok(())
            }
            BcStmt::Version {
                cond,
                then_body,
                else_body,
            } => {
                self.check_guard(cond)?;
                for st in then_body.iter().chain(else_body) {
                    self.check_stmt(st)?;
                }
                Ok(())
            }
        }
    }
}

/// Verify one function.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_function(f: &BcFunction) -> Result<(), VerifyError> {
    for (i, p) in f.params.iter().enumerate() {
        match f.regs.get(i) {
            Some(BcTy::Scalar(t)) if *t == p.ty => {}
            _ => {
                return err(format!(
                    "parameter {} must be pre-bound to register %{i} of type {}",
                    p.name, p.ty
                ))
            }
        }
    }
    let c = Checker { f };
    for s in &f.body {
        c.check_stmt(s)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BcArray, BcParam};
    use crate::ty::ArraySym;
    use vapor_ir::ArrayKind;

    fn base_func() -> BcFunction {
        BcFunction::new(
            "t",
            vec![BcParam {
                name: "n".into(),
                ty: ScalarTy::I64,
            }],
            vec![BcArray {
                name: "x".into(),
                elem: ScalarTy::F32,
                kind: ArrayKind::Global,
            }],
        )
    }

    #[test]
    fn accepts_well_typed_vector_code() {
        let mut f = base_func();
        let v = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        let i = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        f.body = vec![
            BcStmt::Def {
                dst: i,
                op: Op::Copy(Operand::ConstI(0)),
            },
            BcStmt::Def {
                dst: v,
                op: Op::ALoad(ScalarTy::F32, Addr::new(ArraySym(0), i)),
            },
            BcStmt::VStore {
                ty: ScalarTy::F32,
                addr: Addr::new(ArraySym(0), i),
                src: v,
                mis: 0,
                modulo: 32,
            },
        ];
        verify_function(&f).unwrap();
    }

    #[test]
    fn rejects_elem_type_mismatch() {
        let mut f = base_func();
        let v = f.fresh_reg(BcTy::Vec(ScalarTy::I32));
        f.body = vec![BcStmt::Def {
            dst: v,
            op: Op::ALoad(ScalarTy::I32, Addr::new(ArraySym(0), Operand::ConstI(0))),
        }];
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn rejects_widen_of_widest_type() {
        let mut f = base_func();
        let a = f.fresh_reg(BcTy::Vec(ScalarTy::F64));
        let b = f.fresh_reg(BcTy::Vec(ScalarTy::F64));
        let d = f.fresh_reg(BcTy::Vec(ScalarTy::F64));
        f.body = vec![BcStmt::Def {
            dst: d,
            op: Op::WidenMultHi(ScalarTy::F64, a, b),
        }];
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn rejects_partial_realign_operands() {
        let mut f = base_func();
        let lo = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        let d = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        f.body = vec![BcStmt::Def {
            dst: d,
            op: Op::RealignLoad {
                ty: ScalarTy::F32,
                lo: Some(lo),
                hi: None,
                rt: None,
                addr: Addr::new(ArraySym(0), Operand::ConstI(0)),
                mis: 0,
                modulo: 0,
            },
        }];
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn rejects_int_vector_division() {
        let mut f = base_func();
        let a = f.fresh_reg(BcTy::Vec(ScalarTy::I32));
        let d = f.fresh_reg(BcTy::Vec(ScalarTy::I32));
        f.body = vec![BcStmt::Def {
            dst: d,
            op: Op::VBin(BinOp::Div, ScalarTy::I32, a, a),
        }];
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn rejects_bad_extract_arity() {
        let mut f = base_func();
        let a = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        let d = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        f.body = vec![BcStmt::Def {
            dst: d,
            op: Op::Extract {
                ty: ScalarTy::F32,
                stride: 2,
                offset: 0,
                srcs: vec![a],
            },
        }];
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn rejects_mis_not_less_than_mod() {
        let mut f = base_func();
        let d = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        f.body = vec![BcStmt::Def {
            dst: d,
            op: Op::RealignLoad {
                ty: ScalarTy::F32,
                lo: None,
                hi: None,
                rt: None,
                addr: Addr::new(ArraySym(0), Operand::ConstI(0)),
                mis: 32,
                modulo: 32,
            },
        }];
        assert!(verify_function(&f).is_err());
    }
}
