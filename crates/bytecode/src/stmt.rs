//! Structured statements of the vectorized bytecode: definitions,
//! stores, counted loops, and guarded version pairs.

pub use vapor_ir::OpClass;
use vapor_ir::ScalarTy;

use crate::op::Op;
use crate::ty::{Addr, ArraySym, Operand, Reg};

/// Loop step: constant, or scaled by the VF materialized online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// `i += k`.
    Const(i64),
    /// `i += get_VF(T) * k` (usually `k == 1`).
    Vf(ScalarTy, i64),
}

/// Role of a loop in the three-loop peel/main/tail structure the offline
/// vectorizer emits (§III-B(c) of the paper). The online stage uses this
/// to pick `loop_bound` arms and to scalarize correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Untransformed loop (scalar bytecode, outer loops).
    Plain,
    /// The vectorized main loop (step is VF-scaled).
    VectorMain,
    /// Scalar peel loop executed before the main loop to reach alignment.
    ScalarPeel,
    /// Scalar tail loop executing remaining iterations (the entire range
    /// when the main loop is scalarized away).
    ScalarTail,
}

/// Conditions testable by `version_guard_COND` (§III-B(d)).
///
/// The offline compiler emits guards; the online compiler folds the ones
/// it can decide (target features, runtime allocation alignment) and
/// emits runtime tests for the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardCond {
    /// The target supports vector operations on this element type
    /// (e.g. false for `double` on AltiVec). Always foldable online.
    TypeSupported(ScalarTy),
    /// The base of the array can be placed on a `get_align_limit`
    /// boundary. Foldable by a JIT that owns allocation; a runtime test
    /// of the base address otherwise.
    BaseAligned(ArraySym),
    /// The two arrays do not overlap. Provable offline for distinct
    /// restrict arrays; otherwise a runtime overlap test.
    NoAlias(ArraySym, ArraySym),
    /// The target vector size is at least `bytes` (used when selecting
    /// between inner- and outer-loop vectorized versions).
    VsAtLeast(u32),
    /// The rows of a 2-D array walked with the given element stride start
    /// on vector boundaries: `base % VS == 0 && (stride * sizeof(T)) % VS
    /// == 0`. This is the MMM-style alignment test of §V-A that a weak
    /// online compiler re-evaluates inside the outer loop.
    StrideAligned {
        /// The strided array.
        array: ArraySym,
        /// Row stride in elements (usually a runtime dimension).
        stride: Operand,
        /// Element type.
        ty: ScalarTy,
    },
    /// The target claims vector support for these operation classes
    /// ("availability of vector support for certain data-types or
    /// operations", §III-B(d)). Always foldable online.
    OpsSupported(Vec<OpClass>),
    /// Conjunction.
    All(Vec<GuardCond>),
}

/// One bytecode statement.
#[derive(Debug, Clone, PartialEq)]
pub enum BcStmt {
    /// `dst = op` — (re)definition of a register.
    Def {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: Op,
    },
    /// Vector store of `m` elements.
    VStore {
        /// Element type.
        ty: ScalarTy,
        /// Destination address.
        addr: Addr,
        /// Source vector register.
        src: Reg,
        /// Static misalignment hint in bytes (like `realign_load`).
        mis: u32,
        /// Hint modulo; `0` = alignment unknown at offline time.
        modulo: u32,
    },
    /// Scalar store.
    SStore {
        /// Element type.
        ty: ScalarTy,
        /// Destination address.
        addr: Addr,
        /// Stored value.
        src: Operand,
    },
    /// Counted loop: `for (var = lo; var < limit; var += step)`.
    Loop {
        /// Induction register (scalar `long`).
        var: Reg,
        /// Lower bound.
        lo: Operand,
        /// Exclusive upper bound (often a `loop_bound` result).
        limit: Operand,
        /// Step.
        step: Step,
        /// Loop role.
        kind: LoopKind,
        /// Loop group (shared by one main/tail pair and its bounds).
        group: u32,
        /// Body.
        body: Vec<BcStmt>,
    },
    /// `version_guard(cond) ? then_body : else_body`.
    Version {
        /// Guard condition.
        cond: GuardCond,
        /// Version executed when the guard holds.
        then_body: Vec<BcStmt>,
        /// Fall-back version.
        else_body: Vec<BcStmt>,
    },
}

impl BcStmt {
    /// Visit this statement and all nested statements, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&BcStmt)) {
        f(self);
        match self {
            BcStmt::Loop { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            BcStmt::Version {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Count statements in this subtree.
    pub fn count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Whether the subtree contains any vector-typed operation.
    pub fn has_vector_code(&self) -> bool {
        let mut found = false;
        self.walk(&mut |s| match s {
            BcStmt::VStore { .. } => found = true,
            BcStmt::Def { op, .. } => {
                if matches!(
                    op,
                    Op::InitUniform(..)
                        | Op::InitAffine(..)
                        | Op::InitReduc(..)
                        | Op::DotProduct(..)
                        | Op::WidenMultHi(..)
                        | Op::WidenMultLo(..)
                        | Op::Pack(..)
                        | Op::UnpackHi(..)
                        | Op::UnpackLo(..)
                        | Op::CvtInt2Fp(..)
                        | Op::CvtFp2Int(..)
                        | Op::VBin(..)
                        | Op::VUn(..)
                        | Op::VShl(..)
                        | Op::VShr(..)
                        | Op::Extract { .. }
                        | Op::InterleaveHi(..)
                        | Op::InterleaveLo(..)
                        | Op::ALoad(..)
                        | Op::AlignLoad(..)
                        | Op::RealignLoad { .. }
                ) {
                    found = true;
                }
            }
            _ => {}
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_ir::BinOp;

    #[test]
    fn walk_and_count() {
        let s = BcStmt::Loop {
            var: Reg(0),
            lo: Operand::ConstI(0),
            limit: Operand::ConstI(8),
            step: Step::Vf(ScalarTy::F32, 1),
            kind: LoopKind::VectorMain,
            group: 1,
            body: vec![BcStmt::Def {
                dst: Reg(1),
                op: Op::VBin(BinOp::Add, ScalarTy::F32, Reg(1), Reg(2)),
            }],
        };
        assert_eq!(s.count(), 2);
        assert!(s.has_vector_code());
    }

    #[test]
    fn scalar_only_detected() {
        let s = BcStmt::Def {
            dst: Reg(0),
            op: Op::SBin(
                BinOp::Add,
                ScalarTy::I64,
                Operand::ConstI(1),
                Operand::ConstI(2),
            ),
        };
        assert!(!s.has_vector_code());
    }

    #[test]
    fn version_walk_covers_both_arms() {
        let leaf = |r| BcStmt::Def {
            dst: Reg(r),
            op: Op::Copy(Operand::ConstI(0)),
        };
        let s = BcStmt::Version {
            cond: GuardCond::TypeSupported(ScalarTy::F64),
            then_body: vec![leaf(1)],
            else_body: vec![leaf(2), leaf(3)],
        };
        assert_eq!(s.count(), 4);
    }
}
