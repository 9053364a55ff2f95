//! The support table: how a target implements each [`OpClass`] and what
//! it does with misaligned vector accesses. [`TargetDesc::support`] is the
//! one lookup every stage (native vectorizer, guard folding, group
//! planning, lowering) decides legality with.

use vapor_ir::OpClass;

use crate::target::TargetDesc;

/// How a target implements one [`OpClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Support {
    /// A native vector instruction.
    Native,
    /// Claimed, but a library call (the immature NEON backend's
    /// `dissolve`/`dct` case): `ops_supported` guards hold.
    Helper,
    /// Not available: `ops_supported` guards fail.
    Unsupported,
}

/// A target's support table: one [`Support`] entry per [`OpClass`],
/// read through [`TargetDesc::support`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSupport {
    /// Vector float division (AltiVec only has a reciprocal estimate).
    pub fdiv: Support,
    /// Vector square root.
    pub fsqrt: Support,
    /// Widening multiply.
    pub widen_mult: Support,
    /// Lane-wise int↔float conversions.
    pub cvt: Support,
    /// The `dot_product` idiom (`pmaddwd` / `vmsumshm`).
    pub dot_product: Support,
    /// Per-lane variable shift counts.
    pub per_lane_shift: Support,
}

/// What a target does with a vector access whose alignment is unknown or
/// nonzero (the realignment strategy choice of §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MisalignedAccess {
    /// Misaligned loads and stores are legal (SSE `movdqu`).
    Unaligned,
    /// Loads realign (`lvsr` + `vperm`); stores must be aligned.
    Realign,
    /// Every vector access must be aligned.
    AlignedOnly,
}

impl TargetDesc {
    /// How this target implements operation class `c`.
    pub fn support(&self, c: OpClass) -> Support {
        let o = &self.ops;
        match c {
            OpClass::FDiv => o.fdiv,
            OpClass::FSqrt => o.fsqrt,
            OpClass::WidenMult => o.widen_mult,
            OpClass::Cvt => o.cvt,
            OpClass::DotProduct => o.dot_product,
            OpClass::PerLaneShift => o.per_lane_shift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{altivec, neon64, sse};

    #[test]
    fn altivec_lacks_fdiv_but_neon_claims_cvt() {
        assert_eq!(altivec().support(OpClass::FDiv), Support::Unsupported);
        assert_eq!(sse().support(OpClass::FDiv), Support::Native);
        // NEON claims cvt (and implements it via a helper) — the claim is
        // what guard folding sees.
        assert_eq!(neon64().support(OpClass::Cvt), Support::Helper);
    }
}
