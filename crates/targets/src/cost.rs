//! Dynamic cycle cost models.
//!
//! Costs are *relative throughput weights*, not silicon-accurate
//! latencies: the experiments report ratios (split/native, JIT/native)
//! so only the relationships the paper relies on must hold:
//!
//! * aligned vector accesses beat misaligned ones (strongly on SSE);
//! * explicit realignment (`vperm`) adds per-iteration overhead;
//! * x87-style scalar float ops are much slower than SSE scalar ops;
//! * library-helper fallbacks cost a call plus per-lane software work;
//! * vector ops cost about the same as their scalar counterparts while
//!   processing VF elements — the source of vectorization speedups.

use vapor_ir::{BinOp, ScalarTy, UnOp};

use crate::isa::{HelperOp, MInst, ShiftSrc};

/// Per-instruction-class cycle weights for one target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Scalar integer ALU op.
    pub salu: u32,
    /// Scalar float op (SSE-class scalar FPU).
    pub sfpu: u32,
    /// Scalar multiply.
    pub smul: u32,
    /// Scalar divide / sqrt.
    pub sdiv: u32,
    /// Extra cost of an x87-style `FpuBin` over `sfpu` (stack shuffling,
    /// memory round-trips). Zero on targets without the x87 artifact.
    pub fpu_penalty: u32,
    /// Scalar load.
    pub sload: u32,
    /// Scalar store.
    pub sstore: u32,
    /// Taken-or-not branch.
    pub branch: u32,
    /// Register move (scalar or vector).
    pub mov: u32,
    /// Vector ALU op (add/sub/logic/min/max).
    pub valu: u32,
    /// Vector multiply / dot / widening multiply.
    pub vmul: u32,
    /// Vector divide / sqrt.
    pub vdiv: u32,
    /// Aligned vector load (also `LoadVFloor`).
    pub vload_aligned: u32,
    /// Misaligned vector load (`movdqu` class).
    pub vload_unaligned: u32,
    /// Aligned vector store.
    pub vstore_aligned: u32,
    /// Misaligned vector store.
    pub vstore_unaligned: u32,
    /// Permute/shuffle (`vperm`, interleave, pack, unpack).
    pub vperm: u32,
    /// Building a permute control (`lvsr` class).
    pub vpermctrl: u32,
    /// Lane insert/extract, splat, iota.
    pub vlane: u32,
    /// Lane-wise conversion.
    pub vcvt: u32,
    /// Reduction: cost per halving step (`log2(lanes)` steps).
    pub vreduce_step: u32,
    /// Library helper call overhead.
    pub helper_call: u32,
    /// Library helper per-lane software cost.
    pub helper_per_lane: u32,
}

impl CostModel {
    /// Core2-class SSE weights: fast aligned accesses, 2× penalty for
    /// `movdqu`, cheap shuffles (SSSE3), painful x87 scalar floats.
    pub fn sse() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 2,
            smul: 3,
            sdiv: 20,
            fpu_penalty: 5,
            sload: 2,
            sstore: 2,
            branch: 1,
            mov: 1,
            valu: 1,
            vmul: 3,
            vdiv: 24,
            vload_aligned: 2,
            vload_unaligned: 4,
            vstore_aligned: 2,
            vstore_unaligned: 5,
            vperm: 1,
            vpermctrl: 2,
            vlane: 2,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 20,
            helper_per_lane: 4,
        }
    }

    /// PowerPC G5-class AltiVec weights: aligned-only accesses, cheap
    /// `lvsr`/`vperm`, no x87 analogue.
    pub fn altivec() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 2,
            smul: 3,
            sdiv: 25,
            fpu_penalty: 0,
            sload: 2,
            sstore: 2,
            branch: 1,
            mov: 1,
            valu: 1,
            vmul: 3,
            vdiv: 30,
            vload_aligned: 2,
            vload_unaligned: 1000, // illegal: the VM traps before charging
            vstore_aligned: 2,
            vstore_unaligned: 1000,
            vperm: 1,
            vpermctrl: 1,
            vlane: 3,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 24,
            helper_per_lane: 4,
        }
    }

    /// Cortex A8-class NEON weights: in-order core, modest misalignment
    /// penalty, expensive helper calls (libc-style software routines).
    pub fn neon64() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 4, // VFP-lite on A8 is slow
            smul: 4,
            sdiv: 30,
            fpu_penalty: 0,
            sload: 2,
            sstore: 2,
            branch: 2,
            mov: 1,
            valu: 1,
            vmul: 2,
            vdiv: 35,
            vload_aligned: 2,
            vload_unaligned: 3,
            vstore_aligned: 2,
            vstore_unaligned: 3,
            vperm: 1,
            vpermctrl: 2,
            vlane: 2,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 60,
            helper_per_lane: 10,
        }
    }

    /// Sandy-Bridge-class AVX weights (the Table 3 target).
    pub fn avx() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 1,
            smul: 2,
            sdiv: 14,
            fpu_penalty: 4,
            sload: 1,
            sstore: 1,
            branch: 1,
            mov: 1,
            valu: 1,
            vmul: 2,
            vdiv: 18,
            vload_aligned: 1,
            vload_unaligned: 2,
            vstore_aligned: 1,
            vstore_unaligned: 3,
            vperm: 1,
            vpermctrl: 2,
            vlane: 2,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 20,
            helper_per_lane: 3,
        }
    }

    /// SVE-class VLA core weights: modern out-of-order machine — cheap
    /// element-aligned (predication-friendly) memory ops, fast scalar
    /// floats, no x87 artifact. Per-op weights are width-independent
    /// (one instruction retires one whole register), which is exactly
    /// why wider runtime VLs translate into proportional speedups.
    pub fn sve_class() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 1,
            smul: 2,
            sdiv: 12,
            fpu_penalty: 0,
            sload: 1,
            sstore: 1,
            branch: 1,
            mov: 1,
            valu: 1,
            vmul: 2,
            vdiv: 14,
            vload_aligned: 1,
            vload_unaligned: 1, // predicated loads carry no alignment penalty
            vstore_aligned: 1,
            vstore_unaligned: 1,
            vperm: 1,
            vpermctrl: 1,
            vlane: 2,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 20,
            helper_per_lane: 3,
        }
    }

    /// RVV-class VLA core weights: longer vectors on a narrower-issue,
    /// more in-order core — slightly dearer scalar floats, multiplies
    /// and lane traffic than the SVE-class profile.
    pub fn rvv_class() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 2,
            smul: 3,
            sdiv: 16,
            fpu_penalty: 0,
            sload: 2,
            sstore: 2,
            branch: 1,
            mov: 1,
            valu: 1,
            vmul: 2,
            vdiv: 18,
            vload_aligned: 2,
            vload_unaligned: 2,
            vstore_aligned: 2,
            vstore_unaligned: 2,
            vperm: 1,
            vpermctrl: 1,
            vlane: 3,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 24,
            helper_per_lane: 4,
        }
    }

    /// Plain scalar machine for the no-SIMD target.
    pub fn generic_scalar() -> CostModel {
        CostModel {
            salu: 1,
            sfpu: 2,
            smul: 3,
            sdiv: 20,
            fpu_penalty: 0,
            sload: 2,
            sstore: 2,
            branch: 1,
            mov: 1,
            valu: 1,
            vmul: 3,
            vdiv: 20,
            vload_aligned: 2,
            vload_unaligned: 2,
            vstore_aligned: 2,
            vstore_unaligned: 2,
            vperm: 1,
            vpermctrl: 1,
            vlane: 2,
            vcvt: 2,
            vreduce_step: 2,
            helper_call: 20,
            helper_per_lane: 4,
        }
    }

    fn sbin_cost(&self, op: BinOp, ty: ScalarTy) -> u32 {
        match op {
            BinOp::Mul => self.smul,
            BinOp::Div => self.sdiv,
            _ if ty.is_float() => self.sfpu,
            _ => self.salu,
        }
    }

    /// Cycle cost of one executed instruction on a machine whose vector
    /// registers are `vs` bytes wide: [`CostModel::base_cost`] plus
    /// [`CostModel::vl_cost`].
    pub fn cost(&self, inst: &MInst, vs: usize) -> u64 {
        self.base_cost(inst) + self.vl_cost(inst, |ty| (vs / ty.size()).max(1))
    }

    /// The part of [`CostModel::cost`] that depends on the vector width,
    /// with `lanes(ty)` lanes of `ty` in a register: a reduction's
    /// halving steps and a helper call's per-lane work; 0 for every
    /// other instruction.
    pub fn vl_cost(&self, inst: &MInst, lanes: impl Fn(ScalarTy) -> usize) -> u64 {
        match inst {
            MInst::VReduce { ty, .. } => self.reduce_vl_cost(lanes(*ty)),
            MInst::VHelper { ty, .. } => u64::from(self.helper_per_lane) * lanes(*ty) as u64,
            _ => 0,
        }
    }

    /// The width-dependent cost of a reduction over `lanes` lanes: one
    /// `vreduce_step` per halving, `ceil(log2(lanes))` of them (at least
    /// one).
    pub fn reduce_vl_cost(&self, lanes: usize) -> u64 {
        u64::from(self.vreduce_step) * u64::from(lanes.max(2).next_power_of_two().trailing_zeros())
    }

    /// The width-independent part of [`CostModel::cost`]: everything
    /// but [`CostModel::vl_cost`]. A decoded program stores it per step.
    pub fn base_cost(&self, inst: &MInst) -> u64 {
        // Scaled-index addressing pays an address-generation ALU op —
        // the dynamic counterpart of the port model's unlaminated µop.
        let agen = |addr: &crate::isa::AddrMode| -> u32 {
            if addr.idx.is_some() {
                self.salu
            } else {
                0
            }
        };
        let c = match inst {
            MInst::Label(_) => 0,
            MInst::Jump(_) => self.branch,
            MInst::Branch { .. } | MInst::BranchImm { .. } => self.branch + self.salu,
            MInst::MovImmI { .. } | MInst::MovImmF { .. } | MInst::MovS { .. } => self.mov,
            MInst::SBin { op, ty, .. } => self.sbin_cost(*op, *ty),
            MInst::SBinImm { op, ty, .. } => self.sbin_cost(*op, *ty),
            MInst::SUn { op, ty, .. } => match op {
                UnOp::Sqrt => self.sdiv,
                _ if ty.is_float() => self.sfpu,
                _ => self.salu,
            },
            MInst::SCvt { .. } => self.salu + 1,
            MInst::FpuBin { op, ty, .. } => self.sbin_cost(*op, *ty) + self.fpu_penalty,
            MInst::LoadS { addr, .. } => self.sload + agen(addr),
            MInst::SpillLd { .. } => self.sload,
            MInst::StoreS { addr, .. } => self.sstore + agen(addr),
            MInst::SpillSt { .. } => self.sstore,
            MInst::LoadV { align, addr, .. } => {
                agen(addr)
                    + match align {
                        crate::isa::MemAlign::Aligned => self.vload_aligned,
                        crate::isa::MemAlign::Unaligned => self.vload_unaligned,
                    }
            }
            MInst::LoadVFloor { addr, .. } => self.vload_aligned + agen(addr),
            MInst::StoreV { align, addr, .. } => {
                agen(addr)
                    + match align {
                        crate::isa::MemAlign::Aligned => self.vstore_aligned,
                        crate::isa::MemAlign::Unaligned => self.vstore_unaligned,
                    }
            }
            MInst::Splat { .. } => self.vlane,
            MInst::Iota { .. } => self.vlane * 2,
            MInst::SetLane { .. } | MInst::GetLane { .. } => self.vlane,
            MInst::VBin { op, ty, .. } => match op {
                BinOp::Mul => self.vmul,
                BinOp::Div => self.vdiv,
                _ => {
                    let _ = ty;
                    self.valu
                }
            },
            MInst::VUn { op, .. } => match op {
                UnOp::Sqrt => self.vdiv,
                _ => self.valu,
            },
            MInst::VShift { amt, .. } => {
                self.valu
                    + match amt {
                        ShiftSrc::PerLane(_) => 1,
                        _ => 0,
                    }
            }
            MInst::VWidenMul { .. } | MInst::VDotAcc { .. } => self.vmul,
            MInst::VPack { .. } | MInst::VUnpack { .. } | MInst::VInterleave { .. } => self.vperm,
            MInst::VCvt { .. } => self.vcvt,
            MInst::VExtractStride { stride, .. } => self.vperm * (*stride as u32),
            MInst::VPermCtrl { .. } => self.vpermctrl,
            MInst::VPerm { .. } => self.vperm,
            MInst::VReduce { .. } => self.vlane,
            MInst::MovV { .. } => self.mov,
            MInst::VHelper { .. } => self.helper_call,
            // VLA stripmine control is scalar-ALU-cheap (`vsetvli` class).
            MInst::SetVl { .. } => self.salu,
            // Predicated memory ops are element-aligned by contract:
            // charged at the unaligned rate (identical to aligned on the
            // VLA cost models).
            MInst::LoadVl { addr, .. } => self.vload_unaligned + agen(addr),
            MInst::StoreVl { addr, .. } => self.vstore_unaligned + agen(addr),
            MInst::VBinVl { op, .. } => match op {
                BinOp::Mul => self.vmul,
                BinOp::Div => self.vdiv,
                _ => self.valu,
            },
            MInst::VUnVl { op, .. } => match op {
                UnOp::Sqrt => self.vdiv,
                _ => self.valu,
            },
        };
        c as u64
    }
}

/// Cost of a helper op when expressed as [`HelperOp`] (used for
/// reporting).
pub fn helper_name(op: HelperOp) -> &'static str {
    match op {
        HelperOp::WidenMult(_) => "__vapor_widen_mult",
        HelperOp::Cvt(_) => "__vapor_cvt",
        HelperOp::FDiv => "__vapor_fdiv",
        HelperOp::FSqrt => "__vapor_fsqrt",
        HelperOp::Pack => "__vapor_pack",
        HelperOp::Unpack(_) => "__vapor_unpack",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrMode, MemAlign, SReg, VReg};

    #[test]
    fn misaligned_loads_cost_more_on_sse() {
        let m = CostModel::sse();
        let aligned = MInst::LoadV {
            dst: VReg(0),
            addr: AddrMode::base_disp(SReg(0), 0),
            align: MemAlign::Aligned,
        };
        let unaligned = MInst::LoadV {
            dst: VReg(0),
            addr: AddrMode::base_disp(SReg(0), 0),
            align: MemAlign::Unaligned,
        };
        assert!(m.cost(&unaligned, 16) > m.cost(&aligned, 16));
    }

    #[test]
    fn x87_penalty_applies_only_to_fpubin() {
        let m = CostModel::sse();
        let sse_fp = MInst::SBin {
            op: BinOp::Add,
            ty: ScalarTy::F32,
            dst: SReg(0),
            a: SReg(1),
            b: SReg(2),
        };
        let x87 = MInst::FpuBin {
            op: BinOp::Add,
            ty: ScalarTy::F32,
            dst: SReg(0),
            a: SReg(1),
            b: SReg(2),
        };
        assert_eq!(m.cost(&x87, 16) - m.cost(&sse_fp, 16), m.fpu_penalty as u64);
    }

    #[test]
    fn helper_cost_scales_with_lanes() {
        let m = CostModel::neon64();
        // I32 lanes: 2 at 8 bytes, 8 at 32.
        let h = |vs| {
            m.cost(
                &MInst::VHelper {
                    op: HelperOp::Cvt(crate::isa::CvtDir::IntToFloat),
                    ty: ScalarTy::I32,
                    dst: VReg(0),
                    a: VReg(1),
                    b: None,
                },
                vs,
            )
        };
        assert!(h(32) > h(8));
        assert!(
            h(8) > m.cost(
                &MInst::VCvt {
                    dir: crate::isa::CvtDir::IntToFloat,
                    ty: ScalarTy::I32,
                    dst: VReg(0),
                    a: VReg(1),
                },
                8
            )
        );
    }

    #[test]
    fn cost_is_the_base_plus_the_width_dependent_part() {
        // A reduction's halving steps are ceil(log2(lanes)), at least
        // one, at every lane count a legal width gives (1..=256 lanes).
        let m = CostModel::sve_class();
        for lanes in 1..=256usize {
            let steps = (lanes.max(2) as f64).log2().ceil() as u64;
            assert_eq!(m.reduce_vl_cost(lanes), u64::from(m.vreduce_step) * steps);
        }
        let reduce = MInst::VReduce {
            op: crate::isa::ReduceOp::Max,
            ty: ScalarTy::F64,
            dst: SReg(0),
            src: VReg(0),
        };
        for vs in [16, 48, 256] {
            let vl = m.vl_cost(&reduce, |ty| vs / ty.size());
            assert_eq!(vl, m.reduce_vl_cost(vs / 8));
            assert_eq!(m.cost(&reduce, vs), m.base_cost(&reduce) + vl);
        }
        assert_eq!(m.vl_cost(&MInst::Label(crate::isa::Label(0)), |_| 64), 0);
    }

    #[test]
    fn labels_are_free() {
        let m = CostModel::sse();
        assert_eq!(m.cost(&MInst::Label(crate::isa::Label(0)), 16), 0);
    }
}
