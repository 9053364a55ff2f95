//! Target descriptions: the ISA facts from §IV-A of the paper, encoded as
//! data the online compiler and the cost model consume.

use vapor_ir::ScalarTy;

use crate::cost::CostModel;
use crate::ports::PortModel;

/// Identifier for the built-in targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// x86 SSE/SSSE3, 128-bit (Intel Core2-class).
    Sse,
    /// PowerPC AltiVec, 128-bit, aligned-only, no doubles (G5-class).
    Altivec,
    /// ARM NEON in 64-bit mode (Cortex A8-class).
    Neon64,
    /// Intel AVX, 256-bit float vectors (emulated; no hardware in 2011).
    Avx,
    /// No SIMD at all: everything scalarizes.
    ScalarOnly,
    /// ARM-SVE-class vector-length-agnostic target: the lane count is a
    /// *runtime* parameter (128–2048 bits).
    Sve,
    /// RISC-V-Vector-class vector-length-agnostic target.
    Rvv,
}

impl TargetKind {
    /// All built-in targets.
    pub const ALL: [TargetKind; 7] = [
        TargetKind::Sse,
        TargetKind::Altivec,
        TargetKind::Neon64,
        TargetKind::Avx,
        TargetKind::ScalarOnly,
        TargetKind::Sve,
        TargetKind::Rvv,
    ];
}

/// Narrowest legal vector length of the VLA family, in bits (both SVE
/// and RVV application profiles mandate at least 128).
pub const VLA_MIN_BITS: usize = 128;

/// Widest legal vector length, in bits (the SVE architectural maximum).
pub const VLA_MAX_BITS: usize = 2048;

/// The runtime vector lengths the test suite and the gains table
/// exercise.
pub const VLA_TEST_BITS: [usize; 5] = [128, 256, 512, 1024, 2048];

/// Whether `vl_bits` is a legal runtime vector length for the VLA
/// family: a multiple of 128 bits between 128 and 2048 (the SVE rule;
/// every RVV power-of-two VLEN in range also satisfies it).
pub fn valid_vl(vl_bits: usize) -> bool {
    (VLA_MIN_BITS..=VLA_MAX_BITS).contains(&vl_bits) && vl_bits.is_multiple_of(VLA_MIN_BITS)
}

/// A SIMD target description.
///
/// Every field encodes a fact the paper relies on: vector size drives the
/// VF, alignment capabilities drive the realignment strategy choice of
/// §III-C, and the feature booleans drive scalarization/library-fallback
/// decisions (e.g. `double` on AltiVec, immature idioms on NEON).
///
/// `Eq + Hash` because the engine's compile cache fingerprints the whole
/// description: an edited field, kept under the stock name, must miss.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TargetDesc {
    /// Display name.
    pub name: &'static str,
    /// Which built-in target this is.
    pub kind: TargetKind,
    /// Vector size in bytes (VS). 0 disables SIMD entirely.
    ///
    /// For a vector-length-agnostic target (`vla == true`) this is *not*
    /// a compile-time contract: the constructor sets it to the family
    /// minimum ([`VLA_MIN_BITS`]) so offline/online planning stays
    /// conservative, and [`TargetDesc::at_vl`] rebinds it to the concrete
    /// runtime VL at execution-specialization time.
    pub vs: usize,
    /// Vector-length-agnostic family (SVE/RVV-class): the compiled
    /// artifact must not bake in a lane count; the online stage emits
    /// `setvl`-stripmined, predicated code instead.
    pub vla: bool,
    /// Whether misaligned vector *loads* are supported (SSE `movdqu`).
    pub misaligned_loads: bool,
    /// Whether misaligned vector *stores* are supported.
    pub misaligned_stores: bool,
    /// Whether explicit realignment idioms (`lvsr`+`vperm`) exist.
    pub explicit_realign: bool,
    /// Element types with vector support.
    pub vector_elems: &'static [ScalarTy],
    /// `dot_product` idiom available (`pmaddwd` / `vmsumshm`).
    pub has_dot_product: bool,
    /// Widening multiply claimed by the backend.
    pub has_widen_mult: bool,
    /// Widening multiply implemented via a library helper rather than a
    /// native instruction (the paper's immature NEON backend: `dissolve`
    /// "falls back to library support").
    pub widen_mult_via_helper: bool,
    /// pack/unpack promotion/demotion available.
    pub has_pack_unpack: bool,
    /// Lane-wise int↔float conversions claimed by the backend.
    pub has_cvt: bool,
    /// Conversions implemented via a library helper (NEON `dct` case).
    pub cvt_via_helper: bool,
    /// Vector float division (AltiVec only has a reciprocal estimate).
    pub has_fdiv: bool,
    /// Vector square root.
    pub has_fsqrt: bool,
    /// Per-lane variable shift counts supported.
    pub has_per_lane_shift: bool,
    /// Dynamic-instruction cycle model.
    pub cost: CostModel,
    /// Port model for the static throughput analyzer (IACA role).
    pub ports: PortModel,
}

impl TargetDesc {
    /// Number of lanes of `ty` in one vector register (`get_VF`).
    pub fn lanes(&self, ty: ScalarTy) -> usize {
        if self.vs == 0 {
            1
        } else {
            self.vs / ty.size()
        }
    }

    /// Whether vector code for element type `ty` is worthwhile: the type
    /// must be supported and at least 2 lanes must fit.
    pub fn supports_elem(&self, ty: ScalarTy) -> bool {
        self.vs > 0 && self.vector_elems.contains(&ty) && self.lanes(ty) >= 2
    }

    /// Alignment requirement in bytes for vector memory accesses.
    pub fn align_limit_bytes(&self) -> usize {
        self.vs.max(1)
    }

    /// Whether the target has any SIMD support at all.
    pub fn has_simd(&self) -> bool {
        self.vs > 0
    }

    /// Specialize a vector-length-agnostic target to a concrete runtime
    /// vector length. The compiled artifact is shared across VLs — only
    /// execution (decode, machine, cycle accounting) consumes the
    /// specialized description.
    ///
    /// # Panics
    /// Panics when called on a fixed-width target or with an illegal VL
    /// (see [`valid_vl`]); both are harness bugs.
    pub fn at_vl(&self, vl_bits: usize) -> TargetDesc {
        assert!(self.vla, "{} is not a VLA target", self.name);
        assert!(valid_vl(vl_bits), "illegal runtime VL of {vl_bits} bits");
        TargetDesc {
            vs: vl_bits / 8,
            ..self.clone()
        }
    }
}

const ALL_VECTOR_ELEMS: &[ScalarTy] = &[
    ScalarTy::I8,
    ScalarTy::I16,
    ScalarTy::I32,
    ScalarTy::I64,
    ScalarTy::U8,
    ScalarTy::U16,
    ScalarTy::U32,
    ScalarTy::F32,
    ScalarTy::F64,
];

/// AltiVec supports 8/16/32-bit element types only (§IV-A: "it does not
/// support 64-bit operations").
const ALTIVEC_ELEMS: &[ScalarTy] = &[
    ScalarTy::I8,
    ScalarTy::I16,
    ScalarTy::I32,
    ScalarTy::U8,
    ScalarTy::U16,
    ScalarTy::U32,
    ScalarTy::F32,
];

/// NEON in 64-bit mode: 8-byte registers; 64-bit element types would have
/// a single lane, so they are not vectorized.
const NEON64_ELEMS: &[ScalarTy] = &[
    ScalarTy::I8,
    ScalarTy::I16,
    ScalarTy::I32,
    ScalarTy::U8,
    ScalarTy::U16,
    ScalarTy::U32,
    ScalarTy::F32,
];

/// Intel Core2-class SSE target: 16-byte vectors, misaligned accesses
/// supported but slower (`movdqu`), no explicit realignment idiom.
pub fn sse() -> TargetDesc {
    TargetDesc {
        name: "SSE (128-bit)",
        kind: TargetKind::Sse,
        vs: 16,
        vla: false,
        misaligned_loads: true,
        misaligned_stores: true,
        explicit_realign: false,
        vector_elems: ALL_VECTOR_ELEMS,
        has_dot_product: true, // pmaddwd
        has_widen_mult: true,
        widen_mult_via_helper: false,
        has_pack_unpack: true,
        has_cvt: true,
        cvt_via_helper: false,
        has_fdiv: true,
        has_fsqrt: true,
        has_per_lane_shift: false,
        cost: CostModel::sse(),
        ports: PortModel::core2(),
    }
}

/// PowerPC G5-class AltiVec target: 16-byte vectors, aligned accesses
/// only, `lvsr`/`vperm` realignment, no 64-bit element types.
pub fn altivec() -> TargetDesc {
    TargetDesc {
        name: "AltiVec (128-bit)",
        kind: TargetKind::Altivec,
        vs: 16,
        vla: false,
        misaligned_loads: false,
        misaligned_stores: false,
        explicit_realign: true,
        vector_elems: ALTIVEC_ELEMS,
        has_dot_product: true, // vmsumshm
        has_widen_mult: true,  // vmulesh/vmulosh
        widen_mult_via_helper: false,
        has_pack_unpack: true,
        has_cvt: true,
        cvt_via_helper: false,
        has_fdiv: false, // vrefp is an estimate; GCC scalarizes exact division
        has_fsqrt: false,
        has_per_lane_shift: true,
        cost: CostModel::altivec(),
        ports: PortModel::g5(),
    }
}

/// ARM Cortex A8-class NEON target in 64-bit mode. Misaligned accesses
/// are architecturally supported; the 2011-era GCC NEON backend was
/// immature, so widening multiplies and int↔float conversions fall back
/// to library helpers (the paper's `dissolve`/`dct` cases).
pub fn neon64() -> TargetDesc {
    TargetDesc {
        name: "NEON (64-bit)",
        kind: TargetKind::Neon64,
        vs: 8,
        vla: false,
        misaligned_loads: true,
        misaligned_stores: true,
        explicit_realign: false,
        vector_elems: NEON64_ELEMS,
        has_dot_product: true,
        has_widen_mult: true,
        widen_mult_via_helper: true, // immature backend: library fallback
        has_pack_unpack: true,
        has_cvt: true,
        cvt_via_helper: true, // immature backend: library fallback
        has_fdiv: false,
        has_fsqrt: false,
        has_per_lane_shift: true,
        cost: CostModel::neon64(),
        ports: PortModel::cortex_a8(),
    }
}

/// Intel AVX target: 32-byte float vectors. In 2011 no hardware existed;
/// like the paper we execute it only under emulation (the VM plays the
/// SDE role) and analyze loop bodies statically (the IACA role).
pub fn avx() -> TargetDesc {
    TargetDesc {
        name: "AVX (256-bit)",
        kind: TargetKind::Avx,
        vs: 32,
        vla: false,
        misaligned_loads: true,
        misaligned_stores: true,
        explicit_realign: false,
        vector_elems: ALL_VECTOR_ELEMS,
        has_dot_product: true,
        has_widen_mult: true,
        widen_mult_via_helper: false,
        has_pack_unpack: true,
        has_cvt: true,
        cvt_via_helper: false,
        has_fdiv: true,
        has_fsqrt: true,
        has_per_lane_shift: false,
        cost: CostModel::avx(),
        ports: PortModel::sandy_bridge(),
    }
}

/// A target without SIMD: the online stage scalarizes everything
/// (Figure 3b of the paper).
pub fn scalar_only() -> TargetDesc {
    TargetDesc {
        name: "scalar (no SIMD)",
        kind: TargetKind::ScalarOnly,
        vs: 0,
        vla: false,
        misaligned_loads: false,
        misaligned_stores: false,
        explicit_realign: false,
        vector_elems: &[],
        has_dot_product: false,
        has_widen_mult: false,
        widen_mult_via_helper: false,
        has_pack_unpack: false,
        has_cvt: false,
        cvt_via_helper: false,
        has_fdiv: false,
        has_fsqrt: false,
        has_per_lane_shift: false,
        cost: CostModel::generic_scalar(),
        ports: PortModel::single_issue(),
    }
}

/// ARM-SVE-class vector-length-agnostic target. The description is
/// VL-*agnostic*: `vs` holds the family minimum (128 bits) purely for
/// conservative planning, and the online stage emits `setvl`-stripmined
/// predicated code with no lane count baked in. [`TargetDesc::at_vl`]
/// produces the execution-time specialization for a concrete VL.
///
/// Half-based sub-vector idioms (widening multiply, pack/unpack, dot
/// product) have no fixed meaning when the register width is a runtime
/// quantity, so the backend declines them and those groups scalarize —
/// the VLA analogue of the paper's immature-NEON-backend story.
pub fn sve() -> TargetDesc {
    TargetDesc {
        name: "SVE-class (VLA)",
        kind: TargetKind::Sve,
        vs: VLA_MIN_BITS / 8,
        vla: true,
        misaligned_loads: true, // VLA memory ops are element-aligned only
        misaligned_stores: true,
        explicit_realign: false,
        vector_elems: ALL_VECTOR_ELEMS,
        has_dot_product: false, // half-based idioms undefined at runtime VL
        has_widen_mult: false,
        widen_mult_via_helper: false,
        has_pack_unpack: false,
        has_cvt: true, // same-width lane conversions are VL-clean
        cvt_via_helper: false,
        has_fdiv: true,
        has_fsqrt: true,
        has_per_lane_shift: true,
        cost: CostModel::sve_class(),
        ports: PortModel::sve_core(),
    }
}

/// RISC-V-Vector-class vector-length-agnostic target: same VLA execution
/// model as [`sve`] (`vsetvli` stripmining, predicated lane ops), with
/// the cost/port profile of a longer-vector, narrower-issue core.
pub fn rvv() -> TargetDesc {
    TargetDesc {
        name: "RVV-class (VLA)",
        kind: TargetKind::Rvv,
        vs: VLA_MIN_BITS / 8,
        vla: true,
        misaligned_loads: true,
        misaligned_stores: true,
        explicit_realign: false,
        vector_elems: ALL_VECTOR_ELEMS,
        has_dot_product: false,
        has_widen_mult: false,
        widen_mult_via_helper: false,
        has_pack_unpack: false,
        has_cvt: true,
        cvt_via_helper: false,
        has_fdiv: true,
        has_fsqrt: true,
        has_per_lane_shift: true,
        cost: CostModel::rvv_class(),
        ports: PortModel::rvv_core(),
    }
}

/// Construct a target description by kind.
pub fn target(kind: TargetKind) -> TargetDesc {
    match kind {
        TargetKind::Sse => sse(),
        TargetKind::Altivec => altivec(),
        TargetKind::Neon64 => neon64(),
        TargetKind::Avx => avx(),
        TargetKind::ScalarOnly => scalar_only(),
        TargetKind::Sve => sve(),
        TargetKind::Rvv => rvv(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_factors_match_paper_examples() {
        // §II: 16-byte AltiVec/SSE give VF=4 for float; 8-byte NEON gives VF=2.
        assert_eq!(sse().lanes(ScalarTy::F32), 4);
        assert_eq!(altivec().lanes(ScalarTy::F32), 4);
        assert_eq!(neon64().lanes(ScalarTy::F32), 2);
        assert_eq!(avx().lanes(ScalarTy::F32), 8);
        assert_eq!(avx().lanes(ScalarTy::F64), 4);
    }

    #[test]
    fn altivec_has_no_doubles() {
        assert!(!altivec().supports_elem(ScalarTy::F64));
        assert!(sse().supports_elem(ScalarTy::F64));
    }

    #[test]
    fn neon64_misses_immature_idioms() {
        let t = neon64();
        assert!(t.has_widen_mult && t.widen_mult_via_helper);
        assert!(t.has_cvt && t.cvt_via_helper);
        assert!(t.supports_elem(ScalarTy::I16));
        // One f64 lane only: not vectorizable.
        assert!(!t.supports_elem(ScalarTy::F64));
    }

    #[test]
    fn scalar_only_supports_nothing() {
        let t = scalar_only();
        assert!(!t.has_simd());
        assert!(!t.supports_elem(ScalarTy::F32));
        assert_eq!(t.lanes(ScalarTy::F32), 1);
    }

    #[test]
    fn alignment_limits() {
        assert_eq!(sse().align_limit_bytes(), 16);
        assert_eq!(neon64().align_limit_bytes(), 8);
        assert_eq!(avx().align_limit_bytes(), 32);
    }

    #[test]
    fn vla_lane_count_is_a_runtime_parameter() {
        for t in [sve(), rvv()] {
            assert!(t.vla);
            // The agnostic description plans at the family minimum …
            assert_eq!(t.lanes(ScalarTy::F32), 4);
            // … and every legal runtime VL rebinds the lane count.
            for (bits, lanes) in [(128, 4), (256, 8), (512, 16), (1024, 32), (2048, 64)] {
                let s = t.at_vl(bits);
                assert_eq!(s.lanes(ScalarTy::F32), lanes, "{} @{bits}", t.name);
                assert!(s.vla, "specialization stays in the VLA family");
                assert!(s.vs <= crate::machine::MAX_VS);
            }
        }
    }

    #[test]
    fn vla_declines_half_based_idioms() {
        for t in [sve(), rvv()] {
            assert!(!t.has_dot_product && !t.has_widen_mult && !t.has_pack_unpack);
            assert!(t.has_fdiv && t.has_fsqrt && t.has_cvt);
            assert!(t.misaligned_loads && t.misaligned_stores && !t.explicit_realign);
        }
    }

    #[test]
    fn vl_validity_rules() {
        assert!(valid_vl(128) && valid_vl(384) && valid_vl(2048));
        assert!(!valid_vl(64) && !valid_vl(192) && !valid_vl(4096) && !valid_vl(0));
    }

    #[test]
    #[should_panic(expected = "not a VLA target")]
    fn fixed_targets_cannot_specialize() {
        let _ = sse().at_vl(256);
    }

    #[test]
    #[should_panic(expected = "illegal runtime VL")]
    fn illegal_vl_panics() {
        let _ = sve().at_vl(96);
    }
}
