//! Target descriptions: the ISA facts from §IV-A of the paper, encoded as
//! data the online compiler and the cost model consume.

use vapor_ir::ScalarTy;

use crate::cost::CostModel;
use crate::ports::PortModel;
use crate::support::{MisalignedAccess, OpSupport, Support};

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
/// VF, the [`MisalignedAccess`] mode drives the realignment strategy
/// choice of §III-C, and the support table drives the scalarization and
/// library-fallback decisions (e.g. `double` on AltiVec, immature idioms
/// on NEON).
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
    /// How misaligned vector accesses are handled.
    pub misaligned: MisalignedAccess,
    /// Element types with vector support.
    pub vector_elems: &'static [ScalarTy],
    /// The support table.
    pub ops: OpSupport,
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

/// The x86 (SSE, AVX) support table: every idiom is native (`pmaddwd`
/// for dot products) except per-lane shift counts.
const X86_OPS: OpSupport = OpSupport {
    fdiv: Support::Native,
    fsqrt: Support::Native,
    widen_mult: Support::Native,
    cvt: Support::Native,
    dot_product: Support::Native,
    per_lane_shift: Support::Unsupported,
};

/// Intel Core2-class SSE target: 16-byte vectors, misaligned accesses
/// supported but slower (`movdqu`), no explicit realignment idiom.
pub fn sse() -> TargetDesc {
    TargetDesc {
        name: "SSE (128-bit)",
        kind: TargetKind::Sse,
        vs: 16,
        vla: false,
        misaligned: MisalignedAccess::Unaligned,
        vector_elems: ALL_VECTOR_ELEMS,
        ops: X86_OPS,
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
        misaligned: MisalignedAccess::Realign,
        vector_elems: ALTIVEC_ELEMS,
        ops: OpSupport {
            // vrefp is an estimate; GCC scalarizes exact division.
            fdiv: Support::Unsupported,
            fsqrt: Support::Unsupported,
            widen_mult: Support::Native, // vmulesh/vmulosh
            cvt: Support::Native,
            dot_product: Support::Native, // vmsumshm
            per_lane_shift: Support::Native,
        },
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
        misaligned: MisalignedAccess::Unaligned,
        vector_elems: NEON64_ELEMS,
        ops: OpSupport {
            fdiv: Support::Unsupported,
            fsqrt: Support::Unsupported,
            // Immature backend: library fallback.
            widen_mult: Support::Helper,
            cvt: Support::Helper,
            dot_product: Support::Native,
            per_lane_shift: Support::Native,
        },
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
        misaligned: MisalignedAccess::Unaligned,
        vector_elems: ALL_VECTOR_ELEMS,
        ops: X86_OPS,
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
        misaligned: MisalignedAccess::AlignedOnly,
        vector_elems: &[],
        ops: OpSupport {
            fdiv: Support::Unsupported,
            fsqrt: Support::Unsupported,
            widen_mult: Support::Unsupported,
            cvt: Support::Unsupported,
            dot_product: Support::Unsupported,
            per_lane_shift: Support::Unsupported,
        },
        cost: CostModel::generic_scalar(),
        ports: PortModel::single_issue(),
    }
}

/// The VLA family's support table: half-based idioms are undefined at a
/// runtime VL; same-width lane conversions are VL-clean.
const VLA_OPS: OpSupport = OpSupport {
    fdiv: Support::Native,
    fsqrt: Support::Native,
    widen_mult: Support::Unsupported,
    cvt: Support::Native,
    dot_product: Support::Unsupported,
    per_lane_shift: Support::Native,
};

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
        misaligned: MisalignedAccess::Unaligned, // VLA memory ops are element-aligned only
        vector_elems: ALL_VECTOR_ELEMS,
        ops: VLA_OPS,
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
        misaligned: MisalignedAccess::Unaligned,
        vector_elems: ALL_VECTOR_ELEMS,
        ops: VLA_OPS,
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
    use vapor_ir::OpClass;

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
        assert_eq!(t.support(OpClass::WidenMult), Support::Helper);
        assert_eq!(t.support(OpClass::Cvt), Support::Helper);
        assert!(t.supports_elem(ScalarTy::I16));
        // One f64 lane only: not vectorizable.
        assert!(!t.supports_elem(ScalarTy::F64));
    }

    #[test]
    fn support_table_matches_readme() {
        use MisalignedAccess::{AlignedOnly, Realign, Unaligned};
        use Support::{Helper as H, Native as N, Unsupported as U};
        let classes = [
            OpClass::FDiv,
            OpClass::FSqrt,
            OpClass::WidenMult,
            OpClass::Cvt,
            OpClass::DotProduct,
            OpClass::PerLaneShift,
        ];
        let table = [
            (sse(), Unaligned, [N, N, N, N, N, U]),
            (altivec(), Realign, [U, U, N, N, N, N]),
            (neon64(), Unaligned, [U, U, H, H, N, N]),
            (avx(), Unaligned, [N, N, N, N, N, U]),
            (scalar_only(), AlignedOnly, [U; 6]),
            (sve(), Unaligned, [N, N, U, N, U, N]),
            (rvv(), Unaligned, [N, N, U, N, U, N]),
        ];
        let kinds: Vec<_> = table.iter().map(|(t, ..)| t.kind).collect();
        assert_eq!(kinds, TargetKind::ALL);
        for (t, misaligned, row) in table {
            assert_eq!(t.misaligned, misaligned, "{}", t.name);
            for (c, s) in classes.into_iter().zip(row) {
                assert_eq!(t.support(c), s, "{} {c:?}", t.name);
            }
        }
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
            assert_eq!(t.support(OpClass::DotProduct), Support::Unsupported);
            assert_eq!(t.support(OpClass::WidenMult), Support::Unsupported);
            for c in [OpClass::FDiv, OpClass::FSqrt, OpClass::Cvt] {
                assert_eq!(t.support(c), Support::Native, "{} {c:?}", t.name);
            }
            assert_eq!(t.misaligned, MisalignedAccess::Unaligned);
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
