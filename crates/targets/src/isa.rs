//! The virtual machine instruction set ("machine code" of the simulated
//! targets).
//!
//! The online compiler lowers bytecode into this ISA; the VM executes it
//! with a per-target cycle model. The ISA is deliberately close to the
//! common shape of SSE/AltiVec/NEON/AVX: two register files, explicit
//! aligned/unaligned memory ops, permute-based realignment, and a small
//! set of widening/packing/conversion operations.

use std::fmt;

use vapor_ir::{BinOp, ScalarTy, UnOp};

/// Scalar register (i64 or f64 payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SReg(pub u32);

/// Vector register (up to 32 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

/// Branch label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Memory addressing mode.
///
/// `Fused` is the rich `[base + idx*scale + disp]` form an optimizing
/// code generator uses; a weaker generator computes the address into a
/// register first and uses `[base + disp]` only — this difference is one
/// of the paper's observed native-vs-split code-generation deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddrMode {
    /// Base address register.
    pub base: SReg,
    /// Optional scaled index register.
    pub idx: Option<SReg>,
    /// Scale applied to the index (bytes).
    pub scale: u8,
    /// Constant displacement (bytes).
    pub disp: i64,
}

impl AddrMode {
    /// `[base + disp]`.
    pub fn base_disp(base: SReg, disp: i64) -> AddrMode {
        AddrMode {
            base,
            idx: None,
            scale: 1,
            disp,
        }
    }

    /// `[base + idx*scale + disp]`.
    pub fn fused(base: SReg, idx: SReg, scale: u8, disp: i64) -> AddrMode {
        AddrMode {
            base,
            idx: Some(idx),
            scale,
            disp,
        }
    }
}

/// Branch condition on two scalar integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `a < b` (signed).
    Lt,
    /// `a >= b` (signed).
    Ge,
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
}

/// Alignment contract of a vector memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAlign {
    /// Must be VS-aligned; the VM traps otherwise (a miscompile).
    Aligned,
    /// May be misaligned (`movdqu`-class; slower on most targets).
    Unaligned,
}

/// Which half of the input(s) a widening/interleave op consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// Low half.
    Lo,
    /// High half.
    Hi,
}

/// Direction of a lane-wise conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvtDir {
    /// Integer to float (same lane width).
    IntToFloat,
    /// Float to integer (same lane width, saturating).
    FloatToInt,
}

/// Reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of lanes.
    Plus,
    /// Maximum lane.
    Max,
    /// Minimum lane.
    Min,
}

/// Shift amount source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftSrc {
    /// Immediate amount.
    Imm(u8),
    /// Scalar register amount (broadcast).
    Reg(SReg),
    /// Per-lane amounts in a vector register.
    PerLane(VReg),
}

/// Library-helper operations used when a target's backend lacks an idiom
/// (the paper's NEON `dissolve`/`dct` fallback). Executed correctly but
/// charged a call + per-lane software cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperOp {
    /// Widening multiply of a half.
    WidenMult(Half),
    /// Lane-wise conversion.
    Cvt(CvtDir),
    /// Vector float division.
    FDiv,
    /// Vector square root.
    FSqrt,
    /// Pack/demote.
    Pack,
    /// Unpack/promote a half.
    Unpack(Half),
}

/// One machine instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum MInst {
    // ----- control -----
    /// Branch target marker (resolved at load time; free at run time).
    Label(Label),
    /// Unconditional jump.
    Jump(Label),
    /// Conditional branch comparing two scalar registers.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
        /// Target label.
        target: Label,
    },
    /// Conditional branch against an immediate.
    BranchImm {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: SReg,
        /// Immediate right operand.
        imm: i64,
        /// Target label.
        target: Label,
    },

    // ----- scalar -----
    /// Load integer immediate.
    MovImmI {
        /// Destination.
        dst: SReg,
        /// Value.
        imm: i64,
    },
    /// Load float immediate.
    MovImmF {
        /// Destination.
        dst: SReg,
        /// Value.
        imm: f64,
    },
    /// Register copy.
    MovS {
        /// Destination.
        dst: SReg,
        /// Source.
        src: SReg,
    },
    /// Scalar binary ALU op at type `ty`.
    SBin {
        /// Operator.
        op: BinOp,
        /// Operation type.
        ty: ScalarTy,
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
    },
    /// Scalar binary ALU op with immediate.
    SBinImm {
        /// Operator.
        op: BinOp,
        /// Operation type.
        ty: ScalarTy,
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Immediate.
        imm: i64,
    },
    /// Scalar unary op.
    SUn {
        /// Operator.
        op: UnOp,
        /// Operation type.
        ty: ScalarTy,
        /// Destination.
        dst: SReg,
        /// Operand.
        a: SReg,
    },
    /// Scalar conversion.
    SCvt {
        /// Source type.
        from: ScalarTy,
        /// Destination type.
        to: ScalarTy,
        /// Destination register.
        dst: SReg,
        /// Operand.
        a: SReg,
    },
    /// Scalar float op routed through an x87-style FPU stack — the Mono
    /// x86 artifact of §V-A; same semantics as [`MInst::SBin`], higher
    /// cost.
    FpuBin {
        /// Operator.
        op: BinOp,
        /// Operation type (float).
        ty: ScalarTy,
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
    },
    /// Scalar load.
    LoadS {
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: SReg,
        /// Address.
        addr: AddrMode,
    },
    /// Scalar store.
    StoreS {
        /// Element type.
        ty: ScalarTy,
        /// Source.
        src: SReg,
        /// Address.
        addr: AddrMode,
    },

    // ----- vector memory -----
    /// Vector load.
    LoadV {
        /// Destination.
        dst: VReg,
        /// Address.
        addr: AddrMode,
        /// Alignment contract.
        align: MemAlign,
    },
    /// Floor-aligned vector load (`lvx` semantics: low address bits are
    /// ignored). Never traps on misalignment.
    LoadVFloor {
        /// Destination.
        dst: VReg,
        /// Address (rounded down to VS).
        addr: AddrMode,
    },
    /// Vector store.
    StoreV {
        /// Source.
        src: VReg,
        /// Address.
        addr: AddrMode,
        /// Alignment contract.
        align: MemAlign,
    },

    // ----- vector compute -----
    /// Broadcast a scalar to all lanes.
    Splat {
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Source scalar.
        src: SReg,
    },
    /// Lane `k` gets `start + k*inc` (for `init_affine`).
    Iota {
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Start value.
        start: SReg,
        /// Increment.
        inc: SReg,
    },
    /// Insert a scalar into one lane.
    SetLane {
        /// Element type.
        ty: ScalarTy,
        /// Destination (modified in place).
        dst: VReg,
        /// Lane index.
        lane: u8,
        /// Source scalar.
        src: SReg,
    },
    /// Extract one lane to a scalar.
    GetLane {
        /// Element type.
        ty: ScalarTy,
        /// Destination scalar.
        dst: SReg,
        /// Source vector.
        src: VReg,
        /// Lane index.
        lane: u8,
    },
    /// Elementwise binary op.
    VBin {
        /// Operator.
        op: BinOp,
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Elementwise unary op.
    VUn {
        /// Operator.
        op: UnOp,
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
    },
    /// Vector shift.
    VShift {
        /// Left (`true`) or right shift.
        left: bool,
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
        /// Amount.
        amt: ShiftSrc,
    },
    /// Widening multiply of one half of the inputs.
    VWidenMul {
        /// Which half.
        half: Half,
        /// Source element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Dot-product accumulate (`pmaddwd`-class): pairwise widening
    /// multiply, pairs summed, added to `acc`.
    VDotAcc {
        /// Source element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Accumulator (widened type).
        acc: VReg,
    },
    /// Demote two vectors into one (modular truncation).
    VPack {
        /// Source element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Low source.
        a: VReg,
        /// High source.
        b: VReg,
    },
    /// Promote one half of a vector.
    VUnpack {
        /// Which half.
        half: Half,
        /// Source element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
    },
    /// Lane-wise conversion.
    VCvt {
        /// Direction.
        dir: CvtDir,
        /// Source element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
    },
    /// Interleave one half of two vectors.
    VInterleave {
        /// Which half.
        half: Half,
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// First source.
        a: VReg,
        /// Second source.
        b: VReg,
    },
    /// Strided lane extraction from concatenated sources (lowered from
    /// the `extract` idiom; costed as `stride` shuffles).
    VExtractStride {
        /// Element type.
        ty: ScalarTy,
        /// Stride.
        stride: u8,
        /// Phase offset.
        offset: u8,
        /// Destination.
        dst: VReg,
        /// `stride` sources.
        srcs: Vec<VReg>,
    },
    /// Build a realignment control from an address (`lvsr` role): the
    /// control captures `addr % VS`.
    VPermCtrl {
        /// Destination control register.
        dst: VReg,
        /// Address whose misalignment is captured.
        addr: AddrMode,
    },
    /// Byte-window extraction `concat(a,b)[ctrl .. ctrl+VS]` (`vperm`
    /// role; implements realignment).
    VPerm {
        /// Destination.
        dst: VReg,
        /// Low source.
        a: VReg,
        /// High source.
        b: VReg,
        /// Control from [`MInst::VPermCtrl`].
        ctrl: VReg,
    },
    /// Horizontal reduction to a scalar.
    VReduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Element type.
        ty: ScalarTy,
        /// Destination scalar.
        dst: SReg,
        /// Source vector.
        src: VReg,
    },
    /// Vector register copy.
    MovV {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Reload a scalar from a spill slot (naive register allocation).
    SpillLd {
        /// Destination register.
        dst: SReg,
        /// Slot index.
        slot: u32,
    },
    /// Spill a scalar to a slot (naive register allocation).
    SpillSt {
        /// Source register.
        src: SReg,
        /// Slot index.
        slot: u32,
    },
    /// Library-helper call for an idiom the backend lacks.
    VHelper {
        /// Which operation.
        op: HelperOp,
        /// Source element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// First operand.
        a: VReg,
        /// Second operand (ops that need one).
        b: Option<VReg>,
    },

    // ----- vector-length-agnostic (SVE/RVV-class) -----
    /// Stripmine control (`vsetvli` / `whilelt` role): set the active
    /// vector length to `min(max(avl, 0), VLMAX)` elements of `ty`, where
    /// `VLMAX` is the lane count of `ty` in the *executing* machine's
    /// vector register — a quantity unknown until run time on a VLA
    /// target. The chosen `vl` (in elements) is written to `dst` and
    /// latched in the machine for subsequent `...Vl` instructions.
    SetVl {
        /// Element type the length is counted in.
        ty: ScalarTy,
        /// Destination: receives the chosen `vl` in elements.
        dst: SReg,
        /// Application vector length: elements remaining to process.
        avl: SReg,
    },
    /// Predicated vector load: reads only the `vl` active lanes
    /// (element-aligned; VLA memory ops carry no whole-register alignment
    /// contract), zeroing the inactive lanes (SVE zeroing predication).
    LoadVl {
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Address.
        addr: AddrMode,
    },
    /// Predicated vector store: writes only the `vl` active lanes.
    StoreVl {
        /// Element type.
        ty: ScalarTy,
        /// Source.
        src: VReg,
        /// Address.
        addr: AddrMode,
    },
    /// Predicated elementwise binary op: active lanes are computed,
    /// inactive lanes keep `dst`'s previous contents (merging
    /// predication, so loop-carried accumulators stay correct on the
    /// partial final stripmine iteration).
    VBinVl {
        /// Operator.
        op: BinOp,
        /// Element type.
        ty: ScalarTy,
        /// Destination (inactive lanes preserved).
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Predicated elementwise unary op (merging predication).
    VUnVl {
        /// Operator.
        op: UnOp,
        /// Element type.
        ty: ScalarTy,
        /// Destination (inactive lanes preserved).
        dst: VReg,
        /// Operand.
        a: VReg,
    },
}

/// How an instruction accesses one of its register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read only.
    Read,
    /// Written only.
    Write,
    /// Read and written in place: lane insertion and merging predication
    /// keep the destination's other lanes.
    ReadWrite,
}

impl Access {
    /// Whether the operand's old value is read.
    pub fn reads(self) -> bool {
        self != Access::Write
    }

    /// Whether the operand is written.
    pub fn writes(self) -> bool {
        self != Access::Read
    }
}

/// The one operand enumeration of the ISA, shared by the `&` and
/// `&mut` visitors: every register operand of `$inst`, in field order,
/// scalar ones to `$s` and vector ones to `$v`. No wildcard arm, so a
/// new instruction does not compile until its operands are listed here.
macro_rules! visit_operands {
    ($inst:expr, $s:ident, $v:ident) => {{
        use Access::{Read as R, ReadWrite as RW, Write as W};
        macro_rules! addr {
            ($a:expr) => {{
                let AddrMode { base, idx, .. } = $a;
                $s(base, R);
                if let Some(i) = idx {
                    $s(i, R);
                }
            }};
        }
        match $inst {
            MInst::Label(_) | MInst::Jump(_) => {}
            MInst::Branch { a, b, .. } => {
                $s(a, R);
                $s(b, R);
            }
            MInst::BranchImm { a, .. } | MInst::SpillSt { src: a, .. } => $s(a, R),
            MInst::MovImmI { dst, .. }
            | MInst::MovImmF { dst, .. }
            | MInst::SpillLd { dst, .. } => $s(dst, W),
            MInst::SBin { dst, a, b, .. } | MInst::FpuBin { dst, a, b, .. } => {
                $s(dst, W);
                $s(a, R);
                $s(b, R);
            }
            MInst::MovS { dst, src: a }
            | MInst::SBinImm { dst, a, .. }
            | MInst::SUn { dst, a, .. }
            | MInst::SCvt { dst, a, .. }
            | MInst::SetVl { dst, avl: a, .. } => {
                $s(dst, W);
                $s(a, R);
            }
            MInst::LoadS { dst, addr, .. } => {
                $s(dst, W);
                addr!(addr);
            }
            MInst::StoreS { src, addr, .. } => {
                $s(src, R);
                addr!(addr);
            }
            MInst::LoadV { dst, addr, .. }
            | MInst::LoadVFloor { dst, addr }
            | MInst::VPermCtrl { dst, addr }
            | MInst::LoadVl { dst, addr, .. } => {
                $v(dst, W);
                addr!(addr);
            }
            MInst::StoreV { src, addr, .. } | MInst::StoreVl { src, addr, .. } => {
                $v(src, R);
                addr!(addr);
            }
            MInst::Splat { dst, src, .. } => {
                $v(dst, W);
                $s(src, R);
            }
            MInst::Iota {
                dst, start, inc, ..
            } => {
                $v(dst, W);
                $s(start, R);
                $s(inc, R);
            }
            MInst::SetLane { dst, src, .. } => {
                $v(dst, RW);
                $s(src, R);
            }
            MInst::GetLane { dst, src, .. } | MInst::VReduce { dst, src, .. } => {
                $s(dst, W);
                $v(src, R);
            }
            MInst::VBin { dst, a, b, .. }
            | MInst::VWidenMul { dst, a, b, .. }
            | MInst::VPack { dst, a, b, .. }
            | MInst::VInterleave { dst, a, b, .. } => {
                $v(dst, W);
                $v(a, R);
                $v(b, R);
            }
            MInst::VUn { dst, a, .. }
            | MInst::VUnpack { dst, a, .. }
            | MInst::VCvt { dst, a, .. }
            | MInst::MovV { dst, src: a } => {
                $v(dst, W);
                $v(a, R);
            }
            MInst::VShift { dst, a, amt, .. } => {
                $v(dst, W);
                $v(a, R);
                match amt {
                    ShiftSrc::Imm(_) => {}
                    ShiftSrc::Reg(r) => $s(r, R),
                    ShiftSrc::PerLane(r) => $v(r, R),
                }
            }
            MInst::VDotAcc { dst, a, b, acc, .. }
            | MInst::VPerm {
                dst,
                a,
                b,
                ctrl: acc,
            } => {
                $v(dst, W);
                $v(a, R);
                $v(b, R);
                $v(acc, R);
            }
            MInst::VExtractStride { dst, srcs, .. } => {
                $v(dst, W);
                for r in srcs {
                    $v(r, R);
                }
            }
            MInst::VHelper { dst, a, b, .. } => {
                $v(dst, W);
                $v(a, R);
                if let Some(b) = b {
                    $v(b, R);
                }
            }
            MInst::VBinVl { dst, a, b, .. } => {
                $v(dst, RW);
                $v(a, R);
                $v(b, R);
            }
            MInst::VUnVl { dst, a, .. } => {
                $v(dst, RW);
                $v(a, R);
            }
        }
    }};
}

impl MInst {
    /// Whether this instruction is a pure marker (no execution cost).
    pub fn is_label(&self) -> bool {
        matches!(self, MInst::Label(_))
    }

    /// Visit every register operand with how it is accessed, in field
    /// order: scalar registers go to `s`, vector registers to `v`. The
    /// JIT's dead-code and spill passes enumerate operands only here.
    pub fn visit_regs(&self, mut s: impl FnMut(SReg, Access), mut v: impl FnMut(VReg, Access)) {
        let mut s = |r: &SReg, a| s(*r, a);
        let mut v = |r: &VReg, a| v(*r, a);
        visit_operands!(self, s, v)
    }

    /// [`MInst::visit_regs`] with the registers writable, for renaming.
    pub fn visit_regs_mut(
        &mut self,
        mut s: impl FnMut(&mut SReg, Access),
        mut v: impl FnMut(&mut VReg, Access),
    ) {
        visit_operands!(self, s, v)
    }
}

/// A compiled function: a flat instruction list plus register counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MCode {
    /// Instructions.
    pub insts: Vec<MInst>,
    /// Number of scalar registers used.
    pub n_sregs: u32,
    /// Number of vector registers used.
    pub n_vregs: u32,
    /// Human-readable provenance (kernel + pipeline), for reports.
    pub note: String,
}

impl MCode {
    /// Count non-label instructions (static code size).
    pub fn len(&self) -> usize {
        self.insts.iter().filter(|i| !i.is_label()).count()
    }

    /// Whether there are no executable instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve labels to instruction indices.
    ///
    /// # Panics
    /// Panics if a label is defined twice.
    pub fn label_map(&self) -> std::collections::HashMap<Label, usize> {
        let mut m = std::collections::HashMap::new();
        for (i, inst) in self.insts.iter().enumerate() {
            if let MInst::Label(l) = inst {
                let prev = m.insert(*l, i);
                assert!(prev.is_none(), "label {l} defined twice");
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_map_resolves() {
        let code = MCode {
            insts: vec![
                MInst::Label(Label(0)),
                MInst::MovImmI {
                    dst: SReg(0),
                    imm: 1,
                },
                MInst::Label(Label(1)),
            ],
            n_sregs: 1,
            n_vregs: 0,
            note: String::new(),
        };
        let m = code.label_map();
        assert_eq!(m[&Label(0)], 0);
        assert_eq!(m[&Label(1)], 2);
        assert_eq!(code.len(), 1);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_labels_panic() {
        let code = MCode {
            insts: vec![MInst::Label(Label(0)), MInst::Label(Label(0))],
            ..Default::default()
        };
        let _ = code.label_map();
    }
}
