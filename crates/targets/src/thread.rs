//! Closure-threaded execution tier: the lowering below [`DecodedProgram`].
//!
//! A decoded program still pays two per-step costs that have nothing to
//! do with the step's own work: the fuel check + `insts`/`cycles`
//! bookkeeping, and the `base + i*scale + disp` address recomputation
//! on every memory access of an affine loop. The threaded form removes
//! both at *thread time* (one more offline pass, amortized exactly like
//! decoding itself):
//!
//! * **Regions** — steps are grouped into straight-line regions (control
//!   can only be the last step of a region), and each region's exact
//!   instruction arity and width-independent cycle cost are pre-summed.
//!   The executor charges fuel and statistics once per region instead
//!   of once per step; a reduction or helper call adds the part of its
//!   cost that depends on the machine's vector width as it runs. Like
//!   the fused-step fuel contract, a region whose constituents would
//!   cross the budget traps at the region boundary without executing
//!   any of them; non-trapping executions are bit-identical.
//! * **Affine address streams** — for innermost loops whose latch is a
//!   fused `i += #imm` / `i -= #imm` step on `i64`, every memory leg
//!   whose address is affine in the induction variable gets a *stream*:
//!   a cursor initialized on loop entry and bumped by a precomputed
//!   constant on every taken backedge. The `LoadV`/`StoreV` steps stride
//!   the cursor instead of re-reading two scalar registers and
//!   re-multiplying per iteration. Streams are bit-exact by
//!   construction: the induction step is a wrapping `i64` add, so
//!   `base + (i+d)*scale + disp == (base + i*scale + disp) + d*scale`
//!   modulo 2⁶⁴, which is precisely the decoded computation.
//!
//! Bounds and alignment checks stay *per access* — they are part of the
//! trap contract and must fire at exactly the same instruction with
//! exactly the same message as the decoded tier. Only fuel is hoisted,
//! because its region-boundary semantics are provably equivalent for
//! every non-trapping execution.
//!
//! The decoded tier remains the differential oracle: machine state,
//! `vm_cycles` and instruction counts must be bit-identical (see
//! `tests/threaded_differential.rs`).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;

use vapor_ir::sem::Value;
use vapor_ir::{BinOp, ScalarTy, UnOp};

use crate::decode::{
    flatten_addr, DStep, DecodedProgram, FusedAddr, SBinFn, SplatFn, VBinFn, VReduceFn, VShiftFn,
    VUnFn, Width, NO_INDEX,
};
use crate::isa::{Cond, MCode, MInst, ReduceOp, SReg, VReg};
use crate::target::TargetDesc;

/// One memory-operand address of a threaded step: either the flattened
/// affine fields (recomputed per access, exactly like the decoded fast
/// steps) or a reference to a precomputed address stream.
#[derive(Debug, Clone, Copy)]
pub enum TAddr {
    /// Recompute `base + idx*scale + disp` on every access.
    Direct {
        /// Base address register.
        base: SReg,
        /// Index register number, or [`NO_INDEX`].
        idx: u32,
        /// Scale applied to the index (bytes).
        scale: u8,
        /// Constant displacement (bytes).
        disp: i32,
    },
    /// Read the cursor of stream `.0` (see [`StreamDef`]).
    Stream(u32),
}

/// A precomputed affine address stream. The full flattened address is
/// kept alongside the per-iteration delta so an *invalid* initialization
/// (a base register holding a float, or still undefined at loop entry)
/// falls back to the per-access computation and reproduces the decoded
/// tier's exact trap.
#[derive(Debug, Clone, Copy)]
pub struct StreamDef {
    /// Base address register.
    pub base: SReg,
    /// Index register number, or [`NO_INDEX`].
    pub idx: u32,
    /// Scale applied to the index (bytes).
    pub scale: u8,
    /// Constant displacement (bytes).
    pub disp: i32,
    /// Cursor increment per taken backedge (bytes, wrapping).
    pub delta: i64,
}

/// One straight-line region: `n` consecutive steps of which only the
/// last may transfer control, plus the region's pre-summed instruction
/// arity and width-independent cycle cost (charged once at region
/// entry).
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// Index of the first step.
    pub first: u32,
    /// Number of steps.
    pub n: u32,
    /// Sum of the constituent steps' source-instruction arities.
    pub arity: u64,
    /// Sum of the constituent steps' width-independent cycle costs.
    pub cost: u64,
}

/// Payload of the threaded `LoadV → VBin → StoreV` superinstruction.
#[derive(Debug, Clone)]
pub struct TLoadBinStore {
    /// Load destination.
    pub load_dst: VReg,
    /// Whether the load carries the aligned contract.
    pub load_aligned: bool,
    /// Load address.
    pub load: TAddr,
    /// Binary-op destination (also the store source).
    pub dst: VReg,
    /// Left operand.
    pub a: VReg,
    /// Right operand.
    pub b: VReg,
    /// Specialized lane kernel.
    pub f: VBinFn,
    /// Operator (for disassembly).
    pub op: BinOp,
    /// Element type.
    pub ty: ScalarTy,
    /// Whether the store carries the aligned contract.
    pub store_aligned: bool,
    /// Store address.
    pub store: TAddr,
}

/// Payload of the threaded `LoadV → VBin → VBin` superinstruction.
#[derive(Debug, Clone)]
pub struct TLoadBinBin {
    /// Load destination.
    pub load_dst: VReg,
    /// Whether the load carries the aligned contract.
    pub load_aligned: bool,
    /// Load address.
    pub load: TAddr,
    /// First op's destination.
    pub dst1: VReg,
    /// First op's left operand.
    pub a1: VReg,
    /// First op's right operand.
    pub b1: VReg,
    /// First specialized lane kernel.
    pub f1: VBinFn,
    /// First operator.
    pub op1: BinOp,
    /// First element type.
    pub ty1: ScalarTy,
    /// Second op's destination.
    pub dst2: VReg,
    /// Second op's left operand.
    pub a2: VReg,
    /// Second op's right operand.
    pub b2: VReg,
    /// Second specialized lane kernel.
    pub f2: VBinFn,
    /// Second operator.
    pub op2: BinOp,
    /// Second element type.
    pub ty2: ScalarTy,
}

/// Payload of the threaded `LoadV → VBin` superinstruction.
#[derive(Debug, Clone)]
pub struct TLoadBin {
    /// Load destination.
    pub load_dst: VReg,
    /// Whether the load carries the aligned contract.
    pub load_aligned: bool,
    /// Load address.
    pub load: TAddr,
    /// Binary-op destination.
    pub dst: VReg,
    /// Left operand.
    pub a: VReg,
    /// Right operand.
    pub b: VReg,
    /// Specialized lane kernel.
    pub f: VBinFn,
    /// Operator.
    pub op: BinOp,
    /// Element type.
    pub ty: ScalarTy,
}

/// Payload of the threaded `VBin → StoreV` superinstruction.
#[derive(Debug, Clone)]
pub struct TBinStore {
    /// Binary-op destination (also the store source).
    pub dst: VReg,
    /// Left operand.
    pub a: VReg,
    /// Right operand.
    pub b: VReg,
    /// Specialized lane kernel.
    pub f: VBinFn,
    /// Operator.
    pub op: BinOp,
    /// Element type.
    pub ty: ScalarTy,
    /// Whether the store carries the aligned contract.
    pub store_aligned: bool,
    /// Store address.
    pub store: TAddr,
}

/// Payload of the threaded predicated `LoadVl → VBinVl → StoreVl`
/// runtime-VL superinstruction.
#[derive(Debug, Clone)]
pub struct TLoadBinStoreVl {
    /// Element type of the predicated load.
    pub load_ty: ScalarTy,
    /// Load destination.
    pub load_dst: VReg,
    /// Load address.
    pub load: TAddr,
    /// Binary-op destination (merge source; also the store source).
    pub dst: VReg,
    /// Left operand.
    pub a: VReg,
    /// Right operand.
    pub b: VReg,
    /// Specialized lane kernel.
    pub f: VBinFn,
    /// Operator.
    pub op: BinOp,
    /// Element type of the binary op.
    pub ty: ScalarTy,
    /// Element type of the predicated store.
    pub store_ty: ScalarTy,
    /// Store address.
    pub store: TAddr,
}

/// Payload of the threaded loop latch: the fused induction step +
/// backedge test, plus the range of streams to bump when the backedge
/// is taken.
#[derive(Debug, Clone)]
pub struct TLatch {
    /// Destination of the scalar op.
    pub dst: SReg,
    /// Left operand of the scalar op.
    pub a: SReg,
    /// Immediate right operand.
    pub imm: i32,
    /// Specialized scalar kernel.
    pub f: SBinFn,
    /// Operand type.
    pub ty: ScalarTy,
    /// Result type.
    pub rty: ScalarTy,
    /// Branch condition.
    pub cond: Cond,
    /// Left branch operand.
    pub br_a: SReg,
    /// Right branch operand register number, or [`NO_INDEX`].
    pub br_reg: u32,
    /// Immediate right branch operand (used when `br_reg` is
    /// [`NO_INDEX`]).
    pub br_imm: i64,
    /// Target *region* of the backedge.
    pub target: u32,
    /// First stream owned by this loop.
    pub first_stream: u32,
    /// Number of streams owned by this loop (zero when none qualified).
    pub n_streams: u32,
}

/// Payload of [`TStep::SBin2`]: two back-to-back register-register
/// scalar ALU ops merged into one dispatch by the thread-time peephole.
/// Constituents execute in order with both register writes, so state
/// and traps are exactly those of the unfused pair.
#[derive(Debug, Clone, Copy)]
pub struct TSBin2 {
    /// Destination of the first op.
    pub dst1: SReg,
    /// Left operand of the first op.
    pub a1: SReg,
    /// Right operand of the first op.
    pub b1: SReg,
    /// Specialized scalar kernel of the first op.
    pub f1: SBinFn,
    /// Operand type of the first op.
    pub ty1: ScalarTy,
    /// Result type of the first op.
    pub rty1: ScalarTy,
    /// Destination of the second op.
    pub dst2: SReg,
    /// Left operand of the second op.
    pub a2: SReg,
    /// Right operand of the second op.
    pub b2: SReg,
    /// Specialized scalar kernel of the second op.
    pub f2: SBinFn,
    /// Operand type of the second op.
    pub ty2: ScalarTy,
    /// Result type of the second op.
    pub rty2: ScalarTy,
}

/// One threaded step. Vector operands are registers of the machine's
/// one register file, read and written by the same helpers as the
/// decoded steps; branch targets are *region* indices; memory operands
/// are [`TAddr`]s (possibly stream-backed).
///
/// No `PartialEq` (function pointers); compare the source program.
#[derive(Debug, Clone)]
pub enum TStep {
    /// Unconditional jump to a region.
    Jump {
        /// Target region.
        target: u32,
    },
    /// Conditional branch on two scalar registers.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
        /// Target region.
        target: u32,
    },
    /// Conditional branch against an immediate.
    BranchImm {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: SReg,
        /// Immediate right operand.
        imm: i64,
        /// Target region.
        target: u32,
    },
    /// Initialize the cursors of streams `first..first+n` from the
    /// current scalar registers (arity 0, cost 0; inserted at the entry
    /// of every streamed loop so every path into the loop passes it).
    InitStreams {
        /// First stream to initialize.
        first: u32,
        /// Number of streams.
        n: u32,
    },
    /// All-lanes specialized vector binary op.
    VBin {
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Specialized lane kernel.
        f: VBinFn,
        /// Operator (for disassembly).
        op: BinOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// All-lanes specialized vector unary op.
    VUn {
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
        /// Specialized lane kernel.
        f: VUnFn,
        /// Operator.
        op: UnOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// Vector register copy (the whole slot).
    MovV {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Merging-predicated (runtime-VL) vector binary op.
    VBinVl {
        /// Destination (merge source).
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Specialized lane kernel.
        f: VBinFn,
        /// Operator.
        op: BinOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// Merging-predicated vector unary op.
    VUnVl {
        /// Destination (merge source).
        dst: VReg,
        /// Operand.
        a: VReg,
        /// Specialized lane kernel.
        f: VUnFn,
        /// Operator.
        op: UnOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// Whole-register vector load.
    LoadV {
        /// Destination.
        dst: VReg,
        /// Whether the access carries the aligned contract.
        aligned: bool,
        /// Address.
        addr: TAddr,
    },
    /// Whole-register vector store.
    StoreV {
        /// Source.
        src: VReg,
        /// Whether the access carries the aligned contract.
        aligned: bool,
        /// Address.
        addr: TAddr,
    },
    /// Scalar load.
    LoadS {
        /// Element type.
        ty: ScalarTy,
        /// Destination register.
        dst: SReg,
        /// Address.
        addr: TAddr,
    },
    /// Scalar store.
    StoreS {
        /// Element type.
        ty: ScalarTy,
        /// Source register.
        src: SReg,
        /// Address.
        addr: TAddr,
    },
    /// Predicated (element-aligned, zeroing) vector load.
    LoadVl {
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: VReg,
        /// Address.
        addr: TAddr,
    },
    /// Predicated vector store.
    StoreVl {
        /// Element type.
        ty: ScalarTy,
        /// Source.
        src: VReg,
        /// Address.
        addr: TAddr,
    },
    /// Specialized scalar ALU op.
    SBin {
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
        /// Specialized scalar kernel.
        f: SBinFn,
        /// Operand type.
        ty: ScalarTy,
        /// Result type.
        rty: ScalarTy,
    },
    /// Specialized scalar-immediate ALU op.
    SBinImm {
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Immediate right operand.
        imm: i32,
        /// Specialized scalar kernel.
        f: SBinFn,
        /// Operand type.
        ty: ScalarTy,
        /// Result type.
        rty: ScalarTy,
    },
    /// Two consecutive register-register scalar ALU ops in one
    /// dispatch, merged by the thread-time peephole when the second op
    /// is not a branch target. Scalar-chain loop bodies (derived
    /// address arithmetic like `a[i*n + j]`) are dominated by dispatch,
    /// not work, so halving the dispatches is the whole win.
    SBin2(Box<TSBin2>),
    /// Scalar register move.
    MovS {
        /// Destination.
        dst: SReg,
        /// Source.
        src: SReg,
    },
    /// Scalar immediate materialization (`MovImmI` / `MovImmF`), lifted
    /// to a runtime [`Value`] at thread time so a loop-resident constant
    /// does not pay the generic [`TStep::ScalarOp`] dispatch.
    MovImm {
        /// Destination.
        dst: SReg,
        /// The immediate in its runtime domain.
        v: Value,
    },
    /// Specialized broadcast.
    Splat {
        /// Destination.
        dst: VReg,
        /// Source scalar register.
        src: SReg,
        /// Specialized broadcast kernel.
        f: SplatFn,
        /// Element type.
        ty: ScalarTy,
    },
    /// Specialized vector shift by an immediate.
    VShiftImm {
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
        /// Specialized shift kernel.
        f: VShiftFn,
        /// Immediate amount.
        imm: u8,
        /// Shift direction (for disassembly).
        left: bool,
        /// Element type.
        ty: ScalarTy,
    },
    /// Specialized vector shift by a scalar register amount.
    VShiftReg {
        /// Destination.
        dst: VReg,
        /// Operand.
        a: VReg,
        /// Specialized shift kernel.
        f: VShiftFn,
        /// Amount register.
        amt: SReg,
        /// Shift direction (for disassembly).
        left: bool,
        /// Element type.
        ty: ScalarTy,
    },
    /// Spill reload.
    SpillLd {
        /// Destination register.
        dst: SReg,
        /// Slot index.
        slot: u32,
    },
    /// Spill store.
    SpillSt {
        /// Source register.
        src: SReg,
        /// Slot index.
        slot: u32,
    },
    /// Specialized reduction.
    VReduce {
        /// Destination scalar register.
        dst: SReg,
        /// Source.
        src: VReg,
        /// Specialized fold kernel.
        f: VReduceFn,
        /// Reduction operator (for disassembly).
        op: ReduceOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// `LoadV → VBin → StoreV` superinstruction.
    LoadBinStore(Box<TLoadBinStore>),
    /// `LoadV → VBin → VBin` superinstruction.
    LoadBinBin(Box<TLoadBinBin>),
    /// `LoadV → VBin` superinstruction.
    LoadBin(Box<TLoadBin>),
    /// `VBin → StoreV` superinstruction.
    BinStore(Box<TBinStore>),
    /// Predicated `LoadVl → VBinVl → StoreVl` superinstruction.
    LoadBinStoreVl(Box<TLoadBinStoreVl>),
    /// Loop latch (induction step + backedge + stream bumps).
    Latch(Box<TLatch>),
    /// A generic instruction that touches only scalar machine state
    /// (scalar registers, spill slots, memory elements, the VL latch):
    /// executed by the shared semantics.
    ScalarOp(MInst),
    /// A generic instruction that reads or writes vector registers:
    /// executed by the shared semantics on the one register file. Rare by
    /// construction (everything hot has a fast threaded form); the
    /// disassembly tags it `vector op`.
    VectorOp(MInst),
}

/// A fully threaded, target-specific program: the closure-threaded
/// execution tier below [`DecodedProgram`]. Built by
/// [`ThreadedProgram::thread`]; executed by
/// [`crate::Machine::run_threaded`].
#[derive(Debug, Clone)]
pub struct ThreadedProgram {
    steps: Vec<TStep>,
    regions: Vec<Region>,
    streams: Vec<StreamDef>,
    /// Executable *source* instruction count (sum of region arities of a
    /// straight-line pass; same convention as [`DecodedProgram::len`]).
    pub len: usize,
    /// The machines this program runs on (its decoded program's).
    pub width: Width,
    /// Number of vector registers the steps name (the register file is
    /// grown to this many at entry).
    n_vregs: usize,
    /// Number of loops that produced at least one stream.
    streamed_loops: usize,
}

impl ThreadedProgram {
    /// The threaded steps.
    pub fn steps(&self) -> &[TStep] {
        &self.steps
    }

    /// The straight-line regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The affine address streams.
    pub fn streams(&self) -> &[StreamDef] {
        &self.streams
    }

    /// Number of threaded steps.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of vector registers the steps name.
    pub fn n_vregs(&self) -> usize {
        self.n_vregs
    }

    /// Number of loops that produced at least one address stream.
    pub fn streamed_loops(&self) -> usize {
        self.streamed_loops
    }

    /// Thread a decoded program: group steps into straight-line regions
    /// with pre-summed fuel/cycle charges and attach affine address
    /// streams to the innermost loops that qualify. `code` is the source machine code
    /// (for the register-file size; the decoded program does not carry
    /// it).
    ///
    /// Threading never fails: steps with no fast threaded form fall back
    /// to the shared generic semantics ([`TStep::ScalarOp`] /
    /// [`TStep::VectorOp`]), exactly as decode falls back to
    /// [`DStep::Op`].
    pub fn thread(prog: &DecodedProgram, code: &MCode) -> ThreadedProgram {
        let steps = prog.steps();
        let n = steps.len();

        // ---- Affine stream analysis ------------------------------------
        // A loop qualifies when its backedge is a fused latch stepping an
        // i64 induction register by a constant (`i += #d` / `i -= #d`,
        // read off the latch's operator, whose i64 semantics are
        // `eval_bin`'s wrapping add/sub), its body is straight-line fast
        // steps (no control, no generic ops), nothing jumps into the
        // interior, and the induction register is written only by the
        // latch.
        let control_targets: Vec<usize> = steps
            .iter()
            .filter_map(|d| match &d.step {
                DStep::Jump { target }
                | DStep::Branch { target, .. }
                | DStep::BranchImm { target, .. } => Some(*target as usize),
                DStep::FusedLatch(p) => Some(p.target as usize),
                _ => None,
            })
            .collect();

        let mut streams: Vec<StreamDef> = Vec::new();
        let mut streamed_loops = 0usize;
        // header (old index) -> (first stream, count); also identifies
        // where an InitStreams step must be inserted.
        let mut loop_at: HashMap<usize, (u32, u32)> = HashMap::new();
        // latch (old index) -> (first stream, count, header).
        let mut latch_of: HashMap<usize, (u32, u32, usize)> = HashMap::new();
        // (old index, leg) -> stream; leg 0 is the (only or load) leg,
        // leg 1 the store leg of a fused step.
        let mut leg_stream: HashMap<(usize, u8), u32> = HashMap::new();

        'latches: for j in 0..n {
            let DStep::FusedLatch(p) = &steps[j].step else {
                continue;
            };
            let t = p.target as usize;
            if t >= j || loop_at.contains_key(&t) {
                continue;
            }
            if p.dst != p.a || p.ty != ScalarTy::I64 || p.rty != ScalarTy::I64 {
                continue;
            }
            let delta_i = match p.op {
                BinOp::Add => p.imm as i64,
                BinOp::Sub => -(p.imm as i64),
                _ => continue,
            };
            let ind = p.dst.0;
            // Body must be straight-line fast steps, entered only at the
            // header, with the induction written only by the latch.
            if control_targets.iter().any(|&tt| tt > t && tt <= j) {
                continue;
            }
            let mut written: HashSet<u32> = HashSet::new();
            for d in &steps[t..j] {
                match &d.step {
                    DStep::Jump { .. }
                    | DStep::Branch { .. }
                    | DStep::BranchImm { .. }
                    | DStep::FusedLatch(_)
                    | DStep::Op(_) => continue 'latches,
                    DStep::SBinFast { dst, .. }
                    | DStep::SBinImmFast { dst, .. }
                    | DStep::MovSFast { dst, .. }
                    | DStep::LoadSFast { dst, .. }
                    | DStep::SpillLdFast { dst, .. }
                    | DStep::VReduceFast { dst, .. } => {
                        written.insert(dst.0);
                    }
                    _ => {}
                }
            }
            if written.contains(&ind) {
                continue;
            }
            // Collect the affine memory legs.
            let leg = |base: SReg, idx: u32, scale: u8| -> Option<i64> {
                let mut d = 0i64;
                if base.0 == ind {
                    d = delta_i;
                } else if written.contains(&base.0) {
                    return None;
                }
                if idx != NO_INDEX {
                    if idx == ind {
                        d = d.wrapping_add(delta_i.wrapping_mul(scale as i64));
                    } else if written.contains(&idx) {
                        return None;
                    }
                }
                Some(d)
            };
            let first = streams.len() as u32;
            let mut push = |streams: &mut Vec<StreamDef>, i: usize, lg: u8, m: &FusedAddr| {
                if let Some(delta) = leg(m.base, m.idx, m.scale) {
                    leg_stream.insert((i, lg), streams.len() as u32);
                    streams.push(StreamDef {
                        base: m.base,
                        idx: m.idx,
                        scale: m.scale,
                        disp: m.disp,
                        delta,
                    });
                }
            };
            for (i, d) in steps.iter().enumerate().take(j).skip(t) {
                match &d.step {
                    DStep::LoadVFast {
                        base,
                        idx,
                        scale,
                        aligned,
                        disp,
                        ..
                    }
                    | DStep::StoreVFast {
                        base,
                        idx,
                        scale,
                        aligned,
                        disp,
                        ..
                    } => {
                        let m = FusedAddr {
                            base: *base,
                            idx: *idx,
                            scale: *scale,
                            aligned: *aligned,
                            disp: *disp,
                        };
                        push(&mut streams, i, 0, &m);
                    }
                    DStep::LoadSFast {
                        base,
                        idx,
                        scale,
                        disp,
                        ..
                    }
                    | DStep::StoreSFast {
                        base,
                        idx,
                        scale,
                        disp,
                        ..
                    } => {
                        let m = FusedAddr {
                            base: *base,
                            idx: *idx,
                            scale: *scale,
                            aligned: false,
                            disp: *disp,
                        };
                        push(&mut streams, i, 0, &m);
                    }
                    DStep::FusedLoadBinStore(p) => {
                        push(&mut streams, i, 0, &p.load);
                        push(&mut streams, i, 1, &p.store);
                    }
                    DStep::FusedLoadBinBin(p) => push(&mut streams, i, 0, &p.load),
                    DStep::FusedLoadBin(p) => push(&mut streams, i, 0, &p.load),
                    DStep::FusedBinStore(p) => push(&mut streams, i, 1, &p.store),
                    DStep::FusedLoadBinStoreVl(p) => {
                        push(&mut streams, i, 0, &p.load);
                        push(&mut streams, i, 1, &p.store);
                    }
                    _ => {}
                }
            }
            let count = streams.len() as u32 - first;
            if count > 0 {
                loop_at.insert(t, (first, count));
                latch_of.insert(j, (first, count, t));
                streamed_loops += 1;
            }
        }

        // ---- Lowering --------------------------------------------------
        // Pass 1: lower every step (targets still old decoded indices),
        // inserting an InitStreams step before each streamed header.
        let ta = |i: usize, lg: u8, base: SReg, idx: u32, scale: u8, disp: i32| -> TAddr {
            match leg_stream.get(&(i, lg)) {
                Some(&s) => TAddr::Stream(s),
                None => TAddr::Direct {
                    base,
                    idx,
                    scale,
                    disp,
                },
            }
        };
        let mut out: Vec<(TStep, u64, u64)> = Vec::with_capacity(n + loop_at.len());
        let mut orig: Vec<usize> = Vec::with_capacity(n + loop_at.len());
        let mut new_index = vec![0u32; n + 1];
        let mut header_pos = vec![0u32; n];
        let mut max_vreg = 0u32;
        let seen_v = |r: VReg, max_vreg: &mut u32| -> VReg {
            *max_vreg = (*max_vreg).max(r.0 + 1);
            r
        };
        for (i, d) in steps.iter().enumerate() {
            new_index[i] = out.len() as u32;
            if let Some(&(first, count)) = loop_at.get(&i) {
                out.push((TStep::InitStreams { first, n: count }, 0, 0));
                orig.push(i);
            }
            header_pos[i] = out.len() as u32;
            let step = match &d.step {
                DStep::Jump { target } => TStep::Jump { target: *target },
                DStep::Branch { cond, a, b, target } => TStep::Branch {
                    cond: *cond,
                    a: *a,
                    b: *b,
                    target: *target,
                },
                DStep::BranchImm {
                    cond,
                    a,
                    imm,
                    target,
                } => TStep::BranchImm {
                    cond: *cond,
                    a: *a,
                    imm: *imm,
                    target: *target,
                },
                DStep::VBinFast {
                    dst,
                    a,
                    b,
                    f,
                    op,
                    ty,
                } => TStep::VBin {
                    dst: seen_v(*dst, &mut max_vreg),
                    a: seen_v(*a, &mut max_vreg),
                    b: seen_v(*b, &mut max_vreg),
                    f: *f,
                    op: *op,
                    ty: *ty,
                },
                DStep::VUnFast { dst, a, f, op, ty } => TStep::VUn {
                    dst: seen_v(*dst, &mut max_vreg),
                    a: seen_v(*a, &mut max_vreg),
                    f: *f,
                    op: *op,
                    ty: *ty,
                },
                DStep::VBinVlFast {
                    dst,
                    a,
                    b,
                    f,
                    op,
                    ty,
                } => TStep::VBinVl {
                    dst: seen_v(*dst, &mut max_vreg),
                    a: seen_v(*a, &mut max_vreg),
                    b: seen_v(*b, &mut max_vreg),
                    f: *f,
                    op: *op,
                    ty: *ty,
                },
                DStep::VUnVlFast { dst, a, f, op, ty } => TStep::VUnVl {
                    dst: seen_v(*dst, &mut max_vreg),
                    a: seen_v(*a, &mut max_vreg),
                    f: *f,
                    op: *op,
                    ty: *ty,
                },
                DStep::LoadVFast {
                    dst,
                    base,
                    idx,
                    scale,
                    aligned,
                    disp,
                } => TStep::LoadV {
                    dst: seen_v(*dst, &mut max_vreg),
                    aligned: *aligned,
                    addr: ta(i, 0, *base, *idx, *scale, *disp),
                },
                DStep::StoreVFast {
                    src,
                    base,
                    idx,
                    scale,
                    aligned,
                    disp,
                } => TStep::StoreV {
                    src: seen_v(*src, &mut max_vreg),
                    aligned: *aligned,
                    addr: ta(i, 0, *base, *idx, *scale, *disp),
                },
                DStep::LoadSFast {
                    ty,
                    dst,
                    base,
                    idx,
                    scale,
                    disp,
                } => TStep::LoadS {
                    ty: *ty,
                    dst: *dst,
                    addr: ta(i, 0, *base, *idx, *scale, *disp),
                },
                DStep::StoreSFast {
                    ty,
                    src,
                    base,
                    idx,
                    scale,
                    disp,
                } => TStep::StoreS {
                    ty: *ty,
                    src: *src,
                    addr: ta(i, 0, *base, *idx, *scale, *disp),
                },
                DStep::SBinFast {
                    dst,
                    a,
                    b,
                    f,
                    ty,
                    rty,
                    ..
                } => TStep::SBin {
                    dst: *dst,
                    a: *a,
                    b: *b,
                    f: *f,
                    ty: *ty,
                    rty: *rty,
                },
                DStep::SBinImmFast {
                    dst,
                    a,
                    imm,
                    f,
                    ty,
                    rty,
                    ..
                } => TStep::SBinImm {
                    dst: *dst,
                    a: *a,
                    imm: *imm,
                    f: *f,
                    ty: *ty,
                    rty: *rty,
                },
                DStep::MovSFast { dst, src } => TStep::MovS {
                    dst: *dst,
                    src: *src,
                },
                DStep::SplatFast { dst, src, f, ty } => TStep::Splat {
                    dst: seen_v(*dst, &mut max_vreg),
                    src: *src,
                    f: *f,
                    ty: *ty,
                },
                DStep::VShiftImmFast {
                    dst,
                    a,
                    f,
                    imm,
                    left,
                    ty,
                } => TStep::VShiftImm {
                    dst: seen_v(*dst, &mut max_vreg),
                    a: seen_v(*a, &mut max_vreg),
                    f: *f,
                    imm: *imm,
                    left: *left,
                    ty: *ty,
                },
                DStep::VShiftRegFast {
                    dst,
                    a,
                    f,
                    amt,
                    left,
                    ty,
                } => TStep::VShiftReg {
                    dst: seen_v(*dst, &mut max_vreg),
                    a: seen_v(*a, &mut max_vreg),
                    f: *f,
                    amt: *amt,
                    left: *left,
                    ty: *ty,
                },
                DStep::SpillLdFast { dst, slot } => TStep::SpillLd {
                    dst: *dst,
                    slot: *slot,
                },
                DStep::SpillStFast { src, slot } => TStep::SpillSt {
                    src: *src,
                    slot: *slot,
                },
                DStep::VReduceFast {
                    dst,
                    src,
                    f,
                    op,
                    ty,
                } => TStep::VReduce {
                    dst: *dst,
                    src: seen_v(*src, &mut max_vreg),
                    f: *f,
                    op: *op,
                    ty: *ty,
                },
                DStep::FusedLoadBinStore(p) => TStep::LoadBinStore(Box::new(TLoadBinStore {
                    load_dst: seen_v(p.load_dst, &mut max_vreg),
                    load_aligned: p.load.aligned,
                    load: ta(i, 0, p.load.base, p.load.idx, p.load.scale, p.load.disp),
                    dst: seen_v(p.dst, &mut max_vreg),
                    a: seen_v(p.a, &mut max_vreg),
                    b: seen_v(p.b, &mut max_vreg),
                    f: p.f,
                    op: p.op,
                    ty: p.ty,
                    store_aligned: p.store.aligned,
                    store: ta(i, 1, p.store.base, p.store.idx, p.store.scale, p.store.disp),
                })),
                DStep::FusedLoadBinBin(p) => TStep::LoadBinBin(Box::new(TLoadBinBin {
                    load_dst: seen_v(p.load_dst, &mut max_vreg),
                    load_aligned: p.load.aligned,
                    load: ta(i, 0, p.load.base, p.load.idx, p.load.scale, p.load.disp),
                    dst1: seen_v(p.dst1, &mut max_vreg),
                    a1: seen_v(p.a1, &mut max_vreg),
                    b1: seen_v(p.b1, &mut max_vreg),
                    f1: p.f1,
                    op1: p.op1,
                    ty1: p.ty1,
                    dst2: seen_v(p.dst2, &mut max_vreg),
                    a2: seen_v(p.a2, &mut max_vreg),
                    b2: seen_v(p.b2, &mut max_vreg),
                    f2: p.f2,
                    op2: p.op2,
                    ty2: p.ty2,
                })),
                DStep::FusedLoadBin(p) => TStep::LoadBin(Box::new(TLoadBin {
                    load_dst: seen_v(p.load_dst, &mut max_vreg),
                    load_aligned: p.load.aligned,
                    load: ta(i, 0, p.load.base, p.load.idx, p.load.scale, p.load.disp),
                    dst: seen_v(p.dst, &mut max_vreg),
                    a: seen_v(p.a, &mut max_vreg),
                    b: seen_v(p.b, &mut max_vreg),
                    f: p.f,
                    op: p.op,
                    ty: p.ty,
                })),
                DStep::FusedBinStore(p) => TStep::BinStore(Box::new(TBinStore {
                    dst: seen_v(p.dst, &mut max_vreg),
                    a: seen_v(p.a, &mut max_vreg),
                    b: seen_v(p.b, &mut max_vreg),
                    f: p.f,
                    op: p.op,
                    ty: p.ty,
                    store_aligned: p.store.aligned,
                    store: ta(i, 1, p.store.base, p.store.idx, p.store.scale, p.store.disp),
                })),
                DStep::FusedLoadBinStoreVl(p) => TStep::LoadBinStoreVl(Box::new(TLoadBinStoreVl {
                    load_ty: p.load_ty,
                    load_dst: seen_v(p.load_dst, &mut max_vreg),
                    load: ta(i, 0, p.load.base, p.load.idx, p.load.scale, p.load.disp),
                    dst: seen_v(p.dst, &mut max_vreg),
                    a: seen_v(p.a, &mut max_vreg),
                    b: seen_v(p.b, &mut max_vreg),
                    f: p.f,
                    op: p.op,
                    ty: p.ty,
                    store_ty: p.store_ty,
                    store: ta(i, 1, p.store.base, p.store.idx, p.store.scale, p.store.disp),
                })),
                DStep::FusedLatch(p) => {
                    let (first_stream, n_streams) =
                        latch_of.get(&i).map(|&(f, c, _)| (f, c)).unwrap_or((0, 0));
                    TStep::Latch(Box::new(TLatch {
                        dst: p.dst,
                        a: p.a,
                        imm: p.imm,
                        f: p.f,
                        ty: p.ty,
                        rty: p.rty,
                        cond: p.cond,
                        br_a: p.br_a,
                        br_reg: p.br_reg,
                        br_imm: p.br_imm,
                        target: p.target,
                        first_stream,
                        n_streams,
                    }))
                }
                DStep::Op(inst) => lower_op(inst, &mut max_vreg),
            };
            out.push((step, d.cost, u64::from(d.arity)));
            orig.push(i);
        }
        new_index[n] = out.len() as u32;

        // Pass 2: remap control targets from decoded indices to new step
        // positions. A streamed latch's backedge bypasses its own
        // InitStreams step (the cursors are bumped in place); every
        // other transfer to that header goes through it.
        let m = out.len();
        for p in 0..m {
            let i = orig[p];
            match &mut out[p].0 {
                TStep::Jump { target }
                | TStep::Branch { target, .. }
                | TStep::BranchImm { target, .. } => {
                    *target = new_index[*target as usize];
                }
                TStep::Latch(l) => {
                    let t = l.target as usize;
                    l.target = if latch_of.contains_key(&i) {
                        header_pos[t]
                    } else {
                        new_index[t]
                    };
                }
                _ => {}
            }
        }

        // Pass 2.5: scalar pair fusion. Merge two adjacent
        // register-register scalar ALU steps into one dispatch whenever
        // no control transfer can land on the second one (the first may
        // be a target: the pair starts there). Scalar-chain loop bodies
        // (derived address arithmetic like `a[i*n + j]`) are dispatch-
        // bound, not work-bound; the pair executes both constituents in
        // order with both register writes, and carries their combined
        // cycle/arity charge, so state, stats, and traps are exactly the
        // unfused sequence.
        let targets: HashSet<u32> = out
            .iter()
            .filter_map(|(s, ..)| match s {
                TStep::Jump { target }
                | TStep::Branch { target, .. }
                | TStep::BranchImm { target, .. } => Some(*target),
                TStep::Latch(l) => Some(l.target),
                _ => None,
            })
            .collect();
        let old_len = out.len();
        let mut fused: Vec<(TStep, u64, u64)> = Vec::with_capacity(old_len);
        let mut old2new = vec![0u32; old_len + 1];
        let mut it = out.into_iter().enumerate().peekable();
        while let Some((p, (step, c, ar))) = it.next() {
            old2new[p] = fused.len() as u32;
            if let TStep::SBin {
                dst,
                a: ra,
                b: rb,
                f,
                ty,
                rty,
            } = step
            {
                let mergeable = matches!(
                    it.peek(),
                    Some((q, (TStep::SBin { .. }, ..))) if !targets.contains(&(*q as u32))
                );
                if mergeable {
                    let Some((
                        q,
                        (
                            TStep::SBin {
                                dst: dst2,
                                a: a2,
                                b: b2,
                                f: f2,
                                ty: ty2,
                                rty: rty2,
                            },
                            c2,
                            ar2,
                        ),
                    )) = it.next()
                    else {
                        unreachable!("peeked pair vanished");
                    };
                    old2new[q] = fused.len() as u32;
                    fused.push((
                        TStep::SBin2(Box::new(TSBin2 {
                            dst1: dst,
                            a1: ra,
                            b1: rb,
                            f1: f,
                            ty1: ty,
                            rty1: rty,
                            dst2,
                            a2,
                            b2,
                            f2,
                            ty2,
                            rty2,
                        })),
                        c + c2,
                        ar + ar2,
                    ));
                    continue;
                }
                fused.push((
                    TStep::SBin {
                        dst,
                        a: ra,
                        b: rb,
                        f,
                        ty,
                        rty,
                    },
                    c,
                    ar,
                ));
                continue;
            }
            fused.push((step, c, ar));
        }
        old2new[old_len] = fused.len() as u32;
        for (step, ..) in &mut fused {
            match step {
                TStep::Jump { target }
                | TStep::Branch { target, .. }
                | TStep::BranchImm { target, .. } => *target = old2new[*target as usize],
                TStep::Latch(l) => l.target = old2new[l.target as usize],
                _ => {}
            }
        }
        let out = fused;
        let m = out.len();

        // Pass 3: region construction. Leaders: entry, every branch
        // target, every fall-through after a control step.
        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(0);
        leaders.insert(m);
        for (p, (step, ..)) in out.iter().enumerate() {
            match step {
                TStep::Jump { target }
                | TStep::Branch { target, .. }
                | TStep::BranchImm { target, .. } => {
                    leaders.insert(p + 1);
                    leaders.insert(*target as usize);
                }
                TStep::Latch(l) => {
                    leaders.insert(p + 1);
                    leaders.insert(l.target as usize);
                }
                _ => {}
            }
        }
        let bounds: Vec<usize> = leaders.into_iter().collect();
        let mut regions = Vec::with_capacity(bounds.len());
        let mut pos2region = vec![u32::MAX; m + 1];
        for w in bounds.windows(2) {
            let (first, end) = (w[0], w[1]);
            pos2region[first] = regions.len() as u32;
            let (mut arity, mut cost) = (0u64, 0u64);
            for (_, c, a) in &out[first..end] {
                cost += c;
                arity += a;
            }
            regions.push(Region {
                first: first as u32,
                n: (end - first) as u32,
                arity,
                cost,
            });
        }
        pos2region[m] = regions.len() as u32;

        // Pass 4: control targets from step positions to region indices.
        let mut steps_out: Vec<TStep> = out.into_iter().map(|(s, ..)| s).collect();
        for step in &mut steps_out {
            match step {
                TStep::Jump { target }
                | TStep::Branch { target, .. }
                | TStep::BranchImm { target, .. } => {
                    *target = pos2region[*target as usize];
                    debug_assert_ne!(*target, u32::MAX);
                }
                TStep::Latch(l) => {
                    l.target = pos2region[l.target as usize];
                    debug_assert_ne!(l.target, u32::MAX);
                }
                _ => {}
            }
        }

        let n_vregs = code.n_vregs.max(max_vreg) as usize;
        ThreadedProgram {
            steps: steps_out,
            regions,
            streams,
            len: prog.len,
            width: prog.width,
            n_vregs,
            streamed_loops,
        }
    }
}

// ---- Disassembly ----------------------------------------------------

fn taddr_str(a: &TAddr) -> String {
    match *a {
        TAddr::Direct {
            base,
            idx,
            scale,
            disp,
        } => {
            let mut s = format!("[{base}");
            if idx != NO_INDEX {
                let _ = write!(s, " + {}*{scale}", SReg(idx));
            }
            if disp != 0 {
                let _ = write!(s, " {} {}", if disp < 0 { "-" } else { "+" }, disp.abs());
            }
            s.push(']');
            s
        }
        TAddr::Stream(s) => format!("[s{s}]"),
    }
}

fn au(aligned: bool) -> &'static str {
    if aligned {
        "a"
    } else {
        "u"
    }
}

/// One threaded step as text, lane counts at `vs`-byte registers.
/// Streams render as `[sN]`, control targets as `@RN` region indices.
fn tstep_str(step: &TStep, vs: usize) -> String {
    let v = |r: VReg| r.to_string();
    let lanes = |ty: &ScalarTy| (vs / ty.size()).max(1);
    match step {
        TStep::Jump { target } => format!("  jmp @R{target}"),
        TStep::Branch { cond, a, b, target } => format!("  b.{cond:?} {a}, {b} -> @R{target}"),
        TStep::BranchImm {
            cond,
            a,
            imm,
            target,
        } => format!("  b.{cond:?} {a}, #{imm} -> @R{target}"),
        TStep::InitStreams { first, n } => {
            if *n == 1 {
                format!("  init s{first}")
            } else {
                format!("  init s{first}..s{}", first + n - 1)
            }
        }
        TStep::VBin {
            dst, a, b, op, ty, ..
        } => format!(
            "  {} = v{op:?}.fast.{ty} {}, {} ; {} lanes",
            v(*dst),
            v(*a),
            v(*b),
            lanes(ty)
        ),
        TStep::VUn { dst, a, op, ty, .. } => format!(
            "  {} = v{op:?}.fast.{ty} {} ; {} lanes",
            v(*dst),
            v(*a),
            lanes(ty)
        ),
        TStep::MovV { dst, src } => format!("  {} = {} ; slot copy", v(*dst), v(*src)),
        TStep::VBinVl {
            dst, a, b, op, ty, ..
        } => format!(
            "  {} = v{op:?}.vl.fast.{ty} {}, {} ; vl<={}",
            v(*dst),
            v(*a),
            v(*b),
            lanes(ty)
        ),
        TStep::VUnVl { dst, a, op, ty, .. } => format!(
            "  {} = v{op:?}.vl.fast.{ty} {} ; vl<={}",
            v(*dst),
            v(*a),
            lanes(ty)
        ),
        TStep::LoadV { dst, aligned, addr } => {
            format!(
                "  {} = vld.fast.{} {}",
                v(*dst),
                au(*aligned),
                taddr_str(addr)
            )
        }
        TStep::StoreV { src, aligned, addr } => {
            format!(
                "  vst.fast.{} {}, {}",
                au(*aligned),
                taddr_str(addr),
                v(*src)
            )
        }
        TStep::LoadS { ty, dst, addr } => format!("  {dst} = ld.fast.{ty} {}", taddr_str(addr)),
        TStep::StoreS { ty, src, addr } => format!("  st.fast.{ty} {}, {src}", taddr_str(addr)),
        TStep::LoadVl { ty, dst, addr } => {
            format!("  {} = vld.vl.fast.{ty} {}", v(*dst), taddr_str(addr))
        }
        TStep::StoreVl { ty, src, addr } => {
            format!("  vst.vl.fast.{ty} {}, {}", taddr_str(addr), v(*src))
        }
        TStep::SBin {
            dst, a, b, ty, rty, ..
        } => format!("  {dst} = sbin.fast.{ty} {a}, {b} -> {rty}"),
        TStep::SBinImm {
            dst,
            a,
            imm,
            ty,
            rty,
            ..
        } => format!("  {dst} = sbin.fast.{ty} {a}, #{imm} -> {rty}"),
        TStep::SBin2(p) => format!(
            "  fuse2s {} = sbin.fast.{} {}, {} -> {} | {} = sbin.fast.{} {}, {} -> {}",
            p.dst1, p.ty1, p.a1, p.b1, p.rty1, p.dst2, p.ty2, p.a2, p.b2, p.rty2
        ),
        TStep::MovS { dst, src } => format!("  {dst} = {src} ; fast"),
        TStep::MovImm { dst, v } => match v {
            Value::Int(i) => format!("  {dst} = #{i} ; imm fast"),
            Value::Float(f) => format!("  {dst} = #{f:?} ; imm fast"),
        },
        TStep::Splat { dst, src, ty, .. } => format!(
            "  {} = splat.fast.{ty} {src} ; {} lanes",
            v(*dst),
            lanes(ty)
        ),
        TStep::VShiftImm {
            dst,
            a,
            imm,
            left,
            ty,
            ..
        } => {
            let dir = if *left { "shl" } else { "shr" };
            format!(
                "  {} = v{dir}.fast.{ty} {}, #{imm} ; {} lanes",
                v(*dst),
                v(*a),
                lanes(ty)
            )
        }
        TStep::VShiftReg {
            dst,
            a,
            amt,
            left,
            ty,
            ..
        } => {
            let dir = if *left { "shl" } else { "shr" };
            format!(
                "  {} = v{dir}.fast.{ty} {}, {amt} ; {} lanes",
                v(*dst),
                v(*a),
                lanes(ty)
            )
        }
        TStep::SpillLd { dst, slot } => format!("  {dst} = reload.fast slot{slot}"),
        TStep::SpillSt { src, slot } => format!("  spill.fast slot{slot} = {src}"),
        TStep::VReduce {
            dst, src, op, ty, ..
        } => {
            let o = match op {
                ReduceOp::Plus => "add",
                ReduceOp::Max => "max",
                ReduceOp::Min => "min",
            };
            format!(
                "  {dst} = vreduce.fast.{o}.{ty} {} ; {} lanes",
                v(*src),
                lanes(ty)
            )
        }
        TStep::LoadBinStore(p) => format!(
            "  fuse3 {} = vld.{} {} | {} = v{:?}.{} {}, {} | vst.{} {}, {} ; {} lanes",
            v(p.load_dst),
            au(p.load_aligned),
            taddr_str(&p.load),
            v(p.dst),
            p.op,
            p.ty,
            v(p.a),
            v(p.b),
            au(p.store_aligned),
            taddr_str(&p.store),
            v(p.dst),
            lanes(&p.ty)
        ),
        TStep::LoadBinBin(p) => format!(
            "  fuse3 {} = vld.{} {} | {} = v{:?}.{} {}, {} | {} = v{:?}.{} {}, {} ; {} lanes",
            v(p.load_dst),
            au(p.load_aligned),
            taddr_str(&p.load),
            v(p.dst1),
            p.op1,
            p.ty1,
            v(p.a1),
            v(p.b1),
            v(p.dst2),
            p.op2,
            p.ty2,
            v(p.a2),
            v(p.b2),
            lanes(&p.ty2)
        ),
        TStep::LoadBin(p) => format!(
            "  fuse2 {} = vld.{} {} | {} = v{:?}.{} {}, {} ; {} lanes",
            v(p.load_dst),
            au(p.load_aligned),
            taddr_str(&p.load),
            v(p.dst),
            p.op,
            p.ty,
            v(p.a),
            v(p.b),
            lanes(&p.ty)
        ),
        TStep::BinStore(p) => format!(
            "  fuse2 {} = v{:?}.{} {}, {} | vst.{} {}, {} ; {} lanes",
            v(p.dst),
            p.op,
            p.ty,
            v(p.a),
            v(p.b),
            au(p.store_aligned),
            taddr_str(&p.store),
            v(p.dst),
            lanes(&p.ty)
        ),
        TStep::LoadBinStoreVl(p) => format!(
            "  fuse3 {} = vld.vl.{} {} | {} = v{:?}.vl.{} {}, {} | vst.vl.{} {}, {} ; vl<={}",
            v(p.load_dst),
            p.load_ty,
            taddr_str(&p.load),
            v(p.dst),
            p.op,
            p.ty,
            v(p.a),
            v(p.b),
            p.store_ty,
            taddr_str(&p.store),
            v(p.dst),
            lanes(&p.ty)
        ),
        TStep::Latch(p) => {
            let rhs = if p.br_reg == NO_INDEX {
                format!("#{}", p.br_imm)
            } else {
                SReg(p.br_reg).to_string()
            };
            let bumps = match p.n_streams {
                0 => String::new(),
                1 => format!(" ; bumps s{}", p.first_stream),
                _ => format!(
                    " ; bumps s{}..s{}",
                    p.first_stream,
                    p.first_stream + p.n_streams - 1
                ),
            };
            format!(
                "  fuse2 {} = sbin.fast.{} {}, #{} -> {} | b.{:?} {}, {} -> @R{}{bumps}",
                p.dst, p.ty, p.a, p.imm, p.rty, p.cond, p.br_a, rhs, p.target
            )
        }
        TStep::ScalarOp(inst) => format!("{} ; scalar op", crate::disasm::disasm_inst(inst)),
        TStep::VectorOp(inst) => format!("{} ; vector op", crate::disasm::disasm_inst(inst)),
    }
}

/// Whole threaded program as text on a machine of `target`'s width: the
/// stream table, then the steps grouped by region with each region's
/// fuel/cycle charge there (the pre-summed charge plus the
/// width-dependent cost of its reductions and helper calls).
pub fn disasm_threaded(prog: &ThreadedProgram, target: &TargetDesc) -> String {
    let vs = target.vs.max(1);
    let lanes = |ty: ScalarTy| (vs / ty.size()).max(1);
    let mut out = format!(
        "; threaded for VS={vs} ({} steps / {} regions / {} insts, {} streams in {} loops)\n",
        prog.n_steps(),
        prog.regions.len(),
        prog.len,
        prog.streams.len(),
        prog.streamed_loops,
    );
    for (i, s) in prog.streams.iter().enumerate() {
        let shape = taddr_str(&TAddr::Direct {
            base: s.base,
            idx: s.idx,
            scale: s.scale,
            disp: s.disp,
        });
        let _ = writeln!(
            out,
            "; s{i} = {shape}, step {}{}",
            if s.delta < 0 { "-" } else { "+" },
            s.delta.abs()
        );
    }
    for (r, reg) in prog.regions.iter().enumerate() {
        let steps = &prog.steps[reg.first as usize..(reg.first + reg.n) as usize];
        let vl_cost: u64 = steps
            .iter()
            .map(|step| match step {
                TStep::VReduce { ty, .. } => target.cost.reduce_vl_cost(lanes(*ty)),
                TStep::ScalarOp(inst) | TStep::VectorOp(inst) => target.cost.vl_cost(inst, lanes),
                _ => 0,
            })
            .sum();
        let _ = writeln!(
            out,
            "R{r}: ; {} insts, {} cycles",
            reg.arity,
            reg.cost + vl_cost
        );
        for step in steps {
            out.push_str(&tstep_str(step, vs));
            out.push('\n');
        }
    }
    out
}

/// Lower a generic [`DStep::Op`] instruction: predicated memory ops get
/// dedicated steps, the rest run the shared generic semantics.
fn lower_op(inst: &MInst, max_vreg: &mut u32) -> TStep {
    match inst {
        MInst::LoadVl { ty, dst, addr } => {
            if let Some((base, idx, scale, disp)) = flatten_addr(addr) {
                *max_vreg = (*max_vreg).max(dst.0 + 1);
                return TStep::LoadVl {
                    ty: *ty,
                    dst: *dst,
                    addr: TAddr::Direct {
                        base,
                        idx,
                        scale,
                        disp,
                    },
                };
            }
            TStep::VectorOp(inst.clone())
        }
        MInst::StoreVl { ty, src, addr } => {
            if let Some((base, idx, scale, disp)) = flatten_addr(addr) {
                *max_vreg = (*max_vreg).max(src.0 + 1);
                return TStep::StoreVl {
                    ty: *ty,
                    src: *src,
                    addr: TAddr::Direct {
                        base,
                        idx,
                        scale,
                        disp,
                    },
                };
            }
            TStep::VectorOp(inst.clone())
        }
        MInst::MovV { dst, src } => {
            *max_vreg = (*max_vreg).max(dst.0.max(src.0) + 1);
            TStep::MovV {
                dst: *dst,
                src: *src,
            }
        }
        MInst::MovImmI { dst, imm } => TStep::MovImm {
            dst: *dst,
            v: Value::Int(*imm),
        },
        MInst::MovImmF { dst, imm } => TStep::MovImm {
            dst: *dst,
            v: Value::Float(*imm),
        },
        MInst::MovS { .. }
        | MInst::SBin { .. }
        | MInst::FpuBin { .. }
        | MInst::SBinImm { .. }
        | MInst::SUn { .. }
        | MInst::SCvt { .. }
        | MInst::LoadS { .. }
        | MInst::StoreS { .. }
        | MInst::SpillLd { .. }
        | MInst::SpillSt { .. }
        | MInst::SetVl { .. } => TStep::ScalarOp(inst.clone()),
        _ => TStep::VectorOp(inst.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrMode, Label, MemAlign, VReg};
    use crate::machine::Machine;
    use crate::target::sse;
    use vapor_ir::sem::Value;

    fn mcode(insts: Vec<MInst>) -> MCode {
        MCode {
            insts,
            n_sregs: 16,
            n_vregs: 16,
            note: String::new(),
        }
    }

    /// A byte-copy loop: `for (i = 0; i < 64; i += 16) dst[i] = src[i]`
    /// over whole vectors, with an `i64` induction the latch fuser
    /// recognizes.
    fn copy_loop() -> MCode {
        mcode(vec![
            MInst::Label(Label(0)),
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::fused(SReg(0), SReg(2), 1, 0),
                align: MemAlign::Unaligned,
            },
            MInst::StoreV {
                src: VReg(0),
                addr: AddrMode::fused(SReg(1), SReg(2), 1, 0),
                align: MemAlign::Unaligned,
            },
            MInst::SBinImm {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(2),
                a: SReg(2),
                imm: 16,
            },
            MInst::BranchImm {
                cond: crate::isa::Cond::Lt,
                a: SReg(2),
                imm: 64,
                target: Label(0),
            },
        ])
    }

    fn copy_machine<'t>(t: &'t crate::target::TargetDesc) -> (Machine<'t>, u64, u64) {
        let mut m = Machine::new(t, 4096);
        let src = m.mem.alloc(64, 16);
        let dst = m.mem.alloc(64, 16);
        for k in 0..64u64 {
            m.mem.write(ScalarTy::I8, src + k, Value::Int(k as i64 + 1));
        }
        m.set_sreg(SReg(0), Value::Int(src as i64));
        m.set_sreg(SReg(1), Value::Int(dst as i64));
        m.set_sreg(SReg(2), Value::Int(0));
        (m, src, dst)
    }

    #[test]
    fn affine_loop_legs_become_streams() {
        let t = sse();
        let c = copy_loop();
        let prog = DecodedProgram::decode(&c, &t).unwrap();
        let tp = ThreadedProgram::thread(&prog, &c);
        assert_eq!(tp.streamed_loops(), 1, "{}", disasm_threaded(&tp, &t));
        assert_eq!(tp.streams().len(), 2, "{}", disasm_threaded(&tp, &t));
        for s in tp.streams() {
            assert_eq!(s.delta, 16);
        }
        let text = disasm_threaded(&tp, &t);
        assert!(text.contains("init s0..s1"), "{text}");
        assert!(text.contains("[s0]"), "{text}");
        assert!(text.contains("bumps s0..s1"), "{text}");
    }

    #[test]
    fn threaded_copy_matches_decoded_bit_for_bit() {
        let t = sse();
        let c = copy_loop();
        let prog = DecodedProgram::decode(&c, &t).unwrap();
        let tp = ThreadedProgram::thread(&prog, &c);
        let (mut md, _, dstd) = copy_machine(&t);
        let sd = md.run_decoded(&prog).unwrap();
        let (mut mt, _, dstt) = copy_machine(&t);
        let st = mt.run_threaded(&tp).unwrap();
        assert_eq!(sd, st, "cycles/insts diverged");
        for k in 0..64u64 {
            assert_eq!(
                md.mem.read(ScalarTy::I8, dstd + k),
                mt.mem.read(ScalarTy::I8, dstt + k),
                "byte {k}"
            );
        }
        assert_eq!(md.sreg(SReg(2)), mt.sreg(SReg(2)));
    }

    #[test]
    fn region_fuel_traps_before_any_region_instruction_runs() {
        let t = sse();
        let c = copy_loop();
        let prog = DecodedProgram::decode(&c, &t).unwrap();
        let tp = ThreadedProgram::thread(&prog, &c);
        let (mut m, _, dst) = copy_machine(&t);
        m.fuel = 1; // the first region needs more
        let err = m.run_threaded(&tp).unwrap_err();
        assert!(err.0.contains("fuel exhausted after 0"), "{err}");
        assert_eq!(
            m.mem.read(ScalarTy::I8, dst),
            Value::Int(0),
            "no store may have landed"
        );
    }

    #[test]
    fn invalid_stream_base_falls_back_to_the_decoded_trap() {
        let t = sse();
        let c = copy_loop();
        let prog = DecodedProgram::decode(&c, &t).unwrap();
        let tp = ThreadedProgram::thread(&prog, &c);
        let (mut m, _, _) = copy_machine(&t);
        // A float in the base register: stream init goes invalid and the
        // load's fallback must produce the decoded tier's exact trap.
        m.set_sreg(SReg(0), Value::Float(1.5));
        let te = m.run_threaded(&tp).unwrap_err();
        let (mut md, _, _) = copy_machine(&t);
        md.set_sreg(SReg(0), Value::Float(1.5));
        let de = md.run_decoded(&prog).unwrap_err();
        assert_eq!(te, de);
    }
}
