//! Pre-decoded machine code: the load-time form the VM dispatch loop
//! actually executes.
//!
//! [`MCode`] is the portable, printable form the online compilers emit:
//! branch targets are symbolic labels, and per-instruction metadata
//! (cycle cost, lane counts) is implicit. The seed interpreter re-derived
//! all of that *every step*: a `HashMap` lookup per taken branch and a
//! full cost-model match per executed instruction. [`DecodedProgram`]
//! resolves everything once per (code, target) pair at compile time:
//!
//! * labels are stripped and every branch target becomes an instruction
//!   index into the decoded stream;
//! * the width-independent cycle cost of every instruction is
//!   pre-computed against the target's cost table; the lane-count
//!   dependent part of reductions and helper calls is charged by the
//!   dispatch loop at the machine's width;
//! * the hot instructions get specialized steps with their operands
//!   flattened and their lane kernel chosen: [`DStep`] has 27 variants
//!   (3 control steps, 17 fast steps, 6 superinstructions, and `Op`,
//!   which runs any other of the 43 [`MInst`] kinds through the shared
//!   generic semantics);
//! * the steps are grouped into basic blocks whose instruction count and
//!   cost are pre-summed, so the dispatch loop charges fuel and
//!   statistics once per block.
//!
//! No step holds a lane count: the dispatch loop reads it from the
//! machine. So a decode for a vector-length-agnostic family runs
//! unchanged at every legal VL of that family (see [`Width`]), and one
//! decode is shared by every execution of a compiled kernel at every VL
//! — `vapor_jit::CompiledKernel` carries it behind an `Arc`.

use std::fmt;

use vapor_ir::sem::{eval_bin, eval_un, read_elem, write_elem, Value};
use vapor_ir::{BinOp, ScalarTy, UnOp};

use crate::isa::{AddrMode, Cond, Label, MCode, MInst, MemAlign, ReduceOp, SReg, ShiftSrc, VReg};
use crate::machine::Trap;
use crate::target::{TargetDesc, TargetKind};

/// Specialized lane kernel of a binary vector op: the operator and
/// element type are compile-time constants inside, so the per-lane
/// `eval_bin`/`read_elem`/`write_elem` matches of the generic
/// interpreter const-fold into a straight-line (auto-vectorizable) loop.
///
/// The kernel writes the first `n` lanes of `out` and leaves the rest
/// untouched, so one kernel serves both the all-lanes form (caller
/// passes a zeroed output) and the merging-predicated `...Vl` form
/// (caller passes the destination itself and the active lane count).
/// Operands and output are register-file slots, plain byte slices of
/// the machine's slot stride.
pub type VBinFn = fn(a: &[u8], b: &[u8], out: &mut [u8], n: usize);

/// Specialized lane kernel of a unary vector op (same contract).
pub type VUnFn = fn(a: &[u8], out: &mut [u8], n: usize);

/// Sentinel for "no index register" in the flattened address fields of
/// the fast memory steps (`Option<SReg>` flattened to one word so the
/// hot-loop variants stay within the niche-packed 32-byte `DStep`).
pub const NO_INDEX: u32 = u32::MAX;

/// Specialized scalar ALU kernel: `eval_bin` with the operator and type
/// baked in, so the partially-vectorized kernels (`lu`, `seidel`) whose
/// decoded time is scalar-op-bound skip the operator/type double match.
pub type SBinFn = fn(Value, Value) -> Value;

/// Pick the specialized scalar kernel for an (operator, type) pair.
/// Integer-only operators are only generated at integer types.
fn sbin_fn(op: BinOp, ty: ScalarTy) -> Option<SBinFn> {
    macro_rules! k {
        ($opvar:ident, $tyvar:ident) => {{
            fn kernel(a: Value, b: Value) -> Value {
                eval_bin(BinOp::$opvar, ScalarTy::$tyvar, a, b)
            }
            Some(kernel as SBinFn)
        }};
    }
    macro_rules! for_int_tys {
        ($opvar:ident, $ty:expr) => {
            match $ty {
                ScalarTy::I8 => k!($opvar, I8),
                ScalarTy::U8 => k!($opvar, U8),
                ScalarTy::I16 => k!($opvar, I16),
                ScalarTy::U16 => k!($opvar, U16),
                ScalarTy::I32 => k!($opvar, I32),
                ScalarTy::U32 => k!($opvar, U32),
                ScalarTy::I64 => k!($opvar, I64),
                _ => None,
            }
        };
    }
    macro_rules! for_all_tys {
        ($opvar:ident, $ty:expr) => {
            match $ty {
                ScalarTy::I8 => k!($opvar, I8),
                ScalarTy::U8 => k!($opvar, U8),
                ScalarTy::I16 => k!($opvar, I16),
                ScalarTy::U16 => k!($opvar, U16),
                ScalarTy::I32 => k!($opvar, I32),
                ScalarTy::U32 => k!($opvar, U32),
                ScalarTy::I64 => k!($opvar, I64),
                ScalarTy::F32 => k!($opvar, F32),
                ScalarTy::F64 => k!($opvar, F64),
            }
        };
    }
    match op {
        BinOp::Add => for_all_tys!(Add, ty),
        BinOp::Sub => for_all_tys!(Sub, ty),
        BinOp::Mul => for_all_tys!(Mul, ty),
        BinOp::Div => for_all_tys!(Div, ty),
        BinOp::Min => for_all_tys!(Min, ty),
        BinOp::Max => for_all_tys!(Max, ty),
        BinOp::CmpEq => for_all_tys!(CmpEq, ty),
        BinOp::CmpLt => for_all_tys!(CmpLt, ty),
        BinOp::Shl => for_int_tys!(Shl, ty),
        BinOp::Shr => for_int_tys!(Shr, ty),
        BinOp::And => for_int_tys!(And, ty),
        BinOp::Or => for_int_tys!(Or, ty),
        BinOp::Xor => for_int_tys!(Xor, ty),
    }
}

/// Pick the specialized kernel for a (operator, element type) pair, if
/// one is generated. Pairs the online compilers never emit (e.g. float
/// comparisons as lane ops) fall back to the generic path.
fn vbin_fn(op: BinOp, ty: ScalarTy) -> Option<VBinFn> {
    macro_rules! k {
        ($opvar:ident, $tyvar:ident) => {{
            fn kernel(a: &[u8], b: &[u8], out: &mut [u8], n: usize) {
                const TY: ScalarTy = ScalarTy::$tyvar;
                const SZ: usize = TY.size();
                // Exact-length subslices hoist the bounds checks out of
                // the lane loop (each `k * SZ + SZ <= n * SZ` becomes
                // provable), keeping the loop auto-vectorizable.
                let end = n * SZ;
                let (a, b) = (&a[..end], &b[..end]);
                let out = &mut out[..end];
                for k in 0..n {
                    let off = k * SZ;
                    let v = eval_bin(
                        BinOp::$opvar,
                        TY,
                        read_elem(TY, a, off),
                        read_elem(TY, b, off),
                    );
                    write_elem(TY, out, off, v);
                }
            }
            Some(kernel as VBinFn)
        }};
    }
    use BinOp::*;
    use ScalarTy::*;
    match (op, ty) {
        (Add, I8) => k!(Add, I8),
        (Add, U8) => k!(Add, U8),
        (Add, I16) => k!(Add, I16),
        (Add, U16) => k!(Add, U16),
        (Add, I32) => k!(Add, I32),
        (Add, U32) => k!(Add, U32),
        (Add, I64) => k!(Add, I64),
        (Add, F32) => k!(Add, F32),
        (Add, F64) => k!(Add, F64),
        (Sub, I8) => k!(Sub, I8),
        (Sub, U8) => k!(Sub, U8),
        (Sub, I16) => k!(Sub, I16),
        (Sub, U16) => k!(Sub, U16),
        (Sub, I32) => k!(Sub, I32),
        (Sub, U32) => k!(Sub, U32),
        (Sub, I64) => k!(Sub, I64),
        (Sub, F32) => k!(Sub, F32),
        (Sub, F64) => k!(Sub, F64),
        (Mul, I8) => k!(Mul, I8),
        (Mul, U8) => k!(Mul, U8),
        (Mul, I16) => k!(Mul, I16),
        (Mul, U16) => k!(Mul, U16),
        (Mul, I32) => k!(Mul, I32),
        (Mul, U32) => k!(Mul, U32),
        (Mul, I64) => k!(Mul, I64),
        (Mul, F32) => k!(Mul, F32),
        (Mul, F64) => k!(Mul, F64),
        (Div, I8) => k!(Div, I8),
        (Div, U8) => k!(Div, U8),
        (Div, I16) => k!(Div, I16),
        (Div, U16) => k!(Div, U16),
        (Div, I32) => k!(Div, I32),
        (Div, U32) => k!(Div, U32),
        (Div, I64) => k!(Div, I64),
        (Div, F32) => k!(Div, F32),
        (Div, F64) => k!(Div, F64),
        (Min, I8) => k!(Min, I8),
        (Min, U8) => k!(Min, U8),
        (Min, I16) => k!(Min, I16),
        (Min, U16) => k!(Min, U16),
        (Min, I32) => k!(Min, I32),
        (Min, U32) => k!(Min, U32),
        (Min, I64) => k!(Min, I64),
        (Min, F32) => k!(Min, F32),
        (Min, F64) => k!(Min, F64),
        (Max, I8) => k!(Max, I8),
        (Max, U8) => k!(Max, U8),
        (Max, I16) => k!(Max, I16),
        (Max, U16) => k!(Max, U16),
        (Max, I32) => k!(Max, I32),
        (Max, U32) => k!(Max, U32),
        (Max, I64) => k!(Max, I64),
        (Max, F32) => k!(Max, F32),
        (Max, F64) => k!(Max, F64),
        (Shl, I8) => k!(Shl, I8),
        (Shl, U8) => k!(Shl, U8),
        (Shl, I16) => k!(Shl, I16),
        (Shl, U16) => k!(Shl, U16),
        (Shl, I32) => k!(Shl, I32),
        (Shl, U32) => k!(Shl, U32),
        (Shl, I64) => k!(Shl, I64),
        (Shr, I8) => k!(Shr, I8),
        (Shr, U8) => k!(Shr, U8),
        (Shr, I16) => k!(Shr, I16),
        (Shr, U16) => k!(Shr, U16),
        (Shr, I32) => k!(Shr, I32),
        (Shr, U32) => k!(Shr, U32),
        (Shr, I64) => k!(Shr, I64),
        (And, I8) => k!(And, I8),
        (And, U8) => k!(And, U8),
        (And, I16) => k!(And, I16),
        (And, U16) => k!(And, U16),
        (And, I32) => k!(And, I32),
        (And, U32) => k!(And, U32),
        (And, I64) => k!(And, I64),
        (Or, I8) => k!(Or, I8),
        (Or, U8) => k!(Or, U8),
        (Or, I16) => k!(Or, I16),
        (Or, U16) => k!(Or, U16),
        (Or, I32) => k!(Or, I32),
        (Or, U32) => k!(Or, U32),
        (Or, I64) => k!(Or, I64),
        (Xor, I8) => k!(Xor, I8),
        (Xor, U8) => k!(Xor, U8),
        (Xor, I16) => k!(Xor, I16),
        (Xor, U16) => k!(Xor, U16),
        (Xor, I32) => k!(Xor, I32),
        (Xor, U32) => k!(Xor, U32),
        (Xor, I64) => k!(Xor, I64),
        (CmpEq, I8) => k!(CmpEq, I8),
        (CmpEq, U8) => k!(CmpEq, U8),
        (CmpEq, I16) => k!(CmpEq, I16),
        (CmpEq, U16) => k!(CmpEq, U16),
        (CmpEq, I32) => k!(CmpEq, I32),
        (CmpEq, U32) => k!(CmpEq, U32),
        (CmpEq, I64) => k!(CmpEq, I64),
        (CmpLt, I8) => k!(CmpLt, I8),
        (CmpLt, U8) => k!(CmpLt, U8),
        (CmpLt, I16) => k!(CmpLt, I16),
        (CmpLt, U16) => k!(CmpLt, U16),
        (CmpLt, I32) => k!(CmpLt, I32),
        (CmpLt, U32) => k!(CmpLt, U32),
        (CmpLt, I64) => k!(CmpLt, I64),
        _ => None,
    }
}

/// Flatten an [`AddrMode`] into the immediate fields of a fast memory
/// step. `None` when the displacement exceeds 32 bits or an index
/// register number collides with the [`NO_INDEX`] sentinel (neither is
/// ever produced by the online compilers; such code falls back to the
/// generic path rather than decoding wrong).
pub(crate) fn flatten_addr(m: &AddrMode) -> Option<(SReg, u32, u8, i32)> {
    let disp = i32::try_from(m.disp).ok()?;
    let idx = match m.idx {
        Some(r) if r.0 == NO_INDEX => return None,
        Some(r) => r.0,
        None => NO_INDEX,
    };
    Some((m.base, idx, m.scale, disp))
}

/// Specialized splat kernel: broadcast a (pre-coerced) scalar into the
/// first `n` lanes of `out`. The element type is a compile-time constant
/// inside, so the per-lane `write_elem` match const-folds away.
pub type SplatFn = fn(Value, out: &mut [u8], n: usize);

/// Pick the specialized splat kernel for an element type (total: every
/// type splats).
fn splat_fn(ty: ScalarTy) -> SplatFn {
    macro_rules! k {
        ($tyvar:ident) => {{
            fn kernel(v: Value, out: &mut [u8], n: usize) {
                const TY: ScalarTy = ScalarTy::$tyvar;
                const SZ: usize = TY.size();
                let out = &mut out[..n * SZ];
                for k in 0..n {
                    write_elem(TY, out, k * SZ, v);
                }
            }
            kernel as SplatFn
        }};
    }
    match ty {
        ScalarTy::I8 => k!(I8),
        ScalarTy::U8 => k!(U8),
        ScalarTy::I16 => k!(I16),
        ScalarTy::U16 => k!(U16),
        ScalarTy::I32 => k!(I32),
        ScalarTy::U32 => k!(U32),
        ScalarTy::I64 => k!(I64),
        ScalarTy::F32 => k!(F32),
        ScalarTy::F64 => k!(F64),
    }
}

/// Specialized vector-shift kernel: shift the first `n` lanes of `a` by
/// a broadcast amount (operator, direction and type baked in).
pub type VShiftFn = fn(a: &[u8], amt: i64, out: &mut [u8], n: usize);

/// Pick the specialized shift kernel for a (direction, element type)
/// pair. Shifts only exist at integer types.
fn vshift_fn(left: bool, ty: ScalarTy) -> Option<VShiftFn> {
    macro_rules! k {
        ($opvar:ident, $tyvar:ident) => {{
            fn kernel(a: &[u8], amt: i64, out: &mut [u8], n: usize) {
                const TY: ScalarTy = ScalarTy::$tyvar;
                const SZ: usize = TY.size();
                let end = n * SZ;
                let a = &a[..end];
                let out = &mut out[..end];
                let amt = Value::Int(amt);
                for k in 0..n {
                    let off = k * SZ;
                    let v = eval_bin(BinOp::$opvar, TY, read_elem(TY, a, off), amt);
                    write_elem(TY, out, off, v);
                }
            }
            Some(kernel as VShiftFn)
        }};
    }
    macro_rules! for_int_tys {
        ($opvar:ident, $ty:expr) => {
            match $ty {
                ScalarTy::I8 => k!($opvar, I8),
                ScalarTy::U8 => k!($opvar, U8),
                ScalarTy::I16 => k!($opvar, I16),
                ScalarTy::U16 => k!($opvar, U16),
                ScalarTy::I32 => k!($opvar, I32),
                ScalarTy::U32 => k!($opvar, U32),
                ScalarTy::I64 => k!($opvar, I64),
                _ => None,
            }
        };
    }
    if left {
        for_int_tys!(Shl, ty)
    } else {
        for_int_tys!(Shr, ty)
    }
}

/// Specialized horizontal-reduction kernel: fold the first `n` lanes
/// into a scalar (operator and type baked in, so the reduction loop is a
/// straight-line fold instead of a double match per lane).
pub type VReduceFn = fn(a: &[u8], n: usize) -> Value;

/// Pick the specialized reduction kernel for a (reduce-op, type) pair
/// (total: the machine's reductions are defined at every type).
fn vreduce_fn(op: ReduceOp, ty: ScalarTy) -> VReduceFn {
    macro_rules! k {
        ($opvar:ident, $tyvar:ident) => {{
            fn kernel(a: &[u8], n: usize) -> Value {
                const TY: ScalarTy = ScalarTy::$tyvar;
                const SZ: usize = TY.size();
                let a = &a[..n * SZ];
                let mut acc = read_elem(TY, a, 0);
                for k in 1..n {
                    acc = eval_bin(BinOp::$opvar, TY, acc, read_elem(TY, a, k * SZ));
                }
                acc
            }
            kernel as VReduceFn
        }};
    }
    macro_rules! for_all_tys {
        ($opvar:ident, $ty:expr) => {
            match $ty {
                ScalarTy::I8 => k!($opvar, I8),
                ScalarTy::U8 => k!($opvar, U8),
                ScalarTy::I16 => k!($opvar, I16),
                ScalarTy::U16 => k!($opvar, U16),
                ScalarTy::I32 => k!($opvar, I32),
                ScalarTy::U32 => k!($opvar, U32),
                ScalarTy::I64 => k!($opvar, I64),
                ScalarTy::F32 => k!($opvar, F32),
                ScalarTy::F64 => k!($opvar, F64),
            }
        };
    }
    match op {
        ReduceOp::Plus => for_all_tys!(Add, ty),
        ReduceOp::Max => for_all_tys!(Max, ty),
        ReduceOp::Min => for_all_tys!(Min, ty),
    }
}

/// Pick the specialized kernel for a unary (operator, element type).
fn vun_fn(op: UnOp, ty: ScalarTy) -> Option<VUnFn> {
    macro_rules! k {
        ($opvar:ident, $tyvar:ident) => {{
            fn kernel(a: &[u8], out: &mut [u8], n: usize) {
                const TY: ScalarTy = ScalarTy::$tyvar;
                const SZ: usize = TY.size();
                let end = n * SZ;
                let a = &a[..end];
                let out = &mut out[..end];
                for k in 0..n {
                    let off = k * SZ;
                    write_elem(
                        TY,
                        out,
                        off,
                        eval_un(UnOp::$opvar, TY, read_elem(TY, a, off)),
                    );
                }
            }
            Some(kernel as VUnFn)
        }};
    }
    use ScalarTy::*;
    use UnOp::*;
    match (op, ty) {
        (Neg, I8) => k!(Neg, I8),
        (Neg, U8) => k!(Neg, U8),
        (Neg, I16) => k!(Neg, I16),
        (Neg, U16) => k!(Neg, U16),
        (Neg, I32) => k!(Neg, I32),
        (Neg, U32) => k!(Neg, U32),
        (Neg, I64) => k!(Neg, I64),
        (Neg, F32) => k!(Neg, F32),
        (Neg, F64) => k!(Neg, F64),
        (Abs, I8) => k!(Abs, I8),
        (Abs, U8) => k!(Abs, U8),
        (Abs, I16) => k!(Abs, I16),
        (Abs, U16) => k!(Abs, U16),
        (Abs, I32) => k!(Abs, I32),
        (Abs, U32) => k!(Abs, U32),
        (Abs, I64) => k!(Abs, I64),
        (Abs, F32) => k!(Abs, F32),
        (Abs, F64) => k!(Abs, F64),
        (Sqrt, F32) => k!(Sqrt, F32),
        (Sqrt, F64) => k!(Sqrt, F64),
        _ => None,
    }
}

/// Flattened address of one memory leg of a fused superinstruction
/// (same fields the standalone fast memory steps carry inline).
#[derive(Debug, Clone, Copy)]
pub struct FusedAddr {
    /// Base address register.
    pub base: SReg,
    /// Index register number, or [`NO_INDEX`].
    pub idx: u32,
    /// Scale applied to the index (bytes).
    pub scale: u8,
    /// Whether the access carries the aligned contract (always `false`
    /// for the element-aligned `...Vl` accesses).
    pub aligned: bool,
    /// Constant displacement (bytes).
    pub disp: i32,
}

/// Payload of the `LoadV → VBin → StoreV` superinstruction. The fused
/// step executes all three constituents in order — including every
/// register write — so machine state is bit-identical to the unfused
/// sequence; only the per-step dispatch overhead (bounds/fuel checks,
/// the step match, pc/stat bookkeeping) is paid once instead of thrice.
#[derive(Debug, Clone)]
pub struct LoadBinStore {
    /// Destination of the load.
    pub load_dst: VReg,
    /// Load address.
    pub load: FusedAddr,
    /// Destination of the binary op (also the store source).
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
    /// Store address.
    pub store: FusedAddr,
}

/// Payload of the `LoadV → VBin → VBin` superinstruction: a load
/// feeding one link of a combining chain that immediately feeds the
/// next (the `acc = acc ⊕ f(load)` idiom of every reduction-shaped
/// kernel, where the store only happens after the whole chain).
#[derive(Debug, Clone)]
pub struct LoadBinBin {
    /// Destination of the load.
    pub load_dst: VReg,
    /// Load address.
    pub load: FusedAddr,
    /// Destination of the first binary op.
    pub dst1: VReg,
    /// Left operand of the first op.
    pub a1: VReg,
    /// Right operand of the first op.
    pub b1: VReg,
    /// Specialized lane kernel of the first op.
    pub f1: VBinFn,
    /// First operator.
    pub op1: BinOp,
    /// Element type of the first op.
    pub ty1: ScalarTy,
    /// Destination of the second binary op.
    pub dst2: VReg,
    /// Left operand of the second op.
    pub a2: VReg,
    /// Right operand of the second op.
    pub b2: VReg,
    /// Specialized lane kernel of the second op.
    pub f2: VBinFn,
    /// Second operator.
    pub op2: BinOp,
    /// Element type of the second op.
    pub ty2: ScalarTy,
}

/// Payload of the `LoadV → VBin` superinstruction.
#[derive(Debug, Clone)]
pub struct LoadBin {
    /// Destination of the load.
    pub load_dst: VReg,
    /// Load address.
    pub load: FusedAddr,
    /// Destination of the binary op.
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

/// Payload of the `VBin → StoreV` superinstruction.
#[derive(Debug, Clone)]
pub struct BinStore {
    /// Destination of the binary op (also the store source).
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
    /// Store address.
    pub store: FusedAddr,
}

/// Payload of the predicated `LoadVl → VBinVl → StoreVl` runtime-VL
/// superinstruction: the active lane count is read from the machine's VL
/// state at execution time, exactly as in the unfused steps.
#[derive(Debug, Clone)]
pub struct LoadBinStoreVl {
    /// Element type of the predicated load.
    pub load_ty: ScalarTy,
    /// Destination of the load.
    pub load_dst: VReg,
    /// Load address (element-aligned; no whole-register contract).
    pub load: FusedAddr,
    /// Destination of the binary op (merge source; also the store
    /// source).
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
    pub store: FusedAddr,
}

/// Payload of the `SBinImm → branch` loop-latch superinstruction
/// (induction-variable step plus the backedge test, the tail of every
/// stripmined loop).
#[derive(Debug, Clone)]
pub struct Latch {
    /// Destination of the scalar op.
    pub dst: SReg,
    /// Left operand of the scalar op.
    pub a: SReg,
    /// Immediate right operand of the scalar op.
    pub imm: i32,
    /// Specialized scalar kernel.
    pub f: SBinFn,
    /// Operator of the scalar op.
    pub op: BinOp,
    /// Operand type.
    pub ty: ScalarTy,
    /// Result type.
    pub rty: ScalarTy,
    /// Branch condition.
    pub cond: Cond,
    /// Left branch operand.
    pub br_a: SReg,
    /// Right branch operand register number, or [`NO_INDEX`] when the
    /// branch compares against `br_imm`.
    pub br_reg: u32,
    /// Immediate right branch operand (used when `br_reg` is
    /// [`NO_INDEX`]).
    pub br_imm: i64,
    /// Target index.
    pub target: u32,
}

/// Per-pattern hit counters of the superinstruction fusion pass,
/// recorded on the [`DecodedProgram`] so tests can assert that the
/// expected patterns actually fire (a silently-disabled pass fails tests
/// instead of just benching slower).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// `LoadV → VBin → StoreV` three-op fusions.
    pub load_bin_store: u32,
    /// `LoadVl → VBinVl → StoreVl` predicated (runtime-VL) three-op
    /// fusions.
    pub load_bin_store_vl: u32,
    /// `LoadV → VBin → VBin` three-op combining-chain fusions.
    pub load_bin_bin: u32,
    /// `LoadV → VBin` two-op fusions.
    pub load_bin: u32,
    /// `VBin → StoreV` two-op fusions.
    pub bin_store: u32,
    /// `SBinImm → branch` loop-latch fusions.
    pub latch: u32,
}

impl FusionStats {
    /// Total number of superinstructions formed.
    pub fn total(&self) -> u32 {
        self.load_bin_store
            + self.load_bin_store_vl
            + self.load_bin_bin
            + self.load_bin
            + self.bin_store
            + self.latch
    }

    /// Total number of three-op superinstructions formed.
    pub fn three_op(&self) -> u32 {
        self.load_bin_store + self.load_bin_store_vl + self.load_bin_bin
    }
}

/// Control-flow-resolved step of a decoded program.
///
/// No `PartialEq`: the fast variants hold function pointers, whose
/// comparison is not meaningful. Compare the source [`MCode`] instead.
///
/// The enum is kept within a 32-byte niche-packed budget (asserted in
/// tests): the superinstruction payloads exceed it and are therefore
/// boxed — one pointer chase per fused step, in exchange for two fewer
/// trips through the dispatch loop.
#[derive(Debug, Clone)]
pub enum DStep {
    /// Unconditional jump to a decoded-instruction index.
    Jump {
        /// Target index.
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
        /// Target index.
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
        /// Target index.
        target: u32,
    },
    /// [`MInst::VBin`] with a specialized all-lanes kernel resolved at
    /// decode time (operator/type matches hoisted out of the lane loop).
    VBinFast {
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Specialized lane kernel.
        f: VBinFn,
        /// Operator (for disassembly; the kernel has it
        /// baked in).
        op: BinOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// [`MInst::VUn`] with a specialized all-lanes kernel.
    VUnFast {
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
    /// [`MInst::VBinVl`] (merging-predicated, runtime-VL) with the same
    /// specialized lane kernel as [`DStep::VBinFast`]: the active lane
    /// count is read from the machine's VL state at execution time, so
    /// runtime-VL code no longer falls back to the generic
    /// merge-predicated interpreter loop.
    VBinVlFast {
        /// Destination (also the merge source for inactive lanes).
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
    /// [`MInst::VUnVl`] with a specialized merging-predicated kernel.
    VUnVlFast {
        /// Destination (also the merge source for inactive lanes).
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
    /// [`MInst::LoadV`] with the address mode flattened to immediate
    /// fields: no `AddrMode` indirection and no second (~40-variant)
    /// instruction match in the hot loop. Memory traffic dominates the
    /// suite's inner loops, so these four memory steps are where the
    /// decoded dispatch wins most of its time over the seed interpreter.
    LoadVFast {
        /// Destination.
        dst: VReg,
        /// Base address register.
        base: SReg,
        /// Index register number, or [`NO_INDEX`].
        idx: u32,
        /// Scale applied to the index (bytes).
        scale: u8,
        /// Whether the access carries the aligned contract.
        aligned: bool,
        /// Constant displacement (bytes).
        disp: i32,
    },
    /// [`MInst::StoreV`] with a flattened address mode.
    StoreVFast {
        /// Source register.
        src: VReg,
        /// Base address register.
        base: SReg,
        /// Index register number, or [`NO_INDEX`].
        idx: u32,
        /// Scale applied to the index (bytes).
        scale: u8,
        /// Whether the access carries the aligned contract.
        aligned: bool,
        /// Constant displacement (bytes).
        disp: i32,
    },
    /// [`MInst::LoadS`] with a flattened address mode.
    LoadSFast {
        /// Element type.
        ty: ScalarTy,
        /// Destination.
        dst: SReg,
        /// Base address register.
        base: SReg,
        /// Index register number, or [`NO_INDEX`].
        idx: u32,
        /// Scale applied to the index (bytes).
        scale: u8,
        /// Constant displacement (bytes).
        disp: i32,
    },
    /// [`MInst::StoreS`] with a flattened address mode.
    StoreSFast {
        /// Element type.
        ty: ScalarTy,
        /// Source register.
        src: SReg,
        /// Base address register.
        base: SReg,
        /// Index register number, or [`NO_INDEX`].
        idx: u32,
        /// Scale applied to the index (bytes).
        scale: u8,
        /// Constant displacement (bytes).
        disp: i32,
    },
    /// [`MInst::SBin`]/[`MInst::FpuBin`] with a specialized scalar ALU
    /// kernel and the result type resolved at decode time. The
    /// partially-vectorized kernels execute mostly scalar code, so this
    /// is what moves their dispatch numbers.
    SBinFast {
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
        /// Specialized scalar kernel.
        f: SBinFn,
        /// Operator.
        op: BinOp,
        /// Operand type (for input coercion).
        ty: ScalarTy,
        /// Result type (I32 for comparisons, `ty` otherwise).
        rty: ScalarTy,
    },
    /// [`MInst::SBinImm`] with a specialized scalar ALU kernel.
    SBinImmFast {
        /// Destination.
        dst: SReg,
        /// Left operand.
        a: SReg,
        /// Immediate right operand (decode falls back to the generic
        /// path when it does not fit 32 bits).
        imm: i32,
        /// Specialized scalar kernel.
        f: SBinFn,
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: ScalarTy,
        /// Result type.
        rty: ScalarTy,
    },
    /// [`MInst::MovS`] (hot in spill-heavy scalar code).
    MovSFast {
        /// Destination.
        dst: SReg,
        /// Source.
        src: SReg,
    },
    /// [`MInst::Splat`] with a specialized broadcast kernel (hot in the
    /// loop preheaders of every vectorized kernel and inside shift/mask
    /// idioms).
    SplatFast {
        /// Destination.
        dst: VReg,
        /// Source scalar.
        src: SReg,
        /// Specialized broadcast kernel.
        f: SplatFn,
        /// Element type.
        ty: ScalarTy,
    },
    /// [`MInst::VShift`] by an immediate amount with a specialized lane
    /// kernel (per-lane amounts decode to [`DStep::VBinFast`] instead —
    /// they are exactly a lane-wise binary op). Immediate and register
    /// amounts are separate variants so each payload stays inside the
    /// 32-byte niche-packed budget.
    VShiftImmFast {
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
    /// [`MInst::VShift`] by a broadcast scalar-register amount.
    VShiftRegFast {
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
    /// [`MInst::SpillLd`] without the generic-interpreter detour (spill
    /// traffic dominates the naive-JIT flows).
    SpillLdFast {
        /// Destination register.
        dst: SReg,
        /// Slot index.
        slot: u32,
    },
    /// [`MInst::SpillSt`] without the generic-interpreter detour.
    SpillStFast {
        /// Source register.
        src: SReg,
        /// Slot index.
        slot: u32,
    },
    /// [`MInst::VReduce`] with a specialized fold kernel (the reduction
    /// at the end of every dot-product/accumulation loop).
    VReduceFast {
        /// Destination scalar.
        dst: SReg,
        /// Source vector.
        src: VReg,
        /// Specialized fold kernel.
        f: VReduceFn,
        /// Reduction operator (for disassembly).
        op: ReduceOp,
        /// Element type.
        ty: ScalarTy,
    },
    /// `LoadV → VBin → StoreV` superinstruction (see [`LoadBinStore`]).
    FusedLoadBinStore(Box<LoadBinStore>),
    /// `LoadV → VBin → VBin` superinstruction (see [`LoadBinBin`]).
    FusedLoadBinBin(Box<LoadBinBin>),
    /// `LoadV → VBin` superinstruction.
    FusedLoadBin(Box<LoadBin>),
    /// `VBin → StoreV` superinstruction.
    FusedBinStore(Box<BinStore>),
    /// Predicated `LoadVl → VBinVl → StoreVl` runtime-VL
    /// superinstruction.
    FusedLoadBinStoreVl(Box<LoadBinStoreVl>),
    /// `SBinImm → branch` loop-latch superinstruction.
    FusedLatch(Box<Latch>),
    /// Any other non-control instruction, executed by the shared
    /// (generic) semantics.
    Op(MInst),
}

impl DStep {
    /// The step index a control step may transfer to; `None` for every
    /// step that only falls through.
    fn target(&self) -> Option<u32> {
        match self {
            DStep::Jump { target }
            | DStep::Branch { target, .. }
            | DStep::BranchImm { target, .. } => Some(*target),
            DStep::FusedLatch(p) => Some(p.target),
            _ => None,
        }
    }

    /// [`DStep::target`], for re-indexing.
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            DStep::Jump { target }
            | DStep::Branch { target, .. }
            | DStep::BranchImm { target, .. } => Some(target),
            DStep::FusedLatch(p) => Some(&mut p.target),
            _ => None,
        }
    }
}

/// One decoded instruction: the step plus everything the seed dispatch
/// loop used to re-derive per execution.
#[derive(Debug, Clone)]
pub struct DecodedInst {
    /// What to execute.
    pub step: DStep,
    /// Pre-computed width-independent cycle cost on the decode target
    /// ([`crate::CostModel::base_cost`]); the dispatch loops add the
    /// width-dependent part of reductions and helper calls as they run
    /// them. For a fused superinstruction this is the *sum* of the
    /// constituents' costs, so `vm_cycles` accounting is bit-identical
    /// with fusion on or off.
    pub cost: u64,
    /// Number of source instructions this step covers: 1 for plain
    /// steps, 2–3 for superinstructions. The dispatch loop charges it to
    /// `ExecStats::insts` as part of its block's sum, so fused and
    /// unfused execution report identical statistics.
    pub arity: u32,
    /// Index of the step's basic block in its program's block table: a
    /// taken branch continues at its target step's block. It fills the
    /// padding after `arity`, so a step stays 48 bytes.
    pub block: u32,
}

/// One basic block of a decoded program: a maximal run of steps that
/// control enters only at `first` and leaves only from its last step
/// (the block ends where the next one starts, or at the end of the
/// program). [`crate::Machine::run_decoded`] charges fuel, `insts` and
/// `cycles` once per block entry from these sums.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    /// Index of the first step.
    pub(crate) first: u32,
    /// Sum of the steps' source-instruction arities.
    pub(crate) arity: u32,
    /// Sum of the steps' width-independent cycle costs.
    pub(crate) cost: u64,
}

/// Add step `d`, at index `at`, to the last block of `blocks`, opening
/// a new block first when `leads` (step 0 always does).
fn extend_blocks(blocks: &mut Vec<Block>, at: usize, d: &mut DecodedInst, leads: bool) {
    if leads || blocks.is_empty() {
        blocks.push(Block {
            first: at as u32,
            arity: 0,
            cost: 0,
        });
    }
    let b = blocks.last_mut().expect("a block is open");
    b.arity += d.arity;
    b.cost += d.cost;
    d.block = (blocks.len() - 1) as u32;
}

/// Split `steps` into basic blocks and record each step's block index.
/// Leaders are step 0, every branch target and every step after a
/// control step, so a block transfers control only from its last step.
/// ([`DecodedProgram::fuse`] applies the same rule as it fuses.)
fn index_blocks(steps: &mut [DecodedInst]) -> Vec<Block> {
    let mut leader = vec![false; steps.len() + 1];
    for (i, d) in steps.iter().enumerate() {
        if let Some(t) = d.step.target() {
            leader[t as usize] = true;
            leader[i + 1] = true;
        }
    }
    let mut blocks = Vec::new();
    for (i, d) in steps.iter_mut().enumerate() {
        extend_blocks(&mut blocks, i, d, leader[i]);
    }
    blocks
}

/// The machines a decoded program runs on, checked before it runs
/// (running a program on a machine it was not decoded for is a harness
/// bug). No step holds a lane count: the dispatch loop reads it from the
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Only a machine of this vector width in bytes.
    Fixed(usize),
    /// Every legal VL of this vector-length-agnostic family.
    Vla(TargetKind),
}

impl Width {
    /// The width of `target`'s programs.
    pub fn of(target: &TargetDesc) -> Width {
        if target.vla {
            Width::Vla(target.kind)
        } else {
            Width::Fixed(target.vs.max(1))
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Width::Fixed(vs) => write!(f, "VS={vs}"),
            Width::Vla(kind) => write!(f, "every {kind:?} VL"),
        }
    }
}

/// A fully decoded, target-specific program: its steps and their basic
/// blocks. [`crate::Machine::run_decoded`] charges fuel per block, so a
/// block whose charge would cross the budget traps at its entry without
/// executing any of its steps.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    steps: Vec<DecodedInst>,
    /// The basic blocks of `steps`, in step order.
    blocks: Vec<Block>,
    /// Executable (non-label) *source* instruction count (the sum of
    /// step arities; fused programs have fewer steps than this).
    pub len: usize,
    /// The machines this program runs on.
    pub width: Width,
    /// Superinstruction hit counters of the fusion pass (all zero for an
    /// unfused decode).
    fusion: FusionStats,
}

/// Try to form a superinstruction at step `i`. Returns the fused step
/// and how many steps it covers; patterns are tried longest first.
/// `free(r)` reports whether no branch lands inside the index range `r`.
fn fuse_at(
    steps: &[DecodedInst],
    i: usize,
    free: &impl Fn(std::ops::Range<usize>) -> bool,
    stats: &mut FusionStats,
) -> Option<(DStep, usize)> {
    // Three-op: LoadV → VBin → StoreV, the body of every elementwise
    // vector loop (load the second operand, combine, store the result).
    if i + 2 < steps.len() && free(i + 1..i + 3) {
        if let (
            DStep::LoadVFast {
                dst: load_dst,
                base,
                idx,
                scale,
                aligned,
                disp,
            },
            DStep::VBinFast {
                dst,
                a,
                b,
                f,
                op,
                ty,
            },
            DStep::StoreVFast {
                src,
                base: sbase,
                idx: sidx,
                scale: sscale,
                aligned: saligned,
                disp: sdisp,
            },
        ) = (&steps[i].step, &steps[i + 1].step, &steps[i + 2].step)
        {
            if (load_dst == a || load_dst == b) && src == dst {
                stats.load_bin_store += 1;
                return Some((
                    DStep::FusedLoadBinStore(Box::new(LoadBinStore {
                        load_dst: *load_dst,
                        load: FusedAddr {
                            base: *base,
                            idx: *idx,
                            scale: *scale,
                            aligned: *aligned,
                            disp: *disp,
                        },
                        dst: *dst,
                        a: *a,
                        b: *b,
                        f: *f,
                        op: *op,
                        ty: *ty,
                        store: FusedAddr {
                            base: *sbase,
                            idx: *sidx,
                            scale: *sscale,
                            aligned: *saligned,
                            disp: *sdisp,
                        },
                    })),
                    3,
                ));
            }
        }
        // Three-op combining chain: LoadV → VBin → VBin, the
        // `acc = acc ⊕ f(load)` idiom of reduction-shaped kernels whose
        // store only happens after the chain.
        if let (
            DStep::LoadVFast {
                dst: load_dst,
                base,
                idx,
                scale,
                aligned,
                disp,
            },
            DStep::VBinFast {
                dst: dst1,
                a: a1,
                b: b1,
                f: f1,
                op: op1,
                ty: ty1,
            },
            DStep::VBinFast {
                dst: dst2,
                a: a2,
                b: b2,
                f: f2,
                op: op2,
                ty: ty2,
            },
        ) = (&steps[i].step, &steps[i + 1].step, &steps[i + 2].step)
        {
            if (load_dst == a1 || load_dst == b1) && (dst1 == a2 || dst1 == b2) {
                stats.load_bin_bin += 1;
                return Some((
                    DStep::FusedLoadBinBin(Box::new(LoadBinBin {
                        load_dst: *load_dst,
                        load: FusedAddr {
                            base: *base,
                            idx: *idx,
                            scale: *scale,
                            aligned: *aligned,
                            disp: *disp,
                        },
                        dst1: *dst1,
                        a1: *a1,
                        b1: *b1,
                        f1: *f1,
                        op1: *op1,
                        ty1: *ty1,
                        dst2: *dst2,
                        a2: *a2,
                        b2: *b2,
                        f2: *f2,
                        op2: *op2,
                        ty2: *ty2,
                    })),
                    3,
                ));
            }
        }
        // Predicated runtime-VL form: LoadVl → VBinVl → StoreVl (the
        // stripmined loop body of every VLA target).
        if let (
            DStep::Op(MInst::LoadVl {
                ty: load_ty,
                dst: load_dst,
                addr: load_addr,
            }),
            DStep::VBinVlFast {
                dst,
                a,
                b,
                f,
                op,
                ty,
            },
            DStep::Op(MInst::StoreVl {
                ty: store_ty,
                src,
                addr: store_addr,
            }),
        ) = (&steps[i].step, &steps[i + 1].step, &steps[i + 2].step)
        {
            if (load_dst == a || load_dst == b) && src == dst {
                if let (Some((lb, li, ls, ld)), Some((sb, si, ss, sd))) =
                    (flatten_addr(load_addr), flatten_addr(store_addr))
                {
                    stats.load_bin_store_vl += 1;
                    return Some((
                        DStep::FusedLoadBinStoreVl(Box::new(LoadBinStoreVl {
                            load_ty: *load_ty,
                            load_dst: *load_dst,
                            load: FusedAddr {
                                base: lb,
                                idx: li,
                                scale: ls,
                                aligned: false,
                                disp: ld,
                            },
                            dst: *dst,
                            a: *a,
                            b: *b,
                            f: *f,
                            op: *op,
                            ty: *ty,
                            store_ty: *store_ty,
                            store: FusedAddr {
                                base: sb,
                                idx: si,
                                scale: ss,
                                aligned: false,
                                disp: sd,
                            },
                        })),
                        3,
                    ));
                }
            }
        }
    }
    if i + 1 < steps.len() && free(i + 1..i + 2) {
        // Two-op: LoadV → VBin.
        if let (
            DStep::LoadVFast {
                dst: load_dst,
                base,
                idx,
                scale,
                aligned,
                disp,
            },
            DStep::VBinFast {
                dst,
                a,
                b,
                f,
                op,
                ty,
            },
        ) = (&steps[i].step, &steps[i + 1].step)
        {
            if load_dst == a || load_dst == b {
                stats.load_bin += 1;
                return Some((
                    DStep::FusedLoadBin(Box::new(LoadBin {
                        load_dst: *load_dst,
                        load: FusedAddr {
                            base: *base,
                            idx: *idx,
                            scale: *scale,
                            aligned: *aligned,
                            disp: *disp,
                        },
                        dst: *dst,
                        a: *a,
                        b: *b,
                        f: *f,
                        op: *op,
                        ty: *ty,
                    })),
                    2,
                ));
            }
        }
        // Two-op: VBin → StoreV.
        if let (
            DStep::VBinFast {
                dst,
                a,
                b,
                f,
                op,
                ty,
            },
            DStep::StoreVFast {
                src,
                base,
                idx,
                scale,
                aligned,
                disp,
            },
        ) = (&steps[i].step, &steps[i + 1].step)
        {
            if src == dst {
                stats.bin_store += 1;
                return Some((
                    DStep::FusedBinStore(Box::new(BinStore {
                        dst: *dst,
                        a: *a,
                        b: *b,
                        f: *f,
                        op: *op,
                        ty: *ty,
                        store: FusedAddr {
                            base: *base,
                            idx: *idx,
                            scale: *scale,
                            aligned: *aligned,
                            disp: *disp,
                        },
                    })),
                    2,
                ));
            }
        }
        // Loop latch: SBinImm → branch reading the updated induction
        // variable (register or immediate bound).
        if let DStep::SBinImmFast {
            dst,
            a,
            imm,
            f,
            op,
            ty,
            rty,
        } = &steps[i].step
        {
            let latch = |cond: Cond, br_a: SReg, br_reg: u32, br_imm: i64, target: u32| {
                DStep::FusedLatch(Box::new(Latch {
                    dst: *dst,
                    a: *a,
                    imm: *imm,
                    f: *f,
                    op: *op,
                    ty: *ty,
                    rty: *rty,
                    cond,
                    br_a,
                    br_reg,
                    br_imm,
                    target,
                }))
            };
            match &steps[i + 1].step {
                DStep::Branch {
                    cond,
                    a: ba,
                    b: bb,
                    target,
                } if (ba == dst || bb == dst) && bb.0 != NO_INDEX => {
                    stats.latch += 1;
                    return Some((latch(*cond, *ba, bb.0, 0, *target), 2));
                }
                DStep::BranchImm {
                    cond,
                    a: ba,
                    imm: bimm,
                    target,
                } if ba == dst => {
                    stats.latch += 1;
                    return Some((latch(*cond, *ba, NO_INDEX, *bimm, *target), 2));
                }
                _ => {}
            }
        }
    }
    None
}

impl DecodedProgram {
    /// Decode `code` for `target`: strip labels, resolve branch targets
    /// to instruction indices, pre-compute per-instruction costs, and
    /// run the superinstruction fusion pass (see
    /// [`DecodedProgram::fuse`]).
    ///
    /// # Errors
    /// Returns a [`Trap`] for branches to undefined labels, for
    /// duplicate label definitions and for label ids not below the
    /// instruction count (the seed interpreter deferred the first to run
    /// time; a decoded program rejects malformed code up front).
    pub fn decode(code: &MCode, target: &TargetDesc) -> Result<DecodedProgram, Trap> {
        Ok(DecodedProgram::resolve(code, target)?.fuse())
    }

    /// [`DecodedProgram::decode`] without the superinstruction fusion
    /// pass: one step per executable instruction. The differential
    /// harness and the dispatch benchmarks run this form against the
    /// fused one; results, cycles and instruction counts must be
    /// bit-identical.
    ///
    /// # Errors
    /// Same contract as [`DecodedProgram::decode`].
    pub fn decode_unfused(code: &MCode, target: &TargetDesc) -> Result<DecodedProgram, Trap> {
        let mut prog = DecodedProgram::resolve(code, target)?;
        prog.blocks = index_blocks(&mut prog.steps);
        Ok(prog)
    }

    /// [`DecodedProgram::decode_unfused`] without the block table, which
    /// [`DecodedProgram::fuse`] builds over its own steps.
    fn resolve(code: &MCode, target: &TargetDesc) -> Result<DecodedProgram, Trap> {
        // Pass 1: map every label to the index its successor instruction
        // will have once labels are stripped. Label ids index a dense
        // table: the JIT numbers them from 0, so a program of `n`
        // instructions names labels below `n`.
        const UNDEFINED: u32 = u32::MAX;
        let mut label_to_index = vec![UNDEFINED; code.insts.len()];
        let mut idx = 0u32;
        for inst in &code.insts {
            if let MInst::Label(l) = inst {
                let slot = label_to_index
                    .get_mut(l.0 as usize)
                    .ok_or_else(|| Trap(format!("label {l} out of range")))?;
                if *slot != UNDEFINED {
                    return Err(Trap(format!("label {l} defined twice")));
                }
                *slot = idx;
            } else {
                idx += 1;
            }
        }
        let resolve = |l: &Label| match label_to_index.get(l.0 as usize) {
            Some(&i) if i != UNDEFINED => Ok(i),
            _ => Err(Trap(format!("undefined label {l}"))),
        };

        // Pass 2: decode.
        let mut steps = Vec::with_capacity(idx as usize);
        for inst in &code.insts {
            let step = match inst {
                MInst::Label(_) => continue,
                MInst::Jump(l) => DStep::Jump {
                    target: resolve(l)?,
                },
                MInst::Branch { cond, a, b, target } => DStep::Branch {
                    cond: *cond,
                    a: *a,
                    b: *b,
                    target: resolve(target)?,
                },
                MInst::BranchImm {
                    cond,
                    a,
                    imm,
                    target,
                } => DStep::BranchImm {
                    cond: *cond,
                    a: *a,
                    imm: *imm,
                    target: resolve(target)?,
                },
                MInst::VBin { op, ty, dst, a, b } => match vbin_fn(*op, *ty) {
                    Some(f) => DStep::VBinFast {
                        dst: *dst,
                        a: *a,
                        b: *b,
                        f,
                        op: *op,
                        ty: *ty,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::VUn { op, ty, dst, a } => match vun_fn(*op, *ty) {
                    Some(f) => DStep::VUnFast {
                        dst: *dst,
                        a: *a,
                        f,
                        op: *op,
                        ty: *ty,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::SBin { op, ty, dst, a, b } | MInst::FpuBin { op, ty, dst, a, b } => {
                    match sbin_fn(*op, *ty) {
                        Some(f) => DStep::SBinFast {
                            dst: *dst,
                            a: *a,
                            b: *b,
                            f,
                            op: *op,
                            ty: *ty,
                            rty: if op.is_comparison() {
                                ScalarTy::I32
                            } else {
                                *ty
                            },
                        },
                        None => DStep::Op(inst.clone()),
                    }
                }
                MInst::SBinImm {
                    op,
                    ty,
                    dst,
                    a,
                    imm,
                } => match (sbin_fn(*op, *ty), i32::try_from(*imm)) {
                    (Some(f), Ok(imm)) => DStep::SBinImmFast {
                        dst: *dst,
                        a: *a,
                        imm,
                        f,
                        op: *op,
                        ty: *ty,
                        rty: if op.is_comparison() {
                            ScalarTy::I32
                        } else {
                            *ty
                        },
                    },
                    _ => DStep::Op(inst.clone()),
                },
                MInst::MovS { dst, src } => DStep::MovSFast {
                    dst: *dst,
                    src: *src,
                },
                MInst::Splat { ty, dst, src } => DStep::SplatFast {
                    dst: *dst,
                    src: *src,
                    f: splat_fn(*ty),
                    ty: *ty,
                },
                MInst::VShift {
                    left,
                    ty,
                    dst,
                    a,
                    amt,
                } => match (amt, vshift_fn(*left, *ty)) {
                    (ShiftSrc::Imm(v), Some(f)) => DStep::VShiftImmFast {
                        dst: *dst,
                        a: *a,
                        f,
                        imm: *v,
                        left: *left,
                        ty: *ty,
                    },
                    (ShiftSrc::Reg(r), Some(f)) => DStep::VShiftRegFast {
                        dst: *dst,
                        a: *a,
                        f,
                        amt: *r,
                        left: *left,
                        ty: *ty,
                    },
                    // A per-lane shift *is* a lane-wise binary op: reuse
                    // the VBin kernels instead of a third kernel family.
                    (ShiftSrc::PerLane(amts), _) => {
                        let op = if *left { BinOp::Shl } else { BinOp::Shr };
                        match vbin_fn(op, *ty) {
                            Some(f) => DStep::VBinFast {
                                dst: *dst,
                                a: *a,
                                b: *amts,
                                f,
                                op,
                                ty: *ty,
                            },
                            None => DStep::Op(inst.clone()),
                        }
                    }
                    _ => DStep::Op(inst.clone()),
                },
                MInst::SpillLd { dst, slot } => DStep::SpillLdFast {
                    dst: *dst,
                    slot: *slot,
                },
                MInst::SpillSt { src, slot } => DStep::SpillStFast {
                    src: *src,
                    slot: *slot,
                },
                MInst::VReduce { op, ty, dst, src } => DStep::VReduceFast {
                    dst: *dst,
                    src: *src,
                    f: vreduce_fn(*op, *ty),
                    op: *op,
                    ty: *ty,
                },
                MInst::LoadV { dst, addr, align } => match flatten_addr(addr) {
                    Some((base, idx, scale, disp)) => DStep::LoadVFast {
                        dst: *dst,
                        base,
                        idx,
                        scale,
                        aligned: *align == MemAlign::Aligned,
                        disp,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::StoreV { src, addr, align } => match flatten_addr(addr) {
                    Some((base, idx, scale, disp)) => DStep::StoreVFast {
                        src: *src,
                        base,
                        idx,
                        scale,
                        aligned: *align == MemAlign::Aligned,
                        disp,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::LoadS { ty, dst, addr } => match flatten_addr(addr) {
                    Some((base, idx, scale, disp)) => DStep::LoadSFast {
                        ty: *ty,
                        dst: *dst,
                        base,
                        idx,
                        scale,
                        disp,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::StoreS { ty, src, addr } => match flatten_addr(addr) {
                    Some((base, idx, scale, disp)) => DStep::StoreSFast {
                        ty: *ty,
                        src: *src,
                        base,
                        idx,
                        scale,
                        disp,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::VBinVl { op, ty, dst, a, b } => match vbin_fn(*op, *ty) {
                    Some(f) => DStep::VBinVlFast {
                        dst: *dst,
                        a: *a,
                        b: *b,
                        f,
                        op: *op,
                        ty: *ty,
                    },
                    None => DStep::Op(inst.clone()),
                },
                MInst::VUnVl { op, ty, dst, a } => match vun_fn(*op, *ty) {
                    Some(f) => DStep::VUnVlFast {
                        dst: *dst,
                        a: *a,
                        f,
                        op: *op,
                        ty: *ty,
                    },
                    None => DStep::Op(inst.clone()),
                },
                other => DStep::Op(other.clone()),
            };
            steps.push(DecodedInst {
                step,
                cost: target.cost.base_cost(inst),
                arity: 1,
                block: 0,
            });
        }
        let len = steps.len();
        Ok(DecodedProgram {
            steps,
            blocks: Vec::new(),
            len,
            width: Width::of(target),
            fusion: FusionStats::default(),
        })
    }

    /// Run the superinstruction fusion pass: a peephole pattern-matcher
    /// over the resolved step stream that rewrites hot adjacent
    /// sequences into single steps. Patterns (longest first):
    ///
    /// * `LoadV → VBin → StoreV` (and the predicated
    ///   `LoadVl → VBinVl → StoreVl` runtime-VL form) when the load
    ///   feeds the op and the op feeds the store;
    /// * `LoadV → VBin` / `VBin → StoreV` two-op forms;
    /// * `SBinImm → branch` loop latches where the branch reads the
    ///   updated induction variable.
    ///
    /// A sequence only fuses when no branch lands on its interior steps
    /// (the head stays addressable); branch targets are re-indexed over
    /// the shortened stream. Fused steps execute their constituents in
    /// order — every register write included — and charge the *sum* of
    /// their costs and arities, so machine state, `vm_cycles` and
    /// instruction counts are bit-identical with fusion on or off.
    ///
    /// The pass is idempotent: superinstructions match no pattern, so
    /// fusing an already-fused program returns it unchanged. It works in
    /// place: unfused steps move down the one step vector.
    #[must_use]
    pub fn fuse(self) -> DecodedProgram {
        let mut steps = self.steps;
        // Interior steps of a fusion candidate must not be branch
        // targets; heads may be.
        let mut is_target = vec![false; steps.len() + 1];
        for t in steps.iter().filter_map(|d| d.step.target()) {
            is_target[t as usize] = true;
        }
        let free = |range: std::ops::Range<usize>| range.into_iter().all(|i| !is_target[i]);

        // `fuse_at` reads only steps at or after `i`, so the fused stream
        // is written over the consumed front of the vector: `out` steps
        // written, `i` consumed.
        let mut new_index = vec![0u32; steps.len() + 1];
        let mut fusion = self.fusion;
        // The block table is built as the steps are written: a step
        // leads a block when it follows a control step or a branch lands
        // on its head (fusion never swallows a target).
        let mut blocks = Vec::new();
        let mut after_control = false;
        let (mut out, mut i) = (0usize, 0usize);
        while i < steps.len() {
            let width = match fuse_at(&steps, i, &free, &mut fusion) {
                Some((step, w)) => {
                    let group = &steps[i..i + w];
                    steps[out] = DecodedInst {
                        step,
                        cost: group.iter().map(|d| d.cost).sum(),
                        arity: group.iter().map(|d| d.arity).sum(),
                        block: 0,
                    };
                    w
                }
                None => {
                    steps.swap(out, i);
                    1
                }
            };
            let d = &mut steps[out];
            extend_blocks(&mut blocks, out, d, after_control || is_target[i]);
            after_control = d.step.target().is_some();
            new_index[i..i + width].fill(out as u32);
            i += width;
            out += 1;
        }
        new_index[steps.len()] = out as u32;
        steps.truncate(out);
        // Re-index branch targets over the shortened stream (fusion
        // legality guarantees every target maps to a surviving head).
        for t in steps.iter_mut().filter_map(|d| d.step.target_mut()) {
            *t = new_index[*t as usize];
        }
        DecodedProgram {
            steps,
            blocks,
            len: self.len,
            width: self.width,
            fusion,
        }
    }

    /// The superinstruction hit counters of the fusion pass.
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion
    }

    /// Number of decoded steps actually dispatched per full pass over
    /// the program (≤ [`DecodedProgram::len`] once fusion has run).
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// A clone of this program that runs on `target`'s machines (its
    /// [`Width`] is `target`'s), after checking that `code` has the shape
    /// this was decoded from: the same number of executable
    /// instructions. The step costs are kept, because every VL of a
    /// family shares its cost model.
    ///
    /// The library no longer calls this: a VLA program carries no lane
    /// count, so one decode runs at every VL of its family and the engine
    /// serves it unchanged. It is kept for callers that bind a program
    /// to one execution target.
    ///
    /// # Errors
    /// Returns a [`Trap`] when `code` does not match this program.
    pub fn respecialize(&self, code: &MCode, target: &TargetDesc) -> Result<DecodedProgram, Trap> {
        let executable = code
            .insts
            .iter()
            .filter(|i| !matches!(i, MInst::Label(_)))
            .count();
        let shape = match executable.cmp(&self.len) {
            std::cmp::Ordering::Less => "shorter",
            std::cmp::Ordering::Greater => "longer",
            std::cmp::Ordering::Equal => {
                return Ok(DecodedProgram {
                    width: Width::of(target),
                    ..self.clone()
                })
            }
        };
        Err(Trap(format!(
            "respecialize: code is {shape} than the decoded program"
        )))
    }

    /// The decoded instruction stream.
    pub fn steps(&self) -> &[DecodedInst] {
        &self.steps
    }

    /// The basic blocks of [`DecodedProgram::steps`], in step order.
    pub(crate) fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Whether there is nothing to execute.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrMode, MemAlign, VReg};
    use crate::target::{altivec, avx, sse};
    use vapor_ir::{BinOp, ScalarTy};

    fn branchy_code() -> MCode {
        MCode {
            insts: vec![
                MInst::MovImmI {
                    dst: SReg(0),
                    imm: 0,
                },
                MInst::Label(Label(0)),
                MInst::SBinImm {
                    op: BinOp::Add,
                    ty: ScalarTy::I64,
                    dst: SReg(0),
                    a: SReg(0),
                    imm: 1,
                },
                MInst::BranchImm {
                    cond: Cond::Lt,
                    a: SReg(0),
                    imm: 5,
                    target: Label(0),
                },
                MInst::Label(Label(1)),
                MInst::Jump(Label(2)),
                MInst::Label(Label(2)),
            ],
            n_sregs: 1,
            n_vregs: 0,
            note: String::new(),
        }
    }

    #[test]
    fn labels_are_stripped_and_targets_resolved() {
        let p = DecodedProgram::decode_unfused(&branchy_code(), &sse()).unwrap();
        assert_eq!(p.len, 4);
        match &p.steps()[2].step {
            DStep::BranchImm { target, .. } => assert_eq!(*target, 1),
            s => panic!("expected BranchImm, got {s:?}"),
        }
        match &p.steps()[3].step {
            // Label(2) is at the very end: the jump resolves to one past
            // the last instruction, i.e. normal termination.
            DStep::Jump { target } => assert_eq!(*target, 4),
            s => panic!("expected Jump, got {s:?}"),
        }
    }

    #[test]
    fn latch_fusion_remaps_branch_targets() {
        // The SBinImm+BranchImm backedge of branchy_code fuses into one
        // latch step whose target (and the trailing jump's) re-index
        // over the shortened stream.
        let p = DecodedProgram::decode(&branchy_code(), &sse()).unwrap();
        assert_eq!(p.len, 4, "len keeps counting source instructions");
        assert_eq!(p.n_steps(), 3);
        assert_eq!(p.fusion_stats().latch, 1);
        match &p.steps()[1].step {
            DStep::FusedLatch(l) => {
                assert_eq!(l.target, 1, "backedge lands on the latch head");
                assert_eq!((l.imm, l.br_imm), (1, 5));
            }
            s => panic!("expected FusedLatch, got {s:?}"),
        }
        match &p.steps()[2].step {
            DStep::Jump { target } => assert_eq!(*target, 3, "end jump re-indexed"),
            s => panic!("expected Jump, got {s:?}"),
        }
        // Cost and arity of the fused step cover both constituents.
        let unfused = DecodedProgram::decode_unfused(&branchy_code(), &sse()).unwrap();
        assert_eq!(p.steps()[1].arity, 2);
        assert_eq!(
            p.steps()[1].cost,
            unfused.steps()[1].cost + unfused.steps()[2].cost
        );
    }

    #[test]
    fn costs_match_the_cost_model() {
        let t = sse();
        let code = MCode {
            insts: vec![
                MInst::LoadV {
                    dst: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
                MInst::VBin {
                    op: BinOp::Mul,
                    ty: ScalarTy::F32,
                    dst: VReg(0),
                    a: VReg(0),
                    b: VReg(0),
                },
            ],
            n_sregs: 1,
            n_vregs: 1,
            note: String::new(),
        };
        let p = DecodedProgram::decode_unfused(&code, &t).unwrap();
        for (d, inst) in p.steps().iter().zip(&code.insts) {
            assert_eq!(d.cost, t.cost.base_cost(inst));
        }
        // The fused decode forms a LoadV→VBin superinstruction whose
        // cost is the exact sum (vm_cycles accounting must not move).
        let f = DecodedProgram::decode(&code, &t).unwrap();
        assert_eq!(f.fusion_stats().load_bin, 1);
        assert_eq!(f.n_steps(), 1);
        assert_eq!(
            f.steps()[0].cost,
            p.steps().iter().map(|d| d.cost).sum::<u64>()
        );
    }

    #[test]
    fn dstep_stays_within_the_niche_packed_budget() {
        // The hot-loop enum must not grow: superinstruction payloads are
        // boxed precisely to preserve this. A step keeps its block index
        // in the padding after `arity`. The decoded loop is sensitive to
        // the layout of what it touches per step: widening the machine's
        // lane table from 18 to 72 bytes ran it 2-3 % slower, and the
        // machine embeds a 256-byte inline scratch slot (`VRegs`), so a
        // field added before `fuel` or the lane table moves them onto
        // other cache lines. A size change here is a layout change to
        // measure.
        assert_eq!(std::mem::size_of::<DStep>(), 32);
        assert_eq!(std::mem::size_of::<DecodedInst>(), 48);
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<crate::machine::Machine<'_>>(), 424);
    }

    #[test]
    fn three_op_fusion_requires_dataflow_and_free_interior() {
        let body = |dst: u32| {
            vec![
                MInst::LoadV {
                    dst: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
                MInst::VBin {
                    op: BinOp::Add,
                    ty: ScalarTy::F32,
                    dst: VReg(dst),
                    a: VReg(0),
                    b: VReg(1),
                },
                MInst::StoreV {
                    src: VReg(2),
                    addr: AddrMode::base_disp(SReg(0), 16),
                    align: MemAlign::Unaligned,
                },
            ]
        };
        let code = |insts| MCode {
            insts,
            n_sregs: 1,
            n_vregs: 3,
            note: String::new(),
        };
        // Dataflow holds: load feeds the op, the op feeds the store.
        let p = DecodedProgram::decode(&code(body(2)), &sse()).unwrap();
        assert_eq!(p.fusion_stats().load_bin_store, 1);
        assert_eq!(p.n_steps(), 1);
        assert!(matches!(p.steps()[0].step, DStep::FusedLoadBinStore(_)));
        // Store reads a different register: only the two-op prefix fuses.
        let p = DecodedProgram::decode(&code(body(1)), &sse()).unwrap();
        assert_eq!(p.fusion_stats().load_bin_store, 0);
        assert_eq!(p.fusion_stats().load_bin, 1);
        // A branch landing on the VBin blocks the three-op fusion (and
        // the LoadV→VBin prefix), but the VBin→StoreV pair may still
        // fuse: the branch target is that group's *head*, which stays
        // addressable.
        let mut insts = body(2);
        insts.insert(1, MInst::Label(Label(0)));
        insts.push(MInst::BranchImm {
            cond: Cond::Lt,
            a: SReg(0),
            imm: 0,
            target: Label(0),
        });
        let p = DecodedProgram::decode(&code(insts), &sse()).unwrap();
        let stats = p.fusion_stats();
        assert_eq!(
            (stats.load_bin_store, stats.load_bin, stats.bin_store),
            (0, 0, 1),
            "{stats:?}"
        );
        match &p.steps()[2].step {
            DStep::BranchImm { target, .. } => {
                assert_eq!(*target, 1, "branch re-indexed onto the fused head")
            }
            s => panic!("expected BranchImm, got {s:?}"),
        }
    }

    #[test]
    fn fusion_is_idempotent() {
        let p = DecodedProgram::decode(&branchy_code(), &sse()).unwrap();
        let again = p.clone().fuse();
        assert_eq!(again.n_steps(), p.n_steps());
        assert_eq!(again.fusion_stats(), p.fusion_stats());
        assert_eq!(
            crate::disasm::disasm_decoded(&again, &sse()),
            crate::disasm::disasm_decoded(&p, &sse())
        );
    }

    #[test]
    fn reduce_lanes_depend_on_target() {
        let code = MCode {
            insts: vec![
                MInst::Splat {
                    ty: ScalarTy::I16,
                    dst: VReg(0),
                    src: SReg(0),
                },
                MInst::VReduce {
                    op: crate::isa::ReduceOp::Plus,
                    ty: ScalarTy::I16,
                    dst: SReg(0),
                    src: VReg(0),
                },
            ],
            n_sregs: 1,
            n_vregs: 1,
            note: String::new(),
        };
        // A reduction costs one step per halving of its i16 lane count at
        // the machine's width: 16 bytes hold 8 lanes (3 steps), 32 bytes
        // 16 (4), 256 bytes 128 (7). The decode holds only the
        // width-independent part, so one VLA decode serves every VL.
        let fam = crate::target::sve();
        for (decode_t, t, steps) in [
            (sse(), sse(), 3),
            (altivec(), altivec(), 3),
            (avx(), avx(), 4),
            (fam.clone(), fam.at_vl(128), 3),
            (fam.clone(), fam.at_vl(2048), 7),
        ] {
            let p = DecodedProgram::decode(&code, &decode_t).unwrap();
            assert_eq!(p.steps()[1].cost, u64::from(t.cost.vlane), "{}", t.name);
            let mut m = crate::machine::Machine::new(&t, 1024);
            m.set_sreg(SReg(0), Value::Int(1));
            let want = 2 * t.cost.vlane + t.cost.vreduce_step * steps;
            let got = m.run_decoded(&p).unwrap().cycles;
            assert_eq!(got, u64::from(want), "{} VS={}", t.name, t.vs);
        }
    }

    #[test]
    fn undefined_label_is_rejected_at_decode_time() {
        let code = MCode {
            insts: vec![MInst::Jump(Label(9))],
            n_sregs: 0,
            n_vregs: 0,
            note: String::new(),
        };
        let err = DecodedProgram::decode(&code, &sse()).unwrap_err();
        assert!(err.0.contains("undefined label"), "{err}");
    }

    #[test]
    fn predicated_vector_ops_get_fast_kernels() {
        // VBinVl/VUnVl must decode to the merging-predicated fast
        // kernels, not fall back to the generic Op path.
        let code = MCode {
            insts: vec![
                MInst::VBinVl {
                    op: BinOp::Add,
                    ty: ScalarTy::I32,
                    dst: VReg(0),
                    a: VReg(1),
                    b: VReg(2),
                },
                MInst::VUnVl {
                    op: vapor_ir::UnOp::Neg,
                    ty: ScalarTy::F64,
                    dst: VReg(0),
                    a: VReg(1),
                },
            ],
            n_sregs: 0,
            n_vregs: 3,
            note: String::new(),
        };
        let t = crate::target::sve().at_vl(512); // 64-byte registers
        let p = DecodedProgram::decode(&code, &t).unwrap();
        match &p.steps()[0].step {
            DStep::VBinVlFast { op, ty, .. } => {
                assert_eq!((*op, *ty), (BinOp::Add, ScalarTy::I32));
            }
            s => panic!("expected VBinVlFast, got {s:?}"),
        }
        match &p.steps()[1].step {
            DStep::VUnVlFast { ty, .. } => assert_eq!(*ty, ScalarTy::F64),
            s => panic!("expected VUnVlFast, got {s:?}"),
        }
        let text = crate::disasm::disasm_decoded(&p, &t);
        assert!(text.contains("vl.fast.int v1, v2 ; vl<=16"), "{text}");
        assert!(text.contains("vl.fast.double v1 ; vl<=8"), "{text}");
    }

    #[test]
    fn hot_scalar_and_memory_ops_get_fast_steps() {
        // The dispatch-dominant instructions must not take the generic
        // Op fallback: loads/stores decode to flattened-address steps,
        // scalar ALU ops to specialized kernels.
        let code = MCode {
            insts: vec![
                MInst::LoadV {
                    dst: VReg(0),
                    addr: AddrMode::fused(SReg(0), SReg(1), 4, 16),
                    align: MemAlign::Aligned,
                },
                MInst::StoreV {
                    src: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
                MInst::LoadS {
                    ty: ScalarTy::F32,
                    dst: SReg(2),
                    addr: AddrMode::base_disp(SReg(0), 4),
                },
                MInst::StoreS {
                    ty: ScalarTy::F32,
                    src: SReg(2),
                    addr: AddrMode::base_disp(SReg(0), 8),
                },
                MInst::SBin {
                    op: BinOp::Mul,
                    ty: ScalarTy::I64,
                    dst: SReg(3),
                    a: SReg(1),
                    b: SReg(2),
                },
                MInst::SBinImm {
                    op: BinOp::Add,
                    ty: ScalarTy::I64,
                    dst: SReg(1),
                    a: SReg(1),
                    imm: 1,
                },
                MInst::MovS {
                    dst: SReg(4),
                    src: SReg(3),
                },
                // Out-of-range displacement: must fall back, not decode
                // a truncated address.
                MInst::LoadS {
                    ty: ScalarTy::F32,
                    dst: SReg(2),
                    addr: AddrMode::base_disp(SReg(0), i64::from(i32::MAX) + 1),
                },
            ],
            n_sregs: 5,
            n_vregs: 1,
            note: String::new(),
        };
        let p = DecodedProgram::decode(&code, &sse()).unwrap();
        assert!(matches!(
            p.steps()[0].step,
            DStep::LoadVFast {
                aligned: true,
                idx: 1,
                scale: 4,
                disp: 16,
                ..
            }
        ));
        assert!(matches!(
            p.steps()[1].step,
            DStep::StoreVFast {
                aligned: false,
                idx: super::NO_INDEX,
                ..
            }
        ));
        assert!(matches!(p.steps()[2].step, DStep::LoadSFast { .. }));
        assert!(matches!(p.steps()[3].step, DStep::StoreSFast { .. }));
        assert!(matches!(
            p.steps()[4].step,
            DStep::SBinFast {
                ty: ScalarTy::I64,
                rty: ScalarTy::I64,
                ..
            }
        ));
        assert!(matches!(
            p.steps()[5].step,
            DStep::SBinImmFast { imm: 1, .. }
        ));
        assert!(matches!(p.steps()[6].step, DStep::MovSFast { .. }));
        assert!(matches!(p.steps()[7].step, DStep::Op(MInst::LoadS { .. })));
        // Comparisons resolve their I32 result type at decode time.
        let cmp = MCode {
            insts: vec![MInst::SBin {
                op: BinOp::CmpLt,
                ty: ScalarTy::F64,
                dst: SReg(0),
                a: SReg(1),
                b: SReg(2),
            }],
            n_sregs: 3,
            n_vregs: 0,
            note: String::new(),
        };
        let p = DecodedProgram::decode(&cmp, &sse()).unwrap();
        assert!(matches!(
            p.steps()[0].step,
            DStep::SBinFast {
                ty: ScalarTy::F64,
                rty: ScalarTy::I32,
                ..
            }
        ));
    }

    #[test]
    fn respecialize_rejects_mismatched_code() {
        let code = MCode {
            insts: vec![MInst::MovImmI {
                dst: SReg(0),
                imm: 0,
            }],
            n_sregs: 1,
            n_vregs: 0,
            note: String::new(),
        };
        let p = DecodedProgram::decode(&code, &crate::target::sve()).unwrap();
        let longer = MCode {
            insts: vec![
                MInst::MovImmI {
                    dst: SReg(0),
                    imm: 0,
                },
                MInst::MovImmI {
                    dst: SReg(1),
                    imm: 1,
                },
            ],
            n_sregs: 2,
            n_vregs: 0,
            note: String::new(),
        };
        let err = p
            .respecialize(&longer, &crate::target::sve().at_vl(256))
            .unwrap_err();
        assert!(err.0.contains("longer"), "{err}");
        let empty = MCode {
            insts: vec![],
            n_sregs: 0,
            n_vregs: 0,
            note: String::new(),
        };
        let err = p
            .respecialize(&empty, &crate::target::sve().at_vl(256))
            .unwrap_err();
        assert!(err.0.contains("shorter"), "{err}");
    }

    #[test]
    fn duplicate_label_is_rejected_at_decode_time() {
        // `MCode` is freely constructible, so malformed programs must
        // come back as `Err`, not abort the process.
        let code = MCode {
            insts: vec![MInst::Label(Label(0)), MInst::Label(Label(0))],
            n_sregs: 0,
            n_vregs: 0,
            note: String::new(),
        };
        let err = DecodedProgram::decode(&code, &sse()).unwrap_err();
        assert!(err.0.contains("defined twice"), "{err}");
        // Nor may a label id size the dense label table.
        let code = MCode {
            insts: vec![MInst::Label(Label(u32::MAX))],
            ..code
        };
        let err = DecodedProgram::decode(&code, &sse()).unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
    }
}
