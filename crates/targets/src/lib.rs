//! # vapor-targets — simulated SIMD hardware
//!
//! The substrate the paper runs on: SSE, AltiVec, NEON and AVX machines,
//! plus a vector-length-agnostic SVE/RVV-class family whose lane count
//! is a *runtime* parameter (128–2048 bits, bound at execution
//! specialization via [`TargetDesc::at_vl`]). Since no such hardware is
//! available here, this crate implements each target as data + a
//! virtual machine:
//!
//! * [`TargetDesc`] — the ISA facts of §IV-A (vector size, alignment
//!   rules, supported element types and idioms), with its [`support`]
//!   table deciding per op class native / helper / unsupported;
//! * [`MInst`]/[`MCode`] — the "machine code" the online compiler emits;
//! * [`DecodedProgram`] — that code resolved once at load time (branch
//!   targets, costs, specialized and fused steps, basic blocks), the one
//!   form [`Machine::run_decoded`] executes at every VL of its [`Width`];
//! * [`Machine`] — a functionally faithful executor with per-target
//!   cycle accounting (stands in for the physical boards and for the
//!   Intel SDE AVX emulator). [`Machine::run`], the seed loop over the
//!   machine code itself, is kept as the reference the decoded loop is
//!   tested against;
//! * [`ports`] — a static loop-body throughput analyzer standing in for
//!   Intel IACA (Table 3).

#![forbid(unsafe_code)]

pub mod cost;
pub mod decode;
pub mod disasm;
pub mod isa;
pub mod machine;
pub mod ports;
pub mod support;
pub mod target;

pub use cost::{helper_name, CostModel};
pub use decode::{
    DStep, DecodedInst, DecodedProgram, FusedAddr, FusionStats, SBinFn, SplatFn, VBinFn, VReduceFn,
    VShiftFn, VUnFn, Width, NO_INDEX,
};
pub use disasm::{disasm, disasm_decoded, disasm_inst, disasm_step};
pub use isa::{
    Access, AddrMode, Cond, CvtDir, Half, HelperOp, Label, MCode, MInst, MemAlign, ReduceOp, SReg,
    ShiftSrc, VReg,
};
pub use machine::{reg_stride, ExecStats, Machine, Memory, Trap, GUARD, MAX_VS};
pub use ports::{analyze_body, analyze_inner_loop, PortModel, PortPressure, Throughput};
pub use support::{MisalignedAccess, OpSupport, Support};
pub use target::{
    altivec, avx, neon64, rvv, scalar_only, sse, sve, target, valid_vl, TargetDesc, TargetKind,
    VLA_MAX_BITS, VLA_MIN_BITS, VLA_TEST_BITS,
};

/// The names `benchmark/src/trace.rs` still calls from the
/// closure-threaded tier, which is gone: the decoded loop is the one
/// fast executor. It exists only for that replay, and goes when ROADMAP
/// item 1(a) stops calling it. [`ThreadedProgram::thread`] borrows the
/// decode, [`Machine::run_threaded`] runs it with
/// [`Machine::run_decoded`], its regions are the decode's basic blocks
/// and it has no address streams.
#[derive(Debug)]
pub struct ThreadedProgram<'p>(&'p DecodedProgram);

impl<'p> ThreadedProgram<'p> {
    /// `prog` itself; `code` is not read.
    pub fn thread(prog: &'p DecodedProgram, _code: &MCode) -> ThreadedProgram<'p> {
        ThreadedProgram(prog)
    }

    /// One index per basic block of the decode.
    pub fn regions(&self) -> std::ops::Range<usize> {
        0..self.0.blocks().len()
    }

    /// Empty: no address streams.
    pub fn streams(&self) -> std::ops::Range<usize> {
        0..0
    }
}

impl Machine<'_> {
    /// [`Machine::run_decoded`] of the wrapped decode.
    ///
    /// # Errors
    /// As [`Machine::run_decoded`].
    pub fn run_threaded(&mut self, prog: &ThreadedProgram<'_>) -> Result<ExecStats, Trap> {
        self.run_decoded(prog.0)
    }
}
