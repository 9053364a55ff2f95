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
//! * [`Machine`] — a functionally faithful executor with per-target
//!   cycle accounting (stands in for the physical boards and for the
//!   Intel SDE AVX emulator);
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
pub mod thread;

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
pub use thread::{disasm_threaded, Region, StreamDef, TAddr, TStep, ThreadedProgram};
