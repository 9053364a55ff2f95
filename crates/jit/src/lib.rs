//! # vapor-jit — the online compilation stage
//!
//! Lowers portable vectorized bytecode to target machine code
//! (§III-C of the paper): materializes `get_VF`, resolves `loop_bound`
//! and version guards, picks a realignment strategy per access from the
//! `mis`/`mod` hints (aligned / implicit `movdqu` / explicit
//! `lvsr`+`vperm`), scalarizes when the target lacks SIMD support, and
//! falls back to library helpers for idioms an immature backend cannot
//! expand (the paper's NEON `dissolve`/`dct` case).
//!
//! Three pipelines share the lowering ([`options::Pipeline`]): the
//! Mono-class naive JIT, the gcc4cli-class optimizing online compiler,
//! and the native baseline code generator.

#![forbid(unsafe_code)]

pub mod lower;
pub mod opt;
pub mod options;
pub mod plan;
pub mod spill;

pub use lower::{compile, CompileStats, CompiledKernel, JitError};
pub use options::{JitOptions, Pipeline};
pub use plan::{
    fold_guard, known_misalignment, plan_groups, Fold, GroupMode, GroupPlan, ScalarReason,
};
