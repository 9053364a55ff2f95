//! # vapor-kernels — the benchmark suite
//!
//! Every kernel the paper evaluates (Table 2 + Polybench 1.0), written in
//! the mini-C kernel language, with deterministic input generators and a
//! registry recording figure membership and the vectorization features
//! each kernel must exercise.

#![forbid(unsafe_code)]

pub mod data;
pub mod media;
pub mod polybench;
pub mod suite;

pub use suite::{find, suite, KernelSpec, Scale, SuiteKind};
