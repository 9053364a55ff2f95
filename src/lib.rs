//! # vapor — Vapor SIMD: auto-vectorize once, run everywhere
//!
//! Facade crate re-exporting the whole reproduction. See the individual
//! crates for the subsystems:
//!
//! * [`vapor_ir`] — scalar kernel IR + reference interpreter (oracle);
//! * [`vapor_frontend`] — mini-C kernel language;
//! * [`vapor_vectorizer`] — the offline auto-vectorization stage;
//! * [`vapor_bytecode`] — the portable split layer (paper Table 1);
//! * [`vapor_jit`] — the online compilers (naive JIT / optimizing / native);
//! * [`vapor_targets`] — simulated SSE/AltiVec/NEON/AVX machines;
//! * [`vapor_kernels`] — the benchmark suite (Table 2 + Polybench);
//! * [`vapor_core`] — end-to-end pipelines and the execution harness.

#![forbid(unsafe_code)]

pub use vapor_bytecode as bytecode;
pub use vapor_core as core;
pub use vapor_frontend as frontend;
pub use vapor_ir as ir;
pub use vapor_jit as jit;
pub use vapor_kernels as kernels;
pub use vapor_targets as targets;
pub use vapor_vectorizer as vectorizer;
