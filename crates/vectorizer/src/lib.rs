//! # vapor-vectorizer — the offline compilation stage
//!
//! GCC's role in the paper: an aggressive auto-vectorizer that runs
//! *offline*, performs the heavyweight analyses (§II) — dependence
//! testing, reduction and idiom recognition, alignment analysis, loop
//! selection — and encodes its decisions into the portable vectorized
//! bytecode of `vapor-bytecode`, parameterized by `get_VF` and guarded by
//! `version_guard`/`loop_bound` hints so a lightweight online stage can
//! finish the job on any SIMD target (§III-B).
//!
//! Run in **split mode** (no target) it produces the portable bytecode of
//! the paper's contribution; run in **native mode** (target known) it
//! models the monolithic offline compiler used as the baseline.

#![forbid(unsafe_code)]

pub mod affine;
pub mod depgraph;
pub mod scalar_emit;
pub mod slp;
pub mod transform;

pub use affine::{analyze, Affine, Coeff};
pub use depgraph::{classify_dep, DepClass, DepGraph, RejectCategory, Rejection, Scc};
pub use scalar_emit::{emit_scalar_function, new_function, ScalarEmitter};
pub use transform::{
    vectorize, Feature, LoopReport, PartReport, VectorizeOptions, VectorizeResult,
};
