//! Compilation pipelines and their behavioral differences.
//!
//! Three code generators consume the same bytecode (paper Figure 4):
//!
//! * **NaiveJit** — the resource-constrained Mono-class JIT of §V-A:
//!   per-statement spill-everything register allocation, x87-style scalar
//!   floats on x86, head-tested loops, no constant folding across nested
//!   loops (version guards are re-evaluated where they appear), but it
//!   *owns allocation*, so base-alignment and no-alias guards fold.
//! * **OptJit** — the gcc4cli-class optimizing online compiler of §V-B:
//!   constant folding, bottom-tested loops, version-guard conditions
//!   precomputed once at function entry (LICM), fused addressing. It does
//!   not own allocation: alignment/alias guards become (cheap) runtime
//!   tests.
//! * **Native** — the monolithic offline baseline: like OptJit plus
//!   pointer-bump strength reduction, and it consumes *target-aware*
//!   bytecode (produced by the vectorizer with the target known).

use vapor_targets::{TargetDesc, TargetKind};

/// Which code generator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Mono-class resource-constrained JIT.
    NaiveJit,
    /// gcc4cli-class optimizing online compiler.
    OptJit,
    /// Monolithic native baseline code generator.
    Native,
}

/// Options controlling one compilation.
#[derive(Debug, Clone)]
pub struct JitOptions {
    /// The pipeline preset.
    pub pipeline: Pipeline,
}

impl JitOptions {
    /// Options for a pipeline with default knobs.
    pub fn new(pipeline: Pipeline) -> JitOptions {
        JitOptions { pipeline }
    }

    /// Whether scalar float arithmetic goes through the x87-style FPU
    /// (the Mono x86 artifact): the naive JIT on x86 targets.
    pub fn use_x87(&self, target: &TargetDesc) -> bool {
        self.pipeline == Pipeline::NaiveJit
            && matches!(target.kind, TargetKind::Sse | TargetKind::Avx)
    }

    /// Whether this pipeline owns runtime allocation (can fold
    /// base-alignment and no-alias guards to true).
    pub fn owns_memory(&self) -> bool {
        self.pipeline == Pipeline::NaiveJit
    }

    /// Whether the native `restrict`-style no-alias assumption applies.
    pub fn assumes_no_alias(&self) -> bool {
        self.pipeline == Pipeline::Native
    }

    /// Whether runtime guard conditions are precomputed once at function
    /// entry (cheap flag test at the version site) instead of being
    /// re-evaluated in place, and whether the MCode pass of
    /// `crate::opt` runs: dead-code elimination, loop-invariant code
    /// motion and local value numbering.
    pub fn hoists_guards(&self) -> bool {
        self.pipeline != Pipeline::NaiveJit
    }

    /// Whether constant operands are folded at compile time.
    pub fn folds_constants(&self) -> bool {
        self.pipeline != Pipeline::NaiveJit
    }

    /// Whether loops are bottom-tested (one branch per iteration).
    pub fn bottom_test_loops(&self) -> bool {
        self.pipeline != Pipeline::NaiveJit
    }

    /// Whether the spill-everything register rewrite runs.
    pub fn spills_everything(&self) -> bool {
        self.pipeline == Pipeline::NaiveJit
    }

    /// Whether pointer-bump strength reduction replaces indexed
    /// addressing inside loops (the native-codegen delta of §V-B).
    pub fn pointer_bump(&self) -> bool {
        self.pipeline == Pipeline::Native
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_targets::{altivec, sse};

    #[test]
    fn x87_defaults_to_naive_on_x86_only() {
        let sse_t = sse();
        let av = altivec();
        assert!(JitOptions::new(Pipeline::NaiveJit).use_x87(&sse_t));
        assert!(!JitOptions::new(Pipeline::NaiveJit).use_x87(&av));
        assert!(!JitOptions::new(Pipeline::OptJit).use_x87(&sse_t));
    }

    #[test]
    fn pipeline_behavior_matrix() {
        let naive = JitOptions::new(Pipeline::NaiveJit);
        let opt = JitOptions::new(Pipeline::OptJit);
        let native = JitOptions::new(Pipeline::Native);
        assert!(naive.owns_memory() && !opt.owns_memory() && !native.owns_memory());
        assert!(native.assumes_no_alias() && !opt.assumes_no_alias());
        assert!(opt.hoists_guards() && native.hoists_guards() && !naive.hoists_guards());
        assert!(native.pointer_bump() && !opt.pointer_bump());
        assert!(naive.spills_everything() && !opt.spills_everything());
    }
}
