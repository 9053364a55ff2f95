//! Superinstruction fusion differential tests: every suite kernel runs
//! once through the fused decode (the production path) and once through
//! an unfused decode and the baseline interpreter of the same
//! compilation (`tests/common`'s comparer) — machine state and cycles
//! must be bit-identical. Fusion is a pure dispatch-layer optimization,
//! so *any* observable difference is a fusion bug.

mod common;

use common::{check_suite, Form};
use vapor_core::{AllocPolicy, CompileConfig, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{avx, disasm_decoded, neon64, rvv, sse, sve, DecodedProgram};

const FORMS: [Form; 2] = [Form::Unfused, Form::Baseline];

/// Fused vs unfused on the fixed-width targets, both vector flows.
#[test]
fn fused_and_unfused_dispatch_agree_on_every_suite_kernel() {
    let engine = Engine::new();
    let fixed = [sse(), neon64(), avx()];
    let flows = [Flow::SplitVectorOpt, Flow::NativeVector];
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        &engine,
        &suite(),
        &fixed,
        &flows,
        &aligned,
        &FORMS,
        |_, _| {},
    );
}

/// The same differential on the runtime-VL families across the full VL
/// range: the fused side is the engine's per-VL re-specialization of
/// the fused decode, the unfused side a fresh unfused decode at the
/// concrete width.
#[test]
fn fused_and_unfused_dispatch_agree_at_every_runtime_vl() {
    let engine = Engine::new();
    let families = [sve(), rvv()];
    let flow = [Flow::SplitVectorOpt];
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        &engine,
        &suite(),
        &families,
        &flow,
        &aligned,
        &FORMS,
        |_, _| {},
    );
}

/// Re-specializing a fused decode to another VL must be exactly what a
/// fresh fused decode at that VL produces — the fusion decisions are
/// re-validated per VL through `respecialize` and must never drift.
#[test]
fn fused_respecialization_matches_fresh_fused_decode() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    let family = sve();
    for spec in suite() {
        let kernel = spec.kernel();
        let compiled = engine
            .compile(&kernel, Flow::SplitVectorOpt, &family, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for vl in [128, 512, 2048] {
            let exec = family.at_vl(vl);
            let fresh = DecodedProgram::decode(&compiled.jit.code, &exec).unwrap();
            let respec = compiled
                .jit
                .decoded
                .respecialize(&compiled.jit.code, &exec)
                .unwrap();
            let what = format!("{} @VL={vl}", spec.name);
            assert_eq!(respec.fusion_stats(), fresh.fusion_stats(), "{what}");
            assert_eq!(disasm_decoded(&respec), disasm_decoded(&fresh), "{what}");
            for (a, b) in respec.steps().iter().zip(fresh.steps()) {
                assert_eq!((a.cost, a.arity), (b.cost, b.arity), "{what}");
            }
        }
    }
}
