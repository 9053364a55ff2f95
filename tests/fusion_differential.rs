//! Superinstruction fusion differential tests: every suite kernel on
//! every target runs once through the fused decode (the production
//! path) and once through an unfused decode — machine state, cycles and
//! instruction counts must be bit-identical. Fusion is a pure
//! dispatch-layer optimization, so *any* observable difference is a
//! fusion bug.

use vapor_core::{arrays_match, AllocPolicy, CompileConfig, Engine, ExecRequest, Flow};
use vapor_ir::{Bindings, Kernel};
use vapor_kernels::{suite, Scale};
use vapor_targets::{avx, neon64, rvv, sse, sve, DecodedProgram, TargetDesc};

/// Run one request through the engine's fused decode and once more
/// through the reference — an unfused decode (one step per instruction)
/// of the same compilation, built here and run over the engine's
/// machine lifecycle — and require identical arrays and stats.
fn assert_fusion_is_invisible(
    engine: &Engine,
    kernel: &Kernel,
    target: &TargetDesc,
    env: &Bindings,
    flow: Flow,
    vl: usize,
    tag: &str,
) {
    let req = ExecRequest::new(kernel, target, env).flow(flow).vl_bits(vl);
    let fused = engine
        .execute(&req)
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let exec = if target.vla {
        target.at_vl(vl)
    } else {
        target.clone()
    };
    let prog = DecodedProgram::decode_unfused(&fused.compiled.jit.code, &exec)
        .unwrap_or_else(|e| panic!("{tag}: unfused decode: {e}"));
    assert_eq!(
        prog.fusion_stats().total(),
        0,
        "{tag}: reference is unfused"
    );
    let unfused = engine
        .run_compiled(&exec, &fused.compiled, env, AllocPolicy::Aligned, |m| {
            m.run_decoded(&prog)
        })
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    for (name, expected) in fused.out.arrays() {
        // Bit-exact: tolerance 0.
        arrays_match(expected, unfused.out.array(name).unwrap(), 0.0)
            .unwrap_or_else(|e| panic!("{tag}: array {name} diverged: {e}"));
    }
    assert_eq!(fused.stats, unfused.stats, "{tag}: cycles/insts diverged");
}

/// Fused vs unfused on every fixed-width target, both vector flows.
#[test]
fn fused_and_unfused_dispatch_agree_on_every_suite_kernel() {
    let engine = Engine::new();
    for spec in suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Test);
        for target in [sse(), neon64(), avx()] {
            for flow in [Flow::SplitVectorOpt, Flow::NativeVector] {
                let tag = format!("{} [{flow} on {}]", spec.name, target.name);
                let vl = target.vs * 8;
                assert_fusion_is_invisible(&engine, &kernel, &target, &env, flow, vl, &tag);
            }
        }
    }
}

/// The same differential on the runtime-VL families across the full VL
/// range: the fused side is the engine's per-VL re-specialization of
/// the fused decode, the unfused side a fresh unfused decode at the
/// concrete width.
#[test]
fn fused_and_unfused_dispatch_agree_at_every_runtime_vl() {
    let engine = Engine::new();
    for spec in suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Test);
        for family in [sve(), rvv()] {
            for vl in [128usize, 256, 512, 1024, 2048] {
                let tag = format!("{} [{} @VL={vl}]", spec.name, family.name);
                let flow = Flow::SplitVectorOpt;
                assert_fusion_is_invisible(&engine, &kernel, &family, &env, flow, vl, &tag);
            }
        }
    }
}

/// Re-specializing a fused decode to another VL must be exactly what a
/// fresh fused decode at that VL produces — the fusion decisions are
/// re-validated per VL through `respecialize` and must never drift.
#[test]
fn fused_respecialization_matches_fresh_fused_decode() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    for spec in suite() {
        let kernel = spec.kernel();
        let family = sve();
        let Ok(compiled) = engine.compile(&kernel, Flow::SplitVectorOpt, &family, &cfg) else {
            continue;
        };
        for vl in [128usize, 512, 2048] {
            let exec = family.at_vl(vl);
            let fresh = DecodedProgram::decode(&compiled.jit.code, &exec).unwrap();
            let respec = compiled
                .jit
                .decoded
                .respecialize(&compiled.jit.code, &exec)
                .unwrap();
            assert_eq!(respec.fusion_stats(), fresh.fusion_stats(), "{}", spec.name);
            assert_eq!(
                vapor_targets::disasm_decoded(&respec),
                vapor_targets::disasm_decoded(&fresh),
                "{} @VL={vl}",
                spec.name
            );
            for (a, b) in respec.steps().iter().zip(fresh.steps()) {
                assert_eq!((a.cost, a.lanes, a.arity), (b.cost, b.lanes, b.arity));
            }
        }
    }
}
