//! Pin the online stage's §III-C translation strategies: the *shape* of
//! the machine code each target gets from the same portable bytecode.

use std::sync::OnceLock;

use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::find;
use vapor_targets::{altivec, neon64, scalar_only, sse, MInst, MemAlign};

/// One shared engine: several tests inspect the same (kernel, flow,
/// target) tuples, so they share compilations.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::new)
}

fn code_for(kernel_name: &str, flow: Flow, target: &vapor_targets::TargetDesc) -> Vec<MInst> {
    let spec = find(kernel_name).unwrap();
    engine()
        .compile(&spec.kernel(), flow, target, &CompileConfig::default())
        .unwrap()
        .jit
        .code
        .insts
        .clone()
}

fn sum_kernel() -> vapor_ir::Kernel {
    vapor_frontend::parse_kernel(
        "kernel sum(long n, float a[], float out[]) {
           float s;
           s = 0.0;
           for (long i = 0; i < n; i++) { s += a[i + 2]; }
           out[0] = s;
         }",
    )
    .unwrap()
}

/// §III-C(a): AltiVec translates `realign_load` to `vperm` fed by `lvsr`
/// and floor-aligned loads — Figure 2d.
#[test]
fn altivec_uses_explicit_realignment() {
    let c = engine()
        .compile(
            &sum_kernel(),
            Flow::SplitVectorOpt,
            &altivec(),
            &CompileConfig::default(),
        )
        .unwrap();
    let insts = &c.jit.code.insts;
    assert!(
        insts.iter().any(|i| matches!(i, MInst::VPerm { .. })),
        "no vperm"
    );
    assert!(
        insts.iter().any(|i| matches!(i, MInst::VPermCtrl { .. })),
        "no lvsr"
    );
    assert!(
        insts.iter().any(|i| matches!(i, MInst::LoadVFloor { .. })),
        "no floor loads"
    );
    // Aligned-only target: no misaligned vector access anywhere.
    assert!(!insts.iter().any(|i| matches!(
        i,
        MInst::LoadV {
            align: MemAlign::Unaligned,
            ..
        } | MInst::StoreV {
            align: MemAlign::Unaligned,
            ..
        }
    )));
}

/// §III-C(b): SSE translates the same bytecode with misaligned loads and
/// generates *no code* for `get_rt`/`align_load` — Figure 2c.
#[test]
fn sse_uses_implicit_realignment_and_drops_realign_idioms() {
    let c = engine()
        .compile(
            &sum_kernel(),
            Flow::SplitVectorOpt,
            &sse(),
            &CompileConfig::default(),
        )
        .unwrap();
    let insts = &c.jit.code.insts;
    assert!(
        insts.iter().any(|i| matches!(
            i,
            MInst::LoadV {
                align: MemAlign::Unaligned,
                ..
            }
        )),
        "no movdqu-class load"
    );
    assert!(
        !insts.iter().any(|i| matches!(i, MInst::VPerm { .. })),
        "vperm on SSE"
    );
    assert!(
        !insts.iter().any(|i| matches!(i, MInst::LoadVFloor { .. })),
        "align_load should expand to no code on SSE"
    );
    assert!(
        !insts.iter().any(|i| matches!(i, MInst::VPermCtrl { .. })),
        "get_rt should expand to no code on SSE"
    );
}

/// §III-C(d), Figure 3b: a target without SIMD gets clean scalar code —
/// no vector instructions, no helper calls.
#[test]
fn scalar_target_gets_pure_scalar_code() {
    for name in [
        "dscal_fp",
        "saxpy_fp",
        "dissolve_fp",
        "sfir_s16",
        "dissolve_s8",
    ] {
        let insts = code_for(name, Flow::SplitVectorOpt, &scalar_only());
        let vectorish = insts.iter().any(|i| {
            matches!(
                i,
                MInst::LoadV { .. }
                    | MInst::StoreV { .. }
                    | MInst::VBin { .. }
                    | MInst::VDotAcc { .. }
                    | MInst::VHelper { .. }
                    | MInst::VPerm { .. }
                    | MInst::Splat { .. }
            )
        });
        assert!(
            !vectorish,
            "{name}: vector instructions on the scalar-only target"
        );
    }
}

/// The Mono-class pipeline really spills everything and routes x86
/// scalar floats through the x87 stack; the optimizing pipeline does
/// neither.
#[test]
fn naive_pipeline_spills_and_uses_x87() {
    let naive = code_for("saxpy_fp", Flow::SplitScalarNaive, &sse());
    assert!(
        naive.iter().any(|i| matches!(i, MInst::SpillLd { .. })),
        "no reloads"
    );
    assert!(
        naive.iter().any(|i| matches!(i, MInst::FpuBin { .. })),
        "no x87 ops"
    );

    let opt = code_for("saxpy_fp", Flow::SplitScalarOpt, &sse());
    assert!(!opt
        .iter()
        .any(|i| matches!(i, MInst::SpillLd { .. } | MInst::FpuBin { .. })));

    // x87 is an x86 artifact: the naive pipeline on AltiVec has spills
    // but no FPU-stack traffic.
    let ppc = code_for("saxpy_fp", Flow::SplitScalarNaive, &altivec());
    assert!(ppc.iter().any(|i| matches!(i, MInst::SpillLd { .. })));
    assert!(!ppc.iter().any(|i| matches!(i, MInst::FpuBin { .. })));
}

/// Strided stores lower to `interleave` + two wide stores.
#[test]
fn interp_uses_interleave_stores() {
    let insts = code_for("interp_s16", Flow::SplitVectorOpt, &sse());
    assert!(insts.iter().any(|i| matches!(i, MInst::VInterleave { .. })));
}

/// The NEON backend expands widening multiplies via library helpers
/// (dissolve); AltiVec has the native instruction.
#[test]
fn widen_mult_helper_only_on_neon() {
    let neon = code_for("dissolve_s8", Flow::SplitVectorOpt, &neon64());
    assert!(
        neon.iter().any(|i| matches!(i, MInst::VHelper { .. })),
        "NEON should call helpers"
    );
    let av = code_for("dissolve_s8", Flow::SplitVectorOpt, &altivec());
    assert!(av.iter().any(|i| matches!(i, MInst::VWidenMul { .. })));
    assert!(!av.iter().any(|i| matches!(i, MInst::VHelper { .. })));
}

/// The dot-product idiom lowers to the `pmaddwd`-class instruction.
#[test]
fn sfir_uses_dot_product_instruction() {
    for t in [sse(), altivec(), neon64()] {
        let insts = code_for("sfir_s16", Flow::SplitVectorOpt, &t);
        assert!(
            insts.iter().any(|i| matches!(i, MInst::VDotAcc { .. })),
            "{}: no dot-product instruction",
            t.name
        );
    }
}

/// Guard accounting: the optimizing online flow must keep alignment/alias
/// conditions as (hoisted) runtime tests, while the memory-owning naive
/// JIT folds them.
#[test]
fn guard_resolution_matrix() {
    let spec = find("saxpy_fp").unwrap();
    let cfg = CompileConfig::default();
    let opt = engine()
        .compile(&spec.kernel(), Flow::SplitVectorOpt, &sse(), &cfg)
        .unwrap();
    assert!(
        opt.jit.stats.guards_runtime >= 1,
        "opt: {:?}",
        opt.jit.stats
    );
    let naive = engine()
        .compile(&spec.kernel(), Flow::SplitVectorNaive, &sse(), &cfg)
        .unwrap();
    assert!(
        naive.jit.stats.guards_folded >= 1,
        "naive: {:?}",
        naive.jit.stats
    );
    assert_eq!(
        naive.jit.stats.guards_runtime, 0,
        "naive: {:?}",
        naive.jit.stats
    );
}

/// AltiVec has no 64-bit elements: the `type_supported(double)` guard
/// folds to the scalar arm and no vector code remains.
#[test]
fn doubles_fold_to_scalar_arm_on_altivec() {
    let insts = code_for("saxpy_dp", Flow::SplitVectorOpt, &altivec());
    assert!(!insts
        .iter()
        .any(|i| matches!(i, MInst::LoadV { .. } | MInst::VBin { .. })));
    let sse_insts = code_for("saxpy_dp", Flow::SplitVectorOpt, &sse());
    assert!(sse_insts.iter().any(|i| matches!(i, MInst::VBin { .. })));
}

/// The online verdicts are kept: on AltiVec every scalarized group of the
/// suite carries the reasons it could not stay vector, and no vector
/// group carries any.
#[test]
fn scalarized_groups_keep_their_reasons_on_altivec() {
    let (mut with_reasons, mut scalarized) = (0, 0);
    for spec in vapor_kernels::suite() {
        let c = engine()
            .compile(
                &spec.kernel(),
                Flow::SplitVectorOpt,
                &altivec(),
                &CompileConfig::default(),
            )
            .unwrap();
        let s = &c.jit.stats;
        assert!(s.scalarized.iter().all(|(_, reasons)| !reasons.is_empty()));
        with_reasons += s.scalarized.len();
        scalarized += s.groups_direct_scalar + s.groups_tail_scalar;
    }
    assert!(scalarized > 0, "AltiVec scalarizes some suite groups");
    assert_eq!(with_reasons, scalarized);
}

/// Bytecode from disk is untrusted: a definition of a register the
/// function's register table does not hold is an error, not an index.
#[test]
fn out_of_range_definitions_are_rejected() {
    use vapor_bytecode::{BcFunction, BcStmt, Op, Operand, Reg};
    use vapor_jit::{JitOptions, Pipeline};
    let mut f = BcFunction::new("t", vec![], vec![]);
    f.body = vec![BcStmt::Def {
        dst: Reg(7),
        op: Op::Copy(Operand::ConstI(1)),
    }];
    for pipeline in [Pipeline::NaiveJit, Pipeline::OptJit, Pipeline::Native] {
        let err = vapor_jit::compile(&f, &sse(), &JitOptions::new(pipeline)).unwrap_err();
        assert!(err.0.contains("out-of-range register"), "{err}");
    }
}
