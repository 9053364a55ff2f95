//! Targeted assertions of the paper's qualitative claims — the "shape"
//! of the evaluation that must survive the simulation substitution.

use std::sync::OnceLock;

use vapor_core::{CompileConfig, Engine, ExecRequest, Flow};
use vapor_jit::Pipeline;
use vapor_kernels::{find, Scale};
use vapor_targets::{altivec, neon64, scalar_only, sse};

/// One shared engine across every claim test: kernels recur between
/// claims, so later tests run on cache hits.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::new)
}

fn full_cycles(name: &str, flow: Flow, target: &vapor_targets::TargetDesc) -> u64 {
    let spec = find(name).unwrap();
    let kernel = spec.kernel();
    let env = spec.env(Scale::Full);
    engine()
        .execute(&ExecRequest::new(&kernel, target, &env).flow(flow))
        .unwrap()
        .stats
        .cycles
}

/// §V-B: "In mix-streams, the split-vectorized version is particularly
/// improved by the versioning … compared to the native compiler which
/// generates a misaligned version only."
#[test]
fn mix_streams_split_beats_native_on_sse() {
    let split = full_cycles("mix_streams_s16", Flow::SplitVectorOpt, &sse());
    let native = full_cycles("mix_streams_s16", Flow::NativeVector, &sse());
    let ratio = split as f64 / native as f64;
    assert!(
        ratio < 0.9,
        "expected split << native via alignment versioning, got {ratio:.2}"
    );
}

/// §V-B / Figure 6c: NEON's immature backend expands `widen_mult` and the
/// conversions via library calls; `dissolve` and `dct` degrade while the
/// native compiler keeps those loops scalar.
#[test]
fn neon_library_fallback_degrades_dissolve_and_dct() {
    for name in ["dissolve_s8", "dct_s32fp"] {
        let split = full_cycles(name, Flow::SplitVectorOpt, &neon64());
        let native = full_cycles(name, Flow::NativeVector, &neon64());
        let ratio = split as f64 / native as f64;
        assert!(
            ratio > 1.3,
            "{name}: expected library-fallback slowdown, got {ratio:.2}"
        );

        // The helper calls are really there.
        let spec = find(name).unwrap();
        let c = engine()
            .compile(
                &spec.kernel(),
                Flow::SplitVectorOpt,
                &neon64(),
                &CompileConfig::default(),
            )
            .unwrap();
        assert!(
            c.jit.stats.helper_calls > 0,
            "{name}: no helper calls emitted"
        );
    }
}

/// §V-B: "dscal dp and saxpy dp are scalarized on AltiVec as it lacks
/// support for doubles. Scalarization hardly degrades performance."
#[test]
fn doubles_scalarize_on_altivec_with_small_cost() {
    for name in ["dscal_dp", "saxpy_dp"] {
        let split = full_cycles(name, Flow::SplitVectorOpt, &altivec());
        let native = full_cycles(name, Flow::NativeVector, &altivec());
        let ratio = split as f64 / native as f64;
        assert!(
            (0.9..1.3).contains(&ratio),
            "{name}: scalarization should hardly degrade performance, got {ratio:.2}"
        );
        // And it really is scalar: same flow on AltiVec vs vector on SSE.
        let sse_cycles = full_cycles(name, Flow::SplitVectorOpt, &sse());
        assert!(
            split as f64 > 1.5 * sse_cycles as f64,
            "{name}: AltiVec result should be scalar-speed"
        );
    }
}

/// §III-C(d): scalarizing the vectorized bytecode for a non-SIMD target
/// is "lightweight, resulting in high-quality scalar code, without
/// introducing new overheads" — the split flow on the scalar-only target
/// stays close to natively compiled scalar code.
#[test]
fn scalarization_overhead_is_low() {
    let t = scalar_only();
    for name in [
        "dscal_fp",
        "saxpy_fp",
        "dissolve_fp",
        "sfir_fp",
        "convolve_s32",
    ] {
        let split = full_cycles(name, Flow::SplitVectorOpt, &t);
        let native = full_cycles(name, Flow::NativeScalar, &t);
        let overhead = split as f64 / native as f64;
        assert!(
            overhead < 1.25,
            "{name}: scalarization overhead {overhead:.2} exceeds 25%"
        );
    }
}

/// §V-A: the MMM alignment test "is not resolved at compile time and
/// executed in each iteration of the outer loop" under the naive JIT —
/// visible as runtime guards in the naive compile and a worse normalized
/// impact than under the optimizing pipeline.
#[test]
fn mmm_guard_resolution_differs_between_pipelines() {
    let spec = find("mmm_fp").unwrap();
    let kernel = spec.kernel();
    let cfg = CompileConfig::default();
    let naive = engine()
        .compile(&kernel, Flow::SplitVectorNaive, &altivec(), &cfg)
        .unwrap();
    let opt = engine()
        .compile(&kernel, Flow::SplitVectorOpt, &altivec(), &cfg)
        .unwrap();
    assert!(
        naive.jit.stats.guards_runtime > 0,
        "naive JIT must emit runtime guards"
    );
    // The naive JIT folds fewer guards than it leaves at runtime checks
    // relative to the optimizing pipeline, which precomputes conditions
    // at entry (same counts, hoisted) — observable through cycles:
    let env = spec.env(Scale::Full);
    let target = altivec();
    let req = ExecRequest::new(&kernel, &target, &env);
    let rn = engine()
        .execute(&req.clone().flow(Flow::SplitVectorNaive))
        .unwrap()
        .stats
        .cycles;
    let ro = engine()
        .execute(&req.flow(Flow::SplitVectorOpt))
        .unwrap()
        .stats
        .cycles;
    assert!(
        rn > ro,
        "naive in-loop guard evaluation must cost cycles: {rn} vs {ro}"
    );
    assert!(naive.jit.stats.insts > opt.jit.stats.insts);
    let _ = Pipeline::NaiveJit;
}

/// §V-A(c): JIT compilation times are "in the microsecond range".
#[test]
fn online_compile_times_are_microseconds() {
    let spec = find("saxpy_fp").unwrap();
    let kernel = spec.kernel();
    // Uncached: this asserts on the real online stage's wall time.
    let c = vapor_core::compile(
        &kernel,
        Flow::SplitVectorOpt,
        &sse(),
        &CompileConfig::default(),
    )
    .unwrap();
    assert!(
        c.online_time.as_millis() < 50,
        "online stage took {:?} — far beyond the µs range",
        c.online_time
    );
}

/// §III-A: "the split layer should facilitate a JIT vectorization whose
/// complexity is linear in the code size" — compile time scales roughly
/// with bytecode size across the suite (no quadratic blowups).
#[test]
fn online_stage_is_roughly_linear_in_bytecode_size() {
    let cfg = CompileConfig::default();
    let t = sse();
    let mut points = Vec::new();
    for spec in vapor_kernels::suite() {
        let kernel = spec.kernel();
        let c = engine()
            .compile(&kernel, Flow::SplitVectorOpt, &t, &cfg)
            .unwrap();
        points.push((c.bytecode_bytes as f64, c.jit.stats.insts as f64));
    }
    // Emitted machine instructions per bytecode byte stay within a small
    // constant band across two orders of magnitude of kernel size.
    let ratios: Vec<f64> = points.iter().map(|(b, i)| i / b).collect();
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 12.0,
        "instruction/bytecode ratio varies too much: {min:.3}..{max:.3}"
    );
}
