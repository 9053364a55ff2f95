//! Targeted assertions of the paper's qualitative claims — the "shape"
//! of the evaluation that must survive the simulation substitution —
//! read from the Full-scale rows of the cycle ledger, which
//! `tests/matrix.rs` checks against the IR interpreter cell by cell.

use vapor_bench::fig6;
use vapor_bench::ledger::{committed, Row, SCALARIZED_KERNELS};
use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::{find, suite};
use vapor_targets::{sse, TargetKind};

/// The Full-scale ledger row of one aligned cell.
fn full(name: &str, flow: Flow, target: TargetKind) -> &'static Row {
    committed()
        .full(name, target, flow, &CompileConfig::default())
        .unwrap_or_else(|| panic!("no Full-scale ledger row for {name} {flow} on {target:?}"))
}

fn full_cycles(name: &str, flow: Flow, target: TargetKind) -> u64 {
    full(name, flow, target).cycles
}

/// §V-B: "In mix-streams, the split-vectorized version is particularly
/// improved by the versioning … compared to the native compiler which
/// generates a misaligned version only."
#[test]
fn mix_streams_split_beats_native_on_sse() {
    let split = full_cycles("mix_streams_s16", Flow::SplitVectorOpt, TargetKind::Sse);
    let native = full_cycles("mix_streams_s16", Flow::NativeVector, TargetKind::Sse);
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
        let split = full(name, Flow::SplitVectorOpt, TargetKind::Neon64);
        let native = full_cycles(name, Flow::NativeVector, TargetKind::Neon64);
        let ratio = split.cycles as f64 / native as f64;
        assert!(
            ratio > 1.3,
            "{name}: expected library-fallback slowdown, got {ratio:.2}"
        );
        // The helper calls are really there.
        assert!(split.helpers > 0, "{name}: no helper calls emitted");
    }
}

/// §V-B: "dscal dp and saxpy dp are scalarized on AltiVec as it lacks
/// support for doubles. Scalarization hardly degrades performance."
#[test]
fn doubles_scalarize_on_altivec_with_small_cost() {
    for name in ["dscal_dp", "saxpy_dp"] {
        let split = full_cycles(name, Flow::SplitVectorOpt, TargetKind::Altivec);
        let native = full_cycles(name, Flow::NativeVector, TargetKind::Altivec);
        let ratio = split as f64 / native as f64;
        assert!(
            (0.9..1.3).contains(&ratio),
            "{name}: scalarization should hardly degrade performance, got {ratio:.2}"
        );
        // And it really is scalar: same flow on AltiVec vs vector on SSE.
        let sse_cycles = full_cycles(name, Flow::SplitVectorOpt, TargetKind::Sse);
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
    let t = TargetKind::ScalarOnly;
    for name in SCALARIZED_KERNELS {
        let split = full_cycles(name, Flow::SplitVectorOpt, t);
        let native = full_cycles(name, Flow::NativeScalar, t);
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
    let naive = full("mmm_fp", Flow::SplitVectorNaive, TargetKind::Altivec);
    let opt = full("mmm_fp", Flow::SplitVectorOpt, TargetKind::Altivec);
    let [_, runtime_guards] = naive.guards;
    assert!(runtime_guards > 0, "naive JIT must emit runtime guards");
    // The naive JIT folds fewer guards than it leaves at runtime checks
    // relative to the optimizing pipeline, which precomputes conditions
    // at entry (same counts, hoisted) — observable through cycles:
    let (rn, ro) = (naive.cycles, opt.cycles);
    assert!(
        rn > ro,
        "naive in-loop guard evaluation must cost cycles: {rn} vs {ro}"
    );
    assert!(naive.insts > opt.insts);
}

/// §V-A(c): JIT compilation times are "in the microsecond range".
#[test]
fn online_compile_times_are_microseconds() {
    let spec = find("saxpy_fp").unwrap();
    let kernel = spec.kernel();
    // A fresh engine is uncached: this asserts on the real online
    // stage's wall time.
    let c = Engine::new()
        .compile(
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
    // Emitted machine instructions per bytecode byte stay within a small
    // constant band across two orders of magnitude of kernel size.
    let ratios: Vec<f64> = suite()
        .iter()
        .map(|spec| {
            let r = full(spec.name, Flow::SplitVectorOpt, TargetKind::Sse);
            r.insts as f64 / r.bytes as f64
        })
        .collect();
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 12.0,
        "instruction/bytecode ratio varies too much: {min:.3}..{max:.3}"
    );
}

/// Allen–Kennedy distribution: the solvers the planner once rejected
/// whole vectorize their inner loops and, at paper scale, beat their own
/// scalar bytecode on the same target and online pipeline.
#[test]
fn distributed_solvers_beat_their_scalar_code() {
    for name in ["lu_fp", "ludcmp_fp"] {
        let vector = full_cycles(name, Flow::SplitVectorOpt, TargetKind::Sse);
        let scalar = full_cycles(name, Flow::SplitScalarOpt, TargetKind::Sse);
        assert!(
            vector < scalar,
            "{name}: vector {vector} >= scalar {scalar}"
        );
    }
}

/// Figure 6: split-vectorized code runs as fast as native-vectorized
/// code. The harmonic means of split/native over the 32 kernels stay
/// within ±0.03 of the values this reproduction reports: 1.00 on SSE,
/// 1.01 on AltiVec and 1.04 on NEON (the paper's NEON gap is its
/// immature backend, Figure 6c).
#[test]
fn figure6_harmonic_means_hold() {
    for (target, want) in [
        (TargetKind::Sse, 1.00),
        (TargetKind::Altivec, 1.01),
        (TargetKind::Neon64, 1.04),
    ] {
        let rows = fig6(target);
        let hmean = rows.last().expect("a summary row").ratio;
        assert!(
            (hmean - want).abs() <= 0.03,
            "{target:?}: Figure 6 harmonic mean {hmean:.3}, want {want:.2} ± 0.03"
        );
    }
}
