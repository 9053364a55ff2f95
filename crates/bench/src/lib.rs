//! # vapor-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation (§V).
//! Runtime numbers are deterministic VM cycle counts from the target
//! cost models; bytecode sizes are real encoded bytes; compile times are
//! real wall-clock measurements of the online stage.
//!
//! The `report` binary prints the paper-style rows; the criterion benches
//! under `benches/` wrap the same computations for `cargo bench`.

use std::collections::BTreeMap;

use vapor_core::{CompileConfig, ExecRequest, Flow};

pub use vapor_core::{CompileJob, Engine};
use vapor_ir::Kernel;
use vapor_kernels::{suite, KernelSpec, Scale, SuiteKind};
use vapor_targets::{altivec, avx, neon64, sse, TargetDesc, TargetKind, VLA_TEST_BITS};

/// Cycle count of one kernel under one flow. Compilation goes through
/// `engine`, so regenerating several figures over the same suite
/// compiles each (kernel, flow, target, config) tuple once.
///
/// # Panics
/// Panics when compilation or execution fails — the correctness matrix
/// guarantees they cannot for suite kernels.
pub fn cycles(
    engine: &Engine,
    kernel: &Kernel,
    flow: Flow,
    target: &TargetDesc,
    env: &vapor_ir::Bindings,
    cfg: &CompileConfig,
) -> u64 {
    engine
        .execute(
            &ExecRequest::new(kernel, target, env)
                .flow(flow)
                .config(cfg.clone()),
        )
        .unwrap_or_else(|e| panic!("{} [{flow} on {}]: {e}", kernel.name, target.name))
        .stats
        .cycles
}

/// One row of Figure 5: normalized vectorization impact,
/// `(scalar/vector under the naive JIT) / (scalar/vector native)`.
#[derive(Debug, Clone)]
pub struct ImpactRow {
    /// Kernel name.
    pub name: String,
    /// JIT vectorization speedup (C/A).
    pub jit_speedup: f64,
    /// Native vectorization speedup (F/E).
    pub native_speedup: f64,
    /// Normalized impact (higher is better).
    pub impact: f64,
}

/// Figure 5 (a: SSE, b: AltiVec): Mono-class JIT vectorization impact.
/// Returns per-kernel rows, the Polybench average row, and the arithmetic
/// mean row — the same series the paper plots.
pub fn fig5(engine: &Engine, target: &TargetDesc, scale: Scale) -> Vec<ImpactRow> {
    let cfg = CompileConfig::default();
    let members = |s: &KernelSpec| match target.kind {
        TargetKind::Sse => s.fig5a,
        _ => s.fig5b,
    };
    let mut rows = Vec::new();
    let mut poly = Vec::new();
    for spec in suite() {
        let media = spec.suite == SuiteKind::Media;
        if media && !members(&spec) {
            continue;
        }
        let kernel = spec.kernel();
        let env = spec.env(scale);
        let a = cycles(engine, &kernel, Flow::SplitVectorNaive, target, &env, &cfg) as f64;
        let c = cycles(engine, &kernel, Flow::SplitScalarNaive, target, &env, &cfg) as f64;
        let e = cycles(engine, &kernel, Flow::NativeVector, target, &env, &cfg) as f64;
        let f = cycles(engine, &kernel, Flow::NativeScalar, target, &env, &cfg) as f64;
        let row = ImpactRow {
            name: spec.name.to_owned(),
            jit_speedup: c / a,
            native_speedup: f / e,
            impact: (c / a) / (f / e),
        };
        if media {
            rows.push(row);
        } else {
            poly.push(row.impact);
        }
    }
    if !poly.is_empty() {
        let avg = poly.iter().sum::<f64>() / poly.len() as f64;
        rows.push(ImpactRow {
            name: "polybench_avg".into(),
            jit_speedup: f64::NAN,
            native_speedup: f64::NAN,
            impact: avg,
        });
    }
    let mean = rows.iter().map(|r| r.impact).sum::<f64>() / rows.len() as f64;
    rows.push(ImpactRow {
        name: "Arith. Mean".into(),
        jit_speedup: f64::NAN,
        native_speedup: f64::NAN,
        impact: mean,
    });
    rows
}

/// One row of Figure 6: split/native normalized execution time.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Kernel name.
    pub name: String,
    /// Split (optimizing online) cycles.
    pub split: u64,
    /// Native cycles.
    pub native: u64,
    /// `split / native` (lower is better).
    pub ratio: f64,
}

/// Figure 6 (a: SSE, b: AltiVec, c: NEON): split-vectorized execution
/// time normalized to native-vectorized, all 32 kernels + harmonic mean.
pub fn fig6(engine: &Engine, target: &TargetDesc, scale: Scale) -> Vec<RatioRow> {
    let cfg = CompileConfig::default();
    let mut rows = Vec::new();
    for spec in suite() {
        let kernel = spec.kernel();
        let env = spec.env(scale);
        let d = cycles(engine, &kernel, Flow::SplitVectorOpt, target, &env, &cfg);
        let e = cycles(engine, &kernel, Flow::NativeVector, target, &env, &cfg);
        rows.push(RatioRow {
            name: spec.name.to_owned(),
            split: d,
            native: e,
            ratio: d as f64 / e as f64,
        });
    }
    let hmean = rows.len() as f64 / rows.iter().map(|r| 1.0 / r.ratio).sum::<f64>();
    rows.push(RatioRow {
        name: "Har. Mean".into(),
        split: 0,
        native: 0,
        ratio: hmean,
    });
    rows
}

/// One row of Table 3: static cycles/iteration on AVX.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Kernel name.
    pub name: String,
    /// Native flow cycles per vector-loop iteration.
    pub native: u32,
    /// Split flow cycles per vector-loop iteration.
    pub split: u32,
    /// Functional validation on the emulated AVX machine (the SDE role).
    pub validated: bool,
}

/// Table 3: IACA-style throughput analysis of the vectorized inner loop
/// on the 256-bit AVX target, native vs split, plus SDE-style execution
/// validation.
pub fn table3(engine: &Engine, scale: Scale) -> Vec<Table3Row> {
    let target = avx();
    let cfg = CompileConfig::default();
    let mut rows = Vec::new();
    for spec in suite().into_iter().filter(|s| s.table3) {
        let kernel = spec.kernel();
        let env = spec.env(scale);
        let analyze = |flow: Flow| {
            let c = engine.compile(&kernel, flow, &target, &cfg).unwrap();
            vapor_targets::analyze_inner_loop(&c.jit.code, &target.ports)
                .map(|t| t.cycles_per_iter)
                .unwrap_or(0)
        };
        let native = analyze(Flow::NativeVector);
        let split = analyze(Flow::SplitVectorOpt);
        // SDE role: run both flows on the emulated machine and compare to
        // the oracle.
        let oracle = vapor_core::reference(&kernel, &env).unwrap();
        let mut validated = true;
        for flow in [Flow::NativeVector, Flow::SplitVectorOpt] {
            let r = engine
                .execute(&ExecRequest::new(&kernel, &target, &env).flow(flow))
                .unwrap();
            for (name, expected) in oracle.arrays() {
                if vapor_core::arrays_match(expected, r.out.array(name).unwrap(), 2e-4).is_err() {
                    validated = false;
                }
            }
        }
        rows.push(Table3Row {
            name: spec.name.to_owned(),
            native,
            split,
            validated,
        });
    }
    rows
}

/// One row of the §V-A(b) ablation: degradation from disabling the
/// offline alignment optimizations and hints.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Kernel name.
    pub name: String,
    /// Target name.
    pub target: String,
    /// Cycles with alignment optimizations.
    pub with_opts: u64,
    /// Cycles with them disabled.
    pub without_opts: u64,
    /// Degradation factor (≥ 1 expected).
    pub degradation: f64,
}

/// §V-A(b): re-run the Mono-class experiment with alignment
/// optimizations/hints disabled; the paper reports an average 2.5×
/// degradation, with AltiVec falling back to scalar code.
pub fn ablation(engine: &Engine, scale: Scale) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for target in [sse(), altivec()] {
        for spec in suite().into_iter().filter(|s| s.expect_vectorized) {
            let kernel = spec.kernel();
            let env = spec.env(scale);
            let with_opts = cycles(
                engine,
                &kernel,
                Flow::SplitVectorNaive,
                &target,
                &env,
                &CompileConfig::default(),
            );
            let without = cycles(
                engine,
                &kernel,
                Flow::SplitVectorNaive,
                &target,
                &env,
                &CompileConfig {
                    no_alignment_opts: true,
                    ..Default::default()
                },
            );
            rows.push(AblationRow {
                name: spec.name.to_owned(),
                target: target.name.to_owned(),
                with_opts,
                without_opts: without,
                degradation: without as f64 / with_opts as f64,
            });
        }
    }
    rows
}

/// One row of the §V-A(c) size/compile-time experiment.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Kernel name.
    pub name: String,
    /// Scalar bytecode bytes.
    pub scalar_bytes: usize,
    /// Vectorized bytecode bytes.
    pub vector_bytes: usize,
    /// Scalar online-compile time (µs).
    pub scalar_us: f64,
    /// Vectorized online-compile time (µs).
    pub vector_us: f64,
}

/// §V-A(c): bytecode size increase (~5× in the paper) and JIT compile
/// time increase (~4.85×/5.37×), measured on real encoded bytes and real
/// wall-clock online compilation.
pub fn size_and_time(target: &TargetDesc) -> Vec<SizeRow> {
    let cfg = CompileConfig::default();
    let mut rows = Vec::new();
    for spec in suite() {
        let kernel = spec.kernel();
        // Best-of-5 wall times to de-noise. Deliberately uncached: this
        // experiment measures the real online stage, which a cache hit
        // would collapse to a map lookup.
        let timed = |flow: Flow| {
            let mut best = f64::INFINITY;
            let mut bytes = 0;
            for _ in 0..5 {
                let c = vapor_core::compile(&kernel, flow, target, &cfg).unwrap();
                best = best.min(c.online_time.as_secs_f64() * 1e6);
                bytes = c.bytecode_bytes;
            }
            (bytes, best)
        };
        let (scalar_bytes, scalar_us) = timed(Flow::SplitScalarNaive);
        let (vector_bytes, vector_us) = timed(Flow::SplitVectorNaive);
        rows.push(SizeRow {
            name: spec.name.to_owned(),
            scalar_bytes,
            vector_bytes,
            scalar_us,
            vector_us,
        });
    }
    rows
}

/// Cycle count of one kernel under one flow on a VLA target at a
/// concrete runtime vector length: the compile is cached VL-agnostically
/// and the execution specialization is what carries `vl_bits`.
///
/// # Panics
/// Panics when compilation or execution fails (suite kernels cannot).
pub fn cycles_at_vl(
    engine: &Engine,
    kernel: &Kernel,
    flow: Flow,
    family: &TargetDesc,
    vl_bits: usize,
    env: &vapor_ir::Bindings,
    cfg: &CompileConfig,
) -> u64 {
    engine
        .execute(
            &ExecRequest::new(kernel, family, env)
                .flow(flow)
                .config(cfg.clone())
                .vl_bits(vl_bits),
        )
        .unwrap_or_else(|e| {
            panic!(
                "{} [{flow} on {} @VL={vl_bits}]: {e}",
                kernel.name, family.name
            )
        })
        .stats
        .cycles
}

/// One row of the VLA gains table: scalar cycles on the family core and
/// the vectorized cycles (plus speedup) at every tested runtime VL.
#[derive(Debug, Clone)]
pub struct VlaGainRow {
    /// Kernel name.
    pub name: String,
    /// Scalar-flow cycles (the normalization baseline; VL-independent).
    pub scalar: u64,
    /// `(vl_bits, vector cycles, scalar/vector gain)` per tested VL.
    pub per_vl: Vec<(usize, u64, f64)>,
}

/// The Figure-4-style gains table for one VLA family: one VL-agnostic
/// compiled artifact per kernel, executed at every VL in
/// [`VLA_TEST_BITS`], normalized to the scalar flow on the same core.
/// Groups the VLA backend declines (half-based sub-vector idioms) run
/// scalar and report a gain of ~1 — the honest analogue of the paper's
/// immature-backend rows.
pub fn vla_gains(engine: &Engine, family: &TargetDesc, scale: Scale) -> Vec<VlaGainRow> {
    assert!(family.vla, "{} is not a VLA family", family.name);
    let cfg = CompileConfig::default();
    let mut rows = Vec::new();
    for spec in suite() {
        let kernel = spec.kernel();
        let env = spec.env(scale);
        // Scalar baseline: the same optimizing online pipeline with the
        // vectorizer off. Scalar code has no width dependence; run it at
        // the family minimum.
        let scalar = cycles_at_vl(
            engine,
            &kernel,
            Flow::SplitScalarOpt,
            family,
            VLA_TEST_BITS[0],
            &env,
            &cfg,
        );
        let per_vl = VLA_TEST_BITS
            .iter()
            .map(|&vl| {
                let c = cycles_at_vl(
                    engine,
                    &kernel,
                    Flow::SplitVectorOpt,
                    family,
                    vl,
                    &env,
                    &cfg,
                );
                (vl, c, scalar as f64 / c as f64)
            })
            .collect();
        rows.push(VlaGainRow {
            name: spec.name.to_owned(),
            scalar,
            per_vl,
        });
    }
    rows
}

/// Geometric-mean helper for summary lines.
pub fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in vals {
        if v.is_finite() && v > 0.0 {
            sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// Render rows as an aligned text table.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

/// The §V-A(c) summary: (geomean size ratio, geomean time ratio).
pub fn size_time_summary(rows: &[SizeRow]) -> (f64, f64) {
    let size = geomean(
        rows.iter()
            .map(|r| r.vector_bytes as f64 / r.scalar_bytes as f64),
    );
    let time = geomean(rows.iter().map(|r| r.vector_us / r.scalar_us));
    (size, time)
}

/// Every Figure-6 target.
pub fn fig6_targets() -> Vec<TargetDesc> {
    vec![sse(), altivec(), neon64()]
}

/// Ablation of the §III-A design choice: the offline compiler emits
/// *optimized* realignment (cross-iteration reuse of the previous
/// aligned load) rather than per-access realignment. Only matters on
/// explicit-realignment targets (AltiVec); returns (kernel, reuse
/// cycles, no-reuse cycles, slowdown-without-reuse).
pub fn realign_reuse_ablation(engine: &Engine, scale: Scale) -> Vec<AblationRow> {
    let target = altivec();
    let mut rows = Vec::new();
    for name in ["sfir_s16", "sfir_fp", "convolve_s32", "jacobi_fp"] {
        let spec = suite().into_iter().find(|s| s.name == name).unwrap();
        let kernel = spec.kernel();
        let env = spec.env(scale);
        let with_reuse = cycles(
            engine,
            &kernel,
            Flow::SplitVectorOpt,
            &target,
            &env,
            &CompileConfig::default(),
        );
        let without = cycles(
            engine,
            &kernel,
            Flow::SplitVectorOpt,
            &target,
            &env,
            &CompileConfig {
                no_realign_reuse: true,
                ..Default::default()
            },
        );
        rows.push(AblationRow {
            name: name.to_owned(),
            target: target.name.to_owned(),
            with_opts: with_reuse,
            without_opts: without,
            degradation: without as f64 / with_reuse as f64,
        });
    }
    rows
}

/// Named outliers the paper calls out, for the shape assertions in tests
/// and EXPERIMENTS.md.
pub fn named_outliers(rows: &[RatioRow]) -> BTreeMap<String, f64> {
    rows.iter()
        .filter(|r| {
            [
                "sad_s8",
                "mix_streams_s16",
                "dissolve_s8",
                "dct_s32fp",
                "dscal_dp",
                "saxpy_dp",
            ]
            .contains(&r.name.as_str())
        })
        .map(|r| (r.name.clone(), r.ratio))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shapes_at_test_scale() {
        let rows = fig5(&Engine::new(), &sse(), Scale::Test);
        assert!(rows.iter().any(|r| r.name == "Arith. Mean"));
        assert!(rows.iter().any(|r| r.name == "polybench_avg"));
        for r in &rows {
            assert!(
                r.impact.is_finite() && r.impact > 0.0,
                "{}: {}",
                r.name,
                r.impact
            );
        }
    }

    #[test]
    fn table3_split_never_beats_native() {
        for row in table3(&Engine::new(), Scale::Test) {
            assert!(row.validated, "{} failed SDE validation", row.name);
            assert!(
                row.split >= row.native,
                "{}: split {} < native {}",
                row.name,
                row.split,
                row.native
            );
        }
    }

    #[test]
    fn ablation_degrades() {
        let rows = ablation(&Engine::new(), Scale::Test);
        let mean = geomean(rows.iter().map(|r| r.degradation));
        assert!(mean > 1.2, "alignment ablation should hurt, got {mean:.2}");
    }

    #[test]
    fn optimized_realignment_pays_off_on_altivec() {
        // Paper-scale trip counts: the reuse scheme amortizes its setup.
        // (At toy sizes the setup dominates, which is exactly why §III-A
        // leaves this decision to the *offline* cost model.)
        let rows = realign_reuse_ablation(&Engine::new(), Scale::Full);
        for r in &rows {
            assert!(
                r.degradation >= 0.95,
                "{}: reuse much slower? {:.2}",
                r.name,
                r.degradation
            );
        }
        assert!(
            rows.iter().any(|r| r.degradation > 1.02),
            "reuse should save realignment work: {rows:?}"
        );
    }

    #[test]
    fn vla_gains_never_regress_with_wider_vectors() {
        let engine = Engine::new();
        for family in [vapor_targets::sve(), vapor_targets::rvv()] {
            let rows = vla_gains(&engine, &family, Scale::Test);
            assert_eq!(rows.len(), 32);
            for r in &rows {
                let first = r.per_vl.first().unwrap();
                let last = r.per_vl.last().unwrap();
                assert!(
                    last.1 <= first.1,
                    "{} on {}: VL=2048 ({} cycles) slower than VL=128 ({})",
                    r.name,
                    family.name,
                    last.1,
                    first.1
                );
            }
            // The clean streaming kernels must show real, growing gains.
            let saxpy = rows.iter().find(|r| r.name == "saxpy_fp").unwrap();
            assert!(saxpy.per_vl.last().unwrap().2 > saxpy.per_vl.first().unwrap().2);
            assert!(saxpy.per_vl.first().unwrap().2 > 1.5);
        }
    }

    #[test]
    fn bytecode_size_ratio_is_large() {
        let rows = size_and_time(&sse());
        let (size, _) = size_time_summary(&rows);
        assert!(
            size > 2.5,
            "vectorized bytecode should be much larger, got {size:.2}x"
        );
    }
}
