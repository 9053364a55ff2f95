//! # vapor-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation (§V).
//! Runtime numbers are deterministic VM cycle counts from the target
//! cost models, read from the committed cycle ledger ([`ledger`]), which
//! `tests/matrix.rs` checks against the IR interpreter cell by cell: the
//! figures execute nothing. Bytecode sizes are real encoded bytes;
//! compile times are real wall-clock measurements of the online stage.
//!
//! The `report` binary prints the paper-style rows.

#![forbid(unsafe_code)]

pub mod ledger;

use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::{suite, SuiteKind};
use vapor_targets::{TargetDesc, TargetKind};

use ledger::{committed, NO_ALIGNMENT_OPTS, NO_REALIGN_REUSE, REALIGN_KERNELS};

/// Full-scale cycles of one aligned kernel × target × flow cell at the
/// target's first VL.
///
/// # Panics
/// Panics when the ledger lacks the cell: [`ledger::paper_cells`] lists
/// every Full-scale cell the figures read.
fn full_cycles(kernel: &str, target: TargetKind, flow: Flow, cfg: &CompileConfig) -> u64 {
    let row = committed().full(kernel, target, flow, cfg);
    row.unwrap_or_else(|| panic!("no Full-scale ledger row for {kernel} {target:?} {flow} {cfg:?}"))
        .cycles
}

/// One row of Figure 5: normalized vectorization impact,
/// `(scalar/vector under the naive JIT) / (scalar/vector native)`.
#[derive(Debug, Clone)]
pub struct ImpactRow {
    /// Kernel name.
    pub name: String,
    /// JIT vectorization speedup (C/A); NaN on the summary rows.
    pub jit_speedup: f64,
    /// Native vectorization speedup (F/E); NaN on the summary rows.
    pub native_speedup: f64,
    /// Normalized impact (higher is better).
    pub impact: f64,
}

/// Figure 5 (a: SSE, b: AltiVec): Mono-class JIT vectorization impact.
/// Returns per-kernel rows, the Polybench average row, and the arithmetic
/// mean row — the same series the paper plots.
pub fn fig5(target: TargetKind) -> Vec<ImpactRow> {
    let cfg = CompileConfig::default();
    let summary = |name: &str, impact| ImpactRow {
        name: name.into(),
        jit_speedup: f64::NAN,
        native_speedup: f64::NAN,
        impact,
    };
    let (mut rows, mut poly) = (Vec::new(), Vec::new());
    for spec in suite() {
        let media = spec.suite == SuiteKind::Media;
        let member = match target {
            TargetKind::Sse => spec.fig5a,
            _ => spec.fig5b,
        };
        if media && !member {
            continue;
        }
        let cycles = |flow| full_cycles(spec.name, target, flow, &cfg) as f64;
        let (a, c) = (
            cycles(Flow::SplitVectorNaive),
            cycles(Flow::SplitScalarNaive),
        );
        let (e, f) = (cycles(Flow::NativeVector), cycles(Flow::NativeScalar));
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
        rows.push(summary("polybench_avg", avg));
    }
    let mean = rows.iter().map(|r| r.impact).sum::<f64>() / rows.len() as f64;
    rows.push(summary("Arith. Mean", mean));
    rows
}

/// One kernel's cycles on one target in two configurations and their
/// ratio: Figure 6 (split over native) and the ablations (without an
/// offline optimization over with it).
#[derive(Debug, Clone)]
pub struct CycleRatio {
    /// Kernel name, or the summary row's label.
    pub name: String,
    /// Target name.
    pub target: String,
    /// Cycles of native, or with the optimization (0 on a summary row).
    pub base: u64,
    /// Cycles of split, or without the optimization (0 on a summary row).
    pub variant: u64,
    /// `variant / base`.
    pub ratio: f64,
}

/// The cycles of `variant` over those of `base`, each a `(flow, config)`.
fn cycle_ratio(
    name: &str,
    target: TargetKind,
    (base_flow, base_cfg): (Flow, &CompileConfig),
    (variant_flow, variant_cfg): (Flow, &CompileConfig),
) -> CycleRatio {
    let base = full_cycles(name, target, base_flow, base_cfg);
    let variant = full_cycles(name, target, variant_flow, variant_cfg);
    CycleRatio {
        name: name.to_owned(),
        target: vapor_targets::target(target).name.to_owned(),
        base,
        variant,
        ratio: variant as f64 / base as f64,
    }
}

/// Figure 6 (a: SSE, b: AltiVec, c: NEON): split-vectorized execution
/// time normalized to native-vectorized, all 32 kernels + harmonic mean.
pub fn fig6(target: TargetKind) -> Vec<CycleRatio> {
    let cfg = &CompileConfig::default();
    let (native, split) = ((Flow::NativeVector, cfg), (Flow::SplitVectorOpt, cfg));
    let mut rows: Vec<CycleRatio> = suite()
        .iter()
        .map(|s| cycle_ratio(s.name, target, native, split))
        .collect();
    let hmean = rows.len() as f64 / rows.iter().map(|r| 1.0 / r.ratio).sum::<f64>();
    rows.push(CycleRatio {
        name: "Har. Mean".into(),
        target: vapor_targets::target(target).name.to_owned(),
        base: 0,
        variant: 0,
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
    /// Functional validation on the emulated AVX machine (the SDE role):
    /// both flows' cells are in the oracle-checked ledger.
    pub validated: bool,
}

/// Table 3: IACA-style throughput analysis of the vectorized inner loop
/// on the 256-bit AVX target, native vs split, plus SDE-style execution
/// validation.
pub fn table3(engine: &Engine) -> Vec<Table3Row> {
    let (target, cfg) = (vapor_targets::avx(), CompileConfig::default());
    let specs = suite().into_iter().filter(|s| s.table3);
    specs
        .map(|spec| {
            let kernel = spec.kernel();
            let analyze = |flow: Flow| {
                let c = engine
                    .compile(&kernel, flow, &target, &cfg)
                    .expect("suite kernels compile");
                vapor_targets::analyze_inner_loop(&c.jit.code, &target.ports)
                    .map(|t| t.cycles_per_iter)
                    .unwrap_or(0)
            };
            let in_ledger = |flow| {
                committed()
                    .full(spec.name, target.kind, flow, &cfg)
                    .is_some()
            };
            Table3Row {
                name: spec.name.to_owned(),
                native: analyze(Flow::NativeVector),
                split: analyze(Flow::SplitVectorOpt),
                validated: in_ledger(Flow::NativeVector) && in_ledger(Flow::SplitVectorOpt),
            }
        })
        .collect()
}

/// §V-A(b): re-run the Mono-class experiment with alignment
/// optimizations/hints disabled; the paper reports an average 2.5×
/// degradation, with AltiVec falling back to scalar code.
pub fn ablation() -> Vec<CycleRatio> {
    let specs = suite().into_iter().filter(|s| s.expect_vectorized);
    let names: Vec<&str> = specs.map(|s| s.name).collect();
    let with = (Flow::SplitVectorNaive, &CompileConfig::default());
    let without = (Flow::SplitVectorNaive, &NO_ALIGNMENT_OPTS);
    let targets = [TargetKind::Sse, TargetKind::Altivec].into_iter();
    targets
        .flat_map(|t| names.iter().map(move |n| cycle_ratio(n, t, with, without)))
        .collect()
}

/// Ablation of the §III-A design choice: the offline compiler emits
/// *optimized* realignment (cross-iteration reuse of the previous
/// aligned load) rather than per-access realignment. Only matters on
/// explicit-realignment targets (AltiVec).
pub fn realign_reuse_ablation() -> Vec<CycleRatio> {
    let with = (Flow::SplitVectorOpt, &CompileConfig::default());
    let without = (Flow::SplitVectorOpt, &NO_REALIGN_REUSE);
    let altivec = TargetKind::Altivec;
    let rows = REALIGN_KERNELS
        .iter()
        .map(|n| cycle_ratio(n, altivec, with, without));
    rows.collect()
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
        // Best-of-5 wall times to de-noise. Deliberately uncached (a fresh
        // engine per run): this experiment measures the real online
        // stage, which a cache hit would collapse to a map lookup.
        let timed = |flow: Flow| {
            let runs = (0..5).map(|_| {
                Engine::new()
                    .compile(&kernel, flow, target, &cfg)
                    .expect("suite kernels compile")
            });
            let runs: Vec<_> = runs.map(|c| (c.bytecode_bytes, c.online_time)).collect();
            let best = runs.iter().map(|(_, t)| t.as_secs_f64() * 1e6);
            (runs[0].0, best.fold(f64::INFINITY, f64::min))
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
/// compiled artifact per kernel, executed at every tested VL (the
/// aligned `[full]` rows), normalized to the scalar flow on the same
/// core. Groups the VLA backend declines (half-based sub-vector idioms)
/// run scalar and report a gain of ~1 — the honest analogue of the
/// paper's immature-backend rows.
pub fn vla_gains(family: TargetKind) -> Vec<VlaGainRow> {
    let cfg = CompileConfig::default();
    let full = committed().section("full");
    suite()
        .iter()
        .map(|spec| {
            // Scalar baseline: the same optimizing online pipeline with
            // the vectorizer off. Scalar code has no width dependence; it
            // runs at the family minimum.
            let scalar = full_cycles(spec.name, family, Flow::SplitScalarOpt, &cfg);
            let per_vl = full
                .iter()
                .filter(|r| r.kernel == spec.name && r.target == family && r.placement == "aligned")
                .map(|r| (r.vl, r.cycles, scalar as f64 / r.cycles as f64))
                .collect();
            let name = spec.name.to_owned();
            VlaGainRow {
                name,
                scalar,
                per_vl,
            }
        })
        .collect()
}

/// Geometric-mean helper for summary lines: the finite, positive values.
pub fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = vals
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(f64::ln)
        .collect();
    match logs.len() {
        0 => f64::NAN,
        n => (logs.iter().sum::<f64>() / n as f64).exp(),
    }
}

/// Render rows as an aligned text table.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut widths = vec![0; header.len()];
    for row in std::iter::once(&header).chain(rows) {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    let body: String = rows.iter().map(line).collect();
    format!("== {title} ==\n{}{rule}\n{body}", line(&header))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use vapor_targets::VLA_TEST_BITS;

    use super::*;

    #[test]
    fn fig5_shapes() {
        let rows = fig5(TargetKind::Sse);
        assert!(rows.iter().any(|r| r.name == "Arith. Mean"));
        assert!(rows.iter().any(|r| r.name == "polybench_avg"));
        for r in &rows {
            assert!(r.impact.is_finite() && r.impact > 0.0, "{r:?}");
        }
    }

    #[test]
    fn table3_split_never_beats_native() {
        for row in table3(&Engine::new()) {
            assert!(row.validated, "{} failed SDE validation", row.name);
            assert!(row.split >= row.native, "{row:?}: split < native");
        }
    }

    #[test]
    fn ablation_degrades() {
        let mean = geomean(ablation().iter().map(|r| r.ratio));
        assert!(mean > 1.2, "alignment ablation should hurt, got {mean:.2}");
    }

    #[test]
    fn optimized_realignment_pays_off_on_altivec() {
        // Paper-scale trip counts: the reuse scheme amortizes its setup.
        // (At toy sizes the setup dominates, which is exactly why §III-A
        // leaves this decision to the *offline* cost model.)
        let rows = realign_reuse_ablation();
        for r in &rows {
            assert!(r.ratio >= 0.95, "{r:?}: reuse much slower?");
        }
        let saves = rows.iter().any(|r| r.ratio > 1.02);
        assert!(saves, "reuse should save realignment work: {rows:?}");
    }

    #[test]
    fn vla_gains_never_regress_with_wider_vectors() {
        // One artifact's widest vectors never cost more than its
        // narrowest, in every flow. (Intermediate VLs need not be
        // monotone: a reduction pays log2(lanes) halving steps.)
        let at = |vl| -> HashMap<_, u64> {
            let test = committed().section("test").iter();
            test.filter(|r| matches!(r.target, TargetKind::Sve | TargetKind::Rvv) && r.vl == vl)
                .map(|r| ((r.kernel.as_str(), r.target, r.flow), r.cycles))
                .collect()
        };
        let (narrow, wide) = (at(VLA_TEST_BITS[0]), at(VLA_TEST_BITS[4]));
        assert_eq!(wide.len(), 32 * Flow::ALL.len() * 2);
        for (cell, cycles) in &wide {
            assert!(
                *cycles <= narrow[cell],
                "{cell:?}: VL=2048 costlier than VL=128"
            );
        }
        // The same at paper scale, and the clean streaming kernels show
        // real, growing gains.
        for family in [TargetKind::Sve, TargetKind::Rvv] {
            let rows = vla_gains(family);
            assert_eq!(rows.len(), 32);
            for r in &rows {
                let (first, last) = (r.per_vl[0], r.per_vl[r.per_vl.len() - 1]);
                assert!(
                    last.1 <= first.1,
                    "{r:?} on {family:?}: VL=2048 slower than VL=128"
                );
            }
            let saxpy = rows.iter().find(|r| r.name == "saxpy_fp").unwrap();
            assert!(saxpy.per_vl.last().unwrap().2 > saxpy.per_vl[0].2);
            assert!(saxpy.per_vl[0].2 > 1.5);
        }
    }

    #[test]
    fn bytecode_size_ratio_is_large() {
        // The split flows' encoded bytecode on SSE, vector against scalar.
        let cfg = CompileConfig::default();
        let bytes = |name, flow| {
            committed()
                .full(name, TargetKind::Sse, flow, &cfg)
                .unwrap()
                .bytes
        };
        let size = geomean(suite().iter().map(|s| {
            bytes(s.name, Flow::SplitVectorNaive) as f64
                / bytes(s.name, Flow::SplitScalarNaive) as f64
        }));
        assert!(
            size > 2.5,
            "vectorized bytecode should be much larger, got {size:.2}x"
        );
    }
}
