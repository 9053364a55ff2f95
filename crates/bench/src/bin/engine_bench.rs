//! Engine benchmark: quantifies the wins of the engine layer and writes
//! them to `BENCH_engine.json`.
//!
//! 1. **Compilation caching** — a cache-hit `Engine::compile` versus a
//!    cold end-to-end compile, over every suite kernel.
//! 2. **Runtime-VL specialization** — what bringing up a *new* VL costs
//!    under "compile once" (one re-specialization of the shared decode)
//!    versus what a VL-keyed engine would pay (a full pipeline run).
//! 3. **Allen–Kennedy distribution** — the former floor kernels
//!    (`lu`/`ludcmp`/`seidel`): vector-flow vs scalar-flow wall clock.
//!
//! The deterministic quantities — every kernel's `vm_cycles` on every
//! target, flow and VL, and the superinstruction counts of its decode —
//! are gated exactly by the cycle ledger (`tests/golden/ledger.txt`,
//! `tests/matrix.rs`), not here. Service behaviour under load
//! (throughput, latency, lock contention, the artifact tier) is the
//! repo benchmark's job — see `benchmark/`.
//!
//! ```text
//! cargo run --release -p vapor-bench --bin engine_bench [out.json] [--baseline=committed.json]
//! ```
//!
//! With `--baseline=`, the fresh speedups are compared against the
//! committed JSON's values and the process fails on a regression below
//! 70% of the committed number (or below the absolute floors).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use vapor_bench::Engine;
use vapor_core::{CompileConfig, ExecRequest, Flow};
use vapor_kernels::{suite, KernelSpec, Scale, SuiteKind};
use vapor_targets::{sse, sve};

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct CacheRow {
    name: String,
    cold_us: f64,
    hit_us: f64,
}

struct VlRow {
    name: String,
    recompile_us: f64,
    specialize_us: f64,
}

fn cache_experiment(engine: &Engine) -> Vec<CacheRow> {
    let target = sse();
    let cfg = CompileConfig::default();
    let flow = Flow::SplitVectorOpt;
    let mut rows = Vec::new();
    for spec in suite() {
        let kernel = spec.kernel();
        let cold_us = best_secs(5, || {
            vapor_core::compile(&kernel, flow, &target, &cfg).unwrap()
        }) * 1e6;
        engine.compile(&kernel, flow, &target, &cfg).unwrap(); // warm
        let hit_us = best_secs(5, || {
            // 100 hits per rep: a single lookup is near the clock's
            // resolution.
            for _ in 0..100 {
                black_box(engine.compile(&kernel, flow, &target, &cfg).unwrap());
            }
        }) * 1e6
            / 100.0;
        rows.push(CacheRow {
            name: spec.name.to_owned(),
            cold_us,
            hit_us,
        });
    }
    rows
}

/// The kernels the specialization experiment times: saxpy and Polybench.
fn vl_suite() -> Vec<KernelSpec> {
    suite()
        .into_iter()
        .filter(|s| s.suite == SuiteKind::Polybench || s.name.starts_with("saxpy"))
        .collect()
}

/// Specialization experiment: the cost of bringing up a *new* runtime
/// VL. A VL-keyed engine would re-run the whole pipeline per VL; the
/// VL-agnostic engine re-specializes the one shared decode (label and
/// target resolution, fast-kernel selection all reused).
fn vl_specialize_experiment(engine: &Engine) -> Vec<VlRow> {
    let family = sve();
    let cfg = CompileConfig::default();
    let flow = Flow::SplitVectorOpt;
    let vl = 512;
    let mut rows = Vec::new();
    for spec in vl_suite() {
        let kernel = spec.kernel();
        let recompile_us = best_secs(5, || {
            vapor_core::compile(&kernel, flow, &family, &cfg).unwrap()
        }) * 1e6;
        let (compiled, _) = engine.specialize(&kernel, flow, &family, &cfg, vl).unwrap();
        let exec = family.at_vl(vl);
        let specialize_us = best_secs(5, || {
            black_box(
                compiled
                    .jit
                    .decoded
                    .respecialize(&compiled.jit.code, &exec)
                    .unwrap(),
            )
        }) * 1e6;
        rows.push(VlRow {
            name: spec.name.to_owned(),
            recompile_us,
            specialize_us,
        });
    }
    rows
}

/// One row of the distribution experiment: a former floor kernel's
/// vector-vs-scalar gain.
struct DistributionRow {
    name: String,
    scalar_us: f64,
    vector_us: f64,
    /// Whether the vector flow vectorized any of its loops.
    vectorizes: bool,
}

/// Allen–Kennedy distribution experiment: the solver kernels the planner
/// historically rejected whole. `lu`/`ludcmp` now vectorize their inner
/// loops (the "moving toward the pack" gain the wall clock records);
/// `seidel` is a genuine recurrence and stays scalar. That disabling
/// distribution leaves their code and `vm_cycles` exact is
/// `tests/distribution_differential.rs`'s job.
fn distribution_experiment(engine: &Engine) -> Vec<DistributionRow> {
    let target = sse();
    let cfg = CompileConfig::default();
    let mut rows = Vec::new();
    for spec in suite() {
        if !["lu_fp", "ludcmp_fp", "seidel_fp"].contains(&spec.name) {
            continue;
        }
        let kernel = spec.kernel();
        let env = spec.env(Scale::Full);
        let vec_req = ExecRequest::new(&kernel, &target, &env)
            .flow(Flow::SplitVectorOpt)
            .config(cfg.clone());
        let sca_req = vec_req.clone().flow(Flow::SplitScalarOpt);
        let vec_run = engine.execute(&vec_req).unwrap();
        let vectorizes = vec_run.compiled.reports.iter().any(|r| r.vectorized);
        let scalar_us = best_secs(5, || engine.execute(&sca_req).unwrap()) * 1e6;
        let vector_us = best_secs(5, || engine.execute(&vec_req).unwrap()) * 1e6;
        rows.push(DistributionRow {
            name: spec.name.to_owned(),
            scalar_us,
            vector_us,
            vectorizes,
        });
    }
    rows
}

/// Pull a top-level `"key": <number>` out of a committed benchmark JSON
/// (no serde in the offline container; the format is our own writer's).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let baseline_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--baseline="))
        .map(str::to_owned);
    let engine = Engine::new();

    eprintln!("[1/3] compilation cache: cold vs hit ...");
    let cache = cache_experiment(&engine);
    let cold_total: f64 = cache.iter().map(|r| r.cold_us).sum();
    let hit_total: f64 = cache.iter().map(|r| r.hit_us).sum();
    let cache_speedup = cold_total / hit_total;

    eprintln!("[2/3] runtime-VL specialization: re-specialize vs full recompile ...");
    let vl_rows = vl_specialize_experiment(&engine);
    let vl_fresh: f64 = vl_rows.iter().map(|r| r.recompile_us).sum();
    let vl_hit: f64 = vl_rows.iter().map(|r| r.specialize_us).sum();
    let vl_speedup = vl_fresh / vl_hit;

    eprintln!("[3/3] Allen–Kennedy distribution: floor-kernel vector gains ...");
    let distribution = distribution_experiment(&engine);
    // The summary speedup covers the kernels that actually vectorize
    // (seidel is a genuine recurrence: its row records no gain).
    let gains = || distribution.iter().filter(|r| r.vectorizes);
    let dist_scalar: f64 = gains().map(|r| r.scalar_us).sum();
    let dist_vector: f64 = gains().map(|r| r.vector_us).sum();
    let distribution_speedup = dist_scalar / dist_vector;

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"target\": \"{}\",", sse().name);
    let _ = writeln!(j, "  \"flow\": \"{}\",", Flow::SplitVectorOpt);
    let _ = writeln!(j, "  \"cache_speedup\": {cache_speedup:.1},");
    let _ = writeln!(j, "  \"vl_specialize_speedup\": {vl_speedup:.1},");
    let _ = writeln!(j, "  \"distribution_speedup\": {distribution_speedup:.3},");
    j.push_str("  \"distribution\": [\n");
    for (i, r) in distribution.iter().enumerate() {
        let sep = if i + 1 == distribution.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"scalar_us\": {:.2}, \"vector_us\": {:.2}, \"speedup\": {:.3}}}{sep}",
            r.name,
            r.scalar_us,
            r.vector_us,
            r.scalar_us / r.vector_us
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"compile\": [\n");
    for (i, r) in cache.iter().enumerate() {
        let sep = if i + 1 == cache.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"cold_us\": {:.2}, \"hit_us\": {:.3}, \"speedup\": {:.1}}}{sep}",
            r.name,
            r.cold_us,
            r.hit_us,
            r.cold_us / r.hit_us
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"vl_specialize\": [\n");
    for (i, r) in vl_rows.iter().enumerate() {
        let sep = if i + 1 == vl_rows.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"recompile_us\": {:.3}, \"specialize_us\": {:.3}, \"speedup\": {:.1}}}{sep}",
            r.name,
            r.recompile_us,
            r.specialize_us,
            r.recompile_us / r.specialize_us
        );
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&out_path, &j).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("cache-hit compile speedup:    {cache_speedup:.1}x (floor ≥ 10x)");
    println!("VL-specialize vs recompile:   {vl_speedup:.1}x");
    println!(
        "distribution floor kernels:   {distribution_speedup:.3}x vector vs scalar on the \
         vectorizing solvers (floor ≥ 1.0x)"
    );
    println!("wrote {out_path}");

    // Regression gate: absolute floors, tightened by the committed
    // baseline when one is given (70% of the committed speedup absorbs
    // CI timing noise while catching real regressions).
    let mut fail = false;
    let mut cache_floor: f64 = 10.0;
    // The vectorizing solvers must never run slower under the vector
    // flow than the scalar flow; a committed baseline raises the bar to
    // 70% of the recorded gain.
    let mut distribution_floor: f64 = 1.0;
    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base_cache = json_number(&text, "cache_speedup")
            .unwrap_or_else(|| panic!("no cache_speedup in {path}"));
        cache_floor = cache_floor.max(0.7 * base_cache);
        if let Some(base_dist) = json_number(&text, "distribution_speedup") {
            distribution_floor = distribution_floor.max(0.7 * base_dist);
        }
        println!(
            "baseline {path}: cache {base_cache:.1}x -> thresholds {cache_floor:.1}x / \
             {distribution_floor:.3}x"
        );
    }
    if cache_speedup < cache_floor {
        eprintln!(
            "REGRESSION: cache-hit speedup {cache_speedup:.1}x < threshold {cache_floor:.1}x"
        );
        fail = true;
    }
    if distribution_speedup < distribution_floor {
        eprintln!(
            "REGRESSION: distribution floor-kernel speedup {distribution_speedup:.3}x < \
             threshold {distribution_floor:.3}x"
        );
        fail = true;
    }
    if fail {
        std::process::exit(1);
    }
}
