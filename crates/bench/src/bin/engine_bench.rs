//! Engine benchmark: quantifies the wins of the engine + VM layers and
//! writes them to `BENCH_engine.json`.
//!
//! 1. **Compilation caching** — a cache-hit `Engine::compile` versus a
//!    cold end-to-end compile, over every suite kernel.
//! 2. **Pre-decoded VM dispatch** — wall-clock `Machine` throughput of
//!    the decoded program (`Tier::Decoded`) versus the seed
//!    per-instruction interpreter (`Tier::Baseline`) on the
//!    saxpy/polybench suite.
//! 3. **Runtime-VL specialization** — what bringing up a *new* VL costs
//!    under "compile once" (one re-specialization of the shared decode)
//!    versus what a VL-keyed engine would pay (a full pipeline run).
//! 4. **Predicated VLA fast dispatch** — decoded runtime-VL execution
//!    (`DStep::VBinVlFast`/`VUnVlFast` kernels) versus the generic
//!    merge-predicated interpreter loop, on the SVE-class target at
//!    VL=512.
//! 5. **Closure-threaded tier** — the region-threaded program with the
//!    flattened register arena and precomputed address streams
//!    (`Tier::Threaded`) versus the seed interpreter and versus the
//!    decoded dispatch, on the same suite. The threaded run's
//!    `vm_cycles` are asserted equal to the decoded run's before any
//!    number is written: the tiers share one cycle model.
//! 6. **Allen–Kennedy distribution** — the former floor kernels
//!    (`lu`/`ludcmp`/`seidel`): vector-flow vs scalar-flow wall clock,
//!    the per-kernel count of vectorized loops and recorded dependence
//!    SCCs, and a deterministic check that toggling
//!    `CompileConfig::no_distribution` leaves these kernels' `vm_cycles`
//!    bit-identical (their distribution verdicts are report-only).
//!
//! Beside the timed sections, the per-kernel superinstruction counts of
//! the fused decode are recorded (`"fusion"`): they are as deterministic
//! as `vm_cycles` and gated the same way.
//!
//! Service behaviour under load (throughput, latency, lock contention,
//! the artifact tier) is the repo benchmark's job — see `benchmark/`.
//!
//! ```text
//! cargo run --release -p vapor-bench --bin engine_bench [out.json] [--baseline=committed.json]
//! ```
//!
//! With `--baseline=`, the fresh speedups are compared against the
//! committed JSON's values and the process fails on a regression below
//! 70% of the committed number (or below the absolute floors). The
//! per-kernel `vm_cycles` and superinstruction counts of the dispatch
//! suite are additionally gated on *exact* equality: they are
//! deterministic, so any drift is a real interpreter regression, caught
//! without wall-clock noise.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use vapor_bench::Engine;
use vapor_core::{CompileConfig, ExecRequest, Flow, Tier};
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

struct DispatchRow {
    name: String,
    baseline_us: f64,
    decoded_us: f64,
    cycles: u64,
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

fn dispatch_suite() -> Vec<KernelSpec> {
    suite()
        .into_iter()
        .filter(|s| s.suite == SuiteKind::Polybench || s.name.starts_with("saxpy"))
        .collect()
}

fn dispatch_experiment(engine: &Engine) -> Vec<DispatchRow> {
    let target = sse();
    let cfg = CompileConfig::default();
    let flow = Flow::SplitVectorOpt;
    let mut rows = Vec::new();
    for spec in dispatch_suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Full);
        let decoded_req = ExecRequest::new(&kernel, &target, &env)
            .flow(flow)
            .config(cfg.clone());
        let baseline_req = decoded_req.clone().tier(Tier::Baseline);
        // The cycle read doubles as the warmup so the first timed tier
        // does not pay the cold-cache cost of the kernel's arrays.
        let cycles = engine.execute(&decoded_req).unwrap().stats.cycles;
        let baseline_us = best_secs(9, || engine.execute(&baseline_req).unwrap()) * 1e6;
        let decoded_us = best_secs(9, || engine.execute(&decoded_req).unwrap()) * 1e6;
        rows.push(DispatchRow {
            name: spec.name.to_owned(),
            baseline_us,
            decoded_us,
            cycles,
        });
    }
    rows
}

/// Specialization experiment: the cost of bringing up a *new* runtime
/// VL. A VL-keyed engine would re-run the whole pipeline per VL; the
/// VL-agnostic engine re-specializes the one shared decode (label and
/// target resolution, fast-kernel selection all reused).
fn vl_specialize_experiment(engine: &Engine) -> Vec<DispatchRow> {
    let family = sve();
    let cfg = CompileConfig::default();
    let flow = Flow::SplitVectorOpt;
    let vl = 512;
    let mut rows = Vec::new();
    for spec in dispatch_suite() {
        let kernel = spec.kernel();
        let recompile_us = best_secs(5, || {
            vapor_core::compile(&kernel, flow, &family, &cfg).unwrap()
        }) * 1e6;
        let (compiled, _) = engine.specialize(&kernel, flow, &family, &cfg, vl).unwrap();
        let exec = family.at_vl(vl);
        let respec_us = best_secs(5, || {
            black_box(
                compiled
                    .jit
                    .decoded
                    .respecialize(&compiled.jit.code, &exec)
                    .unwrap(),
            )
        }) * 1e6;
        rows.push(DispatchRow {
            name: spec.name.to_owned(),
            baseline_us: recompile_us,
            decoded_us: respec_us,
            cycles: 0,
        });
    }
    rows
}

/// Predicated VLA dispatch experiment: decoded runtime-VL execution
/// (with the `VBinVlFast`/`VUnVlFast` lane kernels) versus the generic
/// merge-predicated interpreter loop, SVE-class at VL=512.
fn vla_dispatch_experiment(engine: &Engine) -> Vec<DispatchRow> {
    let family = sve();
    let cfg = CompileConfig::default();
    let flow = Flow::SplitVectorOpt;
    let vl = 512;
    let mut rows = Vec::new();
    for spec in dispatch_suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Full);
        let fast_req = ExecRequest::new(&kernel, &family, &env)
            .flow(flow)
            .config(cfg.clone())
            .vl_bits(vl);
        let generic_req = fast_req.clone().tier(Tier::Baseline);
        let fast_us = best_secs(5, || engine.execute(&fast_req).unwrap()) * 1e6;
        let generic_us = best_secs(5, || engine.execute(&generic_req).unwrap()) * 1e6;
        let cycles = engine.execute(&fast_req).unwrap().stats.cycles;
        rows.push(DispatchRow {
            name: spec.name.to_owned(),
            baseline_us: generic_us,
            decoded_us: fast_us,
            cycles,
        });
    }
    rows
}

/// One row of the closure-threaded experiment: the three-tier ladder
/// (seed interpreter, decoded dispatch, threaded regions) on one kernel.
struct ThreadedRow {
    name: String,
    baseline_us: f64,
    decoded_us: f64,
    threaded_us: f64,
    cycles: u64,
}

/// Closure-threaded tier experiment: the threaded tier
/// versus both the seed interpreter (the speedup the JSON gates) and the
/// decoded dispatch (the incremental win of this tier). The decoded tier
/// is the differential oracle, so the threaded run's `ExecStats` are
/// asserted bit-equal to the decoded run's before anything is recorded.
fn threaded_experiment(engine: &Engine) -> Vec<ThreadedRow> {
    let target = sse();
    let cfg = CompileConfig::default();
    let flow = Flow::SplitVectorOpt;
    let mut rows = Vec::new();
    for spec in dispatch_suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Full);
        let decoded_req = ExecRequest::new(&kernel, &target, &env)
            .flow(flow)
            .config(cfg.clone());
        let baseline_req = decoded_req.clone().tier(Tier::Baseline);
        let threaded_req = decoded_req.clone().tier(Tier::Threaded);
        // Oracle check first: it doubles as the warmup, so no tier's
        // timing loop pays the cold-cache cost of touching the kernel's
        // arrays for the first time.
        let threaded = engine.execute(&threaded_req).unwrap();
        let decoded = engine.execute(&decoded_req).unwrap();
        assert_eq!(
            threaded.stats, decoded.stats,
            "{}: threaded tier diverged from the decoded oracle",
            spec.name
        );
        let baseline_us = best_secs(9, || engine.execute(&baseline_req).unwrap()) * 1e6;
        let decoded_us = best_secs(9, || engine.execute(&decoded_req).unwrap()) * 1e6;
        let threaded_us = best_secs(9, || engine.execute(&threaded_req).unwrap()) * 1e6;
        rows.push(ThreadedRow {
            name: spec.name.to_owned(),
            baseline_us,
            decoded_us,
            threaded_us,
            cycles: threaded.stats.cycles,
        });
    }
    rows
}

/// Per-kernel superinstruction counts of the production (fused) decode.
struct FusionRow {
    name: String,
    superinstructions: u32,
    three_op: u32,
}

/// The superinstruction inventory of the dispatch suite: deterministic,
/// so the gate below compares it exactly. (That fusion leaves results
/// and `vm_cycles` bit-identical is the differential test suite's job.)
fn fusion_counts(engine: &Engine) -> Vec<FusionRow> {
    let target = sse();
    let cfg = CompileConfig::default();
    dispatch_suite()
        .iter()
        .map(|spec| {
            let c = engine
                .compile(&spec.kernel(), Flow::SplitVectorOpt, &target, &cfg)
                .unwrap();
            let stats = c.jit.decoded.fusion_stats();
            FusionRow {
                name: spec.name.to_owned(),
                superinstructions: stats.total(),
                three_op: stats.three_op(),
            }
        })
        .collect()
}

/// One row of the distribution experiment: a former floor kernel's
/// vector-vs-scalar gain plus the planner's distribution stats.
struct DistributionRow {
    name: String,
    scalar_us: f64,
    vector_us: f64,
    cycles: u64,
    vector_loops: usize,
    scc_parts: usize,
}

/// Allen–Kennedy distribution experiment: the solver kernels the planner
/// historically rejected whole. `lu`/`ludcmp` now vectorize their inner
/// loops (the "moving toward the pack" gain the wall clock records);
/// `seidel` stays scalar but must carry its SCC partition. None of the
/// three emits a *distributed* loop, so disabling distribution must not
/// change their `vm_cycles` — asserted here, deterministically, before
/// any number is written.
fn distribution_experiment(engine: &Engine) -> Vec<DistributionRow> {
    let target = sse();
    let cfg = CompileConfig::default();
    let no_dist = CompileConfig {
        no_distribution: true,
        ..CompileConfig::default()
    };
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
        let c = vec_run.compiled;
        let vector_loops = c.reports.iter().filter(|r| r.vectorized).count();
        let scc_parts: usize = c.reports.iter().map(|r| r.parts.len()).sum();
        let nodist_cycles = engine
            .execute(&vec_req.clone().config(no_dist.clone()))
            .unwrap()
            .stats
            .cycles;
        assert_eq!(
            vec_run.stats.cycles, nodist_cycles,
            "{}: no_distribution changed emission on a kernel with no distributed loop",
            spec.name
        );
        let scalar_us = best_secs(5, || engine.execute(&sca_req).unwrap()) * 1e6;
        let vector_us = best_secs(5, || engine.execute(&vec_req).unwrap()) * 1e6;
        rows.push(DistributionRow {
            name: spec.name.to_owned(),
            scalar_us,
            vector_us,
            cycles: vec_run.stats.cycles,
            vector_loops,
            scc_parts,
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

/// Per-kernel value of `key` inside the named array section of a
/// committed benchmark JSON (scoped to that section, since several
/// sections share row keys).
fn baseline_row_number(text: &str, section: &str, kernel: &str, key: &str) -> Option<u64> {
    let start = text.find(&format!("\"{section}\": ["))?;
    let sec = &text[start..];
    let sec = &sec[..sec.find(']').unwrap_or(sec.len())];
    let row_at = sec.find(&format!("\"kernel\": \"{kernel}\""))?;
    let row = &sec[row_at..];
    let row = &row[..row.find('}').unwrap_or(row.len())];
    json_number(row, key).map(|v| v as u64)
}

/// Per-kernel `vm_cycles` of the committed JSON's `"dispatch"` section
/// (scoped to that section: the `vla_dispatch` rows carry cycles too).
fn baseline_dispatch_cycles(text: &str, kernel: &str) -> Option<u64> {
    baseline_row_number(text, "dispatch", kernel, "vm_cycles")
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

    eprintln!("[1/6] compilation cache: cold vs hit ...");
    let cache = cache_experiment(&engine);
    let cold_total: f64 = cache.iter().map(|r| r.cold_us).sum();
    let hit_total: f64 = cache.iter().map(|r| r.hit_us).sum();
    let cache_speedup = cold_total / hit_total;

    eprintln!("[2/6] VM dispatch: seed interpreter vs pre-decoded ...");
    let dispatch = dispatch_experiment(&engine);
    let base_total: f64 = dispatch.iter().map(|r| r.baseline_us).sum();
    let dec_total: f64 = dispatch.iter().map(|r| r.decoded_us).sum();
    let dispatch_speedup = base_total / dec_total;

    eprintln!("[3/6] runtime-VL specialization: re-specialize vs full recompile ...");
    let vl_rows = vl_specialize_experiment(&engine);
    let vl_fresh: f64 = vl_rows.iter().map(|r| r.baseline_us).sum();
    let vl_hit: f64 = vl_rows.iter().map(|r| r.decoded_us).sum();
    let vl_speedup = vl_fresh / vl_hit;

    eprintln!("[4/6] VLA dispatch: generic predicated loop vs fast kernels ...");
    let vla = vla_dispatch_experiment(&engine);
    let vla_base: f64 = vla.iter().map(|r| r.baseline_us).sum();
    let vla_fast: f64 = vla.iter().map(|r| r.decoded_us).sum();
    let vla_dispatch_speedup = vla_base / vla_fast;

    eprintln!("[5/6] closure-threaded tier: seed vs decoded vs threaded ...");
    let threaded = threaded_experiment(&engine);
    let thr_base: f64 = threaded.iter().map(|r| r.baseline_us).sum();
    let thr_dec: f64 = threaded.iter().map(|r| r.decoded_us).sum();
    let thr_thr: f64 = threaded.iter().map(|r| r.threaded_us).sum();
    let threaded_speedup = thr_base / thr_thr;
    let threaded_vs_decoded = thr_dec / thr_thr;

    eprintln!("[6/6] Allen–Kennedy distribution: floor-kernel vector gains ...");
    let distribution = distribution_experiment(&engine);
    // The summary speedup covers the kernels that actually vectorize
    // (seidel is a genuine recurrence — its row documents the SCC, not a
    // gain).
    let dist_scalar: f64 = distribution
        .iter()
        .filter(|r| r.vector_loops > 0)
        .map(|r| r.scalar_us)
        .sum();
    let dist_vector: f64 = distribution
        .iter()
        .filter(|r| r.vector_loops > 0)
        .map(|r| r.vector_us)
        .sum();
    let distribution_speedup = dist_scalar / dist_vector;

    let fusion = fusion_counts(&engine);

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"target\": \"{}\",", sse().name);
    let _ = writeln!(j, "  \"flow\": \"{}\",", Flow::SplitVectorOpt);
    let _ = writeln!(j, "  \"cache_speedup\": {cache_speedup:.1},");
    let _ = writeln!(j, "  \"dispatch_speedup\": {dispatch_speedup:.3},");
    let _ = writeln!(j, "  \"vl_specialize_speedup\": {vl_speedup:.1},");
    let _ = writeln!(j, "  \"vla_dispatch_speedup\": {vla_dispatch_speedup:.3},");
    let _ = writeln!(j, "  \"threaded_speedup\": {threaded_speedup:.3},");
    let _ = writeln!(j, "  \"threaded_vs_decoded\": {threaded_vs_decoded:.3},");
    let _ = writeln!(j, "  \"distribution_speedup\": {distribution_speedup:.3},");
    j.push_str("  \"distribution\": [\n");
    for (i, r) in distribution.iter().enumerate() {
        let sep = if i + 1 == distribution.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"scalar_us\": {:.2}, \"vector_us\": {:.2}, \"speedup\": {:.3}, \"vm_cycles\": {}, \"vector_loops\": {}, \"scc_parts\": {}}}{sep}",
            r.name,
            r.scalar_us,
            r.vector_us,
            r.scalar_us / r.vector_us,
            r.cycles,
            r.vector_loops,
            r.scc_parts
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
            r.baseline_us,
            r.decoded_us,
            r.baseline_us / r.decoded_us
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"dispatch\": [\n");
    for (i, r) in dispatch.iter().enumerate() {
        let sep = if i + 1 == dispatch.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"baseline_us\": {:.2}, \"decoded_us\": {:.2}, \"speedup\": {:.3}, \"vm_cycles\": {}}}{sep}",
            r.name,
            r.baseline_us,
            r.decoded_us,
            r.baseline_us / r.decoded_us,
            r.cycles
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"fusion\": [\n");
    for (i, r) in fusion.iter().enumerate() {
        let sep = if i + 1 == fusion.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"superinstructions\": {}, \"three_op\": {}}}{sep}",
            r.name, r.superinstructions, r.three_op
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"vla_dispatch\": [\n");
    for (i, r) in vla.iter().enumerate() {
        let sep = if i + 1 == vla.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"generic_us\": {:.2}, \"fast_us\": {:.2}, \"speedup\": {:.3}, \"vm_cycles\": {}}}{sep}",
            r.name,
            r.baseline_us,
            r.decoded_us,
            r.baseline_us / r.decoded_us,
            r.cycles
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"threaded\": [\n");
    for (i, r) in threaded.iter().enumerate() {
        let sep = if i + 1 == threaded.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"baseline_us\": {:.2}, \"decoded_us\": {:.2}, \"threaded_us\": {:.2}, \"speedup\": {:.3}, \"vs_decoded\": {:.3}, \"vm_cycles\": {}}}{sep}",
            r.name,
            r.baseline_us,
            r.decoded_us,
            r.threaded_us,
            r.baseline_us / r.threaded_us,
            r.decoded_us / r.threaded_us,
            r.cycles
        );
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&out_path, &j).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("cache-hit compile speedup:    {cache_speedup:.1}x (floor ≥ 10x)");
    println!("pre-decoded dispatch speedup: {dispatch_speedup:.3}x (floor ≥ 1.2x)");
    println!("VL-specialize vs recompile:   {vl_speedup:.1}x");
    println!("VLA fast vs generic dispatch: {vla_dispatch_speedup:.3}x (floor ≥ 1.3x)");
    println!(
        "closure-threaded tier:        {threaded_speedup:.3}x vs seed \
         ({threaded_vs_decoded:.3}x vs decoded, floor ≥ 1.2x)"
    );
    println!(
        "distribution floor kernels:   {distribution_speedup:.3}x vector vs scalar on the \
         vectorizing solvers (floor ≥ 1.0x)"
    );
    println!("wrote {out_path}");

    // Regression gate: absolute floors, tightened by the committed
    // baseline when one is given (70% of the committed speedup absorbs
    // CI timing noise while catching real regressions). Per-kernel VM
    // cycle counts are deterministic, so those are gated on *exact*
    // equality — an interpreter perf/semantics drift fails CI even when
    // wall-clock noise would hide it.
    let mut fail = false;
    let (mut cache_floor, mut dispatch_floor, mut vla_floor): (f64, f64, f64) = (10.0, 1.2, 1.3);
    let mut threaded_floor: f64 = 1.2;
    // The vectorizing solvers must never run slower under the vector
    // flow than the scalar flow; a committed baseline raises the bar to
    // 70% of the recorded gain.
    let mut distribution_floor: f64 = 1.0;
    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base_cache = json_number(&text, "cache_speedup")
            .unwrap_or_else(|| panic!("no cache_speedup in {path}"));
        let base_dispatch = json_number(&text, "dispatch_speedup")
            .unwrap_or_else(|| panic!("no dispatch_speedup in {path}"));
        cache_floor = cache_floor.max(0.7 * base_cache);
        dispatch_floor = dispatch_floor.max(0.7 * base_dispatch);
        // Present only in baselines recorded after the register-file PR.
        if let Some(base_vla) = json_number(&text, "vla_dispatch_speedup") {
            vla_floor = vla_floor.max(0.7 * base_vla);
        }
        // Present only in baselines recorded after the threaded-tier PR.
        if let Some(base_threaded) = json_number(&text, "threaded_speedup") {
            threaded_floor = threaded_floor.max(0.7 * base_threaded);
        }
        // Present only in baselines recorded after the distribution PR.
        if let Some(base_dist) = json_number(&text, "distribution_speedup") {
            distribution_floor = distribution_floor.max(0.7 * base_dist);
        }
        println!(
            "baseline {path}: cache {base_cache:.1}x, dispatch {base_dispatch:.3}x \
             -> thresholds {cache_floor:.1}x / {dispatch_floor:.3}x / {vla_floor:.3}x"
        );
        for r in &dispatch {
            match baseline_dispatch_cycles(&text, &r.name) {
                Some(want) if want != r.cycles => {
                    eprintln!(
                        "REGRESSION: {} executed {} VM cycles, committed baseline says {want} \
                         (deterministic counter; exact match required)",
                        r.name, r.cycles
                    );
                    fail = true;
                }
                Some(_) => {}
                None => {
                    eprintln!("WARNING: no committed vm_cycles for {} in {path}", r.name);
                }
            }
        }
        // The threaded tier shares the decoded cycle model, so its
        // per-kernel vm_cycles are gated on exact equality too (present
        // only in baselines recorded after the threaded-tier PR).
        for r in &threaded {
            match baseline_row_number(&text, "threaded", &r.name, "vm_cycles") {
                Some(want) if want != r.cycles => {
                    eprintln!(
                        "REGRESSION: {} executed {} VM cycles through the threaded tier, \
                         committed baseline says {want} (deterministic counter; exact match \
                         required)",
                        r.name, r.cycles
                    );
                    fail = true;
                }
                _ => {}
            }
        }
        // The distribution rows' vm_cycles are deterministic (vector
        // flow, decoded tier), so they too are gated on exact equality
        // (present only in baselines recorded after the distribution
        // PR). This is what pins seidel: a planner change that silently
        // flips its emission shows up as a cycle drift here.
        for r in &distribution {
            match baseline_row_number(&text, "distribution", &r.name, "vm_cycles") {
                Some(want) if want != r.cycles => {
                    eprintln!(
                        "REGRESSION: {} executed {} VM cycles under the vector flow, committed \
                         baseline says {want} (deterministic counter; exact match required)",
                        r.name, r.cycles
                    );
                    fail = true;
                }
                _ => {}
            }
        }
        // Superinstruction counts are as deterministic as vm_cycles:
        // they change only when codegen or the fusion pass changes, so
        // they are gated on exact equality (present only in baselines
        // recorded after the fusion PR).
        for r in &fusion {
            match baseline_row_number(&text, "fusion", &r.name, "superinstructions") {
                Some(want) if want != u64::from(r.superinstructions) => {
                    eprintln!(
                        "REGRESSION: {} formed {} superinstructions, committed baseline says \
                         {want} (deterministic counter; exact match required)",
                        r.name, r.superinstructions
                    );
                    fail = true;
                }
                _ => {}
            }
        }
    }
    if cache_speedup < cache_floor {
        eprintln!(
            "REGRESSION: cache-hit speedup {cache_speedup:.1}x < threshold {cache_floor:.1}x"
        );
        fail = true;
    }
    if dispatch_speedup < dispatch_floor {
        eprintln!(
            "REGRESSION: dispatch speedup {dispatch_speedup:.3}x < threshold {dispatch_floor:.3}x"
        );
        fail = true;
    }
    if vla_dispatch_speedup < vla_floor {
        eprintln!(
            "REGRESSION: VLA fast-dispatch speedup {vla_dispatch_speedup:.3}x < threshold {vla_floor:.3}x"
        );
        fail = true;
    }
    if threaded_speedup < threaded_floor {
        eprintln!(
            "REGRESSION: threaded-tier speedup {threaded_speedup:.3}x < threshold \
             {threaded_floor:.3}x"
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
    if fusion.iter().all(|r| r.three_op == 0) {
        eprintln!("REGRESSION: no three-op superinstruction fired on the dispatch suite");
        fail = true;
    }
    if fail {
        std::process::exit(1);
    }
}
