//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p vapor-bench --bin report              # everything
//! cargo run --release -p vapor-bench --bin report fig5a       # one experiment
//! cargo run --release -p vapor-bench --bin report --quick     # test-scale sizes
//! cargo run --release -p vapor-bench --bin report --target=sse        # one target's figures
//! cargo run --release -p vapor-bench --bin report --flow=native-vector --kernel=saxpy_fp
//! ```
//!
//! All compilation goes through one [`Engine`]: the full suite touches
//! many (kernel, flow, target) tuples more than once across figures, and
//! the cache compiles each exactly once. `--flow` (optionally narrowed
//! by `--target`/`--kernel`) reproduces a single flow's cycle column
//! without running any other experiment.

use vapor_bench::{
    ablation, cycles, fig5, fig6, format_table, geomean, realign_reuse_ablation, size_and_time,
    size_time_summary, table3, vla_gains, CompileJob, Engine,
};
use vapor_core::{CompileConfig, Flow};
use vapor_kernels::{suite, Scale};
use vapor_targets::{altivec, avx, neon64, rvv, sse, sve, TargetDesc, TargetKind};

fn parse_flow(name: &str) -> Option<Flow> {
    Flow::ALL.into_iter().find(|f| f.to_string() == name)
}

/// Short alias the CLI accepts for a built-in target.
fn alias(t: &TargetDesc) -> &'static str {
    match t.kind {
        TargetKind::Sse => "sse",
        TargetKind::Altivec => "altivec",
        TargetKind::Neon64 => "neon64",
        TargetKind::Avx => "avx",
        TargetKind::ScalarOnly => "scalar",
        TargetKind::Sve => "sve",
        TargetKind::Rvv => "rvv",
    }
}

/// Every built-in target, in `TargetKind::ALL` order — the one list the
/// parser, the error message, and the help text all derive from, so an
/// added target can never be silently unmatchable.
fn known_targets() -> Vec<TargetDesc> {
    TargetKind::ALL
        .into_iter()
        .map(vapor_targets::target)
        .collect()
}

fn known_target_names() -> String {
    known_targets()
        .iter()
        .map(alias)
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_target(name: &str) -> Option<TargetDesc> {
    // Accept the short alias the help text advertises ("sse") as well as
    // the full display name ("SSE (128-bit)").
    known_targets()
        .into_iter()
        .find(|t| alias(t).eq_ignore_ascii_case(name) || t.name.eq_ignore_ascii_case(name))
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(key))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Test } else { Scale::Full };

    let flow_filter = flag_value(&args, "--flow=").map(|v| {
        parse_flow(v).unwrap_or_else(|| {
            let known: Vec<String> = Flow::ALL.iter().map(|f| f.to_string()).collect();
            eprintln!("unknown flow {v:?}; known flows: {}", known.join(", "));
            std::process::exit(2);
        })
    });
    let target_filter = flag_value(&args, "--target=").map(|v| {
        parse_target(v).unwrap_or_else(|| {
            eprintln!(
                "unknown target {v:?}; known targets: {}",
                known_target_names()
            );
            std::process::exit(2);
        })
    });
    let kernel_filter = flag_value(&args, "--kernel=");

    let engine = Engine::new();

    // Focused mode: one flow's cycle counts, nothing else.
    if let Some(flow) = flow_filter {
        let target = target_filter.unwrap_or_else(sse);
        print_flow(&engine, flow, &target, kernel_filter, scale);
        return;
    }
    // The figure drivers run whole-suite experiments; --kernel only
    // means something in the focused --flow mode. Reject it instead of
    // silently running the full (paper-scale) suite.
    if kernel_filter.is_some() {
        eprintln!("--kernel= requires --flow= (figures always cover the whole suite)");
        std::process::exit(2);
    }

    const EXPERIMENTS: [&str; 11] = [
        "fig5a", "fig5b", "ablation", "realign", "size", "fig6a", "fig6b", "fig6c", "table3",
        "vla", "vmperf",
    ];
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    // Reject typos before any (expensive) section runs rather than
    // falling through to the nothing-printed error at the end.
    if let Some(bad) = wanted.iter().find(|w| !EXPERIMENTS.contains(w)) {
        eprintln!(
            "unknown experiment {bad:?}; known experiments: {}",
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);
    let want_target = |t: &TargetDesc| target_filter.as_ref().is_none_or(|f| f.name == t.name);
    // Every section that actually prints flips this; finishing a
    // filtered run without output is an error (listing what exists), not
    // a silent no-op.
    let mut printed = false;

    // Pre-compile the whole working set across threads: every figure
    // below is then pure cache hits + VM execution.
    if wanted.is_empty() && target_filter.is_none() {
        let specs = suite();
        let kernels: Vec<_> = specs.iter().map(|s| s.kernel()).collect();
        let targets = [sse(), altivec(), neon64(), avx()];
        let mut jobs = Vec::new();
        for k in &kernels {
            for t in &targets {
                for flow in Flow::ALL {
                    jobs.push(CompileJob::new(k, flow, t));
                }
            }
        }
        let failures = engine
            .compile_batch(&jobs)
            .iter()
            .filter(|r| r.is_err())
            .count();
        let s = engine.stats();
        eprintln!(
            "[engine] pre-compiled {} tuples across threads ({} cached, {} failed)",
            jobs.len(),
            s.entries,
            failures
        );
    }

    if want("fig5a") && want_target(&sse()) {
        printed = true;
        print_fig5(
            &engine,
            "Figure 5a — Mono-class JIT, normalized vectorization impact, SSE",
            &sse(),
            scale,
        );
    }
    if want("fig5b") && want_target(&altivec()) {
        printed = true;
        print_fig5(
            &engine,
            "Figure 5b — Mono-class JIT, normalized vectorization impact, AltiVec",
            &altivec(),
            scale,
        );
    }
    if want("ablation") && (want_target(&sse()) || want_target(&altivec())) {
        printed = true;
        let rows: Vec<_> = ablation(&engine, scale)
            .into_iter()
            .filter(|r| target_filter.as_ref().is_none_or(|t| t.name == r.target))
            .collect();
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.target.clone(),
                    r.with_opts.to_string(),
                    r.without_opts.to_string(),
                    format!("{:.2}x", r.degradation),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                "§V-A(b) — alignment optimizations disabled (naive JIT)",
                &["kernel", "target", "with", "without", "degradation"],
                &table
            )
        );
        println!(
            "average degradation factor: {:.2}x (paper: ~2.5x)\n",
            geomean(rows.iter().map(|r| r.degradation))
        );
    }
    if want("realign") && want_target(&altivec()) {
        printed = true;
        let rows = realign_reuse_ablation(&engine, scale);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.with_opts.to_string(),
                    r.without_opts.to_string(),
                    format!("{:.2}x", r.degradation),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                "§III-A design-choice ablation — optimized realignment disabled (AltiVec, opt online)",
                &["kernel", "with reuse", "without", "slowdown"],
                &table
            )
        );
    }
    if want("size") && want_target(&sse()) {
        printed = true;
        let rows = size_and_time(&sse());
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.scalar_bytes.to_string(),
                    r.vector_bytes.to_string(),
                    format!("{:.2}x", r.vector_bytes as f64 / r.scalar_bytes as f64),
                    format!("{:.1}", r.scalar_us),
                    format!("{:.1}", r.vector_us),
                    format!("{:.2}x", r.vector_us / r.scalar_us),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                "§V-A(c) — bytecode size and online compile time (naive JIT, SSE)",
                &[
                    "kernel",
                    "scalar B",
                    "vector B",
                    "size ratio",
                    "scalar µs",
                    "vector µs",
                    "time ratio"
                ],
                &table
            )
        );
        let (s, t) = size_time_summary(&rows);
        println!("geomean size ratio: {s:.2}x (paper: ~5x); geomean compile-time ratio: {t:.2}x (paper: 4.85x/5.37x)\n");
    }
    if want("fig6a") && want_target(&sse()) {
        printed = true;
        print_fig6(
            &engine,
            "Figure 6a — split/native normalized execution time, SSE",
            &sse(),
            scale,
        );
    }
    if want("fig6b") && want_target(&altivec()) {
        printed = true;
        print_fig6(
            &engine,
            "Figure 6b — split/native normalized execution time, AltiVec",
            &altivec(),
            scale,
        );
    }
    if want("fig6c") && want_target(&neon64()) {
        printed = true;
        print_fig6(
            &engine,
            "Figure 6c — split/native normalized execution time, NEON (64-bit)",
            &neon64(),
            scale,
        );
    }
    if want("table3") && want_target(&avx()) {
        printed = true;
        let rows = table3(&engine, scale);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.native.to_string(),
                    r.split.to_string(),
                    if r.validated {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                "Table 3 — AVX cycles per vector-loop iteration (IACA-style static analysis)",
                &["kernel", "native", "split", "SDE validation"],
                &table
            )
        );
    }

    if want("vla") {
        for family in [sve(), rvv()] {
            if want_target(&family) {
                printed = true;
                print_vla(&engine, &family, scale);
            }
        }
    }

    if want("vmperf") && (target_filter.is_none() || want_target(&sse()) || want_target(&sve())) {
        printed = true;
        print_vmperf(&engine);
    }

    if !printed {
        eprintln!(
            "nothing to report: no experiment matches the given filters. \
             Experiments: {} — each tied to specific targets \
             (known targets: {}). Use --flow= for a per-kernel cycle \
             table on any target.",
            EXPERIMENTS.join(" "),
            known_target_names()
        );
        std::process::exit(2);
    }

    let s = engine.stats();
    eprintln!(
        "[engine] cache: {} entries ({} VL specializations), {} hits, {} misses",
        s.entries, s.vl_entries, s.hits, s.misses
    );
}

/// The VM-performance table: what one register move costs per target
/// class (the seed kept every register at MAX_VS bytes) and what the
/// superinstruction fusion pass collapses per kernel.
fn print_vmperf(engine: &Engine) {
    use vapor_targets::{VBytes, MAX_VS};

    let sized = std::mem::size_of::<VBytes>();
    let rows = vec![
        vec![
            "register move, fixed-width (SSE/NEON/AVX)".to_string(),
            format!("{MAX_VS} B"),
            format!("{sized} B (inline)"),
            format!("{:.1}x", MAX_VS as f64 / sized as f64),
        ],
        vec![
            "register move, VLA ≤ 256-bit".to_string(),
            format!("{MAX_VS} B"),
            format!("{sized} B (inline)"),
            format!("{:.1}x", MAX_VS as f64 / sized as f64),
        ],
        vec![
            "register move, VLA > 256-bit".to_string(),
            format!("{MAX_VS} B"),
            format!("{sized} B (boxed, recycled)"),
            "alloc-free".to_string(),
        ],
    ];
    println!(
        "{}",
        format_table(
            "VM register file — bytes moved per register write (seed vs target-sized)",
            &["path", "seed (MAX_VS)", "sized", "reduction"],
            &rows
        )
    );

    let cfg = CompileConfig::default();
    // Superinstruction fusion: the per-kernel inventory of fused steps
    // (deterministic — the cycle ledger pins them exactly).
    let mut rows = Vec::new();
    let mut kernels = 0usize;
    let mut three_op_kernels = 0usize;
    for spec in suite() {
        let kernel = spec.kernel();
        let Ok(c) = engine.compile(
            &kernel,
            vapor_core::Flow::SplitVectorOpt,
            &vapor_targets::sse(),
            &cfg,
        ) else {
            continue;
        };
        let s = c.jit.decoded.fusion_stats();
        kernels += 1;
        if s.three_op() > 0 {
            three_op_kernels += 1;
        }
        rows.push(vec![
            spec.name.to_owned(),
            format!("{}", c.jit.decoded.len),
            format!("{}", c.jit.decoded.n_steps()),
            format!("{}", s.load_bin_store),
            format!("{}", s.load_bin_bin),
            format!("{}", s.load_bin),
            format!("{}", s.bin_store),
            format!("{}", s.latch),
        ]);
    }
    println!(
        "{}",
        format_table(
            "Superinstruction fusion — decoded steps and per-pattern hits (SSE, opt online)",
            &["kernel", "insts", "steps", "ld+op+st", "ld+op+op", "ld+op", "op+st", "latch"],
            &rows
        )
    );
    println!(
        "three-op superinstructions fire on {three_op_kernels}/{kernels} suite kernels; \
         the predicated VLA form (ld.vl+op.vl+st.vl) fuses on the SVE/RVV family \
         (every target's counts pinned in tests/golden/ledger.txt)\n"
    );

    // Planner verdicts: why every scalar loop stayed scalar, per loop
    // and — where Allen–Kennedy distribution ran — per dependence SCC.
    // The category match below is exhaustive on purpose: adding a
    // rejection category without a human description here is a compile
    // error, and an unvectorized loop with *no* typed reason panics —
    // rejections must never regress into mystery.
    use vapor_vectorizer::RejectCategory;
    let describe = |c: RejectCategory| -> &'static str {
        match c {
            RejectCategory::NonAffine => "non-affine subscript or bound",
            RejectCategory::UnsupportedStride => "unsupported access stride",
            RejectCategory::Dependence => "unresolved memory dependence",
            RejectCategory::Recurrence => "true recurrence (dependence cycle)",
            RejectCategory::Bounds => "unanalyzable loop bounds",
            RejectCategory::UnsupportedTypes => "unsupported element types",
            RejectCategory::TargetUnsupported => "target lacks the operation",
            RejectCategory::NoVectorWork => "nothing profitable to vectorize",
            RejectCategory::EmitFailure => "vector emission failed",
        }
    };
    let mut rows = Vec::new();
    for spec in suite() {
        let kernel = spec.kernel();
        let Ok(c) = engine.compile(
            &kernel,
            vapor_core::Flow::SplitVectorOpt,
            &vapor_targets::sse(),
            &cfg,
        ) else {
            continue;
        };
        for r in &c.reports {
            if r.vectorized && r.parts.is_empty() {
                continue; // plainly-vector loops have no scalarization story
            }
            let reason = match (&r.reason, r.vectorized) {
                (Some(rej), _) => format!("{} — {}", describe(rej.category), rej.detail),
                (None, true) => "-".to_string(),
                (None, false) => panic!(
                    "{}: unvectorized loop without a typed reason: {}",
                    spec.name, r.description
                ),
            };
            let parts = if r.parts.is_empty() {
                "-".to_string()
            } else {
                r.parts
                    .iter()
                    .map(|p| {
                        format!(
                            "{:?}={}",
                            p.stmts,
                            if p.vectorized { "vec" } else { "scalar" }
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            rows.push(vec![
                spec.name.to_owned(),
                r.description.clone(),
                if r.vectorized { "vector" } else { "scalar" }.to_string(),
                reason,
                parts,
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            "Planner verdicts — scalar loops, typed reasons, and SCC partitions (SSE, opt online)",
            &["kernel", "loop", "verdict", "why scalar", "sccs"],
            &rows
        )
    );

    // The service-layer view of the same engine: how the bounded
    // compile cache and the arena pool behaved under everything this
    // report just ran.
    let s = engine.stats();
    let rows = vec![
        vec![
            "compile cache".to_string(),
            format!("{} entries", s.entries),
            format!("{} hits, {} misses", s.hits, s.misses),
            format!("{} evicted", s.evictions),
        ],
        vec![
            "execution forms".to_string(),
            format!("{} (key, VL) entries", s.vl_entries),
            "-".to_string(),
            format!("{} evicted", s.exec_evictions),
        ],
        vec![
            "lock contention".to_string(),
            format!("{} contended acquisitions", s.contended_locks),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            "arena pool".to_string(),
            format!("{} pooled reuses", s.pool_reuses),
            format!("{} fresh allocations", s.pool_allocs),
            "-".to_string(),
        ],
    ];
    println!(
        "{}",
        format_table(
            "Engine service layer — cache, eviction, and pooling counters for this run",
            &["subsystem", "size", "traffic", "evictions"],
            &rows
        )
    );
}

fn print_vla(engine: &Engine, family: &TargetDesc, scale: Scale) {
    let rows = vla_gains(engine, family, scale);
    let vls: Vec<usize> = rows[0].per_vl.iter().map(|(vl, _, _)| *vl).collect();
    let mut headers: Vec<String> = vec!["kernel".into(), "scalar".into()];
    headers.extend(vls.iter().map(|vl| format!("VL={vl}")));
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.name.clone(), r.scalar.to_string()];
            cells.extend(r.per_vl.iter().map(|(_, c, g)| format!("{c} ({g:.2}x)")));
            cells
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "VLA gains — one VL-agnostic artifact, specialized per runtime VL ({})",
                family.name
            ),
            &header_refs,
            &table
        )
    );
    let summary: Vec<String> = vls
        .iter()
        .enumerate()
        .map(|(i, vl)| {
            let g = geomean(rows.iter().map(|r| r.per_vl[i].2));
            format!("VL={vl}: {g:.2}x")
        })
        .collect();
    println!("geomean gains vs scalar: {}\n", summary.join("  "));
}

fn print_flow(
    engine: &Engine,
    flow: Flow,
    target: &TargetDesc,
    kernel_filter: Option<&str>,
    scale: Scale,
) {
    let cfg = CompileConfig::default();
    let mut rows = Vec::new();
    for spec in suite() {
        if kernel_filter.is_some_and(|k| k != spec.name) {
            continue;
        }
        let kernel = spec.kernel();
        let env = spec.env(scale);
        let c = cycles(engine, &kernel, flow, target, &env, &cfg);
        rows.push(vec![spec.name.to_owned(), c.to_string()]);
    }
    if rows.is_empty() {
        eprintln!("no kernel matches {:?}", kernel_filter.unwrap_or(""));
        std::process::exit(2);
    }
    println!(
        "{}",
        format_table(
            &format!("{flow} on {} — VM cycles", target.name),
            &["kernel", "cycles"],
            &rows
        )
    );
}

fn print_fig5(engine: &Engine, title: &str, target: &TargetDesc, scale: Scale) {
    let rows = fig5(engine, target, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let f = |v: f64| {
                if v.is_nan() {
                    "-".to_string()
                } else {
                    format!("{v:.2}")
                }
            };
            vec![
                r.name.clone(),
                f(r.jit_speedup),
                f(r.native_speedup),
                format!("{:.2}x", r.impact),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            title,
            &["kernel", "JIT speedup", "native speedup", "impact"],
            &table
        )
    );
}

fn print_fig6(engine: &Engine, title: &str, target: &TargetDesc, scale: Scale) {
    let rows = fig6(engine, target, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.split.to_string(),
                r.native.to_string(),
                format!("{:.2}x", r.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            title,
            &["kernel", "split cycles", "native cycles", "ratio"],
            &table
        )
    );
}
