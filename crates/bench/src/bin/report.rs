//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p vapor-bench --bin report              # everything
//! cargo run --release -p vapor-bench --bin report fig5a       # one experiment
//! cargo run --release -p vapor-bench --bin report --target=sse        # one target's figures
//! cargo run --release -p vapor-bench --bin report --flow=native-vector --kernel=saxpy_fp
//! ```
//!
//! The cycle figures are selections over the committed cycle ledger
//! (`vapor_bench::ledger`): they execute nothing. `--flow=` and
//! `--kernel=` (narrowed by `--target=`) print the matching rows of the
//! ledger, in its own format, instead of the figures.

use std::fmt;

use vapor_bench::ledger::{alias, committed, flow_named, target_named, Row};
use vapor_bench::{
    ablation, fig5, fig6, format_table, geomean, realign_reuse_ablation, size_and_time, table3,
    vla_gains,
};
use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::TargetKind::{self, Altivec, Avx, Neon64, Rvv, Sse, Sve};

/// Prints one experiment, given the `--target=` filter.
type Print = fn(&Engine, Option<TargetKind>);

/// One experiment: its name, the targets it reports on, its printer.
type Experiment = (&'static str, &'static [TargetKind], Print);

const EXPERIMENTS: [Experiment; 11] = [
    ("fig5a", &[Sse], |_, _| print_fig5("5a", "SSE", Sse)),
    ("fig5b", &[Altivec], |_, _| {
        print_fig5("5b", "AltiVec", Altivec)
    }),
    ("ablation", &[Sse, Altivec], |_, t| print_ablation(t)),
    ("realign", &[Altivec], |_, _| print_realign()),
    ("size", &[Sse], |_, _| print_size()),
    ("fig6a", &[Sse], |_, _| print_fig6("6a", "SSE", Sse)),
    ("fig6b", &[Altivec], |_, _| {
        print_fig6("6b", "AltiVec", Altivec)
    }),
    ("fig6c", &[Neon64], |_, _| {
        print_fig6("6c", "NEON (64-bit)", Neon64)
    }),
    ("table3", &[Avx], |engine, _| print_table3(engine)),
    ("vla", &[Sve, Rvv], |_, t| print_vla(t)),
    ("vmperf", &[Sse, Sve], |engine, _| print_vmperf(engine)),
];

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(key))
}

fn exit_with(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flow_filter = flag_value(&args, "--flow=").map(|v| {
        flow_named(v).unwrap_or_else(|| {
            let known = Flow::ALL.map(|f| f.to_string()).join(", ");
            exit_with(format!("unknown flow {v:?}; known flows: {known}"))
        })
    });
    let target_filter = flag_value(&args, "--target=").map(|v| {
        target_named(&v.to_ascii_lowercase()).unwrap_or_else(|| {
            let known = TargetKind::ALL.map(alias).join(", ");
            exit_with(format!("unknown target {v:?}; known targets: {known}"))
        })
    });
    let kernel_filter = flag_value(&args, "--kernel=");

    // Focused mode: the matching rows of the ledger, in its own format.
    if flow_filter.is_some() || kernel_filter.is_some() {
        let mut picked = committed().clone();
        for (_, rows) in &mut picked.sections {
            rows.retain(|r| {
                flow_filter.is_none_or(|f| f == r.flow)
                    && target_filter.is_none_or(|t| t == r.target)
                    && kernel_filter.is_none_or(|k| k == r.kernel)
            });
        }
        picked.sections.retain(|(_, rows)| !rows.is_empty());
        if picked.sections.is_empty() {
            exit_with("no ledger row matches the given filters".into());
        }
        print!("{picked}");
        return;
    }

    let names = EXPERIMENTS.map(|(name, ..)| name);
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    // Reject typos before any section runs rather than falling through
    // to the nothing-printed error at the end.
    if let Some(bad) = wanted.iter().find(|w| !names.contains(w)) {
        let known = names.join(", ");
        exit_with(format!(
            "unknown experiment {bad:?}; known experiments: {known}"
        ));
    }
    // Finishing a filtered run without output is an error (listing what
    // exists), not a silent no-op.
    let mut printed = false;
    let engine = Engine::new();
    for (name, targets, print) in EXPERIMENTS {
        let want_target = target_filter.is_none_or(|t| targets.contains(&t));
        if (wanted.is_empty() || wanted.contains(&name)) && want_target {
            printed = true;
            print(&engine, target_filter);
        }
    }
    if !printed {
        exit_with(format!(
            "nothing to report: no experiment matches the given filters. \
             Experiments: {} — each tied to specific targets \
             (known targets: {}). Use --flow= or --kernel= for the \
             ledger's cycle rows on any target.",
            names.join(" "),
            TargetKind::ALL.map(alias).join(", ")
        ));
    }
}

fn print_table(title: &str, headers: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    println!("{}", format_table(title, headers, &rows));
}

fn cells<const N: usize>(vals: [&dyn fmt::Display; N]) -> Vec<String> {
    vals.iter().map(|v| v.to_string()).collect()
}

fn times(v: f64) -> String {
    format!("{v:.2}x")
}

fn print_ablation(target_filter: Option<TargetKind>) {
    let rows: Vec<_> = ablation()
        .into_iter()
        .filter(|r| target_filter.is_none_or(|t| vapor_targets::target(t).name == r.target))
        .collect();
    print_table(
        "§V-A(b) — alignment optimizations disabled (naive JIT)",
        &["kernel", "target", "with", "without", "degradation"],
        rows.iter()
            .map(|r| cells([&r.name, &r.target, &r.base, &r.variant, &times(r.ratio)])),
    );
    println!(
        "average degradation factor: {:.2}x (paper: ~2.5x)\n",
        geomean(rows.iter().map(|r| r.ratio))
    );
}

fn print_realign() {
    print_table(
        "§III-A design-choice ablation — optimized realignment disabled (AltiVec, opt online)",
        &["kernel", "with reuse", "without", "slowdown"],
        realign_reuse_ablation()
            .iter()
            .map(|r| cells([&r.name, &r.base, &r.variant, &times(r.ratio)])),
    );
}

fn print_size() {
    let rows = size_and_time(&vapor_targets::sse());
    print_table(
        "§V-A(c) — bytecode size and online compile time (naive JIT, SSE)",
        &[
            "kernel",
            "scalar B",
            "vector B",
            "size ratio",
            "scalar µs",
            "vector µs",
            "time ratio",
        ],
        rows.iter().map(|r| {
            let (sb, vb) = (&r.scalar_bytes, &r.vector_bytes);
            let (su, vu) = (format!("{:.1}", r.scalar_us), format!("{:.1}", r.vector_us));
            let size = times(r.vector_bytes as f64 / r.scalar_bytes as f64);
            let time = times(r.vector_us / r.scalar_us);
            cells([&r.name, sb, vb, &size, &su, &vu, &time])
        }),
    );
    let s = geomean(
        rows.iter()
            .map(|r| r.vector_bytes as f64 / r.scalar_bytes as f64),
    );
    let t = geomean(rows.iter().map(|r| r.vector_us / r.scalar_us));
    println!("geomean size ratio: {s:.2}x (paper: ~5x); geomean compile-time ratio: {t:.2}x (paper: 4.85x/5.37x)\n");
}

fn print_table3(engine: &Engine) {
    print_table(
        "Table 3 — AVX cycles per vector-loop iteration (IACA-style static analysis)",
        &["kernel", "native", "split", "SDE validation"],
        table3(engine).iter().map(|r| {
            let validation = if r.validated { "ok" } else { "FAIL" };
            cells([&r.name, &r.native, &r.split, &validation])
        }),
    );
}

/// The VM-performance tables: what one register move costs per target
/// class (the seed kept every register at MAX_VS bytes), what the
/// superinstruction fusion pass collapses per kernel, and why every
/// scalar loop stayed scalar.
fn print_vmperf(engine: &Engine) {
    use vapor_targets::{VBytes, MAX_VS};

    let (seed, sized) = (format!("{MAX_VS} B"), std::mem::size_of::<VBytes>());
    let reduction = format!("{:.1}x", MAX_VS as f64 / sized as f64);
    let row = |path: &str, how: &str, gain: &str| {
        cells([&path, &seed, &format!("{sized} B ({how})"), &gain])
    };
    print_table(
        "VM register file — bytes moved per register write (seed vs target-sized)",
        &["path", "seed (MAX_VS)", "sized", "reduction"],
        [
            row(
                "register move, fixed-width (SSE/NEON/AVX)",
                "inline",
                &reduction,
            ),
            row("register move, VLA ≤ 256-bit", "inline", &reduction),
            row(
                "register move, VLA > 256-bit",
                "boxed, recycled",
                "alloc-free",
            ),
        ],
    );

    // Superinstruction fusion: the per-kernel inventory of fused steps,
    // read from the ledger's compile columns.
    let opt_sse: Vec<&Row> = committed()
        .section("test")
        .iter()
        .filter(|r| r.target == Sse && r.flow == Flow::SplitVectorOpt)
        .collect();
    print_table(
        "Superinstruction fusion — decoded steps and per-pattern hits (SSE, opt online)",
        &[
            "kernel", "insts", "steps", "ld+op+st", "ld+op+op", "ld+op", "op+st", "latch",
        ],
        opt_sse.iter().map(|r| {
            let [lbs, _, lbb, lb, bs, latch] = &r.fuse;
            cells([&r.kernel, &r.insts, &r.steps, lbs, lbb, lb, bs, latch])
        }),
    );
    let three_op = opt_sse
        .iter()
        .filter(|r| r.fuse[..3].iter().sum::<u32>() > 0);
    println!(
        "three-op superinstructions fire on {}/{} suite kernels; \
         the predicated VLA form (ld.vl+op.vl+st.vl) fuses on the SVE/RVV family \
         (every target's counts pinned in tests/golden/ledger.txt)\n",
        three_op.count(),
        opt_sse.len()
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
    let (cfg, sse) = (CompileConfig::default(), vapor_targets::sse());
    let mut rows = Vec::new();
    for spec in suite() {
        let Ok(c) = engine.compile(&spec.kernel(), Flow::SplitVectorOpt, &sse, &cfg) else {
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
            let mode = |vectorized| if vectorized { "vec" } else { "scalar" };
            let parts: Vec<String> = r
                .parts
                .iter()
                .map(|p| format!("{:?}={}", p.stmts, mode(p.vectorized)))
                .collect();
            let parts = if parts.is_empty() {
                "-".to_string()
            } else {
                parts.join(" ")
            };
            let verdict = if r.vectorized { "vector" } else { "scalar" };
            let name = spec.name;
            rows.push(cells([&name, &r.description, &verdict, &reason, &parts]));
        }
    }
    print_table(
        "Planner verdicts — scalar loops, typed reasons, and SCC partitions (SSE, opt online)",
        &["kernel", "loop", "verdict", "why scalar", "sccs"],
        rows,
    );
}

/// The VLA gains of SVE and RVV, or of the `--target=` one.
fn print_vla(target_filter: Option<TargetKind>) {
    for family in [Sve, Rvv] {
        if target_filter.is_some_and(|t| t != family) {
            continue;
        }
        let rows = vla_gains(family);
        let vls: Vec<usize> = rows[0].per_vl.iter().map(|(vl, _, _)| *vl).collect();
        let mut headers: Vec<String> = vec!["kernel".into(), "scalar".into()];
        headers.extend(vls.iter().map(|vl| format!("VL={vl}")));
        let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
        let name = vapor_targets::target(family).name;
        print_table(
            &format!("VLA gains — one VL-agnostic artifact, specialized per runtime VL ({name})"),
            &header_refs,
            rows.iter().map(|r| {
                let mut row = cells([&r.name, &r.scalar]);
                row.extend(r.per_vl.iter().map(|(_, c, g)| format!("{c} ({g:.2}x)")));
                row
            }),
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
}

fn print_fig5(figure: &str, label: &str, target: TargetKind) {
    let f = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            format!("{v:.2}")
        }
    };
    print_table(
        &format!("Figure {figure} — Mono-class JIT, normalized vectorization impact, {label}"),
        &["kernel", "JIT speedup", "native speedup", "impact"],
        fig5(target).iter().map(|r| {
            let (jit, native) = (f(r.jit_speedup), f(r.native_speedup));
            cells([&r.name, &jit, &native, &times(r.impact)])
        }),
    );
}

fn print_fig6(figure: &str, label: &str, target: TargetKind) {
    print_table(
        &format!("Figure {figure} — split/native normalized execution time, {label}"),
        &["kernel", "split cycles", "native cycles", "ratio"],
        fig6(target)
            .iter()
            .map(|r| cells([&r.name, &r.variant, &r.base, &times(r.ratio)])),
    );
}
