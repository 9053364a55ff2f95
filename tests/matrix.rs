//! The paper's evaluation table as a cycle ledger: every suite kernel ×
//! target × flow × VL × placement through one engine and the harness's
//! comparer (`tests/common`), one row per cell, each checked against the
//! IR interpreter.
//!
//! The walk writes `tests/golden/ledger.txt` and compares it exactly.
//! Its `[test]` section holds every aligned cell at `Scale::Test` on the
//! seven targets; its `[full]` section holds the repo benchmark's
//! `hot_loops` population: the optimizing split flow at `Scale::Full` on
//! the six benchmark targets, every VL, aligned and misaligned by 8
//! bytes; its `[paper]` section holds the other Full-scale cells the
//! figures and the paper claims read (`vapor_bench::ledger::paper_cells`).
//! Regenerate it after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test matrix`; on a mismatch the fresh
//! ledger is written to `target/tmp/ledger.txt`. The reference forms,
//! misaligned placements and cache shape of the same matrix are checked
//! by `correctness_matrix`, `fusion_differential`,
//! `threaded_differential` and `vectorize_once`.

mod common;

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{bench_targets, cells, check, check_suite, targets, Cell};
use vapor_bench::ledger::{self, first_vl, fnv64, paper_cells, placement, Ledger, Row};
use vapor_core::{reference, AllocPolicy, Engine, ExecOutcome, Flow};
use vapor_kernels::{suite, KernelSpec, Scale};
use vapor_targets::{disasm, TargetKind};

/// The repo benchmark's seed-invariant totals, which the ledger must
/// reproduce: `cold_compile`'s `vm_cycles`, `bytecode_bytes` and
/// `jit.minsts` (the `[test]` section on the six benchmark targets),
/// `warm_small`'s `vm_cycles`, and `hot_loops`' `vm_cycles` and
/// `bytecode_bytes` (the `[full]` section).
const COLD_CYCLES: u64 = 227_608_467;
const COLD_BYTES: usize = 1_057_574;
const COLD_MINSTS: usize = 206_796;
const WARM_SMALL_CYCLES: u64 = 38_566;
const HOT_CYCLES: u64 = 292_152_563;
const HOT_BYTES: usize = 311_760;

const HEADER: &str = "\
# The cycle ledger: one row per matrix cell, written by tests/matrix.rs.
# Regenerate: UPDATE_GOLDEN=1 cargo test --test matrix
# [test] = every aligned cell at Scale::Test, [full] = the hot_loops cells at Scale::Full,
# [paper] = the other Full-scale cells the figures read; placement +switch = a CompileConfig switch
# fuse = load_bin_store/load_bin_store_vl/load_bin_bin/load_bin/bin_store/latch,
# groups = vector/direct/tail, guards = folded/runtime, loops = vectorized/rejected
# kernel target flow vl placement cycles vm_insts bytes insts sregs vregs steps fuse cost groups helpers guards loops fnv
";

fn row(engine: &Engine, name: &str, cell: &Cell<'_>, out: &ExecOutcome) -> Row {
    let c = &out.compiled;
    let (code, s) = (&c.jit.code, &c.jit.stats);
    // The program the cell executed: the compile's own decode, or its
    // specialization to the cell's VL.
    let (_, prog) = engine
        .specialize(cell.kernel, cell.flow, cell.target, &cell.cfg, cell.vl)
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    let f = prog.fusion_stats();
    let vectorized = c.reports.iter().filter(|r| r.vectorized).count();
    Row {
        kernel: name.to_owned(),
        target: cell.target.kind,
        flow: cell.flow,
        vl: cell.vl,
        placement: placement(cell.policy, &cell.cfg),
        cycles: out.stats.cycles,
        vm_insts: out.stats.insts,
        bytes: c.bytecode_bytes,
        insts: s.insts,
        sregs: code.n_sregs,
        vregs: code.n_vregs,
        steps: prog.n_steps(),
        fuse: [
            f.load_bin_store,
            f.load_bin_store_vl,
            f.load_bin_bin,
            f.load_bin,
            f.bin_store,
            f.latch,
        ],
        cost: prog.steps().iter().map(|d| d.cost).sum(),
        groups: [
            s.groups_vector,
            s.groups_direct_scalar,
            s.groups_tail_scalar,
        ],
        helpers: s.helper_calls,
        guards: [s.guards_folded, s.guards_runtime],
        loops: [vectorized, c.reports.len() - vectorized],
        fnv: fnv64(&disasm(code)),
    }
}

/// Whether `r` is its compile tuple's first row (the first VL, aligned,
/// default config): per-tuple columns are summed over these.
fn first(r: &Row) -> bool {
    r.vl == first_vl(r.target) && r.placement == "aligned"
}

/// Walk one kernel's cells; its `[test]`, `[full]` and `[paper]` rows.
fn walk_kernel(engine: &Engine, spec: &KernelSpec) -> [Vec<Row>; 3] {
    let mut test = Vec::new();
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        engine,
        std::slice::from_ref(spec),
        &targets(),
        &Flow::ALL,
        &aligned,
        &[],
        |cell, out| test.push(row(engine, spec.name, cell, out)),
    );

    let kernel = spec.kernel();
    let env = spec.env(Scale::Full);
    let oracle =
        reference(&kernel, &env).unwrap_or_else(|e| panic!("{}: oracle failed: {e}", spec.name));
    let run = |cell: &Cell<'_>| {
        let out = check(engine, cell, &oracle, &[]).unwrap_or_else(|e| panic!("{e}"));
        row(engine, spec.name, cell, &out)
    };
    let bench = bench_targets();
    let placements = [AllocPolicy::Aligned, AllocPolicy::Misaligned(8)];
    let full = cells(&kernel, &env, &bench, &[Flow::SplitVectorOpt], &placements)
        .map(|cell| run(&cell))
        .collect();
    let paper = paper_cells()
        .into_iter()
        .filter(|c| c.kernel == spec.name)
        .map(|c| {
            run(&Cell {
                kernel: &kernel,
                env: &env,
                target: &vapor_targets::target(c.target),
                flow: c.flow,
                vl: first_vl(c.target),
                policy: AllocPolicy::Aligned,
                cfg: c.cfg,
            })
        })
        .collect();
    [test, full, paper]
}

#[test]
fn every_cell_matches_the_oracle_and_the_ledger() {
    let engine = Engine::new();
    let specs = suite();
    // Kernels are independent: walk them on every core, the heavier
    // Polybench kernels at the end of the suite first, then put the rows
    // back in suite order.
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut walked: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(|| {
                        let taken = next.fetch_add(1, Ordering::Relaxed);
                        let i = specs.len().checked_sub(taken + 1)?;
                        Some((i, walk_kernel(&engine, &specs[i])))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a kernel walk panicked"))
            .collect()
    });
    walked.sort_unstable_by_key(|(i, _)| *i);
    let mut sections = [Vec::new(), Vec::new(), Vec::new()];
    for (_, rows) in walked {
        for (section, kernel_rows) in sections.iter_mut().zip(rows) {
            section.extend(kernel_rows);
        }
    }
    let [test, full, paper] = sections;
    assert_eq!(paper.len(), paper_cells().len());
    let ledger = Ledger {
        header: HEADER.to_owned(),
        sections: vec![
            ("test".into(), test),
            ("full".into(), full),
            ("paper".into(), paper),
        ],
    };
    compare_ledger(&ledger);
    let (test, full) = (ledger.section("test"), ledger.section("full"));

    let cold: Vec<&Row> = test
        .iter()
        .filter(|r| r.target != TargetKind::ScalarOnly)
        .collect();
    assert_eq!(cold.len(), 2688);
    assert_eq!(cold.iter().map(|r| r.cycles).sum::<u64>(), COLD_CYCLES);
    let tuple_firsts = || cold.iter().filter(|r| first(r));
    assert_eq!(tuple_firsts().map(|r| r.bytes).sum::<usize>(), COLD_BYTES);
    assert_eq!(tuple_firsts().map(|r| r.insts).sum::<usize>(), COLD_MINSTS);
    // `warm_small`: the kernels under 1 000 cycles on SSE, optimizing
    // split flow, at the fixed widths and VL 128 and 2048.
    let opt = || cold.iter().filter(|r| r.flow == Flow::SplitVectorOpt);
    let small: HashSet<&str> = opt()
        .filter(|r| r.target == TargetKind::Sse && r.cycles < 1000)
        .map(|r| r.kernel.as_str())
        .collect();
    assert_eq!(small.len(), 11);
    let warm = opt().filter(|r| small.contains(r.kernel.as_str()) && (first(r) || r.vl == 2048));
    assert_eq!(warm.map(|r| r.cycles).sum::<u64>(), WARM_SMALL_CYCLES);
    assert_eq!(full.len(), 896);
    assert_eq!(full.iter().map(|r| r.cycles).sum::<u64>(), HOT_CYCLES);
    let hot_bytes: usize = full.iter().filter(|r| first(r)).map(|r| r.bytes).sum();
    assert_eq!(hot_bytes, HOT_BYTES);
}

/// Compare `fresh` with the committed ledger, or rewrite it under
/// `UPDATE_GOLDEN`. On a mismatch the fresh ledger goes to the test's
/// target tmp dir, and the panic names the cells that moved, were added
/// or were removed.
fn compare_ledger(fresh: &Ledger) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledger.txt");
    let text = fresh.to_string();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_default();
    if text == want {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger.txt");
    std::fs::write(&out, &text).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    let committed: Ledger = want
        .parse()
        .unwrap_or_else(|e| panic!("{path}: {e}; fresh ledger: {}", out.display()));
    panic!(
        "the ledger moved: {}\nfresh ledger: {}; regenerate with UPDATE_GOLDEN=1 if intended \
         (a header-only change moves no row)",
        ledger::diff(&committed, fresh),
        out.display(),
    );
}
