//! The paper's evaluation table as a cycle ledger: every suite kernel ×
//! target × flow × VL × placement through one engine and the harness's
//! comparer (`tests/common`), one row per cell.
//!
//! The walk writes `tests/golden/ledger.txt` and compares it exactly.
//! Its `[test]` section holds every aligned cell at `Scale::Test` on the
//! seven targets; its `[full]` section holds the repo benchmark's
//! `hot_loops` population: the optimizing split flow at `Scale::Full` on
//! the six benchmark targets, every VL, aligned and misaligned by 8
//! bytes. Regenerate it after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test matrix`; on a mismatch the fresh
//! ledger is written to `target/tmp/ledger.txt`. The reference forms,
//! misaligned placements, VL scaling and cache shape of the same matrix
//! are checked by `correctness_matrix`, `fusion_differential`,
//! `threaded_differential` and `vectorize_once`; `codegen_golden` holds
//! the compile matrix to the ledger's per-tuple columns.

mod common;

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{alias, bench_targets, cells, check_suite, fnv64, targets, Cell, LEDGER};
use vapor_core::{AllocPolicy, Engine, ExecOutcome, Flow};
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
# fuse = load_bin_store/load_bin_store_vl/load_bin_bin/load_bin/bin_store/latch,
# groups = vector/direct/tail, guards = folded/runtime, loops = vectorized/rejected
# kernel target flow vl placement cycles vm_insts bytes insts sregs vregs steps fuse cost groups helpers guards loops fnv
";

/// One ledger row and the numbers the totals are summed from.
struct Row {
    kernel: &'static str,
    target: TargetKind,
    flow: Flow,
    vl: usize,
    /// The first row of its compile tuple; per-tuple columns are summed
    /// over these.
    first: bool,
    cycles: u64,
    bytes: usize,
    minsts: usize,
    text: String,
}

fn row(engine: &Engine, name: &'static str, cell: &Cell<'_>, out: &ExecOutcome) -> Row {
    let c = &out.compiled;
    let (code, s) = (&c.jit.code, &c.jit.stats);
    // The program the cell executed: the compile's own decode, or its
    // specialization to the cell's VL.
    let (_, prog) = engine
        .specialize(cell.kernel, cell.flow, cell.target, &cell.cfg, cell.vl)
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    let f = prog.fusion_stats();
    let cost: u64 = prog.steps().iter().map(|d| d.cost).sum();
    let vectorized = c.reports.iter().filter(|r| r.vectorized).count();
    let placement = match cell.policy {
        AllocPolicy::Aligned => "aligned".to_owned(),
        AllocPolicy::Misaligned(k) => format!("mis{k}"),
    };
    let text = format!(
        "{name} {} {} {} {placement} {} {} {} {} {} {} {} {}/{}/{}/{}/{}/{} {cost} {}/{}/{} {} {}/{} \
         {vectorized}/{} {:016x}",
        alias(cell.target),
        cell.flow,
        cell.vl,
        out.stats.cycles,
        out.stats.insts,
        c.bytecode_bytes,
        s.insts,
        code.n_sregs,
        code.n_vregs,
        prog.n_steps(),
        f.load_bin_store,
        f.load_bin_store_vl,
        f.load_bin_bin,
        f.load_bin,
        f.bin_store,
        f.latch,
        s.groups_vector,
        s.groups_direct_scalar,
        s.groups_tail_scalar,
        s.helper_calls,
        s.guards_folded,
        s.guards_runtime,
        c.reports.len() - vectorized,
        fnv64(&disasm(code)),
    );
    Row {
        kernel: name,
        target: cell.target.kind,
        flow: cell.flow,
        vl: cell.vl,
        first: cell.vl == common::vls(cell.target)[0] && cell.policy == AllocPolicy::Aligned,
        cycles: out.stats.cycles,
        bytes: c.bytecode_bytes,
        minsts: s.insts,
        text,
    }
}

/// Walk one kernel's cells; its `[test]` and `[full]` rows.
fn walk_kernel(engine: &Engine, spec: &KernelSpec) -> (Vec<Row>, Vec<Row>) {
    let mut test = Vec::new();
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        engine,
        std::slice::from_ref(spec),
        &targets(),
        &Flow::ALL,
        &aligned,
        &[],
        |cell, out| {
            test.push(row(engine, spec.name, cell, out));
        },
    );

    let kernel = spec.kernel();
    let env = spec.env(Scale::Full);
    let bench = bench_targets();
    let placements = [AllocPolicy::Aligned, AllocPolicy::Misaligned(8)];
    let full = cells(&kernel, &env, &bench, &[Flow::SplitVectorOpt], &placements)
        .map(|cell| {
            let out = engine
                .execute(&cell.request())
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            row(engine, spec.name, &cell, &out)
        })
        .collect();
    (test, full)
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
    let (mut test, mut full) = (Vec::new(), Vec::new());
    for (_, (kernel_test, kernel_full)) in walked {
        test.extend(kernel_test);
        full.extend(kernel_full);
    }

    let mut text = HEADER.to_owned();
    for (section, rows) in [("[test]", &test), ("[full]", &full)] {
        text.push_str(section);
        text.push('\n');
        for r in rows {
            text.push_str(&r.text);
            text.push('\n');
        }
    }
    compare_ledger(&text);

    let cold: Vec<&Row> = test
        .iter()
        .filter(|r| r.target != TargetKind::ScalarOnly)
        .collect();
    assert_eq!(cold.len(), 2688);
    assert_eq!(cold.iter().map(|r| r.cycles).sum::<u64>(), COLD_CYCLES);
    let tuple_firsts = || cold.iter().filter(|r| r.first);
    assert_eq!(tuple_firsts().map(|r| r.bytes).sum::<usize>(), COLD_BYTES);
    assert_eq!(tuple_firsts().map(|r| r.minsts).sum::<usize>(), COLD_MINSTS);
    // `warm_small`: the kernels under 1 000 cycles on SSE, optimizing
    // split flow, at the fixed widths and VL 128 and 2048.
    let opt = || cold.iter().filter(|r| r.flow == Flow::SplitVectorOpt);
    let small: HashSet<&str> = opt()
        .filter(|r| r.target == TargetKind::Sse && r.cycles < 1000)
        .map(|r| r.kernel)
        .collect();
    assert_eq!(small.len(), 11);
    let warm = opt().filter(|r| small.contains(r.kernel) && (r.first || r.vl == 2048));
    assert_eq!(warm.map(|r| r.cycles).sum::<u64>(), WARM_SMALL_CYCLES);
    assert_eq!(full.len(), 896);
    assert_eq!(full.iter().map(|r| r.cycles).sum::<u64>(), HOT_CYCLES);
    let hot_bytes: usize = full.iter().filter(|r| r.first).map(|r| r.bytes).sum();
    assert_eq!(hot_bytes, HOT_BYTES);
}

/// Compare `text` with the committed ledger, or rewrite it under
/// `UPDATE_GOLDEN`. On a mismatch the fresh ledger goes to the test's
/// target tmp dir, and the panic names the first cells that moved.
fn compare_ledger(text: &str) {
    let path = LEDGER;
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_default();
    if text == want {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger.txt");
    std::fs::write(&fresh, text).unwrap_or_else(|e| panic!("write {}: {e}", fresh.display()));
    let moved: Vec<String> = want
        .lines()
        .zip(text.lines())
        .filter(|(w, g)| w != g)
        .take(20)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    panic!(
        "the ledger moved ({} rows committed, {} walked); fresh ledger: {}; regenerate with \
         UPDATE_GOLDEN=1 if intended. First moved rows:\n{}",
        want.lines().count(),
        text.lines().count(),
        fresh.display(),
        moved.join("\n")
    );
}
