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
//! ledger is written to `target/tmp/ledger.txt`.
//!
//! The same walk also checks:
//! - every program a cell ran: it is the compilation's own decode at
//!   every VL, a predicated op never falls back to the generic step,
//!   and a VLA program decoded at its family minimum equals one decoded
//!   at the cell's VL;
//! - vectorize once: the engine has an artifact store, every
//!   split-vector tuple of a kernel and config consumes one bytecode
//!   function, and the engine's counters show one compile per key, one
//!   offline build per (kernel, shape, config) and one `.vsart` per key.
//!
//! The VM's reference forms and the misaligned `Scale::Test` placements
//! are checked on their own slices of the table by
//! `fusion_differential` and `correctness_matrix`.

mod common;

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{bench_targets, cells, targets, Cell};
use vapor_bench::ledger::{self, first_vl, fnv64, paper_cells, placement, Ledger, Row};
use vapor_bytecode::BcFunction;
use vapor_core::{reference, AllocPolicy, CompileConfig, Engine, Flow};
use vapor_ir::{Bindings, ScalarTy};
use vapor_kernels::{suite, KernelSpec, Scale};
use vapor_targets::{
    disasm, disasm_decoded, disasm_inst, DStep, DecodedProgram, MCode, MInst, TargetKind,
};

/// The repo benchmark's seed-invariant totals, which the ledger must
/// reproduce: `cold_compile`'s `vm_cycles`, `bytecode_bytes` and
/// `jit.minsts` (the `[test]` section on the six benchmark targets),
/// `warm_small`'s `vm_cycles`, and `hot_loops`' `vm_cycles` and
/// `bytecode_bytes` (the `[full]` section).
const COLD_CYCLES: u64 = 203_915_955;
const COLD_BYTES: usize = 1_057_574;
const COLD_MINSTS: usize = 201_529;
const WARM_SMALL_CYCLES: u64 = 35_081;
const HOT_CYCLES: u64 = 215_262_204;
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

/// An engine compile key: kernel, flow, target and config.
type CompileKey = (&'static str, Flow, TargetKind, CompileConfig);

/// The key of the offline artifact `key` consumes: the split-vector
/// flows share a vectorized artifact and the scalar flows a scalar one
/// across every target; only native-vector feeds the target to the
/// offline stage.
fn offline_key(key: &CompileKey) -> (&str, &str, Option<TargetKind>, &CompileConfig) {
    let (kernel, flow, target, cfg) = key;
    let shape = match flow {
        Flow::SplitVectorNaive | Flow::SplitVectorOpt => "vector",
        Flow::NativeVector => "native",
        Flow::SplitScalarNaive | Flow::SplitScalarOpt | Flow::NativeScalar => "scalar",
    };
    let native = (*flow == Flow::NativeVector).then_some(*target);
    (kernel, shape, native, cfg)
}

/// What the whole-walk checks need from each kernel's walk.
#[derive(Default)]
struct Tally {
    /// Every compile key a cell requested.
    keys: HashSet<CompileKey>,
    /// Predicated ops (`VBinVlFast`, or swallowed by
    /// `FusedLoadBinStoreVl`) in the programs the cells ran.
    fast_vl_ops: usize,
}

/// One kernel's walk over the shared engine.
struct KernelWalk<'e> {
    engine: &'e Engine,
    name: &'static str,
    tally: Tally,
    /// Per config, the bytecode function every split-vector tuple of
    /// the kernel consumes.
    split_vector: HashMap<CompileConfig, Arc<BcFunction>>,
}

impl KernelWalk<'_> {
    /// Check `cell` against `oracle`, record its compile key and
    /// bytecode function, and return its ledger row.
    fn row(&mut self, cell: &Cell<'_>, oracle: &Bindings) -> Row {
        let out = common::check(self.engine, cell, oracle, &[]).unwrap_or_else(|e| panic!("{e}"));
        let key = (self.name, cell.flow, cell.target.kind, cell.cfg.clone());
        self.tally.keys.insert(key);
        let func = &out.compiled.func;
        if matches!(cell.flow, Flow::SplitVectorNaive | Flow::SplitVectorOpt) {
            let shared = self
                .split_vector
                .entry(cell.cfg.clone())
                .or_insert_with(|| Arc::clone(func));
            assert!(
                Arc::ptr_eq(shared, func),
                "{cell}: every split-vector tuple must consume one bytecode function"
            );
        }
        let c = &out.compiled;
        let (code, s) = (&c.jit.code, &c.jit.stats);
        // The program the cell executed: the compile's own decode, at
        // every VL.
        let (_, prog) = self
            .engine
            .specialize(cell.kernel, cell.flow, cell.target, &cell.cfg, cell.vl)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert!(Arc::ptr_eq(&prog, &c.jit.decoded), "{cell}");
        self.tally.fast_vl_ops += check_program(cell, code, &prog);
        // The static cost at the cell's width: the decode's
        // width-independent costs plus the width-dependent part.
        let exec = cell.exec_target();
        let lanes = |ty: ScalarTy| (exec.vs / ty.size()).max(1);
        let vl_cost: u64 = code.insts.iter().map(|i| exec.cost.vl_cost(i, lanes)).sum();
        let f = prog.fusion_stats();
        let vectorized = c.reports.iter().filter(|r| r.vectorized).count();
        Row {
            kernel: self.name.to_owned(),
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
            cost: prog.steps().iter().map(|d| d.cost).sum::<u64>() + vl_cost,
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
}

/// Check the program a cell ran, and return how many predicated ops it
/// runs on a fast kernel. No predicated op falls back to the generic
/// `Op` step, and on a VLA family the engine's one decode (at the family
/// minimum) is exactly a fresh decode at the cell's VL: fusion
/// decisions, steps, and every step's cost and arity.
fn check_program(cell: &Cell<'_>, code: &MCode, prog: &DecodedProgram) -> usize {
    let mut fast = 0;
    for d in prog.steps() {
        match &d.step {
            // A predicated op swallowed by the LoadVl→VBinVl→StoreVl
            // superinstruction still runs the fast lane kernel.
            DStep::VBinVlFast { .. } | DStep::FusedLoadBinStoreVl(_) => fast += 1,
            DStep::Op(inst @ (MInst::VBinVl { .. } | MInst::VUnVl { .. })) => panic!(
                "{cell}: predicated op fell back to the generic path: {}",
                disasm_inst(inst)
            ),
            _ => {}
        }
    }
    if cell.target.vla {
        let exec = cell.exec_target();
        let fresh = DecodedProgram::decode(code, &exec)
            .unwrap_or_else(|e| panic!("{cell}: fresh decode: {e}"));
        assert_eq!(prog.fusion_stats(), fresh.fusion_stats(), "{cell}");
        assert_eq!(
            disasm_decoded(prog, &exec),
            disasm_decoded(&fresh, &exec),
            "{cell}"
        );
        for (a, b) in prog.steps().iter().zip(fresh.steps()) {
            assert_eq!((a.cost, a.arity), (b.cost, b.arity), "{cell}");
        }
    }
    fast
}

/// Whether `r` is its compile tuple's first row (the first VL, aligned,
/// default config): per-tuple columns are summed over these.
fn first(r: &Row) -> bool {
    r.vl == first_vl(r.target) && r.placement == "aligned"
}

/// Walk one kernel's cells: its `[test]`, `[full]` and `[paper]` rows,
/// and its tally.
fn walk_kernel(engine: &Engine, spec: &KernelSpec) -> ([Vec<Row>; 3], Tally) {
    let mut walk = KernelWalk {
        engine,
        name: spec.name,
        tally: Tally::default(),
        split_vector: HashMap::new(),
    };
    let kernel = spec.kernel();
    let oracle = |env: &Bindings| {
        reference(&kernel, env).unwrap_or_else(|e| panic!("{}: oracle failed: {e}", spec.name))
    };

    let env = spec.env(Scale::Test);
    let want = oracle(&env);
    let all = targets();
    let test = cells(&kernel, &env, &all, &Flow::ALL, &[AllocPolicy::Aligned])
        .map(|cell| walk.row(&cell, &want))
        .collect();

    let env = spec.env(Scale::Full);
    let want = oracle(&env);
    let bench = bench_targets();
    let placements = [AllocPolicy::Aligned, AllocPolicy::Misaligned(8)];
    let full = cells(&kernel, &env, &bench, &[Flow::SplitVectorOpt], &placements)
        .map(|cell| walk.row(&cell, &want))
        .collect();
    let paper = paper_cells()
        .into_iter()
        .filter(|c| c.kernel == spec.name)
        .map(|c| {
            let cell = Cell {
                kernel: &kernel,
                env: &env,
                target: &vapor_targets::target(c.target),
                flow: c.flow,
                vl: first_vl(c.target),
                policy: AllocPolicy::Aligned,
                cfg: c.cfg,
            };
            walk.row(&cell, &want)
        })
        .collect();
    ([test, full, paper], walk.tally)
}

#[test]
fn every_cell_matches_the_oracle_and_the_ledger() {
    // The artifact store lives under the target dir (which `cargo
    // clean` empties), named per process so that two runs sharing the
    // target dir keep apart, and emptied on entry; the walk removes it
    // when it passes.
    let store = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("matrix-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let engine = Engine::builder().artifact_dir(&store).build().unwrap();
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
    let mut tally = Tally::default();
    for (_, (rows, t)) in walked {
        for (section, kernel_rows) in sections.iter_mut().zip(rows) {
            section.extend(kernel_rows);
        }
        tally.keys.extend(t.keys);
        tally.fast_vl_ops += t.fast_vl_ops;
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

    assert!(
        tally.fast_vl_ops > 0,
        "the suite must exercise VBinVlFast at least once"
    );

    // Vectorize once. The `[full]` cells reuse the `[test]` compile
    // keys, and the `[paper]` ablation configs add their own: whatever
    // the VL, placement or scale, a key compiles once, an offline
    // artifact is built once per (kernel, shape, config), and every key
    // keeps its own `.vsart`.
    let s = engine.stats();
    assert_eq!(s.misses, tally.keys.len() as u64, "one compile per key");
    let offline: HashSet<_> = tally.keys.iter().map(offline_key).collect();
    assert_eq!(
        s.misses - s.offline_hits,
        offline.len() as u64,
        "the offline stage must run once per (kernel, shape, config)"
    );
    assert_eq!(s.artifact_writes, s.misses, "one artifact write per key");
    assert_eq!(
        engine.artifact_store().unwrap().len() as u64,
        s.misses,
        "one .vsart per key"
    );
    std::fs::remove_dir_all(&store).unwrap();
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
