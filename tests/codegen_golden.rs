//! The whole compile matrix's machine code, pinned without running it:
//! per suite kernel × benchmark target × flow, the JIT's instruction and
//! register counts, the decoded step count, the fusion counters, the
//! summed step costs and a 64-bit FNV-1a of the disassembly must equal
//! the columns of that tuple's first row in the cycle ledger
//! (`tests/golden/ledger.txt`). A refactor of the online stage that
//! changes a single emitted instruction anywhere fails here.
//!
//! The ledger is regenerated after an *intentional* codegen change with
//! `UPDATE_GOLDEN=1 cargo test --test matrix`.

mod common;

use std::collections::HashMap;

use common::{alias, bench_targets, fnv64, vls, LEDGER};
use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::disasm;

/// `jit.minsts` of the repo benchmark's `cold_compile`: the same tuples.
const MATRIX_MINSTS: usize = 206_796;

#[test]
fn codegen_matrix_matches_golden() {
    // The ledger's `[test]` rows by cell: `kernel target flow vl
    // placement` to the codegen columns (`insts sregs vregs steps fuse
    // cost`, then `fnv`).
    let ledger = std::fs::read_to_string(LEDGER).unwrap_or_else(|e| panic!("read {LEDGER}: {e}"));
    let rows: HashMap<String, String> = ledger
        .lines()
        .skip_while(|l| *l != "[test]")
        .take_while(|l| *l != "[full]")
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 19).then(|| {
                (
                    f[..5].join(" "),
                    format!("{} {}", f[8..14].join(" "), f[18]),
                )
            })
        })
        .collect();

    let engine = Engine::new();
    let cfg = CompileConfig::default();
    let mut minsts = 0;
    for spec in suite() {
        let kernel = spec.kernel();
        for target in bench_targets() {
            for flow in Flow::ALL {
                let key = format!(
                    "{} {} {flow} {} aligned",
                    spec.name,
                    alias(&target),
                    vls(&target)[0]
                );
                let c = engine
                    .compile(&kernel, flow, &target, &cfg)
                    .unwrap_or_else(|e| panic!("{key}: {e}"));
                let (code, decoded) = (&c.jit.code, &c.jit.decoded);
                let f = decoded.fusion_stats();
                let cost: u64 = decoded.steps().iter().map(|d| d.cost).sum();
                minsts += c.jit.stats.insts;
                let got = format!(
                    "{} {} {} {} {}/{}/{}/{}/{}/{} {cost} {:016x}",
                    c.jit.stats.insts,
                    code.n_sregs,
                    code.n_vregs,
                    decoded.n_steps(),
                    f.load_bin_store,
                    f.load_bin_store_vl,
                    f.load_bin_bin,
                    f.load_bin,
                    f.bin_store,
                    f.latch,
                    fnv64(&disasm(code)),
                );
                let want = rows
                    .get(&key)
                    .unwrap_or_else(|| panic!("{key}: no ledger row"));
                assert_eq!(&got, want, "{key}: insts sregs vregs steps fuse cost fnv");
            }
        }
    }
    assert_eq!(minsts, MATRIX_MINSTS, "the matrix's machine instructions");
}
