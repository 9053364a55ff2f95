//! The whole compile matrix's machine code, pinned: one line per suite
//! kernel × target × flow with the JIT's instruction and register counts,
//! the decoded step count, the fusion counters, the summed step costs and
//! a 64-bit FNV-1a of the disassembly. A refactor of the online stage
//! that changes a single emitted instruction anywhere fails here.
//!
//! Regenerate after an *intentional* codegen change with
//! `UPDATE_GOLDEN=1 cargo test --test codegen_golden`.

use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{altivec, avx, disasm, neon64, rvv, sse, sve};

/// `jit.minsts` of the repo benchmark's `cold_compile`: the same tuples.
const MATRIX_MINSTS: usize = 206_796;

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn codegen_matrix_matches_golden() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    let mut text = String::new();
    let mut minsts = 0;
    for spec in suite() {
        let kernel = spec.kernel();
        for target in [sse(), altivec(), neon64(), avx(), sve(), rvv()] {
            for flow in Flow::ALL {
                let c = engine
                    .compile(&kernel, flow, &target, &cfg)
                    .unwrap_or_else(|e| panic!("{} [{flow} on {}]: {e}", spec.name, target.name));
                let (code, decoded) = (&c.jit.code, &c.jit.decoded);
                let f = decoded.fusion_stats();
                let cost: u64 = decoded.steps().iter().map(|d| d.cost).sum();
                minsts += c.jit.stats.insts;
                text.push_str(&format!(
                    "{} {} {flow} insts={} s={} v={} steps={} fuse={}/{}/{}/{}/{}/{} cost={cost} \
                     fnv={:016x}\n",
                    spec.name,
                    target.name,
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
                ));
            }
        }
    }
    assert_eq!(minsts, MATRIX_MINSTS, "the matrix's machine instructions");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/codegen_matrix.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (line, (got, want)) in text.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "codegen_matrix.txt line {}", line + 1);
    }
    assert_eq!(text.lines().count(), want.lines().count(), "line count");
}
