//! Golden disassembly tests for fused programs, plus the hit-count
//! assertions that keep the fusion pass honest: a silently-disabled (or
//! silently-weakened) pass fails these tests instead of just benching
//! slower.
//!
//! Snapshots live under `tests/golden/`; regenerate after an
//! *intentional* codegen or fusion change with
//! `UPDATE_GOLDEN=1 cargo test --test fusion_golden`.

use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{disasm_decoded, rvv, sse, sve};

/// The representative kernels snapshotted per target family: a
/// streaming map (`dscal`), the canonical two-array stream (`saxpy`),
/// and a reduction (`convolve`) — together they exercise every fusion
/// pattern.
const GOLDEN_KERNELS: [&str; 3] = ["dscal_fp", "saxpy_fp", "convolve_s32"];

fn check_golden(tag: &str, text: &str) {
    let path = format!(
        "{}/tests/golden/{tag}.txt",
        env!("CARGO_MANIFEST_DIR").trim_end_matches('/')
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        text, want,
        "fused disassembly of {tag} drifted from the golden snapshot; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fused_disassembly_matches_goldens_on_fixed_width() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    for name in GOLDEN_KERNELS {
        let spec = suite().into_iter().find(|s| s.name == name).unwrap();
        let c = engine
            .compile(&spec.kernel(), Flow::SplitVectorOpt, &sse(), &cfg)
            .unwrap();
        check_golden(
            &format!("{name}_sse"),
            &disasm_decoded(&c.jit.decoded, &sse()),
        );
    }
}

#[test]
fn fused_disassembly_matches_goldens_on_runtime_vl() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    for name in GOLDEN_KERNELS {
        let spec = suite().into_iter().find(|s| s.name == name).unwrap();
        let (_, prog) = engine
            .specialize(&spec.kernel(), Flow::SplitVectorOpt, &sve(), &cfg, 512)
            .unwrap();
        check_golden(
            &format!("{name}_sve512"),
            &disasm_decoded(&prog, &sve().at_vl(512)),
        );
    }
}

/// Every expected pattern must actually fire somewhere in the suite —
/// per-pattern, not just in aggregate.
#[test]
fn every_fusion_pattern_fires_on_the_suite() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    let mut total = vapor_targets::FusionStats::default();
    for spec in suite() {
        let kernel = spec.kernel();
        if let Ok(c) = engine.compile(&kernel, Flow::SplitVectorOpt, &sse(), &cfg) {
            let s = c.jit.decoded.fusion_stats();
            total.load_bin_store += s.load_bin_store;
            total.load_bin_bin += s.load_bin_bin;
            total.load_bin += s.load_bin;
            total.bin_store += s.bin_store;
            total.latch += s.latch;
        }
        for family in [sve(), rvv()] {
            if let Ok((_, p)) = engine.specialize(&kernel, Flow::SplitVectorOpt, &family, &cfg, 512)
            {
                total.load_bin_store_vl += p.fusion_stats().load_bin_store_vl;
            }
        }
    }
    assert!(total.load_bin_store > 0, "LoadV→VBin→StoreV never fired");
    assert!(total.load_bin_bin > 0, "LoadV→VBin→VBin never fired");
    assert!(
        total.load_bin_store_vl > 0,
        "LoadVl→VBinVl→StoreVl never fired"
    );
    assert!(total.load_bin > 0, "LoadV→VBin never fired");
    assert!(total.bin_store > 0, "VBin→StoreV never fired");
    assert!(total.latch > 0, "SBinImm→branch latch never fired");
}

/// The acceptance bar of the fusion PR: a three-op superinstruction
/// fires on at least half the suite kernels (SSE, optimizing flow), and
/// the loop latch fires on every kernel with a loop.
#[test]
fn three_op_fusion_fires_on_at_least_half_the_suite() {
    let engine = Engine::new();
    let cfg = CompileConfig::default();
    let mut three = 0usize;
    let mut latched = 0usize;
    let mut total = 0usize;
    for spec in suite() {
        let Ok(c) = engine.compile(&spec.kernel(), Flow::SplitVectorOpt, &sse(), &cfg) else {
            continue;
        };
        let s = c.jit.decoded.fusion_stats();
        total += 1;
        if s.three_op() > 0 {
            three += 1;
        }
        if s.latch > 0 {
            latched += 1;
        }
    }
    assert!(
        three * 2 >= total,
        "three-op fusion fires on only {three}/{total} suite kernels"
    );
    assert_eq!(latched, total, "every suite kernel has a fusible latch");
}
