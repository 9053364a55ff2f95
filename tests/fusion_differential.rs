//! Superinstruction fusion differential tests: every suite kernel runs
//! once through the fused decode (the production path) and once through
//! an unfused decode and the baseline interpreter of the same
//! compilation (`tests/common`'s comparer) — machine state and cycles
//! must be bit-identical. Fusion is a pure dispatch-layer optimization,
//! so *any* observable difference is a fusion bug. That a VLA program's
//! one fused decode equals a fresh fused decode at each VL is checked on
//! every program the cycle ledger's walk runs (`tests/matrix.rs`).

mod common;

use common::{check_suite, Form};
use vapor_core::{AllocPolicy, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{avx, neon64, rvv, sse, sve};

/// Fused vs unfused on the fixed-width targets, both vector flows.
#[test]
fn fused_and_unfused_dispatch_agree_on_every_suite_kernel() {
    let engine = Engine::new();
    let fixed = [sse(), neon64(), avx()];
    let flows = [Flow::SplitVectorOpt, Flow::NativeVector];
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        &engine,
        &suite(),
        &fixed,
        &flows,
        &aligned,
        &Form::ALL,
        |_, _| {},
    );
}

/// The same differential on the runtime-VL families across the full VL
/// range: the fused side is the engine's one fused decode of the
/// compilation, run at every VL, the unfused side a fresh unfused decode
/// at the concrete width.
#[test]
fn fused_and_unfused_dispatch_agree_at_every_runtime_vl() {
    let engine = Engine::new();
    let families = [sve(), rvv()];
    let flow = [Flow::SplitVectorOpt];
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        &engine,
        &suite(),
        &families,
        &flow,
        &aligned,
        &Form::ALL,
        |_, _| {},
    );
}

/// Misaligned bases steer the code down its unaligned and guard paths:
/// every fused memory step must compute the addresses, and trip the
/// fallbacks, that the reference forms do.
#[test]
fn fused_dispatch_agrees_under_misaligned_bases() {
    let engine = Engine::new();
    let misaligned = [AllocPolicy::Misaligned(4), AllocPolicy::Misaligned(8)];
    let flow = [Flow::SplitVectorOpt];
    check_suite(
        &engine,
        &suite(),
        &[sse()],
        &flow,
        &misaligned,
        &Form::ALL,
        |_, _| {},
    );
}
