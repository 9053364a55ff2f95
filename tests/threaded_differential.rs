//! Closure-threaded differential tests: every suite kernel runs once
//! through the engine's decoded dispatch and once through
//! `ThreadedProgram` over the same decode (`tests/common`'s comparer) —
//! machine state, cycles and instruction counts must be bit-identical.
//! The threaded form flattens the register file into an arena, streams
//! affine addresses, and charges fuel per region, but on non-trapping
//! executions none of that may be observable: *any* difference is a
//! threading bug.

mod common;

use common::{check_suite, Form};
use vapor_core::{AllocPolicy, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{avx, neon64, rvv, sse, sve};

/// Threaded vs decoded on the fixed-width targets, both vector flows.
#[test]
fn threaded_and_decoded_dispatch_agree_on_every_suite_kernel() {
    let engine = Engine::new();
    let fixed = [sse(), neon64(), avx()];
    let flows = [Flow::SplitVectorOpt, Flow::NativeVector];
    let aligned = [AllocPolicy::Aligned];
    let threaded = [Form::Threaded];
    check_suite(
        &engine,
        &suite(),
        &fixed,
        &flows,
        &aligned,
        &threaded,
        |_, _| {},
    );
}

/// The same differential on the runtime-VL families across the full VL
/// range: the threaded side threads the engine's one decode of the
/// compilation and runs it at every VL.
#[test]
fn threaded_and_decoded_dispatch_agree_at_every_runtime_vl() {
    let engine = Engine::new();
    let families = [sve(), rvv()];
    let flow = [Flow::SplitVectorOpt];
    let aligned = [AllocPolicy::Aligned];
    let threaded = [Form::Threaded];
    check_suite(
        &engine,
        &suite(),
        &families,
        &flow,
        &aligned,
        &threaded,
        |_, _| {},
    );
}

/// Misaligned bases exercise the unaligned/guard paths of the threaded
/// address streams: loads and stores must stride to exactly the same
/// addresses the decoded dispatch recomputes, even when alignment
/// guards steer the code down fallback paths. Every reference form runs
/// on these cells.
#[test]
fn threaded_dispatch_agrees_under_misaligned_bases() {
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
