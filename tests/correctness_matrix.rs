//! Misaligned placements of the fixed-width targets: the aligned cells
//! of every kernel × flow × target × VL are walked against the
//! reference interpreter by the cycle ledger (`tests/matrix.rs`).

mod common;

use common::check_suite;
use vapor_core::{AllocPolicy, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{altivec, neon64, sse};

#[test]
fn misaligned_arrays_still_execute_correctly() {
    // The guarded fallbacks of the optimizing split flow must be correct
    // when the runtime cannot align arrays (the runtime check fails).
    let engine = Engine::new();
    let misaligned = [AllocPolicy::Misaligned(4), AllocPolicy::Misaligned(8)];
    let fixed = [sse(), altivec(), neon64()];
    let flow = [Flow::SplitVectorOpt];
    check_suite(
        &engine,
        &suite(),
        &fixed,
        &flow,
        &misaligned,
        &[],
        |_, _| {},
    );
}
