//! The central integration test: every kernel of the suite, compiled
//! through every flow, executed on every target, must match the
//! reference interpreter (`tests/common`'s comparer).

mod common;

use common::{check_suite, targets};
use vapor_core::{AllocPolicy, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{altivec, neon64, rvv, sse, sve};

#[test]
fn every_kernel_every_flow_every_target_matches_oracle() {
    let engine = Engine::new();
    let aligned = [AllocPolicy::Aligned];
    check_suite(
        &engine,
        &suite(),
        &targets(),
        &Flow::ALL,
        &aligned,
        &[],
        |_, _| {},
    );
}

#[test]
fn vla_targets_match_oracle_at_every_runtime_vl() {
    // Every suite kernel, compiled *once* per (flow, family) into a
    // VL-agnostic artifact, then specialized and executed at every
    // tested runtime vector length.
    let engine = Engine::new();
    let specs = suite();
    let families = [sve(), rvv()];
    let aligned = [AllocPolicy::Aligned];
    let mut at_128 = 0;
    check_suite(
        &engine,
        &specs,
        &families,
        &Flow::ALL,
        &aligned,
        &[],
        |cell, out| {
            // The widest vectors never cost more than the narrowest for one
            // artifact. (Intermediate VLs need not be monotone: a reduction
            // pays log2(lanes) halving steps.)
            match cell.vl {
                128 => at_128 = out.stats.cycles,
                2048 => assert!(
                    out.stats.cycles <= at_128,
                    "{cell}: costlier than at VL=128"
                ),
                _ => {}
            }
        },
    );
    // One compile per (kernel, flow, family): the VL dimension must not
    // have multiplied the compile cache.
    let tuples = specs.len() * Flow::ALL.len() * families.len();
    assert_eq!(engine.stats().entries, tuples);
}

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
