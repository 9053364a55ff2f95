//! The paper's title as an assertion: one offline artifact per kernel
//! and offline shape, consumed by every target and online pipeline.
//!
//! On one engine with an artifact store, every suite kernel is run
//! through every flow on every benchmark target at every VL
//! (`tests/common`'s comparer). The split-vector tuples (2 online
//! pipelines × 6 targets) must share one bytecode function; the offline
//! stage must run once per (kernel, shape) — vector, scalar, and
//! native-vector once per target; every tuple must still match the
//! oracle at every VL and write its own `.vsart`.

mod common;

use std::sync::Arc;

use common::{bench_targets, check_suite};
use vapor_core::{AllocPolicy, Engine, Flow};
use vapor_kernels::suite;

#[test]
fn one_offline_artifact_serves_every_target_and_pipeline() {
    let targets = bench_targets();
    // Offline stages per kernel: split vector, scalar, and one
    // target-aware vectorization per target.
    let offline_per_kernel = 2 + targets.len() as u64;
    let dir = std::env::temp_dir().join(format!("vapor-vectorize-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::builder().artifact_dir(&dir).build().unwrap();
    let specs = suite();
    for spec in &specs {
        let mut split_vector = Vec::new();
        let aligned = [AllocPolicy::Aligned];
        let one = std::slice::from_ref(spec);
        check_suite(
            &engine,
            one,
            &targets,
            &Flow::ALL,
            &aligned,
            &[],
            |cell, out| {
                if matches!(cell.flow, Flow::SplitVectorNaive | Flow::SplitVectorOpt) {
                    split_vector.push(Arc::clone(&out.compiled.func));
                }
            },
        );
        assert!(
            split_vector
                .iter()
                .all(|f| Arc::ptr_eq(f, &split_vector[0])),
            "{}: every split-vector tuple must consume one bytecode function",
            spec.name
        );
    }
    let s = engine.stats();
    let tuples = (specs.len() * targets.len() * Flow::ALL.len()) as u64;
    assert_eq!(s.misses, tuples, "one compile per tuple, none per VL");
    assert_eq!(
        s.offline_hits,
        s.misses - offline_per_kernel * specs.len() as u64,
        "the offline stage must run once per (kernel, shape)"
    );
    // The store keeps one file per compile key: a tuple whose offline
    // artifact another target or pipeline built still writes its own.
    assert_eq!(s.artifact_writes, tuples);
    assert_eq!(
        engine.artifact_store().unwrap().len() as u64,
        tuples,
        "one .vsart per tuple"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
