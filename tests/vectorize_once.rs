//! The paper's title as an assertion: one offline artifact per kernel
//! and offline shape, consumed by every target and online pipeline.
//!
//! On one engine with an artifact store, every suite kernel is compiled
//! through every flow for every target. The split-vector tuples (2
//! online pipelines × 6 targets) must share one bytecode function; the
//! offline stage must run once per (kernel, shape) — vector, scalar, and
//! native-vector once per target; every tuple must still match the
//! oracle at every VL and write its own `.vsart`.

use std::sync::Arc;

use vapor_core::{arrays_match, reference, Engine, ExecRequest, Flow};
use vapor_kernels::{suite, KernelSpec, Scale};
use vapor_targets::{altivec, avx, neon64, rvv, sse, sve, TargetDesc, VLA_TEST_BITS};

fn targets() -> [TargetDesc; 6] {
    [sse(), altivec(), neon64(), avx(), sve(), rvv()]
}

/// The VLs a request may run a target at.
fn vls(target: &TargetDesc) -> Vec<usize> {
    if target.vla {
        VLA_TEST_BITS.to_vec()
    } else {
        vec![target.vs * 8]
    }
}

/// Every tuple of one kernel at every VL against the oracle; the
/// split-vector tuples must share one bytecode function.
fn check_kernel(engine: &Engine, spec: &KernelSpec) {
    let kernel = spec.kernel();
    let env = spec.env(Scale::Test);
    let oracle =
        reference(&kernel, &env).unwrap_or_else(|e| panic!("{}: oracle failed: {e}", spec.name));
    let mut split_vector = Vec::new();
    for target in targets() {
        for flow in Flow::ALL {
            for vl in vls(&target) {
                let req = ExecRequest::new(&kernel, &target, &env)
                    .flow(flow)
                    .vl_bits(vl);
                let what = format!("{} [{flow} on {} @VL={vl}]", spec.name, target.name);
                let result = engine
                    .execute(&req)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                for (name, expected) in oracle.arrays() {
                    arrays_match(expected, result.out.array(name).unwrap(), 2e-4)
                        .unwrap_or_else(|e| panic!("{what}: array {name}: {e}"));
                }
                if matches!(flow, Flow::SplitVectorNaive | Flow::SplitVectorOpt) {
                    split_vector.push(result.compiled);
                }
            }
        }
    }
    let first = &split_vector[0].func;
    assert!(
        split_vector.iter().all(|c| Arc::ptr_eq(&c.func, first)),
        "{}: every split-vector tuple must consume one bytecode function",
        spec.name
    );
}

#[test]
fn one_offline_artifact_serves_every_target_and_pipeline() {
    // Offline stages per kernel: split vector, scalar, and one
    // target-aware vectorization per target.
    let offline_per_kernel = 2 + targets().len() as u64;
    let dir = std::env::temp_dir().join(format!("vapor-vectorize-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::builder().artifact_dir(&dir).build().unwrap();
    let specs = suite();
    for spec in &specs {
        check_kernel(&engine, spec);
    }
    let s = engine.stats();
    let tuples = (specs.len() * targets().len() * Flow::ALL.len()) as u64;
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
