//! Differential tests for Allen–Kennedy loop distribution.
//!
//! Two layers:
//! 1. The distribution demo kernels (acyclic split; vector half + scalar
//!    recurrence residual) execute bit-compatibly with the reference
//!    interpreter on every fixed-width target, every flow, and on the
//!    VLA families at every tested runtime VL. (The whole suite, with
//!    its distributed loops, is in the cycle ledger's oracle walk.)
//! 2. Regressions for the dependence-analysis surface the distribution
//!    rewrite touched: same-iteration store→load reuse, store-free
//!    reduction bodies, and interleaved (no contiguous store) loops all
//!    still vectorize.

mod common;

use common::{cells, check, targets};
use vapor_core::{reference, AllocPolicy, Engine, Flow};
use vapor_frontend::parse_kernel;
use vapor_ir::{ArrayData, Bindings, Kernel, ScalarTy};
use vapor_vectorizer::{vectorize, RejectCategory, VectorizeOptions};

const N: i64 = 37; // odd, to exercise tail loops

/// Deterministic float array: small values, no rounding drama.
fn farray(len: usize, seed: u64) -> ArrayData {
    let vals: Vec<f64> = (0..len as u64)
        .map(|i| ((i * 37 + seed * 11) % 23) as f64 * 0.125 - 1.0)
        .collect();
    ArrayData::from_floats(ScalarTy::F32, &vals)
}

fn env_for(kernel: &Kernel, lens: &[(&str, usize)]) -> Bindings {
    let mut env = Bindings::new();
    env.set_int("n", N);
    for (i, (name, len)) in lens.iter().enumerate() {
        env.set_array(name, farray(*len, i as u64 + 1));
    }
    let _ = kernel; // names are validated by the interpreter/VM binding step
    env
}

/// Every cell of `kernel` — all targets, flows and VLs — against the
/// oracle.
fn check_everywhere(kernel: &Kernel, env: &Bindings) {
    let engine = Engine::new();
    let oracle =
        reference(kernel, env).unwrap_or_else(|e| panic!("{}: oracle failed: {e}", kernel.name));
    let targets = targets();
    for cell in cells(kernel, env, &targets, &Flow::ALL, &[AllocPolicy::Aligned]) {
        check(&engine, &cell, &oracle, &[]).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Both statements land in acyclic singleton SCCs: the loop distributes
/// into two vector sub-loops (the carried dependence `a[i-1]` is honored
/// by emitting them in dependence order).
#[test]
fn acyclic_split_vectorizes_both_halves() {
    let kernel = parse_kernel(
        "kernel dist_split(long n, float a[], float b[], float c[]) {
           for (long i = 1; i < n; i++) {
             a[i] = b[i] + 1.5;
             c[i] = a[i - 1] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&kernel, &VectorizeOptions::default());
    let report = &result.reports[0];
    assert!(report.vectorized, "{report:#?}");
    assert_eq!(report.parts.len(), 2, "{report:#?}");
    assert!(report.parts.iter().all(|p| p.vectorized), "{report:#?}");
    assert_eq!(report.parts[0].stmts, vec![0]);
    assert_eq!(report.parts[1].stmts, vec![1]);

    let env = env_for(
        &kernel,
        &[("a", N as usize), ("b", N as usize), ("c", N as usize)],
    );
    check_everywhere(&kernel, &env);
}

/// The recurrence statement stays behind as a scalar residual loop; the
/// acyclic statement still vectorizes. This is the PR's core claim: a
/// dependence cycle no longer condemns the whole loop.
#[test]
fn recurrence_residual_keeps_vector_half() {
    let kernel = parse_kernel(
        "kernel dist_residual(long n, float a[], float b[], float c[], float d[]) {
           for (long i = 1; i < n; i++) {
             b[i] = a[i] + c[i];
             d[i] = d[i - 1] + b[i];
           }
         }",
    )
    .unwrap();
    let result = vectorize(&kernel, &VectorizeOptions::default());
    let report = &result.reports[0];
    assert!(report.vectorized, "{report:#?}");
    assert_eq!(report.parts.len(), 2, "{report:#?}");
    assert!(report.parts[0].vectorized, "{report:#?}");
    assert!(!report.parts[1].vectorized, "{report:#?}");
    assert_eq!(
        report.parts[1].reason.as_ref().unwrap().category,
        RejectCategory::Recurrence
    );

    let env = env_for(
        &kernel,
        &[
            ("a", N as usize),
            ("b", N as usize),
            ("c", N as usize),
            ("d", N as usize),
        ],
    );
    check_everywhere(&kernel, &env);
}

/// Same-iteration store→load reuse (`a[i]` written then read in the same
/// iteration) is not a loop-carried dependence: the loop must vectorize
/// *fused* — whole-loop analysis accepts it, so distribution never runs.
#[test]
fn same_iteration_reuse_vectorizes_fused() {
    let kernel = parse_kernel(
        "kernel reuse(long n, float a[], float b[], float c[]) {
           for (long i = 0; i < n; i++) {
             a[i] = b[i] + 1.5;
             c[i] = a[i] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&kernel, &VectorizeOptions::default());
    let report = &result.reports[0];
    assert!(report.vectorized, "{report:#?}");
    assert!(
        report.parts.is_empty(),
        "same-iteration reuse must not trigger distribution: {report:#?}"
    );

    let env = env_for(
        &kernel,
        &[("a", N as usize), ("b", N as usize), ("c", N as usize)],
    );
    check_everywhere(&kernel, &env);
}

/// Regressions for the deleted `any_contig_store` computation: loops
/// whose stores are all strided (interleave) and loops with no store at
/// all (pure reduction body) must still vectorize.
#[test]
fn store_shape_regressions_still_vectorize() {
    let interleave = parse_kernel(
        "kernel interleave(long n, float x[], float y[]) {
           for (long i = 0; i < n; i++) {
             y[2*i] = x[i] * 1.5;
             y[2*i + 1] = x[i + 1] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&interleave, &VectorizeOptions::default());
    assert!(
        result.reports.iter().any(|r| r.vectorized),
        "interleave (no contiguous store) should vectorize: {:#?}",
        result.reports
    );
    let env = env_for(&interleave, &[("x", N as usize + 1), ("y", 2 * N as usize)]);
    check_everywhere(&interleave, &env);

    let reduction = parse_kernel(
        "kernel redonly(long n, float x[], float y[]) {
           float s;
           s = 0.0;
           for (long i = 0; i < n; i++) {
             s += x[i] * x[i];
           }
           y[0] = s;
         }",
    )
    .unwrap();
    let result = vectorize(&reduction, &VectorizeOptions::default());
    assert!(
        result.reports.iter().any(|r| r.vectorized),
        "store-free reduction body should vectorize: {:#?}",
        result.reports
    );
    let env = env_for(&reduction, &[("x", N as usize), ("y", 1)]);
    check_everywhere(&reduction, &env);
}
