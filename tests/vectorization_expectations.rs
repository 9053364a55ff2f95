//! Each kernel must exercise exactly the vectorization features the
//! paper's Table 2 annotates it with (and the non-vectorizable Polybench
//! solvers must be rejected with typed, explained reasons).

use vapor_kernels::{suite, Scale};
use vapor_vectorizer::{vectorize, RejectCategory, VectorizeOptions};

#[test]
fn suite_vectorization_and_features_match_table2() {
    for spec in suite() {
        let kernel = spec.kernel();
        let result = vectorize(&kernel, &VectorizeOptions::default());
        let vectorized = result.reports.iter().any(|r| r.vectorized);
        assert_eq!(
            vectorized, spec.expect_vectorized,
            "{}: vectorized={vectorized}; reports: {:#?}",
            spec.name, result.reports
        );
        let mut seen: Vec<vapor_vectorizer::Feature> = Vec::new();
        for r in &result.reports {
            for f in &r.features {
                if !seen.contains(f) {
                    seen.push(*f);
                }
            }
        }
        for want in spec.features {
            assert!(
                seen.contains(want),
                "{}: expected feature {want:?}, saw {seen:?}",
                spec.name
            );
        }
        // The vectorized bytecode must verify.
        vapor_bytecode::verify_function(&result.func)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let _ = spec.env(Scale::Test);
    }
}

/// The former floor kernels: `lu` and `ludcmp` now vectorize their inner
/// loops (bound-aware dependence solving; subtraction reductions), while
/// `seidel` is a genuine distance-1 recurrence that even Allen–Kennedy
/// distribution cannot split — and the planner must say so in a typed
/// category, per loop and per SCC.
#[test]
fn solver_verdicts_are_typed_and_explained() {
    for name in ["lu_fp", "ludcmp_fp"] {
        let spec = vapor_kernels::find(name).unwrap();
        let result = vectorize(&spec.kernel(), &VectorizeOptions::default());
        assert!(
            result.reports.iter().any(|r| r.vectorized),
            "{name}: inner loop should vectorize; reports: {:#?}",
            result.reports
        );
    }

    let spec = vapor_kernels::find("seidel_fp").unwrap();
    let result = vectorize(&spec.kernel(), &VectorizeOptions::default());
    assert!(result.reports.iter().all(|r| !r.vectorized), "seidel_fp");
    // Every unvectorized loop must carry a reason...
    for r in &result.reports {
        assert!(
            r.reason.is_some(),
            "seidel_fp: rejection must be explained: {r:#?}"
        );
    }
    // ...and the inner stencil loop specifically must be classified as a
    // recurrence with its (single, cyclic) SCC recorded by distribution.
    let inner = result
        .reports
        .iter()
        .find(|r| !r.parts.is_empty())
        .expect("seidel_fp: distribution should record the SCC partition");
    assert_eq!(
        inner.reason.as_ref().unwrap().category,
        RejectCategory::Recurrence,
        "{inner:#?}"
    );
    assert_eq!(inner.parts.len(), 1);
    assert_eq!(inner.parts[0].stmts, vec![0]);
    assert!(!inner.parts[0].vectorized);
    assert_eq!(
        inner.parts[0].reason.as_ref().unwrap().category,
        RejectCategory::Recurrence
    );
}
