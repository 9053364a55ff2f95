//! The interoperability boundary: every artifact the offline stage
//! produces for the full suite must encode, decode bit-identically, and
//! re-verify — in both split and scalar forms — and its bytes must match
//! `tests/golden/wire.txt` (regenerate after an *intentional* format
//! change with `UPDATE_GOLDEN=1 cargo test --test bytecode_roundtrip`).

use vapor_bytecode::{decode_module, encode_module, verify_function, BcFunction, BcModule};
use vapor_kernels::{suite, KernelSpec};
use vapor_vectorizer::{emit_scalar_function, vectorize, VectorizeOptions};

/// The three functions the offline stage can ship for one kernel.
fn artifacts(spec: &KernelSpec) -> [(&'static str, BcFunction); 3] {
    let kernel = spec.kernel();
    let noalign = VectorizeOptions {
        no_alignment_opts: true,
        ..Default::default()
    };
    [
        (
            "split",
            vectorize(&kernel, &VectorizeOptions::default()).func,
        ),
        ("split-noalign", vectorize(&kernel, &noalign).func),
        ("scalar", emit_scalar_function(&kernel)),
    ]
}

#[test]
fn every_suite_artifact_roundtrips() {
    for spec in suite() {
        for (what, func) in artifacts(&spec) {
            verify_function(&func).unwrap_or_else(|e| panic!("{} ({what}): {e}", spec.name));
            let module = BcModule::single(func);
            let bytes = encode_module(&module);
            let back =
                decode_module(&bytes).unwrap_or_else(|e| panic!("{} ({what}): {e}", spec.name));
            assert_eq!(module, back, "{} ({what}): lossy round-trip", spec.name);
            // And the decoded form still verifies.
            verify_function(&back.funcs[0]).unwrap();
        }
    }
}

/// One `kernel form length fnv1a` row per suite artifact: pins the exact
/// bytes of the format, not only their sum.
#[test]
fn wire_format_matches_golden() {
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    let mut text = String::new();
    for spec in suite() {
        for (what, func) in artifacts(&spec) {
            let bytes = encode_module(&BcModule::single(func));
            let row = format!(
                "{} {what} {} {:016x}\n",
                spec.name,
                bytes.len(),
                fnv1a(&bytes)
            );
            text.push_str(&row);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        text, want,
        "encoded bytecode drifted from the wire golden; \
         if the format change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn truncated_suite_bytecode_never_decodes() {
    // Spot-check a large artifact at many truncation points.
    let spec = vapor_kernels::find("gemver_fp").unwrap();
    let func = vectorize(&spec.kernel(), &VectorizeOptions::default()).func;
    let bytes = encode_module(&BcModule::single(func));
    let step = (bytes.len() / 97).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        assert!(
            decode_module(&bytes[..cut]).is_err(),
            "cut at {cut} accepted"
        );
    }
}
