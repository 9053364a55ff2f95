//! Decoder robustness. Bytes that cross the split boundary are untrusted:
//! byte soup, crafted counts and mutated suite encodings must decode to a
//! `DecodeError` or to a module that re-encodes and decodes to itself —
//! never to a panic, an abort or an allocation the input cannot back.
//! (Generation is hand-rolled on the deterministic workspace PRNG; the
//! offline build has no proptest.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vapor_bytecode::{
    decode_module, encode_module, verify_function, BcFunction, BcModule, BcParam,
};
use vapor_core::{online_compile, Flow};
use vapor_ir::ScalarTy;
use vapor_vectorizer::{emit_scalar_function, vectorize, VectorizeOptions};

fn random_bytes(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.gen_range(lo as i64..hi as i64) as usize;
    (0..len).map(|_| rng.gen_range(0..256_i64) as u8).collect()
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::from_seed([11; 32]);
    for _ in 0..256 {
        let bytes = random_bytes(&mut rng, 0, 512);
        let _ = decode_module(&bytes);
    }
}

#[test]
fn random_bytes_with_valid_magic_never_panic() {
    let mut rng = StdRng::from_seed([13; 32]);
    for _ in 0..256 {
        let mut bytes = random_bytes(&mut rng, 5, 512);
        bytes[0..4].copy_from_slice(b"VSBC");
        bytes[4] = 1;
        let _ = decode_module(&bytes);
    }
}

#[test]
fn bitflips_never_roundtrip_to_the_original() {
    let mut f = BcFunction::new(
        "probe",
        vec![BcParam {
            name: "n".into(),
            ty: ScalarTy::I64,
        }],
        vec![],
    );
    let r = f.fresh_reg(vapor_bytecode::BcTy::Scalar(ScalarTy::I64));
    f.body = vec![vapor_bytecode::BcStmt::Def {
        dst: r,
        op: vapor_bytecode::Op::Copy(vapor_bytecode::Operand::ConstI(7)),
    }];
    let m = BcModule::single(f);
    let bytes = encode_module(&m);
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x40;
        if let Ok(back) = decode_module(&corrupted) {
            assert_ne!(back, m, "bit flip at {i} decoded back to the original");
        }
    }
}

// ---------------------------------------------------------------------
// Crafted inputs
// ---------------------------------------------------------------------

/// LEB128, as the format writes every count, length and `u32`.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Magic, version, one function named `f` with no parameters, no arrays
/// and no registers, and a body of one statement: `stmt`.
fn one_statement(stmt: &[u8]) -> Vec<u8> {
    let mut bytes = b"VSBC\x01\x01\x01f\x00\x00\x00\x01".to_vec();
    bytes.extend_from_slice(stmt);
    bytes
}

/// Both ways untrusted bytes enter: the bare decoder and the online
/// stage over an artifact.
fn assert_rejected(what: &str, bytes: &[u8]) {
    let decoded = decode_module(bytes);
    assert!(decoded.is_err(), "{what}: decoded to {decoded:?}");
    let sse = vapor_targets::sse();
    let online = online_compile("f", bytes, Flow::SplitVectorOpt, &sse);
    assert!(online.is_err(), "{what}: the online stage accepted it");
}

#[test]
fn extract_with_2_pow_61_sources_is_an_error() {
    // `Def` of `Extract { ty, stride: 2, offset: 0, srcs }`, 2^61 sources.
    let mut stmt = vec![0, 0, 21, 0, 2, 0];
    stmt.extend(varint(1 << 61));
    assert_rejected("extract count", &one_statement(&stmt));
}

#[test]
fn all_guard_of_2_pow_61_guards_is_an_error() {
    // `Version` whose guard is `All` of 2^61 guards.
    let mut stmt = vec![4, 4];
    stmt.extend(varint(1 << 61));
    assert_rejected("all-guard count", &one_statement(&stmt));
}

#[test]
fn function_name_of_u64_max_bytes_is_an_error() {
    let mut bytes = b"VSBC\x01\x01".to_vec();
    bytes.extend(varint(u64::MAX));
    assert_eq!(bytes.len(), 16);
    assert_rejected("name length", &bytes);
}

#[test]
fn a_thousand_nested_all_guards_are_an_error() {
    // `Version` guarded by `All([All([... VsAtLeast(16) ...])])`, with
    // empty arms. On its own thread with a 2 MiB stack, so that a reader
    // without a nesting limit overflows it here, under this test's name.
    let mut stmt = vec![4];
    for _ in 0..1000 {
        stmt.extend([4, 1]);
    }
    stmt.extend([3, 16, 0, 0]);
    let bytes = one_statement(&stmt);
    std::thread::Builder::new()
        .name("a_thousand_nested_all_guards".into())
        .stack_size(2 << 20)
        .spawn(move || assert_rejected("nested guards", &bytes))
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn u32_field_above_u32_max_is_an_error() {
    // `Def` of register 2^32 (would truncate to register 0) = `Copy(0)`.
    let mut stmt = vec![0];
    stmt.extend(varint(u64::from(u32::MAX) + 1));
    stmt.extend([32, 1, 0]);
    assert_rejected("u32 field", &one_statement(&stmt));
}

#[test]
fn array_kind_other_than_0_or_1_is_an_error() {
    // One array `a` of the first scalar type, kind byte 2; empty body.
    assert_rejected(
        "array kind",
        b"VSBC\x01\x01\x01f\x00\x01\x01a\x00\x02\x00\x00",
    );
}

// ---------------------------------------------------------------------
// Structure-aware mutation of the suite's encodings
// ---------------------------------------------------------------------

/// A decoded module must survive re-encoding and stay verifiable
/// without panicking; an `Err` is always acceptable.
fn check_mutant(bytes: &[u8]) -> bool {
    let Ok(m) = decode_module(bytes) else {
        return false;
    };
    let again = decode_module(&encode_module(&m)).expect("a decoded module re-encodes");
    // Debug, not `==`: a flipped f64 may decode to a NaN.
    assert_eq!(format!("{again:?}"), format!("{m:?}"), "lossy re-encoding");
    for f in &m.funcs {
        let _ = verify_function(f);
    }
    true
}

fn mutate(rng: &mut StdRng, mut b: Vec<u8>) -> Vec<u8> {
    let at = rng.gen_range(0..b.len());
    let end = (at + rng.gen_range(1..48_usize)).min(b.len());
    match rng.gen_range(0..5_i64) {
        0 => {
            for _ in 0..rng.gen_range(1..4_i64) {
                let i = rng.gen_range(0..b.len());
                b[i] ^= 1 << rng.gen_range(0..8_i64);
            }
        }
        // Most single bytes of an encoding are tags, counts, lengths or
        // small varints: widen one to a large count.
        1 => {
            let big = [1 << 31, 1 << 32, 1 << 61, u64::MAX, rng.next_u64()];
            let v = big[rng.gen_range(0..big.len())];
            b.splice(at..at + 1, varint(v));
        }
        2 => b.truncate(at),
        3 => {
            let span = b[at..end].to_vec();
            let to = rng.gen_range(0..b.len() + 1);
            b.splice(to..to, span);
        }
        _ => {
            b.drain(at..end);
        }
    }
    b
}

#[test]
fn mutated_suite_modules_decode_to_errors_or_stable_modules() {
    let encodings: Vec<Vec<u8>> = vapor_kernels::suite()
        .iter()
        .flat_map(|spec| {
            let k = spec.kernel();
            [
                vectorize(&k, &VectorizeOptions::default()).func,
                emit_scalar_function(&k),
            ]
        })
        .map(|f| encode_module(&BcModule::single(f)))
        .collect();
    let mut rng = StdRng::from_seed([17; 32]);
    let mut decoded = 0;
    for bytes in &encodings {
        for _ in 0..160 {
            let mutant = mutate(&mut rng, bytes.clone());
            decoded += usize::from(check_mutant(&mutant));
        }
    }
    // At least one mutant in 32 decodes, so the checks above see modules.
    let tried = encodings.len() * 160;
    assert!(
        decoded * 32 >= tried,
        "{decoded} of {tried} mutants decoded"
    );
}
