//! The committed `BENCHMARK.json`, the tables the binary prints and the
//! library surface the sources use.

use std::collections::HashSet;
use std::path::Path;

use vapor_benchmark::spec::{benchmark_json, describe, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn committed_benchmark_json_is_what_the_binary_emits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --describe-json > BENCHMARK.json"
    );
}

#[test]
fn names_units_and_bounds_fit_the_contract() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    let mut names = HashSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.kind.name()) && names.insert(w.kind.name()));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.kind.name()
        );
        assert!(w.kind.clients() <= 2, "the host has 2 cores");
    }
    for m in END_TO_END {
        assert!(
            name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(PER_LAYER.len() <= 128);
    for m in PER_LAYER {
        assert!(
            name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
            "{}",
            m.name
        );
    }
    assert!(benchmark_json().len() <= 64 * 1024);
    // Everything in the file is in the printed tables too.
    let tables = describe();
    for name in names {
        assert!(tables.contains(name), "--describe lacks {name}");
    }
}

/// What ROADMAP schedules for deletion or redesign: the benchmark must
/// not depend on it, so those changes can land without editing it.
#[test]
fn sources_keep_to_the_stable_library_surface() {
    const SCHEDULED: [&str; 20] = [
        "run_baseline",
        "run_specialized",
        "run_unfused",
        "run_wide",
        "vapor_core::run",
        "RunResult",
        "run_result",
        "arrays_match",
        "reference(",
        ".fused(",
        "wide_registers",
        "decode_unfused",
        "compile_ns",
        ".shards(",
        "vl_cache_capacity",
        "threaded_cache_capacity",
        "arena_pool_capacity",
        "compile_uncached",
        "compile_batch",
        "Tier::",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(src).expect("src/") {
        let path = entry.expect("a directory entry").path();
        let text = std::fs::read_to_string(&path).expect("a source file");
        for name in SCHEDULED {
            assert!(!text.contains(name), "{} uses {name}", path.display());
        }
        // The shim `vapor_core::run_threaded` shares its name with the
        // `Machine` method, which is fine; importing it is not.
        for line in text.lines().filter(|l| l.contains("vapor_core::")) {
            assert!(!line.contains("run_threaded"), "{}: {line}", path.display());
        }
    }
}
