//! Golden disassembly tests for closure-threaded programs: the region
//! structure, register operands, and address streams of three
//! representative kernels are snapshotted so a silently-weakened
//! threading pass (streams no longer qualifying, regions splintering,
//! fused steps falling back to generic ops) fails loudly instead of
//! just benching slower.
//!
//! Snapshots live under `tests/golden/`; regenerate after an
//! *intentional* codegen or threading change with
//! `UPDATE_GOLDEN=1 cargo test --test threaded_golden`.

use vapor_core::{CompileConfig, Engine, Flow};
use vapor_kernels::suite;
use vapor_targets::{disasm_threaded, sse, sve, TargetDesc, ThreadedProgram};

/// The representative kernels snapshotted per target family: the
/// canonical two-array stream (`saxpy`), a reduction with an inner loop
/// (`convolve`), and a stencil with loop-carried reuse (`seidel`) —
/// together they exercise streams, nested regions, and the fused
/// three-op steps.
const GOLDEN_KERNELS: [&str; 3] = ["saxpy_fp", "convolve_s32", "seidel_fp"];

/// The threaded lowering of the suite kernel `name`'s optimizing split
/// compilation, specialized to `vl_bits`.
fn thread(name: &str, target: &TargetDesc, vl_bits: usize) -> ThreadedProgram {
    let spec = suite().into_iter().find(|s| s.name == name).unwrap();
    let (compiled, prog) = Engine::new()
        .specialize(
            &spec.kernel(),
            Flow::SplitVectorOpt,
            target,
            &CompileConfig::default(),
            vl_bits,
        )
        .unwrap();
    ThreadedProgram::thread(&prog, &compiled.jit.code)
}

fn check_golden(tag: &str, text: &str) {
    let path = format!(
        "{}/tests/golden/{tag}.txt",
        env!("CARGO_MANIFEST_DIR").trim_end_matches('/')
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        text, want,
        "threaded disassembly of {tag} drifted from the golden snapshot; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn threaded_disassembly_matches_goldens_on_fixed_width() {
    for name in GOLDEN_KERNELS {
        let prog = thread(name, &sse(), 128);
        check_golden(
            &format!("threaded_{name}_sse"),
            &disasm_threaded(&prog, &sse()),
        );
    }
}

#[test]
fn threaded_disassembly_matches_goldens_on_runtime_vl() {
    for name in GOLDEN_KERNELS {
        let prog = thread(name, &sve(), 512);
        check_golden(
            &format!("threaded_{name}_sve512"),
            &disasm_threaded(&prog, &sve().at_vl(512)),
        );
    }
}

/// The threading pass must actually stream the suite: the affine-index
/// golden kernels' loops qualify for address streams on SSE, so a
/// qualification regression shows up as a hard failure, not a snapshot
/// churn. (`seidel` is the documented counter-example: its addresses go
/// through per-iteration derived scalar chains — `a[i*n + j]` — whose
/// index registers are written in the body, so no leg can be streamed
/// from loop-header state; its threaded win is region batching alone.)
#[test]
fn affine_golden_kernels_stream_their_loops() {
    for (name, streams) in [
        ("saxpy_fp", true),
        ("convolve_s32", true),
        ("seidel_fp", false),
    ] {
        let prog = thread(name, &sse(), 128);
        assert_eq!(
            prog.streamed_loops() > 0,
            streams,
            "{name}: expected streamed_loops > 0 == {streams}, got {}",
            prog.streamed_loops()
        );
    }
}
