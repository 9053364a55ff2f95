//! Benchmarks wrapping the paper's experiments, self-hosted (no external
//! harness: the container builds offline, so this is a `harness = false`
//! bench with its own best-of-N timer).
//!
//! One group per table/figure of the evaluation section — `cargo bench`
//! regenerates the series (at test scale, for sane bench times) and the
//! compile-time/VM micro-benchmarks that §V-A(c) reports in µs. The
//! paper-scale numbers are produced by the `report` binary.

use std::hint::black_box;
use std::time::Instant;

use vapor_bench::{ablation, fig5, fig6, size_and_time, table3};
use vapor_core::{CompileConfig, Engine, ExecRequest, Flow};
use vapor_kernels::{find, Scale};
use vapor_targets::{altivec, neon64, sse};

/// Best-of-`reps` wall time of `f`, in microseconds.
fn best_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn report(group: &str, name: &str, us: f64) {
    println!("{group:<18} {name:<32} {us:>12.1} µs");
}

fn bench_figures() {
    let e = Engine::new();
    report(
        "fig5",
        "a_sse",
        best_us(3, || fig5(&e, &sse(), Scale::Test)),
    );
    report(
        "fig5",
        "b_altivec",
        best_us(3, || fig5(&e, &altivec(), Scale::Test)),
    );
    report(
        "fig6",
        "a_sse",
        best_us(3, || fig6(&e, &sse(), Scale::Test)),
    );
    report(
        "fig6",
        "b_altivec",
        best_us(3, || fig6(&e, &altivec(), Scale::Test)),
    );
    report(
        "fig6",
        "c_neon",
        best_us(3, || fig6(&e, &neon64(), Scale::Test)),
    );
    report(
        "table3",
        "avx_static_analysis",
        best_us(3, || table3(&e, Scale::Test)),
    );
    report(
        "sec5a",
        "b_alignment_ablation",
        best_us(3, || ablation(&e, Scale::Test)),
    );
    report(
        "sec5a",
        "c_size_and_time",
        best_us(3, || size_and_time(&sse())),
    );
}

/// The µs-range JIT compile times §V-A(c) reports, as real benchmarks.
/// Compilation is the one-shot pipeline: the engine's cached path is a
/// map lookup and would only measure hashing.
fn bench_online_compile() {
    let target = sse();
    let cfg = CompileConfig::default();
    for name in ["saxpy_fp", "sfir_s16", "mmm_fp"] {
        let kernel = find(name).unwrap().kernel();
        for flow in [Flow::SplitVectorNaive, Flow::SplitScalarNaive] {
            let us = best_us(20, || {
                vapor_core::compile(&kernel, flow, &target, &cfg).unwrap()
            });
            report("online_compile", &format!("{name}/{flow}"), us);
        }
    }
}

/// Virtual-machine execution throughput (the simulator substrate).
fn bench_vm() {
    let engine = Engine::new();
    let target = sse();
    let cfg = CompileConfig::default();
    let spec = find("saxpy_fp").unwrap();
    let kernel = spec.kernel();
    let env = spec.env(Scale::Full);
    for flow in [Flow::SplitVectorOpt, Flow::SplitScalarOpt] {
        let req = ExecRequest::new(&kernel, &target, &env)
            .flow(flow)
            .config(cfg.clone());
        engine.execute(&req).unwrap(); // warm the compile cache
        let us = best_us(20, || engine.execute(&req).unwrap());
        report("vm_execute", &format!("saxpy_1024/{flow}"), us);
    }
}

/// Bytecode encode/decode throughput (the interop boundary).
fn bench_codec() {
    let kernel = find("mmm_fp").unwrap().kernel();
    let result = vapor_vectorizer::vectorize(&kernel, &Default::default());
    let module = vapor_bytecode::BcModule::single(result.func);
    let bytes = vapor_bytecode::encode_module(&module);
    report(
        "bytecode_codec",
        "encode_mmm",
        best_us(50, || vapor_bytecode::encode_module(black_box(&module))),
    );
    report(
        "bytecode_codec",
        "decode_mmm",
        best_us(50, || {
            vapor_bytecode::decode_module(black_box(&bytes)).unwrap()
        }),
    );
}

fn main() {
    // `cargo test` builds and runs bench targets with `--test`; the
    // timing loops are pointless there, so bail out early.
    if std::env::args().any(|a| a == "--test" || a == "--list") {
        return;
    }
    bench_figures();
    bench_online_compile();
    bench_vm();
    bench_codec();
}
