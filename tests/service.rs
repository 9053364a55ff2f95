//! Service-layer integration tests: the engine under concurrent
//! multi-tenant load (stats consistency, one build per key at every
//! cache level, arena pooling), the bounded cache, and the persistent
//! artifact tier (round-trip differential, corruption rejection).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use vapor_core::{arrays_match, CompileConfig, Engine, ExecRequest, Flow};
use vapor_kernels::{suite, Scale};
use vapor_targets::{altivec, avx, neon64, rvv, sse, sve};

/// A scratch directory under the target dir (which `cargo clean`
/// empties), named per test and process so that two runs sharing the
/// target dir keep apart, and emptied on entry. The tests remove it
/// when they pass.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Many threads hammer one engine with a mixed request plan. The
/// engine's counters must reconcile exactly: every request is one
/// compile-cache lookup, every distinct (kernel, target) tuple compiles
/// exactly once no matter how many threads race it (the memo must
/// neither lose nor duplicate a compile), and every request takes
/// exactly one arena from the pool.
#[test]
fn concurrent_hammer_keeps_stats_exact_and_dedups_inflight_compiles() {
    let threads = 8usize;
    let per_thread = 40usize;
    let specs: Vec<_> = suite().into_iter().take(6).collect();
    let kernels: Vec<_> = specs.iter().map(|s| s.kernel()).collect();
    let envs: Vec<_> = specs.iter().map(|s| s.env(Scale::Test)).collect();
    let sse_t = sse();
    let sve_t = sve();

    let engine = Engine::new();
    let mut distinct: HashSet<(usize, bool)> = HashSet::new();
    for tid in 0..threads {
        for i in 0..per_thread {
            distinct.insert(((i + tid) % specs.len(), i % 3 == 0));
        }
    }
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let engine = &engine;
            let kernels = &kernels;
            let envs = &envs;
            let (sse_t, sve_t) = (&sse_t, &sve_t);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let spec = (i + tid) % kernels.len();
                    let vla = i % 3 == 0;
                    let target = if vla { sve_t } else { sse_t };
                    let mut req = ExecRequest::new(&kernels[spec], target, &envs[spec]);
                    if vla {
                        req = req.vl_bits(if i % 2 == 0 { 256 } else { 1024 });
                    }
                    engine.execute(&req).unwrap();
                }
            });
        }
    });
    let s = engine.stats();
    let issued = (threads * per_thread) as u64;
    assert_eq!(s.hits + s.misses, issued, "one cache lookup per request");
    assert_eq!(
        s.misses,
        distinct.len() as u64,
        "one compile per distinct tuple — the memo lost or duplicated work"
    );
    assert_eq!(s.entries, distinct.len());
    assert_eq!(
        s.pool_reuses + s.pool_allocs,
        issued,
        "one arena per request"
    );
    assert!(
        s.pool_reuses > 0,
        "a hammer this long must recycle pooled arenas"
    );
}

/// Racing threads build each key once at every level. Twelve threads
/// compile one kernel under both split-vector pipelines on six targets:
/// twelve compile keys over one offline key, so the offline stage runs
/// once and the other eleven misses consume its artifact.
#[test]
fn racing_compiles_build_each_offline_artifact_once() {
    let spec = &suite()[0];
    let kernel = spec.kernel();
    let targets = [sse(), altivec(), neon64(), avx(), sve(), rvv()];
    let cfg = CompileConfig::default();
    let engine = Engine::new();
    let barrier = Barrier::new(12);
    std::thread::scope(|scope| {
        for target in &targets {
            for flow in [Flow::SplitVectorNaive, Flow::SplitVectorOpt] {
                let (engine, kernel, cfg, barrier) = (&engine, &kernel, &cfg, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    engine.compile(kernel, flow, target, cfg).unwrap();
                });
            }
        }
    });
    let s = engine.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 12, 12));
    assert_eq!(
        s.offline_hits,
        s.misses - 1,
        "one offline build for one offline key"
    );
}

/// Racing threads specializing one key at one VL build one compilation
/// and all run its own decode.
#[test]
fn racing_specializations_build_one_execution_form() {
    let spec = &suite()[0];
    let kernel = spec.kernel();
    let target = sve();
    let cfg = CompileConfig::default();
    let engine = Engine::new();
    let barrier = Barrier::new(8);
    let specialized: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine
                        .specialize(&kernel, Flow::SplitVectorOpt, &target, &cfg, 512)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let compiled = &specialized[0].0;
    for (c, prog) in &specialized {
        assert!(Arc::ptr_eq(c, compiled));
        assert!(Arc::ptr_eq(prog, &compiled.jit.decoded));
    }
    assert_eq!(engine.stats().misses, 1);
}

/// The compile cache is bounded: a working set larger than the
/// configured capacity must evict (counted) instead of growing without
/// bound.
#[test]
fn compile_cache_stays_within_its_configured_bound() {
    let engine = Engine::builder().compile_cache_capacity(8).build().unwrap();
    let cfg = CompileConfig::default();
    let target = sse();
    let specs: Vec<_> = suite().into_iter().take(12).collect();
    for spec in &specs {
        engine
            .compile(&spec.kernel(), Flow::SplitVectorOpt, &target, &cfg)
            .unwrap();
    }
    let s = engine.stats();
    assert_eq!((s.misses, s.entries, s.evictions), (12, 8, 4));
}

/// Round-trip differential over the suite: artifacts written by one
/// engine and decoded by a second (fresh) engine on the same store must
/// produce bit-identical machine state and `vm_cycles` — the on-disk
/// bytecode tier is not allowed to perturb execution in any observable
/// way.
#[test]
fn artifact_round_trip_executes_bit_identically_across_engines() {
    let dir = scratch("roundtrip");
    let writer = Engine::builder().artifact_dir(&dir).build().unwrap();
    let reader = Engine::builder().artifact_dir(&dir).build().unwrap();
    let target = sse();
    for spec in suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Test);
        let req = ExecRequest::new(&kernel, &target, &env);
        let fresh = writer.execute(&req).unwrap();
        let warm = reader.execute(&req).unwrap();
        for (name, expected) in fresh.out.arrays() {
            // Bit-exact: tolerance 0.
            arrays_match(expected, warm.out.array(name).unwrap(), 0.0)
                .unwrap_or_else(|e| panic!("{}: array {name} diverged: {e}", spec.name));
        }
        assert_eq!(
            fresh.stats, warm.stats,
            "{}: artifact-decoded compile diverged in cycles/insts",
            spec.name
        );
    }
    let ws = writer.stats();
    let rs = reader.stats();
    assert_eq!(ws.artifact_writes, 32, "one artifact per suite kernel");
    assert_eq!(
        rs.artifact_hits, 32,
        "the second engine must serve every compile from disk"
    );
    assert_eq!(rs.artifact_rejects, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted and truncated artifacts must be rejected (counted), never
/// trusted — and the engine must transparently recompile from source
/// and heal the store with a fresh artifact.
#[test]
fn corrupted_and_truncated_artifacts_are_rejected_and_healed() {
    let dir = scratch("corrupt");
    let spec = &suite()[0];
    let kernel = spec.kernel();
    let env = spec.env(Scale::Test);
    let target = sse();
    let req = ExecRequest::new(&kernel, &target, &env);

    let writer = Engine::builder().artifact_dir(&dir).build().unwrap();
    let good = writer.execute(&req).unwrap();
    let store = writer.artifact_store().unwrap();
    let path = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "vsart"))
        .expect("the writer engine must have persisted an artifact");

    let pristine = std::fs::read(&path).unwrap();
    for (tag, mangle) in [
        ("flipped payload byte", {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0xff;
            b
        }),
        ("truncated file", pristine[..pristine.len() / 2].to_vec()),
        ("bad magic", {
            let mut b = pristine.clone();
            b[0] ^= 0xff;
            b
        }),
    ] {
        std::fs::write(&path, &mangle).unwrap();
        let victim = Engine::builder().artifact_dir(&dir).build().unwrap();
        let healed = victim.execute(&req).unwrap();
        let s = victim.stats();
        assert_eq!(s.artifact_rejects, 1, "{tag}: must reject, not trust");
        assert_eq!(s.artifact_hits, 0, "{tag}: a reject is not a hit");
        assert_eq!(
            healed.stats, good.stats,
            "{tag}: recompile-after-reject diverged"
        );
        assert_eq!(
            s.artifact_writes, 1,
            "{tag}: the store must be healed with a fresh artifact"
        );
        // The healed artifact is valid again: the next engine hits it.
        let verify = Engine::builder().artifact_dir(&dir).build().unwrap();
        verify.execute(&req).unwrap();
        assert_eq!(verify.stats().artifact_hits, 1, "{tag}: heal did not stick");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The builder wires its two knobs through to the running engine, and
/// `Engine::new()` keeps the documented defaults.
#[test]
fn builder_configuration_is_observable() {
    let dir = scratch("builder");
    let engine = Engine::builder()
        .compile_cache_capacity(2)
        .artifact_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(engine.artifact_store().unwrap().dir(), dir.as_path());
    let target = sse();
    for spec in suite().iter().take(3) {
        engine
            .compile(
                &spec.kernel(),
                Flow::SplitVectorOpt,
                &target,
                &CompileConfig::default(),
            )
            .unwrap();
    }
    let s = engine.stats();
    assert_eq!((s.entries, s.evictions, s.artifact_writes), (2, 1, 3));

    let default = Engine::new();
    assert!(default.artifact_store().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequential executions must recycle the pooled arena instead of
/// reallocating: after the first request warms the pool, subsequent
/// requests are allocation-free on the arena path.
#[test]
fn arena_pool_recycles_across_sequential_requests() {
    let engine = Engine::new();
    let spec = &suite()[0];
    let kernel = spec.kernel();
    let env = spec.env(Scale::Test);
    let target = sse();
    let req = ExecRequest::new(&kernel, &target, &env);
    for _ in 0..10 {
        engine.execute(&req).unwrap();
    }
    let s = engine.stats();
    assert_eq!(s.pool_allocs, 1, "only the first request may allocate");
    assert_eq!(s.pool_reuses, 9, "every later request must reuse the arena");
}
