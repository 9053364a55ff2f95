//! The compilation engine: a persistent, thread-safe service wrapping
//! the end-to-end pipeline behind a content-addressed cache.
//!
//! The paper's story is "vectorize once, run everywhere": the offline
//! artifact is produced once and consumed by many online consumers. The
//! seed reproduction instead recompiled every (kernel, flow, target)
//! tuple from scratch on every call — fine for generating one figure,
//! hopeless for a service. [`Engine`] gives the repo the shape the
//! related retargeting systems (Revec, SIMD-everywhere) have: a
//! translation step that is computed once per distinct input and then
//! shared — and, since the multi-tenant rework, served concurrently:
//!
//! * **Content-addressed**: the cache key is a structural fingerprint
//!   of the kernel (a `Hash` walk of its tree into 128-bit FNV-1a, no
//!   string built) plus the [`Flow`], a structural fingerprint of every
//!   target field, and [`CompileConfig`] — two structurally identical
//!   kernels hit the same entry no matter how they were built.
//! * **Two levels, split where the paper splits the toolchain**: the
//!   compile cache maps a request key to its `Arc<Compiled>` (the online
//!   level); below it, an offline tier maps (kernel, offline shape,
//!   config) to one offline artifact. The target is an input of the
//!   offline stage only under [`Flow::NativeVector`], so a compile miss
//!   for any other flow usually finds its artifact already built by
//!   another target or online pipeline and runs only the online stage
//!   ([`EngineStats::offline_hits`]).
//! * **One memo per level**: the compile cache and the offline tier are
//!   each a bounded LRU `Memo`: racing callers on one key build it once
//!   and share one `Arc`, and failures are not cached. Evictions and
//!   blocked compile-cache lock acquisitions are counted.
//! * **One execution path**: [`Engine::execute`] always runs the
//!   compilation's own pre-decoded program — at every VL, since a VLA
//!   decode holds no lane count — and recycles machine memory arenas
//!   through a bounded pool, so steady-state concurrent executions stop
//!   allocating megabytes per request.
//! * **Persistent**: with an artifact store attached
//!   ([`EngineBuilder::artifact_dir`]), a compile miss the offline tier
//!   cannot answer consults an on-disk store of encoded offline
//!   artifacts, one file per compile key; a warm process (or a fleet
//!   member sharing the directory) skips the offline stage and pays
//!   only the online compile. Corrupt or truncated artifacts are
//!   rejected by checksum, loaded bytecode that does not verify is
//!   rejected too, and both are recompiled.

use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vapor_ir::Kernel;
use vapor_targets::{DecodedProgram, TargetDesc};

use crate::artifact::{ArtifactStore, Fnv128};
use crate::memo::{lock, Memo};
use crate::pipeline::{CompileConfig, Compiled, Flow, Offline, OfflineShape, PipelineError};

/// Cache key: structural fingerprints of the kernel and the target, plus
/// everything else that affects the generated code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Fingerprint of the kernel's tree (names, declarations, statements,
    /// literals by bit pattern), so a kernel parsed from differently
    /// formatted source has the same one.
    kernel_fp: u128,
    flow: Flow,
    /// Fingerprint of every field of the target — `TargetDesc` is a
    /// plain pub-field struct, so keying on the name alone would let a
    /// caller-customized target (same name, different cost table or
    /// support table) silently share entries with the stock one.
    target_fp: u128,
    cfg: CompileConfig,
}

impl CacheKey {
    /// The key of a request: a `Hash` walk of the kernel and of the
    /// target, so every entry point derives it once and passes it down.
    fn new(kernel: &Kernel, flow: Flow, target: &TargetDesc, cfg: &CompileConfig) -> CacheKey {
        CacheKey {
            kernel_fp: fingerprint(kernel),
            flow,
            target_fp: fingerprint(target),
            cfg: cfg.clone(),
        }
    }

    /// The stable 128-bit identity of this key for the on-disk artifact
    /// store (filenames must not depend on in-process hasher state).
    fn artifact_id(&self) -> u128 {
        fingerprint(self)
    }

    /// The key of the offline artifact this compilation consumes.
    fn offline(&self) -> OfflineKey {
        let shape = self.flow.offline_shape();
        OfflineKey {
            kernel_fp: self.kernel_fp,
            shape,
            target_fp: (shape == OfflineShape::Native).then_some(self.target_fp),
            cfg: self.cfg.clone(),
        }
    }
}

/// Key of the offline tier: the inputs of the offline stage and nothing
/// else, so every target and online pipeline of one shape shares it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OfflineKey {
    kernel_fp: u128,
    shape: OfflineShape,
    /// The target's fingerprint, for the one shape the target is an
    /// input of.
    target_fp: Option<u128>,
    cfg: CompileConfig,
}

/// 128-bit structural fingerprint of a kernel, a target or a key.
fn fingerprint(value: &impl Hash) -> u128 {
    let mut h = Fnv128::default();
    value.hash(&mut h);
    h.finish128()
}

/// Counters of the engine's cache, artifact-tier, and pool behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Compilations answered from the in-memory cache.
    pub hits: u64,
    /// Compilations that missed the in-memory cache (they ran the
    /// online stage at least; with an offline-tier or artifact hit they
    /// skipped the offline stage).
    pub misses: u64,
    /// Misses whose offline artifact was already in the in-memory
    /// offline tier — built for another target or online pipeline — so
    /// only the online stage ran and the store was not read.
    pub offline_hits: u64,
    /// Entries currently in the compile cache.
    pub entries: usize,
    /// Compiled entries evicted (LRU).
    pub evictions: u64,
    /// Always 0: there is no per-VL execution-form cache to evict from,
    /// because one decode per compilation runs at every VL. Kept for
    /// readers of the counter.
    pub exec_evictions: u64,
    /// Compile-cache lock acquisitions that found the lock held.
    pub contended_locks: u64,
    /// Misses served from the on-disk artifact store (offline stage
    /// skipped; the offline tier had no artifact).
    pub artifact_hits: u64,
    /// Misses that found no artifact on disk.
    pub artifact_misses: u64,
    /// Artifacts present but rejected (bad magic/truncation/checksum,
    /// undecodable or unverifiable payload) and recompiled from source.
    pub artifact_rejects: u64,
    /// Artifacts written to the store.
    pub artifact_writes: u64,
    /// Always 0: no execution form is cached per (key, VL), because one
    /// decode per compilation runs at every VL. Kept for readers of the
    /// counter.
    pub vl_entries: usize,
    /// Executions that reused a pooled memory arena.
    pub pool_reuses: u64,
    /// Executions that allocated a fresh arena (pool empty).
    pub pool_allocs: u64,
}

/// Default bound on cached compilations.
pub const COMPILE_CACHE_CAPACITY: usize = 4096;

/// Bound on pooled execution arenas.
pub const ARENA_POOL_CAPACITY: usize = 8;

/// Configuration of an [`Engine`], built by [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    compile_capacity: usize,
    artifact_dir: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            compile_capacity: COMPILE_CACHE_CAPACITY,
            artifact_dir: None,
        }
    }
}

impl EngineBuilder {
    /// Bound on cached compilations (default [`COMPILE_CACHE_CAPACITY`];
    /// zero is clamped to one). LRU entries are evicted past it.
    pub fn compile_cache_capacity(mut self, cap: usize) -> EngineBuilder {
        self.compile_capacity = cap.max(1);
        self
    }

    /// Attach the persistent artifact tier rooted at `dir`: compile
    /// misses consult the on-disk store before running the offline
    /// stage, and fresh offline artifacts are written back. Several
    /// engines (processes) may share one directory — that is the
    /// "simulated fleet" sharing compiles across restarts.
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Build the engine.
    ///
    /// # Errors
    /// Fails only when an artifact directory was requested but cannot
    /// be created/opened.
    pub fn build(self) -> Result<Engine, PipelineError> {
        let artifacts = self.artifact_dir.as_ref().map(|dir| {
            ArtifactStore::open(dir)
                .map_err(|e| PipelineError(format!("artifact store {}: {e}", dir.display())))
        });
        Ok(Engine {
            compiled: Memo::new(self.compile_capacity),
            // There are never more distinct offline artifacts than
            // compile keys, so the compile cache's bound is enough.
            offline: Memo::new(self.compile_capacity),
            artifacts: artifacts.transpose()?,
            arena_pool: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            offline_hits: AtomicU64::new(0),
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            artifact_rejects: AtomicU64::new(0),
            artifact_writes: AtomicU64::new(0),
            pool_reuses: AtomicU64::new(0),
            pool_allocs: AtomicU64::new(0),
        })
    }
}

/// A persistent compilation service. Cheap to share by reference across
/// threads (`&Engine` is `Send + Sync`); create one per process (or per
/// tenant) and route every compilation through it.
#[derive(Debug)]
pub struct Engine {
    /// The compile cache: request key → compilation (the online level).
    compiled: Memo<CacheKey, Compiled>,
    /// The offline tier: one offline artifact per (kernel, shape,
    /// config), consumed by every compile key of that shape.
    offline: Memo<OfflineKey, Offline>,
    /// The persistent artifact tier, when attached.
    artifacts: Option<ArtifactStore>,
    /// Recycled machine memory arenas for [`Engine::execute`].
    arena_pool: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    offline_hits: AtomicU64,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    artifact_rejects: AtomicU64,
    artifact_writes: AtomicU64,
    pool_reuses: AtomicU64,
    pool_allocs: AtomicU64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::builder()
            .build()
            .expect("default engine has no artifact dir to fail on")
    }
}

impl Engine {
    /// An engine with the default configuration (see [`EngineBuilder`]).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Start configuring an engine: compile-cache bound and
    /// artifact-store path.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Compile through the cache: on a hit, returns the *same*
    /// `Arc<Compiled>` as every previous call with an identical
    /// (kernel content, flow, target, config) tuple.
    ///
    /// On a miss, the offline tier is consulted first: an offline
    /// artifact another target or online pipeline built is consumed by
    /// the online stage alone. Next the persistent artifact tier (when
    /// attached): a valid on-disk artifact skips the offline stage; an
    /// absent one triggers the full pipeline and a write-back; a
    /// corrupt one is rejected and recompiled.
    ///
    /// # Errors
    /// Propagates [`PipelineError`]s from any stage. Failures are not
    /// cached: callers already waiting on a failing compile share its
    /// error, and every later call re-runs the pipeline (failures are
    /// cheap and deterministic, and callers usually abort anyway).
    pub fn compile(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
    ) -> Result<Arc<Compiled>, PipelineError> {
        let key = &CacheKey::new(kernel, flow, target, cfg);
        let (compiled, ran) = self
            .compiled
            .get_or_try_init(key, || self.compile_miss(key, kernel, target));
        let counter = if ran { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        compiled
    }

    /// The miss path: offline tier, then the tuple's artifact file (when
    /// a store is attached), then the full offline stage; the online
    /// stage consumes whichever answered. Every compile key keeps its
    /// own file, so one served by the offline tier still writes it when
    /// absent.
    fn compile_miss(
        &self,
        key: &CacheKey,
        kernel: &Kernel,
        target: &TargetDesc,
    ) -> Result<Compiled, PipelineError> {
        let (id, flow) = (key.artifact_id(), key.flow);
        let mut write = false;
        let (offline, built) = self.offline.get_or_try_init(&key.offline(), || {
            match self.load_artifact(&kernel.name, id) {
                Some(loaded) => Ok(loaded),
                None => {
                    write = self.artifacts.is_some();
                    Offline::build(kernel, flow, target, &key.cfg)
                }
            }
        });
        let offline = offline?;
        if !built {
            self.offline_hits.fetch_add(1, Ordering::Relaxed);
            write = self
                .artifacts
                .as_ref()
                .is_some_and(|store| !store.path_for(id).exists());
        }
        if let (true, Some(store)) = (write, &self.artifacts) {
            // Best effort: a failed write only costs a future recompile.
            if store.save(id, &offline.bytes).is_ok() {
                self.artifact_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        offline.online(&kernel.name, flow, target)
    }

    /// The persistent store's artifact `id`, decoded and verified; `None`
    /// (counted as a miss or a reject) when there is no store, no file,
    /// or no valid artifact in it.
    fn load_artifact(&self, name: &str, id: u128) -> Option<Offline> {
        let store = self.artifacts.as_ref()?;
        let counter = match store.load(id) {
            Ok(Some(bytes)) => match Offline::from_bytes(name, bytes) {
                Ok(offline) => {
                    self.artifact_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(offline);
                }
                // Framed and checksummed but undecodable (e.g. a stale
                // format written by a different bytecode version) or
                // unverifiable: reject and recompile.
                Err(_) => &self.artifact_rejects,
            },
            Ok(None) => &self.artifact_misses,
            Err(_) => &self.artifact_rejects,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The compilation and the pre-decoded program that run `kernel` at
    /// a concrete runtime vector length.
    ///
    /// The compile step is the ordinary cached, VL-*agnostic* pipeline
    /// run, and the program is that compilation's own decode at every
    /// VL: a decoded step holds no lane count and no width-dependent
    /// cost (the machine supplies both), so one `Arc<DecodedProgram>`
    /// per compilation serves every legal VL of a VLA family. Nothing is
    /// built or cached per VL.
    ///
    /// Fixed-width targets are accepted when `vl_bits` names their one
    /// width. This is the head of every request: the (target, VL) pair
    /// is validated before anything is compiled or cached.
    ///
    /// # Errors
    /// Propagates compile-stage [`PipelineError`]s; rejects illegal VLs
    /// and fixed-width/VL mismatches.
    pub fn specialize(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<DecodedProgram>), PipelineError> {
        check_vl(target, vl_bits)?;
        let compiled = self.compile(kernel, flow, target, cfg)?;
        let prog = Arc::clone(&compiled.jit.decoded);
        Ok((compiled, prog))
    }

    /// Take a recycled execution arena from the pool (or report the
    /// need for a fresh allocation), counting reuse.
    pub(crate) fn take_arena(&self) -> Option<Vec<u8>> {
        let buf = lock(&self.arena_pool).pop();
        match &buf {
            Some(_) => self.pool_reuses.fetch_add(1, Ordering::Relaxed),
            None => self.pool_allocs.fetch_add(1, Ordering::Relaxed),
        };
        buf
    }

    /// Return an execution arena to the pool (dropped when full).
    pub(crate) fn put_arena(&self, buf: Vec<u8>) {
        let mut pool = lock(&self.arena_pool);
        if pool.len() < ARENA_POOL_CAPACITY {
            pool.push(buf);
        }
    }

    /// The attached artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.artifacts.as_ref()
    }

    /// Cache hit/miss/eviction counters, artifact-tier and arena-pool
    /// activity, and current sizes.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            offline_hits: self.offline_hits.load(Ordering::Relaxed),
            entries: self.compiled.len(),
            evictions: self.compiled.evictions(),
            exec_evictions: 0,
            contended_locks: self.compiled.contended(),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
            artifact_rejects: self.artifact_rejects.load(Ordering::Relaxed),
            artifact_writes: self.artifact_writes.load(Ordering::Relaxed),
            vl_entries: 0,
            pool_reuses: self.pool_reuses.load(Ordering::Relaxed),
            pool_allocs: self.pool_allocs.load(Ordering::Relaxed),
        }
    }
}

/// Validate a (target, VL) pair — the one check every request and
/// specialization shares: fixed-width targets accept only their own
/// width, VLA families any legal runtime VL.
fn check_vl(target: &TargetDesc, vl_bits: usize) -> Result<(), PipelineError> {
    if !target.vla {
        if target.vs * 8 == vl_bits {
            return Ok(());
        }
        return Err(PipelineError(format!(
            "target {} is fixed at {} bits; cannot specialize to VL={vl_bits}",
            target.name,
            target.vs * 8
        )));
    }
    if !vapor_targets::valid_vl(vl_bits) {
        return Err(PipelineError(format!(
            "illegal runtime VL of {vl_bits} bits (must be a multiple of 128 in 128..=2048)"
        )));
    }
    Ok(())
}

/// The concrete-width execution target of a (family, VL) pair: the
/// family itself when fixed-width, `family.at_vl(vl)` when VLA.
pub(crate) fn exec_target(target: &TargetDesc, vl_bits: usize) -> TargetDesc {
    if target.vla {
        target.at_vl(vl_bits)
    } else {
        target.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_bytecode::{
        encode_module, verify_function, Addr, ArraySym, BcFunction, BcModule, BcStmt, BcTy, Op,
        Operand,
    };
    use vapor_frontend::parse_kernel;
    use vapor_ir::{ArrayKind, BinOp, Expr, KernelBuilder, ScalarTy};
    use vapor_targets::{altivec, sse, MisalignedAccess, Support};

    fn saxpy() -> Kernel {
        parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) {
               for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
             }",
        )
        .unwrap()
    }

    #[test]
    fn cache_hit_returns_the_same_arc() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let b = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second compile must be a cache hit");
        let s = e.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn content_addressing_sees_through_reparsing() {
        // A structurally identical kernel parsed from differently
        // formatted source hits the same entry.
        let e = Engine::new();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e.compile(&saxpy(), Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let k2 = parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) { for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; } }",
        )
        .unwrap();
        let b = e.compile(&k2, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_configs_flows_and_targets_miss() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let base = e
            .compile(&k, Flow::SplitVectorOpt, &t, &CompileConfig::default())
            .unwrap();
        let ablated = e
            .compile(
                &k,
                Flow::SplitVectorOpt,
                &t,
                &CompileConfig {
                    no_alignment_opts: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            !Arc::ptr_eq(&base, &ablated),
            "distinct configs must not share an entry"
        );
        let other_flow = e
            .compile(&k, Flow::SplitScalarOpt, &t, &CompileConfig::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&base, &other_flow));
        let other_target = e
            .compile(
                &k,
                Flow::SplitVectorOpt,
                &altivec(),
                &CompileConfig::default(),
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&base, &other_target));
        assert_eq!(e.stats().entries, 4);
        assert_eq!(e.stats().hits, 0);
    }

    /// `x[i] = x[i] + lit` over `0..n` by `step`, with `x` of `kind`:
    /// the kernel-side inputs the structural key must tell apart.
    fn add_literal(lit: f64, step: i64, kind: ArrayKind) -> Kernel {
        let mut b = KernelBuilder::new("edited");
        let n = b.scalar_param("n", ScalarTy::I64);
        let x = match kind {
            ArrayKind::PointerParam => b.array_param("x", ScalarTy::F32),
            ArrayKind::Global => b.global_array("x", ScalarTy::F32),
        };
        let i = b.fresh_loop_var("i");
        b.for_loop(i, Expr::Int(0), Expr::Var(n), step, |b| {
            let sum = Expr::bin(BinOp::Add, Expr::load(x, Expr::Var(i)), Expr::Float(lit));
            b.store(x, Expr::Var(i), sum);
        });
        b.finish()
    }

    #[test]
    fn edited_same_name_targets_miss_and_get_their_own_artifacts() {
        // `TargetDesc` is a plain pub-field struct: a caller may keep
        // the stock name and edit the cost table or one support-table
        // entry (every `OpClass` and the alignment mode are edited). The
        // key fingerprints the target's full content, so such a target
        // must not share a compilation — in memory or on disk — with
        // the stock one. The same holds for kernels that differ only in
        // what a sloppy fingerprint would blur.
        let dir = scratch_store("target-fp");
        let e = Engine::builder().artifact_dir(&dir).build().unwrap();
        let cfg = CompileConfig::default();
        let flow = Flow::SplitVectorOpt;
        let stock = sse();
        type Edit = (&'static str, fn(&mut TargetDesc));
        let edits: [Edit; 12] = [
            ("vla", |t| t.vla = !t.vla),
            ("misaligned", |t| {
                t.misaligned = MisalignedAccess::AlignedOnly
            }),
            ("ops.fdiv", |t| t.ops.fdiv = Support::Helper),
            ("ops.fsqrt", |t| t.ops.fsqrt = Support::Unsupported),
            ("ops.widen_mult", |t| t.ops.widen_mult = Support::Helper),
            ("ops.cvt", |t| t.ops.cvt = Support::Unsupported),
            ("ops.dot_product", |t| t.ops.dot_product = Support::Helper),
            ("ops.per_lane_shift", |t| {
                t.ops.per_lane_shift = Support::Native
            }),
            ("vs", |t| t.vs *= 2),
            ("vector_elems", |t| t.vector_elems = &[ScalarTy::F32]),
            ("ports.vec_ports", |t| t.ports.vec_ports += 1),
            ("cost.salu", |t| t.cost.salu += 1),
        ];
        let base = add_literal(0.0, 1, ArrayKind::PointerParam);
        let mut jobs = vec![("stock".to_owned(), base.clone(), stock.clone())];
        for (what, edit) in edits {
            let mut t = sse();
            edit(&mut t);
            assert_eq!(t.name, stock.name);
            jobs.push((format!("target {what}"), base.clone(), t));
        }
        for (what, k) in [
            (
                "-0.0 literal",
                add_literal(-0.0, 1, ArrayKind::PointerParam),
            ),
            ("step 2", add_literal(0.0, 2, ArrayKind::PointerParam)),
            ("global array", add_literal(0.0, 1, ArrayKind::Global)),
        ] {
            jobs.push((format!("kernel {what}"), k, stock.clone()));
        }

        let mut seen: Vec<Arc<Compiled>> = Vec::new();
        for (what, k, t) in &jobs {
            let c = e
                .compile(k, flow, t, &cfg)
                .unwrap_or_else(|err| panic!("{what}: {err}"));
            assert!(
                seen.iter().all(|prev| !Arc::ptr_eq(prev, &c)),
                "{what} must miss"
            );
            seen.push(c);
        }
        let n = jobs.len();
        let s = e.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, n as u64, n));
        assert_eq!(s.artifact_writes, n as u64);
        assert_eq!(
            e.artifact_store().unwrap().len(),
            n,
            "{n} distinct .vsart ids"
        );
        // The stock tuple is undisturbed: it still hits its own entry.
        let again = e.compile(&base, flow, &stock, &cfg).unwrap();
        assert!(Arc::ptr_eq(&seen[0], &again));
        assert_eq!(e.stats().hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_compiles_of_one_key_reconcile() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let arcs: Vec<Arc<Compiled>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| e.compile(&k, Flow::SplitVectorNaive, &t, &cfg).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in &arcs {
            assert!(
                Arc::ptr_eq(&arcs[0], a),
                "all racers must observe one canonical Arc"
            );
        }
        let s = e.stats();
        assert_eq!((s.hits, s.misses, s.entries), (7, 1, 1));
    }

    #[test]
    fn vla_specialization_shares_one_compiled_artifact() {
        // Every legal VL of both VLA families runs the compilation's own
        // decode: one artifact, one program, nothing built per VL.
        let e = Engine::new();
        let k = saxpy();
        let cfg = CompileConfig::default();
        for t in [vapor_targets::sve(), vapor_targets::rvv()] {
            let c = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
            for vl in (1..=16).map(|n| n * 128) {
                let (cv, prog) = e
                    .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, vl)
                    .unwrap();
                assert!(Arc::ptr_eq(&cv, &c), "{} VL={vl}: compile once", t.name);
                assert!(
                    Arc::ptr_eq(&prog, &c.jit.decoded),
                    "{} VL={vl}: one decode per compilation",
                    t.name
                );
            }
        }
        assert_eq!(e.stats().misses, 2, "the VL dimension must not recompile");
        assert_eq!(e.stats().entries, 2);
    }

    #[test]
    fn fixed_targets_specialize_only_to_their_own_width() {
        let e = Engine::new();
        let k = saxpy();
        let cfg = CompileConfig::default();
        let (c, p) = e
            .specialize(&k, Flow::SplitVectorOpt, &sse(), &cfg, 128)
            .unwrap();
        assert!(Arc::ptr_eq(&p, &c.jit.decoded), "no re-decode");
        let err = e
            .specialize(&k, Flow::SplitVectorOpt, &sse(), &cfg, 256)
            .unwrap_err();
        assert!(err.0.contains("fixed at 128 bits"), "{err}");
    }

    #[test]
    fn illegal_vl_is_rejected_not_panicked() {
        let e = Engine::new();
        let k = saxpy();
        let err = e
            .specialize(
                &k,
                Flow::SplitVectorOpt,
                &vapor_targets::sve(),
                &CompileConfig::default(),
                192,
            )
            .unwrap_err();
        assert!(err.0.contains("illegal runtime VL"), "{err}");
        let s = e.stats();
        assert_eq!((s.misses, s.entries), (0, 0), "rejected before compiling");
    }

    #[test]
    fn zero_capacity_clamps_to_one_entry() {
        let tiny = Engine::builder().compile_cache_capacity(0).build().unwrap();
        let k = saxpy();
        let cfg = CompileConfig::default();
        let a = tiny.compile(&k, Flow::NativeScalar, &sse(), &cfg).unwrap();
        let b = tiny.compile(&k, Flow::NativeScalar, &sse(), &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one slot still caches");
        tiny.compile(&k, Flow::NativeVector, &sse(), &cfg).unwrap();
        let s = tiny.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 2, 1, 1));
    }

    #[test]
    fn compile_cache_is_bounded_and_counts_evictions() {
        // 18 distinct tuples through a 4-entry cache must evict (counted)
        // rather than grow, and the last tuple compiled is still held.
        let e = Engine::builder().compile_cache_capacity(4).build().unwrap();
        let k = saxpy();
        let cfg = CompileConfig::default();
        let targets = [sse(), altivec(), vapor_targets::sve()];
        let mut last = None;
        for t in &targets {
            for flow in Flow::ALL {
                last = Some((e.compile(&k, flow, t, &cfg).unwrap(), flow, t));
            }
        }
        let s = e.stats();
        assert_eq!((s.misses, s.entries, s.evictions), (18, 4, 14));
        let (arc, flow, t) = last.unwrap();
        let again = e.compile(&k, flow, t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&arc, &again), "most recent entry must survive");
        // Cycling 18 tuples in a fixed order defeats a 4-entry LRU: each
        // is evicted before its turn comes round, so every one misses.
        for t in &targets {
            for flow in Flow::ALL {
                e.compile(&k, flow, t, &cfg).unwrap();
            }
        }
        let s = e.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 36, 4, 32));
    }

    fn scratch_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vapor-engine-artifact-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn artifact_tier_serves_warm_engines() {
        let dir = scratch_store("warm");
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();

        // Cold engine: artifact miss, full compile, write-back.
        let cold = Engine::builder().artifact_dir(&dir).build().unwrap();
        let a = cold.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = cold.stats();
        assert_eq!((s.artifact_misses, s.artifact_writes), (1, 1));
        assert_eq!(s.artifact_hits, 0);
        assert_eq!(cold.artifact_store().unwrap().len(), 1);

        // Warm engine (fresh process simulation): in-memory miss, but
        // the on-disk artifact skips the offline stage — and produces
        // the same machine code.
        let warm = Engine::builder().artifact_dir(&dir).build().unwrap();
        let b = warm.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = warm.stats();
        assert_eq!((s.artifact_hits, s.artifact_misses), (1, 0));
        assert_eq!(s.artifact_writes, 0, "a hit must not rewrite");
        assert_eq!(s.misses, 1, "still an in-memory miss");
        assert_eq!(a.jit.code, b.jit.code, "artifact path must be equivalent");
        assert_eq!(a.bytecode_bytes, b.bytecode_bytes);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifacts_are_rejected_and_recompiled() {
        let dir = scratch_store("reject");
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let cold = Engine::builder().artifact_dir(&dir).build().unwrap();
        let a = cold.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();

        // Flip a payload bit in the one stored artifact.
        let store = cold.artifact_store().unwrap();
        let entry = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "vsart"))
            .expect("one artifact on disk");
        let mut bytes = std::fs::read(entry.path()).unwrap();
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0x01;
        std::fs::write(entry.path(), &bytes).unwrap();

        // A warm engine rejects it, recompiles from source, and heals
        // the store with a fresh write.
        let warm = Engine::builder().artifact_dir(&dir).build().unwrap();
        let b = warm.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = warm.stats();
        assert_eq!(s.artifact_rejects, 1, "corruption must be rejected");
        assert_eq!(s.artifact_hits, 0);
        assert_eq!(s.artifact_writes, 1, "the store must be healed");
        assert_eq!(a.jit.code, b.jit.code);
        // And the healed artifact now hits.
        let third = Engine::builder().artifact_dir(&dir).build().unwrap();
        third.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert_eq!(third.stats().artifact_hits, 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replace the one artifact a cold compile of saxpy stores with the
    /// well-framed `payload` made from its function: a warm engine must
    /// reject it, recompile from source and heal the store.
    fn rejects_and_heals(tag: &str, payload: impl FnOnce(&BcFunction) -> Vec<u8>) {
        let dir = scratch_store(tag);
        let (k, t, cfg) = (saxpy(), sse(), CompileConfig::default());
        let cold = Engine::builder().artifact_dir(&dir).build().unwrap();
        let a = cold.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let store = cold.artifact_store().unwrap();
        let entry = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "vsart"))
            .expect("one artifact on disk");
        let stem = entry
            .path()
            .file_stem()
            .unwrap()
            .to_str()
            .unwrap()
            .to_owned();
        let id = u128::from_str_radix(&stem, 16).unwrap();
        store.save(id, &payload(&a.func)).unwrap();

        let warm = Engine::builder().artifact_dir(&dir).build().unwrap();
        let b = warm.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = warm.stats();
        assert_eq!((s.artifact_rejects, s.artifact_hits), (1, 0), "{tag}");
        assert_eq!(s.artifact_writes, 1, "{tag}: the store must be healed");
        assert_eq!(a.jit.code, b.jit.code, "{tag}: recompiled from source");
        let third = Engine::builder().artifact_dir(&dir).build().unwrap();
        third.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert_eq!(third.stats().artifact_hits, 1, "{tag}: the heal sticks");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_function_artifacts_are_rejected_not_truncated() {
        // A decoy function first and the real one second.
        rejects_and_heals("multi", |f| {
            let mut decoy = f.clone();
            decoy.body.clear();
            encode_module(&BcModule {
                funcs: vec![decoy, f.clone()],
            })
        });
    }

    #[test]
    fn unverifiable_artifacts_are_rejected_not_compiled() {
        // The checksum proves integrity, not validity: one function that
        // decodes, but loads the f32 array `x` as i32 vectors.
        rejects_and_heals("unverified", |f| {
            let mut bad = f.clone();
            let v = bad.fresh_reg(BcTy::Vec(ScalarTy::I32));
            let addr = Addr::new(ArraySym(0), Operand::ConstI(0));
            let op = Op::ALoad(ScalarTy::I32, addr);
            bad.body.insert(0, BcStmt::Def { dst: v, op });
            assert!(verify_function(&bad).is_err());
            encode_module(&BcModule::single(bad))
        });
    }
}
