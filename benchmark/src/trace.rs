//! The traced run: spans around the calls into each layer, recorded from
//! the benchmark's side of every public function.
//!
//! The library has no spans of its own yet, so a traced request is the
//! real call under a *root* span (`frontend.parse`, `core.compile`,
//! `core.execute`) and, right after it, a replay by hand of the chain
//! the call went through — one span per layer function, children of the
//! root. What a request went through is observed, not assumed: it
//! missed the compile cache if the `Arc<Compiled>` it returned is not
//! the one its tuple returned last ([`Seen`]). Only the per-VL LRU is
//! invisible from outside; `respecialize` is therefore replayed *beside*
//! every VLA request, and weighted by how many forms the engine's own
//! counters say it built. The other beside spans (`targets.run.baseline`,
//! `targets.thread`, `targets.run.threaded`, `core.compile_hit`) time
//! tiers and paths the request did not use, on one request in four.
//!
//! A layer's self time is its spans' time minus their children's. Spans
//! stay in memory until the run ends and are then written to
//! `benchmark/out/trace.<workload>.jsonl`.

use std::collections::{BTreeMap, HashSet};
use std::ffi::OsString;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vapor_bytecode::{decode_module, encode_module, verify_function, BcFunction, BcModule};
use vapor_core::{online_compile, CompileConfig, Compiled, Engine, Flow};
use vapor_ir::{print_kernel, Bindings, Value};
use vapor_jit::{CompiledKernel, JitOptions, Pipeline};
use vapor_targets::{
    DecodedProgram, ExecStats, Machine, Memory, TargetDesc, ThreadedProgram, MAX_VS,
};
use vapor_vectorizer::{emit_scalar_function, vectorize, VectorizeOptions};

use crate::run::{out_dir, Counters, Prepared, Reply};
use crate::workload::{Kind, Req, MISALIGN_BYTES};

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;
/// `parent` of a span recorded beside a request: work the request did
/// not (or may not) do.
pub const BESIDE: u32 = u32::MAX - 1;

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request it belongs to: `client << 32 | sequence number`.
    pub req: u64,
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Index of the span that caused it, [`ROOT`] or [`BESIDE`].
    pub parent: u32,
    /// Raw nanoseconds since process start.
    pub start_ns: u64,
    /// Raw nanoseconds since process start.
    pub end_ns: u64,
    /// Work done inside, where the layer has a natural count: bytes
    /// parsed or decoded, instructions simulated.
    pub count: u64,
    /// Calibration factor of the slice it was recorded in.
    pub scale: f32,
}

/// One client's spans.
#[derive(Debug)]
pub struct ClientTracer {
    origin: Instant,
    client: u64,
    requests: u64,
    /// Every span so far; `parent` indexes into this.
    pub spans: Vec<Span>,
    /// First span of the open slice (its scale is not known yet).
    open_from: usize,
    /// `respecialize` replays recorded beside requests.
    respec_replays: u64,
    /// Replays that did not reproduce what the engine returned.
    mismatches: u64,
    /// Machine memory, recycled from replay to replay.
    arena: Vec<u8>,
}

impl ClientTracer {
    /// An empty tracer whose clock starts at `origin`.
    pub fn new(client: usize, origin: Instant) -> ClientTracer {
        ClientTracer {
            origin,
            client: client as u64,
            requests: 0,
            spans: Vec::new(),
            open_from: 0,
            respec_replays: 0,
            mismatches: 0,
            arena: Vec::new(),
        }
    }

    fn add(
        &mut self,
        req: u64,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            count: 0,
            scale: 1.0,
        });
        self.spans.len() as u32 - 1
    }

    fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.add(req, name, parent, start, end))
    }

    /// The open slice ended: its spans get its calibration factor.
    pub fn close_slice(&mut self, scale: f64) {
        for span in &mut self.spans[self.open_from..] {
            span.scale = scale as f32;
        }
        self.open_from = self.spans.len();
    }
}

/// Which compilation last served each compile tuple. The `Arc`s are
/// held, so a later compilation cannot reuse an address: a request whose
/// reply carries a different `Arc` was (or followed) a compile miss, and
/// every compilation is counted by the first request that returns it.
#[derive(Debug, Default)]
pub struct Seen(Mutex<Vec<Option<Arc<Compiled>>>>);

impl Seen {
    /// Record that `tuple` was served by `compiled`; whether nobody had
    /// seen that compilation before.
    pub fn observe(&self, tuple: usize, compiled: &Arc<Compiled>) -> bool {
        let mut last = self.0.lock().expect("no panic while held");
        if last.len() <= tuple {
            last.resize(tuple + 1, None);
        }
        let same = last[tuple]
            .as_ref()
            .is_some_and(|old| Arc::ptr_eq(old, compiled));
        if !same {
            last[tuple] = Some(Arc::clone(compiled));
        }
        !same
    }
}

/// The id of the artifact that appeared in `dir` since the last call.
///
/// # Panics
/// Panics unless exactly one new `.vsart` file is there.
pub(crate) fn new_artifact_id(dir: &Path, listed: &mut HashSet<OsString>) -> u128 {
    let mut fresh = Vec::new();
    for entry in std::fs::read_dir(dir).expect("list the artifact directory") {
        let name = entry.expect("read a directory entry").file_name();
        if listed.insert(name.clone()) {
            fresh.push(name);
        }
    }
    let [name] = &fresh[..] else {
        panic!("one compile wrote {} artifacts", fresh.len());
    };
    let hex = name.to_str().and_then(|n| n.strip_suffix(".vsart"));
    u128::from_str_radix(hex.expect("an artifact file name"), 16).expect("a hex artifact id")
}

/// A machine bound the way `Engine::execute` binds one, from the
/// `Compiled` binding contract: memory recycled from the previous replay
/// (the engine pools its arenas too), scalars into `param_regs` (coerced
/// to the parameter's domain), arrays copied to padded `MAX_VS`-aligned
/// (or deliberately misaligned) bases, bases and byte lengths into their
/// registers.
fn bind<'t>(
    exec: &'t TargetDesc,
    compiled: &Compiled,
    env: &Bindings,
    misaligned: bool,
    arena: Vec<u8>,
) -> Option<Machine<'t>> {
    let func = &compiled.func;
    let vs = exec.vs.max(1);
    let mut total = 4096;
    for a in &func.arrays {
        total += env.array(&a.name)?.bytes.len() + 2 * Memory::pad_for(vs) + 2 * MAX_VS;
    }
    let mut m = Machine::with_memory(exec, Memory::recycled(arena, total, vs));
    for (p, &reg) in func.params.iter().zip(&compiled.jit.param_regs) {
        let v = match (p.ty.is_float(), env.scalar(&p.name)?) {
            (true, Value::Int(i)) => Value::Float(i as f64),
            (false, Value::Float(f)) => Value::Int(f as i64),
            (_, v) => v,
        };
        m.set_sreg(reg, v);
    }
    for (i, a) in func.arrays.iter().enumerate() {
        let bytes = &env.array(&a.name)?.bytes;
        let mis = if misaligned { MISALIGN_BYTES } else { 0 };
        let base = m.mem.alloc_with_misalignment(bytes.len(), MAX_VS, mis);
        m.mem.slice_mut(base, bytes.len()).copy_from_slice(bytes);
        m.set_sreg(compiled.jit.array_base_regs[i], Value::Int(base as i64));
        m.set_sreg(
            compiled.jit.array_len_regs[i],
            Value::Int(bytes.len() as i64),
        );
    }
    Some(m)
}

/// The offline stage by hand under `parent`: vectorize (or emit scalar
/// code), verify, encode. Returns the function, its encoding and how
/// many loops were vectorized and rejected.
fn offline(
    tr: &mut ClientTracer,
    req: u64,
    parent: u32,
    p: &Prepared,
    r: &Req,
) -> (BcFunction, Vec<u8>, usize, usize) {
    let kernel = &p.fx.kernels[r.kernel];
    let (func, vectorized, rejected) = if r.flow.vectorized() {
        let opts = VectorizeOptions {
            native: (r.flow == Flow::NativeVector).then(|| p.fx.targets[r.target].clone()),
            ..VectorizeOptions::default()
        };
        let (result, _) = tr.time(req, "vectorizer.vectorize", parent, || {
            vectorize(kernel, &opts)
        });
        let vectorized = result.reports.iter().filter(|l| l.vectorized).count();
        (result.func, vectorized, result.reports.len() - vectorized)
    } else {
        let (func, _) = tr.time(req, "vectorizer.scalar_emit", parent, || {
            emit_scalar_function(kernel)
        });
        (func, 0, 0)
    };
    let (verified, _) = tr.time(req, "bytecode.verify", parent, || {
        verify_function(&func).is_ok()
    });
    tr.mismatches += u64::from(!verified);
    let module = BcModule::single(func);
    let (bytes, _) = tr.time(req, "bytecode.encode", parent, || encode_module(&module));
    let func = module.funcs.into_iter().next().expect("a single function");
    (func, bytes, vectorized, rejected)
}

/// The online stage by hand under `parent`: decode the bytes (split
/// flows; native flows keep the in-memory function), JIT, and decode the
/// machine code once more on its own, so the JIT's self time is known.
fn online(
    tr: &mut ClientTracer,
    req: u64,
    parent: u32,
    r: &Req,
    target: &TargetDesc,
    bytes: &[u8],
    native: Option<BcFunction>,
) -> Option<CompiledKernel> {
    let func = match native {
        Some(func) if r.flow.pipeline() == Pipeline::Native => Some(func),
        _ => {
            let (module, i) = tr.time(req, "bytecode.decode", parent, || decode_module(bytes));
            tr.spans[i as usize].count = bytes.len() as u64;
            module.ok().and_then(|m| m.funcs.into_iter().next())
        }
    };
    let opts = JitOptions::new(r.flow.pipeline());
    let jit = func.and_then(|func| {
        let (jit, j) = tr.time(req, "jit.compile", parent, || {
            vapor_jit::compile(&func, target, &opts)
        });
        let jit = jit.ok()?;
        tr.time(req, "targets.decode", j, || {
            DecodedProgram::decode(&jit.code, target).is_ok()
        });
        Some(jit)
    });
    tr.mismatches += u64::from(jit.is_none());
    jit
}

/// Record one request: its root span(s) from the instants the client
/// took around the real call, then the replay.
pub(crate) fn trace_request(
    tr: &mut ClientTracer,
    p: &Prepared,
    engine: &Engine,
    id: u32,
    reply: &Reply,
    [start, parsed, end]: [Instant; 3],
    sampled: bool,
) {
    let r = p.fx.population[id as usize];
    let kernel = &p.fx.kernels[r.kernel];
    let target = &p.fx.targets[r.target];
    let compiled = &reply.compiled;
    let req = tr.client << 32 | tr.requests;
    tr.requests += 1;

    let root = if p.fx.kind.compiles() {
        let i = tr.add(req, "frontend.parse", ROOT, start, parsed);
        tr.spans[i as usize].count = p.fx.specs[r.kernel].source.len() as u64;
        tr.add(req, "core.compile", ROOT, parsed, end)
    } else {
        tr.add(req, "core.execute", ROOT, start, end)
    };

    // The cache key prints the kernel: once for the compile cache and
    // once more for the per-VL cache.
    for _ in 0..if target.vla { 2 } else { 1 } {
        tr.time(req, "ir.print", root, || print_kernel(kernel));
    }

    if reply.missed {
        match engine.artifact_store() {
            // Online only: the artifact tier answers with the bytes.
            Some(store) => {
                let id = p.artifact_ids[r.tuple];
                let (bytes, _) = tr.time(req, "core.artifact_load", root, || store.load(id));
                match bytes {
                    Ok(Some(bytes)) => {
                        let (_, oc) = tr.time(req, "core.online_compile", root, || {
                            online_compile(&kernel.name, &bytes, r.flow, target).is_ok()
                        });
                        online(tr, req, oc, &r, target, &bytes, None);
                    }
                    _ => tr.mismatches += 1,
                }
            }
            None => {
                let (func, bytes, ..) = offline(tr, req, root, p, &r);
                online(tr, req, root, &r, target, &bytes, Some(func));
            }
        }
    }

    let fixed;
    let exec = if target.vla {
        fixed = target.at_vl(r.vl_bits);
        &fixed
    } else {
        target
    };
    let code = &compiled.jit.code;
    let mut prog = Arc::clone(&compiled.jit.decoded);
    if target.vla {
        let (own, _) = tr.time(req, "targets.respecialize", BESIDE, || {
            prog.respecialize(code, exec)
        });
        tr.respec_replays += 1;
        match own {
            Ok(own) => prog = Arc::new(own),
            Err(_) => tr.mismatches += 1,
        }
    }
    let Some(want) = reply.stats else {
        return;
    };

    // The run, on a machine the benchmark bound itself. A replay that
    // does not reproduce the engine's statistics measured something
    // else: it is dropped and counted.
    let env = &p.fx.envs[r.kernel];
    let run =
        |tr: &mut ClientTracer, name, parent, f: &dyn Fn(&mut Machine<'_>) -> Option<ExecStats>| {
            let arena = std::mem::take(&mut tr.arena);
            let Some(mut m) = bind(exec, compiled, env, r.misaligned, arena) else {
                tr.mismatches += 1;
                return;
            };
            let (got, i) = tr.time(req, name, parent, || f(&mut m));
            tr.arena = m.into_arena();
            // Cycles, not instructions: the baseline loop counts labels.
            if got.map(|s| s.cycles) == Some(want.cycles) {
                tr.spans[i as usize].count = want.insts;
            } else {
                tr.spans.truncate(i as usize);
                tr.mismatches += 1;
            }
        };
    run(tr, "targets.run.decoded", root, &|m| {
        m.run_decoded(&prog).ok()
    });
    if sampled {
        run(tr, "targets.run.baseline", BESIDE, &|m| m.run(code).ok());
        let (threaded, _) = tr.time(req, "targets.thread", BESIDE, || {
            ThreadedProgram::thread(&prog, code)
        });
        run(tr, "targets.run.threaded", BESIDE, &|m| {
            m.run_threaded(&threaded).ok()
        });
        let cfg = CompileConfig::default();
        tr.time(req, "core.compile_hit", BESIDE, || {
            engine.compile(kernel, r.flow, target, &cfg).is_ok()
        });
    }
}

/// Count-type layer metrics of the workload's distinct compile tuples,
/// from one pass of the whole chain by hand.
#[derive(Debug, Default)]
struct Inventory {
    loops_vectorized: usize,
    loops_rejected: usize,
    bytes: usize,
    minsts: usize,
    groups_vector: usize,
    groups_scalarized: usize,
    helper_calls: usize,
    guards_folded: usize,
    steps: usize,
    superinsts: usize,
    regions: usize,
    streams: usize,
    mismatches: u64,
}

fn inventory(p: &Prepared) -> Inventory {
    let mut inv = Inventory::default();
    // The chain's spans are not wanted here, only what it returns.
    let mut scratch = ClientTracer::new(0, Instant::now());
    for (tuple, ids) in p.fx.by_tuple.iter().enumerate() {
        let r = p.fx.population[ids[0] as usize];
        let target = &p.fx.targets[r.target];
        let (func, bytes, vectorized, rejected) = offline(&mut scratch, 0, ROOT, p, &r);
        inv.loops_vectorized += vectorized;
        inv.loops_rejected += rejected;
        inv.bytes += bytes.len();
        let Some(jit) = online(&mut scratch, 0, ROOT, &r, target, &bytes, Some(func)) else {
            continue;
        };
        if bytes.len() != p.expected.bytes[tuple] || jit.stats.insts != p.expected.minsts[tuple] {
            inv.mismatches += 1;
        }
        inv.minsts += jit.stats.insts;
        inv.groups_vector += jit.stats.groups_vector;
        inv.groups_scalarized += jit.stats.groups_direct_scalar + jit.stats.groups_tail_scalar;
        inv.helper_calls += jit.stats.helper_calls;
        inv.guards_folded += jit.stats.guards_folded;
        inv.steps += jit.decoded.n_steps();
        inv.superinsts += jit.decoded.fusion_stats().total() as usize;
        let threaded = ThreadedProgram::thread(&jit.decoded, &jit.code);
        inv.regions += threaded.regions().len();
        inv.streams += threaded.streams().len();
        scratch.spans.clear();
    }
    inv.mismatches += scratch.mismatches;
    inv
}

/// Per-name sums over the traced rounds, in calibrated µs.
#[derive(Debug, Clone, Copy, Default)]
struct Sum {
    calls: u64,
    us: f64,
    self_us: f64,
    count: u64,
}

/// Numbers the traced run takes from outside the spans.
#[derive(Debug)]
pub(crate) struct Host {
    pub spin_ms: f64,
    pub raw_req_per_s: f64,
    pub cpu_us_per_req: f64,
    /// Calibrated mean request time of the untraced rounds.
    pub untraced_us: f64,
    pub interp_ms: f64,
}

/// Reduce the spans, the counted rounds' engine counters and the
/// inventory to the per-layer metrics.
pub(crate) fn reduce(
    p: &Prepared,
    tracers: &[ClientTracer],
    counters: &Counters,
    respec_builds: u64,
    host: &Host,
) -> BTreeMap<&'static str, f64> {
    // Per name: time, self time (minus children), calls; in-path spans
    // (a root or under one) also add their self time to their layer.
    let mut by_name: BTreeMap<&'static str, Sum> = BTreeMap::new();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut root_us = 0.0;
    let mut roots = 0u64;
    for tr in tracers {
        let us = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-3 * f64::from(s.scale);
        let mut children = vec![0.0; tr.spans.len()];
        for s in &tr.spans {
            if s.parent < BESIDE {
                children[s.parent as usize] += us(s);
            }
        }
        for (i, s) in tr.spans.iter().enumerate() {
            let sum = by_name.entry(s.name).or_default();
            sum.calls += 1;
            sum.us += us(s);
            sum.self_us += us(s) - children[i];
            sum.count += s.count;
            if s.parent != BESIDE {
                let layer = s.name.split('.').next().expect("split yields one item");
                *by_layer.entry(layer).or_default() += us(s) - children[i];
            }
            if s.parent == ROOT {
                root_us += us(s);
                // `frontend.parse` and `core.compile` are one request.
                roots += u64::from(s.name != "frontend.parse");
            }
        }
    }
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let mean = |name: &str| {
        let s = get(name);
        if s.calls == 0 {
            0.0
        } else {
            s.us / s.calls as f64
        }
    };
    let mean_self = |name: &str| {
        let s = get(name);
        if s.calls == 0 {
            0.0
        } else {
            s.self_us / s.calls as f64
        }
    };
    // count per calibrated µs: MB/s for bytes, MIPS for instructions.
    let per_us = |name: &str| {
        let s = get(name);
        if s.us == 0.0 {
            0.0
        } else {
            s.count as f64 / s.us
        }
    };

    // `respecialize` ran beside every VLA request; the engine built
    // `respec_builds` forms. That share of the replays' time was really
    // spent inside the roots: it moves from `core` self time to
    // `targets`.
    let replays: u64 = tracers.iter().map(|t| t.respec_replays).sum();
    let respec_us = if replays == 0 {
        0.0
    } else {
        get("targets.respecialize").us * respec_builds as f64 / replays as f64
    };
    *by_layer.entry("targets").or_default() += respec_us;
    *by_layer.entry("core").or_default() -= respec_us;
    let root_name = if p.fx.kind.compiles() {
        "core.compile"
    } else {
        "core.execute"
    };
    let root_self_us = (get(root_name).self_us - respec_us) / roots.max(1) as f64;

    let inv = inventory(p);
    let mismatches = inv.mismatches + tracers.iter().map(|t| t.mismatches).sum::<u64>();
    let traced_us = root_us / roots.max(1) as f64;
    let share = |layer: &str| 100.0 * by_layer.get(layer).copied().unwrap_or(0.0) / root_us;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };

    let is_exec = !p.fx.kind.compiles();
    BTreeMap::from([
        ("frontend.parse_us", mean("frontend.parse")),
        ("frontend.parse_mb_per_s", per_us("frontend.parse")),
        ("frontend.share_pct", share("frontend")),
        ("ir.print_us", mean("ir.print")),
        ("ir.interp_ms", host.interp_ms),
        ("ir.share_pct", share("ir")),
        ("vectorizer.vectorize_us", mean("vectorizer.vectorize")),
        ("vectorizer.scalar_emit_us", mean("vectorizer.scalar_emit")),
        ("vectorizer.loops_vectorized", inv.loops_vectorized as f64),
        ("vectorizer.loops_rejected", inv.loops_rejected as f64),
        ("vectorizer.share_pct", share("vectorizer")),
        ("bytecode.verify_us", mean("bytecode.verify")),
        ("bytecode.encode_us", mean("bytecode.encode")),
        ("bytecode.decode_us", mean("bytecode.decode")),
        ("bytecode.decode_mb_per_s", per_us("bytecode.decode")),
        ("bytecode.bytes", inv.bytes as f64),
        ("bytecode.share_pct", share("bytecode")),
        ("jit.compile_us", mean("jit.compile")),
        ("jit.self_us", mean_self("jit.compile")),
        ("jit.minsts", inv.minsts as f64),
        ("jit.groups_vector", inv.groups_vector as f64),
        ("jit.groups_scalarized", inv.groups_scalarized as f64),
        ("jit.helper_calls", inv.helper_calls as f64),
        ("jit.guards_folded", inv.guards_folded as f64),
        ("jit.share_pct", share("jit")),
        ("targets.decode_us", mean("targets.decode")),
        ("targets.respecialize_us", mean("targets.respecialize")),
        ("targets.thread_us", mean("targets.thread")),
        ("targets.steps", inv.steps as f64),
        ("targets.superinsts", inv.superinsts as f64),
        ("targets.regions", inv.regions as f64),
        ("targets.streams", inv.streams as f64),
        (
            "targets.vm_insts",
            p.expected.insts.iter().sum::<u64>() as f64,
        ),
        ("targets.run_us.baseline", mean("targets.run.baseline")),
        ("targets.run_us.decoded", mean("targets.run.decoded")),
        ("targets.run_us.threaded", mean("targets.run.threaded")),
        ("targets.sim_mips.baseline", per_us("targets.run.baseline")),
        ("targets.sim_mips.decoded", per_us("targets.run.decoded")),
        ("targets.sim_mips.threaded", per_us("targets.run.threaded")),
        ("targets.share_pct", share("targets")),
        ("core.execute_us", if is_exec { traced_us } else { 0.0 }),
        (
            "core.execute_self_us",
            if is_exec { root_self_us } else { 0.0 },
        ),
        (
            "core.compile_us",
            if is_exec { 0.0 } else { mean("core.compile") },
        ),
        (
            "core.compile_self_us",
            if is_exec { 0.0 } else { root_self_us },
        ),
        ("core.compile_hit_us", mean("core.compile_hit")),
        ("core.compile_misses", counters.misses as f64),
        ("core.hit_ratio", ratio(counters.hits, counters.misses)),
        ("core.evictions", counters.evictions as f64),
        ("core.exec_evictions", counters.exec_evictions as f64),
        ("core.vl_builds", counters.vl_builds as f64),
        ("core.artifact_hits", counters.artifact_hits as f64),
        ("core.artifact_load_us", mean("core.artifact_load")),
        ("core.online_compile_us", mean("core.online_compile")),
        ("core.contended_locks", counters.contended_locks as f64),
        (
            "core.pool_reuse_ratio",
            ratio(counters.pool_reuses, counters.pool_allocs),
        ),
        ("core.share_pct", share("core")),
        ("host.spin_ms", host.spin_ms),
        ("host.raw_req_per_s", host.raw_req_per_s),
        ("host.cpu_us_per_req", host.cpu_us_per_req),
        (
            "trace.overhead_pct",
            100.0 * (traced_us - host.untraced_us) / host.untraced_us,
        ),
        ("trace.replay_mismatch", mismatches as f64),
        (
            "trace.spans",
            tracers.iter().map(|t| t.spans.len()).sum::<usize>() as f64,
        ),
    ])
}

/// Write every span as one JSON object per line.
pub(crate) fn write_jsonl(kind: Kind, tracers: &[ClientTracer]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace.{}.jsonl", kind.name())))?;
    let mut w = std::io::BufWriter::new(file);
    for tr in tracers {
        for (i, s) in tr.spans.iter().enumerate() {
            let parent = match s.parent {
                ROOT | BESIDE => "null".to_owned(),
                parent => parent.to_string(),
            };
            writeln!(
                w,
                "{{\"client\":{},\"span\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"beside\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{},\"scale\":{}}}",
                tr.client,
                s.req,
                s.name,
                s.parent == BESIDE,
                s.start_ns,
                s.end_ns,
                s.count,
                s.scale
            )?;
        }
    }
    w.flush()
}
