//! Set-up, the correctness gate and the measured rounds.
//!
//! One run is: set up [`RunConfig::setups`] times (each timed, the last
//! one kept), issue rounds of requests for the configured length with
//! every slice of timed work bracketed by calibration spins, execute
//! every distinct request once more against the oracle, and reduce the
//! logs to the metrics of [`crate::spec`]. A traced run
//! ([`RunConfig::trace`]) issues the same rounds but follows two counted
//! untraced rounds with rounds that record spans (see [`crate::trace`]).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vapor_core::{AllocPolicy, CompileConfig, Compiled, Engine, EngineStats, ExecRequest};
use vapor_frontend::parse_kernel;
use vapor_ir::{ArrayData, Bindings};
use vapor_targets::ExecStats;

use crate::calib::{scale, Spinner, SLICE_S};
use crate::trace::{self, ClientTracer, Seen};
use crate::workload::{Fixture, Kind, CHURN_CACHE_CAPACITY, MISALIGN_BYTES};

/// Relative tolerance of the float comparison (vector reductions
/// reassociate float sums). Integers must match bit for bit.
pub const FLOAT_TOLERANCE: f64 = 2e-4;
/// Untraced rounds at the start of a traced run whose engine counters
/// become the count-type `core.*` metrics: a fixed number, so the counts
/// repeat exactly and two commits compare exactly.
pub const COUNTED_ROUNDS: usize = 2;
/// A traced run records at least this many traced rounds …
pub const MIN_TRACED_ROUNDS: usize = 2;
/// … and stops early once it holds this many spans.
pub const MAX_SPANS: usize = 100_000;

/// Set-ups repeat until this many raw seconds of set-up were timed …
pub const SETUP_SAMPLE_S: f64 = 0.5;
/// … but no more often than this.
pub const MAX_SETUPS: usize = 25;

/// Fewest requests a latency percentile is taken over (see
/// [`block_percentiles`]): ten samples beyond the 99th.
pub const MIN_BLOCK: usize = 1000;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// Whole rounds until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many rounds (the determinism tests).
    Rounds(usize),
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed of the request order.
    pub seed: u64,
    /// Measured length.
    pub length: Length,
    /// How many times to set up (the median is `setup_s`).
    pub setups: usize,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests issued, set-up and final verification included.
    pub attempted: u64,
    /// Requests that failed (see [`Prepared::check`]).
    pub failed: u64,
    /// Metric values by name: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub values: BTreeMap<&'static str, f64>,
    /// FNV-1a over every population id issued in a measured round, in
    /// order, client by client.
    pub requests_digest: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// `req_per_s` before calibration (`host.raw_req_per_s`).
    pub raw_req_per_s: f64,
    /// Mean calibration spin in milliseconds (`host.spin_ms`).
    pub spin_ms: f64,
}

/// The benchmark's scratch directory, `benchmark/out`.
pub fn out_dir() -> PathBuf {
    // Cargo sets the variable for `cargo run` and `cargo test`; a copied
    // executable falls back to where it was built.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    PathBuf::from(manifest).join("out")
}

/// A directory under `benchmark/out` that is removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    fn new() -> std::io::Result<TempDir> {
        // Tests run several workloads in one process.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("artifacts.{}.{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing to do about a failure here; the directory is ignored
        // by git either way.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `churn_2t`'s artifact store: one directory for the whole run, filled
/// by the first set-up. Later set-ups find it full, as a restarted
/// process would — the tier is persistent — and so time no `fsync`s,
/// whose cost is the host's disk, not the system under test.
#[derive(Debug)]
pub struct Store {
    dir: TempDir,
    /// Artifact id of each compile tuple (traced runs only).
    ids: Vec<u128>,
}

impl Store {
    /// An empty engine over the store.
    fn engine(&self) -> Engine {
        Engine::builder()
            .compile_cache_capacity(CHURN_CACHE_CAPACITY)
            .artifact_dir(&self.dir.0)
            .build()
            .expect("open the artifact directory")
    }

    /// Compile every tuple through an engine of its own, which writes
    /// every artifact.
    fn fill(fx: &Fixture, trace: bool) -> Store {
        let mut store = Store {
            dir: TempDir::new().expect("create the artifact directory"),
            ids: Vec::new(),
        };
        let filler = store.engine();
        let cfg = CompileConfig::default();
        let mut listed = std::collections::HashSet::new();
        for ids in &fx.by_tuple {
            let r = fx.population[ids[0] as usize];
            filler
                .compile(&fx.kernels[r.kernel], r.flow, &fx.targets[r.target], &cfg)
                .expect("suite tuple compiles");
            if trace {
                // The store names files by a key hash it does not
                // publish: the file that appeared is this tuple's.
                store
                    .ids
                    .push(trace::new_artifact_id(&store.dir.0, &mut listed));
            }
        }
        store
    }
}

/// What the set-up pass saw every distinct request produce: later
/// requests must reproduce it.
#[derive(Debug, Default)]
pub struct Expected {
    /// Simulated cycles of each population entry.
    pub cycles: Vec<u64>,
    /// Simulated instructions of each population entry.
    pub insts: Vec<u64>,
    /// Encoded bytecode size of each compile tuple.
    pub bytes: Vec<usize>,
    /// Machine instructions the JIT emitted for each compile tuple.
    pub minsts: Vec<usize>,
}

/// What one request returned.
#[derive(Debug)]
pub struct Reply {
    /// The compilation that served it.
    pub compiled: Arc<Compiled>,
    /// VM statistics (execute requests).
    pub stats: Option<ExecStats>,
    /// Final arrays (execute requests).
    pub out: Option<Bindings>,
    /// Traced runs: nobody had been served by `compiled` before, so the
    /// request was a compile miss.
    pub missed: bool,
}

/// A workload set up and verified, ready to be measured.
#[derive(Debug)]
pub struct Prepared {
    /// Inputs, oracle and population.
    pub fx: Fixture,
    /// The set-up pass's observations.
    pub expected: Expected,
    /// The engine the clients share; `cold_compile` builds a fresh one
    /// per round instead.
    pub engine: Option<Engine>,
    /// Artifact id of each compile tuple (traced `churn_2t` runs only).
    pub artifact_ids: Vec<u128>,
    /// Which compilation last served each tuple (traced runs only).
    pub seen: Option<Seen>,
    /// Requests the set-up pass issued.
    pub attempted: u64,
    /// Requests of the set-up pass that failed.
    pub failed: u64,
}

impl Prepared {
    /// Set the workload up: parse, build inputs, interpret for the
    /// oracle, fill the artifact store if this is the run's first set-up
    /// (`churn_2t`), then execute every distinct request once — which
    /// verifies all outputs against the oracle, records what later
    /// requests must reproduce and leaves every cache warm.
    ///
    /// # Panics
    /// Panics when the artifact directory cannot be created or filled.
    pub fn new(kind: Kind, trace: bool, store: &mut Option<Store>) -> Prepared {
        let fx = Fixture::build(kind);
        let engine = match kind {
            Kind::ColdCompile => None,
            Kind::WarmSmall | Kind::HotLoops => Some(Engine::new()),
            Kind::Churn2t => Some(
                store
                    .get_or_insert_with(|| Store::fill(&fx, trace))
                    .engine(),
            ),
        };
        let artifact_ids = store.as_ref().map_or_else(Vec::new, |s| s.ids.clone());

        let mut p = Prepared {
            expected: Expected {
                cycles: vec![0; fx.population.len()],
                insts: vec![0; fx.population.len()],
                bytes: vec![0; fx.by_tuple.len()],
                minsts: vec![0; fx.by_tuple.len()],
            },
            fx,
            engine,
            artifact_ids,
            seen: trace.then(Seen::default),
            attempted: 0,
            failed: 0,
        };
        p.verify_population();
        p
    }

    /// Execute every distinct request once and record cycles,
    /// instructions and sizes.
    fn verify_population(&mut self) {
        let scratch;
        let engine = match &self.engine {
            Some(e) => e,
            None => {
                scratch = Engine::new();
                &scratch
            }
        };
        for id in self.fx.warmup_order() {
            let r = self.fx.population[id as usize];
            self.attempted += 1;
            match self.execute(engine, id) {
                Ok(reply) => {
                    let stats = reply.stats.expect("execute replies carry stats");
                    self.expected.cycles[id as usize] = stats.cycles;
                    self.expected.insts[id as usize] = stats.insts;
                    self.expected.bytes[r.tuple] = reply.compiled.bytecode_bytes;
                    self.expected.minsts[r.tuple] = reply.compiled.jit.stats.insts;
                    if !self.outputs_match(id, &reply) {
                        self.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("set-up: {}: {e}", self.describe(id));
                    self.failed += 1;
                }
            }
        }
    }

    /// A line that names a population entry in error messages.
    pub fn describe(&self, id: u32) -> String {
        let r = self.fx.population[id as usize];
        format!(
            "{} on {} ({}, VL {}{})",
            self.fx.specs[r.kernel].name,
            self.fx.targets[r.target].name,
            r.flow,
            r.vl_bits,
            if r.misaligned { ", misaligned" } else { "" }
        )
    }

    /// `Engine::execute` of population entry `id`.
    fn execute(&self, engine: &Engine, id: u32) -> Result<Reply, String> {
        let r = self.fx.population[id as usize];
        let target = &self.fx.targets[r.target];
        let mut req = ExecRequest::new(&self.fx.kernels[r.kernel], target, &self.fx.envs[r.kernel])
            .flow(r.flow);
        if target.vla {
            req = req.vl_bits(r.vl_bits);
        }
        if r.misaligned {
            req = req.policy(AllocPolicy::Misaligned(MISALIGN_BYTES));
        }
        let done = engine.execute(&req).map_err(|e| e.to_string())?;
        Ok(Reply {
            missed: self.observe(r.tuple, &done.compiled),
            compiled: done.compiled,
            stats: Some(done.stats),
            out: Some(done.out),
        })
    }

    /// The workload's request for population entry `id`: parse + compile
    /// on `cold_compile`, execute elsewhere. The instant is when the
    /// parse ended (when the request began, without a parse).
    pub fn issue(&self, engine: &Engine, id: u32) -> (Instant, Result<Reply, String>) {
        if !self.fx.kind.compiles() {
            return (Instant::now(), self.execute(engine, id));
        }
        let r = self.fx.population[id as usize];
        let target = &self.fx.targets[r.target];
        let cfg = CompileConfig::default();
        let kernel = parse_kernel(self.fx.specs[r.kernel].source);
        let parsed = Instant::now();
        let reply = kernel.map_err(|e| e.to_string()).and_then(|kernel| {
            let compiled = if target.vla {
                engine
                    .specialize(&kernel, r.flow, target, &cfg, r.vl_bits)
                    .map(|(compiled, _)| compiled)
            } else {
                engine.compile(&kernel, r.flow, target, &cfg)
            };
            compiled.map_err(|e| e.to_string())
        });
        let reply = reply.map(|compiled| Reply {
            missed: self.observe(r.tuple, &compiled),
            compiled,
            stats: None,
            out: None,
        });
        (parsed, reply)
    }

    fn observe(&self, tuple: usize, compiled: &Arc<Compiled>) -> bool {
        self.seen
            .as_ref()
            .is_some_and(|seen| seen.observe(tuple, compiled))
    }

    /// Whether a measured request reproduced what set-up saw: the
    /// tuple's bytecode size and machine-instruction count, and for an
    /// execute the cycle and instruction counts.
    pub fn check(&self, id: u32, reply: &Reply) -> bool {
        let r = self.fx.population[id as usize];
        reply.compiled.bytecode_bytes == self.expected.bytes[r.tuple]
            && reply.compiled.jit.stats.insts == self.expected.minsts[r.tuple]
            && reply.stats.is_none_or(|s| {
                s.cycles == self.expected.cycles[id as usize]
                    && s.insts == self.expected.insts[id as usize]
            })
    }

    /// Whether every array an execute left behind equals the oracle's.
    pub fn outputs_match(&self, id: u32, reply: &Reply) -> bool {
        let r = self.fx.population[id as usize];
        let out = reply.out.as_ref().expect("execute replies carry outputs");
        let mut ok = true;
        for (name, want) in self.fx.oracle[r.kernel].arrays() {
            let same = out.array(name).is_some_and(|got| arrays_equal(want, got));
            if !same {
                eprintln!(
                    "{}: array {name} differs from the oracle",
                    self.describe(id)
                );
                ok = false;
            }
        }
        ok
    }

    /// Execute every distinct request on `engine` once more and compare
    /// all outputs and counts: `(attempted, failed)`.
    fn final_pass(&self, engine: &Engine) -> (u64, u64) {
        let mut failed = 0;
        for id in 0..self.fx.population.len() as u32 {
            let good = match self.execute(engine, id) {
                Ok(reply) => self.check(id, &reply) && self.outputs_match(id, &reply),
                Err(e) => {
                    eprintln!("final pass: {}: {e}", self.describe(id));
                    false
                }
            };
            failed += u64::from(!good);
        }
        (self.fx.population.len() as u64, failed)
    }
}

/// The benchmark's own comparer: integers bit-exact, floats within
/// [`FLOAT_TOLERANCE`] relative to `max(|a|, |b|, 1)`.
pub fn arrays_equal(want: &ArrayData, got: &ArrayData) -> bool {
    if want.elem != got.elem || want.len() != got.len() {
        return false;
    }
    if want.bytes == got.bytes {
        return true;
    }
    want.elem.is_float()
        && (0..want.len()).all(|i| {
            let (a, b) = (want.get(i).as_float(), got.get(i).as_float());
            (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
        })
}

/// One round of one client, reduced.
#[derive(Debug, Clone, Copy, Default)]
struct RoundSum {
    requests: usize,
    calibrated_s: f64,
    raw_s: f64,
    traced: bool,
}

/// One closed-loop client: its logs and its open slice.
#[derive(Debug)]
pub(crate) struct Client {
    /// Calibrated latency of every request of a closed slice, in µs.
    lat_us: Vec<f32>,
    /// Raw latencies of the open slice, in ns.
    slice_ns: Vec<u64>,
    slice_start: Instant,
    spinner: Spinner,
    last_spin: f64,
    spin_sum: f64,
    spins: usize,
    rounds: Vec<RoundSum>,
    attempted: u64,
    failed: u64,
    digest: u64,
    pub(crate) tracer: Option<ClientTracer>,
}

impl Client {
    fn new(capacity: usize, tracer: Option<ClientTracer>) -> Client {
        // Written, not just reserved: the pages are resident before the
        // first round, so peak memory does not grow with the request count.
        let mut lat_us = vec![f32::NAN; capacity];
        lat_us.clear();
        Client {
            lat_us,
            slice_ns: Vec::with_capacity(1 << 16),
            slice_start: Instant::now(),
            spinner: Spinner::new(),
            last_spin: 0.0,
            spin_sum: 0.0,
            spins: 0,
            rounds: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            tracer,
        }
    }

    fn spin(&mut self) -> f64 {
        let s = self.spinner.spin();
        self.spin_sum += s;
        self.spins += 1;
        s
    }

    /// Spin, turn the open slice's raw times into calibrated ones and
    /// add them to the current round.
    fn close_slice(&mut self) {
        let after = self.spin();
        let k = scale(self.last_spin, after);
        self.last_spin = after;
        let round = self.rounds.last_mut().expect("a slice belongs to a round");
        for ns in self.slice_ns.drain(..) {
            let raw_s = ns as f64 * 1e-9;
            round.raw_s += raw_s;
            round.calibrated_s += raw_s * k;
            self.lat_us.push((raw_s * k * 1e6) as f32);
        }
        if let Some(tr) = &mut self.tracer {
            tr.close_slice(k);
        }
        self.slice_start = Instant::now();
    }

    /// Issue `ids` in order, each after the previous one's reply.
    fn run_round(
        &mut self,
        p: &Prepared,
        engine: &Engine,
        ids: &[u32],
        traced: bool,
        round: usize,
    ) {
        self.rounds.push(RoundSum {
            traced,
            ..RoundSum::default()
        });
        if self.spins == 0 {
            self.last_spin = self.spin();
        }
        self.slice_start = Instant::now();
        for (n, &id) in ids.iter().enumerate() {
            self.digest = (self.digest ^ u64::from(id)).wrapping_mul(0x0100_0000_01b3);
            let start = Instant::now();
            let (parsed, reply) = p.issue(engine, id);
            let end = Instant::now();
            self.slice_ns.push((end - start).as_nanos() as u64);
            self.attempted += 1;
            match &reply {
                Ok(reply) if p.check(id, reply) => {
                    if let (true, Some(tr)) = (traced, &mut self.tracer) {
                        // Each request takes its turn at the costly
                        // side replays once every four rounds.
                        let sampled = (n + round).is_multiple_of(4);
                        trace::trace_request(
                            tr,
                            p,
                            engine,
                            id,
                            reply,
                            [start, parsed, end],
                            sampled,
                        );
                    }
                }
                Ok(_) => {
                    eprintln!("{}: counts differ from set-up's", p.describe(id));
                    self.failed += 1;
                }
                Err(e) => {
                    eprintln!("{}: {e}", p.describe(id));
                    self.failed += 1;
                }
            }
            if (end - self.slice_start).as_secs_f64() >= SLICE_S {
                self.close_slice();
            }
        }
        self.rounds.last_mut().expect("pushed above").requests = ids.len();
        self.close_slice();
    }
}

/// Engine counters summed over the counted rounds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub exec_evictions: u64,
    pub contended_locks: u64,
    pub artifact_hits: u64,
    pub pool_reuses: u64,
    pub pool_allocs: u64,
    /// Per-VL execution forms built: evictions plus growth of the LRU.
    pub vl_builds: u64,
}

impl Counters {
    fn add(&mut self, after: &EngineStats, before: &EngineStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.exec_evictions += after.exec_evictions - before.exec_evictions;
        self.contended_locks += after.contended_locks - before.contended_locks;
        self.artifact_hits += after.artifact_hits - before.artifact_hits;
        self.pool_reuses += after.pool_reuses - before.pool_reuses;
        self.pool_allocs += after.pool_allocs - before.pool_allocs;
        self.vl_builds += (after.exec_evictions - before.exec_evictions + after.vl_entries as u64)
            .saturating_sub(before.vl_entries as u64);
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f32], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Each percentile taken within every block of whole rounds that holds
/// at least [`MIN_BLOCK`] requests (all clients pooled), then the median
/// over blocks: a stall of the host lands in one block's tail, not in
/// the reported number. The last block takes the rounds left over.
fn block_percentiles(clients: &[Client], rounds: usize, ps: [f64; 2]) -> [f64; 2] {
    let per_round: usize = clients.iter().map(|c| c.rounds[0].requests).sum();
    let blocks = (rounds / MIN_BLOCK.div_ceil(per_round)).max(1);
    let mut next = vec![0; clients.len()];
    let mut per_block = [Vec::new(), Vec::new()];
    for b in 0..blocks {
        let upto = if b + 1 == blocks {
            rounds
        } else {
            (b + 1) * (rounds / blocks)
        };
        let mut lat = Vec::new();
        for (c, from) in clients.iter().zip(&mut next) {
            let n: usize = c.rounds[b * (rounds / blocks)..upto]
                .iter()
                .map(|r| r.requests)
                .sum();
            lat.extend_from_slice(&c.lat_us[*from..*from + n]);
            *from += n;
        }
        lat.sort_by(f32::total_cmp);
        for (p, out) in ps.iter().zip(&mut per_block) {
            out.push(percentile(&lat, *p));
        }
    }
    per_block.map(|mut v| median(&mut v))
}

/// `VmHWM` of `/proc/self/status`, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process so far (threads that have
/// ended included), from `/proc/self/stat` at the usual 100 ticks/s.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Run one workload once.
///
/// # Panics
/// Panics on `setups == 0` and when the host denies the scratch
/// directory.
pub fn run(cfg: RunConfig, process_start: Instant) -> Outcome {
    assert!(cfg.setups >= 1, "at least one set-up");
    let kind = cfg.kind;
    let seconds = match cfg.length {
        Length::Seconds(s) => s,
        Length::Rounds(_) => 1.0,
    };

    // Set up, several times: at least `setups` times and until
    // `SETUP_SAMPLE_S` of set-up has been timed, so that a set-up of a
    // few milliseconds (`warm_small`) is a median over many. The first
    // one also owns the time since process start.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = 0.0;
    let mut setup_scale = 1.0;
    let mut spinner = Spinner::new();
    let mut store = None;
    let mut prepared = None;
    while setup_s.len() < cfg.setups || (setup_raw_s < SETUP_SAMPLE_S && setup_s.len() < MAX_SETUPS)
    {
        drop(prepared.take());
        let lead = if setup_s.is_empty() {
            process_start.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let before = spinner.spin();
        let start = Instant::now();
        prepared = Some(Prepared::new(kind, cfg.trace, &mut store));
        let raw = lead + start.elapsed().as_secs_f64();
        setup_scale = scale(before, spinner.spin());
        setup_raw_s += raw;
        setup_s.push(raw * setup_scale);
    }
    let p = prepared.expect("set up at least once");
    // The latency buffers are the benchmark's own, not the system's
    // set-up: allocated and touched here, outside `setup_s`.
    let capacity = (seconds * kind.rate_cap() as f64) as usize / kind.clients();
    let mut clients: Vec<Client> = (0..kind.clients())
        .map(|c| {
            Client::new(
                capacity,
                cfg.trace.then(|| ClientTracer::new(c, process_start)),
            )
        })
        .collect();

    // Measure.
    let mut counted = Counters::default();
    let mut while_traced = Counters::default();
    let mut round_engine = None;
    let mut untraced_cpu_s = 0.0;
    let measure_start = Instant::now();
    let mut round = 0;
    let mut traced_rounds = 0;
    loop {
        let traced = cfg.trace && round >= COUNTED_ROUNDS;
        if kind.compiles() {
            round_engine = Some(Engine::new());
        }
        let engine = round_engine
            .as_ref()
            .or(p.engine.as_ref())
            .expect("an engine");
        let before = cfg.trace.then(|| (engine.stats(), cpu_seconds()));
        let lists: Vec<Vec<u32>> = (0..clients.len())
            .map(|c| p.fx.round_requests(cfg.seed, round, c))
            .collect();
        if let [client] = &mut clients[..] {
            client.run_round(&p, engine, &lists[0], traced, round);
        } else {
            std::thread::scope(|scope| {
                for (client, ids) in clients.iter_mut().zip(&lists) {
                    let p = &p;
                    scope.spawn(move || client.run_round(p, engine, ids, traced, round));
                }
            });
        }
        if let Some((stats_before, cpu_before)) = before {
            if traced {
                while_traced.add(&engine.stats(), &stats_before);
                traced_rounds += 1;
            } else {
                counted.add(&engine.stats(), &stats_before);
                untraced_cpu_s += cpu_seconds() - cpu_before;
            }
        }
        round += 1;
        let spans: usize = clients
            .iter()
            .filter_map(|c| c.tracer.as_ref())
            .map(|t| t.spans.len())
            .sum();
        let enough = match cfg.length {
            Length::Rounds(n) => round >= n,
            Length::Seconds(s) => {
                measure_start.elapsed().as_secs_f64() >= s || (cfg.trace && spans >= MAX_SPANS)
            }
        };
        if enough && (!cfg.trace || traced_rounds >= MIN_TRACED_ROUNDS) {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mib();

    // Every distinct request once more, all outputs against the oracle.
    let engine = round_engine
        .as_ref()
        .or(p.engine.as_ref())
        .expect("an engine");
    let (final_attempted, final_failed) = p.final_pass(engine);

    let attempted =
        p.attempted + final_attempted + clients.iter().map(|c| c.attempted).sum::<u64>();
    let failed = p.failed + final_failed + clients.iter().map(|c| c.failed).sum::<u64>();
    let mut digest = 0u64;
    for c in &clients {
        digest = digest.rotate_left(17) ^ c.digest;
    }

    // Reduce. A round's throughput is the sum over its clients'; the raw
    // one is the same estimator without the calibration.
    let mut per_s = Vec::new();
    let mut raw_per_s = Vec::new();
    let (mut untraced_cal_s, mut untraced_requests) = (0.0, 0);
    for r in (0..round).filter(|&r| !clients[0].rounds[r].traced) {
        let sums = clients.iter().map(|c| c.rounds[r]);
        per_s.push(
            sums.clone()
                .map(|s| s.requests as f64 / s.calibrated_s)
                .sum(),
        );
        raw_per_s.push(sums.clone().map(|s| s.requests as f64 / s.raw_s).sum());
        untraced_cal_s += sums.clone().map(|s| s.calibrated_s).sum::<f64>();
        untraced_requests += sums.map(|s| s.requests).sum::<usize>();
    }
    let raw_req_per_s = median(&mut raw_per_s);
    let spin_ms = clients.iter().map(|c| c.spin_sum).sum::<f64>()
        / clients.iter().map(|c| c.spins).sum::<usize>() as f64
        * 1e3;

    let mut values = BTreeMap::new();
    if !cfg.trace {
        let [p50, p99] = block_percentiles(&clients, round, [0.50, 0.99]);
        values.insert("req_per_s", median(&mut per_s));
        values.insert("lat_p50_us", p50);
        values.insert("lat_p99_us", p99);
        values.insert("vm_cycles", p.expected.cycles.iter().sum::<u64>() as f64);
        values.insert(
            "bytecode_bytes",
            p.expected.bytes.iter().sum::<usize>() as f64,
        );
        values.insert("peak_rss_mb", peak_rss_mb);
        values.insert("setup_s", median(&mut setup_s));
    } else {
        let host = trace::Host {
            spin_ms,
            raw_req_per_s,
            cpu_us_per_req: untraced_cpu_s * 1e6 / untraced_requests as f64,
            untraced_us: untraced_cal_s * 1e6 / untraced_requests as f64,
            interp_ms: p.fx.interp_s * setup_scale * 1e3 / p.fx.kernels.len() as f64,
        };
        let tracers: Vec<ClientTracer> =
            clients.iter_mut().filter_map(|c| c.tracer.take()).collect();
        values = trace::reduce(&p, &tracers, &counted, while_traced.vl_builds, &host);
        if let Err(e) = trace::write_jsonl(kind, &tracers) {
            eprintln!("trace file not written: {e}");
        }
    }

    Outcome {
        attempted,
        failed,
        values,
        requests_digest: digest,
        rounds: round,
        raw_req_per_s,
        spin_ms,
    }
}
