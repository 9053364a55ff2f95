//! The four workloads: their seed-invariant request populations and the
//! seeded order in which each round issues them.
//!
//! A workload's *population* — its distinct requests — is fixed: every
//! VLA request exists once per vector length, every `hot_loops` request
//! once per placement. `--seed` decides only the order (and, on
//! `cold_compile`, which vector length each VLA tuple is specialized at
//! in a given round). The work in a round is therefore the same multiset
//! under every seed, so two seeds measure the same thing and `vm_cycles`
//! and `bytecode_bytes` are the same number under all of them; what a
//! seed changes is what each request finds in the caches, the arena pool
//! and the host's own caches when it arrives.

use std::time::Instant;

use vapor_core::Flow;
use vapor_frontend::parse_kernel;
use vapor_ir::{interpret, Bindings, Kernel};
use vapor_kernels::{suite, KernelSpec, Scale};
use vapor_targets::{altivec, avx, neon64, rvv, sse, sve, TargetDesc, VLA_TEST_BITS};

use crate::rng::{mix, Rng};

/// The kernels whose `Scale::Test` run is under 1 000 cycles on SSE: on
/// these a warm request is mostly engine overhead, not VM time.
pub const SMALL_KERNELS: [&str; 11] = [
    "dissolve_s8",
    "sad_s8",
    "interp_s16",
    "mix_streams_s16",
    "alvinn_s32fp",
    "dissolve_fp",
    "interp_fp",
    "dscal_fp",
    "saxpy_fp",
    "dscal_dp",
    "saxpy_dp",
];

/// Vector lengths of `warm_small`'s VLA requests: the narrowest (inline
/// registers) and the widest (boxed registers). Two, not five, so the
/// 44 per-VL execution forms fit the engine's default per-VL LRU (64)
/// and every cache really is hot.
pub const WARM_VLA_BITS: [usize; 2] = [128, 2048];
/// Shuffled passes over the population in one `warm_small` round: a
/// round of about 6 ms, short enough that most rounds see no host stall,
/// so the median over rounds is the host's undisturbed speed.
pub const WARM_PASSES: usize = 8;
/// Byte offset of `hot_loops`' misaligned placements.
pub const MISALIGN_BYTES: usize = 8;
/// Compile-cache capacity of `churn_2t`'s engine: the 1 152-tuple
/// population is 4.5 times this.
pub const CHURN_CACHE_CAPACITY: usize = 256;
/// Requests each `churn_2t` client issues per round.
pub const CHURN_DRAWS: usize = 2000;
/// Fixed seed of `churn_2t`'s popularity ranking (which tuples are hot
/// is part of the workload, not of the run).
const CHURN_RANK_SEED: u64 = 0x5EED_0FC4_A2D1;

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Parse + cold compile of every (kernel, target, flow) tuple.
    ColdCompile,
    /// Warm executes of the small kernels: engine overhead.
    WarmSmall,
    /// Warm executes of every kernel at full scale: VM dispatch.
    HotLoops,
    /// Two clients over a cache a quarter the size of the population.
    Churn2t,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::ColdCompile,
        Kind::WarmSmall,
        Kind::HotLoops,
        Kind::Churn2t,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdCompile => "cold_compile",
            Kind::WarmSmall => "warm_small",
            Kind::HotLoops => "hot_loops",
            Kind::Churn2t => "churn_2t",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop clients (threads) issuing requests.
    pub fn clients(self) -> usize {
        match self {
            Kind::Churn2t => 2,
            _ => 1,
        }
    }

    /// Whether a request compiles (and the set-up pass executes what it
    /// compiled) rather than executes.
    pub fn compiles(self) -> bool {
        self == Kind::ColdCompile
    }

    /// Input scale of the executions.
    pub fn scale(self) -> Scale {
        match self {
            Kind::HotLoops => Scale::Full,
            _ => Scale::Test,
        }
    }

    /// How many requests per second of `--seconds` the latency buffers
    /// are sized (and touched) for before the first round, so peak memory
    /// does not depend on how fast the run turned out to be. A faster run
    /// still works; its buffers grow.
    pub fn rate_cap(self) -> usize {
        match self {
            Kind::ColdCompile | Kind::Churn2t => 50_000,
            Kind::WarmSmall => 400_000,
            Kind::HotLoops => 4_000,
        }
    }
}

/// One distinct request of a workload's population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Fixture::kernels`].
    pub kernel: usize,
    /// Index into [`Fixture::targets`].
    pub target: usize,
    /// Compilation flow.
    pub flow: Flow,
    /// Vector length in bits (the target's own width when fixed).
    pub vl_bits: usize,
    /// Arrays placed `MISALIGN_BYTES` past an aligned base.
    pub misaligned: bool,
    /// Index of the request's (kernel, target, flow) compile tuple.
    pub tuple: usize,
}

/// Everything about a workload that no seed changes: parsed kernels,
/// inputs, oracle outputs, targets and the request population.
#[derive(Debug)]
pub struct Fixture {
    /// The workload.
    pub kind: Kind,
    /// Suite entries of the workload's kernels.
    pub specs: Vec<KernelSpec>,
    /// The kernels, parsed.
    pub kernels: Vec<Kernel>,
    /// Input bindings of each kernel at the workload's scale.
    pub envs: Vec<Bindings>,
    /// What `vapor_ir::interpret` makes of those inputs.
    pub oracle: Vec<Bindings>,
    /// Raw seconds the oracle interpretations took, in total.
    pub interp_s: f64,
    /// `sse, altivec, neon64, avx, sve, rvv`.
    pub targets: Vec<TargetDesc>,
    /// The distinct requests.
    pub population: Vec<Req>,
    /// Population ids of each compile tuple (one per vector length and
    /// placement).
    pub by_tuple: Vec<Vec<u32>>,
    /// `churn_2t`: the population ids one client issues per round,
    /// before shuffling, hottest tuple first.
    churn_draws: Vec<u32>,
}

impl Fixture {
    /// Parse the workload's kernels, build their inputs, interpret them
    /// for the oracle outputs and lay out the population.
    ///
    /// # Panics
    /// Panics when a suite kernel does not parse or interpret: the
    /// benchmark has no inputs then.
    pub fn build(kind: Kind) -> Fixture {
        let specs: Vec<KernelSpec> = suite()
            .into_iter()
            .filter(|s| kind != Kind::WarmSmall || SMALL_KERNELS.contains(&s.name))
            .collect();
        let mut kernels = Vec::new();
        let mut envs = Vec::new();
        let mut oracle = Vec::new();
        let mut interp_s = 0.0;
        for spec in &specs {
            let kernel = parse_kernel(spec.source)
                .unwrap_or_else(|e| panic!("suite kernel {} does not parse: {e}", spec.name));
            let env = spec.env(kind.scale());
            let mut out = env.clone();
            let start = Instant::now();
            interpret(&kernel, &mut out)
                .unwrap_or_else(|e| panic!("suite kernel {} does not interpret: {e}", spec.name));
            interp_s += start.elapsed().as_secs_f64();
            kernels.push(kernel);
            envs.push(env);
            oracle.push(out);
        }
        let targets = vec![sse(), altivec(), neon64(), avx(), sve(), rvv()];

        let flows: &[Flow] = match kind {
            Kind::ColdCompile | Kind::Churn2t => &Flow::ALL,
            Kind::WarmSmall | Kind::HotLoops => &[Flow::SplitVectorOpt],
        };
        let vla_bits: &[usize] = match kind {
            Kind::WarmSmall => &WARM_VLA_BITS,
            _ => &VLA_TEST_BITS,
        };
        let placements: &[bool] = match kind {
            Kind::HotLoops => &[false, true],
            _ => &[false],
        };
        let mut population = Vec::new();
        let mut by_tuple = Vec::new();
        for kernel in 0..kernels.len() {
            for (target, desc) in targets.iter().enumerate() {
                for &flow in flows {
                    let tuple = by_tuple.len();
                    let mut ids = Vec::new();
                    let fixed = [desc.vs * 8];
                    for &vl_bits in if desc.vla { vla_bits } else { &fixed[..] } {
                        for &misaligned in placements {
                            ids.push(population.len() as u32);
                            population.push(Req {
                                kernel,
                                target,
                                flow,
                                vl_bits,
                                misaligned,
                                tuple,
                            });
                        }
                    }
                    by_tuple.push(ids);
                }
            }
        }

        let churn_draws = if kind == Kind::Churn2t {
            churn_draws(&by_tuple)
        } else {
            Vec::new()
        };
        Fixture {
            kind,
            specs,
            kernels,
            envs,
            oracle,
            interp_s,
            targets,
            population,
            by_tuple,
            churn_draws,
        }
    }

    /// The order in which set-up executes the population. On `churn_2t`
    /// the hottest tuples come last, so the engine's LRU starts the
    /// measurement holding them, as it would after running for a while.
    pub fn warmup_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.population.len() as u32).collect();
        if self.kind == Kind::Churn2t {
            let mut first_draw = vec![usize::MAX; self.by_tuple.len()];
            for (pos, &id) in self.churn_draws.iter().enumerate().rev() {
                first_draw[self.population[id as usize].tuple] = pos;
            }
            ids.sort_by_key(|&id| {
                std::cmp::Reverse(first_draw[self.population[id as usize].tuple])
            });
        }
        ids
    }

    /// Population ids that `client` issues in `round`, in order. A pure
    /// function of its arguments: the same seed gives the same lists.
    pub fn round_requests(&self, seed: u64, round: usize, client: usize) -> Vec<u32> {
        let mut rng = Rng::new(seed, (round * 2 + client) as u64);
        let mut ids: Vec<u32> = match self.kind {
            // Every tuple once; a VLA tuple walks through its vector
            // lengths round by round from a seeded start.
            Kind::ColdCompile => self
                .by_tuple
                .iter()
                .enumerate()
                .map(|(t, ids)| {
                    let start = mix(seed ^ mix(t as u64)) as usize;
                    ids[(start + round) % ids.len()]
                })
                .collect(),
            Kind::WarmSmall => {
                let mut all = Vec::with_capacity(WARM_PASSES * self.population.len());
                for _ in 0..WARM_PASSES {
                    let mut pass: Vec<u32> = (0..self.population.len() as u32).collect();
                    rng.shuffle(&mut pass);
                    all.extend(pass);
                }
                return all;
            }
            Kind::HotLoops => (0..self.population.len() as u32).collect(),
            Kind::Churn2t => self.churn_draws.clone(),
        };
        rng.shuffle(&mut ids);
        ids
    }
}

/// `churn_2t`'s per-round multiset: [`CHURN_DRAWS`] draws from the tuple
/// population with cubic rank skew, `rank = ⌊N·u³⌋`, taken at the
/// regular quantiles `u = (j + ½)/M` instead of at random ones — a
/// stratified sample, so every round and every seed holds exactly the
/// same requests and only their order is random. Repeats of a VLA tuple
/// walk through its vector lengths.
fn churn_draws(by_tuple: &[Vec<u32>]) -> Vec<u32> {
    let n = by_tuple.len();
    let mut ranking: Vec<usize> = (0..n).collect();
    Rng::new(CHURN_RANK_SEED, 0).shuffle(&mut ranking);
    let mut seen = vec![0usize; n];
    (0..CHURN_DRAWS)
        .map(|j| {
            let u = (j as f64 + 0.5) / CHURN_DRAWS as f64;
            let tuple = ranking[((n as f64 * u * u * u) as usize).min(n - 1)];
            let ids = &by_tuple[tuple];
            seen[tuple] += 1;
            ids[(seen[tuple] - 1) % ids.len()]
        })
        .collect()
}
