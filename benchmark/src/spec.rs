//! What the benchmark emits: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end numbers they should
//! move. `--describe` prints these tables, `BENCHMARK.json` is generated
//! from them ([`benchmark_json`]) and the run prints exactly these names,
//! so the three cannot drift apart (`tests/describe.rs` holds the
//! committed file to it).

use std::fmt::Write as _;

use crate::workload::Kind;

use Better::{Higher, Lower};
use Repeats::{Exactly, Never, PerSeed};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The seed runs use when none is given, and the one kept out of tuning.
pub const SEEDS: (u64, u64) = (1, 2);

/// Which way a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a per-layer metric repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeats {
    /// A count of the compiled code: the same on every run and seed.
    Exactly,
    /// An engine counter over the two counted rounds: the same on every
    /// run of one seed, except where two clients interleave (`churn_2t`).
    PerSeed,
    /// Host time (or derived from it): never twice the same.
    Never,
}

/// A workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The workload.
    pub kind: Kind,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
    /// What it is.
    pub what: &'static str,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<name>`, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it repeats.
    pub repeats: Repeats,
}

/// The workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::ColdCompile,
        why: "parse + cold compile of all 1152 kernel x target x flow tuples, a fresh engine per round: \
              the compile layers do ~70% of the work, core's cache key most of the rest, the VM runs nothing",
    },
    Workload {
        kind: Kind::WarmSmall,
        why: "warm executes of the 11 sub-1000-cycle kernels on 6 targets, every cache hot: \
              over half of each request is engine overhead in core (key fingerprint, lookups, bind, read-back)",
    },
    Workload {
        kind: Kind::HotLoops,
        why: "warm executes of all 32 kernels at full scale, every VL, aligned and misaligned: \
              VM dispatch in targets does >95% of the work, core <2%, compile nothing",
    },
    Workload {
        kind: Kind::Churn2t,
        why: "2 clients, rank-skewed draws from 1152 tuples over a 256-entry compile cache and a full artifact store: \
              inserts, evictions, online-only recompiles and shared locks beside the reads",
    },
];

/// The end-to-end metrics, all reported on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        what: "requests per calibrated second of client wait, summed over clients; median over rounds",
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        what: "median calibrated request latency within each block of >= 1000 requests (whole rounds); median over blocks",
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        what: "99th percentile (nearest rank, >= 10 samples beyond it) within each such block; median over blocks",
    },
    EndToEnd {
        name: "vm_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.001,
        what: "simulated cycles, summed over one execution of each distinct request: the paper's quantity; repeats exactly",
    },
    EndToEnd {
        name: "bytecode_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.001,
        what: "encoded bytecode size, summed over the distinct compile tuples; repeats exactly",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the one-workload process after the measured rounds; latency buffers are touched before the first",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "calibrated seconds to parse, build inputs, interpret for the oracle and execute + verify every \
               distinct request; median of >= 3 set-ups, the first from process start (and with the artifact-store fill)",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    repeats: Repeats,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        repeats,
    }
}

/// The per-layer metrics of a traced run. Times are calibrated means
/// per call over the traced rounds, 0 where the workload never makes the
/// call; `share_pct` is the layer's self time as a share of request time.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("frontend.parse_us", "us", Lower, Never),
    layer("frontend.parse_mb_per_s", "MB/s", Higher, Never),
    layer("frontend.share_pct", "%", Lower, Never),
    layer("ir.print_us", "us", Lower, Never),
    layer("ir.interp_ms", "ms", Lower, Never),
    layer("ir.share_pct", "%", Lower, Never),
    layer("vectorizer.vectorize_us", "us", Lower, Never),
    layer("vectorizer.scalar_emit_us", "us", Lower, Never),
    layer("vectorizer.loops_vectorized", "count", Higher, Exactly),
    layer("vectorizer.loops_rejected", "count", Lower, Exactly),
    layer("vectorizer.share_pct", "%", Lower, Never),
    layer("bytecode.verify_us", "us", Lower, Never),
    layer("bytecode.encode_us", "us", Lower, Never),
    layer("bytecode.decode_us", "us", Lower, Never),
    layer("bytecode.decode_mb_per_s", "MB/s", Higher, Never),
    layer("bytecode.bytes", "bytes", Lower, Exactly),
    layer("bytecode.share_pct", "%", Lower, Never),
    layer("jit.compile_us", "us", Lower, Never),
    layer("jit.self_us", "us", Lower, Never),
    layer("jit.minsts", "count", Lower, Exactly),
    layer("jit.groups_vector", "count", Higher, Exactly),
    layer("jit.groups_scalarized", "count", Lower, Exactly),
    layer("jit.helper_calls", "count", Lower, Exactly),
    layer("jit.guards_folded", "count", Higher, Exactly),
    layer("jit.share_pct", "%", Lower, Never),
    layer("targets.decode_us", "us", Lower, Never),
    layer("targets.respecialize_us", "us", Lower, Never),
    layer("targets.thread_us", "us", Lower, Never),
    layer("targets.steps", "count", Lower, Exactly),
    layer("targets.superinsts", "count", Higher, Exactly),
    layer("targets.regions", "count", Lower, Exactly),
    layer("targets.streams", "count", Higher, Exactly),
    layer("targets.vm_insts", "count", Lower, Exactly),
    layer("targets.run_us.baseline", "us", Lower, Never),
    layer("targets.run_us.decoded", "us", Lower, Never),
    layer("targets.run_us.threaded", "us", Lower, Never),
    layer("targets.sim_mips.baseline", "M/s", Higher, Never),
    layer("targets.sim_mips.decoded", "M/s", Higher, Never),
    layer("targets.sim_mips.threaded", "M/s", Higher, Never),
    layer("targets.share_pct", "%", Lower, Never),
    layer("core.execute_us", "us", Lower, Never),
    layer("core.execute_self_us", "us", Lower, Never),
    layer("core.compile_us", "us", Lower, Never),
    layer("core.compile_self_us", "us", Lower, Never),
    layer("core.compile_hit_us", "us", Lower, Never),
    layer("core.compile_misses", "count", Lower, PerSeed),
    layer("core.hit_ratio", "ratio", Higher, PerSeed),
    layer("core.evictions", "count", Lower, PerSeed),
    layer("core.exec_evictions", "count", Lower, PerSeed),
    layer("core.vl_builds", "count", Lower, PerSeed),
    layer("core.artifact_hits", "count", Higher, PerSeed),
    layer("core.artifact_load_us", "us", Lower, Never),
    layer("core.online_compile_us", "us", Lower, Never),
    layer("core.contended_locks", "count", Lower, Never),
    layer("core.pool_reuse_ratio", "ratio", Higher, PerSeed),
    layer("core.share_pct", "%", Lower, Never),
    layer("host.spin_ms", "ms", Lower, Never),
    layer("host.raw_req_per_s", "1/s", Higher, Never),
    layer("host.cpu_us_per_req", "us", Lower, Never),
    layer("trace.overhead_pct", "%", Lower, Never),
    layer("trace.replay_mismatch", "count", Lower, Exactly),
    layer("trace.spans", "count", Lower, Never),
];

/// Which end-to-end number each layer's metrics should move, and where
/// the prediction is *no change*.
pub const MOVES: [(&str, &str); 8] = [
    (
        "frontend",
        "req_per_s/lat_p50_us on cold_compile (the parse is part of every request there); nothing elsewhere",
    ),
    (
        "ir",
        "print_us (the cache-key fingerprint) -> lat_p50_us on warm_small, 1-2 keys per request; interp_ms -> setup_s",
    ),
    (
        "vectorizer",
        "time -> cold_compile only (churn_2t skips the offline stage); loop counts -> vm_cycles everywhere \
         and through it req_per_s on hot_loops",
    ),
    (
        "bytecode",
        "verify/encode -> cold_compile only; decode -> cold_compile and churn_2t; bytes -> bytecode_bytes",
    ),
    (
        "jit",
        "time -> cold_compile and churn_2t; minsts, groups, helper calls, guards -> vm_cycles",
    ),
    (
        "targets",
        "run_us/sim_mips of the default (decoded) tier -> req_per_s on hot_loops and lat_p99_us everywhere \
         (tails are long kernels); decode -> cold_compile; respecialize -> churn_2t and hot_loops",
    ),
    (
        "core",
        "execute_self/compile_hit -> warm_small; hit_ratio, evictions, artifact, locks -> req_per_s/lat_p99_us \
         on churn_2t; invisible on hot_loops",
    ),
    (
        "host/trace",
        "none: they explain disagreement between runs (host speed, tracing overhead, replays that measured something else)",
    ),
];

/// How the metrics interact.
pub const INTERACTIONS: [&str; 4] = [
    "A faster stage saves at most its share of the blocking chain: its share_pct on that workload.",
    "Host time on hot_loops is proportional to simulated instructions, so a planner or JIT change moves \
     vm_cycles and req_per_s together.",
    "A VM or engine change must leave vm_cycles and bytecode_bytes bit-identical on every workload.",
    "On churn_2t core.hit_ratio and the eviction counts vary slightly with how the two clients interleave; \
     vm_cycles does not.",
];

/// The tables `--describe` prints.
pub fn describe() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workloads (closed loop; default seed {}, held-out seed {})",
        SEEDS.0, SEEDS.1
    );
    for w in WORKLOADS {
        let _ = writeln!(
            s,
            "  {:<13} {} client(s)  {}",
            w.kind.name(),
            w.kind.clients(),
            w.why
        );
    }
    let _ = writeln!(s, "\nend-to-end metrics (every workload; --trace 0)");
    for m in END_TO_END {
        let _ = writeln!(
            s,
            "  {:<15} {:<7} {:<6} bound {:>5.1}%  {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.what
        );
    }
    let _ = writeln!(s, "\nper-layer metrics (--trace 1)");
    for m in PER_LAYER {
        let repeats = match m.repeats {
            Exactly => "repeats exactly",
            PerSeed => "repeats per seed",
            Never => "host time",
        };
        let _ = writeln!(
            s,
            "  {:<28} {:<6} {:<6} {repeats}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    let _ = writeln!(s, "\nmoves");
    for (layer, moves) in MOVES {
        let _ = writeln!(s, "  {layer:<11} {moves}");
    }
    let _ = writeln!(s, "\ninteractions");
    for line in INTERACTIONS {
        let _ = writeln!(s, "  {line}");
    }
    s
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.kind.name(),
            w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    s.push_str("  ]\n}\n");
    s
}
