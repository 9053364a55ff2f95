//! Same seed, same run: request lists, simulated counts and every
//! count-type layer metric repeat exactly; another seed reorders the
//! requests, changes no count and fails nothing.

use std::time::Instant;

use vapor_benchmark::run::{run, Length, Outcome, RunConfig};
use vapor_benchmark::spec::{Repeats, END_TO_END, PER_LAYER, SEEDS};
use vapor_benchmark::workload::{Fixture, Kind};

fn two_rounds(kind: Kind, seed: u64, trace: bool) -> Outcome {
    let outcome = run(
        RunConfig {
            kind,
            seed,
            length: Length::Rounds(2),
            setups: 1,
            trace,
        },
        Instant::now(),
    );
    assert_eq!(outcome.failed, 0, "{} seed {seed}: failures", kind.name());
    assert!(outcome.attempted > 0);
    outcome
}

fn repeats(kind: Kind) {
    let (seed, other) = SEEDS;

    // The request lists are a pure function of the seed …
    let fx = Fixture::build(kind);
    for client in 0..kind.clients() {
        for round in 0..2 {
            let ids = fx.round_requests(seed, round, client);
            assert_eq!(ids, fx.round_requests(seed, round, client));
            assert_ne!(ids, fx.round_requests(other, round, client));
            // … and every seed issues the same multiset.
            let sorted = |mut v: Vec<u32>| {
                v.sort_unstable();
                v
            };
            if kind != Kind::ColdCompile {
                assert_eq!(sorted(ids), sorted(fx.round_requests(other, round, client)));
            }
        }
    }

    // Untraced: exactly the end-to-end names; another seed issues the
    // requests in another order and reads the same simulated quantities.
    let a = two_rounds(kind, seed, false);
    let c = two_rounds(kind, other, false);
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let mut emitted: Vec<&str> = a.values.keys().copied().collect();
    emitted.sort_unstable();
    let mut wanted = names.clone();
    wanted.sort_unstable();
    assert_eq!(emitted, wanted);
    assert_ne!(a.requests_digest, c.requests_digest);
    for name in ["vm_cycles", "bytecode_bytes"] {
        assert_eq!(a.values[name], c.values[name], "{name} under another seed");
    }
    for name in names {
        assert!(a.values[name] > 0.0 && a.values[name].is_finite(), "{name}");
    }

    // Traced: exactly the per-layer names; counts repeat, no replay
    // measured something else than the engine did.
    let a = two_rounds(kind, seed, true);
    let b = two_rounds(kind, seed, true);
    assert_eq!(a.requests_digest, b.requests_digest);
    assert_eq!(a.values.len(), PER_LAYER.len());
    for m in PER_LAYER {
        let (x, y) = (a.values[m.name], b.values[m.name]);
        assert!(x.is_finite(), "{}", m.name);
        let exact = match m.repeats {
            Repeats::Exactly => true,
            Repeats::PerSeed => kind.clients() == 1,
            Repeats::Never => false,
        };
        if exact {
            assert_eq!(x, y, "{} on {}", m.name, kind.name());
        }
    }
    assert_eq!(a.values["trace.replay_mismatch"], 0.0);
}

#[test]
fn cold_compile_repeats() {
    repeats(Kind::ColdCompile);
}

#[test]
fn warm_small_repeats() {
    repeats(Kind::WarmSmall);
}

#[test]
fn hot_loops_repeats() {
    repeats(Kind::HotLoops);
}

#[test]
fn churn_2t_repeats() {
    repeats(Kind::Churn2t);
}
