//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check]`
//!
//! Prints every metric by name with its unit, then one JSON object on
//! the last line. `--describe` and `--describe-json` print what the
//! binary emits instead of running.

use std::process::ExitCode;
use std::time::Instant;

use vapor_benchmark::run::{run, Length, RunConfig};
use vapor_benchmark::spec::{self, END_TO_END, PER_LAYER, RUN_SECONDS, SEEDS, SETUPS};
use vapor_benchmark::workload::Kind;

fn usage() -> ExitCode {
    eprintln!(
        "usage: --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--check]\n       \
         --describe | --describe-json",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut kind = None;
    let mut seed = SEEDS.0;
    let mut seconds = f64::from(RUN_SECONDS);
    let mut trace = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        let understood = match arg.as_str() {
            "--describe" => {
                print!("{}", spec::describe());
                return ExitCode::SUCCESS;
            }
            "--describe-json" => {
                print!("{}", spec::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--check" => {
                check = true;
                true
            }
            "--workload" => {
                kind = Kind::from_name(&value());
                kind.is_some()
            }
            "--seed" => value().parse().map(|n| seed = n).is_ok(),
            "--seconds" => {
                seconds = value().parse().unwrap_or(0.0);
                seconds > 0.0
            }
            "--trace" => {
                let v = value();
                trace = v == "1";
                trace || v == "0"
            }
            _ => false,
        };
        if !understood {
            return usage();
        }
    }
    let Some(kind) = kind else {
        return usage();
    };

    let outcome = run(
        RunConfig {
            kind,
            seed,
            length: Length::Seconds(seconds),
            setups: SETUPS,
            trace,
        },
        process_start,
    );

    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!(
        "workload {} seed {seed} rounds {} attempted {} failed {}",
        kind.name(),
        outcome.rounds,
        outcome.attempted,
        outcome.failed
    );
    println!(
        "host: spin {:.4} ms, raw req_per_s {:.4}",
        outcome.spin_ms, outcome.raw_req_per_s
    );
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = outcome.values[name];
        println!("{name:<28} {value:>18.4} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0
        && outcome
            .values
            .get("trace.replay_mismatch")
            .is_none_or(|m| *m == 0.0);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if check && !correct {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
