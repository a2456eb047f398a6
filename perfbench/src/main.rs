//! Command line:
//!
//! ```text
//! tinyevm-perfbench --workload <two_party|fleet_csma_1024|contract_corpus>
//!                   [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one line per metric (name, value, unit, clock), a run-record
//! JSON line with the clocks and host diagnostics, and as the last line
//! the result JSON. Exits 1 when an output was wrong, 2 on bad arguments.

use std::process::ExitCode;

use tinyevm_perfbench::{run_workload, RunConfig, DEFAULT_SEED, WORKLOADS};

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage: tinyevm-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        let valid = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|seed| config.seed = seed).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|seconds| *seconds > 0.0 && seconds.is_finite())
                .map(|seconds| config.seconds = seconds)
                .is_some(),
            "--trace" => {
                config.trace = value == "1";
                value == "0" || value == "1"
            }
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !valid {
            return usage(&format!("bad value {value} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(record) = run_workload(&workload, config) else {
        return usage(&format!("unknown workload {workload}"));
    };
    print!("{}", record.table());
    println!(
        "{}",
        record.record_json(&workload, config.seed, config.trace)
    );
    println!("{}", record.result_json());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        for violation in &record.violations {
            eprintln!("violation: {violation}");
        }
        ExitCode::from(1)
    }
}
