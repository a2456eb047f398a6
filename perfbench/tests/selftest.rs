//! Self-tests of the benchmark: the metric catalog matches
//! `BENCHMARK.json`, and a short run of each workload repeated twice in
//! one process gives bit-identical modeled metrics and counts.

use tinyevm_perfbench::catalog::{Better, END_TO_END, PER_LAYER};
use tinyevm_perfbench::{corpus, fleet, two_party, Clock, RunConfig, RunRecord};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[test]
fn benchmark_json_lists_the_catalog() {
    for entry in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let better = match entry.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let name = format!("\"name\": \"{}\"", entry.name);
        let at = BENCHMARK_JSON
            .find(&name)
            .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json", entry.name));
        let object = &BENCHMARK_JSON[at..];
        let object = &object[..object.find('}').expect("object closes")];
        assert!(
            object.contains(&format!("\"unit\": \"{}\"", entry.unit)),
            "{object}"
        );
        assert!(
            object.contains(&format!("\"better\": \"{better}\"")),
            "{object}"
        );
    }
    let listed = BENCHMARK_JSON.matches("\"unit\"").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}

/// The metrics that must repeat exactly: modeled figures and counts.
fn deterministic(record: &RunRecord) -> Vec<(&'static str, u64)> {
    record
        .metrics
        .iter()
        .filter(|metric| metric.clock != Clock::Host)
        .map(|metric| (metric.name, metric.value.to_bits()))
        .collect()
}

fn twice(run: impl Fn(RunConfig) -> RunRecord) {
    for trace in [false, true] {
        let config = RunConfig {
            seed: 7,
            seconds: 0.1,
            trace,
        };
        let first = run(config);
        let second = run(config);
        assert!(first.correct(), "{:?}", first.violations);
        assert!(second.correct(), "{:?}", second.violations);
        assert!(!deterministic(&first).is_empty());
        assert_eq!(
            deterministic(&first),
            deterministic(&second),
            "trace {trace}"
        );
    }
}

#[test]
fn two_party_repeats_bit_for_bit() {
    twice(two_party::run);
}

#[test]
fn fleet_repeats_bit_for_bit() {
    twice(|config| fleet::run_sized(config, 16));
}

#[test]
fn corpus_repeats_bit_for_bit() {
    twice(|config| corpus::run_sized(config, 150));
}

#[test]
fn seeds_change_the_modeled_figures() {
    for run in [
        two_party::run as fn(RunConfig) -> RunRecord,
        |config| fleet::run_sized(config, 16),
        |config| corpus::run_sized(config, 150),
    ] {
        let at = |seed| {
            run(RunConfig {
                seed,
                seconds: 0.1,
                trace: false,
            })
            .value("energy_modeled_mj_per_op")
        };
        assert_ne!(at(1), at(2));
    }
}
