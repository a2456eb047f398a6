//! End-to-end and per-layer benchmark of the TinyEVM reproduction.
//!
//! Three workloads drive the repository's public crates: `two_party` (one
//! sender paying one receiver over a lossless link), `fleet_csma_1024`
//! (1024 sensors paying one gateway over a contended CSMA/CA medium) and
//! `contract_corpus` (the 7,000-contract paper-scale corpus admitted under
//! deploy-time validation). Every metric names its clock: **modeled**
//! figures are the deterministic CC2538 device and fleet time, **host**
//! figures are the seconds this code takes on the machine running it, read
//! from the thread's CPU clock (see [`clock`]).
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! the session with a recording tracer and spans around each call the
//! benchmark makes, then replays single layers on the inputs the session
//! produced, and reports the per-layer metrics. See `README.md` beside
//! this crate for the metric tables and how to run it.

#![deny(unsafe_code)]

pub mod catalog;
pub mod clock;
pub mod corpus;
pub mod device;
pub mod fleet;
pub mod hostdiag;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod two_party;

pub use report::{Clock, RunRecord};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["two_party", "fleet_csma_1024", "contract_corpus"];

/// Pinned default seed, used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Held-out seed: never used while tuning the benchmark, reserved for a
/// later change to confirm a claimed gain on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// How a run is sized. `seconds` is the nominal measuring time; the work a
/// run does is fixed from it (not from a wall-clock deadline) so that the
/// same seed and seconds give the same modeled figures on any host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Nominal measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Runs one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, config: RunConfig) -> Option<RunRecord> {
    let diag_start = hostdiag::Snapshot::take();
    let mut record = match name {
        "two_party" => two_party::run(config),
        "fleet_csma_1024" => fleet::run(config),
        "contract_corpus" => corpus::run(config),
        _ => return None,
    };
    record.diagnostics = hostdiag::Snapshot::take().since(&diag_start);
    Some(record)
}

/// Events a traced session's recorder keeps (a window of the latest;
/// counters stay exact).
pub const TRACE_CAPACITY: usize = 1 << 16;

/// EVM instructions per completed payment round over a recorder's
/// retained window: contract-call instructions ÷ round events in the
/// same window.
pub fn instructions_per_round(snapshot: &tinyevm_trace::TraceSnapshot) -> f64 {
    use tinyevm_trace::TraceEvent;
    let (mut instructions, mut rounds) = (0u64, 0u64);
    for event in &snapshot.events {
        match event {
            TraceEvent::ContractCall {
                instructions: n, ..
            } => instructions += n,
            TraceEvent::Round { .. } => rounds += 1,
            _ => {}
        }
    }
    stats::ratio(instructions as f64, rounds as f64)
}

/// SplitMix64: the benchmark's own deterministic input generator, so the
/// inputs depend on the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The process's peak resident set in MB (`VmHWM`), or 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
