//! Host-noise diagnostics recorded beside each run's metrics: the vCPU the
//! run started and ended on, the thread's on-CPU time and the host's steal
//! time. With them a reader can tell a slow host window from a slow commit.
//! Linux only; missing files read as -1 (vCPU) or 0.

use std::time::Instant;

/// Host state at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    at: Instant,
    vcpu: i64,
    on_cpu_ns: u64,
    steal_ticks: u64,
}

impl Snapshot {
    /// Reads the current state.
    pub fn take() -> Self {
        Snapshot {
            at: Instant::now(),
            vcpu: current_vcpu(),
            on_cpu_ns: on_cpu_ns(),
            steal_ticks: steal_ticks(),
        }
    }

    /// Diagnostics over the interval from `start` to this snapshot.
    pub fn since(&self, start: &Snapshot) -> Vec<(&'static str, f64)> {
        vec![
            ("vcpu_start", start.vcpu as f64),
            ("vcpu_end", self.vcpu as f64),
            ("wall_s", self.at.duration_since(start.at).as_secs_f64()),
            (
                "on_cpu_s",
                self.on_cpu_ns.saturating_sub(start.on_cpu_ns) as f64 / 1e9,
            ),
            (
                "steal_ticks",
                self.steal_ticks.saturating_sub(start.steal_ticks) as f64,
            ),
        ]
    }
}

/// Field 39 (`processor`) of `/proc/self/stat`: the CPU last run on.
fn current_vcpu() -> i64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name start at field 3.
            let rest = &stat[stat.rfind(')')? + 1..];
            rest.split_whitespace().nth(39 - 3)?.parse().ok()
        })
        .unwrap_or(-1)
}

/// First field of `/proc/thread-self/schedstat`: this thread's on-CPU ns.
fn on_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|line| line.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}
