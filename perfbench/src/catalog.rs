//! The metric catalog: every end-to-end and per-layer metric with its unit,
//! clock and direction. `BENCHMARK.json` lists the same names (a test
//! keeps them in step). Every workload reports every metric of the list
//! its run asks for; a layer a workload does not exercise reads 0.

use std::collections::BTreeMap;

use crate::report::{Clock, RunRecord};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// Direction.
    pub better: Better,
}

const fn entry(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Entry {
    Entry {
        name,
        unit,
        clock,
        better,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Modeled};

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Entry; 9] = [
    entry("setup_s", "s", Host, Lower),
    entry("peak_rss_mb", "MB", Host, Lower),
    entry("ops_per_host_s", "1/s", Host, Higher),
    entry("op_host_us_p50", "us", Host, Lower),
    entry("op_host_us_p99", "us", Host, Lower),
    entry("op_modeled_ms_p50", "ms", Modeled, Lower),
    entry("op_modeled_ms_p99", "ms", Modeled, Lower),
    entry("energy_modeled_mj_per_op", "mJ", Modeled, Lower),
    entry("goodput_modeled_ops_per_s", "1/s", Modeled, Higher),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [Entry; 60] = [
    entry("failed_op_ratio", "ratio", Count, Lower),
    // channel
    entry("channel.pay_host_us_p50", "us", Host, Lower),
    entry("channel.unattributed_us_per_op", "us", Host, Lower),
    entry("channel.open_host_ms", "ms", Host, Lower),
    entry("channel.settle_host_ms", "ms", Host, Lower),
    // crypto
    entry("crypto.sign_us_p50", "us", Host, Lower),
    entry("crypto.recover_us_p50", "us", Host, Lower),
    entry("crypto.required_us_per_op", "us", Host, Lower),
    entry("crypto.required_share", "ratio", Host, Lower),
    entry("crypto.verify_batch_us_per_sig", "us", Host, Lower),
    entry("crypto.keccak_ns_per_byte", "ns/B", Host, Lower),
    // wire
    entry("wire.encode_us_per_msg", "us", Host, Lower),
    entry("wire.decode_us_per_msg", "us", Host, Lower),
    entry("wire.bytes_per_op", "count", Count, Lower),
    // net
    entry("net.fragment_reassemble_us_per_msg", "us", Host, Lower),
    entry("net.frames_per_op", "count", Count, Lower),
    entry("net.retransmissions_per_op", "count", Count, Lower),
    entry("net.collision_rate", "ratio", Count, Lower),
    entry("net.airtime_utilization", "ratio", Modeled, Higher),
    entry("net.frames_dropped_queue_full", "count", Count, Lower),
    // sim
    entry("sim.open_host_s", "s", Host, Lower),
    entry("sim.run_host_s", "s", Host, Lower),
    entry("sim.settle_host_s", "s", Host, Lower),
    entry("sim.slots", "count", Count, Lower),
    entry("sim.host_us_per_slot", "us", Host, Lower),
    entry("sim.busy_slot_ratio", "ratio", Count, Higher),
    entry("sim.host_us_per_payment", "us", Host, Lower),
    // device
    entry("device.sign_modeled_ms_per_op", "ms", Modeled, Lower),
    entry("device.register_modeled_ms_per_op", "ms", Modeled, Lower),
    entry("device.active_modeled_ms_per_op", "ms", Modeled, Lower),
    entry("device.crypto_engine_mj_per_op", "mJ", Modeled, Lower),
    entry("device.tx_mj_per_op", "mJ", Modeled, Lower),
    entry("device.rx_mj_per_op", "mJ", Modeled, Lower),
    entry("device.cpu_mj_per_op", "mJ", Modeled, Lower),
    entry("device.lpm2_mj_per_op", "mJ", Modeled, Lower),
    entry("device.crypto_energy_share", "ratio", Modeled, Lower),
    entry(
        "device.unattributed_modeled_ms_per_op",
        "ms",
        Modeled,
        Lower,
    ),
    // analysis
    entry("analysis.analyze_us_p50", "us", Host, Lower),
    entry("analysis.analyze_us_p99", "us", Host, Lower),
    entry("analysis.accepted", "count", Count, Higher),
    entry("analysis.unproven_dynamic_jump", "count", Count, Lower),
    entry(
        "analysis.unproven_possible_underflow",
        "count",
        Count,
        Lower,
    ),
    entry("analysis.rejected", "count", Count, Lower),
    entry("analysis.resolved_jumps", "count", Count, Higher),
    entry("analysis.certificates_bounded", "count", Count, Higher),
    entry("analysis.certificates_unbounded", "count", Count, Lower),
    entry("analysis.certificates_uncertified", "count", Count, Lower),
    // evm
    entry("evm.deploy_us_p50", "us", Host, Lower),
    entry("evm.deploy_us_p99", "us", Host, Lower),
    entry("evm.host_ns_per_instruction", "ns", Host, Lower),
    entry("evm.instructions_per_op", "count", Count, Lower),
    entry("evm.keccak_bytes_per_op", "count", Count, Lower),
    entry("evm.analysis_cache_hit_ratio", "ratio", Count, Higher),
    entry("evm.deployed", "count", Count, Higher),
    entry("evm.refused_code_limit", "count", Count, Lower),
    entry("evm.refused_analysis", "count", Count, Lower),
    entry("evm.refused_constructor", "count", Count, Lower),
    // chain
    entry("chain.publish_template_ms", "ms", Host, Lower),
    // trace
    entry("trace.overhead_ratio", "ratio", Host, Lower),
    entry("trace.spans", "count", Count, Lower),
];

/// Values a workload measured, by catalog name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalog — a bug in the workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|e| e.name == name),
            "metric {name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// Appends every metric of `list` to `record`, in catalog order; a
    /// metric the workload did not set reads 0.
    pub fn emit(&self, list: &[Entry], record: &mut RunRecord) {
        for entry in list {
            let value = self.0.get(entry.name).copied().unwrap_or(0.0);
            record.push(entry.name, value, entry.unit, entry.clock);
        }
    }
}
