//! Device-layer accounting: per-power-state modeled time and energy.

use std::time::Duration;

use tinyevm_device::{Device, PowerState};

use crate::catalog::Values;
use crate::stats::ratio;

/// Modeled residency and energy per power state, in [`PowerState::ALL`]
/// order (crypto engine, TX, RX, CPU, LPM2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateTotals {
    /// Time in each state.
    pub time: [Duration; 5],
    /// Energy in each state (mJ).
    pub energy_mj: [f64; 5],
}

impl StateTotals {
    /// The device's totals so far.
    pub fn of(device: &Device) -> Self {
        let report = device.energy_report();
        let mut totals = StateTotals::default();
        for (index, state) in PowerState::ALL.iter().enumerate() {
            totals.time[index] = report.time_of(*state);
            totals.energy_mj[index] = report.energy_of(*state);
        }
        totals
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &StateTotals) -> Self {
        let mut delta = StateTotals::default();
        for index in 0..5 {
            delta.time[index] = self.time[index].saturating_sub(earlier.time[index]);
            delta.energy_mj[index] = self.energy_mj[index] - earlier.energy_mj[index];
        }
        delta
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &StateTotals) {
        for index in 0..5 {
            self.time[index] += other.time[index];
            self.energy_mj[index] += other.energy_mj[index];
        }
    }

    /// Time summed over all states.
    pub fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }

    /// Energy summed over all states (mJ).
    pub fn total_energy_mj(&self) -> f64 {
        self.energy_mj.iter().sum()
    }

    /// Sets the per-state energy per op and the crypto engine's share.
    pub fn report(&self, ops: f64, values: &mut Values) {
        let per_op = |state| ratio(self.energy_of(state), ops);
        values.set(
            "device.crypto_engine_mj_per_op",
            per_op(PowerState::CryptoEngine),
        );
        values.set("device.tx_mj_per_op", per_op(PowerState::Tx));
        values.set("device.rx_mj_per_op", per_op(PowerState::Rx));
        values.set("device.cpu_mj_per_op", per_op(PowerState::CpuActive));
        values.set("device.lpm2_mj_per_op", per_op(PowerState::Lpm2));
        values.set(
            "device.crypto_energy_share",
            ratio(
                self.energy_of(PowerState::CryptoEngine),
                self.total_energy_mj(),
            ),
        );
    }

    /// Energy of `state` (mJ).
    pub fn energy_of(&self, state: PowerState) -> f64 {
        let index = PowerState::ALL
            .iter()
            .position(|s| *s == state)
            .expect("PowerState::ALL lists every state");
        self.energy_mj[index]
    }
}
