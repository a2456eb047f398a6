//! The contending fleet simulation: 256 sensors all fighting for one
//! CSMA/CA medium under the virtual-clock event scheduler, one straggler
//! quarantined for repeatedly overdrawing its deposit, and every healthy
//! channel settling on-chain.
//!
//! ```sh
//! cargo run --release --example fleet_sim
//! ```
//!
//! Everything is seeded and runs on virtual clocks: running this example
//! twice prints byte-identical numbers, at any worker-thread count.

use tinyevm::sim::{FleetConfig, FleetScheduler, QUARANTINE_THRESHOLD};
use tinyevm::types::Wei;

fn main() {
    // 256 OpenMote-B class sensors around one gateway, every uplink frame
    // contending for the medium with CSMA/CA (carrier sense, binary
    // exponential backoff, capture). Channels are backed by 1,000,000-wei
    // deposits.
    let sensors = 256;
    let mut config = FleetConfig::csma(sensors, 0x256);
    config.deposit = Wei::from(1_000_000u64);
    config.jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut fleet = FleetScheduler::new(config);
    fleet.open_all().expect("all channels open");
    println!(
        "fleet: {} sensors → one gateway over a contending CSMA/CA medium",
        fleet.sensors().len()
    );

    // One straggler repeatedly overdraws its deposit. Each refusal is a
    // protocol violation; at the threshold the gateway quarantines the
    // sensor and the rest of the fleet no longer waits for it.
    let straggler = 17;
    for attempt in 0..QUARANTINE_THRESHOLD {
        let result = fleet.pay(straggler, Wei::from(50_000_000u64));
        assert!(result.is_err(), "an overdraw must be refused");
        println!(
            "straggler {}: overdraw {} refused ({} violation(s))",
            fleet.sensors()[straggler].addr(),
            attempt + 1,
            attempt + 1
        );
    }
    assert_eq!(fleet.quarantined_count(), 1, "the straggler is quarantined");

    // One payment round: every healthy sensor pays 2,500 wei, frames from
    // all of them in flight at once.
    fleet
        .run(1, Wei::from(2_500u64))
        .expect("the healthy fleet pays");
    let report = fleet.report();
    println!(
        "\nround: {} payments in {:.1} virtual s — goodput {:.3} rounds/s",
        report.completed_payments,
        report.sim_duration.as_secs_f64(),
        report.goodput_rounds_per_s
    );
    println!(
        "medium: {} slots, {} collision events ({:.1}% of attempts collided), \
         airtime {:.1}% utilized, {} frame(s) dropped at full RX queues",
        report.slots,
        report.collision_events,
        report.collision_rate * 100.0,
        report.airtime_utilization * 100.0,
        report.frames_dropped_queue_full
    );

    // Settle every healthy channel on the gateway's chain; the
    // quarantined straggler's channel stays open.
    let settlement = fleet.settle_all().expect("the fleet settles");
    println!(
        "\nsettled {} of {} channels in {} on-chain transactions: {} wei to the gateway \
         (the quarantined channel stays open)",
        settlement.settlements.len(),
        sensors,
        settlement.on_chain_transactions,
        settlement.total_to_gateway.amount()
    );
    assert_eq!(settlement.settlements.len(), sensors - 1);
    assert_eq!(
        settlement.total_to_gateway,
        Wei::from(2_500u64 * (sensors as u64 - 1))
    );
}
