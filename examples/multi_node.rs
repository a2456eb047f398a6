//! The multi-node gateway scenario: six sensor devices each pay one
//! gateway over a shared lossy medium, every channel settles on one chain,
//! and the cost of the session is attributed per sensor.
//!
//! ```sh
//! cargo run --release --example multi_node
//! ```

use tinyevm::prelude::*;

/// Six sensors, one lockstep schedule, and a TSCH radio with 5% frame
/// loss and a generous retry budget.
fn fleet_config() -> FleetConfig {
    let mut link = LinkConfig::default().with_loss(0.05, 7);
    link.max_retries = 16;
    FleetConfig {
        link,
        deposit: Wei::from(1_000_000u64),
        ..FleetConfig::single_slot(6)
    }
}

fn main() {
    // Six OpenMote-B class sensors around one gateway, each with its own
    // payment channel backed by a 1,000,000-wei deposit, over a TSCH
    // medium with 5% frame loss. Everything is seeded: running this
    // example twice prints byte-identical numbers.
    let mut driver = FleetScheduler::new(fleet_config());
    driver.open_all().expect("all channels open");
    println!(
        "fleet: {} sensors → gateway {} ({}), one chain, {} templates",
        driver.sensors().len(),
        driver.gateway().addr(),
        driver.gateway().account(),
        driver.chain().templates().count(),
    );

    // Three payment rounds: every sensor pays 2,500 wei per round.
    driver
        .run(3, Wei::from(2_500u64))
        .expect("every payment lands");

    println!("\nper-sensor cost of the session:");
    println!(
        "{:<8}{:>10}{:>12}{:>14}{:>13}{:>10}{:>10}{:>8}",
        "sensor",
        "payments",
        "paid (wei)",
        "latency (ms)",
        "energy (mJ)",
        "up (B)",
        "down (B)",
        "rexmit"
    );
    for summary in driver.sensor_summaries() {
        println!(
            "{:<8}{:>10}{:>12}{:>14.1}{:>13.1}{:>10}{:>10}{:>8}",
            summary.addr.to_string(),
            summary.payments,
            summary.paid.amount().to_string(),
            summary.mean_latency.as_secs_f64() * 1000.0,
            summary.energy_mj,
            summary.wire.uplink_wire_bytes,
            summary.wire.downlink_wire_bytes,
            summary.wire.retransmissions,
        );
    }
    let medium = driver.medium().inner();
    println!(
        "medium: {} messages, {} wire bytes, busy {:.1} ms",
        medium.total_messages(),
        medium.total_wire_bytes(),
        medium.total_airtime().as_secs_f64() * 1000.0,
    );

    // The whole multi-session state (chain + 2 × 6 channel endpoints)
    // survives a power cycle as one wire-format file.
    let mut path = std::env::temp_dir();
    path.push(format!("tinyevm-multi-node-{}.snap", std::process::id()));
    driver.save_session(&path).expect("session persists");
    let mut resumed = FleetScheduler::new(fleet_config());
    resumed.restore_session(&path).expect("session restores");
    assert_eq!(resumed.chain().state_root(), driver.chain().state_root());
    println!(
        "\npower cycle: {} byte snapshot restored, chain root {}",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        resumed.chain().state_root(),
    );
    let _ = std::fs::remove_file(&path);

    // Settle all six channels on the gateway's chain.
    let report = resumed.settle_all().expect("every channel settles");
    println!(
        "settled {} channels in {} on-chain transactions: {} wei to the gateway",
        report.settlements.len(),
        report.on_chain_transactions,
        report.total_to_gateway.amount(),
    );
    for (sensor, settlement) in &report.settlements {
        println!(
            "  {sensor}: {} wei to the gateway, {} wei refunded, fraud: {}",
            settlement.to_receiver.amount(),
            settlement.to_sender.amount(),
            settlement.fraud_detected,
        );
    }
}
