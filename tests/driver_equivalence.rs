//! Driver-equivalence suite: the pump-based `ProtocolDriver` and the
//! single-slot `FleetScheduler` must produce statistics identical to the
//! pre-redesign monolithic drivers for seeded sessions.
//!
//! The `GOLDEN_*` constants below were captured from the drivers **before**
//! the sans-IO endpoint redesign (by running the ignored
//! `print_fingerprints` test on that revision); the live tests re-run the
//! same seeded scenarios and require byte-identical fingerprints. The
//! fingerprint covers everything the experiments harness reports — device
//! clocks, per-power-state times (and therefore energy), per-round latency
//! and timing splits, wire bytes with headers and retransmissions, and
//! settlement amounts — including across a save/restore power cycle.
//!
//! The close phase itself is intentionally *not* byte-fingerprinted: the
//! redesign replaced the omniscient close (the driver teleported the
//! receiver's signature into the sender's outgoing envelope) with an honest
//! close-request handshake, which changes the close message's size by a few
//! bytes. Settlement amounts, balances and transaction counts are still
//! pinned.

use std::fmt::Write as _;

use proptest::prelude::*;
use tinyevm::channel::{ProtocolDriver, RoundReport, SettlementReport};
use tinyevm::device::Device;
use tinyevm::prelude::*;
use tinyevm::sim::GatewaySettlementReport;

/// One device's meter as exact integers: simulated clock plus nanoseconds
/// spent in every power state (energy is voltage × current × time, so equal
/// times mean equal energy).
fn device_fingerprint(device: &Device) -> String {
    let report = device.energy_report();
    let mut out = format!("now={}", device.now().as_nanos());
    for state in &report.states {
        if !state.time.is_zero() {
            let _ = write!(out, " {}={}", state.state.label(), state.time.as_nanos());
        }
    }
    out
}

fn round_fingerprint(round: &RoundReport) -> String {
    format!(
        "seq={} cum={} e2e={} active={} sign={} register={} bytes={}",
        round.sequence,
        round.cumulative.amount(),
        round.end_to_end_latency.as_nanos(),
        round.sender_active_time.as_nanos(),
        round.sender_sign_time.as_nanos(),
        round.sender_register_time.as_nanos(),
        round.bytes_exchanged,
    )
}

/// Everything observable about a two-party session after the payment phase.
fn protocol_session_fingerprint(driver: &ProtocolDriver, rounds: &[RoundReport]) -> String {
    let mut out = String::new();
    for round in rounds {
        let _ = writeln!(out, "round: {}", round_fingerprint(round));
    }
    let _ = writeln!(
        out,
        "sender: {}",
        device_fingerprint(driver.sender().device())
    );
    let _ = writeln!(
        out,
        "receiver: {}",
        device_fingerprint(driver.receiver().device())
    );
    let _ = writeln!(
        out,
        "link: messages={} wire_bytes={}",
        driver.link().total_messages(),
        driver.link().total_wire_bytes()
    );
    let _ = writeln!(
        out,
        "sidechains: sender_len={} receiver_len={} acks={}",
        driver.sender().side_chain().len(),
        driver.receiver().side_chain().len(),
        driver.sender().peer_signatures().len()
    );
    out
}

fn settlement_fingerprint(driver: &ProtocolDriver, report: &SettlementReport) -> String {
    format!(
        "to_receiver={} to_sender={} fraud={} sender_bal={} receiver_bal={} payments={} txs={}\n",
        report.settlement.to_receiver.amount(),
        report.settlement.to_sender.amount(),
        report.settlement.fraud_detected,
        report.sender_balance.amount(),
        report.receiver_balance.amount(),
        report.payments_exchanged,
        driver.chain().transactions().len(),
    )
}

/// Everything observable about a fleet session after the payment phase.
fn gateway_session_fingerprint(fleet: &FleetScheduler) -> String {
    let mut out = String::new();
    for round in fleet.rounds() {
        let _ = writeln!(
            out,
            "round: sensor={} seq={} cum={} e2e={} bytes={}",
            round.sensor,
            round.sequence,
            round.cumulative.amount(),
            round.end_to_end_latency.as_nanos(),
            round.bytes_exchanged
        );
    }
    let gateway = fleet.gateway();
    for (summary, sensor) in fleet.sensor_summaries().iter().zip(fleet.sensors()) {
        let _ = writeln!(
            out,
            "sensor {} acct={} payments={} paid={} mean_latency={} up_msgs={} down_msgs={} \
             up_bytes={} down_bytes={} payload={} rexmit={} airtime={}",
            summary.addr,
            summary.account,
            summary.payments,
            summary.paid.amount(),
            summary.mean_latency.as_nanos(),
            summary.wire.uplink_messages,
            summary.wire.downlink_messages,
            summary.wire.uplink_wire_bytes,
            summary.wire.downlink_wire_bytes,
            summary.wire.payload_bytes,
            summary.wire.retransmissions,
            summary.wire.airtime.as_nanos(),
        );
        let _ = writeln!(out, "  device: {}", device_fingerprint(sensor.device()));
        let _ = writeln!(
            out,
            "  latencies: {:?}",
            sensor
                .latencies(gateway.addr())
                .unwrap_or(&[])
                .iter()
                .map(|l| l.as_nanos())
                .collect::<Vec<_>>()
        );
    }
    let _ = writeln!(out, "gateway: {}", device_fingerprint(gateway.device()));
    let medium = fleet.medium().inner();
    let _ = writeln!(
        out,
        "medium: messages={} wire_bytes={} airtime={}",
        medium.total_messages(),
        medium.total_wire_bytes(),
        medium.total_airtime().as_nanos()
    );
    out
}

fn gateway_settlement_fingerprint(report: &GatewaySettlementReport) -> String {
    let mut out = String::new();
    for (addr, settlement) in &report.settlements {
        let _ = writeln!(
            out,
            "settled {addr}: to_receiver={} to_sender={} fraud={}",
            settlement.to_receiver.amount(),
            settlement.to_sender.amount(),
            settlement.fraud_detected
        );
    }
    let _ = writeln!(
        out,
        "total={} gateway_bal={} txs={}",
        report.total_to_gateway.amount(),
        report.gateway_balance.amount(),
        report.on_chain_transactions
    );
    out
}

// --- seeded scenarios ----------------------------------------------------

fn lossy_link(loss: f64, seed: u64) -> LinkConfig {
    let mut link = LinkConfig::default().with_loss(loss, seed);
    link.max_retries = 16;
    link
}

/// Two-party session over a lossless TSCH link: 3 payments then settle.
fn two_party_lossless() -> (String, String) {
    let mut driver = ProtocolDriver::smart_parking(Wei::from(1_000_000u64));
    let rounds = driver.run_session(3, Wei::from(10_000u64)).unwrap();
    let session = protocol_session_fingerprint(&driver, &rounds);
    let report = driver.close_and_settle().unwrap();
    (session, settlement_fingerprint(&driver, &report))
}

/// Two-party session over a seeded lossy link.
fn two_party_lossy() -> (String, String) {
    let mut driver =
        ProtocolDriver::smart_parking_with_link(lossy_link(0.2, 42), Wei::from(1_000_000u64));
    let rounds = driver.run_session(3, Wei::from(10_000u64)).unwrap();
    let session = protocol_session_fingerprint(&driver, &rounds);
    let report = driver.close_and_settle().unwrap();
    (session, settlement_fingerprint(&driver, &report))
}

/// Two-party lossy session interrupted by a power cycle: 2 payments, save,
/// restore into a fresh driver, 1 more payment, settle.
fn two_party_power_cycle() -> (String, String) {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "tinyevm-equiv-two-party-{}.snap",
        std::process::id()
    ));
    let make =
        || ProtocolDriver::smart_parking_with_link(lossy_link(0.1, 7), Wei::from(500_000u64));
    let mut first_life = make();
    first_life.run_session(2, Wei::from(4_000u64)).unwrap();
    first_life.save_session(&path).unwrap();
    let mut resumed = make();
    resumed.restore_session(&path).unwrap();
    let rounds = vec![resumed.pay(Wei::from(4_000u64)).unwrap()];
    let session = protocol_session_fingerprint(&resumed, &rounds);
    let report = resumed.close_and_settle().unwrap();
    let _ = std::fs::remove_file(&path);
    (session, settlement_fingerprint(&resumed, &report))
}

/// A single-slot fleet of `sensors` nodes over `link`.
fn single_slot_fleet(sensors: usize, link: LinkConfig, deposit: u64) -> FleetScheduler {
    FleetScheduler::new(FleetConfig {
        link,
        deposit: Wei::from(deposit),
        ..FleetConfig::single_slot(sensors)
    })
}

/// One fleet scenario: `sensors` nodes, seeded lossy medium, 2 rounds.
fn fleet_session(sensors: usize) -> (String, String) {
    let mut fleet = single_slot_fleet(sensors, lossy_link(0.05, 7), 1_000_000);
    fleet.open_all().unwrap();
    fleet.run(2, Wei::from(1_500u64)).unwrap();
    let session = gateway_session_fingerprint(&fleet);
    let report = fleet.settle_all().unwrap();
    (session, gateway_settlement_fingerprint(&report))
}

/// Fleet session interrupted by a power cycle after the first round.
fn fleet_power_cycle() -> (String, String) {
    let mut path = std::env::temp_dir();
    path.push(format!("tinyevm-equiv-fleet-{}.snap", std::process::id()));
    let make = || single_slot_fleet(3, lossy_link(0.1, 11), 200_000);
    let mut first_life = make();
    first_life.open_all().unwrap();
    first_life.run(1, Wei::from(900u64)).unwrap();
    first_life.save_session(&path).unwrap();
    let mut resumed = make();
    resumed.restore_session(&path).unwrap();
    resumed.run(1, Wei::from(900u64)).unwrap();
    let session = gateway_session_fingerprint(&resumed);
    let report = resumed.settle_all().unwrap();
    let _ = std::fs::remove_file(&path);
    (session, gateway_settlement_fingerprint(&report))
}

// --- golden fingerprints (pre-redesign drivers) --------------------------

const GOLDEN_TWO_PARTY_LOSSLESS: &str = include_str!("goldens/two_party_lossless.txt");
const GOLDEN_TWO_PARTY_LOSSY: &str = include_str!("goldens/two_party_lossy.txt");
const GOLDEN_TWO_PARTY_POWER_CYCLE: &str = include_str!("goldens/two_party_power_cycle.txt");
const GOLDEN_FLEET_2: &str = include_str!("goldens/fleet_2.txt");
const GOLDEN_FLEET_4: &str = include_str!("goldens/fleet_4.txt");
const GOLDEN_FLEET_8: &str = include_str!("goldens/fleet_8.txt");
const GOLDEN_FLEET_POWER_CYCLE: &str = include_str!("goldens/fleet_power_cycle.txt");

fn split_golden(golden: &str) -> (&str, &str) {
    golden
        .split_once("--- settlement ---\n")
        .expect("golden file has a settlement section")
}

fn assert_matches_golden(name: &str, golden: &str, session: &str, settlement: &str) {
    let (golden_session, golden_settlement) = split_golden(golden);
    assert_eq!(
        session, golden_session,
        "{name}: session statistics diverged from the pre-redesign driver"
    );
    assert_eq!(
        settlement, golden_settlement,
        "{name}: settlement diverged from the pre-redesign driver"
    );
}

/// Regenerates the golden files' contents. Run with
/// `cargo test -p tinyevm --test driver_equivalence -- --ignored --nocapture`
/// and copy each section into `tests/goldens/<name>.txt` — but only on a
/// revision whose behavior is the reference (originally: the last
/// pre-redesign commit).
#[test]
#[ignore = "golden generator, not a check"]
fn print_fingerprints() {
    type Scenario = fn() -> (String, String);
    let scenarios: [(&str, Scenario); 7] = [
        ("two_party_lossless", two_party_lossless),
        ("two_party_lossy", two_party_lossy),
        ("two_party_power_cycle", two_party_power_cycle),
        ("fleet_2", || fleet_session(2)),
        ("fleet_4", || fleet_session(4)),
        ("fleet_8", || fleet_session(8)),
        ("fleet_power_cycle", fleet_power_cycle),
    ];
    for (name, run) in scenarios {
        let (session, settlement) = run();
        println!("===== {name}.txt =====");
        print!("{session}--- settlement ---\n{settlement}");
        println!("===== end {name} =====");
    }
}

#[test]
fn two_party_lossless_statistics_match_the_pre_redesign_driver() {
    let (session, settlement) = two_party_lossless();
    assert_matches_golden(
        "two_party_lossless",
        GOLDEN_TWO_PARTY_LOSSLESS,
        &session,
        &settlement,
    );
}

#[test]
fn two_party_lossy_statistics_match_the_pre_redesign_driver() {
    let (session, settlement) = two_party_lossy();
    assert_matches_golden(
        "two_party_lossy",
        GOLDEN_TWO_PARTY_LOSSY,
        &session,
        &settlement,
    );
}

#[test]
fn two_party_power_cycle_statistics_match_the_pre_redesign_driver() {
    let (session, settlement) = two_party_power_cycle();
    assert_matches_golden(
        "two_party_power_cycle",
        GOLDEN_TWO_PARTY_POWER_CYCLE,
        &session,
        &settlement,
    );
}

#[test]
fn fleet_statistics_match_the_pre_redesign_driver_for_sizes_2_4_8() {
    for (sensors, golden) in [
        (2, GOLDEN_FLEET_2),
        (4, GOLDEN_FLEET_4),
        (8, GOLDEN_FLEET_8),
    ] {
        let (session, settlement) = fleet_session(sensors);
        assert_matches_golden(&format!("fleet_{sensors}"), golden, &session, &settlement);
    }
}

#[test]
fn fleet_power_cycle_statistics_match_the_pre_redesign_driver() {
    let (session, settlement) = fleet_power_cycle();
    assert_matches_golden(
        "fleet_power_cycle",
        GOLDEN_FLEET_POWER_CYCLE,
        &session,
        &settlement,
    );
}

proptest! {
    // Each case runs a full crypto-heavy session; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary seeded lossy links and payment schedules, a session
    /// interrupted by a power cycle at a random point continues to
    /// statistics identical to the uninterrupted session: same channel
    /// state, same settlement, and the same subsequent round reports.
    #[test]
    fn power_cycle_is_statistically_invisible(
        seed in 0u64..1_000,
        loss_permille in 0u64..250,
        payments in 2usize..5,
        cut in 1usize..4,
        amount in 1_000u64..20_000,
    ) {
        let cut = cut.min(payments - 1);
        let link = lossy_link(loss_permille as f64 / 1000.0, seed);
        let deposit = Wei::from(1_000_000u64);

        // Uninterrupted reference run.
        let mut reference = ProtocolDriver::smart_parking_with_link(link.clone(), deposit);
        let reference_rounds = reference.run_session(payments, Wei::from(amount)).unwrap();

        // Interrupted run: same seeds, power cycle after `cut` payments.
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tinyevm-equiv-prop-{}-{seed}-{loss_permille}-{payments}-{cut}.snap",
            std::process::id()
        ));
        let mut first_life = ProtocolDriver::smart_parking_with_link(link.clone(), deposit);
        first_life.run_session(cut, Wei::from(amount)).unwrap();
        first_life.save_session(&path).unwrap();
        let mut resumed = ProtocolDriver::smart_parking_with_link(link, deposit);
        resumed.restore_session(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for expected in reference_rounds.iter().skip(cut) {
            let round = resumed.pay(Wei::from(amount)).unwrap();
            prop_assert_eq!(round.sequence, expected.sequence);
            prop_assert_eq!(round.cumulative, expected.cumulative);
            prop_assert_eq!(round.sender_sign_time, expected.sender_sign_time);
            prop_assert_eq!(round.sender_register_time, expected.sender_register_time);
        }

        // Both runs settle to the same on-chain outcome.
        let reference_settlement = reference.close_and_settle().unwrap();
        let resumed_settlement = resumed.close_and_settle().unwrap();
        prop_assert_eq!(
            reference_settlement.settlement.to_receiver,
            resumed_settlement.settlement.to_receiver
        );
        prop_assert_eq!(
            reference_settlement.settlement.to_sender,
            resumed_settlement.settlement.to_sender
        );
        prop_assert_eq!(
            reference_settlement.receiver_balance,
            resumed_settlement.receiver_balance
        );
        prop_assert!(!resumed_settlement.settlement.fraud_detected);
        // The full snapshots are NOT compared: sensor peripherals are
        // stateful and their state is (deliberately) lost in a power
        // cycle, so the post-cut sensor hashes differ. The money state
        // must agree exactly.
        let resumed_channel = resumed.sender().channel().unwrap();
        let reference_channel = reference.sender().channel().unwrap();
        prop_assert_eq!(resumed_channel.sequence(), reference_channel.sequence());
        prop_assert_eq!(resumed_channel.cumulative(), reference_channel.cumulative());
        prop_assert!(resumed.sender().side_chain().verify());
        prop_assert!(resumed.receiver().side_chain().verify());
    }
}
