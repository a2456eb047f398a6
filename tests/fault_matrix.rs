//! Fault-matrix robustness suite: seeded storms of loss, corruption,
//! duplication, reordering, replay and crash points over both deployment
//! shapes (one two-party channel, one sensor fleet).
//!
//! Every cell of the matrix must end in one of exactly two ways: a clean
//! on-chain settlement, or a typed protocol error (`RoundAborted`,
//! `Crashed`, `Quarantined`, ...). Three invariants hold across all cells:
//!
//! 1. **No panics.** Faults surface as `Err`, never as unwinding.
//! 2. **Committed state is monotone.** A node's channel cumulative and
//!    side-chain log only grow; no fault (including a power cycle at an
//!    arbitrary protocol phase) ever rolls committed state back.
//! 3. **A quarantined sensor never blocks the fleet.** The other channels
//!    keep paying and settle normally while the quarantined channel stays
//!    open for a later unilateral challenge.

use proptest::prelude::*;
use tinyevm::channel::{CrashSchedule, EndpointError, ProtocolDriver, ProtocolError};
use tinyevm::net::{FaultConfig, LinkConfig, MessageWindow, NodeAddr};
use tinyevm::sim::{FleetConfig, FleetScheduler, SensorHealth, QUARANTINE_THRESHOLD};
use tinyevm::types::{Wei, U256};

const DEPOSIT: u64 = 1_000_000;
const AMOUNT: u64 = 1_000;

/// One sampled fault mix for the two-party link (partitions are exercised
/// separately — a permanent partition stops messages entirely, which is
/// its own cell, not a storm ingredient).
fn storm(corrupt: bool, duplicate: bool, reorder: bool, replay: bool, seed: u64) -> FaultConfig {
    FaultConfig {
        corrupt_rate: if corrupt { 0.08 } else { 0.0 },
        duplicate_rate: if duplicate { 0.10 } else { 0.0 },
        reorder_rate: if reorder { 0.08 } else { 0.0 },
        replay_rate: if replay { 0.05 } else { 0.0 },
        ..FaultConfig::quiet(seed)
    }
}

/// The sender-side committed view of a two-party session: channel
/// cumulative plus side-chain log length. Both may only grow.
fn committed_state(driver: &ProtocolDriver) -> (U256, usize) {
    let cumulative = driver
        .sender()
        .channel()
        .map(|channel| channel.cumulative().amount())
        .unwrap_or_default();
    (cumulative, driver.sender().side_chain().len())
}

/// Runs one two-party matrix cell: open a channel, schedule an optional
/// crash, pay `payments` times through the storm, absorb typed aborts and
/// power-cycle through crashes, then clear the faults and settle. Returns
/// how many payments succeeded.
fn two_party_cell(
    loss: f64,
    faults: Option<FaultConfig>,
    crash: Option<(bool, u64)>,
    seed: u64,
    payments: usize,
) -> usize {
    let link = LinkConfig::default().with_loss(loss, seed);
    let mut driver = ProtocolDriver::smart_parking_with_link(link, Wei::from(DEPOSIT));
    driver.publish_template().expect("template publishes");
    driver
        .open_channel()
        .expect("channel opens on a lossy link");
    if let Some(config) = faults.clone() {
        driver.set_link_faults(config).expect("rates are valid");
    }
    if let Some((crash_receiver, offset)) = crash {
        let target = if crash_receiver {
            driver.receiver().node_addr()
        } else {
            driver.sender().node_addr()
        };
        driver.schedule_crash(CrashSchedule {
            target,
            after_message: driver.messages_conveyed() + offset,
        });
    }

    let mut succeeded = 0usize;
    let mut floor = committed_state(&driver);
    let mut attempts = 0usize;
    let mut last_error = String::new();
    while succeeded < payments {
        attempts += 1;
        assert!(
            attempts <= payments + 8,
            "cell did not converge: {succeeded}/{payments} after {attempts} attempts \
             (last error: {last_error})"
        );
        match driver.pay(Wei::from(AMOUNT)) {
            Ok(_) => succeeded += 1,
            Err(error @ ProtocolError::Endpoint(EndpointError::RoundAborted { .. })) => {
                last_error = error.to_string();
            }
            Err(ProtocolError::Crashed { node }) => {
                driver
                    .power_cycle(node)
                    .expect("power cycle restores flash");
                match driver.resume() {
                    Ok(()) | Err(ProtocolError::Endpoint(EndpointError::RoundAborted { .. })) => {}
                    Err(error) => panic!("resume failed untypedly: {error}"),
                }
            }
            Err(error) => panic!("storm produced an unexpected failure: {error}"),
        }
        let state = committed_state(&driver);
        assert!(
            state.0 >= floor.0 && state.1 >= floor.1,
            "committed state regressed: {state:?} < {floor:?}"
        );
        floor = state;
    }

    driver.clear_link_faults();
    let receiver_view = driver
        .receiver()
        .channel()
        .map(|channel| channel.cumulative())
        .expect("receiver holds the channel");
    let report = driver
        .close_and_settle()
        .expect("a clean link always settles");
    assert_eq!(
        report.settlement.to_receiver, receiver_view,
        "settlement must pay out exactly the committed cumulative"
    );
    succeeded
}

#[test]
fn the_deterministic_fault_matrix_settles_every_cell() {
    // Loss × corruption × duplication × reordering, no crash: 16 cells.
    for (cell, loss) in [0.0f64, 0.15].iter().enumerate() {
        for mask in 0u8..8 {
            let seed = 0x0DD5_0000 + (cell as u64) * 8 + u64::from(mask);
            let faults = storm(
                mask & 1 != 0,
                mask & 2 != 0,
                mask & 4 != 0,
                mask & 4 != 0,
                seed,
            );
            let done = two_party_cell(*loss, Some(faults), None, seed, 2);
            assert_eq!(done, 2, "loss {loss} mask {mask:#b}");
        }
    }
}

#[test]
fn a_crash_at_every_early_phase_recovers_or_aborts_cleanly() {
    // Crash either node after each of the first ten conveyed messages —
    // that sweeps every phase of the first payment round (reading request
    // and response, payment, acknowledgement) and into the second.
    for crash_receiver in [false, true] {
        for offset in 0..10u64 {
            let done = two_party_cell(0.0, None, Some((crash_receiver, offset)), 77, 3);
            assert_eq!(done, 3, "receiver {crash_receiver} offset {offset}");
        }
    }
}

#[test]
fn a_crash_inside_a_storm_still_converges() {
    for offset in [1u64, 4, 7] {
        let faults = storm(true, true, true, true, 0xC0_FFEE + offset);
        let done = two_party_cell(0.1, Some(faults), Some((true, offset)), 13, 2);
        assert_eq!(done, 2, "offset {offset}");
    }
}

#[test]
fn a_permanently_partitioned_link_aborts_typed_and_recovers_after_repair() {
    let mut driver =
        ProtocolDriver::smart_parking_with_link(LinkConfig::default(), Wei::from(DEPOSIT));
    driver.publish_template().unwrap();
    driver.open_channel().unwrap();
    driver
        .set_link_faults(FaultConfig {
            partition: Some(MessageWindow {
                from_message: 0,
                to_message: u64::MAX,
            }),
            ..FaultConfig::quiet(3)
        })
        .unwrap();
    let before = committed_state(&driver);
    match driver.pay(Wei::from(AMOUNT)) {
        Err(ProtocolError::Endpoint(EndpointError::RoundAborted { .. })) => {}
        other => panic!("a dead link must abort the round, got {other:?}"),
    }
    assert_eq!(committed_state(&driver), before, "abort must not commit");
    driver.clear_link_faults();
    driver.pay(Wei::from(AMOUNT)).expect("repaired link pays");
    driver.close_and_settle().expect("and settles");
}

/// One fleet matrix cell: three sensors, a storm on sensor 0, an
/// overdrawing sensor 2 that gets quarantined, an optional save/restore
/// power cycle of the whole gateway mid-run, then settlement of the
/// healthy channels.
fn fleet_cell(faults: FaultConfig, quarantine: bool, power_cycle: bool) {
    let make = || {
        FleetScheduler::new(FleetConfig {
            deposit: Wei::from(DEPOSIT),
            ..FleetConfig::single_slot(3)
        })
    };
    let mut driver = make();
    driver.open_all().expect("fleet opens");
    driver
        .set_sensor_faults(0, faults.clone())
        .expect("sensor 0 exists");
    driver
        .run(2, Wei::from(500u64))
        .expect("the fleet absorbs transport faults and violations");
    if quarantine {
        for _ in 0..QUARANTINE_THRESHOLD {
            assert!(
                driver.pay(2, Wei::from(50_000_000u64)).is_err(),
                "an overdraw is always refused"
            );
        }
        assert_eq!(driver.sensor_health(2), Some(SensorHealth::Quarantined));
        // The quarantined sensor is refused with a typed error...
        match driver.pay(2, Wei::from(500u64)) {
            Err(ProtocolError::Quarantined { sensor }) => {
                assert_eq!(sensor, NodeAddr::new(3));
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }

    if power_cycle {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tinyevm-fault-matrix-{}-{}.snap",
            std::process::id(),
            faults.seed
        ));
        driver.save_session(&path).expect("session saves");
        let mut resumed = make();
        resumed.restore_session(&path).expect("session restores");
        let _ = std::fs::remove_file(&path);
        driver = resumed;
        // Health is volatile (RAM): a rebooted gateway starts everyone
        // Healthy and re-learns misbehaviour from live traffic.
        assert_eq!(driver.quarantined_count(), 0);
    }

    driver.clear_sensor_faults(0).expect("sensor 0 exists");
    // ...while the rest of the fleet keeps paying.
    driver
        .run(1, Wei::from(500u64))
        .expect("the fleet pays after the storm");
    let quarantined = driver.quarantined_count();
    let report = driver.settle_all().expect("healthy channels settle");
    assert_eq!(
        report.settlements.len(),
        3 - quarantined,
        "every non-quarantined channel settles"
    );
    // Committed payments are never lost: what the gateway banked covers at
    // least the per-sensor paid totals of the settled channels.
    let paid: Vec<_> = driver
        .sensor_summaries()
        .iter()
        .filter(|summary| summary.health != SensorHealth::Quarantined)
        .map(|summary| summary.paid)
        .collect();
    let total: U256 = paid
        .iter()
        .fold(U256::default(), |acc, wei| acc + wei.amount());
    assert_eq!(report.total_to_gateway.amount(), total);
}

#[test]
fn the_fleet_matrix_settles_around_storms_quarantine_and_power_cycles() {
    let storms = [
        FaultConfig::quiet(21),
        storm(true, false, false, false, 22),
        storm(false, true, true, true, 23),
        FaultConfig {
            partition: Some(MessageWindow {
                from_message: 0,
                to_message: u64::MAX,
            }),
            ..FaultConfig::quiet(24)
        },
    ];
    for faults in &storms {
        for quarantine in [false, true] {
            for power_cycle in [false, true] {
                fleet_cell(faults.clone(), quarantine, power_cycle);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised sweep over the full two-party matrix: any combination of
    /// loss, storm ingredients and a crash point converges to settlement
    /// with monotone committed state.
    #[test]
    fn any_seeded_storm_converges_to_settlement(
        seed in 0u64..1 << 48,
        loss_permille in 0u32..250,
        mask in 0u8..16,
        with_crash in any::<bool>(),
        crash_receiver in any::<bool>(),
        // Two payments convey at least eight messages, so the crash always
        // fires during the payment loop, never inside the final close.
        crash_offset in 0u64..8,
    ) {
        let faults = storm(mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0, seed);
        let crash = with_crash.then_some((crash_receiver, crash_offset));
        let loss = f64::from(loss_permille) / 1000.0;
        let done = two_party_cell(loss, Some(faults), crash, seed, 2);
        prop_assert_eq!(done, 2);
    }
}
