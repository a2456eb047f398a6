//! Fleet-simulation invariants.
//!
//! * **Two-party equivalence** — a one-sensor contention-free fleet moves
//!   exactly the money a `ProtocolDriver` session moves.
//! * **Determinism** — same seed ⇒ identical fingerprint at any `jobs`
//!   value (proptest over seeds).
//! * **Conservation** — medium busy time = Σ per-sensor airtime +
//!   collision-wasted airtime, to the nanosecond.
//! * **Backoff deadlines** — a partition window spanning exactly the
//!   backoff cap reconverges, and the waits show up on the virtual clock.
//! * **Settlement** — every close request reaches the gateway, even one
//!   still parked in its RX queue when the last sensor goes quiet.
//!
//! The single-slot schedule's statistics are pinned against golden files
//! by `tests/driver_equivalence.rs` at the workspace root.

use std::time::Duration;

use proptest::prelude::*;
use tinyevm_channel::{ProtocolDriver, RetryPolicy};
use tinyevm_net::{FaultConfig, MessageWindow};
use tinyevm_sim::{FleetConfig, FleetScheduler};
use tinyevm_types::Wei;

const DEPOSIT: u64 = 1_000_000;
const AMOUNT: u64 = 1_000;

fn run_fleet(config: FleetConfig, rounds: usize) -> FleetScheduler {
    let mut fleet = FleetScheduler::new(config);
    fleet.open_all().expect("channels open");
    fleet.run(rounds, Wei::from(AMOUNT)).expect("rounds run");
    fleet
}

#[test]
fn one_sensor_contention_free_fleet_moves_protocol_driver_money() {
    let payments = 3;

    let mut driver = ProtocolDriver::smart_parking(Wei::from(DEPOSIT));
    driver.publish_template().expect("template publishes");
    driver.open_channel().expect("channel opens");
    for _ in 0..payments {
        driver.pay(Wei::from(AMOUNT)).expect("payment lands");
    }
    let outcome = driver.close_and_settle().expect("settles");

    let mut config = FleetConfig::single_slot(1);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, payments);
    let report = fleet.settle_all().expect("fleet settles");

    // Same money state: sequences, cumulative and what the chain paid out.
    assert_eq!(fleet.rounds().len(), payments);
    for (index, round) in fleet.rounds().iter().enumerate() {
        assert_eq!(round.sequence, index as u64 + 1);
        assert_eq!(round.cumulative, Wei::from(AMOUNT * (index as u64 + 1)));
    }
    assert_eq!(
        outcome.settlement.to_receiver,
        report.settlements[0].1.to_receiver
    );
    assert_eq!(report.total_to_gateway, Wei::from(AMOUNT * payments as u64));
}

/// Every sensor pays every round and every channel settles. The 32-sensor
/// input used to lose its last close request: the scheduler stopped as
/// soon as every sensor went quiet, while that request still sat in the
/// serial gateway's RX queue, and settlement came up one channel short.
#[test]
fn csma_fleet_settles_every_sensor_under_contention() {
    for (sensors, seed, rounds) in [(16, 0xC0FFEE, 2), (32, 15, 1)] {
        let mut config = FleetConfig::csma(sensors, seed);
        config.deposit = Wei::from(DEPOSIT);
        let mut fleet = run_fleet(config, rounds);

        assert_eq!(
            fleet.rounds().len(),
            sensors * rounds,
            "every sensor completes every round"
        );
        assert_eq!(fleet.aborted_rounds(), 0);
        assert!(
            fleet.medium().collision_events() > 0,
            "{sensors} sensors starting at once must collide at least once"
        );

        let report = fleet.settle_all().expect("fleet settles");
        assert_eq!(report.settlements.len(), sensors, "seed {seed}");
        assert_eq!(
            report.total_to_gateway,
            Wei::from(AMOUNT * (sensors * rounds) as u64)
        );
        assert_eq!(
            fleet
                .medium()
                .inner()
                .rx_queue_depth(fleet.gateway().addr()),
            0,
            "no frame is left parked at the gateway"
        );
    }
}

#[test]
fn medium_airtime_is_conserved_under_contention() {
    let mut config = FleetConfig::csma(8, 7);
    config.deposit = Wei::from(DEPOSIT);
    let fleet = run_fleet(config, 2);

    let medium = fleet.medium();
    let per_endpoint: Duration = fleet
        .sensors()
        .iter()
        .map(|sensor| {
            medium
                .stats(sensor.addr())
                .map(|stats| stats.airtime)
                .unwrap_or_default()
        })
        .sum();
    // Successful transfers attribute their airtime to an endpoint; what
    // collisions wasted is tracked separately. Nothing else may burn air.
    assert_eq!(medium.inner().total_airtime(), per_endpoint);
    assert_eq!(
        medium.total_busy_airtime(),
        per_endpoint + medium.collision_airtime()
    );
    assert!(medium.collision_events() > 0, "contention must occur");
    assert!(medium.collision_airtime() > Duration::ZERO);
}

fn fleet_fingerprint(sensors: usize, seed: u64, jobs: usize) -> String {
    let mut config = FleetConfig::csma(sensors, seed);
    config.deposit = Wei::from(DEPOSIT);
    config.jobs = jobs;
    let mut fleet = run_fleet(config, 1);
    fleet.settle_all().expect("fleet settles");
    fleet.fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same seed ⇒ byte-identical outcome at any `--jobs` value: the
    /// worker-thread count may only change host wall-clock, never a single
    /// simulated byte.
    #[test]
    fn fingerprint_is_identical_across_jobs(seed in 1u64..u64::MAX) {
        let baseline = fleet_fingerprint(6, seed, 1);
        for jobs in [2usize, 8] {
            prop_assert_eq!(&baseline, &fleet_fingerprint(6, seed, jobs));
        }
    }
}

/// The headline scale point: 1024 sensors all contending on one CSMA
/// medium, every round completing and every channel settling. Ignored by
/// default (it needs a release build to be quick); the experiments binary
/// runs the same sweep point.
#[test]
#[ignore = "release-scale sweep; run with --release -- --ignored"]
fn kilo_sensor_fleet_settles_under_csma() {
    let sensors = 1024;
    let mut config = FleetConfig::csma(sensors, 99);
    config.deposit = Wei::from(DEPOSIT);
    config.jobs = 8;
    let mut fleet = run_fleet(config, 1);
    assert_eq!(fleet.rounds().len(), sensors, "every sensor pays");
    assert_eq!(fleet.aborted_rounds(), 0);
    assert!(fleet.medium().collision_events() > 0);
    let report = fleet.settle_all().expect("kilofleet settles");
    assert_eq!(report.settlements.len(), sensors);
    assert_eq!(report.total_to_gateway, Wei::from(AMOUNT * sensors as u64));
}

#[test]
fn different_seeds_produce_different_schedules() {
    assert_ne!(fleet_fingerprint(6, 11, 1), fleet_fingerprint(6, 12, 1));
}

/// Satellite regression for deadline-based retransmission: a partition
/// window that swallows every transmission until the exponential backoff
/// reaches its cap must reconverge on the attempt that fires at the cap
/// deadline — and those waits must be visible on the virtual clock.
#[test]
fn partition_window_of_exactly_the_backoff_cap_reconverges() {
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(200),
        max_backoff: Duration::from_millis(800),
    };
    let mut driver = ProtocolDriver::smart_parking(Wei::from(DEPOSIT));
    driver.set_retry_policy(policy);
    driver.publish_template().expect("template publishes");
    driver.open_channel().expect("channel opens");
    driver.pay(Wei::from(AMOUNT)).expect("clean payment lands");

    // Swallow the next 4 transfers: attempts back off 200 → 400 → 800 ms,
    // so the link heals exactly when the doubled backoff hits the cap and
    // the final budgeted attempt carries the payment.
    let conveyed = driver.messages_conveyed();
    driver
        .set_link_faults(FaultConfig {
            partition: Some(MessageWindow {
                from_message: conveyed,
                to_message: conveyed + 4,
            }),
            ..FaultConfig::quiet(0)
        })
        .expect("fault plan is valid");

    let before = driver.sender().device().now();
    driver.pay(Wei::from(AMOUNT)).expect("round reconverges");
    let waited = driver.sender().device().now() - before;
    assert!(
        waited >= Duration::from_millis(200 + 400 + 800),
        "the backoff ladder up to the cap must run on the virtual clock \
         (only {waited:?} elapsed)"
    );

    driver.clear_link_faults();
    let outcome = driver.close_and_settle().expect("settles after healing");
    assert_eq!(outcome.settlement.to_receiver, Wei::from(2 * AMOUNT));
}
