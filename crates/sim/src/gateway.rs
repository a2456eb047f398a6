//! The gateway's view of its fleet: its address, how it judges each
//! sensor's health, and what it reports about rounds, sensors and the
//! final settlement.

use std::time::Duration;

use tinyevm_chain::Settlement;
use tinyevm_channel::{EndpointError, ProtocolError};
use tinyevm_net::{EndpointStats, NodeAddr};
use tinyevm_types::{Address, Wei};

/// Protocol violations (bad signatures, tampered proposals, channel-rule
/// breaches) a single sensor may commit before the gateway quarantines it.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Default link-layer address of the gateway.
pub const GATEWAY_ADDR: NodeAddr = NodeAddr::new(0xFE);

/// Health of one sensor as the gateway sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorHealth {
    /// Behaving normally.
    Healthy,
    /// The last round died on transport (retry budget exhausted, link
    /// refusal); the sensor recovers to [`SensorHealth::Healthy`] on its
    /// next clean round.
    Degraded,
    /// The sensor committed [`QUARANTINE_THRESHOLD`] protocol violations;
    /// the gateway refuses further rounds and excludes it from settlement.
    /// The rest of the fleet keeps paying and settles normally.
    Quarantined,
}

/// How a fault reflects on the sensor that caused it.
pub(crate) enum FaultClass {
    /// Invalid signature, tampered proposal or channel-rule breach —
    /// counts toward quarantine.
    Violation,
    /// Transport trouble (round aborted, link refusal) — degrades, never
    /// quarantines.
    Transport,
    /// Driver-level misuse or chain trouble — not the sensor's doing.
    Fatal,
}

pub(crate) fn classify(error: &ProtocolError) -> FaultClass {
    match error {
        ProtocolError::BadSignature
        | ProtocolError::Channel(_)
        | ProtocolError::UnexpectedMessage { .. }
        | ProtocolError::Endpoint(EndpointError::ProposalMismatch(_)) => FaultClass::Violation,
        ProtocolError::Link(_)
        | ProtocolError::Medium(_)
        | ProtocolError::Endpoint(EndpointError::RoundAborted { .. }) => FaultClass::Transport,
        _ => FaultClass::Fatal,
    }
}

/// Measurements of one multi-node payment round.
#[derive(Debug, Clone)]
pub struct GatewayRoundReport {
    /// The paying sensor.
    pub sensor: NodeAddr,
    /// Sequence number on that sensor's channel.
    pub sequence: u64,
    /// Cumulative amount that sensor now owes the gateway.
    pub cumulative: Wei,
    /// Virtual time from initiating the payment on the sensor until the
    /// gateway's acknowledgement arrived back.
    pub end_to_end_latency: Duration,
    /// Radio bytes exchanged for this payment (both directions).
    pub bytes_exchanged: usize,
}

/// Per-sensor summary of a finished (or running) session.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSummary {
    /// The sensor's link-layer address.
    pub addr: NodeAddr,
    /// The sensor's payment identity.
    pub account: Address,
    /// Payments the sensor made.
    pub payments: u64,
    /// Cumulative amount paid to the gateway.
    pub paid: Wei,
    /// Mean end-to-end payment latency.
    pub mean_latency: Duration,
    /// Energy the sensor's hardware consumed so far (mJ).
    pub energy_mj: f64,
    /// Wire-level accounting attributed to this sensor on the medium.
    pub wire: EndpointStats,
    /// Health of the sensor as the gateway sees it.
    pub health: SensorHealth,
    /// Protocol violations the sensor has committed.
    pub violations: u32,
}

/// Result of settling every channel on the gateway's chain.
#[derive(Debug, Clone)]
pub struct GatewaySettlementReport {
    /// Per-sensor settlements, in sensor-address order.
    pub settlements: Vec<(NodeAddr, Settlement)>,
    /// Sum paid to the gateway across all channels.
    pub total_to_gateway: Wei,
    /// The gateway's final on-chain balance.
    pub gateway_balance: Wei,
    /// On-chain transactions the whole multi-channel session needed.
    pub on_chain_transactions: usize,
}

#[cfg(test)]
mod tests {
    use tinyevm_net::{FaultConfig, LinkConfig, MessageWindow};
    use tinyevm_wire::{persist, ChainSnapshot, Message, WireError};

    use super::*;
    use crate::{FleetConfig, FleetScheduler};

    fn fleet(sensors: usize) -> FleetScheduler {
        FleetScheduler::new(FleetConfig::single_slot(sensors))
    }

    fn fleet_with(sensors: usize, link: LinkConfig, deposit: u64) -> FleetScheduler {
        FleetScheduler::new(FleetConfig {
            link,
            deposit: Wei::from(deposit),
            ..FleetConfig::single_slot(sensors)
        })
    }

    #[test]
    fn fleet_has_distinct_identities_and_addresses() {
        let d = fleet(4);
        let mut accounts: Vec<Address> = d.sensors().iter().map(|s| s.account()).collect();
        accounts.push(d.gateway().account());
        accounts.sort();
        accounts.dedup();
        assert_eq!(accounts.len(), 5, "all payment identities are distinct");
        let addrs: Vec<NodeAddr> = d.sensors().iter().map(|s| s.addr()).collect();
        assert_eq!(
            addrs,
            vec![
                NodeAddr::new(1),
                NodeAddr::new(2),
                NodeAddr::new(3),
                NodeAddr::new(4)
            ]
        );
        assert_eq!(d.gateway().addr(), GATEWAY_ADDR);
    }

    #[test]
    fn payments_must_wait_for_open_all() {
        let mut d = fleet(2);
        assert!(matches!(
            d.pay(0, Wei::from(1u64)),
            Err(ProtocolError::OutOfOrder(_))
        ));
        d.open_all().unwrap();
        assert!(matches!(d.open_all(), Err(ProtocolError::OutOfOrder(_))));
        assert!(matches!(
            d.pay(9, Wei::from(1u64)),
            Err(ProtocolError::OutOfOrder(_))
        ));
    }

    #[test]
    fn four_sensors_pay_and_settle_on_one_chain() {
        let mut d = fleet(4);
        d.open_all().unwrap();
        d.run(3, Wei::from(2_500u64)).unwrap();
        assert_eq!(d.rounds().len(), 12);

        // Every sensor's channel and both side-chain logs advanced.
        for sensor in d.sensors() {
            assert_eq!(sensor.channel(GATEWAY_ADDR).unwrap().payments_seen(), 3);
            let log = sensor.side_chain(GATEWAY_ADDR).unwrap();
            assert_eq!(log.len(), 3);
            assert!(log.verify());
            assert_eq!(sensor.peer_acks(GATEWAY_ADDR).unwrap().len(), 3);
            let gateway_log = d.gateway().side_chain(sensor.addr()).unwrap();
            assert_eq!(gateway_log.len(), 3);
            assert!(gateway_log.verify());
        }

        let report = d.settle_all().unwrap();
        assert_eq!(report.settlements.len(), 4);
        assert_eq!(report.total_to_gateway, Wei::from(4 * 3 * 2_500u64));
        assert_eq!(report.gateway_balance, report.total_to_gateway);
        for (_, settlement) in &report.settlements {
            assert!(!settlement.fraud_detected);
            assert_eq!(settlement.to_receiver, Wei::from(7_500u64));
        }
        // Each sensor got its unspent deposit back.
        for sensor in d.sensors() {
            assert!(d.chain().balance(&sensor.account()) >= Wei::from(992_500u64));
        }
    }

    #[test]
    fn per_sensor_statistics_are_reported_and_sum_to_the_medium() {
        let mut d = fleet(4);
        d.open_all().unwrap();
        d.run(2, Wei::from(1_000u64)).unwrap();
        let summaries = d.sensor_summaries();
        assert_eq!(summaries.len(), 4);
        let mut wire_total = 0u64;
        for summary in &summaries {
            assert_eq!(summary.payments, 2);
            assert_eq!(summary.paid, Wei::from(2_000u64));
            assert!(summary.mean_latency > Duration::from_millis(300));
            assert!(summary.energy_mj > 1.0);
            assert!(summary.wire.uplink_wire_bytes > 0);
            assert!(summary.wire.downlink_wire_bytes > 0);
            wire_total += summary.wire.wire_bytes();
        }
        assert_eq!(wire_total, d.medium().inner().total_wire_bytes());
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let run = || {
            let mut d = fleet(4);
            d.open_all().unwrap();
            d.run(2, Wei::from(1_000u64)).unwrap();
            d.sensor_summaries()
        };
        assert_eq!(run(), run(), "same configuration, byte-identical stats");
    }

    #[test]
    fn lossy_medium_still_settles_every_channel() {
        let mut link = LinkConfig::default().with_loss(0.15, 7);
        link.max_retries = 16;
        let mut d = fleet_with(5, link, 100_000);
        d.open_all().unwrap();
        d.run(2, Wei::from(700u64)).unwrap();
        let report = d.settle_all().unwrap();
        assert_eq!(report.total_to_gateway, Wei::from(5 * 2 * 700u64));
        // Losses happened somewhere (retransmissions are per-sensor).
        let retransmissions: u64 = d
            .sensor_summaries()
            .iter()
            .map(|s| s.wire.retransmissions)
            .sum();
        assert!(retransmissions > 0);
    }

    #[test]
    fn multi_session_state_survives_a_power_cycle() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-gateway-{}.snap", std::process::id()));
        let mut d = fleet(3);
        d.open_all().unwrap();
        d.run(2, Wei::from(500u64)).unwrap();
        let chain_root = d.chain().state_root();
        d.save_session(&path).unwrap();

        let mut resumed = fleet(3);
        resumed.restore_session(&path).unwrap();
        assert_eq!(resumed.chain().state_root(), chain_root);
        for (restored, original) in resumed.sensors().iter().zip(d.sensors()) {
            assert_eq!(
                restored.channel(GATEWAY_ADDR).unwrap().cumulative(),
                original.channel(GATEWAY_ADDR).unwrap().cumulative()
            );
            assert!(restored.side_chain(GATEWAY_ADDR).unwrap().verify());
        }
        // Measurement history belongs to the lost process: the restored
        // fleet starts its round log and latencies empty even though the
        // restored channels carry payments.
        assert!(resumed.rounds().is_empty());
        assert!(resumed
            .sensors()
            .iter()
            .all(|s| s.latencies(GATEWAY_ADDR).unwrap_or(&[]).is_empty()));
        // A restored session is open: opening again is refused.
        assert!(matches!(
            resumed.open_all(),
            Err(ProtocolError::OutOfOrder(_))
        ));
        // The fleet keeps paying and settles for everything.
        resumed.pay(0, Wei::from(500u64)).unwrap();
        let report = resumed.settle_all().unwrap();
        assert_eq!(report.total_to_gateway, Wei::from(3 * 2 * 500 + 500u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_or_incomplete_session_files_are_rejected() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-gateway-bad-{}.snap", std::process::id()));
        let mut d = fleet(2);
        d.open_all().unwrap();
        d.pay(0, Wei::from(100u64)).unwrap();
        d.save_session(&path).unwrap();

        // A fleet of a different size must refuse the file.
        let mut wrong_size = fleet(3);
        let root = wrong_size.chain().state_root();
        assert!(matches!(
            wrong_size.restore_session(&path),
            Err(ProtocolError::Wire(_))
        ));

        // A chain-snapshot-only file is incomplete.
        persist::write_messages(
            &path,
            &[Message::ChainSnapshot(ChainSnapshot::capture(d.chain()))],
        )
        .unwrap();
        let mut resumed = fleet(2);
        assert!(matches!(
            resumed.restore_session(&path),
            Err(ProtocolError::Wire(WireError::Truncated))
        ));
        std::fs::remove_file(&path).unwrap();

        // Both refusals came before any state changed: the chains are
        // untouched, no channel was installed, and the fleets still open.
        assert_eq!(wrong_size.chain().state_root(), root);
        for rejected in [&mut wrong_size, &mut resumed] {
            assert!(rejected
                .sensors()
                .iter()
                .all(|s| s.channel(GATEWAY_ADDR).is_none()));
            rejected.open_all().unwrap();
        }
    }

    #[test]
    fn repeated_violations_quarantine_one_sensor_without_blocking_the_fleet() {
        // The contended schedule refuses and settles around a quarantined
        // sensor exactly as the lockstep one does.
        for schedule in [FleetConfig::single_slot(4), FleetConfig::csma(4, 0x5EED)] {
            let mut d = FleetScheduler::new(FleetConfig {
                deposit: Wei::from(10_000u64),
                ..schedule
            });
            d.open_all().unwrap();
            d.run(1, Wei::from(2_000u64)).unwrap();
            // Sensor 1 repeatedly tries to overdraw its deposit — a
            // channel rule violation, refused every time with a typed
            // error.
            for _ in 0..QUARANTINE_THRESHOLD {
                let error = d.pay(1, Wei::from(50_000u64)).unwrap_err();
                assert!(matches!(error, ProtocolError::Channel(_)));
            }
            assert_eq!(d.sensor_health(1), Some(SensorHealth::Quarantined));
            assert_eq!(d.quarantined_count(), 1);
            // Further rounds with the quarantined sensor are refused
            // outright: no round runs and no violation is booked.
            let rounds = d.rounds().len();
            assert!(matches!(
                d.pay(1, Wei::from(100u64)),
                Err(ProtocolError::Quarantined { sensor }) if sensor == NodeAddr::new(2)
            ));
            assert_eq!(d.rounds().len(), rounds);
            // The rest of the fleet keeps paying (run skips the
            // quarantined sensor) and settles normally.
            d.run(1, Wei::from(2_000u64)).unwrap();
            let report = d.settle_all().unwrap();
            assert_eq!(report.settlements.len(), 3, "quarantined sensor excluded");
            // Healthy sensors paid two rounds, the quarantined one only the
            // first — and its first-round payment is NOT settled (its
            // channel stays open for a later unilateral challenge).
            assert_eq!(report.total_to_gateway, Wei::from(3 * 2 * 2_000u64));
            let summaries = d.sensor_summaries();
            assert_eq!(summaries[1].health, SensorHealth::Quarantined);
            assert_eq!(summaries[1].violations, QUARANTINE_THRESHOLD);
            assert!(summaries
                .iter()
                .enumerate()
                .all(|(i, s)| i == 1 || s.health == SensorHealth::Healthy));
        }
    }

    #[test]
    fn a_partitioned_sensor_degrades_and_recovers() {
        let mut d = fleet(3);
        d.open_all().unwrap();
        d.run(1, Wei::from(500u64)).unwrap();
        // Partition sensor 0 permanently; its round aborts after the retry
        // budget and the health state records the degradation.
        d.set_sensor_faults(
            0,
            FaultConfig {
                partition: Some(MessageWindow {
                    from_message: 0,
                    to_message: u64::MAX,
                }),
                ..FaultConfig::quiet(5)
            },
        )
        .unwrap();
        d.run(1, Wei::from(500u64)).unwrap();
        assert_eq!(d.sensor_health(0), Some(SensorHealth::Degraded));
        assert_eq!(
            d.sensor_summaries()[0].violations,
            0,
            "transport trouble never counts"
        );
        // The other sensors were unaffected.
        assert_eq!(d.sensor_health(1), Some(SensorHealth::Healthy));
        // The partition lifts; the next clean round restores the sensor.
        d.clear_sensor_faults(0).unwrap();
        d.run(1, Wei::from(500u64)).unwrap();
        assert_eq!(d.sensor_health(0), Some(SensorHealth::Healthy));
        let report = d.settle_all().unwrap();
        assert_eq!(report.settlements.len(), 3);
        // Nothing was lost: sensor 0 had already signed the partitioned
        // round's payment, so its cumulative value folded into the next
        // successful payment and the gateway settles for all 3 × 3 rounds.
        assert_eq!(report.total_to_gateway, Wei::from(3 * 3 * 500u64));
    }

    #[test]
    fn settlement_batch_verifies_every_close_signature_in_one_pass() {
        // The gateway device's activity log shows exactly one batched
        // verification covering all N channels, followed by N
        // counter-signatures.
        let mut d = fleet(3);
        d.open_all().unwrap();
        d.run(1, Wei::from(400u64)).unwrap();
        d.settle_all().unwrap();
        let batch_verifies = d
            .gateway()
            .device()
            .activities()
            .iter()
            .filter(|a| a.label == "batch verify payloads")
            .count();
        assert_eq!(batch_verifies, 1, "one Straus pass for the whole fleet");
    }
}
