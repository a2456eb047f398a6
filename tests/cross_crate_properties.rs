//! Property-based integration tests spanning several crates: arbitrary
//! payment schedules always settle to exactly the amount paid, arbitrary
//! contract corpora obey the deployment invariants, and the EVM storage the
//! channel contract keeps always agrees with the protocol-level state.

use proptest::prelude::*;
use tinyevm::channel::ProtocolDriver;
use tinyevm::corpus::{CorpusConfig, WorkloadClass};
use tinyevm::evm::{deploy, EvmConfig};
use tinyevm::prelude::*;

proptest! {
    // Heavier-than-usual cases: keep the count small so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_payment_schedule_settles_to_its_sum(
        amounts in proptest::collection::vec(1u64..500, 1..5)
    ) {
        let deposit: u64 = 10_000;
        let mut driver = ProtocolDriver::smart_parking(Wei::from(deposit));
        driver.publish_template().unwrap();
        driver.open_channel().unwrap();
        let mut expected_total = 0u64;
        for amount in &amounts {
            let report = driver.pay(Wei::from(*amount)).unwrap();
            expected_total += amount;
            prop_assert_eq!(report.cumulative, Wei::from(expected_total));
        }
        let settlement = driver.close_and_settle().unwrap();
        prop_assert_eq!(settlement.settlement.to_receiver, Wei::from(expected_total));
        prop_assert_eq!(
            settlement.settlement.to_sender,
            Wei::from(deposit - expected_total)
        );
        prop_assert!(driver.sender().side_chain().verify());
        prop_assert!(driver.receiver().side_chain().verify());
    }

    #[test]
    fn corpus_deployments_respect_device_invariants(seed in 0u64..1_000) {
        let corpus = CorpusConfig {
            count: 20,
            seed,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        let config = EvmConfig::cc2538();
        for contract in &corpus {
            match deploy(&config, &contract.init_code) {
                Ok(result) => {
                    // Invariants behind Figures 3b / 3c and Table II.
                    prop_assert!(result.deployed_memory_bytes <= contract.size());
                    prop_assert!(result.runtime_code.len() <= config.max_code_size);
                    prop_assert!(result.metrics.max_stack_pointer <= config.max_stack_depth);
                    prop_assert!(result.metrics.memory_high_water <= config.max_memory_bytes);
                }
                // Only the deliberately-malformed family may fail for
                // non-resource reasons (truncated pushes are corrupt code).
                Err(error) => prop_assert!(
                    error.is_resource_limit() || contract.class == WorkloadClass::Malformed
                ),
            }
        }
    }
}

#[test]
fn channel_contract_storage_tracks_protocol_state() {
    // After a few payments, the sequence number stored by the EVM contract
    // on each device equals the protocol-level channel sequence.
    use tinyevm::channel::contracts::{read_calldata, FN_READ_SEQUENCE};

    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(50));
    driver.publish_template().unwrap();
    driver.open_channel().unwrap();
    for _ in 0..3 {
        driver.pay(Wei::from_eth_milli(1)).unwrap();
    }
    let protocol_sequence = driver.sender().channel().unwrap().sequence();
    assert_eq!(protocol_sequence, 3);

    let contract = driver.sender().channel_contract().unwrap();
    let world = driver.sender().device().world();
    let code = world.code_of(&contract);
    assert!(!code.is_empty());
    // Read the stored sequence through the contract's own query function.
    let mut world = world.clone();
    let outcome = world.execute_contract(
        driver.sender().address(),
        contract,
        U256::ZERO,
        &read_calldata(FN_READ_SEQUENCE),
        &mut tinyevm::evm::NullIotEnvironment,
    );
    assert!(outcome.success);
    assert_eq!(
        U256::from_be_slice(&outcome.output).unwrap(),
        U256::from(protocol_sequence)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn medium_accounting_sums_to_per_endpoint_totals(
        sensors in 1u16..9,
        loss_permille in 0u32..250,
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(1usize..3_000, 1..8)
    ) {
        // Whatever the fleet shape, loss rate and traffic pattern, every
        // wire byte, message and microsecond of airtime the medium reports
        // is attributed to exactly one endpoint.
        let config = LinkConfig {
            loss_rate: f64::from(loss_permille) / 1000.0,
            seed,
            max_retries: 64,
            ..LinkConfig::default()
        };
        let gateway = NodeAddr::new(0xFE);
        let mut medium = SharedMedium::new(gateway, config);
        let addrs: Vec<NodeAddr> = (1..=sensors).map(NodeAddr::new).collect();
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        for (turn, size) in sizes.iter().enumerate() {
            let addr = addrs[turn % addrs.len()];
            let payload = vec![turn as u8; *size];
            medium.send_to_gateway(addr, &payload).unwrap();
            if turn % 2 == 0 {
                medium.send_to_endpoint(addr, b"ack").unwrap();
            }
        }
        let mut wire = 0u64;
        let mut messages = 0u64;
        let mut airtime = std::time::Duration::ZERO;
        for addr in &addrs {
            let stats = medium.stats(*addr).unwrap();
            wire += stats.wire_bytes();
            messages += stats.messages();
            airtime += stats.airtime;
        }
        prop_assert_eq!(wire, medium.total_wire_bytes());
        prop_assert_eq!(messages, medium.total_messages());
        prop_assert_eq!(airtime, medium.total_airtime());
    }

    #[test]
    fn any_fleet_settles_to_exactly_what_each_sensor_paid(
        sensors in 2usize..5,
        rounds in 1usize..3
    ) {
        // The gateway chain settles every channel to precisely the
        // cumulative amount that sensor paid — no cross-channel leakage.
        let amount = 1_500u64;
        let mut driver = FleetScheduler::new(FleetConfig {
            deposit: Wei::from(100_000u64),
            ..FleetConfig::single_slot(sensors)
        });
        driver.open_all().unwrap();
        driver.run(rounds, Wei::from(amount)).unwrap();
        let report = driver.settle_all().unwrap();
        prop_assert_eq!(report.settlements.len(), sensors);
        for (_, settlement) in &report.settlements {
            prop_assert_eq!(settlement.to_receiver, Wei::from(amount * rounds as u64));
            prop_assert!(!settlement.fraud_detected);
        }
        prop_assert_eq!(
            report.total_to_gateway,
            Wei::from(amount * (sensors * rounds) as u64)
        );
        prop_assert_eq!(report.gateway_balance, report.total_to_gateway);
    }
}
