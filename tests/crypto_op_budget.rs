//! Host crypto budget of one payment round, counted exactly.
//!
//! The paper's round costs one ECDSA signature on the payer and one
//! signature check on the payee, plus the payee's signed acknowledgement
//! and the payer's check of it: two signatures and two recoveries. The
//! modeled clock charges exactly those; this suite pins that the host runs
//! no more than that either, with the `opcount` counters of
//! `tinyevm-crypto`. Counts, unlike host timings, do not move with machine
//! load, so the budget is exact.

use tinyevm::channel::ProtocolDriver;
use tinyevm::crypto::opcount::{snapshot, OpCounts};
use tinyevm::types::Wei;

/// What one two-party round may run on the host.
const ROUND_BUDGET: OpCounts = OpCounts {
    sign: 2,
    recover: 2,
    verify: 0,
    public_key: 0,
};

#[test]
fn a_two_party_round_runs_each_ecdsa_operation_once() {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth(10));
    driver.publish_template().unwrap();
    driver.open_channel().unwrap();
    for round in 1..=4u64 {
        let before = snapshot();
        let report = driver.pay(Wei::from(1_000 * round)).unwrap();
        assert_eq!(report.sequence, round);
        assert_eq!(
            snapshot().since(before),
            ROUND_BUDGET,
            "host crypto of round {round}"
        );
    }
}
