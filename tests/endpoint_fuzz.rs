//! Adversarial-peer fuzz suite for the sans-IO channel endpoints.
//!
//! Every property drives a real mid-session endpoint pair entirely through
//! the public sans-IO surface and then attacks one side with hostile wire
//! input: arbitrary bytes, truncated and bit-flipped encodings of genuine
//! messages, replays, and field-mutated protocol objects signed with both
//! the real key (a cheating counterparty) and foreign keys (an imposter).
//! The invariants, for every case:
//!
//! * endpoints never panic on peer-controlled data (no `unwrap` paths);
//! * a rejected input leaves the endpoint's committed state — channel
//!   sequence/cumulative, side-chain log, collected signatures — exactly
//!   as it was;
//! * a sender endpoint never signs for value its local intents did not
//!   authorize, no matter what the peer sends;
//! * out-of-order protocol steps are rejected with *typed*
//!   [`EndpointError`]s.
//!
//! Each property runs the proptest default of 256 cases.

use proptest::prelude::*;
use tinyevm::channel::endpoint::{ChannelEndpoint, ChannelRegistration, Effect, Envelope};
use tinyevm::channel::{ChannelError, EndpointError, NodeAddr, PaymentError, SignedPayment};
use tinyevm::crypto::opcount::{snapshot, OpCounts};
use tinyevm::crypto::secp256k1::PrivateKey;
use tinyevm::device::{Device, DeviceActivity};
use tinyevm::types::{Address, Wei, H256, U256};
use tinyevm::wire::{CloseRequest, Message, PaymentAck, SensorReading};

const CAR: NodeAddr = NodeAddr::new(0x51);
const LOT: NodeAddr = NodeAddr::new(0x52);
const DEPOSIT: u64 = 1_000_000;

/// Drives queued messages between the two endpoints until both go quiet.
fn pump(a: &mut ChannelEndpoint, b: &mut ChannelEndpoint) -> Vec<Effect> {
    let mut effects = Vec::new();
    loop {
        let (from, envelope) = if let Some(envelope) = a.poll_transmit() {
            (a.addr(), envelope)
        } else if let Some(envelope) = b.poll_transmit() {
            (b.addr(), envelope)
        } else {
            break;
        };
        let target = if envelope.to == a.addr() {
            &mut *a
        } else {
            &mut *b
        };
        effects.extend(
            target
                .handle_message(from, envelope.message)
                .expect("honest halves of the session stay valid"),
        );
    }
    effects
}

/// A genuine mid-session pair: channel open, `payments` rounds done.
fn session(payments: usize) -> (ChannelEndpoint, ChannelEndpoint) {
    let mut sender = ChannelEndpoint::two_party_sender("fuzz-car", CAR);
    let mut receiver = ChannelEndpoint::two_party_receiver("fuzz-lot", LOT);
    let registration = ChannelRegistration {
        template: Address::from_low_u64(0xAA),
        channel_id: 1,
        sender: sender.account(),
        receiver: receiver.account(),
        deposit_cap: Wei::from(DEPOSIT),
        anchor: H256::from_low_u64(0xA11C),
    };
    receiver.expect_channel(CAR, registration.clone()).unwrap();
    sender.open(LOT, registration).unwrap();
    pump(&mut sender, &mut receiver);
    for _ in 0..payments {
        sender.pay(LOT, Wei::from(5_000u64)).unwrap();
        pump(&mut sender, &mut receiver);
    }
    (sender, receiver)
}

/// The observable committed state of one endpoint's channel with `peer`.
fn committed_state(endpoint: &ChannelEndpoint, peer: NodeAddr) -> (u64, Wei, u64, usize, usize) {
    let channel = endpoint.channel(peer).expect("session exists");
    (
        channel.sequence(),
        channel.cumulative(),
        channel.payments_seen(),
        endpoint.side_chain(peer).map(|l| l.len()).unwrap_or(0),
        endpoint.peer_acks(peer).map(|a| a.len()).unwrap_or(0),
    )
}

/// A genuine payment wire encoding from the session, for mutation.
fn genuine_payment_wire(sender: &ChannelEndpoint, sequence: u64, cumulative: u64) -> Vec<u8> {
    let key = *sender.device().private_key();
    let registration = sender.registration(LOT).unwrap().clone();
    Message::Payment(SignedPayment::create(
        &key,
        registration.template,
        registration.channel_id,
        sequence,
        Wei::from(cumulative),
        H256::from_low_u64(0xFEED),
    ))
    .to_wire()
}

/// A payment for `sequence`/`cumulative` on the session's channel, signed
/// with `key`.
fn payment_signed_by(
    key: &PrivateKey,
    sender: &ChannelEndpoint,
    sequence: u64,
    cumulative: u64,
) -> SignedPayment {
    let registration = sender.registration(LOT).unwrap();
    SignedPayment::create(
        key,
        registration.template,
        registration.channel_id,
        sequence,
        Wei::from(cumulative),
        H256::from_low_u64(0xFEED),
    )
}

/// The host crypto `step` runs on this thread.
fn crypto_ops<T>(step: impl FnOnce() -> T) -> (T, OpCounts) {
    let before = snapshot();
    let result = step();
    (result, snapshot().since(before))
}

/// One recovery and nothing else: the cost of refusing a payment.
const ONE_RECOVERY: OpCounts = OpCounts {
    sign: 0,
    recover: 1,
    verify: 0,
    public_key: 0,
};

/// The payment a sender queues carries exactly the signature its device's
/// `sign_payload` produces over the payment's payload, and producing it
/// charged the device exactly what `sign_payload` charges: the same
/// activities, modeled time and per-state meter totals. One signature
/// serves the payment and the modeled charge.
#[test]
fn a_queued_payment_is_signed_and_charged_once_by_the_device() {
    let (mut sender, mut receiver) = session(1);
    sender.pay(LOT, Wei::from(5_000u64)).unwrap();
    let reading = sender.poll_transmit().expect("the sender's reading");
    receiver.handle_message(CAR, reading.message).unwrap();
    let reply = receiver.poll_transmit().expect("the receiver's reading");

    // The peer's reading is what makes the sender sign.
    let clock = sender.device().now();
    let logged = sender.device().activities().len();
    let report = sender.device().energy_report();
    let (_, ops) = crypto_ops(|| sender.handle_message(LOT, reply.message).unwrap());
    assert_eq!(
        ops,
        OpCounts {
            sign: 1,
            ..OpCounts::ZERO
        }
    );
    let device = sender.device();
    let elapsed = device.now() - clock;
    let charged: Vec<DeviceActivity> = device.activities()[logged..]
        .iter()
        .map(|activity| DeviceActivity {
            start: activity.start - clock,
            ..activity.clone()
        })
        .collect();
    let after = device.energy_report();
    // Transmitting charges the codec, so look at the payment only now.
    let Some(Envelope {
        message: Message::Payment(payment),
        ..
    }) = sender.poll_transmit()
    else {
        panic!("the sender queues its payment");
    };

    let mut reference = Device::openmote_b("fuzz-car");
    let (signature, sign_time) = reference.sign_payload(&payment.encode_payload());
    assert_eq!(payment.signature, signature);
    assert_eq!(elapsed, sign_time);
    assert_eq!(charged, reference.activities());
    for ((after, before), expected) in after
        .states
        .iter()
        .zip(&report.states)
        .zip(&reference.energy_report().states)
    {
        assert_eq!(
            after.time - before.time,
            expected.time,
            "{:?}",
            expected.state
        );
    }

    // The round completes, and its receipt reports the same sign time.
    receiver
        .handle_message(CAR, Message::Payment(payment))
        .unwrap();
    let receipt = pump(&mut sender, &mut receiver)
        .into_iter()
        .find_map(|effect| match effect {
            Effect::PaymentCompleted { receipt, .. } => Some(receipt),
            _ => None,
        })
        .expect("the round completes");
    assert_eq!(receipt.sign_time, sign_time);
}

/// A payment signed by the wrong key is refused after one recovery: the
/// channel head and side-chain log stay put and no ack is queued.
#[test]
fn a_payment_signed_by_the_wrong_key_is_refused() {
    let (sender, mut receiver) = session(2);
    let before = committed_state(&receiver, CAR);
    let imposter = PrivateKey::from_seed(b"imposter");
    let forged = payment_signed_by(&imposter, &sender, 3, 15_000);
    let (result, ops) = crypto_ops(|| receiver.handle_message(CAR, Message::Payment(forged)));
    assert!(matches!(result, Err(EndpointError::BadSignature)));
    assert_eq!(ops, ONE_RECOVERY);
    assert_eq!(committed_state(&receiver, CAR), before);
    assert!(receiver.poll_transmit().is_none(), "no ack for a forgery");
}

/// A retransmission of the head payment (same channel, sequence and
/// cumulative) signed by the wrong key is refused before the re-ack path:
/// no ack is queued and nothing moves.
#[test]
fn a_forged_head_retransmission_is_not_reacknowledged() {
    let (sender, mut receiver) = session(2);
    let before = committed_state(&receiver, CAR);
    let imposter = PrivateKey::from_seed(b"imposter");
    let forged = payment_signed_by(&imposter, &sender, 2, 10_000);
    let (result, ops) = crypto_ops(|| receiver.handle_message(CAR, Message::Payment(forged)));
    assert!(matches!(result, Err(EndpointError::BadSignature)));
    assert_eq!(ops, ONE_RECOVERY);
    assert_eq!(committed_state(&receiver, CAR), before);
    assert!(receiver.poll_transmit().is_none(), "no ack for a forgery");
}

/// A genuine retransmission of the head payment is re-acknowledged with
/// the receiver's signature over it, and no state moves.
#[test]
fn a_genuine_head_retransmission_is_reacknowledged() {
    let (sender, mut receiver) = session(2);
    let before = committed_state(&receiver, CAR);
    let head = payment_signed_by(sender.device().private_key(), &sender, 2, 10_000);
    let (effects, ops) = crypto_ops(|| {
        receiver
            .handle_message(CAR, Message::Payment(head.clone()))
            .unwrap()
    });
    assert!(effects.is_empty());
    assert_eq!(
        ops,
        OpCounts {
            sign: 1,
            ..ONE_RECOVERY
        }
    );
    assert_eq!(committed_state(&receiver, CAR), before);
    let Some(Envelope {
        to: CAR,
        message: Message::PaymentAck(ack),
    }) = receiver.poll_transmit()
    else {
        panic!("the head payment is re-acknowledged");
    };
    assert_eq!((ack.channel_id, ack.sequence), (1, 2));
    assert_eq!(
        ack.signature.recover_address(&head.digest()),
        Ok(receiver.account())
    );
    assert!(receiver.poll_transmit().is_none());
}

/// A close request with the real public key and the true closing state but
/// an unverifiable signature is only exposed by the batched check — and
/// must cost neither the honest channels nor the attacked one: the forged
/// request is dropped, honest closes stay staged for a retry, and the
/// attacked channel stays open until its sender re-closes honestly.
#[test]
fn a_forged_close_signature_cannot_block_the_fleet() {
    let gateway_addr = NodeAddr::new(0xFE);
    let mut gateway = ChannelEndpoint::gateway("fuzz-gateway", gateway_addr);
    let mut sensors: Vec<ChannelEndpoint> = (0..3)
        .map(|i| ChannelEndpoint::fleet_sensor(&format!("fuzz-sensor-{i}"), NodeAddr::new(i + 1)))
        .collect();
    for (index, sensor) in sensors.iter_mut().enumerate() {
        let registration = ChannelRegistration {
            template: Address::from_low_u64(0xAA00 + index as u64),
            channel_id: index as u64 + 1,
            sender: sensor.account(),
            receiver: gateway.account(),
            deposit_cap: Wei::from(DEPOSIT),
            anchor: H256::ZERO,
        };
        gateway
            .expect_channel(sensor.addr(), registration.clone())
            .unwrap();
        sensor.open(gateway_addr, registration).unwrap();
        pump(sensor, &mut gateway);
        sensor.pay(gateway_addr, Wei::from(1_000u64)).unwrap();
        pump(sensor, &mut gateway);
    }

    // Sensors 0 and 1 close honestly; sensor 2 is impersonated with a
    // garbage signature over its true closing state.
    for sensor in &mut sensors[..2] {
        sensor.close(gateway_addr).unwrap();
        pump(sensor, &mut gateway);
    }
    let forged_peer = sensors[2].addr();
    let forged_key = *sensors[2].device().private_key();
    let true_state = gateway.channel(forged_peer).unwrap().closing_state();
    let forged = CloseRequest {
        signature: forged_key.sign_prehashed(&[0x5a; 32]),
        public_key: forged_key.public_key(),
        state: true_state,
    };
    // Staging is structural only — it cannot afford a signature check per
    // message, that is what the batch is for.
    gateway
        .handle_message(forged_peer, Message::CloseRequest(forged))
        .unwrap();

    // The batch exposes the forgery; nothing closed, nothing lost.
    let error = gateway.finalize_closes().unwrap_err();
    assert!(matches!(error, EndpointError::BadSignature));
    use tinyevm::channel::ChannelStatus;
    for sensor in &sensors {
        assert_eq!(
            gateway.channel(sensor.addr()).unwrap().status(),
            ChannelStatus::Open,
            "no channel may close on an unverified batch"
        );
    }

    // Retry settles the two honest channels...
    let commits = gateway.finalize_closes().unwrap();
    assert_eq!(commits.len(), 2);
    // ...and the attacked sensor simply closes honestly afterwards.
    sensors[2].close(gateway_addr).unwrap();
    pump(&mut sensors[2], &mut gateway);
    let commits = gateway.finalize_closes().unwrap();
    assert!(commits.iter().any(|effect| matches!(
        effect,
        Effect::CommitReady { peer, envelope }
            if *peer == forged_peer && envelope.state.total_to_receiver == Wei::from(1_000u64)
    )));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte blobs (including valid-RLP prefixes) never panic an
    /// endpoint and never move committed channel state.
    #[test]
    fn arbitrary_bytes_never_panic_or_advance_state(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        to_receiver in any::<bool>(),
    ) {
        let (mut sender, mut receiver) = session(1);
        let endpoint = if to_receiver { &mut receiver } else { &mut sender };
        let peer = if to_receiver { CAR } else { LOT };
        let before = committed_state(endpoint, peer);
        let result = endpoint.handle_wire(peer, &bytes);
        prop_assert!(result.is_err(), "random bytes must not be a protocol step");
        prop_assert_eq!(committed_state(endpoint, peer), before);
    }

    /// Truncations and single-byte corruptions of a *genuine* payment are
    /// rejected without advancing the receiver, and the genuine round
    /// still lands afterwards — a corrupted delivery cannot wedge or
    /// double-apply the channel.
    #[test]
    fn corrupted_genuine_payments_are_rejected_cleanly(
        cut in 1usize..180,
        flip_at in 0usize..180,
        flip_with in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        let (mut sender, mut receiver) = session(1);
        // The next genuine payment (sequence 2), built from the same key.
        let wire = genuine_payment_wire(&sender, 2, 10_000);
        let mutated = if truncate {
            wire[..cut.min(wire.len() - 1)].to_vec()
        } else {
            let mut copy = wire.clone();
            let index = flip_at % copy.len();
            copy[index] ^= flip_with;
            copy
        };
        let before = committed_state(&receiver, CAR);
        match receiver.handle_wire(CAR, &mutated) {
            // Canonical RLP means any surviving decode covers the flipped
            // byte, so the signature check must have caught it.
            Ok(_) => prop_assert!(
                mutated == wire,
                "a mutated payment must never verify"
            ),
            Err(_) => prop_assert_eq!(committed_state(&receiver, CAR), before),
        }
        // The channel is not wedged: the real round still completes.
        sender.pay(LOT, Wei::from(5_000u64)).unwrap();
        let effects = pump(&mut sender, &mut receiver);
        prop_assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::PaymentCompleted { .. })));
    }

    /// Replays and out-of-order protocol steps get typed errors: a stale
    /// payment is `StaleSequence` (a verified duplicate of the head is the
    /// one exception — it is re-acknowledged idempotently, the
    /// retransmission-recovery path), an unsolicited ack is `OutOfOrder`,
    /// a payment aimed at a sender is `UnexpectedMessage`, and traffic
    /// from an unknown address is `UnknownPeer`.
    #[test]
    fn replays_and_out_of_order_steps_get_typed_errors(
        replay_sequence in 1u64..=2,
        stranger in 0x60u16..0xF0,
    ) {
        let (mut sender, mut receiver) = session(2);
        let before = committed_state(&receiver, CAR);

        // Replay: a payment the receiver has already applied.
        let replay = genuine_payment_wire(&sender, replay_sequence, replay_sequence * 5_000);
        if replay_sequence < 2 {
            let error = receiver.handle_wire(CAR, &replay).unwrap_err();
            prop_assert!(matches!(
                error,
                EndpointError::Channel(ChannelError::Payment(PaymentError::StaleSequence { .. }))
            ));
        } else {
            // The head itself: indistinguishable from a retransmission
            // whose ack was lost, so the receiver re-acks without
            // re-applying anything.
            let effects = receiver.handle_wire(CAR, &replay).unwrap();
            prop_assert!(effects.is_empty());
            prop_assert!(
                receiver.poll_transmit().is_some(),
                "a duplicate of the head payment is re-acknowledged"
            );
        }

        // Unsolicited acknowledgement: no payment is in flight.
        let key = *receiver.device().private_key();
        let forged_ack = Message::PaymentAck(PaymentAck {
            channel_id: 1,
            sequence: 3,
            signature: key.sign_prehashed(&[7u8; 32]),
        });
        let error = sender.handle_message(LOT, forged_ack).unwrap_err();
        prop_assert!(matches!(error, EndpointError::OutOfOrder(_)));

        // Role confusion: a payment sent *to the payer*.
        let payment = genuine_payment_wire(&sender, 3, 15_000);
        let error = sender.handle_wire(LOT, &payment).unwrap_err();
        prop_assert!(matches!(error, EndpointError::UnexpectedMessage { .. }));

        // Unknown link-layer address.
        let error = receiver
            .handle_wire(NodeAddr::new(stranger), &payment)
            .unwrap_err();
        prop_assert!(matches!(error, EndpointError::UnknownPeer(_)));

        // Snapshots are persistence artifacts, not protocol steps.
        let snapshot = sender.snapshot(LOT).unwrap();
        let error = receiver
            .handle_message(CAR, Message::ChannelSnapshot(snapshot))
            .unwrap_err();
        prop_assert!(matches!(error, EndpointError::UnexpectedMessage { .. }));

        prop_assert_eq!(committed_state(&receiver, CAR), before);
    }

    /// Field-mutated payments signed with the *real* key (a cheating
    /// payer) and with foreign keys (an imposter) are all rejected with
    /// typed errors, and the receiver's state never moves.
    #[test]
    fn mutated_payment_fields_cannot_cheat_the_receiver(
        sequence in 0u64..6,
        cumulative in any::<u64>(),
        wrong_template in any::<bool>(),
        wrong_channel in any::<u64>(),
        imposter_seed in any::<u64>(),
        use_imposter in any::<bool>(),
    ) {
        let (sender, mut receiver) = session(2);
        let registration = sender.registration(LOT).unwrap().clone();
        let key = if use_imposter {
            PrivateKey::from_seed(&imposter_seed.to_be_bytes())
        } else {
            *sender.device().private_key()
        };
        let template = if wrong_template {
            Address::from_low_u64(0xBB)
        } else {
            registration.template
        };
        let channel_id = if wrong_channel % 4 == 0 {
            wrong_channel
        } else {
            registration.channel_id
        };
        let payment = SignedPayment::create(
            &key,
            template,
            channel_id,
            sequence,
            Wei::from(cumulative),
            H256::from_low_u64(0xFEED),
        );
        // Any strictly advancing sequence with a non-shrinking, in-cap
        // cumulative signed by the real key is a legal next payment.
        let honest_next = !use_imposter
            && !wrong_template
            && channel_id == registration.channel_id
            && sequence > 2
            && (10_000..=DEPOSIT).contains(&cumulative);
        let before = committed_state(&receiver, CAR);
        match receiver.handle_message(CAR, Message::Payment(payment)) {
            Ok(effects) => {
                // Only the exactly-valid next payment may be accepted.
                prop_assert!(honest_next, "invalid payment accepted");
                prop_assert!(effects
                    .iter()
                    .any(|e| matches!(e, Effect::PaymentAccepted { .. })));
            }
            Err(error) => {
                prop_assert!(matches!(
                    error,
                    EndpointError::Channel(_) | EndpointError::BadSignature
                ));
                prop_assert_eq!(committed_state(&receiver, CAR), before);
            }
        }
    }

    /// No adversarial receiver traffic can make a sender endpoint sign for
    /// value its local intents did not authorize: across any interleaving
    /// of hostile messages and honest pay intents, every payment the
    /// sender emits stays within the authorized cumulative total, and
    /// forged acknowledgements are never collected.
    #[test]
    fn sender_never_signs_unauthorized_value(
        script in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let (mut sender, receiver) = session(0);
        let lot_key = *receiver.device().private_key();
        let mut authorized = 0u64;
        let mut emitted: Vec<SignedPayment> = Vec::new();
        for step in script {
            let (action, value) = ((step % 4) as u8, step / 4);
            match action {
                // An honest pay intent (the only authorization there is).
                0 => {
                    let amount = value % 10_000 + 1;
                    if sender.pay(LOT, Wei::from(amount)).is_ok() {
                        authorized += amount;
                        // Adversarial receiver: answer the reading with an
                        // arbitrary value, then swallow the payment
                        // without acknowledging it.
                        while let Some(envelope) = sender.poll_transmit() {
                            match &envelope.message {
                                Message::Payment(payment) => emitted.push(payment.clone()),
                                Message::SensorReading(_) => {
                                    let _ = sender.handle_message(
                                        LOT,
                                        Message::SensorReading(SensorReading {
                                            peripheral: 1,
                                            value: U256::from(value),
                                        }),
                                    );
                                }
                                _ => {}
                            }
                        }
                    }
                }
                // Forged ack for an arbitrary sequence.
                1 => {
                    let mut digest = [0u8; 32];
                    digest[..8].copy_from_slice(&value.to_be_bytes());
                    let _ = sender.handle_message(
                        LOT,
                        Message::PaymentAck(PaymentAck {
                            channel_id: value % 3,
                            sequence: value % 7,
                            signature: lot_key.sign_prehashed(&digest),
                        }),
                    );
                }
                // Unsolicited sensor reading.
                2 => {
                    let _ = sender.handle_message(
                        LOT,
                        Message::SensorReading(SensorReading {
                            peripheral: value % 5,
                            value: U256::from(value),
                        }),
                    );
                }
                // A close request aimed at the sender (wrong role).
                _ => {
                    let state = sender.channel(LOT).unwrap().closing_state();
                    let error = sender
                        .handle_message(
                            LOT,
                            Message::CloseRequest(CloseRequest {
                                signature: lot_key.sign_prehashed(&state.digest()),
                                public_key: lot_key.public_key(),
                                state,
                            }),
                        )
                        .unwrap_err();
                    prop_assert!(matches!(error, EndpointError::UnexpectedMessage { .. }));
                }
            }
        }
        // Every signed artifact the sender produced stays within what the
        // local intents authorized (and the deposit cap).
        for payment in &emitted {
            prop_assert!(payment.cumulative <= Wei::from(authorized));
            prop_assert!(payment.cumulative <= Wei::from(DEPOSIT));
        }
        let channel = sender.channel(LOT).unwrap();
        prop_assert!(channel.cumulative() <= Wei::from(authorized));
        // Forged acks never entered the collected set: each collected ack
        // must be the lot's signature over an emitted payment's payload.
        let lot_account = receiver.account();
        for ack in sender.peer_acks(LOT).unwrap_or(&[]) {
            prop_assert!(emitted.iter().any(|payment| {
                ack.recover_address(&tinyevm::crypto::keccak256(&payment.encode_payload()))
                    .ok()
                    == Some(lot_account)
            }));
        }
    }

    /// An adversarial close request cannot settle for a different amount:
    /// any deviation from the receiver's own channel view, or a
    /// signature/public-key that does not belong to the configured sender,
    /// is rejected with a typed error and the channel stays open for the
    /// honest close.
    #[test]
    fn forged_close_requests_cannot_move_settlement(
        amount_delta in 1u64..DEPOSIT,
        mutate_amount in any::<bool>(),
        imposter_seed in any::<u64>(),
    ) {
        let (sender, mut receiver) = session(1);
        let sender_key = *sender.device().private_key();
        let use_imposter = !mutate_amount;
        let mut state = receiver.channel(CAR).unwrap().closing_state();
        if mutate_amount {
            state.total_to_receiver = Wei::from(
                state.total_to_receiver.amount().low_u64().wrapping_add(amount_delta),
            );
        }
        let key = if use_imposter {
            PrivateKey::from_seed(&imposter_seed.to_le_bytes())
        } else {
            sender_key
        };
        let request = CloseRequest {
            signature: key.sign_prehashed(&state.digest()),
            public_key: key.public_key(),
            state,
        };
        let error = receiver
            .handle_message(CAR, Message::CloseRequest(request))
            .unwrap_err();
        prop_assert!(matches!(
            error,
            EndpointError::ProposalMismatch(_) | EndpointError::BadSignature
        ));
        // Channel still open: the honest close settles the true amount.
        let honest_state = receiver.channel(CAR).unwrap().closing_state();
        let honest = CloseRequest {
            signature: sender_key.sign_prehashed(&honest_state.digest()),
            public_key: sender_key.public_key(),
            state: honest_state,
        };
        receiver
            .handle_message(CAR, Message::CloseRequest(honest))
            .unwrap();
        let commits = receiver.finalize_closes().unwrap();
        prop_assert!(commits.iter().any(|effect| matches!(
            effect,
            Effect::CommitReady { envelope, .. }
                if envelope.state.total_to_receiver == Wei::from(5_000u64)
        )));
    }
}
