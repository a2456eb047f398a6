//! Layer replays: re-run one layer's public functions on the inputs a
//! session actually produced, each call inside its own span.
//!
//! A payment round needs two ECDSA signatures (the payer's payment, the
//! payee's acknowledgement over the same digest) and two recoveries, two
//! wire messages encoded and decoded, and both fragmented into frames and
//! reassembled. Replaying exactly that isolates each layer's host cost
//! from everything else the protocol step does.

use tinyevm_crypto::keccak256;
use tinyevm_crypto::secp256k1::{verify_batch, BatchItem, PrivateKey, Signature};
use tinyevm_net::{fragment, reassemble, NodeAddr};
use tinyevm_types::{Address, Wei, H256};
use tinyevm_wire::{Message, PaymentAck, SignedPayment};

use crate::catalog::Values;
use crate::spans::SpanLog;
use crate::stats::{median, ratio};

/// What one completed payment round carried, as recorded after the round.
#[derive(Debug, Clone)]
pub struct RoundInput {
    /// Round (operation) index in the session.
    pub op: u64,
    /// The channel's on-chain template.
    pub template: Address,
    /// Channel id.
    pub channel_id: u64,
    /// Payment sequence number.
    pub sequence: u64,
    /// Cumulative amount after the payment.
    pub cumulative: Wei,
    /// Hash of the sensor data that priced the payment.
    pub sensor_hash: H256,
    /// Paying node and its key.
    pub payer: (NodeAddr, PrivateKey),
    /// Paid node and its key.
    pub payee: (NodeAddr, PrivateKey),
    /// The acknowledgement signature the payer received in the session.
    pub recorded_ack: Option<Signature>,
}

/// Per-call host costs of the replayed layers.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// `crypto.sign` µs per call.
    pub sign_us: Vec<f64>,
    /// `crypto.recover` µs per call.
    pub recover_us: Vec<f64>,
    /// `wire.encode` µs per message.
    pub encode_us: Vec<f64>,
    /// `wire.decode` µs per message.
    pub decode_us: Vec<f64>,
    /// `net.fragment_reassemble` µs per message.
    pub fragment_us: Vec<f64>,
    /// Frames the replayed messages fragment into.
    pub frames: u64,
    /// Keccak replay time in ns.
    pub keccak_ns: f64,
    /// Bytes hashed by the keccak replay.
    pub keccak_bytes: u64,
    /// Replayed rounds.
    pub rounds: u64,
    /// Replays whose output disagreed with the session's.
    pub mismatches: u64,
}

impl LayerCosts {
    /// Host µs of the ECDSA work one round requires: 2 signs + 2 recovers.
    pub fn required_crypto_us(&self) -> f64 {
        2.0 * median(&self.sign_us) + 2.0 * median(&self.recover_us)
    }

    /// Host µs per round of the replayed wire and net work (2 messages).
    pub fn wire_net_us(&self) -> f64 {
        2.0 * (median(&self.encode_us) + median(&self.decode_us) + median(&self.fragment_us))
    }

    /// Keccak ns per byte.
    pub fn keccak_ns_per_byte(&self) -> f64 {
        ratio(self.keccak_ns, self.keccak_bytes as f64)
    }

    /// Sets the crypto, wire and net per-layer metrics; `op_us` is the
    /// host µs of the operation the required crypto is a share of.
    pub fn report(&self, op_us: f64, values: &mut Values) {
        values.set("crypto.sign_us_p50", median(&self.sign_us));
        values.set("crypto.recover_us_p50", median(&self.recover_us));
        values.set("crypto.required_us_per_op", self.required_crypto_us());
        values.set(
            "crypto.required_share",
            ratio(self.required_crypto_us(), op_us),
        );
        values.set("crypto.keccak_ns_per_byte", self.keccak_ns_per_byte());
        values.set("wire.encode_us_per_msg", median(&self.encode_us));
        values.set("wire.decode_us_per_msg", median(&self.decode_us));
        values.set(
            "net.fragment_reassemble_us_per_msg",
            median(&self.fragment_us),
        );
        values.set(
            "net.frames_per_op",
            ratio(self.frames as f64, self.rounds as f64),
        );
    }
}

/// Replays every round of `inputs`.
pub fn replay_rounds(log: &mut SpanLog, inputs: &[RoundInput]) -> LayerCosts {
    let mut costs = LayerCosts::default();
    for (index, input) in inputs.iter().enumerate() {
        let op = input.op;
        let digest = SignedPayment::payload_digest(
            input.template,
            input.channel_id,
            input.sequence,
            input.cumulative,
            input.sensor_hash,
        );
        let (payment_sig, us) = log.time("crypto.sign", None, op, || {
            input.payer.1.sign_prehashed(&digest)
        });
        costs.sign_us.push(us);
        let (ack_sig, us) = log.time("crypto.sign", None, op, || {
            input.payee.1.sign_prehashed(&digest)
        });
        costs.sign_us.push(us);
        for (signature, key) in [(&payment_sig, &input.payer.1), (&ack_sig, &input.payee.1)] {
            let (recovered, us) = log.time("crypto.recover", None, op, || {
                signature.recover_address(&digest)
            });
            costs.recover_us.push(us);
            if recovered.ok() != Some(key.eth_address()) {
                costs.mismatches += 1;
            }
        }
        if input.recorded_ack.is_some_and(|ack| ack != ack_sig) {
            costs.mismatches += 1;
        }

        let messages = [
            Message::Payment(SignedPayment {
                template: input.template,
                channel_id: input.channel_id,
                sequence: input.sequence,
                cumulative: input.cumulative,
                sensor_data_hash: input.sensor_hash,
                signature: payment_sig,
            }),
            Message::PaymentAck(PaymentAck {
                channel_id: input.channel_id,
                sequence: input.sequence,
                signature: ack_sig,
            }),
        ];
        for (message, (from, to)) in messages.iter().zip([
            (input.payer.0, input.payee.0),
            (input.payee.0, input.payer.0),
        ]) {
            let (bytes, us) = log.time("wire.encode", None, op, || message.to_wire());
            costs.encode_us.push(us);
            let (_, us) = log.time("crypto.keccak", None, op, || keccak256(&bytes));
            costs.keccak_ns += us * 1e3;
            costs.keccak_bytes += bytes.len() as u64;
            let (decoded, us) = log.time("wire.decode", None, op, || Message::from_wire(&bytes));
            costs.decode_us.push(us);
            if decoded.as_ref().ok() != Some(message) {
                costs.mismatches += 1;
            }
            let (frames, us) = log.time("net.fragment_reassemble", None, op, || {
                let frames = fragment(from, to, index as u32, &bytes).ok()?;
                let whole = reassemble(&frames).ok()?;
                Some((frames.len(), whole))
            });
            costs.fragment_us.push(us);
            match frames {
                Some((count, whole)) if whole == bytes => costs.frames += count as u64,
                _ => costs.mismatches += 1,
            }
        }
        costs.rounds += 1;
    }
    costs
}

/// Times one batched verification of `items` and returns µs per
/// signature, or `None` when the batch does not verify.
pub fn verify_batch_us_per_sig(log: &mut SpanLog, items: &[BatchItem]) -> Option<f64> {
    let (valid, us) = log.time("crypto.verify_batch", None, 0, || verify_batch(items));
    valid.then(|| ratio(us, items.len() as f64))
}

/// Evenly spaced sample of at most `limit` items, first and last kept.
pub fn spaced_sample<T: Clone>(items: &[T], limit: usize) -> Vec<T> {
    if items.len() <= limit {
        return items.to_vec();
    }
    (0..limit)
        .map(|i| items[i * (items.len() - 1) / (limit - 1).max(1)].clone())
        .collect()
}
