//! Deterministic fault injection for links and the shared medium.
//!
//! A [`FaultPlan`] composes onto a [`crate::Link`] (and, per attached
//! endpoint, onto a [`crate::SharedMedium`]) and disturbs transfers with
//! failure modes beyond independent frame loss:
//!
//! * **Corruption** — 1–3 bit flips in a frame's on-air byte form. A
//!   corrupted frame either fails to parse (and behaves like a lost frame,
//!   consuming a retry) or parses into a damaged frame whose payload the
//!   upper layers reject with typed errors.
//! * **Duplication** — an extra copy of a frame goes on the air and is
//!   dropped by the receiver's reassembly filter; the energy and airtime
//!   are still paid.
//! * **Reordering** — a multi-frame message's fragments arrive rotated;
//!   reassembly is order-independent, so this exercises that property.
//! * **Replay** — the previously delivered message on the same direction is
//!   delivered *instead of* the current one, exercising the endpoints'
//!   duplicate-suppression and retransmission machinery.
//! * **Delay windows** — messages inside a link-local index window take
//!   extra time on both radios.
//! * **Partitions** — messages inside a window are refused outright with
//!   [`crate::LinkError::Partitioned`].
//!
//! The plan draws from its **own** seeded RNG, separate from the loss
//! process, so attaching a plan never perturbs the loss pattern of the
//! underlying link — and a plan whose rates are all zero and whose windows
//! are absent draws nothing at all, keeping fault-free runs byte-identical.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::NodeAddr;
use crate::link::LinkError;

/// A half-open window `[from_message, to_message)` of link-local message
/// indices (the link's transfer counter, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageWindow {
    /// First message index the window covers.
    pub from_message: u64,
    /// First message index past the window.
    pub to_message: u64,
}

impl MessageWindow {
    /// Whether `index` falls inside the window.
    pub fn contains(&self, index: u64) -> bool {
        index >= self.from_message && index < self.to_message
    }
}

/// An extra-latency window: messages inside `window` take `extra` longer on
/// both radios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayWindow {
    /// The message-index window the delay covers.
    pub window: MessageWindow,
    /// Extra time added to the transfer, both sides.
    pub extra: Duration,
}

/// Configuration of a [`FaultPlan`]. All rates are independent per-draw
/// probabilities in `[0, 1)`; a rate of exactly `0.0` never touches the
/// RNG, and the windows are deterministic (no RNG at all).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-frame probability of 1–3 bit flips in the on-air bytes.
    pub corrupt_rate: f64,
    /// Per-frame probability of an extra on-air copy (dropped at RX).
    pub duplicate_rate: f64,
    /// Per-message probability of delivering a multi-frame message's
    /// fragments rotated out of order.
    pub reorder_rate: f64,
    /// Per-message probability of replaying the previously delivered
    /// message on the same direction instead of the current one.
    pub replay_rate: f64,
    /// Optional extra-latency window.
    pub delay: Option<DelayWindow>,
    /// Optional partition window; transfers inside it fail with
    /// [`LinkError::Partitioned`].
    pub partition: Option<MessageWindow>,
    /// Seed of the plan's own RNG (separate from the loss process).
    pub seed: u64,
}

impl FaultConfig {
    /// A plan that injects nothing: all rates zero, no windows. Useful as a
    /// base for struct-update syntax.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            replay_rate: 0.0,
            delay: None,
            partition: None,
            seed,
        }
    }

    /// Checks every rate for values the samplers cannot work with.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::InvalidFaultRate`] naming the first rate that
    /// is NaN or outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), LinkError> {
        let rates = [
            ("corrupt_rate", self.corrupt_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("reorder_rate", self.reorder_rate),
            ("replay_rate", self.replay_rate),
        ];
        for (fault, rate) in rates {
            if rate.is_nan() || !(0.0..1.0).contains(&rate) {
                return Err(LinkError::InvalidFaultRate { fault, rate });
            }
        }
        Ok(())
    }
}

/// A seeded, per-link fault schedule. Construct through
/// [`FaultPlan::new`] and install with `Link::set_faults` or
/// `SharedMedium::set_faults`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: StdRng,
    messages: u64,
    delivered: BTreeMap<(NodeAddr, NodeAddr), Vec<u8>>,
}

impl FaultPlan {
    /// Builds a plan from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::InvalidFaultRate`] for a rate that is NaN or
    /// outside `[0, 1)`.
    pub fn new(config: FaultConfig) -> Result<Self, LinkError> {
        config.validate()?;
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(FaultPlan {
            config,
            rng,
            messages: 0,
            delivered: BTreeMap::new(),
        })
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Messages this plan has inspected so far (its window clock).
    pub fn messages_seen(&self) -> u64 {
        self.messages
    }

    /// Claims the next message index (advancing the window clock).
    pub(crate) fn next_message(&mut self) -> u64 {
        let index = self.messages;
        self.messages += 1;
        index
    }

    /// Whether the partition window swallows message `index`.
    pub(crate) fn partitioned(&self, index: u64) -> bool {
        self.config
            .partition
            .is_some_and(|window| window.contains(index))
    }

    /// Extra latency the delay window adds to message `index`.
    pub(crate) fn delay_for(&self, index: u64) -> Option<Duration> {
        self.config
            .delay
            .filter(|delay| delay.window.contains(index))
            .map(|delay| delay.extra)
    }

    fn draw(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_bool(rate)
    }

    pub(crate) fn draw_corrupt(&mut self) -> bool {
        self.draw(self.config.corrupt_rate)
    }

    pub(crate) fn draw_duplicate(&mut self) -> bool {
        self.draw(self.config.duplicate_rate)
    }

    pub(crate) fn draw_reorder(&mut self) -> bool {
        self.draw(self.config.reorder_rate)
    }

    pub(crate) fn draw_replay(&mut self) -> bool {
        self.draw(self.config.replay_rate)
    }

    /// Flips 1–3 bits of `bytes` in place (no-op on an empty slice).
    pub(crate) fn flip_bits(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let flips = self.rng.gen_range(1..=3u32);
        for _ in 0..flips {
            let bit = self.rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// The payload most recently delivered from `source` to `destination`,
    /// if any — what a replay puts back on the air.
    pub(crate) fn stale_payload(&self, source: NodeAddr, destination: NodeAddr) -> Option<Vec<u8>> {
        self.delivered.get(&(source, destination)).cloned()
    }

    /// Records what the receiver actually saw on this direction.
    pub(crate) fn record_delivery(
        &mut self,
        source: NodeAddr,
        destination: NodeAddr,
        payload: &[u8],
    ) {
        self.delivered
            .insert((source, destination), payload.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let window = MessageWindow {
            from_message: 2,
            to_message: 5,
        };
        assert!(!window.contains(1));
        assert!(window.contains(2));
        assert!(window.contains(4));
        assert!(!window.contains(5));
    }

    #[test]
    fn invalid_rates_are_rejected_by_name() {
        for (field, config) in [
            (
                "corrupt_rate",
                FaultConfig {
                    corrupt_rate: f64::NAN,
                    ..FaultConfig::quiet(1)
                },
            ),
            (
                "duplicate_rate",
                FaultConfig {
                    duplicate_rate: 1.0,
                    ..FaultConfig::quiet(1)
                },
            ),
            (
                "reorder_rate",
                FaultConfig {
                    reorder_rate: -0.2,
                    ..FaultConfig::quiet(1)
                },
            ),
            (
                "replay_rate",
                FaultConfig {
                    replay_rate: f64::INFINITY,
                    ..FaultConfig::quiet(1)
                },
            ),
        ] {
            match FaultPlan::new(config) {
                Err(LinkError::InvalidFaultRate { fault, .. }) => assert_eq!(fault, field),
                other => panic!("expected InvalidFaultRate for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn quiet_plan_never_touches_its_rng() {
        let mut quiet = FaultPlan::new(FaultConfig::quiet(7)).unwrap();
        for _ in 0..64 {
            assert!(!quiet.draw_corrupt());
            assert!(!quiet.draw_duplicate());
            assert!(!quiet.draw_reorder());
            assert!(!quiet.draw_replay());
        }
        // After all those zero-rate draws the RNG stream must still sit at
        // its origin: enabling a rate now replays a fresh plan's sequence.
        quiet.config.corrupt_rate = 0.5;
        let mut fresh = FaultPlan::new(FaultConfig {
            corrupt_rate: 0.5,
            ..FaultConfig::quiet(7)
        })
        .unwrap();
        let resumed: Vec<bool> = (0..32).map(|_| quiet.draw_corrupt()).collect();
        let reference: Vec<bool> = (0..32).map(|_| fresh.draw_corrupt()).collect();
        assert_eq!(resumed, reference);
    }

    #[test]
    fn bit_flips_change_one_to_three_bits() {
        let mut plan = FaultPlan::new(FaultConfig {
            corrupt_rate: 0.5,
            ..FaultConfig::quiet(3)
        })
        .unwrap();
        for _ in 0..32 {
            let original = vec![0u8; 64];
            let mut corrupted = original.clone();
            plan.flip_bits(&mut corrupted);
            let flipped: u32 = original
                .iter()
                .zip(&corrupted)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert!((1..=3).contains(&flipped), "{flipped} bits flipped");
        }
        // Empty slices are left alone instead of panicking.
        plan.flip_bits(&mut []);
    }

    #[test]
    fn replay_store_is_per_direction() {
        let (a, b) = (NodeAddr::new(1), NodeAddr::new(2));
        let mut plan = FaultPlan::new(FaultConfig::quiet(1)).unwrap();
        assert!(plan.stale_payload(a, b).is_none());
        plan.record_delivery(a, b, b"up");
        plan.record_delivery(b, a, b"down");
        assert_eq!(plan.stale_payload(a, b).unwrap(), b"up");
        assert_eq!(plan.stale_payload(b, a).unwrap(), b"down");
    }
}
