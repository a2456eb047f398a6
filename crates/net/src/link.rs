//! The point-to-point link model.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinyevm_trace::{TraceEvent, TraceHandle};

use crate::addr::NodeAddr;
use crate::fault::{FaultConfig, FaultPlan};
use crate::frame::{fragment, reassemble, wire_bytes_for_message, Frame, FrameError};

/// Built-in link profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkProfile {
    /// IEEE 802.15.4 / TSCH as used by the paper's prototype: 250 kbit/s,
    /// 2 ms per-frame overhead (slot alignment).
    Tsch,
    /// Bluetooth Low Energy 1M PHY: 1 Mbit/s, shorter per-frame overhead.
    Ble,
}

/// Configuration of a [`Link`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Payload bit rate in bits per second.
    pub bitrate: u64,
    /// Fixed per-frame overhead (synchronisation, inter-frame spacing).
    pub frame_overhead: Duration,
    /// Independent per-frame loss probability in `[0, 1)`.
    pub loss_rate: f64,
    /// How many times a lost frame is retransmitted before the transfer is
    /// declared failed.
    pub max_retries: u32,
    /// Seed for the loss process, so experiments are reproducible.
    pub seed: u64,
}

impl LinkConfig {
    /// A lossless link with the given profile.
    pub fn lossless(profile: LinkProfile) -> Self {
        match profile {
            LinkProfile::Tsch => LinkConfig {
                bitrate: 250_000,
                frame_overhead: Duration::from_millis(2),
                loss_rate: 0.0,
                max_retries: 3,
                seed: 1,
            },
            LinkProfile::Ble => LinkConfig {
                bitrate: 1_000_000,
                frame_overhead: Duration::from_micros(500),
                loss_rate: 0.0,
                max_retries: 3,
                seed: 1,
            },
        }
    }

    /// Returns a copy with the given loss rate.
    ///
    /// # Panics
    ///
    /// Panics when `loss_rate` is NaN or outside `[0, 1)` — the same
    /// validation [`Link::new`] applies, surfaced at the point the bad
    /// value is introduced.
    pub fn with_loss(mut self, loss_rate: f64, seed: u64) -> Self {
        self.loss_rate = loss_rate;
        self.seed = seed;
        if let Err(error) = self.validate() {
            panic!("invalid link configuration: {error}");
        }
        self
    }

    /// Checks the configuration for values the loss process cannot work
    /// with.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::InvalidLossRate`] when `loss_rate` is NaN or
    /// outside `[0, 1)` (a rate of exactly 1 would make every transfer
    /// spin through its retries and fail; NaN would panic inside the
    /// Bernoulli sampler mid-transfer).
    pub fn validate(&self) -> Result<(), LinkError> {
        if self.loss_rate.is_nan() || !(0.0..1.0).contains(&self.loss_rate) {
            return Err(LinkError::InvalidLossRate {
                loss_rate: self.loss_rate,
            });
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::lossless(LinkProfile::Tsch)
    }
}

/// Errors a transfer can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// A frame exceeded its retry budget.
    FrameLost {
        /// Index of the fragment that could not be delivered.
        fragment_index: u16,
        /// Retries that were attempted.
        retries: u32,
    },
    /// Reassembly on the receiving side failed.
    Reassembly(FrameError),
    /// A frame could not be serialized to (or parsed from) its byte form,
    /// or the message was too large to fragment at all.
    Frame(FrameError),
    /// The configured loss rate is NaN or outside `[0, 1)`.
    InvalidLossRate {
        /// The rejected value.
        loss_rate: f64,
    },
    /// A fault plan's partition window swallowed the whole transfer.
    Partitioned {
        /// Link-local id of the refused message.
        message_id: u32,
    },
    /// A fault-plan rate is NaN or outside `[0, 1)`.
    InvalidFaultRate {
        /// Which rate was rejected (its `FaultConfig` field name).
        fault: &'static str,
        /// The rejected value.
        rate: f64,
    },
}

impl core::fmt::Display for LinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkError::FrameLost {
                fragment_index,
                retries,
            } => write!(
                f,
                "fragment {fragment_index} lost after {retries} retransmissions"
            ),
            LinkError::Reassembly(error) => write!(f, "reassembly failed: {error}"),
            LinkError::Frame(error) => write!(f, "frame serialization failed: {error}"),
            LinkError::InvalidLossRate { loss_rate } => {
                write!(f, "loss rate {loss_rate} is not in [0, 1)")
            }
            LinkError::Partitioned { message_id } => {
                write!(f, "message {message_id} dropped by a partition window")
            }
            LinkError::InvalidFaultRate { fault, rate } => {
                write!(f, "fault rate {fault} = {rate} is not in [0, 1)")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Statistics of one message transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferReport {
    /// Application payload bytes carried.
    pub payload_bytes: usize,
    /// Total bytes that went on the air, headers and retransmissions
    /// included.
    pub wire_bytes: usize,
    /// Number of frames the message was split into.
    pub frames: usize,
    /// Number of retransmitted frames.
    pub retransmissions: u32,
    /// Time the sender's radio was transmitting.
    pub tx_time: Duration,
    /// Time the receiver's radio was receiving.
    pub rx_time: Duration,
}

impl TransferReport {
    /// End-to-end latency of the transfer (the slower of the two sides plus
    /// nothing else — propagation delay is negligible at these ranges).
    pub fn latency(&self) -> Duration {
        self.tx_time.max(self.rx_time)
    }
}

/// A point-to-point link between two addressed nodes.
///
/// The link moves bytes and reports timing; charging the TX/RX energy to
/// each endpoint's meter is the caller's job (see
/// `tinyevm_device::Device::account_radio`). Every frame that crosses the
/// link carries the endpoints' [`NodeAddr`]es in its header:
/// [`Link::transfer`] moves local → peer, [`Link::transfer_reverse`] moves
/// peer → local.
///
/// # Example
///
/// ```
/// use tinyevm_net::{Link, LinkConfig, LinkProfile, NodeAddr};
///
/// let mut link = Link::between(
///     NodeAddr::new(0x51),
///     NodeAddr::new(0x52),
///     LinkConfig::lossless(LinkProfile::Tsch),
/// );
/// let (delivered, report) = link.transfer(b"signed payment").unwrap();
/// assert_eq!(delivered, b"signed payment");
/// assert_eq!(report.frames, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    local: NodeAddr,
    peer: NodeAddr,
    config: LinkConfig,
    rng: StdRng,
    faults: Option<FaultPlan>,
    next_message_id: u32,
    total_wire_bytes: u64,
    total_messages: u64,
    tracer: TraceHandle,
}

impl Link {
    /// Creates a link between two explicitly addressed endpoints.
    ///
    /// # Panics
    ///
    /// Panics when the configuration does not pass
    /// [`LinkConfig::validate`]; use [`Link::try_between`] to handle the
    /// error instead.
    pub fn between(local: NodeAddr, peer: NodeAddr, config: LinkConfig) -> Self {
        match Link::try_between(local, peer, config) {
            Ok(link) => link,
            Err(error) => panic!("invalid link configuration: {error}"),
        }
    }

    /// Creates a link between two addressed endpoints, validating the
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::InvalidLossRate`] when the loss rate is NaN or
    /// outside `[0, 1)`.
    pub fn try_between(
        local: NodeAddr,
        peer: NodeAddr,
        config: LinkConfig,
    ) -> Result<Self, LinkError> {
        config.validate()?;
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Link {
            local,
            peer,
            config,
            rng,
            faults: None,
            next_message_id: 0,
            total_wire_bytes: 0,
            total_messages: 0,
            tracer: TraceHandle::default(),
        })
    }

    /// Attaches a tracer: every frame put on the air publishes a
    /// [`TraceEvent::FrameTx`] (retransmissions included) and every frame
    /// the loss process drops publishes a [`TraceEvent::FrameLost`]. The
    /// default handle is a no-op.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Creates a link with the given configuration between a default pair
    /// of addresses (local = 1, peer = 2) — a convenience for single-pair
    /// setups; multi-node topologies should use [`Link::between`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration does not pass
    /// [`LinkConfig::validate`].
    pub fn new(config: LinkConfig) -> Self {
        Link::between(NodeAddr::new(1), NodeAddr::new(2), config)
    }

    /// Installs a seeded fault plan; subsequent transfers are disturbed
    /// according to its rates and windows. The plan draws from its own RNG,
    /// so the loss process is unperturbed.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::InvalidFaultRate`] for a rate that is NaN or
    /// outside `[0, 1)`.
    pub fn set_faults(&mut self, config: FaultConfig) -> Result<(), LinkError> {
        self.faults = Some(FaultPlan::new(config)?);
        Ok(())
    }

    /// Removes any installed fault plan; subsequent transfers see only the
    /// configured loss process.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Address of the local endpoint (the one [`Link::transfer`] sends
    /// from).
    pub fn local(&self) -> NodeAddr {
        self.local
    }

    /// Address of the peer endpoint.
    pub fn peer(&self) -> NodeAddr {
        self.peer
    }

    /// Total bytes this link has put on the air.
    pub fn total_wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// Total messages transferred.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Time on air for `bytes` at the configured bit rate plus the per-frame
    /// overhead.
    pub fn airtime(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.config.bitrate as f64)
            + self.config.frame_overhead
    }

    /// Transfers a message from the local endpoint to the peer, returning
    /// the delivered bytes and the report.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Frame`] (carrying
    /// [`FrameError::MessageTooLarge`]) up front — before anything goes on
    /// the air — for messages past [`crate::MAX_MESSAGE_SIZE`], and
    /// [`LinkError::FrameLost`] when a fragment exceeds its retry budget
    /// under the configured loss rate.
    pub fn transfer(&mut self, message: &[u8]) -> Result<(Vec<u8>, TransferReport), LinkError> {
        self.transfer_between(self.local, self.peer, message)
    }

    /// Transfers a message in the reverse direction, from the peer back to
    /// the local endpoint (e.g. an acknowledgement), with the frame headers
    /// addressed accordingly.
    ///
    /// # Errors
    ///
    /// Same as [`Link::transfer`].
    pub fn transfer_reverse(
        &mut self,
        message: &[u8],
    ) -> Result<(Vec<u8>, TransferReport), LinkError> {
        self.transfer_between(self.peer, self.local, message)
    }

    fn transfer_between(
        &mut self,
        source: NodeAddr,
        destination: NodeAddr,
        message: &[u8],
    ) -> Result<(Vec<u8>, TransferReport), LinkError> {
        let message_id = self.next_message_id;
        self.next_message_id = self.next_message_id.wrapping_add(1);
        // The fault plan's window clock ticks once per transfer attempt,
        // partitioned or not.
        let fault_index = self.faults.as_mut().map(FaultPlan::next_message);
        if let (Some(plan), Some(index)) = (self.faults.as_ref(), fault_index) {
            if plan.partitioned(index) {
                self.tracer.event(|| TraceEvent::Fault {
                    from: source.to_string(),
                    to: destination.to_string(),
                    fault: "partition".to_string(),
                    message_id: u64::from(message_id),
                });
                self.tracer.count("net.messages_partitioned", 1);
                return Err(LinkError::Partitioned { message_id });
            }
        }
        let frames =
            fragment(source, destination, message_id, message).map_err(LinkError::Frame)?;

        let mut delivered: Vec<Frame> = Vec::with_capacity(frames.len());
        let mut retransmissions = 0u32;
        let mut tx_time = Duration::ZERO;
        let mut rx_time = Duration::ZERO;
        let mut wire_bytes = 0usize;

        for frame in &frames {
            // What actually crosses the air is the frame's byte form; the
            // receiving side parses it back. This keeps every reported
            // wire byte literal, not an estimate.
            let encoded = frame.to_bytes().map_err(LinkError::Frame)?;
            debug_assert_eq!(encoded.len(), frame.wire_size());
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                let on_air = self.airtime(encoded.len());
                tx_time += on_air;
                wire_bytes += encoded.len();
                // The loss rate is validated at construction (NaN and
                // values outside [0, 1) never reach this sampler), so no
                // per-call clamp is needed.
                let lost = self.config.loss_rate > 0.0 && self.rng.gen_bool(self.config.loss_rate);
                self.tracer.event(|| TraceEvent::FrameTx {
                    from: source.to_string(),
                    to: destination.to_string(),
                    bytes: encoded.len() as u64,
                    airtime_us: on_air.as_micros() as u64,
                    retransmission: attempts > 1,
                });
                self.tracer.count("net.frames_tx", 1);
                if attempts > 1 {
                    self.tracer.count("net.retransmissions", 1);
                }
                if lost {
                    self.tracer.event(|| TraceEvent::FrameLost {
                        from: source.to_string(),
                        to: destination.to_string(),
                        bytes: encoded.len() as u64,
                    });
                    self.tracer.count("net.frames_lost", 1);
                }
                if !lost {
                    // The receiver's radio heard *something* either way; a
                    // frame damaged beyond parsing behaves like a lost one
                    // (and consumes a retry below).
                    rx_time += on_air;
                    let received = match self.faults.as_mut() {
                        None => Some(Frame::from_bytes(&encoded).map_err(LinkError::Frame)?),
                        Some(plan) => {
                            if plan.draw_duplicate() {
                                // An extra copy goes on the air; the
                                // receiver recognises and drops it, but both
                                // radios pay for it.
                                tx_time += on_air;
                                rx_time += on_air;
                                wire_bytes += encoded.len();
                                self.tracer.event(|| TraceEvent::Fault {
                                    from: source.to_string(),
                                    to: destination.to_string(),
                                    fault: "duplicate".to_string(),
                                    message_id: u64::from(message_id),
                                });
                                self.tracer.count("net.frames_duplicated", 1);
                            }
                            if plan.draw_corrupt() {
                                let mut damaged = encoded.clone();
                                plan.flip_bits(&mut damaged);
                                self.tracer.event(|| TraceEvent::Fault {
                                    from: source.to_string(),
                                    to: destination.to_string(),
                                    fault: "corrupt".to_string(),
                                    message_id: u64::from(message_id),
                                });
                                self.tracer.count("net.frames_corrupted", 1);
                                Frame::from_bytes(&damaged).ok()
                            } else {
                                Some(Frame::from_bytes(&encoded).map_err(LinkError::Frame)?)
                            }
                        }
                    };
                    if let Some(frame) = received {
                        delivered.push(frame);
                        break;
                    }
                }
                if attempts > self.config.max_retries {
                    return Err(LinkError::FrameLost {
                        fragment_index: frame.fragment_index,
                        retries: self.config.max_retries,
                    });
                }
                retransmissions += 1;
            }
        }

        if let Some(plan) = self.faults.as_mut() {
            if delivered.len() > 1 && plan.draw_reorder() {
                // Reassembly is order-independent; rotating the fragments
                // exercises that property without changing the payload.
                delivered.rotate_left(1);
                self.tracer.event(|| TraceEvent::Fault {
                    from: source.to_string(),
                    to: destination.to_string(),
                    fault: "reorder".to_string(),
                    message_id: u64::from(message_id),
                });
                self.tracer.count("net.messages_reordered", 1);
            }
        }

        let mut payload = reassemble(&delivered).map_err(LinkError::Reassembly)?;

        if let Some(extra) = self
            .faults
            .as_ref()
            .zip(fault_index)
            .and_then(|(plan, index)| plan.delay_for(index))
        {
            tx_time += extra;
            rx_time += extra;
            self.tracer.event(|| TraceEvent::Fault {
                from: source.to_string(),
                to: destination.to_string(),
                fault: "delay".to_string(),
                message_id: u64::from(message_id),
            });
            self.tracer.count("net.messages_delayed", 1);
        }

        if let Some(plan) = self.faults.as_mut() {
            let mut replayed = false;
            if plan.draw_replay() {
                if let Some(stale) = plan.stale_payload(source, destination) {
                    // The fresh message is lost in favour of a stale copy of
                    // the previous one — the receiver's duplicate
                    // suppression and the sender's retransmission timer
                    // sort it out.
                    payload = stale;
                    replayed = true;
                }
            }
            plan.record_delivery(source, destination, &payload);
            if replayed {
                self.tracer.event(|| TraceEvent::Fault {
                    from: source.to_string(),
                    to: destination.to_string(),
                    fault: "replay".to_string(),
                    message_id: u64::from(message_id),
                });
                self.tracer.count("net.messages_replayed", 1);
            }
        }

        self.total_wire_bytes += wire_bytes as u64;
        self.total_messages += 1;
        Ok((
            payload,
            TransferReport {
                payload_bytes: message.len(),
                wire_bytes,
                frames: frames.len(),
                retransmissions,
                tx_time,
                rx_time,
            },
        ))
    }

    /// Wire bytes a message of `len` bytes would need with no losses —
    /// useful for sizing experiments without running the loss process.
    pub fn nominal_wire_bytes(len: usize) -> usize {
        wire_bytes_for_message(len)
    }
}

impl Default for Link {
    fn default() -> Self {
        Link::new(LinkConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_transfer_round_trips_payload() {
        let mut link = Link::new(LinkConfig::lossless(LinkProfile::Tsch));
        let message = vec![7u8; 500];
        let (delivered, report) = link.transfer(&message).unwrap();
        assert_eq!(delivered, message);
        assert_eq!(report.payload_bytes, 500);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.frames, 5);
        assert_eq!(report.wire_bytes, Link::nominal_wire_bytes(500));
        assert_eq!(report.tx_time, report.rx_time);
        assert!(report.latency() > Duration::ZERO);
        assert_eq!(link.total_messages(), 1);
        assert_eq!(link.total_wire_bytes(), report.wire_bytes as u64);
    }

    #[test]
    fn airtime_matches_bitrate_and_overhead() {
        let link = Link::new(LinkConfig::lossless(LinkProfile::Tsch));
        // 125 bytes = 1000 bits at 250 kbit/s = 4 ms, plus 2 ms overhead.
        assert_eq!(link.airtime(125), Duration::from_millis(6));
        let ble = Link::new(LinkConfig::lossless(LinkProfile::Ble));
        assert!(ble.airtime(125) < link.airtime(125));
    }

    #[test]
    fn ble_profile_is_faster_end_to_end() {
        let mut tsch = Link::new(LinkConfig::lossless(LinkProfile::Tsch));
        let mut ble = Link::new(LinkConfig::lossless(LinkProfile::Ble));
        let message = vec![1u8; 1000];
        let (_, tsch_report) = tsch.transfer(&message).unwrap();
        let (_, ble_report) = ble.transfer(&message).unwrap();
        assert!(ble_report.tx_time < tsch_report.tx_time);
    }

    #[test]
    fn lossy_link_retransmits_but_delivers() {
        let config = LinkConfig::lossless(LinkProfile::Tsch).with_loss(0.3, 7);
        let mut link = Link::new(config);
        let message = vec![3u8; 2000];
        let (delivered, report) = link.transfer(&message).unwrap();
        assert_eq!(delivered, message);
        assert!(report.retransmissions > 0);
        assert!(report.wire_bytes > Link::nominal_wire_bytes(2000));
        assert!(report.tx_time > report.rx_time);
    }

    #[test]
    fn hopeless_link_reports_frame_loss() {
        let config = LinkConfig {
            bitrate: 250_000,
            frame_overhead: Duration::from_millis(2),
            loss_rate: 0.999,
            max_retries: 2,
            seed: 99,
        };
        let mut link = Link::new(config);
        let error = link.transfer(b"anything").unwrap_err();
        assert!(matches!(error, LinkError::FrameLost { retries: 2, .. }));
        assert!(!format!("{error}").is_empty());
    }

    #[test]
    fn loss_process_is_reproducible_per_seed() {
        let config = LinkConfig::lossless(LinkProfile::Tsch).with_loss(0.2, 1234);
        let mut a = Link::new(config.clone());
        let mut b = Link::new(config);
        let message = vec![5u8; 3000];
        let (_, report_a) = a.transfer(&message).unwrap();
        let (_, report_b) = b.transfer(&message).unwrap();
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn empty_message_is_still_a_transfer() {
        let mut link = Link::default();
        let (delivered, report) = link.transfer(b"").unwrap();
        assert!(delivered.is_empty());
        assert_eq!(report.frames, 1);
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn message_ids_increment() {
        let mut link = Link::default();
        link.transfer(b"a").unwrap();
        link.transfer(b"b").unwrap();
        assert_eq!(link.total_messages(), 2);
    }

    #[test]
    fn message_id_counter_wraps_instead_of_panicking() {
        // Regression: `next_message_id += 1` used to panic in debug builds
        // once the counter reached u32::MAX.
        let mut link = Link::new(LinkConfig::default());
        link.next_message_id = u32::MAX;
        link.transfer(b"last id before the wrap").unwrap();
        assert_eq!(link.next_message_id, 0);
        link.transfer(b"first id after the wrap").unwrap();
        assert_eq!(link.total_messages(), 2);
    }

    #[test]
    fn invalid_loss_rates_are_rejected_at_construction() {
        for loss_rate in [f64::NAN, -0.1, 1.0, 1.5, f64::INFINITY] {
            let config = LinkConfig {
                loss_rate,
                ..LinkConfig::default()
            };
            assert!(
                matches!(
                    Link::try_between(NodeAddr::new(1), NodeAddr::new(2), config),
                    Err(LinkError::InvalidLossRate { .. })
                ),
                "loss rate {loss_rate} must be rejected"
            );
        }
        // The boundary values of [0, 1) are accepted.
        for loss_rate in [0.0, 0.999_999] {
            let config = LinkConfig {
                loss_rate,
                ..LinkConfig::default()
            };
            assert!(Link::try_between(NodeAddr::new(1), NodeAddr::new(2), config).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "invalid link configuration")]
    fn with_loss_panics_on_nan() {
        let _ = LinkConfig::default().with_loss(f64::NAN, 1);
    }

    #[test]
    fn oversized_message_fails_up_front_not_mid_transfer() {
        use crate::frame::MAX_MESSAGE_SIZE;
        let mut link = Link::default();
        // A ~29 KB chain snapshot used to die mid-transfer with
        // HeaderOverflow from to_bytes; it is now refused before a single
        // frame goes on the air.
        let oversized = vec![0u8; MAX_MESSAGE_SIZE + 1];
        let error = link.transfer(&oversized).unwrap_err();
        assert!(matches!(
            error,
            LinkError::Frame(FrameError::MessageTooLarge { size, max })
                if size == MAX_MESSAGE_SIZE + 1 && max == MAX_MESSAGE_SIZE
        ));
        assert_eq!(link.total_messages(), 0);
        assert_eq!(link.total_wire_bytes(), 0);

        // The largest admissible message still transfers.
        let largest = vec![7u8; MAX_MESSAGE_SIZE];
        let (delivered, report) = link.transfer(&largest).unwrap();
        assert_eq!(delivered.len(), MAX_MESSAGE_SIZE);
        assert_eq!(report.frames, crate::frame::MAX_FRAGMENTS);
    }

    #[test]
    fn quiet_fault_plan_leaves_transfers_byte_identical() {
        use crate::fault::FaultConfig;
        let config = LinkConfig::lossless(LinkProfile::Tsch).with_loss(0.2, 77);
        let mut plain = Link::new(config.clone());
        let mut faulted = Link::new(config);
        faulted.set_faults(FaultConfig::quiet(5)).unwrap();
        let message = vec![9u8; 2500];
        let (payload_a, report_a) = plain.transfer(&message).unwrap();
        let (payload_b, report_b) = faulted.transfer(&message).unwrap();
        assert_eq!(payload_a, payload_b);
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn duplication_costs_wire_bytes_but_not_correctness() {
        use crate::fault::FaultConfig;
        let mut link = Link::default();
        link.set_faults(FaultConfig {
            duplicate_rate: 0.9,
            ..FaultConfig::quiet(3)
        })
        .unwrap();
        let message = vec![1u8; 1000];
        let (delivered, report) = link.transfer(&message).unwrap();
        assert_eq!(delivered, message);
        assert!(report.wire_bytes > Link::nominal_wire_bytes(1000));
        assert_eq!(report.retransmissions, 0);
    }

    #[test]
    fn corruption_yields_typed_outcomes_never_panics() {
        use crate::fault::FaultConfig;
        let mut config = LinkConfig::lossless(LinkProfile::Tsch);
        config.max_retries = 1;
        let mut link = Link::new(config);
        link.set_faults(FaultConfig {
            corrupt_rate: 0.8,
            ..FaultConfig::quiet(11)
        })
        .unwrap();
        let mut failures = 0;
        for round in 0..32u8 {
            match link.transfer(&vec![round; 900]) {
                Ok(_) => {}
                Err(LinkError::FrameLost { .. } | LinkError::Reassembly(_)) => failures += 1,
                Err(other) => panic!("corruption must stay typed, got {other:?}"),
            }
        }
        assert!(failures > 0, "80% corruption with one retry must bite");
    }

    #[test]
    fn partition_window_refuses_then_heals() {
        use crate::fault::{FaultConfig, MessageWindow};
        let mut link = Link::default();
        link.set_faults(FaultConfig {
            partition: Some(MessageWindow {
                from_message: 0,
                to_message: 2,
            }),
            ..FaultConfig::quiet(1)
        })
        .unwrap();
        assert!(matches!(
            link.transfer(b"one"),
            Err(LinkError::Partitioned { message_id: 0 })
        ));
        assert!(matches!(
            link.transfer(b"two"),
            Err(LinkError::Partitioned { message_id: 1 })
        ));
        let (delivered, _) = link.transfer(b"three").unwrap();
        assert_eq!(delivered, b"three");
        assert_eq!(link.total_messages(), 1, "partitioned sends never count");
    }

    #[test]
    fn delay_window_stretches_latency() {
        use crate::fault::{DelayWindow, FaultConfig, MessageWindow};
        let extra = Duration::from_millis(250);
        let mut link = Link::default();
        link.set_faults(FaultConfig {
            delay: Some(DelayWindow {
                window: MessageWindow {
                    from_message: 0,
                    to_message: 1,
                },
                extra,
            }),
            ..FaultConfig::quiet(1)
        })
        .unwrap();
        let (_, slow) = link.transfer(&[7u8; 100]).unwrap();
        let (_, fast) = link.transfer(&[7u8; 100]).unwrap();
        assert_eq!(slow.tx_time, fast.tx_time + extra);
        assert_eq!(slow.rx_time, fast.rx_time + extra);
    }

    #[test]
    fn replay_delivers_the_previous_message_again() {
        use crate::fault::FaultConfig;
        let mut link = Link::default();
        link.set_faults(FaultConfig {
            replay_rate: 0.999_999,
            ..FaultConfig::quiet(9)
        })
        .unwrap();
        // Nothing has been delivered yet, so the first transfer cannot be
        // replayed into the past.
        let (first, _) = link.transfer(b"first").unwrap();
        assert_eq!(first, b"first");
        let (second, report) = link.transfer(b"second").unwrap();
        assert_eq!(second, b"first", "the stale message is delivered instead");
        assert_eq!(report.payload_bytes, b"second".len());
    }

    #[test]
    fn reordered_fragments_still_reassemble() {
        use crate::fault::FaultConfig;
        let mut link = Link::default();
        link.set_faults(FaultConfig {
            reorder_rate: 0.999_999,
            ..FaultConfig::quiet(2)
        })
        .unwrap();
        let message = vec![5u8; 1000];
        let (delivered, _) = link.transfer(&message).unwrap();
        assert_eq!(delivered, message);
    }

    #[test]
    fn invalid_fault_rates_are_rejected_with_the_field_name() {
        use crate::fault::FaultConfig;
        let mut link = Link::default();
        let error = link
            .set_faults(FaultConfig {
                replay_rate: 1.5,
                ..FaultConfig::quiet(0)
            })
            .unwrap_err();
        assert!(matches!(
            error,
            LinkError::InvalidFaultRate {
                fault: "replay_rate",
                ..
            }
        ));
        assert!(!format!("{error}").is_empty());
        assert!(link.faults().is_none());
    }

    #[test]
    fn frames_carry_the_configured_addresses_in_both_directions() {
        let sensor = NodeAddr::new(0x0A);
        let gateway = NodeAddr::new(0xFE);
        let mut link = Link::between(sensor, gateway, LinkConfig::default());
        assert_eq!(link.local(), sensor);
        assert_eq!(link.peer(), gateway);
        link.transfer(b"uplink").unwrap();
        link.transfer_reverse(b"downlink ack").unwrap();
        // The byte-level forms crossing the air carry the real endpoints.
        let uplink = fragment(sensor, gateway, 0, b"uplink").unwrap();
        assert_eq!(uplink[0].source, sensor);
        assert_eq!(uplink[0].destination, gateway);
        let downlink = fragment(gateway, sensor, 1, b"downlink ack").unwrap();
        assert_eq!(downlink[0].source, gateway);
        assert_eq!(downlink[0].destination, sensor);
    }
}
