//! The end-to-end TinyEVM protocol between two devices and the chain.
//!
//! [`ProtocolDriver`] is a thin *pump* around two sans-IO
//! [`ChannelEndpoint`]s (see [`crate::endpoint`]): the paying device (the
//! smart car) and the receiving device (the parking sensor) each run their
//! own protocol state machine, and the driver owns only what neither node
//! may: the simulated main chain, the radio [`Link`], and the pacing of the
//! scenario. Every protocol step is an encoded [`Message`] polled from one
//! endpoint's outbox, moved through the (possibly lossy) link, and fed into
//! the other endpoint — the driver never reaches into a peer's state, so
//! the reported air time, energy and latency derive from real encoded
//! bytes and each node's own device meter:
//!
//! 1. [`ProtocolDriver::publish_template`]: the template goes on-chain with
//!    the sender's deposit (phase 1).
//! 2. [`ProtocolDriver::open_channel`]: the chain registration is observed
//!    by both endpoints, the devices exchange sensor readings and the
//!    channel-open proposal over the link, and each executes the
//!    payment-channel constructor locally (phase 2).
//! 3. [`ProtocolDriver::pay`]: one off-chain payment — sign, transmit,
//!    verify, register on the side-chain, acknowledge (the quantity behind
//!    the paper's "584 ms per payment" and the Figure 5 / Table IV round).
//! 4. [`ProtocolDriver::close_and_settle`]: the sender's endpoint produces
//!    and signs the final state, the receiver's endpoint validates and
//!    counter-signs it, and the chain runs the commit / challenge / exit
//!    machinery (phase 3).
//!
//! [`ProtocolDriver::save_session`] / [`ProtocolDriver::restore_session`]
//! persist the chain and both endpoints to disk so a device can
//! power-cycle mid-session and resume.
//!
//! All timing and energy falls out of the device model; nothing in this
//! module hard-codes the paper's numbers.

use std::path::Path;
use std::time::Duration;

use tinyevm_chain::{Blockchain, Settlement, TemplateConfig};
use tinyevm_crypto::secp256k1::Signature;
use tinyevm_device::{Device, EnergyReport, TimelineEntry};
use tinyevm_net::{Link, LinkConfig, MediumError, NodeAddr, Radio};
use tinyevm_trace::TraceHandle;
use tinyevm_types::{Address, Wei, H256};
use tinyevm_wire::{persist, ChainSnapshot, ChannelSnapshot, EndpointRole, Message, WireError};

use crate::channel::{ChannelRole, PaymentChannel};
use crate::endpoint::{ChannelEndpoint, ChannelRegistration, Effect, EndpointError};
use crate::sidechain::SideChainLog;

/// Errors produced by the protocol driver.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The chain rejected an operation.
    Chain(tinyevm_chain::ChainError),
    /// A device could not deploy or execute the channel contract.
    Device(String),
    /// The radio link failed to deliver a message.
    Link(tinyevm_net::LinkError),
    /// The shared medium refused or failed an operation (multi-node
    /// scenarios).
    Medium(tinyevm_net::MediumError),
    /// A channel-level rule was violated.
    Channel(crate::channel::ChannelError),
    /// The protocol was driven out of order (e.g. paying before opening).
    OutOfOrder(&'static str),
    /// A signature check failed.
    BadSignature,
    /// A wire message failed to encode or decode.
    Wire(WireError),
    /// The peer sent a structurally valid message of the wrong kind.
    UnexpectedMessage {
        /// What the protocol step expected.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
    /// An endpoint rejected an input (unknown peer, proposal mismatch, or
    /// a future endpoint rule).
    Endpoint(EndpointError),
    /// A scheduled crash point fired: the named node power-cycled before
    /// the next message could be conveyed. The driver stays usable; call
    /// [`ProtocolDriver::power_cycle`] for the node and keep going.
    Crashed {
        /// The node the crash schedule targeted.
        node: NodeAddr,
    },
    /// The gateway refuses to run rounds with a quarantined sensor (see
    /// `tinyevm_sim::SensorHealth`).
    Quarantined {
        /// The quarantined sensor.
        sensor: NodeAddr,
    },
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::Chain(error) => write!(f, "chain error: {error}"),
            ProtocolError::Device(message) => write!(f, "device error: {message}"),
            ProtocolError::Link(error) => write!(f, "link error: {error}"),
            ProtocolError::Medium(error) => write!(f, "medium error: {error}"),
            ProtocolError::Channel(error) => write!(f, "channel error: {error}"),
            ProtocolError::OutOfOrder(step) => write!(f, "protocol step out of order: {step}"),
            ProtocolError::BadSignature => write!(f, "signature verification failed"),
            ProtocolError::Wire(error) => write!(f, "wire format error: {error}"),
            ProtocolError::UnexpectedMessage { expected, got } => {
                write!(f, "expected a {expected} message, got {got}")
            }
            ProtocolError::Endpoint(error) => write!(f, "endpoint error: {error}"),
            ProtocolError::Crashed { node } => {
                write!(f, "node {node} power-cycled at a scheduled crash point")
            }
            ProtocolError::Quarantined { sensor } => {
                write!(
                    f,
                    "sensor {sensor} is quarantined after repeated violations"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<tinyevm_chain::ChainError> for ProtocolError {
    fn from(error: tinyevm_chain::ChainError) -> Self {
        ProtocolError::Chain(error)
    }
}

impl From<tinyevm_net::LinkError> for ProtocolError {
    fn from(error: tinyevm_net::LinkError) -> Self {
        ProtocolError::Link(error)
    }
}

impl From<MediumError> for ProtocolError {
    fn from(error: MediumError) -> Self {
        // Point-to-point failures keep their historical variant.
        match error {
            MediumError::Link(link) => ProtocolError::Link(link),
            other => ProtocolError::Medium(other),
        }
    }
}

impl From<crate::channel::ChannelError> for ProtocolError {
    fn from(error: crate::channel::ChannelError) -> Self {
        ProtocolError::Channel(error)
    }
}

impl From<WireError> for ProtocolError {
    fn from(error: WireError) -> Self {
        ProtocolError::Wire(error)
    }
}

impl From<EndpointError> for ProtocolError {
    fn from(error: EndpointError) -> Self {
        // Endpoint rejections that existed before the sans-IO redesign keep
        // their historical driver-level variants; new ones surface as
        // `Endpoint`.
        match error {
            EndpointError::Channel(inner) => ProtocolError::Channel(inner),
            EndpointError::Wire(inner) => ProtocolError::Wire(inner),
            EndpointError::Device(inner) => ProtocolError::Device(inner),
            EndpointError::OutOfOrder(step) => ProtocolError::OutOfOrder(step),
            EndpointError::BadSignature => ProtocolError::BadSignature,
            EndpointError::UnexpectedMessage { expected, got } => {
                ProtocolError::UnexpectedMessage { expected, got }
            }
            other => ProtocolError::Endpoint(other),
        }
    }
}

// --- the shared pump -----------------------------------------------------

/// One radio transfer a pump performed.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// The message kind that moved ([`Message::label`]).
    pub label: &'static str,
    /// Bytes on the air, headers and retransmissions included.
    pub wire_bytes: usize,
}

/// Everything a pump run produced: the endpoints' effects (tagged with the
/// emitting endpoint's address) and the transfers that carried them.
#[derive(Debug, Default)]
pub struct PumpLog {
    /// Effects the endpoints emitted, tagged with the emitting address.
    pub effects: Vec<(NodeAddr, Effect)>,
    /// The radio transfers that carried them.
    pub transfers: Vec<Transfer>,
}

impl PumpLog {
    /// Total wire bytes moved.
    pub fn wire_bytes(&self) -> usize {
        self.transfers.iter().map(|t| t.wire_bytes).sum()
    }

    /// Wire bytes of transfers whose message label is in `labels`.
    pub fn wire_bytes_of(&self, labels: &[&str]) -> usize {
        self.transfers
            .iter()
            .filter(|t| labels.contains(&t.label))
            .map(|t| t.wire_bytes)
            .sum()
    }
}

/// A one-shot crash point: the pump power-fails `target` just before it
/// would convey the `after_message`-th message of the session (counting
/// every message the driver has moved so far, across all phases — so a
/// sweep over `after_message` hits every protocol step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The node that loses power.
    pub target: NodeAddr,
    /// Session-wide conveyed-message count at which the crash fires.
    pub after_message: u64,
}

/// Mutable pump state a driver threads through every [`pump_pair_with`]
/// call: the session-wide conveyed-message counter and the (at most one)
/// pending crash point.
#[derive(Debug, Default)]
pub(crate) struct PumpControl {
    pub crash: Option<CrashSchedule>,
    pub conveyed: u64,
}

/// Shuttles messages between two endpoints over `radio` until both
/// outboxes drain: poll `a`, then `b`, move the envelope, account both
/// sides, feed the decoded bytes to the destination, and apply
/// peer-processing waits to the transmitting side. This is the whole of
/// the drivers' transport logic — the protocol itself lives in the
/// endpoints.
///
/// Faults surface here and are classified, not panicked on:
///
/// * a transport-level [`LinkError`](tinyevm_net::LinkError) hands the
///   transmitter to its retry/backoff machinery
///   ([`ChannelEndpoint::on_transport_error`]); exhausted budgets abort the
///   round with a typed [`EndpointError::RoundAborted`];
/// * undecodable bytes (corruption that survived framing) and stale
///   replayed payments are dropped — the sender's stall-retransmit path
///   recovers the round;
/// * when both outboxes drain with a round still pending (a message
///   vanished whole), the stalled endpoint retransmits with backoff until
///   the round completes or aborts;
/// * a scheduled [`CrashSchedule`] fires *before* the doomed message is
///   polled, so the transmitter keeps it for retransmission after the
///   power cycle.
pub(crate) fn pump_pair<R: Radio>(
    radio: &mut R,
    a: &mut ChannelEndpoint,
    b: &mut ChannelEndpoint,
) -> Result<PumpLog, ProtocolError> {
    pump_pair_with(radio, a, b, &mut PumpControl::default())
}

/// The contention-free single-slot pump: shuttles messages between one
/// endpoint pair until both outboxes drain, exactly as
/// [`ProtocolDriver`] does. Public so the fleet scheduler of
/// `tinyevm-sim` runs its single-slot schedule — one sensor's whole round
/// at a time — through the *same* code path; the driver-equivalence
/// goldens pin both.
///
/// # Errors
///
/// Same classification as the drivers' pumps: transport errors feed the
/// transmitter's retry machinery, poisoned messages are dropped for the
/// stall-retransmit path to recover, and exhausted retry budgets surface
/// as [`EndpointError::RoundAborted`].
pub fn pump_contention_free<R: Radio>(
    radio: &mut R,
    a: &mut ChannelEndpoint,
    b: &mut ChannelEndpoint,
) -> Result<PumpLog, ProtocolError> {
    pump_pair(radio, a, b)
}

/// [`pump_pair`] with an explicit [`PumpControl`] (crash schedule and
/// session-wide message counter).
pub(crate) fn pump_pair_with<R: Radio>(
    radio: &mut R,
    a: &mut ChannelEndpoint,
    b: &mut ChannelEndpoint,
    control: &mut PumpControl,
) -> Result<PumpLog, ProtocolError> {
    let mut log = PumpLog::default();
    loop {
        if let Some(crash) = control.crash {
            if control.conveyed >= crash.after_message {
                control.crash = None;
                return Err(ProtocolError::Crashed { node: crash.target });
            }
        }
        let (from_a, envelope) = if let Some(envelope) = a.poll_transmit() {
            (true, envelope)
        } else if let Some(envelope) = b.poll_transmit() {
            (false, envelope)
        } else {
            // Both outboxes drained. If a round is still pending on either
            // side, its last message vanished on the air: retransmit with
            // backoff (or abort with a typed error once the budget runs
            // out) instead of returning an incomplete round.
            if a.stalled_round().is_some() {
                a.on_round_stalled()?;
                continue;
            }
            if b.stalled_round().is_some() {
                b.on_round_stalled()?;
                continue;
            }
            break;
        };
        let (tx, rx) = if from_a {
            (&mut *a, &mut *b)
        } else {
            (&mut *b, &mut *a)
        };
        if envelope.to != rx.addr() {
            return Err(ProtocolError::OutOfOrder(
                "envelope addressed to a peer this pump does not serve",
            ));
        }
        let wire = envelope.message.to_wire();
        let (delivered, report) = match radio.convey(tx.addr(), rx.addr(), &wire) {
            Ok(result) => result,
            Err(MediumError::Link(_)) => {
                // The link refused the message (retry budget exhausted,
                // partition window, ...). The transmitter backs off and
                // retransmits; when its budget runs out the round aborts
                // with a typed error and committed state untouched.
                tx.on_transport_error()?;
                continue;
            }
            Err(other) => return Err(other.into()),
        };
        control.conveyed += 1;
        tx.account_transmitted(report.wire_bytes);
        rx.account_received(report.wire_bytes);
        let effects = match rx.handle_wire(tx.addr(), &delivered) {
            Ok(effects) => effects,
            Err(EndpointError::Wire(_)) => {
                // Corruption that survived framing: the bytes reassembled
                // but do not decode. Drop them; the sender's
                // stall-retransmit recovers the round.
                log.transfers.push(Transfer {
                    label: envelope.message.label(),
                    wire_bytes: report.wire_bytes,
                });
                continue;
            }
            Err(EndpointError::Channel(crate::channel::ChannelError::Payment(
                crate::payment::PaymentError::StaleSequence { .. },
            ))) => {
                // A replayed (or crash-recovery-retransmitted) payment the
                // channel already holds. Ignoring it is safe: committed
                // state is monotone and the live round, if any, recovers
                // via stall-retransmit.
                log.transfers.push(Transfer {
                    label: envelope.message.label(),
                    wire_bytes: report.wire_bytes,
                });
                continue;
            }
            Err(EndpointError::BadSignature) => {
                // Bit flips that survive framing *and* RLP can only land in
                // free-form byte strings — signatures and public keys — so
                // the message decodes but fails verification. Treat it as
                // line noise, exactly like a framing error: drop it and let
                // the retransmission machinery re-deliver the original.
                // (Deliberate tampering looks identical on the wire, is
                // equally refused here, and still surfaces as
                // `BadSignature` when the endpoint is driven directly.)
                log.transfers.push(Transfer {
                    label: envelope.message.label(),
                    wire_bytes: report.wire_bytes,
                });
                continue;
            }
            Err(EndpointError::UnexpectedMessage { .. } | EndpointError::OutOfOrder(_)) => {
                // An out-of-phase message: a peer that power-cycled mid
                // round (its RAM dedup state is gone) or an aborted round's
                // straggler retransmits something this endpoint is not
                // waiting for — e.g. a re-sent acknowledgement for a
                // payment the rebooted sender already holds in flash.
                // Dropping it is the sans-IO answer — the live round
                // converges via stall-retransmit or aborts through the
                // retry budget; committed state is untouched either way.
                // (`OutOfOrder` from *local intents* — say, paying while a
                // round is in flight — is raised before the pump runs and
                // still propagates.)
                log.transfers.push(Transfer {
                    label: envelope.message.label(),
                    wire_bytes: report.wire_bytes,
                });
                continue;
            }
            Err(other) => return Err(other.into()),
        };
        log.transfers.push(Transfer {
            label: envelope.message.label(),
            wire_bytes: report.wire_bytes,
        });
        let rx_addr = rx.addr();
        for effect in effects {
            if let Effect::PaymentAccepted { processing, .. } = &effect {
                // The payer idles in LPM2 while the peer verifies,
                // registers and signs; that wait is part of the payment's
                // end-to-end latency (and of the Figure 5 timeline).
                tx.wait(*processing);
            }
            log.effects.push((rx_addr, effect));
        }
    }
    Ok(log)
}

// --- nodes ---------------------------------------------------------------

/// One protocol node: a sans-IO [`ChannelEndpoint`] plus the link-layer
/// address of its counterparty.
#[derive(Debug)]
pub struct OffChainNode {
    endpoint: ChannelEndpoint,
    peer: NodeAddr,
    fallback_log: SideChainLog,
}

impl OffChainNode {
    /// Creates a node with an OpenMote-B class device and a link-layer
    /// address chosen by role (sender = 1, receiver = 2); multi-node
    /// topologies pick explicit addresses via [`OffChainNode::with_addr`].
    pub fn new(name: &str, role: ChannelRole) -> Self {
        let addr = match role {
            ChannelRole::Sender => NodeAddr::new(1),
            ChannelRole::Receiver => NodeAddr::new(2),
        };
        Self::with_addr(name, role, addr)
    }

    /// Creates a node with an explicit link-layer address.
    pub fn with_addr(name: &str, role: ChannelRole, addr: NodeAddr) -> Self {
        let endpoint = match role {
            ChannelRole::Sender => ChannelEndpoint::two_party_sender(name, addr),
            ChannelRole::Receiver => ChannelEndpoint::two_party_receiver(name, addr),
        };
        // Until a driver binds two nodes, assume the conventional
        // counterpart address.
        let peer = match role {
            ChannelRole::Sender => NodeAddr::new(2),
            ChannelRole::Receiver => NodeAddr::new(1),
        };
        OffChainNode {
            endpoint,
            peer,
            fallback_log: SideChainLog::new(H256::ZERO),
        }
    }

    /// The node's protocol state machine.
    pub fn endpoint(&self) -> &ChannelEndpoint {
        &self.endpoint
    }

    /// Mutable access to the protocol state machine.
    pub fn endpoint_mut(&mut self) -> &mut ChannelEndpoint {
        &mut self.endpoint
    }

    /// This node's link-layer address (what goes in the frame headers).
    pub fn node_addr(&self) -> NodeAddr {
        self.endpoint.addr()
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        self.endpoint.device()
    }

    /// Mutable access to the device (used by examples to inspect or extend
    /// the sensor registry).
    pub fn device_mut(&mut self) -> &mut Device {
        self.endpoint.device_mut()
    }

    /// This node's payment identity.
    pub fn address(&self) -> Address {
        self.endpoint.account()
    }

    /// This node's role.
    pub fn role(&self) -> ChannelRole {
        self.endpoint.role()
    }

    /// The node's channel endpoint state machine, once opened.
    pub fn channel(&self) -> Option<&PaymentChannel> {
        self.endpoint.channel(self.peer)
    }

    /// Address of the locally deployed payment-channel contract.
    pub fn channel_contract(&self) -> Option<Address> {
        self.endpoint.contract(self.peer)
    }

    /// The node's side-chain log.
    pub fn side_chain(&self) -> &SideChainLog {
        self.endpoint
            .side_chain(self.peer)
            .unwrap_or(&self.fallback_log)
    }

    /// Acknowledgement signatures received from the peer.
    pub fn peer_signatures(&self) -> &[Signature] {
        self.endpoint.peer_acks(self.peer).unwrap_or(&[])
    }

    /// Captures this node's channel endpoint, side-chain log and collected
    /// peer acknowledgements as a wire-format snapshot, or `None` before a
    /// channel is open.
    pub fn snapshot(&self) -> Option<ChannelSnapshot> {
        self.endpoint.snapshot(self.peer)
    }

    /// Restores the channel endpoint, side-chain log and peer
    /// acknowledgements from a snapshot (the node's role must match).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Wire`] for a snapshot whose log does not
    /// verify and [`ProtocolError::OutOfOrder`] for a role mismatch.
    pub fn restore(&mut self, snapshot: &ChannelSnapshot) -> Result<(), ProtocolError> {
        self.endpoint.install_snapshot(self.peer, snapshot)?;
        Ok(())
    }

    /// Rebinds this node to a peer at `new` (drivers call this when wiring
    /// two standalone nodes together).
    fn bind_peer(&mut self, new: NodeAddr) {
        self.endpoint.rekey_peer(self.peer, new);
        self.peer = new;
    }
}

/// Measurements of one channel-opening handshake.
#[derive(Debug, Clone)]
pub struct ChannelOpenReport {
    /// Channel id issued by the template's logical clock.
    pub channel_id: u64,
    /// Time the sender spent executing the channel constructor.
    pub sender_create_time: Duration,
    /// Time the receiver spent executing the channel constructor.
    pub receiver_create_time: Duration,
    /// Bytes exchanged over the radio during the handshake.
    pub bytes_exchanged: usize,
}

/// Measurements of one off-chain payment.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Sequence number of the payment.
    pub sequence: u64,
    /// Cumulative amount owed to the receiver afterwards.
    pub cumulative: Wei,
    /// Wall-clock time from initiating the payment on the sender until the
    /// receiver's acknowledgement arrived back (the "complete an off-chain
    /// payment" latency the paper reports as 584 ms on average).
    pub end_to_end_latency: Duration,
    /// Time the sender's own hardware was active for this payment (crypto +
    /// CPU + radio, excluding the wait for the peer).
    pub sender_active_time: Duration,
    /// Time the sender spent executing the payment-channel contract to
    /// register the payment on its side-chain.
    pub sender_register_time: Duration,
    /// Time the sender spent signing.
    pub sender_sign_time: Duration,
    /// Radio bytes exchanged (both directions).
    pub bytes_exchanged: usize,
}

/// Result of settling the channel on-chain.
#[derive(Debug, Clone)]
pub struct SettlementReport {
    /// The settlement the chain computed.
    pub settlement: Settlement,
    /// Final balance of the sender on-chain.
    pub sender_balance: Wei,
    /// Final balance of the receiver on-chain.
    pub receiver_balance: Wei,
    /// Total payments that were exchanged off-chain.
    pub payments_exchanged: u64,
    /// Number of on-chain transactions the whole session needed.
    pub on_chain_transactions: usize,
}

/// The protocol driver: two sans-IO endpoints, a link and the chain.
///
/// # Example
///
/// ```
/// use tinyevm_channel::ProtocolDriver;
/// use tinyevm_types::Wei;
///
/// let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
/// driver.publish_template().unwrap();
/// driver.open_channel().unwrap();
/// let report = driver.pay(Wei::from_eth_milli(5)).unwrap();
/// assert!(report.end_to_end_latency.as_millis() > 300);
/// let settlement = driver.close_and_settle().unwrap();
/// assert!(!settlement.settlement.fraud_detected);
/// ```
#[derive(Debug)]
pub struct ProtocolDriver {
    chain: Blockchain,
    sender: OffChainNode,
    receiver: OffChainNode,
    link: Link,
    deposit: Wei,
    template: Option<Address>,
    channel_id: Option<u64>,
    tracer: TraceHandle,
    control: PumpControl,
}

impl ProtocolDriver {
    /// The smart-parking setup of the paper: a "smart-car" sender, a
    /// "parking-sensor" receiver, a lossless TSCH link and the given
    /// deposit.
    pub fn smart_parking(deposit: Wei) -> Self {
        Self::smart_parking_with_link(LinkConfig::default(), deposit)
    }

    /// The smart-parking setup over an explicit link configuration (e.g. a
    /// lossy one). The device identities are the same as
    /// [`ProtocolDriver::smart_parking`], so sessions persisted under one
    /// link profile restore under another.
    pub fn smart_parking_with_link(link_config: LinkConfig, deposit: Wei) -> Self {
        Self::new(
            OffChainNode::new("smart-car", ChannelRole::Sender),
            OffChainNode::new("parking-sensor", ChannelRole::Receiver),
            link_config,
            deposit,
        )
    }

    /// Builds a driver from explicit parts.
    pub fn new(
        mut sender: OffChainNode,
        mut receiver: OffChainNode,
        link_config: LinkConfig,
        deposit: Wei,
    ) -> Self {
        let mut chain = Blockchain::new();
        // Genesis allocation: the sender needs funds to lock the deposit.
        chain.fund(sender.address(), deposit.saturating_add(Wei::from_eth(1)));
        let link = Link::between(sender.node_addr(), receiver.node_addr(), link_config);
        sender.bind_peer(receiver.node_addr());
        receiver.bind_peer(sender.node_addr());
        ProtocolDriver {
            chain,
            sender,
            receiver,
            link,
            deposit,
            template: None,
            channel_id: None,
            tracer: TraceHandle::default(),
            control: PumpControl::default(),
        }
    }

    /// Routes the whole session's trace output through `tracer`: both
    /// endpoints (round phases, power states, contract calls), the radio
    /// link (per-frame events, retransmission and loss counters), and the
    /// driver's own per-round latency histogram.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.sender.endpoint.set_tracer(tracer.clone());
        self.receiver.endpoint.set_tracer(tracer.clone());
        self.link.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Builder form of [`ProtocolDriver::set_tracer`].
    #[must_use]
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// The simulated main chain.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The paying node.
    pub fn sender(&self) -> &OffChainNode {
        &self.sender
    }

    /// The receiving node.
    pub fn receiver(&self) -> &OffChainNode {
        &self.receiver
    }

    /// The template address once published.
    pub fn template(&self) -> Option<Address> {
        self.template
    }

    /// The radio link between the two devices (message and wire-byte
    /// statistics).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Adjusts the idle gap inserted between protocol steps.
    pub fn set_idle_gap(&mut self, gap: Duration) {
        self.sender.endpoint.set_idle_gap(gap);
        self.receiver.endpoint.set_idle_gap(gap);
    }

    /// The sender's power-state timeline (Figure 5 raw data).
    pub fn sender_timeline(&self) -> &[TimelineEntry] {
        self.sender.device().timeline()
    }

    /// The sender's energy report (Table IV data).
    pub fn sender_energy(&self) -> EnergyReport {
        self.sender.device().energy_report()
    }

    // --- phase 1 -----------------------------------------------------------

    /// Publishes the template on-chain and locks the deposit.
    ///
    /// # Errors
    ///
    /// Returns a chain error when the deposit cannot be locked.
    pub fn publish_template(&mut self) -> Result<Address, ProtocolError> {
        let config = TemplateConfig {
            sender: self.sender.address(),
            receiver: self.receiver.address(),
            deposit: self.deposit,
            challenge_period_blocks: 10,
        };
        let address = self.chain.publish_template(config)?;
        self.template = Some(address);
        Ok(address)
    }

    // --- phase 2 -----------------------------------------------------------

    /// Opens the off-chain payment channel: both endpoints observe the
    /// chain registration, the devices exchange sensor readings and the
    /// channel-open proposal over the link, and each executes the channel
    /// constructor locally (with its IoT sensor read).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before the template is
    /// published, or the underlying device / chain / link error.
    pub fn open_channel(&mut self) -> Result<ChannelOpenReport, ProtocolError> {
        let template = self
            .template
            .ok_or(ProtocolError::OutOfOrder("publish_template first"))?;
        let channel_id = self
            .chain
            .create_payment_channel(self.sender.address(), template)?;
        self.channel_id = Some(channel_id);

        // Both endpoints observe the same on-chain registration; the
        // receiver will refuse any proposal that contradicts it.
        let registration = ChannelRegistration {
            template,
            channel_id,
            sender: self.sender.address(),
            receiver: self.receiver.address(),
            deposit_cap: self.deposit,
            anchor: self
                .chain
                .template(&template)
                .map(|t| t.side_chain_root().hash)
                .unwrap_or(H256::ZERO),
        };
        self.receiver
            .endpoint
            .expect_channel(self.sender.node_addr(), registration.clone())?;
        let mut effects: Vec<(NodeAddr, Effect)> = self
            .sender
            .endpoint
            .open(self.receiver.node_addr(), registration)?
            .into_iter()
            .map(|effect| (self.sender.node_addr(), effect))
            .collect();
        let log = self.pump()?;
        effects.extend(log.effects.iter().cloned());

        let create_time_of = |addr: NodeAddr| {
            effects.iter().find_map(|(emitter, effect)| match effect {
                Effect::ChannelOpened { create_time, .. } if *emitter == addr => Some(*create_time),
                _ => None,
            })
        };
        let (Some(sender_create_time), Some(receiver_create_time)) = (
            create_time_of(self.sender.node_addr()),
            create_time_of(self.receiver.node_addr()),
        ) else {
            return Err(ProtocolError::OutOfOrder("open handshake did not complete"));
        };
        Ok(ChannelOpenReport {
            channel_id,
            sender_create_time,
            receiver_create_time,
            bytes_exchanged: log.wire_bytes(),
        })
    }

    // --- off-chain payments --------------------------------------------------

    /// Performs one off-chain payment of `amount` from the sender to the
    /// receiver, measuring the full round.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before the channel is open, or
    /// the underlying channel / link / signature error.
    pub fn pay(&mut self, amount: Wei) -> Result<RoundReport, ProtocolError> {
        if self.channel_id.is_none() {
            return Err(ProtocolError::OutOfOrder("open_channel first"));
        }
        self.sender
            .endpoint
            .pay(self.receiver.node_addr(), amount)?;
        let log = self.pump()?;
        let receipt = log
            .effects
            .iter()
            .find_map(|(_, effect)| match effect {
                Effect::PaymentCompleted { receipt, .. } => Some(receipt.clone()),
                _ => None,
            })
            .ok_or(ProtocolError::OutOfOrder("payment round did not complete"))?;
        self.tracer.observe(
            "driver.round_latency_ms",
            receipt.end_to_end_latency.as_secs_f64() * 1_000.0,
        );
        Ok(RoundReport {
            sequence: receipt.sequence,
            cumulative: receipt.cumulative,
            end_to_end_latency: receipt.end_to_end_latency,
            sender_active_time: receipt.active_time,
            sender_register_time: receipt.register_time,
            sender_sign_time: receipt.sign_time,
            bytes_exchanged: log.wire_bytes_of(&["payment", "payment-ack"]),
        })
    }

    /// Runs a complete parking session: open a channel (if not already
    /// open), make `payments` payments of `amount`, and return the per-round
    /// reports. This is the workload behind Figure 5 and Table IV.
    ///
    /// # Errors
    ///
    /// Propagates the first error of any step.
    pub fn run_session(
        &mut self,
        payments: usize,
        amount: Wei,
    ) -> Result<Vec<RoundReport>, ProtocolError> {
        if self.template.is_none() {
            self.publish_template()?;
        }
        if self.channel_id.is_none() {
            self.open_channel()?;
        }
        let mut reports = Vec::with_capacity(payments);
        for _ in 0..payments {
            reports.push(self.pay(amount)?);
        }
        Ok(reports)
    }

    // --- phase 3 -----------------------------------------------------------

    /// Closes the channel: the sender's endpoint signs the final state, the
    /// receiver's endpoint validates it against its own channel view and
    /// counter-signs, the dual-signed envelope is committed on-chain, the
    /// challenge period elapses and the deposit is distributed.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before a channel exists, or the
    /// chain's rejection.
    pub fn close_and_settle(&mut self) -> Result<SettlementReport, ProtocolError> {
        let template = self
            .template
            .ok_or(ProtocolError::OutOfOrder("publish_template first"))?;
        let payments_exchanged = self
            .receiver
            .channel()
            .map(|c| c.payments_seen())
            .unwrap_or(0);

        // The sender initiates the close over the wire; the receiver
        // validates, counter-signs, and hands the driver the envelope.
        self.sender.endpoint.close(self.receiver.node_addr())?;
        self.pump()?;
        let commits = self.receiver.endpoint.finalize_closes()?;
        let Some(Effect::CommitReady { envelope, .. }) = commits.into_iter().next() else {
            return Err(ProtocolError::OutOfOrder(
                "close handshake did not complete",
            ));
        };
        self.chain
            .commit_channel_state(self.receiver.address(), template, &envelope)?;
        self.chain.start_exit(self.receiver.address(), template)?;
        self.chain.advance_blocks(11);
        let settlement = self
            .chain
            .finalize_template(self.receiver.address(), template)?;

        Ok(SettlementReport {
            sender_balance: self.chain.balance(&self.sender.address()),
            receiver_balance: self.chain.balance(&self.receiver.address()),
            settlement,
            payments_exchanged,
            on_chain_transactions: self.chain.transactions().len(),
        })
    }

    // --- persistence --------------------------------------------------------

    /// Snapshot of the simulated main chain's consensus state.
    pub fn chain_snapshot(&self) -> ChainSnapshot {
        ChainSnapshot::capture(&self.chain)
    }

    /// Writes the whole session — chain snapshot plus both channel
    /// endpoints — to a wire-format persistence file.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before the channel is open and
    /// [`ProtocolError::Wire`] on filesystem failure.
    pub fn save_session(&self, path: &Path) -> Result<(), ProtocolError> {
        let sender = self
            .sender
            .snapshot()
            .ok_or(ProtocolError::OutOfOrder("open_channel first"))?;
        let receiver = self
            .receiver
            .snapshot()
            .ok_or(ProtocolError::OutOfOrder("open_channel first"))?;
        persist::write_messages(
            path,
            &[
                Message::ChainSnapshot(self.chain_snapshot()),
                Message::ChannelSnapshot(sender),
                Message::ChannelSnapshot(receiver),
            ],
        )?;
        Ok(())
    }

    /// Resumes a session from a persistence file written by
    /// [`ProtocolDriver::save_session`]: restores the chain (verified
    /// hash-equal against the snapshot's state root), both channel
    /// endpoints and their side-chain logs, and re-instantiates the local
    /// channel contracts on devices that lost them in the power cycle.
    ///
    /// The whole file is validated before any driver state changes: it
    /// must contain the chain snapshot *and* both endpoint snapshots, the
    /// endpoints must agree on the channel parameters, and the template
    /// they name must exist on the restored chain. A file truncated
    /// mid-write (power loss during the save) or spliced from two
    /// different sessions is rejected as a whole, never half-applied.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Wire`] for unreadable, foreign, tampered,
    /// incomplete or inconsistent files, and a device error when a channel
    /// contract cannot be re-created.
    pub fn restore_session(&mut self, path: &Path) -> Result<(), ProtocolError> {
        // Stage everything first; self is only touched once the file as a
        // whole has been validated.
        let mut chain = None;
        let mut sender_snapshot = None;
        let mut receiver_snapshot = None;
        for message in persist::read_messages(path)? {
            match message {
                Message::ChainSnapshot(snapshot) => {
                    chain = Some(snapshot.restore()?);
                }
                Message::ChannelSnapshot(snapshot) => match snapshot.role {
                    EndpointRole::Sender => sender_snapshot = Some(snapshot),
                    EndpointRole::Receiver => receiver_snapshot = Some(snapshot),
                },
                other => {
                    return Err(ProtocolError::UnexpectedMessage {
                        expected: "snapshot",
                        got: other.label(),
                    })
                }
            }
        }
        let (Some(chain), Some(sender_snapshot), Some(receiver_snapshot)) =
            (chain, sender_snapshot, receiver_snapshot)
        else {
            return Err(ProtocolError::Wire(WireError::Truncated));
        };
        // The two endpoints must describe the same channel, anchored at a
        // template the restored chain actually knows — a file spliced from
        // two different sessions fails here.
        if sender_snapshot.template != receiver_snapshot.template
            || sender_snapshot.channel_id != receiver_snapshot.channel_id
            || sender_snapshot.sender != receiver_snapshot.sender
            || sender_snapshot.receiver != receiver_snapshot.receiver
            || sender_snapshot.deposit_cap != receiver_snapshot.deposit_cap
        {
            return Err(ProtocolError::Wire(WireError::Value(
                "endpoint snapshots describe different channels",
            )));
        }
        if chain.template(&sender_snapshot.template).is_none() {
            return Err(ProtocolError::Wire(WireError::Value(
                "snapshot template is not on the restored chain",
            )));
        }
        // The session must belong to *these* devices — restoring someone
        // else's snapshot would leave channels whose configured parties
        // can never produce valid signatures.
        if sender_snapshot.sender != self.sender.address()
            || sender_snapshot.receiver != self.receiver.address()
        {
            return Err(ProtocolError::Wire(WireError::Value(
                "snapshot belongs to different device identities",
            )));
        }
        // Decode both endpoints (side-chain logs re-verified) before any
        // commit.
        PaymentChannel::restore(&sender_snapshot)?;
        PaymentChannel::restore(&receiver_snapshot)?;

        // Commit.
        self.chain = chain;
        self.template = Some(sender_snapshot.template);
        self.channel_id = Some(sender_snapshot.channel_id);
        self.sender.restore(&sender_snapshot)?;
        self.receiver.restore(&receiver_snapshot)?;
        // Devices that lost their contract world in the power cycle
        // re-instantiate the off-chain contract from the template.
        let receiver_addr = self.receiver.node_addr();
        let sender_addr = self.sender.node_addr();
        self.sender.endpoint.ensure_contract(receiver_addr)?;
        self.receiver.endpoint.ensure_contract(sender_addr)?;
        Ok(())
    }

    // --- fault injection ----------------------------------------------------

    /// Installs a fault plan on the link (corruption, duplication,
    /// reordering, replay, delay windows, partitions — see
    /// [`tinyevm_net::FaultConfig`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Link`] for a configuration with an invalid
    /// rate.
    pub fn set_link_faults(
        &mut self,
        config: tinyevm_net::FaultConfig,
    ) -> Result<(), ProtocolError> {
        self.link.set_faults(config)?;
        Ok(())
    }

    /// Removes any installed fault plan from the link.
    pub fn clear_link_faults(&mut self) {
        self.link.clear_faults();
    }

    /// Configures the retry/backoff policy of both endpoints.
    pub fn set_retry_policy(&mut self, policy: crate::endpoint::RetryPolicy) {
        self.sender.endpoint.set_retry_policy(policy);
        self.receiver.endpoint.set_retry_policy(policy);
    }

    /// Arms a one-shot crash point: the next pump run returns
    /// [`ProtocolError::Crashed`] when the session-wide conveyed-message
    /// counter (see [`ProtocolDriver::messages_conveyed`]) reaches
    /// `crash.after_message`. At most one crash is armed at a time.
    pub fn schedule_crash(&mut self, crash: CrashSchedule) {
        self.control.crash = Some(crash);
    }

    /// Messages the driver has conveyed over the link so far, across all
    /// protocol phases (the clock [`CrashSchedule::after_message`] runs
    /// on).
    pub fn messages_conveyed(&self) -> u64 {
        self.control.conveyed
    }

    /// Power-cycles one node mid-session: volatile state (outbox, pending
    /// round, retransmission slot, duplicate-suppression cache) is lost,
    /// while committed state — the channel, the side-chain log and the
    /// collected acknowledgements, which live in flash via the snapshot
    /// machinery — survives and is re-installed. The peer's
    /// stall-retransmit plus the channel's gap tolerance then reconverge
    /// the session.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] for an address that is
    /// neither node, and the underlying error when the committed state
    /// cannot be re-installed.
    pub fn power_cycle(&mut self, node: NodeAddr) -> Result<(), ProtocolError> {
        let (target, peer) = if node == self.sender.node_addr() {
            (&mut self.sender, self.receiver.endpoint.addr())
        } else if node == self.receiver.node_addr() {
            (&mut self.receiver, self.sender.endpoint.addr())
        } else {
            return Err(ProtocolError::OutOfOrder(
                "power_cycle targets a node this driver does not own",
            ));
        };
        let snapshot = target.endpoint.snapshot(peer);
        target.endpoint.clear_volatile();
        if let Some(snapshot) = snapshot {
            target.endpoint.install_snapshot(peer, &snapshot)?;
            target.endpoint.ensure_contract(peer)?;
        }
        Ok(())
    }

    /// Pumps any interrupted round to completion (or to a typed abort)
    /// without starting new work — what a harness calls after
    /// [`ProtocolDriver::power_cycle`] to let the surviving node's
    /// retransmissions reconverge the session before the next payment.
    ///
    /// # Errors
    ///
    /// Propagates a typed [`EndpointError::RoundAborted`] when the
    /// interrupted round's retry budget runs out, and any other pump
    /// error.
    pub fn resume(&mut self) -> Result<(), ProtocolError> {
        self.pump()?;
        Ok(())
    }

    // --- internals ----------------------------------------------------------

    /// Drains both endpoints' outboxes through the link.
    fn pump(&mut self) -> Result<PumpLog, ProtocolError> {
        pump_pair_with(
            &mut self.link,
            &mut self.sender.endpoint,
            &mut self.receiver.endpoint,
            &mut self.control,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyevm_device::PowerState;
    use tinyevm_trace::TraceEvent;
    use tinyevm_types::U256;

    fn driver() -> ProtocolDriver {
        ProtocolDriver::smart_parking(Wei::from(1_000_000u64))
    }

    #[test]
    fn template_must_be_published_before_opening() {
        let mut d = driver();
        assert!(matches!(
            d.open_channel(),
            Err(ProtocolError::OutOfOrder(_))
        ));
        assert!(matches!(
            d.pay(Wei::from(1u64)),
            Err(ProtocolError::OutOfOrder(_))
        ));
        assert!(matches!(
            d.close_and_settle(),
            Err(ProtocolError::OutOfOrder(_))
        ));
    }

    #[test]
    fn publish_template_locks_the_deposit() {
        let mut d = driver();
        let before = d.chain().balance(&d.sender().address());
        let template = d.publish_template().unwrap();
        assert!(d.chain().template(&template).is_some());
        let after = d.chain().balance(&d.sender().address());
        assert_eq!(before.checked_sub(after).unwrap(), Wei::from(1_000_000u64));
    }

    #[test]
    fn open_channel_deploys_the_contract_on_both_devices() {
        let mut d = driver();
        d.publish_template().unwrap();
        let report = d.open_channel().unwrap();
        assert_eq!(report.channel_id, 1);
        assert!(report.sender_create_time > Duration::from_millis(5));
        assert!(report.bytes_exchanged > 0);
        assert!(d.sender().channel().is_some());
        assert!(d.receiver().channel().is_some());
        let contract = d.sender().channel_contract().unwrap();
        assert!(!d.sender().device().world().code_of(&contract).is_empty());
        // The constructor stored the IoT sensor reading in slot 0x0C.
        assert_eq!(
            d.sender()
                .device()
                .world()
                .storage_of(&contract, U256::from(crate::contracts::SLOT_SENSOR as u64)),
            U256::from(2150u64)
        );
    }

    #[test]
    fn a_payment_round_produces_paper_scale_numbers() {
        let mut d = driver();
        let reports = d.run_session(1, Wei::from(5_000u64)).unwrap();
        let report = &reports[0];
        assert_eq!(report.sequence, 1);
        assert_eq!(report.cumulative, Wei::from(5_000u64));
        // Crypto dominates: the sender signs for 355 ms, so the end-to-end
        // latency sits in the high hundreds of milliseconds — the same
        // regime as the paper's 584 ms average.
        assert!(report.sender_sign_time >= Duration::from_millis(355));
        assert!(report.end_to_end_latency > Duration::from_millis(400));
        assert!(report.end_to_end_latency < Duration::from_secs(2));
        assert!(report.sender_active_time < report.end_to_end_latency);
        assert!(report.bytes_exchanged > 100);

        // Both side-chain logs recorded the payment and still verify.
        assert_eq!(d.sender().side_chain().len(), 1);
        assert_eq!(d.receiver().side_chain().len(), 1);
        assert!(d.sender().side_chain().verify());
        assert!(d.receiver().side_chain().verify());
        assert_eq!(d.sender().peer_signatures().len(), 1);
    }

    #[test]
    fn energy_split_matches_table_four_shape() {
        let mut d = driver();
        d.run_session(1, Wei::from(1_000u64)).unwrap();
        let report = d.sender_energy();
        // The crypto engine is the dominant consumer (paper: ~65%).
        let crypto_share = report.share_of(PowerState::CryptoEngine);
        assert!(crypto_share > 0.4, "crypto share too small: {crypto_share}");
        // Radio and CPU are minor contributors.
        assert!(report.share_of(PowerState::Tx) < 0.2);
        assert!(report.share_of(PowerState::Rx) < 0.2);
        // Total energy per round is tens of millijoules, as in Table IV.
        assert!(report.total_energy_mj() > 5.0);
        assert!(report.total_energy_mj() < 120.0);
        // The timeline contains crypto, radio, CPU and sleep states.
        let timeline = d.sender_timeline();
        assert!(timeline.iter().any(|e| e.state == PowerState::CryptoEngine));
        assert!(timeline.iter().any(|e| e.state == PowerState::Tx));
        assert!(timeline.iter().any(|e| e.state == PowerState::Rx));
        assert!(timeline.iter().any(|e| e.state == PowerState::Lpm2));
    }

    #[test]
    fn multiple_payments_accumulate_and_settle() {
        let mut d = driver();
        let reports = d.run_session(5, Wei::from(10_000u64)).unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(reports[4].sequence, 5);
        assert_eq!(reports[4].cumulative, Wei::from(50_000u64));

        let settlement = d.close_and_settle().unwrap();
        assert!(!settlement.settlement.fraud_detected);
        assert_eq!(settlement.settlement.to_receiver, Wei::from(50_000u64));
        assert_eq!(settlement.payments_exchanged, 5);
        assert_eq!(
            settlement.receiver_balance,
            Wei::from(50_000u64),
            "receiver is paid exactly the cumulative amount"
        );
        // The sender got the unspent deposit back (1_000_000 - 50_000),
        // plus its remaining genesis funds.
        assert!(settlement.sender_balance >= Wei::from(950_000u64));
        // The whole session needed only a handful of on-chain transactions.
        assert!(settlement.on_chain_transactions <= 6);
    }

    #[test]
    fn overspending_the_deposit_is_refused_off_chain() {
        let mut d = ProtocolDriver::smart_parking(Wei::from(1_000u64));
        d.publish_template().unwrap();
        d.open_channel().unwrap();
        d.pay(Wei::from(800u64)).unwrap();
        let error = d.pay(Wei::from(800u64)).unwrap_err();
        assert!(matches!(error, ProtocolError::Channel(_)));
    }

    #[test]
    fn every_protocol_step_is_a_wire_message() {
        let mut d = driver();
        d.run_session(2, Wei::from(1_000u64)).unwrap();
        d.close_and_settle().unwrap();
        // Messages on the link: 2 sensor readings + 1 channel-open at
        // opening, then (2 readings + payment + ack) per payment, then the
        // close request. All of them real encoded transfers.
        assert_eq!(d.link().total_messages(), 3 + 2 * 4 + 1);
        assert!(d.link().total_wire_bytes() > 0);
    }

    #[test]
    fn session_survives_a_lossy_link() {
        let config = LinkConfig::default().with_loss(0.2, 42);
        let mut d = ProtocolDriver::smart_parking_with_link(config, Wei::from(1_000_000u64));
        let reports = d.run_session(3, Wei::from(10_000u64)).unwrap();
        assert_eq!(reports.len(), 3);
        let settlement = d.close_and_settle().unwrap();
        assert_eq!(settlement.settlement.to_receiver, Wei::from(30_000u64));
        assert!(!settlement.settlement.fraud_detected);
    }

    #[test]
    fn session_resumes_from_a_snapshot_file_after_power_cycle() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-session-{}.snap", std::process::id()));

        // First life: open a channel, make two payments, persist.
        let mut d = driver();
        d.run_session(2, Wei::from(5_000u64)).unwrap();
        let chain_root_before = d.chain().state_root();
        d.save_session(&path).unwrap();

        // Power cycle: a brand-new driver (same device identities), resumed
        // from disk.
        let mut resumed = driver();
        resumed.restore_session(&path).unwrap();
        assert_eq!(
            resumed.chain().state_root(),
            chain_root_before,
            "restored chain is hash-identical"
        );
        assert_eq!(
            resumed.sender().snapshot().unwrap(),
            d.sender().snapshot().unwrap(),
            "restored sender endpoint is identical"
        );
        assert!(resumed.receiver().side_chain().verify());

        // The session continues where it left off...
        let report = resumed.pay(Wei::from(5_000u64)).unwrap();
        assert_eq!(report.sequence, 3);
        assert_eq!(report.cumulative, Wei::from(15_000u64));
        // ...and settles for all three payments.
        let settlement = resumed.close_and_settle().unwrap();
        assert_eq!(settlement.settlement.to_receiver, Wei::from(15_000u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incomplete_session_file_is_rejected_whole() {
        // A save interrupted by the power loss itself: only the chain
        // snapshot made it to disk. Restore must refuse rather than leave
        // the driver half-initialized.
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-partial-{}.snap", std::process::id()));
        let mut d = driver();
        d.run_session(1, Wei::from(1_000u64)).unwrap();
        tinyevm_wire::persist::write_messages(&path, &[Message::ChainSnapshot(d.chain_snapshot())])
            .unwrap();
        let mut resumed = driver();
        assert!(matches!(
            resumed.restore_session(&path),
            Err(ProtocolError::Wire(tinyevm_wire::WireError::Truncated))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_device_snapshot_is_rejected() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-foreign-{}.snap", std::process::id()));
        let mut d = driver();
        d.run_session(1, Wei::from(1_000u64)).unwrap();
        d.save_session(&path).unwrap();
        // A driver with different device identities must refuse the file
        // outright instead of restoring channels it can never sign for.
        let mut other = ProtocolDriver::new(
            OffChainNode::new("other-car", ChannelRole::Sender),
            OffChainNode::new("other-sensor", ChannelRole::Receiver),
            LinkConfig::default(),
            Wei::from(1_000_000u64),
        );
        assert!(matches!(
            other.restore_session(&path),
            Err(ProtocolError::Wire(tinyevm_wire::WireError::Value(_)))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tampered_session_file_is_rejected() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-tampered-{}.snap", std::process::id()));
        let mut d = driver();
        d.run_session(1, Wei::from(1_000u64)).unwrap();
        d.save_session(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut resumed = driver();
        assert!(matches!(
            resumed.restore_session(&path),
            Err(ProtocolError::Wire(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_traced_session_captures_rounds_phases_and_power() {
        let tracer = tinyevm_trace::TraceHandle::recording(8192);
        let mut d =
            ProtocolDriver::smart_parking(Wei::from(1_000_000u64)).with_tracer(tracer.clone());
        d.run_session(2, Wei::from(1_000u64)).unwrap();
        d.close_and_settle().unwrap();
        let snapshot = tracer.snapshot().unwrap();

        // Two completed rounds, each with reading/payment/ack phases on the
        // sender and a payment phase on the receiver, plus the close.
        assert_eq!(snapshot.events_of_kind("Round").count(), 2);
        let phases: Vec<&TraceEvent> = snapshot.events_of_kind("Phase").collect();
        assert!(phases.len() > 2 * 4, "got {} phases", phases.len());
        assert!(phases
            .iter()
            .any(|e| matches!(e, TraceEvent::Phase { phase, .. } if phase == "close")));
        // The device meters and the link reported through the same handle.
        assert!(snapshot.events_of_kind("Power").next().is_some());
        assert!(snapshot.events_of_kind("FrameTx").next().is_some());
        assert!(snapshot.events_of_kind("ContractCall").next().is_some());

        // Round latencies landed in both histograms, in the paper's regime.
        for name in ["channel.round_latency_ms", "driver.round_latency_ms"] {
            let histogram = snapshot.metrics.histogram(name).unwrap();
            assert_eq!(histogram.count(), 2);
            let p50 = histogram.p50().unwrap();
            assert!(p50 > 300.0, "{name} p50 {p50}");
        }
        // The balance gauges track the cumulative amount on both sides.
        let balances: Vec<(&str, f64)> = snapshot
            .metrics
            .gauges()
            .filter(|(name, _)| name.starts_with("channel.cumulative_wei."))
            .collect();
        assert_eq!(balances.len(), 2, "one gauge per endpoint's peer");
        assert!(balances.iter().all(|(_, value)| *value == 2_000.0));
        // Lossless link: frames were counted, nothing retransmitted.
        assert!(snapshot.metrics.counter("net.frames_tx") > 0);
        assert_eq!(snapshot.metrics.counter("net.frames_lost"), 0);
    }

    #[test]
    fn an_untraced_session_is_byte_identical_to_a_traced_one() {
        let run = |traced: bool| {
            let mut d = ProtocolDriver::smart_parking(Wei::from(1_000_000u64));
            if traced {
                d.set_tracer(tinyevm_trace::TraceHandle::recording(4096));
            }
            let reports = d.run_session(2, Wei::from(1_000u64)).unwrap();
            let settlement = d.close_and_settle().unwrap();
            (
                reports
                    .iter()
                    .map(|r| (r.sequence, r.end_to_end_latency, r.bytes_exchanged))
                    .collect::<Vec<_>>(),
                d.chain().state_root(),
                settlement.settlement.to_receiver,
                d.sender_energy().total_energy_mj().to_bits(),
            )
        };
        assert_eq!(run(false), run(true), "tracing must not perturb the run");
    }

    #[test]
    fn a_closing_partition_window_is_ridden_out_by_retransmission() {
        use tinyevm_net::{FaultConfig, MessageWindow};
        let mut d = driver();
        d.run_session(1, Wei::from(5_000u64)).unwrap();
        // Silence the link for the next three messages; the endpoints'
        // backoff retransmissions pick the round up when the window ends.
        let conveyed = d.messages_conveyed();
        d.set_link_faults(FaultConfig {
            partition: Some(MessageWindow {
                from_message: conveyed,
                to_message: conveyed + 3,
            }),
            ..FaultConfig::quiet(9)
        })
        .unwrap();
        let report = d.pay(Wei::from(5_000u64)).unwrap();
        assert_eq!(report.sequence, 2);
        let settlement = d.close_and_settle().unwrap();
        assert_eq!(settlement.settlement.to_receiver, Wei::from(10_000u64));
    }

    #[test]
    fn a_permanent_partition_aborts_the_round_with_committed_state_intact() {
        use tinyevm_net::{FaultConfig, MessageWindow};
        let mut d = driver();
        d.run_session(1, Wei::from(5_000u64)).unwrap();
        let committed = d.receiver().channel().unwrap().cumulative();
        d.set_link_faults(FaultConfig {
            partition: Some(MessageWindow {
                from_message: 0,
                to_message: u64::MAX,
            }),
            ..FaultConfig::quiet(9)
        })
        .unwrap();
        let error = d.pay(Wei::from(5_000u64)).unwrap_err();
        assert!(matches!(
            error,
            ProtocolError::Endpoint(EndpointError::RoundAborted { attempts: 5, .. })
        ));
        // Committed state on both sides is exactly what it was before.
        assert_eq!(d.receiver().channel().unwrap().cumulative(), committed);
        assert_eq!(d.receiver().side_chain().len(), 1);
        // The round died in the reading exchange, before anything was
        // signed: once the link heals the session simply continues, and
        // settles for exactly what was actually paid.
        d.clear_link_faults();
        let report = d.pay(Wei::from(5_000u64)).unwrap();
        assert_eq!(report.cumulative, Wei::from(10_000u64));
        let settlement = d.close_and_settle().unwrap();
        assert_eq!(settlement.settlement.to_receiver, Wei::from(10_000u64));
        assert!(!settlement.settlement.fraud_detected);
    }

    #[test]
    fn a_scheduled_crash_power_cycles_and_the_session_reconverges() {
        let mut d = driver();
        d.run_session(1, Wei::from(5_000u64)).unwrap();
        let receiver_addr = d.receiver().node_addr();
        let snapshot_before = d.receiver().snapshot().unwrap();
        d.schedule_crash(CrashSchedule {
            target: receiver_addr,
            after_message: d.messages_conveyed() + 2,
        });
        let error = d.pay(Wei::from(5_000u64)).unwrap_err();
        assert!(matches!(
            error,
            ProtocolError::Crashed { node } if node == receiver_addr
        ));
        d.power_cycle(receiver_addr).unwrap();
        // Committed flash state survived the power cycle byte-for-byte...
        // except for whatever the interrupted round already committed,
        // which must be a superset, never a regression.
        let snapshot_after = d.receiver().snapshot().unwrap();
        assert!(
            snapshot_after.log.len() >= snapshot_before.log.len(),
            "power cycle must never lose committed payments"
        );
        // ...the surviving sender finishes the interrupted round...
        d.resume().unwrap();
        // ...and the next payment reconverges both sides.
        let report = d.pay(Wei::from(5_000u64)).unwrap();
        assert_eq!(report.cumulative, Wei::from(15_000u64));
        let settlement = d.close_and_settle().unwrap();
        assert_eq!(settlement.settlement.to_receiver, Wei::from(15_000u64));
    }

    #[test]
    fn a_tampered_close_request_is_refused_by_the_receiver() {
        // An adversarial sender cannot settle for more than it paid: a
        // close request whose state disagrees with the receiver's channel
        // view is rejected before any signature is produced.
        let mut d = driver();
        d.run_session(1, Wei::from(5_000u64)).unwrap();
        let key = *d.sender().device().private_key();
        let mut state = d.sender().channel().unwrap().closing_state();
        state.total_to_receiver = Wei::from(900_000u64);
        let forged = tinyevm_wire::CloseRequest {
            signature: key.sign_prehashed(&state.digest()),
            public_key: key.public_key(),
            state,
        };
        let sender_addr = d.sender().node_addr();
        let error = d
            .receiver
            .endpoint_mut()
            .handle_message(sender_addr, Message::CloseRequest(forged))
            .unwrap_err();
        assert!(matches!(error, EndpointError::ProposalMismatch(_)));
        // The channel is still open and the honest close still settles.
        let settlement = d.close_and_settle().unwrap();
        assert_eq!(settlement.settlement.to_receiver, Wei::from(5_000u64));
    }
}
