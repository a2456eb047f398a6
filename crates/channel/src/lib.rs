//! Off-chain payment channels for low-power IoT devices — the TinyEVM
//! protocol layer.
//!
//! This crate implements the three-phase flow of the paper's Figure 2 on top
//! of the other substrates:
//!
//! 1. **On-chain smart contract** — a [`TemplateContract`]
//!    (`tinyevm-chain`) is published with the sender's deposit.
//! 2. **Off-chain smart contract** — the two devices generate a payment
//!    channel locally from the template ([`contracts`] holds the actual EVM
//!    bytecode, including the IoT-opcode sensor read in the constructor),
//!    then exchange [`SignedPayment`]s ordered by a logical clock, each one
//!    a stand-alone artifact that could claim money on-chain. Every state
//!    transition is appended to the node's hash-linked [`SideChainLog`].
//! 3. **On-chain commit** — either party closes the channel, both sign the
//!    final [`ChannelState`](tinyevm_chain::ChannelState), and the commit /
//!    challenge / exit machinery of the chain settles it.
//!
//! The protocol itself lives in the sans-IO [`endpoint`] module: a
//! [`ChannelEndpoint`] per node owns that node's keys, channel state
//! machines, side-chain logs and device accounting, consumes decoded
//! [`tinyevm_wire::Message`]s and local intents, and emits messages and
//! typed effects — it never touches a link, a medium or a chain. Two
//! endpoints can be driven with nothing but an in-memory message queue.
//!
//! [`ProtocolDriver`] (one sender, one receiver, one `tinyevm_net::Link`)
//! is a thin *pump* around two endpoints: it owns the chain and the
//! transport, shuttles encoded messages, and collects the timing and
//! energy measurements behind the paper's Table IV / Figure 5 and the
//! headline "584 ms per off-chain payment". Sessions persist to disk and
//! resume after a power cycle ([`ProtocolDriver::save_session`] /
//! [`ProtocolDriver::restore_session`]). Fleets — N sensors paying one
//! gateway endpoint that multiplexes them all — are driven by
//! `tinyevm-sim`'s `FleetScheduler` through the same endpoints and the
//! same contention-free pump ([`pump_contention_free`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod contracts;
pub mod endpoint;
pub mod payment;
pub mod protocol;
pub mod sidechain;

pub use channel::{ChannelConfig, ChannelError, ChannelRole, ChannelStatus, PaymentChannel};
pub use endpoint::{
    ChannelEndpoint, ChannelRegistration, Effect, EndpointError, EndpointProfile, Envelope,
    PaymentReceipt, RetryPolicy,
};
pub use payment::{PaymentError, SignedPayment};
pub use protocol::{
    pump_contention_free, CrashSchedule, OffChainNode, ProtocolDriver, ProtocolError, PumpLog,
    RoundReport, SettlementReport, Transfer,
};
pub use sidechain::{SideChainEntry, SideChainLog};

/// Link-layer node address, re-exported so transport-free endpoint code
/// needs no `tinyevm-net` import.
pub use tinyevm_net::NodeAddr;

pub use tinyevm_chain::TemplateContract;
