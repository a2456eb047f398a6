//! The typed events the stack publishes.
//!
//! Fields are plain strings and integers (microseconds, bytes, cycle
//! counts) so the crate sits at the very bottom of the dependency stack —
//! every layer can emit without `tinyevm-trace` knowing about addresses,
//! opcodes or power-state enums. [`TraceEvent::to_json`] renders one event
//! as one JSON object — `"type"` first, then the fields in declaration
//! order — and a recorded run exports as JSONL (one event per line). The
//! shape of these objects is schema: the golden-vector suite pins it.

use crate::json::JsonObject;

/// One structured observation from somewhere in the stack.
///
/// Times are microseconds of *simulated* device/link time (the models are
/// deterministic), not host wall-clock, so traces are reproducible
/// byte-for-byte across runs and machines.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One power-state residency interval of a device's energy meter — the
    /// Figure 5 current timeline, one entry per state transition.
    Power {
        /// Device label (e.g. `"sender"`, `"sensor 0x0001"`).
        node: String,
        /// Power-state label in the paper's Table IV vocabulary.
        state: String,
        /// Interval start on the device's simulated clock.
        start_us: u64,
        /// Interval length.
        duration_us: u64,
        /// Current draw in that state (mA), so the event stream alone can
        /// reproduce the Figure 5 plot.
        current_ma: f64,
    },
    /// One link-layer frame put on the air (including each retransmission).
    FrameTx {
        /// Transmitting node label.
        from: String,
        /// Receiving node label.
        to: String,
        /// On-air size of the frame, headers included.
        bytes: u64,
        /// Time-on-air of this frame.
        airtime_us: u64,
        /// True when this transmission repeats a lost frame.
        retransmission: bool,
    },
    /// One frame the seeded loss process dropped before delivery.
    FrameLost {
        /// Transmitting node label.
        from: String,
        /// Intended receiver label.
        to: String,
        /// On-air size of the lost frame.
        bytes: u64,
    },
    /// One completed phase of a payment-channel round on one endpoint
    /// (reading → payment → ack → close).
    Phase {
        /// Endpoint label.
        node: String,
        /// Peer the channel runs against.
        peer: String,
        /// Phase name: `"reading"`, `"payment"`, `"ack"` or `"close"`.
        phase: String,
        /// Payment sequence number the phase belongs to (0 for close).
        sequence: u64,
        /// Device-time the phase took on this endpoint.
        duration_us: u64,
    },
    /// One completed payment round as the paying endpoint saw it.
    Round {
        /// Paying endpoint label.
        node: String,
        /// Receiving peer label.
        peer: String,
        /// Payment sequence number.
        sequence: u64,
        /// Cumulative channel balance after the round (wei).
        cumulative_wei: u64,
        /// End-to-end latency of the round.
        latency_us: u64,
    },
    /// One disturbance a seeded fault plan injected into a transfer.
    Fault {
        /// Transmitting node label.
        from: String,
        /// Receiving node label.
        to: String,
        /// Fault kind: `"corrupt"`, `"duplicate"`, `"reorder"`, `"replay"`,
        /// `"delay"` or `"partition"`.
        fault: String,
        /// Link-local id of the message the fault hit.
        message_id: u64,
    },
    /// One contention slot in which two or more frames overlapped on the
    /// shared medium and (unless captured) were destroyed.
    Collision {
        /// Medium-wide contention-slot index of the overlap.
        slot: u64,
        /// How many senders transmitted in the slot.
        contenders: u32,
        /// True when the strongest frame cleared the capture threshold and
        /// was decoded anyway.
        captured: bool,
    },
    /// One sender growing its contention window after a collision and
    /// drawing a fresh backoff wait.
    Backoff {
        /// Backing-off sender label.
        node: String,
        /// Contention window after the (binary exponential) growth, slots.
        window_slots: u32,
        /// Slots the sender will wait before recontending.
        wait_slots: u32,
    },
    /// One completed contract-call frame of the virtual machine, with the
    /// MCU-cycle budget broken down by opcode category.
    ContractCall {
        /// How the frame finished (`"stop"`, `"return"`, `"revert"`,
        /// `"selfdestruct"` or `"trap"`).
        outcome: String,
        /// Instructions retired, sub-frames included.
        instructions: u64,
        /// Total estimated MCU cycles.
        mcu_cycles: u64,
        /// Cycles spent in arithmetic/comparison/hash operation opcodes.
        operation_cycles: u64,
        /// Cycles spent in call/log/create smart-contract opcodes.
        smart_contract_cycles: u64,
        /// Cycles spent in stack/memory/storage opcodes.
        memory_cycles: u64,
        /// Cycles spent in blockchain-information opcodes.
        blockchain_cycles: u64,
        /// Cycles spent in the IoT opcode.
        iot_cycles: u64,
        /// Keccak-256 invocations (hashing runs in software on the MCU).
        keccak_invocations: u64,
    },
}

impl TraceEvent {
    /// Renders the event as one JSON object (one JSONL line, without the
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let object = JsonObject::tagged(self.kind());
        match self {
            TraceEvent::Power {
                node,
                state,
                start_us,
                duration_us,
                current_ma,
            } => object
                .str("node", node)
                .str("state", state)
                .u64("start_us", *start_us)
                .u64("duration_us", *duration_us)
                .f64("current_ma", *current_ma),
            TraceEvent::FrameTx {
                from,
                to,
                bytes,
                airtime_us,
                retransmission,
            } => object
                .str("from", from)
                .str("to", to)
                .u64("bytes", *bytes)
                .u64("airtime_us", *airtime_us)
                .bool("retransmission", *retransmission),
            TraceEvent::FrameLost { from, to, bytes } => {
                object.str("from", from).str("to", to).u64("bytes", *bytes)
            }
            TraceEvent::Phase {
                node,
                peer,
                phase,
                sequence,
                duration_us,
            } => object
                .str("node", node)
                .str("peer", peer)
                .str("phase", phase)
                .u64("sequence", *sequence)
                .u64("duration_us", *duration_us),
            TraceEvent::Round {
                node,
                peer,
                sequence,
                cumulative_wei,
                latency_us,
            } => object
                .str("node", node)
                .str("peer", peer)
                .u64("sequence", *sequence)
                .u64("cumulative_wei", *cumulative_wei)
                .u64("latency_us", *latency_us),
            TraceEvent::Fault {
                from,
                to,
                fault,
                message_id,
            } => object
                .str("from", from)
                .str("to", to)
                .str("fault", fault)
                .u64("message_id", *message_id),
            TraceEvent::Collision {
                slot,
                contenders,
                captured,
            } => object
                .u64("slot", *slot)
                .u64("contenders", u64::from(*contenders))
                .bool("captured", *captured),
            TraceEvent::Backoff {
                node,
                window_slots,
                wait_slots,
            } => object
                .str("node", node)
                .u64("window_slots", u64::from(*window_slots))
                .u64("wait_slots", u64::from(*wait_slots)),
            TraceEvent::ContractCall {
                outcome,
                instructions,
                mcu_cycles,
                operation_cycles,
                smart_contract_cycles,
                memory_cycles,
                blockchain_cycles,
                iot_cycles,
                keccak_invocations,
            } => object
                .str("outcome", outcome)
                .u64("instructions", *instructions)
                .u64("mcu_cycles", *mcu_cycles)
                .u64("operation_cycles", *operation_cycles)
                .u64("smart_contract_cycles", *smart_contract_cycles)
                .u64("memory_cycles", *memory_cycles)
                .u64("blockchain_cycles", *blockchain_cycles)
                .u64("iot_cycles", *iot_cycles)
                .u64("keccak_invocations", *keccak_invocations),
        }
        .finish()
    }

    /// The event's variant name, as tagged in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Power { .. } => "Power",
            TraceEvent::FrameTx { .. } => "FrameTx",
            TraceEvent::FrameLost { .. } => "FrameLost",
            TraceEvent::Phase { .. } => "Phase",
            TraceEvent::Round { .. } => "Round",
            TraceEvent::Fault { .. } => "Fault",
            TraceEvent::Collision { .. } => "Collision",
            TraceEvent::Backoff { .. } => "Backoff",
            TraceEvent::ContractCall { .. } => "ContractCall",
        }
    }
}
