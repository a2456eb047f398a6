//! The fleet scheduler: N sensor endpoints against one gateway, driven by
//! a virtual-clock event loop over a contending medium — the repository's
//! one fleet driver.
//!
//! The sans-IO [`ChannelEndpoint`]s take wire messages in and put
//! envelopes out, with no transport assumptions. [`FleetScheduler`] owns
//! the chain, the medium and the endpoints, and schedules their traffic.
//! Two schedules share one implementation:
//!
//! * [`AccessScheme::SingleSlot`] — contention-free lockstep: one sensor
//!   owns the whole medium until its round completes, then the next sensor
//!   in address order speaks, through the shared [`pump_contention_free`]
//!   code path. Fleet latency is a straight N× sum and nothing contends.
//!   This is the schedule the driver-equivalence goldens pin.
//! * [`AccessScheme::SlottedAloha`] / [`AccessScheme::CsmaCa`] — every
//!   sensor starts its payment round at once; their frames contend slot by
//!   slot on a [`ContendingMedium`]; deliveries are discrete events on an
//!   [`EventQueue`](crate::EventQueue) keyed by `(time_ns, seq)`; the
//!   gateway is a serial server whose per-peer RX queues are bounded
//!   (overflow frames are shed and counted, and the senders'
//!   stall-retransmit machinery recovers them). Endpoint `wait()` pacing,
//!   retry backoff deadlines and crypto/processing costs all advance the
//!   same virtual clocks, so a run is reproducible byte for byte.
//!
//! Intent phases that are pure per-sensor computation (signing a payment,
//! signing a close) are sharded across `jobs` worker threads between event
//! barriers; shards own disjoint sensors and results merge in address
//! order, so the `jobs` value never changes a single byte of the outcome.
//!
//! Uplink frames contend; gateway replies ride dedicated coordinator
//! downlink slots (as a TSCH schedule would provision), so acknowledgement
//! traffic cannot be starved by a large uplink backlog.
//!
//! The gateway tracks every sensor's health: transport trouble degrades a
//! sensor until its next clean round, and [`QUARANTINE_THRESHOLD`]
//! protocol violations quarantine it, excluding it from further rounds
//! and from settlement without blocking the rest of the fleet. The whole
//! multi-session state — chain plus 2 × N channel endpoints — persists as
//! one wire-format file and restores after a power cycle
//! ([`FleetScheduler::save_session`] / [`FleetScheduler::restore_session`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::time::Duration;

use tinyevm_chain::{Blockchain, TemplateConfig};
use tinyevm_channel::{
    pump_contention_free, ChannelEndpoint, ChannelError, ChannelRegistration, Effect,
    EndpointError, Envelope, PaymentChannel, PaymentError, PaymentReceipt, ProtocolError,
    RetryPolicy,
};
use tinyevm_device::SimTime;
use tinyevm_net::{
    AccessScheme, ContendingMedium, ContentionConfig, FaultConfig, LinkConfig, MediumError,
    NodeAddr, Radio, SlotOutcome, DEFAULT_RX_QUEUE_CAPACITY,
};
use tinyevm_trace::TraceHandle;
use tinyevm_types::{Address, Wei, H256};
use tinyevm_wire::{persist, ChainSnapshot, ChannelSnapshot, EndpointRole, Message, WireError};

use crate::gateway::{
    classify, FaultClass, GatewayRoundReport, GatewaySettlementReport, SensorHealth, SensorSummary,
    GATEWAY_ADDR, QUARANTINE_THRESHOLD,
};

/// Hard ceiling on contention slots per drive phase — a deterministic
/// backstop that turns a scheduling bug into a typed error instead of an
/// endless loop. At 5 ms slots this is ~2.8 virtual hours, far above any
/// legitimate sweep point.
const SLOT_BUDGET: u64 = 2_000_000;

/// Configuration of a simulated fleet session.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of sensors (addresses `1..=N`; the gateway at
    /// [`GATEWAY_ADDR`] for fleets that fit below it, `N + 1` beyond).
    pub sensors: usize,
    /// Base link configuration (bit rate, loss, retries; per-endpoint
    /// loss seeds derive from its seed and the endpoint address).
    pub link: LinkConfig,
    /// Deposit locked per channel.
    pub deposit: Wei,
    /// Medium-access model arbitrating uplink slots.
    pub contention: ContentionConfig,
    /// Worker threads for the sharded intent phases. Never changes the
    /// simulation's outcome — only host wall-clock.
    pub jobs: usize,
    /// Bound on each per-peer RX queue at the gateway and the sensors.
    pub rx_queue_capacity: usize,
    /// Retransmission policy installed on every endpoint. `None` keeps
    /// the endpoint default for single-slot schedules (lockstep
    /// equivalence) and installs a fleet-scaled policy for contended
    /// ones: the gateway is a serial server, so a sensor deep in an
    /// N-sensor backlog must keep retrying for roughly N payment-service
    /// times before giving up.
    pub retry: Option<RetryPolicy>,
}

impl FleetConfig {
    /// A CSMA/CA fleet with default link, deposit and queue bound.
    pub fn csma(sensors: usize, seed: u64) -> Self {
        FleetConfig {
            sensors,
            link: LinkConfig::default(),
            deposit: Wei::from(1_000_000u64),
            contention: ContentionConfig::csma(seed),
            jobs: 1,
            rx_queue_capacity: DEFAULT_RX_QUEUE_CAPACITY,
            retry: None,
        }
    }

    /// The retry policy a contended fleet of `sensors` runs unless one is
    /// configured explicitly: backoff capped near the fleet's serial
    /// service horizon (~25 ms of gateway work per queued sensor), enough
    /// attempts to ride out a full backlog rotation.
    pub fn fleet_retry_policy(sensors: usize) -> RetryPolicy {
        let cap_ms = (sensors as u64).saturating_mul(25).max(800);
        RetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(cap_ms),
        }
    }

    /// A slotted-ALOHA fleet.
    pub fn aloha(sensors: usize, tx_probability: f64, seed: u64) -> Self {
        FleetConfig {
            contention: ContentionConfig::aloha(tx_probability, seed),
            ..FleetConfig::csma(sensors, seed)
        }
    }

    /// The contention-free single-slot schedule (lockstep-equivalent).
    pub fn single_slot(sensors: usize) -> Self {
        FleetConfig {
            contention: ContentionConfig::single_slot(),
            ..FleetConfig::csma(sensors, 0)
        }
    }
}

/// Aggregate measurements of a finished (or running) fleet session.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Completed payment rounds.
    pub completed_payments: u64,
    /// Rounds abandoned after the retry budget ran out.
    pub aborted_rounds: u64,
    /// Virtual time the whole session spanned.
    pub sim_duration: Duration,
    /// Contention slots resolved.
    pub slots: u64,
    /// Slots in which frames overlapped.
    pub collision_events: u64,
    /// Frames destroyed in collisions.
    pub frames_collided: u64,
    /// Uplink transmission attempts that reached the air (collided frames
    /// excluded).
    pub uplink_conveys: u64,
    /// Airtime wasted by collisions.
    pub collision_airtime: Duration,
    /// Total medium busy time: per-endpoint airtime + collision waste.
    pub busy_airtime: Duration,
    /// Frames shed because a bounded per-peer RX queue was full.
    pub frames_dropped_queue_full: u64,
    /// Completed payments per virtual second.
    pub goodput_rounds_per_s: f64,
    /// Fraction of virtual time the medium was busy.
    pub airtime_utilization: f64,
    /// Fraction of transmitted frames destroyed by collisions.
    pub collision_rate: f64,
}

/// One discrete event on the virtual clock.
#[derive(Debug)]
enum SimEvent {
    /// A contention-slot boundary: arbitrate the ready senders.
    Slot,
    /// A frame finishing its flight and reaching `to`'s radio.
    Deliver {
        from: NodeAddr,
        to: NodeAddr,
        bytes: Vec<u8>,
        wire_bytes: usize,
    },
}

/// The discrete-event fleet scheduler — see the module docs.
///
/// # Example
///
/// ```
/// use tinyevm_sim::{FleetConfig, FleetScheduler};
/// use tinyevm_types::Wei;
///
/// let mut fleet = FleetScheduler::new(FleetConfig::single_slot(4));
/// fleet.open_all().unwrap();
/// fleet.run(2, Wei::from(1_000u64)).unwrap();
/// let report = fleet.settle_all().unwrap();
/// assert_eq!(report.settlements.len(), 4);
/// assert_eq!(report.total_to_gateway, Wei::from(8_000u64));
/// ```
#[derive(Debug)]
pub struct FleetScheduler {
    config: FleetConfig,
    /// [`GATEWAY_ADDR`] for fleets that fit below it, `N + 1` beyond.
    gateway_addr: NodeAddr,
    chain: Blockchain,
    gateway: ChannelEndpoint,
    sensors: Vec<ChannelEndpoint>,
    medium: ContendingMedium,
    idle_gap: Duration,
    clock: SimTime,
    queue: crate::event::EventQueue<SimEvent>,
    slots_pending: u32,
    /// Per sensor: a polled envelope awaiting a slot win.
    pending_tx: Vec<Option<Envelope>>,
    /// Per sensor: frames in the air involving it (either direction).
    inflight: Vec<u32>,
    /// Per sensor: wire bytes moved since its current round began.
    round_bytes: Vec<usize>,
    /// Wire sizes of frames parked in the gateway's per-peer RX queues
    /// (mirrors the medium queues so RX energy is charged per frame).
    queued_wire_sizes: BTreeMap<NodeAddr, VecDeque<usize>>,
    health: Vec<(SensorHealth, u32)>,
    rounds: Vec<GatewayRoundReport>,
    /// Per sensor: payment rounds completed, bumped with every push onto
    /// `rounds`.
    completed: Vec<u64>,
    aborted_rounds: u64,
    uplink_conveys: u64,
    opened: bool,
    tracer: TraceHandle,
}

/// True for the wire-level failures the shared pump drops silently: the
/// sender's stall-retransmit machinery recovers the round.
fn droppable(error: &EndpointError) -> bool {
    matches!(
        error,
        EndpointError::Wire(_)
            | EndpointError::Channel(ChannelError::Payment(PaymentError::StaleSequence { .. }))
            | EndpointError::BadSignature
            | EndpointError::UnexpectedMessage { .. }
            | EndpointError::OutOfOrder(_)
    )
}

impl FleetScheduler {
    /// Builds the fleet: N sensor endpoints (addresses `1..=N`), one
    /// gateway endpoint (at [`GATEWAY_ADDR`] when the fleet fits below
    /// it, at address `N + 1` for larger sweeps), a contending medium and
    /// a fresh chain funding each sensor's deposit.
    ///
    /// # Panics
    ///
    /// Panics when `sensors` is 0 or exceeds the 16-bit address space,
    /// or when the link configuration is invalid.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.sensors >= 1, "a gateway needs at least one sensor");
        assert!(
            config.sensors < usize::from(u16::MAX),
            "sensor addresses exceed the 16-bit address space"
        );
        let gateway_addr = if config.sensors < usize::from(GATEWAY_ADDR.value()) {
            GATEWAY_ADDR
        } else {
            NodeAddr::new(config.sensors as u16 + 1)
        };
        let mut gateway = ChannelEndpoint::gateway("gateway", gateway_addr);
        let mut medium =
            match ContendingMedium::new(gateway_addr, config.link.clone(), config.contention) {
                Ok(medium) => medium,
                Err(error) => panic!("invalid medium configuration: {error}"),
            };
        medium
            .inner_mut()
            .set_rx_queue_capacity(config.rx_queue_capacity);
        let retry = match (&config.retry, &config.contention.scheme) {
            (Some(policy), _) => Some(*policy),
            (None, AccessScheme::SingleSlot) => None,
            (None, _) => Some(FleetConfig::fleet_retry_policy(config.sensors)),
        };
        if let Some(policy) = retry {
            gateway.set_retry_policy(policy);
        }
        let mut chain = Blockchain::new();
        let sensors: Vec<ChannelEndpoint> = (0..config.sensors)
            .map(|index| {
                let mut endpoint = ChannelEndpoint::fleet_sensor(
                    &format!("sensor-{:02}", index + 1),
                    NodeAddr::new(index as u16 + 1),
                );
                if let Some(policy) = retry {
                    endpoint.set_retry_policy(policy);
                }
                medium
                    .attach(endpoint.addr())
                    .expect("sensor addresses are unique");
                chain.fund(
                    endpoint.account(),
                    config.deposit.saturating_add(Wei::from_eth(1)),
                );
                endpoint
            })
            .collect();
        let count = config.sensors;
        FleetScheduler {
            config,
            gateway_addr,
            chain,
            gateway,
            sensors,
            medium,
            idle_gap: Duration::from_millis(120),
            clock: SimTime::ZERO,
            queue: crate::event::EventQueue::new(),
            slots_pending: 0,
            pending_tx: (0..count).map(|_| None).collect(),
            inflight: vec![0; count],
            round_bytes: vec![0; count],
            queued_wire_sizes: BTreeMap::new(),
            health: vec![(SensorHealth::Healthy, 0); count],
            rounds: Vec::new(),
            completed: vec![0; count],
            aborted_rounds: 0,
            uplink_conveys: 0,
            opened: false,
            tracer: TraceHandle::default(),
        }
    }

    /// Routes the whole fleet's trace output through `tracer`.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        for sensor in &mut self.sensors {
            sensor.set_tracer(tracer.clone());
        }
        self.gateway.set_tracer(tracer.clone());
        self.medium.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    // --- accessors -------------------------------------------------------

    /// The chain settling all channels.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The gateway's endpoint.
    pub fn gateway(&self) -> &ChannelEndpoint {
        &self.gateway
    }

    /// The sensor endpoints, in address order.
    pub fn sensors(&self) -> &[ChannelEndpoint] {
        &self.sensors
    }

    /// The contending medium (collision and airtime accounting).
    pub fn medium(&self) -> &ContendingMedium {
        &self.medium
    }

    /// Reports of every completed payment, in completion order.
    pub fn rounds(&self) -> &[GatewayRoundReport] {
        &self.rounds
    }

    /// Health of sensor `index`.
    pub fn sensor_health(&self, index: usize) -> Option<SensorHealth> {
        self.health.get(index).map(|(health, _)| *health)
    }

    /// Number of currently quarantined sensors.
    pub fn quarantined_count(&self) -> usize {
        self.health
            .iter()
            .filter(|(health, _)| *health == SensorHealth::Quarantined)
            .count()
    }

    /// Rounds abandoned after their retry budget ran out.
    pub fn aborted_rounds(&self) -> u64 {
        self.aborted_rounds
    }

    /// Virtual time the session has spanned so far: the scheduler clock or
    /// the furthest device clock, whichever is later.
    pub fn sim_duration(&self) -> Duration {
        let mut latest = self.clock.max(self.gateway.device().sim_now());
        for sensor in &self.sensors {
            latest = latest.max(sensor.device().sim_now());
        }
        latest.as_duration()
    }

    /// Aggregate goodput / airtime / collision measurements.
    pub fn report(&self) -> FleetReport {
        let sim_duration = self.sim_duration();
        let busy = self.medium.total_busy_airtime();
        let frames_collided = self.medium.frames_collided();
        let attempts = frames_collided + self.uplink_conveys;
        let seconds = sim_duration.as_secs_f64();
        FleetReport {
            sensors: self.sensors.len(),
            completed_payments: self.rounds.len() as u64,
            aborted_rounds: self.aborted_rounds,
            sim_duration,
            slots: self.medium.slots_elapsed(),
            collision_events: self.medium.collision_events(),
            frames_collided,
            uplink_conveys: self.uplink_conveys,
            collision_airtime: self.medium.collision_airtime(),
            busy_airtime: busy,
            frames_dropped_queue_full: self.medium.inner().frames_dropped_queue_full(),
            goodput_rounds_per_s: if seconds > 0.0 {
                self.rounds.len() as f64 / seconds
            } else {
                0.0
            },
            airtime_utilization: if seconds > 0.0 {
                busy.as_secs_f64() / seconds
            } else {
                0.0
            },
            collision_rate: if attempts > 0 {
                frames_collided as f64 / attempts as f64
            } else {
                0.0
            },
        }
    }

    /// A stable textual digest of everything observable about the session:
    /// per-sensor channel and clock state, completed rounds, medium and
    /// collision accounting. Two runs with the same seed must produce the
    /// same fingerprint at any `jobs` value — the determinism tests pin it.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (index, sensor) in self.sensors.iter().enumerate() {
            let (seq, cumulative) = sensor
                .channel(self.gateway_addr)
                .map(|c| (c.payments_seen(), c.cumulative()))
                .unwrap_or((0, Wei::ZERO));
            let stats = self
                .medium
                .stats(sensor.addr())
                .cloned()
                .unwrap_or_default();
            out.push_str(&format!(
                "sensor {} clock={}ns seq={} cum={} up={}B down={}B rexmit={} airtime={}ns \
                 collisions={} health={:?} violations={}\n",
                sensor.addr(),
                sensor.device().now().as_nanos(),
                seq,
                cumulative,
                stats.uplink_wire_bytes,
                stats.downlink_wire_bytes,
                stats.retransmissions,
                stats.airtime.as_nanos(),
                self.medium.sender_collisions(sensor.addr()),
                self.health[index].0,
                self.health[index].1,
            ));
        }
        out.push_str(&format!(
            "gateway clock={}ns\n",
            self.gateway.device().now().as_nanos()
        ));
        for round in &self.rounds {
            out.push_str(&format!(
                "round sensor={} seq={} cum={} e2e={}ns bytes={}\n",
                round.sensor,
                round.sequence,
                round.cumulative,
                round.end_to_end_latency.as_nanos(),
                round.bytes_exchanged,
            ));
        }
        let inner = self.medium.inner();
        out.push_str(&format!(
            "medium messages={} wire_bytes={} airtime={}ns slots={} collisions={} \
             frames_collided={} collision_airtime={}ns dropped={} aborted={}\n",
            inner.total_messages(),
            inner.total_wire_bytes(),
            inner.total_airtime().as_nanos(),
            self.medium.slots_elapsed(),
            self.medium.collision_events(),
            self.medium.frames_collided(),
            self.medium.collision_airtime().as_nanos(),
            inner.frames_dropped_queue_full(),
            self.aborted_rounds,
        ));
        out
    }

    // --- session phases --------------------------------------------------

    /// Opens every sensor's channel. Chain registration is serial (one
    /// chain); the open handshakes then run through the configured
    /// schedule — all sensors at once under contention, one at a time in
    /// single-slot mode.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] when called twice, or the
    /// underlying chain / device / medium error.
    pub fn open_all(&mut self) -> Result<(), ProtocolError> {
        if self.opened {
            return Err(ProtocolError::OutOfOrder("channels are already open"));
        }
        let gateway_account = self.gateway.account();
        let single_slot = self.single_slot();
        for index in 0..self.sensors.len() {
            let sensor_account = self.sensors[index].account();
            let sensor_addr = self.sensors[index].addr();
            let template = self.chain.publish_template(TemplateConfig {
                sender: sensor_account,
                receiver: gateway_account,
                deposit: self.config.deposit,
                challenge_period_blocks: 10,
            })?;
            let channel_id = self
                .chain
                .create_payment_channel(sensor_account, template)?;
            let registration = ChannelRegistration {
                template,
                channel_id,
                sender: sensor_account,
                receiver: gateway_account,
                deposit_cap: self.config.deposit,
                anchor: self
                    .chain
                    .template(&template)
                    .map(|t| t.side_chain_root().hash)
                    .unwrap_or(H256::ZERO),
            };
            self.gateway
                .expect_channel(sensor_addr, registration.clone())?;
            self.sensors[index].open(self.gateway_addr, registration)?;
            if single_slot {
                self.pump_single(index)?;
            }
        }
        if !single_slot {
            let mut active: BTreeSet<usize> = (0..self.sensors.len()).collect();
            self.drive(&mut active)?;
        }
        self.pause_all();
        self.opened = true;
        Ok(())
    }

    /// Runs `rounds` fleet-wide payment rounds of `amount` each. Under
    /// contention every healthy sensor's round is in flight at once;
    /// single-slot mode pays in address order, one sensor at a time.
    /// Per-sensor faults degrade or quarantine the sensor and never block
    /// the rest of the fleet.
    ///
    /// # Errors
    ///
    /// Propagates the first driver-level error (out-of-order use, chain
    /// trouble) — per-sensor faults are absorbed into the health state.
    pub fn run(&mut self, rounds: usize, amount: Wei) -> Result<(), ProtocolError> {
        for _ in 0..rounds {
            if self.single_slot() {
                self.run_lockstep_round(amount)?;
            } else {
                self.run_contended_round(amount)?;
            }
        }
        Ok(())
    }

    /// One payment round of sensor `index` on its own. Under a contended
    /// scheme the round still runs the event loop with only this sensor
    /// active on the medium. Faults are recorded against the sensor's
    /// health exactly as fleet rounds record them, so repeated violations
    /// (an overdrawing sensor, say) quarantine it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] for an out-of-range index or
    /// before [`FleetScheduler::open_all`], [`ProtocolError::Quarantined`]
    /// for a quarantined sensor, and otherwise the per-sensor fault
    /// (already recorded) or a driver-level error.
    pub fn pay(&mut self, index: usize, amount: Wei) -> Result<(), ProtocolError> {
        let Some(&(health, _)) = self.health.get(index) else {
            return Err(ProtocolError::OutOfOrder("no such sensor"));
        };
        if health == SensorHealth::Quarantined {
            return Err(ProtocolError::Quarantined {
                sensor: self.sensors[index].addr(),
            });
        }
        let before = self.completed[index];
        let mut result = if self.single_slot() {
            self.pay_single(index, amount)
        } else {
            self.pay_contended_one(index, amount)
        };
        if result.is_ok() && self.completed[index] == before {
            result = Err(ProtocolError::OutOfOrder("payment round did not complete"));
        }
        match &result {
            // A clean round clears a transport-degraded state; recorded
            // violations are not forgiven.
            Ok(()) => {
                if self.health[index].0 == SensorHealth::Degraded {
                    self.health[index].0 = SensorHealth::Healthy;
                }
            }
            Err(error) => self.record_fault(index, error),
        }
        result
    }

    fn pay_contended_one(&mut self, index: usize, amount: Wei) -> Result<(), ProtocolError> {
        self.sensors[index].pay(self.gateway_addr, amount)?;
        self.round_bytes[index] = 0;
        let mut active = BTreeSet::from([index]);
        self.drive(&mut active)
    }

    /// Closes and settles every non-quarantined channel on the chain:
    /// close handshakes ride the configured schedule, then the gateway
    /// verifies **all closing signatures in one batched multi-scalar
    /// pass**, counter-signs, and the chain settles each template after
    /// one shared challenge period. Quarantined channels stay open (a
    /// later on-chain challenge can still settle them unilaterally).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before channels are open, or
    /// the chain's rejection.
    pub fn settle_all(&mut self) -> Result<GatewaySettlementReport, ProtocolError> {
        let gateway_account = self.gateway.account();
        if self.single_slot() {
            for index in 0..self.sensors.len() {
                if self.health[index].0 == SensorHealth::Quarantined {
                    continue;
                }
                self.sensors[index].close(self.gateway_addr)?;
                self.pump_single(index)?;
            }
        } else {
            let quarantined: Vec<bool> = self
                .health
                .iter()
                .map(|(health, _)| *health == SensorHealth::Quarantined)
                .collect();
            let gateway_addr = self.gateway_addr;
            let results = self.shard_intents(|sensor, index| {
                if quarantined[index] {
                    None
                } else {
                    Some(sensor.close(gateway_addr))
                }
            });
            let mut active = BTreeSet::new();
            for (index, result) in results.into_iter().enumerate() {
                match result {
                    None => {}
                    Some(Ok(_)) => {
                        active.insert(index);
                    }
                    Some(Err(error)) => return Err(error.into()),
                }
            }
            self.drive(&mut active)?;
        }
        let commits = self.gateway.finalize_closes()?;
        let mut templates = Vec::with_capacity(self.sensors.len());
        for effect in commits {
            let Effect::CommitReady { peer, envelope } = effect else {
                continue;
            };
            let template = envelope.state.template;
            self.chain
                .commit_channel_state(gateway_account, template, &envelope)?;
            self.chain.start_exit(gateway_account, template)?;
            templates.push((peer, template));
        }
        // One shared challenge period covers every exit (all templates use
        // the same period), then each settles individually.
        self.chain.advance_blocks(11);
        let mut settlements = Vec::with_capacity(templates.len());
        let mut total_to_gateway = Wei::ZERO;
        for (sensor_addr, template) in templates {
            let settlement = self.chain.finalize_template(gateway_account, template)?;
            total_to_gateway = total_to_gateway.saturating_add(settlement.to_receiver);
            settlements.push((sensor_addr, settlement));
        }
        Ok(GatewaySettlementReport {
            settlements,
            total_to_gateway,
            gateway_balance: self.chain.balance(&gateway_account),
            on_chain_transactions: self.chain.transactions().len(),
        })
    }

    // --- health, faults and summaries ------------------------------------

    /// Installs a fault plan on one sensor's uplink/downlink (see
    /// [`FaultConfig`]); the rest of the fleet is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] for an out-of-range index and
    /// [`ProtocolError::Medium`] for an invalid configuration.
    pub fn set_sensor_faults(
        &mut self,
        index: usize,
        config: FaultConfig,
    ) -> Result<(), ProtocolError> {
        let addr = self.sensor_addr(index)?;
        self.medium.inner_mut().set_faults(addr, config)?;
        Ok(())
    }

    /// Removes any fault plan from one sensor's endpoint on the medium.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] for an out-of-range index.
    pub fn clear_sensor_faults(&mut self, index: usize) -> Result<(), ProtocolError> {
        let addr = self.sensor_addr(index)?;
        self.medium.inner_mut().clear_faults(addr)?;
        Ok(())
    }

    /// Per-sensor summary rows, in address order.
    pub fn sensor_summaries(&self) -> Vec<SensorSummary> {
        self.sensors
            .iter()
            .zip(&self.health)
            .map(|(sensor, &(health, violations))| {
                let latencies = sensor.latencies(self.gateway_addr).unwrap_or(&[]);
                let mean_latency = if latencies.is_empty() {
                    Duration::ZERO
                } else {
                    latencies.iter().sum::<Duration>() / latencies.len() as u32
                };
                let channel = sensor.channel(self.gateway_addr);
                SensorSummary {
                    addr: sensor.addr(),
                    account: sensor.account(),
                    payments: channel.map(PaymentChannel::payments_seen).unwrap_or(0),
                    paid: channel.map(PaymentChannel::cumulative).unwrap_or(Wei::ZERO),
                    mean_latency,
                    energy_mj: sensor.device().energy_report().total_energy_mj(),
                    wire: self
                        .medium
                        .stats(sensor.addr())
                        .cloned()
                        .unwrap_or_default(),
                    health,
                    violations,
                }
            })
            .collect()
    }

    // --- persistence -----------------------------------------------------

    /// Writes the whole multi-session state — the chain plus both
    /// endpoints of every channel — to one wire-format persistence file.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before channels are open and
    /// [`ProtocolError::Wire`] on filesystem failure.
    pub fn save_session(&self, path: &Path) -> Result<(), ProtocolError> {
        let mut messages = Vec::with_capacity(1 + 2 * self.sensors.len());
        messages.push(Message::ChainSnapshot(ChainSnapshot::capture(&self.chain)));
        for sensor in &self.sensors {
            let sensor_snapshot = sensor
                .snapshot(self.gateway_addr)
                .ok_or(ProtocolError::OutOfOrder("open_all first"))?;
            messages.push(Message::ChannelSnapshot(sensor_snapshot));
            let gateway_snapshot = self
                .gateway
                .snapshot(sensor.addr())
                .ok_or(ProtocolError::OutOfOrder("open_all first"))?;
            messages.push(Message::ChannelSnapshot(gateway_snapshot));
        }
        persist::write_messages(path, &messages)?;
        Ok(())
    }

    /// Restores a session saved by [`FleetScheduler::save_session`] into
    /// this fleet (which must have the same size and device identities).
    /// The file is validated as a whole before any state changes: the
    /// chain snapshot must be present, every sensor must have a sender and
    /// a receiver snapshot agreeing on the channel, and all templates must
    /// exist on the restored chain. Measurement history
    /// ([`FleetScheduler::rounds`], aborted rounds, per-sensor latencies)
    /// is cleared — it belongs to the process that was lost in the power
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Wire`] for unreadable, incomplete,
    /// tampered or foreign files and a device error when a channel
    /// contract cannot be re-created.
    pub fn restore_session(&mut self, path: &Path) -> Result<(), ProtocolError> {
        let mut chain = None;
        let mut senders: BTreeMap<Address, ChannelSnapshot> = BTreeMap::new();
        let mut receivers: BTreeMap<Address, ChannelSnapshot> = BTreeMap::new();
        for message in persist::read_messages(path)? {
            match message {
                Message::ChainSnapshot(snapshot) => chain = Some(snapshot.restore()?),
                Message::ChannelSnapshot(snapshot) => {
                    let by_party = match snapshot.role {
                        EndpointRole::Sender => &mut senders,
                        EndpointRole::Receiver => &mut receivers,
                    };
                    by_party.insert(snapshot.sender, snapshot);
                }
                other => {
                    return Err(ProtocolError::UnexpectedMessage {
                        expected: "snapshot",
                        got: other.label(),
                    })
                }
            }
        }
        let Some(chain) = chain else {
            return Err(ProtocolError::Wire(WireError::Truncated));
        };
        if senders.len() != self.sensors.len() || receivers.len() != self.sensors.len() {
            return Err(ProtocolError::Wire(WireError::Truncated));
        }
        // Validate and decode everything before committing any state.
        let gateway_account = self.gateway.account();
        for sensor in &self.sensors {
            let account = sensor.account();
            let (Some(sender_snapshot), Some(receiver_snapshot)) =
                (senders.get(&account), receivers.get(&account))
            else {
                return Err(ProtocolError::Wire(WireError::Value(
                    "snapshot is missing a fleet device's channel",
                )));
            };
            if sender_snapshot.template != receiver_snapshot.template
                || sender_snapshot.channel_id != receiver_snapshot.channel_id
                || sender_snapshot.receiver != receiver_snapshot.receiver
                || sender_snapshot.deposit_cap != receiver_snapshot.deposit_cap
            {
                return Err(ProtocolError::Wire(WireError::Value(
                    "endpoint snapshots describe different channels",
                )));
            }
            if sender_snapshot.receiver != gateway_account {
                return Err(ProtocolError::Wire(WireError::Value(
                    "snapshot belongs to a different gateway",
                )));
            }
            if chain.template(&sender_snapshot.template).is_none() {
                return Err(ProtocolError::Wire(WireError::Value(
                    "snapshot template is not on the restored chain",
                )));
            }
            PaymentChannel::restore(sender_snapshot)?;
            PaymentChannel::restore(receiver_snapshot)?;
        }

        // Commit. Measurement history describes the life of *this*
        // process, not the restored session — a power cycle loses it, so
        // it is cleared rather than left to mix stale numbers with
        // restored channels. Device meters and medium statistics likewise
        // keep counting from boot; the contract re-creations below are
        // part of that boot cost, exactly as on real flash-restored
        // hardware.
        self.chain = chain;
        self.rounds.clear();
        self.completed.fill(0);
        self.aborted_rounds = 0;
        // Health is the gateway process's volatile protection state; a
        // power cycle starts every sensor back at Healthy.
        self.health.fill((SensorHealth::Healthy, 0));
        let stale_peers: Vec<NodeAddr> = self.gateway.peers().collect();
        for peer in stale_peers {
            self.gateway.drop_session(peer);
        }
        for sensor in &mut self.sensors {
            let account = sensor.account();
            let sensor_addr = sensor.addr();
            sensor.drop_session(self.gateway_addr);
            sensor.install_snapshot(self.gateway_addr, &senders[&account])?;
            sensor.ensure_contract(self.gateway_addr)?;
            self.gateway
                .install_snapshot(sensor_addr, &receivers[&account])?;
            self.gateway.ensure_contract(sensor_addr)?;
        }
        self.opened = true;
        Ok(())
    }

    // --- single-slot (lockstep) path -------------------------------------

    fn single_slot(&self) -> bool {
        matches!(self.config.contention.scheme, AccessScheme::SingleSlot)
    }

    /// One sensor's turn owning the whole medium: the shared
    /// contention-free pump.
    fn pump_single(&mut self, index: usize) -> Result<tinyevm_channel::PumpLog, ProtocolError> {
        pump_contention_free(
            self.medium.inner_mut(),
            &mut self.sensors[index],
            &mut self.gateway,
        )
    }

    fn run_lockstep_round(&mut self, amount: Wei) -> Result<(), ProtocolError> {
        for index in 0..self.sensors.len() {
            if self.health[index].0 == SensorHealth::Quarantined {
                continue;
            }
            if let Err(error) = self.pay(index, amount) {
                if matches!(classify(&error), FaultClass::Fatal) {
                    return Err(error);
                }
            }
        }
        Ok(())
    }

    fn pay_single(&mut self, index: usize, amount: Wei) -> Result<(), ProtocolError> {
        self.sensors[index].pay(self.gateway_addr, amount)?;
        let log = self.pump_single(index)?;
        let bytes = log.wire_bytes();
        for (_, effect) in &log.effects {
            if let Effect::PaymentCompleted { receipt, .. } = effect {
                self.complete_round(index, receipt, bytes);
            }
        }
        Ok(())
    }

    // --- contended (event-driven) path -----------------------------------

    fn run_contended_round(&mut self, amount: Wei) -> Result<(), ProtocolError> {
        let quarantined: Vec<bool> = self
            .health
            .iter()
            .map(|(health, _)| *health == SensorHealth::Quarantined)
            .collect();
        // Event barrier: every healthy sensor signs its payment intent, a
        // pure per-sensor computation sharded across the worker threads.
        let gateway_addr = self.gateway_addr;
        let results = self.shard_intents(|sensor, index| {
            if quarantined[index] {
                None
            } else {
                Some(sensor.pay(gateway_addr, amount))
            }
        });
        let mut active = BTreeSet::new();
        let before = self.completed.clone();
        for (index, result) in results.into_iter().enumerate() {
            match result {
                None => {}
                Some(Ok(_)) => {
                    self.round_bytes[index] = 0;
                    active.insert(index);
                }
                Some(Err(error)) => {
                    let error = ProtocolError::from(error);
                    self.record_fault(index, &error);
                    if matches!(classify(&error), FaultClass::Fatal) {
                        return Err(error);
                    }
                }
            }
        }
        self.drive(&mut active)?;
        // A sensor that completed its round cleanly recovers from a
        // transport-degraded state, as a single-sensor `pay` does.
        for (index, (health, _)) in self.health.iter_mut().enumerate() {
            if self.completed[index] > before[index] && *health == SensorHealth::Degraded {
                *health = SensorHealth::Healthy;
            }
        }
        Ok(())
    }

    /// Books one completed payment round of sensor `index`.
    fn complete_round(&mut self, index: usize, receipt: &PaymentReceipt, bytes_exchanged: usize) {
        self.tracer.observe(
            "driver.round_latency_ms",
            receipt.end_to_end_latency.as_secs_f64() * 1_000.0,
        );
        self.rounds.push(GatewayRoundReport {
            sensor: self.sensors[index].addr(),
            sequence: receipt.sequence,
            cumulative: receipt.cumulative,
            end_to_end_latency: receipt.end_to_end_latency,
            bytes_exchanged,
        });
        self.completed[index] += 1;
    }

    /// Applies one per-sensor intent across the fleet, sharded over
    /// `jobs` scoped threads. Shards are contiguous address ranges and
    /// results merge back in address order, so the thread count never
    /// affects the outcome.
    fn shard_intents<F>(&mut self, intent: F) -> Vec<Option<Result<Vec<Effect>, EndpointError>>>
    where
        F: Fn(&mut ChannelEndpoint, usize) -> Option<Result<Vec<Effect>, EndpointError>> + Sync,
    {
        let jobs = self.config.jobs.max(1).min(self.sensors.len());
        let shard_len = self.sensors.len().div_ceil(jobs);
        let intent = &intent;
        let mut results = Vec::with_capacity(self.sensors.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard, chunk) in self.sensors.chunks_mut(shard_len).enumerate() {
                handles.push(scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(offset, sensor)| intent(sensor, shard * shard_len + offset))
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                results.extend(handle.join().expect("intent shard panicked"));
            }
        });
        results
    }

    /// Runs the event loop until every sensor in `active` is quiescent
    /// (round complete or aborted) and the gateway has served every frame
    /// parked in its RX queues. A sensor goes quiescent as soon as its
    /// last frame has landed, but the serial gateway may not have
    /// processed that frame yet; a fire-and-forget close request parked
    /// there would otherwise be lost to settlement.
    fn drive(&mut self, active: &mut BTreeSet<usize>) -> Result<(), ProtocolError> {
        let slot_limit = self.medium.slots_elapsed() + SLOT_BUDGET;
        self.ensure_slot();
        loop {
            self.prune_quiescent(active);
            if active.is_empty() && self.medium.inner().rx_queue_depth(self.gateway_addr) == 0 {
                break;
            }
            if self.medium.slots_elapsed() > slot_limit {
                return Err(ProtocolError::OutOfOrder(
                    "fleet schedule exceeded its slot budget",
                ));
            }
            let Some((time, event)) = self.queue.pop() else {
                self.handle_stall(active)?;
                continue;
            };
            self.clock = self.clock.max(time);
            match event {
                SimEvent::Slot => {
                    self.slots_pending = self.slots_pending.saturating_sub(1);
                    self.handle_slot(active)?;
                }
                SimEvent::Deliver {
                    from,
                    to,
                    bytes,
                    wire_bytes,
                } => {
                    self.handle_deliver(active, from, to, bytes, wire_bytes)?;
                }
            }
        }
        Ok(())
    }

    /// Schedules the next contention-slot boundary (at most one pending).
    fn ensure_slot(&mut self) {
        if self.slots_pending == 0 {
            self.queue
                .schedule(self.clock + self.config.contention.slot, SimEvent::Slot);
            self.slots_pending += 1;
        }
    }

    /// Fills `pending_tx` from every active sensor with a non-empty
    /// outbox. Sensors outside `active` have no phase in flight, so their
    /// outboxes are empty by construction.
    fn poll_sensors(&mut self, active: &BTreeSet<usize>) {
        for &index in active {
            if self.pending_tx[index].is_none() {
                self.pending_tx[index] = self.sensors[index].poll_transmit();
            }
        }
    }

    /// Removes sensors that have nothing left to do from the active set.
    fn prune_quiescent(&mut self, active: &mut BTreeSet<usize>) {
        let done: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&index| {
                self.pending_tx[index].is_none()
                    && self.inflight[index] == 0
                    && self.sensors[index].stalled_round().is_none()
                    && {
                        // One more poll: a queued follow-up message keeps
                        // the sensor active (and is stashed for the next
                        // slot).
                        match self.sensors[index].poll_transmit() {
                            Some(envelope) => {
                                self.pending_tx[index] = Some(envelope);
                                false
                            }
                            None => true,
                        }
                    }
            })
            .collect();
        for index in done {
            active.remove(&index);
        }
    }

    /// True while any frame is pending, parked or in flight.
    fn work_outstanding(&self) -> bool {
        self.pending_tx.iter().any(Option::is_some)
            || self.inflight.iter().any(|&count| count > 0)
            || self.medium.inner().rx_queue_depth(self.gateway_addr) > 0
    }

    fn handle_slot(&mut self, active: &mut BTreeSet<usize>) -> Result<(), ProtocolError> {
        // Let a previously busy gateway catch up on parked frames first,
        // so its replies ride this slot's downlink phase.
        self.drain_gateway(active)?;
        self.poll_sensors(active);
        // BTreeSet iteration is ascending, so `ready` arrives in address
        // order — the arbitration is order-independent anyway (per-sender
        // RNG streams), but determinism is easier to audit this way.
        let ready: Vec<NodeAddr> = active
            .iter()
            .copied()
            .filter(|&index| {
                self.pending_tx[index].is_some()
                    && self.sensors[index].device().sim_now() <= self.clock
            })
            .map(|index| self.sensors[index].addr())
            .collect();
        match self.medium.resolve_slot(&ready) {
            SlotOutcome::Idle => {}
            SlotOutcome::Won(winner) => self.transmit_uplink(active, winner)?,
            SlotOutcome::Collision { captured, lost } => {
                // Losers keep their envelope; the medium's backoff state
                // delays their next contention. The capture survivor's
                // frame still rides the air.
                let _ = lost;
                if let Some(winner) = captured {
                    self.transmit_uplink(active, winner)?;
                }
            }
        }
        if self.work_outstanding() || !active.is_empty() {
            self.ensure_slot();
        }
        Ok(())
    }

    fn transmit_uplink(
        &mut self,
        active: &mut BTreeSet<usize>,
        winner: NodeAddr,
    ) -> Result<(), ProtocolError> {
        let Some(index) = self.index_of(winner) else {
            return Err(ProtocolError::OutOfOrder("slot won by an unknown sensor"));
        };
        let Some(envelope) = self.pending_tx[index].take() else {
            return Ok(());
        };
        if envelope.to != self.gateway_addr {
            return Err(ProtocolError::OutOfOrder(
                "envelope addressed to a peer this schedule does not serve",
            ));
        }
        // The sensor idled (LPM2) from the end of its own work to the slot
        // boundary — endpoint `wait()` pacing mapped onto virtual time.
        let now = self.sensors[index].device().sim_now();
        if now < self.clock {
            self.sensors[index].wait(self.clock - now);
        }
        let wire = envelope.message.to_wire();
        match self.medium.convey(winner, self.gateway_addr, &wire) {
            Ok((delivered, report)) => {
                self.uplink_conveys += 1;
                self.sensors[index].account_transmitted(report.wire_bytes);
                self.round_bytes[index] += report.wire_bytes;
                self.inflight[index] += 1;
                self.queue.schedule(
                    self.clock + report.tx_time,
                    SimEvent::Deliver {
                        from: winner,
                        to: self.gateway_addr,
                        bytes: delivered,
                        wire_bytes: report.wire_bytes,
                    },
                );
            }
            Err(MediumError::Link(_)) => match self.sensors[index].on_transport_error() {
                Ok(()) => {}
                Err(EndpointError::RoundAborted { .. }) => {
                    self.abort_round(active, index);
                }
                Err(other) => return Err(other.into()),
            },
            Err(other) => return Err(other.into()),
        }
        Ok(())
    }

    fn handle_deliver(
        &mut self,
        active: &mut BTreeSet<usize>,
        from: NodeAddr,
        to: NodeAddr,
        bytes: Vec<u8>,
        wire_bytes: usize,
    ) -> Result<(), ProtocolError> {
        if to == self.gateway_addr {
            if let Some(index) = self.index_of(from) {
                self.inflight[index] = self.inflight[index].saturating_sub(1);
            }
            // Park the frame in the gateway's bounded per-peer RX queue;
            // a full queue sheds it (counted) and the sender's
            // stall-retransmit recovers the round.
            if self.medium.inner_mut().enqueue_rx(from, to, bytes)? {
                self.queued_wire_sizes
                    .entry(from)
                    .or_default()
                    .push_back(wire_bytes);
            }
            self.drain_gateway(active)?;
        } else {
            let Some(index) = self.index_of(to) else {
                return Err(ProtocolError::OutOfOrder("delivery to an unknown sensor"));
            };
            self.inflight[index] = self.inflight[index].saturating_sub(1);
            self.deliver_to_sensor(index, from, &bytes, wire_bytes)?;
        }
        if self.work_outstanding() || !active.is_empty() {
            self.ensure_slot();
        }
        Ok(())
    }

    /// Processes parked gateway frames while the gateway's serial clock
    /// has caught up to the scheduler clock; frames beyond that stay
    /// queued (real queueing delay) until a later event.
    fn drain_gateway(&mut self, active: &mut BTreeSet<usize>) -> Result<(), ProtocolError> {
        while self.gateway.device().sim_now() <= self.clock {
            let Some((src, frame)) = self.medium.inner_mut().dequeue_rx(self.gateway_addr) else {
                break;
            };
            let wire_bytes = self
                .queued_wire_sizes
                .get_mut(&src)
                .and_then(VecDeque::pop_front)
                .unwrap_or(frame.len());
            // The gateway idled from its last work to this frame's arrival.
            let now = self.gateway.device().sim_now();
            if now < self.clock {
                self.gateway.wait(self.clock - now);
            }
            self.gateway.account_received(wire_bytes);
            match self.gateway.handle_wire(src, &frame) {
                Ok(effects) => {
                    for effect in effects {
                        if let Effect::PaymentAccepted { processing, .. } = &effect {
                            // The payer idles while the gateway verifies
                            // and signs — part of the round's end-to-end
                            // latency, exactly as in the shared pump.
                            if let Some(index) = self.index_of(src) {
                                self.sensors[index].wait(*processing);
                            }
                        }
                    }
                }
                Err(error) if droppable(&error) => continue,
                Err(error) => {
                    let error = ProtocolError::from(error);
                    match classify(&error) {
                        FaultClass::Violation => {
                            if let Some(index) = self.index_of(src) {
                                self.record_fault(index, &error);
                            }
                            continue;
                        }
                        _ => return Err(error),
                    }
                }
            }
            self.transmit_downlink(active)?;
        }
        Ok(())
    }

    /// Drains the gateway's outbox onto dedicated coordinator downlink
    /// slots (no contention; a TSCH schedule provisions these).
    fn transmit_downlink(&mut self, active: &mut BTreeSet<usize>) -> Result<(), ProtocolError> {
        while let Some(envelope) = self.gateway.poll_transmit() {
            let wire = envelope.message.to_wire();
            match self.medium.convey(self.gateway_addr, envelope.to, &wire) {
                Ok((delivered, report)) => {
                    self.gateway.account_transmitted(report.wire_bytes);
                    let depart = self.clock.max(self.gateway.device().sim_now());
                    if let Some(index) = self.index_of(envelope.to) {
                        self.inflight[index] += 1;
                        self.round_bytes[index] += report.wire_bytes;
                    }
                    self.queue.schedule(
                        depart + report.tx_time,
                        SimEvent::Deliver {
                            from: self.gateway_addr,
                            to: envelope.to,
                            bytes: delivered,
                            wire_bytes: report.wire_bytes,
                        },
                    );
                }
                Err(MediumError::Link(_)) => match self.gateway.on_transport_error() {
                    Ok(()) => {}
                    Err(EndpointError::RoundAborted { peer, .. }) => {
                        if let Some(index) = self.index_of(peer) {
                            self.abort_round(active, index);
                        }
                    }
                    Err(other) => return Err(other.into()),
                },
                Err(other) => return Err(other.into()),
            }
        }
        Ok(())
    }

    fn deliver_to_sensor(
        &mut self,
        index: usize,
        from: NodeAddr,
        bytes: &[u8],
        wire_bytes: usize,
    ) -> Result<(), ProtocolError> {
        let sensor_addr = self.sensors[index].addr();
        // Ride the bounded per-peer queue for drop accounting even though
        // the sensor wakes for its own downlink slot immediately.
        if !self
            .medium
            .inner_mut()
            .enqueue_rx(from, sensor_addr, bytes.to_vec())?
        {
            return Ok(());
        }
        let Some((src, frame)) = self.medium.inner_mut().dequeue_rx(sensor_addr) else {
            return Ok(());
        };
        let now = self.sensors[index].device().sim_now();
        if now < self.clock {
            self.sensors[index].wait(self.clock - now);
        }
        self.sensors[index].account_received(wire_bytes);
        match self.sensors[index].handle_wire(src, &frame) {
            Ok(effects) => {
                for effect in effects {
                    if let Effect::PaymentCompleted { receipt, .. } = &effect {
                        self.complete_round(index, receipt, self.round_bytes[index]);
                    }
                }
            }
            Err(error) if droppable(&error) => {}
            Err(error) => {
                let error = ProtocolError::from(error);
                match classify(&error) {
                    FaultClass::Violation => self.record_fault(index, &error),
                    _ => return Err(error),
                }
            }
        }
        Ok(())
    }

    /// The event queue ran dry with rounds still pending: every stalled
    /// sensor arms its deadline-based retransmission (or aborts once the
    /// budget is spent) and the slot clock restarts.
    fn handle_stall(&mut self, active: &mut BTreeSet<usize>) -> Result<(), ProtocolError> {
        let stalled: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&index| {
                self.pending_tx[index].is_none()
                    && self.inflight[index] == 0
                    && self.sensors[index].stalled_round().is_some()
            })
            .collect();
        for index in stalled {
            match self.sensors[index].on_round_stalled() {
                // The retransmitted copy is back in the outbox and the
                // device clock slept onto the retry deadline; the next
                // slot at/after that deadline carries it.
                Ok(()) => {}
                Err(EndpointError::RoundAborted { .. }) => {
                    self.abort_round(active, index);
                }
                Err(other) => return Err(other.into()),
            }
        }
        self.ensure_slot();
        Ok(())
    }

    fn abort_round(&mut self, active: &mut BTreeSet<usize>, index: usize) {
        self.aborted_rounds += 1;
        self.pending_tx[index] = None;
        let error = ProtocolError::Endpoint(EndpointError::RoundAborted {
            peer: self.sensors[index].addr(),
            attempts: 0,
        });
        self.record_fault(index, &error);
        active.remove(&index);
    }

    fn record_fault(&mut self, index: usize, error: &ProtocolError) {
        match classify(error) {
            FaultClass::Violation => {
                let (health, violations) = &mut self.health[index];
                *violations += 1;
                self.tracer.count("gateway.violations", 1);
                if *violations >= QUARANTINE_THRESHOLD && *health != SensorHealth::Quarantined {
                    *health = SensorHealth::Quarantined;
                    let node = self.gateway.device().name().to_string();
                    let peer = self.sensors[index].addr().to_string();
                    self.tracer.count("gateway.sensors_quarantined", 1);
                    self.tracer.event(|| tinyevm_trace::TraceEvent::Phase {
                        node,
                        peer,
                        phase: "quarantine".to_string(),
                        sequence: 0,
                        duration_us: 0,
                    });
                }
            }
            FaultClass::Transport => {
                if self.health[index].0 == SensorHealth::Healthy {
                    self.health[index].0 = SensorHealth::Degraded;
                }
            }
            FaultClass::Fatal => {}
        }
    }

    /// Inserts the configured idle gap on every device (LPM2) after the
    /// open phase.
    fn pause_all(&mut self) {
        for sensor in &mut self.sensors {
            sensor.wait(self.idle_gap);
        }
        self.gateway.wait(self.idle_gap);
    }

    fn sensor_addr(&self, index: usize) -> Result<NodeAddr, ProtocolError> {
        self.sensors
            .get(index)
            .map(ChannelEndpoint::addr)
            .ok_or(ProtocolError::OutOfOrder("no such sensor"))
    }

    fn index_of(&self, addr: NodeAddr) -> Option<usize> {
        let value = usize::from(addr.value());
        if value >= 1 && value <= self.sensors.len() {
            Some(value - 1)
        } else {
            None
        }
    }
}
