//! `fleet_csma_1024`: 1024 sensors pay one gateway over a contended
//! CSMA/CA medium (the paper's gateway deployment at scale). A session
//! opens every channel, runs one payment round with every sensor in
//! flight, and settles all channels; an op is one sensor's payment.
//!
//! One event loop serves all in-flight payments, so a single payment has
//! no host latency of its own: the host figures are per session.

use tinyevm_crypto::secp256k1::BatchItem;
use tinyevm_sim::{FleetConfig, FleetScheduler};
use tinyevm_trace::TraceHandle;
use tinyevm_types::Wei;

use crate::catalog::{Values, END_TO_END, PER_LAYER};
use crate::clock::HostInstant;
use crate::device::StateTotals;
use crate::replay::{replay_rounds, verify_batch_us_per_sig, RoundInput};
use crate::spans::{timed, SpanLog};
use crate::stats::{median, quantile, ratio};
use crate::{instructions_per_round, peak_rss_mb, RunConfig, RunRecord, SplitMix, TRACE_CAPACITY};

/// Sensors in the fleet.
pub const SENSORS: usize = 1024;
/// Nominal host seconds per session; sizes a run from `--seconds`.
const SECONDS_PER_SESSION: f64 = 5.0;
/// Amount each sensor pays per round, in wei.
const AMOUNT: u64 = 1_000;

/// The medium seed of session `index` of a run seeded `seed`.
pub fn session_seed(seed: u64, index: usize) -> u64 {
    SplitMix::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Set-up: the fleet (1024 sensor endpoints with keys, the gateway, the
/// medium and a funded chain), one worker thread.
pub fn setup(sensors: usize, seed: u64) -> FleetScheduler {
    let mut config = FleetConfig::csma(sensors, seed);
    config.jobs = 1;
    FleetScheduler::new(config)
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Host seconds of set-up, open, round and settle.
    pub setup_s: f64,
    /// Host seconds of `open_all`.
    pub open_s: f64,
    /// Host seconds of the payment round.
    pub run_s: f64,
    /// Host seconds of `settle_all`.
    pub settle_s: f64,
    /// Completed payments.
    pub payments: u64,
    /// Radio bytes the round's payments exchanged.
    pub bytes: u64,
    /// Modeled end-to-end latency of each payment (ms).
    pub latency_ms: Vec<f64>,
    /// Sensors' per-state totals over the round.
    pub states: StateTotals,
    /// Modeled seconds the round spanned.
    pub round_modeled_s: f64,
    /// Contention slots the round took.
    pub slots: u64,
    /// Uplink conveys plus collision events during the round.
    pub busy_slots: u64,
    /// Frames collided during the round.
    pub frames_collided: u64,
    /// Uplink conveys during the round.
    pub uplink_conveys: u64,
    /// Busy airtime during the round (s).
    pub busy_airtime_s: f64,
    /// Frames shed by full RX queues during the round.
    pub dropped: u64,
    /// Payments missing or wrong.
    pub failed: u64,
    /// Failed checks.
    pub violations: Vec<String>,
    /// The scheduler's fingerprint after settlement.
    pub fingerprint: String,
    /// Replay inputs, one per sensor (traced sessions only).
    pub inputs: Vec<RoundInput>,
    /// Closing-state signatures for the batch-verify replay (traced only).
    pub close_items: Vec<BatchItem>,
}

impl Session {
    /// Host seconds after set-up.
    pub fn host_s(&self) -> f64 {
        self.open_s + self.run_s + self.settle_s
    }
}

/// Runs one session of `sensors` sensors; with `log`, records spans and
/// replay inputs and routes the fleet through `tracer`.
pub fn session(
    sensors: usize,
    seed: u64,
    mut log: Option<&mut SpanLog>,
    tracer: Option<&TraceHandle>,
) -> Session {
    let mut out = Session::default();
    let start = HostInstant::now();
    let mut fleet = setup(sensors, seed);
    out.setup_s = start.elapsed_s();
    if let Some(tracer) = tracer {
        fleet.set_tracer(tracer.clone());
    }

    let (opened, us) = timed(log.as_deref_mut(), "sim.open", None, 0, || fleet.open_all());
    out.open_s = us / 1e6;
    if let Err(error) = opened {
        out.violations.push(format!("fleet did not open: {error}"));
        out.failed = sensors as u64;
        return out;
    }
    let before = fleet.report();
    let states_before: Vec<StateTotals> = fleet
        .sensors()
        .iter()
        .map(|s| StateTotals::of(s.device()))
        .collect();

    let (ran, us) = timed(log.as_deref_mut(), "sim.run", None, 0, || {
        fleet.run(1, Wei::from(AMOUNT))
    });
    out.run_s = us / 1e6;
    if let Err(error) = ran {
        out.violations
            .push(format!("payment round failed: {error}"));
    }
    let after = fleet.report();
    for (sensor, earlier) in fleet.sensors().iter().zip(&states_before) {
        out.states
            .add(&StateTotals::of(sensor.device()).since(earlier));
    }
    out.latency_ms = fleet
        .rounds()
        .iter()
        .map(|round| round.end_to_end_latency.as_secs_f64() * 1e3)
        .collect();
    out.bytes = fleet
        .rounds()
        .iter()
        .map(|r| r.bytes_exchanged as u64)
        .sum();
    out.payments = after.completed_payments - before.completed_payments;
    out.round_modeled_s = (after.sim_duration - before.sim_duration).as_secs_f64();
    out.slots = after.slots - before.slots;
    out.uplink_conveys = after.uplink_conveys - before.uplink_conveys;
    out.busy_slots = out.uplink_conveys + (after.collision_events - before.collision_events);
    out.frames_collided = after.frames_collided - before.frames_collided;
    out.busy_airtime_s = (after.busy_airtime - before.busy_airtime).as_secs_f64();
    out.dropped = after.frames_dropped_queue_full - before.frames_dropped_queue_full;
    if log.is_some() {
        record_inputs(&fleet, &mut out.inputs);
    }

    let (settled, us) = timed(log.as_deref_mut(), "sim.settle", None, 0, || {
        fleet.settle_all()
    });
    out.settle_s = us / 1e6;
    let expected = Wei::from(AMOUNT * sensors as u64);
    out.failed = (sensors as u64).saturating_sub(out.payments) + fleet.aborted_rounds();
    match settled {
        Ok(report) => {
            let all_settled = report.settlements.len() == sensors
                && report
                    .settlements
                    .iter()
                    .all(|(_, s)| s.to_receiver == Wei::from(AMOUNT) && !s.fraud_detected);
            if !all_settled || report.total_to_gateway != expected {
                out.violations.push(format!(
                    "{} of {sensors} channels settled, {} to the gateway, expected {expected}",
                    report.settlements.len(),
                    report.total_to_gateway
                ));
            }
        }
        Err(error) => out.violations.push(format!("settlement failed: {error}")),
    }
    if fleet.aborted_rounds() > 0 || fleet.quarantined_count() > 0 {
        out.violations.push(format!(
            "{} rounds aborted, {} sensors quarantined",
            fleet.aborted_rounds(),
            fleet.quarantined_count()
        ));
    }
    if log.is_some() {
        let gateway = fleet.gateway().addr();
        out.close_items = fleet
            .sensors()
            .iter()
            .filter_map(|sensor| {
                let key = *sensor.device().private_key();
                let entry = sensor.side_chain(gateway)?.entries().last()?;
                let digest = *entry.state_digest.as_bytes();
                Some(BatchItem {
                    digest,
                    signature: key.sign_prehashed(&digest),
                    public_key: key.public_key(),
                })
            })
            .collect();
    }
    out.fingerprint = fleet.fingerprint();
    out
}

fn record_inputs(fleet: &FleetScheduler, inputs: &mut Vec<RoundInput>) {
    let gateway = fleet.gateway();
    for (index, sensor) in fleet.sensors().iter().enumerate() {
        let Some(channel) = sensor.channel(gateway.addr()) else {
            continue;
        };
        inputs.push(RoundInput {
            op: index as u64,
            template: channel.config().template,
            channel_id: channel.config().channel_id,
            sequence: channel.sequence(),
            cumulative: channel.cumulative(),
            sensor_hash: channel.last_sensor_hash(),
            payer: (sensor.addr(), *sensor.device().private_key()),
            payee: (gateway.addr(), *gateway.device().private_key()),
            recorded_ack: sensor
                .peer_acks(gateway.addr())
                .and_then(|acks| acks.last().copied()),
        });
    }
}

/// Sessions a run of `seconds` makes.
pub fn sessions_for(seconds: f64) -> usize {
    ((seconds / SECONDS_PER_SESSION).round() as usize).max(1)
}

/// Runs the workload.
pub fn run(config: RunConfig) -> RunRecord {
    run_sized(config, SENSORS)
}

/// Runs the workload with `sensors` sensors (the self-test uses fewer).
pub fn run_sized(config: RunConfig, sensors: usize) -> RunRecord {
    let sessions = if config.trace {
        1
    } else {
        sessions_for(config.seconds)
    };
    let untraced: Vec<Session> = (0..sessions)
        .map(|index| session(sensors, session_seed(config.seed, index), None, None))
        .collect();
    let mut record = RunRecord {
        attempted: (sessions * sensors) as u64,
        failed: untraced.iter().map(|s| s.failed).sum(),
        violations: untraced.iter().flat_map(|s| s.violations.clone()).collect(),
        ..RunRecord::default()
    };
    let mut values = Values::default();
    if !config.trace {
        end_to_end(&untraced, &mut values);
        values.emit(&END_TO_END, &mut record);
        return record;
    }

    let tracer = TraceHandle::recording(TRACE_CAPACITY);
    let mut log = SpanLog::default();
    let traced = session(
        sensors,
        session_seed(config.seed, 0),
        Some(&mut log),
        Some(&tracer),
    );
    record.attempted += sensors as u64;
    record.failed += traced.failed;
    record.violations.extend(traced.violations.iter().cloned());
    record.check(traced.fingerprint == untraced[0].fingerprint, || {
        "traced fleet fingerprint differs from the untraced one".into()
    });
    values.set(
        "trace.overhead_ratio",
        ratio(traced.host_s(), untraced[0].host_s()),
    );
    per_layer(&traced, &tracer, &mut log, &mut values, &mut record);
    values.set(
        "failed_op_ratio",
        ratio(record.failed as f64, record.attempted as f64),
    );
    values.set("trace.spans", log.len() as f64);
    if let Err(error) = log.write("fleet_csma_1024", config.seed) {
        record
            .violations
            .push(format!("could not write spans: {error}"));
    }
    values.emit(&PER_LAYER, &mut record);
    record
}

/// End-to-end metrics of the untraced sessions.
pub fn end_to_end(sessions: &[Session], values: &mut Values) {
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    values.set("setup_s", median(&setups));
    values.set("peak_rss_mb", peak_rss_mb());
    // Host: the fastest session sets throughput (the host alternates
    // between a fast and a slow state for seconds at a time); per-payment
    // host cost is quoted over sessions.
    let per_payment_us: Vec<f64> = sessions
        .iter()
        .map(|s| ratio(s.host_s() * 1e6, s.payments as f64))
        .collect();
    let fastest = per_payment_us.iter().copied().fold(f64::INFINITY, f64::min);
    values.set("ops_per_host_s", ratio(1e6, fastest));
    values.set("op_host_us_p50", quantile(&per_payment_us, 0.50));
    values.set("op_host_us_p99", quantile(&per_payment_us, 0.99));
    let latency_ms: Vec<f64> = sessions.iter().flat_map(|s| s.latency_ms.clone()).collect();
    values.set("op_modeled_ms_p50", quantile(&latency_ms, 0.50));
    values.set("op_modeled_ms_p99", quantile(&latency_ms, 0.99));
    let payments: u64 = sessions.iter().map(|s| s.payments).sum();
    let energy: f64 = sessions.iter().map(|s| s.states.total_energy_mj()).sum();
    values.set("energy_modeled_mj_per_op", ratio(energy, payments as f64));
    let modeled_s: f64 = sessions.iter().map(|s| s.round_modeled_s).sum();
    values.set(
        "goodput_modeled_ops_per_s",
        ratio(payments as f64, modeled_s),
    );
}

fn per_layer(
    session: &Session,
    tracer: &TraceHandle,
    log: &mut SpanLog,
    values: &mut Values,
    record: &mut RunRecord,
) {
    let payments = session.payments as f64;
    values.set("sim.open_host_s", session.open_s);
    values.set("sim.run_host_s", session.run_s);
    values.set("sim.settle_host_s", session.settle_s);
    values.set("sim.slots", session.slots as f64);
    values.set(
        "sim.host_us_per_slot",
        ratio(session.run_s * 1e6, session.slots as f64),
    );
    values.set(
        "sim.busy_slot_ratio",
        ratio(session.busy_slots as f64, session.slots as f64),
    );
    values.set(
        "sim.host_us_per_payment",
        ratio(session.run_s * 1e6, payments),
    );
    values.set(
        "net.collision_rate",
        ratio(
            session.frames_collided as f64,
            (session.frames_collided + session.uplink_conveys) as f64,
        ),
    );
    values.set(
        "net.airtime_utilization",
        ratio(session.busy_airtime_s, session.round_modeled_s),
    );
    values.set("net.frames_dropped_queue_full", session.dropped as f64);

    let snapshot = tracer.snapshot().unwrap_or_default();
    let counter = |name: &str| snapshot.metrics.counter(name) as f64;
    values.set(
        "net.retransmissions_per_op",
        ratio(counter("net.retransmissions"), payments),
    );
    let hits = counter("evm.analysis_cache.hits");
    values.set(
        "evm.analysis_cache_hit_ratio",
        ratio(hits, hits + counter("evm.analysis_cache.misses")),
    );
    values.set("evm.instructions_per_op", instructions_per_round(&snapshot));

    let costs = replay_rounds(log, &session.inputs);
    record.check(costs.mismatches == 0, || {
        format!(
            "{} replayed calls disagreed with the session",
            costs.mismatches
        )
    });
    costs.report(ratio(session.run_s * 1e6, payments), values);
    match verify_batch_us_per_sig(log, &session.close_items) {
        Some(us) => values.set("crypto.verify_batch_us_per_sig", us),
        None => record
            .violations
            .push("closing signatures failed to verify".into()),
    }
    values.set("wire.bytes_per_op", ratio(session.bytes as f64, payments));

    session.states.report(payments, values);
    let latency_ms: f64 = session.latency_ms.iter().sum();
    values.set(
        "device.unattributed_modeled_ms_per_op",
        ratio(
            latency_ms - session.states.total_time().as_secs_f64() * 1e3,
            payments,
        ),
    );
}
