//! `two_party`: the paper's headline smart-parking scenario (Tables IV–V,
//! Fig. 5). One sender pays one receiver over a lossless link in a closed
//! loop with one round in flight; an op is one payment round.

use std::time::Duration;

use tinyevm_channel::{ProtocolDriver, RoundReport};
use tinyevm_crypto::secp256k1::BatchItem;
use tinyevm_trace::TraceHandle;
use tinyevm_types::Wei;

use crate::catalog::{Values, END_TO_END, PER_LAYER};
use crate::clock::HostInstant;
use crate::device::StateTotals;
use crate::replay::{replay_rounds, spaced_sample, verify_batch_us_per_sig, RoundInput};
use crate::spans::{timed, SpanLog};
use crate::stats::{mean, median, quantile, ratio};
use crate::{instructions_per_round, peak_rss_mb, RunConfig, RunRecord, SplitMix, TRACE_CAPACITY};

/// Nominal rounds per host second; sizes a run from `--seconds`.
const ROUNDS_PER_SECOND: f64 = 800.0;
/// Set-up samples per run, spread evenly over the session.
const SETUP_SAMPLES: usize = 31;
/// Rounds replayed layer by layer in a traced run.
const REPLAY_ROUNDS: usize = 2_000;

/// The seeded inputs of one session.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Amount of each round, in wei: uniform in `[m, 2m)` for a per-seed
    /// magnitude `m` between 1 gwei and 2^23 gwei, so the cumulative
    /// amount's encoded length (and with it airtime and round latency)
    /// differs between seeds.
    pub amounts: Vec<Wei>,
    /// Idle gap the endpoints pause between protocol steps, per round:
    /// the 120 ms default plus up to 1 ms of timer jitter.
    pub gaps: Vec<Duration>,
}

impl Plan {
    /// The inputs for `rounds` rounds under `seed`.
    pub fn new(seed: u64, rounds: usize) -> Self {
        let mut rng = SplitMix::new(seed);
        let magnitude = 1_000_000_000u64 << rng.below(24);
        let mut amounts = Vec::with_capacity(rounds);
        let mut gaps = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            amounts.push(Wei::from(magnitude + rng.below(magnitude)));
            gaps.push(Duration::from_millis(120) + Duration::from_nanos(rng.below(1_000_000)));
        }
        Plan { amounts, gaps }
    }

    /// Sum of all amounts.
    pub fn total(&self) -> Wei {
        self.amounts
            .iter()
            .fold(Wei::ZERO, |sum, amount| sum.saturating_add(*amount))
    }
}

/// Deposit locked in the channel; covers any plan of up to 100k rounds.
fn deposit() -> Wei {
    Wei::from_eth(10_000_000)
}

/// Set-up: the driver (devices, keys, chain) and the seeded inputs.
pub fn setup(seed: u64, rounds: usize) -> (ProtocolDriver, Plan) {
    (
        ProtocolDriver::smart_parking(deposit()),
        Plan::new(seed, rounds),
    )
}

fn timed_setup(seed: u64, rounds: usize) -> f64 {
    let start = HostInstant::now();
    std::hint::black_box(setup(seed, rounds));
    start.elapsed_s()
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Host µs of each `pay` call, in round order.
    pub pay_host_us: Vec<f64>,
    /// Per-round reports of completed rounds.
    pub reports: Vec<RoundReport>,
    /// Sender's per-state totals over each round (traced sessions only).
    pub round_states: Vec<StateTotals>,
    /// Sender's per-state totals over all rounds.
    pub states: StateTotals,
    /// Host seconds of the session (publish, open, rounds, settle).
    pub host_s: f64,
    /// Set-up samples taken during the session (s).
    pub setup_s: Vec<f64>,
    /// Rounds that failed or completed with a wrong cumulative amount.
    pub failed: u64,
    /// Failed session-level checks.
    pub violations: Vec<String>,
    /// Round inputs for the layer replays (traced sessions only).
    pub inputs: Vec<RoundInput>,
    /// Closing-state signature item for the batch-verify replay.
    pub close_item: Option<BatchItem>,
    /// Bytes exchanged per completed round.
    pub bytes: Vec<f64>,
    /// Radio airtime of those bytes.
    pub airtime: Duration,
}

/// Runs one session; with `log`, records spans and replay inputs.
pub fn session(
    driver: &mut ProtocolDriver,
    plan: &Plan,
    seed: u64,
    mut log: Option<&mut SpanLog>,
) -> Session {
    let rounds = plan.amounts.len();
    let mut out = Session::default();
    let setup_every = (rounds / SETUP_SAMPLES).max(1);
    let mut setup_host = 0.0;
    let start = HostInstant::now();

    let (published, _) = timed(
        log.as_deref_mut(),
        "chain.publish_template",
        None,
        0,
        || driver.publish_template(),
    );
    let (opened, _) = timed(log.as_deref_mut(), "channel.open", None, 0, || {
        driver.open_channel()
    });
    if let Err(error) = published.map(|_| ()).and(opened.map(|_| ())) {
        out.violations
            .push(format!("channel did not open: {error}"));
        out.failed = rounds as u64;
        return out;
    }

    let first = StateTotals::of(driver.sender().device());
    let mut expected = Wei::ZERO;
    for (index, (amount, gap)) in plan.amounts.iter().zip(&plan.gaps).enumerate() {
        let op = index as u64;
        driver.set_idle_gap(*gap);
        expected = expected.saturating_add(*amount);
        let before = log
            .is_some()
            .then(|| StateTotals::of(driver.sender().device()));
        let op_span = log.as_deref_mut().map(|log| log.enter("op", None, op));
        let (result, us) = timed(log.as_deref_mut(), "channel.pay", op_span, op, || {
            driver.pay(*amount)
        });
        out.pay_host_us.push(us);
        match result {
            Ok(report) if report.cumulative == expected => {
                out.bytes.push(report.bytes_exchanged as f64);
                out.airtime += driver.link().airtime(report.bytes_exchanged);
                out.reports.push(report);
            }
            _ => out.failed += 1,
        }
        if let (Some(log), Some(before), Some(op_span)) = (log.as_deref_mut(), before, op_span) {
            out.round_states
                .push(StateTotals::of(driver.sender().device()).since(&before));
            record_input(driver, op, &mut out.inputs);
            log.exit(op_span);
        }
        if log.is_none() && index % setup_every == setup_every / 2 {
            let sample = timed_setup(seed, rounds);
            setup_host += sample;
            out.setup_s.push(sample);
        }
    }
    out.states = StateTotals::of(driver.sender().device()).since(&first);

    let (settled, _) = timed(log.as_deref_mut(), "channel.settle", None, 0, || {
        driver.close_and_settle()
    });
    out.host_s = start.elapsed_s() - setup_host;
    match settled {
        Ok(report) => {
            let refund = deposit().saturating_sub(plan.total());
            if report.settlement.to_receiver != plan.total()
                || report.settlement.to_sender != refund
                || report.settlement.fraud_detected
            {
                out.violations.push(format!(
                    "settlement {} to receiver / {} to sender, expected {} / {}",
                    report.settlement.to_receiver,
                    report.settlement.to_sender,
                    plan.total(),
                    refund
                ));
            }
        }
        Err(error) => out.violations.push(format!("settlement failed: {error}")),
    }
    if log.is_some() {
        let key = *driver.sender().device().private_key();
        out.close_item = driver.sender().side_chain().entries().last().map(|entry| {
            let digest = *entry.state_digest.as_bytes();
            BatchItem {
                digest,
                signature: key.sign_prehashed(&digest),
                public_key: key.public_key(),
            }
        });
    }
    out
}

fn record_input(driver: &ProtocolDriver, op: u64, inputs: &mut Vec<RoundInput>) {
    let (Some(channel), Some(template)) = (driver.sender().channel(), driver.template()) else {
        return;
    };
    inputs.push(RoundInput {
        op,
        template,
        channel_id: channel.config().channel_id,
        sequence: channel.sequence(),
        cumulative: channel.cumulative(),
        sensor_hash: channel.last_sensor_hash(),
        payer: (
            driver.sender().node_addr(),
            *driver.sender().device().private_key(),
        ),
        payee: (
            driver.receiver().node_addr(),
            *driver.receiver().device().private_key(),
        ),
        recorded_ack: driver.sender().peer_signatures().last().copied(),
    });
}

/// Rounds a run of `seconds` makes.
pub fn rounds_for(seconds: f64) -> usize {
    ((seconds * ROUNDS_PER_SECOND).round() as usize).max(1)
}

/// Runs the workload.
pub fn run(config: RunConfig) -> RunRecord {
    let rounds = rounds_for(config.seconds);
    let setup_start = HostInstant::now();
    let (mut driver, plan) = setup(config.seed, rounds);
    let first_setup = setup_start.elapsed_s();
    let untraced = session(&mut driver, &plan, config.seed, None);
    drop(driver);

    let mut record = RunRecord {
        attempted: rounds as u64,
        failed: untraced.failed,
        violations: untraced.violations.clone(),
        ..RunRecord::default()
    };
    let mut values = Values::default();
    if !config.trace {
        let mut setups = untraced.setup_s.clone();
        setups.push(first_setup);
        values.set("setup_s", median(&setups));
        values.set("peak_rss_mb", peak_rss_mb());
        end_to_end(&untraced, &mut values);
        values.emit(&END_TO_END, &mut record);
        return record;
    }

    let (mut driver, plan) = setup(config.seed, rounds);
    let tracer = TraceHandle::recording(TRACE_CAPACITY);
    driver.set_tracer(tracer.clone());
    let mut log = SpanLog::default();
    let traced = session(&mut driver, &plan, config.seed, Some(&mut log));
    record.attempted += rounds as u64;
    record.failed += traced.failed;
    record.violations.extend(traced.violations.iter().cloned());
    record.check(
        traced
            .reports
            .iter()
            .map(|r| r.end_to_end_latency)
            .eq(untraced.reports.iter().map(|r| r.end_to_end_latency)),
        || "traced session's round latencies differ from the untraced session's".into(),
    );
    values.set(
        "trace.overhead_ratio",
        ratio(traced.host_s, untraced.host_s),
    );
    per_layer(&traced, &tracer, &mut log, &mut values, &mut record);
    values.set(
        "failed_op_ratio",
        ratio(record.failed as f64, record.attempted as f64),
    );
    values.set("trace.spans", log.len() as f64);
    if let Err(error) = log.write("two_party", config.seed) {
        record
            .violations
            .push(format!("could not write spans: {error}"));
    }
    values.emit(&PER_LAYER, &mut record);
    record
}

/// End-to-end metrics of an untraced session (all but set-up and memory).
pub fn end_to_end(session: &Session, values: &mut Values) {
    values.set(
        "ops_per_host_s",
        ratio(session.reports.len() as f64, session.host_s),
    );
    values.set("op_host_us_p50", quantile(&session.pay_host_us, 0.50));
    values.set("op_host_us_p99", quantile(&session.pay_host_us, 0.99));
    let latency_ms: Vec<f64> = session
        .reports
        .iter()
        .map(|r| r.end_to_end_latency.as_secs_f64() * 1e3)
        .collect();
    values.set("op_modeled_ms_p50", quantile(&latency_ms, 0.50));
    values.set("op_modeled_ms_p99", quantile(&latency_ms, 0.99));
    let ops = session.reports.len() as f64;
    values.set(
        "energy_modeled_mj_per_op",
        ratio(session.states.total_energy_mj(), ops),
    );
    values.set(
        "goodput_modeled_ops_per_s",
        ratio(ops, latency_ms.iter().sum::<f64>() / 1e3),
    );
}

fn per_layer(
    session: &Session,
    tracer: &TraceHandle,
    log: &mut SpanLog,
    values: &mut Values,
    record: &mut RunRecord,
) {
    let ops = session.reports.len() as f64;
    let pay_us = log.durations_us("channel.pay");
    let inputs = spaced_sample(&session.inputs, REPLAY_ROUNDS);
    let costs = replay_rounds(log, &inputs);
    record.check(costs.mismatches == 0, || {
        format!(
            "{} replayed calls disagreed with the session",
            costs.mismatches
        )
    });
    let pay_p50 = median(&pay_us);
    values.set("channel.pay_host_us_p50", pay_p50);
    values.set(
        "channel.unattributed_us_per_op",
        pay_p50 - costs.required_crypto_us() - costs.wire_net_us(),
    );
    values.set("channel.open_host_ms", log.total_us("channel.open") / 1e3);
    values.set(
        "channel.settle_host_ms",
        log.total_us("channel.settle") / 1e3,
    );
    values.set(
        "chain.publish_template_ms",
        log.total_us("chain.publish_template") / 1e3,
    );
    costs.report(pay_p50, values);
    if let Some(item) = session.close_item {
        match verify_batch_us_per_sig(log, &[item]) {
            Some(us) => values.set("crypto.verify_batch_us_per_sig", us),
            None => record
                .violations
                .push("closing signature failed to verify".into()),
        }
    }
    values.set("wire.bytes_per_op", mean(&session.bytes));
    values.set(
        "net.airtime_utilization",
        ratio(
            session.airtime.as_secs_f64(),
            session
                .reports
                .iter()
                .map(|r| r.end_to_end_latency.as_secs_f64())
                .sum(),
        ),
    );

    let snapshot = tracer.snapshot().unwrap_or_default();
    let counter = |name: &str| snapshot.metrics.counter(name) as f64;
    values.set(
        "net.retransmissions_per_op",
        ratio(counter("net.retransmissions"), ops),
    );
    values.set(
        "net.frames_dropped_queue_full",
        counter("net.frames_dropped_queue_full"),
    );
    let hits = counter("evm.analysis_cache.hits");
    values.set(
        "evm.analysis_cache_hit_ratio",
        ratio(hits, hits + counter("evm.analysis_cache.misses")),
    );
    values.set("evm.instructions_per_op", instructions_per_round(&snapshot));
    device_layer(session, values);
}

fn device_layer(session: &Session, values: &mut Values) {
    let ops = session.reports.len() as f64;
    let ms = |f: fn(&RoundReport) -> Duration| {
        ratio(
            session
                .reports
                .iter()
                .map(|r| f(r).as_secs_f64() * 1e3)
                .sum(),
            ops,
        )
    };
    values.set("device.sign_modeled_ms_per_op", ms(|r| r.sender_sign_time));
    values.set(
        "device.register_modeled_ms_per_op",
        ms(|r| r.sender_register_time),
    );
    values.set(
        "device.active_modeled_ms_per_op",
        ms(|r| r.sender_active_time),
    );
    let mut states = StateTotals::default();
    let mut gap_ms = 0.0;
    for (report, round) in session.reports.iter().zip(&session.round_states) {
        states.add(round);
        gap_ms +=
            (report.end_to_end_latency.as_secs_f64() - round.total_time().as_secs_f64()) * 1e3;
    }
    states.report(ops, values);
    values.set("device.unattributed_modeled_ms_per_op", ratio(gap_ms, ops));
}
