//! `contract_corpus`: the paper's deployability experiment (Table II,
//! Figs. 3–4). Contracts are admitted one at a time: the static analyzer
//! classifies the init code, then `deploy` runs it on the CC2538 profile
//! with deploy-time validation. An op is one admission; a deploy that is
//! correctly refused (resource limit, analysis rejection, constructor
//! failure) is a right outcome.
//!
//! Every run admits the pinned 7,000-contract paper-scale corpus, whose
//! verdict census must equal the repository's `corpus_verdicts.json` and
//! whose deploy outcomes must equal `deploy_census.json` beside this
//! crate, plus a seeded extension drawn from the same calibration, in a
//! seeded order.

use tinyevm_analysis::{analyze, CodeAnalysis, GasCertificate, UnprovenReason, Verdict};
use tinyevm_corpus::{CorpusConfig, SyntheticContract};
use tinyevm_crypto::keccak256;
use tinyevm_device::{EnergyMeter, Mcu, PowerState};
use tinyevm_evm::{deploy, DeployError, DeployResult, EvmConfig};

use crate::catalog::{Values, END_TO_END, PER_LAYER};
use crate::clock::HostInstant;
use crate::replay::spaced_sample;
use crate::spans::{timed, SpanLog};
use crate::stats::{median, quantile, ratio};
use crate::{peak_rss_mb, RunConfig, RunRecord, SplitMix};

/// The repository's pinned analyzer verdict census of the paper corpus.
const VERDICT_CENSUS: &str = include_str!("../../corpus_verdicts.json");
/// The pinned deploy-outcome census of the paper corpus.
const DEPLOY_CENSUS: &str = include_str!("../deploy_census.json");
/// Extension contracts per nominal second of a run.
const EXTENSION_PER_SECOND: f64 = 50.0;
/// Set-up samples per run, spread over the session.
const SETUP_SAMPLES: usize = 3;
/// Contracts replayed layer by layer in a traced run.
const REPLAY_CONTRACTS: usize = 2_000;

/// The seeded inputs: the paper corpus, the extension and the order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Contracts; the first `pinned` are the paper corpus.
    pub contracts: Vec<SyntheticContract>,
    /// How many leading contracts are the pinned paper corpus.
    pub pinned: usize,
    /// Admission order (indices into `contracts`).
    pub order: Vec<usize>,
}

impl Plan {
    /// The paper corpus (or its first `pinned` contracts) plus `extension`
    /// seeded contracts, in a seeded order.
    pub fn new(seed: u64, pinned: usize, extension: usize) -> Self {
        let mut rng = SplitMix::new(seed);
        let paper = CorpusConfig::paper_scale();
        let mut contracts = CorpusConfig {
            count: pinned,
            ..paper.clone()
        }
        .generate();
        let extra = CorpusConfig {
            count: extension,
            seed: rng.next_u64(),
            ..paper
        }
        .generate();
        contracts.extend(extra);
        let mut order: Vec<usize> = (0..contracts.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Plan {
            contracts,
            pinned,
            order,
        }
    }
}

fn timed_setup(seed: u64, pinned: usize, extension: usize) -> (Plan, f64) {
    let start = HostInstant::now();
    let plan = Plan::new(seed, pinned, extension);
    (plan, start.elapsed_s())
}

/// Outcome counts of a set of admissions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Verdicts: accepted.
    pub accepted: u64,
    /// Verdicts: unproven, dynamic jump.
    pub unproven_dynamic_jump: u64,
    /// Verdicts: unproven, possible underflow.
    pub unproven_possible_underflow: u64,
    /// Verdicts: rejected.
    pub rejected: u64,
    /// Jumps the symbolic pass resolved.
    pub resolved_jumps: u64,
    /// Gas certificates: bounded.
    pub certificates_bounded: u64,
    /// Gas certificates: unbounded.
    pub certificates_unbounded: u64,
    /// Gas certificates: uncertified.
    pub certificates_uncertified: u64,
    /// Deploys that installed runtime code.
    pub deployed: u64,
    /// Deploys refused for a device resource limit.
    pub refused_code_limit: u64,
    /// Deploys refused by static analysis.
    pub refused_analysis: u64,
    /// Deploys whose constructor trapped, reverted or returned no code.
    pub refused_constructor: u64,
}

impl Census {
    fn verdicts_match(&self, pinned: &str) -> bool {
        [
            ("accepted", self.accepted),
            ("unproven_dynamic_jump", self.unproven_dynamic_jump),
            (
                "unproven_possible_underflow",
                self.unproven_possible_underflow,
            ),
            ("rejected", self.rejected),
            ("resolved_jumps", self.resolved_jumps),
            ("certificates_bounded", self.certificates_bounded),
            ("certificates_unbounded", self.certificates_unbounded),
            ("certificates_uncertified", self.certificates_uncertified),
        ]
        .iter()
        .all(|(key, value)| json_count(pinned, key) == Some(*value))
    }

    fn deploys_match(&self, pinned: &str) -> bool {
        [
            ("deployed", self.deployed),
            ("refused_code_limit", self.refused_code_limit),
            ("refused_analysis", self.refused_analysis),
            ("refused_constructor", self.refused_constructor),
        ]
        .iter()
        .all(|(key, value)| json_count(pinned, key) == Some(*value))
    }
}

/// The integer after `"key":` in a flat JSON object.
fn json_count(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// How an admission ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Runtime code installed.
    Deployed,
    /// Refused for a device resource limit.
    RefusedLimit,
    /// Refused by static analysis of the init or the runtime code.
    RefusedAnalysis,
    /// The constructor trapped, reverted or returned no code.
    RefusedConstructor,
}

impl Outcome {
    /// The outcome class of a `deploy` result.
    pub fn of(result: &Result<DeployResult, DeployError>) -> Self {
        match result {
            Ok(_) => Outcome::Deployed,
            Err(error) if error.is_resource_limit() => Outcome::RefusedLimit,
            Err(
                DeployError::InitCodeRejected(_)
                | DeployError::RuntimeCodeRejected(_)
                | DeployError::InitCodeOverBudget { .. }
                | DeployError::RuntimeCodeOverBudget { .. },
            ) => Outcome::RefusedAnalysis,
            Err(_) => Outcome::RefusedConstructor,
        }
    }
}

/// One admission through the deploy-time validation gate, composed from
/// the same public functions `deploy` under
/// `EvmConfig::with_deploy_validation(true)` runs: analyze the init code
/// (refuse a `Rejected` verdict unless the code is too large to stage),
/// deploy, analyze the returned runtime code (refuse a `Rejected`
/// verdict). Composing it keeps the constructor's metrics for contracts
/// whose runtime code is refused, which the validating `deploy` discards.
pub struct Admission {
    /// The init code's analysis.
    pub analysis: CodeAnalysis,
    /// The unvalidated deploy, when the init code passed the gate.
    pub deployed: Option<Result<DeployResult, DeployError>>,
    /// How the admission ended.
    pub outcome: Outcome,
}

/// Admits `code`; with `log`, inside an `op` span with a child span per
/// call.
pub fn admit(code: &[u8], mut log: Option<&mut SpanLog>, op: u64) -> Admission {
    let op_span = log.as_deref_mut().map(|log| log.enter("op", None, op));
    let admission = gate(code, log.as_deref_mut(), op, op_span);
    if let (Some(log), Some(id)) = (log, op_span) {
        log.exit(id);
    }
    admission
}

fn gate(code: &[u8], mut log: Option<&mut SpanLog>, op: u64, parent: Option<usize>) -> Admission {
    let config = EvmConfig::cc2538();
    let rejected = |a: &CodeAnalysis| matches!(a.verdict(), Verdict::Rejected(_));
    let (analysis, _) = timed(
        log.as_deref_mut(),
        "analysis.analyze_init",
        parent,
        op,
        || analyze(code),
    );
    if rejected(&analysis) && code.len() <= config.max_init_code_size {
        return Admission {
            analysis,
            deployed: None,
            outcome: Outcome::RefusedAnalysis,
        };
    }
    let (deployed, _) = timed(log.as_deref_mut(), "evm.deploy", parent, op, || {
        deploy(&config, code)
    });
    let mut outcome = Outcome::of(&deployed);
    if let Ok(result) = &deployed {
        let (runtime, _) = timed(log, "analysis.analyze_runtime", parent, op, || {
            analyze(&result.runtime_code)
        });
        if rejected(&runtime) {
            outcome = Outcome::RefusedAnalysis;
        }
    }
    Admission {
        analysis,
        deployed: Some(deployed),
        outcome,
    }
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Host µs of each admission, in admission order.
    pub host_us: Vec<f64>,
    /// Host seconds of the session.
    pub host_s: f64,
    /// Set-up samples taken during the session.
    pub setup_s: Vec<f64>,
    /// Modeled deploy time (ms) of each constructor that ran.
    pub deploy_ms: Vec<f64>,
    /// Modeled deploy energy (mJ) of each constructor that ran.
    pub deploy_mj: Vec<f64>,
    /// Interpreter instructions over all constructors.
    pub instructions: u64,
    /// Bytes the constructors hashed.
    pub keccak_bytes: u64,
    /// Census of the pinned paper corpus.
    pub pinned: Census,
    /// Census of all admissions.
    pub all: Census,
    /// Outcome of each contract, by contract index.
    pub outcomes: Vec<Option<Outcome>>,
}

/// Admits every contract of `plan` once; with `log`, inside spans.
pub fn session(plan: &Plan, seed: u64, mut log: Option<&mut SpanLog>) -> Session {
    let mcu = Mcu::cc2538();
    let cpu_mw = PowerState::CpuActive.current_ma() * EnergyMeter::cc2538().voltage();
    let mut out = Session {
        outcomes: vec![None; plan.contracts.len()],
        ..Session::default()
    };
    let setup_every = (plan.order.len() / SETUP_SAMPLES).max(1);
    let mut setup_host = 0.0;
    let start = HostInstant::now();
    for (position, &index) in plan.order.iter().enumerate() {
        let t = HostInstant::now();
        let admission = admit(
            &plan.contracts[index].init_code,
            log.as_deref_mut(),
            index as u64,
        );
        out.host_us.push(t.elapsed_us());

        if let Some(Ok(result)) = &admission.deployed {
            let ms = mcu.deployment_time(&result.metrics).as_secs_f64() * 1e3;
            out.deploy_ms.push(ms);
            out.deploy_mj.push(cpu_mw * ms / 1e3);
            out.instructions += result.metrics.instructions;
            out.keccak_bytes += result.metrics.keccak_bytes;
        }
        tally(&mut out.all, &admission);
        if index < plan.pinned {
            tally(&mut out.pinned, &admission);
        }
        out.outcomes[index] = Some(admission.outcome);
        if log.is_none() && position % setup_every == setup_every / 2 {
            let extension = plan.contracts.len() - plan.pinned;
            let (_, sample) = timed_setup(seed, plan.pinned, extension);
            setup_host += sample;
            out.setup_s.push(sample);
        }
    }
    out.host_s = start.elapsed_s() - setup_host;
    out
}

fn tally(census: &mut Census, admission: &Admission) {
    let analysis = &admission.analysis;
    match analysis.verdict() {
        Verdict::Accepted => census.accepted += 1,
        Verdict::Unproven(UnprovenReason::DynamicJump { .. }) => census.unproven_dynamic_jump += 1,
        Verdict::Unproven(UnprovenReason::PossibleUnderflow { .. }) => {
            census.unproven_possible_underflow += 1
        }
        Verdict::Rejected(_) => census.rejected += 1,
    }
    census.resolved_jumps += analysis.resolved_jumps().len() as u64;
    match analysis.gas_certificate() {
        GasCertificate::Bounded { .. } => census.certificates_bounded += 1,
        GasCertificate::Unbounded { .. } => census.certificates_unbounded += 1,
        GasCertificate::Uncertified { .. } => census.certificates_uncertified += 1,
    }
    match admission.outcome {
        Outcome::Deployed => census.deployed += 1,
        Outcome::RefusedLimit => census.refused_code_limit += 1,
        Outcome::RefusedAnalysis => census.refused_analysis += 1,
        Outcome::RefusedConstructor => census.refused_constructor += 1,
    }
}

/// Extension contracts a run of `seconds` admits.
pub fn extension_for(seconds: f64) -> usize {
    (seconds * EXTENSION_PER_SECOND).round() as usize
}

/// Runs the workload on the full paper corpus.
pub fn run(config: RunConfig) -> RunRecord {
    run_sized(config, CorpusConfig::paper_scale().count)
}

/// Runs the workload on the first `pinned` paper contracts; the pinned
/// censuses are checked only for the full corpus.
pub fn run_sized(config: RunConfig, pinned: usize) -> RunRecord {
    let extension = extension_for(config.seconds);
    let (plan, first_setup) = timed_setup(config.seed, pinned, extension);
    let untraced = session(&plan, config.seed, None);
    let mut record = RunRecord {
        attempted: plan.order.len() as u64,
        ..RunRecord::default()
    };
    if pinned == CorpusConfig::paper_scale().count {
        record.check(untraced.pinned.verdicts_match(VERDICT_CENSUS), || {
            format!(
                "verdict census {:?} differs from corpus_verdicts.json",
                untraced.pinned
            )
        });
        record.check(untraced.pinned.deploys_match(DEPLOY_CENSUS), || {
            format!(
                "deploy census {:?} differs from deploy_census.json",
                untraced.pinned
            )
        });
    }
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

    let mut log = SpanLog::default();
    let traced = session(&plan, config.seed, Some(&mut log));
    record.attempted += plan.order.len() as u64;
    record.check(traced.all == untraced.all, || {
        "traced admissions' census differs from the untraced one".into()
    });
    values.set(
        "trace.overhead_ratio",
        ratio(traced.host_s, untraced.host_s),
    );
    record.failed += per_layer(&plan, &traced, &mut log, &mut values);
    values.set(
        "failed_op_ratio",
        ratio(record.failed as f64, record.attempted as f64),
    );
    values.set("trace.spans", log.len() as f64);
    if let Err(error) = log.write("contract_corpus", config.seed) {
        record
            .violations
            .push(format!("could not write spans: {error}"));
    }
    values.emit(&PER_LAYER, &mut record);
    record
}

/// End-to-end metrics of an untraced session (all but set-up and memory).
pub fn end_to_end(session: &Session, values: &mut Values) {
    let ops = session.host_us.len() as f64;
    values.set("ops_per_host_s", ratio(ops, session.host_s));
    values.set("op_host_us_p50", quantile(&session.host_us, 0.50));
    values.set("op_host_us_p99", quantile(&session.host_us, 0.99));
    values.set("op_modeled_ms_p50", quantile(&session.deploy_ms, 0.50));
    values.set("op_modeled_ms_p99", quantile(&session.deploy_ms, 0.99));
    values.set(
        "energy_modeled_mj_per_op",
        ratio(
            session.deploy_mj.iter().sum(),
            session.deploy_mj.len() as f64,
        ),
    );
    values.set(
        "goodput_modeled_ops_per_s",
        ratio(ops, session.deploy_ms.iter().sum::<f64>() / 1e3),
    );
}

/// Per-layer metrics of the traced session; returns the admissions whose
/// outcome `deploy` under validation contradicts.
fn per_layer(plan: &Plan, session: &Session, log: &mut SpanLog, values: &mut Values) -> u64 {
    let census = &session.all;
    for (name, count) in [
        ("analysis.accepted", census.accepted),
        (
            "analysis.unproven_dynamic_jump",
            census.unproven_dynamic_jump,
        ),
        (
            "analysis.unproven_possible_underflow",
            census.unproven_possible_underflow,
        ),
        ("analysis.rejected", census.rejected),
        ("analysis.resolved_jumps", census.resolved_jumps),
        ("analysis.certificates_bounded", census.certificates_bounded),
        (
            "analysis.certificates_unbounded",
            census.certificates_unbounded,
        ),
        (
            "analysis.certificates_uncertified",
            census.certificates_uncertified,
        ),
        ("evm.deployed", census.deployed),
        ("evm.refused_code_limit", census.refused_code_limit),
        ("evm.refused_analysis", census.refused_analysis),
        ("evm.refused_constructor", census.refused_constructor),
    ] {
        values.set(name, count as f64);
    }
    let mut analyze_us = log.durations_us("analysis.analyze_init");
    analyze_us.extend(log.durations_us("analysis.analyze_runtime"));
    values.set("analysis.analyze_us_p50", quantile(&analyze_us, 0.50));
    values.set("analysis.analyze_us_p99", quantile(&analyze_us, 0.99));
    let deploy_us = log.durations_us("evm.deploy");
    values.set("evm.deploy_us_p50", quantile(&deploy_us, 0.50));
    values.set("evm.deploy_us_p99", quantile(&deploy_us, 0.99));
    let constructors = session.deploy_ms.len() as f64;
    values.set(
        "evm.host_ns_per_instruction",
        ratio(
            deploy_us.iter().sum::<f64>() * 1e3,
            session.instructions as f64,
        ),
    );
    values.set(
        "evm.instructions_per_op",
        ratio(session.instructions as f64, constructors),
    );
    values.set(
        "evm.keccak_bytes_per_op",
        ratio(session.keccak_bytes as f64, constructors),
    );
    // The device runs only the constructor: CPU active for the deploy.
    values.set(
        "device.active_modeled_ms_per_op",
        ratio(session.deploy_ms.iter().sum(), constructors),
    );
    values.set(
        "device.cpu_mj_per_op",
        ratio(session.deploy_mj.iter().sum(), constructors),
    );

    // Replays on an evenly spaced sample: keccak over the init code, and
    // `deploy` under validation, whose outcome must match the admission's.
    let validated = EvmConfig::cc2538().with_deploy_validation(true);
    let (mut hash_ns, mut hashed, mut mismatches) = (0.0, 0u64, 0u64);
    for &index in &spaced_sample(&plan.order, REPLAY_CONTRACTS) {
        let code = &plan.contracts[index].init_code;
        let op = index as u64;
        let (_, us) = log.time("crypto.keccak", None, op, || keccak256(code));
        hash_ns += us * 1e3;
        hashed += code.len() as u64;
        let (result, _) = log.time("evm.deploy_validated", None, op, || {
            deploy(&validated, code)
        });
        if session.outcomes[index] != Some(Outcome::of(&result)) {
            mismatches += 1;
        }
    }
    values.set("crypto.keccak_ns_per_byte", ratio(hash_ns, hashed as f64));
    mismatches
}
