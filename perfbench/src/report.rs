//! Run records: metrics with units and clocks, correctness tallies, host
//! diagnostics, and their JSON rendering.

use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Seconds this code takes on the machine running it.
    Host,
    /// Deterministic CC2538 device / fleet time and energy.
    Modeled,
    /// An exact count or ratio of counts.
    Count,
}

impl Clock {
    /// The label printed beside the metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Operations attempted (payment rounds or contract admissions).
    pub attempted: u64,
    /// Operations with a wrong outcome.
    pub failed: u64,
    /// Why the run is not correct, one line per violated check.
    pub violations: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Host-noise diagnostics (recorded beside the metrics, not metrics).
    pub diagnostics: Vec<(&'static str, f64)>,
}

impl RunRecord {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The value of metric `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|metric| metric.name == name)
            .map(|metric| metric.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each metric with its value and unit).
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (index, metric) in self.metrics.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The run record printed before the result line: workload, seed,
    /// each metric's clock, the host diagnostics and any violations.
    pub fn record_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"clocks\": {{"
        );
        for (index, metric) in self.metrics.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", metric.name, metric.clock.label());
        }
        out.push_str("}, \"host_diagnostics\": {");
        for (index, (name, value)) in self.diagnostics.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {}", json_number(*value));
        }
        out.push_str("}, \"violations\": [");
        for (index, violation) in self.violations.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", violation.replace(['"', '\\'], "'"));
        }
        out.push_str("]}}");
        out
    }

    /// One human-readable line per metric: name, value, unit, clock.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            let _ = writeln!(
                out,
                "{:<40} {:>18} {:<8} {}",
                metric.name,
                json_number(metric.value),
                metric.unit,
                metric.clock.label()
            );
        }
        out
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_string();
    }
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}
