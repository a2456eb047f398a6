//! The recording sink and the cloneable [`TraceHandle`] components
//! actually hold.
//!
//! Components never own a tracer type directly: they hold a `TraceHandle`,
//! which is either empty (the default — every publish is one `Option`
//! branch and the closure arguments are never run) or an
//! `Arc<Mutex<RecordingTracer>>` shared with the harness that wants the
//! data. This keeps `RecordingTracer` out of every hot path while letting
//! any clone of the handle read the snapshot back at the end of a run.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;
use crate::metrics::{Histogram, MetricsRegistry};

/// A bounded recording sink: a ring buffer of the most recent events plus
/// a metrics registry.
///
/// When the ring is full the *oldest* event is dropped and
/// [`RecordingTracer::dropped`] counts it, so a long soak keeps the tail
/// of the timeline and the memory bound holds. Metrics are not ring
/// buffered — counters and gauges are O(1) per name, and histograms carry
/// their own sample cap.
#[derive(Debug, Clone, Default)]
pub struct RecordingTracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    metrics: MetricsRegistry,
}

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

impl RecordingTracer {
    /// Creates a recorder with the default event capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a recorder keeping at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        RecordingTracer {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Copies the current state out as an owned [`TraceSnapshot`].
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            events: self.events.iter().cloned().collect(),
            dropped: self.dropped,
            metrics: self.metrics.clone(),
        }
    }

    /// Records one typed event, evicting the oldest when the ring is full.
    pub fn record_event(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.events.push_back(event);
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        self.metrics.count(name, delta);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.metrics.gauge(name, value);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }
}

/// An owned copy of a recording's state, safe to inspect after the traced
/// components are gone.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Recorded events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// All named metrics.
    pub metrics: MetricsRegistry,
}

impl TraceSnapshot {
    /// Renders the snapshot's events as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Events of one kind, in order.
    pub fn events_of_kind<'a>(
        &'a self,
        kind: &'a str,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.kind() == kind)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.metrics.histogram(name)
    }
}

/// The handle components hold: either empty (no-op, the default) or a
/// shared reference to one [`RecordingTracer`].
///
/// Every publish method takes the payload lazily — a closure for events
/// and labelled gauges, plain values only where construction is free — so
/// the disabled path never formats, allocates or locks. Clones share the
/// recorder: attach one handle to a whole fleet and snapshot it once.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Mutex<RecordingTracer>>>,
}

impl TraceHandle {
    /// The no-op handle (same as `TraceHandle::default()`).
    pub fn noop() -> Self {
        TraceHandle { inner: None }
    }

    /// A handle backed by a fresh recorder keeping at most `capacity`
    /// events.
    pub fn recording(capacity: usize) -> Self {
        TraceHandle {
            inner: Some(Arc::new(Mutex::new(RecordingTracer::with_capacity(
                capacity,
            )))),
        }
    }

    /// True when a recorder is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Publishes one event; `make` only runs when recording.
    #[inline]
    pub fn event<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("tracer lock").record_event(make());
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("tracer lock").add_counter(name, delta);
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("tracer lock").set_gauge(name, value);
        }
    }

    /// Sets a gauge whose name needs formatting (e.g. a per-peer label);
    /// `name` only runs when recording.
    #[inline]
    pub fn gauge_labeled<F: FnOnce() -> String>(&self, name: F, value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("tracer lock").set_gauge(&name(), value);
        }
    }

    /// Records one histogram sample.
    #[inline]
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("tracer lock").observe(name, value);
        }
    }

    /// Records a histogram sample under a formatted name; `name` only runs
    /// when recording.
    #[inline]
    pub fn observe_labeled<F: FnOnce() -> String>(&self, name: F, value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("tracer lock").observe(&name(), value);
        }
    }

    /// Copies the recorder's state out (`None` for a no-op handle).
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.inner
            .as_ref()
            .map(|inner| inner.lock().expect("tracer lock").snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_event(sequence: u64) -> TraceEvent {
        TraceEvent::Phase {
            node: "sender".into(),
            peer: "receiver".into(),
            phase: "payment".into(),
            sequence,
            duration_us: 1_000,
        }
    }

    #[test]
    fn noop_handle_runs_no_closures() {
        let handle = TraceHandle::default();
        assert!(!handle.enabled());
        handle.event(|| unreachable!("noop handle must not build events"));
        handle.gauge_labeled(|| unreachable!("noop handle must not format labels"), 1.0);
        handle.count("x", 1);
        handle.observe("y", 2.0);
        assert!(handle.snapshot().is_none());
    }

    #[test]
    fn recording_handle_shares_state_across_clones() {
        let handle = TraceHandle::recording(8);
        let clone = handle.clone();
        handle.event(|| phase_event(1));
        clone.event(|| phase_event(2));
        clone.count("rounds", 1);
        handle.gauge_labeled(|| format!("balance.{}", "receiver"), 30.0);
        handle.observe_labeled(|| "latency".to_string(), 5.0);
        let snapshot = handle.snapshot().unwrap();
        assert_eq!(snapshot.events.len(), 2);
        assert_eq!(snapshot.metrics.counter("rounds"), 1);
        assert_eq!(snapshot.metrics.gauge_value("balance.receiver"), Some(30.0));
        assert_eq!(snapshot.histogram("latency").unwrap().count(), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tracer = RecordingTracer::with_capacity(3);
        for sequence in 0..5 {
            tracer.record_event(phase_event(sequence));
        }
        assert_eq!(tracer.dropped(), 2);
        let kept: Vec<u64> = tracer
            .events()
            .map(|e| match e {
                TraceEvent::Phase { sequence, .. } => *sequence,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.dropped, 2);
        assert_eq!(snapshot.events_of_kind("Phase").count(), 3);
        assert_eq!(snapshot.events_of_kind("Round").count(), 0);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut tracer = RecordingTracer::new();
        tracer.record_event(phase_event(1));
        tracer.record_event(phase_event(2));
        let jsonl = tracer.snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with("{\"type\":\"Phase\""));
            assert!(line.ends_with('}'));
        }
    }
}
