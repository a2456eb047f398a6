#![forbid(unsafe_code)]
//! Structured event tracing and metrics for the TinyEVM stack.
//!
//! The source paper is a measurement study: Table IV (per-power-state
//! energy), Figure 4 (execution time) and Figure 5 (the current-draw
//! timeline) all come from instrumenting the node. This crate is the
//! reproduction's equivalent instrument bus. Long-lived components —
//! devices, links, endpoints, drivers, the virtual machine — accept a
//! [`TraceHandle`] through a `with_tracer(...)` builder and publish two
//! kinds of observations through it:
//!
//! * **typed events** ([`TraceEvent`]): power-state transitions, per-frame
//!   radio TX/RX, protocol round phases, contract-call summaries — the raw
//!   material for Figure-5-style timelines, exported as JSONL;
//! * **metrics** ([`MetricsRegistry`]): named [`Counter`]s, [`Gauge`]s and
//!   exact-quantile [`Histogram`]s (p50/p90/p99/max over the recorded
//!   samples) — the material for latency/energy tables.
//!
//! The default handle is a no-op: it holds no recorder, every publish
//! method is one `Option` branch, and event/label construction is deferred
//! behind closures so an untraced run does no formatting, no allocation and
//! no locking. The equivalence suites pin that a noop-traced run is
//! byte-identical to the untraced code it replaced. Attach a
//! [`RecordingTracer`] (ring-buffered, bounded) only when a harness
//! actually wants the data:
//!
//! ```
//! use tinyevm_trace::{TraceHandle, TraceEvent};
//!
//! let tracer = TraceHandle::recording(1024);
//! tracer.event(|| TraceEvent::Phase {
//!     node: "sender".into(),
//!     peer: "receiver".into(),
//!     phase: "payment".into(),
//!     sequence: 1,
//!     duration_us: 355_000,
//! });
//! tracer.observe("round_latency_ms", 583.8);
//! let snapshot = tracer.snapshot().unwrap();
//! assert_eq!(snapshot.events.len(), 1);
//! assert_eq!(snapshot.metrics.histogram("round_latency_ms").unwrap().count(), 1);
//! ```

pub mod event;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use event::TraceEvent;
pub use json::JsonObject;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry};
pub use tracer::{RecordingTracer, TraceHandle, TraceSnapshot};
