//! `vcsched-obs` — the workspace's observability core.
//!
//! Two halves, both dependency-light (std + the vendored serde compat):
//!
//! * **Metrics** — a sharded [`Registry`] of striped atomic
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket log-scale [`Histogram`]s
//!   with deterministic p50/p90/p99/p999 readout. Each instance that
//!   produces figures (a server, a submission pool) owns its own
//!   registry or standalone handles; there is no process-wide registry.
//!   [`Registry::snapshot`] produces a sorted, wire-serializable
//!   [`Snapshot`] that renders to Prometheus-style text.
//! * **Tracing** — the [`span!`] macro records name, duration and
//!   key=value fields into a bounded lock-free ring ([`trace::Ring`]),
//!   off by default, sampled when on, drained as JSONL. Overflow drops
//!   the oldest event and counts it in [`Tracer::dropped`].
//!
//! Instrumentation is **results-neutral by construction**: nothing in
//! this crate feeds back into scheduling decisions, so golden corpus
//! output is byte-identical with obs enabled, disabled, or sampled.
//!
//! # Example
//!
//! ```
//! use vcsched_obs as obs;
//!
//! // Metrics: the owner makes a registry, fetches handles once and
//! // updates them lock-free.
//! let registry = obs::Registry::new();
//! let lat = registry.histogram_with("demo_latency_us", &[("type", "unit")]);
//! lat.record(120);
//! let snap = registry.snapshot();
//! assert!(snap.to_prometheus_text().contains("demo_latency_us_count"));
//!
//! // Tracing: off by default; a guard is ~two atomic loads when off.
//! let _span = obs::span!("phase", step = 1u64);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricSnapshot, MetricValue, Registry, Snapshot};
pub use trace::{tracer, write_jsonl, FieldValue, SpanEvent, SpanGuard, Tracer};
