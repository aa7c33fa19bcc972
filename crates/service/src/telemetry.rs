//! One server's own metrics.
//!
//! Every server owns a private [`Registry`] and fetches its handles from
//! it once, at start: the per-type and per-priority request series, the
//! reactor's series, the rejection and invalid-line counters, and the
//! online deadline series. Two servers in one process therefore never
//! share a count. The `stats` reply and the `metrics` snapshot both read
//! these handles; the pool and cache figures come from the engine
//! instances themselves (see `server::metrics`).

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

use vcsched_obs::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{LatencyReply, PriorityLatencyReply};

/// Request types with per-type dispatch metrics, in wire order.
const REQUEST_TYPES: &[&str] = &["schedule", "batch", "stats", "metrics", "ping", "shutdown"];

/// Request types that can carry a wire `priority` (per-priority latency
/// histograms exist only for these).
const PRIORITY_TYPES: &[&str] = &["schedule", "batch"];

/// Per-request-type dispatch metrics.
pub(crate) struct RequestMetrics {
    /// `service_requests_total{type=…}`: requests dispatched.
    pub total: Counter,
    /// `service_request_us{type=…}`: end-to-end dispatch latency.
    latency: Histogram,
}

/// `service_request_us{type=…,priority=…}` for one priority-carrying
/// request type, plus a bitmask of the bands that recorded a request
/// (so `stats` reports only live bands).
struct PriorityLatency {
    latency: [Histogram; 4],
    used: AtomicU8,
}

/// A server's metric handles (see the module docs).
pub(crate) struct ServerMetrics {
    /// The registry every handle below was fetched from.
    pub registry: Registry,
    requests: Vec<RequestMetrics>,
    by_priority: Vec<PriorityLatency>,
    /// `service_rejections_total`: requests answered with a backpressure
    /// rejection (`error` + `retry_after_ms`).
    pub rejections: Counter,
    /// `service_invalid_requests_total`: lines and frames that failed to
    /// parse as a request.
    pub invalid_requests: Counter,
    /// `service_reactor_fds`: descriptors registered with the reactor's
    /// poller (listener + wakeup pipe + connections).
    pub reactor_fds: Gauge,
    /// `service_reactor_wakeups_total`: times the reactor's wakeup pipe
    /// became readable (completion batches and stop signals, coalesced).
    pub reactor_wakeups: Counter,
    /// `service_reactor_write_buffer_bytes`: reply bytes buffered on
    /// connections whose sockets have not yet accepted them.
    pub reactor_write_buffer: Gauge,
    /// `service_slow_reader_closed_total`: connections closed because
    /// their buffered replies exceeded `--max-write-buffer`.
    pub slow_reader_closed: Counter,
    /// `service_binary_connections_total`: connections that negotiated
    /// the `vcsched-frame` binary framing (either version).
    pub binary_connections: Counter,
    /// `engine_deadline_misses_total`: deadline requests answered past
    /// their deadline.
    pub deadline_misses: Counter,
    /// `engine_preemptions_total`: races a fired deadline cut to
    /// best-so-far.
    pub preemptions: Counter,
    /// `engine_shed_total`: priority or deadline requests shed at
    /// saturation.
    pub shed: Counter,
    /// `engine_slack_ms`: deadline slack requested at admission.
    pub slack_ms: Histogram,
}

impl ServerMetrics {
    pub(crate) fn new() -> ServerMetrics {
        let registry = Registry::new();
        ServerMetrics {
            requests: REQUEST_TYPES
                .iter()
                .map(|&t| RequestMetrics {
                    total: registry.counter_with("service_requests_total", &[("type", t)]),
                    latency: registry.histogram_with("service_request_us", &[("type", t)]),
                })
                .collect(),
            by_priority: PRIORITY_TYPES
                .iter()
                .map(|&t| PriorityLatency {
                    latency: ["0", "1", "2", "3"].map(|p| {
                        registry
                            .histogram_with("service_request_us", &[("type", t), ("priority", p)])
                    }),
                    used: AtomicU8::new(0),
                })
                .collect(),
            rejections: registry.counter("service_rejections_total"),
            invalid_requests: registry.counter("service_invalid_requests_total"),
            reactor_fds: registry.gauge("service_reactor_fds"),
            reactor_wakeups: registry.counter("service_reactor_wakeups_total"),
            reactor_write_buffer: registry.gauge("service_reactor_write_buffer_bytes"),
            slow_reader_closed: registry.counter("service_slow_reader_closed_total"),
            binary_connections: registry.counter("service_binary_connections_total"),
            deadline_misses: registry.counter("engine_deadline_misses_total"),
            preemptions: registry.counter("engine_preemptions_total"),
            shed: registry.counter("engine_shed_total"),
            slack_ms: registry.histogram("engine_slack_ms"),
            registry,
        }
    }

    /// The dispatch metrics for one request type (a wire type name).
    pub(crate) fn request(&self, ty: &str) -> &RequestMetrics {
        let idx = REQUEST_TYPES
            .iter()
            .position(|&t| t == ty)
            .expect("known request type");
        &self.requests[idx]
    }

    /// Records a finished request's latency under its type and, when it
    /// carried a wire `priority`, under its priority band too.
    pub(crate) fn record_latency(&self, ty: &str, priority: Option<u8>, elapsed: Duration) {
        self.request(ty).latency.record_duration(elapsed);
        let Some(priority) = priority else {
            return;
        };
        if let Some(idx) = PRIORITY_TYPES.iter().position(|&t| t == ty) {
            let cell = &self.by_priority[idx];
            let band = priority.min(3);
            cell.used.fetch_or(1 << band, Ordering::Relaxed);
            cell.latency[band as usize].record_duration(elapsed);
        }
    }

    /// The `stats` reply's latency section: one row per request type,
    /// with per-priority rows only for bands that recorded a request
    /// (empty until the online path is used, keeping the pre-online
    /// `stats` shape).
    pub(crate) fn latency_replies(&self) -> Vec<LatencyReply> {
        REQUEST_TYPES
            .iter()
            .zip(&self.requests)
            .map(|(&t, m)| {
                let snap = m.latency.snapshot();
                LatencyReply {
                    request: t.to_owned(),
                    count: snap.count,
                    p50_us: snap.p50,
                    p90_us: snap.p90,
                    p99_us: snap.p99,
                    p999_us: snap.p999,
                    by_priority: self.priority_replies(t),
                }
            })
            .collect()
    }

    fn priority_replies(&self, ty: &str) -> Vec<PriorityLatencyReply> {
        let Some(idx) = PRIORITY_TYPES.iter().position(|&t| t == ty) else {
            return Vec::new();
        };
        let cell = &self.by_priority[idx];
        let used = cell.used.load(Ordering::Relaxed);
        (0u8..4)
            .filter(|&p| used & (1 << p) != 0)
            .map(|p| {
                let snap = cell.latency[p as usize].snapshot();
                PriorityLatencyReply {
                    priority: p,
                    count: snap.count,
                    p50_us: snap.p50,
                    p90_us: snap.p90,
                    p99_us: snap.p99,
                    p999_us: snap.p999,
                }
            })
            .collect()
    }
}
