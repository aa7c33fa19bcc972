//! The sharded metrics [`Registry`] and the serializable [`Snapshot`]
//! with Prometheus-style text rendering.

use std::collections::HashMap;
use std::sync::Mutex;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Number of independent mutex-guarded name→metric maps; lookups for
/// different names rarely contend. Metric *updates* never touch these
/// locks — only get-or-create and snapshot do.
const REGISTRY_SHARDS: usize = 16;

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A sharded name→metric map with get-or-create semantics.
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) (and
/// their `_with` labeled variants) are cheap clones of shared atomic
/// state: fetch once, cache, and update lock-free. Each instance that
/// produces figures (a server, a submission pool) creates its own with
/// [`Registry::new`].
#[derive(Default)]
pub struct Registry {
    shards: [Mutex<HashMap<String, Entry>>; REGISTRY_SHARDS],
}

fn shard_of(key: &str) -> usize {
    // FNV-1a, matching the engine's content-addressing idiom.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % REGISTRY_SHARDS as u64) as usize
}

/// Renders the canonical identity key `name{k="v",…}` used both for
/// registry lookup and for sorting snapshots.
fn identity(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl Registry {
    /// A fresh private registry (tests, embedded use).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let key = identity(name, &labels);
        let mut shard = self.shards[shard_of(&key)].lock().unwrap();
        let entry = shard.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            metric: make(),
        });
        entry.metric.clone()
    }

    /// The counter `name` (no labels), created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter `name` with the given label set, created on first use.
    ///
    /// # Panics
    /// If the same name+labels is already registered as a different type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge `name` (no labels), created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge `name` with the given label set, created on first use.
    ///
    /// # Panics
    /// If the same name+labels is already registered as a different type.
    fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram `name` (no labels), created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// The histogram `name` with the given label set, created on first use.
    ///
    /// # Panics
    /// If the same name+labels is already registered as a different type.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_create(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// sorted by identity (`name{labels}`). Metrics updated concurrently
    /// with the snapshot land either side of the cut; each individual
    /// metric's copy is internally consistent.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = Vec::new();
        for shard in &self.shards {
            for entry in shard.lock().unwrap().values() {
                let value = match &entry.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                metrics.push(MetricSnapshot {
                    name: entry.name.clone(),
                    labels: entry.labels.clone(),
                    value,
                });
            }
        }
        Snapshot::from_series(metrics)
    }

    /// Zeroes every counter and histogram. Gauges are left alone — they
    /// mirror live state (queue depth, connections) that a reset must not
    /// falsify.
    pub fn reset(&self) {
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for entry in shard.values() {
                match &entry.metric {
                    Metric::Counter(c) => c.reset(),
                    Metric::Histogram(h) => h.reset(),
                    Metric::Gauge(_) => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// The value half of one snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state with precomputed quantiles.
    Histogram(HistogramSnapshot),
}

/// One metric in a [`Snapshot`]: identity plus value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (e.g. `service_request_us`).
    pub name: String,
    /// Label set, in registration order.
    pub labels: Vec<(String, String)>,
    /// The snapshotted value.
    pub value: MetricValue,
}

/// A deterministic, wire-serializable copy of a whole [`Registry`],
/// sorted by metric identity. Roundtrips through the JSON value model, so
/// a remote client can rebuild it from the `metrics` protocol verb and
/// render [`Snapshot::to_prometheus_text`] locally.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All metrics, sorted by `name{labels}` identity.
    pub metrics: Vec<MetricSnapshot>,
}

fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), v.replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Assembles series rendered from several sources (registries,
    /// instance counters) into one snapshot, sorted by identity
    /// (`name{labels}`) like [`Registry::snapshot`].
    pub fn from_series(mut metrics: Vec<MetricSnapshot>) -> Snapshot {
        metrics.sort_by_cached_key(|m| identity(&m.name, &m.labels));
        Snapshot { metrics }
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# TYPE` headers, one `name{labels} value` line per sample,
    /// histograms as cumulative `_bucket{le=…}` / `_sum` / `_count`
    /// series. Output is deterministic for a given snapshot.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<(String, &'static str)> = None;
        for m in &self.metrics {
            let name = sanitize_name(&m.name);
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if last_typed != Some((name.clone(), kind)) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_typed = Some((name.clone(), kind));
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name}{} {v}\n", render_labels(&m.labels, None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name}{} {v}\n", render_labels(&m.labels, None)));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(lo, c) in &h.buckets {
                        cum += c;
                        let le = crate::metrics::bucket_upper_bound_of_value(lo);
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            render_labels(&m.labels, Some(("le", le.to_string())))
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{} {cum}\n",
                        render_labels(&m.labels, Some(("le", "+Inf".to_string())))
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        render_labels(&m.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        render_labels(&m.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// Looks up a metric by name and exact label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// The counter total for `name` (no labels), or `None`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match &self.find(name, &[])?.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire format (compat-serde value model)
// ---------------------------------------------------------------------------

/// Written by hand, not derived: `kind` and `value` form an adjacent
/// tag (`"kind":"histogram","value":{…}`), which the derive does not
/// implement.
impl Serialize for MetricSnapshot {
    fn to_value(&self) -> Value {
        let (kind, value) = match &self.value {
            MetricValue::Counter(v) => ("counter", v.to_value()),
            MetricValue::Gauge(v) => ("gauge", v.to_value()),
            MetricValue::Histogram(h) => ("histogram", h.to_value()),
        };
        Value::Object(vec![
            ("name".to_owned(), self.name.to_value()),
            ("labels".to_owned(), self.labels.to_value()),
            ("kind".to_owned(), Value::String(kind.to_owned())),
            ("value".to_owned(), value),
        ])
    }
}

/// Written by hand, as its `Serialize` is: the adjacent `kind` tag.
impl Deserialize for MetricSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name| serde::field(v, "MetricSnapshot", name);
        let raw = field("value")?;
        let value = match String::from_value(field("kind")?)?.as_str() {
            "counter" => MetricValue::Counter(u64::from_value(raw)?),
            "gauge" => MetricValue::Gauge(i64::from_value(raw)?),
            "histogram" => MetricValue::Histogram(HistogramSnapshot::from_value(raw)?),
            kind => return Err(DeError(format!("unknown metric kind `{kind}`"))),
        };
        Ok(MetricSnapshot {
            name: String::from_value(field("name")?)?,
            labels: Deserialize::from_value(field("labels")?)?,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_state() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.counter("a").get(), 7);
        r.gauge_with("g", &[("pool", "x")]).set(-2);
        assert_eq!(r.gauge_with("g", &[("pool", "x")]).get(), -2);
        // Different labels → different metric.
        assert_eq!(r.gauge_with("g", &[("pool", "y")]).get(), 0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("same").inc();
        r.gauge("same");
    }

    #[test]
    fn snapshot_is_sorted_and_roundtrips() {
        let r = Registry::new();
        r.counter("zzz").add(1);
        r.counter("aaa").add(2);
        r.histogram_with("lat", &[("type", "schedule")]).record(100);
        r.gauge("depth").set(5);
        let snap = r.snapshot();
        let keys: Vec<String> = snap
            .metrics
            .iter()
            .map(|m| identity(&m.name, &m.labels))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);

        let wire = snap.to_value();
        let back = Snapshot::from_value(&wire).unwrap();
        assert_eq!(back, snap);
        // And through actual JSON text.
        let text = serde_json::to_string(&snap).unwrap();
        let reparsed: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(reparsed, snap);
    }

    #[test]
    fn from_series_merges_sources_in_identity_order() {
        let a = Registry::new();
        a.counter_with("req", &[("type", "b")]).inc();
        a.gauge("zeta").set(1);
        let b = Registry::new();
        b.counter_with("req", &[("type", "a")]).inc();
        b.histogram("alpha").record(3);
        let mut series = a.snapshot().metrics;
        series.extend(b.snapshot().metrics);
        let merged = Snapshot::from_series(series);
        let keys: Vec<String> = merged
            .metrics
            .iter()
            .map(|m| identity(&m.name, &m.labels))
            .collect();
        assert_eq!(
            keys,
            ["alpha", "req{type=\"a\"}", "req{type=\"b\"}", "zeta"]
        );
    }

    #[test]
    fn reset_clears_counters_and_histograms_not_gauges() {
        let r = Registry::new();
        r.counter("c").add(9);
        r.histogram("h").record(4);
        r.gauge("g").set(11);
        r.reset();
        assert_eq!(r.counter("c").get(), 0);
        assert_eq!(r.histogram("h").count(), 0);
        assert_eq!(r.gauge("g").get(), 11);
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let r = Registry::new();
        r.counter_with("req_total", &[("type", "ping")]).add(3);
        r.gauge("conns").set(2);
        r.histogram("lat_us").record(5);
        r.histogram("lat_us").record(300);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{type=\"ping\"} 3"));
        assert!(text.contains("# TYPE conns gauge"));
        assert!(text.contains("conns 2"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 305"));
        assert!(text.contains("lat_us_count 2"));
    }
}
