//! The wire protocol: newline-delimited JSON, one request and one
//! response object per line.
//!
//! Every request object carries a `"type"` tag (`schedule`, `batch`,
//! `stats`, `metrics`, `ping`, `shutdown`); every response carries `"ok"`
//! plus a `"type"` tag (`schedule`, `batch`, `stats`, `metrics`, `pong`,
//! `bye`, `error`). Optional request fields fall back to the server's
//! configured defaults.
//!
//! ```text
//! → {"type":"ping","delay_ms":0}
//! ← {"ok":true,"type":"pong","delay_ms":0}
//! → {"type":"schedule","block":{…},"machine":"2c","policies":["vc","uas"]}
//! ← {"ok":true,"type":"schedule","winner":"vc","awct":11.2,"policies":[…],…}
//! → {"type":"stats"}
//! ← {"ok":true,"type":"stats","jobs":8,…,"policies":[…],"cache":{…}}
//! ```
//!
//! `schedule` and `batch` requests pick their policy set per request:
//! `"policies"` (a JSON array of registry names, or one comma-separated
//! string) wins over the legacy `"mode"`/`"portfolio"` switches, which in
//! turn win over the server's configured default set. Responses report
//! per-policy telemetry (win counts, deduction steps, fallbacks).
//!
//! A rejected admission (queue full) is an `error` response carrying
//! `retry_after_ms` — the client's backoff hint.
//!
//! # Request ids and pipelining
//!
//! Any request may carry an optional `"id"` (an unsigned integer chosen
//! by the client). The server echoes it on every frame it produces for
//! that request, and id'd replies complete *out of order*: a client can
//! pipeline many id'd requests on one connection and match replies by
//! id as each finishes. Requests **without** an id keep the original
//! contract — exactly one reply line per request, delivered in request
//! order — and their reply bytes are identical to the pre-id protocol
//! (no `"id"` field is injected).
//!
//! ```text
//! → {"type":"ping","id":2,"delay_ms":50}
//! → {"type":"stats","id":1}
//! ← {"ok":true,"type":"stats","id":1,…}      (finishes first)
//! ← {"ok":true,"type":"pong","id":2,"delay_ms":50}
//! ```
//!
//! # Streaming batches
//!
//! A `batch` request with `"stream":true` (id required) answers with one
//! `block` frame per solved block — in corpus order, as each resolves —
//! followed by the usual `batch` summary frame:
//!
//! ```text
//! → {"type":"batch","id":9,"stream":true,"count":3,…}
//! ← {"ok":true,"type":"block","id":9,"index":0,"winner":"vc",…}
//! ← {"ok":true,"type":"block","id":9,"index":1,…}
//! ← {"ok":true,"type":"block","id":9,"index":2,…}
//! ← {"ok":true,"type":"batch","id":9,"summary":{…}}
//! ```

use serde::{read_field, DeError, Deserialize, Kind, Reader, Serialize, Value};
use vcsched_engine::{PolicySet, PolicyStat};
use vcsched_ir::{Schedule, Superblock};

use crate::frame;

/// Machine preset of a `schedule` or `batch` request that names none.
const DEFAULT_MACHINE: &str = "2c";
/// Benchmark a `batch` request synthesizes when it names none.
const DEFAULT_BENCH: &str = "099.go";
/// Block count of a `batch` request that gives none.
const DEFAULT_COUNT: usize = 100;
/// Corpus seed of a `batch` request that gives none.
const DEFAULT_SEED: u64 = 7;

/// Legacy scheduling mode of a `schedule` request — shorthand for the
/// two canonical policy sets. The `"policies"` field supersedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
#[serde(rename_all = "lowercase")]
pub enum ScheduleMode {
    /// VC under the step budget, CARS fallback (§6.1): the `vc,cars` set.
    #[default]
    Single,
    /// The full registered portfolio: `vc,cars,uas,two-phase`.
    Portfolio,
}

impl ScheduleMode {
    /// Parses a wire name.
    pub fn parse(s: &str) -> Result<ScheduleMode, DeError> {
        match s {
            "single" => Ok(ScheduleMode::Single),
            "portfolio" => Ok(ScheduleMode::Portfolio),
            other => Err(DeError(format!(
                "unknown mode `{other}` (single, portfolio)"
            ))),
        }
    }
}

/// One client request.
///
/// `Serialize` is derived: `{"type":"<verb>", fields…}`, each optional
/// field written as `null` when unset, except `Ping.priority`, which is
/// left out so legacy ping lines stay byte-identical. `Deserialize` is
/// written by hand (see its impl).
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "type", rename_all = "lowercase")]
pub enum Request {
    /// Schedule one superblock.
    Schedule {
        /// The superblock, in its serde JSON form.
        block: Superblock,
        /// Machine preset name (`2c`, `4c1`, `4c2`, `hetero`).
        machine: String,
        /// Explicit policy set (registry names). Wins over `mode`;
        /// `None` falls through to `mode`, then the server default.
        policies: Option<Vec<String>>,
        /// Legacy mode shorthand (`None` = server default set).
        mode: Option<ScheduleMode>,
        /// VC deduction-step budget (`None` = server default).
        steps: Option<u64>,
        /// VC trail-work budget in bytes of state touched by deduction
        /// mutations (`None` = unlimited).
        budget_bytes: Option<u64>,
        /// Cooperative early-cancel (`None` = server default).
        early_cancel: Option<bool>,
        /// Accepted on both wires and ignored: the request races the
        /// policy set it names, which returns what any narrowing that
        /// kept the winner would have returned. Kept so that clients
        /// which send it keep working.
        adaptive: Option<bool>,
        /// Live-in placement seed (`None` = server default).
        placement_seed: Option<u64>,
        /// Return the winning schedule itself, not just its metrics.
        return_schedule: bool,
        /// Deadline slack in milliseconds: the server prices it into a
        /// deterministic deduction-step budget (and a wall-clock
        /// preemption backstop), so a tight deadline gets back the
        /// best-so-far validated schedule tagged `deadline_fired`.
        deadline_ms: Option<u64>,
        /// Priority 0 (shed first) ..= 3 (shed last): decides who is
        /// turned away when the admission queue saturates.
        priority: Option<u8>,
    },
    /// Schedule a synthesized corpus through the pool and summarize.
    Batch {
        /// Benchmark name for synthesis.
        bench: String,
        /// Number of blocks.
        count: usize,
        /// Corpus seed.
        seed: u64,
        /// Machine preset name.
        machine: String,
        /// Explicit policy set (registry names). Wins over `portfolio`.
        policies: Option<Vec<String>>,
        /// Legacy switch: `true` races the full portfolio, `false` the
        /// §6.1 single mode (`None` = server default set).
        portfolio: Option<bool>,
        /// VC deduction-step budget (`None` = server default).
        steps: Option<u64>,
        /// VC trail-work budget in bytes of state touched by deduction
        /// mutations (`None` = unlimited).
        budget_bytes: Option<u64>,
        /// Cooperative early-cancel (`None` = server default).
        early_cancel: Option<bool>,
        /// Accepted on both wires and ignored, as on `schedule`.
        adaptive: Option<bool>,
        /// Stream one `block` frame per solved block before the summary.
        /// Requires a request id (frames are matched by id).
        stream: bool,
        /// Per-block deadline slack in milliseconds, priced into each
        /// block's deduction-step budget exactly like `schedule`.
        deadline_ms: Option<u64>,
        /// Priority of the whole batch (admission shedding).
        priority: Option<u8>,
    },
    /// Service and cache counters.
    Stats,
    /// Full observability snapshot: every counter, gauge and histogram
    /// of this server and its pool, plus the process tracer's
    /// `obs_trace_dropped_total` (see `vcsched-obs`).
    Metrics,
    /// Round-trip through the admission queue and worker pool; the
    /// worker sleeps `delay_ms` before answering (0 = pure latency
    /// probe). Exercises the same backpressure path as real work.
    Ping {
        /// Server-side delay in milliseconds.
        delay_ms: u64,
        /// Priority 0 (shed first) ..= 3 (shed last): fair-queue weight
        /// and saturation behavior, same bands as `schedule`. Omitted
        /// from the wire when `None` so legacy ping lines stay
        /// byte-identical.
        #[serde(skip_serializing_if = "Option::is_none")]
        priority: Option<u8>,
    },
    /// Stop accepting work, drain in-flight jobs, exit.
    Shutdown,
}

/// A `schedule` response body.
///
/// Deserialization is backward-compatible: replies from servers
/// predating the online path (no `deadline_fired`) parse with the field
/// defaulted to `false`, and a reply without `schedule` parses as `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReply {
    /// Winning policy name.
    pub winner: String,
    /// Validated AWCT of the winning schedule.
    pub awct: f64,
    /// Deduction steps the VC scheduler spent.
    pub vc_steps: u64,
    /// Whether VC exhausted its budget (CARS fallback).
    pub vc_timed_out: bool,
    /// Whether the answer came from the schedule cache.
    pub cached: bool,
    /// Inter-cluster copies in the winning schedule.
    pub copies: usize,
    /// Per-policy telemetry of the race that produced this schedule (the
    /// recorded race, when the answer came from the cache).
    pub policies: Vec<PolicyStat>,
    /// The schedule itself, if `return_schedule` was set.
    #[serde(default)]
    pub schedule: Option<Schedule>,
    /// Whether a deadline preempted the race and this is the best-so-far
    /// validated schedule rather than a full race's answer.
    #[serde(default)]
    pub deadline_fired: bool,
}

/// One streamed per-block frame of a `batch` request with
/// `"stream":true`, emitted in corpus order as each block resolves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockReply {
    /// Corpus index of the block this frame reports.
    pub index: usize,
    /// Winning policy name.
    pub winner: String,
    /// Validated AWCT of the winning schedule.
    pub awct: f64,
    /// Whether the answer came from the schedule cache.
    pub cached: bool,
    /// Inter-cluster copies in the winning schedule.
    pub copies: usize,
}

/// Per-policy lifetime counters in a `stats` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyTotalsReply {
    /// Policy name (registry identity).
    pub policy: String,
    /// Requests this policy won (cached answers included).
    pub wins: u64,
    /// Deduction steps actually spent by the pool's workers.
    pub steps: u64,
    /// Fresh solves where the policy abandoned.
    pub fallbacks: u64,
}

/// Per-shard cache counters in a `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardReply {
    /// Lookups answered by this shard.
    pub hits: u64,
    /// Lookups this shard could not answer.
    pub misses: u64,
    /// Entries inserted (journal replay included).
    pub insertions: u64,
    /// Entries evicted by the shard's LRU policy.
    pub evictions: u64,
    /// Schedules currently held by this shard.
    pub len: usize,
}

/// Cache section of a `stats` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheReply {
    /// Total hits over all shards.
    pub hits: u64,
    /// Total misses over all shards.
    pub misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Schedules held in memory.
    pub len: usize,
    /// Per-shard counters, in shard order.
    pub shards: Vec<ShardReply>,
}

/// Per-priority latency quantiles nested in a [`LatencyReply`], read
/// from the `service_request_us{type=…,priority=…}` histograms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PriorityLatencyReply {
    /// Priority band (0..=3).
    pub priority: u8,
    /// Requests dispatched at this priority since process start.
    pub count: u64,
    /// Median end-to-end latency, µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
}

/// Per-request-type latency quantiles in a `stats` response, read from
/// the obs registry's `service_request_us` histograms. Quantile values
/// are deterministic histogram-bucket lower bounds, in microseconds.
///
/// Deserialization is backward-compatible: replies predating the
/// per-priority breakdown parse with `by_priority` empty.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyReply {
    /// Request type (`schedule`, `batch`, `stats`, `ping`, `metrics`).
    pub request: String,
    /// Requests of this type dispatched since process start.
    pub count: u64,
    /// Median end-to-end latency, µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// Per-priority breakdown (only request types that carry a priority
    /// populate it; empty from servers predating the online path).
    #[serde(default)]
    pub by_priority: Vec<PriorityLatencyReply>,
}

/// A `stats` response body.
///
/// Deserialization is backward-compatible: replies from servers predating
/// the obs layer (no `uptime_ms`, no `latency`) parse with those fields
/// defaulted, and fields this client no longer reads (an older server's
/// `adaptive` section) are skipped, so newer clients keep working against
/// older daemons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Worker threads.
    pub jobs: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently waiting for a worker.
    pub queue_depth: usize,
    /// Jobs admitted since start.
    pub accepted: u64,
    /// Jobs rejected by backpressure since start.
    pub rejected: u64,
    /// Jobs completed since start.
    pub completed: u64,
    /// Client connections currently registered with the reactor.
    #[serde(default)]
    pub connections_open: u64,
    /// Client connections accepted since start.
    #[serde(default)]
    pub connections_total: u64,
    /// Per-policy win counts and step totals since start, in
    /// first-encounter order.
    pub policies: Vec<PolicyTotalsReply>,
    /// Sharded cache counters.
    pub cache: CacheReply,
    /// Milliseconds since the server started.
    #[serde(default)]
    pub uptime_ms: u64,
    /// Per-request-type end-to-end latency quantiles, from this server's
    /// own histograms: servers sharing one process never share a count.
    #[serde(default)]
    pub latency: Vec<LatencyReply>,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of a `schedule` request.
    Schedule(ScheduleReply),
    /// Result of a `batch` request: the engine's JSON batch summary.
    Batch {
        /// The `BatchSummary` value, verbatim.
        summary: Value,
    },
    /// One streamed block of a `batch` request with `"stream":true`;
    /// the `batch` summary frame follows after the last block.
    Block(BlockReply),
    /// Result of a `stats` request.
    Stats(StatsReply),
    /// Result of a `metrics` request: the serialized obs registry
    /// snapshot (`vcsched_obs::Snapshot` in its serde JSON form).
    Metrics {
        /// The snapshot value, verbatim.
        metrics: Value,
    },
    /// Result of a `ping` request.
    Pong {
        /// The server-side delay that was applied.
        delay_ms: u64,
    },
    /// Acknowledgement of a `shutdown` request.
    Bye,
    /// Any failure, including backpressure rejections.
    Error {
        /// Human-readable reason.
        error: String,
        /// Present on queue-full rejections: suggested client backoff.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// Whether this response reports success.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error { .. })
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Prepends tag fields to a struct body's object form.
fn tagged(head: Vec<(&str, Value)>, body: Value) -> Value {
    let mut fields: Vec<(String, Value)> =
        head.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    if let Value::Object(inner) = body {
        fields.extend(inner);
    }
    Value::Object(fields)
}

/// Reads an optional field, treating both absence and JSON `null` as
/// `None`.
fn opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, DeError> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => T::from_value(field).map(Some),
    }
}

/// Reads the `policies` field: a JSON array of names, or one
/// comma-separated string (`"vc,cars"`), both meaning the same set.
fn opt_policies(v: &Value) -> Result<Option<Vec<String>>, DeError> {
    match v.get("policies") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(spec)) => Ok(Some(PolicySet::split_spec(spec))),
        Some(field) => Vec::<String>::from_value(field).map(Some),
    }
}

/// Written by hand, not derived: a request accepts `policies` as an array
/// or one comma-separated string, fills absent fields with the wire
/// defaults (`DEFAULT_*`) rather than `Default::default()`, and carries
/// an envelope `id` the derive knows nothing of. With [`read_request`],
/// its typed twin, it is also the reference pair that
/// `tests/decoder_fuzz.rs` checks against each other.
impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| DeError("request needs a string `type` field".into()))?;
        match ty {
            "schedule" => Ok(Request::Schedule {
                block: Superblock::from_value(
                    v.get("block")
                        .ok_or_else(|| DeError::missing("schedule request", "block"))?,
                )?,
                machine: opt(v, "machine")?.unwrap_or_else(|| DEFAULT_MACHINE.to_owned()),
                policies: opt_policies(v)?,
                mode: match opt::<String>(v, "mode")? {
                    Some(s) => Some(ScheduleMode::parse(&s)?),
                    None => None,
                },
                steps: opt(v, "steps")?,
                budget_bytes: opt(v, "budget_bytes")?,
                early_cancel: opt(v, "early_cancel")?,
                adaptive: opt(v, "adaptive")?,
                placement_seed: opt(v, "placement_seed")?,
                return_schedule: opt(v, "return_schedule")?.unwrap_or(false),
                deadline_ms: opt(v, "deadline_ms")?,
                priority: opt(v, "priority")?,
            }),
            "batch" => Ok(Request::Batch {
                bench: opt(v, "bench")?.unwrap_or_else(|| DEFAULT_BENCH.to_owned()),
                count: opt(v, "count")?.unwrap_or(DEFAULT_COUNT),
                seed: opt(v, "seed")?.unwrap_or(DEFAULT_SEED),
                machine: opt(v, "machine")?.unwrap_or_else(|| DEFAULT_MACHINE.to_owned()),
                policies: opt_policies(v)?,
                portfolio: opt(v, "portfolio")?,
                steps: opt(v, "steps")?,
                budget_bytes: opt(v, "budget_bytes")?,
                early_cancel: opt(v, "early_cancel")?,
                adaptive: opt(v, "adaptive")?,
                stream: opt(v, "stream")?.unwrap_or(false),
                deadline_ms: opt(v, "deadline_ms")?,
                priority: opt(v, "priority")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping {
                delay_ms: opt(v, "delay_ms")?.unwrap_or(0),
                priority: opt(v, "priority")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(unknown_request_type(other)),
        }
    }

    fn read<'de, R: Reader<'de>>(r: &mut R) -> Result<Self, DeError> {
        read_request(r).map(|(request, _)| request)
    }
}

fn unknown_request_type(ty: &str) -> DeError {
    DeError(format!(
        "unknown request type `{ty}` (schedule, batch, stats, metrics, ping, shutdown)"
    ))
}

/// Reads one request object through a pull reader: the request and its
/// envelope `id`, with no `Value` tree. It decodes what
/// [`Request::from_value`] and [`envelope_id`] decode from the same
/// bytes, but refuses an unknown or repeated key and an `id` that is
/// not an unsigned integer or `null`; a caller then decodes the bytes
/// through the tree for the error (or the request) that path gives.
/// Written by hand for the reasons `Request`'s `Deserialize` is.
pub fn read_request<'de, R: Reader<'de>>(r: &mut R) -> Result<(Request, Option<u64>), DeError> {
    const TY: &str = "request";
    let mut seq = r.object()?;
    // Each slot: `None` until its key is read; `Some(None)` for `null`.
    let (mut ty, mut id, mut block) = (None, None, None);
    let (mut machine, mut policies, mut mode) = (None, None, None);
    let (mut steps, mut budget_bytes, mut early_cancel) = (None, None, None);
    let (mut adaptive, mut placement_seed, mut return_schedule) = (None, None, None);
    let (mut deadline_ms, mut priority, mut bench) = (None, None, None);
    let (mut count, mut seed, mut portfolio) = (None, None, None);
    let (mut stream, mut delay_ms) = (None, None);
    let repeated = |key: &str| DeError(format!("repeated field `{key}` of {TY}"));
    while let Some(key) = r.key(&mut seq)? {
        match &*key {
            "type" if ty.is_some() => return Err(repeated(&key)),
            "type" => ty = Some(r.str()?),
            "id" if id.is_some() => return Err(repeated(&key)),
            "id" => id = Some(id_value(Some(&r.scalar()?))?),
            "policies" if policies.is_some() => return Err(repeated(&key)),
            "policies" => {
                policies = Some(match r.peek()? {
                    Kind::Null => r.scalar().map(|_| None)?,
                    Kind::String => Some(PolicySet::split_spec(&r.str()?)),
                    _ => Some(Vec::<String>::read(r)?),
                })
            }
            "block" => read_field::<_, Superblock>(r, &mut block, TY, &key)?,
            "machine" => read_field::<_, Option<String>>(r, &mut machine, TY, &key)?,
            "mode" => read_field::<_, Option<String>>(r, &mut mode, TY, &key)?,
            "steps" => read_field::<_, Option<u64>>(r, &mut steps, TY, &key)?,
            "budget_bytes" => read_field::<_, Option<u64>>(r, &mut budget_bytes, TY, &key)?,
            "early_cancel" => read_field::<_, Option<bool>>(r, &mut early_cancel, TY, &key)?,
            "adaptive" => read_field::<_, Option<bool>>(r, &mut adaptive, TY, &key)?,
            "placement_seed" => read_field::<_, Option<u64>>(r, &mut placement_seed, TY, &key)?,
            "return_schedule" => read_field::<_, Option<bool>>(r, &mut return_schedule, TY, &key)?,
            "deadline_ms" => read_field::<_, Option<u64>>(r, &mut deadline_ms, TY, &key)?,
            "priority" => read_field::<_, Option<u8>>(r, &mut priority, TY, &key)?,
            "bench" => read_field::<_, Option<String>>(r, &mut bench, TY, &key)?,
            "count" => read_field::<_, Option<usize>>(r, &mut count, TY, &key)?,
            "seed" => read_field::<_, Option<u64>>(r, &mut seed, TY, &key)?,
            "portfolio" => read_field::<_, Option<bool>>(r, &mut portfolio, TY, &key)?,
            "stream" => read_field::<_, Option<bool>>(r, &mut stream, TY, &key)?,
            "delay_ms" => read_field::<_, Option<u64>>(r, &mut delay_ms, TY, &key)?,
            other => return Err(DeError::unknown(TY, other)),
        }
    }
    let ty = ty.ok_or_else(|| DeError("request needs a string `type` field".into()))?;
    let request = match &*ty {
        "schedule" => Request::Schedule {
            block: block.ok_or_else(|| DeError::missing("schedule request", "block"))?,
            machine: machine
                .flatten()
                .unwrap_or_else(|| DEFAULT_MACHINE.to_owned()),
            policies: policies.flatten(),
            mode: mode
                .flatten()
                .map(|m| ScheduleMode::parse(&m))
                .transpose()?,
            steps: steps.flatten(),
            budget_bytes: budget_bytes.flatten(),
            early_cancel: early_cancel.flatten(),
            adaptive: adaptive.flatten(),
            placement_seed: placement_seed.flatten(),
            return_schedule: return_schedule.flatten().unwrap_or(false),
            deadline_ms: deadline_ms.flatten(),
            priority: priority.flatten(),
        },
        "batch" => Request::Batch {
            bench: bench.flatten().unwrap_or_else(|| DEFAULT_BENCH.to_owned()),
            count: count.flatten().unwrap_or(DEFAULT_COUNT),
            seed: seed.flatten().unwrap_or(DEFAULT_SEED),
            machine: machine
                .flatten()
                .unwrap_or_else(|| DEFAULT_MACHINE.to_owned()),
            policies: policies.flatten(),
            portfolio: portfolio.flatten(),
            steps: steps.flatten(),
            budget_bytes: budget_bytes.flatten(),
            early_cancel: early_cancel.flatten(),
            adaptive: adaptive.flatten(),
            stream: stream.flatten().unwrap_or(false),
            deadline_ms: deadline_ms.flatten(),
            priority: priority.flatten(),
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "ping" => Request::Ping {
            delay_ms: delay_ms.flatten().unwrap_or(0),
            priority: priority.flatten(),
        },
        "shutdown" => Request::Shutdown,
        other => return Err(unknown_request_type(other)),
    };
    Ok((request, id.flatten()))
}

/// A request the server decoded, with its envelope id.
pub type Decoded = Result<(Request, Option<u64>), Invalid>;

/// A request line or frame that decoded as a value but not as a request:
/// the error the server answers with, and the id that answer echoes (the
/// request's own, once it was read).
#[derive(Debug, Clone, PartialEq)]
pub struct Invalid {
    /// The error reply's text.
    pub error: String,
    /// The id the error reply echoes.
    pub id: Option<u64>,
}

/// Decodes one JSON request line as the server does: typed
/// ([`read_request`]), and through the `Value` tree
/// ([`tree_request_line`]) when the typed decoder refuses it, so that
/// every answer, request or error, is the tree path's.
pub fn decode_request_line(line: &str) -> Decoded {
    let mut r = serde_json::JsonReader::new(line);
    let typed = read_request(&mut r).and_then(|decoded| {
        r.end()?;
        Ok(decoded)
    });
    typed.or_else(|_| tree_request_line(line))
}

/// Decodes one JSON request line through the `Value` tree alone.
pub fn tree_request_line(line: &str) -> Decoded {
    match serde_json::from_str::<Value>(line) {
        Ok(value) => request_of_value(&value),
        Err(e) => Err(Invalid {
            error: format!("invalid request: {e}"),
            id: None,
        }),
    }
}

/// Decodes the binary request frame at the front of `buf` as the server
/// does: typed ([`frame::read_frame_as`]), and through the `Value` tree
/// ([`tree_request_frame`]) when the typed decoder refuses it. `Ok(None)`
/// while `buf` holds no whole frame; `Err` for a corrupt or oversized
/// frame, which ends the connection.
pub fn decode_request_frame(
    buf: &[u8],
    version: frame::Version,
    max_payload: usize,
) -> Result<Option<(Decoded, usize)>, String> {
    match frame::read_frame_as(buf, version, max_payload, |r| read_request(r)) {
        Ok(Some((decoded, used))) => Ok(Some((Ok(decoded), used))),
        Ok(None) => Ok(None),
        Err(_) => tree_request_frame(buf, version, max_payload),
    }
}

/// Decodes the binary request frame at the front of `buf` through the
/// `Value` tree alone (see [`decode_request_frame`]).
pub fn tree_request_frame(
    buf: &[u8],
    version: frame::Version,
    max_payload: usize,
) -> Result<Option<(Decoded, usize)>, String> {
    Ok(frame::decode_frame_as(buf, version, max_payload)?
        .map(|(value, used)| (request_of_value(&value), used)))
}

/// The request and envelope id of a decoded tree.
fn request_of_value(value: &Value) -> Decoded {
    let invalid = |e: DeError, id| Invalid {
        error: format!("invalid request: {e}"),
        id,
    };
    let id = envelope_id(value).map_err(|e| invalid(e, None))?;
    let request = Request::from_value(value).map_err(|e| invalid(e, id))?;
    Ok((request, id))
}

/// Written by hand, not derived: `ok` comes before the `type` tag, which
/// an internally tagged derive cannot place.
impl Serialize for Response {
    fn to_value(&self) -> Value {
        let ok = |ty: &str| {
            vec![
                ("ok", Value::Bool(true)),
                ("type", Value::String(ty.into())),
            ]
        };
        match self {
            Response::Schedule(reply) => tagged(ok("schedule"), reply.to_value()),
            Response::Batch { summary } => {
                tagged(ok("batch"), obj(vec![("summary", summary.clone())]))
            }
            Response::Block(reply) => tagged(ok("block"), reply.to_value()),
            Response::Stats(reply) => tagged(ok("stats"), reply.to_value()),
            Response::Metrics { metrics } => {
                tagged(ok("metrics"), obj(vec![("metrics", metrics.clone())]))
            }
            Response::Pong { delay_ms } => {
                tagged(ok("pong"), obj(vec![("delay_ms", Value::UInt(*delay_ms))]))
            }
            Response::Bye => Value::Object(
                ok("bye")
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect(),
            ),
            Response::Error {
                error,
                retry_after_ms,
            } => obj(vec![
                ("ok", Value::Bool(false)),
                ("type", Value::String("error".into())),
                ("error", Value::String(error.clone())),
                ("retry_after_ms", retry_after_ms.to_value()),
            ]),
        }
    }
}

/// Written by hand, as its `Serialize` is: `ok` precedes the tag, and
/// the derive implements `tag` on `Serialize` only.
impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| DeError("response needs a string `type` field".into()))?;
        match ty {
            "schedule" => Ok(Response::Schedule(ScheduleReply::from_value(v)?)),
            "batch" => Ok(Response::Batch {
                summary: v
                    .get("summary")
                    .cloned()
                    .ok_or_else(|| DeError::missing("batch response", "summary"))?,
            }),
            "block" => Ok(Response::Block(BlockReply::from_value(v)?)),
            "stats" => Ok(Response::Stats(StatsReply::from_value(v)?)),
            "metrics" => Ok(Response::Metrics {
                metrics: v
                    .get("metrics")
                    .cloned()
                    .ok_or_else(|| DeError::missing("metrics response", "metrics"))?,
            }),
            "pong" => Ok(Response::Pong {
                delay_ms: opt(v, "delay_ms")?.unwrap_or(0),
            }),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                error: opt(v, "error")?.unwrap_or_else(|| "unspecified".to_owned()),
                retry_after_ms: opt(v, "retry_after_ms")?,
            }),
            other => Err(DeError(format!("unknown response type `{other}`"))),
        }
    }
}

/// Reads the optional `id` envelope field from a raw request or response
/// object (absence and JSON `null` both mean "no id").
pub fn envelope_id(v: &Value) -> Result<Option<u64>, DeError> {
    id_value(v.get("id"))
}

/// An envelope `id` field's value: absent and `null` both mean no id.
fn id_value(v: Option<&Value>) -> Result<Option<u64>, DeError> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(n)) => Ok(Some(*n)),
        Some(Value::Int(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(_) => Err(DeError("`id` must be an unsigned integer".into())),
    }
}

/// Injects an envelope id right after the `type` tag of a serialized
/// request/response object. `None` leaves the value untouched, so id-less
/// traffic stays byte-identical to the pre-id protocol.
fn inject_id(value: &mut Value, id: Option<u64>) {
    if let (Some(id), Value::Object(fields)) = (id, value) {
        let at = fields
            .iter()
            .position(|(k, _)| k == "type")
            .map_or(fields.len(), |i| i + 1);
        fields.insert(at, ("id".to_owned(), Value::UInt(id)));
    }
}

/// Serializes one response line (no trailing newline), echoing the
/// request's `id` when it had one.
pub fn response_line(response: &Response, id: Option<u64>) -> String {
    serde_json::to_string(&response_value(response, id)).unwrap_or_else(|_| {
        r#"{"ok":false,"type":"error","error":"response serialization failed","retry_after_ms":null}"#
            .to_owned()
    })
}

/// The id-tagged wire value for a response — what [`response_line`]
/// renders as JSON and the binary framing encodes directly.
pub fn response_value(response: &Response, id: Option<u64>) -> Value {
    let mut value = response.to_value();
    inject_id(&mut value, id);
    value
}

/// Serializes one request line (no trailing newline), tagging it with an
/// `id` for pipelined out-of-order completion when one is given.
pub fn request_line(request: &Request, id: Option<u64>) -> Result<String, String> {
    serde_json::to_string(&request_value(request, id)).map_err(|e| e.to_string())
}

/// The id-tagged wire value for a request (the binary-framing twin of
/// [`request_line`]).
pub fn request_value(request: &Request, id: Option<u64>) -> Value {
    let mut value = request.to_value();
    inject_id(&mut value, id);
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_roundtrip() {
        let reqs = vec![
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Ping {
                delay_ms: 40,
                priority: None,
            },
            Request::Ping {
                delay_ms: 0,
                priority: Some(3),
            },
            Request::Batch {
                bench: "130.li".into(),
                count: 9,
                seed: 3,
                machine: "4c1".into(),
                policies: None,
                portfolio: Some(true),
                steps: Some(5000),
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                stream: false,
                deadline_ms: Some(250),
                priority: Some(2),
            },
            Request::Batch {
                bench: "099.go".into(),
                count: 4,
                seed: 1,
                machine: "2c".into(),
                policies: Some(vec!["vc".into(), "uas".into()]),
                portfolio: None,
                steps: None,
                budget_bytes: None,
                early_cancel: Some(true),
                adaptive: Some(true),
                stream: true,
                deadline_ms: None,
                priority: None,
            },
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'));
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn schedule_request_defaults_apply() {
        let sb = {
            use vcsched_arch::OpClass;
            let mut b = vcsched_ir::SuperblockBuilder::new("p");
            let i = b.inst(OpClass::Int, 1);
            let x = b.exit(1, 1.0);
            b.data_dep(i, x);
            b.build().unwrap()
        };
        let block_json = serde_json::to_string(&sb).unwrap();
        let req: Request =
            serde_json::from_str(&format!(r#"{{"type":"schedule","block":{block_json}}}"#))
                .unwrap();
        match req {
            Request::Schedule {
                machine,
                policies,
                mode,
                steps,
                early_cancel,
                adaptive,
                placement_seed,
                return_schedule,
                ..
            } => {
                assert_eq!(machine, "2c");
                assert_eq!(policies, None);
                assert_eq!(mode, None);
                assert_eq!(steps, None);
                assert_eq!(early_cancel, None);
                assert_eq!(adaptive, None);
                assert_eq!(placement_seed, None);
                assert!(!return_schedule);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn policies_accept_array_and_comma_string() {
        for line in [
            r#"{"type":"batch","policies":["vc","uas"]}"#,
            r#"{"type":"batch","policies":"vc, uas"}"#,
        ] {
            let req: Request = serde_json::from_str(line).unwrap();
            match req {
                Request::Batch { policies, .. } => {
                    assert_eq!(
                        policies,
                        Some(vec!["vc".to_owned(), "uas".to_owned()]),
                        "{line}"
                    );
                }
                other => panic!("parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn response_wire_roundtrip() {
        let resps = vec![
            Response::Bye,
            Response::Pong { delay_ms: 7 },
            Response::Error {
                error: "admission queue full".into(),
                retry_after_ms: Some(50),
            },
            Response::Stats(StatsReply {
                jobs: 4,
                queue_capacity: 64,
                queue_depth: 1,
                accepted: 10,
                rejected: 2,
                completed: 9,
                connections_open: 3,
                connections_total: 17,
                policies: vec![PolicyTotalsReply {
                    policy: "vc".into(),
                    wins: 6,
                    steps: 12_000,
                    fallbacks: 1,
                }],
                cache: CacheReply {
                    hits: 5,
                    misses: 4,
                    hit_rate: 5.0 / 9.0,
                    len: 4,
                    shards: vec![ShardReply {
                        hits: 5,
                        misses: 4,
                        insertions: 4,
                        evictions: 0,
                        len: 4,
                    }],
                },
                uptime_ms: 12_345,
                latency: vec![LatencyReply {
                    request: "schedule".into(),
                    count: 10,
                    p50_us: 800,
                    p90_us: 1_500,
                    p99_us: 4_000,
                    p999_us: 4_000,
                    by_priority: vec![PriorityLatencyReply {
                        priority: 2,
                        count: 4,
                        p50_us: 900,
                        p90_us: 1_600,
                        p99_us: 4_100,
                        p999_us: 4_100,
                    }],
                }],
            }),
            Response::Metrics {
                metrics: Value::Object(vec![("metrics".to_owned(), Value::Array(vec![]))]),
            },
        ];
        for resp in resps {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn stats_reply_without_obs_fields_still_parses() {
        // A reply shaped like the pre-obs protocol: no uptime_ms, no
        // latency section. Newer clients must still accept it.
        let line = concat!(
            r#"{"ok":true,"type":"stats","jobs":2,"queue_capacity":8,"#,
            r#""queue_depth":0,"accepted":3,"rejected":0,"completed":3,"#,
            r#""policies":[],"cache":{"hits":1,"misses":2,"hit_rate":0.5,"#,
            r#""len":2,"shards":[]}}"#
        );
        let back: Response = serde_json::from_str(line).unwrap();
        match back {
            Response::Stats(reply) => {
                assert_eq!(reply.uptime_ms, 0);
                assert!(reply.latency.is_empty());
                assert_eq!(reply.accepted, 3);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn error_responses_report_not_ok() {
        let err = Response::Error {
            error: "x".into(),
            retry_after_ms: None,
        };
        assert!(!err.is_ok());
        assert!(Response::Bye.is_ok());
        let line = serde_json::to_string(&err).unwrap();
        assert!(line.starts_with(r#"{"ok":false"#), "{line}");
    }

    #[test]
    fn unknown_request_type_is_a_clean_error() {
        let err = serde_json::from_str::<Request>(r#"{"type":"frobnicate"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown request type"), "{err}");
    }

    #[test]
    fn idless_lines_are_byte_identical_to_plain_serialization() {
        let resp = Response::Pong { delay_ms: 0 };
        assert_eq!(
            response_line(&resp, None),
            serde_json::to_string(&resp).unwrap()
        );
        assert_eq!(
            response_line(&resp, None),
            r#"{"ok":true,"type":"pong","delay_ms":0}"#
        );
        let req = Request::Stats;
        assert_eq!(
            request_line(&req, None).unwrap(),
            serde_json::to_string(&req).unwrap()
        );
    }

    #[test]
    fn envelope_id_lands_after_the_type_tag() {
        let line = response_line(&Response::Pong { delay_ms: 3 }, Some(42));
        assert_eq!(line, r#"{"ok":true,"type":"pong","id":42,"delay_ms":3}"#);
        let line = request_line(
            &Request::Ping {
                delay_ms: 3,
                priority: None,
            },
            Some(7),
        )
        .unwrap();
        assert_eq!(line, r#"{"type":"ping","id":7,"delay_ms":3}"#);
        let value: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(envelope_id(&value).unwrap(), Some(7));
    }

    #[test]
    fn envelope_id_rejects_non_integers() {
        for line in [
            r#"{"type":"stats","id":"x"}"#,
            r#"{"type":"stats","id":-1}"#,
        ] {
            let value: Value = serde_json::from_str(line).unwrap();
            assert!(envelope_id(&value).is_err(), "{line}");
        }
        let value: Value = serde_json::from_str(r#"{"type":"stats","id":null}"#).unwrap();
        assert_eq!(envelope_id(&value).unwrap(), None);
    }

    #[test]
    fn block_frame_roundtrip() {
        let frame = Response::Block(BlockReply {
            index: 5,
            winner: "vc".into(),
            awct: 12.5,
            cached: true,
            copies: 2,
        });
        let line = response_line(&frame, Some(9));
        assert!(
            line.starts_with(r#"{"ok":true,"type":"block","id":9,"index":5"#),
            "{line}"
        );
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(frame, back);
    }

    #[test]
    fn deadline_and_priority_parse_on_schedule_and_batch() {
        let req: Request =
            serde_json::from_str(r#"{"type":"batch","deadline_ms":120,"priority":3}"#).unwrap();
        match req {
            Request::Batch {
                deadline_ms,
                priority,
                ..
            } => {
                assert_eq!(deadline_ms, Some(120));
                assert_eq!(priority, Some(3));
            }
            other => panic!("parsed as {other:?}"),
        }
        // Absent fields stay None — the offline wire shape is untouched.
        let req: Request = serde_json::from_str(r#"{"type":"batch"}"#).unwrap();
        match req {
            Request::Batch {
                deadline_ms,
                priority,
                ..
            } => assert_eq!((deadline_ms, priority), (None, None)),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn schedule_reply_without_deadline_fired_still_parses() {
        // A reply shaped like the pre-online protocol: no deadline_fired.
        let line = concat!(
            r#"{"ok":true,"type":"schedule","winner":"vc","awct":10.5,"#,
            r#""vc_steps":120,"vc_timed_out":false,"cached":false,"#,
            r#""copies":1,"policies":[],"schedule":null}"#
        );
        let back: Response = serde_json::from_str(line).unwrap();
        match back {
            Response::Schedule(reply) => {
                assert!(!reply.deadline_fired);
                assert_eq!(reply.winner, "vc");
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn latency_reply_without_priority_breakdown_still_parses() {
        let line = concat!(
            r#"{"request":"schedule","count":3,"p50_us":10,"#,
            r#""p90_us":20,"p99_us":30,"p999_us":40}"#
        );
        let back: LatencyReply = serde_json::from_str(line).unwrap();
        assert!(back.by_priority.is_empty());
        assert_eq!((back.count, back.p999_us), (3, 40));
    }

    #[test]
    fn ping_priority_is_optional_and_absent_stays_byte_identical() {
        // No priority: the wire bytes are exactly the pre-priority form.
        let req = Request::Ping {
            delay_ms: 5,
            priority: None,
        };
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"type":"ping","delay_ms":5}"#
        );
        // With priority: round-trips, and legacy-shaped lines parse.
        let req = Request::Ping {
            delay_ms: 0,
            priority: Some(2),
        };
        let line = serde_json::to_string(&req).unwrap();
        assert_eq!(line, r#"{"type":"ping","delay_ms":0,"priority":2}"#);
        assert_eq!(serde_json::from_str::<Request>(&line).unwrap(), req);
        let legacy: Request = serde_json::from_str(r#"{"type":"ping","delay_ms":9}"#).unwrap();
        assert_eq!(
            legacy,
            Request::Ping {
                delay_ms: 9,
                priority: None,
            }
        );
    }

    #[test]
    fn batch_stream_flag_defaults_off() {
        let req: Request = serde_json::from_str(r#"{"type":"batch"}"#).unwrap();
        match req {
            Request::Batch { stream, .. } => assert!(!stream),
            other => panic!("parsed as {other:?}"),
        }
    }
}
