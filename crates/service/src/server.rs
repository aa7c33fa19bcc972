//! The daemon: a TCP listener speaking the newline-delimited JSON
//! protocol — or, negotiated per connection, the compact binary
//! `vcsched-frame` framing — over a [`SubmitPool`].
//!
//! One reactor thread multiplexes the listener and every connection
//! through a level-triggered readiness poller (the `reactor` module):
//! sockets are nonblocking, each connection keeps its own read/write
//! buffers plus a reusable encode scratch, and scheduling work is
//! handed to the pool with completion callbacks instead of a thread
//! parked per request. Workers push *typed* completions onto a queue
//! and ring the reactor's wakeup pipe; the reactor routes each reply
//! back to its connection and encodes it there, in the connection's
//! negotiated wire format, batching everything queued since the last
//! doorbell into one buffer flush.
//!
//! Requests decode typed, with no `Value` tree; what the typed decoder
//! refuses goes through the tree decoder, which answers it (see the
//! protocol module's `decode_request_line`). A `schedule` whose problem
//! the cache already holds never reaches the pool: the reactor answers
//! it in the same pass that read it. On a miss, the key the reactor
//! built rides with the queued work, so the worker does not build it
//! again.
//!
//! A connection's first bytes pick its framing: an exact
//! [`frame::MAGIC`] or [`frame::MAGIC_V1`] preamble switches it to
//! binary frames of that version (the server echoes the preamble as an
//! ack), anything else — including every
//! byte a JSON value can start with — leaves it on newline JSON, so
//! legacy clients are untouched and their replies stay byte-identical.
//!
//! Requests may carry an optional `id` (see the protocol module's
//! pipelining notes): id-less requests are answered strictly in arrival
//! order (a reply-slot per request holds later completions until
//! earlier ones emit), id'd requests complete out of order.
//!
//! Admission is *fair-queued*: parsed pool work lands in a
//! per-connection ring and a weighted round-robin drain (weight = the
//! head request's priority class) admits it into the pool's bounded
//! queue, so one chatty connection cannot starve the rest. On
//! saturation, best-effort work (priority ≤ 1) is shed with
//! `retry_after_ms`; high-priority work and batch blocks park in their
//! ring and are re-driven by the pool's completion hook as capacity
//! frees. A connection whose replies back up past the write-buffer cap
//! is closed as a slow reader (counted) instead of buffering without
//! bound.
//!
//! Each server owns its figures: its request, reactor and online series
//! live in a registry of its own, and the pool and cache figures come
//! from its own pool and cache. `stats` and `metrics` both read those,
//! so two servers in one process never share a count.
//! The `vc_*` series are the pool's too; only the tracer's
//! `obs_trace_dropped_total` is process-wide.
//!
//! Shutdown (a `shutdown` request or [`ServerHandle::shutdown`]) is
//! *draining*: the listener closes, every admitted job completes and
//! its reply is flushed, then workers are joined and the cache
//! journal is flushed.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vcsched_engine::{
    default_jobs, price_deadline_steps, BatchConfig, BatchPlan, CorpusSource, PolicyOptions,
    PolicySet, Problem, ProblemKey, Rejected, ScheduleCache, Solved, SubmitError, SubmitPool,
    Ticket, DEADLINE_FLOOR_STEPS, STEPS_1M,
};
use vcsched_ir::Superblock;
use vcsched_obs::{MetricSnapshot, MetricValue, Snapshot};
use vcsched_workload::live_in_placement;

use crate::frame;
use crate::protocol::{
    decode_request_frame, decode_request_line, response_line, response_value, BlockReply,
    CacheReply, Decoded, Invalid, PolicyTotalsReply, Request, Response, ScheduleMode,
    ScheduleReply, ShardReply, StatsReply,
};
use crate::reactor::{Poller, WakePipe};
use crate::telemetry::ServerMetrics;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the wakeup pipe's read end.
const TOKEN_WAKER: u64 = 1;
/// First poller token handed to an accepted connection.
const TOKEN_CONN0: u64 = 2;

/// How often the trace flusher drains the span ring.
const TRACE_FLUSH_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration (see `vcsched serve` for the CLI surface).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads in the scheduling pool.
    pub jobs: usize,
    /// Bounded admission queue capacity; beyond it requests are rejected
    /// with `retry_after_ms`.
    pub queue_capacity: usize,
    /// In-memory schedule-cache capacity (schedules).
    pub cache_capacity: usize,
    /// Cache shards (one lock per shard).
    pub cache_shards: usize,
    /// Persist the cache journal in this directory (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Maximum request line/frame length; longer requests terminate the
    /// connection with an error response.
    pub max_request_bytes: usize,
    /// Maximum simultaneously open connections; beyond it new sockets
    /// are answered with one `error` + `retry_after_ms` line and closed.
    pub max_connections: usize,
    /// Per-connection write-buffer cap: a connection whose unsent reply
    /// bytes exceed it is closed as a slow reader (counted in
    /// `service_slow_reader_closed_total`) instead of buffering without
    /// bound.
    pub max_write_buffer: usize,
    /// Default VC deduction-step budget for requests that omit `steps`.
    pub default_steps: u64,
    /// Default VC trail-work byte budget for requests that omit
    /// `budget_bytes` (`None` = unlimited).
    pub default_budget_bytes: Option<u64>,
    /// Default policy set for requests that name neither `policies` nor
    /// a legacy mode switch.
    pub default_policies: PolicySet,
    /// Per-machine default policy sets: `(preset key, set)` pairs
    /// consulted (before [`ServiceConfig::default_policies`]) for
    /// requests that name neither `policies` nor a legacy mode switch —
    /// e.g. race `two-phase` only on the communication-hostile `4c2`.
    pub preset_policies: Vec<(String, PolicySet)>,
    /// Default early-cancel switch for requests that omit
    /// `early_cancel`.
    pub default_early_cancel: bool,
    /// Default live-in placement seed for `schedule` requests.
    pub default_placement_seed: u64,
    /// Deadline exchange rate: DP steps of budget bought per
    /// millisecond of remaining slack when a request carries
    /// `deadline_ms` (the paper's §6.1 ≈1 s compile-time anchor prices
    /// 1 ms at 5 steps).
    pub steps_per_ms: u64,
    /// Append span-trace events (JSONL) to this file. Enables the
    /// process-global tracer for the server's lifetime; a flusher thread
    /// drains the ring periodically and once more after the drain.
    pub trace_out: Option<PathBuf>,
    /// Span sampling when tracing: record every Nth span (0 and 1 both
    /// mean every span).
    pub trace_sample: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: default_jobs(),
            queue_capacity: 64,
            cache_capacity: 1 << 16,
            cache_shards: 8,
            cache_dir: None,
            max_request_bytes: 1 << 20,
            max_connections: 1024,
            max_write_buffer: 4 << 20,
            default_steps: STEPS_1M,
            default_budget_bytes: None,
            default_policies: PolicySet::single(),
            preset_policies: Vec::new(),
            default_early_cancel: false,
            default_placement_seed: 0xC60_2007,
            steps_per_ms: 5,
            trace_out: None,
            trace_sample: 1,
        }
    }
}

/// Records `deadline_ms` of wall slack and prices it into a DP-step
/// deadline by the online executor's rule ([`price_deadline_steps`]).
fn priced_deadline(shared: &Shared, deadline_ms: u64, max_steps: u64) -> Option<u64> {
    shared.metrics.slack_ms.record(deadline_ms);
    let rate = shared.config.steps_per_ms;
    price_deadline_steps(deadline_ms, rate, DEADLINE_FLOOR_STEPS, max_steps)
}

/// Resolves a request's effective policy set: explicit `policies` wins,
/// then the legacy mode/portfolio switch, then the per-machine default
/// for the request's preset, then the server-wide default.
fn resolve_policies(
    explicit: Option<Vec<String>>,
    legacy_full: Option<bool>,
    machine: &str,
    config: &ServiceConfig,
) -> Result<PolicySet, String> {
    match (explicit, legacy_full) {
        (Some(names), _) => PolicySet::from_names(&names),
        (None, Some(true)) => Ok(PolicySet::full()),
        (None, Some(false)) => Ok(PolicySet::single()),
        (None, None) => Ok(config
            .preset_policies
            .iter()
            .find(|(preset, _)| preset == machine)
            .map(|(_, set)| set.clone())
            .unwrap_or_else(|| config.default_policies.clone())),
    }
}

/// One finished reply (or a streamed `block` frame, when `done` is
/// false) headed from a worker/batch thread back to a connection.
///
/// Carries the *typed* response: the reactor encodes it on arrival in
/// the owning connection's wire format, reusing that connection's
/// scratch buffer — workers never render wire bytes.
struct Completion {
    /// The connection the reply belongs to. If the connection died in
    /// the meantime, the reply is dropped — the token is never reused.
    token: u64,
    /// Reply-order slot for id-less requests (`None` = id'd or partial;
    /// emit immediately).
    slot: Option<u64>,
    response: Response,
    /// The request's envelope id, echoed into the encoded reply.
    id: Option<u64>,
    /// True when this reply retires the request (the connection's
    /// open-request count drops by one).
    done: bool,
}

/// A unit of pool work parked in a connection's fair-queue ring until
/// the weighted round-robin drain admits it.
enum Work {
    Probe(ProbeWork),
    Schedule(Box<ScheduleWork>),
    BatchBlock(BatchBlockWork),
}

impl Work {
    fn priority(&self) -> u8 {
        match self {
            Work::Probe(w) => w.priority,
            Work::Schedule(w) => w.priority,
            Work::BatchBlock(w) => w.priority,
        }
    }

    /// WRR quantum: one admission per round for best-effort work, up to
    /// four per round for the highest priority class.
    fn weight(&self) -> u32 {
        (u32::from(self.priority()) + 1).min(4)
    }
}

/// A parked `ping`.
struct ProbeWork {
    delay_ms: u64,
    priority: u8,
    cell: ReplyCell,
}

/// A parked `schedule` request, fully resolved at parse time.
struct ScheduleWork {
    priority: u8,
    /// Count a shed on `engine_shed_total` if this request is shed — set
    /// when the request carried a priority or deadline.
    shed_signal: bool,
    /// The problem's cache key, built by the reactor's cache probe and
    /// handed to the worker with the problem.
    key: ProblemKey,
    /// Boxed once at parse time; a saturated attempt hands the same box
    /// back, so retries never copy the problem.
    problem: Box<Problem>,
    return_schedule: bool,
    deadline_ms: Option<u64>,
    cell: ReplyCell,
}

/// One batch block awaiting admission; the ticket (or the admission
/// error) goes back to the batch helper thread over a rendezvous
/// channel, which is the batch's backpressure.
struct BatchBlockWork {
    priority: u8,
    problem: Box<Problem>,
    ticket_tx: SyncSender<Result<Ticket<Solved>, SubmitError>>,
}

/// Per-connection admission rings drained weighted round-robin into
/// the pool's bounded queue.
#[derive(Default)]
struct FairQueues {
    rings: BTreeMap<u64, VecDeque<Work>>,
    /// Token the last drain pass ended on; the next pass starts after
    /// it, rotating which connection admits first.
    cursor: u64,
}

struct Shared {
    pool: SubmitPool,
    config: ServiceConfig,
    addr: SocketAddr,
    stop: AtomicBool,
    /// This server's request, reactor and online series.
    metrics: ServerMetrics,
    /// When the server started, for the stats reply's `uptime_ms`.
    started: Instant,
    /// Currently open client connections (`stats` and the
    /// `service_connections` gauge).
    conns_open: AtomicU64,
    /// Lifetime accepted connections.
    conns_total: AtomicU64,
    /// Typed replies from worker/batch threads awaiting reactor pickup.
    completions: Mutex<Vec<Completion>>,
    /// Per-connection fair-queue rings feeding pool admission. Lock
    /// order: `queues` before `completions`, never reverse.
    queues: Mutex<FairQueues>,
    /// Doorbell into the reactor's blocked `wait`.
    waker: WakePipe,
}

impl Shared {
    /// Signals shutdown and rings the reactor's wakeup pipe.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Queues a reply for the reactor and wakes it.
    fn push(&self, completion: Completion) {
        self.completions.lock().unwrap().push(completion);
        self.waker.wake();
    }
}

/// Hooks the pool's per-completion callback up to the fair-queue drain:
/// every finished job frees queue capacity, so parked work gets another
/// admission attempt without polling. Held through a `Weak` so the hook
/// (owned by the pool, owned by `Shared`) doesn't keep `Shared` alive.
fn install_completion_hook(shared: &Arc<Shared>) {
    let weak = Arc::downgrade(shared);
    shared.pool.set_completion_hook(move || {
        if let Some(shared) = weak.upgrade() {
            drain_fair_queues(&shared);
            shared.waker.wake();
        }
    });
}

/// An in-flight async request's reply duct: carries everything needed
/// to finish the request (route, ordering slot, envelope id, request
/// type and priority for the latency series, span) into the worker's
/// completion callback.
///
/// Exactly one done-reply is guaranteed: the success path sends it, the
/// admission-failure path reclaims the value and sends the rejection,
/// and if a worker drops the callback without running it (pool torn
/// down mid-job) the `Drop` impl sends a "job lost" error.
struct PendingReply {
    shared: Arc<Shared>,
    token: u64,
    slot: Option<u64>,
    id: Option<u64>,
    /// Wire request type.
    ty: &'static str,
    /// The request's wire `priority`: its latency is recorded under the
    /// priority band too.
    priority: Option<u8>,
    start: Instant,
    span: Option<vcsched_obs::SpanGuard>,
    done: bool,
}

/// A shared slot holding a request's reply duct: the admission path and
/// the completion callback race to `take()` it, so at most one reply is
/// ever sent.
type ReplyCell = Arc<Mutex<Option<PendingReply>>>;

fn reply_cell(pending: PendingReply) -> ReplyCell {
    Arc::new(Mutex::new(Some(pending)))
}

/// Takes the cell's pending reply (if still unanswered) and sends the
/// wire error for a failed admission.
fn reply_submit_error(cell: &ReplyCell, e: SubmitError) {
    if let Some(mut p) = cell.lock().unwrap().take() {
        let retry_after_ms = match &e {
            SubmitError::Saturated { retry_after_ms, .. } => {
                p.shared.metrics.rejections.inc();
                Some(*retry_after_ms)
            }
            SubmitError::ShutDown => None,
        };
        p.send(
            Response::Error {
                error: e.to_string(),
                retry_after_ms,
            },
            true,
        );
    }
}

impl PendingReply {
    /// Retires the request with its done-reply: records its latency and
    /// closes its span. The caller routes the returned completion.
    fn finish(&mut self, response: Response) -> Completion {
        self.done = true;
        self.shared
            .metrics
            .record_latency(self.ty, self.priority, self.start.elapsed());
        if let Some(mut span) = self.span.take() {
            span.field("ok", response.is_ok());
        }
        Completion {
            token: self.token,
            slot: self.slot,
            response,
            id: self.id,
            done: true,
        }
    }

    /// Queues a reply for the reactor from a worker or batch thread.
    fn send(&mut self, response: Response, done: bool) {
        let completion = if done {
            self.finish(response)
        } else {
            Completion {
                token: self.token,
                slot: self.slot,
                response,
                id: self.id,
                done,
            }
        };
        self.shared.push(completion);
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        if !self.done {
            self.send(
                Response::Error {
                    error: "job lost: pool shut down before the request ran".to_owned(),
                    retry_after_ms: None,
                },
                true,
            );
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] or send a `shutdown` request.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Signals a draining shutdown without waiting for it to finish.
    pub fn shutdown(&self) {
        self.shared.request_stop();
    }

    /// Blocks until the server has fully shut down (listener closed,
    /// connections and workers drained and joined).
    pub fn join(mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

/// Binds the listener, sets up the poller, and spawns the reactor
/// thread; returns once the server is ready to take connections.
pub fn serve(config: ServiceConfig) -> Result<ServerHandle, String> {
    let cache = Arc::new(ScheduleCache::open(
        config.cache_dir.as_deref(),
        config.cache_capacity,
        config.cache_shards,
    )?);
    let pool = SubmitPool::new(config.jobs, config.queue_capacity, cache);
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let waker = WakePipe::new().map_err(|e| format!("wakeup pipe: {e}"))?;
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    poller
        .register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
        .map_err(|e| format!("register listener: {e}"))?;
    poller
        .register(waker.read_fd(), TOKEN_WAKER, true, false)
        .map_err(|e| format!("register waker: {e}"))?;
    let shared = Arc::new(Shared {
        pool,
        config,
        addr,
        stop: AtomicBool::new(false),
        metrics: ServerMetrics::new(),
        started: Instant::now(),
        conns_open: AtomicU64::new(0),
        conns_total: AtomicU64::new(0),
        completions: Mutex::new(Vec::new()),
        queues: Mutex::new(FairQueues::default()),
        waker,
    });
    install_completion_hook(&shared);

    // Tracing: enable the global tracer and spawn a flusher that drains
    // the span ring to the JSONL file while the server runs. The reactor
    // thread stops the flusher only after the pool has fully drained, so
    // spans recorded by in-flight work still reach the file.
    let trace = shared.config.trace_out.clone().map(|path| {
        let tracer = vcsched_obs::tracer();
        tracer.set_sampling(shared.config.trace_sample);
        tracer.set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let flusher_stop = Arc::clone(&stop);
        let flusher = std::thread::spawn(move || trace_flusher(&path, &flusher_stop));
        (stop, flusher)
    });

    let reactor_shared = Arc::clone(&shared);
    let reactor = std::thread::spawn(move || {
        event_loop(&reactor_shared, listener, poller);
        // Drain: the loop only returns once every connection has closed
        // with its reply bytes flushed; the pool then completes
        // everything it admitted.
        reactor_shared.pool.shutdown();
        if let Some((stop, flusher)) = trace {
            stop.store(true, Ordering::SeqCst);
            let _ = flusher.join();
            vcsched_obs::tracer().set_enabled(false);
        }
    });

    Ok(ServerHandle {
        shared,
        reactor: Some(reactor),
    })
}

/// Appends drained span events to `path` until `stop` is set, then
/// drains once more so nothing recorded during shutdown is lost.
fn trace_flusher(path: &Path, stop: &AtomicBool) {
    let file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(f) => f,
        Err(_) => return,
    };
    let mut out = std::io::BufWriter::new(file);
    loop {
        let done = stop.load(Ordering::SeqCst);
        let events = vcsched_obs::tracer().drain();
        let _ = vcsched_obs::write_jsonl(&events, &mut out);
        let _ = out.flush();
        if done {
            return;
        }
        std::thread::sleep(TRACE_FLUSH_INTERVAL);
    }
}

/// What a nonblocking read left the connection in.
enum Fill {
    /// Read what was there; the peer may send more.
    Open,
    /// Orderly EOF: process what's buffered, then close after flushing.
    Eof,
    /// Hard error: tear the connection down.
    Dead,
}

/// A connection's negotiated framing.
#[derive(Clone, Copy, PartialEq)]
enum Wire {
    /// Newline-delimited JSON (the default; legacy clients land here).
    Json,
    /// `vcsched-frame` length-prefixed binary frames of the version its
    /// preamble negotiated.
    Binary(frame::Version),
}

/// One multiplexed connection's state, owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    wire: Wire,
    /// False until the connection's first bytes have decided JSON vs
    /// binary framing (the decision point is connection start only).
    sniffed: bool,
    /// Bytes read but not yet consumed as requests. Consumption scans
    /// in place and compacts once per readiness pass — no per-request
    /// allocation.
    rbuf: Vec<u8>,
    /// Reply bytes not yet accepted by the socket (from `wpos` on).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Reusable staging buffer for binary frame encoding (the length
    /// prefix needs the payload rendered first).
    scratch: Vec<u8>,
    /// Write-buffer cap (bytes); see [`ServiceConfig::max_write_buffer`].
    max_write: usize,
    /// Unsent replies exceeded `max_write`: close as a slow reader.
    overflowed: bool,
    /// Next reply-order slot to assign to an id-less request.
    next_slot: u64,
    /// The slot whose reply may be emitted next.
    emit_slot: u64,
    /// Completed id-less replies, already encoded for this connection's
    /// wire format, waiting for earlier slots to finish.
    held: BTreeMap<u64, Vec<u8>>,
    /// Async requests admitted but not yet retired by a done-reply.
    open: u64,
    /// No more reads; flush what remains, then close once `finished`.
    closing: bool,
    /// Interest last registered with the poller (readable, writable).
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream, max_write: usize) -> Conn {
        Conn {
            stream,
            wire: Wire::Json,
            sniffed: false,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            scratch: Vec::new(),
            max_write,
            overflowed: false,
            next_slot: 0,
            emit_slot: 0,
            held: BTreeMap::new(),
            open: 0,
            closing: false,
            interest: (true, false),
        }
    }

    fn take_slot(&mut self) -> u64 {
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Queues one reply, encoding it in this connection's wire format:
    /// id'd and partial replies (`slot` = `None`) go straight to the
    /// write buffer; slotted replies wait (pre-encoded) in `held` until
    /// every earlier slot has emitted, so id-less clients see replies
    /// in strict request order no matter how the pool reorders
    /// completions.
    fn emit(&mut self, slot: Option<u64>, response: &Response, id: Option<u64>) {
        match slot {
            None => self.render_to_wbuf(response, id),
            Some(s) if s == self.emit_slot => {
                self.render_to_wbuf(response, id);
                self.emit_slot += 1;
                while let Some(next) = self.held.remove(&self.emit_slot) {
                    self.wbuf.extend_from_slice(&next);
                    self.emit_slot += 1;
                }
            }
            Some(s) => {
                let bytes = self.render(response, id);
                self.held.insert(s, bytes);
            }
        }
        if self.wbuf.len() - self.wpos > self.max_write {
            self.overflowed = true;
        }
    }

    /// Encodes one reply straight into the write buffer (the fast
    /// path: no intermediate per-reply buffer).
    fn render_to_wbuf(&mut self, response: &Response, id: Option<u64>) {
        match self.wire {
            Wire::Json => {
                let line = response_line(response, id);
                self.wbuf.extend_from_slice(line.as_bytes());
                self.wbuf.push(b'\n');
            }
            Wire::Binary(version) => {
                let value = response_value(response, id);
                frame::encode_frame_into(&value, version, &mut self.wbuf, &mut self.scratch);
            }
        }
    }

    /// Encodes one reply into an owned buffer (for out-of-order held
    /// slots).
    fn render(&mut self, response: &Response, id: Option<u64>) -> Vec<u8> {
        let pending = std::mem::take(&mut self.wbuf);
        self.render_to_wbuf(response, id);
        std::mem::replace(&mut self.wbuf, pending)
    }

    /// Writes buffered reply bytes until done or `WouldBlock`. Returns
    /// false when the connection is beyond use.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        true
    }

    /// Reads the nonblocking socket into `rbuf` until a read comes back
    /// short: what the socket still holds after that (or an EOF behind
    /// it) keeps it readable, and level-triggered polling reports it
    /// again, so a readiness event costs one `read` rather than one
    /// more that only says `WouldBlock`.
    fn fill(&mut self) -> Fill {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Fill::Eof,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return Fill::Open;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Fill::Open,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Fill::Dead,
            }
        }
    }

    /// True once a closing connection has nothing left to deliver.
    fn finished(&self) -> bool {
        self.closing && self.open == 0 && self.held.is_empty() && self.wpos == self.wbuf.len()
    }
}

/// The reactor: multiplexes the listener, the wakeup pipe, and every
/// connection until a draining shutdown completes.
fn event_loop(shared: &Arc<Shared>, listener: TcpListener, mut poller: Poller) {
    let metrics = &shared.metrics;
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_token = TOKEN_CONN0;
    let mut listener = Some(listener);
    let mut draining = false;
    let mut events = Vec::new();
    loop {
        // Route every reply pushed by workers since the last doorbell in
        // one pass — streamed batch frames queued together coalesce into
        // a single buffered write below.
        let ready = std::mem::take(&mut *shared.completions.lock().unwrap());
        for c in ready {
            if let Some(conn) = conns.get_mut(&c.token) {
                if c.done {
                    conn.open -= 1;
                }
                conn.emit(c.slot, &c.response, c.id);
            }
        }
        // Parked fair-queue work gets another admission shot (cheap
        // no-op when the rings are empty).
        drain_fair_queues(shared);
        // Begin draining: stop accepting, let every connection finish
        // its in-flight requests and flush.
        if shared.stop.load(Ordering::SeqCst) && !draining {
            draining = true;
            if let Some(l) = listener.take() {
                let _ = poller.deregister(l.as_raw_fd());
            }
            for conn in conns.values_mut() {
                conn.closing = true;
            }
        }
        // Flush, retire finished and overflowed connections, and
        // (re)declare interest: a closing connection stops reading
        // (level-triggered EPOLLIN would spin on EOF otherwise), a
        // backed-up one asks for writability.
        let mut dead = Vec::new();
        let mut wbuf_total: i64 = 0;
        for (&token, conn) in conns.iter_mut() {
            if conn.overflowed {
                metrics.slow_reader_closed.inc();
                dead.push(token);
                continue;
            }
            if !conn.flush() || conn.finished() {
                dead.push(token);
                continue;
            }
            wbuf_total += (conn.wbuf.len() - conn.wpos) as i64;
            let want = (!conn.closing, conn.wpos < conn.wbuf.len());
            if want != conn.interest {
                if poller
                    .modify(conn.stream.as_raw_fd(), token, want.0, want.1)
                    .is_err()
                {
                    dead.push(token);
                    continue;
                }
                conn.interest = want;
            }
        }
        for token in dead {
            close_conn(shared, &mut poller, &mut conns, token);
        }
        metrics.reactor_fds.set(poller.registered() as i64);
        metrics.reactor_write_buffer.set(wbuf_total);
        if draining && conns.is_empty() {
            return;
        }
        if poller.wait(&mut events, -1).is_err() {
            // A broken poller cannot be waited on; fall into the drain
            // path so admitted work still completes.
            shared.stop.store(true, Ordering::SeqCst);
            continue;
        }
        for i in 0..events.len() {
            let ev = events[i];
            match ev.token {
                TOKEN_LISTENER => {
                    if let Some(l) = &listener {
                        accept_ready(shared, &mut poller, &mut conns, l, &mut next_token);
                    }
                }
                TOKEN_WAKER => {
                    metrics.reactor_wakeups.inc();
                    shared.waker.drain();
                }
                token => {
                    let mut kill = false;
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.failed {
                            kill = true;
                        } else {
                            if ev.writable && !conn.flush() {
                                kill = true;
                            }
                            if !kill && ev.readable && !conn.closing {
                                match conn.fill() {
                                    Fill::Open => process_buffered(shared, token, conn),
                                    Fill::Eof => {
                                        process_buffered(shared, token, conn);
                                        conn.closing = true;
                                    }
                                    Fill::Dead => kill = true,
                                }
                            }
                        }
                    }
                    if kill {
                        close_conn(shared, &mut poller, &mut conns, token);
                    }
                }
            }
        }
    }
}

/// Accepts until the nonblocking listener would block.
fn accept_ready(
    shared: &Arc<Shared>,
    poller: &mut Poller,
    conns: &mut BTreeMap<u64, Conn>,
    listener: &TcpListener,
    next_token: &mut u64,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        if conns.len() >= shared.config.max_connections {
            // Best-effort rejection line; the socket closes either way.
            let mut stream = stream;
            let line = response_line(
                &Response::Error {
                    error: "connection limit reached".to_owned(),
                    retry_after_ms: Some(100),
                },
                None,
            );
            let _ = stream.write_all(format!("{line}\n").as_bytes());
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if poller
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            continue;
        }
        conns.insert(token, Conn::new(stream, shared.config.max_write_buffer));
        shared.conns_open.fetch_add(1, Ordering::Relaxed);
        shared.conns_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Removes a connection from the reactor (poller, map, gauges) and
/// drops its fair-queue ring: parked work for a dead connection is
/// abandoned (its reply ducts resolve to a token nobody routes).
fn close_conn(shared: &Shared, poller: &mut Poller, conns: &mut BTreeMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        let abandoned = shared.queues.lock().unwrap().rings.remove(&token);
        drop(abandoned);
        shared.conns_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Consumes every complete request buffered on the connection.
///
/// The connection's very first bytes pick the framing: an exact
/// [`frame::MAGIC`] or [`frame::MAGIC_V1`] preamble switches to binary
/// frames of that version (acked by echoing the preamble); anything
/// else is newline JSON forever —
/// the magic's first byte can never start a JSON value, so the sniff
/// is unambiguous and mid-stream bytes are never re-inspected.
///
/// All rejection shapes — a line that is not UTF-8, a request past
/// `max_request_bytes`, a corrupt binary frame, and a request that
/// fails to parse — count toward `service_invalid_requests_total`.
fn process_buffered(shared: &Arc<Shared>, token: u64, conn: &mut Conn) {
    if !conn.sniffed {
        if conn.rbuf.is_empty() {
            return;
        }
        if conn.rbuf[0] == frame::MAGIC[0] {
            if conn.rbuf.len() < frame::MAGIC.len() {
                return; // a partial preamble: wait for the rest
            }
            if let Some(version) = frame::Version::from_magic(&conn.rbuf[..frame::MAGIC.len()]) {
                conn.rbuf.drain(..frame::MAGIC.len());
                conn.wire = Wire::Binary(version);
                // Ack by echoing the preamble, so the client knows the
                // negotiation landed before its first reply frame.
                conn.wbuf.extend_from_slice(&version.magic());
                shared.metrics.binary_connections.inc();
            }
            // A near-miss preamble falls through as JSON and fails
            // parsing like any other bad line.
        }
        conn.sniffed = true;
    }
    match conn.wire {
        Wire::Json => process_json(shared, token, conn),
        Wire::Binary(version) => process_frames(shared, token, conn, version),
    }
    if !conn.closing && conn.wire == Wire::Json && conn.rbuf.len() > shared.config.max_request_bytes
    {
        // A request this large is a protocol violation; the rest of the
        // stream cannot be re-synchronized, so answer and hang up.
        // (Binary frames announce their length up front; `decode_frame`
        // enforces the same cap before buffering a payload.)
        shared.metrics.invalid_requests.inc();
        let slot = Some(conn.take_slot());
        conn.emit(
            slot,
            &Response::Error {
                error: format!(
                    "request exceeds {} bytes; closing connection",
                    shared.config.max_request_bytes
                ),
                retry_after_ms: None,
            },
            None,
        );
        conn.rbuf.clear();
        conn.closing = true;
    }
}

/// Consumes buffered newline-JSON requests: an in-place scan over the
/// read buffer with one tail compaction at the end, instead of a
/// buffer split (allocation) per line.
fn process_json(shared: &Arc<Shared>, token: u64, conn: &mut Conn) {
    let mut buf = std::mem::take(&mut conn.rbuf);
    let mut consumed = 0;
    while !conn.closing {
        let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let end = consumed + nl;
        let mut line_end = end;
        if line_end > consumed && buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        match std::str::from_utf8(&buf[consumed..line_end]) {
            Ok(line) => {
                if !line.trim().is_empty() {
                    handle_line(shared, token, conn, line);
                }
            }
            Err(_) => {
                // The line was consumed up to its newline, so the
                // stream stays in sync; answer in slot order and keep
                // the connection.
                shared.metrics.invalid_requests.inc();
                let slot = Some(conn.take_slot());
                conn.emit(
                    slot,
                    &Response::Error {
                        error: "invalid request: line is not valid UTF-8".to_owned(),
                        retry_after_ms: None,
                    },
                    None,
                );
            }
        }
        consumed = end + 1;
    }
    // One compaction per pass: shift the incomplete tail down and hand
    // the buffer (with its capacity) back to the connection.
    if consumed > 0 {
        buf.copy_within(consumed.., 0);
        buf.truncate(buf.len() - consumed);
    }
    conn.rbuf = buf;
}

/// Consumes buffered binary frames. A corrupt or oversized frame is
/// unrecoverable (a length-prefixed stream has no resync point), so it
/// answers with an error and closes.
fn process_frames(shared: &Arc<Shared>, token: u64, conn: &mut Conn, version: frame::Version) {
    let mut buf = std::mem::take(&mut conn.rbuf);
    let mut consumed = 0;
    while !conn.closing {
        match decode_request_frame(&buf[consumed..], version, shared.config.max_request_bytes) {
            Ok(Some((decoded, used))) => {
                consumed += used;
                handle_decoded(shared, token, conn, decoded);
            }
            Ok(None) => break,
            Err(e) => {
                shared.metrics.invalid_requests.inc();
                let slot = Some(conn.take_slot());
                conn.emit(
                    slot,
                    &Response::Error {
                        error: format!("invalid frame: {e}; closing connection"),
                        retry_after_ms: None,
                    },
                    None,
                );
                consumed = buf.len();
                conn.closing = true;
            }
        }
    }
    if consumed > 0 {
        buf.copy_within(consumed.., 0);
        buf.truncate(buf.len() - consumed);
    }
    conn.rbuf = buf;
}

/// Parses and executes one JSON request line.
fn handle_line(shared: &Arc<Shared>, token: u64, conn: &mut Conn, line: &str) {
    handle_decoded(shared, token, conn, decode_request_line(line));
}

/// Executes a decoded request, or answers the error it decoded to.
fn handle_decoded(shared: &Arc<Shared>, token: u64, conn: &mut Conn, decoded: Decoded) {
    match decoded {
        Ok((request, id)) => handle_request(shared, token, conn, request, id),
        Err(Invalid { error, id }) => {
            shared.metrics.invalid_requests.inc();
            let slot = if id.is_some() {
                None
            } else {
                Some(conn.take_slot())
            };
            conn.emit(
                slot,
                &Response::Error {
                    error,
                    retry_after_ms: None,
                },
                id,
            );
        }
    }
}

/// Executes one decoded request on the reactor thread. Cheap requests
/// (`stats`, `metrics`, `shutdown`) and cache-hot `schedule`s answer
/// inline; everything else that touches the pool lands in the
/// connection's fair-queue ring and completes asynchronously.
///
/// Every parsed request is counted and timed end-to-end under its wire
/// type (`service_requests_total{type=…}`, `service_request_us{type=…}`)
/// and wrapped in a `service_request` span.
fn handle_request(
    shared: &Arc<Shared>,
    token: u64,
    conn: &mut Conn,
    request: Request,
    id: Option<u64>,
) {
    let ty = match &request {
        Request::Schedule { .. } => "schedule",
        Request::Batch { .. } => "batch",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Ping { .. } => "ping",
        Request::Shutdown => "shutdown",
    };
    shared.metrics.request(ty).total.inc();
    let start = Instant::now();
    let mut span = vcsched_obs::span!("service_request");
    span.field("request", ty);
    let slot = if id.is_some() {
        None
    } else {
        Some(conn.take_slot())
    };
    let pending = |span, priority| PendingReply {
        shared: Arc::clone(shared),
        token,
        slot,
        id,
        ty,
        priority,
        start,
        span: Some(span),
        done: false,
    };
    // An inline (reactor-thread) reply: record its latency and queue it.
    let finish_inline = |conn: &mut Conn, mut span: vcsched_obs::SpanGuard, response: &Response| {
        shared.metrics.record_latency(ty, None, start.elapsed());
        span.field("ok", response.is_ok());
        conn.emit(slot, response, id);
    };
    match request {
        Request::Stats => finish_inline(conn, span, &Response::Stats(stats(shared))),
        Request::Metrics => finish_inline(
            conn,
            span,
            &Response::Metrics {
                metrics: serde_json::to_value(&metrics(shared)),
            },
        ),
        Request::Shutdown => {
            shared.request_stop();
            finish_inline(conn, span, &Response::Bye);
            // Terminal: drop any pipelined requests after the shutdown.
            conn.closing = true;
        }
        Request::Ping { delay_ms, priority } => {
            conn.open += 1;
            enqueue_work(
                shared,
                token,
                Work::Probe(ProbeWork {
                    delay_ms,
                    priority: priority.unwrap_or(0),
                    cell: reply_cell(pending(span, None)),
                }),
            );
        }
        Request::Schedule {
            block,
            machine,
            policies,
            mode,
            steps,
            budget_bytes,
            early_cancel,
            adaptive: _,
            placement_seed,
            return_schedule,
            deadline_ms,
            priority,
        } => {
            match schedule_request(
                shared,
                block,
                machine,
                policies,
                mode,
                steps,
                budget_bytes,
                early_cancel,
                placement_seed,
                return_schedule,
                deadline_ms,
                priority,
                pending(span, priority),
            ) {
                Some(done) => conn.emit(done.slot, &done.response, done.id),
                None => conn.open += 1,
            }
        }
        Request::Batch {
            bench,
            count,
            seed,
            machine,
            policies,
            portfolio,
            steps,
            budget_bytes,
            early_cancel,
            adaptive: _,
            stream,
            deadline_ms,
            priority,
        } => {
            if stream && id.is_none() {
                finish_inline(
                    conn,
                    span,
                    &Response::Error {
                        error: "streaming batches need a request id (block frames are \
                                matched to their batch by `id`)"
                            .to_owned(),
                        retry_after_ms: None,
                    },
                );
            } else {
                conn.open += 1;
                batch_request(
                    shared,
                    BatchArgs {
                        bench,
                        count,
                        seed,
                        machine,
                        policies,
                        portfolio,
                        steps,
                        budget_bytes,
                        early_cancel,
                        deadline_ms,
                        priority,
                    },
                    stream,
                    pending(span, priority),
                );
            }
        }
    }
}

/// Appends one unit of work to a connection's fair-queue ring and runs
/// an admission pass. Rings are created on demand and removed when the
/// drain leaves them empty (or the connection closes).
fn enqueue_work(shared: &Shared, token: u64, work: Work) {
    shared
        .queues
        .lock()
        .unwrap()
        .rings
        .entry(token)
        .or_default()
        .push_back(work);
    drain_fair_queues(shared);
}

/// The weighted round-robin admission pass: visits every non-empty ring
/// starting after the cursor, admitting up to the head request's weight
/// per visit, and repeats until a full cycle makes no progress (all
/// remaining heads are parked on saturation) or the rings are empty.
///
/// Serialized by the `queues` lock. Called on enqueue, from the
/// reactor's completion pass, and from the pool's completion hook, so
/// parked work is re-driven exactly when capacity can have freed.
fn drain_fair_queues(shared: &Shared) {
    let mut queues = shared.queues.lock().unwrap();
    loop {
        let tokens: Vec<u64> = queues
            .rings
            .iter()
            .filter(|(_, ring)| !ring.is_empty())
            .map(|(&t, _)| t)
            .collect();
        if tokens.is_empty() {
            break;
        }
        let start = tokens.iter().position(|&t| t > queues.cursor).unwrap_or(0);
        let mut progressed = false;
        for off in 0..tokens.len() {
            let token = tokens[(start + off) % tokens.len()];
            let Some(ring) = queues.rings.get_mut(&token) else {
                continue;
            };
            let quantum = ring.front().map_or(0, Work::weight);
            for _ in 0..quantum {
                let Some(work) = ring.pop_front() else {
                    break;
                };
                match admit_one(shared, work) {
                    Some(parked) => {
                        // Saturation: back to the head (per-connection
                        // FIFO holds) until capacity frees.
                        ring.push_front(parked);
                        break;
                    }
                    None => progressed = true,
                }
            }
            queues.cursor = token;
        }
        if !progressed {
            break;
        }
    }
    queues.rings.retain(|_, ring| !ring.is_empty());
}

/// One admission attempt. Returns the work back when it parked (pool
/// saturated and the work rides it out); `None` means it was admitted
/// or definitively answered (shed or failed).
fn admit_one(shared: &Shared, work: Work) -> Option<Work> {
    match work {
        Work::Probe(w) => {
            let cell = Arc::clone(&w.cell);
            let result = shared.pool.probe_with(w.delay_ms, move |delay| {
                if let Some(mut p) = cell.lock().unwrap().take() {
                    p.send(
                        Response::Pong {
                            delay_ms: delay.as_millis() as u64,
                        },
                        true,
                    );
                }
            });
            match result {
                Ok(()) => None,
                Err(SubmitError::Saturated { .. }) if w.priority >= 2 => Some(Work::Probe(w)),
                Err(e) => {
                    reply_submit_error(&w.cell, e);
                    None
                }
            }
        }
        Work::Schedule(mut w) => {
            let callback =
                schedule_completion(Arc::clone(&w.cell), w.return_schedule, w.deadline_ms);
            match shared
                .pool
                .try_submit_with(w.problem, Some(w.key), callback)
            {
                Ok(()) => None,
                // High priority rides out saturation parked at its
                // ring's head, holding the problem the pool handed back.
                Err(Rejected {
                    error: SubmitError::Saturated { .. },
                    problem,
                }) if w.priority >= 2 => {
                    w.problem = problem;
                    Some(Work::Schedule(w))
                }
                Err(Rejected { error, .. }) => {
                    if w.shed_signal && matches!(error, SubmitError::Saturated { .. }) {
                        // Online admission control: a low-priority
                        // request is shed, not queued behind the
                        // saturation.
                        shared.metrics.shed.inc();
                    }
                    reply_submit_error(&w.cell, error);
                    None
                }
            }
        }
        Work::BatchBlock(mut w) => match shared.pool.try_submit(w.problem) {
            Ok(ticket) => {
                let _ = w.ticket_tx.send(Ok(ticket));
                None
            }
            Err(Rejected {
                error: SubmitError::Saturated { .. },
                problem,
            }) => {
                w.problem = problem;
                Some(Work::BatchBlock(w))
            }
            Err(Rejected { error, .. }) => {
                let _ = w.ticket_tx.send(Err(error));
                None
            }
        },
    }
}

/// Resolves a `schedule` request on the reactor thread (machine,
/// policies, placement, budgets). A request whose problem the cache
/// holds is answered right here, with the completion bookkeeping a
/// worker's answer gets: it is never queued, parked or shed. Any other
/// request parks in the connection's fair-queue ring, with the key the
/// cache probe built, until the drain admits it (`admit_one`).
///
/// Returns the done-reply of a request answered here (a hit or an
/// invalid request) for the caller to route; `None` once the request is
/// queued.
#[allow(clippy::too_many_arguments)] // mirrors the wire request's fields
fn schedule_request(
    shared: &Shared,
    block: Superblock,
    machine: String,
    policies: Option<Vec<String>>,
    mode: Option<ScheduleMode>,
    steps: Option<u64>,
    budget_bytes: Option<u64>,
    early_cancel: Option<bool>,
    placement_seed: Option<u64>,
    return_schedule: bool,
    deadline_ms: Option<u64>,
    priority: Option<u8>,
    mut pending: PendingReply,
) -> Option<Completion> {
    let fail = |pending: &mut PendingReply, msg: String| {
        Some(pending.finish(Response::Error {
            error: msg,
            retry_after_ms: None,
        }))
    };
    let machine_name = machine;
    let machine = match crate::machine_by_name(&machine_name) {
        Ok(m) => m,
        Err(e) => return fail(&mut pending, e),
    };
    let policies = match resolve_policies(
        policies,
        mode.map(|m| m == ScheduleMode::Portfolio),
        &machine_name,
        &shared.config,
    ) {
        Ok(p) => p,
        Err(e) => return fail(&mut pending, e),
    };
    let homes = live_in_placement(
        &block,
        machine.cluster_count(),
        placement_seed.unwrap_or(shared.config.default_placement_seed),
    );
    let max_steps = steps.unwrap_or(shared.config.default_steps);
    let deadline_steps = deadline_ms.and_then(|ms| priced_deadline(shared, ms, max_steps));
    let problem = Problem {
        block,
        machine,
        homes,
        options: PolicyOptions {
            max_dp_steps: max_steps,
            max_trail_bytes: budget_bytes.or(shared.config.default_budget_bytes),
            policies,
            early_cancel: early_cancel.unwrap_or(shared.config.default_early_cancel),
            deadline_steps,
        },
        deadline: deadline_ms.map(Duration::from_millis),
    };
    let key = match shared.pool.answer_cached(&problem) {
        Ok(solved) => {
            let reply = schedule_reply(shared, pending.start, return_schedule, deadline_ms, solved);
            return Some(pending.finish(reply));
        }
        Err(key) => key,
    };
    let token = pending.token;
    enqueue_work(
        shared,
        token,
        Work::Schedule(Box::new(ScheduleWork {
            priority: priority.unwrap_or(0),
            shed_signal: priority.is_some() || deadline_ms.is_some(),
            key,
            problem: Box::new(problem),
            return_schedule,
            deadline_ms,
            cell: reply_cell(pending),
        })),
    );
    None
}

/// Builds the completion callback for a `schedule` request that went
/// through the pool. Rebuilt per admission attempt (the pool drops an
/// unrun callback on rejection); the shared `cell` guarantees at most
/// one reply.
fn schedule_completion(
    cell: ReplyCell,
    return_schedule: bool,
    deadline_ms: Option<u64>,
) -> impl FnOnce(Solved) + Send + 'static {
    move |solved| {
        if let Some(mut p) = cell.lock().unwrap().take() {
            let reply = schedule_reply(&p.shared, p.start, return_schedule, deadline_ms, solved);
            p.send(reply, true);
        }
    }
}

/// A solved `schedule` request's reply and its bookkeeping, wherever it
/// was answered: the online deadline metrics.
fn schedule_reply(
    shared: &Shared,
    start: Instant,
    return_schedule: bool,
    deadline_ms: Option<u64>,
    solved: Solved,
) -> Response {
    let copies = solved.outcome.schedule.copy_count();
    let deadline_fired = solved.outcome.deadline_fired();
    if deadline_fired {
        shared.metrics.preemptions.inc();
    }
    if let Some(ms) = deadline_ms {
        if start.elapsed().as_millis() as u64 > ms {
            shared.metrics.deadline_misses.inc();
        }
    }
    Response::Schedule(ScheduleReply {
        winner: solved.outcome.winner,
        awct: solved.outcome.awct,
        vc_steps: solved.outcome.vc_steps,
        vc_timed_out: solved.outcome.vc_timed_out,
        cached: solved.cached,
        copies,
        policies: solved.outcome.policy_stats,
        schedule: return_schedule.then_some(solved.outcome.schedule),
        deadline_fired,
    })
}

/// The `batch` request's wire fields, bundled for the helper thread.
struct BatchArgs {
    bench: String,
    count: usize,
    seed: u64,
    machine: String,
    policies: Option<Vec<String>>,
    portfolio: Option<bool>,
    steps: Option<u64>,
    budget_bytes: Option<u64>,
    early_cancel: Option<bool>,
    deadline_ms: Option<u64>,
    priority: Option<u8>,
}

/// Runs a `batch` request on a helper thread. Each block's admission
/// goes through the connection's fair-queue ring (the helper blocks on
/// the admission rendezvous — that thread is the backpressure, not the
/// reactor). With `stream`, every solved block is sent as a `block`
/// frame before the final summary.
fn batch_request(shared: &Arc<Shared>, args: BatchArgs, stream: bool, pending: PendingReply) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let mut pending = pending;
        let token = pending.token;
        let response = run_service_batch(&shared, token, args, &mut |frame| {
            if stream {
                pending.send(Response::Block(frame), false);
            }
        });
        pending.send(response, true);
    });
}

/// Admits one batch block through the connection's fair-queue ring and
/// waits for its ticket. The rendezvous channel (capacity 1, one block
/// in flight per batch) is the batch's backpressure: the helper thread
/// blocks here while higher-weighted work from other connections is
/// admitted around it.
fn submit_block(
    shared: &Shared,
    token: u64,
    priority: u8,
    problem: Problem,
) -> Result<Ticket<Solved>, String> {
    let (ticket_tx, ticket_rx) = std::sync::mpsc::sync_channel(1);
    enqueue_work(
        shared,
        token,
        Work::BatchBlock(BatchBlockWork {
            priority,
            problem: Box::new(problem),
            ticket_tx,
        }),
    );
    match ticket_rx.recv() {
        Ok(Ok(ticket)) => Ok(ticket),
        Ok(Err(e)) => Err(e.to_string()),
        // The ring was dropped with the work unadmitted — the
        // connection closed under the batch.
        Err(_) => Err("admission abandoned (connection closed)".to_owned()),
    }
}

/// Runs a `batch` request through the engine's [`BatchPlan`]: every
/// block is admitted through the fair-queue ring into the shared pool,
/// solved blocks are reported through `emit_block` in corpus order, and
/// the plan folds the outcomes into the summary.
///
/// If admission fails mid-batch, every already-admitted ticket is still
/// waited out before the error returns — abandoning live tickets would
/// leave workers computing results nobody collects and (with callback
/// tickets) leak "job lost" replies at pool teardown.
fn run_service_batch(
    shared: &Shared,
    token: u64,
    args: BatchArgs,
    emit_block: &mut dyn FnMut(BlockReply),
) -> Response {
    let error = |msg: String| Response::Error {
        error: msg,
        retry_after_ms: None,
    };
    let BatchArgs {
        bench,
        count,
        seed,
        machine,
        policies,
        portfolio,
        steps,
        budget_bytes,
        early_cancel,
        deadline_ms,
        priority,
    } = args;
    let machine_name = machine;
    let machine = match crate::machine_by_name(&machine_name) {
        Ok(m) => m,
        Err(e) => return error(e),
    };
    // The legacy switch spells the two canonical sets; only an *absent*
    // switch falls through to the per-machine/server default (same
    // precedence as the schedule verb's `mode`).
    let policies = match resolve_policies(policies, portfolio, &machine_name, &shared.config) {
        Ok(p) => p,
        Err(e) => return error(e),
    };
    let max_dp_steps = steps.unwrap_or(shared.config.default_steps);
    // A batch deadline prices every block's budget identically (one
    // shared slack), so a seeded batch stays bit-deterministic; no
    // wall-clock timer is armed for batches.
    let deadline_steps = deadline_ms.and_then(|ms| priced_deadline(shared, ms, max_dp_steps));
    let config = BatchConfig {
        source: CorpusSource::Synth { bench, count, seed },
        machine,
        jobs: shared.pool.jobs(),
        policies,
        early_cancel: early_cancel.unwrap_or(shared.config.default_early_cancel),
        max_dp_steps,
        max_trail_bytes: budget_bytes.or(shared.config.default_budget_bytes),
        ..BatchConfig::default()
    };
    let blocks = match config.source.load() {
        Ok(b) => b,
        Err(e) => return error(e),
    };
    let plan = BatchPlan::new(&config, &blocks);
    // Admit every block through the fair-queue ring, then collect in
    // corpus order — the same order-preserving contract as the batch
    // engine's scatter, so summaries match `vcsched batch` exactly.
    let mut tickets = Vec::with_capacity(blocks.len());
    let mut failure = None;
    for (i, block) in blocks.into_iter().enumerate() {
        let problem = Problem {
            homes: plan.homes(i, &block),
            block,
            machine: config.machine.clone(),
            options: PolicyOptions {
                deadline_steps,
                ..plan.options().clone()
            },
            deadline: None,
        };
        match submit_block(shared, token, priority.unwrap_or(0), problem) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                // Earlier blocks are already in flight; fall through to
                // the wait loop so they are drained, not abandoned.
                failure = Some(format!("batch admission failed at block {i}: {e}"));
                break;
            }
        }
    }
    let drained = tickets.len();
    let mut per_block = Vec::with_capacity(tickets.len());
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(solved) => {
                if failure.is_none() {
                    emit_block(BlockReply {
                        index: i,
                        winner: solved.outcome.winner.clone(),
                        awct: solved.outcome.awct,
                        cached: solved.cached,
                        copies: solved.outcome.schedule.copy_count(),
                    });
                }
                per_block.push((solved.outcome, solved.cached));
            }
            Err(e) => {
                if failure.is_none() {
                    failure = Some(format!("batch job lost at block {i}: {e}"));
                }
            }
        }
    }
    if let Some(msg) = failure {
        return error(format!(
            "{msg}; drained {drained} admitted jobs before aborting"
        ));
    }
    let result = plan.finish(per_block);
    Response::Batch {
        summary: serde_json::to_value(&result.summary),
    }
}

fn stats(shared: &Shared) -> StatsReply {
    let (accepted, rejected, completed) = shared.pool.counters();
    let cache = shared.pool.cache();
    let totals = cache.stats();
    StatsReply {
        jobs: shared.pool.jobs(),
        queue_capacity: shared.pool.queue_capacity(),
        queue_depth: shared.pool.queue_depth(),
        accepted,
        rejected,
        completed,
        policies: shared
            .pool
            .policy_totals()
            .into_iter()
            .map(|t| PolicyTotalsReply {
                policy: t.policy,
                wins: t.wins,
                steps: t.steps,
                fallbacks: t.fallbacks,
            })
            .collect(),
        cache: CacheReply {
            hits: totals.hits,
            misses: totals.misses,
            hit_rate: totals.hit_rate(),
            len: cache.len(),
            shards: cache
                .shard_stats()
                .into_iter()
                .map(|s| ShardReply {
                    hits: s.hits,
                    misses: s.misses,
                    insertions: s.insertions,
                    evictions: s.evictions,
                    len: s.len,
                })
                .collect(),
        },
        connections_open: shared.conns_open.load(Ordering::Relaxed),
        connections_total: shared.conns_total.load(Ordering::Relaxed),
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        latency: shared.metrics.latency_replies(),
    }
}

/// The `metrics` reply, rendered in identity order from three sources:
/// this server's registry; the figures its pool and cache keep (under
/// the `engine_*` and `vc_*` names), its connection count and its parked
/// fair-queue work; and the process tracer's dropped-event count.
fn metrics(shared: &Shared) -> Snapshot {
    fn series(name: &str, labels: &[(&str, &str)], value: MetricValue) -> MetricSnapshot {
        MetricSnapshot {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            value,
        }
    }
    let counter = |name, n| series(name, &[], MetricValue::Counter(n));
    let gauge = |name, n: usize| series(name, &[], MetricValue::Gauge(n as i64));
    let histogram =
        |name, h: &vcsched_obs::Histogram| series(name, &[], MetricValue::Histogram(h.snapshot()));
    let pool = &shared.pool;
    let (accepted, rejected, completed) = pool.counters();
    let shards = pool.cache().shard_stats();
    let cache = |f: fn(&vcsched_engine::ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
    let parked: usize = shared
        .queues
        .lock()
        .expect("fair-queue lock poisoned")
        .rings
        .values()
        .map(VecDeque::len)
        .sum();
    let mut all = shared.metrics.registry.snapshot().metrics;
    all.extend([
        counter("engine_pool_accepted_total", accepted),
        counter("engine_pool_rejected_total", rejected),
        counter("engine_pool_completed_total", completed),
        gauge("engine_pool_busy", pool.busy()),
        gauge("engine_queue_depth", pool.queue_depth()),
        histogram("engine_queue_wait_us", pool.queue_wait()),
        histogram("engine_solve_us", pool.solve_latency()),
        counter("engine_cache_hits_total", cache(|s| s.hits)),
        counter("engine_cache_misses_total", cache(|s| s.misses)),
        counter("engine_cache_insertions_total", cache(|s| s.insertions)),
        counter("engine_cache_evictions_total", cache(|s| s.evictions)),
        gauge(
            "service_connections",
            shared.conns_open.load(Ordering::Relaxed) as usize,
        ),
        gauge("service_fair_queue_parked", parked),
    ]);
    all.push(counter(
        "obs_trace_dropped_total",
        vcsched_obs::tracer().dropped(),
    ));
    all.extend(pool.vc_series().metrics);
    Snapshot::from_series(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(jobs: usize, queue: usize) -> Arc<Shared> {
        let cache = Arc::new(ScheduleCache::in_memory_sharded(1 << 16, 8));
        let shared = Arc::new(Shared {
            pool: SubmitPool::new(jobs, queue, cache),
            config: ServiceConfig::default(),
            addr: "127.0.0.1:0".parse().unwrap(),
            stop: AtomicBool::new(false),
            metrics: ServerMetrics::new(),
            started: Instant::now(),
            conns_open: AtomicU64::new(0),
            conns_total: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            queues: Mutex::new(FairQueues::default()),
            waker: WakePipe::new().unwrap(),
        });
        install_completion_hook(&shared);
        shared
    }

    fn test_pending(shared: &Arc<Shared>, token: u64) -> PendingReply {
        PendingReply {
            shared: Arc::clone(shared),
            token,
            slot: None,
            id: None,
            ty: "schedule",
            priority: None,
            start: Instant::now(),
            span: None,
            done: false,
        }
    }

    /// Pops the next queued completion, waiting for a worker to push it.
    fn wait_completion(shared: &Shared) -> Completion {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            {
                let mut queue = shared.completions.lock().unwrap();
                if !queue.is_empty() {
                    return queue.remove(0);
                }
            }
            assert!(Instant::now() < deadline, "no completion within 30s");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Saturates a 1-worker/1-slot pool: one probe occupies the worker,
    /// a second occupies the queue slot. Returns the receiver both
    /// probes signal on completion.
    fn saturate_pool(shared: &Arc<Shared>) -> std::sync::mpsc::Receiver<()> {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let tx = done_tx.clone();
        shared
            .pool
            .probe_with(300, move |_| {
                let _ = tx.send(());
            })
            .unwrap();
        // Retry until the worker has dequeued the first probe and the
        // slot frees up for the second.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let tx = done_tx.clone();
            match shared.pool.probe_with(300, move |_| {
                let _ = tx.send(());
            }) {
                Ok(()) => break,
                Err(SubmitError::Saturated { .. }) => {
                    assert!(Instant::now() < deadline, "queue never freed");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("probe failed: {e}"),
            }
        }
        done_rx
    }

    /// A priority ≥ 2 ping parks in its fair-queue ring through
    /// saturation (instead of shedding) and is admitted by the pool's
    /// completion hook once capacity frees.
    #[test]
    fn high_priority_ping_parks_through_saturation() {
        let shared = test_shared(1, 1);
        let done_rx = saturate_pool(&shared);
        enqueue_work(
            &shared,
            9,
            Work::Probe(ProbeWork {
                delay_ms: 0,
                priority: 2,
                cell: reply_cell(test_pending(&shared, 9)),
            }),
        );
        // Parked, not shed: no completion, the work waits in its ring.
        assert!(shared.completions.lock().unwrap().is_empty());
        assert_eq!(
            shared.queues.lock().unwrap().rings.get(&9).map(|r| r.len()),
            Some(1)
        );
        // The saturating probes finish; their completion hooks re-drain
        // the rings and admit the parked ping — no new enqueue needed.
        done_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        done_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let pong = wait_completion(&shared);
        assert!(pong.done);
        assert!(
            matches!(pong.response, Response::Pong { .. }),
            "expected a pong, got {:?}",
            pong.response
        );
        assert!(shared.queues.lock().unwrap().rings.is_empty());
    }

    /// Counts the heap bytes each thread requests, so a test can show
    /// that a code path's allocations do not grow with its input.
    struct Counting;

    thread_local! {
        static BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn note(bytes: usize) {
        // `try_with`: the allocator also runs while thread-locals are
        // torn down.
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds `GlobalAlloc`'s contract; counting only updates a
    // thread-local `Cell` and never allocates.
    unsafe impl std::alloc::GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            std::alloc::System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note(new_size);
            std::alloc::System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// A priority ≥ 2 `schedule` parked through saturation is retried on
    /// every drain without copying its problem: each refused attempt
    /// hands back the allocation the request was parsed into, and the
    /// retries together request fewer heap bytes than one copy of the
    /// block would.
    #[test]
    fn parked_high_priority_schedule_retries_without_copying_its_problem() {
        const RETRIES: usize = 16;
        let spec = vcsched_workload::BenchmarkSpec {
            size_mu: 6.0,
            ..vcsched_workload::benchmark("mpeg2enc").expect("known benchmark")
        };
        let block = vcsched_workload::generate_block(&spec, 7, 0, vcsched_workload::InputSet::Ref);
        let block_bytes =
            std::mem::size_of_val(block.insts()) + std::mem::size_of_val(block.deps());
        let shared = test_shared(1, 1);
        let done_rx = saturate_pool(&shared);
        schedule_request(
            &shared,
            block,
            "2c".to_owned(),
            Some(vec!["cars".to_owned()]),
            None,
            Some(1_000),
            None,
            None,
            None,
            false,
            None,
            Some(2),
            test_pending(&shared, 7),
        );
        let parked_problem = |shared: &Shared| -> (usize, usize) {
            let queues = shared.queues.lock().unwrap();
            match queues.rings.get(&7).and_then(|ring| ring.front()) {
                Some(Work::Schedule(w)) => (
                    &*w.problem as *const Problem as usize,
                    w.problem.block.insts().as_ptr() as usize,
                ),
                _ => panic!("the schedule request is not parked"),
            }
        };
        let first = parked_problem(&shared);
        let rejected_before = shared.pool.counters().1;
        let bytes_before = BYTES.with(std::cell::Cell::get);
        for _ in 0..RETRIES {
            drain_fair_queues(&shared);
        }
        let retry_bytes = BYTES.with(std::cell::Cell::get) - bytes_before;
        assert_eq!(parked_problem(&shared), first);
        assert_eq!(
            shared.pool.counters().1 - rejected_before,
            RETRIES as u64,
            "every drain retried the parked request"
        );
        assert!(
            retry_bytes < block_bytes as u64,
            "{RETRIES} retries requested {retry_bytes} heap bytes; \
             one copy of the block is {block_bytes}"
        );
        assert!(shared.completions.lock().unwrap().is_empty());
        // Capacity frees: the same request is admitted and answered.
        done_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        done_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let solved = wait_completion(&shared);
        assert!(
            matches!(solved.response, Response::Schedule(_)),
            "expected a schedule reply, got {:?}",
            solved.response
        );
    }

    /// Satellite fix: when admission fails mid-batch, the already
    /// admitted tickets are waited out (drained) before the error
    /// returns, instead of being abandoned with workers mid-solve.
    #[test]
    fn batch_admission_failure_drains_admitted_tickets() {
        let shared = test_shared(1, 1);
        // Sabotage admission partway through: once two blocks have been
        // accepted, shut the pool down so the next submit fails.
        let saboteur_shared = Arc::clone(&shared);
        let saboteur = std::thread::spawn(move || {
            while saboteur_shared.pool.counters().0 < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            saboteur_shared.pool.shutdown();
        });
        let mut frames = 0usize;
        let response = run_service_batch(
            &shared,
            7,
            BatchArgs {
                bench: "099.go".to_owned(),
                count: 48,
                seed: 7,
                machine: "2c".to_owned(),
                policies: None,
                portfolio: None,
                steps: None,
                budget_bytes: None,
                early_cancel: None,
                deadline_ms: None,
                priority: None,
            },
            &mut |_| frames += 1,
        );
        let (accepted, _, completed_at_return) = shared.pool.counters();
        saboteur.join().unwrap();
        let Response::Error { error, .. } = response else {
            panic!("expected an admission-failure error, got {response:?}");
        };
        assert!(
            error.contains("batch admission failed"),
            "unexpected error: {error}"
        );
        assert!(error.contains("drained"), "unexpected error: {error}");
        assert_eq!(frames, 0, "an aborted batch must not stream blocks");
        assert!(accepted >= 2, "saboteur fired before two admissions");
        // Drained: every admitted job ran to completion before the
        // error returned (the worker's counter increment can trail the
        // final reply by one).
        assert!(
            completed_at_return + 1 >= accepted,
            "returned with {completed_at_return} of {accepted} admitted jobs complete"
        );
    }
}
