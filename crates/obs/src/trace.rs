//! Span-based structured tracing: cheap [`span!`](crate::span) guards that
//! record name, duration and key=value fields into a bounded lock-free
//! ring buffer, drainable as JSONL.
//!
//! Tracing is **off by default** — an inert guard is two relaxed atomic
//! loads — and sampled when on ([`Tracer::set_sampling`]), so hot paths
//! stay hot. When the ring fills, the *oldest* event is dropped and the
//! tracer's own dropped-event counter ([`Tracer::dropped`], served as
//! `obs_trace_dropped_total`) is incremented, so loss is observable
//! rather than silent.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::Value;

use crate::metrics::Counter;

/// Capacity of the global span ring (events). Power of two.
const DEFAULT_RING_CAPACITY: usize = 8192;

// ---------------------------------------------------------------------------
// Span events
// ---------------------------------------------------------------------------

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::$variant(v as $conv) }
        })*
    };
}
field_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_json(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::UInt(*v),
            FieldValue::I64(v) => Value::Int(*v),
            FieldValue::F64(v) => Value::Float(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::String(v.clone()),
        }
    }
}

/// One completed span: name, timing relative to the tracer's epoch, and
/// the fields attached while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Monotone sequence number (per tracer).
    pub seq: u64,
    /// Span name (the `span!` literal).
    pub name: &'static str,
    /// Start time in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attached `key = value` fields, in attachment order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanEvent {
    /// The event as one JSON value: `{"span","seq","start_us","dur_us",
    /// "fields":{…}}` — the trace JSONL schema, one such object per line.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("span".to_string(), Value::String(self.name.to_string())),
            ("seq".to_string(), Value::UInt(self.seq)),
            ("start_us".to_string(), Value::UInt(self.start_us)),
            ("dur_us".to_string(), Value::UInt(self.dur_us)),
            (
                "fields".to_string(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Writes events as JSONL (one JSON object per line) to `w`.
pub fn write_jsonl<W: std::io::Write>(events: &[SpanEvent], w: &mut W) -> std::io::Result<()> {
    for ev in events {
        let line = serde_json::to_string(&ev.to_json())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bounded lock-free MPMC ring (Vyukov bounded queue)
// ---------------------------------------------------------------------------

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<SpanEvent>>,
}

/// A bounded lock-free multi-producer multi-consumer ring of span events.
///
/// Push and pop are wait-free in the common case (one CAS each). When the
/// ring is full, [`Ring::push`] hands the event back and the caller
/// ([`Tracer::record`]) pops the oldest event to make room, so the ring
/// always holds the most recent events.
pub struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: slots are only accessed through the Vyukov sequence protocol —
// a slot's value cell is touched only by the single thread that won the
// CAS claiming that slot for the current lap.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// A ring holding up to `capacity` events. `capacity` must be a power
    /// of two ≥ 2.
    pub fn with_capacity(capacity: usize) -> Ring {
        assert!(
            capacity.is_power_of_two() && capacity >= 2,
            "ring capacity must be a power of two >= 2"
        );
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: capacity - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Max number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Pushes `ev`; when the ring is full the event is handed back as
    /// `Err` so the caller can decide what to evict.
    pub fn push(&self, ev: SpanEvent) -> Result<(), SpanEvent> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot for this lap;
                        // no other thread touches its cell until we bump seq.
                        unsafe { (*slot.value.get()).write(ev) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if dif < 0 {
                return Err(ev); // full
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest event, or `None` when empty.
    pub fn pop(&self) -> Option<SpanEvent> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot for this lap;
                        // the producer finished writing before its Release
                        // store to seq, which we Acquire-loaded above.
                        let ev = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(ev);
                    }
                    Err(p) => pos = p,
                }
            } else if dif < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// The tracing front end: enable/sampling knobs, the ring, and the
/// dropped-event counter. One process-global instance lives behind
/// [`tracer()`]; tests can make private ones with [`Tracer::new`].
pub struct Tracer {
    ring: Ring,
    enabled: AtomicBool,
    sample_every: AtomicU64,
    seq: AtomicU64,
    epoch: Instant,
    dropped: Counter,
}

impl Tracer {
    /// A tracer with its own ring and dropped-event counter. `capacity`
    /// must be a power of two ≥ 2.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            ring: Ring::with_capacity(capacity),
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            dropped: Counter::new(),
        }
    }

    /// Turns span recording on or off (off by default).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether span recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Keep only every `n`-th span (1 = keep all; 0 is clamped to 1).
    pub fn set_sampling(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// The current sampling interval.
    pub fn sampling(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Total events dropped to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Decides whether the next span should be recorded, consuming one
    /// tick of the sampling sequence when tracing is enabled.
    fn should_record(&self) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let n = self.sample_every.load(Ordering::Relaxed).max(1);
        self.seq.fetch_add(1, Ordering::Relaxed).is_multiple_of(n)
    }

    /// Records a completed span into the ring, evicting the oldest event
    /// (and counting it dropped) when full.
    pub fn record(
        &self,
        name: &'static str,
        start_us: u64,
        dur_us: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let mut ev = SpanEvent {
            seq: self.seq.load(Ordering::Relaxed),
            name,
            start_us,
            dur_us,
            fields,
        };
        // Bounded retry: under pathological contention, give up and count
        // the *new* event as dropped instead of spinning.
        for _ in 0..64 {
            match self.ring.push(ev) {
                Ok(()) => return,
                Err(e) => {
                    ev = e;
                    if self.ring.pop().is_some() {
                        self.dropped.inc();
                    }
                }
            }
        }
        self.dropped.inc();
    }

    /// Microseconds elapsed since this tracer's epoch.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Drains all currently buffered events, oldest first.
    pub fn drain(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.ring.pop() {
            out.push(ev);
        }
        out
    }
}

/// The process-global tracer used by the [`span!`](crate::span) macro.
/// A server reports its [`Tracer::dropped`] count as
/// `obs_trace_dropped_total`.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(DEFAULT_RING_CAPACITY))
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

struct ActiveSpan {
    tracer: &'static Tracer,
    name: &'static str,
    start_us: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII guard produced by [`span!`](crate::span): records a [`SpanEvent`]
/// with the elapsed duration when dropped. Inert (two relaxed atomic
/// loads, no allocation, no clock read beyond `Instant::now`) when tracing
/// is off or the span is sampled out.
#[must_use = "a span guard measures until it is dropped; bind it with `let _span = span!(..)`"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Starts a span against the global [`tracer()`]. Used by the
    /// [`span!`](crate::span) macro; prefer the macro.
    pub fn begin(name: &'static str) -> SpanGuard {
        let t = tracer();
        if !t.should_record() {
            return SpanGuard { active: None };
        }
        SpanGuard {
            active: Some(ActiveSpan {
                tracer: t,
                name,
                start_us: t.now_us(),
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Attaches a `key = value` field; no-op when the span is inert.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let dur_us = a.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            a.tracer.record(a.name, a.start_us, dur_us, a.fields);
        }
    }
}

/// Opens a span against the global tracer; the returned [`SpanGuard`]
/// records name, duration and fields when dropped.
///
/// ```
/// use vcsched_obs::span;
/// let mut _span = span!("solve", block = 3u64, policy = "paper");
/// // … do work; the span records when `_span` drops …
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::trace::SpanGuard::begin($name)
    };
    ($name:literal, $($k:ident = $v:expr),+ $(,)?) => {{
        let mut guard = $crate::trace::SpanGuard::begin($name);
        $(guard.field(stringify!($k), $v);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fifo_and_capacity() {
        let ring = Ring::with_capacity(4);
        let mk = |i: u64| SpanEvent {
            seq: i,
            name: "t",
            start_us: i,
            dur_us: 1,
            fields: Vec::new(),
        };
        for i in 0..4 {
            assert!(ring.push(mk(i)).is_ok());
        }
        let back = ring.push(mk(99)).unwrap_err();
        assert_eq!(back.seq, 99, "full ring hands the event back");
        assert_eq!(ring.pop().unwrap().seq, 0);
        assert!(ring.push(mk(4)).is_ok());
        let drained: Vec<u64> = std::iter::from_fn(|| ring.pop()).map(|e| e.seq).collect();
        assert_eq!(drained, vec![1, 2, 3, 4]);
        assert!(ring.pop().is_none());
    }

    #[test]
    fn tracer_overflow_drops_oldest_and_counts() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.record("ev", i, 1, Vec::new());
        }
        assert_eq!(t.dropped(), 6, "4 kept of 10, 6 dropped");
        let kept: Vec<u64> = t.drain().iter().map(|e| e.start_us).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "newest events survive");
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let t = Tracer::new(64);
        t.set_enabled(true);
        t.set_sampling(3);
        let recorded = (0..9).filter(|_| t.should_record()).count();
        assert_eq!(recorded, 3);
        t.set_sampling(0); // clamped to 1
        assert_eq!(t.sampling(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        assert!(!t.should_record());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn span_event_json_shape() {
        let ev = SpanEvent {
            seq: 7,
            name: "solve",
            start_us: 10,
            dur_us: 5,
            fields: vec![
                ("block", FieldValue::U64(3)),
                ("ok", FieldValue::Bool(true)),
            ],
        };
        let line = serde_json::to_string(&ev.to_json()).unwrap();
        assert!(line.contains("\"span\":\"solve\""));
        assert!(line.contains("\"dur_us\":5"));
        assert!(line.contains("\"block\":3"));
        let mut buf = Vec::new();
        write_jsonl(&[ev], &mut buf).unwrap();
        assert!(buf.ends_with(b"\n"));
    }
}
