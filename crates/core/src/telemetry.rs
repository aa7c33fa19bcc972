//! Handles into the process-global obs registry for the core search.
//!
//! Every handle is fetched once through a `OnceLock` so the hot paths
//! (per-attempt recording, per-bump stage runs) never touch the registry
//! locks — just lock-free atomic adds. Recording is strictly write-only:
//! nothing here feeds back into scheduling decisions, keeping golden
//! output byte-identical whether obs is drained or ignored.

use std::sync::OnceLock;

use vcsched_obs::{Counter, Histogram};

/// Per-attempt distributions recorded by
/// [`VcScheduler::try_schedule_with_live_ins`](crate::VcScheduler::try_schedule_with_live_ins).
pub(crate) struct AttemptMetrics {
    /// `vc_dp_steps` — deduction steps per attempt.
    pub dp_steps: Histogram,
    /// `vc_awct_bumps` — AWCT bumps per *successful* attempt.
    pub awct_bumps: Histogram,
    /// `vc_trail_entries` — speculation-trail entries per attempt.
    pub trail_entries: Histogram,
    /// `vc_trail_rollbacks` — trail rollbacks per attempt.
    pub trail_rollbacks: Histogram,
    /// `vc_trail_peak_depth` — peak trail depth per attempt.
    pub trail_peak_depth: Histogram,
    /// `vc_bytes_not_cloned_total` — bytes the trail engine avoided cloning.
    pub bytes_not_cloned: Counter,
    /// `vc_redo_replays_total` — stage winners adopted by re-deduction.
    pub redo_replays: Counter,
    /// `vc_redo_bytes_replayed_total` — work bytes those adoptions charged.
    pub redo_bytes_replayed: Counter,
    /// `vc_attempts_total{outcome=…}` — attempts by outcome.
    pub outcome_ok: Counter,
    /// See [`AttemptMetrics::outcome_ok`].
    pub outcome_budget: Counter,
    /// See [`AttemptMetrics::outcome_ok`].
    pub outcome_bump_limit: Counter,
    /// See [`AttemptMetrics::outcome_ok`].
    pub outcome_beaten: Counter,
    /// See [`AttemptMetrics::outcome_ok`].
    pub outcome_deadline: Counter,
}

pub(crate) fn attempt_metrics() -> &'static AttemptMetrics {
    static M: OnceLock<AttemptMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = vcsched_obs::global();
        AttemptMetrics {
            dp_steps: r.histogram("vc_dp_steps"),
            awct_bumps: r.histogram("vc_awct_bumps"),
            trail_entries: r.histogram("vc_trail_entries"),
            trail_rollbacks: r.histogram("vc_trail_rollbacks"),
            trail_peak_depth: r.histogram("vc_trail_peak_depth"),
            bytes_not_cloned: r.counter("vc_bytes_not_cloned_total"),
            redo_replays: r.counter("vc_redo_replays_total"),
            redo_bytes_replayed: r.counter("vc_redo_bytes_replayed_total"),
            outcome_ok: r.counter_with("vc_attempts_total", &[("outcome", "ok")]),
            outcome_budget: r.counter_with("vc_attempts_total", &[("outcome", "budget")]),
            outcome_bump_limit: r.counter_with("vc_attempts_total", &[("outcome", "bump_limit")]),
            outcome_beaten: r.counter_with("vc_attempts_total", &[("outcome", "beaten")]),
            outcome_deadline: r.counter_with("vc_attempts_total", &[("outcome", "deadline")]),
        }
    })
}

/// `vc_minawct_probes` — deduction-process builds consumed by one §4.2
/// enhanced-minAWCT computation.
pub(crate) fn minawct_probes() -> &'static Histogram {
    static M: OnceLock<Histogram> = OnceLock::new();
    M.get_or_init(|| vcsched_obs::global().histogram("vc_minawct_probes"))
}

/// `vc_stage_steps{stage="1".."6"}` — deduction steps charged by each of
/// the six Fig. 6 stages on one pass.
pub(crate) fn stage_steps(stage: usize) -> &'static Histogram {
    static M: OnceLock<[Histogram; 6]> = OnceLock::new();
    &M.get_or_init(|| {
        let r = vcsched_obs::global();
        ["1", "2", "3", "4", "5", "6"].map(|s| r.histogram_with("vc_stage_steps", &[("stage", s)]))
    })[stage - 1]
}

/// `vc_stage_failures_total{stage="1".."6"}` — stage dead ends forcing a
/// restart or bump.
pub(crate) fn stage_failures(stage: usize) -> &'static Counter {
    static M: OnceLock<[Counter; 6]> = OnceLock::new();
    &M.get_or_init(|| {
        let r = vcsched_obs::global();
        ["1", "2", "3", "4", "5", "6"]
            .map(|s| r.counter_with("vc_stage_failures_total", &[("stage", s)]))
    })[stage - 1]
}
