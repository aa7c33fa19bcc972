//! Public scheduler API.

use std::time::{Duration, Instant};

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::{Schedule, Superblock};
use vcsched_policy::SpecStats;

use crate::dp::Budget;
use crate::init::StateArena;
use crate::search::{search, SearchFail};
use crate::state::{StateCtx, Tuning};

/// Tuning knobs for the virtual-cluster scheduler.
///
/// The defaults are generous enough for typical superblocks; the experiment
/// harness lowers `max_dp_steps` to reproduce the paper's compile-time
/// thresholds (1-minute vs 4-minute timeouts, §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct VcOptions {
    /// Cap on deduction-process rule firings for one superblock.
    pub max_dp_steps: u64,
    /// Optional cap on trail work — lifetime bytes of state touched by
    /// deduction mutations — for one superblock. A cache-footprint-
    /// proportional budget, unlike step counts whose per-step cost varies;
    /// `None` leaves work bounded by `max_dp_steps` alone.
    pub max_trail_bytes: Option<u64>,
    /// Cap on AWCT increases before giving up.
    pub max_awct_bumps: u32,
    /// Optional wall-clock limit for one superblock.
    pub time_limit: Option<Duration>,
    /// Cooperative early-cancel: abandon the search with
    /// [`VcError::Beaten`] when the *certified* AWCT lower bound (the
    /// enhanced minAWCT of §4.2) strictly exceeds this value — a racing
    /// driver already holds a schedule this search can only lose to.
    /// Strict comparison keeps ties alive, so cancellation never changes
    /// which schedule a deterministic portfolio picks.
    pub awct_cutoff: Option<f64>,
    /// Deterministic deadline in deduction steps: abandon with
    /// [`VcError::Deadline`] once this many steps are spent. Unlike
    /// `time_limit` this reproduces bit-for-bit at any thread count —
    /// it is how the online executor prices remaining slack.
    pub deadline_steps: Option<u64>,
    /// Ablation switches (all off for the paper's configuration).
    pub tuning: Tuning,
}

impl Default for VcOptions {
    fn default() -> Self {
        VcOptions {
            max_dp_steps: 4_000_000,
            max_trail_bytes: None,
            max_awct_bumps: 128,
            time_limit: None,
            awct_cutoff: None,
            deadline_steps: None,
            tuning: Tuning::default(),
        }
    }
}

/// Statistics of one scheduling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcStats {
    /// The enhanced minimum AWCT (lower bound) the search started from.
    pub min_awct: f64,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// The attempt's search and speculation-trail facts, its exact
    /// deduction steps and AWCT bumps among them (see [`SpecStats`]).
    pub spec: SpecStats,
}

/// A successful scheduling outcome.
#[derive(Debug, Clone)]
pub struct VcOutcome {
    /// The schedule (cycles, clusters, copies).
    pub schedule: Schedule,
    /// Achieved average weighted completion time.
    pub awct: f64,
    /// Run statistics.
    pub stats: VcStats,
}

/// Scheduling failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcError {
    /// The step/wall-clock budget ran out. Drivers fall back to a list
    /// scheduler, exactly as the paper does past its thresholds (§6.1).
    BudgetExhausted,
    /// No schedule found within the AWCT bump limit.
    BumpLimitReached,
    /// [`VcOptions::awct_cutoff`] proved the search could only lose: the
    /// certified lower bound strictly exceeds a schedule the driver
    /// already holds.
    Beaten,
    /// A deadline fired mid-search — the deterministic
    /// [`VcOptions::deadline_steps`] threshold was crossed or an external
    /// preemption handle was raised. The racing driver returns its
    /// best-so-far validated schedule instead of this attempt's.
    Deadline,
}

impl std::fmt::Display for VcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcError::BudgetExhausted => write!(f, "scheduling budget exhausted"),
            VcError::BumpLimitReached => write!(f, "AWCT bump limit reached"),
            VcError::Beaten => write!(f, "abandoned: a better schedule is already in hand"),
            VcError::Deadline => write!(f, "deadline fired mid-search"),
        }
    }
}

impl std::error::Error for VcError {}

/// The virtual-cluster scheduler: the paper's contribution (§4).
///
/// # Example
///
/// ```
/// use vcsched_arch::{MachineConfig, OpClass};
/// use vcsched_core::VcScheduler;
/// use vcsched_ir::SuperblockBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SuperblockBuilder::new("demo");
/// let i0 = b.inst(OpClass::Int, 1);
/// let i1 = b.inst(OpClass::Int, 1);
/// let x = b.exit(1, 1.0);
/// b.data_dep(i0, i1).data_dep(i1, x);
/// let sb = b.build()?;
///
/// let scheduler = VcScheduler::new(MachineConfig::paper_2c_8w());
/// let out = scheduler.schedule(&sb)?;
/// assert_eq!(out.schedule.cycle(x), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VcScheduler {
    machine: MachineConfig,
    options: VcOptions,
}

impl VcScheduler {
    /// A scheduler for `machine` with default options.
    pub fn new(machine: MachineConfig) -> Self {
        VcScheduler {
            machine,
            options: VcOptions::default(),
        }
    }

    /// A scheduler with explicit options.
    pub fn with_options(machine: MachineConfig, options: VcOptions) -> Self {
        VcScheduler { machine, options }
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The active options.
    pub fn options(&self) -> &VcOptions {
        &self.options
    }

    /// Schedules `sb`, distributing live-ins round-robin over clusters.
    ///
    /// # Errors
    ///
    /// See [`VcError`]; on [`VcError::BudgetExhausted`] the caller should
    /// fall back to a cheaper scheduler (the paper uses CARS, §6.1).
    pub fn schedule(&self, sb: &Superblock) -> Result<VcOutcome, VcError> {
        let k = self.machine.cluster_count();
        let homes: Vec<ClusterId> = sb
            .live_ins()
            .enumerate()
            .map(|(i, _)| ClusterId((i % k) as u8))
            .collect();
        self.schedule_with_live_ins(sb, &homes)
    }

    /// Schedules `sb` with an explicit live-in cluster placement (one entry
    /// per live-in, in declaration order). The paper randomises these but
    /// gives both schedulers the same assignment (§6.1).
    pub fn schedule_with_live_ins(
        &self,
        sb: &Superblock,
        live_in_homes: &[ClusterId],
    ) -> Result<VcOutcome, VcError> {
        self.try_schedule_with_live_ins(sb, live_in_homes).result
    }

    /// Like [`VcScheduler::schedule_with_live_ins`], but the telemetry
    /// (deduction steps spent, wall-clock) survives failure too — what a
    /// portfolio racer reports for a losing or abandoned attempt.
    pub fn try_schedule_with_live_ins(
        &self,
        sb: &Superblock,
        live_in_homes: &[ClusterId],
    ) -> VcAttempt {
        self.try_schedule_preemptible(sb, live_in_homes, None)
    }

    /// Like [`VcScheduler::try_schedule_with_live_ins`], with an optional
    /// preemption handle: when `preempt.preempt()` fires (a wall-clock
    /// deadline timer, say) the search aborts at its next budget check
    /// with [`VcError::Deadline`].
    pub fn try_schedule_preemptible(
        &self,
        sb: &Superblock,
        live_in_homes: &[ClusterId],
        preempt: Option<&vcsched_policy::AwctBound>,
    ) -> VcAttempt {
        let start = Instant::now();
        let mut span = vcsched_obs::span!("vc_attempt", insts = sb.len());
        let ctx = StateCtx::with_tuning(sb, &self.machine, self.options.tuning);
        let deadline = self.options.time_limit.map(|d| start + d);
        let mut budget = Budget::new(self.options.max_dp_steps, deadline)
            .with_byte_cap(self.options.max_trail_bytes)
            .with_deadline_steps(self.options.deadline_steps)
            .with_preempt(preempt.cloned());
        let mut arena = StateArena::new();
        let searched = search(
            sb,
            &ctx,
            live_in_homes,
            &mut budget,
            self.options.max_awct_bumps,
            self.options.awct_cutoff,
            &mut arena,
        );
        // The budget carries the search's facts; the arena's state carries
        // the whole run's trail telemetry, success or failure.
        let mut spec = SpecStats {
            dp_steps: budget.spent(),
            minawct_probes: budget.probes,
            stage_steps: budget.stage_steps,
            stage_failures: budget.stage_failures,
            ..SpecStats::default()
        };
        if let Some(st) = arena.state() {
            spec.trail_entries = st.trail.total_entries();
            spec.rollbacks = st.trail.rollbacks();
            spec.peak_trail_depth = st.trail.peak_depth() as u64;
            spec.bytes_not_cloned = st.trail.bytes_not_cloned();
            spec.redo_replays = st.trail.adoptions();
            spec.redo_bytes_replayed = st.trail.adopted_bytes();
        }
        let result = match searched {
            Ok(r) => {
                spec.awct_bumps = r.bumps.into();
                Ok(VcOutcome {
                    awct: r.awct,
                    stats: VcStats {
                        min_awct: r.min_awct,
                        wall: start.elapsed(),
                        spec,
                    },
                    schedule: r.schedule,
                })
            }
            Err(SearchFail::Budget) if budget.deadline_fired() => Err(VcError::Deadline),
            Err(SearchFail::Budget) => Err(VcError::BudgetExhausted),
            Err(SearchFail::BumpLimit) => Err(VcError::BumpLimitReached),
            Err(SearchFail::Beaten) => Err(VcError::Beaten),
        };
        span.field("dp_steps", budget.spent());
        span.field("ok", result.is_ok());
        drop(span);
        VcAttempt {
            result,
            wall: start.elapsed(),
            spec,
        }
    }
}

/// One scheduling attempt with its telemetry, successful or not.
#[derive(Debug, Clone)]
pub struct VcAttempt {
    /// The outcome (or why the attempt was abandoned).
    pub result: Result<VcOutcome, VcError>,
    /// Wall-clock spent.
    pub wall: Duration,
    /// The attempt's search and speculation-trail facts, failed attempts
    /// included (see [`SpecStats`]).
    pub spec: SpecStats,
}
