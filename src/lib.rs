//! Facade crate re-exporting the whole `vcsched` workspace.
//!
//! See the individual crates for details; this crate exists so examples,
//! integration tests and downstream users can depend on a single package.
//!
//! * [`core`] — the paper's contribution: scheduling graph, virtual
//!   clusters, deduction process, the 6-stage search;
//! * [`cars`] — the CARS baseline the paper compares against;
//! * [`baselines`] — UAS and two-phase partition-then-schedule, the other
//!   two families in the paper's related work;
//! * [`workload`] — synthetic SpecInt95/MediaBench superblock corpora;
//! * [`sim`] — schedule validation, trace-driven execution, register
//!   pressure, VLIW listings;
//! * [`policy`] — the `SchedulePolicy` trait every scheduler implements,
//!   so drivers race interchangeable policies instead of concrete types;
//! * [`engine`] — the parallel batch-scheduling engine: worker pool,
//!   policy registry and configurable portfolios, sharded memoizing
//!   schedule cache;
//! * [`service`] — the long-running daemon: TCP server speaking
//!   newline-delimited JSON over a bounded admission queue;
//! * [`obs`] — the observability core: metrics registries (counters,
//!   gauges, latency histograms) and span-based tracing;
//! * [`arch`], [`ir`], [`graph`] — machine model, superblock IR, graph
//!   algorithms.

pub use vcsched_arch as arch;
pub use vcsched_baselines as baselines;
pub use vcsched_cars as cars;
pub use vcsched_core as core;
pub use vcsched_engine as engine;
pub use vcsched_graph as graph;
pub use vcsched_ir as ir;
pub use vcsched_obs as obs;
pub use vcsched_policy as policy;
pub use vcsched_service as service;
pub use vcsched_sim as sim;
pub use vcsched_workload as workload;
