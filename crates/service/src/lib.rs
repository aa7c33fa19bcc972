//! `vcsched-service` — the scheduler as a long-running daemon.
//!
//! The batch engine (`vcsched-engine`) schedules a corpus and exits; this
//! crate keeps it resident. A TCP [`server`] speaks a newline-delimited
//! JSON [`protocol`] (`schedule`, `batch`, `stats`, `metrics`, `ping`,
//! `shutdown`) — or, negotiated per connection by a magic preamble, the
//! compact binary [`frame`] format — and feeds every piece of work
//! through the engine's [`SubmitPool`](vcsched_engine::SubmitPool): a
//! bounded admission queue in front of a fixed worker pool, backed by
//! the sharded content-addressed schedule cache. When the queue is full
//! the server answers `{"ok":false,…,"retry_after_ms":N}` instead of
//! queueing unboundedly — load-shedding with an explicit client backoff
//! hint — and per-connection weighted fair queuing keeps one chatty
//! connection from starving the rest on the way into that queue.
//!
//! Surfaced on the command line as `vcsched serve` (the daemon) and
//! `vcsched request` (a thin scripting client); see the [`client`]
//! module for the programmatic client.
//!
//! # Example
//!
//! ```
//! use vcsched_service::{serve, Client, Request, Response, ServiceConfig};
//!
//! let handle = serve(ServiceConfig {
//!     addr: "127.0.0.1:0".into(), // pick a free port
//!     jobs: 2,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let pong = client
//!     .request(&Request::Ping {
//!         delay_ms: 0,
//!         priority: None,
//!     })
//!     .unwrap();
//! assert!(matches!(pong, Response::Pong { .. }));
//! client.request(&Request::Shutdown).unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;
pub(crate) mod telemetry;

pub use client::Client;
pub use protocol::{
    BlockReply, CacheReply, LatencyReply, PolicyTotalsReply, Request, Response, ScheduleMode,
    ScheduleReply, ShardReply, StatsReply,
};
pub use server::{serve, ServerHandle, ServiceConfig};

use vcsched_arch::MachineConfig;

/// Resolves a machine preset name through [`MachineConfig::preset`],
/// with a protocol-ready error message. The wire protocol and the CLI's
/// `--machine` flag both resolve through it.
pub fn machine_by_name(name: &str) -> Result<MachineConfig, String> {
    MachineConfig::preset(name).ok_or_else(|| {
        format!(
            "unknown machine `{name}` (one of {})",
            MachineConfig::PRESET_KEYS.join(", ")
        )
    })
}
