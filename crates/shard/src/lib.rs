//! # flagsim-shard
//!
//! Scale a sweep past one OS process without changing a single digit of
//! its output. A *coordinator* shards a sweep's repetition range into
//! leases, farms them out to `flagsim worker` processes over a
//! hand-rolled length-prefixed JSON-over-TCP protocol (the workspace is
//! offline — no serde, no tonic), and folds the per-repetition metrics
//! back through core's one rep-indexed merge
//! ([`MergeState`](flagsim_core::sweep::MergeState)), so the final
//! statistics are **bit-for-bit identical to the serial sweep** at any
//! worker count — the same determinism contract `core::sweep` makes for
//! threads, by the same code, extended to processes.
//!
//! The paper's scenario 4 teaches that real parallel systems lose
//! workers; this crate survives failure at every layer:
//!
//! * **Leases + heartbeats** ([`lease`]): every worker holds at most one
//!   rep-range lease; any frame it sends refreshes its heartbeat, and a
//!   deadline miss declares it dead and returns the unfinished part of
//!   its lease to the pool under the same [`RecoveryPolicy`] vocabulary
//!   the in-simulation fault drills use — `rebalance` hands the work to
//!   the survivors immediately, `spare:SECS` embargoes it while a
//!   replacement is fetched, `abort` stops the campaign and reports.
//! * **Reconnects** ([`coordinator`]): connection attempts back off
//!   exponentially with a cap and an attempt budget.
//! * **Degradation**: when no worker is reachable at all, the
//!   coordinator runs the missing repetitions in-process on core's
//!   executor
//!   ([`SweepRunner::run_owed`](flagsim_core::sweep::SweepRunner::run_owed),
//!   the one `flagsim sweep --jobs` uses, folding into the same merge),
//!   so a dead cluster costs wall-clock time, never a campaign.
//! * **Checkpoint/resume** ([`checkpoint`]): the coordinator logs every
//!   merged repetition's outcome (bit-exact, in rep order) to a
//!   checkpoint file, appending what merged since the last save;
//!   `flagsim sweep --resume <ckpt>` replays the log into a fresh merge,
//!   re-runs everything past it, and finishes with statistics
//!   bit-identical to an uninterrupted run (the `shard_bench` hard
//!   gate).
//!
//! * **Distributed observability** ([`wire`], [`fleet`]): when the
//!   coordinator is collecting telemetry, its `hello` propagates the
//!   campaign trace context and workers ship their spans, structured
//!   logs, flow events, and counter deltas back as `telemetry` frames —
//!   merged into one Chrome trace with a track group per worker process
//!   and lease grants drawn as flow arrows. Telemetry frames are
//!   strictly observational (they never reach the merge), so shipping
//!   on, off, or lossy cannot move a single bit of the statistics.
//!
//! [`RecoveryPolicy`]: flagsim_core::faults::RecoveryPolicy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod fleet;
pub mod job;
pub mod lease;
pub mod obs_serve;
pub mod wire;
pub mod worker;

pub use checkpoint::{Checkpoint, CheckpointLog};
pub use coordinator::{campaign_id, run_sweep, CoordinatorConfig, ShardOutcome};
pub use fleet::{FleetView, ObsHub, WorkerObs};
pub use job::{JobSpec, MaterializedJob};
pub use lease::{LeaseConfig, LeaseGrant, LeaseTable, WorkerId};
pub use obs_serve::ObsServer;
pub use wire::{read_frame, write_frame, Message, TelemetryBatch, TraceConfig, PROTOCOL_VERSION};
pub use worker::{serve, WorkerOptions};
