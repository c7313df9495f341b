//! # flagsim-bench
//!
//! The experiment harness: one function per table/figure of the paper,
//! each returning both structured results and a printable report. The
//! `experiments` binary prints them all; the Criterion benches in
//! `benches/` time the underlying workloads; the assertions live in the
//! workspace integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_bench;
pub mod experiments;
pub mod measure;
pub mod obs_bench;
pub mod shard_bench;
pub mod sweep_bench;
pub mod telemetry_bench;
pub mod verify_bench;

pub use engine_bench::{run_engine_bench, EngineBench};
pub use experiments::{all_experiments, experiments_to_json};
pub use obs_bench::{run_obs_bench, ObsBench};
pub use shard_bench::{run_shard_bench, ShardBench};
pub use sweep_bench::{run_sweep_bench, SweepBench};
pub use telemetry_bench::{run_telemetry_bench, TelemetryBench};
pub use verify_bench::{run_verify_bench, VerifyBench};
