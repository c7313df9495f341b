//! # flagsim-metrics
//!
//! The numbers behind the activity's lessons and its assessment:
//!
//! * [`perf`] — speedup, efficiency, Amdahl/Gustafson predictions, the
//!   Karp–Flatt experimentally-determined serial fraction, and load
//!   imbalance. These formalize the post-activity discussion ("trying to
//!   quantify this naturally leads into the concept of speedup and its
//!   calculation", §III-C).
//! * [`likert`] — 1–5 Likert-scale summaries with the half-point medians
//!   the paper reports (4.5s in Tables I–III), with NA support (Webster
//!   omitted some instructor questions).
//! * [`transition`] — pre/post quiz transition matrices (retained /
//!   gained / lost / stayed-incorrect), the exact quantities of Fig. 8.
//! * [`stats`] / [`streaming`] — mean ± stddev summaries of repeated
//!   runs, batch ([`RunStats::from_sample`]) or one observation at a
//!   time as a sweep merges them ([`StreamingStats`]: 8 B per
//!   observation, an exact median, the same mean bits).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inference;
pub mod likert;
pub mod perf;
pub mod stats;
pub mod streaming;
pub mod transition;

pub use inference::{mcnemar, normal_cdf, two_proportion_z, TestResult};

pub use likert::{median, LikertSummary};
pub use perf::{
    amdahl_speedup, efficiency, fit_amdahl_serial_fraction, gustafson_speedup, karp_flatt,
    load_imbalance, speedup,
};
pub use stats::{clearly_different, RunStats};
pub use streaming::StreamingStats;
pub use transition::TransitionMatrix;
