//! Rep-indexed reorder merging — the determinism heart of the shard.
//!
//! Workers finish repetitions in whatever order the cluster happens to
//! schedule, but [`StreamingStats`] is order-sensitive (its exact sum,
//! Welford recurrence, and P² markers all round differently under
//! reordering). [`MergeState`] is the same reorder-buffer idea
//! `core::sweep`'s parallel path uses, lifted out so the coordinator,
//! the checkpoint format, and the resume path all share it: outcomes
//! arrive keyed by repetition index, park in a buffer, and fold into the
//! accumulators strictly in repetition order — so the final statistics
//! are bit-for-bit what a serial sweep would have produced, at any
//! worker count, with any failure/reassignment history.
//!
//! Duplicate deliveries (a rep re-run because its first worker died
//! after reporting it, or replayed from a checkpoint's pending set) are
//! dropped: merging is idempotent per repetition index.

use flagsim_core::sweep::SweepFailure;
use flagsim_core::RepStats;
use flagsim_metrics::{RunStats, StreamingStats};
use std::collections::BTreeMap;

/// One repetition's outcome, reduced to what statistics need.
#[derive(Debug, Clone, PartialEq)]
pub enum RepOutcome {
    /// The run succeeded; the two swept metrics, bit-exact.
    Ok {
        /// Completion time in seconds.
        completion: f64,
        /// Total waiting time in seconds.
        waiting: f64,
    },
    /// The run failed (recorded, as the in-process sweep does, not fatal).
    Failed {
        /// The error string the run reported.
        error: String,
    },
}

impl RepOutcome {
    /// The outcome of one stats-only rep
    /// ([`SweepRunner::run_rep_stats`](flagsim_core::sweep::SweepRunner::run_rep_stats)).
    pub fn of(stats: Result<RepStats, String>) -> RepOutcome {
        match stats {
            Ok(s) => RepOutcome::Ok {
                completion: s.completion_secs,
                waiting: s.wait_secs,
            },
            Err(error) => RepOutcome::Failed { error },
        }
    }
}

/// Order-restoring accumulator over per-rep outcomes.
#[derive(Debug, Clone)]
pub struct MergeState {
    total: u64,
    next_emit: u64,
    pending: BTreeMap<u64, RepOutcome>,
    completion: StreamingStats,
    waiting: StreamingStats,
    failures: Vec<SweepFailure>,
}

impl MergeState {
    /// An empty merge over `total` repetitions.
    pub fn new(total: u64) -> Self {
        MergeState {
            total,
            next_emit: 0,
            pending: BTreeMap::new(),
            completion: StreamingStats::new(),
            waiting: StreamingStats::new(),
            failures: Vec::new(),
        }
    }

    /// Rebuild a merge mid-campaign: accumulators and failures restored
    /// from a checkpoint, watermark at `next_emit`, plus any
    /// completed-but-unmerged outcomes (they re-enter the reorder
    /// buffer and merge as soon as the gap before them closes).
    pub fn restore(
        total: u64,
        next_emit: u64,
        completion: StreamingStats,
        waiting: StreamingStats,
        failures: Vec<SweepFailure>,
        pending: Vec<(u64, RepOutcome)>,
    ) -> Self {
        let mut m = MergeState {
            total,
            next_emit,
            pending: BTreeMap::new(),
            completion,
            waiting,
            failures,
        };
        for (rep, outcome) in pending {
            m.accept(rep, outcome);
        }
        m
    }

    /// Fold in one repetition's outcome. Outcomes for already-merged or
    /// already-buffered reps are ignored (idempotent). Returns how many
    /// repetitions were *merged* (drained in order) by this call.
    pub fn accept(&mut self, rep: u64, outcome: RepOutcome) -> u64 {
        if rep < self.next_emit || rep >= self.total {
            return 0;
        }
        self.pending.entry(rep).or_insert(outcome);
        let mut merged = 0;
        while let Some(ready) = self.pending.remove(&self.next_emit) {
            match ready {
                RepOutcome::Ok { completion, waiting } => {
                    self.completion.push(completion);
                    self.waiting.push(waiting);
                    if flagsim_telemetry::enabled() {
                        flagsim_telemetry::observe("shard.completion_secs", completion);
                    }
                }
                RepOutcome::Failed { error } => {
                    self.failures.push(SweepFailure { rep: self.next_emit, error });
                }
            }
            self.next_emit += 1;
            merged += 1;
        }
        if merged > 0 && flagsim_telemetry::enabled() {
            flagsim_telemetry::gauge_set("shard.merged", self.next_emit as f64);
        }
        merged
    }

    /// Repetitions merged so far — the checkpoint watermark: every rep
    /// below it is folded into the accumulators, every rep at or above
    /// it is either buffered in [`MergeState::pending_outcomes`] or
    /// still owed.
    pub fn merged(&self) -> u64 {
        self.next_emit
    }

    /// Total repetitions in the campaign.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether every repetition has merged.
    pub fn is_complete(&self) -> bool {
        self.next_emit == self.total
    }

    /// The completed-but-unmerged outcomes (reps above the watermark
    /// with gaps before them), for checkpointing.
    pub fn pending_outcomes(&self) -> Vec<(u64, RepOutcome)> {
        self.pending.iter().map(|(r, o)| (*r, o.clone())).collect()
    }

    /// The repetition indices in `[merged(), total())` that are *not*
    /// sitting in the reorder buffer — the work a resumed campaign still
    /// owes. Returned as maximal contiguous ranges.
    pub fn missing_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = self.next_emit;
        for (&rep, _) in self.pending.iter() {
            if rep > cursor {
                out.push((cursor, rep));
            }
            cursor = rep + 1;
        }
        if cursor < self.total {
            out.push((cursor, self.total));
        }
        out
    }

    /// Borrow the accumulators (for checkpointing).
    pub fn accumulators(&self) -> (&StreamingStats, &StreamingStats) {
        (&self.completion, &self.waiting)
    }

    /// Recorded per-rep failures, in repetition order.
    pub fn failures(&self) -> &[SweepFailure] {
        &self.failures
    }

    /// Freeze into summary statistics. Errors when no repetition
    /// succeeded (mirroring `SweepError::AllFailed`).
    pub fn finish(&self) -> Result<(RunStats, RunStats), String> {
        if self.completion.n() == 0 {
            return match self.failures.first() {
                Some(f) => Err(format!(
                    "all {} repetition(s) failed; first: rep {}: {}",
                    self.total, f.rep, f.error
                )),
                None => Err("no repetitions merged".into()),
            };
        }
        Ok((self.completion.to_stats(), self.waiting.to_stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(x: f64) -> RepOutcome {
        RepOutcome::Ok { completion: x, waiting: x / 2.0 }
    }

    #[test]
    fn out_of_order_delivery_matches_in_order() {
        let xs: Vec<f64> = (0..40).map(|i| (i * 37 % 23) as f64 + 0.25).collect();
        let mut serial = MergeState::new(40);
        for (i, &x) in xs.iter().enumerate() {
            serial.accept(i as u64, ok(x));
        }
        // A scrambled order (deterministic permutation).
        let mut scrambled = MergeState::new(40);
        let mut order: Vec<u64> = (0..40).collect();
        order.reverse();
        order.swap(3, 31);
        order.swap(0, 17);
        for &i in &order {
            scrambled.accept(i, ok(xs[i as usize]));
        }
        assert!(serial.is_complete() && scrambled.is_complete());
        let (a, _) = serial.finish().unwrap();
        let (b, _) = scrambled.finish().unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.stddev.to_bits(), b.stddev.to_bits());
        assert_eq!(a.median.to_bits(), b.median.to_bits());
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut m = MergeState::new(3);
        m.accept(0, ok(1.0));
        m.accept(0, ok(999.0)); // late duplicate of a merged rep
        m.accept(2, ok(3.0));
        m.accept(2, ok(888.0)); // duplicate of a buffered rep
        m.accept(1, ok(2.0));
        let (stats, _) = m.finish().unwrap();
        assert_eq!(stats.n, 3);
        assert_eq!(stats.max, 3.0, "duplicates must not leak into stats");
    }

    #[test]
    fn missing_ranges_account_for_buffered_reps() {
        let mut m = MergeState::new(10);
        m.accept(0, ok(1.0));
        m.accept(4, ok(1.0));
        m.accept(5, ok(1.0));
        m.accept(8, ok(1.0));
        assert_eq!(m.merged(), 1);
        assert_eq!(m.missing_ranges(), vec![(1, 4), (6, 8), (9, 10)]);
        assert_eq!(m.pending_outcomes().len(), 3);
    }

    #[test]
    fn failures_record_without_sinking_stats() {
        let mut m = MergeState::new(3);
        m.accept(0, ok(1.0));
        m.accept(1, RepOutcome::Failed { error: "rope snapped".into() });
        m.accept(2, ok(2.0));
        let (stats, _) = m.finish().unwrap();
        assert_eq!(stats.n, 2);
        assert_eq!(m.failures().len(), 1);
        assert_eq!(m.failures()[0].rep, 1);
    }

    #[test]
    fn all_failed_is_an_error() {
        let mut m = MergeState::new(2);
        m.accept(0, RepOutcome::Failed { error: "a".into() });
        m.accept(1, RepOutcome::Failed { error: "b".into() });
        let err = m.finish().unwrap_err();
        assert!(err.contains("all 2 repetition(s) failed"), "{err}");
        assert!(err.contains("rep 0"), "{err}");
    }

    #[test]
    fn restore_replays_pending_into_the_buffer() {
        let mut whole = MergeState::new(6);
        for i in 0..6 {
            whole.accept(i, ok(i as f64));
        }
        // Simulate a checkpoint at watermark 2 with reps 4,5 pending.
        let mut head = MergeState::new(6);
        head.accept(0, ok(0.0));
        head.accept(1, ok(1.0));
        head.accept(4, ok(4.0));
        head.accept(5, ok(5.0));
        let (c, w) = head.accumulators();
        let restored = MergeState::restore(
            6,
            head.merged(),
            c.clone(),
            w.clone(),
            head.failures().to_vec(),
            head.pending_outcomes(),
        );
        let mut resumed = restored;
        assert_eq!(resumed.missing_ranges(), vec![(2, 4)]);
        resumed.accept(2, ok(2.0));
        resumed.accept(3, ok(3.0));
        assert!(resumed.is_complete());
        let (a, aw) = resumed.finish().unwrap();
        let (b, bw) = whole.finish().unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.stddev.to_bits(), b.stddev.to_bits());
        assert_eq!(aw.mean.to_bits(), bw.mean.to_bits());
    }
}
