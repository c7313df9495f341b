//! Rep-range leases with heartbeats, deadlines, and recovery.
//!
//! The supervision brain of the shard, kept as a *pure* state machine:
//! time is a `u64` millisecond counter supplied by the caller, never
//! read from a wall clock, so every failure interleaving — heartbeat
//! miss, backoff schedule, reassignment under each policy — is testable
//! deterministically with a fake clock.
//!
//! A worker's life: `Connecting` (with exponential backoff between
//! attempts) → `Active` (holding at most one contiguous rep-range
//! lease) → `Dead` (deadline miss, connection exhaustion, or explicit
//! error). Any protocol frame from the worker refreshes its heartbeat.
//! When a worker dies mid-lease the *unfinished* part of its range —
//! the worker runs reps in ascending order and reports each, so the
//! table advances the lease start on every `on_rep_done` — goes back
//! to the pool under the campaign's
//! [`RecoveryPolicy`](flagsim_core::faults::RecoveryPolicy):
//!
//! * `Rebalance` — returned ranges are immediately grantable to
//!   survivors.
//! * `SpareSwap { replacement_delay_secs }` — returned ranges are
//!   embargoed for the replacement delay (modelling a spare being
//!   fetched) before anyone may claim them.
//! * `AbortAndReport` — the campaign stops granting and reports.

use flagsim_core::faults::RecoveryPolicy;

/// Handle for one worker slot in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId(pub usize);

/// Tuning for lease granting and failure detection.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// Reps per lease grant.
    pub chunk: u64,
    /// Silence longer than this (ms) declares a worker dead.
    pub heartbeat_timeout_ms: u64,
    /// First reconnect delay (ms); doubles each failed attempt.
    pub backoff_base_ms: u64,
    /// Ceiling on the reconnect delay (ms).
    pub backoff_cap_ms: u64,
    /// Connection attempts before a worker slot is given up on.
    pub max_connect_attempts: u32,
    /// What to do with a dead worker's unfinished lease.
    pub policy: RecoveryPolicy,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            chunk: 8,
            heartbeat_timeout_ms: 2_000,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            max_connect_attempts: 5,
            policy: RecoveryPolicy::Rebalance,
        }
    }
}

/// What the table says when a worker asks for work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseGrant {
    /// Run reps `start..end` (half-open), in ascending order.
    Range {
        /// First rep of the lease.
        start: u64,
        /// One past the last rep.
        end: u64,
    },
    /// No grantable range right now (embargoed returns, or all work is
    /// out on other leases) — ask again later.
    Wait,
    /// Every rep has been leased out and completed or is owed by live
    /// leases; nothing will ever be granted again.
    Finished,
}

#[derive(Debug, Clone)]
enum WorkerState {
    Connecting { attempt: u32, next_try_at: u64 },
    Active { lease: Option<(u64, u64)>, last_seen: u64 },
    Dead { reason: String },
}

#[derive(Debug, Clone)]
struct WorkerSlot {
    name: String,
    state: WorkerState,
}

/// The coordinator-side ledger of who owes which repetitions.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    cfg: LeaseConfig,
    /// Frontier of never-leased work: everything in `next_fresh..total`
    /// has never been granted.
    next_fresh: u64,
    total: u64,
    /// Ranges returned by dead workers, grantable once `embargo_until`.
    returned: Vec<(u64, u64)>,
    embargo_until: u64,
    workers: Vec<WorkerSlot>,
    aborted: Option<String>,
}

impl LeaseTable {
    /// A table over reps `0..total`.
    pub fn new(total: u64, cfg: LeaseConfig) -> Self {
        LeaseTable {
            cfg,
            next_fresh: 0,
            total,
            returned: Vec::new(),
            embargo_until: 0,
            workers: Vec::new(),
            aborted: None,
        }
    }

    /// A table resuming a campaign: `ranges` are the still-owed rep
    /// ranges (from [`MergeState::missing_ranges`]); everything else is
    /// treated as done.
    ///
    /// [`MergeState::missing_ranges`]: flagsim_core::sweep::MergeState::missing_ranges
    pub fn with_missing(total: u64, ranges: &[(u64, u64)], cfg: LeaseConfig) -> Self {
        let mut t = LeaseTable::new(total, cfg);
        t.next_fresh = total; // nothing is "fresh"; all work flows from `returned`
        t.returned = ranges.to_vec();
        t
    }

    /// Register a worker slot (begins `Connecting`, eligible to try at
    /// time 0).
    pub fn add_worker(&mut self, name: &str) -> WorkerId {
        self.workers.push(WorkerSlot {
            name: name.to_owned(),
            state: WorkerState::Connecting { attempt: 0, next_try_at: 0 },
        });
        WorkerId(self.workers.len() - 1)
    }

    /// Worker display name.
    pub fn name(&self, w: WorkerId) -> &str {
        &self.workers[w.0].name
    }

    /// Whether `w` may attempt a connection at `now` (backoff elapsed,
    /// attempts not exhausted, still `Connecting`).
    pub fn may_connect(&self, w: WorkerId, now: u64) -> bool {
        match &self.workers[w.0].state {
            WorkerState::Connecting { attempt, next_try_at } => {
                *attempt < self.cfg.max_connect_attempts && now >= *next_try_at
            }
            _ => false,
        }
    }

    /// Record a failed connection attempt; schedules the next try with
    /// exponential backoff (`base << attempt`, capped). Exhausting the
    /// attempt budget kills the slot — quietly, not via the recovery
    /// policy: a worker that never connected never held work.
    pub fn on_connect_failed(&mut self, w: WorkerId, now: u64) {
        let slot = &mut self.workers[w.0];
        if let WorkerState::Connecting { attempt, next_try_at } = &mut slot.state {
            *attempt += 1;
            if *attempt >= self.cfg.max_connect_attempts {
                slot.state = WorkerState::Dead {
                    reason: format!("gave up after {attempt} connection attempts"),
                };
                return;
            }
            let shift = (*attempt - 1).min(31);
            let delay = self
                .cfg
                .backoff_base_ms
                .saturating_mul(1u64 << shift)
                .min(self.cfg.backoff_cap_ms);
            *next_try_at = now + delay;
        }
    }

    /// The next scheduled connection attempt time, if `w` is waiting to
    /// reconnect.
    pub fn next_attempt_at(&self, w: WorkerId) -> Option<u64> {
        match &self.workers[w.0].state {
            WorkerState::Connecting { attempt, next_try_at }
                if *attempt < self.cfg.max_connect_attempts =>
            {
                Some(*next_try_at)
            }
            _ => None,
        }
    }

    /// The worker connected and completed its hello handshake.
    pub fn on_connected(&mut self, w: WorkerId, now: u64) {
        self.workers[w.0].state = WorkerState::Active { lease: None, last_seen: now };
    }

    /// Any frame from the worker counts as a heartbeat.
    pub fn on_heartbeat(&mut self, w: WorkerId, now: u64) {
        if let WorkerState::Active { last_seen, .. } = &mut self.workers[w.0].state {
            *last_seen = now;
        }
    }

    /// Grant `w` a lease. Returned (recovered) ranges are preferred over
    /// fresh frontier work once their embargo lapses.
    pub fn request_lease(&mut self, w: WorkerId, now: u64) -> LeaseGrant {
        if self.aborted.is_some() {
            return LeaseGrant::Finished;
        }
        match &self.workers[w.0].state {
            WorkerState::Active { lease: None, .. } => {}
            _ => return LeaseGrant::Wait,
        }
        let grant = if !self.returned.is_empty() && now >= self.embargo_until {
            let (start, orig_end) = self.returned.remove(0);
            let end = orig_end.min(start + self.cfg.chunk.max(1));
            if end < orig_end {
                // Re-queue the tail of an oversized recovered range.
                self.returned.insert(0, (end, orig_end));
            }
            Some((start, end))
        } else if self.next_fresh < self.total {
            let start = self.next_fresh;
            let end = (start + self.cfg.chunk.max(1)).min(self.total);
            self.next_fresh = end;
            Some((start, end))
        } else {
            None
        };
        match grant {
            Some((start, end)) => {
                if let WorkerState::Active { lease, last_seen } = &mut self.workers[w.0].state {
                    *lease = Some((start, end));
                    *last_seen = now;
                }
                LeaseGrant::Range { start, end }
            }
            None if !self.returned.is_empty() => LeaseGrant::Wait,
            None if self.any_outstanding_lease() => LeaseGrant::Wait,
            None => LeaseGrant::Finished,
        }
    }

    /// The worker reported rep `rep` done; advance its lease start so a
    /// later death only returns genuinely unfinished work.
    pub fn on_rep_done(&mut self, w: WorkerId, rep: u64, now: u64) {
        if let WorkerState::Active { lease, last_seen } = &mut self.workers[w.0].state {
            *last_seen = now;
            if let Some((start, end)) = lease {
                if rep + 1 >= *end {
                    *lease = None;
                } else if rep >= *start {
                    *start = rep + 1;
                }
            }
        }
    }

    /// The worker reported its whole lease complete.
    pub fn on_lease_done(&mut self, w: WorkerId, now: u64) {
        if let WorkerState::Active { lease, last_seen } = &mut self.workers[w.0].state {
            *last_seen = now;
            *lease = None;
        }
    }

    /// Declare `w` dead (connection dropped, protocol error, …),
    /// applying the recovery policy to its unfinished lease.
    pub fn mark_dead(&mut self, w: WorkerId, reason: &str, now: u64) {
        let slot = &mut self.workers[w.0];
        let lease = match &slot.state {
            WorkerState::Active { lease, .. } => *lease,
            WorkerState::Dead { .. } => return,
            WorkerState::Connecting { .. } => None,
        };
        slot.state = WorkerState::Dead { reason: reason.to_owned() };
        if flagsim_telemetry::enabled() {
            flagsim_telemetry::count("shard.worker_deaths", 1);
        }
        if let Some((start, end)) = lease {
            if start < end {
                match self.cfg.policy {
                    RecoveryPolicy::Rebalance => self.returned.push((start, end)),
                    RecoveryPolicy::SpareSwap { replacement_delay_secs } => {
                        self.returned.push((start, end));
                        let delay_ms = (replacement_delay_secs.max(0.0) * 1000.0) as u64;
                        self.embargo_until = self.embargo_until.max(now + delay_ms);
                    }
                    RecoveryPolicy::AbortAndReport => {
                        self.returned.push((start, end));
                        self.aborted = Some(format!(
                            "worker {} died ({reason}) holding reps {start}..{end}; policy is abort",
                            slot.name
                        ));
                    }
                }
            }
        }
    }

    /// Sweep heartbeats against `now`; returns the workers newly
    /// declared dead this call. Only workers *holding a lease* are
    /// subject to the timeout: a leased worker streams one frame per
    /// repetition so silence means death, while an idle worker is
    /// silent simply because the coordinator drives the protocol.
    pub fn check_deadlines(&mut self, now: u64) -> Vec<WorkerId> {
        let timeout = self.cfg.heartbeat_timeout_ms;
        let stale: Vec<WorkerId> = self
            .workers
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match &s.state {
                WorkerState::Active { lease: Some(_), last_seen }
                    if now.saturating_sub(*last_seen) > timeout =>
                {
                    Some(WorkerId(i))
                }
                _ => None,
            })
            .collect();
        for &w in &stale {
            self.mark_dead(w, "heartbeat timeout", now);
        }
        stale
    }

    /// Workers currently `Active`.
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|s| matches!(s.state, WorkerState::Active { .. }))
            .count()
    }

    /// Whether `w` has been declared dead.
    pub fn is_dead(&self, w: WorkerId) -> bool {
        matches!(self.workers[w.0].state, WorkerState::Dead { .. })
    }

    /// Why `w` was declared dead, if it was.
    pub fn dead_reason(&self, w: WorkerId) -> Option<&str> {
        match &self.workers[w.0].state {
            WorkerState::Dead { reason } => Some(reason),
            _ => None,
        }
    }

    /// Whether every registered worker slot is dead.
    pub fn all_dead(&self) -> bool {
        !self.workers.is_empty()
            && self
                .workers
                .iter()
                .all(|s| matches!(s.state, WorkerState::Dead { .. }))
    }

    /// The abort reason, if the recovery policy stopped the campaign.
    pub fn abort_reason(&self) -> Option<&str> {
        self.aborted.as_deref()
    }

    /// Whether any active worker still holds a lease.
    fn any_outstanding_lease(&self) -> bool {
        self.workers.iter().any(|s| {
            matches!(s.state, WorkerState::Active { lease: Some(_), .. })
        })
    }

    /// Un-granted work remaining (fresh frontier plus returned ranges),
    /// in reps.
    pub fn ungranted_reps(&self) -> u64 {
        let fresh = self.total - self.next_fresh;
        let returned: u64 = self.returned.iter().map(|(s, e)| e - s).sum();
        fresh + returned
    }

    /// Drain every un-granted range (fresh and returned, embargo
    /// ignored) — the in-process degradation path claims all remaining
    /// work at once when the cluster is gone.
    pub fn drain_for_local(&mut self) -> Vec<(u64, u64)> {
        let mut out = std::mem::take(&mut self.returned);
        if self.next_fresh < self.total {
            out.push((self.next_fresh, self.total));
            self.next_fresh = self.total;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            chunk: 4,
            heartbeat_timeout_ms: 100,
            backoff_base_ms: 10,
            backoff_cap_ms: 80,
            max_connect_attempts: 4,
            policy: RecoveryPolicy::Rebalance,
        }
    }

    #[test]
    fn leases_cover_the_range_exactly_once() {
        let mut t = LeaseTable::new(10, cfg());
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        let mut seen = Vec::new();
        loop {
            let mut granted = false;
            for &w in &[a, b] {
                match t.request_lease(w, 1) {
                    LeaseGrant::Range { start, end } => {
                        for r in start..end {
                            seen.push(r);
                            t.on_rep_done(w, r, 1);
                        }
                        granted = true;
                    }
                    LeaseGrant::Wait => {}
                    LeaseGrant::Finished => {}
                }
            }
            if !granted {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(t.request_lease(a, 2), LeaseGrant::Finished);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut t = LeaseTable::new(1, cfg());
        let w = t.add_worker("w");
        assert!(t.may_connect(w, 0));
        t.on_connect_failed(w, 0); // attempt 1 → delay 10
        assert_eq!(t.next_attempt_at(w), Some(10));
        assert!(!t.may_connect(w, 9));
        assert!(t.may_connect(w, 10));
        t.on_connect_failed(w, 10); // attempt 2 → delay 20
        assert_eq!(t.next_attempt_at(w), Some(30));
        t.on_connect_failed(w, 30); // attempt 3 → delay 40
        assert_eq!(t.next_attempt_at(w), Some(70));
        t.on_connect_failed(w, 70); // attempt 4 = budget → dead
        assert_eq!(t.next_attempt_at(w), None);
        assert!(t.all_dead() && t.is_dead(w));
        let reason = t.dead_reason(w).expect("dead slots have a reason");
        assert!(reason.contains("connection attempts"), "{reason}");
        assert!(t.abort_reason().is_none(), "connect exhaustion is not an abort");
    }

    #[test]
    fn heartbeat_timeout_returns_unfinished_reps_under_rebalance() {
        let mut t = LeaseTable::new(8, cfg());
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        let LeaseGrant::Range { start, end } = t.request_lease(a, 0) else {
            panic!("expected a lease");
        };
        assert_eq!((start, end), (0, 4));
        t.on_rep_done(a, 0, 10); // a finishes rep 0, then goes silent
        t.on_heartbeat(b, 150);
        let dead = t.check_deadlines(150);
        assert_eq!(dead, vec![a]);
        // b inherits the unfinished tail 1..4 before fresh work.
        assert_eq!(t.request_lease(b, 151), LeaseGrant::Range { start: 1, end: 4 });
    }

    #[test]
    fn spare_policy_embargoes_recovered_work() {
        let mut t = LeaseTable::new(8, LeaseConfig {
            policy: RecoveryPolicy::SpareSwap { replacement_delay_secs: 1.0 },
            ..cfg()
        });
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        let _ = t.check_deadlines(200); // a dies; 0..4 embargoed until 1200
        // b gets fresh work while the recovered range is embargoed...
        assert_eq!(t.request_lease(b, 300), LeaseGrant::Range { start: 4, end: 8 });
        t.on_lease_done(b, 400);
        // ...must Wait during the embargo even though work exists...
        assert_eq!(t.request_lease(b, 500), LeaseGrant::Wait);
        // ...and claims it once the replacement delay lapses.
        assert_eq!(t.request_lease(b, 1200), LeaseGrant::Range { start: 0, end: 4 });
    }

    #[test]
    fn abort_policy_stops_granting() {
        let mut t = LeaseTable::new(8, LeaseConfig {
            policy: RecoveryPolicy::AbortAndReport,
            ..cfg()
        });
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        t.mark_dead(a, "socket reset", 50);
        let reason = t.abort_reason().expect("abort recorded");
        assert!(reason.contains("socket reset"), "{reason}");
        assert_eq!(t.request_lease(b, 60), LeaseGrant::Finished);
    }

    #[test]
    fn rep_done_shrinks_the_returned_range() {
        let mut t = LeaseTable::new(4, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert_eq!(t.request_lease(a, 0), LeaseGrant::Range { start: 0, end: 4 });
        t.on_rep_done(a, 0, 1);
        t.on_rep_done(a, 1, 2);
        t.mark_dead(a, "killed", 3);
        let b = t.add_worker("b");
        t.on_connected(b, 3);
        // Only 2..4 comes back — reps 0 and 1 were acknowledged.
        assert_eq!(t.request_lease(b, 4), LeaseGrant::Range { start: 2, end: 4 });
    }

    #[test]
    fn finishing_the_last_rep_of_a_lease_releases_it() {
        let mut t = LeaseTable::new(4, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        for r in 0..4 {
            t.on_rep_done(a, r, 1);
        }
        t.mark_dead(a, "late death", 2);
        let b = t.add_worker("b");
        t.on_connected(b, 2);
        // Nothing to recover: the lease was fully acknowledged.
        assert_eq!(t.request_lease(b, 3), LeaseGrant::Finished);
    }

    #[test]
    fn with_missing_serves_only_the_gaps() {
        let mut t = LeaseTable::new(10, LeaseConfig { chunk: 16, ..cfg() });
        // Resume: reps 3..5 and 8..10 still owed.
        let mut t2 = LeaseTable::with_missing(10, &[(3, 5), (8, 10)], LeaseConfig {
            chunk: 16,
            ..cfg()
        });
        let a = t2.add_worker("a");
        t2.on_connected(a, 0);
        assert_eq!(t2.request_lease(a, 0), LeaseGrant::Range { start: 3, end: 5 });
        t2.on_lease_done(a, 1);
        assert_eq!(t2.request_lease(a, 1), LeaseGrant::Range { start: 8, end: 10 });
        t2.on_lease_done(a, 2);
        assert_eq!(t2.request_lease(a, 2), LeaseGrant::Finished);
        // An un-resumed table over the same total serves everything.
        let b = t.add_worker("b");
        t.on_connected(b, 0);
        assert_eq!(t.request_lease(b, 0), LeaseGrant::Range { start: 0, end: 10 });
    }

    #[test]
    fn drain_for_local_claims_everything() {
        let mut t = LeaseTable::new(12, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        t.on_rep_done(a, 0, 1);
        t.mark_dead(a, "gone", 2);
        let ranges = t.drain_for_local();
        let total: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 11, "all reps except the acknowledged one");
        assert_eq!(t.ungranted_reps(), 0);
    }
}
