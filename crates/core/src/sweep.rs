//! Repeated-run sweeps, serial and parallel.
//!
//! One classroom run is a single noisy sample; every quantitative claim
//! in EXPERIMENTS.md comes from running a scenario across many seeds with
//! fresh teams. This module is that harness, public: give it a scenario
//! and a configuration, get summary statistics and the raw reports.
//!
//! The harness is [`SweepRunner`], which fans repetitions across worker
//! threads (`std::thread::scope` — the workspace is offline, no rayon)
//! while keeping the results *bit-for-bit deterministic*: each
//! repetition derives its seed from `config.seed` and its index exactly
//! as the serial loop always has, and every outcome folds through one
//! [`MergeState`], whose reorder buffer merges outcomes back in
//! repetition order before any statistic is touched. Any job count
//! therefore produces a [`SweepResult`] identical to the serial sweep's
//! for the same configuration.
//!
//! [`MergeState`] is the only merge in the workspace: the shard
//! coordinator folds worker-reported outcomes through it, checkpoints
//! log its merged outcomes and replay them into a fresh one, and
//! [`SweepRunner::run_owed`] — the only in-process executor — runs
//! whatever repetitions a (possibly resumed) merge still owes. Its
//! [`StreamingStats`] accumulators give every sweep the same exact
//! statistics, with or without reports.
//!
//! For huge campaigns, [`SweepRunner::retain_reports`]`(false)` runs each
//! repetition through the stats-only post-step
//! ([`SweepRunner::run_rep_stats`]): no [`RunReport`] is built, and the
//! sweep keeps 16 B per successful repetition (its two swept metrics).
//! A progress callback ([`SweepRunner::on_progress`]) gives
//! observability either way.

use crate::config::{ActivityConfig, TeamKit};
use crate::faults::FaultPlan;
use crate::report::{RepStats, RunReport};
use crate::run::{KitSlots, Ran, RunSpec};
use crate::scenario::{CompiledScenario, Scenario};
use crate::work::PreparedFlag;
use flagsim_agents::StudentProfile;
use flagsim_metrics::{RunStats, StreamingStats};
use flagsim_telemetry::SpanId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// One repetition of a sweep that failed to produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// Repetition index (0-based).
    pub rep: u64,
    /// What went wrong, as reported by the run.
    pub error: String,
}

/// Why a sweep produced no statistics at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Zero repetitions were requested.
    NoRepetitions,
    /// Every repetition failed; the first failure is carried for the
    /// error message.
    AllFailed {
        /// How many repetitions were attempted.
        reps: u64,
        /// The first (lowest-index) failure.
        first: SweepFailure,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NoRepetitions => f.write_str("need at least one repetition"),
            SweepError::AllFailed { reps, first } => write!(
                f,
                "all {reps} repetitions failed; first: rep {}: {}",
                first.rep, first.error
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// The result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Completion-seconds statistics across repetitions.
    pub completion: RunStats,
    /// Total-waiting statistics across repetitions.
    pub waiting: RunStats,
    /// Every successful run, in repetition order. Empty when the sweep
    /// ran with [`SweepRunner::retain_reports`]`(false)` — the
    /// statistics above still cover every successful repetition.
    pub reports: Vec<RunReport>,
    /// Repetitions that failed, in repetition order: a failed run is
    /// recorded and the sweep keeps going, so one bad seed cannot sink a
    /// whole measurement campaign.
    pub failures: Vec<SweepFailure>,
}

impl SweepResult {
    /// The mean completion time in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.completion.mean
    }
}

/// A progress snapshot handed to the [`SweepRunner::on_progress`]
/// callback each time repetitions are merged in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Repetitions finished so far (successes + failures), merged in
    /// repetition order.
    pub completed: u64,
    /// How many of those failed.
    pub failed: u64,
    /// Total repetitions requested.
    pub total: u64,
    /// Index of the worker that finished the repetition triggering this
    /// snapshot (0 on the serial path).
    pub worker: usize,
    /// The repetition that worker just finished (not necessarily the
    /// highest merged index — workers complete out of order).
    pub rep: u64,
}

type ProgressFn<'a> = dyn Fn(SweepProgress) + Send + Sync + 'a;

/// A compiled scenario and the kit resolved against its colors.
type Compiled = (CompiledScenario, Result<KitSlots, String>);

/// The sweep engine: a builder over the scenario, flag, kit and config,
/// plus the fault-plan, parallel, streaming and observability knobs.
///
/// ```no_run
/// # use flagsim_core::sweep::SweepRunner;
/// # use flagsim_core::{ActivityConfig, Scenario, TeamKit};
/// # use flagsim_core::work::PreparedFlag;
/// # use flagsim_agents::ImplementKind;
/// # use flagsim_flags::library;
/// let flag = PreparedFlag::new(&library::mauritius());
/// let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
/// let cfg = ActivityConfig::default();
/// let scenario = Scenario::fig1(4);
/// let result = SweepRunner::new(&scenario, &flag, &kit, &cfg)
///     .team_size(4)
///     .reps(256)
///     .jobs(8)
///     .retain_reports(false) // statistics only: 16 B per rep, no reports
///     .on_progress(|p| eprintln!("{}/{} done", p.completed, p.total))
///     .run()
///     .expect("at least one repetition succeeded");
/// println!("{}", result.completion.display_secs());
/// ```
pub struct SweepRunner<'a> {
    scenario: &'a Scenario,
    flag: &'a PreparedFlag,
    kit: &'a TeamKit,
    config: &'a ActivityConfig,
    team_size: usize,
    warmup: bool,
    reps: u64,
    plan: FaultPlan,
    jobs: usize,
    retain_reports: bool,
    progress: Option<Box<ProgressFn<'a>>>,
    /// The scenario partitioned and verified once, and the kit resolved
    /// against its colors, shared by every rep (and every worker thread —
    /// neither depends on the seed).
    compiled: OnceLock<Result<Compiled, String>>,
}

impl<'a> SweepRunner<'a> {
    /// A runner with the serial defaults: team of
    /// [`Scenario::team_size`], no warm-up, 1 repetition, no faults,
    /// 1 job, reports retained, no progress callback.
    pub fn new(
        scenario: &'a Scenario,
        flag: &'a PreparedFlag,
        kit: &'a TeamKit,
        config: &'a ActivityConfig,
    ) -> Self {
        SweepRunner {
            scenario,
            flag,
            kit,
            config,
            team_size: scenario.team_size(flag, config),
            warmup: false,
            reps: 1,
            plan: FaultPlan::none(),
            jobs: 1,
            retain_reports: true,
            progress: None,
            compiled: OnceLock::new(),
        }
    }

    /// Students per repetition's fresh team.
    pub fn team_size(mut self, n: usize) -> Self {
        self.team_size = n;
        self
    }

    /// Whether each fresh team keeps the warm-up effect.
    pub fn warmup(mut self, warmup: bool) -> Self {
        self.warmup = warmup;
        self
    }

    /// Number of repetitions.
    pub fn reps(mut self, reps: u64) -> Self {
        self.reps = reps;
        self
    }

    /// Fault plan injected into every repetition.
    pub fn plan(mut self, plan: &FaultPlan) -> Self {
        self.plan = plan.clone();
        self
    }

    /// Worker threads to fan repetitions across (values ≤ 1 run the
    /// serial loop; the job count never changes the result, only the
    /// wall-clock time).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Keep every [`RunReport`] (the default), or run each repetition
    /// for its stats alone and keep 16 B of it — the only way a
    /// million-repetition sweep fits in RAM. The statistics are the same
    /// bits either way.
    pub fn retain_reports(mut self, retain: bool) -> Self {
        self.retain_reports = retain;
        self
    }

    /// Observe progress: called after each batch of repetitions merges,
    /// from whichever thread merged it, so the callback must be
    /// `Send + Sync`.
    pub fn on_progress(mut self, f: impl Fn(SweepProgress) + Send + Sync + 'a) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Run the sweep. Errors only when no statistics can be produced at
    /// all: zero repetitions requested, or every repetition failed.
    pub fn run(&self) -> Result<SweepResult, SweepError> {
        if self.reps == 0 {
            return Err(SweepError::NoRepetitions);
        }
        // The sweep span's args hold only values independent of the job
        // count (reps, scenario), and every rep span links to it as its
        // *logical* parent — so the canonical span tree is identical at
        // any `--jobs`, which prop_telemetry asserts. Job count and
        // thread placement are runtime detail: a gauge and the worker
        // spans' `"runtime"` category.
        let sweep_span = flagsim_telemetry::span("sim", "sweep")
            .arg("scenario", &self.scenario.name)
            .arg("reps", self.reps);
        let mut merge = MergeState::new(self.reps);
        if self.retain_reports {
            merge.reports = Some((0..self.reps).map(|_| None).collect());
        }
        self.drive(&mut merge, |_| true, sweep_span.id());
        drop(sweep_span);
        merge.finish()
    }

    /// One repetition's full report: fresh team, derived seed — the
    /// exact recipe the serial sweep has always used, so seeds are
    /// independent of the job count. The report carries trace events
    /// only when reports are retained and the configuration records
    /// them.
    pub fn run_rep(&self, rep: u64) -> Result<RunReport, String> {
        let (spec, ran, cfg) = self.simulate_rep(rep, self.retain_reports)?;
        spec.report(ran, &cfg, &self.plan).into_report()
    }

    /// One repetition's stats alone: the same run as
    /// [`SweepRunner::run_rep`], with completion, waiting and `correct`
    /// bit-identical to its report's, but no report built. Streaming
    /// sweeps and out-of-process executors (the `flagsim-shard` worker)
    /// run this, which keeps distributed sweeps bit-for-bit equal to
    /// serial ones.
    pub fn run_rep_stats(&self, rep: u64) -> Result<RepStats, String> {
        let (spec, ran, cfg) = self.simulate_rep(rep, false)?;
        spec.stats(ran, &cfg, &self.plan)
    }

    /// The run body both outcomes of rep `rep` share. Trace events are
    /// recorded only when `keep_events` and the configuration ask for
    /// them; accounting is bit-identical with the sink off.
    fn simulate_rep(
        &self,
        rep: u64,
        keep_events: bool,
    ) -> Result<(RunSpec<'_>, Ran, ActivityConfig), String> {
        let (compiled, kit) = self
            .compiled
            .get_or_init(|| {
                let compiled = self.scenario.compile(self.flag, self.config)?;
                let kit = compiled.resolve_kit(self.kit);
                Ok((compiled, kit))
            })
            .as_ref()
            .map_err(Clone::clone)?;
        compiled.check_team(self.team_size)?;
        // The compiled scenario names the students, so each fresh profile
        // carries only the cost model's state; students past the parts
        // would sit out, so none are built.
        let student = StudentProfile::new(String::new());
        let student = if self.warmup {
            student
        } else {
            student.without_warmup()
        };
        let mut team = vec![student; compiled.parts()];
        let cfg = ActivityConfig {
            seed: self.config.seed.wrapping_add(rep.wrapping_mul(0x9E37_79B9)),
            trace_events: keep_events && self.config.trace_events,
            ..self.config.clone()
        };
        let spec = compiled.spec(kit, compiled.names());
        let ran = spec.simulate(&mut team, &cfg, &self.plan, None)?;
        Ok((spec, ran, cfg))
    }

    /// One repetition in the outcome the sweep keeps: the report with
    /// its stats when reports are retained, the stats alone otherwise.
    fn run_kept(&self, rep: u64) -> Kept {
        if self.retain_reports {
            let report = self.run_rep(rep)?;
            Ok((report.stats(), Some(report)))
        } else {
            Ok((self.run_rep_stats(rep)?, None))
        }
    }

    /// Run every repetition `merge` still owes (its
    /// [`MergeState::missing_ranges`]) on the runner's
    /// [`jobs`](SweepRunner::jobs) — scoped threads, or the calling
    /// thread at one job — and fold each outcome into `merge`. This is
    /// the only in-process executor: [`SweepRunner::run`] is a fresh
    /// merge driven to completion, and the shard coordinator drives a
    /// resumed or degraded campaign's merge through it.
    ///
    /// Before each claim — so after each fold — `keep_going` sees the
    /// merge under its lock and decides whether to hand out another
    /// repetition: the place for checkpoint cadence, a halt or a
    /// deadline. Once it says no, workers fold the repetition in hand
    /// and stop; the call returns when none is left running.
    pub fn run_owed(
        &self,
        merge: &mut MergeState,
        keep_going: impl FnMut(&MergeState) -> bool + Send,
    ) {
        self.drive(merge, keep_going, None);
    }

    /// [`SweepRunner::run_owed`], with rep and worker spans linked to
    /// the sweep span `sweep_id` when there is one.
    fn drive(
        &self,
        merge: &mut MergeState,
        keep_going: impl FnMut(&MergeState) -> bool + Send,
        sweep_id: Option<SpanId>,
    ) {
        let ranges = VecDeque::from(merge.missing_ranges());
        let owed: u64 = ranges.iter().map(|(start, end)| end - start).sum();
        let jobs = self.jobs.clamp(1, owed.max(1) as usize);
        flagsim_telemetry::gauge_set("sweep.jobs", jobs as f64);
        let owed = Mutex::new(Owed {
            merge,
            keep_going,
            ranges,
        });
        if jobs == 1 {
            self.work(0, &owed, sweep_id);
            return;
        }
        std::thread::scope(|scope| {
            let owed = &owed;
            for w in 0..jobs {
                scope.spawn(move || {
                    flagsim_telemetry::set_thread_track(&format!("worker-{w}"));
                    let worker_span = sweep_id.map(|id| {
                        flagsim_telemetry::span_linked("runtime", "sweep.worker", Some(id))
                            .arg("worker", w)
                    });
                    self.work(w, owed, sweep_id);
                    drop(worker_span);
                    flagsim_telemetry::flush_thread();
                });
            }
        });
    }

    /// One worker's loop: under the lock, fold the repetition just run
    /// and claim the next; run it outside the lock. Progress is
    /// reported outside the lock too, so a slow observer cannot
    /// serialize the workers.
    fn work<K>(&self, worker: usize, owed: &Mutex<Owed<'_, K>>, sweep_id: Option<SpanId>)
    where
        K: FnMut(&MergeState) -> bool,
    {
        let mut finished: Option<(u64, Kept)> = None;
        loop {
            let (progress, next) = {
                let mut owed = owed.lock().expect("no worker panicked mid-merge");
                let progress = finished.take().map(|(rep, outcome)| {
                    let merge = &mut *owed.merge;
                    merge.fold(rep, outcome);
                    SweepProgress {
                        completed: merge.next_emit,
                        failed: merge.failures.len() as u64,
                        total: merge.total,
                        worker,
                        rep,
                    }
                });
                (progress, owed.claim())
            };
            if let Some(p) = progress {
                self.emit(p);
            }
            let Some(rep) = next else { return };
            let rep_span = sweep_id.map(|id| {
                flagsim_telemetry::span_linked("sim", "sweep.rep", Some(id)).arg("rep", rep)
            });
            let outcome = self.run_kept(rep);
            drop(rep_span);
            finished = Some((rep, outcome));
        }
    }

    fn emit(&self, progress: SweepProgress) {
        if let Some(cb) = &self.progress {
            cb(progress);
        }
    }
}

/// What a worker hands the merge: the rep's stats and, in a retained
/// sweep, its report — or the run's error.
type Kept = Result<(RepStats, Option<RunReport>), String>;

/// The state the executor's workers share under one lock: the merge,
/// the caller's stop hook, and the repetitions not yet claimed.
struct Owed<'m, K> {
    merge: &'m mut MergeState,
    keep_going: K,
    ranges: VecDeque<(u64, u64)>,
}

impl<K: FnMut(&MergeState) -> bool> Owed<'_, K> {
    /// Ask the hook, then hand out the next owed repetition, if any.
    fn claim(&mut self) -> Option<u64> {
        if !(self.keep_going)(self.merge) {
            return None;
        }
        let range = self.ranges.front_mut()?;
        let rep = range.0;
        range.0 += 1;
        if range.0 == range.1 {
            self.ranges.pop_front();
        }
        Some(rep)
    }
}

/// One repetition's outcome, reduced to what the statistics need — what
/// a shard worker reports over the wire and a checkpoint logs.
#[derive(Debug, Clone, PartialEq)]
pub enum RepOutcome {
    /// The run succeeded; the two swept metrics, bit-exact.
    Ok {
        /// Completion time in seconds.
        completion: f64,
        /// Total waiting time in seconds.
        waiting: f64,
    },
    /// The run failed (recorded, not fatal).
    Failed {
        /// The error string the run reported.
        error: String,
    },
}

/// The outcome of a stats-only rep ([`SweepRunner::run_rep_stats`]).
impl From<Result<RepStats, String>> for RepOutcome {
    fn from(stats: Result<RepStats, String>) -> RepOutcome {
        match stats {
            Ok(s) => RepOutcome::Ok {
                completion: s.completion_secs,
                waiting: s.wait_secs,
            },
            Err(error) => RepOutcome::Failed { error },
        }
    }
}

/// The one merge: an order-restoring accumulator over per-rep outcomes.
///
/// Outcomes arrive keyed by repetition index, in whatever order threads
/// or remote workers finish them, park in a reorder buffer, and fold
/// into the accumulators strictly in repetition order.
/// [`StreamingStats`] is order-sensitive (its exact sum and Welford
/// recurrence round differently under reordering), so this is what
/// makes the statistics bit-for-bit those of a serial sweep at any
/// thread or worker count, with any failure, reassignment or resume
/// history. Duplicate deliveries (a rep re-run because its first worker
/// died after reporting it) are dropped: merging is idempotent per
/// repetition index.
///
/// A merge keeps no log of its own: [`MergeState::merged_outcomes`]
/// reads the merged outcomes back off the accumulators' samples and the
/// failure list, and accepting them in order into a
/// [`MergeState::new`] rebuilds the merge bit for bit — which is how a
/// checkpoint resumes.
///
/// Each merged success feeds the live `sweep.completion.*` gauges the
/// dashboard reads; each merged failure logs a `core.sweep` warning.
#[derive(Debug, Clone)]
pub struct MergeState {
    total: u64,
    next_emit: u64,
    pending: BTreeMap<u64, RepOutcome>,
    completion: StreamingStats,
    waiting: StreamingStats,
    failures: Vec<SweepFailure>,
    /// A retained sweep's reports, one slot per repetition. A retained
    /// sweep holds O(reps) reports anyway, so slots indexed by rep put
    /// them back in order without a second reorder buffer.
    reports: Option<Vec<Option<RunReport>>>,
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
            reports: None,
        }
    }

    /// Fold in one repetition's outcome. Outcomes for already-merged or
    /// already-buffered reps are ignored (idempotent).
    pub fn accept(&mut self, rep: u64, outcome: RepOutcome) {
        if rep < self.next_emit || rep >= self.total {
            return;
        }
        if rep > self.next_emit {
            self.pending.entry(rep).or_insert(outcome);
            return;
        }
        self.merge_next(outcome);
        while let Some(ready) = self.pending.remove(&self.next_emit) {
            self.merge_next(ready);
        }
    }

    /// Fold what a local worker kept: the report into its slot (in a
    /// retained sweep), the stats or the error into the merge.
    fn fold(&mut self, rep: u64, kept: Kept) {
        let stats = kept.map(|(stats, report)| {
            let slot = self
                .reports
                .as_mut()
                .and_then(|slots| slots.get_mut(rep as usize));
            if let (Some(slot), Some(report)) = (slot, report) {
                *slot = Some(report);
            }
            stats
        });
        self.accept(rep, stats.into());
    }

    fn merge_next(&mut self, outcome: RepOutcome) {
        match outcome {
            RepOutcome::Ok {
                completion,
                waiting,
            } => {
                self.completion.push(completion);
                self.waiting.push(waiting);
                if flagsim_telemetry::enabled() {
                    // O(1) per rep: the running moments, never the
                    // sample (`to_stats` would sort it for the median).
                    let c = &self.completion;
                    let n = c.n() as f64;
                    let ci95 = if n < 2.0 { 0.0 } else { 1.96 * c.stddev() / n.sqrt() };
                    flagsim_telemetry::gauge_set("sweep.completion.mean_s", c.mean());
                    flagsim_telemetry::gauge_set("sweep.completion.ci95_s", ci95);
                    flagsim_telemetry::observe("sweep.completion_secs", completion);
                }
            }
            RepOutcome::Failed { error } => {
                flagsim_telemetry::log::warn(
                    "core.sweep",
                    "repetition failed",
                    &[
                        ("rep", self.next_emit.to_string()),
                        ("error", error.clone()),
                    ],
                );
                self.failures.push(SweepFailure {
                    rep: self.next_emit,
                    error,
                });
            }
        }
        self.next_emit += 1;
    }

    /// Repetitions merged so far — the checkpoint watermark: every rep
    /// below it is folded into the accumulators, every rep at or above
    /// it is either buffered behind a gap or still owed.
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

    /// The repetition indices in `[merged(), total())` that are *not*
    /// sitting in the reorder buffer — the work a resumed campaign still
    /// owes. Returned as maximal contiguous ranges.
    pub fn missing_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = self.next_emit;
        for &rep in self.pending.keys() {
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

    /// The merged outcomes of reps `from..merged()`, in rep order —
    /// what a checkpoint logs. Read back off the accumulators' samples
    /// (the i-th success is the i-th observation) and the failure list,
    /// so the merge keeps no second copy.
    pub fn merged_outcomes(&self, from: u64) -> impl Iterator<Item = (u64, RepOutcome)> + '_ {
        let mut failed = self.failures.partition_point(|f| f.rep < from);
        let mut ok = from.min(self.next_emit) as usize - failed;
        (from..self.next_emit).map(move |rep| match self.failures.get(failed) {
            Some(f) if f.rep == rep => {
                failed += 1;
                (rep, RepOutcome::Failed { error: f.error.clone() })
            }
            _ => {
                ok += 1;
                let (c, w) = (self.completion.sample(), self.waiting.sample());
                (rep, RepOutcome::Ok { completion: c[ok - 1], waiting: w[ok - 1] })
            }
        })
    }

    /// Recorded per-rep failures, in repetition order.
    pub fn failures(&self) -> &[SweepFailure] {
        &self.failures
    }

    /// Freeze into the sweep's result: the accumulators' statistics, and
    /// a retained sweep's reports in repetition order. Errors when no
    /// repetition succeeded.
    pub fn finish(self) -> Result<SweepResult, SweepError> {
        flagsim_telemetry::count("sweep.reps_completed", self.next_emit);
        flagsim_telemetry::count("sweep.failures", self.failures.len() as u64);
        if self.completion.n() == 0 {
            return Err(match self.failures.into_iter().next() {
                Some(first) => SweepError::AllFailed {
                    reps: self.total,
                    first,
                },
                None => SweepError::NoRepetitions,
            });
        }
        Ok(SweepResult {
            completion: self.completion.to_stats(),
            waiting: self.waiting.to_stats(),
            reports: self.reports.into_iter().flatten().flatten().collect(),
            failures: self.failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_agents::ImplementKind;
    use flagsim_flags::library;
    use flagsim_metrics::clearly_different;

    fn mauritius_setup() -> (PreparedFlag, TeamKit) {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        (flag, kit)
    }

    /// Sweep Fig. 1 scenario `n` on Mauritius with `team` students,
    /// `reps` repetitions and `jobs` threads under `plan`, reports kept.
    fn fig1_sweep(
        n: u8,
        cfg: &ActivityConfig,
        team: usize,
        reps: u64,
        plan: &FaultPlan,
        jobs: usize,
    ) -> Result<SweepResult, SweepError> {
        let (flag, kit) = mauritius_setup();
        let scenario = Scenario::fig1(n);
        let runner = SweepRunner::new(&scenario, &flag, &kit, cfg)
            .team_size(team)
            .reps(reps)
            .plan(plan)
            .jobs(jobs);
        runner.run()
    }

    #[test]
    fn sweep_statistics_separate_scenarios() {
        let cfg = ActivityConfig::default();
        let none = FaultPlan::none();
        let s1 = fig1_sweep(1, &cfg, 1, 16, &none, 1).unwrap();
        let s3 = fig1_sweep(3, &cfg, 4, 16, &none, 1).unwrap();
        assert_eq!(s1.reports.len(), 16);
        assert!(s1.mean_secs() > s3.mean_secs());
        assert!(clearly_different(&s1.completion, &s3.completion));
        assert_eq!(s3.waiting.max, 0.0, "stripes never contend");
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = ActivityConfig::default().with_seed(9);
        let a = fig1_sweep(4, &cfg, 4, 8, &FaultPlan::none(), 1).unwrap();
        let b = fig1_sweep(4, &cfg, 4, 8, &FaultPlan::none(), 1).unwrap();
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.waiting, b.waiting);
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        // Acceptance: a parallel sweep produces RunStats equal to the
        // serial sweep for the same seed.
        let cfg = ActivityConfig::default().with_seed(41);
        let plan = FaultPlan::none();
        let serial = fig1_sweep(4, &cfg, 4, 24, &plan, 1).unwrap();
        for jobs in [2, 4, 7] {
            let par = fig1_sweep(4, &cfg, 4, 24, &plan, jobs).unwrap();
            assert_eq!(par.completion, serial.completion, "jobs={jobs}");
            assert_eq!(par.waiting, serial.waiting, "jobs={jobs}");
            assert_eq!(par.reports.len(), serial.reports.len());
            // Reports come back in repetition order: completion times
            // line up pairwise, not just in aggregate.
            for (a, b) in par.reports.iter().zip(&serial.reports) {
                assert_eq!(a.completion_secs(), b.completion_secs());
            }
        }
    }

    #[test]
    fn streaming_sweep_matches_retained_statistics() {
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(5);
        let scenario = Scenario::fig1(4);
        let retained = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(32)
            .jobs(4)
            .run()
            .unwrap();
        let streamed = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(32)
            .jobs(4)
            .retain_reports(false)
            .run()
            .unwrap();
        assert!(streamed.reports.is_empty(), "streaming keeps no reports");
        // One accumulator on both paths: every field, every bit.
        assert_eq!(streamed.completion, retained.completion);
        assert_eq!(streamed.waiting, retained.waiting);
        // And the median is the exact one over the retained reports.
        let completions: Vec<f64> = retained.reports.iter().map(|r| r.completion_secs()).collect();
        let exact = RunStats::from_sample(&completions);
        assert_eq!(streamed.completion.median.to_bits(), exact.median.to_bits());
        assert_eq!(streamed.completion.mean.to_bits(), exact.mean.to_bits());
    }

    #[test]
    fn progress_callback_sees_every_repetition() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(3);
        let scenario = Scenario::fig1(3);
        let peak = AtomicU64::new(0);
        let calls = AtomicU64::new(0);
        let result = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(12)
            .jobs(3)
            .on_progress(|p| {
                assert_eq!(p.total, 12);
                assert_eq!(p.failed, 0);
                peak.fetch_max(p.completed, Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            })
            .run()
            .unwrap();
        assert_eq!(result.reports.len(), 12);
        assert_eq!(peak.load(Ordering::Relaxed), 12, "final progress is total");
        assert!(calls.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn faulted_sweep_completes_all_32_seeds() {
        // Acceptance: a 32-seed sweep with a break-one-implement fault
        // plan completes every run with a ResilienceReport and zero
        // panics or lost repetitions.
        use flagsim_grid::Color;
        let cfg = ActivityConfig::default().with_seed(7);
        let plan = FaultPlan::new("break one implement").break_implement(Color::Blue, 15.0);
        let result =
            fig1_sweep(4, &cfg, 4, 32, &plan, 1).expect("faulted sweep must produce statistics");
        assert_eq!(result.reports.len(), 32);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        for r in &result.reports {
            let res = r.resilience.as_ref().expect("every run carries a report");
            assert_eq!(res.faults_planned, 1);
            assert!(!res.aborted);
            assert!(r.correct, "spare swap should always finish the flag");
        }
        // The fault actually bit in every run (blue is always used after 15s).
        assert!(result
            .reports
            .iter()
            .all(|r| !r.resilience.as_ref().unwrap().incidents.is_empty()));
    }

    #[test]
    fn faulted_parallel_sweep_loses_no_repetitions() {
        // Acceptance: the fault drill through the parallel path keeps
        // every repetition and matches the serial fault drill exactly.
        use flagsim_grid::Color;
        let cfg = ActivityConfig::default().with_seed(7);
        let plan = FaultPlan::new("break one implement").break_implement(Color::Blue, 15.0);
        let serial = fig1_sweep(4, &cfg, 4, 32, &plan, 1).unwrap();
        let par = fig1_sweep(4, &cfg, 4, 32, &plan, 4).unwrap();
        assert_eq!(par.reports.len(), 32, "no repetition lost");
        assert!(par.failures.is_empty(), "{:?}", par.failures);
        assert_eq!(par.completion, serial.completion);
        assert_eq!(par.waiting, serial.waiting);
        assert!(par
            .reports
            .iter()
            .all(|r| !r.resilience.as_ref().unwrap().incidents.is_empty()));
    }

    #[test]
    fn zero_reps_is_an_error() {
        let cfg = ActivityConfig::default();
        let err = fig1_sweep(1, &cfg, 1, 0, &FaultPlan::none(), 1).unwrap_err();
        assert!(err.to_string().contains("at least one repetition"));
    }

    #[test]
    fn all_failed_sweep_reports_the_first_failure() {
        // A team of 1 can never staff scenario 3's four stripes, so every
        // repetition fails.
        let cfg = ActivityConfig::default();
        let err = fig1_sweep(3, &cfg, 1, 4, &FaultPlan::none(), 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("all 4 repetitions failed"), "{err}");
        assert!(err.contains("rep 0"), "{err}");
    }

    #[test]
    fn run_owed_finishes_a_partly_merged_sweep_and_stops_on_request() {
        let (flag, kit) = mauritius_setup();
        let cfg = ActivityConfig::default().with_seed(23);
        let scenario = Scenario::fig1(4);
        for jobs in [1, 3] {
            let runner = SweepRunner::new(&scenario, &flag, &kit, &cfg)
                .team_size(4)
                .reps(12)
                .jobs(jobs)
                .retain_reports(false);
            let whole = runner.run().unwrap();
            // Hand out five reps, then resume the same merge. (Stopping
            // on `merged() < 5` instead lets a slow rep 0 hold the
            // watermark while the other workers claim everything.)
            let mut merge = MergeState::new(12);
            let mut claims = 0;
            runner.run_owed(&mut merge, |_| {
                claims += 1;
                claims <= 5
            });
            assert_eq!(merge.merged(), 5, "jobs={jobs}");
            runner.run_owed(&mut merge, |_| true);
            let resumed = merge.finish().unwrap();
            assert_eq!(resumed.completion, whole.completion, "jobs={jobs}");
            assert_eq!(resumed.waiting, whole.waiting, "jobs={jobs}");
        }
    }

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
        let a = serial.finish().unwrap().completion;
        let b = scrambled.finish().unwrap().completion;
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
        let stats = m.finish().unwrap().completion;
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
    }

    #[test]
    fn failures_record_without_sinking_stats() {
        let mut m = MergeState::new(3);
        m.accept(0, ok(1.0));
        m.accept(1, RepOutcome::Failed { error: "rope snapped".into() });
        m.accept(2, ok(2.0));
        assert_eq!(m.failures().len(), 1);
        assert_eq!(m.failures()[0].rep, 1);
        let result = m.finish().unwrap();
        assert_eq!(result.completion.n, 2);
        assert_eq!(result.failures.len(), 1);
    }

    #[test]
    fn all_failed_is_an_error() {
        let mut m = MergeState::new(2);
        m.accept(0, RepOutcome::Failed { error: "a".into() });
        m.accept(1, RepOutcome::Failed { error: "b".into() });
        let err = m.finish().unwrap_err().to_string();
        assert!(err.contains("all 2 repetitions failed"), "{err}");
        assert!(err.contains("rep 0"), "{err}");
    }

    #[test]
    fn replaying_merged_outcomes_rebuilds_the_merge() {
        let outcome = |i: u64| match i {
            3 | 7 => RepOutcome::Failed { error: format!("rep {i} broke") },
            _ => ok((i as f64 * 0.37).sin() + 2.0),
        };
        let mut whole = MergeState::new(10);
        for i in 0..10 {
            whole.accept(i, outcome(i));
        }
        // Stop at watermark 5 with 8 buffered behind the gap; replay what
        // merged, re-run the rest (the buffered rep included).
        let mut head = MergeState::new(10);
        for i in [0, 1, 2, 3, 4, 8] {
            head.accept(i, outcome(i));
        }
        assert_eq!(head.merged(), 5);
        let logged: Vec<_> = head.merged_outcomes(0).collect();
        assert_eq!(logged, (0..5).map(|i| (i, outcome(i))).collect::<Vec<_>>());
        assert_eq!(head.merged_outcomes(4).collect::<Vec<_>>(), vec![(4, outcome(4))]);
        assert_eq!(head.merged_outcomes(5).count(), 0);
        let mut resumed = MergeState::new(10);
        for (rep, o) in logged {
            resumed.accept(rep, o);
        }
        assert_eq!(resumed.missing_ranges(), vec![(5, 10)]);
        for i in 5..10 {
            resumed.accept(i, outcome(i));
        }
        assert_eq!(
            resumed.merged_outcomes(0).collect::<Vec<_>>(),
            whole.merged_outcomes(0).collect::<Vec<_>>()
        );
        let (a, b) = (resumed.finish().unwrap(), whole.finish().unwrap());
        for (x, y) in [(a.completion, b.completion), (a.waiting, b.waiting)] {
            assert_eq!(x.n, y.n);
            for (u, v) in [(x.mean, y.mean), (x.stddev, y.stddev), (x.median, y.median)] {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        assert_eq!(a.failures, b.failures);
    }
}
