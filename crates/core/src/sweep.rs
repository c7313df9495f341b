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
//! as the serial loop always has, workers pull indices from a shared
//! counter, and a reorder buffer merges outcomes back in repetition
//! order before any statistic is touched. Any job count therefore
//! produces a [`SweepResult`] identical to the serial sweep's for the
//! same configuration.
//!
//! For huge campaigns, [`SweepRunner::retain_reports`]`(false)` runs each
//! repetition through the stats-only post-step
//! ([`SweepRunner::run_rep_stats`]): no [`RunReport`] is built, and the
//! two swept metrics accumulate in O(1) memory with [`StreamingStats`].
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
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
///     .retain_reports(false) // O(1) memory: streaming statistics only
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
    /// for its stats alone and stream them in O(1) memory — the only way
    /// a million-repetition sweep fits in RAM.
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
        let sweep_id = sweep_span.id();
        let mut collector = Collector::new(self.retain_reports, self.reps);
        let jobs = self.jobs.clamp(1, self.reps as usize);
        flagsim_telemetry::gauge_set("sweep.jobs", jobs as f64);
        if jobs == 1 {
            for rep in 0..self.reps {
                let rep_span =
                    flagsim_telemetry::span_linked("sim", "sweep.rep", sweep_id).arg("rep", rep);
                let outcome = self.run_kept(rep);
                drop(rep_span);
                collector.accept(rep, outcome);
                let mut p = collector.snapshot();
                p.rep = rep;
                self.emit(p);
            }
        } else {
            self.run_parallel(jobs, sweep_id, &mut collector);
        }
        let snap = collector.snapshot();
        flagsim_telemetry::count("sweep.reps_completed", snap.completed);
        flagsim_telemetry::count("sweep.failures", snap.failed);
        drop(sweep_span);
        collector.finish(self.reps)
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
    fn run_kept(&self, rep: u64) -> Result<(RepStats, Option<RunReport>), String> {
        if self.retain_reports {
            let report = self.run_rep(rep)?;
            Ok((report.stats(), Some(report)))
        } else {
            Ok((self.run_rep_stats(rep)?, None))
        }
    }

    /// Fan repetitions across `jobs` scoped worker threads. Workers pull
    /// the next repetition index from a shared atomic counter and push
    /// outcomes into a reorder buffer; outcomes are drained into the
    /// collector strictly in repetition order, so the merged result is
    /// identical to the serial loop's no matter how threads interleave.
    /// The buffer holds at most ~`jobs` outcomes at a time, keeping the
    /// streaming path's memory bounded by the job count, not the
    /// repetition count.
    fn run_parallel(
        &self,
        jobs: usize,
        sweep_id: Option<flagsim_telemetry::SpanId>,
        collector: &mut Collector,
    ) {
        struct Reorder<'c> {
            pending: BTreeMap<u64, Result<(RepStats, Option<RunReport>), String>>,
            next_emit: u64,
            collector: &'c mut Collector,
        }
        let next_rep = AtomicU64::new(0);
        let shared = Mutex::new(Reorder {
            pending: BTreeMap::new(),
            next_emit: 0,
            collector,
        });
        std::thread::scope(|scope| {
            let next_rep = &next_rep;
            let shared = &shared;
            for w in 0..jobs {
                scope.spawn(move || {
                    flagsim_telemetry::set_thread_track(&format!("worker-{w}"));
                    let worker_span =
                        flagsim_telemetry::span_linked("runtime", "sweep.worker", sweep_id)
                            .arg("worker", w);
                    loop {
                        let rep = next_rep.fetch_add(1, Ordering::Relaxed);
                        if rep >= self.reps {
                            break;
                        }
                        let rep_span =
                            flagsim_telemetry::span_linked("sim", "sweep.rep", sweep_id)
                                .arg("rep", rep);
                        let outcome = self.run_kept(rep);
                        drop(rep_span);
                        let snapshot = {
                            let mut guard = shared.lock().expect("no worker panicked mid-merge");
                            let s = &mut *guard;
                            s.pending.insert(rep, outcome);
                            while let Some(ready) = s.pending.remove(&s.next_emit) {
                                s.collector.accept(s.next_emit, ready);
                                s.next_emit += 1;
                            }
                            let mut p = s.collector.snapshot();
                            p.worker = w;
                            p.rep = rep;
                            p
                        };
                        // Callback outside the lock: a slow observer must
                        // not serialize the workers.
                        self.emit(snapshot);
                    }
                    drop(worker_span);
                    flagsim_telemetry::flush_thread();
                });
            }
        });
    }

    fn emit(&self, progress: SweepProgress) {
        if let Some(cb) = &self.progress {
            cb(progress);
        }
    }
}

/// Order-respecting accumulator shared by the serial and parallel
/// paths. In retained mode it rebuilds exactly what the historical
/// serial sweep built; in streaming mode it keeps only the
/// [`StreamingStats`] accumulators.
struct Collector {
    retain: bool,
    reports: Vec<RunReport>,
    completions: Vec<f64>,
    waits: Vec<f64>,
    completion_stream: StreamingStats,
    waiting_stream: StreamingStats,
    failures: Vec<SweepFailure>,
    completed: u64,
    total: u64,
}

impl Collector {
    fn new(retain: bool, total: u64) -> Self {
        Collector {
            retain,
            reports: Vec::new(),
            completions: Vec::new(),
            waits: Vec::new(),
            completion_stream: StreamingStats::new(),
            waiting_stream: StreamingStats::new(),
            failures: Vec::new(),
            completed: 0,
            total,
        }
    }

    /// Fold in one repetition's outcome. Must be called in repetition
    /// order — the reorder buffer guarantees it on the parallel path.
    /// The streaming accumulators run even in retained mode: they are
    /// O(1) per repetition and feed the live `sweep.completion.*`
    /// gauges the dashboard reads mid-sweep.
    fn accept(&mut self, rep: u64, outcome: Result<(RepStats, Option<RunReport>), String>) {
        self.completed += 1;
        match outcome {
            Ok((stats, report)) => {
                let completion = stats.completion_secs;
                let wait = stats.wait_secs;
                self.completion_stream.push(completion);
                self.waiting_stream.push(wait);
                if let Some(report) = report {
                    self.completions.push(completion);
                    self.waits.push(wait);
                    self.reports.push(report);
                }
                if flagsim_telemetry::enabled() {
                    let stats = self.completion_stream.to_stats();
                    flagsim_telemetry::gauge_set("sweep.completion.mean_s", stats.mean);
                    flagsim_telemetry::gauge_set(
                        "sweep.completion.ci95_s",
                        stats.ci95_half_width(),
                    );
                    flagsim_telemetry::observe("sweep.completion_secs", completion);
                }
            }
            Err(error) => {
                flagsim_telemetry::log::warn(
                    "core.sweep",
                    "repetition failed",
                    &[("rep", rep.to_string()), ("error", error.clone())],
                );
                self.failures.push(SweepFailure { rep, error });
            }
        }
    }

    fn snapshot(&self) -> SweepProgress {
        SweepProgress {
            completed: self.completed,
            failed: self.failures.len() as u64,
            total: self.total,
            worker: 0,
            rep: self.completed.saturating_sub(1),
        }
    }

    fn finish(self, reps: u64) -> Result<SweepResult, SweepError> {
        let successes = if self.retain {
            self.completions.len() as u64
        } else {
            self.completion_stream.n()
        };
        if successes == 0 {
            let first = self.failures.into_iter().next().expect("reps > 0");
            return Err(SweepError::AllFailed { reps, first });
        }
        let (completion, waiting) = if self.retain {
            (
                RunStats::from_sample(&self.completions),
                RunStats::from_sample(&self.waits),
            )
        } else {
            (
                self.completion_stream.to_stats(),
                self.waiting_stream.to_stats(),
            )
        };
        Ok(SweepResult {
            completion,
            waiting,
            reports: self.reports,
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
        assert_eq!(streamed.completion.n, retained.completion.n);
        // The streaming mean is bit-identical; stddev/min/max agree to
        // float accuracy (see flagsim_metrics::streaming for the exact
        // contract).
        assert_eq!(streamed.completion.mean, retained.completion.mean);
        assert_eq!(streamed.completion.min, retained.completion.min);
        assert_eq!(streamed.completion.max, retained.completion.max);
        assert!((streamed.completion.stddev - retained.completion.stddev).abs() < 1e-9);
        assert_eq!(streamed.waiting.mean, retained.waiting.mean);
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
}
