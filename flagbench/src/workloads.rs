//! The four workloads, their inputs, their output checks, and their timed
//! (untraced) runs.
//!
//! # Why each workload exists
//!
//! * `sweep-stream` — a Fig. 1 scenario-4 (fourslice) streaming sweep on
//!   Mauritius: thick markers, team 4, `retain_reports(false)`, one
//!   thread. Per-rep machinery is almost all the work; set-up is under
//!   0.1%. Building a full `RunReport` that is dropped at once is waste
//!   here, so a stats-only rep outcome should raise `reps_per_s` on this
//!   workload.
//! * `lesson` — what an instructor runs: the six built-in scenarios on
//!   three library flags of different size and colour count (Mauritius,
//!   Great Britain, Canada), each one static preflight, one compile and
//!   one CLI-default retained sweep (32 reps, trace events on). Set-up is
//!   a visible share of the time, reports and traces are kept, and grid
//!   sizes vary, so work moved into set-up shows here. It bypasses the
//!   streaming path: a stats-only outcome should leave `reps_per_s` here
//!   unchanged.
//! * `verify` — `simcheck::explore_activity` over the six built-ins on
//!   Mauritius for a set of seeds. Most of the work is the two flow shops
//!   (fourslice runs 44 schedules). It exercises the engine's schedule
//!   hook, `run_scheduled`, fingerprints and the partial-order-reduction
//!   bookkeeping, and never touches the stats merge or the wire: the
//!   bypass for a shard-protocol change, the mechanism for verify
//!   counters.
//! * `sweep-shard` — the `sweep-stream` job sent through
//!   `shard::run_sweep` to one in-process `shard::serve` worker over
//!   127.0.0.1 (one coordinator thread, one worker thread, one loopback
//!   connection). About half of a sharded rep's host time is wire, lease
//!   and merge: the mechanism for a shard-protocol change, with
//!   `sweep-stream` as its bypass. Checkpointing stays off, because
//!   `Checkpoint::save` fsyncs and fsync time on a shared VM measures the
//!   disk.
//!
//! Left out on purpose: the `--jobs 2` threaded sweep (its best trial
//! spread 17% across runs on two vCPUs) and disk-backed checkpoint runs.
//!
//! # How a run is timed, and why
//!
//! Each workload runs as many equal trials of tens of milliseconds as fit
//! in `--seconds`, on one thread (`sweep-shard` adds its worker thread),
//! and a run reports its *fastest* trial and its fastest set-up. On the
//! shared two-vCPU VM this was built on, the noise comes from the VM
//! host, not from the guest's run queue: schedstat run-queue wait and
//! steal time stayed about 0 while the same trial's time swung by up to
//! 2x, in phases lasting seconds to minutes, and a fixed ALU loop slowed
//! far less than a sort-and-B-tree loop, which points at memory-system
//! contention from other tenants. Host noise only ever slows a trial, so
//! the fastest trial is the steadier figure. An earlier design moved 11%
//! on `reps_per_s`, 12% on CPU time per op and 18% on set-up between two
//! sets of runs of identical code, because it reported the median of its
//! trials, timed a single sub-millisecond set-up, and took p50/p99
//! latencies over about ten verdicts; a batch simulator is better
//! described by work completed per second at a stated input size.
//!
//! Ten 25 s runs per workload (seeds 101–110, two-vCPU Xeon VM): the
//! per-run value of the fastest vs the median trial, as range and as
//! interquartile range over median across the ten runs.
//!
//! | workload       | metric           | fastest trial          | median trial         |
//! |----------------|------------------|------------------------|----------------------|
//! | `sweep-stream` | `reps_per_s`     | 69.3k–81.9k (10%)      | 44.3k–61.4k (20%)    |
//! | `sweep-stream` | `setup_s`        | 46.6–53.2 µs (5%)      | 77.9–100 µs (14%)    |
//! | `lesson`       | `reps_per_s`     | 29.6k–35.3k (13%)      | 19.9k–29.5k (22%)    |
//! | `lesson`       | `setup_s`        | 3.53–4.21 ms (13%)     | 4.20–6.15 ms (23%)   |
//! | `verify`       | `verdicts_per_s` | 1.97k–2.39k (7%)       | 1.28k–2.00k (34%)    |
//! | `verify`       | `setup_s`        | 316–367 µs (9%)        | 418–662 µs (28%)     |
//! | `sweep-shard`  | `reps_per_s`     | 34.7k–52.7k (26%)      | 23.3k–35.8k (17%)    |
//! | `sweep-shard`  | `setup_s`        | 5.19–5.25 ms (0.7%)    | 5.29–5.34 ms (0.7%)  |
//!
//! At the committed run length of 35 s, three sets of ten runs per gated
//! workload (seeds 201–210, 301–310 and 401–410) gave fastest-trial
//! spreads on the rates of 6%, 13% and 6% (`sweep-stream`), 7%, 11% and
//! 9% (`lesson`) and 8%, 7% and 8% (`verify`), with the sets' medians
//! within 5% of each other. The wider sets hold one or two runs spent
//! wholly inside a slow host phase, which no estimator taken from
//! wall-clock time removes.
//!
//! `sweep-shard` is not among the gated workloads in `BENCHMARK.json`:
//! its 26% spread is above the largest bound a metric may have (25%). Its
//! coordinator and worker threads hand off about 500 leases a trial over
//! loopback, so each trial also times how promptly both threads get a
//! vCPU on a host shared with other tenants. `--workload sweep-shard`
//! still runs, and every traced run measures the shard layer. Its set-up
//! is about 5 ms because the coordinator's supervisor polls every 5 ms.
//!
//! # Output checks
//!
//! Every trial is checked: retained reports are all correct, statistics
//! are compared bit for bit with a reference computed outside the timed
//! trials (a retained sweep for a streaming one and vice versa, the
//! in-process streaming sweep for the sharded one), and verify verdicts
//! match the known facts (1–3 and pipelined invariant, fourslice and
//! alternating divergent, never truncated) and the reference counts.
//!
//! The pipelined fact does not hold on every seed: on Mauritius,
//! `flagsim verify pipelined` finds two outcome classes on about 1 seed
//! in 2500 (24 of 60000 scanned; for example seed 13992283459596430383,
//! which `--seed 404` derives), against the invariance on any seed that
//! simcheck's own property test asserts from 16 cases. The check stays as
//! stated, so a run whose seeds include such a seed reports failed
//! operations until the model or the claim is fixed.

use crate::report::{Checks, Samples};
use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::faults::FaultPlan;
use flagsim_core::report::RunReport;
use flagsim_core::scenario::{CompiledScenario, Scenario};
use flagsim_core::sweep::{SweepResult, SweepRunner};
use flagsim_core::work::PreparedFlag;
use flagsim_flags::{library, FlagSpec};
use flagsim_metrics::{RunStats, StreamingStats};
use flagsim_shard::{run_sweep, serve, CoordinatorConfig, JobSpec, ShardOutcome, WorkerOptions};
use flagsim_simcheck::{explore_activity, static_report, CheckTarget, Exploration, ExploreConfig};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Repetitions in one `sweep-stream` / `sweep-shard` trial (≈50 ms
/// in-process).
pub const STREAM_REPS: u64 = 4000;
/// Repetitions of each `lesson` sweep: the CLI default.
pub const LESSON_REPS: u64 = 32;
/// Seeds explored per `verify` trial (six verdicts each).
pub const VERIFY_SEEDS: u64 = 4;
/// Team size of the fourslice sweeps.
pub const STREAM_TEAM: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming fourslice sweep.
    SweepStream,
    /// Eighteen CLI-default retained sweeps with preflight.
    Lesson,
    /// Schedule-space verdicts.
    Verify,
    /// The streaming sweep through one loopback shard worker.
    SweepShard,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepStream,
        Workload::Lesson,
        Workload::Verify,
        Workload::SweepShard,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepStream => "sweep-stream",
            Workload::Lesson => "lesson",
            Workload::Verify => "verify",
            Workload::SweepShard => "sweep-shard",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One of the six built-in scenarios of `flagsim run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// Fig. 1 scenarios 1–4.
    Fig1(u8),
    /// Four slices, four bands, pipelined.
    Pipelined,
    /// Alternating slices.
    Alternating,
}

impl Builtin {
    /// The six built-ins.
    pub const ALL: [Builtin; 6] = [
        Builtin::Fig1(1),
        Builtin::Fig1(2),
        Builtin::Fig1(3),
        Builtin::Fig1(4),
        Builtin::Pipelined,
        Builtin::Alternating,
    ];

    /// Build the scenario as `flagsim run` does.
    pub fn build(self, flag: &PreparedFlag) -> Scenario {
        match self {
            Builtin::Fig1(n) => Scenario::fig1(n),
            Builtin::Pipelined => Scenario::pipelined_slices(flag, 4, 4),
            Builtin::Alternating => Scenario::alternating_slices(),
        }
    }

    /// The known verify verdict: does every schedule give one outcome?
    /// Scenarios 1–3 and pipelined are invariant; fourslice and
    /// alternating share markers in a way whose acquire order matters.
    pub fn invariant(self) -> bool {
        !matches!(self, Builtin::Fig1(4) | Builtin::Alternating)
    }
}

/// The three lesson flags: different sizes and colour counts.
pub fn lesson_flags() -> [FlagSpec; 3] {
    [
        library::mauritius(),
        library::great_britain(),
        library::canada(),
    ]
}

/// SplitMix64: the `i`-th input seed derived from the `--seed` argument.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one set-up.
#[derive(Debug, Clone)]
pub struct Input {
    /// The flag.
    pub spec: FlagSpec,
    /// The scenario.
    pub which: Builtin,
    /// The activity seed.
    pub seed: u64,
    /// Students per rep; `None` takes the CLI default.
    pub team: Option<usize>,
}

/// Everything one sweep or exploration needs, made by [`set_up`].
pub struct Prepared {
    /// The flag's spec.
    pub spec: FlagSpec,
    /// The rasterized flag.
    pub flag: PreparedFlag,
    /// The scenario.
    pub scenario: Scenario,
    /// Thick markers, one per colour.
    pub kit: TeamKit,
    /// Configuration carrying the seed.
    pub cfg: ActivityConfig,
    /// Students per rep.
    pub team: usize,
    /// The scenario partitioned and verified.
    pub compiled: CompiledScenario,
}

/// Runs each step of a set-up; the traced run wraps each in a span.
pub trait Steps {
    /// Run `f`, the call into `layer`.
    fn step<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T;
}

/// [`Steps`] that just runs each step.
pub struct Untraced;

impl Steps for Untraced {
    fn step<T>(&mut self, _layer: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The one-time work before the first rep: `PreparedFlag::new`, the
/// static preflight `flagsim sweep` runs (error-level findings fail it),
/// and `Scenario::compile`. `team` of `None` takes the CLI default.
pub fn set_up(input: &Input, steps: &mut impl Steps) -> Result<Prepared, String> {
    let Input {
        spec,
        which,
        seed,
        team,
    } = input;
    let flag = steps.step("flags.prepare", || PreparedFlag::new(spec));
    let scenario = which.build(&flag);
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(*seed);
    let team = team.unwrap_or_else(|| scenario.team_size(&flag, &cfg));
    let errors = steps.step("simcheck.static_report", || {
        static_report(&CheckTarget {
            spec,
            flag: &flag,
            scenario: &scenario,
            kit: &kit,
            team_size: team + 1,
            config: &cfg,
            plan: &FaultPlan::none(),
        })
        .counts()
        .0
    });
    if errors > 0 {
        return Err(format!(
            "preflight: {errors} error-level finding(s) for {} / {}",
            spec.name, scenario.name
        ));
    }
    let compiled = steps.step("core.compile", || scenario.compile(&flag, &cfg))?;
    Ok(Prepared {
        spec: spec.clone(),
        flag,
        scenario,
        kit,
        cfg,
        team,
        compiled,
    })
}

impl Prepared {
    /// A one-thread sweep runner over these inputs.
    pub fn runner(&self, reps: u64, retain: bool) -> SweepRunner<'_> {
        SweepRunner::new(&self.scenario, &self.flag, &self.kit, &self.cfg)
            .team_size(self.team)
            .reps(reps)
            .jobs(1)
            .retain_reports(retain)
    }
}

/// The simulated statistics of a sweep as IEEE-754 bit patterns: rep
/// count, then completion and waiting mean, stddev, min and max. A
/// speed-only change must leave it identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Repetitions folded in.
    pub n: u64,
    /// Completion mean, stddev, min, max; then the same for waiting.
    pub bits: [u64; 8],
}

impl Digest {
    /// Digest of a completion/waiting pair.
    pub fn of(completion: &RunStats, waiting: &RunStats) -> Digest {
        let c = completion;
        let w = waiting;
        Digest {
            n: c.n as u64,
            bits: [
                c.mean.to_bits(),
                c.stddev.to_bits(),
                c.min.to_bits(),
                c.max.to_bits(),
                w.mean.to_bits(),
                w.stddev.to_bits(),
                w.min.to_bits(),
                w.max.to_bits(),
            ],
        }
    }

    /// The streaming statistics of retained reports, folded in rep order
    /// exactly as the streaming sweep folds them.
    pub fn of_reports(reports: &[RunReport]) -> Digest {
        let mut c = StreamingStats::new();
        let mut w = StreamingStats::new();
        for r in reports {
            c.push(r.completion_secs());
            w.push(r.total_wait_secs());
        }
        Digest::of(&c.to_stats(), &w.to_stats())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = &self.bits;
        write!(
            f,
            "n={} completion mean={:016x} sd={:016x} min={:016x} max={:016x} \
             waiting mean={:016x} sd={:016x} min={:016x} max={:016x}",
            self.n, b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
        )
    }
}

/// The counts one exploration is checked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Every schedule gives one outcome.
    pub invariant: bool,
    /// The schedule bound was hit.
    pub truncated: bool,
    /// Schedules run.
    pub schedules: usize,
    /// Distinct outcome classes.
    pub classes: usize,
    /// Branches cut by sleep sets.
    pub pruned_sleep: usize,
    /// Branches cut by state hashing.
    pub pruned_visited: usize,
    /// Distinct choice states seen.
    pub visited_states: usize,
}

impl VerdictCounts {
    /// The counts of an exploration.
    pub fn of(ex: &Exploration) -> VerdictCounts {
        VerdictCounts {
            invariant: ex.invariant(),
            truncated: ex.truncated,
            schedules: ex.schedules_run,
            classes: ex.outcomes.len(),
            pruned_sleep: ex.pruned_sleep,
            pruned_visited: ex.pruned_visited,
            visited_states: ex.visited_states,
        }
    }
}

impl std::fmt::Display for VerdictCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant={} truncated={} schedules={} classes={} pruned_sleep={} \
             pruned_visited={} visited_states={}",
            self.invariant,
            self.truncated,
            self.schedules,
            self.classes,
            self.pruned_sleep,
            self.pruned_visited,
            self.visited_states
        )
    }
}

/// Check a verdict against the known facts and the reference counts.
pub fn check_verdict(
    checks: &mut Checks,
    which: Builtin,
    got: &VerdictCounts,
    want: &VerdictCounts,
) {
    checks.check(
        got == want && !got.truncated && got.invariant == which.invariant(),
        || format!("verify {which:?}: got {got}, want {want}"),
    );
}

/// Check a sweep's statistics against the reference digest.
pub fn check_digest(checks: &mut Checks, label: &str, got: &Digest, want: &Digest) {
    checks.check(got == want, || {
        format!("{label}: digest {got}\n  differs from reference {want}")
    });
}

/// Check a retained sweep: no failed rep, every report correct, and the
/// retained statistics agree bit for bit with the streaming fold of the
/// same reports (n, mean, min and max; stddev is two-pass on one side
/// and Welford on the other, so the fold is compared instead).
pub fn check_retained(checks: &mut Checks, label: &str, res: &SweepResult) -> Digest {
    let folded = Digest::of_reports(&res.reports);
    let direct = Digest::of(&res.completion, &res.waiting);
    let same = |i: usize| folded.bits[i] == direct.bits[i];
    checks.check(
        res.failures.is_empty()
            && res.reports.iter().all(|r| r.correct)
            && folded.n == direct.n
            && [0, 2, 3, 4, 6, 7].into_iter().all(same),
        || format!("{label}: failed reps, wrong flags, or retained stats differ from the fold"),
    );
    folded
}

/// What a timed run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per complete set-up.
    pub setup_s: Samples,
    /// Reps per second of each trial, set-up excluded.
    pub reps_per_s: Samples,
    /// Complete results per second of each trial.
    pub verdicts_per_s: Samples,
    /// Digest lines for the log.
    pub digests: Vec<String>,
}

/// Run `round` until `seconds` have passed, and at least `min_rounds`
/// times.
pub fn rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    while done < min_rounds || Instant::now() < deadline {
        round();
        done += 1;
    }
}

/// Run `f` and return its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Set up every input once, or record the first error.
pub fn set_up_all(inputs: &[Input], checks: &mut Checks) -> Option<Vec<Prepared>> {
    let prepared: Result<Vec<Prepared>, String> =
        inputs.iter().map(|i| set_up(i, &mut Untraced)).collect();
    prepared.map_err(|e| checks.error(e)).ok()
}

/// Time `count` complete set-ups of `inputs`, one sample each.
fn sample_set_ups(samples: &mut Samples, checks: &mut Checks, count: usize, inputs: &[Input]) {
    for _ in 0..count {
        let (ok, secs) = timed(|| {
            inputs
                .iter()
                .map(|i| set_up(i, &mut Untraced).map(black_box))
                .collect::<Result<Vec<_>, String>>()
        });
        match ok {
            Ok(_) => samples.push(secs),
            Err(e) => checks.error(e),
        }
    }
}

/// The `sweep-stream` input: the fourslice job on Mauritius, team 4.
pub fn stream_input(seed: u64) -> Input {
    Input {
        spec: library::mauritius(),
        which: Builtin::Fig1(4),
        seed: derive_seed(seed, 0),
        team: Some(STREAM_TEAM),
    }
}

/// Drive a sweep rep by rep through `SweepRunner::run_rep`, folding each
/// report into streaming statistics exactly as the streaming sweep does;
/// `steps` wraps each rep as `rep_layer` and each merge as
/// `metrics.merge`. Returns the digest and whether every flag was right.
pub fn sweep_by_rep(
    p: &Prepared,
    reps: u64,
    retain: bool,
    steps: &mut impl Steps,
    rep_layer: &'static str,
) -> Result<(Digest, bool), String> {
    let runner = p.runner(reps, retain);
    let mut c = StreamingStats::new();
    let mut w = StreamingStats::new();
    let mut correct = true;
    for rep in 0..reps {
        let r = steps.step(rep_layer, || runner.run_rep(rep))?;
        correct &= r.correct;
        steps.step("metrics.merge", || {
            c.push(r.completion_secs());
            w.push(r.total_wait_secs());
        });
    }
    Ok((Digest::of(&c.to_stats(), &w.to_stats()), correct))
}

/// Check a [`sweep_by_rep`] result against `want`, or return its digest
/// when there is no reference yet.
pub fn check_by_rep(
    checks: &mut Checks,
    label: &str,
    got: Result<(Digest, bool), String>,
    want: Option<&Digest>,
) -> Option<Digest> {
    let (d, correct) = got
        .map_err(|e| checks.error(format!("{label}: {e}")))
        .ok()?;
    checks.check(correct, || format!("{label}: wrong flag"));
    if let Some(want) = want {
        check_digest(checks, label, &d, want);
    }
    Some(d)
}

/// Reference digest of a streaming job: the same reps run one by one as
/// a retained sweep runs them (trace events on) and dropped at once, so
/// that peak memory stays that of the streaming sweep.
pub fn retained_reference(p: &Prepared, reps: u64, checks: &mut Checks) -> Option<Digest> {
    let got = sweep_by_rep(p, reps, true, &mut Untraced, "core.rep");
    check_by_rep(checks, "retained reference", got, None)
}

/// One streaming sweep's digest, or `None` if it failed.
pub fn stream_sweep(p: &Prepared, reps: u64, checks: &mut Checks) -> Option<Digest> {
    match p.runner(reps, false).run() {
        Ok(res) if res.failures.is_empty() => Some(Digest::of(&res.completion, &res.waiting)),
        Ok(res) => {
            checks.error(format!("{} failed rep(s)", res.failures.len()));
            None
        }
        Err(e) => {
            checks.error(e);
            None
        }
    }
}

fn run_sweep_stream(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let inputs = [stream_input(seed)];
    let Some(p) = set_up_all(&inputs, checks).and_then(|mut v| v.pop()) else {
        return m;
    };
    let Some(want) = retained_reference(&p, STREAM_REPS, checks) else {
        return m;
    };
    m.digests
        .push(format!("sweep-stream seed={}: {want}", p.cfg.seed));
    rounds(seconds, 3, || {
        let (got, secs) = timed(|| stream_sweep(&p, STREAM_REPS, checks));
        if let Some(got) = got {
            check_digest(checks, "sweep-stream", &got, &want);
            m.reps_per_s.push(STREAM_REPS as f64 / secs);
            m.verdicts_per_s.push(1.0 / secs);
        }
        sample_set_ups(&mut m.setup_s, checks, 8, &inputs);
    });
    m
}

/// The eighteen lesson inputs: six built-ins on three flags, each with
/// its own derived seed and the CLI-default team.
pub fn lesson_inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for spec in lesson_flags() {
        for which in Builtin::ALL {
            out.push(Input {
                spec: spec.clone(),
                which,
                seed: derive_seed(seed, out.len() as u64),
                team: None,
            });
        }
    }
    out
}

/// Reference digests of the lesson sweeps: streaming sweeps of the same
/// seeds (the trials run them retained).
pub fn lesson_reference(inputs: &[Input], checks: &mut Checks) -> Option<Vec<Digest>> {
    let prepared = set_up_all(inputs, checks)?;
    prepared
        .iter()
        .map(|p| stream_sweep(p, LESSON_REPS, checks))
        .collect()
}

/// One lesson sweep, retained and checked against its reference.
pub fn lesson_sweep(p: &Prepared, want: &Digest, checks: &mut Checks) -> bool {
    let label = format!("lesson {} / {}", p.spec.name, p.scenario.name);
    match p.runner(LESSON_REPS, true).run() {
        Ok(res) => {
            let got = check_retained(checks, &label, &res);
            check_digest(checks, &label, &got, want);
            true
        }
        Err(e) => {
            checks.error(format!("{label}: {e}"));
            false
        }
    }
}

fn run_lesson(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let inputs = lesson_inputs(seed);
    let Some(want) = lesson_reference(&inputs, checks) else {
        return m;
    };
    for (i, d) in inputs.iter().zip(&want) {
        m.digests.push(format!(
            "lesson {} {:?} seed={}: {d}",
            i.spec.name, i.which, i.seed
        ));
    }
    rounds(seconds, 3, || {
        let (mut setup, mut sweeping) = (0.0, 0.0);
        let mut ok = true;
        for (input, want) in inputs.iter().zip(&want) {
            let (p, t_setup) = timed(|| set_up(input, &mut Untraced));
            setup += t_setup;
            match p {
                Ok(p) => {
                    let (swept, t_sweep) = timed(|| lesson_sweep(&p, want, checks));
                    sweeping += t_sweep;
                    ok &= swept;
                }
                Err(e) => {
                    checks.error(e);
                    ok = false;
                }
            }
        }
        if ok {
            m.setup_s.push(setup);
            m.reps_per_s
                .push((LESSON_REPS * inputs.len() as u64) as f64 / sweeping);
            m.verdicts_per_s
                .push(inputs.len() as f64 / (setup + sweeping));
        }
    });
    m
}

/// The verify inputs: the six built-ins on Mauritius.
pub fn verify_inputs(seed: u64) -> Vec<Input> {
    Builtin::ALL
        .into_iter()
        .map(|which| Input {
            spec: library::mauritius(),
            which,
            seed: derive_seed(seed, 0),
            team: None,
        })
        .collect()
}

/// The seeds each verify trial explores every built-in under.
pub fn verify_seeds(seed: u64) -> Vec<u64> {
    (0..VERIFY_SEEDS)
        .map(|i| derive_seed(seed, 100 + i))
        .collect()
}

/// One verdict, as `flagsim verify` reaches it.
pub fn verdict(p: &Prepared, seed: u64) -> Result<VerdictCounts, String> {
    let cfg = p.cfg.clone().with_seed(seed);
    let ax = explore_activity(&p.compiled, &p.kit, &cfg, &ExploreConfig::default())?;
    Ok(VerdictCounts::of(&ax.exploration))
}

/// Reference verdicts for every (seed, built-in), checked against the
/// known facts.
pub fn verify_reference(
    prepared: &[Prepared],
    seeds: &[u64],
    checks: &mut Checks,
) -> Option<Vec<VerdictCounts>> {
    let mut want = Vec::new();
    for &s in seeds {
        for (p, which) in prepared.iter().zip(Builtin::ALL) {
            let v = verdict(p, s).map_err(|e| checks.error(e)).ok()?;
            let known = !v.truncated && v.invariant == which.invariant();
            checks.check(known, || format!("verify {which:?} seed={s}: {v}"));
            want.push(v);
        }
    }
    Some(want)
}

fn run_verify(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let inputs = verify_inputs(seed);
    let seeds = verify_seeds(seed);
    let Some(prepared) = set_up_all(&inputs, checks) else {
        return m;
    };
    let Some(want) = verify_reference(&prepared, &seeds, checks) else {
        return m;
    };
    for (i, v) in want.iter().enumerate() {
        let which = Builtin::ALL[i % Builtin::ALL.len()];
        let s = seeds[i / Builtin::ALL.len()];
        m.digests.push(format!("verify {which:?} seed={s}: {v}"));
    }
    // Every schedule is one simulated run, and so is the baseline run.
    let runs: usize = want.iter().map(|v| v.schedules + 1).sum();
    rounds(seconds, 3, || {
        let t = Instant::now();
        let mut ok = true;
        let mut want = want.iter();
        for &s in &seeds {
            for (p, which) in prepared.iter().zip(Builtin::ALL) {
                let expected = want.next().expect("one reference per verdict");
                match verdict(p, s) {
                    Ok(v) => check_verdict(checks, which, &v, expected),
                    Err(e) => {
                        checks.error(e);
                        ok = false;
                    }
                }
            }
        }
        let secs = t.elapsed().as_secs_f64();
        if ok {
            m.verdicts_per_s
                .push((seeds.len() * prepared.len()) as f64 / secs);
            m.reps_per_s.push(runs as f64 / secs);
        }
        sample_set_ups(&mut m.setup_s, checks, 2, &inputs);
    });
    m
}

/// The `sweep-stream` job as a shard job spec.
pub fn shard_job(seed: u64, reps: u64) -> JobSpec {
    let input = stream_input(seed);
    JobSpec {
        scenario: "4".into(),
        flag: input.spec.name,
        kind: "thick".into(),
        seed: input.seed,
        reps,
        team: STREAM_TEAM,
        warmup: false,
    }
}

/// Bind the loopback listener the shard worker serves on.
pub fn loopback() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind 127.0.0.1: {e}"))
}

/// Run `job` through one in-process worker serving one session on
/// `listener`; the worker thread is joined before this returns.
pub fn sharded_sweep(listener: &TcpListener, job: &JobSpec) -> Result<Digest, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("worker address: {e}"))?;
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let opts = WorkerOptions {
                once: true,
                name: "flagbench-worker".into(),
                quiet: true,
                drop_telemetry_every: 0,
            };
            serve(listener, &opts)
        });
        let outcome = run_sweep(
            job,
            &CoordinatorConfig {
                endpoints: vec![addr.to_string()],
                ..CoordinatorConfig::default()
            },
        );
        if outcome.is_err() && !worker.is_finished() {
            // The coordinator gave up without a session: wake the worker's
            // accept with an empty one so its thread can be joined.
            let _ = TcpStream::connect(addr);
        }
        worker
            .join()
            .map_err(|_| "worker thread panicked".to_owned())?
            .map_err(|e| format!("worker: {e}"))?;
        match outcome? {
            ShardOutcome::Completed(r) if r.failures.is_empty() => {
                Ok(Digest::of(&r.completion, &r.waiting))
            }
            ShardOutcome::Completed(r) => Err(format!("{} failed rep(s)", r.failures.len())),
            other => Err(format!("sharded sweep did not complete: {other:?}")),
        }
    })
}

fn run_sweep_shard(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let inputs = [stream_input(seed)];
    let Some(p) = set_up_all(&inputs, checks).and_then(|mut v| v.pop()) else {
        return m;
    };
    // Checked once, outside the timed trials: the sharded statistics must
    // be those of the in-process streaming sweep of the same job.
    let Some(want) = stream_sweep(&p, STREAM_REPS, checks) else {
        return m;
    };
    let listener = match loopback() {
        Ok(l) => l,
        Err(e) => {
            checks.error(e);
            return m;
        }
    };
    m.digests
        .push(format!("sweep-shard seed={}: {want}", p.cfg.seed));
    let job = shard_job(seed, STREAM_REPS);
    let session_job = shard_job(seed, 1);
    let mut trials = Vec::new();
    let mut sessions = Samples::default();
    rounds(seconds, 3, || {
        let (got, secs) = timed(|| sharded_sweep(&listener, &job));
        match got {
            Ok(got) => {
                check_digest(checks, "sweep-shard", &got, &want);
                trials.push(secs);
            }
            Err(e) => checks.error(e),
        }
        // Set-up is the in-process set-up plus the session: connect,
        // hello, materialize on both ends, one rep, shutdown.
        let (got, session) = timed(|| sharded_sweep(&listener, &session_job));
        let mut local = Samples::default();
        sample_set_ups(&mut local, checks, 8, &inputs);
        match got {
            Ok(_) => {
                sessions.push(session);
                m.setup_s.push(local.summary(false).best + session);
            }
            Err(e) => checks.error(e),
        }
    });
    // The session is taken out of each trial's rep rate.
    let session = sessions.summary(false).best;
    for t in trials {
        m.reps_per_s
            .push(STREAM_REPS as f64 / (t - session).max(f64::MIN_POSITIVE));
        m.verdicts_per_s.push(1.0 / t);
    }
    m
}

/// Run `workload` untraced for `seconds`, checking every output.
pub fn run_timed(workload: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    match workload {
        Workload::SweepStream => run_sweep_stream(seed, seconds, checks),
        Workload::Lesson => run_lesson(seed, seconds, checks),
        Workload::Verify => run_verify(seed, seconds, checks),
        Workload::SweepShard => run_sweep_shard(seed, seconds, checks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_digest_is_a_failure() {
        let mut checks = Checks::default();
        let p = set_up(&stream_input(9), &mut Untraced).expect("set-up");
        let want = retained_reference(&p, 16, &mut checks).expect("reference");
        let got = stream_sweep(&p, 16, &mut checks).expect("sweep");
        check_digest(&mut checks, "streaming vs retained", &got, &want);
        assert_eq!(
            (checks.attempted, checks.failed),
            (2, 0),
            "{:?}",
            checks.notes
        );
        for i in 0..8 {
            let mut bad = want;
            bad.bits[i] ^= 1;
            check_digest(&mut checks, "corrupted", &got, &bad);
        }
        let mut bad = want;
        bad.n += 1;
        check_digest(&mut checks, "corrupted", &got, &bad);
        assert_eq!((checks.attempted, checks.failed), (11, 9));
    }

    #[test]
    fn a_corrupted_verdict_is_a_failure() {
        let mut checks = Checks::default();
        let prepared = set_up_all(&verify_inputs(9), &mut checks).expect("set-up");
        let seed = verify_seeds(9)[0];
        let fourslice = verdict(&prepared[3], seed).expect("fourslice verdict");
        check_verdict(&mut checks, Builtin::Fig1(4), &fourslice, &fourslice);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        // Counts that differ from the reference.
        let mut bad = fourslice;
        bad.schedules += 1;
        check_verdict(&mut checks, Builtin::Fig1(4), &fourslice, &bad);
        // A verdict that contradicts the known facts, even when it
        // matches its reference.
        check_verdict(&mut checks, Builtin::Fig1(1), &fourslice, &fourslice);
        let truncated = VerdictCounts {
            truncated: true,
            ..fourslice
        };
        check_verdict(&mut checks, Builtin::Fig1(4), &truncated, &truncated);
        assert_eq!((checks.attempted, checks.failed), (4, 3));
    }

    #[test]
    fn every_builtin_passes_preflight_on_every_lesson_flag() {
        let mut checks = Checks::default();
        assert!(
            set_up_all(&lesson_inputs(1), &mut checks).is_some(),
            "{:?}",
            checks.notes
        );
    }
}
