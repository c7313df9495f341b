//! The traced run: per-layer metrics from spans the benchmark records
//! around its calls into each crate's public functions.
//!
//! A traced run measures every layer, so it runs the traced pipeline of
//! every workload, each for a quarter of the run; `--workload` only labels
//! it. Each pipeline alternates an untraced trial with a traced one and
//! keeps the spans of its fastest traced trial; the ratio of the two
//! fastest trials is the tracing overhead. Inside a timed call the
//! program's own instrumentation is paused, so a layer's time is the
//! call's, not the in-program telemetry's. The spans stay in memory and
//! are written out as a self-time table at the end.
//!
//! Which end-to-end metric each layer metric should move:
//!
//! * `flags.prepare_us`, `simcheck.static_report_us`, `core.compile_us`
//!   → `setup_s` on `lesson` (and `sweep-stream`).
//! * `core.rep_us` (trace events off, `sweep-stream`),
//!   `core.rep_traced_us` (trace events on, `lesson`),
//!   `desim.events_per_rep`, `desim.ns_per_event` → `reps_per_s` on
//!   `sweep-stream` / `lesson`.
//! * `core.sweep_overhead_us` (sweep time per rep minus `core.rep_us`)
//!   and `metrics.merge_ns` → `reps_per_s` on `sweep-stream`; both are
//!   predicted to be small.
//! * `core.retained_kb_per_rep` (RSS growth per retained report) →
//!   `peak_rss_mb` on `lesson`.
//! * `simcheck.schedule_run_us`, `simcheck.fingerprint_us`,
//!   `simcheck.explore_self_us`, `simcheck.hb_us`, and the counts
//!   `simcheck.schedules_per_verdict`, `simcheck.visited_states`,
//!   `simcheck.pruned_sleep`, `simcheck.pruned_visited` and the
//!   useful-work ratio `simcheck.classes_per_schedule` →
//!   `verdicts_per_s` on `verify`.
//! * `shard.rep_overhead_us` (sharded host time per rep minus
//!   `core.rep_us`) → `reps_per_s` on `sweep-shard`; `shard.session_us`
//!   (a one-rep `run_sweep`) → `setup_s` on `sweep-shard`.
//!
//! `telemetry.span_floor_ns` is the duration of an empty span, the floor
//! under every span-timed number (it matters for `metrics.merge_ns`).

use crate::report::{proc_status_kb, Checks, Metric};
use crate::workloads::{
    check_by_rep, check_digest, check_verdict, lesson_inputs, lesson_reference, lesson_sweep,
    loopback, rounds, set_up, set_up_all, shard_job, sharded_sweep, stream_input, stream_sweep,
    sweep_by_rep, timed, verdict, verify_inputs, verify_reference, verify_seeds, Builtin, Digest,
    Input, Prepared, Steps, Untraced, VerdictCounts, Workload, LESSON_REPS, STREAM_REPS,
};
use flagsim_core::faults::FaultPlan;
use flagsim_core::ActivityOutcome;
use flagsim_desim::ForcedSchedule;
use flagsim_simcheck::explore::{graph_fingerprint, report_fingerprint, scenario_team};
use flagsim_simcheck::{check_run, explore, ExploreConfig, Outcome};
use flagsim_telemetry::{pause_recording, span, Collector, SpanId, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;

/// Time one call into a layer: a span around it, with the program's own
/// instrumentation paused inside.
fn call<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span("bench", layer);
    let _pause = pause_recording();
    f()
}

/// [`Steps`] that times each set-up step as a layer call.
struct Traced;

impl Steps for Traced {
    fn step<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        call(layer, f)
    }
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

impl Layer {
    fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64 / 1e3
    }
}

/// Per-name totals of a set of spans; self time is a span's duration
/// minus the durations of the spans directly under it.
fn layers(spans: &[SpanRecord]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: HashMap<SpanId, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.total_ns += s.duration_ns();
        l.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The fastest untraced and traced trials of one pipeline, and the spans
/// of the fastest traced one.
struct Pipeline {
    untraced_s: f64,
    traced_s: f64,
    best: BTreeMap<&'static str, Layer>,
}

impl Pipeline {
    /// A pipeline whose trials start now: spans recorded before (by the
    /// untimed reference runs) are dropped.
    fn new(collector: &Collector) -> Self {
        drop(collector.drain_spans());
        Pipeline {
            untraced_s: f64::INFINITY,
            traced_s: f64::INFINITY,
            best: BTreeMap::new(),
        }
    }

    /// Time one untraced trial: everything paused.
    fn untraced(&mut self, trial: impl FnOnce()) {
        let _pause = pause_recording();
        let ((), secs) = timed(trial);
        self.untraced_s = self.untraced_s.min(secs);
    }

    /// Time one traced trial and keep its spans if it is the fastest.
    fn traced(&mut self, collector: &Collector, trial: impl FnOnce()) {
        let ((), secs) = timed(trial);
        let spans = collector.drain_spans();
        if secs < self.traced_s {
            self.traced_s = secs;
            self.best = layers(&spans);
        }
    }

    fn layer(&self, name: &str) -> Layer {
        self.best.get(name).copied().unwrap_or_default()
    }

    fn overhead(&self) -> f64 {
        self.traced_s / self.untraced_s - 1.0
    }
}

/// RSS growth per retained lesson report, in kB: all eighteen lesson
/// sweeps held at once. Run first, before anything else has grown the
/// heap.
fn retained_kb_per_rep(inputs: &[Input], checks: &mut Checks) -> f64 {
    let before = proc_status_kb("VmRSS");
    let Some(prepared) = set_up_all(inputs, checks) else {
        return f64::NAN;
    };
    let mut kept = Vec::new();
    for p in &prepared {
        match p.runner(LESSON_REPS, true).run() {
            Ok(res) => kept.push(res),
            Err(e) => checks.error(e),
        }
    }
    let after = proc_status_kb("VmRSS");
    let reps: usize = kept.iter().map(|r| r.reports.len()).sum();
    after.saturating_sub(before) as f64 / reps.max(1) as f64
}

/// Duration of an empty span, best of 20 batches of 1000.
fn span_floor_ns(collector: &Collector) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        for _ in 0..1000 {
            call("telemetry.empty", || ());
        }
        let l = layers(&collector.drain_spans());
        let e = l.get("telemetry.empty").copied().unwrap_or_default();
        best = best.min(e.total_ns as f64 / e.calls.max(1) as f64);
    }
    best
}

/// Events the engine processes per rep of `p`, from the program's own
/// `desim.*` counters over 64 unpaused reps.
fn events_per_rep(collector: &Collector, p: &Prepared) -> f64 {
    let metrics = collector.metrics();
    let events = metrics.counter("desim.events_processed");
    let runs = metrics.counter("desim.runs");
    let (e0, r0) = (events.get(), runs.get());
    let runner = p.runner(64, false);
    for rep in 0..64 {
        let _ = runner.run_rep(rep);
    }
    (events.get() - e0) as f64 / (runs.get() - r0).max(1) as f64
}

fn stream_pipeline(
    collector: &Collector,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Option<(Pipeline, f64)> {
    let p = set_up_all(&[stream_input(seed)], checks)?.pop()?;
    let want = stream_sweep(&p, STREAM_REPS, checks)?;
    let events = events_per_rep(collector, &p);
    let mut pl = Pipeline::new(collector);
    rounds(seconds, 2, || {
        pl.untraced(|| {
            if let Some(d) = stream_sweep(&p, STREAM_REPS, checks) {
                check_digest(checks, "sweep-stream", &d, &want);
            }
        });
        pl.traced(collector, || {
            let got = sweep_by_rep(&p, STREAM_REPS, false, &mut Traced, "core.rep");
            check_by_rep(checks, "traced sweep-stream", got, Some(&want));
        });
    });
    Some((pl, events))
}

fn lesson_pipeline(
    collector: &Collector,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Option<Pipeline> {
    let inputs = lesson_inputs(seed);
    let want = lesson_reference(&inputs, checks)?;
    let mut pl = Pipeline::new(collector);
    let trial = |checks: &mut Checks, traced: bool| {
        for (input, want) in inputs.iter().zip(&want) {
            let p = if traced {
                set_up(input, &mut Traced)
            } else {
                set_up(input, &mut Untraced)
            };
            let p = match p {
                Ok(p) => p,
                Err(e) => {
                    checks.error(e);
                    continue;
                }
            };
            let label = format!("lesson {} / {}", p.spec.name, p.scenario.name);
            if traced {
                let got = sweep_by_rep(&p, LESSON_REPS, true, &mut Traced, "core.rep_traced");
                check_by_rep(checks, &label, got, Some(want));
            } else {
                lesson_sweep(&p, want, checks);
            }
        }
    };
    rounds(seconds, 2, || {
        pl.untraced(|| trial(checks, false));
        pl.traced(collector, || trial(checks, true));
    });
    Some(pl)
}

/// One verdict with its parts timed: the closure mirrors the one
/// `explore_activity` passes to `explore`, then the baseline run and the
/// happens-before tie check.
fn traced_verdict(p: &Prepared, seed: u64) -> Result<VerdictCounts, String> {
    let cfg = p.cfg.clone().with_seed(seed);
    let lean = cfg.clone().with_trace_events(false);
    let plan = FaultPlan::default();
    let ex = {
        let _explore = span("bench", "simcheck.explore");
        explore(
            |script| {
                let mut team = scenario_team(&p.compiled);
                let (policy, log) = ForcedSchedule::new(script.to_vec());
                let outcome = call("simcheck.schedule_run", || {
                    p.compiled
                        .run_scheduled(&mut team, &p.kit, &lean, &plan, Some(policy))
                })?;
                let outcome = match outcome {
                    ActivityOutcome::Completed(report) => Outcome::Completed {
                        fingerprint: call("simcheck.fingerprint", || report_fingerprint(&report)),
                        makespan_ms: report.completion.millis(),
                    },
                    ActivityOutcome::Stalled(graph) => Outcome::Stalled {
                        fingerprint: graph_fingerprint(&graph),
                        graph,
                    },
                };
                let log = Rc::try_unwrap(log)
                    .map(std::cell::RefCell::into_inner)
                    .map_err(|_| "schedule log still shared after the run".to_owned())?;
                Ok((outcome, log))
            },
            &ExploreConfig::default(),
        )?
    };
    let mut team = scenario_team(&p.compiled);
    let (policy, _log) = ForcedSchedule::new(Vec::new());
    let baseline = call("simcheck.baseline_run", || {
        p.compiled
            .run_scheduled(&mut team, &p.kit, &cfg, &plan, Some(policy))
    })?;
    if let ActivityOutcome::Completed(report) = baseline {
        call("simcheck.hb", || check_run(&report).ties.len());
    }
    Ok(VerdictCounts::of(&ex))
}

fn verify_pipeline(
    collector: &Collector,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Option<(Pipeline, Vec<VerdictCounts>)> {
    let prepared = set_up_all(&verify_inputs(seed), checks)?;
    let seeds = verify_seeds(seed);
    let want = verify_reference(&prepared, &seeds, checks)?;
    let mut pl = Pipeline::new(collector);
    let trial = |checks: &mut Checks, traced: bool| {
        let mut want = want.iter();
        for &s in &seeds {
            for (p, which) in prepared.iter().zip(Builtin::ALL) {
                let expected = want.next().expect("one reference per verdict");
                let got = if traced {
                    traced_verdict(p, s)
                } else {
                    verdict(p, s)
                };
                match got {
                    Ok(v) => check_verdict(checks, which, &v, expected),
                    Err(e) => checks.error(e),
                }
            }
        }
    };
    rounds(seconds, 2, || {
        pl.untraced(|| trial(checks, false));
        pl.traced(collector, || trial(checks, true));
    });
    Some((pl, want))
}

fn shard_pipeline(
    collector: &Collector,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Option<Pipeline> {
    let p = set_up_all(&[stream_input(seed)], checks)?.pop()?;
    let want = stream_sweep(&p, STREAM_REPS, checks)?;
    let listener = loopback().map_err(|e| checks.error(e)).ok()?;
    let job = shard_job(seed, STREAM_REPS);
    let session = shard_job(seed, 1);
    let mut pl = Pipeline::new(collector);
    let trial = |checks: &mut Checks, traced: bool| {
        let wrap = |layer, f: &dyn Fn() -> Result<Digest, String>| {
            if traced {
                call(layer, f)
            } else {
                f()
            }
        };
        match wrap("shard.run_sweep", &|| sharded_sweep(&listener, &job)) {
            Ok(d) => check_digest(checks, "sweep-shard", &d, &want),
            Err(e) => checks.error(e),
        }
        if let Err(e) = wrap("shard.session", &|| sharded_sweep(&listener, &session)) {
            checks.error(e);
        }
    };
    rounds(seconds, 2, || {
        pl.untraced(|| trial(checks, false));
        pl.traced(collector, || trial(checks, true));
    });
    Some(pl)
}

/// Run every traced pipeline for a quarter of `seconds` each and return
/// the per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let retained_kb = retained_kb_per_rep(&lesson_inputs(seed), checks);
    let collector = Collector::install();
    let floor = span_floor_ns(&collector);
    let quarter = seconds / 4.0;
    let stream = stream_pipeline(&collector, seed, quarter, checks);
    let lesson = lesson_pipeline(&collector, seed, quarter, checks);
    let verify = verify_pipeline(&collector, seed, quarter, checks);
    let shard = shard_pipeline(&collector, seed, quarter, checks);
    drop(collector.finish());
    let (Some((stream, events)), Some(lesson), Some((verify, verdicts)), Some(shard)) =
        (stream, lesson, verify, shard)
    else {
        return Vec::new();
    };

    let mut table = String::new();
    for (w, pl) in Workload::ALL
        .iter()
        .zip([&stream, &lesson, &verify, &shard])
    {
        let _ = writeln!(
            table,
            "# traced {}: fastest untraced trial {:.6} s, fastest traced trial {:.6} s, overhead {:+.4}",
            w.name(),
            pl.untraced_s,
            pl.traced_s,
            pl.overhead()
        );
        for (name, l) in &pl.best {
            let _ = writeln!(
                table,
                "#   span {name}: calls={} total_ms={:.3} self_ms={:.3}",
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
    }
    print!("{table}");

    let per_verdict = |f: fn(&VerdictCounts) -> usize| {
        verdicts.iter().map(f).sum::<usize>() as f64 / verdicts.len() as f64
    };
    let schedules: usize = verdicts.iter().map(|v| v.schedules).sum();
    let classes: usize = verdicts.iter().map(|v| v.classes).sum();
    let rep_us = stream.layer("core.rep").mean_us();
    let n_verdicts = verdicts.len() as f64;
    let mut metrics = vec![
        Metric::new(
            "flags.prepare_us",
            "us",
            lesson.layer("flags.prepare").mean_us(),
        ),
        Metric::new(
            "simcheck.static_report_us",
            "us",
            lesson.layer("simcheck.static_report").mean_us(),
        ),
        Metric::new(
            "core.compile_us",
            "us",
            lesson.layer("core.compile").mean_us(),
        ),
        Metric::new("core.rep_us", "us", rep_us),
        Metric::new(
            "core.rep_traced_us",
            "us",
            lesson.layer("core.rep_traced").mean_us(),
        ),
        Metric::new("desim.events_per_rep", "count", events),
        Metric::new("desim.ns_per_event", "ns", rep_us * 1e3 / events),
        Metric::new(
            "core.sweep_overhead_us",
            "us",
            stream.untraced_s / STREAM_REPS as f64 * 1e6 - rep_us,
        ),
        Metric::new(
            "metrics.merge_ns",
            "ns",
            stream.layer("metrics.merge").mean_us() * 1e3,
        ),
        Metric::new("core.retained_kb_per_rep", "kB", retained_kb),
        Metric::new(
            "simcheck.schedule_run_us",
            "us",
            verify.layer("simcheck.schedule_run").mean_us(),
        ),
        Metric::new(
            "simcheck.fingerprint_us",
            "us",
            verify.layer("simcheck.fingerprint").mean_us(),
        ),
        Metric::new(
            "simcheck.explore_self_us",
            "us",
            verify.layer("simcheck.explore").self_ns as f64 / n_verdicts / 1e3,
        ),
        Metric::new(
            "simcheck.hb_us",
            "us",
            verify.layer("simcheck.hb").mean_us(),
        ),
        Metric::new(
            "simcheck.schedules_per_verdict",
            "count",
            per_verdict(|v| v.schedules),
        ),
        Metric::new(
            "simcheck.visited_states",
            "count",
            per_verdict(|v| v.visited_states),
        ),
        Metric::new(
            "simcheck.pruned_sleep",
            "count",
            per_verdict(|v| v.pruned_sleep),
        ),
        Metric::new(
            "simcheck.pruned_visited",
            "count",
            per_verdict(|v| v.pruned_visited),
        ),
        Metric::new(
            "simcheck.classes_per_schedule",
            "ratio",
            classes as f64 / schedules.max(1) as f64,
        ),
        Metric::new(
            "shard.rep_overhead_us",
            "us",
            shard.layer("shard.run_sweep").mean_us() / STREAM_REPS as f64 - rep_us,
        ),
        Metric::new(
            "shard.session_us",
            "us",
            shard.layer("shard.session").mean_us(),
        ),
        Metric::new("telemetry.span_floor_ns", "ns", floor),
    ];
    for (w, pl) in Workload::ALL
        .iter()
        .zip([&stream, &lesson, &verify, &shard])
    {
        metrics.push(Metric::new(
            format!("telemetry.trace_overhead_frac.{}", w.name()),
            "ratio",
            pl.overhead(),
        ));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pipelines_reproduce_untraced_digests_and_counts() {
        let collector = Collector::install();
        let mut checks = Checks::default();
        let p = set_up(&stream_input(5), &mut Traced).expect("stream set-up");
        let want = stream_sweep(&p, 64, &mut checks).expect("streaming sweep");
        let (got, correct) =
            sweep_by_rep(&p, 64, false, &mut Traced, "core.rep").expect("traced sweep");
        assert!(correct);
        assert_eq!(got, want);

        // Paused like every shard call of the traced run: with recording
        // on, the coordinator would ask its worker to ship spans, and the
        // worker installs a collector of its own.
        let listener = loopback().expect("loopback");
        let sharded = call("shard.run_sweep", || {
            sharded_sweep(&listener, &shard_job(5, 64))
        });
        assert_eq!(sharded, Ok(want));

        for input in lesson_inputs(5) {
            let p = set_up(&input, &mut Traced).expect("lesson set-up");
            let want = stream_sweep(&p, LESSON_REPS, &mut checks).expect("lesson sweep");
            let got = sweep_by_rep(&p, LESSON_REPS, true, &mut Traced, "core.rep_traced");
            assert_eq!(
                got,
                Ok((want, true)),
                "{:?} on {}",
                input.which,
                input.spec.name
            );
        }

        let prepared = set_up_all(&verify_inputs(5), &mut checks).expect("verify set-up");
        for s in verify_seeds(5) {
            for (p, which) in prepared.iter().zip(Builtin::ALL) {
                assert_eq!(traced_verdict(p, s), verdict(p, s), "{which:?} seed {s}");
            }
        }
        assert_eq!(
            (checks.attempted, checks.failed),
            (0, 0),
            "{:?}",
            checks.notes
        );

        let spans = collector.finish();
        let l = layers(spans.spans());
        for name in [
            "core.rep",
            "core.rep_traced",
            "metrics.merge",
            "flags.prepare",
            "simcheck.static_report",
            "core.compile",
            "simcheck.explore",
            "simcheck.schedule_run",
            "simcheck.fingerprint",
            "simcheck.hb",
            "shard.run_sweep",
        ] {
            assert!(l.get(name).is_some_and(|l| l.calls > 0), "no {name} spans");
        }
        // The explore span's self time excludes the runs and fingerprints
        // under it.
        let ex = l["simcheck.explore"];
        assert!(ex.self_ns < ex.total_ns);
    }
}
