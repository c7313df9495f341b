//! Telemetry overhead benchmark: the permanently-instrumented sim stack
//! must cost (almost) nothing when no collector is installed.
//!
//! Three measurements feed the gate:
//!
//! 1. the workload — a serial Mauritius scenario-4 sweep — with telemetry
//!    *disabled* (the normal state: every instrumentation call is one
//!    relaxed atomic load);
//! 2. the same sweep under an installed [`Collector`] (informational:
//!    what a profiling session costs);
//! 3. a microbench of the disabled span + counter calls themselves.
//!
//! The gate multiplies the measured per-call disabled cost by the number
//! of instrumentation touchpoints the sweep exercises and divides by the
//! workload time: that estimated share must stay under
//! [`NOOP_OVERHEAD_THRESHOLD`] (5%). A direct A/B of two workload runs
//! would drown in scheduler noise at these magnitudes — the touchpoint
//! estimate is deterministic and conservative. The `telemetry_bench`
//! binary writes the result as `BENCH_telemetry.json` and exits non-zero
//! when the gate fails.

use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::faults::FaultPlan;
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_flags::library;
use flagsim_telemetry::Collector;
use std::fmt::Write as _;
use std::time::Instant;

/// The no-op overhead gate: disabled instrumentation may claim at most
/// this fraction of the workload's wall-clock time.
pub const NOOP_OVERHEAD_THRESHOLD: f64 = 0.05;

/// Counter/gauge/`enabled()` touchpoints per repetition beyond the span
/// calls (which are counted from the recorded trace): the end-of-run
/// metric folds in `desim`, `run`, and the sweep bookkeeping.
const COUNTER_CALLS_PER_REP: f64 = 4.0;

/// One telemetry-overhead measurement.
#[derive(Debug, Clone)]
pub struct TelemetryBench {
    /// Repetitions per sweep.
    pub reps: u64,
    /// Iterations of the disabled-call microbench.
    pub noop_iters: u64,
    /// Sweep wall-clock seconds with no collector installed.
    pub baseline_secs: f64,
    /// Sweep wall-clock seconds under an installed collector.
    pub enabled_secs: f64,
    /// Spans the enabled sweep recorded.
    pub spans_recorded: usize,
    /// Measured cost of one disabled span + counter call pair, in ns.
    pub noop_call_ns: f64,
    /// Instrumentation touchpoints exercised per repetition.
    pub calls_per_rep: f64,
    /// Estimated share of the baseline workload spent in disabled
    /// instrumentation — the gated number.
    pub noop_overhead_ratio: f64,
    /// `(enabled_secs - baseline_secs) / baseline_secs`; noisy and
    /// informational only.
    pub enabled_overhead_ratio: f64,
    /// Whether `noop_overhead_ratio` stayed under the 5% gate.
    pub pass: bool,
}

/// Run the benchmark: a serial Mauritius scenario-4 sweep of `reps`
/// repetitions, bare and then collected, plus `noop_iters` iterations of
/// the disabled instrumentation calls.
pub fn run_telemetry_bench(reps: u64, noop_iters: u64) -> TelemetryBench {
    assert!(reps > 0 && noop_iters > 0, "measurements need iterations");
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(0x5EED);
    let scenario = Scenario::fig1(4);
    let plan = FaultPlan::none();
    let sweep = || {
        SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(reps)
            .plan(&plan)
            .run()
    };

    // 1. Baseline: the instrumented stack with telemetry disabled.
    let t0 = Instant::now();
    sweep().expect("baseline sweep failed");
    let baseline_secs = t0.elapsed().as_secs_f64();

    // 2. The same sweep under a collector.
    let collector = Collector::install();
    let t1 = Instant::now();
    let collected = sweep();
    let enabled_secs = t1.elapsed().as_secs_f64();
    let set = collector.finish();
    collected.expect("collected sweep failed");

    // 3. Disabled-call microbench: one span guard plus one counter bump,
    //    exactly what a hot path pays when nobody is profiling.
    let t2 = Instant::now();
    for i in 0..noop_iters {
        let guard = flagsim_telemetry::span("sim", "bench.noop");
        flagsim_telemetry::count("bench.noop", 1);
        std::hint::black_box(&guard);
        std::hint::black_box(i);
    }
    let noop_call_ns = t2.elapsed().as_nanos() as f64 / noop_iters as f64;

    let calls_per_rep = set.len() as f64 / reps as f64 + COUNTER_CALLS_PER_REP;
    let noop_overhead_secs = calls_per_rep * reps as f64 * noop_call_ns * 1e-9;
    let noop_overhead_ratio = noop_overhead_secs / baseline_secs.max(f64::MIN_POSITIVE);
    let enabled_overhead_ratio =
        (enabled_secs - baseline_secs) / baseline_secs.max(f64::MIN_POSITIVE);
    TelemetryBench {
        reps,
        noop_iters,
        baseline_secs,
        enabled_secs,
        spans_recorded: set.len(),
        noop_call_ns,
        calls_per_rep,
        noop_overhead_ratio,
        enabled_overhead_ratio,
        pass: noop_overhead_ratio <= NOOP_OVERHEAD_THRESHOLD,
    }
}

impl TelemetryBench {
    /// Hand-rolled JSON (the build environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"telemetry_noop_overhead\",");
        let _ = writeln!(out, "  \"scenario\": \"scenario 4: vertical slices\",");
        let _ = writeln!(out, "  \"flag\": \"Mauritius\",");
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"noop_iters\": {},", self.noop_iters);
        let _ = writeln!(out, "  \"baseline_secs\": {:.6},", self.baseline_secs);
        let _ = writeln!(out, "  \"enabled_secs\": {:.6},", self.enabled_secs);
        let _ = writeln!(out, "  \"spans_recorded\": {},", self.spans_recorded);
        let _ = writeln!(out, "  \"noop_call_ns\": {:.3},", self.noop_call_ns);
        let _ = writeln!(out, "  \"calls_per_rep\": {:.2},", self.calls_per_rep);
        let _ = writeln!(
            out,
            "  \"noop_overhead_ratio\": {:.6},",
            self.noop_overhead_ratio
        );
        let _ = writeln!(
            out,
            "  \"enabled_overhead_ratio\": {:.6},",
            self.enabled_overhead_ratio
        );
        let _ = writeln!(out, "  \"threshold\": {NOOP_OVERHEAD_THRESHOLD},");
        let _ = writeln!(out, "  \"pass\": {}", self.pass);
        out.push('}');
        out
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "telemetry bench: {} reps, {} no-op iters\n\
             baseline (disabled) {:.3}s   collected {:.3}s   spans {}\n\
             disabled call {:.1}ns x {:.1} calls/rep -> {:.4}% of workload \
             (gate {:.0}%)  pass: {}",
            self.reps,
            self.noop_iters,
            self.baseline_secs,
            self.enabled_secs,
            self.spans_recorded,
            self.noop_call_ns,
            self.calls_per_rep,
            self.noop_overhead_ratio * 100.0,
            NOOP_OVERHEAD_THRESHOLD * 100.0,
            self.pass,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_passes_the_gate_and_serializes() {
        let b = run_telemetry_bench(4, 100_000);
        assert!(b.pass, "no-op overhead over the gate: {}", b.summary());
        assert!(b.spans_recorded > 0, "collected sweep recorded no spans");
        assert!(b.noop_call_ns > 0.0);
        let json = b.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"benchmark\": \"telemetry_noop_overhead\"",
            "\"reps\": 4",
            "\"noop_overhead_ratio\":",
            "\"threshold\": 0.05",
            "\"pass\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
