//! Serial-vs-parallel sweep throughput benchmark.
//!
//! Times the same Mauritius scenario-4 sweep through the serial loop and
//! the [`flagsim_core::sweep::SweepRunner`] parallel path, checks that
//! the two produce identical statistics (the engine's determinism
//! contract), and reports throughput in repetitions per second: the
//! fastest and the median of several trials, each repeating the sweep
//! for at least a second (see [`crate::measure`]). The `sweep_bench`
//! binary writes the result as `BENCH_sweep.json`.

use crate::measure::{host_json, Timing};
use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::faults::FaultPlan;
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_flags::library;
use std::fmt::Write as _;
use std::time::Instant;

/// One serial-vs-parallel measurement.
#[derive(Debug, Clone)]
pub struct SweepBench {
    /// Repetitions per sweep.
    pub reps: u64,
    /// Worker threads on the parallel path.
    pub jobs: usize,
    /// Where it ran, as JSON ([`host_json`]). Its `nproc` is the ceiling
    /// on any real speedup; on a single-core box the parallel path can
    /// only tie the serial one.
    pub host: String,
    /// Seconds per serial sweep.
    pub serial: Timing,
    /// Seconds per parallel sweep.
    pub parallel: Timing,
    /// Best parallel throughput over best serial throughput.
    pub speedup: f64,
    /// Whether the parallel sweep's statistics were bit-for-bit
    /// identical to the serial sweep's — a correctness gate, not a
    /// performance number.
    pub deterministic: bool,
}

/// Run the benchmark: a 4-student Mauritius scenario-4 sweep of `reps`
/// repetitions, serial then with `jobs` workers, each timed over
/// `trials` trials of at least `min_trial_secs`. Panics if a sweep
/// fails outright (this is a measurement of the healthy path).
pub fn run_sweep_bench(reps: u64, jobs: usize, trials: u32, min_trial_secs: f64) -> SweepBench {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(0x5EED);
    let scenario = Scenario::fig1(4);
    let plan = FaultPlan::none();
    let sweep = |jobs| {
        SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .team_size(4)
            .reps(reps)
            .plan(&plan)
            .jobs(jobs)
            .run()
            .expect("sweep failed")
    };
    let timed = |jobs| {
        move || {
            let t = Instant::now();
            sweep(jobs);
            t.elapsed().as_secs_f64()
        }
    };
    let serial = Timing::measure(trials, min_trial_secs, timed(1));
    let parallel = Timing::measure(trials, min_trial_secs, timed(jobs));
    let (a, b) = (sweep(1), sweep(jobs));
    SweepBench {
        reps,
        jobs,
        host: host_json(),
        speedup: serial.min_secs / parallel.min_secs.max(f64::MIN_POSITIVE),
        serial,
        parallel,
        deterministic: a.completion == b.completion && a.waiting == b.waiting,
    }
}

impl SweepBench {
    /// Hand-rolled JSON (the build environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"sweep_serial_vs_parallel\",");
        let _ = writeln!(out, "  \"scenario\": \"scenario 4: vertical slices\",");
        let _ = writeln!(out, "  \"flag\": \"Mauritius\",");
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"host\": {},", self.host);
        let _ = writeln!(out, "  \"serial\": {},", self.serial.to_json(self.reps));
        let _ = writeln!(out, "  \"parallel\": {},", self.parallel.to_json(self.reps));
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup);
        let _ = writeln!(out, "  \"deterministic\": {}", self.deterministic);
        out.push('}');
        out
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "sweep bench: {} reps, {} job(s), host {}\n\
             serial   {}\n\
             parallel {}\n\
             speedup  {:.2}x  deterministic: {}",
            self.reps,
            self.jobs,
            self.host,
            self.serial.to_json(self.reps),
            self.parallel.to_json(self.reps),
            self.speedup,
            self.deterministic,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_is_deterministic_and_serializes() {
        let b = run_sweep_bench(6, 2, 1, 0.0);
        assert!(b.deterministic, "parallel sweep diverged from serial");
        assert_eq!(b.reps, 6);
        assert!(b.serial.min_secs > 0.0 && b.parallel.min_secs > 0.0);
        let json = b.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"reps\": 6",
            "\"jobs\": 2",
            "\"nproc\":",
            "\"speedup\":",
            "\"deterministic\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
