//! Serial-vs-parallel sweep throughput benchmark.
//!
//! Times the same Mauritius scenario-4 sweep through the serial loop and
//! the [`flagsim_core::sweep::SweepRunner`] parallel path, checks that
//! the two produce identical statistics (the engine's determinism
//! contract), and reports throughput in repetitions per second. The
//! `sweep_bench` binary writes the result as `BENCH_sweep.json`.

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
    /// CPU cores the machine exposes (`available_parallelism`) — the
    /// ceiling on any real speedup; on a single-core box the parallel
    /// path can only tie the serial one.
    pub cores: usize,
    /// Serial wall-clock seconds.
    pub serial_secs: f64,
    /// Parallel wall-clock seconds.
    pub parallel_secs: f64,
    /// Serial repetitions per second.
    pub serial_throughput: f64,
    /// Parallel repetitions per second.
    pub parallel_throughput: f64,
    /// `parallel_throughput / serial_throughput`.
    pub speedup: f64,
    /// Whether the parallel sweep's statistics were bit-for-bit
    /// identical to the serial sweep's — a correctness gate, not a
    /// performance number.
    pub deterministic: bool,
}

/// Run the benchmark: a 4-student Mauritius scenario-4 sweep of `reps`
/// repetitions, serial then with `jobs` workers. Panics if either sweep
/// fails outright (this is a measurement of the healthy path).
pub fn run_sweep_bench(reps: u64, jobs: usize) -> SweepBench {
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
    };

    let t0 = Instant::now();
    let serial = sweep(1).expect("serial sweep failed");
    let serial_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = sweep(jobs).expect("parallel sweep failed");
    let parallel_secs = t1.elapsed().as_secs_f64();

    let deterministic =
        parallel.completion == serial.completion && parallel.waiting == serial.waiting;
    let serial_throughput = reps as f64 / serial_secs.max(f64::MIN_POSITIVE);
    let parallel_throughput = reps as f64 / parallel_secs.max(f64::MIN_POSITIVE);
    SweepBench {
        reps,
        jobs,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serial_secs,
        parallel_secs,
        serial_throughput,
        parallel_throughput,
        speedup: parallel_throughput / serial_throughput,
        deterministic,
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
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"serial_secs\": {:.6},", self.serial_secs);
        let _ = writeln!(out, "  \"parallel_secs\": {:.6},", self.parallel_secs);
        let _ = writeln!(
            out,
            "  \"serial_throughput_reps_per_sec\": {:.3},",
            self.serial_throughput
        );
        let _ = writeln!(
            out,
            "  \"parallel_throughput_reps_per_sec\": {:.3},",
            self.parallel_throughput
        );
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup);
        let _ = writeln!(out, "  \"deterministic\": {}", self.deterministic);
        out.push('}');
        out
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "sweep bench: {} reps, {} job(s) on {} core(s)\n\
             serial   {:.3}s  ({:.1} reps/s)\n\
             parallel {:.3}s  ({:.1} reps/s)\n\
             speedup  {:.2}x  deterministic: {}",
            self.reps,
            self.jobs,
            self.cores,
            self.serial_secs,
            self.serial_throughput,
            self.parallel_secs,
            self.parallel_throughput,
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
        let b = run_sweep_bench(6, 2);
        assert!(b.deterministic, "parallel sweep diverged from serial");
        assert_eq!(b.reps, 6);
        assert!(b.serial_secs > 0.0 && b.parallel_secs > 0.0);
        let json = b.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"reps\": 6",
            "\"jobs\": 2",
            "\"cores\":",
            "\"speedup\":",
            "\"deterministic\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
