//! Sharded-sweep correctness-and-throughput benchmark.
//!
//! Three measurements over the same Mauritius scenario-4 job, with two
//! **hard gates** (correctness, not performance):
//!
//! 1. serial in-process baseline (wall-clock reference);
//! 2. a multi-worker sharded run over real TCP worker sessions —
//!    gate: statistics bit-for-bit identical to serial;
//! 3. a kill-mid-sweep → resume cycle — gate: the resumed campaign's
//!    statistics AND its final checkpoint file are bit-identical to an
//!    uninterrupted run's.
//!
//! The first two are timed as the fastest and the median of several
//! trials, each repeating the campaign for at least a second (see
//! [`crate::measure`]); the sharded timing leaves out spawning and
//! joining the workers.
//!
//! The `shard_bench` binary writes the result as `BENCH_shard.json` and
//! exits non-zero if either gate fails.

use crate::measure::{host_json, Timing};
use flagsim_metrics::RunStats;
use flagsim_shard::{
    run_sweep, serve, Checkpoint, CoordinatorConfig, JobSpec, LeaseConfig, ShardOutcome,
    WorkerOptions,
};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::time::Instant;

/// One sharded-sweep benchmark run.
#[derive(Debug, Clone)]
pub struct ShardBench {
    /// Repetitions per campaign.
    pub reps: u64,
    /// TCP worker sessions in the sharded run.
    pub workers: usize,
    /// Reps per lease grant.
    pub chunk: u64,
    /// Kill points exercised by the kill/resume gate.
    pub kill_points: u64,
    /// Where it ran, as JSON ([`host_json`]).
    pub host: String,
    /// Seconds per serial in-process campaign.
    pub serial: Timing,
    /// Seconds per multi-worker sharded campaign.
    pub sharded: Timing,
    /// Fastest serial over fastest sharded campaign (workers are
    /// processes-in-threads here, so this measures protocol overhead
    /// more than speedup).
    pub speedup: f64,
    /// Gate: sharded statistics bit-identical to serial.
    pub sharded_identical: bool,
    /// Gate: every kill → resume cycle reproduced the uninterrupted
    /// statistics bit-for-bit and the final checkpoint files matched
    /// byte-for-byte.
    pub kill_resume_identical: bool,
}

impl ShardBench {
    /// Whether both correctness gates passed.
    pub fn gates_pass(&self) -> bool {
        self.sharded_identical && self.kill_resume_identical
    }

    /// Hand-rolled JSON (the build environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"shard_multiworker_and_resume\",");
        let _ = writeln!(out, "  \"scenario\": \"scenario 4: vertical slices\",");
        let _ = writeln!(out, "  \"flag\": \"Mauritius\",");
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"chunk\": {},", self.chunk);
        let _ = writeln!(out, "  \"kill_points\": {},", self.kill_points);
        let _ = writeln!(out, "  \"host\": {},", self.host);
        let _ = writeln!(out, "  \"serial\": {},", self.serial.to_json(self.reps));
        let _ = writeln!(out, "  \"sharded\": {},", self.sharded.to_json(self.reps));
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup);
        let _ = writeln!(out, "  \"sharded_identical\": {},", self.sharded_identical);
        let _ = writeln!(
            out,
            "  \"kill_resume_identical\": {}",
            self.kill_resume_identical
        );
        out.push('}');
        out
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "shard bench: {} reps, {} worker(s), chunk {}, {} kill point(s), host {}\n\
             serial  {}\n\
             sharded {}  (speedup {:.2}x)\n\
             gates: sharded bit-identical: {}  kill/resume bit-identical: {}",
            self.reps,
            self.workers,
            self.chunk,
            self.kill_points,
            self.host,
            self.serial.to_json(self.reps),
            self.sharded.to_json(self.reps),
            self.speedup,
            self.sharded_identical,
            self.kill_resume_identical,
        )
    }
}

/// The Mauritius scenario-4 campaign the shard and observability
/// benches sweep.
pub(crate) fn bench_job(seed: u64, reps: u64) -> JobSpec {
    JobSpec {
        scenario: "4".into(),
        flag: "Mauritius".into(),
        kind: "dauber".into(),
        seed,
        reps,
        team: 4,
        warmup: false,
    }
}

pub(crate) fn stats_bits_equal(a: &RunStats, b: &RunStats) -> bool {
    a.n == b.n
        && a.mean.to_bits() == b.mean.to_bits()
        && a.stddev.to_bits() == b.stddev.to_bits()
        && a.min.to_bits() == b.min.to_bits()
        && a.max.to_bits() == b.max.to_bits()
        && a.median.to_bits() == b.median.to_bits()
}

pub(crate) fn completed(outcome: ShardOutcome) -> (RunStats, RunStats) {
    match outcome {
        ShardOutcome::Completed(r) => (r.completion, r.waiting),
        other => panic!("bench expected completion, got {other:?}"),
    }
}

/// Spawn `n` in-process TCP workers (`--once` semantics), each dropping
/// every `drop_telemetry_every`-th telemetry batch (0: none), and
/// return their endpoints plus join handles.
pub(crate) fn spawn_workers(
    n: usize,
    drop_telemetry_every: u64,
) -> (Vec<String>, Vec<std::thread::JoinHandle<()>>) {
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind bench worker");
        endpoints.push(listener.local_addr().expect("worker addr").to_string());
        handles.push(std::thread::spawn(move || {
            let opts = WorkerOptions {
                once: true,
                name: format!("bench-w{i}"),
                quiet: true,
                drop_telemetry_every,
            };
            serve(&listener, &opts).ok();
        }));
    }
    (endpoints, handles)
}

/// Join the workers [`spawn_workers`] started. A campaign can finish
/// before some worker's session begins (another worker took every
/// lease); that worker still waits in `accept`, so an empty connection
/// wakes it first.
pub(crate) fn join_workers(endpoints: &[String], handles: Vec<std::thread::JoinHandle<()>>) {
    for (addr, h) in endpoints.iter().zip(handles) {
        if !h.is_finished() {
            let _ = std::net::TcpStream::connect(addr);
        }
        h.join().expect("bench worker thread");
    }
}

/// Run the benchmark: serial baseline and `workers`-way sharded run,
/// each timed over `trials` trials of at least `min_trial_secs`, then
/// `kill_points` kill → resume cycles, all over a `reps`-repetition
/// Mauritius scenario-4 campaign. Panics only on infrastructure errors
/// (bind/spawn/IO); gate failures are reported in the result.
pub fn run_shard_bench(
    reps: u64,
    workers: usize,
    kill_points: u64,
    chunk: u64,
    trials: u32,
    min_trial_secs: f64,
) -> ShardBench {
    let job = bench_job(0x5EED, reps);
    let dir = std::env::temp_dir().join(format!("flagsim-shard-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");

    // 1. Serial baseline — also writes the reference final checkpoint.
    let fresh_ckpt = dir.join("fresh.ckpt");
    let mut serial_stats = None;
    let serial = Timing::measure(trials, min_trial_secs, || {
        let t = Instant::now();
        let outcome = run_sweep(
            &job,
            &CoordinatorConfig {
                checkpoint_path: Some(fresh_ckpt.clone()),
                ..CoordinatorConfig::default()
            },
        );
        let secs = t.elapsed().as_secs_f64();
        serial_stats = Some(completed(outcome.expect("serial baseline sweep")));
        secs
    });
    let (serial_c, serial_w) = serial_stats.expect("at least one serial run");

    // 2. Multi-worker sharded run over real TCP sessions.
    let mut shard_stats = None;
    let sharded = Timing::measure(trials, min_trial_secs, || {
        let (endpoints, handles) = spawn_workers(workers, 0);
        let t = Instant::now();
        let outcome = run_sweep(
            &job,
            &CoordinatorConfig {
                endpoints: endpoints.clone(),
                lease: LeaseConfig { chunk, ..LeaseConfig::default() },
                ..CoordinatorConfig::default()
            },
        );
        let secs = t.elapsed().as_secs_f64();
        join_workers(&endpoints, handles);
        shard_stats = Some(completed(outcome.expect("sharded sweep")));
        secs
    });
    let (shard_c, shard_w) = shard_stats.expect("at least one sharded run");
    let sharded_identical =
        stats_bits_equal(&shard_c, &serial_c) && stats_bits_equal(&shard_w, &serial_w);

    // 3. Kill mid-sweep at several points, resume, demand bit-identity —
    //    of the statistics and of the final checkpoint file.
    let fresh_bytes = std::fs::read(&fresh_ckpt).expect("read fresh checkpoint");
    let mut kill_resume_identical = true;
    for k in 0..kill_points {
        // Spread kill points across the campaign, never at 0 or total.
        let kill_after = 1 + k * reps.saturating_sub(2) / kill_points.max(1);
        let ckpt = dir.join(format!("kill-{k}.ckpt"));
        let halted = run_sweep(
            &job,
            &CoordinatorConfig {
                checkpoint_path: Some(ckpt.clone()),
                checkpoint_every: 1,
                halt_after_reps: Some(kill_after),
                ..CoordinatorConfig::default()
            },
        )
        .expect("killable sweep");
        if !matches!(halted, ShardOutcome::Halted { .. }) {
            kill_resume_identical = false;
            continue;
        }
        let resume = Checkpoint::load(&ckpt).expect("load kill checkpoint");
        let (c, w) = completed(
            run_sweep(
                &job,
                &CoordinatorConfig {
                    resume: Some(resume),
                    checkpoint_path: Some(ckpt.clone()),
                    ..CoordinatorConfig::default()
                },
            )
            .expect("resumed sweep"),
        );
        let stats_ok = stats_bits_equal(&c, &serial_c) && stats_bits_equal(&w, &serial_w);
        let file_ok = std::fs::read(&ckpt).expect("read resumed checkpoint") == fresh_bytes;
        if !(stats_ok && file_ok) {
            kill_resume_identical = false;
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    ShardBench {
        reps,
        workers,
        chunk,
        kill_points,
        host: host_json(),
        speedup: serial.min_secs / sharded.min_secs.max(f64::MIN_POSITIVE),
        serial,
        sharded,
        sharded_identical,
        kill_resume_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_passes_both_gates_and_serializes() {
        let b = run_shard_bench(8, 2, 3, 2, 1, 0.0);
        assert!(b.sharded_identical, "sharded stats diverged from serial");
        assert!(b.kill_resume_identical, "kill/resume cycle diverged");
        assert!(b.gates_pass());
        let json = b.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"reps\": 8",
            "\"workers\": 2",
            "\"kill_points\": 3",
            "\"sharded_identical\": true",
            "\"kill_resume_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
