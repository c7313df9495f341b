//! One statistic on every sweep path. A job swept serially, on three
//! threads, sharded across worker processes, killed and resumed from
//! its checkpoint, with reports retained or not, yields `SweepResult`
//! statistics equal bit for bit in every field — median and stddev
//! included — because every path folds through the same merge into the
//! same accumulators.

use flagsim_core::sweep::{MergeState, RepOutcome, SweepError, SweepFailure, SweepResult};
use flagsim_metrics::RunStats;
use flagsim_shard::{
    run_sweep, serve, Checkpoint, CheckpointLog, CoordinatorConfig, JobSpec, LeaseConfig,
    ShardOutcome, WorkerOptions,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every field of a statistics row, as bits.
fn bits(s: &RunStats) -> [u64; 6] {
    [
        s.n as u64,
        s.mean.to_bits(),
        s.stddev.to_bits(),
        s.min.to_bits(),
        s.median.to_bits(),
        s.max.to_bits(),
    ]
}

/// What a sweep path's result is compared on: both rows' bits and the
/// failures, or the error when no rep succeeded.
type Summary = Result<([u64; 6], [u64; 6], Vec<SweepFailure>), String>;

fn summary(result: Result<SweepResult, SweepError>) -> Summary {
    result
        .map(|r| (bits(&r.completion), bits(&r.waiting), r.failures))
        .map_err(|e| e.to_string())
}

fn shard_summary(outcome: Result<ShardOutcome, String>) -> Summary {
    match outcome? {
        ShardOutcome::Completed(r) => summary(Ok(r)),
        other => panic!("expected a completed campaign, got {other:?}"),
    }
}

/// A fresh file path under the temp dir, unique per call.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("flagsim-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{tag}-{}.ckpt", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Sweep `job` through the coordinator on `n` in-process `flagsim
/// worker` servers over loopback TCP.
fn sharded(job: &JobSpec, n: usize, chunk: u64) -> Summary {
    let mut endpoints = Vec::new();
    let mut servers = Vec::new();
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        endpoints.push(listener.local_addr().expect("addr").to_string());
        servers.push(std::thread::spawn(move || {
            let opts = WorkerOptions {
                once: true,
                name: format!("w{i}"),
                quiet: true,
                drop_telemetry_every: 0,
            };
            serve(&listener, &opts).ok();
        }));
    }
    let cfg = CoordinatorConfig {
        endpoints,
        lease: LeaseConfig { chunk, ..LeaseConfig::default() },
        ..CoordinatorConfig::default()
    };
    let out = shard_summary(run_sweep(job, &cfg));
    for s in servers {
        s.join().expect("worker thread");
    }
    out
}

/// Kill `job` once `cut` reps have merged, checkpointing every
/// `every <= cut` reps, then resume it from the checkpoint on disk.
fn killed_and_resumed(job: &JobSpec, cut: u64, every: u64, local_jobs: usize) -> Summary {
    let path = temp_path("kill");
    let halted = run_sweep(
        job,
        &CoordinatorConfig {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: every,
            halt_after_reps: Some(cut),
            local_jobs,
            ..CoordinatorConfig::default()
        },
    );
    assert!(matches!(halted, Ok(ShardOutcome::Halted { .. })), "expected a halt: {halted:?}");
    let resume = Checkpoint::load(&path).expect("a save precedes the halt");
    assert!(resume.watermark() >= every, "watermark {}", resume.watermark());
    let out = shard_summary(run_sweep(
        job,
        &CoordinatorConfig { resume: Some(resume), local_jobs, ..CoordinatorConfig::default() },
    ));
    std::fs::remove_file(&path).ok();
    out
}

/// A job the property draws: a built-in scenario with a team that can
/// staff it, or (one draw in six) one that cannot, so every rep fails.
fn job_strategy() -> impl Strategy<Value = JobSpec> {
    let cases = [("1", 1), ("2", 4), ("3", 4), ("4", 4), ("alternating", 4), ("3", 2)];
    (0usize..cases.len(), 0usize..2, any::<u64>(), 2u64..=24).prop_map(
        move |(i, kind, seed, reps)| JobSpec {
            scenario: cases[i].0.into(),
            flag: "Mauritius".into(),
            kind: ["thick", "dauber"][kind].into(),
            seed,
            reps,
            team: cases[i].1,
            warmup: false,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Serial, `--jobs 3`, sharded, killed-and-resumed, streaming and
    /// retained sweeps of one job agree in every bit of every field.
    #[test]
    fn every_sweep_path_gives_the_same_statistics(
        job in job_strategy(),
        cut_frac in 0.0f64..1.0,
        every in 1u64..=4,
        chunk in 1u64..=5,
    ) {
        let mat = job.materialize().expect("job materializes");
        let serial = summary(mat.runner().run());
        let retained = mat.runner().retain_reports(true).run();
        if let Ok(r) = &retained {
            // The retained reports are the reps behind the statistics,
            // and the median is the exact one over them.
            let completions: Vec<f64> = r.reports.iter().map(|x| x.completion_secs()).collect();
            prop_assert_eq!(completions.len(), r.completion.n);
            let exact = RunStats::from_sample(&completions);
            prop_assert_eq!(exact.median.to_bits(), r.completion.median.to_bits());
            prop_assert_eq!(exact.mean.to_bits(), r.completion.mean.to_bits());
        }
        let cut = 1 + ((job.reps - 1) as f64 * cut_frac) as u64;
        let paths = [
            ("retained", summary(retained)),
            ("--jobs 3", summary(mat.runner().jobs(3).run())),
            ("--jobs 3 retained", summary(mat.runner().jobs(3).retain_reports(true).run())),
            ("sharded", sharded(&job, 2, chunk)),
            ("resumed, 1 job", killed_and_resumed(&job, cut, every.min(cut), 1)),
            ("resumed, 3 jobs", killed_and_resumed(&job, cut, every.min(cut), 3)),
        ];
        for (name, got) in paths {
            prop_assert_eq!(&got, &serial, "{} differs from serial for {:?}", name, job);
        }
    }

    /// The checkpoint contract on arbitrary outcomes: cut a merge
    /// anywhere (saving along the way, so the file is a whole write plus
    /// appends), load the file, replay it, feed the rest, and the
    /// finished result equals the uninterrupted one bit for bit.
    #[test]
    fn checkpoint_cut_save_load_replay_equals_uninterrupted(
        draws in proptest::collection::vec((0.0f64..1e6, 0.0f64..1e3, 0u32..8), 1..120),
        cut_frac in 0.0f64..=1.0,
        every in 1usize..=9,
    ) {
        let n = draws.len() as u64;
        let outcome = |i: usize| {
            let (completion, waiting, fail) = draws[i];
            if fail == 0 {
                RepOutcome::Failed { error: format!("rep {i} failed") }
            } else {
                RepOutcome::Ok { completion, waiting }
            }
        };
        let mut whole = MergeState::new(n);
        for i in 0..draws.len() {
            whole.accept(i as u64, outcome(i));
        }
        let job = JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "thick".into(),
            seed: 1,
            reps: n,
            team: 4,
            warmup: false,
        };
        let cut = ((draws.len() as f64) * cut_frac) as usize;
        let path = temp_path("cut");
        let mut log = CheckpointLog::new(path.clone(), 0);
        let mut head = MergeState::new(n);
        for i in 0..cut {
            head.accept(i as u64, outcome(i));
            if (i + 1) % every == 0 {
                log.save(&job, &head).expect("periodic save");
            }
        }
        // A rep finished past a gap is buffered, not logged.
        if cut + 1 < draws.len() {
            head.accept(cut as u64 + 1, outcome(cut + 1));
        }
        log.save(&job, &head).expect("save at the cut");
        let ck = Checkpoint::load(&path).expect("checkpoint loads");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(ck.watermark(), cut as u64);
        let mut resumed = ck.into_merge();
        let owed = if cut as u64 == n { vec![] } else { vec![(cut as u64, n)] };
        prop_assert_eq!(resumed.missing_ranges(), owed);
        for i in cut..draws.len() {
            resumed.accept(i as u64, outcome(i));
        }
        prop_assert_eq!(summary(resumed.finish()), summary(whole.finish()));
    }
}
