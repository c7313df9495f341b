//! Integration tests for the shard layer's two headline guarantees:
//!
//! 1. the lease/retry state machine walks the full failure arc —
//!    heartbeat miss → timeout → (backoff) → reassignment — correctly
//!    under every `RecoveryPolicy`, on a deterministic fake clock;
//! 2. a campaign killed at *any* checkpoint boundary resumes to final
//!    statistics bit-identical to an uninterrupted run, on one local
//!    thread or several.

use flagsim_core::faults::RecoveryPolicy;
use flagsim_metrics::RunStats;
use flagsim_shard::{
    run_sweep, Checkpoint, CoordinatorConfig, JobSpec, LeaseConfig, LeaseGrant, LeaseTable,
    ObsHub, ShardOutcome,
};

fn job(reps: u64) -> JobSpec {
    JobSpec {
        scenario: "4".into(),
        flag: "Mauritius".into(),
        kind: "dauber".into(),
        seed: 0xF1A6,
        reps,
        team: 4,
        warmup: false,
    }
}

fn assert_bits_equal(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.n, b.n, "{what}: n");
    for (name, x, y) in [
        ("mean", a.mean, b.mean),
        ("stddev", a.stddev, b.stddev),
        ("min", a.min, b.min),
        ("max", a.max, b.max),
        ("median", a.median, b.median),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name} differs bit-wise");
    }
}

fn completed(outcome: ShardOutcome) -> (RunStats, RunStats) {
    match outcome {
        ShardOutcome::Completed(r) => (r.completion, r.waiting),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// The full failure arc on a fake clock, for each recovery policy:
/// grant → partial progress → silence → deadline kill → what happens to
/// the orphaned reps.
#[test]
fn lease_failure_arc_under_each_policy() {
    let base = LeaseConfig {
        chunk: 5,
        heartbeat_timeout_ms: 100,
        backoff_base_ms: 10,
        backoff_cap_ms: 80,
        max_connect_attempts: 3,
        policy: RecoveryPolicy::Rebalance,
    };

    // Rebalance: the survivor inherits the orphaned range immediately.
    let mut t = LeaseTable::new(10, base.clone());
    let a = t.add_worker("a");
    let b = t.add_worker("b");
    t.on_connected(a, 0);
    t.on_connected(b, 0);
    assert_eq!(t.request_lease(a, 0), LeaseGrant::Range { start: 0, end: 5 });
    assert_eq!(t.request_lease(b, 0), LeaseGrant::Range { start: 5, end: 10 });
    t.on_rep_done(a, 0, 40);
    t.on_rep_done(a, 1, 80); // a's last sign of life: t=80
    for (rep, now) in [(5, 50), (6, 100), (7, 150), (8, 181)] {
        t.on_rep_done(b, rep, now);
    }
    assert_eq!(t.check_deadlines(180), vec![], "a is 100ms quiet at 180 — alive");
    assert_eq!(t.check_deadlines(181), vec![a], "101ms of silence kills a");
    t.on_rep_done(b, 9, 185); // b finishes its own lease...
    assert_eq!(
        t.request_lease(b, 186),
        LeaseGrant::Range { start: 2, end: 5 },
        "…and immediately inherits a's unfinished reps"
    );

    // SpareSwap: the orphaned range is embargoed for the replacement
    // delay, then grantable.
    let mut t = LeaseTable::new(5, LeaseConfig {
        policy: RecoveryPolicy::SpareSwap { replacement_delay_secs: 2.0 },
        ..base.clone()
    });
    let a = t.add_worker("a");
    let b = t.add_worker("b");
    t.on_connected(a, 0);
    t.on_connected(b, 0);
    assert_eq!(t.request_lease(a, 0), LeaseGrant::Range { start: 0, end: 5 });
    assert_eq!(t.check_deadlines(101), vec![a]);
    assert_eq!(t.request_lease(b, 102), LeaseGrant::Wait, "embargo holds");
    assert_eq!(t.request_lease(b, 2100), LeaseGrant::Wait, "still holds at 2.0s-ε");
    assert_eq!(
        t.request_lease(b, 2101),
        LeaseGrant::Range { start: 0, end: 5 },
        "replacement delay elapsed"
    );

    // AbortAndReport: the campaign stops granting and carries a reason.
    let mut t = LeaseTable::new(5, LeaseConfig {
        policy: RecoveryPolicy::AbortAndReport,
        ..base
    });
    let a = t.add_worker("a");
    let b = t.add_worker("b");
    t.on_connected(a, 0);
    t.on_connected(b, 0);
    assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
    assert_eq!(t.check_deadlines(101), vec![a]);
    let reason = t.abort_reason().expect("abort recorded");
    assert!(reason.contains("heartbeat timeout"), "{reason}");
    assert_eq!(t.request_lease(b, 102), LeaseGrant::Finished);
}

/// Backoff between reconnect attempts is exponential, capped, and
/// budget-limited — on the same fake clock.
#[test]
fn reconnect_backoff_schedule_is_deterministic() {
    let mut t = LeaseTable::new(1, LeaseConfig {
        chunk: 1,
        heartbeat_timeout_ms: 100,
        backoff_base_ms: 7,
        backoff_cap_ms: 20,
        max_connect_attempts: 5,
        policy: RecoveryPolicy::Rebalance,
    });
    let w = t.add_worker("w");
    let mut now = 0;
    let mut delays = Vec::new();
    for _ in 0..5 {
        assert!(t.may_connect(w, now));
        t.on_connect_failed(w, now);
        if let Some(at) = t.next_attempt_at(w) {
            delays.push(at - now);
            now = at;
        }
    }
    assert_eq!(delays, vec![7, 14, 20, 20], "base, doubled, then capped twice");
    assert!(t.is_dead(w), "fifth failure exhausts the budget");
    assert!(!t.may_connect(w, now + 1000));
}

/// The headline durability gate: kill the campaign after merging k reps
/// — for every k — resume from the checkpoint on disk, and demand final
/// statistics bit-identical to a never-interrupted run. Run on one
/// local thread, where the merge watermark advances one rep at a time
/// so the kill lands exactly at k, and on three, where the halt hook
/// fires under the executor's lock while other reps are in flight.
#[test]
fn crash_at_every_checkpoint_boundary_resumes_bit_identically() {
    let reps = 8;
    let j = job(reps);
    let (fresh_c, fresh_w) = completed(
        run_sweep(&j, &CoordinatorConfig::default()).expect("uninterrupted sweep"),
    );
    let dir = std::env::temp_dir().join(format!("flagsim-killpoints-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for local_jobs in [1, 3] {
        for kill_after in 1..reps {
            let at = format!("kill point {kill_after}, {local_jobs} job(s)");
            let ckpt = dir.join(format!("kill-{kill_after}-{local_jobs}.ckpt"));
            let halted = run_sweep(
                &j,
                &CoordinatorConfig {
                    checkpoint_path: Some(ckpt.clone()),
                    checkpoint_every: 1,
                    halt_after_reps: Some(kill_after),
                    local_jobs,
                    ..CoordinatorConfig::default()
                },
            )
            .expect("halted sweep");
            match halted {
                ShardOutcome::Halted { merged } => {
                    assert!(merged >= kill_after, "{at}: merged {merged}");
                    if local_jobs == 1 {
                        assert_eq!(merged, kill_after, "{at}");
                    }
                }
                other => panic!("{at}: expected halt, got {other:?}"),
            }
            let ck = Checkpoint::load(&ckpt).expect("checkpoint loads");
            assert!(
                ck.watermark() >= kill_after,
                "{at}: watermark {} should cover the kill point",
                ck.watermark()
            );
            let (c, w) = completed(
                run_sweep(
                    &j,
                    &CoordinatorConfig {
                        resume: Some(ck),
                        local_jobs,
                        ..CoordinatorConfig::default()
                    },
                )
                .unwrap_or_else(|e| panic!("resume from {at}: {e}")),
            );
            assert_bits_equal(&c, &fresh_c, &format!("completion after {at}"));
            assert_bits_equal(&w, &fresh_w, &format!("waiting after {at}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The merge publishes what the sweep dashboard reads on every path: a
/// local campaign leaves the live mean gauge set, and merged failures
/// reach the fleet view the dashboard's fleet panel is polled from.
#[test]
fn local_campaign_feeds_the_dashboard_gauges_and_failure_count() {
    let collector = flagsim_telemetry::Collector::install();
    let hub = ObsHub::new();
    let cfg = CoordinatorConfig {
        local_jobs: 2,
        obs: Some(hub.clone()),
        ..CoordinatorConfig::default()
    };
    completed(run_sweep(&job(6), &cfg).expect("local sweep"));
    let mean = collector.metrics().gauge("sweep.completion.mean_s").get();
    assert!(mean > 0.0, "sweep.completion.mean_s = {mean}");
    assert_eq!(hub.with(|fv| (fv.merged, fv.failed)), (6, 0));
    // Scenario 3 needs four students: every rep of a team of 2 fails.
    let understaffed = JobSpec { scenario: "3".into(), team: 2, ..job(4) };
    let err = run_sweep(&understaffed, &cfg).expect_err("every rep fails");
    assert!(err.starts_with("all 4 repetitions failed; first: rep 0: "), "{err}");
    assert_eq!(hub.with(|fv| (fv.merged, fv.failed)), (4, 4));
    let _ = collector.finish();
}

/// Resume composes: kill a resumed campaign again, resume again.
#[test]
fn double_kill_double_resume_still_bit_identical() {
    let j = job(9);
    let (fresh_c, _) = completed(
        run_sweep(&j, &CoordinatorConfig::default()).expect("uninterrupted sweep"),
    );
    let dir = std::env::temp_dir().join(format!("flagsim-doublekill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt = dir.join("sweep.ckpt");
    let base = CoordinatorConfig {
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 1,
        ..CoordinatorConfig::default()
    };
    let first = run_sweep(
        &j,
        &CoordinatorConfig { halt_after_reps: Some(3), ..base.clone() },
    )
    .expect("first kill");
    assert!(matches!(first, ShardOutcome::Halted { .. }));
    let second = run_sweep(
        &j,
        &CoordinatorConfig {
            resume: Some(Checkpoint::load(&ckpt).expect("first checkpoint")),
            halt_after_reps: Some(6),
            ..base.clone()
        },
    )
    .expect("second kill");
    assert!(matches!(second, ShardOutcome::Halted { .. }));
    let (c, _) = completed(
        run_sweep(
            &j,
            &CoordinatorConfig {
                resume: Some(Checkpoint::load(&ckpt).expect("second checkpoint")),
                ..base
            },
        )
        .expect("final resume"),
    );
    assert_bits_equal(&c, &fresh_c, "completion after two kills");
    std::fs::remove_dir_all(&dir).ok();
}
