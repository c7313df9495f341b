//! Telemetry properties over real sweeps: the Chrome export must always
//! be well-formed JSON with balanced, name-matched B/E pairs, and the
//! canonical span tree must not depend on the worker count — a sweep at
//! `--jobs 1` and `--jobs 4` records the same logical work.

use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_flags::library;
use flagsim_telemetry::{json, Collector, SpanSet};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialize properties that install the process-global collector: two
/// concurrent installs would steal each other's spans.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Run a scenario sweep under a fresh collector and return its spans.
fn sweep_spans(scenario: &Scenario, seed: u64, reps: u64, jobs: usize) -> SpanSet {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default().with_seed(seed);
    let collector = Collector::install();
    let result = SweepRunner::new(scenario, &flag, &kit, &cfg)
        .team_size(4)
        .reps(reps)
        .jobs(jobs)
        .run();
    let set = collector.finish();
    result.expect("sweep succeeds");
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chrome_export_is_wellformed_and_balanced(
        seed in any::<u64>(),
        reps in 1u64..6,
        scenario_n in 1u8..5,
        jobs in 1usize..5,
    ) {
        let _serial = telemetry_lock();
        let set = sweep_spans(&Scenario::fig1(scenario_n), seed, reps, jobs);
        prop_assert!(!set.is_empty(), "a sweep must record spans");
        let trace = set.chrome_trace();
        let events = json::validate_chrome_trace(&trace).expect("valid chrome trace");
        prop_assert!(events > 0, "trace has no events:\n{trace}");
    }

    #[test]
    fn canonical_tree_is_job_count_invariant(
        seed in any::<u64>(),
        reps in 1u64..6,
        scenario_n in 1u8..5,
    ) {
        let _serial = telemetry_lock();
        let scenario = Scenario::fig1(scenario_n);
        let serial = sweep_spans(&scenario, seed, reps, 1);
        let par = sweep_spans(&scenario, seed, reps, 4);
        prop_assert_eq!(serial.canonical_tree(), par.canonical_tree());
    }
}
