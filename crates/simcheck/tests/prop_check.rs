//! Property tests for the simcheck analyzers: the race detector's
//! verdicts on real runs, and the static deadlock checker's agreement
//! with the runtime stall detector.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::work::PreparedFlag;
use flagsim_core::{run_activity, ActivityConfig, ActivityOutcome, FaultPlan, Scenario, TeamKit};
use flagsim_flags::{library, FlagSpec, Layer, Shape};
use flagsim_grid::{CellId, Color};
use flagsim_simcheck::{check_run, demo_deadlock_seqs, LockOrderGraph};
use proptest::prelude::*;

/// The six scenarios `flagsim` ships (1–4, pipelined, alternating).
fn builtin(idx: usize, flag: &PreparedFlag) -> Scenario {
    match idx {
        0..=3 => Scenario::fig1(idx as u8 + 1),
        4 => Scenario::pipelined_slices(flag, 4, 4),
        _ => Scenario::alternating_slices(),
    }
}

/// A one-cell red flag: the smallest possible shared write target.
fn one_cell_flag() -> PreparedFlag {
    PreparedFlag::new(&FlagSpec::new(
        "shared cell",
        1,
        1,
        vec![Layer::new("bg", Color::Red, Shape::Full)],
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The built-in scenarios partition the flag and hand single markers
    /// around: every same-cell pair is trivially absent and every write
    /// is lock-ordered — no run, on any seed, has a data race.
    #[test]
    fn builtin_scenarios_never_race(idx in 0usize..6, seed in any::<u64>()) {
        let spec = library::mauritius();
        let flag = PreparedFlag::new(&spec);
        let scenario = builtin(idx, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let size = scenario.team_size(&flag, &cfg);
        let mut team: Vec<StudentProfile> = (1..=size)
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let report = scenario.run(&flag, &mut team, &kit, &cfg).expect("run succeeds");
        let hb = check_run(&report);
        prop_assert!(
            hb.races.is_empty(),
            "{} seed {seed}: {:?}",
            scenario.name,
            hb.races
        );
    }

    /// Two students told to color the *same* cell, with two
    /// interchangeable red markers in the kit: the capacity-2 pool
    /// provides no release→acquire ordering between them, so exactly one
    /// SC301 race is reported on every seed.
    #[test]
    fn shared_cell_with_pooled_markers_always_races(seed in any::<u64>()) {
        let flag = one_cell_flag();
        let item = flag.item(CellId(0)).expect("one red cell");
        let assignments = vec![vec![item], vec![item]];
        let mut team: Vec<StudentProfile> = (1..=2)
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &[Color::Red])
            .with_count(Color::Red, 2);
        let cfg = ActivityConfig::default().with_seed(seed);
        let none = FaultPlan::none();
        let report = run_activity("shared", &flag, &assignments, &mut team, &kit, &cfg, &none, None)
            .and_then(ActivityOutcome::into_report)
            .expect("overlapping assignments still run");
        let hb = check_run(&report);
        prop_assert_eq!(hb.races.len(), 1, "seed {}: {:?}", seed, hb.races);
        prop_assert_eq!(hb.races[0].id, "SC301");
        prop_assert!(
            hb.races[0].detail.iter().any(|l| l.contains("tie")
                || l.contains("concurrent under every event ordering")),
            "the race explains what hid it: {:?}",
            hb.races[0].detail
        );
    }

    /// The same shared cell through the default single red marker: the
    /// mutex hand-off orders the writes — never a race, on any seed.
    #[test]
    fn shared_cell_with_single_marker_never_races(seed in any::<u64>()) {
        let flag = one_cell_flag();
        let item = flag.item(CellId(0)).expect("one red cell");
        let assignments = vec![vec![item], vec![item]];
        let mut team: Vec<StudentProfile> = (1..=2)
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &[Color::Red]);
        let cfg = ActivityConfig::default().with_seed(seed);
        let none = FaultPlan::none();
        let report = run_activity("serialized", &flag, &assignments, &mut team, &kit, &cfg, &none, None)
            .and_then(ActivityOutcome::into_report)
            .expect("run succeeds");
        let hb = check_run(&report);
        prop_assert!(hb.races.is_empty(), "seed {}: {:?}", seed, hb.races);
    }
}

/// The static lock-order cycle on the demo-deadlock drill names exactly
/// the resources the engine's runtime stall detector reports in its
/// wait-for graph when the same drill runs live.
#[test]
fn static_deadlock_cycle_matches_runtime_wait_for_graph() {
    use flagsim_desim::{Action, Engine, FnProcess, SimDuration, SimError};
    use std::collections::{BTreeSet, VecDeque};

    let graph = LockOrderGraph::build(&demo_deadlock_seqs());
    let cycles = graph.cycles();
    assert_eq!(cycles.len(), 1, "{cycles:?}");
    let static_cycle: BTreeSet<String> = cycles[0].iter().cloned().collect();

    // The same drill, live (mirrors `flagsim faults --demo-deadlock`).
    let mut engine = Engine::new();
    let red = engine.add_resource("red marker", SimDuration::ZERO);
    let blue = engine.add_resource("blue marker", SimDuration::ZERO);
    let script = |actions: Vec<Action>| {
        let mut queue: VecDeque<Action> = actions.into();
        move |_now| queue.pop_front().unwrap_or(Action::Done)
    };
    engine.add_process(Box::new(FnProcess::new(
        "grabs-red-then-blue",
        script(vec![
            Action::Acquire(red),
            Action::Work(SimDuration::from_secs_f64(1.0)),
            Action::Acquire(blue),
        ]),
    )));
    engine.add_process(Box::new(FnProcess::new(
        "grabs-blue-then-red",
        script(vec![
            Action::Acquire(blue),
            Action::Work(SimDuration::from_secs_f64(1.0)),
            Action::Acquire(red),
        ]),
    )));
    let Err(SimError::Stalled { waiters }) = engine.try_run() else {
        panic!("the drill must stall");
    };
    let runtime_cycle: BTreeSet<String> = waiters
        .edges
        .iter()
        .map(|e| e.resource_label.clone())
        .collect();
    assert_eq!(
        static_cycle, runtime_cycle,
        "the pre-run prediction and the runtime diagnosis disagree"
    );
}
