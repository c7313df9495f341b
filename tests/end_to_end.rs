//! End-to-end integration: the whole stack, flag to report.
//!
//! The activity's correctness criterion is simple: no matter how the work
//! is divided — one student, stripes, slices, simulated or on real
//! threads — the finished flag must be identical. These tests hold every
//! execution path to it.

use flagsim::agents::{ImplementKind, StudentProfile};
use flagsim::core::config::ActivityConfig;
use flagsim::core::partition::{verify_assignments, CellOrder, PartitionStrategy};
use flagsim::core::scenario::Scenario;
use flagsim::core::work::PreparedFlag;
use flagsim::core::TeamKit;
use flagsim::flags::library;
use flagsim::grid::diff;
use flagsim::threads::{CellWorkload, ExecMode, ParallelColorer};

fn team(n: usize) -> Vec<StudentProfile> {
    (1..=n)
        .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
        .collect()
}

#[test]
fn every_scenario_reproduces_the_reference_flag() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default();
    for n in 1..=4u8 {
        let sc = Scenario::fig1(n);
        let mut t = team(4);
        let report = sc.run(&flag, &mut t, &kit, &cfg).unwrap();
        assert!(report.correct, "{}", sc.name);
        let d = diff(&report.grid, &flag.reference);
        assert!(d.is_identical(), "{}: {:?}", sc.name, d.mismatches);
    }
}

#[test]
fn simulated_and_threaded_executions_agree_cell_for_cell() {
    for spec in library::all() {
        let flag = PreparedFlag::new(&spec);
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let assignments = PartitionStrategy::Cyclic(3).assignments(&flag, CellOrder::RowMajor, &[]);
        verify_assignments(&flag, &assignments, &[]).unwrap();

        // Simulated.
        let mut t = team(3);
        let sim = flagsim::core::run_activity(
            "sim",
            &flag,
            &assignments,
            &mut t,
            &kit,
            &ActivityConfig::default(),
            &flagsim::core::FaultPlan::none(),
            None,
        )
        .and_then(flagsim::core::ActivityOutcome::into_report)
        .unwrap();
        assert!(sim.correct, "{}", spec.name);

        // Real threads.
        let colorer = ParallelColorer::new(&flag, CellWorkload::default());
        let out = colorer.run(&assignments, ExecMode::Static);
        assert!(out.verify(&flag), "{}", spec.name);
        assert!(
            diff(&sim.grid, &out.grid).is_identical(),
            "{}: sim and threads disagree",
            spec.name
        );
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let run_everything = || {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(ImplementKind::ThinMarker, &flag.colors_needed(&[]));
        let cfg = ActivityConfig::default().with_seed(123);
        let mut t = team(4);
        let mut fingerprint = Vec::new();
        for n in 1..=4u8 {
            let r = Scenario::fig1(n).run(&flag, &mut t, &kit, &cfg).unwrap();
            fingerprint.push(r.completion.millis());
            fingerprint.push(r.trace.events.len() as u64);
        }
        fingerprint
    };
    assert_eq!(run_everything(), run_everything());
}

#[test]
fn larger_grids_scale_the_same_story() {
    // The scenario ordering survives a 4x bigger grid (48×32).
    let flag = PreparedFlag::at_size(&library::mauritius(), 48, 32);
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default();
    let mut times = Vec::new();
    for n in 1..=4u8 {
        let mut t = team(4);
        let r = Scenario::fig1(n).run(&flag, &mut t, &kit, &cfg).unwrap();
        assert!(r.correct);
        times.push(r.completion_secs());
    }
    assert!(times[1] < times[0]);
    assert!(times[2] < times[1]);
    assert!(times[3] > times[2], "contention persists at scale: {times:?}");
}

#[test]
fn speedup_never_exceeds_team_size() {
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let cfg = ActivityConfig::default();
    let mut t1 = team(1);
    let base = Scenario::fig1(1).run(&flag, &mut t1, &kit, &cfg).unwrap();
    for (n, p) in [(2u8, 2.0), (3, 4.0), (4, 4.0)] {
        let mut t = team(4);
        let r = Scenario::fig1(n).run(&flag, &mut t, &kit, &cfg).unwrap();
        let s = r.speedup_vs(&base);
        // Stochastic per-student times allow slight super-linearity only
        // through sampling luck; a 10% margin catches real violations.
        assert!(s <= p * 1.1, "scenario {n} speedup {s} > {p}");
    }
}

#[test]
fn failure_injection_dead_marker_and_crayon_breakage_paths() {
    use flagsim::agents::{Condition, CostModel, Implement};
    // Dead marker: the dry-run check refuses to start.
    let flag = PreparedFlag::new(&library::mauritius());
    let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]))
        .with_implement(
            flagsim::grid::Color::Green,
            Implement {
                kind: ImplementKind::ThickMarker,
                condition: Condition::Dead,
            },
        );
    let mut t = team(1);
    let err = Scenario::fig1(1)
        .run(&flag, &mut t, &kit, &ActivityConfig::default())
        .unwrap_err();
    assert!(err.contains("dead"), "{err}");

    // Crayons break sometimes; the model exposes the event stream.
    let mut cost = CostModel::new(99);
    let crayon = Implement::good(ImplementKind::Crayon);
    let breaks = (0..10_000).filter(|_| cost.sample_breakage(crayon)).count();
    assert!(breaks > 10 && breaks < 100, "breakage rate off: {breaks}");
}

#[test]
fn worn_markers_slow_the_run() {
    use flagsim::agents::{Condition, Implement};
    let flag = PreparedFlag::new(&library::mauritius());
    let cfg = ActivityConfig::default();
    let good_kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
    let worn_kit = flag.colors_needed(&[]).iter().fold(
        TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[])),
        |kit, &c| {
            kit.with_implement(
                c,
                Implement {
                    kind: ImplementKind::ThickMarker,
                    condition: Condition::Worn,
                },
            )
        },
    );
    let mut tg = team(1);
    let mut tw = team(1);
    let good = Scenario::fig1(1).run(&flag, &mut tg, &good_kit, &cfg).unwrap();
    let worn = Scenario::fig1(1).run(&flag, &mut tw, &worn_kit, &cfg).unwrap();
    assert!(
        worn.completion_secs() > good.completion_secs() * 1.3,
        "worn {} vs good {}",
        worn.completion_secs(),
        good.completion_secs()
    );
}
