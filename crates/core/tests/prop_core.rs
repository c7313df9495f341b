//! Property tests over the activity layer: any partition of any library
//! flag must verify, run to completion, produce the correct flag, and
//! respect the basic timing laws — under arbitrary seeds, fill styles,
//! policies, and kit stockings.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::config::{ActivityConfig, ReleasePolicy, TeamKit};
use flagsim_core::partition::{verify_assignments, CellOrder, PartitionStrategy};
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{run_activity, ActivityOutcome, FaultPlan, Scenario};
use flagsim_flags::library;
use flagsim_grid::Color;
use proptest::prelude::*;

fn strategy_strategy() -> impl Strategy<Value = PartitionStrategy> {
    prop_oneof![
        Just(PartitionStrategy::Solo),
        (1u32..6).prop_map(PartitionStrategy::HorizontalBands),
        (1u32..6).prop_map(PartitionStrategy::VerticalSlices),
        ((1u32..4), (1u32..4)).prop_map(|(c, r)| PartitionStrategy::Blocks(c, r)),
        (1u32..6).prop_map(PartitionStrategy::Cyclic),
        Just(PartitionStrategy::ByColor),
    ]
}

fn order_strategy() -> impl Strategy<Value = CellOrder> {
    prop_oneof![Just(CellOrder::RowMajor), Just(CellOrder::ColumnMajor)]
}

fn kind_strategy() -> impl Strategy<Value = ImplementKind> {
    prop_oneof![
        Just(ImplementKind::BingoDauber),
        Just(ImplementKind::ThickMarker),
        Just(ImplementKind::ThinMarker),
        Just(ImplementKind::Crayon),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any strategy × any flag: assignments partition the colorable cells
    /// and the run reproduces the reference raster.
    #[test]
    fn any_partition_runs_correctly(
        flag_idx in 0usize..13,
        strategy in strategy_strategy(),
        order in order_strategy(),
        kind in kind_strategy(),
        seed in any::<u64>(),
        markers in 1usize..4,
        policy in prop_oneof![
            Just(ReleasePolicy::KeepUntilColorChange),
            Just(ReleasePolicy::ReleaseEachCell)
        ],
    ) {
        let spec = &library::all()[flag_idx];
        let flag = PreparedFlag::new(spec);
        let assignments = strategy.assignments(&flag, order, &[]);
        prop_assert!(verify_assignments(&flag, &assignments, &[]).is_ok());

        let mut team: Vec<StudentProfile> = (0..assignments.len())
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let kit = TeamKit::uniform(kind, &flag.colors_needed(&[])).with_count_all(markers);
        let cfg = ActivityConfig::default().with_seed(seed).with_policy(policy);
        let none = FaultPlan::none();
        let report = run_activity("prop", &flag, &assignments, &mut team, &kit, &cfg, &none, None)
            .and_then(ActivityOutcome::into_report)
            .expect("run succeeds");
        prop_assert!(report.correct, "{} with {strategy:?}", spec.name);

        // Timing laws: completion ≥ the busiest student's coloring time;
        // completion ≤ total busy + total waiting (serialization bound).
        let max_busy = report
            .students
            .iter()
            .map(|s| s.busy.millis())
            .max()
            .unwrap_or(0);
        prop_assert!(report.completion.millis() >= max_busy);
        let serial_bound: u64 = report
            .students
            .iter()
            .map(|s| s.busy.millis() + s.waiting.millis())
            .sum();
        prop_assert!(report.completion.millis() <= serial_bound.max(max_busy));

        // Students finish exactly their assigned cells.
        for (stats, items) in report.students.iter().zip(&assignments) {
            prop_assert_eq!(stats.cells, items.len());
        }
    }

    /// Equal seeds ⇒ identical runs; the run is a pure function of config.
    #[test]
    fn runs_are_deterministic(
        seed in any::<u64>(),
        strategy in strategy_strategy(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let run_once = || {
            let assignments = strategy.assignments(&flag, CellOrder::RowMajor, &[]);
            let mut team: Vec<StudentProfile> = (0..assignments.len())
                .map(|i| StudentProfile::new(format!("P{i}")))
                .collect();
            let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
            run_activity(
                "det",
                &flag,
                &assignments,
                &mut team,
                &kit,
                &ActivityConfig::default().with_seed(seed),
                &FaultPlan::none(),
                None,
            )
            .and_then(ActivityOutcome::into_report)
            .expect("run succeeds")
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a.completion, b.completion);
        prop_assert_eq!(a.trace.events.len(), b.trace.events.len());
    }

    /// Stocking more markers never makes a run wait longer.
    #[test]
    fn marker_stocking_is_monotone(seed in any::<u64>()) {
        let flag = PreparedFlag::new(&library::mauritius());
        let assignments = PartitionStrategy::VerticalSlices(4)
            .assignments(&flag, CellOrder::RowMajor, &[]);
        let wait_with = |markers: usize| {
            let mut team: Vec<StudentProfile> = (0..4)
                .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
                .collect();
            let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]))
                .with_count_all(markers);
            run_activity(
                "stock",
                &flag,
                &assignments,
                &mut team,
                &kit,
                &ActivityConfig::default().with_seed(seed),
                &FaultPlan::none(),
                None,
            )
            .and_then(ActivityOutcome::into_report)
            .expect("run succeeds")
            .total_wait_secs()
        };
        let w1 = wait_with(1);
        let w2 = wait_with(2);
        let w4 = wait_with(4);
        prop_assert!(w2 <= w1 + 1e-9, "w1={w1} w2={w2}");
        prop_assert!(w4 <= w2 + 1e-9, "w2={w2} w4={w4}");
        prop_assert_eq!(w4, 0.0);
    }

    /// Dropout rebalancing at any point keeps the run correct.
    #[test]
    fn dropout_rebalancing_is_safe(
        who in 0usize..4,
        completed in 0usize..30,
        seed in any::<u64>(),
    ) {
        use flagsim_core::partition::rebalance_dropout;
        let flag = PreparedFlag::new(&library::mauritius());
        let a = PartitionStrategy::HorizontalBands(4)
            .assignments(&flag, CellOrder::RowMajor, &[]);
        let rebalanced = rebalance_dropout(&a, who, completed);
        prop_assert!(verify_assignments(&flag, &rebalanced, &[]).is_ok());
        let mut team: Vec<StudentProfile> = (0..4)
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let r = run_activity(
            "dropout",
            &flag,
            &rebalanced,
            &mut team,
            &kit,
            &ActivityConfig::default().with_seed(seed),
            &FaultPlan::none(),
            None,
        )
        .and_then(ActivityOutcome::into_report)
        .expect("run succeeds");
        prop_assert!(r.correct);
    }
}

/// A fault plan (and deadline) for the stats-vs-report property: none,
/// one fault kind or a mix, a bell, a configured deadline, or an
/// abort — every branch of the live fault state.
fn faulted(which: u8, color: Color, at_secs: f64) -> (FaultPlan, Option<f64>) {
    let plan = FaultPlan::new("prop");
    match which {
        0 => (FaultPlan::none(), None),
        1 => (plan.break_implement(color, at_secs), None),
        2 => (plan.dropout(0, at_secs).fumble(color, 1.5), None),
        3 => (plan.bell(at_secs), None),
        4 => (FaultPlan::none(), Some(at_secs)),
        5 => (
            plan.dry_out(color, at_secs)
                .with_policy(flagsim_core::RecoveryPolicy::AbortAndReport),
            None,
        ),
        _ => (
            plan.late_arrival(0, at_secs).dropout(0, at_secs * 1.5),
            None,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The stats-only rep is the report rep minus the report: completion
    /// and total waiting agree bit for bit and `correct` agrees, on the
    /// six built-ins, three lesson flags and Jordan without white, with
    /// warm-up on or off, plain (the count-based `correct`) or with
    /// faults, a bell or a deadline (the repainted grid).
    #[test]
    fn stats_rep_equals_report_rep(
        flag_idx in 0usize..4,
        builtin in 0usize..6,
        seed in any::<u64>(),
        rep in 0u64..64,
        warmup in any::<bool>(),
        which in 0u8..7,
        at_secs in 5.0f64..120.0,
        color_pick in any::<usize>(),
    ) {
        let (spec, skip) = match flag_idx {
            0 => (library::mauritius(), vec![]),
            1 => (library::great_britain(), vec![]),
            2 => (library::canada(), vec![]),
            _ => (library::jordan(), vec![Color::White]),
        };
        let flag = PreparedFlag::new(&spec);
        let colors = flag.colors_needed(&skip);
        let token = ["1", "2", "3", "4", "pipelined", "alternating"][builtin];
        let scenario = Scenario::builtin(token, &flag).expect("a built-in");
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
        let (plan, deadline) = faulted(which, colors[color_pick % colors.len()], at_secs);
        let mut cfg = ActivityConfig::default().with_seed(seed).skipping(&skip);
        cfg.deadline_secs = deadline;
        let runner = SweepRunner::new(&scenario, &flag, &kit, &cfg)
            .warmup(warmup)
            .plan(&plan);
        let stats = runner.run_rep_stats(rep);
        let report = runner.run_rep(rep);
        match (stats, report) {
            (Ok(s), Ok(r)) => {
                prop_assert_eq!(s.completion_secs.to_bits(), r.completion_secs().to_bits());
                prop_assert_eq!(s.wait_secs.to_bits(), r.total_wait_secs().to_bits());
                prop_assert_eq!(s.correct, r.correct, "{} / {token}, plan {which}", spec.name);
                prop_assert_eq!(s, r.stats());
                if which == 0 {
                    prop_assert!(s.correct, "a plain run finishes the flag");
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "outcomes differ: {a:?} vs {:?}", b.map(|r| r.stats())),
        }
    }
}
