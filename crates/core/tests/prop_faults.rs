//! Property tests over the fault-injection layer: a random fault plan on
//! a random scenario must always terminate with either a completed run
//! (carrying a resilience report) or a structured error string — never a
//! panic, never a hang — and the timing laws must hold throughout.

use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::faults::{FaultEvent, FaultPlan, RecoveryPolicy};
use flagsim_core::partition::{CellOrder, PartitionStrategy};
use flagsim_core::report::RunReport;
use flagsim_core::run::run_activity;
use flagsim_core::work::{PreparedFlag, WorkItem};
use flagsim_flags::library;
use proptest::prelude::*;

/// One run in the engine's own tie order, a stall flattened into an
/// error the way batch drivers see it.
fn run(
    label: &str,
    flag: &PreparedFlag,
    assignments: &[Vec<WorkItem>],
    team: &mut [StudentProfile],
    kit: &TeamKit,
    cfg: &ActivityConfig,
    plan: &FaultPlan,
) -> Result<RunReport, String> {
    run_activity(label, flag, assignments, team, kit, cfg, plan, None)?.into_report()
}

fn strategy_strategy() -> impl Strategy<Value = PartitionStrategy> {
    prop_oneof![
        Just(PartitionStrategy::Solo),
        (1u32..6).prop_map(PartitionStrategy::HorizontalBands),
        (1u32..6).prop_map(PartitionStrategy::VerticalSlices),
        (1u32..6).prop_map(PartitionStrategy::Cyclic),
        Just(PartitionStrategy::ByColor),
    ]
}

fn policy_strategy() -> impl Strategy<Value = RecoveryPolicy> {
    prop_oneof![
        Just(RecoveryPolicy::Rebalance),
        (0u32..30).prop_map(|d| RecoveryPolicy::SpareSwap {
            replacement_delay_secs: f64::from(d),
        }),
        Just(RecoveryPolicy::AbortAndReport),
    ]
}

fn fresh_team(n: usize) -> Vec<StudentProfile> {
    (1..=n)
        .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline robustness property: any seeded random fault plan on
    /// any scenario terminates with a report or a structured error.
    #[test]
    fn random_fault_plans_always_terminate_structurally(
        flag_idx in 0usize..13,
        strategy in strategy_strategy(),
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let spec = &library::all()[flag_idx];
        let flag = PreparedFlag::new(spec);
        let assignments = strategy.assignments(&flag, CellOrder::RowMajor, &[]);
        let team_size = assignments.len();
        prop_assume!(team_size > 0);
        let colors = flag.colors_needed(&[]);
        let plan = FaultPlan::random(plan_seed, team_size, &colors).with_policy(policy);
        prop_assert!(plan.validate(team_size).is_ok(), "random plans must be valid");
        let mut team = fresh_team(team_size);
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
        let cfg = ActivityConfig::default().with_seed(seed);
        match run("prop", &flag, &assignments, &mut team, &kit, &cfg, &plan) {
            Ok(r) => {
                let res = r.resilience.as_ref().expect("random plans are non-empty");
                // Recovery overhead is never negative, an abort only
                // happens under the abort policy, and every incident
                // carries a finite timestamp.
                prop_assert!(res.time_lost_secs >= 0.0);
                if res.aborted {
                    prop_assert!(plan.policy.aborts());
                }
                for i in &res.incidents {
                    prop_assert!(i.at_secs.is_finite() && i.at_secs >= 0.0);
                }
                // Time accounting: busy + waiting never exceeds a
                // student's lifetime, and nobody outlives the trace. A
                // bell can cut a run mid-cell (busy accrues at WorkStart
                // for the full cell), so the lifetime law only binds on
                // uncut runs.
                let end = r.trace.end_time.as_secs_f64();
                let cut_short = plan
                    .events
                    .iter()
                    .any(|e| matches!(e, FaultEvent::DeadlineBell { .. }));
                for s in &r.students {
                    if !cut_short {
                        let accounted = s.busy.as_secs_f64() + s.waiting.as_secs_f64();
                        prop_assert!(
                            accounted <= s.finished_at.as_secs_f64() + 1e-6,
                            "{}: busy+wait {accounted} > lifetime {}",
                            s.name,
                            s.finished_at.as_secs_f64()
                        );
                    }
                    prop_assert!(s.finished_at.as_secs_f64() <= end + 1e-6);
                }
                // A bell is a hard cap on the completion time.
                for e in &plan.events {
                    if let FaultEvent::DeadlineBell { at_secs } = e {
                        prop_assert!(
                            r.completion_secs() <= at_secs + 1e-6,
                            "completion {} past the bell {at_secs}",
                            r.completion_secs()
                        );
                    }
                }
            }
            Err(e) => prop_assert!(!e.is_empty(), "errors must carry a message"),
        }
    }

    /// Same plan, same seed, same scenario: bit-identical outcome,
    /// including the resilience report.
    #[test]
    fn faulted_runs_are_reproducible(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let assignments = PartitionStrategy::VerticalSlices(4)
            .assignments(&flag, CellOrder::RowMajor, &[]);
        let colors = flag.colors_needed(&[]);
        let plan = FaultPlan::random(plan_seed, assignments.len(), &colors).with_policy(policy);
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
        let cfg = ActivityConfig::default().with_seed(seed);
        let mut t1 = fresh_team(assignments.len());
        let mut t2 = fresh_team(assignments.len());
        let a = run("a", &flag, &assignments, &mut t1, &kit, &cfg, &plan);
        let b = run("b", &flag, &assignments, &mut t2, &kit, &cfg, &plan);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                prop_assert_eq!(ra.completion, rb.completion);
                prop_assert_eq!(ra.resilience, rb.resilience);
                prop_assert_eq!(ra.grid, rb.grid);
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
        }
    }

    /// An empty plan is exactly the fault-free path, whatever its label
    /// and policy: same completion, same grid, and no resilience report
    /// attached.
    #[test]
    fn empty_plan_is_the_identity(
        seed in any::<u64>(),
        strategy in strategy_strategy(),
    ) {
        let flag = PreparedFlag::new(&library::mauritius());
        let assignments = strategy.assignments(&flag, CellOrder::RowMajor, &[]);
        prop_assume!(!assignments.is_empty());
        let colors = flag.colors_needed(&[]);
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &colors);
        let cfg = ActivityConfig::default().with_seed(seed);
        let mut t1 = fresh_team(assignments.len());
        let mut t2 = fresh_team(assignments.len());
        let none = FaultPlan::none();
        let plain = run("x", &flag, &assignments, &mut t1, &kit, &cfg, &none).unwrap();
        // Empty whatever its label and policy.
        let empty = FaultPlan::new("nothing planned").with_policy(RecoveryPolicy::AbortAndReport);
        let nofault = run("x", &flag, &assignments, &mut t2, &kit, &cfg, &empty).unwrap();
        prop_assert_eq!(plain.completion, nofault.completion);
        prop_assert_eq!(&plain.grid, &nofault.grid);
        prop_assert!(nofault.resilience.is_none());
    }
}
