//! Property tests for the schedule-space explorer (`flagsim verify`):
//! invariance proofs hold on every seed, crafted contention always
//! produces a minimal witness, the partial-order reduction never loses an
//! outcome relative to naive enumeration, and a witness schedule replays
//! byte-for-byte.

use flagsim_agents::ImplementKind;
use flagsim_core::work::PreparedFlag;
use flagsim_core::{ActivityConfig, ActivityOutcome, FaultPlan, Scenario, TeamKit};
use flagsim_desim::{Action, Engine, FnProcess, ForcedSchedule, SimDuration};
use flagsim_flags::library;
use flagsim_simcheck::{
    explore_activity, explore_engine, verify_diags, ExploreConfig, Outcome,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// The six scenarios `flagsim` ships (1–4, pipelined, alternating).
fn builtin(idx: usize, flag: &PreparedFlag) -> Scenario {
    match idx {
        0..=3 => Scenario::fig1(idx as u8 + 1),
        4 => Scenario::pipelined_slices(flag, 4, 4),
        _ => Scenario::alternating_slices(),
    }
}

fn kit(flag: &PreparedFlag) -> TeamKit {
    TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]))
}

fn explore_builtin(idx: usize, seed: u64) -> flagsim_simcheck::ActivityExploration {
    let flag = PreparedFlag::new(&library::mauritius());
    let scenario = builtin(idx, &flag);
    let cfg = ActivityConfig::default().with_seed(seed);
    let compiled = scenario.compile(&flag, &cfg).expect("compiles");
    explore_activity(&compiled, &kit(&flag), &cfg, &ExploreConfig::default()).expect("explores")
}

/// A process that follows a fixed action script, then finishes.
fn scripted(name: &str, actions: Vec<Action>) -> Box<FnProcess<impl FnMut(flagsim_desim::SimTime) -> Action>> {
    let mut queue: VecDeque<Action> = actions.into();
    Box::new(FnProcess::new(name.to_owned(), move |_| {
        queue.pop_front().unwrap_or(Action::Done)
    }))
}

/// Three workers funneled through a capacity-2 marker pool with
/// pairwise-distinct service times — who pairs up first always shifts
/// somebody's finish time.
fn pool_engine(seed: u64) -> Engine {
    let mut eng = Engine::new();
    let pool = eng.add_resource_pool("red marker", 2, SimDuration::ZERO);
    let durations = [10 + seed % 7, 25 + seed % 11, 45 + seed % 13];
    for (i, ms) in durations.into_iter().enumerate() {
        eng.add_process(scripted(
            &format!("w{i}"),
            vec![
                Action::Acquire(pool),
                Action::Work(SimDuration::from_millis(ms)),
                Action::Release(pool),
            ],
        ));
    }
    eng
}

/// The pipelined rotation is conflict-free at t=0, not on every seed.
/// On this seed (`flagsim verify pipelined --seed 13992283459596430383`)
/// the witnesses agree on three tie resolutions and differ in the
/// fourth: a later equal-time wake-up or acquire-order grant, not a t=0
/// conflict and not a deadlock. Both outcome classes complete at the
/// same makespan but differ in who colored what when.
#[test]
fn pipelined_diverges_on_a_late_tie_for_a_known_seed() {
    let ax = explore_builtin(4, 13_992_283_459_596_430_383);
    let ex = &ax.exploration;
    assert!(!ex.truncated);
    assert_eq!(ex.schedules_run, 2);
    assert_eq!(ex.outcomes.len(), 2, "{ex:?}");
    let w = ex.witness.as_ref().expect("witness pair");
    assert_eq!(w.baseline, [0, 0, 0]);
    assert_eq!(w.divergent, [0, 0, 0, 1]);
    for outcome in [&w.baseline_outcome, &w.divergent_outcome] {
        assert!(
            matches!(
                outcome,
                Outcome::Completed {
                    makespan_ms: 130_390,
                    ..
                }
            ),
            "{outcome:?}"
        );
    }
    assert_ne!(w.baseline_outcome.key(), w.divergent_outcome.key());
    let diags = verify_diags(ex);
    assert!(diags.iter().any(|d| d.id == "SC410"), "{diags:?}");
    assert!(diags.iter().all(|d| d.id != "SC411"), "{diags:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scenarios 1–3 and the pipelined rotation give every student a
    /// disjoint slice of the work at the start, so nothing ties at t=0:
    /// on almost every seed full-depth exploration proves every tie
    /// resolution converges (SC412), and the partial-order reduction
    /// collapses the space to one schedule. A later exact-millisecond
    /// tie can still split the pipelined rotation on a rare seed (see
    /// `pipelined_diverges_on_a_late_tie_for_a_known_seed`).
    #[test]
    fn disjoint_builtins_are_schedule_invariant(pick in 0usize..4, seed in any::<u64>()) {
        let ex = explore_builtin([0usize, 1, 2, 4][pick], seed);
        prop_assert!(ex.exploration.invariant(), "{:?}", ex.exploration);
        prop_assert_eq!(ex.exploration.schedules_run, 1);
        prop_assert!(ex.exploration.witness.is_none());
        let diags = verify_diags(&ex.exploration);
        prop_assert!(diags.iter().any(|d| d.id == "SC412"), "{diags:?}");
        prop_assert!(diags.iter().all(|d| d.id != "SC410" && d.id != "SC411"));
    }

    /// The vertical-slices scenarios (fig. 1 panel 4 and the alternating
    /// variant) are genuine flow shops: on any seed the t=0 queue on the
    /// first stripe's marker makes the outcome order-dependent, and
    /// exploration certifies it with a minimal witness pair (SC410).
    #[test]
    fn vertical_slices_diverge_with_witness(pick in 0usize..2, seed in any::<u64>()) {
        let ex = explore_builtin([3usize, 5][pick], seed);
        prop_assert!(!ex.exploration.truncated);
        prop_assert!(ex.exploration.outcomes.len() > 1, "{:?}", ex.exploration);
        let w = ex.exploration.witness.as_ref().expect("witness pair");
        prop_assert_eq!(w.divergent.len(), w.baseline.len() + 1);
        prop_assert_eq!(&w.divergent[..w.baseline.len()], &w.baseline[..]);
        prop_assert_ne!(w.baseline_outcome.key(), w.divergent_outcome.key());
        let diags = verify_diags(&ex.exploration);
        prop_assert!(diags.iter().any(|d| d.id == "SC410"), "{diags:?}");
        // The observed run's SC302 tie is real, and the verdict names it
        // divergent.
        prop_assert!(!ex.ties.is_empty());
        let annotated = flagsim_simcheck::annotate_ties(&ex.ties, &ex.exploration);
        prop_assert!(annotated.iter().all(|d| d.detail[0].contains("divergent")));
    }

    /// The crafted capacity-2 pool yields a divergence witness on every
    /// seed: three distinct service times through two pool units cannot
    /// be schedule-invariant.
    #[test]
    fn capacity_two_pool_diverges_on_every_seed(seed in any::<u64>()) {
        let ex = explore_engine(|| pool_engine(seed), &ExploreConfig::default())
            .expect("explores");
        prop_assert!(!ex.truncated);
        prop_assert!(ex.outcomes.len() > 1, "{ex:?}");
        let w = ex.witness.as_ref().expect("witness pair");
        prop_assert_ne!(w.baseline_outcome.key(), w.divergent_outcome.key());
    }

    /// Soundness of the reduction: on randomized small workloads (zero
    /// durations included, so same-instant cascades happen), DPOR-pruned
    /// exploration discovers exactly the outcome classes naive full
    /// enumeration does — it only skips redundant schedules.
    #[test]
    fn dpor_finds_the_same_outcomes_as_naive(
        assignments in proptest::collection::vec((0usize..2, 0u64..4, 0u64..4), 2..4),
    ) {
        let build = || {
            let mut eng = Engine::new();
            let r0 = eng.add_resource("m0", SimDuration::ZERO);
            let r1 = eng.add_resource("m1", SimDuration::ZERO);
            for (i, (which, a, b)) in assignments.iter().enumerate() {
                let rid = if *which == 0 { r0 } else { r1 };
                eng.add_process(scripted(
                    &format!("p{i}"),
                    vec![
                        Action::Work(SimDuration::from_millis(*a)),
                        Action::Acquire(rid),
                        Action::Work(SimDuration::from_millis(*b)),
                        Action::Release(rid),
                    ],
                ));
            }
            eng
        };
        let naive_cfg = ExploreConfig { naive: true, ..ExploreConfig::default() };
        let naive = explore_engine(build, &naive_cfg).expect("naive");
        let dpor = explore_engine(build, &ExploreConfig::default()).expect("dpor");
        prop_assume!(!naive.truncated);
        prop_assert!(!dpor.truncated);
        let naive_keys: BTreeSet<_> = naive.outcomes.iter().map(|c| c.outcome.key()).collect();
        let dpor_keys: BTreeSet<_> = dpor.outcomes.iter().map(|c| c.outcome.key()).collect();
        prop_assert_eq!(&dpor_keys, &naive_keys, "naive {:?} vs dpor {:?}", naive, dpor);
        prop_assert!(dpor.schedules_run <= naive.schedules_run);
    }

    /// Forced-schedule replay is byte-deterministic: running either side
    /// of a witness pair twice produces identical reports, and the two
    /// sides really do differ.
    #[test]
    fn witness_replay_is_byte_deterministic(seed in any::<u64>()) {
        let flag = PreparedFlag::new(&library::mauritius());
        let scenario = builtin(3, &flag);
        let cfg = ActivityConfig::default().with_seed(seed);
        let compiled = scenario.compile(&flag, &cfg).expect("compiles");
        let kit = kit(&flag);
        let ex = explore_activity(&compiled, &kit, &cfg, &ExploreConfig::default())
            .expect("explores");
        let w = ex.exploration.witness.as_ref().expect("witness pair");
        let mut completions = Vec::new();
        for script in [&w.baseline, &w.divergent] {
            let mut reports = Vec::new();
            for _ in 0..2 {
                let mut team = flagsim_simcheck::explore::scenario_team(&compiled);
                let (policy, _log) = ForcedSchedule::new(script.clone());
                let outcome = compiled
                    .run_scheduled(&mut team, &kit, &cfg, &FaultPlan::default(), Some(policy))
                    .expect("runs");
                match outcome {
                    ActivityOutcome::Completed(r) => reports.push(r),
                    ActivityOutcome::Stalled(g) => prop_assert!(false, "stalled: {g:?}"),
                }
            }
            prop_assert_eq!(&reports[0], &reports[1], "replay diverged");
            completions.push(flagsim_simcheck::explore::report_fingerprint(&reports[0]));
        }
        // The witness pair's two schedules genuinely differ...
        prop_assert_ne!(completions[0], completions[1]);
        // ...and match the fingerprints exploration recorded for them.
        match (&w.baseline_outcome, &w.divergent_outcome) {
            (
                Outcome::Completed { fingerprint: fa, .. },
                Outcome::Completed { fingerprint: fb, .. },
            ) => {
                prop_assert_eq!(*fa, completions[0]);
                prop_assert_eq!(*fb, completions[1]);
            }
            other => prop_assert!(false, "unexpected witness outcomes: {other:?}"),
        }
    }
}
