//! The activity's scenarios (Fig. 1 and the variations).

use crate::config::{ActivityConfig, TeamKit};
use crate::faults::FaultPlan;
use crate::partition::{verify_assignments, CellOrder, PartitionStrategy};
use crate::report::RunReport;
use crate::run::{names_of, ActivityOutcome, ColorSlots, KitSlots, RunSpec};
use crate::work::{PreparedFlag, WorkItem};
use flagsim_agents::StudentProfile;
use flagsim_desim::SchedulePolicy;
use flagsim_grid::Color;
use std::sync::Arc;

/// A named task decomposition: what the instructor projects on the slide.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Slide title ("scenario 3: one stripe each").
    pub name: String,
    /// How the flag is divided.
    pub strategy: PartitionStrategy,
    /// Cell order within each part.
    pub order: CellOrder,
}

impl Scenario {
    /// A custom scenario.
    pub fn new(name: impl Into<String>, strategy: PartitionStrategy, order: CellOrder) -> Self {
        Scenario {
            name: name.into(),
            strategy,
            order,
        }
    }

    /// The four core scenarios of Fig. 1 (`n` in `1..=4`):
    ///
    /// 1. one student colors the entire flag;
    /// 2. two students, one coloring the red and blue stripes, the other
    ///    the yellow and green;
    /// 3. four students, one stripe each;
    /// 4. four students, one *vertical slice* each — every slice includes
    ///    part of each stripe, so the single marker of each color must be
    ///    handed around.
    pub fn fig1(n: u8) -> Scenario {
        match n {
            1 => Scenario::new(
                "scenario 1: one student",
                PartitionStrategy::Solo,
                CellOrder::RowMajor,
            ),
            2 => Scenario::new(
                "scenario 2: stripe pairs",
                PartitionStrategy::HorizontalBands(2),
                CellOrder::RowMajor,
            ),
            3 => Scenario::new(
                "scenario 3: one stripe each",
                PartitionStrategy::HorizontalBands(4),
                CellOrder::RowMajor,
            ),
            4 => Scenario::new(
                "scenario 4: vertical slices",
                PartitionStrategy::VerticalSlices(4),
                CellOrder::RowMajor,
            ),
            other => panic!("Fig. 1 has scenarios 1..=4, not {other}"), // lint-gate: allow (documented contract)
        }
    }

    /// All four core scenarios in activity order.
    pub fn core_activity() -> Vec<Scenario> {
        (1..=4).map(Scenario::fig1).collect()
    }

    /// The Webster variation: color `flag` with one student or with `n`
    /// students in vertical slices (how a team naturally splits a tricolor
    /// or the Canadian flag).
    pub fn webster(n: u32) -> Scenario {
        if n <= 1 {
            Scenario::new("webster: one student", PartitionStrategy::Solo, CellOrder::RowMajor)
        } else {
            Scenario::new(
                format!("webster: {n} students"),
                PartitionStrategy::VerticalSlices(n),
                CellOrder::RowMajor,
            )
        }
    }

    /// Scenario 4 with fine-grained alternation: same slices, but each
    /// student marches down their columns, crossing every stripe. Shorter
    /// marker holds, many more hand-offs.
    pub fn alternating_slices() -> Scenario {
        Scenario::new(
            "scenario 4 (column-major): vertical slices, fine-grained",
            PartitionStrategy::VerticalSlices(4),
            CellOrder::ColumnMajor,
        )
    }

    /// Scenario 4 with the pipelined rotation of §III-C: student `i`
    /// starts on stripe `i` and rotates, so the markers circulate and
    /// nobody convoys on red at the start.
    pub fn pipelined_slices(flag: &PreparedFlag, slices: u32, bands: u32) -> Scenario {
        let regions = crate::partition::pipelined_slices(flag, slices, bands);
        Scenario::new(
            "scenario 4 (pipelined): rotated stripe starts",
            PartitionStrategy::Custom(regions),
            CellOrder::RowMajor,
        )
    }

    /// The built-in scenario a command-line token names: `1`–`4` (Fig. 1),
    /// `onestripe` (= 3), `fourslice` (= 4), `pipelined` or `alternating`.
    /// The CLI and shard job specs share this one vocabulary.
    pub fn builtin(token: &str, flag: &PreparedFlag) -> Option<Scenario> {
        Some(match token {
            "1" => Scenario::fig1(1),
            "2" => Scenario::fig1(2),
            "3" | "onestripe" => Scenario::fig1(3),
            "4" | "fourslice" => Scenario::fig1(4),
            "pipelined" => Scenario::pipelined_slices(flag, 4, 4),
            "alternating" => Scenario::alternating_slices(),
            _ => return None,
        })
    }

    /// How many coloring students this scenario needs (the paper's teams
    /// of five include a timer we don't simulate).
    pub fn team_size(&self, flag: &PreparedFlag, config: &ActivityConfig) -> usize {
        match &self.strategy {
            PartitionStrategy::ByColor => flag.colors_needed(&config.skip_colors).len(),
            s => s.parts(),
        }
    }

    /// Run this scenario with the given team (the first
    /// [`Scenario::team_size`] students color; extras sit out, like the
    /// timer). Assignments are verified before the run; a stall comes
    /// back as an error. The one-shot form of [`Scenario::compile`] plus
    /// [`CompiledScenario::run_scheduled`].
    pub fn run(
        &self,
        flag: &PreparedFlag,
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
    ) -> Result<RunReport, String> {
        self.compile(flag, config)?
            .run_scheduled(team, kit, config, &FaultPlan::none(), None)?
            .into_report()
    }

    /// Partition the flag and verify the assignments once, for reuse
    /// across many repetitions. The result depends only on the flag, the
    /// strategy, the cell order, and `skip_colors` — never on the seed —
    /// so a sweep compiles once and runs [`CompiledScenario`] per rep
    /// instead of re-partitioning and re-verifying every time.
    pub fn compile(
        &self,
        flag: &PreparedFlag,
        config: &ActivityConfig,
    ) -> Result<CompiledScenario, String> {
        let assignments = self
            .strategy
            .assignments(flag, self.order, &config.skip_colors);
        verify_assignments(flag, &assignments, &config.skip_colors)?;
        Ok(CompiledScenario {
            name: self.name.clone(),
            flag: flag.clone(),
            colors: ColorSlots::of(&assignments),
            names: (1..=assignments.len())
                .map(|i| Arc::from(format!("P{i}")))
                .collect(),
            assignments,
            skip: config.skip_colors.clone(),
        })
    }
}

/// A [`Scenario`] bound to one flag with its partition computed and
/// verified — the reusable per-rep unit of a sweep. It also holds what
/// every run of the partition shares: the colors it needs, each cell's
/// slot among them, and the names `P1`, `P2`, … of a sweep's students.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    name: String,
    flag: PreparedFlag,
    assignments: Vec<Vec<WorkItem>>,
    /// The skip colors the assignments were verified against.
    skip: Vec<Color>,
    colors: ColorSlots,
    names: Vec<Arc<str>>,
}

impl CompiledScenario {
    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many coloring students the compiled partition needs.
    pub fn parts(&self) -> usize {
        self.assignments.len()
    }

    /// The flag this scenario was compiled against.
    pub fn flag(&self) -> &PreparedFlag {
        &self.flag
    }

    /// Run the compiled partition with a team (its first
    /// [`CompiledScenario::parts`] students color) under `plan`, minus the
    /// per-call partition and verification work. `policy` forces the
    /// engine's tie order — the per-schedule unit of `flagsim verify`'s
    /// exploration — and `None` keeps the engine's own. See
    /// [`run_activity`](crate::run::run_activity).
    pub fn run_scheduled(
        &self,
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
        plan: &FaultPlan,
        policy: Option<Box<dyn SchedulePolicy>>,
    ) -> Result<ActivityOutcome, String> {
        self.check_team(team.len())?;
        let team = &mut team[..self.parts()];
        let kit = self.resolve_kit(kit);
        let names = names_of(team);
        let spec = self.spec(&kit, &names);
        let ran = spec.simulate(team, config, plan, policy)?;
        Ok(spec.report(ran, config, plan))
    }

    /// Errors unless a team of `size` can staff every part.
    pub(crate) fn check_team(&self, size: usize) -> Result<(), String> {
        let needed = self.parts();
        if size < needed {
            return Err(format!(
                "{} needs {needed} coloring students, team has {size}",
                self.name
            ));
        }
        Ok(())
    }

    /// `kit` resolved against the colors this partition needs.
    pub(crate) fn resolve_kit(&self, kit: &TeamKit) -> Result<KitSlots, String> {
        KitSlots::resolve(kit, self.colors.needed())
    }

    /// The names `P1`, `P2`, … of a sweep's fresh team, one per part.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The run inputs of this partition with a resolved kit and the
    /// students' names.
    pub(crate) fn spec<'a>(
        &'a self,
        kit: &'a Result<KitSlots, String>,
        names: &'a [Arc<str>],
    ) -> RunSpec<'a> {
        RunSpec {
            label: &self.name,
            flag: &self.flag,
            assignments: &self.assignments,
            colors: &self.colors,
            kit,
            names,
            verified_skip: Some(&self.skip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_agents::ImplementKind;
    use flagsim_flags::library;
    use flagsim_grid::Color;

    fn setup() -> (PreparedFlag, Vec<StudentProfile>, TeamKit, ActivityConfig) {
        let pf = PreparedFlag::new(&library::mauritius());
        let team: Vec<StudentProfile> = (1..=4)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
        (pf, team, kit, ActivityConfig::default())
    }

    #[test]
    fn fig1_scenarios_have_expected_sizes() {
        let (pf, _, _, cfg) = setup();
        assert_eq!(Scenario::fig1(1).team_size(&pf, &cfg), 1);
        assert_eq!(Scenario::fig1(2).team_size(&pf, &cfg), 2);
        assert_eq!(Scenario::fig1(3).team_size(&pf, &cfg), 4);
        assert_eq!(Scenario::fig1(4).team_size(&pf, &cfg), 4);
        assert_eq!(Scenario::core_activity().len(), 4);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn fig1_out_of_range_panics() {
        let _ = Scenario::fig1(5);
    }

    #[test]
    fn all_core_scenarios_run_correctly() {
        let (pf, mut team, kit, cfg) = setup();
        for sc in Scenario::core_activity() {
            let r = sc.run(&pf, &mut team, &kit, &cfg).unwrap();
            assert!(r.correct, "{} produced a wrong flag", sc.name);
        }
    }

    #[test]
    fn extra_students_sit_out() {
        let (pf, _, kit, cfg) = setup();
        let mut big_team: Vec<StudentProfile> = (1..=6)
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let r = Scenario::fig1(2).run(&pf, &mut big_team, &kit, &cfg).unwrap();
        assert_eq!(r.students.len(), 2);
    }

    #[test]
    fn too_small_team_errors() {
        let (pf, _, kit, cfg) = setup();
        let mut duo: Vec<StudentProfile> =
            (1..=2).map(|i| StudentProfile::new(format!("P{i}"))).collect();
        assert!(Scenario::fig1(4).run(&pf, &mut duo, &kit, &cfg).is_err());
    }

    #[test]
    fn pipelined_slices_beat_scenario_4() {
        let (pf, _, kit, cfg) = setup();
        let fresh_team = || -> Vec<StudentProfile> {
            (1..=4)
                .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
                .collect()
        };
        let mut t1 = fresh_team();
        let mut t2 = fresh_team();
        let convoy = Scenario::fig1(4).run(&pf, &mut t1, &kit, &cfg).unwrap();
        let pipelined = Scenario::pipelined_slices(&pf, 4, 4)
            .run(&pf, &mut t2, &kit, &cfg)
            .unwrap();
        assert!(pipelined.correct);
        // The rotation eliminates the startup convoy on red: faster and
        // far less waiting.
        assert!(
            pipelined.completion < convoy.completion,
            "pipelined {} should beat convoy {}",
            pipelined.completion,
            convoy.completion
        );
        assert!(pipelined.total_wait_secs() < convoy.total_wait_secs() / 2.0);
    }

    #[test]
    fn alternating_slices_trade_holds_for_handoffs() {
        let (pf, _, kit, cfg) = setup();
        let fresh_team = || -> Vec<StudentProfile> {
            (1..=4)
                .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
                .collect()
        };
        let mut t1 = fresh_team();
        let mut t2 = fresh_team();
        let block = Scenario::fig1(4).run(&pf, &mut t1, &kit, &cfg).unwrap();
        let alt = Scenario::alternating_slices()
            .run(&pf, &mut t2, &kit, &cfg)
            .unwrap();
        let handoffs = |r: &crate::report::RunReport| -> u64 {
            r.contention.iter().map(|c| c.stats.handoffs).sum()
        };
        assert!(
            handoffs(&alt) > handoffs(&block),
            "column-major should hand markers around more: {} vs {}",
            handoffs(&alt),
            handoffs(&block)
        );
    }

    #[test]
    fn webster_scenarios() {
        let pf = PreparedFlag::new(&library::france());
        let kit = TeamKit::uniform(
            ImplementKind::ThickMarker,
            &[Color::Blue, Color::White, Color::Red],
        );
        let cfg = ActivityConfig::default();
        let mut solo = vec![StudentProfile::new("P1").without_warmup()];
        let mut trio: Vec<StudentProfile> = (1..=3)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect();
        let s1 = Scenario::webster(1).run(&pf, &mut solo, &kit, &cfg).unwrap();
        let s3 = Scenario::webster(3).run(&pf, &mut trio, &kit, &cfg).unwrap();
        assert!(s3.completion < s1.completion);
        let speedup = s3.speedup_vs(&s1);
        assert!(speedup > 2.0, "France 3-way speedup {speedup}");
    }
}
