//! Whole-class sessions: multiple teams, scenario after scenario, times on
//! the board.
//!
//! The paper's protocol: split the class into teams, hand out kits (often
//! deliberately *different* kits — §IV argues the resulting unfairness
//! usefully shows "the effect of different hardware"), run each scenario
//! simultaneously across teams, and after each one "the instructor
//! collects the completion time from each group, posting it publicly".

use crate::config::{ActivityConfig, TeamKit};
use crate::faults::FaultPlan;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::work::PreparedFlag;
use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_flags::FlagSpec;
use std::fmt::Write as _;

/// One team: students plus their kit.
#[derive(Debug, Clone)]
pub struct Team {
    /// Team name ("Team 1").
    pub name: String,
    /// The students (warm-up experience persists across scenarios).
    pub students: Vec<StudentProfile>,
    /// Their drawing kit.
    pub kit: TeamKit,
}

/// One line on the board.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardEntry {
    /// Team name.
    pub team: String,
    /// Scenario name.
    pub scenario: String,
    /// Completion time in seconds.
    pub secs: f64,
}

/// A team whose run failed outright (bad kit, engine stall, …). The
/// session records it and the class moves on — one team's mishap must not
/// end the lesson.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionIncident {
    /// Team name.
    pub team: String,
    /// Scenario name.
    pub scenario: String,
    /// What went wrong.
    pub error: String,
}

/// A class session on one flag.
#[derive(Debug, Clone)]
pub struct ClassroomSession {
    flag: PreparedFlag,
    config: ActivityConfig,
    teams: Vec<Team>,
    board: Vec<BoardEntry>,
    incidents: Vec<SessionIncident>,
    runs: u64,
}

impl ClassroomSession {
    /// Start a session on `flag` with the given execution config.
    pub fn new(flag: &FlagSpec, config: ActivityConfig) -> Self {
        ClassroomSession {
            flag: PreparedFlag::new(flag),
            config,
            teams: Vec::new(),
            board: Vec::new(),
            incidents: Vec::new(),
            runs: 0,
        }
    }

    /// Add a team of `size` students, all using implements of `kind`. The
    /// kit covers every color the flag needs. Student skills vary slightly
    /// and deterministically (seeded by team index).
    pub fn add_team(&mut self, name: impl Into<String>, size: usize, kind: ImplementKind) {
        let name = name.into();
        let idx = self.teams.len() as u64;
        let students = (1..=size)
            .map(|i| {
                // Small deterministic skill spread, no RNG needed.
                let jitter = (((idx * 7 + i as u64 * 13) % 9) as f64 - 4.0) / 40.0;
                StudentProfile::new(format!("{name}-P{i}")).with_skill(1.0 + jitter)
            })
            .collect();
        let colors = self.flag.colors_needed(&self.config.skip_colors);
        self.teams.push(Team {
            name,
            students,
            kit: TeamKit::uniform(kind, &colors),
        });
    }

    /// Add a team of `size` students with an explicit kit — the §IV
    /// "different hardware" setup, or a deliberately faulty kit for a
    /// resilience drill.
    pub fn add_team_with_kit(&mut self, name: impl Into<String>, size: usize, kit: TeamKit) {
        let name = name.into();
        let idx = self.teams.len() as u64;
        let students = (1..=size)
            .map(|i| {
                let jitter = (((idx * 7 + i as u64 * 13) % 9) as f64 - 4.0) / 40.0;
                StudentProfile::new(format!("{name}-P{i}")).with_skill(1.0 + jitter)
            })
            .collect();
        self.teams.push(Team { name, students, kit });
    }

    /// The prepared flag.
    pub fn flag(&self) -> &PreparedFlag {
        &self.flag
    }

    /// The teams.
    pub fn teams(&self) -> &[Team] {
        &self.teams
    }

    /// Run one scenario across every team ("starting all the teams …
    /// simultaneously"), posting each completion time to the board.
    /// Returns the reports of the teams that finished, in team order; a
    /// team whose run fails becomes a [`SessionIncident`] and the session
    /// continues with the rest of the class.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<Vec<RunReport>, String> {
        self.run_scenario_with_faults(scenario, &FaultPlan::none())
    }

    /// [`ClassroomSession::run_scenario`] under an injected [`FaultPlan`]
    /// applied to every team — the whole-class fault drill.
    pub fn run_scenario_with_faults(
        &mut self,
        scenario: &Scenario,
        plan: &FaultPlan,
    ) -> Result<Vec<RunReport>, String> {
        let mut reports = Vec::with_capacity(self.teams.len());
        for team in &mut self.teams {
            self.runs += 1;
            let cfg = ActivityConfig {
                seed: self
                    .config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.runs),
                ..self.config.clone()
            };
            let run = scenario.compile(&self.flag, &cfg).and_then(|compiled| {
                compiled
                    .run_scheduled(&mut team.students, &team.kit, &cfg, plan, None)?
                    .into_report()
            });
            match run {
                Ok(report) => {
                    self.board.push(BoardEntry {
                        team: team.name.clone(),
                        scenario: scenario.name.clone(),
                        secs: report.completion_secs(),
                    });
                    reports.push(report);
                }
                Err(error) => {
                    self.incidents.push(SessionIncident {
                        team: team.name.clone(),
                        scenario: scenario.name.clone(),
                        error,
                    });
                }
            }
        }
        Ok(reports)
    }

    /// Run the full core activity: scenario 1 (optionally twice — the
    /// warm-up demonstration), then scenarios 2, 3 and 4. Returns all
    /// reports grouped by scenario run.
    pub fn run_core_activity(&mut self, repeat_first: bool) -> Result<Vec<Vec<RunReport>>, String> {
        let mut all = Vec::new();
        let s1 = Scenario::fig1(1);
        all.push(self.run_scenario(&s1)?);
        if repeat_first {
            let again = Scenario::new(
                "scenario 1 (repeat)",
                s1.strategy.clone(),
                s1.order,
            );
            all.push(self.run_scenario(&again)?);
        }
        for n in 2..=4 {
            all.push(self.run_scenario(&Scenario::fig1(n))?);
        }
        Ok(all)
    }

    /// The board so far.
    pub fn board(&self) -> &[BoardEntry] {
        &self.board
    }

    /// Teams whose runs failed, in the order the failures happened.
    pub fn incidents(&self) -> &[SessionIncident] {
        &self.incidents
    }

    /// Export the board as CSV (`team,scenario,seconds`).
    pub fn board_csv(&self) -> String {
        let mut out = String::from("team,scenario,seconds\n");
        for e in &self.board {
            let _ = writeln!(out, "{},{},{:.3}", e.team, e.scenario, e.secs);
        }
        out
    }

    /// The board formatted as the instructor would write it: one row per
    /// scenario, one column per team.
    pub fn board_table(&self) -> String {
        let mut scenarios: Vec<&str> = Vec::new();
        for e in &self.board {
            if !scenarios.contains(&e.scenario.as_str()) {
                scenarios.push(&e.scenario);
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{:<44}", "scenario");
        for t in &self.teams {
            let _ = write!(out, "{:>12}", t.name);
        }
        out.push('\n');
        for sc in scenarios {
            let _ = write!(out, "{sc:<44}");
            for t in &self.teams {
                let entry = self
                    .board
                    .iter()
                    .find(|e| e.scenario == sc && e.team == t.name);
                match entry {
                    Some(e) => {
                        let _ = write!(out, "{:>11.1}s", e.secs);
                    }
                    None => {
                        let _ = write!(out, "{:>12}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_flags::library;

    fn session() -> ClassroomSession {
        let mut s = ClassroomSession::new(&library::mauritius(), ActivityConfig::default());
        s.add_team("Team 1", 5, ImplementKind::BingoDauber);
        s.add_team("Team 2", 5, ImplementKind::ThickMarker);
        s.add_team("Team 3", 5, ImplementKind::ThinMarker);
        s
    }

    #[test]
    fn full_core_activity_posts_times() {
        let mut s = session();
        let all = s.run_core_activity(true).unwrap();
        // 5 scenario runs × 3 teams.
        assert_eq!(all.len(), 5);
        assert_eq!(s.board().len(), 15);
        let table = s.board_table();
        assert!(table.contains("scenario 1 (repeat)"));
        assert!(table.contains("Team 3"));
    }

    #[test]
    fn repeat_of_scenario_1_is_faster_for_every_team() {
        let mut s = session();
        let all = s.run_core_activity(true).unwrap();
        for (first, second) in all[0].iter().zip(&all[1]) {
            assert!(
                second.completion_secs() < first.completion_secs(),
                "warm-up: {} then {}",
                first.completion_secs(),
                second.completion_secs()
            );
        }
    }

    #[test]
    fn implement_quality_orders_team_times() {
        let mut s = session();
        let all = s.run_core_activity(false).unwrap();
        // Scenario 1: dauber team beats thick marker team beats thin.
        let times: Vec<f64> = all[0].iter().map(RunReport::completion_secs).collect();
        assert!(times[0] < times[1] && times[1] < times[2], "{times:?}");
    }

    #[test]
    fn times_fall_through_scenario_3_then_rise_in_4() {
        let mut s = session();
        let all = s.run_core_activity(false).unwrap();
        for team_idx in 0..3 {
            let t: Vec<f64> = all.iter().map(|r| r[team_idx].completion_secs()).collect();
            assert!(t[1] < t[0], "scenario 2 faster than 1: {t:?}");
            assert!(t[2] < t[1], "scenario 3 faster than 2: {t:?}");
            assert!(t[3] > t[2], "scenario 4 slower than 3 (contention): {t:?}");
        }
    }

    #[test]
    fn board_csv_exports_every_entry() {
        let mut s = session();
        s.run_core_activity(false).unwrap();
        let csv = s.board_csv();
        assert!(csv.starts_with("team,scenario,seconds\n"));
        assert_eq!(csv.lines().count(), 1 + 12); // header + 4 scenarios × 3 teams
        assert!(csv.contains("Team 1,scenario 1: one student,"));
    }

    #[test]
    fn one_dead_kit_does_not_end_the_lesson() {
        use flagsim_agents::{Condition, Implement};
        use flagsim_grid::Color;
        let mut s = ClassroomSession::new(&library::mauritius(), ActivityConfig::default());
        s.add_team("Team 1", 5, ImplementKind::ThickMarker);
        let dead_kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS)
            .with_implement(
                Color::Yellow,
                Implement {
                    kind: ImplementKind::ThickMarker,
                    condition: Condition::Dead,
                },
            );
        s.add_team_with_kit("Team 2", 5, dead_kit);
        s.add_team("Team 3", 5, ImplementKind::ThickMarker);
        let reports = s.run_scenario(&Scenario::fig1(1)).unwrap();
        // Teams 1 and 3 finished; Team 2's dead marker became an incident.
        assert_eq!(reports.len(), 2);
        assert_eq!(s.board().len(), 2);
        assert_eq!(s.incidents().len(), 1);
        assert_eq!(s.incidents()[0].team, "Team 2");
        assert!(s.incidents()[0].error.contains("dead"));
        // The session keeps working afterwards.
        let again = s.run_scenario(&Scenario::fig1(3)).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(s.incidents().len(), 2);
    }

    #[test]
    fn whole_class_fault_drill_attaches_resilience() {
        use crate::faults::FaultPlan;
        use flagsim_grid::Color;
        let mut s = session();
        let plan = FaultPlan::new("drill").break_implement(Color::Red, 10.0);
        let reports = s.run_scenario_with_faults(&Scenario::fig1(3), &plan).unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.correct);
            assert!(r.resilience.is_some());
        }
        assert!(s.incidents().is_empty());
    }

    #[test]
    fn deterministic_sessions() {
        let run = || {
            let mut s = session();
            let all = s.run_core_activity(true).unwrap();
            all.iter()
                .flat_map(|r| r.iter().map(RunReport::completion_secs))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
