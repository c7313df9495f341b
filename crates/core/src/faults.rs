//! Fault injection and recovery — the classroom drills nobody plans for.
//!
//! A real run of the activity survives mishaps: a crayon snaps, a marker
//! dries out, a student is called to the office, someone shows up late,
//! a hand-off is fumbled and the marker rolls under a desk, the bell
//! rings early. This module makes those mishaps *declarative*: a
//! [`FaultPlan`] lists timed [`FaultEvent`]s, a [`RecoveryPolicy`] says
//! how the team reacts, and every faulted run attaches a
//! [`ResilienceReport`] to its [`RunReport`](crate::report::RunReport)
//! recording what was injected, what actually bit, what recovery did,
//! and how much time it cost.
//!
//! Plans are plain data (build them with the fluent constructors, parse
//! them from the CLI mini-DSL with [`FaultPlan::parse`], or draw a random
//! one from a seed with [`FaultPlan::random`]) and are injected by
//! [`run_activity`](crate::run::run_activity).

use flagsim_grid::Color;
use std::fmt;
use std::fmt::Write as _;

/// Default seconds to fetch a spare implement when one fails mid-run.
pub const DEFAULT_REPLACEMENT_DELAY_SECS: f64 = 12.0;

/// One declarative mishap, scheduled in simulation seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The (single) implement of `color` snaps at `at_secs`; the next
    /// student to use it discovers the damage.
    ImplementBreaks {
        /// Which color's implement breaks.
        color: Color,
        /// When it breaks, in simulation seconds.
        at_secs: f64,
    },
    /// The implement of `color` dries out at `at_secs` — same effect as a
    /// break, different story for the debrief.
    ImplementDriesOut {
        /// Which color's implement dries out.
        color: Color,
        /// When it dries out, in simulation seconds.
        at_secs: f64,
    },
    /// Student `student` (0-based index into the coloring team) leaves at
    /// `at_secs`. They finish the cell under their hand, put any held
    /// implement back, and are gone; their remaining cells are orphaned.
    Dropout {
        /// 0-based index of the departing student.
        student: usize,
        /// When they leave, in simulation seconds.
        at_secs: f64,
    },
    /// Student `student` only arrives at `at_secs` instead of at the
    /// start — their whole work list waits for them.
    LateArrival {
        /// 0-based index of the late student.
        student: usize,
        /// When they arrive, in simulation seconds.
        at_secs: f64,
    },
    /// Every hand-off of `color`'s implement is fumbled — dropped, chased,
    /// picked back up — costing `extra_secs` on top of the normal hand-off
    /// latency.
    HandoffFumble {
        /// Which color's implement is butterfingered.
        color: Color,
        /// Extra seconds per hand-off.
        extra_secs: f64,
    },
    /// The class bell rings at `at_secs`: whatever is unfinished is lost
    /// (combines with any configured deadline — the earlier one wins).
    DeadlineBell {
        /// When the bell rings, in simulation seconds.
        at_secs: f64,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::ImplementBreaks { color, at_secs } => {
                write!(f, "the {color} implement breaks at {at_secs:.1}s")
            }
            FaultEvent::ImplementDriesOut { color, at_secs } => {
                write!(f, "the {color} implement dries out at {at_secs:.1}s")
            }
            FaultEvent::Dropout { student, at_secs } => {
                write!(f, "student #{} drops out at {at_secs:.1}s", student + 1)
            }
            FaultEvent::LateArrival { student, at_secs } => {
                write!(f, "student #{} arrives {at_secs:.1}s late", student + 1)
            }
            FaultEvent::HandoffFumble { color, extra_secs } => {
                write!(f, "every {color} hand-off fumbles (+{extra_secs:.1}s)")
            }
            FaultEvent::DeadlineBell { at_secs } => {
                write!(f, "the bell rings at {at_secs:.1}s")
            }
        }
    }
}

/// How the team reacts when a fault bites.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryPolicy {
    /// Survivors absorb orphaned work as they free up, and failed
    /// implements are swapped for spares after the default delay
    /// ([`DEFAULT_REPLACEMENT_DELAY_SECS`]).
    #[default]
    Rebalance,
    /// Like [`RecoveryPolicy::Rebalance`], but the spare-swap delay is
    /// explicit — model a spare box across the room.
    SpareSwap {
        /// Seconds to fetch and unwrap the spare.
        replacement_delay_secs: f64,
    },
    /// Stop the whole run at the first fault and report what happened —
    /// the team that gives up and calls the instructor over.
    AbortAndReport,
}

impl RecoveryPolicy {
    /// Seconds a spare swap costs under this policy, or `None` if the
    /// policy aborts instead of recovering.
    pub fn spare_delay_secs(&self) -> Option<f64> {
        match self {
            RecoveryPolicy::Rebalance => Some(DEFAULT_REPLACEMENT_DELAY_SECS),
            RecoveryPolicy::SpareSwap {
                replacement_delay_secs,
            } => Some(*replacement_delay_secs),
            RecoveryPolicy::AbortAndReport => None,
        }
    }

    /// True when the first fault ends the run.
    pub fn aborts(&self) -> bool {
        matches!(self, RecoveryPolicy::AbortAndReport)
    }
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPolicy::Rebalance => write!(f, "rebalance survivors"),
            RecoveryPolicy::SpareSwap {
                replacement_delay_secs,
            } => write!(f, "spare swap ({replacement_delay_secs:.1}s)"),
            RecoveryPolicy::AbortAndReport => write!(f, "abort and report"),
        }
    }
}

/// A named, declarative set of faults plus the recovery policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Label for reports ("marker drill week 2").
    pub label: String,
    /// The scheduled mishaps.
    pub events: Vec<FaultEvent>,
    /// How the team reacts.
    pub policy: RecoveryPolicy,
}

impl FaultPlan {
    /// The empty plan: nothing goes wrong.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A fresh, empty plan with a label.
    pub fn new(label: impl Into<String>) -> Self {
        FaultPlan {
            label: label.into(),
            ..FaultPlan::default()
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Set the recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Add: the `color` implement breaks at `at_secs`.
    pub fn break_implement(mut self, color: Color, at_secs: f64) -> Self {
        self.events.push(FaultEvent::ImplementBreaks { color, at_secs });
        self
    }

    /// Add: the `color` implement dries out at `at_secs`.
    pub fn dry_out(mut self, color: Color, at_secs: f64) -> Self {
        self.events
            .push(FaultEvent::ImplementDriesOut { color, at_secs });
        self
    }

    /// Add: student `student` (0-based) drops out at `at_secs`.
    pub fn dropout(mut self, student: usize, at_secs: f64) -> Self {
        self.events.push(FaultEvent::Dropout { student, at_secs });
        self
    }

    /// Add: student `student` (0-based) arrives at `at_secs`.
    pub fn late_arrival(mut self, student: usize, at_secs: f64) -> Self {
        self.events.push(FaultEvent::LateArrival { student, at_secs });
        self
    }

    /// Add: every `color` hand-off costs `extra_secs` more.
    pub fn fumble(mut self, color: Color, extra_secs: f64) -> Self {
        self.events
            .push(FaultEvent::HandoffFumble { color, extra_secs });
        self
    }

    /// Add: the bell rings at `at_secs`.
    pub fn bell(mut self, at_secs: f64) -> Self {
        self.events.push(FaultEvent::DeadlineBell { at_secs });
        self
    }

    /// Check the plan against a team of `team_size` coloring students:
    /// student indices must be in range, every time finite and
    /// non-negative.
    pub fn validate(&self, team_size: usize) -> Result<(), String> {
        for e in &self.events {
            let (t, who) = match e {
                FaultEvent::ImplementBreaks { at_secs, .. }
                | FaultEvent::ImplementDriesOut { at_secs, .. }
                | FaultEvent::DeadlineBell { at_secs } => (*at_secs, None),
                FaultEvent::Dropout { student, at_secs }
                | FaultEvent::LateArrival { student, at_secs } => (*at_secs, Some(*student)),
                FaultEvent::HandoffFumble { extra_secs, .. } => (*extra_secs, None),
            };
            if !t.is_finite() || t < 0.0 {
                return Err(format!("fault plan: bad time in \"{e}\""));
            }
            if let Some(s) = who {
                if s >= team_size {
                    return Err(format!(
                        "fault plan: \"{e}\" names student #{} but the team has {team_size}",
                        s + 1
                    ));
                }
            }
            if let FaultEvent::DeadlineBell { at_secs } = e {
                if *at_secs <= 0.0 {
                    return Err(format!("fault plan: bell at {at_secs}s must be after the start"));
                }
            }
        }
        Ok(())
    }

    /// A seeded random plan: one to three events drawn from the fault
    /// vocabulary, targeting the given team and colors. Same seed, same
    /// plan — sweeps and property tests stay reproducible.
    pub fn random(seed: u64, team_size: usize, colors: &[Color]) -> FaultPlan {
        // splitmix64 — tiny, deterministic, good enough for plan picking.
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            let mut z = s;
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new(format!("random plan (seed {seed})"));
        let n = 1 + (next() % 3) as usize;
        for _ in 0..n {
            let t = 5.0 + (next() % 120) as f64;
            let color = if colors.is_empty() {
                Color::Red
            } else {
                colors[(next() as usize) % colors.len()]
            };
            let student = if team_size == 0 {
                0
            } else {
                (next() as usize) % team_size
            };
            plan = match next() % 6 {
                0 => plan.break_implement(color, t),
                1 => plan.dry_out(color, t),
                2 if team_size > 1 => plan.dropout(student, t),
                3 => plan.late_arrival(student, t.min(30.0)),
                4 => plan.fumble(color, 1.0 + (next() % 5) as f64),
                _ => plan.bell(60.0 + t),
            };
        }
        plan
    }

    /// Parse the CLI mini-DSL: comma-separated events, e.g.
    /// `break:red@30,dropout:2@12,fumble:blue+3,bell@120`.
    ///
    /// Forms: `break:<color>@<t>`, `dryout:<color>@<t>`,
    /// `dropout:<i>@<t>`, `late:<i>@<t>` (1-based student numbers),
    /// `fumble:<color>+<secs>`, `bell@<t>`.
    pub fn parse(spec: &str, label: impl Into<String>) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(label);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            plan = plan.parse_one(part)?;
        }
        if plan.is_empty() {
            return Err(format!("fault plan {spec:?} contains no events"));
        }
        Ok(plan)
    }

    fn parse_one(self, part: &str) -> Result<FaultPlan, String> {
        let secs = |s: &str| -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|_| format!("bad seconds {s:?} in fault {part:?}"))
        };
        let student = |s: &str| -> Result<usize, String> {
            match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n - 1),
                _ => Err(format!("bad student number {s:?} in fault {part:?} (1-based)")),
            }
        };
        if let Some(t) = part.strip_prefix("bell@") {
            return Ok(self.bell(secs(t)?));
        }
        let Some((kind, rest)) = part.split_once(':') else {
            return Err(format!(
                "bad fault {part:?} (want break:, dryout:, dropout:, late:, fumble:, bell@)"
            ));
        };
        match kind {
            "break" | "dryout" => {
                let Some((color, t)) = rest.split_once('@') else {
                    return Err(format!("bad fault {part:?}, want {kind}:<color>@<t>"));
                };
                let color = parse_color(color)?;
                let t = secs(t)?;
                Ok(if kind == "break" {
                    self.break_implement(color, t)
                } else {
                    self.dry_out(color, t)
                })
            }
            "dropout" | "late" => {
                let Some((who, t)) = rest.split_once('@') else {
                    return Err(format!("bad fault {part:?}, want {kind}:<student>@<t>"));
                };
                let who = student(who)?;
                let t = secs(t)?;
                Ok(if kind == "dropout" {
                    self.dropout(who, t)
                } else {
                    self.late_arrival(who, t)
                })
            }
            "fumble" => {
                let Some((color, extra)) = rest.split_once('+') else {
                    return Err(format!("bad fault {part:?}, want fumble:<color>+<secs>"));
                };
                Ok(self.fumble(parse_color(color)?, secs(extra)?))
            }
            other => Err(format!("unknown fault kind {other:?} in {part:?}")),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} event(s), {})", self.label, self.events.len(), self.policy)
    }
}

/// Parse a color name used in the fault DSL.
pub fn parse_color(s: &str) -> Result<Color, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "red" => Color::Red,
        "blue" => Color::Blue,
        "yellow" => Color::Yellow,
        "green" => Color::Green,
        "white" => Color::White,
        "black" => Color::Black,
        "orange" => Color::Orange,
        other => return Err(format!("unknown color {other:?}")),
    })
}

/// A fault that actually bit during the run (a planned fault targeting an
/// unused color or an already-finished student never becomes an incident).
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// When it bit, in simulation seconds.
    pub at_secs: f64,
    /// What happened, human-readable.
    pub what: String,
}

/// One thing recovery did in response to an incident.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// A failed implement was swapped for a spare.
    SpareSwapped {
        /// The implement's color.
        color: Color,
        /// When the swap happened, in simulation seconds.
        at_secs: f64,
        /// Seconds the swap cost.
        delay_secs: f64,
    },
    /// A dropout's remaining cells were put back on the table for
    /// survivors to pick up.
    WorkRebalanced {
        /// 0-based index of the student who left.
        student: usize,
        /// Cells orphaned.
        cells: usize,
        /// When, in simulation seconds.
        at_secs: f64,
    },
    /// A survivor picked up orphaned cells after finishing their own.
    CellsAdopted {
        /// 0-based index of the adopting student.
        student: usize,
        /// Cells they took over.
        cells: usize,
    },
    /// The policy aborted the run at the first fault.
    Aborted {
        /// When, in simulation seconds.
        at_secs: f64,
    },
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::SpareSwapped {
                color,
                at_secs,
                delay_secs,
            } => write!(
                f,
                "swapped in a spare {color} implement at {at_secs:.1}s ({delay_secs:.1}s lost)"
            ),
            RecoveryAction::WorkRebalanced {
                student,
                cells,
                at_secs,
            } => write!(
                f,
                "rebalanced {cells} cell(s) from student #{} at {at_secs:.1}s",
                student + 1
            ),
            RecoveryAction::CellsAdopted { student, cells } => {
                write!(f, "student #{} adopted {cells} orphaned cell(s)", student + 1)
            }
            RecoveryAction::Aborted { at_secs } => {
                write!(f, "aborted the run at {at_secs:.1}s")
            }
        }
    }
}

/// What a faulted run went through: the plan, the incidents that actually
/// happened, the recovery actions taken, and the recovery overhead paid.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Label of the injected plan.
    pub plan_label: String,
    /// The policy that was in force.
    pub policy: RecoveryPolicy,
    /// Events the plan scheduled (whether or not they bit).
    pub faults_planned: usize,
    /// Faults that actually bit, in time order.
    pub incidents: Vec<Incident>,
    /// What recovery did about them.
    pub actions: Vec<RecoveryAction>,
    /// Seconds of pure recovery overhead (spare fetches, fumble chases) —
    /// always non-negative; time lost to *reduced parallelism* shows up in
    /// the completion time instead.
    pub time_lost_secs: f64,
    /// True when the policy aborted the run.
    pub aborted: bool,
}

impl ResilienceReport {
    /// The machine-relevant one-glance part: the plan header and the
    /// recovery-overhead total. This is what belongs on stdout.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "resilience: plan \"{}\" ({} fault(s) planned, policy: {})\n",
            self.plan_label, self.faults_planned, self.policy
        );
        let _ = writeln!(
            out,
            "  recovery overhead: {:.1}s{}",
            self.time_lost_secs,
            if self.aborted { " (run aborted)" } else { "" }
        );
        out
    }

    /// The blow-by-blow incident log and recovery actions — diagnostic
    /// narration, which the CLI routes to stderr.
    pub fn narrative(&self) -> String {
        let mut out = String::new();
        if self.incidents.is_empty() {
            out.push_str("  no fault actually bit\n");
        }
        for i in &self.incidents {
            let _ = writeln!(out, "  [{:>6.1}s] {}", i.at_secs, i.what);
        }
        for a in &self.actions {
            let _ = writeln!(out, "  -> {a}");
        }
        out
    }

    /// Multi-line, human-readable rendering for the debrief:
    /// [`summary`](Self::summary) header, then the
    /// [`narrative`](Self::narrative), then the overhead footer.
    pub fn render(&self) -> String {
        let mut out = format!(
            "resilience: plan \"{}\" ({} fault(s) planned, policy: {})\n",
            self.plan_label, self.faults_planned, self.policy
        );
        out.push_str(&self.narrative());
        let _ = writeln!(
            out,
            "  recovery overhead: {:.1}s{}",
            self.time_lost_secs,
            if self.aborted { " (run aborted)" } else { "" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_events() {
        let plan = FaultPlan::new("drill")
            .break_implement(Color::Red, 30.0)
            .dropout(1, 12.0)
            .fumble(Color::Blue, 3.0)
            .bell(120.0)
            .with_policy(RecoveryPolicy::SpareSwap {
                replacement_delay_secs: 8.0,
            });
        assert_eq!(plan.events.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.policy.spare_delay_secs(), Some(8.0));
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_students_and_bad_times() {
        let plan = FaultPlan::new("bad").dropout(5, 10.0);
        assert!(plan.validate(4).unwrap_err().contains("student #6"));
        let plan = FaultPlan::new("bad").break_implement(Color::Red, -1.0);
        assert!(plan.validate(4).is_err());
        let plan = FaultPlan::new("bad").bell(0.0);
        assert!(plan.validate(4).is_err());
        let plan = FaultPlan::new("bad").late_arrival(0, f64::NAN);
        assert!(plan.validate(1).is_err());
    }

    #[test]
    fn dsl_round_trips_every_form() {
        let plan =
            FaultPlan::parse("break:red@30, dryout:green@45,dropout:2@12,late:1@5,fumble:blue+3,bell@120", "dsl")
                .unwrap();
        assert_eq!(plan.events.len(), 6);
        assert_eq!(
            plan.events[0],
            FaultEvent::ImplementBreaks {
                color: Color::Red,
                at_secs: 30.0
            }
        );
        assert_eq!(
            plan.events[2],
            FaultEvent::Dropout {
                student: 1,
                at_secs: 12.0
            }
        );
        assert_eq!(
            plan.events[3],
            FaultEvent::LateArrival {
                student: 0,
                at_secs: 5.0
            }
        );
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn dsl_rejects_nonsense() {
        assert!(FaultPlan::parse("", "x").is_err());
        assert!(FaultPlan::parse("explode:red@3", "x").is_err());
        assert!(FaultPlan::parse("break:mauve@3", "x").is_err());
        assert!(FaultPlan::parse("dropout:0@3", "x").is_err(), "students are 1-based");
        assert!(FaultPlan::parse("break:red@soon", "x").is_err());
        assert!(FaultPlan::parse("fumble:red@3", "x").is_err(), "fumble uses +");
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let a = FaultPlan::random(7, 4, &Color::MAURITIUS);
        let b = FaultPlan::random(7, 4, &Color::MAURITIUS);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.events.len() <= 3);
        assert!(a.validate(4).is_ok());
        let c = FaultPlan::random(8, 4, &Color::MAURITIUS);
        assert_ne!(a, c, "different seeds should differ");
        // Degenerate inputs still produce valid plans.
        assert!(FaultPlan::random(3, 1, &[]).validate(1).is_ok());
    }

    #[test]
    fn resilience_report_renders_everything() {
        let r = ResilienceReport {
            plan_label: "drill".into(),
            policy: RecoveryPolicy::Rebalance,
            faults_planned: 2,
            incidents: vec![Incident {
                at_secs: 30.0,
                what: "the Red implement broke".into(),
            }],
            actions: vec![
                RecoveryAction::SpareSwapped {
                    color: Color::Red,
                    at_secs: 31.0,
                    delay_secs: 12.0,
                },
                RecoveryAction::CellsAdopted {
                    student: 2,
                    cells: 5,
                },
            ],
            time_lost_secs: 12.0,
            aborted: false,
        };
        let s = r.render();
        assert!(s.contains("drill"));
        assert!(s.contains("Red implement broke"));
        assert!(s.contains("spare"));
        assert!(s.contains("adopted 5"));
        assert!(s.contains("12.0s"));
    }

    #[test]
    fn event_display_is_descriptive() {
        assert!(FaultEvent::DeadlineBell { at_secs: 120.0 }
            .to_string()
            .contains("bell"));
        assert!(FaultEvent::Dropout {
            student: 1,
            at_secs: 12.0
        }
        .to_string()
        .contains("#2"));
    }
}
