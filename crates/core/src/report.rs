//! Run reports — what the activity measures.

use crate::faults::ResilienceReport;
use flagsim_desim::resource::ResourceStats;
use flagsim_desim::{SimDuration, SimTime, Trace};
use flagsim_grid::{Color, Grid};
use std::fmt::Write as _;

/// Per-student accounting for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudentStats {
    /// Student name ("P1" …).
    pub name: String,
    /// Cells assigned.
    pub cells: usize,
    /// Cells actually completed — differs from `cells` when the bell rang,
    /// the student dropped out, or they adopted a dropout's orphaned work.
    pub completed: usize,
    /// Time spent coloring.
    pub busy: SimDuration,
    /// Time spent waiting for markers (queue + hand-off).
    pub waiting: SimDuration,
    /// Time spent idle (done early, or waiting to start).
    pub idle: SimDuration,
    /// When they finished their part.
    pub finished_at: SimTime,
}

/// Contention on one color's implement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorContention {
    /// The color.
    pub color: Color,
    /// The resource stats from the engine.
    pub stats: ResourceStats,
}

/// What a streaming sweep keeps of one run: the two swept metrics and
/// whether the flag came out right.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepStats {
    /// Completion time in seconds, as [`RunReport::completion_secs`].
    pub completion_secs: f64,
    /// Total waiting in seconds, as [`RunReport::total_wait_secs`].
    pub wait_secs: f64,
    /// Whether the grid matches the flag, as [`RunReport::correct`].
    pub correct: bool,
}

/// Everything a run produces: the number the timer student reports, plus
/// the breakdowns the post-activity discussion digs into.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario label ("scenario 3: one stripe each").
    pub label: String,
    /// Flag that was colored.
    pub flag_name: String,
    /// Completion time — the number that goes on the board.
    pub completion: SimDuration,
    /// Per-student stats.
    pub students: Vec<StudentStats>,
    /// Per-color contention.
    pub contention: Vec<ColorContention>,
    /// The grid as colored.
    pub grid: Grid,
    /// Whether the grid matches the flag (modulo skipped colors).
    pub correct: bool,
    /// Implements that broke during the run (crayons, mostly) — each cost
    /// a replacement delay.
    pub breakages: u64,
    /// How the run weathered an injected [`crate::faults::FaultPlan`] —
    /// `None` when no faults were planned.
    pub resilience: Option<ResilienceReport>,
    /// The raw engine trace (Gantt, event log).
    pub trace: Trace,
    /// Per-student cells in the order their coloring *started* — the
    /// `k`-th entry of `cell_log[i]` is the cell behind student `i`'s
    /// `k`-th `WorkStart` trace event. Unlike the static assignments this
    /// includes adopted orphan work and the cell cut off by a bell, so a
    /// race detector can map trace events back to grid cells.
    pub cell_log: Vec<Vec<crate::work::WorkItem>>,
}

impl RunReport {
    /// Completion time in seconds.
    pub fn completion_secs(&self) -> f64 {
        self.completion.as_secs_f64()
    }

    /// The stats a streaming sweep keeps of this run.
    pub fn stats(&self) -> RepStats {
        RepStats {
            completion_secs: self.completion_secs(),
            wait_secs: self.total_wait_secs(),
            correct: self.correct,
        }
    }

    /// Total waiting across the team, in seconds — the contention bill.
    pub fn total_wait_secs(&self) -> f64 {
        self.students
            .iter()
            .map(|s| s.waiting.as_secs_f64())
            .sum()
    }

    /// Total coloring time across the team, in seconds.
    pub fn total_busy_secs(&self) -> f64 {
        self.students.iter().map(|s| s.busy.as_secs_f64()).sum()
    }

    /// Per-student busy seconds (for load-imbalance metrics).
    pub fn busy_secs_per_student(&self) -> Vec<f64> {
        self.students.iter().map(|s| s.busy.as_secs_f64()).collect()
    }

    /// Speedup of this run relative to a baseline run (usually scenario 1
    /// on the same flag): `baseline.completion / self.completion`.
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        flagsim_metrics::speedup(baseline.completion_secs(), self.completion_secs())
    }

    /// Pipeline fill time: how long until every student had started
    /// coloring (until the last first-work event). Zero when everyone
    /// starts immediately; large in scenario 4 where students queue for
    /// the red marker before doing anything.
    pub fn pipeline_fill_secs(&self) -> f64 {
        let mut latest_first_work = SimTime::ZERO;
        for (idx, _) in self.students.iter().enumerate() {
            let first = self
                .trace
                .events
                .iter()
                .find(|e| {
                    e.proc.index() == idx
                        && matches!(e.kind, flagsim_desim::EventKind::WorkStart { .. })
                })
                .map(|e| e.time)
                .unwrap_or(self.trace.end_time);
            latest_first_work = latest_first_work.max(first);
        }
        latest_first_work.as_secs_f64()
    }

    /// Export the run as a CSV bundle: `(filename, contents)` pairs for
    /// students, marker contention, and the raw event log — spreadsheet
    /// food for a post-activity data-analysis exercise.
    pub fn to_csv_bundle(&self) -> Vec<(String, String)> {
        let mut students = String::from(
            "name,cells_assigned,cells_completed,busy_s,waiting_s,idle_s,finished_at_s\n",
        );
        for s in &self.students {
            let _ = writeln!(
                students,
                "{},{},{},{:.3},{:.3},{:.3},{:.3}",
                flagsim_desim::csv_field(&s.name),
                s.cells,
                s.completed,
                s.busy.as_secs_f64(),
                s.waiting.as_secs_f64(),
                s.idle.as_secs_f64(),
                s.finished_at.as_secs_f64(),
            );
        }
        let mut contention = String::from(
            "color,acquisitions,contended,handoffs,total_wait_s,max_queue\n",
        );
        for c in &self.contention {
            let _ = writeln!(
                contention,
                "{},{},{},{},{:.3},{}",
                c.color,
                c.stats.acquisitions,
                c.stats.contended_acquisitions,
                c.stats.handoffs,
                c.stats.total_wait.as_secs_f64(),
                c.stats.max_queue_len,
            );
        }
        vec![
            ("students.csv".to_owned(), students),
            ("contention.csv".to_owned(), contention),
            ("events.csv".to_owned(), self.trace.events_csv()),
        ]
    }

    /// A classroom-style one-liner: `"scenario 3: one stripe each — 48.2s"`.
    pub fn board_line(&self) -> String {
        format!("{} — {:.1}s", self.label, self.completion_secs())
    }

    /// A multi-line breakdown for the post-activity discussion.
    pub fn detail(&self) -> String {
        let mut out = self.detail_core();
        if let Some(res) = &self.resilience {
            out.push_str(&res.render());
        }
        out
    }

    /// [`detail`](Self::detail) minus the resilience block — the part
    /// that is pure measurement. The CLI uses this for stdout and routes
    /// the resilience narrative to stderr separately.
    pub fn detail_core(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {} — completion {:.1}s ({})",
            self.label,
            self.flag_name,
            self.completion_secs(),
            if self.correct { "correct" } else { "WRONG FLAG" },
        );
        for s in &self.students {
            let _ = writeln!(
                out,
                "  {:<4} {:>3} cells  busy {:>7}  wait {:>7}  idle {:>7}",
                s.name, s.cells, s.busy, s.waiting, s.idle
            );
        }
        for c in &self.contention {
            if c.stats.contended_acquisitions > 0 {
                let _ = writeln!(
                    out,
                    "  {:<7} marker: {} grabs, {} contended, total wait {}, max queue {}",
                    c.color,
                    c.stats.acquisitions,
                    c.stats.contended_acquisitions,
                    c.stats.total_wait,
                    c.stats.max_queue_len
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            label: "scenario 1".into(),
            flag_name: "Mauritius".into(),
            completion: SimDuration::from_millis(100_000),
            students: vec![StudentStats {
                name: "P1".into(),
                cells: 96,
                completed: 96,
                busy: SimDuration::from_millis(95_000),
                waiting: SimDuration::from_millis(0),
                idle: SimDuration::from_millis(5_000),
                finished_at: SimTime(100_000),
            }],
            contention: vec![],
            grid: Grid::new(2, 2),
            correct: true,
            breakages: 0,
            resilience: None,
            trace: Trace {
                end_time: SimTime(100_000),
                procs: vec![],
                resources: vec![],
                events: vec![],
            },
            cell_log: vec![],
        }
    }

    #[test]
    fn board_line_format() {
        assert_eq!(report().board_line(), "scenario 1 — 100.0s");
    }

    #[test]
    fn speedup_vs_baseline() {
        let base = report();
        let mut fast = report();
        fast.completion = SimDuration::from_millis(25_000);
        assert_eq!(fast.speedup_vs(&base), 4.0);
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.total_busy_secs(), 95.0);
        assert_eq!(r.total_wait_secs(), 0.0);
        assert_eq!(r.busy_secs_per_student(), vec![95.0]);
    }

    #[test]
    fn csv_bundle_has_three_files_with_headers() {
        let bundle = report().to_csv_bundle();
        let names: Vec<&str> = bundle.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["students.csv", "contention.csv", "events.csv"]);
        assert!(bundle[0].1.starts_with("name,cells_assigned"));
        assert!(bundle[0].1.contains("P1,96,96,95.000,0.000"));
        assert!(bundle[2].1.starts_with("time_ms,"));
    }

    #[test]
    fn detail_mentions_everything() {
        let d = report().detail();
        assert!(d.contains("scenario 1 on Mauritius"));
        assert!(d.contains("correct"));
        assert!(d.contains("P1"));
    }
}
