//! The replay app: scrub a recorded run through synchronized panes.
//!
//! State is three numbers (scrub time, playing flag, speed exponent) —
//! every pane is a pure function of the [`ReplayData`] and the scrub
//! time, so rendering is trivially deterministic. The scripted driver
//! ([`run_script`]) feeds a fixed key sequence and emits one frame per
//! key with no clock reads at all; the interactive loop
//! ([`run_interactive`]) feeds the same app from raw-mode stdin and a
//! real repaint timer. Both paths share [`App::handle_key`], so a
//! scripted test exercises exactly the logic the user drives.

use crate::frame::Frame;
use crate::gantt::GanttModel;
use crate::input::{Key, KeyDecoder};
use crate::term;
use flagsim_core::replay::Replay;
use flagsim_core::RunReport;
use flagsim_core::WorkItem;
use flagsim_desim::causal::{self, CausalAnalysis, SegmentKind};
use flagsim_desim::{SimTime, Trace};
use std::io::Write as _;

/// One blame/race panel entry, anchored to the instant it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// One-line description.
    pub label: String,
    /// When the underlying behaviour started (ms).
    pub start_ms: u64,
    /// When it ended (ms).
    pub end_ms: u64,
}

impl Finding {
    /// Panel marker for this finding at scrub time `t`: `.` not yet
    /// reached, `>` happening now, `*` already observed.
    pub fn marker_at(&self, t_ms: u64) -> char {
        if t_ms < self.start_ms {
            '.'
        } else if t_ms < self.end_ms {
            '>'
        } else {
            '*'
        }
    }
}

/// Everything the replay panes draw from — computed once, scrubbed many
/// times.
#[derive(Debug, Clone)]
pub struct ReplayData {
    /// Pane header ("scenario 4: vertical slices on Mauritius").
    pub title: String,
    /// Grid reconstruction; `None` for a trace-file replay (a Chrome
    /// trace carries no cell identities).
    pub replay: Option<Replay>,
    /// The run's trace.
    pub trace: Trace,
    /// Causal analysis of the trace (critical path, blame, what-if).
    pub analysis: CausalAnalysis,
    /// Interval model behind the gantt pane.
    pub gantt: GanttModel,
    /// Race/tie findings anchored to their instants (empty for
    /// trace-file replays: no cell info, no race detection).
    pub findings: Vec<Finding>,
}

impl ReplayData {
    /// Build from a finished run: grid replay, causal analysis, and
    /// happens-before findings, all from the one report.
    pub fn from_report(
        title: impl Into<String>,
        report: &RunReport,
        assignments: &[Vec<WorkItem>],
    ) -> ReplayData {
        let analysis = causal::analyze(&report.trace);
        let hb = flagsim_simcheck::hb::check_run(report);
        let mut findings = Vec::new();
        for (d, span) in hb.races.iter().zip(&hb.race_spans) {
            findings.push(Finding {
                label: format!("{}: {}", d.id, d.message),
                start_ms: span.0.millis(),
                end_ms: span.1.millis(),
            });
        }
        for t in &hb.ties {
            findings.push(Finding {
                label: format!(
                    "SC302: {} procs tied for \"{}\" at {}ms",
                    t.procs.len(),
                    t.resource,
                    t.at.millis()
                ),
                start_ms: t.at.millis(),
                end_ms: t.at.millis(),
            });
        }
        findings.sort_by(|a, b| (a.start_ms, &a.label).cmp(&(b.start_ms, &b.label)));
        ReplayData {
            title: title.into(),
            replay: Some(Replay::new(report, assignments)),
            gantt: GanttModel::new(&report.trace, &analysis),
            trace: report.trace.clone(),
            analysis,
            findings,
        }
    }

    /// Build from a bare trace (Chrome trace-file source): timelines,
    /// critical path, and blame — no grid, no race findings.
    pub fn from_trace(title: impl Into<String>, trace: Trace) -> ReplayData {
        let analysis = causal::analyze(&trace);
        ReplayData {
            title: title.into(),
            replay: None,
            gantt: GanttModel::new(&trace, &analysis),
            trace,
            analysis,
            findings: Vec::new(),
        }
    }

    /// The run's end time in milliseconds.
    pub fn end_ms(&self) -> u64 {
        self.trace.end_time.millis()
    }

    /// Milliseconds waited on `resource_index` within `[0, t_ms]`.
    fn waited_by(&self, resource_index: usize, t_ms: u64) -> u64 {
        self.analysis
            .timelines
            .iter()
            .flatten()
            .filter(|s| match s.kind {
                SegmentKind::Wait { resource, .. } => resource.index() == resource_index,
                _ => false,
            })
            .map(|s| s.end.millis().min(t_ms).saturating_sub(s.start.millis()))
            .sum()
    }
}

/// Scrub steps per run at 1x speed: fine enough that every cell-level
/// change is visitable, coarse enough that holding play crosses a run
/// in seconds.
pub const TICKS_PER_RUN: u64 = 120;

/// The replay app's entire mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct App {
    /// Current scrub time (ms).
    pub t_ms: u64,
    /// Run length (ms).
    pub end_ms: u64,
    /// Whether ticks advance the scrub time.
    pub playing: bool,
    /// Playback speed as a power of two: step = base · 2^exp.
    pub speed_exp: i32,
}

impl App {
    /// Paused at t=0, 1x speed.
    pub fn new(end_ms: u64) -> App {
        App {
            t_ms: 0,
            end_ms,
            playing: false,
            speed_exp: 0,
        }
    }

    /// One scrub step at 1x: the run divided into [`TICKS_PER_RUN`].
    fn base_step(&self) -> u64 {
        (self.end_ms / TICKS_PER_RUN).max(1)
    }

    /// One scrub step at the current speed (never zero).
    fn step(&self) -> u64 {
        let base = self.base_step();
        if self.speed_exp >= 0 {
            base.saturating_mul(1u64 << self.speed_exp.min(16))
        } else {
            (base >> (-self.speed_exp).min(16)).max(1)
        }
    }

    /// Human-readable speed ("x1", "x8", "x1/4").
    pub fn speed_label(&self) -> String {
        if self.speed_exp >= 0 {
            format!("x{}", 1u64 << self.speed_exp.min(16))
        } else {
            format!("x1/{}", 1u64 << (-self.speed_exp).min(16))
        }
    }

    /// Apply one key; returns `false` when the app should quit.
    pub fn handle_key(&mut self, key: Key) -> bool {
        match key {
            Key::Quit => return false,
            Key::PlayPause => self.playing = !self.playing,
            Key::StepFwd => self.t_ms = (self.t_ms + self.base_step()).min(self.end_ms),
            Key::StepBack => self.t_ms = self.t_ms.saturating_sub(self.base_step()),
            Key::JumpFwd => {
                self.t_ms = (self.t_ms + (self.end_ms / 10).max(1)).min(self.end_ms)
            }
            Key::JumpBack => self.t_ms = self.t_ms.saturating_sub((self.end_ms / 10).max(1)),
            Key::Home => self.t_ms = 0,
            Key::End => self.t_ms = self.end_ms,
            Key::Faster => self.speed_exp = (self.speed_exp + 1).min(6),
            Key::Slower => self.speed_exp = (self.speed_exp - 1).max(-3),
            Key::SpeedReset => self.speed_exp = 0,
            Key::Tick => {
                if self.playing {
                    self.t_ms = (self.t_ms + self.step()).min(self.end_ms);
                    if self.t_ms == self.end_ms {
                        self.playing = false;
                    }
                }
            }
        }
        true
    }
}

fn secs(ms: u64) -> String {
    format!("{:.1}s", ms as f64 / 1000.0)
}

/// Render every pane at the app's scrub time into one plain-text frame.
pub fn render(data: &ReplayData, app: &App, width: usize) -> Frame {
    let mut f = Frame::new(width);
    let t = SimTime(app.t_ms);

    f.line(&format!("watch: {}", data.title));
    let state = if app.playing {
        format!("playing {}", app.speed_label())
    } else {
        "paused".to_owned()
    };
    let progress = match &data.replay {
        Some(r) => {
            let total = (r.completions().len() + r.in_flight().len()).max(1);
            format!("  {}/{total} cells", r.progress_at(t))
        }
        None => String::new(),
    };
    f.line(&format!(
        "t = {} / {}  [{state}]{progress}",
        secs(app.t_ms),
        secs(app.end_ms)
    ));
    f.blank();

    // Grid pane (when cell identities exist) beside the blame/race
    // panel; panel alone otherwise.
    let panel = side_panel(data, app.t_ms);
    match &data.replay {
        Some(r) => {
            let grid = r.ascii_at(t);
            let left_w = (r.width() as usize).max(10);
            f.extend_columns(&grid, left_w, &panel);
        }
        None => f.extend_text(&panel),
    }
    f.blank();

    // Gantt pane, scrubbed.
    f.line("gantt  # busy  ~ wait  . idle  (critical path: X/W/o)");
    let gantt_width = width.saturating_sub(12).clamp(20, 64);
    f.extend_text(&data.gantt.render_at(gantt_width, app.t_ms));
    f.blank();
    f.line("keys: q quit  p play/pause  h/l step  H/L jump  g/G start/end  +/-/= speed");
    f
}

/// The blame/race side panel at instant `t_ms`.
fn side_panel(data: &ReplayData, t_ms: u64) -> String {
    let mut out = String::new();
    let w = &data.analysis.whatif;
    out.push_str(&format!(
        "run: observed {}  no-contention {}  ideal {}\n",
        secs(w.observed.millis()),
        secs(w.no_contention.millis()),
        secs(w.ideal_balance.millis())
    ));
    out.push_str("waited so far:\n");
    let mut any = false;
    for b in data.analysis.blame.iter().take(4) {
        let label = data
            .trace
            .resources
            .get(b.resource.index())
            .map(|r| r.label.as_str())
            .unwrap_or("?");
        let so_far = data.waited_by(b.resource.index(), t_ms);
        out.push_str(&format!(
            "  {label}: {} of {}\n",
            secs(so_far),
            secs(b.total.millis())
        ));
        any = true;
    }
    if !any {
        out.push_str("  (no contention)\n");
    }
    out.push_str("findings:\n");
    if data.findings.is_empty() {
        let note = if data.replay.is_some() {
            "  (none)"
        } else {
            "  (trace-file source: no cell data, race check skipped)"
        };
        out.push_str(note);
        out.push('\n');
    }
    for fi in data.findings.iter().take(6) {
        out.push_str(&format!("  {} {}\n", fi.marker_at(t_ms), fi.label));
    }
    if data.findings.len() > 6 {
        out.push_str(&format!("  … {} more\n", data.findings.len() - 6));
    }
    out
}

/// Drive the app with a scripted key sequence: one rendered frame for
/// the initial state, then one per key, stopping at `Quit`. No clock is
/// read anywhere on this path — same data, same keys, same width ⇒
/// byte-identical frames.
pub fn run_script(data: &ReplayData, keys: &[Key], width: usize) -> Vec<String> {
    let mut app = App::new(data.end_ms());
    let mut frames = vec![render(data, &app, width).render()];
    for &k in keys {
        if !app.handle_key(k) {
            break;
        }
        frames.push(render(data, &app, width).render());
    }
    frames
}

/// Run the full-screen interactive loop on the controlling terminal:
/// alternate screen, raw-mode keys, ~12 fps repaint, ticks driving
/// playback. Returns when the user quits (or stdin closes).
pub fn run_interactive(data: &ReplayData) -> Result<(), String> {
    let raw = term::RawMode::enable()?;
    let mut out = std::io::stdout();
    term::enter_alt_screen(&mut out);
    let keys = term::spawn_stdin_reader();
    let mut decoder = KeyDecoder::new();
    let mut app = App::new(data.end_ms());
    let width = term::detect_width();
    loop {
        term::cursor_home(&mut out);
        let frame = render(data, &app, width).render();
        // Clear each line's tail and everything below the frame, so a
        // shrinking frame leaves no stale rows.
        let _ = write!(out, "{}\x1b[J", frame.replace('\n', "\x1b[K\r\n"));
        let _ = out.flush();
        match keys.recv_timeout(std::time::Duration::from_millis(80)) {
            Ok(byte) => {
                if let Some(k) = decoder.feed(byte) {
                    if !app.handle_key(k) {
                        break;
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                app.handle_key(Key::Tick);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    term::leave_alt_screen(&mut out);
    drop(raw);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::script_keys;
    use flagsim_agents::{ImplementKind, StudentProfile};
    use flagsim_core::config::ActivityConfig;
    use flagsim_core::partition::{CellOrder, PartitionStrategy};
    use flagsim_core::work::PreparedFlag;
    use flagsim_core::TeamKit;
    use flagsim_flags::library;

    fn scenario4_data() -> ReplayData {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let mut team: Vec<StudentProfile> = (1..=4)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &pf.colors_needed(&[]));
        let report = flagsim_core::run_activity(
            "scenario 4",
            &pf,
            &assignments,
            &mut team,
            &kit,
            &ActivityConfig::default().with_seed(7),
            &flagsim_core::FaultPlan::none(),
            None,
        )
        .and_then(flagsim_core::ActivityOutcome::into_report)
        .unwrap();
        ReplayData::from_report("scenario 4 on Mauritius", &report, &assignments)
    }

    #[test]
    fn keys_drive_the_scrub_clock() {
        let mut app = App::new(12_000);
        assert!(app.handle_key(Key::StepFwd));
        assert_eq!(app.t_ms, 100, "base step = end/120");
        app.handle_key(Key::JumpFwd);
        assert_eq!(app.t_ms, 1_300);
        app.handle_key(Key::StepBack);
        assert_eq!(app.t_ms, 1_200);
        app.handle_key(Key::End);
        assert_eq!(app.t_ms, 12_000);
        app.handle_key(Key::StepFwd);
        assert_eq!(app.t_ms, 12_000, "clamped at end");
        app.handle_key(Key::Home);
        assert_eq!(app.t_ms, 0);
        app.handle_key(Key::StepBack);
        assert_eq!(app.t_ms, 0, "clamped at start");
        assert!(!app.handle_key(Key::Quit));
    }

    #[test]
    fn ticks_advance_only_while_playing_and_speed_scales() {
        let mut app = App::new(12_000);
        app.handle_key(Key::Tick);
        assert_eq!(app.t_ms, 0, "paused ticks are no-ops");
        app.handle_key(Key::PlayPause);
        app.handle_key(Key::Tick);
        assert_eq!(app.t_ms, 100);
        app.handle_key(Key::Faster);
        app.handle_key(Key::Faster);
        app.handle_key(Key::Tick);
        assert_eq!(app.t_ms, 500, "x4 tick");
        assert_eq!(app.speed_label(), "x4");
        app.handle_key(Key::SpeedReset);
        app.handle_key(Key::Slower);
        assert_eq!(app.speed_label(), "x1/2");
        app.handle_key(Key::End);
        // Reaching the end pauses playback.
        let mut app2 = App::new(100);
        app2.handle_key(Key::PlayPause);
        for _ in 0..200 {
            app2.handle_key(Key::Tick);
        }
        assert_eq!(app2.t_ms, 100);
        assert!(!app2.playing, "auto-pause at the end");
    }

    #[test]
    fn frames_are_plain_text_with_all_panes() {
        let data = scenario4_data();
        let app = App::new(data.end_ms());
        let text = render(&data, &app, 100).render();
        assert!(!text.contains('\x1b'), "no escapes in frames");
        assert!(text.contains("watch: scenario 4 on Mauritius"));
        assert!(text.contains("0/96 cells"), "{text}");
        assert!(text.contains("gantt"));
        assert!(text.contains("waited so far:"));
        assert!(text.contains("keys: q quit"));
    }

    #[test]
    fn scripted_replay_is_deterministic_and_ends_at_the_final_grid() {
        let data = scenario4_data();
        let keys = script_keys("p ttttt G q").unwrap();
        let a = run_script(&data, &keys, 100);
        let b = run_script(&data, &keys, 100);
        assert_eq!(a, b, "byte-identical across runs");
        // Quit stops frame production: initial + one per key up to q.
        assert_eq!(a.len(), 1 + (keys.len() - 1));
        // The last frame (after G) shows the completed run.
        let last = a.last().unwrap();
        assert!(last.contains("96/96 cells"), "{last}");
        let replay = data.replay.as_ref().unwrap();
        let final_grid = replay.ascii_at(SimTime(data.end_ms()));
        for row in final_grid.lines() {
            assert!(last.contains(row), "final grid row missing: {row}");
        }
    }

    #[test]
    fn findings_markers_follow_the_scrub_time() {
        let f = Finding {
            label: "race".into(),
            start_ms: 100,
            end_ms: 200,
        };
        assert_eq!(f.marker_at(0), '.');
        assert_eq!(f.marker_at(150), '>');
        assert_eq!(f.marker_at(200), '*');
    }

    #[test]
    fn trace_only_data_renders_without_grid_or_findings() {
        let data = scenario4_data();
        let trace_only = ReplayData::from_trace("from trace", data.trace.clone());
        let app = App::new(trace_only.end_ms());
        let text = render(&trace_only, &app, 100).render();
        assert!(text.contains("race check skipped"), "{text}");
        assert!(!text.contains("cells"), "no grid progress: {text}");
    }
}
