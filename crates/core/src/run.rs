//! Wiring the activity into the DES engine.
//!
//! Each student becomes a [`Process`] walking their assigned cell list;
//! each color's single implement becomes an exclusive resource. Per-cell
//! durations are pre-sampled (they depend only on the student's own
//! history, not on interleaving), so the DES run itself is exact.
//!
//! Every run goes through one body, `RunSpec::simulate`, which returns
//! the engine's accounting. Two post-steps turn that accounting into an
//! outcome: `RunSpec::report` assembles the full [`RunReport`] (grid
//! repaint, per-student stats, contention, cell log, resilience), and
//! `RunSpec::stats` keeps only the [`RepStats`] a streaming sweep
//! folds. What no rep changes — the colors an assignment set needs,
//! each cell's color slot, the kit resolved per slot, the student names
//! — is resolved before the body runs: once per compiled scenario or
//! sweep, or once per call for a one-off [`run_activity`].
//!
//! Fault injection (the `plan` argument of [`run_activity`]) threads a
//! shared [`faults::FaultPlan`] through the same state machine: students
//! consult the live fault state at every poll, so dropouts leave at their
//! next natural pause, broken implements are discovered by the next student to
//! use them, and orphaned cells sit in a shared pool that survivors adopt
//! after finishing their own work. Orphaned cells keep their pre-sampled
//! durations — the adopting survivor colors at the dropout's pace — a
//! deliberate simplification that keeps the DES exact. A run with no
//! faults and no bell has no live state at all: its students never touch
//! it, and every cell they start, they finish.
//!
//! [`faults::FaultPlan`]: crate::faults::FaultPlan

use crate::config::{ActivityConfig, ReleasePolicy, TeamKit};
use crate::faults::{
    FaultEvent, FaultPlan, Incident, RecoveryAction, ResilienceReport,
};
use crate::report::{ColorContention, RepStats, RunReport, StudentStats};
use crate::work::{PreparedFlag, WorkItem};
use flagsim_agents::{CostModel, Implement, StudentProfile};
use flagsim_desim::{
    Action, Engine, Process, ResourceId, SchedulePolicy, SimDuration, SimError, SimTime, Trace,
    WaitForGraph,
};
use flagsim_grid::{Color, Grid};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Seconds to fetch a replacement when an implement breaks mid-cell.
const REPLACEMENT_DELAY_SECS: f64 = 12.0;

/// One pre-timed unit of work for the state machine.
#[derive(Debug, Clone, Copy)]
struct TimedItem {
    resource: ResourceId,
    dur: SimDuration,
    work: WorkItem,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    NeedItem,
    DidWork,
}

/// What using an implement costs once the live fault state has its say.
enum UseOutcome {
    /// Usable; the swap delay (zero when nothing was broken).
    Ok(SimDuration),
    /// The policy aborted the run; the caller should wind down.
    Abort,
}

/// Mutable state shared by every student process during a run with
/// faults or a bell: pending dropouts, broken implements, the
/// orphaned-work pool, what each student started, and the
/// incident/action log that becomes the [`ResilienceReport`].
struct LiveFaultState {
    abort_on_fault: bool,
    spare_delay_secs: Option<f64>,
    dropout_at: Vec<Option<SimTime>>,
    /// resource index -> (break time, color, verb for the incident log).
    broken: BTreeMap<usize, (SimTime, Color, &'static str)>,
    orphans: VecDeque<TimedItem>,
    aborted: Option<SimTime>,
    incidents: Vec<Incident>,
    actions: Vec<RecoveryAction>,
    time_lost_secs: f64,
    /// Per student, the orphaned cells they adopted, in adoption order.
    adopted: Vec<Vec<WorkItem>>,
    /// Per student, how many cells they started. The started cells are
    /// that prefix of their own list followed by their adopted cells —
    /// under rebalancing, the ground truth for painting the grid.
    started: Vec<usize>,
}

impl LiveFaultState {
    fn new(team_size: usize, plan: &FaultPlan) -> Self {
        LiveFaultState {
            abort_on_fault: plan.policy.aborts(),
            spare_delay_secs: plan.policy.spare_delay_secs(),
            dropout_at: vec![None; team_size],
            broken: BTreeMap::new(),
            orphans: VecDeque::new(),
            aborted: None,
            incidents: Vec::new(),
            actions: Vec::new(),
            time_lost_secs: 0.0,
            adopted: vec![Vec::new(); team_size],
            started: vec![0; team_size],
        }
    }

    /// A student is about to color with resource `r` at `now`: discover
    /// any break scheduled before `now` and either pay the spare swap or
    /// abort the run, per policy.
    fn use_implement(&mut self, r: ResourceId, now: SimTime) -> UseOutcome {
        let Some(&(broke_at, color, verb)) = self.broken.get(&r.index()) else {
            return UseOutcome::Ok(SimDuration::ZERO);
        };
        if broke_at > now {
            return UseOutcome::Ok(SimDuration::ZERO);
        }
        self.broken.remove(&r.index());
        self.incidents.push(Incident {
            at_secs: broke_at.as_secs_f64(),
            what: format!("the {color} implement {verb}"),
        });
        match self.spare_delay_secs {
            None => {
                self.aborted = Some(now);
                self.actions.push(RecoveryAction::Aborted {
                    at_secs: now.as_secs_f64(),
                });
                UseOutcome::Abort
            }
            Some(delay) => {
                self.actions.push(RecoveryAction::SpareSwapped {
                    color,
                    at_secs: now.as_secs_f64(),
                    delay_secs: delay,
                });
                self.time_lost_secs += delay;
                UseOutcome::Ok(SimDuration::from_secs_f64(delay))
            }
        }
    }
}

/// A student as a DES process.
struct StudentProc {
    idx: usize,
    name: Arc<str>,
    items: Vec<TimedItem>,
    policy: ReleasePolicy,
    pos: usize,
    step: Step,
    held: Option<ResourceId>,
    pending: Option<ResourceId>,
    dropped: bool,
    /// The shared state of a run with faults or a bell; `None` in a plain
    /// run, whose students then never borrow it.
    live: Option<Rc<RefCell<LiveFaultState>>>,
}

impl Process for StudentProc {
    fn next(&mut self, now: SimTime) -> Action {
        loop {
            // Faults first: a global abort, or this student's dropout
            // falling due. Both are noticed at the student's next natural
            // pause — exactly when a real student would look up.
            if let (Some(live), false) = (&self.live, self.dropped) {
                let mut live = live.borrow_mut();
                let dropout_due = live.dropout_at[self.idx].is_some_and(|t| t <= now);
                if dropout_due {
                    live.dropout_at[self.idx] = None;
                    live.incidents.push(Incident {
                        at_secs: now.as_secs_f64(),
                        what: format!("{} dropped out", self.name),
                    });
                    // Cells not yet started (the one under the hand, when
                    // `DidWork`, is finished) go back on the table.
                    let cut = match self.step {
                        Step::DidWork => self.pos + 1,
                        Step::NeedItem => self.pos,
                    };
                    let leftover = self.items.split_off(cut.min(self.items.len()));
                    if live.abort_on_fault {
                        live.aborted = Some(now);
                        live.actions.push(RecoveryAction::Aborted {
                            at_secs: now.as_secs_f64(),
                        });
                    } else if !leftover.is_empty() {
                        live.actions.push(RecoveryAction::WorkRebalanced {
                            student: self.idx,
                            cells: leftover.len(),
                            at_secs: now.as_secs_f64(),
                        });
                        live.orphans.extend(leftover);
                    }
                    self.dropped = true;
                } else if live.aborted.is_some() {
                    self.dropped = true;
                }
            }
            if self.dropped {
                // Wind down: hand back whatever we hold (including a
                // grant that landed while we were deciding to leave).
                if let Some(r) = self.pending.take() {
                    self.held = Some(r);
                }
                if let Some(r) = self.held.take() {
                    return Action::Release(r);
                }
                return Action::Done;
            }
            match self.step {
                Step::DidWork => {
                    self.pos += 1;
                    self.step = Step::NeedItem;
                    if self.policy == ReleasePolicy::ReleaseEachCell {
                        if let Some(r) = self.held.take() {
                            return Action::Release(r);
                        }
                    }
                }
                Step::NeedItem => {
                    // Resolve a pending acquire: being polled means granted.
                    if let Some(r) = self.pending.take() {
                        self.held = Some(r);
                    }
                    let item = match self.items.get(self.pos).copied() {
                        Some(item) => item,
                        None => {
                            // Own list done: adopt orphaned work, if any.
                            let adopted = self.live.as_ref().and_then(|live| {
                                let mut live = live.borrow_mut();
                                let it = live.orphans.pop_front()?;
                                live.adopted[self.idx].push(it.work);
                                Some(it)
                            });
                            match adopted {
                                Some(it) => {
                                    self.items.push(it);
                                    continue;
                                }
                                None => {
                                    if let Some(r) = self.held.take() {
                                        return Action::Release(r);
                                    }
                                    return Action::Done;
                                }
                            }
                        }
                    };
                    match self.held {
                        Some(h) if h == item.resource => {
                            // About to color: does the implement still work?
                            let mut swap_delay = SimDuration::ZERO;
                            if let Some(live) = &self.live {
                                let mut live = live.borrow_mut();
                                match live.use_implement(item.resource, now) {
                                    UseOutcome::Abort => continue,
                                    UseOutcome::Ok(delay) => swap_delay = delay,
                                }
                                live.started[self.idx] += 1;
                            }
                            self.step = Step::DidWork;
                            return Action::Work(item.dur + swap_delay);
                        }
                        Some(h) => {
                            self.held = None;
                            return Action::Release(h);
                        }
                        None => {
                            self.pending = Some(item.resource);
                            return Action::Acquire(item.resource);
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// How a run ended: normally, with the full report, or stalled with
/// every remaining process blocked. `flagsim verify` needs the wait-for
/// graph itself, not its rendering; batch drivers flatten a stall into an
/// error with [`ActivityOutcome::into_report`].
#[derive(Debug)]
pub enum ActivityOutcome {
    /// The run drained (or the bell cut it off) and produced a report.
    Completed(Box<RunReport>),
    /// The run stalled: the event queue emptied with processes still
    /// blocked on resources. Carries the wait-for graph at the stall.
    Stalled(WaitForGraph),
}

impl ActivityOutcome {
    /// The report of a completed run; a stall becomes the
    /// `simulation failed: …` error a batch driver records and moves past.
    pub fn into_report(self) -> Result<RunReport, String> {
        match self {
            ActivityOutcome::Completed(report) => Ok(*report),
            ActivityOutcome::Stalled(waiters) => Err(stall_error(waiters)),
        }
    }
}

/// The error a batch driver records for a stalled run.
fn stall_error(waiters: WaitForGraph) -> String {
    format!("simulation failed: {}", SimError::Stalled { waiters })
}

/// What an assignment set fixes for every run of it: the colors it
/// needs, sorted, and each cell's slot in that list. A compiled scenario
/// builds this once; a one-off run builds it per call.
#[derive(Debug, Clone)]
pub(crate) struct ColorSlots {
    needed: Vec<Color>,
    /// `slots[i][k]` is the slot of `assignments[i][k].color`.
    slots: Vec<Vec<u32>>,
}

impl ColorSlots {
    pub(crate) fn of(assignments: &[Vec<WorkItem>]) -> ColorSlots {
        let mut needed: Vec<Color> = Vec::new();
        for part in assignments {
            for item in part {
                if !needed.contains(&item.color) {
                    needed.push(item.color);
                }
            }
        }
        needed.sort_unstable();
        let slot = |c: Color| {
            needed
                .iter()
                .position(|&n| n == c)
                .expect("collected above") as u32
        };
        let slots = assignments
            .iter()
            .map(|part| part.iter().map(|item| slot(item.color)).collect())
            .collect();
        ColorSlots { needed, slots }
    }

    /// The colors the assignments need, sorted.
    pub(crate) fn needed(&self) -> &[Color] {
        &self.needed
    }

    fn slot_of(&self, color: Color) -> Option<usize> {
        self.needed.iter().position(|&c| c == color)
    }
}

/// A kit resolved slot by slot against an assignment set's colors: the
/// implement, its base seconds per cell, its stock, and the resource
/// label. It depends only on the kit and the colors, so a sweep resolves
/// it once.
#[derive(Debug, Clone)]
pub(crate) struct KitSlots {
    implements: Vec<Implement>,
    base_secs: Vec<f64>,
    counts: Vec<usize>,
    labels: Vec<String>,
}

impl KitSlots {
    /// Errors if the kit is missing or has a dead implement for a needed
    /// color (the §IV dry-run would have caught it).
    pub(crate) fn resolve(kit: &TeamKit, needed: &[Color]) -> Result<KitSlots, String> {
        kit.check(needed)?;
        let implements: Vec<Implement> = needed
            .iter()
            .map(|&c| kit.implement(c).expect("checked above"))
            .collect();
        Ok(KitSlots {
            base_secs: implements.iter().map(|i| i.effective_base_secs()).collect(),
            counts: needed.iter().map(|&c| kit.count(c)).collect(),
            labels: needed
                .iter()
                .zip(&implements)
                .map(|(c, i)| format!("{c} {}", i.kind))
                .collect(),
            implements,
        })
    }
}

/// The inputs of a run that no rep changes, borrowed from a compiled
/// scenario or built for a one-off run.
pub(crate) struct RunSpec<'a> {
    pub(crate) label: &'a str,
    pub(crate) flag: &'a PreparedFlag,
    /// `assignments[i]` is the cell list of student `i`.
    pub(crate) assignments: &'a [Vec<WorkItem>],
    pub(crate) colors: &'a ColorSlots,
    /// The kit resolved against `colors`, or why it could not be.
    pub(crate) kit: &'a Result<KitSlots, String>,
    /// Student `i`'s name.
    pub(crate) names: &'a [Arc<str>],
    /// The skip colors `verify_assignments` checked `assignments`
    /// against, or `None` for assignments nobody verified.
    pub(crate) verified_skip: Option<&'a [Color]>,
}

/// How the one run body ended, before any outcome is built from it.
pub(crate) enum Ran {
    /// The run drained, or the bell cut it off.
    Drained(Accounting),
    /// Every remaining process is blocked.
    Stalled(WaitForGraph),
}

/// The engine's accounting of a drained run.
pub(crate) struct Accounting {
    trace: Trace,
    /// The live state of a run with faults or a bell; `None` otherwise.
    live: Option<Box<LiveFaultState>>,
    breakages: u64,
    deadline_secs: Option<f64>,
}

impl Accounting {
    fn completed(&self, student: usize) -> usize {
        self.trace.procs[student].completed_work as usize
    }
}

impl RunSpec<'_> {
    /// The one run body: sample every cell's duration, build the engine,
    /// run it, and hand back its accounting. `team` must be exactly as
    /// long as the assignments; its profiles' warm-up experience
    /// advances.
    pub(crate) fn simulate(
        &self,
        team: &mut [StudentProfile],
        config: &ActivityConfig,
        plan: &FaultPlan,
        policy: Option<Box<dyn SchedulePolicy>>,
    ) -> Result<Ran, String> {
        let _activity_span = flagsim_telemetry::span("sim", "run.activity")
            .arg("label", self.label)
            .arg("students", team.len());
        plan.validate(team.len())?;
        let kit = self.kit.as_ref().map_err(Clone::clone)?;
        let colors = self.colors;

        // Ambient faults that shape the run before it starts: the earliest
        // bell wins over any configured deadline, and fumbles pad the hand-off
        // latency of their color. Faults naming colors this run never uses
        // are planned-but-cannot-bite and stay out of the incident log.
        let mut deadline_secs = config.deadline_secs;
        let mut fumble_extra = vec![0.0; colors.needed.len()];
        for e in &plan.events {
            match e {
                FaultEvent::DeadlineBell { at_secs } => {
                    deadline_secs = Some(deadline_secs.map_or(*at_secs, |d| d.min(*at_secs)));
                }
                FaultEvent::HandoffFumble { color, extra_secs } => {
                    if let Some(s) = colors.slot_of(*color) {
                        fumble_extra[s] += extra_secs;
                    }
                }
                _ => {}
            }
        }

        let mut cost = CostModel::with_params(config.seed, config.cost_params.clone());

        // One resource per needed color, in slot order; hand-off latency
        // sampled per marker. Sizing the engine up front (one slot per
        // student, one resource per color, ~4 events per cell) keeps the
        // hot loop free of buffer growth.
        let total_cells: usize = self.assignments.iter().map(Vec::len).sum();
        let mut engine = Engine::with_capacity(
            team.len(),
            colors.needed.len(),
            if config.trace_events {
                total_cells * 4 + team.len() * 2
            } else {
                0
            },
        );
        engine.set_trace_events(config.trace_events);
        let rids: Vec<ResourceId> = (0..colors.needed.len())
            .map(|s| {
                let mut handoff_secs = cost.sample_handoff_secs(kit.implements[s]);
                handoff_secs += fumble_extra[s];
                engine.add_resource_pool(
                    kit.labels[s].clone(),
                    kit.counts[s],
                    SimDuration::from_secs_f64(handoff_secs),
                )
            })
            .collect();

        // A run with faults or a bell shares live state, primed from the
        // plan; a plain run has none.
        let live = (!plan.is_empty() || deadline_secs.is_some())
            .then(|| Rc::new(RefCell::new(LiveFaultState::new(team.len(), plan))));
        let mut start_at: Vec<SimTime> = vec![SimTime::ZERO; team.len()];
        if let Some(live) = &live {
            let mut st = live.borrow_mut();
            for e in &plan.events {
                match e {
                    FaultEvent::ImplementBreaks { color, at_secs }
                    | FaultEvent::ImplementDriesOut { color, at_secs } => {
                        if let Some(s) = colors.slot_of(*color) {
                            let verb = if matches!(e, FaultEvent::ImplementBreaks { .. }) {
                                "broke"
                            } else {
                                "dried out"
                            };
                            st.broken.insert(
                                rids[s].index(),
                                (
                                    SimTime::ZERO + SimDuration::from_secs_f64(*at_secs),
                                    *color,
                                    verb,
                                ),
                            );
                        }
                    }
                    FaultEvent::Dropout { student, at_secs } => {
                        st.dropout_at[*student] =
                            Some(SimTime::ZERO + SimDuration::from_secs_f64(*at_secs));
                    }
                    FaultEvent::LateArrival { student, at_secs } => {
                        let t = SimTime::ZERO + SimDuration::from_secs_f64(*at_secs);
                        start_at[*student] = start_at[*student].max(t);
                        if *at_secs > 0.0 {
                            st.incidents.push(Incident {
                                at_secs: *at_secs,
                                what: format!("P{} arrived {at_secs:.1}s late", student + 1),
                            });
                        }
                    }
                    FaultEvent::HandoffFumble { .. } | FaultEvent::DeadlineBell { .. } => {}
                }
            }
        }

        // Pre-sample durations student-major (deterministic, interleaving-free).
        // Crayons occasionally break mid-cell (§V: "to avoid breakage"); a
        // break costs the student a fetch-a-replacement delay on that cell.
        // The fill-style factors are constant for the run and each slot's
        // base seconds are resolved with the kit, so the per-cell work is
        // one multiply by the student's skill plus the draws; the RNG draw
        // order — and therefore every sampled duration — is unchanged.
        let fill_factor = config.fill.work_factor();
        let sigma = cost.cell_sigma(config.fill);
        let mut breakages: u64 = 0;
        for (idx, ((student, items), slots)) in team
            .iter_mut()
            .zip(self.assignments)
            .zip(&colors.slots)
            .enumerate()
        {
            let timed: Vec<TimedItem> = items
                .iter()
                .zip(slots)
                .map(|(item, &slot)| {
                    let s = slot as usize;
                    let base_skill = kit.base_secs[s] * student.skill;
                    let mut secs = cost.sample_cell_secs_resolved(
                        student,
                        base_skill,
                        fill_factor,
                        sigma,
                        item.kind,
                    );
                    if cost.sample_breakage(kit.implements[s]) {
                        breakages += 1;
                        secs += REPLACEMENT_DELAY_SECS;
                    }
                    TimedItem {
                        resource: rids[s],
                        dur: SimDuration::from_secs_f64(secs),
                        work: *item,
                    }
                })
                .collect();
            let proc = StudentProc {
                idx,
                name: Arc::clone(&self.names[idx]),
                items: timed,
                policy: config.policy,
                pos: 0,
                step: Step::NeedItem,
                held: None,
                pending: None,
                dropped: false,
                live: live.clone(),
            };
            engine.add_process_at(Box::new(proc), start_at[idx]);
        }
        if let Some(policy) = policy {
            engine.set_schedule_policy(policy);
        }

        let result = match deadline_secs {
            Some(secs) => {
                let deadline = SimTime::ZERO + SimDuration::from_secs_f64(secs);
                engine.try_run_until(deadline)
            }
            None => engine.try_run(),
        };
        let trace = match result {
            Ok(trace) => trace,
            // A stall is a structured outcome for the verification layer; the
            // engine (and every process's Rc handle) is already dropped.
            Err(SimError::Stalled { waiters }) => return Ok(Ran::Stalled(waiters)),
            Err(e) => return Err(format!("simulation failed: {e}")),
        };

        // The engine (and every boxed process) is gone; reclaim the state.
        let live = live
            .map(|rc| {
                Rc::try_unwrap(rc)
                    .map(|state| Box::new(state.into_inner()))
                    .map_err(|_| "fault state still shared after the run".to_owned())
            })
            .transpose()?;
        flagsim_telemetry::count("run.breakages", breakages);
        Ok(Ran::Drained(Accounting {
            trace,
            live,
            breakages,
            deadline_secs,
        }))
    }

    /// The full-report post-step: repaint and verify the grid, and
    /// assemble per-student stats, contention, the cell log and, for a
    /// faulted run, the resilience report.
    pub(crate) fn report(
        &self,
        ran: Ran,
        config: &ActivityConfig,
        plan: &FaultPlan,
    ) -> ActivityOutcome {
        let mut acct = match ran {
            Ran::Drained(acct) => acct,
            Ran::Stalled(waiters) => return ActivityOutcome::Stalled(waiters),
        };
        let cell_log: Vec<Vec<WorkItem>> = (0..self.assignments.len())
            .map(|i| self.started(&acct, i).copied().collect())
            .collect();
        let grid = self.paint(&acct);
        let correct = self.grid_is_correct(&grid, config);
        let trace = &acct.trace;
        let students: Vec<StudentStats> = trace
            .procs
            .iter()
            .zip(self.assignments)
            .map(|(p, items)| StudentStats {
                name: p.name.clone(),
                cells: items.len(),
                completed: p.completed_work as usize,
                busy: p.busy,
                waiting: p.waiting,
                idle: p.idle(trace.end_time),
                finished_at: p.finished_at.unwrap_or(trace.end_time),
            })
            .collect();
        // Resources were added in slot order, so resource `s` is slot `s`.
        let contention: Vec<ColorContention> = self
            .colors
            .needed
            .iter()
            .zip(&trace.resources)
            .map(|(&color, r)| ColorContention {
                color,
                stats: r.stats.clone(),
            })
            .collect();
        let resilience = acct
            .live
            .take()
            .filter(|_| !plan.is_empty())
            .map(|state| self.resilience(*state, &acct, plan));
        ActivityOutcome::Completed(Box::new(RunReport {
            label: self.label.to_owned(),
            flag_name: self.flag.name.clone(),
            completion: acct.trace.makespan(),
            students,
            contention,
            grid,
            correct,
            breakages: acct.breakages,
            resilience,
            trace: acct.trace,
            cell_log,
        }))
    }

    /// The stats-only post-step. Completion and waiting are read from the
    /// same accounting the report path reads, in the same order, so they
    /// are bit-identical to the report's. For verified assignments in a
    /// run with no faults and no bell, `correct` is "every student
    /// completed their list": the assignments are an exact cover of the
    /// colorable cells in the right colors, so that is exactly a correct
    /// grid. Any other run repaints the grid.
    pub(crate) fn stats(
        &self,
        ran: Ran,
        config: &ActivityConfig,
        plan: &FaultPlan,
    ) -> Result<RepStats, String> {
        let mut acct = match ran {
            Ran::Drained(acct) => acct,
            Ran::Stalled(waiters) => return Err(stall_error(waiters)),
        };
        let counted =
            acct.live.is_none() && self.verified_skip == Some(config.skip_colors.as_slice());
        let correct = if counted {
            self.assignments
                .iter()
                .enumerate()
                .all(|(i, items)| acct.completed(i) == items.len())
        } else {
            self.grid_is_correct(&self.paint(&acct), config)
        };
        let stats = RepStats {
            completion_secs: acct.trace.makespan().as_secs_f64(),
            wait_secs: acct
                .trace
                .procs
                .iter()
                .map(|p| p.waiting.as_secs_f64())
                .sum(),
            correct,
        };
        // The resilience record is built only to count its faults.
        if flagsim_telemetry::enabled() && !plan.is_empty() {
            if let Some(state) = acct.live.take() {
                self.resilience(*state, &acct, plan);
            }
        }
        Ok(stats)
    }

    /// Student `i`'s started cells in order: a prefix of their own list,
    /// then the orphans they adopted. A plain run drains, so every cell a
    /// student started, they completed.
    fn started<'s>(&'s self, acct: &'s Accounting, i: usize) -> impl Iterator<Item = &'s WorkItem> {
        let (adopted, started): (&[WorkItem], usize) = match &acct.live {
            Some(st) => (&st.adopted[i], st.started[i]),
            None => (&[], acct.completed(i)),
        };
        self.assignments[i].iter().chain(adopted).take(started)
    }

    /// The grid as colored: each student's completed cells (with a bell,
    /// in-flight work is lost).
    fn paint(&self, acct: &Accounting) -> Grid {
        let mut grid = Grid::new(self.flag.width, self.flag.height);
        for i in 0..self.assignments.len() {
            for item in self.started(acct, i).take(acct.completed(i)) {
                grid.paint(item.cell, item.color);
            }
        }
        grid
    }

    fn grid_is_correct(&self, grid: &Grid, config: &ActivityConfig) -> bool {
        grid.iter().all(|(id, got)| {
            let want = self.flag.reference.get(id);
            if config.skip_colors.contains(&want) {
                got == Color::Blank || got == want
            } else {
                got == want
            }
        })
    }

    /// Post-run fault accounting: fumbles bite once per observed hand-off,
    /// the bell bites only if it actually cut the run short, and adopted
    /// orphans become recovery actions.
    fn resilience(
        &self,
        mut state: LiveFaultState,
        acct: &Accounting,
        plan: &FaultPlan,
    ) -> ResilienceReport {
        let trace = &acct.trace;
        for e in &plan.events {
            if let FaultEvent::HandoffFumble { color, extra_secs } = e {
                let handoffs = self
                    .colors
                    .slot_of(*color)
                    .map_or(0, |s| trace.resources[s].stats.handoffs);
                if handoffs > 0 {
                    state.incidents.push(Incident {
                        at_secs: 0.0,
                        what: format!(
                            "every {color} hand-off fumbled (+{extra_secs:.1}s x {handoffs})"
                        ),
                    });
                    state.time_lost_secs += extra_secs * handoffs as f64;
                }
            }
        }
        let bell = plan.events.iter().any(|e| {
            matches!(e, FaultEvent::DeadlineBell { at_secs }
                if acct.deadline_secs == Some(*at_secs)
                    && (trace.end_time.as_secs_f64() - at_secs).abs() < 1e-9)
        });
        if bell {
            state.incidents.push(Incident {
                at_secs: trace.end_time.as_secs_f64(),
                what: "the bell rang with work unfinished".to_owned(),
            });
        }
        for (i, cells) in state.adopted.iter().enumerate() {
            if !cells.is_empty() {
                state.actions.push(RecoveryAction::CellsAdopted {
                    student: i,
                    cells: cells.len(),
                });
            }
        }
        state
            .incidents
            .sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        if flagsim_telemetry::enabled() {
            flagsim_telemetry::count("faults.incidents", state.incidents.len() as u64);
            flagsim_telemetry::count("faults.recovery_actions", state.actions.len() as u64);
            flagsim_telemetry::observe("faults.time_lost_secs", state.time_lost_secs);
            if state.aborted.is_some() {
                flagsim_telemetry::count("faults.aborted_runs", 1);
            }
        }
        ResilienceReport {
            plan_label: plan.label.clone(),
            policy: plan.policy,
            faults_planned: plan.events.len(),
            incidents: state.incidents,
            actions: state.actions,
            time_lost_secs: state.time_lost_secs,
            aborted: state.aborted.is_some(),
        }
    }
}

/// Run the activity: `assignments[i]` is the cell list for `team[i]`.
///
/// The `team` profiles are mutated — their warm-up experience advances, so
/// running scenario 1 twice with the same team reproduces the paper's
/// "second run is significantly better" observation.
///
/// `plan` injects faults: the run survives every planned mishap (or
/// aborts cleanly, per the plan's policy) and attaches a
/// [`ResilienceReport`] to the report whenever the plan is non-empty.
/// `policy` resolves the engine's scheduling ties; `None` is the engine's
/// own order, and a [`ForcedSchedule`](flagsim_desim::ForcedSchedule)
/// replays one concrete resolution — the unit of schedule-space
/// exploration, where a stall is a *result* (a reachable deadlock).
///
/// Errors if the kit is missing or has dead implements for a needed color
/// (the §IV dry-run would have caught it), if assignments don't match
/// the team, or if the plan names students the team doesn't have.
#[allow(clippy::too_many_arguments)]
pub fn run_activity(
    label: impl Into<String>,
    flag: &PreparedFlag,
    assignments: &[Vec<WorkItem>],
    team: &mut [StudentProfile],
    kit: &TeamKit,
    config: &ActivityConfig,
    plan: &FaultPlan,
    policy: Option<Box<dyn SchedulePolicy>>,
) -> Result<ActivityOutcome, String> {
    if assignments.len() != team.len() {
        return Err(format!(
            "{} assignments for {} students",
            assignments.len(),
            team.len()
        ));
    }
    let label = label.into();
    let colors = ColorSlots::of(assignments);
    let kit = KitSlots::resolve(kit, &colors.needed);
    let names = names_of(team);
    let spec = RunSpec {
        label: &label,
        flag,
        assignments,
        colors: &colors,
        kit: &kit,
        names: &names,
        verified_skip: None,
    };
    let ran = spec.simulate(team, config, plan, policy)?;
    Ok(spec.report(ran, config, plan))
}

/// The names a caller's team carries, shared with the student processes.
pub(crate) fn names_of(team: &[StudentProfile]) -> Vec<Arc<str>> {
    team.iter().map(|s| Arc::from(s.name.as_str())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecoveryPolicy;
    use crate::partition::{CellOrder, PartitionStrategy};
    use flagsim_agents::{Condition, Implement, ImplementKind};
    use flagsim_flags::library;

    fn team(n: usize) -> Vec<StudentProfile> {
        (1..=n)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect()
    }

    fn kit() -> TeamKit {
        TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS)
    }

    /// One run in the engine's own tie order, a stall flattened into an
    /// error the way batch drivers see it.
    fn run_once(
        label: &str,
        flag: &PreparedFlag,
        assignments: &[Vec<WorkItem>],
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
        plan: &FaultPlan,
    ) -> Result<RunReport, String> {
        run_activity(label, flag, assignments, team, kit, config, plan, None)?.into_report()
    }

    fn run_scenario(strategy: PartitionStrategy, n: usize, seed: u64) -> RunReport {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = strategy.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t = team(n);
        run_once(
            "test",
            &pf,
            &assignments,
            &mut t,
            &kit(),
            &ActivityConfig::default().with_seed(seed),
            &FaultPlan::none(),
        )
        .unwrap()
    }

    fn run_faulted(
        strategy: PartitionStrategy,
        n: usize,
        seed: u64,
        plan: &FaultPlan,
    ) -> RunReport {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = strategy.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t = team(n);
        run_once(
            "faulted",
            &pf,
            &assignments,
            &mut t,
            &kit(),
            &ActivityConfig::default().with_seed(seed),
            plan,
        )
        .unwrap()
    }

    #[test]
    fn solo_run_completes_correctly() {
        let r = run_scenario(PartitionStrategy::Solo, 1, 1);
        assert!(r.correct);
        assert!(r.completion.as_secs_f64() > 0.0);
        assert_eq!(r.students.len(), 1);
        assert_eq!(r.students[0].cells, 96);
        // Solo: no contention at all.
        assert_eq!(r.total_wait_secs(), 0.0);
        // No plan, no resilience report.
        assert!(r.resilience.is_none());
    }

    #[test]
    fn more_students_are_faster_without_contention() {
        let s1 = run_scenario(PartitionStrategy::Solo, 1, 1);
        let s2 = run_scenario(PartitionStrategy::HorizontalBands(2), 2, 1);
        let s3 = run_scenario(PartitionStrategy::HorizontalBands(4), 4, 1);
        assert!(s2.completion < s1.completion);
        assert!(s3.completion < s2.completion);
        // Stripe partitions never share a marker.
        assert_eq!(s2.total_wait_secs(), 0.0);
        assert_eq!(s3.total_wait_secs(), 0.0);
    }

    #[test]
    fn vertical_slices_contend() {
        let s3 = run_scenario(PartitionStrategy::HorizontalBands(4), 4, 1);
        let s4 = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 1);
        // Scenario 4 is slower than scenario 3 and shows real waiting.
        assert!(s4.completion > s3.completion);
        assert!(s4.total_wait_secs() > 0.0);
        let red = s4
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap();
        // All four students queue on red at the start: 3 contended grants.
        assert_eq!(red.stats.acquisitions, 4);
        assert_eq!(red.stats.contended_acquisitions, 3);
        assert_eq!(red.stats.max_queue_len, 3);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 42);
        let b = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 42);
        assert_eq!(a.completion, b.completion);
        let c = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 43);
        assert_ne!(a.completion, c.completion);
    }

    #[test]
    fn dead_marker_fails_the_dry_run_check() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t = team(1);
        let bad_kit = kit().with_implement(
            Color::Yellow,
            Implement {
                kind: ImplementKind::ThickMarker,
                condition: Condition::Dead,
            },
        );
        let err = run_once(
            "test",
            &pf,
            &assignments,
            &mut t,
            &bad_kit,
            &ActivityConfig::default(),
            &FaultPlan::none(),
        )
        .unwrap_err();
        assert!(err.contains("dead"));
    }

    #[test]
    fn mismatched_team_size_rejected() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::HorizontalBands(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t = team(2);
        assert!(run_once(
            "test",
            &pf,
            &assignments,
            &mut t,
            &kit(),
            &ActivityConfig::default(),
            &FaultPlan::none(),
        )
        .is_err());
    }

    #[test]
    fn warmup_advances_across_runs() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t = vec![StudentProfile::new("P1")]; // with warm-up
        let cfg = ActivityConfig::default();
        let none = FaultPlan::none();
        let first = run_once("run 1", &pf, &assignments, &mut t, &kit(), &cfg, &none).unwrap();
        let second = run_once("run 2", &pf, &assignments, &mut t, &kit(), &cfg, &none).unwrap();
        assert!(
            second.completion.as_secs_f64() < first.completion.as_secs_f64() * 0.95,
            "second run {} should beat first {}",
            second.completion,
            first.completion
        );
    }

    #[test]
    fn release_each_cell_is_no_faster() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let run = |policy| {
            let mut t = team(4);
            run_once(
                "p",
                &pf,
                &assignments,
                &mut t,
                &kit(),
                &ActivityConfig::default().with_policy(policy),
                &FaultPlan::none(),
            )
            .unwrap()
        };
        let keep = run(ReleasePolicy::KeepUntilColorChange);
        let each = run(ReleasePolicy::ReleaseEachCell);
        assert!(each.completion >= keep.completion);
    }

    #[test]
    fn extra_markers_dissolve_scenario_4_contention() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments =
            PartitionStrategy::VerticalSlices(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let run_with = |kit: TeamKit| {
            let mut t = team(4);
            run_once(
                "kit sweep",
                &pf,
                &assignments,
                &mut t,
                &kit,
                &ActivityConfig::default(),
                &FaultPlan::none(),
            )
            .unwrap()
        };
        let one = run_with(kit());
        let four = run_with(kit().with_count_all(4));
        // With a marker of each color per student, nobody ever waits.
        assert_eq!(four.total_wait_secs(), 0.0);
        assert!(one.total_wait_secs() > 0.0);
        assert!(four.completion < one.completion);
        // Intermediate stocking helps monotonically.
        let two = run_with(kit().with_count_all(2));
        assert!(two.total_wait_secs() < one.total_wait_secs());
        assert!(two.completion <= one.completion);
    }

    #[test]
    fn class_bell_cuts_the_run_short() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        // A full solo run takes ~190s without warm-up; ring the bell at 60.
        let mut t = team(1);
        let cut = run_once(
            "bell",
            &pf,
            &assignments,
            &mut t,
            &kit(),
            &ActivityConfig::default().with_deadline_secs(60.0),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(!cut.correct, "incomplete flag cannot be correct");
        assert!(cut.grid.blank_cells() > 0);
        let done = cut.students[0].completed;
        assert!(done > 0 && done < 96, "completed {done}");
        assert!((cut.completion_secs() - 60.0).abs() < 1e-9);
        // Painted prefix matches the reference cell-for-cell.
        for item in &assignments[0][..done] {
            assert_eq!(cut.grid.get(item.cell), pf.reference.get(item.cell));
        }
        // A generous deadline changes nothing.
        let mut t2 = team(1);
        let full = run_once(
            "no bell",
            &pf,
            &assignments,
            &mut t2,
            &kit(),
            &ActivityConfig::default().with_deadline_secs(100_000.0),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(full.correct);
        assert_eq!(full.students[0].completed, 96);
    }

    #[test]
    fn crayons_break_markers_do_not() {
        let pf = PreparedFlag::at_size(&library::mauritius(), 48, 32); // 1536 cells
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let run_with = |kind: ImplementKind| {
            let mut t = team(1);
            run_once(
                "breakage",
                &pf,
                &assignments,
                &mut t,
                &TeamKit::uniform(kind, &Color::MAURITIUS),
                &ActivityConfig::default().with_seed(5),
                &FaultPlan::none(),
            )
            .unwrap()
        };
        let crayon = run_with(ImplementKind::Crayon);
        let marker = run_with(ImplementKind::ThickMarker);
        assert!(crayon.breakages > 0, "1536 crayon cells should break a few");
        assert_eq!(marker.breakages, 0);
        assert!(crayon.correct && marker.correct);
    }

    #[test]
    fn dropout_rebalanced_run_still_completes() {
        use crate::partition::rebalance_dropout;
        let pf = PreparedFlag::new(&library::mauritius());
        let a = PartitionStrategy::HorizontalBands(4).assignments(&pf, CellOrder::RowMajor, &[]);
        let rebalanced = rebalance_dropout(&a, 1, 6);
        let mut t = team(4);
        let r = run_once(
            "dropout",
            &pf,
            &rebalanced,
            &mut t,
            &kit(),
            &ActivityConfig::default(),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!(r.students[1].cells, 6);
    }

    #[test]
    fn skip_colors_verifies_blank_cells() {
        let pf = PreparedFlag::new(&library::jordan());
        let skip = [Color::White];
        let assignments =
            PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &skip);
        let mut t = team(1);
        let jk = TeamKit::uniform(
            ImplementKind::ThickMarker,
            &[Color::Black, Color::Green, Color::Red],
        );
        let r = run_once(
            "jordan no white",
            &pf,
            &assignments,
            &mut t,
            &jk,
            &ActivityConfig::default().skipping(&skip),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(r.correct);
        assert!(r.grid.blank_cells() > 0);
    }

    // ---- fault injection ----

    #[test]
    fn broken_implement_spare_swap_recovers() {
        let base = run_scenario(PartitionStrategy::Solo, 1, 3);
        let plan = FaultPlan::new("snap").break_implement(Color::Blue, 20.0);
        let r = run_faulted(PartitionStrategy::Solo, 1, 3, &plan);
        assert!(r.correct, "a spare swap should still finish the flag");
        let res = r.resilience.as_ref().unwrap();
        assert_eq!(res.faults_planned, 1);
        assert_eq!(res.incidents.len(), 1, "{res:?}");
        assert!(res.incidents[0].what.contains("blue implement broke"));
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::SpareSwapped { color: Color::Blue, .. })));
        assert!(res.time_lost_secs > 0.0);
        assert!(!res.aborted);
        assert!(
            r.completion > base.completion,
            "the swap delay must show up in the completion time"
        );
    }

    #[test]
    fn dropout_mid_run_rebalances_to_survivors() {
        let base = run_scenario(PartitionStrategy::HorizontalBands(4), 4, 3);
        let plan = FaultPlan::new("office call").dropout(1, 10.0);
        let r = run_faulted(PartitionStrategy::HorizontalBands(4), 4, 3, &plan);
        assert!(r.correct, "survivors should finish the dropout's stripe");
        let res = r.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("dropped out")));
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::WorkRebalanced { student: 1, .. })));
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::CellsAdopted { .. })));
        assert!(r.students[1].completed < r.students[1].cells);
        // Three students doing four students' work is slower.
        assert!(r.completion > base.completion);
    }

    #[test]
    fn abort_policy_stops_the_run_cleanly() {
        let base = run_scenario(PartitionStrategy::Solo, 1, 3);
        let plan = FaultPlan::new("give up")
            .break_implement(Color::Red, 5.0)
            .with_policy(RecoveryPolicy::AbortAndReport);
        let r = run_faulted(PartitionStrategy::Solo, 1, 3, &plan);
        let res = r.resilience.as_ref().unwrap();
        assert!(res.aborted);
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::Aborted { .. })));
        assert!(!r.correct, "an aborted run leaves the flag unfinished");
        assert!(r.completion < base.completion);
    }

    #[test]
    fn late_arrival_delays_their_part() {
        let base = run_scenario(PartitionStrategy::HorizontalBands(2), 2, 3);
        let plan = FaultPlan::new("overslept").late_arrival(1, 40.0);
        let r = run_faulted(PartitionStrategy::HorizontalBands(2), 2, 3, &plan);
        assert!(r.correct);
        assert!(r.completion > base.completion);
        assert!(r.students[1].finished_at.as_secs_f64() > 40.0);
        let res = r.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("late")));
    }

    #[test]
    fn bell_fault_matches_configured_deadline() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t1 = team(1);
        let via_config = run_once(
            "config bell",
            &pf,
            &assignments,
            &mut t1,
            &kit(),
            &ActivityConfig::default().with_deadline_secs(60.0),
            &FaultPlan::none(),
        )
        .unwrap();
        let mut t2 = team(1);
        let via_fault = run_once(
            "fault bell",
            &pf,
            &assignments,
            &mut t2,
            &kit(),
            &ActivityConfig::default(),
            &FaultPlan::new("bell").bell(60.0),
        )
        .unwrap();
        assert_eq!(via_config.completion, via_fault.completion);
        assert_eq!(
            via_config.students[0].completed,
            via_fault.students[0].completed
        );
        let res = via_fault.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("bell")));
    }

    #[test]
    fn fumbles_charge_every_handoff() {
        let base = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 3);
        let plan = FaultPlan::new("butterfingers").fumble(Color::Red, 3.0);
        let r = run_faulted(PartitionStrategy::VerticalSlices(4), 4, 3, &plan);
        assert!(r.correct);
        // Slower hand-offs reshuffle downstream queue arrivals, so the
        // makespan may move either way (a Graham-style anomaly) — but it
        // must move, and the bill must match the observed hand-offs.
        assert_ne!(r.completion, base.completion);
        let res = r.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("fumbled")));
        let red_handoffs = r
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap()
            .stats
            .handoffs;
        assert!(red_handoffs > 0);
        assert!((res.time_lost_secs - 3.0 * red_handoffs as f64).abs() < 1e-9);
        // Every red wait got 3s longer than the fault-free run's.
        let base_red_wait = base
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap()
            .stats
            .total_wait;
        let red_wait = r
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap()
            .stats
            .total_wait;
        assert!(red_wait > base_red_wait);
    }

    #[test]
    fn fault_that_cannot_bite_leaves_an_empty_incident_log() {
        // Breaking a color long after the run ends: planned, never bites.
        let plan = FaultPlan::new("too late").break_implement(Color::Red, 1e6);
        let r = run_faulted(PartitionStrategy::Solo, 1, 3, &plan);
        assert!(r.correct);
        let res = r.resilience.as_ref().unwrap();
        assert_eq!(res.faults_planned, 1);
        assert!(res.incidents.is_empty());
        assert_eq!(res.time_lost_secs, 0.0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let plan = FaultPlan::new("drill")
            .break_implement(Color::Yellow, 15.0)
            .dropout(2, 25.0)
            .fumble(Color::Red, 2.0);
        let a = run_faulted(PartitionStrategy::VerticalSlices(4), 4, 9, &plan);
        let b = run_faulted(PartitionStrategy::VerticalSlices(4), 4, 9, &plan);
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.grid, b.grid);
    }

    #[test]
    fn plan_validation_is_enforced() {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let mut t = team(1);
        let err = run_once(
            "bad",
            &pf,
            &assignments,
            &mut t,
            &kit(),
            &ActivityConfig::default(),
            &FaultPlan::new("bad").dropout(3, 10.0),
        )
        .unwrap_err();
        assert!(err.contains("student #4"), "{err}");
    }
}
