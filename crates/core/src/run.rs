//! Wiring the activity into the DES engine.
//!
//! Each student becomes a [`Process`] walking their assigned cell list;
//! each color's single implement becomes an exclusive resource. Per-cell
//! durations are pre-sampled (they depend only on the student's own
//! history, not on interleaving), so the DES run itself is exact.
//!
//! Fault injection (the `plan` argument of [`run_activity`]) threads a
//! shared [`faults::FaultPlan`] through the same state machine: students
//! consult the live fault state at every poll, so dropouts leave at their
//! next natural pause, broken implements are discovered by the next student to
//! use them, and orphaned cells sit in a shared pool that survivors adopt
//! after finishing their own work. Orphaned cells keep their pre-sampled
//! durations — the adopting survivor colors at the dropout's pace — a
//! deliberate simplification that keeps the DES exact.

use crate::config::{ActivityConfig, ReleasePolicy, TeamKit};
use crate::faults::{
    FaultEvent, FaultPlan, Incident, RecoveryAction, ResilienceReport,
};
use crate::report::{ColorContention, RunReport, StudentStats};
use crate::work::{PreparedFlag, WorkItem};
use flagsim_agents::{CostModel, Implement, StudentProfile};
use flagsim_desim::{
    Action, Engine, Process, ResourceId, SchedulePolicy, SimDuration, SimError, SimTime,
    WaitForGraph,
};
use flagsim_grid::{Color, Grid};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

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

/// Mutable state shared by every student process during a faulted run:
/// pending dropouts, broken implements, the orphaned-work pool, and the
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
    adopted: Vec<usize>,
    /// Per student, every cell whose work actually started, in order —
    /// under rebalancing this is the ground truth for painting the grid.
    started: Vec<Vec<WorkItem>>,
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
            adopted: vec![0; team_size],
            started: vec![Vec::new(); team_size],
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
    name: String,
    items: Vec<TimedItem>,
    policy: ReleasePolicy,
    pos: usize,
    step: Step,
    held: Option<ResourceId>,
    pending: Option<ResourceId>,
    dropped: bool,
    live: Rc<RefCell<LiveFaultState>>,
}

impl Process for StudentProc {
    fn next(&mut self, now: SimTime) -> Action {
        loop {
            // Faults first: a global abort, or this student's dropout
            // falling due. Both are noticed at the student's next natural
            // pause — exactly when a real student would look up.
            if !self.dropped {
                let mut live = self.live.borrow_mut();
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
                            let adopted = self.live.borrow_mut().orphans.pop_front();
                            match adopted {
                                Some(it) => {
                                    self.live.borrow_mut().adopted[self.idx] += 1;
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
                            let outcome =
                                self.live.borrow_mut().use_implement(item.resource, now);
                            match outcome {
                                UseOutcome::Abort => continue,
                                UseOutcome::Ok(swap_delay) => {
                                    self.step = Step::DidWork;
                                    self.live.borrow_mut().started[self.idx].push(item.work);
                                    return Action::Work(item.dur + swap_delay);
                                }
                            }
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
            ActivityOutcome::Stalled(waiters) => Err(format!(
                "simulation failed: {}",
                SimError::Stalled { waiters }
            )),
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
    let label = label.into();
    let _activity_span = flagsim_telemetry::span("sim", "run.activity")
        .arg("label", &label)
        .arg("students", team.len());
    if assignments.len() != team.len() {
        return Err(format!(
            "{} assignments for {} students",
            assignments.len(),
            team.len()
        ));
    }
    plan.validate(team.len())?;

    // Which colors does this run actually need?
    let mut needed: Vec<Color> = Vec::new();
    for part in assignments {
        for item in part {
            if !needed.contains(&item.color) {
                needed.push(item.color);
            }
        }
    }
    needed.sort_unstable();
    kit.check(&needed)?;

    // Ambient faults that shape the run before it starts: the earliest
    // bell wins over any configured deadline, and fumbles pad the hand-off
    // latency of their color. Faults naming colors this run never uses
    // are planned-but-cannot-bite and stay out of the incident log.
    let mut deadline_secs = config.deadline_secs;
    let mut fumble_extra: BTreeMap<Color, f64> = BTreeMap::new();
    for e in &plan.events {
        match e {
            FaultEvent::DeadlineBell { at_secs } => {
                deadline_secs = Some(deadline_secs.map_or(*at_secs, |d| d.min(*at_secs)));
            }
            FaultEvent::HandoffFumble { color, extra_secs } => {
                *fumble_extra.entry(*color).or_insert(0.0) += extra_secs;
            }
            _ => {}
        }
    }

    let mut cost = CostModel::with_params(config.seed, config.cost_params.clone());

    // One resource per needed color; hand-off latency sampled per marker.
    // Sizing the engine up front (one slot per student, one resource per
    // color, ~4 events per cell) keeps the hot loop free of buffer growth.
    let total_cells: usize = assignments.iter().map(Vec::len).sum();
    let mut engine = Engine::with_capacity(
        team.len(),
        needed.len(),
        if config.trace_events {
            total_cells * 4 + team.len() * 2
        } else {
            0
        },
    );
    engine.set_trace_events(config.trace_events);
    let mut res_of_color: BTreeMap<Color, ResourceId> = BTreeMap::new();
    // Per-color tables resolved once per run, in `needed` order: the
    // implement and resource id the per-cell loop below indexes into
    // instead of re-querying the kit and color map per cell.
    let mut color_implements: Vec<Implement> = Vec::with_capacity(needed.len());
    let mut color_rids: Vec<ResourceId> = Vec::with_capacity(needed.len());
    for &c in &needed {
        let implement = kit.implement(c).expect("checked above");
        let mut handoff_secs = cost.sample_handoff_secs(implement);
        handoff_secs += fumble_extra.get(&c).copied().unwrap_or(0.0);
        let rid = engine.add_resource_pool(
            format!("{c} {}", implement.kind),
            kit.count(c),
            SimDuration::from_secs_f64(handoff_secs),
        );
        res_of_color.insert(c, rid);
        color_implements.push(implement);
        color_rids.push(rid);
    }

    // The shared live fault state, primed from the plan.
    let live = Rc::new(RefCell::new(LiveFaultState::new(team.len(), plan)));
    let mut start_at: Vec<SimTime> = vec![SimTime::ZERO; team.len()];
    {
        let mut st = live.borrow_mut();
        for e in &plan.events {
            match e {
                FaultEvent::ImplementBreaks { color, at_secs }
                | FaultEvent::ImplementDriesOut { color, at_secs } => {
                    if let Some(rid) = res_of_color.get(color) {
                        let verb = if matches!(e, FaultEvent::ImplementBreaks { .. }) {
                            "broke"
                        } else {
                            "dried out"
                        };
                        st.broken.insert(
                            rid.index(),
                            (SimTime::ZERO + SimDuration::from_secs_f64(*at_secs), *color, verb),
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
    // The fill-style factors are constant for the run and the
    // `base × skill` cost prefix is constant per (student, color), so
    // both are resolved outside the per-cell loop; the RNG draw order —
    // and therefore every sampled duration — is unchanged.
    let fill_factor = config.fill.work_factor();
    let sigma = cost.cell_sigma(config.fill);
    let mut breakages: u64 = 0;
    let mut procs: Vec<StudentProc> = Vec::with_capacity(team.len());
    for (idx, (student, items)) in team.iter_mut().zip(assignments).enumerate() {
        let base_skill: Vec<f64> = color_implements
            .iter()
            .map(|imp| imp.effective_base_secs() * student.skill)
            .collect();
        let timed: Vec<TimedItem> = items
            .iter()
            .map(|item| {
                let ci = needed
                    .iter()
                    .position(|&c| c == item.color)
                    .expect("collected above");
                let mut secs = cost.sample_cell_secs_resolved(
                    student,
                    base_skill[ci],
                    fill_factor,
                    sigma,
                    item.kind,
                );
                if cost.sample_breakage(color_implements[ci]) {
                    breakages += 1;
                    secs += REPLACEMENT_DELAY_SECS;
                }
                TimedItem {
                    resource: color_rids[ci],
                    dur: SimDuration::from_secs_f64(secs),
                    work: *item,
                }
            })
            .collect();
        procs.push(StudentProc {
            idx,
            name: student.name.clone(),
            items: timed,
            policy: config.policy,
            pos: 0,
            step: Step::NeedItem,
            held: None,
            pending: None,
            dropped: false,
            live: Rc::clone(&live),
        });
    }
    for (idx, p) in procs.into_iter().enumerate() {
        engine.add_process_at(Box::new(p), start_at[idx]);
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
        Err(SimError::Stalled { waiters }) => return Ok(ActivityOutcome::Stalled(waiters)),
        Err(e) => return Err(format!("simulation failed: {e}")),
    };

    // The engine (and every boxed process) is gone; reclaim the log.
    let mut state = Rc::try_unwrap(live)
        .map_err(|_| "fault state still shared after the run".to_owned())?
        .into_inner();

    // Cells each student actually completed, straight from the engine's
    // per-process counter (with a deadline, in-flight work at the bell is
    // lost). Every `Work` a student issues is one cell, so the counter
    // replaces the old O(procs × events) trace scan and — unlike that
    // scan — also works with the event sink off.
    let completed: Vec<usize> = trace
        .procs
        .iter()
        .map(|p| p.completed_work as usize)
        .collect();

    // Reconstruct the colored grid from the per-student started-cell logs
    // (which, unlike the static assignments, account for adopted orphan
    // work) and verify it.
    let mut grid = Grid::new(flag.width, flag.height);
    for (log, &done) in state.started.iter().zip(&completed) {
        for item in &log[..done.min(log.len())] {
            grid.paint(item.cell, item.color);
        }
    }
    // The painting loop above was `started`'s last reader; move, don't
    // clone, the per-student logs into the report.
    let cell_log = std::mem::take(&mut state.started);
    let correct = grid.iter().all(|(id, got)| {
        let want = flag.reference.get(id);
        if config.skip_colors.contains(&want) {
            got == Color::Blank || got == want
        } else {
            got == want
        }
    });

    let students: Vec<StudentStats> = trace
        .procs
        .iter()
        .zip(assignments)
        .zip(&completed)
        .map(|((p, items), &done)| StudentStats {
            name: p.name.clone(),
            cells: items.len(),
            completed: done,
            busy: p.busy,
            waiting: p.waiting,
            idle: p.idle(trace.end_time),
            finished_at: p.finished_at.unwrap_or(trace.end_time),
        })
        .collect();

    let contention: Vec<ColorContention> = needed
        .iter()
        .map(|&c| ColorContention {
            color: c,
            stats: trace.resources[res_of_color[&c].index()].stats.clone(),
        })
        .collect();

    // Post-run fault accounting: fumbles bite once per observed hand-off,
    // the bell bites only if it actually cut the run short, and adopted
    // orphans become recovery actions.
    let resilience = if plan.is_empty() {
        None
    } else {
        for e in &plan.events {
            if let FaultEvent::HandoffFumble { color, extra_secs } = e {
                let handoffs = contention
                    .iter()
                    .find(|c| c.color == *color)
                    .map_or(0, |c| c.stats.handoffs);
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
                if deadline_secs == Some(*at_secs)
                    && (trace.end_time.as_secs_f64() - at_secs).abs() < 1e-9)
        });
        if bell {
            state.incidents.push(Incident {
                at_secs: trace.end_time.as_secs_f64(),
                what: "the bell rang with work unfinished".to_owned(),
            });
        }
        for (i, &n) in state.adopted.iter().enumerate() {
            if n > 0 {
                state
                    .actions
                    .push(RecoveryAction::CellsAdopted { student: i, cells: n });
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
        Some(ResilienceReport {
            plan_label: plan.label.clone(),
            policy: plan.policy,
            faults_planned: plan.events.len(),
            incidents: state.incidents,
            actions: state.actions,
            time_lost_secs: state.time_lost_secs,
            aborted: state.aborted.is_some(),
        })
    };

    flagsim_telemetry::count("run.breakages", breakages);
    Ok(ActivityOutcome::Completed(Box::new(RunReport {
        label,
        flag_name: flag.name.clone(),
        completion: trace.makespan(),
        students,
        contention,
        grid,
        correct,
        breakages,
        resilience,
        trace,
        cell_log,
    })))
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
