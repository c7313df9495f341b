//! The coordinator: shard a sweep across worker processes, survive
//! their deaths, and land the exact serial answer.
//!
//! One OS thread per endpoint runs the connect → hello → lease loop,
//! feeding every reported repetition through the shared [`MergeState`]
//! (core's one merge); the main thread supervises heartbeat deadlines
//! and the wall-clock budget. Failure handling is layered:
//!
//! 1. connect failures back off exponentially with an attempt budget;
//! 2. a session that errors or goes silent past the heartbeat timeout
//!    marks its worker dead, and the unfinished part of its lease is
//!    redistributed per the campaign's `RecoveryPolicy`;
//! 3. a dead session's endpoint thread re-registers and reconnects
//!    (bounded by the same attempt budget);
//! 4. when every endpoint thread has given up and work remains, the
//!    coordinator degrades to running the missing repetitions
//!    in-process — same merge, same answer, no cluster.
//!
//! In-process work — a campaign with no endpoints, which is how
//! `--checkpoint`/`--resume`/`--max-wall-secs` work without any
//! workers, and the degradation path — runs on core's only executor,
//! [`SweepRunner::run_owed`], over whatever the merge still owes. Every
//! fold, local or remote, runs one hook under the state lock: the
//! checkpoint cadence, the `halt_after_reps` kill simulation, the
//! wall-clock deadline, and the fleet view's merged/failed counts.
//!
//! [`SweepRunner::run_owed`]: flagsim_core::sweep::SweepRunner::run_owed

use crate::checkpoint::{Checkpoint, CheckpointLog};
use crate::fleet::ObsHub;
use crate::job::{JobSpec, MaterializedJob};
use crate::lease::{LeaseConfig, LeaseGrant, LeaseTable, WorkerId};
use crate::wire::{self, Message, TelemetryBatch, TraceConfig, PROTOCOL_VERSION};
use flagsim_core::sweep::{MergeState, SweepResult};
use flagsim_telemetry::log;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Everything that shapes a sharded campaign besides the job itself.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker endpoints (`host:port`). Empty means run in-process.
    pub endpoints: Vec<String>,
    /// Threads for the in-process path (and the degradation path).
    pub local_jobs: usize,
    /// Where to write checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint whenever this many new reps have merged since the
    /// last save.
    pub checkpoint_every: u64,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<Checkpoint>,
    /// Soft wall-clock budget: on expiry the coordinator checkpoints
    /// and reports [`ShardOutcome::DeadlineExpired`].
    pub max_wall: Option<Duration>,
    /// Lease sizing, heartbeat/backoff tuning, and the recovery policy.
    pub lease: LeaseConfig,
    /// Test/bench hook: stop abruptly (no final checkpoint — simulating
    /// a kill) once this many reps have merged.
    pub halt_after_reps: Option<u64>,
    /// Suppress stderr progress notes.
    pub quiet: bool,
    /// Fleet-observability hub the coordinator publishes worker state
    /// into (dashboard / `--obs-out`); `None` disables fleet tracking.
    pub obs: Option<ObsHub>,
    /// Rep-sampling stride propagated in the hello trace context:
    /// workers instrument every `trace_sample`-th repetition. 0 picks
    /// automatically (about 256 sampled reps per campaign) so shipping
    /// cost stays bounded no matter how large the sweep; 1 means full
    /// fidelity.
    pub trace_sample: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            endpoints: Vec::new(),
            local_jobs: 1,
            checkpoint_path: None,
            checkpoint_every: 64,
            resume: None,
            max_wall: None,
            lease: LeaseConfig::default(),
            halt_after_reps: None,
            quiet: true,
            obs: None,
            trace_sample: 0,
        }
    }
}

/// Resolve the rep-sampling stride for a campaign: an explicit setting
/// wins; auto (0) aims for about 256 instrumented reps per campaign so
/// per-rep spans never dominate a large sweep's wall clock.
fn resolve_sample(cfg: &CoordinatorConfig, reps: u64) -> u64 {
    if cfg.trace_sample > 0 { cfg.trace_sample } else { (reps / 256).max(1) }
}

/// The campaign's trace id: the hex job fingerprint, identical on every
/// process that materializes the same job.
pub fn campaign_id(job: &JobSpec) -> String {
    job.fingerprint()
}

/// How a campaign ended.
#[derive(Debug)]
pub enum ShardOutcome {
    /// Every repetition merged. The statistics are bit-for-bit those of
    /// the serial streaming sweep (no reports are retained).
    Completed(SweepResult),
    /// The wall-clock budget expired first; a checkpoint (if configured)
    /// holds the progress.
    DeadlineExpired {
        /// Reps merged before expiry.
        merged: u64,
        /// Total reps in the campaign.
        total: u64,
        /// The checkpoint written on expiry, if checkpointing was on.
        checkpoint: Option<PathBuf>,
    },
    /// `halt_after_reps` tripped (test/bench kill simulation): stopped
    /// abruptly with no final checkpoint.
    Halted {
        /// Reps merged before the simulated kill.
        merged: u64,
    },
}

struct Shared {
    table: LeaseTable,
    merge: MergeState,
    control: Control,
}

/// What the coordinator tracks next to the merge: its checkpoint log,
/// and why (if at all) the campaign is stopping.
struct Control {
    log: Option<CheckpointLog>,
    halted: bool,
    deadline_hit: bool,
    fatal: Option<String>,
}

impl Control {
    /// The campaign hook, run under the state lock after every remote
    /// fold, before every local claim and on every supervisor tick:
    /// checkpoint cadence, the halt hook, the wall-clock deadline, and
    /// the fleet view's merged/failed counts. Returns whether the
    /// campaign should keep going.
    fn keep_going(
        &mut self,
        merge: &MergeState,
        job: &JobSpec,
        cfg: &CoordinatorConfig,
        start: Instant,
    ) -> bool {
        if let (Some(log), true) = (&mut self.log, cfg.checkpoint_every > 0) {
            if merge.merged().saturating_sub(log.saved()) >= cfg.checkpoint_every {
                if let Err(e) = log.save(job, merge) {
                    self.fatal = Some(format!("checkpoint save failed: {e}"));
                }
            }
        }
        if cfg.halt_after_reps.is_some_and(|n| merge.merged() >= n) {
            self.halted = true;
        }
        if cfg.max_wall.is_some_and(|budget| start.elapsed() >= budget) && !merge.is_complete() {
            self.deadline_hit = true;
        }
        show_merge(cfg, merge);
        !(self.halted || self.deadline_hit || self.fatal.is_some())
    }
}

/// Publish the merge's progress into the fleet view, if there is one.
fn show_merge(cfg: &CoordinatorConfig, merge: &MergeState) {
    if let Some(hub) = &cfg.obs {
        hub.with(|fv| {
            fv.merged = merge.merged();
            fv.failed = merge.failures().len() as u64;
        });
    }
}

fn now_ms(start: Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

fn lock(shared: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    shared.lock().expect("shard state lock poisoned")
}

/// Run `job` under `cfg`. Statistics in [`ShardOutcome::Completed`] are
/// bit-for-bit those of the serial streaming sweep, regardless of
/// worker count, failures, or resume history.
pub fn run_sweep(job: &JobSpec, cfg: &CoordinatorConfig) -> Result<ShardOutcome, String> {
    let _span = flagsim_telemetry::span("shard", "coordinate");
    let mat = job.materialize()?;
    let merge = match &cfg.resume {
        Some(ck) => {
            if ck.job.fingerprint() != job.fingerprint() {
                return Err(format!(
                    "resume: checkpoint is for a different campaign \
                     (checkpoint {}, requested {})",
                    ck.job.fingerprint(),
                    job.fingerprint()
                ));
            }
            ck.clone().into_merge()
        }
        None => MergeState::new(job.reps),
    };
    if flagsim_telemetry::enabled() {
        flagsim_telemetry::gauge_set("shard.total_reps", job.reps as f64);
        flagsim_telemetry::gauge_set("shard.endpoints", cfg.endpoints.len() as f64);
    }
    if let Some(hub) = &cfg.obs {
        hub.with(|fv| fv.reset(campaign_id(job), job.reps));
    }
    show_merge(cfg, &merge);
    let start = Instant::now();
    let table = LeaseTable::with_missing(job.reps, &merge.missing_ranges(), cfg.lease.clone());
    let mut shared = Mutex::new(Shared {
        table,
        merge,
        control: Control {
            log: cfg.checkpoint_path.clone().map(|path| {
                CheckpointLog::new(path, cfg.resume.as_ref().map_or(0, Checkpoint::watermark))
            }),
            halted: false,
            deadline_hit: false,
            fatal: None,
        },
    });

    if !lock(&shared).merge.is_complete() {
        if cfg.endpoints.is_empty() {
            let sh = shared.get_mut().expect("shard state lock poisoned");
            run_local(&mat, job, cfg, sh, start);
        } else {
            run_remote(&mat, job, cfg, &shared, start);
        }
    }

    // Everything has stopped; freeze the outcome.
    let mut sh = shared.into_inner().expect("shard state lock poisoned");
    if let Some(fatal) = sh.control.fatal {
        return Err(fatal);
    }
    if let Some(reason) = sh.table.abort_reason() {
        return Err(reason.to_owned());
    }
    if sh.control.halted {
        return Ok(ShardOutcome::Halted { merged: sh.merge.merged() });
    }
    if sh.control.deadline_hit && !sh.merge.is_complete() {
        if let Some(log) = &mut sh.control.log {
            log.save(job, &sh.merge)
                .map_err(|e| format!("checkpoint save on deadline: {e}"))?;
        }
        return Ok(ShardOutcome::DeadlineExpired {
            merged: sh.merge.merged(),
            total: sh.merge.total(),
            checkpoint: cfg.checkpoint_path.clone(),
        });
    }
    if !sh.merge.is_complete() {
        return Err(format!(
            "campaign stalled at {}/{} reps with no workers left",
            sh.merge.merged(),
            sh.merge.total()
        ));
    }
    if let Some(log) = &mut sh.control.log {
        // Final checkpoint: resuming a finished campaign is a no-op.
        log.save(job, &sh.merge)
            .map_err(|e| format!("final checkpoint save: {e}"))?;
    }
    sh.merge
        .finish()
        .map(ShardOutcome::Completed)
        .map_err(|e| e.to_string())
}

/// In-process execution of whatever the merge still owes, on core's
/// executor with the campaign hook. Also the degradation path when the
/// cluster is gone.
fn run_local(
    mat: &MaterializedJob,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    sh: &mut Shared,
    start: Instant,
) {
    let Shared { merge, control, .. } = sh;
    mat.runner()
        .jobs(cfg.local_jobs)
        .run_owed(merge, |m| control.keep_going(m, job, cfg, start));
}

/// Drive the endpoint sessions plus the supervisor loop; returns once
/// every thread has stopped and a terminal condition holds.
fn run_remote(
    mat: &MaterializedJob,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &Mutex<Shared>,
    start: Instant,
) {
    let done = AtomicBool::new(false);
    let threads_alive = AtomicUsize::new(cfg.endpoints.len());
    thread::scope(|s| {
        for endpoint in &cfg.endpoints {
            let done = &done;
            let threads_alive = &threads_alive;
            s.spawn(move || {
                endpoint_sessions(endpoint, job, cfg, shared, done, start);
                threads_alive.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // Supervisor.
        loop {
            thread::sleep(Duration::from_millis(5));
            let now = now_ms(start);
            let mut sh = lock(shared);
            sh.table.check_deadlines(now);
            let Shared { merge, control, .. } = &mut *sh;
            let going = control.keep_going(merge, job, cfg, start);
            if let Some(hub) = &cfg.obs {
                hub.with(|fv| {
                    if fv.sample(now) {
                        fv.publish_gauges(now);
                    }
                });
            }
            let terminal = sh.merge.is_complete() || !going || sh.table.abort_reason().is_some();
            if terminal {
                done.store(true, Ordering::Relaxed);
                break;
            }
            let cluster_gone = threads_alive.load(Ordering::Relaxed) == 0;
            if cluster_gone {
                if !cfg.quiet {
                    log::warn(
                        "shard.coordinator",
                        "no workers reachable; degrading to in-process execution",
                        &[
                            ("remaining", (sh.merge.total() - sh.merge.merged()).to_string()),
                            ("total", sh.merge.total().to_string()),
                        ],
                    );
                }
                // Every endpoint thread is done with the state: hold the
                // lock for the whole in-process run.
                run_local(mat, job, cfg, &mut sh, start);
                done.store(true, Ordering::Relaxed);
                break;
            }
        }
        // Scope exit joins the endpoint threads (they observe `done`).
    });
}

/// One endpoint's lifetime: connect (with backoff), serve sessions,
/// re-register on death, give up when the attempt budget is spent.
fn endpoint_sessions(
    endpoint: &str,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &Mutex<Shared>,
    done: &AtomicBool,
    start: Instant,
) {
    let Ok(addr) = endpoint.parse::<SocketAddr>() else {
        let mut sh = lock(shared);
        let w = sh.table.add_worker(endpoint);
        sh.table.mark_dead(w, "unparseable endpoint address", now_ms(start));
        return;
    };
    let mut sessions: u32 = 0;
    while !done.load(Ordering::Relaxed) && sessions < cfg.lease.max_connect_attempts.max(1) {
        sessions += 1;
        let w = lock(shared).table.add_worker(endpoint);
        let Some(stream) = connect_with_backoff(addr, w, cfg, shared, done, start) else {
            return; // attempt budget exhausted (slot marked dead) or done
        };
        // A broken session falls through and the loop re-registers.
        let _ = drive_session(stream, w, job, cfg, shared, done, start);
        if lock(shared).merge.is_complete() || !lock(shared).table.is_dead(w) {
            return; // clean shutdown path already ran
        }
    }
}

fn connect_with_backoff(
    addr: SocketAddr,
    w: WorkerId,
    cfg: &CoordinatorConfig,
    shared: &Mutex<Shared>,
    done: &AtomicBool,
    start: Instant,
) -> Option<TcpStream> {
    loop {
        if done.load(Ordering::Relaxed) {
            return None;
        }
        let now = now_ms(start);
        let (may, scheduled) = {
            let sh = lock(shared);
            (sh.table.may_connect(w, now), sh.table.next_attempt_at(w))
        };
        if may {
            match TcpStream::connect_timeout(
                &addr,
                Duration::from_millis(cfg.lease.heartbeat_timeout_ms.max(1)),
            ) {
                Ok(stream) => {
                    lock(shared).table.on_connected(w, now_ms(start));
                    return Some(stream);
                }
                Err(_) => {
                    let mut sh = lock(shared);
                    sh.table.on_connect_failed(w, now_ms(start));
                    if flagsim_telemetry::enabled() {
                        flagsim_telemetry::count("shard.connect_failures", 1);
                    }
                }
            }
        } else if scheduled.is_none() {
            return None; // budget exhausted; slot is dead
        } else {
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Grant ids pairing a lease's flow-arrow halves across the trace;
/// process-global so concurrent sessions never collide.
static NEXT_GRANT: AtomicU64 = AtomicU64::new(1);

fn map_id(remap: &mut BTreeMap<u64, u64>, old: u64) -> u64 {
    // A parent/link may reference a span that arrives in a *later*
    // batch (children complete first); reserving its id on first sight
    // keeps cross-batch edges intact.
    *remap
        .entry(old)
        .or_insert_with(|| flagsim_telemetry::alloc_span_ids(1))
}

/// Merge one worker telemetry batch into the coordinator's collector
/// and fleet view: remap span ids into this process's space, stamp
/// every record with the worker's process label, and fold counter
/// deltas in. Strictly observational — nothing here touches the merge,
/// which is the determinism argument for shipping being on, off, or
/// lossy.
fn absorb_telemetry(
    batch: TelemetryBatch,
    worker_name: &str,
    remap: &mut BTreeMap<u64, u64>,
    obs: Option<&ObsHub>,
    now: u64,
) {
    if let Some(hub) = obs {
        hub.with(|fv| fv.on_telemetry(worker_name, batch.dropped, now));
    }
    if !flagsim_telemetry::enabled() {
        return;
    }
    flagsim_telemetry::count("shard.telemetry_frames", 1);
    if batch.dropped > 0 {
        flagsim_telemetry::count("shard.telemetry_dropped_records", batch.dropped);
    }
    let spans: Vec<_> = batch
        .spans
        .into_iter()
        .map(|mut s| {
            s.id = map_id(remap, s.id);
            s.parent = s.parent.map(|p| map_id(remap, p));
            s.link = s.link.map(|l| map_id(remap, l));
            s.process = worker_name.to_owned();
            s
        })
        .collect();
    if !spans.is_empty() {
        flagsim_telemetry::submit_spans(spans);
    }
    for mut l in batch.logs {
        l.process = worker_name.to_owned();
        flagsim_telemetry::submit_log(l);
    }
    for mut f in batch.flows {
        f.process = worker_name.to_owned();
        flagsim_telemetry::submit_flow(f);
    }
    for (name, delta) in batch.counters {
        flagsim_telemetry::count(&name, delta);
    }
}

/// After `shutdown`, drain the worker's frames until `bye`, EOF or a
/// read error, absorbing its telemetry. A late `rep` or `lease_done`
/// can still be in flight ahead of the final telemetry frame, which
/// carries the worker's rep spans, so other frames are skipped, not
/// taken as the end. Best-effort: the session is ending either way.
fn drain_goodbye(
    reader: &mut impl std::io::Read,
    worker_name: &str,
    remap: &mut BTreeMap<u64, u64>,
    obs: Option<&ObsHub>,
    now: u64,
) {
    loop {
        match wire::recv(reader) {
            Ok(Some(Message::Telemetry(batch))) => {
                absorb_telemetry(batch, worker_name, remap, obs, now);
            }
            Ok(Some(Message::Bye) | None) | Err(_) => return,
            Ok(Some(_)) => {}
        }
    }
}

/// Serve one established session until the campaign finishes, the
/// session breaks (worker marked dead), or `done` is raised.
fn drive_session(
    stream: TcpStream,
    w: WorkerId,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &Mutex<Shared>,
    done: &AtomicBool,
    start: Instant,
) -> Result<(), ()> {
    let dead = |reason: &str| {
        lock(shared).table.mark_dead(w, reason, now_ms(start));
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(cfg.lease.heartbeat_timeout_ms.max(1))))
        .ok();
    let Ok(read_half) = stream.try_clone() else {
        dead("could not clone stream");
        return Err(());
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    // Propagate trace context only while this process is collecting;
    // otherwise the worker stays in its disabled fast path.
    let trace = if flagsim_telemetry::enabled() {
        Some(TraceConfig {
            campaign: campaign_id(job),
            level: log::max_level(),
            spans: true,
            sample: resolve_sample(cfg, job.reps),
        })
    } else {
        None
    };
    if wire::send(
        &mut writer,
        &Message::Hello { protocol: PROTOCOL_VERSION, job: job.clone(), trace },
    )
    .is_err()
    {
        dead("hello write failed");
        return Err(());
    }
    let worker_name = match wire::recv(&mut reader) {
        Ok(Some(Message::HelloOk { worker })) => worker,
        Ok(Some(Message::Error { message })) => {
            dead(&format!("worker refused session: {message}"));
            return Err(());
        }
        _ => {
            dead("no hello_ok");
            return Err(());
        }
    };
    let obs = cfg.obs.as_ref();
    if let Some(hub) = obs {
        hub.with(|fv| fv.on_connected(&worker_name, now_ms(start)));
    }
    log::debug(
        "shard.coordinator",
        "session established",
        &[("worker", worker_name.clone())],
    );
    // Worker-local span ids → this process's id space, for the session.
    let mut remap: BTreeMap<u64, u64> = BTreeMap::new();

    let result = drive_leases(
        &mut reader,
        &mut writer,
        w,
        &worker_name,
        &mut remap,
        job,
        cfg,
        shared,
        done,
        start,
    );
    if let Some(hub) = obs {
        hub.with(|fv| fv.on_disconnected(&worker_name));
    }
    result
}

/// The lease grant/report loop of an established session.
#[allow(clippy::too_many_arguments)]
fn drive_leases(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    w: WorkerId,
    worker_name: &str,
    remap: &mut BTreeMap<u64, u64>,
    job: &JobSpec,
    cfg: &CoordinatorConfig,
    shared: &Mutex<Shared>,
    done: &AtomicBool,
    start: Instant,
) -> Result<(), ()> {
    let dead = |reason: &str| {
        lock(shared).table.mark_dead(w, reason, now_ms(start));
    };
    let obs = cfg.obs.as_ref();
    loop {
        if done.load(Ordering::Relaxed) {
            // Best-effort goodbye; the worker survives for other sweeps.
            let _ = wire::send(writer, &Message::Shutdown);
            drain_goodbye(reader, worker_name, remap, obs, now_ms(start));
            return Ok(());
        }
        let grant = {
            let mut sh = lock(shared);
            if sh.table.is_dead(w) {
                return Err(()); // supervisor timed us out while idle
            }
            sh.table.request_lease(w, now_ms(start))
        };
        match grant {
            LeaseGrant::Finished => {
                let _ = wire::send(writer, &Message::Shutdown);
                drain_goodbye(reader, worker_name, remap, obs, now_ms(start));
                return Ok(());
            }
            LeaseGrant::Wait => {
                thread::sleep(Duration::from_millis(2));
            }
            LeaseGrant::Range { start: s, end: e } => {
                let grant_id = if flagsim_telemetry::enabled() {
                    let id = NEXT_GRANT.fetch_add(1, Ordering::Relaxed);
                    // Start half of the grant arrow; the worker records
                    // the finish half when it picks the lease up.
                    flagsim_telemetry::flow("lease", id, true);
                    id
                } else {
                    0
                };
                if wire::send(writer, &Message::Lease { start: s, end: e, grant: grant_id })
                    .is_err()
                {
                    dead("lease write failed");
                    return Err(());
                }
                if let Some(hub) = obs {
                    hub.with(|fv| fv.on_lease(worker_name, now_ms(start)));
                }
                if flagsim_telemetry::enabled() {
                    flagsim_telemetry::count("shard.leases_granted", 1);
                }
                loop {
                    match wire::recv(reader) {
                        Ok(Some(Message::Rep { rep, outcome })) => {
                            let now = now_ms(start);
                            if let Some(hub) = obs {
                                hub.with(|fv| fv.on_rep(worker_name, now));
                            }
                            let mut sh = lock(shared);
                            sh.table.on_rep_done(w, rep, now);
                            let Shared { merge, control, .. } = &mut *sh;
                            merge.accept(rep, outcome);
                            if !control.keep_going(merge, job, cfg, start) {
                                done.store(true, Ordering::Relaxed);
                            }
                        }
                        Ok(Some(Message::LeaseDone { .. })) => {
                            let now = now_ms(start);
                            if let Some(hub) = obs {
                                hub.with(|fv| fv.on_lease_done(worker_name, now));
                            }
                            lock(shared).table.on_lease_done(w, now);
                            break;
                        }
                        Ok(Some(Message::Telemetry(batch))) => {
                            // Observational only; doubles as a heartbeat
                            // like every other worker frame.
                            let now = now_ms(start);
                            lock(shared).table.on_heartbeat(w, now);
                            absorb_telemetry(batch, worker_name, remap, obs, now);
                        }
                        Ok(Some(Message::Heartbeat)) => {
                            let now = now_ms(start);
                            if let Some(hub) = obs {
                                hub.with(|fv| fv.on_heard(worker_name, now));
                            }
                            lock(shared).table.on_heartbeat(w, now);
                        }
                        Ok(Some(Message::Error { message })) => {
                            dead(&format!("worker error: {message}"));
                            return Err(());
                        }
                        Ok(Some(other)) => {
                            dead(&format!("unexpected frame {other:?}"));
                            return Err(());
                        }
                        Ok(None) => {
                            dead("connection closed mid-lease");
                            return Err(());
                        }
                        Err(_) => {
                            // Read timeout or transport error: the lease
                            // supervisor's verdict, delivered locally.
                            dead("heartbeat timeout");
                            return Err(());
                        }
                    }
                    if done.load(Ordering::Relaxed) {
                        let _ = wire::send(writer, &Message::Shutdown);
                        drain_goodbye(reader, worker_name, remap, obs, now_ms(start));
                        return Ok(());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{serve, WorkerOptions};
    use flagsim_core::sweep::{RepOutcome, SweepRunner};
    use flagsim_metrics::RunStats;
    use std::net::TcpListener;

    fn job(reps: u64) -> JobSpec {
        JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "dauber".into(),
            seed: 20260808,
            reps,
            team: 4,
            warmup: false,
        }
    }

    fn serial_stats(job: &JobSpec) -> (RunStats, RunStats) {
        let mat = job.materialize().expect("job materializes");
        let result = mat.runner().run().expect("serial sweep runs");
        (result.completion, result.waiting)
    }

    fn spawn_workers(n: usize) -> (Vec<String>, Vec<thread::JoinHandle<()>>) {
        spawn_workers_dropping(n, 0)
    }

    fn spawn_workers_dropping(
        n: usize,
        drop_telemetry_every: u64,
    ) -> (Vec<String>, Vec<thread::JoinHandle<()>>) {
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for i in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            endpoints.push(listener.local_addr().expect("addr").to_string());
            handles.push(thread::spawn(move || {
                let opts = WorkerOptions {
                    once: true,
                    name: format!("w{i}"),
                    quiet: true,
                    drop_telemetry_every,
                };
                serve(&listener, &opts).ok();
            }));
        }
        (endpoints, handles)
    }

    fn assert_stats_bits_equal(a: &RunStats, b: &RunStats) {
        assert_eq!(a.n, b.n);
        for (x, y) in [
            (a.mean, b.mean),
            (a.stddev, b.stddev),
            (a.min, b.min),
            (a.max, b.max),
            (a.median, b.median),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "stats differ: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn local_path_matches_serial_sweep() {
        let j = job(16);
        let (serial_c, serial_w) = serial_stats(&j);
        for jobs in [1usize, 3] {
            let cfg = CoordinatorConfig { local_jobs: jobs, ..CoordinatorConfig::default() };
            match run_sweep(&j, &cfg).expect("local sweep") {
                ShardOutcome::Completed(r) => {
                    assert_stats_bits_equal(&r.completion, &serial_c);
                    assert_stats_bits_equal(&r.waiting, &serial_w);
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_worker_sweep_is_bit_identical_to_serial() {
        let j = job(20);
        let (serial_c, serial_w) = serial_stats(&j);
        let (endpoints, handles) = spawn_workers(3);
        let cfg = CoordinatorConfig {
            endpoints,
            lease: LeaseConfig { chunk: 3, ..LeaseConfig::default() },
            ..CoordinatorConfig::default()
        };
        match run_sweep(&j, &cfg).expect("sharded sweep") {
            ShardOutcome::Completed(r) => {
                assert_stats_bits_equal(&r.completion, &serial_c);
                assert_stats_bits_equal(&r.waiting, &serial_w);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        for h in handles {
            h.join().expect("worker thread");
        }
    }

    #[test]
    fn telemetry_shipping_on_off_or_lossy_never_moves_stats() {
        let j = job(24);
        let (serial_c, serial_w) = serial_stats(&j);
        // Shipping off, shipping on, and shipping with forced
        // whole-batch drops must all merge to bit-identical statistics:
        // telemetry frames are observational and never reach the merge.
        for drop_every in [None, Some(0u64), Some(2)] {
            let collector = drop_every.map(|_| flagsim_telemetry::Collector::install());
            let (endpoints, handles) = spawn_workers_dropping(2, drop_every.unwrap_or(0));
            let hub = ObsHub::new();
            let cfg = CoordinatorConfig {
                endpoints,
                lease: LeaseConfig { chunk: 4, ..LeaseConfig::default() },
                obs: Some(hub.clone()),
                ..CoordinatorConfig::default()
            };
            match run_sweep(&j, &cfg).expect("sharded sweep") {
                ShardOutcome::Completed(r) => {
                    assert_stats_bits_equal(&r.completion, &serial_c);
                    assert_stats_bits_equal(&r.waiting, &serial_w);
                }
                other => panic!("expected completion, got {other:?}"),
            }
            for h in handles {
                h.join().expect("worker thread");
            }
            // Fleet view saw both worker sessions regardless of mode.
            let snap = hub.snapshot_json(1_000);
            assert!(snap.contains("\"w0\""), "fleet snapshot missing w0: {snap}");
            assert!(snap.contains("\"w1\""), "fleet snapshot missing w1: {snap}");
            assert!(snap.contains(&format!("\"campaign\": \"{}\"", campaign_id(&j))));
            if let Some(col) = collector {
                let _ = col.finish();
            }
        }
    }

    #[test]
    fn unreachable_workers_degrade_to_local_and_still_match_serial() {
        let j = job(8);
        let (serial_c, _) = serial_stats(&j);
        let cfg = CoordinatorConfig {
            // Nothing listens here; connect_timeout + backoff burn the
            // attempt budget fast.
            endpoints: vec!["127.0.0.1:9".into()],
            local_jobs: 2,
            lease: LeaseConfig {
                backoff_base_ms: 1,
                backoff_cap_ms: 4,
                max_connect_attempts: 2,
                heartbeat_timeout_ms: 200,
                ..LeaseConfig::default()
            },
            ..CoordinatorConfig::default()
        };
        match run_sweep(&j, &cfg).expect("degraded sweep") {
            ShardOutcome::Completed(r) => assert_stats_bits_equal(&r.completion, &serial_c),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn worker_death_mid_sweep_reassigns_and_stays_bit_identical() {
        let j = job(18);
        let (serial_c, _) = serial_stats(&j);
        // One real worker, one endpoint that accepts the connection and
        // then drops it after the handshake (a worker that dies holding
        // its first lease).
        let (mut endpoints, handles) = spawn_workers(1);
        let flaky = TcpListener::bind("127.0.0.1:0").expect("bind flaky");
        endpoints.push(flaky.local_addr().expect("addr").to_string());
        let flaky_thread = thread::spawn(move || {
            // Accept, answer the hello, then vanish mid-lease.
            let (stream, _) = flaky.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            if let Ok(Some(Message::Hello { .. })) = wire::recv(&mut reader) {
                wire::send(&mut writer, &Message::HelloOk { worker: "flaky".into() }).ok();
                // Take the lease and hang up without reporting a rep.
                let _ = wire::recv(&mut reader);
            }
            // Dropping the streams closes the connection.
        });
        let cfg = CoordinatorConfig {
            endpoints,
            lease: LeaseConfig {
                chunk: 4,
                heartbeat_timeout_ms: 300,
                backoff_base_ms: 1,
                backoff_cap_ms: 8,
                max_connect_attempts: 2,
                ..LeaseConfig::default()
            },
            ..CoordinatorConfig::default()
        };
        match run_sweep(&j, &cfg).expect("sweep with a dying worker") {
            ShardOutcome::Completed(r) => assert_stats_bits_equal(&r.completion, &serial_c),
            other => panic!("expected completion, got {other:?}"),
        }
        flaky_thread.join().expect("flaky thread");
        for h in handles {
            h.join().expect("worker thread");
        }
    }

    #[test]
    fn halt_then_resume_is_bit_identical_to_uninterrupted() {
        let j = job(14);
        let (serial_c, serial_w) = serial_stats(&j);
        let dir = std::env::temp_dir().join(format!("flagsim-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("halt.ckpt");
        let halted = run_sweep(
            &j,
            &CoordinatorConfig {
                checkpoint_path: Some(ckpt.clone()),
                checkpoint_every: 1,
                halt_after_reps: Some(5),
                ..CoordinatorConfig::default()
            },
        )
        .expect("halted sweep");
        assert!(matches!(halted, ShardOutcome::Halted { merged } if merged >= 5));
        let resume = Checkpoint::load(&ckpt).expect("load checkpoint");
        assert!(resume.watermark() >= 1 && resume.watermark() < 14, "mid-campaign checkpoint");
        let jr = resume.job.clone();
        let outcome = run_sweep(
            &jr,
            &CoordinatorConfig {
                resume: Some(resume),
                ..CoordinatorConfig::default()
            },
        )
        .expect("resumed sweep");
        match outcome {
            ShardOutcome::Completed(r) => {
                assert_stats_bits_equal(&r.completion, &serial_c);
                assert_stats_bits_equal(&r.waiting, &serial_w);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_deadline_expires_immediately_with_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("flagsim-shard-dl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt = dir.join("deadline.ckpt");
        let j = job(10);
        let outcome = run_sweep(
            &j,
            &CoordinatorConfig {
                checkpoint_path: Some(ckpt.clone()),
                max_wall: Some(Duration::from_secs(0)),
                ..CoordinatorConfig::default()
            },
        )
        .expect("deadline sweep");
        match outcome {
            ShardOutcome::DeadlineExpired { merged, total, checkpoint } => {
                assert_eq!(total, 10);
                assert!(merged < 10);
                let path = checkpoint.expect("checkpoint written");
                let ck = Checkpoint::load(&path).expect("checkpoint loads");
                assert_eq!(ck.watermark(), merged);
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_different_campaign() {
        let ck = Checkpoint {
            job: job(5),
            outcomes: vec![RepOutcome::Ok { completion: 1.0, waiting: 0.5 }],
        };
        let other = job(7); // different rep count → different fingerprint
        let err = run_sweep(
            &other,
            &CoordinatorConfig { resume: Some(ck), ..CoordinatorConfig::default() },
        )
        .unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
    }

    #[test]
    fn sweep_runner_serial_equals_streaming_serial() {
        // The anchor for every bit-for-bit claim above: the runner's
        // retained serial stats equal its streaming stats in every bit —
        // one accumulator serves both.
        let j = job(12);
        let mat = j.materialize().expect("materialize");
        let streaming = mat.runner().run().expect("streaming run");
        let retained = SweepRunner::new(&mat.scenario, &mat.flag, &mat.kit, &mat.config)
            .team_size(mat.team)
            .warmup(mat.warmup)
            .reps(mat.reps)
            .retain_reports(true)
            .run()
            .expect("retained run");
        assert_stats_bits_equal(&streaming.completion, &retained.completion);
        assert_stats_bits_equal(&streaming.waiting, &retained.waiting);
    }

    #[test]
    fn drain_goodbye_reads_past_late_frames_to_the_final_telemetry() {
        // A lease finished just as the campaign did: its `lease_done`
        // is still ahead of the telemetry frame that carries the
        // worker's rep spans, and `bye` comes last.
        let mut bytes = Vec::new();
        let batch = TelemetryBatch { dropped: 3, ..TelemetryBatch::default() };
        for msg in [Message::LeaseDone { start: 0, end: 4 }, Message::Telemetry(batch), Message::Bye] {
            wire::send(&mut bytes, &msg).expect("encode frame");
        }
        let hub = ObsHub::new();
        hub.with(|fv| fv.on_connected("w0", 0));
        let mut reader = &bytes[..];
        drain_goodbye(&mut reader, "w0", &mut BTreeMap::new(), Some(&hub), 1);
        let dropped = hub.with(|fv| fv.workers().map(|w| w.dropped_records).sum::<u64>());
        assert_eq!(dropped, 3, "the telemetry frame behind lease_done was absorbed");
        assert!(reader.is_empty(), "drained through bye");
    }
}
