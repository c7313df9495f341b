//! The worker side: accept a session, run leased repetitions, report
//! each one.
//!
//! A worker is deliberately stateless between sessions: everything it
//! needs arrives in the `hello` frame's [`JobSpec`], it materializes the
//! job through the same code path the coordinator uses, and every
//! repetition runs through
//! [`SweepRunner::run_rep_stats`](flagsim_core::sweep::SweepRunner::run_rep_stats) —
//! so its answers are bit-identical to the coordinator computing the
//! same rep locally. Reps inside a lease run in ascending order and are
//! reported one frame each; that ordering is what lets the coordinator
//! shrink a dead worker's lease to only the genuinely unfinished reps.
//!
//! A failed repetition is reported (`ok:false`) and the lease continues:
//! per-rep failures are campaign data, not worker faults.
//!
//! When the coordinator's `hello` carries a [`TraceConfig`], the worker
//! installs its own telemetry collector for the session and ships what
//! it records — spans, logs, flows, counter deltas — back as `telemetry`
//! frames, drained every [`SHIP_EVERY_REPS`] reps and at each lease
//! boundary. Pending records are capped ([`MAX_PENDING`]); overflow is
//! *dropped and counted*, never buffered without bound, so a slow or
//! inattentive coordinator can cost trace fidelity but never stall the
//! repetitions themselves.

use crate::job::JobSpec;
use crate::wire::{self, Message, TelemetryBatch, TraceConfig, PROTOCOL_VERSION};
use flagsim_telemetry::{log, Collector, FlowRecord, LogRecord, SpanRecord};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

/// Drain-and-ship cadence within a lease, in repetitions. Every lease
/// boundary also flushes, so this only bounds staleness inside one
/// long lease; keeping it coarse keeps frame overhead off the rep hot
/// path (the obs bench gates shipping at ≤5% wall-clock).
const SHIP_EVERY_REPS: u64 = 512;

/// Cap on pending records of each kind between ships; overflow is
/// dropped and counted in the next batch's `dropped` field.
const MAX_PENDING: usize = 8192;

/// How `serve` behaves.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Handle exactly one session, then return (used by
    /// coordinator-spawned workers so they exit with their sweep).
    pub once: bool,
    /// Name reported in `hello_ok` (diagnostics only).
    pub name: String,
    /// Suppress per-session stderr notes.
    pub quiet: bool,
    /// Test hook for forced telemetry loss: when `n > 0`, every `n`-th
    /// batch is discarded (counted as dropped) instead of shipped —
    /// merged statistics must come out identical anyway.
    pub drop_telemetry_every: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            once: false,
            name: format!("worker-{}", std::process::id()),
            quiet: false,
            drop_telemetry_every: 0,
        }
    }
}

/// Per-session shipping state: the worker-side collector plus bounded
/// pending buffers between `telemetry` frames.
struct Shipper {
    collector: Collector,
    config: TraceConfig,
    seq: u64,
    dropped: u64,
    reps_since_ship: u64,
    pending_spans: Vec<SpanRecord>,
    pending_logs: Vec<LogRecord>,
    pending_flows: Vec<FlowRecord>,
    drop_every: u64,
}

impl Shipper {
    fn new(config: TraceConfig, drop_every: u64) -> Shipper {
        log::set_level(config.level);
        Shipper {
            collector: Collector::install(),
            config,
            seq: 0,
            dropped: 0,
            reps_since_ship: 0,
            pending_spans: Vec::new(),
            pending_logs: Vec::new(),
            pending_flows: Vec::new(),
            drop_every,
        }
    }

    /// Move drained records into the bounded pending buffers.
    fn absorb(&mut self) {
        fn take_bounded<T>(pending: &mut Vec<T>, mut fresh: Vec<T>, dropped: &mut u64) {
            let room = MAX_PENDING.saturating_sub(pending.len());
            if fresh.len() > room {
                *dropped += (fresh.len() - room) as u64;
                fresh.truncate(room);
            }
            pending.append(&mut fresh);
        }
        let spans = if self.config.spans {
            self.collector.drain_spans()
        } else {
            // Spans disabled by config: drain and discard (not counted
            // as drops — the coordinator asked for none).
            let _ = self.collector.drain_spans();
            Vec::new()
        };
        take_bounded(&mut self.pending_spans, spans, &mut self.dropped);
        take_bounded(&mut self.pending_logs, self.collector.drain_logs(), &mut self.dropped);
        take_bounded(&mut self.pending_flows, self.collector.drain_flows(), &mut self.dropped);
    }

    /// Drain, batch, and ship one `telemetry` frame (or drop it whole
    /// when the forced-loss hook fires). Quietly skips empty batches.
    fn ship(&mut self, writer: &mut impl Write) -> io::Result<()> {
        self.absorb();
        let reps = std::mem::take(&mut self.reps_since_ship);
        if self.pending_spans.is_empty()
            && self.pending_logs.is_empty()
            && self.pending_flows.is_empty()
            && reps == 0
            && self.dropped == 0
        {
            return Ok(());
        }
        self.seq += 1;
        let batch = TelemetryBatch {
            seq: self.seq,
            dropped: std::mem::take(&mut self.dropped),
            spans: std::mem::take(&mut self.pending_spans),
            logs: std::mem::take(&mut self.pending_logs),
            flows: std::mem::take(&mut self.pending_flows),
            counters: if reps > 0 {
                vec![("shard.worker_reps".to_owned(), reps)]
            } else {
                Vec::new()
            },
        };
        if self.drop_every > 0 && self.seq.is_multiple_of(self.drop_every) {
            // Forced loss: the whole batch evaporates; only the count
            // survives into the next frame.
            self.dropped += (batch.spans.len() + batch.logs.len() + batch.flows.len()) as u64;
            return Ok(());
        }
        wire::send(writer, &Message::Telemetry(batch))
    }
}

/// Accept coordinator sessions on `listener` until `opts.once` says
/// stop. Each accepted connection is served to completion before the
/// next `accept` (a worker process serves one coordinator at a time —
/// parallelism comes from running more workers, not threading one).
pub fn serve(listener: &TcpListener, opts: &WorkerOptions) -> io::Result<()> {
    loop {
        let (stream, peer) = listener.accept()?;
        if !opts.quiet {
            log::info(
                "shard.worker",
                "session accepted",
                &[("worker", opts.name.clone()), ("peer", peer.to_string())],
            );
        }
        if let Err(e) = serve_session(&stream, opts) {
            if !opts.quiet {
                log::warn(
                    "shard.worker",
                    "session ended with error",
                    &[("worker", opts.name.clone()), ("error", e.to_string())],
                );
            }
        }
        if opts.once {
            return Ok(());
        }
    }
}

/// Serve one coordinator session on an established stream.
pub fn serve_session(stream: &TcpStream, opts: &WorkerOptions) -> io::Result<()> {
    let _span = flagsim_telemetry::span("shard", "worker_session");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);

    // Handshake: hello carries the whole job (and the trace context).
    let (job, trace): (JobSpec, Option<TraceConfig>) = match wire::recv(&mut reader)? {
        Some(Message::Hello { protocol, job, trace }) if protocol == PROTOCOL_VERSION => {
            (job, trace)
        }
        Some(Message::Hello { protocol, .. }) => {
            let msg = format!("protocol {protocol} != {PROTOCOL_VERSION}");
            wire::send(&mut writer, &Message::Error { message: msg.clone() })?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        Some(other) => {
            let msg = format!("expected hello, got {other:?}");
            wire::send(&mut writer, &Message::Error { message: msg.clone() })?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        None => return Ok(()), // peer connected and left; nothing owed
    };
    let mat = match job.materialize() {
        Ok(m) => m,
        Err(e) => {
            wire::send(&mut writer, &Message::Error { message: e.clone() })?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, e));
        }
    };
    wire::send(&mut writer, &Message::HelloOk { worker: opts.name.clone() })?;

    // With a trace context, everything recorded from here on is shipped
    // back; without one, instrumentation stays in its disabled
    // (one-atomic-load) state.
    let mut shipper = trace.map(|t| Shipper::new(t, opts.drop_telemetry_every));
    if let Some(s) = shipper.as_ref() {
        // Recorded through the just-installed collector, so even a
        // worker that never wins a lease ships one frame on shutdown —
        // the merged trace then shows a track for every fleet member,
        // not just the ones the scheduler favored.
        log::info(
            "shard.worker",
            "session start",
            &[("worker", opts.name.clone()), ("campaign", s.config.campaign.clone())],
        );
    }

    let runner = mat.runner();
    let result = loop {
        match wire::recv(&mut reader)? {
            Some(Message::Lease { start, end, grant }) => {
                if start >= end || end > mat.reps {
                    let msg = format!("bad lease {start}..{end} for {} reps", mat.reps);
                    wire::send(&mut writer, &Message::Error { message: msg.clone() })?;
                    break Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
                let lease_span = shipper.as_ref().map(|s| {
                    if grant != 0 {
                        // Finish half of the coordinator's grant arrow.
                        flagsim_telemetry::flow("lease", grant, false);
                    }
                    flagsim_telemetry::span("shard", "lease")
                        .arg("campaign", &s.config.campaign)
                        .arg("worker", &opts.name)
                        .arg("lease", format!("{start}..{end}"))
                        .arg("grant", grant)
                });
                for rep in start..end {
                    // Rep sampling: unsampled reps run with recording
                    // paused, so neither the rep span nor the engine's
                    // inner spans cost anything. Purely observational —
                    // the rep itself always runs and reports.
                    let sampled = shipper
                        .as_ref()
                        .is_some_and(|s| s.config.sample <= 1 || rep % s.config.sample == 0);
                    let _pause = (shipper.is_some() && !sampled)
                        .then(flagsim_telemetry::pause_recording);
                    let outcome = {
                        let _rep_span = sampled
                            .then(|| flagsim_telemetry::span("sim", "sweep.rep").arg("rep", rep));
                        runner.run_rep_stats(rep).into()
                    };
                    wire::send(&mut writer, &Message::Rep { rep, outcome })?;
                    if flagsim_telemetry::enabled() {
                        flagsim_telemetry::count("shard.worker_reps", 1);
                    }
                    if let Some(s) = shipper.as_mut() {
                        s.reps_since_ship += 1;
                        if s.reps_since_ship >= SHIP_EVERY_REPS {
                            s.ship(&mut writer)?;
                        }
                    }
                }
                drop(lease_span);
                if let Some(s) = shipper.as_mut() {
                    s.ship(&mut writer)?;
                }
                wire::send(&mut writer, &Message::LeaseDone { start, end })?;
            }
            Some(Message::Shutdown) => {
                if let Some(s) = shipper.as_mut() {
                    s.ship(&mut writer)?;
                }
                wire::send(&mut writer, &Message::Bye)?;
                break Ok(());
            }
            Some(Message::Heartbeat) => {} // coordinator probing liveness
            Some(Message::Error { message }) => {
                break Err(io::Error::other(message));
            }
            Some(other) => {
                let msg = format!("unexpected frame {other:?}");
                wire::send(&mut writer, &Message::Error { message: msg.clone() })?;
                break Err(io::Error::new(io::ErrorKind::InvalidData, msg));
            }
            None => break Ok(()), // coordinator hung up (or died); leases lapse
        }
    };
    if let Some(s) = shipper {
        // End the session's collector so the next session (or the
        // process's own tooling) starts clean.
        let _ = s.collector.finish();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_core::sweep::RepOutcome;
    use std::net::TcpListener;
    use std::thread;

    fn job() -> JobSpec {
        JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "dauber".into(),
            seed: 7,
            reps: 6,
            team: 4,
            warmup: false,
        }
    }

    fn spawn_worker(once: bool) -> (std::net::SocketAddr, thread::JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            serve(
                &listener,
                &WorkerOptions {
                    once,
                    name: "t".into(),
                    quiet: true,
                    drop_telemetry_every: 0,
                },
            )
        });
        (addr, handle)
    }

    #[test]
    fn full_session_reports_bit_identical_reps() {
        let (addr, handle) = spawn_worker(true);
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        wire::send(&mut w, &Message::Hello { protocol: PROTOCOL_VERSION, job: job(), trace: None }).unwrap();
        assert!(matches!(wire::recv(&mut r).unwrap(), Some(Message::HelloOk { .. })));
        wire::send(&mut w, &Message::Lease { start: 1, end: 4, grant: 0 }).unwrap();
        let local = job().materialize().unwrap();
        let runner = local.runner();
        for expect_rep in 1u64..4 {
            match wire::recv(&mut r).unwrap() {
                Some(Message::Rep { rep, outcome: RepOutcome::Ok { completion, waiting } }) => {
                    assert_eq!(rep, expect_rep);
                    let mine = runner.run_rep(rep).unwrap();
                    assert_eq!(completion.to_bits(), mine.completion_secs().to_bits());
                    assert_eq!(waiting.to_bits(), mine.total_wait_secs().to_bits());
                }
                other => panic!("expected rep {expect_rep}, got {other:?}"),
            }
        }
        assert_eq!(
            wire::recv(&mut r).unwrap(),
            Some(Message::LeaseDone { start: 1, end: 4 })
        );
        wire::send(&mut w, &Message::Shutdown).unwrap();
        assert_eq!(wire::recv(&mut r).unwrap(), Some(Message::Bye));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn protocol_mismatch_is_refused() {
        let (addr, handle) = spawn_worker(true);
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        wire::send(&mut w, &Message::Hello { protocol: 999, job: job(), trace: None }).unwrap();
        match wire::recv(&mut r).unwrap() {
            Some(Message::Error { message }) => assert!(message.contains("999"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }
        handle.join().unwrap().unwrap(); // serve itself survives bad sessions
    }

    #[test]
    fn bad_job_and_bad_lease_are_refused() {
        // Unknown flag in the job.
        let (addr, handle) = spawn_worker(true);
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        let bad = JobSpec { flag: "Atlantis".into(), ..job() };
        wire::send(&mut w, &Message::Hello { protocol: PROTOCOL_VERSION, job: bad, trace: None }).unwrap();
        assert!(matches!(wire::recv(&mut r).unwrap(), Some(Message::Error { .. })));
        handle.join().unwrap().unwrap();

        // Lease beyond the job's rep range.
        let (addr, handle) = spawn_worker(true);
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        wire::send(&mut w, &Message::Hello { protocol: PROTOCOL_VERSION, job: job(), trace: None }).unwrap();
        assert!(matches!(wire::recv(&mut r).unwrap(), Some(Message::HelloOk { .. })));
        wire::send(&mut w, &Message::Lease { start: 0, end: 99, grant: 0 }).unwrap();
        assert!(matches!(wire::recv(&mut r).unwrap(), Some(Message::Error { .. })));
        handle.join().unwrap().unwrap();
    }
}
