//! Durable sweep checkpoints: kill the process, resume the campaign,
//! finish with bit-identical statistics.
//!
//! A checkpoint is the coordinator's merge state — core's one
//! [`MergeState`], which every in-process, sharded and resumed sweep
//! folds through — frozen to JSON: the job's canonical spec and
//! fingerprint, the merged-rep *watermark*, exact bit-level
//! [`StreamingStats`](flagsim_metrics::StreamingStats) snapshots of both
//! accumulators (every float as IEEE-754 hex bits — see
//! `metrics::streaming`), the recorded per-rep failures, and any
//! completed-but-unmerged repetitions still parked in the reorder
//! buffer. Restoring replays the pending set into a fresh
//! [`MergeState`], so the resumed campaign owes exactly the reps the
//! killed one never finished (its `missing_ranges`, which the
//! coordinator leases out or runs in-process), and the accumulators
//! continue from the same internal state they would have had — which is
//! what makes resume-after-kill equal an uninterrupted run bit for bit.
//!
//! Files are written atomically (temp file + rename) so a kill *during*
//! a checkpoint write leaves the previous checkpoint intact, and
//! [`load`](Checkpoint::load) refuses files whose fingerprint does not
//! match their own job spec (truncation, tampering, or a spec edit).

use crate::job::JobSpec;
use crate::wire::{read_outcome, write_outcome};
use flagsim_core::sweep::{MergeState, RepOutcome, SweepFailure};
use flagsim_metrics::StreamingStats;
use flagsim_telemetry::json::{self, json_string, Value};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Checkpoint file format revision.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A sweep campaign frozen mid-flight.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The campaign's job spec (source of truth on resume).
    pub job: JobSpec,
    /// Reps `0..watermark` are folded into the accumulators.
    pub watermark: u64,
    /// Completion-seconds accumulator, bit-exact.
    pub completion: StreamingStats,
    /// Waiting-seconds accumulator, bit-exact.
    pub waiting: StreamingStats,
    /// Per-rep failures recorded so far, in rep order.
    pub failures: Vec<SweepFailure>,
    /// Completed-but-unmerged outcomes (above the watermark, behind a
    /// gap).
    pub pending: Vec<(u64, RepOutcome)>,
}

impl Checkpoint {
    /// Freeze a merge state (plus its job) into a checkpoint.
    pub fn from_merge(job: &JobSpec, merge: &MergeState) -> Self {
        let (completion, waiting) = merge.accumulators();
        Checkpoint {
            job: job.clone(),
            watermark: merge.merged(),
            completion: completion.clone(),
            waiting: waiting.clone(),
            failures: merge.failures().to_vec(),
            pending: merge.pending_outcomes(),
        }
    }

    /// Thaw back into a merge state ready to accept the missing reps.
    pub fn into_merge(self) -> MergeState {
        MergeState::restore(
            self.job.reps,
            self.watermark,
            self.completion,
            self.waiting,
            self.failures,
            self.pending,
        )
    }

    /// Serialize to the checkpoint JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"version\":{CHECKPOINT_VERSION},\"fingerprint\":{},\"job\":{},\"watermark\":\"{}\"",
            json_string(&self.job.fingerprint()),
            self.job.to_json(),
            self.watermark,
        );
        let _ = write!(out, ",\"completion\":{}", self.completion.to_json());
        let _ = write!(out, ",\"waiting\":{}", self.waiting.to_json());
        out.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rep\":\"{}\",\"error\":{}}}",
                f.rep,
                json_string(&f.error)
            );
        }
        out.push_str("],\"pending\":[");
        for (i, (rep, outcome)) in self.pending.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            write_outcome(&mut out, *rep, outcome);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a checkpoint document, verifying version and fingerprint.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("checkpoint: {e}"))?;
        let version = v
            .get("version")
            .and_then(Value::as_f64)
            .filter(|n| n.fract() == 0.0)
            .ok_or("checkpoint: missing version")? as u64;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint: version {version} unsupported (this build reads {CHECKPOINT_VERSION})"
            ));
        }
        let job_v = v.get("job").ok_or("checkpoint: missing job")?;
        let job = JobSpec::from_value(job_v)?;
        let recorded = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("checkpoint: missing fingerprint")?;
        if recorded != job.fingerprint() {
            return Err(format!(
                "checkpoint: fingerprint {recorded:?} does not match its own job spec \
                 ({:?}) — file corrupt or hand-edited",
                job.fingerprint()
            ));
        }
        let watermark = v
            .get("watermark")
            .and_then(Value::as_str)
            .ok_or("checkpoint: missing watermark")?
            .parse::<u64>()
            .map_err(|_| "checkpoint: watermark is not a u64")?;
        if watermark > job.reps {
            return Err(format!(
                "checkpoint: watermark {watermark} exceeds the job's {} reps",
                job.reps
            ));
        }
        let completion = StreamingStats::from_value(
            v.get("completion").ok_or("checkpoint: missing completion")?,
        )?;
        let waiting =
            StreamingStats::from_value(v.get("waiting").ok_or("checkpoint: missing waiting")?)?;
        let mut failures = Vec::new();
        for f in v
            .get("failures")
            .and_then(Value::as_array)
            .ok_or("checkpoint: missing failures")?
        {
            let rep = f
                .get("rep")
                .and_then(Value::as_str)
                .ok_or("checkpoint: failure missing rep")?
                .parse::<u64>()
                .map_err(|_| "checkpoint: failure rep is not a u64")?;
            let error = f
                .get("error")
                .and_then(Value::as_str)
                .ok_or("checkpoint: failure missing error")?
                .to_owned();
            failures.push(SweepFailure { rep, error });
        }
        let mut pending = Vec::new();
        for p in v
            .get("pending")
            .and_then(Value::as_array)
            .ok_or("checkpoint: missing pending")?
        {
            pending.push(read_outcome(p, "checkpoint: pending entry")?);
        }
        Ok(Checkpoint {
            job,
            watermark,
            completion,
            waiting,
            failures,
            pending,
        })
    }

    /// Write atomically: serialize to `<path>.tmp`, fsync, rename over
    /// `path`. A kill mid-write leaves the previous checkpoint intact.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "dauber".into(),
            seed: 42,
            reps: 12,
            team: 4,
            warmup: false,
        }
    }

    fn merge_with_gap() -> MergeState {
        let mut m = MergeState::new(12);
        for i in 0..5u64 {
            m.accept(i, RepOutcome::Ok { completion: 1.0 / (i + 1) as f64, waiting: 0.5 });
        }
        m.accept(5, RepOutcome::Failed { error: "marker ran dry".into() });
        m.accept(8, RepOutcome::Ok { completion: 0.125, waiting: 0.25 }); // buffered
        m
    }

    #[test]
    fn round_trip_preserves_every_bit_of_merge_state() {
        let m = merge_with_gap();
        let ck = Checkpoint::from_merge(&job(), &m);
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(back.watermark, 6);
        assert_eq!(back.failures.len(), 1);
        assert_eq!(back.pending, vec![(8, RepOutcome::Ok { completion: 0.125, waiting: 0.25 })]);
        assert_eq!(back.completion.to_json(), ck.completion.to_json());
        assert_eq!(back.waiting.to_json(), ck.waiting.to_json());
        // Thawed merge owes exactly the missing reps.
        let restored = back.into_merge();
        assert_eq!(restored.missing_ranges(), vec![(6, 8), (9, 12)]);
    }

    #[test]
    fn resumed_merge_finishes_identically_to_uninterrupted() {
        let outcome = |i: u64| RepOutcome::Ok {
            completion: (i as f64).sin().abs() + 0.01,
            waiting: (i as f64).cos().abs(),
        };
        let mut whole = MergeState::new(12);
        for i in 0..12 {
            whole.accept(i, outcome(i));
        }
        let mut head = MergeState::new(12);
        for i in 0..7 {
            head.accept(i, outcome(i));
        }
        head.accept(10, outcome(10));
        let ck = Checkpoint::from_merge(&job(), &head);
        let mut resumed = Checkpoint::from_json(&ck.to_json()).unwrap().into_merge();
        for (s, e) in resumed.missing_ranges() {
            for i in s..e {
                resumed.accept(i, outcome(i));
            }
        }
        assert!(resumed.is_complete());
        let (a, aw) = resumed.finish().map(|r| (r.completion, r.waiting)).unwrap();
        let (b, bw) = whole.finish().map(|r| (r.completion, r.waiting)).unwrap();
        for (x, y) in [
            (a.mean, b.mean),
            (a.stddev, b.stddev),
            (a.median, b.median),
            (a.min, b.min),
            (a.max, b.max),
            (aw.mean, bw.mean),
            (aw.stddev, bw.stddev),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        let text = ck.to_json();
        // Tamper with the job's seed; the recorded fingerprint no longer
        // matches the spec it sits next to.
        let tampered = text.replace("\"seed\":\"42\"", "\"seed\":\"43\"");
        assert_ne!(tampered, text);
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Checkpoint::from_json("not json").is_err());
        assert!(Checkpoint::from_json("{\"version\":9}").is_err());
        let ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        let text = ck.to_json().replace("\"watermark\":\"6\"", "\"watermark\":\"99\"");
        let err = Checkpoint::from_json(&text).unwrap_err();
        assert!(err.contains("watermark"), "{err}");
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("flagsim-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        ck.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.watermark, ck.watermark);
        ck.save(&path).unwrap(); // overwrite in place works too
        fs::remove_dir_all(&dir).ok();
    }
}
