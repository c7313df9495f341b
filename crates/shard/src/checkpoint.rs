//! Durable sweep checkpoints: kill the process, resume the campaign,
//! finish with bit-identical statistics.
//!
//! A checkpoint is the log of a campaign's merged outcomes. Its first
//! line is a header: the format version, the job's fingerprint and its
//! canonical spec. Every later line is one merged repetition's outcome,
//! in rep order, in the fields of the wire's `rep` frame (floats as
//! IEEE-754 hex bits). Resuming replays the lines into a fresh
//! [`MergeState`]. The accumulators are a function of the merged
//! outcomes in order, so the replay rebuilds them bit for bit, and the
//! resumed campaign owes exactly the reps past the log (its
//! `missing_ranges`, which the coordinator leases out or runs
//! in-process). Outcomes that had finished but sat in the reorder
//! buffer behind a gap are not logged: resume re-runs them, as it
//! re-runs leased-but-unreported reps, and per-rep seeds make the re-run
//! identical.
//!
//! [`CheckpointLog`] keeps one run's file current. Its first save writes
//! the whole file atomically (temp file, fsync, rename), so a kill
//! mid-save leaves the previous checkpoint intact; each later save
//! appends only the lines merged since, then fsyncs. A kill mid-append
//! can leave a last line without its newline, which
//! [`load`](Checkpoint::load) drops (that rep is owed again). Any
//! complete line that does not parse, or whose rep is not its place in
//! the log, is an error, as is a header whose fingerprint does not match
//! its own job spec (tampering or a spec edit).

use crate::job::JobSpec;
use crate::wire::{read_outcome, write_outcome};
use flagsim_core::sweep::{MergeState, RepOutcome};
use flagsim_telemetry::json::{self, json_string, Value};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Checkpoint file format revision.
pub const CHECKPOINT_VERSION: u64 = 2;

/// A sweep campaign as its checkpoint file recorded it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The campaign's job spec (source of truth on resume).
    pub job: JobSpec,
    /// The merged outcomes of reps `0..outcomes.len()`, in rep order.
    pub outcomes: Vec<RepOutcome>,
}

impl Checkpoint {
    /// Reps `0..watermark()` had merged when the log was last saved.
    pub fn watermark(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// Replay the log into a fresh merge state, ready to accept the
    /// missing reps.
    pub fn into_merge(self) -> MergeState {
        let mut merge = MergeState::new(self.job.reps);
        for (rep, outcome) in self.outcomes.into_iter().enumerate() {
            merge.accept(rep as u64, outcome);
        }
        merge
    }

    /// Parse a checkpoint log, verifying its version, its fingerprint
    /// and the order of its lines. A last line without its newline (a
    /// torn append) is dropped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (header, body) = text.split_once('\n').unwrap_or((text, ""));
        let v = json::parse(header).map_err(|e| format!("checkpoint: {e}"))?;
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
        let job = JobSpec::from_value(v.get("job").ok_or("checkpoint: missing job")?)?;
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
        let complete = body.rsplit_once('\n').map_or("", |(lines, _torn)| lines);
        let mut outcomes = Vec::new();
        for (i, line) in complete.lines().enumerate() {
            let at = |e: String| format!("checkpoint line {}: {e}", i + 2);
            let v = json::parse(line).map_err(|e| at(e.to_string()))?;
            let (rep, outcome) = read_outcome(&v, "outcome").map_err(at)?;
            if rep != i as u64 {
                return Err(at(format!("rep {rep} out of order (expected rep {i})")));
            }
            if rep >= job.reps {
                return Err(at(format!("rep {rep} beyond the job's {} reps", job.reps)));
            }
            outcomes.push(outcome);
        }
        Ok(Checkpoint { job, outcomes })
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }
}

/// The header line of `job`'s checkpoint, newline included.
fn header(job: &JobSpec) -> String {
    format!(
        "{{\"version\":{CHECKPOINT_VERSION},\"fingerprint\":{},\"job\":{}}}\n",
        json_string(&job.fingerprint()),
        job.to_json(),
    )
}

/// Append one line per outcome `merge` has merged from rep `from` on.
fn push_lines(out: &mut String, merge: &MergeState, from: u64) {
    for (rep, outcome) in merge.merged_outcomes(from) {
        out.push('{');
        write_outcome(out, rep, &outcome);
        out.push_str("}\n");
    }
}

/// One run's checkpoint file, kept current with its merge: the first
/// save writes the file whole and atomically, each later save appends
/// the lines merged since the one before.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    /// Reps the file holds.
    saved: u64,
    /// Whether this run has written the file yet.
    appending: bool,
}

impl CheckpointLog {
    /// The log at `path` of a run whose merge starts with `saved` reps
    /// merged: 0, or the watermark of the checkpoint it resumes.
    pub fn new(path: PathBuf, saved: u64) -> Self {
        CheckpointLog { path, saved, appending: false }
    }

    /// Reps merged as of the last save.
    pub fn saved(&self) -> u64 {
        self.saved
    }

    /// Bring the file up to `merge`, the merge of `job`.
    pub fn save(&mut self, job: &JobSpec, merge: &MergeState) -> io::Result<()> {
        if self.appending {
            if merge.merged() > self.saved {
                let mut text = String::new();
                push_lines(&mut text, merge, self.saved);
                let mut f = fs::OpenOptions::new().append(true).open(&self.path)?;
                f.write_all(text.as_bytes())?;
                f.sync_all()?;
            }
        } else {
            let mut text = header(job);
            push_lines(&mut text, merge, 0);
            let tmp = self.path.with_extension("tmp");
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(text.as_bytes())?;
                f.sync_all()?;
            }
            fs::rename(&tmp, &self.path)?;
            self.appending = true;
        }
        self.saved = merge.merged();
        Ok(())
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

    fn outcome(i: u64) -> RepOutcome {
        match i {
            5 => RepOutcome::Failed { error: "marker ran dry".into() },
            _ => RepOutcome::Ok { completion: 1.0 / (i + 1) as f64, waiting: 0.5 },
        }
    }

    /// A merge at watermark 6 with rep 8 buffered behind the gap.
    fn merge_with_gap() -> MergeState {
        let mut m = MergeState::new(12);
        for i in [0, 1, 2, 3, 4, 5, 8] {
            m.accept(i, outcome(i));
        }
        m
    }

    /// The whole checkpoint text of `merge`.
    fn log_text(merge: &MergeState) -> String {
        let mut text = header(&job());
        push_lines(&mut text, merge, 0);
        text
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flagsim-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_logs_merged_outcomes_and_drops_the_buffer() {
        let back = Checkpoint::parse(&log_text(&merge_with_gap())).unwrap();
        assert_eq!(back.watermark(), 6);
        assert_eq!(back.outcomes, (0..6).map(outcome).collect::<Vec<_>>());
        // The buffered rep 8 is owed again, with the gap before it.
        let restored = back.into_merge();
        assert_eq!(restored.missing_ranges(), vec![(6, 12)]);
        assert_eq!(restored.failures().len(), 1);
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
        let mut resumed = Checkpoint::parse(&log_text(&head)).unwrap().into_merge();
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
            (aw.median, bw.median),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let text = log_text(&merge_with_gap());
        // Tamper with the job's seed; the recorded fingerprint no longer
        // matches the spec it sits next to.
        let tampered = text.replace("\"seed\":\"42\"", "\"seed\":\"43\"");
        assert_ne!(tampered, text);
        let err = Checkpoint::parse(&tampered).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Checkpoint::parse("not json").is_err());
        assert!(Checkpoint::parse("{\"version\":9}").is_err());
        let text = log_text(&merge_with_gap());
        let bad = text.replacen("\"ok\":true", "\"ok\":maybe", 1);
        let err = Checkpoint::parse(&bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // A log longer than the job is corrupt, not a bigger campaign.
        let mut long = MergeState::new(13);
        for i in 0..13 {
            long.accept(i, outcome(i));
        }
        let err = Checkpoint::parse(&log_text(&long)).unwrap_err();
        assert!(err.contains("beyond the job's 12 reps"), "{err}");
    }

    #[test]
    fn version_1_files_are_refused() {
        let v1 = "{\"version\":1,\"fingerprint\":\"00\",\"job\":{},\"watermark\":\"0\"}";
        let err = Checkpoint::parse(v1).unwrap_err();
        assert!(err.contains("version 1 unsupported"), "{err}");
    }

    #[test]
    fn a_torn_last_line_is_dropped() {
        let text = log_text(&merge_with_gap());
        // Cut the last line anywhere short of its newline: a kill
        // mid-append.
        let last = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        for cut in [last + 1, last + 9, text.len() - 1] {
            let back = Checkpoint::parse(&text[..cut]).unwrap();
            assert_eq!(back.watermark(), 5, "cut at {cut}");
        }
        assert_eq!(Checkpoint::parse(&text[..last]).unwrap().watermark(), 5);
        assert_eq!(Checkpoint::parse(&text).unwrap().watermark(), 6);
    }

    #[test]
    fn a_complete_out_of_order_line_is_rejected() {
        let text = log_text(&merge_with_gap());
        let swapped = text.replacen("\"rep\":\"1\"", "\"rep\":\"2\"", 1);
        let err = Checkpoint::parse(&swapped).unwrap_err();
        assert!(err.contains("line 3") && err.contains("out of order"), "{err}");
        // A dropped middle line shifts every later rep out of place.
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        lines.remove(3);
        let err = Checkpoint::parse(&lines.concat()).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn first_save_is_atomic_and_later_saves_append_only_new_lines() {
        let path = temp_path("append.ckpt");
        let mut merge = MergeState::new(12);
        for i in 0..3 {
            merge.accept(i, outcome(i));
        }
        let mut log = CheckpointLog::new(path.clone(), 0);
        log.save(&job(), &merge).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let first = fs::read_to_string(&path).unwrap();
        assert_eq!(first, log_text(&merge));
        for i in 3..7 {
            merge.accept(i, outcome(i));
        }
        log.save(&job(), &merge).unwrap();
        let second = fs::read_to_string(&path).unwrap();
        // Only the four new lines were added, after the old bytes.
        assert_eq!(&second[..first.len()], first);
        assert_eq!(second[first.len()..].lines().count(), 4);
        assert_eq!(second, log_text(&merge));
        assert_eq!(log.saved(), 7);
        // Nothing new merged: the file is left alone.
        log.save(&job(), &merge).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), second);
        assert_eq!(Checkpoint::load(&path).unwrap().watermark(), 7);
        // A new run's log rewrites the file whole, dropping a torn tail.
        fs::write(&path, format!("{second}{{\"rep\":\"7\",\"ok")).unwrap();
        CheckpointLog::new(path.clone(), 7).save(&job(), &merge).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), second);
        fs::remove_file(&path).ok();
    }
}
