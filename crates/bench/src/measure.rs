//! The measurement discipline `sweep_bench` and `shard_bench` share:
//! several trials, each repeating the measured run until at least
//! [`MIN_TRIAL_SECS`] of it has been timed, reported as the fastest and
//! the median trial, next to the host the numbers came from.

use flagsim_telemetry::json::json_string;
use std::process::Command;

/// Timed trials per measurement on a full run.
pub const TRIALS: u32 = 3;

/// Seconds of timed work each full-run trial accumulates at least.
pub const MIN_TRIAL_SECS: f64 = 1.0;

/// One measurement: seconds per run, over several trials.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Runs each trial repeated, in trial order.
    pub runs: Vec<u64>,
    /// The fastest trial's seconds per run.
    pub min_secs: f64,
    /// The median trial's seconds per run.
    pub median_secs: f64,
}

impl Timing {
    /// `trials` trials (at least one) of `run`, each repeating it until
    /// `min_trial_secs` of timed work has accumulated (at least once).
    /// `run` does one run and returns the seconds of it that count, so
    /// set-up around the measured part stays out of the figure.
    pub fn measure(trials: u32, min_trial_secs: f64, mut run: impl FnMut() -> f64) -> Timing {
        let mut runs = Vec::new();
        let mut per_run = Vec::new();
        for _ in 0..trials.max(1) {
            let (mut n, mut secs) = (0u64, 0.0);
            while n == 0 || secs < min_trial_secs {
                secs += run();
                n += 1;
            }
            runs.push(n);
            per_run.push(secs / n as f64);
        }
        per_run.sort_by(f64::total_cmp);
        Timing {
            runs,
            min_secs: per_run[0],
            median_secs: per_run[per_run.len() / 2],
        }
    }

    /// A JSON object of the timing, with the reps per second of the
    /// fastest and the median trial at `reps` per run.
    pub fn to_json(&self, reps: u64) -> String {
        let rate = |secs: f64| reps as f64 / secs.max(f64::MIN_POSITIVE);
        let runs: Vec<String> = self.runs.iter().map(u64::to_string).collect();
        format!(
            "{{\"runs_per_trial\": [{}], \"min_secs\": {:.6}, \"median_secs\": {:.6}, \
             \"best_reps_per_sec\": {:.1}, \"median_reps_per_sec\": {:.1}}}",
            runs.join(", "),
            self.min_secs,
            self.median_secs,
            rate(self.min_secs),
            rate(self.median_secs)
        )
    }
}

/// The host this process runs on, as a JSON object: `nproc`
/// (`available_parallelism`), `rustc --version`, and the working tree's
/// commit (`-dirty` with local changes); `unknown` where a command fails.
pub fn host_json() -> String {
    let first_line = |mut command: Command| {
        command
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_owned)
            })
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let mut git = Command::new("git");
    git.args(["describe", "--always", "--dirty", "--abbrev=12"]);
    // Only the working directory's own repository, never one above it.
    let cwd = std::env::current_dir().unwrap_or_default();
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let mut rustc = Command::new("rustc");
    rustc.arg("--version");
    format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(&first_line(rustc)),
        json_string(&first_line(git))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_trial_runs_at_least_once_and_min_le_median() {
        let mut secs = [0.3, 0.1, 0.2].into_iter().cycle();
        let t = Timing::measure(3, 0.0, || secs.next().unwrap());
        assert_eq!(t.runs, vec![1, 1, 1]);
        assert_eq!((t.min_secs, t.median_secs), (0.1, 0.2));
        let t = Timing::measure(2, 0.5, || 0.25);
        assert_eq!(t.runs, vec![2, 2], "repeat until half a second is timed");
        let json = t.to_json(10);
        assert!(json.contains("\"runs_per_trial\": [2, 2]"), "{json}");
        assert!(json.contains("\"best_reps_per_sec\": 40.0"), "{json}");
    }

    #[test]
    fn host_json_names_all_three_fields() {
        let json = host_json();
        for key in ["\"nproc\":", "\"rustc\":", "\"git_rev\":"] {
            assert!(json.contains(key), "{json}");
        }
    }
}
