//! Sample summaries, output checks, the host header and the result line.

use std::fmt::Write as _;
use std::process::Command;

/// Repeated measurements of one quantity within a run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Best value, quartiles and count of a [`Samples`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The fastest trial: the minimum of a time, the maximum of a rate.
    pub best: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Samples {
    /// Record one measurement.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Summarise; `higher_is_better` picks which end is the best trial.
    /// Quartiles use the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`.
    pub fn summary(&self, higher_is_better: bool) -> Summary {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |i: usize| -> f64 {
            match n {
                0 => f64::NAN,
                1 => v[0],
                _ => {
                    let m = i * (n + 1);
                    let j = (m / 4).clamp(1, n - 1);
                    let delta = m as f64 / 4.0 - j as f64;
                    v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
                }
            }
        };
        Summary {
            best: if higher_is_better {
                v.last().copied().unwrap_or(f64::NAN)
            } else {
                v.first().copied().unwrap_or(f64::NAN)
            },
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            n,
        }
    }
}

/// Output checks counted as operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked outputs.
    pub attempted: u64,
    /// Checked outputs that did not match.
    pub failed: u64,
    /// The first few mismatches, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one checked output; `what` describes a mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Count an operation that returned an error.
    pub fn error(&mut self, e: impl std::fmt::Display) {
        self.check(false, || e.to_string());
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
}

impl Metric {
    /// A metric with its value.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A field of `/proc/self/status` in kB (`VmRSS`, `VmHWM`); 0 off Linux.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn command_line(mut command: Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host header every run prints before measuring.
pub fn host_header(run: &str) -> String {
    let mut git_rev = Command::new("git");
    git_rev.args(["rev-parse", "--short=12", "HEAD"]);
    // Only the working directory's own repository, never one above it.
    let cwd = std::env::current_dir().unwrap_or_default();
    if let Some(parent) = cwd.parent() {
        git_rev.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let mut rustc = Command::new("rustc");
    rustc.arg("--version");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# flagbench {run}\n# host: git_rev={} nproc={nproc} rustc=\"{}\" profile={profile}\n",
        command_line(git_rev),
        command_line(rustc),
    )
}

/// One `# sample` diagnostic line: best, median and quartiles.
pub fn sample_line(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "# sample {name} [{unit}]: best={} q1={} median={} q3={} n={}\n",
        s.best, s.q1, s.median, s.q3, s.n
    )
}

/// The last line of output: one JSON object.
pub fn result_json(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut s = Samples::default();
        for x in 1..=10 {
            s.push(f64::from(x));
        }
        let q = s.summary(true);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!((q.best, q.n), (10.0, 10));
        assert_eq!(s.summary(false).best, 1.0);
    }

    #[test]
    fn a_failed_check_is_counted_and_noted() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "digest differs".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes, ["digest differs"]);
    }
}
