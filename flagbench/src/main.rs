//! flagbench: the flagsim benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path flagbench/Cargo.toml -- \
//!     --workload <sweep-stream|lesson|verify|sweep-shard> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload with tracing off and reports the
//! end-to-end metrics; `--trace 1` runs the traced pipelines of every
//! layer and reports the per-layer metrics. Both print a host header,
//! the simulated-statistics digests and per-metric sample summaries, and
//! end with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! The workloads and why each exists are described in `workloads.rs`.

mod report;
mod traced;
mod workloads;

use report::{host_header, proc_status_kb, result_json, sample_line, Checks, Metric};
use workloads::Workload;

/// The command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(1..=600).contains(&s) {
                        return Err("--seconds must be 1..=600".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                    })
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }

    #[cfg(test)]
    fn to_argv(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ]
    }
}

fn run(args: &Args) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let seconds = args.seconds as f64;
    if args.trace {
        let metrics = traced::run_traced(args.seed, seconds, &mut checks);
        return (checks, metrics);
    }
    let m = workloads::run_timed(args.workload, args.seed, seconds, &mut checks);
    for d in &m.digests {
        println!("# digest {d}");
    }
    let setup = m.setup_s.summary(false);
    let reps = m.reps_per_s.summary(true);
    let verdicts = m.verdicts_per_s.summary(true);
    print!(
        "# trials: {}\n{}{}{}",
        reps.n,
        sample_line("setup_s", "s", &setup),
        sample_line("reps_per_s", "1/s", &reps),
        sample_line("verdicts_per_s", "1/s", &verdicts),
    );
    let metrics = vec![
        Metric::new("setup_s", "s", setup.best),
        Metric::new("reps_per_s", "1/s", reps.best),
        Metric::new("verdicts_per_s", "1/s", verdicts.best),
        Metric::new("peak_rss_mb", "MB", proc_status_kb("VmHWM") as f64 / 1024.0),
    ];
    (checks, metrics)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: flagbench --workload <{}> --seed N --seconds S --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    print!(
        "{}",
        host_header(&format!(
            "workload={} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ))
    );
    let (checks, metrics) = run(&args);
    for note in &checks.notes {
        println!("# check failed: {note}");
    }
    let correct =
        checks.failed == 0 && checks.attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "# checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    println!("{}", result_json(correct, &checks, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_and_seed_round_trip() {
        for w in Workload::ALL {
            for (seed, trace) in [(0, false), (7, true), (u64::MAX, false)] {
                let args = Args {
                    workload: w,
                    seed,
                    seconds: 10,
                    trace,
                };
                assert_eq!(Args::parse(&args.to_argv()), Ok(args.clone()));
                assert_eq!(Workload::parse(w.name()), Some(w));
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload verify --seed x --seconds 1",
            "--workload verify --seed 1 --seconds 0",
            "--workload verify --seed 1 --seconds 1 --trace 2",
            "--workload verify --seed 1",
            "--workload verify --seed 1 --seconds 1 --extra 1",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
