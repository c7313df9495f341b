//! Serial-vs-parallel sweep throughput benchmark.
//!
//! ```text
//! cargo run -p flagsim-bench --release --bin sweep_bench -- \
//!     [--reps N] [--jobs N] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: 256 reps, one job per core, `BENCH_sweep.json`; serial and
//! parallel are each timed over 3 trials that repeat the sweep for at
//! least 1 s, and reported as the fastest and the median trial with the
//! host (nproc, rustc, git rev). `--smoke` shrinks the run (8 reps,
//! 2 jobs, one sweep per mode) so CI can exercise the parallel path on
//! every push without burning minutes.
//!
//! Exits non-zero if the parallel sweep's statistics diverge from the
//! serial sweep's — determinism is a correctness gate. The ≥2× speedup
//! goal is only reachable with ≥2 physical cores, so it is reported,
//! not asserted.

fn main() {
    let mut reps: u64 = 256;
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out_path = String::from("BENCH_sweep.json");
    let mut trials = flagsim_bench::measure::TRIALS;
    let mut min_trial_secs = flagsim_bench::measure::MIN_TRIAL_SECS;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a number");
            }
            "--out" => {
                out_path = args.next().expect("--out needs a path");
            }
            "--smoke" => {
                reps = 8;
                jobs = 2;
                trials = 1;
                min_trial_secs = 0.0;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: sweep_bench [--reps N] [--jobs N] [--out PATH] [--smoke]");
                std::process::exit(2);
            }
        }
    }
    let bench = flagsim_bench::run_sweep_bench(reps, jobs, trials, min_trial_secs);
    println!("{}", bench.summary());
    std::fs::write(&out_path, bench.to_json()).expect("write benchmark JSON");
    println!("wrote {out_path}");
    if !bench.deterministic {
        eprintln!("FAIL: parallel sweep statistics diverged from serial");
        std::process::exit(1);
    }
}
