//! Sharded-sweep correctness-and-throughput benchmark.
//!
//! ```text
//! cargo run -p flagsim-bench --release --bin shard_bench -- \
//!     [--reps N] [--workers N] [--kill-points N] [--chunk K] \
//!     [--out PATH] [--smoke]
//! ```
//!
//! Defaults: 128 reps, 3 workers, 4 kill points, chunk 8,
//! `BENCH_shard.json`; the serial and sharded campaigns are each timed
//! over 3 trials that repeat the campaign for at least 1 s, and
//! reported as the fastest and the median trial with the host (nproc,
//! rustc, git rev). `--smoke` shrinks the run (12 reps, 2 workers,
//! 3 kill points, chunk 3, one campaign per mode) so CI exercises the
//! full protocol on every push.
//!
//! Exits non-zero if either hard gate fails: the multi-worker sharded
//! statistics must be bit-for-bit identical to serial, and every
//! kill-mid-sweep → resume cycle must land the uninterrupted statistics
//! and an identical final checkpoint file.

fn main() {
    let mut reps: u64 = 128;
    let mut workers: usize = 3;
    let mut kill_points: u64 = 4;
    let mut chunk: u64 = 8;
    let mut out_path = String::from("BENCH_shard.json");
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
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number");
            }
            "--kill-points" => {
                kill_points = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--kill-points needs a number");
            }
            "--chunk" => {
                chunk = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--chunk needs a number");
            }
            "--out" => {
                out_path = args.next().expect("--out needs a path");
            }
            "--smoke" => {
                reps = 12;
                workers = 2;
                kill_points = 3;
                chunk = 3;
                trials = 1;
                min_trial_secs = 0.0;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: shard_bench [--reps N] [--workers N] [--kill-points N] \
                     [--chunk K] [--out PATH] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }
    let bench = flagsim_bench::run_shard_bench(reps, workers, kill_points, chunk, trials, min_trial_secs);
    println!("{}", bench.summary());
    std::fs::write(&out_path, bench.to_json()).expect("write benchmark JSON");
    println!("wrote {out_path}");
    if !bench.gates_pass() {
        eprintln!(
            "FAIL: sharded_identical={} kill_resume_identical={}",
            bench.sharded_identical, bench.kill_resume_identical
        );
        std::process::exit(1);
    }
}
