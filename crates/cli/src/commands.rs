//! Command dispatch.

use crate::submission::parse_submission;
use flagsim_agents::{ImplementKind, StudentProfile};
use flagsim_assessment::jordan;
use flagsim_core::classroom::ClassroomSession;
use flagsim_core::config::ActivityConfig;
use flagsim_core::discussion;
use flagsim_core::faults::{FaultPlan, RecoveryPolicy};
use flagsim_core::layered;
use flagsim_core::scenario::Scenario;
use flagsim_core::slides;
use flagsim_core::work::PreparedFlag;
use flagsim_core::TeamKit;
use flagsim_flags::{library, FlagSpec};
use flagsim_simcheck as simcheck;
use flagsim_grid::render;
use flagsim_taskgraph::{analysis, classify, list_schedule, Priority};
use std::fmt::Write as _;

/// A user-facing failure: message plus the usage hint to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Exit code for a soft-deadline expiry (`sweep --max-wall-secs`):
/// distinct from usage/runtime errors so scripts can tell "resume me"
/// apart from "you did it wrong".
pub const EXIT_DEADLINE: i32 = 3;

/// Exit code for every other CLI error.
pub const EXIT_USAGE: i32 = 2;

impl CliError {
    /// The process exit status this error asks for.
    pub fn exit_code(&self) -> i32 {
        if self.message.starts_with("soft deadline") {
            EXIT_DEADLINE
        } else {
            EXIT_USAGE
        }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError {
        message: message.into(),
    })
}

const USAGE: &str = "\
flagsim — the flag-coloring PDC activity simulator

USAGE:
  flagsim flags
  flagsim render <flag> [ascii|ansi|ppm|svg] [WxH]
  flagsim slides [<flag>]
  flagsim run <SCENARIO> [--flag NAME] [--kind KIND]
              [--seed N] [--markers N] [--gantt] [--trace-out FILE]
              [--no-check]
  flagsim faults <SCENARIO> (--plan SPEC | --random)
                 [--policy rebalance|spare:SECS|abort] [--flag NAME]
                 [--kind KIND] [--seed N] [--trace-out FILE] [--no-check]
  flagsim faults --demo-deadlock
  flagsim sweep <SCENARIO> [--reps M] [--jobs N]
                [--flag NAME] [--kind KIND] [--seed N] [--team N]
                [--warmup] [--progress] [--dashboard]
                [--trace-out FILE] [--no-check]
                [--workers N | --connect ADDR[,ADDR..]]
                [--checkpoint FILE] [--checkpoint-every K]
                [--resume FILE] [--max-wall-secs S]
                [--policy rebalance|spare:SECS|abort] [--chunk K]
                [--obs-out FILE] [--obs-serve ADDR] [--trace-sample N]
                [--log-level error|warn|info|debug|trace]
  flagsim worker --listen ADDR [--once] [--quiet] [--name NAME]
                 [--log-level error|warn|info|debug|trace]
  flagsim explain <SCENARIO> [--format text|json] [--flag NAME]
                  [--kind KIND] [--seed N] [--team N] [--jobs N]
  flagsim profile <SCENARIO> [--out FILE] [--format chrome|folded|table]
                  [--metrics] [--reps M] [--jobs N] [--flag NAME]
                  [--kind KIND] [--seed N]
  flagsim session [--repeat] [--seed N]
  flagsim check <SCENARIO|FLAG|PLAN|demo-deadlock>
                [--format text|json] [--deny note|warning|error]
                [--allow IDS] [--static-only] [--flag NAME] [--kind KIND]
                [--team N] [--seed N] [--jobs N] [--plan SPEC] [--policy P]
  flagsim verify <SCENARIO|demo-deadlock> [--flag NAME] [--kind KIND]
                 [--seed N] [--max-schedules N] [--naive]
                 [--format text|json] [--deny note|warning|error]
                 [--allow IDS] [--witness-out PREFIX]
  flagsim lint <flag|file> [--size WxH] [--format text|json]
               [--deny note|warning|error] [--allow IDS]
  flagsim graph <flag> [--procs N]
  flagsim grade <file>
  flagsim parse <file>
  flagsim pack --out DIR [--flag NAME] [--kind KIND] [--seed N]
  flagsim vocab [<term>]
  flagsim report [--seed N]
  flagsim replay <SCENARIO> [--flag NAME] [--kind KIND] [--frames N]
                 [--seed N]
  flagsim watch <SCENARIO> [--flag NAME] [--kind KIND] [--seed N]
                [--script KEYS] [--frames-out FILE] [--width N] [--no-check]
  flagsim watch --trace FILE [--script KEYS] [--frames-out FILE]
  flagsim watch (--connect ADDR | --follow FILE) [--once] [--width N]

SCENARIO: 1 | 2 | 3 | 4 | pipelined | alternating
          (onestripe = 3, fourslice = 4)

KIND: dauber | thick | thin | crayon (default thick)

PLAN SPEC: comma-separated fault events —
  break:COLOR@SECS  dryout:COLOR@SECS  dropout:STUDENT@SECS
  late:STUDENT@SECS  fumble:COLOR+SECS  bell@SECS
  e.g. \"break:blue@20,dropout:2@30,bell@120\"
";

/// A subcommand: its options, already checked against [`OPTIONS`], in;
/// the text to print out.
type Command = fn(&Opts) -> Result<String, CliError>;

const COMMANDS: &[(&str, Command)] = &[
    ("flags", cmd_flags),
    ("render", cmd_render),
    ("slides", cmd_slides),
    ("run", cmd_run),
    ("faults", cmd_faults),
    ("sweep", cmd_sweep),
    ("worker", cmd_worker),
    ("explain", cmd_explain),
    ("profile", cmd_profile),
    ("session", cmd_session),
    ("check", cmd_check),
    ("verify", cmd_verify),
    ("lint", cmd_lint),
    ("graph", cmd_graph),
    ("grade", cmd_grade),
    ("parse", cmd_parse),
    ("pack", cmd_pack),
    ("vocab", cmd_vocab),
    ("report", cmd_report),
    ("replay", cmd_replay),
    ("watch", cmd_watch),
];

/// Execute a command line (without the program name). Returns the text to
/// print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(USAGE.to_owned());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_owned());
    }
    let Some(&(name, command)) = COMMANDS.iter().find(|(name, _)| name == cmd) else {
        return err(format!("unknown command {cmd:?}\n\n{USAGE}"));
    };
    command(&Opts::new(name, &args[1..])?)
}

/// What an option stands for when the command line leaves it out.
#[derive(Debug, Clone, Copy)]
enum Fallback {
    /// Nothing: the option is simply absent.
    Absent,
    /// This value, parsed exactly as a given one would be.
    Value(&'static str),
    /// The host's available parallelism.
    Cores,
    /// The scenario's coloring team, plus the timer when `timer` is set.
    Team { timer: bool },
}

/// One row of the option table: an option, whether it takes a value, what
/// it falls back to, and the subcommands that accept it with that
/// fallback. An option whose default differs between subcommands has one
/// row per default.
struct OptDef {
    name: &'static str,
    takes_value: bool,
    fallback: Fallback,
    commands: &'static [&'static str],
}

const fn value(
    name: &'static str,
    fallback: Fallback,
    commands: &'static [&'static str],
) -> OptDef {
    OptDef {
        name,
        takes_value: true,
        fallback,
        commands,
    }
}

const fn switch(name: &'static str, commands: &'static [&'static str]) -> OptDef {
    OptDef {
        name,
        takes_value: false,
        fallback: Fallback::Absent,
        commands,
    }
}

/// The subcommands that run the activity, sharing [`resolve_run`]'s inputs.
const RUNNERS: &[&str] = &[
    "run", "faults", "sweep", "explain", "profile", "check", "verify", "pack", "replay", "watch",
];

/// Every option of every subcommand. An option a subcommand does not
/// declare here is an error on its command line.
const OPTIONS: &[OptDef] = {
    use Fallback::{Absent, Cores, Team, Value};
    &[
        // The shared run inputs, resolved by `resolve_run`.
        value("flag", Value("mauritius"), RUNNERS),
        value("kind", Value("thick"), RUNNERS),
        value("seed", Value("2025"), RUNNERS),
        value("seed", Value("2025"), &["report"]),
        value("seed", Value("42"), &["session"]),
        value("team", Team { timer: false }, &["sweep", "explain"]),
        value("team", Team { timer: true }, &["check"]),
        value("jobs", Cores, &["sweep"]),
        value("jobs", Value("1"), &["explain", "profile", "check"]),
        value("reps", Value("32"), &["sweep"]),
        value("reps", Value("4"), &["profile"]),
        switch("no-check", &["run", "faults", "sweep", "watch"]),
        value("trace-out", Absent, &["run", "faults", "sweep"]),
        // Fault plans.
        value("plan", Absent, &["faults", "check"]),
        value("policy", Absent, &["faults", "check"]),
        value("policy", Value("rebalance"), &["sweep"]),
        switch("random", &["faults"]),
        switch("demo-deadlock", &["faults"]),
        // Output and diagnostics.
        value(
            "format",
            Value("text"),
            &["explain", "check", "verify", "lint"],
        ),
        value("format", Value("chrome"), &["profile"]),
        value("deny", Value("error"), &["check", "verify", "lint"]),
        value("allow", Absent, &["check", "verify", "lint"]),
        value("out", Absent, &["profile", "pack"]),
        switch("metrics", &["profile"]),
        // run
        value("markers", Value("1"), &["run"]),
        switch("gantt", &["run"]),
        // sweep, its shard coordinator, and worker
        switch("warmup", &["sweep"]),
        switch("progress", &["sweep"]),
        switch("dashboard", &["sweep"]),
        value("workers", Absent, &["sweep"]),
        value("connect", Absent, &["sweep", "watch"]),
        value("checkpoint", Absent, &["sweep"]),
        value("checkpoint-every", Value("64"), &["sweep"]),
        value("resume", Absent, &["sweep"]),
        value("max-wall-secs", Absent, &["sweep"]),
        value("chunk", Value("8"), &["sweep"]),
        value("obs-out", Absent, &["sweep"]),
        value("obs-serve", Absent, &["sweep"]),
        value("trace-sample", Value("0"), &["sweep"]),
        value("log-level", Absent, &["sweep", "worker"]),
        value("listen", Absent, &["worker"]),
        value("name", Absent, &["worker"]),
        switch("once", &["worker", "watch"]),
        switch("quiet", &["worker"]),
        // session, check, verify, lint, graph, replay, watch
        switch("repeat", &["session"]),
        switch("static-only", &["check"]),
        value("max-schedules", Value("4096"), &["verify"]),
        switch("naive", &["verify"]),
        value("witness-out", Absent, &["verify"]),
        value("size", Absent, &["lint"]),
        value("procs", Value("4"), &["graph"]),
        value("frames", Value("6"), &["replay"]),
        value("script", Absent, &["watch"]),
        value("frames-out", Absent, &["watch"]),
        value("width", Absent, &["watch"]),
        value("trace", Absent, &["watch"]),
        value("follow", Absent, &["watch"]),
    ]
};

/// A subcommand's arguments, checked against [`OPTIONS`].
struct Opts {
    command: &'static str,
    positional: Vec<String>,
    /// Options given on the command line, in order (`None` for switches).
    given: Vec<(&'static str, Option<String>)>,
}

impl Opts {
    fn new(command: &'static str, args: &[String]) -> Result<Opts, CliError> {
        let mut opts = Opts {
            command,
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                opts.positional.push(arg.clone());
                continue;
            };
            let Some(def) = opts.def(key) else {
                let taken: Vec<String> = OPTIONS
                    .iter()
                    .filter(|o| o.commands.contains(&command))
                    .map(|o| format!("--{}", o.name))
                    .collect();
                let taken = if taken.is_empty() {
                    "no options".to_owned()
                } else {
                    taken.join(" ")
                };
                return err(format!(
                    "unknown option --{key} for flagsim {command} (it takes: {taken})"
                ));
            };
            let value = if def.takes_value {
                let Some(v) = it.next() else {
                    return err(format!("--{key} needs a value"));
                };
                Some(v.clone())
            } else {
                None
            };
            opts.given.push((def.name, value));
        }
        Ok(opts)
    }

    /// The table row declaring `--name` for this subcommand.
    fn def(&self, name: &str) -> Option<&'static OptDef> {
        OPTIONS
            .iter()
            .find(|o| o.name == name && o.commands.contains(&self.command))
    }

    /// Whether `--name` was given.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(k, _)| *k == name)
    }

    /// `--name`'s value: the first one given, else the table's default.
    fn value(&self, name: &str) -> Option<&str> {
        match self.given.iter().find(|(k, _)| *k == name) {
            Some((_, v)) => v.as_deref(),
            None => match self.def(name)?.fallback {
                Fallback::Value(v) => Some(v),
                _ => None,
            },
        }
    }

    /// Every value given for a repeatable option, in order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given
            .iter()
            .filter(move |(k, _)| *k == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// `--name`'s value parsed as a `T`.
    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| {
                v.parse().map_err(|_| CliError {
                    message: format!("bad --{name}"),
                })
            })
            .transpose()
    }

    /// `--name` parsed as a `T`, for an option given or defaulted.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.parse(name)?.ok_or_else(|| CliError {
            message: format!("--{name} needs a value"),
        })
    }

    /// `--name` as a count of at least 1, defaulting to the host's cores
    /// where the table says so.
    fn count(&self, name: &str) -> Result<usize, CliError> {
        let n = match self.def(name).map(|d| d.fallback) {
            Some(Fallback::Cores) if !self.has(name) => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            _ => self.get(name)?,
        };
        if n == 0 {
            return err(format!("--{name} must be at least 1"));
        }
        Ok(n)
    }

    /// The first positional argument, or the subcommand's usage error.
    fn target(&self, usage: &str) -> Result<&str, CliError> {
        match self.positional.first() {
            Some(t) => Ok(t),
            None => err(usage),
        }
    }
}

/// The inputs every activity-running subcommand shares: the flag, the
/// implement kit and the seeded configuration.
struct RunSpec {
    spec: FlagSpec,
    flag: PreparedFlag,
    kind: ImplementKind,
    kit: TeamKit,
    seed: u64,
    cfg: ActivityConfig,
}

fn find_flag(name: &str) -> Result<FlagSpec, CliError> {
    library::by_name(name).ok_or_else(|| CliError {
        message: format!(
            "unknown flag {name:?}; available: {}",
            library::all()
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    })
}

/// A fresh team of `size` students, warm-up on.
fn fresh_team(size: usize) -> Vec<StudentProfile> {
    (1..=size)
        .map(|i| StudentProfile::new(format!("P{i}")))
        .collect()
}

/// Resolve `--flag`, `--kind` and `--seed` — the one place they are read.
fn resolve_run(opts: &Opts) -> Result<RunSpec, CliError> {
    let spec = find_flag(&opts.get::<String>("flag")?)?;
    let flag = PreparedFlag::new(&spec);
    let token: String = opts.get("kind")?;
    let kind = ImplementKind::from_token(&token).ok_or_else(|| CliError {
        message: format!("unknown implement kind {token:?}"),
    })?;
    let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
    let seed = opts.get("seed")?;
    Ok(RunSpec {
        spec,
        flag,
        kind,
        kit,
        seed,
        cfg: ActivityConfig::default().with_seed(seed),
    })
}

impl RunSpec {
    /// The built-in scenario `which` names, and its team: `--team`, else
    /// the scenario's coloring team (plus the timer where the table says
    /// so) — the one place `--team` is read.
    fn scenario(&self, opts: &Opts, which: &str) -> Result<(Scenario, usize), CliError> {
        let scenario = Scenario::builtin(which, &self.flag).ok_or_else(|| CliError {
            message: format!(
                "unknown scenario {which:?} (use 1-4, onestripe, fourslice, pipelined, \
                 alternating)"
            ),
        })?;
        let timer = matches!(
            opts.def("team").map(|d| d.fallback),
            Some(Fallback::Team { timer: true })
        );
        let team = if opts.has("team") {
            opts.count("team")?
        } else {
            scenario.team_size(&self.flag, &self.cfg) + usize::from(timer)
        };
        Ok((scenario, team))
    }

    /// Static preflight: the same checks as `flagsim check --static-only`
    /// minus the advisory `SC4xx` checklist, failing only on Error-level
    /// findings. It belongs to the subcommands that declare `--no-check`
    /// to skip it. `team` counts the timer.
    fn preflight(
        &self,
        opts: &Opts,
        scenario: &Scenario,
        team: usize,
        plan: &FaultPlan,
    ) -> Result<(), CliError> {
        if opts.def("no-check").is_none() || opts.has("no-check") {
            return Ok(());
        }
        let report = simcheck::static_report(&simcheck::CheckTarget {
            spec: &self.spec,
            flag: &self.flag,
            scenario,
            kit: &self.kit,
            team_size: team,
            config: &self.cfg,
            plan,
        });
        let (errors, _, _) = report.counts();
        if errors > 0 {
            return err(format!(
                "preflight: {errors} error-level finding(s) — the run cannot work as \
                 configured (re-run with --no-check to try anyway)\n{}",
                report.render_text()
            ));
        }
        Ok(())
    }
}

/// Run `body` with a telemetry collector installed when `--trace-out FILE`
/// was given, then write the recorded Chrome trace to the file. The
/// confirmation note goes to stderr so stdout stays machine-readable.
fn with_optional_trace<T>(
    path: Option<&str>,
    body: impl FnOnce() -> Result<T, CliError>,
) -> Result<T, CliError> {
    let Some(path) = path else {
        return body();
    };
    let collector = flagsim_telemetry::Collector::install();
    let result = body();
    let set = collector.finish();
    if result.is_ok() {
        std::fs::write(path, set.chrome_trace()).map_err(|e| CliError {
            message: format!("cannot write {path}: {e}"),
        })?;
        eprintln!("trace: {} span(s) written to {path}", set.len());
    }
    result
}

fn cmd_flags(_: &Opts) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16}{:>8}{:>8}{:>10}{:>12}",
        "flag", "width", "height", "layers", "layered?"
    );
    for f in library::all() {
        let _ = writeln!(
            out,
            "{:<16}{:>8}{:>8}{:>10}{:>12}",
            f.name,
            f.default_width,
            f.default_height,
            f.layer_count(),
            if f.is_layered() { "yes" } else { "flat" }
        );
    }
    Ok(out)
}

fn parse_size(s: &str) -> Result<(u32, u32), CliError> {
    let Some((w, h)) = s.split_once('x') else {
        return err(format!("bad size {s:?}, expected WxH"));
    };
    let w: u32 = w.parse().map_err(|_| CliError {
        message: format!("bad width {w:?}"),
    })?;
    let h: u32 = h.parse().map_err(|_| CliError {
        message: format!("bad height {h:?}"),
    })?;
    if w == 0 || h == 0 {
        return err("size must be nonzero");
    }
    Ok((w, h))
}

fn cmd_render(opts: &Opts) -> Result<String, CliError> {
    let name = opts.target("usage: flagsim render <flag> [ascii|ansi|ppm] [WxH]")?;
    let flag = find_flag(name)?;
    let mut mode = "ascii";
    let mut size = (flag.default_width, flag.default_height);
    for extra in &opts.positional[1..] {
        match extra.as_str() {
            "ascii" | "ansi" | "ppm" | "svg" => mode = extra,
            s if s.contains('x') => size = parse_size(s)?,
            other => return err(format!("unexpected argument {other:?}")),
        }
    }
    let grid = flag.rasterize_at(size.0, size.1);
    Ok(match mode {
        "ansi" => render::to_ansi(&grid),
        "ppm" => render::to_ppm(&grid),
        "svg" => render::to_svg(&grid, 24),
        _ => format!(
            "{}legend: {}\n",
            render::to_ascii(&grid),
            render::legend(&grid)
        ),
    })
}

fn cmd_slides(opts: &Opts) -> Result<String, CliError> {
    let spec = match opts.positional.first() {
        Some(name) => find_flag(name)?,
        None => library::mauritius(),
    };
    Ok(slides::fig1_deck(&PreparedFlag::new(&spec)))
}

fn cmd_run(opts: &Opts) -> Result<String, CliError> {
    let which = opts.target("usage: flagsim run <SCENARIO> [options]")?;
    let mut run = resolve_run(opts)?;
    let (scenario, size) = run.scenario(opts, which)?;
    run.kit = run.kit.with_count_all(opts.count("markers")?);
    let mut team = fresh_team(size);
    run.preflight(opts, &scenario, size + 1, &FaultPlan::none())?;
    let report = with_optional_trace(opts.value("trace-out"), || {
        scenario
            .run(&run.flag, &mut team, &run.kit, &run.cfg)
            .map_err(|message| CliError { message })
    })?;
    // Human diagnostics go to stderr (PR-3 sweep convention) so stdout
    // stays the machine-readable report.
    if !report.correct {
        eprintln!(
            "run: finished grid does not match {} — wrong flag on the wall",
            report.flag_name
        );
    }
    if report.breakages > 0 {
        eprintln!("run: {} implement breakage(s) during the run", report.breakages);
    }
    let mut out = report.detail();
    if opts.has("gantt") {
        let _ = writeln!(out, "\n{}", report.trace.gantt(72));
    }
    Ok(out)
}

fn parse_policy(s: &str) -> Result<RecoveryPolicy, CliError> {
    if s == "rebalance" {
        return Ok(RecoveryPolicy::Rebalance);
    }
    if s == "abort" {
        return Ok(RecoveryPolicy::AbortAndReport);
    }
    if let Some(d) = s.strip_prefix("spare:") {
        let secs: f64 = d.parse().map_err(|_| CliError {
            message: format!("bad spare delay {d:?}"),
        })?;
        if !secs.is_finite() || secs < 0.0 {
            return err("spare delay must be finite and non-negative");
        }
        return Ok(RecoveryPolicy::SpareSwap {
            replacement_delay_secs: secs,
        });
    }
    err(format!(
        "unknown policy {s:?} (use rebalance, spare:SECS, or abort)"
    ))
}

/// Two processes, two markers, opposite acquisition order: the textbook
/// circular wait. The engine's stall detector catches it and reports the
/// full wait-for graph instead of hanging or panicking.
fn demo_deadlock() -> String {
    use flagsim_desim::{Action, Engine, FnProcess, SimDuration, SimError};
    use std::collections::VecDeque;

    let mut engine = Engine::new();
    let red = engine.add_resource("red marker", SimDuration::ZERO);
    let blue = engine.add_resource("blue marker", SimDuration::ZERO);
    let script = |actions: Vec<Action>| {
        let mut queue: VecDeque<Action> = actions.into();
        move |_now| queue.pop_front().unwrap_or(Action::Done)
    };
    engine.add_process(Box::new(FnProcess::new(
        "grabs-red-then-blue",
        script(vec![
            Action::Acquire(red),
            Action::Work(SimDuration::from_secs_f64(1.0)),
            Action::Acquire(blue),
        ]),
    )));
    engine.add_process(Box::new(FnProcess::new(
        "grabs-blue-then-red",
        script(vec![
            Action::Acquire(blue),
            Action::Work(SimDuration::from_secs_f64(1.0)),
            Action::Acquire(red),
        ]),
    )));
    let mut out = String::from(
        "Two students, two markers, opposite grab order — the classic\n\
         circular wait. Instead of hanging, the engine reports:\n\n",
    );
    match engine.try_run() {
        Err(SimError::Stalled { waiters }) => {
            let _ = writeln!(out, "error: {}", SimError::Stalled { waiters: waiters.clone() });
            let _ = writeln!(
                out,
                "\nEvery blocked student appears with what they hold and what\n\
                 they wait for — enough to see the cycle and pick a victim."
            );
            debug_assert!(!waiters.is_empty());
        }
        Err(other) => {
            let _ = writeln!(out, "unexpected error: {other}");
        }
        Ok(_) => {
            let _ = writeln!(out, "unexpectedly completed (engine bug?)");
        }
    }
    out
}

fn cmd_faults(opts: &Opts) -> Result<String, CliError> {
    if opts.has("demo-deadlock") {
        return Ok(demo_deadlock());
    }
    let which = opts.target(
        "usage: flagsim faults <1|2|3|4|pipelined|alternating> (--plan SPEC | --random) \
         [--policy P] [options], or flagsim faults --demo-deadlock",
    )?;
    let run = resolve_run(opts)?;
    let (scenario, size) = run.scenario(opts, which)?;
    let mut plan = match (opts.value("plan"), opts.has("random")) {
        (Some(spec), false) => {
            FaultPlan::parse(spec, "cli plan").map_err(|message| CliError { message })?
        }
        (None, true) => FaultPlan::random(run.seed, size, &run.flag.colors_needed(&[])),
        (Some(_), true) => return err("--plan and --random are mutually exclusive"),
        (None, false) => return err("faults needs --plan SPEC or --random"),
    };
    if let Some(p) = opts.value("policy") {
        plan = plan.with_policy(parse_policy(p)?);
    }
    let mut team = fresh_team(size);
    run.preflight(opts, &scenario, size + 1, &plan)?;
    let report = with_optional_trace(opts.value("trace-out"), || {
        scenario
            .compile(&run.flag, &run.cfg)
            .and_then(|compiled| {
                compiled
                    .run_scheduled(&mut team, &run.kit, &run.cfg, &plan, None)?
                    .into_report()
            })
            .map_err(|message| CliError { message })
    })?;
    // Measurements on stdout; the blow-by-blow incident narrative is
    // human diagnostics and goes to stderr (PR-3 sweep convention), so
    // `flagsim faults ... > results.txt` stays machine-readable.
    let mut out = report.detail_core();
    if let Some(res) = &report.resilience {
        out.push_str(&res.summary());
        eprint!("{}", res.narrative());
    }
    Ok(out)
}

/// Apply `--log-level` to the structured logger.
fn set_log_level(opts: &Opts) -> Result<(), CliError> {
    if let Some(level) = opts.value("log-level") {
        let parsed =
            flagsim_telemetry::Level::parse(level).map_err(|message| CliError { message })?;
        flagsim_telemetry::log::set_level(parsed);
    }
    Ok(())
}

/// `flagsim sweep` — the measurement campaign front door: run a scenario
/// across many seeds on `--jobs` worker threads and print the summary
/// statistics. The job count never changes the numbers, only the
/// wall-clock time. No report is kept: the table needs 16 B per rep.
fn cmd_sweep(opts: &Opts) -> Result<String, CliError> {
    use flagsim_core::sweep::SweepRunner;

    set_log_level(opts)?;
    // Any distribution/durability/observability flag routes through the
    // shard coordinator (which also runs plain in-process sweeps, so
    // `--checkpoint` alone works without any workers).
    if [
        "workers", "connect", "checkpoint", "checkpoint-every", "resume", "max-wall-secs",
        "obs-out", "obs-serve",
    ]
    .iter()
    .any(|k| opts.has(k))
    {
        return cmd_sweep_shard(opts);
    }
    let which = opts.target(
        "usage: flagsim sweep <SCENARIO> [--reps M] [--jobs N] \
         [--flag NAME] [--kind KIND] [--seed N] [--team N] [--warmup] \
         [--progress] [--dashboard] [--trace-out FILE] [--log-level LEVEL]",
    )?;
    let run = resolve_run(opts)?;
    let (scenario, team) = run.scenario(opts, which)?;
    let reps = opts.count("reps")? as u64;
    let jobs = opts.count("jobs")?;
    let dashboard = opts.has("dashboard");
    let trace_out = opts.value("trace-out");
    run.preflight(opts, &scenario, team + 1, &FaultPlan::none())?;
    let mut runner = SweepRunner::new(&scenario, &run.flag, &run.kit, &run.cfg)
        .team_size(team)
        .warmup(opts.has("warmup"))
        .reps(reps)
        .jobs(jobs)
        .retain_reports(false);
    // Both the trace file and the dashboard's live mean/CI gauges need a
    // telemetry collector; the global slot is generation-guarded, so
    // install exactly one and share it.
    let collector =
        (dashboard || trace_out.is_some()).then(flagsim_telemetry::Collector::install);
    let dash = match (&collector, dashboard) {
        (Some(c), true) => Some(std::sync::Arc::new(crate::dashboard::Dashboard::new(
            jobs,
            reps,
            c.metrics(),
        ))),
        _ => None,
    };
    if let Some(d) = &dash {
        let d = std::sync::Arc::clone(d);
        runner = runner.on_progress(move |p| d.update(p));
    } else if opts.has("progress") {
        let step = (reps / 10).max(1);
        runner = runner.on_progress(move |p| {
            if p.completed % step == 0 || p.completed == p.total {
                eprintln!("sweep: {}/{} rep(s) done, {} failed", p.completed, p.total, p.failed);
            }
        });
    }
    let result = runner.run().map_err(|e| CliError {
        message: e.to_string(),
    });
    if let Some(d) = &dash {
        d.finish();
    }
    if let Some(c) = collector {
        let set = c.finish();
        if result.is_ok() {
            if let Some(path) = trace_out {
                std::fs::write(path, set.chrome_trace()).map_err(|e| CliError {
                    message: format!("cannot write {path}: {e}"),
                })?;
                eprintln!("trace: {} span(s) written to {path}", set.len());
            }
        }
    }
    let header = format!(
        "{} — {}, {} rep(s), {} job(s), seed {}",
        scenario.name, run.spec.name, reps, jobs, run.seed,
    );
    Ok(sweep_summary(header, &result?, |line| eprintln!("{line}")))
}

/// What every completed sweep prints, in-process or sharded: `header`,
/// the statistics table and the mean ± CI line (returned for stdout),
/// and the first failure, if any, through `warn` — stderr, or above a
/// live dashboard — so `flagsim sweep ... > results.txt` stays
/// machine-readable.
fn sweep_summary(
    header: String,
    result: &flagsim_core::sweep::SweepResult,
    warn: impl Fn(&str),
) -> String {
    if let Some(first) = result.failures.first() {
        warn(&format!(
            "sweep: {} repetition(s) failed; first: rep {}: {}",
            result.failures.len(),
            first.rep,
            first.error
        ));
    }
    let mut out = header;
    let _ = writeln!(
        out,
        "\n\n{:<12}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "metric", "n", "mean s", "stddev", "min", "median", "max"
    );
    for (label, s) in [("completion", &result.completion), ("waiting", &result.waiting)] {
        let _ = writeln!(
            out,
            "{:<12}{:>6}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}",
            label, s.n, s.mean, s.stddev, s.min, s.median, s.max
        );
    }
    let _ = writeln!(
        out,
        "\ncompletion {} (mean ± 95% CI)",
        result.completion.display_secs()
    );
    out
}

/// `flagsim sweep` with distribution/durability flags: run the campaign
/// through the shard coordinator. Handles `--workers N` (spawn local
/// worker processes), `--connect ADDR` (use an existing cluster),
/// `--checkpoint`/`--checkpoint-every`/`--resume` (durable progress),
/// and `--max-wall-secs` (soft deadline → checkpoint + exit code 3).
/// Statistics are bit-for-bit identical to the in-process sweep at any
/// worker count.
fn cmd_sweep_shard(opts: &Opts) -> Result<String, CliError> {
    use flagsim_shard::{
        run_sweep, Checkpoint, CoordinatorConfig, JobSpec, LeaseConfig, ShardOutcome,
    };

    // The job: from the checkpoint on --resume (its spec is the source
    // of truth — the fingerprint guards against splicing campaigns), or
    // from the command line.
    let resume = match opts.value("resume") {
        Some(path) => Some(
            Checkpoint::load(std::path::Path::new(path)).map_err(|message| CliError { message })?,
        ),
        None => None,
    };
    let job = match &resume {
        Some(ck) => ck.job.clone(),
        None => {
            let which = opts.target(
                "usage: flagsim sweep <SCENARIO> [--workers N | --connect ADDR,..] \
                 [--checkpoint FILE] [--checkpoint-every K] [--resume FILE] \
                 [--max-wall-secs S] [--reps M] [--jobs N] [--flag NAME] [--kind KIND] \
                 [--seed N] [--team N] [--warmup] [--dashboard] [--trace-out FILE] \
                 [--trace-sample N] [--obs-out FILE] [--log-level LEVEL]",
            )?;
            let run = resolve_run(opts)?;
            let (_, team) = run.scenario(opts, which)?;
            JobSpec {
                scenario: which.to_owned(),
                flag: run.spec.name,
                kind: opts.get("kind")?,
                seed: run.seed,
                reps: opts.count("reps")? as u64,
                team,
                warmup: opts.has("warmup"),
            }
        }
    };
    // One validation point for both paths; also names the scenario for
    // the summary header.
    let mat = job.materialize().map_err(|message| CliError { message })?;

    let mut endpoints: Vec<String> = Vec::new();
    for value in opts.values("connect") {
        for part in value.split(',').filter(|p| !p.is_empty()) {
            part.parse::<std::net::SocketAddr>().map_err(|_| CliError {
                message: format!("bad --connect address {part:?} (want host:port)"),
            })?;
            endpoints.push(part.to_owned());
        }
    }
    if opts.has("connect") && endpoints.is_empty() {
        return err("--connect got no usable address");
    }
    let workers = opts
        .has("workers")
        .then(|| opts.count("workers"))
        .transpose()?;
    let jobs = opts.count("jobs")?;
    let checkpoint_every = opts.count("checkpoint-every")? as u64;
    let chunk = opts.count("chunk")? as u64;
    let max_wall = match opts.parse::<f64>("max-wall-secs")? {
        Some(secs) => {
            if !secs.is_finite() || secs < 0.0 {
                return err("--max-wall-secs must be finite and non-negative");
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
        None => None,
    };
    let policy = parse_policy(&opts.get::<String>("policy")?)?;
    // Resuming keeps checkpointing to the resume file unless overridden,
    // so a twice-killed sweep stays resumable.
    let checkpoint_path = opts
        .value("checkpoint")
        .or_else(|| opts.value("resume"))
        .map(std::path::PathBuf::from);

    let mut children = Vec::new();
    if let Some(n) = workers {
        let (spawned, procs) = spawn_local_workers(n)?;
        endpoints.extend(spawned);
        children = procs;
    }
    let worker_count = endpoints.len();

    let dashboard = opts.has("dashboard");
    let trace_out = opts.value("trace-out");
    let obs_out = opts.value("obs-out");
    // 0 = auto: the coordinator aims for ~256 instrumented reps per
    // campaign so shipping cost stays bounded on huge sweeps.
    let trace_sample: u64 = opts.get("trace-sample")?;
    // Trace file and dashboard both need the telemetry collector; the
    // global slot is generation-guarded, so install exactly one. The
    // fleet hub is independent of the collector (it only powers the
    // dashboard rows and the --obs-out dump) and is cheap, so it is
    // always on for sharded runs.
    let collector =
        (dashboard || trace_out.is_some()).then(flagsim_telemetry::Collector::install);
    let hub = flagsim_shard::ObsHub::new();

    let cfg = CoordinatorConfig {
        endpoints,
        local_jobs: jobs,
        checkpoint_path,
        checkpoint_every,
        resume,
        max_wall,
        lease: LeaseConfig { chunk, policy, ..LeaseConfig::default() },
        halt_after_reps: None,
        quiet: false,
        obs: Some(hub.clone()),
        trace_sample,
    };

    let started = std::time::Instant::now();
    // `--obs-serve ADDR`: push fleet snapshots to attached watchers
    // (`flagsim watch --connect`). Strictly one-way — the server never
    // parses client bytes, so a watcher cannot touch the merge path.
    let obs_server = match opts.value("obs-serve") {
        Some(addr) => {
            let t0 = started;
            let server = flagsim_shard::ObsServer::start(hub.clone(), addr, 250, move || {
                t0.elapsed().as_millis() as u64
            })
            .map_err(|e| CliError {
                message: format!("cannot serve observability on {addr}: {e}"),
            })?;
            eprintln!("obs: serving fleet snapshots on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let dash = match (&collector, dashboard) {
        (Some(c), true) => Some(std::sync::Arc::new(crate::dashboard::Dashboard::new(
            worker_count.max(1),
            job.reps,
            c.metrics(),
        ))),
        _ => None,
    };
    // Structured logs print *above* the live panel so interleaved
    // output never shears the frame.
    if let Some(d) = &dash {
        let d = std::sync::Arc::clone(d);
        flagsim_telemetry::log::set_sink(Some(Box::new(move |rec| {
            d.println_above(&rec.render());
        })));
    }
    let poller = dash.as_ref().map(|d| {
        let d = std::sync::Arc::clone(d);
        let hub = hub.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                let now = started.elapsed().as_millis() as u64;
                let (merged, failed, rows) =
                    hub.with(|fv| (fv.merged, fv.failed, fleet_rows(fv, now)));
                d.update_fleet(merged, failed, &rows);
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
        });
        (stop, handle)
    });

    let outcome = run_sweep(&job, &cfg).map_err(|message| CliError { message });

    if let Some(mut server) = obs_server {
        server.stop(); // closes watcher connections: their cue to exit
    }
    if let Some((stop, handle)) = poller {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handle.join().ok();
    }
    if dash.is_some() {
        flagsim_telemetry::log::set_sink(None);
    }
    if let Some(d) = &dash {
        d.finish();
    }
    // A dashboard-aware stderr writer: while the panel is live, lines
    // scroll out above it instead of shearing the frame.
    let emit = |line: &str| match &dash {
        Some(d) => d.println_above(line),
        None => eprintln!("{line}"),
    };
    if let Some(c) = collector {
        let set = c.finish();
        if outcome.is_ok() {
            if let Some(path) = trace_out {
                let trace = set.chrome_trace();
                // The merged multi-process trace is validated before it
                // lands on disk: a malformed trace here is a bug worth
                // failing loudly on, not something to hand to a viewer.
                flagsim_telemetry::json::validate_chrome_trace(&trace).map_err(|e| CliError {
                    message: format!("merged trace failed validation: {e}"),
                })?;
                std::fs::write(path, trace).map_err(|e| CliError {
                    message: format!("cannot write {path}: {e}"),
                })?;
                emit(&format!("trace: {} span(s) written to {path}", set.len()));
            }
        }
    }
    if outcome.is_ok() {
        if let Some(path) = obs_out {
            let now = started.elapsed().as_millis() as u64;
            std::fs::write(path, hub.snapshot_json(now)).map_err(|e| CliError {
                message: format!("cannot write {path}: {e}"),
            })?;
            emit(&format!("fleet: observability snapshot written to {path}"));
        }
    }
    // Spawned workers are `--once`: a clean shutdown already ended them,
    // and kill() on an exited child is a harmless no-op. Always reap.
    for child in &mut children {
        child.kill().ok();
        child.wait().ok();
    }
    match outcome? {
        ShardOutcome::Completed(r) => {
            let header = format!(
                "{} — {}, {} rep(s), {} worker(s), {} job(s), seed {}, sharded",
                mat.scenario.name, mat.spec.name, job.reps, worker_count, jobs, job.seed,
            );
            Ok(sweep_summary(header, &r, emit))
        }
        ShardOutcome::DeadlineExpired { merged, total, checkpoint } => {
            let hint = match checkpoint {
                Some(path) => format!(
                    "; resume with: flagsim sweep --resume {}",
                    path.display()
                ),
                None => "; add --checkpoint FILE to make expiry resumable".to_owned(),
            };
            // The "soft deadline" prefix selects exit code 3.
            err(format!(
                "soft deadline expired with {merged}/{total} rep(s) merged{hint}"
            ))
        }
        ShardOutcome::Halted { merged } => {
            err(format!("sweep halted unexpectedly at {merged} rep(s)"))
        }
    }
}

/// Render a [`FleetView`](flagsim_shard::FleetView) snapshot down to
/// the dashboard's per-worker rows.
fn fleet_rows(fv: &flagsim_shard::FleetView, now_ms: u64) -> Vec<crate::dashboard::FleetRow> {
    fv.workers()
        .map(|w| crate::dashboard::FleetRow {
            name: w.name.clone(),
            connected: w.connected,
            reps_done: w.reps_done,
            reps_per_sec: w.reps_per_sec(),
            heartbeat_age_ms: w.silence_ms(now_ms),
            reconnects: w.reconnects,
            shipped: w.shipped_frames,
            dropped: w.dropped_records,
            spark: w.series.points().map(|(_, v)| v).collect(),
        })
        .collect()
}

/// Spawn `n` `flagsim worker --once` child processes on ephemeral
/// loopback ports; each prints its bound address on stdout, which is
/// how the coordinator learns where to connect.
fn spawn_local_workers(
    n: usize,
) -> Result<(Vec<String>, Vec<std::process::Child>), CliError> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe().map_err(|e| CliError {
        message: format!("cannot locate own executable to spawn workers: {e}"),
    })?;
    let mut endpoints = Vec::new();
    let mut children = Vec::new();
    for i in 0..n {
        let mut child = std::process::Command::new(&exe)
            .args([
                "worker",
                "--listen",
                "127.0.0.1:0",
                "--once",
                "--quiet",
                "--name",
            ])
            .arg(format!("local-{i}"))
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| CliError { message: format!("cannot spawn worker {i}: {e}") })?;
        let stdout = child.stdout.take().ok_or_else(|| CliError {
            message: format!("worker {i} has no stdout"),
        })?;
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| CliError { message: format!("worker {i} said nothing: {e}") })?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.parse::<std::net::SocketAddr>().is_ok())
            .ok_or_else(|| CliError {
                message: format!("worker {i} printed no listen address (got {line:?})"),
            })?;
        endpoints.push(addr.to_owned());
        children.push(child);
    }
    Ok((endpoints, children))
}

/// `flagsim worker` — serve sweep repetitions to a coordinator. Binds
/// `--listen ADDR` (port 0 picks an ephemeral port), prints the bound
/// address on stdout, and answers `hello`/`lease` frames until the
/// coordinator shuts the session down (`--once`) or forever.
fn cmd_worker(opts: &Opts) -> Result<String, CliError> {
    let Some(addr) = opts.value("listen") else {
        return err(
            "usage: flagsim worker --listen ADDR [--once] [--quiet] [--name NAME] \
             [--log-level LEVEL]",
        );
    };
    set_log_level(opts)?;
    let listener = std::net::TcpListener::bind(addr).map_err(|e| CliError {
        message: format!("cannot listen on {addr}: {e}"),
    })?;
    let local = listener.local_addr().map_err(|e| CliError {
        message: format!("cannot resolve bound address: {e}"),
    })?;
    // Printed (and flushed) before serving: a spawning coordinator
    // parses this line to learn the ephemeral port.
    println!("worker: listening on {local}");
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let worker_opts = flagsim_shard::WorkerOptions {
        once: opts.has("once"),
        name: opts
            .value("name")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        quiet: opts.has("quiet"),
        drop_telemetry_every: 0,
    };
    flagsim_shard::serve(&listener, &worker_opts).map_err(|e| CliError {
        message: format!("worker failed: {e}"),
    })?;
    Ok(String::new())
}

/// `flagsim explain` — run a scenario once, deterministically, and show
/// *why* it took as long as it did: the executed critical path overlaid
/// on the gantt, the per-marker contention blame table, and the what-if
/// bounds (infinite implements, zero warmup, perfect balance),
/// cross-checked against the trace-derived task graph's span.
/// `--format json` emits the same analysis machine-readably.
fn cmd_explain(opts: &Opts) -> Result<String, CliError> {
    let which = opts.target(
        "usage: flagsim explain <SCENARIO> [--format text|json] [--flag NAME] \
         [--kind KIND] [--seed N] [--team N] [--jobs N]",
    )?;
    let run = resolve_run(opts)?;
    let (scenario, team) = run.scenario(opts, which)?;
    let jobs = opts.count("jobs")?;
    let explanation = flagsim_core::explain::explain_scenario(
        &scenario, &run.flag, &run.kit, &run.cfg, team, jobs,
    )
    .map_err(|message| CliError { message })?;
    match opts.value("format").unwrap_or_default() {
        "text" => Ok(explanation.render_text(72)),
        "json" => Ok(explanation.to_json()),
        other => err(format!("unknown format {other:?} (use text or json)")),
    }
}

/// `flagsim profile` — run a scenario sweep under an installed telemetry
/// collector and export what the simulator did: Chrome `trace_event`
/// JSON (load it in `chrome://tracing` or Perfetto), collapsed
/// flamegraph stacks, or an aggregated self-time table. `--metrics`
/// appends the metrics registry in text exposition.
fn cmd_profile(opts: &Opts) -> Result<String, CliError> {
    use flagsim_core::sweep::SweepRunner;

    let which = opts.target(
        "usage: flagsim profile <SCENARIO> [--out FILE] \
         [--format chrome|folded|table] [--metrics] [--reps M] [--jobs N] \
         [--flag NAME] [--kind KIND] [--seed N]",
    )?;
    let format = opts.value("format").unwrap_or_default();
    if !matches!(format, "chrome" | "folded" | "table") {
        return err(format!(
            "unknown format {format:?} (use chrome, folded, or table)"
        ));
    }
    let run = resolve_run(opts)?;
    let (scenario, team) = run.scenario(opts, which)?;
    let reps = opts.count("reps")? as u64;
    let jobs = opts.count("jobs")?;
    let runner = SweepRunner::new(&scenario, &run.flag, &run.kit, &run.cfg)
        .team_size(team)
        .reps(reps)
        .jobs(jobs)
        .retain_reports(false);
    let collector = flagsim_telemetry::Collector::install();
    let metrics = collector.metrics();
    let run_result = runner.run();
    // Always finish the collector (disabling telemetry) before surfacing
    // any sweep error.
    let set = collector.finish();
    run_result.map_err(|e| CliError {
        message: e.to_string(),
    })?;
    let rendered = match format {
        "folded" => set.folded_stacks(),
        "table" => set.self_time_table(),
        _ => set.chrome_trace(),
    };
    let mut out = String::new();
    match opts.value("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| CliError {
                message: format!("cannot write {path}: {e}"),
            })?;
            let _ = writeln!(
                out,
                "profile: {} — {} rep(s), {} job(s); {} span(s) written to {path} ({format})",
                scenario.name,
                reps,
                jobs,
                set.len()
            );
        }
        None => out.push_str(&rendered),
    }
    if opts.has("metrics") {
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("\n--- metrics ---\n");
        out.push_str(&metrics.render_text());
    }
    Ok(out)
}

fn cmd_session(opts: &Opts) -> Result<String, CliError> {
    let seed = opts.get("seed")?;
    let mut session = ClassroomSession::new(
        &library::mauritius(),
        ActivityConfig::default().with_seed(seed),
    );
    session.add_team("Daubers", 5, ImplementKind::BingoDauber);
    session.add_team("ThickMk", 5, ImplementKind::ThickMarker);
    session.add_team("ThinMk", 5, ImplementKind::ThinMarker);
    let all = session
        .run_core_activity(opts.has("repeat"))
        .map_err(|message| CliError { message })?;
    let mut out = session.board_table();
    // The debrief: lessons for team 2 (thick markers) plus the hardware
    // lesson across teams.
    let team_runs: Vec<_> = all.iter().map(|runs| runs[1].clone()).collect();
    let lessons = discussion::detect_lessons(&team_runs);
    let _ = write!(out, "\n{}", discussion::discussion_handout(&lessons));
    let scenario1: Vec<(String, _)> = session
        .teams()
        .iter()
        .zip(&all[0])
        .map(|(t, r)| (t.name.clone(), r.clone()))
        .collect();
    if let Some(hw) = discussion::detect_hardware_lesson(&scenario1) {
        let _ = writeln!(out, "{}. {} — {}", lessons.len() + 1, hw.concept.name(), hw.evidence);
    }
    Ok(out)
}

/// Parse `--deny LEVEL` / `--allow IDS` / `--format F` shared by `check`
/// and `lint`.
fn parse_diag_opts(opts: &Opts) -> Result<(simcheck::Severity, Vec<String>, String), CliError> {
    let deny_name = opts.value("deny").unwrap_or_default();
    let Some(deny) = simcheck::Severity::parse(deny_name) else {
        return err(format!(
            "unknown --deny level {deny_name:?} (use note, warning, or error)"
        ));
    };
    let allow: Vec<String> = opts
        .value("allow")
        .map(|s| s.split(',').map(|a| a.trim().to_owned()).collect())
        .unwrap_or_default();
    let format = opts.value("format").unwrap_or_default();
    if !matches!(format, "text" | "json") {
        return err(format!("unknown format {format:?} (use text or json)"));
    }
    Ok((deny, allow, format.to_owned()))
}

/// Render a finished report and enforce `--deny`: the report is always
/// the command's stdout output; when it trips the deny level it is
/// printed here and the command fails (nonzero exit) with a short
/// summary on stderr.
fn finish_report(
    mut report: simcheck::Report,
    deny: simcheck::Severity,
    allow: &[String],
    format: &str,
) -> Result<String, CliError> {
    report.allow(allow);
    report.sort();
    let rendered = match format {
        "json" => {
            let mut j = report.to_json();
            j.push('\n');
            j
        }
        _ => report.render_text(),
    };
    if report.denies(deny) {
        print!("{rendered}");
        return err(format!(
            "check failed for {}: {}",
            report.target,
            report.summary()
        ));
    }
    Ok(rendered)
}

/// `flagsim check` — the static analyzer front door. The positional
/// argument picks the target: a scenario (full static checks, the §IV
/// advice, and — unless `--static-only` — one deterministic run for the
/// happens-before race analysis), a library flag (spec lints), a fault
/// plan string (plan validation), or `demo-deadlock` (the lock-order
/// cycle the drill is built to have).
fn cmd_check(opts: &Opts) -> Result<String, CliError> {
    use flagsim_core::sweep::SweepRunner;

    let what = opts.target(
        "usage: flagsim check <SCENARIO|FLAG|PLAN|demo-deadlock> \
         [--format text|json] [--deny note|warning|error] [--allow IDS] \
         [--static-only] [--flag NAME] [--kind KIND] [--team N] [--seed N] \
         [--jobs N] [--plan SPEC] [--policy P] [--no-check is for run/sweep/faults]",
    )?;
    let (deny, allow, format) = parse_diag_opts(opts)?;

    // Target: the demo-deadlock drill — purely static.
    if what == "demo-deadlock" {
        let graph = simcheck::LockOrderGraph::build(&simcheck::demo_deadlock_seqs());
        let mut report = simcheck::Report::new("demo-deadlock drill");
        report.extend(graph.diags());
        return finish_report(report, deny, &allow, &format);
    }

    // Target: a library flag — spec lints only. (No flag is named like a
    // scenario token, so this cannot shadow the scenario branch.)
    if let Some(spec) = library::by_name(what) {
        let mut report = simcheck::Report::new(format!("flag {}", spec.name));
        report.extend(simcheck::check_flag_spec(
            &spec,
            spec.default_width,
            spec.default_height,
        ));
        return finish_report(report, deny, &allow, &format);
    }

    let run = resolve_run(opts)?;
    let mut plan = match opts.value("plan") {
        Some(s) => FaultPlan::parse(s, "cli plan").map_err(|message| CliError { message })?,
        None => FaultPlan::none(),
    };
    if let Some(p) = opts.value("policy") {
        plan = plan.with_policy(parse_policy(p)?);
    }

    // Target: a bare fault-plan string — validate it against the team
    // and colors the options describe (defaults: scenario 4's four
    // coloring students on Mauritius). Scenario tokens contain neither
    // ':' nor '@', so this cannot shadow the scenario branch either.
    if what.contains(':') || what.contains('@') {
        let mut plan =
            FaultPlan::parse(what, "cli plan").map_err(|message| CliError { message })?;
        if let Some(p) = opts.value("policy") {
            plan = plan.with_policy(parse_policy(p)?);
        }
        // Here `--team` counts coloring students only, with no timer.
        let coloring: usize = opts.parse("team")?.unwrap_or(4);
        let mut report = simcheck::Report::new(format!("fault plan {what:?}"));
        report.extend(simcheck::check_fault_plan(
            &plan,
            coloring,
            &run.flag.colors_needed(&run.cfg.skip_colors),
            &run.kit,
        ));
        return finish_report(report, deny, &allow, &format);
    }

    // Target: a scenario — the full battery.
    let (scenario, team) = run.scenario(opts, what)?;
    let target = simcheck::CheckTarget {
        spec: &run.spec,
        flag: &run.flag,
        scenario: &scenario,
        kit: &run.kit,
        team_size: team,
        config: &run.cfg,
        plan: &plan,
    };
    let mut report = simcheck::full_report(&target);
    if !opts.has("static-only") {
        // One deterministic repetition through the sweep runner: rep 0
        // derives the same seed on any job count, so `--jobs` can never
        // change the findings (asserted byte-for-byte in the tests).
        let jobs = opts.count("jobs")?;
        // Chatter to stderr: stdout is the report.
        eprintln!(
            "check: running {} once (seed {}) for happens-before analysis",
            scenario.name, run.seed
        );
        let observed = SweepRunner::new(&scenario, &run.flag, &run.kit, &run.cfg)
            .team_size(scenario.team_size(&run.flag, &run.cfg).min(team))
            .reps(1)
            .jobs(jobs)
            .plan(&plan)
            .retain_reports(true)
            .run();
        match observed {
            Ok(result) if !result.reports.is_empty() => {
                report.extend(simcheck::check_run(&result.reports[0]).diags());
                report.sort();
            }
            Ok(_) | Err(_) => {
                eprintln!(
                    "check: the observation run failed — static findings only \
                     (they usually explain why)"
                );
            }
        }
    }
    finish_report(report, deny, &allow, &format)
}

/// `flagsim lint` — flag-spec lints for a library flag or a custom flag
/// file, through the same diagnostics framework as `check`.
fn cmd_lint(opts: &Opts) -> Result<String, CliError> {
    let name = opts.target(
        "usage: flagsim lint <flag|file> [--size WxH] [--format text|json] \
         [--deny note|warning|error] [--allow IDS]",
    )?;
    let (deny, allow, format) = parse_diag_opts(opts)?;
    let spec = match library::by_name(name) {
        Some(spec) => spec,
        None => {
            let text = std::fs::read_to_string(name).map_err(|e| CliError {
                message: format!("{name:?} is not a library flag and cannot be read: {e}"),
            })?;
            flagsim_flags::parse(&text).map_err(|e| CliError {
                message: e.to_string(),
            })?
        }
    };
    let (w, h) = match opts.value("size") {
        Some(s) => parse_size(s)?,
        None => (spec.default_width, spec.default_height),
    };
    let mut report = simcheck::Report::new(format!("flag {} at {w}x{h}", spec.name));
    report.extend(simcheck::from_flag_lints(&flagsim_flags::lint_at(&spec, w, h)));
    finish_report(report, deny, &allow, &format)
}

/// `flagsim verify` — the bounded model checker. Where `check` analyzes
/// one observed run, `verify` explores *every* resolution of the
/// engine's scheduler ties (equal-time wakeups, acquire-order ties) with
/// sleep-set partial-order reduction, then reports either outcome
/// invariance (SC412) or a minimal divergent witness pair (SC410). The
/// `demo-deadlock` target re-proves the SC204 lock-order cycle
/// dynamically: a concrete schedule that reaches the stall (SC411),
/// cross-checked against the live wait-for graph.
fn cmd_verify(opts: &Opts) -> Result<String, CliError> {
    let what = opts.target(
        "usage: flagsim verify <SCENARIO|demo-deadlock> [--flag NAME] [--kind KIND] \
         [--seed N] [--max-schedules N] [--naive] [--format text|json] \
         [--deny note|warning|error] [--allow IDS] [--witness-out PREFIX]",
    )?;
    let (deny, allow, format) = parse_diag_opts(opts)?;
    let max_schedules = opts.count("max-schedules")?;
    let explore_cfg = simcheck::ExploreConfig {
        max_schedules,
        naive: opts.has("naive"),
    };

    // Target: the demo-deadlock drill — the static SC204 cycle plus a
    // live exploration proving a schedule actually reaches the stall.
    if what == "demo-deadlock" {
        let graph = simcheck::LockOrderGraph::build(&simcheck::demo_deadlock_seqs());
        let cycles = graph.cycles();
        let ex = simcheck::explore_engine(simcheck::demo_deadlock_engine, &explore_cfg)
            .map_err(|message| CliError { message })?;
        eprintln!(
            "verify: demo-deadlock drill — {} schedule(s) explored, {} outcome class(es)",
            ex.schedules_run,
            ex.outcomes.len()
        );
        let mut report = simcheck::Report::new("demo-deadlock drill (schedule space)");
        for mut d in graph.diags() {
            if let Some(class) = ex.deadlock() {
                if let simcheck::Outcome::Stalled { graph: wfg, .. } = &class.outcome {
                    if simcheck::deadlock_matches_cycle(wfg, &cycles) {
                        d = d.with_detail(format!(
                            "dynamically confirmed: schedule {} reaches exactly this \
                             deadlock (see SC411)",
                            simcheck::format_script(&class.schedule)
                        ));
                    }
                }
            }
            report.push(d);
        }
        report.extend(simcheck::verify_diags(&ex));
        return finish_report(report, deny, &allow, &format);
    }

    // Target: a scenario — explore its full schedule space.
    let run = resolve_run(opts)?;
    let (scenario, _) = run.scenario(opts, what)?;
    let (kit, cfg, seed) = (&run.kit, &run.cfg, run.seed);
    let compiled = scenario
        .compile(&run.flag, cfg)
        .map_err(|message| CliError { message })?;
    eprintln!(
        "verify: exploring {} on {} (seed {seed}, bound {max_schedules}{})",
        scenario.name,
        run.spec.name,
        if explore_cfg.naive { ", naive" } else { "" }
    );
    let ax = simcheck::explore_activity(&compiled, kit, cfg, &explore_cfg)
        .map_err(|message| CliError { message })?;
    let ex = &ax.exploration;
    eprintln!(
        "verify: {} schedule(s) run, {} outcome class(es), {} choice state(s), \
         {} sleep-pruned, {} state-hash-pruned",
        ex.schedules_run,
        ex.outcomes.len(),
        ex.visited_states,
        ex.pruned_sleep,
        ex.pruned_visited
    );
    let mut report = simcheck::Report::new(format!(
        "verify {} on {} (seed {seed})",
        scenario.name, run.spec.name
    ));
    report.extend(simcheck::verify_diags(ex));
    report.extend(simcheck::annotate_ties(&ax.ties, ex));
    if let Some(prefix) = opts.value("witness-out") {
        match &ex.witness {
            Some(w) => write_witness_traces(&compiled, kit, cfg, w, prefix)?,
            None => eprintln!(
                "verify: no witness to write — every explored schedule converges"
            ),
        }
    }
    finish_report(report, deny, &allow, &format)
}

/// Replay both sides of a witness pair with trace events on and write
/// each as a Chrome trace (`PREFIX-a.json`, `PREFIX-b.json`) that
/// `flagsim watch --trace` can scrub through.
fn write_witness_traces(
    compiled: &flagsim_core::scenario::CompiledScenario,
    kit: &TeamKit,
    cfg: &ActivityConfig,
    w: &simcheck::WitnessPair,
    prefix: &str,
) -> Result<(), CliError> {
    use flagsim_core::ActivityOutcome;
    for (suffix, script) in [("a", &w.baseline), ("b", &w.divergent)] {
        let mut team = simcheck::explore::scenario_team(compiled);
        let (policy, _log) = flagsim_desim::ForcedSchedule::new(script.clone());
        let outcome = compiled
            .run_scheduled(&mut team, kit, cfg, &FaultPlan::none(), Some(policy))
            .map_err(|message| CliError { message })?;
        let path = format!("{prefix}-{suffix}.json");
        match outcome {
            ActivityOutcome::Completed(report) => {
                std::fs::write(&path, report.trace.chrome_trace()).map_err(|e| CliError {
                    message: format!("cannot write {path}: {e}"),
                })?;
                eprintln!(
                    "verify: witness {} (schedule {}) written to {path} — open with \
                     `flagsim watch --trace {path}`",
                    suffix.to_uppercase(),
                    simcheck::format_script(script)
                );
            }
            ActivityOutcome::Stalled(g) => {
                eprintln!(
                    "verify: witness {} (schedule {}) stalls at t={}ms — no trace to write",
                    suffix.to_uppercase(),
                    simcheck::format_script(script),
                    g.at.millis()
                );
            }
        }
    }
    Ok(())
}

fn cmd_graph(opts: &Opts) -> Result<String, CliError> {
    let spec = find_flag(opts.target("usage: flagsim graph <flag> [--procs N]")?)?;
    let procs = opts.count("procs")?;
    let g = layered::flag_taskgraph(&spec, 2000);
    let mut out = g.to_dot(&spec.name);
    let (path, span) = analysis::critical_path(&g);
    let _ = writeln!(
        out,
        "work {:.0}s  span {:.0}s  parallelism {:.2}",
        analysis::work(&g) as f64 / 1000.0,
        span as f64 / 1000.0,
        analysis::parallelism(&g)
    );
    let labels: Vec<&str> = path.iter().map(|&t| g.label(t)).collect();
    let _ = writeln!(out, "critical path: {}", labels.join(" -> "));
    let s = list_schedule(&g, procs, Priority::CriticalPath);
    let _ = writeln!(out, "\nschedule on {procs} student(s):");
    out.push_str(&s.gantt(&g, 60));
    Ok(out)
}

fn cmd_grade(opts: &Opts) -> Result<String, CliError> {
    let path = opts.target("usage: flagsim grade <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read {path}: {e}"),
    })?;
    grade_text(&text)
}

/// Grade a submission text against the Jordan reference (separated from
/// the file I/O so tests can call it directly).
pub fn grade_text(text: &str) -> Result<String, CliError> {
    let sub = parse_submission(text).map_err(|message| CliError { message })?;
    let grade = classify(&sub, &jordan::reference_graph(), &jordan::grade_options());
    let mut out = format!("grade: {grade:?}\n");
    let _ = writeln!(
        out,
        "counts toward the paper's \"at least mostly correct\": {}",
        if grade.is_at_least_mostly_correct() {
            "yes"
        } else {
            "no"
        }
    );
    Ok(out)
}

/// Re-run a recorded scenario (the scenario, flag, kind, and seed fully
/// determine the run) and return its display title, report, and
/// assignments — the shared recorded-run source behind `replay` and
/// `watch`.
fn recorded_run(
    opts: &Opts,
    which: &str,
) -> Result<(String, flagsim_core::RunReport, Vec<Vec<flagsim_core::WorkItem>>), CliError> {
    let run = resolve_run(opts)?;
    let (scenario, _) = run.scenario(opts, which)?;
    let assignments =
        scenario
            .strategy
            .assignments(&run.flag, scenario.order, &run.cfg.skip_colors);
    let size = assignments.len();
    let mut team = fresh_team(size);
    run.preflight(opts, &scenario, size + 1, &FaultPlan::none())?;
    let report = flagsim_core::run_activity(
        scenario.name.clone(),
        &run.flag,
        &assignments,
        &mut team,
        &run.kit,
        &run.cfg,
        &FaultPlan::none(),
        None,
    )
    .and_then(flagsim_core::ActivityOutcome::into_report)
    .map_err(|message| CliError { message })?;
    let title = format!("{} — {} (seed {})", report.label, run.spec.name, run.seed);
    Ok((title, report, assignments))
}

fn cmd_replay(opts: &Opts) -> Result<String, CliError> {
    use flagsim_core::replay::Replay;
    let which =
        opts.target("usage: flagsim replay <1|2|3|4|pipelined|alternating> [--frames N]")?;
    let frames = opts.count("frames")?;
    let (_, report, assignments) = recorded_run(opts, which)?;
    let replay = Replay::new(&report, &assignments);
    let mut out = format!("{} — the flag filling in:\n\n", report.label);
    for frame in replay.ascii_frames(frames) {
        out.push_str(&frame);
        out.push('\n');
    }
    Ok(out)
}

const WATCH_USAGE: &str = "usage: flagsim watch <SCENARIO> [--flag NAME] [--kind KIND] [--seed N]\n\
       \x20      [--script KEYS] [--frames-out FILE] [--width N] [--no-check]\n\
       flagsim watch --trace FILE [--script KEYS] [--frames-out FILE]\n\
       flagsim watch (--connect ADDR | --follow FILE) [--once] [--width N]";

fn cmd_watch(opts: &Opts) -> Result<String, CliError> {
    use flagsim_watch::{app, chrome, frame, input};
    use std::io::IsTerminal;
    let width = match opts.value("width") {
        Some(w) => w
            .parse::<usize>()
            .ok()
            .filter(|w| (20..=1000).contains(w))
            .ok_or(CliError {
                message: "bad --width (20..=1000)".into(),
            })?,
        None => flagsim_watch::term::detect_width(),
    };
    if opts.has("connect") || opts.has("follow") {
        return watch_live(opts, width);
    }
    let data = if let Some(path) = opts.value("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| CliError {
            message: format!("cannot read {path}: {e}"),
        })?;
        let trace =
            chrome::parse_chrome_trace(&text).map_err(|message| CliError { message })?;
        app::ReplayData::from_trace(format!("trace file {path}"), trace)
    } else {
        let (title, report, assignments) = recorded_run(opts, opts.target(WATCH_USAGE)?)?;
        app::ReplayData::from_report(title, &report, &assignments)
    };
    // Scripted mode: a fixed key sequence, one frame per key, no clock —
    // byte-deterministic, for tests and CI.
    if let Some(script) = opts.value("script") {
        let keys = input::script_keys(script).map_err(|message| CliError { message })?;
        let frames = app::run_script(&data, &keys, width);
        let dump = frame::dump_frames(&frames);
        if let Some(path) = opts.value("frames-out") {
            std::fs::write(path, &dump).map_err(|e| CliError {
                message: format!("cannot write {path}: {e}"),
            })?;
            return Ok(format!("watch: {} frame(s) written to {path}\n", frames.len()));
        }
        return Ok(dump);
    }
    if std::io::stdout().is_terminal() {
        if let Err(e) = app::run_interactive(&data) {
            // No raw-mode terminal after all (no /dev/tty, no stty):
            // fall through to the plain final frame.
            eprintln!("watch: cannot go interactive ({e}); printing the final frame");
        } else {
            return Ok(String::new());
        }
    }
    // Non-TTY (or interactive-failed) fallback: the run's final state as
    // one plain frame, so piped output stays useful.
    let mut state = app::App::new(data.end_ms());
    state.handle_key(input::Key::End);
    Ok(app::render(&data, &state, width).render())
}

/// Live mode: tail fleet snapshots from a socket (`--connect`) or a
/// rewritten snapshot file (`--follow`) and render the fleet panel.
/// Interactive stdout repaints in place; piped stdout prints one
/// summary line per new snapshot. `--once` exits after the first
/// snapshot (smoke tests). Never writes to the source.
fn watch_live(opts: &Opts, width: usize) -> Result<String, CliError> {
    use flagsim_watch::live::{render_fleet, SnapshotSource};
    use std::io::{IsTerminal, Write as _};
    let mut src = match (opts.value("connect"), opts.value("follow")) {
        (Some(addr), _) => SnapshotSource::connect(addr).map_err(|message| CliError { message })?,
        (_, Some(path)) => SnapshotSource::follow(path),
        _ => return err(WATCH_USAGE),
    };
    let once = opts.has("once");
    let mut out = std::io::stdout();
    let mut panel =
        flagsim_watch::term::Panel::new(std::io::stdout().is_terminal() && !once, width);
    let mut last_line = String::new();
    let mut last_frame = String::new();
    loop {
        match src.next_snapshot() {
            Ok(Some(snap)) => {
                let frame = render_fleet(&snap, width).render();
                if panel.is_interactive() {
                    panel.draw(&frame, &mut out);
                } else if once {
                    return Ok(frame);
                } else {
                    // Plain fallback: one log-friendly line per change.
                    let line = frame.lines().nth(1).unwrap_or("").to_owned();
                    if line != last_line {
                        let _ = writeln!(out, "{line}");
                        let _ = out.flush();
                        last_line = line;
                    }
                }
                last_frame = frame;
            }
            Ok(None) => continue,
            Err(e) => {
                // The source ending (sweep finished, file removed) is
                // the normal way out; leave the last state on screen.
                panel.finish(&mut out);
                if last_frame.is_empty() {
                    return err(e);
                }
                eprintln!("watch: {e}");
                return Ok(if panel.is_interactive() {
                    String::new()
                } else {
                    last_frame
                });
            }
        }
    }
}

fn cmd_report(opts: &Opts) -> Result<String, CliError> {
    let seed = opts.get("seed")?;
    Ok(flagsim_assessment::report::full_report(seed))
}

fn cmd_vocab(opts: &Opts) -> Result<String, CliError> {
    use flagsim_core::glossary;
    match opts.positional.first() {
        None => Ok(glossary::render_glossary()),
        Some(word) => match glossary::lookup(word) {
            Some(t) => Ok(format!(
                "{}\n  what:  {}\n  where: {}\n  measured in: {}\n",
                t.term, t.definition, t.seen_in_activity, t.experiment
            )),
            None => err(format!("no glossary entry matches {word:?}")),
        },
    }
}

fn cmd_pack(opts: &Opts) -> Result<String, CliError> {
    let Some(dir) = opts.value("out") else {
        return err("usage: flagsim pack --out DIR [--flag NAME] [--kind KIND] [--seed N]");
    };
    let run = resolve_run(opts)?;
    let files =
        build_pack(&run.spec, run.kind, run.seed).map_err(|message| CliError { message })?;
    std::fs::create_dir_all(dir).map_err(|e| CliError {
        message: format!("cannot create {dir}: {e}"),
    })?;
    let mut out = format!("instructor pack for {} in {dir}/:\n", run.spec.name);
    for (name, content) in &files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, content).map_err(|e| CliError {
            message: format!("cannot write {path}: {e}"),
        })?;
        let _ = writeln!(out, "  {name} ({} bytes)", content.len());
    }
    Ok(out)
}

/// Build every file of the instructor pack in memory (separated from the
/// filesystem so tests can inspect the contents).
pub fn build_pack(
    spec: &FlagSpec,
    kind: ImplementKind,
    seed: u64,
) -> Result<Vec<(String, String)>, String> {
    use flagsim_assessment::quiz::render_quiz_form;
    use flagsim_core::advice;

    let flag = PreparedFlag::new(spec);
    let cfg = ActivityConfig::default().with_seed(seed);
    let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
    let mut files: Vec<(String, String)> = Vec::new();

    // 1. The flag itself, printable and projectable.
    files.push(("flag.txt".into(), render::to_ascii(&flag.reference)));
    files.push(("flag.svg".into(), render::to_svg(&flag.reference, 24)));

    // 2. The scenario slide deck (§IV: project the decomposition).
    files.push(("slides.txt".into(), slides::fig1_deck(&flag)));

    // 3. The dry-run checklist for every scenario.
    let mut checklist = String::new();
    for n in 1..=4u8 {
        let sc = Scenario::fig1(n);
        let results = advice::preflight(&flag, &sc, &kit, 5, &cfg);
        let _ = writeln!(checklist, "--- {} ---", sc.name);
        checklist.push_str(&advice::render_checklist(&results));
        checklist.push('\n');
    }
    files.push(("checklist.txt".into(), checklist));

    // 4. The pre/post quiz, student and grader copies, plus the
    //    vocabulary handout the survey comments asked for.
    files.push(("quiz.txt".into(), render_quiz_form(false)));
    files.push(("quiz_key.txt".into(), render_quiz_form(true)));
    files.push((
        "vocabulary.txt".into(),
        flagsim_core::glossary::render_glossary(),
    ));

    // 4b. The CSV bundle of a sample scenario-4 run, for a data-analysis
    //     follow-up exercise.
    // (appended below once the sample session has run)

    // 5. A simulated sample session with the debrief, so the instructor
    //    knows what numbers to expect on the board.
    let mut team: Vec<StudentProfile> =
        (1..=4).map(|i| StudentProfile::new(format!("P{i}"))).collect();
    let mut runs = Vec::new();
    for n in 1..=4u8 {
        let r = Scenario::fig1(n).run(&flag, &mut team, &kit, &cfg)?;
        runs.push(r);
    }
    let mut sample = String::from("Sample session (simulated — your times will differ):\n");
    for r in &runs {
        let _ = writeln!(sample, "  {}", r.board_line());
    }
    sample.push('\n');
    sample.push_str(&discussion::discussion_handout(&discussion::detect_lessons(
        &runs,
    )));
    let last = runs.last().expect("four runs");
    sample.push('\n');
    sample.push_str(&last.trace.gantt(72));
    files.push(("sample_session.txt".into(), sample));
    files.push((
        "scenario4_gantt.svg".into(),
        last.trace.svg_gantt(720),
    ));
    for (name, content) in last.to_csv_bundle() {
        files.push((format!("scenario4_{name}"), content));
    }

    // 6. The dependency follow-up: the Jordan reference graph and a
    //    4-student schedule (Knox's extension).
    let jordan_spec = library::jordan();
    let g = layered::flag_taskgraph(&jordan_spec, 2000);
    files.push(("jordan_dependencies.dot".into(), g.to_dot("Jordan")));
    let schedule = list_schedule(&g, 4, Priority::CriticalPath);
    files.push((
        "jordan_schedule.svg".into(),
        schedule.svg_gantt(&g, 720),
    ));
    // The animated version — our substitute for the Webster instructor's
    // schedule animations (reference [34] of the paper).
    files.push((
        "jordan_schedule_animated.svg".into(),
        schedule.animated_svg(&g, 720, 0.00002),
    ));

    Ok(files)
}

fn cmd_parse(opts: &Opts) -> Result<String, CliError> {
    let path = opts.target("usage: flagsim parse <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read {path}: {e}"),
    })?;
    parse_text(&text)
}

/// Validate + render a custom flag text (separated from file I/O for
/// tests). Includes the linter's findings.
pub fn parse_text(text: &str) -> Result<String, CliError> {
    let flag = flagsim_flags::parse(text).map_err(|e| CliError {
        message: e.to_string(),
    })?;
    let grid = flag.rasterize();
    let lints = flagsim_flags::lint(&flag);
    Ok(format!(
        "parsed {:?}: {} layers, {}x{}, {}\n\n{}legend: {}\n\n{}",
        flag.name,
        flag.layer_count(),
        flag.default_width,
        flag.default_height,
        if flag.is_layered() {
            "layered (has dependencies)"
        } else {
            "flat (fully parallel)"
        },
        render::to_ascii(&grid),
        render::legend(&grid),
        flagsim_flags::render_lints(&lints),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runv(args: &[&str]) -> Result<String, CliError> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn option_table_has_one_row_per_option_and_subcommand() {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        for (i, a) in OPTIONS.iter().enumerate() {
            for command in a.commands {
                assert!(
                    names.contains(command),
                    "--{} names unknown {command}",
                    a.name
                );
                assert!(
                    OPTIONS[i + 1..]
                        .iter()
                        .all(|b| b.name != a.name || !b.commands.contains(command)),
                    "--{} is declared twice for {command}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn no_args_prints_usage() {
        let out = runv(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(runv(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = runv(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("unknown command"));
        assert!(e.message.contains("USAGE"));
    }

    #[test]
    fn flags_lists_the_library() {
        let out = runv(&["flags"]).unwrap();
        assert!(out.contains("Mauritius"));
        assert!(out.contains("Great Britain"));
        assert!(out.contains("flat"));
        assert!(out.contains("yes"));
    }

    #[test]
    fn render_ascii_and_sizes() {
        let out = runv(&["render", "mauritius"]).unwrap();
        assert!(out.contains("RRRRRRRRRRRR"));
        let big = runv(&["render", "mauritius", "24x16"]).unwrap();
        assert!(big.contains(&"R".repeat(24)));
        let ppm = runv(&["render", "france", "ppm"]).unwrap();
        assert!(ppm.starts_with("P3"));
        assert!(runv(&["render", "narnia"]).is_err());
        assert!(runv(&["render", "mauritius", "0x4"]).is_err());
    }

    #[test]
    fn slides_show_the_deck() {
        let out = runv(&["slides"]).unwrap();
        assert!(out.contains("scenario 4"));
        assert!(out.contains("P1 colors"));
    }

    #[test]
    fn run_scenario_4_with_gantt() {
        let out = runv(&["run", "4", "--seed", "7", "--gantt"]).unwrap();
        assert!(out.contains("scenario 4"));
        assert!(out.contains("correct"));
        assert!(out.contains("marker:"), "contention detail expected:\n{out}");
        assert!(out.contains('~'), "gantt should show waiting");
    }

    #[test]
    fn run_with_extra_markers_removes_waiting() {
        let out = runv(&["run", "4", "--markers", "4"]).unwrap();
        // No contended marker line when fully stocked.
        assert!(!out.contains("contended"), "{out}");
    }

    #[test]
    fn faults_runs_a_plan_and_prints_the_resilience_report() {
        let out = runv(&[
            "faults", "3", "--plan", "break:blue@10,dropout:2@20", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("fault(s) planned"), "{out}");
        assert!(out.contains("recovery overhead"), "{out}");
        assert!(out.contains("correct"), "survivors still finish: {out}");
        // The incident narrative now goes to stderr (see
        // bin_integration::faults_narrative_lands_on_stderr), not stdout.
        assert!(!out.contains("blue implement broke"), "{out}");
    }

    #[test]
    fn faults_abort_policy_reports_the_abort() {
        let out = runv(&[
            "faults", "1", "--plan", "break:red@5", "--policy", "abort",
        ])
        .unwrap();
        assert!(out.contains("aborted"), "{out}");
        assert!(out.contains("WRONG FLAG"), "{out}");
    }

    #[test]
    fn faults_random_plan_is_seeded() {
        let a = runv(&["faults", "4", "--random", "--seed", "11"]).unwrap();
        let b = runv(&["faults", "4", "--random", "--seed", "11"]).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("fault(s) planned"), "{a}");
    }

    #[test]
    fn faults_rejects_bad_input() {
        assert!(runv(&["faults", "3"]).is_err());
        assert!(runv(&["faults", "3", "--plan", "nonsense"]).is_err());
        assert!(runv(&["faults", "3", "--plan", "bell@60", "--policy", "what"]).is_err());
        assert!(
            runv(&["faults", "3", "--plan", "bell@60", "--random"]).is_err(),
            "--plan and --random together must be rejected"
        );
    }

    #[test]
    fn faults_demo_deadlock_prints_the_wait_for_graph() {
        let out = runv(&["faults", "--demo-deadlock"]).unwrap();
        assert!(out.contains("stalled"), "{out}");
        assert!(out.contains("wait-for graph"), "{out}");
        assert!(out.contains("red marker"), "{out}");
        assert!(out.contains("blue marker"), "{out}");
        assert!(out.contains("held by"), "{out}");
    }

    #[test]
    fn sweep_reports_statistics() {
        let out = runv(&["sweep", "4", "--reps", "6", "--jobs", "2", "--seed", "9"]).unwrap();
        assert!(out.contains("scenario 4"), "{out}");
        assert!(out.contains("6 rep(s), 2 job(s), seed 9"), "{out}");
        assert!(out.contains("completion"), "{out}");
        assert!(out.contains("waiting"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
        assert!(!out.contains("failed"), "{out}");
    }

    #[test]
    fn sweep_statistics_are_job_count_invariant() {
        // The whole point of the deterministic merge: only the header's
        // job count differs between a serial and a parallel sweep.
        let serial = runv(&["sweep", "4", "--reps", "8", "--jobs", "1", "--seed", "3"]).unwrap();
        let par = runv(&["sweep", "4", "--reps", "8", "--jobs", "4", "--seed", "3"]).unwrap();
        let stats = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(stats(&serial), stats(&par));
        assert_ne!(serial.lines().next(), par.lines().next());
    }

    #[test]
    fn sweep_dashboard_runs_with_and_without_progress() {
        // --dashboard installs a collector; serialize with the other
        // telemetry-touching tests.
        let _guard = telemetry_lock();
        let out =
            runv(&["sweep", "4", "--reps", "4", "--jobs", "2", "--seed", "3", "--dashboard"])
                .unwrap();
        assert!(out.contains("completion"), "{out}");
        // Dashboard output is stderr-only; stdout stays the stats table.
        assert!(!out.contains("worker 0"), "{out}");
        // The numbers are identical to a plain sweep: the dashboard is
        // pure observability.
        let plain = runv(&["sweep", "4", "--reps", "4", "--jobs", "2", "--seed", "3"]).unwrap();
        assert_eq!(out, plain);
    }

    #[test]
    fn explain_text_reports_path_blame_and_bounds() {
        let out = runv(&["explain", "4", "--seed", "7"]).unwrap();
        assert!(out.contains("executed critical path"), "{out}");
        assert!(out.contains("blame:"), "{out}");
        assert!(out.contains("what-if:"), "{out}");
        assert!(out.contains("[ok]"), "bounds must hold: {out}");
        assert!(out.contains("X/W/o"), "gantt legend: {out}");
    }

    #[test]
    fn explain_json_is_valid_and_job_count_invariant() {
        let a = runv(&["explain", "fourslice", "--format", "json", "--seed", "7"]).unwrap();
        let b = runv(&[
            "explain", "fourslice", "--format", "json", "--seed", "7", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(a, b, "explain output must not depend on --jobs");
        let v = flagsim_telemetry::json::parse(&a).expect("valid JSON");
        assert!(v.get("whatif").is_some(), "{a}");
        assert_eq!(
            v.get("seed").and_then(|s| s.as_f64()),
            Some(7.0),
            "{a}"
        );
    }

    #[test]
    fn explain_matches_run_completion() {
        // `explain` analyzes exactly the run `run` reports: same seed,
        // same completion header.
        let run_out = runv(&["run", "4", "--seed", "9"]).unwrap();
        let explain_out = runv(&["explain", "4", "--seed", "9"]).unwrap();
        let completion: f64 = run_out
            .lines()
            .next()
            .and_then(|l| l.split("completion ").nth(1))
            .and_then(|l| l.split('s').next())
            .and_then(|v| v.parse().ok())
            .expect("run header has a completion");
        let makespan: f64 = explain_out
            .lines()
            .find_map(|l| l.split("makespan ").nth(1))
            .and_then(|l| l.split('s').next())
            .and_then(|v| v.parse().ok())
            .expect("explain echoes the trace summary");
        // run prints one decimal, explain three; agree to rounding.
        assert!(
            (completion - makespan).abs() < 0.06,
            "run said {completion}s, explain said {makespan}s"
        );
    }

    #[test]
    fn explain_rejects_bad_input() {
        assert!(runv(&["explain"]).is_err());
        assert!(runv(&["explain", "9"]).is_err());
        assert!(runv(&["explain", "4", "--format", "yaml"]).is_err());
        assert!(runv(&["explain", "4", "--jobs", "0"]).is_err());
        assert!(runv(&["explain", "4", "--team", "0"]).is_err());
    }

    #[test]
    fn sweep_streaming_mode_matches_retained_mean() {
        // `sweep` keeps no reports, yet every row it prints, median and
        // max included, is that of the same sweep with its reports
        // retained, and the median is the exact one over those reports.
        let printed = runv(&["sweep", "4", "--reps", "40", "--seed", "5"]).unwrap();
        let job = flagsim_shard::JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "thick".into(),
            seed: 5,
            reps: 40,
            team: 4,
            warmup: false,
        };
        let mat = job.materialize().unwrap();
        let retained = mat.runner().retain_reports(true).run().unwrap();
        assert_eq!(retained.reports.len(), 40);
        let rows = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        let expected = sweep_summary(String::new(), &retained, |_| {});
        assert_eq!(rows(&printed), rows(&expected), "{printed}\nvs\n{expected}");
        let completions: Vec<f64> = retained.reports.iter().map(|r| r.completion_secs()).collect();
        let exact = flagsim_metrics::RunStats::from_sample(&completions);
        assert_eq!(retained.completion.median.to_bits(), exact.median.to_bits());
        assert_eq!(retained.completion.max.to_bits(), exact.max.to_bits());
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(runv(&["sweep"]).is_err());
        assert!(runv(&["sweep", "9"]).is_err());
        assert!(runv(&["sweep", "4", "--reps", "0"]).is_err());
        assert!(runv(&["sweep", "4", "--jobs", "0"]).is_err());
        assert!(runv(&["sweep", "4", "--reps", "abc"]).is_err());
        assert!(runv(&["sweep", "4", "--stream"]).is_err(), "--stream is gone");
        // A team too small for the scenario fails every repetition.
        let e = runv(&["sweep", "3", "--team", "1", "--reps", "2"]).unwrap_err();
        assert!(e.message.contains("all 2 repetitions failed"), "{e}");
    }

    #[test]
    fn run_rejects_nonsense() {
        assert!(runv(&["run", "9"]).is_err());
        assert!(runv(&["run", "1", "--kind", "quill"]).is_err());
        assert!(runv(&["run", "1", "--markers", "0"]).is_err());
        assert!(runv(&["run", "1", "--seed", "abc"]).is_err());
        assert!(runv(&["run"]).is_err());
    }

    #[test]
    fn check_scenario_reports_clean_and_warns() {
        // A clean scenario: no error-level findings, exit Ok.
        let out = runv(&["check", "4", "--seed", "7"]).unwrap();
        assert!(out.contains("check:"), "{out}");
        assert!(!out.contains("error["), "{out}");
        // Crayons are a warning (SC403) but not a deny at the default
        // --deny error…
        let crayons = runv(&["check", "4", "--kind", "crayon", "--seed", "7"]).unwrap();
        assert!(crayons.contains("warning[SC403]"), "{crayons}");
        // …and do fail under --deny warning.
        let e = runv(&[
            "check", "4", "--kind", "crayon", "--seed", "7", "--deny", "warning",
        ])
        .unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
        // An under-staffed team is an error (SC404) and denies by default.
        let e = runv(&["check", "4", "--team", "2", "--seed", "7"]).unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
    }

    #[test]
    fn check_every_builtin_scenario_is_error_free() {
        for s in ["1", "2", "3", "4", "pipelined", "alternating"] {
            let out = runv(&["check", s, "--seed", "7"]).unwrap();
            assert!(!out.contains("error["), "{s}: {out}");
        }
    }

    #[test]
    fn check_demo_deadlock_finds_the_lock_order_cycle() {
        let e = runv(&["check", "demo-deadlock"]).unwrap_err();
        assert!(e.message.contains("1 error(s)"), "{e}");
        // The diagnostics themselves went to stdout; the summary names
        // the target.
        assert!(e.message.contains("demo-deadlock"), "{e}");
        // Allow-listing the cycle turns the drill green.
        let out = runv(&["check", "demo-deadlock", "--allow", "SC204"]).unwrap();
        assert!(out.contains("no findings"), "{out}");
        // JSON rendering carries the cycle and parses.
        let e = runv(&["check", "demo-deadlock", "--format", "json"]).unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
    }

    #[test]
    fn check_flag_and_plan_targets() {
        // A library flag target: spec lints only.
        let out = runv(&["check", "mauritius"]).unwrap();
        assert!(out.contains("flag Mauritius"), "{out}");
        // A fault-plan target: validated without running anything.
        let e = runv(&["check", "dropout:9@10"]).unwrap_err();
        assert!(e.message.contains("check failed"), "targets student 9 of 4: {e}");
        let out = runv(&["check", "break:red@30,bell@120"]).unwrap();
        assert!(!out.contains("error["), "{out}");
        // Nonsense plan strings are parse errors, not findings.
        assert!(runv(&["check", "explode:now@5"]).is_err());
    }

    #[test]
    fn check_static_only_skips_the_observation_run() {
        let out = runv(&["check", "4", "--static-only"]).unwrap();
        assert!(out.contains("check:"), "{out}");
        assert!(!out.contains("error["), "{out}");
    }

    #[test]
    fn check_json_is_identical_across_job_counts() {
        let one = runv(&[
            "check", "4", "--format", "json", "--seed", "7", "--jobs", "1",
        ])
        .unwrap();
        let four = runv(&[
            "check", "4", "--format", "json", "--seed", "7", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(one, four, "--jobs must never change the findings");
        let v = flagsim_telemetry::json::parse(&one).expect("valid JSON");
        assert!(v.get("counts").is_some());
        assert!(v.get("diagnostics").and_then(|d| d.as_array()).is_some());
    }

    #[test]
    fn check_rejects_bad_input() {
        assert!(runv(&["check"]).is_err());
        assert!(runv(&["check", "4", "--deny", "fatal"]).is_err());
        assert!(runv(&["check", "4", "--format", "xml"]).is_err());
        assert!(runv(&["check", "narnia"]).is_err());
        assert!(runv(&["check", "4", "--jobs", "0"]).is_err());
    }

    #[test]
    fn lint_reports_flag_spec_diagnostics() {
        // Library flags are clean at their recommended raster.
        let out = runv(&["lint", "mauritius"]).unwrap();
        assert!(out.contains("no findings"), "{out}");
        // The same flag at a coarse raster loses stripes: SC102 warnings
        // that trip --deny warning…
        let out = runv(&["lint", "mauritius", "--size", "2x2"]).unwrap();
        assert!(out.contains("warning[SC102]"), "{out}");
        let e = runv(&["lint", "mauritius", "--size", "2x2", "--deny", "warning"])
            .unwrap_err();
        assert!(e.message.contains("check failed"), "{e}");
        // …unless the allow-list waves them through.
        let out = runv(&[
            "lint", "mauritius", "--size", "2x2", "--deny", "warning", "--allow", "SC102",
        ])
        .unwrap();
        assert!(out.contains("flag Mauritius at 2x2"), "{out}");
        // JSON mode parses.
        let out = runv(&["lint", "poland", "--format", "json"]).unwrap();
        assert!(flagsim_telemetry::json::parse(&out).is_ok(), "{out}");
        // Unknown flags that are also unreadable files error out.
        assert!(runv(&["lint", "narnia"]).is_err());
        assert!(runv(&["lint"]).is_err());
    }

    #[test]
    fn run_and_sweep_honor_no_check() {
        // The preflight passes for the built-ins, so --no-check changes
        // nothing observable here — it must still be accepted.
        let checked = runv(&["run", "4", "--seed", "7"]).unwrap();
        let unchecked = runv(&["run", "4", "--seed", "7", "--no-check"]).unwrap();
        assert_eq!(checked, unchecked);
        let out = runv(&[
            "sweep", "3", "--reps", "2", "--jobs", "1", "--no-check", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("rep(s)"), "{out}");
    }

    #[test]
    fn render_svg_mode() {
        let out = runv(&["render", "poland", "svg"]).unwrap();
        assert!(out.starts_with("<svg"));
        assert_eq!(out.matches("<rect").count(), 60);
    }

    #[test]
    fn session_prints_board_and_lessons() {
        let out = runv(&["session", "--repeat"]).unwrap();
        assert!(out.contains("scenario 1 (repeat)"));
        assert!(out.contains("What did we just see?"));
        assert!(out.contains("hardware differences"));
    }

    #[test]
    fn graph_shows_dot_and_schedule() {
        let out = runv(&["graph", "great britain"]).unwrap();
        assert!(out.contains("digraph"));
        assert!(out.contains("critical path: blue field -> white diagonals -> red cross"));
        assert!(out.contains("parallelism 1.00"));
        assert!(runv(&["graph", "great britain", "--procs", "0"]).is_err());
    }

    #[test]
    fn grade_text_end_to_end() {
        let perfect = "task black stripe\ntask green stripe\ntask red triangle\n\
                       task white dot\nedge black stripe -> red triangle\n\
                       edge green stripe -> red triangle\nedge red triangle -> white dot\n";
        let out = grade_text(perfect).unwrap();
        assert!(out.contains("Perfect"));
        assert!(out.contains("yes"));
        let chain = "task black stripe\ntask white stripe\ntask green stripe\n\
                     task red triangle\ntask white dot\n\
                     edge black stripe -> white stripe\nedge white stripe -> green stripe\n\
                     edge green stripe -> red triangle\nedge red triangle -> white dot\n";
        let out = grade_text(chain).unwrap();
        assert!(out.contains("LinearChain"));
        assert!(out.contains("no"));
    }

    #[test]
    fn parse_text_end_to_end() {
        let out = parse_text(
            "flag \"Mini\" 4x2\nlayer \"top\" red hstripe 0 2\nlayer \"bottom\" green hstripe 1 2\n",
        )
        .unwrap();
        assert!(out.contains("parsed \"Mini\""));
        assert!(out.contains("flat (fully parallel)"));
        assert!(out.contains("RRRR"));
        assert!(parse_text("flag oops").is_err());
    }

    #[test]
    fn pack_builds_every_artifact() {
        let files = build_pack(
            &library::mauritius(),
            ImplementKind::ThickMarker,
            7,
        )
        .unwrap();
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "flag.txt",
            "flag.svg",
            "slides.txt",
            "checklist.txt",
            "quiz.txt",
            "quiz_key.txt",
            "sample_session.txt",
            "scenario4_gantt.svg",
            "jordan_dependencies.dot",
            "jordan_schedule.svg",
            "jordan_schedule_animated.svg",
            "vocabulary.txt",
            "scenario4_students.csv",
            "scenario4_contention.csv",
            "scenario4_events.csv",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // Spot-check content.
        let get = |n: &str| &files.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(get("slides.txt").contains("scenario 4"));
        assert!(get("quiz_key.txt").contains('*'));
        assert!(get("sample_session.txt").contains("What did we just see?"));
        assert!(get("jordan_dependencies.dot").contains("digraph"));
        assert!(get("scenario4_gantt.svg").starts_with("<svg"));
    }

    #[test]
    fn replay_shows_the_flag_filling_in() {
        let out = runv(&["replay", "4", "--frames", "3"]).unwrap();
        assert_eq!(out.matches("t =").count(), 3);
        assert!(out.contains("(96/96 cells)"));
        assert!(runv(&["replay", "4", "--frames", "0"]).is_err());
        assert!(runv(&["replay"]).is_err());
    }

    #[test]
    fn report_regenerates_the_evaluation() {
        let out = runv(&["report"]).unwrap();
        assert!(out.contains("Table I"));
        assert!(out.contains("McNemar"));
        assert!(!out.contains('!'), "no table mismatches expected");
    }

    #[test]
    fn vocab_lists_and_looks_up() {
        let all = runv(&["vocab"]).unwrap();
        assert!(all.contains("contention"));
        assert!(all.contains("pipelining"));
        let one = runv(&["vocab", "speedup"]).unwrap();
        assert!(one.contains("T1 / Tp"));
        assert!(runv(&["vocab", "quantum"]).is_err());
    }

    #[test]
    fn pack_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("flagsim-pack-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let out = runv(&["pack", "--out", &dir_s]).unwrap();
        assert!(out.contains("slides.txt"));
        assert!(dir.join("quiz.txt").exists());
        assert!(dir.join("flag.svg").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_requires_out() {
        assert!(runv(&["pack"]).is_err());
    }

    #[test]
    fn grade_and_parse_need_files() {
        assert!(runv(&["grade"]).is_err());
        assert!(runv(&["parse"]).is_err());
        assert!(runv(&["grade", "/nonexistent/file"]).is_err());
    }

    /// Serialize tests that install the process-global telemetry
    /// collector (`profile`, `--trace-out`): concurrent installs would
    /// steal each other's spans.
    fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn scenario_aliases_resolve() {
        let out = runv(&["run", "onestripe", "--seed", "7"]).unwrap();
        assert!(out.contains("scenario 3"), "{out}");
        let out = runv(&["run", "fourslice", "--seed", "7"]).unwrap();
        assert!(out.contains("scenario 4"), "{out}");
    }

    #[test]
    fn profile_chrome_trace_is_valid_and_balanced() {
        let _serial = telemetry_lock();
        let out = runv(&["profile", "fourslice", "--reps", "2", "--seed", "7"]).unwrap();
        let events =
            flagsim_telemetry::json::validate_chrome_trace(&out).expect("valid chrome trace");
        assert!(events > 0, "expected events in:\n{out}");
        assert!(out.contains("sweep.rep"), "{out}");
        assert!(out.contains("desim.run"), "{out}");
    }

    #[test]
    fn profile_table_folded_and_metrics() {
        let _serial = telemetry_lock();
        let table = runv(&[
            "profile", "onestripe", "--reps", "2", "--format", "table", "--metrics",
        ])
        .unwrap();
        assert!(table.contains("sweep.rep"), "{table}");
        assert!(table.contains("--- metrics ---"), "{table}");
        assert!(table.contains("desim.runs"), "{table}");
        let folded =
            runv(&["profile", "onestripe", "--reps", "2", "--format", "folded"]).unwrap();
        assert!(
            folded.lines().any(|l| l.contains("sweep;sweep.rep")),
            "{folded}"
        );
    }

    #[test]
    fn profile_out_writes_file() {
        let _serial = telemetry_lock();
        let path = std::env::temp_dir()
            .join(format!("flagsim-profile-{}.json", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let out = runv(&["profile", "onestripe", "--reps", "2", "--out", &path_s]).unwrap();
        assert!(out.contains("span(s) written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(flagsim_telemetry::json::validate_chrome_trace(&text).unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_rejects_bad_input() {
        assert!(runv(&["profile"]).is_err());
        assert!(runv(&["profile", "4", "--format", "xml"]).is_err());
        assert!(runv(&["profile", "4", "--reps", "0"]).is_err());
        assert!(runv(&["profile", "4", "--jobs", "0"]).is_err());
        assert!(runv(&["profile", "9"]).is_err());
    }

    #[test]
    fn run_trace_out_writes_chrome_trace() {
        let _serial = telemetry_lock();
        let path = std::env::temp_dir()
            .join(format!("flagsim-run-trace-{}.json", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let out = runv(&["run", "4", "--seed", "7", "--trace-out", &path_s]).unwrap();
        assert!(out.contains("scenario 4"), "stdout stays the report: {out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(flagsim_telemetry::json::validate_chrome_trace(&text).unwrap() > 0);
        assert!(text.contains("run.activity"), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
