//! The sweep description that crosses the process boundary.
//!
//! A [`JobSpec`] is everything a worker needs to reproduce the
//! coordinator's repetitions exactly: scenario token, flag name,
//! implement kind, base seed, team size, warm-up, and the total rep
//! count. Both sides [`materialize`](JobSpec::materialize) the spec
//! through the *same* code path, and every repetition then runs through
//! [`SweepRunner::run_rep_stats`](flagsim_core::sweep::SweepRunner::run_rep_stats) —
//! so rep `i` computed on a remote worker is bit-identical to rep `i`
//! computed in-process, which is what makes the distributed merge equal
//! the serial sweep.
//!
//! The spec's canonical JSON doubles as its identity: checkpoint files
//! store a [`fingerprint`](JobSpec::fingerprint) and refuse to resume a
//! different campaign.

use flagsim_agents::ImplementKind;
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::scenario::Scenario;
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::PreparedFlag;
use flagsim_flags::{library, FlagSpec};
use flagsim_telemetry::json::{json_string, Value};
use std::fmt::Write as _;

/// A sweep, as plain data: what to run and how many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Scenario token (`1`–`4`, `onestripe`, `fourslice`, `pipelined`,
    /// `alternating`) — the same vocabulary the CLI accepts.
    pub scenario: String,
    /// Library flag name (e.g. `Mauritius`).
    pub flag: String,
    /// Implement kind token (`dauber`, `thick`, `thin`, `crayon`).
    pub kind: String,
    /// Base seed; rep `i` derives its seed exactly as the serial sweep.
    pub seed: u64,
    /// Total repetitions in the campaign.
    pub reps: u64,
    /// Students per repetition's fresh team.
    pub team: usize,
    /// Whether fresh teams keep the warm-up effect.
    pub warmup: bool,
}

impl JobSpec {
    /// Canonical JSON encoding (field order fixed; seeds as decimal
    /// strings so 64-bit values survive the f64-based parser exactly).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"scenario\":{},\"flag\":{},\"kind\":{},\"seed\":\"{}\",\"reps\":\"{}\",\"team\":{},\"warmup\":{}}}",
            json_string(&self.scenario),
            json_string(&self.flag),
            json_string(&self.kind),
            self.seed,
            self.reps,
            self.team,
            self.warmup,
        );
        out
    }

    /// Decode a spec from a parsed JSON object.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("job spec: missing string field {key:?}"))
        };
        let u64_str = |key: &str| -> Result<u64, String> {
            s(key)?
                .parse::<u64>()
                .map_err(|_| format!("job spec: field {key:?} is not a u64"))
        };
        let team = v
            .get("team")
            .and_then(Value::as_f64)
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
            .ok_or("job spec: missing integer field \"team\"")? as usize;
        let warmup = match v.get("warmup") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("job spec: missing bool field \"warmup\"".into()),
        };
        Ok(JobSpec {
            scenario: s("scenario")?,
            flag: s("flag")?,
            kind: s("kind")?,
            seed: u64_str("seed")?,
            reps: u64_str("reps")?,
            team,
            warmup,
        })
    }

    /// FNV-1a 64 over the canonical JSON — the identity a checkpoint
    /// records so `--resume` refuses to splice two different campaigns.
    pub fn fingerprint(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// Build the runnable form: flag raster, kit, config, scenario. Both
    /// the coordinator and every worker call this, so a spec that
    /// materializes at all materializes identically everywhere.
    pub fn materialize(&self) -> Result<MaterializedJob, String> {
        if self.reps == 0 {
            return Err("job spec: need at least one repetition".into());
        }
        if self.team == 0 {
            return Err("job spec: need at least one student".into());
        }
        let spec = library::by_name(&self.flag)
            .ok_or_else(|| format!("job spec: unknown flag {:?}", self.flag))?;
        let kind = ImplementKind::from_token(&self.kind)
            .ok_or_else(|| format!("job spec: unknown implement kind {:?}", self.kind))?;
        let flag = PreparedFlag::new(&spec);
        let scenario = Scenario::builtin(&self.scenario, &flag)
            .ok_or_else(|| format!("job spec: unknown scenario {:?}", self.scenario))?;
        let kit = TeamKit::uniform(kind, &flag.colors_needed(&[]));
        let config = ActivityConfig::default().with_seed(self.seed);
        Ok(MaterializedJob {
            spec,
            flag,
            kit,
            config,
            scenario,
            team: self.team,
            warmup: self.warmup,
            reps: self.reps,
        })
    }
}

/// A [`JobSpec`] turned into the owned values a [`SweepRunner`] borrows.
pub struct MaterializedJob {
    /// The flag's declarative spec.
    pub spec: FlagSpec,
    /// The rasterized flag.
    pub flag: PreparedFlag,
    /// The implement kit.
    pub kit: TeamKit,
    /// Activity configuration carrying the base seed.
    pub config: ActivityConfig,
    /// The scenario to run.
    pub scenario: Scenario,
    /// Students per repetition.
    pub team: usize,
    /// Warm-up effect on fresh teams.
    pub warmup: bool,
    /// Total repetitions.
    pub reps: u64,
}

impl MaterializedJob {
    /// A sweep runner configured exactly like the serial sweep for this
    /// job. Callers use [`SweepRunner::run_rep_stats`] for individual
    /// repetitions (shard executors) or `run()` for the whole campaign
    /// (the in-process degradation path).
    pub fn runner(&self) -> SweepRunner<'_> {
        SweepRunner::new(&self.scenario, &self.flag, &self.kit, &self.config)
            .team_size(self.team)
            .warmup(self.warmup)
            .reps(self.reps)
            .retain_reports(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_telemetry::json;

    fn spec() -> JobSpec {
        JobSpec {
            scenario: "fourslice".into(),
            flag: "Mauritius".into(),
            kind: "thick".into(),
            seed: u64::MAX - 3,
            reps: 1_000_000,
            team: 4,
            warmup: false,
        }
    }

    #[test]
    fn json_round_trips_including_full_width_seeds() {
        let a = spec();
        let v = json::parse(&a.to_json()).unwrap();
        let b = JobSpec::from_value(&v).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.seed, u64::MAX - 3, "seed must survive bit-exactly");
    }

    #[test]
    fn fingerprint_changes_with_any_field() {
        let base = spec().fingerprint();
        for tweak in [
            JobSpec { seed: 1, ..spec() },
            JobSpec { reps: 2, ..spec() },
            JobSpec { scenario: "1".into(), ..spec() },
            JobSpec { warmup: true, ..spec() },
        ] {
            assert_ne!(tweak.fingerprint(), base);
        }
        assert_eq!(spec().fingerprint(), base, "stable for equal specs");
    }

    #[test]
    fn materialize_validates_tokens() {
        assert!(spec().materialize().is_ok());
        assert!(JobSpec { flag: "Atlantis".into(), ..spec() }.materialize().is_err());
        assert!(JobSpec { kind: "chisel".into(), ..spec() }.materialize().is_err());
        assert!(JobSpec { scenario: "9".into(), ..spec() }.materialize().is_err());
        assert!(JobSpec { reps: 0, ..spec() }.materialize().is_err());
        assert!(JobSpec { team: 0, ..spec() }.materialize().is_err());
    }

    #[test]
    fn materialized_rep_matches_inprocess_sweep_rep() {
        // The cross-process determinism contract in one process: the
        // runner a worker builds from the spec produces the same rep
        // outcomes as any other materialization of the same spec.
        let a = spec();
        let ja = a.materialize().unwrap();
        let jb = a.materialize().unwrap();
        for rep in [0u64, 1, 17] {
            let ra = ja.runner().run_rep(rep).unwrap();
            let rb = jb.runner().run_rep(rep).unwrap();
            assert_eq!(ra.completion_secs().to_bits(), rb.completion_secs().to_bits());
            assert_eq!(ra.total_wait_secs().to_bits(), rb.total_wait_secs().to_bits());
        }
    }
}
