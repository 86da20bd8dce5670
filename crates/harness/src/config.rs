//! The run configuration: every setting an experiment run takes, as one
//! typed value.
//!
//! [`RunConfig`] wraps the driver's [`TuneOptions`] (budget, seed,
//! threads, checkpointing) and adds the one setting that is not about
//! tuning: the paper's full grid sizes. The `lift-harness` binary builds
//! it once, in `main`, with [`RunConfig::resolve`] — flags beat the
//! environment, which beats the defaults — and every experiment receives
//! it as `&RunConfig`. The resolver is pure: it takes the environment
//! lookup as a parameter, and no library crate reads the environment
//! itself.
//!
//! [`RunConfig::resolve`] reads six `LIFT_*` variables (budget, seed,
//! threads, checkpoint file and cadence, full sizes; `lift-harness --help`
//! lists them with their defaults). [`resolve_fault`] reads the seventh,
//! `LIFT_FAULT`, which arms a process-wide seam rather than configuring a
//! run. An empty value counts as unset; a malformed one is a
//! [`ConfigError`] naming its variable. Any other variable, a retired one
//! included, is ignored.

use lift_driver::fault::{parse_plan, FaultPlan};
use lift_driver::TuneOptions;

/// Everything an experiment run is configured by.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunConfig {
    /// Tuning options; `tune.threads` is the thread budget a sweep splits
    /// between its cells and their tuners.
    pub tune: TuneOptions,
    /// Run the paper's original grid sizes instead of the scaled ones.
    pub full_sizes: bool,
}

/// Settings given on the command line, raw as typed (validated by
/// [`RunConfig::resolve`] exactly like their environment spellings).
#[derive(Debug, Clone, Default)]
pub struct ConfigFlags {
    /// `--threads <N>`.
    pub threads: Option<String>,
    /// `--checkpoint <PATH>`.
    pub checkpoint: Option<String>,
}

/// A malformed setting: the flag or variable that carried it, the value,
/// and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The flag (`--threads`) or environment variable (`LIFT_SEED`).
    pub setting: &'static str,
    /// The rejected value.
    pub value: String,
    /// What is wrong, usually as what a valid value looks like.
    pub problem: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} `{}`: {}",
            self.setting, self.value, self.problem
        )
    }
}

impl std::error::Error for ConfigError {}

fn invalid(setting: &'static str, value: &str, problem: &str) -> ConfigError {
    ConfigError {
        setting,
        value: value.to_string(),
        problem: problem.to_string(),
    }
}

fn positive(setting: &'static str, value: &str) -> Result<usize, ConfigError> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(invalid(setting, value, "expected a positive integer")),
    }
}

impl RunConfig {
    /// Layers `env` and then `flags` over `self` (the defaults): a flag
    /// beats its environment variable, which beats the default. `env`
    /// looks a variable up by name; an empty value counts as unset.
    ///
    /// # Errors
    ///
    /// The first malformed setting, naming its flag or variable.
    pub fn resolve(
        mut self,
        flags: &ConfigFlags,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<RunConfig, ConfigError> {
        let var = |name: &'static str| env(name).filter(|v| !v.is_empty()).map(|v| (name, v));
        let flag = |name: &'static str, value: &Option<String>| value.clone().map(|v| (name, v));
        let tune = &mut self.tune;
        if let Some((name, v)) = var("LIFT_TUNE_BUDGET") {
            tune.evaluations = positive(name, &v)?;
        }
        if let Some((name, v)) = var("LIFT_SEED") {
            tune.seed = v
                .parse()
                .map_err(|_| invalid(name, &v, "expected a non-negative integer"))?;
        }
        if let Some((name, v)) =
            flag("--threads", &flags.threads).or_else(|| var("LIFT_TUNE_THREADS"))
        {
            tune.threads = positive(name, &v)?;
        }
        if let Some((name, v)) =
            flag("--checkpoint", &flags.checkpoint).or_else(|| var("LIFT_CHECKPOINT"))
        {
            if v.is_empty() {
                return Err(invalid(name, &v, "expected a file path"));
            }
            tune.checkpoint = Some(v.into());
        }
        if let Some((name, v)) = var("LIFT_CHECKPOINT_EVERY") {
            tune.checkpoint_every = positive(name, &v)?;
        }
        if let Some((name, v)) = var("LIFT_FULL_SIZES") {
            self.full_sizes = match v.as_str() {
                "1" => true,
                "0" => false,
                _ => return Err(invalid(name, &v, "expected `0` or `1`")),
            };
        }
        Ok(self)
    }
}

/// The fault plan `LIFT_FAULT` asks for, if any (an empty value counts as
/// unset). The caller arms it with [`lift_driver::fault::arm`].
///
/// # Errors
///
/// An unparseable plan — junk must never run as a silently fault-free
/// "chaos" run.
pub fn resolve_fault(
    env: impl Fn(&str) -> Option<String>,
) -> Result<Option<FaultPlan>, ConfigError> {
    let Some(raw) = env("LIFT_FAULT").filter(|v| !v.trim().is_empty()) else {
        return Ok(None);
    };
    parse_plan(raw.trim())
        .map(Some)
        .map_err(|e| invalid("LIFT_FAULT", &raw, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(flags: &ConfigFlags, env: &[(&str, &str)]) -> Result<RunConfig, ConfigError> {
        RunConfig::default().resolve(flags, |k| {
            env.iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn defaults_apply_when_nothing_is_set() {
        let cfg = resolve(&ConfigFlags::default(), &[]).unwrap();
        assert_eq!(cfg, RunConfig::default());
        assert_eq!(cfg.tune.evaluations, 10);
        assert_eq!(cfg.tune.seed, 2018);
        assert_eq!(cfg.tune.threads, 1);
        assert_eq!(cfg.tune.checkpoint_every, 16);
        assert!(!cfg.full_sizes);
    }

    #[test]
    fn env_beats_the_default() {
        let cfg = resolve(
            &ConfigFlags::default(),
            &[
                ("LIFT_TUNE_BUDGET", "4"),
                ("LIFT_SEED", "7"),
                ("LIFT_TUNE_THREADS", "3"),
                ("LIFT_CHECKPOINT", "ck.json"),
                ("LIFT_CHECKPOINT_EVERY", "2"),
                ("LIFT_FULL_SIZES", "1"),
            ],
        )
        .unwrap();
        assert_eq!(cfg.tune.evaluations, 4);
        assert_eq!(cfg.tune.seed, 7);
        assert_eq!(cfg.tune.threads, 3);
        assert_eq!(cfg.tune.checkpoint, Some("ck.json".into()));
        assert_eq!(cfg.tune.checkpoint_every, 2);
        assert!(cfg.full_sizes);
        // The caller's defaults are what env overrides, not the crate's.
        let campaign = RunConfig {
            tune: TuneOptions::default().with_checkpoint_every(1),
            ..RunConfig::default()
        };
        let cfg = campaign.resolve(&ConfigFlags::default(), |_| None).unwrap();
        assert_eq!(cfg.tune.checkpoint_every, 1);
    }

    #[test]
    fn a_flag_beats_env() {
        let flags = ConfigFlags {
            threads: Some("4".into()),
            checkpoint: Some("flag.json".into()),
        };
        let cfg = resolve(
            &flags,
            &[("LIFT_TUNE_THREADS", "2"), ("LIFT_CHECKPOINT", "env.json")],
        )
        .unwrap();
        assert_eq!(cfg.tune.threads, 4);
        assert_eq!(cfg.tune.checkpoint, Some("flag.json".into()));
    }

    #[test]
    fn empty_values_count_as_unset() {
        let env: Vec<(&str, &str)> = [
            "LIFT_TUNE_BUDGET",
            "LIFT_SEED",
            "LIFT_TUNE_THREADS",
            "LIFT_CHECKPOINT",
            "LIFT_CHECKPOINT_EVERY",
            "LIFT_FULL_SIZES",
        ]
        .iter()
        .map(|v| (*v, ""))
        .collect();
        assert_eq!(
            resolve(&ConfigFlags::default(), &env).unwrap(),
            RunConfig::default()
        );
    }

    #[test]
    fn every_malformed_value_is_an_error_naming_its_setting() {
        let cases = [
            ("LIFT_TUNE_BUDGET", "abc"),
            ("LIFT_TUNE_BUDGET", "-1"),
            ("LIFT_TUNE_BUDGET", "0"),
            ("LIFT_SEED", "x"),
            ("LIFT_TUNE_THREADS", "0"),
            ("LIFT_TUNE_THREADS", "many"),
            ("LIFT_CHECKPOINT_EVERY", "abc"),
            ("LIFT_CHECKPOINT_EVERY", "0"),
            ("LIFT_FULL_SIZES", "true"),
        ];
        for (name, value) in cases {
            let err = resolve(&ConfigFlags::default(), &[(name, value)])
                .expect_err(&format!("{name}={value} must be rejected"));
            assert_eq!(err.setting, name);
            assert_eq!(err.value, value);
            assert!(err.to_string().contains(name), "{err}");
        }
        let bad_flags = [
            ConfigFlags {
                threads: Some("0".into()),
                ..ConfigFlags::default()
            },
            ConfigFlags {
                checkpoint: Some(String::new()),
                ..ConfigFlags::default()
            },
        ];
        for flags in bad_flags {
            let err = resolve(&flags, &[]).expect_err("bad flag");
            assert!(err.setting.starts_with("--"), "{err}");
        }
    }

    #[test]
    fn fault_plans_resolve_or_fail_loudly() {
        let env = |v: &'static str| move |k: &str| (k == "LIFT_FAULT").then(|| v.to_string());
        assert_eq!(resolve_fault(env("")), Ok(None));
        assert_eq!(
            resolve_fault(env("exit-after:2")),
            Ok(Some(FaultPlan::ExitAfterTells(2)))
        );
        let err = resolve_fault(env("segfault-please")).unwrap_err();
        assert_eq!(err.setting, "LIFT_FAULT");
    }
}
