//! The fault-tolerant campaign supervisor: `lift-harness campaign`.
//!
//! A *campaign* runs a sharded sweep in worker processes (this binary
//! with `--json --shard i/n`) and owns them: [`run_campaign`] drives a
//! work queue of shards through `N` worker slots under a supervision
//! loop:
//!
//! - **Retry with backoff** — a worker that dies (crash, OOM-kill,
//!   injected fault) has its shard requeued with exponential backoff,
//!   up to a bounded number of retries.
//! - **Liveness timeouts** — progress is tracked through the shard's
//!   checkpoint file (`<base>.shard<i>of<n>`); a worker that makes no
//!   checkpoint progress for the timeout window is killed and its shard
//!   requeued. A hung worker cannot hang the campaign.
//! - **Checkpoint adoption** — the replacement worker is pointed at the
//!   dead worker's checkpoint, so the re-run *replays* the completed
//!   tells instead of re-evaluating them. Because tuning is
//!   deterministic, the adopted run finishes exactly where the dead one
//!   would have, and the merged report stays **byte-identical** to a
//!   fault-free single-process run.
//! - **Graceful degradation** — a shard that exhausts its retries does
//!   not void the campaign: the merged document of every completed cell
//!   is still produced, alongside an explicit manifest of missing cells,
//!   and the campaign reports the infrastructure-failure exit code.
//!
//! Every campaign also produces a machine-readable summary (attempts,
//! retries, adoptions, timeouts, quarantines and wall time per shard)
//! so CI can assert on the supervision behaviour itself, and faults can
//! be injected deterministically per shard (`--fault i:<plan>`, handed
//! to the worker's first attempt as `LIFT_FAULT` — see the driver's
//! fault seam) to rehearse all of the above without flaky sleeps.
//!
//! Workers are configured explicitly from the supervisor's resolved
//! [`RunConfig`] ([`CampaignOptions::config`]): each gets its thread count
//! and the checkpoint base as flags, and the budget, seed, checkpoint
//! cadence and full-size switch as `LIFT_*` variables, so no tuning
//! setting reaches a worker through the environment it inherits.

use std::collections::VecDeque;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};

use lift_driver::TuneOptions;
use lift_tuner::json::Value;

use crate::config::RunConfig;
use crate::report::{merge_available, merge_parts};

/// Everything `lift-harness campaign` configures.
#[derive(Clone)]
pub struct CampaignOptions {
    /// `fig7`, `fig8`, `ablation` or `bench`.
    pub experiment: String,
    /// The benchmark name (`bench` only).
    pub bench: Option<String>,
    /// Large grid size (`bench` only).
    pub large: bool,
    /// Concurrent worker slots.
    pub workers: usize,
    /// Work-queue shards (>= workers is typical; each is one `--shard i/n`
    /// worker invocation).
    pub shards: usize,
    /// Kill a worker after this long without checkpoint progress.
    pub timeout: Duration,
    /// Re-runs allowed per shard beyond the first attempt.
    pub retries: usize,
    /// The supervisor's resolved configuration, handed to every worker.
    /// `config.tune.checkpoint` is the base checkpoint path; `None` uses a
    /// campaign-private temp dir (cleaned up on full success, kept for
    /// adoption-on-rerun after a failure). `config.tune.threads` are the
    /// tuning threads within each worker, and `config.tune.checkpoint_every`
    /// the applied tells between its checkpoint writes: adoption and
    /// liveness are only as fine-grained as the writes, hence default 1.
    pub config: RunConfig,
    /// Deterministic fault plans, `(shard index, LIFT_FAULT plan)`,
    /// injected into that shard's *first* attempt only.
    pub faults: Vec<(usize, String)>,
    /// Base backoff before a retry; doubles per extra attempt (capped).
    pub backoff: Duration,
}

impl CampaignOptions {
    /// Defaults for `experiment`: 2 workers, one shard per worker, 2
    /// retries, 10-minute liveness timeout, 250 ms base backoff, one
    /// tuning thread per worker, a checkpoint write per applied tell.
    pub fn new(experiment: &str) -> Self {
        CampaignOptions {
            experiment: experiment.to_string(),
            bench: None,
            large: false,
            workers: 2,
            shards: 0, // resolved to `workers` in run_campaign
            timeout: Duration::from_secs(600),
            retries: 2,
            config: RunConfig {
                tune: TuneOptions::default().with_checkpoint_every(1),
                ..RunConfig::default()
            },
            faults: Vec::new(),
            backoff: Duration::from_millis(250),
        }
    }
}

/// Per-shard supervision tally for the campaign summary.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Worker processes started for this shard.
    pub attempts: usize,
    /// Attempts beyond the first (crashes + timeouts).
    pub retries: usize,
    /// Attempts that resumed a previous attempt's checkpoint.
    pub adoptions: usize,
    /// Attempts killed for missing the liveness timeout.
    pub timeouts: usize,
    /// Corrupt checkpoint files quarantined under this shard's path.
    pub quarantines: usize,
    /// Total wall time across this shard's attempts, in milliseconds.
    pub wall_ms: u128,
    /// Whether the shard eventually produced its partial report.
    pub ok: bool,
}

/// What a finished campaign hands back to the caller.
pub struct CampaignReport {
    /// The merged JSON document — byte-identical to the single-process
    /// `--json` run when `complete`, the best partial document otherwise.
    pub document: String,
    /// Global cell indices lost to shards that exhausted their retries.
    pub missing_cells: Vec<u64>,
    /// True iff every shard completed and the document is the full sweep.
    pub complete: bool,
    /// Per-shard supervision tallies, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Campaign wall time in milliseconds.
    pub wall_ms: u128,
    /// The machine-readable summary document (see `summary_json`).
    pub summary: String,
}

/// One queued unit of work: a shard and its attempt history.
struct Task {
    shard: usize,
    /// Attempts already made (0 before the first spawn).
    attempts: usize,
    /// Earliest instant the next attempt may start (backoff).
    ready_at: Instant,
}

/// A live worker slot.
struct Running {
    shard: usize,
    child: std::process::Child,
    started: Instant,
    /// Reader threads draining the worker's stdout/stderr pipes — without
    /// them a chatty worker deadlocks against a full pipe buffer.
    stdout: std::thread::JoinHandle<Vec<u8>>,
    stderr: std::thread::JoinHandle<Vec<u8>>,
    /// Last observed `(len, mtime)` of the shard's checkpoint file.
    progress: Option<(u64, SystemTime)>,
    /// When that observation last *changed* — the liveness clock.
    last_progress: Instant,
}

/// A shard worker's own checkpoint path, `<base>.shard<i>of<n>`: shard
/// mode derives it from the configured base (checkpoint files must never
/// be shared across processes), and the supervisor computes the same path
/// to watch and adopt it.
pub fn shard_checkpoint(base: &Path, shard: usize, count: usize) -> PathBuf {
    let mut name = base.as_os_str().to_owned();
    name.push(format!(".shard{shard}of{count}"));
    PathBuf::from(name)
}

/// The checkpoint file's `(len, mtime)` — the cheapest observable proxy
/// for "the worker applied another tell". `None` while no file exists.
fn checkpoint_progress(path: &Path) -> Option<(u64, SystemTime)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()?))
}

/// Counts `<ck>.corrupt-<k>` quarantine files next to a shard checkpoint.
fn count_quarantines(ck: &Path) -> usize {
    let Some(parent) = ck.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return 0;
    };
    let Some(name) = ck.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let prefix = format!("{name}.corrupt-");
    std::fs::read_dir(parent)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with(&prefix))
                })
                .count()
        })
        .unwrap_or(0)
}

/// The command line of one shard worker: `exe --json --shard i/n` with
/// the campaign's thread count and checkpoint base as flags (the worker
/// derives its own `.shard<i>of<n>` path), every other tuning setting of
/// the resolved config as its `LIFT_*` variable, and the shard's fault
/// plan on the first attempt only — replacement workers must run clean or
/// the fault would re-fire forever.
fn worker_command(
    exe: &Path,
    opts: &CampaignOptions,
    shard: usize,
    attempt: usize,
    ck_base: &Path,
) -> Command {
    let tune = &opts.config.tune;
    let mut c = Command::new(exe);
    c.arg("--json")
        .arg("--shard")
        .arg(format!("{shard}/{}", opts.shards))
        .arg("--threads")
        .arg(tune.threads.to_string())
        .arg("--checkpoint")
        .arg(ck_base);
    c.arg(&opts.experiment);
    if let Some(name) = &opts.bench {
        c.arg(name);
    }
    if opts.large {
        c.arg("--large");
    }
    c.env("LIFT_TUNE_BUDGET", tune.evaluations.to_string())
        .env("LIFT_SEED", tune.seed.to_string())
        .env("LIFT_CHECKPOINT_EVERY", tune.checkpoint_every.to_string())
        .env(
            "LIFT_FULL_SIZES",
            if opts.config.full_sizes { "1" } else { "0" },
        );
    // The supervisor may itself run under LIFT_FAULT in a test; workers
    // get a fault only when their shard's plan says so, on attempt 1.
    c.env_remove("LIFT_FAULT");
    if attempt == 1 {
        if let Some((_, plan)) = opts.faults.iter().find(|(s, _)| *s == shard) {
            c.env("LIFT_FAULT", plan);
        }
    }
    c
}

/// Spawns one shard worker (see [`worker_command`]) with its output piped.
fn spawn_worker(
    opts: &CampaignOptions,
    shard: usize,
    attempt: usize,
    ck_base: &Path,
) -> Result<Running, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut c = worker_command(&exe, opts, shard, attempt, ck_base);
    c.stdout(std::process::Stdio::piped());
    c.stderr(std::process::Stdio::piped());
    let mut child = c
        .spawn()
        .map_err(|e| format!("cannot spawn shard {shard}/{}: {e}", opts.shards))?;
    let drain = |stream: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            if let Some(mut s) = stream {
                let _ = s.read_to_end(&mut buf);
            }
            buf
        })
    };
    let stdout = drain(child.stdout.take().map(|s| Box::new(s) as _));
    let stderr = drain(child.stderr.take().map(|s| Box::new(s) as _));
    let now = Instant::now();
    Ok(Running {
        shard,
        child,
        started: now,
        stdout,
        stderr,
        progress: checkpoint_progress(&shard_checkpoint(ck_base, shard, opts.shards)),
        last_progress: now,
    })
}

/// Relays a finished worker's stderr, each line under a `shard i/n:`
/// prefix so interleaved diagnoses stay attributable.
fn relay_stderr(shard: usize, count: usize, bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    for line in text.lines() {
        eprintln!("lift-harness: shard {shard}/{count}: {line}");
    }
}

/// Exponential backoff for attempt `n` (2nd attempt = 1× base), capped
/// at 10 s so a long campaign never parks a shard for minutes.
fn backoff_for(base: Duration, attempts_done: usize) -> Duration {
    let factor = 1u32 << attempts_done.saturating_sub(1).min(6);
    (base * factor).min(Duration::from_secs(10))
}

/// Runs the campaign to completion (or exhaustion). See the module docs
/// for the supervision contract.
///
/// # Errors
///
/// Only *campaign-level* failures error out (cannot create the checkpoint
/// dir, inconsistent partial reports); worker failures are supervised and
/// surface as `complete == false` with a missing-cell manifest.
pub fn run_campaign(opts: &CampaignOptions) -> Result<CampaignReport, String> {
    let mut opts = opts.clone();
    if opts.shards == 0 {
        opts.shards = opts.workers;
    }
    opts.workers = opts.workers.max(1);
    let campaign_started = Instant::now();

    // The checkpoint base: adoption needs durable state, so a campaign
    // without a configured path gets a private temp dir — removed again
    // only when every shard completes (a failed campaign's checkpoints
    // are exactly what a rerun wants to adopt).
    let (ck_base, owned_dir) = match &opts.config.tune.checkpoint {
        Some(path) => (path.clone(), None),
        None => {
            let dir = std::env::temp_dir().join(format!("lift-campaign-{}", std::process::id()));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create campaign dir {}: {e}", dir.display()))?;
            (dir.join("ck.json"), Some(dir))
        }
    };

    let mut stats: Vec<ShardStats> = (0..opts.shards).map(|_| ShardStats::default()).collect();
    let mut parts: Vec<Option<String>> = vec![None; opts.shards];
    let mut pending: VecDeque<Task> = (0..opts.shards)
        .map(|shard| Task {
            shard,
            attempts: 0,
            ready_at: campaign_started,
        })
        .collect();
    let mut running: Vec<Running> = Vec::new();
    let mut failed: Vec<usize> = Vec::new();

    while !pending.is_empty() || !running.is_empty() {
        // Fill free slots with ready work. Tasks still in backoff rotate
        // to the back so a ready shard behind them is not starved.
        let now = Instant::now();
        let mut deferred = 0;
        while running.len() < opts.workers && deferred < pending.len() {
            let task = pending.pop_front().expect("len checked");
            if task.ready_at > now {
                deferred += 1;
                pending.push_back(task);
                continue;
            }
            let attempt = task.attempts + 1;
            let shard_ck = shard_checkpoint(&ck_base, task.shard, opts.shards);
            let s = &mut stats[task.shard];
            s.attempts = attempt;
            if attempt > 1 {
                s.retries += 1;
                if checkpoint_progress(&shard_ck).is_some_and(|(len, _)| len > 0) {
                    // The replacement resumes its predecessor's file:
                    // completed tells replay instead of re-running.
                    s.adoptions += 1;
                    eprintln!(
                        "lift-harness: shard {}/{}: attempt {attempt} adopts checkpoint {}",
                        task.shard,
                        opts.shards,
                        shard_ck.display()
                    );
                }
            }
            match spawn_worker(&opts, task.shard, attempt, &ck_base) {
                Ok(r) => running.push(r),
                Err(e) => {
                    // A spawn failure is an attempt that died at birth:
                    // same retry budget, same backoff.
                    eprintln!("lift-harness: shard {}/{}: {e}", task.shard, opts.shards);
                    if attempt > opts.retries {
                        failed.push(task.shard);
                    } else {
                        pending.push_back(Task {
                            shard: task.shard,
                            attempts: attempt,
                            ready_at: Instant::now() + backoff_for(opts.backoff, attempt),
                        });
                    }
                }
            }
        }

        // Poll the live slots: reap exits, advance liveness clocks, kill
        // the stalled.
        let mut still_running = Vec::new();
        for mut r in running.drain(..) {
            let status = r.child.try_wait().map_err(|e| {
                format!("cannot poll shard {}/{} worker: {e}", r.shard, opts.shards)
            })?;
            let timed_out = status.is_none() && {
                let ck = shard_checkpoint(&ck_base, r.shard, opts.shards);
                let seen = checkpoint_progress(&ck);
                if seen != r.progress {
                    r.progress = seen;
                    r.last_progress = Instant::now();
                }
                r.last_progress.elapsed() > opts.timeout
            };
            let status = if timed_out {
                eprintln!(
                    "lift-harness: shard {}/{}: no checkpoint progress for {:.0?}; killing worker",
                    r.shard, opts.shards, opts.timeout
                );
                stats[r.shard].timeouts += 1;
                let _ = r.child.kill();
                Some(r.child.wait().map_err(|e| {
                    format!("cannot reap shard {}/{} worker: {e}", r.shard, opts.shards)
                })?)
            } else {
                status
            };
            let Some(status) = status else {
                still_running.push(r);
                continue;
            };
            let stdout = r.stdout.join().unwrap_or_default();
            let stderr = r.stderr.join().unwrap_or_default();
            relay_stderr(r.shard, opts.shards, &stderr);
            let s = &mut stats[r.shard];
            s.wall_ms += r.started.elapsed().as_millis();
            let output = if status.success() {
                String::from_utf8(stdout)
                    .map_err(|e| {
                        format!(
                            "shard {}/{} wrote non-UTF-8 output: {e}",
                            r.shard, opts.shards
                        )
                    })
                    .map(Some)
            } else {
                Ok(None)
            };
            match output? {
                Some(text) => {
                    s.ok = true;
                    parts[r.shard] = Some(text);
                }
                None => {
                    if !timed_out {
                        eprintln!(
                            "lift-harness: shard {}/{}: worker failed ({status})",
                            r.shard, opts.shards
                        );
                    }
                    if s.attempts > opts.retries {
                        eprintln!(
                            "lift-harness: shard {}/{}: out of retries ({} attempts); giving up",
                            r.shard, opts.shards, s.attempts
                        );
                        failed.push(r.shard);
                    } else {
                        pending.push_back(Task {
                            shard: r.shard,
                            attempts: s.attempts,
                            ready_at: Instant::now() + backoff_for(opts.backoff, s.attempts),
                        });
                    }
                }
            }
        }
        running = still_running;
        if !running.is_empty() || pending.iter().any(|t| t.ready_at > Instant::now()) {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    // Quarantines happen inside workers; tally them from the filesystem.
    for (shard, s) in stats.iter_mut().enumerate() {
        s.quarantines = count_quarantines(&shard_checkpoint(&ck_base, shard, opts.shards));
    }

    failed.sort_unstable();
    let collected: Vec<(String, String)> = parts
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            p.as_ref()
                .map(|text| (format!("shard {i}/{}", opts.shards), text.clone()))
        })
        .collect();
    let complete = failed.is_empty();
    let (document, missing_cells) = if complete {
        (merge_parts(&collected)?, Vec::new())
    } else if collected.is_empty() {
        // No shard reported at all: derive the manifest from the
        // experiment definition so even a total loss names its cells.
        let total = crate::experiments::experiment_cells(
            &opts.experiment,
            &crate::experiments::ABLATION_BENCHES,
        )
        .unwrap_or(0);
        (String::new(), (0..total as u64).collect())
    } else {
        let (doc, missing) = merge_available(&collected)?;
        (doc, missing)
    };

    if complete {
        if let Some(dir) = owned_dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    } else if let Some(dir) = &owned_dir {
        eprintln!(
            "lift-harness: keeping campaign checkpoints in {} for a rerun to adopt",
            dir.display()
        );
    }

    let wall_ms = campaign_started.elapsed().as_millis();
    let summary = summary_json(&opts, &stats, &missing_cells, complete, wall_ms);
    Ok(CampaignReport {
        document,
        missing_cells,
        complete,
        shards: stats,
        wall_ms,
        summary,
    })
}

/// Schema version of the campaign summary document.
pub const CAMPAIGN_SUMMARY_SCHEMA_VERSION: u64 = 1;

/// Renders the machine-readable campaign summary: campaign parameters,
/// per-shard supervision tallies, aggregate counters (so CI can grep
/// `"total_retries"` without summing), completeness and the missing-cell
/// manifest.
fn summary_json(
    opts: &CampaignOptions,
    stats: &[ShardStats],
    missing: &[u64],
    complete: bool,
    wall_ms: u128,
) -> String {
    let experiment = match &opts.bench {
        Some(name) => format!(
            "{}:{name}:{}",
            opts.experiment,
            if opts.large { "large" } else { "small" }
        ),
        None => opts.experiment.clone(),
    };
    let shard_objs = stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::Obj(vec![
                ("shard".into(), Value::UInt(i as u64)),
                ("attempts".into(), Value::UInt(s.attempts as u64)),
                ("retries".into(), Value::UInt(s.retries as u64)),
                ("adoptions".into(), Value::UInt(s.adoptions as u64)),
                ("timeouts".into(), Value::UInt(s.timeouts as u64)),
                ("quarantines".into(), Value::UInt(s.quarantines as u64)),
                ("wall_ms".into(), Value::UInt(s.wall_ms as u64)),
                ("ok".into(), Value::Bool(s.ok)),
            ])
        })
        .collect();
    let total = |f: fn(&ShardStats) -> usize| -> Value {
        Value::UInt(stats.iter().map(|s| f(s) as u64).sum())
    };
    let doc = Value::Obj(vec![
        (
            "schema_version".into(),
            Value::UInt(CAMPAIGN_SUMMARY_SCHEMA_VERSION),
        ),
        ("experiment".into(), Value::Str(experiment)),
        ("workers".into(), Value::UInt(opts.workers as u64)),
        ("shard_count".into(), Value::UInt(opts.shards as u64)),
        ("retries_allowed".into(), Value::UInt(opts.retries as u64)),
        ("timeout_s".into(), Value::UInt(opts.timeout.as_secs())),
        ("complete".into(), Value::Bool(complete)),
        (
            "missing_cells".into(),
            Value::Arr(missing.iter().map(|c| Value::UInt(*c)).collect()),
        ),
        ("total_retries".into(), total(|s| s.retries)),
        ("total_adoptions".into(), total(|s| s.adoptions)),
        ("total_timeouts".into(), total(|s| s.timeouts)),
        ("total_quarantines".into(), total(|s| s.quarantines)),
        ("total_wall_ms".into(), Value::UInt(wall_ms as u64)),
        ("shards".into(), Value::Arr(shard_objs)),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    text
}

impl CampaignReport {
    /// The human-readable supervision summary, for stderr.
    pub fn render_summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "campaign: {} shard(s), {} ms wall\n",
            self.shards.len(),
            self.wall_ms
        ));
        for (i, st) in self.shards.iter().enumerate() {
            s.push_str(&format!(
                "  shard {i}: {} attempt(s), {} retr{}, {} adoption(s), {} timeout(s), \
                 {} quarantine(s), {} ms — {}\n",
                st.attempts,
                st.retries,
                if st.retries == 1 { "y" } else { "ies" },
                st.adoptions,
                st.timeouts,
                st.quarantines,
                st.wall_ms,
                if st.ok { "ok" } else { "FAILED" }
            ));
        }
        if !self.complete {
            s.push_str(&format!(
                "campaign INCOMPLETE: missing cell(s) {:?}\n",
                self.missing_cells
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(250);
        assert_eq!(backoff_for(base, 1), Duration::from_millis(250));
        assert_eq!(backoff_for(base, 2), Duration::from_millis(500));
        assert_eq!(backoff_for(base, 3), Duration::from_millis(1000));
        // Deep retry counts saturate at the cap instead of overflowing.
        assert_eq!(backoff_for(base, 60), Duration::from_secs(10));
    }

    #[test]
    fn shard_checkpoint_matches_the_worker_derivation() {
        // Shard workers and the supervisor share this derivation; adoption
        // and liveness both depend on the exact name.
        assert_eq!(
            shard_checkpoint(Path::new("/tmp/ck.json"), 2, 5),
            PathBuf::from("/tmp/ck.json.shard2of5")
        );
    }

    #[test]
    fn quarantine_counting_matches_the_driver_naming() {
        let dir = std::env::temp_dir().join(format!("lift-quarcount-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json.shard0of2");
        std::fs::write(&ck, "x").unwrap();
        assert_eq!(count_quarantines(&ck), 0);
        std::fs::write(dir.join("ck.json.shard0of2.corrupt-1"), "x").unwrap();
        std::fs::write(dir.join("ck.json.shard0of2.corrupt-2"), "x").unwrap();
        // A neighbour shard's quarantine is not ours.
        std::fs::write(dir.join("ck.json.shard1of2.corrupt-1"), "x").unwrap();
        assert_eq!(count_quarantines(&ck), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workers_get_every_tuning_setting_of_the_resolved_config() {
        let mut opts = CampaignOptions::new("bench");
        opts.bench = Some("Heat".into());
        opts.shards = 3;
        opts.faults = vec![(1, "exit-after:2".into())];
        opts.config = RunConfig {
            tune: TuneOptions::evaluations(3)
                .with_seed(7)
                .with_threads(2)
                .with_checkpoint_every(4),
            full_sizes: true,
        };
        let env = |c: &Command, name: &str| {
            c.get_envs()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.map(|v| v.to_string_lossy().into_owned()))
        };
        let c = worker_command(Path::new("lift-harness"), &opts, 1, 1, Path::new("ck.json"));
        let args: Vec<_> = c.get_args().map(|a| a.to_string_lossy()).collect();
        assert_eq!(
            args,
            [
                "--json",
                "--shard",
                "1/3",
                "--threads",
                "2",
                "--checkpoint",
                "ck.json",
                "bench",
                "Heat"
            ]
        );
        for (name, value) in [
            ("LIFT_TUNE_BUDGET", "3"),
            ("LIFT_SEED", "7"),
            ("LIFT_CHECKPOINT_EVERY", "4"),
            ("LIFT_FULL_SIZES", "1"),
            ("LIFT_FAULT", "exit-after:2"),
        ] {
            assert_eq!(env(&c, name), Some(Some(value.to_string())), "{name}");
        }
        // The worker's own config resolves back to the supervisor's.
        let resolved = RunConfig::default()
            .resolve(&crate::ConfigFlags::default(), |k| env(&c, k).flatten())
            .unwrap();
        assert_eq!(resolved.tune.evaluations, 3);
        assert_eq!(resolved.tune.seed, 7);
        assert!(resolved.full_sizes);
        // A replacement attempt, and any other shard, runs fault-free.
        for (shard, attempt) in [(1, 2), (0, 1)] {
            let c = worker_command(Path::new("w"), &opts, shard, attempt, Path::new("ck"));
            assert_eq!(
                env(&c, "LIFT_FAULT"),
                Some(None),
                "shard {shard} attempt {attempt}"
            );
        }
    }

    #[test]
    fn summary_is_parseable_and_carries_totals() {
        let mut opts = CampaignOptions::new("fig7");
        opts.shards = 2;
        let stats = vec![
            ShardStats {
                attempts: 2,
                retries: 1,
                adoptions: 1,
                timeouts: 0,
                quarantines: 0,
                wall_ms: 10,
                ok: true,
            },
            ShardStats {
                attempts: 3,
                retries: 2,
                adoptions: 1,
                timeouts: 1,
                quarantines: 1,
                wall_ms: 20,
                ok: false,
            },
        ];
        let text = summary_json(&opts, &stats, &[1, 4], false, 42);
        let doc = Value::parse(&text).expect("summary is valid JSON");
        assert_eq!(doc.get("total_retries").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("total_adoptions").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("total_timeouts").and_then(Value::as_u64), Some(1));
        assert_eq!(
            doc.get("total_quarantines").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(doc.get("complete").and_then(Value::as_bool), Some(false));
        let missing = doc.get("missing_cells").and_then(Value::as_arr).unwrap();
        assert_eq!(missing.len(), 2);
        let shards = doc.get("shards").and_then(Value::as_arr).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].get("ok").and_then(Value::as_bool), Some(false));
    }
}
