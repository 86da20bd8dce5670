//! Command-line driver for the paper's experiments.
//!
//! ```text
//! lift-harness table1             # Table 1 (benchmark inventory)
//! lift-harness fig7               # Figure 7 (Lift vs hand-written kernels)
//! lift-harness fig8               # Figure 8 (Lift vs PPCG)
//! lift-harness ablation           # per-variant rewrite-rule ablation
//! lift-harness bench <name>       # one Table-1 benchmark in isolation
//! lift-harness bench <name> --large   # …at the large grid size
//! lift-harness all                # every experiment above
//! lift-harness --json fig7        # machine-readable output for CI
//! lift-harness --threads 8 all    # parallel sweep (same results, sooner)
//! lift-harness --list-benchmarks  # exact names, ranks and domain sizes
//! lift-harness verify [--json]    # static verifier over every kernel
//!                                 # (non-zero exit on any finding)
//!
//! # Distributed & resumable tuning:
//! lift-harness --checkpoint ck.json fig7         # resumable (kill + rerun)
//! lift-harness --json --shard 0/3 fig7 > p0.json # one worker's share
//! lift-harness merge p0.json p1.json p2.json     # == single-process --json
//! lift-harness campaign fig7 --workers 3         # shard + merge, supervised:
//!                                                # retry, timeout, checkpoint
//!                                                # adoption
//! ```
//!
//! `--threads N` (equivalently `LIFT_TUNE_THREADS=N`) fans the benchmark ×
//! device sweep and each cell's variants out over `N` workers *within*
//! this process. `--shard i/n` distributes the same grid *across*
//! processes: each worker prints a partial JSON report and `merge`
//! recombines a complete set byte-identically to the single-process
//! document. `--checkpoint PATH` (equivalently `LIFT_CHECKPOINT=PATH`)
//! makes tuning resumable: a killed run rerun with the same flag picks up
//! from the file and prints exactly what the uninterrupted run would
//! have. None of the three ever changes results — only wall-clock.
//!
//! `campaign` runs the shards in worker processes and merges them: a
//! supervision loop drives the shard queue through worker slots with
//! liveness timeouts, bounded retries with backoff, and checkpoint
//! adoption — a replacement worker resumes its dead predecessor's
//! `<path>.shard<i>of<n>` file, so even a faulted campaign's merged
//! report is byte-identical to the fault-free single-process run.
//!
//! Configuration is resolved here and only here: `main` parses the flags,
//! layers them over the `LIFT_*` environment variables and the defaults
//! into one [`RunConfig`] (flags > env > defaults), arms the `LIFT_FAULT`
//! seam, and passes the config to the experiments as an argument. The
//! library crates read no environment. A malformed value is a usage error.
//!
//! Exit codes: 0 on success, 1 when an experiment fails (e.g. no valid
//! configuration for a benchmark — a broken compiler must fail CI), 2 for
//! usage errors (flags or `LIFT_*` variables), 3 when infrastructure
//! fails (a campaign shard exhausts its retries — the experiment itself
//! may be fine, rerun or adopt).

#![forbid(unsafe_code)]

use lift_driver::TuneOptions;
use lift_harness::campaign::shard_checkpoint;
use lift_harness::config::resolve_fault;
use lift_harness::report::{
    json_ablation, json_bench, json_fig7, json_fig8, json_str, json_table1, json_verify,
    merge_parts, partial_ablation, partial_bench, partial_fig7, partial_fig8, render_ablation,
    render_bench, render_fig7, render_fig8, render_table1, render_verify,
};
use lift_harness::{
    ablation_shard, bench_shard, fig7_shard, fig8_shard, parallel_map, table1, validate_shard,
    verify_sweep, ConfigFlags, LiftError, RunConfig, Shard, ABLATION_BENCHES,
};

const USAGE: &str = "\
lift-harness — regenerate the paper's tables and figures

USAGE:
    lift-harness [FLAGS] [table1|fig7|fig8|ablation|bench <name>|all]
    lift-harness merge <part.json>...
    lift-harness campaign <fig7|fig8|ablation|bench <name>> [OPTIONS]
                                    (supervised sharded sweep: a work queue
                                     of shards driven through worker slots
                                     with liveness timeouts, bounded
                                     retries + backoff, and checkpoint
                                     adoption — dead workers' successors
                                     resume their checkpoints, keeping the
                                     merged report byte-identical to a
                                     fault-free single-process run)
    lift-harness verify [--json]    (static bounds/race/divergence/init
                                     verification of every benchmark x
                                     device x variant kernel; exits 1 on
                                     any finding — the CI safety gate)
    lift-harness --list-benchmarks [--json]

FLAGS:
    --json                machine-readable JSON instead of text
    --large               use the large grid size (bench <name> and
                          campaign bench <name> only)
    --threads <N>         worker threads within this process
                          (= LIFT_TUNE_THREADS)
    --checkpoint <PATH>   resumable tuning: write search state to PATH and
                          resume from it on rerun (= LIFT_CHECKPOINT)
    --shard <i/n>         run only grid cells with index % n == i and print
                          a partial JSON report (fig7/fig8/ablation/bench;
                          requires --json)
    --list-benchmarks     list benchmark names, ranks and domain sizes
    -h, --help            this help

CAMPAIGN OPTIONS (campaign <experiment> only):
    --workers <N>         concurrent worker slots (default 2)
    --shards <M>          work-queue shards (default: --workers)
    --timeout <SECS>      kill a worker after SECS without checkpoint
                          progress and requeue its shard (default 600)
    --retries <K>         re-runs allowed per shard beyond the first
                          attempt (default 2); an exhausted shard leaves
                          a partial report + missing-cell manifest and
                          exit code 3
    --summary <PATH>      write the machine-readable campaign summary
                          (per-shard attempts/retries/adoptions/timeouts/
                          quarantines/wall time) to PATH
    --fault <i:PLAN>      inject LIFT_FAULT=PLAN into shard i's first
                          attempt (repeatable; plans: exit-after:<k>,
                          stall[-after:<k>], truncate-checkpoint:<k>) —
                          deterministic chaos testing of the supervisor

EXIT CODES:
    0   success
    1   experiment failure (no valid configuration, verifier finding)
    2   command-line misuse, or a malformed LIFT_* variable
    3   infrastructure failure: a campaign shard exhausted its retries
        (partial report + missing-cell manifest were still emitted)

Sharding, checkpointing, threading and campaign supervision never change
results: any combination — including workers killed and resumed through
checkpoint adoption — reproduces the single-process, single-thread output
byte-for-byte for the same seed.

ENVIRONMENT (a flag wins over its variable; an empty value counts as
unset; a malformed value is a usage error, exit 2):
    LIFT_TUNE_BUDGET      tuner evaluations per variant (default 10)
    LIFT_TUNE_THREADS     worker threads (default 1; = --threads)
    LIFT_CHECKPOINT       checkpoint file (default: none; = --checkpoint)
    LIFT_CHECKPOINT_EVERY tells between checkpoint writes (default 16;
                          campaign workers default to 1)
    LIFT_FULL_SIZES       1 = the paper's original grid sizes (slow),
                          0 = the scaled sizes (default)
    LIFT_SEED             experiment seed (default 2018)
    LIFT_FAULT            deterministic fault injection (testing only):
                          exit-after:<k> | stall[-after:<k>] |
                          truncate-checkpoint:<k>. Injected processes
                          exit with code 86.
";

/// Every command `main` dispatches; `all` is the default.
const COMMANDS: [&str; 9] = [
    "table1", "fig7", "fig8", "ablation", "bench", "all", "merge", "verify", "campaign",
];

/// Exit code for infrastructure failures (dead shard workers, campaign
/// shards out of retries) — distinct from experiment failures (1) and
/// CLI misuse (2) so CI can retry infra without masking regressions.
const EXIT_INFRA: i32 = 3;

/// Renders one experiment to its output document.
fn section(cmd: &str, json: bool, cfg: &RunConfig) -> Result<String, LiftError> {
    let whole = (0, 1);
    Ok(match (cmd, json) {
        ("table1", true) => json_table1(&table1()),
        ("table1", false) => render_table1(&table1()),
        ("fig7", true) => json_fig7(&fig7_shard(cfg, whole)?.flatten()),
        ("fig7", false) => render_fig7(&fig7_shard(cfg, whole)?.flatten()),
        ("fig8", true) => json_fig8(&fig8_shard(cfg, whole)?.flatten()),
        ("fig8", false) => render_fig8(&fig8_shard(cfg, whole)?.flatten()),
        ("ablation", true) => {
            json_ablation(&ablation_shard(cfg, &ABLATION_BENCHES, whole)?.flatten())
        }
        ("ablation", false) => {
            render_ablation(&ablation_shard(cfg, &ABLATION_BENCHES, whole)?.flatten())
        }
        _ => unreachable!("callers dispatch only known experiments"),
    })
}

/// Renders the four `all` sections, generating them concurrently when a
/// thread budget allows — each section is an independent sweep, so this
/// overlaps e.g. Figure 7's tuning with the ablation study's. The budget
/// is *divided* across the concurrent sections (each sweep splits its
/// share further), not handed to every layer in full.
fn all_sections(json: bool, cfg: &RunConfig) -> Result<Vec<String>, LiftError> {
    let cmds = vec!["table1", "fig7", "fig8", "ablation"];
    let budget = cfg.tune.threads;
    let concurrent = budget.min(cmds.len()).max(1);
    let share = RunConfig {
        tune: cfg.tune.clone().with_threads((budget / concurrent).max(1)),
        ..cfg.clone()
    };
    parallel_map(concurrent, cmds, |cmd| section(cmd, json, &share))
        .into_iter()
        .collect()
}

fn run_bench(cfg: &RunConfig, name: &str, large: bool, json: bool) -> Result<(), LiftError> {
    let rows = bench_shard(cfg, name, large, (0, 1))?.flatten();
    print!(
        "{}",
        if json {
            json_bench(&rows)
        } else {
            render_bench(&rows)
        }
    );
    Ok(())
}

/// Runs one shard of a sweep and prints its partial JSON report.
fn run_shard(
    cfg: &RunConfig,
    cmd: &str,
    bench_name: Option<&str>,
    large: bool,
    shard: Shard,
) -> Result<(), LiftError> {
    let doc = match cmd {
        "fig7" => partial_fig7(shard, cfg, &fig7_shard(cfg, shard)?),
        "fig8" => partial_fig8(shard, cfg, &fig8_shard(cfg, shard)?),
        "ablation" => partial_ablation(shard, cfg, &ablation_shard(cfg, &ABLATION_BENCHES, shard)?),
        "bench" => {
            let name = bench_name.expect("checked by the caller");
            partial_bench(
                name,
                large,
                shard,
                cfg,
                &bench_shard(cfg, name, large, shard)?,
            )
        }
        _ => unreachable!("callers dispatch only shardable experiments"),
    };
    print!("{doc}");
    Ok(())
}

/// Parses `campaign` arguments, runs the supervised sweep, and exits:
/// 0 when every shard completed (stdout carries the merged document,
/// byte-identical to the single-process `--json` run), [`EXIT_INFRA`]
/// when a shard exhausted its retries (stdout still carries the partial
/// document; stderr and the summary carry the missing-cell manifest),
/// 2 on misuse.
#[allow(clippy::too_many_arguments)]
fn run_campaign_cmd(
    args: &[String],
    large: bool,
    cfg: &RunConfig,
    workers: Option<&str>,
    shards: Option<&str>,
    timeout: Option<&str>,
    retries: Option<&str>,
    summary: Option<&str>,
    faults: &[String],
) -> ! {
    let Some(experiment) = args.first() else {
        usage_error("campaign needs an experiment: campaign <fig7|fig8|ablation|bench <name>>");
    };
    if !matches!(experiment.as_str(), "fig7" | "fig8" | "ablation" | "bench") {
        usage_error(&format!(
            "campaign cannot run `{experiment}`; use fig7|fig8|ablation|bench <name>"
        ));
    }
    let mut opts = lift_harness::CampaignOptions::new(experiment);
    opts.large = large;
    if experiment == "bench" {
        opts.bench = Some(bench_name_arg(args.get(1)));
        if args.len() > 2 {
            usage_error(&format!("unexpected argument `{}`", args[2]));
        }
    } else if args.len() > 1 {
        usage_error(&format!("unexpected argument `{}`", args[1]));
    }
    let positive = |flag: &str, v: &str| -> usize {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!("{flag} needs a positive integer, got `{v}`")),
        }
    };
    if let Some(v) = workers {
        opts.workers = positive("--workers", v);
    }
    opts.shards = match shards {
        Some(v) => positive("--shards", v),
        None => opts.workers,
    };
    if let Some(v) = timeout {
        opts.timeout = std::time::Duration::from_secs(positive("--timeout", v) as u64);
    }
    if let Some(v) = retries {
        opts.retries = v.parse::<usize>().unwrap_or_else(|_| {
            usage_error(&format!(
                "--retries needs a non-negative integer, got `{v}`"
            ))
        });
    }
    for f in faults {
        let parsed = f.split_once(':').and_then(|(i, plan)| {
            i.parse::<usize>()
                .ok()
                .filter(|i| *i < opts.shards)
                .map(|i| (i, plan.to_string()))
        });
        let Some((shard, plan)) = parsed else {
            usage_error(&format!(
                "--fault needs <shard>:<plan> with shard < {}, got `{f}`",
                opts.shards
            ));
        };
        // A plan the worker cannot parse would make the "chaos" run
        // silently fault-free; reject it here, before any worker starts.
        if let Err(e) = lift_driver::fault::parse_plan(&plan) {
            usage_error(&format!("--fault `{f}`: {e}"));
        }
        opts.faults.push((shard, plan));
    }
    opts.config = cfg.clone();
    let report = match lift_harness::run_campaign(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lift-harness: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = summary {
        if let Err(e) = std::fs::write(path, &report.summary) {
            eprintln!("lift-harness: cannot write summary {path}: {e}");
            std::process::exit(1);
        }
    }
    eprint!("{}", report.render_summary());
    print!("{}", report.document);
    if !report.complete {
        eprintln!(
            "lift-harness: campaign incomplete: cells {:?} missing after retries; exit {EXIT_INFRA}",
            report.missing_cells
        );
        std::process::exit(EXIT_INFRA);
    }
    std::process::exit(0);
}

/// Reads and merges partial reports from files.
fn run_merge(files: &[String]) -> Result<(), String> {
    let mut parts = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        parts.push((f.clone(), text));
    }
    print!("{}", merge_parts(&parts)?);
    Ok(())
}

/// Prints the benchmark inventory: exact names (as `bench <name>` and the
/// shard documentation reference them), rank and domain sizes.
fn list_benchmarks(json: bool) {
    let fmt_size = |s: &[usize]| {
        s.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x")
    };
    let suite = lift_stencils::suite();
    if json {
        let rows: Vec<String> = suite
            .iter()
            .map(|b| {
                format!(
                    "{{\"name\": {}, \"rank\": {}, \"small\": {}, \"large\": {}}}",
                    json_str(b.name),
                    b.dims,
                    json_str(&fmt_size(b.small)),
                    b.large
                        .map(|l| json_str(&fmt_size(l)))
                        .unwrap_or_else(|| "null".to_string())
                )
            })
            .collect();
        println!("[\n  {}\n]", rows.join(",\n  "));
    } else {
        println!("Table-1 benchmarks (names as `bench <name>` expects them):");
        println!(
            "  {:<14}{:>5}  {:<14}{:<14}",
            "Name", "Rank", "Small", "Large"
        );
        for b in &suite {
            println!(
                "  {:<14}{:>4}D  {:<14}{:<14}",
                b.name,
                b.dims,
                fmt_size(b.small),
                b.large.map(fmt_size).unwrap_or_else(|| "—".to_string())
            );
        }
        println!(
            "\n{} benchmarks; sizes honour LIFT_FULL_SIZES=1.",
            suite.len()
        );
    }
}

fn run(cmd: &str, json: bool, cfg: &RunConfig) -> Result<(), LiftError> {
    match cmd {
        "table1" | "fig7" | "fig8" | "ablation" => print!("{}", section(cmd, json, cfg)?),
        "all" if json => {
            // One parseable document, not four concatenated arrays.
            let s = all_sections(true, cfg)?;
            print!(
                "{{\n\"table1\": {},\n\"fig7\": {},\n\"fig8\": {},\n\"ablation\": {}\n}}\n",
                s[0].trim_end(),
                s[1].trim_end(),
                s[2].trim_end(),
                s[3].trim_end()
            );
        }
        "all" => {
            for (i, s) in all_sections(false, cfg)?.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{s}");
            }
        }
        _ => unreachable!("main rejects unknown commands"),
    }
    Ok(())
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The `bench <name>` argument, a usage error unless it names a Table-1
/// benchmark — raised before any tuning or worker starts.
fn bench_name_arg(name: Option<&String>) -> String {
    match name {
        Some(name) if lift_stencils::suite().iter().any(|b| b.name == name) => name.clone(),
        Some(name) => usage_error(&format!(
            "unknown benchmark `{name}`; try `lift-harness --list-benchmarks`"
        )),
        None => usage_error("`bench` needs a benchmark name; try `lift-harness --list-benchmarks`"),
    }
}

fn main() {
    let mut json = false;
    let mut large = false;
    let mut list = false;
    let mut flags = ConfigFlags::default();
    let mut shard_flag: Option<String> = None;
    let mut campaign_workers_flag: Option<String> = None;
    let mut shards_flag: Option<String> = None;
    let mut timeout_flag: Option<String> = None;
    let mut retries_flag: Option<String> = None;
    let mut summary_flag: Option<String> = None;
    let mut fault_flags: Vec<String> = Vec::new();
    let mut expect_value: Option<&'static str> = None;
    let mut positional: Vec<String> = Vec::new();
    const VALUE_FLAGS: [&str; 9] = [
        "--threads",
        "--checkpoint",
        "--shard",
        "--workers",
        "--shards",
        "--timeout",
        "--retries",
        "--summary",
        "--fault",
    ];
    for arg in std::env::args().skip(1) {
        if let Some(flag) = expect_value.take() {
            match flag {
                "--threads" => flags.threads = Some(arg),
                "--checkpoint" => flags.checkpoint = Some(arg),
                "--shard" => shard_flag = Some(arg),
                "--workers" => campaign_workers_flag = Some(arg),
                "--shards" => shards_flag = Some(arg),
                "--timeout" => timeout_flag = Some(arg),
                "--retries" => retries_flag = Some(arg),
                "--summary" => summary_flag = Some(arg),
                "--fault" => fault_flags.push(arg),
                _ => unreachable!(),
            }
            continue;
        }
        match arg.as_str() {
            "--json" => json = true,
            "--large" => large = true,
            "--list-benchmarks" => list = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            f if VALUE_FLAGS.contains(&f) => {
                expect_value = Some(
                    VALUE_FLAGS
                        .iter()
                        .find(|v| **v == f)
                        .expect("contains checked"),
                );
            }
            other => positional.push(other.to_string()),
        }
    }
    if let Some(flag) = expect_value {
        usage_error(&format!("{flag} needs a value"));
    }
    let cmd = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    if !COMMANDS.contains(&cmd.as_str()) {
        usage_error(&format!(
            "unknown experiment `{cmd}`; use {} (or --help)",
            COMMANDS.join("|")
        ));
    }
    // A selection flag is rejected wherever it would be silently ignored.
    let shardable = matches!(cmd.as_str(), "fig7" | "fig8" | "ablation" | "bench");
    if shard_flag.is_some() && (list || !shardable) {
        usage_error(if cmd == "campaign" {
            "campaign supervises its own workers; drop --shard"
        } else {
            "--shard applies to fig7|fig8|ablation|bench <name>"
        });
    }
    let sized =
        cmd == "bench" || (cmd == "campaign" && positional.get(1).is_some_and(|e| e == "bench"));
    if large && (list || !sized) {
        usage_error("--large only applies to `bench <name>` and `campaign bench <name>`");
    }

    // The one place configuration is resolved: flags > env > defaults.
    // Campaign workers checkpoint every tell unless told otherwise —
    // adoption and liveness are only as fine-grained as the writes.
    let env = |name: &str| std::env::var(name).ok();
    let defaults = if cmd == "campaign" {
        RunConfig {
            tune: TuneOptions::default().with_checkpoint_every(1),
            ..RunConfig::default()
        }
    } else {
        RunConfig::default()
    };
    let mut cfg = defaults
        .resolve(&flags, env)
        .unwrap_or_else(|e| usage_error(&e.to_string()));
    match resolve_fault(env) {
        Ok(Some(plan)) => lift_driver::fault::arm(plan),
        Ok(None) => {}
        Err(e) => usage_error(&e.to_string()),
    }

    if list {
        if !positional.is_empty() {
            usage_error("--list-benchmarks takes no experiment");
        }
        list_benchmarks(json);
        return;
    }
    let shard: Option<Shard> = shard_flag.map(|s| {
        let parts: Vec<&str> = s.split('/').collect();
        let parsed = match parts.as_slice() {
            [i, n] => i
                .parse::<usize>()
                .ok()
                .zip(n.parse::<usize>().ok())
                .and_then(|p| validate_shard(p).ok()),
            _ => None,
        };
        parsed.unwrap_or_else(|| {
            usage_error(&format!("--shard needs i/n with 0 <= i < n, got `{s}`"))
        })
    });
    if let Some((i, n)) = shard {
        // Checkpoint files must not be shared across processes: each
        // manager rewrites the whole file from its own in-memory state, so
        // concurrent shard workers pointed at one path would clobber each
        // other's entries. Shard mode therefore always derives its own
        // `<path>.shard<i>of<n>` — whether the base path came from
        // `--checkpoint`, the environment, or a campaign supervisor.
        cfg.tune.checkpoint = cfg
            .tune
            .checkpoint
            .map(|base| shard_checkpoint(&base, i, n));
    }

    if cmd == "campaign" {
        run_campaign_cmd(
            &positional[1..],
            large,
            &cfg,
            campaign_workers_flag.as_deref(),
            shards_flag.as_deref(),
            timeout_flag.as_deref(),
            retries_flag.as_deref(),
            summary_flag.as_deref(),
            &fault_flags,
        );
    }
    if campaign_workers_flag.is_some()
        || shards_flag.is_some()
        || timeout_flag.is_some()
        || retries_flag.is_some()
        || summary_flag.is_some()
        || !fault_flags.is_empty()
    {
        usage_error(
            "--workers/--shards/--timeout/--retries/--summary/--fault apply to `campaign` only",
        );
    }

    if cmd == "merge" {
        let files = &positional[1..];
        if files.is_empty() {
            usage_error("merge needs at least one partial-report file");
        }
        if let Err(e) = run_merge(files) {
            eprintln!("lift-harness: {e}");
            std::process::exit(1);
        }
        return;
    }

    if cmd == "verify" {
        if positional.len() > 1 {
            usage_error("verify takes no further arguments");
        }
        match verify_sweep(&cfg) {
            Ok(rows) => {
                let findings: usize = rows
                    .iter()
                    .filter(|r| !r.pruned)
                    .map(|r| r.findings.len())
                    .sum();
                print!(
                    "{}",
                    if json {
                        json_verify(&rows)
                    } else {
                        render_verify(&rows)
                    }
                );
                if findings > 0 {
                    eprintln!("lift-harness: static verification found {findings} problem(s)");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("lift-harness: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if positional.len() > 2 || (positional.len() == 2 && cmd != "bench") {
        usage_error(&format!(
            "unexpected argument `{}`",
            positional.last().expect("len checked")
        ));
    }
    let bench_name = (cmd == "bench").then(|| bench_name_arg(positional.get(1)));

    let result = if let Some(shard) = shard {
        if !json {
            usage_error("--shard writes a partial JSON report; add --json");
        }
        run_shard(&cfg, &cmd, bench_name.as_deref(), large, shard)
    } else if cmd == "bench" {
        run_bench(
            &cfg,
            bench_name.as_deref().expect("checked above"),
            large,
            json,
        )
    } else {
        run(&cmd, json, &cfg)
    };
    if let Err(e) = result {
        eprintln!("lift-harness: {e}");
        // Surface the full cause chain: the unified error type links back
        // to the originating crate's diagnostic.
        let mut src = std::error::Error::source(&e);
        while let Some(cause) = src {
            eprintln!("  caused by: {cause}");
            src = cause.source();
        }
        std::process::exit(1);
    }
}
