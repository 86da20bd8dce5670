//! `lift-benchmark`: end-to-end and per-layer measurements of the Lift
//! stencil pipeline on four workloads. See README.md beside this crate.
//!
//! ```text
//! lift-benchmark --workload <fig7-tune|fig8-ppcg|compile|iterate>
//!                [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a header with the resolved configuration, one `name value unit`
//! line per metric, and as its last line a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exit codes: 0 when every output
//! checked out, 1 when any operation failed or produced a wrong output,
//! 2 for a usage error or a `LIFT_*` variable in the environment.

#![forbid(unsafe_code)]

mod common;
mod compile;
mod iterate;
mod stats;
mod trace;
mod tuning;

use std::process::ExitCode;
use std::time::Instant;

use lift_tuner::json::Value;

use common::{Counters, Ctx, Report, BUDGET, OUT_DIR, SETUP_REPS, WORKERS};
use stats::median;
use trace::{layers, Layer};

/// One workload: its name, runner, and the sizes and operation it
/// measures.
struct Workload {
    name: &'static str,
    run: fn(&Ctx) -> Result<Report, String>,
    sizes: &'static str,
    op: &'static str,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig7-tune",
        run: tuning::fig7,
        sizes: "small",
        op: "tune one cell, then run its reference kernel",
    },
    Workload {
        name: "fig8-ppcg",
        run: tuning::fig8,
        sizes: "small",
        op: "tune one cell, then PPCG, against a checkpoint",
    },
    Workload {
        name: "compile",
        run: compile::compile,
        sizes: "small",
        op: "from_benchmark, explore, with_config, verify (median of 3)",
    },
    Workload {
        name: "iterate",
        run: iterate::iterate,
        sizes: "large where defined",
        op: "run_iterated for 20 steps",
    },
];

const DEFAULT_SEED: u64 = 2018;
const DEFAULT_SECONDS: f64 = 5.0;

/// The end-to-end metrics, measured with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: lift-benchmark --workload <fig7-tune|fig8-ppcg|compile|iterate> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("a workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: self time per call of each
/// layer, and the counters and ratios measured at the same boundaries.
fn per_layer(ctx: &Ctx, wall_s: f64) -> Vec<(String, f64, &'static str)> {
    let spans = ctx.tracer.spans();
    let all = layers(&spans, false);
    let replayed = layers(&spans, true);
    let layer = |name: &str| all.get(name).copied().unwrap_or_default();
    let ms = |name: &str| layer(name).ms_per_call();
    let c: Counters = ctx.counters.lock().expect("counters").clone();
    let run = layer("oclsim.run");
    let self_s = |l: Option<&Layer>| l.map_or(0.0, |l| l.self_ns as f64 / 1e9);
    [
        ("core.typecheck_ms", ms("core.typecheck"), "ms"),
        ("rewrite.explore_ms", ms("rewrite.explore"), "ms"),
        (
            "rewrite.variants",
            ratio(c.variants as f64, c.explores as f64),
            "count",
        ),
        ("codegen.compile_ms", ms("codegen.compile"), "ms"),
        (
            "codegen.source_kb",
            ratio(c.source_bytes as f64 / 1024.0, c.sources as f64),
            "KB",
        ),
        ("oclsim.plan_ms", ms("oclsim.plan"), "ms"),
        (
            "oclsim.plan_instructions",
            ratio(c.plan_instructions as f64, c.plans as f64),
            "count",
        ),
        ("oclsim.verify_ms", ms("oclsim.verify"), "ms"),
        ("oclsim.verify_findings", c.verify_findings as f64, "count"),
        ("oclsim.estimate_ms", ms("oclsim.estimate"), "ms"),
        (
            "oclsim.estimate_exact_frac",
            ratio(c.estimates_exact as f64, c.estimates as f64),
            "fraction",
        ),
        (
            "oclsim.estimate_to_run",
            ratio(
                self_s(replayed.get("oclsim.estimate")),
                self_s(replayed.get("oclsim.run")),
            ),
            "ratio",
        ),
        ("oclsim.run_ms", ms("oclsim.run"), "ms"),
        (
            "oclsim.run_melems_per_s",
            ratio(run.work as f64 / 1e6, self_s(Some(&run))),
            "Melem/s",
        ),
        ("stencils.golden_ms", ms("stencils.golden"), "ms"),
        ("driver.evaluations", c.evaluations as f64, "count"),
        ("driver.sims", c.sims as f64, "count"),
        ("driver.pruned_model", c.pruned_model as f64, "count"),
        ("driver.pruned_verify", c.pruned_verify as f64, "count"),
        (
            "driver.sim_frac",
            ratio(c.sims as f64, c.evaluations as f64),
            "fraction",
        ),
        (
            "driver.cache_hit_frac",
            ratio(
                c.cache_hits as f64,
                (c.cache_hits + c.cache_compiles) as f64,
            ),
            "fraction",
        ),
        (
            "trace.overhead_frac",
            ratio(ctx.tracer.overhead_s(), wall_s),
            "fraction",
        ),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u))
    .collect()
}

/// Layers only some workloads call, printed beside the per-layer metrics
/// (`declared`) but left out of the result object.
fn workload_layers(
    ctx: &Ctx,
    declared: &[(String, f64, &str)],
) -> Vec<(String, f64, &'static str)> {
    let c = ctx.counters.lock().expect("counters").clone();
    let mut out: Vec<(String, f64, &'static str)> = layers(&ctx.tracer.spans(), false)
        .into_iter()
        .filter(|(name, _)| *name != trace::REPLAY)
        .map(|(name, l)| (format!("{name}_ms"), l.ms_per_call(), "ms"))
        .filter(|(name, ..)| !declared.iter().any(|(d, ..)| d == name))
        .collect();
    if c.tuned_variants > 0 {
        out.push((
            "driver.evals_to_best".into(),
            ratio(c.evals_to_best as f64, c.tuned_variants as f64),
            "count",
        ));
        out.push((
            "driver.cache_compiles".into(),
            c.cache_compiles as f64,
            "count",
        ));
    }
    out
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let metrics = metrics
        .iter()
        .map(|(n, v, u)| {
            let value = Value::Obj(vec![
                ("value".into(), Value::Float(*v)),
                ("unit".into(), Value::Str(u.to_string())),
            ]);
            (n.clone(), value)
        })
        .collect();
    let doc = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(attempted.max(1) as i64)),
        ("failed".into(), Value::Int(failed as i64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", doc.to_json());
}

fn main() -> ExitCode {
    // The library reads several `LIFT_*` variables that silently change
    // what is measured; the benchmark pins every setting itself instead.
    let lift_vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LIFT_"))
        .collect();
    if !lift_vars.is_empty() {
        eprintln!(
            "lift-benchmark: refusing to run with {} set; unset it to measure the pinned configuration",
            lift_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lift-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Workload {
        name,
        run,
        sizes,
        op,
    } = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# lift-benchmark workload={} seed={} seconds={} trace={} workers={WORKERS} \
         tuner_threads=1 budget={BUDGET} setup_reps={SETUP_REPS} sizes={sizes:?} cores={cores}",
        name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# op: {op}");

    let ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let started = Instant::now();
    let report = run(&ctx);
    let wall_s = started.elapsed().as_secs_f64();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lift-benchmark: {name} failed: {e}");
            print_result(false, ctx.attempted(), ctx.failed().max(1), &[]);
            return ExitCode::from(1);
        }
    };

    let end_to_end = [
        report.setup_s,
        median(&report.sweeps),
        median(&report.op_ms),
        peak_rss_mb(),
    ];
    let mut metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(&(n, u), v)| (n.to_string(), v, u))
        .collect();
    let failed = ctx.failed();
    let attempted = ctx.attempted();
    let mut lines = metrics.clone();
    lines.push(("passes".into(), report.sweeps.len() as f64, "count"));
    lines.push(("ops_per_pass".into(), report.op_ms.len() as f64, "count"));
    lines.push((
        "ops_failed_frac".into(),
        ratio(failed as f64, attempted as f64),
        "fraction",
    ));
    lines.extend(report.extra.iter().map(|(n, v, u)| (n.to_string(), *v, *u)));
    if args.trace {
        metrics = per_layer(&ctx, wall_s);
        lines.extend(metrics.iter().cloned());
        lines.extend(workload_layers(&ctx, &metrics));
        let path = std::path::Path::new(OUT_DIR).join(format!("trace-{name}-{}.json", args.seed));
        let config = [
            ("workload", name.to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("workers", WORKERS.to_string()),
            ("budget", BUDGET.to_string()),
        ];
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&ctx.tracer.spans(), &config)));
        match written {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => eprintln!("lift-benchmark: cannot write {}: {e}", path.display()),
        }
    }
    for (n, v, u) in &lines {
        println!("{n} {v} {u}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = failed == 0 && finite;
    print_result(correct, attempted, failed + u64::from(!finite), &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_flags() {
        let a = args("--workload compile --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("compile", 7, 12.0, true)
        );
        let a = args("--workload iterate").expect("defaults");
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload compile --trace 2",
            "--workload compile --seconds -1",
            "--workload compile --seed",
            "--workload compile --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
