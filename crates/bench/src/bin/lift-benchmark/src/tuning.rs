//! `fig7-tune` and `fig8-ppcg`: the paper's two tuning sweeps at small
//! sizes, one (benchmark × device) cell per operation.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lift_driver::{
    ppcg_baseline, reference_baseline, BenchResult, KernelCache, LiftError, TuneOptions,
    TunedVariant, VariantSet,
};
use lift_oclsim::{BufferData, DeviceProfile, VirtualDevice};
use lift_stencils::{by_name, fig7_names, fig8_names, Benchmark};

use crate::common::{
    closed_loop, explore, golden, inputs, ms_since, outputs_match, passes, replay, timed_setup,
    Ctx, ReplayItem, Report, BUDGET, OUT_DIR,
};
use crate::stats::{geomean, median};

/// One (benchmark × device) cell with everything its checks need.
struct Cell {
    bench: Benchmark,
    sizes: Vec<usize>,
    dev: VirtualDevice,
    set: VariantSet,
    inputs: Vec<BufferData>,
    golden: Vec<f32>,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}@{}", self.bench.name, self.dev.profile().name)
    }
}

/// Builds and explores every cell, device major as in the harness sweeps,
/// then computes the golden references once, outside the timed set-up.
fn prepare(ctx: &Ctx, names: &[&str]) -> Result<(f64, Vec<Cell>), String> {
    let (setup_s, cells) = timed_setup(|| cells(ctx, names));
    let mut cells = cells?;
    for cell in &mut cells {
        cell.golden = golden(ctx, ctx.op(), &cell.bench, &cell.inputs, &cell.sizes);
    }
    Ok((setup_s, cells))
}

fn cells(ctx: &Ctx, names: &[&str]) -> Result<Vec<Cell>, String> {
    let mut out = Vec::new();
    for profile in DeviceProfile::all() {
        for name in names {
            let bench = by_name(name);
            let sizes = bench.small.to_vec();
            let set = explore(ctx, ctx.op(), &bench, &sizes)?;
            out.push(Cell {
                inputs: inputs(&bench, &sizes, ctx.seed),
                bench,
                sizes,
                dev: VirtualDevice::new(profile.clone()),
                set,
                golden: Vec::new(),
            });
        }
    }
    Ok(out)
}

fn options(ctx: &Ctx) -> TuneOptions {
    TuneOptions::evaluations(BUDGET)
        .with_seed(ctx.seed)
        .with_threads(1)
}

/// What a tuned result must reproduce: each variant's name, configuration
/// and measured time, bit for bit.
type Fingerprint = Vec<(String, Vec<(String, i64)>, u64)>;

fn fingerprint(all: &[TunedVariant]) -> Fingerprint {
    all.iter()
        .map(|v| (v.name.clone(), v.config.clone(), v.time_s.to_bits()))
        .collect()
}

/// A cell's tuning outcome: the Lift report, the running winner and the
/// baseline it is compared with (`None` for a PPCG-inexpressible cell).
struct Tuned {
    ms: f64,
    report: BenchResult,
    winner: lift_driver::CompiledStencil,
    baseline: Option<TunedVariant>,
}

/// Tunes one cell on a fresh private cache.
fn tune(
    ctx: &Ctx,
    op: u64,
    cell: &Cell,
    opts: TuneOptions,
) -> Result<(BenchResult, lift_driver::CompiledStencil), String> {
    let cache = Arc::new(KernelCache::new());
    let outcome = ctx
        .span("driver.tune", op, 0, || {
            cell.set
                .clone()
                .on(&cell.dev)
                .with_cache(cache.clone())
                .tune_full(opts)
        })
        .map_err(|e| format!("tune {}: {e}", cell.label()))?;
    ctx.count(|c| c.add_tuned(&outcome.report.all, &cache));
    Ok((outcome.report, outcome.winner))
}

/// Re-runs each cell's winner and compares it with the golden reference,
/// checks later passes reproduce the first, and in a traced run replays
/// every variant's tuned configuration one layer call at a time.
fn check_cells(ctx: &Ctx, cells: &[Cell], runs: &[Vec<Result<Tuned, String>>]) {
    for (i, cell) in cells.iter().enumerate() {
        let first = match &runs[0][i] {
            Ok(t) => t,
            Err(e) => {
                ctx.check(Err(e.clone()));
                continue;
            }
        };
        let op = ctx.op();
        let elems = cell.golden.len() as u64;
        ctx.check(
            ctx.span("oclsim.run", op, elems, || first.winner.run(&cell.inputs))
                .map_err(|e| e.to_string())
                .and_then(|out| outputs_match(out.output.as_f32(), &cell.golden))
                .map_err(|e| format!("winner of {}: {e}", cell.label())),
        );
        for later in &runs[1..] {
            ctx.check(match &later[i] {
                Ok(t) if fingerprint(&t.report.all) == fingerprint(&first.report.all) => Ok(()),
                Ok(_) => Err(format!("{}: a later pass tuned differently", cell.label())),
                Err(e) => Err(e.clone()),
            });
        }
        if ctx.tracer.enabled() {
            for v in &first.report.all {
                replay(
                    ctx,
                    ReplayItem {
                        label: format!("{} {}", cell.label(), v.name),
                        session: cell.set.clone().on(&cell.dev),
                        variant: &v.name,
                        config: &v.config,
                        inputs: &cell.inputs,
                        golden: &cell.golden,
                        tuned_time_s: Some(v.time_s),
                    },
                );
            }
        }
    }
}

/// Per-cell latency, median over passes.
fn cell_ms(runs: &[Vec<Result<Tuned, String>>]) -> Vec<f64> {
    (0..runs[0].len())
        .filter_map(|i| {
            let ms: Vec<f64> = runs
                .iter()
                .filter_map(|r| r[i].as_ref().ok().map(|t| t.ms))
                .collect();
            (!ms.is_empty()).then(|| median(&ms))
        })
        .collect()
}

fn winners_gelems(runs: &[Vec<Result<Tuned, String>>]) -> f64 {
    let g: Vec<f64> = runs[0]
        .iter()
        .filter_map(|t| t.as_ref().ok().map(|t| t.report.winner.gelems_per_s))
        .collect();
    geomean(&g)
}

fn print_rows(cells: &[Cell], run: &[Result<Tuned, String>], baseline: &str) {
    for (cell, t) in cells.iter().zip(run) {
        if let Ok(t) = t {
            let w = &t.report.winner;
            let base = t.baseline.as_ref().map_or("-".to_string(), |b| {
                format!(
                    "{baseline} {} GElem/s, speedup {}",
                    b.gelems_per_s,
                    b.time_s / w.time_s
                )
            });
            eprintln!(
                "  {} | {} | {} GElem/s | {base} | {:.1} ms",
                cell.label(),
                w.name,
                w.gelems_per_s,
                t.ms
            );
        }
    }
}

/// `fig7-tune`: the six Figure-7 benchmarks on three devices. Each cell
/// tunes every variant, then runs the hand-written reference kernel.
pub fn fig7(ctx: &Ctx) -> Result<Report, String> {
    let (setup_s, cells) = prepare(ctx, &fig7_names())?;
    let runs = passes(ctx, |_| {
        closed_loop(&cells, |cell| {
            let (op, t) = (ctx.op(), Instant::now());
            let (report, winner) = tune(ctx, op, cell, options(ctx))?;
            let reference = ctx
                .span("driver.reference", op, 0, || {
                    reference_baseline(&cell.bench, &cell.sizes, &cell.dev, ctx.seed)
                })
                .map_err(|e| format!("reference {}: {e}", cell.label()))?;
            Ok(Tuned {
                ms: ms_since(t),
                report,
                winner,
                baseline: Some(reference),
            })
        })
    });
    let (sweeps, runs): (Vec<f64>, Vec<_>) = runs.into_iter().unzip();
    eprintln!("fig7-tune winners (first pass):");
    print_rows(&cells, &runs[0], "reference");
    check_cells(ctx, &cells, &runs);
    Ok(Report {
        setup_s,
        sweeps,
        op_ms: cell_ms(&runs),
        extra: vec![("kernel_gelems_geomean", winners_gelems(&runs), "GElem/s")],
    })
}

/// Checkpoint paths for one pass, unique within the process.
fn checkpoint_paths(pass: usize) -> (PathBuf, PathBuf) {
    let base = Path::new(OUT_DIR).join(format!("ck-{}-{pass}", std::process::id()));
    (
        base.with_extension("json"),
        base.with_extension("resume.json"),
    )
}

fn remove_checkpoint(path: &Path) {
    for p in [path.to_path_buf(), path.with_extension("json.tmp")] {
        let _ = std::fs::remove_file(p);
    }
}

/// PPCG for one cell; a program shape PPCG cannot express is skipped, as
/// in the harness.
fn ppcg(
    ctx: &Ctx,
    op: u64,
    cell: &Cell,
    opts: TuneOptions,
    span: &'static str,
) -> Result<Option<TunedVariant>, String> {
    match ctx.span(span, op, 0, || {
        ppcg_baseline(&cell.bench, &cell.sizes, &cell.dev, opts)
    }) {
        Ok(p) => Ok(Some(p)),
        Err(LiftError::Ppcg(_)) => Ok(None),
        Err(e) => Err(format!("ppcg {}: {e}", cell.label())),
    }
}

/// A cell re-run from a completed checkpoint, with the kernels its private
/// cache compiled.
struct Resumed {
    report: BenchResult,
    baseline: Option<TunedVariant>,
    compiles: u64,
}

/// One `fig8-ppcg` pass: tune every cell against a shared checkpoint, then
/// re-run every cell from a copy of the completed file.
struct Fig8Pass {
    tuned: Vec<Result<Tuned, String>>,
    resumed: Vec<Result<Resumed, String>>,
    resume_s: f64,
    checkpoint_kb: f64,
}

fn fig8_pass(ctx: &Ctx, cells: &[Cell], pass: usize) -> Result<Fig8Pass, String> {
    let (ck, resume_ck) = checkpoint_paths(pass);
    let opts = options(ctx).with_checkpoint_every(16);
    let tuned = closed_loop(cells, |cell| {
        let (op, t) = (ctx.op(), Instant::now());
        let (report, winner) = tune(ctx, op, cell, opts.clone().with_checkpoint(&ck))?;
        let baseline = ppcg(
            ctx,
            op,
            cell,
            opts.clone().with_checkpoint(&ck),
            "ppcg.baseline",
        )?;
        Ok(Tuned {
            ms: ms_since(t),
            report,
            winner,
            baseline,
        })
    });
    let bytes = std::fs::copy(&ck, &resume_ck)
        .map_err(|e| format!("copy checkpoint {}: {e}", ck.display()))?;
    let t = Instant::now();
    let resumed = closed_loop(cells, |cell| {
        let op = ctx.op();
        ctx.span("driver.resume", op, 0, || {
            let cache = Arc::new(KernelCache::new());
            let outcome = cell
                .set
                .clone()
                .on(&cell.dev)
                .with_cache(cache.clone())
                .tune_full(opts.clone().with_checkpoint(&resume_ck))
                .map_err(|e| format!("resume {}: {e}", cell.label()))?;
            let baseline = ppcg(
                ctx,
                op,
                cell,
                opts.clone().with_checkpoint(&resume_ck),
                "ppcg.resume",
            )?;
            Ok(Resumed {
                report: outcome.report,
                baseline,
                compiles: cache.stats().compiles,
            })
        })
    });
    let resume_s = t.elapsed().as_secs_f64();
    remove_checkpoint(&ck);
    remove_checkpoint(&resume_ck);
    Ok(Fig8Pass {
        tuned,
        resumed,
        resume_s,
        checkpoint_kb: bytes as f64 / 1024.0,
    })
}

/// Requires every resumed cell to reproduce its first-pass result without
/// tuning again: the only kernel a resumed session compiles is the winner.
fn check_resumed(ctx: &Ctx, cells: &[Cell], pass: &Fig8Pass) {
    for (i, cell) in cells.iter().enumerate() {
        let (Ok(t), resumed) = (&pass.tuned[i], &pass.resumed[i]) else {
            continue;
        };
        let same = |a: &Option<TunedVariant>, b: &Option<TunedVariant>| {
            fingerprint(a.as_slice()) == fingerprint(b.as_slice())
        };
        ctx.check(match resumed {
            Err(e) => Err(e.clone()),
            Ok(r) if r.compiles != 1 => Err(format!(
                "{}: resuming compiled {} kernels, expected only the winner ({})",
                cell.label(),
                r.compiles,
                r.report.winner.name
            )),
            Ok(r)
                if fingerprint(&r.report.all) == fingerprint(&t.report.all)
                    && same(&r.baseline, &t.baseline) =>
            {
                Ok(())
            }
            Ok(_) => Err(format!(
                "{}: the resumed result differs from the first pass",
                cell.label()
            )),
        });
    }
}

/// `fig8-ppcg`: the eight Figure-8 benchmarks on three devices, each cell
/// tuned against PPCG with a shared checkpoint, then resumed from it.
pub fn fig8(ctx: &Ctx) -> Result<Report, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let (setup_s, cells) = prepare(ctx, &fig8_names())?;
    let results = passes(ctx, |pass| fig8_pass(ctx, &cells, pass));
    let mut sweeps = Vec::new();
    let mut runs = Vec::new();
    let (mut resume_s, mut checkpoint_kb) = (Vec::new(), 0.0);
    for (wall, pass) in results {
        let pass = pass?;
        check_resumed(ctx, &cells, &pass);
        sweeps.push(wall);
        resume_s.push(pass.resume_s);
        checkpoint_kb = pass.checkpoint_kb;
        runs.push(pass.tuned);
    }
    eprintln!("fig8-ppcg winners (first pass):");
    print_rows(&cells, &runs[0], "ppcg");
    check_cells(ctx, &cells, &runs);
    let speedups: Vec<f64> = runs[0]
        .iter()
        .filter_map(|t| {
            let t = t.as_ref().ok()?;
            Some(t.baseline.as_ref()?.time_s / t.report.winner.time_s)
        })
        .collect();
    Ok(Report {
        setup_s,
        sweeps,
        op_ms: cell_ms(&runs),
        extra: vec![
            ("resume_s", median(&resume_s), "s"),
            ("driver.checkpoint_kb", checkpoint_kb, "KB"),
            ("kernel_gelems_geomean", winners_gelems(&runs), "GElem/s"),
            ("ppcg_speedup_geomean", geomean(&speedups), "x"),
        ],
    })
}
