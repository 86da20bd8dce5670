//! The paper's experiments: Table 1, Figure 7, Figure 8 and the ablation
//! study over the rewrite rules — all driven through the staged
//! [`Pipeline`] API.
//!
//! Every sweep distributes its (benchmark, device) grid over
//! [`parallel_map`] workers: the work list is built up front in the
//! sequential iteration order, rows come back in that same order, and each
//! cell tunes with its own deterministic seed — so a thread budget of 8
//! (`RunConfig::tune.threads`) regenerates byte-identical reports, just
//! sooner.
//!
//! The same work lists are also the unit of **cross-process sharding**
//! (`lift-harness --shard i/n`): a [`Shard`] deterministically selects the
//! grid cells with `index % n == i`, the `*_shard` functions run exactly
//! those cells, and because every cell tunes with its own seed the union
//! of all shards' rows — reassembled in cell order by `lift-harness
//! merge` — is byte-identical to the single-process sweep.
//!
//! Each experiment is one function taking the run's [`RunConfig`] (and,
//! for the sweeps, a [`Shard`]; `(0, 1)` is the whole sweep): budget,
//! seed and thread budget come from `cfg.tune`, and grid sizes from
//! `cfg.full_sizes`.

use lift_driver::{ppcg_baseline, reference_baseline, KernelCache, LiftError, Pipeline, Variant};
use lift_oclsim::{DeviceProfile, FindingKind, VirtualDevice};
use lift_stencils::{by_name, fig7_names, fig8_names, suite, Benchmark};
use lift_tuner::parallel_map;

use crate::RunConfig;

/// One shard of a sweep: `(index, count)`. Grid cell `c` (in the sweep's
/// deterministic work-list order) belongs to the shard with
/// `c % count == index`; `(0, 1)` is the whole sweep.
pub type Shard = (usize, usize);

/// A shard's slice of a sweep: the full sweep's cell count plus the rows
/// each selected cell produced, keyed by global cell index.
#[derive(Debug, Clone)]
pub struct ShardRows<T> {
    /// Cells in the *full* sweep (all shards together).
    pub cells: usize,
    /// `(global cell index, rows of that cell)`, in cell order. A cell
    /// that produces no rows (e.g. a PPCG-inexpressible Figure-8 cell)
    /// appears with an empty row list — the merge step needs to see every
    /// cell to prove completeness.
    pub groups: Vec<(usize, Vec<T>)>,
}

impl<T> ShardRows<T> {
    /// The rows of every selected cell, in cell order (for the whole-sweep
    /// shard `(0, 1)`, the full report's rows).
    pub fn flatten(self) -> Vec<T> {
        self.groups.into_iter().flat_map(|(_, rows)| rows).collect()
    }
}

/// Validates a shard selector.
///
/// # Errors
///
/// [`LiftError::InvalidConfig`] unless `index < count` and `count ≥ 1`.
pub fn validate_shard(shard: Shard) -> Result<Shard, LiftError> {
    let (index, count) = shard;
    if count == 0 || index >= count {
        return Err(LiftError::InvalidConfig(format!(
            "shard {index}/{count} is invalid; use --shard i/n with 0 <= i < n"
        )));
    }
    Ok(shard)
}

/// Selects this shard's cells from the full work list, preserving global
/// cell indices.
fn shard_cells<W>(work: impl IntoIterator<Item = W>, (index, count): Shard) -> Vec<(usize, W)> {
    work.into_iter()
        .enumerate()
        .filter(|(i, _)| i % count == index)
        .collect()
}

/// Splits a thread budget between the sweep (`outer` workers over grid
/// cells) and each cell's tuner (the remaining share), so a sweep of many
/// cells parallelises across them while a single-cell run parallelises
/// across its variants.
fn split_budget(budget: usize, cells: usize) -> (usize, usize) {
    let outer = budget.min(cells).max(1);
    (outer, (budget / outer).max(1))
}

/// Explore + tune one benchmark on one device through the pipeline, with
/// `tuner_threads` workers tuning its variants.
fn tune(
    cfg: &RunConfig,
    bench: &Benchmark,
    sizes: &[usize],
    dev: &VirtualDevice,
    tuner_threads: usize,
) -> Result<lift_driver::BenchResult, LiftError> {
    Ok(Pipeline::from_benchmark(bench, sizes)?
        .explore()?
        .on(dev)
        .tune_full(cfg.tune.clone().with_threads(tuner_threads))?
        .report)
}

/// One cell of Figure 7: Lift vs the hand-written kernel.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// Lift throughput in giga-elements/s.
    pub lift_gelems: f64,
    /// Reference throughput in giga-elements/s.
    pub reference_gelems: f64,
    /// The winning Lift variant name.
    pub lift_variant: String,
    /// Whether the winning Lift kernel tiles.
    pub lift_tiled: bool,
}

/// Runs one shard (see [`Shard`]) of the Figure-7 experiment (6
/// benchmarks × 3 devices); `(0, 1)` is the whole figure.
///
/// # Errors
///
/// Any [`LiftError`] from the pipeline — tuning that finds no valid
/// configuration, or a reference kernel that fails to run or validate —
/// plus [`LiftError::InvalidConfig`] for an invalid shard.
pub fn fig7_shard(cfg: &RunConfig, shard: Shard) -> Result<ShardRows<Fig7Row>, LiftError> {
    let shard = validate_shard(shard)?;
    let work = fig7_work();
    let cells = work.len();
    let mine = shard_cells(work, shard);
    let (outer, inner) = split_budget(cfg.tune.threads, mine.len());
    let groups = parallel_map(outer, mine, |(cell, (profile, name))| {
        let dev = VirtualDevice::new(profile);
        let bench = by_name(name);
        let sizes = bench.size(false, cfg.full_sizes);
        let lift = tune(cfg, &bench, &sizes, &dev, inner)?;
        let reference = reference_baseline(&bench, &sizes, &dev, cfg.tune.seed)?;
        Ok((
            cell,
            vec![Fig7Row {
                bench: name.to_string(),
                device: dev.profile().name.to_string(),
                lift_gelems: lift.winner.gelems_per_s,
                reference_gelems: reference.gelems_per_s,
                lift_variant: lift.winner.name.clone(),
                lift_tiled: lift.winner.tiled,
            }],
        ))
    })
    .into_iter()
    .collect::<Result<Vec<_>, LiftError>>()?;
    Ok(ShardRows { cells, groups })
}

/// One cell of Figure 8: the Lift speedup over PPCG.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// `"small"` or `"large"`.
    pub size: &'static str,
    /// Lift time / PPCG time speedup (> 1 means Lift wins).
    pub speedup: f64,
    /// The winning Lift variant name.
    pub lift_variant: String,
    /// Whether the winning Lift kernel tiles.
    pub lift_tiled: bool,
}

/// Runs one shard (see [`Shard`]) of the Figure-8 experiment (8
/// benchmarks × {small, large} × 3 devices). As in the paper, the large
/// sizes are skipped on the ARM GPU (*"Large input sizes did not fit onto
/// the ARM GPU"*).
///
/// # Errors
///
/// Any [`LiftError`] from the pipeline, plus [`LiftError::InvalidConfig`]
/// for an invalid shard. A benchmark the PPCG strategy cannot compile is
/// skipped (not an error), matching the paper's "PPCG-expressible subset"
/// framing: its cells appear with an empty row list.
pub fn fig8_shard(cfg: &RunConfig, shard: Shard) -> Result<ShardRows<Fig8Row>, LiftError> {
    let shard = validate_shard(shard)?;
    let work = fig8_work();
    let cells = work.len();
    let mine = shard_cells(work, shard);
    let (outer, inner) = split_budget(cfg.tune.threads, mine.len());
    let groups = parallel_map(outer, mine, |(cell, (profile, name, size_name, large))| {
        let dev = VirtualDevice::new(profile);
        let bench = by_name(name);
        let sizes = bench.size(large, cfg.full_sizes);
        let lift = tune(cfg, &bench, &sizes, &dev, inner)?;
        let ppcg = match ppcg_baseline(&bench, &sizes, &dev, cfg.tune.clone().with_threads(inner)) {
            Ok(p) => p,
            // A benchmark the PPCG strategy cannot compile is skipped, not
            // an error — the paper's "PPCG-expressible subset" framing.
            Err(LiftError::Ppcg(_)) => return Ok((cell, Vec::new())),
            Err(e) => return Err(e),
        };
        Ok((
            cell,
            vec![Fig8Row {
                bench: name.to_string(),
                device: dev.profile().name.to_string(),
                size: size_name,
                speedup: ppcg.time_s / lift.winner.time_s,
                lift_variant: lift.winner.name.clone(),
                lift_tiled: lift.winner.tiled,
            }],
        ))
    })
    .into_iter()
    .collect::<Result<Vec<_>, LiftError>>()?;
    Ok(ShardRows { cells, groups })
}

/// One row of the ablation study: per-variant best throughput.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// Variant name.
    pub variant: String,
    /// Best throughput achieved by this variant.
    pub gelems: f64,
    /// Slowdown relative to the benchmark's overall winner (1.0 = winner).
    pub rel_to_best: f64,
}

/// One shard (see [`Shard`]) of the per-variant ablation over the
/// rewrite-rule space (§4): quantifies what each optimisation (tiling,
/// local memory, unrolling, coarsening) is worth on each device. Each cell
/// contributes one row per explored variant.
///
/// # Errors
///
/// Any [`LiftError`] from the pipeline, plus [`LiftError::InvalidConfig`]
/// for an invalid shard.
pub fn ablation_shard(
    cfg: &RunConfig,
    bench_names: &[&str],
    shard: Shard,
) -> Result<ShardRows<AblationRow>, LiftError> {
    let shard = validate_shard(shard)?;
    let work = ablation_work(bench_names);
    let cells = work.len();
    let mine = shard_cells(work, shard);
    let (outer, inner) = split_budget(cfg.tune.threads, mine.len());
    let groups = parallel_map(outer, mine, |(cell, (profile, name))| {
        let dev = VirtualDevice::new(profile);
        let bench = by_name(&name);
        let sizes = bench.size(false, cfg.full_sizes);
        let result = tune(cfg, &bench, &sizes, &dev, inner)?;
        let best = result.winner.gelems_per_s;
        Ok::<(usize, Vec<AblationRow>), LiftError>((
            cell,
            result
                .all
                .iter()
                .map(|v| AblationRow {
                    bench: name.to_string(),
                    device: dev.profile().name.to_string(),
                    variant: v.name.clone(),
                    gelems: v.gelems_per_s,
                    rel_to_best: v.gelems_per_s / best,
                })
                .collect(),
        ))
    })
    .into_iter()
    .collect::<Result<Vec<_>, LiftError>>()?;
    Ok(ShardRows { cells, groups })
}

/// The benchmarks the ablation study sweeps (one 2D and one 3D stencil —
/// enough to show every rewrite variant's contribution at both ranks).
pub const ABLATION_BENCHES: [&str; 2] = ["Jacobi2D5pt", "Jacobi3D7pt"];

/// Figure 7's work list: every device × Figure-7 benchmark.
fn fig7_work() -> Vec<(DeviceProfile, &'static str)> {
    DeviceProfile::all()
        .into_iter()
        .flat_map(|d| fig7_names().into_iter().map(move |n| (d.clone(), n)))
        .collect()
}

/// Figure 8's work list: every device × Figure-8 benchmark × size, with
/// the paper's ARM large-size skip applied up front.
fn fig8_work() -> Vec<(DeviceProfile, &'static str, &'static str, bool)> {
    let mut work = Vec::new();
    for dev_profile in DeviceProfile::all() {
        let is_arm = dev_profile.name.contains("Mali");
        for name in fig8_names() {
            for (size_name, large) in [("small", false), ("large", true)] {
                if large && is_arm {
                    continue;
                }
                work.push((dev_profile.clone(), name, size_name, large));
            }
        }
    }
    work
}

/// The ablation's work list: every device × ablated benchmark.
fn ablation_work(bench_names: &[&str]) -> Vec<(DeviceProfile, String)> {
    DeviceProfile::all()
        .into_iter()
        .flat_map(|d| bench_names.iter().map(move |n| (d.clone(), n.to_string())))
        .collect()
}

/// Total grid cells of a shardable experiment, computed without running
/// anything — the denominator a campaign needs to name its missing cells
/// even when *no* shard managed to report. It is the length of the work
/// list the corresponding `*_shard` function runs. `None` for unknown
/// experiments.
pub fn experiment_cells(experiment: &str, ablation_benches: &[&str]) -> Option<usize> {
    match experiment {
        "fig7" => Some(fig7_work().len()),
        "fig8" => Some(fig8_work().len()),
        "ablation" => Some(ablation_work(ablation_benches).len()),
        "bench" => Some(DeviceProfile::all().len()),
        _ => None,
    }
}

/// One row of a single-benchmark report: the tuned best of one variant on
/// one device (`winner` marks the per-device fastest).
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// Variant name.
    pub variant: String,
    /// Modeled runtime in seconds.
    pub time_s: f64,
    /// Throughput in giga-elements/s.
    pub gelems: f64,
    /// The winning parameter values for this variant.
    pub config: Vec<(String, i64)>,
    /// Whether this variant won on this device.
    pub winner: bool,
    /// Whether the variant uses overlapped tiling.
    pub tiled: bool,
    /// Whether it stages through local memory.
    pub local_mem: bool,
    /// Simulator evaluations spent before the winning configuration was
    /// first scored (1 = the warm-started first proposal won).
    pub evals_to_best: usize,
    /// Configurations the static verifier rejected during tuning.
    pub pruned_verify: usize,
    /// Configurations the cost model pruned as dominated during tuning.
    pub pruned_model: usize,
    /// Successful simulator executions during tuning.
    pub sims: usize,
}

/// Runs one shard of a single Table-1 benchmark in isolation
/// (`lift-harness bench <name>`; cells are the device profiles, see
/// [`Shard`]): explore + tune on every device profile, reporting every
/// variant's best configuration — the quickest way to inspect a single
/// benchmark's search space (e.g. the per-dimension tile sizes a 3D
/// stencil settled on).
///
/// # Errors
///
/// [`LiftError::UnknownBenchmark`] for a name outside Table 1,
/// [`LiftError::InvalidConfig`] for an invalid shard, plus any pipeline
/// error.
pub fn bench_shard(
    cfg: &RunConfig,
    name: &str,
    large: bool,
    shard: Shard,
) -> Result<ShardRows<BenchRow>, LiftError> {
    let shard = validate_shard(shard)?;
    // Resolve the name early so a typo fails before minutes of tuning.
    let bench = suite()
        .into_iter()
        .find(|b| b.name == name)
        .ok_or_else(|| LiftError::UnknownBenchmark(name.to_string()))?;
    let sizes = bench.size(large, cfg.full_sizes);
    let work = DeviceProfile::all();
    let cells = work.len();
    let mine = shard_cells(work, shard);
    let (outer, inner) = split_budget(cfg.tune.threads, mine.len());
    let groups = parallel_map(outer, mine, |(cell, profile)| {
        let dev = VirtualDevice::new(profile);
        let result = tune(cfg, &bench, &sizes, &dev, inner)?;
        Ok::<(usize, Vec<BenchRow>), LiftError>((
            cell,
            result
                .all
                .iter()
                .map(|v| BenchRow {
                    bench: name.to_string(),
                    device: dev.profile().name.to_string(),
                    variant: v.name.clone(),
                    time_s: v.time_s,
                    gelems: v.gelems_per_s,
                    config: v.config.clone(),
                    winner: v.name == result.winner.name,
                    tiled: v.tiled,
                    local_mem: v.local_mem,
                    evals_to_best: v.evals_to_best,
                    pruned_verify: v.pruned_verify,
                    pruned_model: v.pruned_model,
                    sims: v.sims,
                })
                .collect(),
        ))
    })
    .into_iter()
    .collect::<Result<Vec<_>, LiftError>>()?;
    Ok(ShardRows { cells, groups })
}

/// One statically-verified (benchmark × device × variant × configuration)
/// cell of the `lift-harness verify` sweep.
#[derive(Debug, Clone)]
pub struct VerifyRow {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// Variant name.
    pub variant: String,
    /// The parameter assignment checked (tunables plus launch overrides).
    pub config: Vec<(String, i64)>,
    /// Every finding was a local-memory capacity overflow: the configuration
    /// simply does not fit the device, exactly the class the tuner prunes
    /// before simulation. Reported, but not a gate failure — the kernel
    /// itself has no defect.
    pub pruned: bool,
    /// Rendered findings; empty means every property proved.
    pub findings: Vec<String>,
}

/// Representative parameter assignments for one variant: each tunable's
/// smallest and largest usable candidate, crossed with the default launch
/// geometry and an explicit square-ish work-group: the configurations the
/// `verify` sweep gates.
fn rep_configs(variant: &Variant) -> Vec<Vec<(String, i64)>> {
    let mut tun_choices: Vec<Vec<(String, i64)>> = vec![Vec::new()];
    for t in &variant.tunables {
        let cands = t.candidates(64);
        let (Some(lo), Some(hi)) = (cands.first(), cands.last()) else {
            return Vec::new();
        };
        let mut next = Vec::new();
        for base in &tun_choices {
            for v in if lo == hi { vec![*lo] } else { vec![*lo, *hi] } {
                let mut c = base.clone();
                c.push((t.var().to_string(), v));
                next.push(c);
            }
        }
        // Cap the cross product; two tunables already give four corners.
        next.truncate(8);
        tun_choices = next;
    }
    let mut launches: Vec<Vec<(String, i64)>> = vec![Vec::new()];
    let mut square = vec![("lx".to_string(), 4)];
    if variant.dims >= 2 {
        square.push(("ly".to_string(), 4));
    }
    if variant.dims >= 3 {
        square.push(("lz".to_string(), 2));
    }
    launches.push(square);
    let mut out = Vec::new();
    for tc in &tun_choices {
        for l in &launches {
            let mut c = tc.clone();
            c.extend(l.iter().cloned());
            out.push(c);
        }
    }
    out
}

/// Statically verifies every Table-1 benchmark × device × variant under
/// representative configurations (each tunable's smallest and largest
/// usable candidate, crossed with two launch geometries) — no simulation
/// runs. A configuration the pipeline
/// itself rejects (inexpressible launch geometry, work-group over the
/// device limit) is skipped: there is no kernel to verify.
///
/// # Errors
///
/// Any [`LiftError`] other than [`LiftError::InvalidConfig`] — a variant
/// that fails to compile must fail the gate, not vanish from it.
pub fn verify_sweep(cfg: &RunConfig) -> Result<Vec<VerifyRow>, LiftError> {
    let mut work: Vec<(Benchmark, DeviceProfile)> = Vec::new();
    for bench in suite() {
        for profile in DeviceProfile::all() {
            work.push((bench.clone(), profile));
        }
    }
    let outer = cfg.tune.threads.min(work.len()).max(1);
    let groups = parallel_map(outer, work, |(bench, profile)| {
        let dev = VirtualDevice::new(profile);
        let sizes = bench.size(false, cfg.full_sizes);
        let variants = Pipeline::from_benchmark(&bench, &sizes)?.explore()?;
        let cache = std::sync::Arc::new(KernelCache::new());
        let mut rows = Vec::new();
        for name in variants.names().iter().map(|n| n.to_string()) {
            let variant = variants.get(&name).expect("name came from the set");
            for cfg in rep_configs(variant) {
                let params: Vec<(&str, i64)> = cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let compiled = variants
                    .clone()
                    .on(&dev)
                    .with_cache(cache.clone())
                    .with_config(&name, &params);
                let stencil = match compiled {
                    Ok(s) => s,
                    Err(LiftError::InvalidConfig(_)) => continue,
                    Err(e) => return Err(e),
                };
                let findings = stencil.verify()?;
                let pruned = !findings.is_empty()
                    && findings
                        .iter()
                        .all(|f| f.kind == FindingKind::LocalMemCapacity);
                rows.push(VerifyRow {
                    bench: bench.name.to_string(),
                    device: dev.profile().name.to_string(),
                    variant: name.clone(),
                    config: cfg,
                    pruned,
                    findings: findings.iter().map(|f| f.to_string()).collect(),
                });
            }
        }
        Ok::<Vec<VerifyRow>, LiftError>(rows)
    })
    .into_iter()
    .collect::<Result<Vec<_>, LiftError>>()?;
    Ok(groups.into_iter().flatten().collect())
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub bench: String,
    /// Dimensionality.
    pub dims: usize,
    /// Stencil points.
    pub points: usize,
    /// Input size used (scaled).
    pub input_size: String,
    /// The paper's input size.
    pub paper_size: String,
    /// Number of grids.
    pub grids: usize,
}

/// Regenerates Table 1 (benchmark inventory).
pub fn table1() -> Vec<Table1Row> {
    suite()
        .iter()
        .map(|b| Table1Row {
            bench: b.name.to_string(),
            dims: b.dims,
            points: b.points,
            input_size: fmt_size(b.small),
            paper_size: fmt_size(b.paper_small),
            grids: b.grids,
        })
        .collect()
}

fn fmt_size(s: &[usize]) -> String {
    s.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("×")
}
