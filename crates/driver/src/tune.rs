//! Exploration + tuning orchestration behind the staged [`crate::Pipeline`]
//! API, plus the two baselines (hand-written reference kernels and the PPCG
//! strategy).
//!
//! This is the single home of the flow that used to be duplicated between
//! `examples/quickstart.rs` and the old private `harness::pipeline`:
//! bind tunables → generate OpenCL (through the kernel cache) → execute on
//! the virtual device → validate → keep the fastest modeled configuration.

use lift_codegen::compile_kernel;
use lift_oclsim::{BufferData, LaunchConfig, VirtualDevice};
use lift_rewrite::strategy::{bind_tunables, Tunable, Variant};
use lift_stencils::refkernels::reference_kernel;
use lift_stencils::Benchmark;
use lift_tuner::{parallel_map, ParamSpace, ParamSpec, Search};

use crate::cache::{program_fingerprint, CacheKey, KernelCache};
use crate::checkpoint::{CellCheckpoint, CheckpointEntry, Outcome};
use crate::error::LiftError;

/// One tuned implementation with its best configuration.
#[derive(Debug, Clone)]
pub struct TunedVariant {
    /// Variant name (`"global"`, `"tiled-local"`, `"ppcg"`, `"reference"`).
    pub name: String,
    /// Modeled runtime in seconds.
    pub time_s: f64,
    /// Giga-elements updated per second (the paper's Fig. 7 metric).
    pub gelems_per_s: f64,
    /// The winning parameter values.
    pub config: Vec<(String, i64)>,
    /// The winning launch configuration (global, local).
    pub launch: ([usize; 3], [usize; 3]),
    /// Whether the variant uses overlapped tiling.
    pub tiled: bool,
    /// Whether it stages through local memory.
    pub local_mem: bool,
    /// Tuner evaluations spent.
    pub evaluations: usize,
    /// Successful simulator evaluations applied before the winning
    /// configuration was first measured (1 = the warm-started first
    /// proposal already won; 0 = nothing succeeded).
    pub evals_to_best: usize,
    /// Configurations rejected by the static verifier before simulation.
    pub pruned_verify: usize,
    /// Configurations dropped by the static cost model before simulation
    /// (estimate provably dominated by the incumbent's).
    pub pruned_model: usize,
    /// Successful simulator executions — evaluations minus both prune
    /// classes minus configurations that failed before producing a score.
    pub sims: usize,
}

/// The outcome of exploring + tuning one program on one device.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark (or program) name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// Grid sizes used.
    pub sizes: Vec<usize>,
    /// The fastest tuned variant.
    pub winner: TunedVariant,
    /// Best result per explored variant.
    pub all: Vec<TunedVariant>,
}

/// Everything the tuner needs about the program being tuned, independent of
/// where the program came from (Table-1 benchmark or user expression).
pub(crate) struct TuneContext<'a> {
    /// Display name used in reports and errors.
    pub name: String,
    /// Concrete output extents, outermost first.
    pub out_sizes: Vec<usize>,
    /// Input buffers, one per program parameter.
    pub inputs: Vec<BufferData>,
    /// Reference output to validate against (skipped when absent).
    pub golden: Option<Vec<f32>>,
    pub device: &'a VirtualDevice,
    pub cache: &'a KernelCache,
    pub budget: usize,
    pub seed: u64,
    /// Worker threads for tuning variants concurrently (1 = fully
    /// sequential). The thread count never changes results — only
    /// wall-clock.
    pub threads: usize,
    /// Checkpoint handle for resumable tuning (`None` = no
    /// checkpointing). Replaying never changes results either — it only
    /// skips re-evaluating what a previous process already measured.
    pub checkpoint: Option<CellCheckpoint>,
}

fn round_up(n: usize, m: usize) -> usize {
    n.div_ceil(m) * m
}

/// Work-group size candidates per dimensionality, derived from the device
/// profile's `max_wg_size`.
///
/// The preferred windows (e.g. 8–64 × 4–32 in 2D) assume a device that
/// admits at least a 32-wide group; on smaller devices they would make
/// *every* configuration violate the work-group constraint and tuning
/// would report `NoValidConfiguration`, so the per-dimension pow2 bounds
/// are clamped to `max_wg_size` and the lower bounds open down to 1.
fn local_space(dims: usize, max_wg: usize) -> Vec<ParamSpec> {
    let m = (max_wg as i64).max(1);
    let dim = |name: &str, lo: i64, hi: i64| ParamSpec::pow2(name, lo.min(m), hi.min(m));
    match dims {
        1 => vec![dim("lx", 32, m)],
        2 => {
            let (lx_lo, ly_lo) = if m >= 32 { (8, 4) } else { (1, 1) };
            vec![dim("lx", lx_lo, 64), dim("ly", ly_lo, 32)]
        }
        _ => {
            let (lx_lo, ly_lo) = if m >= 16 { (8, 2) } else { (1, 1) };
            let mut lz = vec![1];
            if m >= 2 {
                lz.push(2);
            }
            vec![
                dim("lx", lx_lo, 64),
                dim("ly", ly_lo, 16),
                ParamSpec::new("lz", lz),
            ]
        }
    }
}

fn value_of(cfg: &[(String, i64)], name: &str) -> Option<i64> {
    cfg.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Derives the launch configuration for a variant given its bound
/// parameters.
pub(crate) fn launch_for(
    variant: &Variant,
    out_sizes: &[usize],
    cfg: &[(String, i64)],
) -> Option<LaunchConfig> {
    let l = |name: &str, default: usize| value_of(cfg, name).map(|v| v as usize).unwrap_or(default);
    let (lx, ly, lz) = (l("lx", 32), l("ly", 1), l("lz", 1));
    let dims = variant.dims;

    // Output extents in launch order: x = innermost.
    let ox = *out_sizes.last()?;
    let oy = if dims >= 2 { out_sizes[dims - 2] } else { 1 };
    let oz = if dims >= 3 { out_sizes[dims - 3] } else { 1 };

    if variant.tiled {
        // One work-group per tile: the group count per dimension follows
        // from that dimension's tile-size tunable (`TS0` outermost).
        let mut groups = Vec::new();
        for t in &variant.tunables {
            let Tunable::TileSize {
                var,
                nbh_size,
                nbh_step,
                len,
            } = t
            else {
                continue;
            };
            let ts = value_of(cfg, var)?;
            let v = ts - (nbh_size - nbh_step);
            groups.push(((len - ts) / v + 1) as usize);
        }
        match groups.len() {
            1 => Some(LaunchConfig::d1(groups[0] * lx, lx)),
            2 => Some(LaunchConfig::d2(groups[1] * lx, groups[0] * ly, lx, ly)),
            3 => Some(LaunchConfig::d3(
                [groups[2] * lx, groups[1] * ly, groups[0] * lz],
                [lx, ly, lz],
            )),
            _ => None,
        }
    } else {
        let cf = value_of(cfg, "CF").unwrap_or(1).max(1) as usize;
        match dims {
            1 => Some(LaunchConfig::d1(round_up(ox.div_ceil(cf), lx), lx)),
            2 => Some(LaunchConfig::d2(
                round_up(ox.div_ceil(cf), lx),
                round_up(oy, ly),
                lx,
                ly,
            )),
            _ => {
                // A strip-mined z dimension (the PPCG 3D mapping) runs as a
                // sequential per-thread loop: the global z size stays one
                // group deep instead of covering the output extent. The
                // variant declares this explicitly — matching on its *name*
                // would silently mis-launch any future strip-mining
                // lowering introduced under a different name.
                let gz = if variant.strip_mined_z {
                    lz
                } else {
                    round_up(oz, lz)
                };
                Some(LaunchConfig::d3(
                    [round_up(ox.div_ceil(cf), lx), round_up(oy, ly), gz],
                    [lx, ly, lz],
                ))
            }
        }
    }
}

/// The kernel function name generated for a variant.
pub(crate) fn kernel_name(program_name: &str, variant_name: &str) -> String {
    let sanitize = |s: &str| {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
    };
    format!("{}_{}", sanitize(program_name), sanitize(variant_name))
}

/// Compiles a variant with its tunables bound, through the cache. The
/// returned [`PlannedKernel`](lift_oclsim::PlannedKernel) carries both the
/// kernel AST and its simulator execution plan, so every launch of this
/// configuration — and of every other launch shape of the same binding —
/// reuses one plan.
pub(crate) fn compile_bound(
    cache: &KernelCache,
    device: &VirtualDevice,
    program_name: &str,
    variant: &Variant,
    variant_fp: u64,
    tun_values: &[(String, i64)],
) -> Result<std::sync::Arc<lift_oclsim::PlannedKernel>, LiftError> {
    let kname = kernel_name(program_name, &variant.name);
    let key = CacheKey {
        program: variant_fp,
        variant: kname.clone(),
        params: tun_values.to_vec(),
        device: device.profile().name.to_string(),
    };
    cache.get_or_compile(key, || {
        let bound = if tun_values.is_empty() {
            variant.program.clone()
        } else {
            bind_tunables(variant, tun_values).ok_or_else(|| {
                LiftError::InvalidConfig(format!(
                    "invalid tunable values {tun_values:?} for variant `{}`",
                    variant.name
                ))
            })?
        };
        // Any residual size variables are rejected by codegen.
        compile_kernel(&kname, &bound).map_err(Into::into)
    })
}

pub(crate) fn outputs_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= 1e-3 * b.abs().max(1.0))
}

/// Binds one configuration of `variant`: collects the tunables `cfg`
/// names, rejects invalid values, compiles the bound kernel through the
/// cache and derives its launch. Simulation and estimation both start
/// here, so they always price the same kernel under the same launch.
fn bind_config(
    ctx: &TuneContext<'_>,
    variant: &Variant,
    variant_fp: u64,
    cfg: &[(String, i64)],
) -> Result<(std::sync::Arc<lift_oclsim::PlannedKernel>, LaunchConfig), LiftError> {
    let tun_values: Vec<(String, i64)> = variant
        .tunables
        .iter()
        .filter_map(|t| value_of(cfg, t.var()).map(|v| (t.var().to_string(), v)))
        .collect();
    if variant
        .tunables
        .iter()
        .any(|t| value_of(cfg, t.var()).is_some_and(|v| !t.is_valid(v)))
    {
        return Err(LiftError::InvalidConfig(format!(
            "tunable values {tun_values:?} are invalid for variant `{}`",
            variant.name
        )));
    }
    let kernel = compile_bound(
        ctx.cache,
        ctx.device,
        &ctx.name,
        variant,
        variant_fp,
        &tun_values,
    )?;
    let launch = launch_for(variant, &ctx.out_sizes, cfg).ok_or_else(|| {
        LiftError::InvalidConfig(format!(
            "cannot derive a launch configuration for `{}` from {cfg:?}",
            variant.name
        ))
    })?;
    Ok((kernel, launch))
}

/// Compiles and executes one bound configuration, returning the modeled
/// time if it runs and validates. During a search a failing configuration
/// is worthless, not fatal — but the *cause* is returned rather than
/// swallowed, so when not a single configuration works the resulting
/// [`LiftError::NoValidConfiguration`] can say why (the first failure per
/// variant is kept in its detail/source chain).
fn evaluate_config(
    ctx: &TuneContext<'_>,
    variant: &Variant,
    variant_fp: u64,
    cfg: &[(String, i64)],
) -> Result<f64, LiftError> {
    let (kernel, launch) = bind_config(ctx, variant, variant_fp, cfg)?;
    // Statically-unsafe configurations never reach the simulator: the
    // verifier proves bounds, barrier convergence, race freedom and
    // initialization per (kernel, launch) and the result is cached on the
    // compiled plan.
    let findings = kernel.verify(launch, ctx.device.profile())?;
    if !findings.is_empty() {
        return Err(LiftError::Verify {
            kernel: findings[0].kernel.clone(),
            findings: findings.as_ref().clone(),
        });
    }
    let out = ctx.device.run_planned(&kernel, &ctx.inputs, launch)?;
    if let Some(golden) = &ctx.golden {
        if !outputs_match(out.output.as_f32(), golden) {
            return Err(LiftError::Validation {
                variant: variant.name.clone(),
                detail: format!("output diverges from the golden reference under {cfg:?}"),
            });
        }
    }
    Ok(out.time_s)
}

/// The static model's predicted time for one configuration: bit for bit
/// the time a successful simulation reports (see `lift_oclsim::cost`).
/// `None` when no estimate exists: invalid tunables, no launch, compile
/// failure, or the kernel's control flow or global addressing reads buffer
/// data. Pure in (cfg, device) — the estimate itself is memoised on the
/// cached compiled plan, so a config is analyzed once no matter how often
/// the search consults it.
fn model_time(
    ctx: &TuneContext<'_>,
    variant: &Variant,
    variant_fp: u64,
    cfg: &[(String, i64)],
) -> Option<f64> {
    let (kernel, launch) = bind_config(ctx, variant, variant_fp, cfg).ok()?;
    let est = kernel.estimate(launch, ctx.device.profile()).ok()?;
    Some(est.time(ctx.device.profile()))
}

/// The outcome of tuning one variant: the best configuration (when any
/// worked) and the first failure hit (when any failed) — kept so an
/// all-variants-failed run can report *why* instead of a bare
/// "no valid configuration".
pub(crate) struct VariantOutcome {
    pub tuned: Option<TunedVariant>,
    pub first_failure: Option<LiftError>,
}

/// Tunes every variant and returns the per-variant bests plus the winner.
///
/// Variants are tuned concurrently on up to `ctx.threads` workers, one
/// variant per worker. Results are identical to the sequential sweep for
/// the same seed: every variant searches its own deterministic stream, the
/// bests are collected in exploration order, and the winner tie-breaks by
/// (time, exploration index).
///
/// # Errors
///
/// [`LiftError::NoValidConfiguration`] when not a single variant produced a
/// configuration that compiles, runs and validates; its `failures` carry
/// the first error each variant hit.
pub(crate) fn tune_variants(
    ctx: &TuneContext<'_>,
    variants: &[Variant],
) -> Result<BenchResult, LiftError> {
    let outcomes = parallel_map(ctx.threads, variants.iter().collect(), |v| {
        tune_variant(ctx, v)
    });
    let mut all = Vec::new();
    let mut failures = Vec::new();
    for (variant, outcome) in variants.iter().zip(outcomes) {
        match outcome.tuned {
            Some(t) => all.push(t),
            None => {
                if let Some(e) = outcome.first_failure {
                    failures.push((variant.name.clone(), Box::new(e)));
                }
            }
        }
    }
    let winner = all
        .iter()
        .min_by(|a, b| a.time_s.total_cmp(&b.time_s))
        .cloned()
        .ok_or_else(|| LiftError::NoValidConfiguration {
            program: ctx.name.clone(),
            device: ctx.device.profile().name.to_string(),
            failures,
        })?;
    Ok(BenchResult {
        bench: ctx.name.clone(),
        device: ctx.device.profile().name.to_string(),
        sizes: ctx.out_sizes.clone(),
        winner,
        all,
    })
}

/// Tunes one variant, one proposal at a time, steered by the static cost
/// model (see `lift_oclsim::cost`). `tuned` is `None` when no
/// configuration of this variant is valid (other variants may still win);
/// `first_failure` then explains the earliest proposal's failure.
///
/// The model's top-ranked configurations of the initial block are
/// simulated first, and a proposal whose estimate matches or exceeds the
/// freshest incumbent's is dropped unsimulated (`pruned_model`). Estimates
/// equal simulated times bit for bit (a kernel the model cannot price
/// exactly gets none), so pruning is lossless: a worse proposal loses on
/// score, a tied one the (score, proposal-index) tie-break. Proposals
/// depend only on the seed, the estimates and the outcomes told so far, so
/// results are bit-identical across thread counts, shards and resumes.
pub(crate) fn tune_variant(ctx: &TuneContext<'_>, variant: &Variant) -> VariantOutcome {
    let max_wg = ctx.device.profile().max_wg_size;
    let variant_fp = program_fingerprint(&variant.program);
    let mut specs = Vec::new();
    for t in &variant.tunables {
        let cap = match t {
            Tunable::TileSize { len, .. } => (*len).min(64),
            Tunable::CoarsenFactor { .. } => 16,
        };
        let mut cands = t.candidates(cap);
        if let Tunable::TileSize { nbh_size, .. } = t {
            // Degenerate tiles (little more than the neighbourhood) produce
            // one output per work-group and pathological launch sizes; no
            // sane tuner budget should be spent simulating them.
            cands.retain(|u| *u >= nbh_size + 3);
        }
        if cands.is_empty() {
            return VariantOutcome {
                tuned: None,
                first_failure: Some(LiftError::InvalidConfig(format!(
                    "tunable `{}` of variant `{}` has no usable candidate values",
                    t.var(),
                    variant.name
                ))),
            };
        }
        specs.push(ParamSpec::new(t.var().to_string(), cands));
    }
    let n_tunables = specs.len();
    specs.extend(local_space(variant.dims, max_wg));
    let space = ParamSpace::new(specs).with_constraint(move |cfg| {
        // Work-group size within the device limit.
        let wg: i64 = cfg[n_tunables..].iter().product();
        wg as usize <= max_wg
    });
    let names: Vec<String> = space
        .params()
        .iter()
        .map(|p| p.name().to_string())
        .collect();

    let named = |cfg: &[i64]| -> Vec<(String, i64)> {
        names.iter().cloned().zip(cfg.iter().copied()).collect()
    };
    let model = |cfg: &[i64]| model_time(ctx, variant, variant_fp, &named(cfg));
    let failed = |e: LiftError| VariantOutcome {
        tuned: None,
        first_failure: Some(e),
    };
    let diverged = |why: String| {
        failed(LiftError::Checkpoint(format!(
            "checkpointed search for variant `{}` diverges from this run: {why}; \
             delete the checkpoint or rerun with the build and options that wrote it",
            variant.name
        )))
    };

    let search_seed = ctx.seed ^ hash(&variant.name);
    let mut search = Search::new(space, ctx.budget, search_seed);
    let ck_key = ctx.checkpoint.as_ref().map(|c| c.key(&variant.name));
    // A checkpointed search resumes by replaying its record: the warm start
    // is re-applied from the recorded estimates, and the recorded outcomes
    // are told in proposal order before anything new is decided or
    // evaluated. A record that does not belong to this run (other seed,
    // budget or proposals) is a hard, explained failure rather than a
    // silent restart that would break the resumed-run-equals-uninterrupted
    // guarantee.
    let recorded = ctx
        .checkpoint
        .as_ref()
        .zip(ck_key.as_deref())
        .and_then(|(c, key)| c.mgr.lookup(key));
    let mut entry = match recorded {
        Some(entry) => {
            if entry.seed != search_seed || entry.budget != ctx.budget {
                return failed(LiftError::Checkpoint(format!(
                    "checkpointed search for variant `{}` was recorded with seed {} and \
                     budget {}, but this run uses seed {search_seed} and budget {}; \
                     delete the checkpoint or rerun with the original options",
                    variant.name, entry.seed, entry.budget, ctx.budget
                )));
            }
            // Ranking from the record keeps replay free of compiles.
            let mut ranks = entry.ranks.iter();
            let mut agrees = true;
            search.warm_start_by(|cfg| match ranks.next() {
                Some((recorded, rank)) if recorded == cfg => *rank,
                _ => {
                    agrees = false;
                    None
                }
            });
            if !agrees || ranks.next().is_some() {
                return diverged("its warm start ranked other configurations".into());
            }
            entry
        }
        None => {
            // Model-ranked warm-start: the first proposals simulated are
            // the model's top picks instead of pure PRNG draws. The ranker
            // is a pure function of (cfg, device), so the reorder — and
            // everything downstream — is deterministic.
            let mut ranks = Vec::new();
            search.warm_start_by(|cfg| {
                let rank = model(cfg);
                ranks.push((cfg.to_vec(), rank));
                rank
            });
            CheckpointEntry {
                seed: search_seed,
                budget: ctx.budget,
                ranks,
                tells: Vec::new(),
                first_failure: None,
            }
        }
    };
    // How many of the first proposals the record answers. Every proposal
    // is told before the next is asked, so `search.evaluations()` is the
    // index of the one in hand.
    let replay = entry.tells.len();
    let mut first_failure: Option<LiftError> = None;
    while let Some(cfg) = search.ask(1).pop() {
        let told = search.evaluations();
        if told < replay {
            // Replayed tells are not recorded again, and the fault seam
            // counts only fresh ones.
            let (recorded, outcome) = &entry.tells[told];
            if *recorded != cfg {
                return diverged(format!(
                    "proposal {told} is {cfg:?}, but the record holds {recorded:?}"
                ));
            }
            // Pruning by the model is no failure.
            let is_failure = matches!(outcome, Outcome::PrunedVerify | Outcome::Failed);
            if is_failure && first_failure.is_none() {
                first_failure = Some(LiftError::Checkpoint(format!(
                    "recorded before resume: {}",
                    entry
                        .first_failure
                        .as_deref()
                        .unwrap_or("no message recorded")
                )));
            }
            search.tell(&cfg, outcome.score());
            continue;
        }
        // The prune threshold is the incumbent's estimate. Until something
        // succeeds there is no incumbent and nothing is pruned, so the
        // search can never starve itself.
        let threshold = search.best().and_then(|b| model(&b.values));
        let prune = threshold.is_some_and(|inc| model(&cfg).is_some_and(|t| t >= inc));
        // A pruned proposal never reaches the simulator; it is not a
        // *failure* (nothing is wrong with it), so it never claims the
        // first-failure slot.
        let outcome = if prune {
            Outcome::PrunedModel
        } else {
            match evaluate_config(ctx, variant, variant_fp, &named(&cfg)) {
                Ok(s) => Outcome::Score(s),
                Err(e) => {
                    let outcome = if matches!(e, LiftError::Verify { .. }) {
                        Outcome::PrunedVerify
                    } else {
                        Outcome::Failed
                    };
                    if first_failure.is_none() {
                        entry.first_failure = Some(e.to_string());
                        first_failure = Some(e);
                    }
                    outcome
                }
            }
        };
        search.tell(&cfg, outcome.score());
        entry.tells.push((cfg, outcome));
        if let Some((c, key)) = ctx.checkpoint.as_ref().zip(ck_key.as_deref()) {
            c.mgr.record(key, &entry);
        }
        // Fault-injection seam: fires *after* this tell is checkpointed,
        // so an injected crash always dies with its completed work durable
        // — the scenario checkpoint adoption exists to recover.
        crate::fault::after_tell();
    }
    if search.evaluations() < replay {
        return diverged(format!(
            "the record holds {replay} tells, but the search ended after {}",
            search.evaluations()
        ));
    }
    // The prune counters follow from the outcomes, replayed or fresh, so
    // interrupted and uninterrupted runs report the same totals.
    let count = |kind: Outcome| entry.tells.iter().filter(|(_, o)| *o == kind).count();
    let pruned_verify = count(Outcome::PrunedVerify);
    let pruned_model = count(Outcome::PrunedModel);
    let evaluations = search.evaluations();
    let result = search.into_result();
    let tuned = result.best.and_then(|best| {
        // How many successful simulations it took to first measure the
        // winning score — the paper-scale "evaluations to best" metric.
        // Derived from the trace, which replay rebuilds, so resumed runs
        // report the same number as uninterrupted ones.
        let evals_to_best = result
            .trace
            .iter()
            .position(|c| c.score == best.score)
            .map(|i| i + 1)
            .unwrap_or(result.trace.len());
        let config: Vec<(String, i64)> = names.into_iter().zip(best.values).collect();
        let launch = launch_for(variant, &ctx.out_sizes, &config)?;
        let out_elems: usize = ctx.out_sizes.iter().product();
        Some(TunedVariant {
            name: variant.name.clone(),
            time_s: best.score,
            gelems_per_s: out_elems as f64 / best.score / 1e9,
            config,
            launch: (launch.global, launch.local),
            tiled: variant.tiled,
            local_mem: variant.local_mem,
            evaluations,
            evals_to_best,
            pruned_verify,
            pruned_model,
            sims: result.trace.len(),
        })
    });
    VariantOutcome {
        tuned,
        first_failure,
    }
}

/// Fingerprint of a variant's lowered program (cache key component).
pub(crate) fn program_fingerprint_of(variant: &Variant) -> u64 {
    program_fingerprint(&variant.program)
}

fn hash(s: &str) -> u64 {
    crate::cache::fnv1a(s.as_bytes())
}

pub(crate) fn bench_inputs(bench: &Benchmark, sizes: &[usize], seed: u64) -> Vec<BufferData> {
    bench
        .gen_inputs(sizes, seed)
        .into_iter()
        .map(BufferData::F32)
        .collect()
}

pub(crate) fn bench_golden(bench: &Benchmark, inputs: &[BufferData], sizes: &[usize]) -> Vec<f32> {
    bench.golden(
        &inputs
            .iter()
            .map(|b| b.as_f32().to_vec())
            .collect::<Vec<_>>(),
        sizes,
    )
}

/// The PPCG baseline as a [`Variant`], ready for the shared tuner.
pub(crate) fn ppcg_variant(prog: &lift_core::expr::FunDecl) -> Result<Variant, LiftError> {
    let k = lift_ppcg::compile(prog)?;
    Ok(Variant {
        name: "ppcg".into(),
        program: k.program,
        tunables: k.tunables,
        dims: k.dims,
        tiled: k.dims == 2,
        local_mem: k.dims == 2,
        unrolled: false,
        strip_mined_z: k.strip_mined_z,
    })
}

/// Tunes the PPCG baseline for `bench` (Fig. 8 benchmarks only).
///
/// # Errors
///
/// [`LiftError::Ppcg`] when the baseline cannot compile the program shape;
/// [`LiftError::NoValidConfiguration`] when tuning finds nothing valid.
pub fn ppcg_baseline(
    bench: &Benchmark,
    sizes: &[usize],
    dev: &VirtualDevice,
    opts: crate::TuneOptions,
) -> Result<TunedVariant, LiftError> {
    let prog = bench.program(sizes);
    let variant = ppcg_variant(&prog)?;
    let inputs = bench_inputs(bench, sizes, opts.seed);
    let golden = bench_golden(bench, &inputs, sizes);
    let manager = opts.checkpoint_manager()?;
    let ctx = TuneContext {
        name: bench.name.to_string(),
        out_sizes: sizes.to_vec(),
        inputs,
        golden: Some(golden),
        device: dev,
        cache: KernelCache::global(),
        budget: opts.evaluations,
        seed: opts.seed,
        threads: opts.threads,
        checkpoint: manager
            .clone()
            .map(|mgr| CellCheckpoint::new(mgr, bench.name, dev.profile().name, sizes)),
    };
    let outcome = tune_variant(&ctx, &variant);
    if let Some(mgr) = manager {
        mgr.flush()?;
    }
    outcome
        .tuned
        .ok_or_else(|| LiftError::NoValidConfiguration {
            program: format!("{} (ppcg)", bench.name),
            device: dev.profile().name.to_string(),
            failures: outcome
                .first_failure
                .into_iter()
                .map(|e| ("ppcg".to_string(), Box::new(e)))
                .collect(),
        })
}

/// Executes the hand-written reference kernel for a Fig. 7 benchmark (no
/// tuning — references are fixed).
///
/// # Errors
///
/// [`LiftError::Sim`] when the kernel fails to execute and
/// [`LiftError::Validation`] when it produces wrong results — hand-written
/// kernels are part of the repository and must work.
pub fn reference_baseline(
    bench: &Benchmark,
    sizes: &[usize],
    dev: &VirtualDevice,
    seed: u64,
) -> Result<TunedVariant, LiftError> {
    let r = reference_kernel(bench, sizes);
    let inputs = bench_inputs(bench, sizes, seed);
    let golden = bench_golden(bench, &inputs, sizes);
    let cfg = LaunchConfig::d3(r.global, r.local);
    let out = dev.run(&r.kernel, &inputs, cfg)?;
    if !outputs_match(out.output.as_f32(), &golden) {
        return Err(LiftError::Validation {
            variant: format!("reference:{}", bench.name),
            detail: "output diverges from the golden reference".into(),
        });
    }
    let out_elems = bench.out_elements(sizes);
    Ok(TunedVariant {
        name: "reference".into(),
        time_s: out.time_s,
        gelems_per_s: out_elems as f64 / out.time_s / 1e9,
        config: vec![],
        launch: (r.global, r.local),
        tiled: false,
        local_mem: bench.name == "Hotspot2D",
        evaluations: 1,
        evals_to_best: 1,
        pruned_verify: 0,
        pruned_model: 0,
        sims: 1,
    })
}
