//! `compile`: every Table-1 benchmark on every device, every variant under
//! seeded configurations, compiled and verified without running.

use std::sync::Arc;
use std::time::Instant;

use lift_driver::{KernelCache, Tunable, Variant, VariantSet};
use lift_oclsim::{DeviceProfile, FindingKind, VirtualDevice};
use lift_stencils::{suite, Benchmark};

use crate::common::{
    closed_loop, explore, golden, inputs, ms_since, passes, replay, timed_setup, Ctx, ReplayItem,
    Report,
};
use crate::stats::{fnv1a, median, tail, SplitMix64};

/// Configurations drawn per (benchmark, device, variant).
const DRAWS: usize = 16;
/// Timed repetitions of each operation; its latency is their median.
const REPS: usize = 3;

/// One operation: a benchmark, a device and one configuration of one
/// variant.
struct Draw {
    bench: usize,
    dev: usize,
    variant: String,
    config: Vec<(String, i64)>,
}

/// Candidate values of one tunable, as the tuner's search space has them.
fn candidates(t: &Tunable) -> Vec<i64> {
    match t {
        Tunable::TileSize { len, nbh_size, .. } => {
            let mut c = t.candidates((*len).min(64));
            c.retain(|u| *u >= nbh_size + 3);
            c
        }
        Tunable::CoarsenFactor { .. } => t.candidates(16),
    }
}

/// `DRAWS` seeded configurations of `variant` on `profile`: tunables from
/// the tuner's candidates, power-of-two work-groups within the device
/// limit. Empty when a tunable has no usable candidate (the tuner cannot
/// tune such a variant either).
fn draw_configs(
    seed: u64,
    bench: &str,
    profile: &DeviceProfile,
    variant: &Variant,
) -> Vec<Vec<(String, i64)>> {
    let tunables: Vec<(String, Vec<i64>)> = variant
        .tunables
        .iter()
        .map(|t| (t.var().to_string(), candidates(t)))
        .collect();
    if tunables.iter().any(|(_, c)| c.is_empty()) {
        return Vec::new();
    }
    let launch: &[(&str, &[i64])] = match variant.dims {
        ..=2 => &[("lx", &[8, 16, 32, 64]), ("ly", &[4, 8, 16, 32])],
        _ => &[
            ("lx", &[8, 16, 32, 64]),
            ("ly", &[2, 4, 8, 16]),
            ("lz", &[1, 2]),
        ],
    };
    let key = format!("{bench}@{}#{}", profile.name, variant.name);
    let mut rng = SplitMix64::new(seed ^ fnv1a(&key));
    (0..DRAWS)
        .map(|_| {
            let mut cfg: Vec<(String, i64)> = tunables
                .iter()
                .map(|(n, c)| (n.clone(), rng.pick(c)))
                .collect();
            let wg = loop {
                let wg: Vec<i64> = launch.iter().map(|(_, c)| rng.pick(c)).collect();
                if wg.iter().product::<i64>() as usize <= profile.max_wg_size {
                    break wg;
                }
            };
            cfg.extend(launch.iter().zip(wg).map(|((n, _), v)| (n.to_string(), v)));
            cfg
        })
        .collect()
}

/// The explored benchmarks, the devices and every drawn operation.
struct Workload {
    benches: Vec<(Benchmark, VariantSet)>,
    devices: Vec<VirtualDevice>,
    draws: Vec<Draw>,
}

fn prepare(ctx: &Ctx) -> Result<Workload, String> {
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut benches = Vec::new();
    let mut draws = Vec::new();
    for (b, bench) in suite().into_iter().enumerate() {
        let set = explore(ctx, ctx.op(), &bench, bench.small)?;
        for (d, dev) in devices.iter().enumerate() {
            for v in set.variants() {
                for config in draw_configs(ctx.seed, bench.name, dev.profile(), v) {
                    draws.push(Draw {
                        bench: b,
                        dev: d,
                        variant: v.name.clone(),
                        config,
                    });
                }
            }
        }
        benches.push((bench, set));
    }
    Ok(Workload {
        benches,
        devices,
        draws,
    })
}

/// from_benchmark → explore → with_config on a fresh cache → verify.
/// Returns the verifier's findings.
fn compile_once(
    ctx: &Ctx,
    op: u64,
    bench: &Benchmark,
    dev: &VirtualDevice,
    d: &Draw,
) -> Result<Vec<lift_oclsim::VerifyFinding>, String> {
    let set = explore(ctx, op, bench, bench.small)?;
    let params: Vec<(&str, i64)> = d.config.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let stencil = ctx
        .span("codegen.compile", op, 0, || {
            set.on(dev)
                .with_cache(Arc::new(KernelCache::new()))
                .with_config(&d.variant, &params)
        })
        .map_err(|e| e.to_string())?;
    ctx.span("oclsim.verify", op, 0, || stencil.verify())
        .map_err(|e| e.to_string())
}

/// `compile`: every draw compiled and verified `REPS` times; an operation
/// fails when the pipeline refuses the configuration or the verifier finds
/// anything but a local-memory overflow (which the tuner prunes too).
pub fn compile(ctx: &Ctx) -> Result<Report, String> {
    let (setup_s, work) = timed_setup(|| prepare(ctx));
    let work = work?;
    let runs = passes(ctx, |_| {
        closed_loop(&work.draws, |d| {
            let (bench, _) = &work.benches[d.bench];
            let dev = &work.devices[d.dev];
            let op = ctx.op();
            let mut ms = Vec::new();
            let mut findings = Ok(Vec::new());
            for _ in 0..REPS {
                let t = Instant::now();
                findings = compile_once(ctx, op, bench, dev, d);
                ms.push(ms_since(t));
            }
            if let Ok(f) = &findings {
                ctx.count(|c| c.verify_findings += f.len() as u64);
            }
            // Ok(true): clean apart from a local-memory overflow.
            let result = findings.and_then(|f| {
                match f.iter().find(|f| f.kind != FindingKind::LocalMemCapacity) {
                    Some(defect) => Err(defect.to_string()),
                    None => Ok(!f.is_empty()),
                }
            });
            let over_capacity = result == Ok(true);
            ctx.check(result.map(|_| ()).map_err(|e| {
                format!(
                    "{}@{} {} {:?}: {e}",
                    bench.name,
                    dev.profile().name,
                    d.variant,
                    d.config
                )
            }));
            (median(&ms), over_capacity)
        })
    });
    let sweeps: Vec<f64> = runs.iter().map(|(wall, _)| *wall).collect();
    let op_ms: Vec<f64> = (0..work.draws.len())
        .map(|i| median(&runs.iter().map(|(_, r)| r[i].0).collect::<Vec<_>>()))
        .collect();
    // Draws are the same every pass, and so is their verdict.
    let over_capacity: Vec<bool> = runs[0].1.iter().map(|(_, over)| *over).collect();

    if ctx.tracer.enabled() {
        // One kernel per (benchmark, variant) on the first device, the
        // first draw that fits its local memory: the layers the timed
        // phase leaves out, on the same kernels.
        let dev = &work.devices[0];
        for (b, (bench, set)) in work.benches.iter().enumerate() {
            let inputs = inputs(bench, bench.small, ctx.seed);
            let golden = golden(ctx, ctx.op(), bench, &inputs, bench.small);
            for v in set.variants() {
                let Some((_, d)) = work.draws.iter().enumerate().find(|(i, d)| {
                    d.bench == b && d.dev == 0 && d.variant == v.name && !over_capacity[*i]
                }) else {
                    continue;
                };
                replay(
                    ctx,
                    ReplayItem {
                        label: format!("{} {}", bench.name, v.name),
                        session: set.clone().on(dev),
                        variant: &v.name,
                        config: &d.config,
                        inputs: &inputs,
                        golden: &golden,
                        tuned_time_s: None,
                    },
                );
            }
        }
    }

    let mut extra = vec![("compile_ops", work.draws.len() as f64, "count")];
    if let Some(t) = tail(&op_ms) {
        extra.push(("op_ms_tail", t.value, "ms"));
        extra.push(("op_ms_tail_pct", t.pct, "%"));
    }
    let over = over_capacity.iter().filter(|o| **o).count();
    extra.push(("over_capacity_ops", over as f64, "count"));
    Ok(Report {
        setup_s,
        sweeps,
        op_ms,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_driver::Pipeline;

    #[test]
    fn config_draws_repeat_per_seed_and_differ_across_seeds() {
        let bench = lift_stencils::by_name("Jacobi2D5pt");
        let set = Pipeline::from_benchmark(&bench, bench.small)
            .and_then(|p| p.explore())
            .expect("explores");
        let tiled = set.get("tiled-local").expect("a tiled variant");
        let profile = DeviceProfile::hd7970();
        let draw = |seed| draw_configs(seed, bench.name, &profile, tiled);
        assert_eq!(draw(2018), draw(2018));
        assert_ne!(draw(2018), draw(7));
        assert_ne!(draw(7), draw(42));
        for cfg in draw(42) {
            let wg: i64 = cfg
                .iter()
                .filter(|(n, _)| n.starts_with('l'))
                .map(|(_, v)| v)
                .product();
            assert!(wg as usize <= profile.max_wg_size, "{cfg:?}");
            for t in &tiled.tunables {
                let (_, v) = cfg.iter().find(|(n, _)| n == t.var()).expect("bound");
                assert!(t.is_valid(*v), "{cfg:?}");
            }
        }
    }
}
