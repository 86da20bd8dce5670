//! The staged session API end-to-end: for every Table-1 benchmark × all
//! three device profiles, `Pipeline → CompiledStencil → run` matches the
//! golden reference, a second identical session is bit-identical, and the
//! kernel cache serves the second compilation without recompiling.

use std::sync::Arc;

use lift::lift_oclsim::{BufferData, DeviceProfile, VirtualDevice};
use lift::{KernelCache, LiftError, Pipeline, TuneOptions};

fn tiny(sizes: &[usize]) -> Vec<usize> {
    sizes.iter().map(|s| (*s).clamp(6, 12)).collect()
}

fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-4 * y.abs().max(1.0))
}

fn launch_params(dims: usize) -> Vec<(&'static str, i64)> {
    match dims {
        1 => vec![("lx", 4)],
        2 => vec![("lx", 4), ("ly", 4)],
        _ => vec![("lx", 4), ("ly", 4), ("lz", 2)],
    }
}

/// The full round trip on every (benchmark, device) cell, each cell run as
/// *two* independent sessions sharing one cache: outputs must match the
/// golden reference, the sessions must agree bit-exactly, and the second
/// session must perform **zero** recompilations.
#[test]
fn round_trip_every_benchmark_on_every_device_with_cache_reuse() {
    let cache = Arc::new(KernelCache::new());
    for bench in lift::lift_stencils::suite() {
        let sizes = tiny(bench.small);
        let raw_inputs = bench.gen_inputs(&sizes, 23);
        let golden = bench.golden(&raw_inputs, &sizes);
        let inputs: Vec<BufferData> = raw_inputs.into_iter().map(BufferData::F32).collect();
        let params = launch_params(bench.dims);

        for profile in DeviceProfile::all() {
            let dev = VirtualDevice::new(profile);
            let session = |cache: Arc<KernelCache>| {
                Pipeline::from_benchmark(&bench, &sizes)?
                    .explore()?
                    .on(&dev)
                    .with_cache(cache)
                    .with_config("global", &params)
            };

            let first = session(cache.clone()).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            let compiles_after_first = cache.stats().compiles;
            let out1 = first
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name, dev.profile().name));
            assert!(
                close(out1.output.as_f32(), &golden),
                "{} on {}: output diverges from golden reference",
                bench.name,
                dev.profile().name
            );

            // Session two: same (benchmark, device, config) — the cache
            // must serve the kernel without a single new compilation.
            let second = session(cache.clone()).expect("second session");
            assert_eq!(
                cache.stats().compiles,
                compiles_after_first,
                "{} on {}: second session recompiled",
                bench.name,
                dev.profile().name
            );
            assert!(
                Arc::ptr_eq(first.kernel(), second.kernel()),
                "{} on {}: cache returned a different kernel object",
                bench.name,
                dev.profile().name
            );
            let out2 = second.run(&inputs).expect("second run");
            assert_eq!(
                out1.output.as_f32(),
                out2.output.as_f32(),
                "{} on {}: sessions disagree bit-exactly",
                bench.name,
                dev.profile().name
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.compiles > 0, "sanity: {stats:?}");
}

/// The compile counter in detail on one benchmark: exactly one compile for
/// two sessions, and a *different* configuration compiles anew.
#[test]
fn second_compile_is_a_cache_hit_and_different_config_is_not() {
    let cache = Arc::new(KernelCache::new());
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let compile = |variant: &str, params: &[(&str, i64)]| {
        Pipeline::for_benchmark("Jacobi2D5pt", &[10, 10])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .with_cache(cache.clone())
            .with_config(variant, params)
            .unwrap()
    };

    compile("global", &[("lx", 4), ("ly", 4)]);
    assert_eq!(cache.stats().compiles, 1);
    assert_eq!(cache.stats().hits, 0);

    // Same kernel under a different *launch* shape: launch parameters are
    // not part of generated code, so this is still a hit.
    compile("global", &[("lx", 8), ("ly", 2)]);
    assert_eq!(cache.stats().compiles, 1, "launch-only change recompiled");
    assert_eq!(cache.stats().hits, 1);

    // A different variant is a genuinely different kernel.
    compile("global-unroll", &[("lx", 4), ("ly", 4)]);
    assert_eq!(cache.stats().compiles, 2);

    // A different tunable value is a genuinely different kernel.
    compile("tiled", &[("TS0", 4), ("TS1", 4), ("lx", 4), ("ly", 4)]);
    compile("tiled", &[("TS0", 12), ("TS1", 4), ("lx", 4), ("ly", 4)]);
    assert_eq!(cache.stats().compiles, 4);
    assert_eq!(cache.len(), 4);
}

/// Tuning then re-running the winner's exact configuration in a fresh
/// session stays cached end-to-end.
#[test]
fn tuned_winner_is_reusable_from_the_cache() {
    let cache = Arc::new(KernelCache::new());
    let dev = VirtualDevice::new(DeviceProfile::hd7970());
    let outcome = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
        .unwrap()
        .explore()
        .unwrap()
        .on(&dev)
        .with_cache(cache.clone())
        .tune_full(TuneOptions::evaluations(6).with_seed(5))
        .expect("tunes");
    let compiles_after_tune = cache.stats().compiles;

    // Rebuild the winner from its reported configuration in a new session.
    let cfg: Vec<(&str, i64)> = outcome
        .report
        .winner
        .config
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    let rebuilt = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
        .unwrap()
        .explore()
        .unwrap()
        .on(&dev)
        .with_cache(cache.clone())
        .with_config(&outcome.report.winner.name, &cfg)
        .expect("rebuilds");
    assert_eq!(
        cache.stats().compiles,
        compiles_after_tune,
        "rebuilding the tuned winner must not recompile"
    );
    assert!(Arc::ptr_eq(outcome.winner.kernel(), rebuilt.kernel()));

    // And it still validates.
    let bench = lift::lift_stencils::by_name("Jacobi2D5pt");
    let raw = bench.gen_inputs(&[18, 18], 9);
    let golden = bench.golden(&raw, &[18, 18]);
    let inputs: Vec<BufferData> = raw.into_iter().map(BufferData::F32).collect();
    let out = rebuilt.run(&inputs).expect("runs");
    assert!(close(out.output.as_f32(), &golden));
}

/// Stage errors are values, not panics, and chain to their origin.
#[test]
fn errors_carry_their_source() {
    let err = Pipeline::for_benchmark("NoSuchBenchmark", &[8]).unwrap_err();
    assert!(matches!(err, LiftError::UnknownBenchmark(_)));

    use lift::lift_core::prelude::*;
    let ill_typed = lam(Type::f32(), |x| map(add_f32(), x));
    let err = Pipeline::new(ill_typed).unwrap_err();
    assert!(matches!(err, LiftError::Type(_)));
    let source = std::error::Error::source(&err).expect("chains to TypeError");
    assert!(source.is::<lift::lift_core::typecheck::TypeError>());
}
