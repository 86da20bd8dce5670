//! The cost-model tuning contract: model guidance (warm-start + dominated-
//! config pruning) changes how *fast* tuning converges, never *what* it
//! finds — and stays bit-deterministic across thread counts while at it.

use std::sync::Arc;

use lift::lift_oclsim::{DeviceProfile, VirtualDevice};
use lift::{CostModel, KernelCache, Pipeline, TuneOptions, TunedVariant};

fn fingerprint(v: &TunedVariant) -> (String, String, Vec<(String, i64)>) {
    (
        v.name.clone(),
        // Scores must be *bit*-identical, not approximately equal.
        format!("{:x}", v.time_s.to_bits()),
        v.config.clone(),
    )
}

fn tune(
    dev: &VirtualDevice,
    bench: &str,
    sizes: &[usize],
    setting: CostModel,
    threads: usize,
) -> lift::lift_driver::BenchResult {
    Pipeline::for_benchmark(bench, sizes)
        .expect("benchmark exists")
        .explore()
        .expect("explores")
        .on(dev)
        .with_cache(Arc::new(KernelCache::new()))
        .tune_full(
            TuneOptions::evaluations(10)
                .with_seed(7)
                .with_threads(threads)
                .with_cost_prune(setting),
        )
        .expect("tunes")
        .report
}

/// The safety half of the contract: with the model on (the default) every
/// variant's best is identical — score bits, configuration and winner — to
/// the unguided (`off`) search, on every device profile. The model can
/// only prune configurations whose exact estimate matches or exceeds the
/// incumbent's — a worse one loses on score, an
/// exactly-tied one loses the (score, proposal-index) tie-break — and for
/// launch-determined kernels the exact estimate *is* the simulated score.
#[test]
fn pruned_tuning_finds_the_unpruned_incumbent() {
    for profile in DeviceProfile::all() {
        let dev = VirtualDevice::new(profile);
        for (bench, sizes) in [("Jacobi2D5pt", vec![18usize, 18]), ("Heat", vec![8, 8, 8])] {
            let guided = tune(&dev, bench, &sizes, CostModel::default(), 1);
            let unguided = tune(&dev, bench, &sizes, CostModel::off(), 1);
            assert_eq!(
                fingerprint(&guided.winner),
                fingerprint(&unguided.winner),
                "{bench} on {}: model guidance changed the winner",
                dev.profile().name
            );
            assert_eq!(
                guided.all.iter().map(fingerprint).collect::<Vec<_>>(),
                unguided.all.iter().map(fingerprint).collect::<Vec<_>>(),
                "{bench} on {}: model guidance changed a per-variant best",
                dev.profile().name
            );
            // The unguided run never consults the model.
            let unguided_pruned: usize = unguided.all.iter().map(|v| v.pruned_model).sum();
            assert_eq!(unguided_pruned, 0, "off means off");
        }
    }
}

/// The determinism half: prune decisions are a pure function of the
/// proposal stream (single-proposal decision windows against the freshest
/// incumbent's estimate), so any thread count reproduces the sequential
/// run exactly — including the prune counters and the evals-to-best
/// metric.
#[test]
fn model_guided_tuning_is_bit_identical_across_thread_counts() {
    let dev = VirtualDevice::new(DeviceProfile::hd7970());
    let full = |threads: usize| {
        tune(
            &dev,
            "Jacobi2D5pt",
            &[18, 18],
            CostModel::default(),
            threads,
        )
        .all
        .iter()
        .map(|v| {
            (
                fingerprint(v),
                v.evaluations,
                v.evals_to_best,
                v.pruned_verify,
                v.pruned_model,
                v.sims,
            )
        })
        .collect::<Vec<_>>()
    };
    let sequential = full(1);
    for threads in [2, 8] {
        assert_eq!(full(threads), sequential, "threads={threads} diverged");
    }
}

/// Warm-start earns its keep: with an exact model the winning score is
/// scored no later than in the unguided search, and the guided search
/// spends strictly fewer simulator evaluations whenever it prunes.
#[test]
fn model_guidance_never_slows_convergence() {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let guided = tune(&dev, "Jacobi2D5pt", &[18, 18], CostModel::default(), 1);
    let unguided = tune(&dev, "Jacobi2D5pt", &[18, 18], CostModel::off(), 1);
    assert!(
        guided.winner.evals_to_best <= unguided.winner.evals_to_best,
        "warm-start must not defer the winner: {} vs {}",
        guided.winner.evals_to_best,
        unguided.winner.evals_to_best
    );
    let sims = |r: &lift::lift_driver::BenchResult| -> usize { r.all.iter().map(|v| v.sims).sum() };
    assert!(
        sims(&guided) <= sims(&unguided),
        "pruning must not add simulator work: {} vs {}",
        sims(&guided),
        sims(&unguided)
    );
}

/// The `LIFT_COST_PRUNE` syntax: `on` and `1` enable, `off` and `0`
/// disable, and anything else is an error — never a silent fallback to the
/// default.
#[test]
fn cost_prune_setting_parses_defensively() {
    assert!(CostModel::default().enabled);
    for on in ["on", "1", " ON "] {
        let m = CostModel::parse(on).expect("a valid setting");
        assert_eq!(m, CostModel::default(), "`{on}` must enable the model");
    }
    for off in ["off", "0", " OFF "] {
        let m = CostModel::parse(off).expect("a valid setting");
        assert!(!m.enabled, "`{off}` must disable the model");
    }
    for junk in ["", "nan", "-1", "inf", "fast", "2.5", "1.0", "0.0"] {
        assert!(
            CostModel::parse(junk).is_err(),
            "`{junk}` must be rejected, not defaulted"
        );
    }
    assert!(!CostModel::off().enabled);
}
