//! The staged session API: one entry point from a high-level stencil
//! expression to a tuned, cached, executable OpenCL kernel.
//!
//! The paper's value proposition is a single automated flow — expression →
//! rewrite-based exploration → view-based code generation → auto-tuned
//! execution. This crate is that flow as an API. Each stage returns a new
//! typed object, so the compiler enforces the order and every intermediate
//! result stays inspectable:
//!
//! ```
//! use lift_driver::{Pipeline, TuneOptions};
//! use lift_oclsim::{BufferData, DeviceProfile, VirtualDevice};
//!
//! # fn main() -> Result<(), lift_driver::LiftError> {
//! let device = VirtualDevice::new(DeviceProfile::k20c());
//! let stencil = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])? // stage 1: typed program
//!     .explore()?                          // stage 2: rewrite-derived VariantSet
//!     .on(&device)                         // stage 3: DeviceSession
//!     .tune(TuneOptions::evaluations(2))?; // stage 4: CompiledStencil (winner)
//! assert!(stencil.source().contains("__kernel"));
//! let inputs: Vec<BufferData> = lift_stencils::by_name("Jacobi2D5pt")
//!     .gen_inputs(&[18, 18], 1)
//!     .into_iter()
//!     .map(BufferData::F32)
//!     .collect();
//! let out = stencil.run(&inputs)?;         // execute (no recompilation, ever)
//! assert_eq!(out.output.as_f32().len(), 18 * 18);
//! # Ok(())
//! # }
//! ```
//!
//! or, skipping the search, pick a configuration by hand — tiled variants
//! carry one independent tile-size tunable per grid dimension:
//!
//! ```
//! # use lift_driver::Pipeline;
//! # use lift_oclsim::{DeviceProfile, VirtualDevice};
//! # fn main() -> Result<(), lift_driver::LiftError> {
//! # let device = VirtualDevice::new(DeviceProfile::k20c());
//! let session = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])?
//!     .explore()?
//!     .on(&device);
//! let fixed = session.with_config(
//!     "tiled-local",
//!     &[("TS0", 8), ("TS1", 8), ("lx", 8), ("ly", 8)],
//! )?;
//! assert_eq!(fixed.variant(), "tiled-local");
//! # Ok(())
//! # }
//! ```
//!
//! Four design decisions carry the crate:
//!
//! * **Unified errors** — every fallible stage returns
//!   [`Result<_, LiftError>`]; [`LiftError`] wraps the seven per-crate
//!   error types with [`std::error::Error::source`] chaining. When tuning
//!   finds nothing valid, [`LiftError::NoValidConfiguration`] carries the
//!   first failure each variant hit instead of a bare verdict.
//! * **Kernel cache** — compilations are memoised process-wide in a
//!   [`KernelCache`] keyed by (program fingerprint, variant, bound
//!   parameters, device profile). Serving the same stencil twice compiles
//!   once; see [`KernelCache::stats`]. The cache is safe under concurrent
//!   tuning: racing threads on one key settle on a single cached kernel
//!   and the compile counter counts only the winning insert.
//! * **Parallel, deterministic, model-guided tuning** — every variant is
//!   searched on the tuner's ask/tell engine one proposal at a time: the
//!   static cost model ranks the initial proposals and prunes any whose
//!   exact estimate cannot beat the incumbent's, so only candidates that
//!   could win are simulated. Variants fan out across
//!   [`TuneOptions::threads`] workers, and the thread count never changes
//!   results: the same seed yields identical winners, configurations and
//!   scores at any parallelism. With
//!   [`TuneOptions::checkpoint`] what every search was told is recorded
//!   atomically as it progresses, and a later run replays the file
//!   bit-identically to a run that was never interrupted — see
//!   [`CheckpointManager`].
//!
//! Configuration arrives only as arguments — [`TuneOptions`] values and
//! the [`VirtualDevice`](lift_oclsim::VirtualDevice); the crate reads no
//! environment. The fault-injection seam ([`fault`]) is armed explicitly
//! by the binary that wants it.
//! * **Baselines included** — [`reference_baseline`] (hand-written
//!   kernels) and [`ppcg_baseline`] (the fixed polyhedral strategy) run
//!   through the same machinery, which is how the harness regenerates the
//!   paper's figures without a second orchestration path.

#![forbid(unsafe_code)]

mod cache;
mod checkpoint;
mod error;
pub mod fault;
mod pipeline;
mod tune;

pub use cache::{CacheKey, CacheStats, KernelCache};
pub use checkpoint::{CheckpointManager, CHECKPOINT_SCHEMA_VERSION};
pub use error::LiftError;
pub use fault::FAULT_EXIT_CODE;
pub use lift_rewrite::strategy::{Tunable, Variant};
pub use pipeline::{
    CompiledStencil, DeviceSession, Pipeline, TuneOptions, TuneOutcome, VariantSet,
};
pub use tune::{ppcg_baseline, reference_baseline, BenchResult, TunedVariant};

#[cfg(test)]
mod tests {
    use super::*;
    use lift_oclsim::{DeviceProfile, VirtualDevice};
    use lift_tuner::json::Value;
    use std::sync::Arc;

    #[test]
    fn tune_end_to_end_small() {
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let outcome = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
            .expect("benchmark exists")
            .explore()
            .expect("explores")
            .on(&dev)
            .tune_full(TuneOptions::evaluations(4).with_seed(1))
            .expect("tunes");
        assert!(outcome.report.winner.time_s > 0.0);
        assert!(
            outcome.report.all.len() >= 2,
            "expected several variants, got {:?}",
            outcome
                .report
                .all
                .iter()
                .map(|v| &v.name)
                .collect::<Vec<_>>()
        );
        for v in &outcome.report.all {
            assert!(v.gelems_per_s > 0.0, "{} has no throughput", v.name);
        }
        // The winner is executable and carries its modeled time.
        assert_eq!(
            outcome.winner.predicted_time_s(),
            Some(outcome.report.winner.time_s)
        );
        assert!(outcome.winner.source().contains("__kernel"));
    }

    #[test]
    fn reference_runs_and_validates() {
        let bench = lift_stencils::by_name("Hotspot2D");
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let r = reference_baseline(&bench, &[32, 32], &dev, 1).expect("runs");
        assert!(r.time_s > 0.0);
        assert!(r.local_mem);
    }

    #[test]
    fn ppcg_tunes_2d() {
        let bench = lift_stencils::by_name("Jacobi2D5pt");
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let r = ppcg_baseline(
            &bench,
            &[18, 18],
            &dev,
            TuneOptions::evaluations(6).with_seed(1),
        )
        .expect("ppcg result");
        assert!(r.tiled);
        assert!(r.time_s > 0.0);
    }

    #[test]
    fn ppcg_tunes_3d() {
        let bench = lift_stencils::by_name("Heat");
        let dev = VirtualDevice::new(DeviceProfile::mali_t628());
        let r = ppcg_baseline(
            &bench,
            &[8, 8, 8],
            &dev,
            TuneOptions::evaluations(4).with_seed(1),
        )
        .expect("ppcg result");
        assert!(!r.tiled);
    }

    #[test]
    fn unknown_benchmark_and_variant_are_errors_not_panics() {
        let err = Pipeline::for_benchmark("NoSuchBench", &[8, 8]).unwrap_err();
        assert!(matches!(err, LiftError::UnknownBenchmark(_)));

        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let err = Pipeline::for_benchmark("Jacobi2D5pt", &[10, 10])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .with_config("no-such-variant", &[])
            .unwrap_err();
        let LiftError::UnknownVariant { available, .. } = err else {
            panic!("expected UnknownVariant, got {err}");
        };
        assert!(available.iter().any(|n| n == "global"));

        // A zero budget names itself instead of finding "no valid
        // configuration" with no cause.
        let err = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .tune(TuneOptions::evaluations(0))
            .unwrap_err();
        assert!(
            matches!(&err, LiftError::InvalidConfig(m) if m.contains("budget of 0")),
            "{err}"
        );
        let bench = lift_stencils::by_name("Jacobi2D5pt");
        let err = ppcg_baseline(&bench, &[18, 18], &dev, TuneOptions::evaluations(0)).unwrap_err();
        assert!(
            matches!(&err, LiftError::InvalidConfig(m) if m.contains("budget of 0")),
            "{err}"
        );
    }

    #[test]
    fn with_config_rejects_bad_parameters() {
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let session = || {
            Pipeline::for_benchmark("Jacobi2D5pt", &[10, 10])
                .unwrap()
                .explore()
                .unwrap()
                .on(&dev)
        };
        // Unknown parameter name.
        let err = session().with_config("global", &[("Ts", 4)]).unwrap_err();
        assert!(matches!(err, LiftError::InvalidConfig(_)), "{err}");
        // Missing required tunable.
        let err = session().with_config("tiled", &[]).unwrap_err();
        assert!(matches!(err, LiftError::InvalidConfig(_)), "{err}");
        // Invalid tunable value (5 is not a valid tile size for 12-padded).
        let err = session()
            .with_config("tiled", &[("TS0", 5), ("TS1", 4)])
            .unwrap_err();
        assert!(matches!(err, LiftError::InvalidConfig(_)), "{err}");
        // Oversized work-group.
        let err = session()
            .with_config("global", &[("lx", 4096)])
            .unwrap_err();
        assert!(matches!(err, LiftError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn expression_pipeline_validates_through_the_evaluator() {
        use lift_core::prelude::*;
        let n = 24usize;
        let program = lam_named("A", Type::array(Type::f32(), n), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), nbh)
            });
            map(sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        });
        let dev = VirtualDevice::new(DeviceProfile::hd7970());
        let compiled = Pipeline::new(program)
            .expect("typechecks")
            .explore()
            .expect("explores")
            .on(&dev)
            .tune(TuneOptions::evaluations(4).with_seed(3))
            .expect("a free-standing expression tunes too");
        let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
        let out = compiled.run(&[input.clone().into()]).expect("runs");
        let expected: Vec<f32> = (0..n as i64)
            .map(|i| {
                let at = |j: i64| input[j.clamp(0, n as i64 - 1) as usize];
                at(i - 1) + at(i) + at(i + 1)
            })
            .collect();
        assert_eq!(out.output.as_f32(), expected.as_slice());
    }

    #[test]
    fn wrong_arity_sizes_are_an_error_not_a_panic() {
        let err = Pipeline::for_benchmark("Jacobi2D5pt", &[16]).unwrap_err();
        assert!(matches!(err, LiftError::InvalidConfig(_)), "{err}");
        let err = Pipeline::for_benchmark("Heat", &[8, 8, 8, 8]).unwrap_err();
        assert!(matches!(err, LiftError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn scalar_parameter_tuning_is_an_error_not_a_panic() {
        use lift_core::prelude::*;
        // Well-typed, but the scalar parameter has no buffer shape to
        // synthesise tuning inputs for.
        let prog = lam2(Type::f32(), Type::array(Type::f32(), 8usize), |s, a| {
            map(
                lam(Type::f32(), move |x| call(&add_f32(), [x, s.clone()])),
                a,
            )
        });
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let err = Pipeline::new(prog)
            .expect("typechecks")
            .explore()
            .expect("explores")
            .on(&dev)
            .tune(TuneOptions::evaluations(2))
            .unwrap_err();
        assert!(matches!(err, LiftError::Unsupported(_)), "{err}");
    }

    #[test]
    fn ill_typed_program_is_rejected_at_stage_one() {
        use lift_core::prelude::*;
        let bad = lam(Type::f32(), |x| map(add_f32(), x));
        let err = Pipeline::new(bad).unwrap_err();
        assert!(matches!(err, LiftError::Type(_)));
    }

    type Fingerprint = (String, u64, Vec<(String, i64)>, usize);

    fn report_fingerprint(report: &BenchResult) -> Vec<Fingerprint> {
        report
            .all
            .iter()
            .map(|v| {
                (
                    v.name.clone(),
                    v.time_s.to_bits(),
                    v.config.clone(),
                    v.evaluations,
                )
            })
            .collect()
    }

    #[test]
    fn checkpointed_tuning_is_bit_identical_and_resumable() {
        let dir = std::env::temp_dir().join(format!("lift-ck-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let run = |opts: TuneOptions, cache: Arc<KernelCache>| {
            Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
                .unwrap()
                .explore()
                .unwrap()
                .on(&dev)
                .with_cache(cache)
                .tune_full(opts)
                .expect("tunes")
                .report
        };
        let opts = || {
            TuneOptions::evaluations(6)
                .with_seed(4)
                .with_checkpoint_every(1)
        };

        // A checkpointed run produces exactly the un-checkpointed result.
        let reference = run(opts(), Arc::new(KernelCache::new()));
        let first_path = dir.join("first.json");
        let first = run(
            opts().with_checkpoint(&first_path),
            Arc::new(KernelCache::new()),
        );
        assert_eq!(report_fingerprint(&first), report_fingerprint(&reference));
        assert!(first_path.exists(), "the checkpoint file was written");

        // Resuming from the completed file replays the result without a
        // single re-evaluation: the only compile is the winner's (a cache
        // key already counted, so compiles stays 0 on a fresh cache that
        // never tuned — assert via the evaluation counter instead).
        let copy_path = dir.join("resume.json");
        std::fs::copy(&first_path, &copy_path).unwrap();
        let cache = Arc::new(KernelCache::new());
        let resumed = run(opts().with_checkpoint(&copy_path), cache.clone());
        assert_eq!(report_fingerprint(&resumed), report_fingerprint(&reference));
        let stats = cache.stats();
        assert_eq!(
            stats.compiles, 1,
            "a completed checkpoint replays: only the winner compiles ({stats:?})"
        );

        // A checkpoint recorded under different options must refuse to
        // resume, loudly.
        let err = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .with_cache(Arc::new(KernelCache::new()))
            .tune_full(
                TuneOptions::evaluations(6)
                    .with_seed(99)
                    .with_checkpoint(&copy_path),
            )
            .expect_err("seed mismatch must not silently retune");
        let LiftError::Checkpoint(msg) = &err else {
            panic!("expected a checkpoint error, got {err}");
        };
        assert!(
            msg.contains("variant `") && msg.contains("seed"),
            "the error names the variant and the mismatch: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn member<'a>(obj: &'a mut Value, name: &str) -> &'a mut Value {
        let Value::Obj(members) = obj else {
            panic!("`{name}` lives in an object")
        };
        &mut members.iter_mut().find(|(k, _)| k == name).expect(name).1
    }

    /// Rewrites the `tells` array of every entry of a checkpoint document.
    fn edit_tells(text: &str, edit: impl Fn(&mut Vec<Value>)) -> String {
        let mut doc = Value::parse(text).expect("a checkpoint parses");
        let Value::Obj(entries) = member(&mut doc, "entries") else {
            panic!("`entries` is an object")
        };
        for (_, entry) in entries {
            let Value::Arr(tells) = member(entry, "tells") else {
                panic!("`tells` is an array")
            };
            edit(tells);
        }
        doc.to_json()
    }

    fn tune_jacobi(dev: &VirtualDevice, opts: TuneOptions) -> Result<BenchResult, LiftError> {
        Ok(Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])?
            .explore()?
            .on(dev)
            .with_cache(Arc::new(KernelCache::new()))
            .tune_full(opts)?
            .report)
    }

    /// A K20c without local memory: every configuration that stages
    /// through local memory fails the static verifier, so records hold
    /// failures as well as scores and prunes.
    fn no_local_memory() -> VirtualDevice {
        VirtualDevice::new(DeviceProfile {
            name: "No-LocalMem",
            lmem_bytes_per_cu: 0,
            ..DeviceProfile::k20c()
        })
    }

    #[test]
    fn resuming_any_prefix_of_the_record_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("lift-ck-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dev = no_local_memory();
        let opts = |path: &std::path::Path| {
            TuneOptions::evaluations(6)
                .with_seed(4)
                .with_checkpoint_every(1)
                .with_checkpoint(path)
        };
        let full_path = dir.join("full.json");
        let reference = tune_jacobi(&dev, opts(&full_path)).expect("tunes");
        let full = std::fs::read_to_string(&full_path).unwrap();
        let doc = Value::parse(&full).unwrap();
        let Some(Value::Obj(entries)) = doc.get("entries") else {
            panic!("`entries` is an object")
        };
        let longest = entries
            .iter()
            .map(|(_, e)| e.get("tells").and_then(Value::as_arr).unwrap().len())
            .max()
            .expect("the sweep records its searches");
        // Every interruption point: each search keeps its first k tells.
        for k in 0..=longest {
            let path = dir.join(format!("cut{k}.json"));
            std::fs::write(&path, edit_tells(&full, |tells| tells.truncate(k))).unwrap();
            let resumed = tune_jacobi(&dev, opts(&path)).expect("resumes");
            assert_eq!(
                report_fingerprint(&resumed),
                report_fingerprint(&reference),
                "k={k}"
            );
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                full,
                "k={k}: resuming rebuilds the uninterrupted record"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_resumed_failure_keeps_its_recorded_message() {
        let path =
            std::env::temp_dir().join(format!("lift-ck-failure-{}.json", std::process::id()));
        let bench = lift_stencils::by_name("Jacobi2D5pt");
        let opts = TuneOptions::evaluations(6)
            .with_seed(1)
            .with_checkpoint(&path);
        let first_failure = || {
            let err = ppcg_baseline(&bench, &[18, 18], &no_local_memory(), opts.clone())
                .expect_err("local staging cannot fit in zero local memory");
            let LiftError::NoValidConfiguration { failures, .. } = err else {
                panic!("expected NoValidConfiguration, got {err}");
            };
            failures[0].1.to_string()
        };
        let measured = first_failure();
        assert!(measured.contains("local memory"), "{measured}");
        // The replay evaluates nothing, so the cause comes from the record.
        assert_eq!(
            first_failure(),
            format!("checkpoint error: recorded before resume: {measured}")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_record_that_diverges_from_the_search_refuses_to_resume() {
        let dir = std::env::temp_dir().join(format!("lift-ck-diverge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let opts = || {
            TuneOptions::evaluations(6)
                .with_seed(4)
                .with_checkpoint_every(1)
        };
        let full_path = dir.join("full.json");
        tune_jacobi(&dev, opts().with_checkpoint(&full_path)).expect("tunes");
        let full = std::fs::read_to_string(&full_path).unwrap();
        let altered = dir.join("altered.json");
        std::fs::write(
            &altered,
            edit_tells(&full, |tells| {
                if let Some(Value::Arr(first)) = tells.first_mut() {
                    if let Value::Arr(cfg) = &mut first[0] {
                        cfg[0] = Value::Int(-1);
                    }
                }
            }),
        )
        .unwrap();
        // Another first proposal may not silently retune.
        let err = tune_jacobi(&dev, opts().with_checkpoint(&altered))
            .expect_err("a diverging record must not resume");
        let LiftError::Checkpoint(msg) = &err else {
            panic!("expected a checkpoint error, got {err}");
        };
        assert!(
            msg.contains("variant `") && msg.contains("proposal 0"),
            "the error names the variant and the diverging proposal: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_not_fatal() {
        let dir = std::env::temp_dir().join(format!("lift-ck-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        // The damaged file is moved aside and the run restarts fresh —
        // converging to the fault-free result, not failing hard.
        let reference = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .tune_full(TuneOptions::evaluations(2).with_seed(4))
            .expect("fault-free run tunes")
            .report;
        let recovered = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .tune_full(
                TuneOptions::evaluations(2)
                    .with_seed(4)
                    .with_checkpoint(&path),
            )
            .expect("corruption is recovered from, not fatal")
            .report;
        assert_eq!(
            report_fingerprint(&recovered),
            report_fingerprint(&reference),
            "a quarantined restart converges to the fault-free report"
        );
        let quarantined = dir.join("corrupt.json.corrupt-1");
        assert!(quarantined.exists(), "damaged file preserved in quarantine");
        assert_eq!(std::fs::read_to_string(&quarantined).unwrap(), "{not json");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tuning_shares_kernels_through_the_cache() {
        // Within one tuning run the tuner sweeps work-group sizes far more
        // often than tunables; every such sweep must share one kernel.
        let cache = Arc::new(KernelCache::new());
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])
            .unwrap()
            .explore()
            .unwrap()
            .on(&dev)
            .with_cache(cache.clone())
            .tune(TuneOptions::evaluations(8).with_seed(2))
            .expect("tunes");
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "tuning must hit the cache across launch configs: {stats:?}"
        );
    }
}
