//! Simulator performance tracking: the `lift-harness perf` command.
//!
//! Times the Figure-7 sweep end-to-end under both simulator engines (the
//! bytecode plan and the tree-walking reference interpreter, selected by
//! the [`RunConfig::engine`] each sweep runs with), byte-diffs their JSON
//! reports, and collects per-kernel launch microbenchmarks plus
//! plan-compilation cost. The result is written to `BENCH_sim.json` so CI
//! can track the simulator's throughput — the tuner's hot path — across
//! commits, and can gate on the plan engine's speedup over the pre-plan
//! interpreter.

use std::time::Instant;

use lift_driver::{CompiledStencil, Pipeline};
use lift_oclsim::{BufferData, DeviceProfile, Plan, SimEngine, VirtualDevice};
use lift_stencils::by_name;

use crate::report::{json_fig7, json_str};
use crate::{fig7_shard, LiftError, RunConfig};

/// One microbenchmark measurement.
pub struct MicroBench {
    /// `<benchmark>/<variant>` label.
    pub name: String,
    /// Output elements per launch (for throughput derivation).
    pub elems: usize,
    /// Mean launch wall-time per engine, in milliseconds.
    pub tree_ms: f64,
    pub plan_ms: f64,
    /// One-time plan compilation cost in microseconds.
    pub plan_compile_us: f64,
}

/// The `perf` command's full result.
pub struct PerfReport {
    /// Figure-7 sweep wall time (seconds) under each engine, same budget,
    /// same thread count.
    pub fig7_tree_s: f64,
    pub fig7_plan_s: f64,
    /// Whether the two engines' fig7 JSON documents were byte-identical.
    pub fig7_identical: bool,
    /// Tuner evaluations per variant used for the sweep.
    pub budget: usize,
    /// Per-kernel launch microbenchmarks.
    pub micro: Vec<MicroBench>,
}

impl PerfReport {
    /// End-to-end sweep speedup of the plan engine over the tree
    /// interpreter (the pre-plan execution path).
    pub fn sweep_speedup(&self) -> f64 {
        self.fig7_tree_s / self.fig7_plan_s
    }

    /// The `BENCH_sim.json` document.
    pub fn to_json(&self) -> String {
        let micro: Vec<String> = self
            .micro
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"tree_ms\": {:.4}, \"plan_ms\": {:.4}, \
                     \"speedup\": {:.2}, \"plan_compile_us\": {:.2}}}",
                    json_str(&m.name),
                    m.tree_ms,
                    m.plan_ms,
                    m.tree_ms / m.plan_ms,
                    m.plan_compile_us
                )
            })
            .collect();
        format!(
            "{{\n\
             \"schema\": \"lift-sim-perf/1\",\n\
             \"fig7_sweep\": {{\"budget\": {}, \"threads\": 1, \
             \"tree_s\": {:.3}, \"plan_s\": {:.3}, \"speedup\": {:.2}, \
             \"byte_identical\": {}}},\n\
             \"microbench\": [\n{}\n  ]\n\
             }}\n",
            self.budget,
            self.fig7_tree_s,
            self.fig7_plan_s,
            self.sweep_speedup(),
            self.fig7_identical,
            micro.join(",\n")
        )
    }

    /// A human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fig7 sweep (budget {}, 1 thread): plan {:.2}s, tree (pre-plan \
             interpreter) {:.2}s — {:.1}x, reports {}\n\n",
            self.budget,
            self.fig7_plan_s,
            self.fig7_tree_s,
            self.sweep_speedup(),
            if self.fig7_identical {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        ));
        out.push_str("per-launch microbenchmarks (K20c profile):\n");
        for m in &self.micro {
            out.push_str(&format!(
                "  {:28} tree {:8.3} ms   plan {:8.3} ms   ({:4.1}x, \
                 plan-compile {:6.1} us)\n",
                m.name,
                m.tree_ms,
                m.plan_ms,
                m.tree_ms / m.plan_ms,
                m.plan_compile_us
            ));
        }
        out
    }
}

fn compile_case(
    dev: &VirtualDevice,
    name: &str,
    sizes: &[usize],
    variant: &str,
    cfg: &[(&str, i64)],
) -> Result<(CompiledStencil, Vec<BufferData>), LiftError> {
    let bench = by_name(name);
    let compiled = Pipeline::from_benchmark(&bench, sizes)?
        .explore()?
        .on(dev)
        .with_config(variant, cfg)?;
    let inputs: Vec<BufferData> = bench
        .gen_inputs(sizes, 1)
        .into_iter()
        .map(BufferData::F32)
        .collect();
    Ok((compiled, inputs))
}

/// Best-of-batches mean launch time in milliseconds under `engine`
/// (shared by the `perf` command and the `cargo bench` simulator target).
/// Each launch runs through [`VirtualDevice::run`], which plans the kernel
/// afresh under the plan engine.
pub fn time_launch(
    dev: &VirtualDevice,
    compiled: &CompiledStencil,
    inputs: &[BufferData],
    engine: SimEngine,
    reps: usize,
) -> Result<f64, LiftError> {
    let dev = dev.clone().with_engine(engine);
    dev.run(compiled.kernel(), inputs, compiled.launch())?;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(dev.run(
                compiled.kernel(),
                std::hint::black_box(inputs),
                compiled.launch(),
            )?);
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    Ok(best * 1e3)
}

/// The per-kernel launch microbenchmarks, shared with the `cargo bench`
/// simulator target so the CI-tracked `BENCH_sim.json` numbers and the
/// interactive view always measure the same cases the same way.
///
/// # Errors
///
/// Any [`LiftError`] from compiling or running a case.
pub fn microbenches() -> Result<Vec<MicroBench>, LiftError> {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    // (benchmark, sizes, variant, configuration)
    type Case = (
        &'static str,
        Vec<usize>,
        &'static str,
        Vec<(&'static str, i64)>,
    );
    let cases: [Case; 4] = [
        (
            "Jacobi2D5pt",
            vec![64, 64],
            "global",
            vec![("lx", 16), ("ly", 8)],
        ),
        (
            "Jacobi2D5pt",
            vec![64, 64],
            "tiled-local",
            vec![("TS0", 18), ("TS1", 18), ("lx", 16), ("ly", 8)],
        ),
        (
            "Heat",
            vec![8, 16, 16],
            "global",
            vec![("lx", 8), ("ly", 4), ("lz", 2)],
        ),
        ("SRAD1", vec![64, 64], "global", vec![("lx", 16), ("ly", 8)]),
    ];
    let mut micro = Vec::new();
    for (name, sizes, variant, cfg) in cases {
        let (compiled, inputs) = compile_case(&dev, name, &sizes, variant, &cfg)?;
        let tree_ms = time_launch(&dev, &compiled, &inputs, SimEngine::Tree, 5)?;
        let plan_ms = time_launch(&dev, &compiled, &inputs, SimEngine::Plan, 20)?;
        let t = Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(
                Plan::compile(std::hint::black_box(compiled.kernel())).map_err(LiftError::Sim)?,
            );
        }
        let plan_compile_us = t.elapsed().as_secs_f64() / reps as f64 * 1e6;
        micro.push(MicroBench {
            name: format!("{name}/{variant}"),
            elems: sizes.iter().product(),
            tree_ms,
            plan_ms,
            plan_compile_us,
        });
    }
    Ok(micro)
}

/// Runs the sweep timings and microbenchmarks (see the module docs): the
/// Figure-7 sweep under `cfg` on one thread, once per engine, so the sweep
/// numbers measure exactly what a tuning campaign would pay.
///
/// # Errors
///
/// Any [`LiftError`] from the sweeps or microbenchmark compilations.
pub fn perf_report(cfg: &RunConfig) -> Result<PerfReport, LiftError> {
    let sweep = |engine: SimEngine| {
        let cfg = RunConfig {
            tune: cfg.tune.clone().with_threads(1),
            engine,
            ..cfg.clone()
        };
        let t = Instant::now();
        let rows = fig7_shard(&cfg, (0, 1))?.flatten();
        Ok::<_, LiftError>((rows, t.elapsed().as_secs_f64()))
    };
    // Plan first: the tree run then inherits a warm kernel cache, which
    // only makes the reported speedup conservative.
    let (plan_rows, fig7_plan_s) = sweep(SimEngine::Plan)?;
    let (tree_rows, fig7_tree_s) = sweep(SimEngine::Tree)?;
    let fig7_identical = json_fig7(&plan_rows) == json_fig7(&tree_rows);

    Ok(PerfReport {
        fig7_tree_s,
        fig7_plan_s,
        fig7_identical,
        budget: cfg.tune.evaluations,
        micro: microbenches()?,
    })
}
