//! What every workload shares: the run context, the closed-loop load
//! generator, timed set-up and passes, output checks and the layer replay.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lift_driver::{
    CompiledStencil, DeviceSession, KernelCache, Pipeline, TunedVariant, VariantSet,
};
use lift_oclsim::{BufferData, Plan};

use crate::stats::median;
use crate::trace::{Tracer, REPLAY};

/// Closed-loop workers: the next operation starts only when one is free.
pub const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Tuner evaluations per variant in the tuning workloads.
pub const BUDGET: usize = 10;
/// Where checkpoints and traces go, relative to the directory the
/// benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// Counters read from the program's own reports, summed over a run.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub explores: u64,
    pub variants: u64,
    pub sources: u64,
    pub source_bytes: u64,
    pub plans: u64,
    pub plan_instructions: u64,
    pub verify_findings: u64,
    pub estimates: u64,
    pub estimates_exact: u64,
    pub evaluations: u64,
    pub sims: u64,
    pub pruned_model: u64,
    pub pruned_verify: u64,
    pub evals_to_best: u64,
    pub tuned_variants: u64,
    pub cache_compiles: u64,
    pub cache_hits: u64,
}

impl Counters {
    pub fn add_tuned(&mut self, all: &[TunedVariant], cache: &KernelCache) {
        for v in all {
            self.evaluations += v.evaluations as u64;
            self.sims += v.sims as u64;
            self.pruned_model += v.pruned_model as u64;
            self.pruned_verify += v.pruned_verify as u64;
            self.evals_to_best += v.evals_to_best as u64;
            self.tuned_variants += 1;
        }
        let s = cache.stats();
        self.cache_compiles += s.compiles;
        self.cache_hits += s.hits;
    }
}

/// What a workload measured.
pub struct Report {
    /// Median set-up time.
    pub setup_s: f64,
    /// Wall time of each pass.
    pub sweeps: Vec<f64>,
    /// Latency of each operation of a pass, median over passes.
    pub op_ms: Vec<f64>,
    /// Figures of this workload alone, printed beside the metrics.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// One run of one workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub counters: Mutex<Counters>,
    attempted: AtomicU64,
    failures: Mutex<Vec<String>>,
    next_op: AtomicU64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            counters: Mutex::new(Counters::default()),
            attempted: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
            next_op: AtomicU64::new(1),
        }
    }

    /// A fresh operation id; spans of one operation share it.
    pub fn op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    pub fn span<T>(&self, name: &'static str, op: u64, work: u64, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, op, work, f)
    }

    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.lock().expect("counters"));
    }

    /// Counts one checked operation; `Err` records why it failed.
    pub fn check(&self, result: Result<(), String>) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(()) => true,
            Err(why) => {
                eprintln!("lift-benchmark: FAILED: {why}");
                self.failures.lock().expect("failures").push(why);
                false
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failures.lock().expect("failures").len() as u64
    }
}

/// Maps `f` over `items` on [`WORKERS`] threads pulling from a shared
/// cursor, so each worker starts its next item as soon as it finishes the
/// last. Results come back in item order.
pub fn closed_loop<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..WORKERS.min(items.len()) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every item ran")
        })
        .collect()
}

/// Runs `setup` [`SETUP_REPS`] times; returns the median wall time in
/// seconds and the last result.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(setup());
        walls.push(t.elapsed().as_secs_f64());
    }
    (median(&walls), last.expect("at least one repetition"))
}

/// Runs whole passes over a workload until the run's seconds are used up,
/// so every metric covers the same operations whatever the machine's
/// speed. Returns each pass's wall time and result.
pub fn passes<R>(ctx: &Ctx, mut pass: impl FnMut(usize) -> R) -> Vec<(f64, R)> {
    let start = Instant::now();
    let mut out: Vec<(f64, R)> = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let r = pass(out.len());
        out.push((t.elapsed().as_secs_f64(), r));
    }
    out
}

/// Seconds since `t`, in milliseconds.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The comparison the tuner validates with: relative 1e-3, absolute
/// below magnitude 1.
pub fn outputs_match(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} elements, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| (a - b).abs() > 1e-3 * b.abs().max(1.0))
    {
        None => Ok(()),
        Some(i) => Err(format!("element {i} is {}, expected {}", got[i], want[i])),
    }
}

/// Builds and type-checks a benchmark's program, then explores its
/// variants.
pub fn explore(
    ctx: &Ctx,
    op: u64,
    bench: &lift_stencils::Benchmark,
    sizes: &[usize],
) -> Result<VariantSet, String> {
    let pipeline = ctx
        .span("core.typecheck", op, 0, || {
            Pipeline::from_benchmark(bench, sizes)
        })
        .map_err(|e| format!("{}: {e}", bench.name))?;
    let set = ctx
        .span("rewrite.explore", op, 0, || pipeline.explore())
        .map_err(|e| format!("{}: {e}", bench.name))?;
    ctx.count(|c| {
        c.explores += 1;
        c.variants += set.variants().len() as u64;
    });
    Ok(set)
}

/// The golden reference of a benchmark on `inputs`.
pub fn golden(
    ctx: &Ctx,
    op: u64,
    bench: &lift_stencils::Benchmark,
    inputs: &[BufferData],
    sizes: &[usize],
) -> Vec<f32> {
    let raw: Vec<Vec<f32>> = inputs.iter().map(|b| b.as_f32().to_vec()).collect();
    let elems = sizes.iter().product::<usize>() as u64;
    ctx.span("stencils.golden", op, elems, || bench.golden(&raw, sizes))
}

/// The benchmark's seeded input buffers.
pub fn inputs(bench: &lift_stencils::Benchmark, sizes: &[usize], seed: u64) -> Vec<BufferData> {
    bench
        .gen_inputs(sizes, seed)
        .into_iter()
        .map(BufferData::F32)
        .collect()
}

/// One kernel to re-run a layer call at a time.
pub struct ReplayItem<'a> {
    pub label: String,
    pub session: DeviceSession,
    pub variant: &'a str,
    pub config: &'a [(String, i64)],
    pub inputs: &'a [BufferData],
    pub golden: &'a [f32],
    /// The modeled time the tuner measured for this configuration.
    pub tuned_time_s: Option<f64>,
}

/// Compiles one configuration on a fresh cache, then plans, verifies,
/// estimates and runs it as separate calls, checking the output against
/// the golden reference and every exact estimate against the simulated
/// time.
pub fn replay(ctx: &Ctx, item: ReplayItem<'_>) {
    let op = ctx.op();
    let elems = item.golden.len() as u64;
    let result = ctx.span(REPLAY, op, 0, || -> Result<(), String> {
        let params: Vec<(&str, i64)> = item.config.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let stencil: CompiledStencil = ctx
            .span("codegen.compile", op, 0, || {
                item.session
                    .with_cache(Arc::new(KernelCache::new()))
                    .with_config(item.variant, &params)
            })
            .map_err(|e| e.to_string())?;
        let source = stencil.source();
        let plan = ctx
            .span("oclsim.plan", op, 0, || Plan::compile(stencil.kernel()))
            .map_err(|e| e.to_string())?;
        let findings = ctx
            .span("oclsim.verify", op, 0, || stencil.verify())
            .map_err(|e| e.to_string())?;
        let estimate = ctx
            .span("oclsim.estimate", op, 0, || stencil.estimate())
            .map_err(|e| e.to_string())?;
        let run = ctx
            .span("oclsim.run", op, elems, || stencil.run(item.inputs))
            .map_err(|e| e.to_string())?;
        ctx.count(|c| {
            c.sources += 1;
            c.source_bytes += source.len() as u64;
            c.plans += 1;
            c.plan_instructions += plan.instructions() as u64;
            c.verify_findings += findings.len() as u64;
            c.estimates += 1;
            c.estimates_exact += u64::from(estimate.exact);
        });
        if !findings.is_empty() {
            return Err(format!("{} verifier findings", findings.len()));
        }
        outputs_match(run.output.as_f32(), item.golden)?;
        let predicted = estimate.time(stencil.device().profile());
        if estimate.exact && predicted.to_bits() != run.time_s.to_bits() {
            return Err(format!(
                "exact estimate {predicted:e} s differs from the simulated {:e} s",
                run.time_s
            ));
        }
        if let Some(t) = item.tuned_time_s {
            if t.to_bits() != run.time_s.to_bits() {
                return Err(format!(
                    "re-run took {:e} s, tuning measured {t:e} s",
                    run.time_s
                ));
            }
        }
        Ok(())
    });
    ctx.check(result.map_err(|e| format!("replay {}: {e}", item.label)));
}
