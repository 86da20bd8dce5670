//! The staged pipeline: `Pipeline` → `VariantSet` → `DeviceSession` →
//! `CompiledStencil`.
//!
//! Each stage owns exactly the information it has established, so misuse is
//! a *compile* error: there is no way to run a kernel that has not been
//! compiled, no way to tune without choosing a device, and no way to
//! explore an ill-typed program. Every stage is inspectable — the variant
//! list, the lowered expressions, the generated OpenCL source and the
//! modeled runtime are all available without leaving the API.
//!
//! Tuning is configured by a [`TuneOptions`] value and nothing else; the
//! simulator engine travels with the [`VirtualDevice`] a session is bound
//! to.

use std::sync::Arc;

use lift_core::eval::{eval_fun, DataValue};
use lift_core::expr::FunDecl;
use lift_core::typecheck::typecheck_fun;
use lift_core::types::Type;
use lift_oclsim::{BufferData, IteratedOutput, LaunchConfig, Rotation, RunOutput, VirtualDevice};
use lift_rewrite::strategy::{enumerate_variants, Variant};
use lift_stencils::Benchmark;

use crate::cache::{program_fingerprint, KernelCache};
use crate::error::LiftError;
use crate::tune::{bench_golden, bench_inputs, bind_config, tune_cell, BenchResult};

/// Tuning options: the evaluation budget per variant, the search seed,
/// the worker-thread count and the optional checkpoint file. Every field
/// is a plain value: this crate reads no environment, so a caller that
/// wants environment knobs resolves them itself (the `lift-harness`
/// binary does, once, in `main`).
///
/// Threading only changes wall-clock, never results: for the same seed,
/// `threads: 1` and `threads: N` produce identical winners, configurations
/// and scores (threads tune variants side by side, and each variant's
/// search takes one proposal at a time from its own seeded stream).
/// Checkpointing shares the guarantee: a run resumed from `checkpoint`
/// finishes bit-identically to one that was never interrupted — the file
/// only lets it skip re-evaluating what an earlier process already
/// measured.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOptions {
    /// Tuner evaluations per (variant, device) pair; tuning with 0 is a
    /// [`LiftError::InvalidConfig`].
    pub evaluations: usize,
    /// Seed for the deterministic search.
    pub seed: u64,
    /// Worker threads for tuning variants concurrently; 1 (the default)
    /// is sequential, and 0 is treated as 1.
    pub threads: usize,
    /// Checkpoint file for resumable tuning; `None` (the default) disables
    /// checkpointing. Each process needs its own file — see
    /// [`CheckpointManager`](crate::CheckpointManager).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Applied tells between checkpoint writes (default 16; 0 is treated
    /// as 1).
    pub checkpoint_every: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            evaluations: 10,
            seed: 2018, // the CGO year, as everywhere in this repo
            threads: 1,
            checkpoint: None,
            checkpoint_every: 16,
        }
    }
}

impl TuneOptions {
    /// A budget of `evaluations` per variant with the default seed.
    pub fn evaluations(evaluations: usize) -> Self {
        TuneOptions {
            evaluations,
            ..TuneOptions::default()
        }
    }

    /// Replaces the search seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables checkpointing to `path` (see
    /// [`TuneOptions::checkpoint`]).
    pub fn with_checkpoint(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets the checkpoint write cadence in applied tells.
    pub fn with_checkpoint_every(mut self, tells: usize) -> Self {
        self.checkpoint_every = tells;
        self
    }
}

/// Where the program came from — a Table-1 benchmark brings golden
/// references and input generators along.
#[derive(Debug, Clone)]
enum Provenance {
    Expression,
    Bench { bench: Benchmark, sizes: Vec<usize> },
}

/// Stage 1: a type-checked high-level stencil program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    program: FunDecl,
    out_type: Type,
    provenance: Provenance,
}

impl Pipeline {
    /// Starts a session from a high-level expression (a top-level lambda).
    ///
    /// # Errors
    ///
    /// [`LiftError::Type`] if the program is ill-typed and
    /// [`LiftError::Unsupported`] if it is not a lambda producing a 1–3D
    /// grid.
    pub fn new(program: FunDecl) -> Result<Pipeline, LiftError> {
        let out_type = typecheck_fun(&program)?;
        if !matches!(program, FunDecl::Lambda(_)) {
            return Err(LiftError::Unsupported(
                "pipeline programs must be top-level lambdas".into(),
            ));
        }
        let dims = out_type.dims();
        if !(1..=3).contains(&dims) {
            return Err(LiftError::Unsupported(format!(
                "pipeline programs must produce a 1-3D grid, got {dims} dimensions"
            )));
        }
        Ok(Pipeline {
            program,
            out_type,
            provenance: Provenance::Expression,
        })
    }

    /// Starts a session from a Table-1 benchmark at the given grid sizes;
    /// tuning then validates every candidate against the benchmark's golden
    /// reference.
    ///
    /// # Errors
    ///
    /// [`LiftError::UnknownBenchmark`] for a name outside the suite, plus
    /// anything [`Pipeline::new`] reports.
    pub fn for_benchmark(name: &str, sizes: &[usize]) -> Result<Pipeline, LiftError> {
        let bench = lift_stencils::suite()
            .into_iter()
            .find(|b| b.name == name)
            .ok_or_else(|| LiftError::UnknownBenchmark(name.to_string()))?;
        Self::from_benchmark(&bench, sizes)
    }

    /// Like [`Pipeline::for_benchmark`], from an already-resolved
    /// [`Benchmark`].
    pub fn from_benchmark(bench: &Benchmark, sizes: &[usize]) -> Result<Pipeline, LiftError> {
        if sizes.len() != bench.dims {
            return Err(LiftError::InvalidConfig(format!(
                "benchmark `{}` is {}-dimensional but {} sizes were given",
                bench.name,
                bench.dims,
                sizes.len()
            )));
        }
        let mut p = Self::new(bench.program(sizes))?;
        p.provenance = Provenance::Bench {
            bench: bench.clone(),
            sizes: sizes.to_vec(),
        };
        Ok(p)
    }

    /// The high-level program.
    pub fn program(&self) -> &FunDecl {
        &self.program
    }

    /// The (already-checked) output type.
    pub fn output_type(&self) -> &Type {
        &self.out_type
    }

    /// Stage 2: rewrite-based exploration — derive the implementation space
    /// (±tiling, ±local memory, ±unrolling, ±coarsening).
    ///
    /// # Errors
    ///
    /// [`LiftError::NoValidConfiguration`] is *not* possible here;
    /// exploration always yields at least the `global` lowering. Errors
    /// only surface for programs whose sizes prevent enumeration.
    pub fn explore(self) -> Result<VariantSet, LiftError> {
        let variants = enumerate_variants(&self.program);
        Ok(VariantSet {
            pipeline: self,
            variants,
        })
    }
}

/// Stage 2 result: the explored implementation space.
#[derive(Debug, Clone)]
pub struct VariantSet {
    pipeline: Pipeline,
    variants: Vec<Variant>,
}

impl VariantSet {
    /// Every derived variant, in enumeration order.
    pub fn variants(&self) -> &[Variant] {
        &self.variants
    }

    /// The variant names, in enumeration order.
    pub fn names(&self) -> Vec<&str> {
        self.variants.iter().map(|v| v.name.as_str()).collect()
    }

    /// Looks up a variant by name.
    pub fn get(&self, name: &str) -> Option<&Variant> {
        self.variants.iter().find(|v| v.name == name)
    }

    /// The lowered (low-level) expression of a variant, pretty-printed —
    /// tunables still symbolic.
    ///
    /// # Errors
    ///
    /// [`LiftError::UnknownVariant`] for names exploration did not produce.
    pub fn lowered(&self, name: &str) -> Result<String, LiftError> {
        self.get(name)
            .map(|v| v.program.to_string())
            .ok_or_else(|| self.unknown(name))
    }

    /// The originating pipeline (program + output type).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Stage 3: fix the execution target.
    pub fn on(self, device: &VirtualDevice) -> DeviceSession {
        DeviceSession {
            set: self,
            device: device.clone(),
            cache: None,
        }
    }

    fn unknown(&self, name: &str) -> LiftError {
        LiftError::UnknownVariant {
            requested: name.to_string(),
            available: self.names().iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Stage 3: a device-bound session, ready to tune or to compile a chosen
/// configuration. Compilations go through the process-wide
/// [`KernelCache`] unless [`DeviceSession::with_cache`] installs a private
/// one.
#[derive(Debug)]
pub struct DeviceSession {
    set: VariantSet,
    device: VirtualDevice,
    cache: Option<Arc<KernelCache>>,
}

impl DeviceSession {
    /// Uses `cache` instead of the process-global kernel cache.
    pub fn with_cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The chosen device.
    pub fn device(&self) -> &VirtualDevice {
        &self.device
    }

    /// The explored variants (stage-2 information remains inspectable).
    pub fn variants(&self) -> &[Variant] {
        self.set.variants()
    }

    fn cache(&self) -> &KernelCache {
        self.cache
            .as_deref()
            .unwrap_or_else(|| KernelCache::global())
    }

    fn program_name(&self) -> String {
        match &self.set.pipeline.provenance {
            Provenance::Bench { bench, .. } => bench.name.to_string(),
            Provenance::Expression => "stencil".to_string(),
        }
    }

    /// Concrete output extents, outermost first.
    fn out_sizes(&self) -> Result<Vec<usize>, LiftError> {
        self.set
            .pipeline
            .out_type
            .shape()
            .iter()
            .map(|e| {
                e.as_cst().map(|v| v as usize).ok_or_else(|| {
                    LiftError::InvalidConfig(format!(
                        "output size `{e}` is not concrete; substitute sizes first"
                    ))
                })
            })
            .collect()
    }

    /// Input buffers and (when available) a reference output: from the
    /// benchmark's generators and golden function, or — for free-standing
    /// expressions — synthetic deterministic data validated through the
    /// reference evaluator.
    fn inputs_and_golden(
        &self,
        seed: u64,
    ) -> Result<(Vec<BufferData>, Option<Vec<f32>>), LiftError> {
        match &self.set.pipeline.provenance {
            Provenance::Bench { bench, sizes } => {
                let inputs = bench_inputs(bench, sizes, seed);
                let golden = bench_golden(bench, &inputs, sizes);
                Ok((inputs, Some(golden)))
            }
            Provenance::Expression => {
                let FunDecl::Lambda(l) = &self.set.pipeline.program else {
                    unreachable!("checked in Pipeline::new");
                };
                let mut inputs = Vec::new();
                let mut values = Vec::new();
                let mut rng = lift_tuner::SplitMix64::new(seed ^ 0x9e3779b97f4a7c15);
                for p in &l.params {
                    let shape: Option<Vec<usize>> = p
                        .ty()
                        .shape()
                        .iter()
                        .map(|e| e.as_cst().map(|v| v as usize))
                        .collect();
                    let Some(shape) = shape else {
                        return Err(LiftError::InvalidConfig(format!(
                            "parameter `{}` has non-concrete type `{}`",
                            p.name(),
                            p.ty()
                        )));
                    };
                    if shape.is_empty() || shape.len() > 3 {
                        return Err(LiftError::Unsupported(format!(
                            "cannot synthesise tuning inputs for parameter `{}` of type \
                             `{}`; only 1-3D float arrays are supported",
                            p.name(),
                            p.ty()
                        )));
                    }
                    let n: usize = shape.iter().product();
                    let data: Vec<f32> = (0..n)
                        .map(|_| ((rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0)
                        .collect();
                    values.push(match shape.len() {
                        1 => DataValue::from_f32s(data.iter().copied()),
                        2 => DataValue::from_f32s_2d(&data, shape[0], shape[1]),
                        _ => DataValue::from_f32s_3d(&data, shape[0], shape[1], shape[2]),
                    });
                    inputs.push(BufferData::F32(data));
                }
                // The reference evaluator supplies the golden output; if it
                // cannot evaluate the program, tuning proceeds unvalidated.
                let golden = eval_fun(&self.set.pipeline.program, &values)
                    .ok()
                    .map(|v| v.flatten_f32());
                Ok((inputs, golden))
            }
        }
    }

    /// Stage 4a: auto-tune — search every variant's parameter space and
    /// return the fastest validated configuration as an executable kernel.
    ///
    /// # Errors
    ///
    /// [`LiftError::NoValidConfiguration`] when nothing compiles, runs and
    /// validates; [`LiftError::InvalidConfig`] for a budget of zero
    /// evaluations; [`LiftError::Checkpoint`] when the checkpoint cannot be
    /// opened or flushed, or a record in it does not belong to this run.
    pub fn tune(self, opts: TuneOptions) -> Result<CompiledStencil, LiftError> {
        self.tune_full(opts).map(|o| o.winner)
    }

    /// Like [`DeviceSession::tune`], also returning the full per-variant
    /// report (the paper's ablation data).
    pub fn tune_full(self, opts: TuneOptions) -> Result<TuneOutcome, LiftError> {
        let out_sizes = self.out_sizes()?;
        let report = tune_cell(
            &self.program_name(),
            &out_sizes,
            self.inputs_and_golden(opts.seed)?,
            &self.device,
            self.cache(),
            &opts,
            self.set.variants(),
        )?;
        let params: Vec<(&str, i64)> = report
            .winner
            .config
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let winner = CompiledStencil {
            predicted_time_s: Some(report.winner.time_s),
            ..self.with_config(&report.winner.name, &params)?
        };
        Ok(TuneOutcome { winner, report })
    }

    /// Stage 4b: skip the search — compile one variant under an explicit
    /// configuration (tunables such as the per-dimension tile sizes
    /// `TS0`/`TS1`/`TS2` or `CF` plus the launch parameters
    /// `lx`/`ly`/`lz`).
    ///
    /// # Errors
    ///
    /// [`LiftError::UnknownVariant`] for a name exploration did not
    /// produce, [`LiftError::InvalidConfig`] for bad parameter names or
    /// values, and any compilation error.
    pub fn with_config(
        self,
        variant: &str,
        params: &[(&str, i64)],
    ) -> Result<CompiledStencil, LiftError> {
        let variant = self
            .set
            .get(variant)
            .ok_or_else(|| self.set.unknown(variant))?;
        let config: Vec<(String, i64)> = params.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        let (kernel, launch) = bind_config(
            self.cache(),
            &self.device,
            &self.program_name(),
            &self.out_sizes()?,
            variant,
            program_fingerprint(&variant.program),
            &config,
        )?;
        Ok(CompiledStencil {
            kernel,
            launch,
            device: self.device.clone(),
            variant: variant.name.clone(),
            tiled: variant.tiled,
            local_mem: variant.local_mem,
            config,
            predicted_time_s: None,
        })
    }
}

/// A tuning run's complete outcome: the executable winner plus the
/// per-variant report.
#[derive(Debug)]
pub struct TuneOutcome {
    /// The fastest validated configuration, compiled and ready to run.
    pub winner: CompiledStencil,
    /// Per-variant bests (the ablation view) and the winner's summary.
    pub report: BenchResult,
}

/// Stage 4 result: a compiled, launch-configured kernel bound to a device.
/// Running it never recompiles (or re-plans — the simulator execution plan
/// is cached alongside the kernel); constructing the same configuration in
/// a later session hits the kernel cache.
#[derive(Debug, Clone)]
pub struct CompiledStencil {
    kernel: Arc<lift_oclsim::PlannedKernel>,
    launch: LaunchConfig,
    device: VirtualDevice,
    variant: String,
    tiled: bool,
    local_mem: bool,
    config: Vec<(String, i64)>,
    predicted_time_s: Option<f64>,
}

impl CompiledStencil {
    /// The generated OpenCL C source.
    pub fn source(&self) -> String {
        self.kernel.kernel().to_source()
    }

    /// The compiled kernel AST (shared with the cache).
    pub fn kernel(&self) -> &Arc<lift_codegen::Kernel> {
        self.kernel.kernel()
    }

    /// The launch configuration `run` will use.
    pub fn launch(&self) -> LaunchConfig {
        self.launch
    }

    /// The variant this kernel implements.
    pub fn variant(&self) -> &str {
        &self.variant
    }

    /// Whether the kernel uses overlapped tiling.
    pub fn tiled(&self) -> bool {
        self.tiled
    }

    /// Whether the kernel stages through local memory.
    pub fn local_mem(&self) -> bool {
        self.local_mem
    }

    /// The bound parameter values.
    pub fn config(&self) -> &[(String, i64)] {
        &self.config
    }

    /// The tuner's modeled runtime in seconds (absent for
    /// [`DeviceSession::with_config`] kernels that were never measured).
    pub fn predicted_time_s(&self) -> Option<f64> {
        self.predicted_time_s
    }

    /// The device the kernel is bound to.
    pub fn device(&self) -> &VirtualDevice {
        &self.device
    }

    /// Statically verifies the kernel for its launch configuration on its
    /// device — array bounds, barrier divergence, local-memory races,
    /// definite initialization and local-memory capacity (see
    /// [`lift_oclsim::verify`]). An empty report is a proof within the
    /// analysis' abstraction; results are memoised on the shared kernel.
    ///
    /// # Errors
    ///
    /// [`LiftError::Sim`] when the execution plan cannot be compiled.
    pub fn verify(&self) -> Result<Vec<lift_oclsim::VerifyFinding>, LiftError> {
        Ok(self
            .kernel
            .verify(self.launch, self.device.profile())?
            .as_ref()
            .clone())
    }

    /// Predicts the kernel's modeled runtime for its launch configuration
    /// on its device without its input data, by running the plan on
    /// zero-filled buffers (see [`lift_oclsim::cost`]). The estimate
    /// equals the simulated [`RunOutput::time_s`] bit-for-bit; kernels
    /// whose control flow or global addressing reads buffer data get no
    /// estimate. Results are memoised on the shared kernel.
    ///
    /// # Errors
    ///
    /// [`LiftError::Sim`] when the plan cannot be compiled, the launch is
    /// invalid, the zero-data run faults, or the kernel's control flow or
    /// global addressing reads buffer data (`SimError::Estimate`).
    pub fn estimate(&self) -> Result<Arc<lift_oclsim::CostEstimate>, LiftError> {
        Ok(self.kernel.estimate(self.launch, self.device.profile())?)
    }

    /// Executes the kernel on `inputs` (one buffer per non-output
    /// parameter, in order).
    ///
    /// # Errors
    ///
    /// [`LiftError::Sim`] for launch misconfiguration or runtime faults.
    pub fn run(&self, inputs: &[BufferData]) -> Result<RunOutput, LiftError> {
        Ok(self.device.run_planned(&self.kernel, inputs, self.launch)?)
    }

    /// Executes `steps` time steps, rotating state buffers on the host (the
    /// paper's `iterate` semantics at evaluation time).
    ///
    /// # Errors
    ///
    /// As [`CompiledStencil::run`], plus missing state buffers for the
    /// rotation policy.
    pub fn run_iterated(
        &self,
        inputs: &[BufferData],
        steps: usize,
        rotation: Rotation,
    ) -> Result<IteratedOutput, LiftError> {
        Ok(self
            .device
            .run_iterated_planned(&self.kernel, inputs, self.launch, steps, rotation)?)
    }
}
