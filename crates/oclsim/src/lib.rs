//! A virtual OpenCL device: executes generated kernels with OpenCL
//! semantics and models their performance on calibrated GPU profiles.
//!
//! The paper evaluates on three real GPUs (Nvidia Tesla K20c, AMD Radeon
//! HD 7970, ARM Mali-T628). The reproduction runs without them, so this
//! crate substitutes a **two-part virtual device**:
//!
//! 1. **Executor** ([`exec`]): a lock-step work-group executor that runs
//!    the [`Plan`] a [`lift_codegen::Kernel`] compiles to (see the two
//!    stages below). Work-items of a group advance statement by statement
//!    (the classic POCL work-item-loop construction), which gives exact
//!    OpenCL barrier semantics for the uniform control flow Lift generates,
//!    and detects barriers in divergent flow as errors. Outputs are
//!    bit-exact, so kernels are validated against golden references. The
//!    kernel AST itself is interpreted only by the private reference
//!    interpreter described at the end.
//! 2. **Performance model** ([`perf`]): while executing, the executor
//!    collects *memory transactions* (128-byte segment coalescing per
//!    warp/wavefront), local-memory traffic, ALU work and barriers; the
//!    [`device::DeviceProfile`] prices these into a modeled runtime using
//!    throughput/latency/occupancy terms. The three shipped profiles are
//!    calibrated so the *qualitative* behaviour matches the paper: the K20c
//!    profile rewards explicit local-memory tiling (tiny data caches), the
//!    HD 7970 profile's caches make tiling mostly unnecessary, and the
//!    Mali profile has **no hardware local memory** (its "local" traffic is
//!    ordinary memory traffic, so `toLocal` copies are pure overhead).
//!
//! # Two-stage execution: plan compile → run
//!
//! Because the simulator *is* the autotuner's hot path (every tuner
//! evaluation is a simulated launch), execution is split into two stages:
//!
//! 1. **Plan compilation** ([`plan`]): the kernel AST is lowered once into
//!    a flat, slot-resolved bytecode [`Plan`] — variables and buffers
//!    become dense indices (an unbound variable is a *compile-time* error),
//!    every slot, buffer and expression takes its type from the kernel's
//!    declarations (a kernel that does not type is a compile-time error
//!    too), structured control flow becomes jump offsets, and
//!    lane-invariant expressions are marked for once-per-group evaluation.
//! 2. **Launch** ([`exec`]): a register-machine inner loop drives the plan
//!    with one scratch arena reused across all work-groups.
//!
//! [`VirtualDevice::run`] plans on the fly; [`VirtualDevice::run_planned`]
//! takes a [`PlannedKernel`] whose plan is compiled at most once — the
//! `lift-driver` kernel cache stores these, so tuning a variant across
//! hundreds of configurations plans exactly once.
//!
//! **Reference semantics:** the original tree-walking interpreter, with
//! its dynamically tagged values, is kept as the executable specification
//! the plan engine is tested against. [`VirtualDevice::run_reference`]
//! drives it through the same launch validation and buffer binding as
//! [`VirtualDevice::run`], and the differential suite
//! (`tests/sim_differential.rs` at the workspace root) asserts that the
//! two produce byte-identical outputs, [`KernelStats`] and modeled times
//! on every kernel the plan compiler accepts. Every other launch runs on
//! the plan engine. This crate reads no environment.

#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod exec;
pub mod perf;
pub mod plan;
mod reference;
pub mod runtime;
pub mod verify;

pub use cost::CostEstimate;
pub use device::DeviceProfile;
pub use exec::SimError;
pub use perf::KernelStats;
pub use plan::{Plan, PlannedKernel};
pub use runtime::{BufferData, IteratedOutput, LaunchConfig, Rotation, RunOutput, VirtualDevice};
pub use verify::{FindingKind, VerifyFinding};
