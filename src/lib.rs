//! # lift — stencil code generation with rewrite rules
//!
//! A Rust reproduction of *High Performance Stencil Code Generation with
//! Lift* (Hagedorn et al., CGO 2018).
//!
//! # The primary API: a staged pipeline session
//!
//! The whole flow — high-level expression → rewrite-based exploration →
//! view-based OpenCL codegen → auto-tuned execution — is one typed,
//! staged session ([`Pipeline`], re-exported from [`lift_driver`]). Each
//! stage is inspectable, every fallible call returns
//! [`Result<_, LiftError>`], and compiled kernels are memoised in a
//! process-wide cache so serving the same stencil twice compiles once:
//!
//! ```
//! use lift::{Pipeline, TuneOptions};
//! use lift::lift_oclsim::{DeviceProfile, VirtualDevice};
//!
//! # fn main() -> Result<(), lift::LiftError> {
//! let device = VirtualDevice::new(DeviceProfile::k20c());
//! let stencil = Pipeline::for_benchmark("Jacobi2D5pt", &[18, 18])? // typed program
//!     .explore()?                        // derive tiled/local/unrolled variants
//!     .on(&device)                       // fix the execution target
//!     .tune(TuneOptions::evaluations(4))?; // search, validate, compile the winner
//! println!("{}", stencil.source());      // the generated OpenCL C
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for the paper's 3-point Jacobi example
//! (Listing 2) built by hand and pushed through the same stages, and
//! `examples/acoustic_room.rs` for host-side time stepping with
//! [`CompiledStencil::run_iterated`].
//!
//! # Layer crates
//!
//! * [`lift_arith`] — symbolic size/index arithmetic,
//! * [`lift_core`] — the Lift IR: primitives (`map`, `reduce`, `zip`, …)
//!   plus the paper's stencil extensions `slide` and `pad`,
//! * [`lift_rewrite`] — optimisations as rewrite rules (overlapped tiling,
//!   local memory, loop unrolling) and lowering strategies,
//! * [`lift_codegen`] — view-based OpenCL-C code generation,
//! * [`lift_oclsim`] — a virtual OpenCL GPU that executes generated kernels
//!   and models their performance on K20c / HD 7970 / Mali profiles,
//! * [`lift_tuner`] — ATF-style auto-tuning (batched ask/tell search,
//!   resumable by replaying what it was told),
//! * [`lift_ppcg`] — the PPCG-like polyhedral baseline,
//! * [`lift_stencils`] — the paper's benchmark suite (Table 1),
//! * [`lift_driver`] — the staged pipeline, cost-model-guided tuning,
//!   unified errors, kernel cache, tuning checkpoints that resume by
//!   replay,
//! * [`lift_harness`] — drivers regenerating Figures 7 and 8.

#![forbid(unsafe_code)]

pub use lift_arith;
pub use lift_codegen;
pub use lift_core;
pub use lift_driver;
pub use lift_harness;
pub use lift_oclsim;
pub use lift_ppcg;
pub use lift_rewrite;
pub use lift_stencils;
pub use lift_tuner;

pub use lift_driver::{
    BenchResult, CacheStats, CheckpointManager, CompiledStencil, DeviceSession, KernelCache,
    LiftError, Pipeline, TuneOptions, TuneOutcome, TunedVariant, VariantSet,
};
