//! Benchmark harness crate: the `benches/` targets regenerate every table
//! and figure of the paper's evaluation under `cargo bench`.
//!
//! * `table1` — the benchmark inventory (Table 1);
//! * `fig7` — Lift vs hand-written kernels on three devices (Figure 7);
//! * `fig8` — Lift vs the PPCG baseline, small & large sizes (Figure 8);
//! * `ablation` — per-rewrite-variant value (the §7.2 findings);
//! * `compiler` — Criterion microbenchmarks of the compilation pipeline
//!   itself (typecheck, rewrite, codegen);
//! * `simulator` — Criterion microbenchmarks of the virtual device.
//!
//! The figure targets take the same `LIFT_*` environment variables as the
//! `lift-harness` binary (`LIFT_TUNE_BUDGET`, `LIFT_SEED`,
//! `LIFT_FULL_SIZES=1`, …), resolved by [`run_config`]. Like the binary's
//! `main`, this crate sits at the edge: the library crates it drives read
//! no environment.

#![forbid(unsafe_code)]

use lift_harness::RunConfig;

/// Marker so the crate builds a (tiny) library alongside the bench targets.
pub const PAPER: &str = "High Performance Stencil Code Generation with Lift, CGO 2018";

/// The run configuration from the `LIFT_*` environment variables over the
/// defaults; a malformed value ends the process with exit code 2, as in
/// `lift-harness`.
pub fn run_config() -> RunConfig {
    RunConfig::default()
        .resolve(&Default::default(), |name| std::env::var(name).ok())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
}
