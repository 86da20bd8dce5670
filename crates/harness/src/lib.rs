//! Experiment drivers reproducing the paper's evaluation (§6–§7).
//!
//! All orchestration lives in `lift-driver`'s staged [`Pipeline`] API —
//! this crate only iterates the benchmark × device grid, collects rows and
//! renders them ([`report`]) as text or JSON (`--json` on the binary).
//!
//! Every experiment takes its configuration as an argument: a
//! [`RunConfig`] (tuning options and grid sizes) and, for
//! the sweeps, a [`Shard`]. The binary resolves that configuration once,
//! in `main`, from flags and the `LIFT_*` environment variables (see
//! [`config`]); this library reads no environment.
//!
//! Sweeps also shard across *processes*: `--shard i/n` runs the cells
//! with `index % n == i` and prints a partial report, `lift-harness merge
//! <parts…>` recombines a complete set byte-identically to the
//! single-process `--json` document, and `lift-harness campaign` does both
//! under supervision ([`campaign`]). See [`experiments::Shard`] and
//! [`report::merge_parts`].

#![forbid(unsafe_code)]

pub mod campaign;
pub mod compare;
pub mod config;
pub mod experiments;
pub mod model;
pub mod report;

pub use campaign::{run_campaign, CampaignOptions, CampaignReport};
pub use compare::compare_docs;
pub use config::{ConfigError, ConfigFlags, RunConfig};
pub use experiments::{
    ablation_shard, bench_shard, experiment_cells, fig7_shard, fig8_shard, table1, validate_shard,
    verify_sweep, AblationRow, BenchRow, Fig7Row, Fig8Row, Shard, ShardRows, Table1Row, VerifyRow,
    ABLATION_BENCHES,
};
pub use lift_driver::{BenchResult, LiftError, Pipeline, TunedVariant};
pub use lift_tuner::parallel_map;
pub use model::{model_report, ModelReport};
pub use report::{merge_available, merge_parts};
