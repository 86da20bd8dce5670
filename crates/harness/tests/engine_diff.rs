//! Cross-engine byte-identity of harness reports: the Figure-7 JSON
//! document produced with the bytecode-plan simulator must be byte for
//! byte the one produced by the tree interpreter. The engine is part of
//! the [`RunConfig`], so both runs happen in this process; a shard keeps
//! the tree-engine run affordable under `cargo test`, and `lift-harness
//! perf` diffs the full figure.

use lift_harness::report::partial_fig7;
use lift_harness::{fig7_shard, RunConfig};
use lift_oclsim::SimEngine;

#[test]
fn fig7_json_is_byte_identical_across_simulator_engines() {
    let shard = (0, 6);
    let doc = |engine: SimEngine| {
        let mut cfg = RunConfig {
            engine,
            ..RunConfig::default()
        };
        cfg.tune.evaluations = 2;
        partial_fig7(shard, &fig7_shard(&cfg, shard).expect("fig7 shard runs"))
    };
    let plan = doc(SimEngine::Plan);
    let tree = doc(SimEngine::Tree);
    assert!(
        plan.contains("bench") && plan.contains("lift_gelems"),
        "fig7 shard produced no rows:\n{plan}"
    );
    assert_eq!(plan, tree, "fig7 JSON diverges between simulator engines");
}
