//! Performance portability in action: the same high-level Jacobi2D program
//! is explored and auto-tuned on three different virtual GPUs, and the
//! winning implementation differs per device — the paper's central claim.
//!
//! ```text
//! cargo run --release --example autotune_stencil
//! ```

use lift::lift_oclsim::{DeviceProfile, VirtualDevice};
use lift::{LiftError, Pipeline, TuneOptions};

fn main() -> Result<(), LiftError> {
    let (name, sizes) = ("Jacobi2D5pt", [66usize, 66]);
    println!(
        "exploring + tuning {} at {}x{} on three devices\n",
        name, sizes[0], sizes[1]
    );

    for profile in DeviceProfile::all() {
        let dev = VirtualDevice::new(profile);
        let outcome = Pipeline::for_benchmark(name, &sizes)?
            .explore()?
            .on(&dev)
            .tune_full(TuneOptions::evaluations(12).with_seed(42))?;
        let report = &outcome.report;
        println!("[{}]", dev.profile().name);
        for v in &report.all {
            let marker = if v.name == report.winner.name {
                " <== winner"
            } else {
                ""
            };
            println!(
                "  {:<22}{:>9.4} GEl/s  cfg {:?}{}",
                v.name,
                v.gelems_per_s,
                v.config
                    .iter()
                    .map(|(k, x)| format!("{k}={x}"))
                    .collect::<Vec<_>>(),
                marker
            );
        }
        println!(
            "  -> best: {} ({})\n",
            outcome.winner.variant(),
            if outcome.winner.tiled() {
                "uses overlapped tiling"
            } else {
                "no tiling"
            }
        );
    }
    println!("Different devices pick different rewrite derivations — this is");
    println!("what the paper means by performance portability (§4, §7.2).");
    Ok(())
}
