//! Regenerates the rewrite-rule ablation (which optimisation pays on which
//! device, §7.2) — `cargo bench --bench ablation`.

fn main() {
    let benches = ["Jacobi2D5pt", "Gaussian", "Jacobi3D7pt", "Heat"];
    match lift_harness::ablation_shard(&lift_bench::run_config(), &benches, (0, 1)) {
        Ok(rows) => print!("{}", lift_harness::report::render_ablation(&rows.flatten())),
        Err(e) => {
            eprintln!("ablation failed: {e}");
            std::process::exit(1);
        }
    }
}
