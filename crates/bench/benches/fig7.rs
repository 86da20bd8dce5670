//! Regenerates Figure 7 (Lift vs hand-written kernels on three virtual
//! GPUs) — `cargo bench --bench fig7`.

fn main() {
    match lift_harness::fig7_shard(&lift_bench::run_config(), (0, 1)) {
        Ok(rows) => print!("{}", lift_harness::report::render_fig7(&rows.flatten())),
        Err(e) => {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        }
    }
}
