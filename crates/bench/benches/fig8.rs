//! Regenerates Figure 8 (Lift speedup over the PPCG baseline, small and
//! large sizes; large sizes skip the ARM device as in the paper) —
//! `cargo bench --bench fig8`.

fn main() {
    match lift_harness::fig8_shard(&lift_bench::run_config(), (0, 1)) {
        Ok(rows) => print!("{}", lift_harness::report::render_fig8(&rows.flatten())),
        Err(e) => {
            eprintln!("fig8 failed: {e}");
            std::process::exit(1);
        }
    }
}
