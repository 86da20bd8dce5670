//! Integration: performance portability across the three device profiles —
//! the same program runs everywhere, and device traits steer the tuner to
//! different implementations (§7.2 of the paper).

use lift::lift_oclsim::{DeviceProfile, VirtualDevice};
use lift::{BenchResult, Pipeline, TuneOptions};

fn tune(name: &str, sizes: &[usize], dev: &VirtualDevice, evals: usize, seed: u64) -> BenchResult {
    Pipeline::for_benchmark(name, sizes)
        .expect("benchmark exists")
        .explore()
        .expect("explores")
        .on(dev)
        .tune_full(TuneOptions::evaluations(evals).with_seed(seed))
        .expect("tunes")
        .report
}

/// A 2D stencil with a tiling-friendly size: each device must find a valid
/// winner, and the winner's throughput ordering must follow the hardware
/// (K20c and HD 7970 far above Mali).
#[test]
fn winners_run_everywhere_and_scale_with_hardware() {
    let sizes = [34usize, 34]; // padded 36: several valid tile sizes
    let mut rates = Vec::new();
    for profile in DeviceProfile::all() {
        let dev = VirtualDevice::new(profile);
        let r = tune("Jacobi2D5pt", &sizes, &dev, 6, 3);
        assert!(r.winner.gelems_per_s > 0.0);
        rates.push((r.device.clone(), r.winner.gelems_per_s));
    }
    let nv = rates[0].1;
    let arm = rates[2].1;
    assert!(
        nv > arm * 3.0,
        "expected the K20c profile to be much faster than Mali: {rates:?}"
    );
}

/// Local-memory staging must never win on the Mali profile: the device has
/// no hardware local memory, so `toLocal` is pure overhead there.
#[test]
fn mali_never_prefers_local_memory() {
    let sizes = [34usize, 34];
    let dev = VirtualDevice::new(DeviceProfile::mali_t628());
    let r = tune("Jacobi2D5pt", &sizes, &dev, 8, 7);
    assert!(
        !r.winner.local_mem,
        "Mali winner must not stage through local memory, got {}",
        r.winner.name
    );
    // And the local-memory variant, where explored, must not beat the best
    // non-local variant.
    let best_local = r
        .all
        .iter()
        .filter(|v| v.local_mem)
        .map(|v| v.gelems_per_s)
        .fold(0.0f64, f64::max);
    let best_plain = r
        .all
        .iter()
        .filter(|v| !v.local_mem)
        .map(|v| v.gelems_per_s)
        .fold(0.0f64, f64::max);
    assert!(best_plain >= best_local);
}

/// The same launch on a bigger grid must never get *slower* in modeled
/// time per element on the same device (sanity of the performance model).
#[test]
fn model_time_scales_with_work() {
    use lift::lift_oclsim::BufferData;

    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let mut times = Vec::new();
    for n in [16usize, 32, 64] {
        let bench = lift::lift_stencils::by_name("Jacobi2D5pt");
        let sizes = [n, n];
        let compiled = Pipeline::from_benchmark(&bench, &sizes)
            .expect("pipeline")
            .explore()
            .expect("explores")
            .on(&dev)
            .with_config("global", &[("lx", 8), ("ly", 8)])
            .expect("compiles");
        let inputs: Vec<BufferData> = bench
            .gen_inputs(&sizes, 1)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        let out = compiled.run(&inputs).expect("runs");
        times.push(out.time_s);
    }
    assert!(
        times[0] <= times[1] && times[1] <= times[2],
        "modeled time must grow with grid size: {times:?}"
    );
}

/// Barrier divergence is detected, not silently mis-executed: a kernel with
/// a barrier under a thread-dependent branch must fail.
#[test]
fn divergent_barrier_is_rejected() {
    use lift::lift_codegen::clike::*;
    use lift::lift_oclsim::{LaunchConfig, SimError};

    let out_v = VarRef::fresh("outbuf");
    let kernel = Kernel {
        name: "divergent".into(),
        params: vec![KernelParam {
            var: out_v.clone(),
            elem: CType::Float,
            len: 8,
            is_output: true,
        }],
        locals: vec![],
        body: vec![CStmt::If {
            cond: CExpr::Bin(
                BinOp::Lt,
                Box::new(CExpr::WorkItem(WorkItemFn::LocalId, 0)),
                Box::new(CExpr::Int(2)),
            ),
            then_: vec![CStmt::Barrier {
                local: true,
                global: false,
            }],
            else_: vec![],
        }],
        user_funs: vec![],
    };
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let err = dev
        .run(&kernel, &[], LaunchConfig::d1(8, 4))
        .expect_err("must fail");
    assert!(matches!(err, SimError::BarrierDivergence));
}
