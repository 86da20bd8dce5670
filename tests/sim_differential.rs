//! Differential suite for the two simulator engines.
//!
//! The bytecode-plan executor is only allowed to be *faster* than the
//! tree-walking reference interpreter — never different. This suite runs
//! every Table-1 benchmark × explored variant × device profile through
//! both engines and asserts that the outputs, every [`KernelStats`]
//! counter and the modeled time are **bit-identical** (`f64::to_bits` on
//! times, structural equality everywhere else). It also pins the
//! plan-compile error reporting contract (satellite of the plan work):
//! unbound variables and provable type mismatches surface at plan-compile
//! time with the kernel name and statement context.

use lift_codegen::clike::{AddressSpace, CExpr, CStmt, CType, Kernel, KernelParam, VarRef};
use lift_driver::Pipeline;
use lift_oclsim::{BufferData, DeviceProfile, Plan, Rotation, SimEngine, SimError, VirtualDevice};
use lift_rewrite::Tunable;
use lift_stencils::suite;

/// Compact grid sizes per rank: big enough to exercise multi-group
/// launches, boundary handling and non-square strides, small enough that
/// the tree engine stays affordable across the whole matrix.
fn diff_sizes(dims: usize) -> Vec<usize> {
    match dims {
        1 => vec![128],
        2 => vec![48, 40],
        _ => vec![12, 16, 20],
    }
}

/// A valid configuration for a variant: the first usable candidate per
/// tunable (mirroring the tuner's degenerate-tile filter) plus small
/// launch sizes.
fn variant_config(tunables: &[Tunable], dims: usize) -> Option<Vec<(String, i64)>> {
    let mut cfg: Vec<(String, i64)> = Vec::new();
    for t in tunables {
        let cands = t.candidates(64);
        let v = match t {
            Tunable::TileSize { nbh_size, .. } => cands.into_iter().find(|u| *u >= nbh_size + 3)?,
            Tunable::CoarsenFactor { .. } => cands.into_iter().next()?,
        };
        cfg.push((t.var().to_string(), v));
    }
    cfg.push(("lx".into(), 8));
    if dims >= 2 {
        cfg.push(("ly".into(), 4));
    }
    if dims >= 3 {
        cfg.push(("lz".into(), 2));
    }
    Some(cfg)
}

/// Every Table-1 benchmark × variant × device: both engines agree
/// bit-for-bit on outputs, stats and modeled times.
#[test]
fn every_benchmark_variant_device_is_bit_identical_across_engines() {
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut compared = 0usize;
    for bench in suite() {
        let sizes = diff_sizes(bench.dims);
        let variants = Pipeline::from_benchmark(&bench, &sizes)
            .expect("pipeline")
            .explore()
            .expect("explores");
        let names: Vec<String> = variants.names().iter().map(|s| s.to_string()).collect();
        let inputs: Vec<BufferData> = bench
            .gen_inputs(&sizes, 7)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        for dev in &devices {
            for name in &names {
                let variant = variants.get(name).expect("listed variant");
                let Some(cfg) = variant_config(&variant.tunables, variant.dims) else {
                    continue;
                };
                let cfg_refs: Vec<(&str, i64)> =
                    cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let compiled = match variants.clone().on(dev).with_config(name, &cfg_refs) {
                    Ok(c) => c,
                    // Some (variant, device) pairs are legitimately
                    // unbuildable (local memory over budget, work-group
                    // limits); the sweep skips them, so do we.
                    Err(_) => continue,
                };
                let run = |engine| {
                    dev.clone().with_engine(engine).run(
                        compiled.kernel(),
                        &inputs,
                        compiled.launch(),
                    )
                };
                let (tree, plan) = (run(SimEngine::Tree), run(SimEngine::Plan));
                let label = format!("{}/{name} on {}", bench.name, dev.profile().name);
                match (tree, plan) {
                    (Ok(t), Ok(p)) => {
                        // Anything that runs clean must also *prove* clean:
                        // the static verifier may never cry wolf on an
                        // executed benchmark kernel.
                        let findings = compiled.verify().expect("verifier runs");
                        assert!(
                            findings.is_empty(),
                            "verifier findings on executed kernel {label}: {findings:?}"
                        );
                        assert_eq!(t.output, p.output, "outputs diverge for {label}");
                        assert_eq!(t.stats, p.stats, "stats diverge for {label}");
                        assert_eq!(
                            t.time_s.to_bits(),
                            p.time_s.to_bits(),
                            "modeled times diverge for {label}: {} vs {}",
                            t.time_s,
                            p.time_s
                        );
                        compared += 1;
                    }
                    (Err(te), Err(pe)) => {
                        // Same fault class either way; the plan engine may
                        // report it from a different lane of the same
                        // statement (op-major vs item-major evaluation).
                        assert_eq!(
                            std::mem::discriminant(&te),
                            std::mem::discriminant(&pe),
                            "fault classes diverge for {label}: {te} vs {pe}"
                        );
                    }
                    (t, p) => panic!("one engine faulted for {label}: tree={t:?} plan={p:?}"),
                }
            }
        }
    }
    assert!(
        compared >= 100,
        "expected a broad comparison matrix, only {compared} cells ran"
    );
}

/// Multi-step (host-rotated) execution agrees across engines too.
#[test]
fn iterated_runs_are_bit_identical_across_engines() {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == "Jacobi2D5pt")
        .expect("suite benchmark");
    let sizes = diff_sizes(2);
    let compiled = Pipeline::from_benchmark(&bench, &sizes)
        .expect("pipeline")
        .explore()
        .expect("explores")
        .on(&VirtualDevice::new(DeviceProfile::k20c()))
        .with_config("global", &[("lx", 8), ("ly", 4)])
        .expect("compiles");
    let inputs: Vec<BufferData> = bench
        .gen_inputs(&sizes, 11)
        .into_iter()
        .map(BufferData::F32)
        .collect();
    let mut outs = Vec::new();
    for engine in [SimEngine::Tree, SimEngine::Plan] {
        // Each engine steps the unplanned kernel through a device that
        // carries it.
        let out = VirtualDevice::new(DeviceProfile::k20c())
            .with_engine(engine)
            .run_iterated(
                compiled.kernel(),
                &inputs,
                compiled.launch(),
                3,
                Rotation::SingleBuffer,
            )
            .expect("runs");
        outs.push((out.output, out.time_s));
    }
    assert_eq!(outs[0].0, outs[1].0, "iterated outputs diverge");
    assert_eq!(
        outs[0].1.to_bits(),
        outs[1].1.to_bits(),
        "iterated modeled times diverge"
    );

    // And the public planned entry point matches the engine default.
    let it = compiled
        .run_iterated(&inputs, 3, Rotation::SingleBuffer)
        .expect("runs");
    assert_eq!(it.output, outs[1].0);
}

fn buf(name: &str, len: usize, is_output: bool) -> KernelParam {
    KernelParam {
        var: VarRef::fresh(name),
        elem: CType::Float,
        len,
        is_output,
    }
}

/// An unbound variable is rejected at plan-compile time, naming the kernel
/// and the statement, with the original fault as the `source()`.
#[test]
fn plan_compile_reports_unbound_variables_with_context() {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let ghost = VarRef::fresh("ghost");
    let kernel = Kernel {
        name: "broken_kernel".into(),
        body: vec![CStmt::Store {
            buf: out.var.clone(),
            space: AddressSpace::Global,
            idx: CExpr::Int(0),
            value: CExpr::Var(ghost),
        }],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    let err = Plan::compile(&kernel).expect_err("must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("broken_kernel") && msg.contains("store to `out`"),
        "context missing from: {msg}"
    );
    assert!(
        matches!(&err, SimError::PlanCompile { cause, .. }
            if matches!(**cause, SimError::UnboundVariable(_))),
        "wrong fault: {err:?}"
    );
    // The cause chains through std::error::Error::source.
    let src = std::error::Error::source(&err).expect("has a source");
    assert!(src.to_string().contains("ghost"), "source was: {src}");
}

/// A provable type mismatch (float literal as a buffer index) is rejected
/// at plan-compile time instead of mid-simulation.
#[test]
fn plan_compile_reports_provable_type_mismatches() {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let kernel = Kernel {
        name: "bad_index".into(),
        body: vec![CStmt::Store {
            buf: out.var.clone(),
            space: AddressSpace::Global,
            idx: CExpr::Float(1.5),
            value: CExpr::Int(0),
        }],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    let err = Plan::compile(&kernel).expect_err("must be rejected");
    assert!(
        matches!(&err, SimError::PlanCompile { cause, .. }
            if matches!(**cause, SimError::TypeMismatch(_))),
        "wrong fault: {err:?}"
    );
    assert!(err.to_string().contains("bad_index"), "context: {err}");
}
