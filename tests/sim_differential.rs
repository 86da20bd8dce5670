//! Differential suite for the two simulator engines.
//!
//! The bytecode-plan executor is only allowed to be *faster* than the
//! tree-walking reference interpreter — never different. This suite runs
//! every Table-1 benchmark × explored variant × device profile, under two
//! configurations each, plus the six hand-written Figure-7 kernels, through
//! [`VirtualDevice::run`] and [`VirtualDevice::run_reference`], and
//! asserts that the outputs, every [`KernelStats`] counter and the modeled
//! time are **bit-identical** (`f64::to_bits` on times, structural
//! equality everywhere else). The plan engine runs only kernels that type
//! from their declarations, so every kernel here must plan-compile. The
//! suite also pins the plan-compile error reporting contract: unbound
//! variables and kernels that do not type surface at plan-compile time
//! with the kernel name and statement context, and user-function calls
//! that do not match their declarations fail with typed errors, never
//! panics.
//!
//! [`KernelStats`]: lift_oclsim::KernelStats

use std::sync::Arc;

use lift_codegen::clike::{
    AddressSpace, BinOp, CExpr, CStmt, CType, Kernel, KernelParam, LocalBuffer, VarRef, WorkItemFn,
};
use lift_core::scalar::Scalar;
use lift_core::types::Type;
use lift_core::userfun::{add_f32, UserFun};
use lift_driver::Pipeline;
use lift_oclsim::{
    BufferData, DeviceProfile, LaunchConfig, Plan, Rotation, SimError, VirtualDevice,
};
use lift_rewrite::Tunable;
use lift_stencils::refkernels::reference_kernel;
use lift_stencils::{by_name, fig7_names, suite};
use lift_tuner::parallel_map;

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

/// Two configurations per variant, with tile sizes drawn from the tuner's
/// usable candidates (at most 64, and at least the neighbourhood plus 3):
///
/// * each tunable's smallest usable value, with an 8×4×2 launch;
/// * each tunable's largest usable value, with a square 4×4×2 launch —
///   the corner the `verify` sweep and `tests/cost_model.rs` also check.
///
/// A variant with a tunable that has no usable value gets no
/// configuration.
fn variant_configs(tunables: &[Tunable], dims: usize) -> Vec<Vec<(String, i64)>> {
    let corner = |largest: bool, launch: [i64; 3]| {
        let mut cfg: Vec<(String, i64)> = Vec::new();
        for t in tunables {
            let mut usable = t.candidates(64).into_iter().filter(|u| match t {
                Tunable::TileSize { nbh_size, .. } => *u >= nbh_size + 3,
                Tunable::CoarsenFactor { .. } => true,
            });
            let v = if largest { usable.max() } else { usable.next() };
            cfg.push((t.var().to_string(), v?));
        }
        for (name, l) in ["lx", "ly", "lz"].into_iter().zip(launch).take(dims) {
            cfg.push((name.to_string(), l));
        }
        Some(cfg)
    };
    [corner(false, [8, 4, 2]), corner(true, [4, 4, 2])]
        .into_iter()
        .flatten()
        .collect()
}

/// Runs one launch on both engines and asserts they agree bit for bit.
/// Returns whether the launch ran: a launch that faults must fault with
/// the same class on both.
fn engines_agree(
    dev: &VirtualDevice,
    kernel: &Kernel,
    inputs: &[BufferData],
    launch: LaunchConfig,
    label: &str,
) -> bool {
    match (
        dev.run_reference(kernel, inputs, launch),
        dev.run(kernel, inputs, launch),
    ) {
        (Ok(t), Ok(p)) => {
            assert_eq!(t.output, p.output, "outputs diverge for {label}");
            assert_eq!(t.stats, p.stats, "stats diverge for {label}");
            assert_eq!(
                t.time_s.to_bits(),
                p.time_s.to_bits(),
                "modeled times diverge for {label}: {} vs {}",
                t.time_s,
                p.time_s
            );
            true
        }
        (Err(te), Err(pe)) => {
            // Same fault class either way; the plan engine may report it
            // from a different lane of the same statement (op-major vs
            // item-major evaluation).
            assert_eq!(
                std::mem::discriminant(&te),
                std::mem::discriminant(&pe),
                "fault classes diverge for {label}: {te} vs {pe}"
            );
            false
        }
        (t, p) => panic!("one engine faulted for {label}: reference={t:?} plan={p:?}"),
    }
}

/// Every Table-1 benchmark × variant × two configurations × device, plus
/// the hand-written Figure-7 kernels on every device: both engines agree
/// bit-for-bit on outputs, stats and modeled times.
#[test]
fn every_benchmark_variant_device_is_bit_identical_across_engines() {
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    // Benchmarks are independent: two workers halve the wall time of the
    // reference interpreter's share.
    let per_bench = parallel_map(2, suite(), |bench| {
        let mut compared = 0usize;
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
                for cfg in variant_configs(&variant.tunables, variant.dims) {
                    let cfg_refs: Vec<(&str, i64)> =
                        cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let compiled = match variants.clone().on(dev).with_config(name, &cfg_refs) {
                        Ok(c) => c,
                        // Some (variant, device) pairs are legitimately
                        // unbuildable (local memory over budget, work-group
                        // limits); the sweep skips them, so do we.
                        Err(_) => continue,
                    };
                    let label = format!("{}/{name} {cfg:?} on {}", bench.name, dev.profile().name);
                    if engines_agree(dev, compiled.kernel(), &inputs, compiled.launch(), &label) {
                        // Anything that runs clean must also *prove* clean:
                        // the static verifier may never cry wolf on an
                        // executed benchmark kernel.
                        let findings = compiled.verify().expect("verifier runs");
                        assert!(
                            findings.is_empty(),
                            "verifier findings on executed kernel {label}: {findings:?}"
                        );
                        compared += 1;
                    }
                }
            }
        }
        compared
    });
    let mut compared: usize = per_bench.into_iter().sum();
    for name in fig7_names() {
        let bench = by_name(name);
        let sizes = diff_sizes(bench.dims);
        let reference = reference_kernel(&bench, &sizes);
        let inputs: Vec<BufferData> = bench
            .gen_inputs(&sizes, 7)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        let launch = LaunchConfig::d3(reference.global, reference.local);
        for dev in &devices {
            let label = format!("hand-written {name} on {}", dev.profile().name);
            assert!(
                engines_agree(dev, &reference.kernel, &inputs, launch, &label),
                "{label} must run"
            );
            compared += 1;
        }
    }
    assert!(
        compared >= 606,
        "expected a broad comparison matrix, only {compared} cells ran"
    );
}

/// Multi-step (host-rotated) execution agrees across engines too: three
/// plan-engine steps against three reference launches rotated here.
#[test]
fn iterated_runs_are_bit_identical_across_engines() {
    let bench = by_name("Jacobi2D5pt");
    let sizes = diff_sizes(2);
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let compiled = Pipeline::from_benchmark(&bench, &sizes)
        .expect("pipeline")
        .explore()
        .expect("explores")
        .on(&dev)
        .with_config("global", &[("lx", 8), ("ly", 4)])
        .expect("compiles");
    let inputs: Vec<BufferData> = bench
        .gen_inputs(&sizes, 11)
        .into_iter()
        .map(BufferData::F32)
        .collect();
    let plan = dev
        .run_iterated(
            compiled.kernel(),
            &inputs,
            compiled.launch(),
            3,
            Rotation::SingleBuffer,
        )
        .expect("runs");

    // The same three steps on the reference engine, rotating the single
    // state buffer and summing modeled times in launch order.
    let mut state = inputs.clone();
    let mut time_s = 0.0;
    for _ in 0..3 {
        let out = dev
            .run_reference(compiled.kernel(), &state, compiled.launch())
            .expect("runs");
        time_s += out.time_s;
        state[0] = out.output;
    }
    assert_eq!(plan.output, state[0], "iterated outputs diverge");
    assert_eq!(
        plan.time_s.to_bits(),
        time_s.to_bits(),
        "iterated modeled times diverge"
    );

    // And the public planned entry point matches the unplanned one.
    let it = compiled
        .run_iterated(&inputs, 3, Rotation::SingleBuffer)
        .expect("runs");
    assert_eq!(it.output, plan.output);
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

/// Every kernel that does not type is rejected at plan-compile time with a
/// `TypeMismatch` naming the kernel and the statement, one hand-built
/// kernel per rule.
#[test]
fn plan_compile_reports_provable_type_mismatches() {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let (x, flag, tile) = (
        VarRef::fresh("x"),
        VarRef::fresh("flag"),
        VarRef::fresh("tile"),
    );
    let store = |buf: &VarRef, space, idx, value| CStmt::Store {
        buf: buf.clone(),
        space,
        idx,
        value,
    };
    let to_out = |value| store(&out.var, AddressSpace::Global, CExpr::Int(0), value);
    let bin = |op, l, r| CExpr::Bin(op, Box::new(l), Box::new(r));
    // (kernel name, statement the message names, body). Each body breaks
    // exactly one rule: without it the kernel would type.
    let cases: Vec<(&str, &str, Vec<CStmt>)> = vec![
        (
            "float_index",
            "store to `out`",
            vec![store(
                &out.var,
                AddressSpace::Global,
                CExpr::Float(1.5),
                CExpr::Float(0.0),
            )],
        ),
        (
            "float_plus_int",
            "store to `out`",
            vec![to_out(bin(BinOp::Add, CExpr::Float(2.0), CExpr::Int(1)))],
        ),
        (
            "float_into_int",
            "assignment to `x`",
            vec![
                CStmt::DeclScalar {
                    var: x.clone(),
                    ty: CType::Int,
                    init: Some(CExpr::Int(0)),
                },
                CStmt::Assign {
                    var: x.clone(),
                    value: CExpr::Float(1.5),
                },
            ],
        ),
        (
            "mixed_select",
            "store to `out`",
            vec![to_out(CExpr::Select {
                cond: Box::new(CExpr::Bool(true)),
                then_: Box::new(CExpr::Float(2.0)),
                else_: Box::new(CExpr::Int(1)),
            })],
        ),
        (
            "int_into_local_float",
            "store to `tile`",
            vec![store(
                &tile,
                AddressSpace::Local,
                CExpr::Int(0),
                CExpr::Int(1),
            )],
        ),
        (
            "float_condition",
            "if-branch",
            vec![CStmt::If {
                cond: CExpr::Float(1.0),
                then_: vec![to_out(CExpr::Float(0.0))],
                else_: vec![],
            }],
        ),
        (
            "bool_scalar",
            "declaration of `flag`",
            vec![CStmt::DeclScalar {
                var: flag.clone(),
                ty: CType::Bool,
                init: Some(CExpr::Bool(true)),
            }],
        ),
    ];
    for (name, stmt, body) in cases {
        let kernel = Kernel {
            name: name.into(),
            body,
            params: vec![a.clone(), out.clone()],
            locals: vec![LocalBuffer {
                var: tile.clone(),
                elem: CType::Float,
                len: 8,
            }],
            user_funs: vec![],
        };
        let err = Plan::compile(&kernel).expect_err(name);
        assert!(
            matches!(&err, SimError::PlanCompile { cause, .. }
                if matches!(**cause, SimError::TypeMismatch(_))),
            "{name}: wrong fault: {err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("kernel `{name}`")) && msg.contains(stmt),
            "{name}: context missing from: {msg}"
        );
    }
}

/// A one-launch kernel over `A` and `out` (eight elements each) that
/// stores `value` to `out[get_global_id(0)]`.
fn store_kernel(name: &str, value: impl FnOnce(CExpr) -> CExpr, funs: Vec<Arc<UserFun>>) -> Kernel {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let gid = CExpr::WorkItem(WorkItemFn::GlobalId, 0);
    let a_gid = CExpr::Load {
        buf: a.var.clone(),
        space: AddressSpace::Global,
        idx: Box::new(gid.clone()),
    };
    Kernel {
        name: name.into(),
        body: vec![CStmt::Store {
            buf: out.var.clone(),
            space: AddressSpace::Global,
            idx: gid,
            value: value(a_gid),
        }],
        params: vec![a, out],
        locals: vec![],
        user_funs: funs,
    }
}

/// Runs `kernel` on the plan engine over eight floats.
fn run_plan(kernel: &Kernel) -> Result<lift_oclsim::RunOutput, SimError> {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    dev.run(
        kernel,
        &[BufferData::F32(vec![1.0; 8])],
        LaunchConfig::d1(8, 8),
    )
}

/// The plan-compile `TypeMismatch` cause of `err`, which must name `what`.
fn plan_mismatch(err: SimError, what: &str) {
    let SimError::PlanCompile { cause, .. } = &err else {
        panic!("expected a plan-compile error, got {err:?}");
    };
    assert!(
        matches!(&**cause, SimError::TypeMismatch(m) if m.contains(what)),
        "wrong cause: {cause:?}"
    );
}

/// A call whose argument types differ from the user function's declared
/// parameters is a plan-compile error, not a panic mid-launch.
#[test]
fn user_function_argument_types_are_checked() {
    let add = add_f32();
    let kernel = store_kernel(
        "int_argument",
        |a_gid| CExpr::Call(add.clone(), vec![CExpr::Int(1), a_gid]),
        vec![add.clone()],
    );
    plan_mismatch(run_plan(&kernel).expect_err("rejected"), "`add`");
}

/// A call with the wrong number of arguments is a plan-compile error, not
/// a panic mid-launch.
#[test]
fn user_function_arity_is_checked() {
    let add = add_f32();
    let kernel = store_kernel(
        "one_argument",
        |a_gid| CExpr::Call(add.clone(), vec![a_gid]),
        vec![add.clone()],
    );
    plan_mismatch(run_plan(&kernel).expect_err("rejected"), "`add`");
}

/// A user function whose `eval` returns another kind than its declared
/// return type fails the launch with a `TypeMismatch` naming it.
#[test]
fn user_function_return_types_are_checked() {
    let liar = UserFun::new(
        "liar",
        [("x", Type::f32())],
        Type::f32(),
        "return x;",
        |_| Scalar::I32(1),
    );
    let kernel = store_kernel(
        "lying_call",
        |a_gid| CExpr::Call(liar.clone(), vec![a_gid]),
        vec![liar.clone()],
    );
    let err = run_plan(&kernel).expect_err("rejected");
    assert!(
        matches!(&err, SimError::TypeMismatch(m) if m.contains("`liar`")),
        "wrong fault: {err:?}"
    );
}
