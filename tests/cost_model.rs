//! Differential suite for the static cost model.
//!
//! The model's value rests on two properties, each pinned here:
//!
//! 1. **Exactness** — on kernels whose control flow and addressing never
//!    depend on buffer contents (every generated stencil qualifies), the
//!    statically predicted `KernelStats` equal the executor-measured
//!    ones **bit for bit**, and so does the modeled time. This is checked
//!    across every Table-1 benchmark × explored variant × device profile,
//!    at each variant's low and high tunable corner.
//! 2. **Refusal** — where buffer data reaches control flow (a branch, a
//!    loop bound, a `?:` condition) or a global address, a run on
//!    zero-filled buffers would not count what a real run counts, so the
//!    estimate is refused with `SimError::Estimate` naming the site.

use lift_codegen::clike::{
    AddressSpace, BinOp, CExpr, CStmt, CType, Kernel, KernelParam, VarRef, WorkItemFn,
};
use lift_driver::Pipeline;
use lift_oclsim::{BufferData, DeviceProfile, LaunchConfig, PlannedKernel, VirtualDevice};
use lift_rewrite::Tunable;
use lift_stencils::bench3d::num_neighbours_uf;
use lift_stencils::suite;

fn diff_sizes(dims: usize) -> Vec<usize> {
    match dims {
        1 => vec![128],
        2 => vec![48, 40],
        _ => vec![12, 16, 20],
    }
}

/// One corner of a variant's space, with tunable values drawn from the
/// tuner's usable candidates (at most 64, and tile sizes at least the
/// neighbourhood plus 3):
///
/// * low: each tunable's smallest usable value, with an 8×4×2 launch;
/// * high: each tunable's largest usable value, with a square 4×4×2
///   launch — the high corner the `verify` sweep also checks.
///
/// `None` when a tunable has no usable value.
fn corner_config(tunables: &[Tunable], dims: usize, high: bool) -> Option<Vec<(String, i64)>> {
    let mut cfg: Vec<(String, i64)> = Vec::new();
    for t in tunables {
        let mut usable = t.candidates(64).into_iter().filter(|u| match t {
            Tunable::TileSize { nbh_size, .. } => *u >= nbh_size + 3,
            Tunable::CoarsenFactor { .. } => true,
        });
        let v = if high { usable.max() } else { usable.next() };
        cfg.push((t.var().to_string(), v?));
    }
    let launch = if high { [4, 4, 2] } else { [8, 4, 2] };
    for (name, l) in ["lx", "ly", "lz"].into_iter().zip(launch).take(dims) {
        cfg.push((name.to_string(), l));
    }
    Some(cfg)
}

/// Every Table-1 benchmark × variant × device, at both corners: the
/// static estimate is exact and every stats counter — and therefore the
/// modeled time — matches the measured run bit for bit. Low corners are
/// priced on a fresh plan of the kernel, high corners through the
/// pipeline's `CompiledStencil::estimate`.
#[test]
fn estimates_are_bit_exact_on_every_benchmark_variant_device() {
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
                for high in [false, true] {
                    let Some(cfg) = corner_config(&variant.tunables, variant.dims, high) else {
                        continue;
                    };
                    let cfg_refs: Vec<(&str, i64)> =
                        cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let compiled = match variants.clone().on(dev).with_config(name, &cfg_refs) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    let label = format!("{}/{name} {cfg:?} on {}", bench.name, dev.profile().name);
                    let measured = match dev.run(compiled.kernel(), &inputs, compiled.launch()) {
                        Ok(m) => m,
                        // A faulting cell is out of scope here (the engines'
                        // differential suite covers fault agreement).
                        Err(_) => continue,
                    };
                    let planned = PlannedKernel::from_arc(compiled.kernel().clone());
                    let estimate = || -> Result<_, String> {
                        if high {
                            compiled.estimate().map_err(|e| e.to_string())
                        } else {
                            planned
                                .estimate(compiled.launch(), dev.profile())
                                .map_err(|e| e.to_string())
                        }
                    };
                    let est =
                        estimate().unwrap_or_else(|e| panic!("estimate refused for {label}: {e}"));
                    assert!(est.exact, "stencil kernel not statically exact: {label}");
                    assert_eq!(
                        est.stats, measured.stats,
                        "static stats diverge from measured for {label}"
                    );
                    assert_eq!(
                        est.time(dev.profile()).to_bits(),
                        measured.time_s.to_bits(),
                        "modeled times diverge for {label}: {} vs {}",
                        est.time(dev.profile()),
                        measured.time_s
                    );
                    // Memoisation returns the identical Arc.
                    let again = estimate().expect("cached estimate");
                    assert!(
                        std::sync::Arc::ptr_eq(&est, &again),
                        "cache miss for {label}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared >= 550,
        "expected a broad comparison matrix, only {compared} cells ran"
    );
}

fn buf(name: &str, len: usize, is_output: bool) -> KernelParam {
    KernelParam {
        var: VarRef::fresh(name),
        elem: CType::Float,
        len,
        is_output,
    }
}

fn load(buf: &KernelParam, idx: CExpr) -> CExpr {
    CExpr::Load {
        buf: buf.var.clone(),
        space: AddressSpace::Global,
        idx: Box::new(idx),
    }
}

fn store(buf: &KernelParam, idx: CExpr, value: CExpr) -> CStmt {
    CStmt::Store {
        buf: buf.var.clone(),
        space: AddressSpace::Global,
        idx,
        value,
    }
}

fn bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    CExpr::Bin(op, Box::new(a), Box::new(b))
}

fn int_of(e: CExpr) -> CExpr {
    CExpr::Cast(CType::Int, Box::new(e))
}

fn decl_int(var: &VarRef, init: CExpr) -> CStmt {
    CStmt::DeclScalar {
        var: var.clone(),
        ty: CType::Int,
        init: Some(init),
    }
}

/// The launch every hand-built kernel below runs with.
const CFG: LaunchConfig = LaunchConfig {
    global: [64, 1, 1],
    local: [16, 1, 1],
};

/// A user-function call depends on data only through its arguments: a
/// branch on Acoustic's `numNeighbours` over work-item ids is
/// launch-determined, so it is estimated — exactly — not refused.
#[test]
fn calls_on_work_item_ids_are_estimated_exactly() {
    let a = buf("A", 64, false);
    let out = buf("out", 64, true);
    let gid = VarRef::fresh("gid");
    let id = || CExpr::Var(gid.clone());
    let nn = num_neighbours_uf();
    // numNeighbours(gid, 0, 0, 64, 1, 1) is 1 at either end of the row and
    // 2 inside, so the branch diverges within the first and last groups.
    let args = vec![
        id(),
        CExpr::Int(0),
        CExpr::Int(0),
        CExpr::Int(64),
        CExpr::Int(1),
        CExpr::Int(1),
    ];
    let kernel = Kernel {
        name: "call_branch".into(),
        body: vec![
            decl_int(&gid, CExpr::WorkItem(WorkItemFn::GlobalId, 0)),
            CStmt::If {
                cond: bin(BinOp::Lt, CExpr::Call(nn.clone(), args), CExpr::Int(2)),
                then_: vec![store(&out, id(), CExpr::Float(0.0))],
                else_: vec![store(&out, id(), load(&a, id()))],
            },
        ],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![nn],
    };
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let inputs = vec![BufferData::F32((0..64).map(|i| i as f32).collect())];
    let measured = dev.run(&kernel, &inputs, CFG).expect("runs");
    let est = PlannedKernel::new(kernel)
        .estimate(CFG, dev.profile())
        .expect("a launch-determined call is estimated");
    assert!(est.exact);
    assert_eq!(est.stats, measured.stats);
    assert_eq!(est.time(dev.profile()).to_bits(), measured.time_s.to_bits());
}

/// A kernel over input `a` and output `out` that sets `gid` to
/// `get_global_id(0)` and then runs `body`.
fn gid_kernel(a: &KernelParam, out: &KernelParam, gid: &VarRef, body: Vec<CStmt>) -> Kernel {
    let mut stmts = vec![decl_int(gid, CExpr::WorkItem(WorkItemFn::GlobalId, 0))];
    stmts.extend(body);
    Kernel {
        name: "data_dependent".into(),
        body: stmts,
        params: vec![a.clone(), out.clone()],
        locals: vec![],
        user_funs: vec![],
    }
}

/// Buffer *contents* reach `site`, which steers the executor's counters:
/// the estimate must be refused with `SimError::Estimate` naming that
/// site — not estimated from zeros, guessed, or left to hang.
fn assert_refused(kernel: Kernel, site: &str) {
    let err = PlannedKernel::new(kernel)
        .estimate(CFG, &DeviceProfile::k20c())
        .expect_err(site);
    let lift_oclsim::SimError::Estimate(msg) = &err else {
        panic!("{site}: wrong fault {err:?}");
    };
    assert_eq!(msg, &format!("{site} reads buffer data"));
    assert!(
        err.to_string().contains("cost estimate unavailable"),
        "message: {err}"
    );
}

/// A branch on buffer *contents*: on zero-filled buffers every lane would
/// take the same arm, so an estimate could under-count the other one. The
/// model never under-counts it — it refuses to price the kernel at all,
/// naming the branch — while the device still runs it, so a tuner falls
/// back to simulating such a kernel.
#[test]
fn data_dependent_branches_only_overestimate() {
    let a = buf("A", 64, false);
    let out = buf("out", 64, true);
    let gid = VarRef::fresh("gid");
    let id = || CExpr::Var(gid.clone());
    // if (A[gid] < A[0]) out[gid] = A[gid] + 1; else out[gid] = 0;
    let kernel = gid_kernel(
        &a,
        &out,
        &gid,
        vec![CStmt::If {
            cond: bin(BinOp::Lt, load(&a, id()), load(&a, CExpr::Int(0))),
            then_: vec![store(
                &out,
                id(),
                bin(BinOp::Add, load(&a, id()), CExpr::Float(1.0)),
            )],
            else_: vec![store(&out, id(), CExpr::Float(0.0))],
        }],
    );
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let inputs = vec![BufferData::F32(
        (0..64).map(|i| (i % 7) as f32 - 3.0).collect(),
    )];
    dev.run(&kernel, &inputs, CFG)
        .expect("the device runs what the model refuses to price");
    assert_refused(kernel, "a branch condition");
}

/// A loop whose bound comes out of a buffer, here through a scalar chain,
/// defeats static analysis: the estimate must refuse, not guess or hang.
#[test]
fn data_dependent_loop_bounds_refuse_cleanly() {
    let a = buf("A", 64, false);
    let out = buf("out", 64, true);
    let gid = VarRef::fresh("gid");
    let (n, m, i) = (VarRef::fresh("n"), VarRef::fresh("m"), VarRef::fresh("i"));
    // n = (int)A[0]; m = n + 1; for (i = 0; i < m; i++) out[0] = 1;
    let kernel = gid_kernel(
        &a,
        &out,
        &gid,
        vec![
            decl_int(&n, int_of(load(&a, CExpr::Int(0)))),
            decl_int(&m, bin(BinOp::Add, CExpr::Var(n.clone()), CExpr::Int(1))),
            CStmt::For {
                var: i,
                init: CExpr::Int(0),
                bound: CExpr::Var(m),
                step: CExpr::Int(1),
                body: vec![store(&out, CExpr::Int(0), CExpr::Float(1.0))],
            },
        ],
    );
    assert_refused(kernel, "a loop bound");
}

/// The other sites buffer contents must not reach: a `?:` condition and
/// the index of a global load or store. Each hand-built kernel is refused
/// naming its site.
#[test]
fn data_dependent_sites_refuse_cleanly() {
    let a = buf("A", 64, false);
    let out = buf("out", 64, true);
    let gid = VarRef::fresh("gid");
    let id = || CExpr::Var(gid.clone());
    let rows: Vec<(&str, Vec<CStmt>)> = vec![
        (
            // out[gid] = A[gid] < 0 ? 0 : A[gid];
            "a `?:` condition",
            vec![store(
                &out,
                id(),
                CExpr::Select {
                    cond: Box::new(bin(BinOp::Lt, load(&a, id()), CExpr::Float(0.0))),
                    then_: Box::new(CExpr::Float(0.0)),
                    else_: Box::new(load(&a, id())),
                },
            )],
        ),
        (
            // out[gid] = A[(int)A[gid]];
            "a global load index",
            vec![store(&out, id(), load(&a, int_of(load(&a, id()))))],
        ),
        (
            // out[(int)A[gid]] = 1;
            "a global store index",
            vec![store(&out, int_of(load(&a, id())), CExpr::Float(1.0))],
        ),
    ];
    for (site, body) in rows {
        assert_refused(gid_kernel(&a, &out, &gid, body), site);
    }
}
