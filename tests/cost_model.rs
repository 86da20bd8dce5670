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

use std::sync::atomic::{AtomicU64, Ordering};

use lift_codegen::clike::{
    AddressSpace, BinOp, CExpr, CStmt, CType, Kernel, KernelParam, LocalBuffer, VarRef, WorkItemFn,
};
use lift_core::scalar::Scalar;
use lift_core::types::Type;
use lift_core::userfun::UserFun;
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

/// `get_group_id(dim)`.
fn group_id(dim: u8) -> CExpr {
    CExpr::WorkItem(WorkItemFn::GroupId, dim)
}

/// What the class estimate must do with one adversarial launch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Partition the grid: fewer groups run than the launch has.
    Classes,
    /// Run every group once: the full zero-data run, or a partition into
    /// one-group classes.
    FullRun,
    /// Fault exactly as `run` does.
    Fault,
}

/// One adversarial row: a name, a kernel over input `A` (of `a_len`
/// elements) and output `out` (of `out_len`) with local buffers `locals`,
/// its launch, and the outcome. `calls` is `Some(skipped)` for a kernel
/// that calls [`COUNTED`] once per work-item: `run` makes every call, and
/// the estimate none when `skipped`, else one per lane of every group it
/// runs.
struct Row {
    name: &'static str,
    a_len: usize,
    out_len: usize,
    locals: Vec<LocalBuffer>,
    body: Vec<CStmt>,
    launch: LaunchConfig,
    expect: Expect,
    calls: Option<bool>,
}

/// Calls made to the user function [`counted`] so far.
static COUNTED: AtomicU64 = AtomicU64::new(0);

/// `float counted(float x) { return x + 1.0f; }`, counting its calls in
/// [`COUNTED`].
fn counted() -> std::sync::Arc<UserFun> {
    UserFun::new(
        "counted",
        [("x", Type::f32())],
        Type::f32(),
        "return x + 1.0f;",
        |a| {
            COUNTED.fetch_add(1, Ordering::Relaxed);
            Scalar::F32(a[0].as_f32() + 1.0)
        },
    )
}

/// Launches the class estimate must get exactly right: classes that split
/// along one dimension, alignment residues that cycle, lanes of one warp
/// whose addresses move by different slopes, partial groups, a trace that
/// grows with lanes and loop trips, buffer data at a local index and in a
/// user-function call, and the plans it must leave to the full run. Every
/// row, on every device, asserts the estimate's stats (and so its modeled
/// time) equal `run`'s bit for bit, or its fault equals `run`'s, and checks
/// `groups_run` against the launch's work-groups.
#[test]
fn class_estimates_match_runs_on_adversarial_launches() {
    let a = buf("A", 0, false);
    let out = buf("out", 0, true);
    let gid = VarRef::fresh("gid");
    let id = || CExpr::Var(gid.clone());
    let copy = |idx: CExpr| store(&out, id(), load(&a, idx));
    let d1 = |n| LaunchConfig::d1(n, 16);
    let (gx, gy, gz) = (
        VarRef::fresh("gx"),
        VarRef::fresh("gy"),
        VarRef::fresh("gz"),
    );
    let flat = bin(
        BinOp::Add,
        bin(
            BinOp::Mul,
            bin(
                BinOp::Add,
                bin(BinOp::Mul, CExpr::Var(gz.clone()), CExpr::Int(8)),
                CExpr::Var(gy.clone()),
            ),
            CExpr::Int(16),
        ),
        CExpr::Var(gx.clone()),
    );
    let (lbuf, x, i) = (VarRef::fresh("L"), VarRef::fresh("x"), VarRef::fresh("i"));
    let rows = vec![
        Row {
            // if (get_group_id(0) == 5) out[gid] = A[gid] + 1; else out[gid] = A[gid];
            name: "one special group",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![CStmt::If {
                cond: bin(BinOp::Eq, group_id(0), CExpr::Int(5)),
                then_: vec![store(
                    &out,
                    id(),
                    bin(BinOp::Add, load(&a, id()), CExpr::Float(1.0)),
                )],
                else_: vec![copy(id())],
            }],
            launch: d1(256),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // out[gid] = A[3 * gid]: 24 words per 8-wide group, so the
            // groups' alignment cycles through four residues.
            name: "stride of 3 elements",
            a_len: 768,
            out_len: 256,
            locals: vec![],
            body: vec![copy(bin(BinOp::Mul, CExpr::Int(3), id()))],
            launch: LaunchConfig::d1(256, 8),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // out[gid] = A[min(gid, 40)]: one group picks both operands.
            name: "clamp inside a warp",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![copy(bin(BinOp::Min, id(), CExpr::Int(40)))],
            launch: d1(256),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // out[gid] = A[get_group_id(0) * get_local_id(0)]: every lane
            // moves by its own slope, so no two groups share a class.
            name: "lanes with their own slopes",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![copy(bin(
                BinOp::Mul,
                group_id(0),
                CExpr::WorkItem(WorkItemFn::LocalId, 0),
            ))],
            launch: d1(256),
            expect: Expect::FullRun,
            calls: None,
        },
        Row {
            // out[lid] = A[max(get_group_id(0) - get_group_id(1), 0) * 16 +
            // get_local_id(0)]: group (0, 0) sits on the tie of a `max`
            // whose gap grows along x and shrinks along y, and a wrong
            // pick moves a 32-lane read across a segment boundary.
            name: "a tie that slopes apart in x and y",
            a_len: 144,
            out_len: 32,
            locals: vec![],
            body: vec![store(
                &out,
                CExpr::WorkItem(WorkItemFn::LocalId, 0),
                load(
                    &a,
                    bin(
                        BinOp::Add,
                        bin(
                            BinOp::Mul,
                            bin(
                                BinOp::Max,
                                bin(BinOp::Sub, group_id(0), group_id(1)),
                                CExpr::Int(0),
                            ),
                            CExpr::Int(16),
                        ),
                        CExpr::WorkItem(WorkItemFn::LocalId, 0),
                    ),
                ),
            )],
            launch: LaunchConfig::d2(256, 32, 32, 4),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // for (gid = get_global_id(0); gid < 1000; gid += get_global_size(0))
            //   out[gid] = A[gid];  — 1008 work-items, the last group partial.
            name: "grid the work-group does not divide",
            a_len: 1000,
            out_len: 1000,
            locals: vec![],
            body: vec![CStmt::For {
                var: gid.clone(),
                init: CExpr::WorkItem(WorkItemFn::GlobalId, 0),
                bound: CExpr::Int(1000),
                step: CExpr::WorkItem(WorkItemFn::GlobalSize, 0),
                body: vec![copy(id())],
            }],
            launch: d1(1008),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // if (gz < 5) out[idx] = A[idx] + 1; else out[idx] = A[idx];
            // over a 16×8×12 grid of 8×4×2 groups: z-group 2 splits.
            name: "3-D classes split in z",
            a_len: 16 * 8 * 12,
            out_len: 16 * 8 * 12,
            locals: vec![],
            body: vec![
                decl_int(&gx, CExpr::WorkItem(WorkItemFn::GlobalId, 0)),
                decl_int(&gy, CExpr::WorkItem(WorkItemFn::GlobalId, 1)),
                decl_int(&gz, CExpr::WorkItem(WorkItemFn::GlobalId, 2)),
                CStmt::If {
                    cond: bin(BinOp::Lt, CExpr::Var(gz.clone()), CExpr::Int(5)),
                    then_: vec![store(
                        &out,
                        flat.clone(),
                        bin(BinOp::Add, load(&a, flat.clone()), CExpr::Float(1.0)),
                    )],
                    else_: vec![store(&out, flat.clone(), load(&a, flat.clone()))],
                },
            ],
            launch: LaunchConfig::d3([16, 8, 12], [8, 4, 2]),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // if (gid % 3 == 0) out[gid] = A[gid]; — `%` hides the group.
            name: "gid % 3 in a branch",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![CStmt::If {
                cond: bin(
                    BinOp::Eq,
                    bin(BinOp::Mod, id(), CExpr::Int(3)),
                    CExpr::Int(0),
                ),
                then_: vec![copy(id())],
                else_: vec![],
            }],
            launch: d1(256),
            expect: Expect::FullRun,
            calls: None,
        },
        Row {
            // out[gid] = A[gid * gid]; — a product of two group-dependent
            // values is not affine.
            name: "gid * gid as an index",
            a_len: 256 * 256,
            out_len: 256,
            locals: vec![],
            body: vec![copy(bin(BinOp::Mul, id(), id()))],
            launch: d1(256),
            expect: Expect::FullRun,
            calls: None,
        },
        Row {
            // out[gid] = A[gid + 1]; — the last lane of the last group reads
            // past the end.
            name: "out of bounds in the last group",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![copy(bin(BinOp::Add, id(), CExpr::Int(1)))],
            launch: d1(256),
            expect: Expect::Fault,
            calls: None,
        },
        Row {
            // for (i = 0; i < 64; i++) out[i * 4096 + gid] = A[i * 4096 + gid];
            // over 16 groups of 256: a copy strided by the grid, whose
            // trace holds 3 values per lane and trip (49,152 in all).
            name: "a wide group looping over a strided copy",
            a_len: 64 * 4096,
            out_len: 64 * 4096,
            locals: vec![],
            body: vec![CStmt::For {
                var: i.clone(),
                init: CExpr::Int(0),
                bound: CExpr::Int(64),
                step: CExpr::Int(1),
                body: vec![{
                    let idx = bin(
                        BinOp::Add,
                        bin(BinOp::Mul, CExpr::Var(i.clone()), CExpr::Int(4096)),
                        id(),
                    );
                    store(&out, idx.clone(), load(&a, idx))
                }],
            }],
            launch: LaunchConfig::d1(4096, 256),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // x = (int)A[gid]; L[min(max(x, 0), 15)] = counted(A[gid]);
            // out[gid] = A[gid]; — buffer data clamped into a local index:
            // the zero-data run skips nothing, not even the call.
            name: "buffer data clamped into a local index",
            a_len: 256,
            out_len: 256,
            locals: vec![LocalBuffer {
                var: lbuf.clone(),
                elem: CType::Float,
                len: 16,
            }],
            body: vec![
                decl_int(&x, int_of(load(&a, id()))),
                CStmt::Store {
                    buf: lbuf.clone(),
                    space: AddressSpace::Local,
                    idx: bin(
                        BinOp::Min,
                        bin(BinOp::Max, CExpr::Var(x.clone()), CExpr::Int(0)),
                        CExpr::Int(15),
                    ),
                    value: CExpr::Call(counted(), vec![load(&a, id())]),
                },
                copy(id()),
            ],
            launch: d1(256),
            expect: Expect::Classes,
            calls: Some(false),
        },
        Row {
            // out[gid] = counted(A[gid]); — a call on buffer data, which the
            // zero-data run charges but does not make.
            name: "a user function on buffer data",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![store(
                &out,
                id(),
                CExpr::Call(counted(), vec![load(&a, id())]),
            )],
            launch: d1(256),
            expect: Expect::Classes,
            calls: Some(true),
        },
        Row {
            // out[lid] = A[max(get_group_id(1) - get_group_id(0), 0) * 16 +
            // get_local_id(0) + 64]: group (0, 0) sits on the tie of a
            // `max` whose gap shrinks along x, so beyond it every group
            // picks the second operand, which does not move.
            name: "a tie that picks the second operand beyond it",
            a_len: 208,
            out_len: 32,
            locals: vec![],
            body: vec![store(
                &out,
                CExpr::WorkItem(WorkItemFn::LocalId, 0),
                load(
                    &a,
                    bin(
                        BinOp::Add,
                        bin(
                            BinOp::Mul,
                            bin(
                                BinOp::Max,
                                bin(BinOp::Sub, group_id(1), group_id(0)),
                                CExpr::Int(0),
                            ),
                            CExpr::Int(16),
                        ),
                        bin(
                            BinOp::Add,
                            CExpr::WorkItem(WorkItemFn::LocalId, 0),
                            CExpr::Int(64),
                        ),
                    ),
                ),
            )],
            launch: LaunchConfig::d2(256, 32, 32, 4),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // if (get_local_id(0) % 2 == 1) out[gid] = A[3 * gid]; over
            // 40-lane groups: every warp is partly active, and the groups'
            // alignment cycles through four residues.
            name: "odd lanes read a stride-3 element",
            a_len: 3 * 1280,
            out_len: 1280,
            locals: vec![],
            body: vec![CStmt::If {
                cond: bin(
                    BinOp::Eq,
                    bin(
                        BinOp::Mod,
                        CExpr::WorkItem(WorkItemFn::LocalId, 0),
                        CExpr::Int(2),
                    ),
                    CExpr::Int(1),
                ),
                then_: vec![copy(bin(BinOp::Mul, CExpr::Int(3), id()))],
                else_: vec![],
            }],
            launch: LaunchConfig::d1(1280, 40),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // out[gx + 64 * gy] = A[(get_local_id(0) < 4 ? 2 * gx : gx) +
            // 64 * gy]: lanes of one group move apart along x, and all
            // together along y.
            name: "a select whose arms slope apart in x",
            a_len: 64 * 17,
            out_len: 64 * 16,
            locals: vec![],
            body: {
                let gx = || CExpr::WorkItem(WorkItemFn::GlobalId, 0);
                let row = || {
                    bin(
                        BinOp::Mul,
                        CExpr::Int(64),
                        CExpr::WorkItem(WorkItemFn::GlobalId, 1),
                    )
                };
                let picked = CExpr::Select {
                    cond: Box::new(bin(
                        BinOp::Lt,
                        CExpr::WorkItem(WorkItemFn::LocalId, 0),
                        CExpr::Int(4),
                    )),
                    then_: Box::new(bin(BinOp::Mul, CExpr::Int(2), gx())),
                    else_: Box::new(gx()),
                };
                vec![store(
                    &out,
                    bin(BinOp::Add, gx(), row()),
                    load(&a, bin(BinOp::Add, picked, row())),
                )]
            },
            launch: LaunchConfig::d2(64, 16, 8, 4),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // out[gid] = (float)(0 * gid + gid * gid); — a stored value
            // that is not affine in the group, built from one that is.
            name: "a stored value that adds an opaque term",
            a_len: 256,
            out_len: 256,
            locals: vec![],
            body: vec![store(
                &out,
                id(),
                CExpr::Cast(
                    CType::Float,
                    Box::new(bin(
                        BinOp::Add,
                        bin(BinOp::Mul, CExpr::Int(0), id()),
                        bin(BinOp::Mul, id(), id()),
                    )),
                ),
            )],
            launch: d1(256),
            expect: Expect::Classes,
            calls: None,
        },
        Row {
            // if (get_group_id(0) < 3) x = gid; else x = 2 * gid;
            // out[gid] = A[x]; — one register, written in either arm.
            name: "a register set in both arms of a group branch",
            a_len: 512,
            out_len: 256,
            locals: vec![],
            body: vec![
                decl_int(&x, CExpr::Int(0)),
                CStmt::If {
                    cond: bin(BinOp::Lt, group_id(0), CExpr::Int(3)),
                    then_: vec![CStmt::Assign {
                        var: x.clone(),
                        value: id(),
                    }],
                    else_: vec![CStmt::Assign {
                        var: x.clone(),
                        value: bin(BinOp::Mul, CExpr::Int(2), id()),
                    }],
                },
                copy(CExpr::Var(x.clone())),
            ],
            launch: d1(256),
            expect: Expect::Classes,
            calls: None,
        },
    ];
    for row in rows {
        let a = KernelParam {
            len: row.a_len,
            ..a.clone()
        };
        let out = KernelParam {
            len: row.out_len,
            ..out.clone()
        };
        let kernel = Kernel {
            locals: row.locals,
            ..gid_kernel(&a, &out, &gid, row.body)
        };
        let inputs = vec![BufferData::F32(
            (0..row.a_len).map(|i| (i % 13) as f32).collect(),
        )];
        for profile in DeviceProfile::all() {
            let label = format!("{} on {}", row.name, profile.name);
            let dev = VirtualDevice::new(profile);
            COUNTED.store(0, Ordering::Relaxed);
            let measured = dev.run(&kernel, &inputs, row.launch);
            let run_calls = COUNTED.swap(0, Ordering::Relaxed);
            let est = PlannedKernel::new(kernel.clone()).estimate(row.launch, dev.profile());
            let est_calls = COUNTED.load(Ordering::Relaxed);
            if let (Some(skipped), Ok(m), Ok(e)) = (row.calls, &measured, &est) {
                assert_eq!(run_calls, m.stats.work_items, "{label}: calls by run");
                let made = if skipped {
                    0
                } else {
                    e.groups_run * m.stats.wg_size
                };
                assert_eq!(est_calls, made, "{label}: calls by the estimate");
            }
            let (m, e) = match (measured, est) {
                (Err(re), Err(ee)) => {
                    assert_eq!(row.expect, Expect::Fault, "{label}: {re}");
                    assert_eq!(ee, re, "{label}: estimate and run fault differently");
                    continue;
                }
                (Ok(m), Ok(e)) => (m, e),
                (m, e) => panic!("{label}: run {:?} but estimate {:?}", m.err(), e.err()),
            };
            assert_eq!(e.stats, m.stats, "{label}: stats diverge");
            assert_eq!(
                e.time(dev.profile()).to_bits(),
                m.time_s.to_bits(),
                "{label}"
            );
            let groups = m.stats.work_groups;
            match row.expect {
                Expect::Classes => assert!(
                    e.groups_run < groups,
                    "{label}: {} of {groups} groups run",
                    e.groups_run
                ),
                Expect::FullRun => assert_eq!(e.groups_run, groups, "{label}"),
                Expect::Fault => panic!("{label}: expected a fault"),
            }
        }
    }
}

/// `estimate` validates a launch with the same check `run` does: a
/// Jacobi2D5pt `global` kernel with a 32×16 work-group exceeds the
/// HD 7970's 256-item maximum, and both refuse it with the same error.
#[test]
fn estimate_and_run_reject_the_same_launch() {
    let dev = VirtualDevice::new(DeviceProfile::hd7970());
    let variants = Pipeline::for_benchmark("Jacobi2D5pt", &[64, 64])
        .expect("pipeline")
        .explore()
        .expect("explores");
    let k20c = VirtualDevice::new(DeviceProfile::k20c());
    let compiled = variants
        .on(&k20c)
        .with_config("global", &[("lx", 32), ("ly", 16)])
        .expect("a 512-item group is valid on the K20c");
    let inputs = vec![BufferData::F32(vec![1.0; 64 * 64])];
    let run = dev
        .run(compiled.kernel(), &inputs, compiled.launch())
        .expect_err("too big for the HD 7970");
    let est = PlannedKernel::from_arc(compiled.kernel().clone())
        .estimate(compiled.launch(), dev.profile())
        .expect_err("too big for the HD 7970");
    assert_eq!(est, run);
    assert_eq!(
        run.to_string(),
        "invalid launch: work-group size 512 exceeds device maximum 256"
    );
}

/// The tuner's work-group shapes for a `dims`-dimensional variant on a
/// device admitting `max_wg` work-items: powers of two in 32–`max_wg`
/// (1-D), 8–64 × 4–32 (2-D) or 8–64 × 2–16 × 1–2 (3-D).
fn launch_shapes(dims: usize, max_wg: usize) -> Vec<Vec<(String, i64)>> {
    let pow2 = |lo: i64, hi: i64| -> Vec<i64> {
        (0..)
            .map(|e| 1i64 << e)
            .skip_while(|&v| v < lo)
            .take_while(|&v| v <= hi)
            .collect()
    };
    let axes: Vec<(&str, Vec<i64>)> = match dims {
        1 => vec![("lx", pow2(32, max_wg as i64))],
        2 => vec![("lx", pow2(8, 64)), ("ly", pow2(4, 32))],
        _ => vec![("lx", pow2(8, 64)), ("ly", pow2(2, 16)), ("lz", vec![1, 2])],
    };
    let mut shapes: Vec<Vec<(String, i64)>> = vec![Vec::new()];
    for (name, values) in axes {
        shapes = shapes
            .iter()
            .flat_map(|s| {
                values.iter().map(move |&v| {
                    let mut s = s.clone();
                    s.push((name.to_string(), v));
                    s
                })
            })
            .collect();
    }
    shapes.retain(|s| s.iter().map(|(_, v)| *v as usize).product::<usize>() <= max_wg);
    shapes
}

/// Every Table-1 benchmark × variant × device on grids no work-group
/// divides (`sizes` per rank), `draws` configurations each: tunables and
/// work-group shapes drawn with `SplitMix64` from the tuner's candidates.
/// Each estimate must equal its run bit for bit, or fault as the run
/// does. Returns the number of cells compared.
fn random_sweep(seed: u64, draws: usize, sizes: &[Vec<usize>; 3]) -> usize {
    let mut rng = lift_tuner::SplitMix64::new(seed);
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut compared = 0;
    for bench in suite() {
        let sizes = &sizes[bench.dims - 1];
        let variants = Pipeline::from_benchmark(&bench, sizes)
            .expect("pipeline")
            .explore()
            .expect("explores");
        let inputs: Vec<BufferData> = bench
            .gen_inputs(sizes, seed)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        for dev in &devices {
            for variant in variants.variants() {
                let shapes = launch_shapes(variant.dims, dev.profile().max_wg_size);
                for _ in 0..draws {
                    let mut cfg = Vec::new();
                    for t in &variant.tunables {
                        let usable: Vec<i64> = t
                            .candidates(64)
                            .into_iter()
                            .filter(|u| match t {
                                Tunable::TileSize { nbh_size, .. } => *u >= nbh_size + 3,
                                Tunable::CoarsenFactor { .. } => true,
                            })
                            .collect();
                        if !usable.is_empty() {
                            cfg.push((t.var().to_string(), usable[rng.gen_range(usable.len())]));
                        }
                    }
                    cfg.extend(shapes[rng.gen_range(shapes.len())].iter().cloned());
                    let refs: Vec<(&str, i64)> =
                        cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let Ok(compiled) = variants.clone().on(dev).with_config(&variant.name, &refs)
                    else {
                        continue;
                    };
                    let label = format!(
                        "{}/{} {cfg:?} on {}",
                        bench.name,
                        variant.name,
                        dev.profile().name
                    );
                    let measured = dev.run(compiled.kernel(), &inputs, compiled.launch());
                    let est = PlannedKernel::from_arc(compiled.kernel().clone())
                        .estimate(compiled.launch(), dev.profile());
                    match (measured, est) {
                        (Ok(m), Ok(e)) => {
                            assert_eq!(e.stats, m.stats, "stats diverge for {label}");
                            assert!(e.groups_run <= m.stats.work_groups, "{label}");
                        }
                        // The local-memory capacity check is the run's alone.
                        (Err(lift_oclsim::SimError::BadLaunch(_)), _) => continue,
                        (Err(re), Err(ee)) => assert_eq!(ee, re, "faults diverge for {label}"),
                        (m, e) => panic!("{label}: run {:?} but estimate {:?}", m.err(), e.err()),
                    }
                    compared += 1;
                }
            }
        }
    }
    compared
}

/// A fixed-seed slice of the random sweep, one draw per benchmark ×
/// variant × device.
#[test]
fn class_estimates_equal_runs_on_random_configurations() {
    let sizes = [vec![131], vec![37, 45], vec![11, 13, 17]];
    let compared = random_sweep(2018, 1, &sizes);
    assert!(compared >= 250, "only {compared} cells compared");
}

/// The wide sweep: more draws on two size sets. Run it in release:
/// `cargo test --release --test cost_model -- --ignored`.
#[test]
#[ignore = "minutes at the tier-1 profile; run in release"]
fn class_estimates_equal_runs_on_many_random_configurations() {
    let mut compared = 0;
    for (seed, sizes) in [
        (7, [vec![131], vec![37, 45], vec![11, 13, 17]]),
        (42, [vec![203], vec![61, 53], vec![9, 19, 14]]),
    ] {
        compared += random_sweep(seed, 8, &sizes);
    }
    assert!(compared >= 4000, "only {compared} cells compared");
}

/// The class estimate's point: on every Figure-7 benchmark × variant at
/// its small size, with a 16×8(×2) launch on the K20c and each tunable at
/// its smallest usable value, a grid of at least 256 work-groups is priced
/// by running at most a quarter of them (2-D) or half (3-D). The estimate
/// stays exact.
#[test]
fn class_estimates_run_a_fraction_of_the_groups() {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let mut checked = 0;
    for name in lift_stencils::fig7_names() {
        let bench = lift_stencils::by_name(name);
        let sizes = bench.small.to_vec();
        let variants = Pipeline::from_benchmark(&bench, &sizes)
            .expect("pipeline")
            .explore()
            .expect("explores");
        let inputs: Vec<BufferData> = bench
            .gen_inputs(&sizes, 7)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        for variant in variants.variants() {
            // Rank 0 takes the low corner's tunables without its launch.
            let Some(mut cfg) = corner_config(&variant.tunables, 0, false) else {
                continue;
            };
            for (n, l) in ["lx", "ly", "lz"]
                .into_iter()
                .zip([16, 8, 2])
                .take(variant.dims)
            {
                cfg.push((n.to_string(), l));
            }
            let refs: Vec<(&str, i64)> = cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let compiled = variants
                .clone()
                .on(&dev)
                .with_config(&variant.name, &refs)
                .expect("configures");
            let label = format!("{name}/{} {cfg:?}", variant.name);
            let measured = dev
                .run(compiled.kernel(), &inputs, compiled.launch())
                .expect("runs");
            let est = compiled.estimate().expect("estimates");
            assert_eq!(est.stats, measured.stats, "stats diverge for {label}");
            let groups = measured.stats.work_groups;
            if groups < 256 {
                continue;
            }
            let share = if variant.dims == 3 { 2 } else { 4 };
            assert!(
                est.groups_run * share <= groups,
                "{label}: {} of {groups} groups run",
                est.groups_run
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} launches of 256+ groups");
}

/// One run per box, whatever the grid: on the K20c, the `global` variant
/// of Jacobi2D5pt with a 16×8 work-group is 9 boxes (corners, edges and
/// interior) and Heat's with an 8×4×2 work-group 27, at 1×, 2× and 4×
/// their small sizes. The estimate runs exactly one group per box and
/// stays exact.
#[test]
fn class_estimates_run_one_group_per_box() {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    for (name, launch, boxes) in [
        ("Jacobi2D5pt", &[("lx", 16), ("ly", 8)][..], 9),
        ("Heat", &[("lx", 8), ("ly", 4), ("lz", 2)][..], 27),
    ] {
        let bench = lift_stencils::by_name(name);
        for scale in [1, 2, 4] {
            let sizes: Vec<usize> = bench.small.iter().map(|&n| n * scale).collect();
            let variants = Pipeline::from_benchmark(&bench, &sizes)
                .expect("pipeline")
                .explore()
                .expect("explores");
            let compiled = variants
                .on(&dev)
                .with_config("global", launch)
                .expect("configures");
            let inputs: Vec<BufferData> = bench
                .gen_inputs(&sizes, 7)
                .into_iter()
                .map(BufferData::F32)
                .collect();
            let measured = dev
                .run(compiled.kernel(), &inputs, compiled.launch())
                .expect("runs");
            let est = compiled.estimate().expect("estimates");
            let label = format!("{name} {sizes:?}");
            assert_eq!(est.stats, measured.stats, "stats diverge for {label}");
            assert_eq!(est.groups_run, boxes, "{label}: groups run");
        }
    }
}

/// Every launch of the `lift-harness verify` sweep: each Table-1 benchmark
/// × device × variant under the sweep's representative configurations
/// (`rep_configs`), at small and at large sizes. Each estimate equals its
/// run bit for bit, or faults as the run does, and runs no more groups
/// than the launch has. Minutes in release:
/// `cargo test --release --test cost_model -- --ignored verify_sweep`.
#[test]
#[ignore = "minutes even in release"]
fn class_estimates_equal_runs_on_the_verify_sweep() {
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut compared = 0;
    for bench in suite() {
        let small = bench.size(false, false);
        let large = bench.size(true, false);
        let sizes = if large == small {
            vec![small]
        } else {
            vec![small, large]
        };
        for sizes in sizes {
            let variants = Pipeline::from_benchmark(&bench, &sizes)
                .expect("pipeline")
                .explore()
                .expect("explores");
            let inputs: Vec<BufferData> = bench
                .gen_inputs(&sizes, 7)
                .into_iter()
                .map(BufferData::F32)
                .collect();
            for dev in &devices {
                for variant in variants.variants() {
                    for cfg in lift_harness::experiments::rep_configs(variant) {
                        let refs: Vec<(&str, i64)> =
                            cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                        let Ok(compiled) =
                            variants.clone().on(dev).with_config(&variant.name, &refs)
                        else {
                            continue;
                        };
                        let label = format!(
                            "{}/{} {sizes:?} {cfg:?} on {}",
                            bench.name,
                            variant.name,
                            dev.profile().name
                        );
                        let measured = dev.run(compiled.kernel(), &inputs, compiled.launch());
                        let est = PlannedKernel::from_arc(compiled.kernel().clone())
                            .estimate(compiled.launch(), dev.profile());
                        match (measured, est) {
                            (Ok(m), Ok(e)) => {
                                assert_eq!(e.stats, m.stats, "stats diverge for {label}");
                                assert!(e.groups_run <= m.stats.work_groups, "{label}");
                            }
                            // The local-memory capacity check is the run's alone.
                            (Err(lift_oclsim::SimError::BadLaunch(_)), _) => continue,
                            (Err(re), Err(ee)) => {
                                assert_eq!(ee, re, "faults diverge for {label}")
                            }
                            (m, e) => {
                                panic!("{label}: run {:?} but estimate {:?}", m.err(), e.err())
                            }
                        }
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(compared >= 1000, "only {compared} launches compared");
}
