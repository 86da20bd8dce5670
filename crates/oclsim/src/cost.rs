//! Static analytical cost model: predict a kernel's [`KernelStats`] — and
//! through [`KernelStats::model_time`] its modeled runtime — for one launch
//! configuration **without the kernel's input data**.
//!
//! # Zero-data execution
//!
//! The simulator's modeled time is a pure function of the event counts the
//! executor collects (transactions, ALU ops, barriers, occupancy inputs).
//! Buffer *contents* can move those counts only through control flow
//! (branch and `?:` conditions, loop bounds and counters) and through the
//! addresses of global accesses, which feed the 128-byte coalescing
//! analysis. For the kernels Lift generates all of these are arithmetic over
//! work-item ids and sizes. So an estimate takes two steps:
//!
//! 1. a static data-dependence check over the [`Plan`] proves that no value
//!    read from a buffer reaches any of those sites;
//! 2. the plan executor (`PlanMachine` in [`crate::exec`]) runs the plan on
//!    zero-filled parameter buffers and its counters are the estimate.
//!
//! On a plan that passes the check the executor's counters cannot tell
//! zeros from real data, so the predicted [`KernelStats`] equal the measured
//! ones **bit for bit** by construction ([`CostEstimate::exact`] is always
//! `true`). There is no second interpreter to keep in step with the first.
//! The check runs once per plan, on its first estimate.
//!
//! For the same reason a zero-data run skips what only computes buffer
//! data: it makes no user-function call whose arguments read data, and it
//! computes no arithmetic, conversion or register read whose value reads
//! data. A skipped op is charged its ALU cost as a computed one is, and its
//! result is left unwritten; no counter reads it. Loads still run, for
//! their bounds checks, counters and addresses. A comparison or `min`/`max`
//! over data records nothing either (see below): its truth steers no
//! counter. One exception: when data reaches an integer divisor or a local
//! or private index, the values there are computed from zeros and can
//! fault, so such a plan skips nothing and records those sites.
//!
//! # One work-group per class
//!
//! Most work-groups of a launch repeat one another, so step 2 runs only a
//! few of them. The same fixpoint that checks data dependence also tracks
//! how each value depends on the group id. A value is *group-affine* when
//! it comes from `get_global_id`/`get_group_id` only through `+`, `-`,
//! negation, multiplication by a group-free operand, `min`/`max` and `?:`.
//! It turns *group-opaque* through a product of two group-dependent
//! operands, `/`, `%`, a conversion to `float` or a user-function call. A
//! *site* is a place where an integer can move the counters: a comparison,
//! a `min`/`max`, a loop head, a buffer index or a divisor. A plan with a
//! group-opaque value at a site, a branch or a `?:` condition is
//! *inadmissible* and takes the full zero-data run.
//!
//! On an admissible plan, fix one group `r` and the path it takes (which
//! lanes run which statement, which operand every `min`/`max` and `?:`
//! picks). Along that path every group-dependent integer is an affine
//! function of the group id. The executor's wrapping arithmetic computes it
//! modulo 2⁶⁴; as long as the affine extension stays inside `i64`, the
//! machine value *is* the affine value. So, with the recorder on, the
//! partition:
//!
//! 1. runs the first unassigned group `r` and records, per active lane,
//!    every group-dependent site's operand gap (its sign decides the
//!    comparison), every local or private index, and every global address;
//! 2. runs `r + e_d` for each grid dimension `d`. If that probe's truths
//!    differ from `r`'s, or its values do not move by one common slope per
//!    site, the box is one group wide along `d`; otherwise the probe gives
//!    each site's slope;
//! 3. grows a box from `r` along x, then y, then z, while every recorded
//!    value keeps its truth (its sign, its index range, its buffer) at the
//!    box's corners. Truth sets are intervals and values are affine, so by
//!    induction over the trace every group in the box takes `r`'s path,
//!    faults nowhere, and counts `r`'s events (a user function is taken to
//!    return the type it declares for every argument, as plan typing
//!    does);
//! 4. splits the box by address alignment. A member shares a group's
//!    transaction counts when every global access moves by a multiple of
//!    128 bytes, so members are grouped by the residues of their shifts and
//!    one representative per class runs through the `PlanMachine` group
//!    loop; its counters are weighted by the class size.
//!
//! `unique_segments` is a set union, not a sum: every member's segments
//! are `r`'s recorded addresses moved by the member's shifts, inserted into
//! one dense `SegmentSet`. The additive counters are the classes'
//! weighted sums, so the stats equal the full run's bit for bit.
//!
//! # Traces as runs
//!
//! An event stores its check, its site (the op or statement, and for an
//! address the flushing statement and access ordinal), and its active
//! lanes' values as arithmetic runs (first, step, count) in lane order,
//! split greedily. Successive events of one site, such as one loop
//! iteration after another, merge into one event with an iteration step
//! and count when their runs have the same shape and every value moves by
//! one common amount. The split depends only on successive differences, so
//! a probe whose every value is a common shift of `r`'s has `r`'s shape:
//! slopes compare shapes, the truth bands split a run at its check's edges,
//! and a run whose step is at most a segment covers one contiguous range of
//! segments, all without expanding the runs. A trace fails when it
//! outgrows its budget of stored words or an operand leaves ±2²⁹ (the
//! magnitude that keeps the affine extension inside `i64`).
//!
//! # Each group runs at most once
//!
//! A probe that does not join its box is kept until it becomes an `r`
//! itself or a class representative. A group whose trace failed, or whose
//! kept trace was dropped to stay within the kept budget, is a class of its
//! own: its counters count once, and its segments are the ones the
//! machine's own coalescing flush collected, united at the end with the
//! boxes' moved segments. So [`CostEstimate::groups_run`] never exceeds
//! the launch's groups. The estimate falls back to the full zero-data run
//! only for an inadmissible plan, for a grid with at most three groups
//! along every dimension or more than 2²⁰ along one, and when a group it
//! runs faults, so that the error is the one the full run raises first.
//!
//! # Refusal
//!
//! A plan whose control flow or global addressing reads buffer data is
//! refused with [`SimError::Estimate`], naming the site (e.g. "a branch
//! condition reads buffer data"): run on zeros, it could take the wrong arm
//! or never terminate (a loop step read from a zero buffer is 0). Faults the
//! zero-data run hits are returned as the executor raises them; on a plan
//! that passes the check, a fault at a launch-determined index or barrier
//! is the one the real run raises too.
//!
//! The estimate is a pure function of (plan, launch, warp width): no RNG,
//! no ambient state, bit-identical across thread counts and shards — the
//! property the tuner's pruning layer relies on (see ARCHITECTURE.md).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use lift_codegen::clike::{BinOp, CType, KernelParam, WorkItemFn};

use crate::device::DeviceProfile;
use crate::exec::{PlanMachine, SimError};
use crate::perf::{KernelStats, SegmentSet, SEGMENT_BYTES};
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan};
use crate::runtime::{BufferData, LaunchConfig};

/// A statically predicted [`KernelStats`], priced by the same
/// [`KernelStats::model_time`] the simulator uses.
///
/// The stats come from the class estimate (one representative work-group
/// per class of groups that provably count the same events) or, for a plan
/// the class estimate cannot partition, from a zero-data run of every
/// group. Either way they equal a real launch's stats bit for bit.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// The predicted event counts.
    pub stats: KernelStats,
    /// Whether every count provably equals what the simulator would
    /// measure. Always `true`: a plan the model cannot price exactly is
    /// refused instead (see the module docs).
    pub exact: bool,
    /// Work-groups the estimate executed, each at most once: the
    /// representatives, probes and own-class groups of the class estimate,
    /// or every group of the launch when it took the full zero-data run.
    /// Never more than [`KernelStats::work_groups`].
    pub groups_run: u64,
}

impl CostEstimate {
    /// The predicted runtime on `dev`, in seconds — the exact quantity
    /// [`crate::runtime::RunOutput::time_s`] reports for a real launch.
    pub fn time(&self, dev: &DeviceProfile) -> f64 {
        self.stats.model_time(dev)
    }
}

/// The static analysis of one plan (see the module docs), made once per
/// [`crate::PlannedKernel`] on its first estimate and kept sparse: a tuner
/// holds thousands of planned kernels.
#[derive(Debug)]
pub(crate) struct Estimator {
    /// The group-dependent sites, as (position, check) pairs of
    /// [`Plan::ecode`] and of [`Plan::code`], or `None` when a group-opaque
    /// value reaches a site and only the full run can price the plan.
    sites: Option<[Vec<(u32, Check)>; 2]>,
    /// The [`Plan::ecode`] ops that only compute buffer data, each with
    /// the [`EOp::Skip`] zero-data runs execute in its place.
    skipped: Vec<(u32, EOp)>,
}

impl Estimator {
    /// Estimates the stats of launching `plan`, the plan this analysis is
    /// of, under `cfg` with the given warp width. `params` are the kernel's
    /// global parameters in declaration order (the plan itself only stores
    /// their base addresses); the launch is already validated.
    pub(crate) fn estimate(
        &self,
        plan: &Plan,
        params: &[KernelParam],
        cfg: LaunchConfig,
        warp: usize,
    ) -> Result<CostEstimate, SimError> {
        let zeros = || -> Vec<BufferData> {
            params
                .iter()
                .map(|p| BufferData::zeros(p.elem, p.len))
                .collect()
        };
        let mut ecode = Cow::Borrowed(&plan.ecode[..]);
        for &(pc, skip) in &self.skipped {
            ecode.to_mut()[pc as usize] = skip;
        }
        if let Some([ops, insts]) = &self.sites {
            let dense = |n: usize, at: &[(u32, Check)]| {
                let mut v = vec![None; n];
                for &(pc, check) in at {
                    v[pc as usize] = Some(check);
                }
                v
            };
            let sites = Sites {
                ops: dense(plan.ecode.len(), ops),
                insts: dense(plan.code.len(), insts),
            };
            let mut buffers = zeros();
            let mut machine = PlanMachine::new(plan, &mut buffers, cfg, warp);
            machine.ecode = &ecode;
            let rec = Recorder::new(&sites, plan, params);
            if let Some((stats, groups_run)) = Classes::new(&mut machine, rec).estimate() {
                return Ok(CostEstimate {
                    stats,
                    exact: true,
                    groups_run,
                });
            }
        }
        let mut buffers = zeros();
        let mut machine = PlanMachine::new(plan, &mut buffers, cfg, warp);
        machine.ecode = &ecode;
        machine.run()?;
        Ok(CostEstimate {
            groups_run: machine.stats.work_groups,
            stats: machine.stats,
            exact: true,
        })
    }
}

// ---------------------------------------------------------------------------
// The static check: data dependence and group dependence in one fixpoint
// ---------------------------------------------------------------------------

/// How a value depends on the work-group id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Grp {
    /// The same in every group that takes the same path.
    Free,
    /// Affine in the group id along any one path.
    Affine,
    /// Anything else.
    Opaque,
}

/// One abstract value: whether it reads buffer data, its group
/// dependence, and its type.
#[derive(Debug, Clone, Copy)]
struct Val {
    data: bool,
    grp: Grp,
    ty: CType,
}

/// A group-free value of type `ty` that reads no data.
const fn free(ty: CType) -> Val {
    Val {
        data: false,
        grp: Grp::Free,
        ty,
    }
}

/// The sites a group-dependent value reaches: the ones the recorder
/// records, with the truth each must keep, by [`Plan::ecode`] and
/// [`Plan::code`] position.
pub(crate) struct Sites {
    ops: Vec<Option<Check>>,
    insts: Vec<Option<Check>>,
}

/// Runs the static check over `plan`, whose global parameters are
/// `params`.
///
/// Refuses the plan when buffer data can reach a site that steers the
/// executor's counters: an `if` condition, a loop bound or counter, a `?:`
/// condition, or the index of a global load or store. Otherwise returns
/// its group-dependent sites (none when a group-opaque value reaches a
/// site) and the bytecode zero-data runs execute.
///
/// An upward fixpoint over the scalar register rows: a row is *data* once
/// any `SetScalar` or `ForStep` writes it from an expression that loads
/// from a buffer or reads a data row, and its group dependence is the join
/// of every value written to it. Implicit flows need no tracking — with no
/// data-dependent branch there is no data-dependent control, and a group
/// takes one path through a group-dependent branch in a whole class.
pub(crate) fn analyse(plan: &Plan, params: &[KernelParam]) -> Result<Estimator, SimError> {
    let mut a = Analysis {
        plan,
        params,
        rows: vec![free(CType::Int); plan.n_rows()],
        admissible: true,
        sites: Sites {
            ops: vec![None; plan.ecode.len()],
            insts: vec![None; plan.code.len()],
        },
        skip: vec![None; plan.ecode.len()],
        faults_on_data: false,
    };
    loop {
        a.admissible = true;
        let mut changed = false;
        for (pc, inst) in plan.code.iter().enumerate() {
            match *inst {
                Inst::SetScalar {
                    row, value: src, ..
                }
                | Inst::ForStep { row, step: src, .. } => {
                    let v = a.expr(src)?;
                    let slot = &mut a.rows[plan.row_index(row)];
                    let joined = Val {
                        data: slot.data || v.data,
                        grp: slot.grp.max(v.grp),
                        ty: v.ty,
                    };
                    changed |= joined.data != slot.data || joined.grp != slot.grp;
                    *slot = joined;
                }
                Inst::Store { buf, idx, value } => {
                    let i = a.expr(idx)?;
                    if i.data {
                        if matches!(buf, BufSlot::Global { .. }) {
                            return Err(refuse("a global store index"));
                        }
                        a.faults_on_data = true;
                    }
                    a.sites.insts[pc] = a.site(i, bounds(buf));
                    // Storing data is fine; a load index or `?:` inside
                    // the value is not.
                    a.expr(value)?;
                }
                Inst::ForHead { row, bound, .. } => {
                    let b = a.expr(bound)?;
                    if b.data {
                        return Err(refuse("a loop bound"));
                    }
                    let counter = a.rows[plan.row_index(row)];
                    if counter.data {
                        return Err(refuse("a loop counter"));
                    }
                    a.sites.insts[pc] = a.site2(counter, b, Check::Below(0));
                }
                Inst::IfHead { cond, .. } => {
                    let c = a.expr(cond)?;
                    if c.data {
                        return Err(refuse("a branch condition"));
                    }
                    a.gate(c);
                }
                Inst::ElseJoin { .. } | Inst::EndIf | Inst::Barrier => {}
            }
        }
        if !changed {
            break;
        }
    }
    // A site whose value reads data records nothing: its op is skipped.
    let mut skipped = Vec::new();
    if !a.faults_on_data {
        for (pc, skip) in a.skip.iter().enumerate() {
            if let Some(skip) = *skip {
                a.sites.ops[pc] = None;
                skipped.push((pc as u32, skip));
            }
        }
    }
    let sparse = |v: &[Option<Check>]| -> Vec<(u32, Check)> {
        let at = v.iter().enumerate();
        at.filter_map(|(pc, c)| Some((pc as u32, (*c)?))).collect()
    };
    let sites = [sparse(&a.sites.ops), sparse(&a.sites.insts)];
    Ok(Estimator {
        sites: a.admissible.then_some(sites),
        skipped,
    })
}

struct Analysis<'p> {
    plan: &'p Plan,
    params: &'p [KernelParam],
    rows: Vec<Val>,
    /// Cleared when a group-opaque value reaches a site.
    admissible: bool,
    sites: Sites,
    /// What each op that only computes buffer data becomes in a zero-data
    /// run, by [`Plan::ecode`] position.
    skip: Vec<Option<EOp>>,
    /// Set when buffer data reaches an integer divisor or a local or
    /// private index.
    faults_on_data: bool,
}

impl Analysis<'_> {
    /// The check a site over `v` records, if any: `check` when `v` is
    /// group-affine. A group-opaque `v` makes the plan inadmissible.
    fn site(&mut self, v: Val, check: Option<Check>) -> Option<Check> {
        self.gate(v);
        check.filter(|_| v.grp == Grp::Affine)
    }

    /// As [`Self::site`], for a site over the gap of `a` and `b`.
    fn site2(&mut self, a: Val, b: Val, check: Check) -> Option<Check> {
        self.gate(a);
        self.gate(b);
        (a.grp.max(b.grp) == Grp::Affine).then_some(check)
    }

    /// A branch or `?:` condition: its truth follows from the comparisons
    /// recorded inside it, unless it is group-opaque.
    fn gate(&mut self, v: Val) {
        if v.grp == Grp::Opaque {
            self.admissible = false;
        }
    }

    /// The value of `er`. Refuses when data reaches a `?:` condition or a
    /// global load index inside the expression; a user-function call
    /// depends on data only through its arguments, so a call on work-item
    /// ids stays launch-determined.
    fn expr(&mut self, er: ExprRef) -> Result<Val, SimError> {
        // One value per entry of the bytecode's operand stack. A `?:`
        // leaves its then-value in place across `SelSwap`; `SelJoin` folds
        // both arms and the condition parked in `conds`.
        let mut stack: Vec<Val> = Vec::new();
        let mut conds: Vec<Grp> = Vec::new();
        // An op whose value reads data becomes `skip` in a zero-data run.
        let skip = |v: Val, argc: u8, cost: u64| {
            v.data.then_some(EOp::Skip {
                argc,
                ret: v.ty,
                cost,
            })
        };
        for pc in er.start as usize..er.end as usize {
            match self.plan.ecode[pc] {
                EOp::I(_) => stack.push(free(CType::Int)),
                EOp::F(_) => stack.push(free(CType::Float)),
                EOp::B(_) => stack.push(free(CType::Bool)),
                EOp::WorkItem(f, _) => stack.push(Val {
                    data: false,
                    grp: if matches!(f, WorkItemFn::GlobalId | WorkItemFn::GroupId) {
                        Grp::Affine
                    } else {
                        Grp::Free
                    },
                    ty: CType::Int,
                }),
                EOp::Scalar(row) => {
                    let v = Val {
                        ty: row.ty(),
                        ..self.rows[self.plan.row_index(row)]
                    };
                    self.skip[pc] = skip(v, 0, 0);
                    stack.push(v);
                }
                EOp::SelSwap => {}
                EOp::Un(_) => {
                    let v = *stack.last().expect("unary operand");
                    self.skip[pc] = skip(v, 1, 1);
                }
                EOp::Cast(t) => {
                    // A group-affine value is an int or a bool, so only a
                    // conversion to float changes it.
                    let v = stack.last_mut().expect("cast operand");
                    if t == CType::Float && v.grp == Grp::Affine {
                        v.grp = Grp::Opaque;
                    }
                    v.ty = t;
                    self.skip[pc] = skip(*v, 1, 0);
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("second operand");
                    let a = stack.pop().expect("first operand");
                    let dep = |v: Val| v.grp > Grp::Free;
                    let grp = match op {
                        BinOp::Mul if dep(a) && dep(b) => Grp::Opaque,
                        BinOp::Div | BinOp::Mod => {
                            self.faults_on_data |= b.data && b.ty == CType::Int;
                            self.sites.ops[pc] = self.site(b, Some(Check::Sign));
                            if dep(a) || dep(b) {
                                Grp::Opaque
                            } else {
                                Grp::Free
                            }
                        }
                        BinOp::Lt | BinOp::Ge => {
                            self.sites.ops[pc] = self.site2(a, b, Check::Below(0));
                            a.grp.max(b.grp)
                        }
                        BinOp::Le | BinOp::Gt => {
                            self.sites.ops[pc] = self.site2(a, b, Check::Below(1));
                            a.grp.max(b.grp)
                        }
                        BinOp::Eq | BinOp::Ne => {
                            self.sites.ops[pc] = self.site2(a, b, Check::Sign);
                            a.grp.max(b.grp)
                        }
                        BinOp::Min | BinOp::Max => {
                            // A `min`/`max` over a group-opaque operand is
                            // opaque itself; its choice matters only where
                            // the result reaches a site.
                            let grp = a.grp.max(b.grp);
                            self.sites.ops[pc] = (grp == Grp::Affine).then_some(Check::Pick);
                            grp
                        }
                        _ => a.grp.max(b.grp),
                    };
                    let v = Val {
                        data: a.data || b.data,
                        grp,
                        ty: match op {
                            BinOp::Lt
                            | BinOp::Le
                            | BinOp::Gt
                            | BinOp::Ge
                            | BinOp::Eq
                            | BinOp::Ne
                            | BinOp::And
                            | BinOp::Or => CType::Bool,
                            _ => a.ty,
                        },
                    };
                    // An integer division keeps its divisor's fault check.
                    let divides = matches!(op, BinOp::Div | BinOp::Mod) && v.ty == CType::Int;
                    self.skip[pc] = skip(v, 2, 1).filter(|_| !divides);
                    stack.push(v);
                }
                EOp::Call {
                    argc, ret, cost, ..
                }
                | EOp::Skip { argc, ret, cost } => {
                    let base = stack.len() - argc as usize;
                    let args: Vec<Val> = stack.drain(base..).collect();
                    let v = Val {
                        data: args.iter().any(|v| v.data),
                        grp: if args.iter().any(|v| v.grp > Grp::Free) {
                            Grp::Opaque
                        } else {
                            Grp::Free
                        },
                        ty: ret,
                    };
                    self.skip[pc] = skip(v, argc, cost);
                    stack.push(v);
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    let ty = match buf {
                        BufSlot::Global { slot, .. } => {
                            if idx.data {
                                return Err(refuse("a global load index"));
                            }
                            self.params[slot as usize].elem
                        }
                        BufSlot::Local { .. } | BufSlot::Priv { .. } => {
                            self.faults_on_data |= idx.data;
                            CType::Float
                        }
                    };
                    // Global addresses are recorded at every coalescing
                    // flush; local and private indices only here.
                    self.sites.ops[pc] = self.site(idx, bounds(buf));
                    stack.push(Val {
                        data: true,
                        grp: Grp::Free,
                        ty,
                    });
                }
                EOp::SelSplit => {
                    let c = stack.pop().expect("select condition");
                    if c.data {
                        return Err(refuse("a `?:` condition"));
                    }
                    self.gate(c);
                    conds.push(c.grp);
                }
                EOp::SelJoin => {
                    let e = stack.pop().expect("else value");
                    let t = stack.pop().expect("then value");
                    let c = conds.pop().expect("select condition");
                    stack.push(Val {
                        data: t.data || e.data,
                        grp: c.max(t.grp).max(e.grp),
                        ty: t.ty,
                    });
                }
            }
        }
        Ok(stack.pop().expect("expression produces a value"))
    }
}

/// The check a group-affine index into `buf` records: local and private
/// indices their bounds. Global addresses are recorded at every coalescing
/// flush instead.
fn bounds(buf: BufSlot) -> Option<Check> {
    match buf {
        BufSlot::Global { .. } => None,
        BufSlot::Local { len, .. } | BufSlot::Priv { len, .. } => Some(Check::Bounds(len)),
    }
}

fn refuse(site: &str) -> SimError {
    SimError::Estimate(format!("{site} reads buffer data"))
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// Recorded operands must stay within ±`MAG` at `r` and at every probe, so
/// every recorded value fits an `i32`; with at most `MAX_GROUPS` groups per
/// dimension, an affine extension over any box then stays within
/// `MAG + 3 · 2·MAG · MAX_GROUPS < 2⁶³`. Global addresses are recorded in
/// 4-byte words, in-bounds by construction.
const MAG: u64 = 1 << 29;
const MAX_GROUPS: usize = 1 << 20;

/// Words (4 bytes) one trace may store before it fails, and the words all
/// kept traces may store together.
const TRACE_WORDS: usize = 1 << 16;
const KEPT_WORDS: usize = 1 << 16;
const RUN_WORDS: usize = std::mem::size_of::<Run>() / 4;
const EVENT_WORDS: usize = std::mem::size_of::<Event>() / 4;

/// Words per coalescing segment.
const SEG_WORDS: i64 = SEGMENT_BYTES as i64 / 4;

/// The truth a recorded value must keep for a group to take the recorded
/// group's path. Each truth class is an interval, so a value that is
/// affine over a box keeps its class on the box once it does at the
/// corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Check {
    /// Whether it lies below the edge: the operand gap `a - b` of `a < b`
    /// and `a >= b` (edge 0), of `a <= b` and `a > b` (edge 1), and a loop
    /// head's counter minus bound (edge 0).
    Below(i64),
    /// Its sign: the gap of `==` and `!=`, or a divisor.
    Sign,
    /// The side of 0 it lies on: the gap of a `min`/`max`, which picks one
    /// operand below 0 and the other above. At 0 both picks are the same
    /// value, so a gap of 0 may join either side.
    Pick,
    /// Lying in `[0, len)`: a local or private index.
    Bounds(u32),
    /// Lying in one global buffer: a global word address.
    Addr,
}

/// Where a recorded event comes from. Successive events of one site merge
/// (see [`Recorder::push`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Site {
    /// Expression op `pc`.
    Op(usize),
    /// Statement `pc`.
    Inst(usize),
    /// Access ordinal `ord` of the loads, or the stores, that statement
    /// `pc` flushes.
    Addr { pc: usize, store: bool, ord: usize },
}

impl Site {
    fn key(self) -> u64 {
        match self {
            Site::Op(pc) => (pc as u64) << 2,
            Site::Inst(pc) => (pc as u64) << 2 | 1,
            Site::Addr { pc, store, ord } => {
                ((ord as u64) << 32 | pc as u64) << 2 | 2 | u64::from(store)
            }
        }
    }
}

/// Whether events of site `key` record global addresses.
fn is_addr(key: u64) -> bool {
    key & 2 != 0
}

/// The values `first + j·step` for `j < count`, in lane order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    first: i32,
    step: i32,
    count: u32,
}

/// One recorded evaluation of a site (by [`Site::key`]), or `iters`
/// successive ones: its runs end at `end` in [`Trace::runs`], and
/// iteration `k` holds them moved by `k · step`.
#[derive(Debug, Clone, Copy)]
struct Event {
    site: u64,
    end: u32,
    iters: u32,
    step: i32,
}

/// Everything one group's run recorded, in execution order.
#[derive(Debug, Default)]
struct Trace {
    events: Vec<Event>,
    runs: Vec<Run>,
    /// Set when an operand left ±`MAG` or the trace outgrew its budget.
    failed: bool,
}

impl Trace {
    /// The runs of event `e`.
    fn runs_of(&self, e: usize) -> &[Run] {
        let start = if e == 0 { 0 } else { self.events[e - 1].end };
        &self.runs[start as usize..self.events[e].end as usize]
    }

    /// The words the trace stores.
    fn words(&self) -> usize {
        self.events.len() * EVENT_WORDS + self.runs.len() * RUN_WORDS
    }

    /// Each event's common slope from this trace to `probe`'s, or `None`
    /// when the traces differ in shape: in their events' sites, iterations
    /// or runs, or in one event's moves. Whether the probe keeps this
    /// trace's truths is left to the bands: it sits at a corner of any box
    /// grown toward it.
    fn slopes_to(&self, probe: &Trace) -> Option<Vec<i64>> {
        if self.events.len() != probe.events.len() {
            return None;
        }
        let pairs = self.events.iter().zip(&probe.events).enumerate();
        pairs
            .map(|(e, (a, b))| {
                let (ra, rb) = (self.runs_of(e), probe.runs_of(e));
                if a.site != b.site || a.iters != b.iters || a.step != b.step {
                    return None;
                }
                if ra.len() != rb.len() {
                    return None;
                }
                let mut slope = None;
                for (x, y) in ra.iter().zip(rb) {
                    let m = i64::from(y.first) - i64::from(x.first);
                    if (x.step, x.count) != (y.step, y.count) || *slope.get_or_insert(m) != m {
                        return None;
                    }
                }
                Some(slope.unwrap_or(0))
            })
            .collect()
    }

    /// Pushes the segment of every address of event `e` moved by `rho`
    /// words, in no order and with repeats. A run whose lanes, and whose
    /// iterations, each step at most a segment covers one contiguous range
    /// of segments.
    fn segments(&self, e: usize, rho: i64, out: &mut Vec<i64>) {
        let ev = &self.events[e];
        let (t, m) = (i64::from(ev.step), i64::from(ev.iters));
        for run in self.runs_of(e) {
            let (f, s, n) = (
                i64::from(run.first) + rho,
                i64::from(run.step),
                i64::from(run.count),
            );
            let lanes = ((s * (n - 1)).min(0), (s * (n - 1)).max(0));
            if n == 1 || s.abs() <= SEG_WORDS {
                if m == 1 || t.abs() <= SEG_WORDS {
                    let (lo, hi) = hull(f, s, n, t, m);
                    out.extend(lo / SEG_WORDS..=hi / SEG_WORDS);
                } else {
                    for k in 0..m {
                        let base = f + k * t;
                        out.extend((base + lanes.0) / SEG_WORDS..=(base + lanes.1) / SEG_WORDS);
                    }
                }
            } else {
                for k in 0..m {
                    out.extend((0..n).map(|j| (f + j * s + k * t) / SEG_WORDS));
                }
            }
        }
    }
}

/// The least and greatest of `f + j·s + k·t` over `j < n`, `k < m`.
fn hull(f: i64, s: i64, n: i64, t: i64, m: i64) -> (i64, i64) {
    let (a, b) = (s * (n - 1), t * (m - 1));
    (f + a.min(0) + b.min(0), f + a.max(0) + b.max(0))
}

/// The executor's trace hook (see the module docs): `PlanMachine` calls it
/// at every site [`Sites`] marks and at every coalescing flush while a
/// class estimate runs a group.
pub(crate) struct Recorder<'s> {
    sites: &'s Sites,
    /// Each global buffer's word range `[start, end)`, ascending.
    bufs: Vec<(i64, i64)>,
    trace: Trace,
    /// Each site's latest event in `trace`, by [`Site::key`].
    latest: HashMap<u64, u32>,
}

impl<'s> Recorder<'s> {
    fn new(sites: &'s Sites, plan: &Plan, params: &[KernelParam]) -> Self {
        let bufs = plan
            .global_bases
            .iter()
            .zip(params)
            .map(|(&base, p)| ((base / 4) as i64, (base / 4 + p.len as u64) as i64))
            .collect();
        Recorder {
            sites,
            bufs,
            trace: Trace::default(),
            latest: HashMap::new(),
        }
    }

    /// Whether expression op `pc` is a site.
    pub(crate) fn op_site(&self, pc: usize) -> bool {
        self.sites.ops[pc].is_some()
    }

    /// Whether statement `pc` is a site.
    pub(crate) fn inst_site(&self, pc: usize) -> bool {
        self.sites.insts[pc].is_some()
    }

    /// The check events of site `key` record.
    fn check(&self, key: u64) -> Check {
        let site = match key & 3 {
            0 => self.sites.ops[(key >> 2) as usize],
            1 => self.sites.insts[(key >> 2) as usize],
            _ => Some(Check::Addr),
        };
        site.expect("only sites record")
    }

    /// Records `a[i] - b[i * stride]` for every active lane `i`.
    pub(crate) fn diffs(&mut self, site: Site, mask: &[bool], a: &[i64], b: &[i64], stride: usize) {
        let gaps = active(mask).map(|i| {
            let (x, y) = (a[i], b[i * stride]);
            if x.unsigned_abs() <= MAG && y.unsigned_abs() <= MAG {
                x - y
            } else {
                i64::MIN
            }
        });
        self.push(site, gaps);
    }

    /// Records `v[i * stride]` for every active lane `i`.
    pub(crate) fn values(&mut self, site: Site, mask: &[bool], v: &[i64], stride: usize) {
        let vals = active(mask).map(|i| v[i * stride]);
        self.push(
            site,
            vals.map(|x| if x.unsigned_abs() <= MAG { x } else { i64::MIN }),
        );
    }

    /// Records the pending addresses of one kind that statement `pc`
    /// flushes: one event per access ordinal, over the active lanes that
    /// made it.
    pub(crate) fn addresses(&mut self, pc: usize, store: bool, mask: &[bool], pend: &[Vec<u64>]) {
        let max_ord = pend.iter().map(Vec::len).max().unwrap_or(0);
        for ord in 0..max_ord {
            let addrs = active(mask)
                .filter_map(|i| pend[i].get(ord))
                .map(|&a| i64::try_from(a / 4).unwrap_or(i64::MIN));
            self.push(Site::Addr { pc, store, ord }, addrs);
        }
    }

    /// Records one evaluation of `site`: its lanes' values, in lane order,
    /// as greedy arithmetic runs. It joins the site's latest event as one
    /// more iteration when their runs have the same shape and every value
    /// moves by one amount, the event's step once it has two iterations.
    fn push(&mut self, site: Site, lanes: impl Iterator<Item = i64>) {
        let t = &mut self.trace;
        if t.failed {
            return;
        }
        let start = t.runs.len();
        // The run being built and its last value.
        let mut run: Option<Run> = None;
        let mut last = 0i64;
        for v in lanes {
            // `i64::MIN` marks an operand out of range.
            let Ok(first) = i32::try_from(v) else {
                t.failed = true;
                return;
            };
            let gap = v - last;
            last = v;
            match &mut run {
                Some(r) if r.count > 1 && gap == i64::from(r.step) => r.count += 1,
                Some(r) if r.count == 1 && i32::try_from(gap).is_ok() => {
                    (r.step, r.count) = (gap as i32, 2);
                }
                _ => {
                    t.runs.extend(run);
                    run = Some(Run {
                        first,
                        step: 0,
                        count: 1,
                    });
                }
            }
        }
        t.runs.extend(run);
        let key = site.key();
        if let Some(&e) = self.latest.get(&key) {
            let e = e as usize;
            let (first, new) = (t.runs_of(e), &t.runs[start..]);
            // How far every value moved since the event's first iteration.
            let moved = first
                .first()
                .zip(new.first())
                .map_or(0, |(a, b)| i64::from(b.first) - i64::from(a.first));
            let same = first.len() == new.len()
                && first.iter().zip(new).all(|(a, b)| {
                    (a.step, a.count) == (b.step, b.count)
                        && i64::from(b.first) - i64::from(a.first) == moved
                });
            let ev = &mut t.events[e];
            let step = if ev.iters == 1 {
                i32::try_from(moved).ok()
            } else {
                (moved == i64::from(ev.iters) * i64::from(ev.step)).then_some(ev.step)
            };
            if let Some(step) = step.filter(|_| same) {
                ev.iters += 1;
                ev.step = step;
                t.runs.truncate(start);
                return;
            }
        }
        self.latest.insert(key, t.events.len() as u32);
        t.events.push(Event {
            site: key,
            end: t.runs.len() as u32,
            iters: 1,
            step: 0,
        });
        if t.words() > TRACE_WORDS {
            t.failed = true;
        }
    }

    /// The trace recorded since the last call, or `None` when it failed;
    /// starts the next one.
    fn take(&mut self) -> Option<Trace> {
        self.latest.clear();
        let t = std::mem::take(&mut self.trace);
        (!t.failed).then_some(t)
    }

    /// Which truth class `v` falls in under `check`: equal classes at two
    /// groups mean equal control flow (or both in bounds of one buffer).
    fn truth(&self, check: Check, v: i64) -> i64 {
        match check {
            Check::Below(edge) => i64::from(v < edge),
            Check::Sign | Check::Pick => v.signum(),
            Check::Bounds(len) => i64::from((0..i64::from(len)).contains(&v)),
            Check::Addr => self.buffer(v).map_or(-1, |b| b as i64),
        }
    }

    /// The greatest value of the interval of values that share `v`'s truth
    /// class under `check` and start at or below `v`.
    fn top(&self, check: Check, v: i64) -> i64 {
        match check {
            Check::Below(edge) if v < edge => edge - 1,
            Check::Sign | Check::Pick if v <= 0 => {
                if v < 0 {
                    -1
                } else {
                    0
                }
            }
            Check::Bounds(len) if v < i64::from(len) => {
                if v < 0 {
                    -1
                } else {
                    i64::from(len) - 1
                }
            }
            Check::Addr => match self.buffer(v) {
                Some(b) => self.bufs[b].1 - 1,
                None => self
                    .bufs
                    .iter()
                    .map(|&(start, _)| start - 1)
                    .find(|&end| end >= v)
                    .unwrap_or(i64::MAX),
            },
            _ => i64::MAX,
        }
    }

    /// The global buffer holding word address `v`.
    fn buffer(&self, v: i64) -> Option<usize> {
        let b = self
            .bufs
            .partition_point(|&(start, _)| start <= v)
            .checked_sub(1)?;
        (v < self.bufs[b].1).then_some(b)
    }

    /// The value ranges each event's truths allow, from `r`'s trace.
    fn bands(&self, r: &Trace) -> Vec<Band> {
        let mut bands = Vec::new();
        for (e, ev) in r.events.iter().enumerate() {
            let check = self.check(ev.site);
            // Values grouped by truth class; each group keeps its own
            // allowed range.
            let mut groups: Vec<(i64, Band)> = Vec::new();
            let mut add =
                |class: i64, lo: i64, hi: i64| match groups.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, b)) => {
                        b.lo = b.lo.min(lo);
                        b.hi = b.hi.max(hi);
                    }
                    None => {
                        let (min, max) = match (check, class) {
                            (Check::Below(edge), 1) => (i64::MIN, edge - 1),
                            (Check::Below(edge), _) => (edge, i64::MAX),
                            (Check::Sign, -1) => (i64::MIN, -1),
                            (Check::Pick, -1) => (i64::MIN, 0),
                            (Check::Sign | Check::Pick, 0) => (0, 0),
                            (Check::Sign, _) => (1, i64::MAX),
                            (Check::Pick, _) => (0, i64::MAX),
                            (Check::Bounds(len), _) => (0, i64::from(len) - 1),
                            (Check::Addr, _) => {
                                let (start, end) = self.bufs[class as usize];
                                (start, end - 1)
                            }
                        };
                        let band = Band {
                            event: e as u32,
                            lo,
                            hi,
                            min,
                            max,
                            tie: check == Check::Pick && class == 0,
                        };
                        groups.push((class, band));
                    }
                };
            for run in r.runs_of(e) {
                self.split(check, ev, run, &mut add);
            }
            bands.extend(groups.into_iter().map(|(_, b)| b));
        }
        bands
    }

    /// Calls `add(class, lo, hi)` over the values of `run` in every
    /// iteration of `ev`, split by truth class. Each call's `[lo, hi]`
    /// holds every value of its class and lies inside the class.
    fn split(&self, check: Check, ev: &Event, run: &Run, add: &mut impl FnMut(i64, i64, i64)) {
        let (f, s, n) = (
            i64::from(run.first),
            i64::from(run.step),
            i64::from(run.count),
        );
        let (t, m) = (i64::from(ev.step), i64::from(ev.iters));
        let (lo, hi) = hull(f, s, n, t, m);
        if self.top(check, lo) >= hi {
            add(self.truth(check, lo), lo, hi);
        } else if n == 1 || s == 0 {
            self.split_line(check, f, t, m, add);
        } else if m == 1 || t == 0 {
            self.split_line(check, f, s, n, add);
        } else {
            for k in 0..m {
                self.split_line(check, f + k * t, s, n, add);
            }
        }
    }

    /// [`Self::split`] for the values `first + j·step`, `j < count`.
    fn split_line(
        &self,
        check: Check,
        first: i64,
        step: i64,
        count: i64,
        add: &mut impl FnMut(i64, i64, i64),
    ) {
        let (mut v, step) = if step < 0 {
            (first + step * (count - 1), -step)
        } else {
            (first, step)
        };
        let last = v + step * (count - 1);
        loop {
            let top = self.top(check, v).min(last);
            let end = if step == 0 {
                v
            } else {
                v + (top - v) / step * step
            };
            add(self.truth(check, v), v, end);
            if end >= last {
                return;
            }
            v = end + step;
        }
    }
}

/// Values of one event that share a truth class: they span `[lo, hi]` at
/// `r` and must stay within `[min, max]` over the box.
struct Band {
    event: u32,
    lo: i64,
    hi: i64,
    min: i64,
    max: i64,
    /// A `min`/`max` gap of 0 whose side the first growing dimension
    /// with a nonzero slope picks.
    tie: bool,
}

fn active(mask: &[bool]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().filter_map(|(i, &m)| m.then_some(i))
}

// ---------------------------------------------------------------------------
// The partition
// ---------------------------------------------------------------------------

/// One group's run: its counters and, while it may still start or probe a
/// box, its trace (`None` once the trace failed or was dropped).
struct Outcome {
    counters: KernelStats,
    trace: Option<Trace>,
}

impl Outcome {
    fn words(&self) -> usize {
        self.trace.as_ref().map_or(0, Trace::words)
    }
}

/// The class estimate of one launch (see the module docs).
struct Classes<'m, 'a> {
    machine: &'m mut PlanMachine<'a>,
    grid: [usize; 3],
    /// Whether each group (x fastest) already belongs to a class.
    assigned: Vec<bool>,
    /// Groups run but not yet assigned, by linear index.
    kept: BTreeMap<usize, Outcome>,
    kept_words: usize,
    runs: u64,
    segments: SegmentSet,
}

impl<'m, 'a> Classes<'m, 'a> {
    fn new(machine: &'m mut PlanMachine<'a>, rec: Recorder<'a>) -> Self {
        let grid = machine.cfg.groups();
        machine.rec = Some(rec);
        Classes {
            grid,
            assigned: vec![false; grid.iter().product()],
            kept: BTreeMap::new(),
            kept_words: 0,
            runs: 0,
            segments: SegmentSet::default(),
            machine,
        }
    }

    fn lin(&self, g: [usize; 3]) -> usize {
        g[0] + self.grid[0] * (g[1] + self.grid[1] * g[2])
    }

    fn rec(&self) -> &Recorder<'a> {
        self.machine.rec.as_ref().expect("recorder attached")
    }

    /// The launch's stats and the groups run, or `None` when the estimate
    /// must fall back to the full run.
    fn estimate(mut self) -> Option<(KernelStats, u64)> {
        let mut stats = self.machine.stats.clone();
        let total = self.assigned.len();
        // With at most three groups along every dimension, a stencil's
        // boundary handling leaves no interior group to share a class.
        let boundary: usize = self.grid.iter().map(|&n| n.min(3)).product();
        if boundary >= total || self.grid.iter().any(|&n| n > MAX_GROUPS) {
            return None;
        }
        let mut next = 0;
        loop {
            while next < total && self.assigned[next] {
                next += 1;
            }
            if next == total {
                break;
            }
            let r = [
                next % self.grid[0],
                next / self.grid[0] % self.grid[1],
                next / (self.grid[0] * self.grid[1]),
            ];
            self.grow(r, &mut stats)?;
        }
        // Own-class groups' segments are only in the machine's own set.
        self.segments.union_with(&self.machine.stats.seen_segments);
        stats.unique_segments = self.segments.len();
        Some((stats, self.runs))
    }

    /// Runs group `g`, with the recorder on when its trace is wanted, or
    /// returns its kept run; `None` on a fault.
    fn run(&mut self, g: [usize; 3], record: bool) -> Option<Outcome> {
        if let Some(run) = self.kept.remove(&self.lin(g)) {
            self.kept_words -= run.words();
            return Some(run);
        }
        self.runs += 1;
        let rec = if record {
            None
        } else {
            self.machine.rec.take()
        };
        let ran = self.machine.run_group(g);
        self.machine.rec = self.machine.rec.take().or(rec);
        ran.ok()?;
        let counters = self.machine.stats.take_counters();
        let trace = self.machine.rec.as_mut().expect("recorder attached").take();
        Some(Outcome {
            counters,
            trace: trace.filter(|_| record),
        })
    }

    /// Keeps `run` of group `g` for a later box. Over the budget, the
    /// traces of the runs furthest ahead in scan order, which boxes reach
    /// last, are dropped first; their counters stay.
    fn keep(&mut self, g: [usize; 3], run: Outcome) {
        self.kept_words += run.words();
        let key = self.lin(g);
        self.kept.insert(key, run);
        for kept in self.kept.values_mut().rev() {
            if self.kept_words <= KEPT_WORDS {
                break;
            }
            if let Some(t) = kept.trace.take() {
                self.kept_words -= t.words();
            }
        }
    }

    /// Builds the box that starts at `r`, adds its classes' counters to
    /// `stats` and its segments to the union, and marks it assigned. A
    /// root without a trace is a class of its own.
    fn grow(&mut self, r: [usize; 3], stats: &mut KernelStats) -> Option<()> {
        let root = self.run(r, true)?;
        let Some(trace) = &root.trace else {
            stats.add_counters(&root.counters, 1);
            let i = self.lin(r);
            self.assigned[i] = true;
            return Some(());
        };
        // Probe each direction the box could grow in.
        let mut slopes: [Option<Vec<i64>>; 3] = [None, None, None];
        let mut probes: [Option<KernelStats>; 3] = [None, None, None];
        for d in 0..3 {
            let mut p = r;
            p[d] += 1;
            if p[d] == self.grid[d] || self.assigned[self.lin(p)] {
                continue;
            }
            let run = self.run(p, true)?;
            slopes[d] = run.trace.as_ref().and_then(|t| trace.slopes_to(t));
            probes[d] = Some(run.counters.clone());
            self.keep(p, run);
        }
        let ext = self.extent(r, trace, &slopes);
        let moves = address_moves(trace, &slopes, ext);

        // Members whose shifts leave the same residues modulo a segment
        // share transaction counts: one class per distinct residue vector,
        // priced by its first member.
        let period: [usize; 3] = std::array::from_fn(|d| {
            let g = moves
                .iter()
                .fold(SEG_WORDS, |g, (s, _)| gcd(g, s[d].rem_euclid(SEG_WORDS)));
            (SEG_WORDS / g) as usize
        });
        let span: [usize; 3] = std::array::from_fn(|d| period[d].min(ext[d]));
        let mut classes: Vec<([usize; 3], u64)> = Vec::new();
        let mut by_key: HashMap<Vec<i64>, usize> = HashMap::new();
        for c in cells(span) {
            let key = moves
                .iter()
                .map(|(s, _)| dot(s, c).rem_euclid(SEG_WORDS))
                .collect();
            let size: u64 = (0..3)
                .map(|d| ((ext[d] - 1 - c[d]) / period[d] + 1) as u64)
                .product();
            let class = *by_key.entry(key).or_insert_with(|| {
                classes.push((c, 0));
                classes.len() - 1
            });
            classes[class].1 += size;
        }
        for (c, size) in classes {
            let counters = match c.iter().position(|&x| x > 0) {
                None => root.counters.clone(),
                Some(d) if c[d] == 1 && c.iter().sum::<usize>() == 1 => probes[d]
                    .clone()
                    .expect("a box that grew along d has its probe"),
                Some(_) => {
                    self.run(std::array::from_fn(|d| r[d] + c[d]), false)?
                        .counters
                }
            };
            stats.add_counters(&counters, size);
        }

        for (sigma, events) in &moves {
            self.add_segments(trace, sigma, events, ext);
        }
        for o in cells(ext) {
            let i = self.lin(std::array::from_fn(|d| r[d] + o[d]));
            self.assigned[i] = true;
            if let Some(run) = self.kept.remove(&i) {
                self.kept_words -= run.words();
            }
        }
        Some(())
    }

    /// The box's extent from `r`: grown along x, then y, then z (where a
    /// probe gave slopes) while every band keeps its truth at the box's
    /// corners. `off` is each event's offset range over the box so far.
    fn extent(&self, r: [usize; 3], trace: &Trace, slopes: &[Option<Vec<i64>>; 3]) -> [usize; 3] {
        let mut bands = self.rec().bands(trace);
        let mut off = vec![(0i128, 0i128); trace.events.len()];
        let mut ext = [1usize; 3];
        for d in 0..3 {
            let Some(s) = &slopes[d] else { continue };
            let mut k = (self.grid[d] - r[d] - 1) as i128;
            for b in &mut bands {
                let e = b.event as usize;
                if b.tie && s[e] != 0 {
                    b.tie = false;
                    if s[e] > 0 {
                        b.max = i64::MAX;
                    } else {
                        b.min = i64::MIN;
                    }
                }
                let slope = i128::from(s[e]);
                let (lo, hi) = off[e];
                if slope > 0 {
                    k = k.min((i128::from(b.max) - i128::from(b.hi) - hi) / slope);
                } else if slope < 0 {
                    k = k.min((i128::from(b.lo) + lo - i128::from(b.min)) / -slope);
                }
            }
            let k = self.room(r, ext, d, k.max(0) as usize);
            ext[d] = k + 1;
            for (o, &slope) in off.iter_mut().zip(s) {
                let step = i128::from(slope) * k as i128;
                o.0 += step.min(0);
                o.1 += step.max(0);
            }
        }
        ext
    }

    /// Adds every box member's segments for the address `events` that
    /// move by `sigma` words per group: `r`'s addresses shifted by the
    /// member's offset. Members whose shifts share a residue modulo a
    /// segment share one sorted segment list, moved by whole segments.
    fn add_segments(&mut self, trace: &Trace, sigma: &[i64; 3], events: &[usize], ext: [usize; 3]) {
        let reach: [usize; 3] = std::array::from_fn(|d| if sigma[d] != 0 { ext[d] } else { 1 });
        let mut by_residue: HashMap<i64, Vec<i64>> = HashMap::new();
        for o in cells(reach) {
            let t = dot(sigma, o);
            let rho = t.rem_euclid(SEG_WORDS);
            let segs = by_residue.entry(rho).or_insert_with(|| {
                let mut s = Vec::new();
                for &e in events {
                    trace.segments(e, rho, &mut s);
                }
                s.sort_unstable();
                s.dedup();
                s
            });
            let shift = (t - rho) / SEG_WORDS;
            for &s in segs.iter() {
                self.segments.insert((s + shift) as u64);
            }
        }
    }

    /// How many groups past `r`, up to `limit`, the box (of extent `ext`
    /// so far) can reach along `d` before an assigned group blocks it.
    fn room(&self, r: [usize; 3], ext: [usize; 3], d: usize, limit: usize) -> usize {
        let mut k = 0;
        while k < limit {
            let mut face = ext;
            face[d] = 1;
            let blocked = cells(face).any(|o| {
                let mut g: [usize; 3] = std::array::from_fn(|i| r[i] + o[i]);
                g[d] += k + 1;
                self.assigned[self.lin(g)]
            });
            if blocked {
                break;
            }
            k += 1;
        }
        k
    }
}

/// The address events of `trace`, grouped by their slope vectors over the
/// box's dimensions (zero along a dimension the box does not span).
fn address_moves(
    trace: &Trace,
    slopes: &[Option<Vec<i64>>; 3],
    ext: [usize; 3],
) -> Vec<([i64; 3], Vec<usize>)> {
    let mut moves: Vec<([i64; 3], Vec<usize>)> = Vec::new();
    for (e, ev) in trace.events.iter().enumerate() {
        if !is_addr(ev.site) {
            continue;
        }
        let sigma: [i64; 3] = std::array::from_fn(|d| match &slopes[d] {
            Some(s) if ext[d] > 1 => s[e],
            _ => 0,
        });
        match moves.iter_mut().find(|(s, _)| *s == sigma) {
            Some((_, events)) => events.push(e),
            None => moves.push((sigma, vec![e])),
        }
    }
    moves
}

/// Every offset in `[0, n[0]) × [0, n[1]) × [0, n[2])`, x fastest.
fn cells(n: [usize; 3]) -> impl Iterator<Item = [usize; 3]> {
    (0..n[2]).flat_map(move |z| (0..n[1]).flat_map(move |y| (0..n[0]).map(move |x| [x, y, z])))
}

fn dot(s: &[i64; 3], o: [usize; 3]) -> i64 {
    (0..3).map(|d| s[d] * o[d] as i64).sum()
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
