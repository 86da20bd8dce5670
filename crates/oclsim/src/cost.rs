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
//! 2. carries, through that same run, each group-affine integer's
//!    *tangent*: how far it moves when the group id moves by one along x,
//!    y and z (see below). Every recorded value gets the tangent its lanes
//!    share as its slope; a dimension along which they move apart is
//!    *mixed*, and the box stays one group wide along it;
//! 3. grows a box from `r` along x, then y, then z, while every recorded
//!    value keeps its truth (its sign, its index range, its buffer) at the
//!    box's corners. Truth sets are intervals and values are affine, so by
//!    induction over the trace every group in the box takes `r`'s path,
//!    faults nowhere, and counts `r`'s events (a user function returns the
//!    type it declares for every argument: [`UserFun::new`] refuses any
//!    other body);
//! 4. prices the box from `r`'s run alone. Every member counts `r`'s events
//!    except its transactions, which depend on where its addresses fall. A
//!    member's addresses are `r`'s moved by its shifts, so members whose
//!    shifts leave the same residues modulo a 128-byte segment share
//!    transaction counts. Each such class's counts are the coalescing
//!    flush's count over `r`'s recorded addresses moved by the class's
//!    residues: per warp and access ordinal, the distinct segments its
//!    active lanes touch. They are weighted by the class size.
//!
//! `unique_segments` is a set union, not a sum: every member's segments
//! are `r`'s recorded addresses moved by the member's shifts, inserted into
//! one dense `SegmentSet`. The additive counters are the classes'
//! weighted sums, so the stats equal the full run's bit for bit.
//!
//! # Tangents
//!
//! `get_global_id(d)` has tangent `local_size(d)` along `d`, and
//! `get_group_id(d)` tangent 1; literals, local ids, sizes, loads and calls
//! have tangent 0. `+`, `-` and negation add, subtract and negate
//! tangents, and a product with a group-free factor scales them by it. A
//! `min`/`max` takes its picked operand's tangent, and at a tie the
//! componentwise `min` (`max`) of both: along each dimension that is the
//! side a group beyond the tie picks. A `?:` takes each lane's arm, and a
//! register keeps the tangent its lanes were last written with. A value
//! whose active lanes pick, or select, operands that move differently
//! keeps the tangent they share and is mixed where they differ: no value
//! recorded from it can have a slope there. The analysis marks which ops
//! and registers are group-affine; only those carry tangents, so a group
//! that carries none, and every run with the recorder off, does no tangent
//! work.
//!
//! Tangents are exact, not measured: `+`, `-`, negation and scaling are
//! ring operations modulo 2⁶⁴, so along `r`'s path a value at any group
//! `g` is `v + t · (g - r)` modulo 2⁶⁴, where `v` is its value at `r` and
//! `t` its tangent. A recorded value keeps its operands within ±2²⁹ at `r`
//! and their slopes within ±2³⁰ (a larger one is mixed), so over any box
//! the affine value stays inside `i64` and equals the machine's. The bands
//! prove that every member takes `r`'s path, and the slope is the
//! derivative along that path, so no second run has to show that a
//! neighbour takes the same path before its slope can be trusted.
//!
//! # Traces
//!
//! A global access event stores its site (the flushing statement, load or
//! store, and access ordinal), its slope, and its active lanes' addresses
//! as arithmetic runs (first, step, count) in lane order, split greedily
//! and at warp edges, each with its warp. Successive flushes of one site,
//! such as one loop iteration after another, merge into one event with an
//! iteration step and count when their runs have the same shape, every
//! address moves by one common amount and the slopes agree. A run whose
//! step is at most a segment covers one contiguous range of segments,
//! without expanding the run. Every other site keeps, per slope, only the
//! least and the greatest value of each truth class, which is all its
//! bands need. A trace fails when it outgrows its budget of stored words
//! or an operand leaves ±2²⁹.
//!
//! # One run per box
//!
//! A class estimate runs each box's root and nothing else: no group runs
//! twice, and none runs only to measure. A root whose trace failed is a
//! class of its own: its counters count once, and its segments are the ones
//! the machine's own coalescing flush collected, united at the end with the
//! boxes' moved segments. So [`CostEstimate::groups_run`] is the number of
//! boxes plus such own-class groups, and never exceeds the launch's groups.
//! The estimate falls back to the full zero-data run only for an
//! inadmissible plan, for a grid with at most three groups along every
//! dimension or more than 2²⁰ along one, for a work-group of more than
//! 2¹⁶ - 1 lanes, and when a group it runs faults, so that the error is
//! the one the full run raises first.
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
//!
//! [`UserFun::new`]: lift_core::userfun::UserFun::new

use std::borrow::Cow;
use std::collections::HashMap;

use lift_codegen::clike::{BinOp, CType, KernelParam, WorkItemFn};

use crate::device::DeviceProfile;
use crate::exec::{Operand, PlanMachine, SimError};
use crate::perf::{KernelStats, SegmentSet, SEGMENT_BYTES};
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan, Row};
use crate::runtime::{BufferData, LaunchConfig};

/// A statically predicted [`KernelStats`], priced by the same
/// [`KernelStats::model_time`] the simulator uses.
///
/// The stats come from the class estimate (one recorded work-group per box
/// of groups that provably take the same path) or, for a plan the class
/// estimate cannot partition, from a zero-data run of every group. Either
/// way they equal a real launch's stats bit for bit.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// The predicted event counts.
    pub stats: KernelStats,
    /// Whether every count provably equals what the simulator would
    /// measure. Always `true`: a plan the model cannot price exactly is
    /// refused instead (see the module docs).
    pub exact: bool,
    /// Work-groups the estimate executed, each once: one root per box and
    /// every group whose trace failed (a class of its own) for the class
    /// estimate, or every group of the launch when it took the full
    /// zero-data run. Never more than [`KernelStats::work_groups`].
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
    /// The group-dependent sites and tangent carriers, or `None` when a
    /// group-opaque value reaches a site and only the full run can price
    /// the plan.
    sites: Option<Sparse>,
    /// The [`Plan::ecode`] ops that only compute buffer data, each with
    /// the [`EOp::Skip`] zero-data runs execute in its place.
    skipped: Vec<(u32, EOp)>,
}

impl Estimator {
    /// Whether zero-data runs skip [`Plan::ecode`] op `pc`.
    pub(crate) fn skips(&self, pc: usize) -> bool {
        self.skipped.iter().any(|&(at, _)| at as usize == pc)
    }

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
        // A run of a trace counts at most `u16::MAX` lanes.
        let lanes = cfg.local.iter().product::<usize>();
        if let Some(sparse) = self
            .sites
            .as_ref()
            .filter(|_| lanes <= usize::from(u16::MAX))
        {
            let sites = sparse.dense(plan);
            let mut buffers = zeros();
            let mut machine = PlanMachine::new(plan, &mut buffers, cfg, warp);
            machine.ecode = &ecode;
            let rec = Recorder::new(&sites, plan, params, cfg, warp);
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
/// [`Plan::code`] position; and where tangents flow.
pub(crate) struct Sites {
    ops: Vec<Option<Check>>,
    insts: Vec<Option<Check>>,
    /// What each [`Plan::ecode`] op does with tangents.
    carry: Vec<Carry>,
    /// Whether each int register row carries tangents.
    rows: Vec<bool>,
}

/// What the recorder does with tangents at one expression op. Only
/// group-affine ints carry them: a group-free value's tangent is 0, and a
/// group-opaque one reaches no site of an admissible plan.
#[derive(Debug, Clone, Copy, Default)]
struct Carry {
    /// Whether [`Recorder::op`] runs at this op: it records a site, queues
    /// a global access, or changes the tangents on the stack. `x + c`,
    /// `c + x`, `x - c` and a cast of an int to int leave `x`'s in place.
    hook: bool,
    /// Whether its operands carry tangents: `a` the first of two (a
    /// `?:`'s then-value), `b` the last or only one.
    a: bool,
    b: bool,
    /// How many of its operands carry tangents.
    pops: u8,
    /// Whether its result carries one.
    out: bool,
}

/// [`Sites`] as the [`Estimator`] keeps them: by position, only where
/// set.
#[derive(Debug)]
struct Sparse {
    ops: Vec<(u32, Check)>,
    insts: Vec<(u32, Check)>,
    carry: Vec<(u32, Carry)>,
    rows: Vec<u32>,
}

impl Sparse {
    fn new(sites: &Sites) -> Sparse {
        let at = |v: &[Option<Check>]| -> Vec<(u32, Check)> {
            let at = v.iter().enumerate();
            at.filter_map(|(pc, c)| Some((pc as u32, (*c)?))).collect()
        };
        let carry = sites.carry.iter().enumerate();
        let rows = sites.rows.iter().enumerate();
        Sparse {
            ops: at(&sites.ops),
            insts: at(&sites.insts),
            carry: carry
                .filter(|(_, c)| c.hook || c.out)
                .map(|(pc, c)| (pc as u32, *c))
                .collect(),
            rows: rows.filter(|(_, &r)| r).map(|(r, _)| r as u32).collect(),
        }
    }

    fn dense(&self, plan: &Plan) -> Sites {
        let mut sites = Sites::new(plan);
        for &(pc, check) in &self.ops {
            sites.ops[pc as usize] = Some(check);
        }
        for &(pc, check) in &self.insts {
            sites.insts[pc as usize] = Some(check);
        }
        for &(pc, carry) in &self.carry {
            sites.carry[pc as usize] = carry;
        }
        for &r in &self.rows {
            sites.rows[r as usize] = true;
        }
        sites
    }
}

impl Sites {
    fn new(plan: &Plan) -> Sites {
        Sites {
            ops: vec![None; plan.ecode.len()],
            insts: vec![None; plan.code.len()],
            carry: vec![Carry::default(); plan.ecode.len()],
            rows: vec![false; plan.n_int_rows],
        }
    }
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
        sites: Sites::new(plan),
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
    // A site whose value reads data records nothing: its op is skipped,
    // and its result's tangent is unknown.
    let mut skipped = Vec::new();
    if !a.faults_on_data {
        for (pc, skip) in a.skip.iter().enumerate() {
            if let Some(skip) = *skip {
                a.sites.ops[pc] = None;
                let c = &mut a.sites.carry[pc];
                c.hook = c.pops > 0 || c.out;
                skipped.push((pc as u32, skip));
            }
        }
    }
    for (r, v) in a.rows[..plan.n_int_rows].iter().enumerate() {
        a.sites.rows[r] = v.grp == Grp::Affine;
    }
    Ok(Estimator {
        sites: a.admissible.then(|| Sparse::new(&a.sites)),
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
        let carried = |v: &Val| v.grp == Grp::Affine && v.ty == CType::Int;
        for pc in er.start as usize..er.end as usize {
            // The operands the op consumes, as the stack stands before it.
            let depth = stack.len();
            let arg = |k: usize| depth >= k && carried(&stack[depth - k]);
            let (a_in, b_in) = match self.plan.ecode[pc] {
                EOp::Bin(_) | EOp::SelJoin => (arg(2), arg(1)),
                EOp::Un(_) | EOp::Cast(_) | EOp::Load(_) => (false, arg(1)),
                _ => (false, false),
            };
            let pops = match self.plan.ecode[pc] {
                EOp::Call { argc, .. } | EOp::Skip { argc, .. } => {
                    let args = &stack[depth - argc as usize..];
                    args.iter().filter(|v| carried(v)).count() as u8
                }
                _ => u8::from(a_in) + u8::from(b_in),
            };
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
            let produces = !matches!(self.plan.ecode[pc], EOp::SelSplit | EOp::SelSwap);
            let out = produces && stack.last().is_some_and(carried);
            // Whether the result's tangent is its one carried operand's (or
            // neither carries one).
            let kept = match self.plan.ecode[pc] {
                EOp::Bin(BinOp::Add) => out && a_in != b_in,
                EOp::Bin(BinOp::Sub) => out && a_in && !b_in,
                EOp::Cast(_) => b_in == out,
                _ => false,
            };
            let global = matches!(self.plan.ecode[pc], EOp::Load(BufSlot::Global { .. }));
            let site = self.sites.ops[pc].is_some();
            self.sites.carry[pc] = Carry {
                hook: site || global || (!kept && (pops > 0 || out)),
                a: a_in,
                b: b_in,
                pops,
                out,
            };
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

/// Recorded operands must stay within ±`MAG` at `r`, and their moves per
/// group within ±2·`MAG`, so every recorded value and slope fits an `i32`;
/// with at most `MAX_GROUPS` groups per dimension, an affine extension
/// over any box then stays within `MAG + 3 · 2·MAG · MAX_GROUPS < 2⁶³`.
/// Global addresses are recorded in 4-byte words, in-bounds by
/// construction.
const MAG: u64 = 1 << 29;
const MAX_GROUPS: usize = 1 << 20;

/// Words (4 bytes) one trace may store before it fails.
const TRACE_WORDS: usize = 1 << 16;
const RUN_WORDS: usize = std::mem::size_of::<Run>() / 4;
const EVENT_WORDS: usize = std::mem::size_of::<Event>() / 4;
const SUMMARY_WORDS: usize = std::mem::size_of::<Summary>() / 4;

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

/// Where a recorded value comes from: the key of its [`Summary`] or, for
/// a global access, of its [`Event`], whose successive flushes merge (see
/// [`Recorder::push`]).
#[derive(Debug, Clone, Copy)]
enum Site {
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

/// Whether the accesses of address site `key` are stores.
fn is_store(key: u64) -> bool {
    key & 3 == 3
}

/// How far a value moves when the group id moves by one along x, y and z,
/// along the path the recorded group takes: its tangent. Computed modulo
/// 2⁶⁴, as the machine computes values; `MIX` in a dimension where it is
/// unknown (a product of two group-dependent values).
type Tan = [i64; 3];
const MIX: i64 = i64::MIN;
const FLAT: Tan = [0; 3];

/// The tangents of one value: one shared by every lane, or one per lane.
#[derive(Debug, Clone)]
enum Tans {
    All(Tan),
    Each(Vec<Tan>),
}

impl Tans {
    fn lane(&self, i: usize) -> Tan {
        match self {
            Tans::All(t) => *t,
            Tans::Each(v) => v[i],
        }
    }
}

fn add(a: Tan, b: Tan) -> Tan {
    std::array::from_fn(|d| match (a[d], b[d]) {
        (MIX, _) | (_, MIX) => MIX,
        (x, y) => x.wrapping_add(y),
    })
}

fn neg(a: Tan) -> Tan {
    a.map(|x| if x == MIX { MIX } else { x.wrapping_neg() })
}

fn sub(a: Tan, b: Tan) -> Tan {
    add(a, neg(b))
}

/// `a` times a group-free factor `f`.
fn scale(a: Tan, f: i64) -> Tan {
    a.map(|x| match x {
        _ if f == 0 => 0,
        MIX => MIX,
        x => x.wrapping_mul(f),
    })
}

/// `a` where `b` agrees with it, `MIX` elsewhere.
fn meet(a: Tan, b: Tan) -> Tan {
    std::array::from_fn(|d| if a[d] == b[d] { a[d] } else { MIX })
}

/// The tangent of a `min` (or `max`) at a tie of operands with tangents
/// `a` and `b`: whichever side a group beyond the tie picks along each
/// dimension moves by the lesser (greater) tangent.
fn tie(a: Tan, b: Tan, max: bool) -> Tan {
    std::array::from_fn(|d| match (a[d], b[d]) {
        (MIX, _) | (_, MIX) => MIX,
        (x, y) if max => x.max(y),
        (x, y) => x.min(y),
    })
}

/// `a` with every component beyond ±2·`MAG` mixed.
fn bounded(a: Tan) -> Tan {
    a.map(|x| if x.unsigned_abs() <= 2 * MAG { x } else { MIX })
}

/// An event's move per group along x, y and z: the tangent all its lanes
/// and iterations share, `MIXED` where they differ or move beyond ±2·`MAG`.
type Slope = [i32; 3];
const MIXED: i32 = i32::MIN;

fn slope(t: Tan) -> Slope {
    bounded(t).map(|x| if x == MIX { MIXED } else { x as i32 })
}

/// The addresses `first + j·step` for `j < count`, of successive active
/// lanes of warp `warp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    first: i32,
    step: i32,
    count: u16,
    warp: u16,
}

/// One recorded flush of a global access site (by [`Site::key`]), or
/// `iters` successive ones: its runs end at `end` in [`Trace::runs`],
/// iteration `k` holds them moved by `k · step`, and every address moves
/// by `slope` per group.
#[derive(Debug, Clone, Copy)]
struct Event {
    site: u64,
    end: u32,
    iters: u32,
    step: i32,
    slope: Slope,
}

/// The values one site other than a global access recorded moving by one
/// slope, by truth class: the least and the greatest value of class `c`
/// (see [`Recorder::truth`]) at `classes[c + 1]`, empty when the least
/// exceeds the greatest.
#[derive(Debug, Clone, Copy)]
struct Summary {
    site: u64,
    slope: Slope,
    classes: [(i64, i64); 3],
}

/// Everything one group's run recorded: its global accesses in execution
/// order, and every other site's values as summaries.
#[derive(Debug, Default)]
struct Trace {
    events: Vec<Event>,
    runs: Vec<Run>,
    summaries: Vec<Summary>,
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
        self.events.len() * EVENT_WORDS
            + self.runs.len() * RUN_WORDS
            + self.summaries.len() * SUMMARY_WORDS
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

    /// The load and the store transactions the address `events` count when
    /// every address moves by `rho` words (`0 ≤ rho <` a segment): per
    /// iteration, warp and event, the distinct segments its lanes touch,
    /// as the coalescing flush counts them. Iteration `k`'s count depends
    /// only on its residue `rho + k·step` modulo a segment, which cycles.
    fn transactions(&self, events: &[usize], rho: i64, spans: &mut Vec<(i64, i64)>) -> [u64; 2] {
        let mut out = [0; 2];
        for &e in events {
            let ev = &self.events[e];
            let (t, m) = (i64::from(ev.step), i64::from(ev.iters));
            let period = SEG_WORDS / gcd(SEG_WORDS, t.rem_euclid(SEG_WORDS));
            for k in 0..m.min(period) {
                let times = ((m - k + period - 1) / period) as u64;
                let residue = (rho + k * t).rem_euclid(SEG_WORDS);
                out[usize::from(is_store(ev.site))] +=
                    times * self.warp_segments(e, residue, spans);
            }
        }
        out
    }

    /// The distinct segments each warp's lanes touch in event `e`'s first
    /// iteration, every address moved by `rho` words, summed over warps.
    fn warp_segments(&self, e: usize, rho: i64, spans: &mut Vec<(i64, i64)>) -> u64 {
        let mut total = 0;
        for warp in self.runs_of(e).chunk_by(|a, b| a.warp == b.warp) {
            spans.clear();
            for run in warp {
                let (f, s, n) = (
                    i64::from(run.first) + rho,
                    i64::from(run.step),
                    i64::from(run.count),
                );
                if n == 1 || s.abs() <= SEG_WORDS {
                    let (lo, hi) = hull(f, s, n, 0, 1);
                    spans.push((lo / SEG_WORDS, hi / SEG_WORDS));
                } else {
                    spans
                        .extend((0..n).map(|j| ((f + j * s) / SEG_WORDS, (f + j * s) / SEG_WORDS)));
                }
            }
            spans.sort_unstable();
            let (mut lo, mut hi) = spans[0];
            for &(l, h) in &spans[1..] {
                if l > hi {
                    total += (hi - lo + 1) as u64;
                    lo = l;
                }
                hi = hi.max(h);
            }
            total += (hi - lo + 1) as u64;
        }
        total
    }
}

/// The least and the greatest of `v[i·stride]` over the active lanes `i`
/// of `mask` (`i64::MAX` and `i64::MIN` when there are none).
fn lane_range(mask: &[bool], (v, stride): (&[i64], usize)) -> (i64, i64) {
    let none = (i64::MAX, i64::MIN);
    if stride == 0 {
        return if mask.contains(&true) {
            (v[0], v[0])
        } else {
            none
        };
    }
    let lanes = v[..mask.len()].iter().zip(mask);
    lanes.fold(
        none,
        |(lo, hi), (&x, &m)| {
            if m {
                (lo.min(x), hi.max(x))
            } else {
                (lo, hi)
            }
        },
    )
}

/// The least and the greatest of `a[i·sa] - b[i·sb]` over the active lanes
/// `i` of `mask`, and the operands' greatest magnitude there.
fn gap_range(
    mask: &[bool],
    (a, sa): (&[i64], usize),
    (b, sb): (&[i64], usize),
) -> ((i64, i64), u64) {
    let mag = |(lo, hi): (i64, i64)| lo.unsigned_abs().max(hi.unsigned_abs());
    if sa == 0 || sb == 0 {
        // Only one operand moves across lanes.
        let (xs, ys) = (lane_range(mask, (a, sa)), lane_range(mask, (b, sb)));
        if xs.0 > xs.1 {
            return (xs, 0);
        }
        let gaps = (xs.0.wrapping_sub(ys.1), xs.1.wrapping_sub(ys.0));
        return (gaps, mag(xs).max(mag(ys)));
    }
    let lanes = a[..mask.len()].iter().zip(&b[..mask.len()]).zip(mask);
    let (lo, hi, m) = lanes.fold((i64::MAX, i64::MIN, 0), |(lo, hi, m), ((&x, &y), &on)| {
        if on {
            let g = x.wrapping_sub(y);
            (
                lo.min(g),
                hi.max(g),
                m.max(x.unsigned_abs()).max(y.unsigned_abs()),
            )
        } else {
            (lo, hi, m)
        }
    });
    ((lo, hi), m)
}

/// The least and greatest of `f + j·s + k·t` over `j < n`, `k < m`.
fn hull(f: i64, s: i64, n: i64, t: i64, m: i64) -> (i64, i64) {
    let (a, b) = (s * (n - 1), t * (m - 1));
    (f + a.min(0) + b.min(0), f + a.max(0) + b.max(0))
}

/// The executor's trace hook (see the module docs): `PlanMachine` calls it
/// at every expression op, every statement and every coalescing flush
/// while a class estimate runs a group. It records the sites [`Sites`]
/// marks, and carries every integer's tangents from op to op so that each
/// event holds its own slope.
pub(crate) struct Recorder<'s> {
    sites: &'s Sites,
    /// Each global buffer's word range `[start, end)`, ascending.
    bufs: Vec<(i64, i64)>,
    trace: Trace,
    /// Each address site's latest event in `trace`, by [`Site::key`], and
    /// every other site's summary for each slope.
    latest: HashMap<u64, u32>,
    summaries: HashMap<(u64, Slope), u32>,
    /// Lanes per group and per warp, and the group's size along x, y, z.
    lanes: usize,
    warp: usize,
    local: [usize; 3],
    /// The tangents of the evaluator's operand stack, in step with it.
    stack: Vec<Tans>,
    /// Each int register row's tangents, as its lanes were last written.
    rows: Vec<Tans>,
    /// The global loads (0) and stores (1) queued since the last flush,
    /// by access ordinal, and how many each lane has queued.
    queued: [Vec<Queued>; 2],
    counts: [Vec<u16>; 2],
    /// The addresses, and their lanes' warps, of the flush being pushed.
    vals: Vec<i64>,
    warps: Vec<u16>,
}

/// The global accesses of one kind and ordinal queued since the last
/// flush: each lane's word address (-1 where it made none) and the tangent
/// the lanes share.
#[derive(Clone)]
struct Queued {
    addrs: Vec<i64>,
    tan: Option<Tan>,
}

impl<'s> Recorder<'s> {
    fn new(
        sites: &'s Sites,
        plan: &Plan,
        params: &[KernelParam],
        cfg: LaunchConfig,
        warp: usize,
    ) -> Self {
        let bufs = plan
            .global_bases
            .iter()
            .zip(params)
            .map(|(&base, p)| ((base / 4) as i64, (base / 4 + p.len as u64) as i64))
            .collect();
        let lanes = cfg.local.iter().product();
        Recorder {
            sites,
            bufs,
            trace: Trace::default(),
            latest: HashMap::new(),
            summaries: HashMap::new(),
            lanes,
            warp: warp.max(1),
            local: cfg.local,
            stack: Vec::new(),
            rows: vec![Tans::All(FLAT); plan.n_int_rows],
            queued: [Vec::new(), Vec::new()],
            counts: [vec![0; lanes], vec![0; lanes]],
            vals: Vec::with_capacity(lanes),
            warps: Vec::with_capacity(lanes),
        }
    }

    /// The truth the values of site `key` must keep.
    fn check(&self, key: u64) -> Check {
        let site = match key & 3 {
            0 => self.sites.ops[(key >> 2) as usize],
            1 => self.sites.insts[(key >> 2) as usize],
            _ => Some(Check::Addr),
        };
        site.expect("only sites record")
    }

    fn pop(&mut self) -> Tans {
        self.stack.pop().expect("an operand's tangents")
    }

    /// Whether [`Self::op`] runs at expression op `pc`.
    pub(crate) fn hooks(&self, pc: usize) -> bool {
        self.sites.carry[pc].hook
    }

    /// Carries tangents through expression op `pc` and records it when it
    /// is a site, before it runs. `op` is what runs there (an
    /// [`EOp::Skip`] in place of an op that only computes buffer data),
    /// `stack` holds its operands, `mask` is the lanes it runs on, `then`
    /// the innermost `?:`'s then-mask and both arms' active lanes.
    pub(crate) fn op(
        &mut self,
        pc: usize,
        op: EOp,
        stack: &[Operand],
        mask: &[bool],
        then: Option<(&[bool], u64, u64)>,
    ) {
        if self.trace.failed {
            return;
        }
        let c = self.sites.carry[pc];
        let ints = |k: usize| {
            let (slab, stride) = &stack[stack.len() - k];
            (slab.ints(), *stride)
        };
        if let EOp::Call { .. } | EOp::Skip { .. } = op {
            self.stack.truncate(self.stack.len() - c.pops as usize);
            // A skipped op computes nothing, so its value moves
            // unknowably; no site reads it.
            if c.out {
                self.stack.push(Tans::All([MIX; 3]));
            }
            return;
        }
        let tb = if c.b { self.pop() } else { Tans::All(FLAT) };
        let ta = if c.a { self.pop() } else { Tans::All(FLAT) };
        let t = match op {
            EOp::Scalar(Row::I(r)) => self.rows[r as usize].clone(),
            EOp::WorkItem(f, d) => {
                let mut t = FLAT;
                match f {
                    WorkItemFn::GlobalId => t[d as usize] = self.local[d as usize] as i64,
                    _ => t[d as usize] = 1,
                }
                Tans::All(t)
            }
            EOp::Bin(b) => {
                let mut range = None;
                if self.sites.ops[pc].is_some() {
                    match b {
                        BinOp::Div | BinOp::Mod => self.values(Site::Op(pc), mask, ints(1), &tb),
                        _ => {
                            range = Some(self.diffs(Site::Op(pc), mask, ints(2), ints(1), &ta, &tb))
                        }
                    }
                }
                match (b, range) {
                    _ if !c.out => return,
                    (BinOp::Add, _) => self.zip(&ta, &tb, add),
                    (BinOp::Sub, _) => self.zip(&ta, &tb, sub),
                    (BinOp::Mul, _) if !c.b => self.scale(&ta, ints(1), mask),
                    (BinOp::Mul, _) => self.scale(&tb, ints(2), mask),
                    (BinOp::Min | BinOp::Max, Some(range)) => {
                        self.pick(b == BinOp::Max, ta, tb, range, ints(2), ints(1), mask)
                    }
                    _ => unreachable!("a group-affine {b:?} is a site"),
                }
            }
            EOp::Un(_) => self.map(&tb, neg),
            EOp::Load(buf) => {
                if self.sites.ops[pc].is_some() {
                    self.values(Site::Op(pc), mask, ints(1), &tb);
                }
                if let BufSlot::Global { slot, .. } = buf {
                    self.queue(0, slot, mask, ints(1), &tb);
                }
                return;
            }
            EOp::SelJoin => match then.expect("a select frame") {
                _ if !c.out => return,
                (_, _, 0) => ta,
                (_, 0, _) => tb,
                // Both arms have lanes; `mask` holds the else-lanes.
                (mask_then, ..) => match (&ta, &tb) {
                    (Tans::All(x), Tans::All(y)) => Tans::All(meet(*x, *y)),
                    _ => {
                        let lanes = mask_then.iter().zip(mask).enumerate();
                        let on = lanes.filter(|(_, (&t, &e))| t || e);
                        let arm =
                            |(i, (&t, _)): (usize, _)| if t { ta.lane(i) } else { tb.lane(i) };
                        Tans::All(on.map(arm).reduce(meet).unwrap_or(FLAT))
                    }
                },
            },
            // A carried int cast to float.
            _ => return,
        };
        self.stack.push(t);
    }

    /// `f` of two operands' tangents, lane by lane.
    fn zip(&self, a: &Tans, b: &Tans, f: impl Fn(Tan, Tan) -> Tan) -> Tans {
        match (a, b) {
            (Tans::All(x), Tans::All(y)) => Tans::All(f(*x, *y)),
            _ => Tans::Each((0..self.lanes).map(|i| f(a.lane(i), b.lane(i))).collect()),
        }
    }

    /// `f` of one operand's tangents, lane by lane.
    fn map(&self, a: &Tans, f: impl Fn(Tan) -> Tan) -> Tans {
        match a {
            Tans::All(x) => Tans::All(f(*x)),
            Tans::Each(v) => Tans::Each(v.iter().map(|&x| f(x)).collect()),
        }
    }

    /// The tangents of a group-dependent value times a group-free factor
    /// whose lanes are `factor`, read at its stride: scaled by the factor
    /// when the active lanes share it, and mixed where they do not.
    fn scale(&self, a: &Tans, (factor, stride): (&[i64], usize), mask: &[bool]) -> Tans {
        if stride == 0 {
            return self.map(a, |t| scale(t, factor[0]));
        }
        let mut on = active(mask).map(|i| factor[i]);
        let first = on.next().unwrap_or(0);
        match a {
            Tans::All(t) if on.all(|f| f == first) => Tans::All(scale(*t, first)),
            Tans::All(t) => Tans::All(t.map(|x| if x == 0 { 0 } else { MIX })),
            Tans::Each(_) => Tans::Each(
                (0..self.lanes)
                    .map(|i| scale(a.lane(i), factor[i]))
                    .collect(),
            ),
        }
    }

    /// The tangents of `min(x, y)`, or `max` when `max`, from the range
    /// of the active lanes' gaps `x - y`: the picked operand's when every
    /// lane picks one, [`tie`]'s at a tie, and what the picked tangents
    /// share when lanes pick differently.
    #[allow(clippy::too_many_arguments)]
    fn pick(
        &self,
        max: bool,
        ta: Tans,
        tb: Tans,
        (lo, hi): (i64, i64),
        (x, sx): (&[i64], usize),
        (y, sy): (&[i64], usize),
        mask: &[bool],
    ) -> Tans {
        let (picks_a, picks_b) = if max {
            (lo > 0, hi < 0)
        } else {
            (hi < 0, lo > 0)
        };
        match (&ta, &tb) {
            _ if (lo, hi) == (0, 0) => self.zip(&ta, &tb, |a, b| tie(a, b, max)),
            _ if picks_a => ta,
            _ if picks_b => tb,
            // Both sides, and perhaps a tie: what their tangents share.
            (Tans::All(a), Tans::All(b)) if lo < 0 && hi > 0 => Tans::All(meet(*a, *b)),
            // A tie and one side.
            (Tans::All(a), Tans::All(b)) => {
                let below = if max { *b } else { *a };
                let above = if max { *a } else { *b };
                Tans::All(meet(tie(*a, *b, max), if lo < 0 { below } else { above }))
            }
            _ => {
                let choose = |i: usize| match x[i * sx].cmp(&y[i * sy]) {
                    std::cmp::Ordering::Equal => tie(ta.lane(i), tb.lane(i), max),
                    std::cmp::Ordering::Less if !max => ta.lane(i),
                    std::cmp::Ordering::Greater if max => ta.lane(i),
                    _ => tb.lane(i),
                };
                Tans::All(active(mask).map(choose).reduce(meet).unwrap_or(FLAT))
            }
        }
    }

    /// The tangents of statement operand `er` just evaluated: lane 0's
    /// for a `uniform` one, which ran on lane 0 alone, and 0 where it
    /// carries none. Any other operand keeps its lanes' tangents even when
    /// its value is one for every lane (a register whose active lanes
    /// agree): lanes that agree at this group can still move apart.
    fn operand(&mut self, er: ExprRef) -> Tans {
        if !self.sites.carry[er.end as usize - 1].out {
            return Tans::All(FLAT);
        }
        let t = self.pop();
        if er.uniform {
            Tans::All(t.lane(0))
        } else {
            t
        }
    }

    /// The int row of `row` when it carries tangents.
    fn carried_row(&self, row: Row) -> Option<usize> {
        match row {
            Row::I(r) if self.sites.rows[r as usize] => Some(r as usize),
            _ => None,
        }
    }

    /// `row = value` on the lanes of `mask`.
    pub(crate) fn set_row(&mut self, row: Row, value: ExprRef, mask: &[bool]) {
        if self.trace.failed {
            return;
        }
        let t = self.operand(value);
        if let Some(r) = self.carried_row(row) {
            self.update(r, mask, &t, |_, new| new);
        }
    }

    /// `row += step` on the lanes of `mask`.
    pub(crate) fn for_step(&mut self, row: Row, step: ExprRef, mask: &[bool]) {
        if self.trace.failed {
            return;
        }
        let t = self.operand(step);
        if let Some(r) = self.carried_row(row) {
            self.update(r, mask, &t, add);
        }
    }

    /// Sets the tangents of int row `r` on the lanes of `mask` to `f` of
    /// their old ones and `t`'s.
    fn update(&mut self, r: usize, mask: &[bool], t: &Tans, f: fn(Tan, Tan) -> Tan) {
        if let (Tans::All(old), Tans::All(new)) = (&self.rows[r], t) {
            let v = f(*old, *new);
            if v == *old || mask.iter().all(|&m| m) {
                self.rows[r] = Tans::All(v);
                return;
            }
        }
        let mut each = match std::mem::replace(&mut self.rows[r], Tans::All(FLAT)) {
            Tans::Each(v) => v,
            Tans::All(old) => vec![old; self.lanes],
        };
        for i in active(mask) {
            each[i] = f(each[i], t.lane(i));
        }
        self.rows[r] = Tans::Each(each);
    }

    /// A store by statement `pc` to `buf` at index `idx` of `value`, the
    /// index's lanes `lanes` read at their stride: records a local or
    /// private index, and queues a global one.
    pub(crate) fn store(
        &mut self,
        pc: usize,
        buf: BufSlot,
        (idx, value): (ExprRef, ExprRef),
        mask: &[bool],
        lanes: (&[i64], usize),
    ) {
        if self.trace.failed {
            return;
        }
        self.operand(value);
        let t = self.operand(idx);
        if self.sites.insts[pc].is_some() {
            self.values(Site::Inst(pc), mask, lanes, &t);
        }
        if let BufSlot::Global { slot, .. } = buf {
            self.queue(1, slot, mask, lanes, &t);
        }
    }

    /// Loop head `pc` over counter `row`, whose lanes are `regs`, and its
    /// bound `er`, whose lanes are `bound` read at their stride: records the
    /// counter's gap to the bound when the head is a site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_head(
        &mut self,
        pc: usize,
        row: Row,
        er: ExprRef,
        parent: &[bool],
        regs: &[i64],
        bound: (&[i64], usize),
    ) {
        if self.trace.failed {
            return;
        }
        let tb = self.operand(er);
        if self.sites.insts[pc].is_some() {
            let ta = match self.carried_row(row) {
                Some(r) => std::mem::replace(&mut self.rows[r], Tans::All(FLAT)),
                None => Tans::All(FLAT),
            };
            self.diffs(Site::Inst(pc), parent, (regs, 1), bound, &ta, &tb);
            if let Some(r) = self.carried_row(row) {
                self.rows[r] = ta;
            }
        }
    }

    /// Queues a global load (`kind` 0) or store (1) into buffer `slot` by
    /// the active lanes of `mask`, at the indices `idx` read at their
    /// stride and moving by tangents `t`, each lane at its next access
    /// ordinal, as the executor queues it for the coalescing flush.
    fn queue(
        &mut self,
        kind: usize,
        slot: u16,
        mask: &[bool],
        (idx, stride): (&[i64], usize),
        t: &Tans,
    ) {
        let base = self.bufs[slot as usize].0;
        let shared = self.shared(t, mask);
        let counts = &mut self.counts[kind];
        let (mut lo, mut hi) = (u16::MAX, 0);
        for (&c, &m) in counts.iter().zip(mask) {
            if m {
                (lo, hi) = (lo.min(c), hi.max(c));
            }
        }
        if lo > hi {
            return;
        }
        let queued = &mut self.queued[kind];
        if queued.len() <= hi as usize {
            let empty = Queued {
                addrs: vec![-1; self.lanes],
                tan: None,
            };
            queued.resize(hi as usize + 1, empty);
        }
        let fold = |q: &mut Queued, ti: Tan| q.tan = Some(q.tan.map_or(ti, |s| meet(s, ti)));
        if lo == hi {
            let q = &mut queued[lo as usize];
            for (i, (c, &m)) in counts.iter_mut().zip(mask).enumerate() {
                if m {
                    q.addrs[i] = base + idx[i * stride];
                    *c += 1;
                }
            }
            fold(q, shared);
        } else {
            for (i, (c, &m)) in counts.iter_mut().zip(mask).enumerate() {
                if m {
                    let q = &mut queued[*c as usize];
                    q.addrs[i] = base + idx[i * stride];
                    fold(q, t.lane(i));
                    *c += 1;
                }
            }
        }
    }

    /// The tangent the active lanes of `mask` share.
    fn shared(&self, t: &Tans, mask: &[bool]) -> Tan {
        match t {
            Tans::All(t) => *t,
            Tans::Each(v) => active(mask).map(|i| v[i]).reduce(meet).unwrap_or(FLAT),
        }
    }

    /// Records `a[i·sa] - b[i·sb]` for every active lane `i`, moving by
    /// the gap of tangents `ta` and `tb`. Returns the least and the
    /// greatest gap.
    #[allow(clippy::too_many_arguments)]
    fn diffs(
        &mut self,
        site: Site,
        mask: &[bool],
        (a, sa): (&[i64], usize),
        (b, sb): (&[i64], usize),
        ta: &Tans,
        tb: &Tans,
    ) -> (i64, i64) {
        // Each operand must move within bounds itself, so that neither
        // wraps over a box where their gap would not.
        let gap = |p: Tan, q: Tan| sub(bounded(p), bounded(q));
        let t = match (ta, tb) {
            (Tans::All(p), Tans::All(q)) => gap(*p, *q),
            _ => {
                let on = active(mask).map(|i| gap(ta.lane(i), tb.lane(i)));
                on.reduce(meet).unwrap_or(FLAT)
            }
        };
        let (gaps, mag) = gap_range(mask, (a, sa), (b, sb));
        if mag > MAG {
            self.trace.failed = true;
        }
        let each = active(mask).map(|i| a[i * sa] - b[i * sb]);
        self.note(site, slope(t), gaps, each);
        gaps
    }

    /// Records `v[i·stride]` for every active lane `i`, moving by `t`.
    fn values(&mut self, site: Site, mask: &[bool], (v, stride): (&[i64], usize), t: &Tans) {
        let slope = slope(self.shared(t, mask));
        let vals = lane_range(mask, (v, stride));
        if vals.0 <= vals.1 && vals.0.unsigned_abs().max(vals.1.unsigned_abs()) > MAG {
            self.trace.failed = true;
        }
        self.note(site, slope, vals, active(mask).map(|i| v[i * stride]));
    }

    /// Records values ranging over `lo..=hi` at `site`, moving by `slope`,
    /// into their truth classes' ranges: at once when they share a class,
    /// else each of `each`.
    fn note(
        &mut self,
        site: Site,
        slope: Slope,
        (lo, hi): (i64, i64),
        each: impl Iterator<Item = i64>,
    ) {
        if self.trace.failed || lo > hi {
            return;
        }
        let key = site.key();
        let check = self.check(key);
        let t = &mut self.trace;
        let s = *self.summaries.entry((key, slope)).or_insert_with(|| {
            t.summaries.push(Summary {
                site: key,
                slope,
                classes: [(i64::MAX, i64::MIN); 3],
            });
            t.summaries.len() as u32 - 1
        });
        if t.words() > TRACE_WORDS {
            t.failed = true;
            return;
        }
        let mut classes = t.summaries[s as usize].classes;
        let mut widen = |v: i64, lo: i64, hi: i64| {
            let c = &mut classes[(self.truth(check, v) + 1) as usize];
            *c = (c.0.min(lo), c.1.max(hi));
        };
        if self.top(check, lo) >= hi {
            widen(lo, lo, hi);
        } else {
            for v in each {
                widen(v, v, v);
            }
        }
        self.trace.summaries[s as usize].classes = classes;
    }

    /// Records the global accesses of one kind that statement `pc`
    /// flushes: one event per access ordinal, over the active lanes that
    /// made it, with runs split at warp edges.
    pub(crate) fn addresses(&mut self, pc: usize, store: bool, mask: &[bool]) {
        let kind = usize::from(store);
        let mut queued = std::mem::take(&mut self.queued[kind]);
        let used = self.counts[kind].iter().copied().max().unwrap_or(0) as usize;
        for (ord, q) in queued[..used].iter_mut().enumerate() {
            self.vals.clear();
            self.warps.clear();
            for (i, (a, &m)) in q.addrs.iter_mut().zip(mask).enumerate() {
                if m && *a >= 0 {
                    self.vals.push(*a);
                    self.warps.push((i / self.warp) as u16);
                }
                *a = -1;
            }
            let slope = slope(q.tan.take().unwrap_or([MIX; 3]));
            self.push(Site::Addr { pc, store, ord }, slope);
        }
        self.warps.clear();
        self.queued[kind] = queued;
        self.counts[kind].fill(0);
    }

    /// Records one flush of global accesses at `site`: its lanes'
    /// addresses, in lane order, from [`Self::vals`] with their warps from
    /// [`Self::warps`], as greedy arithmetic runs within a warp, and its
    /// slope. It joins the site's latest event as one more iteration when
    /// their runs have the same shape and warps, every address moves by
    /// one amount (the event's step once it has two iterations), and the
    /// slopes agree.
    fn push(&mut self, site: Site, slope: Slope) {
        let t = &mut self.trace;
        // Runs hold `i32` word addresses.
        if t.failed || self.vals.iter().any(|&v| i64::from(v as i32) != v) {
            t.failed = true;
            return;
        }
        let (vals, warps) = (&self.vals[..], &self.warps[..]);
        let start = t.runs.len();
        let mut j = 0;
        while j < vals.len() {
            let (first, w) = (vals[j], warps[j]);
            let mut k = j + 1;
            let mut step = 0;
            if k < vals.len() && warps[k] == w && i32::try_from(vals[k] - first).is_ok() {
                step = vals[k] - first;
                k += 1;
                while k < vals.len() && warps[k] == w && vals[k] - vals[k - 1] == step {
                    k += 1;
                }
            }
            t.runs.push(Run {
                first: first as i32,
                step: step as i32,
                count: (k - j) as u16,
                warp: w,
            });
            j = k;
        }
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
                    (a.step, a.count, a.warp) == (b.step, b.count, b.warp)
                        && i64::from(b.first) - i64::from(a.first) == moved
                });
            let ev = &mut t.events[e];
            let step = if ev.iters == 1 {
                i32::try_from(moved).ok()
            } else {
                (moved == i64::from(ev.iters) * i64::from(ev.step)).then_some(ev.step)
            };
            if let Some(step) = step.filter(|_| same && ev.slope == slope) {
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
            slope,
        });
        if t.words() > TRACE_WORDS {
            t.failed = true;
        }
    }

    /// The trace recorded since the last call, or `None` when it failed;
    /// starts the next one, every register's tangents flat again.
    fn take(&mut self) -> Option<Trace> {
        self.latest.clear();
        self.summaries.clear();
        self.stack.clear();
        self.rows.fill(Tans::All(FLAT));
        for kind in 0..2 {
            for q in &mut self.queued[kind] {
                q.addrs.fill(-1);
                q.tan = None;
            }
            self.counts[kind].fill(0);
        }
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

    /// The value ranges each site's truths allow, from `r`'s trace.
    fn bands(&self, r: &Trace) -> Vec<Band> {
        let mut bands = Vec::new();
        for sum in &r.summaries {
            let check = self.check(sum.site);
            for (c, &(lo, hi)) in sum.classes.iter().enumerate() {
                if lo <= hi {
                    bands.push(self.band(check, c as i64 - 1, (lo, hi), sum.slope));
                }
            }
        }
        for (e, ev) in r.events.iter().enumerate() {
            // Addresses grouped by buffer; each group keeps its own
            // allowed range.
            let mut groups: Vec<(i64, Band)> = Vec::new();
            let mut add =
                |class: i64, lo: i64, hi: i64| match groups.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, b)) => {
                        b.lo = b.lo.min(lo);
                        b.hi = b.hi.max(hi);
                    }
                    None => groups.push((class, self.band(Check::Addr, class, (lo, hi), ev.slope))),
                };
            for run in r.runs_of(e) {
                self.split(Check::Addr, ev, run, &mut add);
            }
            bands.extend(groups.into_iter().map(|(_, b)| b));
        }
        bands
    }

    /// The band of values `lo..=hi` of truth class `class` under `check`,
    /// moving by `slope`.
    fn band(&self, check: Check, class: i64, (lo, hi): (i64, i64), slope: Slope) -> Band {
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
        Band {
            slope,
            lo,
            hi,
            min,
            max,
            tie: check == Check::Pick && class == 0,
        }
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

/// Values of one site that share a truth class and a slope: they span
/// `[lo, hi]` at `r` and must stay within `[min, max]` over the box.
struct Band {
    slope: Slope,
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

/// The class estimate of one launch (see the module docs).
struct Classes<'m, 'a> {
    machine: &'m mut PlanMachine<'a>,
    grid: [usize; 3],
    /// Whether each group (x fastest) already belongs to a class.
    assigned: Vec<bool>,
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

    /// Builds the box that starts at `r` from `r`'s recorded run, adds its
    /// classes' counters to `stats` and its segments to the union, and
    /// marks it assigned. A root whose trace failed is a class of its own.
    /// `None` when `r` faults.
    fn grow(&mut self, r: [usize; 3], stats: &mut KernelStats) -> Option<()> {
        self.runs += 1;
        self.machine.run_group(r).ok()?;
        let counters = self.machine.stats.take_counters();
        let trace = self.machine.rec.as_mut().expect("recorder attached").take();
        let Some(trace) = trace else {
            stats.add_counters(&counters, 1);
            let i = self.lin(r);
            self.assigned[i] = true;
            return Some(());
        };
        let ext = self.extent(r, &trace);
        let moves = address_moves(&trace, ext);

        // Every member takes `r`'s path, so it counts `r`'s events; only
        // its transactions depend on where its addresses fall. Those
        // repeat with the period of the shifts' residues modulo a segment:
        // each cell of one period stands for the members it repeats to,
        // priced from `r`'s addresses moved by its residues.
        let period: [usize; 3] = std::array::from_fn(|d| {
            let g = moves
                .iter()
                .fold(SEG_WORDS, |g, (s, _)| gcd(g, s[d].rem_euclid(SEG_WORDS)));
            (SEG_WORDS / g) as usize
        });
        let span: [usize; 3] = std::array::from_fn(|d| period[d].min(ext[d]));
        let mut spans = Vec::new();
        let mut priced: Vec<HashMap<i64, [u64; 2]>> = vec![HashMap::new(); moves.len()];
        debug_assert_eq!(
            moves.iter().fold([0, 0], |sum, (_, events)| {
                let t = trace.transactions(events, 0, &mut spans);
                [sum[0] + t[0], sum[1] + t[1]]
            }),
            [counters.load_transactions, counters.store_transactions],
            "`r`'s recorded addresses price its own transactions"
        );
        let members = ext.iter().product::<usize>() as u64;
        stats.add_counters(
            &KernelStats {
                load_transactions: 0,
                store_transactions: 0,
                ..counters
            },
            members,
        );
        for c in cells(span) {
            let size: u64 = (0..3)
                .map(|d| ((ext[d] - 1 - c[d]) / period[d] + 1) as u64)
                .product();
            for ((sigma, events), priced) in moves.iter().zip(&mut priced) {
                let rho = dot(sigma, c).rem_euclid(SEG_WORDS);
                let [loads, stores] = *priced
                    .entry(rho)
                    .or_insert_with(|| trace.transactions(events, rho, &mut spans));
                stats.load_transactions += loads * size;
                stats.store_transactions += stores * size;
            }
        }

        for (sigma, events) in &moves {
            self.add_segments(&trace, sigma, events, ext);
        }
        for o in cells(ext) {
            let i = self.lin(std::array::from_fn(|d| r[d] + o[d]));
            self.assigned[i] = true;
        }
        Some(())
    }

    /// The box's extent from `r`: grown along x, then y, then z (along a
    /// dimension where every value has a slope) while every band keeps its
    /// truth at the box's corners. `off` is each band's offset range over
    /// the box so far.
    fn extent(&self, r: [usize; 3], trace: &Trace) -> [usize; 3] {
        let mut bands = self.rec().bands(trace);
        let mut off = vec![(0i128, 0i128); bands.len()];
        let mut ext = [1usize; 3];
        for d in 0..3 {
            if bands.iter().any(|b| b.slope[d] == MIXED) {
                continue;
            }
            let mut k = (self.grid[d] - r[d] - 1) as i128;
            for (b, &(lo, hi)) in bands.iter_mut().zip(&off) {
                let s = i64::from(b.slope[d]);
                if b.tie && s != 0 {
                    b.tie = false;
                    if s > 0 {
                        b.max = i64::MAX;
                    } else {
                        b.min = i64::MIN;
                    }
                }
                let s = i128::from(s);
                if s > 0 {
                    k = k.min((i128::from(b.max) - i128::from(b.hi) - hi) / s);
                } else if s < 0 {
                    k = k.min((i128::from(b.lo) + lo - i128::from(b.min)) / -s);
                }
            }
            let k = self.room(r, ext, d, k.max(0) as usize);
            ext[d] = k + 1;
            for (o, b) in off.iter_mut().zip(&bands) {
                let step = i128::from(b.slope[d]) * k as i128;
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

/// The address events of `trace`, grouped by their slopes over the box's
/// dimensions (zero along a dimension the box does not span).
fn address_moves(trace: &Trace, ext: [usize; 3]) -> Vec<([i64; 3], Vec<usize>)> {
    let mut moves: Vec<([i64; 3], Vec<usize>)> = Vec::new();
    for (e, ev) in trace.events.iter().enumerate() {
        let sigma: [i64; 3] = std::array::from_fn(|d| {
            if ext[d] > 1 {
                i64::from(ev.slope[d])
            } else {
                0
            }
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
