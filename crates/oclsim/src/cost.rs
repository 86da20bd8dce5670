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
//! Each group runs at most once: a probe that does not join its box keeps
//! its trace until it becomes an `r` itself. The estimate falls back to the
//! full zero-data run when any group it runs faults (so the error is the
//! one the full run raises first), when a recorded operand leaves ±2⁴⁰ or a
//! trace outgrows its budget (the magnitudes that keep the extension inside
//! `i64`), or when the partition would run more groups than the grid has.
//! [`CostEstimate::groups_run`] reports the groups executed either way.
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
    /// Work-groups the estimate executed: the representatives and probes
    /// of the class estimate, plus every group of the launch when it fell
    /// back to the full zero-data run. Compare with
    /// [`KernelStats::work_groups`].
    pub groups_run: u64,
}

impl CostEstimate {
    /// The predicted runtime on `dev`, in seconds — the exact quantity
    /// [`crate::runtime::RunOutput::time_s`] reports for a real launch.
    pub fn time(&self, dev: &DeviceProfile) -> f64 {
        self.stats.model_time(dev)
    }
}

/// Estimates the stats of launching `plan` under `cfg` with the given warp
/// width. `params` are the kernel's global parameters in declaration order
/// (the plan itself only stores their base addresses); the launch is
/// already validated.
pub(crate) fn estimate_plan(
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
    let mut groups_run = 0;
    if let Some(rec) = check_data_independent(plan)?.map(|s| Recorder::new(s, plan, params)) {
        let mut buffers = zeros();
        let mut machine = PlanMachine::new(plan, &mut buffers, cfg, warp);
        match Classes::new(&mut machine, rec).estimate() {
            Ok((stats, runs)) => {
                return Ok(CostEstimate {
                    stats,
                    exact: true,
                    groups_run: runs,
                })
            }
            Err(runs) => groups_run = runs,
        }
    }
    let mut buffers = zeros();
    let mut machine = PlanMachine::new(plan, &mut buffers, cfg, warp);
    machine.run()?;
    Ok(CostEstimate {
        groups_run: groups_run + machine.stats.work_groups,
        stats: machine.stats,
        exact: true,
    })
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

/// One abstract value: whether it reads buffer data, and its group
/// dependence.
#[derive(Debug, Clone, Copy)]
struct Val {
    data: bool,
    grp: Grp,
}

const FREE: Val = Val {
    data: false,
    grp: Grp::Free,
};

/// The sites a group-dependent value reaches: the ones the recorder
/// records, with the truth each must keep, by [`Plan::ecode`] and
/// [`Plan::code`] position.
pub(crate) struct Sites {
    ops: Vec<Option<Check>>,
    insts: Vec<Option<Check>>,
}

/// Refuses `plan` when buffer data can reach a site that steers the
/// executor's counters: an `if` condition, a loop bound or counter, a `?:`
/// condition, or the index of a global load or store. Otherwise returns
/// the plan's group-dependent sites, or `None` when a group-opaque value
/// reaches a site and only the full run can price the plan.
///
/// An upward fixpoint over the scalar register rows: a row is *data* once
/// any `SetScalar` or `ForStep` writes it from an expression that loads
/// from a buffer or reads a data row, and its group dependence is the join
/// of every value written to it. Implicit flows need no tracking — with no
/// data-dependent branch there is no data-dependent control, and a group
/// takes one path through a group-dependent branch in a whole class.
fn check_data_independent(plan: &Plan) -> Result<Option<Sites>, SimError> {
    let mut a = Analysis {
        plan,
        rows: vec![FREE; plan.n_rows()],
        admissible: true,
        sites: Sites {
            ops: vec![None; plan.ecode.len()],
            insts: vec![None; plan.code.len()],
        },
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
                    };
                    changed |= joined.data != slot.data || joined.grp != slot.grp;
                    *slot = joined;
                }
                Inst::Store { buf, idx, value } => {
                    let i = a.expr(idx)?;
                    if i.data && matches!(buf, BufSlot::Global { .. }) {
                        return Err(refuse("a global store index"));
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
            return Ok(a.admissible.then_some(a.sites));
        }
    }
}

struct Analysis<'p> {
    plan: &'p Plan,
    rows: Vec<Val>,
    /// Cleared when a group-opaque value reaches a site.
    admissible: bool,
    sites: Sites,
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
        for pc in er.start as usize..er.end as usize {
            match self.plan.ecode[pc] {
                EOp::I(_) | EOp::F(_) | EOp::B(_) => stack.push(FREE),
                EOp::WorkItem(f, _) => stack.push(Val {
                    data: false,
                    grp: if matches!(f, WorkItemFn::GlobalId | WorkItemFn::GroupId) {
                        Grp::Affine
                    } else {
                        Grp::Free
                    },
                }),
                EOp::Scalar(row) => stack.push(self.rows[self.plan.row_index(row)]),
                EOp::Un(_) | EOp::SelSwap => {}
                EOp::Cast(t) => {
                    // A group-affine value is an int or a bool, so only a
                    // conversion to float changes it.
                    let v = stack.last_mut().expect("cast operand");
                    if t == CType::Float && v.grp == Grp::Affine {
                        v.grp = Grp::Opaque;
                    }
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("second operand");
                    let a = stack.pop().expect("first operand");
                    let dep = |v: Val| v.grp > Grp::Free;
                    let grp = match op {
                        BinOp::Mul if dep(a) && dep(b) => Grp::Opaque,
                        BinOp::Div | BinOp::Mod => {
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
                    stack.push(Val {
                        data: a.data || b.data,
                        grp,
                    });
                }
                EOp::Call { argc, .. } => {
                    let base = stack.len() - argc as usize;
                    let args: Vec<Val> = stack.drain(base..).collect();
                    stack.push(Val {
                        data: args.iter().any(|v| v.data),
                        grp: if args.iter().any(|v| v.grp > Grp::Free) {
                            Grp::Opaque
                        } else {
                            Grp::Free
                        },
                    });
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    let global = matches!(buf, BufSlot::Global { .. });
                    if idx.data && global {
                        return Err(refuse("a global load index"));
                    }
                    // Global addresses are recorded at every coalescing
                    // flush; local and private indices only here.
                    self.sites.ops[pc] = self.site(idx, bounds(buf));
                    stack.push(Val {
                        data: true,
                        grp: Grp::Free,
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

/// Per-lane values one trace may hold before the class estimate gives up,
/// and the values all kept traces may hold together.
const TRACE_VALUES: usize = 1 << 15;
const KEPT_VALUES: usize = 1 << 16;

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

/// One recorded site evaluation: its check and where its per-lane values
/// end in [`Trace::vals`].
#[derive(Debug, Clone, Copy)]
struct Event {
    check: Check,
    end: u32,
}

/// Everything one group's run recorded, in execution order.
#[derive(Debug, Default)]
struct Trace {
    events: Vec<Event>,
    vals: Vec<i32>,
    /// Set when an operand left ±`MAG` or the trace outgrew its budget.
    failed: bool,
}

impl Trace {
    /// The per-lane values of event `e`.
    fn lanes(&self, e: usize) -> &[i32] {
        let start = if e == 0 { 0 } else { self.events[e - 1].end };
        &self.vals[start as usize..self.events[e].end as usize]
    }

    /// Each event's common slope from this trace to `probe`'s, or `None`
    /// when the traces differ in shape or some event's lanes move by
    /// different amounts. Whether the probe keeps this trace's truths is
    /// left to the bands: it sits at a corner of any box grown toward it.
    fn slopes_to(&self, probe: &Trace) -> Option<Vec<i64>> {
        if self.events.len() != probe.events.len() {
            return None;
        }
        let pairs = self.events.iter().zip(&probe.events).enumerate();
        pairs
            .map(|(e, (a, b))| {
                let (la, lb) = (self.lanes(e), probe.lanes(e));
                if a.check != b.check || la.len() != lb.len() {
                    return None;
                }
                let mut moves = la
                    .iter()
                    .zip(lb)
                    .map(|(&x, &y)| i64::from(y) - i64::from(x));
                let slope = moves.next().unwrap_or(0);
                moves.all(|m| m == slope).then_some(slope)
            })
            .collect()
    }
}

/// The executor's trace hook (see the module docs): `PlanMachine` calls it
/// at every site [`Sites`] marks and at every coalescing flush while a
/// class estimate runs a group.
pub(crate) struct Recorder {
    sites: Sites,
    /// Each global buffer's word range `[start, end)`, ascending.
    bufs: Vec<(i64, i64)>,
    trace: Trace,
}

impl Recorder {
    fn new(sites: Sites, plan: &Plan, params: &[KernelParam]) -> Self {
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
        }
    }

    /// The check expression op `pc` records, if it is a site.
    pub(crate) fn op_site(&self, pc: usize) -> Option<Check> {
        self.sites.ops[pc]
    }

    /// The check statement `pc` records, if it is a site.
    pub(crate) fn inst_site(&self, pc: usize) -> Option<Check> {
        self.sites.insts[pc]
    }

    /// Records `a[i] - b[i * stride]` for every active lane `i`.
    pub(crate) fn diffs(
        &mut self,
        check: Check,
        mask: &[bool],
        a: &[i64],
        b: &[i64],
        stride: usize,
    ) {
        let gaps = active(mask).map(|i| {
            let (x, y) = (a[i], b[i * stride]);
            if x.unsigned_abs() <= MAG && y.unsigned_abs() <= MAG {
                x - y
            } else {
                i64::MIN
            }
        });
        self.push(check, gaps);
    }

    /// Records `v[i * stride]` for every active lane `i`.
    pub(crate) fn values(&mut self, check: Check, mask: &[bool], v: &[i64], stride: usize) {
        let vals = active(mask).map(|i| v[i * stride]);
        self.push(
            check,
            vals.map(|x| if x.unsigned_abs() <= MAG { x } else { i64::MIN }),
        );
    }

    /// Records a coalescing flush's pending addresses of one kind: one
    /// event per access ordinal, over the active lanes that made it.
    pub(crate) fn addresses(&mut self, mask: &[bool], pend: &[Vec<u64>]) {
        let max_ord = pend.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..max_ord {
            let addrs = active(mask)
                .filter_map(|i| pend[i].get(k))
                .map(|&a| i64::try_from(a / 4).unwrap_or(i64::MIN));
            self.push(Check::Addr, addrs);
        }
    }

    fn push(&mut self, check: Check, lanes: impl Iterator<Item = i64>) {
        let t = &mut self.trace;
        if t.failed {
            return;
        }
        for v in lanes {
            // `i64::MIN` marks an operand out of range.
            let Ok(v) = i32::try_from(v) else {
                t.failed = true;
                return;
            };
            t.vals.push(v);
        }
        if t.vals.len() > TRACE_VALUES {
            t.failed = true;
            return;
        }
        t.events.push(Event {
            check,
            end: t.vals.len() as u32,
        });
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
            // Lanes grouped by truth class; each group keeps its own
            // allowed range.
            let mut groups: Vec<(i64, Band)> = Vec::new();
            for v in r.lanes(e).iter().map(|&v| i64::from(v)) {
                let class = self.truth(ev.check, v);
                match groups.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, b)) => {
                        b.lo = b.lo.min(v);
                        b.hi = b.hi.max(v);
                    }
                    None => {
                        let (min, max) = match (ev.check, class) {
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
                            lo: v,
                            hi: v,
                            min,
                            max,
                            tie: ev.check == Check::Pick && class == 0,
                        };
                        groups.push((class, band));
                    }
                }
            }
            bands.extend(groups.into_iter().map(|(_, b)| b));
        }
        bands
    }
}

/// Lanes of one event that share a truth class: their values span
/// `[lo, hi]` at `r` and must stay within `[min, max]` over the box.
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
/// box, its trace.
struct Run {
    counters: KernelStats,
    trace: Trace,
}

/// The class estimate of one launch (see the module docs).
struct Classes<'m, 'a> {
    machine: &'m mut PlanMachine<'a>,
    grid: [usize; 3],
    /// Whether each group (x fastest) already belongs to a box.
    assigned: Vec<bool>,
    /// Groups run but not yet assigned, by linear index.
    kept: BTreeMap<usize, Run>,
    kept_values: usize,
    runs: u64,
    segments: SegmentSet,
}

impl<'m, 'a> Classes<'m, 'a> {
    fn new(machine: &'m mut PlanMachine<'a>, rec: Recorder) -> Self {
        let grid = machine.cfg.groups();
        machine.rec = Some(rec);
        Classes {
            grid,
            assigned: vec![false; grid.iter().product()],
            kept: BTreeMap::new(),
            kept_values: 0,
            runs: 0,
            segments: SegmentSet::default(),
            machine,
        }
    }

    fn lin(&self, g: [usize; 3]) -> usize {
        g[0] + self.grid[0] * (g[1] + self.grid[1] * g[2])
    }

    fn rec(&self) -> &Recorder {
        self.machine.rec.as_ref().expect("recorder attached")
    }

    /// The launch's stats and the groups run, or the groups run when the
    /// estimate must fall back to the full run.
    fn estimate(mut self) -> Result<(KernelStats, u64), u64> {
        let mut stats = self.machine.stats.clone();
        let total = self.assigned.len();
        // With at most three groups along every dimension, a stencil's
        // boundary handling leaves no interior group to share a class.
        let boundary: usize = self.grid.iter().map(|&n| n.min(3)).product();
        if boundary >= total || self.grid.iter().any(|&n| n > MAX_GROUPS) {
            return Err(0);
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
            if self.grow(r, &mut stats).is_none() {
                return Err(self.runs);
            }
        }
        stats.unique_segments = self.segments.len();
        Ok((stats, self.runs))
    }

    /// Runs group `g` with the recorder on, or returns its kept run.
    /// `None` on a fault, a failed trace, or when every group of the grid
    /// has run once already.
    fn run(&mut self, g: [usize; 3]) -> Option<Run> {
        if let Some(run) = self.kept.remove(&self.lin(g)) {
            self.kept_values -= run.trace.vals.len();
            return Some(run);
        }
        if self.runs == self.assigned.len() as u64 {
            return None;
        }
        self.runs += 1;
        self.machine.run_group(g).ok()?;
        let counters = self.machine.stats.take_counters();
        let rec = self.machine.rec.as_mut().expect("recorder attached");
        let trace = std::mem::take(&mut rec.trace);
        (!trace.failed).then_some(Run { counters, trace })
    }

    /// Keeps `run` of group `g` for a later box. Over the budget, the runs
    /// furthest ahead in scan order, which boxes reach last, go first.
    fn keep(&mut self, g: [usize; 3], run: Run) {
        self.kept_values += run.trace.vals.len();
        let key = self.lin(g);
        self.kept.insert(key, run);
        while self.kept_values > KEPT_VALUES {
            let (_, last) = self.kept.pop_last().expect("kept values are held by runs");
            self.kept_values -= last.trace.vals.len();
        }
    }

    /// Builds the box that starts at `r`, adds its classes' counters to
    /// `stats` and its segments to the union, and marks it assigned.
    fn grow(&mut self, r: [usize; 3], stats: &mut KernelStats) -> Option<()> {
        let root = self.run(r)?;
        // Probe each direction the box could grow in.
        let mut slopes: [Option<Vec<i64>>; 3] = [None, None, None];
        let mut probes: [Option<KernelStats>; 3] = [None, None, None];
        for d in 0..3 {
            let mut p = r;
            p[d] += 1;
            if p[d] == self.grid[d] || self.assigned[self.lin(p)] {
                continue;
            }
            let run = self.run(p)?;
            slopes[d] = root.trace.slopes_to(&run.trace);
            probes[d] = Some(run.counters.clone());
            self.keep(p, run);
        }
        let ext = self.extent(r, &root.trace, &slopes);
        let moves = address_moves(&root.trace, &slopes, ext);

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
        if span.iter().product::<usize>() > self.assigned.len() {
            return None;
        }
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
                Some(_) => self.run(std::array::from_fn(|d| r[d] + c[d]))?.counters,
            };
            stats.add_counters(&counters, size);
        }

        for (sigma, events) in &moves {
            self.add_segments(&root.trace, sigma, events, ext);
        }
        for o in cells(ext) {
            let i = self.lin(std::array::from_fn(|d| r[d] + o[d]));
            self.assigned[i] = true;
            if let Some(run) = self.kept.remove(&i) {
                self.kept_values -= run.trace.vals.len();
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
                let addrs = events.iter().flat_map(|&e| trace.lanes(e));
                let mut s: Vec<i64> = addrs.map(|&a| (i64::from(a) + rho) / SEG_WORDS).collect();
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
        if ev.check != Check::Addr {
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
