//! Static analytical cost model: predict a kernel's [`KernelStats`] — and
//! through [`KernelStats::model_time`] its modeled runtime — for one launch
//! configuration **without executing a single lane of data**.
//!
//! # Data-free index replay
//!
//! The simulator's modeled time is a pure function of the event counts the
//! executor collects (transactions, ALU ops, barriers, occupancy inputs).
//! For the kernels Lift generates those counts never depend on buffer
//! *contents*: indices, loop bounds and branch conditions are arithmetic
//! over work-item ids and sizes. So this module re-runs the compiled
//! [`Plan`] bytecode with a degenerate value domain (`Lv`): integer index
//! math is tracked concretely per lane, float data collapses to a unit
//! "some float" value, and anything derived from buffer contents becomes
//! *unknown*. Every statistic is counted with exactly the same rules as
//! `PlanMachine` (in [`crate::exec`]) — same per-lane counting, same SIMD
//! idle-lane charge, same per-warp 128-byte coalescing flush — so on
//! kernels whose control flow and addressing are data-independent the
//! predicted [`KernelStats`] equal the measured ones **bit for bit**
//! ([`CostEstimate::exact`] is `true`).
//!
//! # Soundness when data leaks into control
//!
//! Where an unknown value *is* consumed the model degrades conservatively
//! and flips `exact` off, never under-counting:
//!
//! * **unknown branch condition** — both arms execute under superset lane
//!   masks (lanes with unknown conditions join both sides); scalar and
//!   buffer state is forked before the then-arm and merged element-wise
//!   afterwards (disagreeing values become unknown). Since the per-lane op
//!   charges and access sets of each arm grow monotonically with the mask,
//!   the resulting counts are an upper bound on any real execution.
//! * **unknown global-memory index** — the access is charged as fully
//!   uncoalesced: one transaction and one fresh unique segment per lane, an
//!   upper bound on whatever address the real index resolves to.
//! * **unknown loop bound or counter** — no sound bound on the trip count
//!   exists; the estimate is refused with [`SimError::Estimate`]. Loop
//!   replay is additionally guarded by a [`lift_arith`] interval trip-count
//!   ceiling so a non-terminating loop fails fast instead of spinning.
//!
//! The estimate is a pure function of (plan, launch, warp width): no RNG,
//! no ambient state, bit-identical across thread counts and shards — the
//! property the tuner's pruning layer relies on (see ARCHITECTURE.md).

use lift_arith::range::Interval;
use lift_codegen::clike::{BinOp, CType, UnOp, WorkItemFn};

use crate::device::DeviceProfile;
use crate::exec::{simd_charge, SimError};
use crate::perf::KernelStats;
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan, Row};
use crate::runtime::LaunchConfig;

/// Ceiling on replayed iterations of a single loop when the interval bound
/// is huge (a safety valve against adversarial or miscompiled plans).
const REPLAY_MAX_TRIPS: u64 = 1 << 20;

/// A statically predicted [`KernelStats`], priced by the same
/// [`KernelStats::model_time`] the simulator uses.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// The predicted event counts.
    pub stats: KernelStats,
    /// `true` when every count is provably equal to what the simulator
    /// would measure; `false` when data-dependent control flow or indexing
    /// forced conservative over-counting.
    pub exact: bool,
}

impl CostEstimate {
    /// The predicted runtime on `dev`, in seconds — the exact quantity
    /// [`crate::runtime::RunOutput::time_s`] reports for a real launch.
    pub fn time(&self, dev: &DeviceProfile) -> f64 {
        self.stats.model_time(dev)
    }
}

/// Statically estimates the stats of launching `plan` under `cfg` with the
/// given warp width. `params` carries each global parameter's element type
/// and length in declaration order (the plan itself only stores bases).
pub(crate) fn estimate_plan(
    plan: &Plan,
    params: &[(CType, usize)],
    cfg: LaunchConfig,
    warp: usize,
) -> Result<CostEstimate, SimError> {
    for d in 0..3 {
        if cfg.local[d] == 0 || cfg.global[d] == 0 {
            return Err(SimError::BadLaunch("zero-sized launch dimension".into()));
        }
        if !cfg.global[d].is_multiple_of(cfg.local[d]) {
            return Err(SimError::BadLaunch(format!(
                "global size {} not divisible by local size {} in dim {d}",
                cfg.global[d], cfg.local[d]
            )));
        }
    }
    let mut m = CostMachine::new(plan, params, cfg, warp);
    m.run()?;
    Ok(CostEstimate {
        exact: m.exact,
        stats: m.stats,
    })
}

fn est_err(msg: &str) -> SimError {
    SimError::Estimate(msg.into())
}

/// The replay value domain: concrete integers and booleans (index math),
/// a unit float (data whose value is never tracked), and unknown.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lv {
    I(i64),
    B(bool),
    F,
    Un,
}

/// The lane as a buffer index ([`crate::exec::V::as_i`] semantics):
/// `Ok(None)` means "unknown", a float is the fault the real run raises.
fn index_of(v: Lv) -> Result<Option<i64>, SimError> {
    match v {
        Lv::I(x) => Ok(Some(x)),
        Lv::B(b) => Ok(Some(b as i64)),
        Lv::Un => Ok(None),
        Lv::F => Err(SimError::TypeMismatch("expected int, found float".into())),
    }
}

/// The lane as a condition ([`crate::exec::V::as_b`] semantics).
fn cond_of(v: Lv) -> Result<Option<bool>, SimError> {
    match v {
        Lv::B(b) => Ok(Some(b)),
        Lv::I(x) => Ok(Some(x != 0)),
        Lv::Un => Ok(None),
        Lv::F => Err(SimError::TypeMismatch("expected bool, found float".into())),
    }
}

/// Declaration coercion ([`crate::exec::coerce`] over [`Lv`]).
fn coerce_lv(v: Lv, ty: CType) -> Lv {
    match (ty, v) {
        (CType::Float, Lv::I(_)) => Lv::F,
        (CType::Int, Lv::B(x)) => Lv::I(x as i64),
        _ => v,
    }
}

/// Explicit cast ([`crate::exec`]'s scalar `cast` over [`Lv`]): an
/// int-from-float cast has an unknown result because float values are
/// never tracked.
fn cast_lv(t: CType, v: Lv) -> Lv {
    match (t, v) {
        (CType::Float, Lv::I(_)) => Lv::F,
        (CType::Int, Lv::F) => Lv::Un,
        (CType::Float, Lv::Un) | (CType::Int, Lv::Un) => Lv::Un,
        (_, v) => v,
    }
}

/// One binary op on replay lanes. The only replicated fault is division by
/// a *known* zero (the real run faults identically); every combination the
/// real engine would reject as a kind mismatch degrades to unknown — such
/// a config fails simulation anyway, so its estimate is irrelevant.
fn lv_bin(op: BinOp, a: Lv, b: Lv) -> Result<Lv, SimError> {
    use BinOp::*;
    Ok(match (op, a, b) {
        (Add, Lv::I(x), Lv::I(y)) => Lv::I(x.wrapping_add(y)),
        (Sub, Lv::I(x), Lv::I(y)) => Lv::I(x.wrapping_sub(y)),
        (Mul, Lv::I(x), Lv::I(y)) => Lv::I(x.wrapping_mul(y)),
        (Min, Lv::I(x), Lv::I(y)) => Lv::I(x.min(y)),
        (Max, Lv::I(x), Lv::I(y)) => Lv::I(x.max(y)),
        (Div | Mod, Lv::I(x), Lv::I(y)) => {
            if y == 0 {
                return Err(SimError::DivisionByZero);
            }
            if matches!(op, Div) {
                Lv::I(x.wrapping_div(y))
            } else {
                Lv::I(x.wrapping_rem(y))
            }
        }
        (Lt, Lv::I(x), Lv::I(y)) => Lv::B(x < y),
        (Le, Lv::I(x), Lv::I(y)) => Lv::B(x <= y),
        (Gt, Lv::I(x), Lv::I(y)) => Lv::B(x > y),
        (Ge, Lv::I(x), Lv::I(y)) => Lv::B(x >= y),
        (Eq, Lv::I(x), Lv::I(y)) => Lv::B(x == y),
        (Ne, Lv::I(x), Lv::I(y)) => Lv::B(x != y),
        (And, Lv::B(x), Lv::B(y)) => Lv::B(x && y),
        (Or, Lv::B(x), Lv::B(y)) => Lv::B(x || y),
        // Short-circuit refinement: one known side can decide the result.
        (And, Lv::B(false), _) | (And, _, Lv::B(false)) => Lv::B(false),
        (Or, Lv::B(true), _) | (Or, _, Lv::B(true)) => Lv::B(true),
        // Float arithmetic keeps the float kind; values are untracked, so
        // float comparisons are unknown.
        (Add | Sub | Mul | Div | Min | Max, Lv::F, Lv::F) => Lv::F,
        _ => Lv::Un,
    })
}

fn lv_un(op: UnOp, a: Lv) -> Lv {
    match (op, a) {
        (UnOp::Neg, Lv::I(x)) => Lv::I(x.wrapping_neg()),
        (UnOp::Neg, Lv::F) => Lv::F,
        (UnOp::Not, Lv::B(x)) => Lv::B(!x),
        _ => Lv::Un,
    }
}

/// Merge two possible values of the same storage cell: agreement is kept,
/// disagreement is unknown.
fn lv_join(a: Lv, b: Lv) -> Lv {
    if a == b {
        a
    } else {
        Lv::Un
    }
}

/// One `?:` select in flight (mirrors the executor's `SelFrame`); lanes
/// with an unknown condition are members of *both* arm masks.
struct CFrame {
    mask_then: Vec<bool>,
    count_then: u64,
    mask_else: Vec<bool>,
    count_else: u64,
    in_else: bool,
    saved: Option<Vec<Lv>>,
}

/// Forked mutable state for a both-arms branch replay.
#[derive(Default)]
struct Snap {
    ivals: Vec<Lv>,
    vvals: Vec<Lv>,
    locals_v: Vec<Lv>,
    privs_v: Vec<Lv>,
}

/// A statement-level `if` whose condition was unknown for some lane: both
/// arms run under superset masks and the state merges at the `EndIf`.
struct Fallback {
    /// pc of the `ElseJoin` where the then-arm state is parked and the
    /// entry state restored.
    join_pc: usize,
    /// pc of the matching `EndIf` where the two arm states merge.
    end_pc: usize,
    tmask: usize,
    emask: usize,
    /// State on branch entry (moved back into the machine at `join_pc`).
    entry: Snap,
    /// State after the then-arm (merged at `end_pc`).
    after_then: Option<Snap>,
}

struct CostMachine<'a> {
    plan: &'a Plan,
    /// Element type and length per global parameter slot.
    params: &'a [(CType, usize)],
    stats: KernelStats,
    warp: usize,
    cfg: LaunchConfig,
    n_items: usize,
    group_id: [usize; 3],
    lids: Vec<[usize; 3]>,
    /// Replay lanes for the executor's `i64` / tagged scalar register rows
    /// (slot-major, `rows × n_items`, like the real arenas).
    ivals: Vec<Lv>,
    vvals: Vec<Lv>,
    /// Replay lanes for the tagged local / private arenas. The *float*
    /// arenas need no storage at all: every load from them is `Lv::F`.
    locals_v: Vec<Lv>,
    privs_v: Vec<Lv>,
    pend_loads: Vec<Vec<u64>>,
    pend_stores: Vec<Vec<u64>>,
    any_pend: bool,
    masks: Vec<Vec<bool>>,
    mask_any: Vec<bool>,
    mask_stack: Vec<u16>,
    uni_mask: Vec<bool>,
    segs: Vec<u64>,
    /// Slab pool for the op-major evaluator.
    pool: Vec<Vec<Lv>>,
    exact: bool,
    /// Unique-segment upper bound for unknown-index accesses, added to
    /// `unique_segments` at finalise.
    synthetic_segments: u64,
    fallbacks: Vec<Fallback>,
    /// Per-`ForHead` iteration counters and their interval-derived trip
    /// ceilings, indexed by pc.
    loop_iters: Vec<u64>,
    loop_limits: Vec<u64>,
}

impl<'a> CostMachine<'a> {
    fn new(plan: &'a Plan, params: &'a [(CType, usize)], cfg: LaunchConfig, warp: usize) -> Self {
        let wg = cfg.local;
        let n_items = wg.iter().product::<usize>();
        let lids = (0..n_items)
            .map(|i| [i % wg[0], (i / wg[0]) % wg[1], i / (wg[0] * wg[1])])
            .collect();
        let stats = KernelStats {
            wg_size: n_items as u64,
            work_groups: (cfg.groups().iter().product::<usize>()) as u64,
            work_items: (cfg.global.iter().product::<usize>()) as u64,
            local_bytes_per_group: plan.local_bytes as u64,
            ..KernelStats::default()
        };
        let n_masks = plan.n_masks.max(1);
        CostMachine {
            plan,
            params,
            stats,
            warp,
            cfg,
            n_items,
            group_id: [0, 0, 0],
            lids,
            ivals: vec![Lv::I(0); plan.n_int_rows * n_items],
            vvals: vec![Lv::I(0); plan.n_var_rows * n_items],
            locals_v: vec![Lv::F; plan.local_v_total],
            privs_v: vec![Lv::F; plan.priv_v_total * n_items],
            pend_loads: vec![Vec::new(); n_items],
            pend_stores: vec![Vec::new(); n_items],
            any_pend: false,
            masks: (0..n_masks).map(|i| vec![i == 0; n_items]).collect(),
            mask_any: vec![false; n_masks],
            mask_stack: Vec::with_capacity(n_masks),
            uni_mask: {
                let mut m = vec![false; n_items.max(1)];
                m[0] = true;
                m
            },
            segs: Vec::with_capacity(warp.max(1)),
            pool: Vec::new(),
            exact: true,
            synthetic_segments: 0,
            fallbacks: Vec::new(),
            loop_iters: vec![0; plan.code.len()],
            loop_limits: vec![0; plan.code.len()],
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        let groups = self.cfg.groups();
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    self.group_id = [gx, gy, gz];
                    self.reset_group();
                    self.exec()?;
                }
            }
        }
        self.stats.finalise();
        self.stats.unique_segments += self.synthetic_segments;
        Ok(())
    }

    /// Group-start state, mirroring the executor: scalars are integer
    /// zero, local/private storage is float zero.
    fn reset_group(&mut self) {
        self.ivals.fill(Lv::I(0));
        self.vvals.fill(Lv::I(0));
        self.locals_v.fill(Lv::F);
        self.privs_v.fill(Lv::F);
        self.mask_stack.clear();
        self.mask_stack.push(0);
        self.loop_iters.fill(0);
        self.fallbacks.clear();
    }

    #[inline]
    fn top_mask(&self) -> usize {
        *self.mask_stack.last().expect("mask stack never empties") as usize
    }

    fn get(&mut self) -> Vec<Lv> {
        self.pool
            .pop()
            .unwrap_or_else(|| vec![Lv::Un; self.n_items])
    }

    fn put(&mut self, v: Vec<Lv>) {
        self.pool.push(v);
    }

    fn take_state(&mut self) -> Snap {
        Snap {
            ivals: std::mem::take(&mut self.ivals),
            vvals: std::mem::take(&mut self.vvals),
            locals_v: std::mem::take(&mut self.locals_v),
            privs_v: std::mem::take(&mut self.privs_v),
        }
    }

    fn put_state(&mut self, s: Snap) {
        self.ivals = s.ivals;
        self.vvals = s.vvals;
        self.locals_v = s.locals_v;
        self.privs_v = s.privs_v;
    }

    fn clone_state(&self) -> Snap {
        Snap {
            ivals: self.ivals.clone(),
            vvals: self.vvals.clone(),
            locals_v: self.locals_v.clone(),
            privs_v: self.privs_v.clone(),
        }
    }

    fn exec(&mut self) -> Result<(), SimError> {
        let mut pc = 0usize;
        while pc < self.plan.code.len() {
            match self.plan.code[pc].clone() {
                Inst::SetScalar {
                    row,
                    value,
                    coerce,
                    charge,
                } => {
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let before = self.stats.alu_ops;
                    let r = self.set_scalar(&mask, row, value, coerce);
                    if r.is_ok() {
                        if charge {
                            simd_charge(&mut self.stats, self.warp, &mask, before);
                        }
                        self.flush(&mask);
                    }
                    self.masks[ms] = mask;
                    r?;
                    pc += 1;
                }
                Inst::Store { buf, idx, value } => {
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let before = self.stats.alu_ops;
                    let r = self.store_stmt(&mask, buf, idx, value);
                    if r.is_ok() {
                        simd_charge(&mut self.stats, self.warp, &mask, before);
                        self.flush(&mask);
                    }
                    self.masks[ms] = mask;
                    r?;
                    pc += 1;
                }
                Inst::ForHead {
                    row,
                    bound,
                    mask,
                    exit,
                } => {
                    let mslot = mask as usize;
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut child = std::mem::take(&mut self.masks[mslot]);
                    let r = self.for_head(&parent, &mut child, row, bound, pc);
                    self.masks[ps] = parent;
                    self.masks[mslot] = child;
                    if r? {
                        self.mask_stack.push(mslot as u16);
                        pc += 1;
                    } else {
                        pc = exit as usize;
                    }
                }
                Inst::ForStep { row, step, head } => {
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let r = self.for_step(&mask, row, step);
                    self.masks[ms] = mask;
                    r?;
                    self.mask_stack.pop();
                    pc = head as usize;
                }
                Inst::IfHead {
                    cond,
                    tmask,
                    emask,
                    els,
                    end,
                } => {
                    let (tm, em) = (tmask as usize, emask as usize);
                    let (els, end) = (els as usize, end as usize);
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut t = std::mem::take(&mut self.masks[tm]);
                    let mut e = std::mem::take(&mut self.masks[em]);
                    let r = self.if_head(&parent, &mut t, &mut e, cond);
                    self.masks[ps] = parent;
                    self.masks[tm] = t;
                    self.masks[em] = e;
                    let (any_t, any_e, unknown) = r?;
                    self.mask_any[tm] = any_t;
                    self.mask_any[em] = any_e;
                    if unknown {
                        // Both arms will run under superset masks; fork the
                        // state so the else-arm starts from branch entry.
                        self.fallbacks.push(Fallback {
                            join_pc: els - 1,
                            end_pc: end - 1,
                            tmask: tm,
                            emask: em,
                            entry: self.clone_state(),
                            after_then: None,
                        });
                    }
                    if any_t {
                        self.mask_stack.push(tm as u16);
                        pc += 1;
                    } else if any_e {
                        self.mask_stack.push(em as u16);
                        pc = els;
                    } else {
                        pc = end;
                    }
                }
                Inst::ElseJoin { emask, els, end } => {
                    if self.fallbacks.last().is_some_and(|f| f.join_pc == pc) {
                        // Park the then-arm outcome, rewind to branch entry
                        // for the (forced) else-arm.
                        let cur = self.take_state();
                        let f = self.fallbacks.last_mut().expect("checked above");
                        let entry = std::mem::take(&mut f.entry);
                        f.after_then = Some(cur);
                        self.put_state(entry);
                    }
                    self.mask_stack.pop();
                    if self.mask_any[emask as usize] {
                        self.mask_stack.push(emask);
                        pc = els as usize;
                    } else {
                        pc = end as usize;
                    }
                }
                Inst::EndIf => {
                    if self.fallbacks.last().is_some_and(|f| f.end_pc == pc) {
                        self.merge_fallback()?;
                    }
                    self.mask_stack.pop();
                    pc += 1;
                }
                Inst::Barrier => {
                    let ms = self.top_mask();
                    if self.masks[ms].iter().any(|&b| !b) {
                        return Err(SimError::BarrierDivergence);
                    }
                    self.stats.barriers += 1;
                    pc += 1;
                }
            }
        }
        Ok(())
    }

    /// Merges the two arm states of a both-arms branch: per-lane storage
    /// is attributed through the arm masks (a lane in exactly one arm
    /// keeps that arm's value; a lane in both keeps agreeing values),
    /// shared local storage merges by agreement.
    fn merge_fallback(&mut self) -> Result<(), SimError> {
        let f = self.fallbacks.pop().expect("checked by caller");
        let then = f
            .after_then
            .ok_or_else(|| est_err("branch replay desynchronised"))?;
        let n = self.n_items;
        let (tmask, emask) = (&self.masks[f.tmask], &self.masks[f.emask]);
        let merge_lanes = |cur: &mut [Lv], then: &[Lv]| {
            for (j, slot) in cur.iter_mut().enumerate() {
                let i = j % n;
                match (tmask[i], emask[i]) {
                    (true, true) => *slot = lv_join(then[j], *slot),
                    (true, false) | (false, false) => *slot = then[j],
                    (false, true) => {}
                }
            }
        };
        merge_lanes(&mut self.ivals, &then.ivals);
        merge_lanes(&mut self.vvals, &then.vvals);
        // Private arenas are item-major: element j belongs to lane
        // j / priv_v_total.
        let stride = self.plan.priv_v_total.max(1);
        for (j, slot) in self.privs_v.iter_mut().enumerate() {
            let i = j / stride;
            match (tmask[i], emask[i]) {
                (true, true) => *slot = lv_join(then.privs_v[j], *slot),
                (true, false) | (false, false) => *slot = then.privs_v[j],
                (false, true) => {}
            }
        }
        // Local memory is shared across lanes: no attribution is possible.
        for (slot, &t) in self.locals_v.iter_mut().zip(&then.locals_v) {
            *slot = lv_join(t, *slot);
        }
        Ok(())
    }

    fn row_lane(&self, row: Row, i: usize) -> Lv {
        let n = self.n_items;
        match row {
            Row::I(r) => self.ivals[r as usize * n + i],
            Row::V(r) => self.vvals[r as usize * n + i],
        }
    }

    fn set_row_lane(&mut self, row: Row, i: usize, v: Lv) {
        let n = self.n_items;
        match row {
            Row::I(r) => self.ivals[r as usize * n + i] = v,
            Row::V(r) => self.vvals[r as usize * n + i] = v,
        }
    }

    fn set_scalar(
        &mut self,
        mask: &[bool],
        row: Row,
        value: ExprRef,
        co: Option<CType>,
    ) -> Result<(), SimError> {
        if value.uniform {
            let mut ops = 0u64;
            let mut v = self.eval_uniform(value, &mut ops)?;
            if let Some(t) = co {
                v = coerce_lv(v, t);
            }
            let mut count = 0u64;
            for (i, &live) in mask.iter().enumerate().take(self.n_items) {
                if live {
                    self.set_row_lane(row, i, v);
                    count += 1;
                }
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let v = self.eval_vec(value, mask, &mut ops)?;
            for i in 0..self.n_items {
                if mask[i] {
                    let x = match co {
                        Some(t) => coerce_lv(v[i], t),
                        None => v[i],
                    };
                    self.set_row_lane(row, i, x);
                }
            }
            self.put(v);
            self.stats.alu_ops += ops;
        }
        Ok(())
    }

    fn store_stmt(
        &mut self,
        mask: &[bool],
        buf: BufSlot,
        idx: ExprRef,
        value: ExprRef,
    ) -> Result<(), SimError> {
        let mut hoist_ops = 0u64;
        let mut ops = 0u64;
        // `Err` carries the hoisted (uniform) value, `Ok` the per-lane slab.
        let idx_src = if idx.uniform {
            let v = self.eval_uniform(idx, &mut hoist_ops)?;
            if matches!(v, Lv::F) {
                return Err(SimError::TypeMismatch("expected int, found float".into()));
            }
            Err(v)
        } else {
            Ok(self.eval_vec(idx, mask, &mut ops)?)
        };
        let val_src = if value.uniform {
            Err(self.eval_uniform(value, &mut hoist_ops)?)
        } else {
            Ok(self.eval_vec(value, mask, &mut ops)?)
        };
        let mut count = 0u64;
        let r = self.store_lanes(mask, buf, &idx_src, &val_src, &mut count);
        if let Ok(s) = idx_src {
            self.put(s);
        }
        if let Ok(s) = val_src {
            self.put(s);
        }
        r?;
        self.stats.alu_ops += ops + hoist_ops * count;
        Ok(())
    }

    fn store_lanes(
        &mut self,
        mask: &[bool],
        buf: BufSlot,
        idx_src: &Result<Vec<Lv>, Lv>,
        val_src: &Result<Vec<Lv>, Lv>,
        count: &mut u64,
    ) -> Result<(), SimError> {
        let n = self.n_items;
        let lane_idx = |i: usize| match idx_src {
            Ok(s) => index_of(s[i]),
            Err(pre) => index_of(*pre),
        };
        let lane_val = |i: usize| match val_src {
            Ok(s) => s[i],
            Err(pre) => *pre,
        };
        match buf {
            BufSlot::Global { slot, name } => {
                let base = self.plan.global_bases[slot as usize];
                let len = self.params[slot as usize].1;
                let mut stores = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    match lane_idx(i)? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            self.pend_stores[i].push(base + index as u64 * 4);
                        }
                        None => {
                            // Worst case: the store coalesces with nothing
                            // and touches a never-seen segment.
                            self.stats.store_transactions += 1;
                            self.synthetic_segments += 1;
                            self.exact = false;
                        }
                    }
                    stores += 1;
                }
                self.stats.global_stores += stores;
                if stores > 0 {
                    self.any_pend = true;
                }
                Ok(())
            }
            BufSlot::LocalF { off: _, len, name } => {
                let len = len as usize;
                let mut accesses = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    if let Some(index) = lane_idx(i)? {
                        if index < 0 || index as usize >= len {
                            return Err(self.oob(name, index, len));
                        }
                    }
                    accesses += 1;
                }
                self.stats.local_accesses += accesses;
                Ok(())
            }
            BufSlot::LocalV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let mut accesses = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let v = lane_val(i);
                    match lane_idx(i)? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            self.locals_v[off + index as usize] = v;
                        }
                        None => {
                            // The write could land anywhere in the buffer.
                            for slot in &mut self.locals_v[off..off + len] {
                                *slot = lv_join(*slot, v);
                            }
                        }
                    }
                    accesses += 1;
                }
                self.stats.local_accesses += accesses;
                Ok(())
            }
            BufSlot::PrivF { off: _, len, name } => {
                let len = len as usize;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    if let Some(index) = lane_idx(i)? {
                        if index < 0 || index as usize >= len {
                            return Err(self.oob(name, index, len));
                        }
                    }
                }
                Ok(())
            }
            BufSlot::PrivV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_v_total;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let v = lane_val(i);
                    match lane_idx(i)? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            self.privs_v[i * stride + off + index as usize] = v;
                        }
                        None => {
                            for slot in &mut self.privs_v[i * stride + off..i * stride + off + len]
                            {
                                *slot = lv_join(*slot, v);
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn for_head(
        &mut self,
        parent: &[bool],
        child: &mut Vec<bool>,
        row: Row,
        bound: ExprRef,
        pc: usize,
    ) -> Result<bool, SimError> {
        child.clear();
        child.resize(self.n_items, false);
        let n = self.n_items;
        let before = self.stats.alu_ops;
        let mut any = false;
        let mut row_iv: Option<Interval> = None;
        let mut bound_iv: Option<Interval> = None;
        let join = |iv: &mut Option<Interval>, v: i64| {
            *iv = Some(match *iv {
                None => Interval::point(v),
                Some(cur) => cur.join(Interval::point(v)),
            });
        };
        if bound.uniform {
            let mut ops = 0u64;
            let b = self.eval_uniform(bound, &mut ops)?;
            let Some(b) = index_of(b)? else {
                return Err(est_err("loop bound depends on untracked data"));
            };
            join(&mut bound_iv, b);
            let mut count = 0u64;
            for i in 0..n {
                if !parent[i] {
                    continue;
                }
                let Some(cur) = index_of(self.row_lane(row, i))? else {
                    return Err(est_err("loop counter depends on untracked data"));
                };
                self.stats.alu_ops += 1; // the comparison
                if cur < b {
                    child[i] = true;
                    any = true;
                }
                count += 1;
                join(&mut row_iv, cur);
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let bv = self.eval_vec(bound, parent, &mut ops)?;
            let mut compared = 0u64;
            let mut fault = None;
            for i in 0..n {
                if !parent[i] {
                    continue;
                }
                let cur = match index_of(self.row_lane(row, i)) {
                    Ok(Some(v)) => v,
                    Ok(None) => {
                        fault = Some(est_err("loop counter depends on untracked data"));
                        break;
                    }
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                };
                let b = match index_of(bv[i]) {
                    Ok(Some(v)) => v,
                    Ok(None) => {
                        fault = Some(est_err("loop bound depends on untracked data"));
                        break;
                    }
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                };
                compared += 1;
                if cur < b {
                    child[i] = true;
                    any = true;
                }
                join(&mut row_iv, cur);
                join(&mut bound_iv, b);
            }
            self.put(bv);
            if let Some(e) = fault {
                return Err(e);
            }
            self.stats.alu_ops += compared + ops;
        }
        if any {
            if self.loop_iters[pc] == 0 {
                // A minimum step of one gives the largest possible trip
                // count; a non-positive step never terminates.
                let (ri, bi) = (
                    row_iv.expect("any implies a compared lane"),
                    bound_iv.expect("any implies a compared lane"),
                );
                self.loop_limits[pc] = ri
                    .trip_count(bi, 1)
                    .unwrap_or(u64::MAX)
                    .min(REPLAY_MAX_TRIPS);
            }
            self.loop_iters[pc] += 1;
            if self.loop_iters[pc] > self.loop_limits[pc] {
                return Err(est_err("loop replay exceeded its interval trip bound"));
            }
        } else {
            self.loop_iters[pc] = 0;
        }
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok(any)
    }

    fn for_step(&mut self, mask: &[bool], row: Row, step: ExprRef) -> Result<(), SimError> {
        let n = self.n_items;
        let before = self.stats.alu_ops;
        let add = |cur: Lv, st: Lv| -> Result<Lv, SimError> {
            let c = index_of(cur)?;
            let s = index_of(st)?;
            Ok(match (c, s) {
                (Some(a), Some(b)) => Lv::I(a.wrapping_add(b)),
                _ => Lv::Un,
            })
        };
        if step.uniform {
            let mut ops = 0u64;
            let st = self.eval_uniform(step, &mut ops)?;
            let mut count = 0u64;
            for (i, &live) in mask.iter().enumerate().take(n) {
                if !live {
                    continue;
                }
                let next = add(self.row_lane(row, i), st)?;
                self.set_row_lane(row, i, next);
                count += 1;
            }
            self.stats.alu_ops += count + ops * count;
        } else {
            let mut ops = 0u64;
            let sv = self.eval_vec(step, mask, &mut ops)?;
            let mut count = 0u64;
            let mut fault = None;
            for i in 0..n {
                if !mask[i] {
                    continue;
                }
                match add(self.row_lane(row, i), sv[i]) {
                    Ok(next) => {
                        self.set_row_lane(row, i, next);
                        count += 1;
                    }
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                }
            }
            self.put(sv);
            if let Some(e) = fault {
                return Err(e);
            }
            self.stats.alu_ops += count + ops;
        }
        simd_charge(&mut self.stats, self.warp, mask, before);
        self.flush(mask);
        Ok(())
    }

    fn if_head(
        &mut self,
        parent: &[bool],
        t: &mut Vec<bool>,
        e: &mut Vec<bool>,
        cond: ExprRef,
    ) -> Result<(bool, bool, bool), SimError> {
        t.clear();
        t.resize(self.n_items, false);
        e.clear();
        e.resize(self.n_items, false);
        let before = self.stats.alu_ops;
        let (mut any_t, mut any_e, mut unknown) = (false, false, false);
        if cond.uniform {
            let mut ops = 0u64;
            let c = cond_of(self.eval_uniform(cond, &mut ops)?)?;
            let mut count = 0u64;
            for i in 0..self.n_items {
                if !parent[i] {
                    continue;
                }
                match c {
                    Some(true) => {
                        t[i] = true;
                        any_t = true;
                    }
                    Some(false) => {
                        e[i] = true;
                        any_e = true;
                    }
                    None => {
                        t[i] = true;
                        e[i] = true;
                        any_t = true;
                        any_e = true;
                        unknown = true;
                    }
                }
                count += 1;
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let cv = self.eval_vec(cond, parent, &mut ops)?;
            let mut fault = None;
            for i in 0..self.n_items {
                if !parent[i] {
                    continue;
                }
                match cond_of(cv[i]) {
                    Ok(Some(true)) => {
                        t[i] = true;
                        any_t = true;
                    }
                    Ok(Some(false)) => {
                        e[i] = true;
                        any_e = true;
                    }
                    Ok(None) => {
                        t[i] = true;
                        e[i] = true;
                        any_t = true;
                        any_e = true;
                        unknown = true;
                    }
                    Err(err) => {
                        fault = Some(err);
                        break;
                    }
                }
            }
            self.put(cv);
            if let Some(err) = fault {
                return Err(err);
            }
            self.stats.alu_ops += ops;
        }
        if unknown {
            self.exact = false;
        }
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok((any_t, any_e, unknown))
    }

    /// Evaluates a lane-invariant expression once under the one-lane mask;
    /// the caller multiplies `ops` by the active-lane count (uniform
    /// expressions read no scalars, loads or ids, so lane 0 is every lane).
    fn eval_uniform(&mut self, er: ExprRef, ops: &mut u64) -> Result<Lv, SimError> {
        let um = std::mem::take(&mut self.uni_mask);
        let r = self.eval_vec(er, &um, ops);
        self.uni_mask = um;
        let v = r?;
        let out = v[0];
        self.put(v);
        Ok(out)
    }

    /// Op-major replay of one compiled expression over the active lanes of
    /// `mask`, with the executor's exact op counting; returns the per-lane
    /// result slab (inactive lanes are unknown and never consumed).
    fn eval_vec(
        &mut self,
        er: ExprRef,
        stmt_mask: &[bool],
        ops: &mut u64,
    ) -> Result<Vec<Lv>, SimError> {
        let n = self.n_items;
        let stmt_count = stmt_mask.iter().filter(|&&b| b).count() as u64;
        let mut stack: Vec<Vec<Lv>> = Vec::new();
        let mut frames: Vec<CFrame> = Vec::new();
        macro_rules! cur_mask {
            () => {
                match frames.last() {
                    Some(f) if f.in_else => (f.mask_else.as_slice(), f.count_else),
                    Some(f) => (f.mask_then.as_slice(), f.count_then),
                    None => (stmt_mask, stmt_count),
                }
            };
        }
        macro_rules! bail {
            ($e:expr) => {{
                for s in stack.drain(..) {
                    self.put(s);
                }
                for f in frames.drain(..) {
                    if let Some(s) = f.saved {
                        self.put(s);
                    }
                }
                return Err($e);
            }};
        }
        for pc in er.start as usize..er.end as usize {
            match self.plan.ecode[pc] {
                EOp::I(c) => {
                    let mut v = self.get();
                    v.fill(Lv::I(c));
                    stack.push(v);
                }
                EOp::F(_) => {
                    let mut v = self.get();
                    v.fill(Lv::F);
                    stack.push(v);
                }
                EOp::B(c) => {
                    let mut v = self.get();
                    v.fill(Lv::B(c));
                    stack.push(v);
                }
                EOp::Scalar(row) => {
                    let mut v = self.get();
                    match row {
                        Row::I(r) => {
                            v.copy_from_slice(&self.ivals[r as usize * n..(r as usize + 1) * n]);
                        }
                        Row::V(r) => {
                            v.copy_from_slice(&self.vvals[r as usize * n..(r as usize + 1) * n]);
                        }
                    }
                    stack.push(v);
                }
                EOp::WorkItem(f, d) => {
                    let mut v = self.get();
                    let d = d as usize;
                    match f {
                        WorkItemFn::GlobalId => {
                            let base = self.group_id[d] * self.cfg.local[d];
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = Lv::I((base + self.lids[i][d]) as i64);
                            }
                        }
                        WorkItemFn::LocalId => {
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = Lv::I(self.lids[i][d] as i64);
                            }
                        }
                        WorkItemFn::GroupId => v.fill(Lv::I(self.group_id[d] as i64)),
                        WorkItemFn::GlobalSize => v.fill(Lv::I(self.cfg.global[d] as i64)),
                        WorkItemFn::LocalSize => v.fill(Lv::I(self.cfg.local[d] as i64)),
                        WorkItemFn::NumGroups => v.fill(Lv::I(self.cfg.groups()[d] as i64)),
                    }
                    stack.push(v);
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("binary operand");
                    let mut a = stack.pop().expect("binary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut fault = None;
                    for i in 0..n {
                        if !mask[i] {
                            a[i] = Lv::Un;
                            continue;
                        }
                        match lv_bin(op, a[i], b[i]) {
                            Ok(v) => a[i] = v,
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                    self.put(b);
                    if let Some(e) = fault {
                        self.put(a);
                        bail!(e);
                    }
                    stack.push(a);
                }
                EOp::Un(op) => {
                    let mut a = stack.pop().expect("unary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    for i in 0..n {
                        a[i] = if mask[i] { lv_un(op, a[i]) } else { Lv::Un };
                    }
                    stack.push(a);
                }
                EOp::Call { fun: _, argc, cost } => {
                    let (_, count) = cur_mask!();
                    *ops += cost * count;
                    for _ in 0..argc {
                        let v = stack.pop().expect("call argument");
                        self.put(v);
                    }
                    // A user function's result depends on its (float)
                    // arguments, which are untracked.
                    let mut out = self.get();
                    out.fill(Lv::Un);
                    stack.push(out);
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    let (mask, _) = cur_mask!();
                    // Split borrows: copy the mask ref is fine (frames not
                    // touched by load_vec).
                    let r = self.load_vec(buf, &idx, mask);
                    self.put(idx);
                    match r {
                        Ok(v) => stack.push(v),
                        Err(e) => bail!(e),
                    }
                }
                EOp::Cast(t) => {
                    let mut a = stack.pop().expect("cast operand");
                    for slot in a.iter_mut() {
                        *slot = cast_lv(t, *slot);
                    }
                    stack.push(a);
                }
                EOp::SelSplit => {
                    let cond = stack.pop().expect("select condition");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut mt = vec![false; n];
                    let mut me = vec![false; n];
                    let (mut ct, mut ce) = (0u64, 0u64);
                    let mut fault = None;
                    let mut unknown = false;
                    for i in 0..n {
                        if !mask[i] {
                            continue;
                        }
                        match cond_of(cond[i]) {
                            Ok(Some(true)) => {
                                mt[i] = true;
                                ct += 1;
                            }
                            Ok(Some(false)) => {
                                me[i] = true;
                                ce += 1;
                            }
                            Ok(None) => {
                                // Unknown: the lane evaluates one arm in
                                // reality; charge both (upper bound).
                                mt[i] = true;
                                me[i] = true;
                                ct += 1;
                                ce += 1;
                                unknown = true;
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                    self.put(cond);
                    if let Some(e) = fault {
                        bail!(e);
                    }
                    if unknown {
                        self.exact = false;
                    }
                    frames.push(CFrame {
                        mask_then: mt,
                        count_then: ct,
                        mask_else: me,
                        count_else: ce,
                        in_else: false,
                        saved: None,
                    });
                }
                EOp::SelSwap => {
                    let f = frames.last_mut().expect("select frame");
                    f.saved = Some(stack.pop().expect("then value"));
                    f.in_else = true;
                }
                EOp::SelJoin => {
                    let f = frames.pop().expect("select frame");
                    let mut e = stack.pop().expect("else value");
                    let t = f.saved.expect("then value parked");
                    for i in 0..n {
                        e[i] = match (f.mask_then[i], f.mask_else[i]) {
                            (true, true) => lv_join(t[i], e[i]),
                            (true, false) => t[i],
                            (false, true) => e[i],
                            (false, false) => Lv::Un,
                        };
                    }
                    self.put(t);
                    stack.push(e);
                }
            }
        }
        Ok(stack.pop().expect("expression produces a value"))
    }

    fn load_vec(&mut self, buf: BufSlot, idx: &[Lv], mask: &[bool]) -> Result<Vec<Lv>, SimError> {
        let n = self.n_items;
        let mut out = self.get();
        out.fill(Lv::Un);
        match buf {
            BufSlot::Global { slot, name } => {
                let base = self.plan.global_bases[slot as usize];
                let (elem, len) = self.params[slot as usize];
                let loaded = if elem == CType::Float { Lv::F } else { Lv::Un };
                let mut count = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    match index_of(idx[i]) {
                        Ok(Some(index)) => {
                            if index < 0 || index as usize >= len {
                                let e = self.oob(name, index, len);
                                self.put(out);
                                return Err(e);
                            }
                            self.pend_loads[i].push(base + index as u64 * 4);
                        }
                        Ok(None) => {
                            self.stats.load_transactions += 1;
                            self.synthetic_segments += 1;
                            self.exact = false;
                        }
                        Err(e) => {
                            self.put(out);
                            return Err(e);
                        }
                    }
                    out[i] = loaded;
                    count += 1;
                }
                self.stats.global_loads += count;
                if count > 0 {
                    self.any_pend = true;
                }
                Ok(out)
            }
            BufSlot::LocalF { off: _, len, name } => {
                let len = len as usize;
                let mut count = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    match index_of(idx[i]) {
                        Ok(Some(index)) if index < 0 || index as usize >= len => {
                            let e = self.oob(name, index, len);
                            self.put(out);
                            return Err(e);
                        }
                        Ok(_) => {}
                        Err(e) => {
                            self.put(out);
                            return Err(e);
                        }
                    }
                    out[i] = Lv::F;
                    count += 1;
                }
                self.stats.local_accesses += count;
                Ok(out)
            }
            BufSlot::LocalV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let mut count = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    match index_of(idx[i]) {
                        Ok(Some(index)) => {
                            if index < 0 || index as usize >= len {
                                let e = self.oob(name, index, len);
                                self.put(out);
                                return Err(e);
                            }
                            out[i] = self.locals_v[off + index as usize];
                        }
                        Ok(None) => out[i] = Lv::Un,
                        Err(e) => {
                            self.put(out);
                            return Err(e);
                        }
                    }
                    count += 1;
                }
                self.stats.local_accesses += count;
                Ok(out)
            }
            BufSlot::PrivF { off: _, len, name } => {
                let len = len as usize;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    match index_of(idx[i]) {
                        Ok(Some(index)) if index < 0 || index as usize >= len => {
                            let e = self.oob(name, index, len);
                            self.put(out);
                            return Err(e);
                        }
                        Ok(_) => {}
                        Err(e) => {
                            self.put(out);
                            return Err(e);
                        }
                    }
                    out[i] = Lv::F;
                }
                Ok(out)
            }
            BufSlot::PrivV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_v_total;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    match index_of(idx[i]) {
                        Ok(Some(index)) => {
                            if index < 0 || index as usize >= len {
                                let e = self.oob(name, index, len);
                                self.put(out);
                                return Err(e);
                            }
                            out[i] = self.privs_v[i * stride + off + index as usize];
                        }
                        Ok(None) => out[i] = Lv::Un,
                        Err(e) => {
                            self.put(out);
                            return Err(e);
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    fn oob(&self, name: u16, index: i64, len: usize) -> SimError {
        SimError::OutOfBounds {
            buffer: self.plan.buf_names[name as usize].clone(),
            index,
            len,
        }
    }

    /// The per-warp 128-byte coalescing flush, identical to the executor's.
    fn flush(&mut self, mask: &[bool]) {
        if !self.any_pend {
            return;
        }
        let warp = self.warp.max(1);
        let n = self.n_items;
        for kind in 0..2 {
            let pend = if kind == 0 {
                &self.pend_loads
            } else {
                &self.pend_stores
            };
            let max_ord = pend.iter().map(|p| p.len()).max().unwrap_or(0);
            if max_ord == 0 {
                continue;
            }
            for warp_start in (0..n).step_by(warp) {
                for k in 0..max_ord {
                    self.segs.clear();
                    #[allow(clippy::needless_range_loop)] // parallel indexing into mask + pends
                    for i in warp_start..(warp_start + warp).min(n) {
                        if !mask[i] {
                            continue;
                        }
                        if let Some(addr) = pend[i].get(k) {
                            self.segs.push(addr / crate::perf::SEGMENT_BYTES);
                        }
                    }
                    if self.segs.is_empty() {
                        continue;
                    }
                    self.segs.sort_unstable();
                    self.segs.dedup();
                    if kind == 0 {
                        self.stats.load_transactions += self.segs.len() as u64;
                    } else {
                        self.stats.store_transactions += self.segs.len() as u64;
                    }
                    for s in &self.segs {
                        self.stats.seen_segments.insert(*s);
                    }
                }
            }
        }
        for p in &mut self.pend_loads {
            p.clear();
        }
        for p in &mut self.pend_stores {
            p.clear();
        }
        self.any_pend = false;
    }
}
