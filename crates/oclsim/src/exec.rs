//! The lock-step work-group executor that runs every launch.
//!
//! Work-items of one group execute each statement together (an active-mask
//! walks the statements, as in POCL's work-item loops): local-memory
//! writes made before a barrier are visible after it, and a barrier reached
//! under a divergent mask is reported as an error — the same constraint the
//! OpenCL specification places on real devices.
//!
//! The plan engine, `PlanMachine`, is the production inner loop: a
//! register machine driving a pre-compiled [`Plan`] (see [`crate::plan`])
//! with one scratch arena reused across every work-group of a launch. It
//! runs only the types plan compilation fixed — every op evaluates into a
//! homogeneous `i64`, `f32` or `bool` slab — which is what makes the
//! simulator fast enough to sit on the autotuner's hot path. It also
//! prices launches: [`crate::cost`] runs it on zero-filled buffers and
//! has no counting code of its own.
//!
//! The tree-walking reference interpreter in `crate::reference` shares
//! [`SimError`], `call_cost` and `simd_charge` with it. The differential
//! suite runs every benchmark through both engines; outputs,
//! [`KernelStats`] and modeled times must match bit-for-bit on every
//! kernel the plan compiler accepts.

use std::error::Error;
use std::fmt;

use lift_codegen::clike::{BinOp, CType, UnOp, WorkItemFn};
use lift_core::scalar::Scalar;

use crate::perf::{KernelStats, SEGMENT_BYTES};
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan, Row};
use crate::runtime::{BufferData, LaunchConfig};

/// A simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Buffer access outside its allocation.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Offending element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// `barrier()` reached while work-items of the group have diverged.
    BarrierDivergence,
    /// Launch configuration invalid for this kernel/device.
    BadLaunch(String),
    /// A value of the wrong type: the cause of a [`SimError::PlanCompile`]
    /// for a kernel that does not type, a user function whose `eval`
    /// returns another type than it declares, or — in the reference
    /// interpreter only — an ill-typed operation reached at run time.
    TypeMismatch(String),
    /// Integer division by zero in generated index math.
    DivisionByZero,
    /// Variable read before assignment (compiler bug).
    UnboundVariable(String),
    /// Plan compilation rejected the kernel before simulation: the wrapped
    /// cause (an [`SimError::UnboundVariable`], or a
    /// [`SimError::TypeMismatch`] for a kernel that does not type) names
    /// the kernel and statement it sits in.
    PlanCompile {
        /// Where in the kernel the fault sits (kernel name plus the
        /// statement breadcrumb trail).
        context: String,
        /// The underlying fault.
        cause: Box<SimError>,
    },
    /// The cost model refuses to estimate this kernel: buffer data reaches
    /// its control flow or global addressing, so a run on zero-filled
    /// buffers would not count what a real run counts. The message names
    /// the site. Never raised by the executors themselves.
    Estimate(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { buffer, index, len } => write!(
                f,
                "out-of-bounds access to `{buffer}`: index {index}, length {len}"
            ),
            SimError::BarrierDivergence => {
                write!(f, "barrier() reached in divergent control flow")
            }
            SimError::BadLaunch(m) => write!(f, "invalid launch: {m}"),
            SimError::TypeMismatch(m) => write!(f, "value kind mismatch: {m}"),
            SimError::DivisionByZero => write!(f, "division by zero in kernel"),
            SimError::UnboundVariable(v) => write!(f, "variable `{v}` read before assignment"),
            SimError::PlanCompile { context, cause } => {
                write!(f, "plan compilation failed in {context}: {cause}")
            }
            SimError::Estimate(m) => write!(f, "cost estimate unavailable: {m}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::PlanCompile { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// Estimated scalar-op cost of calling a user function, from its C body:
/// one unit per cheap arithmetic/compare op, with division and
/// transcendental calls weighted like real GPU ALUs (divides and `sqrt`
/// retire roughly an order of magnitude slower than fused adds — this is
/// what makes SRAD compute-heavy relative to Jacobi).
pub(crate) fn call_cost(body: &str) -> u64 {
    let cheap = body
        .chars()
        .filter(|c| matches!(c, '+' | '-' | '*' | '<' | '>' | '?'))
        .count() as u64;
    let divides = body.matches('/').count() as u64;
    let transcendental = body.matches("sqrt").count() as u64
        + body.matches("exp").count() as u64
        + body.matches("log").count() as u64;
    (cheap + 8 * divides + 8 * transcendental).max(1)
}

/// SIMD lock-step cost, shared verbatim by both engines: a warp executes a
/// statement for *all* its lanes even when only some are active. After
/// running a statement batch that retired `alu_ops − before` ops over the
/// active lanes of `mask`, charge the idle lanes of every touched warp
/// proportionally.
pub(crate) fn simd_charge(stats: &mut KernelStats, warp: usize, mask: &[bool], before: u64) {
    let delta = stats.alu_ops - before;
    if delta == 0 {
        return;
    }
    let warp = warp.max(1);
    let mut active_lanes = 0u64;
    let mut touched_lanes = 0u64;
    for chunk in mask.chunks(warp) {
        let a = chunk.iter().filter(|&&b| b).count() as u64;
        if a > 0 {
            active_lanes += a;
            touched_lanes += warp as u64;
        }
    }
    if active_lanes == 0 || touched_lanes == active_lanes {
        return;
    }
    let full_cost = delta * touched_lanes / active_lanes;
    stats.alu_ops += full_cost - delta;
    stats.divergence_ops += full_cost - delta;
}

// ---------------------------------------------------------------------------
// The plan executor
// ---------------------------------------------------------------------------

/// A vector of per-lane values of the type plan compilation fixed for the
/// op that produced it. Infallible ops run unmasked over every lane —
/// lanes outside the active mask may hold garbage, which is harmless
/// because no consumer ever reads an inactive lane.
enum Slab {
    I(Vec<i64>),
    F(Vec<f32>),
    B(Vec<bool>),
}

impl Slab {
    /// The lanes of an `int` operand (indices, loop bounds and steps).
    fn ints(&self) -> &[i64] {
        match self {
            Slab::I(d) => d,
            _ => unreachable!("plan typing makes this operand int"),
        }
    }

    /// The lanes of a `float` operand (local and private stores).
    fn floats(&self) -> &[f32] {
        match self {
            Slab::F(d) => d,
            _ => unreachable!("plan typing makes this operand float"),
        }
    }

    /// The lanes of a `bool` operand (branch and select conditions).
    fn bools(&self) -> &[bool] {
        match self {
            Slab::B(d) => d,
            _ => unreachable!("plan typing makes this operand bool"),
        }
    }

    /// Lane `i` as a user-function argument.
    fn scalar(&self, i: usize) -> Scalar {
        match self {
            Slab::I(d) => Scalar::I32(d[i] as i32),
            Slab::F(d) => Scalar::F32(d[i]),
            Slab::B(d) => Scalar::Bool(d[i]),
        }
    }
}

/// One `?:` select in flight during a vector evaluation: the lane split,
/// which arm is executing, and the parked then-value.
struct SelFrame {
    mask_then: Vec<bool>,
    count_then: u64,
    mask_else: Vec<bool>,
    count_else: u64,
    in_else: bool,
    saved: Option<Slab>,
}

/// The register-machine inner loop: drives a pre-compiled [`Plan`] with one
/// scratch arena (scalar register rows, local/private arenas, pending-access
/// queues, mask slots, slab pools) allocated once per launch and reused
/// across every work-group.
///
/// Expressions evaluate **op-major**: each bytecode op executes for every
/// active lane before the next op, over pooled [`Slab`]s of the type the
/// plan fixed — one dispatch per op per group instead of per op per
/// work-item, with unboxed loops throughout. Semantics — statement order,
/// per-lane laziness of `?:` (via mask splits), event counting,
/// [`simd_charge`] and the coalescing flush — mirror [`Machine`] exactly;
/// lane-invariant (`uniform`) expressions are evaluated once per group with
/// their ALU cost multiplied by the active-lane count. Every counter stays
/// bit-identical to the tree interpreter.
///
/// [`Machine`]: crate::reference::Machine
pub(crate) struct PlanMachine<'a> {
    plan: &'a Plan,
    global: &'a mut [BufferData],
    pub(crate) stats: KernelStats,
    warp: usize,
    cfg: LaunchConfig,
    n_items: usize,
    group_id: [usize; 3],
    /// Local id per work-item (precomputed once).
    lids: Vec<[usize; 3]>,
    /// Scalar register rows, slot-major: `n_int_rows × n_items` integers
    /// and `n_float_rows × n_items` floats.
    iscalars: Vec<i64>,
    fscalars: Vec<f32>,
    /// The local-memory arena (shared by the group).
    locals: Vec<f32>,
    /// The private arena, one block of `priv_total` per item.
    privs: Vec<f32>,
    /// Pending global accesses per item for the coalescing flush.
    pend_loads: Vec<Vec<u64>>,
    pend_stores: Vec<Vec<u64>>,
    any_pend: bool,
    /// Mask slots; `masks[0]` is the all-true base mask.
    masks: Vec<Vec<bool>>,
    /// Whether mask slot `i` had any active lane when last written.
    mask_any: Vec<bool>,
    mask_stack: Vec<u16>,
    /// Slab pools for the op-major evaluator.
    ipool: Vec<Vec<i64>>,
    fpool: Vec<Vec<f32>>,
    bpool: Vec<Vec<bool>>,
    /// The evaluator's operand stack and select frames (reused across
    /// every expression of the launch).
    estack: Vec<Slab>,
    eframes: Vec<SelFrame>,
    /// The one-lane mask uniform expressions evaluate under.
    uni_mask: Vec<bool>,
    /// User-function argument scratch.
    args: Vec<Scalar>,
    /// Segment scratch for the coalescing flush.
    segs: Vec<u64>,
}

impl<'a> PlanMachine<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        global: &'a mut [BufferData],
        cfg: LaunchConfig,
        warp: usize,
    ) -> Self {
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
        PlanMachine {
            plan,
            global,
            stats,
            warp,
            cfg,
            n_items,
            group_id: [0, 0, 0],
            lids,
            iscalars: vec![0; plan.n_int_rows * n_items],
            fscalars: vec![0.0; plan.n_float_rows * n_items],
            locals: vec![0.0; plan.local_total],
            privs: vec![0.0; plan.priv_total * n_items],
            pend_loads: vec![Vec::new(); n_items],
            pend_stores: vec![Vec::new(); n_items],
            any_pend: false,
            masks: (0..n_masks).map(|i| vec![i == 0; n_items]).collect(),
            mask_any: vec![false; n_masks],
            mask_stack: Vec::with_capacity(n_masks),
            ipool: Vec::new(),
            fpool: Vec::new(),
            bpool: Vec::new(),
            estack: Vec::with_capacity(8),
            eframes: Vec::new(),
            uni_mask: {
                let mut m = vec![false; n_items.max(1)];
                m[0] = true;
                m
            },
            args: Vec::with_capacity(4),
            segs: Vec::with_capacity(warp.max(1)),
        }
    }

    fn iget(&mut self) -> Vec<i64> {
        self.ipool.pop().unwrap_or_else(|| vec![0; self.n_items])
    }

    fn fget(&mut self) -> Vec<f32> {
        self.fpool.pop().unwrap_or_else(|| vec![0.0; self.n_items])
    }

    fn bget(&mut self) -> Vec<bool> {
        self.bpool
            .pop()
            .unwrap_or_else(|| vec![false; self.n_items])
    }

    /// A pooled slab for values of type `ty`.
    fn slab(&mut self, ty: CType) -> Slab {
        match ty {
            CType::Int => Slab::I(self.iget()),
            CType::Float => Slab::F(self.fget()),
            CType::Bool => Slab::B(self.bget()),
        }
    }

    fn sput(&mut self, s: Slab) {
        match s {
            Slab::I(v) => self.ipool.push(v),
            Slab::F(v) => self.fpool.push(v),
            Slab::B(v) => self.bpool.push(v),
        }
    }

    pub(crate) fn run(&mut self) -> Result<(), SimError> {
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
        Ok(())
    }

    /// Re-arms the scratch arena for the next work-group: scalars read
    /// before assignment are zero of their declared type, private and
    /// local storage is float zero. [`Machine::make_group`] starts every
    /// scalar as integer zero instead; only a read before any write — a
    /// verifier `UninitRead` finding — can tell the two apart.
    ///
    /// [`Machine::make_group`]: crate::reference::Machine::make_group
    fn reset_group(&mut self) {
        self.iscalars.fill(0);
        self.fscalars.fill(0.0);
        self.locals.fill(0.0);
        self.privs.fill(0.0);
        self.mask_stack.clear();
        self.mask_stack.push(0);
    }

    fn exec(&mut self) -> Result<(), SimError> {
        let plan = self.plan;
        let mut pc = 0usize;
        while pc < plan.code.len() {
            match &plan.code[pc] {
                Inst::SetScalar { row, value, charge } => {
                    let (row, value, charge) = (*row, *value, *charge);
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let before = self.stats.alu_ops;
                    let r = self.set_scalar(&mask, row, value);
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
                    let (buf, idx, value) = (*buf, *idx, *value);
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
                    let (row, bound, mslot, exit) = (*row, *bound, *mask as usize, *exit as usize);
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut child = std::mem::take(&mut self.masks[mslot]);
                    let r = self.for_head(&parent, &mut child, row, bound);
                    self.masks[ps] = parent;
                    self.masks[mslot] = child;
                    if r? {
                        self.mask_stack.push(mslot as u16);
                        pc += 1;
                    } else {
                        pc = exit;
                    }
                }
                Inst::ForStep { row, step, head } => {
                    let (row, step, head) = (*row, *step, *head as usize);
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let r = self.for_step(&mask, row, step);
                    self.masks[ms] = mask;
                    r?;
                    self.mask_stack.pop();
                    pc = head;
                }
                Inst::IfHead {
                    cond,
                    tmask,
                    emask,
                    els,
                    end,
                } => {
                    let (cond, tm, em) = (*cond, *tmask as usize, *emask as usize);
                    let (els, end) = (*els as usize, *end as usize);
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut t = std::mem::take(&mut self.masks[tm]);
                    let mut e = std::mem::take(&mut self.masks[em]);
                    let r = self.if_head(&parent, &mut t, &mut e, cond);
                    self.masks[ps] = parent;
                    self.masks[tm] = t;
                    self.masks[em] = e;
                    let (any_t, any_e) = r?;
                    self.mask_any[tm] = any_t;
                    self.mask_any[em] = any_e;
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
                    self.mask_stack.pop();
                    if self.mask_any[*emask as usize] {
                        self.mask_stack.push(*emask);
                        pc = *els as usize;
                    } else {
                        pc = *end as usize;
                    }
                }
                Inst::EndIf => {
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

    #[inline]
    fn top_mask(&self) -> usize {
        *self.mask_stack.last().expect("mask stack never empties") as usize
    }

    /// Evaluates a statement operand: once per group when it is
    /// lane-invariant, its ALU ops into `hoist_ops` for the caller to
    /// multiply by the active-lane count; per lane otherwise, its ops into
    /// `ops`. Returns the slab with the lane stride to read it at — 0
    /// broadcasts a hoisted value's lane 0 — leaving
    /// [`KernelStats::alu_ops`] identical to per-lane evaluation.
    fn operand(
        &mut self,
        er: ExprRef,
        mask: &[bool],
        ops: &mut u64,
        hoist_ops: &mut u64,
    ) -> Result<(Slab, usize), SimError> {
        if er.uniform {
            let um = std::mem::take(&mut self.uni_mask);
            let r = self.eval_vec(er, &um, hoist_ops);
            self.uni_mask = um;
            Ok((r?, 0))
        } else {
            Ok((self.eval_vec(er, mask, ops)?, 1))
        }
    }

    fn set_scalar(&mut self, mask: &[bool], row: Row, value: ExprRef) -> Result<(), SimError> {
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (v, stride) = self.operand(value, mask, &mut ops, &mut hoist_ops)?;
        let n = self.n_items;
        let count = match (row, &v) {
            (Row::I(r), Slab::I(d)) => {
                write_lanes(&mut self.iscalars[r as usize * n..][..n], mask, d, stride)
            }
            (Row::F(r), Slab::F(d)) => {
                write_lanes(&mut self.fscalars[r as usize * n..][..n], mask, d, stride)
            }
            _ => unreachable!("plan typing gives a write its row's type"),
        };
        self.sput(v);
        self.stats.alu_ops += ops + hoist_ops * count;
        Ok(())
    }

    /// One store for every active lane, in lane order: bounds check,
    /// pending-access bookkeeping and the element write, exactly as the
    /// tree interpreter's item-by-item stores.
    fn store_stmt(
        &mut self,
        mask: &[bool],
        buf: BufSlot,
        idx: ExprRef,
        value: ExprRef,
    ) -> Result<(), SimError> {
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (idx, istride) = self.operand(idx, mask, &mut ops, &mut hoist_ops)?;
        let (val, vs) = self.operand(value, mask, &mut ops, &mut hoist_ops)?;
        let iv = idx.ints();
        let count = match buf {
            BufSlot::Global { slot, name } => {
                let slot = slot as usize;
                let base = self.plan.global_bases[slot];
                let len = self.global[slot].len();
                let pend = &mut self.pend_stores;
                let r = match (&mut self.global[slot], &val) {
                    (BufferData::F32(d), Slab::F(v)) => {
                        for_each_index(mask, iv, istride, len, |i, x| {
                            pend[i].push(base + x as u64 * 4);
                            d[x] = v[i * vs];
                        })
                    }
                    (BufferData::I32(d), Slab::I(v)) => {
                        for_each_index(mask, iv, istride, len, |i, x| {
                            pend[i].push(base + x as u64 * 4);
                            d[x] = v[i * vs] as i32;
                        })
                    }
                    _ => unreachable!("plan typing gives a store its buffer's type"),
                };
                let count = r.map_err(|index| self.oob(name, index, len))?;
                self.stats.global_stores += count;
                self.any_pend |= count > 0;
                count
            }
            BufSlot::Local { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let data = &mut self.locals[off..off + len];
                let v = val.floats();
                let count = for_each_index(mask, iv, istride, len, |i, x| data[x] = v[i * vs])
                    .map_err(|index| self.oob(name, index, len))?;
                self.stats.local_accesses += count;
                count
            }
            BufSlot::Priv { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_total;
                let privs = &mut self.privs;
                let v = val.floats();
                for_each_index(mask, iv, istride, len, |i, x| {
                    privs[i * stride + off + x] = v[i * vs];
                })
                .map_err(|index| self.oob(name, index, len))?
            }
        };
        self.sput(idx);
        self.sput(val);
        self.stats.alu_ops += ops + hoist_ops * count;
        Ok(())
    }

    fn for_head(
        &mut self,
        parent: &[bool],
        child: &mut Vec<bool>,
        row: Row,
        bound: ExprRef,
    ) -> Result<bool, SimError> {
        child.clear();
        child.resize(self.n_items, false);
        let before = self.stats.alu_ops;
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (bv, stride) = self.operand(bound, parent, &mut ops, &mut hoist_ops)?;
        let regs = &self.iscalars[self.int_row(row)];
        let bounds = bv.ints();
        let mut any = false;
        let mut compared = 0u64;
        for (i, &m) in parent.iter().enumerate() {
            if m {
                compared += 1;
                if regs[i] < bounds[i * stride] {
                    child[i] = true;
                    any = true;
                }
            }
        }
        self.sput(bv);
        // One comparison per lane, plus the bound's ops.
        self.stats.alu_ops += compared + ops + hoist_ops * compared;
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok(any)
    }

    fn for_step(&mut self, mask: &[bool], row: Row, step: ExprRef) -> Result<(), SimError> {
        let before = self.stats.alu_ops;
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (sv, stride) = self.operand(step, mask, &mut ops, &mut hoist_ops)?;
        let rows = self.int_row(row);
        let steps = sv.ints();
        let mut count = 0u64;
        for (i, (reg, &m)) in self.iscalars[rows].iter_mut().zip(mask).enumerate() {
            if m {
                *reg += steps[i * stride];
                count += 1;
            }
        }
        self.sput(sv);
        // One addition per lane, plus the step's ops.
        self.stats.alu_ops += count + ops + hoist_ops * count;
        simd_charge(&mut self.stats, self.warp, mask, before);
        self.flush(mask);
        Ok(())
    }

    /// Where the lanes of loop variable `row` sit in the int registers.
    fn int_row(&self, row: Row) -> std::ops::Range<usize> {
        let Row::I(r) = row else {
            unreachable!("plan typing makes loop variables int");
        };
        r as usize * self.n_items..(r as usize + 1) * self.n_items
    }

    fn if_head(
        &mut self,
        parent: &[bool],
        t: &mut Vec<bool>,
        e: &mut Vec<bool>,
        cond: ExprRef,
    ) -> Result<(bool, bool), SimError> {
        t.clear();
        t.resize(self.n_items, false);
        e.clear();
        e.resize(self.n_items, false);
        let before = self.stats.alu_ops;
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (cv, stride) = self.operand(cond, parent, &mut ops, &mut hoist_ops)?;
        let conds = cv.bools();
        let (mut any_t, mut any_e) = (false, false);
        let mut count = 0u64;
        for (i, &m) in parent.iter().enumerate() {
            if !m {
                continue;
            }
            count += 1;
            if conds[i * stride] {
                t[i] = true;
                any_t = true;
            } else {
                e[i] = true;
                any_e = true;
            }
        }
        self.sput(cv);
        self.stats.alu_ops += ops + hoist_ops * count;
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok((any_t, any_e))
    }

    /// Evaluates one compiled expression for every active lane of `mask`,
    /// op-major: each bytecode op runs across the lanes before the next op
    /// starts, over typed [`Slab`]s. Pure ALU costs accumulate into `ops`
    /// (already summed over lanes); memory events hit [`KernelStats`]
    /// directly, with per-lane side effects (pending-access queues, fault
    /// checks) identical to the tree interpreter's lane-by-lane
    /// evaluation. `?:` selects split the lane mask so each lane still
    /// evaluates only its taken arm.
    ///
    /// The operand stack and select-frame storage live in the machine
    /// (like every other scratch buffer) so evaluation never allocates;
    /// this wrapper also drains anything a fault left behind back into the
    /// pools.
    fn eval_vec(
        &mut self,
        er: ExprRef,
        stmt_mask: &[bool],
        ops: &mut u64,
    ) -> Result<Slab, SimError> {
        let mut stack = std::mem::take(&mut self.estack);
        let mut frames = std::mem::take(&mut self.eframes);
        let r = self.eval_vec_inner(er, stmt_mask, ops, &mut stack, &mut frames);
        for s in stack.drain(..) {
            self.sput(s);
        }
        for f in frames.drain(..) {
            if let Some(s) = f.saved {
                self.sput(s);
            }
            self.bpool.push(f.mask_then);
            self.bpool.push(f.mask_else);
        }
        self.estack = stack;
        self.eframes = frames;
        r
    }

    fn eval_vec_inner(
        &mut self,
        er: ExprRef,
        stmt_mask: &[bool],
        ops: &mut u64,
        stack: &mut Vec<Slab>,
        frames: &mut Vec<SelFrame>,
    ) -> Result<Slab, SimError> {
        let plan = self.plan;
        let n = self.n_items;
        let stmt_count = stmt_mask.iter().filter(|&&b| b).count() as u64;
        // The mask/count the current op runs under: the innermost select
        // arm, or the statement mask outside any select.
        macro_rules! cur_mask {
            () => {
                match frames.last() {
                    Some(f) if f.in_else => (f.mask_else.as_slice(), f.count_else),
                    Some(f) => (f.mask_then.as_slice(), f.count_then),
                    None => (stmt_mask, stmt_count),
                }
            };
        }
        for pc in er.start as usize..er.end as usize {
            match plan.ecode[pc] {
                EOp::I(c) => {
                    let mut v = self.iget();
                    v.fill(c);
                    stack.push(Slab::I(v));
                }
                EOp::F(c) => {
                    let mut v = self.fget();
                    v.fill(c);
                    stack.push(Slab::F(v));
                }
                EOp::B(c) => {
                    let mut v = self.bget();
                    v.fill(c);
                    stack.push(Slab::B(v));
                }
                EOp::Scalar(row) => {
                    // Copying every lane's register (not just active ones)
                    // is safe: registers are always initialised and
                    // inactive lanes' values are never consumed. Slot-major
                    // layout makes this one contiguous copy.
                    stack.push(match row {
                        Row::I(r) => {
                            let mut v = self.iget();
                            v.copy_from_slice(&self.iscalars[r as usize * n..][..n]);
                            Slab::I(v)
                        }
                        Row::F(r) => {
                            let mut v = self.fget();
                            v.copy_from_slice(&self.fscalars[r as usize * n..][..n]);
                            Slab::F(v)
                        }
                    });
                }
                EOp::WorkItem(f, d) => {
                    let mut v = self.iget();
                    let d = d as usize;
                    match f {
                        WorkItemFn::GlobalId => {
                            let base = self.group_id[d] * self.cfg.local[d];
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = (base + self.lids[i][d]) as i64;
                            }
                        }
                        WorkItemFn::LocalId => {
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = self.lids[i][d] as i64;
                            }
                        }
                        WorkItemFn::GroupId => v.fill(self.group_id[d] as i64),
                        WorkItemFn::GlobalSize => v.fill(self.cfg.global[d] as i64),
                        WorkItemFn::LocalSize => v.fill(self.cfg.local[d] as i64),
                        WorkItemFn::NumGroups => v.fill(self.cfg.groups()[d] as i64),
                    }
                    stack.push(Slab::I(v));
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("binary operand");
                    let a = stack.pop().expect("binary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let r = self.bin_vec(op, a, b, mask);
                    stack.push(r?);
                }
                EOp::Un(op) => {
                    let a = stack.pop().expect("unary operand");
                    let (_, count) = cur_mask!();
                    *ops += count;
                    stack.push(un_vec(op, a));
                }
                EOp::Call {
                    fun,
                    argc,
                    ret,
                    cost,
                } => {
                    let base = stack.len() - argc as usize;
                    let mut out = self.slab(ret);
                    let (mask, count) = cur_mask!();
                    *ops += cost * count;
                    let f = &plan.funs[fun as usize];
                    for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
                        self.args.clear();
                        for av in &stack[base..] {
                            self.args.push(av.scalar(i));
                        }
                        match (&mut out, f.call(&self.args)) {
                            (Slab::I(o), Scalar::I32(x)) => o[i] = i64::from(x),
                            (Slab::F(o), Scalar::F32(x)) => o[i] = x,
                            (Slab::B(o), Scalar::Bool(x)) => o[i] = x,
                            // The typed slab cannot hold another kind.
                            (_, r) => {
                                return Err(SimError::TypeMismatch(format!(
                                    "user function `{}` returned {}, declared {}",
                                    f.name(),
                                    r.kind().c_name(),
                                    ret.c_name()
                                )))
                            }
                        }
                    }
                    for v in stack.drain(base..) {
                        self.sput(v);
                    }
                    stack.push(out);
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    let (mask, _) = cur_mask!();
                    let r = self.load_vec(buf, idx.ints(), mask);
                    self.sput(idx);
                    stack.push(r?);
                }
                EOp::Cast(t) => {
                    let a = stack.pop().expect("cast operand");
                    let r = self.cast_vec(t, a);
                    stack.push(r);
                }
                EOp::SelSplit => {
                    let cond = stack.pop().expect("select condition");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut mt = self.bget();
                    let mut me = self.bget();
                    let (mut ct, mut ce) = (0u64, 0u64);
                    for (i, &c) in cond.bools().iter().enumerate() {
                        (mt[i], me[i]) = (mask[i] && c, mask[i] && !c);
                        ct += u64::from(mt[i]);
                        ce += u64::from(me[i]);
                    }
                    self.sput(cond);
                    frames.push(SelFrame {
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
                    let e = stack.pop().expect("else value");
                    let t = f.saved.expect("then value parked");
                    let merged = self.sel_merge(t, e, &f.mask_then);
                    stack.push(merged);
                    self.bpool.push(f.mask_then);
                    self.bpool.push(f.mask_else);
                }
            }
        }
        Ok(stack.pop().expect("expression produces a value"))
    }

    /// Merges the two arms of a `?:`: then-lanes win where `mask_then` is
    /// set.
    fn sel_merge(&mut self, t: Slab, e: Slab, mask_then: &[bool]) -> Slab {
        match (t, e) {
            (Slab::I(tv), Slab::I(mut ev)) => {
                merge_lanes(&mut ev, &tv, mask_then);
                self.ipool.push(tv);
                Slab::I(ev)
            }
            (Slab::F(tv), Slab::F(mut ev)) => {
                merge_lanes(&mut ev, &tv, mask_then);
                self.fpool.push(tv);
                Slab::F(ev)
            }
            (Slab::B(tv), Slab::B(mut ev)) => {
                merge_lanes(&mut ev, &tv, mask_then);
                self.bpool.push(tv);
                Slab::B(ev)
            }
            _ => unreachable!("plan typing gives both `?:` arms one type"),
        }
    }

    /// One binary op across the lanes. Infallible cases run unmasked
    /// (inactive lanes compute garbage nobody reads); integer division
    /// checks per active lane and faults, like the tree interpreter, only
    /// on a lane that divides by zero.
    fn bin_vec(&mut self, op: BinOp, a: Slab, b: Slab, mask: &[bool]) -> Result<Slab, SimError> {
        use BinOp::*;
        Ok(match (op, a, b) {
            (Lt | Le | Gt | Ge | Eq | Ne, Slab::I(x), Slab::I(y)) => {
                let out = self.compare(op, &x, &y);
                self.ipool.push(x);
                self.ipool.push(y);
                out
            }
            (Lt | Le | Gt | Ge | Eq | Ne, Slab::F(x), Slab::F(y)) => {
                let out = self.compare(op, &x, &y);
                self.fpool.push(x);
                self.fpool.push(y);
                out
            }
            (_, Slab::I(mut x), Slab::I(y)) => {
                match op {
                    Add => zip_lanes(&mut x, &y, i64::wrapping_add),
                    Sub => zip_lanes(&mut x, &y, i64::wrapping_sub),
                    Mul => zip_lanes(&mut x, &y, i64::wrapping_mul),
                    Min => zip_lanes(&mut x, &y, i64::min),
                    Max => zip_lanes(&mut x, &y, i64::max),
                    Div | Mod => {
                        for ((v, &d), _) in x.iter_mut().zip(&y).zip(mask).filter(|(_, &m)| m) {
                            if d == 0 {
                                return Err(SimError::DivisionByZero);
                            }
                            // C's truncating division and remainder.
                            *v = if op == Div {
                                v.wrapping_div(d)
                            } else {
                                v.wrapping_rem(d)
                            };
                        }
                    }
                    _ => unreachable!("plan typing admits no int {op:?}"),
                }
                self.ipool.push(y);
                Slab::I(x)
            }
            (_, Slab::F(mut x), Slab::F(y)) => {
                match op {
                    Add => zip_lanes(&mut x, &y, |a, b| a + b),
                    Sub => zip_lanes(&mut x, &y, |a, b| a - b),
                    Mul => zip_lanes(&mut x, &y, |a, b| a * b),
                    Div => zip_lanes(&mut x, &y, |a, b| a / b),
                    Min => zip_lanes(&mut x, &y, f32::min),
                    Max => zip_lanes(&mut x, &y, f32::max),
                    _ => unreachable!("plan typing admits no float {op:?}"),
                }
                self.fpool.push(y);
                Slab::F(x)
            }
            (And, Slab::B(mut x), Slab::B(y)) => {
                zip_lanes(&mut x, &y, |a, b| a && b);
                self.bpool.push(y);
                Slab::B(x)
            }
            (Or, Slab::B(mut x), Slab::B(y)) => {
                zip_lanes(&mut x, &y, |a, b| a || b);
                self.bpool.push(y);
                Slab::B(x)
            }
            _ => unreachable!("plan typing admits no {op:?} on these operands"),
        })
    }

    /// A comparison across the lanes, into a pooled `bool` slab.
    fn compare<T: PartialOrd>(&mut self, op: BinOp, x: &[T], y: &[T]) -> Slab {
        let mut out = self.bget();
        for (o, (a, b)) in out.iter_mut().zip(x.iter().zip(y)) {
            *o = match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                BinOp::Eq => a == b,
                _ => a != b,
            };
        }
        Slab::B(out)
    }

    /// `(float)` of an int and `(int)` of a float convert; plan typing
    /// makes every other cast the identity.
    fn cast_vec(&mut self, t: CType, a: Slab) -> Slab {
        match (t, a) {
            (CType::Float, Slab::I(v)) => {
                let mut out = self.fget();
                for (o, &x) in out.iter_mut().zip(&v) {
                    *o = x as f32;
                }
                self.ipool.push(v);
                Slab::F(out)
            }
            (CType::Int, Slab::F(v)) => {
                let mut out = self.iget();
                for (o, &x) in out.iter_mut().zip(&v) {
                    *o = x as i64;
                }
                self.fpool.push(v);
                Slab::I(out)
            }
            (_, s) => s,
        }
    }

    fn oob(&self, name: u16, index: i64, len: usize) -> SimError {
        SimError::OutOfBounds {
            buffer: self.plan.buf_names[name as usize].clone(),
            index,
            len,
        }
    }

    /// One buffer load for every active lane: the buffer (and, for global
    /// buffers, the element type) is dispatched once per op; the per-lane
    /// loop does only the bounds check, pending-access bookkeeping and
    /// element read — in the same per-lane order as the tree interpreter.
    fn load_vec(&mut self, buf: BufSlot, idx: &[i64], mask: &[bool]) -> Result<Slab, SimError> {
        let n = self.n_items;
        match buf {
            BufSlot::Global { slot, name } => {
                let slot = slot as usize;
                let base = self.plan.global_bases[slot];
                let len = self.global[slot].len();
                let pend = &mut self.pend_loads;
                let (out, r) = match &self.global[slot] {
                    BufferData::F32(d) => {
                        let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; n]);
                        let r = for_each_index(mask, idx, 1, len, |i, x| {
                            pend[i].push(base + x as u64 * 4);
                            out[i] = d[x];
                        });
                        (Slab::F(out), r)
                    }
                    BufferData::I32(d) => {
                        let mut out = self.ipool.pop().unwrap_or_else(|| vec![0; n]);
                        let r = for_each_index(mask, idx, 1, len, |i, x| {
                            pend[i].push(base + x as u64 * 4);
                            out[i] = i64::from(d[x]);
                        });
                        (Slab::I(out), r)
                    }
                };
                let count = r.map_err(|index| self.oob(name, index, len))?;
                self.stats.global_loads += count;
                self.any_pend |= count > 0;
                Ok(out)
            }
            BufSlot::Local { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let data = &self.locals[off..off + len];
                let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; n]);
                let count = for_each_index(mask, idx, 1, len, |i, x| out[i] = data[x])
                    .map_err(|index| self.oob(name, index, len))?;
                self.stats.local_accesses += count;
                Ok(Slab::F(out))
            }
            BufSlot::Priv { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_total;
                let privs = &self.privs;
                let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; n]);
                for_each_index(mask, idx, 1, len, |i, x| {
                    out[i] = privs[i * stride + off + x];
                })
                .map_err(|index| self.oob(name, index, len))?;
                Ok(Slab::F(out))
            }
        }
    }

    /// The coalescing flush, identical in behaviour to
    /// [`Machine::flush_accesses`] but over the flat scratch arena and
    /// skipped outright when the statement queued no global access.
    ///
    /// [`Machine::flush_accesses`]: crate::reference::Machine::flush_accesses
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
                            self.segs.push(addr / SEGMENT_BYTES);
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

/// Visits the active lanes of `mask` in order with each lane's buffer
/// index, `idx[i * stride]`, checked against `len`: returns the number of
/// lanes visited, or the first index out of bounds.
fn for_each_index(
    mask: &[bool],
    idx: &[i64],
    stride: usize,
    len: usize,
    mut f: impl FnMut(usize, usize),
) -> Result<u64, i64> {
    let mut count = 0u64;
    for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
        let index = idx[i * stride];
        if index < 0 || index as usize >= len {
            return Err(index);
        }
        f(i, index as usize);
        count += 1;
    }
    Ok(count)
}

/// Copies `src[i * stride]` into every active lane `i` of `regs`; returns
/// the number of active lanes.
fn write_lanes<T: Copy>(regs: &mut [T], mask: &[bool], src: &[T], stride: usize) -> u64 {
    let mut count = 0u64;
    for (i, (reg, &m)) in regs.iter_mut().zip(mask).enumerate() {
        if m {
            *reg = src[i * stride];
            count += 1;
        }
    }
    count
}

/// `x[i] = f(x[i], y[i])` for every lane.
fn zip_lanes<T: Copy>(x: &mut [T], y: &[T], f: impl Fn(T, T) -> T) {
    for (a, &b) in x.iter_mut().zip(y) {
        *a = f(*a, b);
    }
}

/// `dst[i] = src[i]` for every lane `i` set in `mask`.
fn merge_lanes<T: Copy>(dst: &mut [T], src: &[T], mask: &[bool]) {
    for ((d, &s), &m) in dst.iter_mut().zip(src).zip(mask) {
        if m {
            *d = s;
        }
    }
}

/// One unary op across every lane (infallible, so unmasked). Wrapping
/// negation keeps the loop panic-free on garbage lanes; active lanes
/// behave as in the tree interpreter (two's-complement wrap at
/// `i64::MIN` aside).
fn un_vec(op: UnOp, a: Slab) -> Slab {
    match (op, a) {
        (UnOp::Neg, Slab::I(mut v)) => {
            v.iter_mut().for_each(|x| *x = x.wrapping_neg());
            Slab::I(v)
        }
        (UnOp::Neg, Slab::F(mut v)) => {
            v.iter_mut().for_each(|x| *x = -*x);
            Slab::F(v)
        }
        (UnOp::Not, Slab::B(mut v)) => {
            v.iter_mut().for_each(|x| *x = !*x);
            Slab::B(v)
        }
        _ => unreachable!("plan typing admits no {op:?} on this operand"),
    }
}
