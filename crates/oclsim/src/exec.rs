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
//! prices launches: [`crate::cost`] runs it on zero-filled buffers, over a
//! copy of the bytecode whose data-only ops are `EOp::Skip`, one group
//! at a time through `PlanMachine::run_group` with its trace recorder
//! attached, and has no counting code of its own.
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
use lift_core::userfun::{Cmp, FloatFn, FloatOp, IndexFault, IntOp, Node, Program, Reg, UserFun};

use crate::cost::Recorder;
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
    /// for a kernel that does not type, or — in the reference interpreter
    /// only — an ill-typed operation reached at run time. No user
    /// function returns another type than it declares:
    /// [`UserFun::new`] refuses such a body.
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

/// A user function's constant-array index out of range faults as an
/// out-of-bounds access to `fun.array`, in both engines.
impl From<IndexFault> for SimError {
    fn from(f: IndexFault) -> Self {
        SimError::OutOfBounds {
            buffer: format!("{}.{}", f.fun, f.array),
            index: i64::from(f.index),
            len: f.len,
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
pub(crate) enum Slab {
    I(Vec<i64>),
    F(Vec<f32>),
    B(Vec<bool>),
}

/// A slab with the lane stride to read it at: 1 for per-lane values, 0 for
/// a lane-invariant one, whose value sits in lane 0 alone. Lane `i` reads
/// element `i * stride`.
pub(crate) type Operand = (Slab, usize);

impl Slab {
    /// The lanes of an `int` operand (indices, loop bounds and steps).
    pub(crate) fn ints(&self) -> &[i64] {
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

    /// Element `i` as a user-function argument.
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
    saved: Option<Operand>,
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
/// their ALU cost multiplied by the active-lane count. Inside any
/// expression, a lane-invariant operand (a literal, a group id, a size or
/// group count, or an op over only such operands) is one value in lane 0
/// of its slab, read at stride 0, so an op over two of them computes one
/// lane and `x op c` reads one slab; a `?:` whose arms both have active
/// lanes broadcasts an invariant arm as it merges. An `int` register read
/// whose lanes active under the op's mask all hold one value is such an
/// operand too: a loop counter such as Gaussian's `r` is one value, so
/// `r / 5` divides once per group. Float registers are always read per
/// lane, because 0.0 and -0.0 compare equal. ALU ops are still charged per
/// active lane, so every counter stays bit-identical to the tree
/// interpreter.
///
/// A user-function call runs the program [`UserFun::new`] typed from the
/// function's C body, the text the kernel prints, slab-wise: one pass per
/// node across the lanes, at its operands' strides, into pooled slabs, so
/// a call on lane-invariant arguments (Gaussian's `gaussWeight(r, 25)`)
/// computes one value. A `?:` inside the body blends both arms per lane;
/// nodes are total, and a constant-array index that misses on an active
/// lane replays the call's lanes through [`UserFun::call`], which takes
/// only the arms each lane takes. The call charges its `cost` per active
/// lane once, and its nodes charge nothing.
///
/// [`Machine`]: crate::reference::Machine
pub(crate) struct PlanMachine<'a> {
    plan: &'a Plan,
    global: &'a mut [BufferData],
    pub(crate) stats: KernelStats,
    warp: usize,
    pub(crate) cfg: LaunchConfig,
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
    estack: Vec<Operand>,
    eframes: Vec<SelFrame>,
    /// The one-lane mask uniform expressions evaluate under.
    uni_mask: Vec<bool>,
    /// The node values of the user-function call in flight.
    call_vals: Vec<Operand>,
    /// Segment scratch for the coalescing flush.
    segs: Vec<u64>,
    /// The expression bytecode this machine runs: the plan's own, or the
    /// cost model's zero-data copy of it (see [`crate::cost`]).
    pub(crate) ecode: &'a [EOp],
    /// The cost model's trace hook: `None` (the default) for every real
    /// launch, so a run pays one branch per op and statement and records
    /// nothing.
    pub(crate) rec: Option<Recorder<'a>>,
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
            call_vals: Vec::new(),
            segs: Vec::with_capacity(warp.max(1)),
            ecode: &plan.ecode,
            rec: None,
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
                    self.run_group([gx, gy, gz])?;
                }
            }
        }
        self.stats.finalise();
        Ok(())
    }

    /// Runs work-group `group`, adding its events to [`Self::stats`].
    pub(crate) fn run_group(&mut self, group: [usize; 3]) -> Result<(), SimError> {
        self.group_id = group;
        self.reset_group();
        self.exec()
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
                        self.flush(pc, &mask);
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
                    let r = self.store_stmt(pc, &mask, buf, idx, value);
                    if r.is_ok() {
                        simd_charge(&mut self.stats, self.warp, &mask, before);
                        self.flush(pc, &mask);
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
                    let r = self.for_head(pc, &parent, &mut child, row, bound);
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
                    let r = self.for_step(pc, &mask, row, step);
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
                    let r = self.if_head(pc, &parent, &mut t, &mut e, cond);
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
    /// broadcasts a hoisted or lane-invariant value's lane 0 — leaving
    /// [`KernelStats::alu_ops`] identical to per-lane evaluation.
    fn operand(
        &mut self,
        er: ExprRef,
        mask: &[bool],
        ops: &mut u64,
        hoist_ops: &mut u64,
    ) -> Result<Operand, SimError> {
        if er.uniform {
            let um = std::mem::take(&mut self.uni_mask);
            let r = self.eval_vec(er, &um, hoist_ops);
            self.uni_mask = um;
            Ok((r?.0, 0))
        } else {
            self.eval_vec(er, mask, ops)
        }
    }

    fn set_scalar(&mut self, mask: &[bool], row: Row, value: ExprRef) -> Result<(), SimError> {
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (v, stride) = self.operand(value, mask, &mut ops, &mut hoist_ops)?;
        if let Some(rec) = &mut self.rec {
            rec.set_row(row, value, mask);
        }
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
        pc: usize,
        mask: &[bool],
        buf: BufSlot,
        idx: ExprRef,
        value: ExprRef,
    ) -> Result<(), SimError> {
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (is, istride) = self.operand(idx, mask, &mut ops, &mut hoist_ops)?;
        let (val, vs) = self.operand(value, mask, &mut ops, &mut hoist_ops)?;
        let iv = is.ints();
        if let Some(rec) = &mut self.rec {
            rec.store(pc, buf, (idx, value), mask, (iv, istride));
        }
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
        self.sput(is);
        self.sput(val);
        self.stats.alu_ops += ops + hoist_ops * count;
        Ok(())
    }

    fn for_head(
        &mut self,
        pc: usize,
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
        if let Some(rec) = &mut self.rec {
            rec.for_head(pc, row, bound, parent, regs, (bounds, stride));
        }
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
        self.flush(pc, parent);
        Ok(any)
    }

    fn for_step(
        &mut self,
        pc: usize,
        mask: &[bool],
        row: Row,
        step: ExprRef,
    ) -> Result<(), SimError> {
        let before = self.stats.alu_ops;
        let (mut ops, mut hoist_ops) = (0u64, 0u64);
        let (sv, stride) = self.operand(step, mask, &mut ops, &mut hoist_ops)?;
        if let Some(rec) = &mut self.rec {
            rec.for_step(row, step, mask);
        }
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
        self.flush(pc, mask);
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
        pc: usize,
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
        self.flush(pc, parent);
        Ok((any_t, any_e))
    }

    /// Evaluates one compiled expression for every active lane of `mask`,
    /// op-major: each bytecode op runs across the lanes before the next op
    /// starts, over typed [`Slab`]s read at their lane strides. Pure ALU
    /// costs accumulate into `ops` (already summed over lanes); memory
    /// events hit [`KernelStats`] directly, with per-lane side effects
    /// (pending-access queues, fault checks) identical to the tree
    /// interpreter's lane-by-lane evaluation. `?:` selects split the lane
    /// mask so each lane still evaluates only its taken arm.
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
    ) -> Result<Operand, SimError> {
        let mut stack = std::mem::take(&mut self.estack);
        let mut frames = std::mem::take(&mut self.eframes);
        let r = self.eval_vec_inner(er, stmt_mask, ops, &mut stack, &mut frames);
        for (s, _) in stack.drain(..) {
            self.sput(s);
        }
        for f in frames.drain(..) {
            if let Some((s, _)) = f.saved {
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
        stack: &mut Vec<Operand>,
        frames: &mut Vec<SelFrame>,
    ) -> Result<Operand, SimError> {
        let (plan, ecode) = (self.plan, self.ecode);
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
        // Elements an operand of stride `s` holds.
        let width = |s: usize| if s == 0 { 1 } else { n };
        let code = &ecode[er.start as usize..er.end as usize];
        for (pc, &op) in (er.start as usize..).zip(code) {
            if let Some(rec) = &mut self.rec {
                if rec.hooks(pc) {
                    // Before the op runs, while its operands are on the stack.
                    let (mask, _) = cur_mask!();
                    let then = frames
                        .last()
                        .map(|f| (f.mask_then.as_slice(), f.count_then, f.count_else));
                    rec.op(pc, op, stack, mask, then);
                }
            }
            match op {
                EOp::I(c) => {
                    let mut v = self.iget();
                    v[0] = c;
                    stack.push((Slab::I(v), 0));
                }
                EOp::F(c) => {
                    let mut v = self.fget();
                    v[0] = c;
                    stack.push((Slab::F(v), 0));
                }
                EOp::B(c) => {
                    let mut v = self.bget();
                    v[0] = c;
                    stack.push((Slab::B(v), 0));
                }
                EOp::Scalar(row) => {
                    // An int row whose active lanes agree is one value.
                    // Otherwise every lane's register is copied (not just
                    // active ones), which is safe: registers are always
                    // initialised and inactive lanes' values are never
                    // consumed. Slot-major layout makes this one
                    // contiguous copy. Float rows are always copied: 0.0
                    // and -0.0 compare equal.
                    match row {
                        Row::I(r) => {
                            let mut v = self.iget();
                            let regs = &self.iscalars[r as usize * n..][..n];
                            match agreed(regs, cur_mask!().0) {
                                Some(x) => {
                                    v[0] = x;
                                    stack.push((Slab::I(v), 0));
                                }
                                None => {
                                    v.copy_from_slice(regs);
                                    stack.push((Slab::I(v), 1));
                                }
                            }
                        }
                        Row::F(r) => {
                            let mut v = self.fget();
                            v.copy_from_slice(&self.fscalars[r as usize * n..][..n]);
                            stack.push((Slab::F(v), 1));
                        }
                    }
                }
                EOp::WorkItem(f, d) => {
                    let mut v = self.iget();
                    let d = d as usize;
                    let per_lane = matches!(f, WorkItemFn::GlobalId | WorkItemFn::LocalId);
                    match f {
                        WorkItemFn::GlobalId => {
                            let base = self.group_id[d] * self.cfg.local[d];
                            for (slot, lid) in v.iter_mut().zip(&self.lids) {
                                *slot = (base + lid[d]) as i64;
                            }
                        }
                        WorkItemFn::LocalId => {
                            for (slot, lid) in v.iter_mut().zip(&self.lids) {
                                *slot = lid[d] as i64;
                            }
                        }
                        WorkItemFn::GroupId => v[0] = self.group_id[d] as i64,
                        WorkItemFn::GlobalSize => v[0] = self.cfg.global[d] as i64,
                        WorkItemFn::LocalSize => v[0] = self.cfg.local[d] as i64,
                        WorkItemFn::NumGroups => v[0] = self.cfg.groups()[d] as i64,
                    }
                    stack.push((Slab::I(v), usize::from(per_lane)));
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("binary operand");
                    let a = stack.pop().expect("binary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let r = self.bin_vec(op, a, b, mask, count);
                    stack.push(r?);
                }
                EOp::Un(op) => {
                    let (a, s) = stack.pop().expect("unary operand");
                    let (_, count) = cur_mask!();
                    *ops += count;
                    stack.push((un_vec(op, a, width(s)), s));
                }
                EOp::Call {
                    fun, argc, cost, ..
                } => {
                    let base = stack.len() - argc as usize;
                    let (mask, count) = cur_mask!();
                    *ops += cost * count;
                    let r = self.call_vec(&plan.funs[fun as usize], &stack[base..], mask, count);
                    for (v, _) in stack.drain(base..) {
                        self.sput(v);
                    }
                    stack.push(r?);
                }
                EOp::Skip { argc, ret, cost } => {
                    let (_, count) = cur_mask!();
                    *ops += cost * count;
                    let base = stack.len() - argc as usize;
                    for (v, _) in stack.drain(base..) {
                        self.sput(v);
                    }
                    let out = self.slab(ret);
                    stack.push((out, 0));
                }
                EOp::Load(buf) => {
                    let (idx, s) = stack.pop().expect("load index");
                    let (mask, _) = cur_mask!();
                    let r = self.load_vec(buf, (idx.ints(), s), mask);
                    self.sput(idx);
                    stack.push((r?, 1));
                }
                EOp::Cast(t) => {
                    let (a, s) = stack.pop().expect("cast operand");
                    let r = self.cast_vec(t, a, width(s));
                    stack.push((r, s));
                }
                EOp::SelSplit => {
                    let (cond, s) = stack.pop().expect("select condition");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut mt = self.bget();
                    let mut me = self.bget();
                    let lanes = mt.iter_mut().zip(me.iter_mut()).zip(mask);
                    if s == 0 {
                        let c = cond.bools()[0];
                        for ((t, e), &m) in lanes {
                            (*t, *e) = (m && c, m && !c);
                        }
                    } else {
                        for (((t, e), &m), &c) in lanes.zip(cond.bools()) {
                            (*t, *e) = (m && c, m && !c);
                        }
                    }
                    let ct = mt.iter().filter(|&&b| b).count() as u64;
                    self.sput(cond);
                    frames.push(SelFrame {
                        mask_then: mt,
                        count_then: ct,
                        mask_else: me,
                        count_else: count - ct,
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
                    let merged = self.sel_merge(t, e, &f.mask_then, f.count_then, f.count_else);
                    stack.push(merged);
                    self.bpool.push(f.mask_then);
                    self.bpool.push(f.mask_else);
                }
            }
        }
        Ok(stack.pop().expect("expression produces a value"))
    }

    /// A user-function call across the lanes: `f`'s program runs over the
    /// argument operands `args`, one pass per node, each node reading its
    /// operands at their strides into a pooled slab, so a node whose
    /// operands are all lane-invariant computes one value, and a call on
    /// lane-invariant arguments returns one. Nodes are total, so they run
    /// unmasked. The one exception is a constant-array index: when one
    /// misses on an active lane of `mask` (`count` of them), the call
    /// replays its active lanes in order through [`UserFun::call`], which
    /// knows the `?:` arms each lane takes, and raises the first fault.
    fn call_vec(
        &mut self,
        f: &UserFun,
        args: &[Operand],
        mask: &[bool],
        count: u64,
    ) -> Result<Operand, SimError> {
        let prog = f.program();
        let mut vals = std::mem::take(&mut self.call_vals);
        let mut missed = false;
        for node in prog.nodes() {
            let v = self.node_vec(prog, node, (args, &vals), (mask, count), &mut missed);
            vals.push(v);
        }
        let out = match prog.reg(prog.result()) {
            Reg::Node(j) => vals.swap_remove(usize::from(j)),
            r => {
                let v = In::new(r, args, &vals);
                let mut out = self.slab(CType::from_kind(prog.ret()));
                let stride = match &mut out {
                    Slab::F(o) => map_lane(o, v.floats(), |x| x),
                    Slab::I(o) => map_lane(o, v.ints(), |x| x),
                    Slab::B(o) => map_lane(o, v.bools(), |x| x),
                };
                (out, stride)
            }
        };
        for (s, _) in vals.drain(..) {
            self.sput(s);
        }
        self.call_vals = vals;
        if missed {
            for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
                let lane: Vec<Scalar> = args.iter().map(|(a, s)| a.scalar(i * s)).collect();
                if let Err(e) = f.call(&lane) {
                    self.sput(out.0);
                    return Err(e.into());
                }
            }
        }
        Ok(out)
    }

    /// One node of a user function's `prog` across the lanes, over the
    /// call's arguments `args` and the values `vals` of the nodes before
    /// it. Sets `missed` when a constant-array index is out of range on a
    /// lane active in `mask` (`count` of them).
    fn node_vec(
        &mut self,
        prog: &Program,
        node: &Node,
        (args, vals): (&[Operand], &[Operand]),
        (mask, count): (&[bool], u64),
        missed: &mut bool,
    ) -> Operand {
        let get = |r: u16| In::new(prog.reg(r), args, vals);
        match *node {
            Node::Float(op, a, b) => {
                let (a, b) = (get(a), get(b));
                let mut o = self.fget();
                let (x, y) = (a.floats(), b.floats());
                let s = each_op!(op; FloatOp: Add, Sub, Mul, Div, Max;
                    |F| map_lanes(&mut o, x, y, |p, q| F.apply(p, q)));
                (Slab::F(o), s)
            }
            Node::FloatFn(op, a) => {
                let a = get(a);
                let mut o = self.fget();
                let s = each_op!(op; FloatFn: Neg, Sqrt, Exp;
                    |F| map_lane(&mut o, a.floats(), |p| F.apply(p)));
                (Slab::F(o), s)
            }
            Node::Int(op, a, b) => {
                let (a, b) = (get(a), get(b));
                let mut o = self.iget();
                let (x, y) = (a.ints(), b.ints());
                let s = each_op!(op; IntOp: Add, Sub, Mul;
                    |F| map_lanes(&mut o, x, y, |p, q| i64::from(F.apply(p as i32, q as i32))));
                (Slab::I(o), s)
            }
            Node::IntFn(op, a) => {
                let a = get(a);
                let mut o = self.iget();
                let s = map_lane(&mut o, a.ints(), |p| i64::from(op.apply(p as i32)));
                (Slab::I(o), s)
            }
            Node::FloatCmp(op, a, b) => {
                let (a, b) = (get(a), get(b));
                let mut o = self.bget();
                let (x, y) = (a.floats(), b.floats());
                let s = each_op!(op; Cmp: Lt, Le, Gt, Ge, Eq, Ne;
                    |C| map_lanes(&mut o, x, y, |p, q| C.apply(p, q)));
                (Slab::B(o), s)
            }
            Node::IntCmp(op, a, b) => {
                let (a, b) = (get(a), get(b));
                let mut o = self.bget();
                let (x, y) = (a.ints(), b.ints());
                let s = each_op!(op; Cmp: Lt, Le, Gt, Ge, Eq, Ne;
                    |C| map_lanes(&mut o, x, y, |p, q| C.apply(p as i32, q as i32)));
                (Slab::B(o), s)
            }
            Node::IntToFloat(a) => {
                let a = get(a);
                let mut o = self.fget();
                let s = map_lane(&mut o, a.ints(), |p| p as i32 as f32);
                (Slab::F(o), s)
            }
            Node::FloatToInt(a) => {
                let a = get(a);
                let mut o = self.iget();
                let s = map_lane(&mut o, a.floats(), |p| i64::from(p as i32));
                (Slab::I(o), s)
            }
            Node::BoolToInt(a) => {
                let a = get(a);
                let mut o = self.iget();
                let s = map_lane(&mut o, a.bools(), i64::from);
                (Slab::I(o), s)
            }
            Node::Select {
                kind,
                cond,
                then,
                els,
            } => {
                let (c, t, e) = (get(cond), get(then), get(els));
                let mut o = self.slab(CType::from_kind(kind));
                let s = match &mut o {
                    Slab::F(o) => select_lanes(o, c.bools(), t.floats(), e.floats()),
                    Slab::I(o) => select_lanes(o, c.bools(), t.ints(), e.ints()),
                    Slab::B(o) => select_lanes(o, c.bools(), t.bools(), e.bools()),
                };
                (o, s)
            }
            Node::Index { table, idx, .. } => {
                let t = prog.table(table);
                let idx = get(idx);
                let (xs, s) = idx.ints();
                let look = |x: i64| usize::try_from(x as i32).ok().and_then(|u| t.get(u));
                let mut o = self.fget();
                if s == 0 {
                    o[0] = look(xs[0]).copied().unwrap_or_else(|| {
                        *missed |= count > 0;
                        0.0
                    });
                } else {
                    for ((v, &x), &m) in o.iter_mut().zip(xs).zip(mask) {
                        *v = look(x).copied().unwrap_or_else(|| {
                            *missed |= m;
                            0.0
                        });
                    }
                }
                (Slab::F(o), s)
            }
        }
    }

    /// Merges the two arms of a `?:`: then-lanes win where `mask_then` is
    /// set. An arm with no active lane leaves the other's operand as it
    /// is; otherwise a lane-invariant arm is broadcast as the lanes merge.
    fn sel_merge(
        &mut self,
        (t, st): Operand,
        (e, se): Operand,
        mask_then: &[bool],
        count_then: u64,
        count_else: u64,
    ) -> Operand {
        if count_else == 0 {
            self.sput(e);
            return (t, st);
        }
        if count_then == 0 {
            self.sput(t);
            return (e, se);
        }
        let (merged, spare) = match (t, e) {
            (Slab::I(tv), Slab::I(ev)) => {
                let (m, spare) = merge_lanes((tv, st), (ev, se), mask_then);
                (Slab::I(m), Slab::I(spare))
            }
            (Slab::F(tv), Slab::F(ev)) => {
                let (m, spare) = merge_lanes((tv, st), (ev, se), mask_then);
                (Slab::F(m), Slab::F(spare))
            }
            (Slab::B(tv), Slab::B(ev)) => {
                let (m, spare) = merge_lanes((tv, st), (ev, se), mask_then);
                (Slab::B(m), Slab::B(spare))
            }
            _ => unreachable!("plan typing gives both `?:` arms one type"),
        };
        self.sput(spare);
        (merged, 1)
    }

    /// One binary op across the lanes, at the operands' strides.
    /// Infallible cases run unmasked (inactive lanes compute garbage nobody
    /// reads); integer division checks per active lane (`count` of them
    /// in `mask`) and faults, like the tree interpreter, only on a lane
    /// that divides by zero.
    fn bin_vec(
        &mut self,
        op: BinOp,
        (a, sa): Operand,
        (b, sb): Operand,
        mask: &[bool],
        count: u64,
    ) -> Result<Operand, SimError> {
        use BinOp::*;
        Ok(match (op, a, b) {
            (Lt | Le | Gt | Ge | Eq | Ne, Slab::I(x), Slab::I(y)) => {
                let out = self.compare(op, (&x, sa), (&y, sb));
                self.ipool.push(x);
                self.ipool.push(y);
                out
            }
            (Lt | Le | Gt | Ge | Eq | Ne, Slab::F(x), Slab::F(y)) => {
                let out = self.compare(op, (&x, sa), (&y, sb));
                self.fpool.push(x);
                self.fpool.push(y);
                out
            }
            (_, Slab::I(x), Slab::I(y)) => {
                let (x, y) = ((x, sa), (y, sb));
                let (out, stride, spare) = match op {
                    Add => zip_lanes(x, y, i64::wrapping_add),
                    Sub => zip_lanes(x, y, i64::wrapping_sub),
                    Mul => zip_lanes(x, y, i64::wrapping_mul),
                    Min => zip_lanes(x, y, i64::min),
                    Max => zip_lanes(x, y, i64::max),
                    Div | Mod => divide(op == Mod, x, y, mask, count)?,
                    _ => unreachable!("plan typing admits no int {op:?}"),
                };
                self.ipool.push(spare);
                (Slab::I(out), stride)
            }
            (_, Slab::F(x), Slab::F(y)) => {
                let (x, y) = ((x, sa), (y, sb));
                let (out, stride, spare) = match op {
                    Add => zip_lanes(x, y, |a, b| a + b),
                    Sub => zip_lanes(x, y, |a, b| a - b),
                    Mul => zip_lanes(x, y, |a, b| a * b),
                    Div => zip_lanes(x, y, |a, b| a / b),
                    Min => zip_lanes(x, y, f32::min),
                    Max => zip_lanes(x, y, f32::max),
                    _ => unreachable!("plan typing admits no float {op:?}"),
                };
                self.fpool.push(spare);
                (Slab::F(out), stride)
            }
            (And | Or, Slab::B(x), Slab::B(y)) => {
                let (x, y) = ((x, sa), (y, sb));
                let (out, stride, spare) = if op == And {
                    zip_lanes(x, y, |a, b| a && b)
                } else {
                    zip_lanes(x, y, |a, b| a || b)
                };
                self.bpool.push(spare);
                (Slab::B(out), stride)
            }
            _ => unreachable!("plan typing admits no {op:?} on these operands"),
        })
    }

    /// A comparison across the lanes, into a pooled `bool` slab.
    fn compare<T: PartialOrd + Copy>(
        &mut self,
        op: BinOp,
        x: (&[T], usize),
        y: (&[T], usize),
    ) -> Operand {
        let mut out = self.bget();
        let stride = match op {
            BinOp::Lt => map_lanes(&mut out, x, y, |a, b| a < b),
            BinOp::Le => map_lanes(&mut out, x, y, |a, b| a <= b),
            BinOp::Gt => map_lanes(&mut out, x, y, |a, b| a > b),
            BinOp::Ge => map_lanes(&mut out, x, y, |a, b| a >= b),
            BinOp::Eq => map_lanes(&mut out, x, y, |a, b| a == b),
            _ => map_lanes(&mut out, x, y, |a, b| a != b),
        };
        (Slab::B(out), stride)
    }

    /// `(float)` of an int and `(int)` of a float convert the first `len`
    /// elements; plan typing makes every other cast the identity.
    fn cast_vec(&mut self, t: CType, a: Slab, len: usize) -> Slab {
        match (t, a) {
            (CType::Float, Slab::I(v)) => {
                let mut out = self.fget();
                for (o, &x) in out[..len].iter_mut().zip(&v) {
                    *o = x as f32;
                }
                self.ipool.push(v);
                Slab::F(out)
            }
            (CType::Int, Slab::F(v)) => {
                let mut out = self.iget();
                for (o, &x) in out[..len].iter_mut().zip(&v) {
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
    fn load_vec(
        &mut self,
        buf: BufSlot,
        (idx, stride): (&[i64], usize),
        mask: &[bool],
    ) -> Result<Slab, SimError> {
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
                        let r = for_each_index(mask, idx, stride, len, |i, x| {
                            pend[i].push(base + x as u64 * 4);
                            out[i] = d[x];
                        });
                        (Slab::F(out), r)
                    }
                    BufferData::I32(d) => {
                        let mut out = self.ipool.pop().unwrap_or_else(|| vec![0; n]);
                        let r = for_each_index(mask, idx, stride, len, |i, x| {
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
                let count = for_each_index(mask, idx, stride, len, |i, x| out[i] = data[x])
                    .map_err(|index| self.oob(name, index, len))?;
                self.stats.local_accesses += count;
                Ok(Slab::F(out))
            }
            BufSlot::Priv { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let block = self.plan.priv_total;
                let privs = &self.privs;
                let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; n]);
                for_each_index(mask, idx, stride, len, |i, x| {
                    out[i] = privs[i * block + off + x];
                })
                .map_err(|index| self.oob(name, index, len))?;
                Ok(Slab::F(out))
            }
        }
    }

    /// The coalescing flush, identical in behaviour to
    /// [`Machine::flush_accesses`] but over the flat scratch arena and
    /// skipped outright when statement `pc` queued no global access.
    ///
    /// [`Machine::flush_accesses`]: crate::reference::Machine::flush_accesses
    fn flush(&mut self, pc: usize, mask: &[bool]) {
        if !self.any_pend {
            return;
        }
        if let Some(rec) = &mut self.rec {
            rec.addresses(pc, false, mask);
            rec.addresses(pc, true, mask);
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

/// The value every active lane of `mask` holds in `regs`, when they all
/// hold one (any value when no lane is active).
fn agreed(regs: &[i64], mask: &[bool]) -> Option<i64> {
    let mut on = regs.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x);
    let first = on.next().unwrap_or(0);
    on.all(|x| x == first).then_some(first)
}

/// Matches `$op`, a value of the operation enum `$t`, over the listed
/// variants; each arm evaluates `$body` with `$f` a constant of its
/// variant, so that the loop the arm runs has its operation inlined
/// instead of dispatched again for every element.
macro_rules! each_op {
    ($op:expr; $t:ident: $($v:ident),+; |$f:ident| $body:expr) => {
        match $op {
            $($t::$v => {
                const $f: $t = $t::$v;
                $body
            })+
        }
    };
}
use each_op;

/// A user-function operand across the lanes: an argument's or an earlier
/// node's slab at its stride, or a literal as a float and as an int.
enum In<'v> {
    Slab(&'v Slab, usize),
    Lit(f32, i64),
}

impl<'v> In<'v> {
    fn new(r: Reg, args: &'v [Operand], vals: &'v [Operand]) -> Self {
        let slab = |(v, stride): &'v Operand| In::Slab(v, *stride);
        match r {
            Reg::Arg(k) => slab(&args[usize::from(k)]),
            Reg::Node(j) => slab(&vals[usize::from(j)]),
            Reg::Lit(bits) => In::Lit(f32::from_bits(bits), i64::from(bits as i32)),
        }
    }

    fn floats(&self) -> (&[f32], usize) {
        match self {
            In::Slab(s, stride) => (s.floats(), *stride),
            In::Lit(c, _) => (std::slice::from_ref(c), 0),
        }
    }

    fn ints(&self) -> (&[i64], usize) {
        match self {
            In::Slab(s, stride) => (s.ints(), *stride),
            In::Lit(_, c) => (std::slice::from_ref(c), 0),
        }
    }

    fn bools(&self) -> (&[bool], usize) {
        match self {
            In::Slab(s, stride) => (s.bools(), *stride),
            _ => unreachable!("program typing makes this operand bool"),
        }
    }
}

/// `out[i] = f(x[i * sx])` for every lane, or for lane 0 alone when the
/// operand is lane-invariant; returns the result's stride.
fn map_lane<T: Copy, O>(out: &mut [O], (x, sx): (&[T], usize), f: impl Fn(T) -> O) -> usize {
    if sx == 0 {
        out[0] = f(x[0]);
        return 0;
    }
    for (o, &a) in out.iter_mut().zip(x) {
        *o = f(a);
    }
    1
}

/// `out[i] = c ? t : e` at lane `i`, every operand read at its stride, or
/// the taken arm as it is when the condition is lane-invariant; returns
/// the result's stride. Each loop reads its operands in step, so that it
/// vectorizes.
fn select_lanes<T: Copy>(
    out: &mut [T],
    (c, sc): (&[bool], usize),
    (t, st): (&[T], usize),
    (e, se): (&[T], usize),
) -> usize {
    if sc == 0 {
        return map_lane(out, if c[0] { (t, st) } else { (e, se) }, |x| x);
    }
    let lanes = out.iter_mut().zip(c);
    match (st, se) {
        (0, 0) => lanes.for_each(|(o, &c)| *o = if c { t[0] } else { e[0] }),
        (0, _) => lanes
            .zip(e)
            .for_each(|((o, &c), &b)| *o = if c { t[0] } else { b }),
        (_, 0) => lanes
            .zip(t)
            .for_each(|((o, &c), &a)| *o = if c { a } else { e[0] }),
        _ => (lanes.zip(t).zip(e)).for_each(|(((o, &c), &a), &b)| *o = if c { a } else { b }),
    }
    1
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

/// `f(x, y)` lane by lane, at the operands' strides, into whichever slab
/// is per-lane, or into lane 0 alone when both are lane-invariant. Returns
/// the result, its stride and the spare slab.
fn zip_lanes<T: Copy>(
    (mut x, sx): (Vec<T>, usize),
    (mut y, sy): (Vec<T>, usize),
    f: impl Fn(T, T) -> T,
) -> (Vec<T>, usize, Vec<T>) {
    match (sx, sy) {
        (0, 0) => {
            x[0] = f(x[0], y[0]);
            (x, 0, y)
        }
        (_, 0) => {
            let c = y[0];
            x.iter_mut().for_each(|a| *a = f(*a, c));
            (x, 1, y)
        }
        (0, _) => {
            let c = x[0];
            y.iter_mut().for_each(|b| *b = f(c, *b));
            (y, 1, x)
        }
        _ => {
            for (a, &b) in x.iter_mut().zip(&y) {
                *a = f(*a, b);
            }
            (x, 1, y)
        }
    }
}

/// `out[i] = f(x[i * sx], y[i * sy])` for every lane, or for lane 0 alone
/// when both operands are lane-invariant; returns the result's stride.
fn map_lanes<T: Copy, O>(
    out: &mut [O],
    (x, sx): (&[T], usize),
    (y, sy): (&[T], usize),
    f: impl Fn(T, T) -> O,
) -> usize {
    match (sx, sy) {
        (0, 0) => {
            out[0] = f(x[0], y[0]);
            return 0;
        }
        (_, 0) => {
            let c = y[0];
            for (o, &a) in out.iter_mut().zip(x) {
                *o = f(a, c);
            }
        }
        (0, _) => {
            let c = x[0];
            for (o, &b) in out.iter_mut().zip(y) {
                *o = f(c, b);
            }
        }
        _ => {
            for (o, (&a, &b)) in out.iter_mut().zip(x.iter().zip(y)) {
                *o = f(a, b);
            }
        }
    }
    1
}

/// C's truncating `x / y` (or `x % y` when `rem`) over the active lanes of
/// `mask` (`count` of them), at the operands' strides, as
/// [`zip_lanes`]: faults on an active lane that divides by zero.
fn divide(
    rem: bool,
    (mut x, sx): (Vec<i64>, usize),
    (mut y, sy): (Vec<i64>, usize),
    mask: &[bool],
    count: u64,
) -> Result<(Vec<i64>, usize, Vec<i64>), SimError> {
    let f = |v: i64, d: i64| match d {
        0 => Err(SimError::DivisionByZero),
        _ if rem => Ok(v.wrapping_rem(d)),
        _ => Ok(v.wrapping_div(d)),
    };
    match (sx, sy) {
        (0, 0) => {
            if count > 0 {
                x[0] = f(x[0], y[0])?;
            }
            Ok((x, 0, y))
        }
        (_, 0) => {
            let d = y[0];
            for (v, _) in x.iter_mut().zip(mask).filter(|(_, &m)| m) {
                *v = f(*v, d)?;
            }
            Ok((x, 1, y))
        }
        (0, _) => {
            let c = x[0];
            for (d, _) in y.iter_mut().zip(mask).filter(|(_, &m)| m) {
                *d = f(c, *d)?;
            }
            Ok((y, 1, x))
        }
        _ => {
            for ((v, &d), _) in x.iter_mut().zip(&y).zip(mask).filter(|(_, &m)| m) {
                *v = f(*v, d)?;
            }
            Ok((x, 1, y))
        }
    }
}

/// The lanes of a `?:` whose arms both have active lanes, into a per-lane
/// slab: `then`'s where `mask_then` is set, `els`'s elsewhere, each read
/// at its stride. Returns the merged slab and the spare one.
fn merge_lanes<T: Copy>(
    (mut then, st): (Vec<T>, usize),
    (mut els, se): (Vec<T>, usize),
    mask_then: &[bool],
) -> (Vec<T>, Vec<T>) {
    match (st, se) {
        (1, 1) => {
            for ((d, &s), &m) in els.iter_mut().zip(&then).zip(mask_then) {
                if m {
                    *d = s;
                }
            }
            (els, then)
        }
        (0, 1) => {
            let c = then[0];
            for (d, &m) in els.iter_mut().zip(mask_then) {
                if m {
                    *d = c;
                }
            }
            (els, then)
        }
        (1, 0) => {
            let c = els[0];
            for (d, &m) in then.iter_mut().zip(mask_then) {
                if !m {
                    *d = c;
                }
            }
            (then, els)
        }
        _ => {
            let (a, b) = (then[0], els[0]);
            for (d, &m) in els.iter_mut().zip(mask_then) {
                *d = if m { a } else { b };
            }
            (els, then)
        }
    }
}

/// One unary op across the first `len` lanes (infallible, so unmasked).
/// Wrapping negation keeps the loop panic-free on garbage lanes; active
/// lanes behave as in the tree interpreter (two's-complement wrap at
/// `i64::MIN` aside).
fn un_vec(op: UnOp, a: Slab, len: usize) -> Slab {
    match (op, a) {
        (UnOp::Neg, Slab::I(mut v)) => {
            v[..len].iter_mut().for_each(|x| *x = x.wrapping_neg());
            Slab::I(v)
        }
        (UnOp::Neg, Slab::F(mut v)) => {
            v[..len].iter_mut().for_each(|x| *x = -*x);
            Slab::F(v)
        }
        (UnOp::Not, Slab::B(mut v)) => {
            v[..len].iter_mut().for_each(|x| *x = !*x);
            Slab::B(v)
        }
        _ => unreachable!("plan typing admits no {op:?} on this operand"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_codegen::clike::Kernel;
    use lift_core::scalar::ScalarKind;
    use lift_tuner::SplitMix64;

    /// Float arguments worth a special look, beside random bit patterns.
    const FLOATS: [f32; 12] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -1e-45,
        f32::MIN_POSITIVE,
        f32::MAX,
        1.0,
        -2.5,
        0.3,
    ];

    /// Int arguments worth a special look: `i32` extremes, values past
    /// them that an `i64` register can hold, and small indices.
    const INTS: [i64; 8] = [
        i32::MIN as i64,
        i32::MAX as i64,
        (1 << 33) + 7,
        -(1 << 40) - 3,
        -1,
        0,
        1,
        24,
    ];

    fn float(rng: &mut SplitMix64) -> f32 {
        match rng.gen_range(3) {
            0 => FLOATS[rng.gen_range(FLOATS.len())],
            1 => f32::from_bits(rng.next_u64() as u32),
            _ => (rng.gen_range(2001) as f32 - 1000.0) / 64.0,
        }
    }

    fn int(rng: &mut SplitMix64) -> i64 {
        match rng.gen_range(3) {
            0 => INTS[rng.gen_range(INTS.len())],
            1 => rng.next_u64() as i64,
            _ => rng.gen_range(30) as i64,
        }
    }

    /// Equal bits, or both NaN: Rust leaves NaN payloads unspecified, and
    /// a vectorized loop may order a commutative operation's operands
    /// differently.
    fn same(a: Scalar, b: Scalar) -> bool {
        match (a, b) {
            (Scalar::F32(x), Scalar::F32(y)) => {
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
            }
            _ => a == b,
        }
    }

    /// For every library user function, evaluating its program across the
    /// lanes equals [`UserFun::call`] on each active lane bit for bit
    /// (NaNs aside, see [`same`]), for arguments at strides 0 and 1 under
    /// random partial masks; a fault is the first active lane's.
    #[test]
    fn slab_calls_equal_scalar_calls() {
        let empty = Kernel {
            name: "empty".into(),
            body: vec![],
            params: vec![],
            locals: vec![],
            user_funs: vec![],
        };
        let plan = Plan::compile(&empty).expect("compiles");
        let mut rng = SplitMix64::new(0x5eed);
        let (mut faults, mut values) = (0, 0);
        for f in lift_stencils::user_functions() {
            for _ in 0..200 {
                let lanes = 1 + rng.gen_range(40);
                let cfg = LaunchConfig::d1(lanes, lanes);
                let mut machine = PlanMachine::new(&plan, &mut [], cfg, 32);
                let mask: Vec<bool> = (0..lanes).map(|_| rng.gen_range(4) > 0).collect();
                let count = mask.iter().filter(|&&m| m).count() as u64;
                let args: Vec<Operand> = (f.program().params().iter())
                    .map(|k| {
                        let stride = rng.gen_range(2);
                        let n = if stride == 0 { 1 } else { lanes };
                        let slab = match k {
                            ScalarKind::F32 => Slab::F((0..n).map(|_| float(&mut rng)).collect()),
                            ScalarKind::I32 => Slab::I((0..n).map(|_| int(&mut rng)).collect()),
                            ScalarKind::Bool => {
                                Slab::B((0..n).map(|_| rng.gen_range(2) == 0).collect())
                            }
                        };
                        (slab, stride)
                    })
                    .collect();
                let lane_args = |i: usize| -> Vec<Scalar> {
                    args.iter().map(|(a, s)| a.scalar(i * s)).collect()
                };
                let active = (0..lanes).filter(|&i| mask[i]);
                let want: Result<Vec<(usize, Scalar)>, SimError> =
                    active.map(|i| Ok((i, f.call(&lane_args(i))?))).collect();
                let got = machine.call_vec(&f, &args, &mask, count);
                let label = format!("{} over {lanes} lanes", f.name());
                match (want, got) {
                    (Ok(want), Ok((out, stride))) => {
                        if args.iter().all(|(_, s)| *s == 0) {
                            assert_eq!(stride, 0, "{label}: invariant arguments");
                        }
                        for (i, w) in want {
                            let g = out.scalar(i * stride);
                            assert!(same(g, w), "{label}, lane {i}: {g:?} vs {w:?}");
                            values += 1;
                        }
                    }
                    (Err(w), Err(g)) => {
                        assert_eq!(g, w, "{label}");
                        faults += 1;
                    }
                    (w, g) => panic!("{label}: scalar {w:?}, slab {:?}", g.map(|o| o.1)),
                }
            }
        }
        assert!(
            faults > 10 && values > 10_000,
            "{faults} faults, {values} values"
        );
    }
}
