//! Execution-plan compilation: lowering a [`Kernel`] AST into a flat,
//! slot-resolved bytecode program.
//!
//! The tree-walking interpreter in [`crate::exec`] resolves every variable
//! through a `HashMap`, clones the kernel body per work-group and re-walks
//! `CStmt`/`CExpr` trees per work-item — fine for one launch, ruinous when
//! the autotuner scores thousands of configurations. This module performs
//! that resolution **once per kernel**:
//!
//! * every scalar variable and buffer becomes a dense slot index (an
//!   unresolvable variable is a *plan-compile* error, not a mid-simulation
//!   fault);
//! * expressions become a stack-machine bytecode (`EOp`) the executor
//!   evaluates **op-major across all active lanes at once** (each op runs
//!   for every active work-item before the next op), with the lazy `?:`
//!   select compiled to per-lane mask splits;
//! * structured control flow becomes statement instructions (`Inst`) with
//!   explicit jump offsets and statically-assigned active-mask slots;
//! * lane-invariant (work-item-independent) expressions are marked
//!   `uniform` so the executor evaluates them once per group and charges
//!   the per-lane ALU cost arithmetically;
//! * a sound kind-inference fixpoint types the storage: scalar slots whose
//!   every write is provably an integer live in raw `i64` rows, and
//!   local/private buffers whose every store is provably a float live in
//!   raw `f32` arenas — so the hot index math and stencil data paths run
//!   on unboxed vectors instead of per-lane tagged values.
//!
//! The resulting [`Plan`] is immutable and freely shareable; the
//! register-machine inner loop in [`crate::exec`] drives it with one
//! reusable scratch arena across all work-groups of a launch.
//!
//! # Determinism contract
//!
//! For every kernel the plan path produces **byte-identical** outputs,
//! [`KernelStats`] and modeled times to the tree interpreter: both engines
//! execute the same statements over the same active lanes, count the same
//! events, and differ only in how fast the host simulates them. The
//! differential suite in `tests/sim_differential.rs` asserts this for
//! every Table-1 benchmark × variant × device.
//!
//! [`KernelStats`]: crate::perf::KernelStats

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use lift_codegen::clike::{BinOp, CExpr, CStmt, CType, Kernel, UnOp, VarRef, WorkItemFn};
use lift_core::scalar::ScalarKind;
use lift_core::userfun::UserFun;

use crate::exec::{call_cost, SimError};
use crate::verify::VerifyFinding;

/// Where a scalar variable's per-lane storage lives: a raw `i64` row (for
/// slots whose every write is provably an integer) or a tagged-value row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Row {
    /// Row index into the `i64` register arena.
    I(u32),
    /// Row index into the tagged-value register arena.
    V(u32),
}

/// Where a buffer access resolves to, decided at plan-compile time. Local
/// and private buffers carry their arena offset and length; the `F`/`V`
/// split mirrors the storage typing (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufSlot {
    /// Global-memory parameter `slot`; `name` indexes [`Plan::buf_names`].
    Global { slot: u16, name: u16 },
    /// Float-typed work-group local buffer.
    LocalF { off: u32, len: u32, name: u16 },
    /// Tagged-value local buffer (a store with unprovable kind exists).
    LocalV { off: u32, len: u32, name: u16 },
    /// Float-typed per-work-item private array (`off` within one item's
    /// block).
    PrivF { off: u32, len: u32, name: u16 },
    /// Tagged-value private array.
    PrivV { off: u32, len: u32, name: u16 },
}

/// One stack-machine expression operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EOp {
    /// Push an integer literal.
    I(i64),
    /// Push a float literal.
    F(f32),
    /// Push a boolean literal.
    B(bool),
    /// Push the lanes of a scalar register row.
    Scalar(Row),
    /// Push a work-item query result.
    WorkItem(WorkItemFn, u8),
    /// Pop two operands, push the result; charges one ALU op per lane.
    Bin(BinOp),
    /// Pop one operand, push the result; charges one ALU op per lane.
    Un(UnOp),
    /// Pop `argc` arguments, call [`Plan::funs`]`[fun]` per lane, push the
    /// result; charges `cost` ALU ops per lane.
    Call { fun: u16, argc: u8, cost: u64 },
    /// Pop an index, push the loaded element (with the load's stats and
    /// coalescing side effects).
    Load(BufSlot),
    /// Pop, convert, push.
    Cast(CType),
    /// Pop the `?:` select condition and split the active lanes into
    /// then/else sub-masks (charging one ALU op per active lane). The
    /// then-arm ops that follow run under the then-mask only, so the
    /// select stays lazy per lane, exactly as the tree interpreter
    /// evaluates it.
    SelSplit,
    /// End of the then-arm: park its value, switch to the else-mask.
    SelSwap,
    /// End of the else-arm: merge the two arm values lane-wise.
    SelJoin,
}

/// A compiled expression: a `[start, end)` range of [`Plan::ecode`] plus
/// the lane-invariance flag the executor uses for once-per-group hoisting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExprRef {
    pub start: u32,
    pub end: u32,
    /// `true` when the value (and its ALU-op count) is identical for every
    /// work-item of a group: no scalar-variable reads, no loads, no calls,
    /// no `get_local_id`/`get_global_id`.
    pub uniform: bool,
}

/// One statement-level instruction of the flattened program.
///
/// Control flow is expressed as jump targets into [`Plan::code`]; active
/// masks live in statically-assigned scratch slots (slot 0 is the all-true
/// base mask), so the executor never allocates during a launch.
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// Evaluate `value` for every active lane and write scalar row `row`
    /// (`coerce` applies the declaration coercion; `charge` runs the
    /// SIMD idle-lane charge as assignments do — `for`-loop initialisers
    /// do not).
    SetScalar {
        row: Row,
        value: ExprRef,
        coerce: Option<CType>,
        charge: bool,
    },
    /// Evaluate `idx` and `value` for every active lane and store.
    Store {
        buf: BufSlot,
        idx: ExprRef,
        value: ExprRef,
    },
    /// Loop head: build this iteration's mask in slot `mask` from the
    /// current mask and `row < bound`; jump to `exit` when no lane
    /// continues.
    ForHead {
        row: Row,
        bound: ExprRef,
        mask: u16,
        exit: u32,
    },
    /// Loop latch: advance `row` by `step` for the iteration's lanes, pop
    /// the iteration mask and jump back to `head`.
    ForStep { row: Row, step: ExprRef, head: u32 },
    /// Branch head: split the current mask into `tmask`/`emask` on `cond`;
    /// enter the then-block, jump to `els`, or jump to `end` as lanes
    /// demand.
    IfHead {
        cond: ExprRef,
        tmask: u16,
        emask: u16,
        els: u32,
        end: u32,
    },
    /// End of a then-block: pop `tmask`; enter the else-block at `els`
    /// when it has lanes, otherwise jump to `end`.
    ElseJoin { emask: u16, els: u32, end: u32 },
    /// End of an else-block: pop `emask`.
    EndIf,
    /// Work-group barrier (divergence-checked against the current mask).
    Barrier,
}

/// A kernel compiled to its executable plan (see the module docs).
///
/// Compile once with [`Plan::compile`]; run many times through
/// [`crate::VirtualDevice`]. The plan is immutable and `Send + Sync`.
#[derive(Debug)]
pub struct Plan {
    pub(crate) code: Vec<Inst>,
    pub(crate) ecode: Vec<EOp>,
    pub(crate) funs: Vec<Arc<UserFun>>,
    /// Buffer display names for fault messages, indexed by the `name`
    /// field of [`BufSlot`].
    pub(crate) buf_names: Vec<String>,
    /// Segment-aligned virtual base address per global parameter slot.
    pub(crate) global_bases: Vec<u64>,
    /// Rows in the `i64` scalar register arena.
    pub(crate) n_int_rows: usize,
    /// Rows in the tagged-value scalar register arena.
    pub(crate) n_var_rows: usize,
    /// Elements in the float local arena / the tagged local arena.
    pub(crate) local_f_total: usize,
    pub(crate) local_v_total: usize,
    /// Elements per work-item in the float / tagged private arenas.
    pub(crate) priv_f_total: usize,
    pub(crate) priv_v_total: usize,
    /// Mask scratch slots, including the base all-true mask at slot 0.
    pub(crate) n_masks: usize,
    pub(crate) local_bytes: usize,
}

impl Plan {
    /// Compiles `kernel` into its execution plan.
    ///
    /// # Errors
    ///
    /// [`SimError::PlanCompile`] wrapping the underlying fault:
    /// [`SimError::UnboundVariable`] for a variable or buffer no
    /// declaration binds, and [`SimError::TypeMismatch`] for operations
    /// whose operand kinds are statically known to be incompatible. Both
    /// name the kernel and the offending statement — faults the tree
    /// interpreter only hits mid-simulation.
    pub fn compile(kernel: &Kernel) -> Result<Plan, SimError> {
        let slots = kernel.slot_map();
        let marks = infer_marks(kernel, &slots);

        let mut b = Builder {
            code: Vec::new(),
            ecode: Vec::new(),
            funs: Vec::new(),
            fun_ids: HashMap::new(),
            buf_names: Vec::new(),
            scalar_rows: HashMap::new(),
            global_slots: HashMap::new(),
            local_slots: HashMap::new(),
            priv_slots: HashMap::new(),
            mask_depth: 1,
            n_masks: 1,
            context: vec![format!("kernel `{}`", kernel.name)],
        };

        // Scalar slots → typed register rows, in stable slot order.
        let (mut int_rows, mut var_rows) = (0u32, 0u32);
        for (slot, (var, _)) in slots.scalars.iter().enumerate() {
            let row = if marks.slot_int[slot] {
                int_rows += 1;
                Row::I(int_rows - 1)
            } else {
                var_rows += 1;
                Row::V(var_rows - 1)
            };
            b.scalar_rows.insert(var.id(), row);
        }

        // Private arrays → typed arena ranges, in stable slot order.
        let (mut priv_f_total, mut priv_v_total) = (0usize, 0usize);
        for (slot, (var, _, len)) in slots.priv_arrays.iter().enumerate() {
            let name = b.intern_name(var);
            let bs = if marks.priv_f[slot] {
                let off = priv_f_total as u32;
                priv_f_total += len;
                BufSlot::PrivF {
                    off,
                    len: *len as u32,
                    name,
                }
            } else {
                let off = priv_v_total as u32;
                priv_v_total += len;
                BufSlot::PrivV {
                    off,
                    len: *len as u32,
                    name,
                }
            };
            b.priv_slots.insert(var.id(), bs);
        }

        let mut global_bases = Vec::new();
        let mut base = 0u64;
        for (slot, p) in kernel.params.iter().enumerate() {
            let name = b.intern_name(&p.var);
            b.global_slots
                .insert(p.var.id(), (slot as u16, name, p.elem));
            global_bases.push(base);
            // Segment-align each buffer, exactly as the interpreter does.
            base += ((p.len as u64 * 4).div_ceil(crate::perf::SEGMENT_BYTES))
                * crate::perf::SEGMENT_BYTES;
        }

        let (mut local_f_total, mut local_v_total) = (0usize, 0usize);
        for (slot, l) in kernel.locals.iter().enumerate() {
            let name = b.intern_name(&l.var);
            let bs = if marks.local_f[slot] {
                let off = local_f_total as u32;
                local_f_total += l.len;
                BufSlot::LocalF {
                    off,
                    len: l.len as u32,
                    name,
                }
            } else {
                let off = local_v_total as u32;
                local_v_total += l.len;
                BufSlot::LocalV {
                    off,
                    len: l.len as u32,
                    name,
                }
            };
            b.local_slots.insert(l.var.id(), bs);
        }

        b.stmts(&kernel.body)?;
        Ok(Plan {
            code: b.code,
            ecode: b.ecode,
            funs: b.funs,
            buf_names: b.buf_names,
            global_bases,
            n_int_rows: int_rows as usize,
            n_var_rows: var_rows as usize,
            local_f_total,
            local_v_total,
            priv_f_total,
            priv_v_total,
            n_masks: b.n_masks as usize,
            local_bytes: kernel.local_bytes(),
        })
    }

    /// Number of statement instructions (diagnostics and benches).
    pub fn instructions(&self) -> usize {
        self.code.len()
    }

    /// Number of expression operations (diagnostics and benches).
    pub fn expr_ops(&self) -> usize {
        self.ecode.len()
    }
}

/// A kernel paired with its lazily-compiled [`Plan`]: the unit the
/// `lift-driver` kernel cache stores, so tuning one variant across many
/// configurations plans exactly once.
#[derive(Debug)]
pub struct PlannedKernel {
    kernel: Arc<Kernel>,
    plan: OnceLock<Arc<Plan>>,
    /// Static-verification reports, memoised per (launch, local-memory
    /// budget) — the two inputs [`crate::verify`] depends on.
    verified: Mutex<VerifyCache>,
    /// Cost estimates, memoised per (launch, warp width) — the two inputs
    /// [`crate::cost`] depends on besides the plan itself.
    estimated: Mutex<EstimateCache>,
}

/// Memoised verification results, keyed by the launch geometry and the
/// device's per-CU local-memory budget.
type VerifyCache = HashMap<(crate::runtime::LaunchConfig, usize), Arc<Vec<VerifyFinding>>>;

/// Memoised cost estimates, keyed by the launch geometry and warp width.
type EstimateCache = HashMap<(crate::runtime::LaunchConfig, usize), Arc<crate::cost::CostEstimate>>;

impl PlannedKernel {
    /// Wraps a compiled kernel; the plan is built on first use (or
    /// eagerly via [`PlannedKernel::plan`]).
    pub fn new(kernel: Kernel) -> Self {
        Self::from_arc(Arc::new(kernel))
    }

    /// Wraps an already-shared kernel.
    pub fn from_arc(kernel: Arc<Kernel>) -> Self {
        PlannedKernel {
            kernel,
            plan: OnceLock::new(),
            verified: Mutex::new(HashMap::new()),
            estimated: Mutex::new(HashMap::new()),
        }
    }

    /// The kernel AST.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The execution plan, compiling it on first call.
    ///
    /// # Errors
    ///
    /// As [`Plan::compile`]. Failures are not cached; callers see the same
    /// error on every attempt.
    pub fn plan(&self) -> Result<Arc<Plan>, SimError> {
        if let Some(p) = self.plan.get() {
            return Ok(p.clone());
        }
        let p = Arc::new(Plan::compile(&self.kernel)?);
        Ok(self.plan.get_or_init(|| p).clone())
    }

    /// Statically verifies the kernel for one launch configuration on one
    /// device (see [`crate::verify`]); results are memoised, so tuners
    /// probing thousands of launches over a handful of kernels pay for
    /// each analysis once.
    ///
    /// # Errors
    ///
    /// As [`PlannedKernel::plan`] — verification needs the compiled plan.
    pub fn verify(
        &self,
        cfg: crate::runtime::LaunchConfig,
        profile: &crate::device::DeviceProfile,
    ) -> Result<Arc<Vec<VerifyFinding>>, SimError> {
        let key = (cfg, profile.lmem_bytes_per_cu);
        if let Some(hit) = self.verified.lock().expect("verify cache").get(&key) {
            return Ok(hit.clone());
        }
        let plan = self.plan()?;
        let findings = Arc::new(crate::verify::verify_kernel(
            &self.kernel,
            &plan,
            cfg,
            profile,
        ));
        self.verified
            .lock()
            .expect("verify cache")
            .insert(key, findings.clone());
        Ok(findings)
    }

    /// Predicts the kernel's [`crate::KernelStats`] for one launch
    /// configuration on one device without its input data: a
    /// data-dependence check, then a run on zero-filled buffers (see
    /// [`crate::cost`]). Results are memoised per (launch, warp width), so
    /// tuners probing thousands of launches over a handful of kernels pay
    /// for each estimate once. The estimate is a pure function of
    /// (plan, launch, warp) — bit-identical across threads and shards.
    ///
    /// # Errors
    ///
    /// As [`PlannedKernel::plan`], plus [`SimError::Estimate`] when buffer
    /// data reaches the kernel's control flow or global addressing, or any
    /// fault of the zero-data run ([`SimError::BadLaunch`],
    /// [`SimError::OutOfBounds`], ...). Failures are not cached.
    pub fn estimate(
        &self,
        cfg: crate::runtime::LaunchConfig,
        profile: &crate::device::DeviceProfile,
    ) -> Result<Arc<crate::cost::CostEstimate>, SimError> {
        let warp = profile.warp_width as usize;
        let key = (cfg, warp);
        if let Some(hit) = self.estimated.lock().expect("estimate cache").get(&key) {
            return Ok(hit.clone());
        }
        let plan = self.plan()?;
        let est = Arc::new(crate::cost::estimate_plan(
            &plan,
            &self.kernel.params,
            cfg,
            warp,
        )?);
        self.estimated
            .lock()
            .expect("estimate cache")
            .insert(key, est.clone());
        Ok(est)
    }
}

// ---------------------------------------------------------------------------
// Storage-kind inference
// ---------------------------------------------------------------------------

/// Runtime *slab* kind of an expression: the representation its per-lane
/// values provably take. `Un` means "not provable" (the executor falls
/// back to tagged values). Distinct from the error-checking kind `K`
/// below: `Sk` must be **sound** (a wrong claim would change results),
/// while `K` is merely used to surface provable faults early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sk {
    I,
    F,
    B,
    Un,
}

/// Which storage may be typed: computed as a downward fixpoint. A scalar
/// slot starts as "int" and stays so only while every write to it is
/// provably an integer (the implicit group-start value is integer zero); a
/// local/private buffer starts as "float" and stays so only while every
/// store to it is provably a float (the group-start fill is float zero).
struct Marks {
    slot_int: Vec<bool>,
    local_f: Vec<bool>,
    priv_f: Vec<bool>,
}

/// A write site the fixpoint re-evaluates each round.
enum Write<'k> {
    Slot {
        slot: usize,
        value: &'k CExpr,
        coerce: Option<CType>,
    },
    Local {
        slot: usize,
        value: &'k CExpr,
    },
    Priv {
        slot: usize,
        value: &'k CExpr,
    },
}

fn infer_marks(kernel: &Kernel, slots: &lift_codegen::clike::SlotMap) -> Marks {
    let slot_index: HashMap<u32, usize> = slots
        .scalars
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (v.id(), i))
        .collect();
    let local_index: HashMap<u32, usize> = kernel
        .locals
        .iter()
        .enumerate()
        .map(|(i, l)| (l.var.id(), i))
        .collect();
    let priv_index: HashMap<u32, usize> = slots
        .priv_arrays
        .iter()
        .enumerate()
        .map(|(i, (v, _, _))| (v.id(), i))
        .collect();
    let global_kind: HashMap<u32, Sk> = kernel
        .params
        .iter()
        .map(|p| {
            (
                p.var.id(),
                match p.elem {
                    CType::Float => Sk::F,
                    CType::Int | CType::Bool => Sk::I,
                },
            )
        })
        .collect();

    let mut writes: Vec<Write<'_>> = Vec::new();
    collect_writes(
        &kernel.body,
        &slot_index,
        &local_index,
        &priv_index,
        &mut writes,
    );

    let mut marks = Marks {
        slot_int: vec![true; slots.scalars.len()],
        local_f: vec![true; kernel.locals.len()],
        priv_f: vec![true; slots.priv_arrays.len()],
    };
    // Downward fixpoint: a mark only ever flips optimistic → pessimistic,
    // so this terminates within (#marks + 1) rounds.
    loop {
        let mut changed = false;
        for w in &writes {
            match w {
                Write::Slot {
                    slot,
                    value,
                    coerce,
                } => {
                    let mut sk = slab_kind(
                        value,
                        &marks,
                        &slot_index,
                        &local_index,
                        &priv_index,
                        &global_kind,
                    );
                    if let Some(ty) = coerce {
                        sk = coerce_sk(*ty, sk);
                    }
                    if sk != Sk::I && marks.slot_int[*slot] {
                        marks.slot_int[*slot] = false;
                        changed = true;
                    }
                }
                Write::Local { slot, value } => {
                    let sk = slab_kind(
                        value,
                        &marks,
                        &slot_index,
                        &local_index,
                        &priv_index,
                        &global_kind,
                    );
                    if sk != Sk::F && marks.local_f[*slot] {
                        marks.local_f[*slot] = false;
                        changed = true;
                    }
                }
                Write::Priv { slot, value } => {
                    let sk = slab_kind(
                        value,
                        &marks,
                        &slot_index,
                        &local_index,
                        &priv_index,
                        &global_kind,
                    );
                    if sk != Sk::F && marks.priv_f[*slot] {
                        marks.priv_f[*slot] = false;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return marks;
        }
    }
}

fn collect_writes<'k>(
    stmts: &'k [CStmt],
    slot_index: &HashMap<u32, usize>,
    local_index: &HashMap<u32, usize>,
    priv_index: &HashMap<u32, usize>,
    out: &mut Vec<Write<'k>>,
) {
    for s in stmts {
        match s {
            CStmt::DeclScalar {
                var,
                init: Some(e),
                ty,
            } => {
                if let Some(&slot) = slot_index.get(&var.id()) {
                    out.push(Write::Slot {
                        slot,
                        value: e,
                        coerce: Some(*ty),
                    });
                }
            }
            CStmt::Assign { var, value } => {
                if let Some(&slot) = slot_index.get(&var.id()) {
                    out.push(Write::Slot {
                        slot,
                        value,
                        coerce: None,
                    });
                }
            }
            CStmt::Store { buf, value, .. } => {
                if let Some(&slot) = local_index.get(&buf.id()) {
                    out.push(Write::Local { slot, value });
                } else if let Some(&slot) = priv_index.get(&buf.id()) {
                    out.push(Write::Priv { slot, value });
                }
            }
            CStmt::For {
                var, init, body, ..
            } => {
                // The loop latch always writes an integer; only the raw
                // initialiser can demote the induction variable's row.
                if let Some(&slot) = slot_index.get(&var.id()) {
                    out.push(Write::Slot {
                        slot,
                        value: init,
                        coerce: None,
                    });
                }
                collect_writes(body, slot_index, local_index, priv_index, out);
            }
            CStmt::If { then_, else_, .. } => {
                collect_writes(then_, slot_index, local_index, priv_index, out);
                collect_writes(else_, slot_index, local_index, priv_index, out);
            }
            _ => {}
        }
    }
}

/// The declaration coercion's effect on a slab kind (mirrors `coerce` in
/// the executor: `(Float, int) → float`, `(Int, bool) → int`, everything
/// else unchanged).
fn coerce_sk(ty: CType, sk: Sk) -> Sk {
    match (ty, sk) {
        (CType::Float, Sk::I) => Sk::F,
        (CType::Int, Sk::B) => Sk::I,
        (_, sk) => sk,
    }
}

/// Sound slab-kind inference (see [`Sk`]). Anything not provable — calls,
/// reads of untyped rows, mixed arithmetic — is `Un`.
fn slab_kind(
    e: &CExpr,
    marks: &Marks,
    slot_index: &HashMap<u32, usize>,
    local_index: &HashMap<u32, usize>,
    priv_index: &HashMap<u32, usize>,
    global_kind: &HashMap<u32, Sk>,
) -> Sk {
    let rec = |e: &CExpr| slab_kind(e, marks, slot_index, local_index, priv_index, global_kind);
    match e {
        CExpr::Int(_) => Sk::I,
        CExpr::Float(_) => Sk::F,
        CExpr::Bool(_) => Sk::B,
        CExpr::WorkItem(..) => Sk::I,
        CExpr::Var(v) => match slot_index.get(&v.id()) {
            Some(&slot) if marks.slot_int[slot] => Sk::I,
            _ => Sk::Un,
        },
        CExpr::Bin(op, a, b) => {
            use BinOp::*;
            let (ka, kb) = (rec(a), rec(b));
            match op {
                Add | Sub | Mul | Div | Min | Max => match (ka, kb) {
                    (Sk::I, Sk::I) => Sk::I,
                    (Sk::F, Sk::F) => Sk::F,
                    _ => Sk::Un,
                },
                Mod => match (ka, kb) {
                    (Sk::I, Sk::I) => Sk::I,
                    _ => Sk::Un,
                },
                Lt | Le | Gt | Ge | Eq | Ne => match (ka, kb) {
                    (Sk::I, Sk::I) | (Sk::F, Sk::F) => Sk::B,
                    _ => Sk::Un,
                },
                And | Or => match (ka, kb) {
                    (Sk::B, Sk::B) => Sk::B,
                    _ => Sk::Un,
                },
            }
        }
        CExpr::Un(op, a) => match (op, rec(a)) {
            (UnOp::Neg, Sk::I) => Sk::I,
            (UnOp::Neg, Sk::F) => Sk::F,
            (UnOp::Not, Sk::B) => Sk::B,
            _ => Sk::Un,
        },
        // Calls run arbitrary Rust; their runtime kind is not proven here.
        CExpr::Call(..) => Sk::Un,
        CExpr::Load { buf, .. } => {
            if let Some(k) = global_kind.get(&buf.id()) {
                *k
            } else if let Some(&slot) = local_index.get(&buf.id()) {
                if marks.local_f[slot] {
                    Sk::F
                } else {
                    Sk::Un
                }
            } else if let Some(&slot) = priv_index.get(&buf.id()) {
                if marks.priv_f[slot] {
                    Sk::F
                } else {
                    Sk::Un
                }
            } else {
                Sk::Un
            }
        }
        CExpr::Select { then_, else_, .. } => {
            let (kt, ke) = (rec(then_), rec(else_));
            if kt == ke {
                kt
            } else {
                Sk::Un
            }
        }
        CExpr::Cast(t, a) => match (t, rec(a)) {
            (_, Sk::Un) => Sk::Un,
            (CType::Float, Sk::I) => Sk::F,
            (CType::Int, Sk::F) => Sk::I,
            (_, k) => k,
        },
    }
}

// ---------------------------------------------------------------------------
// Bytecode builder
// ---------------------------------------------------------------------------

/// Statically-known scalar kind of an expression, used only to surface
/// provable faults at plan time. `Unknown` for anything reaching through a
/// scalar variable, whose runtime kind would need a flow-sensitive
/// fixpoint to prove — the check stays deliberately conservative so no
/// kernel the tree interpreter executes successfully is ever rejected.
/// Literals, work-item queries, typed-buffer loads, casts and
/// user-function calls all have provable kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum K {
    F,
    I,
    B,
    Unknown,
}

fn kind_of_scalar(k: ScalarKind) -> K {
    match k {
        ScalarKind::F32 => K::F,
        ScalarKind::I32 => K::I,
        ScalarKind::Bool => K::B,
    }
}

struct Builder {
    code: Vec<Inst>,
    ecode: Vec<EOp>,
    funs: Vec<Arc<UserFun>>,
    fun_ids: HashMap<String, u16>,
    buf_names: Vec<String>,
    scalar_rows: HashMap<u32, Row>,
    global_slots: HashMap<u32, (u16, u16, CType)>,
    local_slots: HashMap<u32, BufSlot>,
    priv_slots: HashMap<u32, BufSlot>,
    /// Next free mask slot (slot 0 is the base mask).
    mask_depth: u16,
    n_masks: u16,
    /// Statement-context breadcrumbs for compile errors.
    context: Vec<String>,
}

impl Builder {
    fn intern_name(&mut self, var: &VarRef) -> u16 {
        let idx = self.buf_names.len() as u16;
        self.buf_names.push(var.name().to_string());
        idx
    }

    fn fail(&self, cause: SimError) -> SimError {
        SimError::PlanCompile {
            context: self.context.join(", in "),
            cause: Box::new(cause),
        }
    }

    fn scalar_row(&self, var: &VarRef) -> Result<Row, SimError> {
        self.scalar_rows.get(&var.id()).copied().ok_or_else(|| {
            self.fail(SimError::UnboundVariable(format!(
                "{} (id #{})",
                var.name(),
                var.id()
            )))
        })
    }

    fn stmts(&mut self, stmts: &[CStmt]) -> Result<(), SimError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &CStmt) -> Result<(), SimError> {
        match s {
            CStmt::DeclScalar { var, init, ty } => {
                if let Some(e) = init {
                    self.context
                        .push(format!("declaration of `{}`", var.name()));
                    let row = self.scalar_row(var)?;
                    let (value, _) = self.expr(e)?;
                    self.code.push(Inst::SetScalar {
                        row,
                        value,
                        coerce: Some(*ty),
                        charge: true,
                    });
                    self.context.pop();
                }
                Ok(())
            }
            // Pre-allocated in the scratch arena.
            CStmt::DeclPrivateArray { .. } | CStmt::Comment(_) => Ok(()),
            CStmt::Assign { var, value } => {
                self.context.push(format!("assignment to `{}`", var.name()));
                let row = self.scalar_row(var)?;
                let (value, _) = self.expr(value)?;
                self.code.push(Inst::SetScalar {
                    row,
                    value,
                    coerce: None,
                    charge: true,
                });
                self.context.pop();
                Ok(())
            }
            CStmt::Store {
                buf, idx, value, ..
            } => {
                self.context.push(format!("store to `{}`", buf.name()));
                let slot = self.buf_slot(buf)?;
                let (idx, ik) = self.expr(idx)?;
                self.require_int(ik, "buffer index")?;
                let (value, vk) = self.expr(value)?;
                if let BufSlot::Global { slot: g, .. } = slot {
                    // A float stored into an int buffer faults at runtime;
                    // report it at plan time when provable.
                    let elem = self
                        .global_slots
                        .values()
                        .find(|(s, _, _)| *s == g)
                        .map(|(_, _, e)| *e);
                    if elem == Some(CType::Int) && vk == K::F {
                        return Err(self.fail(SimError::TypeMismatch(
                            "float stored into int buffer".into(),
                        )));
                    }
                }
                self.code.push(Inst::Store {
                    buf: slot,
                    idx,
                    value,
                });
                self.context.pop();
                Ok(())
            }
            CStmt::For {
                var,
                init,
                bound,
                step,
                body,
            } => {
                self.context.push(format!("for-loop over `{}`", var.name()));
                let row = self.scalar_row(var)?;
                let (init, _) = self.expr(init)?;
                self.code.push(Inst::SetScalar {
                    row,
                    value: init,
                    coerce: None,
                    charge: false,
                });
                let (bound, bk) = self.expr(bound)?;
                self.require_int(bk, "loop bound")?;
                let (step, sk) = self.expr(step)?;
                self.require_int(sk, "loop step")?;
                let mask = self.mask_depth;
                self.mask_depth += 1;
                self.n_masks = self.n_masks.max(self.mask_depth);
                let head = self.code.len();
                self.code.push(Inst::ForHead {
                    row,
                    bound,
                    mask,
                    exit: u32::MAX, // patched below
                });
                self.stmts(body)?;
                self.code.push(Inst::ForStep {
                    row,
                    step,
                    head: head as u32,
                });
                let exit = self.code.len() as u32;
                let Inst::ForHead { exit: e, .. } = &mut self.code[head] else {
                    unreachable!("head written above");
                };
                *e = exit;
                self.mask_depth -= 1;
                self.context.pop();
                Ok(())
            }
            CStmt::If { cond, then_, else_ } => {
                self.context.push("if-branch".to_string());
                let (cond, ck) = self.expr(cond)?;
                if ck == K::F {
                    return Err(
                        self.fail(SimError::TypeMismatch("expected bool, found float".into()))
                    );
                }
                let tmask = self.mask_depth;
                let emask = self.mask_depth + 1;
                self.mask_depth += 2;
                self.n_masks = self.n_masks.max(self.mask_depth);
                let head = self.code.len();
                self.code.push(Inst::IfHead {
                    cond,
                    tmask,
                    emask,
                    els: u32::MAX,
                    end: u32::MAX,
                });
                self.stmts(then_)?;
                let join = self.code.len();
                self.code.push(Inst::ElseJoin {
                    emask,
                    els: u32::MAX,
                    end: u32::MAX,
                });
                let els = self.code.len() as u32;
                self.stmts(else_)?;
                self.code.push(Inst::EndIf);
                let end = self.code.len() as u32;
                let Inst::IfHead {
                    els: e1, end: e2, ..
                } = &mut self.code[head]
                else {
                    unreachable!("head written above");
                };
                (*e1, *e2) = (els, end);
                let Inst::ElseJoin {
                    els: e1, end: e2, ..
                } = &mut self.code[join]
                else {
                    unreachable!("join written above");
                };
                (*e1, *e2) = (els, end);
                self.mask_depth -= 2;
                self.context.pop();
                Ok(())
            }
            CStmt::Barrier { .. } => {
                self.code.push(Inst::Barrier);
                Ok(())
            }
        }
    }

    fn require_int(&self, k: K, what: &str) -> Result<(), SimError> {
        if k == K::F {
            return Err(self.fail(SimError::TypeMismatch(format!(
                "expected int, found float ({what})"
            ))));
        }
        Ok(())
    }

    fn buf_slot(&self, var: &VarRef) -> Result<BufSlot, SimError> {
        if let Some((slot, name, _)) = self.global_slots.get(&var.id()) {
            return Ok(BufSlot::Global {
                slot: *slot,
                name: *name,
            });
        }
        if let Some(bs) = self.local_slots.get(&var.id()) {
            return Ok(*bs);
        }
        if let Some(bs) = self.priv_slots.get(&var.id()) {
            return Ok(*bs);
        }
        Err(self.fail(SimError::UnboundVariable(format!(
            "buffer `{}`",
            var.name()
        ))))
    }

    /// Compiles one expression, appending to [`Builder::ecode`]; returns
    /// its range/uniformity and statically-inferred kind.
    fn expr(&mut self, e: &CExpr) -> Result<(ExprRef, K), SimError> {
        let start = self.ecode.len() as u32;
        let (uniform, k) = self.emit(e)?;
        Ok((
            ExprRef {
                start,
                end: self.ecode.len() as u32,
                uniform,
            },
            k,
        ))
    }

    /// Emits ops for `e`; returns `(uniform, kind)`.
    fn emit(&mut self, e: &CExpr) -> Result<(bool, K), SimError> {
        match e {
            CExpr::Int(v) => {
                self.ecode.push(EOp::I(*v));
                Ok((true, K::I))
            }
            CExpr::Float(v) => {
                self.ecode.push(EOp::F(*v));
                Ok((true, K::F))
            }
            CExpr::Bool(v) => {
                self.ecode.push(EOp::B(*v));
                Ok((true, K::B))
            }
            CExpr::Var(v) => {
                let row = self.scalar_row(v)?;
                self.ecode.push(EOp::Scalar(row));
                Ok((false, K::Unknown))
            }
            CExpr::WorkItem(f, d) => {
                self.ecode.push(EOp::WorkItem(*f, *d));
                let uniform = matches!(
                    f,
                    WorkItemFn::GroupId
                        | WorkItemFn::GlobalSize
                        | WorkItemFn::LocalSize
                        | WorkItemFn::NumGroups
                );
                Ok((uniform, K::I))
            }
            CExpr::Bin(op, a, b) => {
                let (ua, ka) = self.emit(a)?;
                let (ub, kb) = self.emit(b)?;
                self.ecode.push(EOp::Bin(*op));
                let k = self.bin_kind(*op, ka, kb)?;
                Ok((ua && ub, k))
            }
            CExpr::Un(op, a) => {
                let (u, k) = self.emit(a)?;
                self.ecode.push(EOp::Un(*op));
                let k = match (op, k) {
                    (_, K::Unknown) => K::Unknown,
                    (UnOp::Neg, K::F) => K::F,
                    (UnOp::Neg, K::I) => K::I,
                    (UnOp::Not, K::B) => K::B,
                    _ => return Err(self.fail(SimError::TypeMismatch("bad unary operand".into()))),
                };
                Ok((u, k))
            }
            CExpr::Call(f, args) => {
                for a in args {
                    self.emit(a)?;
                }
                let fun = match self.fun_ids.get(f.name()) {
                    Some(i) => *i,
                    None => {
                        let i = self.funs.len() as u16;
                        self.funs.push(f.clone());
                        self.fun_ids.insert(f.name().to_string(), i);
                        i
                    }
                };
                self.ecode.push(EOp::Call {
                    fun,
                    argc: args.len() as u8,
                    cost: call_cost(f.c_body()),
                });
                let k = f
                    .ret()
                    .as_scalar()
                    .map(kind_of_scalar)
                    .unwrap_or(K::Unknown);
                Ok((false, k))
            }
            CExpr::Load { buf, idx, .. } => {
                let (_, ik) = self.emit(idx)?;
                self.require_int(ik, "buffer index")?;
                let slot = self.buf_slot(buf)?;
                let k = match slot {
                    BufSlot::Global { slot, .. } => self
                        .global_slots
                        .values()
                        .find(|(s, _, _)| *s == slot)
                        .map(|(_, _, e)| match e {
                            CType::Float => K::F,
                            CType::Int => K::I,
                            CType::Bool => K::B,
                        })
                        .unwrap_or(K::Unknown),
                    _ => K::Unknown,
                };
                self.ecode.push(EOp::Load(slot));
                Ok((false, k))
            }
            CExpr::Select { cond, then_, else_ } => {
                let (uc, ck) = self.emit(cond)?;
                if ck == K::F {
                    return Err(
                        self.fail(SimError::TypeMismatch("expected bool, found float".into()))
                    );
                }
                self.ecode.push(EOp::SelSplit);
                let (ut, kt) = self.emit(then_)?;
                self.ecode.push(EOp::SelSwap);
                let (ue, ke) = self.emit(else_)?;
                self.ecode.push(EOp::SelJoin);
                let k = if kt == ke { kt } else { K::Unknown };
                Ok((uc && ut && ue, k))
            }
            CExpr::Cast(t, a) => {
                let (u, k) = self.emit(a)?;
                self.ecode.push(EOp::Cast(*t));
                let k = match (t, k) {
                    (_, K::Unknown) => K::Unknown,
                    (CType::Float, K::I) => K::F,
                    (CType::Int, K::F) => K::I,
                    (_, k) => k,
                };
                Ok((u, k))
            }
        }
    }

    /// Result kind of a binary operation, or a plan-compile error when the
    /// operand kinds are statically known to fault at runtime.
    fn bin_kind(&self, op: BinOp, a: K, b: K) -> Result<K, SimError> {
        use BinOp::*;
        if a == K::Unknown || b == K::Unknown {
            // The comparison/logic result kind is certain even when an
            // operand's kind is not.
            return Ok(match op {
                Lt | Le | Gt | Ge | Eq | Ne | And | Or => K::B,
                _ => K::Unknown,
            });
        }
        match op {
            Add | Sub | Mul | Div | Mod | Min | Max => {
                if a == b && a != K::B && !(matches!(op, Mod) && a == K::F) {
                    Ok(a)
                } else {
                    Err(self.fail(SimError::TypeMismatch(format!(
                        "operator {op:?} on {a:?} and {b:?} operands"
                    ))))
                }
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                if a == b && a != K::B {
                    Ok(K::B)
                } else {
                    Err(self.fail(SimError::TypeMismatch(format!(
                        "operator {op:?} on {a:?} and {b:?} operands"
                    ))))
                }
            }
            And | Or => {
                if a == K::B && b == K::B {
                    Ok(K::B)
                } else {
                    Err(self.fail(SimError::TypeMismatch(format!(
                        "operator {op:?} on {a:?} and {b:?} operands"
                    ))))
                }
            }
        }
    }
}
