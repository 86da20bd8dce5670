//! Execution-plan compilation: lowering a [`Kernel`] AST into a flat,
//! slot-resolved bytecode program.
//!
//! The tree-walking reference interpreter (`crate::reference`) resolves
//! every variable through a `HashMap` and re-walks `CStmt`/`CExpr` trees
//! per work-item over dynamically tagged values — fine for one launch,
//! ruinous when the autotuner scores thousands of configurations. This
//! module performs that resolution **once per kernel**:
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
//! * one typing pass gives every scalar slot, buffer and expression its
//!   type from the kernel's declarations (scalar and private-array
//!   declarations, buffer element types, user-function signatures), with
//!   no implicit conversions: `int` scalars live in `i64` rows, `float`
//!   scalars in `f32` rows, local and private arrays in `f32` arenas, and
//!   every op evaluates into a homogeneous `i64`, `f32` or `bool` slab. A
//!   kernel that does not type is a plan-compile error.
//!
//! The resulting [`Plan`] is immutable and freely shareable; the
//! register-machine inner loop in [`crate::exec`] drives it with one
//! reusable scratch arena across all work-groups of a launch.
//!
//! # Determinism contract
//!
//! For every kernel the plan compiler accepts, the plan path produces
//! **byte-identical** outputs, [`KernelStats`] and modeled times to the
//! tree interpreter: both engines execute the same statements over the
//! same active lanes, count the same events, and differ only in how fast
//! the host simulates them. The differential suite in
//! `tests/sim_differential.rs` asserts this for every Table-1 benchmark ×
//! variant × device.
//!
//! [`KernelStats`]: crate::perf::KernelStats

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use lift_codegen::clike::{BinOp, CExpr, CStmt, CType, Kernel, UnOp, VarRef, WorkItemFn};
use lift_core::userfun::UserFun;

use crate::exec::{call_cost, SimError};
use crate::verify::VerifyFinding;

/// Where a scalar variable's per-lane storage lives, fixed by its
/// declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Row {
    /// Row index into the `i64` register arena (an `int` scalar).
    I(u32),
    /// Row index into the `f32` register arena (a `float` scalar).
    F(u32),
}

impl Row {
    /// The declared type of the scalars this row holds.
    pub(crate) fn ty(self) -> CType {
        match self {
            Row::I(_) => CType::Int,
            Row::F(_) => CType::Float,
        }
    }
}

/// Where a buffer access resolves to, decided at plan-compile time. Local
/// and private buffers are `float` arrays and carry their offset and
/// length in the `f32` arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufSlot {
    /// Global-memory parameter `slot`; `name` indexes [`Plan::buf_names`].
    Global { slot: u16, name: u16 },
    /// Work-group local buffer.
    Local { off: u32, len: u32, name: u16 },
    /// Per-work-item private array (`off` within one item's block).
    Priv { off: u32, len: u32, name: u16 },
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
    /// Pop `argc` arguments, run [`Plan::funs`]`[fun]`'s body over them
    /// slab-wise (see [`crate::exec`]'s `PlanMachine`), push the result of
    /// the declared return type `ret`; charges `cost` ALU ops per lane, its
    /// C body's [`call_cost`]. One opaque op to the cost model and the
    /// verifier.
    Call {
        fun: u16,
        argc: u8,
        ret: CType,
        cost: u64,
    },
    /// An op that only computes buffer data, as a zero-data estimate runs
    /// it (see [`crate::cost`]): pop `argc` operands, push an unwritten
    /// slab of type `ret`, and charge the op's `cost` ALU ops per lane.
    /// Never in a [`Plan`] itself.
    Skip { argc: u8, ret: CType, cost: u64 },
    /// Pop an index, push the loaded element (with the load's stats and
    /// coalescing side effects).
    Load(BufSlot),
    /// Pop, convert (`int` ↔ `float`, or the identity), push.
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
    /// (`charge` runs the SIMD idle-lane charge as assignments do —
    /// `for`-loop initialisers do not).
    SetScalar {
        row: Row,
        value: ExprRef,
        charge: bool,
    },
    /// Evaluate `idx` and `value` for every active lane and store.
    Store {
        buf: BufSlot,
        idx: ExprRef,
        value: ExprRef,
    },
    /// Loop head: build this iteration's mask in slot `mask` from the
    /// current mask and `row < bound` (`row` is an int row); jump to `exit`
    /// when no lane continues.
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
    /// Rows in the `i64` and the `f32` scalar register arenas.
    pub(crate) n_int_rows: usize,
    pub(crate) n_float_rows: usize,
    /// Elements in the local arena.
    pub(crate) local_total: usize,
    /// Elements per work-item in the private arena.
    pub(crate) priv_total: usize,
    /// Mask scratch slots, including the base all-true mask at slot 0.
    pub(crate) n_masks: usize,
    pub(crate) local_bytes: usize,
}

impl Plan {
    /// Compiles `kernel` into its execution plan, typing every slot,
    /// buffer and expression from the kernel's declarations.
    ///
    /// # Errors
    ///
    /// [`SimError::PlanCompile`] wrapping the underlying fault:
    /// [`SimError::UnboundVariable`] for a variable or buffer no
    /// declaration binds, and [`SimError::TypeMismatch`] for a kernel that
    /// does not type — an operation on operands of the wrong types, an
    /// implicit conversion, a call that does not match its user function's
    /// signature, or a declaration with no storage (a `bool` scalar or
    /// buffer, an `int` local or private array). Both name the kernel and
    /// the offending statement.
    pub fn compile(kernel: &Kernel) -> Result<Plan, SimError> {
        let slots = kernel.slot_map();
        let mut b = Builder {
            code: Vec::new(),
            ecode: Vec::new(),
            funs: Vec::new(),
            fun_ids: HashMap::new(),
            buf_names: Vec::new(),
            scalar_rows: HashMap::new(),
            bufs: HashMap::new(),
            global_elems: kernel.params.iter().map(|p| p.elem).collect(),
            mask_depth: 1,
            n_masks: 1,
            context: vec![format!("kernel `{}`", kernel.name)],
        };

        // Scalar slots → register rows of their declared type, in stable
        // slot order.
        let (mut n_int_rows, mut n_float_rows) = (0usize, 0usize);
        for (var, ty) in &slots.scalars {
            let row = match ty {
                CType::Int => {
                    n_int_rows += 1;
                    Row::I(n_int_rows as u32 - 1)
                }
                CType::Float => {
                    n_float_rows += 1;
                    Row::F(n_float_rows as u32 - 1)
                }
                CType::Bool => return Err(b.no_storage(var, "a bool scalar")),
            };
            b.scalar_rows.insert(var.id(), row);
        }

        // Private arrays → ranges of the per-item `f32` arena.
        let mut priv_total = 0usize;
        for (var, ty, len) in &slots.priv_arrays {
            if *ty != CType::Float {
                return Err(b.no_storage(var, &format!("a private {} array", ty.c_name())));
            }
            let name = b.intern_name(var);
            let bs = BufSlot::Priv {
                off: priv_total as u32,
                len: *len as u32,
                name,
            };
            priv_total += len;
            b.bufs.insert(var.id(), bs);
        }

        let mut global_bases = Vec::new();
        let mut base = 0u64;
        for (slot, p) in kernel.params.iter().enumerate() {
            if p.elem == CType::Bool {
                return Err(b.no_storage(&p.var, "a bool buffer"));
            }
            let name = b.intern_name(&p.var);
            b.bufs.insert(
                p.var.id(),
                BufSlot::Global {
                    slot: slot as u16,
                    name,
                },
            );
            global_bases.push(base);
            // Segment-align each buffer, exactly as the interpreter does.
            base += ((p.len as u64 * 4).div_ceil(crate::perf::SEGMENT_BYTES))
                * crate::perf::SEGMENT_BYTES;
        }

        // Local buffers → ranges of the group's `f32` arena.
        let mut local_total = 0usize;
        for l in &kernel.locals {
            if l.elem != CType::Float {
                return Err(b.no_storage(&l.var, &format!("a local {} buffer", l.elem.c_name())));
            }
            let name = b.intern_name(&l.var);
            let bs = BufSlot::Local {
                off: local_total as u32,
                len: l.len as u32,
                name,
            };
            local_total += l.len;
            b.bufs.insert(l.var.id(), bs);
        }

        b.stmts(&kernel.body)?;
        Ok(Plan {
            code: b.code,
            ecode: b.ecode,
            funs: b.funs,
            buf_names: b.buf_names,
            global_bases,
            n_int_rows,
            n_float_rows,
            local_total,
            priv_total,
            n_masks: b.n_masks as usize,
            local_bytes: kernel.local_bytes(),
        })
    }

    /// Number of statement instructions (diagnostics and benches).
    pub fn instructions(&self) -> usize {
        self.code.len()
    }

    /// The position of `row` among all scalar rows, `int` rows first: the
    /// index analyses keep their per-row state under.
    pub(crate) fn row_index(&self, row: Row) -> usize {
        match row {
            Row::I(r) => r as usize,
            Row::F(r) => self.n_int_rows + r as usize,
        }
    }

    /// Number of scalar rows of either type.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_int_rows + self.n_float_rows
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
    /// The cost model's analysis of the plan, or its refusal, made on the
    /// first estimate.
    estimator: OnceLock<Result<crate::cost::Estimator, SimError>>,
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
            estimator: OnceLock::new(),
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
    /// data-dependence check, then a zero-data run of one work-group per
    /// box of groups that take the same path (see [`crate::cost`]).
    /// The check runs once per kernel, on the first estimate, and a
    /// refusal is kept with it. Estimates are memoised per (launch, warp
    /// width), so tuners probing thousands of launches over a handful of
    /// kernels pay for each estimate once. The estimate is a pure function
    /// of (plan, launch, warp) — bit-identical across threads and shards.
    ///
    /// # Errors
    ///
    /// As [`PlannedKernel::plan`], plus the [`SimError::BadLaunch`] a run
    /// raises for a launch the device cannot run, [`SimError::Estimate`]
    /// when buffer data reaches the kernel's control flow or global
    /// addressing, or any fault of the zero-data run
    /// ([`SimError::OutOfBounds`], ...). Faults are not cached.
    pub fn estimate(
        &self,
        cfg: crate::runtime::LaunchConfig,
        profile: &crate::device::DeviceProfile,
    ) -> Result<Arc<crate::cost::CostEstimate>, SimError> {
        cfg.validate(profile)?;
        let warp = profile.warp_width as usize;
        let key = (cfg, warp);
        if let Some(hit) = self.estimated.lock().expect("estimate cache").get(&key) {
            return Ok(hit.clone());
        }
        let plan = self.plan()?;
        let params = &self.kernel.params;
        let estimator = self
            .estimator
            .get_or_init(|| crate::cost::analyse(&plan, params))
            .as_ref()
            .map_err(Clone::clone)?;
        let est = Arc::new(estimator.estimate(&plan, params, cfg, warp)?);
        self.estimated
            .lock()
            .expect("estimate cache")
            .insert(key, est.clone());
        Ok(est)
    }

    /// How a zero-data estimate runs the kernel's user-function calls: the
    /// calls in its plan, and how many of them the estimate skips because
    /// they compute only buffer data (see [`crate::cost`]).
    ///
    /// # Errors
    ///
    /// As [`PlannedKernel::estimate`]'s plan compilation and data-dependence
    /// check.
    pub fn zero_data_calls(&self) -> Result<(usize, usize), SimError> {
        let plan = self.plan()?;
        let params = &self.kernel.params;
        let estimator = self
            .estimator
            .get_or_init(|| crate::cost::analyse(&plan, params))
            .as_ref()
            .map_err(Clone::clone)?;
        let calls = plan.ecode.iter().enumerate();
        let calls: Vec<usize> = calls
            .filter(|(_, op)| matches!(op, EOp::Call { .. }))
            .map(|(pc, _)| pc)
            .collect();
        let skipped = calls.iter().filter(|&&pc| estimator.skips(pc)).count();
        Ok((calls.len(), skipped))
    }
}

// ---------------------------------------------------------------------------
// Bytecode builder
// ---------------------------------------------------------------------------

struct Builder {
    code: Vec<Inst>,
    ecode: Vec<EOp>,
    funs: Vec<Arc<UserFun>>,
    fun_ids: HashMap<String, u16>,
    buf_names: Vec<String>,
    scalar_rows: HashMap<u32, Row>,
    bufs: HashMap<u32, BufSlot>,
    /// Element type per global parameter slot.
    global_elems: Vec<CType>,
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

    fn mismatch(&self, msg: String) -> SimError {
        self.fail(SimError::TypeMismatch(msg))
    }

    /// Requires `found == want` for the operand described by `what`.
    fn expect(&self, found: CType, want: CType, what: &str) -> Result<(), SimError> {
        if found == want {
            return Ok(());
        }
        Err(self.mismatch(format!(
            "expected {}, found {} ({what})",
            want.c_name(),
            found.c_name()
        )))
    }

    /// The error for a declaration whose type has no storage in the plan.
    fn no_storage(&mut self, var: &VarRef, what: &str) -> SimError {
        self.context
            .push(format!("declaration of `{}`", var.name()));
        self.mismatch(format!("`{}` is {what}, which has no storage", var.name()))
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

    /// The slot of buffer `var` and its element type.
    fn buf_slot(&self, var: &VarRef) -> Result<(BufSlot, CType), SimError> {
        let slot = self.bufs.get(&var.id()).copied().ok_or_else(|| {
            self.fail(SimError::UnboundVariable(format!(
                "buffer `{}`",
                var.name()
            )))
        })?;
        let elem = match slot {
            BufSlot::Global { slot, .. } => self.global_elems[slot as usize],
            BufSlot::Local { .. } | BufSlot::Priv { .. } => CType::Float,
        };
        Ok((slot, elem))
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
                self.context
                    .push(format!("declaration of `{}`", var.name()));
                let row = self.scalar_row(var)?;
                // The row has the type of the variable's first declaration.
                self.expect(*ty, row.ty(), "redeclared type")?;
                if let Some(e) = init {
                    let (value, vt) = self.expr(e)?;
                    self.expect(vt, row.ty(), "initialiser")?;
                    self.code.push(Inst::SetScalar {
                        row,
                        value,
                        charge: true,
                    });
                }
                self.context.pop();
                Ok(())
            }
            // Pre-allocated in the scratch arena.
            CStmt::DeclPrivateArray { .. } | CStmt::Comment(_) => Ok(()),
            CStmt::Assign { var, value } => {
                self.context.push(format!("assignment to `{}`", var.name()));
                let row = self.scalar_row(var)?;
                let (value, vt) = self.expr(value)?;
                self.expect(vt, row.ty(), "assigned value")?;
                self.code.push(Inst::SetScalar {
                    row,
                    value,
                    charge: true,
                });
                self.context.pop();
                Ok(())
            }
            CStmt::Store {
                buf, idx, value, ..
            } => {
                self.context.push(format!("store to `{}`", buf.name()));
                let (slot, elem) = self.buf_slot(buf)?;
                let (idx, it) = self.expr(idx)?;
                self.expect(it, CType::Int, "buffer index")?;
                let (value, vt) = self.expr(value)?;
                self.expect(vt, elem, "stored value")?;
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
                self.expect(row.ty(), CType::Int, "loop variable")?;
                let (init, t) = self.expr(init)?;
                self.expect(t, CType::Int, "loop start")?;
                self.code.push(Inst::SetScalar {
                    row,
                    value: init,
                    charge: false,
                });
                let (bound, t) = self.expr(bound)?;
                self.expect(t, CType::Int, "loop bound")?;
                let (step, t) = self.expr(step)?;
                self.expect(t, CType::Int, "loop step")?;
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
                let (cond, ct) = self.expr(cond)?;
                self.expect(ct, CType::Bool, "branch condition")?;
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

    /// Compiles one expression, appending to [`Builder::ecode`]; returns
    /// its range/uniformity and its type.
    fn expr(&mut self, e: &CExpr) -> Result<(ExprRef, CType), SimError> {
        let start = self.ecode.len() as u32;
        let (uniform, ty) = self.emit(e)?;
        Ok((
            ExprRef {
                start,
                end: self.ecode.len() as u32,
                uniform,
            },
            ty,
        ))
    }

    /// Emits ops for `e`; returns `(uniform, type)`.
    fn emit(&mut self, e: &CExpr) -> Result<(bool, CType), SimError> {
        match e {
            CExpr::Int(v) => {
                self.ecode.push(EOp::I(*v));
                Ok((true, CType::Int))
            }
            CExpr::Float(v) => {
                self.ecode.push(EOp::F(*v));
                Ok((true, CType::Float))
            }
            CExpr::Bool(v) => {
                self.ecode.push(EOp::B(*v));
                Ok((true, CType::Bool))
            }
            CExpr::Var(v) => {
                let row = self.scalar_row(v)?;
                self.ecode.push(EOp::Scalar(row));
                Ok((false, row.ty()))
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
                Ok((uniform, CType::Int))
            }
            CExpr::Bin(op, a, b) => {
                use BinOp::*;
                use CType::{Bool, Float, Int};
                let (ua, ta) = self.emit(a)?;
                let (ub, tb) = self.emit(b)?;
                self.ecode.push(EOp::Bin(*op));
                let ty = match (op, ta, tb) {
                    (Add | Sub | Mul | Div | Min | Max, Int, Int) | (Mod, Int, Int) => Int,
                    (Add | Sub | Mul | Div | Min | Max, Float, Float) => Float,
                    (Lt | Le | Gt | Ge | Eq | Ne, Int, Int)
                    | (Lt | Le | Gt | Ge | Eq | Ne, Float, Float)
                    | (And | Or, Bool, Bool) => Bool,
                    _ => {
                        return Err(self.mismatch(format!(
                            "operator {op:?} on {} and {} operands",
                            ta.c_name(),
                            tb.c_name()
                        )))
                    }
                };
                Ok((ua && ub, ty))
            }
            CExpr::Un(op, a) => {
                let (u, t) = self.emit(a)?;
                self.ecode.push(EOp::Un(*op));
                match (op, t) {
                    (UnOp::Neg, CType::Int | CType::Float) | (UnOp::Not, CType::Bool) => Ok((u, t)),
                    _ => Err(self.mismatch(format!("operator {op:?} on a {} operand", t.c_name()))),
                }
            }
            CExpr::Call(f, args) => {
                if args.len() != f.arity() {
                    return Err(self.mismatch(format!(
                        "user function `{}` takes {} arguments, called with {}",
                        f.name(),
                        f.arity(),
                        args.len()
                    )));
                }
                for (a, (param, pty)) in args.iter().zip(f.params()) {
                    let (_, t) = self.emit(a)?;
                    let want = pty.as_scalar();
                    if want.map(CType::from_kind) != Some(t) {
                        return Err(self.mismatch(format!(
                            "argument `{param}` of user function `{}` is {}, found {}",
                            f.name(),
                            want.map_or("non-scalar", |k| k.c_name()),
                            t.c_name()
                        )));
                    }
                }
                let ret = f.ret().as_scalar().map(CType::from_kind).ok_or_else(|| {
                    self.mismatch(format!(
                        "user function `{}` returns a non-scalar value",
                        f.name()
                    ))
                })?;
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
                    ret,
                    cost: call_cost(f.c_body()),
                });
                Ok((false, ret))
            }
            CExpr::Load { buf, idx, .. } => {
                let (_, it) = self.emit(idx)?;
                self.expect(it, CType::Int, "buffer index")?;
                let (slot, elem) = self.buf_slot(buf)?;
                self.ecode.push(EOp::Load(slot));
                Ok((false, elem))
            }
            CExpr::Select { cond, then_, else_ } => {
                let (uc, ct) = self.emit(cond)?;
                self.expect(ct, CType::Bool, "`?:` condition")?;
                self.ecode.push(EOp::SelSplit);
                let (ut, tt) = self.emit(then_)?;
                self.ecode.push(EOp::SelSwap);
                let (ue, te) = self.emit(else_)?;
                self.ecode.push(EOp::SelJoin);
                if tt != te {
                    return Err(self.mismatch(format!(
                        "`?:` arms of types {} and {}",
                        tt.c_name(),
                        te.c_name()
                    )));
                }
                Ok((uc && ut && ue, tt))
            }
            CExpr::Cast(t, a) => {
                let (u, at) = self.emit(a)?;
                self.ecode.push(EOp::Cast(*t));
                match (t, at) {
                    (CType::Float, CType::Int) | (CType::Int, CType::Float) => Ok((u, *t)),
                    (t, at) if *t == at => Ok((u, at)),
                    _ => Err(self.mismatch(format!("cast of {} to {}", at.c_name(), t.c_name()))),
                }
            }
        }
    }
}
