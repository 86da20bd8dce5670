//! Static kernel verification over compiled [`Plan`]s.
//!
//! GPUVerify-style checks, run per (kernel × [`LaunchConfig`]) without
//! executing a single work-item:
//!
//! * **array bounds** — every load/store index is evaluated over an
//!   interval domain ([`lift_arith::range::Interval`]) seeded with the
//!   concrete launch sizes; an index whose interval escapes the declared
//!   buffer extent (or cannot be bounded at all) is a finding. The
//!   transfer functions use the simulator's *truncating* `/` and `%`
//!   semantics, not the Euclidean flavour `ArithExpr` evaluation uses.
//! * **barrier divergence** — a barrier is safe only when every enclosing
//!   loop condition and unproven branch condition is lane-invariant
//!   within a work-group; otherwise some lanes could reach the barrier
//!   while siblings have already left the structured region.
//! * **local-memory races** — distinct lanes touching the same `__local`
//!   slot without a separating barrier. Accesses are collected with an
//!   *affine* shape (`Σ cᵢ·local_idᵢ + base`, the base a strided set from
//!   loop induction), pairs are tested for barrier-free concurrency over
//!   the plan's jump graph, and a sorted-stride joint-injectivity test
//!   proves lane-disjointness; anything unprovable is a finding.
//! * **definite initialization** — reads of scalar rows with no dominating
//!   write (a must-write dataflow through branches and loops), plus loads
//!   from local/private arrays no statement ever stores to.
//!
//! The analysis walks the structured instruction stream abstractly: `if`
//! joins both branch states (refined by the branch condition where it
//! syntactically bounds a scalar row), `for` runs a widening fixpoint over
//! the body and then one reporting pass, and the lazy `?:` select narrows
//! each arm with the interval facts implied by its condition — which is
//! exactly what proves the `mirror` boundary's `m < n ? m : 2n-1-m`
//! in-bounds on both arms.
//!
//! Soundness bias: every check errs toward reporting. A finding is a
//! *may*-fault (the abstraction could not prove safety), an empty report
//! is a proof — of these properties, for this launch configuration.

use std::collections::{HashMap, HashSet};
use std::fmt;

use lift_arith::range::Interval;
use lift_codegen::clike::{BinOp, CType, Kernel, UnOp, WorkItemFn};

use crate::device::DeviceProfile;
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan, Row};
use crate::runtime::LaunchConfig;

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// The class of defect a [`VerifyFinding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A load/store index interval escapes (or cannot be proven inside)
    /// the buffer extent.
    OutOfBounds,
    /// A barrier under lane-varying control flow.
    BarrierDivergence,
    /// Two lanes may touch the same `__local` slot between barriers, at
    /// least one writing.
    LocalRace,
    /// A read with no dominating write (scalar row or never-stored array).
    UninitRead,
    /// The kernel's `__local` footprint exceeds the device's per-CU
    /// capacity — the launch would be rejected before running.
    LocalMemCapacity,
}

impl FindingKind {
    /// Stable lower-snake identifier, used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::OutOfBounds => "out_of_bounds",
            FindingKind::BarrierDivergence => "barrier_divergence",
            FindingKind::LocalRace => "local_race",
            FindingKind::UninitRead => "uninit_read",
            FindingKind::LocalMemCapacity => "local_mem_capacity",
        }
    }
}

/// One structured diagnostic from the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFinding {
    pub kind: FindingKind,
    /// Kernel (C function) name.
    pub kernel: String,
    /// Index of the offending instruction in the compiled plan.
    pub stmt: usize,
    /// The buffer involved, when the finding concerns one.
    pub buffer: Option<String>,
    /// The interval/shape evidence: why the property could not be proven.
    pub witness: String,
}

impl fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FindingKind::OutOfBounds => write!(f, "out-of-bounds access")?,
            FindingKind::BarrierDivergence => write!(f, "barrier divergence")?,
            FindingKind::LocalRace => write!(f, "local-memory race")?,
            FindingKind::UninitRead => write!(f, "uninitialized read")?,
            FindingKind::LocalMemCapacity => {
                // The full story is in the witness ("... local memory ...").
                return write!(f, "kernel `{}`: {}", self.kernel, self.witness);
            }
        }
        write!(f, " in kernel `{}`, stmt #{}", self.kernel, self.stmt)?;
        if let Some(b) = &self.buffer {
            write!(f, ", buffer `{b}`")?;
        }
        write!(f, ": {}", self.witness)
    }
}

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

/// The lane-invariant part of an affine index: an offset plus up to
/// [`MAX_COMPS`] independent strided choice dimensions — the set
/// `{lo + Σ stepᵢ·kᵢ | 0 ≤ kᵢ < countᵢ}`, one component per enclosing
/// loop. Keeping the components separate (instead of a single gcd-strided
/// hull) is what proves a 3D tile staging `tile[(i0·R + i1)·C + i2]`
/// race-free: the mixed-radix injectivity test needs each loop's own
/// stride and trip count. Steps are positive and counts ≥ 2 by
/// construction; a singleton has `len == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Base {
    lo: i64,
    comps: [Comp; MAX_COMPS],
    len: u8,
}

/// One choice dimension of a [`Base`]: the values `{0, step, …,
/// (count-1)·step}`. `fused == Some((d, f))` records that this component
/// came from a loop `row = lid_d + k·local[d]`: jointly with lane
/// dimension `d`, its contribution tiles `(step/local[d])·[0, f)`
/// contiguously and *injectively* — exactly what a coalesced tile-staging
/// loop does, and the only way to prove it race-free when the trip count
/// and the lane range interlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Comp {
    step: i64,
    count: i64,
    fused: Option<(u8, i64)>,
}

const NO_COMP: Comp = Comp {
    step: 0,
    count: 0,
    fused: None,
};

/// Components beyond this collapse pairwise into gcd hulls (sound, less
/// precise). Four covers the deepest loop nests the code generator emits.
const MAX_COMPS: usize = 4;

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Base {
    fn point(v: i64) -> Base {
        Base {
            lo: v,
            comps: [NO_COMP; MAX_COMPS],
            len: 0,
        }
    }

    fn is_point(self) -> bool {
        self.len == 0
    }

    /// The largest value in the set.
    fn hi(self) -> i64 {
        let mut h = self.lo;
        for i in 0..self.len as usize {
            let c = self.comps[i];
            h = h.saturating_add(c.step.saturating_mul(c.count - 1));
        }
        h
    }

    /// The set extended by one choice dimension `{0, step, …, (n-1)·step}`.
    fn with_comp(self, step: i64, n: i64) -> Base {
        self.push(Comp {
            step,
            count: n,
            fused: None,
        })
    }

    fn push(mut self, mut c: Comp) -> Base {
        if c.step == 0 || c.count <= 1 {
            return self;
        }
        if c.step < 0 {
            // Normalize to a positive stride by shifting the offset down.
            self.lo = self.lo.saturating_add(c.step.saturating_mul(c.count - 1));
            c.step = -c.step;
        }
        if (self.len as usize) == MAX_COMPS {
            self = self.collapse();
        }
        self.comps[self.len as usize] = c;
        self.len += 1;
        self
    }

    /// Merges the two smallest-stride components into one gcd hull — a
    /// superset, so always sound (the merged pair loses any fused tags).
    fn collapse(mut self) -> Base {
        debug_assert!(self.len >= 2);
        let mut comps: Vec<Comp> = self.comps[..self.len as usize].to_vec();
        comps.sort_unstable_by_key(|c| (c.step, c.count));
        let a = comps[0];
        let b = comps[1];
        let g = gcd(a.step, b.step);
        let span = a
            .step
            .saturating_mul(a.count - 1)
            .saturating_add(b.step.saturating_mul(b.count - 1));
        comps[0] = Comp {
            step: g,
            count: span / g + 1,
            fused: None,
        };
        comps.remove(1);
        self.comps = [NO_COMP; MAX_COMPS];
        for (i, c) in comps.iter().enumerate() {
            self.comps[i] = *c;
        }
        self.len -= 1;
        self
    }

    /// Whether some component is fused with lane dimension `d`.
    fn fused_on(self, d: usize) -> bool {
        (0..self.len as usize)
            .any(|i| matches!(self.comps[i].fused, Some((fd, _)) if fd as usize == d))
    }

    fn clear_fused(&mut self, d: usize) {
        for i in 0..self.len as usize {
            if matches!(self.comps[i].fused, Some((fd, _)) if fd as usize == d) {
                self.comps[i].fused = None;
            }
        }
    }

    fn add(self, o: Base) -> Base {
        let mut out = self;
        out.lo = out.lo.saturating_add(o.lo);
        for i in 0..o.len as usize {
            out = out.push(o.comps[i]);
        }
        out
    }

    fn neg(self) -> Base {
        Base {
            lo: -self.hi(),
            ..self
        }
    }

    fn mul_k(self, k: i64) -> Base {
        if k == 0 {
            return Base::point(0);
        }
        let mut out = Base::point(self.lo.saturating_mul(k.abs()));
        for i in 0..self.len as usize {
            let mut c = self.comps[i];
            c.step = c.step.saturating_mul(k.abs());
            out = out.push(c);
        }
        if k < 0 {
            out.neg()
        } else {
            out
        }
    }

    /// A superset of the union. Identical component lists keep their
    /// precision (any offset difference becomes one extra two-element
    /// dimension); anything else falls back to a single gcd-strided hull.
    fn join(self, o: Base) -> Base {
        if self.len == o.len && self.comps == o.comps {
            return if self.lo == o.lo {
                self
            } else {
                Base {
                    lo: self.lo.min(o.lo),
                    ..self
                }
                .with_comp((self.lo - o.lo).abs(), 2)
            };
        }
        let lo = self.lo.min(o.lo);
        let hi = self.hi().max(o.hi());
        let mut g = (self.lo - o.lo).abs();
        for i in 0..self.len as usize {
            g = gcd(g, self.comps[i].step);
        }
        for i in 0..o.len as usize {
            g = gcd(g, o.comps[i].step);
        }
        if hi == lo || g == 0 {
            return Base::point(lo);
        }
        Base::point(lo).with_comp(g, (hi - lo) / g + 1)
    }
}

/// An affine index shape `c[0]·lid₀ + c[1]·lid₁ + c[2]·lid₂ + base`.
/// Describes how a value varies *within one work-group*: group-id terms
/// (uniform per group) fold into `base`'s being per-iteration only when
/// constant, and conservatively kill the shape otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Affine {
    c: [i64; 3],
    base: Base,
}

impl Affine {
    fn konst(v: i64) -> Affine {
        Affine {
            c: [0; 3],
            base: Base::point(v),
        }
    }

    fn add(self, o: Affine) -> Affine {
        let mut base = self.base.add(o.base);
        // A fused tag claims its component and lane dim `d` jointly tile a
        // contiguous range; that only survives addition when the *other*
        // operand contributes nothing along `d`.
        for d in 0..3 {
            let fa = self.base.fused_on(d);
            let fb = o.base.fused_on(d);
            if (fa && (o.c[d] != 0 || fb)) || (fb && (self.c[d] != 0 || fa)) {
                base.clear_fused(d);
            }
        }
        Affine {
            c: [
                self.c[0].saturating_add(o.c[0]),
                self.c[1].saturating_add(o.c[1]),
                self.c[2].saturating_add(o.c[2]),
            ],
            base,
        }
    }

    fn neg(self) -> Affine {
        Affine {
            c: [-self.c[0], -self.c[1], -self.c[2]],
            base: self.base.neg(),
        }
    }

    fn mul_k(self, k: i64) -> Affine {
        Affine {
            c: [
                self.c[0].saturating_mul(k),
                self.c[1].saturating_mul(k),
                self.c[2].saturating_mul(k),
            ],
            base: self.base.mul_k(k),
        }
    }

    /// The smallest value `Σ cᵢ·lidᵢ` takes over the group's lanes.
    fn lane_min(&self, local: [usize; 3]) -> i64 {
        (0..3)
            .map(|d| 0.min(self.c[d].saturating_mul(local[d] as i64 - 1)))
            .sum()
    }
}

/// The abstract value of one expression (or scalar row): an interval
/// over-approximation, a lane-invariance fact, and — for integer values
/// built from local ids and loop induction — an affine shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsVal {
    iv: Option<Interval>,
    uniform: bool,
    affine: Option<Affine>,
}

impl AbsVal {
    fn unknown() -> AbsVal {
        AbsVal {
            iv: None,
            uniform: false,
            affine: None,
        }
    }

    fn int_point(v: i64) -> AbsVal {
        AbsVal {
            iv: Some(Interval::point(v)),
            uniform: true,
            affine: Some(Affine::konst(v)),
        }
    }

    /// A uniform value of unknown magnitude (float literals, uniform
    /// float math).
    fn uniform_unknown() -> AbsVal {
        AbsVal {
            iv: None,
            uniform: true,
            affine: None,
        }
    }

    fn join(self, o: AbsVal) -> AbsVal {
        AbsVal {
            iv: match (self.iv, o.iv) {
                (Some(a), Some(b)) => Some(a.join(b)),
                _ => None,
            },
            uniform: self.uniform && o.uniform,
            affine: match (self.affine, o.affine) {
                (Some(a), Some(b)) if a.c == b.c => Some(Affine {
                    c: a.c,
                    base: a.base.join(b.base),
                }),
                _ => None,
            },
        }
    }

    fn add(self, o: AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv.zip(o.iv).map(|(a, b)| a.add(b)),
            uniform: self.uniform && o.uniform,
            affine: self.affine.zip(o.affine).map(|(a, b)| a.add(b)),
        }
    }

    /// The single integer this value provably is, if any.
    fn as_const(self) -> Option<i64> {
        self.iv.filter(|iv| iv.lo == iv.hi).map(|iv| iv.lo)
    }
}

/// Three-valued truth of a boolean interval ({0,1}-encoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Unknown,
}

fn tri_of(iv: Option<Interval>) -> Tri {
    match iv {
        Some(iv) if iv.lo >= 1 => Tri::True,
        Some(iv) if iv.hi <= 0 => Tri::False,
        _ => Tri::Unknown,
    }
}

// ---------------------------------------------------------------------------
// Condition decomposition (branch/select refinement)
// ---------------------------------------------------------------------------

/// A comparison's operands, kept as `ecode` slices so a syntactically
/// identical subexpression inside a select arm can be narrowed by the
/// condition (both operands are pure within one statement: rows and
/// memory cannot change mid-expression).
#[derive(Debug, Clone, Copy)]
struct CmpInfo {
    op: BinOp,
    lhs: (u32, u32),
    rhs: (u32, u32),
    lhs_iv: Option<Interval>,
    rhs_iv: Option<Interval>,
}

/// "Every completed subexpression whose ops equal `ecode[range]` has a
/// value inside `iv`" — the refinement a condition grants one arm.
#[derive(Debug, Clone, Copy)]
struct Assume {
    range: (u32, u32),
    iv: Interval,
}

/// A boolean condition as a tree over comparisons, kept so guards like
/// `i >= 1 && i < N` (the zero-padding boundary idiom) refine both sides.
/// Conjunction/disjunction lists may be *partial* — dropping an unknown
/// conjunct only weakens what `truth` implies, never falsifies it.
#[derive(Debug, Clone)]
enum Cond {
    Cmp(CmpInfo),
    All(Vec<Cond>),
    Any(Vec<Cond>),
    Not(Box<Cond>),
}

impl Cond {
    /// The interval facts `self == truth` implies, recursively: a true
    /// conjunction makes every conjunct true; a false disjunction makes
    /// every disjunct false; nothing follows from the other two cases.
    fn assumes(&self, truth: bool, out: &mut Vec<Assume>) {
        match self {
            Cond::Cmp(c) => out.extend(cmp_assumes(c, truth)),
            Cond::All(cs) if truth => {
                for c in cs {
                    c.assumes(true, out);
                }
            }
            Cond::Any(cs) if !truth => {
                for c in cs {
                    c.assumes(false, out);
                }
            }
            Cond::Not(c) => c.assumes(!truth, out),
            _ => {}
        }
    }

    fn assume_vec(&self, truth: bool) -> Vec<Assume> {
        let mut out = Vec::new();
        self.assumes(truth, &mut out);
        out
    }

    /// Combines the operand conditions of `a op b` for `&&` / `||` / `!`.
    fn combine(op: BinOp, a: Option<Cond>, b: Option<Cond>) -> Option<Cond> {
        let kids: Vec<Cond> = [a, b].into_iter().flatten().collect();
        if kids.is_empty() {
            return None;
        }
        match op {
            BinOp::And => Some(Cond::All(kids)),
            BinOp::Or => Some(Cond::Any(kids)),
            _ => None,
        }
    }
}

/// The interval facts `cmp == truth` implies for each operand.
fn cmp_assumes(cmp: &CmpInfo, truth: bool) -> Vec<Assume> {
    // Normalize to `lhs ≤ rhs - d` / `lhs ≥ rhs + d` / `lhs = rhs`.
    enum Rel {
        Le(i64),
        Ge(i64),
        Eq,
    }
    let rel = match (cmp.op, truth) {
        (BinOp::Lt, true) | (BinOp::Ge, false) => Rel::Le(1),
        (BinOp::Le, true) | (BinOp::Gt, false) => Rel::Le(0),
        (BinOp::Gt, true) | (BinOp::Le, false) => Rel::Ge(1),
        (BinOp::Ge, true) | (BinOp::Lt, false) => Rel::Ge(0),
        (BinOp::Eq, true) | (BinOp::Ne, false) => Rel::Eq,
        _ => return Vec::new(),
    };
    let mut out = Vec::new();
    match rel {
        Rel::Le(d) => {
            if let Some(r) = cmp.rhs_iv {
                out.push(Assume {
                    range: cmp.lhs,
                    iv: Interval::new(i64::MIN, r.hi.saturating_sub(d)),
                });
            }
            if let Some(l) = cmp.lhs_iv {
                out.push(Assume {
                    range: cmp.rhs,
                    iv: Interval::new(l.lo.saturating_add(d), i64::MAX),
                });
            }
        }
        Rel::Ge(d) => {
            if let Some(r) = cmp.rhs_iv {
                out.push(Assume {
                    range: cmp.lhs,
                    iv: Interval::new(r.lo.saturating_add(d), i64::MAX),
                });
            }
            if let Some(l) = cmp.lhs_iv {
                out.push(Assume {
                    range: cmp.rhs,
                    iv: Interval::new(i64::MIN, l.hi.saturating_sub(d)),
                });
            }
        }
        Rel::Eq => {
            if let Some(r) = cmp.rhs_iv {
                out.push(Assume {
                    range: cmp.lhs,
                    iv: r,
                });
            }
            if let Some(l) = cmp.lhs_iv {
                out.push(Assume {
                    range: cmp.rhs,
                    iv: l,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Access records (race analysis)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Access {
    stmt: usize,
    write: bool,
    name: u16,
    idx: AbsVal,
    /// Per dimension: how many distinct `lid_d` values the lanes *active
    /// at this statement* can have (loop guards over `lid_d + const`
    /// rows mask lanes out — see [`Verifier::active`]).
    n: [i64; 3],
}

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

/// Runs all checks on one compiled kernel under one launch configuration.
///
/// An empty vector is a proof (within the abstraction) that the kernel is
/// free of out-of-bounds accesses, divergent barriers, local-memory races
/// and uninitialized reads *for this configuration*, and fits the
/// device's local memory.
pub fn verify_kernel(
    kernel: &Kernel,
    plan: &Plan,
    cfg: LaunchConfig,
    profile: &DeviceProfile,
) -> Vec<VerifyFinding> {
    let mut findings = Vec::new();
    if plan.local_bytes > profile.lmem_bytes_per_cu {
        findings.push(VerifyFinding {
            kind: FindingKind::LocalMemCapacity,
            kernel: kernel.name.clone(),
            stmt: 0,
            buffer: None,
            witness: format!(
                "needs {} bytes of local memory, device `{}` has {} per compute unit",
                plan.local_bytes, profile.name, profile.lmem_bytes_per_cu
            ),
        });
    }
    let mut v = Verifier::new(kernel, plan, cfg);
    v.run();
    findings.extend(v.findings);
    findings
}

/// Snapshot of the mutable abstract state (for branch joins and loop
/// fixpoints).
#[derive(Clone, PartialEq)]
struct EnvSnap {
    env: Vec<AbsVal>,
    init: Vec<bool>,
}

struct Verifier<'a> {
    kernel: &'a Kernel,
    plan: &'a Plan,
    cfg: LaunchConfig,
    findings: Vec<VerifyFinding>,
    reported: HashSet<(FindingKind, usize, u64)>,
    /// Abstract value and must-init flag per scalar row, indexed by
    /// [`Plan::row_index`].
    env: Vec<AbsVal>,
    init: Vec<bool>,
    /// Local and private buffers (by name index) some `Store` targets
    /// (never-stored arrays are definite uninitialized reads).
    stored: HashSet<u16>,
    accesses: Vec<Access>,
    /// `false` during loop-fixpoint probe passes: no findings, no access
    /// records — only the final pass over the stabilized state reports.
    report: bool,
    /// One flag per enclosing structured region: `true` when its
    /// condition may vary across the lanes of a work-group.
    div_ctx: Vec<bool>,
    /// Upper bound, per dimension, on the number of distinct `lid_d`
    /// values among currently-active lanes. Starts at the local size;
    /// a loop whose induction row is exactly `lid_d + c0` and whose
    /// bound tops out at `B` masks every lane with `lid_d ≥ B - c0`
    /// out of its body, shrinking the bound to `B - c0`.
    active: [i64; 3],
    /// Active select-arm refinements (cleared between expressions).
    assumes: Vec<Assume>,
}

/// One in-flight value on the abstract expression stack.
#[derive(Debug, Clone)]
struct Slot {
    v: AbsVal,
    start: u32,
    cmp: Option<Cond>,
}

/// One in-flight `?:` select.
struct SelFrame {
    start: u32,
    cond_iv: Option<Interval>,
    cond_uniform: bool,
    then_val: Option<AbsVal>,
    t_assumes: Vec<Assume>,
    f_assumes: Vec<Assume>,
    assume_base: usize,
    saved_report: bool,
}

impl<'a> Verifier<'a> {
    fn new(kernel: &'a Kernel, plan: &'a Plan, cfg: LaunchConfig) -> Self {
        let mut stored = HashSet::new();
        for inst in &plan.code {
            if let Inst::Store { buf, .. } = inst {
                if let Some((_, name)) = arena_of(buf) {
                    stored.insert(name);
                }
            }
        }
        Verifier {
            kernel,
            plan,
            cfg,
            findings: Vec::new(),
            reported: HashSet::new(),
            env: vec![AbsVal::unknown(); plan.n_rows()],
            init: vec![false; plan.n_rows()],
            stored,
            accesses: Vec::new(),
            report: true,
            div_ctx: Vec::new(),
            active: [
                (cfg.local[0] as i64).max(1),
                (cfg.local[1] as i64).max(1),
                (cfg.local[2] as i64).max(1),
            ],
            assumes: Vec::new(),
        }
    }

    fn run(&mut self) {
        self.walk(0, self.plan.code.len());
        self.race_pass();
    }

    // -- findings -----------------------------------------------------------

    fn push_finding(
        &mut self,
        kind: FindingKind,
        stmt: usize,
        extra: u64,
        buffer: Option<String>,
        witness: String,
    ) {
        if !self.report || !self.reported.insert((kind, stmt, extra)) {
            return;
        }
        self.findings.push(VerifyFinding {
            kind,
            kernel: self.kernel.name.clone(),
            stmt,
            buffer,
            witness,
        });
    }

    // -- environment --------------------------------------------------------

    fn row_get(&mut self, row: Row, stmt: usize) -> AbsVal {
        let r = self.plan.row_index(row);
        if !self.init[r] {
            self.push_finding(
                FindingKind::UninitRead,
                stmt,
                r as u64,
                None,
                format!("scalar row {row:?} is read with no dominating write"),
            );
        }
        self.env[r]
    }

    fn row_peek(&self, row: Row) -> AbsVal {
        self.env[self.plan.row_index(row)]
    }

    fn row_set(&mut self, row: Row, v: AbsVal) {
        let r = self.plan.row_index(row);
        self.env[r] = v;
        self.init[r] = true;
    }

    /// Narrow a row in place (branch refinement): meet intervals, keep
    /// the initialization flag as-is.
    fn row_meet(&mut self, row: Row, iv: Interval) {
        let slot = &mut self.env[self.plan.row_index(row)];
        slot.iv = match slot.iv {
            Some(cur) => Some(cur.intersect(iv).unwrap_or(iv)),
            None => Some(iv),
        };
    }

    fn snapshot(&self) -> EnvSnap {
        EnvSnap {
            env: self.env.clone(),
            init: self.init.clone(),
        }
    }

    fn restore(&mut self, s: &EnvSnap) {
        self.env.clone_from(&s.env);
        self.init.clone_from(&s.init);
    }

    /// `state := state ⊔ other` (row-wise join; must-init intersects).
    fn join_with(&mut self, other: &EnvSnap) {
        for (a, b) in self.env.iter_mut().zip(&other.env) {
            *a = a.join(*b);
        }
        for (a, b) in self.init.iter_mut().zip(&other.init) {
            *a = *a && *b;
        }
    }

    fn env_eq(&self, s: &EnvSnap) -> bool {
        self.env == s.env && self.init == s.init
    }

    /// Widen every row that still moved on the last pass to ⊤ (keeping
    /// only lane-invariance, which is monotone under `&&`).
    fn widen_changed(&mut self, before: &EnvSnap) {
        for (a, b) in self.env.iter_mut().zip(&before.env) {
            if a != b {
                *a = AbsVal {
                    iv: None,
                    uniform: a.uniform && b.uniform,
                    affine: None,
                };
            }
        }
    }

    // -- statement walk -----------------------------------------------------

    fn walk(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            match self.plan.code[i].clone() {
                Inst::SetScalar { row, value, .. } => {
                    let v = self.eval(value, i).v;
                    self.row_set(row, v);
                    i += 1;
                }
                Inst::Store { buf, idx, value } => {
                    let iv = self.eval(idx, i).v;
                    self.eval(value, i);
                    self.check_access(i, &buf, iv, true);
                    i += 1;
                }
                Inst::ForHead {
                    row, bound, exit, ..
                } => {
                    i = self.do_for(i, row, bound, exit as usize);
                }
                Inst::ForStep { row, step, .. } => {
                    let s = self.eval(step, i).v;
                    let cur = self.row_peek(row);
                    self.row_set(row, cur.add(s));
                    i += 1;
                }
                Inst::IfHead {
                    cond, els, end: e, ..
                } => {
                    i = self.do_if(i, cond, els as usize, e as usize);
                }
                Inst::ElseJoin { .. } | Inst::EndIf => i += 1,
                Inst::Barrier => {
                    if self.div_ctx.iter().any(|&d| d) {
                        self.push_finding(
                            FindingKind::BarrierDivergence,
                            i,
                            0,
                            None,
                            "barrier under control flow that may vary across the \
                             lanes of a work-group"
                                .to_string(),
                        );
                    }
                    i += 1;
                }
            }
        }
    }

    fn do_if(&mut self, head: usize, cond: ExprRef, els: usize, end: usize) -> usize {
        let c = self.eval(cond, head);
        let tri = tri_of(c.v.iv);
        self.div_ctx.push(!c.v.uniform && tri == Tri::Unknown);
        match tri {
            Tri::True => {
                self.refine_rows(c.cmp.as_ref(), true);
                self.walk(head + 1, els - 1);
            }
            Tri::False => {
                self.refine_rows(c.cmp.as_ref(), false);
                self.walk(els, end - 1);
            }
            Tri::Unknown => {
                let entry = self.snapshot();
                self.refine_rows(c.cmp.as_ref(), true);
                self.walk(head + 1, els - 1);
                let after_then = self.snapshot();
                self.restore(&entry);
                self.refine_rows(c.cmp.as_ref(), false);
                self.walk(els, end - 1);
                self.join_with(&after_then);
            }
        }
        self.div_ctx.pop();
        end
    }

    /// Meet the branch condition's implied bounds into scalar rows the
    /// condition compares directly (`row < e`, `e <= row`, …).
    fn refine_rows(&mut self, cmp: Option<&Cond>, truth: bool) {
        let Some(cmp) = cmp else { return };
        for a in cmp.assume_vec(truth) {
            let ops = &self.plan.ecode[a.range.0 as usize..a.range.1 as usize];
            if let [EOp::Scalar(row)] = ops {
                self.row_meet(*row, a.iv);
            }
        }
    }

    fn do_for(&mut self, head: usize, row: Row, bound: ExprRef, exit: usize) -> usize {
        let step = match &self.plan.code[exit - 1] {
            Inst::ForStep { step, .. } => *step,
            other => unreachable!("loop latch expected at exit-1, found {other:?}"),
        };
        let entry_val = self.row_peek(row);
        let entry = self.snapshot();

        // The head always evaluates the bound at least once; the step only
        // runs for iterating lanes (probe it silently).
        let bv = self.eval(bound, head).v;
        let sv = self.quiet(|s| s.eval(step, exit - 1).v);

        // `row < bound` false for every lane: the body is dead code.
        if let (Some(e), Some(b)) = (entry_val.iv, bv.iv) {
            if e.lo >= b.hi {
                return exit;
            }
        }
        // Every lane runs ≥ 1 iteration: body must-writes survive the loop.
        let guaranteed = matches!(
            (entry_val.iv, bv.iv),
            (Some(e), Some(b)) if e.hi < b.lo
        );
        let body_uniform = entry_val.uniform && bv.uniform && sv.uniform;
        self.div_ctx.push(!body_uniform);

        // A loop whose induction row enters as exactly `lid_d + c0` masks
        // every lane with `lid_d + c0 >= bound` out of its body (that lane
        // runs zero iterations), so inside the body at most `B - c0`
        // distinct `lid_d` values are active. This is what makes the
        // canonical `for (l = get_local_id(d); l < n; l += get_local_size(d))`
        // staging loop race-free even when `n < local[d]`.
        let saved_active = self.active;
        if let (Some(f), Some(b)) = (entry_val.affine, bv.iv) {
            for d in 0..3 {
                if f.c == unit(d) && f.base.is_point() {
                    self.active[d] = self.active[d].min((b.hi - f.base.lo).max(0));
                }
            }
        }

        // Probe the body to a (widened) fixpoint without reporting, then
        // make one reporting pass over the stabilized state.
        let saved_report = self.report;
        self.report = false;
        self.row_set(
            row,
            body_row(entry_val, bv, sv, body_uniform, self.cfg.local),
        );
        for pass in 0..8 {
            let before = self.snapshot();
            self.walk(head + 1, exit);
            let bv2 = self.quiet(|s| s.eval(bound, head).v);
            self.row_set(
                row,
                body_row(entry_val, bv2, sv, body_uniform, self.cfg.local),
            );
            self.join_with(&before);
            if pass >= 1 {
                self.widen_changed(&before);
            }
            if self.env_eq(&before) {
                break;
            }
        }
        // Reads in iteration 1 see only the entry's writes.
        self.init.clone_from(&entry.init);
        self.report = saved_report;
        self.walk(head + 1, exit);
        self.div_ctx.pop();
        self.active = saved_active;

        // After the loop: zero iterations were possible unless proven
        // otherwise, so join with the entry state (and drop body writes).
        self.join_with(&entry);
        if !guaranteed {
            self.init.clone_from(&entry.init);
        }
        exit
    }

    fn quiet<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let saved = self.report;
        self.report = false;
        let out = f(self);
        self.report = saved;
        out
    }

    // -- memory accesses ----------------------------------------------------

    fn buffer_len(&self, buf: &BufSlot) -> (i64, u16) {
        match *buf {
            BufSlot::Global { slot, name } => (self.kernel.params[slot as usize].len as i64, name),
            BufSlot::Local { len, name, .. } | BufSlot::Priv { len, name, .. } => {
                (i64::from(len), name)
            }
        }
    }

    fn check_access(&mut self, stmt: usize, buf: &BufSlot, idx: AbsVal, write: bool) {
        let (len, name) = self.buffer_len(buf);
        let bname = self.plan.buf_names[name as usize].clone();
        match idx.iv {
            None => self.push_finding(
                FindingKind::OutOfBounds,
                stmt,
                u64::from(name),
                Some(bname.clone()),
                format!("index not provably bounded ({len} elements)"),
            ),
            Some(iv) if iv.lo < 0 || iv.hi >= len => self.push_finding(
                FindingKind::OutOfBounds,
                stmt,
                u64::from(name),
                Some(bname.clone()),
                format!("index in [{}, {}] but only {len} elements", iv.lo, iv.hi),
            ),
            Some(_) => {}
        }
        if let Some((shared, _)) = arena_of(buf) {
            if !write && !self.stored.contains(&name) {
                self.push_finding(
                    FindingKind::UninitRead,
                    stmt,
                    u64::from(name) | (1 << 32),
                    Some(bname),
                    "loaded but no statement ever stores to it".to_string(),
                );
            }
            // Only work-group-shared buffers can race across lanes.
            if self.report && shared {
                self.accesses.push(Access {
                    stmt,
                    write,
                    name,
                    idx,
                    n: self.active,
                });
            }
        }
    }

    // -- race analysis ------------------------------------------------------

    /// Nodes from which `from` is reachable without passing a barrier
    /// (including `from` itself): the program points some lane may still
    /// occupy while another lane has advanced to `from`.
    fn barrier_free_ancestors(&self, from: usize, preds: &[Vec<usize>]) -> HashSet<usize> {
        let mut seen = HashSet::from([from]);
        let mut work = vec![from];
        while let Some(n) = work.pop() {
            for &p in &preds[n] {
                if matches!(self.plan.code[p], Inst::Barrier) {
                    continue;
                }
                if seen.insert(p) {
                    work.push(p);
                }
            }
        }
        seen
    }

    fn predecessors(&self) -> Vec<Vec<usize>> {
        let n = self.plan.code.len();
        let mut preds = vec![Vec::new(); n];
        let mut edge = |from: usize, to: usize| {
            if to < n {
                preds[to].push(from);
            }
        };
        for (i, inst) in self.plan.code.iter().enumerate() {
            match inst {
                Inst::ForHead { exit, .. } => {
                    edge(i, i + 1);
                    edge(i, *exit as usize);
                }
                Inst::ForStep { head, .. } => edge(i, *head as usize),
                Inst::IfHead { els, .. } => {
                    edge(i, i + 1);
                    edge(i, *els as usize);
                }
                Inst::ElseJoin { els, end, .. } => {
                    edge(i, *els as usize);
                    edge(i, *end as usize);
                }
                _ => edge(i, i + 1),
            }
        }
        preds
    }

    fn race_pass(&mut self) {
        if self.accesses.is_empty() {
            return;
        }
        let preds = self.predecessors();
        let mut reach: HashMap<usize, HashSet<usize>> = HashMap::new();
        for a in &self.accesses {
            reach
                .entry(a.stmt)
                .or_insert_with(|| self.barrier_free_ancestors(a.stmt, &preds));
        }
        let accesses = std::mem::take(&mut self.accesses);
        for (i, a) in accesses.iter().enumerate() {
            for b in &accesses[i..] {
                if !(a.write || b.write) || a.name != b.name {
                    continue;
                }
                // Concurrent iff some barrier-free point reaches both.
                if reach[&a.stmt].is_disjoint(&reach[&b.stmt]) {
                    continue;
                }
                if self.lane_disjoint(a, b) {
                    continue;
                }
                let bname = self.plan.buf_names[a.name as usize].clone();
                self.push_finding(
                    FindingKind::LocalRace,
                    a.stmt,
                    (b.stmt as u64) << 3 | u64::from(a.write) << 1 | u64::from(b.write),
                    Some(bname.clone()),
                    format!(
                        "{} at stmt #{} and {} at stmt #{} on `{}` are not \
                         separated by a barrier and may touch the same element \
                         from distinct lanes ({} vs {})",
                        dir(a.write),
                        a.stmt,
                        dir(b.write),
                        b.stmt,
                        bname,
                        shape(&a.idx),
                        shape(&b.idx),
                    ),
                );
            }
        }
    }

    /// Can two *distinct* lanes of one work-group produce the same index,
    /// one through `a` and one through `b`? `true` means provably not.
    fn lane_disjoint(&self, a: &Access, b: &Access) -> bool {
        // Disjoint intervals cannot collide at all.
        if let (Some(x), Some(y)) = (a.idx.iv, b.idx.iv) {
            if x.intersect(y).is_none() {
                return true;
            }
        }
        let (Some(fa), Some(fb)) = (a.idx.affine, b.idx.affine) else {
            return false;
        };
        if fa.c != fb.c {
            return false;
        }
        let local = self.cfg.local;
        // Collisions need both lanes active at their access, so the
        // effective lane count per dimension is the larger of the two
        // accesses' active-lane bounds (clamped by the local size).
        let n_of = |d: usize| (local[d] as i64).min(a.n[d].max(b.n[d]));
        let base = fa.base.join(fb.base);
        // A lane dimension the index ignores: two lanes differing only
        // there always collide (unless a fused component accounts for it).
        for d in 0..3 {
            if n_of(d) > 1 && fa.c[d] == 0 && !base.fused_on(d) {
                return false;
            }
        }
        // Joint injectivity of (lanes × base choices) → index, by the
        // mixed-radix criterion over coefficients sorted by magnitude:
        // each must exceed the total span of everything below it. A fused
        // component absorbs its lane dimension: together they contribute
        // one contiguous dimension `(step/local, f)` instead of two.
        let mut dims: Vec<(i64, i64)> = Vec::new();
        // `d` indexes `local`, `fa.c` and the fused tags in lock-step.
        #[allow(clippy::needless_range_loop)]
        for d in 0..3 {
            if n_of(d) <= 1 {
                continue;
            }
            match (0..base.len as usize)
                .find_map(|i| base.comps[i].fused.filter(|(fd, _)| *fd as usize == d))
            {
                Some((_, f)) => {
                    let lane_step = base
                        .comps
                        .iter()
                        .take(base.len as usize)
                        .find(|c| matches!(c.fused, Some((fd, _)) if fd as usize == d))
                        .map(|c| c.step / (local[d].max(1) as i64))
                        .unwrap_or(fa.c[d].abs());
                    dims.push((lane_step, f));
                }
                None => dims.push((fa.c[d].abs(), n_of(d))),
            }
        }
        for i in 0..base.len as usize {
            let c = base.comps[i];
            // Fused components already entered through their lane dim —
            // but only when that lane dim was live (`n_of > 1`).
            if matches!(c.fused, Some((fd, _)) if n_of(fd as usize) > 1) {
                continue;
            }
            dims.push((c.step, c.count));
        }
        dims.sort_unstable();
        let mut span = 0i64;
        for (coef, n) in dims {
            if coef <= span {
                return false;
            }
            span = span.saturating_add(coef.saturating_mul(n - 1));
        }
        true
    }

    // -- expression evaluation ---------------------------------------------

    fn eval(&mut self, e: ExprRef, stmt: usize) -> Slot {
        debug_assert!(self.assumes.is_empty());
        let mut stack: Vec<Slot> = Vec::new();
        let mut frames: Vec<SelFrame> = Vec::new();
        let mut p = e.start as usize;
        while p < e.end as usize {
            let op = self.plan.ecode[p];
            match op {
                EOp::I(v) => self.push_slot(&mut stack, p, AbsVal::int_point(v), None, p as u32),
                EOp::F(_) => {
                    self.push_slot(&mut stack, p, AbsVal::uniform_unknown(), None, p as u32)
                }
                EOp::B(b) => self.push_slot(
                    &mut stack,
                    p,
                    AbsVal {
                        iv: Some(Interval::point(i64::from(b))),
                        uniform: true,
                        affine: None,
                    },
                    None,
                    p as u32,
                ),
                EOp::Scalar(row) => {
                    let v = self.row_get(row, stmt);
                    self.push_slot(&mut stack, p, v, None, p as u32);
                }
                EOp::WorkItem(f, d) => {
                    let v = self.work_item(f, d as usize);
                    self.push_slot(&mut stack, p, v, None, p as u32);
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("binary rhs");
                    let a = stack.pop().expect("binary lhs");
                    let v = bin_abs(op, a.v, b.v);
                    let cmp = if matches!(
                        op,
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
                    ) {
                        Some(Cond::Cmp(CmpInfo {
                            op,
                            lhs: (a.start, b.start),
                            rhs: (b.start, p as u32),
                            lhs_iv: a.v.iv,
                            rhs_iv: b.v.iv,
                        }))
                    } else {
                        Cond::combine(op, a.cmp, b.cmp)
                    };
                    self.push_slot(&mut stack, p, v, cmp, a.start);
                }
                EOp::Un(op) => {
                    let a = stack.pop().expect("unary operand");
                    let cmp = if matches!(op, UnOp::Not) {
                        a.cmp.map(|c| Cond::Not(Box::new(c)))
                    } else {
                        None
                    };
                    self.push_slot(&mut stack, p, un_abs(op, a.v), cmp, a.start);
                }
                EOp::Call { argc, .. } | EOp::Skip { argc, .. } => {
                    let mut uniform = true;
                    let mut start = p as u32;
                    for _ in 0..argc {
                        let a = stack.pop().expect("call argument");
                        uniform &= a.v.uniform;
                        start = start.min(a.start);
                    }
                    self.push_slot(
                        &mut stack,
                        p,
                        AbsVal {
                            iv: None,
                            uniform,
                            affine: None,
                        },
                        None,
                        start,
                    );
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    self.check_access(stmt, &buf, idx.v, false);
                    self.push_slot(&mut stack, p, AbsVal::unknown(), None, idx.start);
                }
                EOp::Cast(t) => {
                    let a = stack.pop().expect("cast operand");
                    let v = match t {
                        CType::Int => a.v,
                        CType::Bool => AbsVal {
                            iv: Some(match a.v.iv {
                                Some(iv) if bool_iv(iv) => iv,
                                _ => Interval::new(0, 1),
                            }),
                            uniform: a.v.uniform,
                            affine: None,
                        },
                        CType::Float => AbsVal {
                            iv: None,
                            uniform: a.v.uniform,
                            affine: None,
                        },
                    };
                    self.push_slot(&mut stack, p, v, None, a.start);
                }
                EOp::SelSplit => {
                    let cond = stack.pop().expect("select condition");
                    let tri = tri_of(cond.v.iv);
                    let (t_assumes, f_assumes) = match cond.cmp.as_ref() {
                        Some(c) => (c.assume_vec(true), c.assume_vec(false)),
                        None => (Vec::new(), Vec::new()),
                    };
                    let frame = SelFrame {
                        start: cond.start,
                        cond_iv: cond.v.iv,
                        cond_uniform: cond.v.uniform,
                        then_val: None,
                        assume_base: self.assumes.len(),
                        saved_report: self.report,
                        t_assumes,
                        f_assumes,
                    };
                    self.assumes.extend_from_slice(&frame.t_assumes);
                    // A proven-constant condition makes one arm dead code:
                    // nothing in it executes for any lane.
                    if tri == Tri::False {
                        self.report = false;
                    }
                    frames.push(frame);
                }
                EOp::SelSwap => {
                    let f = frames.last_mut().expect("select frame");
                    f.then_val = Some(stack.pop().expect("then value").v);
                    self.assumes.truncate(f.assume_base);
                    self.assumes.extend_from_slice(&f.f_assumes);
                    self.report = f.saved_report;
                    if tri_of(f.cond_iv) == Tri::True {
                        self.report = false;
                    }
                }
                EOp::SelJoin => {
                    let f = frames.pop().expect("select frame");
                    let e_val = stack.pop().expect("else value").v;
                    let t_val = f.then_val.expect("parked then value");
                    self.assumes.truncate(f.assume_base);
                    self.report = f.saved_report;
                    let mut v = match tri_of(f.cond_iv) {
                        Tri::True => t_val,
                        Tri::False => e_val,
                        Tri::Unknown => t_val.join(e_val),
                    };
                    v.uniform &= f.cond_uniform;
                    self.push_slot(&mut stack, p, v, None, f.start);
                }
            }
            p += 1;
        }
        self.assumes.clear();
        stack.pop().unwrap_or(Slot {
            v: AbsVal::unknown(),
            start: e.start,
            cmp: None,
        })
    }

    /// Push a completed value, narrowing it by any active select-arm
    /// assumption over the same `ecode` slice.
    fn push_slot(
        &mut self,
        stack: &mut Vec<Slot>,
        p: usize,
        mut v: AbsVal,
        cmp: Option<Cond>,
        start: u32,
    ) {
        let end = (p + 1) as u32;
        let slice = &self.plan.ecode[start as usize..end as usize];
        for a in &self.assumes {
            // Same ops ⇒ same per-lane value (rows and memory cannot
            // change mid-statement), so the condition's bound applies.
            if slice == &self.plan.ecode[a.range.0 as usize..a.range.1 as usize] {
                v.iv = match v.iv {
                    Some(iv) => Some(iv.intersect(a.iv).unwrap_or(a.iv)),
                    None => Some(a.iv),
                };
            }
        }
        stack.push(Slot { v, start, cmp });
    }

    fn work_item(&self, f: WorkItemFn, d: usize) -> AbsVal {
        let g = self.cfg.global[d] as i64;
        let l = (self.cfg.local[d] as i64).max(1);
        let groups = (g / l).max(1);
        match f {
            WorkItemFn::GlobalId => AbsVal {
                iv: Some(Interval::new(0, (g - 1).max(0))),
                uniform: g <= 1,
                affine: Some(Affine {
                    c: unit(d),
                    base: Base::point(0).with_comp(l, groups),
                }),
            },
            WorkItemFn::LocalId => AbsVal {
                iv: Some(Interval::new(0, l - 1)),
                uniform: l <= 1,
                affine: Some(Affine {
                    c: unit(d),
                    base: Base::point(0),
                }),
            },
            WorkItemFn::GroupId => AbsVal {
                iv: Some(Interval::new(0, groups - 1)),
                uniform: true,
                // Uniform per group but not per iteration-base: only a
                // single-group launch keeps the affine shape.
                affine: (groups == 1).then(|| Affine::konst(0)),
            },
            WorkItemFn::GlobalSize => AbsVal::int_point(g),
            WorkItemFn::LocalSize => AbsVal::int_point(l),
            WorkItemFn::NumGroups => AbsVal::int_point(groups),
        }
    }
}

/// The abstract value of the induction row while the body runs: interval
/// from `[init.lo, bound.hi - 1]`, affine base extended along the step.
fn body_row(
    entry: AbsVal,
    bound: AbsVal,
    step: AbsVal,
    uniform: bool,
    local: [usize; 3],
) -> AbsVal {
    let iv = match (entry.iv, bound.iv, step.iv) {
        (Some(e), Some(b), Some(s)) if s.lo >= 1 => {
            Some(Interval::new(e.lo, b.hi.saturating_sub(1).max(e.lo)))
        }
        _ => None,
    };
    let affine = match (entry.affine, bound.iv, step.as_const()) {
        (Some(a), Some(b), Some(s)) if s >= 1 => {
            let hi = b.hi.saturating_sub(1).saturating_sub(a.lane_min(local));
            // Iterating lanes satisfy `entry + k·s ≤ hi`, so the trip
            // count is bounded even when the entry set has several
            // components (use its smallest member).
            let trips = if hi >= a.base.lo {
                (hi - a.base.lo) / s + 1
            } else {
                1
            };
            // `for (r = c·lid_d + lo; r < B; r += c·local[d])` makes lane
            // and iteration jointly tile `lo + c·[0, f)` injectively: tag
            // the component so the race test can use the joint shape.
            let fused = (0..3)
                .find(|&d| {
                    a.c[d] > 0
                        && a.c.iter().enumerate().all(|(e, &v)| e == d || v == 0)
                        && a.base.is_point()
                        && s == a.c[d].saturating_mul(local[d].max(1) as i64)
                })
                .map(|d| {
                    let f = if b.hi.saturating_sub(1) >= a.base.lo {
                        (b.hi - 1 - a.base.lo) / a.c[d] + 1
                    } else {
                        1
                    };
                    (d as u8, f)
                });
            Some(Affine {
                c: a.c,
                base: a.base.push(Comp {
                    step: s,
                    count: trips,
                    fused,
                }),
            })
        }
        _ => None,
    };
    AbsVal {
        iv,
        uniform,
        affine,
    }
}

fn unit(d: usize) -> [i64; 3] {
    let mut c = [0i64; 3];
    if d < 3 {
        c[d] = 1;
    }
    c
}

/// `(work-group shared, name)` for local and private buffers.
fn arena_of(buf: &BufSlot) -> Option<(bool, u16)> {
    match *buf {
        BufSlot::Global { .. } => None,
        BufSlot::Local { name, .. } => Some((true, name)),
        BufSlot::Priv { name, .. } => Some((false, name)),
    }
}

fn dir(write: bool) -> &'static str {
    if write {
        "store"
    } else {
        "load"
    }
}

fn shape(v: &AbsVal) -> String {
    match (v.affine, v.iv) {
        (Some(a), _) => {
            let mut base = format!("{}", a.base.lo);
            for i in 0..a.base.len as usize {
                let c = a.base.comps[i];
                base.push_str(&format!("+{}·k<{}", c.step, c.count));
            }
            format!("{}·lx+{}·ly+{}·lz+{{{base}}}", a.c[0], a.c[1], a.c[2])
        }
        (None, Some(iv)) => format!("[{}, {}]", iv.lo, iv.hi),
        (None, None) => "unbounded".to_string(),
    }
}

/// Interval/uniform/affine transfer for one binary operation, using the
/// simulator's truncating `/` and `%`.
fn bin_abs(op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
    let iv = match (op, a.iv, b.iv) {
        (BinOp::Add, Some(x), Some(y)) => Some(x.add(y)),
        (BinOp::Sub, Some(x), Some(y)) => Some(x.sub(y)),
        (BinOp::Mul, Some(x), Some(y)) => Some(x.mul(y)),
        (BinOp::Div, Some(x), Some(y)) => x.div_trunc(y),
        (BinOp::Mod, Some(x), Some(y)) => x.rem_trunc(y),
        (BinOp::Min, Some(x), Some(y)) => Some(x.min(y)),
        (BinOp::Max, Some(x), Some(y)) => Some(x.max(y)),
        (BinOp::Lt, Some(x), Some(y)) => Some(tri_iv(x.hi < y.lo, x.lo >= y.hi)),
        (BinOp::Le, Some(x), Some(y)) => Some(tri_iv(x.hi <= y.lo, x.lo > y.hi)),
        (BinOp::Gt, Some(x), Some(y)) => Some(tri_iv(x.lo > y.hi, x.hi <= y.lo)),
        (BinOp::Ge, Some(x), Some(y)) => Some(tri_iv(x.lo >= y.hi, x.hi < y.lo)),
        (BinOp::Eq, Some(x), Some(y)) => Some(tri_iv(
            x.lo == x.hi && y.lo == y.hi && x.lo == y.lo,
            x.intersect(y).is_none(),
        )),
        (BinOp::Ne, Some(x), Some(y)) => Some(tri_iv(
            x.intersect(y).is_none(),
            x.lo == x.hi && y.lo == y.hi && x.lo == y.lo,
        )),
        (BinOp::And, Some(x), Some(y)) if bool_iv(x) && bool_iv(y) => {
            Some(Interval::new(x.lo.min(y.lo), x.hi.min(y.hi)))
        }
        (BinOp::Or, Some(x), Some(y)) if bool_iv(x) && bool_iv(y) => {
            Some(Interval::new(x.lo.max(y.lo), x.hi.max(y.hi)))
        }
        // Comparisons/logic over unbounded operands still yield a bool.
        (
            BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::Eq
            | BinOp::Ne
            | BinOp::And
            | BinOp::Or,
            _,
            _,
        ) => Some(Interval::new(0, 1)),
        _ => None,
    };
    let affine = match op {
        BinOp::Add => a.affine.zip(b.affine).map(|(x, y)| x.add(y)),
        BinOp::Sub => a.affine.zip(b.affine).map(|(x, y)| x.add(y.neg())),
        BinOp::Mul => match (a.as_const(), b.as_const()) {
            (Some(k), _) => b.affine.map(|f| f.mul_k(k)),
            (_, Some(k)) => a.affine.map(|f| f.mul_k(k)),
            _ => None,
        },
        _ => None,
    };
    AbsVal {
        iv,
        uniform: a.uniform && b.uniform,
        affine,
    }
}

fn bool_iv(iv: Interval) -> bool {
    iv.lo >= 0 && iv.hi <= 1
}

fn tri_iv(definitely: bool, impossible: bool) -> Interval {
    if definitely {
        Interval::point(1)
    } else if impossible {
        Interval::point(0)
    } else {
        Interval::new(0, 1)
    }
}

fn un_abs(op: UnOp, a: AbsVal) -> AbsVal {
    match op {
        UnOp::Neg => AbsVal {
            iv: a.iv.map(Interval::neg),
            uniform: a.uniform,
            affine: a.affine.map(Affine::neg),
        },
        UnOp::Not => AbsVal {
            iv: Some(match a.iv {
                Some(iv) if bool_iv(iv) => Interval::new(1 - iv.hi, 1 - iv.lo),
                _ => Interval::new(0, 1),
            }),
            uniform: a.uniform,
            affine: None,
        },
    }
}
