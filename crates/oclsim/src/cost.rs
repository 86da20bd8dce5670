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

use lift_codegen::clike::KernelParam;

use crate::device::DeviceProfile;
use crate::exec::{PlanMachine, SimError};
use crate::perf::KernelStats;
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan};
use crate::runtime::{BufferData, LaunchConfig};

/// A statically predicted [`KernelStats`], priced by the same
/// [`KernelStats::model_time`] the simulator uses.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// The predicted event counts.
    pub stats: KernelStats,
    /// Whether every count provably equals what the simulator would
    /// measure. Always `true`: a plan the model cannot price exactly is
    /// refused instead (see the module docs).
    pub exact: bool,
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
/// (the plan itself only stores their base addresses).
pub(crate) fn estimate_plan(
    plan: &Plan,
    params: &[KernelParam],
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
    check_data_independent(plan)?;
    let mut zeros: Vec<BufferData> = params
        .iter()
        .map(|p| BufferData::zeros(p.elem, p.len))
        .collect();
    let mut machine = PlanMachine::new(plan, &mut zeros, cfg, warp);
    machine.run()?;
    Ok(CostEstimate {
        stats: machine.stats,
        exact: true,
    })
}

/// Refuses `plan` when buffer data can reach a site that steers the
/// executor's counters: an `if` condition, a loop bound or counter, a `?:`
/// condition, or the index of a global load or store.
///
/// An upward fixpoint over the scalar register rows: a row is *data* once
/// any `SetScalar` or `ForStep` writes it from an expression that loads
/// from a buffer or reads a data row. Implicit flows need no tracking —
/// with no data-dependent branch there is no data-dependent control.
fn check_data_independent(plan: &Plan) -> Result<(), SimError> {
    let mut data = vec![false; plan.n_rows()];
    loop {
        let mut changed = false;
        for inst in &plan.code {
            match *inst {
                Inst::SetScalar {
                    row, value: src, ..
                }
                | Inst::ForStep { row, step: src, .. } => {
                    let slot = plan.row_index(row);
                    if reads_data(plan, src, &data)? && !data[slot] {
                        data[slot] = true;
                        changed = true;
                    }
                }
                Inst::Store { buf, idx, value } => {
                    if reads_data(plan, idx, &data)? && matches!(buf, BufSlot::Global { .. }) {
                        return Err(refuse("a global store index"));
                    }
                    // Storing data is fine; a load index or `?:` inside
                    // the value is not.
                    reads_data(plan, value, &data)?;
                }
                Inst::ForHead { row, bound, .. } => {
                    if reads_data(plan, bound, &data)? {
                        return Err(refuse("a loop bound"));
                    }
                    if data[plan.row_index(row)] {
                        return Err(refuse("a loop counter"));
                    }
                }
                Inst::IfHead { cond, .. } => {
                    if reads_data(plan, cond, &data)? {
                        return Err(refuse("a branch condition"));
                    }
                }
                Inst::ElseJoin { .. } | Inst::EndIf | Inst::Barrier => {}
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

/// Whether the value of `er` depends on buffer contents: it loads from any
/// buffer or reads a data row. A user-function call depends on data only
/// through its arguments, so a call on work-item ids stays launch-determined.
/// Refuses when data reaches a `?:` condition or a global load index inside
/// the expression.
fn reads_data(plan: &Plan, er: ExprRef, data: &[bool]) -> Result<bool, SimError> {
    // One flag per value on the bytecode's operand stack. A `?:` leaves
    // its then-value in place across `SelSwap`; `SelJoin` folds both arms.
    let mut stack: Vec<bool> = Vec::new();
    for op in &plan.ecode[er.start as usize..er.end as usize] {
        match *op {
            EOp::I(_) | EOp::F(_) | EOp::B(_) | EOp::WorkItem(..) => stack.push(false),
            EOp::Scalar(row) => stack.push(data[plan.row_index(row)]),
            EOp::Un(_) | EOp::Cast(_) | EOp::SelSwap => {}
            EOp::Bin(_) | EOp::SelJoin => {
                let b = stack.pop().expect("second operand");
                let a = stack.pop().expect("first operand");
                stack.push(a || b);
            }
            EOp::Call { argc, .. } => {
                let base = stack.len() - argc as usize;
                let any = stack.drain(base..).any(|d| d);
                stack.push(any);
            }
            EOp::Load(buf) => {
                let idx = stack.pop().expect("load index");
                if idx && matches!(buf, BufSlot::Global { .. }) {
                    return Err(refuse("a global load index"));
                }
                stack.push(true);
            }
            EOp::SelSplit => {
                if stack.pop().expect("select condition") {
                    return Err(refuse("a `?:` condition"));
                }
            }
        }
    }
    Ok(stack.pop().expect("expression produces a value"))
}

fn refuse(site: &str) -> SimError {
    SimError::Estimate(format!("{site} reads buffer data"))
}
