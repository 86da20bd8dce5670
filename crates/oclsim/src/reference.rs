//! The tree-walking reference interpreter: the executable semantics the
//! plan engine in [`crate::exec`] is tested against, reached only through
//! [`VirtualDevice::run_reference`](crate::VirtualDevice::run_reference).
//!
//! Work-items of a group execute each statement together, walking the
//! kernel's `CStmt`/`CExpr` trees item by item over dynamically tagged
//! values (`V`: an int, float or bool chosen at run time). That keeps it
//! small and obviously faithful, and slow. The tagged values are private
//! to this module, so the plan engine, the verifier and the cost model
//! cannot use them: they run on the types plan compilation fixed.

use std::collections::HashMap;

use lift_codegen::clike::{BinOp, CExpr, CStmt, CType, Kernel, UnOp, WorkItemFn};
use lift_core::scalar::Scalar;

use crate::exec::{call_cost, simd_charge, SimError};
use crate::perf::{KernelStats, SEGMENT_BYTES};
use crate::runtime::{BufferData, LaunchConfig};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum V {
    F(f32),
    I(i64),
    B(bool),
}

impl V {
    fn as_i(self) -> Result<i64, SimError> {
        match self {
            V::I(v) => Ok(v),
            V::B(b) => Ok(b as i64),
            V::F(_) => Err(SimError::TypeMismatch("expected int, found float".into())),
        }
    }

    fn as_b(self) -> Result<bool, SimError> {
        match self {
            V::B(v) => Ok(v),
            V::I(v) => Ok(v != 0),
            V::F(_) => Err(SimError::TypeMismatch("expected bool, found float".into())),
        }
    }

    fn to_scalar(self) -> Scalar {
        match self {
            V::F(v) => Scalar::F32(v),
            V::I(v) => Scalar::I32(v as i32),
            V::B(v) => Scalar::Bool(v),
        }
    }

    fn from_scalar(s: Scalar) -> V {
        match s {
            Scalar::F32(v) => V::F(v),
            Scalar::I32(v) => V::I(v as i64),
            Scalar::Bool(v) => V::B(v),
        }
    }
}

/// Where a buffer variable lives (tree interpreter).
#[derive(Debug, Clone, Copy)]
enum BufKind {
    Global { slot: usize, base_addr: u64 },
    Local { slot: usize },
}

/// Per-work-item state (tree interpreter).
struct ItemEnv {
    scalars: Vec<V>,
    priv_arrays: Vec<Vec<V>>,
    lid: [usize; 3],
    /// Global-memory addresses touched while executing the current
    /// lock-step statement (loads and stores separately, in program order).
    pend_loads: Vec<u64>,
    pend_stores: Vec<u64>,
}

/// A recycling pool for the active-mask buffers `for`-iterations and
/// `if`-branches need: every mask used to be a fresh `vec![…; wg]`
/// allocation per statement, now the handful of live masks are reused for
/// the whole launch.
struct MaskPool {
    free: Vec<Vec<bool>>,
    n: usize,
}

impl MaskPool {
    fn new(n: usize) -> Self {
        MaskPool {
            free: Vec::new(),
            n,
        }
    }

    /// An all-false mask of the launch's group size.
    fn get(&mut self) -> Vec<bool> {
        match self.free.pop() {
            Some(mut m) => {
                m.clear();
                m.resize(self.n, false);
                m
            }
            None => vec![false; self.n],
        }
    }

    fn put(&mut self, m: Vec<bool>) {
        self.free.push(m);
    }
}

pub(crate) struct Machine<'a> {
    kernel: &'a Kernel,
    global: &'a mut [BufferData],
    bufs: HashMap<u32, BufKind>,
    scalar_slots: HashMap<u32, usize>,
    priv_slots: HashMap<u32, (usize, usize)>,
    /// Private-array lengths in stable slot order (see
    /// [`lift_codegen::clike::SlotMap`]).
    priv_lens: Vec<usize>,
    call_costs: HashMap<String, u64>,
    pub(crate) stats: KernelStats,
    warp: usize,
    cfg: LaunchConfig,
}

/// Per-group execution state (tree interpreter).
struct Group {
    items: Vec<ItemEnv>,
    locals: Vec<Vec<V>>,
    group_id: [usize; 3],
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        kernel: &'a Kernel,
        global: &'a mut [BufferData],
        cfg: LaunchConfig,
        warp: usize,
    ) -> Result<Self, SimError> {
        let mut bufs = HashMap::new();
        let mut base = 0u64;
        for p in &kernel.params {
            bufs.insert(
                p.var.id(),
                BufKind::Global {
                    slot: bufs.len(),
                    base_addr: base,
                },
            );
            // Segment-align each buffer.
            base += ((p.len as u64 * 4).div_ceil(SEGMENT_BYTES)) * SEGMENT_BYTES;
        }
        for (slot, l) in kernel.locals.iter().enumerate() {
            bufs.insert(l.var.id(), BufKind::Local { slot });
        }

        // Environment slots come from the kernel's stable slot metadata —
        // the same assignment the plan compiler resolves against.
        let slots = kernel.slot_map();
        let scalar_slots: HashMap<u32, usize> = slots
            .scalars
            .iter()
            .enumerate()
            .map(|(i, (v, _))| (v.id(), i))
            .collect();
        let priv_slots: HashMap<u32, (usize, usize)> = slots
            .priv_arrays
            .iter()
            .enumerate()
            .map(|(i, (v, _, len))| (v.id(), (i, *len)))
            .collect();
        let priv_lens: Vec<usize> = slots.priv_arrays.iter().map(|(_, _, len)| *len).collect();

        let mut call_costs = HashMap::new();
        for uf in &kernel.user_funs {
            call_costs.insert(uf.name().to_string(), call_cost(uf.c_body()));
        }

        let mut stats = KernelStats::default();
        let wg = cfg.local.iter().product::<usize>();
        stats.wg_size = wg as u64;
        stats.work_groups = (cfg.groups().iter().product::<usize>()) as u64;
        stats.work_items = (cfg.global.iter().product::<usize>()) as u64;
        stats.local_bytes_per_group = kernel.local_bytes() as u64;

        Ok(Machine {
            kernel,
            global,
            bufs,
            scalar_slots,
            priv_slots,
            priv_lens,
            call_costs,
            stats,
            warp,
            cfg,
        })
    }

    pub(crate) fn run(&mut self) -> Result<(), SimError> {
        let groups = self.cfg.groups();
        let wg = self.cfg.local;
        let wg_linear = wg.iter().product::<usize>();
        // The statement tree is borrowed, not cloned per work-group, and
        // the all-true base mask plus branch/loop masks are reused for the
        // whole launch.
        let body: &'a [CStmt] = &self.kernel.body;
        let mask = vec![true; wg_linear];
        let mut pool = MaskPool::new(wg_linear);
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    let mut grp = self.make_group([gx, gy, gz], wg, wg_linear);
                    self.exec_stmts(body, &mut grp, &mask, &mut pool)?;
                }
            }
        }
        self.stats.finalise();
        Ok(())
    }

    fn make_group(&self, group_id: [usize; 3], wg: [usize; 3], wg_linear: usize) -> Group {
        let n_scalars = self.scalar_slots.len();
        let items = (0..wg_linear)
            .map(|i| {
                let lx = i % wg[0];
                let ly = (i / wg[0]) % wg[1];
                let lz = i / (wg[0] * wg[1]);
                ItemEnv {
                    scalars: vec![V::I(0); n_scalars],
                    priv_arrays: self
                        .priv_lens
                        .iter()
                        .map(|len| vec![V::F(0.0); *len])
                        .collect(),
                    lid: [lx, ly, lz],
                    pend_loads: Vec::new(),
                    pend_stores: Vec::new(),
                }
            })
            .collect();
        let locals = self
            .kernel
            .locals
            .iter()
            .map(|l| vec![V::F(0.0); l.len])
            .collect();
        Group {
            items,
            locals,
            group_id,
        }
    }

    fn exec_stmts(
        &mut self,
        stmts: &[CStmt],
        grp: &mut Group,
        mask: &[bool],
        pool: &mut MaskPool,
    ) -> Result<(), SimError> {
        for s in stmts {
            self.exec_stmt(s, grp, mask, pool)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        s: &CStmt,
        grp: &mut Group,
        mask: &[bool],
        pool: &mut MaskPool,
    ) -> Result<(), SimError> {
        match s {
            CStmt::DeclScalar { var, init, ty } => {
                if let Some(e) = init {
                    let slot = self.scalar_slot(var.id())?;
                    let before = self.stats.alu_ops;
                    for i in active(mask) {
                        let v = self.eval(e, grp, i)?;
                        grp.items[i].scalars[slot] = coerce(v, *ty);
                    }
                    simd_charge(&mut self.stats, self.warp, mask, before);
                    self.flush_accesses(grp, mask);
                }
                Ok(())
            }
            CStmt::DeclPrivateArray { .. } => Ok(()), // pre-allocated
            CStmt::Assign { var, value } => {
                let slot = self.scalar_slot(var.id())?;
                let before = self.stats.alu_ops;
                for i in active(mask) {
                    let v = self.eval(value, grp, i)?;
                    grp.items[i].scalars[slot] = v;
                }
                simd_charge(&mut self.stats, self.warp, mask, before);
                self.flush_accesses(grp, mask);
                Ok(())
            }
            CStmt::Store {
                buf, idx, value, ..
            } => {
                let before = self.stats.alu_ops;
                for i in active(mask) {
                    let index = self.eval(idx, grp, i)?.as_i()?;
                    let v = self.eval(value, grp, i)?;
                    self.store(buf.id(), buf.name(), index, v, grp, i)?;
                }
                simd_charge(&mut self.stats, self.warp, mask, before);
                self.flush_accesses(grp, mask);
                Ok(())
            }
            CStmt::For {
                var,
                init,
                bound,
                step,
                body,
            } => {
                let slot = self.scalar_slot(var.id())?;
                for i in active(mask) {
                    let v = self.eval(init, grp, i)?;
                    grp.items[i].scalars[slot] = v;
                }
                self.flush_accesses(grp, mask);
                loop {
                    let mut iter_mask = pool.get();
                    let mut any = false;
                    let before = self.stats.alu_ops;
                    for i in active(mask) {
                        let cur = grp.items[i].scalars[slot].as_i()?;
                        let b = self.eval(bound, grp, i)?.as_i()?;
                        self.stats.alu_ops += 1; // the comparison
                        if cur < b {
                            iter_mask[i] = true;
                            any = true;
                        }
                    }
                    simd_charge(&mut self.stats, self.warp, mask, before);
                    self.flush_accesses(grp, mask);
                    if !any {
                        pool.put(iter_mask);
                        break;
                    }
                    self.exec_stmts(body, grp, &iter_mask, pool)?;
                    let before = self.stats.alu_ops;
                    for i in active(&iter_mask) {
                        let st = self.eval(step, grp, i)?.as_i()?;
                        let cur = grp.items[i].scalars[slot].as_i()?;
                        grp.items[i].scalars[slot] = V::I(cur + st);
                        self.stats.alu_ops += 1;
                    }
                    simd_charge(&mut self.stats, self.warp, &iter_mask, before);
                    self.flush_accesses(grp, &iter_mask);
                    pool.put(iter_mask);
                }
                Ok(())
            }
            CStmt::If { cond, then_, else_ } => {
                let mut t_mask = pool.get();
                let mut e_mask = pool.get();
                let before = self.stats.alu_ops;
                for i in active(mask) {
                    if self.eval(cond, grp, i)?.as_b()? {
                        t_mask[i] = true;
                    } else {
                        e_mask[i] = true;
                    }
                }
                simd_charge(&mut self.stats, self.warp, mask, before);
                self.flush_accesses(grp, mask);
                if t_mask.iter().any(|&b| b) {
                    self.exec_stmts(then_, grp, &t_mask, pool)?;
                }
                if e_mask.iter().any(|&b| b) {
                    self.exec_stmts(else_, grp, &e_mask, pool)?;
                }
                pool.put(t_mask);
                pool.put(e_mask);
                Ok(())
            }
            CStmt::Barrier { .. } => {
                if mask.iter().any(|&b| !b) {
                    return Err(SimError::BarrierDivergence);
                }
                self.stats.barriers += 1;
                Ok(())
            }
            CStmt::Comment(_) => Ok(()),
        }
    }

    fn scalar_slot(&self, id: u32) -> Result<usize, SimError> {
        self.scalar_slots
            .get(&id)
            .copied()
            .ok_or_else(|| SimError::UnboundVariable(format!("slot #{id}")))
    }

    fn eval(&mut self, e: &CExpr, grp: &mut Group, item: usize) -> Result<V, SimError> {
        match e {
            CExpr::Int(v) => Ok(V::I(*v)),
            CExpr::Float(v) => Ok(V::F(*v)),
            CExpr::Bool(v) => Ok(V::B(*v)),
            CExpr::Var(v) => {
                let slot = self.scalar_slot(v.id())?;
                Ok(grp.items[item].scalars[slot])
            }
            CExpr::WorkItem(f, d) => {
                let d = *d as usize;
                let lid = grp.items[item].lid[d];
                let v = match f {
                    WorkItemFn::GlobalId => grp.group_id[d] * self.cfg.local[d] + lid,
                    WorkItemFn::LocalId => lid,
                    WorkItemFn::GroupId => grp.group_id[d],
                    WorkItemFn::GlobalSize => self.cfg.global[d],
                    WorkItemFn::LocalSize => self.cfg.local[d],
                    WorkItemFn::NumGroups => self.cfg.groups()[d],
                };
                Ok(V::I(v as i64))
            }
            CExpr::Bin(op, a, b) => {
                let va = self.eval(a, grp, item)?;
                let vb = self.eval(b, grp, item)?;
                self.stats.alu_ops += 1;
                bin_op(*op, va, vb)
            }
            CExpr::Un(op, a) => {
                let v = self.eval(a, grp, item)?;
                self.stats.alu_ops += 1;
                un_op(*op, v)
            }
            CExpr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, grp, item)?.to_scalar());
                }
                let cost = self
                    .call_costs
                    .get(f.name())
                    .copied()
                    .unwrap_or_else(|| call_cost(f.c_body()));
                self.stats.alu_ops += cost;
                let kinds = f.params().iter().map(|(_, t)| t.as_scalar());
                if vals.len() != f.arity() || !kinds.zip(&vals).all(|(k, v)| k == Some(v.kind())) {
                    return Err(SimError::TypeMismatch(format!(
                        "call of user function `{}` does not match its parameters",
                        f.name()
                    )));
                }
                Ok(V::from_scalar(f.call(&vals)?))
            }
            CExpr::Load { buf, idx, .. } => {
                let index = self.eval(idx, grp, item)?.as_i()?;
                self.load(buf.id(), buf.name(), index, grp, item)
            }
            CExpr::Select { cond, then_, else_ } => {
                let c = self.eval(cond, grp, item)?.as_b()?;
                self.stats.alu_ops += 1;
                if c {
                    self.eval(then_, grp, item)
                } else {
                    self.eval(else_, grp, item)
                }
            }
            CExpr::Cast(t, a) => {
                let v = self.eval(a, grp, item)?;
                Ok(cast(*t, v))
            }
        }
    }

    fn load(
        &mut self,
        buf_id: u32,
        buf_name: &str,
        index: i64,
        grp: &mut Group,
        item: usize,
    ) -> Result<V, SimError> {
        match self.bufs.get(&buf_id).copied() {
            Some(BufKind::Global { slot, base_addr }) => {
                let data = &self.global[slot];
                let len = data.len();
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                self.stats.global_loads += 1;
                grp.items[item]
                    .pend_loads
                    .push(base_addr + index as u64 * 4);
                Ok(match data {
                    BufferData::F32(v) => V::F(v[index as usize]),
                    BufferData::I32(v) => V::I(v[index as usize] as i64),
                })
            }
            Some(BufKind::Local { slot }) => {
                let data = &grp.locals[slot];
                if index < 0 || index as usize >= data.len() {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len: data.len(),
                    });
                }
                self.stats.local_accesses += 1;
                Ok(data[index as usize])
            }
            None => {
                // Private array.
                let (slot, len) = self
                    .priv_slots
                    .get(&buf_id)
                    .copied()
                    .ok_or_else(|| SimError::UnboundVariable(format!("buffer `{buf_name}`")))?;
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                Ok(grp.items[item].priv_arrays[slot][index as usize])
            }
        }
    }

    fn store(
        &mut self,
        buf_id: u32,
        buf_name: &str,
        index: i64,
        v: V,
        grp: &mut Group,
        item: usize,
    ) -> Result<(), SimError> {
        match self.bufs.get(&buf_id).copied() {
            Some(BufKind::Global { slot, base_addr }) => {
                let data = &mut self.global[slot];
                let len = data.len();
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                self.stats.global_stores += 1;
                grp.items[item]
                    .pend_stores
                    .push(base_addr + index as u64 * 4);
                store_value(data, index as usize, v)?;
                Ok(())
            }
            Some(BufKind::Local { slot }) => {
                let data = &mut grp.locals[slot];
                if index < 0 || index as usize >= data.len() {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len: data.len(),
                    });
                }
                self.stats.local_accesses += 1;
                data[index as usize] = v;
                Ok(())
            }
            None => {
                let (slot, len) = self
                    .priv_slots
                    .get(&buf_id)
                    .copied()
                    .ok_or_else(|| SimError::UnboundVariable(format!("buffer `{buf_name}`")))?;
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                grp.items[item].priv_arrays[slot][index as usize] = v;
                Ok(())
            }
        }
    }

    /// Coalescing analysis: after a lock-step statement, the k-th access of
    /// each work-item lines up across the warp; each warp pays one
    /// transaction per distinct 128-byte segment at each ordinal.
    ///
    /// [`PlanMachine::flush`] implements the identical analysis over its
    /// flat scratch arena; keep the two in lock-step.
    ///
    /// [`PlanMachine::flush`]: crate::exec::PlanMachine::flush
    fn flush_accesses(&mut self, grp: &mut Group, mask: &[bool]) {
        let warp = self.warp.max(1);
        let n = grp.items.len();
        let mut segs: Vec<u64> = Vec::with_capacity(warp);
        for kind in 0..2 {
            let max_ord = grp
                .items
                .iter()
                .map(|it| {
                    if kind == 0 {
                        it.pend_loads.len()
                    } else {
                        it.pend_stores.len()
                    }
                })
                .max()
                .unwrap_or(0);
            if max_ord == 0 {
                continue;
            }
            for warp_start in (0..n).step_by(warp) {
                for k in 0..max_ord {
                    segs.clear();
                    #[allow(clippy::needless_range_loop)] // parallel indexing into mask + items
                    for i in warp_start..(warp_start + warp).min(n) {
                        if !mask[i] {
                            continue;
                        }
                        let pend = if kind == 0 {
                            &grp.items[i].pend_loads
                        } else {
                            &grp.items[i].pend_stores
                        };
                        if let Some(addr) = pend.get(k) {
                            segs.push(addr / SEGMENT_BYTES);
                        }
                    }
                    if segs.is_empty() {
                        continue;
                    }
                    segs.sort_unstable();
                    segs.dedup();
                    if kind == 0 {
                        self.stats.load_transactions += segs.len() as u64;
                    } else {
                        self.stats.store_transactions += segs.len() as u64;
                    }
                    for s in &segs {
                        self.stats.seen_segments.insert(*s);
                    }
                }
            }
        }
        for it in &mut grp.items {
            it.pend_loads.clear();
            it.pend_stores.clear();
        }
    }
}

fn active(mask: &[bool]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().filter_map(|(i, &b)| b.then_some(i))
}

fn coerce(v: V, ty: CType) -> V {
    match (ty, v) {
        (CType::Float, V::I(x)) => V::F(x as f32),
        (CType::Int, V::B(x)) => V::I(x as i64),
        _ => v,
    }
}

fn cast(t: CType, v: V) -> V {
    match (t, v) {
        (CType::Float, V::I(x)) => V::F(x as f32),
        (CType::Int, V::F(x)) => V::I(x as i64),
        (_, v) => v,
    }
}

fn un_op(op: UnOp, v: V) -> Result<V, SimError> {
    match (op, v) {
        (UnOp::Neg, V::F(x)) => Ok(V::F(-x)),
        (UnOp::Neg, V::I(x)) => Ok(V::I(-x)),
        (UnOp::Not, V::B(x)) => Ok(V::B(!x)),
        _ => Err(SimError::TypeMismatch("bad unary operand".into())),
    }
}

fn store_value(data: &mut BufferData, index: usize, v: V) -> Result<(), SimError> {
    match (data, v) {
        (BufferData::F32(d), V::F(x)) => d[index] = x,
        (BufferData::I32(d), V::I(x)) => d[index] = x as i32,
        (BufferData::F32(d), V::I(x)) => d[index] = x as f32,
        (BufferData::I32(_), V::F(_)) => {
            return Err(SimError::TypeMismatch(
                "float stored into int buffer".into(),
            ))
        }
        (BufferData::F32(d), V::B(x)) => d[index] = x as i32 as f32,
        (BufferData::I32(d), V::B(x)) => d[index] = x as i32,
    }
    Ok(())
}

fn bin_op(op: BinOp, a: V, b: V) -> Result<V, SimError> {
    use BinOp::*;
    Ok(match (op, a, b) {
        (Add, V::F(x), V::F(y)) => V::F(x + y),
        (Sub, V::F(x), V::F(y)) => V::F(x - y),
        (Mul, V::F(x), V::F(y)) => V::F(x * y),
        (Div, V::F(x), V::F(y)) => V::F(x / y),
        (Min, V::F(x), V::F(y)) => V::F(x.min(y)),
        (Max, V::F(x), V::F(y)) => V::F(x.max(y)),
        (Lt, V::F(x), V::F(y)) => V::B(x < y),
        (Le, V::F(x), V::F(y)) => V::B(x <= y),
        (Gt, V::F(x), V::F(y)) => V::B(x > y),
        (Ge, V::F(x), V::F(y)) => V::B(x >= y),
        (Eq, V::F(x), V::F(y)) => V::B(x == y),
        (Ne, V::F(x), V::F(y)) => V::B(x != y),

        (Add, V::I(x), V::I(y)) => V::I(x.wrapping_add(y)),
        (Sub, V::I(x), V::I(y)) => V::I(x.wrapping_sub(y)),
        (Mul, V::I(x), V::I(y)) => V::I(x.wrapping_mul(y)),
        (Div, V::I(x), V::I(y)) => {
            if y == 0 {
                return Err(SimError::DivisionByZero);
            }
            V::I(x.wrapping_div(y)) // C truncating division
        }
        (Mod, V::I(x), V::I(y)) => {
            if y == 0 {
                return Err(SimError::DivisionByZero);
            }
            V::I(x.wrapping_rem(y)) // C remainder
        }
        (Min, V::I(x), V::I(y)) => V::I(x.min(y)),
        (Max, V::I(x), V::I(y)) => V::I(x.max(y)),
        (Lt, V::I(x), V::I(y)) => V::B(x < y),
        (Le, V::I(x), V::I(y)) => V::B(x <= y),
        (Gt, V::I(x), V::I(y)) => V::B(x > y),
        (Ge, V::I(x), V::I(y)) => V::B(x >= y),
        (Eq, V::I(x), V::I(y)) => V::B(x == y),
        (Ne, V::I(x), V::I(y)) => V::B(x != y),

        (And, V::B(x), V::B(y)) => V::B(x && y),
        (Or, V::B(x), V::B(y)) => V::B(x || y),

        (op, a, b) => {
            return Err(SimError::TypeMismatch(format!(
                "operator {op:?} on {a:?} and {b:?}"
            )))
        }
    })
}
