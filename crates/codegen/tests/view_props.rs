//! Property tests for the view system: a random stack of layout
//! transformations read through [`View`] index algebra must agree with an
//! independent *materialising* model at every element, also when the stack
//! sits under layout `map`s ([`View::Map`] over a [`View::Hole`]); and
//! writing through the [`View::dual`] of a stack must store every element
//! where the model's layout puts it.
//!
//! Cases are drawn from a deterministic SplitMix64 stream (no external
//! property-testing framework is available), so every run checks the same
//! fixed set of layout stacks and is exactly reproducible.

use std::sync::Arc;

use lift_codegen::clike::{AddressSpace, BinOp, CExpr, CStmt, VarRef};
use lift_codegen::view::View;
use lift_core::pattern::Boundary;
use lift_core::scalar::Scalar;

/// An independently-modelled array: flat data + shape, transformed
/// *materially* (the oracle the lazy views must match).
#[derive(Debug, Clone)]
struct Model {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Model {
    fn outer(&self) -> usize {
        self.shape[0]
    }

    fn row(&self) -> usize {
        self.shape.iter().skip(1).product::<usize>().max(1)
    }

    fn pad(&self, l: usize, r: usize, b: Boundary) -> Model {
        let n = self.outer() as i64;
        let row = self.row();
        let mut data = Vec::new();
        for i in -(l as i64)..n + r as i64 {
            let src = b.reindex(i, n) as usize;
            data.extend_from_slice(&self.data[src * row..(src + 1) * row]);
        }
        let mut shape = self.shape.clone();
        shape[0] += l + r;
        Model { data, shape }
    }

    fn pad_value(&self, l: usize, r: usize, v: f32) -> Model {
        let row = self.row();
        let mut data = vec![v; l * row];
        data.extend_from_slice(&self.data);
        data.extend(std::iter::repeat_n(v, r * row));
        let mut shape = self.shape.clone();
        shape[0] += l + r;
        Model { data, shape }
    }

    fn slide(&self, size: usize, step: usize) -> Model {
        let n = self.outer();
        let row = self.row();
        let count = (n - size) / step + 1;
        let mut data = Vec::new();
        for i in 0..count {
            data.extend_from_slice(&self.data[i * step * row..(i * step + size) * row]);
        }
        let mut shape = vec![count, size];
        shape.extend_from_slice(&self.shape[1..]);
        Model { data, shape }
    }

    fn split(&self, c: usize) -> Model {
        let mut shape = vec![self.outer() / c, c];
        shape.extend_from_slice(&self.shape[1..]);
        Model {
            data: self.data.clone(),
            shape,
        }
    }

    fn join(&self) -> Model {
        let mut shape = vec![self.shape[0] * self.shape[1]];
        shape.extend_from_slice(&self.shape[2..]);
        Model {
            data: self.data.clone(),
            shape,
        }
    }

    fn transpose(&self) -> Model {
        let (a, b) = (self.shape[0], self.shape[1]);
        let inner: usize = self.shape.iter().skip(2).product::<usize>().max(1);
        let mut data = vec![0.0; self.data.len()];
        for i in 0..a {
            for j in 0..b {
                let src = (i * b + j) * inner;
                let dst = (j * a + i) * inner;
                data[dst..dst + inner].copy_from_slice(&self.data[src..src + inner]);
            }
        }
        let mut shape = vec![b, a];
        shape.extend_from_slice(&self.shape[2..]);
        Model { data, shape }
    }

    /// The elements along the outermost dimension.
    fn rows(&self) -> Vec<Model> {
        let row = self.row();
        (0..self.outer())
            .map(|r| Model {
                data: self.data[r * row..(r + 1) * row].to_vec(),
                shape: self.shape[1..].to_vec(),
            })
            .collect()
    }

    /// The array whose elements are `rows` (all of one shape).
    fn stacked(rows: Vec<Model>) -> Model {
        let mut shape = vec![rows.len()];
        shape.extend_from_slice(&rows[0].shape);
        Model {
            data: rows.into_iter().flat_map(|r| r.data).collect(),
            shape,
        }
    }
}

/// One random transformation applied to both the model and the view.
#[derive(Debug, Clone)]
enum Op {
    Pad(usize, usize, Boundary),
    PadValue(usize, usize),
    Slide(usize, usize),
    Split(usize),
    Join,
    Transpose,
    /// A layout `map` of the ops over the outermost dimension.
    Map(Vec<Op>),
}

struct Rng(lift_tuner::SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(lift_tuner::SplitMix64::new(seed))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(n as usize) as u64
    }
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.below(6) {
        0 => {
            let b = match rng.below(3) {
                0 => Boundary::Clamp,
                1 => Boundary::Mirror,
                _ => Boundary::Wrap,
            };
            Op::Pad(1 + rng.below(2) as usize, 1 + rng.below(2) as usize, b)
        }
        1 => Op::PadValue(1 + rng.below(2) as usize, 1 + rng.below(2) as usize),
        2 => Op::Slide(2 + rng.below(2) as usize, 1 + rng.below(2) as usize),
        3 => Op::Split(2 + rng.below(2) as usize),
        4 => Op::Join,
        _ => Op::Transpose,
    }
}

/// A random op for a stack under up to `depth` nested layout `map`s,
/// drawn from the writable ops only when `writable`.
fn random_nested_op(rng: &mut Rng, depth: usize, writable: bool) -> Op {
    if depth > 0 && rng.below(3) == 0 {
        let len = 1 + rng.below(3);
        return Op::Map(
            (0..len)
                .map(|_| random_nested_op(rng, depth - 1, writable))
                .collect(),
        );
    }
    if !writable {
        return random_op(rng);
    }
    match rng.below(3) {
        0 => Op::Split(2 + rng.below(2) as usize),
        1 => Op::Join,
        _ => Op::Transpose,
    }
}

/// Applies `op` to the view and the model alike, or returns `None` when it
/// does not fit the model's shape.
fn apply(op: &Op, view: View, model: &Model) -> Option<(View, Model)> {
    let base = Box::new(view);
    let rank = model.shape.len();
    Some(match op {
        Op::Pad(l, r, b) => (
            View::Pad {
                left: *l,
                n: model.outer(),
                boundary: *b,
                base,
            },
            model.pad(*l, *r, *b),
        ),
        Op::PadValue(l, r) => (
            View::PadValue {
                left: *l,
                n: model.outer(),
                value: Scalar::F32(55.5),
                base,
            },
            model.pad_value(*l, *r, 55.5),
        ),
        Op::Slide(size, step) if model.outer() >= *size => {
            (View::Slide { step: *step, base }, model.slide(*size, *step))
        }
        Op::Split(c) if model.outer().is_multiple_of(*c) => {
            (View::Split { chunk: *c, base }, model.split(*c))
        }
        Op::Join if rank >= 2 => (
            View::Join {
                inner: model.shape[1],
                base,
            },
            model.join(),
        ),
        Op::Transpose if rank >= 2 => (View::Transpose { base }, model.transpose()),
        Op::Map(ops) if rank >= 2 => {
            // The ops that fit one element fit them all: shapes agree.
            let rows = model.rows();
            let (elem, _, applied) = stack(ops, View::Hole, rows[0].clone());
            let rows = rows
                .into_iter()
                .map(|r| stack(&applied, View::Hole, r).1)
                .collect();
            (
                View::Map {
                    elem: Arc::new(elem),
                    base,
                },
                Model::stacked(rows),
            )
        }
        _ => return None,
    })
}

/// Applies the ops that fit, in order, returning them too.
fn stack(ops: &[Op], mut view: View, mut model: Model) -> (View, Model, Vec<Op>) {
    let mut applied = Vec::new();
    for op in ops {
        if let Some((v, m)) = apply(op, view.clone(), &model) {
            view = v;
            model = m;
            applied.push(op.clone());
        }
    }
    (view, model, applied)
}

/// The row-major index of element `flat` of an array of shape `shape`.
fn indices(flat: usize, shape: &[usize]) -> Vec<CExpr> {
    let mut idxs = Vec::with_capacity(shape.len());
    let mut rest = flat;
    for d in shape.iter().rev() {
        idxs.push(CExpr::Int((rest % d) as i64));
        rest /= d;
    }
    idxs.reverse();
    idxs
}

fn mem(shape: &[usize]) -> View {
    View::Mem {
        buf: VarRef::fresh("A"),
        space: AddressSpace::Global,
        shape: shape.to_vec(),
    }
}

/// Evaluates the access expression a view produced against concrete data.
fn eval_cexpr(e: &CExpr, data: &[f32]) -> f64 {
    match e {
        CExpr::Int(v) => *v as f64,
        CExpr::Float(v) => *v as f64,
        CExpr::Bool(v) => *v as i64 as f64,
        CExpr::Load { idx, .. } => {
            let i = eval_cexpr(idx, data) as usize;
            data[i] as f64
        }
        CExpr::Bin(op, a, b) => {
            let (x, y) = (eval_cexpr(a, data), eval_cexpr(b, data));
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => ((x as i64) / (y as i64)) as f64,
                BinOp::Mod => ((x as i64) % (y as i64)) as f64,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::Lt => (x < y) as i64 as f64,
                BinOp::Le => (x <= y) as i64 as f64,
                BinOp::Gt => (x > y) as i64 as f64,
                BinOp::Ge => (x >= y) as i64 as f64,
                BinOp::Eq => (x == y) as i64 as f64,
                BinOp::Ne => (x != y) as i64 as f64,
                BinOp::And => ((x != 0.0) && (y != 0.0)) as i64 as f64,
                BinOp::Or => ((x != 0.0) || (y != 0.0)) as i64 as f64,
            }
        }
        CExpr::Select { cond, then_, else_ } => {
            if eval_cexpr(cond, data) != 0.0 {
                eval_cexpr(then_, data)
            } else {
                eval_cexpr(else_, data)
            }
        }
        other => panic!("unexpected expression in view access: {other:?}"),
    }
}

/// Reads every element of `view` and compares it with `model`, returning
/// `false` (checking nothing) when the array is too large.
fn reads_like(view: &View, model: &Model, data: &[f32], what: &str) -> bool {
    let total: usize = model.shape.iter().product();
    if total > 4096 {
        return false;
    }
    for flat in 0..total {
        let access = view
            .read(&indices(flat, &model.shape))
            .expect("view resolves");
        let got = eval_cexpr(&access, data) as f32;
        assert_eq!(
            got, model.data[flat],
            "{what}: element {flat} of shape {:?}",
            model.shape
        );
    }
    true
}

/// Lazy view reads equal materialised semantics for random layout stacks
/// over random data. Ops that do not fit the current shape are skipped, as
/// `prop_assume!` did before.
#[test]
fn views_match_materialised_semantics() {
    let mut rng = Rng::new(0x5eed);
    let mut checked = 0usize;
    for case in 0..200 {
        let n = 4 + rng.below(8) as usize;
        let n_ops = rng.below(5) as usize;
        let seed = rng.below(1_000);
        let data: Vec<f32> = (0..n)
            .map(|i| ((i as u64 + 1).wrapping_mul(seed + 7) % 101) as f32)
            .collect();
        let model = Model {
            data: data.clone(),
            shape: vec![n],
        };
        let drawn: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let (view, model, ops) = stack(&drawn, mem(&[n]), model);
        if reads_like(&view, &model, &data, &format!("case {case} after {ops:?}")) {
            checked += 1;
        }
    }
    assert!(checked >= 150, "too few cases survived: {checked}");
}

/// The same agreement when layout stacks sit under (nested) layout `map`s:
/// reading element `i` of a [`View::Map`] fills its hole with element `i`
/// of the mapped view.
#[test]
fn layout_maps_read_like_materialised_maps() {
    let mut rng = Rng::new(0x4a11);
    let mut checked = 0usize;
    for case in 0..200 {
        let shape = vec![2 + rng.below(3) as usize, 4 + rng.below(6) as usize];
        let total: usize = shape.iter().product();
        let data: Vec<f32> = (0..total).map(|i| ((i * 37) % 101) as f32).collect();
        let model = Model {
            data: data.clone(),
            shape: shape.clone(),
        };
        let n_ops = 1 + rng.below(3);
        let mut drawn = vec![Op::Map(vec![random_nested_op(&mut rng, 2, false)])];
        drawn.extend((1..n_ops).map(|_| random_nested_op(&mut rng, 2, false)));
        let (view, model, ops) = stack(&drawn, mem(&shape), model);
        if reads_like(&view, &model, &data, &format!("case {case} after {ops:?}")) {
            checked += 1;
        }
    }
    assert!(checked >= 150, "too few cases survived: {checked}");
}

/// Writing every element of an array through the dual of a random
/// `join`/`split`/`transpose`/`map` stack stores it where the stack's
/// materialised layout puts it: the dual inverts the stack.
#[test]
fn duals_write_where_the_layout_puts_each_element() {
    let mut rng = Rng::new(0xd0a1);
    let (mut checked, mut mapped) = (0usize, 0usize);
    for case in 0..200 {
        // The producer's array: rank 1–3, element `i` (row-major) holds `i`.
        let rank = 1 + rng.below(3) as usize;
        let shape: Vec<usize> = (0..rank).map(|_| 2 + rng.below(3) as usize).collect();
        let total: usize = shape.iter().product();
        let produced = Model {
            data: (0..total).map(|i| i as f32).collect(),
            shape: shape.clone(),
        };
        let n_ops = 1 + rng.below(4);
        let drawn: Vec<Op> = (0..n_ops)
            .map(|_| random_nested_op(&mut rng, 2, true))
            .collect();
        let (layout, laid_out, ops) = stack(&drawn, View::Hole, produced);
        if ops.is_empty() {
            continue;
        }
        mapped += ops.iter().any(|op| matches!(op, Op::Map(_))) as usize;
        let dest = layout
            .dual(mem(&laid_out.shape))
            .expect("join/split/transpose/map stacks are writable");
        for flat in 0..total {
            match dest.write(&indices(flat, &shape), CExpr::Int(flat as i64)) {
                Ok(CStmt::Store { idx, .. }) => {
                    let at = eval_cexpr(&idx, &[]) as usize;
                    assert_eq!(
                        laid_out.data.get(at).copied(),
                        Some(flat as f32),
                        "case {case}: element {flat} of shape {shape:?} after {ops:?}"
                    );
                }
                other => panic!("case {case}: expected a store after {ops:?}, got {other:?}"),
            }
        }
        checked += 1;
    }
    // A rank-1 array admits only splits that divide it, so fewer cases
    // survive here than in the read tests.
    assert!(checked >= 120, "too few cases survived: {checked}");
    assert!(mapped >= 40, "too few cases wrote through a map: {mapped}");
}
