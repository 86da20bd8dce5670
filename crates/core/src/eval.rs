//! A reference interpreter for high-level Lift expressions.
//!
//! This is the *semantic oracle* of the project: slow, obviously-correct,
//! materialising denotational semantics for every primitive. It is used to
//!
//! * validate that rewrite rules preserve semantics (property tests pitting
//!   `eval(lhs)` against `eval(rhs)` on random inputs), and
//! * cross-check the OpenCL code generator + virtual device against an
//!   independent executable meaning of the same program.
//!
//! Unlike the code generator it happily materialises `pad`, `slide` and
//! friends, and it ignores all lowering annotations (`mapGlb` ≡ `map`).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use lift_arith::{ArithExpr, Bindings};

use crate::expr::{Expr, FunDecl};
use crate::pattern::{Pattern, ReduceKind};
use crate::scalar::Scalar;
use crate::types::Type;
use crate::userfun::IndexFault;

/// A fully materialised runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum DataValue {
    /// A scalar.
    Scalar(Scalar),
    /// An array of values.
    Array(Vec<DataValue>),
    /// A tuple of values.
    Tuple(Vec<DataValue>),
}

impl DataValue {
    /// Builds a 1D float array.
    pub fn from_f32s(v: impl IntoIterator<Item = f32>) -> DataValue {
        DataValue::Array(
            v.into_iter()
                .map(|x| DataValue::Scalar(Scalar::F32(x)))
                .collect(),
        )
    }

    /// Builds a row-major 2D float array.
    pub fn from_f32s_2d(data: &[f32], rows: usize, cols: usize) -> DataValue {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        DataValue::Array(
            (0..rows)
                .map(|r| DataValue::from_f32s(data[r * cols..(r + 1) * cols].iter().copied()))
                .collect(),
        )
    }

    /// Builds a row-major 3D float array (`z` outermost).
    pub fn from_f32s_3d(data: &[f32], z: usize, y: usize, x: usize) -> DataValue {
        assert_eq!(data.len(), z * y * x, "shape mismatch");
        DataValue::Array(
            (0..z)
                .map(|k| DataValue::from_f32s_2d(&data[k * y * x..(k + 1) * y * x], y, x))
                .collect(),
        )
    }

    /// Flattens to a row-major float vector.
    ///
    /// # Panics
    ///
    /// Panics on non-f32 leaves (use only on float data).
    pub fn flatten_f32(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.collect_f32(&mut out);
        out
    }

    fn collect_f32(&self, out: &mut Vec<f32>) {
        match self {
            DataValue::Scalar(s) => out.push(s.as_f32()),
            DataValue::Array(v) | DataValue::Tuple(v) => {
                for x in v {
                    x.collect_f32(out);
                }
            }
        }
    }

    fn as_array(&self) -> Result<&[DataValue], EvalError> {
        match self {
            DataValue::Array(v) => Ok(v),
            other => Err(EvalError::new(format!("expected array, got {other:?}"))),
        }
    }

    fn as_scalar(&self) -> Result<Scalar, EvalError> {
        match self {
            DataValue::Scalar(s) => Ok(*s),
            other => Err(EvalError::new(format!("expected scalar, got {other:?}"))),
        }
    }
}

/// An evaluation failure (ill-formed program or environment).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    msg: String,
}

impl EvalError {
    fn new(msg: impl Into<String>) -> Self {
        EvalError { msg: msg.into() }
    }

    /// The diagnostic message.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.msg)
    }
}

impl Error for EvalError {}

impl From<IndexFault> for EvalError {
    fn from(f: IndexFault) -> Self {
        EvalError::new(f.to_string())
    }
}

fn cst(e: &ArithExpr) -> Result<i64, EvalError> {
    e.eval(&Bindings::new())
        .map_err(|err| EvalError::new(format!("size `{e}` not concrete: {err}")))
}

/// Evaluates a top-level unary (or n-ary) lambda on argument values.
///
/// All array sizes must be concrete (substitute first if needed).
///
/// # Errors
///
/// Fails on arity mismatches, non-concrete sizes and ill-formed data.
pub fn eval_fun(f: &FunDecl, args: &[DataValue]) -> Result<DataValue, EvalError> {
    let mut env = HashMap::new();
    apply(f, args, &mut env)
}

type Env = HashMap<u32, DataValue>;

fn eval_expr(e: &Expr, env: &mut Env) -> Result<DataValue, EvalError> {
    match e {
        Expr::Param(p) => env
            .get(&p.id())
            .cloned()
            .ok_or_else(|| EvalError::new(format!("unbound parameter `{}`", p.name()))),
        Expr::Literal(s) => Ok(DataValue::Scalar(*s)),
        Expr::Apply(app) => {
            let args: Result<Vec<DataValue>, EvalError> =
                app.args.iter().map(|a| eval_expr(a, env)).collect();
            apply(&app.fun, &args?, env)
        }
    }
}

fn apply(f: &FunDecl, args: &[DataValue], env: &mut Env) -> Result<DataValue, EvalError> {
    match f {
        FunDecl::Lambda(l) => {
            if l.params.len() != args.len() {
                return Err(EvalError::new(format!(
                    "lambda of {} params applied to {} args",
                    l.params.len(),
                    args.len()
                )));
            }
            for (p, a) in l.params.iter().zip(args) {
                env.insert(p.id(), a.clone());
            }
            eval_expr(&l.body, env)
        }
        FunDecl::UserFun(u) => {
            let scalars: Result<Vec<Scalar>, EvalError> =
                args.iter().map(DataValue::as_scalar).collect();
            Ok(DataValue::Scalar(u.call(&scalars?)?))
        }
        FunDecl::Pattern(p) => apply_pattern(p, args, env),
    }
}

fn apply_pattern(p: &Pattern, args: &[DataValue], env: &mut Env) -> Result<DataValue, EvalError> {
    match p {
        Pattern::Id => Ok(args[0].clone()),
        Pattern::Map { f, .. } => {
            let xs = args[0].as_array()?.to_vec();
            let mut out = Vec::with_capacity(xs.len());
            for x in xs {
                out.push(apply(f, &[x], env)?);
            }
            Ok(DataValue::Array(out))
        }
        Pattern::Reduce { f, kind } => {
            let _ = matches!(
                kind,
                ReduceKind::Par | ReduceKind::Seq | ReduceKind::SeqUnroll
            );
            let mut acc = args[0].clone();
            for x in args[1].as_array()? {
                acc = apply(f, &[acc, x.clone()], env)?;
            }
            Ok(acc)
        }
        Pattern::Zip { arity } => {
            let arrays: Result<Vec<&[DataValue]>, EvalError> =
                args.iter().map(|a| a.as_array()).collect();
            let arrays = arrays?;
            let n = arrays[0].len();
            if arrays.iter().any(|a| a.len() != n) {
                return Err(EvalError::new("zip of unequal lengths"));
            }
            let _ = arity;
            Ok(DataValue::Array(
                (0..n)
                    .map(|i| DataValue::Tuple(arrays.iter().map(|a| a[i].clone()).collect()))
                    .collect(),
            ))
        }
        Pattern::Split { chunk } => {
            let xs = args[0].as_array()?;
            let m = cst(chunk)? as usize;
            if m == 0 || xs.len() % m != 0 {
                return Err(EvalError::new(format!(
                    "split({m}) of array of length {}",
                    xs.len()
                )));
            }
            Ok(DataValue::Array(
                xs.chunks(m).map(|c| DataValue::Array(c.to_vec())).collect(),
            ))
        }
        Pattern::Join => {
            let xs = args[0].as_array()?;
            let mut out = Vec::new();
            for x in xs {
                out.extend(x.as_array()?.iter().cloned());
            }
            Ok(DataValue::Array(out))
        }
        Pattern::Transpose => {
            let xs = args[0].as_array()?;
            if xs.is_empty() {
                return Ok(DataValue::Array(Vec::new()));
            }
            let inner = xs[0].as_array()?.len();
            let mut out = vec![Vec::with_capacity(xs.len()); inner];
            for row in xs {
                let row = row.as_array()?;
                if row.len() != inner {
                    return Err(EvalError::new("transpose of ragged array"));
                }
                for (j, v) in row.iter().enumerate() {
                    out[j].push(v.clone());
                }
            }
            Ok(DataValue::Array(
                out.into_iter().map(DataValue::Array).collect(),
            ))
        }
        Pattern::Slide { size, step } => {
            let xs = args[0].as_array()?;
            let (size, step) = (cst(size)? as usize, cst(step)? as usize);
            if step == 0 || size == 0 {
                return Err(EvalError::new("slide with zero size/step"));
            }
            if xs.len() < size {
                return Err(EvalError::new(format!(
                    "slide({size}, {step}) of array of length {}",
                    xs.len()
                )));
            }
            let count = (xs.len() - size) / step + 1;
            Ok(DataValue::Array(
                (0..count)
                    .map(|i| DataValue::Array(xs[i * step..i * step + size].to_vec()))
                    .collect(),
            ))
        }
        Pattern::Pad {
            left,
            right,
            boundary,
        } => {
            let xs = args[0].as_array()?;
            let (l, r) = (cst(left)?, cst(right)?);
            let n = xs.len() as i64;
            let mut out = Vec::with_capacity((l + n + r) as usize);
            for i in -l..n + r {
                out.push(xs[boundary.reindex(i, n) as usize].clone());
            }
            Ok(DataValue::Array(out))
        }
        Pattern::PadValue { left, right, value } => {
            let xs = args[0].as_array()?;
            let (l, r) = (cst(left)? as usize, cst(right)? as usize);
            let filler = fill_like(
                &xs.first().cloned().unwrap_or(DataValue::Scalar(*value)),
                *value,
            );
            let mut out = Vec::with_capacity(l + xs.len() + r);
            out.extend(std::iter::repeat_n(filler.clone(), l));
            out.extend(xs.iter().cloned());
            out.extend(std::iter::repeat_n(filler, r));
            Ok(DataValue::Array(out))
        }
        Pattern::At { index } => {
            let xs = args[0].as_array()?;
            let i = cst(index)? as usize;
            xs.get(i)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("at({i}) out of bounds ({})", xs.len())))
        }
        Pattern::Get { index } => match &args[0] {
            DataValue::Tuple(ts) => ts
                .get(*index)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("get({index}) out of bounds"))),
            other => Err(EvalError::new(format!("get on non-tuple {other:?}"))),
        },
        Pattern::ArrayGen { fun, sizes } => {
            let sizes: Result<Vec<i64>, EvalError> = sizes.iter().map(cst).collect();
            let sizes = sizes?;
            gen_array(fun, &sizes, &mut Vec::new())
        }
        Pattern::Iterate { times, f } => {
            let mut v = args[0].clone();
            for _ in 0..cst(times)? {
                v = apply(f, &[v], env)?;
            }
            Ok(v)
        }
        Pattern::ToLocal { f } | Pattern::ToGlobal { f } | Pattern::ToPrivate { f } => {
            apply(f, args, env)
        }
    }
}

/// A value with the same nesting as `template` but every leaf = `value`.
fn fill_like(template: &DataValue, value: Scalar) -> DataValue {
    match template {
        DataValue::Scalar(_) => DataValue::Scalar(value),
        DataValue::Array(v) => DataValue::Array(v.iter().map(|x| fill_like(x, value)).collect()),
        DataValue::Tuple(v) => DataValue::Tuple(v.iter().map(|x| fill_like(x, value)).collect()),
    }
}

fn gen_array(
    fun: &std::sync::Arc<crate::userfun::UserFun>,
    sizes: &[i64],
    idxs: &mut Vec<i64>,
) -> Result<DataValue, EvalError> {
    if idxs.len() == sizes.len() {
        let mut args: Vec<Scalar> = idxs.iter().map(|i| Scalar::I32(*i as i32)).collect();
        args.extend(sizes.iter().map(|s| Scalar::I32(*s as i32)));
        return Ok(DataValue::Scalar(fun.call(&args)?));
    }
    let n = sizes[idxs.len()];
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        idxs.push(i);
        out.push(gen_array(fun, sizes, idxs)?);
        idxs.pop();
    }
    Ok(DataValue::Array(out))
}

/// Builds a [`DataValue`] of zeros shaped like `ty` (sizes concrete).
///
/// # Errors
///
/// Fails on non-concrete sizes.
pub fn zero_of_type(ty: &Type) -> Result<DataValue, EvalError> {
    match ty {
        Type::Scalar(k) => Ok(DataValue::Scalar(match k {
            crate::scalar::ScalarKind::F32 => Scalar::F32(0.0),
            crate::scalar::ScalarKind::I32 => Scalar::I32(0),
            crate::scalar::ScalarKind::Bool => Scalar::Bool(false),
        })),
        Type::Tuple(ts) => Ok(DataValue::Tuple(
            ts.iter().map(zero_of_type).collect::<Result<_, _>>()?,
        )),
        Type::Array(elem, n) => {
            let n = cst(n)? as usize;
            let e = zero_of_type(elem)?;
            Ok(DataValue::Array(vec![e; n]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::ndim::{pad2, slide2};
    use crate::pattern::Boundary;
    use crate::userfun::add_f32;

    #[test]
    fn listing2_semantics() {
        let prog = lam(Type::array(Type::f32(), 5), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), nbh)
            });
            map(sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        });
        let input = DataValue::from_f32s([1.0, 2.0, 3.0, 4.0, 5.0]);
        let out = eval_fun(&prog, &[input]).unwrap();
        // clamp-padded: [1,1,2,3,4,5,5]; sums of 3: 4, 6, 9, 12, 14.
        assert_eq!(out.flatten_f32(), vec![4.0, 6.0, 9.0, 12.0, 14.0]);
    }

    #[test]
    fn paper_pad2_example() {
        // §3.4: pad2(1,1,clamp, [[a,b],[c,d]]) doubles every border.
        let prog = lam(Type::array_2d(Type::f32(), 2, 2), |g| {
            pad2(1, 1, Boundary::Clamp, g)
        });
        let input = DataValue::from_f32s_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let out = eval_fun(&prog, &[input]).unwrap();
        assert_eq!(
            out.flatten_f32(),
            vec![
                1.0, 1.0, 2.0, 2.0, //
                1.0, 1.0, 2.0, 2.0, //
                3.0, 3.0, 4.0, 4.0, //
                3.0, 3.0, 4.0, 4.0,
            ]
        );
    }

    #[test]
    fn paper_slide2_example() {
        // §3.4: slide2(2,1) over [[a,b,c],[d,e,f],[g,h,i]] yields four 2×2
        // neighbourhoods [[a,b],[d,e]], [[b,c],[e,f]], [[d,e],[g,h]],
        // [[e,f],[h,i]].
        let prog = lam(Type::array_2d(Type::f32(), 3, 3), |g| slide2(2, 1, g));
        let input = DataValue::from_f32s_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 3, 3);
        let out = eval_fun(&prog, &[input]).unwrap();
        assert_eq!(
            out.flatten_f32(),
            vec![
                1.0, 2.0, 4.0, 5.0, // window (0,0)
                2.0, 3.0, 5.0, 6.0, // window (0,1)
                4.0, 5.0, 7.0, 8.0, // window (1,0)
                5.0, 6.0, 8.0, 9.0, // window (1,1)
            ]
        );
    }

    #[test]
    fn split_join_roundtrip() {
        let prog = lam(Type::array(Type::f32(), 6), |a| join(split(2, a)));
        let input = DataValue::from_f32s([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = eval_fun(&prog, std::slice::from_ref(&input)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn pad_value_fills_subarrays() {
        // padValue on the outer dim of a 2D array fills whole rows.
        let prog = lam(Type::array_2d(Type::f32(), 2, 3), |g| {
            pad_value(1, 0, 7.0f32, g)
        });
        let input = DataValue::from_f32s_2d(&[1.0; 6], 2, 3);
        let out = eval_fun(&prog, &[input]).unwrap();
        assert_eq!(
            out.flatten_f32(),
            vec![7.0, 7.0, 7.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        );
    }

    #[test]
    fn iterate_applies_repeatedly() {
        let double = lam(Type::array(Type::f32(), 2), |a| {
            map(lam(Type::f32(), |x| call(&add_f32(), [x.clone(), x])), a)
        });
        let prog = lam(Type::array(Type::f32(), 2), |a| iterate(3, double, a));
        let input = DataValue::from_f32s([1.0, 2.0]);
        let out = eval_fun(&prog, &[input]).unwrap();
        assert_eq!(out.flatten_f32(), vec![8.0, 16.0]);
    }

    #[test]
    fn mirror_and_wrap_pad() {
        let p_mirror = lam(Type::array(Type::f32(), 3), |a| {
            pad(2, 2, Boundary::Mirror, a)
        });
        let input = DataValue::from_f32s([1.0, 2.0, 3.0]);
        let out = eval_fun(&p_mirror, std::slice::from_ref(&input)).unwrap();
        assert_eq!(out.flatten_f32(), vec![2.0, 1.0, 1.0, 2.0, 3.0, 3.0, 2.0]);

        let p_wrap = lam(Type::array(Type::f32(), 3), |a| {
            pad(1, 1, Boundary::Wrap, a)
        });
        let out = eval_fun(&p_wrap, &[input]).unwrap();
        assert_eq!(out.flatten_f32(), vec![3.0, 1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn errors_are_reported() {
        let prog = lam(Type::array(Type::f32(), 5), |a| split(2, a));
        let input = DataValue::from_f32s([0.0; 5]);
        let err = eval_fun(&prog, &[input]).unwrap_err();
        assert!(err.message().contains("split"));
    }
}
