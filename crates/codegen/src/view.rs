//! The view system: compile-time data-layout transformations (§5).
//!
//! A [`View`] denotes an n-dimensional array *as a function from indices to
//! element expressions*. The layout primitives (`pad`, `slide`, `split`,
//! `join`, `transpose`, `zip`, `get`, `at`, `array`) each add one node: no
//! data ever moves until a scalar leaf is [`read`](View::read) — which emits
//! the final load expression with all index arithmetic folded in — or
//! [`written`](View::write).
//!
//! A layout-only `map(f)` is a view too. [`View::Map`] holds `f`'s result as
//! a view of a [`View::Hole`], the element `f` is applied to. Reading
//! element `i` fills the hole with element `i` of the mapped view; a nested
//! map's element view keeps its own hole.
//!
//! Writes share the index algebra. A producer whose result a layout view of
//! the hole rearranges writes through that view's [`dual`](View::dual):
//! `join` ↔ `split`, while `transpose` and `map` invert in place. Views that
//! duplicate elements (`slide`, `pad`) are read-only; attempting to write
//! through them is a compiler error caught by [`View::write`] and
//! [`View::dual`].

use std::sync::Arc;

use lift_core::pattern::Boundary;
use lift_core::scalar::Scalar;
use lift_core::userfun::UserFun;

use crate::clike::{AddressSpace, BinOp, CExpr, CStmt, VarRef};

/// A lazily-indexed array (or tuple-of-arrays) description.
#[derive(Debug, Clone)]
pub enum View {
    /// A linear buffer in memory holding a row-major array of shape `shape`.
    Mem {
        /// The buffer variable.
        buf: VarRef,
        /// Its address space.
        space: AddressSpace,
        /// Row-major dimension sizes, outermost first.
        shape: Vec<usize>,
    },
    /// A generated array: element `(i…)` is `fun(i…, sizes…)` (§3.5's
    /// `array` primitive).
    Gen {
        /// The generator function.
        fun: Arc<UserFun>,
        /// The generated shape.
        sizes: Vec<usize>,
    },
    /// Partial application of the outermost index (a `map` binding its
    /// element, or `at(i)`).
    Fixed {
        /// The applied index.
        index: CExpr,
        /// The underlying view.
        base: Box<View>,
    },
    /// `pad(l, r, h)` applied to the outermost dimension of `base` (which
    /// has size `n` there).
    Pad {
        /// Left padding amount.
        left: usize,
        /// Size of the unpadded dimension.
        n: usize,
        /// Re-indexing function.
        boundary: Boundary,
        /// The underlying view.
        base: Box<View>,
    },
    /// `padValue(l, r, c)` on the outermost dimension.
    PadValue {
        /// Left padding amount.
        left: usize,
        /// Size of the unpadded dimension.
        n: usize,
        /// Constant produced out of bounds.
        value: Scalar,
        /// The underlying view.
        base: Box<View>,
    },
    /// `slide(size, step)`: element `(i, j, rest…)` maps to
    /// `(i·step + j, rest…)` of `base`.
    Slide {
        /// Window step.
        step: usize,
        /// The underlying view.
        base: Box<View>,
    },
    /// `split(m)`: `(i, j, rest…) ↦ (i·m + j, rest…)`.
    Split {
        /// Chunk size `m`.
        chunk: usize,
        /// The underlying view.
        base: Box<View>,
    },
    /// `join` of inner size `m`: `(i, rest…) ↦ (i/m, i%m, rest…)`.
    Join {
        /// Inner dimension size `m`.
        inner: usize,
        /// The underlying view.
        base: Box<View>,
    },
    /// `transpose`: `(i, j, rest…) ↦ (j, i, rest…)`.
    Transpose {
        /// The underlying view.
        base: Box<View>,
    },
    /// `zip`: an array of tuples; component `c` element `(i…)` is
    /// `components[c]` element `(i…)`.
    Zip {
        /// The zipped views (equal shapes).
        components: Vec<View>,
    },
    /// `get(c)` on a tuple(-array) view.
    Get {
        /// Selected component.
        index: usize,
        /// The tuple-producing view.
        base: Box<View>,
    },
    /// A layout-only `map`: element `i` is `elem` with its hole filled by
    /// `Fixed { i, base }` (how `map(transpose)`, `map(slide)` and the
    /// n-dimensional combinators compile — no loops, no data movement).
    /// Element `i` is written through `elem.dual(Fixed { i, base })`.
    Map {
        /// The mapped function's result, as a view of [`View::Hole`].
        elem: Arc<View>,
        /// The mapped view.
        base: Box<View>,
    },
    /// The element a [`View::Map`]'s `elem` is a view of.
    Hole,
}

/// What a [`View::Hole`] stands for while an element of a [`View::Map`] is
/// read: `Fixed { index, base }`, where the holes of `base` are `outer`.
struct Fill<'a> {
    index: &'a CExpr,
    base: &'a View,
    outer: Option<&'a Fill<'a>>,
}

/// Failure to resolve a view access (always a compiler bug or an unsupported
/// program shape, reported as [`crate::CodegenError`] by the compiler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewError(pub String);

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "view error: {}", self.0)
    }
}

impl std::error::Error for ViewError {}

fn reindex(boundary: Boundary, i: CExpr, left: usize, n: usize) -> CExpr {
    let shifted = CExpr::sub(i, CExpr::Int(left as i64));
    match boundary {
        Boundary::Clamp => CExpr::min(CExpr::max(shifted, CExpr::Int(0)), CExpr::Int(n as i64 - 1)),
        Boundary::Mirror => {
            // m = (i-l) mod 2n; m < n ? m : 2n-1-m   (see Boundary::reindex)
            let two_n = CExpr::Int(2 * n as i64);
            // C `%` is not Euclidean for negatives: add 2n first. The shifted
            // index is ≥ -left ≥ -n in well-formed programs.
            let m = CExpr::rem(CExpr::add(shifted, two_n.clone()), two_n);
            CExpr::Select {
                cond: Box::new(CExpr::Bin(
                    BinOp::Lt,
                    Box::new(m.clone()),
                    Box::new(CExpr::Int(n as i64)),
                )),
                then_: Box::new(m.clone()),
                else_: Box::new(CExpr::sub(CExpr::Int(2 * n as i64 - 1), m)),
            }
        }
        Boundary::Wrap => {
            let nn = CExpr::Int(n as i64);
            CExpr::rem(CExpr::add(shifted, nn.clone()), nn)
        }
    }
}

impl View {
    /// Reads the scalar element at `indices` (outermost first), emitting the
    /// fully-folded access expression.
    ///
    /// # Errors
    ///
    /// Fails if the index count does not exhaust the view's dimensions or a
    /// tuple component is accessed without a `get`.
    pub fn read(&self, indices: &[CExpr]) -> Result<CExpr, ViewError> {
        self.read_inner(None, indices, None)
    }

    /// Reads component `c` of the tuple element at `indices`, with the hole
    /// standing for `hole`.
    fn read_inner(
        &self,
        component: Option<usize>,
        idxs: &[CExpr],
        hole: Option<&Fill<'_>>,
    ) -> Result<CExpr, ViewError> {
        match self {
            View::Mem { buf, space, shape } => {
                if component.is_some() {
                    return Err(ViewError(
                        "tuple component access reached a raw memory view".into(),
                    ));
                }
                if idxs.len() != shape.len() {
                    return Err(ViewError(format!(
                        "memory view of {} dims read with {} indices",
                        shape.len(),
                        idxs.len()
                    )));
                }
                Ok(CExpr::Load {
                    buf: buf.clone(),
                    space: *space,
                    idx: Box::new(linearise(idxs, shape)),
                })
            }
            View::Gen { fun, sizes } => {
                if component.is_some() {
                    return Err(ViewError("tuple access on a generated array".into()));
                }
                if idxs.len() != sizes.len() {
                    return Err(ViewError(format!(
                        "generator of {} dims read with {} indices",
                        sizes.len(),
                        idxs.len()
                    )));
                }
                let mut args: Vec<CExpr> = idxs.to_vec();
                args.extend(sizes.iter().map(|s| CExpr::Int(*s as i64)));
                Ok(CExpr::Call(fun.clone(), args))
            }
            View::Fixed { index, base } => {
                let mut all = Vec::with_capacity(idxs.len() + 1);
                all.push(index.clone());
                all.extend_from_slice(idxs);
                base.read_inner(component, &all, hole)
            }
            View::Pad {
                left,
                n,
                boundary,
                base,
            } => {
                let (i, rest) = split_first(idxs)?;
                let mut all = vec![reindex(*boundary, i.clone(), *left, *n)];
                all.extend_from_slice(rest);
                base.read_inner(component, &all, hole)
            }
            View::PadValue {
                left,
                n,
                value,
                base,
            } => {
                let (i, rest) = split_first(idxs)?;
                let shifted = CExpr::sub(i.clone(), CExpr::Int(*left as i64));
                let mut all = vec![shifted.clone()];
                all.extend_from_slice(rest);
                // In-bounds test on the *padded* index.
                let cond = CExpr::Bin(
                    BinOp::And,
                    Box::new(CExpr::Bin(
                        BinOp::Ge,
                        Box::new(i.clone()),
                        Box::new(CExpr::Int(*left as i64)),
                    )),
                    Box::new(CExpr::Bin(
                        BinOp::Lt,
                        Box::new(i.clone()),
                        Box::new(CExpr::Int((*left + *n) as i64)),
                    )),
                );
                // Elide the select when the index is a constant we can decide.
                if let Some(ci) = i.as_int() {
                    return if ci >= *left as i64 && ci < (*left + *n) as i64 {
                        base.read_inner(component, &all, hole)
                    } else {
                        Ok(CExpr::scalar(*value))
                    };
                }
                Ok(CExpr::Select {
                    cond: Box::new(cond),
                    then_: Box::new(base.read_inner(component, &all, hole)?),
                    else_: Box::new(CExpr::scalar(*value)),
                })
            }
            View::Slide { step, base } => {
                let (i, rest) = split_two(idxs)?;
                let mut all = vec![CExpr::add(
                    CExpr::mul(i.0.clone(), CExpr::Int(*step as i64)),
                    i.1.clone(),
                )];
                all.extend_from_slice(rest);
                base.read_inner(component, &all, hole)
            }
            View::Split { chunk, base } => {
                let (i, rest) = split_two(idxs)?;
                let mut all = vec![CExpr::add(
                    CExpr::mul(i.0.clone(), CExpr::Int(*chunk as i64)),
                    i.1.clone(),
                )];
                all.extend_from_slice(rest);
                base.read_inner(component, &all, hole)
            }
            View::Join { inner, base } => {
                let (i, rest) = split_first(idxs)?;
                let m = CExpr::Int(*inner as i64);
                let mut all = vec![CExpr::div(i.clone(), m.clone()), CExpr::rem(i.clone(), m)];
                all.extend_from_slice(rest);
                base.read_inner(component, &all, hole)
            }
            View::Transpose { base } => {
                let (i, rest) = split_two(idxs)?;
                let mut all = vec![i.1.clone(), i.0.clone()];
                all.extend_from_slice(rest);
                base.read_inner(component, &all, hole)
            }
            View::Zip { components } => {
                let c = component.ok_or_else(|| {
                    ViewError("zip element read without a tuple component (missing get)".into())
                })?;
                let v = components.get(c).ok_or_else(|| {
                    ViewError(format!(
                        "get({c}) out of bounds for zip of {} views",
                        components.len()
                    ))
                })?;
                v.read_inner(None, idxs, hole)
            }
            View::Get { index, base } => {
                if component.is_some() {
                    return Err(ViewError("nested tuple-of-tuple access unsupported".into()));
                }
                base.read_inner(Some(*index), idxs, hole)
            }
            View::Map { elem, base } => {
                let (index, rest) = split_first(idxs)?;
                let fill = Fill {
                    index,
                    base,
                    outer: hole,
                };
                elem.read_inner(component, rest, Some(&fill))
            }
            View::Hole => {
                let fill = hole.ok_or_else(|| ViewError("read of an unfilled hole".into()))?;
                let mut all = Vec::with_capacity(idxs.len() + 1);
                all.push(fill.index.clone());
                all.extend_from_slice(idxs);
                fill.base.read_inner(component, &all, fill.outer)
            }
        }
    }

    /// Emits the store of `value` at `indices`.
    ///
    /// # Errors
    ///
    /// Fails when the write path contains element-duplicating views
    /// (`slide`, `pad`), tuples, or generators — those are read-only.
    pub fn write(&self, indices: &[CExpr], value: CExpr) -> Result<CStmt, ViewError> {
        match self {
            View::Mem { buf, space, shape } => {
                if indices.len() != shape.len() {
                    return Err(ViewError(format!(
                        "memory view of {} dims written with {} indices",
                        shape.len(),
                        indices.len()
                    )));
                }
                Ok(CStmt::Store {
                    buf: buf.clone(),
                    space: *space,
                    idx: linearise(indices, shape),
                    value,
                })
            }
            View::Fixed { index, base } => {
                let mut all = Vec::with_capacity(indices.len() + 1);
                all.push(index.clone());
                all.extend_from_slice(indices);
                base.write(&all, value)
            }
            View::Split { chunk, base } => {
                let (i, rest) = split_two(indices)?;
                let mut all = vec![CExpr::add(
                    CExpr::mul(i.0.clone(), CExpr::Int(*chunk as i64)),
                    i.1.clone(),
                )];
                all.extend_from_slice(rest);
                base.write(&all, value)
            }
            View::Join { inner, base } => {
                let (i, rest) = split_first(indices)?;
                let m = CExpr::Int(*inner as i64);
                let mut all = vec![CExpr::div(i.clone(), m.clone()), CExpr::rem(i.clone(), m)];
                all.extend_from_slice(rest);
                base.write(&all, value)
            }
            View::Transpose { base } => {
                let (i, rest) = split_two(indices)?;
                let mut all = vec![i.1.clone(), i.0.clone()];
                all.extend_from_slice(rest);
                base.write(&all, value)
            }
            View::Map { elem, base } => {
                let (i, rest) = split_first(indices)?;
                let dest = View::Fixed {
                    index: i.clone(),
                    base: base.clone(),
                };
                elem.dual(dest)?.write(rest, value)
            }
            other => Err(unwritable(other)),
        }
    }

    /// The write side of `self`, a layout view of the hole: the view through
    /// which the hole's producer writes so that `self` lands in `dest`.
    /// `join` ↔ `split`, while `transpose` and `map` invert in place.
    ///
    /// # Errors
    ///
    /// Fails on views with no write-side meaning (`slide`, `pad`, `zip`,
    /// `get`, …).
    pub fn dual(&self, dest: View) -> Result<View, ViewError> {
        let dest = Box::new(dest);
        let (base, inverse) = match self {
            View::Hole => return Ok(*dest),
            View::Join { inner, base } => (
                base,
                View::Split {
                    chunk: *inner,
                    base: dest,
                },
            ),
            View::Split { chunk, base } => (
                base,
                View::Join {
                    inner: *chunk,
                    base: dest,
                },
            ),
            View::Transpose { base } => (base, View::Transpose { base: dest }),
            View::Map { elem, base } => (
                base,
                View::Map {
                    elem: elem.clone(),
                    base: dest,
                },
            ),
            other => return Err(unwritable(other)),
        };
        base.dual(inverse)
    }
}

fn unwritable(v: &View) -> ViewError {
    ViewError(format!("cannot write through a {} view", view_kind_name(v)))
}

fn view_kind_name(v: &View) -> &'static str {
    match v {
        View::Mem { .. } => "memory",
        View::Gen { .. } => "generator",
        View::Fixed { .. } => "fixed-index",
        View::Pad { .. } => "pad",
        View::PadValue { .. } => "padValue",
        View::Slide { .. } => "slide",
        View::Split { .. } => "split",
        View::Join { .. } => "join",
        View::Transpose { .. } => "transpose",
        View::Zip { .. } => "zip",
        View::Get { .. } => "get",
        View::Map { .. } => "layout-map",
        View::Hole => "hole",
    }
}

fn split_first(idxs: &[CExpr]) -> Result<(&CExpr, &[CExpr]), ViewError> {
    idxs.split_first()
        .ok_or_else(|| ViewError("view access ran out of indices".into()))
}

fn split_two(idxs: &[CExpr]) -> Result<((&CExpr, &CExpr), &[CExpr]), ViewError> {
    match idxs {
        [a, b, rest @ ..] => Ok(((a, b), rest)),
        _ => Err(ViewError(
            "view access needs two indices at this node".into(),
        )),
    }
}

/// Row-major linearisation `((i0·d1 + i1)·d2 + i2)…`.
fn linearise(idxs: &[CExpr], shape: &[usize]) -> CExpr {
    let mut acc = idxs[0].clone();
    for (i, d) in idxs.iter().zip(shape).skip(1) {
        acc = CExpr::add(CExpr::mul(acc, CExpr::Int(*d as i64)), i.clone());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(shape: &[usize]) -> View {
        View::Mem {
            buf: VarRef::fresh("A"),
            space: AddressSpace::Global,
            shape: shape.to_vec(),
        }
    }

    fn idx(i: i64) -> CExpr {
        CExpr::Int(i)
    }

    fn read_linear(v: &View, idxs: &[i64]) -> i64 {
        let idxs: Vec<CExpr> = idxs.iter().map(|i| idx(*i)).collect();
        match v.read(&idxs).expect("read resolves") {
            CExpr::Load { idx, .. } => idx.as_int().expect("constant index"),
            other => panic!("expected a load, got {other:?}"),
        }
    }

    #[test]
    fn mem_row_major() {
        let v = mem(&[4, 8]);
        assert_eq!(read_linear(&v, &[0, 0]), 0);
        assert_eq!(read_linear(&v, &[0, 7]), 7);
        assert_eq!(read_linear(&v, &[1, 0]), 8);
        assert_eq!(read_linear(&v, &[3, 5]), 29);
    }

    #[test]
    fn slide_overlaps() {
        // slide(3, 1) over [T]_10: window i, offset j → i + j.
        let v = View::Slide {
            step: 1,
            base: Box::new(mem(&[10])),
        };
        assert_eq!(read_linear(&v, &[0, 0]), 0);
        assert_eq!(read_linear(&v, &[0, 2]), 2);
        assert_eq!(read_linear(&v, &[1, 1]), 2); // shared with previous window
        assert_eq!(read_linear(&v, &[7, 2]), 9);
    }

    #[test]
    fn pad_clamp_folds_constants() {
        // pad(1,1,clamp) over [T]_10, then read padded index 0 → clamp(-1)=0.
        let v = View::Pad {
            left: 1,
            n: 10,
            boundary: Boundary::Clamp,
            base: Box::new(mem(&[10])),
        };
        assert_eq!(read_linear(&v, &[0]), 0);
        assert_eq!(read_linear(&v, &[1]), 0);
        assert_eq!(read_linear(&v, &[11]), 9);
        assert_eq!(read_linear(&v, &[5]), 4);
    }

    #[test]
    fn pad_value_elides_select_on_constants() {
        let v = View::PadValue {
            left: 1,
            n: 4,
            value: Scalar::F32(9.0),
            base: Box::new(mem(&[4])),
        };
        // Out of bounds constant index → the constant itself, no select.
        let out = v.read(&[idx(0)]).expect("resolves");
        assert!(matches!(out, CExpr::Float(x) if x == 9.0));
        // In bounds → plain load.
        let inb = v.read(&[idx(2)]).expect("resolves");
        assert!(matches!(inb, CExpr::Load { .. }));
    }

    #[test]
    fn split_join_inverse() {
        // join(split(4, A)) reads linearly.
        let v = View::Join {
            inner: 4,
            base: Box::new(View::Split {
                chunk: 4,
                base: Box::new(mem(&[16])),
            }),
        };
        for i in 0..16 {
            assert_eq!(read_linear(&v, &[i]), i);
        }
    }

    #[test]
    fn transpose_swaps() {
        let v = View::Transpose {
            base: Box::new(mem(&[4, 8])),
        };
        // transposed[ i ][ j ] = base[ j ][ i ]
        assert_eq!(read_linear(&v, &[5, 2]), 2 * 8 + 5);
    }

    #[test]
    fn zip_get_selects_component() {
        let a = mem(&[8]);
        let b = mem(&[8]);
        let b_buf = match &b {
            View::Mem { buf, .. } => buf.clone(),
            _ => unreachable!(),
        };
        let v = View::Get {
            index: 1,
            base: Box::new(View::Fixed {
                index: idx(3),
                base: Box::new(View::Zip {
                    components: vec![a, b],
                }),
            }),
        };
        match v.read(&[]).expect("resolves") {
            CExpr::Load { buf, idx, .. } => {
                assert_eq!(buf, b_buf);
                assert_eq!(idx.as_int(), Some(3));
            }
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn zip_without_get_errors() {
        let v = View::Fixed {
            index: idx(0),
            base: Box::new(View::Zip {
                components: vec![mem(&[4]), mem(&[4])],
            }),
        };
        assert!(v.read(&[]).is_err());
    }

    #[test]
    fn write_through_slide_rejected() {
        let v = View::Slide {
            step: 1,
            base: Box::new(mem(&[10])),
        };
        let err = v.write(&[idx(0), idx(0)], CExpr::Float(1.0)).unwrap_err();
        assert!(err.0.contains("slide"));
    }

    #[test]
    fn write_through_split_matches_read() {
        // Writing join output: out'[i][j] = out[i*4+j].
        let v = View::Split {
            chunk: 4,
            base: Box::new(mem(&[16])),
        };
        match v.write(&[idx(2), idx(3)], CExpr::Float(0.0)).expect("ok") {
            CStmt::Store { idx, .. } => assert_eq!(idx.as_int(), Some(11)),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn mirror_and_wrap_generate_index_math() {
        for b in [Boundary::Mirror, Boundary::Wrap] {
            let v = View::Pad {
                left: 2,
                n: 10,
                boundary: b,
                base: Box::new(mem(&[10])),
            };
            // Symbolic index: expression must build without error.
            let i = CExpr::Var(VarRef::fresh("i"));
            let out = v.read(&[i]).expect("resolves");
            assert!(!matches!(out, CExpr::Int(_)));
        }
    }

    #[test]
    fn wrong_index_count_errors() {
        let v = mem(&[4, 4]);
        assert!(v.read(&[idx(0)]).is_err());
        assert!(v.read(&[idx(0), idx(0), idx(0)]).is_err());
    }
}
