//! Derived n-dimensional combinators (§3.4 of the paper).
//!
//! Multi-dimensional stencils are expressed *by composition* of the 1D
//! primitives:
//!
//! * `map_n(f) = map_{n−1}(map(f))`,
//! * `pad_n(l, r, h) = map(pad_{n−1}(l, r, h)) ∘ pad(l, r, h)`,
//! * `slide_n = reorder ∘ slide ∘ map(slide_{n−1})`, where `reorder` is a
//!   combination of `map^d(transpose)` calls that moves the window
//!   dimensions innermost.
//!
//! The combinators need the argument's type to build intermediate lambdas,
//! so they infer it with the type checker.

use lift_arith::ArithExpr;

use crate::build::{get, lam, map, pad, pad_value};
use crate::expr::{Expr, FunDecl};
use crate::pattern::{Boundary, Pattern};
use crate::scalar::Scalar;
use crate::typecheck::typecheck;
use crate::types::Type;

/// Infers the element type of an array-typed expression.
///
/// # Panics
///
/// Panics if `e` is ill-typed or not an array — the n-dimensional builders
/// are compiler-construction tools, so this indicates a bug at the call
/// site, not a runtime input error.
fn elem_type(e: &Expr) -> Type {
    let ty = typecheck(e).unwrap_or_else(|err| panic!("ndim builder on ill-typed input: {err}"));
    match ty.as_array() {
        Some((elem, _)) => elem.clone(),
        None => panic!("ndim builder expects an array, got {ty}"),
    }
}

/// Applies the unary function `f` under `depth` nested `map`s.
///
/// `depth = 0` applies `f` directly; `depth = d` rewrites to
/// `map(λx. map_at_depth(d−1, f, x))`.
///
/// # Panics
///
/// Panics if the input is ill-typed for the requested depth.
pub fn map_at_depth(depth: usize, f: FunDecl, input: Expr) -> Expr {
    if depth == 0 {
        return Expr::apply(f, [input]);
    }
    let elem = elem_type(&input);
    map(lam(elem, |x| map_at_depth(depth - 1, f, x)), input)
}

/// `map_nd(rank, f) = map^rank(f)` — maps `f` over the elements of a
/// `rank`-dimensional array (ranks 1–3). [`map2`] and [`map3`] are the
/// fixed-rank spellings of this combinator.
///
/// # Panics
///
/// Panics on ranks outside 1–3 or if `input` is not (at least) a
/// `rank`-dimensional array.
pub fn map_nd(rank: usize, f: impl Into<FunDecl>, input: Expr) -> Expr {
    assert!((1..=3).contains(&rank), "map_nd supports ranks 1-3");
    if rank == 1 {
        return map(f, input);
    }
    map_at_depth(
        rank - 1,
        FunDecl::pattern(Pattern::Map {
            kind: crate::pattern::MapKind::Par,
            f: f.into(),
        }),
        input,
    )
}

/// `map2(f) = map(map(f))` — maps `f` over the elements of a 2D array.
///
/// # Panics
///
/// Panics if `input` is not (at least) a 2D array.
pub fn map2(f: impl Into<FunDecl>, input: Expr) -> Expr {
    map_nd(2, f, input)
}

/// `map3(f) = map(map(map(f)))`.
///
/// # Panics
///
/// Panics if `input` is not (at least) a 3D array.
pub fn map3(f: impl Into<FunDecl>, input: Expr) -> Expr {
    map_nd(3, f, input)
}

/// `pad_n = map(pad_{n−1}) ∘ pad`: applies the 1D padding `pad` to the
/// outermost dimension of a `rank`-dimensional array, then to every
/// dimension below it.
fn pad_nd(rank: usize, pad: &dyn Fn(Expr) -> Expr, input: Expr) -> Expr {
    let outer = pad(input);
    if rank == 1 {
        return outer;
    }
    let elem = elem_type(&outer);
    map(lam(elem, |x| pad_nd(rank - 1, pad, x)), outer)
}

/// `pad2(l, r, h) = map(pad(l, r, h)) ∘ pad(l, r, h)` — pads both dimensions
/// of a 2D array with the same boundary handling.
///
/// # Panics
///
/// Panics if `input` is not a 2D array.
pub fn pad2(
    l: impl Into<ArithExpr>,
    r: impl Into<ArithExpr>,
    boundary: Boundary,
    input: Expr,
) -> Expr {
    let (l, r) = (l.into(), r.into());
    pad_nd(2, &|x| pad(l.clone(), r.clone(), boundary, x), input)
}

/// `pad3(l, r, h)` — pads all three dimensions of a 3D array.
///
/// # Panics
///
/// Panics if `input` is not a 3D array.
pub fn pad3(
    l: impl Into<ArithExpr>,
    r: impl Into<ArithExpr>,
    boundary: Boundary,
    input: Expr,
) -> Expr {
    let (l, r) = (l.into(), r.into());
    pad_nd(3, &|x| pad(l.clone(), r.clone(), boundary, x), input)
}

/// `pad3` with a constant boundary value — as used by the acoustic
/// benchmark: `pad3(1, 1, 1, zero, grid)`.
///
/// # Panics
///
/// Panics if `input` is not a 3D array.
pub fn pad3_value(
    l: impl Into<ArithExpr>,
    r: impl Into<ArithExpr>,
    value: impl Into<Scalar>,
    input: Expr,
) -> Expr {
    let (l, r, v) = (l.into(), r.into(), value.into());
    pad_nd(3, &|x| pad_value(l.clone(), r.clone(), v, x), input)
}

/// The adjacent-swap schedule that sorts `order` ascending (bubble sort):
/// each emitted depth `d` stands for one `map_at_depth(d, transpose)`
/// swapping dimensions `d` and `d + 1`, applied in emission order.
pub fn adjacent_sort_depths(order: &mut [usize]) -> Vec<usize> {
    let mut depths = Vec::new();
    loop {
        let mut swapped = false;
        for i in 0..order.len().saturating_sub(1) {
            if order[i] > order[i + 1] {
                order.swap(i, i + 1);
                depths.push(i);
                swapped = true;
            }
        }
        if !swapped {
            return depths;
        }
    }
}

/// The transpose depths `slide_nd` emits (in application order) to move the
/// `rank` window dimensions innermost. Exposed so the stencil recogniser in
/// `lift-rewrite` can destructure the composition exactly as it was built.
pub fn slide_reorder_depths(rank: usize) -> Vec<usize> {
    // After sliding every dimension the order is interleaved
    // [g0 w0 g1 w1 …]; the target is [g0 … g_{r−1} w0 … w_{r−1}].
    let mut order: Vec<usize> = (0..rank).flat_map(|d| [d, rank + d]).collect();
    adjacent_sort_depths(&mut order)
}

/// `slide_nd(sizes, steps)` — creates `rank`-dimensional neighbourhoods
/// (ranks 1–3) with an independent window size and step *per dimension*
/// (outermost first): every dimension is slid innermost-first and the
/// resulting `2·rank` dimensions are re-ordered so the window dimensions
/// are innermost (§3.4). [`slide2`] and [`slide3`] are the uniform-window
/// spellings of this combinator, and `slide_nd(&[v], &[v], …)` per
/// dimension is exactly `split` — which is how the tiling rule decomposes
/// element-wise grids.
///
/// # Panics
///
/// Panics on ranks outside 1–3, mismatched `sizes`/`steps` lengths, or if
/// `input` is not a `rank`-dimensional array.
pub fn slide_nd(sizes: &[ArithExpr], steps: &[ArithExpr], input: Expr) -> Expr {
    let rank = sizes.len();
    assert!((1..=3).contains(&rank), "slide_nd supports ranks 1-3");
    assert_eq!(steps.len(), rank, "one step per slid dimension");
    // Slide every dimension, innermost first.
    let mut e = input;
    for d in (0..rank).rev() {
        e = map_at_depth(
            d,
            FunDecl::pattern(Pattern::Slide {
                size: sizes[d].clone(),
                step: steps[d].clone(),
            }),
            e,
        );
    }
    // Move the window dimensions innermost.
    for d in slide_reorder_depths(rank) {
        e = map_at_depth(d, FunDecl::pattern(Pattern::Transpose), e);
    }
    e
}

/// `slide2(size, step) = map(transpose) ∘ slide ∘ map(slide)` — creates 2D
/// neighbourhoods (§3.4).
///
/// The result type is `[[ [[T]_size]_size ]_m']_n'`: a 2D grid of 2D
/// windows.
///
/// # Panics
///
/// Panics if `input` is not a 2D array.
pub fn slide2(size: impl Into<ArithExpr>, step: impl Into<ArithExpr>, input: Expr) -> Expr {
    let (size, step) = (size.into(), step.into());
    slide_nd(&[size.clone(), size], &[step.clone(), step], input)
}

/// `slide3(size, step)` — creates 3D neighbourhoods by sliding every
/// dimension and re-ordering the six resulting dimensions so the three
/// window dimensions are innermost (§3.4).
///
/// # Panics
///
/// Panics if `input` is not a 3D array.
pub fn slide3(size: impl Into<ArithExpr>, step: impl Into<ArithExpr>, input: Expr) -> Expr {
    let (size, step) = (size.into(), step.into());
    slide_nd(
        &[size.clone(), size.clone(), size],
        &[step.clone(), step.clone(), step],
        input,
    )
}

/// Element-wise `zip` of equal-shaped `rank`-dimensional arrays (ranks
/// 1–3): `zip_1 = zip`, and `zip_n(a, b, …) = map(λt. zip_{n−1}(get(0, t),
/// get(1, t), …)) ∘ zip(a, b, …)` zips every dimension, not just the
/// outermost.
///
/// # Panics
///
/// Panics on ranks outside 1–3 or on inputs that are not equal-shaped
/// `rank`-dimensional arrays.
pub fn zip_nd(rank: usize, comps: Vec<Expr>) -> Expr {
    assert!((1..=3).contains(&rank), "zip_nd supports ranks 1-3");
    let arity = comps.len();
    let outer = Expr::apply(FunDecl::pattern(Pattern::Zip { arity }), comps);
    if rank == 1 {
        return outer;
    }
    let elem = elem_type(&outer);
    map(
        lam(elem, |t| {
            zip_nd(rank - 1, (0..arity).map(|i| get(i, t.clone())).collect())
        }),
        outer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::id;
    use crate::expr::Param;

    fn var(n: &str) -> ArithExpr {
        ArithExpr::var(n)
    }

    fn grid2(n: impl Into<ArithExpr>, m: impl Into<ArithExpr>) -> Expr {
        Expr::Param(Param::fresh("G", Type::array_2d(Type::f32(), n, m)))
    }

    fn grid3(o: impl Into<ArithExpr>, n: impl Into<ArithExpr>, m: impl Into<ArithExpr>) -> Expr {
        Expr::Param(Param::fresh("G", Type::array_3d(Type::f32(), o, n, m)))
    }

    #[test]
    fn map2_preserves_shape() {
        let e = map2(id(), grid2(var("N"), var("M")));
        let ty = typecheck(&e).unwrap();
        assert_eq!(ty, Type::array_2d(Type::f32(), var("N"), var("M")));
    }

    #[test]
    fn map3_preserves_shape() {
        let e = map3(id(), grid3(2, 3, 4));
        let ty = typecheck(&e).unwrap();
        assert_eq!(ty, Type::array_3d(Type::f32(), 2, 3, 4));
    }

    #[test]
    fn pad2_grows_both_dims() {
        let e = pad2(1, 1, Boundary::Clamp, grid2(var("N"), var("M")));
        let ty = typecheck(&e).unwrap();
        assert_eq!(ty, Type::array_2d(Type::f32(), var("N") + 2, var("M") + 2));
    }

    #[test]
    fn pad3_value_grows_all_dims() {
        let e = pad3_value(1, 1, 0.0f32, grid3(var("O"), var("N"), var("M")));
        let ty = typecheck(&e).unwrap();
        assert_eq!(
            ty,
            Type::array_3d(Type::f32(), var("O") + 2, var("N") + 2, var("M") + 2)
        );
    }

    #[test]
    fn slide2_type_matches_paper() {
        // slide2(2, 1) on a 3×3 grid: 2×2 grid of 2×2 neighbourhoods.
        let e = slide2(2, 1, grid2(3, 3));
        let ty = typecheck(&e).unwrap();
        let expected = Type::array(Type::array(Type::array_2d(Type::f32(), 2, 2), 2), 2);
        assert_eq!(ty, expected);
    }

    #[test]
    fn slide2_symbolic_counts() {
        let e = slide2(3, 1, grid2(var("N"), var("M")));
        let ty = typecheck(&e).unwrap();
        let shape = ty.shape();
        assert_eq!(shape[0], var("N") - 2);
        assert_eq!(shape[1], var("M") - 2);
        assert_eq!(shape[2], ArithExpr::from(3));
        assert_eq!(shape[3], ArithExpr::from(3));
    }

    #[test]
    fn slide3_produces_3d_neighbourhoods() {
        let e = slide3(3, 1, grid3(var("O") + 2, var("N") + 2, var("M") + 2));
        let ty = typecheck(&e).unwrap();
        let shape = ty.shape();
        assert_eq!(shape.len(), 6);
        assert_eq!(shape[0], var("O"));
        assert_eq!(shape[1], var("N"));
        assert_eq!(shape[2], var("M"));
        assert_eq!(shape[3], ArithExpr::from(3));
        assert_eq!(shape[4], ArithExpr::from(3));
        assert_eq!(shape[5], ArithExpr::from(3));
    }

    #[test]
    #[should_panic(expected = "expects an array")]
    fn map_at_depth_on_scalar_panics() {
        map_at_depth(1, id(), Expr::f32(0.0));
    }

    #[test]
    fn zip_nd_zips_every_dimension_in_2d() {
        let a = grid2(4, 6);
        let b = grid2(4, 6);
        let e = zip_nd(2, vec![a, b]);
        let ty = typecheck(&e).unwrap();
        assert_eq!(
            ty,
            Type::array_2d(Type::Tuple(vec![Type::f32(), Type::f32()]), 4, 6)
        );
    }

    #[test]
    fn zip_nd_zips_every_dimension_in_3d() {
        let (a, b, c) = (grid3(2, 3, 4), grid3(2, 3, 4), grid3(2, 3, 4));
        let e = zip_nd(3, vec![a, b, c]);
        let ty = typecheck(&e).unwrap();
        assert_eq!(
            ty,
            Type::array_3d(
                Type::Tuple(vec![Type::f32(), Type::f32(), Type::f32()]),
                2,
                3,
                4
            )
        );
    }
}
