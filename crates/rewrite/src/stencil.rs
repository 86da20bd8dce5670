//! Rank-generic recognition of the canonical stencil shapes produced by the
//! builder combinators (`map_nd ∘ slide_nd`, optionally through a deep
//! `zip_nd`).
//!
//! The single entry point is [`match_stencil_nd`], which destructures a
//! stencil application of any rank 1–3 into a [`StencilNd`]: the computing
//! per-element function, the per-dimension window sizes and steps, and the
//! *operands* — one or more windowed inputs (`slide_nd` compositions) plus
//! any element-wise grids zipped alongside them, as the multi-grid
//! benchmarks (Hotspot, SRAD, the §3.5 acoustic simulation) produce.

use lift_arith::ArithExpr;
use lift_core::expr::{Expr, FunDecl};
use lift_core::ndim::slide_reorder_depths;
use lift_core::pattern::{MapKind, Pattern};
use lift_core::visit::is_layout_fun;

/// One zipped component of a matched stencil application.
#[derive(Debug, Clone)]
pub enum Operand {
    /// A `slide_nd(sizes, steps, input)` composition; the payload is the
    /// slid input (typically a padded array).
    Windowed(Expr),
    /// An element-wise grid (or generated array) zipped alongside the
    /// neighbourhoods — one value per output element.
    Elementwise(Expr),
}

impl Operand {
    /// The operand's underlying expression.
    pub fn expr(&self) -> &Expr {
        match self {
            Operand::Windowed(e) | Operand::Elementwise(e) => e,
        }
    }

    /// Whether this operand is a `slide_nd` composition.
    pub fn is_windowed(&self) -> bool {
        matches!(self, Operand::Windowed(_))
    }
}

/// A matched rank-generic stencil application
/// `map_nd(f, slide_nd(sizes, steps, input))` — or, for multi-grid
/// stencils, `map_nd(f, zip_nd(operands…))` where at least one operand is a
/// `slide_nd` composition and every windowed operand shares the same
/// per-dimension window geometry.
#[derive(Debug, Clone)]
pub struct StencilNd {
    /// Grid rank (1–3).
    pub rank: usize,
    /// The stencil function (one neighbourhood — or tuple — per element).
    pub f: FunDecl,
    /// Per-dimension neighbourhood sizes, outermost first.
    pub sizes: Vec<ArithExpr>,
    /// Per-dimension neighbourhood steps, outermost first.
    pub steps: Vec<ArithExpr>,
    /// The zipped operands in order; a single-grid stencil has exactly one
    /// [`Operand::Windowed`] entry.
    pub operands: Vec<Operand>,
}

impl StencilNd {
    /// The first windowed operand's input expression (every stencil has at
    /// least one).
    pub fn windowed_input(&self) -> &Expr {
        self.operands
            .iter()
            .find(|o| o.is_windowed())
            .expect("a matched stencil always has a windowed operand")
            .expr()
    }
}

/// Destructures `Apply(Map(Par, f), [arg])`.
pub fn match_par_map(e: &Expr) -> Option<(&FunDecl, &Expr)> {
    let app = e.as_apply()?;
    match app.fun.as_pattern()? {
        Pattern::Map {
            kind: MapKind::Par,
            f,
        } => Some((f, &app.args[0])),
        _ => None,
    }
}

/// Recognises a function that *is* `map(g)` — the bare pattern or the
/// eta-expanded `λx. map(g, x)` the n-dimensional builders produce — and
/// returns the mapped function `g`.
pub fn fun_inner_map(f: &FunDecl) -> Option<&FunDecl> {
    match f {
        FunDecl::Pattern(p) => match p.as_ref() {
            Pattern::Map {
                kind: MapKind::Par,
                f,
            } => Some(f),
            _ => None,
        },
        FunDecl::Lambda(l) => {
            if l.params.len() != 1 {
                return None;
            }
            let app = l.body.as_apply()?;
            if app.args.len() != 1 {
                return None;
            }
            match &app.args[0] {
                Expr::Param(p) if p.id() == l.params[0].id() => {}
                _ => return None,
            }
            match app.fun.as_pattern()? {
                Pattern::Map {
                    kind: MapKind::Par,
                    f,
                } => Some(f),
                _ => None,
            }
        }
        FunDecl::UserFun(_) => None,
    }
}

/// Peels `depth` nested map levels off `f` (each level bare or
/// eta-expanded), returning the innermost function.
pub fn peel_map_levels(f: &FunDecl, depth: usize) -> Option<&FunDecl> {
    let mut cur = f;
    for _ in 0..depth {
        cur = fun_inner_map(cur)?;
    }
    Some(cur)
}

/// Recognises a function that *is* `slide(size, step)` — either the bare
/// pattern or an eta-expanded `λx. slide(size, step, x)`.
pub fn fun_as_slide(f: &FunDecl) -> Option<(ArithExpr, ArithExpr)> {
    match f {
        FunDecl::Pattern(p) => match p.as_ref() {
            Pattern::Slide { size, step } => Some((size.clone(), step.clone())),
            _ => None,
        },
        FunDecl::Lambda(l) => {
            if l.params.len() != 1 {
                return None;
            }
            let app = l.body.as_apply()?;
            if app.args.len() != 1 {
                return None;
            }
            match &app.args[0] {
                Expr::Param(p) if p.id() == l.params[0].id() => {}
                _ => return None,
            }
            match app.fun.as_pattern()? {
                Pattern::Slide { size, step } => Some((size.clone(), step.clone())),
                _ => None,
            }
        }
        FunDecl::UserFun(_) => None,
    }
}

/// Recognises a function that *is* `transpose` (bare or eta-expanded).
pub fn fun_is_transpose(f: &FunDecl) -> bool {
    match f {
        FunDecl::Pattern(p) => matches!(p.as_ref(), Pattern::Transpose),
        FunDecl::Lambda(l) => {
            if l.params.len() != 1 {
                return false;
            }
            let Some(app) = l.body.as_apply() else {
                return false;
            };
            if app.args.len() != 1 {
                return false;
            }
            let arg_is_param = matches!(
                &app.args[0],
                Expr::Param(p) if p.id() == l.params[0].id()
            );
            arg_is_param && matches!(app.fun.as_pattern(), Some(Pattern::Transpose))
        }
        FunDecl::UserFun(_) => false,
    }
}

/// Whether `f` is `transpose` under `depth` nested map levels.
fn fun_is_transpose_at(f: &FunDecl, depth: usize) -> bool {
    peel_map_levels(f, depth).is_some_and(fun_is_transpose)
}

/// Whether `f` is `slide(size, step)` under `depth` nested map levels.
fn fun_as_slide_at(f: &FunDecl, depth: usize) -> Option<(ArithExpr, ArithExpr)> {
    fun_as_slide(peel_map_levels(f, depth)?)
}

/// Destructures `map_nd(rank, f, input)` — `rank` nested parallel maps (as
/// the builders eta-expand them) around a *computing* `f`.
pub fn match_map_nd(e: &Expr, rank: usize) -> Option<(&FunDecl, &Expr)> {
    let (outer, arg) = match_par_map(e)?;
    let f = peel_map_levels(outer, rank - 1)?;
    if is_layout_fun(f) {
        return None;
    }
    Some((f, arg))
}

/// Destructures the composition [`lift_core::ndim::slide_nd`] produces at
/// `rank`, returning `(sizes, steps, input)` outermost-dimension-first.
pub fn match_slide_nd(e: &Expr, rank: usize) -> Option<(Vec<ArithExpr>, Vec<ArithExpr>, &Expr)> {
    // Peel the transposes that moved the window dimensions innermost —
    // outermost application last, so peel the schedule in reverse.
    let mut cur = e;
    for depth in slide_reorder_depths(rank).into_iter().rev() {
        if depth == 0 {
            let app = cur.as_apply()?;
            if !matches!(app.fun.as_pattern(), Some(Pattern::Transpose)) {
                return None;
            }
            cur = &app.args[0];
        } else {
            let (t, rest) = match_par_map(cur)?;
            if !fun_is_transpose_at(t, depth - 1) {
                return None;
            }
            cur = rest;
        }
    }
    // Peel one slide per dimension, outermost first.
    let mut sizes = Vec::with_capacity(rank);
    let mut steps = Vec::with_capacity(rank);
    for d in 0..rank {
        if d == 0 {
            let app = cur.as_apply()?;
            let Pattern::Slide { size, step } = app.fun.as_pattern()? else {
                return None;
            };
            sizes.push(size.clone());
            steps.push(step.clone());
            cur = &app.args[0];
        } else {
            let (m, rest) = match_par_map(cur)?;
            let (size, step) = fun_as_slide_at(m, d - 1)?;
            sizes.push(size);
            steps.push(step);
            cur = rest;
        }
    }
    Some((sizes, steps, cur))
}

/// Destructures the canonical deep-zip composition
/// ([`lift_core::ndim::zip_nd`]) at `rank`, returning the zipped component
/// expressions in order.
fn match_zip_nd(e: &Expr, rank: usize) -> Option<Vec<&Expr>> {
    let (args, rezip) = if rank == 1 {
        let app = e.as_apply()?;
        let Pattern::Zip { .. } = app.fun.as_pattern()? else {
            return None;
        };
        (&app.args, None)
    } else {
        let (f, arg) = match_par_map(e)?;
        let app = arg.as_apply()?;
        let Pattern::Zip { .. } = app.fun.as_pattern()? else {
            return None;
        };
        (&app.args, Some(f))
    };
    if let Some(f) = rezip {
        if !fun_is_deep_rezip(f, rank - 1, args.len()) {
            return None;
        }
    }
    Some(args.iter().collect())
}

/// Whether `f` is the canonical re-zip lambda
/// `λt. zip_{rank}d(get(0, t), …, get(k−1, t))`.
fn fun_is_deep_rezip(f: &FunDecl, rank: usize, arity: usize) -> bool {
    let FunDecl::Lambda(l) = f else { return false };
    if l.params.len() != 1 {
        return false;
    }
    expr_is_rezip(&l.body, l.params[0].id(), rank, arity)
}

fn expr_is_rezip(e: &Expr, param_id: u32, rank: usize, arity: usize) -> bool {
    let zip_of_gets = |z: &Expr| -> bool {
        let Some(app) = z.as_apply() else {
            return false;
        };
        let Some(Pattern::Zip { .. }) = app.fun.as_pattern() else {
            return false;
        };
        app.args.len() == arity
            && app.args.iter().enumerate().all(|(i, a)| {
                let Some(inner) = a.as_apply() else {
                    return false;
                };
                matches!(inner.fun.as_pattern(), Some(Pattern::Get { index }) if *index == i)
                    && matches!(&inner.args[0], Expr::Param(p) if p.id() == param_id)
            })
    };
    if rank == 1 {
        return zip_of_gets(e);
    }
    let Some((g, arg)) = match_par_map(e) else {
        return false;
    };
    zip_of_gets(arg) && fun_is_deep_rezip(g, rank - 1, arity)
}

/// Matches a stencil application at a specific `rank`:
/// `map_nd(f, slide_nd(…))` or `map_nd(f, zip_nd(…))` with at least one
/// windowed component.
pub fn match_stencil_rank(e: &Expr, rank: usize) -> Option<StencilNd> {
    let (f, arg) = match_map_nd(e, rank)?;
    // Single windowed input.
    if let Some((sizes, steps, input)) = match_slide_nd(arg, rank) {
        return Some(StencilNd {
            rank,
            f: f.clone(),
            sizes,
            steps,
            operands: vec![Operand::Windowed(input.clone())],
        });
    }
    // Deep zip: every component is either a slide_nd composition (windowed)
    // or an element-wise grid; all windowed components must agree on the
    // per-dimension window geometry.
    let comps = match_zip_nd(arg, rank)?;
    let mut geometry: Option<(Vec<ArithExpr>, Vec<ArithExpr>)> = None;
    let mut operands = Vec::with_capacity(comps.len());
    for c in comps {
        match match_slide_nd(c, rank) {
            Some((sizes, steps, input)) => {
                match &geometry {
                    Some((s, st)) => {
                        if s != &sizes || st != &steps {
                            return None;
                        }
                    }
                    None => geometry = Some((sizes, steps)),
                }
                operands.push(Operand::Windowed(input.clone()));
            }
            None => operands.push(Operand::Elementwise(c.clone())),
        }
    }
    let (sizes, steps) = geometry?;
    Some(StencilNd {
        rank,
        f: f.clone(),
        sizes,
        steps,
        operands,
    })
}

/// Matches a stencil application of any rank, deepest rank first (so a 3D
/// stencil is never mistaken for a lower-rank one).
pub fn match_stencil_nd(e: &Expr) -> Option<StencilNd> {
    (1..=3).rev().find_map(|rank| match_stencil_rank(e, rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::ndim;
    use lift_core::prelude::*;

    fn sum3() -> FunDecl {
        lam(Type::array(Type::f32(), 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), nbh)
        })
    }

    fn sum3x3() -> FunDecl {
        lam(Type::array_2d(Type::f32(), 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(nbh))
        })
    }

    fn sum3x3x3() -> FunDecl {
        lam(Type::array_3d(Type::f32(), 3, 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(join(nbh)))
        })
    }

    #[test]
    fn matches_1d_stencil() {
        let a = Expr::Param(Param::fresh("A", Type::array(Type::f32(), 32)));
        let e = map(sum3(), slide(3, 1, pad(1, 1, Boundary::Clamp, a)));
        let st = match_stencil_nd(&e).expect("matches");
        assert_eq!(st.rank, 1);
        assert_eq!(st.sizes, vec![ArithExpr::from(3)]);
        assert_eq!(st.steps, vec![ArithExpr::from(1)]);
        assert_eq!(st.operands.len(), 1);
    }

    #[test]
    fn layout_map_is_not_a_stencil() {
        let a = Expr::Param(Param::fresh("A", Type::array_2d(Type::f32(), 8, 8)));
        // map(transpose) over slide output is layout plumbing, not a stencil.
        let e = ndim::slide2(3, 1, a);
        assert!(match_stencil_nd(&e).is_none());
    }

    #[test]
    fn matches_slide_nd_compositions() {
        let a = Expr::Param(Param::fresh("A", Type::array_2d(Type::f32(), 10, 10)));
        let e = ndim::slide2(3, 1, a);
        let (sizes, steps, _) = match_slide_nd(&e, 2).expect("matches");
        assert_eq!(sizes, vec![ArithExpr::from(3), ArithExpr::from(3)]);
        assert_eq!(steps, vec![ArithExpr::from(1), ArithExpr::from(1)]);

        let g = Expr::Param(Param::fresh("G", Type::array_3d(Type::f32(), 8, 9, 10)));
        let e = ndim::slide3(3, 1, g);
        let (sizes, steps, _) = match_slide_nd(&e, 3).expect("matches");
        assert_eq!(sizes, vec![ArithExpr::from(3); 3]);
        assert_eq!(steps, vec![ArithExpr::from(1); 3]);
    }

    #[test]
    fn matches_rectangular_slide_nd() {
        let a = Expr::Param(Param::fresh("A", Type::array_2d(Type::f32(), 10, 12)));
        let e = ndim::slide_nd(
            &[ArithExpr::from(3), ArithExpr::from(5)],
            &[ArithExpr::from(1), ArithExpr::from(1)],
            a,
        );
        let (sizes, _, _) = match_slide_nd(&e, 2).expect("matches");
        assert_eq!(sizes, vec![ArithExpr::from(3), ArithExpr::from(5)]);
    }

    #[test]
    fn matches_2d_stencil() {
        let a = Expr::Param(Param::fresh("A", Type::array_2d(Type::f32(), 10, 10)));
        let nbhs = ndim::slide2(3, 1, ndim::pad2(1, 1, Boundary::Clamp, a));
        let e = ndim::map2(sum3x3(), nbhs);
        let st = match_stencil_nd(&e).expect("matches");
        assert_eq!(st.rank, 2);
        assert_eq!(st.sizes[0], ArithExpr::from(3));
    }

    #[test]
    fn matches_3d_stencil() {
        let a = Expr::Param(Param::fresh("A", Type::array_3d(Type::f32(), 8, 8, 8)));
        let nbhs = ndim::slide3(3, 1, ndim::pad3(1, 1, Boundary::Clamp, a));
        let e = ndim::map3(sum3x3x3(), nbhs);
        let st = match_stencil_nd(&e).expect("matches");
        assert_eq!(st.rank, 3);
        assert_eq!(st.sizes, vec![ArithExpr::from(3); 3]);
        assert_eq!(st.operands.len(), 1);
        assert!(st.operands[0].is_windowed());
    }

    #[test]
    fn matches_zipped_multi_grid_stencil() {
        // Hotspot-style: one element-wise grid zipped with neighbourhoods.
        let t = Expr::Param(Param::fresh("T", Type::array_3d(Type::f32(), 6, 6, 6)));
        let p = Expr::Param(Param::fresh("P", Type::array_3d(Type::f32(), 6, 6, 6)));
        let nbhs = ndim::slide3(3, 1, ndim::pad3(1, 1, Boundary::Clamp, t));
        let tup = Type::Tuple(vec![Type::f32(), Type::array_3d(Type::f32(), 3, 3, 3)]);
        let f = lam(tup, |x| {
            call(&add_f32(), [get(0, x.clone()), at3(1, 1, 1, get(1, x))])
        });
        let e = ndim::map3(f, ndim::zip_nd(3, vec![p, nbhs]));
        let st = match_stencil_nd(&e).expect("matches");
        assert_eq!(st.rank, 3);
        assert_eq!(st.operands.len(), 2);
        assert!(!st.operands[0].is_windowed());
        assert!(st.operands[1].is_windowed());
    }

    #[test]
    fn non_stencil_does_not_match() {
        let a = Expr::Param(Param::fresh("A", Type::array(Type::f32(), 32)));
        let e = map(id(), a);
        assert!(match_stencil_nd(&e).is_none());
    }
}
