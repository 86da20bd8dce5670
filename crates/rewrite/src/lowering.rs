//! Lowering rules: mapping high-level parallelism onto the OpenCL thread
//! hierarchy, sequentialisation, unrolling, and thread coarsening.

use lift_arith::ArithExpr;
use lift_core::expr::{Expr, FunDecl};
use lift_core::pattern::{MapKind, Pattern, ReduceKind};
use lift_core::typecheck::typecheck;
use lift_core::types::Type;
use lift_core::visit::{is_layout_fun, rewrite_everywhere};

/// Lowers the *grid nest* — the chain of computing `map`s from the root —
/// to the given kinds, outermost first.
///
/// Layout maps and other layout primitives on the spine are passed through
/// untouched; the n-th computing `map` encountered while descending through
/// nested lambda bodies receives `kinds[n]`. Maps beyond `kinds.len()` are
/// left as they are (lower the remainder with [`sequentialise`]).
pub fn lower_grid(e: &Expr, kinds: &[MapKind]) -> Expr {
    if kinds.is_empty() {
        return e.clone();
    }
    match e {
        Expr::Apply(app) => {
            if let Some(Pattern::Map {
                kind: MapKind::Par,
                f,
            }) = app.fun.as_pattern()
            {
                if is_layout_fun(f) {
                    // Pass through layout maps.
                    let args = app
                        .args
                        .iter()
                        .map(|a| lower_grid(a, kinds))
                        .collect::<Vec<_>>();
                    return Expr::apply(app.fun.clone(), args);
                }
                let new_f = if kinds.len() > 1 {
                    lower_grid_fun(f, &kinds[1..])
                } else {
                    f.clone()
                };
                return Expr::apply(
                    FunDecl::pattern(Pattern::Map {
                        kind: kinds[0],
                        f: new_f,
                    }),
                    app.args.clone(),
                );
            }
            // Other spine nodes (join, toLocal, …): descend into arguments.
            let args = app
                .args
                .iter()
                .map(|a| lower_grid(a, kinds))
                .collect::<Vec<_>>();
            Expr::apply(app.fun.clone(), args)
        }
        _ => e.clone(),
    }
}

fn lower_grid_fun(f: &FunDecl, kinds: &[MapKind]) -> FunDecl {
    match f {
        FunDecl::Lambda(l) => FunDecl::lambda(l.params.clone(), lower_grid(&l.body, kinds)),
        FunDecl::Pattern(p) => {
            if let Pattern::Map {
                kind: MapKind::Par,
                f: g,
            } = p.as_ref()
            {
                if !is_layout_fun(g) {
                    let inner = if kinds.len() > 1 {
                        lower_grid_fun(g, &kinds[1..])
                    } else {
                        g.clone()
                    };
                    return FunDecl::pattern(Pattern::Map {
                        kind: kinds[0],
                        f: inner,
                    });
                }
            }
            f.clone()
        }
        FunDecl::UserFun(_) => f.clone(),
    }
}

/// Rewrites every remaining high-level computing `map` to `mapSeq` and
/// every high-level `reduce` to `reduceSeq`.
///
/// Layout maps stay `Par` so the code generator keeps them as views.
pub fn sequentialise(e: &Expr) -> Expr {
    rewrite_everywhere(e, &|node| {
        let app = node.as_apply()?;
        match app.fun.as_pattern()? {
            Pattern::Map {
                kind: MapKind::Par,
                f,
            } if !is_layout_fun(f) => Some(Expr::apply(
                FunDecl::pattern(Pattern::Map {
                    kind: MapKind::Seq,
                    f: f.clone(),
                }),
                app.args.clone(),
            )),
            Pattern::Reduce {
                kind: ReduceKind::Par,
                f,
            } => Some(Expr::apply(
                FunDecl::pattern(Pattern::Reduce {
                    kind: ReduceKind::Seq,
                    f: f.clone(),
                }),
                app.args.clone(),
            )),
            _ => None,
        }
    })
}

/// Unrolls sequential reduces and maps whose trip count is a compile-time
/// constant of at most `limit` (§4.3: *"Unrolling is only legal if the size
/// of the input array has a length which is known at compile time"*).
pub fn unroll(e: &Expr, limit: i64) -> Expr {
    rewrite_everywhere(e, &|node| {
        let app = node.as_apply()?;
        match app.fun.as_pattern()? {
            Pattern::Reduce {
                kind: ReduceKind::Seq,
                f,
            } => {
                let n = const_len(&app.args[1])?;
                (n <= limit).then(|| {
                    Expr::apply(
                        FunDecl::pattern(Pattern::Reduce {
                            kind: ReduceKind::SeqUnroll,
                            f: f.clone(),
                        }),
                        app.args.clone(),
                    )
                })
            }
            Pattern::Map {
                kind: MapKind::Seq,
                f,
            } => {
                let n = const_len(&app.args[0])?;
                (n <= limit).then(|| {
                    Expr::apply(
                        FunDecl::pattern(Pattern::Map {
                            kind: MapKind::SeqUnroll,
                            f: f.clone(),
                        }),
                        app.args.clone(),
                    )
                })
            }
            _ => None,
        }
    })
}

fn const_len(e: &Expr) -> Option<i64> {
    let ty = typecheck(e).ok()?;
    let (_, n) = ty.as_array()?;
    n.as_cst()
}

/// Thread coarsening: rewrites the *innermost* computing grid `map` into
/// `join ∘ map(map f) ∘ split(factor)`, so one thread computes `factor`
/// consecutive elements sequentially (the "how much work a thread performs"
/// knob of §6).
///
/// Returns `None` when no computing map nest exists.
pub fn coarsen_innermost(e: &Expr, factor: &ArithExpr) -> Option<Expr> {
    match e {
        Expr::Apply(app) => {
            if let Some(Pattern::Map {
                kind: MapKind::Par,
                f,
            }) = app.fun.as_pattern()
            {
                if !is_layout_fun(f) {
                    // Try deeper first: the innermost nest wins.
                    if let FunDecl::Lambda(l) = f {
                        if let Some(new_body) = coarsen_innermost(&l.body, factor) {
                            return Some(Expr::apply(
                                FunDecl::pattern(Pattern::Map {
                                    kind: MapKind::Par,
                                    f: FunDecl::lambda(l.params.clone(), new_body),
                                }),
                                app.args.clone(),
                            ));
                        }
                    }
                    // This is the innermost computing map: coarsen here.
                    let arg = &app.args[0];
                    let arg_ty = typecheck(arg).ok()?;
                    let (elem_ty, _) = arg_ty.as_array()?;
                    let chunk_ty = Type::array(elem_ty.clone(), factor.clone());
                    let f = f.clone();
                    let per_chunk = lift_core::build::lam(chunk_ty, move |chunk| {
                        Expr::apply(
                            FunDecl::pattern(Pattern::Map {
                                kind: MapKind::Par,
                                f,
                            }),
                            [chunk],
                        )
                    });
                    return Some(lift_core::build::join(lift_core::build::map(
                        per_chunk,
                        lift_core::build::split(factor.clone(), arg.clone()),
                    )));
                }
            }
            // Descend through spine nodes.
            for (i, a) in app.args.iter().enumerate() {
                if let Some(new_a) = coarsen_innermost(a, factor) {
                    let mut args = app.args.clone();
                    args[i] = new_a;
                    return Some(Expr::apply(app.fun.clone(), args));
                }
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::prelude::*;

    fn stencil_1d(n: i64) -> (FunDecl, Expr) {
        let a = Param::fresh("A", Type::array(Type::f32(), n));
        let sum = lam(Type::array(Type::f32(), 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), nbh)
        });
        let body = map(
            sum.clone(),
            slide(3, 1, pad(1, 1, Boundary::Clamp, Expr::Param(a.clone()))),
        );
        (FunDecl::lambda(vec![a], body.clone()), body)
    }

    fn count_kind(e: &Expr, want: MapKind) -> usize {
        lift_core::visit::find_positions(e, &|node| {
            matches!(
                node.applied_pattern(),
                Some(Pattern::Map { kind, .. }) if *kind == want
            )
        })
        .len()
    }

    #[test]
    fn lower_grid_assigns_kinds() {
        let (_, body) = stencil_1d(32);
        let lowered = lower_grid(&body, &[MapKind::Glb(0)]);
        assert_eq!(count_kind(&lowered, MapKind::Glb(0)), 1);
        assert_eq!(count_kind(&lowered, MapKind::Par), 0);
    }

    #[test]
    fn lower_grid_2d_assigns_nested_kinds() {
        let a = Expr::Param(Param::fresh("A", Type::array_2d(Type::f32(), 16, 16)));
        let f = lam(Type::array_2d(Type::f32(), 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(nbh))
        });
        let body = lift_core::ndim::map2(
            f,
            lift_core::ndim::slide2(3, 1, lift_core::ndim::pad2(1, 1, Boundary::Clamp, a)),
        );
        let lowered = lower_grid(&body, &[MapKind::Glb(1), MapKind::Glb(0)]);
        assert_eq!(count_kind(&lowered, MapKind::Glb(1)), 1);
        assert_eq!(count_kind(&lowered, MapKind::Glb(0)), 1);
        // The layout maps inside slide2 remain Par.
        assert!(count_kind(&lowered, MapKind::Par) > 0);
        // And the whole thing still typechecks identically.
        assert_eq!(typecheck(&body).unwrap(), typecheck(&lowered).unwrap());
    }

    #[test]
    fn sequentialise_leaves_layout_maps() {
        let a = Expr::Param(Param::fresh("A", Type::array_2d(Type::f32(), 8, 8)));
        let e = lift_core::ndim::slide2(3, 1, a);
        let seq = sequentialise(&e);
        assert_eq!(count_kind(&seq, MapKind::Seq), 0);
        assert!(count_kind(&seq, MapKind::Par) > 0);
    }

    #[test]
    fn sequentialise_lowers_reduce() {
        let (_, body) = stencil_1d(16);
        let seq = sequentialise(&body);
        let reduces = lift_core::visit::find_positions(&seq, &|node| {
            matches!(
                node.applied_pattern(),
                Some(Pattern::Reduce {
                    kind: ReduceKind::Seq,
                    ..
                })
            )
        });
        assert_eq!(reduces.len(), 1);
    }

    #[test]
    fn unroll_requires_constant_small_size() {
        let (_, body) = stencil_1d(16);
        let seq = sequentialise(&body);
        let unrolled = unroll(&seq, 32);
        let u = lift_core::visit::find_positions(&unrolled, &|node| {
            matches!(
                node.applied_pattern(),
                Some(Pattern::Reduce {
                    kind: ReduceKind::SeqUnroll,
                    ..
                })
            )
        });
        assert_eq!(u.len(), 1);
        // With a tiny limit nothing unrolls.
        let kept = unroll(&seq, 2);
        let u = lift_core::visit::find_positions(&kept, &|node| {
            matches!(
                node.applied_pattern(),
                Some(Pattern::Reduce {
                    kind: ReduceKind::SeqUnroll,
                    ..
                })
            )
        });
        assert_eq!(u.len(), 0);
    }

    #[test]
    fn coarsen_preserves_type_and_semantics() {
        let (prog, body) = stencil_1d(16);
        let factor = ArithExpr::from(4);
        let coarse = coarsen_innermost(&body, &factor).expect("coarsens");
        assert_eq!(typecheck(&body).unwrap(), typecheck(&coarse).unwrap());

        // Semantics: evaluate both against the reference interpreter.
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let coarse_prog = FunDecl::lambda(l.params.clone(), coarse);
        let input = lift_core::eval::DataValue::from_f32s((0..16).map(|i| i as f32));
        let lhs = lift_core::eval::eval_fun(&prog, std::slice::from_ref(&input)).unwrap();
        let rhs = lift_core::eval::eval_fun(&coarse_prog, &[input]).unwrap();
        assert_eq!(lhs, rhs);
    }
}
