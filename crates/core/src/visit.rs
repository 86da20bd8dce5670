//! Generic traversal and rewriting over Lift expressions.
//!
//! The rewrite-rule engine (crate `lift-rewrite`) expresses every
//! optimisation as a local transformation `Expr → Option<Expr>`; this module
//! supplies the machinery to apply such transformations at specific
//! positions, everywhere, or to enumerate candidate positions. Traversal
//! descends through `Apply` arguments *and* into the bodies of lambdas and
//! pattern-nested functions, so rules can fire anywhere in a program.
//! [`substitute_sizes`] walks the same way to bind a program's size
//! variables (input sizes, tunables); the tuner and the code generator
//! share it. [`is_layout_fun`] decides which functions only rearrange
//! data; lowering, the stencil recogniser and the code generator all ask
//! it.

use std::collections::{BTreeMap, HashMap};

use lift_arith::{ArithExpr, Bindings, Name};

use crate::expr::{Expr, FunDecl, Param, ParamRef};
use crate::pattern::Pattern;
use crate::types::Type;

/// A local rewrite: returns the replacement when it matches at this node.
pub type LocalRewrite<'a> = &'a dyn Fn(&Expr) -> Option<Expr>;

/// Applies `rule` at the first matching node (pre-order), returning the
/// rewritten expression, or `None` if the rule matched nowhere.
pub fn rewrite_first(e: &Expr, rule: LocalRewrite) -> Option<Expr> {
    if let Some(new) = rule(e) {
        return Some(new);
    }
    match e {
        Expr::Param(_) | Expr::Literal(_) => None,
        Expr::Apply(app) => {
            if let Some(new_fun) = rewrite_first_fun(&app.fun, rule) {
                return Some(Expr::apply(new_fun, app.args.iter().cloned()));
            }
            for (i, a) in app.args.iter().enumerate() {
                if let Some(new_a) = rewrite_first(a, rule) {
                    let mut args = app.args.clone();
                    args[i] = new_a;
                    return Some(Expr::apply(app.fun.clone(), args));
                }
            }
            None
        }
    }
}

fn rewrite_first_fun(f: &FunDecl, rule: LocalRewrite) -> Option<FunDecl> {
    match f {
        FunDecl::Lambda(l) => {
            rewrite_first(&l.body, rule).map(|body| FunDecl::lambda(l.params.clone(), body))
        }
        FunDecl::UserFun(_) => None,
        FunDecl::Pattern(p) => rewrite_first_pattern(p, rule).map(FunDecl::pattern),
    }
}

fn rewrite_first_pattern(p: &Pattern, rule: LocalRewrite) -> Option<Pattern> {
    let nested = p.nested_fun()?;
    let new = rewrite_first_fun(nested, rule)?;
    let mut out = p.clone();
    *out.nested_fun_mut().expect("pattern had a nested fun") = new;
    Some(out)
}

/// Applies `rule` wherever it matches, bottom-up, at most once per node.
///
/// Because children are rewritten before parents, a rule whose output
/// re-matches its own input does not loop.
pub fn rewrite_everywhere(e: &Expr, rule: LocalRewrite) -> Expr {
    let rebuilt = match e {
        Expr::Param(_) | Expr::Literal(_) => e.clone(),
        Expr::Apply(app) => {
            let fun = rewrite_everywhere_fun(&app.fun, rule);
            let args: Vec<Expr> = app
                .args
                .iter()
                .map(|a| rewrite_everywhere(a, rule))
                .collect();
            Expr::apply(fun, args)
        }
    };
    rule(&rebuilt).unwrap_or(rebuilt)
}

fn rewrite_everywhere_fun(f: &FunDecl, rule: LocalRewrite) -> FunDecl {
    match f {
        FunDecl::Lambda(l) => FunDecl::lambda(l.params.clone(), rewrite_everywhere(&l.body, rule)),
        FunDecl::UserFun(_) => f.clone(),
        FunDecl::Pattern(p) => {
            if p.nested_fun().is_some() {
                let mut out = p.as_ref().clone();
                let nested = out.nested_fun_mut().expect("checked above");
                *nested = rewrite_everywhere_fun(nested, rule);
                FunDecl::pattern(out)
            } else {
                f.clone()
            }
        }
    }
}

/// Pre-order positions (0-based) at which `pred` holds.
///
/// Positions index expression nodes only, but the traversal descends into
/// lambda bodies, so rules can target nodes inside nested functions.
pub fn find_positions(e: &Expr, pred: &dyn Fn(&Expr) -> bool) -> Vec<usize> {
    let mut out = Vec::new();
    let mut idx = 0;
    walk(e, &mut |node| {
        if pred(node) {
            out.push(idx);
        }
        idx += 1;
    });
    out
}

/// Applies `rule` only at pre-order position `pos`.
///
/// Returns `None` if the position does not exist or the rule does not match
/// there.
pub fn rewrite_at(e: &Expr, pos: usize, rule: LocalRewrite) -> Option<Expr> {
    let mut idx = 0usize;
    rewrite_at_inner(e, pos, &mut idx, rule)
}

fn rewrite_at_inner(e: &Expr, pos: usize, idx: &mut usize, rule: LocalRewrite) -> Option<Expr> {
    let here = *idx;
    *idx += 1;
    if here == pos {
        return rule(e);
    }
    match e {
        Expr::Param(_) | Expr::Literal(_) => None,
        Expr::Apply(app) => {
            if let Some(new_fun) = rewrite_at_fun(&app.fun, pos, idx, rule) {
                return Some(Expr::apply(new_fun, app.args.iter().cloned()));
            }
            for (i, a) in app.args.iter().enumerate() {
                if let Some(new_a) = rewrite_at_inner(a, pos, idx, rule) {
                    let mut args = app.args.clone();
                    args[i] = new_a;
                    return Some(Expr::apply(app.fun.clone(), args));
                }
            }
            None
        }
    }
}

fn rewrite_at_fun(f: &FunDecl, pos: usize, idx: &mut usize, rule: LocalRewrite) -> Option<FunDecl> {
    match f {
        FunDecl::Lambda(l) => rewrite_at_inner(&l.body, pos, idx, rule)
            .map(|body| FunDecl::lambda(l.params.clone(), body)),
        FunDecl::UserFun(_) => None,
        FunDecl::Pattern(p) => {
            let nested = p.nested_fun()?;
            let new = rewrite_at_fun(nested, pos, idx, rule)?;
            let mut out = p.as_ref().clone();
            *out.nested_fun_mut().expect("pattern had a nested fun") = new;
            Some(FunDecl::pattern(out))
        }
    }
}

/// Pre-order walk over every expression node (including inside lambdas).
pub fn walk(e: &Expr, visit: &mut dyn FnMut(&Expr)) {
    visit(e);
    if let Expr::Apply(app) = e {
        walk_fun(&app.fun, visit);
        for a in &app.args {
            walk(a, visit);
        }
    }
}

fn walk_fun(f: &FunDecl, visit: &mut dyn FnMut(&Expr)) {
    match f {
        FunDecl::Lambda(l) => walk(&l.body, visit),
        FunDecl::UserFun(_) => {}
        FunDecl::Pattern(p) => {
            if let Some(nested) = p.nested_fun() {
                walk_fun(nested, visit);
            }
        }
    }
}

/// Counts expression nodes (as visited by [`walk`]).
pub fn count_nodes(e: &Expr) -> usize {
    let mut n = 0;
    walk(e, &mut |_| n += 1);
    n
}

/// Is `f` a pure layout function, one that compiles to views and emits no
/// loops?
///
/// Layout functions are compositions of `slide`, `pad`, `split`, `join`,
/// `transpose`, `zip`, `get`, `id` and `map`s of layout functions. This is
/// the one classification: lowering leaves these `map`s high-level, the
/// stencil recogniser skips them, and the code generator compiles them to
/// views.
pub fn is_layout_fun(f: &FunDecl) -> bool {
    match f {
        FunDecl::UserFun(_) => false,
        FunDecl::Pattern(p) => match p.as_ref() {
            Pattern::Id
            | Pattern::Transpose
            | Pattern::Slide { .. }
            | Pattern::Pad { .. }
            | Pattern::PadValue { .. }
            | Pattern::Split { .. }
            | Pattern::Join
            | Pattern::Get { .. } => true,
            Pattern::Map { f, .. } => is_layout_fun(f),
            _ => false,
        },
        FunDecl::Lambda(l) => l.params.len() == 1 && is_layout_expr(&l.body, l.params[0].id()),
    }
}

fn is_layout_expr(e: &Expr, param_id: u32) -> bool {
    match e {
        Expr::Param(p) => p.id() == param_id,
        Expr::Literal(_) => false,
        Expr::Apply(app) => {
            if matches!(app.fun.as_pattern(), Some(Pattern::Zip { .. })) {
                return app.args.iter().all(|a| is_layout_expr(a, param_id));
            }
            app.args.len() == 1 && is_layout_fun(&app.fun) && is_layout_expr(&app.args[0], param_id)
        }
    }
}

/// Substitutes arithmetic variables (input sizes, tunables) throughout a
/// program: in every type, every pattern parameter, and every nested lambda.
///
/// Returns a structurally identical program whose parameters are *fresh*
/// (types may have changed, and parameter identity must follow).
pub fn substitute_sizes(f: &FunDecl, bindings: &Bindings) -> FunDecl {
    let map: SizeMap = bindings
        .iter()
        .map(|(k, v)| (Name::from(k), ArithExpr::from(v)))
        .collect();
    subst_fun(f, &map, &mut HashMap::new())
}

type SizeMap = BTreeMap<Name, ArithExpr>;

fn subst_type(t: &Type, map: &SizeMap) -> Type {
    match t {
        Type::Scalar(_) => t.clone(),
        Type::Tuple(ts) => Type::Tuple(ts.iter().map(|x| subst_type(x, map)).collect()),
        Type::Array(elem, n) => Type::Array(Box::new(subst_type(elem, map)), n.substitute_all(map)),
    }
}

fn subst_fun(f: &FunDecl, map: &SizeMap, pmap: &mut HashMap<u32, ParamRef>) -> FunDecl {
    match f {
        FunDecl::Lambda(l) => {
            let params: Vec<ParamRef> = l
                .params
                .iter()
                .map(|p| {
                    let fresh = Param::fresh(p.name(), subst_type(p.ty(), map));
                    pmap.insert(p.id(), fresh.clone());
                    fresh
                })
                .collect();
            let body = subst_expr(&l.body, map, pmap);
            FunDecl::lambda(params, body)
        }
        FunDecl::UserFun(_) => f.clone(),
        FunDecl::Pattern(p) => FunDecl::pattern(subst_pattern(p, map, pmap)),
    }
}

fn subst_expr(e: &Expr, map: &SizeMap, pmap: &mut HashMap<u32, ParamRef>) -> Expr {
    match e {
        Expr::Param(p) => match pmap.get(&p.id()) {
            Some(fresh) => Expr::Param(fresh.clone()),
            None => e.clone(),
        },
        Expr::Literal(_) => e.clone(),
        Expr::Apply(app) => {
            let fun = subst_fun(&app.fun, map, pmap);
            let args = app
                .args
                .iter()
                .map(|a| subst_expr(a, map, pmap))
                .collect::<Vec<_>>();
            Expr::apply(fun, args)
        }
    }
}

fn subst_pattern(p: &Pattern, map: &SizeMap, pmap: &mut HashMap<u32, ParamRef>) -> Pattern {
    let s = |e: &ArithExpr| e.substitute_all(map);
    match p {
        Pattern::Map { kind, f } => Pattern::Map {
            kind: *kind,
            f: subst_fun(f, map, pmap),
        },
        Pattern::Reduce { kind, f } => Pattern::Reduce {
            kind: *kind,
            f: subst_fun(f, map, pmap),
        },
        Pattern::Zip { arity } => Pattern::Zip { arity: *arity },
        Pattern::Split { chunk } => Pattern::Split { chunk: s(chunk) },
        Pattern::Join => Pattern::Join,
        Pattern::Transpose => Pattern::Transpose,
        Pattern::Slide { size, step } => Pattern::Slide {
            size: s(size),
            step: s(step),
        },
        Pattern::Pad {
            left,
            right,
            boundary,
        } => Pattern::Pad {
            left: s(left),
            right: s(right),
            boundary: *boundary,
        },
        Pattern::PadValue { left, right, value } => Pattern::PadValue {
            left: s(left),
            right: s(right),
            value: *value,
        },
        Pattern::At { index } => Pattern::At { index: s(index) },
        Pattern::Get { index } => Pattern::Get { index: *index },
        Pattern::ArrayGen { fun, sizes } => Pattern::ArrayGen {
            fun: fun.clone(),
            sizes: sizes.iter().map(s).collect(),
        },
        Pattern::Iterate { times, f } => Pattern::Iterate {
            times: s(times),
            f: subst_fun(f, map, pmap),
        },
        Pattern::ToLocal { f } => Pattern::ToLocal {
            f: subst_fun(f, map, pmap),
        },
        Pattern::ToGlobal { f } => Pattern::ToGlobal {
            f: subst_fun(f, map, pmap),
        },
        Pattern::ToPrivate { f } => Pattern::ToPrivate {
            f: subst_fun(f, map, pmap),
        },
        Pattern::Id => Pattern::Id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::pattern::{Boundary, MapKind};
    use crate::userfun::add_f32;

    fn sample() -> Expr {
        let a = Expr::Param(Param::fresh(
            "A",
            Type::array(Type::f32(), ArithExpr::var("N")),
        ));
        map(id(), slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
    }

    fn is_slide(e: &Expr) -> bool {
        matches!(e.applied_pattern(), Some(Pattern::Slide { .. }))
    }

    #[test]
    fn walk_visits_all_nodes() {
        // map(id)(slide(pad(A))): nodes = map-apply, slide-apply, pad-apply, A.
        assert_eq!(count_nodes(&sample()), 4);
    }

    #[test]
    fn find_positions_locates_slide() {
        let pos = find_positions(&sample(), &is_slide);
        assert_eq!(pos, vec![1]);
    }

    #[test]
    fn rewrite_first_replaces_once() {
        // Replace the slide node by its own input (drops the slide).
        let rule = |e: &Expr| -> Option<Expr> {
            if is_slide(e) {
                Some(e.as_apply().expect("apply").args[0].clone())
            } else {
                None
            }
        };
        let out = rewrite_first(&sample(), &rule).expect("matched");
        assert_eq!(find_positions(&out, &is_slide), Vec::<usize>::new());
        assert_eq!(count_nodes(&out), 3);
    }

    #[test]
    fn rewrite_at_position() {
        let rule = |e: &Expr| -> Option<Expr> {
            is_slide(e).then(|| e.as_apply().expect("apply").args[0].clone())
        };
        assert!(rewrite_at(&sample(), 0, &rule).is_none()); // map node: no match
        assert!(rewrite_at(&sample(), 1, &rule).is_some()); // slide node
        assert!(rewrite_at(&sample(), 99, &rule).is_none()); // out of range
    }

    #[test]
    fn rewrite_everywhere_descends_into_lambdas() {
        // map(λx. slide(3,1,x)) — the slide sits inside a lambda body.
        let a = Expr::Param(Param::fresh(
            "A",
            Type::array_2d(Type::f32(), ArithExpr::var("N"), 8),
        ));
        let e = map(lam(Type::array(Type::f32(), 8), |row| slide(3, 1, row)), a);
        // find_positions descends into the lambda body and sees the slide.
        let pos = find_positions(&e, &is_slide);
        assert_eq!(pos.len(), 1);
        // rewrite_first also reaches it.
        let rule = |node: &Expr| -> Option<Expr> {
            is_slide(node).then(|| node.as_apply().expect("apply").args[0].clone())
        };
        let out = rewrite_first(&e, &rule).expect("matched inside lambda");
        assert_eq!(find_positions(&out, &is_slide).len(), 0);
    }

    #[test]
    fn is_layout_fun_classification() {
        assert!(is_layout_fun(&id()));
        assert!(is_layout_fun(&FunDecl::pattern(Pattern::Transpose)));
        let slide_lam = lam(Type::array(Type::f32(), 8), |x| slide(3, 1, x));
        assert!(is_layout_fun(&slide_lam));
        let compute = lam(Type::f32(), |x| call(&add_f32(), [x.clone(), x]));
        assert!(!is_layout_fun(&compute));
    }

    #[test]
    fn rewrite_everywhere_changes_map_kinds() {
        let out = rewrite_everywhere(&sample(), &|e| match e.applied_pattern() {
            Some(Pattern::Map {
                kind: MapKind::Par,
                f,
            }) => Some(Expr::apply(
                FunDecl::pattern(Pattern::Map {
                    kind: MapKind::Glb(0),
                    f: f.clone(),
                }),
                e.as_apply().expect("apply").args.iter().cloned(),
            )),
            _ => None,
        });
        let glb = find_positions(&out, &|e| {
            matches!(
                e.applied_pattern(),
                Some(Pattern::Map {
                    kind: MapKind::Glb(0),
                    ..
                })
            )
        });
        assert_eq!(glb.len(), 1);
    }
}
