//! The paper's algorithmic rewrite rules (§4).
//!
//! Every rule is a local transformation `Expr → Option<Expr>` that preserves
//! both the type and the denotational semantics of the expression (validated
//! against the reference evaluator in the tests and property tests of this
//! crate).

use lift_arith::ArithExpr;
use lift_core::build::{get, join, lam, map, split};
use lift_core::expr::{Expr, FunDecl};
use lift_core::ndim::{adjacent_sort_depths, map_at_depth, map_nd, slide_nd, zip_nd};
use lift_core::pattern::{MapKind, Pattern};
use lift_core::typecheck::typecheck;
use lift_core::types::Type;

use crate::stencil::{match_stencil_nd, Operand, StencilNd};

/// **Map fusion** — `map f ∘ map g ↦ map (f ∘ g)` (Fig. 2 of the paper).
pub fn map_fusion(e: &Expr) -> Option<Expr> {
    let outer = e.as_apply()?;
    let Pattern::Map {
        kind: MapKind::Par,
        f,
    } = outer.fun.as_pattern()?
    else {
        return None;
    };
    let inner = outer.args[0].as_apply()?;
    let Pattern::Map {
        kind: MapKind::Par,
        f: g,
    } = inner.fun.as_pattern()?
    else {
        return None;
    };
    let input = &inner.args[0];
    let in_ty = typecheck(input).ok()?;
    let (elem_ty, _) = in_ty.as_array()?;
    let fused = f.clone().compose(g.clone(), elem_ty.clone());
    Some(map(fused, input.clone()))
}

/// One half of the tiling decomposition (§4.1):
/// `map f ∘ join ↦ join ∘ map (map f)`.
pub fn map_join_interchange(e: &Expr) -> Option<Expr> {
    let outer = e.as_apply()?;
    let Pattern::Map {
        kind: MapKind::Par,
        f,
    } = outer.fun.as_pattern()?
    else {
        return None;
    };
    let join_app = outer.args[0].as_apply()?;
    if !matches!(join_app.fun.as_pattern(), Some(Pattern::Join)) {
        return None;
    }
    let input = &join_app.args[0];
    let in_ty = typecheck(input).ok()?;
    let (chunk_ty, _) = in_ty.as_array()?;
    let f = f.clone();
    let mapped = map(
        lam(chunk_ty.clone(), move |chunk| {
            Expr::apply(
                FunDecl::pattern(Pattern::Map {
                    kind: MapKind::Par,
                    f,
                }),
                [chunk],
            )
        }),
        input.clone(),
    );
    Some(join(mapped))
}

/// The other half of the tiling decomposition (§4.1):
/// `slide n s ↦ join ∘ map (slide n s) ∘ slide u v` with `u − v = n − s`.
pub fn slide_decomposition(e: &Expr, tile: &ArithExpr) -> Option<Expr> {
    let app = e.as_apply()?;
    let Pattern::Slide { size, step } = app.fun.as_pattern()? else {
        return None;
    };
    let (size, step) = (size.clone(), step.clone());
    let input = &app.args[0];
    let v = tile.clone() - (size.clone() - step.clone());
    let in_ty = typecheck(input).ok()?;
    let (elem_ty, _) = in_ty.as_array()?;
    let tile_ty = Type::array(elem_ty.clone(), tile.clone());
    let per_tile = lam(tile_ty, move |t| lift_core::build::slide(size, step, t));
    Some(join(map(
        per_tile,
        lift_core::build::slide(tile.clone(), v, input.clone()),
    )))
}

/// Builds the nested array type `[[…[elem]_{dims[r−1]}…]_{dims[1]}]_{dims[0]}`.
fn nest_array(elem: Type, dims: &[ArithExpr]) -> Type {
    dims.iter()
        .rev()
        .fold(elem, |acc, d| Type::array(acc, d.clone()))
}

/// The element type below `rank` array dimensions of `ty`.
fn elem_below(ty: &Type, rank: usize) -> Option<Type> {
    let mut cur = ty.clone();
    for _ in 0..rank {
        cur = cur.as_array()?.0.clone();
    }
    Some(cur)
}

/// Reassembles a grid of output tiles back into a flat grid: interleaves
/// the `rank` tile-grid dimensions with the `rank` in-tile dimensions by
/// adjacent transposes, then joins each pair
/// (`map(join) ∘ join ∘ map(transpose)` in 2D, §4.1).
fn reassemble_tiles(rank: usize, e: Expr) -> Expr {
    // Current order [t0 … t_{r−1} a0 … a_{r−1}], target [t0 a0 t1 a1 …]:
    // label every dimension with its target position and sort.
    let mut order: Vec<usize> = (0..rank)
        .map(|k| 2 * k)
        .chain((0..rank).map(|k| 2 * k + 1))
        .collect();
    let mut out = e;
    for d in adjacent_sort_depths(&mut order) {
        out = map_at_depth(d, FunDecl::pattern(Pattern::Transpose), out);
    }
    for d in 0..rank {
        out = map_at_depth(d, FunDecl::pattern(Pattern::Join), out);
    }
    out
}

/// **Overlapped tiling, rank-generic** (§4.1) — subsumes the paper's 1D and
/// 2D rules and extends them to 3D:
///
/// ```text
/// map_nd(f, slide_nd(n, s, x)) ↦
///   reassemble(map_nd(tile ⇒ map_nd(f, slide_nd(n, s, tile)),
///              slide_nd(u, v, x)))
/// ```
///
/// with one tile size `u_d` per dimension and the per-dimension constraint
/// `n_d − s_d = u_d − v_d` (the overlap equals the neighbourhood's halo).
/// `tiles` supplies `u_0 … u_{rank−1}` outermost first, typically fresh
/// tunable variables; the rule fails unless `tiles.len()` equals the
/// matched rank.
///
/// Multi-grid stencils (`map_nd(f, zip_nd(…))`, as Hotspot/SRAD/the §3.5
/// acoustic simulation build) tile uniformly: every windowed operand is
/// decomposed into overlapping `u`-tiles and every element-wise operand
/// into disjoint `v`-blocks (`slide_nd(v, v, ·)` — i.e. `split`), so the
/// zip re-forms per tile.
///
/// With `use_local`, each windowed tile is staged through local memory
/// first (composing with the §4.2 rule).
pub fn tile_nd(e: &Expr, tiles: &[ArithExpr], use_local: bool) -> Option<Expr> {
    let StencilNd {
        rank,
        f,
        sizes,
        steps,
        operands,
    } = match_stencil_nd(e)?;
    if tiles.len() != rank {
        return None;
    }
    // The deep-zip builders cover arities 2–3; wider zips stay untiled.
    if operands.len() > 3 {
        return None;
    }
    // Decomposing an element-wise operand into disjoint v-blocks only
    // yields one block per output tile when every step is 1 (v outputs per
    // tile ⇔ v elements per block); other steps would produce an
    // unequal-length zip, so refuse rather than emit an ill-typed rewrite.
    if operands.iter().any(|o| !o.is_windowed()) && !steps.iter().all(|s| s.is_cst(1)) {
        return None;
    }
    // v_d = u_d − (n_d − s_d).
    let vs: Vec<ArithExpr> = tiles
        .iter()
        .zip(sizes.iter().zip(&steps))
        .map(|(u, (n, s))| u.clone() - (n.clone() - s.clone()))
        .collect();

    // Per-operand tile grids and in-tile types.
    let mut grids = Vec::with_capacity(operands.len());
    let mut tile_tys = Vec::with_capacity(operands.len());
    let mut windowed = Vec::with_capacity(operands.len());
    for op in &operands {
        let in_ty = typecheck(op.expr()).ok()?;
        let elem = elem_below(&in_ty, rank)?;
        match op {
            Operand::Windowed(input) => {
                grids.push(slide_nd(tiles, &vs, input.clone()));
                tile_tys.push(nest_array(elem, tiles));
                windowed.push(true);
            }
            Operand::Elementwise(g) => {
                grids.push(slide_nd(&vs, &vs, g.clone()));
                tile_tys.push(nest_array(elem, &vs));
                windowed.push(false);
            }
        }
    }

    let stage = {
        let tile_tys = tile_tys.clone();
        move |i: usize, t: Expr| -> Expr {
            if use_local {
                Expr::apply(local_copy_nd(&tile_tys[i], rank), [t])
            } else {
                t
            }
        }
    };
    let per_tile: FunDecl = if operands.len() == 1 {
        let (sizes, steps) = (sizes.clone(), steps.clone());
        lam(tile_tys[0].clone(), move |t| {
            map_nd(rank, f, slide_nd(&sizes, &steps, stage(0, t)))
        })
    } else {
        let (sizes, steps) = (sizes.clone(), steps.clone());
        let flags = windowed.clone();
        lam(Type::Tuple(tile_tys.clone()), move |t| {
            let comps: Vec<Expr> = flags
                .iter()
                .enumerate()
                .map(|(i, is_win)| {
                    let c = get(i, t.clone());
                    if *is_win {
                        slide_nd(&sizes, &steps, stage(i, c))
                    } else {
                        c
                    }
                })
                .collect();
            map_nd(rank, f, zip_nd(rank, comps))
        })
    };
    let grid = if grids.len() == 1 {
        grids.pop().expect("one grid")
    } else {
        zip_nd(rank, grids)
    };
    Some(reassemble_tiles(rank, map_nd(rank, per_tile, grid)))
}

/// The local-memory rule of §4.2 for a rank-1–3 tile: nested
/// `toLocal(mapLcl(rank−1)(… mapLcl(0)(id) …))` copies, one `mapLcl` level
/// per tile dimension (`toLocal(mapLcl(1)(mapLcl(0)(id)))` in 2D). Only
/// the outermost `rank` array levels are parallelised — a tile of
/// array-valued *elements* copies each element with the innermost
/// `mapLcl(0)(id)`, not with extra local thread dimensions.
pub fn local_copy_nd(tile_ty: &Type, rank: usize) -> FunDecl {
    // Element types below each of the `rank` tile levels, innermost last.
    let mut elem_tys = Vec::new();
    let mut cur = tile_ty.clone();
    for _ in 0..rank {
        let el = cur
            .as_array()
            .expect("local_copy_nd: tile type shallower than its rank")
            .0
            .clone();
        elem_tys.push(el.clone());
        cur = el;
    }
    assert!(rank >= 1, "local_copy_nd needs an array type");
    let mut copy = FunDecl::pattern(Pattern::Map {
        kind: MapKind::Lcl(0),
        f: FunDecl::pattern(Pattern::Id),
    });
    for d in 1..rank {
        // The element type at this map level ([..]_{dims[rank−d..]}).
        let sub_ty = elem_tys[rank - 1 - d].clone();
        let inner = copy;
        copy = FunDecl::pattern(Pattern::Map {
            kind: MapKind::Lcl(d as u8),
            f: lam(sub_ty, move |sub| Expr::apply(inner, [sub])),
        });
    }
    FunDecl::pattern(Pattern::ToLocal { f: copy })
}

/// The generic §4.2 rule `map(id) ↦ toLocal(map(id))` as a local rewrite —
/// exposed for rule-level testing; the strategies compose
/// [`local_copy_nd`] directly.
pub fn to_local_rule(e: &Expr) -> Option<Expr> {
    let app = e.as_apply()?;
    let Pattern::Map { kind, f } = app.fun.as_pattern()? else {
        return None;
    };
    if !matches!(f.as_pattern(), Some(Pattern::Id)) {
        return None;
    }
    let inner = FunDecl::pattern(Pattern::Map {
        kind: *kind,
        f: FunDecl::pattern(Pattern::Id),
    });
    Some(Expr::apply(
        FunDecl::pattern(Pattern::ToLocal { f: inner }),
        app.args.clone(),
    ))
}

/// Applies [`tile_nd`] at the first matching position anywhere in the
/// expression. `tiles` carries one tile-size expression per dimension of
/// the stencil being tiled (outermost first), so only a stencil of exactly
/// that rank is rewritten.
pub fn tile_anywhere(e: &Expr, tiles: &[ArithExpr], use_local: bool) -> Option<Expr> {
    let t = |node: &Expr| tile_nd(node, tiles, use_local);
    lift_core::visit::rewrite_first(e, &t)
}

/// Splits a 1D map into grid/chunk form (used by coarsening tests):
/// `map f ↦ join ∘ map(map f) ∘ split m`.
pub fn split_join_rule(e: &Expr, m: &ArithExpr) -> Option<Expr> {
    let app = e.as_apply()?;
    let Pattern::Map {
        kind: MapKind::Par,
        f,
    } = app.fun.as_pattern()?
    else {
        return None;
    };
    let input = &app.args[0];
    let in_ty = typecheck(input).ok()?;
    let (elem_ty, _) = in_ty.as_array()?;
    let chunk_ty = Type::array(elem_ty.clone(), m.clone());
    let f = f.clone();
    let per_chunk = lam(chunk_ty, move |c| {
        Expr::apply(
            FunDecl::pattern(Pattern::Map {
                kind: MapKind::Par,
                f,
            }),
            [c],
        )
    });
    Some(join(map(per_chunk, split(m.clone(), input.clone()))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::eval::{eval_fun, DataValue};
    use lift_core::prelude::*;

    fn sum_nbh(n: i64) -> FunDecl {
        lam(Type::array(Type::f32(), n), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), nbh)
        })
    }

    fn stencil_prog_1d(n: i64, body_of: impl FnOnce(Expr) -> Expr) -> FunDecl {
        lam_named("A", Type::array(Type::f32(), n), body_of)
    }

    fn run(prog: &FunDecl, input: DataValue) -> Vec<f32> {
        eval_fun(prog, &[input]).expect("evaluates").flatten_f32()
    }

    fn tiles_of(us: &[i64]) -> Vec<ArithExpr> {
        us.iter().map(|u| ArithExpr::from(*u)).collect()
    }

    #[test]
    fn tile_1d_preserves_semantics() {
        // N = 18 padded to 20; tile u = 6, v = 4 → 4 tiles of 4
        // neighbourhoods = 16 outputs + 2 extra? No: (20-6+4)/4 = 4 tiles
        // covering (18-3+1)+2 = wait — use the padded length 20:
        // direct: (20-3)/1+1 = 18 neighbourhoods; tiled: 4 tiles × 4 = 16.
        // For exact cover choose N so (L−u)/v is exact AND counts agree:
        // L=19? Use L = 18 → pad to 20, tile 5, v = 3: (20-5)/3+1 = 6 tiles
        // × (5-3+1)=3 nbhs = 18 ✓.
        let prog = stencil_prog_1d(18, |a| {
            map(sum_nbh(3), slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let tiled_body = tile_anywhere(&l.body, &tiles_of(&[5]), false).expect("tiles");
        assert_eq!(typecheck(&l.body).unwrap(), typecheck(&tiled_body).unwrap());
        let tiled = FunDecl::lambda(l.params.clone(), tiled_body);
        let input = DataValue::from_f32s((0..18).map(|i| (i as f32) * 0.5 - 3.0));
        assert_eq!(run(&prog, input.clone()), run(&tiled, input));
    }

    #[test]
    fn tile_2d_preserves_semantics() {
        // 14×14 grid, pad → 16×16, nbh 3/1, tile 6, v = 4: (16−6)/4+1 = 3✗
        // (16-6+4)/4 = 3.5 — choose tile 4, v = 2: (16−4)/2+1 = 7 tiles,
        // each (4−3)/1+1 = 2 nbhs → 14 ✓.
        let f = lam(Type::array_2d(Type::f32(), 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(nbh))
        });
        let prog = lam_named("A", Type::array_2d(Type::f32(), 14, 14), |a| {
            lift_core::ndim::map2(
                f,
                lift_core::ndim::slide2(3, 1, lift_core::ndim::pad2(1, 1, Boundary::Clamp, a)),
            )
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let tiled_body = tile_anywhere(&l.body, &tiles_of(&[4, 4]), false).expect("tiles");
        assert_eq!(typecheck(&l.body).unwrap(), typecheck(&tiled_body).unwrap());
        let tiled = FunDecl::lambda(l.params.clone(), tiled_body);
        let data: Vec<f32> = (0..14 * 14).map(|i| ((i * 13) % 37) as f32).collect();
        let input = DataValue::from_f32s_2d(&data, 14, 14);
        assert_eq!(run(&prog, input.clone()), run(&tiled, input));
    }

    #[test]
    fn tile_3d_preserves_semantics() {
        // 6³ grid, pad → 8³, nbh 3/1; tile 4, v = 2: (8−4)/2+1 = 3 tiles
        // per dimension, each (4−3)/1+1 = 2 outputs → 6 per dimension ✓.
        let f = lam(Type::array_3d(Type::f32(), 3, 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(join(nbh)))
        });
        let prog = lam_named("A", Type::array_3d(Type::f32(), 6, 6, 6), |a| {
            lift_core::ndim::map3(
                f,
                lift_core::ndim::slide3(3, 1, lift_core::ndim::pad3(1, 1, Boundary::Clamp, a)),
            )
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        for use_local in [false, true] {
            let tiled_body =
                tile_anywhere(&l.body, &tiles_of(&[4, 4, 4]), use_local).expect("tiles");
            assert_eq!(typecheck(&l.body).unwrap(), typecheck(&tiled_body).unwrap());
            let tiled = FunDecl::lambda(l.params.clone(), tiled_body);
            let data: Vec<f32> = (0..216).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
            let input = DataValue::from_f32s_3d(&data, 6, 6, 6);
            assert_eq!(run(&prog, input.clone()), run(&tiled, input));
        }
    }

    #[test]
    fn tile_3d_per_dimension_tile_sizes() {
        // Independent tile sizes per dimension on a non-cubic 4×6×10 grid
        // (padded 6×8×12): u = (6, 4, 7) with v = (4, 2, 5) —
        // (6−6)/4+1 = 1, (8−4)/2+1 = 3, (12−7)/5+1 = 2 tiles.
        let f = lam(Type::array_3d(Type::f32(), 3, 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(join(nbh)))
        });
        let prog = lam_named("A", Type::array_3d(Type::f32(), 4, 6, 10), |a| {
            lift_core::ndim::map3(
                f,
                lift_core::ndim::slide3(3, 1, lift_core::ndim::pad3(1, 1, Boundary::Clamp, a)),
            )
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let tiled_body = tile_anywhere(&l.body, &tiles_of(&[6, 4, 7]), false).expect("tiles");
        assert_eq!(typecheck(&l.body).unwrap(), typecheck(&tiled_body).unwrap());
        let tiled = FunDecl::lambda(l.params.clone(), tiled_body);
        let data: Vec<f32> = (0..240).map(|i| ((i * 5) % 19) as f32).collect();
        let input = DataValue::from_f32s_3d(&data, 4, 6, 10);
        assert_eq!(run(&prog, input.clone()), run(&tiled, input));
    }

    #[test]
    fn tile_zipped_multi_grid_stencil() {
        // Hotspot-style: an element-wise grid zipped with neighbourhoods.
        // The element-wise operand decomposes into disjoint v-blocks.
        let tup = Type::Tuple(vec![Type::f32(), Type::array_3d(Type::f32(), 3, 3, 3)]);
        let f = lam(tup, |t| {
            let p = get(0, t.clone());
            let s = reduce(add_f32(), Expr::f32(0.0), join(join(get(1, t))));
            call(&add_f32(), [p, s])
        });
        let prog = lam2_named(
            "P",
            Type::array_3d(Type::f32(), 6, 6, 6),
            "T",
            Type::array_3d(Type::f32(), 6, 6, 6),
            |p, t| {
                let nbhs =
                    lift_core::ndim::slide3(3, 1, lift_core::ndim::pad3(1, 1, Boundary::Clamp, t));
                lift_core::ndim::map3(f, lift_core::ndim::zip_nd(3, vec![p, nbhs]))
            },
        );
        let FunDecl::Lambda(l) = &prog else { panic!() };
        for use_local in [false, true] {
            let tiled_body =
                tile_anywhere(&l.body, &tiles_of(&[4, 4, 4]), use_local).expect("tiles");
            assert_eq!(typecheck(&l.body).unwrap(), typecheck(&tiled_body).unwrap());
            let tiled = FunDecl::lambda(l.params.clone(), tiled_body);
            let pdata: Vec<f32> = (0..216).map(|i| (i % 13) as f32).collect();
            let tdata: Vec<f32> = (0..216).map(|i| ((i * 3) % 17) as f32).collect();
            let p = DataValue::from_f32s_3d(&pdata, 6, 6, 6);
            let t = DataValue::from_f32s_3d(&tdata, 6, 6, 6);
            let lhs = eval_fun(&prog, &[p.clone(), t.clone()])
                .expect("evaluates")
                .flatten_f32();
            let rhs = eval_fun(&tiled, &[p, t]).expect("evaluates").flatten_f32();
            assert_eq!(lhs, rhs, "use_local={use_local}");
        }
    }

    #[test]
    fn zipped_stencil_with_step_above_one_is_not_tiled() {
        // The disjoint v-block decomposition of element-wise operands is
        // only sound for step 1; the rule must refuse, not mis-rewrite.
        let tup = Type::Tuple(vec![Type::f32(), Type::array(Type::f32(), 3)]);
        let f = lam(tup, |t| {
            let g = get(0, t.clone());
            let s = reduce(add_f32(), Expr::f32(0.0), get(1, t));
            call(&add_f32(), [g, s])
        });
        let prog = lam2_named(
            "G",
            Type::array(Type::f32(), 5),
            "A",
            Type::array(Type::f32(), 11),
            |g, a| map(f, zip2(g, slide(3, 2, a))),
        );
        let FunDecl::Lambda(l) = &prog else { panic!() };
        assert!(typecheck(&l.body).is_ok());
        assert!(tile_anywhere(&l.body, &tiles_of(&[5]), false).is_none());
    }

    #[test]
    fn tiling_constraint_u_minus_v_equals_n_minus_s() {
        // For nbh (3,1) and tile u=5: v must be 3 (checked structurally).
        let prog = stencil_prog_1d(18, |a| {
            map(sum_nbh(3), slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let tiled = tile_anywhere(&l.body, &tiles_of(&[5]), false).expect("tiles");
        let slides: Vec<(i64, i64)> = {
            let mut out = Vec::new();
            lift_core::visit::walk(&tiled, &mut |node| {
                if let Some(Pattern::Slide { size, step }) = node.applied_pattern() {
                    if let (Some(sz), Some(st)) = (size.as_cst(), step.as_cst()) {
                        out.push((sz, st));
                    }
                }
            });
            out
        };
        assert!(slides.contains(&(5, 3)), "tiles slide: {slides:?}");
        assert!(slides.contains(&(3, 1)), "nbh slide: {slides:?}");
    }

    #[test]
    fn map_fusion_preserves_semantics() {
        let double = lam(Type::f32(), |x| call(&add_f32(), [x.clone(), x]));
        let inc = lam(Type::f32(), |x| call(&add_f32(), [x, Expr::f32(1.0)]));
        let prog = stencil_prog_1d(8, |a| map(double, map(inc, a)));
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let fused_body = map_fusion(&l.body).expect("fuses");
        // One map remains.
        let maps = lift_core::visit::find_positions(&fused_body, &|n| {
            matches!(n.applied_pattern(), Some(Pattern::Map { .. }))
        });
        assert_eq!(maps.len(), 1);
        let fused = FunDecl::lambda(l.params.clone(), fused_body);
        let input = DataValue::from_f32s([1.0, -2.0, 3.5, 0.0, 9.0, 4.0, -7.0, 2.0]);
        assert_eq!(run(&prog, input.clone()), run(&fused, input));
    }

    #[test]
    fn decomposed_halves_preserve_semantics() {
        // slide(3,1) = join ∘ map(slide(3,1)) ∘ slide(5,3) over length 20.
        let prog = stencil_prog_1d(20, |a| slide(3, 1, a));
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let rhs_body = slide_decomposition(&l.body, &ArithExpr::from(5)).expect("decomposes");
        assert_eq!(typecheck(&l.body).unwrap(), typecheck(&rhs_body).unwrap());
        let rhs = FunDecl::lambda(l.params.clone(), rhs_body);
        let input = DataValue::from_f32s((0..20).map(|i| i as f32));
        assert_eq!(run(&prog, input.clone()), run(&rhs, input));
    }

    #[test]
    fn map_join_interchange_preserves_semantics() {
        let inc = lam(Type::f32(), |x| call(&add_f32(), [x, Expr::f32(1.0)]));
        let prog = lam_named("A", Type::array_2d(Type::f32(), 4, 3), |a| {
            map(inc, join(a))
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let rhs_body = map_join_interchange(&l.body).expect("interchanges");
        assert_eq!(typecheck(&l.body).unwrap(), typecheck(&rhs_body).unwrap());
        let rhs = FunDecl::lambda(l.params.clone(), rhs_body);
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let input = DataValue::from_f32s_2d(&data, 4, 3);
        assert_eq!(run(&prog, input.clone()), run(&rhs, input));
    }

    #[test]
    fn split_join_rule_preserves_semantics() {
        let inc = lam(Type::f32(), |x| call(&add_f32(), [x, Expr::f32(1.0)]));
        let prog = stencil_prog_1d(12, |a| map(inc, a));
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let rhs_body = split_join_rule(&l.body, &ArithExpr::from(4)).expect("splits");
        assert_eq!(typecheck(&l.body).unwrap(), typecheck(&rhs_body).unwrap());
        let rhs = FunDecl::lambda(l.params.clone(), rhs_body);
        let input = DataValue::from_f32s((0..12).map(|i| i as f32 * 2.0));
        assert_eq!(run(&prog, input.clone()), run(&rhs, input));
    }

    #[test]
    fn to_local_rule_wraps_copy() {
        let a = Expr::Param(Param::fresh("A", Type::array(Type::f32(), 8)));
        let e = map(id(), a);
        let wrapped = to_local_rule(&e).expect("wraps");
        assert!(matches!(
            wrapped.as_apply().unwrap().fun.as_pattern(),
            Some(Pattern::ToLocal { .. })
        ));
    }

    #[test]
    fn tile_2d_with_local_memory_stages_tiles() {
        let f = lam(Type::array_2d(Type::f32(), 3, 3), |nbh| {
            reduce(add_f32(), Expr::f32(0.0), join(nbh))
        });
        let prog = lam_named("A", Type::array_2d(Type::f32(), 14, 14), |a| {
            lift_core::ndim::map2(
                f,
                lift_core::ndim::slide2(3, 1, lift_core::ndim::pad2(1, 1, Boundary::Clamp, a)),
            )
        });
        let FunDecl::Lambda(l) = &prog else { panic!() };
        let tiled_body = tile_anywhere(&l.body, &tiles_of(&[4, 4]), true).expect("tiles");
        let locals = lift_core::visit::find_positions(&tiled_body, &|n| {
            matches!(
                n.as_apply().and_then(|a| a.fun.as_pattern()),
                Some(Pattern::ToLocal { .. })
            )
        });
        assert_eq!(locals.len(), 1);
        // Semantics unchanged (evaluator ignores memory placement).
        let tiled = FunDecl::lambda(l.params.clone(), tiled_body);
        let data: Vec<f32> = (0..14 * 14).map(|i| (i % 11) as f32).collect();
        let input = DataValue::from_f32s_2d(&data, 14, 14);
        assert_eq!(run(&prog, input.clone()), run(&tiled, input));
    }
}
