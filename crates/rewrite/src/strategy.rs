//! Exploration strategies: enumerating the lowered variants of a stencil
//! program with named tunable parameters.
//!
//! This encodes the search space the paper explores automatically: for each
//! benchmark Lift derives several low-level expressions (±overlapped tiling,
//! ±local memory, ±unrolling, ±thread coarsening) and each expression
//! carries numeric tunables (per-dimension tile sizes, coarsening factor;
//! the launch configuration is tuned separately by the harness). The
//! auto-tuner then picks the best (expression, parameters) pair per device.
//!
//! The tiling path is *rank-driven*: the unified [`match_stencil_nd`]
//! recogniser determines the stencil's rank (1–3), the tiled variants carry
//! one independent [`Tunable::TileSize`] per dimension (`TS0 … TSd−1`,
//! outermost first — the paper tunes tile sizes per dimension), and the
//! work-group lowering assigns one `mapWrg(d)`/`mapLcl(d)` pair per
//! dimension of the matched rank.

use lift_arith::ArithExpr;
use lift_core::expr::{Expr, FunDecl};
use lift_core::pattern::MapKind;
use lift_core::typecheck::{typecheck, typecheck_fun};
use lift_core::visit::substitute_sizes;

use crate::lowering::{coarsen_innermost, lower_grid, sequentialise, unroll};
use crate::rules::tile_anywhere;
use crate::stencil::match_stencil_nd;

/// A numeric parameter left symbolic in a [`Variant`], to be bound by the
/// auto-tuner before code generation.
#[derive(Debug, Clone, PartialEq)]
pub enum Tunable {
    /// An overlapped-tiling tile size `u` along *one* dimension (the
    /// rewrite fixed `v = u − (n − s)` on the same axis). A rank-`d` tiled
    /// variant carries `d` of these, named `TS0 … TSd−1` outermost first,
    /// each tuned independently.
    TileSize {
        /// The arithmetic variable name in the program (`TS<dim>`).
        var: String,
        /// Neighbourhood size `n` along this dimension.
        nbh_size: i64,
        /// Neighbourhood step `s` along this dimension.
        nbh_step: i64,
        /// Padded input extent along this dimension.
        len: i64,
    },
    /// A thread-coarsening factor (elements per thread).
    CoarsenFactor {
        /// The arithmetic variable name in the program.
        var: String,
        /// The length of the coarsened dimension (the factor must divide
        /// it).
        len: i64,
    },
}

impl Tunable {
    /// The variable name bound by the tuner.
    pub fn var(&self) -> &str {
        match self {
            Tunable::TileSize { var, .. } | Tunable::CoarsenFactor { var, .. } => var,
        }
    }

    /// Whether `value` is a legal assignment.
    pub fn is_valid(&self, value: i64) -> bool {
        match self {
            Tunable::TileSize {
                nbh_size,
                nbh_step,
                len,
                ..
            } => {
                let halo = nbh_size - nbh_step;
                let v = value - halo;
                value >= *nbh_size && v > 0 && value <= *len && (*len - value) % v == 0
            }
            Tunable::CoarsenFactor { len, .. } => value >= 1 && len % value == 0,
        }
    }

    /// All legal assignments up to `max` (ascending).
    pub fn candidates(&self, max: i64) -> Vec<i64> {
        (1..=max).filter(|v| self.is_valid(*v)).collect()
    }
}

/// One lowered implementation candidate of a stencil program.
#[derive(Debug, Clone)]
pub struct Variant {
    /// A short descriptive name (`"global"`, `"tiled-local-unroll"`, …).
    pub name: String,
    /// The lowered program (tunables still symbolic).
    pub program: FunDecl,
    /// The tunables appearing in the program.
    pub tunables: Vec<Tunable>,
    /// Grid dimensionality (1–3) of the output.
    pub dims: usize,
    /// Whether overlapped tiling was applied.
    pub tiled: bool,
    /// Whether tiles are staged through local memory.
    pub local_mem: bool,
    /// Whether inner loops were unrolled.
    pub unrolled: bool,
    /// Whether the outermost (z) grid dimension is strip-mined into a
    /// sequential per-thread loop instead of being spread across the
    /// NDRange (the PPCG 3D mapping). Launch derivation must not scale the
    /// z global size by the output extent when this is set.
    pub strip_mined_z: bool,
}

fn glb_kinds(dims: usize) -> Vec<MapKind> {
    (0..dims).rev().map(|d| MapKind::Glb(d as u8)).collect()
}

fn rebuild(prog: &FunDecl, body: Expr) -> FunDecl {
    match prog {
        FunDecl::Lambda(l) => FunDecl::lambda(l.params.clone(), body),
        _ => unreachable!("programs are top-level lambdas"),
    }
}

/// The unroll limit: covers every neighbourhood in the benchmark suite
/// (5×5 = 25 points, 3³ = 27 points) without unrolling tile-sized loops.
const UNROLL_LIMIT: i64 = 32;

/// Enumerates the implementation space of a stencil program.
///
/// `prog` must be a top-level lambda producing a 1–3D grid, with concrete
/// sizes. Variants that require a recognisable `map_n ∘ slide_n` stencil
/// shape (tiling) are emitted only when the shape matches; every program
/// gets at least the `global` variants.
///
/// # Panics
///
/// Panics if `prog` is not a lambda or is ill-typed — the input comes from
/// the benchmark suite, so this is a programming error, not user input.
pub fn enumerate_variants(prog: &FunDecl) -> Vec<Variant> {
    let out_ty = typecheck_fun(prog).expect("ill-typed program");
    let dims = out_ty.dims();
    assert!((1..=3).contains(&dims), "unsupported dimensionality {dims}");
    let body = match prog {
        FunDecl::Lambda(l) => &l.body,
        _ => panic!("program must be a top-level lambda"),
    };

    let mut variants = Vec::new();

    // --- global (one thread per element) --------------------------------
    let global = sequentialise(&lower_grid(body, &glb_kinds(dims)));
    variants.push(Variant {
        name: "global".into(),
        program: rebuild(prog, global.clone()),
        tunables: vec![],
        dims,
        tiled: false,
        local_mem: false,
        unrolled: false,
        strip_mined_z: false,
    });
    variants.push(Variant {
        name: "global-unroll".into(),
        program: rebuild(prog, unroll(&global, UNROLL_LIMIT)),
        tunables: vec![],
        dims,
        tiled: false,
        local_mem: false,
        unrolled: true,
        strip_mined_z: false,
    });

    // --- thread coarsening ----------------------------------------------
    let cf = ArithExpr::var("CF");
    if let Some(coarse) = coarsen_innermost(body, &cf) {
        let mut kinds = glb_kinds(dims);
        kinds.push(MapKind::Seq);
        let lowered = unroll(&sequentialise(&lower_grid(&coarse, &kinds)), UNROLL_LIMIT);
        let innermost_len = out_ty.shape().last().and_then(|n| n.as_cst()).unwrap_or(0);
        if innermost_len > 0 {
            variants.push(Variant {
                name: "coarsened".into(),
                program: rebuild(prog, lowered),
                tunables: vec![Tunable::CoarsenFactor {
                    var: "CF".into(),
                    len: innermost_len,
                }],
                dims,
                tiled: false,
                local_mem: false,
                unrolled: true,
                strip_mined_z: false,
            });
        }
    }

    // --- overlapped tiling ------------------------------------------------
    if let Some(info) = find_tile_info(body) {
        let tile_vars = info.tile_vars();
        for (use_local, suffix) in [(false, "tiled"), (true, "tiled-local")] {
            if let Some(tiled) = tile_anywhere(body, &tile_vars, use_local) {
                // One Wrg/Lcl pair per dimension of the *matched* rank,
                // outermost dimension on the highest OpenCL index.
                let kinds: Vec<MapKind> = (0..info.rank)
                    .rev()
                    .map(|d| MapKind::Wrg(d as u8))
                    .chain((0..info.rank).rev().map(|d| MapKind::Lcl(d as u8)))
                    .collect();
                let lowered = sequentialise(&lower_grid(&tiled, &kinds));
                let tunables = info.tile_tunables();
                variants.push(Variant {
                    name: suffix.into(),
                    program: rebuild(prog, lowered.clone()),
                    tunables: tunables.clone(),
                    dims,
                    tiled: true,
                    local_mem: use_local,
                    unrolled: false,
                    strip_mined_z: false,
                });
                variants.push(Variant {
                    name: format!("{suffix}-unroll"),
                    program: rebuild(prog, unroll(&lowered, UNROLL_LIMIT)),
                    tunables,
                    dims,
                    tiled: true,
                    local_mem: use_local,
                    unrolled: true,
                    strip_mined_z: false,
                });
            }
        }
    }

    variants
}

/// The tileable-stencil facts exploration needs: the matched rank and, per
/// dimension (outermost first), the neighbourhood geometry and the padded
/// input extent.
pub struct StencilInfo {
    /// Matched stencil rank (1–3).
    pub rank: usize,
    /// Neighbourhood size per dimension.
    pub sizes: Vec<i64>,
    /// Neighbourhood step per dimension.
    pub steps: Vec<i64>,
    /// Padded (windowed-input) extent per dimension.
    pub lens: Vec<i64>,
}

impl StencilInfo {
    /// The per-dimension tile-size variables (`TS0 … TSd−1`, outermost
    /// first) the tiling rewrite leaves symbolic.
    pub fn tile_vars(&self) -> Vec<ArithExpr> {
        (0..self.rank)
            .map(|d| ArithExpr::var(format!("TS{d}")))
            .collect()
    }

    /// The matching per-dimension [`Tunable::TileSize`] declarations —
    /// the single source of the `TS<dim>` naming scheme shared by the Lift
    /// exploration and the PPCG baseline.
    pub fn tile_tunables(&self) -> Vec<Tunable> {
        (0..self.rank)
            .map(|d| Tunable::TileSize {
                var: format!("TS{d}"),
                nbh_size: self.sizes[d],
                nbh_step: self.steps[d],
                len: self.lens[d],
            })
            .collect()
    }
}

/// Finds the first recognisable stencil in `body` with fully concrete
/// geometry (sizes, steps, and windowed-input extents).
pub fn find_tile_info(body: &Expr) -> Option<StencilInfo> {
    let mut result = None;
    lift_core::visit::walk(body, &mut |node| {
        if result.is_some() {
            return;
        }
        let Some(st) = match_stencil_nd(node) else {
            return;
        };
        let sizes: Option<Vec<i64>> = st.sizes.iter().map(ArithExpr::as_cst).collect();
        let steps: Option<Vec<i64>> = st.steps.iter().map(ArithExpr::as_cst).collect();
        let (Some(sizes), Some(steps)) = (sizes, steps) else {
            return;
        };
        let Ok(t) = typecheck(st.windowed_input()) else {
            return;
        };
        let lens: Vec<i64> = t
            .shape()
            .iter()
            .take(st.rank)
            .filter_map(ArithExpr::as_cst)
            .collect();
        if lens.len() == st.rank {
            result = Some(StencilInfo {
                rank: st.rank,
                sizes,
                steps,
                lens,
            });
        }
    });
    result
}

/// Binds a variant's tunables and returns the concrete program, or `None`
/// if any value is invalid.
pub fn bind_tunables(variant: &Variant, values: &[(String, i64)]) -> Option<FunDecl> {
    for t in &variant.tunables {
        let v = values.iter().find(|(n, _)| n == t.var())?.1;
        if !t.is_valid(v) {
            return None;
        }
    }
    let bindings = lift_arith::Bindings::from_iter(values.iter().map(|(n, v)| (n.as_str(), *v)));
    Some(substitute_sizes(&variant.program, &bindings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::prelude::*;

    fn jacobi1d(n: i64) -> FunDecl {
        lam_named("A", Type::array(Type::f32(), n), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), nbh)
            });
            map(sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        })
    }

    fn jacobi2d(n: i64) -> FunDecl {
        lam_named("A", Type::array_2d(Type::f32(), n, n), |a| {
            let f = lam(Type::array_2d(Type::f32(), 3, 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), join(nbh))
            });
            lift_core::ndim::map2(
                f,
                lift_core::ndim::slide2(3, 1, lift_core::ndim::pad2(1, 1, Boundary::Clamp, a)),
            )
        })
    }

    #[test]
    fn enumerates_expected_variants_1d() {
        let vs = enumerate_variants(&jacobi1d(30));
        let names: Vec<&str> = vs.iter().map(|v| v.name.as_str()).collect();
        assert!(names.contains(&"global"));
        assert!(names.contains(&"global-unroll"));
        assert!(names.contains(&"coarsened"));
        assert!(names.contains(&"tiled"));
        assert!(names.contains(&"tiled-local"));
        assert!(names.contains(&"tiled-local-unroll"));
    }

    fn jacobi3d(n: i64) -> FunDecl {
        lam_named("A", Type::array_3d(Type::f32(), n, n, n), |a| {
            let f = lam(Type::array_3d(Type::f32(), 3, 3, 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), join(join(nbh)))
            });
            lift_core::ndim::map3(
                f,
                lift_core::ndim::slide3(3, 1, lift_core::ndim::pad3(1, 1, Boundary::Clamp, a)),
            )
        })
    }

    #[test]
    fn enumerates_expected_variants_2d() {
        let vs = enumerate_variants(&jacobi2d(14));
        let names: Vec<&str> = vs.iter().map(|v| v.name.as_str()).collect();
        assert!(names.contains(&"tiled-local"), "got {names:?}");
        let tiled = vs.iter().find(|v| v.name == "tiled").unwrap();
        assert_eq!(tiled.tunables.len(), 2, "one tile size per dimension");
        for (d, t) in tiled.tunables.iter().enumerate() {
            match t {
                Tunable::TileSize {
                    var,
                    nbh_size,
                    nbh_step,
                    len,
                } => {
                    assert_eq!(var, &format!("TS{d}"));
                    assert_eq!(*nbh_size, 3);
                    assert_eq!(*nbh_step, 1);
                    assert_eq!(*len, 16); // padded
                }
                other => panic!("unexpected tunable {other:?}"),
            }
        }
    }

    #[test]
    fn enumerates_tiled_variants_3d_with_per_dimension_tunables() {
        let vs = enumerate_variants(&jacobi3d(6));
        let names: Vec<&str> = vs.iter().map(|v| v.name.as_str()).collect();
        for want in ["tiled", "tiled-local", "tiled-unroll", "tiled-local-unroll"] {
            assert!(names.contains(&want), "missing {want}, got {names:?}");
        }
        let tiled = vs.iter().find(|v| v.name == "tiled-local").unwrap();
        assert_eq!(tiled.dims, 3);
        assert!(tiled.tiled && tiled.local_mem);
        let vars: Vec<&str> = tiled.tunables.iter().map(|t| t.var()).collect();
        assert_eq!(vars, vec!["TS0", "TS1", "TS2"]);
    }

    #[test]
    fn tile_size_validity() {
        let t = Tunable::TileSize {
            var: "TS0".into(),
            nbh_size: 3,
            nbh_step: 1,
            len: 16,
        };
        // v = u − 2 must divide 16 − u.
        assert!(t.is_valid(4)); // v=2, (16−4)%2 == 0
        assert!(t.is_valid(16)); // one tile
        assert!(!t.is_valid(2)); // smaller than the neighbourhood
        assert!(!t.is_valid(5)); // v=3, (16−5)%3 ≠ 0
        assert_eq!(t.candidates(16), vec![3, 4, 9, 16]);
    }

    #[test]
    fn per_dimension_tile_sizes_are_independent() {
        // A non-cubic grid: each dimension gets its own validity domain.
        let prog = lam_named("A", Type::array_2d(Type::f32(), 14, 30), |a| {
            let f = lam(Type::array_2d(Type::f32(), 3, 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), join(nbh))
            });
            lift_core::ndim::map2(
                f,
                lift_core::ndim::slide2(3, 1, lift_core::ndim::pad2(1, 1, Boundary::Clamp, a)),
            )
        });
        let vs = enumerate_variants(&prog);
        let tiled = vs.iter().find(|v| v.name == "tiled").unwrap();
        let t0 = &tiled.tunables[0];
        let t1 = &tiled.tunables[1];
        assert_eq!(t0.candidates(16), vec![3, 4, 9, 16]); // len 16
        assert_eq!(t1.candidates(32), vec![3, 4, 5, 7, 8, 12, 17, 32]); // len 32
                                                                        // Binding them independently concretises the program.
        let bound = bind_tunables(tiled, &[("TS0".into(), 4), ("TS1".into(), 12)]).expect("valid");
        assert_eq!(
            typecheck_fun(&bound).unwrap(),
            typecheck_fun(&prog).unwrap()
        );
    }

    #[test]
    fn coarsen_factor_validity() {
        let t = Tunable::CoarsenFactor {
            var: "CF".into(),
            len: 12,
        };
        assert_eq!(t.candidates(12), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn variants_typecheck_to_same_type() {
        let prog = jacobi2d(14);
        let want = typecheck_fun(&prog).unwrap();
        for v in enumerate_variants(&prog) {
            if v.tunables.is_empty() {
                assert_eq!(
                    typecheck_fun(&v.program).unwrap(),
                    want,
                    "variant {} changed the type",
                    v.name
                );
            }
        }
    }

    #[test]
    fn bind_tunables_concretises() {
        let prog = jacobi2d(14);
        let vs = enumerate_variants(&prog);
        let tiled = vs.iter().find(|v| v.name == "tiled").unwrap();
        let bound = bind_tunables(tiled, &[("TS0".into(), 4), ("TS1".into(), 4)]).expect("valid");
        // Fully concrete now: typechecks to the same type as the original.
        assert_eq!(
            typecheck_fun(&bound).unwrap(),
            typecheck_fun(&prog).unwrap()
        );
        // Invalid tile size is rejected.
        assert!(bind_tunables(tiled, &[("TS0".into(), 5), ("TS1".into(), 4)]).is_none());
        // Missing per-dimension values are rejected.
        assert!(bind_tunables(tiled, &[("TS0".into(), 4)]).is_none());
    }
}
