//! The 3D benchmarks: Hotspot3D (Rodinia), the room-acoustics simulation
//! (§3.5 of the paper), Jacobi3D 7pt/13pt, Poisson 19pt and Heat 7pt
//! (Rawat et al.).

use std::sync::{Arc, OnceLock};

use lift_core::build::*;
use lift_core::expr::{Expr, FunDecl};
use lift_core::ndim::{map3, pad3, pad3_value, slide3, zip_nd};
use lift_core::pattern::Boundary;
use lift_core::scalar::Scalar;
use lift_core::types::Type;
use lift_core::userfun::{add_f32, library, UserFun};

use crate::{apply, f32s, Benchmark, Figure};

/// Clamped 3D gather (z outermost).
fn g3(input: &[f32], z: i64, y: i64, x: i64, nz: usize, ny: usize, nx: usize) -> f32 {
    let z = z.clamp(0, nz as i64 - 1) as usize;
    let y = y.clamp(0, ny as i64 - 1) as usize;
    let x = x.clamp(0, nx as i64 - 1) as usize;
    input[(z * ny + y) * nx + x]
}

/// Zero-padded 3D gather (acoustic boundaries).
fn g3z(input: &[f32], z: i64, y: i64, x: i64, nz: usize, ny: usize, nx: usize) -> f32 {
    if z < 0 || y < 0 || x < 0 || z >= nz as i64 || y >= ny as i64 || x >= nx as i64 {
        0.0
    } else {
        input[(z as usize * ny + y as usize) * nx + x as usize]
    }
}

fn nbh333() -> Type {
    Type::array_3d(Type::f32(), 3, 3, 3)
}

/// `map3(f)` over 3×3×3 clamp-padded neighbourhoods of one grid.
fn single_grid_3x3x3(sizes: &[usize], f: FunDecl) -> FunDecl {
    let ty = Type::array_3d(Type::f32(), sizes[0], sizes[1], sizes[2]);
    lam_named("A", ty, move |a| {
        map3(f, slide3(3, 1, pad3(1, 1, Boundary::Clamp, a)))
    })
}

/// The six face neighbours + centre of a 3×3×3 window, in the paper's
/// §3.5 order.
fn faces(nbh: &Expr) -> [Expr; 7] {
    [
        at3(1, 1, 1, nbh.clone()), // centre
        at3(0, 1, 1, nbh.clone()),
        at3(1, 0, 1, nbh.clone()),
        at3(1, 1, 0, nbh.clone()),
        at3(1, 1, 2, nbh.clone()),
        at3(1, 2, 1, nbh.clone()),
        at3(2, 1, 1, nbh.clone()),
    ]
}

// --------------------------------------------------------------------------
// Jacobi3D 7pt
// --------------------------------------------------------------------------

/// 7-point Jacobi average.
pub fn jacobi7_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "jacobi7",
        &["c", "a0", "a1", "a2", "a3", "a4", "a5"].map(|n| (n, Type::f32())),
        Type::f32(),
        "return (c + a0 + a1 + a2 + a3 + a4 + a5) / 7.0f;",
    )
}

fn jacobi3d7_builder(sizes: &[usize]) -> FunDecl {
    let uf = jacobi7_uf();
    let f = lam(nbh333(), move |nbh| {
        let [c, a0, a1, a2, a3, a4, a5] = faces(&nbh);
        call(&uf, [c, a0, a1, a2, a3, a4, a5])
    });
    single_grid_3x3x3(sizes, f)
}

fn jacobi3d7_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let a = &inputs[0];
    let uf = jacobi7_uf();
    let mut out = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                out.push(
                    apply(
                        &uf,
                        &f32s([
                            g3(a, z, y, x, nz, ny, nx),
                            g3(a, z - 1, y, x, nz, ny, nx),
                            g3(a, z, y - 1, x, nz, ny, nx),
                            g3(a, z, y, x - 1, nz, ny, nx),
                            g3(a, z, y, x + 1, nz, ny, nx),
                            g3(a, z, y + 1, x, nz, ny, nx),
                            g3(a, z + 1, y, x, nz, ny, nx),
                        ]),
                    )
                    .as_f32(),
                );
            }
        }
    }
    out
}

// --------------------------------------------------------------------------
// Jacobi3D 13pt — radius-2 star over a 5×5×5 window.
// --------------------------------------------------------------------------

/// 13-point (radius-2 star) Jacobi average.
pub fn jacobi13_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "jacobi13",
        &[
            "c", "z0", "z1", "z3", "z4", "y0", "y1", "y3", "y4", "x0", "x1", "x3", "x4",
        ]
        .map(|n| (n, Type::f32())),
        Type::f32(),
        "return (c + z0 + z1 + z3 + z4 + y0 + y1 + y3 + y4 + x0 + x1 + x3 + x4) / 13.0f;",
    )
}

fn jacobi3d13_builder(sizes: &[usize]) -> FunDecl {
    let uf = jacobi13_uf();
    let f = lam(Type::array_3d(Type::f32(), 5, 5, 5), move |nbh| {
        let args = [
            at3(2, 2, 2, nbh.clone()),
            at3(0, 2, 2, nbh.clone()),
            at3(1, 2, 2, nbh.clone()),
            at3(3, 2, 2, nbh.clone()),
            at3(4, 2, 2, nbh.clone()),
            at3(2, 0, 2, nbh.clone()),
            at3(2, 1, 2, nbh.clone()),
            at3(2, 3, 2, nbh.clone()),
            at3(2, 4, 2, nbh.clone()),
            at3(2, 2, 0, nbh.clone()),
            at3(2, 2, 1, nbh.clone()),
            at3(2, 2, 3, nbh.clone()),
            at3(2, 2, 4, nbh),
        ];
        call(&uf, args)
    });
    let ty = Type::array_3d(Type::f32(), sizes[0], sizes[1], sizes[2]);
    lam_named("A", ty, move |a| {
        map3(f, slide3(5, 1, pad3(2, 2, Boundary::Clamp, a)))
    })
}

fn jacobi3d13_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let a = &inputs[0];
    let uf = jacobi13_uf();
    let mut out = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                out.push(
                    apply(
                        &uf,
                        &f32s([
                            g3(a, z, y, x, nz, ny, nx),
                            g3(a, z - 2, y, x, nz, ny, nx),
                            g3(a, z - 1, y, x, nz, ny, nx),
                            g3(a, z + 1, y, x, nz, ny, nx),
                            g3(a, z + 2, y, x, nz, ny, nx),
                            g3(a, z, y - 2, x, nz, ny, nx),
                            g3(a, z, y - 1, x, nz, ny, nx),
                            g3(a, z, y + 1, x, nz, ny, nx),
                            g3(a, z, y + 2, x, nz, ny, nx),
                            g3(a, z, y, x - 2, nz, ny, nx),
                            g3(a, z, y, x - 1, nz, ny, nx),
                            g3(a, z, y, x + 1, nz, ny, nx),
                            g3(a, z, y, x + 2, nz, ny, nx),
                        ]),
                    )
                    .as_f32(),
                );
            }
        }
    }
    out
}

// --------------------------------------------------------------------------
// Poisson 19pt — weighted reduce with an `array` weight generator.
// --------------------------------------------------------------------------

/// Poisson 19-point weights by Manhattan distance within the 3×3×3 window
/// (corners get weight 0, leaving 19 live points).
pub fn poisson_weight_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "poissonWeight",
        &[("i", Type::i32()), ("n", Type::i32())],
        Type::f32(),
        "int z = i / 9; int y = (i % 9) / 3; int x = i % 3; \
         int m = abs(z - 1) + abs(y - 1) + abs(x - 1); \
         return (m == 0) ? 2.6666f : ((m == 1) ? -0.1666f : ((m == 2) ? -0.0833f : 0.0f));",
    )
}

fn poisson_builder(sizes: &[usize]) -> FunDecl {
    let wuf = crate::bench2d::wadd_uf();
    let f = lam(nbh333(), move |nbh| {
        let flat = join(join(nbh));
        let pairs = zip2(flat, array_gen(poisson_weight_uf(), 27));
        let step = lam2(
            Type::f32(),
            Type::Tuple(vec![Type::f32(), Type::f32()]),
            move |acc, t| call(&wuf, [acc, get(1, t.clone()), get(0, t)]),
        );
        reduce(step, Expr::f32(0.0), pairs)
    });
    single_grid_3x3x3(sizes, f)
}

fn poisson_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let a = &inputs[0];
    let wuf = crate::bench2d::wadd_uf();
    let puf = poisson_weight_uf();
    // The weights are the same at every element.
    let weights: Vec<f32> = (0..27)
        .map(|k| apply(&puf, &[Scalar::I32(k), Scalar::I32(27)]).as_f32())
        .collect();
    let mut out = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let mut acc = 0.0f32;
                for (k, &w) in weights.iter().enumerate() {
                    let (dz, dy, dx) = (
                        (k / 9) as i64 - 1,
                        ((k % 9) / 3) as i64 - 1,
                        (k % 3) as i64 - 1,
                    );
                    let v = g3(a, z + dz, y + dy, x + dx, nz, ny, nx);
                    acc = apply(&wuf, &f32s([acc, w, v])).as_f32();
                }
                out.push(acc);
            }
        }
    }
    out
}

// --------------------------------------------------------------------------
// Heat 7pt
// --------------------------------------------------------------------------

/// Explicit heat-equation step.
pub fn heat_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "heat7",
        &["c", "a0", "a1", "a2", "a3", "a4", "a5"].map(|n| (n, Type::f32())),
        Type::f32(),
        "return c + 0.125f * (a0 + a1 + a2 + a3 + a4 + a5 - 6.0f * c);",
    )
}

fn heat_builder(sizes: &[usize]) -> FunDecl {
    let uf = heat_uf();
    let f = lam(nbh333(), move |nbh| {
        let [c, a0, a1, a2, a3, a4, a5] = faces(&nbh);
        call(&uf, [c, a0, a1, a2, a3, a4, a5])
    });
    single_grid_3x3x3(sizes, f)
}

fn heat_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let a = &inputs[0];
    let uf = heat_uf();
    let mut out = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                out.push(
                    apply(
                        &uf,
                        &f32s([
                            g3(a, z, y, x, nz, ny, nx),
                            g3(a, z - 1, y, x, nz, ny, nx),
                            g3(a, z, y - 1, x, nz, ny, nx),
                            g3(a, z, y, x - 1, nz, ny, nx),
                            g3(a, z, y, x + 1, nz, ny, nx),
                            g3(a, z, y + 1, x, nz, ny, nx),
                            g3(a, z + 1, y, x, nz, ny, nx),
                        ]),
                    )
                    .as_f32(),
                );
            }
        }
    }
    out
}

// --------------------------------------------------------------------------
// Hotspot3D (Rodinia)
// --------------------------------------------------------------------------

/// Rodinia Hotspot3D per-cell update.
pub fn hotspot3d_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "hotspot3d",
        &["p", "c", "a0", "a1", "a2", "a3", "a4", "a5"].map(|n| (n, Type::f32())),
        Type::f32(),
        "float delta = 0.001f * (p + 0.1f*(a0 + a1 + a2 + a3 + a4 + a5 - 6.0f*c) \
         + 0.05f*(80.0f - c)); \
         return c + delta;",
    )
}

fn hotspot3d_builder(sizes: &[usize]) -> FunDecl {
    let uf = hotspot3d_uf();
    let ty = Type::array_3d(Type::f32(), sizes[0], sizes[1], sizes[2]);
    lam2_named("temp", ty.clone(), "power", ty, move |t_grid, p_grid| {
        let t_nbhs = slide3(3, 1, pad3(1, 1, Boundary::Clamp, t_grid));
        let tup = Type::Tuple(vec![Type::f32(), nbh333()]);
        let f = lam(tup, move |t| {
            let p = get(0, t.clone());
            let nb = get(1, t);
            let [c, a0, a1, a2, a3, a4, a5] = faces(&nb);
            call(&uf, [p, c, a0, a1, a2, a3, a4, a5])
        });
        map3(f, zip_nd(3, vec![p_grid, t_nbhs]))
    })
}

fn hotspot3d_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let (tg, pg) = (&inputs[0], &inputs[1]);
    let uf = hotspot3d_uf();
    let mut out = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                out.push(
                    apply(
                        &uf,
                        &f32s([
                            pg[(z as usize * ny + y as usize) * nx + x as usize],
                            g3(tg, z, y, x, nz, ny, nx),
                            g3(tg, z - 1, y, x, nz, ny, nx),
                            g3(tg, z, y - 1, x, nz, ny, nx),
                            g3(tg, z, y, x - 1, nz, ny, nx),
                            g3(tg, z, y, x + 1, nz, ny, nx),
                            g3(tg, z, y + 1, x, nz, ny, nx),
                            g3(tg, z + 1, y, x, nz, ny, nx),
                        ]),
                    )
                    .as_f32(),
                );
            }
        }
    }
    out
}

// --------------------------------------------------------------------------
// Acoustic room simulation (§3.5, Listing 3)
// --------------------------------------------------------------------------

/// Counts the in-grid face neighbours of cell `(i, j, k)` — the mask the
/// paper computes *on the fly* with the `array3` generator.
pub fn num_neighbours_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "numNeighbours",
        &[
            ("i", Type::i32()),
            ("j", Type::i32()),
            ("k", Type::i32()),
            ("ni", Type::i32()),
            ("nj", Type::i32()),
            ("nk", Type::i32()),
        ],
        Type::i32(),
        "return (i > 0) + (i < ni - 1) + (j > 0) + (j < nj - 1) + (k > 0) + (k < nk - 1);",
    )
}

/// The §3.5 acoustic update: `cf·((2 − l2·nn)·cur + l2·Σnbh − cf2·prev)`
/// with boundary-loss coefficients selected by the neighbour count.
pub fn acoustic_uf() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(
        &F,
        "acousticStep",
        &[
            ("prev", Type::f32()),
            ("cur", Type::f32()),
            ("sum", Type::f32()),
            ("nn", Type::i32()),
        ],
        Type::f32(),
        "float l2 = 0.25f; \
         float cf1 = (nn < 6) ? 0.999f : 1.0f; \
         float cf2 = (nn < 6) ? 0.998f : 1.0f; \
         return cf1 * ((2.0f - l2 * (float)nn) * cur + l2 * sum - cf2 * prev);",
    )
}

fn acoustic_builder(sizes: &[usize]) -> FunDecl {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let uf = acoustic_uf();
    let ty = Type::array_3d(Type::f32(), nz, ny, nx);
    lam2_named("prev", ty.clone(), "cur", ty, move |prev, cur| {
        // zip3(grid_{t-1}, slide3(3, 1, pad3(1, 1, zero, grid_t)), mask)
        let nbhs = slide3(3, 1, pad3_value(1, 1, 0.0f32, cur));
        let mask = array_gen3(num_neighbours_uf(), nz, ny, nx);
        let tup = Type::Tuple(vec![Type::f32(), nbh333(), Type::i32()]);
        let f = lam(tup, move |m| {
            let p = get(0, m.clone());
            let nb = get(1, m.clone());
            let nn = get(2, m);
            let [c, a0, a1, a2, a3, a4, a5] = faces(&nb);
            // Σ of the six face neighbours, in the paper's order.
            let sum = call(
                &add_f32(),
                [
                    call(
                        &add_f32(),
                        [
                            call(
                                &add_f32(),
                                [call(&add_f32(), [call(&add_f32(), [a0, a1]), a2]), a3],
                            ),
                            a4,
                        ],
                    ),
                    a5,
                ],
            );
            call(&uf, [p, c, sum, nn])
        });
        map3(f, zip_nd(3, vec![prev, nbhs, mask]))
    })
}

fn acoustic_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (nz, ny, nx) = (sizes[0], sizes[1], sizes[2]);
    let (prev, cur) = (&inputs[0], &inputs[1]);
    let auf = acoustic_uf();
    let nuf = num_neighbours_uf();
    let mut out = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let sum = ((((g3z(cur, z - 1, y, x, nz, ny, nx)
                    + g3z(cur, z, y - 1, x, nz, ny, nx))
                    + g3z(cur, z, y, x - 1, nz, ny, nx))
                    + g3z(cur, z, y, x + 1, nz, ny, nx))
                    + g3z(cur, z, y + 1, x, nz, ny, nx))
                    + g3z(cur, z + 1, y, x, nz, ny, nx);
                let nn = apply(
                    &nuf,
                    &[
                        Scalar::I32(z as i32),
                        Scalar::I32(y as i32),
                        Scalar::I32(x as i32),
                        Scalar::I32(nz as i32),
                        Scalar::I32(ny as i32),
                        Scalar::I32(nx as i32),
                    ],
                )
                .as_i32();
                out.push(
                    apply(
                        &auf,
                        &[
                            Scalar::F32(prev[(z as usize * ny + y as usize) * nx + x as usize]),
                            Scalar::F32(cur[(z as usize * ny + y as usize) * nx + x as usize]),
                            Scalar::F32(sum),
                            Scalar::I32(nn),
                        ],
                    )
                    .as_f32(),
                );
            }
        }
    }
    out
}

/// The six 3D benchmarks of Table 1.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "Hotspot3D",
            dims: 3,
            points: 7,
            grids: 2,
            figure: Figure::Fig7,
            small: &[8, 64, 64],
            large: None,
            paper_small: &[8, 512, 512],
            paper_large: None,
            builder: hotspot3d_builder,
            reference: hotspot3d_reference,
        },
        Benchmark {
            name: "Acoustic",
            dims: 3,
            points: 7,
            grids: 2,
            figure: Figure::Fig7,
            small: &[24, 32, 32],
            large: None,
            paper_small: &[404, 512, 512],
            paper_large: None,
            builder: acoustic_builder,
            reference: acoustic_reference,
        },
        Benchmark {
            name: "Jacobi3D7pt",
            dims: 3,
            points: 7,
            grids: 1,
            figure: Figure::Fig8,
            small: &[24, 24, 24],
            large: Some(&[40, 40, 40]),
            paper_small: &[256, 256, 256],
            paper_large: Some(&[512, 512, 512]),
            builder: jacobi3d7_builder,
            reference: jacobi3d7_reference,
        },
        Benchmark {
            name: "Jacobi3D13pt",
            dims: 3,
            points: 13,
            grids: 1,
            figure: Figure::Fig8,
            small: &[24, 24, 24],
            large: Some(&[40, 40, 40]),
            paper_small: &[256, 256, 256],
            paper_large: Some(&[512, 512, 512]),
            builder: jacobi3d13_builder,
            reference: jacobi3d13_reference,
        },
        Benchmark {
            name: "Poisson",
            dims: 3,
            points: 19,
            grids: 1,
            figure: Figure::Fig8,
            small: &[24, 24, 24],
            large: Some(&[40, 40, 40]),
            paper_small: &[256, 256, 256],
            paper_large: Some(&[512, 512, 512]),
            builder: poisson_builder,
            reference: poisson_reference,
        },
        Benchmark {
            name: "Heat",
            dims: 3,
            points: 7,
            grids: 1,
            figure: Figure::Fig8,
            small: &[24, 24, 24],
            large: Some(&[40, 40, 40]),
            paper_small: &[256, 256, 256],
            paper_large: Some(&[512, 512, 512]),
            builder: heat_builder,
            reference: heat_reference,
        },
    ]
}
