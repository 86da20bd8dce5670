//! The 2D benchmarks: Stencil2D (SHOC), SRAD1/SRAD2 (Rodinia), Hotspot2D
//! (Rodinia), Gaussian, Gradient and Jacobi2D 5pt/9pt (Rawat et al.).
//!
//! Every builder produces the canonical composition of §3.4:
//! `map2(f, slide2(n, 1, pad2(h, h, clamp, A)))` — optionally zipped with a
//! second grid — and every golden reference re-uses the *same*
//! [`lift_core::userfun::UserFun`] closure for the pointwise math,
//! so the reference differs only in how neighbourhoods are gathered.

use std::sync::Arc;

use lift_core::build::*;
use lift_core::expr::{Expr, FunDecl};
use lift_core::ndim::{map2, pad2, slide2, zip_nd};
use lift_core::pattern::Boundary;
use lift_core::scalar::Scalar;
use lift_core::types::Type;
use lift_core::userfun::{add_f32, mul_f32, UserFun};

use crate::{Benchmark, Figure};

/// Clamped 2D gather used by all golden references.
fn g2(input: &[f32], i: i64, j: i64, rows: usize, cols: usize) -> f32 {
    let i = i.clamp(0, rows as i64 - 1) as usize;
    let j = j.clamp(0, cols as i64 - 1) as usize;
    input[i * cols + j]
}

fn f32s(vals: &[f32]) -> Vec<Scalar> {
    vals.iter().map(|v| Scalar::F32(*v)).collect()
}

fn nbh33() -> Type {
    Type::array_2d(Type::f32(), 3, 3)
}

/// `map2(f)` over 3×3 neighbourhoods of a clamp-padded single grid.
fn single_grid_3x3(rows: usize, cols: usize, f: FunDecl) -> FunDecl {
    lam_named("A", Type::array_2d(Type::f32(), rows, cols), move |a| {
        map2(f, slide2(3, 1, pad2(1, 1, Boundary::Clamp, a)))
    })
}

// --------------------------------------------------------------------------
// Jacobi2D 5pt
// --------------------------------------------------------------------------

/// The 5-point Jacobi user function (c, n, s, w, e).
pub fn jacobi5_uf() -> Arc<UserFun> {
    UserFun::new(
        "jacobi5",
        [
            ("c", Type::f32()),
            ("n", Type::f32()),
            ("s", Type::f32()),
            ("w", Type::f32()),
            ("e", Type::f32()),
        ],
        Type::f32(),
        "return 0.2f * (c + n + s + w + e);",
        |a| {
            Scalar::F32(
                0.2f32
                    * (a[0].as_f32()
                        + a[1].as_f32()
                        + a[2].as_f32()
                        + a[3].as_f32()
                        + a[4].as_f32()),
            )
        },
    )
}

fn jacobi2d5_builder(sizes: &[usize]) -> FunDecl {
    let uf = jacobi5_uf();
    let f = lam(nbh33(), move |nbh| {
        call(
            &uf,
            [
                at2(1, 1, nbh.clone()),
                at2(0, 1, nbh.clone()),
                at2(2, 1, nbh.clone()),
                at2(1, 0, nbh.clone()),
                at2(1, 2, nbh),
            ],
        )
    });
    single_grid_3x3(sizes[0], sizes[1], f)
}

fn jacobi2d5_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let a = &inputs[0];
    let uf = jacobi5_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            out.push(
                uf.call(&f32s(&[
                    g2(a, i, j, rows, cols),
                    g2(a, i - 1, j, rows, cols),
                    g2(a, i + 1, j, rows, cols),
                    g2(a, i, j - 1, rows, cols),
                    g2(a, i, j + 1, rows, cols),
                ]))
                .as_f32(),
            );
        }
    }
    out
}

// --------------------------------------------------------------------------
// Jacobi2D 9pt — reduction over the whole 3×3 window.
// --------------------------------------------------------------------------

fn jacobi2d9_builder(sizes: &[usize]) -> FunDecl {
    let f = lam(nbh33(), |nbh| {
        let sum = reduce(add_f32(), Expr::f32(0.0), join(nbh));
        call(&mul_f32(), [sum, Expr::f32(1.0 / 9.0)])
    });
    single_grid_3x3(sizes[0], sizes[1], f)
}

fn jacobi2d9_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let a = &inputs[0];
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            // Same accumulation order as the generated reduction loop:
            // window rows outermost.
            let mut acc = 0.0f32;
            for di in -1..=1 {
                for dj in -1..=1 {
                    acc += g2(a, i + di, j + dj, rows, cols);
                }
            }
            out.push(acc * (1.0 / 9.0));
        }
    }
    out
}

// --------------------------------------------------------------------------
// Gaussian 5×5 — weights from an `array` generator, fused weighted reduce.
// --------------------------------------------------------------------------

/// Binomial 5×5 Gaussian weight generator `w(i) = b[i/5]·b[i%5]/256`.
pub fn gauss_weight_uf() -> Arc<UserFun> {
    UserFun::new(
        "gaussWeight",
        [("i", Type::i32()), ("n", Type::i32())],
        Type::f32(),
        "const float b[5] = {1.0f, 4.0f, 6.0f, 4.0f, 1.0f}; \
         return b[i / 5] * b[i % 5] / 256.0f;",
        |a| {
            const B: [f32; 5] = [1.0, 4.0, 6.0, 4.0, 1.0];
            let i = a[0].as_i32() as usize;
            Scalar::F32(B[i / 5] * B[i % 5] / 256.0)
        },
    )
}

/// `acc + w·x` — the fused convolution step.
pub fn wadd_uf() -> Arc<UserFun> {
    UserFun::new(
        "wadd",
        [("acc", Type::f32()), ("w", Type::f32()), ("x", Type::f32())],
        Type::f32(),
        "return acc + w * x;",
        |a| Scalar::F32(a[0].as_f32() + a[1].as_f32() * a[2].as_f32()),
    )
}

fn gaussian_builder(sizes: &[usize]) -> FunDecl {
    let (rows, cols) = (sizes[0], sizes[1]);
    let wuf = wadd_uf();
    let f = lam(Type::array_2d(Type::f32(), 5, 5), move |nbh| {
        let weights = array_gen(gauss_weight_uf(), 25);
        let pairs = zip2(join(nbh), weights);
        let step = lam2(
            Type::f32(),
            Type::Tuple(vec![Type::f32(), Type::f32()]),
            move |acc, t| call(&wuf, [acc, get(1, t.clone()), get(0, t)]),
        );
        reduce(step, Expr::f32(0.0), pairs)
    });
    lam_named("A", Type::array_2d(Type::f32(), rows, cols), move |a| {
        map2(f, slide2(5, 1, pad2(2, 2, Boundary::Clamp, a)))
    })
}

fn gaussian_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let a = &inputs[0];
    let wuf = wadd_uf();
    let guf = gauss_weight_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            let mut acc = 0.0f32;
            for k in 0..25i32 {
                let (di, dj) = ((k / 5) as i64 - 2, (k % 5) as i64 - 2);
                let w = guf.call(&[Scalar::I32(k), Scalar::I32(25)]).as_f32();
                let x = g2(a, i + di, j + dj, rows, cols);
                acc = wuf.call(&f32s(&[acc, w, x])).as_f32();
            }
            out.push(acc);
        }
    }
    out
}

// --------------------------------------------------------------------------
// Gradient
// --------------------------------------------------------------------------

/// Gradient magnitude `√((e−w)² + (s−n)²)`.
pub fn gradient_uf() -> Arc<UserFun> {
    UserFun::new(
        "gradient",
        [
            ("n", Type::f32()),
            ("s", Type::f32()),
            ("w", Type::f32()),
            ("e", Type::f32()),
        ],
        Type::f32(),
        "return sqrt((e - w) * (e - w) + (s - n) * (s - n));",
        |a| {
            let (n, s, w, e) = (a[0].as_f32(), a[1].as_f32(), a[2].as_f32(), a[3].as_f32());
            Scalar::F32(((e - w) * (e - w) + (s - n) * (s - n)).sqrt())
        },
    )
}

fn gradient_builder(sizes: &[usize]) -> FunDecl {
    let uf = gradient_uf();
    let f = lam(nbh33(), move |nbh| {
        call(
            &uf,
            [
                at2(0, 1, nbh.clone()),
                at2(2, 1, nbh.clone()),
                at2(1, 0, nbh.clone()),
                at2(1, 2, nbh),
            ],
        )
    });
    single_grid_3x3(sizes[0], sizes[1], f)
}

fn gradient_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let a = &inputs[0];
    let uf = gradient_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            out.push(
                uf.call(&f32s(&[
                    g2(a, i - 1, j, rows, cols),
                    g2(a, i + 1, j, rows, cols),
                    g2(a, i, j - 1, rows, cols),
                    g2(a, i, j + 1, rows, cols),
                ]))
                .as_f32(),
            );
        }
    }
    out
}

// --------------------------------------------------------------------------
// Stencil2D (SHOC) — weighted 9-point.
// --------------------------------------------------------------------------

/// SHOC's weighted 9-point stencil.
pub fn stencil9_uf() -> Arc<UserFun> {
    UserFun::new(
        "stencil9",
        [
            ("c", Type::f32()),
            ("n", Type::f32()),
            ("s", Type::f32()),
            ("w", Type::f32()),
            ("e", Type::f32()),
            ("nw", Type::f32()),
            ("ne", Type::f32()),
            ("sw", Type::f32()),
            ("se", Type::f32()),
        ],
        Type::f32(),
        "return 0.25f * c + 0.15f * (n + s + w + e) + 0.05f * (nw + ne + sw + se);",
        |a| {
            let v: Vec<f32> = a.iter().map(|s| s.as_f32()).collect();
            Scalar::F32(
                0.25f32 * v[0]
                    + 0.15f32 * (v[1] + v[2] + v[3] + v[4])
                    + 0.05f32 * (v[5] + v[6] + v[7] + v[8]),
            )
        },
    )
}

fn stencil2d_builder(sizes: &[usize]) -> FunDecl {
    let uf = stencil9_uf();
    let f = lam(nbh33(), move |nbh| {
        call(
            &uf,
            [
                at2(1, 1, nbh.clone()),
                at2(0, 1, nbh.clone()),
                at2(2, 1, nbh.clone()),
                at2(1, 0, nbh.clone()),
                at2(1, 2, nbh.clone()),
                at2(0, 0, nbh.clone()),
                at2(0, 2, nbh.clone()),
                at2(2, 0, nbh.clone()),
                at2(2, 2, nbh),
            ],
        )
    });
    single_grid_3x3(sizes[0], sizes[1], f)
}

fn stencil2d_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let a = &inputs[0];
    let uf = stencil9_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            out.push(
                uf.call(&f32s(&[
                    g2(a, i, j, rows, cols),
                    g2(a, i - 1, j, rows, cols),
                    g2(a, i + 1, j, rows, cols),
                    g2(a, i, j - 1, rows, cols),
                    g2(a, i, j + 1, rows, cols),
                    g2(a, i - 1, j - 1, rows, cols),
                    g2(a, i - 1, j + 1, rows, cols),
                    g2(a, i + 1, j - 1, rows, cols),
                    g2(a, i + 1, j + 1, rows, cols),
                ]))
                .as_f32(),
            );
        }
    }
    out
}

// --------------------------------------------------------------------------
// SRAD1 (Rodinia) — diffusion coefficient.
// --------------------------------------------------------------------------

/// SRAD kernel 1: the diffusion coefficient from local gradients.
pub fn srad1_uf() -> Arc<UserFun> {
    UserFun::new(
        "srad1",
        [
            ("c", Type::f32()),
            ("n", Type::f32()),
            ("s", Type::f32()),
            ("w", Type::f32()),
            ("e", Type::f32()),
        ],
        Type::f32(),
        "float dn = n - c; float ds = s - c; float dw = w - c; float de = e - c; \
         float g2 = (dn*dn + ds*ds + dw*dw + de*de) / (c*c); \
         float l = (dn + ds + dw + de) / c; \
         float num = 0.5f*g2 - 0.0625f*(l*l); \
         float den = 1.0f + 0.25f*l; \
         float qsqr = num / (den*den); \
         float q0 = 0.0025f; \
         float d = (qsqr - q0) / (q0 * (1.0f + q0)); \
         float cf = 1.0f / (1.0f + d); \
         return cf < 0.0f ? 0.0f : (cf > 1.0f ? 1.0f : cf);",
        |a| {
            let (c, n, s, w, e) = (
                a[0].as_f32(),
                a[1].as_f32(),
                a[2].as_f32(),
                a[3].as_f32(),
                a[4].as_f32(),
            );
            let (dn, ds, dw, de) = (n - c, s - c, w - c, e - c);
            let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (c * c);
            let l = (dn + ds + dw + de) / c;
            let num = 0.5 * g2 - 0.0625 * (l * l);
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let q0 = 0.0025f32;
            let d = (qsqr - q0) / (q0 * (1.0 + q0));
            let cf = 1.0 / (1.0 + d);
            Scalar::F32(cf.clamp(0.0, 1.0))
        },
    )
}

fn srad1_builder(sizes: &[usize]) -> FunDecl {
    let uf = srad1_uf();
    let f = lam(nbh33(), move |nbh| {
        call(
            &uf,
            [
                at2(1, 1, nbh.clone()),
                at2(0, 1, nbh.clone()),
                at2(2, 1, nbh.clone()),
                at2(1, 0, nbh.clone()),
                at2(1, 2, nbh),
            ],
        )
    });
    single_grid_3x3(sizes[0], sizes[1], f)
}

fn srad1_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let a = &inputs[0];
    let uf = srad1_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            out.push(
                uf.call(&f32s(&[
                    g2(a, i, j, rows, cols),
                    g2(a, i - 1, j, rows, cols),
                    g2(a, i + 1, j, rows, cols),
                    g2(a, i, j - 1, rows, cols),
                    g2(a, i, j + 1, rows, cols),
                ]))
                .as_f32(),
            );
        }
    }
    out
}

// --------------------------------------------------------------------------
// SRAD2 (Rodinia) — divergence update using the coefficient grid.
// --------------------------------------------------------------------------

/// SRAD kernel 2: image update from the diffusion coefficients.
pub fn srad2_uf() -> Arc<UserFun> {
    UserFun::new(
        "srad2",
        [
            ("jc", Type::f32()),
            ("jn", Type::f32()),
            ("js", Type::f32()),
            ("jw", Type::f32()),
            ("je", Type::f32()),
            ("cc", Type::f32()),
            ("cs", Type::f32()),
            ("ce", Type::f32()),
        ],
        Type::f32(),
        "float dn = jn - jc; float ds = js - jc; float dw = jw - jc; float de = je - jc; \
         float div = cs*ds + cc*dn + ce*de + cc*dw; \
         return jc + 0.125f * div;",
        |a| {
            let v: Vec<f32> = a.iter().map(|s| s.as_f32()).collect();
            let (jc, jn, js, jw, je, cc, cs, ce) = (v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
            let (dn, ds, dw, de) = (jn - jc, js - jc, jw - jc, je - jc);
            let div = cs * ds + cc * dn + ce * de + cc * dw;
            Scalar::F32(jc + 0.125 * div)
        },
    )
}

fn srad2_builder(sizes: &[usize]) -> FunDecl {
    let (rows, cols) = (sizes[0], sizes[1]);
    let uf = srad2_uf();
    let grid_ty = Type::array_2d(Type::f32(), rows, cols);
    lam2_named("J", grid_ty.clone(), "C", grid_ty, move |j_grid, c_grid| {
        let j_nbhs = slide2(3, 1, pad2(1, 1, Boundary::Clamp, j_grid));
        let c_nbhs = slide2(3, 1, pad2(1, 1, Boundary::Clamp, c_grid));
        let tup = Type::Tuple(vec![nbh33(), nbh33()]);
        let f = lam(tup, move |t| {
            let jn = get(0, t.clone());
            let cn = get(1, t);
            call(
                &uf,
                [
                    at2(1, 1, jn.clone()),
                    at2(0, 1, jn.clone()),
                    at2(2, 1, jn.clone()),
                    at2(1, 0, jn.clone()),
                    at2(1, 2, jn),
                    at2(1, 1, cn.clone()),
                    at2(2, 1, cn.clone()),
                    at2(1, 2, cn),
                ],
            )
        });
        map2(f, zip_nd(2, vec![j_nbhs, c_nbhs]))
    })
}

fn srad2_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let (jg, cg) = (&inputs[0], &inputs[1]);
    let uf = srad2_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            out.push(
                uf.call(&f32s(&[
                    g2(jg, i, j, rows, cols),
                    g2(jg, i - 1, j, rows, cols),
                    g2(jg, i + 1, j, rows, cols),
                    g2(jg, i, j - 1, rows, cols),
                    g2(jg, i, j + 1, rows, cols),
                    g2(cg, i, j, rows, cols),
                    g2(cg, i + 1, j, rows, cols),
                    g2(cg, i, j + 1, rows, cols),
                ]))
                .as_f32(),
            );
        }
    }
    out
}

// --------------------------------------------------------------------------
// Hotspot2D (Rodinia) — temperature + power.
// --------------------------------------------------------------------------

/// Rodinia Hotspot's per-cell temperature update.
pub fn hotspot2d_uf() -> Arc<UserFun> {
    UserFun::new(
        "hotspot",
        [
            ("p", Type::f32()),
            ("c", Type::f32()),
            ("n", Type::f32()),
            ("s", Type::f32()),
            ("w", Type::f32()),
            ("e", Type::f32()),
        ],
        Type::f32(),
        "float delta = 0.001f * (p + 0.1f*(n + s - 2.0f*c) + 0.1f*(w + e - 2.0f*c) \
         + 0.05f*(80.0f - c)); \
         return c + delta;",
        |a| {
            let v: Vec<f32> = a.iter().map(|s| s.as_f32()).collect();
            let (p, c, n, s, w, e) = (v[0], v[1], v[2], v[3], v[4], v[5]);
            let delta = 0.001f32
                * (p + 0.1 * (n + s - 2.0 * c) + 0.1 * (w + e - 2.0 * c) + 0.05 * (80.0 - c));
            Scalar::F32(c + delta)
        },
    )
}

fn hotspot2d_builder(sizes: &[usize]) -> FunDecl {
    let (rows, cols) = (sizes[0], sizes[1]);
    let uf = hotspot2d_uf();
    let grid_ty = Type::array_2d(Type::f32(), rows, cols);
    lam2_named(
        "temp",
        grid_ty.clone(),
        "power",
        grid_ty,
        move |t_grid, p_grid| {
            let t_nbhs = slide2(3, 1, pad2(1, 1, Boundary::Clamp, t_grid));
            let tup = Type::Tuple(vec![Type::f32(), nbh33()]);
            let f = lam(tup, move |t| {
                let p = get(0, t.clone());
                let nb = get(1, t);
                call(
                    &uf,
                    [
                        p,
                        at2(1, 1, nb.clone()),
                        at2(0, 1, nb.clone()),
                        at2(2, 1, nb.clone()),
                        at2(1, 0, nb.clone()),
                        at2(1, 2, nb),
                    ],
                )
            });
            map2(f, zip_nd(2, vec![p_grid, t_nbhs]))
        },
    )
}

fn hotspot2d_reference(inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
    let (rows, cols) = (sizes[0], sizes[1]);
    let (tg, pg) = (&inputs[0], &inputs[1]);
    let uf = hotspot2d_uf();
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as i64 {
        for j in 0..cols as i64 {
            out.push(
                uf.call(&f32s(&[
                    pg[i as usize * cols + j as usize],
                    g2(tg, i, j, rows, cols),
                    g2(tg, i - 1, j, rows, cols),
                    g2(tg, i + 1, j, rows, cols),
                    g2(tg, i, j - 1, rows, cols),
                    g2(tg, i, j + 1, rows, cols),
                ]))
                .as_f32(),
            );
        }
    }
    out
}

/// The eight 2D benchmarks of Table 1.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "Stencil2D",
            dims: 2,
            points: 9,
            grids: 1,
            figure: Figure::Fig7,
            small: &[256, 256],
            large: None,
            paper_small: &[4098, 4098],
            paper_large: None,
            builder: stencil2d_builder,
            reference: stencil2d_reference,
        },
        Benchmark {
            name: "SRAD1",
            dims: 2,
            points: 5,
            grids: 1,
            figure: Figure::Fig7,
            small: &[504, 458],
            large: None,
            paper_small: &[504, 458],
            paper_large: None,
            builder: srad1_builder,
            reference: srad1_reference,
        },
        Benchmark {
            name: "SRAD2",
            dims: 2,
            points: 3,
            grids: 2,
            figure: Figure::Fig7,
            small: &[504, 458],
            large: None,
            paper_small: &[504, 458],
            paper_large: None,
            builder: srad2_builder,
            reference: srad2_reference,
        },
        Benchmark {
            name: "Hotspot2D",
            dims: 2,
            points: 5,
            grids: 2,
            figure: Figure::Fig7,
            small: &[256, 256],
            large: None,
            paper_small: &[8192, 8192],
            paper_large: None,
            builder: hotspot2d_builder,
            reference: hotspot2d_reference,
        },
        Benchmark {
            name: "Gaussian",
            dims: 2,
            points: 25,
            grids: 1,
            figure: Figure::Fig8,
            small: &[128, 128],
            large: Some(&[256, 256]),
            paper_small: &[4096, 4096],
            paper_large: Some(&[8192, 8192]),
            builder: gaussian_builder,
            reference: gaussian_reference,
        },
        Benchmark {
            name: "Gradient",
            dims: 2,
            points: 5,
            grids: 1,
            figure: Figure::Fig8,
            small: &[128, 128],
            large: Some(&[256, 256]),
            paper_small: &[4096, 4096],
            paper_large: Some(&[8192, 8192]),
            builder: gradient_builder,
            reference: gradient_reference,
        },
        Benchmark {
            name: "Jacobi2D5pt",
            dims: 2,
            points: 5,
            grids: 1,
            figure: Figure::Fig8,
            small: &[128, 128],
            large: Some(&[256, 256]),
            paper_small: &[4096, 4096],
            paper_large: Some(&[8192, 8192]),
            builder: jacobi2d5_builder,
            reference: jacobi2d5_reference,
        },
        Benchmark {
            name: "Jacobi2D9pt",
            dims: 2,
            points: 9,
            grids: 1,
            figure: Figure::Fig8,
            small: &[128, 128],
            large: Some(&[256, 256]),
            paper_small: &[4096, 4096],
            paper_large: Some(&[8192, 8192]),
            builder: jacobi2d9_builder,
            reference: jacobi2d9_reference,
        },
    ]
}
