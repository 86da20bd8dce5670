//! The CGO'18 benchmark suite (Table 1 of the paper).
//!
//! Every benchmark provides
//!
//! * its Lift **program** — a high-level expression built from `pad`,
//!   `slide` and `map` compositions exactly as §3 describes,
//! * a **golden reference** — an independent, loop-based Rust
//!   implementation used to validate generated kernels bit-exactly,
//! * deterministic **input generators**, and
//! * its Table-1 metadata (dimensionality, points, grid count, sizes).
//!
//! Grid sizes are scaled down from the paper's (the virtual device executes
//! every work-item; the analytic model supplies absolute throughput), with
//! the *relative* proportions preserved — in particular SRAD's grids stay
//! much smaller than the rest, which is what makes SRAD under-perform on the
//! big-GPU profiles in Figure 7 (§7.1). [`Benchmark::size`] picks the
//! paper's original grids instead when asked to (slow; the `lift-harness`
//! binary does so under `LIFT_FULL_SIZES=1`).

#![forbid(unsafe_code)]

pub mod bench2d;
pub mod bench3d;
pub mod inputs;
pub mod refkernels;

use std::sync::Arc;

use lift_core::expr::FunDecl;
use lift_core::scalar::Scalar;
use lift_core::userfun::{add_f32, id_f32, max_f32, mul_f32, UserFun};

/// `uf` applied to `args`, as the golden references call it: their
/// arguments never index a constant array out of its range.
fn apply(uf: &UserFun, args: &[Scalar]) -> Scalar {
    uf.call(args).unwrap_or_else(|e| panic!("{e}"))
}

/// Float arguments for [`apply`].
fn f32s<const N: usize>(vals: [f32; N]) -> [Scalar; N] {
    vals.map(Scalar::F32)
}

/// Which figure(s) of the paper a benchmark appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 7: comparison against hand-written kernels.
    Fig7,
    /// Figure 8: comparison against PPCG (small & large sizes).
    Fig8,
}

/// One Table-1 benchmark.
#[derive(Clone)]
pub struct Benchmark {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Grid dimensionality.
    pub dims: usize,
    /// Stencil points.
    pub points: usize,
    /// Number of input grids.
    pub grids: usize,
    /// Which figure the benchmark belongs to.
    pub figure: Figure,
    /// Scaled default size, outermost dimension first.
    pub small: &'static [usize],
    /// Scaled large size (Fig. 8 benchmarks only).
    pub large: Option<&'static [usize]>,
    /// The paper's original sizes (see [`Benchmark::size`]).
    pub paper_small: &'static [usize],
    /// The paper's original large sizes.
    pub paper_large: Option<&'static [usize]>,
    /// Builds the high-level Lift program for the given grid size.
    pub builder: fn(&[usize]) -> FunDecl,
    /// The golden sequential implementation.
    pub reference: fn(&[Vec<f32>], &[usize]) -> Vec<f32>,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("dims", &self.dims)
            .field("points", &self.points)
            .field("grids", &self.grids)
            .finish_non_exhaustive()
    }
}

impl Benchmark {
    /// The Lift program at size `sizes`.
    pub fn program(&self, sizes: &[usize]) -> FunDecl {
        (self.builder)(sizes)
    }

    /// The golden output for `inputs` at size `sizes`.
    pub fn golden(&self, inputs: &[Vec<f32>], sizes: &[usize]) -> Vec<f32> {
        (self.reference)(inputs, sizes)
    }

    /// Deterministic inputs (`self.grids` buffers) for size `sizes`.
    pub fn gen_inputs(&self, sizes: &[usize], seed: u64) -> Vec<Vec<f32>> {
        inputs::generate(self.name, self.grids, sizes, seed)
    }

    /// Output element count at `sizes`.
    pub fn out_elements(&self, sizes: &[usize]) -> usize {
        sizes.iter().product()
    }

    /// The size to run: the small or (where the benchmark has one) large
    /// grid, scaled down unless `full` asks for the paper's original.
    pub fn size(&self, large: bool, full: bool) -> Vec<usize> {
        let pick = |s: &'static [usize], p: &'static [usize]| {
            if full {
                p.to_vec()
            } else {
                s.to_vec()
            }
        };
        if large {
            match (self.large, self.paper_large) {
                (Some(s), Some(p)) => pick(s, p),
                _ => pick(self.small, self.paper_small),
            }
        } else {
            pick(self.small, self.paper_small)
        }
    }
}

/// All benchmarks of Table 1, in the paper's order.
pub fn suite() -> Vec<Benchmark> {
    let mut all = bench2d::benchmarks();
    all.extend(bench3d::benchmarks());
    all
}

/// The Figure-7 set (hand-written comparisons), in plotting order.
pub fn fig7_names() -> [&'static str; 6] {
    [
        "Acoustic",
        "Hotspot2D",
        "Hotspot3D",
        "SRAD1",
        "SRAD2",
        "Stencil2D",
    ]
}

/// The Figure-8 set (PPCG comparisons), in plotting order.
pub fn fig8_names() -> [&'static str; 8] {
    [
        "Gaussian",
        "Gradient",
        "Heat",
        "Jacobi2D5pt",
        "Jacobi2D9pt",
        "Jacobi3D13pt",
        "Jacobi3D7pt",
        "Poisson",
    ]
}

/// Looks up a benchmark by name.
///
/// # Panics
///
/// Panics when the name is unknown — benchmark names are compile-time
/// constants in this crate, so a miss is a programming error.
pub fn by_name(name: &str) -> Benchmark {
    suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
}

/// Every library user function: lift-core's four and the suite's fifteen.
pub fn user_functions() -> Vec<Arc<UserFun>> {
    use bench2d::*;
    use bench3d::*;
    vec![
        add_f32(),
        mul_f32(),
        max_f32(),
        id_f32(),
        jacobi5_uf(),
        gauss_weight_uf(),
        wadd_uf(),
        gradient_uf(),
        stencil9_uf(),
        srad1_uf(),
        srad2_uf(),
        hotspot2d_uf(),
        jacobi7_uf(),
        jacobi13_uf(),
        poisson_weight_uf(),
        heat_uf(),
        hotspot3d_uf(),
        num_neighbours_uf(),
        acoustic_uf(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::eval::{eval_fun, DataValue};
    use lift_core::typecheck::typecheck_fun;
    use lift_core::types::Type;

    fn tiny(sizes: &[usize]) -> Vec<usize> {
        // Shrink any benchmark to an evaluator-friendly size (keep ≥ 6 so
        // every neighbourhood fits, keep proportions crudely).
        sizes.iter().map(|s| (*s).clamp(6, 10)).collect()
    }

    fn as_data(input: &[f32], sizes: &[usize]) -> DataValue {
        match sizes.len() {
            1 => DataValue::from_f32s(input.iter().copied()),
            2 => DataValue::from_f32s_2d(input, sizes[0], sizes[1]),
            3 => DataValue::from_f32s_3d(input, sizes[0], sizes[1], sizes[2]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn table1_metadata_matches_paper() {
        let s = suite();
        assert_eq!(s.len(), 14); // 12 rows, Jacobi rows split into 5/9 & 7/13
        let b = by_name("Stencil2D");
        assert_eq!((b.dims, b.points, b.grids), (2, 9, 1));
        let b = by_name("SRAD2");
        assert_eq!((b.dims, b.points, b.grids), (2, 3, 2));
        let b = by_name("Hotspot3D");
        assert_eq!((b.dims, b.points, b.grids), (3, 7, 2));
        let b = by_name("Acoustic");
        assert_eq!((b.dims, b.points, b.grids), (3, 7, 2));
        let b = by_name("Gaussian");
        assert_eq!((b.dims, b.points, b.grids), (2, 25, 1));
        let b = by_name("Poisson");
        assert_eq!((b.dims, b.points, b.grids), (3, 19, 1));
    }

    #[test]
    fn every_program_typechecks() {
        for b in suite() {
            let sizes = tiny(b.small);
            let prog = b.program(&sizes);
            let ty = typecheck_fun(&prog)
                .unwrap_or_else(|e| panic!("{} does not typecheck: {e}", b.name));
            assert_eq!(ty.dims(), b.dims, "{}", b.name);
        }
    }

    #[test]
    fn every_program_matches_its_golden_reference() {
        // The reference evaluator provides independent semantics for the
        // IR; the golden reference is an independent Rust loop nest. Both
        // must agree bit-exactly.
        for b in suite() {
            let sizes = tiny(b.small);
            let inputs = b.gen_inputs(&sizes, 42);
            let golden = b.golden(&inputs, &sizes);
            let prog = b.program(&sizes);
            let args: Vec<DataValue> = inputs.iter().map(|i| as_data(i, &sizes)).collect();
            let out = eval_fun(&prog, &args)
                .unwrap_or_else(|e| panic!("{} does not evaluate: {e}", b.name));
            let got = out.flatten_f32();
            assert_eq!(got.len(), golden.len(), "{}: wrong output size", b.name);
            for (i, (a, c)) in got.iter().zip(&golden).enumerate() {
                assert!(
                    (a - c).abs() <= 1e-4 * c.abs().max(1.0),
                    "{}: element {i} differs: lift={a}, golden={c}",
                    b.name
                );
            }
        }
    }

    #[test]
    fn inputs_are_deterministic() {
        let b = by_name("Jacobi2D5pt");
        let a = b.gen_inputs(&[8, 8], 7);
        let c = b.gen_inputs(&[8, 8], 7);
        assert_eq!(a, c);
        let d = b.gen_inputs(&[8, 8], 8);
        assert_ne!(a, d);
    }

    #[test]
    fn figure_sets_are_in_the_suite() {
        for n in fig7_names().iter().chain(fig8_names().iter()) {
            let _ = by_name(n);
        }
    }

    /// Each library function's outputs on twelve sample argument lists,
    /// as bits: argument `j` of sample `k` is `FLOATS[(5k + 3j + jk) % 13]`
    /// for a float, `(7k + 3j) % 25` for an int. Recorded from the Rust
    /// closures that defined these functions before their C bodies did.
    #[rustfmt::skip]
    const OUTPUTS: [(&str, [u32; 12]); 19] = [
        ("add", [0x40880000, 0x41200000, 0x40c80000, 0x40300000, 0xc1200000, 0x44ba9000, 0x3f600000, 0x3e99999a, 0x44bb3000, 0x4124cccd, 0x00022d84, 0x40480000]),
        ("mult", [0x40500000, 0x80000000, 0x40840000, 0x3fc00000, 0x41960000, 0xc62fc800, 0xbe000000, 0x80000000, 0xc56a6000, 0x40400000, 0x00000000, 0xbed00000]),
        ("maxf", [0x40500000, 0x41200000, 0x40b00000, 0x40000000, 0xc0200000, 0x44bb8000, 0x3f800000, 0x3e99999a, 0x44bb8000, 0x41200000, 0x000116c2, 0x40500000]),
        ("id", [0x3f800000, 0x41200000, 0x40b00000, 0x3f400000, 0xc0f00000, 0x44bb8000, 0xbe000000, 0x80000000, 0xc0200000, 0x3e99999a, 0x000116c2, 0x40500000]),
        ("jacobi5", [0x4396747b, 0x4024cccd, 0x4395dccd, 0xbfa00000, 0xbfb9999a, 0x4396e000, 0x3fd66667, 0x4000a3d7, 0x439687af, 0x403570a4, 0x000116c2, 0x3f97ae15]),
        ("gaussWeight", [0x3b800000, 0x3dc00000, 0x3cc00000, 0x3c800000, 0x3c800000, 0x3cc00000, 0x3dc00000, 0x3b800000, 0x3d800000, 0x3dc00000, 0x3b800000, 0x3cc00000]),
        ("wadd", [0x3ffccccd, 0x41200000, 0xbe000000, 0xc0880000, 0xc1480000, 0x44bacc00, 0xbe000000, 0x3f79999a, 0x4600de00, 0xbf733333, 0x000116c2, 0x40000000]),
        ("gradient", [0x4011463d, 0x41210263, 0x44bc703d, 0x40a4ec9a, 0x40a4ec9a, 0x44bc703d, 0x41210263, 0x4011463d, 0x44bbd021, 0x41245376, 0x00000000, 0x41245376]),
        ("stencil9", [0x43626b86, 0x429b7000, 0x43613bd8, 0x42954e15, 0xbfb40000, 0x43bc5000, 0x3fc91eb9, 0x3f8028f6, 0x4361a053, 0x429a299a, 0x000124b1, 0x3fcb5c29]),
        ("srad1", [0x39bcdfc7, 0x3777ec0f, 0x39ba8525, 0x396d9601, 0x3427f32b, 0x31b7ac80, 0x396efbc9, 0xffc00000, 0x39bd95fb, 0x3a3e4542, 0xffc00000, 0x37600302]),
        ("srad2", [0x43bb7f00, 0xc56af980, 0x4115a000, 0xc41824cd, 0x40898000, 0x4310a000, 0x40ec8666, 0xc03f4000, 0xc1c79333, 0x42a15667, 0x000116c2, 0xc0b7199a]),
        ("hotspot", [0x4059d547, 0x3e283afb, 0x3f688ce7, 0x400030d3, 0xc0201d15, 0xc0bfb574, 0x3f809ad4, 0x3e9bb1b0, 0x44bb6a79, 0x411fffbe, 0x3b83126f, 0xbdf00dc3]),
        ("jacobi7", [0x435878b0, 0x435896db, 0x4355bb6e, 0x43556f8b, 0x3e5b6db7, 0x4357f6db, 0x4001999a, 0x3eb15f17, 0x435721d5, 0x3fe7c57d, 0x000116c2, 0x3f90ea0f]),
        ("jacobi13", [0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x42e8b820, 0x000116c2, 0x42e8b820]),
        ("poissonWeight", [0x00000000, 0xbdaa9931, 0xbe2a9931, 0xbdaa9931, 0xbdaa9931, 0xbe2a9931, 0xbdaa9931, 0x00000000, 0x00000000, 0x402aa993, 0x00000000, 0x00000000]),
        ("heat7", [0x433d899a, 0x433ec400, 0x433bb400, 0x433ad99a, 0xbf400000, 0x43bc3c00, 0x3fe0cccd, 0x3e9b3334, 0x433bed9a, 0x3fcf999a, 0x000116c2, 0x3fb2cccd]),
        ("hotspot3d", [0x4059de4a, 0x3e27cb93, 0x3f6874a8, 0x4009d441, 0xc0200c15, 0xc0bfa4dd, 0x3f8097b7, 0x3e9b876a, 0x44bb60e1, 0x41225e5d, 0x3b83126f, 0xbdeee04c]),
        ("numNeighbours", [0x00000005, 0x00000006, 0x00000004, 0x00000004, 0x00000006, 0x00000005, 0x00000003, 0x00000005, 0x00000006, 0x00000004, 0x00000004, 0x00000006]),
        ("acousticStep", [0xbfde6666, 0xc11c0000, 0xc1230000, 0x3e01680f, 0x41280000, 0xc4b8e600, 0x3fefba61, 0x3f500000, 0xc523d200, 0xc20d5333, 0x0000462d, 0xbf280000]),
    ];

    const FLOATS: [f32; 13] = [
        1.0, -2.5, 0.75, 3.25, -0.125, 10.0, 0.3, -7.5, 2.0, -0.0, 5.5, 1e-40, 1.5e3,
    ];

    #[test]
    fn library_functions_keep_their_outputs() {
        let funs = user_functions();
        assert_eq!(funs.len(), OUTPUTS.len());
        for (f, (name, want)) in funs.iter().zip(OUTPUTS) {
            assert_eq!(f.name(), name);
            for (k, want) in want.into_iter().enumerate() {
                let args: Vec<Scalar> = (f.params().iter().enumerate())
                    .map(|(j, (_, t))| match *t == Type::i32() {
                        true => Scalar::I32(((7 * k + 3 * j) % 25) as i32),
                        false => Scalar::F32(FLOATS[(5 * k + 3 * j + j * k) % 13]),
                    })
                    .collect();
                let got = match f.call(&args) {
                    Ok(Scalar::F32(x)) => x.to_bits(),
                    Ok(Scalar::I32(x)) => x as u32,
                    other => panic!("{name}: {other:?}"),
                };
                assert_eq!(got, want, "{name} on sample {k}: {args:?}");
            }
        }
    }
}
