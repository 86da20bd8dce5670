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

use lift_core::expr::FunDecl;

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

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::eval::{eval_fun, DataValue};
    use lift_core::typecheck::typecheck_fun;

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
}
