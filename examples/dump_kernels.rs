//! Prints the OpenCL source of every kernel the benchmark suite generates,
//! so two builds can be compared byte for byte with one `cmp`.
//!
//! ```text
//! cargo run --release --example dump_kernels > kernels.txt
//! ```
//!
//! It compiles, in a fixed order:
//!
//! * every Table-1 benchmark at its small size, and at its large size
//!   where that differs;
//! * every explored variant of each, plus the PPCG baseline's program;
//! * each tunable at its lowest, middle and highest `candidates(64)`
//!   value, the cross product capped at 27 bindings.
//!
//! `VarRef` ids are process-global, so two dumps compare only when both
//! builds compile the same kernels in the same order. The last line counts
//! the kernels.

use lift::lift_arith::Bindings;
use lift::lift_codegen::compile_kernel;
use lift::lift_core::expr::FunDecl;
use lift::lift_core::visit::substitute_sizes;
use lift::lift_rewrite::{enumerate_variants, Tunable};

/// Every binding of `tunables` to its lowest, middle and highest
/// candidate, in odometer order, at most 27 of them.
fn bindings(tunables: &[Tunable]) -> Vec<Vec<(String, i64)>> {
    let mut all = vec![Vec::<(String, i64)>::new()];
    for t in tunables {
        let c = t.candidates(64);
        let mut picks = match c.len() {
            0 => vec![],
            n => vec![c[0], c[n / 2], c[n - 1]],
        };
        picks.dedup();
        all = all
            .iter()
            .flat_map(|b| {
                picks.iter().map(move |&v| {
                    let mut b = b.clone();
                    b.push((t.var().to_string(), v));
                    b
                })
            })
            .collect();
    }
    all.truncate(27);
    all
}

fn main() {
    let mut kernels = 0usize;
    let mut dump = |label: &str, program: &FunDecl, tunables: &[Tunable]| {
        for b in bindings(tunables) {
            let env = Bindings::from_iter(b.iter().map(|(n, v)| (n.as_str(), *v)));
            let kernel = compile_kernel("k", &substitute_sizes(program, &env))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            println!("// {label} {b:?}\n{}", kernel.to_source());
            kernels += 1;
        }
    };
    for bench in lift::lift_stencils::suite() {
        let (small, large) = (bench.size(false, false), bench.size(true, false));
        let sizes = if large == small {
            vec![small]
        } else {
            vec![small, large]
        };
        for s in sizes {
            let program = bench.program(&s);
            for v in enumerate_variants(&program) {
                dump(
                    &format!("{} {s:?} {}", bench.name, v.name),
                    &v.program,
                    &v.tunables,
                );
            }
            if let Ok(p) = lift::lift_ppcg::compile(&program) {
                dump(
                    &format!("{} {s:?} ppcg", bench.name),
                    &p.program,
                    &p.tunables,
                );
            }
        }
    }
    println!("// {kernels} kernels");
}
