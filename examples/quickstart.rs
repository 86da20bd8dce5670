//! Quickstart: the paper's Listing 2 — a 3-point Jacobi stencil — from
//! high-level expression to executed OpenCL kernel, through the staged
//! `Pipeline` session API; then the same flow on a 3D benchmark to show
//! the rank-generic search space with per-dimension tile tunables.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use lift::lift_core::prelude::*;
use lift::lift_oclsim::{DeviceProfile, VirtualDevice};
use lift::{KernelCache, LiftError, Pipeline};

fn main() -> Result<(), LiftError> {
    let n = 32usize;

    // Listing 2 of the paper:
    //   val stencil = fun(A => map(sumNbh, slide(3, 1, pad(1, 1, clamp, A))))
    let sum_nbh = lam_named("nbh", Type::array(Type::f32(), 3), |nbh| {
        reduce(add_f32(), Expr::f32(0.0), nbh)
    });
    let stencil = lam_named("A", Type::array(Type::f32(), n), |a| {
        map(sum_nbh, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
    });

    // Stage 1: a type-checked program.
    let pipeline = Pipeline::new(stencil)?;
    println!("== The high-level Lift expression ==");
    if let FunDecl::Lambda(l) = pipeline.program() {
        println!("fun(A => {})\n", l.body);
    }
    println!("type: {}\n", pipeline.output_type());

    // Stage 2: rewrite-based exploration derives the implementation space
    // (`map` onto global work-items, ± tiling, ± local memory, …).
    let variants = pipeline.explore()?;
    println!("== Derived variants ==");
    println!("{:?}\n", variants.names());

    // Stage 3+4: fix the device, pick the plain global lowering with an
    // 8-wide work-group (`.tune(TuneOptions::default())` would search instead).
    let device = VirtualDevice::new(DeviceProfile::k20c());
    let compiled = variants.on(&device).with_config("global", &[("lx", 8)])?;
    println!("== Generated OpenCL (pad/slide became pure index math) ==");
    println!("{}", compiled.source());

    // Execute on the virtual K20c and validate against a direct loop.
    let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
    let out = compiled.run(&[input.clone().into()])?;

    let expected: Vec<f32> = (0..n as i64)
        .map(|i| {
            let at = |j: i64| input[j.clamp(0, n as i64 - 1) as usize];
            at(i - 1) + at(i) + at(i + 1)
        })
        .collect();
    assert_eq!(out.output.as_f32(), expected.as_slice(), "bit-exact");

    println!(
        "== Execution on the virtual {} ==",
        compiled.device().profile().name
    );
    println!("output[0..6]  = {:?}", &out.output.as_f32()[..6]);
    println!("global loads  = {}", out.stats.global_loads);
    println!("transactions  = {}", out.stats.transactions());
    println!("modeled time  = {:.3} us", out.time_s * 1e6);
    println!(
        "kernel cache  = {:?} (a second identical session would hit, not compile)",
        KernelCache::global().stats()
    );
    println!("\nOK: generated kernel matches the reference bit-exactly.");

    // The same staged flow is rank-generic: a 3D benchmark derives the
    // full variant space — overlapped tiling and local-memory staging
    // included — with one *independent* tile-size tunable per dimension
    // (TS0 outermost). Here we pick asymmetric tiles explicitly; `.tune()`
    // would search each axis on its own.
    let variants = Pipeline::for_benchmark("Heat", &[8, 8, 8])?.explore()?;
    println!("\n== Rank-generic exploration: Heat 7pt (3D) ==");
    println!("variants: {:?}", variants.names());
    let tiled = variants
        .get("tiled-local")
        .expect("3D stencils derive local-memory tiling");
    let tunables: Vec<&str> = tiled.tunables.iter().map(|t| t.var()).collect();
    println!("per-dimension tile tunables: {tunables:?}");
    let compiled = variants.on(&device).with_config(
        "tiled-local",
        &[
            ("TS0", 4),
            ("TS1", 4),
            ("TS2", 10),
            ("lx", 4),
            ("ly", 2),
            ("lz", 2),
        ],
    )?;
    println!(
        "tiled-local 3D kernel: {} local buffer(s), launch {:?}",
        compiled.kernel().locals.len(),
        compiled.launch().global
    );
    Ok(())
}
