//! `iterate`: host-side time stepping of the benchmarks that update their
//! grid in place, under two fixed configurations each.

use std::sync::Arc;
use std::time::Instant;

use lift_driver::{CompiledStencil, KernelCache, VariantSet};
use lift_oclsim::{BufferData, DeviceProfile, Rotation, VirtualDevice};
use lift_stencils::{by_name, Benchmark};

use crate::common::{
    closed_loop, explore, golden, inputs, ms_since, outputs_match, passes, replay, timed_setup,
    Ctx, ReplayItem, Report,
};
use crate::stats::{geomean, median};

/// Time steps per operation.
pub const STEPS: usize = 20;

/// Parameter values of one configuration.
type Config = &'static [(&'static str, i64)];

const GLOBAL_2D: Config = &[("lx", 32), ("ly", 4)];
const GLOBAL_3D: Config = &[("lx", 32), ("ly", 4), ("lz", 1)];

/// The benchmarks whose output is their next state, with the fixed
/// `tiled-local` configuration of each (tile sizes valid for the large
/// grid, work-groups within every device limit). All run on the K20c
/// profile.
#[rustfmt::skip]
const ROWS: &[(&str, Rotation, Config)] = &[
    ("Stencil2D", Rotation::SingleBuffer, &[("TS0", 18), ("TS1", 18), ("lx", 16), ("ly", 8)]),
    ("SRAD1", Rotation::SingleBuffer, &[("TS0", 16), ("TS1", 231), ("lx", 32), ("ly", 4)]),
    ("Gaussian", Rotation::SingleBuffer, &[("TS0", 20), ("TS1", 20), ("lx", 16), ("ly", 8)]),
    ("Gradient", Rotation::SingleBuffer, &[("TS0", 18), ("TS1", 18), ("lx", 16), ("ly", 8)]),
    ("Jacobi2D5pt", Rotation::SingleBuffer, &[("TS0", 18), ("TS1", 18), ("lx", 16), ("ly", 8)]),
    ("Jacobi2D9pt", Rotation::SingleBuffer, &[("TS0", 18), ("TS1", 18), ("lx", 16), ("ly", 8)]),
    ("Jacobi3D7pt", Rotation::SingleBuffer, &[("TS0", 12), ("TS1", 12), ("TS2", 12), ("lx", 8), ("ly", 8), ("lz", 2)]),
    ("Jacobi3D13pt", Rotation::SingleBuffer, &[("TS0", 14), ("TS1", 14), ("TS2", 14), ("lx", 8), ("ly", 8), ("lz", 2)]),
    ("Poisson", Rotation::SingleBuffer, &[("TS0", 12), ("TS1", 12), ("TS2", 12), ("lx", 8), ("ly", 8), ("lz", 2)]),
    ("Heat", Rotation::SingleBuffer, &[("TS0", 12), ("TS1", 12), ("TS2", 12), ("lx", 8), ("ly", 8), ("lz", 2)]),
    ("Acoustic", Rotation::Leapfrog, &[("TS0", 10), ("TS1", 18), ("TS2", 18), ("lx", 16), ("ly", 4), ("lz", 2)]),
];

/// One benchmark under one configuration, compiled, with its inputs.
struct Row {
    /// Index into `ROWS`.
    bench_row: usize,
    bench: Benchmark,
    sizes: Vec<usize>,
    rotation: Rotation,
    set: VariantSet,
    variant: &'static str,
    config: Vec<(String, i64)>,
    stencil: CompiledStencil,
    inputs: Vec<BufferData>,
}

/// A benchmark's golden reference after one step and after `STEPS`.
struct Expected {
    first: Vec<f32>,
    last: Vec<f32>,
}

impl Row {
    fn label(&self) -> String {
        format!("{} {}", self.bench.name, self.variant)
    }
}

/// Steps the golden reference `STEPS` times under the row's rotation.
fn expected(ctx: &Ctx, row: &Row) -> Expected {
    let op = ctx.op();
    let mut state = row.inputs.clone();
    let (mut first, mut last) = (None, Vec::new());
    for _ in 0..STEPS {
        last = golden(ctx, op, &row.bench, &state, &row.sizes);
        first.get_or_insert_with(|| last.clone());
        let out = BufferData::F32(last.clone());
        match row.rotation {
            Rotation::SingleBuffer => state[0] = out,
            Rotation::Leapfrog => state[0] = std::mem::replace(&mut state[1], out),
        }
    }
    Expected {
        first: first.expect("STEPS > 0"),
        last,
    }
}

fn prepare(ctx: &Ctx, dev: &VirtualDevice) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (bench_row, &(name, rotation, tiled)) in ROWS.iter().enumerate() {
        let bench = by_name(name);
        let sizes = bench.large.unwrap_or(bench.small).to_vec();
        let global = if bench.dims == 3 {
            GLOBAL_3D
        } else {
            GLOBAL_2D
        };
        for (variant, params) in [("global", global), ("tiled-local", tiled)] {
            let op = ctx.op();
            let label = format!("{name} {variant}");
            let set = explore(ctx, op, &bench, &sizes)?;
            let stencil = ctx
                .span("codegen.compile", op, 0, || {
                    set.clone()
                        .on(dev)
                        .with_cache(Arc::new(KernelCache::new()))
                        .with_config(variant, params)
                })
                .map_err(|e| format!("{label}: {e}"))?;
            let findings = ctx
                .span("oclsim.verify", op, 0, || stencil.verify())
                .map_err(|e| format!("{label}: {e}"))?;
            if let Some(f) = findings.first() {
                return Err(format!("{label}: {f}"));
            }
            rows.push(Row {
                bench_row,
                inputs: inputs(&bench, &sizes, ctx.seed),
                bench: bench.clone(),
                sizes: sizes.clone(),
                rotation,
                set,
                variant,
                config: params.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
                stencil,
            });
        }
    }
    Ok(rows)
}

/// `iterate`: every row runs `STEPS` time steps per operation; the output
/// must match the golden reference stepped the same way.
pub fn iterate(ctx: &Ctx) -> Result<Report, String> {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let (setup_s, rows) = timed_setup(|| prepare(ctx, &dev));
    let rows = rows?;
    // Both configurations of a benchmark share its inputs and reference.
    let expected: Vec<Expected> = rows.iter().step_by(2).map(|r| expected(ctx, r)).collect();
    let runs = passes(ctx, |_| {
        closed_loop(&rows, |row| {
            let op = ctx.op();
            let want = &expected[row.bench_row].last;
            let elems = (want.len() * STEPS) as u64;
            let t = Instant::now();
            let out = ctx.span("oclsim.run_iterated", op, elems, || {
                row.stencil.run_iterated(&row.inputs, STEPS, row.rotation)
            });
            let ms = ms_since(t);
            ctx.check(
                out.map_err(|e| e.to_string())
                    .and_then(|o| outputs_match(o.output.as_f32(), want))
                    .map_err(|e| format!("{} after {STEPS} steps: {e}", row.label())),
            );
            ms
        })
    });
    let (sweeps, runs): (Vec<f64>, Vec<Vec<f64>>) = runs.into_iter().unzip();
    let op_ms: Vec<f64> = (0..rows.len())
        .map(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let melems: Vec<f64> = rows
        .iter()
        .zip(&op_ms)
        .map(|(row, ms)| (expected[row.bench_row].last.len() * STEPS) as f64 / (ms / 1e3) / 1e6)
        .collect();

    if ctx.tracer.enabled() {
        for row in &rows {
            replay(
                ctx,
                ReplayItem {
                    label: row.label(),
                    session: row.set.clone().on(&dev),
                    variant: row.variant,
                    config: &row.config,
                    inputs: &row.inputs,
                    golden: &expected[row.bench_row].first,
                    tuned_time_s: None,
                },
            );
        }
    }

    Ok(Report {
        setup_s,
        sweeps,
        op_ms,
        extra: vec![("sim_melems_per_s", geomean(&melems), "Melem/s")],
    })
}
