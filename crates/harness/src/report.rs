//! Rendering of experiment results: plain text in the paper's shape, plus
//! machine-readable JSON (`lift-harness --json`) for CI and perf tracking.
//!
//! Sharded sweeps add two more document kinds. A **partial report**
//! ([`partial_report`]) is what `--shard i/n` writes: the shard's rows,
//! pre-rendered with the exact same per-row formatters as the full JSON
//! document and keyed by global cell index, plus the resolved settings
//! that change results (seed, budget, full sizes; not threads or
//! checkpointing). [`merge_parts`] reassembles a complete set of partials
//! — verifying the schema version, that every part belongs to the same
//! sweep run under the same settings, and that every cell is present
//! exactly once — into output **byte-identical** to the single-process
//! `--json` run, because merging only reorders the already-rendered row
//! strings.

use lift_tuner::json::Value;

use crate::config::RunConfig;
use crate::experiments::{
    AblationRow, BenchRow, Fig7Row, Fig8Row, Shard, ShardRows, Table1Row, VerifyRow,
};

/// The version written into (and required from) every partial shard
/// report.
pub const PARTIAL_SCHEMA_VERSION: u64 = 2;

/// Escapes a string for a JSON literal with [`lift_tuner::json`]'s writer
/// (the names here are ASCII, but the device names contain spaces and the
/// code must not silently corrupt anything else). Public so every
/// hand-assembled JSON document in the harness (rows here, the binary's
/// `--list-benchmarks`) shares the one escaper.
pub fn json_str(s: &str) -> String {
    Value::Str(s.to_string()).to_json()
}

/// JSON numbers must be finite; a failed run's NaN/inf becomes `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_array(rows: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = rows.into_iter().collect();
    format!("[\n  {}\n]\n", body.join(",\n  "))
}

/// Renders Table 1 as a JSON array.
pub fn json_table1(rows: &[Table1Row]) -> String {
    json_array(rows.iter().map(|r| {
        format!(
            "{{\"bench\": {}, \"dims\": {}, \"points\": {}, \"input_size\": {}, \"paper_size\": {}, \"grids\": {}}}",
            json_str(&r.bench),
            r.dims,
            r.points,
            json_str(&r.input_size),
            json_str(&r.paper_size),
            r.grids
        )
    }))
}

/// One Figure-7 row as a JSON object — the unit both the full document
/// and the partial shard reports are assembled from.
fn fig7_row_json(r: &Fig7Row) -> String {
    format!(
        "{{\"bench\": {}, \"device\": {}, \"lift_gelems\": {}, \"reference_gelems\": {}, \"lift_variant\": {}, \"lift_tiled\": {}}}",
        json_str(&r.bench),
        json_str(&r.device),
        json_f64(r.lift_gelems),
        json_f64(r.reference_gelems),
        json_str(&r.lift_variant),
        r.lift_tiled
    )
}

/// Renders Figure 7 as a JSON array.
pub fn json_fig7(rows: &[Fig7Row]) -> String {
    json_array(rows.iter().map(fig7_row_json))
}

fn fig8_row_json(r: &Fig8Row) -> String {
    format!(
        "{{\"bench\": {}, \"device\": {}, \"size\": {}, \"speedup\": {}, \"lift_variant\": {}, \"lift_tiled\": {}}}",
        json_str(&r.bench),
        json_str(&r.device),
        json_str(r.size),
        json_f64(r.speedup),
        json_str(&r.lift_variant),
        r.lift_tiled
    )
}

/// Renders Figure 8 as a JSON array.
pub fn json_fig8(rows: &[Fig8Row]) -> String {
    json_array(rows.iter().map(fig8_row_json))
}

fn ablation_row_json(r: &AblationRow) -> String {
    format!(
        "{{\"bench\": {}, \"device\": {}, \"variant\": {}, \"gelems\": {}, \"rel_to_best\": {}}}",
        json_str(&r.bench),
        json_str(&r.device),
        json_str(&r.variant),
        json_f64(r.gelems),
        json_f64(r.rel_to_best)
    )
}

/// Renders the ablation study as a JSON array.
pub fn json_ablation(rows: &[AblationRow]) -> String {
    json_array(rows.iter().map(ablation_row_json))
}

fn bench_row_json(r: &BenchRow) -> String {
    let config = r
        .config
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"bench\": {}, \"device\": {}, \"variant\": {}, \"time_s\": {}, \"gelems\": {}, \"config\": {{{config}}}, \"winner\": {}, \"tiled\": {}, \"local_mem\": {}, \"evals_to_best\": {}, \"pruned_verify\": {}, \"pruned_model\": {}, \"sims\": {}}}",
        json_str(&r.bench),
        json_str(&r.device),
        json_str(&r.variant),
        json_f64(r.time_s),
        json_f64(r.gelems),
        r.winner,
        r.tiled,
        r.local_mem,
        r.evals_to_best,
        r.pruned_verify,
        r.pruned_model,
        r.sims
    )
}

/// Renders a single-benchmark report as a JSON array.
pub fn json_bench(rows: &[BenchRow]) -> String {
    json_array(rows.iter().map(bench_row_json))
}

fn verify_row_json(r: &VerifyRow) -> String {
    let config = r
        .config
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect::<Vec<_>>()
        .join(", ");
    let findings = r
        .findings
        .iter()
        .map(|f| json_str(f))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"bench\": {}, \"device\": {}, \"variant\": {}, \"config\": {{{config}}}, \"pruned\": {}, \"findings\": [{findings}]}}",
        json_str(&r.bench),
        json_str(&r.device),
        json_str(&r.variant),
        r.pruned
    )
}

/// Renders the static-verification sweep as a JSON array.
pub fn json_verify(rows: &[VerifyRow]) -> String {
    json_array(rows.iter().map(verify_row_json))
}

/// Renders the static-verification sweep: one line per kernel × launch,
/// findings spelled out, and a final tally suitable for a CI gate.
pub fn render_verify(rows: &[VerifyRow]) -> String {
    let mut s = String::new();
    s.push_str("Static verification: benchmarks x devices x variants x configs\n");
    let mut key: Vec<(&str, &str)> = rows
        .iter()
        .map(|r| (r.bench.as_str(), r.device.as_str()))
        .collect();
    key.dedup();
    for (bench, dev) in key {
        s.push_str(&format!("\n  [{bench} on {dev}]\n"));
        for r in rows.iter().filter(|r| r.bench == bench && r.device == dev) {
            let config = r
                .config
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let status = if r.findings.is_empty() {
                "ok".to_string()
            } else if r.pruned {
                "pruned (exceeds local memory)".to_string()
            } else {
                format!("{} finding(s)", r.findings.len())
            };
            s.push_str(&format!("  {:<21}{:<32} {status}\n", r.variant, config));
            if !r.pruned {
                for f in &r.findings {
                    s.push_str(&format!("      !! {f}\n"));
                }
            }
        }
    }
    let pruned = rows.iter().filter(|r| r.pruned).count();
    let total: usize = rows
        .iter()
        .filter(|r| !r.pruned)
        .map(|r| r.findings.len())
        .sum();
    s.push_str(&format!(
        "\n{} kernel/launch pairs verified, {pruned} pruned (over-capacity), {total} finding(s)\n",
        rows.len()
    ));
    s
}

/// Renders one shard's slice of a sweep, run under `cfg`, as a partial
/// report document (see the [module docs](self)). `experiment` identifies
/// the sweep (e.g. `"fig7"` or `"bench:Heat:small"`) so [`merge_parts`] can
/// refuse to mix unrelated parts.
pub fn partial_report<T>(
    experiment: &str,
    shard: Shard,
    cfg: &RunConfig,
    sharded: &ShardRows<T>,
    row_json: impl Fn(&T) -> String,
) -> String {
    let groups = sharded
        .groups
        .iter()
        .map(|(cell, rows)| {
            Value::Obj(vec![
                ("cell".into(), Value::UInt(*cell as u64)),
                (
                    "rows".into(),
                    Value::Arr(rows.iter().map(|r| Value::Str(row_json(r))).collect()),
                ),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("schema_version".into(), Value::UInt(PARTIAL_SCHEMA_VERSION)),
        ("experiment".into(), Value::Str(experiment.to_string())),
        ("shard".into(), Value::UInt(shard.0 as u64)),
        ("shard_count".into(), Value::UInt(shard.1 as u64)),
        ("cells".into(), Value::UInt(sharded.cells as u64)),
        ("seed".into(), Value::UInt(cfg.tune.seed)),
        ("budget".into(), Value::UInt(cfg.tune.evaluations as u64)),
        ("full_sizes".into(), Value::Bool(cfg.full_sizes)),
        ("groups".into(), Value::Arr(groups)),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    text
}

/// The convenience partial renderers, one per shardable experiment.
pub fn partial_fig7(shard: Shard, cfg: &RunConfig, sharded: &ShardRows<Fig7Row>) -> String {
    partial_report("fig7", shard, cfg, sharded, fig7_row_json)
}

/// Partial Figure-8 shard report.
pub fn partial_fig8(shard: Shard, cfg: &RunConfig, sharded: &ShardRows<Fig8Row>) -> String {
    partial_report("fig8", shard, cfg, sharded, fig8_row_json)
}

/// Partial ablation shard report.
pub fn partial_ablation(shard: Shard, cfg: &RunConfig, sharded: &ShardRows<AblationRow>) -> String {
    partial_report("ablation", shard, cfg, sharded, ablation_row_json)
}

/// Partial single-benchmark shard report. The experiment id embeds the
/// benchmark name and size so shards of different benchmarks never merge.
pub fn partial_bench(
    name: &str,
    large: bool,
    shard: Shard,
    cfg: &RunConfig,
    sharded: &ShardRows<BenchRow>,
) -> String {
    let size = if large { "large" } else { "small" };
    partial_report(
        &format!("bench:{name}:{size}"),
        shard,
        cfg,
        sharded,
        bench_row_json,
    )
}

/// A parsed, validated, cell-sorted set of partial shard reports —
/// possibly incomplete. [`merge_parts`] demands completeness on top;
/// [`merge_available`] assembles whatever cells are present.
struct PartSet {
    /// The sweep's total cell count (consistent across all parts).
    cells: u64,
    /// `(cell, pre-rendered rows)`, sorted by cell, each cell once.
    groups: Vec<(u64, Vec<String>)>,
}

impl PartSet {
    /// The global cell indices no part covered.
    fn missing(&self) -> Vec<u64> {
        let present: std::collections::BTreeSet<u64> =
            self.groups.iter().map(|(c, _)| *c).collect();
        (0..self.cells).filter(|c| !present.contains(c)).collect()
    }

    /// The merged JSON array of every present cell's rows, in cell order
    /// — byte-identical to the single-process document when complete.
    fn document(self) -> String {
        json_array(self.groups.into_iter().flat_map(|(_, rows)| rows))
    }
}

/// Parses and cross-validates partial shard reports: schema version,
/// matching experiment/shard_count/cells and settings, no cell covered
/// twice. Does **not** require completeness — that is [`merge_parts`]'s
/// extra demand.
fn parse_parts(parts: &[(String, String)]) -> Result<PartSet, String> {
    if parts.is_empty() {
        return Err("no partial reports to merge".into());
    }
    let mut experiment: Option<String> = None;
    let mut shard_count: Option<u64> = None;
    let mut cells: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut budget: Option<u64> = None;
    let mut full_sizes: Option<bool> = None;
    let mut groups: Vec<(u64, Vec<String>, String)> = Vec::new();
    for (origin, text) in parts {
        let doc = Value::parse(text).map_err(|e| format!("{origin}: not valid JSON: {e}"))?;
        let version = doc.get("schema_version").and_then(Value::as_u64);
        if version != Some(PARTIAL_SCHEMA_VERSION) {
            return Err(format!(
                "{origin}: unsupported partial-report schema_version {} (this build reads \
                 version {PARTIAL_SCHEMA_VERSION}); is this a partial report written by \
                 `lift-harness --shard`?",
                version.map_or("<missing>".to_string(), |v| v.to_string()),
            ));
        }
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("{origin}: field `{name}` is missing"))
        };
        let exp = field("experiment")?
            .as_str()
            .ok_or_else(|| format!("{origin}: `experiment` is not a string"))?
            .to_string();
        match &experiment {
            None => experiment = Some(exp),
            Some(e) if *e == exp => {}
            Some(e) => {
                return Err(format!(
                    "{origin}: is a shard of `{exp}`, but earlier parts are shards of `{e}`"
                ))
            }
        }
        for (name, slot) in [
            ("shard_count", &mut shard_count),
            ("cells", &mut cells),
            ("seed", &mut seed),
            ("budget", &mut budget),
        ] {
            let got = field(name)?
                .as_u64()
                .ok_or_else(|| format!("{origin}: `{name}` is not an integer"))?;
            agree(origin, name, got, slot)?;
        }
        let full = field("full_sizes")?
            .as_bool()
            .ok_or_else(|| format!("{origin}: `full_sizes` is not a boolean"))?;
        agree(origin, "full_sizes", full, &mut full_sizes)?;
        for group in field("groups")?
            .as_arr()
            .ok_or_else(|| format!("{origin}: `groups` is not an array"))?
        {
            let cell = group
                .get("cell")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{origin}: a group has no integer `cell`"))?;
            let rows = group
                .get("rows")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{origin}: group {cell} has no `rows` array"))?
                .iter()
                .map(|r| {
                    r.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{origin}: group {cell} has a non-string row"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            groups.push((cell, rows, origin.clone()));
        }
    }
    groups.sort_by_key(|(cell, _, _)| *cell);
    let total = cells.expect("set by the first part");
    for pair in groups.windows(2) {
        let (cell, _, _) = &pair[0];
        let (next, _, origin) = &pair[1];
        if cell == next {
            return Err(format!(
                "cell {cell} appears twice (second time in {origin})"
            ));
        }
    }
    if let Some((cell, _, origin)) = groups.iter().find(|(c, _, _)| *c >= total) {
        return Err(format!(
            "{origin}: cell {cell} is out of range for a {total}-cell sweep"
        ));
    }
    Ok(PartSet {
        cells: total,
        groups: groups
            .into_iter()
            .map(|(cell, rows, _)| (cell, rows))
            .collect(),
    })
}

/// Records `got` as the sweep's `name`, or fails naming both values when an
/// earlier part recorded another.
fn agree<T: PartialEq + std::fmt::Display>(
    origin: &str,
    name: &str,
    got: T,
    slot: &mut Option<T>,
) -> Result<(), String> {
    match slot {
        None => *slot = Some(got),
        Some(expected) if *expected == got => {}
        Some(expected) => {
            return Err(format!(
                "{origin}: `{name}` is {got}, but earlier parts say {expected}"
            ))
        }
    }
    Ok(())
}

/// Recombines a complete set of partial shard reports into the JSON
/// document the single-process `--json` run would have printed,
/// byte-identically.
///
/// # Errors
///
/// A human-readable message when the parts are not a complete, consistent
/// set: a part fails to parse or carries a different schema version, the
/// parts name different experiments, shard counts, cell totals, seeds,
/// budgets or size settings, two parts cover the same cell, or a cell is
/// missing (a shard was not run or its file was not passed).
pub fn merge_parts(parts: &[(String, String)]) -> Result<String, String> {
    let set = parse_parts(parts)?;
    let missing = set.missing();
    if let Some(cell) = missing.first() {
        return Err(format!(
            "cell {cell} is missing; pass every shard's file ({} of {} cells present)",
            set.groups.len(),
            set.cells
        ));
    }
    Ok(set.document())
}

/// Recombines whatever partial shard reports are available into the
/// best-possible document — the graceful-degradation path for a campaign
/// whose shard exhausted its retries. Returns the merged JSON array of
/// every *present* cell's rows (in cell order; byte-identical to the
/// single-process document when nothing is missing) plus the manifest of
/// missing global cell indices.
///
/// # Errors
///
/// The same consistency errors as [`merge_parts`] (unparseable parts,
/// mixed experiments or settings, duplicate cells) — only *missing* cells
/// are tolerated.
pub fn merge_available(parts: &[(String, String)]) -> Result<(String, Vec<u64>), String> {
    let set = parse_parts(parts)?;
    let missing = set.missing();
    Ok((set.document(), missing))
}

/// Renders a single-benchmark report: per device, every tuned variant with
/// its best configuration, the winner marked.
pub fn render_bench(rows: &[BenchRow]) -> String {
    let mut s = String::new();
    let name = rows.first().map(|r| r.bench.as_str()).unwrap_or("?");
    s.push_str(&format!(
        "Benchmark {name}: tuned variants per device (* = winner)\n"
    ));
    let mut devices: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
    devices.dedup();
    for dev in devices {
        s.push_str(&format!("\n  [{dev}]\n"));
        for r in rows.iter().filter(|r| r.device == dev) {
            let config = r
                .config
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            s.push_str(&format!(
                "  {}{:<21}{:>10.4} GEl/s  {:>9.2} us   {}\n",
                if r.winner { '*' } else { ' ' },
                r.variant,
                r.gelems,
                r.time_s * 1e6,
                config,
            ));
        }
    }
    s
}

/// Renders Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("Table 1: Benchmarks used in the evaluation\n");
    s.push_str(&format!(
        "{:<14}{:>4}{:>5}  {:<16}{:<18}{:>7}\n",
        "Benchmark", "Dim", "Pts", "Input (scaled)", "Input (paper)", "#grids"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<14}{:>3}D{:>5}  {:<16}{:<18}{:>7}\n",
            r.bench, r.dims, r.points, r.input_size, r.paper_size, r.grids
        ));
    }
    s
}

/// Renders Figure 7 as grouped rows per device.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut s = String::new();
    s.push_str("Figure 7: Lift vs hand-written kernels (giga-elements updated per second)\n");
    let mut devices: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
    devices.dedup();
    for dev in devices {
        s.push_str(&format!("\n  [{dev}]\n"));
        s.push_str(&format!(
            "  {:<11}{:>10}{:>12}{:>8}   {}\n",
            "Benchmark", "Lift", "Reference", "ratio", "winning variant"
        ));
        for r in rows.iter().filter(|r| r.device == dev) {
            s.push_str(&format!(
                "  {:<11}{:>10.4}{:>12.4}{:>7.2}x   {}{}\n",
                r.bench,
                r.lift_gelems,
                r.reference_gelems,
                r.lift_gelems / r.reference_gelems,
                r.lift_variant,
                if r.lift_tiled { " [tiled]" } else { "" },
            ));
        }
    }
    s
}

/// Renders Figure 8 as grouped rows per device.
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut s = String::new();
    s.push_str("Figure 8: Lift speedup over PPCG (auto-tuned, > 1 means Lift is faster)\n");
    let mut devices: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
    devices.dedup();
    for dev in devices {
        s.push_str(&format!("\n  [{dev}]\n"));
        s.push_str(&format!(
            "  {:<13}{:>8}{:>10}   {}\n",
            "Benchmark", "size", "speedup", "winning Lift variant"
        ));
        for r in rows.iter().filter(|r| r.device == dev) {
            s.push_str(&format!(
                "  {:<13}{:>8}{:>9.2}x   {}{}\n",
                r.bench,
                r.size,
                r.speedup,
                r.lift_variant,
                if r.lift_tiled { " [tiled]" } else { "" },
            ));
        }
    }
    s
}

/// Renders the ablation study.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    s.push_str("Ablation: best throughput per rewrite variant (relative to winner)\n");
    let mut keys: Vec<(String, String)> = rows
        .iter()
        .map(|r| (r.device.clone(), r.bench.clone()))
        .collect();
    keys.dedup();
    for (dev, bench) in keys {
        s.push_str(&format!("\n  [{dev}] {bench}\n"));
        for r in rows.iter().filter(|r| r.device == dev && r.bench == bench) {
            let bar_len = (r.rel_to_best * 32.0).round() as usize;
            s.push_str(&format!(
                "  {:<22}{:>9.4} GEl/s  {:<32} {:>5.1}%\n",
                r.variant,
                r.gelems,
                "#".repeat(bar_len.min(32)),
                r.rel_to_best * 100.0
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_rendering_contains_devices_and_ratios() {
        let rows = vec![Fig7Row {
            bench: "Hotspot2D".into(),
            device: "AMD Radeon HD 7970".into(),
            lift_gelems: 12.0,
            reference_gelems: 0.8,
            lift_variant: "global".into(),
            lift_tiled: false,
        }];
        let out = render_fig7(&rows);
        assert!(out.contains("AMD Radeon HD 7970"));
        assert!(out.contains("15.00x"));
    }

    #[test]
    fn table1_rendering() {
        let rows = crate::experiments::table1();
        let out = render_table1(&rows);
        assert!(out.contains("Stencil2D"));
        assert!(out.contains("Acoustic"));
        assert!(out.contains("4098×4098"));
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let rows = vec![Fig8Row {
            bench: "Heat".into(),
            device: "Nvidia Tesla K20c".into(),
            size: "small",
            speedup: 1.25,
            lift_variant: "global".into(),
            lift_tiled: false,
        }];
        let out = json_fig8(&rows);
        assert!(out.trim_start().starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        assert!(out.contains("\"speedup\": 1.25"));
        assert!(out.contains("\"lift_tiled\": false"));
        // Escaping.
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        // Non-finite numbers must not produce invalid JSON.
        assert_eq!(json_f64(f64::NAN), "null");
    }

    fn fake_fig7(n: usize) -> Vec<Fig7Row> {
        (0..n)
            .map(|i| Fig7Row {
                bench: format!("Bench{i}"),
                device: "Dev".into(),
                lift_gelems: 1.0 + i as f64 * 0.125,
                reference_gelems: 0.5,
                lift_variant: "global".into(),
                lift_tiled: i % 2 == 0,
            })
            .collect()
    }

    /// Splits `rows` into `count` shard documents exactly as `--shard`
    /// would produce them under `cfg` (cell `c` on shard `c % count`).
    fn shards_of(rows: &[Fig7Row], count: usize, cfg: &RunConfig) -> Vec<(String, String)> {
        (0..count)
            .map(|index| {
                let sharded = ShardRows {
                    cells: rows.len(),
                    groups: rows
                        .iter()
                        .enumerate()
                        .filter(|(c, _)| c % count == index)
                        .map(|(c, r)| (c, vec![r.clone()]))
                        .collect(),
                };
                (
                    format!("part{index}.json"),
                    partial_fig7((index, count), cfg, &sharded),
                )
            })
            .collect()
    }

    #[test]
    fn merge_reassembles_byte_identically_in_any_order() {
        let rows = fake_fig7(7);
        let single = json_fig7(&rows);
        for count in [1usize, 2, 3, 7] {
            let mut parts = shards_of(&rows, count, &RunConfig::default());
            parts.reverse(); // file order must not matter
            assert_eq!(
                merge_parts(&parts).expect("complete set merges"),
                single,
                "count={count}"
            );
        }
    }

    #[test]
    fn merge_rejects_incomplete_or_inconsistent_sets() {
        let rows = fake_fig7(6);
        let parts = shards_of(&rows, 3, &RunConfig::default());
        // A missing shard is a missing cell, named.
        let err = merge_parts(&parts[..2]).expect_err("incomplete");
        assert!(err.contains("missing"), "{err}");
        // A duplicated shard is a duplicate cell, named.
        let mut dup = parts.clone();
        dup.push(parts[0].clone());
        let err = merge_parts(&dup).expect_err("duplicate");
        assert!(err.contains("twice"), "{err}");
        // Parts of different experiments never mix.
        let mut mixed = parts.clone();
        mixed[1].1 = mixed[1].1.replace("\"fig7\"", "\"fig8\"");
        let err = merge_parts(&mixed).expect_err("mixed experiments");
        assert!(err.contains("fig8"), "{err}");
        // Parts run under different seeds never mix, naming both seeds.
        let mut reseeded = RunConfig::default();
        reseeded.tune.seed = 7;
        let mut mixed = parts.clone();
        mixed[1] = shards_of(&rows, 3, &reseeded).swap_remove(1);
        let err = merge_parts(&mixed).expect_err("mixed seeds");
        assert!(
            err.contains("`seed` is 7, but earlier parts say 2018"),
            "{err}"
        );
        // A wrong schema version names both versions.
        let mut versioned = parts.clone();
        versioned[0].1 = versioned[0]
            .1
            .replace("\"schema_version\":2", "\"schema_version\":9");
        let err = merge_parts(&versioned).expect_err("bad version");
        assert!(err.contains("schema_version 9"), "{err}");
        // Garbage is a parse error naming the file.
        let err = merge_parts(&[("broken.json".into(), "not json".into())]).expect_err("garbage");
        assert!(err.contains("broken.json"), "{err}");
        // Cells that produce no rows (fig8 skips) still count as covered.
        let empty_ok = ShardRows::<Fig8Row> {
            cells: 1,
            groups: vec![(0, Vec::new())],
        };
        let part = partial_fig8((0, 1), &RunConfig::default(), &empty_ok);
        let merged = merge_parts(&[("p.json".into(), part)]).expect("empty cells merge");
        assert_eq!(merged, json_fig8(&[]));
    }

    #[test]
    fn merge_available_tolerates_only_missing_cells() {
        let rows = fake_fig7(6);
        let parts = shards_of(&rows, 3, &RunConfig::default());
        // Complete set: same bytes as the strict merge, nothing missing.
        let (doc, missing) = merge_available(&parts).expect("complete set merges");
        assert_eq!(doc, json_fig7(&rows));
        assert!(missing.is_empty());
        // Drop shard 1 (cells 1 and 4): the document keeps the rest in
        // cell order and the manifest names exactly the lost cells.
        let partial: Vec<_> = parts
            .iter()
            .filter(|(name, _)| name != "part1.json")
            .cloned()
            .collect();
        let (doc, missing) = merge_available(&partial).expect("incomplete set still merges");
        assert_eq!(missing, vec![1, 4]);
        let survivors: Vec<Fig7Row> = rows
            .iter()
            .enumerate()
            .filter(|(c, _)| c % 3 != 1)
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(doc, json_fig7(&survivors));
        // Corruption and duplicates are still hard errors — only
        // missing cells are tolerated.
        let mut dup = partial.clone();
        dup.push(partial[0].clone());
        assert!(merge_available(&dup).unwrap_err().contains("twice"));
        assert!(merge_available(&[("x".into(), "junk".into())]).is_err());
    }

    #[test]
    fn verify_report_separates_pruned_from_findings() {
        let rows = vec![
            VerifyRow {
                bench: "Heat".into(),
                device: "ARM Mali-T628".into(),
                variant: "tiled-local".into(),
                config: vec![("TS0".into(), 26), ("lx".into(), 4)],
                pruned: true,
                findings: vec!["needs 70304 bytes of local memory".into()],
            },
            VerifyRow {
                bench: "Heat".into(),
                device: "ARM Mali-T628".into(),
                variant: "global".into(),
                config: vec![("lx".into(), 4)],
                pruned: false,
                findings: vec!["out-of-bounds access".into()],
            },
            VerifyRow {
                bench: "Heat".into(),
                device: "ARM Mali-T628".into(),
                variant: "coarsened".into(),
                config: vec![("CF".into(), 2)],
                pruned: false,
                findings: Vec::new(),
            },
        ];
        let text = render_verify(&rows);
        // One pruned config, one genuine finding: the tally counts them
        // apart, because only the finding may fail the CI gate.
        assert!(
            text.contains("1 pruned (over-capacity), 1 finding(s)"),
            "{text}"
        );
        assert!(text.contains("pruned (exceeds local memory)"), "{text}");
        assert!(text.contains("!! out-of-bounds access"), "{text}");
        // Pruned rows never print their findings as gate problems.
        assert!(!text.contains("!! needs 70304"), "{text}");
        let json = json_verify(&rows);
        assert!(json.contains("\"pruned\": true"), "{json}");
        assert!(json.contains("\"pruned\": false"), "{json}");
    }

    #[test]
    fn json_table1_covers_every_benchmark() {
        let rows = crate::experiments::table1();
        let out = json_table1(&rows);
        for b in lift_stencils::suite() {
            assert!(
                out.contains(&format!("\"bench\": \"{}\"", b.name)),
                "{}",
                b.name
            );
        }
    }
}
