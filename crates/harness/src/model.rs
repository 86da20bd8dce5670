//! Cost-model accuracy and tuning-efficiency tracking: the
//! `lift-harness model` command.
//!
//! Two sweeps, one report:
//!
//! 1. **Accuracy** — every Table-1 benchmark × device × variant under the
//!    same representative configurations the `verify` sweep gates. Each
//!    kernel is *predicted* with the cost model
//!    ([`lift_driver::CompiledStencil::estimate`], which never sees the
//!    kernel's inputs) and then *simulated*; the per-cell Spearman rank
//!    correlation between the two time series says how well the model
//!    orders configurations.
//!    Because every Table-1 kernel is launch-determined, the estimates
//!    are bit-exact and the correlation is 1.0 — the report exists so CI
//!    notices the day a new kernel or model change breaks that.
//! 2. **Tuning efficiency** — the Figure-7 grid tuned twice, once with
//!    the model's warm-start + pruning (the default) and once with
//!    `LIFT_COST_PRUNE=off`. Both runs must settle on the *same* winner
//!    (bit-identical score); the report records how many simulator
//!    evaluations each needed before first scoring it (`evals_to_best`)
//!    and how many simulations tuning the whole cell cost (`sims`) —
//!    i.e. what the model saves.
//!
//! `lift-harness model` exits non-zero when the minimum Spearman drops
//! below [`SPEARMAN_GATE`] or any tuning cell's winners diverge — the CI
//! `model-accuracy` job is just this command.

use lift_driver::{CostModel, LiftError, Pipeline};
use lift_oclsim::{BufferData, DeviceProfile, VirtualDevice};
use lift_stencils::suite;
use lift_tuner::parallel_map;

use crate::experiments::rep_configs;
use crate::report::json_str;
use crate::RunConfig;

/// The CI gate on per-cell rank correlation. The exact model scores 1.0;
/// the gate sits at the issue's floor so a future *approximate* model
/// (new hardware counters, calibrated constants) has headroom without
/// silently degrading below useful.
pub const SPEARMAN_GATE: f64 = 0.8;

/// One predicted-vs-simulated comparison point.
#[derive(Debug, Clone)]
pub struct ModelPoint {
    /// Variant name.
    pub variant: String,
    /// The parameter assignment.
    pub config: Vec<(String, i64)>,
    /// The static model's runtime prediction, in seconds.
    pub predicted_s: f64,
    /// The simulator's modeled runtime, in seconds.
    pub simulated_s: f64,
    /// Whether the model claimed the prediction is exact.
    pub exact: bool,
}

/// One (benchmark × device) cell of the accuracy sweep.
#[derive(Debug, Clone)]
pub struct ModelCell {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// The comparison points (variants × representative configs).
    pub points: Vec<ModelPoint>,
    /// Spearman rank correlation between predicted and simulated times.
    pub spearman: f64,
    /// How many points were bit-exact (prediction == simulation).
    pub exact_points: usize,
}

/// One (benchmark × device) cell of the tuning-efficiency sweep.
#[derive(Debug, Clone)]
pub struct TuneCell {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// Whether model-guided and model-off tuning found the same winner
    /// (same variant, same configuration, bit-identical score).
    pub winner_match: bool,
    /// Simulator evaluations before the winner was first scored, with the
    /// model's warm-start + pruning.
    pub evals_to_best_model: usize,
    /// The same count with `LIFT_COST_PRUNE=off`.
    pub evals_to_best_off: usize,
    /// Total successful simulator executions across every variant of the
    /// cell — the full cost of tuning it and certifying the winner — with
    /// the model.
    pub sims_model: usize,
    /// …and without.
    pub sims_off: usize,
}

/// The `model` command's full result.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Accuracy cells, in (device, benchmark) sweep order.
    pub cells: Vec<ModelCell>,
    /// Tuning-efficiency cells, in the Figure-7 grid order.
    pub tuning: Vec<TuneCell>,
    /// Tuner evaluations per variant used in the efficiency sweep.
    pub budget: usize,
}

/// Average ranks (1-based), ties sharing the mean of their positions —
/// the standard Spearman tie treatment.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation: Pearson over average ranks. Degenerate
/// inputs (fewer than two points, or a constant series) score 1.0 when
/// the rankings agree exactly and 0.0 otherwise, so an all-ties cell
/// neither fails nor inflates the gate.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < 2 {
        return 1.0;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut num, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    if va == 0.0 || vb == 0.0 {
        return if ra == rb { 1.0 } else { 0.0 };
    }
    num / (va * vb).sqrt()
}

/// The accuracy sweep: predict and simulate every benchmark × device ×
/// variant × representative configuration.
fn accuracy_cells(cfg: &RunConfig) -> Result<Vec<ModelCell>, LiftError> {
    let mut work: Vec<(lift_stencils::Benchmark, DeviceProfile)> = Vec::new();
    for profile in DeviceProfile::all() {
        for bench in suite() {
            work.push((bench, profile.clone()));
        }
    }
    let outer = cfg.tune.threads.min(work.len()).max(1);
    parallel_map(outer, work, |(bench, profile)| {
        let dev = VirtualDevice::new(profile);
        let sizes = bench.size(false, cfg.full_sizes);
        let variants = Pipeline::from_benchmark(&bench, &sizes)?.explore()?;
        let inputs: Vec<BufferData> = bench
            .gen_inputs(&sizes, cfg.tune.seed)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        let mut points = Vec::new();
        for name in variants.names().iter().map(|n| n.to_string()) {
            let variant = variants.get(&name).expect("name came from the set");
            for cfg in rep_configs(variant) {
                let params: Vec<(&str, i64)> = cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let compiled = match variants.clone().on(&dev).with_config(&name, &params) {
                    Ok(s) => s,
                    // Inexpressible geometry: nothing to predict or run.
                    Err(LiftError::InvalidConfig(_)) => continue,
                    Err(e) => return Err(e),
                };
                // Configurations the verifier rejects (e.g. over local
                // memory) never reach the simulator during tuning either.
                if !compiled.verify()?.is_empty() {
                    continue;
                }
                let est = compiled.estimate()?;
                let measured = compiled.run(&inputs)?;
                points.push(ModelPoint {
                    variant: name.clone(),
                    config: cfg,
                    predicted_s: est.time(dev.profile()),
                    simulated_s: measured.time_s,
                    exact: est.exact,
                });
            }
        }
        let predicted: Vec<f64> = points.iter().map(|p| p.predicted_s).collect();
        let simulated: Vec<f64> = points.iter().map(|p| p.simulated_s).collect();
        let exact_points = points
            .iter()
            .filter(|p| p.exact && p.predicted_s.to_bits() == p.simulated_s.to_bits())
            .count();
        Ok(ModelCell {
            bench: bench.name.to_string(),
            device: dev.profile().name.to_string(),
            spearman: spearman(&predicted, &simulated),
            exact_points,
            points,
        })
    })
    .into_iter()
    .collect()
}

/// The tuning-efficiency sweep: the Figure-7 grid tuned with the model
/// and with `LIFT_COST_PRUNE=off`, compared cell by cell.
fn tuning_cells(cfg: &RunConfig) -> Result<Vec<TuneCell>, LiftError> {
    let mut work: Vec<(DeviceProfile, &'static str)> = Vec::new();
    for profile in DeviceProfile::all() {
        for name in lift_stencils::fig7_names() {
            work.push((profile.clone(), name));
        }
    }
    let outer = cfg.tune.threads.min(work.len()).max(1);
    let inner = (cfg.tune.threads / outer).max(1);
    parallel_map(outer, work, |(profile, name)| {
        let dev = VirtualDevice::new(profile);
        let bench = lift_stencils::by_name(name);
        let sizes = bench.size(false, cfg.full_sizes);
        let tune = |cost: CostModel| {
            Ok::<_, LiftError>(
                Pipeline::from_benchmark(&bench, &sizes)?
                    .explore()?
                    .on(&dev)
                    .tune_full(cfg.tune.clone().with_threads(inner).with_cost_prune(cost))?
                    .report,
            )
        };
        let with_model = tune(CostModel::default())?;
        let without = tune(CostModel::off())?;
        let sims = |r: &lift_driver::BenchResult| r.all.iter().map(|v| v.sims).sum();
        Ok(TuneCell {
            bench: name.to_string(),
            device: dev.profile().name.to_string(),
            winner_match: with_model.winner.name == without.winner.name
                && with_model.winner.config == without.winner.config
                && with_model.winner.time_s.to_bits() == without.winner.time_s.to_bits(),
            evals_to_best_model: with_model.winner.evals_to_best,
            evals_to_best_off: without.winner.evals_to_best,
            sims_model: sims(&with_model),
            sims_off: sims(&without),
        })
    })
    .into_iter()
    .collect()
}

/// Runs both sweeps (see the module docs).
///
/// # Errors
///
/// Any [`LiftError`] from compilation, estimation, simulation or tuning —
/// a kernel the model refuses to estimate fails the sweep, it does not
/// vanish from it.
pub fn model_report(cfg: &RunConfig) -> Result<ModelReport, LiftError> {
    Ok(ModelReport {
        cells: accuracy_cells(cfg)?,
        tuning: tuning_cells(cfg)?,
        budget: cfg.tune.evaluations,
    })
}

impl ModelReport {
    /// The worst per-cell rank correlation (1.0 for an empty sweep).
    pub fn min_spearman(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.spearman)
            .fold(1.0, |a, b| if b < a { b } else { a })
    }

    /// Total comparison points across all accuracy cells.
    pub fn points(&self) -> usize {
        self.cells.iter().map(|c| c.points.len()).sum()
    }

    /// How many of those were bit-exact.
    pub fn exact_points(&self) -> usize {
        self.cells.iter().map(|c| c.exact_points).sum()
    }

    /// Whether every tuning cell found the same winner with and without
    /// the model.
    pub fn all_winners_match(&self) -> bool {
        self.tuning.iter().all(|t| t.winner_match)
    }

    /// Aggregate evaluations-to-best speedup: Σ without-model ÷ Σ with.
    pub fn evals_to_best_ratio(&self) -> f64 {
        let with: usize = self.tuning.iter().map(|t| t.evals_to_best_model).sum();
        let without: usize = self.tuning.iter().map(|t| t.evals_to_best_off).sum();
        without as f64 / (with as f64).max(1.0)
    }

    /// Aggregate simulator-execution savings across whole cells:
    /// Σ without-model sims ÷ Σ with-model sims. This is the issue's
    /// "fewer simulator evaluations to reach the same best config" —
    /// with the model, losing variants are pruned after a handful of
    /// simulations instead of consuming their full budget.
    pub fn sims_ratio(&self) -> f64 {
        let with: usize = self.tuning.iter().map(|t| t.sims_model).sum();
        let without: usize = self.tuning.iter().map(|t| t.sims_off).sum();
        without as f64 / (with as f64).max(1.0)
    }

    /// The CI gate: empty when the report passes, else one line per
    /// violated property.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cells {
            if c.spearman < SPEARMAN_GATE {
                out.push(format!(
                    "{} on {}: Spearman {:.3} < {SPEARMAN_GATE}",
                    c.bench, c.device, c.spearman
                ));
            }
        }
        for t in &self.tuning {
            if !t.winner_match {
                out.push(format!(
                    "{} on {}: model-guided and model-off tuning disagree on the winner",
                    t.bench, t.device
                ));
            }
        }
        out
    }

    /// The machine-readable document (`lift-harness model --json`).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "    {{\"bench\": {}, \"device\": {}, \"points\": {}, \
                     \"exact_points\": {}, \"spearman\": {:.6}}}",
                    json_str(&c.bench),
                    json_str(&c.device),
                    c.points.len(),
                    c.exact_points,
                    c.spearman
                )
            })
            .collect();
        let tuning: Vec<String> = self
            .tuning
            .iter()
            .map(|t| {
                format!(
                    "    {{\"bench\": {}, \"device\": {}, \"winner_match\": {}, \
                     \"evals_to_best_model\": {}, \"evals_to_best_off\": {}, \
                     \"sims_model\": {}, \"sims_off\": {}}}",
                    json_str(&t.bench),
                    json_str(&t.device),
                    t.winner_match,
                    t.evals_to_best_model,
                    t.evals_to_best_off,
                    t.sims_model,
                    t.sims_off
                )
            })
            .collect();
        format!(
            "{{\n\
             \"schema\": \"lift-cost-model/1\",\n\
             \"budget\": {},\n\
             \"min_spearman\": {:.6},\n\
             \"points\": {},\n\
             \"exact_points\": {},\n\
             \"all_winners_match\": {},\n\
             \"evals_to_best_ratio\": {:.3},\n\
             \"sims_ratio\": {:.3},\n\
             \"accuracy\": [\n{}\n  ],\n\
             \"tuning\": [\n{}\n  ]\n\
             }}\n",
            self.budget,
            self.min_spearman(),
            self.points(),
            self.exact_points(),
            self.all_winners_match(),
            self.evals_to_best_ratio(),
            self.sims_ratio(),
            cells.join(",\n"),
            tuning.join(",\n")
        )
    }

    /// A human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Cost model: predicted vs simulated runtime (Spearman rank correlation)\n");
        let mut devices: Vec<&str> = self.cells.iter().map(|c| c.device.as_str()).collect();
        devices.dedup();
        for dev in devices {
            out.push_str(&format!("\n  [{dev}]\n"));
            for c in self.cells.iter().filter(|c| c.device == dev) {
                out.push_str(&format!(
                    "  {:<14}{:>4} configs   spearman {:>6.3}   {}/{} bit-exact\n",
                    c.bench,
                    c.points.len(),
                    c.spearman,
                    c.exact_points,
                    c.points.len()
                ));
            }
        }
        out.push_str(&format!(
            "\nTuning with the model vs LIFT_COST_PRUNE=off (budget {}):\n",
            self.budget
        ));
        for t in &self.tuning {
            out.push_str(&format!(
                "  {:<14}{:<22} {}  evals-to-best {:>3} vs {:>3}   sims {:>4} vs {:>4}\n",
                t.bench,
                t.device,
                if t.winner_match {
                    "same winner"
                } else {
                    "WINNERS DIVERGED"
                },
                t.evals_to_best_model,
                t.evals_to_best_off,
                t.sims_model,
                t.sims_off
            ));
        }
        out.push_str(&format!(
            "\nmin spearman {:.3}, {}/{} points bit-exact, evals-to-best ratio {:.1}x, \
             sims ratio {:.1}x\n",
            self.min_spearman(),
            self.exact_points(),
            self.points(),
            self.evals_to_best_ratio(),
            self.sims_ratio()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_handles_perfect_inverse_and_ties() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spearman(&a, &a), 1.0);
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(spearman(&a, &rev), -1.0);
        // Monotone but non-linear: rank correlation is still perfect.
        let sq = [1.0, 4.0, 9.0, 16.0];
        assert_eq!(spearman(&a, &sq), 1.0);
        // Ties share average ranks instead of poisoning the score.
        let tied = [1.0, 2.0, 2.0, 3.0];
        assert!(spearman(&tied, &tied) == 1.0);
        // Degenerate cells: agreement scores 1, disagreement 0.
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(spearman(&flat, &flat), 1.0);
        assert_eq!(spearman(&flat, &a), 0.0);
        assert_eq!(spearman(&[1.0], &[9.0]), 1.0);
    }

    #[test]
    fn report_rendering_and_gate() {
        let report = ModelReport {
            cells: vec![ModelCell {
                bench: "Heat".into(),
                device: "Nvidia Tesla K20c".into(),
                points: vec![ModelPoint {
                    variant: "global".into(),
                    config: vec![("lx".into(), 4)],
                    predicted_s: 1e-5,
                    simulated_s: 1e-5,
                    exact: true,
                }],
                spearman: 1.0,
                exact_points: 1,
            }],
            tuning: vec![TuneCell {
                bench: "Heat".into(),
                device: "Nvidia Tesla K20c".into(),
                winner_match: true,
                evals_to_best_model: 1,
                evals_to_best_off: 7,
                sims_model: 12,
                sims_off: 40,
            }],
            budget: 10,
        };
        assert!(report.gate_failures().is_empty());
        assert_eq!(report.evals_to_best_ratio(), 7.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"lift-cost-model/1\""));
        assert!(json.contains("\"min_spearman\": 1.000000"));
        assert!(json.contains("\"evals_to_best_ratio\": 7.000"));
        assert!(json.contains("\"sims_ratio\": 3.333"));
        let text = report.render();
        assert!(text.contains("same winner"));
        assert!(text.contains("1/1 bit-exact"));

        // A bad cell and a diverged winner both gate.
        let mut bad = report.clone();
        bad.cells[0].spearman = 0.5;
        bad.tuning[0].winner_match = false;
        let failures = bad.gate_failures();
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("Spearman 0.500"), "{failures:?}");
        assert!(failures[1].contains("disagree"), "{failures:?}");
    }
}
