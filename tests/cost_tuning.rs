//! The cost-model tuning contract: model guidance (warm-start + dominated-
//! config pruning) changes how *fast* tuning converges, never *what* it
//! finds — and stays bit-deterministic across thread counts while at it.
//!
//! Pruning is audited from each search's checkpoint record: every
//! configuration the model dropped is simulated after the fact and must
//! score no better than the incumbent it was dropped against.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lift::lift_oclsim::{BufferData, DeviceProfile, VirtualDevice};
use lift::lift_stencils::{by_name, fig7_names};
use lift::lift_tuner::json::Value;
use lift::{KernelCache, Pipeline, TuneOptions, TunedVariant};

fn fingerprint(v: &TunedVariant) -> (String, String, Vec<(String, i64)>) {
    (
        v.name.clone(),
        // Scores must be *bit*-identical, not approximately equal.
        format!("{:x}", v.time_s.to_bits()),
        v.config.clone(),
    )
}

fn tune(
    dev: &VirtualDevice,
    bench: &str,
    sizes: &[usize],
    threads: usize,
) -> lift::lift_driver::BenchResult {
    Pipeline::for_benchmark(bench, sizes)
        .expect("benchmark exists")
        .explore()
        .expect("explores")
        .on(dev)
        .with_cache(Arc::new(KernelCache::new()))
        .tune_full(
            TuneOptions::evaluations(10)
                .with_seed(7)
                .with_threads(threads),
        )
        .expect("tunes")
        .report
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lift-prune-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A record's `[[configuration, value], …]` list.
fn pairs<'a>(entry: &'a Value, field: &str) -> Vec<(Vec<i64>, &'a Value)> {
    let items = entry.get(field).and_then(Value::as_arr);
    items
        .unwrap_or_else(|| panic!("record field `{field}` is missing"))
        .iter()
        .map(|item| {
            let [cfg, v] = item.as_arr().expect("a pair") else {
                panic!("`{field}` holds a non-pair");
            };
            let cfg = cfg.as_arr().expect("a configuration");
            (
                cfg.iter()
                    .map(|x| x.as_i64().expect("an integer"))
                    .collect(),
                v,
            )
        })
        .collect()
}

/// How many pruned proposals an audit simulated, and how many it skipped
/// because the verifier rejects them or their launch fails: those could
/// never have scored.
#[derive(Debug, Default)]
struct Audit {
    simulated: usize,
    unscorable: usize,
}

/// Tunes `bench` on `dev` with a checkpoint and audits every search's
/// record against the report:
/// - each `"model"` tell, simulated now, scores at least the incumbent at
///   that point (the earliest minimum of the scores told before it);
/// - each simulated configuration the warm start ranked scores its rank
///   bit for bit;
/// - the record's final incumbent is the reported best.
fn audit(
    dev: &VirtualDevice,
    bench: &str,
    sizes: &[usize],
    opts: TuneOptions,
    dir: &Path,
) -> Audit {
    let path = dir.join(format!("{bench}-{}.json", dev.profile().name));
    let variants = Pipeline::for_benchmark(bench, sizes)
        .expect("benchmark exists")
        .explore()
        .expect("explores");
    let cache = Arc::new(KernelCache::new());
    let session = || variants.clone().on(dev).with_cache(cache.clone());
    let seed = opts.seed;
    let report = session()
        .tune_full(opts.with_checkpoint(&path))
        .expect("tunes")
        .report;
    let record = Value::parse(&std::fs::read_to_string(&path).expect("record written"))
        .expect("record parses");
    std::fs::remove_file(&path).ok();
    let inputs: Vec<BufferData> = by_name(bench)
        .gen_inputs(sizes, seed)
        .into_iter()
        .map(BufferData::F32)
        .collect();
    let Some(Value::Obj(entries)) = record.get("entries") else {
        panic!("{bench}: the record has no entries");
    };
    let mut audit = Audit::default();
    for (key, entry) in entries {
        let (_, variant) = key.rsplit_once('#').expect("keys name their variant");
        let tuned = report.all.iter().find(|v| v.name == variant);
        let ranks = pairs(entry, "ranks");
        let mut incumbent: Option<(f64, Vec<i64>)> = None;
        for (cfg, outcome) in pairs(entry, "tells") {
            match outcome.as_str() {
                None => {
                    let score = outcome.as_f64().expect("a score");
                    let rank = ranks.iter().find(|(c, _)| *c == cfg).map(|(_, r)| r);
                    if let Some(rank) = rank.and_then(|r| r.as_f64()) {
                        assert_eq!(
                            score.to_bits(),
                            rank.to_bits(),
                            "{key}: {cfg:?} scored {score} but was ranked {rank}"
                        );
                    }
                    if incumbent.as_ref().is_none_or(|(best, _)| score < *best) {
                        incumbent = Some((score, cfg));
                    }
                }
                Some("model") => {
                    let (best, _) = incumbent
                        .as_ref()
                        .unwrap_or_else(|| panic!("{key}: {cfg:?} pruned before any score"));
                    let tuned = tuned.expect("a variant that pruned has a best");
                    let params: Vec<(&str, i64)> = tuned
                        .config
                        .iter()
                        .map(|(name, _)| name.as_str())
                        .zip(cfg.iter().copied())
                        .collect();
                    let compiled = session()
                        .with_config(variant, &params)
                        .unwrap_or_else(|e| panic!("{key}: priced {cfg:?} must compile: {e}"));
                    let verified = compiled.verify().expect("plans").is_empty();
                    let Some(out) = verified.then(|| compiled.run(&inputs).ok()).flatten() else {
                        audit.unscorable += 1;
                        continue;
                    };
                    assert!(
                        out.time_s >= *best,
                        "{key}: pruned {cfg:?} simulates to {} s, under the incumbent's {best} s",
                        out.time_s
                    );
                    audit.simulated += 1;
                }
                Some(_) => {}
            }
        }
        let reported = tuned.map(|v| {
            let values: Vec<i64> = v.config.iter().map(|(_, x)| *x).collect();
            (v.time_s, values)
        });
        assert_eq!(
            incumbent.map(|(s, c)| (s.to_bits(), c)),
            reported.map(|(s, c)| (s.to_bits(), c)),
            "{key}: the record's incumbent is not the reported best"
        );
    }
    audit
}

/// The safety half of the contract, audited from the record on every
/// device profile, for Jacobi2D5pt, Heat and the six Figure-7 benchmarks
/// (on 18² and 8³ grids): no configuration the model pruned could have
/// beaten the incumbent it was pruned against. The model prunes only
/// configurations whose exact estimate matches or exceeds the
/// incumbent's — a worse one loses on score, an exactly-tied one loses
/// the (score, proposal-index) tie-break — and for launch-determined
/// kernels the exact estimate *is* the simulated score.
#[test]
fn pruned_tuning_finds_the_unpruned_incumbent() {
    let dir = tmp_dir("tier1");
    let benches = ["Jacobi2D5pt", "Heat"].into_iter().chain(fig7_names());
    let mut total = Audit::default();
    for profile in DeviceProfile::all() {
        let dev = VirtualDevice::new(profile);
        for bench in benches.clone() {
            let sizes = match by_name(bench).dims {
                3 => vec![8, 8, 8],
                _ => vec![18, 18],
            };
            let opts = TuneOptions::evaluations(10).with_seed(7);
            let cell = audit(&dev, bench, &sizes, opts, &dir);
            total.simulated += cell.simulated;
            total.unscorable += cell.unscorable;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    eprintln!("audited pruned proposals: {total:?}");
    // An audit of nothing would pass: the sweep prunes over a thousand.
    assert!(total.simulated >= 1000, "{total:?}");
}

/// The same audit over the 18 Figure-7 cells at their scaled sizes, with
/// the default sweep's seed and budget (`lift-harness fig7`). Slow in a
/// debug build: `cargo test --release --test cost_tuning -- --ignored`.
#[test]
#[ignore]
fn pruning_is_lossless_on_the_scaled_figure7_sweep() {
    let dir = tmp_dir("fig7");
    let mut total = Audit::default();
    for profile in DeviceProfile::all() {
        let dev = VirtualDevice::new(profile);
        for bench in fig7_names() {
            let sizes = by_name(bench).size(false, false);
            let opts = TuneOptions::evaluations(10).with_seed(2018);
            let cell = audit(&dev, bench, &sizes, opts, &dir);
            total.simulated += cell.simulated;
            total.unscorable += cell.unscorable;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    eprintln!("audited pruned proposals: {total:?}");
    assert!(total.simulated > 0, "{total:?}");
}

/// The determinism half: prune decisions are a pure function of the
/// proposal stream (one proposal at a time against the freshest
/// incumbent's estimate), so any thread count reproduces the sequential
/// run exactly — including the prune counters and the evals-to-best
/// metric.
#[test]
fn model_guided_tuning_is_bit_identical_across_thread_counts() {
    let dev = VirtualDevice::new(DeviceProfile::hd7970());
    let full = |threads: usize| {
        tune(&dev, "Jacobi2D5pt", &[18, 18], threads)
            .all
            .iter()
            .map(|v| {
                (
                    fingerprint(v),
                    v.evaluations,
                    v.evals_to_best,
                    v.pruned_verify,
                    v.pruned_model,
                    v.sims,
                )
            })
            .collect::<Vec<_>>()
    };
    let sequential = full(1);
    for threads in [2, 8] {
        assert_eq!(full(threads), sequential, "threads={threads} diverged");
    }
}
