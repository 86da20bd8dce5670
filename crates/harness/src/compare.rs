//! Report diffing: the `lift-harness compare <a.json> <b.json>` command.
//!
//! Compares two row arrays produced by this harness's `--json` experiments
//! (fig7, fig8, ablation, `bench <name>`) and classifies every difference
//! as a **regression** (throughput or speedup dropped, a row disappeared)
//! or a **note** (configs shifted, prune counts drifted, rows appeared).
//! The command exits non-zero on any regression, so pinning a known-good
//! report in CI turns the diff into a gate:
//!
//! ```text
//! lift-harness --json fig7 > new.json
//! lift-harness compare baseline/fig7.json new.json
//! ```

use lift_tuner::json::Value;

/// Relative slack for throughput comparisons. The simulator is
/// deterministic, so any honest decrease is a real regression; the slack
/// only absorbs decimal re-rendering of identical numbers.
const REL_TOL: f64 = 1e-9;

/// The outcome of a comparison: what changed, and which of those changes
/// must fail the gate.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Informational differences (configs, prune drift, new rows).
    pub notes: Vec<String>,
    /// Gate-failing differences (lost throughput, vanished rows).
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Whether the comparison found any gate-failing difference.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// The human-readable diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.notes.is_empty() && self.regressions.is_empty() {
            out.push_str("no differences\n");
            return out;
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!("  REGRESSION: {r}\n"));
        }
        out.push_str(&format!(
            "{} note(s), {} regression(s)\n",
            self.notes.len(),
            self.regressions.len()
        ));
        out
    }
}

/// A row's identity across the two documents: every identifying field the
/// row kinds use, in a fixed order.
fn key_of(row: &Value) -> String {
    ["bench", "device", "size", "variant"]
        .iter()
        .filter_map(|k| row.get(k).and_then(Value::as_str))
        .collect::<Vec<_>>()
        .join(" / ")
}

/// The row's primary goodness metric (higher is better), by kind:
/// `lift_gelems` for fig7, `speedup` for fig8, `gelems` for ablation and
/// single-benchmark rows.
fn metric_of(row: &Value) -> Option<(&'static str, f64)> {
    for name in ["lift_gelems", "speedup", "gelems"] {
        if let Some(x) = row.get(name).and_then(Value::as_f64) {
            return Some((name, x));
        }
    }
    None
}

/// Renders a row's `config` object as `lx=4 ly=8`.
fn config_of(row: &Value) -> Option<String> {
    let Some(Value::Obj(fields)) = row.get("config") else {
        return None;
    };
    Some(
        fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_i64().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join(" "),
    )
}

/// Diffs two row arrays (any of the harness's `--json` kinds; the two
/// documents should be the same kind, which row keys enforce naturally).
fn compare_rows(a: &[Value], b: &[Value], out: &mut Comparison) {
    let keyed = |rows: &[Value]| -> Vec<(String, Value)> {
        rows.iter().map(|r| (key_of(r), r.clone())).collect()
    };
    let (ka, kb) = (keyed(a), keyed(b));
    for (key, old) in &ka {
        let Some((_, new)) = kb.iter().find(|(k, _)| k == key) else {
            out.regressions.push(format!("{key}: row disappeared"));
            continue;
        };
        if let (Some((name, x)), Some((_, y))) = (metric_of(old), metric_of(new)) {
            if y < x * (1.0 - REL_TOL) {
                out.regressions.push(format!(
                    "{key}: {name} {x:.4} -> {y:.4} ({:+.1}%)",
                    (y / x - 1.0) * 100.0
                ));
            } else if y > x * (1.0 + REL_TOL) {
                out.notes.push(format!(
                    "{key}: {name} {x:.4} -> {y:.4} ({:+.1}%)",
                    (y / x - 1.0) * 100.0
                ));
            }
        }
        if let (Some(ca), Some(cb)) = (config_of(old), config_of(new)) {
            if ca != cb {
                out.notes.push(format!("{key}: config {ca} -> {cb}"));
            }
        }
        if let (Some(va), Some(vb)) = (
            old.get("lift_variant").and_then(Value::as_str),
            new.get("lift_variant").and_then(Value::as_str),
        ) {
            if va != vb {
                out.notes
                    .push(format!("{key}: winning variant {va} -> {vb}"));
            }
        }
        for counter in [
            "pruned_verify",
            "pruned_model",
            "evals_to_best",
            "sims",
            "pruned",
        ] {
            if let (Some(pa), Some(pb)) = (
                old.get(counter).and_then(Value::as_u64),
                new.get(counter).and_then(Value::as_u64),
            ) {
                if pa != pb {
                    out.notes.push(format!("{key}: {counter} {pa} -> {pb}"));
                }
            }
        }
    }
    for (key, _) in &kb {
        if !ka.iter().any(|(k, _)| k == key) {
            out.notes.push(format!("{key}: new row"));
        }
    }
}

/// Compares two harness report documents (see the module docs). `a` is
/// the baseline, `b` the candidate.
///
/// # Errors
///
/// A human-readable message when either document fails to parse or is
/// not a row array.
pub fn compare_docs(
    a_origin: &str,
    a_text: &str,
    b_origin: &str,
    b_text: &str,
) -> Result<Comparison, String> {
    let a = Value::parse(a_text).map_err(|e| format!("{a_origin}: not valid JSON: {e}"))?;
    let b = Value::parse(b_text).map_err(|e| format!("{b_origin}: not valid JSON: {e}"))?;
    let mut out = Comparison::default();
    match (&a, &b) {
        (Value::Arr(ra), Value::Arr(rb)) => compare_rows(ra, rb, &mut out),
        (Value::Obj(_), Value::Obj(_)) => {
            return Err(format!(
                "{a_origin} / {b_origin}: only row arrays (--json experiments) can be compared"
            ));
        }
        _ => {
            return Err(format!(
                "{a_origin} and {b_origin} are different document shapes; compare like with like"
            ))
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG7_A: &str = r#"[
  {"bench": "Heat", "device": "K20c", "lift_gelems": 10.0, "reference_gelems": 2.0, "lift_variant": "global", "lift_tiled": false},
  {"bench": "Gaussian", "device": "K20c", "lift_gelems": 4.0, "reference_gelems": 2.0, "lift_variant": "global", "lift_tiled": false}
]"#;

    #[test]
    fn identical_documents_do_not_regress() {
        let c = compare_docs("a", FIG7_A, "b", FIG7_A).expect("parses");
        assert!(!c.regressed());
        assert_eq!(c.render(), "no differences\n");
    }

    #[test]
    fn throughput_drop_and_lost_row_regress() {
        let b = FIG7_A
            .replace("\"lift_gelems\": 10.0", "\"lift_gelems\": 9.0")
            .replace(
                "\"lift_variant\": \"global\"",
                "\"lift_variant\": \"tiled\"",
            );
        let c = compare_docs("a", FIG7_A, "b", &b).expect("parses");
        assert!(c.regressed());
        assert!(
            c.regressions[0].contains("lift_gelems 10.0000 -> 9.0000"),
            "{c:?}"
        );
        // Variant changes are notes, not regressions.
        assert!(
            c.notes.iter().any(|n| n.contains("global -> tiled")),
            "{c:?}"
        );

        let lost = "[\n]";
        let c = compare_docs("a", FIG7_A, "b", lost).expect("parses");
        assert_eq!(c.regressions.len(), 2, "{c:?}");
        assert!(c.regressions[0].contains("disappeared"));
    }

    #[test]
    fn bench_rows_diff_configs_and_prune_counters() {
        let a = r#"[{"bench": "Heat", "device": "K20c", "variant": "global", "time_s": 1e-5, "gelems": 5.0, "config": {"lx": 4, "ly": 8}, "winner": true, "tiled": false, "local_mem": false, "evals_to_best": 7, "pruned_verify": 1, "pruned_model": 0}]"#;
        let b = a
            .replace("\"lx\": 4", "\"lx\": 8")
            .replace("\"evals_to_best\": 7", "\"evals_to_best\": 1")
            .replace("\"pruned_model\": 0", "\"pruned_model\": 5")
            .replace("\"gelems\": 5.0", "\"gelems\": 6.0");
        let c = compare_docs("a", a, "b", &b).expect("parses");
        assert!(
            !c.regressed(),
            "faster + drifted counters is not a regression: {c:?}"
        );
        let text = c.render();
        assert!(text.contains("config lx=4 ly=8 -> lx=8 ly=8"), "{text}");
        assert!(text.contains("evals_to_best 7 -> 1"), "{text}");
        assert!(text.contains("pruned_model 0 -> 5"), "{text}");
        assert!(text.contains("gelems 5.0000 -> 6.0000"), "{text}");
    }

    #[test]
    fn only_row_arrays_compare_and_shapes_must_match() {
        let doc = r#"{"fig7": []}"#;
        let err = compare_docs("a", doc, "b", doc).expect_err("objects are not rows");
        assert!(err.contains("only row arrays"), "{err}");
        let err = compare_docs("a", doc, "b", FIG7_A).expect_err("shape mismatch");
        assert!(err.contains("different document shapes"), "{err}");
    }
}
