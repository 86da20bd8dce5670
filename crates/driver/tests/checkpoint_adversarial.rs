//! Adversarial checkpoint recovery: every way a checkpoint file can be
//! damaged in the field — truncation, bit flips, runaway nesting, version
//! skew, a stale atomic-write temp from a crash — must restore cleanly. Damage is
//! quarantined and the run restarts fresh; version skew is an intact
//! file from another build, and a record that diverges from the run is
//! intact but made under other settings: both stay hard, explained
//! errors. Nothing here may panic, and every recovered run must converge
//! to the fault-free report (determinism makes a fresh restart equivalent
//! to the run the checkpoint would have resumed).
//!
//! Checkpoint managers are process-wide singletons per path, so every
//! test works in its own directory under a unique name.

use std::path::{Path, PathBuf};

use lift_driver::{BenchResult, LiftError, Pipeline, TuneOptions};
use lift_oclsim::{DeviceProfile, VirtualDevice};
use lift_tuner::json::Value;

const BENCH: &str = "Jacobi2D5pt";
const SIZES: &[usize] = &[18, 18];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lift-adv-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> TuneOptions {
    TuneOptions::evaluations(3)
        .with_seed(11)
        .with_checkpoint_every(1)
}

fn run(opts: TuneOptions) -> Result<BenchResult, LiftError> {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    Ok(Pipeline::for_benchmark(BENCH, SIZES)?
        .explore()?
        .on(&dev)
        .tune_full(opts)?
        .report)
}

/// The bit-exact identity of a report: variant names, times, configs and
/// evaluation counts. Two runs agree iff their fingerprints are equal.
type Fingerprint = Vec<(String, u64, Vec<(String, i64)>, usize)>;

fn fingerprint(report: &BenchResult) -> Fingerprint {
    report
        .all
        .iter()
        .map(|v| {
            (
                v.name.clone(),
                v.time_s.to_bits(),
                v.config.clone(),
                v.evaluations,
            )
        })
        .collect()
}

fn fault_free() -> Fingerprint {
    fingerprint(&run(opts()).expect("fault-free run tunes"))
}

/// A real checkpoint document to damage, written through the normal path.
fn genuine_checkpoint(dir: &Path) -> String {
    let path = dir.join("donor.json");
    run(opts().with_checkpoint(&path)).expect("donor run tunes");
    std::fs::read_to_string(&path).expect("donor checkpoint exists")
}

#[test]
fn truncated_checkpoint_quarantines_and_converges() {
    let dir = tmp_dir("trunc");
    let text = genuine_checkpoint(&dir);
    // A torn write: the first half of a valid document.
    quarantines_and_converges(&dir, &text.as_bytes()[..text.len() / 2]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes `bytes` as a checkpoint, runs against it and checks that the
/// damage is quarantined byte for byte and the run converges.
fn quarantines_and_converges(dir: &Path, bytes: &[u8]) {
    let path = dir.join("ck.json");
    std::fs::write(&path, bytes).unwrap();
    let report = run(opts().with_checkpoint(&path)).expect("damage is not fatal");
    assert_eq!(
        fingerprint(&report),
        fault_free(),
        "recovered run converges"
    );
    let quarantined = dir.join("ck.json.corrupt-1");
    assert!(quarantined.exists(), "damaged file preserved in quarantine");
    assert_eq!(
        std::fs::read(&quarantined).unwrap(),
        bytes,
        "quarantine preserves the damaged bytes untouched"
    );
}

#[test]
fn bit_flipped_checkpoint_quarantines_and_converges() {
    // Flip a bit in the middle of the document — deterministically, at
    // the first structural `{` past the midpoint: bit 6 breaks JSON
    // nesting, and the high bit makes the file invalid UTF-8.
    for (tag, bit) in [("flip40", 0x40), ("flip80", 0x80)] {
        let dir = tmp_dir(tag);
        let mut bytes = genuine_checkpoint(&dir).into_bytes();
        let mid = bytes.len() / 2;
        let pos = (mid..bytes.len())
            .find(|&i| bytes[i] == b'{')
            .expect("a brace past the midpoint");
        bytes[pos] ^= bit;
        quarantines_and_converges(&dir, &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn deeply_nested_checkpoint_quarantines_and_converges() {
    // Nesting deep enough to overflow a recursive parser's stack.
    let dir = tmp_dir("deep");
    quarantines_and_converges(&dir, "[".repeat(200_000).as_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_skew_is_a_hard_versioned_rejection() {
    let dir = tmp_dir("skew");
    let path = dir.join("ck.json");
    // A well-formed file from a hypothetical future build: intact work,
    // so it must be rejected loudly, never quarantined or overwritten.
    let doc = r#"{"schema_version": 99, "entries": {}}"#;
    std::fs::write(&path, doc).unwrap();
    let err = run(opts().with_checkpoint(&path)).expect_err("version skew fails loudly");
    // tune_full surfaces per-variant checkpoint errors as the tuning
    // outcome; whichever shape arrives, the message must name the skew.
    let msg = err.to_string();
    assert!(msg.contains("schema_version 99"), "{msg}");
    assert!(
        std::fs::read_to_string(&path).unwrap() == doc,
        "the skewed file is left exactly as found"
    );
    assert!(
        !dir.join("ck.json.corrupt-1").exists(),
        "version skew is not quarantined — the file is intact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_tmp_from_a_crash_is_swept() {
    let dir = tmp_dir("tmp");
    let text = genuine_checkpoint(&dir);
    let path = dir.join("ck.json");
    std::fs::write(&path, &text).unwrap();
    // A crash between staging and rename leaves a half-written sibling.
    let tmp = dir.join("ck.json.tmp");
    std::fs::write(&tmp, &text.as_bytes()[..text.len() / 3]).unwrap();
    let report = run(opts().with_checkpoint(&path)).expect("stale temp is not fatal");
    assert_eq!(
        fingerprint(&report),
        fault_free(),
        "the intact checkpoint resumes normally"
    );
    assert!(!tmp.exists(), "the stale temp file was swept on startup");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `entries` object of a checkpoint document: (key, record) pairs.
fn entries(doc: &mut Value) -> &mut Vec<(String, Value)> {
    let Value::Obj(members) = doc else {
        panic!("a checkpoint is an object")
    };
    match members.iter_mut().find(|(k, _)| k == "entries") {
        Some((_, Value::Obj(entries))) => entries,
        _ => panic!("`entries` is an object"),
    }
}

#[test]
fn one_diverging_record_fails_the_run_and_names_its_variant() {
    // Only the `coarsened` record is altered: its seed's lowest bit flips.
    // Every other record still replays and scores, so a run that
    // swallowed the divergence would print a report without that row.
    // The `global` record is dropped, so that variant tunes afresh.
    let dir = tmp_dir("seed");
    let mut doc = Value::parse(&genuine_checkpoint(&dir)).expect("a checkpoint parses");
    let is_altered = |key: &str| key.ends_with("#coarsened");
    let is_global = |key: &str| key.ends_with("#global");
    let before = entries(&mut doc).len();
    entries(&mut doc).retain(|(key, _)| !is_global(key));
    assert_eq!(entries(&mut doc).len(), before - 1, "a `global` record");
    let (_, Value::Obj(record)) = entries(&mut doc)
        .iter_mut()
        .find(|(key, _)| is_altered(key))
        .expect("a `coarsened` record")
    else {
        panic!("a record is an object")
    };
    match record.iter_mut().find(|(k, _)| k == "seed") {
        Some((_, Value::Int(seed))) => *seed ^= 1,
        Some((_, Value::UInt(seed))) => *seed ^= 1,
        other => panic!("a record's seed is an integer, not {other:?}"),
    }
    let path = dir.join("ck.json");
    std::fs::write(&path, doc.to_json()).unwrap();
    // With writes deferred to the flush, only the flush can keep the
    // fresh `global` record; a failed run flushes too.
    let err = run(opts().with_checkpoint_every(1000).with_checkpoint(&path))
        .expect_err("a diverging record fails the run");
    let LiftError::Checkpoint(msg) = &err else {
        panic!("expected a checkpoint error, got {err}")
    };
    assert!(msg.contains("variant `coarsened`"), "{msg}");
    assert!(
        !dir.join("ck.json.corrupt-1").exists(),
        "a diverging record is intact, not quarantined"
    );
    let mut flushed = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(
        entries(&mut flushed).iter().any(|(key, _)| is_global(key)),
        "the failed run flushed what it measured"
    );

    // Without the altered record the file resumes: every other record
    // scores, and `coarsened` and `global` tune afresh.
    entries(&mut doc).retain(|(key, _)| !is_altered(key));
    let path = dir.join("without.json");
    std::fs::write(&path, doc.to_json()).unwrap();
    let report = run(opts().with_checkpoint(&path)).expect("the other records resume");
    assert_eq!(fingerprint(&report), fault_free());
    std::fs::remove_dir_all(&dir).ok();
}
