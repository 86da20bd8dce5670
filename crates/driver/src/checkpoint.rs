//! Durable tuning checkpoints: crash-safe records of what each search
//! was told.
//!
//! A [`CheckpointManager`] owns one checkpoint file and collects the
//! record of every search a tuning run performs — keyed by `(program,
//! device, sizes, variant)` so one file can cover a whole harness sweep.
//! A record holds the search's seed and budget, the estimates its warm
//! start ranked the initial block by, every told proposal in proposal
//! order with its outcome, and the first failure's message. The file is
//! rewritten atomically (temp file + rename) every
//! [`TuneOptions::checkpoint_every`] applied tells, and a fresh run
//! pointed at the same file *replays* every record: a new search with the
//! recorded seed and ranks is told the recorded outcomes before it
//! evaluates anything. Because proposals depend only on the seed, the
//! ranking and the outcomes told so far, the resumed run is
//! **bit-identical** to one that was never interrupted, and it compiles
//! nothing it already measured.
//!
//! Managers are process-wide singletons per path (see
//! [`CheckpointManager::at`]): concurrent sweep cells share one manager
//! and serialize their writes on its lock. Distinct *processes* must use
//! distinct paths — the harness's shard mode (`--shard`, which every
//! `campaign` worker runs in) derives `<path>.shard<i>of<n>` per worker
//! for exactly this reason.
//!
//! The file layout (version [`CHECKPOINT_SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "entries": {
//!     "Jacobi2D5pt@Nvidia Tesla K20c@18x18#tiled-local": {
//!       "seed": 4409381015186392573,
//!       "budget": 10,
//!       "ranks": [[[16, 8], 2.1e-6], [[8, 4], null]],   // null: no estimate
//!       "tells": [[[16, 8], 2.1e-6], [[8, 4], "model"],
//!                 [[4, 4], "verify"], [[32, 2], "failed"]],
//!       "first_failure": null      // or the first failure's message
//!     }
//!   }
//! }
//! ```
//!
//! A told outcome is the modeled time of a simulated configuration, or
//! `"model"` (pruned by the cost model), `"verify"` (rejected by the
//! static verifier) or `"failed"` (failed to compile, run or validate).
//!
//! [`TuneOptions::checkpoint_every`]: crate::TuneOptions

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use lift_tuner::json::Value;

use crate::error::LiftError;
use crate::fault;

/// The version written into (and required from) every checkpoint file.
/// Version 4 records what each search was told, always with the warm
/// start's ranks (version 3 allowed unguided records without them);
/// files of earlier versions are rejected with a clear
/// [`LiftError::Checkpoint`] (delete the file or re-run with the build
/// that wrote it).
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 4;

/// Why a checkpoint file failed to load. The distinction matters for
/// recovery: a [`ParseError::Version`] file is *intact* — some other build
/// wrote it and silently discarding it would throw away good work, so it
/// stays a hard error. A [`ParseError::Corrupt`] file is damaged (torn
/// write, bit rot, truncation) and can never load under any build, so
/// [`CheckpointManager::at`] quarantines it and restarts fresh.
#[derive(Debug)]
enum ParseError {
    /// Well-formed file written by an incompatible schema version.
    Version(String),
    /// Unreadable content: invalid UTF-8 or JSON, missing/damaged fields.
    Corrupt(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Version(m) | ParseError::Corrupt(m) => f.write_str(m),
        }
    }
}

/// How one told proposal ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Outcome {
    /// Simulated and validated, with this modeled time.
    Score(f64),
    /// Dropped by the cost model before simulation.
    PrunedModel,
    /// Rejected by the static verifier before simulation.
    PrunedVerify,
    /// Failed to compile, run or validate.
    Failed,
}

impl Outcome {
    /// The score the search is told: `None` unless simulated.
    pub fn score(self) -> Option<f64> {
        match self {
            Outcome::Score(s) => Some(s),
            _ => None,
        }
    }
}

/// The record of one search: what it was started with and what it was
/// told, in proposal order, plus the first failure's message (kept so a
/// resumed all-variants-failed run can still explain itself).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointEntry {
    pub seed: u64,
    pub budget: usize,
    /// The warm start's estimate for each configuration of the initial
    /// block, in proposal order (`None` where the model has no estimate).
    pub ranks: Vec<(Vec<i64>, Option<f64>)>,
    /// Every told proposal with its outcome, in proposal order.
    pub tells: Vec<(Vec<i64>, Outcome)>,
    pub first_failure: Option<String>,
}

struct Inner {
    entries: BTreeMap<String, CheckpointEntry>,
    tells_since_write: usize,
    /// The first deferred write failure; surfaced by [`CheckpointManager::flush`]
    /// so a full disk cannot silently disable checkpointing.
    write_error: Option<String>,
}

/// The process-wide owner of one checkpoint file: it accumulates every
/// search's record under `(program, device, sizes, variant)` keys,
/// rewrites the file atomically every `every` applied tells, and hands
/// the records back to resuming searches. One file covers a
/// whole sweep; one manager exists per path per process (see
/// [`CheckpointManager::at`]). Distinct processes must use distinct
/// paths.
pub struct CheckpointManager {
    path: PathBuf,
    every: usize,
    inner: Mutex<Inner>,
}

fn registry() -> &'static Mutex<HashMap<PathBuf, Arc<CheckpointManager>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<CheckpointManager>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

impl CheckpointManager {
    /// The manager for `path`, creating it (and loading any existing file)
    /// on first use. Every later call with the same path returns the same
    /// manager — concurrent sweep cells share the file safely — and keeps
    /// the first call's `every` cadence.
    ///
    /// First use also recovers from two crash leftovers instead of dying
    /// on them: a stale `<path>.tmp` abandoned mid-atomic-write is swept
    /// (the rename never happened, so it holds nothing the real file
    /// lacks), and a *corrupt* checkpoint is quarantined — renamed to the
    /// first free `<path>.corrupt-<k>` with a stderr warning — so the run
    /// restarts fresh rather than failing hard. Determinism makes the
    /// restart safe: a fresh search converges to the same result the
    /// checkpointed one would have.
    ///
    /// # Errors
    ///
    /// [`LiftError::Checkpoint`] when an existing file cannot be read
    /// (I/O), cannot be quarantined, or is intact but carries a
    /// `schema_version` this build does not read — that file is another
    /// build's good work and is never silently discarded.
    pub fn at(path: &Path, every: usize) -> Result<Arc<CheckpointManager>, LiftError> {
        let mut reg = registry().lock().expect("checkpoint registry poisoned");
        if let Some(mgr) = reg.get(path) {
            return Ok(mgr.clone());
        }
        sweep_stale_tmp(path);
        let entries = match std::fs::read(path) {
            Ok(bytes) => match parse_file(&bytes) {
                Ok(entries) => entries,
                Err(ParseError::Version(e)) => {
                    return Err(LiftError::Checkpoint(format!("{}: {e}", path.display())))
                }
                Err(ParseError::Corrupt(e)) => {
                    let quarantined = quarantine(path).map_err(LiftError::Checkpoint)?;
                    eprintln!(
                        "lift-driver: warning: checkpoint {} is corrupt ({e}); quarantined as {} \
                         and starting fresh",
                        path.display(),
                        quarantined.display()
                    );
                    BTreeMap::new()
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => {
                return Err(LiftError::Checkpoint(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
        };
        let mgr = Arc::new(CheckpointManager {
            path: path.to_path_buf(),
            every: every.max(1),
            inner: Mutex::new(Inner {
                entries,
                tells_since_write: 0,
                write_error: None,
            }),
        });
        reg.insert(path.to_path_buf(), mgr.clone());
        Ok(mgr)
    }

    /// The recorded entry for `key`, if the file (or this run) has one.
    pub(crate) fn lookup(&self, key: &str) -> Option<CheckpointEntry> {
        self.inner
            .lock()
            .expect("checkpoint lock poisoned")
            .entries
            .get(key)
            .cloned()
    }

    /// Stores the latest record of one search, one tell longer than the
    /// last, and writes the file once the tells since the last write reach
    /// the manager's cadence. Write failures are deferred to
    /// [`CheckpointManager::flush`] — tuning itself never aborts
    /// mid-search over a full disk.
    pub(crate) fn record(&self, key: &str, entry: &CheckpointEntry) {
        let mut inner = self.inner.lock().expect("checkpoint lock poisoned");
        inner.entries.insert(key.to_string(), entry.clone());
        inner.tells_since_write += 1;
        if inner.tells_since_write >= self.every {
            inner.tells_since_write = 0;
            if let Err(e) = write_file(&self.path, &inner.entries) {
                inner.write_error.get_or_insert(e);
            }
        }
    }

    /// Writes the file now and reports any failure, including ones
    /// deferred from periodic writes.
    ///
    /// # Errors
    ///
    /// [`LiftError::Checkpoint`] naming the path and the I/O cause.
    pub fn flush(&self) -> Result<(), LiftError> {
        let mut inner = self.inner.lock().expect("checkpoint lock poisoned");
        inner.tells_since_write = 0;
        let result = write_file(&self.path, &inner.entries);
        if let Some(deferred) = inner.write_error.take() {
            return Err(LiftError::Checkpoint(deferred));
        }
        result.map_err(LiftError::Checkpoint)
    }
}

/// One tuning cell's handle into the shared manager: the manager plus the
/// cell prefix (`program@device@sizes`) its searches key under.
#[derive(Clone)]
pub(crate) struct CellCheckpoint {
    pub mgr: Arc<CheckpointManager>,
    pub cell: String,
}

impl CellCheckpoint {
    pub fn new(mgr: Arc<CheckpointManager>, name: &str, device: &str, sizes: &[usize]) -> Self {
        let sizes = sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("x");
        CellCheckpoint {
            mgr,
            cell: format!("{name}@{device}@{sizes}"),
        }
    }

    /// The file key for one variant's search within this cell.
    pub fn key(&self, variant: &str) -> String {
        format!("{}#{variant}", self.cell)
    }
}

/// The sibling temp path the atomic writer stages documents in.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Removes a stale `<path>.tmp` left by a process killed between staging
/// and rename. It is always safe to drop: the rename never happened, so
/// the real checkpoint (if any) is intact and the temp holds at most a
/// superset the next run will regenerate deterministically.
fn sweep_stale_tmp(path: &Path) {
    let tmp = tmp_path(path);
    match std::fs::remove_file(&tmp) {
        Ok(()) => eprintln!(
            "lift-driver: warning: swept stale checkpoint temp file {} (crash leftover)",
            tmp.display()
        ),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => eprintln!(
            "lift-driver: warning: cannot sweep stale temp file {}: {e}",
            tmp.display()
        ),
    }
}

/// Renames a corrupt checkpoint to the first free `<path>.corrupt-<k>`
/// (k = 1, 2, …) and returns the quarantine path, preserving the damaged
/// bytes for post-mortem instead of overwriting them.
fn quarantine(path: &Path) -> Result<PathBuf, String> {
    for k in 1..=1000u32 {
        let mut name = path.as_os_str().to_owned();
        name.push(format!(".corrupt-{k}"));
        let candidate = PathBuf::from(name);
        if candidate.exists() {
            continue;
        }
        return std::fs::rename(path, &candidate)
            .map(|()| candidate.clone())
            .map_err(|e| {
                format!(
                    "cannot quarantine corrupt checkpoint {} as {}: {e}",
                    path.display(),
                    candidate.display()
                )
            });
    }
    Err(format!(
        "cannot quarantine corrupt checkpoint {}: over 1000 quarantined copies already exist",
        path.display()
    ))
}

fn parse_file(bytes: &[u8]) -> Result<BTreeMap<String, CheckpointEntry>, ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError::Corrupt(e.to_string()))?;
    let v = Value::parse(text).map_err(ParseError::Corrupt)?;
    let version = v.get("schema_version").and_then(Value::as_u64);
    if version != Some(CHECKPOINT_SCHEMA_VERSION) {
        let msg = format!(
            "unsupported checkpoint schema_version {} (this build reads version {})",
            version.map_or("<missing>".to_string(), |x| x.to_string()),
            CHECKPOINT_SCHEMA_VERSION
        );
        // A parseable document with a wrong/missing version is another
        // build's intact file; an unparseable `schema_version` would have
        // failed JSON parsing above.
        return Err(if v.get("schema_version").is_none() {
            ParseError::Corrupt(msg)
        } else {
            ParseError::Version(msg)
        });
    }
    let Some(Value::Obj(members)) = v.get("entries") else {
        return Err(ParseError::Corrupt(
            "checkpoint field `entries` is missing or not an object".into(),
        ));
    };
    parse_entries(members).map_err(ParseError::Corrupt)
}

/// Writes `[[configuration, value], …]`, encoding each value with `value`.
fn pairs_to_json<T>(items: &[(Vec<i64>, T)], value: impl Fn(&T) -> Value) -> Value {
    Value::Arr(
        items
            .iter()
            .map(|(cfg, v)| {
                let cfg = cfg.iter().map(|x| Value::Int(*x)).collect();
                Value::Arr(vec![Value::Arr(cfg), value(v)])
            })
            .collect(),
    )
}

/// Reads `[[configuration, value], …]`, decoding each value with `value`;
/// `None` when anything is missing or malformed.
fn pairs_from_json<T>(
    items: Option<&Value>,
    value: impl Fn(&Value) -> Option<T>,
) -> Option<Vec<(Vec<i64>, T)>> {
    items?
        .as_arr()?
        .iter()
        .map(|item| {
            let [cfg, v] = item.as_arr()? else {
                return None;
            };
            let cfg = cfg
                .as_arr()?
                .iter()
                .map(Value::as_i64)
                .collect::<Option<_>>()?;
            Some((cfg, value(v)?))
        })
        .collect()
}

fn outcome_to_json(outcome: &Outcome) -> Value {
    match outcome {
        Outcome::Score(s) => Value::Float(*s),
        Outcome::PrunedModel => Value::Str("model".into()),
        Outcome::PrunedVerify => Value::Str("verify".into()),
        Outcome::Failed => Value::Str("failed".into()),
    }
}

fn outcome_from_json(v: &Value) -> Option<Outcome> {
    Some(match v.as_str() {
        Some("model") => Outcome::PrunedModel,
        Some("verify") => Outcome::PrunedVerify,
        Some("failed") => Outcome::Failed,
        _ => Outcome::Score(v.as_f64()?),
    })
}

fn rank_from_json(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Null => Some(None),
        v => v.as_f64().map(Some),
    }
}

fn parse_entries(members: &[(String, Value)]) -> Result<BTreeMap<String, CheckpointEntry>, String> {
    let mut entries = BTreeMap::new();
    for (key, entry) in members {
        let bad = |field: &str| format!("entry `{key}`: `{field}` is missing or malformed");
        let uint = |field: &str| {
            entry
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(field))
        };
        let first_failure = match entry.get("first_failure") {
            Some(Value::Null) => None,
            msg => Some(
                msg.and_then(Value::as_str)
                    .ok_or_else(|| bad("first_failure"))?,
            ),
        };
        let entry = CheckpointEntry {
            seed: uint("seed")?,
            budget: uint("budget")? as usize,
            ranks: pairs_from_json(entry.get("ranks"), rank_from_json)
                .ok_or_else(|| bad("ranks"))?,
            tells: pairs_from_json(entry.get("tells"), outcome_from_json)
                .ok_or_else(|| bad("tells"))?,
            first_failure: first_failure.map(str::to_string),
        };
        entries.insert(key.clone(), entry);
    }
    Ok(entries)
}

fn render_file(entries: &BTreeMap<String, CheckpointEntry>) -> String {
    let members = entries
        .iter()
        .map(|(key, entry)| {
            let rank = |r: &Option<f64>| r.map_or(Value::Null, Value::Float);
            let entry = Value::Obj(vec![
                ("seed".into(), Value::UInt(entry.seed)),
                ("budget".into(), Value::UInt(entry.budget as u64)),
                ("ranks".into(), pairs_to_json(&entry.ranks, rank)),
                ("tells".into(), pairs_to_json(&entry.tells, outcome_to_json)),
                (
                    "first_failure".into(),
                    entry
                        .first_failure
                        .as_ref()
                        .map_or(Value::Null, |m| Value::Str(m.clone())),
                ),
            ]);
            (key.clone(), entry)
        })
        .collect();
    let doc = Value::Obj(vec![
        (
            "schema_version".into(),
            Value::UInt(CHECKPOINT_SCHEMA_VERSION),
        ),
        ("entries".into(), Value::Obj(members)),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    text
}

/// Atomic write: the complete document lands in a sibling temp file first,
/// then renames over the target, so a kill mid-write can never leave a
/// half-written checkpoint for the next run to trip over.
fn write_file(path: &Path, entries: &BTreeMap<String, CheckpointEntry>) -> Result<(), String> {
    let rendered = render_file(entries);
    fault::sabotage_checkpoint_write(path, &rendered);
    let tmp = tmp_path(path);
    std::fs::write(&tmp, rendered).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CheckpointEntry {
        CheckpointEntry {
            seed: u64::MAX - 6,
            budget: 10,
            ranks: vec![(vec![16, 8], Some(2.1e-6)), (vec![8, 4], None)],
            tells: vec![
                (vec![16, 8], Outcome::Score(2.1e-6)),
                (vec![8, 4], Outcome::PrunedModel),
                (vec![4, 4], Outcome::PrunedVerify),
                (vec![32, 2], Outcome::Failed),
            ],
            first_failure: Some("local memory exhausted".into()),
        }
    }

    #[test]
    fn file_round_trips_entries_and_failures() {
        let unranked = CheckpointEntry {
            ranks: vec![(vec![-1, 0], None)],
            tells: vec![(vec![-1, 0], Outcome::Score(0.1 + 0.2))],
            first_failure: None,
            ..entry()
        };
        let entries = BTreeMap::from([
            ("B@dev@8x8#global".to_string(), entry()),
            ("B@dev@8x8#tiled".to_string(), unranked),
        ]);
        // Every outcome kind, 64-bit seeds and scores survive bit-exactly.
        let back = parse_file(render_file(&entries).as_bytes()).expect("parses");
        assert_eq!(back, entries);
        assert_eq!(
            back["B@dev@8x8#global"].first_failure.as_deref(),
            Some("local memory exhausted")
        );
        assert_eq!(back["B@dev@8x8#tiled"].ranks, [(vec![-1, 0], None)]);
    }

    #[test]
    fn version_mismatch_is_a_clear_error() {
        // A schema-3 file (ranks optional), a schema-2 file (engine
        // snapshots), a schema-1 file (one prune counter) and a future one
        // are all rejected the same way: a clear error, never a panic or a
        // silent restart.
        let v3 = r#"{"schema_version": 3, "entries": {"k": {"seed": 1, "budget": 2,
            "ranks": null, "tells": [], "first_failure": null}}}"#;
        let v2 = r#"{"schema_version": 2, "entries": {"k": {"state": {"schema_version": 1},
            "first_failure": null, "pruned_verify": 0, "pruned_model": 0}}}"#;
        let v1 = r#"{"schema_version": 1, "entries": {}}"#;
        let v9 = r#"{"schema_version": 9, "entries": {}}"#;
        for (version, doc) in [(3, v3), (2, v2), (1, v1), (9, v9)] {
            let err = parse_file(doc.as_bytes()).unwrap_err();
            assert!(matches!(err, ParseError::Version(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("schema_version {version}")), "{msg}");
            assert!(msg.contains("version 4"), "{msg}");
        }
    }

    #[test]
    fn damage_classifies_as_corrupt_not_version_skew() {
        // No version field at all: indistinguishable from damage, so
        // corrupt (quarantine) rather than a hard versioned rejection.
        let err = parse_file(br#"{"entries": {}}"#).unwrap_err();
        assert!(matches!(err, ParseError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("<missing>"), "{err}");
        let err = parse_file(b"not json at all").unwrap_err();
        assert!(matches!(err, ParseError::Corrupt(_)), "{err:?}");
        // A high bit flipped into an ASCII document: not UTF-8, corrupt.
        let err = parse_file(b"{\"schema_version\": \xb4}").unwrap_err();
        assert!(matches!(err, ParseError::Corrupt(_)), "{err:?}");
        // Right version, damaged payload: still corrupt.
        let v = CHECKPOINT_SCHEMA_VERSION;
        let err = parse_file(
            format!(r#"{{"schema_version": {v}, "entries": {{"k": {{}}}}}}"#).as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::Corrupt(_)), "{err:?}");
        // A told outcome that is neither a score nor a verdict: corrupt.
        let text = render_file(&BTreeMap::from([("k".to_string(), entry())]));
        let err = parse_file(text.replace("\"model\"", "\"maybe\"").as_bytes()).unwrap_err();
        assert!(err.to_string().contains("`tells`"), "{err}");
        // Every record carries its ranks.
        let unranked = text.replace(
            r#""ranks":[[[16,8],2.1e-6],[[8,4],null]]"#,
            r#""ranks":null"#,
        );
        assert_ne!(unranked, text);
        let err = parse_file(unranked.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("`ranks`"), "{err}");
        // A valid document truncated mid-stream: corrupt.
        let err = parse_file(&text.as_bytes()[..text.len() / 2]).unwrap_err();
        assert!(matches!(err, ParseError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn corrupt_files_are_quarantined_and_stale_tmps_swept() {
        let dir = std::env::temp_dir().join(format!("lift-ck-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.json");
        std::fs::write(&path, "{definitely not a checkpoint").unwrap();
        // A stale temp file from a simulated mid-write crash.
        std::fs::write(tmp_path(&path), "{half a docu").unwrap();
        let mgr = CheckpointManager::at(&path, 1).expect("corruption must not be fatal");
        assert!(!tmp_path(&path).exists(), "stale .tmp swept on startup");
        let quarantined = {
            let mut n = path.as_os_str().to_owned();
            n.push(".corrupt-1");
            PathBuf::from(n)
        };
        assert!(quarantined.exists(), "damaged file moved aside, not lost");
        assert_eq!(
            std::fs::read_to_string(&quarantined).unwrap(),
            "{definitely not a checkpoint",
            "quarantine preserves the damaged bytes for post-mortem"
        );
        assert!(mgr.lookup("k").is_none(), "manager starts fresh");
        mgr.record("k", &entry());
        mgr.flush().unwrap();
        let text = std::fs::read(&path).unwrap();
        assert!(parse_file(&text).unwrap().contains_key("k"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_picks_the_first_free_slot() {
        let dir = std::env::temp_dir().join(format!("lift-ck-slots-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let slot = |k: u32| {
            let mut n = path.as_os_str().to_owned();
            n.push(format!(".corrupt-{k}"));
            PathBuf::from(n)
        };
        std::fs::write(slot(1), "earlier casualty").unwrap();
        std::fs::write(&path, "fresh damage").unwrap();
        let q = quarantine(&path).unwrap();
        assert_eq!(q, slot(2), "slot 1 taken, so the next free one");
        assert_eq!(
            std::fs::read_to_string(slot(1)).unwrap(),
            "earlier casualty"
        );
        assert_eq!(std::fs::read_to_string(slot(2)).unwrap(), "fresh damage");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn managers_are_shared_per_path_and_write_atomically() {
        let dir = std::env::temp_dir().join(format!("lift-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.json");
        let a = CheckpointManager::at(&path, 1).unwrap();
        let b = CheckpointManager::at(&path, 999).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one manager per path");
        a.record("k", &entry());
        assert!(path.exists(), "cadence 1 writes on the first record");
        assert!(b.lookup("k").is_some(), "shared state visible through both");
        b.flush().unwrap();
        // A fresh parse of the on-disk file sees the entry.
        let text = std::fs::read(&path).unwrap();
        assert!(parse_file(&text).unwrap().contains_key("k"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_keys_are_stable_and_collision_free() {
        let path = std::env::temp_dir().join(format!("lift-ck-keys-{}.json", std::process::id()));
        let mgr = CheckpointManager::at(&path, 1000).unwrap();
        let small = CellCheckpoint::new(mgr.clone(), "Heat", "K20c", &[8, 8, 8]);
        let large = CellCheckpoint::new(mgr, "Heat", "K20c", &[64, 64, 64]);
        assert_eq!(small.key("tiled"), "Heat@K20c@8x8x8#tiled");
        assert_ne!(
            small.key("tiled"),
            large.key("tiled"),
            "small and large runs of one bench must not share a search"
        );
        std::fs::remove_file(&path).ok();
    }
}
