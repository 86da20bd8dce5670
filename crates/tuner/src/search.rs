//! The batched ask/tell search engine.
//!
//! [`Search`] is the tuner's core restructured for parallel drivers: instead
//! of calling back into an evaluator, it *proposes* batches of
//! configurations ([`Search::ask`]) and *consumes* their scores
//! ([`Search::tell`]). The driver is free to evaluate a whole batch
//! concurrently — the engine guarantees the outcome is **bit-identical to
//! the sequential search** for the same seed, regardless of batch size or
//! thread count:
//!
//! * proposals are drawn from the deterministic RNG stream in a fixed
//!   order, independent of any score;
//! * tells are buffered and applied in **proposal order**, so the trace and
//!   the evaluation counter never depend on evaluation timing;
//! * ties are broken by (score, proposal index): the earliest proposal with
//!   the minimal score wins.
//!
//! The search runs in *blocks* whose proposals never depend on scores
//! produced inside the same block: the exhaustive enumeration is one block,
//! the random-sampling phase is one block, and each greedy-refinement pass
//! around the incumbent is one block. `ask` hands out the current block and
//! returns an empty batch while tells for it are still outstanding; once
//! the block is fully told the next block is derived from the (now
//! deterministic) incumbent.
//!
//! ```
//! use lift_tuner::{ParamSpace, ParamSpec, Search};
//!
//! let space = ParamSpace::new([ParamSpec::new("x", (1..=100).collect::<Vec<_>>())]);
//! let mut search = Search::new(space, 20, 7);
//! while !search.is_done() {
//!     let batch = search.ask(4); // evaluate these 4 in parallel if you like
//!     for cfg in batch {
//!         let score = (cfg[0] as f64 - 42.0).abs();
//!         search.tell(&cfg, Some(score));
//!     }
//! }
//! let result = search.into_result();
//! assert!(result.best.is_some());
//! ```

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use crate::json::Value;
use crate::rng::SplitMix64;
use crate::{Candidate, ParamSpace, TuneResult};

/// Which deterministic proposal block the search is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The space fits the budget: one block enumerating every satisfying
    /// configuration.
    Exhaustive,
    /// Seeded random sampling (first ~3/4 of the budget).
    Sampling,
    /// One greedy-refinement pass around the incumbent per block.
    Refining,
    /// No further proposals will be made.
    Done,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Exhaustive => "exhaustive",
            Phase::Sampling => "sampling",
            Phase::Refining => "refining",
            Phase::Done => "done",
        }
    }

    fn from_str(s: &str) -> Option<Phase> {
        Some(match s {
            "exhaustive" => Phase::Exhaustive,
            "sampling" => Phase::Sampling,
            "refining" => Phase::Refining,
            "done" => Phase::Done,
            _ => return None,
        })
    }
}

/// A proposal that has been handed out by [`Search::ask`] and is awaiting
/// (or buffering) its [`Search::tell`].
#[derive(Debug)]
struct Outstanding {
    cfg: Vec<i64>,
    /// `None` until told; `Some(score)` afterwards (`score` itself is
    /// `None` for failed evaluations).
    result: Option<Option<f64>>,
}

/// A batched ask/tell search over a [`ParamSpace`] with a fixed evaluation
/// budget. See the [module docs](self) for the contract.
pub struct Search {
    space: ParamSpace,
    budget: usize,
    seed: u64,
    phase: Phase,
    rng: SplitMix64,
    seen: HashSet<Vec<i64>>,
    /// Proposals of the current block not yet handed out by `ask`.
    pending: VecDeque<Vec<i64>>,
    /// Proposals handed out, in proposal order, awaiting tells.
    outstanding: VecDeque<Outstanding>,
    /// Budget consumed at proposal time (each proposal costs exactly one
    /// evaluation once told).
    proposed: usize,
    /// Tells applied so far (== `proposed` at every block boundary).
    evaluations: usize,
    trace: Vec<Candidate>,
    best: Option<Candidate>,
    /// The incumbent's score when the current refinement pass was proposed
    /// (`None` = no incumbent yet); used to decide whether the pass
    /// improved anything.
    pass_start_score: Option<f64>,
}

impl Search {
    /// Creates a search over `space` with an evaluation `budget` and a
    /// deterministic `seed`.
    pub fn new(space: ParamSpace, budget: usize, seed: u64) -> Self {
        let mut s = Search {
            rng: SplitMix64::new(seed),
            space,
            budget,
            seed,
            phase: Phase::Done,
            seen: HashSet::new(),
            pending: VecDeque::new(),
            outstanding: VecDeque::new(),
            proposed: 0,
            evaluations: 0,
            trace: Vec::new(),
            best: None,
            pass_start_score: None,
        };
        if s.space.cardinality() <= s.budget {
            s.phase = Phase::Exhaustive;
            for i in 0..s.space.cardinality() {
                let cfg = s.space.nth(i);
                if s.space.satisfies(&cfg) {
                    s.pending.push_back(cfg);
                    s.proposed += 1;
                }
            }
        } else {
            s.phase = Phase::Sampling;
            let sample_budget = (s.budget * 3) / 4;
            let mut attempts = 0;
            while s.proposed < sample_budget && attempts < s.budget * 20 {
                attempts += 1;
                let idx = s.rng.gen_range(s.space.cardinality());
                let cfg = s.space.nth(idx);
                if !s.space.satisfies(&cfg) || !s.seen.insert(cfg.clone()) {
                    continue;
                }
                s.pending.push_back(cfg);
                s.proposed += 1;
            }
        }
        s
    }

    /// The underlying space.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Reorders the initial proposal block so the most promising
    /// configurations (lowest `rank` value) are asked first — a
    /// model-ranked warm-start. Configurations the ranker cannot score
    /// (`None`) sort after every ranked one. The sort is stable on
    /// (rank, original proposal position), so a *pure* ranker keeps the
    /// reordering deterministic, and rank ties preserve the original
    /// proposal order — the (score, proposal index) incumbent tie-break
    /// still resolves the same way whenever tied proposals tie in rank.
    ///
    /// Only the not-yet-asked proposals of the first block are reordered:
    /// the call is a no-op once any proposal has been handed out or told
    /// (in particular on a search restored mid-run from a snapshot, whose
    /// recorded proposal order must be preserved for resume determinism —
    /// a snapshot taken *after* warm-starting records the reordered queue,
    /// so resumed and uninterrupted warm-started runs still agree).
    pub fn warm_start_by<F>(&mut self, mut rank: F)
    where
        F: FnMut(&[i64]) -> Option<f64>,
    {
        if self.evaluations > 0 || !self.outstanding.is_empty() {
            return;
        }
        let mut items: Vec<(Option<f64>, usize, Vec<i64>)> = self
            .pending
            .drain(..)
            .enumerate()
            .map(|(i, cfg)| (rank(&cfg), i, cfg))
            .collect();
        items.sort_by(|a, b| match (a.0, b.0) {
            (Some(x), Some(y)) => x.total_cmp(&y).then(a.1.cmp(&b.1)),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.1.cmp(&b.1),
        });
        self.pending = items.into_iter().map(|(_, _, cfg)| cfg).collect();
    }

    /// Proposes up to `n` configurations to evaluate next.
    ///
    /// Returns an empty batch when (a) the search is finished — check
    /// [`Search::is_done`] — or (b) the current block is exhausted but some
    /// of its proposals have not been told yet; tell them and ask again.
    pub fn ask(&mut self, n: usize) -> Vec<Vec<i64>> {
        if self.pending.is_empty() && self.outstanding.is_empty() {
            self.next_block();
        }
        let take = n.min(self.pending.len());
        let mut batch = Vec::with_capacity(take);
        for _ in 0..take {
            let cfg = self.pending.pop_front().expect("len checked");
            self.outstanding.push_back(Outstanding {
                cfg: cfg.clone(),
                result: None,
            });
            batch.push(cfg);
        }
        batch
    }

    /// Reports the score of an asked configuration (`None` = the
    /// configuration failed to compile, run or validate). Tells may arrive
    /// in any order; they are applied in proposal order.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was never asked (or already told).
    pub fn tell(&mut self, cfg: &[i64], score: Option<f64>) {
        let slot = self
            .outstanding
            .iter_mut()
            .find(|o| o.result.is_none() && o.cfg == cfg)
            .unwrap_or_else(|| panic!("tell for a configuration that was not asked: {cfg:?}"));
        slot.result = Some(score);
        // Apply the completed prefix in proposal order.
        while self.outstanding.front().is_some_and(|o| o.result.is_some()) {
            let o = self.outstanding.pop_front().expect("front checked");
            self.apply(o.cfg, o.result.expect("result checked"));
        }
    }

    /// Whether the search has finished: no proposals left and every tell
    /// applied.
    pub fn is_done(&mut self) -> bool {
        if self.pending.is_empty() && self.outstanding.is_empty() {
            self.next_block();
        }
        self.phase == Phase::Done && self.pending.is_empty() && self.outstanding.is_empty()
    }

    /// Evaluations applied so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The incumbent, if any evaluation succeeded yet.
    pub fn best(&self) -> Option<&Candidate> {
        self.best.as_ref()
    }

    /// Finishes the search, returning its [`TuneResult`]: the incumbent,
    /// the evaluation count and the trace in proposal order — the same at
    /// any batch size.
    pub fn into_result(self) -> TuneResult {
        TuneResult {
            best: self.best,
            evaluations: self.evaluations,
            trace: self.trace,
        }
    }

    /// Applies one told proposal: counts it, records the trace entry and
    /// updates the incumbent (strict improvement, so the earliest proposal
    /// with the minimal score wins — the (score, proposal index)
    /// tie-break).
    fn apply(&mut self, values: Vec<i64>, score: Option<f64>) {
        self.evaluations += 1;
        if let Some(score) = score {
            let cand = Candidate { values, score };
            if self.best.as_ref().is_none_or(|b| cand.score < b.score) {
                self.best = Some(cand.clone());
            }
            self.trace.push(cand);
        }
    }

    /// Derives the next proposal block once the current one is fully told.
    fn next_block(&mut self) {
        debug_assert!(self.pending.is_empty() && self.outstanding.is_empty());
        match self.phase {
            Phase::Done => {}
            Phase::Exhaustive => self.phase = Phase::Done,
            Phase::Sampling => self.start_refinement_pass(),
            Phase::Refining => {
                // The sequential loop repeats only while a pass improved
                // the incumbent.
                let improved = match (self.pass_start_score, self.best.as_ref()) {
                    (None, Some(_)) => true,
                    (Some(before), Some(b)) => b.score < before,
                    (_, None) => false,
                };
                if improved {
                    self.start_refinement_pass();
                } else {
                    self.phase = Phase::Done;
                }
            }
        }
    }

    /// Proposes one greedy pass around the incumbent: each parameter moved
    /// one candidate up/down, budget permitting. Mirrors the sequential
    /// refinement loop exactly.
    fn start_refinement_pass(&mut self) {
        if self.proposed >= self.budget {
            self.phase = Phase::Done;
            return;
        }
        let Some(incumbent) = self.best.clone() else {
            self.phase = Phase::Done;
            return;
        };
        self.pass_start_score = Some(incumbent.score);
        'outer: for (pi, p) in self.space.params().iter().enumerate() {
            let cur_pos = p
                .candidates()
                .iter()
                .position(|v| *v == incumbent.values[pi])
                .unwrap_or(0);
            for np in [cur_pos.wrapping_sub(1), cur_pos + 1] {
                if self.proposed >= self.budget {
                    break 'outer;
                }
                let Some(v) = p.candidates().get(np) else {
                    continue;
                };
                let mut cfg = incumbent.values.clone();
                cfg[pi] = *v;
                if !self.space.satisfies(&cfg) || !self.seen.insert(cfg.clone()) {
                    continue;
                }
                self.pending.push_back(cfg);
                self.proposed += 1;
            }
        }
        self.phase = if self.pending.is_empty() {
            // Nothing left to try around the incumbent: the sequential
            // loop's `improved` flag would stay false.
            Phase::Done
        } else {
            Phase::Refining
        };
    }

    /// Captures the search as a serializable [`SearchState`].
    ///
    /// The snapshot is taken *as of the last applied tell*: proposals that
    /// have been handed out by [`Search::ask`] but whose tells have not
    /// been applied yet are rolled back into the pending queue (in
    /// proposal order), and buffered out-of-order tells are discarded.
    /// With a deterministic evaluator this is invisible — the restored
    /// search re-proposes those configurations and receives the same
    /// scores — and it is exactly the right semantics for crash recovery,
    /// where in-flight evaluations died with the process.
    ///
    /// The guarantee tested in this crate: for any interleaving of `ask`,
    /// `tell`, `snapshot` and [`Search::restore`], the restored search
    /// driven by the same deterministic evaluator finishes with a
    /// [`TuneResult`] bit-identical to the uninterrupted run's.
    pub fn snapshot(&self) -> SearchState {
        let mut pending: Vec<Vec<i64>> = self.outstanding.iter().map(|o| o.cfg.clone()).collect();
        pending.extend(self.pending.iter().cloned());
        let mut seen: Vec<Vec<i64>> = self.seen.iter().cloned().collect();
        seen.sort_unstable(); // HashSet order is unstable; keep files tidy
        SearchState {
            seed: self.seed,
            budget: self.budget,
            space_digest: space_digest(&self.space),
            rng_state: self.rng.state(),
            phase: self.phase.as_str().to_string(),
            proposed: self.proposed,
            evaluations: self.evaluations,
            pending,
            seen,
            trace: self.trace.clone(),
            best: self.best.clone(),
            pass_start_score: self.pass_start_score,
        }
    }

    /// Rebuilds a search from a [`SearchState`] over a freshly constructed
    /// `space` (parameter spaces carry constraint closures and cannot be
    /// serialized themselves).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when `space` does not match the space the
    /// snapshot was taken over (parameter names or candidate lists
    /// differ), or when the state is internally inconsistent (an unknown
    /// phase name).
    pub fn restore(space: ParamSpace, state: SearchState) -> Result<Search, SnapshotError> {
        let digest = space_digest(&space);
        if digest != state.space_digest {
            return Err(SnapshotError(format!(
                "snapshot was taken over a different parameter space \
                 (digest {:#x}, this space is {:#x}); checkpoints cannot \
                 be shared across programs, variants or devices",
                state.space_digest, digest
            )));
        }
        let phase = Phase::from_str(&state.phase)
            .ok_or_else(|| SnapshotError(format!("unknown search phase `{}`", state.phase)))?;
        // The digest proves the snapshot was taken over this space's
        // *shape*, but a bit-rotted or hand-edited file can still carry
        // truncated configuration vectors under a matching digest — catch
        // that here instead of panicking deep inside a refinement pass.
        let arity = space.params().len();
        let bad_arity = state
            .pending
            .iter()
            .chain(state.seen.iter())
            .chain(state.trace.iter().map(|c| &c.values))
            .chain(state.best.iter().map(|c| &c.values))
            .any(|cfg| cfg.len() != arity);
        if bad_arity {
            return Err(SnapshotError(format!(
                "snapshot contains a configuration whose arity differs from the space's \
                 {arity} parameters; the checkpoint file is corrupt"
            )));
        }
        Ok(Search {
            rng: SplitMix64::new(state.rng_state),
            space,
            budget: state.budget,
            seed: state.seed,
            phase,
            seen: state.seen.into_iter().collect(),
            pending: state.pending.into(),
            outstanding: VecDeque::new(),
            proposed: state.proposed,
            evaluations: state.evaluations,
            trace: state.trace,
            best: state.best,
            pass_start_score: state.pass_start_score,
        })
    }
}

/// Digest of a parameter space's *shape* (names and candidate lists, in
/// declaration order; constraints are closures and cannot participate).
/// Stored in every snapshot so a checkpoint recorded for one (program,
/// variant, device) cannot silently resume another.
fn space_digest(space: &ParamSpace) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for p in space.params() {
        eat(p.name().as_bytes());
        eat(&[0xff]);
        for c in p.candidates() {
            eat(&c.to_le_bytes());
        }
        eat(&[0xfe]);
    }
    h
}

/// A failure to snapshot, parse or restore a [`SearchState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "search snapshot error: {}", self.0)
    }
}

impl Error for SnapshotError {}

/// The version written into (and required from) every serialized
/// [`SearchState`].
pub const SEARCH_STATE_SCHEMA_VERSION: u64 = 1;

/// A serializable snapshot of a [`Search`], produced by
/// [`Search::snapshot`] and consumed by [`Search::restore`].
///
/// # JSON schema (version 1)
///
/// [`SearchState::to_json`] writes one JSON object; all fields are
/// required. [`SearchState::from_json`] rejects a missing or different
/// `schema_version` with a [`SnapshotError`] naming both versions — a
/// checkpoint written by a future incompatible release fails loudly
/// instead of resuming garbage.
///
/// ```json
/// {
///   "schema_version": 1,         // this layout; checked on parse
///   "seed": 2018,                // the seed the search was created with
///   "budget": 10,                // total evaluation budget
///   "space_digest": 123456,      // u64 digest of the parameter space shape
///   "rng_state": 987654,         // SplitMix64 stream position (u64)
///   "phase": "sampling",         // exhaustive | sampling | refining | done
///   "proposed": 30,              // proposals drawn so far (budget spent)
///   "tells_applied": 12,         // tells applied so far (== evaluations())
///   "pending": [[1, 2], ...],    // proposals not yet evaluated, in order
///   "seen": [[1, 2], ...],       // configurations ever proposed (sorted)
///   "trace": [                   // applied successful evaluations, in order
///     {"values": [1, 2], "score": 0.5}, ...
///   ],
///   "best": {"values": [1, 2], "score": 0.5},   // or null
///   "pass_start_score": null     // incumbent score when the current
/// }                              // refinement pass started, or null
/// ```
///
/// Integers are written as JSON integers (never through `f64` — the RNG
/// state uses all 64 bits) and scores with Rust's shortest round-tripping
/// float format, so a parse of the written form reproduces every field
/// bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Seed the original search was created with.
    pub seed: u64,
    /// Total evaluation budget.
    pub budget: usize,
    /// Digest of the parameter space shape (see [`Search::restore`]).
    pub space_digest: u64,
    /// SplitMix64 stream position.
    pub rng_state: u64,
    /// Proposal phase (`"exhaustive"`, `"sampling"`, `"refining"`,
    /// `"done"`).
    pub phase: String,
    /// Proposals drawn so far.
    pub proposed: usize,
    /// Tells applied so far.
    pub evaluations: usize,
    /// Proposals awaiting evaluation, in proposal order (includes any
    /// that were in flight when the snapshot was taken).
    pub pending: Vec<Vec<i64>>,
    /// Every configuration ever proposed (deduplication set), sorted.
    pub seen: Vec<Vec<i64>>,
    /// Applied successful evaluations, in proposal order.
    pub trace: Vec<Candidate>,
    /// The incumbent, if any evaluation succeeded yet.
    pub best: Option<Candidate>,
    /// The incumbent's score when the current refinement pass started.
    pub pass_start_score: Option<f64>,
}

fn cfg_to_json(cfg: &[i64]) -> Value {
    Value::Arr(cfg.iter().map(|v| Value::Int(*v)).collect())
}

fn cfg_from_json(v: &Value) -> Result<Vec<i64>, SnapshotError> {
    v.as_arr()
        .ok_or_else(|| SnapshotError("configuration is not an array".into()))?
        .iter()
        .map(|x| {
            x.as_i64()
                .ok_or_else(|| SnapshotError("configuration value is not an integer".into()))
        })
        .collect()
}

fn candidate_to_json(c: &Candidate) -> Value {
    Value::Obj(vec![
        ("values".into(), cfg_to_json(&c.values)),
        ("score".into(), Value::Float(c.score)),
    ])
}

fn candidate_from_json(v: &Value) -> Result<Candidate, SnapshotError> {
    let values = cfg_from_json(
        v.get("values")
            .ok_or_else(|| SnapshotError("candidate has no `values`".into()))?,
    )?;
    let score = v
        .get("score")
        .and_then(Value::as_f64)
        .ok_or_else(|| SnapshotError("candidate has no numeric `score`".into()))?;
    Ok(Candidate { values, score })
}

impl SearchState {
    /// Serializes the state as a JSON object (schema above).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "schema_version".into(),
                Value::UInt(SEARCH_STATE_SCHEMA_VERSION),
            ),
            ("seed".into(), Value::UInt(self.seed)),
            ("budget".into(), Value::UInt(self.budget as u64)),
            ("space_digest".into(), Value::UInt(self.space_digest)),
            ("rng_state".into(), Value::UInt(self.rng_state)),
            ("phase".into(), Value::Str(self.phase.clone())),
            ("proposed".into(), Value::UInt(self.proposed as u64)),
            ("tells_applied".into(), Value::UInt(self.evaluations as u64)),
            (
                "pending".into(),
                Value::Arr(self.pending.iter().map(|c| cfg_to_json(c)).collect()),
            ),
            (
                "seen".into(),
                Value::Arr(self.seen.iter().map(|c| cfg_to_json(c)).collect()),
            ),
            (
                "trace".into(),
                Value::Arr(self.trace.iter().map(candidate_to_json).collect()),
            ),
            (
                "best".into(),
                self.best
                    .as_ref()
                    .map(candidate_to_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "pass_start_score".into(),
                self.pass_start_score
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Deserializes a state from the JSON written by
    /// [`SearchState::to_json`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a missing or mismatched `schema_version`
    /// (naming both the expected and the found version) or any missing or
    /// ill-typed field.
    pub fn from_json(v: &Value) -> Result<SearchState, SnapshotError> {
        let version = v.get("schema_version").and_then(Value::as_u64);
        if version != Some(SEARCH_STATE_SCHEMA_VERSION) {
            return Err(SnapshotError(format!(
                "unsupported checkpoint schema_version {} (this build reads version {})",
                version.map_or("<missing>".to_string(), |x| x.to_string()),
                SEARCH_STATE_SCHEMA_VERSION
            )));
        }
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| SnapshotError(format!("checkpoint field `{name}` is missing")))
        };
        let uint = |name: &str| {
            field(name)?.as_u64().ok_or_else(|| {
                SnapshotError(format!("checkpoint field `{name}` is not an integer"))
            })
        };
        let cfgs = |name: &str| -> Result<Vec<Vec<i64>>, SnapshotError> {
            field(name)?
                .as_arr()
                .ok_or_else(|| SnapshotError(format!("checkpoint field `{name}` is not an array")))?
                .iter()
                .map(cfg_from_json)
                .collect()
        };
        let trace = field("trace")?
            .as_arr()
            .ok_or_else(|| SnapshotError("checkpoint field `trace` is not an array".into()))?
            .iter()
            .map(candidate_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let best = match field("best")? {
            Value::Null => None,
            other => Some(candidate_from_json(other)?),
        };
        let pass_start_score = match field("pass_start_score")? {
            Value::Null => None,
            other => Some(other.as_f64().ok_or_else(|| {
                SnapshotError("checkpoint field `pass_start_score` is not a number".into())
            })?),
        };
        Ok(SearchState {
            seed: uint("seed")?,
            budget: uint("budget")? as usize,
            space_digest: uint("space_digest")?,
            rng_state: uint("rng_state")?,
            phase: field("phase")?
                .as_str()
                .ok_or_else(|| SnapshotError("checkpoint field `phase` is not a string".into()))?
                .to_string(),
            proposed: uint("proposed")? as usize,
            evaluations: uint("tells_applied")? as usize,
            pending: cfgs("pending")?,
            seen: cfgs("seen")?,
            trace,
            best,
            pass_start_score,
        })
    }
}
