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
//! Because proposals depend only on the seed, the warm-start ranking and
//! the scores told so far, a search is resumed by *replaying* it: a fresh
//! search with the same seed, re-ranked the same way and told the same
//! scores in proposal order, proposes exactly what the interrupted one
//! would have next. The engine therefore has no serialized form; the
//! driver's checkpoints record what each search was told.
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
    /// the call is a no-op once any proposal has been handed out or told.
    /// A resumed search re-applies the warm start with the ranks the
    /// interrupted one used, before it tells anything, so both propose in
    /// the same order.
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
}
