//! The ask/tell search engine.
//!
//! [`Search`] is the tuner's core: instead of calling back into an
//! evaluator, it hands out one proposal at a time ([`Search::ask`]) and
//! takes that proposal's score ([`Search::tell`]) before it proposes the
//! next. In between, the driver is free to decide how to score the
//! proposal in hand — prune it on a cost estimate or simulate it — and the
//! outcome is deterministic for the same seed:
//!
//! * proposals are drawn from the deterministic RNG stream in a fixed
//!   order;
//! * ties are broken by (score, proposal index): the earliest proposal with
//!   the minimal score wins.
//!
//! The search runs in *blocks* whose proposals never depend on scores
//! produced inside the same block: the exhaustive enumeration is one block,
//! the random-sampling phase is one block, and each greedy-refinement pass
//! around the incumbent is one block. Once a block is fully told, the next
//! one is derived from the incumbent.
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
//! while let Some(cfg) = search.ask() {
//!     search.tell(Some((cfg[0] as f64 - 42.0).abs()));
//! }
//! assert!(search.best().is_some());
//! ```

use std::collections::{HashSet, VecDeque};

use crate::rng::SplitMix64;
use crate::{Candidate, ParamSpace};

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

/// An ask/tell search over a [`ParamSpace`] with a fixed evaluation
/// budget, one proposal at a time. See the [module docs](self) for the
/// contract.
pub struct Search {
    space: ParamSpace,
    budget: usize,
    phase: Phase,
    rng: SplitMix64,
    seen: HashSet<Vec<i64>>,
    /// Proposals of the current block not yet handed out by `ask`.
    pending: VecDeque<Vec<i64>>,
    /// The proposal handed out by `ask` and not yet told.
    in_hand: Option<Vec<i64>>,
    /// Budget consumed at proposal time (each proposal costs exactly one
    /// evaluation once told).
    proposed: usize,
    /// Tells applied so far (== `proposed` at every block boundary).
    evaluations: usize,
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
            in_hand: None,
            proposed: 0,
            evaluations: 0,
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
        if self.evaluations > 0 || self.in_hand.is_some() {
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

    /// Hands out the next proposal, or `None` once the search is finished.
    /// Its score must be told before the next `ask`.
    ///
    /// # Panics
    ///
    /// Panics if the previous proposal has not been told.
    pub fn ask(&mut self) -> Option<Vec<i64>> {
        assert!(
            self.in_hand.is_none(),
            "ask with a proposal in hand: tell its score first"
        );
        if self.pending.is_empty() {
            self.next_block();
        }
        self.in_hand = self.pending.pop_front();
        self.in_hand.clone()
    }

    /// Reports the score of the proposal in hand (`None` = it produced no
    /// score: it failed to compile, run or validate, or was pruned). The
    /// incumbent changes only on a strictly better score, so the earliest
    /// proposal with the minimal score wins — the (score, proposal index)
    /// tie-break.
    ///
    /// # Panics
    ///
    /// Panics if no proposal is in hand.
    pub fn tell(&mut self, score: Option<f64>) {
        let values = self
            .in_hand
            .take()
            .expect("tell without a proposal in hand: ask first");
        self.evaluations += 1;
        if let Some(score) = score {
            if self.best.as_ref().is_none_or(|b| score < b.score) {
                self.best = Some(Candidate { values, score });
            }
        }
    }

    /// Evaluations told so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The incumbent, if any evaluation succeeded yet.
    pub fn best(&self) -> Option<&Candidate> {
        self.best.as_ref()
    }

    /// Derives the next proposal block once the current one is fully told.
    fn next_block(&mut self) {
        match self.phase {
            Phase::Done => {}
            Phase::Exhaustive => self.phase = Phase::Done,
            Phase::Sampling => self.start_refinement_pass(),
            Phase::Refining => {
                // Refinement repeats only while a pass improved the
                // incumbent.
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
    /// one candidate up/down, budget permitting.
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
            // Nothing left to try around the incumbent, so no pass can
            // improve it.
            Phase::Done
        } else {
            Phase::Refining
        };
    }
}
