//! An ATF-style auto-tuner: constrained integer parameter spaces searched
//! under a fixed evaluation budget.
//!
//! The paper tunes every Lift expression (and PPCG's tile/block sizes) with
//! ATF/OpenTuner for up to three hours per benchmark; this crate plays that
//! role with the budget counted in evaluations instead of wall-clock. It
//! supports the constraint specification ATF adds over OpenTuner
//! (inter-parameter constraints such as *"local size divides global size"*)
//! via arbitrary predicates over complete configurations.
//!
//! The engine is the ask/tell [`Search`]: it hands out one proposal at a
//! time and takes its score before proposing the next, so a driver can
//! decide each proposal against the freshest incumbent, as `lift-driver`
//! does when it prunes on a cost estimate. Proposals come from a seeded
//! stream in a fixed order, so the same seed gives the same result; the
//! in-repo [`parallel_map`] worker pool runs independent searches side by
//! side.
//!
//! Searches are also **resumable by replay**: a fresh search with the same
//! seed and warm-start ranking, told the recorded scores in proposal order,
//! proposes exactly what an uninterrupted run would have next. This is what
//! lets the driver's long tuning campaigns survive process kills: its
//! checkpoints record what each search was told, not the engine's state.
//!
//! # Example
//!
//! ```
//! use lift_tuner::{ParamSpace, ParamSpec, Search};
//!
//! let space = ParamSpace::new([
//!     ParamSpec::new("x", (1..=16).collect::<Vec<_>>()),
//!     ParamSpec::new("y", vec![1, 2, 4, 8]),
//! ])
//! .with_constraint(|cfg| cfg[0] % cfg[1] == 0); // y divides x
//!
//! let mut search = Search::new(space, 64, 7);
//! while let Some(cfg) = search.ask() {
//!     // Pretend runtime: minimised at x = 12, y = 4.
//!     let (x, y) = (cfg[0] as f64, cfg[1] as f64);
//!     search.tell(Some((x - 12.0).abs() + (y - 4.0).abs()));
//! }
//! let best = search.best().expect("found a config");
//! assert_eq!(best.values, vec![12, 4]);
//! ```

#![forbid(unsafe_code)]

pub mod json;
pub mod pool;
pub mod rng;
pub mod search;

pub use pool::parallel_map;
pub use rng::SplitMix64;
pub use search::Search;

/// One tunable parameter with its candidate values.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    name: String,
    candidates: Vec<i64>,
}

impl ParamSpec {
    /// Creates a parameter from its candidate list.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty — an empty domain makes the whole
    /// space unsatisfiable and is always a configuration bug.
    pub fn new(name: impl Into<String>, candidates: Vec<i64>) -> Self {
        let name = name.into();
        assert!(
            !candidates.is_empty(),
            "parameter `{name}` has no candidate values"
        );
        ParamSpec { name, candidates }
    }

    /// Powers of two from `lo` to `hi` inclusive — the usual domain for
    /// work-group sizes.
    ///
    /// The domain is never empty: when `hi < lo` (e.g. a device whose
    /// work-group limit sits below the requested lower bound) it degrades to
    /// the largest power of two not exceeding `hi`, clamped to at least 1,
    /// instead of tripping the [`ParamSpec::new`] assertion at runtime.
    pub fn pow2(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        let mut c = Vec::new();
        let mut v = lo.max(1);
        while v <= hi {
            c.push(v);
            v *= 2;
        }
        if c.is_empty() {
            let mut v = 1i64;
            while v * 2 <= hi.max(1) {
                v *= 2;
            }
            c.push(v);
        }
        ParamSpec::new(name, c)
    }

    /// The parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidate values.
    pub fn candidates(&self) -> &[i64] {
        &self.candidates
    }
}

/// A constraint over a complete configuration (values in declaration
/// order).
pub type Constraint = Box<dyn Fn(&[i64]) -> bool + Send + Sync>;

/// A constrained parameter space.
pub struct ParamSpace {
    params: Vec<ParamSpec>,
    constraints: Vec<Constraint>,
}

impl std::fmt::Debug for ParamSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamSpace")
            .field("params", &self.params)
            .field("constraints", &self.constraints.len())
            .finish()
    }
}

impl ParamSpace {
    /// Creates a space from parameter specs.
    pub fn new(params: impl IntoIterator<Item = ParamSpec>) -> Self {
        ParamSpace {
            params: params.into_iter().collect(),
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (may be called repeatedly).
    pub fn with_constraint(mut self, c: impl Fn(&[i64]) -> bool + Send + Sync + 'static) -> Self {
        self.constraints.push(Box::new(c));
        self
    }

    /// The parameters, in declaration order.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Total configuration count before constraints.
    pub fn cardinality(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.candidates.len())
            .product::<usize>()
    }

    /// Whether `cfg` satisfies every constraint.
    pub fn satisfies(&self, cfg: &[i64]) -> bool {
        self.constraints.iter().all(|c| c(cfg))
    }

    pub(crate) fn nth(&self, mut index: usize) -> Vec<i64> {
        let mut cfg = Vec::with_capacity(self.params.len());
        for p in &self.params {
            cfg.push(p.candidates[index % p.candidates.len()]);
            index /= p.candidates.len();
        }
        cfg
    }
}

/// A scored configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Parameter values in declaration order.
    pub values: Vec<i64>,
    /// The score (lower is better; typically modeled seconds).
    pub score: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(cfg: &[i64]) -> Option<f64> {
        let x = cfg[0] as f64;
        let y = cfg[1] as f64;
        Some((x - 6.0).powi(2) + (y - 4.0).powi(2))
    }

    /// What a search driven to completion reports.
    struct Run {
        best: Option<Candidate>,
        evaluations: usize,
        /// Every proposal with the score it was told, in proposal order.
        told: Vec<(Vec<i64>, Option<f64>)>,
    }

    /// Drives `search` to completion, scoring each proposal with `eval`.
    fn drive(mut search: Search, mut eval: impl FnMut(&[i64]) -> Option<f64>) -> Run {
        let mut told = Vec::new();
        while let Some(cfg) = search.ask() {
            let score = eval(&cfg);
            search.tell(score);
            told.push((cfg, score));
        }
        Run {
            best: search.best().cloned(),
            evaluations: search.evaluations(),
            told,
        }
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let space = ParamSpace::new([
            ParamSpec::new("x", (1..=8).collect()),
            ParamSpec::new("y", (1..=8).collect()),
        ]);
        let r = drive(Search::new(space, 100, 0), quadratic);
        assert_eq!(r.best.unwrap().values, vec![6, 4]);
        assert_eq!(r.evaluations, 64);
    }

    #[test]
    fn constraints_filter_configs() {
        let space = ParamSpace::new([
            ParamSpec::new("x", (1..=8).collect()),
            ParamSpec::new("y", (1..=8).collect()),
        ])
        .with_constraint(|c| c[0] % c[1] == 0);
        let r = drive(Search::new(space, 100, 0), quadratic);
        // Best feasible: y divides x; (6,4) infeasible → one of the
        // near-optimal feasible points.
        let best = r.best.unwrap();
        assert_eq!(best.values[0] % best.values[1], 0);
        assert!(best.score <= 2.0, "best {best:?}");
        assert!(r.told.iter().all(|(c, _)| c[0] % c[1] == 0));
    }

    #[test]
    fn random_search_respects_budget_and_seed() {
        let mk = || {
            ParamSpace::new([
                ParamSpec::new("x", (1..=100).collect()),
                ParamSpec::new("y", (1..=100).collect()),
            ])
        };
        let r1 = drive(Search::new(mk(), 60, 1), quadratic);
        let r2 = drive(Search::new(mk(), 60, 1), quadratic);
        assert!(r1.evaluations <= 60);
        assert_eq!(r1.told, r2.told, "same seed must give the same proposals");
        assert_eq!(r1.best, r2.best, "same seed must give the same result");
        let r3 = drive(Search::new(mk(), 60, 2), quadratic);
        // Different seeds may differ (not asserted), but both must be valid.
        assert!(r3.best.is_some());
    }

    #[test]
    fn refinement_improves_incumbent() {
        // With a tiny sample budget the refinement phase should still crawl
        // toward the optimum.
        let space = ParamSpace::new([
            ParamSpec::new("x", (1..=50).collect()),
            ParamSpec::new("y", (1..=50).collect()),
        ]);
        let r = drive(Search::new(space, 200, 3), quadratic);
        let best = r.best.unwrap();
        assert!(best.score < 4.0, "refined best {best:?}");
    }

    #[test]
    fn failing_evaluations_are_skipped() {
        let space = ParamSpace::new([ParamSpec::new("x", (1..=10).collect())]);
        let r = drive(Search::new(space, 50, 0), |cfg| {
            if cfg[0] % 2 == 0 {
                None // "kernel failed to run"
            } else {
                Some(cfg[0] as f64)
            }
        });
        assert_eq!(r.best.unwrap().values, vec![1]);
        // A failed evaluation still spends budget.
        assert_eq!(r.evaluations, 10);
    }

    #[test]
    fn pow2_candidates() {
        let p = ParamSpec::pow2("wg", 16, 256);
        assert_eq!(p.candidates(), &[16, 32, 64, 128, 256]);
    }

    #[test]
    #[should_panic(expected = "no candidate values")]
    fn empty_domain_panics() {
        ParamSpec::new("x", vec![]);
    }

    #[test]
    fn equal_scores_keep_the_earliest_proposal() {
        // The warm start proposes x = 6 first; with every score equal, the
        // incumbent is the earliest proposal, not the smallest config.
        let space = ParamSpace::new([ParamSpec::new("x", (1..=6).collect::<Vec<_>>())]);
        let mut search = Search::new(space, 100, 0);
        search.warm_start_by(|cfg| Some(-(cfg[0] as f64)));
        let r = drive(search, |_| Some(1.0));
        let order: Vec<i64> = r.told.iter().map(|(c, _)| c[0]).collect();
        assert_eq!(order, [6, 5, 4, 3, 2, 1]);
        assert_eq!(r.best.unwrap().values, vec![6]);
    }

    #[test]
    fn refinement_starts_from_the_incumbent_of_the_sampling_block() {
        // A large space forces sampling → refinement. The sampling block is
        // 3/4 of the budget, and the first refinement proposal is one
        // candidate away from the best of the whole block in exactly one
        // coordinate, so it cannot be made before every sample is told.
        let space = ParamSpace::new([
            ParamSpec::new("x", (1..=100).collect::<Vec<_>>()),
            ParamSpec::new("y", (1..=100).collect::<Vec<_>>()),
        ]);
        let r = drive(Search::new(space, 40, 2), quadratic);
        assert!(r.told.len() > 30, "refinement proposes after sampling");
        let (incumbent, _) = r.told[..30]
            .iter()
            .min_by(|a, b| a.1.unwrap().total_cmp(&b.1.unwrap()))
            .expect("the sampling block is not empty");
        let next = &r.told[30].0;
        let steps: Vec<i64> = next
            .iter()
            .zip(incumbent)
            .map(|(a, b)| (a - b).abs())
            .collect();
        assert!(
            steps == [0, 1] || steps == [1, 0],
            "proposal 31 {next:?} is not one step from {incumbent:?}"
        );
    }

    #[test]
    #[should_panic(expected = "ask with a proposal in hand")]
    fn asking_with_a_proposal_in_hand_panics() {
        let space = ParamSpace::new([ParamSpec::new("x", vec![1, 2])]);
        let mut search = Search::new(space, 10, 0);
        search.ask();
        search.ask();
    }

    #[test]
    #[should_panic(expected = "tell without a proposal in hand")]
    fn telling_without_a_proposal_in_hand_panics() {
        let space = ParamSpace::new([ParamSpec::new("x", vec![1, 2])]);
        let mut search = Search::new(space, 10, 0);
        search.ask();
        search.tell(Some(1.0));
        search.tell(Some(1.0));
    }

    #[test]
    fn warm_start_after_the_first_ask_is_a_no_op() {
        let space = ParamSpace::new([ParamSpec::new("x", (1..=8).collect::<Vec<_>>())]);
        let mut search = Search::new(space, 100, 0);
        let reverse = |cfg: &[i64]| Some(-(cfg[0] as f64));
        // Neither with the first proposal in hand nor after its tell does
        // a warm start reorder anything.
        let first = search.ask().expect("a first proposal");
        search.warm_start_by(reverse);
        search.tell(Some(1.0));
        search.warm_start_by(reverse);
        let rest = drive(search, |_| Some(1.0));
        let order: Vec<i64> = std::iter::once(first[0])
            .chain(rest.told.iter().map(|(c, _)| c[0]))
            .collect();
        assert_eq!(order, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn replay_is_bit_identical_at_every_interruption_point() {
        // Record what an uninterrupted search is told. Then, for every k,
        // tell a fresh search the first k recorded outcomes and evaluate
        // only the rest: it must propose what the record holds and finish
        // bit-identically (scores compared exactly through PartialEq on
        // f64).
        let mk = || {
            ParamSpace::new([
                ParamSpec::new("x", (1..=40).collect::<Vec<_>>()),
                ParamSpec::new("y", (1..=40).collect::<Vec<_>>()),
            ])
            .with_constraint(|c| (c[0] + c[1]) % 5 != 0)
        };
        let eval = |cfg: &[i64]| {
            if cfg[0] % 13 == 0 {
                None
            } else {
                Some((cfg[0] as f64 - 6.3).powi(2) + (cfg[1] as f64 - 4.1).powi(2))
            }
        };
        let reference = drive(Search::new(mk(), 24, 17), eval);
        assert_eq!(reference.told.len(), reference.evaluations);
        for k in 0..=reference.told.len() {
            let mut asked = 0;
            let got = drive(Search::new(mk(), 24, 17), |cfg| {
                let i = asked;
                asked += 1;
                match reference.told[..k].get(i) {
                    Some((recorded, score)) => {
                        assert_eq!(cfg, recorded, "k={k}: proposal {i} left the record");
                        *score
                    }
                    None => eval(cfg),
                }
            });
            assert_eq!(got.told, reference.told, "k={k}");
            assert_eq!(got.best, reference.best, "k={k}");
            assert_eq!(got.evaluations, reference.evaluations, "k={k}");
        }
    }

    #[test]
    fn pow2_inverted_range_degrades_instead_of_panicking() {
        // A device with max_wg < lo used to produce an empty candidate list
        // and trip the ParamSpec::new assertion.
        let p = ParamSpec::pow2("lx", 32, 16);
        assert_eq!(p.candidates(), &[16]);
        let p = ParamSpec::pow2("lx", 32, 1);
        assert_eq!(p.candidates(), &[1]);
        let p = ParamSpec::pow2("lx", 8, 0);
        assert_eq!(p.candidates(), &[1]);
        // Non-power-of-two upper bound: largest pow2 below it.
        let p = ParamSpec::pow2("lx", 64, 24);
        assert_eq!(p.candidates(), &[16]);
    }
}
