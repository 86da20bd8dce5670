//! Conservative interval analysis over symbolic expressions.
//!
//! The code generator uses ranges to prove that pad-reindexing functions stay
//! in bounds, to decide whether a loop can be unrolled (constant trip count)
//! and to elide boundary `select`s when an index provably never leaves the
//! valid region. The static kernel verifier (`lift-oclsim`'s `verify`
//! module) reuses [`Interval`] as its abstract value domain, which is why
//! the transfer functions below are public and exist in two division
//! flavours: the Euclidean ones ([`Interval::div_euclid`],
//! [`Interval::rem_euclid`]) match [`ArithExpr::eval`], while the
//! truncating ones ([`Interval::div_trunc`], [`Interval::rem_trunc`])
//! match C's `/` and `%` as the kernel simulator executes them — using the
//! Euclidean rules on C expressions would be unsound for negative
//! dividends (`-1 % 8` is `7` Euclidean but `-1` in C).

use crate::expr::ArithExpr;

/// A closed integer interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

// The arithmetic methods deliberately stay inherent rather than `std::ops`
// implementations: every one saturates, and hiding that behind `+`/`-`/`*`
// operators would read as exact arithmetic.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Returns `true` if every value of `self` lies within `[lo, hi]`.
    pub fn within(&self, lo: i64, hi: i64) -> bool {
        self.lo >= lo && self.hi <= hi
    }

    /// Sum of two intervals (saturating at the `i64` range).
    pub fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo.saturating_add(o.lo), self.hi.saturating_add(o.hi))
    }

    /// Difference of two intervals.
    pub fn sub(self, o: Interval) -> Interval {
        self.add(o.neg())
    }

    /// Negation.
    pub fn neg(self) -> Interval {
        Interval::new(self.hi.saturating_neg(), self.lo.saturating_neg())
    }

    /// Product of two intervals.
    pub fn mul(self, o: Interval) -> Interval {
        let candidates = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval::new(
            *candidates.iter().min().expect("non-empty"),
            *candidates.iter().max().expect("non-empty"),
        )
    }

    /// Element-wise minimum (`min(a, b)` over all pairs).
    pub fn min(self, o: Interval) -> Interval {
        Interval::new(self.lo.min(o.lo), self.hi.min(o.hi))
    }

    /// Element-wise maximum.
    pub fn max(self, o: Interval) -> Interval {
        Interval::new(self.lo.max(o.lo), self.hi.max(o.hi))
    }

    /// Convex hull of two intervals (abstract join).
    pub fn join(self, o: Interval) -> Interval {
        Interval::new(self.lo.min(o.lo), self.hi.max(o.hi))
    }

    /// Intersection, or `None` when the intervals are disjoint.
    pub fn intersect(self, o: Interval) -> Option<Interval> {
        let (lo, hi) = (self.lo.max(o.lo), self.hi.min(o.hi));
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// The interval clamped into `[lo, hi]` — the range of
    /// `max(lo, min(x, hi))` for `x` in `self`.
    pub fn clamp_to(self, lo: i64, hi: i64) -> Interval {
        assert!(lo <= hi, "malformed clamp range [{lo}, {hi}]");
        Interval::new(self.lo.clamp(lo, hi), self.hi.clamp(lo, hi))
    }

    /// Euclidean division (matches [`ArithExpr::eval`]), or `None` when
    /// the divisor interval admits zero or a sign change (the quotient is
    /// then unbounded in the worst case).
    pub fn div_euclid(self, d: Interval) -> Option<Interval> {
        if d.lo <= 0 {
            return if d.hi < 0 {
                // Negative divisor: a / d == -(a / -d) under both floor
                // and truncation, so reuse the positive-divisor rule.
                self.div_euclid(d.neg()).map(Interval::neg)
            } else {
                None
            };
        }
        let candidates = [
            self.lo.div_euclid(d.lo),
            self.lo.div_euclid(d.hi),
            self.hi.div_euclid(d.lo),
            self.hi.div_euclid(d.hi),
        ];
        Some(Interval::new(
            *candidates.iter().min().expect("non-empty"),
            *candidates.iter().max().expect("non-empty"),
        ))
    }

    /// Euclidean remainder: always in `[0, |d|-1]`, tightened to `self`
    /// when the dividend already lies inside that band.
    pub fn rem_euclid(self, d: Interval) -> Option<Interval> {
        if d.lo <= 0 && d.hi >= 0 {
            return None;
        }
        let m = d.lo.abs().max(d.hi.abs());
        let band = Interval::new(0, m - 1);
        // `x.rem_euclid(d) == x` whenever `0 <= x < min |d|`.
        let dmin = d.lo.abs().min(d.hi.abs());
        if self.lo >= 0 && self.hi < dmin {
            return Some(self);
        }
        Some(band)
    }

    /// C truncating division (the simulator's `/` on integers), or `None`
    /// when the divisor interval admits zero.
    ///
    /// Truncating division is monotone in the dividend and, for a
    /// sign-stable divisor, monotone in the divisor — so the four corner
    /// quotients bound the result.
    pub fn div_trunc(self, d: Interval) -> Option<Interval> {
        if d.lo <= 0 && d.hi >= 0 {
            return None;
        }
        let candidates = [
            self.lo.wrapping_div(d.lo),
            self.lo.wrapping_div(d.hi),
            self.hi.wrapping_div(d.lo),
            self.hi.wrapping_div(d.hi),
        ];
        Some(Interval::new(
            *candidates.iter().min().expect("non-empty"),
            *candidates.iter().max().expect("non-empty"),
        ))
    }

    /// C remainder (the simulator's `%`): the sign follows the dividend,
    /// so the result lies in `[-(|d|-1), |d|-1]` intersected with the
    /// dividend's sign, and never exceeds the dividend's own magnitude.
    /// `None` when the divisor interval admits zero.
    pub fn rem_trunc(self, d: Interval) -> Option<Interval> {
        if d.lo <= 0 && d.hi >= 0 {
            return None;
        }
        let m = d.lo.abs().max(d.hi.abs()) - 1;
        let lo = if self.lo >= 0 {
            0
        } else {
            m.saturating_neg().max(self.lo)
        };
        let hi = if self.hi <= 0 { 0 } else { m.min(self.hi) };
        Some(Interval::new(lo, hi))
    }
}

/// An environment supplying a value interval for each variable.
pub trait RangeEnv {
    /// The interval a variable is known to lie in, if known.
    fn range_of(&self, name: &str) -> Option<Interval>;
}

impl<F: Fn(&str) -> Option<Interval>> RangeEnv for F {
    fn range_of(&self, name: &str) -> Option<Interval> {
        self(name)
    }
}

impl ArithExpr {
    /// Computes a conservative interval for the expression under `env`,
    /// or `None` when a variable range is unknown or an operation cannot be
    /// bounded (e.g. division by an interval containing zero).
    ///
    /// The result is sound: the true value always lies within the returned
    /// interval (assuming the variable ranges are sound).
    ///
    /// ```
    /// use lift_arith::{ArithExpr, range::Interval};
    /// let i = ArithExpr::var("i"); // a loop index in [0, 9]
    /// let e = i * 2 + 1;
    /// let r = e
    ///     .interval(&|n: &str| (n == "i").then_some(Interval::new(0, 9)))
    ///     .unwrap();
    /// assert_eq!(r, Interval::new(1, 19));
    /// ```
    pub fn interval(&self, env: &impl RangeEnv) -> Option<Interval> {
        self.interval_dyn(&|n| env.range_of(n))
    }

    fn interval_dyn(&self, env: &dyn Fn(&str) -> Option<Interval>) -> Option<Interval> {
        match self {
            ArithExpr::Cst(c) => Some(Interval::point(*c)),
            ArithExpr::Var(v) => env(v),
            ArithExpr::Sum(ts) => {
                let mut acc = Interval::point(0);
                for t in ts {
                    acc = acc.add(t.interval_dyn(env)?);
                }
                Some(acc)
            }
            ArithExpr::Prod(ts) => {
                let mut acc = Interval::point(1);
                for t in ts {
                    acc = acc.mul(t.interval_dyn(env)?);
                }
                Some(acc)
            }
            ArithExpr::Div(a, b) => {
                let (ra, rb) = (a.interval_dyn(env)?, b.interval_dyn(env)?);
                ra.div_euclid(rb)
            }
            ArithExpr::Mod(a, b) => {
                let (ra, rb) = (a.interval_dyn(env)?, b.interval_dyn(env)?);
                ra.rem_euclid(rb)
            }
            ArithExpr::Min(a, b) => {
                let (ra, rb) = (a.interval_dyn(env)?, b.interval_dyn(env)?);
                Some(ra.min(rb))
            }
            ArithExpr::Max(a, b) => {
                let (ra, rb) = (a.interval_dyn(env)?, b.interval_dyn(env)?);
                Some(ra.max(rb))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'a>(pairs: &'a [(&'a str, Interval)]) -> impl Fn(&str) -> Option<Interval> + 'a {
        move |n: &str| pairs.iter().find(|(k, _)| *k == n).map(|(_, v)| *v)
    }

    #[test]
    fn constants_are_points() {
        let e = ArithExpr::from(5);
        assert_eq!(e.interval(&env(&[])), Some(Interval::point(5)));
    }

    #[test]
    fn sums_and_products() {
        let i = ArithExpr::var("i");
        let bound = [("i", Interval::new(0, 7))];
        assert_eq!(
            (i.clone() + 3).interval(&env(&bound)),
            Some(Interval::new(3, 10))
        );
        assert_eq!(
            (i.clone() * -2).interval(&env(&bound)),
            Some(Interval::new(-14, 0))
        );
        assert_eq!(
            (i.clone() * i).interval(&env(&bound)),
            Some(Interval::new(0, 49))
        );
    }

    #[test]
    fn division_positive_divisor() {
        let i = ArithExpr::var("i");
        let bound = [("i", Interval::new(0, 9))];
        let e = ArithExpr::Div(Box::new(i), Box::new(ArithExpr::from(2)));
        assert_eq!(e.interval(&env(&bound)), Some(Interval::new(0, 4)));
    }

    #[test]
    fn division_by_maybe_zero_unknown() {
        let d = ArithExpr::var("d");
        let bound = [("d", Interval::new(0, 4))];
        let e = ArithExpr::Div(Box::new(ArithExpr::from(8)), Box::new(d));
        assert_eq!(e.interval(&env(&bound)), None);
    }

    #[test]
    fn modulo_bounded_by_divisor() {
        let i = ArithExpr::var("i");
        let bound = [("i", Interval::new(-100, 100))];
        let e = ArithExpr::Mod(Box::new(i), Box::new(ArithExpr::from(8)));
        assert_eq!(e.interval(&env(&bound)), Some(Interval::new(0, 7)));
    }

    #[test]
    fn clamp_pattern_stays_in_bounds() {
        // clamp(i, 0, N-1) written as max(0, min(i, N-1)) with i in [-1, N].
        let i = ArithExpr::var("i");
        let n_minus_1 = ArithExpr::from(15);
        let clamped = ArithExpr::max(ArithExpr::from(0), ArithExpr::min(i, n_minus_1));
        let bound = [("i", Interval::new(-1, 16))];
        let r = clamped.interval(&env(&bound)).unwrap();
        assert!(r.within(0, 15));
    }

    #[test]
    fn unknown_var_gives_none() {
        let e = ArithExpr::var("mystery") + 1;
        assert_eq!(e.interval(&env(&[])), None);
    }

    #[test]
    #[should_panic(expected = "malformed interval")]
    fn malformed_interval_panics() {
        let _ = Interval::new(3, 1);
    }

    #[test]
    fn modulo_tightens_to_an_in_band_dividend() {
        // `i % 8` with i already in [2, 5] is just i.
        let i = ArithExpr::var("i");
        let e = ArithExpr::Mod(Box::new(i), Box::new(ArithExpr::from(8)));
        let r = e.interval(&env(&[("i", Interval::new(2, 5))]));
        assert_eq!(r, Some(Interval::new(2, 5)));
    }

    #[test]
    fn division_negative_divisor_now_bounded() {
        let i = ArithExpr::var("i");
        let e = ArithExpr::Div(Box::new(i), Box::new(ArithExpr::from(-2)));
        let r = e.interval(&env(&[("i", Interval::new(0, 9))]));
        assert_eq!(r, Some(Interval::new(-4, 0)));
    }

    /// Exhaustive soundness check of every public transfer function
    /// against concrete evaluation over a small grid.
    #[test]
    fn transfer_functions_are_sound_on_a_grid() {
        let vals: Vec<i64> = (-9..=9).collect();
        let ivs: Vec<Interval> = vals
            .iter()
            .flat_map(|&lo| {
                vals.iter()
                    .filter(move |&&hi| hi >= lo)
                    .map(move |&hi| Interval::new(lo, hi))
            })
            .collect();
        for &a in &ivs {
            for &b in &ivs {
                let pairs = || (a.lo..=a.hi).flat_map(move |x| (b.lo..=b.hi).map(move |y| (x, y)));
                for (x, y) in pairs() {
                    assert!(
                        a.add(b).within(i64::MIN, i64::MAX)
                            && a.add(b).lo <= x + y
                            && x + y <= a.add(b).hi
                    );
                    assert!(a.sub(b).lo <= x - y && x - y <= a.sub(b).hi);
                    assert!(a.mul(b).lo <= x * y && x * y <= a.mul(b).hi);
                    assert!(a.min(b).lo <= x.min(y) && x.min(y) <= a.min(b).hi);
                    assert!(a.max(b).lo <= x.max(y) && x.max(y) <= a.max(b).hi);
                    assert!(a.join(b).lo <= x && x <= a.join(b).hi);
                    if y != 0 {
                        if let Some(q) = a.div_trunc(b) {
                            let v = x.wrapping_div(y);
                            assert!(
                                q.lo <= v && v <= q.hi,
                                "{x}/{y} = {v} outside {q:?} for {a:?}/{b:?}"
                            );
                        }
                        if let Some(r) = a.rem_trunc(b) {
                            let v = x.wrapping_rem(y);
                            assert!(
                                r.lo <= v && v <= r.hi,
                                "{x}%{y} = {v} outside {r:?} for {a:?}%{b:?}"
                            );
                        }
                        if let Some(q) = a.div_euclid(b) {
                            let v = x.div_euclid(y);
                            assert!(q.lo <= v && v <= q.hi, "{x} dive {y} = {v} outside {q:?}");
                        }
                        if let Some(r) = a.rem_euclid(b) {
                            let v = x.rem_euclid(y);
                            assert!(r.lo <= v && v <= r.hi, "{x} reme {y} = {v} outside {r:?}");
                        }
                    }
                }
                if let Some(i) = a.intersect(b) {
                    assert!(i.lo >= a.lo && i.hi <= a.hi && i.lo >= b.lo && i.hi <= b.hi);
                } else {
                    assert!(a.hi < b.lo || b.hi < a.lo);
                }
            }
        }
        // clamp_to: range of max(lo, min(x, hi)).
        let a = Interval::new(-3, 20);
        assert_eq!(a.clamp_to(0, 15), Interval::new(0, 15));
        assert_eq!(Interval::new(2, 5).clamp_to(0, 15), Interval::new(2, 5));
        assert_eq!(Interval::new(-7, -4).clamp_to(0, 15), Interval::point(0));
    }
}
