//! Compensated floating-point summation, double-double arithmetic and
//! scale-aware tolerances.
//!
//! The allocation and latency kernels accumulate sums whose terms can span
//! twelve orders of magnitude (`Σ_j 1/t_j` with `t` spreads up to `1e12`).
//! A naive left-to-right `f64` sum loses up to `n · ε · Σ|term|` of absolute
//! accuracy, which is enough to push an algebraically exact PR allocation
//! outside a fixed `1e-9` feasibility window at large `n`. This module
//! provides a Neumaier-compensated accumulator (error bound `2ε` independent
//! of `n` for the compensated result) and the `n`-scaled tolerance used by
//! the feasibility checks.
//!
//! It also hosts the [`TwoF64`] double-double type (originally grown inside
//! the `lb-fuzz` differential oracles, promoted here so production kernels
//! can share it). The batch leave-one-out payment kernel uses it for the
//! `S − 1/b_i` subtraction, where a dominant machine would otherwise cancel
//! the whole residual in plain `f64`.

/// A Neumaier (improved Kahan) compensated accumulator.
///
/// Tracks a running sum and a separate compensation term holding the
/// low-order bits lost at each addition. Unlike classic Kahan summation,
/// Neumaier's variant stays accurate when an incoming term is larger in
/// magnitude than the running sum, which happens routinely with
/// log-uniformly distributed latency parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    /// A fresh accumulator at zero.
    fn new() -> Self {
        Self::default()
    }

    /// Adds one term, capturing the round-off into the compensation term.
    fn add(&mut self, term: f64) {
        let t = self.sum + term;
        if self.sum.abs() >= term.abs() {
            self.compensation += (self.sum - t) + term;
        } else {
            self.compensation += (term - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Compensated sum of an iterator of `f64` terms.
#[must_use]
pub fn compensated_sum<I: IntoIterator<Item = f64>>(terms: I) -> f64 {
    let mut acc = CompensatedSum::new();
    for term in terms {
        acc.add(term);
    }
    acc.value()
}

/// Base relative tolerance for feasibility checks on compensated sums.
pub const FEASIBILITY_TOL: f64 = 1e-9;

/// Scale- and size-aware feasibility tolerance for comparing a sum of `n`
/// allocation rates against a target total rate `r`.
///
/// The absolute error of a compensated sum of `n` non-negative terms that
/// total `r` is bounded by `O(ε) · r`, but the *inputs* themselves (each
/// rate is a quotient of two long sums) carry relative error that grows
/// like `√n` under the usual random-round-off model. `√n` scaling keeps
/// the check tight at small `n` while admitting algebraically exact
/// allocations at `n = 10_000` and `t` spreads of `1e12`.
#[must_use]
pub fn feasibility_tolerance(n: usize, r: f64) -> f64 {
    // `max(1.0)` keeps the tolerance meaningful for |r| < 1 without making
    // it collapse to a denormal-sized window.
    #[allow(clippy::cast_precision_loss)]
    let scale = (n.max(1) as f64).sqrt();
    FEASIBILITY_TOL * scale * r.abs().max(1.0)
}

/// An unevaluated sum `hi + lo` carrying ≈ 106 bits of significand.
///
/// A double-double represents a value as two `f64`s with `|lo| ≤ ulp(hi)/2`,
/// giving roughly 32 decimal digits — enough that subtracting one reciprocal
/// from a harmonic sum (`S − 1/t_i`, the leave-one-out kernel's core step)
/// keeps the residual accurate to well below the `1e-9` oracle budget even
/// when one machine contributes almost all of `S`.
///
/// The primitives are the classical error-free transformations (Dekker,
/// Knuth; see Hida–Li–Bailey's QD library for the compound algorithms):
/// `two_sum` captures the exact rounding error of an addition,
/// `two_prod` of a multiplication (via FMA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoF64 {
    /// Leading component: the represented value rounded to nearest `f64`.
    pub hi: f64,
    /// Trailing error term, non-overlapping with `hi`.
    pub lo: f64,
}

/// Exact sum of two `f64`s: returns `(fl(a+b), err)` with `a+b = fl(a+b)+err`.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Like [`two_sum`] but requires `|a| ≥ |b|` (one branch cheaper).
#[inline]
fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let err = b - (s - a);
    (s, err)
}

/// Exact product of two `f64`s via fused multiply-add.
#[inline]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let err = a.mul_add(b, -p);
    (p, err)
}

impl TwoF64 {
    /// The additive identity.
    pub const ZERO: Self = Self { hi: 0.0, lo: 0.0 };

    /// Lifts an `f64` exactly.
    #[must_use]
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self { hi: x, lo: 0.0 }
    }

    /// Rounds back to the nearest `f64`.
    #[must_use]
    #[inline]
    pub fn value(self) -> f64 {
        self.hi + self.lo
    }

    /// Double-double + `f64`.
    #[must_use]
    #[inline]
    pub fn add_f64(self, b: f64) -> Self {
        let (s, e) = two_sum(self.hi, b);
        let (hi, lo) = quick_two_sum(s, e + self.lo);
        Self { hi, lo }
    }

    /// Double-double × `f64`.
    #[must_use]
    #[inline]
    pub fn mul_f64(self, b: f64) -> Self {
        let (p, e) = two_prod(self.hi, b);
        let (hi, lo) = quick_two_sum(p, e + self.lo * b);
        Self { hi, lo }
    }

    /// The reciprocal `1/b` at double-double precision: `1 ÷ b` with the
    /// one Newton correction of the double-double quotient.
    #[must_use]
    #[inline]
    pub fn recip(b: f64) -> Self {
        let (q0, q1) = Self::recip_parts(b);
        Self::join_recip_parts(q0, q1)
    }

    /// [`TwoF64::recip`] before its last step: the `f64` quotient
    /// `q0 = 1.0 / b`, the very bits of a plain division, and its
    /// correction `q1`. A caller that keeps both has the PR rate's `1/b`
    /// and, through [`TwoF64::join_recip_parts`], the reciprocal itself.
    #[inline]
    pub(crate) fn recip_parts(b: f64) -> (f64, f64) {
        let q0 = 1.0 / b;
        let r = Self::from_f64(1.0) - Self::from_f64(b).mul_f64(q0);
        (q0, (r.hi + r.lo) / b)
    }

    /// The last step of [`TwoF64::recip`]: `recip(b)` bit for bit from
    /// `recip_parts(b)`.
    #[inline]
    pub(crate) fn join_recip_parts(q0: f64, q1: f64) -> Self {
        let (hi, lo) = quick_two_sum(q0, q1);
        Self { hi, lo }
    }
}

impl std::ops::Neg for TwoF64 {
    type Output = Self;

    /// Negation (exact).
    #[inline]
    fn neg(self) -> Self {
        Self {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl std::ops::Add for TwoF64 {
    type Output = Self;

    /// Double-double + double-double.
    #[inline]
    fn add(self, other: Self) -> Self {
        let (s, e) = two_sum(self.hi, other.hi);
        let (hi, lo) = quick_two_sum(s, e + self.lo + other.lo);
        Self { hi, lo }
    }
}

impl std::ops::Sub for TwoF64 {
    type Output = Self;

    /// Double-double − double-double.
    #[inline]
    fn sub(self, other: Self) -> Self {
        self + -other
    }
}

impl std::ops::Mul for TwoF64 {
    type Output = Self;

    /// Double-double × double-double.
    #[inline]
    fn mul(self, other: Self) -> Self {
        let (p, e) = two_prod(self.hi, other.hi);
        let (hi, lo) = quick_two_sum(p, e + self.hi * other.lo + self.lo * other.hi);
        Self { hi, lo }
    }
}

impl std::ops::Div for TwoF64 {
    type Output = Self;

    /// Double-double ÷ double-double (one Newton correction step — accurate
    /// to the full double-double precision for the kernels' purposes).
    #[inline]
    fn div(self, other: Self) -> Self {
        let q0 = self.hi / other.hi;
        let r = self - other.mul_f64(q0);
        let q1 = (r.hi + r.lo) / other.hi;
        let (hi, lo) = quick_two_sum(q0, q1);
        Self { hi, lo }
    }
}

/// The harmonic sum `S = Σ_j 1/t_j` at double-double precision — the shared
/// one-pass prefix of the PR closed forms (`L* = R²/S`) and of every
/// leave-one-out latency (`L_{-i} = R²/(S − 1/t_i)`, Theorem 2.1).
#[must_use]
pub fn inv_sum_dd(values: &[f64]) -> TwoF64 {
    values
        .iter()
        .fold(TwoF64::ZERO, |acc, &t| acc + TwoF64::recip(t))
}

/// Merges per-shard partial harmonic sums into one [`TwoF64`] total by a
/// deterministic balanced pairwise (tree) reduction over the shard order.
///
/// This is the root-coordinator half of the sharded round: shard `s` folds
/// `Σ 1/t_j` over its own agents ([`inv_sum_dd`] on its slice) and the root
/// merges the `k` partials here. The merge stays in double-double — each
/// double-double addition loses at most `O(2⁻¹⁰⁶)` relative — so the merged sum
/// agrees with the sequential fold to `~n·2⁻¹⁰⁶` relative, far below the
/// `2⁻⁵³` granularity at which any downstream `f64` result could change.
/// Merging post-rounded `f64` partials instead would inject `~2⁻⁵³`-relative
/// error per shard and make allocations depend on the shard count.
///
/// A single partial is returned unchanged (so `k = 1` is *exactly* the
/// sequential fold, bit for bit); an empty slice yields [`TwoF64::ZERO`].
#[must_use]
pub fn merge_inv_sums(partials: &[TwoF64]) -> TwoF64 {
    match partials {
        [] => TwoF64::ZERO,
        [only] => *only,
        _ => {
            let mid = partials.len() / 2;
            merge_inv_sums(&partials[..mid]) + merge_inv_sums(&partials[mid..])
        }
    }
}

/// Per-operation rounding bound of a double-double add/sub: each
/// [`TwoF64::add`] loses at most a few units in the last (106th) bit of the
/// larger operand. `ε² = 2⁻¹⁰⁴` absorbs the small constant.
const DD_OP_EPS: f64 = f64::EPSILON * f64::EPSILON;

/// The harmonic sum `S = Σ 1/b_i`, maintained *incrementally*: a Join adds
/// `1/b_i`, a Leave subtracts the same double-double term, a rate change is
/// a remove-then-insert. Each event is O(1); a from-scratch [`inv_sum_dd`]
/// rebuild is O(n).
///
/// # Drift accounting
///
/// Every add/sub rounds at `~2⁻¹⁰⁴` relative to the **larger** operand, so
/// after `k` events the accumulated error is bounded by
/// `k · peak · 2⁻¹⁰⁴`, where `peak` is the largest `|S|` the sum has passed
/// through since it was last rebuilt. The bound is tracked explicitly
/// ([`IncrementalInvSum::drift_bound`]): when heavy cancellation (a dominant
/// machine leaving) or sheer event count pushes it above a caller-chosen
/// fraction of the current `|S|`, [`IncrementalInvSum::needs_resum`] turns
/// true and the caller re-founds the state with a compensated
/// [`IncrementalInvSum::resum`] — which restores *exact* agreement with the
/// from-scratch fold, bit for bit. Re-summing every ≥ n events keeps the
/// amortized per-event cost O(1).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalInvSum {
    sum: TwoF64,
    /// Largest `|S.hi|` observed since the last re-sum.
    peak: f64,
    /// Double-double add/sub operations since the last re-sum.
    ops: u64,
    /// Compensated re-sums performed over the lifetime of the state.
    resums: u64,
}

impl Default for IncrementalInvSum {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalInvSum {
    /// An empty sum (no live terms).
    #[must_use]
    pub fn new() -> Self {
        Self {
            sum: TwoF64::ZERO,
            peak: 0.0,
            ops: 0,
            resums: 0,
        }
    }

    fn track(&mut self) {
        self.ops += 1;
        if self.sum.hi.abs() > self.peak {
            self.peak = self.sum.hi.abs();
        }
    }

    /// Adds `1/b` (a machine joining, or the insert half of a rate change).
    pub fn insert(&mut self, b: f64) {
        self.sum = self.sum + TwoF64::recip(b);
        self.track();
    }

    /// Subtracts `1/b` (a machine leaving). `b` must be the value that was
    /// inserted: the reciprocal is recomputed to the identical double-double
    /// term, so an insert/remove pair cancels to within one rounding step.
    pub fn remove(&mut self, b: f64) {
        self.sum = self.sum - TwoF64::recip(b);
        self.track();
    }

    /// Replaces `old` with `new` (a rate change): remove-then-insert.
    pub fn replace(&mut self, old: f64, new: f64) {
        self.remove(old);
        self.insert(new);
    }

    /// The current double-double sum.
    #[must_use]
    pub fn value(self) -> TwoF64 {
        self.sum
    }

    /// Upper bound on the absolute error accumulated since the last re-sum:
    /// `ops · peak · 2⁻¹⁰⁴`.
    #[must_use]
    pub fn drift_bound(self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ops = self.ops as f64;
        ops * self.peak * DD_OP_EPS
    }

    /// Whether the accumulated drift bound exceeds `rel_tol · |S|` — the
    /// signal to re-found the state from the live values. Also true when
    /// the sum has been driven to (near) zero after a non-trivial history,
    /// where no relative guarantee is possible.
    #[must_use]
    pub fn needs_resum(self, rel_tol: f64) -> bool {
        if self.ops == 0 {
            return false;
        }
        self.drift_bound() > rel_tol * self.sum.hi.abs()
    }

    /// Events (double-double operations) absorbed since the last re-sum.
    #[must_use]
    pub fn ops_since_resum(self) -> u64 {
        self.ops
    }

    /// Compensated re-sums performed so far (telemetry).
    #[must_use]
    pub fn resums(self) -> u64 {
        self.resums
    }

    /// Re-founds the state with a compensated from-scratch fold over the
    /// live values: afterwards the sum is *bit-identical* to the sequential
    /// [`inv_sum_dd`] fold of `values` and the drift bound is zero.
    pub fn resum(&mut self, values: &[f64]) {
        self.sum = inv_sum_dd(values);
        self.peak = self.sum.hi.abs();
        self.ops = 0;
        self.resums += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state founded from a slice of live latency parameters — exactly
    /// the sequential [`inv_sum_dd`] fold.
    fn from_values(values: &[f64]) -> IncrementalInvSum {
        let sum = inv_sum_dd(values);
        IncrementalInvSum {
            sum,
            peak: sum.hi.abs(),
            ops: 0,
            resums: 0,
        }
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(compensated_sum(std::iter::empty()), 0.0);
        assert_eq!(CompensatedSum::new().value(), 0.0);
    }

    #[test]
    fn recovers_cancellation_kahan_cannot() {
        // Classic Neumaier witness: 1 + 1e100 + 1 - 1e100 == 2 exactly
        // under compensation, 0 under naive or plain-Kahan summation.
        let terms = [1.0, 1e100, 1.0, -1e100];
        let naive: f64 = terms.iter().sum();
        assert_eq!(naive, 0.0);
        assert_eq!(compensated_sum(terms.iter().copied()), 2.0);
    }

    #[test]
    fn matches_naive_on_benign_input() {
        let terms: Vec<f64> = (1..=100).map(f64::from).collect();
        let naive: f64 = terms.iter().sum();
        assert_eq!(compensated_sum(terms.iter().copied()), naive);
    }

    #[test]
    fn compensates_wide_magnitude_spread() {
        // n tiny terms drowned by one huge term: naive summation loses all
        // of them; the compensated sum keeps them to within one ulp.
        let small = 1e-8;
        let n = 10_000;
        let mut acc = CompensatedSum::new();
        acc.add(1e12);
        for _ in 0..n {
            acc.add(small);
        }
        acc.add(-1e12);
        let expected = f64::from(n) * small;
        let rel = ((acc.value() - expected) / expected).abs();
        assert!(rel < 1e-12, "relative error {rel:e}");
    }

    #[test]
    fn dd_addition_recovers_what_f64_rounds_away() {
        // In plain f64, (1 + 1e-20) − 1 == 0. The double-double keeps it.
        let a = TwoF64::from_f64(1.0).add_f64(1e-20);
        let diff = a.add_f64(-1.0);
        assert_eq!(diff.value(), 1e-20);
    }

    #[test]
    fn dd_mul_keeps_cross_terms() {
        // (1 + ulp-ish lo)² must keep the 2·hi·lo cross term that a plain
        // hi×hi product would drop.
        let x = TwoF64::from_f64(1.0).add_f64(1e-20);
        let sq = x * x;
        assert_eq!(sq.hi, 1.0);
        assert!((sq.lo - 2e-20).abs() < 1e-30, "lo = {:e}", sq.lo);
    }

    #[test]
    fn dd_inv_sum_matches_exact_dyadic_case() {
        // 1/1 + 1/2 + 1/4 = 1.75 exactly in binary.
        let s = inv_sum_dd(&[1.0, 2.0, 4.0]);
        assert_eq!(s.hi, 1.75);
        assert_eq!(s.lo, 0.0);
    }

    #[test]
    fn dd_subtraction_of_dominant_term_keeps_residual() {
        // S = 1e12 + 1e-4 (16 orders apart): plain f64 drops the 1e-4 term
        // from S entirely (ulp(1e12) ≈ 1.2e-4), so S − 1e12 would return
        // garbage; dd keeps the residual to ~1e-16 relative.
        let big = 1e-12; // t small => 1/t = 1e12 dominates
        let s = inv_sum_dd(&[big, 1e4]);
        let residual = s - TwoF64::recip(big);
        let rel = (residual.value() - 1e-4).abs() / 1e-4;
        assert!(rel < 1e-12, "relative error {rel:e}");
    }

    #[test]
    fn merging_one_partial_is_the_identity() {
        let s = inv_sum_dd(&[1.0, 3.0, 7.0]);
        let merged = merge_inv_sums(&[s]);
        assert_eq!(merged.hi.to_bits(), s.hi.to_bits());
        assert_eq!(merged.lo.to_bits(), s.lo.to_bits());
        assert_eq!(merge_inv_sums(&[]).value(), 0.0);
    }

    #[test]
    fn merged_shard_partials_round_to_the_sequential_sum() {
        // Any contiguous sharding of the value vector must merge to a sum
        // whose f64 rounding equals the sequential fold's — the property the
        // shard-count-invariance of allocations and payments rests on.
        let n: usize = 4096;
        #[allow(clippy::cast_precision_loss)]
        let values: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.37).collect();
        let seq = inv_sum_dd(&values);
        for k in [1usize, 2, 7, 64, 333] {
            let chunk = n.div_ceil(k);
            let partials: Vec<TwoF64> = values.chunks(chunk).map(inv_sum_dd).collect();
            let merged = merge_inv_sums(&partials);
            assert_eq!(
                merged.value().to_bits(),
                seq.value().to_bits(),
                "k = {k}: merged {:e} vs sequential {:e}",
                merged.value(),
                seq.value()
            );
            // The double-double components themselves agree to ~n·2⁻¹⁰⁶
            // relative — far tighter than the f64 ulp the rates divide by.
            let diff = (merged - seq).value().abs();
            assert!(diff <= 1e-25 * seq.value(), "k = {k}: dd gap {diff:e}");
        }
    }

    #[test]
    fn tolerance_scales_with_n_and_r() {
        assert!(feasibility_tolerance(1, 1.0) >= FEASIBILITY_TOL);
        assert!(feasibility_tolerance(10_000, 1.0) >= 100.0 * FEASIBILITY_TOL * 0.99);
        assert!(feasibility_tolerance(4, 1e6) >= 2e6 * FEASIBILITY_TOL * 0.99);
        // Small rates do not collapse the window below the base tolerance.
        assert!(feasibility_tolerance(1, 1e-30) >= FEASIBILITY_TOL);
    }

    #[test]
    fn incremental_sum_matches_insert_history() {
        let values = [1.0, 2.5, 0.125, 7.0, 1e-3];
        let mut inc = IncrementalInvSum::new();
        for &v in &values {
            inc.insert(v);
        }
        // Inserting in slice order IS the sequential fold, bit for bit.
        let seq = inv_sum_dd(&values);
        assert_eq!(inc.value().hi.to_bits(), seq.hi.to_bits());
        assert_eq!(inc.value().lo.to_bits(), seq.lo.to_bits());
        assert_eq!(inc.ops_since_resum(), values.len() as u64);
    }

    #[test]
    fn incremental_sum_drift_stays_below_1e12_under_adversarial_churn() {
        // Pinned drift bound at n = 10⁵ (the ISSUE-10 acceptance bar):
        // adversarial join/leave churn with a 10¹² magnitude spread — the
        // worst case for cancellation, since a dominant 1/b term repeatedly
        // enters and leaves the sum — must stay within 1e-12 *relative* of
        // a from-scratch rebuild at every checkpoint, without re-summing.
        let n: usize = 100_000;
        let value_of = |i: usize| {
            // Deterministic 10^±6 spread keyed on the slot index.
            #[allow(clippy::cast_precision_loss)]
            let e = ((i * 2_654_435_761) % 13) as f64 - 6.0;
            10f64.powf(e)
        };
        let mut live: Vec<f64> = (0..n).map(value_of).collect();
        let mut inc = from_values(&live);

        let mut worst_rel = 0.0f64;
        for round in 0..10 {
            // Churn 10⁴ events per round: remove the current heaviest
            // contributors (largest 1/b — the smallest values), then
            // re-insert replacements, so every round maximally cancels.
            let mut victims: Vec<usize> = (0..live.len()).collect();
            victims.sort_by(|&a, &b| live[a].total_cmp(&live[b]));
            victims.truncate(5_000);
            victims.sort_unstable();
            for &i in victims.iter().rev() {
                inc.remove(live[i]);
                live.swap_remove(i);
            }
            for k in 0..5_000 {
                let v = value_of(round * 5_000 + k);
                inc.insert(v);
                live.push(v);
            }
            let scratch = inv_sum_dd(&live);
            let rel = (inc.value() - scratch).value().abs() / scratch.value();
            worst_rel = worst_rel.max(rel);
            assert!(
                rel <= 1e-12,
                "round {round}: incremental S drifted {rel:e} relative"
            );
            // The tracked bound itself stays far under the bar, so the
            // cancellation guard never needs to fire on this stream.
            assert!(!inc.needs_resum(1e-12));
        }
        // 10⁵ churn events later the drift is still far under the bar…
        assert!(worst_rel <= 1e-12, "worst drift {worst_rel:e}");
        assert_eq!(inc.ops_since_resum(), 100_000);

        // …and a compensated re-sum restores dd exactness, bit for bit.
        inc.resum(&live);
        let scratch = inv_sum_dd(&live);
        assert_eq!(inc.value().hi.to_bits(), scratch.hi.to_bits());
        assert_eq!(inc.value().lo.to_bits(), scratch.lo.to_bits());
        assert_eq!(inc.drift_bound(), 0.0);
        assert_eq!(inc.resums(), 1);
        assert!(!inc.needs_resum(1e-14));
    }

    #[test]
    fn needs_resum_fires_on_cancellation() {
        // A dominant term entering and leaving leaves the bound referenced
        // to the *peak* magnitude: once the survivors are tiny relative to
        // it, the state reports that no 1e-14-relative guarantee remains
        // only after enough operations accumulate.
        let mut inc = IncrementalInvSum::new();
        inc.insert(1e-12); // 1/b = 1e12 dominates
        for _ in 0..4 {
            inc.insert(1e6); // survivors contribute 1e-6 each
        }
        for _ in 0..200 {
            inc.replace(1e-12, 1e-12); // churn the dominant term
        }
        inc.remove(1e-12);
        assert!(inc.needs_resum(1e-14), "cancellation must trigger re-sum");
        // Fresh state never asks for a re-sum.
        assert!(!from_values(&[1.0, 2.0]).needs_resum(1e-14));
    }
}
