//! Feasible allocations and the paper's PR (proportional-rate) algorithm.
//!
//! Theorem 2.1 of the paper: for linear latency functions `l_i(x) = t_i·x`,
//! the allocation minimising the total latency `L(x) = Σ t_i x_i²` subject to
//! `Σ x_i = R`, `x_i ≥ 0` is
//!
//! ```text
//! x_i* = (1/t_i) / (Σ_j 1/t_j) · R          (PR algorithm)
//! L*   = R² / (Σ_j 1/t_j)
//! ```
//!
//! i.e. jobs are allocated in proportion to processing rates. These closed
//! forms are the base of both the mechanism (allocation on *bids*) and the
//! bonus term (optimal latency *excluding* one agent).

use crate::error::CoreError;
use crate::latency::LatencyFunction;
use crate::machine::{validate_positive, validate_values, System};
use crate::numeric::{compensated_sum, feasibility_tolerance, inv_sum_dd, TwoF64};
use std::cell::Cell;

/// Default base tolerance used when checking allocation feasibility.
///
/// The effective window is scale- and size-aware: see
/// [`crate::numeric::feasibility_tolerance`].
pub const FEASIBILITY_TOL: f64 = crate::numeric::FEASIBILITY_TOL;

/// A job-rate allocation across the machines of a [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    rates: Vec<f64>,
}

impl Allocation {
    /// Wraps raw per-machine rates after validating feasibility against the
    /// total rate `r` (positivity and conservation).
    ///
    /// Conservation is checked with a compensated (Neumaier) sum against the
    /// scale- and size-aware window of
    /// [`crate::numeric::feasibility_tolerance`], so algebraically exact
    /// allocations are accepted even at `n = 10_000` machines with latency
    /// parameters spread over twelve orders of magnitude.
    ///
    /// # Errors
    /// Returns [`CoreError::Infeasible`] when a rate is negative/non-finite
    /// or the rates do not sum to `r`.
    pub fn new(rates: Vec<f64>, r: f64) -> Result<Self, CoreError> {
        if rates.is_empty() {
            return Err(CoreError::EmptySystem);
        }
        for (i, &x) in rates.iter().enumerate() {
            if !x.is_finite() || x < 0.0 {
                return Err(CoreError::Infeasible {
                    reason: format!("rate x[{i}] = {x} violates positivity"),
                });
            }
        }
        let sum = compensated_sum(rates.iter().copied());
        if (sum - r).abs() > feasibility_tolerance(rates.len(), r) {
            return Err(CoreError::Infeasible {
                reason: format!("rates sum to {sum}, expected {r}"),
            });
        }
        Ok(Self { rates })
    }

    /// Wraps rates without feasibility checks (for internal construction
    /// where feasibility holds by algebra).
    #[must_use]
    pub(crate) fn from_raw(rates: Vec<f64>) -> Self {
        Self { rates }
    }

    /// Per-machine job rates, in machine order.
    #[must_use]
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Rate assigned to machine `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn rate(&self, i: usize) -> f64 {
        self.rates[i]
    }

    /// Number of machines covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the allocation covers zero machines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Total allocated rate `Σ x_i` (compensated sum).
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        compensated_sum(self.rates.iter().copied())
    }

    /// Checks feasibility against total rate `r` within `tol`.
    #[must_use]
    pub fn is_feasible(&self, r: f64, tol: f64) -> bool {
        self.rates.iter().all(|&x| x.is_finite() && x >= -tol)
            && (self.total_rate() - r).abs() <= tol * r.abs().max(1.0)
    }
}

/// Validates a total arrival rate.
///
/// # Errors
/// Returns [`CoreError::InvalidRate`] unless `r` is finite and positive.
pub fn validate_rate(r: f64) -> Result<(), CoreError> {
    if r.is_finite() && r > 0.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidRate(r))
    }
}

/// Validates a harmonic sum `s = Σ 1/t_j` that a leave-one-out pass divides by.
///
/// # Errors
/// Returns [`CoreError::NumericalOverflow`] unless `s` is finite and positive.
pub fn validate_inv_sum(s: TwoF64) -> Result<(), CoreError> {
    if s.hi.is_finite() && s.hi > 0.0 {
        Ok(())
    } else {
        Err(CoreError::NumericalOverflow {
            what: "sum of inverse latency coefficients",
        })
    }
}

/// The paper's **PR algorithm** (Sec. 2): allocate the total rate `r` in
/// proportion to the processing rates `1/values[i]`.
///
/// `values` are the latency coefficients the allocation is computed *from*:
/// true values in the classical setting, **bids** inside the mechanism.
///
/// ```
/// use lb_core::pr_allocate;
/// // Machine 0 is twice as fast as machine 1: it gets twice the load.
/// let alloc = pr_allocate(&[1.0, 2.0], 3.0)?;
/// assert!((alloc.rate(0) - 2.0).abs() < 1e-12);
/// assert!((alloc.rate(1) - 1.0).abs() < 1e-12);
/// # Ok::<(), lb_core::CoreError>(())
/// ```
///
/// # Errors
/// Returns an error for empty/invalid `values` or an invalid rate, and
/// [`CoreError::NumericalOverflow`] if `Σ 1/t_j` leaves the finite range
/// (possible only near the extreme ends of the validated parameter domain).
pub fn pr_allocate(values: &[f64], r: f64) -> Result<Allocation, CoreError> {
    validate_values("latency coefficient", values)?;
    validate_rate(r)?;
    pr_allocate_with_sum(values, r, inv_sum_dd(values))
}

/// [`pr_allocate`] against a precomputed harmonic sum `s = Σ 1/values[j]`.
///
/// The shard tier computes `s` by merging per-shard [`TwoF64`] partials
/// ([`crate::numeric::merge_inv_sums`]); the root allocates every
/// respondent's rate against that one merged sum. Passing
/// `inv_sum_dd(values)` reproduces [`pr_allocate`] bit for bit — the rates
/// divide by the `f64`-rounded sum either way, so any two `s` arguments
/// that round to the same `f64` yield identical allocations.
///
/// `values` must already be validated (positive, finite, non-subnormal):
/// this entry point re-checks only the sum and the rate, since its callers
/// (the root coordinator, [`pr_allocate`]) have validated per-machine bids
/// on ingestion.
///
/// # Errors
/// Returns an error for an invalid rate, and
/// [`CoreError::NumericalOverflow`] if `s` or a rate leaves the finite
/// positive range.
pub fn pr_allocate_with_sum(values: &[f64], r: f64, s: TwoF64) -> Result<Allocation, CoreError> {
    validate_rate(r)?;
    let inv_sum = s.value();
    if !inv_sum.is_finite() || inv_sum <= 0.0 {
        return Err(CoreError::NumericalOverflow {
            what: "sum of inverse latency coefficients",
        });
    }
    let rates: Vec<f64> = values.iter().map(|t| (1.0 / t) / inv_sum * r).collect();
    if rates.iter().any(|x| !x.is_finite()) {
        return Err(CoreError::NumericalOverflow {
            what: "PR allocation rate",
        });
    }
    Ok(Allocation::from_raw(rates))
}

/// Total latency `L(x) = Σ values[i] · x_i²` of an allocation under linear
/// latency coefficients `values` (execution values in the mechanism).
///
/// # Errors
/// Returns [`CoreError::LengthMismatch`] when the arities differ, or
/// [`CoreError::NumericalOverflow`] when a `t·x²` term or the sum leaves the
/// finite `f64` range.
pub fn total_latency_linear(alloc: &Allocation, values: &[f64]) -> Result<f64, CoreError> {
    if alloc.len() != values.len() {
        return Err(CoreError::LengthMismatch {
            expected: values.len(),
            actual: alloc.len(),
        });
    }
    let latency = compensated_sum(alloc.rates().iter().zip(values).map(|(&x, &t)| t * x * x));
    if latency.is_finite() {
        Ok(latency)
    } else {
        Err(CoreError::NumericalOverflow {
            what: "total latency Σ t_i·x_i²",
        })
    }
}

/// Closed-form minimum total latency for linear latencies (Theorem 2.1):
/// `L* = r² / Σ (1/values[i])`.
///
/// # Errors
/// Returns an error for empty/invalid `values` or an invalid rate, or
/// [`CoreError::NumericalOverflow`] when the result leaves the finite range.
pub fn optimal_latency_linear(values: &[f64], r: f64) -> Result<f64, CoreError> {
    validate_values("latency coefficient", values)?;
    validate_rate(r)?;
    let inv_sum = compensated_sum(values.iter().map(|t| 1.0 / t));
    if !inv_sum.is_finite() || inv_sum <= 0.0 {
        return Err(CoreError::NumericalOverflow {
            what: "sum of inverse latency coefficients",
        });
    }
    // `r · (r / inv_sum)` delays overflow vs. `r² / inv_sum` when r is huge
    // and inv_sum is large enough to bring the quotient back in range.
    let latency = r * (r / inv_sum);
    if latency.is_finite() {
        Ok(latency)
    } else {
        Err(CoreError::NumericalOverflow {
            what: "optimal latency r²/Σ(1/t_j)",
        })
    }
}

/// When the double-double residual `S − 1/t_i` retains fewer significant
/// digits than this fraction of `S`, the batch kernel re-sums the surviving
/// reciprocals directly instead of trusting the subtraction.
///
/// A double-double carries ~106 bits (≈ 1e-32 relative), so a residual down
/// to `1e-18·S` still keeps ≥ 14 good digits after the subtraction — far
/// inside the `1e-12` equivalence bar. Only a machine whose reciprocal
/// dominates `S` by eighteen orders of magnitude trips the fallback, and at
/// most one machine can dominate at a time, so the kernel stays O(n).
const LOO_RESIDUAL_GUARD: f64 = 1e-18;

/// `L_{-i} = r² / (S − 1/values[i])` at double-double precision for one
/// machine: the reference that the blocked [`for_each_latency_excluding`]
/// matches bit for bit, and its fallback for a machine that dominates `S`.
/// Such a machine's residual is re-summed from the other reciprocals
/// instead of subtracted. [`optimal_latency_excluding`] checks its result.
/// `values` must be validated and `s` must pass [`validate_inv_sum`]; the
/// caller checks that the result is finite.
///
/// # Panics
/// Panics if `i` is out of bounds.
#[inline]
#[must_use]
pub fn latency_excluding_dd(values: &[f64], i: usize, r: f64, s: TwoF64) -> TwoF64 {
    let diff = s - TwoF64::recip(values[i]);
    let s_minus = if diff.hi > LOO_RESIDUAL_GUARD * s.hi {
        diff
    } else {
        // Cancellation-free rebuild from the surviving reciprocals.
        values
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .fold(TwoF64::ZERO, |acc, (_, &t)| acc + TwoF64::recip(t))
    };
    // `(r/S₋ᵢ)·r` delays overflow like `r·(r/S)`.
    (TwoF64::from_f64(r) / s_minus).mul_f64(r)
}

/// Machines per block of [`for_each_latency_excluding`]: enough independent
/// division chains to keep the floating-point units busy, few enough that
/// the residuals stay in registers and L1.
const LOO_BLOCK: usize = 16;

/// Hands `f` every machine's `L_{-i}` in index order, each bit-identical to
/// [`latency_excluding_dd`]`(values, i, r, s)`: the one blocked kernel,
/// with each reciprocal built on the spot. `values` must be validated and
/// `s` must pass [`validate_inv_sum`]; `f` checks that each result is
/// finite.
pub fn for_each_latency_excluding(
    values: &[f64],
    r: f64,
    s: TwoF64,
    mut f: impl FnMut(usize, TwoF64),
) {
    let recip = |_, t| TwoF64::recip(t);
    latency_excluding_blocks(values, r, s, recip, |i, _, l_minus| f(i, l_minus));
}

/// The one `L_{-i}` kernel: hands `f` every machine's reciprocal and
/// `L_{-i}` in index order, each `L_{-i}` bit-identical to
/// [`latency_excluding_dd`]`(values, i, r, s)`.
///
/// `recip(i, t)` supplies machine `i`'s `TwoF64::recip(t)`, `t = values[i]`:
/// built on the spot, or kept from the pass that summed `S`
/// ([`BidColumns::new`]).
/// It is called for every machine of a block before `f` sees the first of
/// them, and `f` gets the same reciprocal back, so a caller that needs
/// `1/t_i` again (the marginal of [`LeaveOneOut`]) does not rebuild it.
///
/// One machine's term is a chain of four dependent divisions; done one
/// machine at a time the chains run back to back. This kernel takes
/// 16 machines (`LOO_BLOCK`) at a time: first every residual `S − 1/t_i` of
/// the block, then every quotient `(r / S₋ᵢ)·r`, so independent chains
/// overlap. Each machine gets exactly the reference's operations; a
/// machine whose residual trips the guard is handed to the reference
/// itself, which re-sums it.
fn latency_excluding_blocks(
    values: &[f64],
    r: f64,
    s: TwoF64,
    mut recip: impl FnMut(usize, f64) -> TwoF64,
    mut f: impl FnMut(usize, TwoF64, TwoF64),
) {
    let mut recips = [TwoF64::ZERO; LOO_BLOCK];
    let mut residuals = [TwoF64::ZERO; LOO_BLOCK];
    for (b, block) in values.chunks(LOO_BLOCK).enumerate() {
        let recips = &mut recips[..block.len()];
        let residuals = &mut residuals[..block.len()];
        let first = b * LOO_BLOCK;
        for (i, ((q, diff), &t)) in
            (first..).zip(recips.iter_mut().zip(residuals.iter_mut()).zip(block))
        {
            *q = recip(i, t);
            *diff = s - *q;
        }
        for (i, (&q, &diff)) in (first..).zip(recips.iter().zip(residuals.iter())) {
            let l_minus = if diff.hi > LOO_RESIDUAL_GUARD * s.hi {
                (TwoF64::from_f64(r) / diff).mul_f64(r)
            } else {
                latency_excluding_dd(values, i, r, s)
            };
            f(i, q, l_minus);
        }
    }
}

/// The bid side of a round (Theorem 2.1), from one reciprocal per bid: the
/// harmonic sum `S`, the PR allocation and every `L_{-i}`.
///
/// Def. 3.3 pays `P_i = C_i + L_{-i}(b_{-i}) − L(x(b), t̃)`. The allocation
/// and each `L_{-i} = R²/(S − 1/b_i)` depend on the bids alone, so a round
/// that settles several times (against estimated and against true
/// execution values) derives them once here and each settle adds only
/// `C_i` and `L`.
#[derive(Debug, Clone, PartialEq)]
pub struct BidColumns {
    s: TwoF64,
    allocation: Allocation,
    excluding: Vec<f64>,
}

impl BidColumns {
    /// Derives the bid side of `values` at total rate `r` in two passes.
    ///
    /// 1. One validated pass checks each value (named `name` in the
    ///    error), builds its reciprocal once and folds `S` exactly as
    ///    [`inv_sum_dd`] does. The two parts of each reciprocal
    ///    (`TwoF64::recip_parts`) wait in the buffers that become the
    ///    rates and the `L_{-i}` column, so the pass keeps no buffer of its
    ///    own.
    /// 2. The blocked `L_{-i}` kernel reads them back: each `q0 = 1/t_i`
    ///    becomes the rate `q0 / S · r`, and each reciprocal becomes
    ///    `L_{-i}`, in place.
    ///
    /// The rates are [`pr_allocate_with_sum`]`(values, r, inv_sum_dd(values))`
    /// bit for bit, since `q0` is the very quotient `1.0 / t`, and each
    /// `L_{-i}` is [`latency_excluding_dd`]'s value. With one machine the
    /// column holds no `L_{-i}` (there is none); the settle rejects it.
    ///
    /// # Errors
    /// [`pr_allocate`]'s errors in its order: [`CoreError::EmptySystem`],
    /// the invalid value at the lowest index, an invalid rate, then
    /// [`CoreError::NumericalOverflow`] for `S` or a rate.
    pub fn new(name: &'static str, values: &[f64], r: f64) -> Result<Self, CoreError> {
        if values.is_empty() {
            return Err(CoreError::EmptySystem);
        }
        let mut rates = Vec::with_capacity(values.len());
        let mut excluding = Vec::with_capacity(values.len());
        let mut s = TwoF64::ZERO;
        for &t in values {
            validate_positive(name, t)?;
            let (q0, q1) = TwoF64::recip_parts(t);
            s = s + TwoF64::join_recip_parts(q0, q1);
            rates.push(q0);
            excluding.push(q1);
        }
        validate_rate(r)?;
        let inv_sum = s.value();
        if !inv_sum.is_finite() || inv_sum <= 0.0 {
            return Err(CoreError::NumericalOverflow {
                what: "sum of inverse latency coefficients",
            });
        }
        // Both callbacks touch the column: the first reads machine i's q1,
        // the second writes L_{-i} over it once the block is done.
        let column = Cell::from_mut(excluding.as_mut_slice()).as_slice_of_cells();
        let mut finite = true;
        latency_excluding_blocks(
            values,
            r,
            s,
            |i, _| {
                let q0 = rates[i];
                rates[i] = q0 / inv_sum * r;
                finite &= rates[i].is_finite();
                TwoF64::join_recip_parts(q0, column[i].get())
            },
            |i, _, l_minus| column[i].set(l_minus.value()),
        );
        if !finite {
            return Err(CoreError::NumericalOverflow {
                what: "PR allocation rate",
            });
        }
        Ok(Self {
            s,
            allocation: Allocation::from_raw(rates),
            excluding,
        })
    }

    /// The harmonic sum `S`, the PR allocation and the `L_{-i}` column.
    #[must_use]
    pub fn into_parts(self) -> (TwoF64, Allocation, Vec<f64>) {
        (self.s, self.allocation, self.excluding)
    }
}

/// All leave-one-out optima of Theorem 2.1 in **one O(n) pass**.
///
/// The payment rule (Def. 3.3) needs `L_{-i}` — the optimal latency with
/// machine `i` excluded — for *every* machine of a settle phase. Computing
/// each by rebuilding the surviving bid vector is O(n²) time and O(n²)
/// allocation; by Theorem 2.1 the whole batch follows from a single
/// harmonic sum `S = Σ_j 1/t_j`:
///
/// ```text
/// L*      = R² / S
/// L_{-i}  = R² / (S − 1/t_i)
/// L_{-i} − L* = R² · (1/t_i) / (S · (S − 1/t_i))
/// ```
///
/// Two numerical hazards are handled explicitly:
///
/// * **Residual cancellation.** When machine `i` dominates (`1/t_i ≈ S`),
///   `S − 1/t_i` cancels catastrophically in `f64`. The kernel accumulates
///   `S` as a [`TwoF64`] double-double and performs the subtraction at that
///   precision (with a direct re-sum fallback past the ~1e-18 domination
///   point), so the residual — and with it `L_{-i}` — stays accurate to
///   better than `1e-12` relative everywhere in the validated domain.
/// * **Marginal cancellation.** The truthful bonus `L_{-i} − L*` is a
///   difference of two near-equal `O(R²/S)` quantities whenever machine `i`
///   contributes little; at large `n` the subtractive form loses *all*
///   significant digits. [`Self::marginals`] therefore evaluates the third
///   closed form above, which never subtracts near-equal quantities.
///
/// ```
/// use lb_core::allocation::{optimal_latency_excluding, LeaveOneOut};
/// let bids = [1.0, 2.0, 4.0];
/// let loo = LeaveOneOut::compute(&bids, 10.0)?;
/// for i in 0..bids.len() {
///     let one_shot = optimal_latency_excluding(&bids, i, 10.0)?;
///     assert!((loo.excluding(i) - one_shot).abs() < 1e-12 * one_shot);
/// }
/// # Ok::<(), lb_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeaveOneOut {
    optimal: f64,
    excluding: Vec<f64>,
    marginals: Vec<f64>,
}

impl LeaveOneOut {
    /// Runs the batch kernel over `values` (bids inside the mechanism, true
    /// values in sensitivity analysis) at total arrival rate `r`.
    ///
    /// # Errors
    /// Returns [`CoreError::EmptySystem`] when fewer than two machines exist
    /// (removing the only machine leaves nothing to serve the load), any
    /// validation error from `values`/`r`, or
    /// [`CoreError::NumericalOverflow`] when a latency leaves the finite
    /// range.
    pub fn compute(values: &[f64], r: f64) -> Result<Self, CoreError> {
        validate_values("latency coefficient", values)?;
        Self::compute_with_sum(values, r, inv_sum_dd(values))
    }

    /// The batch kernel against a precomputed harmonic sum `s = Σ 1/values[j]`
    /// — the twin of [`pr_allocate_with_sum`]. A tree-merged [`TwoF64`] of
    /// shard partial sums works as `s`, and `inv_sum_dd(values)` reproduces
    /// [`LeaveOneOut::compute`] bit for bit. `values` must already be
    /// validated; the dominant-machine fallback inside still re-sums
    /// `values` directly when the residual `s − 1/t_i` cancels.
    ///
    /// # Errors
    /// Same contract as [`LeaveOneOut::compute`].
    fn compute_with_sum(values: &[f64], r: f64, s: TwoF64) -> Result<Self, CoreError> {
        if values.len() < 2 {
            return Err(CoreError::EmptySystem);
        }
        validate_rate(r)?;
        validate_inv_sum(s)?;
        // `(r/S)·r` delays overflow exactly like the legacy
        // `optimal_latency_linear` ordering `r · (r / inv_sum)`.
        let optimal = (TwoF64::from_f64(r) / s).mul_f64(r).value();
        if !optimal.is_finite() {
            return Err(CoreError::NumericalOverflow {
                what: "optimal latency r²/Σ(1/t_j)",
            });
        }
        let mut excluding = Vec::with_capacity(values.len());
        let mut marginals = Vec::with_capacity(values.len());
        let mut finite = true;
        let recip = |_, t| TwoF64::recip(t);
        latency_excluding_blocks(values, r, s, recip, |_, recip, l_minus_dd| {
            let l_minus = l_minus_dd.value();
            // Cancellation-free closed form: share_i = (1/t_i)/S ∈ (0, 1],
            // then marginal = L_{-i} · share_i — no subtraction of
            // near-equal O(R²/S) quantities anywhere.
            let marginal = (recip / s * l_minus_dd).value();
            finite &= l_minus.is_finite() & marginal.is_finite();
            excluding.push(l_minus);
            marginals.push(marginal);
        });
        if !finite {
            return Err(CoreError::NumericalOverflow {
                what: "leave-one-out latency r²/(S − 1/t_i)",
            });
        }
        Ok(Self {
            optimal,
            excluding,
            marginals,
        })
    }

    /// The full-system optimum `L* = R²/S`.
    #[must_use]
    pub fn optimal_latency(&self) -> f64 {
        self.optimal
    }

    /// `L_{-i}` for machine `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn excluding(&self, i: usize) -> f64 {
        self.excluding[i]
    }

    /// All `L_{-i}`, in machine order.
    #[must_use]
    pub fn all_excluding(&self) -> &[f64] {
        &self.excluding
    }

    /// The marginal contribution `L_{-i} − L*` of machine `i`, via the
    /// cancellation-free closed form.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn marginal(&self, i: usize) -> f64 {
        self.marginals[i]
    }

    /// All marginal contributions, in machine order.
    #[must_use]
    pub fn marginals(&self) -> &[f64] {
        &self.marginals
    }
}

/// Optimal total latency when machine `exclude` is removed from the system —
/// the `L_{-i}` term of the paper's bonus (Def. 3.3).
///
/// A checked shim over [`latency_excluding_dd`], the batch kernel's
/// per-machine term: `L_{-i} = R²/(S − 1/t_i)` with the subtraction done in
/// double-double and no allocation. Callers that need `L_{-i}` for *all*
/// machines should use [`LeaveOneOut::compute`] — one batch call is O(n),
/// n shim calls are O(n²).
///
/// # Errors
/// Returns [`CoreError::EmptySystem`] when fewer than two machines exist
/// (removing the only machine leaves nothing to serve the load), or any
/// validation error from the values or the rate.
pub fn optimal_latency_excluding(values: &[f64], exclude: usize, r: f64) -> Result<f64, CoreError> {
    if exclude >= values.len() {
        return Err(CoreError::LengthMismatch {
            expected: values.len(),
            actual: exclude,
        });
    }
    if values.len() < 2 {
        return Err(CoreError::EmptySystem);
    }
    validate_values("latency coefficient", values)?;
    validate_rate(r)?;
    let s = inv_sum_dd(values);
    validate_inv_sum(s)?;
    let latency = latency_excluding_dd(values, exclude, r, s).value();
    if latency.is_finite() {
        Ok(latency)
    } else {
        Err(CoreError::NumericalOverflow {
            what: "leave-one-out latency r²/(S − 1/t_i)",
        })
    }
}

/// The pre-batch `L_{-i}` implementation: clone the surviving values into a
/// fresh `Vec` and re-run [`optimal_latency_linear`] — O(n) time *and* O(n)
/// allocation per call, O(n²) for a full settle phase.
///
/// Kept (not `#[doc(hidden)]`) as the differential reference the fuzz
/// payment oracle, the equivalence property tests and the
/// `payment-scaling` experiments target judge the batch kernel against. Production code must never call
/// it in a loop.
///
/// # Errors
/// Same contract as [`optimal_latency_excluding`].
pub fn optimal_latency_excluding_legacy(
    values: &[f64],
    exclude: usize,
    r: f64,
) -> Result<f64, CoreError> {
    if exclude >= values.len() {
        return Err(CoreError::LengthMismatch {
            expected: values.len(),
            actual: exclude,
        });
    }
    if values.len() < 2 {
        return Err(CoreError::EmptySystem);
    }
    let remaining: Vec<f64> = values
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != exclude)
        .map(|(_, &v)| v)
        .collect();
    optimal_latency_linear(&remaining, r)
}

/// Total latency of an allocation under arbitrary latency functions.
///
/// # Errors
/// Returns [`CoreError::LengthMismatch`] when the arities differ.
pub fn total_latency_fn<F: LatencyFunction + ?Sized>(
    alloc: &Allocation,
    fns: &[&F],
) -> Result<f64, CoreError> {
    if alloc.len() != fns.len() {
        return Err(CoreError::LengthMismatch {
            expected: fns.len(),
            actual: alloc.len(),
        });
    }
    Ok(compensated_sum(
        alloc.rates().iter().zip(fns).map(|(&x, f)| f.total(x)),
    ))
}

/// Convenience: the optimal allocation and latency for a [`System`] when all
/// machines are truthful (classical, obedient setting).
///
/// # Errors
/// Propagates validation errors from [`pr_allocate`].
pub fn classical_optimum(system: &System, r: f64) -> Result<(Allocation, f64), CoreError> {
    let values = system.true_values();
    let alloc = pr_allocate(&values, r)?;
    let latency = total_latency_linear(&alloc, &values)?;
    Ok((alloc, latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_stats::prop;
    use lb_stats::{prop_assert, prop_assume};

    #[test]
    fn pr_on_homogeneous_system_splits_evenly() {
        let a = pr_allocate(&[2.0, 2.0, 2.0, 2.0], 8.0).unwrap();
        for &x in a.rates() {
            assert!((x - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pr_is_proportional_to_processing_rates() {
        // t = [1, 2]: machine 0 is twice as fast, gets twice the load.
        let a = pr_allocate(&[1.0, 2.0], 3.0).unwrap();
        assert!((a.rate(0) - 2.0).abs() < 1e-12);
        assert!((a.rate(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pr_single_machine_gets_everything() {
        let a = pr_allocate(&[3.0], 5.0).unwrap();
        assert_eq!(a.rates(), &[5.0]);
    }

    #[test]
    fn pr_conserves_rate() {
        let a = pr_allocate(&[1.0, 2.0, 5.0, 10.0], 20.0).unwrap();
        assert!((a.total_rate() - 20.0).abs() < 1e-9);
        assert!(a.is_feasible(20.0, 1e-9));
    }

    #[test]
    fn optimal_latency_matches_direct_evaluation() {
        let values = [1.0, 2.0, 5.0];
        let r = 7.0;
        let a = pr_allocate(&values, r).unwrap();
        let direct = total_latency_linear(&a, &values).unwrap();
        let closed = optimal_latency_linear(&values, r).unwrap();
        assert!((direct - closed).abs() < 1e-9, "{direct} vs {closed}");
    }

    #[test]
    fn paper_minimum_latency_is_reproduced() {
        // Table 1 system + R = 20 -> L* = 400/5.1 = 78.43 (paper, True1).
        let values = crate::scenario::paper_true_values();
        let l = optimal_latency_linear(&values, 20.0).unwrap();
        assert!((l - 78.431_372_549_019_6).abs() < 1e-9, "L* = {l}");
    }

    #[test]
    fn excluding_machine_raises_optimal_latency() {
        let values = [1.0, 2.0, 4.0];
        let r = 5.0;
        let all = optimal_latency_linear(&values, r).unwrap();
        for i in 0..values.len() {
            let without = optimal_latency_excluding(&values, i, r).unwrap();
            assert!(without > all, "excluding {i}: {without} <= {all}");
        }
    }

    #[test]
    fn excluding_fastest_hurts_most() {
        let values = [1.0, 2.0, 4.0];
        let r = 5.0;
        let w0 = optimal_latency_excluding(&values, 0, r).unwrap();
        let w2 = optimal_latency_excluding(&values, 2, r).unwrap();
        assert!(w0 > w2);
    }

    #[test]
    fn excluding_from_singleton_system_errors() {
        assert!(matches!(
            optimal_latency_excluding(&[1.0], 0, 2.0),
            Err(CoreError::EmptySystem)
        ));
        assert!(matches!(
            LeaveOneOut::compute(&[1.0], 2.0),
            Err(CoreError::EmptySystem)
        ));
        assert!(matches!(
            optimal_latency_excluding_legacy(&[1.0], 0, 2.0),
            Err(CoreError::EmptySystem)
        ));
    }

    #[test]
    fn excluding_out_of_range_errors() {
        assert!(optimal_latency_excluding(&[1.0, 2.0], 5, 2.0).is_err());
        assert!(optimal_latency_excluding_legacy(&[1.0, 2.0], 5, 2.0).is_err());
    }

    #[test]
    fn batch_matches_shim_legacy_and_hand_computation() {
        let values = [1.0, 2.0, 4.0];
        let r = 10.0;
        let loo = LeaveOneOut::compute(&values, r).unwrap();
        assert_eq!(loo.all_excluding().len(), 3);
        // S = 1.75 ⇒ L* = 100/1.75; S_{-0} = 0.75 ⇒ L_{-0} = 100/0.75.
        assert!((loo.optimal_latency() - 100.0 / 1.75).abs() < 1e-9);
        assert!((loo.excluding(0) - 100.0 / 0.75).abs() < 1e-9);
        for i in 0..values.len() {
            let shim = optimal_latency_excluding(&values, i, r).unwrap();
            let legacy = optimal_latency_excluding_legacy(&values, i, r).unwrap();
            assert!((loo.excluding(i) - shim).abs() < 1e-12 * shim);
            assert!((loo.excluding(i) - legacy).abs() < 1e-12 * legacy);
            let subtractive = legacy - optimal_latency_linear(&values, r).unwrap();
            assert!(
                (loo.marginal(i) - subtractive).abs() < 1e-9 * subtractive.abs().max(1.0),
                "marginal {i}: {} vs {subtractive}",
                loo.marginal(i)
            );
        }
    }

    #[test]
    fn batch_survives_a_dominant_machine() {
        // Machine 0's reciprocal carries ~1e24 times the rest of S: the f64
        // subtraction S − 1/t_0 would cancel every significant digit, and
        // even the double-double residual trips the fallback guard. The
        // batch answer must still match the legacy rebuilt sum tightly.
        let values = [1e-12, 1e12, 2e12, 4e12];
        let r = 1.0;
        let loo = LeaveOneOut::compute(&values, r).unwrap();
        for i in 0..values.len() {
            let legacy = optimal_latency_excluding_legacy(&values, i, r).unwrap();
            let rel = (loo.excluding(i) - legacy).abs() / legacy;
            assert!(rel < 1e-12, "machine {i}: rel err {rel:e}");
        }
        // The dominant machine's marginal is enormous; the slow machines'
        // marginals are minuscule — and still positive and accurate.
        assert!(loo.marginal(0) > 0.0);
        for i in 1..values.len() {
            assert!(loo.marginal(i) > 0.0, "marginal {i} not positive");
        }
    }

    /// The blocked kernel hands every machine the per-machine reference's
    /// bits: at block edges (n = 15, 16, 17, 33), with values across the
    /// whole validated domain, and with a dominant machine on the re-sum
    /// fallback at the first, block-edge and last indices.
    #[test]
    fn blocked_kernel_is_bit_identical_to_the_per_machine_reference() {
        use crate::machine::{MAX_LATENCY_PARAM, MIN_LATENCY_PARAM};
        use lb_stats::{Rng, Xoshiro256StarStar};
        let bits = |x: TwoF64| (x.hi.to_bits(), x.lo.to_bits());
        let check = |values: &[f64], r: f64| {
            validate_values("latency coefficient", values).unwrap();
            let s = inv_sum_dd(values);
            let mut next = 0;
            for_each_latency_excluding(values, r, s, |i, got| {
                assert_eq!(i, next, "machines must come in index order");
                let want = latency_excluding_dd(values, i, r, s);
                assert_eq!(bits(got), bits(want), "n = {}, machine {i}", values.len());
                next += 1;
            });
            assert_eq!(next, values.len());
            let loo = LeaveOneOut::compute(values, r).unwrap();
            for i in 0..values.len() {
                let want = latency_excluding_dd(values, i, r, s).value();
                assert_eq!(loo.excluding(i).to_bits(), want.to_bits(), "machine {i}");
            }
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(29);
        let mut draw = |lo: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    10f64
                        .powf(rng.next_range(lo, 300.0))
                        .clamp(MIN_LATENCY_PARAM, MAX_LATENCY_PARAM)
                })
                .collect()
        };
        // R ≤ 1e3 keeps every L_{-i} ≤ R²·max t finite over the domain.
        let rates = [1e-3, 1.0, 1e3];
        for (k, n) in [2usize, 15, 16, 17, 33, 1000].into_iter().enumerate() {
            let r = rates[k % rates.len()];
            check(&draw(-300.0, n), r);
            for dominant in [0, 15, 16, n - 1].into_iter().filter(|&d| d < n) {
                // The rest of S stays below 1e-18 of the dominant 1/t.
                let mut values = draw(-270.0, n);
                values[dominant] = MIN_LATENCY_PARAM;
                let s = inv_sum_dd(&values);
                let residual = s - TwoF64::recip(values[dominant]);
                assert!(residual.hi <= LOO_RESIDUAL_GUARD * s.hi, "no fallback");
                check(&values, r);
            }
        }
    }

    /// The bid side's passes against the per-machine ones, bit for bit: `S`
    /// against [`inv_sum_dd`], the rates against [`pr_allocate_with_sum`]
    /// and the column against [`latency_excluding_dd`].
    fn check_bid_columns(values: &[f64], r: f64) {
        let bits = |x: TwoF64| (x.hi.to_bits(), x.lo.to_bits());
        let columns = BidColumns::new("latency coefficient", values, r).unwrap();
        let (s, allocation, excluding) = columns.into_parts();
        let want_s = inv_sum_dd(values);
        assert_eq!(bits(s), bits(want_s), "n = {}: S", values.len());
        let want = pr_allocate_with_sum(values, r, want_s).unwrap();
        assert_eq!(allocation.len(), values.len());
        assert_eq!(excluding.len(), values.len());
        for (i, &got) in excluding.iter().enumerate() {
            assert_eq!(
                allocation.rate(i).to_bits(),
                want.rate(i).to_bits(),
                "rate {i}"
            );
            let l_minus = latency_excluding_dd(values, i, r, want_s).value();
            assert_eq!(got.to_bits(), l_minus.to_bits(), "L_-{i}");
        }
    }

    /// [`BidColumns::new`] at block edges (n = 15, 16, 17, 33), with values
    /// log-uniform over the whole validated domain, and with a dominant
    /// machine on the re-sum fallback at the first, block-edge and last
    /// indices.
    #[test]
    fn bid_columns_are_bit_identical_to_the_per_machine_passes() {
        use crate::machine::{MAX_LATENCY_PARAM, MIN_LATENCY_PARAM};
        use lb_stats::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(35);
        let mut draw = |lo: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    10f64
                        .powf(rng.next_range(lo, 300.0))
                        .clamp(MIN_LATENCY_PARAM, MAX_LATENCY_PARAM)
                })
                .collect()
        };
        // R ≤ 1e3 keeps every L_{-i} ≤ R²·max t finite over the domain.
        let rates = [1e-3, 1.0, 1e3];
        for (k, n) in [2usize, 15, 16, 17, 33, 1000].into_iter().enumerate() {
            let r = rates[k % rates.len()];
            check_bid_columns(&draw(-300.0, n), r);
            for dominant in [0, 15, 16, n - 1].into_iter().filter(|&d| d < n) {
                let mut values = draw(-270.0, n);
                values[dominant] = MIN_LATENCY_PARAM;
                let s = inv_sum_dd(&values);
                let residual = s - TwoF64::recip(values[dominant]);
                assert!(residual.hi <= LOO_RESIDUAL_GUARD * s.hi, "no fallback");
                check_bid_columns(&values, r);
            }
        }
    }

    /// [`BidColumns::new`] at 2^20 machines against the per-machine passes.
    /// Run in release: `cargo test --release -p lb-core -- --ignored
    /// bid_columns_at_scale`.
    #[test]
    #[ignore = "2^20 machines; run in release"]
    fn bid_columns_at_scale_match_the_per_machine_passes() {
        use lb_stats::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(20);
        let values: Vec<f64> = (0..1 << 20)
            .map(|_| 10f64.powf(rng.next_range(-3.0, 3.0)))
            .collect();
        check_bid_columns(&values, f64::from(1u32 << 20));
    }

    /// An invalid input fails [`BidColumns::new`] as it fails
    /// [`pr_allocate`]: the same variant and message, the value at the
    /// lowest index, values before the rate.
    #[test]
    fn bid_columns_fail_like_pr_allocate() {
        let cases: [(&[f64], f64); 7] = [
            (&[], 1.0),
            (&[1.0, f64::NAN, -1.0], 1.0),
            (&[1.0, 2.0, 1e-301, 0.0], 1.0),
            (&[1e301, 1.0], 1.0),
            (&[1.0, 2.0], 0.0),
            (&[1.0, 2.0], f64::INFINITY),
            (&[f64::INFINITY], f64::NAN),
        ];
        for (values, r) in cases {
            let got = BidColumns::new("latency coefficient", values, r).map(drop);
            let want = pr_allocate(values, r).map(drop);
            assert!(want.is_err());
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn batch_rejects_degenerate_inputs_with_typed_errors() {
        assert!(matches!(
            LeaveOneOut::compute(&[f64::MIN_POSITIVE / 2.0, 1.0], 1.0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            LeaveOneOut::compute(&[1.0, 2.0], f64::NAN),
            Err(CoreError::InvalidRate(_))
        ));
        // Overflow: r²/(S − 1/t_i) past f64::MAX answers with a typed error.
        assert!(matches!(
            LeaveOneOut::compute(&[1e250, 1e250], 1e200),
            Err(CoreError::NumericalOverflow { .. })
        ));
    }

    #[test]
    fn with_sum_entry_points_reproduce_the_plain_kernels_bitwise() {
        let values = [1.0, 2.0, 4.0, 9.5, 0.3];
        let r = 20.0;
        let s = crate::numeric::inv_sum_dd(&values);
        let plain = pr_allocate(&values, r).unwrap();
        let with_sum = pr_allocate_with_sum(&values, r, s).unwrap();
        for i in 0..values.len() {
            assert_eq!(plain.rate(i).to_bits(), with_sum.rate(i).to_bits());
        }
        let loo = LeaveOneOut::compute(&values, r).unwrap();
        let loo_sum = LeaveOneOut::compute_with_sum(&values, r, s).unwrap();
        for i in 0..values.len() {
            assert_eq!(loo.excluding(i).to_bits(), loo_sum.excluding(i).to_bits());
            assert_eq!(loo.marginal(i).to_bits(), loo_sum.marginal(i).to_bits());
        }
    }

    #[test]
    fn shard_count_is_a_no_op_for_allocations_and_payments() {
        // Pinned shard-count-invariance regression: merging per-shard TwoF64
        // harmonic partials must yield bit-identical allocations and
        // leave-one-out latencies (hence payments) for every shard count.
        // Merging post-rounded f64 partials breaks this — see the
        // `merge_inv_sums` docs for the error analysis.
        use crate::numeric::{inv_sum_dd, merge_inv_sums};
        let n: usize = 4096;
        #[allow(clippy::cast_precision_loss)]
        let values: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let r = 20.0;
        let reference_alloc = pr_allocate(&values, r).unwrap();
        let reference_loo = LeaveOneOut::compute(&values, r).unwrap();
        for k in [1usize, 2, 7, 64] {
            let chunk = n.div_ceil(k);
            let partials: Vec<_> = values.chunks(chunk).map(inv_sum_dd).collect();
            let merged = merge_inv_sums(&partials);
            let alloc = pr_allocate_with_sum(&values, r, merged).unwrap();
            let loo = LeaveOneOut::compute_with_sum(&values, r, merged).unwrap();
            for i in 0..n {
                assert_eq!(
                    alloc.rate(i).to_bits(),
                    reference_alloc.rate(i).to_bits(),
                    "k = {k}, machine {i}: rate diverged"
                );
                assert_eq!(
                    loo.excluding(i).to_bits(),
                    reference_loo.excluding(i).to_bits(),
                    "k = {k}, machine {i}: L_-i diverged"
                );
                assert_eq!(
                    loo.marginal(i).to_bits(),
                    reference_loo.marginal(i).to_bits(),
                    "k = {k}, machine {i}: marginal diverged"
                );
            }
        }
    }

    #[test]
    fn allocation_validation_rejects_bad_rates() {
        assert!(Allocation::new(vec![1.0, -0.5], 0.5).is_err());
        assert!(Allocation::new(vec![1.0, f64::NAN], 1.0).is_err());
        assert!(Allocation::new(vec![1.0, 1.0], 3.0).is_err()); // conservation
        assert!(Allocation::new(vec![], 0.0).is_err());
        assert!(Allocation::new(vec![2.0, 1.0], 3.0).is_ok());
    }

    #[test]
    fn total_latency_linear_known_value() {
        let a = Allocation::new(vec![2.0, 1.0], 3.0).unwrap();
        // L = 1*4 + 2*1 = 6.
        let l = total_latency_linear(&a, &[1.0, 2.0]).unwrap();
        assert!((l - 6.0).abs() < 1e-12);
    }

    #[test]
    fn total_latency_fn_matches_linear_path() {
        use crate::latency::Linear;
        let a = Allocation::new(vec![2.0, 1.0], 3.0).unwrap();
        let f0 = Linear::new(1.0);
        let f1 = Linear::new(2.0);
        let fns: Vec<&dyn LatencyFunction> = vec![&f0, &f1];
        let via_fn = total_latency_fn(&a, &fns).unwrap();
        let via_lin = total_latency_linear(&a, &[1.0, 2.0]).unwrap();
        assert!((via_fn - via_lin).abs() < 1e-12);
    }

    #[test]
    fn arity_mismatches_are_reported() {
        let a = Allocation::new(vec![1.0], 1.0).unwrap();
        assert!(matches!(
            total_latency_linear(&a, &[1.0, 2.0]),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn invalid_rate_is_rejected() {
        assert!(pr_allocate(&[1.0], 0.0).is_err());
        assert!(pr_allocate(&[1.0], -3.0).is_err());
        assert!(pr_allocate(&[1.0], f64::INFINITY).is_err());
        assert!(optimal_latency_linear(&[1.0], f64::NAN).is_err());
    }

    #[test]
    fn feasibility_survives_large_n_wide_spread() {
        // Regression for the `alloc` fuzz-oracle class: 10_000 machines with
        // latency parameters log-spaced over twelve orders of magnitude. The
        // PR closed form is algebraically exact, so re-validating its output
        // through `Allocation::new` must succeed — the old fixed 1e-9 window
        // over a naive sum had no n-headroom for this.
        let n = 10_000;
        #[allow(clippy::cast_precision_loss)]
        let values: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-6.0 + 12.0 * i as f64 / (n - 1) as f64))
            .collect();
        let r = 20.0;
        let a = pr_allocate(&values, r).unwrap();
        let revalidated = Allocation::new(a.rates().to_vec(), r).unwrap();
        assert!((revalidated.total_rate() - r).abs() <= feasibility_tolerance(n, r));
        // The closed form and the direct evaluation still agree tightly.
        let direct = total_latency_linear(&a, &values).unwrap();
        let closed = optimal_latency_linear(&values, r).unwrap();
        assert!(
            (direct - closed).abs() < 1e-9 * closed,
            "{direct} vs {closed}"
        );
    }

    #[test]
    fn feasibility_window_is_scale_invariant() {
        // Tiny and huge total rates get proportionally scaled windows. The
        // window scale is clamped at `|r| ≥ 1` (`feasibility_tolerance`
        // keeps sub-unit rates from collapsing it to a denormal-sized
        // band), so the probing perturbation is 0.1% of the *clamped*
        // scale — outside the window at every r, including r = 1e-6 where
        // a perturbation of `r·1e-3` would land inside the clamped band.
        for &r in &[1e-6, 1.0, 1e9] {
            let exact = pr_allocate(&[1.0, 3.0, 7.0], r).unwrap();
            assert!(
                Allocation::new(exact.rates().to_vec(), r).is_ok(),
                "exact at r={r}"
            );
            let mut off = exact.rates().to_vec();
            off[0] += r.abs().max(1.0) * 1e-3;
            assert!(Allocation::new(off, r).is_err(), "violation at r={r}");
        }
    }

    #[test]
    fn overflow_surfaces_as_typed_error_not_nan() {
        // A huge-but-valid rate against a slow machine drives r²/Σ(1/t)
        // past f64::MAX; the kernel must answer with NumericalOverflow,
        // never return inf/NaN.
        assert!(matches!(
            optimal_latency_linear(&[1e250], 1e200),
            Err(CoreError::NumericalOverflow { .. })
        ));
        // Subnormal latency parameters never reach the 1/t kernel at all:
        // they are rejected by validation with a typed error.
        assert!(matches!(
            pr_allocate(&[f64::MIN_POSITIVE / 2.0, 1.0], 1.0),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn classical_optimum_on_system() {
        let sys = System::from_true_values(&[1.0, 3.0]).unwrap();
        let (alloc, latency) = classical_optimum(&sys, 4.0).unwrap();
        assert!((alloc.rate(0) - 3.0).abs() < 1e-12);
        assert!((alloc.rate(1) - 1.0).abs() < 1e-12);
        assert!((latency - (1.0 * 9.0 + 3.0 * 1.0)).abs() < 1e-12);
    }

    /// PR allocations are always feasible.
    #[test]
    fn prop_pr_is_feasible() {
        prop::check(
            "prop_pr_is_feasible",
            256,
            (prop::vec(0.01f64..100.0, 1..32), 0.01f64..1e4),
            |(values, r)| {
                let a = pr_allocate(&values, r).unwrap();
                prop_assert!(a.is_feasible(r, 1e-6));
                Ok(())
            },
        );
    }

    /// PR matches the closed-form optimum and no feasible perturbation
    /// improves on it (local optimality certificate of Theorem 2.1).
    #[test]
    fn prop_pr_is_unimprovable() {
        prop::check(
            "prop_pr_is_unimprovable",
            256,
            (
                prop::vec(0.05f64..20.0, 2..12),
                0.1f64..100.0,
                0usize..12,
                0usize..12,
                0.01f64..0.5,
            ),
            |(values, r, from, to, frac)| {
                let n = values.len();
                let from = from % n;
                let to = to % n;
                prop_assume!(from != to);
                let a = pr_allocate(&values, r).unwrap();
                let base = total_latency_linear(&a, &values).unwrap();

                // Move a fraction of machine `from`'s load to machine `to`.
                let delta = a.rate(from) * frac;
                let mut rates = a.rates().to_vec();
                rates[from] -= delta;
                rates[to] += delta;
                let perturbed = Allocation::from_raw(rates);
                let worse = total_latency_linear(&perturbed, &values).unwrap();
                prop_assert!(
                    worse >= base - 1e-9 * base.abs().max(1.0),
                    "perturbation improved latency: {} < {}",
                    worse,
                    base
                );
                Ok(())
            },
        );
    }

    /// The closed-form optimum equals the PR allocation's latency.
    #[test]
    fn prop_closed_form_consistency() {
        prop::check(
            "prop_closed_form_consistency",
            256,
            (prop::vec(0.05f64..20.0, 1..16), 0.1f64..100.0),
            |(values, r)| {
                let a = pr_allocate(&values, r).unwrap();
                let direct = total_latency_linear(&a, &values).unwrap();
                let closed = optimal_latency_linear(&values, r).unwrap();
                prop_assert!((direct - closed).abs() < 1e-7 * closed.max(1.0));
                Ok(())
            },
        );
    }

    /// Scaling all true values leaves the PR allocation unchanged
    /// (only relative speeds matter).
    #[test]
    fn prop_pr_scale_invariance() {
        prop::check(
            "prop_pr_scale_invariance",
            256,
            (prop::vec(0.05f64..20.0, 1..16), 0.1f64..100.0, 0.1f64..10.0),
            |(values, r, scale)| {
                let a = pr_allocate(&values, r).unwrap();
                let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
                let b = pr_allocate(&scaled, r).unwrap();
                for (x, y) in a.rates().iter().zip(b.rates()) {
                    prop_assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
                }
                Ok(())
            },
        );
    }
}
