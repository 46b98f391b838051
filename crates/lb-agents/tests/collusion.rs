//! Coalition (collusion) analysis.
//!
//! Theorem 3.1 is about *unilateral* deviations. Compensation-and-bonus
//! payments — like all VCG-flavoured schemes — are **not** group-strategy-
//! proof: one machine's inflated bid raises every other machine's `L_{-j}`
//! benchmark, so a pair can coordinate (one takes a small hit, the partner's
//! bonus rises more) and split the joint gain through a side payment. This
//! module searches for the best pair deviation and quantifies the coalition
//! gain — an honest boundary of the paper's guarantee that single-agent
//! scans cannot see. The search has no user outside these tests, so it
//! lives here with them.

use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
use lb_mechanism::{
    run_mechanism, CompensationBonusMechanism, MechanismError, Profile, VerifiedMechanism,
};

/// Result of a two-machine coalition search.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoalitionReport {
    /// The two colluding machines.
    pair: (usize, usize),
    /// Joint utility when both play truthfully.
    truthful_joint_utility: f64,
    /// Best joint utility found over the deviation grid.
    best_joint_utility: f64,
    /// Bid factors achieving the best joint utility.
    best_factors: (f64, f64),
}

impl CoalitionReport {
    /// Joint gain from colluding (`> 0` means the mechanism is manipulable
    /// by this pair with side payments).
    #[must_use]
    fn gain(&self) -> f64 {
        self.best_joint_utility - self.truthful_joint_utility
    }
}

/// Searches bid-factor deviations for machines `a` and `b` (executing at
/// full capacity, so only the reporting dimension colludes) and reports the
/// best *joint* utility, with everyone else truthful.
///
/// # Errors
/// Propagates mechanism errors.
///
/// # Panics
/// Panics if `a == b` or either index is out of range.
fn coalition_search<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    true_values: &[f64],
    total_rate: f64,
    a: usize,
    b: usize,
    factors: &[f64],
) -> Result<CoalitionReport, MechanismError> {
    assert!(a != b, "coalition_search: need two distinct machines");
    assert!(
        a < true_values.len() && b < true_values.len(),
        "coalition_search: index out of range"
    );

    let joint = |fa: f64, fb: f64| -> Result<f64, MechanismError> {
        let mut bids = true_values.to_vec();
        bids[a] *= fa;
        bids[b] *= fb;
        let profile = Profile::new(true_values.to_vec(), bids, true_values.to_vec(), total_rate)?;
        let out = run_mechanism(mechanism, &profile)?;
        Ok(out.utilities[a] + out.utilities[b])
    };

    let truthful_joint_utility = joint(1.0, 1.0)?;
    let mut best = (truthful_joint_utility, (1.0, 1.0));
    for &fa in factors {
        for &fb in factors {
            let u = joint(fa, fb)?;
            if u > best.0 {
                best = (u, (fa, fb));
            }
        }
    }
    Ok(CoalitionReport {
        pair: (a, b),
        truthful_joint_utility,
        best_joint_utility: best.0,
        best_factors: best.1,
    })
}

fn factors() -> Vec<f64> {
    vec![0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0]
}

#[test]
fn pairs_can_profitably_collude() {
    // The documented boundary: compensation-and-bonus is not group
    // strategyproof. A fast pair on the paper system can gain jointly by
    // coordinated over-bidding (each raises the other's L_{-j} benchmark).
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let report = coalition_search(
        &mech,
        &sys.true_values(),
        PAPER_ARRIVAL_RATE,
        0,
        1,
        &factors(),
    )
    .unwrap();
    assert!(
        report.gain() > 0.0,
        "expected a profitable coalition, gain {}",
        report.gain()
    );
    // The profitable direction is upward misreporting.
    assert!(report.best_factors.0 > 1.0 || report.best_factors.1 > 1.0);
}

#[test]
fn coalition_gain_is_jointly_real_but_unilaterally_absent() {
    // Precise decomposition of the collusion: each member's *unilateral*
    // deviation (partner truthful) cannot gain — that is Theorem 3.1 —
    // yet the *joint* deviation gains for both members simultaneously,
    // because each member's inflated bid raises the other's L_{-j}
    // benchmark. This strict complementarity is the signature of
    // VCG-style non-group-strategyproofness.
    let sys = paper_system();
    let trues = sys.true_values();
    let mech = CompensationBonusMechanism::paper();
    let report = coalition_search(&mech, &trues, PAPER_ARRIVAL_RATE, 0, 1, &factors()).unwrap();
    let (fa, fb) = report.best_factors;

    let evaluate = |f0: f64, f1: f64| {
        let mut bids = trues.clone();
        bids[0] *= f0;
        bids[1] *= f1;
        let profile = Profile::new(trues.clone(), bids, trues.clone(), PAPER_ARRIVAL_RATE).unwrap();
        run_mechanism(&mech, &profile).unwrap().utilities
    };

    let truthful = evaluate(1.0, 1.0);
    // Unilateral deviations do not gain (Theorem 3.1).
    let solo0 = evaluate(fa, 1.0);
    let solo1 = evaluate(1.0, fb);
    assert!(solo0[0] <= truthful[0] + 1e-9, "unilateral gain for 0");
    assert!(solo1[1] <= truthful[1] + 1e-9, "unilateral gain for 1");

    // The joint deviation gains — here even for both members at once,
    // so no side payment is needed to sustain the cartel.
    let joint = evaluate(fa, fb);
    let gain0 = joint[0] - truthful[0];
    let gain1 = joint[1] - truthful[1];
    assert!((gain0 + gain1 - report.gain()).abs() < 1e-9);
    assert!(report.gain() > 0.0);
    // And the collusion damages the system: total latency exceeds L*.
    let mut bids = trues.clone();
    bids[0] *= fa;
    bids[1] *= fb;
    let out = run_mechanism(
        &mech,
        &Profile::new(trues.clone(), bids, trues.clone(), PAPER_ARRIVAL_RATE).unwrap(),
    )
    .unwrap();
    let optimal = lb_core::optimal_latency_linear(&trues, PAPER_ARRIVAL_RATE).unwrap();
    assert!(out.total_latency > optimal + 1e-9);
}

#[test]
fn singleton_grid_returns_truthful_baseline() {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let report =
        coalition_search(&mech, &sys.true_values(), PAPER_ARRIVAL_RATE, 3, 9, &[1.0]).unwrap();
    assert_eq!(report.gain(), 0.0);
    assert_eq!(report.best_factors, (1.0, 1.0));
}

#[test]
#[should_panic(expected = "two distinct machines")]
fn same_machine_panics() {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let _ = coalition_search(&mech, &sys.true_values(), PAPER_ARRIVAL_RATE, 1, 1, &[1.0]);
}
