//! Canned system configurations, including the paper's Table 1 testbed.
//!
//! The IPPS 2003 evaluation uses a 16-computer heterogeneous system; the
//! published table is OCR-damaged in available copies, but the constants are
//! recoverable analytically (see `DESIGN.md`): with true values
//! `t = 1 (C1–C2), 2 (C3–C5), 5 (C6–C10), 10 (C11–C16)` and `R = 20` jobs/s,
//! `Σ 1/t_i = 5.1` and the optimal latency is `400/5.1 = 78.43` — exactly the
//! value the paper reports for experiment True1 — and the Low1/Low2
//! degradations (+11%, +66%) also match exactly.

use crate::machine::System;

/// The paper's job arrival rate, `R = 20` jobs/s (Sec. 4).
pub const PAPER_ARRIVAL_RATE: f64 = 20.0;

/// Index of the strategic computer C1 in the paper's experiments.
pub const PAPER_STRATEGIC_MACHINE: usize = 0;

/// True values of the paper's Table 1 system, in machine order C1..C16.
#[must_use]
pub fn paper_true_values() -> Vec<f64> {
    let mut v = Vec::with_capacity(16);
    v.extend(std::iter::repeat_n(1.0, 2)); // C1 - C2
    v.extend(std::iter::repeat_n(2.0, 3)); // C3 - C5
    v.extend(std::iter::repeat_n(5.0, 5)); // C6 - C10
    v.extend(std::iter::repeat_n(10.0, 6)); // C11 - C16
    v
}

/// The paper's Table 1 system as a [`System`].
#[must_use]
pub fn paper_system() -> System {
    System::from_true_values(&paper_true_values()).expect("paper system constants are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_has_sixteen_machines() {
        let sys = paper_system();
        assert_eq!(sys.len(), 16);
    }

    #[test]
    fn paper_system_group_structure() {
        let v = paper_true_values();
        assert_eq!(&v[0..2], &[1.0, 1.0]);
        assert_eq!(&v[2..5], &[2.0, 2.0, 2.0]);
        assert_eq!(&v[5..10], &[5.0; 5]);
        assert_eq!(&v[10..16], &[10.0; 6]);
    }

    #[test]
    fn paper_system_inverse_sum_is_5_1() {
        let rates = paper_system().true_values().into_iter().map(|t| 1.0 / t);
        assert!((crate::numeric::compensated_sum(rates) - 5.1).abs() < 1e-12);
    }
}
