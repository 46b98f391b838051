//! Machines and systems of machines.
//!
//! A [`Machine`] carries its *true value* `t_i` — the paper's private
//! parameter, inversely proportional to the machine's processing rate (small
//! `t` = fast computer). A [`System`] is an ordered collection of machines
//! and is the unit every allocation and mechanism API operates on.

use crate::error::CoreError;
use std::fmt;

/// Stable identifier of a machine within a [`System`] (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    /// Renders machine ids in the paper's "C1..C16" style (1-based).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0 + 1)
    }
}

/// A computer in the distributed system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Identity (index within the system).
    pub id: MachineId,
    /// The private parameter `t_i` of the linear latency function
    /// `l_i(x) = t_i · x`; inversely proportional to the processing rate.
    pub true_value: f64,
}

impl Machine {
    /// Creates a machine after validating its true value.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] unless `true_value` is finite
    /// and strictly positive.
    pub fn new(id: MachineId, true_value: f64) -> Result<Self, CoreError> {
        validate_positive("true value", true_value)?;
        Ok(Self { id, true_value })
    }
}

/// Smallest admissible latency parameter.
///
/// Chosen so that `1/t` is always a *normal* finite `f64`: a subnormal `t`
/// (e.g. `1e-308`) would make `1/t` infinite and silently poison every
/// allocation and `L_{-i}` bonus term downstream with `inf`/NaN. `1e-300`
/// leaves eight orders of magnitude of guard band above the subnormal
/// threshold while being far below any physical latency coefficient.
pub const MIN_LATENCY_PARAM: f64 = 1e-300;

/// Largest admissible latency parameter, the mirror bound of
/// [`MIN_LATENCY_PARAM`]: keeps `1/t` a normal `f64` (never subnormal/zero),
/// so products and quotients of validated parameters stay well-conditioned.
pub const MAX_LATENCY_PARAM: f64 = 1e300;

/// Validates that a latency parameter is finite, strictly positive and
/// within `[MIN_LATENCY_PARAM, MAX_LATENCY_PARAM]`.
///
/// The range bounds guarantee that `1/value` can never overflow to infinity
/// or collapse to zero — the root cause of NaN-poisoned allocations from
/// degenerate (subnormal) bids.
///
/// # Errors
/// Returns [`CoreError::InvalidParameter`] otherwise.
pub(crate) fn validate_positive(name: &'static str, value: f64) -> Result<(), CoreError> {
    if value.is_finite() && (MIN_LATENCY_PARAM..=MAX_LATENCY_PARAM).contains(&value) {
        Ok(())
    } else {
        Err(CoreError::InvalidParameter { name, value })
    }
}

/// Validates a full vector of latency parameters (bids, execution values…).
///
/// # Errors
/// Returns [`CoreError::EmptySystem`] for an empty slice or
/// [`CoreError::InvalidParameter`] for any non-positive/non-finite entry.
pub fn validate_values(name: &'static str, values: &[f64]) -> Result<(), CoreError> {
    if values.is_empty() {
        return Err(CoreError::EmptySystem);
    }
    for &v in values {
        validate_positive(name, v)?;
    }
    Ok(())
}

/// An ordered collection of machines — the distributed system under study.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    machines: Vec<Machine>,
}

impl System {
    /// Builds a system from per-machine true values.
    ///
    /// # Errors
    /// Returns [`CoreError::EmptySystem`] for an empty list,
    /// [`CoreError::InvalidParameter`] for any invalid true value, or
    /// [`CoreError::SystemTooLarge`] past `u32::MAX` machines.
    pub fn from_true_values(true_values: &[f64]) -> Result<Self, CoreError> {
        if true_values.is_empty() {
            return Err(CoreError::EmptySystem);
        }
        let machines = true_values
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let id = u32::try_from(i).map_err(|_| CoreError::SystemTooLarge {
                    requested: true_values.len(),
                })?;
                Machine::new(MachineId(id), t)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { machines })
    }

    /// Number of machines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the system is empty (never true for a constructed system).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machines, in id order.
    #[must_use]
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// The vector of true values `t_i`, in id order.
    #[must_use]
    pub fn true_values(&self) -> Vec<f64> {
        self.machines.iter().map(|m| m.true_value).collect()
    }

    /// Machine lookup by id.
    #[must_use]
    pub fn get(&self, id: MachineId) -> Option<&Machine> {
        self.machines.get(id.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_validation() {
        assert!(Machine::new(MachineId(0), 2.0).is_ok());
        assert!(matches!(
            Machine::new(MachineId(0), 0.0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(Machine::new(MachineId(0), -1.0).is_err());
        assert!(Machine::new(MachineId(0), f64::NAN).is_err());
        assert!(Machine::new(MachineId(0), f64::INFINITY).is_err());
    }

    #[test]
    fn degenerate_magnitudes_are_rejected() {
        // Regression for the `payment` fuzz-oracle class: a subnormal true
        // value made 1/t infinite and NaN-poisoned the bonus term. The
        // validated range keeps every reciprocal a normal finite f64.
        assert!(Machine::new(MachineId(0), f64::MIN_POSITIVE / 4.0).is_err());
        assert!(Machine::new(MachineId(0), 1e-308).is_err());
        assert!(Machine::new(MachineId(0), 1e301).is_err());
        assert!(Machine::new(MachineId(0), MIN_LATENCY_PARAM).is_ok());
        assert!(Machine::new(MachineId(0), MAX_LATENCY_PARAM).is_ok());
        let fast = Machine::new(MachineId(0), MIN_LATENCY_PARAM).unwrap();
        let slow = Machine::new(MachineId(1), MAX_LATENCY_PARAM).unwrap();
        assert!((1.0 / fast.true_value).is_finite());
        assert!(1.0 / slow.true_value > 0.0);
        assert!((1.0 / slow.true_value).is_normal());
    }

    #[test]
    fn machine_id_displays_one_based() {
        assert_eq!(MachineId(0).to_string(), "C1");
        assert_eq!(MachineId(15).to_string(), "C16");
    }

    #[test]
    fn system_construction_and_accessors() {
        let sys = System::from_true_values(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(sys.len(), 3);
        assert!(!sys.is_empty());
        assert_eq!(sys.true_values(), vec![1.0, 2.0, 4.0]);
        assert_eq!(sys.get(MachineId(1)).unwrap().true_value, 2.0);
        assert!(sys.get(MachineId(9)).is_none());
    }

    #[test]
    fn system_rejects_empty_and_invalid() {
        assert!(matches!(
            System::from_true_values(&[]),
            Err(CoreError::EmptySystem)
        ));
        assert!(System::from_true_values(&[1.0, -2.0]).is_err());
    }

    #[test]
    fn validate_values_covers_all_entries() {
        assert!(validate_values("bid", &[1.0, 2.0]).is_ok());
        assert!(validate_values("bid", &[]).is_err());
        assert!(validate_values("bid", &[1.0, f64::NAN]).is_err());
    }
}
