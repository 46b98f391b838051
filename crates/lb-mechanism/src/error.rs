//! Error types for the mechanism layer.

use lb_core::CoreError;
use std::fmt;

/// Errors produced while running a mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// A problem-model error (invalid bids, rates, allocations, …).
    Core(CoreError),
    /// The mechanism needs at least two agents (the bonus term `L_{-i}` is
    /// undefined when removing the only machine).
    NeedTwoAgents,
    /// An execution value was below the corresponding true value — agents can
    /// execute slower than their capability, never faster (Def. 3.1).
    ExecutionFasterThanTruth {
        /// Offending agent index.
        agent: usize,
        /// Reported true value.
        true_value: f64,
        /// Claimed execution value.
        exec_value: f64,
    },
    /// A quadrature routine failed to converge.
    QuadratureFailed {
        /// Residual error estimate at exit.
        estimate: f64,
    },
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "{e}"),
            Self::NeedTwoAgents => {
                write!(f, "mechanism with verification requires at least two agents")
            }
            Self::ExecutionFasterThanTruth { agent, true_value, exec_value } => write!(
                f,
                "agent {agent}: execution value {exec_value} below true value {true_value} (machines cannot run faster than capacity)"
            ),
            Self::QuadratureFailed { estimate } => {
                write!(f, "payment quadrature failed to converge (error estimate {estimate:e})")
            }
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for MechanismError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

/// Checks that a settle's allocation and execution values have one entry
/// per bid, reporting the length of the column that differs.
pub(crate) fn check_arity(bids: usize, rates: usize, exec: usize) -> Result<(), MechanismError> {
    match [rates, exec].into_iter().find(|&len| len != bids) {
        Some(actual) => Err(CoreError::LengthMismatch {
            expected: bids,
            actual,
        }
        .into()),
        None => Ok(()),
    }
}

/// `x` itself, or [`CoreError::NumericalOverflow`] naming `what` if `x` is
/// not finite.
pub(crate) fn finite(x: f64, what: &'static str) -> Result<f64, MechanismError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(CoreError::NumericalOverflow { what }.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MechanismError::from(CoreError::EmptySystem);
        assert!(e.to_string().contains("machine"));
        assert!(std::error::Error::source(&e).is_some());

        let e = MechanismError::ExecutionFasterThanTruth {
            agent: 3,
            true_value: 2.0,
            exec_value: 1.0,
        };
        assert!(e.to_string().contains("agent 3"));
        assert!(std::error::Error::source(&e).is_none());

        assert!(MechanismError::NeedTwoAgents.to_string().contains("two"));
    }
}
