//! Simulator error type.

use std::fmt;

/// Errors raised by a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The number of concurrent in-flight operations exceeded the
    /// configured bound — the simulator's signal that the arrival rate is
    /// not sustainable (the paper's simulator "crashes" in this case).
    Exploded {
        /// The bound that was exceeded.
        max_concurrent: usize,
        /// Simulated time at which the bound was hit.
        at_time: f64,
        /// Operations completed before the explosion.
        completed: usize,
    },
    /// The simulated tree broke a structural invariant: a protocol bug in
    /// the simulator, never a property of the workload.
    Corrupted {
        /// Simulated time at which it was found.
        at_time: f64,
        /// What was found.
        detail: String,
    },
    /// A configuration parameter was outside its domain.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exploded {
                max_concurrent,
                at_time,
                completed,
            } => write!(
                f,
                "simulation exceeded {max_concurrent} concurrent operations at t={at_time:.1} \
                 ({completed} ops completed) — arrival rate unsustainable"
            ),
            SimError::Corrupted { at_time, detail } => {
                write!(f, "simulated tree corrupted at t={at_time:.1}: {detail}")
            }
            SimError::InvalidConfig { name, constraint } => {
                write!(f, "invalid simulator config `{name}`: {constraint}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Whether this error indicates an unsustainable arrival rate.
    pub fn is_overload(&self) -> bool {
        matches!(self, SimError::Exploded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_predicates() {
        let e = SimError::Exploded {
            max_concurrent: 100,
            at_time: 5.0,
            completed: 42,
        };
        assert!(e.is_overload());
        assert!(e.to_string().contains("100"));
        let c = SimError::InvalidConfig {
            name: "rate",
            constraint: "positive",
        };
        assert!(!c.is_overload());
        assert!(c.to_string().contains("rate"));
        let t = SimError::Corrupted {
            at_time: 1.0,
            detail: "key 7 in node 3".into(),
        };
        assert!(!t.is_overload());
        assert!(t.to_string().contains("key 7"));
    }
}
