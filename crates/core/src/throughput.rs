//! Maximum-throughput and utilization-target searches (Theorem 2, §6).
//!
//! An algorithm's maximum throughput on a particular tree is the largest
//! arrival rate at which every level's lock queue still has a stable
//! operating point (Theorem 2: for lock-coupling the binding constraint is
//! the root, `ρ_w(h) → 1`). The §6 rules of thumb instead target the
//! *effective* maximum — the rate at which the root's writer utilization
//! reaches 0.5, beyond which waiting grows disproportionately.

use crate::{AnalysisError, Model, Result};

/// Relative tolerance of the throughput bisection.
const REL_TOL: f64 = 1e-9;
/// Hard cap on the exponential search. The Link-type algorithm saturates
/// only at astronomically high rates; anything beyond this is reported as
/// this cap rather than searched further.
pub const LAMBDA_CAP: f64 = 1e9;

fn is_stable(model: &Model, lambda: f64) -> Result<bool> {
    match model.evaluate(lambda) {
        Ok(_) => Ok(true),
        Err(e) if e.is_saturated() => Ok(false),
        Err(e) => Err(e),
    }
}

/// Finds the maximum sustainable arrival rate by exponential search for a
/// saturation bracket followed by bisection.
///
/// Returns [`LAMBDA_CAP`] when the model is still stable there (the
/// Link-type "no effective maximum" case).
pub fn max_throughput(model: &Model) -> Result<f64> {
    let mut lo = 0.0_f64;
    let mut hi = 1e-3_f64;
    while is_stable(model, hi)? {
        lo = hi;
        hi *= 2.0;
        if hi >= LAMBDA_CAP {
            return Ok(LAMBDA_CAP);
        }
    }
    // Invariant: stable at lo, saturated at hi.
    while hi - lo > REL_TOL * hi {
        let mid = 0.5 * (lo + hi);
        if is_stable(model, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Finds the arrival rate at which the **root** writer utilization equals
/// `target_rho` (the §6 effective-maximum definition uses 0.5).
///
/// The root utilization is monotone in the arrival rate, so this is a
/// bisection between zero and the saturation point. Errors with
/// [`AnalysisError::InvalidParameter`] if the target is not reached before
/// some level saturates (possible for the Link-type algorithm, whose
/// bottleneck need not be the root).
pub fn lambda_at_root_rho(model: &Model, target_rho: f64) -> Result<f64> {
    if !(0.0..1.0).contains(&target_rho) {
        return Err(AnalysisError::InvalidParameter {
            name: "target_rho",
            constraint: "must be in [0, 1)",
        });
    }
    let max = max_throughput(model)?;
    let mut lo = 0.0_f64;
    let mut hi = max * (1.0 - 1e-7);
    let rho_at =
        |lambda: f64| -> Result<f64> { Ok(model.evaluate(lambda)?.root_writer_utilization()) };
    let rho_hi = match rho_at(hi) {
        Ok(r) => r,
        // The last stable point may sit so close to the edge that
        // re-evaluation saturates; treat as utilization 1.
        Err(e) if e.is_saturated() => 1.0,
        Err(e) => return Err(e),
    };
    if rho_hi < target_rho {
        return Err(AnalysisError::InvalidParameter {
            name: "target_rho",
            constraint: "root utilization never reaches the target before another \
                         level saturates",
        });
    }
    for _ in 0..200 {
        if hi - lo <= REL_TOL * (1.0 + hi) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let rho = match rho_at(mid) {
            Ok(r) => r,
            Err(e) if e.is_saturated() => 1.0,
            Err(e) => return Err(e),
        };
        if rho < target_rho {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, Protocol};

    fn naive() -> Model {
        Model::new(Protocol::LockCoupling, &ModelConfig::paper_base())
    }

    #[test]
    fn max_throughput_brackets_stability() {
        let m = naive();
        let max = max_throughput(&m).unwrap();
        assert!(max > 0.0);
        assert!(
            m.evaluate(max * 0.999).is_ok(),
            "just below max must be stable"
        );
        assert!(
            m.evaluate(max * 1.01).unwrap_err().is_saturated(),
            "just above max must saturate"
        );
    }

    #[test]
    fn rho_target_bisection_hits_target() {
        let m = naive();
        let lam = lambda_at_root_rho(&m, 0.5).unwrap();
        let rho = m.evaluate(lam).unwrap().root_writer_utilization();
        assert!((rho - 0.5).abs() < 1e-4, "rho at solution = {rho}");
    }

    #[test]
    fn rho_targets_are_ordered() {
        let m = naive();
        let l25 = lambda_at_root_rho(&m, 0.25).unwrap();
        let l50 = lambda_at_root_rho(&m, 0.5).unwrap();
        let l75 = lambda_at_root_rho(&m, 0.75).unwrap();
        assert!(l25 < l50 && l50 < l75);
        assert!(l75 < max_throughput(&m).unwrap());
    }

    #[test]
    fn invalid_target_rejected() {
        let m = naive();
        assert!(lambda_at_root_rho(&m, 1.0).is_err());
        assert!(lambda_at_root_rho(&m, -0.1).is_err());
    }
}
