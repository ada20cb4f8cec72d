//! The shared per-level lock-queue solver and the performance report types.
//!
//! Every algorithm model reduces each tree level to the same computation:
//!
//! 1. split the level's arrivals into reader (shared) and writer
//!    (exclusive) classes,
//! 2. describe the *exclusive* part of a writer's aggregate service as a
//!    staged (hyperexponential) distribution whose always-taken first stage
//!    absorbs the reader-burst wait (Theorem 3's `t_e`),
//! 3. solve the Theorem 6 fixed point for the writer utilization `ρ_w`,
//! 4. read off the lock waits: `R(i)` from the M/G/1
//!    (Pollaczek–Khinchine) formula over aggregate customers, and
//!    `W(i) = R(i) + ρ_w·r_u + (1−ρ_w)·r_e`.
//!
//! The leaf level (Theorem 4) is the degenerate case where the entire
//! aggregate service is modeled by a *single* exponential stage, which
//! makes the M/G/1 wait collapse to the M/M/1 form `ρ·T_a/(1−ρ)`.

use crate::{AnalysisError, Result};
use cbtree_queueing::rw::reader_bursts;
use cbtree_queueing::solve::{first_root, DEFAULT_TOL};
use cbtree_queueing::stages::StagedService;

/// Solved state of one level's lock queue.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSolution {
    /// Level number (1 = leaves).
    pub level: usize,
    /// Reader (shared-lock) arrival rate at this level.
    pub lambda_r: f64,
    /// Writer (exclusive-lock) arrival rate at this level.
    pub lambda_w: f64,
    /// Writer utilization `ρ_w(i)` — probability a writer is queued.
    pub rho_w: f64,
    /// Reader-burst wait when another writer was queued, `r_u(i)`.
    pub r_u: f64,
    /// Reader-burst wait when the queue had no writer, `r_e(i)`.
    pub r_e: f64,
    /// Combined reader-burst wait `ρ_w·r_u + (1−ρ_w)·r_e`.
    pub burst: f64,
    /// Mean aggregate-customer service time `T_a(i)`.
    pub t_agg: f64,
    /// Expected time to obtain a shared lock, `R(i)`.
    pub r_wait: f64,
    /// Expected time to obtain an exclusive lock, `W(i)`.
    pub w_wait: f64,
}

impl LevelSolution {
    /// A level with no writers (and hence no lock waiting at all): pure
    /// reader traffic shares the lock freely.
    pub fn reader_only(level: usize, lambda_r: f64, mu_r: f64) -> Self {
        let (r_u, r_e) = reader_bursts(lambda_r, 0.0, mu_r, 0.0);
        LevelSolution {
            level,
            lambda_r,
            lambda_w: 0.0,
            rho_w: 0.0,
            r_u,
            r_e,
            burst: r_e,
            t_agg: 0.0,
            r_wait: 0.0,
            w_wait: r_e,
        }
    }
}

/// Solves one level's queue.
///
/// `make_exclusive(burst)` must return the staged service distribution of
/// a writer's aggregate customer *including* the reader burst (fold the
/// burst into the mean of the always-taken stage, as Theorem 3's `t_e`
/// does). The solver finds `ρ_w` such that
/// `ρ_w = λ_w · make_exclusive(burst(ρ_w)).mean()` with the Theorem 6
/// reader bursts, then computes the waits.
pub fn solve_level(
    level: usize,
    lambda_r: f64,
    lambda_w: f64,
    mu_r: f64,
    lambda_total: f64,
    make_exclusive: impl Fn(f64) -> StagedService,
) -> Result<LevelSolution> {
    if lambda_w <= 0.0 {
        return Ok(LevelSolution::reader_only(level, lambda_r, mu_r));
    }

    let burst_at = |rho: f64| -> f64 {
        let (r_u, r_e) = reader_bursts(lambda_r, lambda_w, mu_r, rho);
        rho * r_u + (1.0 - rho) * r_e
    };
    let g = |rho: f64| lambda_w * make_exclusive(burst_at(rho)).mean() - rho;

    const UPPER: f64 = 1.0 - 1e-9;
    let rho_w = first_root(0.0, UPPER, 512, DEFAULT_TOL, g).ok_or(AnalysisError::Saturated {
        level,
        lambda: lambda_total,
    })?;

    let (r_u, r_e) = reader_bursts(lambda_r, lambda_w, mu_r, rho_w);
    let burst = rho_w * r_u + (1.0 - rho_w) * r_e;
    let agg = make_exclusive(burst);
    let t_agg = agg.mean();
    // Pollaczek–Khinchine over aggregate customers (paper Theorem 3 proof):
    // R(i) = λ_w · x̄² / (2·(1−ρ_w)).
    let r_wait = lambda_w * agg.second_moment() / (2.0 * (1.0 - rho_w));
    let w_wait = r_wait + burst;

    Ok(LevelSolution {
        level,
        lambda_r,
        lambda_w,
        rho_w,
        r_u,
        r_e,
        burst,
        t_agg,
        r_wait,
        w_wait,
    })
}

/// Full performance report for one algorithm at one arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Performance {
    /// Total arrival rate the model was evaluated at.
    pub lambda: f64,
    /// Expected response time of a search operation, `Per(S)`.
    pub response_time_search: f64,
    /// Expected response time of an insert operation, `Per(I)`.
    pub response_time_insert: f64,
    /// Expected response time of a delete operation, `Per(D)`.
    pub response_time_delete: f64,
    /// Per-level queue solutions, leaves first (`levels[0]` is level 1).
    pub levels: Vec<LevelSolution>,
}

impl Performance {
    /// Writer utilization at the root, `ρ_w(h)` — the bottleneck metric of
    /// Theorem 2 and Figure 10.
    pub fn root_writer_utilization(&self) -> f64 {
        self.levels.last().map_or(0.0, |l| l.rho_w)
    }

    /// The level solution for a 1-based level.
    pub fn level(&self, level: usize) -> &LevelSolution {
        &self.levels[level - 1]
    }

    /// Mix-weighted mean response time.
    pub fn mean_response_time(&self, q_search: f64, q_insert: f64, q_delete: f64) -> f64 {
        q_search * self.response_time_search
            + q_insert * self.response_time_insert
            + q_delete * self.response_time_delete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_queueing::stages::Mixture;

    /// With a single always-stage the level solver must reproduce the
    /// Theorem 4 / M/M/1 closed form.
    #[test]
    fn leaf_case_collapses_to_mm1() {
        let (lambda_w, base) = (0.05, 4.0);
        // no readers: burst = 0, T_a = base, rho = lambda_w * base
        let sol = solve_level(1, 0.0, lambda_w, 1.0, 1.0, |burst| {
            StagedService::new().with_stage(Mixture::always(base + burst))
        })
        .unwrap();
        let rho = lambda_w * base;
        assert!((sol.rho_w - rho).abs() < 1e-9);
        let expect_r = rho * base / (1.0 - rho);
        assert!(
            (sol.r_wait - expect_r).abs() < 1e-8,
            "{} vs {expect_r}",
            sol.r_wait
        );
        assert!((sol.w_wait - sol.r_wait).abs() < 1e-12, "no readers: W = R");
    }

    #[test]
    fn reader_only_level_has_no_waits() {
        let sol = solve_level(3, 2.0, 0.0, 1.0, 5.0, |_| {
            StagedService::new().with_stage(Mixture::always(1.0))
        })
        .unwrap();
        assert_eq!(sol.rho_w, 0.0);
        assert_eq!(sol.r_wait, 0.0);
    }

    #[test]
    fn saturation_reported_with_level() {
        let err = solve_level(4, 0.0, 2.0, 1.0, 9.0, |_| {
            StagedService::new().with_stage(Mixture::always(1.0))
        })
        .unwrap_err();
        match err {
            AnalysisError::Saturated { level, lambda } => {
                assert_eq!(level, 4);
                assert_eq!(lambda, 9.0);
            }
            other => panic!("expected saturation, got {other}"),
        }
    }

    #[test]
    fn readers_increase_both_waits() {
        let base = 2.0;
        let mk = |burst: f64| StagedService::new().with_stage(Mixture::always(base + burst));
        let quiet = solve_level(2, 0.0, 0.1, 1.0, 1.0, mk).unwrap();
        let busy = solve_level(2, 1.0, 0.1, 1.0, 1.0, mk).unwrap();
        assert!(busy.rho_w > quiet.rho_w);
        assert!(busy.w_wait > quiet.w_wait);
    }

    #[test]
    fn fixed_point_residual_is_small() {
        let sol = solve_level(2, 1.5, 0.2, 0.8, 1.0, |burst| {
            StagedService::new()
                .with_stage(Mixture::always(0.7 + burst))
                .with_stage(Mixture::optional(0.1, 3.0))
        })
        .unwrap();
        assert!((sol.lambda_w * sol.t_agg - sol.rho_w).abs() < 1e-7);
    }

    #[test]
    fn performance_accessors() {
        let mk = |level: usize, rho: f64| LevelSolution {
            level,
            lambda_r: 0.0,
            lambda_w: 0.1,
            rho_w: rho,
            r_u: 0.0,
            r_e: 0.0,
            burst: 0.0,
            t_agg: 1.0,
            r_wait: 0.5,
            w_wait: 0.6,
        };
        let p = Performance {
            lambda: 1.0,
            response_time_search: 10.0,
            response_time_insert: 20.0,
            response_time_delete: 15.0,
            levels: vec![mk(1, 0.1), mk(2, 0.4)],
        };
        assert_eq!(p.root_writer_utilization(), 0.4);
        assert_eq!(p.level(1).level, 1);
        assert!((p.mean_response_time(0.3, 0.5, 0.2) - (3.0 + 10.0 + 3.0)).abs() < 1e-12);
    }
}
