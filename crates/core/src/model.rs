//! The analytical model of every algorithm: one loop over the tree's
//! levels, bottom-up, solving each level's lock queue with
//! [`solve_level`].
//!
//! ## Naive Lock-coupling (paper §5, Theorems 1–5)
//!
//! Searches descend with shared locks, updates with exclusive locks, and a
//! parent's lock is released only after the child's lock is granted — and
//! retained entirely while the child is unsafe for the operation. The
//! consequence for the model is that the time a level-`i` lock is *held*
//! embeds the waiting time at level `i−1` (Theorem 1), so the levels are
//! solved bottom-up:
//!
//! 1. leaves: plain Theorem 6 fixed point + M/M/1 waits (Theorem 4);
//! 2. level `i ≥ 2`: the writer's aggregate service is the staged server
//!    of Figure 2 — search the node and absorb the reader burst
//!    (`t_e`), hold the child's lock while it restructures with
//!    probability `p_f` (`t_f`), and wait to acquire the child's lock
//!    (busy branch `ρ_o`/`t_busy`, idle branch `t_idle`) — solved with the
//!    generalized fixed point and Pollaczek–Khinchine (Theorem 3);
//! 3. response times from Theorem 5.
//!
//! §7's recovery enters only the queues' service times: waiters see
//! `T' = T + T_trans` at the leaf under either retention mode, and
//! `Pr[F(i)]·T_trans` more above it under Naive retention, but the
//! Theorem 1 recursion stays unprimed (a parent's lock is released when
//! the structural work completes, not at commit). The ablation variant
//! ([`Model::exponential_approx`]) serves each upper level with a plain
//! exponential of the staged server's mean: "lock coupling gives the
//! service time distributions a large variance" (§5), and the
//! `ablation-hyperexp` experiment shows how much waiting that carries.
//!
//! The model reads its protocol's row of the policy table
//! ([`Protocol::policy`]), the row the live tree and the simulator read.
//! The update column picks the level server: Link-type and Two-Phase
//! Locking (`Crab { retain_all: true }`) have their own, called from the
//! same loop; every other protocol runs the lock-coupling recursion with
//! per-level parameters — whether the reader class latches (not under an
//! `Olc` read column), the writer class's rate, the probability it finds
//! its child unsafe and its split chain (the redo class under an
//! `OptimisticLeaf` update column).
//!
//! ## Optimistic Descent (§5.1)
//!
//! Updates first descend exactly like searches — shared locks with
//! lock-coupling — and place an exclusive lock only on the leaf. If the
//! leaf turns out to be unsafe, the operation releases everything and
//! redescends placing exclusive locks all the way (a *redo-insert*, a new
//! operation class entering at rate `q_i·Pr[F(1)]·λ`). Relative to Naive
//! Lock-coupling:
//!
//! * above the leaves the reader class carries *all* first descents
//!   (`λ_{R,i} = λ_i`) and the writer class only the redo operations
//!   (`λ_{W,i} = q_i·Pr[F(1)]·λ_i`);
//! * at the leaf, first-pass updates and redo-inserts all place W locks;
//! * a redo-insert heads for a leaf it just found full, so its level-2
//!   lock almost surely covers a leaf split — the redo class's
//!   "child-unsafe" probability at level 2 is 1, not `Pr[F(1)]`
//!   (the split-propagation chain for redos is `∏_{k=2..j} Pr[F(k)]`);
//! * the insert response time is the first descent plus `Pr[F(1)]` times
//!   the redo descent's response time.
//!
//! Redo-*deletes* are ignored: with merge-at-empty and inserts dominating,
//! `Pr[Em(1)] ≈ 0` (Corollary 1), which the configuration reports.
//!
//! ## Optimistic Lock Coupling (post-1990 extension)
//!
//! OLC (Leis et al.'s optimistic lock coupling, here applied to the
//! paper's framework) splits the two classes the 1990 framework treats
//! symmetrically:
//!
//! * **Readers take no locks at all.** A search reads each node inside a
//!   version window (snapshot the node's version counter, read, validate
//!   it unchanged) and re-validates the parent's recorded version after
//!   the child read. Readers therefore place **zero shared-lock demand**
//!   on every level's queue — `λ_R(i) = 0` — and never appear in any
//!   writer's reader burst.
//! * **Writers latch exactly as in Naive Lock-coupling**: the same
//!   recursion with an empty reader class, so with no searches the two
//!   models agree to the bit.
//!
//! What readers pay instead of lock waits is *rework*: a version window
//! that overlaps a writer's modification fails validation and the read
//! restarts from the deepest still-valid ancestor. We charge this to
//! first order per level `i`:
//!
//! * a window fails with probability
//!   `p_i = ρ_w(i) + λ_W(i)·Se(i)` (a writer currently holds the node,
//!   or one arrives during the window), clamped below 1;
//! * each failed attempt costs the re-read `Se(i)` plus — when the
//!   failure was a writer in residence — half the writer's aggregate
//!   hold `ρ_w(i)·T_a(i)/2` of stall before the retry can validate;
//! * retries are geometric, so the expected extra attempts per level are
//!   `p_i/(1−p_i)`.
//!
//! Because the reader class vanishes from the queues, writer waits are
//! strictly lower than Naive Lock-coupling's at every load, and the
//! tree's maximum throughput (still bounded by root writer coupling)
//! is strictly higher — while searches stay near-serial until writer
//! utilization becomes significant. The reported `r_wait` is 0 at every
//! level: no OLC reader joins a queue.
//!
//! ## Link-type (Lehman–Yao; §5.1)
//!
//! Every node is linked to its right neighbor, so operations hold **at
//! most one lock at a time**: R locks on the way down, and updates take a
//! W lock only on the node they actually modify. A split half-splits the
//! node, links the new sibling, *releases* the node's lock, and only then
//! W-locks the parent to post the new pointer. Consequences:
//!
//! * there is no lock-coupling, so the levels decouple — each level is an
//!   independent FCFS R/W queue whose service times are pure node work;
//! * the W-lock arrival rate at level `i > 1` is the rate at which splits
//!   propagate to it: `λ_{W,i} = q_i·λ_i·∏_{k<i} Pr[F(k)]`;
//! * R service is just `Se(i)`; W service is the node modification plus a
//!   possible half-split while the lock is held;
//! * link chases (an operation drifting right after a concurrent split)
//!   are rare enough to ignore analytically — the paper's Figure 9 and our
//!   simulator confirm the effect on response time is negligible.
//!
//! Because nothing couples the levels and the W rates fall geometrically
//! with height, the algorithm saturates only at enormous arrival rates —
//! "the Link-type algorithm has no effective maximum throughput" (§6).
//!
//! ## Two-Phase Locking (the §8 full version's baseline)
//!
//! Under strict 2PL applied to the index, an operation acquires a lock on
//! every node it touches and releases nothing until it completes:
//! searches hold shared locks on the whole root-to-leaf path, updates
//! hold exclusive locks on the whole path. This is the degenerate
//! lock-coupling algorithm whose "safe" test never succeeds — a level-`i`
//! lock is held for the node's own work plus *everything below it*:
//!
//! ```text
//! T(o, 1) = leaf work (+ all restructuring, for inserts)
//! T(o, i) = Se(i) + child wait + T(o, i−1)
//! ```
//!
//! The root's exclusive lock is therefore held for essentially the whole
//! update — `ρ_w(h) = (q_i+q_d)·λ·T(I,h)` — and saturation arrives an
//! order of magnitude earlier than even Naive Lock-coupling. This is the
//! quantitative version of the paper's opening claim that "a restrictive
//! serialization technique on the B-tree index can cause a bottleneck",
//! and the baseline every dedicated B-tree algorithm is beating.

use crate::config::ModelConfig;
use crate::level::{solve_level, LevelSolution, Performance};
use crate::{throughput, Result};
use cbtree_btree_model::{Fullness, Policy, Protocol, ReadPolicy, UpdatePolicy};
use cbtree_queueing::stages::{Mixture, StagedService};

/// The analytical model of one protocol on one configuration, built by
/// [`Model::new`]. It reads the protocol's read and update columns
/// ([`Protocol::policy`]); §7 retention comes from the configuration's
/// [`RecoveryConfig`](crate::RecoveryConfig).
#[derive(Debug)]
pub struct Model {
    policy: Policy,
    cfg: ModelConfig,
    /// Serve upper levels with an exponential of the staged server's mean.
    exponential: bool,
}

/// A lock-coupling protocol as the recursion reads it.
struct Coupling {
    /// Readers take shared locks (OLC's validate versions instead).
    readers_latch: bool,
    /// The reader class above the leaves, as a share of each level's
    /// arrivals: the searches, or every first descent.
    readers: f64,
    /// The writer class at the leaves, as a share of their arrivals.
    leaf_writers: f64,
    /// Mean W service at the leaves, §7 retention included (Theorem 4).
    leaf_service: f64,
    /// The writer class above the leaves: every update, or the redos.
    writers: f64,
    /// The insert share of the writer class above the leaves.
    inserts: f64,
    /// The writer class is Optimistic Descent's redo-insert.
    redo: bool,
}

impl Coupling {
    /// Probability the writer class finds its level-`j` node full.
    fn unsafe_at(&self, f: &Fullness, j: usize) -> f64 {
        if self.redo && j == 1 {
            1.0
        } else {
            f.pr_full(j)
        }
    }

    /// Probability the writer class's split chain reaches level `j`.
    fn chain(&self, f: &Fullness, j: usize) -> f64 {
        (1..=j).map(|k| self.unsafe_at(f, k)).product()
    }
}

impl Model {
    /// The model of `protocol` on `cfg`. The recovery protocols are
    /// lock-coupling's columns: their retention is `cfg`'s.
    pub fn new(protocol: Protocol, cfg: &ModelConfig) -> Self {
        Model {
            policy: protocol.policy(),
            cfg: cfg.clone(),
            exponential: false,
        }
    }

    /// Naive Lock-coupling with Theorem 3's staged (hyperexponential)
    /// upper-level server replaced by a plain exponential of equal mean —
    /// the ablation that shows how much of the waiting the naive
    /// exponential assumption misses.
    pub fn exponential_approx(cfg: &ModelConfig) -> Self {
        Model {
            exponential: true,
            ..Model::new(Protocol::LockCoupling, cfg)
        }
    }

    /// The configuration the model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Maximum sustainable throughput: the supremum of arrival rates for
    /// which every level is stable (Theorem 2). Found by exponential
    /// search plus bisection on [`Model::evaluate`].
    pub fn max_throughput(&self) -> Result<f64> {
        throughput::max_throughput(self)
    }

    /// The arrival rate at which the *root* writer utilization reaches
    /// `target_rho` — the §6 "effective maximum arrival rate" uses 0.5.
    pub fn lambda_at_root_rho(&self, target_rho: f64) -> Result<f64> {
        throughput::lambda_at_root_rho(self, target_rho)
    }

    /// Evaluates the model at total arrival rate `lambda`.
    ///
    /// Returns [`AnalysisError::Saturated`](crate::AnalysisError::Saturated)
    /// when some level's lock queue has no stable operating point at this
    /// rate.
    pub fn evaluate(&self, lambda: f64) -> Result<Performance> {
        self.cfg.check_lambda(lambda)?;
        let (h, c, f) = (self.cfg.height(), &self.cfg.cost, &self.cfg.fullness);
        let k = self.coupling();
        let mut levels: Vec<LevelSolution> = Vec::with_capacity(h);
        // The writer class's Theorem 1 hold time at the level below.
        let mut hold = 0.0;
        for level in 1..=h {
            let lambda_lvl = self.cfg.shape.arrival_at_level(lambda, level);
            let below = levels.last();
            let sol = match self.policy.update {
                UpdatePolicy::Link => self.link_level(level, lambda_lvl, lambda)?,
                UpdatePolicy::Crab { retain_all: true } => {
                    self.two_phase_level(&k, level, lambda_lvl, lambda, below, &mut hold)?
                }
                UpdatePolicy::Crab { retain_all: false } | UpdatePolicy::OptimisticLeaf => {
                    self.coupled_level(&k, level, lambda_lvl, lambda, below, &mut hold)?
                }
            };
            levels.push(sol);
        }

        // A descent reading levels `from..=h`, one shared lock at a time.
        let reads =
            |from: usize| -> f64 { (from..=h).map(|i| c.se(i) + levels[i - 1].r_wait).sum() };
        let (search, insert, delete) = match self.policy.update {
            UpdatePolicy::Link => {
                // With probability ∏Pr[F] a split climbs, paying the
                // half-split plus the next level's W wait and modify.
                let split_work: f64 = (1..h)
                    .map(|j| {
                        let climb = c.sp(j) + levels[j].w_wait + link_modify(&self.cfg, j + 1);
                        f.split_chain_prob(j) * climb
                    })
                    .sum();
                let (descent, leaf) = (reads(2), levels[0].w_wait);
                let delete = descent + leaf + c.m();
                (reads(1), descent + leaf + c.m() + split_work, delete)
            }
            UpdatePolicy::Crab { retain_all: true } => {
                let (insert, _) = self.updates(&k, &levels);
                let serial_update: f64 = c.m() + (2..=h).map(|i| c.se(i)).sum::<f64>();
                let delete = serial_update + levels.iter().map(|l| l.w_wait).sum::<f64>();
                (reads(1), insert, delete)
            }
            UpdatePolicy::OptimisticLeaf => {
                let descent = reads(2);
                let (redo, _) = self.updates(&k, &levels);
                let prf1 = f.pr_full(1);
                let first_pass_leaf_work = (1.0 - prf1) * c.m() + prf1 * c.se(1);
                let leaf = descent + levels[0].w_wait;
                let insert = leaf + first_pass_leaf_work + prf1 * redo;
                (descent + c.se(1) + levels[0].r_wait, insert, leaf + c.m())
            }
            UpdatePolicy::Crab { retain_all: false } => {
                let (insert, delete) = self.updates(&k, &levels);
                let search = if k.readers_latch {
                    reads(1)
                } else {
                    self.restart_search(&levels)
                };
                (search, insert, delete)
            }
        };
        if !k.readers_latch {
            for l in &mut levels {
                l.r_wait = 0.0;
            }
        }
        Ok(Performance {
            lambda,
            response_time_search: search,
            response_time_insert: insert,
            response_time_delete: delete,
            levels,
        })
    }

    /// The lock-coupling parameters of this model's columns: the read
    /// column says whether the reader class latches, and an
    /// optimistic-leaf update column makes the writer class the redos.
    /// Two-Phase Locking's update classes and split chain are Naive
    /// Lock-coupling's.
    fn coupling(&self) -> Coupling {
        let (mix, c, rec) = (&self.cfg.mix, &self.cfg.cost, &self.cfg.recovery);
        let inserts = mix.insert_share_of_updates();
        let readers_latch = self.policy.read != ReadPolicy::Olc;
        let naive = Coupling {
            readers_latch,
            readers: if readers_latch { mix.q_search } else { 0.0 },
            leaf_writers: mix.update_fraction(),
            leaf_service: inserts * c.m()
                + mix.delete_share_of_updates() * c.m()
                + rec.leaf_extra(),
            writers: mix.update_fraction(),
            inserts,
            redo: false,
        };
        match self.policy.update {
            UpdatePolicy::OptimisticLeaf => {
                let prf1 = self.cfg.fullness.pr_full(1);
                let redo = mix.q_insert * prf1;
                let leaf_writers = mix.update_fraction() + redo;
                let m_eff = c.m() + rec.leaf_extra();
                // A first-pass insert modifies a safe leaf and merely
                // inspects (then restarts from) a full one.
                let first_insert = (1.0 - prf1) * m_eff + prf1 * c.se(1);
                Coupling {
                    readers: 1.0,
                    leaf_writers,
                    // Unused when no update reaches the leaf.
                    leaf_service: (mix.q_insert * first_insert
                        + mix.q_delete * m_eff
                        + redo * m_eff)
                        / leaf_writers,
                    writers: redo,
                    inserts: 1.0,
                    redo: true,
                    ..naive
                }
            }
            _ => naive,
        }
    }

    /// Theorem 4: a leaf whose W service is one exponential stage.
    fn leaf(
        &self,
        lambda: f64,
        lambda_r: f64,
        lambda_w: f64,
        service: f64,
    ) -> Result<LevelSolution> {
        let mu_r = 1.0 / self.cfg.cost.se(1);
        solve_level(1, lambda_r, lambda_w, mu_r, lambda, |burst| {
            StagedService::new().with_stage(Mixture::always(service + burst))
        })
    }

    /// §7 Naive retention: the W lock of a node the operation modified
    /// (probability `Pr[F(i)]`) is retained `T_trans` past the operation.
    fn retain(&self, level: usize, service: &mut StagedService) {
        let (rec, pr_full) = (&self.cfg.recovery, self.cfg.fullness.pr_full(level));
        if rec.upper_extra(pr_full) > 0.0 {
            service.push(Mixture::optional(pr_full, rec.t_trans));
        }
    }

    /// One level of the lock-coupling recursion (Theorems 1, 3 and 4).
    /// `hold` is the writer class's `T(I, level−1)` on entry and
    /// `T(I, level)` on return.
    fn coupled_level(
        &self,
        k: &Coupling,
        level: usize,
        lambda_lvl: f64,
        lambda: f64,
        below: Option<&LevelSolution>,
        hold: &mut f64,
    ) -> Result<LevelSolution> {
        let (mix, c, f) = (&self.cfg.mix, &self.cfg.cost, &self.cfg.fullness);
        let Some(prev) = below else {
            *hold = c.m();
            let readers = if k.readers_latch { mix.q_search } else { 0.0 };
            let (lambda_r, lambda_w) = (readers * lambda_lvl, k.leaf_writers * lambda_lvl);
            return self.leaf(lambda, lambda_r, lambda_w, k.leaf_service);
        };
        let i = level;
        // Theorem 1.
        let (child_hold, child_unsafe) = (*hold, k.unsafe_at(f, i - 1));
        *hold = c.se(i) + prev.w_wait + child_unsafe * child_hold + c.sp(i - 1) * k.chain(f, i - 1);

        // Theorem 3's stages, all from level i−1. t_f is the structural
        // child hold: §7's retention does not extend it (the child queue's
        // own waits, which feed t_busy/t_idle, already reflect it).
        let p_f = k.inserts * child_unsafe;
        let t_f = child_hold + c.sp(i - 1) * k.chain(f, i - 2);
        let rho_o = prev.rho_w;
        let t_busy = if rho_o > 0.0 {
            prev.r_wait / rho_o + prev.r_u
        } else {
            0.0
        };
        // A reader holds its lock while it waits for the child's; at level
        // 2 a first-pass update waits for the leaf's W lock.
        let child_wait = if k.redo && i == 2 {
            mix.q_search * prev.r_wait + mix.update_fraction() * prev.w_wait
        } else {
            prev.r_wait
        };
        let mu_r = 1.0 / (c.se(i) + child_wait);
        let (lambda_r, lambda_w) = (k.readers * lambda_lvl, k.writers * lambda_lvl);
        solve_level(i, lambda_r, lambda_w, mu_r, lambda, |burst| {
            let mut agg =
                StagedService::theorem3_server(c.se(i) + burst, p_f, t_f, rho_o, t_busy, prev.r_e);
            self.retain(i, &mut agg);
            if self.exponential {
                agg = StagedService::new().with_stage(Mixture::always(agg.mean()));
            }
            agg
        })
    }

    /// Theorem 5: the insert and delete response times of a writer class
    /// that W-locks every level on its way down.
    fn updates(&self, k: &Coupling, levels: &[LevelSolution]) -> (f64, f64) {
        let (h, c) = (self.cfg.height(), &self.cfg.cost);
        let delete =
            c.m() + levels[0].w_wait + (2..=h).map(|i| c.se(i) + levels[i - 1].w_wait).sum::<f64>();
        let insert = c.m()
            + (2..=h).map(|i| c.se(i)).sum::<f64>()
            + levels.iter().map(|l| l.w_wait).sum::<f64>()
            + self.split_work(k);
        (insert, delete)
    }

    /// The writer class's expected restructuring work per insert.
    fn split_work(&self, k: &Coupling) -> f64 {
        let (c, f) = (&self.cfg.cost, &self.cfg.fullness);
        (1..self.cfg.height())
            .map(|j| k.chain(f, j) * c.sp(j))
            .sum()
    }

    /// OLC's latch-free search: serial node work plus geometric restart
    /// rework per level.
    fn restart_search(&self, levels: &[LevelSolution]) -> f64 {
        let c = &self.cfg.cost;
        levels
            .iter()
            .map(|sol| {
                let se = c.se(sol.level);
                let p = (sol.rho_w + sol.lambda_w * se).min(0.95);
                let stall = if sol.rho_w > 0.0 {
                    sol.rho_w * sol.t_agg / 2.0
                } else {
                    0.0
                };
                se + p / (1.0 - p) * (se + stall)
            })
            .sum()
    }

    /// A Link-type level: readers pass through every level, W locks come
    /// from the updates at the leaf and from propagating splits above it.
    fn link_level(&self, level: usize, lambda_lvl: f64, lambda: f64) -> Result<LevelSolution> {
        let (mix, c, f) = (&self.cfg.mix, &self.cfg.cost, &self.cfg.fullness);
        let mu_r = 1.0 / c.se(level);
        let mut sol = if level == 1 {
            // Insert W service: modify + (if now overfull) half-split, all
            // under the leaf lock. Deletes just modify.
            let split_prob = mix.insert_share_of_updates() * f.pr_full(1);
            let m_eff = c.m() + self.cfg.recovery.leaf_extra();
            let (lambda_r, lambda_w) = (
                mix.q_search * lambda_lvl,
                mix.update_fraction() * lambda_lvl,
            );
            solve_level(1, lambda_r, lambda_w, mu_r, lambda, |burst| {
                StagedService::new()
                    .with_stage(Mixture::always(m_eff + burst))
                    .with_stage(Mixture::optional(split_prob, c.sp(1)))
            })?
        } else {
            let lambda_w = mix.q_insert * lambda_lvl * f.split_chain_prob(level - 1);
            let modify = link_modify(&self.cfg, level);
            solve_level(level, lambda_lvl, lambda_w, mu_r, lambda, |burst| {
                let mut agg = StagedService::new()
                    .with_stage(Mixture::always(modify + burst))
                    .with_stage(Mixture::optional(f.pr_full(level), c.sp(level)));
                self.retain(level, &mut agg);
                agg
            })?
        };
        // The Pollaczek–Khinchine form (right for the *writers*, who queue
        // behind whole aggregates) overcharges readers: a reader arriving
        // while no writer is queued joins the reader group immediately. A
        // reader waits only when a writer is present (probability
        // λ_w·T_a): behind the writer's remaining burst plus its hold, or
        // behind the residual hold.
        if sol.lambda_w > 0.0 {
            let b = (sol.t_agg - sol.burst).max(0.0);
            sol.r_wait = sol.lambda_w * (0.5 * sol.burst * sol.burst + sol.burst * b + b * b);
            sol.w_wait = sol.w_wait.max(sol.r_wait + sol.burst);
        }
        Ok(sol)
    }

    /// A Two-Phase Locking level. `hold` is the update's whole-subtree
    /// hold below this level on entry, and including it on return.
    fn two_phase_level(
        &self,
        k: &Coupling,
        level: usize,
        lambda_lvl: f64,
        lambda: f64,
        below: Option<&LevelSolution>,
        hold: &mut f64,
    ) -> Result<LevelSolution> {
        let (mix, c) = (&self.cfg.mix, &self.cfg.cost);
        let (lambda_r, lambda_w) = (
            mix.q_search * lambda_lvl,
            mix.update_fraction() * lambda_lvl,
        );
        let Some(prev) = below else {
            // All restructuring work, charged at the leaf stage (every lock
            // is held throughout anyway). §7 retention keeps the leaf's
            // lock `T_trans` longer under either mode, but the locks above
            // it only under Naive recovery: the hold passed up carries the
            // upper levels' retention, not the leaf's.
            let (rec, split_work) = (&self.cfg.recovery, k.inserts * self.split_work(k));
            *hold = c.m() + split_work + rec.upper_extra(1.0);
            let leaf_service = c.m() + split_work + rec.leaf_extra();
            return self.leaf(lambda, lambda_r, lambda_w, leaf_service);
        };
        // The below-this-level part of the hold: child wait plus the
        // child's hold — its own exponential stage (the variance of the
        // lower subtree's work dominates).
        let rest = prev.w_wait + *hold;
        *hold += c.se(level) + prev.w_wait;
        let mu_r = 1.0 / (c.se(level) + prev.r_wait);
        solve_level(level, lambda_r, lambda_w, mu_r, lambda, |burst| {
            StagedService::new()
                .with_stage(Mixture::always(c.se(level) + burst))
                .with_stage(Mixture::always(rest))
        })
    }
}

/// Time to modify (insert a separator into) a level-`i` node under the
/// Link-type protocol. The paper defines `M` only for leaves; we extend
/// the same 2× ratio to upper-level modifications.
fn link_modify(cfg: &ModelConfig, level: usize) -> f64 {
    2.0 * cfg.cost.se(level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisError, RecoveryMode};
    use cbtree_btree_model::{CostModel, OpMix, TreeShape};
    use Protocol as P;

    fn model(protocol: Protocol) -> Model {
        Model::new(protocol, &ModelConfig::paper_base())
    }

    #[test]
    fn zero_load_is_serial() {
        // Serial search: Se over 5 levels = 1 + 1 + 5 + 5 + 5 = 17; serial
        // delete: M + Se(2..5) = 10 + (5 + 5 + 1 + 1) = 22; inserts add
        // expected split work on top of the delete path.
        for a in Protocol::ALL_EXTENDED {
            let perf = model(a).evaluate(0.0).unwrap();
            assert!((perf.response_time_search - 17.0).abs() < 1e-9, "{a:?}");
            assert!((perf.response_time_delete - 22.0).abs() < 1e-9, "{a:?}");
            assert!(perf.response_time_insert > 22.0, "{a:?}");
            assert_eq!(perf.root_writer_utilization(), 0.0, "{a:?}");
            assert!(model(a).evaluate(-1.0).is_err(), "{a:?}");
        }
    }

    #[test]
    fn search_only_mix_never_waits() {
        let mix = OpMix::searches_only();
        let cfg = ModelConfig::new(TreeShape::paper(), mix, CostModel::paper()).unwrap();
        for a in Protocol::ALL_EXTENDED {
            let perf = Model::new(a, &cfg).evaluate(5.0).unwrap();
            assert!((perf.response_time_search - 17.0).abs() < 1e-9, "{a:?}");
            assert_eq!(perf.root_writer_utilization(), 0.0, "{a:?}");
        }
    }

    #[test]
    fn response_times_grow_with_load() {
        for a in Protocol::ALL_EXTENDED {
            let m = model(a);
            let max = m.max_throughput().unwrap();
            let lo = m.evaluate(0.2 * max).unwrap();
            let hi = m.evaluate(0.9 * max).unwrap();
            assert!(hi.response_time_search > lo.response_time_search, "{a:?}");
            assert!(hi.response_time_insert > lo.response_time_insert, "{a:?}");
            assert!(
                hi.root_writer_utilization() > lo.root_writer_utilization(),
                "{a:?}"
            );
        }
    }

    #[test]
    fn every_algorithm_saturates_at_the_root() {
        // Theorem 2: with lock-coupling writers the bottleneck is the root.
        // Link-type's levels decouple, and its first queue to saturate is
        // level 3, the highest one on disk.
        let rows = [
            (P::TwoPhase, 5),
            (P::LockCoupling, 5),
            (P::OptimisticDescent, 5),
            (P::BLink, 3),
            (P::Olc, 5),
        ];
        for (a, bottleneck) in rows {
            let m = model(a);
            let max = m.max_throughput().unwrap();
            match m.evaluate(max * 1.05) {
                Err(AnalysisError::Saturated { level, .. }) => {
                    assert_eq!(level, bottleneck, "{a:?}")
                }
                other => panic!("{a:?}: expected saturation, got {other:?}"),
            }
        }
    }

    #[test]
    fn root_utilization_grows_superlinearly() {
        // Figure 10: going from ρ_w = .5 to ρ_w = 1 takes less than a 50%
        // increase in arrival rate.
        let m = model(P::LockCoupling);
        let lambda_half = m.lambda_at_root_rho(0.5).unwrap();
        let max = m.max_throughput().unwrap();
        assert!(
            max < 1.5 * lambda_half,
            "lock-coupling: saturation ({max}) must come within 50% beyond \
             the rho=.5 point ({lambda_half})"
        );
    }

    #[test]
    fn updates_wait_longer_than_searches() {
        let perf = model(P::LockCoupling).evaluate(0.25).unwrap();
        for l in &perf.levels {
            assert!(l.w_wait >= l.r_wait);
        }
    }

    #[test]
    fn recovery_slows_the_tree_down() {
        // Naive recovery under full lock-coupling saturates very early
        // (every update W-locks the root and retains it with probability
        // Pr[F(h)]), so probe a low load all three variants sustain.
        let base = ModelConfig::paper_base();
        let insert_rt = |cfg: ModelConfig| {
            let perf = Model::new(P::LockCoupling, &cfg).evaluate(0.04).unwrap();
            perf.response_time_insert
        };
        let none = insert_rt(base.clone());
        let naive = insert_rt(base.clone().with_recovery(RecoveryMode::Naive, 100.0));
        let leaf = insert_rt(base.with_recovery(RecoveryMode::LeafOnly, 100.0));
        assert!(naive > leaf);
        assert!(leaf > none);
    }

    #[test]
    fn olc_reader_latch_demand_is_zero_at_every_level() {
        let perf = model(P::Olc).evaluate(0.3).unwrap();
        for l in &perf.levels {
            let level = l.level;
            assert_eq!(l.lambda_r, 0.0, "level {level}: OLC readers never latch");
            assert_eq!(l.r_wait, 0.0, "level {level}: no reader joins a queue");
        }
        // Searches stay near-serial: restart rework only, no queueing.
        assert!(perf.response_time_search < 1.5 * 17.0);
    }

    #[test]
    fn olc_beats_naive_lock_coupling_where_it_matters() {
        // Removing the reader class from every queue lowers writer waits
        // at any common load and raises the saturation point. Searches
        // trade lock waits for restart rework — slightly costlier at low
        // contention, but they never queue, so they stay near-serial at
        // loads naive cannot even sustain.
        let (olc, naive) = (model(P::Olc), model(P::LockCoupling));
        let lam = 0.2;
        let po = olc.evaluate(lam).unwrap();
        let pn = naive.evaluate(lam).unwrap();
        assert!(po.response_time_insert < pn.response_time_insert);
        assert!(
            po.response_time_search < 1.1 * pn.response_time_search,
            "restart rework must stay comparable to naive's reader waits"
        );
        let mo = olc.max_throughput().unwrap();
        let mn = naive.max_throughput().unwrap();
        assert!(mo > mn, "olc ({mo}) must out-sustain naive ({mn})");
        // Past naive's saturation point OLC still answers searches:
        // finite, and bounded by the restart rework (no queueing blowup).
        let beyond = olc.evaluate(1.05 * mn).unwrap();
        assert!(beyond.response_time_search < 5.0 * 17.0);
    }

    #[test]
    fn od_beats_naive_lock_coupling() {
        // Figure 12 / §8: Optimistic Descent significantly outperforms
        // Naive Lock-coupling.
        let (od, nl) = (model(P::OptimisticDescent), model(P::LockCoupling));
        let max_od = od.max_throughput().unwrap();
        let max_nl = nl.max_throughput().unwrap();
        assert!(
            max_od > 1.5 * max_nl,
            "OD max throughput {max_od} must clearly beat naive {max_nl}"
        );
        // And at a load naive can still sustain, OD's insert RT is lower.
        let lam = 0.8 * max_nl;
        let rt_od = od.evaluate(lam).unwrap().response_time_insert;
        let rt_nl = nl.evaluate(lam).unwrap().response_time_insert;
        assert!(rt_od < rt_nl, "insert RT: od={rt_od} naive={rt_nl}");
    }

    #[test]
    fn od_writer_rate_above_leaf_is_redo_only() {
        let perf = model(P::OptimisticDescent).evaluate(0.3).unwrap();
        let cfg = ModelConfig::paper_base();
        let root = perf.level(cfg.height());
        let expect_w = cfg.mix.q_insert * cfg.fullness.pr_full(1) * 0.3;
        assert!((root.lambda_w - expect_w).abs() < 1e-12);
        assert!(
            (root.lambda_r - 0.3).abs() < 1e-12,
            "all first descents read the root"
        );
    }

    #[test]
    fn od_insert_slower_than_search_and_delete() {
        let perf = model(P::OptimisticDescent).evaluate(0.3).unwrap();
        assert!(perf.response_time_insert > perf.response_time_delete);
        assert!(perf.response_time_delete > perf.response_time_search);
    }

    #[test]
    fn larger_nodes_help_od_specifically() {
        // §6: OD's effective max grows with node size; the redo rate falls
        // as 1/N.
        let max = |n: usize| {
            let cfg = ModelConfig::pinned(n, 5, 6.0, 2, 5.0, 1.0, OpMix::paper()).unwrap();
            Model::new(P::OptimisticDescent, &cfg)
                .max_throughput()
                .unwrap()
        };
        let (small, large) = (max(13), max(59));
        assert!(large > 2.0 * small, "N=59 ({large}) vs N=13 ({small})");
    }

    #[test]
    fn od_recovery_ranking_matches_section_7() {
        let base = ModelConfig::paper_with_disk_cost(10.0).unwrap();
        let insert_rt = |cfg: ModelConfig| {
            let perf = Model::new(P::OptimisticDescent, &cfg)
                .evaluate(0.25)
                .unwrap();
            perf.response_time_insert
        };
        let none = insert_rt(base.clone());
        let leaf = insert_rt(base.clone().with_recovery(RecoveryMode::LeafOnly, 100.0));
        let naive = insert_rt(base.with_recovery(RecoveryMode::Naive, 100.0));
        assert!(
            naive > leaf,
            "naive recovery ({naive}) must be worse than leaf-only ({leaf})"
        );
        assert!(leaf >= none);
        // "Leaf-only has slightly worse performance than no-recovery" —
        // within a small factor, not catastrophically worse.
        assert!(leaf < 1.5 * none);
    }

    #[test]
    fn link_writer_rates_match_split_propagation() {
        // λ_{W,i} = q_i·λ_i·∏_{k<i} Pr[F(k)]. Per representative node the
        // rate is roughly flat above the leaf (E·Pr[F] ≈ 1 at steady
        // state), far below the leaf's update rate, and smallest at the
        // root (whose fanout is below steady state).
        let perf = model(P::BLink).evaluate(1.0).unwrap();
        let cfg = ModelConfig::paper_base();
        for i in 2..=5 {
            let lvl = perf.level(i);
            let expect = cfg.mix.q_insert
                * cfg.shape.arrival_at_level(1.0, i)
                * cfg.fullness.split_chain_prob(i - 1);
            assert!((lvl.lambda_w - expect).abs() < 1e-12, "level {i}");
            assert!(lvl.lambda_w < perf.level(1).lambda_w);
        }
        assert!(perf.level(5).lambda_w < perf.level(4).lambda_w);
        // Every operation passes the root with an R lock.
        assert!((perf.level(5).lambda_r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn link_dominates_both_other_algorithms() {
        // Figure 12 / §8: Link ≫ Optimistic ≫ Naive.
        let max = |a: Protocol| model(a).max_throughput().unwrap();
        let (link, od) = (max(P::BLink), max(P::OptimisticDescent));
        let naive = max(P::LockCoupling);
        assert!(
            link > 3.0 * od && od > 1.5 * naive,
            "expected link ({link}) >> od ({od}) >> naive ({naive})"
        );
    }

    #[test]
    fn link_has_effectively_unbounded_concurrency() {
        // §6: "the Link-type algorithm has no effective maximum
        // throughput" — it sustains rates far beyond the other
        // algorithms' saturation points, with a nearly flat insert RT.
        let m = model(P::BLink);
        assert!(m.evaluate(20.0).is_ok(), "link must sustain λ=20");
        let max = m.max_throughput().unwrap();
        assert!(max > 50.0, "link saturation should be enormous, got {max}");
        let lo = m.evaluate(0.1).unwrap().response_time_insert;
        let mid = m.evaluate(2.0).unwrap().response_time_insert;
        assert!(
            mid < 1.5 * lo,
            "link insert RT should stay nearly flat: {lo} → {mid}"
        );
        let perf = m.evaluate(1.0).unwrap();
        assert!(perf.response_time_insert >= perf.response_time_delete);
        assert!(perf.response_time_delete > perf.response_time_search);
    }

    #[test]
    fn two_phase_is_far_worse_than_naive_lock_coupling() {
        // The whole point: even the "naive" dedicated algorithm crushes
        // index 2PL.
        let tp = model(P::TwoPhase).max_throughput().unwrap();
        let naive = model(P::LockCoupling).max_throughput().unwrap();
        assert!(tp < 0.15, "2PL max throughput must be tiny, got {tp}");
        assert!(
            naive > 4.0 * tp,
            "naive LC ({naive}) must far outrun 2PL ({tp})"
        );
    }

    #[test]
    fn two_phase_root_lock_held_for_whole_update() {
        // ρ_w(h) ≈ (q_i+q_d)·λ·T(I,h): at tiny λ the root utilization per
        // unit arrival is close to the serial update time.
        let lambda = 0.005;
        let perf = model(P::TwoPhase).evaluate(lambda).unwrap();
        let implied_hold = perf.root_writer_utilization() / (0.7 * lambda);
        assert!(
            implied_hold > 20.0,
            "root W hold ≈ whole update ({implied_hold} time units)"
        );
    }
}
