//! Operation streams: search/insert/delete mixes over a key space.
//!
//! Mirrors the paper's simulator protocol (§4): "The simulator first
//! builds a B-tree out of a sequence of insert and delete operations.
//! Next, a sequence of concurrent B-tree operations is performed. [...]
//! The proportion of insert to delete operations in the construction phase
//! is the same as the proportion in the concurrent operation phase."

use crate::dist::KeyDist;
use crate::rng::Rng;

/// One B-tree operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Look a key up.
    Search(u64),
    /// Insert a key.
    Insert(u64),
    /// Delete a key.
    Delete(u64),
}

impl Operation {
    /// The key the operation targets.
    pub fn key(&self) -> u64 {
        match *self {
            Operation::Search(k) | Operation::Insert(k) | Operation::Delete(k) => k,
        }
    }

    /// Whether the operation may modify the tree.
    pub fn is_update(&self) -> bool {
        !matches!(self, Operation::Search(_))
    }
}

/// Configuration of an operation stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpsConfig {
    /// Probability an operation is a search.
    pub q_search: f64,
    /// Probability an operation is an insert.
    pub q_insert: f64,
    /// Probability an operation is a delete.
    pub q_delete: f64,
    /// Key distribution.
    pub keys: KeyDist,
}

impl OpsConfig {
    /// The paper's mix (`.3/.5/.2`) over a uniform key space.
    pub fn paper(key_space: u64) -> Self {
        OpsConfig {
            q_search: 0.3,
            q_insert: 0.5,
            q_delete: 0.2,
            keys: KeyDist::Uniform {
                lo: 0,
                hi: key_space,
            },
        }
    }

    /// Validates that the proportions form a distribution.
    pub fn is_valid(&self) -> bool {
        mix_is_valid([self.q_search, self.q_insert, self.q_delete])
    }
}

/// Whether search/insert/delete proportions form a distribution.
pub(crate) fn mix_is_valid(vals: [f64; 3]) -> bool {
    vals.iter().all(|v| (0.0..=1.0).contains(v)) && (vals.iter().sum::<f64>() - 1.0).abs() < 1e-9
}

/// A reproducible, infinite stream of operations.
///
/// Delete operations target keys known to have been inserted (tracked in a
/// bounded pool) so deletes usually hit, matching a B-tree whose
/// construction and concurrent phases share the insert:delete ratio.
#[derive(Debug, Clone)]
pub struct OpStream {
    cfg: OpsConfig,
    rng: Rng,
    seq_counter: u64,
    /// Pool of recently inserted keys for deletes to target.
    live_pool: Vec<u64>,
    pool_cap: usize,
    /// Transaction size: a commit point falls after every `txn` drawn
    /// operations.
    txn: usize,
    /// Operations drawn so far (for commit-point bookkeeping).
    drawn: u64,
}

impl OpStream {
    /// Creates a stream from a config and seed.
    ///
    /// # Panics
    /// Panics when the proportions do not form a distribution.
    pub fn new(cfg: OpsConfig, seed: u64) -> Self {
        assert!(cfg.is_valid(), "invalid operation mix {cfg:?}");
        OpStream {
            cfg,
            rng: Rng::new(seed),
            seq_counter: 0,
            live_pool: Vec::new(),
            pool_cap: 4096,
            txn: 1,
            drawn: 0,
        }
    }

    /// Sets the transaction size: a commit point falls after every `txn`
    /// operations (the paper's §7 recovery variants retain exclusive
    /// latches between commit points). `txn = 1` commits after every
    /// operation — the default, and a no-op for non-recovery protocols.
    ///
    /// # Panics
    /// Panics when `txn == 0`.
    pub fn with_txn(mut self, txn: usize) -> Self {
        assert!(txn >= 1, "transaction size must be at least 1");
        self.txn = txn;
        self
    }

    /// The configured transaction size.
    pub fn txn(&self) -> usize {
        self.txn
    }

    /// Starts the sequential-key counter at `base` instead of 0, so a
    /// stream generating [`KeyDist::Sequential`] keys appends *after* a
    /// prefill that already consumed counters `0..base` (without this,
    /// every generated insert would collide with a prefilled key and
    /// degenerate into replacement). No-op for other distributions.
    pub fn with_seq_base(mut self, base: u64) -> Self {
        self.seq_counter = base;
        self
    }

    /// Whether the most recently drawn operation ends a transaction
    /// (callers commit when this is true). Trivially true between
    /// transactions and before the first draw.
    pub fn at_commit_point(&self) -> bool {
        self.drawn.is_multiple_of(self.txn as u64)
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Operation {
        self.drawn += 1;
        let u = self.rng.next_f64();
        let key = self.cfg.keys.sample(&mut self.rng, self.seq_counter);
        if u < self.cfg.q_search {
            Operation::Search(key)
        } else if u < self.cfg.q_search + self.cfg.q_insert {
            self.seq_counter += 1;
            self.remember(key);
            Operation::Insert(key)
        } else {
            // Prefer deleting a key we know was inserted.
            let victim = self.pick_live().unwrap_or(key);
            Operation::Delete(victim)
        }
    }

    /// Generates the construction sequence the paper's simulator uses to
    /// grow a tree to roughly `target_items` items: inserts and deletes in
    /// the configured ratio, continuing until the net count reaches the
    /// target.
    pub fn construction_sequence(&mut self, target_items: usize) -> Vec<Operation> {
        let updates = self.cfg.q_insert + self.cfg.q_delete;
        assert!(
            self.cfg.q_insert > self.cfg.q_delete,
            "construction needs net growth (q_insert > q_delete)"
        );
        let mut out = Vec::new();
        let mut net = 0usize;
        while net < target_items {
            let u = self.rng.next_f64() * updates;
            let key = self.cfg.keys.sample(&mut self.rng, self.seq_counter);
            if u < self.cfg.q_insert {
                self.seq_counter += 1;
                self.remember(key);
                out.push(Operation::Insert(key));
                net += 1;
            } else if let Some(victim) = self.pick_live() {
                out.push(Operation::Delete(victim));
                net = net.saturating_sub(1);
            }
        }
        out
    }

    /// Takes `n` operations as a vector (for traces).
    pub fn take_ops(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }

    fn remember(&mut self, key: u64) {
        if self.live_pool.len() < self.pool_cap {
            self.live_pool.push(key);
        } else {
            let idx = self.rng.next_below(self.pool_cap as u64) as usize;
            self.live_pool[idx] = key;
        }
    }

    fn pick_live(&mut self) -> Option<u64> {
        if self.live_pool.is_empty() {
            return None;
        }
        let idx = self.rng.next_below(self.live_pool.len() as u64) as usize;
        Some(self.live_pool.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> OpStream {
        OpStream::new(OpsConfig::paper(1_000_000), seed)
    }

    #[test]
    fn mix_proportions_respected() {
        let mut s = stream(1);
        let n = 100_000;
        let (mut qs, mut qi, mut qd) = (0u32, 0u32, 0u32);
        for _ in 0..n {
            match s.next_op() {
                Operation::Search(_) => qs += 1,
                Operation::Insert(_) => qi += 1,
                Operation::Delete(_) => qd += 1,
            }
        }
        let f = |c: u32| c as f64 / n as f64;
        assert!((f(qs) - 0.3).abs() < 0.01, "searches {}", f(qs));
        assert!((f(qi) - 0.5).abs() < 0.01, "inserts {}", f(qi));
        assert!((f(qd) - 0.2).abs() < 0.01, "deletes {}", f(qd));
    }

    #[test]
    fn deterministic_from_seed() {
        let a: Vec<Operation> = stream(99).take_ops(1000);
        let b: Vec<Operation> = stream(99).take_ops(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        assert_ne!(stream(1).take_ops(50), stream(2).take_ops(50));
    }

    #[test]
    fn construction_reaches_target_net_size() {
        let mut s = stream(7);
        let seq = s.construction_sequence(5000);
        let net: i64 = seq
            .iter()
            .map(|op| match op {
                Operation::Insert(_) => 1,
                Operation::Delete(_) => -1,
                Operation::Search(_) => 0,
            })
            .sum();
        assert!(net >= 5000, "net inserts {net}");
        // Deletes appear in roughly the configured ratio to inserts.
        let dels = seq
            .iter()
            .filter(|o| matches!(o, Operation::Delete(_)))
            .count();
        let ins = seq
            .iter()
            .filter(|o| matches!(o, Operation::Insert(_)))
            .count();
        let ratio = dels as f64 / ins as f64;
        assert!(
            (ratio - 0.4).abs() < 0.05,
            "delete:insert ratio {ratio} (expect .2/.5)"
        );
    }

    #[test]
    fn deletes_target_inserted_keys() {
        let mut s = stream(11);
        let mut inserted = std::collections::HashSet::new();
        let mut hits = 0;
        let mut total = 0;
        for _ in 0..10_000 {
            match s.next_op() {
                Operation::Insert(k) => {
                    inserted.insert(k);
                }
                Operation::Delete(k) => {
                    total += 1;
                    if inserted.contains(&k) {
                        hits += 1;
                    }
                }
                Operation::Search(_) => {}
            }
        }
        assert!(total > 0);
        assert!(
            hits as f64 / total as f64 > 0.9,
            "deletes should usually hit inserted keys: {hits}/{total}"
        );
    }

    #[test]
    fn txn_commit_points_fall_every_k_ops() {
        let mut s = stream(5).with_txn(3);
        assert_eq!(s.txn(), 3);
        assert!(s.at_commit_point(), "trivially at a boundary before ops");
        let mut commits = 0;
        for i in 1..=12 {
            s.next_op();
            if s.at_commit_point() {
                commits += 1;
                assert_eq!(i % 3, 0, "commit at op {i}");
            }
        }
        assert_eq!(commits, 4);
        // Default is txn = 1: every op is a commit point.
        let mut s = stream(5);
        s.next_op();
        assert!(s.at_commit_point());
    }

    #[test]
    #[should_panic(expected = "transaction size")]
    fn zero_txn_rejected() {
        let _ = stream(0).with_txn(0);
    }

    #[test]
    fn seq_base_offsets_generated_keys_past_a_prefill() {
        let cfg = OpsConfig {
            q_search: 0.0,
            q_insert: 1.0,
            q_delete: 0.0,
            keys: KeyDist::Sequential,
        };
        let mut s = OpStream::new(cfg, 3).with_seq_base(500);
        for i in 0..20u64 {
            assert_eq!(s.next_op(), Operation::Insert(500 + i));
        }
    }

    #[test]
    fn operation_accessors() {
        assert_eq!(Operation::Search(5).key(), 5);
        assert!(!Operation::Search(5).is_update());
        assert!(Operation::Insert(1).is_update());
        assert!(Operation::Delete(1).is_update());
    }

    #[test]
    #[should_panic(expected = "invalid operation mix")]
    fn invalid_mix_panics() {
        let cfg = OpsConfig {
            q_search: 0.9,
            q_insert: 0.9,
            q_delete: 0.0,
            keys: KeyDist::Uniform { lo: 0, hi: 10 },
        };
        let _ = OpStream::new(cfg, 0);
    }
}
