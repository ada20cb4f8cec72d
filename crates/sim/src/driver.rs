//! The simulation core: one descent machine for every concurrent B-tree
//! algorithm, driven by a future-event list over the per-node FCFS R/W
//! lock table and the simulated B+-tree.
//!
//! Every operation is a little state machine. Lock *requests* either grant
//! immediately or park the operation in the node's FCFS queue; lock
//! *releases* surface queued grants, which the driver dispatches back into
//! the machine. Node work (searching, modifying, splitting) is an
//! exponentially distributed service delay scheduled on the event list;
//! structural mutations apply at the instant the corresponding service
//! completes, while the responsible locks are held.
//!
//! Every protocol runs the same traversal; four predicates on an
//! operation's policy column (read for searches, update otherwise) and a
//! step's lock mode (`descent_mode`) are all that differ:
//!
//! * **Exclusive crab** (`exclusive_crab`: a `Crab` update, or an
//!   `OptimisticLeaf` update's redo): W-lock crabbing; the retained chain
//!   is released as soon as a newly granted child is safe (never, under
//!   `retains_everything`), and restructuring walks it upward. Every
//!   other coupled descent drops its one retained parent at each grant;
//!   an optimistic first pass that finds its leaf unsafe pays an
//!   inspection, releases, and redoes itself as an exclusive crab.
//! * **Link steps** (`link_steps`, Lehman–Yao): one lock at a time; a
//!   descent releases a node *before* requesting the next and leaves a
//!   node that no longer covers the key by its right link (a search and
//!   a crossing per hop); a split is a half-split, then a separate
//!   W-locked parent update from the remembered descent stack.
//! * **Latch-free reads** (`latch_free`, an `Olc` read): each node visit
//!   is a search service with no lock request, validated when it
//!   completes (a writer holding or queued on the node fails the window
//!   and the visit is redone, counted in `redos`); stale routing chases
//!   right as link steps do.
//!
//! §7 recovery (`RecoveryConfig`) retains a finished update's exclusive
//! locks — all of them, or the leaf's only — until its transaction
//! commits, an exponential `t_trans` later.

use crate::costs::SimCosts;
use crate::events::EventQueue;
use crate::locks::{Grant, LockTable, Mode, NodeId, OpId};
use crate::runner::SimConfig;
use crate::stats::{BatchMeans, TimeWeighted};
use crate::tree::SimTree;
use crate::{Result, SimError};
use cbtree_analysis::{RecoveryConfig, RecoveryMode};
use cbtree_btree_model::{Policy, ReadPolicy, UpdatePolicy};
use cbtree_obs::stats::Welford;
use cbtree_workload::{Exponential, Operation, Rng};

/// What an operation is currently doing (the service that is running or
/// about to run at `cur`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Searching node `cur` (service `Se(level)`).
    Search,
    /// Optimistic first pass inspecting an unsafe leaf before restarting
    /// (service `Se(1)`).
    Inspect,
    /// Modifying the leaf (service `M`).
    ModifyLeaf,
    /// Half-splitting `cur` (service `Sp(level)`).
    Split,
    /// Link-type ascent: modifying an internal node (service `modify`).
    AscendModify,
}

#[derive(Debug, Clone)]
struct OpState {
    operation: Operation,
    arrived: f64,
    phase: Phase,
    /// Node of current interest (being waited for, serviced, or split).
    cur: NodeId,
    /// Locks currently held, in acquisition (root→leaf) order.
    held: Vec<NodeId>,
    /// Link-type: internal nodes visited on the way down (ascent hints).
    path: Vec<NodeId>,
    /// Link-type ascent state: separator/sibling awaiting insertion.
    pending: Option<(u64, NodeId)>,
    /// Optimistic: true during the W-locked redo descent.
    redo: bool,
    /// Link crossings performed by this operation.
    crossings: u32,
    /// Completion sequence number (None while in flight).
    finished: Option<u64>,
}

impl OpState {
    /// The key a node's range is tested against: the separator being
    /// posted while ascending, the operation's own key otherwise.
    fn chase_key(&self) -> u64 {
        self.pending.map_or(self.operation.key(), |(sep, _)| sep)
    }
}

/// Events on the future-event list.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A new operation enters the system.
    Arrival,
    /// The service `op` was running has completed.
    Done(OpId),
    /// The transaction enclosing `op` commits; retained locks release.
    Commit(OpId),
    /// `op` was granted a root that split while it queued: it releases
    /// that node and descends again from today's root.
    Restart(OpId),
}

/// Aggregate statistics of one simulation run (measured window only).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunStats {
    /// Response times by kind.
    pub resp_search: Welford,
    /// Response times of inserts.
    pub resp_insert: Welford,
    /// Response times of deletes.
    pub resp_delete: Welford,
    /// Per-level lock statistics, indexed by level−1.
    pub levels: Vec<LevelStats>,
    /// Time-weighted root writer-present indicator (the simulated ρ_w(h)).
    pub root_writer: TimeWeighted,
    /// Time-weighted number of in-flight operations.
    pub concurrency: TimeWeighted,
    /// Total link crossings.
    pub crossings: u64,
    /// Redo descents (Optimistic) or failed read windows (OLC).
    pub redos: u64,
    /// Updates completed (for redo-rate normalization).
    pub updates_completed: u64,
    /// All operations completed in the measured window.
    pub completed: u64,
    /// Wall-clock span of the measured window.
    pub measured_start: f64,
    /// Peak number of in-flight operations.
    pub max_in_flight: usize,
}

/// One level's lock statistics over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LevelStats {
    /// Shared-lock waits, one per grant.
    pub wait_r: Welford,
    /// Exclusive-lock waits, one per grant.
    pub wait_w: Welford,
    /// Total *writer-present* time: per node, the union of intervals a
    /// writer held **or waited for** its lock, summed over the level.
    pub w_present: f64,
}

impl RunStats {
    fn level(&mut self, level: usize) -> &mut LevelStats {
        if self.levels.len() < level {
            self.levels.resize(level, LevelStats::default());
        }
        &mut self.levels[level - 1]
    }

    fn record_wait(&mut self, level: usize, mode: Mode, waited: f64) {
        let l = self.level(level);
        match mode {
            Mode::Shared => l.wait_r.add(waited),
            Mode::Exclusive => l.wait_w.add(waited),
        }
    }
}

/// The simulator: tree + locks + events + operation table.
pub(crate) struct Simulator {
    /// The simulated B+-tree.
    pub tree: SimTree,
    locks: LockTable,
    costs: SimCosts,
    /// The protocol's row of the policy table; retention is `recovery`'s.
    policy: Policy,
    recovery: RecoveryConfig,
    events: EventQueue<Event>,
    ops: Vec<OpState>,
    now: f64,
    rng: Rng,
    in_flight: usize,
    completions: u64,
    warmup: u64,
    /// Exclusive requests currently live (from request to release),
    /// used to tell exclusive releases apart from shared ones.
    w_live: std::collections::BTreeSet<(OpId, NodeId)>,
    /// The first broken invariant an operation ran into, if any; the
    /// event loop stops and reports it.
    fault: Option<String>,
    /// Per-node writer-present state: `(writer count, presence start)`.
    /// The count covers holders *and* queued writers; presence starts
    /// when it becomes 1 and is charged to the level when it returns to
    /// 0. A `BTreeMap` keeps the end-of-run finalization order
    /// deterministic (float sums depend on addition order).
    w_present: std::collections::BTreeMap<NodeId, (u32, f64)>,
    /// Batch-means accumulators (autocorrelation-robust CIs within one
    /// run) for search, insert and delete response times; restarted with
    /// the measured window.
    pub batches: [BatchMeans; 3],
    /// Statistics (reset at the end of warmup).
    pub stats: RunStats,
}

impl Simulator {
    /// A simulator of `cfg`'s algorithm, costs, warmup, recovery and seed
    /// over `tree`.
    pub fn new(cfg: &SimConfig, tree: SimTree) -> Self {
        // ~20 batches over the measured window.
        let batch_size = (cfg.measured_ops / 20).max(10);
        Simulator {
            tree,
            locks: LockTable::new(),
            costs: cfg.costs.clone(),
            policy: cfg.protocol.policy(),
            recovery: cfg.recovery,
            events: EventQueue::new(),
            ops: Vec::new(),
            now: 0.0,
            rng: Rng::new(cfg.seed ^ 0xD1FF_EE75_0000_0001),
            in_flight: 0,
            completions: 0,
            warmup: cfg.warmup_ops,
            w_live: std::collections::BTreeSet::new(),
            fault: None,
            w_present: std::collections::BTreeMap::new(),
            batches: std::array::from_fn(|_| BatchMeans::new(batch_size)),
            stats: RunStats::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules the arrival-event at `time` (the runner drives arrivals).
    pub fn schedule_arrival(&mut self, time: f64) {
        self.events.schedule(time, Event::Arrival);
    }

    /// Runs until `target_completions` operations have finished or the
    /// event list drains. `spawn` is called at each arrival event to
    /// produce the next operation and the next arrival time.
    /// Fails with [`SimError::Exploded`] when more than `max_concurrent`
    /// operations are in flight, and with [`SimError::Corrupted`] as soon
    /// as an operation modifies a leaf that does not cover its key.
    pub fn run_until(
        &mut self,
        target_completions: u64,
        max_concurrent: usize,
        mut spawn: impl FnMut() -> (Operation, f64),
    ) -> Result<()> {
        while self.completions < target_completions {
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            // Advance time-weighted signals over [now, t) *before*
            // applying the event (lock/occupancy state is constant on the
            // interval).
            let writer = if self.locks.writer_present(self.tree.root()) {
                1.0
            } else {
                0.0
            };
            self.stats.root_writer.advance(t, writer);
            self.stats.concurrency.advance(t, self.in_flight as f64);
            self.now = t;

            match ev {
                Event::Arrival => {
                    let (operation, next_at) = spawn();
                    self.events.schedule(next_at, Event::Arrival);
                    self.admit(operation);
                    if self.in_flight > max_concurrent {
                        return Err(SimError::Exploded {
                            max_concurrent,
                            at_time: self.now,
                            completed: self.completions as usize,
                        });
                    }
                }
                Event::Done(op) => self.service_done(op),
                Event::Commit(op) => self.release_all(op),
                Event::Restart(op) => {
                    let stale = self.ops[op].cur;
                    self.release(op, stale);
                    self.start_descent(op);
                }
            }
            if let Some(detail) = self.fault.take() {
                return Err(SimError::Corrupted {
                    at_time: self.now,
                    detail,
                });
            }
        }
        Ok(())
    }

    /// Records a fault unless `leaf` covers `op`'s key (checked before
    /// every leaf modification).
    fn check_covers(&mut self, op: OpId, leaf: NodeId) {
        let operation = self.ops[op].operation;
        if !self.tree.node(leaf).covers(operation.key()) && self.fault.is_none() {
            self.fault = Some(format!(
                "{operation:?} reached leaf {leaf:?}, which does not cover its key"
            ));
        }
    }

    fn admit(&mut self, operation: Operation) {
        let id = self.ops.len();
        self.ops.push(OpState {
            operation,
            arrived: self.now,
            phase: Phase::Search,
            cur: self.tree.root(),
            held: Vec::new(),
            path: Vec::new(),
            pending: None,
            redo: false,
            crossings: 0,
            finished: None,
        });
        self.in_flight += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.in_flight);
        self.start_descent(id);
    }

    /// (Re)starts an operation's descent from the current root.
    fn start_descent(&mut self, op: OpId) {
        self.ops[op].path.clear();
        self.step_to(op, self.tree.root());
    }

    /// Requests a lock; dispatches the grant immediately when uncontended.
    fn acquire(&mut self, op: OpId, node: NodeId, mode: Mode) {
        if mode == Mode::Exclusive && self.w_live.insert((op, node)) {
            // A writer is now present at `node` (queued or holding —
            // both count toward ρ_w) from this instant until its count
            // returns to zero.
            let entry = self.w_present.entry(node).or_insert((0, self.now));
            if entry.0 == 0 {
                entry.1 = self.now;
            }
            entry.0 += 1;
        }
        if self.locks.request(node, op, mode, self.now) {
            let level = self.tree.node(node).level;
            self.stats.record_wait(level, mode, 0.0);
            self.granted(op, node);
        }
        // else: parked; a future release will surface the grant.
    }

    /// Releases one node and dispatches any surfaced grants.
    fn release(&mut self, op: OpId, node: NodeId) {
        if self.w_live.remove(&(op, node)) {
            let entry = self
                .w_present
                .get_mut(&node)
                .expect("live exclusive request without presence state");
            entry.0 -= 1;
            if entry.0 == 0 {
                let present = self.now - entry.1.max(self.stats.measured_start);
                self.w_present.remove(&node);
                if present > 0.0 {
                    let level = self.tree.node(node).level;
                    self.stats.level(level).w_present += present;
                }
            }
        }
        let grants = self.locks.release(node, op, self.now);
        self.dispatch_grants(grants);
    }

    /// Releases every lock `op` holds, root first.
    fn release_all(&mut self, op: OpId) {
        let held = std::mem::take(&mut self.ops[op].held);
        for node in held {
            self.release(op, node);
        }
    }

    fn dispatch_grants(&mut self, grants: Vec<Grant>) {
        for g in grants {
            let level = self.tree.node(g.node).level;
            self.stats.record_wait(level, g.mode, g.waited);
            // A granted writer was already counted present at request
            // time; nothing changes here.
            self.granted(g.op, g.node);
        }
    }

    /// Closes out writer-presence intervals still open at the end of the
    /// run, charging each with its time up to `now` (clipped to the
    /// measured window). Call once, after the event loop, before reading
    /// [`LevelStats::w_present`].
    pub fn finalize_w_present(&mut self) {
        let open = std::mem::take(&mut self.w_present);
        self.w_live.clear();
        for (node, (_, since)) in open {
            let present = self.now - since.max(self.stats.measured_start);
            if present > 0.0 {
                let level = self.tree.node(node).level;
                self.stats.level(level).w_present += present;
            }
        }
    }

    /// Schedules the completion of a service with the given mean.
    fn schedule_service(&mut self, op: OpId, mean: f64) {
        let dt = self.costs.sample(mean, &mut self.rng);
        self.events.schedule(self.now + dt, Event::Done(op));
    }

    /// An operation finished; record stats and retire it. Under §7
    /// recovery, the update's retained exclusive locks stay held until
    /// the enclosing transaction commits (an exponential time later);
    /// the operation's own response time ends now regardless.
    fn complete(&mut self, op: OpId) {
        let is_update = self.ops[op].operation.is_update();
        let (retain_leaf, retain_upper) = match self.recovery.mode {
            RecoveryMode::None => (false, false),
            RecoveryMode::Naive => (is_update, is_update),
            RecoveryMode::LeafOnly => (is_update, false),
        };
        if retain_leaf || retain_upper {
            let held = std::mem::take(&mut self.ops[op].held);
            let mut retained = Vec::new();
            for node in held {
                let keep = if self.tree.node(node).is_leaf() {
                    retain_leaf
                } else {
                    retain_upper
                };
                if keep {
                    retained.push(node);
                } else {
                    self.release(op, node);
                }
            }
            if !retained.is_empty() {
                self.ops[op].held = retained;
                let dt = Exponential::with_mean(self.recovery.t_trans).sample(&mut self.rng);
                self.events.schedule(self.now + dt, Event::Commit(op));
            }
        } else {
            self.release_all(op);
        }
        debug_assert!(self.ops[op].finished.is_none());
        self.ops[op].finished = Some(self.completions);
        self.completions += 1;
        self.in_flight -= 1;
        let o = &self.ops[op];
        let rt = self.now - o.arrived;
        if self.completions == self.warmup {
            // Warmup boundary: restart the measured window (fresh batch
            // accumulators with the same batch size).
            self.batches = self
                .batches
                .each_ref()
                .map(|b| BatchMeans::new(b.batch_size()));
            self.stats = RunStats {
                max_in_flight: self.stats.max_in_flight,
                root_writer: TimeWeighted::starting_at(self.now),
                concurrency: TimeWeighted::starting_at(self.now),
                measured_start: self.now,
                ..Default::default()
            };
            return;
        }
        if self.completions < self.warmup {
            return;
        }
        self.stats.completed += 1;
        self.stats.crossings += o.crossings as u64;
        let (resp, batch) = match o.operation {
            Operation::Search(_) => (&mut self.stats.resp_search, &mut self.batches[0]),
            Operation::Insert(_) => (&mut self.stats.resp_insert, &mut self.batches[1]),
            Operation::Delete(_) => (&mut self.stats.resp_delete, &mut self.batches[2]),
        };
        resp.add(rt);
        batch.add(rt);
        if is_update {
            self.stats.updates_completed += 1;
        }
    }

    // ------------------------------------------------------------------
    // The descent machine
    // ------------------------------------------------------------------

    /// Whether `op` crabs with W locks and restructures along its chain.
    fn exclusive_crab(&self, op: OpId) -> bool {
        let o = &self.ops[op];
        o.operation.is_update()
            && match self.policy.update {
                UpdatePolicy::Crab { .. } => true,
                UpdatePolicy::OptimisticLeaf => o.redo,
                UpdatePolicy::Link => false,
            }
    }

    /// Whether `op` takes link steps (Lehman–Yao).
    fn link_steps(&self, op: OpId) -> bool {
        if self.ops[op].operation.is_update() {
            self.policy.update == UpdatePolicy::Link
        } else {
            self.policy.read == ReadPolicy::Link
        }
    }

    /// Whether `op` visits nodes with no lock request.
    fn latch_free(&self, op: OpId) -> bool {
        !self.ops[op].operation.is_update() && self.policy.read == ReadPolicy::Olc
    }

    /// Whether `op` retains every lock until it completes.
    fn retains_everything(&self, op: OpId) -> bool {
        if self.ops[op].operation.is_update() {
            self.policy.update == UpdatePolicy::Crab { retain_all: true }
        } else {
            self.policy.read == ReadPolicy::RetainAll
        }
    }

    /// Whether `node` is safe for `op` (lock-coupling release rule).
    fn safe_for(&mut self, op: OpId, node: NodeId) -> bool {
        let cap = self.tree.capacity;
        let n = self.tree.node(node);
        match self.ops[op].operation {
            Operation::Search(_) => true,
            Operation::Insert(_) => !n.insert_unsafe(cap),
            Operation::Delete(_) => !n.delete_unsafe(),
        }
    }

    /// Lock mode `op` requests on `node`: an update writes on every node
    /// of an exclusive crab, on a leaf, and on an ascent parent; every
    /// other request reads.
    fn descent_mode(&mut self, op: OpId, node: NodeId) -> Mode {
        let o = &self.ops[op];
        let writes = o.operation.is_update()
            && (self.exclusive_crab(op) || o.pending.is_some() || self.tree.node(node).is_leaf());
        if writes {
            Mode::Exclusive
        } else {
            Mode::Shared
        }
    }

    /// Moves `op`'s descent on to `node`: a latch-free visit, or a lock
    /// request — in link order after releasing the node it leaves, in
    /// coupling order while still holding it.
    fn step_to(&mut self, op: OpId, node: NodeId) {
        if self.latch_free(op) {
            self.visit(op, node);
            return;
        }
        if self.link_steps(op) {
            self.release_all(op);
        }
        let mode = self.descent_mode(op, node);
        self.acquire(op, node, mode);
    }

    /// One latch-free OLC node visit: pay the node's search service with
    /// no lock request — the version snapshot opens here and is
    /// validated when the service completes.
    fn visit(&mut self, op: OpId, node: NodeId) {
        self.ops[op].cur = node;
        self.ops[op].phase = Phase::Search;
        let level = self.tree.node(node).level;
        let se = self.costs.se(level, self.tree.height());
        self.schedule_service(op, se);
    }

    /// `op` was granted `node`: apply the release rule, then start the
    /// service the node needs.
    fn granted(&mut self, op: OpId, node: NodeId) {
        // A coupled descent's first grant is on the node that was the
        // root when it queued. If the root split meanwhile, that node
        // covers only the left half now and has a parent the descent
        // never latched: start again from today's root, as the live
        // engine's root revalidation does. (Link-type descents recover by
        // chasing right instead.) The restart is an event at the same
        // instant rather than a call, so a queue of such descents
        // restarts one by one in arrival order instead of recursing
        // through each other's releases.
        if !self.link_steps(op) && self.ops[op].held.is_empty() && node != self.tree.root() {
            self.ops[op].cur = node;
            self.events.schedule(self.now, Event::Restart(op));
            return;
        }
        // Release rule: an exclusive crab drops its whole retained chain
        // iff the child is safe; any other coupled descent (a search, or
        // an Optimistic first pass) drops its one retained parent; strict
        // 2PL drops nothing until completion. A link step released its
        // node before requesting this one.
        if !self.ops[op].held.is_empty()
            && !self.retains_everything(op)
            && (!self.exclusive_crab(op) || self.safe_for(op, node))
        {
            self.release_all(op);
        }
        self.ops[op].held.push(node);
        self.ops[op].cur = node;
        let height = self.tree.height();
        let key = self.ops[op].chase_key();
        let n = self.tree.node(node);
        let (level, covers) = (n.level, n.covers(key));
        let o = &self.ops[op];
        let (phase, mean) = if self.link_steps(op) && !covers {
            // Reached a node whose range moved left of the key: pay a
            // search to discover that, then chase the right link.
            (Phase::Search, self.costs.se(level, height))
        } else if o.pending.is_some() {
            // Ascent: this node will receive the separator.
            (Phase::AscendModify, self.costs.modify(level, height))
        } else if level == 1 && o.operation.is_update() {
            if self.exclusive_crab(op) || self.link_steps(op) || self.safe_for(op, node) {
                (Phase::ModifyLeaf, self.costs.m(height))
            } else {
                // Optimistic first pass on an unsafe leaf: inspect, then
                // redo as an exclusive crab.
                (Phase::Inspect, self.costs.se(1, height))
            }
        } else {
            (Phase::Search, self.costs.se(level, height))
        };
        self.ops[op].phase = phase;
        self.schedule_service(op, mean);
    }

    /// The service `op` was running at `cur` completed.
    fn service_done(&mut self, op: OpId) {
        let cur = self.ops[op].cur;
        match self.ops[op].phase {
            Phase::Search => {
                if self.latch_free(op) && self.locks.writer_present(cur) {
                    // The OLC read window closed with a writer holding or
                    // queued on the node — the discrete-event surrogate
                    // for "the version moved or is moving": the visit
                    // restarts, counted as a redo.
                    self.stats.redos += 1;
                    self.visit(op, cur);
                    return;
                }
                let chases = self.link_steps(op) || self.latch_free(op);
                let (key, chase_key) = (self.ops[op].operation.key(), self.ops[op].chase_key());
                let n = self.tree.node(cur);
                if chases && !n.covers(chase_key) {
                    // Chase right (the hop's search was just paid).
                    let next = n.right.expect("finite high key implies a right link");
                    self.ops[op].crossings += 1;
                    self.step_to(op, next);
                } else if n.is_leaf() {
                    // A completed search. (Update leaves go via
                    // ModifyLeaf or Inspect.)
                    self.complete(op);
                } else {
                    let child = n.child_for(key);
                    if self.link_steps(op) {
                        self.ops[op].path.push(cur);
                    }
                    self.step_to(op, child);
                }
            }
            Phase::Inspect => {
                // The leaf was unsafe: release everything and redo with W
                // locks.
                self.stats.redos += 1;
                self.release_all(op);
                self.ops[op].redo = true;
                self.start_descent(op);
            }
            Phase::ModifyLeaf => {
                self.check_covers(op, cur);
                // Merge-at-empty with lazy reclamation: a delete that
                // empties the leaf leaves it in place.
                debug_assert!(self.ops[op].operation.is_update());
                if self.tree.modify_leaf(cur, self.ops[op].operation) {
                    self.ops[op].phase = Phase::Split;
                    let sp = self.costs.sp(1, self.tree.height());
                    self.schedule_service(op, sp);
                    return;
                }
                self.complete(op);
            }
            Phase::Split if self.link_steps(op) => {
                let (sib, sep) = self.tree.half_split(cur);
                // Release the split node, then W-lock the parent to post
                // the separator.
                self.release_all(op);
                let parent = match self.ops[op].path.pop() {
                    Some(hint) => hint,
                    // No ancestor was recorded: `cur` was the root when
                    // this descent started.
                    None if cur == self.tree.root() => {
                        self.tree.grow_root(sep, sib);
                        return self.complete(op);
                    }
                    // The tree grew in the meantime; find today's
                    // ancestor at the right level and ascend.
                    None => {
                        let level = self.tree.node(cur).level + 1;
                        self.find_ascend_target(level, sep)
                    }
                };
                self.ops[op].pending = Some((sep, sib));
                self.acquire(op, parent, Mode::Exclusive);
            }
            Phase::Split => {
                let (sib, sep) = self.tree.half_split(cur);
                // The retained chain holds the parent just above `cur`.
                let idx = self.ops[op]
                    .held
                    .iter()
                    .position(|&n| n == cur)
                    .expect("splitting a held node");
                if idx == 0 {
                    // `cur` headed the retained chain: it was the root
                    // (or the chain's top, which safe-release guarantees
                    // had room — only the true root can overflow here).
                    debug_assert!(
                        cur == self.tree.root(),
                        "chain top overflowed but was not root"
                    );
                    self.tree.grow_root(sep, sib);
                    self.complete(op);
                } else {
                    let parent = self.ops[op].held[idx - 1];
                    self.post_separator(op, parent, sep, sib);
                }
            }
            Phase::AscendModify => {
                let (sep, sib) = self.ops[op].pending.take().expect("ascending");
                self.post_separator(op, cur, sep, sib);
            }
        }
    }

    /// Inserts a split's separator into `parent`, which `op` holds, and
    /// splits `parent` in turn if that overfills it.
    fn post_separator(&mut self, op: OpId, parent: NodeId, sep: u64, sib: NodeId) {
        if self.tree.insert_separator(parent, sep, sib) {
            self.ops[op].cur = parent;
            self.ops[op].phase = Phase::Split;
            let level = self.tree.node(parent).level;
            let sp = self.costs.sp(level, self.tree.height());
            self.schedule_service(op, sp);
        } else {
            self.complete(op);
        }
    }

    /// Finds a current ancestor node at `level` routing `key` — used only
    /// in the rare corner where a split's node was the descent-time root
    /// but the tree has since grown. Navigation cost is omitted
    /// (document: the event is vanishingly rare at steady state).
    fn find_ascend_target(&mut self, level: usize, key: u64) -> NodeId {
        let mut cur = self.tree.root();
        while self.tree.node(cur).level > level {
            cur = self.tree.node(cur).child_for(key);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_btree_model::Protocol;
    use cbtree_workload::{OpStream, OpsConfig, PoissonArrivals};

    fn small_tree(seed: u64) -> SimTree {
        let mut stream = OpStream::new(OpsConfig::paper(1_000_000), seed);
        let seq = stream.construction_sequence(2000);
        SimTree::build(13, &seq)
    }

    fn config(alg: Protocol, warmup_ops: u64) -> SimConfig {
        SimConfig {
            warmup_ops,
            ..SimConfig::paper(alg, 1.0, 42)
        }
    }

    /// Runs `sim` until `n` operations of the paper mix, arriving at
    /// `rate`, have completed.
    fn drive_on(
        mut sim: Simulator,
        rate: f64,
        n: u64,
        max_concurrent: usize,
    ) -> (Simulator, Result<()>) {
        let mut arr = PoissonArrivals::new(rate, 1);
        let mut stream = OpStream::new(OpsConfig::paper(1_000_000), 2);
        sim.schedule_arrival(arr.next_arrival());
        let res = sim.run_until(n, max_concurrent, move || {
            (stream.next_op(), arr.next_arrival())
        });
        (sim, res)
    }

    fn drive(alg: Protocol, rate: f64, n: u64) -> Simulator {
        let sim = Simulator::new(&config(alg, 100), small_tree(7));
        let (sim, res) = drive_on(sim, rate, n, 100_000);
        res.expect("stable at this rate");
        sim
    }

    #[test]
    fn naive_completes_and_keeps_tree_valid() {
        let mut sim = drive(Protocol::LockCoupling, 0.05, 1200);
        assert!(sim.completions >= 1200);
        sim.tree.check_invariants().unwrap();
        assert!(sim.stats.resp_search.count() > 0);
        assert!(sim.stats.resp_insert.count() > 0);
    }

    #[test]
    fn root_splits_under_queued_descents_keep_every_key_findable() {
        // A tiny tree under an insert-heavy load grows several levels
        // while descents queue on its root.
        for alg in Protocol::ALL_EXTENDED {
            let mut stream = OpStream::new(OpsConfig::paper(1_000_000), 5);
            let tree = SimTree::build(3, &stream.construction_sequence(8));
            let before = tree.height();
            let sim = Simulator::new(&config(alg, 0), tree);
            let (mut sim, res) = drive_on(sim, 0.3, 3_000, 100_000);
            res.unwrap_or_else(|e| panic!("{alg:?}: {e}"));
            assert!(sim.tree.height() >= before + 3, "{alg:?}: the root split");
            sim.tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn optimistic_completes_and_counts_redos() {
        let mut sim = drive(Protocol::OptimisticDescent, 0.2, 2000);
        sim.tree.check_invariants().unwrap();
        // With N=13 and the paper mix, some redos must occur over 2000
        // operations (Pr[F(1)] ≈ 7%).
        assert!(sim.stats.redos > 0, "expected some redo descents");
    }

    #[test]
    fn link_completes_under_high_load() {
        let mut sim = drive(Protocol::BLink, 1.0, 3000);
        sim.tree.check_invariants().unwrap();
        assert!(sim.completions >= 3000);
    }

    #[test]
    fn response_times_reasonable_at_low_load() {
        // At nearly zero load a search should take ~ΣSe = serial time.
        let sim = drive(Protocol::LockCoupling, 0.01, 600);
        let mean = sim.stats.resp_search.mean();
        let h = sim.tree.height();
        let serial: f64 = (1..=h).map(|l| sim.costs.se(l, h)).sum();
        assert!(
            (mean - serial).abs() < 0.35 * serial,
            "search RT {mean} vs serial {serial}"
        );
    }

    #[test]
    fn naive_slower_than_link_at_same_load() {
        let naive = drive(Protocol::LockCoupling, 0.18, 1500);
        let link = drive(Protocol::BLink, 0.18, 1500);
        let rt_n = naive.stats.resp_insert.mean();
        let rt_l = link.stats.resp_insert.mean();
        assert!(
            rt_l < rt_n,
            "link insert RT ({rt_l}) must beat naive ({rt_n}) at moderate load"
        );
    }

    #[test]
    fn olc_completes_with_latch_free_reads() {
        let mut sim = drive(Protocol::Olc, 0.2, 2000);
        sim.tree.check_invariants().unwrap();
        assert!(sim.completions >= 2000);
        assert!(sim.stats.resp_search.count() > 0);
        // Readers never request locks: no shared-lock wait is ever
        // recorded at any level.
        assert!(
            sim.stats.levels.iter().all(|l| l.wait_r.count() == 0),
            "OLC must place zero shared-lock demand"
        );
        // Writers do latch (exclusively).
        assert!(sim.stats.levels.iter().any(|l| l.wait_w.count() > 0));
    }

    #[test]
    fn olc_reads_restart_under_writer_pressure() {
        let sim = drive(Protocol::Olc, 0.35, 3000);
        assert!(
            sim.stats.redos > 0,
            "version-validation failures must occur under write load"
        );
    }

    #[test]
    fn olc_insert_no_slower_than_naive_at_same_load() {
        // Removing the reader class from every lock queue can only help
        // the writers.
        let naive = drive(Protocol::LockCoupling, 0.18, 1500);
        let olc = drive(Protocol::Olc, 0.18, 1500);
        let rt_n = naive.stats.resp_insert.mean();
        let rt_o = olc.stats.resp_insert.mean();
        assert!(
            rt_o < 1.05 * rt_n,
            "olc insert RT ({rt_o}) must not exceed naive ({rt_n})"
        );
    }

    #[test]
    fn root_writer_utilization_grows_with_load() {
        let lo = drive(Protocol::LockCoupling, 0.02, 1000);
        let hi = drive(Protocol::LockCoupling, 0.15, 1000);
        assert!(
            hi.stats.root_writer.mean() > lo.stats.root_writer.mean(),
            "rho_w: {} vs {}",
            hi.stats.root_writer.mean(),
            lo.stats.root_writer.mean()
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = drive(Protocol::OptimisticDescent, 0.1, 800);
        let b = drive(Protocol::OptimisticDescent, 0.1, 800);
        assert_eq!(a.stats.resp_insert.mean(), b.stats.resp_insert.mean());
        assert_eq!(a.stats.redos, b.stats.redos);
    }

    #[test]
    fn explosion_reported_at_absurd_rate() {
        let sim = Simulator::new(&config(Protocol::LockCoupling, 0), small_tree(7));
        let (_, res) = drive_on(sim, 50.0, 100_000, 200);
        assert!(res.is_err(), "rate 50 must explode naive lock-coupling");
    }
}
