//! `tree-read` and `tree-churn`: a benchmark-owned closed loop of
//! [`THREADS`] threads calling `ConcurrentBTree` directly — no ring, no
//! generator. Operations are generated from the seed during set-up, and
//! every result is checked against membership state the benchmark keeps
//! itself.

use crate::hist::LatencyHist;
use crate::spans::{Recorder, Trace};
use crate::{alloc, layers, median, Metrics, Opts, Outcome, THREADS};
use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_harness::{fork_seed, level_snapshots};
use cbtree_sync::{LockStatsSnapshot, SamplePeriod};
use cbtree_workload::{KeyDist, OpsConfig, Rng};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// One op in 16 is individually timed, so the clock is not priced into
/// `ops_per_s`.
const LAT_EVERY: usize = 16;
/// One op in 64 is wrapped in spans during the traced pass: a window's
/// worth fits the preallocated span buffer.
const SPAN_EVERY: usize = 64;
/// Operations generated per thread at set-up; the loop wraps around.
const OPS_PER_THREAD: usize = 1 << 22;

/// What the closed loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 100 % `get`, about half of them hits.
    Read,
    /// 50 % `insert`, 50 % `remove`, steady size.
    Churn,
}

/// A tree workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Operation mix.
    pub kind: Kind,
    /// Node capacity.
    pub capacity: usize,
    /// Keys are drawn from `[0, key_space)`.
    pub key_space: u64,
    /// Keys in the tree when the loop starts.
    pub prefill: usize,
}

/// `tree-read`: far beyond the last-level cache.
pub const READ: Spec = Spec {
    name: "tree-read",
    kind: Kind::Read,
    capacity: 64,
    key_space: 4_000_000,
    prefill: 2_000_000,
};

/// `tree-churn`: cache-resident, all writers.
pub const CHURN: Spec = Spec {
    name: "tree-churn",
    kind: Kind::Churn,
    capacity: 16,
    key_space: 100_000,
    prefill: 50_000,
};

impl Spec {
    /// The workload's mix as the crates describe one (for the layer
    /// prices that take an `OpsConfig`).
    pub fn ops_config(&self) -> OpsConfig {
        let (q_search, q_insert, q_delete) = match self.kind {
            Kind::Read => (1.0, 0.0, 0.0),
            Kind::Churn => (0.0, 0.5, 0.5),
        };
        OpsConfig {
            q_search,
            q_insert,
            q_delete,
            keys: KeyDist::Uniform {
                lo: 0,
                hi: self.key_space,
            },
        }
    }
}

fn bit(set: &[u64], i: u64) -> bool {
    set[(i / 64) as usize] >> (i % 64) & 1 == 1
}

fn flip(set: &mut [u64], i: u64) {
    set[(i / 64) as usize] ^= 1 << (i % 64);
}

/// A built tree with the inputs and expected state of its closed loop.
pub struct Built {
    /// The tree under test.
    pub tree: ConcurrentBTree<u64>,
    /// Membership over the key space as built (`Read` checks against
    /// it; `Churn` threads each own the keys of their parity and keep
    /// their half current in `owned`).
    member: Vec<u64>,
    /// Per-thread membership of owned keys, indexed by `key / THREADS`.
    owned: Vec<Vec<u64>>,
    /// Per-thread pre-generated op codes: the key for `Read`;
    /// `key << 1 | is_insert` for `Churn`.
    codes: Vec<Vec<u32>>,
    /// Per-thread position in `codes`, carried across passes.
    cursor: Vec<usize>,
    /// Successful inserts minus nothing, and removes, over all passes.
    ok_inserts: u64,
    ok_removes: u64,
    /// Wall time of the whole set-up.
    pub setup_s: f64,
    /// Heap bytes live when the build finished (0 unless counted).
    pub heap_bytes: u64,
}

/// The `prefill` distinct keys of the tree `seed` builds, in insertion
/// (shuffled) order.
fn prefill_keys(spec: &Spec, seed: u64) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..spec.key_space as u32).collect();
    Rng::new(seed).shuffle(&mut keys);
    keys.truncate(spec.prefill);
    keys
}

/// Builds the workload's tree and inputs from `seed`: a shuffled
/// 2-thread insert of `prefill` distinct keys, then per-thread op
/// generation.
pub fn build(spec: &Spec, seed: u64, protocol: Protocol, sample: SamplePeriod) -> Built {
    let t0 = Instant::now();
    let keys = prefill_keys(spec, seed);
    let mut member = vec![0u64; spec.key_space.div_ceil(64) as usize];
    for &k in &keys {
        flip(&mut member, u64::from(k));
    }

    let scope = alloc::Scope::begin();
    let tree = ConcurrentBTree::with_sampling(protocol, spec.capacity, sample);
    std::thread::scope(|s| {
        for part in keys.chunks(keys.len().div_ceil(THREADS)) {
            let tree = &tree;
            s.spawn(move || {
                for &k in part {
                    tree.insert(u64::from(k), u64::from(k));
                }
            });
        }
    });
    let heap_bytes = scope.end().live;
    drop(keys);

    let per_thread = spec.key_space / THREADS as u64;
    let mut owned = Vec::new();
    let mut codes = Vec::new();
    for t in 0..THREADS as u64 {
        let mut rng = Rng::new(fork_seed(seed, t));
        let mut c = Vec::with_capacity(OPS_PER_THREAD);
        match spec.kind {
            Kind::Read => {
                c.extend((0..OPS_PER_THREAD).map(|_| rng.next_below(spec.key_space) as u32));
            }
            Kind::Churn => {
                c.extend((0..OPS_PER_THREAD).map(|_| {
                    let key = rng.next_below(per_thread) * THREADS as u64 + t;
                    (key as u32) << 1 | (rng.next_u64() & 1) as u32
                }));
                let mut mine = vec![0u64; per_thread.div_ceil(64) as usize];
                for j in (0..per_thread).filter(|j| bit(&member, j * THREADS as u64 + t)) {
                    flip(&mut mine, j);
                }
                owned.push(mine);
            }
        }
        codes.push(c);
    }
    Built {
        tree,
        member,
        owned,
        codes,
        cursor: vec![0; THREADS],
        ok_inserts: 0,
        ok_removes: 0,
        setup_s: t0.elapsed().as_secs_f64(),
        heap_bytes,
    }
}

/// One thread's view of the workload: how to issue a pre-generated op
/// and what its result must be.
trait Client {
    fn name(code: u32) -> &'static str;
    fn call(&self, tree: &ConcurrentBTree<u64>, code: u32) -> Option<u64>;
    fn verify(&mut self, code: u32, got: Option<u64>) -> bool;
}

struct Reader<'a> {
    member: &'a [u64],
}

impl Client for Reader<'_> {
    fn name(_: u32) -> &'static str {
        "btree.get"
    }
    #[inline]
    fn call(&self, tree: &ConcurrentBTree<u64>, code: u32) -> Option<u64> {
        tree.get(&u64::from(code))
    }
    #[inline]
    fn verify(&mut self, code: u32, got: Option<u64>) -> bool {
        let key = u64::from(code);
        got == bit(self.member, key).then_some(key)
    }
}

struct Churner<'a> {
    owned: &'a mut [u64],
    ok_inserts: u64,
    ok_removes: u64,
}

impl Client for Churner<'_> {
    fn name(code: u32) -> &'static str {
        if code & 1 == 1 {
            "btree.insert"
        } else {
            "btree.remove"
        }
    }
    #[inline]
    fn call(&self, tree: &ConcurrentBTree<u64>, code: u32) -> Option<u64> {
        let key = u64::from(code >> 1);
        if code & 1 == 1 {
            tree.insert(key, key)
        } else {
            tree.remove(&key)
        }
    }
    #[inline]
    fn verify(&mut self, code: u32, got: Option<u64>) -> bool {
        let key = u64::from(code >> 1);
        let slot = key / THREADS as u64;
        let was = bit(self.owned, slot);
        let is_insert = code & 1 == 1;
        if was != is_insert {
            flip(self.owned, slot);
            if is_insert {
                self.ok_inserts += 1;
            } else {
                self.ok_removes += 1;
            }
        }
        // Both return the previous value: present ⇒ Some(key).
        got == was.then_some(key)
    }
}

/// The window is measured in slices of this length and a run reports
/// its median slice: the host takes the CPU away in bursts of
/// milliseconds, which move some slices and not the median.
pub const SLICE: Duration = Duration::from_millis(100);

/// Phase of a pass: 0 is warm-up, `k ≥ 1` is slice `k`, and `DONE`
/// ends it.
const DONE: u32 = u32::MAX;

/// One thread's share of one slice.
struct ThreadSlice {
    ops: u64,
    elapsed_s: f64,
    hist: LatencyHist,
}

struct ThreadOut {
    slices: Vec<ThreadSlice>,
    failed: u64,
    recorder: Option<Recorder>,
}

fn client_loop<C: Client>(
    tree: &ConcurrentBTree<u64>,
    client: &mut C,
    codes: &[u32],
    cursor: &mut usize,
    phase: &AtomicU32,
    n_slices: u32,
    mut recorder: Option<Recorder>,
) -> ThreadOut {
    let mask = codes.len() - 1;
    let mut i = *cursor;
    let mut failed = 0u64;
    // Slot 0 takes the warm-up and is thrown away; every slot exists
    // before the window opens, so the loop never allocates.
    let mut slices: Vec<ThreadSlice> = (0..=n_slices)
        .map(|_| ThreadSlice {
            ops: 0,
            elapsed_s: 0.0,
            hist: LatencyHist::default(),
        })
        .collect();
    let mut seen = 0;
    let mut started = Instant::now();
    loop {
        let ph = phase.load(Ordering::Relaxed);
        if ph != seen {
            slices[seen as usize].elapsed_s = started.elapsed().as_secs_f64();
            if ph == DONE {
                break;
            }
            seen = ph;
            started = Instant::now();
        }
        let slice = &mut slices[seen as usize];
        let code = codes[i & mask];
        i += 1;
        let ok = match &mut recorder {
            Some(rec) if i.is_multiple_of(SPAN_EVERY) => {
                let req = u64::from(rec.thread()) << 56 | i as u64;
                let root = rec.begin("workload.op", req, 1);
                let call = rec.begin(C::name(code), req, 1);
                let got = client.call(tree, code);
                rec.end(call);
                let ok = client.verify(code, got);
                rec.end(root);
                ok
            }
            _ if i.is_multiple_of(LAT_EVERY) => {
                let t0 = Instant::now();
                let got = client.call(tree, code);
                slice.hist.record(t0.elapsed().as_nanos() as u64);
                client.verify(code, got)
            }
            _ => {
                let got = client.call(tree, code);
                client.verify(code, got)
            }
        };
        slice.ops += 1;
        failed += u64::from(!ok);
    }
    *cursor = i;
    slices.remove(0);
    ThreadOut {
        slices,
        failed,
        recorder,
    }
}

/// One slice of the window, all threads.
pub struct Slice {
    /// Operations completed inside the slice.
    pub ops: u64,
    /// Σ per-thread completion rates over the slice.
    pub ops_per_s: f64,
    /// Per-call latency of the 1-in-16 timed ops inside the slice.
    pub hist: LatencyHist,
}

/// What one warm-up + window of the closed loop measured.
pub struct Pass {
    /// The window, slice by slice.
    pub slices: Vec<Slice>,
    /// What the process allocated while the window was open (zero
    /// unless asked for).
    pub allocated: alloc::Counted,
    /// Wrong results, warm-up included.
    pub failed: u64,
    /// Spans, when the pass was traced.
    pub trace: Option<Trace>,
}

impl Pass {
    /// Operations completed inside the window.
    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    /// Completion rate of the median slice.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.slices.iter().map(|s| s.ops_per_s).collect::<Vec<_>>())
    }

    /// Per-call latency over the whole window.
    pub fn hist(&self) -> LatencyHist {
        let mut all = LatencyHist::default();
        self.slices.iter().for_each(|s| all.merge(&s.hist));
        all
    }
}

/// What a pass records besides rates and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
    /// Nothing: the end-to-end windows.
    Nothing,
    /// The process's allocations while the window is open.
    Allocations,
    /// Spans around one call in 64.
    Spans,
}

/// Runs one warm-up + window of the closed loop on `built`.
pub fn pass(
    built: &mut Built,
    spec: &Spec,
    warm: Duration,
    window: Duration,
    extra: Extra,
) -> Pass {
    let traced = extra == Extra::Spans;
    assert!(OPS_PER_THREAD.is_power_of_two());
    let n_slices = (window.as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let phase = AtomicU32::new(0);
    let epoch = Instant::now();
    let tree = &built.tree;
    let member = &built.member;
    let mut owned = built.owned.iter_mut();
    let mut allocated = alloc::Counted::default();
    let outs: Vec<(ThreadOut, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = built
            .codes
            .iter()
            .zip(built.cursor.iter_mut())
            .enumerate()
            .map(|(t, (codes, cursor))| {
                let phase = &phase;
                let recorder = traced.then(|| Recorder::new(t as u8, epoch));
                let mine = owned.next();
                s.spawn(move || match spec.kind {
                    Kind::Read => {
                        let mut c = Reader { member };
                        let out =
                            client_loop(tree, &mut c, codes, cursor, phase, n_slices, recorder);
                        (out, 0, 0)
                    }
                    Kind::Churn => {
                        let mut c = Churner {
                            owned: mine.expect("churn keeps per-thread membership"),
                            ok_inserts: 0,
                            ok_removes: 0,
                        };
                        let out =
                            client_loop(tree, &mut c, codes, cursor, phase, n_slices, recorder);
                        (out, c.ok_inserts, c.ok_removes)
                    }
                })
            })
            .collect();
        std::thread::sleep(warm);
        let scope = (extra == Extra::Allocations).then(alloc::Scope::begin);
        for k in 1..=n_slices {
            phase.store(k, Ordering::Relaxed);
            std::thread::sleep(window / n_slices);
        }
        phase.store(DONE, Ordering::Relaxed);
        allocated = scope.map(alloc::Scope::end).unwrap_or_default();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut p = Pass {
        slices: (0..n_slices)
            .map(|_| Slice {
                ops: 0,
                ops_per_s: 0.0,
                hist: LatencyHist::default(),
            })
            .collect(),
        allocated,
        failed: 0,
        trace: None,
    };
    let mut recorders = Vec::new();
    for (out, ins, rem) in outs {
        // A thread descheduled across a whole slice closes fewer of
        // them; its later slices then pair with earlier ones here, which
        // only blurs boundaries the median does not depend on.
        for (slice, mine) in p.slices.iter_mut().zip(&out.slices) {
            slice.ops += mine.ops;
            slice.ops_per_s += mine.ops as f64 / mine.elapsed_s;
            slice.hist.merge(&mine.hist);
        }
        p.failed += out.failed;
        recorders.extend(out.recorder);
        built.ok_inserts += ins;
        built.ok_removes += rem;
    }
    p.trace = traced.then(|| Trace::new(recorders));
    p
}

/// What closing a built tree found and measured.
pub struct Finish {
    /// Wall time of the one `vacuum()` call, ms.
    pub vacuum_ms: f64,
    /// Leaves `vacuum()` reclaimed.
    pub reclaimed: usize,
}

/// After the last window: one timed `vacuum()`, then the structural
/// check and the size identity. Violations go to `out`.
pub fn finish(built: &Built, spec: &Spec, out: &mut Outcome) -> Finish {
    let t0 = Instant::now();
    let reclaimed = built.tree.vacuum();
    let vacuum_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = built.tree.check() {
        out.violation(1, format!("{}: structural check failed: {e}", spec.name));
    }
    let want = spec.prefill as u64 + built.ok_inserts - built.ok_removes;
    if built.tree.len() as u64 != want {
        out.violation(
            1,
            format!(
                "{}: len() = {} but prefill + ok_inserts − ok_removes = {want}",
                spec.name,
                built.tree.len()
            ),
        );
    }
    Finish {
        vacuum_ms,
        reclaimed,
    }
}

/// Corrupts the expected state for the first op the loop will issue, so
/// a correct tree is reported as wrong.
fn plant_wrong(built: &mut Built, spec: &Spec) {
    let code = built.codes[0][0];
    match spec.kind {
        Kind::Read => flip(&mut built.member, u64::from(code)),
        Kind::Churn => flip(&mut built.owned[0], u64::from(code >> 1) / THREADS as u64),
    }
}

/// `--trace 0`: `reps` × (build + warm-up + window); the median slice
/// of all windows is reported, and the median set-up.
pub fn end_to_end(spec: &Spec, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut bpk, mut passes) = (vec![], vec![], vec![]);
    for rep in 0..opts.reps {
        let seed = fork_seed(opts.seed, rep as u64);
        let mut built = build(spec, seed, Protocol::BLink, SamplePeriod::EXACT);
        if opts.plant_wrong && rep == 0 {
            plant_wrong(&mut built, spec);
        }
        let p = pass(&mut built, spec, opts.warm, opts.window, Extra::Nothing);
        finish(&built, spec, &mut out);
        out.attempted += p.ops();
        if p.failed > 0 {
            out.violation(
                p.failed,
                format!("{}: {} wrong results", spec.name, p.failed),
            );
        }
        setup.push(built.setup_s);
        bpk.push(built.heap_bytes as f64 / spec.prefill as f64);
        passes.push(p);
    }
    let slices: Vec<&Slice> = passes.iter().flat_map(|p| &p.slices).collect();
    let samples: u64 = slices.iter().map(|s| s.hist.total()).sum();
    let over_slices =
        |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>());
    let rates: Vec<f64> = slices.iter().map(|s| s.ops_per_s).collect();
    out.notes.push(format!(
        "closed loop, {THREADS} threads, cap {}, {} keys of {}; {} reps x {:?} in {} slices; \
         {samples} timed calls (1 in {LAT_EVERY}); slice ops_per_s {:.0}..{:.0}",
        spec.capacity,
        spec.prefill,
        spec.key_space,
        opts.reps,
        opts.window,
        rates.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
    ));
    out.metrics = Metrics::from([
        ("setup_s", median(&setup)),
        ("ops_per_s", median(&rates)),
        ("lat_p50_us", over_slices(&|s| s.hist.quantile(0.5) / 1e3)),
        ("lat_p99_us", over_slices(&|s| s.hist.quantile(0.99) / 1e3)),
        ("bytes_per_key", median(&bpk)),
    ]);
    out
}

fn merged(levels: &[(u64, LockStatsSnapshot)]) -> LockStatsSnapshot {
    let mut all = LockStatsSnapshot::default();
    levels.iter().for_each(|(_, s)| all.merge(s));
    all
}

/// `--trace 1`: one build; layer prices on this workload's tree shape,
/// one untraced and one traced window, then the mutating prices.
pub fn per_layer(spec: &Spec, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let ops_cfg = spec.ops_config();
    let mut built = build(spec, opts.seed, Protocol::BLink, SamplePeriod::EXACT);
    if opts.plant_wrong {
        plant_wrong(&mut built, spec);
    }
    let mut m = layers::standalone(&ops_cfg, opts.seed);

    // Read-path ablations on same-shaped trees, built side by side.
    let exact_get = layers::get_ns(&built.tree, spec.key_space, opts.seed);
    let keys = prefill_keys(spec, opts.seed);
    let (sampled_get, olc_get) = std::thread::scope(|s| {
        let keys = &keys;
        let other = |protocol, sample| {
            s.spawn(move || {
                let tree = ConcurrentBTree::with_sampling(protocol, spec.capacity, sample);
                for &k in keys {
                    tree.insert(u64::from(k), u64::from(k));
                }
                tree
            })
        };
        let (a, b) = (
            other(Protocol::BLink, SamplePeriod::every(64)),
            other(Protocol::Olc, SamplePeriod::EXACT),
        );
        let (a, b) = (a.join().expect("build"), b.join().expect("build"));
        (
            layers::get_ns(&a, spec.key_space, opts.seed),
            layers::get_ns(&b, spec.key_space, opts.seed),
        )
    });
    drop(keys);
    m.insert("btree.get_ns", exact_get);
    m.insert("btree.olc_get_ns", olc_get);
    m.insert("sync.stats_exact_delta_ns", exact_get - sampled_get);

    // The untraced window, with the outside-in counters around it.
    let ctr0 = built.tree.counters();
    let lv0 = level_snapshots(&built.tree);
    let plain = pass(&mut built, spec, opts.warm, opts.window, Extra::Allocations);
    let plain_hist = plain.hist();
    let ctr = built.tree.counters().since(&ctr0);
    let lv1 = level_snapshots(&built.tree);
    let all_ops = ctr.ops.max(1) as f64;
    let window_ops = plain.ops().max(1) as f64;
    m.insert(
        "alloc.calls_per_op",
        plain.allocated.calls as f64 / window_ops,
    );
    m.insert(
        "alloc.bytes_per_op",
        plain.allocated.bytes as f64 / window_ops,
    );
    m.insert("btree.latches_per_op", ctr.latches_per_op());
    m.insert("btree.splits_per_kop", ctr.splits as f64 * 1e3 / all_ops);
    m.insert(
        "btree.restarts_per_kop",
        ctr.restarts as f64 * 1e3 / all_ops,
    );
    m.insert("btree.chases_per_kop", ctr.chases as f64 * 1e3 / all_ops);
    m.insert("btree.height", built.tree.height() as f64);
    m.insert("btree.op_p99_ns", plain_hist.quantile(0.99));
    let levels: Vec<(u64, LockStatsSnapshot)> = lv1
        .iter()
        .enumerate()
        .map(|(i, (n, s))| (*n, lv0.get(i).map_or(*s, |(_, before)| s.since(before))))
        .collect();
    let span_ns = ((opts.warm + opts.window).as_nanos() as u64).max(1);
    if let (Some((n_root, root)), Some((_, leaf))) = (levels.last(), levels.first()) {
        m.insert("sync.root_rho_w", root.writer_utilization(span_ns, *n_root));
        m.insert("sync.leaf_w_wait_mean_ns", leaf.mean_w_wait_ns());
    }
    m.insert(
        "sync.w_contention_rate",
        merged(&levels).w_contention_rate(),
    );

    // The traced window on the same tree.
    let traced = pass(&mut built, spec, opts.warm / 2, opts.window, Extra::Spans);
    let trace = traced.trace.as_ref().expect("traced pass records spans");
    let st = trace.self_times();
    let per_op = |name: &str| {
        st.get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.spans.max(1) as f64)
    };
    let clock = layers::span_clock_ns();
    let btree_self: f64 = ["btree.get", "btree.insert", "btree.remove"]
        .iter()
        .map(|n| st.get(n).map_or(0.0, |t| t.self_ns as f64))
        .sum::<f64>()
        / st.get("workload.op").map_or(1, |t| t.spans.max(1)) as f64;
    let wall = THREADS as f64 * 1e9 / plain.ops_per_s();
    // A span's duration includes about one clock read of its own.
    let layers_ns = (btree_self - clock).max(0.0);
    m.insert("self.btree_ns_per_op", btree_self);
    m.insert("self.workload_ns_per_op", per_op("workload.op"));
    m.insert("self.span_clock_ns", clock);
    m.insert("ledger.layers_ns_per_op", layers_ns);
    m.insert("ledger.wall_ns_per_op", wall);
    m.insert("ledger.unexplained_frac", 1.0 - layers_ns / wall);
    m.insert(
        "trace.overhead_frac",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    m.insert("trace.spans", trace.span_count() as f64);
    m.insert("trace.spans_dropped", trace.dropped() as f64);
    let path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
    if let Err(e) = trace.write_jsonl(&path) {
        out.violation(1, format!("cannot write {}: {e}", path.display()));
    }

    let fin = finish(&built, spec, &mut out);
    m.insert("btree.vacuum_ms", fin.vacuum_ms);
    m.insert("btree.vacuum_reclaimed", fin.reclaimed as f64);
    let arena = built.tree.root_handle().arena().clone();
    m.insert("arena.slots_allocated", arena.allocated() as f64);
    m.insert("arena.free_slots", arena.free_slots() as f64);
    let slots = (arena.allocated() - arena.recycled()) as usize + arena.free_slots();
    m.insert(
        "arena.bytes_per_slot",
        built.heap_bytes as f64 / slots.max(1) as f64,
    );

    // Prices that change the tree come last.
    layers::mutating(&built.tree, &ops_cfg, opts.seed, &mut m);
    m.insert("proc.peak_rss_mb", crate::peak_rss_mb());

    out.attempted = plain.ops() + traced.ops();
    let wrong = plain.failed + traced.failed;
    if wrong > 0 {
        out.violation(wrong, format!("{}: {wrong} wrong results", spec.name));
    }
    if let Some((p, v)) = plain_hist.tail() {
        out.notes.push(format!(
            "per-call tail: p{} = {v:.0} ns over {} timed calls",
            p * 100.0,
            plain_hist.total()
        ));
    }
    out.notes.push(format!(
        "ledger: wall {wall:.0} ns/op/thread = btree {layers_ns:.0} + unexplained (loop, verify, op fetch)"
    ));
    out.metrics = m;
    out
}
