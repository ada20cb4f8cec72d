//! The live plane and the trace replay describe one window with the same
//! per-level record, so on a traced window they must count the same
//! latch acquisitions, level by level.
//!
//! This binary holds one test on purpose: it switches tracing on for the
//! whole process, which a sibling asserting an untraced run would see.

use cbtree_btree::Protocol;
use cbtree_harness::{run, LiveConfig};
use cbtree_obs::{replay, trace, LevelRecord};

#[test]
fn live_and_replayed_records_count_the_same_acquisitions_per_level() {
    // Rings sized so a short window loses nothing; a lossy ring would
    // make the replay undercount.
    trace::set_default_ring_capacity(1 << 20);
    trace::enable(true);
    for protocol in Protocol::ALL_WITH_RECOVERY {
        let mut cfg = LiveConfig::quick(protocol, 2);
        cfg.measure = std::time::Duration::from_millis(20);
        let report = run(&cfg);
        let name = protocol.name();
        assert_eq!(report.trace.dropped, 0, "{name}: the rings dropped events");
        let live: Vec<LevelRecord> = report.levels.iter().map(|l| l.record()).collect();
        let traced = replay(&report.trace).levels;
        assert!(
            traced.iter().all(|t| t.level <= live.len()),
            "{name}: the trace saw a level the tree does not have: {traced:?}"
        );
        for l in &live {
            // A level no latch event names was not latched at all.
            let t = traced.iter().find(|t| t.level == l.level);
            let acquires = |r: &LevelRecord| (r.r_acquires, r.w_acquires);
            let want = t.map_or((Some(0), Some(0)), acquires);
            assert_eq!(acquires(l), want, "{name} level {}", l.level);
        }
        let leaves = &live[0];
        assert!(
            leaves.w_acquires > Some(0),
            "{name}: no writes in the window"
        );
    }
    trace::enable(false);
}
