//! Property tests for the page cache: arbitrary interleavings of create /
//! lookup / dirty / free / invalidate keep the internal structures
//! consistent, and the daemon can always recover memory from clean pages.

use pagecache::{PageCache, PageCacheParams, PageId, PageKey, PageoutDaemon, PageoutParams};
use proptest::prelude::*;
use simkit::{Sim, SimDuration};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Create { vnode: u8, page: u8 },
    Lookup { vnode: u8, page: u8 },
    Dirty { vnode: u8, page: u8 },
    Clean { vnode: u8, page: u8 },
    Free { vnode: u8, page: u8 },
    Invalidate { vnode: u8, from_page: u8 },
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    fn vp() -> (std::ops::Range<u8>, std::ops::Range<u8>) {
        (0u8..3, 0u8..24)
    }
    prop_oneof![
        vp().prop_map(|(vnode, page)| Op::Create { vnode, page }),
        vp().prop_map(|(vnode, page)| Op::Lookup { vnode, page }),
        vp().prop_map(|(vnode, page)| Op::Dirty { vnode, page }),
        vp().prop_map(|(vnode, page)| Op::Clean { vnode, page }),
        vp().prop_map(|(vnode, page)| Op::Free { vnode, page }),
        (0u8..3, 0u8..24).prop_map(|(vnode, from_page)| Op::Invalidate { vnode, from_page }),
        Just(Op::Tick),
    ]
}

fn key(vnode: u8, page: u8) -> PageKey {
    PageKey {
        vnode: vnode as u64,
        offset: page as u64 * 8192,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cache_stays_consistent_under_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let sim = Sim::new();
        let pc = PageCache::new(&sim, PageCacheParams::small_test());
        // The daemon keeps allocation from deadlocking when all 32 pages
        // are consumed (clean pages can always be stolen back).
        let (_daemon, _rx) = PageoutDaemon::spawn(&sim, &pc, None, PageoutParams::small_test());
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            // Shadow map of live ids we know about (may be stale; the cache
            // is the source of truth via generation checks).
            let mut ids: HashMap<PageKey, PageId> = HashMap::new();
            for op in ops {
                match op {
                    Op::Create { vnode, page } => {
                        let k = key(vnode, page);
                        if pc2.lookup(k).is_none() {
                            let id = pc2.create(k).await;
                            pc2.unbusy(id);
                            ids.insert(k, id);
                        }
                    }
                    Op::Lookup { vnode, page } => {
                        if let Some(id) = pc2.lookup(key(vnode, page)) {
                            pc2.set_referenced(id);
                            ids.insert(key(vnode, page), id);
                        }
                    }
                    Op::Dirty { vnode, page } => {
                        if let Some(id) = pc2.lookup(key(vnode, page)) {
                            pc2.mark_dirty(id);
                        }
                    }
                    Op::Clean { vnode, page } => {
                        if let Some(id) = pc2.lookup(key(vnode, page)) {
                            pc2.clear_dirty(id);
                        }
                    }
                    Op::Free { vnode, page } => {
                        if let Some(id) = pc2.lookup(key(vnode, page)) {
                            if !pc2.is_dirty(id) && !pc2.is_busy(id) {
                                pc2.free_page(id);
                            }
                        }
                    }
                    Op::Invalidate { vnode, from_page } => {
                        pc2.invalidate_vnode(vnode as u64, from_page as u64 * 8192);
                        ids.retain(|k, _| {
                            !(k.vnode == vnode as u64
                                && k.offset >= from_page as u64 * 8192)
                        });
                    }
                    Op::Tick => {
                        s.sleep(SimDuration::from_millis(3)).await;
                    }
                }
                pc2.assert_consistent();
            }
            // Every id we believe is live must still resolve by key (or
            // have been legitimately recycled — lookup is the arbiter).
            for (k, _) in ids {
                let _ = pc2.lookup(k); // Must not panic.
            }
            pc2.assert_consistent();
        });
    }
}
