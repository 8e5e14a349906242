//! The pageout daemon: the basic two-handed clock.
//!
//! "The first hand of the clock clears reference bits and the second hand
//! frees the page if the reference bit is still clear. The hands move, in
//! unison, only when the amount of free memory drops below a low water
//! mark." Dirty victims cannot simply be freed; they are handed to a
//! per-filesystem *cleaner* queue whose consumer calls `putpage` (which, in
//! the clustered file system, clusters even pageout writes).
//!
//! The daemon charges CPU time per page scanned — the overhead the paper's
//! free-behind fix avoids: "the pageout daemon no longer wakes up to free
//! pages when the system is heavily I/O bound, since the I/O bound
//! processes are doing it themselves."

use simkit::stats::Counter;
use simkit::{channel, Cpu, Receiver, Sender, Sim, SimDuration};

use crate::cache::{PageCache, PageKey};

/// A dirty victim chosen by the back hand; the filesystem cleaner should
/// write it out and free it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CleanRequest {
    /// Name of the dirty page.
    pub key: PageKey,
}

/// Two-handed clock parameters.
#[derive(Clone, Copy, Debug)]
pub struct PageoutParams {
    /// Distance between the front (ref-clearing) and back (freeing) hands,
    /// in pages.
    pub handspread: usize,
    /// Pages examined per daemon scheduling quantum.
    pub scan_chunk: usize,
    /// CPU time charged per page examined.
    pub scan_cost: SimDuration,
    /// Pause between scan chunks while pressure persists (models the
    /// daemon's scheduling latency).
    pub pause: SimDuration,
}

impl PageoutParams {
    /// Defaults scaled for the small test cache.
    pub fn small_test() -> PageoutParams {
        PageoutParams {
            handspread: 8,
            scan_chunk: 16,
            scan_cost: SimDuration::from_micros(20),
            pause: SimDuration::from_millis(1),
        }
    }

    /// Defaults for the 8 MB measurement machine.
    pub fn sparcstation() -> PageoutParams {
        PageoutParams {
            handspread: 256,
            scan_chunk: 64,
            scan_cost: SimDuration::from_micros(5),
            pause: SimDuration::from_millis(4),
        }
    }
}

/// Counters for daemon activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageoutStats {
    /// Pages examined by either hand.
    pub scanned: u64,
    /// Pages freed by the back hand.
    pub freed: u64,
    /// Dirty victims pushed to the cleaner.
    pub cleans_requested: u64,
    /// Times the daemon woke from the pressure signal.
    pub wakeups: u64,
}

/// Handle to a running pageout daemon.
pub struct PageoutDaemon {
    stats: std::rc::Rc<std::cell::RefCell<PageoutStats>>,
}

impl PageoutDaemon {
    /// Spawns the daemon on `sim`, scanning `cache` and emitting dirty
    /// victims on the returned channel. `cpu` (if given) is charged for
    /// scanning work.
    pub fn spawn(
        sim: &Sim,
        cache: &PageCache,
        cpu: Option<Cpu>,
        params: PageoutParams,
    ) -> (PageoutDaemon, Receiver<CleanRequest>) {
        let (tx, rx) = channel();
        let stats = std::rc::Rc::new(std::cell::RefCell::new(PageoutStats::default()));
        let daemon = PageoutDaemon {
            stats: std::rc::Rc::clone(&stats),
        };
        let metrics = PageoutMetrics::new(sim);
        let sim2 = sim.clone();
        let cache = cache.clone();
        sim.spawn(async move {
            run_daemon(sim2, cache, cpu, params, tx, stats, metrics).await;
        });
        (daemon, rx)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PageoutStats {
        *self.stats.borrow()
    }
}

/// Registry handles mirroring [`PageoutStats`] into `sim.stats()` under
/// the `pageout.*` namespace. `pageout.freed` is the daemon's half of
/// the free-behind comparison (`ufs.free_behind_pages` is the other).
struct PageoutMetrics {
    scanned: Counter,
    freed: Counter,
    cleans_requested: Counter,
    wakeups: Counter,
}

impl PageoutMetrics {
    fn new(sim: &Sim) -> PageoutMetrics {
        let s = sim.stats();
        PageoutMetrics {
            scanned: s.counter("pageout.scanned"),
            freed: s.counter("pageout.freed"),
            cleans_requested: s.counter("pageout.cleans_requested"),
            wakeups: s.counter("pageout.wakeups"),
        }
    }
}

async fn run_daemon(
    sim: Sim,
    cache: PageCache,
    cpu: Option<Cpu>,
    params: PageoutParams,
    tx: Sender<CleanRequest>,
    stats: std::rc::Rc<std::cell::RefCell<PageoutStats>>,
    metrics: PageoutMetrics,
) {
    let npages = cache.total_pages();
    let handspread = params.handspread.min(npages.saturating_sub(1)).max(1);
    let mut front = handspread; // Front hand leads by handspread.
    let mut back = 0usize;
    loop {
        if cache.free_count() >= cache.lotsfree() {
            // Quiescent: sleep until an allocation signals pressure.
            cache.pressure_notify().wait().await;
            stats.borrow_mut().wakeups += 1;
            metrics.wakeups.inc();
            continue;
        }
        // Scan one chunk.
        for _ in 0..params.scan_chunk {
            if cache.free_count() >= cache.lotsfree() {
                break;
            }
            // Front hand: clear the reference bit.
            cache.clear_referenced_at(front);
            // Back hand: free if still unreferenced; queue dirty victims.
            let (key, busy, dirty, referenced, on_free) = cache.scan_snapshot(back);
            if let Some(key) = key {
                if !busy && !referenced && !on_free {
                    if dirty {
                        stats.borrow_mut().cleans_requested += 1;
                        metrics.cleans_requested.inc();
                        // Receiver gone means no cleaner is registered;
                        // the victim stays dirty and will be revisited.
                        let _ = tx.send(CleanRequest { key });
                    } else {
                        let freed = cache.try_free_at(back);
                        if freed {
                            stats.borrow_mut().freed += 1;
                            metrics.freed.inc();
                        }
                    }
                }
            }
            stats.borrow_mut().scanned += 2;
            metrics.scanned.add(2);
            front = (front + 1) % npages;
            back = (back + 1) % npages;
        }
        // Charge the scanning CPU cost (the overhead free-behind avoids).
        let cost = params.scan_cost * (params.scan_chunk as u64);
        match &cpu {
            Some(cpu) => cpu.charge("pageout", cost).await,
            None => sim.sleep(cost).await,
        }
        sim.sleep(params.pause).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{PageCacheParams, PageKey};
    use simkit::SimTime;

    fn key(v: u64, off: u64) -> PageKey {
        PageKey {
            vnode: v,
            offset: off,
        }
    }

    /// Fills the cache with clean, unbusy pages and lets the daemon free
    /// some.
    #[test]
    fn daemon_frees_unreferenced_clean_pages() {
        let sim = Sim::new();
        let pc = PageCache::new(&sim, PageCacheParams::small_test());
        let (daemon, _rx) = PageoutDaemon::spawn(&sim, &pc, None, PageoutParams::small_test());
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            for i in 0..32u64 {
                let id = pc2.create(key(1, i * 8192)).await;
                pc2.unbusy(id);
            }
            assert_eq!(pc2.free_count(), 0);
            // Give the daemon time: each page needs the front hand to clear
            // its ref bit, then the back hand (handspread behind) to free it.
            s.sleep(simkit::SimDuration::from_millis(100)).await;
            assert!(
                pc2.free_count() >= pc2.lotsfree(),
                "daemon restored free memory: {} free",
                pc2.free_count()
            );
            pc2.assert_consistent();
        });
        let st = daemon.stats();
        assert!(st.freed > 0);
        assert!(st.scanned > 0);
    }

    #[test]
    fn daemon_requests_cleaning_for_dirty_pages() {
        let sim = Sim::new();
        let pc = PageCache::new(&sim, PageCacheParams::small_test());
        let (daemon, mut rx) = PageoutDaemon::spawn(&sim, &pc, None, PageoutParams::small_test());
        let pc2 = pc.clone();
        let s = sim.clone();
        let cleaned = sim.run_until(async move {
            for i in 0..32u64 {
                let id = pc2.create(key(1, i * 8192)).await;
                pc2.mark_dirty(id);
                pc2.unbusy(id);
            }
            s.sleep(simkit::SimDuration::from_millis(50)).await;
            // Drain the cleaner queue, simulating a filesystem cleaner.
            let mut cleaned = Vec::new();
            while let Some(req) = rx.try_recv() {
                cleaned.push(req.key);
            }
            cleaned
        });
        assert!(!cleaned.is_empty(), "dirty victims routed to the cleaner");
        assert!(daemon.stats().cleans_requested as usize >= cleaned.len());
    }

    /// A file system with no cleaner task drops the receiver: dirty victims
    /// are counted and left dirty, clean ones are still freed.
    #[test]
    fn daemon_runs_without_a_cleaner() {
        let sim = Sim::new();
        let pc = PageCache::new(&sim, PageCacheParams::small_test());
        let (daemon, rx) = PageoutDaemon::spawn(&sim, &pc, None, PageoutParams::small_test());
        drop(rx);
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            for i in 0..32u64 {
                let id = pc2.create(key(1, i * 8192)).await;
                if i % 2 == 0 {
                    pc2.mark_dirty(id);
                }
                pc2.unbusy(id);
            }
            assert_eq!(pc2.free_count(), 0);
            s.sleep(simkit::SimDuration::from_millis(100)).await;
            assert!(pc2.free_count() > 0, "clean pages freed under pressure");
            assert_eq!(pc2.dirty_offsets(1).len(), 16, "dirty victims stay dirty");
            pc2.assert_consistent();
        });
        let st = daemon.stats();
        assert!(st.cleans_requested > 0, "dirty victims are still counted");
        assert!(st.freed > 0);
    }

    #[test]
    fn recently_referenced_pages_survive_one_pass() {
        let sim = Sim::new();
        let pc = PageCache::new(&sim, PageCacheParams::small_test());
        let (_daemon, _rx) = PageoutDaemon::spawn(&sim, &pc, None, PageoutParams::small_test());
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            let mut ids = Vec::new();
            for i in 0..32u64 {
                let id = pc2.create(key(1, i * 8192)).await;
                pc2.unbusy(id);
                ids.push(id);
            }
            // A "working set" task keeps touching pages 0..4 faster than
            // the hands come around.
            let pc3 = pc2.clone();
            let s2 = s.clone();
            let toucher = s.spawn(async move {
                for _ in 0..100 {
                    for i in 0..4u64 {
                        if let Some(id) = pc3.lookup(key(1, i * 8192)) {
                            pc3.set_referenced(id);
                        }
                    }
                    s2.sleep(simkit::SimDuration::from_micros(300)).await;
                }
            });
            toucher.await;
            // The working set should still be resident.
            for i in 0..4u64 {
                assert!(
                    pc2.lookup(key(1, i * 8192)).is_some(),
                    "hot page {i} evicted and reused"
                );
            }
        });
    }

    #[test]
    fn daemon_idle_when_memory_plentiful() {
        let sim = Sim::new();
        let pc = PageCache::new(&sim, PageCacheParams::small_test());
        let (daemon, _rx) = PageoutDaemon::spawn(&sim, &pc, None, PageoutParams::small_test());
        let pc2 = pc.clone();
        let s = sim.clone();
        sim.run_until(async move {
            // Use only 4 of 32 pages: free stays far above lotsfree.
            for i in 0..4u64 {
                let id = pc2.create(key(1, i * 8192)).await;
                pc2.unbusy(id);
            }
            s.sleep(simkit::SimDuration::from_millis(50)).await;
        });
        assert_eq!(daemon.stats().scanned, 0, "no pressure, no scanning");
        assert_eq!(
            sim.now(),
            SimTime::ZERO + simkit::SimDuration::from_millis(50)
        );
    }
}
