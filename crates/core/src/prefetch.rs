//! Adaptive readahead: the distance-adaptive, stride-aware prefetch
//! engine (ROADMAP open item 4 — "beyond the paper's one-cluster
//! predictor").
//!
//! The paper's [`ReadAhead`] predicts exactly one cluster ahead
//! (`nextr`/`nextrio`). This module generalizes it into a per-stream
//! policy with three selectable behaviors:
//!
//! - [`PrefetchPolicy::Fixed`] — the paper's engine, verbatim (the
//!   baseline every experiment compares against).
//! - [`PrefetchPolicy::Off`] — the ablation: one block per fault, no
//!   speculation.
//! - [`PrefetchPolicy::Adaptive`] — [`AdaptiveRa`]: detects sequential
//!   *and* fixed-stride access, ramps prefetch distance geometrically
//!   (1 → 2 → 4 … clusters, capped at [`MAX_DISTANCE`]) on
//!   pattern-conforming accesses, halves it on mispredicted jumps, and
//!   never consumes page-cache headroom below the caller-supplied
//!   reserve (the `cache.free_pages` coupling that keeps prefetch from
//!   stalling foreground allocations).
//!
//! For strided streams the planner chooses between two issue shapes per
//! prediction window: *list I/O* (one exact run per predicted record —
//! the MPI-IO noncontiguous-read shape) when records are far apart, and
//! *data sieving* (one spanning run whose gap blocks are read and
//! discarded) when the gaps are small enough that one large transfer
//! beats several small ones. A sieving run carries its `(keep, period)`
//! pattern so the executor can account the discarded bytes.
//!
//! Like [`ReadAhead`], the engine is a pure state machine over logical
//! block numbers: substrate-free, deterministic, and property-testable
//! in isolation.

use crate::readahead::{ReadAhead, ReadRun};

/// Hard cap on the adaptive prefetch distance, in I/O clusters.
pub const MAX_DISTANCE: u32 = 8;

/// Which prefetch engine a mount runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No speculation at all (the ablation baseline).
    Off,
    /// The paper's one-cluster `nextr`/`nextrio` predictor.
    Fixed,
    /// Distance-adaptive, stride-aware prefetch ([`AdaptiveRa`]).
    Adaptive,
}

impl PrefetchPolicy {
    /// Parses a CLI spelling (`off`, `fixed`, `adaptive`).
    pub fn parse(s: &str) -> Option<PrefetchPolicy> {
        match s {
            "off" => Some(PrefetchPolicy::Off),
            "fixed" => Some(PrefetchPolicy::Fixed),
            "adaptive" => Some(PrefetchPolicy::Adaptive),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchPolicy::Off => "off",
            PrefetchPolicy::Fixed => "fixed",
            PrefetchPolicy::Adaptive => "adaptive",
        }
    }
}

/// One planned speculative read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRun {
    /// First logical block.
    pub lbn: u64,
    /// Number of blocks (≥ 1).
    pub blocks: u32,
    /// Data-sieving pattern: `Some((keep, period))` means that within
    /// this run, the block at offset `o` from [`PrefetchRun::lbn`] is
    /// wanted iff `o % period < keep`; the rest is gap filler read only
    /// to keep the transfer contiguous (and must be accounted as wasted
    /// bytes). `None` is an exact run: every block is wanted.
    pub sieve: Option<(u32, u32)>,
}

/// The engine's answer for one access.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// Cluster to read synchronously (the faulting block's cluster);
    /// `None` when the block is already cached.
    pub sync: Option<ReadRun>,
    /// Speculative reads to issue, in ascending block order.
    pub runs: Vec<PrefetchRun>,
    /// Whether this access was judged sequential.
    pub sequential: bool,
    /// Prefetch distance after this access, in clusters (1 for the
    /// fixed engine when it prefetches, 0 when it does not).
    pub distance: u32,
    /// The plan was clipped (possibly to nothing) by page-cache
    /// pressure: issuing more would have eaten into the reserve.
    pub throttled: bool,
}

impl PrefetchPlan {
    fn from_legacy(plan: crate::readahead::ReadPlan) -> PrefetchPlan {
        let runs = plan
            .readahead
            .map(|r| PrefetchRun {
                lbn: r.lbn,
                blocks: r.blocks,
                sieve: None,
            })
            .into_iter()
            .collect::<Vec<_>>();
        PrefetchPlan {
            distance: if runs.is_empty() { 0 } else { 1 },
            sync: plan.sync,
            sequential: plan.sequential,
            throttled: false,
            runs,
        }
    }
}

/// Distance-adaptive, stride-aware prefetch state (one per stream).
#[derive(Clone, Debug)]
pub struct AdaptiveRa {
    /// The mount's I/O unit (UFS: the tuned cluster; extentfs: the
    /// extent unit) — the quantum the distance is measured in.
    cluster_blocks: u32,
    /// Distance cap, in clusters.
    cap: u32,
    /// Current prefetch distance, in clusters.
    distance: u32,
    /// Predicted next sequential block (the paper's `nextr`).
    nextr: u64,
    /// Whether any access has been observed yet.
    started: bool,
    /// First block of the current sequential run (record).
    run_start: u64,
    /// Length of the last completed record, in blocks (0 = unknown).
    rec_len: u32,
    /// Confirmed record-start-to-record-start stride, in blocks.
    period: Option<u64>,
    /// A stride seen once, awaiting confirmation.
    candidate: Option<u64>,
    /// First block beyond issued sequential-mode coverage.
    frontier: u64,
    /// First record start beyond issued strided-mode coverage.
    pred_frontier: u64,
}

impl AdaptiveRa {
    /// Fresh state for a stream on a mount with the given I/O unit.
    pub fn new(cluster_blocks: u32) -> AdaptiveRa {
        AdaptiveRa {
            cluster_blocks: cluster_blocks.max(1),
            cap: MAX_DISTANCE,
            distance: 1,
            nextr: 0,
            started: false,
            run_start: 0,
            rec_len: 0,
            period: None,
            candidate: None,
            frontier: 0,
            pred_frontier: 0,
        }
    }

    /// Current prefetch distance, in clusters.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Computes the I/O plan for an access to `lbn`.
    ///
    /// `cached`, `cluster_len` and `size_hint_blocks` mean exactly what
    /// they mean for [`ReadAhead::on_access`]; the synchronous-read
    /// policy is identical. `free_pages`/`reserve` couple the plan to
    /// page-cache pressure: speculative reads never claim more than
    /// `free_pages - reserve` pages.
    pub fn on_access(
        &mut self,
        lbn: u64,
        cached: bool,
        mut cluster_len: impl FnMut(u64) -> u32,
        size_hint_blocks: u32,
        free_pages: u64,
        reserve: u64,
    ) -> PrefetchPlan {
        let sequential = lbn == self.nextr;
        let prev_nextr = self.nextr;
        self.nextr = lbn + 1;
        let mut plan = PrefetchPlan {
            sequential,
            ..PrefetchPlan::default()
        };

        // The synchronous read: same policy as the paper's engine.
        let mut sync_len = 0u32;
        if !cached {
            let avail = cluster_len(lbn);
            sync_len = if sequential {
                avail
            } else if size_hint_blocks > 1 {
                avail.min(size_hint_blocks)
            } else {
                avail.min(1)
            };
            if sync_len > 0 {
                plan.sync = Some(ReadRun {
                    lbn,
                    blocks: sync_len,
                });
            }
        }

        // Pattern tracking: sequential runs are "records"; the jumps
        // between their starts are the stride.
        let mut predicted_jump = false;
        if !self.started {
            self.started = true;
            self.run_start = lbn;
        } else if !sequential {
            if lbn > self.run_start {
                // Forward jump: the record [run_start, prev_nextr) ended.
                let completed = prev_nextr.saturating_sub(self.run_start) as u32;
                if completed > 0 {
                    self.rec_len = completed;
                }
                let stride = lbn - self.run_start;
                if self.period == Some(stride) || self.candidate == Some(stride) {
                    // The same stride twice running confirms the pattern.
                    self.period = Some(stride);
                    self.candidate = None;
                    predicted_jump = true;
                } else {
                    self.period = None;
                    self.candidate = Some(stride);
                    self.pred_frontier = 0;
                }
            } else {
                // Backward seek: forget everything.
                self.period = None;
                self.candidate = None;
                self.rec_len = 0;
                self.pred_frontier = 0;
            }
            self.run_start = lbn;
            self.frontier = 0;
        } else if let Some(p) = self.period {
            // A sequential run that outgrows the stride pattern demotes
            // it back to plain sequential.
            if lbn >= self.run_start + 2 * p {
                self.period = None;
                self.candidate = None;
                self.rec_len = 0;
            }
        }

        // Distance ramp: geometric growth while the pattern holds,
        // halving on every mispredicted jump or seek.
        if sequential || predicted_jump {
            self.distance = (self.distance * 2).min(self.cap);
        } else {
            self.distance = (self.distance / 2).max(1);
        }
        plan.distance = self.distance;

        // Page-cache pressure: speculation only spends headroom above
        // the reserve. At or below it, prefetch goes completely quiet
        // so foreground faults never inherit an alloc stall.
        let mut budget = free_pages.saturating_sub(reserve);

        if predicted_jump {
            self.plan_strided(&mut plan, &mut cluster_len, &mut budget);
        } else if sequential && self.period.is_none() {
            self.plan_sequential(lbn, sync_len, &mut plan, &mut cluster_len, &mut budget);
        }
        plan
    }

    /// Sequential mode: keep `distance` clusters of coverage ahead of
    /// the reader, re-extending once coverage decays below half (so
    /// issues batch up instead of trickling one block per access).
    fn plan_sequential(
        &mut self,
        lbn: u64,
        sync_len: u32,
        plan: &mut PrefetchPlan,
        cluster_len: &mut impl FnMut(u64) -> u32,
        budget: &mut u64,
    ) {
        let covered_from = (lbn + 1).max(self.frontier).max(lbn + sync_len as u64);
        let ahead = covered_from - (lbn + 1);
        let want_ahead = self.distance as u64 * self.cluster_blocks as u64;
        if ahead * 2 > want_ahead {
            return; // Enough runway; stay quiet.
        }
        let target = lbn + 1 + want_ahead;
        let mut pos = covered_from;
        while pos < target {
            if *budget == 0 {
                plan.throttled = true;
                break;
            }
            let avail = cluster_len(pos);
            if avail == 0 {
                break; // EOF or a hole ends speculation.
            }
            let mut take = (target - pos).min(avail as u64);
            if take > *budget {
                take = *budget;
                plan.throttled = true;
            }
            plan.runs.push(PrefetchRun {
                lbn: pos,
                blocks: take as u32,
                sieve: None,
            });
            *budget -= take;
            pos += take;
        }
        self.frontier = self.frontier.max(pos);
    }

    /// Strided mode: predict the next `distance` record starts at the
    /// confirmed period and cover them — by data sieving (one spanning
    /// run, gaps discarded) when the gaps are small, by exact list-I/O
    /// runs when they are not.
    fn plan_strided(
        &mut self,
        plan: &mut PrefetchPlan,
        cluster_len: &mut impl FnMut(u64) -> u32,
        budget: &mut u64,
    ) {
        let p = self.period.expect("strided mode has a confirmed period");
        let rec = (self.rec_len.max(1) as u64).min(p) as u32;
        let first_unseen = self.pred_frontier.max(self.run_start + p);
        let mut starts: Vec<u64> = (1..=self.distance as u64)
            .map(|k| self.run_start + k * p)
            .filter(|&s| s >= first_unseen)
            .collect();
        // Probe each predicted start; EOF or a hole closes the window.
        let mut lens: Vec<u32> = Vec::new();
        for &s in &starts {
            let avail = cluster_len(s);
            if avail == 0 {
                break;
            }
            lens.push(rec.min(avail));
        }
        starts.truncate(lens.len());
        // Sieving pays when one gap-spanning transfer displaces several
        // small ones; past that the gaps dominate and exact runs win.
        let sieving = p <= 2 * rec as u64;
        // Shrink the window from the far end until it fits the budget.
        while let (Some(&last_start), Some(&last_len)) = (starts.last(), lens.last()) {
            let need: u64 = if sieving {
                (last_start - starts[0]) + last_len as u64
            } else {
                lens.iter().map(|&l| l as u64).sum()
            };
            if need <= *budget {
                break;
            }
            plan.throttled = true;
            starts.pop();
            lens.pop();
        }
        let (Some(&last_start), Some(&first_start)) = (starts.last(), starts.first()) else {
            return;
        };
        if sieving {
            let span = (last_start - first_start) as u32 + lens[lens.len() - 1];
            *budget -= span as u64;
            plan.runs.push(PrefetchRun {
                lbn: first_start,
                blocks: span,
                sieve: Some((rec, p as u32)),
            });
        } else {
            for (&s, &l) in starts.iter().zip(&lens) {
                *budget -= l as u64;
                plan.runs.push(PrefetchRun {
                    lbn: s,
                    blocks: l,
                    sieve: None,
                });
            }
        }
        self.pred_frontier = self.pred_frontier.max(last_start + p);
    }
}

/// A per-stream prefetch engine: one lives on each open file's I/O
/// state, built from the mount's policy.
#[derive(Clone, Debug)]
pub enum Prefetcher {
    /// [`PrefetchPolicy::Off`] and [`PrefetchPolicy::Fixed`]: the
    /// paper's engine (disabled, respectively verbatim).
    Legacy(ReadAhead),
    /// [`PrefetchPolicy::Adaptive`].
    Adaptive(AdaptiveRa),
}

impl Prefetcher {
    /// Fresh state for one stream under `policy` on a mount whose I/O
    /// unit is `cluster_blocks`.
    pub fn new(policy: PrefetchPolicy, cluster_blocks: u32) -> Prefetcher {
        match policy {
            PrefetchPolicy::Off => Prefetcher::Legacy(ReadAhead::disabled()),
            PrefetchPolicy::Fixed => Prefetcher::Legacy(ReadAhead::new()),
            PrefetchPolicy::Adaptive => Prefetcher::Adaptive(AdaptiveRa::new(cluster_blocks)),
        }
    }

    /// Computes the I/O plan for an access (see
    /// [`AdaptiveRa::on_access`]). The legacy engines ignore pressure:
    /// their single-cluster speculation is the baseline being measured.
    pub fn on_access(
        &mut self,
        lbn: u64,
        cached: bool,
        cluster_len: impl FnMut(u64) -> u32,
        size_hint_blocks: u32,
        free_pages: u64,
        reserve: u64,
    ) -> PrefetchPlan {
        match self {
            Prefetcher::Legacy(ra) => {
                PrefetchPlan::from_legacy(ra.on_access(lbn, cached, cluster_len, size_hint_blocks))
            }
            Prefetcher::Adaptive(a) => a.on_access(
                lbn,
                cached,
                cluster_len,
                size_hint_blocks,
                free_pages,
                reserve,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLENTY: u64 = 1 << 20;

    fn uniform(maxcontig: u32, eof: u64) -> impl FnMut(u64) -> u32 {
        move |lbn| {
            if lbn >= eof {
                0
            } else {
                maxcontig.min((eof - lbn) as u32)
            }
        }
    }

    #[test]
    fn fixed_policy_matches_paper_engine_exactly() {
        let mut fixed = Prefetcher::new(PrefetchPolicy::Fixed, 3);
        let mut paper = ReadAhead::new();
        for (lbn, cached) in [(0u64, false), (1, true), (2, true), (3, true), (9, false)] {
            let got = fixed.on_access(lbn, cached, uniform(3, 1000), 0, PLENTY, 0);
            let want = paper.on_access(lbn, cached, uniform(3, 1000), 0);
            assert_eq!(got.sync, want.sync);
            assert_eq!(got.sequential, want.sequential);
            let runs: Vec<_> = got.runs.iter().map(|r| (r.lbn, r.blocks)).collect();
            let legacy: Vec<_> = want.readahead.iter().map(|r| (r.lbn, r.blocks)).collect();
            assert_eq!(runs, legacy);
            assert!(got.runs.iter().all(|r| r.sieve.is_none()));
        }
    }

    #[test]
    fn off_policy_reads_one_block_no_speculation() {
        let mut off = Prefetcher::new(PrefetchPolicy::Off, 8);
        for lbn in 0..5u64 {
            let p = off.on_access(lbn, false, uniform(8, 100), 0, PLENTY, 0);
            assert_eq!(p.sync.unwrap().blocks, 1);
            assert!(p.runs.is_empty());
        }
    }

    #[test]
    fn adaptive_ramps_distance_on_sequential_hits() {
        let mut a = AdaptiveRa::new(4);
        let mut last = 0;
        for lbn in 0..6u64 {
            let p = a.on_access(lbn, lbn != 0, uniform(4, 10_000), 0, PLENTY, 0);
            assert!(p.distance >= last, "distance fell on a hit streak");
            last = p.distance;
        }
        assert_eq!(last, MAX_DISTANCE, "streak long enough to hit the cap");
    }

    #[test]
    fn adaptive_backs_off_on_seek() {
        let mut a = AdaptiveRa::new(4);
        for lbn in 0..5u64 {
            a.on_access(lbn, lbn != 0, uniform(4, 10_000), 0, PLENTY, 0);
        }
        let before = a.distance();
        let p = a.on_access(5000, false, uniform(4, 10_000), 0, PLENTY, 0);
        assert_eq!(p.distance, (before / 2).max(1));
        assert!(p.runs.is_empty(), "a seek prefetches nothing");
    }

    #[test]
    fn adaptive_sequential_covers_ahead_without_gaps() {
        // The runs issued on a pure sequential scan are exact, ahead of
        // the reader, and never overlap.
        let mut a = AdaptiveRa::new(4);
        let mut covered = std::collections::BTreeSet::new();
        for lbn in 0..64u64 {
            let p = a.on_access(lbn, lbn != 0, uniform(4, 10_000), 0, PLENTY, 0);
            for r in &p.runs {
                assert!(r.sieve.is_none(), "sequential never sieves");
                assert!(r.lbn > lbn, "prefetch lies ahead of the reader");
                for b in r.lbn..r.lbn + r.blocks as u64 {
                    assert!(covered.insert(b), "block {b} prefetched twice");
                }
            }
        }
        assert!(covered.contains(&64), "coverage extends past the reader");
    }

    #[test]
    fn adaptive_detects_stride_and_prefetches_records() {
        // Records of 1 block every 16 blocks: after two identical jumps
        // the period is confirmed and future record starts get covered.
        // (Start away from 0 so the `nextr = 0` cold-start heuristic does
        // not count the first record as sequential.)
        let mut a = AdaptiveRa::new(4);
        let mut issued = std::collections::BTreeSet::new();
        for k in 0..8u64 {
            let lbn = 5 + k * 16;
            let p = a.on_access(lbn, issued.contains(&lbn), uniform(4, 10_000), 0, PLENTY, 0);
            for r in &p.runs {
                assert!(r.sieve.is_none(), "far-apart records use exact runs");
                for b in r.lbn..r.lbn + r.blocks as u64 {
                    issued.insert(b);
                }
            }
        }
        assert!(
            issued.contains(&(5 + 3 * 16)),
            "record starts are predicted after confirmation: {issued:?}"
        );
        // Every predicted block is a record start (nothing from the gaps).
        assert!(issued.iter().all(|b| (b - 5) % 16 == 0), "{issued:?}");
    }

    #[test]
    fn adaptive_sieves_close_records() {
        // 2-block records every 3 blocks: period (3) ≤ 2×record (4), so
        // the window is covered by one spanning run with a sieve pattern.
        let mut a = AdaptiveRa::new(4);
        let mut sieved = None;
        for k in 0..6u64 {
            let lbn = k * 3;
            let p = a.on_access(lbn, false, uniform(4, 10_000), 0, PLENTY, 0);
            let _ = a.on_access(lbn + 1, true, uniform(4, 10_000), 0, PLENTY, 0);
            if let Some(r) = p.runs.iter().find(|r| r.sieve.is_some()) {
                sieved = Some(*r);
            }
        }
        let r = sieved.expect("close records trigger data sieving");
        assert_eq!(r.sieve, Some((2, 3)));
        assert_eq!(r.lbn % 3, 0, "sieve run starts on a record boundary");
    }

    #[test]
    fn no_prefetch_below_reserve() {
        let mut a = AdaptiveRa::new(4);
        for lbn in 0..32u64 {
            let p = a.on_access(lbn, lbn != 0, uniform(4, 10_000), 0, 10, 10);
            assert!(p.runs.is_empty(), "no headroom, no speculation");
        }
        // Headroom of 3 pages: speculation is clipped to exactly that.
        let mut a = AdaptiveRa::new(4);
        let p = a.on_access(0, false, uniform(4, 10_000), 0, 13, 10);
        let total: u64 = p.runs.iter().map(|r| r.blocks as u64).sum();
        assert!(total <= 3, "prefetch {total} blocks exceeds headroom 3");
        assert!(p.throttled);
    }

    #[test]
    fn demoted_stride_returns_to_sequential() {
        let mut a = AdaptiveRa::new(4);
        // Confirm a stride of 8...
        for k in 0..4u64 {
            a.on_access(k * 8, false, uniform(4, 10_000), 0, PLENTY, 0);
        }
        // ...then go long-sequential from the last record start.
        let base = 3 * 8;
        let mut issued_sequential = false;
        for off in 1..40u64 {
            let p = a.on_access(base + off, true, uniform(4, 10_000), 0, PLENTY, 0);
            issued_sequential |= p.runs.iter().any(|r| r.sieve.is_none());
        }
        assert!(
            issued_sequential,
            "sequential coverage resumes once the stride is demoted"
        );
    }
}
