//! Property tests for the extent tree, the buddy allocator, and the
//! inline-file spill path.
//!
//! Three invariant groups (see DESIGN.md "Extent trees, inline files, and
//! aging"):
//!
//! 1. The B+-tree is an exact map: any insert/remove sequence leaves it
//!    agreeing with a `BTreeMap` model record-for-record and
//!    lookup-for-lookup, with structural invariants (`check()`) intact
//!    through splits, merges, and root collapses.
//! 2. The allocator never hands out a block twice: live runs are disjoint,
//!    the free counter is exact, and freeing everything merges buddies all
//!    the way back to a max-order chunk.
//! 3. Inline files spill losslessly: whatever bytes were in the inode
//!    record are still readable after the file grows into the tree.

use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use diskmodel::DiskParams;
use extentfs::alloc::{BuddyAllocator, MAX_ORDER};
use extentfs::tree::{ExtentRec, ExtentTree, NODE_CAP};
use extentfs::{ExtentFs, ExtentFsParams};
use pagecache::{PageCacheParams, PageoutParams};
use proptest::prelude::*;
use simkit::Sim;
use ufs::CpuCosts;
use vfs::{AccessMode, FileSystem, Vnode};

// ---------------------------------------------------------------------------
// 1. Extent tree vs BTreeMap model
// ---------------------------------------------------------------------------

/// Records live in fixed logical "slots" so generated inserts can never
/// overlap: slot `i` covers `[i * SLOT_SPAN, i * SLOT_SPAN + len)` with
/// `len <= SLOT_SPAN`. Physical addresses are spread so no two slots are
/// ever physically adjacent — insert-time coalescing stays out of the
/// model's way (it gets its own test below).
const SLOT_SPAN: u64 = 8;
const NSLOTS: u64 = 96; // > NODE_CAP^2: full sequences force depth 3.

#[derive(Clone, Debug)]
enum TreeOp {
    Insert { slot: u64, len: u32 },
    Remove { slot: u64 },
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    // 3:2 insert:remove mix (the vendored prop_oneof! has no weights).
    (0..5u8, 0..NSLOTS, 1..SLOT_SPAN as u32 + 1).prop_map(|(kind, slot, len)| {
        if kind < 3 {
            TreeOp::Insert { slot, len }
        } else {
            TreeOp::Remove { slot }
        }
    })
}

fn slot_rec(slot: u64, len: u32) -> ExtentRec {
    ExtentRec {
        logical: slot * SLOT_SPAN,
        // Distinct non-adjacent physical homes per slot.
        pbn: slot as u32 * 1000 + 1,
        len,
    }
}

/// A deterministic Fisher–Yates permutation of `0..n` (the vendored
/// proptest has no shuffle strategy).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, next() as usize % (i + 1));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Arbitrary insert/remove sequences: the tree agrees with a BTreeMap
    /// keyed by logical start, and `check()` stays clean through every
    /// split, merge, and root collapse.
    #[test]
    fn tree_matches_btreemap_model(
        ops in proptest::collection::vec(tree_op(), 1..200),
    ) {
        let mut tree = ExtentTree::new();
        let mut model: BTreeMap<u64, ExtentRec> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert { slot, len } => {
                    let rec = slot_rec(slot, len);
                    // The tree forbids overlapping inserts; the model
                    // decides whether the slot is free.
                    model.entry(rec.logical).or_insert_with(|| {
                        tree.insert(rec);
                        rec
                    });
                }
                TreeOp::Remove { slot } => {
                    let logical = slot * SLOT_SPAN;
                    prop_assert_eq!(tree.remove(logical), model.remove(&logical));
                }
            }
            prop_assert!(tree.check().is_empty(), "{:?}", tree.check());
        }

        prop_assert_eq!(tree.nextents(), model.len());
        prop_assert_eq!(
            tree.total_blocks(),
            model.values().map(|r| r.len as u64).sum::<u64>()
        );
        prop_assert_eq!(tree.records(), model.values().copied().collect::<Vec<_>>());

        // Lookups agree block-for-block, including the holes.
        for slot in 0..NSLOTS {
            let base = slot * SLOT_SPAN;
            for off in 0..SLOT_SPAN {
                let want = model.get(&base).and_then(|r| {
                    (off < r.len as u64)
                        .then(|| (r.pbn + off as u32, r.len - off as u32))
                });
                prop_assert_eq!(tree.lookup(base + off), want);
            }
        }
    }

    /// A file written as adjacent fragments coalesces to one record no
    /// matter the arrival order: insert merges with both neighbors.
    #[test]
    fn adjacent_inserts_coalesce_to_one_record(
        lens in proptest::collection::vec(1..16u32, 2..24),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // Fragment i starts where fragment i-1 ends, logically and
        // physically.
        let mut starts = Vec::with_capacity(lens.len());
        let mut at = 0u64;
        for &len in &lens {
            starts.push(at);
            at += len as u64;
        }
        let order = shuffled(lens.len(), shuffle_seed);
        let mut tree = ExtentTree::new();
        for &i in &order {
            tree.insert(ExtentRec {
                logical: starts[i],
                pbn: 7 + starts[i] as u32,
                len: lens[i],
            });
            prop_assert!(tree.check().is_empty(), "{:?}", tree.check());
        }
        prop_assert_eq!(tree.nextents(), 1);
        prop_assert_eq!(
            tree.records(),
            vec![ExtentRec { logical: 0, pbn: 7, len: at as u32 }]
        );
    }

    /// Bulk insert then drain: depth must actually grow past a root leaf
    /// (NSLOTS > NODE_CAP²) and collapse back to 1 as records drain.
    #[test]
    fn splits_then_merges_collapse_the_root(keep in 0..NSLOTS) {
        let mut tree = ExtentTree::new();
        for slot in 0..NSLOTS {
            tree.insert(slot_rec(slot, 1));
        }
        prop_assert!(tree.depth() >= 3, "depth {} at {} records", tree.depth(), NSLOTS);
        prop_assert!(tree.nextents() > NODE_CAP * NODE_CAP);
        for slot in 0..NSLOTS {
            if slot != keep {
                prop_assert!(tree.remove(slot * SLOT_SPAN).is_some());
                prop_assert!(tree.check().is_empty(), "{:?}", tree.check());
            }
        }
        prop_assert_eq!(tree.depth(), 1);
        prop_assert_eq!(tree.records(), vec![slot_rec(keep, 1)]);
    }
}

// ---------------------------------------------------------------------------
// 2. Buddy allocator: disjoint runs, exact accounting, merge-on-free
// ---------------------------------------------------------------------------

const ALLOC_BLOCKS: u64 = 4096; // Two full groups.

#[derive(Clone, Debug)]
enum AllocOp {
    Alloc { want: u32, goal: Option<u64> },
    Free { sel: usize },
}

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    // 3:2 alloc:free mix; goal is present half the time.
    (0..5u8, 1..129u32, 0..2u8, 0..ALLOC_BLOCKS, 0usize..64).prop_map(
        |(kind, want, has_goal, goal, sel)| {
            if kind < 3 {
                AllocOp::Alloc {
                    want,
                    goal: (has_goal == 1).then_some(goal),
                }
            } else {
                AllocOp::Free { sel }
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary alloc/free interleavings: no block is ever handed out
    /// twice, the free counter matches a block-set model exactly, and once
    /// everything is freed the buddies merge back to a max-order chunk.
    #[test]
    fn allocator_runs_stay_disjoint_and_merge_on_free(
        ops in proptest::collection::vec(alloc_op(), 1..120),
    ) {
        let mut alloc = BuddyAllocator::new(ALLOC_BLOCKS);
        let mut live = Vec::new();
        let mut taken: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                AllocOp::Alloc { want, goal } => {
                    let Ok(run) = alloc.alloc(want, goal) else {
                        // NoSpace is legal under pressure; never with a
                        // whole free group outstanding.
                        prop_assert!(
                            alloc.free_blocks() < ALLOC_BLOCKS / 2,
                            "alloc({want}) failed with {} free",
                            alloc.free_blocks()
                        );
                        continue;
                    };
                    prop_assert!(run.len >= 1 && run.len <= want);
                    // `short` marks the settle-for-largest path; goal
                    // extension may also under-deliver but is not short
                    // (contiguity beats length).
                    prop_assert!(!run.short || run.len < want);
                    prop_assert!(run.start + run.len as u64 <= ALLOC_BLOCKS);
                    for b in run.start..run.start + run.len as u64 {
                        prop_assert!(taken.insert(b), "block {b} double-allocated");
                        prop_assert!(alloc.is_allocated(b));
                    }
                    live.push(run);
                }
                AllocOp::Free { sel } => {
                    if live.is_empty() {
                        continue;
                    }
                    let run = live.swap_remove(sel % live.len());
                    alloc.free_run(run.start, run.len).unwrap();
                    for b in run.start..run.start + run.len as u64 {
                        prop_assert!(taken.remove(&b));
                        prop_assert!(!alloc.is_allocated(b));
                    }
                }
            }
            prop_assert_eq!(alloc.free_blocks(), ALLOC_BLOCKS - taken.len() as u64);
            prop_assert!(alloc.check().is_empty(), "{:?}", alloc.check());
        }

        // Merge-on-free: drain the survivors and the buddy chains must
        // reassemble a max-order chunk (and satisfy a max-order alloc).
        for run in live.drain(..) {
            alloc.free_run(run.start, run.len).unwrap();
        }
        prop_assert_eq!(alloc.free_blocks(), ALLOC_BLOCKS);
        prop_assert_eq!(alloc.max_free_order(), Some(MAX_ORDER));
        let max = alloc.alloc(1 << MAX_ORDER, None).unwrap();
        prop_assert_eq!(max.len, 1 << MAX_ORDER);
        prop_assert!(!max.short);
    }
}

// ---------------------------------------------------------------------------
// 3. Inline files spill into the tree without losing a byte
// ---------------------------------------------------------------------------

fn spill_world(sim: &Sim) -> ExtentFs {
    let mut params = ExtentFsParams::with_extent_blocks(8);
    params.costs = CpuCosts::free();
    extentfs::build_world_on(
        sim,
        Rc::new(diskmodel::Disk::new(sim, DiskParams::small_test())),
        PageCacheParams::small_test(),
        PageoutParams::small_test(),
        64,
        params,
    )
    .unwrap()
    .fs
}

proptest! {
    // Each case spins a full simulated world; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Write a head that fits inline, then a tail that crosses the
    /// threshold: the head bytes must survive the inode→tree spill, and
    /// the gap (if the tail lands past EOF) must read back as zeros.
    /// (Panics inside the simulation surface as proptest failures.)
    #[test]
    fn inline_spill_preserves_contents(
        head_len in 1usize..513,
        tail_off in 0usize..513,
        tail_len in 1usize..20_000,
        seed in 0u8..255,
    ) {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let fs = spill_world(&s);
            let f = fs.create("grow").await.unwrap();
            let head: Vec<u8> = (0..head_len).map(|i| (i as u8) ^ seed).collect();
            f.write(0, &head, AccessMode::Copy).await.unwrap();
            assert!(f.extents().await.unwrap().is_empty(), "head should be inline");
            assert_eq!(fs.stats().inline_files, 1);

            let tail: Vec<u8> =
                (0..tail_len).map(|i| (i as u8).wrapping_add(seed) | 1).collect();
            f.write(tail_off as u64, &tail, AccessMode::Copy).await.unwrap();
            f.fsync().await.unwrap();

            let total = (tail_off + tail_len).max(head_len);
            if total > 512 {
                assert!(
                    !f.extents().await.unwrap().is_empty(),
                    "file should have spilled into the tree"
                );
                assert_eq!(fs.stats().inline_files, 0, "no inline files after spill");
            }
            let back = f.read(0, total, AccessMode::Copy).await.unwrap();
            let mut want = vec![0u8; total];
            want[..head_len].copy_from_slice(&head);
            want[tail_off..tail_off + tail_len].copy_from_slice(&tail);
            assert_eq!(back, want, "contents differ after spill");
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }
}
