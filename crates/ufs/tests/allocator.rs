//! Allocator-focused tests: placement policy, accounting invariants, and
//! behavior at the edges the paper's contiguity study depends on.

use clufs::Tuning;
use proptest::prelude::*;
use simkit::Sim;
use ufs::build_test_world;
use vfs::{AccessMode, FileSystem, Vnode};

#[test]
fn two_growing_files_interleave_without_overlap() {
    // Two files extended alternately: the allocator keeps each reasonably
    // contiguous and never double-allocates.
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = build_test_world(&s, Tuning::config_a()).await.unwrap();
        let a = w.fs.create("a").await.unwrap();
        let b = w.fs.create("b").await.unwrap();
        let chunk = vec![1u8; 3 * 8192];
        for i in 0..10u64 {
            a.write(i * chunk.len() as u64, &chunk, AccessMode::Copy)
                .await
                .unwrap();
            b.write(i * chunk.len() as u64, &chunk, AccessMode::Copy)
                .await
                .unwrap();
        }
        a.fsync().await.unwrap();
        b.fsync().await.unwrap();
        let ea = a.extents().await.unwrap();
        let eb = b.extents().await.unwrap();
        // No physical overlap between the two files.
        let mut blocks = std::collections::HashSet::new();
        for (_l, p, n) in ea.iter().chain(eb.iter()) {
            for i in 0..*n as u64 {
                assert!(blocks.insert(p + i), "block {p}+{i} allocated twice");
            }
        }
        // Interleaved growth costs contiguity, but each file should still
        // average multi-block extents (the allocator "thinks ahead").
        let mean =
            |e: &Vec<(u64, u64, u32)>| e.iter().map(|x| x.2 as f64).sum::<f64>() / e.len() as f64;
        assert!(mean(&ea) >= 2.0, "file a fragmented: {ea:?}");
        assert!(mean(&eb) >= 2.0, "file b fragmented: {eb:?}");
        w.fs.clone().unmount().await.unwrap();
        let report = ufs::fsck(&*w.disk).await.unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    });
}

#[test]
fn maxbpg_moves_large_files_to_new_groups() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        // Small maxbpg so the switch is visible on the small disk.
        let mut params = ufs::UfsParams::test(Tuning::config_a());
        params.maxbpg = Some(20);
        // Several small groups so the maxbpg switch has somewhere to go
        // (the default small_test layout is a single group).
        let opts = ufs::MkfsOptions {
            blocks_per_cg: 256,
            inodes_per_cg: 64,
            ..ufs::MkfsOptions::small_test()
        };
        let w = ufs::build_world(
            &s,
            diskmodel::DiskParams::small_test(),
            pagecache::PageCacheParams::small_test(),
            opts,
            params,
        )
        .await
        .unwrap();
        let f = w.fs.create("big").await.unwrap();
        f.write(0, &vec![1u8; 60 * 8192], AccessMode::Copy)
            .await
            .unwrap();
        f.fsync().await.unwrap();
        let extents = f.extents().await.unwrap();
        // 60 blocks with maxbpg=20: at least two allocator moves, so the
        // file spans multiple long runs rather than one.
        assert!(
            extents.len() >= 3,
            "expected group switches to split the file: {extents:?}"
        );
        // Each run before a switch is about maxbpg long.
        assert!(
            extents.iter().any(|e| e.2 >= 15),
            "runs should still be long: {extents:?}"
        );
    });
}

#[test]
fn rotdelay_gap_scales_with_block_time() {
    // The small test disk spins a 32-sector track in 16.7 ms, so one 8 KB
    // block takes ~8.3 ms; a 10 ms rotdelay therefore needs TWO gap
    // blocks (the gap is rounded up to whole block slots).
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let tuning = Tuning {
            rotdelay_ms: 10,
            ..Tuning::config_b()
        };
        let w = build_test_world(&s, tuning).await.unwrap();
        let f = w.fs.create("wide").await.unwrap();
        f.write(0, &vec![1u8; 6 * 8192], AccessMode::Copy)
            .await
            .unwrap();
        let extents = f.extents().await.unwrap();
        for pair in extents.windows(2) {
            let gap = pair[1].1 - (pair[0].1 + pair[0].2 as u64);
            assert_eq!(gap, 2, "10 ms rotdelay → two-block gaps: {extents:?}");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Free-block accounting survives arbitrary create/write/remove churn,
    /// and everything the superblock believes is free really is free
    /// (checked by fsck from the raw image).
    #[test]
    fn accounting_survives_churn(
        sizes in proptest::collection::vec(1u32..400_000, 1..12),
        remove_mask in any::<u16>(),
    ) {
        let sim = Sim::new();
        let s = sim.clone();
        let sizes2 = sizes.clone();
        sim.run_until(async move {
            let w = build_test_world(&s, Tuning::config_a()).await.unwrap();
            let free0 = w.fs.free_blocks();
            for (i, &size) in sizes2.iter().enumerate() {
                let f = w.fs.create(&format!("c{i}")).await.unwrap();
                let data = vec![i as u8; size as usize];
                if f.write(0, &data, AccessMode::Copy).await.is_err() {
                    break; // NoSpace on tiny worlds is fine.
                }
                f.fsync().await.unwrap();
            }
            let mut removed_all = true;
            for i in 0..sizes2.len() {
                if remove_mask & (1 << (i % 16)) != 0 {
                    let _ = w.fs.remove(&format!("c{i}")).await;
                } else if w.fs.open(&format!("c{i}")).await.is_ok() {
                    removed_all = false;
                }
            }
            if removed_all {
                assert_eq!(w.fs.free_blocks(), free0, "all space returned");
            }
            w.fs.clone().unmount().await.unwrap();
            let report = ufs::fsck(&*w.disk).await.unwrap();
            assert!(report.is_clean(), "fsck: {:?}", report.errors);
        });
    }
}
