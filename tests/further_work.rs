//! Integration tests for the paper's "Further Work" features, which this
//! reproduction implements as optional extensions.

use clufs::Tuning;
use iobench::{paper_world, WorldOptions};
use simkit::Sim;
use vfs::{AccessMode, FileSystem, Vnode};

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_add(seed)).collect()
}

#[test]
fn bmap_cache_cuts_translations() {
    // "A small cache in the inode could reduce the cost of bmap
    // substantially."
    let bmap_counts = |enable: bool| -> (u64, u64) {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = paper_world(
                &s,
                Tuning::config_a(),
                WorldOptions {
                    full_scale: false,
                    bmap_cache: enable,
                    ..WorldOptions::default()
                },
            )
            .await
            .unwrap();
            let f = w.fs.create("f").await.unwrap();
            f.write(0, &pattern(2 << 20, 1), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            w.invalidate(&f);
            w.fs.reset_stats();
            f.read(0, 2 << 20, AccessMode::Copy).await.unwrap();
            let st = w.fs.stats();
            (st.bmap_calls, st.bmap_cache_hits)
        })
    };
    let (without, _) = bmap_counts(false);
    let (with, hits) = bmap_counts(true);
    assert!(hits > 0, "cache should be hit");
    assert!(
        with < without,
        "bmap cache should cut real translations: {with} vs {without}"
    );
}

#[test]
fn ufs_hole_opt_skips_bmap_on_cache_hits() {
    // "One possible solution is to remember whether the file has holes and
    // do the bmap only if the page is not in memory or if the file has
    // holes."
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = paper_world(
            &s,
            Tuning::config_a(),
            WorldOptions {
                full_scale: false,
                ufs_hole_opt: true,
                ..WorldOptions::default()
            },
        )
        .await
        .unwrap();
        // A dense file: created in-session, never truncated/hole-punched.
        let f = w.fs.create("dense").await.unwrap();
        f.write(0, &pattern(512 * 1024, 2), AccessMode::Copy)
            .await
            .unwrap();
        // Read twice: the second pass is all cache hits and should skip
        // every bmap.
        f.read(0, 512 * 1024, AccessMode::Copy).await.unwrap();
        w.fs.reset_stats();
        f.read(0, 512 * 1024, AccessMode::Copy).await.unwrap();
        let st = w.fs.stats();
        assert!(
            st.bmap_skipped_hole_opt >= 60,
            "dense cached file should skip bmaps, skipped {}",
            st.bmap_skipped_hole_opt
        );

        // A holey file must NOT skip.
        let h = w.fs.create("holey").await.unwrap();
        h.write(0, &pattern(8192, 3), AccessMode::Copy)
            .await
            .unwrap();
        h.write(128 * 1024, &pattern(8192, 4), AccessMode::Copy)
            .await
            .unwrap();
        h.read(0, 140 * 1024, AccessMode::Copy).await.unwrap();
        w.fs.reset_stats();
        h.read(0, 140 * 1024, AccessMode::Copy).await.unwrap();
        assert_eq!(
            w.fs.stats().bmap_skipped_hole_opt,
            0,
            "files with holes must keep calling bmap"
        );
    });
}

#[test]
fn random_cluster_hint_reduces_io_count() {
    // "If the request is a read of a large amount of data, it is possible
    // that the request size could be passed down to the ufs_getpage
    // routine ... to turn on clustering for what is apparently random
    // access."
    let ios = |hint: bool| -> u64 {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = paper_world(
                &s,
                Tuning::config_a(),
                WorldOptions {
                    full_scale: false,
                    random_cluster_hint: hint,
                    ..WorldOptions::default()
                },
            )
            .await
            .unwrap();
            let f = w.fs.create("f").await.unwrap();
            f.write(0, &pattern(2 << 20, 5), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            w.invalidate(&f);
            w.disk.reset_stats();
            // Random 40 KB reads (the paper's "random reads of 20KB
            // segments" scenario, scaled to our block size).
            for i in [20u64, 3, 11, 27, 7, 17, 24, 1] {
                f.read(i * 40960, 40960, AccessMode::Copy).await.unwrap();
            }
            w.disk.stats().reads
        })
    };
    let without = ios(false);
    let with = ios(true);
    assert!(
        with < without / 2,
        "size hint should cut I/O count: {with} vs {without}"
    );
}

#[test]
fn b_order_speeds_up_rm_star() {
    // "If there was a way to insure the order of critical writes ... The
    // performance of commands like rm * would improve substantially."
    let rm_star = |ordered: bool| -> (f64, u64) {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = paper_world(
                &s,
                Tuning::config_a(),
                WorldOptions {
                    full_scale: false,
                    ordered_metadata: ordered,
                    ..WorldOptions::default()
                },
            )
            .await
            .unwrap();
            for i in 0..30 {
                let f = w.fs.create(&format!("f{i}")).await.unwrap();
                f.write(0, &pattern(4096, i as u8), AccessMode::Copy)
                    .await
                    .unwrap();
            }
            w.fs.sync().await.unwrap();
            let t0 = s.now();
            for i in 0..30 {
                w.fs.remove(&format!("f{i}")).await.unwrap();
            }
            let elapsed = s.now().duration_since(t0).as_secs_f64();
            let ordered_writes = w.fs.stats().ordered_meta_writes;
            // The image must still be consistent after settling.
            w.fs.clone().unmount().await.unwrap();
            let report = ufs::fsck(&*w.disk).await.unwrap();
            assert!(report.is_clean(), "{:?}", report.errors);
            (elapsed, ordered_writes)
        })
    };
    let (sync_time, sync_ordered) = rm_star(false);
    let (ordered_time, ordered_count) = rm_star(true);
    assert_eq!(sync_ordered, 0);
    assert!(ordered_count > 0, "B_ORDER mode issues ordered writes");
    assert!(
        ordered_time < sync_time * 0.5,
        "rm * should improve substantially: {ordered_time:.3}s vs {sync_time:.3}s"
    );
}

#[test]
fn inline_files_served_from_inode_cache() {
    // "Data in the inode": small files use no data blocks and survive
    // remount.
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let cpu = simkit::Cpu::new(&s);
        let disk: diskmodel::SharedDevice = std::rc::Rc::new(diskmodel::Disk::new(
            &s,
            diskmodel::DiskParams::small_test(),
        ));
        let cache = pagecache::PageCache::new(&s, pagecache::PageCacheParams::small_test());
        ufs::mkfs(&s, &*disk, ufs::MkfsOptions::small_test())
            .await
            .unwrap();
        let mut params = ufs::UfsParams::test(Tuning::config_a());
        params.inline_small = true;
        let fs = ufs::Ufs::mount(&s, &cpu, &cache, &disk, params.clone(), None)
            .await
            .unwrap();
        let free0 = fs.free_blocks();
        let f = fs.create("tiny").await.unwrap();
        f.write(0, b"inline me", AccessMode::Copy).await.unwrap();
        f.fsync().await.unwrap();
        assert_eq!(fs.free_blocks(), free0, "no data blocks consumed");
        fs.clone().unmount().await.unwrap();
        // Remount: the inline content persisted inside the dinode.
        params.mount_id = 9;
        let fs2 = ufs::Ufs::mount(&s, &cpu, &cache, &disk, params, None)
            .await
            .unwrap();
        let f2 = fs2.open("tiny").await.unwrap();
        let back = f2.read(0, 100, AccessMode::Copy).await.unwrap();
        assert_eq!(back, b"inline me");
    });
}
