//! Crash-consistency and durability integration tests: what survives an
//! unclean stop, and what fsck says about it.

use clufs::Tuning;
use iobench::{paper_world, WorldOptions};
use simkit::Sim;
use vfs::{AccessMode, FileSystem, Vnode};

fn small() -> WorldOptions {
    WorldOptions {
        full_scale: false,
        ..WorldOptions::default()
    }
}

#[test]
fn fsynced_data_survives_crash_and_remount() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = paper_world(&s, Tuning::config_a(), small()).await.unwrap();
        let f = w.fs.create("durable").await.unwrap();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 241) as u8).collect();
        f.write(0, &data, AccessMode::Copy).await.unwrap();
        f.fsync().await.unwrap();
        // CRASH: drop all in-core state; only the disk survives. (The
        // in-core bitmaps were never synced, so fsck will complain — but
        // the *data* must be there, because fsync completed.)
        let cpu = simkit::Cpu::new(&s);
        let cache = pagecache::PageCache::new(&s, pagecache::PageCacheParams::small_test());
        let mut params = ufs::UfsParams::test(Tuning::config_a());
        params.mount_id = 77;
        let fs2 = ufs::Ufs::mount(&s, &cpu, &cache, &w.disk, params, None)
            .await
            .unwrap();
        let f2 = fs2.open("durable").await.unwrap();
        assert_eq!(f2.size(), 100_000);
        let back = f2.read(0, 100_000, AccessMode::Copy).await.unwrap();
        assert_eq!(back, data);
    });
}

#[test]
fn unsynced_data_is_lost_but_detected() {
    let sim = Sim::new();
    let s = sim.clone();
    let (report, found) = sim.run_until(async move {
        let w = paper_world(&s, Tuning::config_a(), small()).await.unwrap();
        let f = w.fs.create("volatile").await.unwrap();
        // Delayed writes: never fsynced, likely still accumulating in the
        // delayed-write engine or in flight.
        f.write(0, &[5u8; 20_000], AccessMode::Copy).await.unwrap();
        // Crash immediately.
        let report = ufs::fsck(&*w.disk).await.unwrap();
        // Remount: the file NAME is durable (directory updates are
        // synchronous in classic UFS), even though the data may not be.
        let cpu = simkit::Cpu::new(&s);
        let cache = pagecache::PageCache::new(&s, pagecache::PageCacheParams::small_test());
        let mut params = ufs::UfsParams::test(Tuning::config_a());
        params.mount_id = 78;
        let fs2 = ufs::Ufs::mount(&s, &cpu, &cache, &w.disk, params, None)
            .await
            .unwrap();
        let found = fs2.open("volatile").await.is_ok();
        (report, found)
    });
    assert!(!report.was_clean, "crash leaves the dirty flag");
    assert!(found, "sync directory update made the name durable");
}

#[test]
fn sync_makes_whole_tree_consistent() {
    let sim = Sim::new();
    let s = sim.clone();
    let report = sim.run_until(async move {
        let w = paper_world(&s, Tuning::config_a(), small()).await.unwrap();
        w.fs.mkdir("a").await.unwrap();
        w.fs.mkdir("a/b").await.unwrap();
        for i in 0..10 {
            let f = w.fs.create(&format!("a/b/f{i}")).await.unwrap();
            f.write(0, &vec![i as u8; 9_000], AccessMode::Copy)
                .await
                .unwrap();
        }
        w.fs.remove("a/b/f3").await.unwrap();
        // sync (not unmount): everything except the clean flag reaches
        // disk; fsck must find zero structural errors.
        w.fs.sync().await.unwrap();
        w.fs.flush_maps(false).await;
        ufs::fsck(&*w.disk).await.unwrap()
    });
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    assert_eq!(report.files, 9);
    assert_eq!(report.dirs, 3);
}

#[test]
fn ordered_metadata_is_crash_consistent_when_settled() {
    // B_ORDER mode: metadata writes are asynchronous but ordered. Once the
    // queue drains, the image must be exactly as consistent as sync mode.
    let sim = Sim::new();
    let s = sim.clone();
    let report = sim.run_until(async move {
        let w = paper_world(
            &s,
            Tuning::config_a(),
            WorldOptions {
                full_scale: false,
                ordered_metadata: true,
                ..WorldOptions::default()
            },
        )
        .await
        .unwrap();
        for i in 0..20 {
            let f = w.fs.create(&format!("f{i}")).await.unwrap();
            f.write(0, &[i as u8; 5000], AccessMode::Copy)
                .await
                .unwrap();
        }
        for i in (0..20).step_by(3) {
            w.fs.remove(&format!("f{i}")).await.unwrap();
        }
        w.fs.clone().unmount().await.unwrap();
        ufs::fsck(&*w.disk).await.unwrap()
    });
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    assert_eq!(report.files, 13);
}

#[test]
fn data_written_under_memory_pressure_is_intact() {
    // Write far more than memory, fsync, remount, verify every byte: the
    // pageout/cleaner path must never lose or corrupt a page.
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = paper_world(&s, Tuning::config_a(), small()).await.unwrap();
        // Small world: 32 pages = 256 KB of memory; write 2 MB.
        let f = w.fs.create("pressure").await.unwrap();
        let chunk: Vec<u8> = (0..64 * 1024).map(|i| (i % 239) as u8).collect();
        for i in 0..32u64 {
            f.write(i * chunk.len() as u64, &chunk, AccessMode::Copy)
                .await
                .unwrap();
        }
        f.fsync().await.unwrap();
        w.invalidate(&f);
        for i in [0u64, 7, 15, 31] {
            let back = f
                .read(i * chunk.len() as u64, chunk.len(), AccessMode::Copy)
                .await
                .unwrap();
            assert_eq!(back, chunk, "chunk {i} corrupt");
        }
        w.cache.assert_consistent();
    });
}
