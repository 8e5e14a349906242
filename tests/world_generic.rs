//! One workload body, every machine: the same read/write round trip runs
//! against `World<Ufs>` and `World<ExtentFs>`, on a single drive and on a
//! RAID-5 array. What differs per cell is only how the machine is built.

use std::rc::Rc;

use clufs::Tuning;
use diskmodel::{Disk, DiskParams, SharedDevice};
use pagecache::{PageCacheParams, PageoutParams};
use simkit::Sim;
use vfs::{AccessMode, FileSystem, Vnode, World};
use volmgr::VolumeSpec;

const BLOCK: usize = 8192;
const LEN: usize = 20 * BLOCK + 100;

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Write a pattern, make it durable, drop it from the cache, read it back
/// cold; then overwrite a block in the middle and do the same again.
async fn round_trip<F: FileSystem>(w: &World<F>) {
    let f = w.fs.create("rt.dat").await.unwrap();
    let mut want = pattern(LEN, 1);
    f.write(0, &want, AccessMode::Copy).await.unwrap();
    f.fsync().await.unwrap();
    assert_eq!(f.size(), LEN as u64);

    w.invalidate(&f);
    assert_eq!(w.cache.resident_of(f.id()), 0);
    let reads = w.disk.stats().reads;
    assert_eq!(f.read(0, LEN, AccessMode::Copy).await.unwrap(), want);
    assert!(
        w.disk.stats().reads > reads,
        "a cold read reaches the device"
    );

    let middle = pattern(BLOCK, 2);
    want[7 * BLOCK..8 * BLOCK].copy_from_slice(&middle);
    f.write(7 * BLOCK as u64, &middle, AccessMode::Copy)
        .await
        .unwrap();
    f.fsync().await.unwrap();
    w.invalidate(&f);
    assert_eq!(f.read(0, 2 * LEN, AccessMode::Copy).await.unwrap(), want);
    assert_eq!(f.size(), LEN as u64);
}

fn device(sim: &Sim, volume: Option<&'static str>) -> SharedDevice {
    match volume {
        None => Rc::new(Disk::new(sim, DiskParams::small_test())),
        Some(spec) => volmgr::build(
            sim,
            &VolumeSpec::parse(spec).unwrap(),
            DiskParams::small_test(),
        ),
    }
}

fn on_ufs(volume: Option<&'static str>) {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = ufs::build_world_on(
            &s,
            device(&s, volume),
            PageCacheParams::small_test(),
            ufs::MkfsOptions::small_test(),
            ufs::UfsParams::test(Tuning::config_a()),
        )
        .await
        .unwrap();
        round_trip(&w).await;
    });
}

fn on_extentfs(volume: Option<&'static str>) {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = extentfs::build_world_on(
            &s,
            device(&s, volume),
            PageCacheParams::small_test(),
            PageoutParams::small_test(),
            64,
            extentfs::ExtentFsParams::with_extent_blocks(4),
        )
        .unwrap();
        round_trip(&w).await;
    });
}

#[test]
fn ufs_on_a_single_drive() {
    on_ufs(None);
}

#[test]
fn ufs_on_raid5() {
    on_ufs(Some("raid5:3:32k"));
}

#[test]
fn extentfs_on_a_single_drive() {
    on_extentfs(None);
}

#[test]
fn extentfs_on_raid5() {
    on_extentfs(Some("raid5:3:32k"));
}
