//! `FileSystem::sync` with several dirty files must be a pure function of
//! the configuration: the open-file tables are hash maps, and their
//! iteration order (seeded per map) once decided the order the files'
//! writes reached the disk queue — and with it seek distances, queue
//! waits and the final virtual time.

use std::rc::Rc;

use clufs::Tuning;
use simkit::{Sim, SimTime};
use vfs::{AccessMode, FileSystem, Vnode};

const FILES: usize = 10;
const BLOCK: usize = 8192;

/// Leaves `FILES` files dirty (two delayed blocks each), then syncs.
async fn dirty_then_sync(fs: &impl FileSystem) {
    for i in 0..FILES {
        let f = fs.create(&format!("f{i}")).await.unwrap();
        f.write(0, &vec![i as u8 + 1; 2 * BLOCK], AccessMode::Copy)
            .await
            .unwrap();
    }
    fs.sync().await.unwrap();
}

fn ufs_outcome() -> (String, SimTime) {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = ufs::build_test_world(&s, Tuning::config_a()).await.unwrap();
        dirty_then_sync(&w.fs).await;
    });
    (sim.stats().to_json(), sim.now())
}

fn extentfs_outcome() -> (String, SimTime) {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = extentfs::build_world_on(
            &s,
            Rc::new(diskmodel::Disk::new(
                &s,
                diskmodel::DiskParams::small_test(),
            )),
            pagecache::PageCacheParams::small_test(),
            pagecache::PageoutParams::small_test(),
            64,
            extentfs::ExtentFsParams::with_extent_blocks(4),
        )
        .unwrap();
        dirty_then_sync(&w.fs).await;
    });
    (sim.stats().to_json(), sim.now())
}

#[test]
fn ufs_sync_of_many_dirty_files_is_deterministic() {
    assert_eq!(ufs_outcome(), ufs_outcome());
}

#[test]
fn extentfs_sync_of_many_dirty_files_is_deterministic() {
    assert_eq!(extentfs_outcome(), extentfs_outcome());
}
