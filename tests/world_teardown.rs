//! A world dies with the `Sim` that owns it. Daemons, disk service loops
//! and mounts hold clones of the executor that holds them, so nothing
//! here is freed by reference counting alone: the `Sim::new()` handle
//! drops its tasks when it is dropped (see `simkit::executor`), and that
//! has to take the whole machine with it — page cache, sector store,
//! free lists, in-core inodes. This builds, runs and drops a world on
//! each file system and on an array, and reads the allocator's level.

use std::rc::Rc;

use diskmodel::{Disk, DiskParams};
use extentfs::ExtentFsParams;
use iobench::iobench::BenchOptions;
use iobench::{paper_ext_world, paper_world, run_iobench, Config, IoKind, WorldOptions};
use pagecache::PageCacheParams;
use simkit::perfmon::{self, CountingAlloc};
use simkit::Sim;
use vfs::{FileSystem, World};
use volmgr::{Volume, VolumeSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a dropped world may leave behind.
const SLACK: i64 = 64 << 10;

/// One FSW of a fresh 4 MB file, then a cold FSR of it.
async fn pass<F: FileSystem>(w: &World<F>) {
    let opts = BenchOptions {
        file_bytes: 4 << 20,
        ..BenchOptions::default()
    };
    let read = run_iobench(w, "f.dat", IoKind::SeqRead, opts)
        .await
        .unwrap();
    assert_eq!(read.bytes, opts.file_bytes);
}

fn ufs_config_a() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = paper_world(&s, Config::A.tuning(), WorldOptions::default())
            .await
            .unwrap();
        pass(&w).await;
    });
}

fn extentfs() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let disk = Rc::new(Disk::new(&s, DiskParams::sun0424()));
        let w = paper_ext_world(&s, disk, 64, ExtentFsParams::with_extent_blocks(15));
        pass(&w).await;
    });
}

fn ufs_on_raid5() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let spec = VolumeSpec::parse("raid5:4:32k").unwrap();
        let volume = Volume::new(&s, &spec, DiskParams::sun0424());
        let w = ufs::build_world_on(
            &s,
            Rc::new(volume),
            PageCacheParams::sparcstation_8mb(),
            ufs::MkfsOptions::sun0424(),
            ufs::UfsParams::with_tuning(Config::A.tuning()),
        )
        .await
        .unwrap();
        pass(&w).await;
    });
}

/// Live bytes on this thread, with the profiler's own buffer emptied.
fn level() -> i64 {
    perfmon::take_records();
    perfmon::thread_live_bytes()
}

#[test]
fn a_dropped_world_gives_its_memory_back() {
    perfmon::set_enabled(true);
    let start = level();
    for (name, world) in [
        ("UFS config A", ufs_config_a as fn()),
        ("extentfs", extentfs),
        ("UFS on raid5:4:32k", ufs_on_raid5),
    ] {
        world();
        let left = level() - start;
        assert!(
            left.abs() <= SLACK,
            "{name}: {left} bytes outlive the world"
        );
    }
    let (_, allocated) = perfmon::thread_alloc_counts();
    assert!(allocated > 8 << 20, "the allocator is not counting");

    let first = level();
    for _ in 0..8 {
        ufs_config_a();
    }
    let grown = level() - first;
    perfmon::set_enabled(false);
    assert!(grown <= 0, "eight worlds in a row grew the heap by {grown}");
}
