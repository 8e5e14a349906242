//! The transfer buffer travels with the request (see
//! `diskmodel::BlockDevice`), so once a mount's free list is warm, moving a
//! byte through the I/O path allocates next to nothing. This pins the
//! budget on the paper's machine for both file systems. Before the buffer
//! travelled, every transfer cost two fresh allocations and the UFS pass
//! below read 2.04 bytes allocated per byte moved; it reads 0.03 now.

use std::rc::Rc;

use diskmodel::{Disk, DiskParams, Geometry};
use extentfs::ExtentFsParams;
use iobench::iobench::BenchOptions;
use iobench::{paper_ext_world, paper_world, run_iobench, Config, IoKind, WorldOptions};
use simkit::perfmon::{self, CountingAlloc};
use simkit::Sim;
use vfs::{FileSystem, World};
use volmgr::{Volume, VolumeSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FILE_BYTES: u64 = 4 << 20;

/// One FSW of a fresh 4 MB file, then a cold FSR of it: IObench's
/// sequential read with the preparation that writes its file.
async fn pass<F: FileSystem>(w: &World<F>, path: &str) {
    let opts = BenchOptions {
        file_bytes: FILE_BYTES,
        ..BenchOptions::default()
    };
    let read = run_iobench(w, path, IoKind::SeqRead, opts).await.unwrap();
    assert_eq!(read.bytes, FILE_BYTES);
}

/// Bytes allocated per byte moved by a second pass on a warmed machine.
/// The first pass's file is removed so that the second lands on the same
/// sectors: materializing the sparse sector store under new data is the
/// disk's memory, paid once, not the I/O path's.
async fn warm_pass_cost<F: FileSystem>(w: &World<F>) -> f64 {
    pass(w, "warm.dat").await;
    w.fs.remove("warm.dat").await.unwrap();
    let (_, before) = perfmon::thread_alloc_counts();
    pass(w, "again.dat").await;
    let (_, after) = perfmon::thread_alloc_counts();
    (after - before) as f64 / (2 * FILE_BYTES) as f64
}

#[test]
fn a_warm_pass_allocates_a_fraction_of_a_byte_per_byte_moved() {
    let sim = Sim::new();
    let s = sim.clone();
    let ufs = sim.run_until(async move {
        let w = paper_world(&s, Config::A.tuning(), WorldOptions::default())
            .await
            .unwrap();
        warm_pass_cost(&w).await
    });
    let sim = Sim::new();
    let s = sim.clone();
    let ext = sim.run_until(async move {
        let disk = Rc::new(Disk::new(&s, DiskParams::sun0424()));
        let w = paper_ext_world(&s, disk, 64, ExtentFsParams::with_extent_blocks(15));
        warm_pass_cost(&w).await
    });
    assert!(ufs > 0.0 && ext > 0.0, "the allocator is not counting");
    assert!(
        ufs < 0.25,
        "UFS config A: {ufs:.3} bytes allocated per byte"
    );
    // extentfs sets no write limit, so its FSW is one burst with most of
    // the file in flight; the free list keeps that burst's buffers and
    // the second one is served from them (0.025 here).
    assert!(ext < 0.25, "extentfs: {ext:.3} bytes allocated per byte");
}

/// Bytes allocated by rebuilding member 1 of `spec` a second time, on
/// 1 MB members. The first rebuild resynchronizes a blank spare, which
/// materializes its sector store and warms the volume's free list; the
/// second sweeps the same rows again.
fn second_rebuild_bytes(spec: &str) -> u64 {
    let sim = Sim::new();
    let params = || DiskParams {
        geometry: Geometry {
            cylinders: 16,
            ..Geometry::small_test()
        },
        ..DiskParams::small_test()
    };
    let v = Volume::new(&sim, &VolumeSpec::parse(spec).unwrap(), params());
    v.fail_spindle(1);
    v.replace_spindle(1, Rc::new(Disk::new_spindle(&sim, params(), 9)));
    sim.run_until(async move {
        v.rebuild(1).await.unwrap();
        let (_, before) = perfmon::thread_alloc_counts();
        v.rebuild(1).await.unwrap();
        let (_, after) = perfmon::thread_alloc_counts();
        after - before
    })
}

#[test]
fn a_rebuild_allocates_a_few_stripes_not_one_per_row() {
    let raid5 = second_rebuild_bytes("raid5:4:32k");
    let raid1 = second_rebuild_bytes("raid1:2");
    assert!(raid5 > 0 && raid1 > 0, "the allocator is not counting");
    // The sweeps cover 32 RAID-5 rows and 16 RAID-1 copy units. Their
    // buffers come off the free list; what is left is the devices'
    // bookkeeping, a few hundred bytes a request. Reading every survivor
    // into a fresh buffer cost a row of them per row instead: 4 MB and
    // 1 MB here.
    let budget = 4 * (32 << 10);
    assert!(
        raid5 < budget,
        "raid5:4:32k rebuild allocated {raid5} bytes"
    );
    assert!(raid1 < budget, "raid1:2 rebuild allocated {raid1} bytes");
}
