//! The transfer buffer travels with the request (see
//! `diskmodel::BlockDevice`), so once a mount's free list is warm, moving a
//! byte through the I/O path allocates next to nothing. This pins the
//! budget on the paper's machine for both file systems. Before the buffer
//! travelled, every transfer cost two fresh allocations and the UFS pass
//! below read 2.04 bytes allocated per byte moved; it reads 0.03 now.

use std::rc::Rc;

use diskmodel::{Disk, DiskParams};
use extentfs::ExtentFsParams;
use iobench::iobench::BenchOptions;
use iobench::{paper_ext_world, paper_world, run_iobench, Config, IoKind, WorldOptions};
use simkit::perfmon::{self, CountingAlloc};
use simkit::Sim;
use vfs::{FileSystem, World};

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
    perfmon::set_enabled(true);
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
    perfmon::set_enabled(false);
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
