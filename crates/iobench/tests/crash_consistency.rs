//! Power-cut crash consistency: cut the simulation at dozens of seeded
//! virtual times mid-workload, reconstruct what the media would hold
//! (durable writes whole, in-flight writes torn or lost per the fault
//! model), and assert the recovery tools bring the image back to a
//! mountable, consistent state:
//!
//! - UFS: `fsck_repair` rebuilds the maps with nothing unfixable, a
//!   follow-up `fsck` reports clean, and the image remounts.
//! - extentfs: a spindle that dies at the cut fails every later request,
//!   yet the in-memory tree/buddy metadata stays internally consistent
//!   (`check()` stays empty) — no torn I/O corrupts the allocator.

use std::rc::Rc;

use clufs::Tuning;
use diskmodel::fault::SpindleFaults;
use diskmodel::{BlockDeviceExt, Disk, DiskParams, FaultDevice, SharedDevice};
use extentfs::ExtentFsParams;
use pagecache::{PageCache, PageCacheParams, PageoutParams};
use simkit::{Cpu, Sim, SimDuration, SimRng, SimTime};
use ufs::{build_world_on, fsck, fsck_repair, MkfsOptions, Ufs, UfsParams};
use vfs::{AccessMode, FileSystem, Vnode};

fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(2654435761).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// A metadata-heavy open-ended workload: rotates over a window of files,
/// writing multi-block data, fsyncing some, removing old ones. Runs until
/// the simulation stops scheduling it (the power cut). Errors are ignored:
/// after a device death the survivors of this loop all fail, and a real
/// application's failure is not the file system's inconsistency.
async fn churn<F: FileSystem>(fs: F) {
    let mut round = 0u64;
    loop {
        let name = format!("f{}", round % 6);
        if round >= 6 {
            let _ = fs.remove(&name).await;
        }
        if let Ok(f) = fs.create(&name).await {
            let data = pattern(round, 3 * 8192 + 512);
            let _ = f.write(0, &data, AccessMode::Copy).await;
            if round.is_multiple_of(2) {
                let _ = f.fsync().await;
            }
            // Grow one file through its indirect block now and then.
            if round.is_multiple_of(5) {
                let _ = f.write(16 * 8192, &data[..8192], AccessMode::Copy).await;
            }
        }
        round += 1;
    }
}

/// One UFS power-cut round: run the churn on a journaled fault wrapper,
/// cut at `cut_offset` past mount, replay the crash image onto a fresh
/// disk, repair, verify, remount. Returns the number of repairs the image
/// needed.
fn ufs_round(case: u64, cut_offset: SimDuration) -> usize {
    let sim = Sim::new();
    let base: SharedDevice = Rc::new(Disk::new(&sim, DiskParams::small_test()));
    let fault = FaultDevice::with_journal(&sim, base, SpindleFaults::default(), 0xc0ffee ^ case);
    let disk: SharedDevice = Rc::new(fault.clone());
    let s = sim.clone();
    let world = sim.run_until(async move {
        build_world_on(
            &s,
            disk,
            PageCacheParams::small_test(),
            MkfsOptions::small_test(),
            UfsParams::test(Tuning::config_a()),
        )
        .await
        .unwrap()
    });
    let cut = sim.now() + cut_offset;
    let fs = world.fs.clone();
    drop(sim.spawn(async move { churn(fs).await }));
    let s = sim.clone();
    sim.run_until(async move { s.sleep_until(cut).await });

    // Power dies: reconstruct the media image and walk away from the old
    // world mid-flight.
    let image = fault.crash_image(cut);
    drop(world);

    // A fresh machine boots with that image on its disk.
    let sim2 = Sim::new();
    let disk2: SharedDevice = Rc::new(Disk::new(&sim2, DiskParams::small_test()));
    let d = disk2.clone();
    sim2.run_until(async move {
        for w in image {
            d.write(w.lba, w.nsect, w.data).await;
        }
    });
    let d = disk2.clone();
    let repair = sim2.run_until(async move { fsck_repair(&*d).await.unwrap() });
    assert!(
        repair.unfixable.is_empty(),
        "case {case} cut {:?}: unfixable damage: {:?}",
        cut_offset,
        repair.unfixable
    );
    let d = disk2.clone();
    let verify = sim2.run_until(async move { fsck(&*d).await.unwrap() });
    assert!(
        verify.is_clean(),
        "case {case} cut {:?}: still dirty after repair: {:?}",
        cut_offset,
        verify.errors
    );
    // And the repaired image mounts.
    let s = sim2.clone();
    sim2.run_until(async move {
        let cpu = Cpu::new(&s);
        let cache = PageCache::new(&s, PageCacheParams::small_test());
        let fs = Ufs::mount(
            &s,
            &cpu,
            &cache,
            &disk2,
            UfsParams::test(Tuning::config_a()),
            None,
        )
        .await
        .expect("repaired image must mount");
        fs.unmount().await.unwrap();
    });
    repair.repaired.len()
}

#[test]
fn ufs_recovers_from_power_cuts_at_many_times() {
    // ≥50 seeded cut instants, spread from "mid-mkfs-aftermath" to deep in
    // the steady-state churn.
    let mut rng = SimRng::new(0x5eed_cafe);
    let mut dirty_rounds = 0;
    for case in 0..56u64 {
        let cut_us = 50 + rng.gen_range(20_000);
        if ufs_round(case, SimDuration::from_micros(cut_us)) > 0 {
            dirty_rounds += 1;
        }
    }
    // The sweep must actually catch the file system mid-flight: if every
    // cut produced an already-clean image, the harness is testing nothing.
    assert!(
        dirty_rounds > 10,
        "only {dirty_rounds}/56 cuts caught in-flight damage"
    );
}

/// One extentfs round: the spindle dies at the cut; the churn keeps
/// running into the dead device, every later request fails, and the
/// in-memory metadata must stay internally consistent throughout.
fn extentfs_round(case: u64, die_offset: SimDuration) {
    let sim = Sim::new();
    let base: SharedDevice = Rc::new(Disk::new(&sim, DiskParams::small_test()));
    // Death is scheduled relative to t=0; format happens first, so early
    // offsets exercise death during metadata traffic as well.
    let die_at = SimTime::from_nanos(0) + die_offset;
    let fault = FaultDevice::new(
        &sim,
        base,
        SpindleFaults {
            die_at: Some(die_at),
            ..SpindleFaults::default()
        },
        0xdead ^ case,
    );
    let fs = extentfs::build_world_on(
        &sim,
        Rc::new(fault),
        PageCacheParams::small_test(),
        PageoutParams::small_test(),
        64,
        ExtentFsParams::with_extent_blocks(15),
    )
    .unwrap()
    .fs;
    let fs2 = fs.clone();
    drop(sim.spawn(async move { churn(fs2).await }));
    let s = sim.clone();
    sim.run_until(async move { s.sleep_until(die_at + SimDuration::from_millis(5)).await });
    let problems = fs.check();
    assert!(
        problems.is_empty(),
        "case {case} death {:?}: metadata inconsistent: {problems:?}",
        die_offset
    );
}

#[test]
fn extentfs_metadata_survives_spindle_death_at_many_times() {
    let mut rng = SimRng::new(0xfee1_dead);
    for case in 0..56u64 {
        let die_us = 20 + rng.gen_range(15_000);
        extentfs_round(case, SimDuration::from_micros(die_us));
    }
}
