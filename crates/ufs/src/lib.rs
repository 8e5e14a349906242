//! # ufs — Sun's UNIX File System, with the paper's clustering enhancements
//!
//! A working FFS-style file system over the simulated disk: cylinder
//! groups, dinodes with direct/indirect/double-indirect pointers, the FFS
//! allocator with the `rotdelay`/`maxcontig` placement policy, directories,
//! `mkfs` and `fsck` — plus **both** generations of the I/O path:
//!
//! - the old SunOS 4.1 block-at-a-time `getpage`/`putpage` with per-block
//!   read-ahead (Figures 2–3), and
//! - the new 4.1.1 clustered path (Figures 6–8), built on the policy
//!   engines in the `clufs` crate: `bmap` with the length extension,
//!   cluster read-ahead, delayed-write accumulation, free-behind, and the
//!   per-file write limit.
//!
//! The paths are selected by [`clufs::Tuning`] at mount time, exactly like
//! the paper's instrumented kernel: both are the shared vnode front end
//! ([`vfs::frontend`], which extentfs runs too) at an I/O unit of one block
//! or `maxcontig`. **The on-disk format is identical under both** — the
//! paper's central constraint.

pub mod alloc;
pub mod bmap;
pub mod costs;
pub mod dir;
pub mod fs;
pub mod fsck;
pub mod layout;
pub mod mkfs;
pub mod vnops;

pub use costs::CpuCosts;
pub use fs::{Incore, Ufs, UfsParams, UfsStats};
pub use fsck::{fsck, fsck_repair, FsckReport};
pub use layout::{Dinode, FileKind, Superblock, BLOCK_SIZE};
pub use mkfs::{mkfs, MkfsOptions};
pub use vnops::UfsFile;

use clufs::Tuning;
use diskmodel::{Disk, DiskParams, SharedDevice};
use pagecache::{PageCache, PageCacheParams, PageoutDaemon, PageoutParams};
use simkit::{Cpu, Sim};
use std::rc::Rc;
use vfs::FsResult;

/// The simulated machine ([`vfs::World`]) with a UFS mounted on it.
pub type World = vfs::World<Ufs>;

/// Builds a freshly formatted, mounted world — the common test/benchmark
/// preamble. Must be called inside `sim.run_until` (it performs I/O).
pub async fn build_world(
    sim: &Sim,
    disk_params: DiskParams,
    cache_params: PageCacheParams,
    mkfs_opts: MkfsOptions,
    ufs_params: UfsParams,
) -> FsResult<World> {
    let disk: SharedDevice = Rc::new(Disk::new(sim, disk_params));
    build_world_on(sim, disk, cache_params, mkfs_opts, ufs_params).await
}

/// Like [`build_world`], but mounts on an existing [`SharedDevice`] — a
/// single drive or a `volmgr` RAID array. This is the one place a UFS
/// machine is assembled: cache, `mkfs`, pageout daemon (always
/// [`PageoutParams::sparcstation`]), then the mount, which takes the
/// daemon's dirty-victim queue for its cleaner.
pub async fn build_world_on(
    sim: &Sim,
    disk: SharedDevice,
    cache_params: PageCacheParams,
    mkfs_opts: MkfsOptions,
    ufs_params: UfsParams,
) -> FsResult<World> {
    let cpu = Cpu::new(sim);
    let cache = PageCache::new(sim, cache_params);
    mkfs::mkfs(sim, &*disk, mkfs_opts).await?;
    let (daemon, cleaner_rx) = PageoutDaemon::spawn(
        sim,
        &cache,
        Some(cpu.clone()),
        PageoutParams::sparcstation(),
    );
    let fs = Ufs::mount(sim, &cpu, &cache, &disk, ufs_params, Some(cleaner_rx)).await?;
    Ok(World {
        sim: sim.clone(),
        cpu,
        disk,
        cache,
        daemon,
        fs,
    })
}

/// A small-world builder for unit tests: small disk, small cache, zero CPU
/// costs, and the given tuning.
pub async fn build_test_world(sim: &Sim, tuning: Tuning) -> FsResult<World> {
    build_world(
        sim,
        DiskParams::small_test(),
        PageCacheParams::small_test(),
        MkfsOptions::small_test(),
        UfsParams::test(tuning),
    )
    .await
}
