//! The simulated machines the workloads run on ("cells"), and their
//! construction — which is what `setup_s` times.
//!
//! Every machine is the paper's: `sun0424` drives, 6 MB of page cache
//! (768 pages), SPARCstation CPU costs, pageout daemon running.

use std::rc::Rc;

use clufs::{PrefetchPolicy, Tuning};
use diskmodel::{Disk, DiskParams, SharedDevice};
use extentfs::{ExtentFs, ExtentFsParams};
use iobench::{paper_world, WorldOptions};
use pagecache::{CleanRequest, PageCache, PageCacheParams, PageoutDaemon, PageoutParams};
use simkit::{Cpu, Receiver, Sim};
use ufs::{MkfsOptions, Ufs, UfsParams};
use vfs::{AccessMode, FileSystem};
use volmgr::{Volume, VolumeSpec};

/// Extent size of every extentfs cell: 120 KB, the paper's cluster size.
const EXTENT_BLOCKS: u32 = 15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cell {
    /// UFS, Figure 9 config A: 120 KB clusters, rotdelay 0, SunOS 4.1.1.
    UfsA,
    /// UFS, config D: stock SunOS 4.1, block at a time, 4 ms rotdelay.
    UfsD,
    /// extentfs with 120 KB extents.
    Ext,
    /// Config A read through `AccessMode::Mapped` (Figure 12).
    UfsAMapped,
    /// Config A with adaptive prefetch on a 4-spindle RAID-5, 32 KB stripe.
    UfsARaid5,
    /// extentfs on a 4-spindle RAID-0, 64 KB stripe.
    ExtRaid0,
}

impl Cell {
    pub fn label(self) -> &'static str {
        match self {
            Cell::UfsA => "ufs-A",
            Cell::UfsD => "ufs-D",
            Cell::Ext => "ext-120k",
            Cell::UfsAMapped => "ufs-A-mapped",
            Cell::UfsARaid5 => "ufs-A-raid5",
            Cell::ExtRaid0 => "ext-raid0",
        }
    }

    pub fn is_ufs(self) -> bool {
        !matches!(self, Cell::Ext | Cell::ExtRaid0)
    }

    pub fn volume(self) -> Option<&'static str> {
        match self {
            Cell::UfsARaid5 => Some("raid5:4:32k"),
            Cell::ExtRaid0 => Some("raid0:4:64k"),
            _ => None,
        }
    }

    /// Whether writers on this cell go through a `WriteThrottle` with a
    /// limit (config D and extentfs have none, so they register no
    /// throttle metrics).
    pub fn has_write_limit(self) -> bool {
        self.tuning().is_some_and(|t| t.write_limit.is_some())
    }

    pub fn mode(self) -> AccessMode {
        match self {
            Cell::UfsAMapped => AccessMode::Mapped,
            _ => AccessMode::Copy,
        }
    }

    fn tuning(self) -> Option<Tuning> {
        match self {
            Cell::UfsA | Cell::UfsAMapped => Some(Tuning::config_a()),
            Cell::UfsD => Some(Tuning::config_d()),
            Cell::UfsARaid5 => Some(Tuning {
                prefetch: PrefetchPolicy::Adaptive,
                ..Tuning::config_a()
            }),
            Cell::Ext | Cell::ExtRaid0 => None,
        }
    }
}

/// A built machine with file system `F` mounted.
pub struct Machine<F> {
    pub sim: Sim,
    pub cpu: Cpu,
    pub cache: PageCache,
    pub disk: SharedDevice,
    pub fs: F,
    /// The array under `disk`, when the cell has one that the workload
    /// needs to reach (to fail a spindle).
    pub volume: Option<Volume>,
    /// extentfs has no cleaner task; the daemon's victim queue is kept
    /// open (and unread) so the daemon keeps running, as in the
    /// repository's own extentfs experiments.
    _cleaner: Option<Receiver<CleanRequest>>,
}

impl<F: FileSystem> Machine<F> {
    /// Drops every cached page of `file` (start a phase cold).
    pub fn invalidate(&self, file: &F::File) {
        use vfs::Vnode;
        self.cache.invalidate_vnode(file.id(), 0);
    }
}

fn array(sim: &Sim, cell: Cell) -> (SharedDevice, Option<Volume>) {
    match cell.volume() {
        None => (Rc::new(Disk::new(sim, DiskParams::sun0424())), None),
        Some(spec) => {
            let spec = VolumeSpec::parse(spec).expect("built-in volume spec");
            if cell == Cell::UfsARaid5 {
                // Built as a `Volume` because the workload fails a spindle.
                let v = Volume::new(sim, &spec, DiskParams::sun0424());
                (Rc::new(v.clone()), Some(v))
            } else {
                (volmgr::build(sim, &spec, DiskParams::sun0424()), None)
            }
        }
    }
}

/// Builds a UFS cell: devices, cache, `mkfs`, daemon, mount.
pub fn build_ufs(sim: &Sim, cell: Cell) -> Machine<Ufs> {
    let tuning = cell.tuning().expect("a UFS cell");
    let s = sim.clone();
    let (w, volume) = if cell.volume().is_none() {
        let w =
            sim.run_until(async move { paper_world(&s, tuning, WorldOptions::default()).await });
        (w, None)
    } else {
        let (disk, volume) = array(sim, cell);
        let w = sim.run_until(async move {
            ufs::build_world_on(
                &s,
                disk,
                PageCacheParams::sparcstation_8mb(),
                MkfsOptions::sun0424(),
                UfsParams::with_tuning(tuning),
            )
            .await
        });
        (w, volume)
    };
    let w = w.expect("world construction");
    Machine {
        sim: w.sim,
        cpu: w.cpu,
        cache: w.cache,
        disk: w.disk,
        fs: w.fs,
        volume,
        _cleaner: None,
    }
}

/// Builds an extentfs cell with room for `ninodes` files.
pub fn build_ext(sim: &Sim, cell: Cell, ninodes: u32) -> Machine<ExtentFs> {
    assert!(!cell.is_ufs());
    let cpu = Cpu::new(sim);
    let (disk, volume) = array(sim, cell);
    let cache = PageCache::new(sim, PageCacheParams::sparcstation_8mb());
    let (_, rx) = PageoutDaemon::spawn(
        sim,
        &cache,
        Some(cpu.clone()),
        PageoutParams::sparcstation(),
    );
    let params = ExtentFsParams::with_extent_blocks(EXTENT_BLOCKS);
    let fs = ExtentFs::format(sim, &cpu, &cache, &disk, ninodes, params).expect("format");
    Machine {
        sim: sim.clone(),
        cpu,
        cache,
        disk,
        fs,
        volume,
        _cleaner: Some(rx),
    }
}

/// The end-of-run consistency check each file system offers. `deep` adds
/// the expensive part where there is one: `fsck` reads a block per inode,
/// 24,000 device requests on the paper's drive, so only the workload that
/// churns metadata (`small_ops`) pays for it.
#[allow(async_fn_in_trait)] // Single-threaded simulation, like the traits it sits beside.
pub trait FinalCheck: FileSystem {
    async fn is_consistent(&self, disk: &SharedDevice, deep: bool) -> bool;
}

impl FinalCheck for Ufs {
    /// Flush everything; when `deep`, `fsck` the device image.
    async fn is_consistent(&self, disk: &SharedDevice, deep: bool) -> bool {
        self.sync().await.is_ok() && (!deep || ufs::fsck(&**disk).await.is_ok_and(|r| r.is_clean()))
    }
}

impl FinalCheck for ExtentFs {
    /// Flush everything, then check the in-core trees and allocator maps.
    async fn is_consistent(&self, _disk: &SharedDevice, _deep: bool) -> bool {
        self.sync().await.is_ok() && self.check().is_empty()
    }
}
