//! # extentfs — the comparator the paper argues against
//!
//! An extent-based file system: file data lives in large, physically
//! contiguous extents indexed by a per-file B+-tree, preallocated in
//! user-chosen units (the paper: "Typically, the user can control the size
//! of these extents... it is unlikely that a user will be able to choose
//! the 'right' extent size"). I/O is performed in extent-sized units, so
//! per-call CPU overhead is amortized exactly as in an extent file system.
//!
//! This crate exists for the title claim: clustered UFS should match
//! extent-based throughput *without* the on-disk format change and without
//! exposing extent sizing to users. The ablation benches mount this next to
//! UFS on identical hardware.
//!
//! The format is deliberately simple (and incompatible with UFS — that is
//! the point): a header block, a fixed inode table with names stored in the
//! inodes (flat namespace), free-space maps, then data. Three pieces are
//! real-extent-file-system shaped rather than toys:
//!
//! - each file's mapping is a B+-tree of `(logical, physical, len)` records
//!   ([`tree`]) with no fixed extent cap — splits and merges as it grows;
//! - free space is managed by per-group buddy/bitmap structures with
//!   goal-block placement and best-fit-by-order search ([`alloc`]), the
//!   ext4 mballoc shape, replacing the old linear-scan bitmap;
//! - files at or below [`ExtentFsParams::inline_max`] bytes live *in the
//!   inode record* and spill into the tree on growth — the small-file case
//!   the paper's clustering explicitly does not help.
//!
//! The inode table and maps are held in core; only the data path is
//! simulated in full, because only the data path is measured. That data
//! path is not this crate's: `rdwr`/`getpage`/`putpage`/fsync are the
//! shared front end ([`vfs::frontend`]) UFS runs too, so the head-to-head
//! compares layout, allocation and metadata and nothing else.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use clufs::{FreeBehindPolicy, PrefetchPolicy};
use diskmodel::{BlockDeviceExt, SharedDevice};
use pagecache::{PageCache, PageCacheParams, PageKey, PageoutDaemon, PageoutParams};
use simkit::stats::{Counter, Gauge};
use simkit::{Cpu, Sim, SimDuration, SpanId};
use ufs::CpuCosts;
use vfs::frontend::{Backing, Costs, Event, FrontEnd, Policy, Probe};
use vfs::iopath::{BlockMap, FileStream};
use vfs::{AccessMode, FileSystem, FsError, FsResult, StreamId, Vnode, VnodeId, World};

pub mod alloc;
pub mod tree;

use alloc::BuddyAllocator;
use tree::{ExtentRec, ExtentTree};

/// Bytes per file system block (same as UFS for apples-to-apples).
pub const BLOCK_SIZE: usize = 8192;
const SECTORS_PER_BLOCK: u32 = (BLOCK_SIZE / 512) as u32;
/// Maximum file name length (stored in the inode).
pub const NAME_MAX: usize = 59;

/// Mount parameters.
#[derive(Clone)]
pub struct ExtentFsParams {
    /// The user-chosen extent size, in blocks — the knob the paper says
    /// users cannot choose correctly.
    pub extent_blocks: u32,
    /// Files at or below this many bytes are stored inline in the inode
    /// record; the first write growing past it spills into the extent
    /// tree (one-way).
    pub inline_max: usize,
    /// CPU cost model (use the same as the UFS mount being compared).
    pub costs: CpuCosts,
    /// Which prefetch engine the read path runs (`Fixed` is the paper's
    /// predictor, `Off` the ablation).
    pub prefetch: PrefetchPolicy,
    /// Page-cache identity namespace.
    pub mount_id: u64,
}

impl ExtentFsParams {
    /// A mount with the given extent size and SPARCstation costs.
    pub fn with_extent_blocks(extent_blocks: u32) -> ExtentFsParams {
        ExtentFsParams {
            extent_blocks: extent_blocks.max(1),
            inline_max: 512,
            costs: CpuCosts::sparcstation_1(),
            prefetch: PrefetchPolicy::Fixed,
            mount_id: 0x0e,
        }
    }
}

/// Where a file's bytes live.
enum FileData {
    /// At most `inline_max` bytes, stored in the inode record itself.
    Inline(Vec<u8>),
    /// Block-backed, mapped by the extent tree.
    Extents(ExtentTree),
}

struct ExtInode {
    name: String,
    size: u64,
    data: FileData,
}

/// Running fragmentation totals behind the registry gauges.
#[derive(Default, Clone, Copy)]
struct FragTotals {
    inline_files: u64,
    extent_files: u64,
    extents: u64,
    extent_blocks: u64,
}

/// Registry instruments for the aging study (`extentfs.*` in
/// `--stats-json`).
struct FragGauges {
    short_extents: Counter,
    mean_extent_blocks: Gauge,
    extents_per_file: Gauge,
    inline_files: Gauge,
    totals: RefCell<FragTotals>,
}

impl FragGauges {
    fn new(sim: &Sim) -> FragGauges {
        let s = sim.stats();
        FragGauges {
            short_extents: s.counter("extentfs.short_extents"),
            mean_extent_blocks: s.gauge("extentfs.mean_extent_blocks"),
            extents_per_file: s.gauge("extentfs.extents_per_file"),
            inline_files: s.gauge("extentfs.inline_files"),
            totals: RefCell::new(FragTotals::default()),
        }
    }

    fn update(&self, f: impl FnOnce(&mut FragTotals)) {
        let mut t = self.totals.borrow_mut();
        f(&mut t);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        self.mean_extent_blocks
            .set(ratio(t.extent_blocks, t.extents));
        self.extents_per_file.set(ratio(t.extents, t.extent_files));
        self.inline_files.set(t.inline_files as f64);
    }
}

struct Inner {
    cpu: Cpu,
    disk: SharedDevice,
    cache: PageCache,
    params: ExtentFsParams,
    /// The shared vnode front end and I/O executor (the same code UFS
    /// drives).
    front: FrontEnd,
    data_start: u64,
    alloc: RefCell<BuddyAllocator>,
    inodes: RefCell<Vec<Option<ExtInode>>>,
    /// Per-file I/O state (stream identity, delayed writes, pending-write
    /// quiesce; extentfs has no write limit, so the throttle is
    /// unlimited), in inode order.
    open: RefCell<BTreeMap<u32, Rc<FileStream>>>,
    stats: RefCell<ExtentFsStats>,
    frag: FragGauges,
}

/// Translation is a tree walk, the transfer cap is the mount's extent
/// unit.
impl BlockMap for ExtFile {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        Ok(self
            .fs
            .translate(self.ino, lbn)
            .map(|(pbn, len)| (pbn, len.min(cap))))
    }

    async fn runs(&self, lbn: u64, blocks: u32) -> FsResult<Vec<(u32, u32)>> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize]
            .as_ref()
            .ok_or(FsError::NotFound)?;
        Ok(match &inode.data {
            FileData::Extents(t) => t.runs(lbn, blocks),
            FileData::Inline(_) => Vec::new(),
        })
    }

    fn max_cluster(&self) -> u32 {
        self.fs.inner.params.extent_blocks
    }
}

/// Mount-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtentFsStats {
    /// Extent-unit reads issued.
    pub unit_reads: u64,
    /// Extent-unit writes issued.
    pub unit_writes: u64,
    /// Blocks moved by reads.
    pub blocks_read: u64,
    /// Blocks moved by writes.
    pub blocks_written: u64,
    /// Preallocation attempts that had to settle for a shorter extent.
    pub short_extents: u64,
    /// Files currently stored inline in their inode.
    pub inline_files: u64,
}

/// A mounted extent file system. Clones share the mount.
#[derive(Clone)]
pub struct ExtentFs {
    inner: Rc<Inner>,
}

/// Builds a machine on `disk` — a single drive or a `volmgr` array — with
/// a freshly formatted extentfs holding up to `ninodes` files: the sibling
/// of `ufs::build_world_on`, and the one place an extentfs machine is
/// assembled (cache, pageout daemon, then the format).
///
/// extentfs runs no cleaner task, so the daemon's dirty-victim queue is
/// dropped: its sends fail and are ignored, and dirty pages wait for fsync.
pub fn build_world_on(
    sim: &Sim,
    disk: SharedDevice,
    cache_params: PageCacheParams,
    pageout_params: PageoutParams,
    ninodes: u32,
    params: ExtentFsParams,
) -> FsResult<World<ExtentFs>> {
    let cpu = Cpu::new(sim);
    let cache = PageCache::new(sim, cache_params);
    let (daemon, _) = PageoutDaemon::spawn(sim, &cache, Some(cpu.clone()), pageout_params);
    let fs = ExtentFs::format(sim, &cpu, &cache, &disk, ninodes, params)?;
    Ok(World {
        sim: sim.clone(),
        cpu,
        disk,
        cache,
        daemon,
        fs,
    })
}

/// An open file.
pub struct ExtFile {
    fs: ExtentFs,
    ino: u32,
    state: Rc<FileStream>,
}

impl ExtentFs {
    /// Formats `disk` and mounts a fresh, empty volume.
    ///
    /// `ninodes` bounds the file count. Header/inode-table/map blocks are
    /// reserved at the front of the device so data placement is comparable
    /// with UFS.
    pub fn format(
        sim: &Sim,
        cpu: &Cpu,
        cache: &PageCache,
        disk: &SharedDevice,
        ninodes: u32,
        params: ExtentFsParams,
    ) -> FsResult<ExtentFs> {
        assert_eq!(cache.page_size(), BLOCK_SIZE);
        assert!(
            params.inline_max <= BLOCK_SIZE,
            "inline files must fit one block"
        );
        let total_blocks = disk.total_sectors() / SECTORS_PER_BLOCK as u64;
        let inode_blocks = (ninodes as u64 * 512).div_ceil(BLOCK_SIZE as u64);
        let bitmap_blocks = total_blocks.div_ceil(BLOCK_SIZE as u64 * 8);
        let data_start = 1 + inode_blocks + bitmap_blocks;
        if data_start >= total_blocks {
            return Err(FsError::Invalid);
        }
        let data_blocks = total_blocks - data_start;
        // The same front end as UFS, differing only in values: no putpage
        // traversal, no fault on a partial-block overwrite, no free-behind
        // and no request-size hint.
        let front = FrontEnd::new(
            sim,
            cpu,
            disk,
            cache,
            Costs {
                putpage: SimDuration::ZERO,
                rmw_fault: SimDuration::ZERO,
                ..params.costs.front_end()
            },
            Policy {
                free_behind: FreeBehindPolicy::sunos_411(false),
                size_hint: false,
                prefetch: params.prefetch,
                io_unit: params.extent_blocks,
            },
        );
        Ok(ExtentFs {
            inner: Rc::new(Inner {
                cpu: cpu.clone(),
                disk: disk.clone(),
                cache: cache.clone(),
                params,
                front,
                data_start,
                alloc: RefCell::new(BuddyAllocator::new(data_blocks)),
                inodes: RefCell::new((0..ninodes).map(|_| None).collect()),
                open: RefCell::new(BTreeMap::new()),
                stats: RefCell::new(ExtentFsStats::default()),
                frag: FragGauges::new(sim),
            }),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExtentFsStats {
        let mut s = *self.inner.stats.borrow();
        s.inline_files = self.inner.frag.totals.borrow().inline_files;
        s
    }

    /// Data blocks on the volume.
    pub fn capacity_blocks(&self) -> u64 {
        self.inner.alloc.borrow().capacity()
    }

    /// Data blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.inner.alloc.borrow().free_blocks()
    }

    /// Blocks currently allocated to `ino` (tests and experiments).
    pub fn allocated_blocks(&self, ino: u32) -> u64 {
        let inodes = self.inner.inodes.borrow();
        inodes[ino as usize]
            .as_ref()
            .map(|i| match &i.data {
                FileData::Inline(_) => 0,
                FileData::Extents(t) => t.total_blocks(),
            })
            .unwrap_or(0)
    }

    async fn charge(&self, tag: &'static str, d: simkit::SimDuration) {
        self.inner.cpu.charge(tag, d).await;
    }

    fn vid(&self, ino: u32) -> VnodeId {
        (self.inner.params.mount_id << 32) | ino as u64
    }

    /// Returns `[pbn, pbn+len)` to the allocator. A double free surfaces
    /// as `Err(FsError::Corrupt)` — reported to the caller, not asserted.
    fn free_extent(&self, pbn: u32, len: u32) -> FsResult<()> {
        self.inner
            .alloc
            .borrow_mut()
            .free_run(pbn as u64 - self.inner.data_start, len)
    }

    /// Translates `lbn` to `(pbn, contiguous len)` within the file's
    /// extent tree. An extent file system's bmap is a tree walk over
    /// in-core records — that is its CPU advantage, reflected by charging
    /// only the base bmap cost.
    fn translate(&self, ino: u32, lbn: u64) -> Option<(u32, u32)> {
        let inodes = self.inner.inodes.borrow();
        match &inodes[ino as usize].as_ref()?.data {
            FileData::Inline(_) => None,
            FileData::Extents(t) => t.lookup(lbn),
        }
    }

    /// Goal block for a file's first extent: inodes spread across the
    /// volume (the UFS cylinder-group idea), so fresh streams start in
    /// open space and goal extension keeps them contiguous. Without this,
    /// best-fit-by-order would seed every file on the exact-order tail
    /// fragments of the buddy decomposition.
    fn first_goal(&self, ino: u32) -> u64 {
        let cap = self.inner.alloc.borrow().capacity();
        let n = self.inner.inodes.borrow().len() as u64;
        ino as u64 * cap / n.max(1)
    }

    /// Grows the file's allocation to cover `blocks` logical blocks by
    /// preallocating extents of the mount's extent size, goal-placed at
    /// the end of the previous extent so sequential growth merges into
    /// long runs.
    fn ensure_allocated(&self, ino: u32, blocks: u64) -> FsResult<()> {
        loop {
            let (allocated, goal) = {
                let inodes = self.inner.inodes.borrow();
                let inode = inodes[ino as usize].as_ref().ok_or(FsError::NotFound)?;
                let FileData::Extents(t) = &inode.data else {
                    return Err(FsError::Corrupt); // Inline files have no blocks.
                };
                (
                    t.total_blocks(),
                    Some(
                        t.last()
                            .map(|r| r.pbn as u64 + r.len as u64 - self.inner.data_start)
                            .unwrap_or_else(|| self.first_goal(ino)),
                    ),
                )
            };
            if allocated >= blocks {
                return Ok(());
            }
            let run = self
                .inner
                .alloc
                .borrow_mut()
                .alloc(self.inner.params.extent_blocks, goal)?;
            if run.short {
                self.inner.stats.borrow_mut().short_extents += 1;
                self.inner.frag.short_extents.inc();
            }
            let mut inodes = self.inner.inodes.borrow_mut();
            let inode = inodes[ino as usize].as_mut().ok_or(FsError::NotFound)?;
            let FileData::Extents(t) = &mut inode.data else {
                return Err(FsError::Corrupt);
            };
            let before = t.nextents();
            t.insert(ExtentRec {
                logical: allocated,
                pbn: (self.inner.data_start + run.start) as u32,
                len: run.len,
            });
            let d_extents = t.nextents() as i64 - before as i64;
            drop(inodes);
            self.inner.frag.update(|f| {
                f.extents = f.extents.wrapping_add_signed(d_extents);
                f.extent_blocks += run.len as u64;
            });
        }
    }

    /// The open file for `ino`, sharing its per-file I/O state.
    fn file(&self, ino: u32) -> ExtFile {
        let mut open = self.inner.open.borrow_mut();
        let state = open
            .entry(ino)
            .or_insert_with(|| self.inner.front.open_stream(self.vid(ino), None));
        ExtFile {
            fs: self.clone(),
            ino,
            state: Rc::clone(state),
        }
    }

    fn find(&self, name: &str) -> Option<u32> {
        self.inner
            .inodes
            .borrow()
            .iter()
            .position(|slot| slot.as_ref().map(|i| i.name == name).unwrap_or(false))
            .map(|i| i as u32)
    }

    /// Verifies allocator-vs-tree consistency (a lightweight fsck).
    pub fn check(&self) -> Vec<String> {
        let alloc = self.inner.alloc.borrow();
        let mut errors = alloc.check();
        let mut claimed = vec![false; alloc.capacity() as usize];
        for (ino, slot) in self.inner.inodes.borrow().iter().enumerate() {
            let Some(inode) = slot else { continue };
            match &inode.data {
                FileData::Inline(buf) => {
                    if inode.size != buf.len() as u64 || buf.len() > self.inner.params.inline_max {
                        errors.push(format!("ino {ino}: inline size out of bounds"));
                    }
                }
                FileData::Extents(t) => {
                    errors.extend(t.check().into_iter().map(|e| format!("ino {ino}: {e}")));
                    if inode.size.div_ceil(BLOCK_SIZE as u64) > t.total_blocks() {
                        errors.push(format!("ino {ino}: size exceeds allocation"));
                    }
                    for r in t.records() {
                        for b in 0..r.len as u64 {
                            let idx = (r.pbn as u64 - self.inner.data_start + b) as usize;
                            if claimed[idx] {
                                errors.push(format!("block {idx}: doubly claimed"));
                            }
                            claimed[idx] = true;
                            if !alloc.is_allocated(idx as u64) {
                                errors.push(format!("block {idx}: claimed but free"));
                            }
                        }
                    }
                }
            }
        }
        for (idx, &cl) in claimed.iter().enumerate() {
            if alloc.is_allocated(idx as u64) && !cl {
                errors.push(format!("block {idx}: allocated but unclaimed"));
            }
        }
        errors
    }
}

impl Vnode for ExtFile {
    fn id(&self) -> VnodeId {
        self.fs.vid(self.ino)
    }

    fn size(&self) -> u64 {
        self.fs.inner.inodes.borrow()[self.ino as usize]
            .as_ref()
            .map(|i| i.size)
            .unwrap_or(0)
    }

    fn stream(&self) -> StreamId {
        self.state.id()
    }

    async fn read_into(&self, off: u64, buf: &mut [u8], mode: AccessMode) -> FsResult<usize> {
        self.fs.inner.front.read(self, off, buf, mode).await
    }

    async fn write(&self, off: u64, data: &[u8], mode: AccessMode) -> FsResult<()> {
        self.fs.inner.front.write(self, off, data, mode).await
    }

    async fn fsync(&self) -> FsResult<()> {
        self.fs.inner.front.fsync_data(self).await
    }

    async fn truncate(&self, size: u64) -> FsResult<()> {
        self.truncate_impl(size).await
    }
}

impl ExtFile {
    /// The file's extent records as `(logical block, physical block, len)`
    /// — same shape as `ufs`'s probe API, for the aging study. Inline
    /// files have none.
    pub async fn extents(&self) -> FsResult<Vec<(u64, u64, u32)>> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize]
            .as_ref()
            .ok_or(FsError::NotFound)?;
        Ok(match &inode.data {
            FileData::Inline(_) => Vec::new(),
            FileData::Extents(t) => t
                .records()
                .into_iter()
                .map(|r| (r.logical, r.pbn as u64, r.len))
                .collect(),
        })
    }
}

impl Backing for ExtFile {
    fn io(&self) -> &Rc<FileStream> {
        &self.state
    }

    fn eof(&self) -> u64 {
        Vnode::size(self)
    }

    fn wrote_to(&self, end: u64) {
        if let Some(inode) = self.fs.inner.inodes.borrow_mut()[self.ino as usize].as_mut() {
            inode.size = inode.size.max(end);
        }
    }

    /// Inode-resident data: no page cache, no disk — just the copy.
    fn read_inline(&self, off: u64, buf: &mut [u8]) -> Option<usize> {
        let inodes = self.fs.inner.inodes.borrow();
        let inode = inodes[self.ino as usize].as_ref()?;
        let FileData::Inline(bytes) = &inode.data else {
            return None;
        };
        let start = (off as usize).min(bytes.len());
        let n = buf.len().min(bytes.len() - start);
        buf[..n].copy_from_slice(&bytes[start..start + n]);
        Some(n)
    }

    /// An extent file system's bmap is a tree walk over in-core records —
    /// that is its CPU advantage: one base bmap charge per fault, and the
    /// planning probes after it are free. There are no holes, so an
    /// unmapped block below EOF is corruption.
    async fn fault_probe(
        &self,
        lbn: u64,
        eof_blocks: u64,
        _cached: bool,
    ) -> FsResult<Option<Probe>> {
        let costs = self.fs.inner.params.costs;
        self.fs.charge("bmap", costs.bmap).await;
        let here = self.probe(lbn, eof_blocks).await?;
        if here.blocks == 0 {
            return Err(FsError::Corrupt);
        }
        Ok(Some(here))
    }

    /// The unit containing `lbn` may be physically fragmented on an aged
    /// volume; the batched read still moves it in one setup, so
    /// availability is clipped by the unit and EOF only — and the probe
    /// offers no address, so reads resolve a run-list at issue time.
    async fn probe(&self, lbn: u64, eof_blocks: u64) -> FsResult<Probe> {
        let mapped = lbn < eof_blocks && self.fs.translate(self.ino, lbn).is_some();
        let unit = self.max_cluster() as u64;
        Ok(Probe {
            blocks: if mapped {
                (eof_blocks - lbn).min(unit) as u32
            } else {
                0
            },
            pbn: None,
        })
    }

    /// Inline fast path / spill decision.
    async fn route_write(
        &self,
        front: &FrontEnd,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        let end = off + data.len() as u64;
        enum Route {
            Inline,
            Spill(Vec<u8>),
            Extents,
        }
        let route = {
            let mut inodes = self.fs.inner.inodes.borrow_mut();
            let inode = inodes[self.ino as usize]
                .as_mut()
                .ok_or(FsError::NotFound)?;
            match &mut inode.data {
                FileData::Inline(buf) if end as usize > self.fs.inner.params.inline_max => {
                    // Spill: the file outgrew the inode record. One-way.
                    let old = std::mem::take(buf);
                    inode.data = FileData::Extents(ExtentTree::new());
                    Route::Spill(old)
                }
                FileData::Inline(buf) => {
                    if buf.len() < end as usize {
                        buf.resize(end as usize, 0);
                    }
                    buf[off as usize..end as usize].copy_from_slice(data);
                    inode.size = inode.size.max(end);
                    Route::Inline
                }
                FileData::Extents(_) => Route::Extents,
            }
        };
        match route {
            Route::Inline => {
                if mode == AccessMode::Copy {
                    let costs = self.fs.inner.params.costs;
                    self.fs.charge("copy", costs.copy(data.len())).await;
                }
                return Ok(());
            }
            Route::Spill(old) => {
                self.fs.inner.frag.update(|f| {
                    f.inline_files -= 1;
                    f.extent_files += 1;
                });
                if !old.is_empty() {
                    front
                        .write_blocks(self, 0, &old, AccessMode::Copy, span)
                        .await?;
                }
            }
            Route::Extents => {}
        }
        front.write_blocks(self, off, data, mode, span).await
    }

    /// Preallocates extents to cover the write. Extent file systems have
    /// no holes: a write past EOF must zero-fill the gap blocks, or reads
    /// would expose whatever the recycled disk blocks last held. (UFS
    /// avoids this cost with real holes — one of the paper's points in its
    /// favor.)
    async fn prepare_write(&self, off: u64, end: u64, span: SpanId) -> FsResult<()> {
        self.fs
            .ensure_allocated(self.ino, end.div_ceil(BLOCK_SIZE as u64))?;
        let (cache, front) = (&self.fs.inner.cache, &self.fs.inner.front);
        let first_gap = self.eof().div_ceil(BLOCK_SIZE as u64);
        let gap_end = off / BLOCK_SIZE as u64; // The write loop covers off's own block.
        for lbn in first_gap..gap_end {
            let (pid, created) = front.find_or_create(&self.state, lbn, span).await;
            if created {
                cache.unbusy(pid); // Created zeroed.
            } else {
                cache.write_at(pid, 0, &[0u8; BLOCK_SIZE]);
            }
            cache.mark_dirty(pid);
        }
        Ok(())
    }

    async fn map_write(&self, lbn: u64) -> FsResult<(u32, bool)> {
        self.fs
            .charge("bmap", self.fs.inner.params.costs.bmap)
            .await;
        let (pbn, _) = self.fs.translate(self.ino, lbn).ok_or(FsError::Corrupt)?;
        Ok((pbn, false))
    }

    fn count(&self, ev: Event) {
        let mut st = self.fs.inner.stats.borrow_mut();
        match ev {
            Event::DemandRead(n) | Event::Readahead(n) => {
                st.unit_reads += 1;
                st.blocks_read += n;
            }
            Event::ClusterWrite(n) => {
                st.unit_writes += 1;
                st.blocks_written += n;
            }
            Event::Getpage { .. } | Event::FreeBehind => {}
        }
    }
}

impl ExtFile {
    async fn truncate_impl(&self, size: u64) -> FsResult<()> {
        if size > self.size() {
            // No holes: growing is a write of the new last byte, and the
            // write path zero-fills up to it (in the inode record, through
            // a spill, or block by block).
            return self.write(size - 1, &[0], AccessMode::Copy).await;
        }
        self.fsync().await?;
        let keep_blocks = size.div_ceil(BLOCK_SIZE as u64);
        let freed: Vec<(u32, u32)> = {
            let mut inodes = self.fs.inner.inodes.borrow_mut();
            let inode = inodes[self.ino as usize]
                .as_mut()
                .ok_or(FsError::NotFound)?;
            inode.size = size;
            match &mut inode.data {
                FileData::Inline(buf) => {
                    buf.truncate(size as usize);
                    return Ok(());
                }
                FileData::Extents(t) => {
                    let before = t.nextents();
                    let freed = t.truncate_to(keep_blocks);
                    let d_extents = before as i64 - t.nextents() as i64;
                    let d_blocks: u64 = freed.iter().map(|&(_, l)| l as u64).sum();
                    self.fs.inner.frag.update(|f| {
                        f.extents -= d_extents as u64;
                        f.extent_blocks -= d_blocks;
                    });
                    freed
                }
            }
        };
        self.fs
            .inner
            .cache
            .invalidate_vnode(self.id(), keep_blocks * BLOCK_SIZE as u64);
        for (pbn, len) in freed {
            self.fs.free_extent(pbn, len)?;
        }
        // Zero the tail of the kept final partial block so a later
        // extension does not expose stale bytes.
        let tail = (size % BLOCK_SIZE as u64) as usize;
        if tail != 0 {
            let last_lbn = size / BLOCK_SIZE as u64;
            if let Some((pbn, _)) = self.fs.translate(self.ino, last_lbn) {
                let key = PageKey {
                    vnode: self.id(),
                    offset: last_lbn * BLOCK_SIZE as u64,
                };
                let pid = match self.fs.inner.cache.lookup(key) {
                    Some(pid) => {
                        self.fs.inner.cache.wait_unbusy(pid).await;
                        pid
                    }
                    None => {
                        let pid = self.fs.inner.cache.create(key).await;
                        let old = self
                            .fs
                            .inner
                            .disk
                            .read(pbn as u64 * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK)
                            .await;
                        self.fs.inner.cache.write_at(pid, 0, &old);
                        self.fs.inner.cache.unbusy(pid);
                        pid
                    }
                };
                self.fs
                    .inner
                    .cache
                    .write_at(pid, tail, &vec![0u8; BLOCK_SIZE - tail]);
                self.fs.inner.cache.mark_dirty(pid);
            }
        }
        Ok(())
    }
}

impl FileSystem for ExtentFs {
    type File = ExtFile;

    async fn create(&self, path: &str) -> FsResult<ExtFile> {
        let name = path.trim_start_matches('/');
        if name.is_empty() || name.len() > NAME_MAX || name.contains('/') {
            return Err(FsError::Invalid);
        }
        if let Some(ino) = self.find(name) {
            let f = self.file(ino);
            f.truncate(0).await?;
            return Ok(f);
        }
        let slot = {
            let mut inodes = self.inner.inodes.borrow_mut();
            let slot = inodes
                .iter()
                .position(|s| s.is_none())
                .ok_or(FsError::NoInodes)?;
            inodes[slot] = Some(ExtInode {
                name: name.to_string(),
                size: 0,
                data: FileData::Inline(Vec::new()),
            });
            slot as u32
        };
        self.inner.frag.update(|f| f.inline_files += 1);
        Ok(self.file(slot))
    }

    async fn open(&self, path: &str) -> FsResult<ExtFile> {
        let name = path.trim_start_matches('/');
        let ino = self.find(name).ok_or(FsError::NotFound)?;
        Ok(self.file(ino))
    }

    async fn remove(&self, path: &str) -> FsResult<()> {
        let name = path.trim_start_matches('/');
        let ino = self.find(name).ok_or(FsError::NotFound)?;
        self.file(ino).truncate(0).await?;
        self.inner.cache.invalidate_vnode(self.vid(ino), 0);
        let was_inline = {
            let mut inodes = self.inner.inodes.borrow_mut();
            let inode = inodes[ino as usize].take().ok_or(FsError::NotFound)?;
            matches!(inode.data, FileData::Inline(_))
        };
        self.inner.frag.update(|f| {
            if was_inline {
                f.inline_files -= 1;
            } else {
                f.extent_files -= 1;
            }
        });
        self.inner.open.borrow_mut().remove(&ino);
        Ok(())
    }

    async fn sync(&self) -> FsResult<()> {
        // In inode order: the disk queue must see the same sequence on
        // every run.
        let inos: Vec<u32> = self.inner.open.borrow().keys().copied().collect();
        for ino in inos {
            self.file(ino).fsync().await?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::DiskParams;

    /// The small test machine. Its pageout daemon keeps page allocation
    /// from deadlocking when a test touches more pages than the (tiny)
    /// cache holds; dirty victims wait for the tests' explicit fsyncs.
    fn world(sim: &Sim, extent_blocks: u32) -> (ExtentFs, SharedDevice) {
        let mut params = ExtentFsParams::with_extent_blocks(extent_blocks);
        params.costs = CpuCosts::free();
        let w = small_world(sim, 64, params);
        (w.fs, w.disk)
    }

    fn small_world(sim: &Sim, ninodes: u32, params: ExtentFsParams) -> World<ExtentFs> {
        build_world_on(
            sim,
            Rc::new(diskmodel::Disk::new(sim, DiskParams::small_test())),
            PageCacheParams::small_test(),
            PageoutParams::small_test(),
            ninodes,
            params,
        )
        .unwrap()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn roundtrip_and_preallocation() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 8);
            let f = fs.create("data").await.unwrap();
            let data = pattern(100_000, 1);
            f.write(0, &data, AccessMode::Copy).await.unwrap();
            assert_eq!(f.size(), 100_000);
            let back = f.read(0, 100_000, AccessMode::Copy).await.unwrap();
            assert_eq!(back, data);
            // 100 KB = 13 blocks, preallocated in 8-block extents → 16.
            assert_eq!(fs.allocated_blocks(f.ino), 16);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn small_files_stay_inline() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, disk) = world(&s, 8);
            let f = fs.create("tiny").await.unwrap();
            let data = pattern(300, 7);
            f.write(0, &data, AccessMode::Copy).await.unwrap();
            f.fsync().await.unwrap();
            assert_eq!(fs.allocated_blocks(f.ino), 0, "inline: no blocks");
            assert_eq!(fs.stats().inline_files, 1);
            assert_eq!(disk.stats().reads + disk.stats().writes, 0, "no disk I/O");
            let back = f.read(0, 300, AccessMode::Copy).await.unwrap();
            assert_eq!(back, data);
            // Sparse inline extension zero-fills the gap.
            f.write(400, &[9u8; 10], AccessMode::Copy).await.unwrap();
            let back = f.read(0, 410, AccessMode::Copy).await.unwrap();
            assert!(back[300..400].iter().all(|&b| b == 0));
            assert_eq!(&back[400..], &[9u8; 10]);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn inline_spill_preserves_contents() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            let f = fs.create("grow").await.unwrap();
            let head = pattern(500, 2);
            f.write(0, &head, AccessMode::Copy).await.unwrap();
            assert_eq!(fs.allocated_blocks(f.ino), 0);
            // This write crosses the inline threshold: the file spills.
            let tail = pattern(20_000, 3);
            f.write(500, &tail, AccessMode::Copy).await.unwrap();
            assert!(fs.allocated_blocks(f.ino) > 0, "spilled to the tree");
            assert_eq!(fs.stats().inline_files, 0);
            let back = f.read(0, 20_500, AccessMode::Copy).await.unwrap();
            assert_eq!(&back[..500], &head[..]);
            assert_eq!(&back[500..], &tail[..]);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn double_free_is_reported_not_aborted() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 8);
            let f = fs.create("data").await.unwrap();
            f.write(0, &pattern(100_000, 1), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            let extents = f.extents().await.unwrap();
            let (_, pbn, len) = extents[0];
            fs.free_extent(pbn as u32, len).unwrap();
            // The blocks are already free: the second free must surface as
            // an error, not a panic.
            assert_eq!(fs.free_extent(pbn as u32, len), Err(FsError::Corrupt));
        });
    }

    #[test]
    fn extent_units_amortize_io() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, disk) = world(&s, 8);
            let f = fs.create("seq").await.unwrap();
            f.write(0, &pattern(16 * BLOCK_SIZE, 2), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            fs.inner.cache.invalidate_vnode(f.id(), 0);
            disk.reset_stats();
            f.read(0, 16 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            let st = disk.stats();
            assert_eq!(st.reads, 2, "16 blocks in 8-block units");
            let fst = fs.stats();
            assert_eq!(fst.blocks_written, 16);
        });
    }

    #[test]
    fn remove_returns_space() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            let f = fs.create("gone").await.unwrap();
            f.write(0, &pattern(50_000, 3), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            drop(f);
            fs.remove("gone").await.unwrap();
            assert!(fs.check().is_empty());
            assert_eq!(fs.free_blocks(), fs.capacity_blocks(), "all blocks freed");
            assert!(fs.open("gone").await.is_err());
        });
    }

    #[test]
    fn truncate_partial_extent() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 8);
            let f = fs.create("t").await.unwrap();
            f.write(0, &pattern(12 * BLOCK_SIZE, 4), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            f.truncate(3 * BLOCK_SIZE as u64).await.unwrap();
            assert_eq!(f.size(), 3 * BLOCK_SIZE as u64);
            assert_eq!(fs.allocated_blocks(f.ino), 3);
            assert!(fs.check().is_empty(), "{:?}", fs.check());
            let back = f.read(0, 3 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            assert_eq!(back, pattern(12 * BLOCK_SIZE, 4)[..3 * BLOCK_SIZE]);
        });
    }

    #[test]
    fn fragmentation_forces_short_extents() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            // Fill the volume with large files, then shave the tail off
            // each one: free space becomes a sieve of sub-extent holes.
            let mut names = Vec::new();
            'fill: for i in 0..64 {
                let name = format!("f{i}");
                let f = fs.create(&name).await.unwrap();
                for b in 0..40u64 {
                    if f.write(
                        b * 4 * BLOCK_SIZE as u64,
                        &pattern(4 * BLOCK_SIZE, i as u8),
                        AccessMode::Copy,
                    )
                    .await
                    .is_err()
                    {
                        f.fsync().await.unwrap();
                        names.push(name);
                        break 'fill;
                    }
                }
                f.fsync().await.unwrap();
                names.push(name);
            }
            // Shave 2 blocks off each file: only 2-block holes exist now.
            for name in &names {
                let f = fs.open(name).await.unwrap();
                let keep = f.size().saturating_sub(2 * BLOCK_SIZE as u64);
                f.truncate(keep).await.unwrap();
            }
            let before = fs.stats().short_extents;
            let f = fs.create("late").await.unwrap();
            // 12 blocks = three 4-block extent requests; at most one
            // contiguous 4-run survives the shaving, so shorts must occur.
            f.write(0, &pattern(12 * BLOCK_SIZE, 5), AccessMode::Copy)
                .await
                .unwrap();
            // A 4-block extent request cannot be satisfied on this aged
            // volume (the paper's point about fixed extent sizes).
            assert!(
                fs.stats().short_extents > before,
                "expected short extents on a fragmented volume"
            );
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
    }

    #[test]
    fn truncate_then_extend_reads_zero_tail() {
        // Regression: shrinking to a mid-block size then extending must
        // not expose the stale bytes that used to follow the new EOF.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            let f = fs.create("t").await.unwrap();
            f.write(0, &pattern(20_000, 9), AccessMode::Copy)
                .await
                .unwrap();
            f.truncate(100).await.unwrap();
            // Extend with a hole by writing far beyond EOF.
            f.write(50_000, &[7u8; 10], AccessMode::Copy).await.unwrap();
            let back = f.read(0, 50_010, AccessMode::Copy).await.unwrap();
            assert_eq!(&back[..100], &pattern(20_000, 9)[..100]);
            assert!(
                back[100..50_000].iter().all(|&b| b == 0),
                "stale tail visible after truncate+extend"
            );
            assert_eq!(&back[50_000..], &[7u8; 10]);
        });
    }

    #[test]
    fn fragmented_read_batches_into_one_unit() {
        // A file whose extent unit spans discontiguous physical runs must
        // still read in one batched intent: one setup, one disk read per
        // run, one logical unit read in the counters.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, disk) = world(&s, 8);
            // A plug file soaks up every data block, then two isolated
            // 4-block holes are punched well apart. The only free space
            // left is those holes, so the next allocation cannot find a
            // contiguous 8-block run.
            let plug = fs.create("plug").await.unwrap();
            let mut off = 0u64;
            loop {
                match plug
                    .write(off, &pattern(8 * BLOCK_SIZE, 9), AccessMode::Copy)
                    .await
                {
                    Ok(()) => off += 8 * BLOCK_SIZE as u64,
                    Err(FsError::NoSpace) => break,
                    Err(e) => panic!("plug write: {e}"),
                }
                plug.fsync().await.unwrap();
            }
            assert_eq!(fs.free_blocks(), 0, "plug should exhaust the volume");
            let pbn0 = plug.extents().await.unwrap()[0].1 as u32;
            fs.free_extent(pbn0 + 40, 4).unwrap();
            fs.free_extent(pbn0 + 52, 4).unwrap();
            // This 8-block file lands in the scattered 4-block holes.
            let f = fs.create("frag").await.unwrap();
            f.write(0, &pattern(8 * BLOCK_SIZE, 42), AccessMode::Copy)
                .await
                .unwrap();
            f.fsync().await.unwrap();
            let extents = f.extents().await.unwrap();
            assert!(extents.len() >= 2, "expected a fragmented file");
            fs.inner.cache.invalidate_vnode(f.id(), 0);
            disk.reset_stats();
            let before = fs.stats();
            let back = f.read(0, 8 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            assert_eq!(back, pattern(8 * BLOCK_SIZE, 42));
            let st = fs.stats();
            assert_eq!(
                st.unit_reads - before.unit_reads,
                1,
                "one batched unit read"
            );
            assert_eq!(st.blocks_read - before.blocks_read, 8);
            assert_eq!(
                disk.stats().reads,
                extents.len() as u64,
                "one transfer per physical run"
            );
        });
    }

    #[test]
    fn mapped_read_of_resident_blocks_is_a_pure_fault_path() {
        // Figure 12's mode: mmap access pays the fault and the
        // translation, never the syscall, the kernel map/unmap or the
        // copyout.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let params = ExtentFsParams::with_extent_blocks(4);
            let costs = params.costs;
            let World { cpu, cache, fs, .. } = small_world(&s, 8, params);
            let f = fs.create("m").await.unwrap();
            const BLOCKS: usize = 4;
            let data = pattern(BLOCKS * BLOCK_SIZE, 6);
            f.write(0, &data, AccessMode::Copy).await.unwrap();
            f.fsync().await.unwrap();
            assert_eq!(
                cache.resident_of(f.id()),
                BLOCKS,
                "written pages stay cached"
            );
            let busy0 = cpu.busy();
            let back = f
                .read(0, BLOCKS * BLOCK_SIZE, AccessMode::Mapped)
                .await
                .unwrap();
            assert_eq!(back, data);
            assert_eq!(
                cpu.busy() - busy0,
                (costs.page_hit + costs.bmap) * BLOCKS as u64
            );
        });
    }

    #[test]
    fn truncate_extends_with_zeros() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            // Inline: grows inside the inode record, then spills.
            let small = fs.create("small").await.unwrap();
            small.write(0, b"head", AccessMode::Copy).await.unwrap();
            small.truncate(100).await.unwrap();
            assert_eq!(small.size(), 100);
            let mut want = b"head".to_vec();
            want.resize(100, 0);
            assert_eq!(small.read(0, 200, AccessMode::Copy).await.unwrap(), want);
            assert_eq!(fs.stats().inline_files, 1);
            small.truncate(2 * BLOCK_SIZE as u64 + 7).await.unwrap();
            assert_eq!(small.size(), 2 * BLOCK_SIZE as u64 + 7);
            want.resize(2 * BLOCK_SIZE + 7, 0);
            let back = small
                .read(0, 3 * BLOCK_SIZE, AccessMode::Copy)
                .await
                .unwrap();
            assert_eq!(back, want);
            assert_eq!(fs.stats().inline_files, 0, "spilled");
            // Extents: shrink to mid-block, then grow past the old end;
            // nothing of the old contents may show through.
            let big = fs.create("big").await.unwrap();
            let data = pattern(20_000, 4);
            big.write(0, &data, AccessMode::Copy).await.unwrap();
            big.truncate(5000).await.unwrap();
            big.truncate(5 * BLOCK_SIZE as u64 + 100).await.unwrap();
            assert_eq!(big.size(), 5 * BLOCK_SIZE as u64 + 100);
            big.fsync().await.unwrap();
            fs.inner.cache.invalidate_vnode(big.id(), 0);
            let mut want = data[..5000].to_vec();
            want.resize(5 * BLOCK_SIZE + 100, 0);
            let back = big.read(0, 6 * BLOCK_SIZE, AccessMode::Copy).await.unwrap();
            assert_eq!(back, want);
            assert_eq!(fs.check(), Vec::<String>::new());
        });
    }

    #[test]
    fn flat_namespace_rules() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let (fs, _disk) = world(&s, 4);
            assert!(fs.create("a/b").await.is_err(), "no subdirectories");
            assert!(fs.create("").await.is_err());
            let f = fs.create("ok").await.unwrap();
            drop(f);
            let f2 = fs.create("ok").await.unwrap(); // Truncates.
            assert_eq!(f2.size(), 0);
        });
    }
}
