//! Mount state: the in-core superblock, cylinder groups, inode cache,
//! metadata buffer cache, and the dirty-page cleaner.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use clufs::{BmapCache, FreeBehindPolicy, Tuning, LEN_EDGES};
use diskmodel::{BlockDeviceExt, DiskOp, DiskRequest, SharedDevice};
use pagecache::{CleanRequest, PageCache, VnodeId};
use simkit::stats::{Counter, Histogram};
use simkit::{Cpu, Notify, Receiver, Sim, SimDuration};
use vfs::frontend::{FrontEnd, Policy};
use vfs::iopath::FileStream;
use vfs::{FsError, FsResult};

use crate::costs::CpuCosts;
use crate::layout::{CgHeader, Dinode, FileKind, Superblock, BLOCK_SIZE, SECTORS_PER_BLOCK};

/// Mount-time parameters.
#[derive(Clone)]
pub struct UfsParams {
    /// Policy switches and cluster sizing (Figure 9 presets live here).
    pub tuning: Tuning,
    /// CPU cost model.
    pub costs: CpuCosts,
    /// Free-behind thresholds.
    pub free_behind: FreeBehindPolicy,
    /// Further Work `B_ORDER`: metadata updates are issued asynchronously
    /// with ordering barriers instead of synchronously.
    pub ordered_metadata: bool,
    /// Blocks a file may allocate in one cylinder group before the
    /// allocator moves it to the next group (`fs_maxbpg`); `None` derives
    /// a quarter of the group size.
    pub maxbpg: Option<u32>,
    /// Further Work "data in the inode": keep files ≤ 56 bytes inline in
    /// the inode (like fast symlinks), served from the inode cache.
    pub inline_small: bool,
    /// Distinguishes page cache identities when several mounts share one
    /// cache.
    pub mount_id: u64,
}

impl UfsParams {
    /// Parameters for a given tuning with SPARCstation costs.
    pub fn with_tuning(tuning: Tuning) -> UfsParams {
        UfsParams {
            tuning,
            costs: CpuCosts::sparcstation_1(),
            free_behind: FreeBehindPolicy::sunos_411(tuning.free_behind),
            ordered_metadata: false,
            maxbpg: None,
            inline_small: false,
            mount_id: 1,
        }
    }

    /// Zero-CPU-cost parameters for logic tests.
    pub fn test(tuning: Tuning) -> UfsParams {
        UfsParams {
            costs: CpuCosts::free(),
            ..Self::with_tuning(tuning)
        }
    }
}

/// Mount-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct UfsStats {
    /// `getpage` invocations.
    pub getpage_calls: u64,
    /// `getpage` calls satisfied from the page cache.
    pub getpage_hits: u64,
    /// `bmap` translations performed (excluding bmap-cache hits).
    pub bmap_calls: u64,
    /// Translations served by the Further Work bmap cache.
    pub bmap_cache_hits: u64,
    /// `bmap` calls skipped by the `UFS_HOLE` optimization.
    pub bmap_skipped_hole_opt: u64,
    /// Synchronous cluster reads issued.
    pub sync_reads: u64,
    /// Read-ahead cluster reads issued.
    pub readaheads: u64,
    /// Blocks moved by all reads.
    pub blocks_read: u64,
    /// Cluster writes issued.
    pub cluster_writes: u64,
    /// Blocks moved by all writes.
    pub blocks_written: u64,
    /// Pages freed by free-behind.
    pub free_behinds: u64,
    /// Synchronous metadata writes (directory/inode updates).
    pub sync_meta_writes: u64,
    /// Ordered (B_ORDER) asynchronous metadata writes.
    pub ordered_meta_writes: u64,
    /// Pages written on behalf of the pageout daemon's cleaner.
    pub cleaner_pages: u64,
}

/// Registry handles mirroring [`UfsStats`] (and the policy observations the
/// paper's tables are built from) into `sim.stats()` under the `ufs.*` and
/// `core.*` namespaces. `ufs.free_behind_pages` is the I/O-bound-process
/// half of the free-behind comparison (`pageout.freed` is the daemon's).
pub(crate) struct UfsMetrics {
    pub(crate) getpage_calls: Counter,
    pub(crate) getpage_hits: Counter,
    pub(crate) bmap_calls: Counter,
    pub(crate) bmap_cache_hits: Counter,
    pub(crate) sync_reads: Counter,
    pub(crate) readaheads: Counter,
    /// Pages created by the read-ahead path.
    pub(crate) readahead_blocks: Counter,
    /// Read-ahead pages later returned by `getpage` (prefetch accuracy =
    /// used / issued blocks).
    pub(crate) readahead_used: Counter,
    pub(crate) blocks_read: Counter,
    pub(crate) cluster_writes: Counter,
    pub(crate) blocks_written: Counter,
    pub(crate) free_behind_pages: Counter,
    /// Blocks per cluster read, as issued to the disk.
    pub(crate) cluster_read_blocks: Histogram,
    /// Blocks per cluster write, as issued to the disk.
    pub(crate) cluster_write_blocks: Histogram,
    /// Contiguous extent length computed by `bmap` (capped at the I/O
    /// cluster size) — the allocator's achieved contiguity.
    pub(crate) extent_len_blocks: Histogram,
}

impl UfsMetrics {
    fn new(sim: &Sim) -> UfsMetrics {
        let s = sim.stats();
        UfsMetrics {
            getpage_calls: s.counter("ufs.getpage_calls"),
            getpage_hits: s.counter("ufs.getpage_hits"),
            bmap_calls: s.counter("ufs.bmap_calls"),
            bmap_cache_hits: s.counter("ufs.bmap_cache_hits"),
            sync_reads: s.counter("ufs.sync_reads"),
            readaheads: s.counter("ufs.readaheads"),
            readahead_blocks: s.counter("ufs.readahead_blocks"),
            readahead_used: s.counter("ufs.readahead_used"),
            blocks_read: s.counter("ufs.blocks_read"),
            cluster_writes: s.counter("ufs.cluster_writes"),
            blocks_written: s.counter("ufs.blocks_written"),
            free_behind_pages: s.counter("ufs.free_behind_pages"),
            cluster_read_blocks: s.histogram("core.cluster_read_blocks", &LEN_EDGES),
            cluster_write_blocks: s.histogram("core.cluster_write_blocks", &LEN_EDGES),
            extent_len_blocks: s.histogram("ufs.extent_len_blocks", &LEN_EDGES),
        }
    }
}

/// The in-core inode: dinode fields plus the paper's policy state.
pub struct Incore {
    /// Inode number.
    pub ino: u32,
    /// On-disk fields (authoritative while active).
    pub din: RefCell<Dinode>,
    /// Needs writing back.
    pub dirty: Cell<bool>,
    /// Per-open-file I/O state: the stream label every request this file
    /// issues carries, the paper's write throttle and delayed-write
    /// accumulator, the sequential-read detector, and the pending-write
    /// count used to quiesce before truncate/remove.
    pub io: Rc<FileStream>,
    /// Further Work extent-tuple cache.
    pub bmap_cache: RefCell<BmapCache>,
    /// Conservative "may have holes" flag for the UFS_HOLE optimization.
    pub may_have_holes: Cell<bool>,
    /// Blocks allocated in the current cylinder group since the last
    /// allocator move (for `maxbpg`).
    pub alloc_run: Cell<u32>,
    /// Cylinder group the allocator is currently filling for this file.
    pub alloc_cg: Cell<u32>,
}

impl Incore {
    pub(crate) fn new(
        ino: u32,
        din: Dinode,
        front: &FrontEnd,
        tuning: &Tuning,
        vid: VnodeId,
    ) -> Rc<Incore> {
        Rc::new(Incore {
            ino,
            din: RefCell::new(din),
            dirty: Cell::new(false),
            io: front.open_stream(vid, tuning.write_limit),
            bmap_cache: RefCell::new(BmapCache::new(8)),
            may_have_holes: Cell::new(true),
            alloc_run: Cell::new(0),
            alloc_cg: Cell::new(u32::MAX),
        })
    }
}

pub(crate) struct UfsInner {
    pub(crate) sim: Sim,
    pub(crate) cpu: Cpu,
    pub(crate) disk: SharedDevice,
    pub(crate) cache: PageCache,
    pub(crate) params: UfsParams,
    pub(crate) sb: RefCell<Superblock>,
    pub(crate) cgs: RefCell<Vec<CgHeader>>,
    pub(crate) cgs_dirty: RefCell<Vec<bool>>,
    pub(crate) sb_dirty: Cell<bool>,
    /// Write-back cache of metadata blocks (inode table blocks, indirect
    /// blocks, directory blocks), keyed by physical block.
    pub(crate) meta: RefCell<HashMap<u64, Rc<RefCell<Vec<u8>>>>>,
    pub(crate) meta_dirty: RefCell<std::collections::BTreeSet<u64>>,
    pub(crate) inodes: RefCell<HashMap<u32, Rc<Incore>>>,
    pub(crate) stats: RefCell<UfsStats>,
    pub(crate) metrics: UfsMetrics,
    /// The shared vnode front end (`rdwr`/`getpage`/`putpage`/fsync) and
    /// the I/O executor under it.
    pub(crate) front: FrontEnd,
    /// Round-robin start for directory placement.
    pub(crate) next_dir_cg: Cell<u32>,
    /// Outstanding ordered metadata writes (B_ORDER mode).
    pub(crate) pending_meta_io: Cell<u32>,
    pub(crate) meta_quiesce: Notify,
}

/// A mounted UFS instance. Clones share the mount.
#[derive(Clone)]
pub struct Ufs {
    pub(crate) inner: Rc<UfsInner>,
}

impl Ufs {
    /// Mounts the file system on `disk`, reading the superblock and group
    /// headers. If `cleaner` is given (the pageout daemon's victim queue),
    /// a cleaner task is spawned that writes dirty victims via the
    /// clustered `putpage` path and frees them.
    pub async fn mount(
        sim: &Sim,
        cpu: &Cpu,
        cache: &PageCache,
        disk: &SharedDevice,
        params: UfsParams,
        cleaner: Option<Receiver<CleanRequest>>,
    ) -> FsResult<Ufs> {
        assert_eq!(
            cache.page_size(),
            BLOCK_SIZE,
            "this reproduction equates one page with one fs block"
        );
        let raw = disk
            .read(
                crate::layout::SB_BLOCK * SECTORS_PER_BLOCK as u64,
                SECTORS_PER_BLOCK,
            )
            .await;
        let mut sb = Superblock::decode(&raw).ok_or(FsError::Corrupt)?;
        let mut cgs = Vec::with_capacity(sb.ncg as usize);
        for cgx in 0..sb.ncg {
            let raw = disk
                .read(
                    sb.cg_start(cgx) * SECTORS_PER_BLOCK as u64,
                    SECTORS_PER_BLOCK,
                )
                .await;
            let cg = CgHeader::decode(&raw).ok_or(FsError::Corrupt)?;
            if cg.cgx != cgx {
                return Err(FsError::Corrupt);
            }
            cgs.push(cg);
        }
        sb.clean = false;
        let ncg = sb.ncg as usize;
        let front = FrontEnd::new(
            sim,
            cpu,
            disk,
            cache,
            params.costs.front_end(),
            Policy {
                free_behind: params.free_behind,
                size_hint: params.tuning.random_cluster_hint,
                prefetch: params.tuning.prefetch,
                io_unit: params.tuning.io_cluster_blocks(),
            },
        );
        let ufs = Ufs {
            inner: Rc::new(UfsInner {
                sim: sim.clone(),
                cpu: cpu.clone(),
                disk: disk.clone(),
                cache: cache.clone(),
                params,
                sb: RefCell::new(sb),
                cgs: RefCell::new(cgs),
                cgs_dirty: RefCell::new(vec![false; ncg]),
                sb_dirty: Cell::new(true),
                meta: RefCell::new(HashMap::new()),
                meta_dirty: RefCell::new(std::collections::BTreeSet::new()),
                inodes: RefCell::new(HashMap::new()),
                stats: RefCell::new(UfsStats::default()),
                metrics: UfsMetrics::new(sim),
                front,
                next_dir_cg: Cell::new(0),
                pending_meta_io: Cell::new(0),
                meta_quiesce: Notify::new(),
            }),
        };
        // Persist the cleared clean-flag immediately, like a real mount:
        // a crash from here on must be visible to fsck.
        ufs.flush_maps(false).await;
        if let Some(rx) = cleaner {
            let fs = ufs.clone();
            sim.spawn(async move { fs.cleaner_loop(rx).await });
        }
        Ok(ufs)
    }

    /// The virtual clock.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Mount statistics snapshot.
    pub fn stats(&self) -> UfsStats {
        *self.inner.stats.borrow()
    }

    /// Resets mount statistics.
    pub fn reset_stats(&self) {
        *self.inner.stats.borrow_mut() = UfsStats::default();
    }

    /// The active tuning.
    pub fn tuning(&self) -> Tuning {
        self.inner.params.tuning
    }

    /// Free data blocks (file system wide).
    pub fn free_blocks(&self) -> u64 {
        self.inner.sb.borrow().free_blocks
    }

    /// Total data-block capacity.
    pub fn capacity_blocks(&self) -> u64 {
        self.inner.sb.borrow().total_data_blocks()
    }

    /// One block's media transfer time in milliseconds (for rotdelay →
    /// blocks conversion).
    pub(crate) fn block_time_ms(&self) -> f64 {
        (SECTORS_PER_BLOCK as u64 * self.inner.disk.sector_time_ns()) as f64 / 1e6
    }

    /// Placement gap in blocks derived from the tuning's rotdelay.
    pub(crate) fn gap_blocks(&self) -> u32 {
        self.inner
            .params
            .tuning
            .rotdelay_blocks(self.block_time_ms())
    }

    /// Page-cache identity for an inode.
    pub(crate) fn vid(&self, ino: u32) -> VnodeId {
        (self.inner.params.mount_id << 32) | ino as u64
    }

    pub(crate) async fn charge(&self, tag: &'static str, d: SimDuration) {
        self.inner.cpu.charge(tag, d).await;
    }

    // ---- raw block I/O ----

    pub(crate) async fn write_block_raw(&self, pbn: u64, data: Vec<u8>) {
        self.charge("io_setup", self.inner.params.costs.io_setup)
            .await;
        self.inner
            .disk
            .write(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK, data)
            .await;
        self.charge("io_intr", self.inner.params.costs.io_intr)
            .await;
    }

    // ---- metadata buffer cache ----

    /// Fetches a metadata block through the write-back cache.
    pub(crate) async fn meta_get(&self, pbn: u64) -> Rc<RefCell<Vec<u8>>> {
        let hit = self.inner.meta.borrow().get(&pbn).cloned();
        match hit {
            Some(b) => b,
            None => {
                let data = self.inner.front.io().read_block(pbn).await;
                let cell = Rc::new(RefCell::new(data));
                self.inner.meta.borrow_mut().insert(pbn, Rc::clone(&cell));
                cell
            }
        }
    }

    /// Marks a cached metadata block dirty (flushed on `sync`).
    pub(crate) fn meta_mark_dirty(&self, pbn: u64) {
        debug_assert!(self.inner.meta.borrow().contains_key(&pbn));
        self.inner.meta_dirty.borrow_mut().insert(pbn);
    }

    /// Writes a metadata block through: synchronously (classic UFS) or as
    /// an ordered asynchronous request (the B_ORDER Further Work mode).
    pub(crate) async fn meta_write_through(&self, pbn: u64) {
        let cell = self
            .inner
            .meta
            .borrow()
            .get(&pbn)
            .cloned()
            .expect("write-through of uncached block");
        let data = cell.borrow().clone();
        self.inner.meta_dirty.borrow_mut().remove(&pbn);
        if self.inner.params.ordered_metadata {
            self.inner.stats.borrow_mut().ordered_meta_writes += 1;
            self.charge("io_setup", self.inner.params.costs.io_setup)
                .await;
            let handle = self.inner.disk.submit(DiskRequest {
                op: DiskOp::Write,
                lba: pbn * SECTORS_PER_BLOCK as u64,
                nsect: SECTORS_PER_BLOCK,
                data: Some(data),
                ordered: true,
                stream: 0,
                span: simkit::SpanId::NONE,
            });
            let fs = self.clone();
            self.inner
                .pending_meta_io
                .set(self.inner.pending_meta_io.get() + 1);
            self.inner.sim.spawn(async move {
                handle.wait().await;
                fs.charge("io_intr", fs.inner.params.costs.io_intr).await;
                let n = fs.inner.pending_meta_io.get();
                fs.inner.pending_meta_io.set(n - 1);
                if n == 1 {
                    fs.inner.meta_quiesce.notify_all();
                }
            });
        } else {
            self.inner.stats.borrow_mut().sync_meta_writes += 1;
            self.write_block_raw(pbn, data).await;
        }
    }

    // ---- dinode I/O ----

    /// Loads (or returns the active) in-core inode.
    pub(crate) async fn iget(&self, ino: u32) -> FsResult<Rc<Incore>> {
        if let Some(ip) = self.inner.inodes.borrow().get(&ino) {
            return Ok(Rc::clone(ip));
        }
        let (pbn, idx) = self.inner.sb.borrow().inode_location(ino);
        let block = self.meta_get(pbn).await;
        let din = {
            let b = block.borrow();
            Dinode::decode(&b[idx * crate::layout::DINODE_SIZE..]).ok_or(FsError::Corrupt)?
        };
        if din.kind == FileKind::Free {
            return Err(FsError::NotFound);
        }
        let ip = Incore::new(
            ino,
            din,
            &self.inner.front,
            &self.inner.params.tuning,
            self.vid(ino),
        );
        self.inner.inodes.borrow_mut().insert(ino, Rc::clone(&ip));
        Ok(ip)
    }

    /// Serializes the in-core inode into its metadata block; `through`
    /// forces the block to disk (sync or ordered).
    pub(crate) async fn iflush(&self, ip: &Incore, through: bool) {
        let (pbn, idx) = self.inner.sb.borrow().inode_location(ip.ino);
        let block = self.meta_get(pbn).await;
        {
            let mut b = block.borrow_mut();
            let bytes = ip.din.borrow().encode();
            let off = idx * crate::layout::DINODE_SIZE;
            b[off..off + crate::layout::DINODE_SIZE].copy_from_slice(&bytes);
        }
        ip.dirty.set(false);
        self.meta_mark_dirty(pbn);
        if through {
            self.meta_write_through(pbn).await;
        }
    }

    /// Drops an inode from the in-core table (after remove, or for cache
    /// shootdown in tests). Pending I/O must be quiesced by the caller.
    pub(crate) fn iforget(&self, ino: u32) {
        self.inner.inodes.borrow_mut().remove(&ino);
    }

    // ---- mount-wide flush ----

    /// Flushes every dirty page, delayed write, inode, metadata block, and
    /// the allocation maps; waits for all I/O to settle.
    pub async fn sync_all(&self) -> FsResult<()> {
        // 1. Per-inode, in inode order (the table is a hash map; the disk
        // queue must not see its iteration order): flush delayed writes
        // and any remaining dirty pages.
        let mut ips: Vec<Rc<Incore>> = self.inner.inodes.borrow().values().cloned().collect();
        ips.sort_by_key(|ip| ip.ino);
        for ip in &ips {
            self.fsync_inode(ip).await?;
        }
        // 2. Metadata blocks.
        let dirty: Vec<u64> = self.inner.meta_dirty.borrow().iter().copied().collect();
        for pbn in dirty {
            self.meta_write_through(pbn).await;
        }
        // 3. Cylinder groups and superblock.
        self.flush_maps(false).await;
        // 4. Wait for ordered metadata writes to land.
        while self.inner.pending_meta_io.get() > 0 {
            self.inner.meta_quiesce.wait().await;
        }
        Ok(())
    }

    /// Writes the cg headers and superblock. With `mark_clean`, sets the
    /// clean-unmount flag first. Public so tools and tests can checkpoint
    /// the allocation maps without a full unmount.
    pub async fn flush_maps(&self, mark_clean: bool) {
        if mark_clean {
            self.inner.sb.borrow_mut().clean = true;
            self.inner.sb_dirty.set(true);
        }
        let ncg = self.inner.sb.borrow().ncg;
        for cgx in 0..ncg {
            let dirty = self.inner.cgs_dirty.borrow()[cgx as usize];
            if dirty {
                let data = self.inner.cgs.borrow()[cgx as usize].encode();
                let start = self.inner.sb.borrow().cg_start(cgx);
                self.write_block_raw(start, data).await;
                self.inner.cgs_dirty.borrow_mut()[cgx as usize] = false;
            }
        }
        if self.inner.sb_dirty.get() {
            let data = self.inner.sb.borrow().encode();
            self.write_block_raw(crate::layout::SB_BLOCK, data).await;
            self.inner.sb_dirty.set(false);
        }
    }

    /// Cleanly unmounts: sync everything and mark the superblock clean.
    pub async fn unmount(self) -> FsResult<()> {
        self.sync_all().await?;
        self.flush_maps(true).await;
        Ok(())
    }

    // ---- the pageout cleaner ----

    /// Services dirty victims chosen by the pageout daemon: each is written
    /// through the (possibly clustering) putpage path and then freed.
    async fn cleaner_loop(&self, mut rx: Receiver<CleanRequest>) {
        while let Some(req) = rx.recv().await {
            let ino = (req.key.vnode & 0xffff_ffff) as u32;
            let mount = req.key.vnode >> 32;
            if mount != self.inner.params.mount_id {
                continue;
            }
            let ip = match self.inner.inodes.borrow().get(&ino) {
                Some(ip) => Rc::clone(ip),
                None => continue, // Inode gone; page will be invalidated.
            };
            let page = req.key.offset / BLOCK_SIZE as u64;
            // The victim may have been cleaned or freed since it was chosen.
            let key = req.key;
            let still_dirty = self
                .inner
                .cache
                .lookup(key)
                .map(|id| self.inner.cache.is_dirty(id))
                .unwrap_or(false);
            if !still_dirty {
                continue;
            }
            self.inner.stats.borrow_mut().cleaner_pages += 1;
            // Cluster around the victim: the whole delayed run if the
            // victim falls inside it, else just the page run.
            let flush = {
                let mut dw = ip.io.delayed().borrow_mut();
                match dw.pending() {
                    Some(r) if r.contains(&page) => {
                        dw.flush();
                        r
                    }
                    _ => page..page + 1,
                }
            };
            let _ = self
                .inner
                .front
                .flush_range(&self.file(&ip), flush, true)
                .await;
        }
    }
}
