//! The vnode front end: `rdwr`, `getpage`, `putpage` and the data half of
//! `fsync`, once, for every file system.
//!
//! The paper's head-to-head — clustered UFS against an extent file system
//! — only means something if the two mounts differ in layout, allocation
//! and metadata and in nothing else. So the code between the [`Vnode`]
//! calls and the I/O executor ([`crate::iopath`]) lives here, generic over
//! a [`Backing`]: what a file system still has to say about one of its
//! files. Nothing in this module asks which file system it is serving;
//! mounts differ by the answers their hooks give and by the values in
//! [`Costs`] and the policy fields of [`FrontEnd`].
//!
//! One request is one root span (`fs.read` / `fs.write`); one fault is one
//! `fs.getpage` span below it, however many times the pagein-retry loop
//! goes round.
//!
//! [`Vnode`]: crate::Vnode

use std::ops::Range;
use std::rc::Rc;

use clufs::{FreeBehindPolicy, PrefetchPolicy, Prefetcher, WriteAction};
use diskmodel::SharedDevice;
use pagecache::{PageCache, PageId};
use simkit::{Cpu, Sim, SimDuration, SpanId};

use crate::iopath::{BlockMap, FileStream, InflightRead, IoCosts, IoPath};
use crate::{AccessMode, FsError, FsResult, VnodeId};

/// CPU charges of the front end and the executor below it. A zero entry is
/// a charge this mount does not make: it neither yields nor advances the
/// clock.
#[derive(Clone, Copy, Debug)]
pub struct Costs {
    /// Entering and exiting `read(2)`/`write(2)` (per call, copying mode).
    pub syscall: SimDuration,
    /// A fault that must find or create the page.
    pub fault: SimDuration,
    /// A fault that finds the page in the cache.
    pub page_hit: SimDuration,
    /// The fault taken to read a partial block before overwriting it.
    pub rmw_fault: SimDuration,
    /// Kernel map/unmap of one file block in `rdwr`.
    pub map_unmap: SimDuration,
    /// One `putpage` traversal.
    pub putpage: SimDuration,
    /// Kernel/user copy rate, bytes per second.
    pub copy_bytes_per_sec: f64,
    /// Per-transfer setup and completion interrupt.
    pub io: IoCosts,
}

impl Costs {
    fn copy(&self, bytes: usize) -> SimDuration {
        copy_time(self.copy_bytes_per_sec, bytes)
    }
}

/// Time to copy `bytes` between kernel and user space at `bytes_per_sec`
/// (infinite = free).
pub fn copy_time(bytes_per_sec: f64, bytes: usize) -> SimDuration {
    if bytes_per_sec.is_infinite() {
        SimDuration::ZERO
    } else {
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

/// What a translation learned about the blocks at one logical block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Blocks one transfer may cover from here: contiguity clipped by the
    /// mount's I/O unit and end of file. 0 = hole, unmapped, or past EOF.
    pub blocks: u32,
    /// The physical address, if the probe learned it. A read planned from
    /// a known address is one contiguous transfer there; otherwise the
    /// block map resolves a run-list when the read is issued.
    pub pbn: Option<u32>,
}

/// Something the front end did that a mount may want to count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// One pass of the fault path; `prefetched`: the hit claimed a page
    /// read-ahead had brought in.
    Getpage { hit: bool, prefetched: bool },
    /// A demand read of this many blocks was issued.
    DemandRead(u64),
    /// A read-ahead of this many blocks was issued.
    Readahead(u64),
    /// Free-behind released a page.
    FreeBehind,
    /// A cluster write of this many blocks was issued.
    ClusterWrite(u64),
}

/// What a file system has to say about one open file.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait Backing: BlockMap + Sized {
    /// The file's I/O state.
    fn io(&self) -> &Rc<FileStream>;

    /// Current end of file, in bytes.
    fn eof(&self) -> u64;

    /// Bytes up to `end` were just written: grow the size to cover them
    /// and note whatever else a write changes (UFS: the inode is dirty).
    fn wrote_to(&self, end: u64);

    /// Copies from data held in the inode, if that is where this file's
    /// bytes live: `Some(bytes copied)`, `None` for a block-backed file.
    fn read_inline(&self, _off: u64, _buf: &mut [u8]) -> Option<usize> {
        None
    }

    /// `getpage`'s own translation of the faulting block — asked even on a
    /// cache hit, "because getpage must know whether the page has backing
    /// store" (Figure 2). `None`: not asked (UFS_HOLE skips it on hits in
    /// files known dense); planning then resolves the block only if it
    /// needs to. An error fails the fault (extentfs: an unmapped block
    /// below EOF is corruption, where UFS reads a hole as zeros).
    async fn fault_probe(
        &self,
        lbn: u64,
        eof_blocks: u64,
        _cached: bool,
    ) -> FsResult<Option<Probe>> {
        self.probe(lbn, eof_blocks).await.map(Some)
    }

    /// A planning translation, asked lazily and only for blocks the
    /// prefetch engine actually consults. It may wait and charge (UFS
    /// `bmap`: indirect-block reads, per-call CPU) or be free (a walk
    /// over an in-core extent tree).
    async fn probe(&self, lbn: u64, eof_blocks: u64) -> FsResult<Probe>;

    /// Routes a non-empty write. File systems with data in the inode
    /// handle those cases here and send block-backed bytes on to
    /// [`FrontEnd::write_blocks`] under `span`.
    async fn route_write(
        &self,
        front: &FrontEnd,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        front.write_blocks(self, off, data, mode, span).await
    }

    /// Called once before `[off, end)` is written block by block: the
    /// place to allocate up front (extentfs: preallocate extents, zero
    /// the gap a write past EOF leaves) or to note a hole (UFS).
    async fn prepare_write(&self, _off: u64, _end: u64, _span: SpanId) -> FsResult<()> {
        Ok(())
    }

    /// Write-path translation of one block, allocating it if the file
    /// system allocates per block: `(pbn, fresh)`, `fresh` meaning there
    /// is no old content to preserve.
    async fn map_write(&self, lbn: u64) -> FsResult<(u32, bool)>;

    /// Counts `ev` in the mount's own statistics.
    fn count(&self, _ev: Event) {}
}

/// How a fault is being resolved.
enum Fault {
    /// The page was resident when the fault looked.
    Hit(PageId),
    /// A demand read is in flight.
    Miss(InflightRead),
}

/// The policy values a mount runs its front end under.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// When `rdwr` frees the pages a sequential read leaves behind.
    pub free_behind: FreeBehindPolicy,
    /// Further Work "random clustering": pass the request size down from
    /// `rdwr` so apparently-random reads still cluster.
    pub size_hint: bool,
    /// The prefetch engine every stream of the mount runs.
    pub prefetch: PrefetchPolicy,
    /// The mount's I/O unit in blocks — the quantum the adaptive engine
    /// measures distance in.
    pub io_unit: u32,
}

/// One mount's vnode front end.
pub struct FrontEnd {
    sim: Sim,
    cpu: Cpu,
    cache: PageCache,
    io: IoPath,
    costs: Costs,
    policy: Policy,
}

impl FrontEnd {
    /// Builds the front end (and the executor under it) for a mount.
    pub fn new(
        sim: &Sim,
        cpu: &Cpu,
        disk: &SharedDevice,
        cache: &PageCache,
        costs: Costs,
        policy: Policy,
    ) -> FrontEnd {
        FrontEnd {
            sim: sim.clone(),
            cpu: cpu.clone(),
            cache: cache.clone(),
            io: IoPath::new(sim, cpu, disk, cache, costs.io),
            costs,
            policy,
        }
    }

    /// The executor, for raw block reads.
    pub fn io(&self) -> &IoPath {
        &self.io
    }

    /// The I/O state of a newly opened file: a fresh stream running the
    /// mount's prefetch engine, throttled at `write_limit` (None =
    /// unlimited).
    pub fn open_stream(&self, vnode: VnodeId, write_limit: Option<u32>) -> Rc<FileStream> {
        let engine = Prefetcher::new(self.policy.prefetch, self.policy.io_unit);
        FileStream::new(&self.sim, vnode, write_limit, engine)
    }

    fn block_size(&self) -> u64 {
        self.io.block_size() as u64
    }

    // ---- rdwr ----

    /// `rdwr` for reads: fills `buf` from `off`, returning the bytes read
    /// (short only at EOF).
    pub async fn read(
        &self,
        node: &impl Backing,
        off: u64,
        buf: &mut [u8],
        mode: AccessMode,
    ) -> FsResult<usize> {
        let (io, costs, bs) = (node.io(), &self.costs, self.block_size());
        let copying = mode == AccessMode::Copy;
        // One root span per request: everything the request waited on
        // (faults, cache probes, queue and service time) nests below.
        let tracer = self.sim.tracer();
        let span = tracer.start("fs.read", io.id().as_u32(), SpanId::NONE);
        tracer.arg(span, "off", off);
        tracer.arg(span, "bytes", buf.len() as u64);
        let r = async {
            // mmap access is a pure fault path: no syscall, no kernel
            // map/unmap, no copyout — exactly why the paper's Figure 12
            // uses it to expose file system overhead.
            if copying {
                self.cpu.charge("syscall", costs.syscall).await;
            }
            let size = node.eof();
            if off >= size {
                io.last_read_end.set(off);
                return Ok(0);
            }
            let len = buf.len().min((size - off) as usize);
            // Inline files are served from the inode cache (Further Work:
            // "the system could satisfy many requests directly from the
            // inode instead of the page cache"); a mapped access skips the
            // copyout.
            if let Some(n) = node.read_inline(off, &mut buf[..len]) {
                if copying {
                    self.cpu.charge("copy", costs.copy(n)).await;
                }
                return Ok(n);
            }
            // Sequential-mode detection for free-behind.
            let sequential = off == io.last_read_end.get();
            let hint = if self.policy.size_hint {
                (len as u64).div_ceil(bs) as u32
            } else {
                0
            };
            let end = off + len as u64;
            let (mut pos, mut dst) = (off, 0usize);
            while pos < end {
                let lbn = pos / bs;
                let in_page = (pos % bs) as usize;
                let n = (bs - in_page as u64).min(end - pos) as usize;
                let pid = self.getpage(node, lbn, hint, span).await?;
                if copying {
                    self.cpu.charge("map_unmap", costs.map_unmap).await;
                    self.cpu.charge("copy", costs.copy(n)).await;
                }
                self.cache.read_at(pid, in_page, &mut buf[dst..dst + n]);
                // Free behind: triggered when rdwr unmaps the page. The
                // policy decides; the executor releases (unless the page
                // got busy or dirty since we looked).
                if self.policy.free_behind.should_free(
                    sequential,
                    pos,
                    self.cache.free_count(),
                    self.cache.lotsfree(),
                ) && self.io.free_behind(pid)
                {
                    node.count(Event::FreeBehind);
                }
                pos += n as u64;
                dst += n;
            }
            io.last_read_end.set(end);
            Ok(len)
        }
        .await;
        tracer.end(span);
        r
    }

    /// `rdwr` for writes: the span, the syscall charge, then the file
    /// system's routing (see [`Backing::route_write`]).
    pub async fn write(
        &self,
        node: &impl Backing,
        off: u64,
        data: &[u8],
        mode: AccessMode,
    ) -> FsResult<()> {
        let tracer = self.sim.tracer();
        let span = tracer.start("fs.write", node.io().id().as_u32(), SpanId::NONE);
        tracer.arg(span, "off", off);
        tracer.arg(span, "bytes", data.len() as u64);
        self.cpu.charge("syscall", self.costs.syscall).await;
        let r = if data.is_empty() {
            Ok(())
        } else {
            node.route_write(self, off, data, mode, span).await
        };
        tracer.end(span);
        r
    }

    /// The page for `lbn` as a writer wants it: the resident page once any
    /// fill in progress has landed, else a new one — zeroed, returned busy,
    /// flagged `true` — for the caller to fill and release.
    pub async fn find_or_create(&self, io: &FileStream, lbn: u64, span: SpanId) -> (PageId, bool) {
        let key = self.io.key(io, lbn);
        match self.cache.lookup(key) {
            Some(pid) => {
                // May be mid-read-ahead: wait for the fill.
                self.cache.wait_unbusy(pid).await;
                (pid, false)
            }
            None => {
                let stream = io.id().as_u32();
                (self.cache.create_traced(key, stream, span).await, true)
            }
        }
    }

    /// The block loop of a write: find or create each page, read the old
    /// contents of a partially overwritten block, copy, dirty, grow the
    /// file, and offer the page to `putpage`.
    pub async fn write_blocks(
        &self,
        node: &impl Backing,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        let (io, costs, bs) = (node.io(), &self.costs, self.block_size());
        let end = off + data.len() as u64;
        let old_blocks = node.eof().div_ceil(bs);
        node.prepare_write(off, end, span).await?;
        let (mut pos, mut src) = (off, 0usize);
        while pos < end {
            let lbn = pos / bs;
            let in_page = (pos % bs) as usize;
            let n = (bs - in_page as u64).min(end - pos) as usize;
            let (pbn, fresh) = node.map_write(lbn).await?;
            let (pid, created) = self.find_or_create(io, lbn, span).await;
            if created {
                if !fresh && n < bs as usize && lbn < old_blocks {
                    // Read-modify-write of an existing partial block.
                    self.cpu.charge("fault", costs.rmw_fault).await;
                    let old = self.io.read_block(pbn as u64).await;
                    self.cache.write_at(pid, 0, &old);
                }
                self.cache.unbusy(pid);
            }
            self.cpu.charge("map_unmap", costs.map_unmap).await;
            if mode == AccessMode::Copy {
                self.cpu.charge("copy", costs.copy(n)).await;
            }
            self.cache.write_at(pid, in_page, &data[src..src + n]);
            self.cache.mark_dirty(pid);
            node.wrote_to(pos + n as u64);
            // `putpage` for the dirtied page: lie and accumulate (Figures
            // 7/8) until a cluster fills or the pattern breaks. At an I/O
            // unit of one block the accumulator pushes every page — the
            // old block-at-a-time path.
            self.cpu.charge("putpage", costs.putpage).await;
            let action = io
                .delayed()
                .borrow_mut()
                .on_putpage(lbn, node.max_cluster());
            match action {
                WriteAction::Delay => {}
                WriteAction::Push(r) | WriteAction::PushThenDelay(r) => {
                    self.flush_range(node, r, false).await?;
                }
            }
            pos += n as u64;
            src += n;
        }
        Ok(())
    }

    // ---- getpage ----

    /// `getpage`: returns the (filled, non-busy) page for logical block
    /// `lbn`, driving the read-ahead machinery (Figures 2, 3 and 6).
    /// `hint_blocks` is the request-size hint from `rdwr` (0 = none). The
    /// `fs.getpage` span nests under `parent` and brackets the whole
    /// fault, retries included.
    pub async fn getpage(
        &self,
        node: &impl Backing,
        lbn: u64,
        hint_blocks: u32,
        parent: SpanId,
    ) -> FsResult<PageId> {
        let tracer = self.sim.tracer();
        let span = tracer.start("fs.getpage", node.io().id().as_u32(), parent);
        tracer.arg(span, "lbn", lbn);
        // The classic pagein retry loop: planning the I/O involves waits
        // (CPU charges, translations, read-ahead page allocation) during
        // which the pageout daemon may evict and recycle the page the
        // fault found, or another fault may bring in the page it missed.
        // Either way the fault starts over.
        let r = loop {
            match self.fault(node, lbn, hint_blocks, span).await {
                Ok(None) => continue,
                Ok(Some(id)) => break Ok(id),
                Err(e) => break Err(e),
            }
        };
        tracer.end(span);
        r
    }

    /// One pass of the fault path; `None` = start over.
    async fn fault(
        &self,
        node: &impl Backing,
        lbn: u64,
        hint_blocks: u32,
        span: SpanId,
    ) -> FsResult<Option<PageId>> {
        let io = node.io();
        let stream = io.id().as_u32();
        let eof_blocks = node.eof().div_ceil(self.block_size());
        assert!(lbn < eof_blocks, "getpage beyond EOF");
        let key = self.io.key(io, lbn);
        let cached = self.cache.lookup_traced(key, stream, span);
        let hit = cached.is_some();
        node.count(Event::Getpage {
            hit,
            prefetched: hit && self.io.take_ra_pending(key),
        });
        let cost = if hit {
            self.costs.page_hit
        } else {
            self.costs.fault
        };
        self.cpu.charge("fault", cost).await;

        // Plan I/O through the prefetch engine. Translations are resolved
        // lazily: the engine is dry-run on a clone until every probe it
        // makes is known (the paper's predictor makes at most two — the
        // faulting block's cluster and the read-ahead cluster; the
        // adaptive one probes each predicted start), then committed.
        // Quiet cached faults therefore cost no extra translations.
        let mut known: Vec<(u64, Probe)> = Vec::new();
        if let Some(p) = node.fault_probe(lbn, eof_blocks, hit).await? {
            known.push((lbn, p));
        }
        let find =
            |known: &[(u64, Probe)], at: u64| known.iter().find(|(l, _)| *l == at).map(|k| k.1);
        let plan = loop {
            let missing = std::cell::Cell::new(None);
            let dry = self.io.prefetch_dry(
                io,
                lbn,
                hit,
                |at| {
                    find(&known, at).map_or_else(
                        || {
                            missing.set(Some(at));
                            0
                        },
                        |p| p.blocks,
                    )
                },
                hint_blocks,
            );
            match missing.get() {
                Some(at) => known.push((at, node.probe(at, eof_blocks).await?)),
                None => {
                    // Commit the state transition with fully-known probes.
                    let lookup = |at| find(&known, at).map_or(0, |p| p.blocks);
                    let plan = self.io.prefetch_commit(io, lbn, hit, lookup, hint_blocks);
                    debug_assert_eq!(plan, dry);
                    break plan;
                }
            }
        };

        // Issue the synchronous read (if the page is absent) and the
        // read-ahead BEFORE waiting, so both requests queue at the disk
        // together.
        let state = match cached {
            Some(id) => Fault::Hit(id),
            None => {
                let here = find(&known, lbn).expect("a miss translates its own block");
                if here.blocks == 0 {
                    // A hole: deliver a zero-filled page with no I/O.
                    let id = self.cache.create_traced(key, stream, span).await;
                    self.cache.unbusy(id);
                    return Ok(Some(id));
                }
                let run = plan.sync.expect("uncached non-hole access plans a read");
                let read = self
                    .io
                    .read_demand(io, node, run.lbn, run.blocks, here.pbn, span)
                    .await?;
                let Some(read) = read else { return Ok(None) };
                node.count(Event::DemandRead(read.blocks() as u64));
                Fault::Miss(read)
            }
        };
        // The paper's engine plans one run inside one probed cluster, so
        // the probe's address is the transfer's. Adaptive runs may span
        // clusters (data sieving) and resolve through the block map.
        let addressed = self.policy.prefetch != PrefetchPolicy::Adaptive;
        for run in &plan.runs {
            let pbn = find(&known, run.lbn)
                .and_then(|p| p.pbn)
                .filter(|_| addressed);
            let blocks = self.io.readahead(io, node, run, pbn).await?;
            if blocks > 0 {
                node.count(Event::Readahead(blocks as u64));
            }
        }

        match state {
            Fault::Miss(read) => self.io.finish(read, lbn).await.map(Some),
            Fault::Hit(id) => {
                // The page was cached when we looked; re-resolve it.
                let current = if self.cache.is_current(id) {
                    Some(id)
                } else {
                    self.cache.lookup(key)
                };
                let Some(id) = current else { return Ok(None) };
                // Possibly still being read ahead: wait out the I/O.
                self.cache.wait_unbusy(id).await;
                if !self.cache.is_current(id) {
                    return Ok(None);
                }
                self.cache.set_referenced(id);
                Ok(Some(id))
            }
        }
    }

    // ---- putpage / fsync ----

    /// Writes out the dirty pages in `[range)` through the executor, one
    /// block-map-contiguous cluster at a time (the Figure 8 while loop).
    /// With `free_after`, pages are freed once written (pageout-initiated
    /// cleaning).
    pub async fn flush_range(
        &self,
        node: &impl Backing,
        range: Range<u64>,
        free_after: bool,
    ) -> FsResult<()> {
        let clusters = self
            .io
            .write_clusters(node.io(), node, range, free_after)
            .await?;
        for n in clusters {
            node.count(Event::ClusterWrite(n as u64));
        }
        Ok(())
    }

    /// The data half of `fsync`: pushes the delayed range and every other
    /// dirty page (random writes, cleaner races) as contiguous runs, waits
    /// for the writes to land, and reports a deferred write that was lost.
    /// The file system follows with its metadata, if it has any.
    pub async fn fsync_data(&self, node: &impl Backing) -> FsResult<()> {
        let io = node.io();
        let pending = io.delayed().borrow_mut().flush();
        if let Some(r) = pending {
            self.flush_range(node, r, false).await?;
        }
        let bs = self.block_size();
        let offsets = self.cache.dirty_offsets(io.vnode());
        let mut pages = offsets.iter().map(|o| o / bs).peekable();
        while let Some(start) = pages.next() {
            let mut end = start + 1;
            while pages.next_if_eq(&end).is_some() {
                end += 1;
            }
            self.flush_range(node, start..end, false).await?;
        }
        io.quiesce().await;
        // Deferred writes fail with no caller to tell; the sticky stream
        // error makes this fsync the one that reports the loss.
        if io.take_io_error() {
            return Err(FsError::Io);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    use clufs::IO_RETRY_MAX;
    use diskmodel::fault::{FaultDevice, SpindleFaults};
    use diskmodel::{BlockDeviceExt, Disk, DiskParams};
    use pagecache::PageCacheParams;

    const BS: usize = 8192;
    const SECTORS: u32 = (BS / 512) as u32;
    /// Disk block holding block 0 of the toy file.
    const BASE: u32 = 16;
    /// Blocks the toy file has on disk; block `i` is filled with `i + 1`.
    const BLOCKS: u64 = 8;
    /// Disk blocks skipped between a split file's two physical runs.
    const GAP: u32 = 32;

    /// The least a file system can be: one file whose block `i` lives at
    /// disk block `BASE + i`. Translation is the costly, lazy kind — it
    /// takes virtual time — and a test can act at the moment one is in
    /// progress.
    struct Toy {
        sim: Sim,
        io: Rc<FileStream>,
        size: Cell<u64>,
        /// First block of the file's second physical run, `GAP` disk
        /// blocks beyond the first (`BLOCKS`: the file is contiguous). A
        /// split file's probes do not learn addresses, so its reads
        /// resolve through the block map.
        split: u64,
        /// Fails the next `extent` call.
        fail_extent: Cell<bool>,
        mid_probe: RefCell<Option<Box<dyn FnOnce()>>>,
        events: RefCell<Vec<Event>>,
    }

    /// Disk block of block `lbn` of a toy file split at `split`.
    fn place(split: u64, lbn: u64) -> u32 {
        BASE + lbn as u32 + if lbn >= split { GAP } else { 0 }
    }

    impl BlockMap for Toy {
        async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
            if self.fail_extent.replace(false) {
                return Err(FsError::Io);
            }
            let eof = self.size.get().div_ceil(BS as u64);
            let end = if lbn < self.split {
                eof.min(self.split)
            } else {
                eof
            };
            let left = end.saturating_sub(lbn);
            Ok((left > 0).then(|| (place(self.split, lbn), cap.min(left as u32))))
        }

        fn max_cluster(&self) -> u32 {
            4
        }
    }

    impl Backing for Toy {
        fn io(&self) -> &Rc<FileStream> {
            &self.io
        }

        fn eof(&self) -> u64 {
            self.size.get()
        }

        fn wrote_to(&self, end: u64) {
            self.size.set(self.size.get().max(end));
        }

        async fn probe(&self, lbn: u64, eof_blocks: u64) -> FsResult<Probe> {
            self.sim.sleep(SimDuration::from_millis(1)).await;
            if let Some(act) = self.mid_probe.borrow_mut().take() {
                act();
            }
            self.sim.sleep(SimDuration::from_millis(1)).await;
            let blocks = eof_blocks.saturating_sub(lbn).min(4) as u32;
            let addressed = blocks > 0 && self.split == BLOCKS;
            Ok(Probe {
                blocks,
                pbn: addressed.then(|| place(self.split, lbn)),
            })
        }

        async fn map_write(&self, lbn: u64) -> FsResult<(u32, bool)> {
            Ok((place(self.split, lbn), false))
        }

        fn count(&self, ev: Event) {
            self.events.borrow_mut().push(ev);
        }
    }

    impl Toy {
        /// The hit/miss outcome of each pass of the fault path so far.
        fn passes(&self) -> Vec<bool> {
            let events = self.events.borrow();
            let hits = events.iter().filter_map(|ev| match ev {
                Event::Getpage { hit, .. } => Some(*hit),
                _ => None,
            });
            hits.collect()
        }
    }

    struct World {
        front: FrontEnd,
        cpu: Cpu,
        cache: PageCache,
        disk: SharedDevice,
        faults: FaultDevice,
        toy: Rc<Toy>,
    }

    impl World {
        /// The cached page of block `lbn`, if any.
        fn page(&self, lbn: u64) -> Option<PageId> {
            self.cache.lookup(self.front.io().key(&self.toy.io, lbn))
        }

        /// Arms `count` media errors on the disk blocks of `[lbn, lbn+n)`.
        fn arm(&self, lbn: u64, n: u32, count: u32) {
            let lba = place(self.toy.split, lbn) as u64 * SECTORS as u64;
            self.faults.arm_transient(lba, n * SECTORS, count);
        }
    }

    /// A contiguous toy file (see [`world_split`]).
    async fn world(sim: &Sim) -> World {
        world_split(sim, BLOCKS).await
    }

    /// A drive (behind a fault injector with nothing armed) holding the toy
    /// file in two runs split at block `split`, an empty cache, a free CPU,
    /// tracing on.
    async fn world_split(sim: &Sim, split: u64) -> World {
        let cpu = Cpu::new(sim);
        let drive: SharedDevice = Rc::new(Disk::new(sim, DiskParams::small_test()));
        let faults = FaultDevice::new(sim, drive, SpindleFaults::default(), 0);
        let disk: SharedDevice = Rc::new(faults.clone());
        let cache = PageCache::new(sim, PageCacheParams::small_test());
        for i in 0..BLOCKS {
            let lba = place(split, i) as u64 * SECTORS as u64;
            disk.write(lba, SECTORS, vec![i as u8 + 1; BS]).await;
        }
        let free = Costs {
            syscall: SimDuration::ZERO,
            fault: SimDuration::ZERO,
            page_hit: SimDuration::ZERO,
            rmw_fault: SimDuration::ZERO,
            map_unmap: SimDuration::ZERO,
            putpage: SimDuration::ZERO,
            copy_bytes_per_sec: f64::INFINITY,
            io: IoCosts {
                io_setup: SimDuration::ZERO,
                io_intr: SimDuration::ZERO,
            },
        };
        let policy = Policy {
            free_behind: FreeBehindPolicy::sunos_411(false),
            size_hint: false,
            prefetch: PrefetchPolicy::Fixed,
            io_unit: 4,
        };
        let front = FrontEnd::new(sim, &cpu, &disk, &cache, free, policy);
        sim.tracer().set_enabled(true);
        let toy = Rc::new(Toy {
            sim: sim.clone(),
            io: front.open_stream(7, None),
            size: Cell::new(BLOCKS * BS as u64),
            split,
            fail_extent: Cell::new(false),
            mid_probe: RefCell::new(None),
            events: RefCell::new(Vec::new()),
        });
        World {
            front,
            cpu,
            cache,
            disk,
            faults,
            toy,
        }
    }

    /// Faults block 2 in, lets `disturb` arrange for the cached page to be
    /// recycled under the next fault, and checks that fault: the right
    /// bytes, after one pass that hit and one that missed, under a single
    /// `fs.getpage` span. Returns how long that fault took.
    fn refault_after(disturb: impl FnOnce(&Sim, &World, PageId) + 'static) -> SimDuration {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = world(&s).await;
            let first = w.front.getpage(&*w.toy, 2, 0, SpanId::NONE).await.unwrap();
            w.cache
                .with_page(first, |d| assert!(d.iter().all(|&b| b == 3)));
            w.toy.events.borrow_mut().clear();
            s.tracer().take_spans();
            disturb(&s, &w, first);
            let t0 = s.now();
            let again = w.front.getpage(&*w.toy, 2, 0, SpanId::NONE).await.unwrap();
            assert!(w.cache.is_current(again) && !w.cache.is_busy(again));
            w.cache
                .with_page(again, |d| assert!(d.iter().all(|&b| b == 3)));
            assert_eq!(
                w.toy.passes(),
                [true, false],
                "a hit, then the retry's miss"
            );
            let spans = s.tracer().take_spans();
            let faults = spans.iter().filter(|sp| sp.name == "fs.getpage");
            assert_eq!(faults.count(), 1, "the retry loops inside the fault's span");
            s.now().duration_since(t0)
        })
    }

    #[test]
    fn pagein_retries_when_the_page_vanishes_mid_plan() {
        // The branch every retry in `iobench all --quick` takes: the page
        // the fault found is gone by the time the plan is made.
        refault_after(|_, w, page| {
            let cache = w.cache.clone();
            *w.toy.mid_probe.borrow_mut() = Some(Box::new(move || cache.invalidate_page(page)));
        });
    }

    #[test]
    fn pagein_retries_when_the_page_is_recycled_while_busy() {
        // The page survives planning but is busy (a fill or a writeback
        // holds it), and is recycled while the fault waits for it.
        let held = SimDuration::from_millis(20);
        let took = refault_after(move |s, w, page| {
            let (sim, cache) = (s.clone(), w.cache.clone());
            s.spawn(async move {
                assert!(cache.lock_busy(page).await);
                sim.sleep(held).await;
                cache.invalidate_page(page);
            });
        });
        assert!(took > held, "the fault waited on the busy page: {took}");
    }

    #[test]
    fn faults_racing_for_one_absent_block_share_one_read() {
        // Both faults miss and plan a read; the slower one finds the page
        // already created when it goes to issue, and starts over.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = Rc::new(world(&s).await);
            let reads0 = w.disk.stats().reads;
            let racer = {
                let w = Rc::clone(&w);
                s.spawn(async move { w.front.getpage(&*w.toy, 5, 0, SpanId::NONE).await })
            };
            let mine = w.front.getpage(&*w.toy, 5, 0, SpanId::NONE).await.unwrap();
            let theirs = racer.await.unwrap();
            assert_eq!(mine, theirs);
            w.cache
                .with_page(mine, |d| assert!(d.iter().all(|&b| b == 6)));
            assert_eq!(w.disk.stats().reads - reads0, 1);
            assert_eq!(w.toy.passes(), [false, false, true]);
        });
    }

    #[test]
    fn write_fsync_read_round_trip_with_no_file_system_linked() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = world(&s).await;
            // Overwrite from mid-block 1 to mid-block 5: two partial blocks
            // (read-modify-write) around three whole ones.
            let off = BS as u64 + 100;
            let data: Vec<u8> = (0..4 * BS).map(|i| (i % 251) as u8).collect();
            w.front
                .write(&*w.toy, off, &data, AccessMode::Copy)
                .await
                .unwrap();
            w.front.fsync_data(&*w.toy).await.unwrap();
            assert!(w.cache.dirty_offsets(7).is_empty());
            w.cache.invalidate_vnode(7, 0);
            let mut back = vec![0u8; 6 * BS];
            let n = w
                .front
                .read(&*w.toy, 0, &mut back, AccessMode::Copy)
                .await
                .unwrap();
            assert_eq!(n, back.len());
            assert!(back[..BS].iter().all(|&b| b == 1));
            assert!(back[BS..off as usize].iter().all(|&b| b == 2));
            assert_eq!(&back[off as usize..off as usize + data.len()], &data[..]);
            assert!(back[off as usize + data.len()..].iter().all(|&b| b == 6));
            let written: u64 = w
                .toy
                .events
                .borrow()
                .iter()
                .map(|ev| match ev {
                    Event::ClusterWrite(n) => *n,
                    _ => 0,
                })
                .sum();
            assert_eq!(written, 5, "blocks 1..=5, each pushed once");
        });
    }

    #[test]
    fn a_failed_translation_does_not_leave_the_dirty_page_busy() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = world(&s).await;
            let data = vec![9u8; BS];
            w.front
                .write(&*w.toy, 0, &data, AccessMode::Copy)
                .await
                .unwrap();
            w.toy.fail_extent.set(true);
            assert_eq!(w.front.fsync_data(&*w.toy).await, Err(FsError::Io));
            // The page the writeback had locked is the one this read needs.
            let mut back = vec![0u8; BS];
            w.front
                .read(&*w.toy, 0, &mut back, AccessMode::Copy)
                .await
                .unwrap();
            assert_eq!(back, data);
            w.front.fsync_data(&*w.toy).await.unwrap();
        });
    }

    /// One hinted demand read of blocks 4..8 of a file split at block 6 —
    /// two physical runs — whose second run first fails `failures` times.
    /// Checks what holds however often that is: the bytes, one setup for
    /// the whole read, one successful transfer per run, and one retry
    /// (counted, and traced under the read) per failure.
    fn demand_read_across_the_split(failures: u32) {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = world_split(&s, 6).await;
            w.arm(6, 2, failures);
            let reads0 = w.disk.stats().reads;
            let first = w.front.getpage(&*w.toy, 4, 4, SpanId::NONE).await.unwrap();
            assert_eq!(w.page(4), Some(first));
            for lbn in 4..8 {
                let page = w.page(lbn).expect("the read brought every block in");
                assert!(!w.cache.is_busy(page));
                w.cache
                    .with_page(page, |d| assert!(d.iter().all(|&b| b == lbn as u8 + 1)));
            }
            assert_eq!(w.toy.events.borrow().last(), Some(&Event::DemandRead(4)));
            let setups = w.cpu.by_tag().iter().find(|t| t.0 == "io_setup").unwrap().1;
            assert_eq!(setups.count, 1, "one setup however many runs");
            assert_eq!(w.disk.stats().reads - reads0, 2);
            assert_eq!(s.stats().counter_value("io.retries"), failures as u64);
            let spans = s.tracer().take_spans();
            let read = spans
                .iter()
                .find(|sp| sp.name == "iopath.read_runs")
                .unwrap();
            assert!(read.args.contains(&("runs", 2)));
            let retries = spans.iter().filter(|sp| sp.name == "iopath.retry");
            assert!(retries.clone().all(|sp| sp.parent == read.id));
            assert_eq!(retries.count(), failures as usize);
        });
    }

    #[test]
    fn a_demand_read_across_two_runs_is_one_setup_and_two_transfers() {
        demand_read_across_the_split(0);
    }

    #[test]
    fn a_transient_error_on_one_part_is_retried_once() {
        demand_read_across_the_split(1);
    }

    #[test]
    fn retried_and_failed_transfers_return_every_buffer_they_borrowed() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = world_split(&s, 6).await;
            let bufs = w.front.io().bufs();
            let retries = || s.stats().counter_value("io.retries");
            // A two-part demand read whose second part heals on its third
            // try: two buffers out at once, both home afterwards.
            w.arm(6, 2, 2);
            w.front.getpage(&*w.toy, 4, 4, SpanId::NONE).await.unwrap();
            assert_eq!(retries(), 2);
            assert_eq!((bufs.lent(), bufs.idle()), (0, 2));
            // A cluster write that heals on its third try goes out in one
            // of those buffers, and what lands is the snapshot it carried.
            let data: Vec<u8> = (0..2 * BS).map(|i| (i % 249) as u8).collect();
            w.front
                .write(&*w.toy, 0, &data, AccessMode::Copy)
                .await
                .unwrap();
            w.arm(0, 2, 2);
            w.front.fsync_data(&*w.toy).await.unwrap();
            assert_eq!(retries(), 4);
            assert_eq!((bufs.lent(), bufs.idle()), (0, 2));
            assert_eq!(
                w.disk.read(BASE as u64 * SECTORS as u64, 2 * SECTORS).await,
                data
            );
            // Transfers that fail for good give their buffers back too.
            w.cache.invalidate_vnode(7, 0);
            w.arm(4, 2, IO_RETRY_MAX + 1);
            let failed = w.front.getpage(&*w.toy, 4, 4, SpanId::NONE).await;
            assert_eq!(failed.err(), Some(FsError::Io));
            w.front
                .write(&*w.toy, 0, &data[..BS], AccessMode::Copy)
                .await
                .unwrap();
            w.arm(0, 1, IO_RETRY_MAX + 1);
            assert_eq!(w.front.fsync_data(&*w.toy).await, Err(FsError::Io));
            assert_eq!((bufs.lent(), bufs.idle()), (0, 2));
        });
    }

    #[test]
    fn a_failed_readahead_part_costs_only_its_own_pages() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = world_split(&s, 6).await;
            // The read-ahead behind a sequential fault on block 0 covers
            // blocks 4..8 in two parts; the second exhausts its retries.
            w.arm(6, 2, IO_RETRY_MAX + 1);
            w.front.getpage(&*w.toy, 0, 0, SpanId::NONE).await.unwrap();
            assert_eq!(w.toy.events.borrow().last(), Some(&Event::Readahead(4)));
            s.sleep(SimDuration::from_secs(1)).await;
            assert_eq!(s.stats().counter_value("io.retries"), IO_RETRY_MAX as u64);
            assert!(w.page(6).is_none() && w.page(7).is_none());
            let spans = s.tracer().take_spans();
            let parts = spans.iter().filter(|sp| sp.name == "iopath.readahead.part");
            assert_eq!(parts.count(), 2);
            // The first part landed, and a fault on it claims a prefetched
            // page.
            w.toy.events.borrow_mut().clear();
            let page = w.front.getpage(&*w.toy, 5, 0, SpanId::NONE).await.unwrap();
            w.cache
                .with_page(page, |d| assert!(d.iter().all(|&b| b == 6)));
            let claimed = Event::Getpage {
                hit: true,
                prefetched: true,
            };
            assert_eq!(w.toy.events.borrow()[..], [claimed]);
            // The fault has cleared: a demand fault on a lost block reads
            // it again, and nothing remembers it as prefetched.
            w.toy.events.borrow_mut().clear();
            let page = w.front.getpage(&*w.toy, 7, 0, SpanId::NONE).await.unwrap();
            w.cache
                .with_page(page, |d| assert!(d.iter().all(|&b| b == 8)));
            assert_eq!(w.toy.passes(), [false]);
            assert!(w.toy.events.borrow().contains(&Event::DemandRead(1)));
        });
    }
}
