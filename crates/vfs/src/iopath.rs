//! The shared I/O execution engine.
//!
//! The paper's contribution is policy layered over unchanged mechanism:
//! read-ahead, delayed-write accumulation, free-behind and write limits
//! decide *what* to transfer, while the code that creates busy pages,
//! charges setup/interrupt CPU, talks to the disk and completes pages is
//! the same in every kernel. This module is that mechanism: the vnode
//! front end ([`crate::frontend`]) decides, and four typed methods here
//! resolve the decision against the page cache and the disk —
//! [`IoPath::read_demand`], [`IoPath::readahead`],
//! [`IoPath::write_clusters`] and [`IoPath::free_behind`].
//!
//! There is one read. `bmap` returns a length, and the routine that moves
//! the blocks does not care who chose it: a demand read and a read-ahead
//! are the same [`InflightRead`] — a list of physical runs, one transfer
//! each — issued by one routine and completed by one routine, and a
//! contiguous transfer at an address the caller already knew is the list
//! with one run. A demand read waits for its completion and keeps the page
//! it wanted; a read-ahead spawns it.
//!
//! Every open file carries a [`FileStream`] whose [`StreamId`] rides each
//! request end to end — demand-fault cache lookups, cluster issues,
//! throttle stalls and `diskmodel` queue entries are all labelled with the
//! originating stream, so the registry can answer "which stream got what
//! share of the disk" (`disk.sectors_*{stream=N}`,
//! `core.throttle_stalls{stream=N}`, `iopath.cluster_*_blocks{stream=N}`).
//! Whatever is per stream — the prefetch engine, those histograms — lives
//! on the `FileStream` and goes when the file is closed; the executor
//! holds nothing that is set after [`IoPath::new`].

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashSet;
use std::ops::Range;
use std::rc::Rc;

use clufs::{
    DelayedWrite, PrefetchPlan, PrefetchRun, Prefetcher, WriteThrottle, IO_RETRY_BACKOFF_MS,
    IO_RETRY_MAX, LEN_EDGES,
};
use diskmodel::{BlockDeviceExt, FreeList, IoHandle, IoStatus, SharedDevice};
use pagecache::{PageCache, PageId, PageKey};
use simkit::stats::{Counter, Histogram};
use simkit::{Cpu, Notify, Sim, SimDuration, SpanId};

use crate::{FsError, FsResult, StreamId, VnodeId};

/// Why a read is being issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReadReason {
    /// A faulting access needs the first block now; the caller waits, and
    /// the read's span nests under the fault's.
    Demand { parent: SpanId },
    /// Speculative read-ahead; the executor fills pages asynchronously.
    /// The fill completes *after* the faulting operation returns, so its
    /// span is a root — a span must lie within its parent's interval for
    /// the trace to mean anything.
    Readahead,
}

/// An issued read: one in-flight transfer per physical run, the busy pages
/// each fills, and enough of the request (device ranges, stream, owning
/// vnode) to resubmit a transfer on a transient device error and to tear
/// its pages down on a permanent one. A contiguous read at an address the
/// caller's probe learned is the one-part case.
pub struct InflightRead {
    parts: Vec<ReadPart>,
    stream: u32,
    vnode: VnodeId,
    span: SpanId,
    /// The run list came from [`BlockMap::runs`], not from the caller's
    /// probe. Only the trace tells the two apart.
    mapped: bool,
}

/// One transfer of an [`InflightRead`]: the handle, the device range it
/// covers (for retry), and the busy pages it fills, in block order.
struct ReadPart {
    handle: IoHandle,
    lba: u64,
    nsect: u32,
    pages: Vec<(u64, PageId)>,
}

impl InflightRead {
    /// Total blocks being read.
    pub fn blocks(&self) -> u32 {
        self.parts.iter().map(|p| p.pages.len() as u32).sum()
    }
}

/// Translation from logical file blocks to physical placement — the one
/// thing the executor must ask the file system. UFS answers with `bmap`
/// (indirect-block walks, bmap cache); extentfs with a table lookup.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait BlockMap {
    /// `(pbn, contiguous_blocks)` at `lbn`, with the run clipped to at
    /// most `cap` blocks; `None` means a hole.
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>>;

    /// The physical run-list covering up to `blocks` logical blocks from
    /// `lbn`, stopping at the first hole. The default loops [`extent`]
    /// (one translation per run); tree-indexed file systems override it
    /// with a single index walk.
    ///
    /// [`extent`]: BlockMap::extent
    async fn runs(&self, lbn: u64, blocks: u32) -> FsResult<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        let mut cur = lbn;
        let mut left = blocks;
        while left > 0 {
            match self.extent(cur, left).await? {
                Some((pbn, n)) => {
                    out.push((pbn, n));
                    cur += n as u64;
                    left -= n;
                }
                None => break,
            }
        }
        Ok(out)
    }

    /// The largest blocks-per-transfer this mount allows (UFS: the tuned
    /// I/O cluster size; extentfs: the extent unit).
    fn max_cluster(&self) -> u32;
}

/// Per-open-file I/O state: the stream label, the paper's per-inode write
/// throttle and delayed-write accumulator, the stream's prefetch engine,
/// the sequential-read detector, and the in-flight write count used to
/// quiesce before truncate/remove/fsync completion.
pub struct FileStream {
    vnode: VnodeId,
    stream: StreamId,
    throttle: WriteThrottle,
    /// The stream's read-ahead state: `nextr`/`nextrio`, or the adaptive
    /// engine's.
    prefetcher: RefCell<Prefetcher>,
    /// `iopath.cluster_{read,write}_blocks{stream=N}`, registered together
    /// by the stream's first transfer in either direction.
    cluster_blocks: OnceCell<(Histogram, Histogram)>,
    /// Delayed-write accumulator (`delayoff`/`delaylen`), in page units.
    delayed: RefCell<DelayedWrite>,
    /// End offset of the last read, for sequential-mode detection in rdwr.
    pub(crate) last_read_end: Cell<u64>,
    pending_io: Cell<u32>,
    quiesce: Notify,
    /// Sticky deferred-write failure: asynchronous writeback has no caller
    /// to fail, so a terminal device error lands here and the next fsync
    /// reports it — the UNIX contract for delayed writes.
    io_error: Cell<bool>,
}

impl FileStream {
    /// Allocates a fresh stream id from the sim's registry and builds the
    /// file's throttle against `write_limit` (None = unlimited). Mounts go
    /// through [`FrontEnd::open_stream`], which supplies the engine their
    /// policy selects.
    ///
    /// [`FrontEnd::open_stream`]: crate::frontend::FrontEnd::open_stream
    pub(crate) fn new(
        sim: &Sim,
        vnode: VnodeId,
        write_limit: Option<u32>,
        prefetcher: Prefetcher,
    ) -> Rc<FileStream> {
        let stream = StreamId::new(sim.stats().alloc_stream());
        Rc::new(FileStream {
            vnode,
            stream,
            throttle: WriteThrottle::for_stream(sim, write_limit, stream.as_u32()),
            prefetcher: RefCell::new(prefetcher),
            cluster_blocks: OnceCell::new(),
            delayed: RefCell::new(DelayedWrite::new()),
            last_read_end: Cell::new(0),
            pending_io: Cell::new(0),
            quiesce: Notify::new(),
            io_error: Cell::new(false),
        })
    }

    /// Page-cache identity of the file this stream belongs to.
    pub fn vnode(&self) -> VnodeId {
        self.vnode
    }

    /// The stream label carried on every request this file issues.
    pub fn id(&self) -> StreamId {
        self.stream
    }

    /// The file's write throttle (the paper's counting semaphore).
    pub fn throttle(&self) -> &WriteThrottle {
        &self.throttle
    }

    /// The file's delayed-write accumulator. File systems flush or reset
    /// it when the file's shape changes (truncate, remove, the cleaner);
    /// only the front end offers pages to it.
    pub fn delayed(&self) -> &RefCell<DelayedWrite> {
        &self.delayed
    }

    /// Writes currently in flight for this file.
    pub fn pending_io(&self) -> u32 {
        self.pending_io.get()
    }

    /// Marks one write started (paired with [`FileStream::io_finished`]).
    pub fn io_started(&self) {
        self.pending_io.set(self.pending_io.get() + 1);
    }

    /// Marks one write finished, waking quiescers when the count drains.
    pub fn io_finished(&self) {
        let p = self.pending_io.get();
        self.pending_io.set(p - 1);
        if p == 1 {
            self.quiesce.notify_all();
        }
    }

    /// Waits until no writes are in flight.
    pub async fn quiesce(&self) {
        while self.pending_io.get() > 0 {
            self.quiesce.wait().await;
        }
    }

    /// Records a terminal asynchronous-write failure (see
    /// [`FileStream::take_io_error`]).
    pub fn set_io_error(&self) {
        self.io_error.set(true);
    }

    /// Consumes the sticky write-failure flag. fsync calls this after
    /// quiescing: `true` means some deferred write was lost since the last
    /// check and the sync must fail with `FsError::Io`.
    pub fn take_io_error(&self) -> bool {
        self.io_error.replace(false)
    }
}

/// CPU charges the executor pays on behalf of the file system.
#[derive(Clone, Copy, Debug)]
pub struct IoCosts {
    /// Per-transfer setup (driver + controller command build).
    pub io_setup: SimDuration,
    /// Per-transfer completion interrupt.
    pub io_intr: SimDuration,
}

/// Prefetch instrumentation (`io.prefetch_*`): issued blocks, blocks a
/// demand access later claimed (accuracy = hits / issued), bytes read
/// speculatively but recycled unconsumed (plus sieve gap filler), and
/// the distance each issuing plan ran at.
#[derive(Clone)]
struct PrefetchMetrics {
    issued: Counter,
    hits: Counter,
    wasted: Counter,
    distance: Histogram,
}

struct IoPathInner {
    sim: Sim,
    cpu: Cpu,
    disk: SharedDevice,
    cache: PageCache,
    costs: IoCosts,
    block_size: usize,
    sectors_per_block: u32,
    /// Pages created by read-ahead and not yet claimed by a demand access
    /// (feeds the "readahead used" accounting in the caller). Shared with
    /// the page cache's recycle hook, which counts unclaimed prefetched
    /// pages as wasted when their identity is destroyed.
    ra_pending: Rc<RefCell<HashSet<PageKey>>>,
    pf: PrefetchMetrics,
    /// Transfer buffers between uses: [`IoPath::issue_read`] and
    /// [`IoPath::write_clusters`] lend one per transfer, and the completion
    /// that hands it back returns it here. The write limit and the
    /// prefetch window bound how many are ever out.
    bufs: FreeList,
}

/// The per-mount I/O executor. Clones share the engine.
#[derive(Clone)]
pub struct IoPath {
    inner: Rc<IoPathInner>,
}

/// Exponential backoff before retry `attempt` (0-based).
fn backoff(attempt: u32) -> SimDuration {
    SimDuration::from_millis((IO_RETRY_BACKOFF_MS as u64) << attempt.min(16))
}

impl IoPath {
    /// Builds an executor over the mount's devices. The block size is the
    /// cache's page size and must be a whole number of disk sectors.
    pub fn new(
        sim: &Sim,
        cpu: &Cpu,
        disk: &SharedDevice,
        cache: &PageCache,
        costs: IoCosts,
    ) -> IoPath {
        let block_size = cache.page_size();
        let sector = disk.sector_size() as usize;
        assert_eq!(block_size % sector, 0, "page size must be whole sectors");
        let s = sim.stats();
        let pf = PrefetchMetrics {
            issued: s.counter("io.prefetch_issued"),
            hits: s.counter("io.prefetch_hits"),
            wasted: s.counter("io.prefetch_wasted_bytes"),
            distance: s.histogram("io.prefetch_distance", &LEN_EDGES),
        };
        let ra_pending: Rc<RefCell<HashSet<PageKey>>> = Rc::new(RefCell::new(HashSet::new()));
        // Wasted-prefetch accounting: a page read ahead but never claimed
        // by a demand access still holds its claim when the cache recycles
        // its identity — those bytes moved for nothing.
        {
            let pending = Rc::clone(&ra_pending);
            let wasted = pf.wasted.clone();
            let bytes = block_size as u64;
            cache.add_recycle_hook(move |key| {
                if pending.borrow_mut().remove(&key) {
                    wasted.add(bytes);
                }
            });
        }
        IoPath {
            inner: Rc::new(IoPathInner {
                sim: sim.clone(),
                cpu: cpu.clone(),
                disk: disk.clone(),
                cache: cache.clone(),
                costs,
                block_size,
                sectors_per_block: (block_size / sector) as u32,
                ra_pending,
                pf,
                bufs: FreeList::new(),
            }),
        }
    }

    /// Dry-runs the stream's prefetch engine for an access to `lbn`
    /// without committing the state transition. Callers whose
    /// `cluster_len` probes resolve lazily (UFS `bmap` awaits) loop on
    /// this until every probe is known, then call
    /// [`IoPath::prefetch_commit`] with identical inputs.
    pub fn prefetch_dry(
        &self,
        fstream: &FileStream,
        lbn: u64,
        cached: bool,
        cluster_len: impl FnMut(u64) -> u32,
        size_hint_blocks: u32,
    ) -> PrefetchPlan {
        let mut engine = fstream.prefetcher.borrow().clone();
        engine.on_access(
            lbn,
            cached,
            cluster_len,
            size_hint_blocks,
            self.inner.cache.free_count() as u64,
            self.inner.cache.lotsfree() as u64,
        )
    }

    /// Runs the stream's prefetch engine for an access to `lbn`,
    /// committing the state transition, and returns the plan. Pressure
    /// (`cache.free_pages` vs the pageout reserve) is read here, so a
    /// dry run and a commit in the same synchronous stretch agree.
    pub fn prefetch_commit(
        &self,
        fstream: &FileStream,
        lbn: u64,
        cached: bool,
        cluster_len: impl FnMut(u64) -> u32,
        size_hint_blocks: u32,
    ) -> PrefetchPlan {
        let free = self.inner.cache.free_count() as u64;
        let reserve = self.inner.cache.lotsfree() as u64;
        let plan = fstream.prefetcher.borrow_mut().on_access(
            lbn,
            cached,
            cluster_len,
            size_hint_blocks,
            free,
            reserve,
        );
        if !plan.runs.is_empty() {
            self.inner.pf.distance.observe(plan.distance.max(1) as u64);
        }
        plan
    }

    /// Awaits a read, absorbing transient device errors: on `MediaError`
    /// the transfer is resubmitted up to [`IO_RETRY_MAX`] times with
    /// exponential virtual-time backoff (under an `iopath.retry` span); `DeviceGone`
    /// fails fast — the device will not answer, only redundancy below or
    /// the caller above can help. Terminal failures return `FsError::Io`.
    /// The transfer's buffer comes back filled on success (the caller
    /// returns it to the free list), is resubmitted on a retry, and goes
    /// back to the free list here on a terminal failure.
    async fn await_read(
        &self,
        mut handle: IoHandle,
        lba: u64,
        nsect: u32,
        stream: u32,
        parent: SpanId,
    ) -> FsResult<Vec<u8>> {
        let inner = &*self.inner;
        let mut attempt = 0u32;
        loop {
            let res = handle.wait().await;
            match res.status {
                IoStatus::Ok => return Ok(res.data.expect("read returns data")),
                IoStatus::MediaError if attempt < IO_RETRY_MAX => {
                    let s = inner.sim.stats();
                    s.counter("io.errors{kind=media}").inc();
                    s.counter("io.retries").inc();
                    let rs = inner.sim.tracer().start("iopath.retry", stream, parent);
                    inner.sim.tracer().arg(rs, "attempt", attempt as u64 + 1);
                    inner.sim.sleep(backoff(attempt)).await;
                    handle = inner
                        .disk
                        .submit_read_for(lba, nsect, res.data, stream, parent);
                    inner.sim.tracer().end(rs);
                    attempt += 1;
                }
                status => {
                    self.count_terminal_error(status);
                    self.inner.bufs.release(res.data);
                    return Err(FsError::Io);
                }
            }
        }
    }

    /// Counts a transfer that failed for good under `io.errors{kind=…}`.
    fn count_terminal_error(&self, status: IoStatus) {
        let name = if status == IoStatus::DeviceGone {
            "io.errors{kind=gone}"
        } else {
            "io.errors{kind=media}"
        };
        self.inner.sim.stats().counter(name).inc();
    }

    /// Tears down the busy pages of a failed fill: each page's identity is
    /// destroyed (waiters re-fault) and any read-ahead claim is dropped.
    fn drop_failed_pages(&self, vnode: VnodeId, pages: &[(u64, PageId)]) {
        let inner = &*self.inner;
        for &(lbn, id) in pages {
            let key = PageKey {
                vnode,
                offset: lbn * inner.block_size as u64,
            };
            inner.ra_pending.borrow_mut().remove(&key);
            inner.cache.invalidate_page(id);
        }
    }

    /// The executor's transfer-buffer free list.
    #[cfg(test)]
    pub(crate) fn bufs(&self) -> &FreeList {
        &self.inner.bufs
    }

    /// The transfer unit (one page = one file system block).
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    /// Page-cache name of block `lbn` of the stream's file.
    pub(crate) fn key(&self, fstream: &FileStream, lbn: u64) -> PageKey {
        PageKey {
            vnode: fstream.vnode,
            offset: lbn * self.inner.block_size as u64,
        }
    }

    /// The stream's cluster-length histograms `(read, write)`, entering
    /// the registry on first use.
    fn cluster_blocks<'a>(&self, fstream: &'a FileStream) -> &'a (Histogram, Histogram) {
        fstream.cluster_blocks.get_or_init(|| {
            let (s, id) = (self.inner.sim.stats(), fstream.stream.as_u32());
            (
                s.stream_histogram("iopath.cluster_read_blocks", id, &LEN_EDGES),
                s.stream_histogram("iopath.cluster_write_blocks", id, &LEN_EDGES),
            )
        })
    }

    /// True if `key` was produced by read-ahead and not yet claimed;
    /// claims it and counts an `io.prefetch_hits` block. Call on a
    /// demand hit to account read-ahead usefulness.
    pub fn take_ra_pending(&self, key: PageKey) -> bool {
        let hit = self.inner.ra_pending.borrow_mut().remove(&key);
        if hit {
            self.inner.pf.hits.inc();
        }
        hit
    }

    /// Issues the demand read for a fault: `len` blocks from `lbn`, at
    /// `pbn` when the caller's probe learned the address, else wherever
    /// `map` says. The read's span nests under `parent`. `None` means
    /// nothing was left to read — the page arrived while the fault was
    /// being planned — and the caller re-resolves it. Wait the read out
    /// with [`IoPath::finish`].
    pub async fn read_demand(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        lbn: u64,
        len: u32,
        pbn: Option<u32>,
        parent: SpanId,
    ) -> FsResult<Option<InflightRead>> {
        let reason = ReadReason::Demand { parent };
        self.issue_read(fstream, map, lbn, len, pbn, reason).await
    }

    /// Waits out a demand read and returns the page for `want_lbn`. The
    /// call fails with `FsError::Io` if the transfer carrying that page
    /// failed for good.
    pub async fn finish(&self, io: InflightRead, want_lbn: u64) -> FsResult<PageId> {
        let want = self.clone().complete_read(io, Some(want_lbn)).await?;
        Ok(want.expect("requested page is in the read"))
    }

    /// Issues one speculative run — at `pbn` when known, else through
    /// `map` — and returns the blocks now being filled asynchronously by
    /// the executor's completion task (0: the data was already resident).
    pub async fn readahead(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        run: &PrefetchRun,
        pbn: Option<u32>,
    ) -> FsResult<u32> {
        let reason = ReadReason::Readahead;
        let Some(io) = self
            .issue_read(fstream, map, run.lbn, run.blocks, pbn, reason)
            .await?
        else {
            return Ok(0);
        };
        let blocks = self.claim_readahead(fstream, run, &io);
        // The read was speculative, so there is nobody to tell how it
        // ended. The completion future is spawned as it is: a wrapper
        // would hold it twice.
        self.inner.sim.spawn(self.clone().complete_read(io, None));
        Ok(blocks)
    }

    /// Books an issued read-ahead and returns its size in blocks: every
    /// wanted page is claimed for the hit/wasted accounting; sieve gap
    /// filler (see [`PrefetchRun::sieve`]) is known wasted the moment it
    /// is issued.
    fn claim_readahead(&self, fstream: &FileStream, run: &PrefetchRun, io: &InflightRead) -> u32 {
        let inner = &*self.inner;
        let (mut claimed, mut gap_blocks) = (0u64, 0u64);
        let mut ra = inner.ra_pending.borrow_mut();
        for (lbn, _) in io.parts.iter().flat_map(|p| &p.pages) {
            let wanted = match run.sieve {
                Some((keep, period)) if period > 0 => {
                    ((lbn - run.lbn) % period as u64) < keep as u64
                }
                _ => true,
            };
            if wanted {
                ra.insert(self.key(fstream, *lbn));
                claimed += 1;
            } else {
                gap_blocks += 1;
            }
        }
        inner.pf.issued.add(claimed + gap_blocks);
        if gap_blocks > 0 {
            inner.pf.wasted.add(gap_blocks * inner.block_size as u64);
        }
        (claimed + gap_blocks) as u32
    }

    /// Moves up to `len` blocks from `lbn` in one read. The physical run
    /// list is `[(pbn, len)]` when the caller knew the address — a
    /// contiguous transfer is list I/O with one region — and
    /// [`BlockMap::runs`] otherwise; nothing after that asks which. Busy
    /// pages are created for the absent prefix (clipped at the first
    /// already-cached page), one `io_setup` is charged for the whole read —
    /// the amortization a fragmented file gets from list-style I/O — and
    /// one stream-tagged transfer is submitted per physical run. `None`:
    /// nothing was left to read.
    async fn issue_read(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        lbn: u64,
        len: u32,
        pbn: Option<u32>,
        reason: ReadReason,
    ) -> FsResult<Option<InflightRead>> {
        let inner = &*self.inner;
        let tracer = inner.sim.tracer();
        let len = len.max(1);
        if reason == ReadReason::Readahead && inner.cache.lookup(self.key(fstream, lbn)).is_some() {
            // The data already arrived (or was never evicted): nothing to do.
            return Ok(None);
        }
        let runs = match pbn {
            Some(pbn) => vec![(pbn, len)],
            None => map.runs(lbn, len).await?,
        };
        let covered: u32 = runs.iter().map(|&(_, n)| n).sum();
        if covered == 0 {
            return match reason {
                // The caller saw the block mapped; an empty run-list here
                // means the map lost it underneath us.
                ReadReason::Demand { .. } => Err(FsError::Corrupt),
                ReadReason::Readahead => Ok(None),
            };
        }
        let stream = fstream.id().as_u32();
        // A demand read's span is named for where its addresses came from.
        let (name, parent) = match (reason, pbn) {
            (ReadReason::Readahead, _) => ("iopath.readahead", SpanId::NONE),
            (ReadReason::Demand { parent }, Some(_)) => ("iopath.read_cluster", parent),
            (ReadReason::Demand { parent }, None) => ("iopath.read_runs", parent),
        };
        let span = tracer.start(name, stream, parent);
        tracer.arg(span, "lbn", lbn);
        let mut pages = Vec::new();
        for i in 0..covered.min(len) {
            let key = self.key(fstream, lbn + i as u64);
            if inner.cache.lookup(key).is_some() {
                break; // Already resident: clip the read here.
            }
            let id = inner.cache.create_traced(key, stream, span).await;
            // The page identity is fresh; drop any stale read-ahead claim
            // a recycled predecessor left behind.
            inner.ra_pending.borrow_mut().remove(&key);
            pages.push((lbn + i as u64, id));
        }
        let n = pages.len() as u32;
        if n == 0 {
            // Another fault brought the first page in while this one was
            // being planned (creating pages and resolving the run list may
            // both wait).
            tracer.end(span);
            return Ok(None);
        }
        tracer.arg(span, "blocks", n as u64);
        inner.cpu.charge("io_setup", inner.costs.io_setup).await;
        self.cluster_blocks(fstream).0.observe(n as u64);
        let mut parts = Vec::with_capacity(runs.len());
        for &(pbn, run_len) in &runs {
            if pages.is_empty() {
                break;
            }
            let rest = pages.split_off((run_len as usize).min(pages.len()));
            let pages = std::mem::replace(&mut pages, rest);
            let lba = pbn as u64 * inner.sectors_per_block as u64;
            let nsect = pages.len() as u32 * inner.sectors_per_block;
            let buf = inner.bufs.take(pages.len() * inner.block_size);
            let handle = inner
                .disk
                .submit_read_for(lba, nsect, Some(buf), stream, span);
            parts.push(ReadPart {
                handle,
                lba,
                nsect,
                pages,
            });
        }
        if pbn.is_none() {
            tracer.arg(span, "runs", parts.len() as u64);
        }
        Ok(Some(InflightRead {
            parts,
            stream,
            vnode: fstream.vnode,
            span,
            mapped: pbn.is_none(),
        }))
    }

    /// Waits out a read part by part, charging one interrupt per transfer,
    /// and fills and releases every page. A demand read names the page it
    /// was issued for and gets it back; read-ahead (`want_lbn` = `None`)
    /// runs this on a task of its own.
    ///
    /// Transient device errors are retried per part (see
    /// [`IoPath::await_read`]). A part that fails terminally has its pages
    /// invalidated — a later demand access re-faults and takes the error
    /// itself if the fault persists — and the call fails with
    /// `FsError::Io` if that part carried `want_lbn`. Other parts still
    /// complete: their handles are in flight and their busy pages must be
    /// resolved either way.
    ///
    /// Takes the executor by value so the future can be spawned as it is.
    async fn complete_read(
        self,
        io: InflightRead,
        want_lbn: Option<u64>,
    ) -> FsResult<Option<PageId>> {
        let inner = &*self.inner;
        let tracer = inner.sim.tracer();
        let bs = inner.block_size;
        let mut want = None;
        let mut want_failed = false;
        for part in io.parts {
            // One child span per physical transfer of a mapped read-ahead:
            // the trace shows how the speculative window split across the
            // disk.
            let ps = if io.mapped && want_lbn.is_none() {
                let ps = tracer.start("iopath.readahead.part", io.stream, io.span);
                tracer.arg(ps, "lba", part.lba);
                tracer.arg(ps, "blocks", part.pages.len() as u64);
                ps
            } else {
                SpanId::NONE
            };
            let res = self
                .await_read(part.handle, part.lba, part.nsect, io.stream, io.span)
                .await;
            inner.cpu.charge("io_intr", inner.costs.io_intr).await;
            match res {
                Ok(data) => {
                    for (i, (lbn, id)) in part.pages.iter().enumerate() {
                        inner.cache.write_at(*id, 0, &data[i * bs..(i + 1) * bs]);
                        if Some(*lbn) == want_lbn {
                            // Stays busy until the whole read lands: a later
                            // part's await must not let pageout recycle the
                            // page this read was issued for.
                            want = Some(*id);
                        } else {
                            inner.cache.unbusy(*id);
                        }
                    }
                    inner.bufs.give(data);
                }
                Err(_) => {
                    want_failed |= part.pages.iter().any(|&(l, _)| Some(l) == want_lbn);
                    self.drop_failed_pages(io.vnode, &part.pages);
                }
            }
            tracer.end(ps);
        }
        tracer.end(io.span);
        if want_failed {
            return Err(FsError::Io);
        }
        if let Some(id) = want {
            inner.cache.unbusy(id);
        }
        Ok(want)
    }

    /// The paper's Figure 8 while loop: sweep `[range)` for dirty resident
    /// pages, gather each block-map-contiguous dirty run under page locks,
    /// reserve throttle space, and push one stream-tagged write per run.
    /// Completions (interrupt charge, page release, throttle credit) run
    /// asynchronously; [`FileStream::quiesce`] waits them out. With
    /// `free_behind`, pages are freed once written (pageout-initiated
    /// cleaning). Returns the blocks of each cluster issued.
    pub async fn write_clusters(
        &self,
        fstream: &Rc<FileStream>,
        map: &impl BlockMap,
        range: Range<u64>,
        free_behind: bool,
    ) -> FsResult<Vec<u32>> {
        let inner = &*self.inner;
        let bs = inner.block_size;
        let mut cluster_blocks = Vec::new();
        let mut cur = range.start;
        while cur < range.end {
            // Find the next dirty resident page in the range and lock it.
            // Re-check dirtiness after the lock: a concurrent flush (fsync
            // racing putpage, or the cleaner) may have written it while we
            // waited.
            let key = self.key(fstream, cur);
            let id = match inner.cache.lookup(key) {
                Some(id) if inner.cache.is_dirty(id) => id,
                _ => {
                    cur += 1;
                    continue;
                }
            };
            if !inner.cache.lock_busy(id).await {
                cur += 1;
                continue; // Page recycled while we waited.
            }
            if !inner.cache.is_dirty(id) {
                inner.cache.unbusy(id);
                cur += 1;
                continue;
            }
            // How far can one transfer go? The block map knows.
            let cap = ((range.end - cur) as u32).min(map.max_cluster());
            let (pbn, contig) = match map.extent(cur, cap).await {
                Ok(Some(v)) => v,
                // A dirty page over a hole cannot happen (writes allocate);
                // a translation can fail. Either way the page is released
                // first, or everyone who wants it next waits forever.
                failed => {
                    inner.cache.unbusy(id);
                    return Err(failed.err().unwrap_or(FsError::Corrupt));
                }
            };
            // Gather the dirty run (clipped at the first clean/absent page),
            // locking as we go.
            let mut run: Vec<PageId> = vec![id];
            for i in 1..contig {
                let k = self.key(fstream, cur + i as u64);
                match inner.cache.lookup(k) {
                    Some(pid) if inner.cache.is_dirty(pid) => {
                        if !inner.cache.lock_busy(pid).await {
                            break; // Recycled while waiting.
                        }
                        if !inner.cache.is_dirty(pid) {
                            inner.cache.unbusy(pid);
                            break;
                        }
                        run.push(pid);
                    }
                    _ => break,
                }
            }
            let n = run.len() as u32;
            // Snapshot contents for the transfer.
            let mut payload = inner.bufs.take(n as usize * bs);
            for (pid, dst) in run.iter().zip(payload.chunks_exact_mut(bs)) {
                inner.cache.with_page(*pid, |d| dst.copy_from_slice(d));
            }
            // A root span per cluster: the push completes after the caller
            // returns (see `ReadReason::Readahead`), so it cannot nest anywhere.
            let span = inner.sim.tracer().start(
                "iopath.write_cluster",
                fstream.id().as_u32(),
                SpanId::NONE,
            );
            inner.sim.tracer().arg(span, "lbn", cur);
            inner.sim.tracer().arg(span, "blocks", n as u64);
            // Fairness: reserve write-queue space before submitting.
            let token = fstream
                .throttle
                .begin_write_traced(n as u64 * bs as u64, span)
                .await;
            inner.cpu.charge("io_setup", inner.costs.io_setup).await;
            self.cluster_blocks(fstream).1.observe(n as u64);
            fstream.io_started();
            let lba = pbn as u64 * inner.sectors_per_block as u64;
            let nsect = n * inner.sectors_per_block;
            let stream = fstream.id().as_u32();
            let mut handle = inner
                .disk
                .submit_write_for(lba, nsect, payload, stream, span);
            let this = self.clone();
            let fstream2 = Rc::clone(fstream);
            inner.sim.spawn(async move {
                let inner = &*this.inner;
                let mut attempt = 0u32;
                let (status, payload) = loop {
                    let res = handle.wait().await;
                    inner.cpu.charge("io_intr", inner.costs.io_intr).await;
                    match res.status {
                        IoStatus::MediaError if attempt < IO_RETRY_MAX => {
                            let s = inner.sim.stats();
                            s.counter("io.errors{kind=media}").inc();
                            s.counter("io.retries").inc();
                            let rs = inner.sim.tracer().start("iopath.retry", stream, span);
                            inner.sim.tracer().arg(rs, "attempt", attempt as u64 + 1);
                            inner.sim.sleep(backoff(attempt)).await;
                            // The failed completion handed the snapshot
                            // back, and the run's pages are still locked
                            // busy by this writeback: it is still current.
                            let payload = res.data.expect("a completion returns its buffer");
                            handle = inner
                                .disk
                                .submit_write_for(lba, nsect, payload, stream, span);
                            inner.sim.tracer().end(rs);
                            attempt += 1;
                        }
                        status => break (status, res.data),
                    }
                };
                inner.bufs.release(payload);
                if !status.is_ok() {
                    this.count_terminal_error(status);
                    // The data is lost; there is no caller to fail. Record
                    // the sticky error for the next fsync and release the
                    // pages anyway — leaving them dirty would wedge the
                    // throttle and every quiescer forever.
                    fstream2.set_io_error();
                }
                for pid in &run {
                    inner.cache.clear_dirty(*pid);
                    inner.cache.unbusy(*pid);
                    if free_behind {
                        inner.cache.free_page(*pid);
                    }
                }
                fstream2.throttle.complete(token);
                fstream2.io_finished();
                inner.sim.tracer().end(span);
            });
            cluster_blocks.push(n);
            cur += n as u64;
        }
        Ok(cluster_blocks)
    }

    /// Free-behind mechanism: release the page the policy chose unless it
    /// became busy or dirty since the policy looked. Returns whether it
    /// was released.
    pub fn free_behind(&self, page: PageId) -> bool {
        let cache = &self.inner.cache;
        let free = !cache.is_busy(page) && !cache.is_dirty(page);
        if free {
            cache.free_page(page);
        }
        free
    }

    /// One synchronous block read that bypasses the page cache and the
    /// backoff policy (the read half of a partial-block write; UFS
    /// metadata): setup charge, transfer, interrupt charge.
    pub async fn read_block(&self, pbn: u64) -> Vec<u8> {
        let inner = &*self.inner;
        inner.cpu.charge("io_setup", inner.costs.io_setup).await;
        let spb = inner.sectors_per_block;
        let data = inner.disk.read(pbn * spb as u64, spb).await;
        inner.cpu.charge("io_intr", inner.costs.io_intr).await;
        data
    }
}
