//! The vnode operations: `rdwr`, `getpage`, `putpage` — with both the old
//! (SunOS 4.1, block-at-a-time) and new (4.1.1, clustered) code paths,
//! selected by the mount's tuning, exactly like the paper's test kernel.

use std::rc::Rc;

use clufs::{PrefetchPolicy, WriteAction};
use pagecache::{PageId, PageKey};
use simkit::SpanId;
use vfs::iopath::{
    BlockMap, Executed, FreeBehind, IoIntent, ReadCluster, ReadReason, ReadRuns, WriteCluster,
    WriteReason,
};
use vfs::{AccessMode, FileSystem, FsError, FsResult, StreamId, Vnode, VnodeId};

use crate::fs::{Incore, Ufs};
use crate::layout::{Dinode, FileKind, BLOCK_SIZE, INLINE_MAX};

/// [`BlockMap`] view of one UFS file: extents come from `bmap` (with its
/// cache and hole handling), the transfer cap from the mount's tuning.
struct UfsMap<'a> {
    fs: &'a Ufs,
    ip: &'a Rc<Incore>,
}

impl BlockMap for UfsMap<'_> {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        self.fs.bmap_extent(self.ip, lbn, cap).await
    }

    fn max_cluster(&self) -> u32 {
        self.fs.inner.params.tuning.io_cluster_blocks()
    }
}

/// An open UFS file.
pub struct UfsFile {
    pub(crate) fs: Ufs,
    pub(crate) ip: Rc<Incore>,
}

impl UfsFile {
    /// The in-core inode number.
    pub fn ino(&self) -> u32 {
        self.ip.ino
    }

    /// Logical→physical extents of this file: `(lbn, pbn, len)` runs of
    /// physically contiguous blocks (the allocator-contiguity experiment).
    pub async fn extents(&self) -> FsResult<Vec<(u64, u64, u32)>> {
        let blocks = self.fs.blocks_of(&self.ip).await?;
        let mut out: Vec<(u64, u64, u32)> = Vec::new();
        for (lbn, pbn) in blocks {
            match out.last_mut() {
                Some((llbn, lpbn, len))
                    if *llbn + *len as u64 == lbn && *lpbn + *len as u64 == pbn as u64 =>
                {
                    *len += 1;
                }
                _ => out.push((lbn, pbn as u64, 1)),
            }
        }
        Ok(out)
    }
}

impl Ufs {
    fn eof_blocks(ip: &Incore) -> u64 {
        ip.din.borrow().size.div_ceil(BLOCK_SIZE as u64)
    }

    fn page_key(&self, ip: &Incore, lbn: u64) -> PageKey {
        PageKey {
            vnode: self.vid(ip.ino),
            offset: lbn * BLOCK_SIZE as u64,
        }
    }

    /// Effective cluster length at `lbn`: bmap contiguity, capped by the
    /// tuning's I/O cluster size and the end of file. Returns
    /// `(pbn, len)`; `None` is a hole (or past EOF).
    async fn effective_cluster(
        &self,
        ip: &Incore,
        lbn: u64,
        eof_blocks: u64,
    ) -> FsResult<Option<(u32, u32)>> {
        if lbn >= eof_blocks {
            return Ok(None);
        }
        let cap = self
            .inner
            .params
            .tuning
            .io_cluster_blocks()
            .min((eof_blocks - lbn) as u32);
        self.bmap_extent(ip, lbn, cap).await
    }

    /// `ufs_getpage`: returns the (filled, non-busy) page for logical block
    /// `lbn`, driving the read-ahead machinery (Figures 2, 3 and 6).
    ///
    /// `hint_blocks` is the Further Work request-size hint from `rdwr`
    /// (0 = none).
    pub(crate) async fn getpage(
        &self,
        ip: &Rc<Incore>,
        lbn: u64,
        hint_blocks: u32,
    ) -> FsResult<PageId> {
        self.getpage_traced(ip, lbn, hint_blocks, SpanId::NONE)
            .await
    }

    /// [`Ufs::getpage`] with its `fs.getpage` trace span nested under
    /// `parent`. The span brackets the whole fault, including retries.
    pub(crate) async fn getpage_traced(
        &self,
        ip: &Rc<Incore>,
        lbn: u64,
        hint_blocks: u32,
        parent: SpanId,
    ) -> FsResult<PageId> {
        let tracer = self.inner.sim.tracer();
        let span = tracer.start("fs.getpage", ip.io.id().as_u32(), parent);
        tracer.arg(span, "lbn", lbn);
        let r = self.getpage_inner(ip, lbn, hint_blocks, span).await;
        self.inner.sim.tracer().end(span);
        r
    }

    async fn getpage_inner(
        &self,
        ip: &Rc<Incore>,
        lbn: u64,
        hint_blocks: u32,
        span: SpanId,
    ) -> FsResult<PageId> {
        let costs = self.inner.params.costs;
        self.inner.stats.borrow_mut().getpage_calls += 1;
        self.inner.metrics.getpage_calls.inc();
        let eof_blocks = Self::eof_blocks(ip);
        assert!(lbn < eof_blocks, "getpage beyond EOF");
        let key = self.page_key(ip, lbn);
        let cached = self
            .inner
            .cache
            .lookup_traced(key, ip.io.id().as_u32(), span);
        if cached.is_some() {
            self.inner.stats.borrow_mut().getpage_hits += 1;
            self.inner.metrics.getpage_hits.inc();
            if self.inner.iopath.take_ra_pending(key) {
                self.inner.metrics.readahead_used.inc();
            }
            self.charge("fault", costs.page_hit).await;
        } else {
            self.charge("fault", costs.fault).await;
        }

        // Figure 2: bmap is called even when the page is in memory, because
        // getpage must know whether the page has backing store (holes). The
        // UFS_HOLE Further Work item skips it for files known hole-free.
        let mut known: Vec<(u64, Option<(u32, u32)>)> = Vec::new();
        if cached.is_some() {
            if self.inner.params.tuning.ufs_hole_opt && !ip.may_have_holes.get() {
                self.inner.stats.borrow_mut().bmap_skipped_hole_opt += 1;
            } else {
                let v = self.effective_cluster(ip, lbn, eof_blocks).await?;
                known.push((lbn, v));
            }
        }

        // Plan I/O through the prefetch engine. Cluster lengths are
        // resolved lazily: the engine is dry-run on a clone until every
        // probe it makes is known (the paper's predictor makes at most
        // two — the faulting block's cluster and the read-ahead cluster;
        // the adaptive one probes each predicted start), then committed.
        // Quiet cached faults therefore cost no extra bmap work.
        let plan = loop {
            let missing = std::cell::Cell::new(None);
            let dry = {
                let lookup = |probe: u64| -> u32 {
                    match known.iter().find(|(p, _)| *p == probe) {
                        Some((_, v)) => v.map(|(_, l)| l).unwrap_or(0),
                        None => {
                            missing.set(Some(probe));
                            0
                        }
                    }
                };
                self.inner.iopath.prefetch_dry(
                    ip.io.id(),
                    lbn,
                    cached.is_some(),
                    lookup,
                    hint_blocks,
                )
            };
            match missing.get() {
                Some(probe) => {
                    let v = self.effective_cluster(ip, probe, eof_blocks).await?;
                    known.push((probe, v));
                }
                None => {
                    // Commit the state transition with fully-known probes.
                    let lookup = |probe: u64| -> u32 {
                        known
                            .iter()
                            .find(|(p, _)| *p == probe)
                            .and_then(|(_, v)| v.map(|(_, l)| l))
                            .unwrap_or(0)
                    };
                    let committed = self.inner.iopath.prefetch_commit(
                        ip.io.id(),
                        lbn,
                        cached.is_some(),
                        lookup,
                        hint_blocks,
                    );
                    debug_assert_eq!(committed, dry);
                    break committed;
                }
            }
        };
        let req_cluster = known.iter().find(|(p, _)| *p == lbn).and_then(|(_, v)| *v);
        let next_cluster = plan
            .runs
            .first()
            .and_then(|run| known.iter().find(|(p, _)| *p == run.lbn))
            .and_then(|(_, v)| *v);

        // Issue the synchronous read (if the page is absent) and the
        // read-ahead BEFORE waiting, so both requests queue at the disk
        // together.
        let map = UfsMap { fs: self, ip };
        let mut sync_io: Option<vfs::iopath::ClusterRead> = None;
        if cached.is_none() {
            match req_cluster {
                None => {
                    // A hole: deliver a zero-filled page with no I/O.
                    let id = self
                        .inner
                        .cache
                        .create_traced(key, ip.io.id().as_u32(), span)
                        .await;
                    self.inner.cache.unbusy(id);
                    return Ok(id);
                }
                Some((pbn, _len)) => {
                    let run = plan.sync.expect("uncached non-hole access plans a read");
                    debug_assert_eq!(run.lbn, lbn);
                    let intent = IoIntent::ReadCluster(ReadCluster {
                        lbn: run.lbn,
                        pbn,
                        len: run.blocks,
                        reason: ReadReason::Demand,
                    });
                    let io = match self
                        .inner
                        .iopath
                        .execute_traced(&ip.io, &map, intent, span)
                        .await?
                    {
                        Executed::ReadIssued(io) => io,
                        _ => unreachable!("demand reads are issued"),
                    };
                    let n = io.blocks() as u64;
                    {
                        let mut stats = self.inner.stats.borrow_mut();
                        stats.sync_reads += 1;
                        stats.blocks_read += n;
                    }
                    self.inner.metrics.sync_reads.inc();
                    self.inner.metrics.blocks_read.add(n);
                    self.inner.metrics.cluster_read_blocks.observe(n);
                    sync_io = Some(io);
                }
            }
        }
        let adaptive = self.inner.params.tuning.readahead
            && self.inner.params.tuning.prefetch == PrefetchPolicy::Adaptive;
        if adaptive {
            // Adaptive runs carry no physical address; `ReadRuns` resolves
            // extents itself (and applies the data-sieving pattern, if any).
            for run in &plan.runs {
                let intent = IoIntent::ReadRuns(ReadRuns {
                    lbn: run.lbn,
                    len: run.blocks,
                    reason: ReadReason::Readahead,
                    sieve: run.sieve,
                });
                if let Executed::ReadaheadIssued { blocks } =
                    self.inner.iopath.execute(&ip.io, &map, intent).await?
                {
                    {
                        let mut stats = self.inner.stats.borrow_mut();
                        stats.readaheads += 1;
                        stats.blocks_read += blocks as u64;
                    }
                    self.inner.metrics.readaheads.inc();
                    self.inner.metrics.readahead_blocks.add(blocks as u64);
                    self.inner.metrics.blocks_read.add(blocks as u64);
                    self.inner
                        .metrics
                        .cluster_read_blocks
                        .observe(blocks as u64);
                }
            }
        } else if let Some(run) = plan.runs.first() {
            if let Some((ra_pbn, _)) = next_cluster {
                let intent = IoIntent::ReadCluster(ReadCluster {
                    lbn: run.lbn,
                    pbn: ra_pbn,
                    len: run.blocks,
                    reason: ReadReason::Readahead,
                });
                if let Executed::ReadaheadIssued { blocks } =
                    self.inner.iopath.execute(&ip.io, &map, intent).await?
                {
                    {
                        let mut stats = self.inner.stats.borrow_mut();
                        stats.readaheads += 1;
                        stats.blocks_read += blocks as u64;
                    }
                    self.inner.metrics.readaheads.inc();
                    self.inner.metrics.readahead_blocks.add(blocks as u64);
                    self.inner.metrics.blocks_read.add(blocks as u64);
                    self.inner
                        .metrics
                        .cluster_read_blocks
                        .observe(blocks as u64);
                }
            }
        }

        match (cached, sync_io) {
            (Some(id), _) => {
                // The page was cached when we looked, but planning the I/O
                // involved awaits (CPU charges, bmap, read-ahead page
                // allocation), during which the pageout daemon may have
                // evicted and recycled it. Re-resolve; if it vanished,
                // retry the whole getpage — the classic pagein retry loop.
                let current = if self.inner.cache.is_current(id) {
                    Some(id)
                } else {
                    self.inner.cache.lookup(key)
                };
                match current {
                    Some(id) => {
                        // Possibly still being read ahead: wait out the I/O.
                        self.inner.cache.wait_unbusy(id).await;
                        if self.inner.cache.is_current(id) {
                            self.inner.cache.set_referenced(id);
                            Ok(id)
                        } else {
                            Box::pin(self.getpage_inner(ip, lbn, hint_blocks, span)).await
                        }
                    }
                    None => Box::pin(self.getpage_inner(ip, lbn, hint_blocks, span)).await,
                }
            }
            (None, Some(io)) => self.inner.iopath.finish_read(io, lbn).await,
            (None, None) => unreachable!("uncached access either holes or reads"),
        }
    }

    /// `ufs_putpage` policy for one dirtied page: the clustered path lies
    /// and accumulates (Figures 7/8); the old path starts the block's write
    /// immediately.
    pub(crate) async fn putpage_write(&self, ip: &Rc<Incore>, lbn: u64) -> FsResult<()> {
        self.charge("putpage", self.inner.params.costs.putpage)
            .await;
        if self.inner.params.tuning.clustering {
            let action = ip
                .dw
                .borrow_mut()
                .on_putpage(lbn, self.inner.params.tuning.maxcontig);
            match action {
                WriteAction::Delay => Ok(()),
                WriteAction::Push(r) | WriteAction::PushThenDelay(r) => {
                    self.flush_page_range(ip, r, WriteReason::Flush, false)
                        .await
                }
            }
        } else {
            self.flush_page_range(ip, lbn..lbn + 1, WriteReason::Flush, false)
                .await
        }
    }

    /// Writes out the dirty pages in `[range)` through the shared executor,
    /// one bmap-contiguous cluster at a time (the Figure 8 while loop).
    /// With `free_after`, pages are freed once written (pageout-initiated
    /// cleaning).
    pub(crate) async fn flush_page_range(
        &self,
        ip: &Rc<Incore>,
        range: std::ops::Range<u64>,
        reason: WriteReason,
        free_after: bool,
    ) -> FsResult<()> {
        let map = UfsMap { fs: self, ip };
        let intent = IoIntent::WriteCluster(WriteCluster {
            range,
            reason,
            free_behind: free_after,
        });
        match self.inner.iopath.execute(&ip.io, &map, intent).await? {
            Executed::Wrote { cluster_blocks } => {
                for n in cluster_blocks {
                    {
                        let mut stats = self.inner.stats.borrow_mut();
                        stats.cluster_writes += 1;
                        stats.blocks_written += n as u64;
                    }
                    self.inner.metrics.cluster_writes.inc();
                    self.inner.metrics.blocks_written.add(n as u64);
                    self.inner.metrics.cluster_write_blocks.observe(n as u64);
                }
                Ok(())
            }
            _ => unreachable!("write sweeps resolve to Wrote"),
        }
    }

    /// Flushes delayed writes and all dirty pages of the file, waits for
    /// the I/O, and writes the inode back.
    pub(crate) async fn fsync_inode(&self, ip: &Rc<Incore>) -> FsResult<()> {
        let pending = ip.dw.borrow_mut().flush();
        if let Some(r) = pending {
            self.flush_page_range(ip, r, WriteReason::Fsync, false)
                .await?;
        }
        // Any other dirty pages (random writes, cleaner races).
        let offsets = self.inner.cache.dirty_offsets(self.vid(ip.ino));
        for chunk in contiguous_runs(&offsets) {
            self.flush_page_range(ip, chunk, WriteReason::Fsync, false)
                .await?;
        }
        ip.io.quiesce().await;
        // Deferred writes fail with no caller to tell; the sticky stream
        // error makes this fsync the one that reports the loss.
        if ip.io.take_io_error() {
            return Err(FsError::Io);
        }
        if ip.dirty.get() {
            self.iflush(ip, true).await;
        }
        // Durability requires the file's indirect blocks too: without
        // them the just-written data is unreachable after a crash.
        let (ind, dbl) = {
            let din = ip.din.borrow();
            (din.indirect, din.double)
        };
        for root in [ind, dbl] {
            if root != 0 && self.inner.meta_dirty.borrow().contains(&(root as u64)) {
                self.meta_write_through(root as u64).await;
            }
        }
        if dbl != 0 {
            let l1 = self.meta_get(dbl as u64).await;
            let mids: Vec<u32> = (0..crate::layout::PTRS_PER_BLOCK)
                .map(|i| {
                    let b = l1.borrow();
                    u32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap())
                })
                .filter(|&m| m != 0)
                .collect();
            for mid in mids {
                if self.inner.meta_dirty.borrow().contains(&(mid as u64)) {
                    self.meta_write_through(mid as u64).await;
                }
            }
        }
        Ok(())
    }

    // ---- rdwr ----

    pub(crate) async fn rdwr_read(
        &self,
        ip: &Rc<Incore>,
        off: u64,
        buf: &mut [u8],
        mode: AccessMode,
    ) -> FsResult<usize> {
        // One root span per request: everything the request waited on
        // (faults, cache probes, queue and service time) nests below.
        let tracer = self.inner.sim.tracer();
        let span = tracer.start("fs.read", ip.io.id().as_u32(), SpanId::NONE);
        tracer.arg(span, "off", off);
        tracer.arg(span, "bytes", buf.len() as u64);
        let r = self.rdwr_read_inner(ip, off, buf, mode, span).await;
        self.inner.sim.tracer().end(span);
        r
    }

    async fn rdwr_read_inner(
        &self,
        ip: &Rc<Incore>,
        off: u64,
        buf: &mut [u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<usize> {
        let costs = self.inner.params.costs;
        // mmap access is a pure fault path: no syscall, no kernel
        // map/unmap, no copyout — exactly why the paper's Figure 12 uses
        // it to expose file system overhead.
        if mode == AccessMode::Copy {
            self.charge("syscall", costs.syscall).await;
        }
        let size = ip.din.borrow().size;
        if off >= size {
            ip.last_read_end.set(off);
            return Ok(0);
        }
        let len = buf.len().min((size - off) as usize);
        // Inline files are served from the inode cache (Further Work:
        // "the system could satisfy many requests directly from the inode
        // instead of the page cache"). A mapped access sees the same
        // bytes, minus the copyout.
        let inline = ip.din.borrow().inline.clone();
        if let Some(data) = inline {
            if mode == AccessMode::Copy {
                self.charge("copy", costs.copy(len)).await;
            }
            let end = (off as usize + len).min(data.len());
            let n = end - off as usize;
            buf[..n].copy_from_slice(&data[off as usize..end]);
            return Ok(n);
        }
        // Sequential-mode detection for free-behind.
        ip.seq_mode.set(off == ip.last_read_end.get());
        let hint = if self.inner.params.tuning.random_cluster_hint {
            (len as u64).div_ceil(BLOCK_SIZE as u64) as u32
        } else {
            0
        };
        let mut pos = off;
        let mut dst = 0usize;
        let end = off + len as u64;
        while pos < end {
            let lbn = pos / BLOCK_SIZE as u64;
            let in_page = (pos % BLOCK_SIZE as u64) as usize;
            let n = ((BLOCK_SIZE - in_page) as u64).min(end - pos) as usize;
            let pid = self.getpage_traced(ip, lbn, hint, span).await?;
            if mode == AccessMode::Copy {
                self.charge("map_unmap", costs.map_unmap).await;
                self.charge("copy", costs.copy(n)).await;
            }
            self.inner
                .cache
                .read_at(pid, in_page, &mut buf[dst..dst + n]);
            // Free behind: triggered when rdwr unmaps the page. The policy
            // decides; the executor releases (unless the page got busy or
            // dirty since we looked).
            if self.inner.params.free_behind.should_free(
                ip.seq_mode.get(),
                pos,
                self.inner.cache.free_count(),
                self.inner.cache.lotsfree(),
            ) {
                let map = UfsMap { fs: self, ip };
                let intent = IoIntent::FreeBehind(FreeBehind { lbn, page: pid });
                if let Executed::Freed(true) =
                    self.inner.iopath.execute(&ip.io, &map, intent).await?
                {
                    self.inner.stats.borrow_mut().free_behinds += 1;
                    self.inner.metrics.free_behind_pages.inc();
                }
            }
            pos += n as u64;
            dst += n;
        }
        ip.last_read_end.set(end);
        Ok(len)
    }

    pub(crate) async fn rdwr_write(
        &self,
        ip: &Rc<Incore>,
        off: u64,
        data: &[u8],
        mode: AccessMode,
    ) -> FsResult<()> {
        let tracer = self.inner.sim.tracer();
        let span = tracer.start("fs.write", ip.io.id().as_u32(), SpanId::NONE);
        tracer.arg(span, "off", off);
        tracer.arg(span, "bytes", data.len() as u64);
        let r = self.rdwr_write_inner(ip, off, data, mode, span).await;
        self.inner.sim.tracer().end(span);
        r
    }

    async fn rdwr_write_inner(
        &self,
        ip: &Rc<Incore>,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        let costs = self.inner.params.costs;
        self.charge("syscall", costs.syscall).await;
        if data.is_empty() {
            return Ok(());
        }
        let old_size = ip.din.borrow().size;
        let end = off + data.len() as u64;
        if end.div_ceil(BLOCK_SIZE as u64) > crate::layout::max_file_blocks() {
            return Err(FsError::TooBig);
        }

        // "Data in the inode": keep tiny files inline when enabled.
        if self.inner.params.inline_small {
            let was_inline =
                ip.din.borrow().inline.is_some() || (old_size == 0 && ip.din.borrow().blocks == 0);
            if was_inline && end as usize <= INLINE_MAX {
                {
                    let mut din = ip.din.borrow_mut();
                    let mut content = din.inline.take().unwrap_or_default();
                    content.resize((end as usize).max(old_size as usize), 0);
                    content[off as usize..end as usize].copy_from_slice(data);
                    din.size = din.size.max(end);
                    din.inline = Some(content);
                }
                ip.dirty.set(true);
                self.charge("copy", costs.copy(data.len())).await;
                return Ok(());
            }
            // Outgrown the inode: demote existing content to block storage
            // (bypassing the inline path), then fall through for the new
            // write.
            let demote = ip.din.borrow_mut().inline.take();
            if let Some(content) = demote {
                ip.din.borrow_mut().size = 0;
                self.write_blocks(ip, 0, &content, mode, span).await?;
            }
        }

        self.write_blocks(ip, off, data, mode, span).await
    }

    async fn write_blocks(
        &self,
        ip: &Rc<Incore>,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        let costs = self.inner.params.costs;
        let old_size = ip.din.borrow().size;
        let end = off + data.len() as u64;
        // Writing past EOF with a gap leaves a hole.
        if off > old_size.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64 {
            ip.may_have_holes.set(true);
        }
        let mut pos = off;
        let mut src = 0usize;
        while pos < end {
            let lbn = pos / BLOCK_SIZE as u64;
            let in_page = (pos % BLOCK_SIZE as u64) as usize;
            let n = ((BLOCK_SIZE - in_page) as u64).min(end - pos) as usize;
            let (pbn, fresh) = self.bmap_alloc(ip, lbn).await?;
            let key = self.page_key(ip, lbn);
            let full_page = in_page == 0 && n == BLOCK_SIZE;
            let pid = match self.inner.cache.lookup(key) {
                Some(pid) => {
                    // May be mid-read-ahead: wait for the fill.
                    self.inner.cache.wait_unbusy(pid).await;
                    pid
                }
                None => {
                    let pid = self
                        .inner
                        .cache
                        .create_traced(key, ip.io.id().as_u32(), span)
                        .await;
                    if !fresh && !full_page && lbn < old_size.div_ceil(BLOCK_SIZE as u64) {
                        // Read-modify-write of an existing partial block.
                        self.charge("fault", costs.fault).await;
                        let old = self.read_block_raw(pbn as u64).await;
                        self.inner.cache.write_at(pid, 0, &old);
                    }
                    self.inner.cache.unbusy(pid);
                    pid
                }
            };
            self.charge("map_unmap", costs.map_unmap).await;
            if mode == AccessMode::Copy {
                self.charge("copy", costs.copy(n)).await;
            }
            self.inner.cache.write_at(pid, in_page, &data[src..src + n]);
            self.inner.cache.mark_dirty(pid);
            {
                let mut din = ip.din.borrow_mut();
                if pos + n as u64 > din.size {
                    din.size = pos + n as u64;
                }
            }
            ip.dirty.set(true);
            self.putpage_write(ip, lbn).await?;
            pos += n as u64;
            src += n;
        }
        Ok(())
    }

    // ---- namespace operations ----

    /// Creates (or truncates) a regular file and returns it open.
    pub(crate) async fn create_file(&self, path: &str) -> FsResult<UfsFile> {
        let (parent, name, existing) = self.namei(path).await?;
        if name.is_empty() {
            return Err(FsError::Invalid);
        }
        if let Some(ino) = existing {
            let ip = self.iget(ino).await?;
            if ip.din.borrow().kind != FileKind::Regular {
                return Err(FsError::NotAFile);
            }
            let file = UfsFile {
                fs: self.clone(),
                ip,
            };
            file.truncate(0).await?;
            return Ok(file);
        }
        let ino = self.alloc_inode(FileKind::Regular, Some(parent.ino))?;
        let ip = Incore::new(
            ino,
            Dinode::new(FileKind::Regular),
            &self.inner.sim,
            &self.inner.params.tuning,
            self.vid(ino),
        );
        ip.may_have_holes.set(false); // Fresh files are dense until proven otherwise.
        self.inner.inodes.borrow_mut().insert(ino, Rc::clone(&ip));
        // Classic UFS ordering: the inode reaches disk before the name.
        self.iflush(&ip, true).await;
        self.dir_add(&parent, &name, ino).await?;
        Ok(UfsFile {
            fs: self.clone(),
            ip,
        })
    }

    /// Opens an existing regular file.
    pub(crate) async fn open_file(&self, path: &str) -> FsResult<UfsFile> {
        let (_parent, _name, existing) = self.namei(path).await?;
        let ino = existing.ok_or(FsError::NotFound)?;
        let ip = self.iget(ino).await?;
        if ip.din.borrow().kind != FileKind::Regular {
            return Err(FsError::NotAFile);
        }
        Ok(UfsFile {
            fs: self.clone(),
            ip,
        })
    }

    /// Unlinks a file: removes the name, and when the last link drops,
    /// frees pages, blocks and the inode.
    pub(crate) async fn remove_file(&self, path: &str) -> FsResult<()> {
        let (parent, name, existing) = self.namei(path).await?;
        let ino = existing.ok_or(FsError::NotFound)?;
        let ip = self.iget(ino).await?;
        if ip.din.borrow().kind == FileKind::Directory {
            return Err(FsError::NotAFile);
        }
        self.dir_remove(&parent, &name).await?;
        let remaining = {
            let mut din = ip.din.borrow_mut();
            din.nlink -= 1;
            din.nlink
        };
        if remaining == 0 {
            // Quiesce in-flight writes, discard pages, release storage.
            ip.dw.borrow_mut().flush();
            ip.io.quiesce().await;
            self.inner.cache.invalidate_vnode(self.vid(ino), 0);
            self.free_blocks_from(&ip, 0).await?;
            {
                let mut din = ip.din.borrow_mut();
                *din = Dinode::free();
            }
            self.iflush(&ip, true).await;
            self.free_inode(ino);
            self.iforget(ino);
        } else {
            self.iflush(&ip, true).await;
        }
        Ok(())
    }
}

/// Groups sorted byte offsets into runs of consecutive pages.
fn contiguous_runs(offsets: &[u64]) -> Vec<std::ops::Range<u64>> {
    let mut out = Vec::new();
    let mut iter = offsets.iter().map(|o| o / BLOCK_SIZE as u64);
    let Some(first) = iter.next() else {
        return out;
    };
    let mut start = first;
    let mut prev = first;
    for p in iter {
        if p != prev + 1 {
            out.push(start..prev + 1);
            start = p;
        }
        prev = p;
    }
    out.push(start..prev + 1);
    out
}

impl Vnode for UfsFile {
    fn id(&self) -> VnodeId {
        self.fs.vid(self.ip.ino)
    }

    fn size(&self) -> u64 {
        self.ip.din.borrow().size
    }

    fn stream(&self) -> StreamId {
        self.ip.io.id()
    }

    async fn read_into(&self, off: u64, buf: &mut [u8], mode: AccessMode) -> FsResult<usize> {
        self.fs.rdwr_read(&self.ip, off, buf, mode).await
    }

    async fn write(&self, off: u64, data: &[u8], mode: AccessMode) -> FsResult<()> {
        self.fs.rdwr_write(&self.ip, off, data, mode).await
    }

    async fn fsync(&self) -> FsResult<()> {
        self.fs.fsync_inode(&self.ip).await
    }

    async fn truncate(&self, size: u64) -> FsResult<()> {
        let ip = &self.ip;
        // Settle pending I/O so pages can be invalidated.
        ip.dw.borrow_mut().flush();
        ip.io.quiesce().await;
        let old = ip.din.borrow().size;
        if size < old {
            if ip.din.borrow().inline.is_some() {
                let mut din = ip.din.borrow_mut();
                let content = din.inline.as_mut().unwrap();
                content.truncate(size as usize);
            } else {
                let from_lbn = size.div_ceil(BLOCK_SIZE as u64);
                let page_from = from_lbn * BLOCK_SIZE as u64;
                self.fs.inner.cache.invalidate_vnode(self.id(), page_from);
                self.fs.free_blocks_from(ip, from_lbn).await?;
                // Zero the tail of the (kept) final partial block, or a
                // later extension would expose the stale bytes.
                let tail = (size % BLOCK_SIZE as u64) as usize;
                if tail != 0 {
                    let last_lbn = size / BLOCK_SIZE as u64;
                    if self.fs.ptr_at(ip, last_lbn).await? != 0 {
                        let pid = self.fs.getpage(ip, last_lbn, 0).await?;
                        self.fs
                            .inner
                            .cache
                            .write_at(pid, tail, &vec![0u8; BLOCK_SIZE - tail]);
                        self.fs.inner.cache.mark_dirty(pid);
                    }
                }
            }
        } else if size > old {
            ip.may_have_holes.set(true);
        }
        ip.din.borrow_mut().size = size;
        ip.dirty.set(true);
        if size < old {
            // Reset the write predictor: the file shape changed.
            *ip.dw.borrow_mut() = clufs::DelayedWrite::new();
        }
        Ok(())
    }
}

impl FileSystem for Ufs {
    type File = UfsFile;

    async fn create(&self, path: &str) -> FsResult<UfsFile> {
        self.create_file(path).await
    }

    async fn open(&self, path: &str) -> FsResult<UfsFile> {
        self.open_file(path).await
    }

    async fn remove(&self, path: &str) -> FsResult<()> {
        self.remove_file(path).await
    }

    async fn sync(&self) -> FsResult<()> {
        self.sync_all().await
    }
}
