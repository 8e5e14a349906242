//! The vnode operations UFS owns: what it tells the shared front end
//! (`vfs::frontend`) about a file — translation with the paper's length
//! extension, allocate-on-write, data in the inode, the counters — plus
//! the metadata half of fsync, truncate, and the namespace operations.
//! The old (SunOS 4.1, block-at-a-time) and new (4.1.1, clustered) paths
//! are the same front end run at an I/O unit of one block or `maxcontig`,
//! selected by the mount's tuning exactly like the paper's test kernel.

use std::rc::Rc;

use simkit::SpanId;
use vfs::frontend::{Backing, Event, FrontEnd, Probe};
use vfs::iopath::{BlockMap, FileStream};
use vfs::{AccessMode, FileSystem, FsError, FsResult, StreamId, Vnode, VnodeId};

use crate::fs::{Incore, Ufs};
use crate::layout::{Dinode, FileKind, BLOCK_SIZE, INLINE_MAX};

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

/// Extents come from `bmap` (with its cache and hole handling), the
/// transfer cap from the mount's tuning.
impl BlockMap for UfsFile {
    async fn extent(&self, lbn: u64, cap: u32) -> FsResult<Option<(u32, u32)>> {
        self.fs.bmap_extent(&self.ip, lbn, cap).await
    }

    fn max_cluster(&self) -> u32 {
        self.fs.inner.params.tuning.io_cluster_blocks()
    }
}

impl Backing for UfsFile {
    fn io(&self) -> &Rc<FileStream> {
        &self.ip.io
    }

    fn eof(&self) -> u64 {
        self.ip.din.borrow().size
    }

    fn wrote_to(&self, end: u64) {
        let mut din = self.ip.din.borrow_mut();
        din.size = din.size.max(end);
        self.ip.dirty.set(true);
    }

    fn read_inline(&self, off: u64, buf: &mut [u8]) -> Option<usize> {
        let din = self.ip.din.borrow();
        let data = din.inline.as_ref()?;
        let start = (off as usize).min(data.len());
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        Some(n)
    }

    /// Figure 2: bmap is called even when the page is in memory, because
    /// getpage must know whether the page has backing store (holes). The
    /// UFS_HOLE Further Work item skips it for files known hole-free. On a
    /// miss the planner asks for the block itself, in its own order.
    async fn fault_probe(
        &self,
        lbn: u64,
        eof_blocks: u64,
        cached: bool,
    ) -> FsResult<Option<Probe>> {
        if !cached {
            return Ok(None);
        }
        if self.fs.inner.params.tuning.ufs_hole_opt && !self.ip.may_have_holes.get() {
            self.fs.inner.stats.borrow_mut().bmap_skipped_hole_opt += 1;
            return Ok(None);
        }
        self.probe(lbn, eof_blocks).await.map(Some)
    }

    /// Effective cluster at `lbn`: bmap contiguity, capped by the tuning's
    /// I/O cluster size and the end of file.
    async fn probe(&self, lbn: u64, eof_blocks: u64) -> FsResult<Probe> {
        let cap = (self.max_cluster() as u64).min(eof_blocks.saturating_sub(lbn)) as u32;
        let extent = self.fs.bmap_extent(&self.ip, lbn, cap).await?;
        Ok(Probe {
            blocks: extent.map_or(0, |(_, len)| len),
            pbn: extent.map(|(pbn, _)| pbn),
        })
    }

    async fn route_write(
        &self,
        front: &FrontEnd,
        off: u64,
        data: &[u8],
        mode: AccessMode,
        span: SpanId,
    ) -> FsResult<()> {
        let (fs, ip) = (&self.fs, &self.ip);
        let old_size = ip.din.borrow().size;
        let end = off + data.len() as u64;
        if end.div_ceil(BLOCK_SIZE as u64) > crate::layout::max_file_blocks() {
            return Err(FsError::TooBig);
        }

        // "Data in the inode": keep tiny files inline when enabled.
        if fs.inner.params.inline_small {
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
                let costs = fs.inner.params.costs;
                fs.charge("copy", costs.copy(data.len())).await;
                return Ok(());
            }
            // Outgrown the inode: demote existing content to block storage
            // (bypassing the inline path), then fall through for the new
            // write.
            let demote = ip.din.borrow_mut().inline.take();
            if let Some(content) = demote {
                ip.din.borrow_mut().size = 0;
                front.write_blocks(self, 0, &content, mode, span).await?;
            }
        }
        front.write_blocks(self, off, data, mode, span).await
    }

    async fn prepare_write(&self, off: u64, _end: u64, _span: SpanId) -> FsResult<()> {
        // Writing past EOF with a gap leaves a hole.
        if off > self.eof().div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64 {
            self.ip.may_have_holes.set(true);
        }
        Ok(())
    }

    async fn map_write(&self, lbn: u64) -> FsResult<(u32, bool)> {
        self.fs.bmap_alloc(&self.ip, lbn).await
    }

    fn count(&self, ev: Event) {
        let m = &self.fs.inner.metrics;
        let mut s = self.fs.inner.stats.borrow_mut();
        match ev {
            Event::Getpage { hit, prefetched } => {
                s.getpage_calls += 1;
                m.getpage_calls.inc();
                if hit {
                    s.getpage_hits += 1;
                    m.getpage_hits.inc();
                }
                if prefetched {
                    m.readahead_used.inc();
                }
            }
            Event::DemandRead(n) => {
                s.sync_reads += 1;
                s.blocks_read += n;
                m.sync_reads.inc();
                m.blocks_read.add(n);
                m.cluster_read_blocks.observe(n);
            }
            Event::Readahead(n) => {
                s.readaheads += 1;
                s.blocks_read += n;
                m.readaheads.inc();
                m.readahead_blocks.add(n);
                m.blocks_read.add(n);
                m.cluster_read_blocks.observe(n);
            }
            Event::FreeBehind => {
                s.free_behinds += 1;
                m.free_behind_pages.inc();
            }
            Event::ClusterWrite(n) => {
                s.cluster_writes += 1;
                s.blocks_written += n;
                m.cluster_writes.inc();
                m.blocks_written.add(n);
                m.cluster_write_blocks.observe(n);
            }
        }
    }
}

impl Ufs {
    /// The vnode for an in-core inode.
    pub(crate) fn file(&self, ip: &Rc<Incore>) -> UfsFile {
        UfsFile {
            fs: self.clone(),
            ip: Rc::clone(ip),
        }
    }

    /// Flushes delayed writes and all dirty pages of the file, waits for
    /// the I/O, and writes the inode back.
    pub(crate) async fn fsync_inode(&self, ip: &Rc<Incore>) -> FsResult<()> {
        self.inner.front.fsync_data(&self.file(ip)).await?;
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
            let file = self.file(&ip);
            file.truncate(0).await?;
            return Ok(file);
        }
        let ino = self.alloc_inode(FileKind::Regular, Some(parent.ino))?;
        let ip = Incore::new(
            ino,
            Dinode::new(FileKind::Regular),
            &self.inner.front,
            &self.inner.params.tuning,
            self.vid(ino),
        );
        ip.may_have_holes.set(false); // Fresh files are dense until proven otherwise.
        self.inner.inodes.borrow_mut().insert(ino, Rc::clone(&ip));
        // Classic UFS ordering: the inode reaches disk before the name.
        self.iflush(&ip, true).await;
        self.dir_add(&parent, &name, ino).await?;
        Ok(self.file(&ip))
    }

    /// Opens an existing regular file.
    pub(crate) async fn open_file(&self, path: &str) -> FsResult<UfsFile> {
        let (_parent, _name, existing) = self.namei(path).await?;
        let ino = existing.ok_or(FsError::NotFound)?;
        let ip = self.iget(ino).await?;
        if ip.din.borrow().kind != FileKind::Regular {
            return Err(FsError::NotAFile);
        }
        Ok(self.file(&ip))
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
            ip.io.delayed().borrow_mut().flush();
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
        self.fs.inner.front.read(self, off, buf, mode).await
    }

    async fn write(&self, off: u64, data: &[u8], mode: AccessMode) -> FsResult<()> {
        self.fs.inner.front.write(self, off, data, mode).await
    }

    async fn fsync(&self) -> FsResult<()> {
        self.fs.fsync_inode(&self.ip).await
    }

    async fn truncate(&self, size: u64) -> FsResult<()> {
        let ip = &self.ip;
        // Settle pending I/O so pages can be invalidated.
        ip.io.delayed().borrow_mut().flush();
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
                        let front = &self.fs.inner.front;
                        let pid = front.getpage(self, last_lbn, 0, SpanId::NONE).await?;
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
            *ip.io.delayed().borrow_mut() = clufs::DelayedWrite::new();
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
