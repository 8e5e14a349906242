//! Directories and path lookup.
//!
//! Directory contents are ordinary file blocks holding packed entries:
//! `[ino: u32][namelen: u8][name bytes]`, with a zero `ino`+`namelen` pair
//! marking the end of a block's used region. Entries never cross block
//! boundaries. Directory updates are written **synchronously**, the classic
//! UFS behavior the paper's `B_ORDER` proposal wants to relax: "commands
//! like `rm *` would improve substantially".

use std::rc::Rc;

use vfs::{FsError, FsResult, Vnode};

use crate::fs::{Incore, Ufs};
use crate::layout::{FileKind, BLOCK_SIZE, NAME_MAX, ROOT_INO};

const ENTRY_FIXED: usize = 5; // ino (4) + namelen (1).

fn entry_size(name: &str) -> usize {
    ENTRY_FIXED + name.len()
}

impl Ufs {
    /// Looks `name` up in directory `dip`.
    ///
    /// Compares name bytes in place rather than materializing every
    /// entry as a `String`: lookups run once per create/remove, so a
    /// directory of N files would otherwise cost O(N²) transient
    /// `String`s across a churn workload. The scan still visits (and
    /// charges for) every block, like the original.
    pub(crate) async fn dir_lookup(&self, dip: &Incore, name: &str) -> FsResult<Option<u32>> {
        if dip.din.borrow().kind != FileKind::Directory {
            return Err(FsError::NotADirectory);
        }
        let nblocks = {
            let din = dip.din.borrow();
            din.size.div_ceil(BLOCK_SIZE as u64)
        };
        let mut found = None;
        for lbn in 0..nblocks {
            self.charge("dir", self.inner.params.costs.dir_block).await;
            let pbn = self.ptr_at(dip, lbn).await?;
            if pbn == 0 {
                continue;
            }
            let block = self.meta_get(pbn as u64).await;
            let data = block.borrow();
            let mut pos = 0usize;
            while pos + ENTRY_FIXED <= BLOCK_SIZE {
                let ino = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
                let namelen = data[pos + 4] as usize;
                if ino == 0 && namelen == 0 {
                    break;
                }
                if found.is_none()
                    && ino != 0
                    && &data[pos + ENTRY_FIXED..pos + ENTRY_FIXED + namelen] == name.as_bytes()
                {
                    found = Some(ino);
                }
                pos += ENTRY_FIXED + namelen;
            }
        }
        Ok(found)
    }

    /// Adds `name → ino` to directory `dip` with a synchronous (or ordered)
    /// write of the affected block.
    pub(crate) async fn dir_add(&self, dip: &Rc<Incore>, name: &str, ino: u32) -> FsResult<()> {
        if name.is_empty() || name.len() > NAME_MAX || name.contains('/') {
            return Err(FsError::Invalid);
        }
        let need = entry_size(name);
        let nblocks = {
            let din = dip.din.borrow();
            din.size.div_ceil(BLOCK_SIZE as u64)
        };
        // Try the existing blocks for a tail with room.
        for lbn in 0..nblocks {
            self.charge("dir", self.inner.params.costs.dir_block).await;
            let pbn = self.ptr_at(dip, lbn).await?;
            if pbn == 0 {
                continue;
            }
            let block = self.meta_get(pbn as u64).await;
            let used = Self::block_used(&block.borrow());
            if used + need <= BLOCK_SIZE {
                Self::append_entry(&mut block.borrow_mut(), used, name, ino);
                self.meta_mark_dirty(pbn as u64);
                self.meta_write_through(pbn as u64).await;
                return Ok(());
            }
        }
        // Allocate a fresh directory block.
        let (pbn, fresh) = self.bmap_alloc(dip, nblocks).await?;
        debug_assert!(fresh);
        let cell = Rc::new(std::cell::RefCell::new(vec![0u8; BLOCK_SIZE]));
        Self::append_entry(&mut cell.borrow_mut(), 0, name, ino);
        self.inner.meta.borrow_mut().insert(pbn as u64, cell);
        self.meta_mark_dirty(pbn as u64);
        self.meta_write_through(pbn as u64).await;
        {
            let mut din = dip.din.borrow_mut();
            din.size = (nblocks + 1) * BLOCK_SIZE as u64;
        }
        dip.dirty.set(true);
        self.iflush(dip, true).await;
        Ok(())
    }

    fn block_used(data: &[u8]) -> usize {
        let mut pos = 0usize;
        while pos + ENTRY_FIXED <= BLOCK_SIZE {
            let ino = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
            let namelen = data[pos + 4] as usize;
            if ino == 0 && namelen == 0 {
                break;
            }
            pos += ENTRY_FIXED + namelen;
        }
        pos
    }

    fn append_entry(data: &mut [u8], at: usize, name: &str, ino: u32) {
        data[at..at + 4].copy_from_slice(&ino.to_le_bytes());
        data[at + 4] = name.len() as u8;
        data[at + ENTRY_FIXED..at + ENTRY_FIXED + name.len()].copy_from_slice(name.as_bytes());
    }

    /// Removes `name` from `dip`, compacting its block. Returns the inode
    /// number the entry pointed at.
    pub(crate) async fn dir_remove(&self, dip: &Rc<Incore>, name: &str) -> FsResult<u32> {
        let nblocks = {
            let din = dip.din.borrow();
            din.size.div_ceil(BLOCK_SIZE as u64)
        };
        for lbn in 0..nblocks {
            self.charge("dir", self.inner.params.costs.dir_block).await;
            let pbn = self.ptr_at(dip, lbn).await?;
            if pbn == 0 {
                continue;
            }
            let block = self.meta_get(pbn as u64).await;
            let mut found: Option<(usize, usize, u32)> = None;
            {
                let data = block.borrow();
                let mut pos = 0usize;
                while pos + ENTRY_FIXED <= BLOCK_SIZE {
                    let ino = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
                    let namelen = data[pos + 4] as usize;
                    if ino == 0 && namelen == 0 {
                        break;
                    }
                    let ename = &data[pos + ENTRY_FIXED..pos + ENTRY_FIXED + namelen];
                    if ino != 0 && ename == name.as_bytes() {
                        found = Some((pos, ENTRY_FIXED + namelen, ino));
                        break;
                    }
                    pos += ENTRY_FIXED + namelen;
                }
            }
            if let Some((pos, len, ino)) = found {
                {
                    let mut data = block.borrow_mut();
                    let used = Self::block_used(&data);
                    // Shift the tail left over the removed entry, then zero
                    // the vacated region so the end marker is restored.
                    data.copy_within(pos + len..used, pos);
                    for b in &mut data[used - len..used] {
                        *b = 0;
                    }
                }
                self.meta_mark_dirty(pbn as u64);
                self.meta_write_through(pbn as u64).await;
                return Ok(ino);
            }
        }
        Err(FsError::NotFound)
    }

    /// Resolves a `/`-separated path to `(parent directory, final name,
    /// existing inode if any)`. An empty path or `/` resolves to the root.
    pub(crate) async fn namei(&self, path: &str) -> FsResult<(Rc<Incore>, String, Option<u32>)> {
        let mut parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut dir = self.iget(ROOT_INO).await?;
        if parts.is_empty() {
            return Ok((dir, String::new(), Some(ROOT_INO)));
        }
        let last = parts.pop().unwrap();
        for part in parts {
            let ino = self
                .dir_lookup(&dir, part)
                .await?
                .ok_or(FsError::NotFound)?;
            dir = self.iget(ino).await?;
            if dir.din.borrow().kind != FileKind::Directory {
                return Err(FsError::NotADirectory);
            }
        }
        let existing = self.dir_lookup(&dir, last).await?;
        Ok((dir, last.to_string(), existing))
    }

    /// Creates a symbolic link at `path` pointing to `target`.
    ///
    /// Short targets (≤ 56 bytes) are stored inline in the dinode — the
    /// SunOS "fast symlink" trick the paper cites as precedent for its
    /// data-in-the-inode idea; longer targets get a data block.
    pub async fn symlink(&self, path: &str, target: &str) -> FsResult<()> {
        let (parent, name, existing) = self.namei(path).await?;
        if existing.is_some() {
            return Err(FsError::Exists);
        }
        if name.is_empty() || target.is_empty() {
            return Err(FsError::Invalid);
        }
        let ino = self.alloc_inode(FileKind::Symlink, Some(parent.ino))?;
        let ip = crate::fs::Incore::new(
            ino,
            crate::layout::Dinode::new(FileKind::Symlink),
            &self.inner.front,
            &self.inner.params.tuning,
            self.vid(ino),
        );
        {
            let mut din = ip.din.borrow_mut();
            din.size = target.len() as u64;
            if target.len() <= crate::layout::INLINE_MAX {
                din.inline = Some(target.as_bytes().to_vec());
            }
        }
        self.inner.inodes.borrow_mut().insert(ino, Rc::clone(&ip));
        if target.len() > crate::layout::INLINE_MAX {
            // Long target: store it in the file body.
            self.file(&ip)
                .write(0, target.as_bytes(), vfs::AccessMode::Copy)
                .await?;
            ip.din.borrow_mut().size = target.len() as u64;
            self.fsync_inode(&ip).await?;
        }
        self.iflush(&ip, true).await;
        self.dir_add(&parent, &name, ino).await?;
        Ok(())
    }

    /// Reads the target of the symbolic link at `path`.
    pub async fn readlink(&self, path: &str) -> FsResult<String> {
        let (_parent, _name, existing) = self.namei(path).await?;
        let ino = existing.ok_or(FsError::NotFound)?;
        let ip = self.iget(ino).await?;
        if ip.din.borrow().kind != FileKind::Symlink {
            return Err(FsError::Invalid);
        }
        let inline = ip.din.borrow().inline.clone();
        let bytes = match inline {
            Some(data) => data,
            None => {
                let size = ip.din.borrow().size as usize;
                let mut buf = vec![0u8; size];
                let n = self
                    .file(&ip)
                    .read_into(0, &mut buf, vfs::AccessMode::Copy)
                    .await?;
                buf.truncate(n);
                buf
            }
        };
        String::from_utf8(bytes).map_err(|_| FsError::Corrupt)
    }

    /// Opens a file, following one level of symbolic link if `path` names
    /// one (sufficient for the flat link graphs the tests build; loops are
    /// cut off by the single-level rule).
    pub async fn open_following(&self, path: &str) -> FsResult<crate::vnops::UfsFile> {
        match self.open_file(path).await {
            Err(FsError::NotAFile) => {
                let target = self.readlink(path).await?;
                self.open_file(&target).await
            }
            other => other,
        }
    }

    /// Creates a subdirectory.
    pub async fn mkdir(&self, path: &str) -> FsResult<()> {
        let (parent, name, existing) = self.namei(path).await?;
        if existing.is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(FileKind::Directory, Some(parent.ino))?;
        let ip = crate::fs::Incore::new(
            ino,
            crate::layout::Dinode::new(FileKind::Directory),
            &self.inner.front,
            &self.inner.params.tuning,
            self.vid(ino),
        );
        self.inner.inodes.borrow_mut().insert(ino, Rc::clone(&ip));
        self.iflush(&ip, true).await;
        self.dir_add(&parent, &name, ino).await?;
        Ok(())
    }
}
