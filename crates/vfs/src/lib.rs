//! # vfs — the vnode interface layer
//!
//! A slim model of the Sun VFS architecture (Kleiman, "Vnodes", USENIX
//! 1986): file systems expose
//! file objects ("vnodes") behind a uniform interface, and the kernel above
//! (here: workloads and benchmarks) manipulates files without knowing the
//! implementation. Two file system types implement these traits in this
//! repository: `ufs` (the paper's subject) and `extentfs` (the comparator).
//!
//! The interface is deliberately narrower than a real VFS — just what the
//! paper's evaluation exercises: create/open/remove/lookup, read/write at an
//! offset (in copying or mapped mode), fsync, truncate, and mount-wide sync.
//!
//! Below the traits, two modules hold everything the file systems share:
//! [`frontend`] is the one implementation of `rdwr`/`getpage`/`putpage` and
//! the data half of fsync, generic over what a file system has to say
//! about a file; [`iopath`] is the executor it drives — busy pages, the
//! one read (a transfer per physical run), cluster writes, retry — and
//! the per-open-file state, prefetch engine included.
//!
//! Above them, [`World`] is the simulated machine a file system is mounted
//! on. Each file-system crate has one builder that assembles it
//! (`ufs::build_world_on`, `extentfs::build_world_on`); workloads take a
//! `&World<F>` and are written once for every `F`.

use std::fmt;

use diskmodel::SharedDevice;
use pagecache::{PageCache, PageoutDaemon};
use simkit::{Cpu, Sim};

pub mod frontend;
pub mod iopath;

/// Identifies a file for page cache naming; equals
/// [`pagecache::VnodeId`].
pub type VnodeId = u64;

/// Identity of an I/O stream, allocated per open file (see
/// [`iopath::FileStream`]). The id labels every request the file issues —
/// page-cache lookups, cluster transfers, throttle stalls and disk queue
/// entries — so per-stream metrics (`…{stream=N}`) can attribute the
/// disk's bandwidth. Stream 0 is reserved for untagged background and
/// metadata traffic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(u32);

impl StreamId {
    /// The background/metadata stream.
    pub const UNTAGGED: StreamId = StreamId(0);

    /// Wraps a raw id (normally produced by `sim.stats().alloc_stream()`).
    pub fn new(id: u32) -> StreamId {
        StreamId(id)
    }

    /// The raw label used in metric names.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How `rdwr` moves bytes.
///
/// `Copy` models `read(2)`/`write(2)`: the kernel copies between the page
/// cache and the caller's buffer, paying copy CPU per byte. `Mapped` models
/// `mmap(2)` access: pages are faulted in but not copied — the mode the
/// paper's Figure 12 uses "to avoid the copying of data from the kernel to
/// the user" so the file system overhead itself is visible.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// Copying semantics (read/write system calls).
    Copy,
    /// Mapped semantics (mmap): fault, no copyout.
    Mapped,
}

/// Errors surfaced by file system operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Name already exists.
    Exists,
    /// The file system is out of blocks (respecting the minfree reserve).
    NoSpace,
    /// The file system is out of inodes.
    NoInodes,
    /// Operation applied to the wrong object kind.
    NotAFile,
    /// A directory operation on a non-directory.
    NotADirectory,
    /// Removing a non-empty directory.
    NotEmpty,
    /// File offset or size beyond what the format supports.
    TooBig,
    /// Malformed argument (bad name, bad offset).
    Invalid,
    /// Corrupt on-disk structure detected.
    Corrupt,
    /// The device failed the transfer and bounded retry did not recover
    /// it (media defect past the retry budget, or the whole device gone).
    Io,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            FsError::NotFound => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NoSpace => "no space left on device",
            FsError::NoInodes => "no inodes left on device",
            FsError::NotAFile => "not a regular file",
            FsError::NotADirectory => "not a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::TooBig => "file too large",
            FsError::Invalid => "invalid argument",
            FsError::Corrupt => "file system corrupted",
            FsError::Io => "I/O error",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FsError {}

/// Result alias for file system operations.
pub type FsResult<T> = Result<T, FsError>;

/// A file handle ("vnode") exposed by a file system.
///
/// Offsets are arbitrary byte offsets; implementations handle page/block
/// alignment internally, exactly as `ufs_rdwr` does by mapping each file
/// block and copying pieces.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait Vnode {
    /// Page cache identity of this file.
    fn id(&self) -> VnodeId;

    /// Current file size in bytes.
    fn size(&self) -> u64;

    /// The I/O stream this open file's requests are attributed to.
    /// Defaults to the untagged stream for implementations that don't
    /// thread a [`iopath::FileStream`].
    fn stream(&self) -> StreamId {
        StreamId::UNTAGGED
    }

    /// Reads up to `buf.len()` bytes at `off` into `buf`, returning how
    /// many bytes were read; short reads happen only at EOF.
    ///
    /// This is the primitive read operation: implementations fill the
    /// caller's buffer — the way `uio`-based `ufs_rdwr` fills the caller's
    /// address space — so steady-state readers reuse one allocation across
    /// calls instead of receiving a fresh `Vec` per request.
    async fn read_into(&self, off: u64, buf: &mut [u8], mode: AccessMode) -> FsResult<usize>;

    /// Allocating convenience wrapper over [`Vnode::read_into`]: reads up
    /// to `len` bytes at `off` into a fresh buffer, truncated to the bytes
    /// actually read.
    async fn read(&self, off: u64, len: usize, mode: AccessMode) -> FsResult<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let n = self.read_into(off, &mut buf, mode).await?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Writes `data` at `off`, extending the file if needed.
    async fn write(&self, off: u64, data: &[u8], mode: AccessMode) -> FsResult<()>;

    /// Forces dirty pages and metadata for this file to stable storage.
    async fn fsync(&self) -> FsResult<()>;

    /// Truncates (or extends with a hole) to `size` bytes.
    async fn truncate(&self, size: u64) -> FsResult<()>;
}

/// A mounted file system instance.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait FileSystem {
    /// The vnode type this file system serves.
    type File: Vnode;

    /// Creates a regular file (in the root directory for flat namespaces;
    /// path-capable implementations accept `/`-separated paths).
    async fn create(&self, path: &str) -> FsResult<Self::File>;

    /// Opens an existing regular file.
    async fn open(&self, path: &str) -> FsResult<Self::File>;

    /// Removes a file, freeing its blocks.
    async fn remove(&self, path: &str) -> FsResult<()>;

    /// Flushes all dirty state in the mount to stable storage.
    async fn sync(&self) -> FsResult<()>;
}

/// Everything a simulated machine needs: clock, CPU, block device, page
/// cache, pageout daemon, and a mounted file system.
pub struct World<F: FileSystem> {
    /// The executor/clock.
    pub sim: Sim,
    /// The CPU cost account.
    pub cpu: Cpu,
    /// The block device (a single drive or a `volmgr` array).
    pub disk: SharedDevice,
    /// The unified page cache.
    pub cache: PageCache,
    /// The pageout daemon handle.
    pub daemon: PageoutDaemon,
    /// The mounted file system.
    pub fs: F,
}

impl<F: FileSystem> World<F> {
    /// Drops every cached page of `file`, so the next read of it goes to
    /// the device.
    pub fn invalidate(&self, file: &F::File) {
        self.cache.invalidate_vnode(file.id(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(FsError::NoSpace.to_string(), "no space left on device");
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
    }
}
