//! # ufs-clustering-repro
//!
//! Reproduction of L. W. McVoy & S. R. Kleiman, *Extent-like Performance
//! from a UNIX File System* (USENIX Winter 1991): SunOS UFS I/O clustering,
//! rebuilt as a deterministic user-space simulation. See the workspace
//! crates for the pieces:
//!
//! - [`simkit`] — virtual-time async executor
//! - [`diskmodel`] — rotating-disk simulator with a track buffer
//! - [`pagecache`] — unified VM page cache + pageout daemon
//! - [`vfs`] — the vnode interface
//! - [`ufs`] — the file system (old and new I/O paths)
//! - [`clufs`] — the clustering policy engines (the paper's contribution)
//! - [`extentfs`] — the extent-based comparator
//! - [`iobench`] — the paper's evaluation workloads
//!
//! Runnable entry points: the examples in `examples/` (the paper's
//! Figures 2–8 are `cargo run --release --example figures`) and the
//! `iobench` CLI (`cargo run --release -p iobench -- all`). Host-time
//! measurement lives in `benchmark/`.

pub use clufs;
pub use diskmodel;
pub use extentfs;
pub use iobench;
pub use pagecache;
pub use simkit;
pub use ufs;
pub use vfs;
