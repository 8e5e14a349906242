//! # clufs — the paper's contribution as reusable policy engines
//!
//! "Extent-like Performance from a UNIX File System" (McVoy & Kleiman,
//! USENIX Winter 1991) modifies UFS so sequential I/O moves in *clusters* of
//! contiguously allocated blocks rather than one block at a time — without
//! changing the on-disk format and without any user-visible interface.
//!
//! This crate holds the mechanisms of that change as pure, substrate-free
//! state machines, so they can be unit- and property-tested in isolation and
//! then wired into the `ufs` crate's `getpage`/`putpage` paths:
//!
//! - [`ReadAhead`] — the `nextr`/`nextrio` sequential predictor and cluster
//!   read-ahead planner (Figures 2, 3, 6). With `maxcontig = 1` it *is* the
//!   old per-block algorithm.
//! - [`DelayedWrite`] — the `delayoff`/`delaylen` accumulate-and-push write
//!   clustering engine (Figures 7, 8).
//! - [`FreeBehindPolicy`] — MRU-style page freeing for large sequential
//!   reads (the "page thrashing" fix).
//! - [`WriteThrottle`] — the per-file counting semaphore limiting dirty
//!   data in the disk queue (the fairness fix; 240 KB default).
//! - [`Prefetcher`] — the adaptive-readahead generalization: policy
//!   selector over the paper's engine and [`AdaptiveRa`], the
//!   distance-adaptive, stride-aware, pressure-coupled planner.
//! - [`Tuning`] — the knobs, with Figure 9's A/B/C/D presets.
//! - [`BmapCache`] — Further Work: cached `<lbn, pbn, len>` extent tuples.

pub mod bmap_cache;
pub mod delayed_write;
pub mod free_behind;
pub mod prefetch;
pub mod readahead;
pub mod throttle;
pub mod tuning;

pub use bmap_cache::{BmapCache, ExtentTuple};
pub use delayed_write::{DelayedWrite, WriteAction};
pub use free_behind::FreeBehindPolicy;
pub use prefetch::{
    AdaptiveRa, PrefetchPlan, PrefetchPolicy, PrefetchRun, Prefetcher, MAX_DISTANCE,
};
pub use readahead::{ReadAhead, ReadPlan, ReadRun};
pub use throttle::{WriteThrottle, WriteToken};
pub use tuning::{
    Tuning, BLOCK_SIZE, IO_RETRY_BACKOFF_MS, IO_RETRY_MAX, LEN_EDGES, WRITE_LIMIT_BYTES,
};
