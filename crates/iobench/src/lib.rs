//! # iobench — the paper's evaluation workloads
//!
//! Reproduces the measurement programs behind the paper's Figures 9–12 and
//! its in-text experiments:
//!
//! - [`iobench`]: the five transfer-rate workloads — FSR, FSU, FSW, FRR,
//!   FRU (File system Sequential/Random × Read/Write/Update) — over any
//!   [`vfs::FileSystem`].
//! - [`configs`]: the Figure 9 run matrix (A/B/C/D) and full-scale world
//!   construction (400 MB drive, 8 MB SPARCstation, pageout daemon).
//! - [`cpu_bench`]: the Figure 12 mmap CPU comparison.
//! - [`musbus`]: a MusBus-like timesharing mix (small programs, small I/O)
//!   that clustering should barely improve.
//! - [`aging`]: the allocator-contiguity study (mean extent sizes on empty
//!   vs aged file systems).
//! - [`streams`]: the multi-stream fairness workload — N concurrent tagged
//!   streams whose per-stream (`…{stream=N}`) metrics attribute disk
//!   bandwidth and throttle stalls to each competitor.
//! - [`readahead`]: the strided-read prefetch sweep (`iobench readahead`) —
//!   stride × record size × policy (off / fixed-1 / adaptive) with
//!   throughput, prefetch-accuracy, and wasted-read tables.
//! - [`faults`]: the fault-injection experiment (`iobench faults`) —
//!   throughput and p99 read latency across spindle failure, degraded
//!   service, and online rebuild on arrays of fault-wrapped members.
//! - [`runner`]: the parallel run fan-out behind `iobench --jobs N` —
//!   experiments describe independent simulated runs as [`RunPlan`]s and a
//!   [`Runner`] executes them across worker threads with byte-identical
//!   output for any jobs count.
//! - [`report`]: fixed-width table rendering for the regenerated figures.
//! - [`traceout`]: Chrome trace-event export (`iobench --trace`) plus the
//!   latency-attribution and per-fault timeline tables built from spans.

pub mod aging;
pub mod configs;
pub mod cpu_bench;
pub mod experiments;
pub mod faults;
pub mod iobench;
pub mod musbus;
pub mod readahead;
pub mod report;
pub mod runner;
pub mod streams;
pub mod traceout;
pub mod volume;

/// Schema tag of the `--stats-json` document (DESIGN.md "Observability").
pub const STATS_SCHEMA: &str = "iobench-stats/v8";
/// Schema tag of the `--timeline` document.
pub const TIMELINE_SCHEMA: &str = "iobench-timeline/v1";

pub use configs::{paper_ext_world, paper_world, Config, WorldOptions};
pub use faults::{faults_data, faults_run, FaultCell, PhaseStats};
pub use iobench::{run_iobench, run_strided_read, IoKind, StrideOptions, Throughput};
pub use readahead::{readahead_data, readahead_run, RaCell, RaData};
pub use runner::{RunPlan, Runner};
pub use streams::{run_streams, StreamRole, StreamRun, StreamsOptions};
pub use volume::{volume_data, volume_run, VolumeData, VolumeSweep};
