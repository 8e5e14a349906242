//! # simkit — deterministic discrete-event simulation kernel
//!
//! The substrate every other crate in this repository runs on: a
//! single-threaded async executor driven by a **virtual clock**. Simulated
//! activities (user processes, the pageout daemon, the disk mechanism) are
//! ordinary Rust futures; time advances only when no task is runnable, by
//! jumping to the earliest pending timer.
//!
//! Why a simulator: the paper ("Extent-like Performance from a UNIX File
//! System", McVoy & Kleiman, USENIX Winter 1991) measures kernel code on a
//! 1990 SPARCstation. Its results are driven by the *relative* timing of
//! CPU code paths and disk mechanics, which a virtual-time simulation
//! reproduces exactly and deterministically.
//!
//! ## Pieces
//!
//! - [`Sim`] — executor + clock ([`SimTime`], [`SimDuration`])
//! - [`sync::Event`] — one-shot completion signal (I/O done)
//! - [`sync::Semaphore`] — FIFO counting semaphore (the paper's write limit)
//! - [`channel()`] — mpsc work queues (e.g. dirty-page cleaner)
//! - [`Cpu`] — serialized compute-time charging with per-tag accounting
//! - [`Tracer`] — per-request span tracing across layers (zero-cost when
//!   disabled), behind `iobench --trace`
//! - [`stats`] — the per-`Sim` metrics registry (counters, gauges,
//!   histograms, time-weighted means) with deterministic JSON snapshots
//! - [`json`] — the one JSON writer every emitted document goes through
//! - [`perfmon`] — the per-`Sim` virtual-time telemetry sampler
//!   ([`Telemetry`], `sim.telemetry()`) and the per-thread counting
//!   allocator that allocation-budget tests install
//!
//! ## Invariants
//!
//! - No wall-clock input anywhere; identical runs produce identical traces.
//! - Single-threaded: shared state uses `Rc<RefCell<_>>`; no borrow may be
//!   held across an `.await`.

pub mod channel;
pub mod cpu;
pub mod executor;
pub mod json;
pub mod perfmon;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use channel::{channel, Receiver, SendError, Sender};
pub use cpu::{Cpu, TagStat};
pub use executor::{JoinHandle, Sim, Sleep, TaskId, TimeHandle, YieldNow};
pub use perfmon::Telemetry;
pub use rng::SimRng;
pub use stats::{Counter, Gauge, Histogram, NameId, StatsRegistry, TimeWeighted};
pub use sync::{Event, Notify, SemPermit, Semaphore};
pub use time::{SimDuration, SimTime};
pub use trace::{Span, SpanId, Tracer};
