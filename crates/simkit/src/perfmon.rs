//! Host-side performance observatory.
//!
//! Everything else in `simkit` explains *virtual* nanoseconds; this module
//! explains *wall-clock* ones — where the host process actually spends its
//! time when it executes a simulation. Two independent halves:
//!
//! 1. **Wall-clock phase profiler** (process-global, off by default):
//!    [`phase`] opens a named wall-clock span on the current thread; when
//!    it closes, its record is appended to one process-wide log, which
//!    [`take_records`] drains. Each record also carries the thread's
//!    allocation delta over the span (see [`CountingAlloc`]) so
//!    allocation churn can be attributed to phases.
//!
//! 2. **Virtual-time telemetry sampler** ([`Telemetry`], per-[`Sim`]):
//!    a simulated task that periodically snapshots every numeric metric in
//!    the registry into per-run time series — cache occupancy, dirty
//!    pages, disk queue depth, throttle stalls — the continuous view the
//!    end-of-run snapshot can't give. Sampling only *reads* the registry
//!    and only *observes* virtual time, so enabling it must not (and does
//!    not — tests pin this) change a single byte of the stats snapshot,
//!    the trace, or the rendered tables.
//!
//! The profiler deliberately never touches virtual time and the sampler
//! deliberately never touches the wall clock: the paper's numbers stay a
//! pure function of the simulation with the observatory fully armed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::executor::Sim;
use crate::stats::StatsRegistry;
use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Wall-clock phase profiler
// ---------------------------------------------------------------------------

/// Worker id reported for threads that never called [`set_worker`] (the
/// process's main/orchestrating thread).
pub const MAIN_THREAD: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every closed phase, from every thread, in closing order. A run closes
/// a handful of phases, so one lock per record is nowhere near contended.
static LOG: Mutex<Vec<PhaseRecord>> = Mutex::new(Vec::new());

thread_local! {
    static WORKER: Cell<u32> = const { Cell::new(MAIN_THREAD) };
}

/// One closed wall-clock phase span recorded on some thread.
#[derive(Clone, Debug)]
pub struct PhaseRecord {
    /// Phase name (`"run.drive"`, `"runner.pickup"`, ...).
    pub name: &'static str,
    /// Optional free-form label (e.g. the run id a `run.drive` executed).
    pub label: Option<Box<str>>,
    /// Worker id ([`set_worker`]), or [`MAIN_THREAD`].
    pub worker: u32,
    /// Wall-clock bounds in nanoseconds since the profiler epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations performed by this thread while the span was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl PhaseRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Arms (or disarms) the wall-clock profiler for the whole process. The
/// epoch is pinned on the first enable so record timestamps from every
/// thread share one origin. Cheap to call; recording while disabled is a
/// single relaxed atomic load.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ALLOC_COUNTING.store(on, Ordering::Relaxed);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_nanos() as u64)
        .unwrap_or(0)
}

/// Tags the current thread as worker `k` for subsequent records. Threads
/// that never call this report as [`MAIN_THREAD`].
pub fn set_worker(k: u32) {
    WORKER.with(|w| w.set(k));
}

/// An open wall-clock phase on the current thread; recording happens on
/// drop. Returned by [`phase`] / [`phase_labeled`].
pub struct PhaseGuard {
    name: &'static str,
    label: Option<Box<str>>,
    start_ns: u64,
    allocs0: u64,
    bytes0: u64,
    /// Disarmed guards (profiler off at open) record nothing on drop.
    armed: bool,
}

/// Opens the wall-clock phase `name` on this thread, closed when the
/// returned guard drops. Zero-cost (one atomic load) while the profiler
/// is disabled.
pub fn phase(name: &'static str) -> PhaseGuard {
    phase_inner(name, None)
}

/// Like [`phase`], with a free-form label attached to the record (e.g.
/// the id of the run a `run.drive` phase executed).
pub fn phase_labeled(name: &'static str, label: &str) -> PhaseGuard {
    phase_inner(name, Some(label.into()))
}

fn phase_inner(name: &'static str, label: Option<Box<str>>) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            name,
            label: None,
            start_ns: 0,
            allocs0: 0,
            bytes0: 0,
            armed: false,
        };
    }
    let (allocs0, bytes0) = thread_alloc_counts();
    PhaseGuard {
        name,
        label,
        // Snapshot the clock *after* the label allocation so the span
        // excludes the guard's own setup.
        start_ns: now_ns(),
        allocs0,
        bytes0,
        armed: true,
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = now_ns();
        let (allocs1, bytes1) = thread_alloc_counts();
        let rec = PhaseRecord {
            name: self.name,
            label: self.label.take(),
            worker: WORKER.try_with(Cell::get).unwrap_or(MAIN_THREAD),
            start_ns: self.start_ns,
            end_ns,
            allocs: allocs1.saturating_sub(self.allocs0),
            alloc_bytes: bytes1.saturating_sub(self.bytes0),
        };
        // No panic here: a guard may drop during a panic's unwind. A
        // poisoned log still holds well-formed records.
        LOG.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }
}

/// Drains every record logged so far, sorted by `(worker, start)` so
/// reports are stable regardless of which thread closed first.
pub fn take_records() -> Vec<PhaseRecord> {
    let mut records = std::mem::take(&mut *LOG.lock().unwrap_or_else(|e| e.into_inner()));
    records.sort_by_key(|r| (r.worker, r.start_ns, r.end_ns));
    records
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `(allocations, bytes)` performed by this thread since it started, as
/// counted by [`CountingAlloc`]. Zeros unless the binary installed the
/// counting allocator and the profiler has been enabled at least once.
pub fn thread_alloc_counts() -> (u64, u64) {
    let count = ALLOC_COUNT.try_with(Cell::get).unwrap_or(0);
    let bytes = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    (count, bytes)
}

/// Bytes this thread allocated and has not freed, as counted by
/// [`CountingAlloc`] since the profiler was enabled — a level to compare
/// with an earlier reading of itself (memory allocated before counting
/// began and freed after it reads as negative).
pub fn thread_live_bytes() -> i64 {
    let allocated = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    let freed = FREED_BYTES.try_with(Cell::get).unwrap_or(0);
    allocated as i64 - freed as i64
}

/// A [`std::alloc::System`] wrapper that counts per-thread allocation
/// traffic for the profiler. Install it in a binary's root:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: simkit::perfmon::CountingAlloc = simkit::perfmon::CountingAlloc;
/// ```
///
/// Until the profiler is first enabled the counting branch is a single
/// relaxed load, so uninstrumented runs pay nothing measurable. Counters
/// are plain thread-local `Cell`s (no allocation, no locking), safe to
/// bump from inside the allocator itself.
pub struct CountingAlloc;

// SAFETY: delegates allocation to `System` verbatim; the bookkeeping
// touches only const-initialized thread-local `Cell`s, which never
// allocate or unwind.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        }
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            let _ = FREED_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        }
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
            let grown = new_size.saturating_sub(layout.size()) as u64;
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + grown));
            let shrunk = layout.size().saturating_sub(new_size) as u64;
            let _ = FREED_BYTES.try_with(|c| c.set(c.get() + shrunk));
        }
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

// ---------------------------------------------------------------------------
// Virtual-time telemetry sampler
// ---------------------------------------------------------------------------

/// One metric's sampled time series: `(virtual ns, value)` points, sparse
/// (a point is recorded only when the value changed since the previous
/// sample, plus the first sighting), ascending in time.
pub type Series = (String, Vec<(u64, f64)>);

struct TelemetryInner {
    series: RefCell<Vec<SeriesSlot>>,
    /// `name` → index into `series`, so each tick is a lookup per metric,
    /// not a re-sort.
    index: RefCell<std::collections::HashMap<String, usize>>,
    sample_every_ns: Cell<u64>,
    samples: Cell<u64>,
    active: Cell<bool>,
    truncated: Cell<bool>,
}

struct SeriesSlot {
    name: String,
    last: f64,
    points: Vec<(u64, f64)>,
}

/// Per-[`Sim`] telemetry store (`sim.telemetry()`); cheap to clone.
/// Inert until [`Telemetry::start`] spawns the sampling task.
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<TelemetryInner>,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        Telemetry {
            inner: Rc::new(TelemetryInner {
                series: RefCell::new(Vec::new()),
                index: RefCell::new(std::collections::HashMap::new()),
                sample_every_ns: Cell::new(0),
                samples: Cell::new(0),
                active: Cell::new(false),
                truncated: Cell::new(false),
            }),
        }
    }

    /// Spawns the sampling task on `sim`: every `every` of *virtual* time
    /// it snapshots all numeric registry metrics into this store, up to
    /// `max_samples` ticks (a bound, so a deadlocked simulation still
    /// quiesces and a runaway run can't produce an unbounded timeline;
    /// hitting it sets [`Telemetry::truncated`]).
    ///
    /// The sampler is an observer: it reads metrics and virtual time and
    /// writes neither, so every other output of the run is byte-identical
    /// with sampling on or off.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero or the sampler was already started.
    pub fn start(&self, sim: &Sim, every: SimDuration, max_samples: u64) {
        assert!(!every.is_zero(), "telemetry sample interval must be > 0");
        assert!(
            !self.inner.active.get(),
            "telemetry sampler already started"
        );
        self.inner.active.set(true);
        self.inner.sample_every_ns.set(every.as_nanos());
        let tele = self.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            let stats = sim2.stats().clone();
            loop {
                if tele.inner.samples.get() >= max_samples {
                    tele.inner.truncated.set(true);
                    return;
                }
                tele.sample_now(&stats, sim2.now().as_nanos());
                sim2.sleep(every).await;
            }
        });
    }

    /// Whether [`Telemetry::start`] has been called on this store.
    pub fn is_active(&self) -> bool {
        self.inner.active.get()
    }

    /// The configured sampling interval in virtual nanoseconds (0 before
    /// [`Telemetry::start`]).
    pub fn sample_every_ns(&self) -> u64 {
        self.inner.sample_every_ns.get()
    }

    /// Number of sampling ticks taken so far.
    pub fn samples(&self) -> u64 {
        self.inner.samples.get()
    }

    /// Whether the sampler stopped early at its `max_samples` bound.
    pub fn truncated(&self) -> bool {
        self.inner.truncated.get()
    }

    fn sample_now(&self, stats: &StatsRegistry, t_ns: u64) {
        self.inner.samples.set(self.inner.samples.get() + 1);
        let mut series = self.inner.series.borrow_mut();
        let mut index = self.inner.index.borrow_mut();
        stats.for_each_numeric(|name, value| match index.get(name) {
            Some(&i) => {
                let slot = &mut series[i];
                if slot.last != value {
                    slot.last = value;
                    slot.points.push((t_ns, value));
                }
            }
            None => {
                index.insert(name.to_string(), series.len());
                series.push(SeriesSlot {
                    name: name.to_string(),
                    last: value,
                    points: vec![(t_ns, value)],
                });
            }
        });
    }

    /// Drains the sampled series, sorted by metric name (the sampling
    /// order is registration order, which is deterministic but not
    /// alphabetical; sorting keeps exports diff-friendly).
    pub fn take_series(&self) -> Vec<Series> {
        self.inner.index.borrow_mut().clear();
        let mut slots = std::mem::take(&mut *self.inner.series.borrow_mut());
        slots.sort_by(|a, b| a.name.cmp(&b.name));
        slots.into_iter().map(|s| (s.name, s.points)).collect()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::sync::MutexGuard;

    /// The enable flag and the record log are process-global, and
    /// the harness runs tests on parallel threads: tests that set one or
    /// drain the other must not interleave. A panic in one must not fail
    /// the next, so a poisoned lock is taken anyway (it guards no data).
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn globals() -> MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn phases_record_on_named_workers_and_merge() {
        let _serialize = globals();
        set_enabled(true);
        let _ = take_records(); // Discard records from other tests.
        {
            let _g = phase("test.outer");
            std::thread::scope(|s| {
                s.spawn(|| {
                    set_worker(3);
                    drop(phase_labeled("test.inner", "run/x"));
                });
            });
        }
        let records = take_records();
        set_enabled(false);
        let inner = records.iter().find(|r| r.name == "test.inner").unwrap();
        assert_eq!(inner.worker, 3);
        assert_eq!(inner.label.as_deref(), Some("run/x"));
        let outer = records.iter().find(|r| r.name == "test.outer").unwrap();
        assert_eq!(outer.worker, MAIN_THREAD);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _serialize = globals();
        set_enabled(false);
        drop(phase("test.ghost"));
        assert!(
            take_records().iter().all(|r| r.name != "test.ghost"),
            "disabled profiler must not record"
        );
    }

    #[test]
    fn sampler_records_changing_series_without_perturbing_stats() {
        let run = |sample: bool| {
            let sim = Sim::new();
            if sample {
                sim.telemetry()
                    .start(&sim, SimDuration::from_millis(1), 1000);
            }
            let c = sim.stats().counter("t.count");
            let s = sim.clone();
            sim.run_until(async move {
                for _ in 0..5 {
                    c.inc();
                    s.sleep(SimDuration::from_millis(2)).await;
                }
            });
            (sim.stats().to_json(), sim.telemetry().take_series())
        };
        let (stats_off, series_off) = run(false);
        let (stats_on, series_on) = run(true);
        assert_eq!(stats_off, stats_on, "sampling perturbed the metrics");
        assert!(series_off.is_empty());
        let (name, points) = &series_on[0];
        assert_eq!(name, "t.count");
        assert!(
            points.len() >= 5,
            "counter changes were sampled: {points:?}"
        );
        // Change-only: values strictly increase across recorded points.
        assert!(points.windows(2).all(|w| w[0].1 < w[1].1));
        // Virtual timestamps, ascending.
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sampler_stops_at_its_cap() {
        let sim = Sim::new();
        sim.telemetry().start(&sim, SimDuration::from_millis(1), 3);
        sim.stats().counter("x").inc();
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_millis(10)).await;
        });
        assert!(sim.telemetry().samples() <= 3);
    }

    #[test]
    fn identical_runs_sample_identical_series() {
        let run = || {
            let sim = Sim::new();
            sim.telemetry()
                .start(&sim, SimDuration::from_millis(1), 1000);
            let g = sim.stats().gauge("t.g");
            let s = sim.clone();
            sim.run_until(async move {
                for i in 0..4 {
                    g.set(i as f64);
                    s.sleep(SimDuration::from_millis(3)).await;
                }
            });
            sim.telemetry().take_series()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for ((na, pa), (nb, pb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(pa, pb);
        }
    }
}
