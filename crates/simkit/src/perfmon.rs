//! Host-side allocation counting and the virtual-time telemetry sampler.
//!
//! Two independent pieces:
//!
//! 1. **Counting allocator** ([`CountingAlloc`]): a [`std::alloc::System`]
//!    wrapper that keeps per-thread allocation counters, read by
//!    [`thread_alloc_counts`] and [`thread_live_bytes`]. Tests that pin an
//!    allocation budget install it as their `#[global_allocator]`.
//!
//! 2. **Virtual-time telemetry sampler** ([`Telemetry`], per-[`Sim`]):
//!    a simulated task that periodically snapshots every numeric metric in
//!    the registry into per-run time series — cache occupancy, dirty
//!    pages, disk queue depth, throttle stalls — the continuous view the
//!    end-of-run snapshot can't give. Sampling only *reads* the registry
//!    and only *observes* virtual time, so enabling it must not (and does
//!    not — tests pin this) change a single byte of the stats snapshot,
//!    the trace, or the rendered tables.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::executor::Sim;
use crate::stats::StatsRegistry;
use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `(allocations, bytes)` performed by this thread since it started, as
/// counted by [`CountingAlloc`]. Zeros unless the binary installed the
/// counting allocator.
pub fn thread_alloc_counts() -> (u64, u64) {
    let count = ALLOC_COUNT.try_with(Cell::get).unwrap_or(0);
    let bytes = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    (count, bytes)
}

/// Bytes this thread allocated and has not freed, as counted by
/// [`CountingAlloc`] — a level to compare with an earlier reading of
/// itself (memory another thread allocated and this one freed reads as
/// negative).
pub fn thread_live_bytes() -> i64 {
    let allocated = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    let freed = FREED_BYTES.try_with(Cell::get).unwrap_or(0);
    allocated as i64 - freed as i64
}

fn count_alloc(size: usize) {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// A [`std::alloc::System`] wrapper that counts per-thread allocation
/// traffic. Install it in a binary's (or an integration test's) root:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: simkit::perfmon::CountingAlloc = simkit::perfmon::CountingAlloc;
/// ```
///
/// It counts whenever it is installed. Counters are plain thread-local
/// `Cell`s (no allocation, no locking), safe to bump from inside the
/// allocator itself.
pub struct CountingAlloc;

// SAFETY: delegates allocation to `System` verbatim; the bookkeeping
// touches only const-initialized thread-local `Cell`s, which never
// allocate or unwind.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc(layout.size());
        // `System` can hand back pages the kernel already zeroed; the
        // trait's default would write every byte.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        let _ = FREED_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + grown));
        let shrunk = layout.size().saturating_sub(new_size) as u64;
        let _ = FREED_BYTES.try_with(|c| c.set(c.get() + shrunk));
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

    #[test]
    fn counting_alloc_counts_every_entry_point() {
        use std::alloc::{GlobalAlloc, Layout};
        // Called directly on an allocator this test binary does not
        // install, so the counters move only by what these calls do. A
        // realloc counts as one allocation of the bytes it grew by.
        let a = CountingAlloc;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let (count0, bytes0) = thread_alloc_counts();
        let live0 = thread_live_bytes();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null());
            assert!(std::slice::from_raw_parts(z, 4096).iter().all(|&b| b == 0));
            let z = a.realloc(z, layout, 8192);
            assert!(!z.is_null());
            assert_eq!(thread_alloc_counts(), (count0 + 3, bytes0 + 3 * 4096));
            assert_eq!(thread_live_bytes(), live0 + 4096 + 8192);
            a.dealloc(p, layout);
            a.dealloc(z, Layout::from_size_align(8192, 8).unwrap());
        }
        assert_eq!(thread_live_bytes(), live0);
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
