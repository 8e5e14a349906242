//! A deterministic, virtual-time-aware metrics registry.
//!
//! The paper's whole argument is quantitative — seeks saved, clusters
//! formed, read-ahead hits — so every layer of the stack needs a cheap
//! way to count what it does. The registry lives on [`Sim`](crate::Sim)
//! (`sim.stats()`), which every component already receives at
//! construction, so no extra handle threading is needed.
//!
//! Four metric kinds:
//!
//! - [`Counter`] — monotonic `u64` (disk seeks, cache hits).
//! - [`Gauge`] — instantaneous `f64` (dirty bytes outstanding).
//! - [`Histogram`] — fixed upper-bound buckets over `u64` observations
//!   (seek distances, cluster sizes), plus count/sum/min/max.
//! - [`TimeWeighted`] — a value integrated over **virtual** time, for
//!   means like disk-queue depth; wall clocks are never consulted.
//!
//! Handles are `Rc`-backed and cheap to clone: register once at
//! construction, record on the hot path without any name lookup.
//! Registration is idempotent — asking for an existing name returns the
//! same underlying metric, so independent components may share one
//! (e.g. two mounts of the same filesystem type).
//!
//! Snapshots serialize to JSON with sorted keys and no wall-clock or
//! pointer-derived content, so two identical simulations produce
//! byte-identical snapshots. The schema is documented in DESIGN.md
//! ("Observability") and asserted stable by tests.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use crate::executor::TimeHandle;
use crate::json;
use crate::time::{SimDuration, SimTime};
use crate::trace::Recorder;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// An instantaneous value; last write wins.
#[derive(Clone)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    pub fn add(&self, d: f64) {
        self.0.set(self.0.get() + d);
    }

    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

struct HistogramInner {
    /// Inclusive upper bounds, strictly increasing. Observation `v` lands
    /// in the first bucket with `v <= edges[i]`; larger values land in an
    /// implicit overflow bucket, so `counts.len() == edges.len() + 1`.
    edges: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// A fixed-bucket histogram over `u64` observations.
#[derive(Clone)]
pub struct Histogram(Rc<RefCell<HistogramInner>>);

impl Histogram {
    pub fn observe(&self, v: u64) {
        let mut h = self.0.borrow_mut();
        let i = h.edges.partition_point(|&e| e < v);
        h.counts[i] += 1;
        h.count += 1;
        h.sum += v;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    pub fn sum(&self) -> u64 {
        self.0.borrow().sum
    }

    /// Mean observation, or 0.0 before the first one.
    pub fn mean(&self) -> f64 {
        let h = self.0.borrow();
        if h.count == 0 {
            0.0
        } else {
            h.sum as f64 / h.count as f64
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.borrow().counts.clone()
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket containing the target rank — the classic
    /// fixed-bucket readback. The first bucket interpolates up from the
    /// observed minimum and the overflow bucket toward the observed
    /// maximum, so estimates never leave `[min, max]`. Returns 0.0 before
    /// the first observation.
    pub fn quantile(&self, q: f64) -> f64 {
        let h = self.0.borrow();
        if h.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * h.count as f64;
        let mut cum = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum += c;
            if cum as f64 >= target {
                let lo = if i == 0 {
                    h.min
                } else {
                    h.edges[i - 1].max(h.min)
                };
                let hi = if i < h.edges.len() {
                    h.edges[i].min(h.max)
                } else {
                    h.max
                };
                let (lo, hi) = (lo as f64, (hi as f64).max(lo as f64));
                let frac = ((target - prev as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        h.max as f64 // Unreachable for q <= 1.0, but keep it total.
    }

    /// Median estimate ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

struct TimeWeightedInner {
    time: TimeHandle,
    started: SimTime,
    last_change: SimTime,
    value: f64,
    /// Integral of the value over virtual nanoseconds, up to `last_change`.
    area: f64,
    peak: f64,
}

impl TimeWeightedInner {
    fn settle(&mut self) {
        let now = self.time.now();
        let dt = now.saturating_duration_since(self.last_change);
        self.area += self.value * dt.as_nanos() as f64;
        self.last_change = now;
    }
}

/// A value whose **virtual-time-weighted** mean matters more than its
/// current reading — e.g. disk-queue depth. `add(±1)` on enqueue/dequeue
/// and the registry reports the mean depth over the whole run.
#[derive(Clone)]
pub struct TimeWeighted(Rc<RefCell<TimeWeightedInner>>);

impl TimeWeighted {
    pub fn set(&self, v: f64) {
        let mut t = self.0.borrow_mut();
        t.settle();
        t.value = v;
        t.peak = t.peak.max(v);
    }

    pub fn add(&self, d: f64) {
        let v = self.0.borrow().value + d;
        self.set(v);
    }

    pub fn value(&self) -> f64 {
        self.0.borrow().value
    }

    pub fn peak(&self) -> f64 {
        self.0.borrow().peak
    }

    /// Mean over `[registration, now]` in virtual time; the current value
    /// if no time has elapsed.
    pub fn mean(&self) -> f64 {
        let mut t = self.0.borrow_mut();
        t.settle();
        let span = t.last_change.saturating_duration_since(t.started);
        if span == SimDuration::ZERO {
            t.value
        } else {
            t.area / span.as_nanos() as f64
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    TimeWeighted(TimeWeighted),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::TimeWeighted(_) => "time_weighted",
        }
    }
}

/// An interned metric base name (see [`StatsRegistry::intern`]): a small
/// integer standing in for a `&'static str` so labelled hot-path lookups
/// never format or hash a `String`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NameId(u32);

/// Identity hasher for pre-packed `u64` keys: the `(NameId, stream)` pair
/// is already a well-distributed small integer, so SipHash would be pure
/// overhead on the per-I/O metric path.
#[derive(Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("packed keys hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        // Cheap integer scramble (splitmix64 finalizer) so sequential
        // stream ids don't all land in neighbouring buckets.
        let mut z = n.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct RegistryInner {
    time: TimeHandle,
    metrics: RefCell<BTreeMap<String, Metric>>,
    recorders: RefCell<HashMap<TypeId, Box<dyn Any>>>,
    /// Next stream label handed out by [`StatsRegistry::alloc_stream`].
    /// Stream 0 is reserved for untagged (background/metadata) I/O.
    next_stream: Cell<u32>,
    /// Interned base names, indexed by [`NameId`].
    interned: RefCell<Vec<&'static str>>,
    /// Reverse map for [`StatsRegistry::intern`] idempotence.
    interned_ids: RefCell<HashMap<&'static str, u32>>,
    /// `(NameId, stream)` → metric handle, keyed by the packed pair.
    /// This is the hot-path cache: after first registration a labelled
    /// lookup is one trivial-hash probe with no allocation.
    labelled: RefCell<HashMap<u64, Metric, BuildHasherDefault<PackedKeyHasher>>>,
}

fn packed_key(name: NameId, stream: u32) -> u64 {
    ((name.0 as u64) << 32) | stream as u64
}

/// The per-[`Sim`](crate::Sim) metrics registry. Obtained with
/// `sim.stats()`; cheap to clone.
#[derive(Clone)]
pub struct StatsRegistry {
    inner: Rc<RegistryInner>,
}

impl StatsRegistry {
    pub(crate) fn new(time: TimeHandle) -> StatsRegistry {
        StatsRegistry {
            inner: Rc::new(RegistryInner {
                time,
                metrics: RefCell::new(BTreeMap::new()),
                recorders: RefCell::new(HashMap::new()),
                next_stream: Cell::new(1),
                interned: RefCell::new(Vec::new()),
                interned_ids: RefCell::new(HashMap::new()),
                labelled: RefCell::new(HashMap::default()),
            }),
        }
    }

    /// Interns `base`, returning a small id usable with the labelled
    /// fast-path accessors ([`StatsRegistry::stream_counter_id`],
    /// [`StatsRegistry::stream_histogram_id`]). Idempotent: interning the
    /// same name twice returns the same id. Intern once at component
    /// construction; the id is `Copy` and never allocates afterwards.
    pub fn intern(&self, base: &'static str) -> NameId {
        if let Some(&id) = self.inner.interned_ids.borrow().get(base) {
            return NameId(id);
        }
        let mut names = self.inner.interned.borrow_mut();
        let id = names.len() as u32;
        names.push(base);
        self.inner.interned_ids.borrow_mut().insert(base, id);
        NameId(id)
    }

    /// The string `base` was interned from.
    pub fn interned_name(&self, name: NameId) -> &'static str {
        self.inner.interned.borrow()[name.0 as usize]
    }

    fn labelled_metric(
        &self,
        name: NameId,
        stream: u32,
        slow: impl FnOnce(&'static str) -> Metric,
    ) -> Metric {
        let key = packed_key(name, stream);
        if let Some(m) = self.inner.labelled.borrow().get(&key) {
            return m.clone();
        }
        // First touch of this (name, stream) pair: register through the
        // normal string path (formats `base{stream=N}` once), then cache
        // the handle under the packed key.
        let base = self.inner.interned.borrow()[name.0 as usize];
        let metric = slow(base);
        self.inner.labelled.borrow_mut().insert(key, metric.clone());
        metric
    }

    /// [`StatsRegistry::stream_counter`] over an interned base name: after
    /// the first call per `(name, stream)` pair this is one trivial-hash
    /// table probe — no `format!`, no `String` hashing.
    pub fn stream_counter_id(&self, name: NameId, stream: u32) -> Counter {
        match self.labelled_metric(name, stream, |base| {
            Metric::Counter(self.stream_counter(base, stream))
        }) {
            Metric::Counter(c) => c,
            other => panic!("labelled metric is a {}, not a counter", other.kind()),
        }
    }

    /// [`StatsRegistry::stream_histogram`] over an interned base name; same
    /// fast path as [`StatsRegistry::stream_counter_id`].
    pub fn stream_histogram_id(&self, name: NameId, stream: u32, edges: &[u64]) -> Histogram {
        match self.labelled_metric(name, stream, |base| {
            Metric::Histogram(self.stream_histogram(base, stream, edges))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("labelled metric is a {}, not a histogram", other.kind()),
        }
    }

    /// Allocates the next stream label. Deterministic: ids are handed out
    /// in construction order, starting at 1 (0 is the untagged stream used
    /// for background and metadata I/O).
    pub fn alloc_stream(&self) -> u32 {
        let id = self.inner.next_stream.get();
        self.inner.next_stream.set(id + 1);
        id
    }

    /// Registers (or retrieves) a counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter(Rc::new(Cell::new(0))))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or retrieves) a gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge(Rc::new(Cell::new(0.0))))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or retrieves) a histogram with the given inclusive
    /// upper-bound bucket `edges` (strictly increasing, non-empty). When
    /// the name already exists its original edges are kept; callers are
    /// expected to agree on them.
    pub fn histogram(&self, name: &str, edges: &[u64]) -> Histogram {
        assert!(
            !edges.is_empty(),
            "histogram {name:?} needs at least one edge"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} edges must be strictly increasing"
        );
        let make = || {
            Metric::Histogram(Histogram(Rc::new(RefCell::new(HistogramInner {
                edges: edges.to_vec(),
                counts: vec![0; edges.len() + 1],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }))))
        };
        match self.register(name, make) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Registers (or retrieves) a time-weighted value named `name`,
    /// starting at 0.0 from the current virtual instant.
    pub fn time_weighted(&self, name: &str) -> TimeWeighted {
        let make = || {
            let now = self.inner.time.now();
            Metric::TimeWeighted(TimeWeighted(Rc::new(RefCell::new(TimeWeightedInner {
                time: self.inner.time.clone(),
                started: now,
                last_change: now,
                value: 0.0,
                area: 0.0,
                peak: 0.0,
            }))))
        };
        match self.register(name, make) {
            Metric::TimeWeighted(t) => t,
            other => panic!("metric {name:?} is a {}, not time-weighted", other.kind()),
        }
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.inner.metrics.borrow_mut();
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The registry name of metric `base` carrying `label=value`:
    /// `base{label=N}`. Labelled metrics live in the same flat namespace
    /// as everything else, so snapshots stay sorted and deterministic.
    /// Two families are in use: `stream=` (per-file I/O attribution) and
    /// `spindle=` (per-leg attribution on a volume).
    pub fn labelled_name(base: &str, label: &str, value: u32) -> String {
        format!("{base}{{{label}={value}}}")
    }

    /// Registers (or retrieves) the counter `base{label=N}`.
    pub fn labelled_counter(&self, base: &str, label: &str, value: u32) -> Counter {
        self.counter(&Self::labelled_name(base, label, value))
    }

    /// Every `(value, count)` pair registered under `base{label=N}`,
    /// sorted by label value. Intended for reports and tests.
    pub fn labelled_counter_values(&self, base: &str, label: &str) -> Vec<(u32, u64)> {
        let prefix = format!("{base}{{{label}=");
        let map = self.inner.metrics.borrow();
        let mut out: Vec<(u32, u64)> = map
            .iter()
            .filter_map(|(name, metric)| {
                let rest = name.strip_prefix(&prefix)?.strip_suffix('}')?;
                let value: u32 = rest.parse().ok()?;
                match metric {
                    Metric::Counter(c) => Some((value, c.get())),
                    _ => None,
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Sum of every counter registered under `base{label=N}`.
    pub fn labelled_counter_sum(&self, base: &str, label: &str) -> u64 {
        self.labelled_counter_values(base, label)
            .iter()
            .map(|(_, v)| v)
            .sum()
    }

    /// The registry name of metric `base` labelled with `stream`:
    /// `base{stream=N}`.
    pub fn stream_name(base: &str, stream: u32) -> String {
        Self::labelled_name(base, "stream", stream)
    }

    /// Registers (or retrieves) the per-stream counter `base{stream=N}`.
    pub fn stream_counter(&self, base: &str, stream: u32) -> Counter {
        self.labelled_counter(base, "stream", stream)
    }

    /// Registers (or retrieves) the per-stream histogram `base{stream=N}`.
    pub fn stream_histogram(&self, base: &str, stream: u32, edges: &[u64]) -> Histogram {
        self.histogram(&Self::stream_name(base, stream), edges)
    }

    /// Every `(stream, value)` pair registered under `base{stream=N}`,
    /// sorted by stream id. Intended for reports and tests.
    pub fn stream_counter_values(&self, base: &str) -> Vec<(u32, u64)> {
        self.labelled_counter_values(base, "stream")
    }

    /// Sum of every per-stream counter registered under `base{stream=N}`.
    pub fn stream_counter_sum(&self, base: &str) -> u64 {
        self.labelled_counter_sum(base, "stream")
    }

    /// `(count, sum)` of a histogram by name, or `None` if absent. Like
    /// [`StatsRegistry::counter_value`], meant for tests and reports.
    pub fn histogram_totals(&self, name: &str) -> Option<(u64, u64)> {
        match self.inner.metrics.borrow().get(name) {
            Some(Metric::Histogram(h)) => Some((h.count(), h.sum())),
            _ => None,
        }
    }

    /// The shared, type-indexed [`Recorder`] for event type `E`: every
    /// call with the same `E` returns a clone of one underlying log, so
    /// experiments no longer hand-thread `Recorder::new(&sim)` clones.
    pub fn recorder<E: 'static>(&self) -> Recorder<E> {
        let mut map = self.inner.recorders.borrow_mut();
        let slot = map
            .entry(TypeId::of::<Recorder<E>>())
            .or_insert_with(|| Box::new(Recorder::<E>::with_time(self.inner.time.clone())));
        slot.downcast_ref::<Recorder<E>>()
            .expect("recorder typemap entry has the keyed type")
            .clone()
    }

    /// Reads a counter's value by name (0 if absent). Intended for tests
    /// and snapshot plumbing, not hot paths.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.inner.metrics.borrow().get(name) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Visits every metric as a single `f64` reading, in sorted-name
    /// order: counters and histogram counts as totals, gauges and
    /// time-weighted values as their current reading. This is the
    /// telemetry sampler's view of the registry — a cheap scalar per
    /// metric, no JSON, no allocation beyond the callback's own.
    pub fn for_each_numeric(&self, mut f: impl FnMut(&str, f64)) {
        let map = self.inner.metrics.borrow();
        for (name, metric) in map.iter() {
            let v = match metric {
                Metric::Counter(c) => c.get() as f64,
                Metric::Gauge(g) => g.get(),
                Metric::Histogram(h) => h.count() as f64,
                Metric::TimeWeighted(t) => t.value(),
            };
            f(name, v);
        }
    }

    /// Serializes every metric to deterministic JSON: object keys are
    /// sorted (BTreeMap order), floats use Rust's shortest-roundtrip
    /// formatting, and nothing wall-clock- or address-derived is
    /// included. Schema: see DESIGN.md "Observability".
    pub fn to_json(&self) -> String {
        let map = self.inner.metrics.borrow();
        let mut out = String::from("{");
        for (section, kind) in [
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
            ("time_weighted", "time_weighted"),
        ] {
            json::key(&mut out, section);
            out.push('{');
            for (name, metric) in map.iter().filter(|(_, m)| m.kind() == kind) {
                json::key(&mut out, name);
                metric.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl Metric {
    /// Appends this metric's value to a registry snapshot.
    fn write_json(&self, out: &mut String) {
        match self {
            Metric::Counter(c) => {
                let _ = write!(out, "{}", c.get());
            }
            Metric::Gauge(g) => json::f64(out, g.get()),
            Metric::Histogram(h) => {
                let floats = [
                    ("mean", h.mean()),
                    ("p50", h.p50()),
                    ("p95", h.p95()),
                    ("p99", h.p99()),
                ];
                let inner = h.0.borrow();
                out.push_str("{\"edges\":");
                json::u64_array(out, &inner.edges);
                out.push_str(",\"counts\":");
                json::u64_array(out, &inner.counts);
                let min = if inner.count == 0 { 0 } else { inner.min };
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"min\":{min},\"max\":{}",
                    inner.count, inner.sum, inner.max,
                );
                f64_entries(out, &floats);
            }
            Metric::TimeWeighted(t) => {
                out.push('{');
                f64_entries(
                    out,
                    &[("last", t.value()), ("mean", t.mean()), ("peak", t.peak())],
                );
            }
        }
    }
}

/// Appends `"name":value` float entries and closes the object.
fn f64_entries(out: &mut String, entries: &[(&str, f64)]) {
    for &(name, v) in entries {
        json::key(out, name);
        json::f64(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use crate::{Sim, SimDuration};

    #[test]
    fn counter_and_gauge_roundtrip() {
        let sim = Sim::new();
        let c = sim.stats().counter("test.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying metric.
        assert_eq!(sim.stats().counter("test.count").get(), 5);
        let g = sim.stats().gauge("test.gauge");
        g.set(1.5);
        g.add(-0.5);
        assert_eq!(g.get(), 1.0);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let sim = Sim::new();
        let h = sim.stats().histogram("test.hist", &[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        // v <= 1 → bucket 0; 1 < v <= 4 → bucket 1; 4 < v <= 16 → bucket 2;
        // v > 16 → overflow.
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1045);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let sim = Sim::new();
        let h = sim.stats().histogram("test.q", &[10, 100, 1000]);
        assert_eq!(h.p50(), 0.0, "empty histogram reads 0");
        // 100 observations spread 1..=100: half land in (0,10], half in
        // (10,100].
        for v in 1..=100u64 {
            h.observe(v.min(10) * if v <= 50 { 1 } else { 10 });
        }
        // 50 observations in bucket 0 (min=1..10), 50 in bucket 1 (=100).
        let p50 = h.p50();
        assert!(
            (1.0..=10.0).contains(&p50),
            "p50 within first bucket: {p50}"
        );
        let p99 = h.p99();
        assert!(
            (10.0..=100.0).contains(&p99),
            "p99 within second bucket: {p99}"
        );
        // Quantiles never leave [min, max].
        assert!(h.quantile(0.0) >= 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        // Overflow bucket clamps to the observed max.
        let o = sim.stats().histogram("test.over", &[2]);
        o.observe(50);
        o.observe(70);
        assert_eq!(o.quantile(1.0), 70.0);
        assert!(o.p50() <= 70.0 && o.p50() >= 50.0);
        // Deterministic JSON includes the readbacks.
        let json = sim.stats().to_json();
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        let sim = Sim::new();
        sim.stats().histogram("bad", &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let sim = Sim::new();
        sim.stats().gauge("x");
        sim.stats().counter("x");
    }

    #[test]
    fn time_weighted_mean_integrates_virtual_time() {
        let sim = Sim::new();
        let depth = sim.stats().time_weighted("test.depth");
        let s = sim.clone();
        let d2 = depth.clone();
        sim.run_until(async move {
            d2.set(4.0); // 4 for the first 1 ms…
            s.sleep(SimDuration::from_millis(1)).await;
            d2.set(0.0); // …0 for the remaining 3 ms.
            s.sleep(SimDuration::from_millis(3)).await;
        });
        assert_eq!(depth.mean(), 1.0);
        assert_eq!(depth.peak(), 4.0);
        assert_eq!(depth.value(), 0.0);
    }

    #[test]
    fn json_snapshot_is_deterministic_and_sorted() {
        let build = || {
            let sim = Sim::new();
            // Register out of order; output must be sorted.
            sim.stats().counter("z.last").add(2);
            sim.stats().counter("a.first").inc();
            sim.stats().gauge("m.gauge").set(0.25);
            sim.stats().histogram("h.sizes", &[2, 8]).observe(3);
            let tw = sim.stats().time_weighted("q.depth");
            let s = sim.clone();
            sim.run_until(async move {
                tw.set(2.0);
                s.sleep(SimDuration::from_millis(1)).await;
            });
            sim.stats().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "identical runs produce byte-identical JSON");
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
        assert!(a.contains("\"h.sizes\":{\"edges\":[2,8],\"counts\":[0,1,0]"));
    }

    #[test]
    fn stream_ids_are_sequential_from_one() {
        let sim = Sim::new();
        assert_eq!(sim.stats().alloc_stream(), 1);
        assert_eq!(sim.stats().alloc_stream(), 2);
        let other = Sim::new();
        assert_eq!(other.stats().alloc_stream(), 1, "per-Sim allocator");
    }

    #[test]
    fn stream_counters_are_labelled_and_enumerable() {
        let sim = Sim::new();
        let st = sim.stats();
        st.stream_counter("disk.bytes", 2).add(10);
        st.stream_counter("disk.bytes", 0).add(5);
        st.stream_counter("disk.bytes", 11).add(1);
        st.counter("disk.bytes").add(99); // unlabelled sibling, not a stream
        st.stream_counter("other.bytes", 3).add(7);
        assert_eq!(
            st.stream_counter_values("disk.bytes"),
            vec![(0, 5), (2, 10), (11, 1)]
        );
        assert_eq!(st.stream_counter_sum("disk.bytes"), 16);
        assert_eq!(st.counter_value("disk.bytes{stream=2}"), 10);
        let json = st.to_json();
        assert!(json.contains("\"disk.bytes{stream=2}\":10"));
    }

    #[test]
    fn stream_histograms_share_a_namespace_per_stream() {
        let sim = Sim::new();
        let h = sim.stats().stream_histogram("c.len", 4, &[1, 8]);
        h.observe(6);
        let again = sim.stats().stream_histogram("c.len", 4, &[1, 8]);
        assert_eq!(again.count(), 1);
        assert_eq!(
            sim.stats().histogram_totals("c.len{stream=4}"),
            Some((1, 6))
        );
        assert_eq!(sim.stats().histogram_totals("absent"), None);
    }

    #[test]
    fn shared_recorder_keeps_take_semantics() {
        let sim = Sim::new();
        let rec = sim.recorder::<&'static str>();
        let rec2 = sim.recorder::<&'static str>();
        rec.record("one");
        rec2.record("two");
        // Both handles see one shared log, typed by E.
        assert_eq!(rec.events(), vec!["one", "two"]);
        let drained = rec.take();
        assert_eq!(drained.len(), 2);
        assert!(rec2.is_empty());
        // A different event type gets a different log.
        let other = sim.recorder::<u32>();
        other.record(7);
        assert_eq!(other.len(), 1);
        assert!(rec.is_empty());
    }
}
