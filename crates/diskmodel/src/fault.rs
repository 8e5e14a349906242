//! Deterministic fault injection: a [`FaultDevice`] wraps any
//! [`BlockDevice`] and fails requests according to a seeded, reproducible
//! plan.
//!
//! Four fault shapes, matching how real drives die:
//!
//! - **Latent media errors** (`media=`): an LBA range that always fails.
//!   The rest of the device keeps working — redundancy above (RAID-1
//!   mirror fallback, RAID-5 parity reconstruction) can still serve the
//!   data.
//! - **Transient errors** (`transient=`): a range that fails the first *N*
//!   requests touching it, then recovers — the case bounded retry exists
//!   for.
//! - **Spindle death** (`die=`): past a virtual instant the whole device
//!   answers [`IoStatus::DeviceGone`], including requests already in
//!   flight when it died.
//! - **Power cut** (`cut=`): not an error injected on the I/O path but a
//!   stopping point for the crash-consistency harness. The device journals
//!   every write; [`FaultDevice::crash_image`] replays the cut: writes
//!   that completed before it survive whole, writes in flight at the cut
//!   come back *torn* — a seeded prefix of their sectors, possibly empty
//!   (lost entirely).
//!
//! All randomness comes from [`simkit::SimRng`] seeded by the plan, so a
//! given `--faults` string produces byte-identical behavior on every run
//! at any `--jobs` count.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use simkit::{Sim, SimRng, SimTime};

use crate::device::{BlockDevice, SharedDevice};
use crate::disk::DiskStats;
use crate::ns;
use crate::request::{handle_pair, DiskOp, DiskRequest, IoHandle, IoResult, IoStatus};

/// Virtual time a drive spends discovering a media error before reporting
/// it: real drives retry internally (ECC passes, head re-reads) far longer
/// than a clean transfer takes. 5 ms ≈ a few revolutions of the modeled
/// spindle.
pub const FAULT_ERROR_LATENCY_NS: u64 = 5_000_000;

/// Virtual time for the host to decide a dead device is not answering — a
/// stand-in for the command timeout. Kept short so degraded-mode fallback
/// is visible but not dominant in the latency distributions.
pub const FAULT_GONE_LATENCY_NS: u64 = 1_000_000;

/// Why a `--faults` string was rejected. `Display` gives the exact
/// complaint the CLI prints before its usage text (same contract as
/// `volmgr`'s `SpecError`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FaultParseError {}

fn err(msg: impl Into<String>) -> FaultParseError {
    FaultParseError(msg.into())
}

/// Parses a virtual-time literal: a non-negative integer with an optional
/// `us`/`ms`/`s` suffix; bare numbers are milliseconds.
fn parse_time(s: &str) -> Result<SimTime, FaultParseError> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("us") {
        (d, 1_000u64)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1_000_000)
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err(format!(
            "bad time '{s}': want <int>[us|ms|s] (bare = ms)"
        )));
    }
    let n: u64 = digits
        .parse()
        .map_err(|_| err(format!("time '{s}' out of range")))?;
    n.checked_mul(mult)
        .map(SimTime::from_nanos)
        .ok_or_else(|| err(format!("time '{s}' out of range")))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, FaultParseError> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err(format!(
            "bad {what} '{s}': want a non-negative integer"
        )));
    }
    s.parse()
        .map_err(|_| err(format!("{what} '{s}' out of range")))
}

fn parse_u32(s: &str, what: &str) -> Result<u32, FaultParseError> {
    let v = parse_u64(s, what)?;
    u32::try_from(v).map_err(|_| err(format!("{what} '{s}' out of range")))
}

/// Splits `spindle:rest` at the first `:`.
fn split_spindle<'a>(s: &'a str, clause: &str) -> Result<(u32, &'a str), FaultParseError> {
    let (sp, rest) = s
        .split_once(':')
        .ok_or_else(|| err(format!("bad {clause} '{s}': want <spindle>:<range>")))?;
    Ok((parse_u32(sp, "spindle")?, rest))
}

/// Splits `lba+nsect`.
fn split_range(s: &str, clause: &str) -> Result<(u64, u32), FaultParseError> {
    let (lba, n) = s
        .split_once('+')
        .ok_or_else(|| err(format!("bad {clause} range '{s}': want <lba>+<nsect>")))?;
    let nsect = parse_u32(n, "sector count")?;
    if nsect == 0 {
        return Err(err(format!("bad {clause} range '{s}': zero-length range")));
    }
    Ok((parse_u64(lba, "lba")?, nsect))
}

/// A parsed, validated `--faults` plan for a whole array.
///
/// Grammar: comma-joined clauses, each one of
///
/// ```text
/// seed=<u64>                              rng seed for torn-write prefixes
/// media=<spindle>:<lba>+<nsect>           latent media error (permanent)
/// transient=<spindle>:<lba>+<nsect>x<n>   fails the first n touches, then heals
/// die=<spindle>@<time>                    whole-spindle death at a virtual time
/// cut=<time>                              power-cut instant for the crash harness
/// ```
///
/// Times are non-negative integers with an optional `us`/`ms`/`s` suffix;
/// bare numbers are milliseconds. The grammar is deliberately rigid: a
/// malformed plan must produce a precise complaint (exit 2 + usage), not a
/// guessed fault load.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// Seed for torn-write prefix lengths (default 0).
    pub seed: u64,
    /// Power-cut instant, if the plan has one.
    pub cut: Option<SimTime>,
    media: Vec<(u32, u64, u32)>,
    transient: Vec<(u32, u64, u32, u32)>,
    die: Vec<(u32, SimTime)>,
}

impl FaultPlan {
    /// Parses a `--faults` string. See the type-level grammar.
    pub fn parse(s: &str) -> Result<FaultPlan, FaultParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(err("empty fault plan"));
        }
        let mut plan = FaultPlan::default();
        let mut seen_seed = false;
        for clause in s.split(',') {
            let clause = clause.trim();
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| err(format!("bad clause '{clause}': want key=value")))?;
            match key {
                "seed" => {
                    if seen_seed {
                        return Err(err("duplicate seed clause"));
                    }
                    seen_seed = true;
                    plan.seed = parse_u64(val, "seed")?;
                }
                "media" => {
                    let (sp, range) = split_spindle(val, "media")?;
                    let (lba, nsect) = split_range(range, "media")?;
                    plan.media.push((sp, lba, nsect));
                }
                "transient" => {
                    let (sp, rest) = split_spindle(val, "transient")?;
                    let (range, count) = rest.rsplit_once('x').ok_or_else(|| {
                        err(format!("bad transient '{val}': want <lba>+<nsect>x<count>"))
                    })?;
                    let (lba, nsect) = split_range(range, "transient")?;
                    let count = parse_u32(count, "transient count")?;
                    if count == 0 {
                        return Err(err(format!("bad transient '{val}': zero count")));
                    }
                    plan.transient.push((sp, lba, nsect, count));
                }
                "die" => {
                    let (sp, at) = val
                        .split_once('@')
                        .ok_or_else(|| err(format!("bad die '{val}': want <spindle>@<time>")))?;
                    let sp = parse_u32(sp, "spindle")?;
                    if plan.die.iter().any(|&(d, _)| d == sp) {
                        return Err(err(format!("duplicate die clause for spindle {sp}")));
                    }
                    plan.die.push((sp, parse_time(at)?));
                }
                "cut" => {
                    if plan.cut.is_some() {
                        return Err(err("duplicate cut clause"));
                    }
                    plan.cut = Some(parse_time(val)?);
                }
                _ => {
                    return Err(err(format!(
                        "unknown fault clause '{key}' (want seed/media/transient/die/cut)"
                    )))
                }
            }
        }
        Ok(plan)
    }

    /// Faults addressed to spindle `k` (a single-disk setup is spindle 0).
    pub fn for_spindle(&self, k: u32) -> SpindleFaults {
        SpindleFaults {
            media: self
                .media
                .iter()
                .filter(|&&(sp, ..)| sp == k)
                .map(|&(_, lba, nsect)| (lba, nsect))
                .collect(),
            transient: self
                .transient
                .iter()
                .filter(|&&(sp, ..)| sp == k)
                .map(|&(_, lba, nsect, count)| (lba, nsect, count))
                .collect(),
            die_at: self.die.iter().find(|&&(sp, _)| sp == k).map(|&(_, at)| at),
        }
    }

    /// Highest spindle index any clause names, for validating the plan
    /// against the array width.
    pub fn max_spindle(&self) -> Option<u32> {
        self.media
            .iter()
            .map(|&(sp, ..)| sp)
            .chain(self.transient.iter().map(|&(sp, ..)| sp))
            .chain(self.die.iter().map(|&(sp, _)| sp))
            .max()
    }

    /// True when no clause injects I/O-path faults (the plan may still
    /// carry a `cut`).
    pub fn is_error_free(&self) -> bool {
        self.media.is_empty() && self.transient.is_empty() && self.die.is_empty()
    }
}

/// The faults one member device is configured with (see
/// [`FaultPlan::for_spindle`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpindleFaults {
    /// Permanent bad ranges: `(lba, nsect)`.
    pub media: Vec<(u64, u32)>,
    /// Self-healing ranges: `(lba, nsect, failures_before_recovery)`.
    pub transient: Vec<(u64, u32, u32)>,
    /// Virtual instant the whole spindle stops answering.
    pub die_at: Option<SimTime>,
}

impl SpindleFaults {
    /// True when this spindle has no faults at all.
    pub fn is_empty(&self) -> bool {
        self.media.is_empty() && self.transient.is_empty() && self.die_at.is_none()
    }
}

struct TransientRange {
    lba: u64,
    nsect: u32,
    remaining: Cell<u32>,
}

/// One write the journal remembers, for crash-image reconstruction.
struct JournalEntry {
    lba: u64,
    nsect: u32,
    data: Vec<u8>,
    finished_at: Cell<Option<SimTime>>,
}

/// A write to replay onto a fresh device when reconstructing post-crash
/// media state.
#[derive(Debug)]
pub struct ReplayWrite {
    /// Starting sector.
    pub lba: u64,
    /// Sectors actually persisted (≤ the original request; 0-sector torn
    /// writes are dropped from the image entirely).
    pub nsect: u32,
    /// Payload prefix covering `nsect` sectors.
    pub data: Vec<u8>,
    /// True when this write was in flight at the cut and survives only as
    /// a prefix.
    pub torn: bool,
}

struct FaultInner {
    sim: Sim,
    base: SharedDevice,
    media: Vec<(u64, u32)>,
    transient: RefCell<Vec<TransientRange>>,
    die_at: Cell<Option<SimTime>>,
    journal: Option<RefCell<Vec<JournalEntry>>>,
}

impl FaultInner {
    /// Checks the static fault tables for `[lba, lba+nsect)`. Permanent
    /// ranges win over transient ones; a transient hit burns one of the
    /// range's remaining failures.
    fn check_media(&self, lba: u64, nsect: u32) -> bool {
        let end = lba + nsect as u64;
        let overlaps = |flba: u64, fn_: u32| flba < end && lba < flba + fn_ as u64;
        if self.media.iter().any(|&(flba, fn_)| overlaps(flba, fn_)) {
            return true;
        }
        for t in self.transient.borrow().iter() {
            if overlaps(t.lba, t.nsect) && t.remaining.get() > 0 {
                t.remaining.set(t.remaining.get() - 1);
                return true;
            }
        }
        false
    }
}

/// A fault-injecting wrapper around any [`BlockDevice`]. See the module
/// docs for the fault model.
#[derive(Clone)]
pub struct FaultDevice {
    inner: Rc<FaultInner>,
    seed: u64,
}

impl FaultDevice {
    /// Wraps `base` with the given faults. No write journal: crash images
    /// are unavailable, but nothing is cloned on the write path.
    pub fn new(sim: &Sim, base: SharedDevice, faults: SpindleFaults, seed: u64) -> FaultDevice {
        Self::build(sim, base, faults, seed, false)
    }

    /// Wraps `base` with the given faults *and* journals every write so
    /// [`FaultDevice::crash_image`] can reconstruct post-power-cut media
    /// state. Costs one payload clone per write.
    pub fn with_journal(
        sim: &Sim,
        base: SharedDevice,
        faults: SpindleFaults,
        seed: u64,
    ) -> FaultDevice {
        Self::build(sim, base, faults, seed, true)
    }

    fn build(
        sim: &Sim,
        base: SharedDevice,
        faults: SpindleFaults,
        seed: u64,
        journal: bool,
    ) -> FaultDevice {
        FaultDevice {
            inner: Rc::new(FaultInner {
                sim: sim.clone(),
                base,
                media: faults.media,
                transient: RefCell::new(
                    faults
                        .transient
                        .into_iter()
                        .map(|(lba, nsect, count)| TransientRange {
                            lba,
                            nsect,
                            remaining: Cell::new(count),
                        })
                        .collect(),
                ),
                die_at: Cell::new(faults.die_at),
                journal: journal.then(|| RefCell::new(Vec::new())),
            }),
            seed,
        }
    }

    /// The wrapped device.
    pub fn base(&self) -> &SharedDevice {
        &self.inner.base
    }

    /// Schedules (or reschedules) whole-spindle death at `at`, on a device
    /// already in service. The `die=` clause of a `--faults` plan fixes the
    /// instant at construction; experiment drivers that key fault onset to
    /// workload progress (`iobench faults`) set it here instead. Requests
    /// in flight at `at` die with the spindle, exactly as with a planned
    /// death.
    pub fn schedule_death(&self, at: SimTime) {
        self.inner.die_at.set(Some(at));
    }

    /// Arms one more transient range at runtime: the next `count` requests
    /// touching `[lba, lba+nsect)` fail with a media error, then the range
    /// heals. Same semantics as a `transient=` plan clause.
    pub fn arm_transient(&self, lba: u64, nsect: u32, count: u32) {
        self.inner.transient.borrow_mut().push(TransientRange {
            lba,
            nsect,
            remaining: Cell::new(count),
        });
    }

    /// Reconstructs what the media holds after power dies at `cut`:
    /// writes that completed by then, in completion order, followed by
    /// seeded torn prefixes (possibly zero sectors — the write is lost)
    /// of writes still in flight, in submission order.
    ///
    /// Replay the returned writes onto a *fresh* device to get the
    /// post-crash state; the wrapped device's own store is not rewound.
    ///
    /// # Panics
    ///
    /// Panics if the device was built without a journal
    /// ([`FaultDevice::new`] instead of [`FaultDevice::with_journal`]).
    pub fn crash_image(&self, cut: SimTime) -> Vec<ReplayWrite> {
        let journal = self
            .inner
            .journal
            .as_ref()
            .expect("crash_image on a FaultDevice built without a journal")
            .borrow();
        let sector = self.inner.base.sector_size() as usize;
        // Durable writes first, ordered by completion (ties broken by
        // journal index — submission order — for determinism).
        let mut durable: Vec<(SimTime, usize)> = journal
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.finished_at.get() {
                Some(t) if t <= cut => Some((t, i)),
                _ => None,
            })
            .collect();
        durable.sort();
        let mut image: Vec<ReplayWrite> = durable
            .into_iter()
            .map(|(_, i)| {
                let e = &journal[i];
                ReplayWrite {
                    lba: e.lba,
                    nsect: e.nsect,
                    data: e.data.clone(),
                    torn: false,
                }
            })
            .collect();
        // Writes in flight at the cut persist only a seeded prefix of
        // their sectors; a zero-sector prefix means the write was lost.
        let mut rng = SimRng::new(self.seed ^ 0x746f_726e); // "torn"
        for e in journal.iter() {
            let in_flight = match e.finished_at.get() {
                None => true,
                Some(t) => t > cut,
            };
            if !in_flight {
                continue;
            }
            let kept = rng.gen_range(e.nsect as u64 + 1) as u32;
            if kept == 0 {
                continue;
            }
            image.push(ReplayWrite {
                lba: e.lba,
                nsect: kept,
                data: e.data[..kept as usize * sector].to_vec(),
                torn: true,
            });
        }
        image
    }
}

impl BlockDevice for FaultDevice {
    fn submit(&self, req: DiskRequest) -> IoHandle {
        let (handle, completion) = handle_pair();
        let inner = Rc::clone(&self.inner);
        self.inner.sim.spawn(async move {
            let s = inner.sim.stats();
            // A dead device never answers; the host's command timeout
            // turns silence into DeviceGone.
            if inner.die_at.get().is_some_and(|t| inner.sim.now() >= t) {
                inner.sim.sleep(ns(FAULT_GONE_LATENCY_NS)).await;
                s.counter("fault.injected{kind=gone}").inc();
                let now = inner.sim.now();
                completion.complete(IoResult::error(IoStatus::DeviceGone, req.data, now));
                return;
            }
            // Media faults fail the transfer before any data moves (a
            // failed write persists nothing); the drive burns its
            // internal-retry budget before admitting defeat.
            if inner.check_media(req.lba, req.nsect) {
                inner.sim.sleep(ns(FAULT_ERROR_LATENCY_NS)).await;
                s.counter("fault.injected{kind=media}").inc();
                let now = inner.sim.now();
                completion.complete(IoResult::error(IoStatus::MediaError, req.data, now));
                return;
            }
            // Journal the write before forwarding (the payload travels on
            // with the request). The index stays valid: the journal is
            // append-only.
            let jidx = match (&inner.journal, req.op) {
                (Some(j), DiskOp::Write) => {
                    let mut j = j.borrow_mut();
                    j.push(JournalEntry {
                        lba: req.lba,
                        nsect: req.nsect,
                        data: req.data.clone().unwrap_or_default(),
                        finished_at: Cell::new(None),
                    });
                    Some(j.len() - 1)
                }
                _ => None,
            };
            let res = inner.base.submit(req).wait().await;
            // In flight when the spindle died: the completion never
            // reached the host, which still gets its buffer back.
            if inner.die_at.get().is_some_and(|t| res.finished_at >= t) {
                s.counter("fault.injected{kind=gone}").inc();
                completion.complete(IoResult::error(
                    IoStatus::DeviceGone,
                    res.data,
                    res.finished_at,
                ));
                return;
            }
            if let (Some(j), Some(idx)) = (&inner.journal, jidx) {
                if res.status.is_ok() {
                    j.borrow()[idx].finished_at.set(Some(res.finished_at));
                }
            }
            completion.complete(res);
        });
        handle
    }

    fn sector_size(&self) -> u32 {
        self.inner.base.sector_size()
    }

    fn total_sectors(&self) -> u64 {
        self.inner.base.total_sectors()
    }

    fn sector_time_ns(&self) -> u64 {
        self.inner.base.sector_time_ns()
    }

    fn stats(&self) -> DiskStats {
        self.inner.base.stats()
    }

    fn reset_stats(&self) {
        self.inner.base.reset_stats()
    }

    fn queue_len(&self) -> usize {
        self.inner.base.queue_len()
    }

    fn shutdown(&self) {
        self.inner.base.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDeviceExt;
    use crate::disk::{Disk, DiskParams};
    use simkit::SimDuration;

    fn wrap(sim: &Sim, faults: SpindleFaults, journal: bool) -> (FaultDevice, Disk) {
        let disk = Disk::new(sim, DiskParams::small_test());
        let base: SharedDevice = Rc::new(disk.clone());
        let dev = if journal {
            FaultDevice::with_journal(sim, base, faults, 42)
        } else {
            FaultDevice::new(sim, base, faults, 42)
        };
        (dev, disk)
    }

    #[test]
    fn parse_full_grammar() {
        let p =
            FaultPlan::parse("seed=7,media=1:100+8,transient=0:50+4x3,die=2@250ms,cut=1s").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.cut, Some(SimTime::from_nanos(1_000_000_000)));
        assert_eq!(p.max_spindle(), Some(2));
        let s1 = p.for_spindle(1);
        assert_eq!(s1.media, vec![(100, 8)]);
        assert!(s1.transient.is_empty());
        let s0 = p.for_spindle(0);
        assert_eq!(s0.transient, vec![(50, 4, 3)]);
        let s2 = p.for_spindle(2);
        assert_eq!(s2.die_at, Some(SimTime::from_nanos(250_000_000)));
        assert!(p.for_spindle(3).is_empty());
    }

    #[test]
    fn parse_time_suffixes() {
        let p = FaultPlan::parse("cut=250").unwrap(); // bare = ms
        assert_eq!(p.cut, Some(SimTime::from_nanos(250_000_000)));
        let p = FaultPlan::parse("cut=90us").unwrap();
        assert_eq!(p.cut, Some(SimTime::from_nanos(90_000)));
        assert!(p.is_error_free());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "bogus=1",
            "media=1",
            "media=1:100",
            "media=1:100+0",
            "transient=0:50+4",
            "transient=0:50+4x0",
            "die=1",
            "die=1@abcms",
            "cut=1h",
            "seed=1,seed=2",
            "cut=1,cut=2",
            "die=1@5,die=1@9",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn latent_media_error_is_permanent_and_local() {
        let sim = Sim::new();
        let (dev, _) = wrap(
            &sim,
            SpindleFaults {
                media: vec![(100, 8)],
                ..Default::default()
            },
            false,
        );
        sim.run_until(async move {
            // Overlapping reads fail every time, even past EXT retries.
            assert_eq!(dev.try_read(104, 2).await, Err(IoStatus::MediaError));
            assert_eq!(dev.try_read(96, 8).await, Err(IoStatus::MediaError));
            // A failed write persists nothing and reports the error.
            assert_eq!(
                dev.try_write(100, 1, vec![9u8; 512]).await,
                Err(IoStatus::MediaError)
            );
            // Sectors outside the range still work.
            dev.write(0, 2, vec![5u8; 1024]).await;
            assert_eq!(dev.read(0, 2).await, vec![5u8; 1024]);
        });
    }

    #[test]
    fn transient_error_clears_under_retry() {
        let sim = Sim::new();
        let (dev, _) = wrap(
            &sim,
            SpindleFaults {
                transient: vec![(50, 4, 3)],
                ..Default::default()
            },
            false,
        );
        let s = sim.clone();
        sim.run_until(async move {
            // try_read retries up to EXT_RETRIES times, outlasting the
            // 3-failure budget.
            let got = dev.try_read(50, 4).await.unwrap();
            assert_eq!(got.len(), 4 * 512);
            // Healed: later reads succeed on the first attempt.
            let errs = s.stats().counter_value("fault.injected{kind=media}");
            dev.read(50, 4).await;
            assert_eq!(
                s.stats().counter_value("fault.injected{kind=media}"),
                errs,
                "healed range injected another error"
            );
        });
    }

    #[test]
    fn spindle_death_fails_everything_including_in_flight() {
        let sim = Sim::new();
        let die = SimTime::from_nanos(2_000_000); // 2 ms
        let (dev, _) = wrap(
            &sim,
            SpindleFaults {
                die_at: Some(die),
                ..Default::default()
            },
            false,
        );
        let s = sim.clone();
        sim.run_until(async move {
            // Long-running read submitted alive, completing after death.
            let spt = 64u32;
            let in_flight = dev.submit_read(0, spt * 3);
            let res = in_flight.wait().await;
            assert_eq!(res.status, IoStatus::DeviceGone);
            assert!(res.finished_at >= die);
            // Fully post-death submission fails too.
            assert!(s.now() >= die);
            assert_eq!(dev.try_read(0, 1).await, Err(IoStatus::DeviceGone));
        });
    }

    #[test]
    fn runtime_scheduled_death_and_transient_arming() {
        let sim = Sim::new();
        let (dev, _) = wrap(&sim, SpindleFaults::default(), false);
        let s = sim.clone();
        sim.run_until(async move {
            // Healthy until the driver arms a fault mid-run.
            dev.write(0, 1, vec![3u8; 512]).await;
            dev.arm_transient(0, 4, 1);
            assert_eq!(dev.try_read(0, 1).await.map(|d| d.len()), Ok(512));
            // One failure burned; the range healed under EXT retries.
            assert_eq!(s.stats().counter_value("fault.injected{kind=media}"), 1);
            // Death scheduled at "now" kills every later request.
            dev.schedule_death(s.now());
            assert_eq!(dev.try_read(0, 1).await, Err(IoStatus::DeviceGone));
        });
    }

    #[test]
    fn crash_image_keeps_durable_tears_in_flight() {
        let sim = Sim::new();
        let (dev, _) = wrap(&sim, SpindleFaults::default(), true);
        let d = dev.clone();
        let s = sim.clone();
        // First write completes well before the cut; second is submitted
        // just before it and cannot finish in time.
        let cut = sim.run_until(async move {
            d.write(0, 4, vec![1u8; 4 * 512]).await;
            let cut = s.now() + SimDuration::from_micros(100);
            let h = d.submit_write(100, 8, vec![2u8; 8 * 512]);
            h.wait().await;
            cut
        });
        let image = dev.crash_image(cut);
        assert_eq!(image[0].lba, 0);
        assert_eq!(image[0].nsect, 4);
        assert!(!image[0].torn);
        // The in-flight write either vanished or survives as a torn
        // prefix bounded by the original request.
        for w in &image[1..] {
            assert!(w.torn);
            assert!(w.nsect >= 1 && w.nsect <= 8);
            assert_eq!(w.data.len(), w.nsect as usize * 512);
        }
        // Determinism: same journal, same cut, same image.
        let again = dev.crash_image(cut);
        assert_eq!(image.len(), again.len());
        for (a, b) in image.iter().zip(again.iter()) {
            assert_eq!(
                (a.lba, a.nsect, a.torn, &a.data),
                (b.lba, b.nsect, b.torn, &b.data)
            );
        }
    }

    #[test]
    fn fault_free_wrapper_is_transparent() {
        let sim = Sim::new();
        let (dev, disk) = wrap(&sim, SpindleFaults::default(), false);
        sim.run_until(async move {
            let payload: Vec<u8> = (0..4 * 512).map(|i| (i % 241) as u8).collect();
            dev.write(8, 4, payload.clone()).await;
            assert_eq!(dev.read(8, 4).await, payload);
        });
        assert_eq!(disk.stats().writes, 1);
        assert_eq!(disk.stats().reads, 1);
    }
}
