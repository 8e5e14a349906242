//! The `iobench faults` experiment: end-to-end service under injected
//! faults — throughput and p99 read latency before, during, and after a
//! fault episode, for UFS and extentfs on RAID-0/1/5 arrays of
//! fault-wrapped spindles.
//!
//! The default matrix runs a built-in scenario per array personality:
//!
//! - **RAID-0** has no redundancy, so the episode is recoverable: a batch
//!   of transient media-error ranges is armed on spindle 0 mid-run. Every
//!   hit surfaces as a parent media error and is absorbed by the bounded
//!   retry in `vfs::iopath` (`io.retries`), so the *faulted* phase shows a
//!   latency spike, not data loss.
//! - **RAID-1/5** lose a whole spindle mid-run ([`FaultDevice`] starts
//!   answering `DeviceGone`), serve *degraded* (mirror fallback / parity
//!   reconstruction), then a blank spare is swapped in and
//!   [`Volume::rebuild`] runs **online** while the workload keeps reading —
//!   the *rebuilding* phase measures that contention — and the *rebuilt*
//!   phase shows recovery.
//!
//! Every read is integrity-checked against the written pattern; the
//! mismatch count is part of the report and must be zero for the built-in
//! scenarios. UFS cells finish with an unmount and a structured
//! [`ufs::fsck`] report; extentfs cells with the allocator/tree `check()`.
//!
//! `--faults <spec>` replaces the built-in scenario: the plan's clauses
//! configure the members of one array (`--volume`, default `raid5:5:64k`)
//! and the driver buckets phases around the plan's earliest `die=` instant,
//! rebuilding whatever died once the measured passes finish. All
//! randomness is seeded, so output is byte-identical at any `--jobs`.

use std::cell::Cell;
use std::rc::Rc;

use clufs::Tuning;
use diskmodel::{Disk, DiskParams, FaultDevice, FaultPlan, SharedDevice};
use pagecache::{PageCacheParams, PageoutParams};
use simkit::{Sim, SimTime};
use ufs::{build_world_on, fsck, MkfsOptions, UfsParams};
use vfs::{AccessMode, FileSystem, Vnode, World};
use volmgr::{RaidLevel, SpindleState, Volume, VolumeSpec};

use crate::report::{kbs, Table};
use crate::runner::{RunPlan, Runner};

/// 8 KB blocks per benchmark file (quick / full).
const BLOCKS_QUICK: u64 = 128;
const BLOCKS_FULL: u64 = 192;
const BLOCK: usize = 8192;

/// Read passes per phase window (healthy, pre-rebuild degraded, post-
/// recovery), quick / full. The rebuilding window is open-ended: passes
/// run until the online rebuild completes.
const PASSES_QUICK: (u32, u32, u32) = (2, 2, 2);
const PASSES_FULL: (u32, u32, u32) = (3, 3, 3);

/// The spindle the built-in redundant scenarios kill.
const VICTIM: u32 = 1;

/// What drives the fault episode in one cell.
enum Scenario {
    /// Kill [`VICTIM`] after the healthy passes, then replace + rebuild.
    Redundant,
    /// Arm transient error ranges on spindle 0 (no redundancy to lose).
    Striped,
    /// A user `--faults` plan: faults are fixed at construction; phases
    /// bucket around the plan's earliest `die=` instant, and whatever died
    /// is rebuilt after the measured passes.
    Custom { die: Option<SimTime> },
}

/// One phase of a cell: a time window and the reads completing inside it.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase label (`healthy`, `degraded`, `rebuilding`, `rebuilt`,
    /// `faulted`, `recovered`).
    pub label: &'static str,
    /// Successful-read payload over the window, in KB/s.
    pub kb_per_sec: f64,
    /// 99th-percentile per-read latency, in milliseconds.
    pub p99_ms: f64,
    /// Reads completing in the window.
    pub reads: usize,
}

/// Everything one (array × file system) cell reports.
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// `faults/<spec>/<fs>` run id.
    pub id: String,
    /// Array spec (first table column).
    pub volume: String,
    /// `ufs` or `extentfs`.
    pub fs: &'static str,
    /// Per-phase throughput/latency, in episode order.
    pub phases: Vec<PhaseStats>,
    /// Reads that returned wrong bytes or an error. Must be zero for the
    /// built-in scenarios (redundancy or retries absorb every fault).
    pub mismatches: u64,
    /// Total reads across all phases.
    pub reads: usize,
    /// Faults the wrappers injected (`fault.injected{kind=*}`).
    pub injected: u64,
    /// Bounded-retry attempts the I/O path spent (`io.retries`).
    pub io_retries: u64,
    /// Reads served by mirror fallback / parity reconstruction.
    pub degraded_reads: u64,
    /// Rebuild sweep units the online rebuild completed.
    pub rebuild_rows: u64,
    /// Post-run integrity summary: the structured `fsck` report (UFS) or
    /// the metadata `check()` verdict (extentfs).
    pub integrity: String,
}

/// A deterministic pattern distinguishing every byte of every block.
fn block_pattern(block: u64) -> Vec<u8> {
    (0..BLOCK)
        .map(|i| (block.wrapping_mul(2654435761).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// Episode timestamps carved out of one cell's run.
#[derive(Clone, Copy, Default)]
struct Events {
    fault: Option<SimTime>,
    rebuild_start: Option<SimTime>,
    rebuilt: Option<SimTime>,
}

/// `(completion time, latency ns, bytes verified ok)` per read.
type Sample = (SimTime, u64, bool);

/// One full sequential re-read of the file, integrity-checking every
/// block. Invalidates the cache first so the array actually serves it.
async fn read_pass<F: FileSystem>(
    w: &World<F>,
    file: &F::File,
    nblocks: u64,
    samples: &mut Vec<Sample>,
    mismatches: &mut u64,
) {
    let sim = &w.sim;
    w.invalidate(file);
    let mut buf = vec![0u8; BLOCK];
    for i in 0..nblocks {
        let t = sim.now();
        let ok = match file
            .read_into(i * BLOCK as u64, &mut buf, AccessMode::Copy)
            .await
        {
            Ok(n) => n == BLOCK && buf == block_pattern(i),
            Err(_) => false,
        };
        if !ok {
            *mismatches += 1;
        }
        let done = sim.now();
        samples.push((done, done.duration_since(t).as_nanos(), ok));
    }
}

/// A blank replacement drive compatible with the array's members.
fn spare(sim: &Sim, k: u32) -> SharedDevice {
    Rc::new(Disk::new_spindle(sim, DiskParams::small_test(), 100 + k)) as SharedDevice
}

/// Runs the measured passes and the fault episode for one mounted cell.
/// Returns the samples, episode timestamps, and mismatch count.
async fn drive_passes<F: FileSystem>(
    w: &World<F>,
    vol: &Volume,
    faults: &[FaultDevice],
    scenario: &Scenario,
    quick: bool,
) -> (Vec<Sample>, Events, u64) {
    let (sim, fs) = (&w.sim, &w.fs);
    let nblocks = if quick { BLOCKS_QUICK } else { BLOCKS_FULL };
    let (h, d, r) = if quick { PASSES_QUICK } else { PASSES_FULL };

    // Lay the file down and make it durable before measuring.
    let file = fs.create("faults.dat").await.expect("create");
    for i in 0..nblocks {
        file.write(i * BLOCK as u64, &block_pattern(i), AccessMode::Copy)
            .await
            .expect("prepare write");
    }
    file.fsync().await.expect("prepare fsync");

    let mut samples = Vec::new();
    let mut mismatches = 0u64;
    let mut ev = Events::default();
    macro_rules! pass {
        () => {
            read_pass(w, &file, nblocks, &mut samples, &mut mismatches).await
        };
    }

    match scenario {
        Scenario::Redundant => {
            for _ in 0..h {
                pass!();
            }
            // The spindle stops answering; service continues degraded.
            faults[VICTIM as usize].schedule_death(sim.now());
            ev.fault = Some(sim.now());
            for _ in 0..d {
                pass!();
            }
            // Swap in a blank spare and rebuild online: reads keep going
            // and compete with the sweep until it finishes.
            vol.replace_spindle(VICTIM, spare(sim, VICTIM));
            ev.rebuild_start = Some(sim.now());
            let v = vol.clone();
            let done: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
            let (d2, s2) = (done.clone(), sim.clone());
            drop(sim.spawn(async move {
                v.rebuild(VICTIM).await.expect("rebuild");
                d2.set(Some(s2.now()));
            }));
            while done.get().is_none() {
                pass!();
            }
            ev.rebuilt = done.get();
            for _ in 0..r {
                pass!();
            }
        }
        Scenario::Striped => {
            for _ in 0..h {
                pass!();
            }
            // Transient ranges blanket spindle 0's address space; each
            // fails two touches then heals — well inside the bounded-retry
            // budget, so every read still completes.
            ev.fault = Some(sim.now());
            let span = faults[0].base().total_sectors() / 8;
            for rge in 0..8 {
                faults[0].arm_transient(rge * span, span as u32, 2);
            }
            for _ in 0..d {
                pass!();
            }
            ev.rebuilt = Some(sim.now());
            for _ in 0..r {
                pass!();
            }
        }
        Scenario::Custom { die } => {
            ev.fault = *die;
            for _ in 0..h + d {
                pass!();
            }
            if vol.spec().level != RaidLevel::Raid0 {
                let dead: Vec<u32> = (0..vol.spindles() as u32)
                    .filter(|&k| vol.spindle_state(k) == SpindleState::Dead)
                    .collect();
                if !dead.is_empty() {
                    ev.rebuild_start = Some(sim.now());
                    for k in dead {
                        vol.replace_spindle(k, spare(sim, k));
                        vol.rebuild(k).await.expect("rebuild");
                    }
                    ev.rebuilt = Some(sim.now());
                }
            }
            for _ in 0..r {
                pass!();
            }
        }
    }
    (samples, ev, mismatches)
}

/// Buckets samples into labelled phase windows and computes per-phase
/// throughput and p99.
fn bucket(
    samples: &[Sample],
    t0: SimTime,
    end: SimTime,
    ev: Events,
    striped: bool,
) -> Vec<PhaseStats> {
    // Window boundaries in episode order; a missing event collapses its
    // window to nothing and the phase is dropped.
    let fault = ev.fault.unwrap_or(end);
    let rb_start = ev.rebuild_start.unwrap_or(ev.rebuilt.unwrap_or(end));
    let rebuilt = ev.rebuilt.unwrap_or(end);
    let (during, after) = if striped {
        ("faulted", "recovered")
    } else {
        ("degraded", "rebuilt")
    };
    let windows: [(&'static str, SimTime, SimTime); 4] = [
        ("healthy", t0, fault),
        (during, fault, rb_start),
        ("rebuilding", rb_start, rebuilt),
        (after, rebuilt, end),
    ];
    let mut out = Vec::new();
    for (label, lo, hi) in windows {
        if hi <= lo {
            continue;
        }
        let mut lats: Vec<u64> = Vec::new();
        let mut bytes = 0u64;
        for &(done, ns, ok) in samples {
            if done > lo && done <= hi {
                lats.push(ns);
                if ok {
                    bytes += BLOCK as u64;
                }
            }
        }
        if lats.is_empty() {
            continue;
        }
        lats.sort_unstable();
        let p99 = lats[(lats.len() * 99 / 100).min(lats.len() - 1)];
        let secs = hi.duration_since(lo).as_secs_f64();
        out.push(PhaseStats {
            label,
            kb_per_sec: if secs > 0.0 {
                bytes as f64 / 1024.0 / secs
            } else {
                0.0
            },
            p99_ms: p99 as f64 / 1e6,
            reads: lats.len(),
        });
    }
    out
}

/// Builds the fault-wrapped array for one cell.
fn build_array(
    sim: &Sim,
    spec: &VolumeSpec,
    plan: Option<&FaultPlan>,
) -> (Volume, Vec<FaultDevice>) {
    let seed = plan.map_or(0x1991, |p| p.seed);
    let mut faults = Vec::new();
    let mut members: Vec<SharedDevice> = Vec::new();
    for k in 0..spec.spindles {
        let base: SharedDevice = Rc::new(Disk::new_spindle(sim, DiskParams::small_test(), k));
        let sf = plan.map(|p| p.for_spindle(k)).unwrap_or_default();
        let f = FaultDevice::new(sim, base, sf, seed ^ k as u64);
        faults.push(f.clone());
        members.push(Rc::new(f) as SharedDevice);
    }
    (Volume::with_children(sim, spec, members), faults)
}

/// The measured part of a cell, the same on either file system: the
/// passes and the fault episode on the mounted machine `w`, bucketed into
/// phases. Returns `(phases, mismatches, reads)`.
async fn run_episode<F: FileSystem>(
    w: &World<F>,
    vol: &Volume,
    faults: &[FaultDevice],
    scenario: &Scenario,
    quick: bool,
) -> (Vec<PhaseStats>, u64, usize) {
    let t0 = w.sim.now();
    let (samples, ev, mism) = drive_passes(w, vol, faults, scenario, quick).await;
    let end = w.sim.now();
    let striped = matches!(scenario, Scenario::Striped);
    (bucket(&samples, t0, end, ev, striped), mism, samples.len())
}

/// Runs one (array × file system) cell on its own sim and reports it.
fn run_cell(
    sim: &Sim,
    spec: VolumeSpec,
    on_ufs: bool,
    plan: Option<FaultPlan>,
    quick: bool,
) -> FaultCell {
    let s = sim.clone();
    let ((phases, mismatches, reads), integrity) = sim.run_until(async move {
        let (vol, faults) = build_array(&s, &spec, plan.as_ref());
        let disk: SharedDevice = Rc::new(vol.clone());
        let scenario = match (&plan, spec.level) {
            (Some(p), _) => Scenario::Custom {
                die: (0..spec.spindles)
                    .filter_map(|k| p.for_spindle(k).die_at)
                    .min(),
            },
            (None, RaidLevel::Raid0) => Scenario::Striped,
            (None, _) => Scenario::Redundant,
        };
        // What differs per file system is the machine's construction and
        // the integrity verdict at the end.
        if on_ufs {
            let w = build_world_on(
                &s,
                disk.clone(),
                PageCacheParams::small_test(),
                MkfsOptions::small_test(),
                UfsParams::test(Tuning::config_a()),
            )
            .await
            .expect("ufs world");
            let measured = run_episode(&w, &vol, &faults, &scenario, quick).await;
            // Clean unmount, then the structured fsck verdict straight off
            // the (possibly rebuilt) array.
            w.fs.unmount().await.expect("unmount");
            let report = fsck(&*disk).await.expect("fsck");
            let integrity = format!(
                "fsck: checked={} repaired={} unfixable={} ({})",
                report.checked,
                report.repaired.len(),
                report.unfixable.len(),
                if report.is_clean() { "clean" } else { "DIRTY" }
            );
            (measured, integrity)
        } else {
            let w = extentfs::build_world_on(
                &s,
                disk,
                PageCacheParams::small_test(),
                PageoutParams::small_test(),
                64,
                extentfs::ExtentFsParams::with_extent_blocks(15),
            )
            .expect("format");
            let measured = run_episode(&w, &vol, &faults, &scenario, quick).await;
            let problems = w.fs.check();
            let integrity = if problems.is_empty() {
                "check: clean".to_string()
            } else {
                format!("check: {} problem(s)", problems.len())
            };
            (measured, integrity)
        }
    });
    let st = sim.stats();
    let fs = if on_ufs { "ufs" } else { "extentfs" };
    FaultCell {
        id: format!("faults/{spec}/{fs}"),
        volume: spec.to_string(),
        fs,
        phases,
        mismatches,
        reads,
        injected: st.counter_value("fault.injected{kind=media}")
            + st.counter_value("fault.injected{kind=gone}"),
        io_retries: st.counter_value("io.retries"),
        degraded_reads: st.counter_value("vol.degraded_reads"),
        rebuild_rows: st.counter_value("vol.rebuild_rows"),
        integrity,
    }
}

/// The arrays the default matrix covers.
fn default_specs() -> Vec<VolumeSpec> {
    ["raid0:4:64k", "raid1:2", "raid5:5:64k"]
        .iter()
        .map(|s| VolumeSpec::parse(s).expect("built-in spec"))
        .collect()
}

/// Runs the cells on the runner's workers. Run ids are
/// `faults/<spec>/<fs>`.
pub fn faults_data(
    plan: Option<&FaultPlan>,
    volume: Option<&VolumeSpec>,
    quick: bool,
    runner: &Runner,
) -> Vec<FaultCell> {
    let specs = match (plan, volume) {
        // A custom plan targets one array (default: the widest built-in).
        (Some(_), Some(v)) => vec![*v],
        (Some(_), None) => vec![VolumeSpec::parse("raid5:5:64k").expect("built-in spec")],
        (None, Some(v)) => vec![*v],
        (None, None) => default_specs(),
    };
    let mut plans = Vec::new();
    for spec in specs {
        for on_ufs in [true, false] {
            let p = plan.cloned();
            let fs = if on_ufs { "ufs" } else { "extentfs" };
            plans.push(RunPlan::new(
                format!("faults/{spec}/{fs}"),
                move |sim: &Sim| run_cell(sim, spec, on_ufs, p, quick),
            ));
        }
    }
    runner.run(plans)
}

/// Renders the per-phase table and the per-cell fault/integrity summary.
pub fn faults_table(cells: &[FaultCell]) -> String {
    let mut t = Table::new(&["volume", "fs", "phase", "KB/s", "p99(ms)", "reads"]);
    for c in cells {
        for p in &c.phases {
            t.row(vec![
                c.volume.clone(),
                c.fs.to_string(),
                p.label.to_string(),
                kbs(p.kb_per_sec),
                format!("{:.2}", p.p99_ms),
                p.reads.to_string(),
            ]);
        }
    }
    let mut out = t.render();
    out.push('\n');
    for c in cells {
        out.push_str(&format!(
            "{}/{}: {} mismatch(es) in {} read(s); injected={} io.retries={} \
             degraded_reads={} rebuild_rows={}; {}\n",
            c.volume,
            c.fs,
            c.mismatches,
            c.reads,
            c.injected,
            c.io_retries,
            c.degraded_reads,
            c.rebuild_rows,
            c.integrity,
        ));
    }
    out
}

/// Drives the whole experiment (the CLI entry point).
pub fn faults_run(
    plan: Option<&FaultPlan>,
    volume: Option<&VolumeSpec>,
    quick: bool,
    runner: &Runner,
) -> String {
    faults_table(&faults_data(plan, volume, quick, runner))
}
