//! Integration tests asserting the paper's headline claims at reduced
//! scale. These are the "shape" checks: who wins, by roughly what factor,
//! where the tradeoffs fall.

use clufs::Tuning;
use iobench::iobench::BenchOptions;
use iobench::{paper_world, run_iobench, Config, IoKind, WorldOptions};
use simkit::Sim;

fn opts() -> BenchOptions {
    BenchOptions {
        file_bytes: 4 << 20,
        io_bytes: 8192,
        random_ops: 256,
        seed: 0x1991,
    }
}

fn rate(config: Config, kind: IoKind) -> f64 {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = paper_world(&s, config.tuning(), WorldOptions::default())
            .await
            .unwrap();
        run_iobench(&w, "t", kind, opts())
            .await
            .unwrap()
            .kb_per_sec()
    })
}

#[test]
fn sequential_read_improves_by_about_2x() {
    // "Predictably, the sequential I/O rates improved about a factor of
    // two."
    let a = rate(Config::A, IoKind::SeqRead);
    let d = rate(Config::D, IoKind::SeqRead);
    let ratio = a / d;
    assert!(
        (1.6..2.4).contains(&ratio),
        "A/D sequential read ratio {ratio:.2} (A={a:.0}, D={d:.0})"
    );
}

#[test]
fn sequential_writes_improve_similarly() {
    let a = rate(Config::A, IoKind::SeqWrite);
    let d = rate(Config::D, IoKind::SeqWrite);
    let ratio = a / d;
    assert!(
        (1.4..2.2).contains(&ratio),
        "A/D sequential write ratio {ratio:.2} (A={a:.0}, D={d:.0})"
    );
}

#[test]
fn random_reads_are_unaffected() {
    // Figure 11: FRR ratios ≈ 1.04.
    let a = rate(Config::A, IoKind::RandRead);
    let d = rate(Config::D, IoKind::RandRead);
    let ratio = a / d;
    assert!(
        (0.85..1.2).contains(&ratio),
        "A/D random read ratio {ratio:.2}"
    );
}

#[test]
fn unlimited_writes_win_random_update_via_disksort() {
    // "The random update (or write) numbers went down when compared to the
    // generic 4.1 UFS. We made a tradeoff between performance and fairness
    // in favor of fairness." (Figure 11: A/D FRU = 0.83.)
    let a = rate(Config::A, IoKind::RandUpdate);
    let d = rate(Config::D, IoKind::RandUpdate);
    assert!(
        d > a,
        "no write limit should win FRU: A={a:.0} vs D={d:.0} KB/s"
    );
}

#[test]
fn tuning_only_destroys_write_performance() {
    // "Given that writes will degrade and only some reads will improve, we
    // rejected this approach."
    let run = |tuning: Tuning, kind: IoKind| -> f64 {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let wo = WorldOptions {
                full_scale: true,
                ..Default::default()
            };
            let w = paper_world(&s, tuning, wo).await.unwrap();
            run_iobench(&w, "t", kind, opts())
                .await
                .unwrap()
                .kb_per_sec()
        })
    };
    let b_write = run(Tuning::config_b(), IoKind::SeqWrite);
    let tuned_write = run(Tuning::tuning_only(), IoKind::SeqWrite);
    let tuned_read = run(Tuning::tuning_only(), IoKind::SeqRead);
    let b_read = run(Tuning::config_b(), IoKind::SeqRead);
    assert!(
        tuned_write < b_write * 0.7,
        "rotdelay=0 without clustering must hurt writes: {tuned_write:.0} vs {b_write:.0}"
    );
    assert!(
        tuned_read >= b_read * 0.95,
        "rotdelay=0 should not hurt reads (track buffer): {tuned_read:.0} vs {b_read:.0}"
    );
}

#[test]
fn clustered_ufs_matches_extent_fs() {
    // The title claim: extent-like performance without the format change.
    let sim = Sim::new();
    let s = sim.clone();
    let ext = sim.run_until(async move {
        let w = iobench::paper_ext_world(
            &s,
            std::rc::Rc::new(diskmodel::Disk::new(&s, diskmodel::DiskParams::sun0424())),
            64,
            extentfs::ExtentFsParams::with_extent_blocks(15),
        );
        run_iobench(&w, "t", IoKind::SeqRead, opts())
            .await
            .unwrap()
            .kb_per_sec()
    });
    let ufs_rate = rate(Config::A, IoKind::SeqRead);
    let ratio = ufs_rate / ext;
    assert!(
        (0.85..1.15).contains(&ratio),
        "clustered UFS ({ufs_rate:.0}) should match extentfs@120KB ({ext:.0})"
    );
}

#[test]
fn clustering_reduces_cpu_per_byte() {
    // Figure 12: "The new UFS is approximately 25% more efficient in terms
    // of CPU cycles."
    let (_, new, old) = iobench::experiments::fig12_run(
        iobench::experiments::RunScale::paper(),
        &iobench::runner::Runner::serial(None),
    );
    assert!(
        old > new * 1.15,
        "clustered mmap read should use noticeably less CPU: new={new:.2}s old={old:.2}s"
    );
    assert!(
        old < new * 2.5,
        "CPU saving should not be wildly larger than the paper's: new={new:.2}s old={old:.2}s"
    );
}

#[test]
fn write_limit_prevents_memory_lockdown() {
    // "There is nothing to prevent a single process from dirtying every
    // page" — the limit bounds page-allocation stalls.
    let stalls = |limit: Option<u32>| -> u64 {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let tuning = Tuning {
                write_limit: limit,
                ..Tuning::config_a()
            };
            let w = paper_world(&s, tuning, WorldOptions::default())
                .await
                .unwrap();
            // A fast sequential writer dirties memory at CPU speed
            // (~3 MB/s) while the disk drains at ~1.4 MB/s: without the
            // limit it locks down every page.
            run_iobench(
                &w,
                "t",
                IoKind::SeqWrite,
                BenchOptions {
                    file_bytes: 12 << 20,
                    io_bytes: 65536,
                    random_ops: 1,
                    seed: 3,
                },
            )
            .await
            .unwrap();
            w.cache.stats().alloc_stalls
        })
    };
    let without = stalls(None);
    let with = stalls(Some(240 * 1024));
    assert!(
        without > with,
        "no limit must cause more allocation stalls: {without} vs {with}"
    );
    assert_eq!(with, 0, "the 240KB limit should eliminate stalls here");
}

#[test]
fn musbus_barely_improves() {
    // "The time-sharing benchmarks improved only slightly."
    let (_, ratio) = iobench::experiments::musbus_run(&iobench::runner::Runner::serial(None));
    assert!(
        (0.9..1.25).contains(&ratio),
        "timesharing old/new ratio {ratio:.2} should be near 1"
    );
}

#[test]
fn fresh_allocation_is_megabyte_contiguous() {
    // In-text: "the average extent size was 1.5MB in a 13MB file."
    let sim = Sim::new();
    let s = sim.clone();
    let stats = sim.run_until(async move {
        let w = paper_world(&s, Tuning::config_a(), WorldOptions::default())
            .await
            .unwrap();
        iobench::aging::probe_extents(&w, "probe", 13 << 20)
            .await
            .unwrap()
    });
    assert!(
        stats.mean_extent_bytes > 1.0 * 1024.0 * 1024.0,
        "fresh-fs mean extent {:.0} KB should be megabytes",
        stats.mean_extent_bytes / 1024.0
    );
}
