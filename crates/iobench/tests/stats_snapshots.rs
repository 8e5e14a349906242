//! Experiment-level assertions on the metrics-registry snapshots exported
//! by `iobench --stats-json` (schema `iobench-stats/v8`).
//!
//! These pin the paper's mechanisms to observable counters: clustering
//! shrinks the number of disk requests, free-behind takes page freeing away
//! from the pageout daemon, and the drive's track buffer is exercised by
//! sequential reads.

use iobench::experiments::{fig10_plan, free_behind_run, RunScale, StatsSink};
use iobench::runner::Runner;
use iobench::{Config, IoKind};

/// Extracts a counter value from a registry JSON snapshot. The registry
/// serializes counters as `"name":value` with sorted, unique keys, so a
/// plain substring search is unambiguous.
fn counter(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let i = json
        .find(&pat)
        .unwrap_or_else(|| panic!("counter {name} missing from snapshot"));
    json[i + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("counter {name} is not a number"))
}

/// One Figure 10 cell's registry snapshot (covers the preparation and the
/// measured phase — the whole simulated run).
fn cell_snapshot(config: Config, kind: IoKind) -> String {
    let sink = StatsSink::new();
    Runner::serial(Some(&sink)).run(vec![fig10_plan(config, kind, RunScale::paper())]);
    let stats = sink.runs()[0].stats.clone();
    stats
}

/// Two identical runs must serialize to byte-identical documents: the
/// whole stack is virtual-time deterministic and the registry iterates in
/// sorted order.
#[test]
fn identical_runs_export_identical_json() {
    let a = || {
        let sink = StatsSink::new();
        Runner::serial(Some(&sink)).run(vec![fig10_plan(
            Config::A,
            IoKind::SeqRead,
            RunScale::paper(),
        )]);
        sink.to_json("fig10")
    };
    let first = a();
    let second = a();
    assert!(!first.is_empty());
    assert_eq!(first, second, "snapshot JSON must be deterministic");
}

/// The paper's core claim, in request counts: clustered config A moves the
/// same file in far fewer (larger) disk reads than block-at-a-time
/// config D on the sequential-read workload.
#[test]
fn clustering_issues_fewer_disk_reads_on_fsr() {
    let a = cell_snapshot(Config::A, IoKind::SeqRead);
    let d = cell_snapshot(Config::D, IoKind::SeqRead);
    let (ra, rd) = (counter(&a, "disk.reads"), counter(&d, "disk.reads"));
    assert!(
        ra < rd,
        "config A should need fewer disk reads than D: {ra} vs {rd}"
    );
    // And the clusters it reads should be more than one block on average.
    let blocks_a = counter(&a, "ufs.blocks_read");
    assert!(
        blocks_a > ra,
        "A's reads should carry multiple blocks: {blocks_a} blocks in {ra} reads"
    );
}

/// Sequential reads hit the drive's track buffer: after the first sector
/// of a track is read, the rest of the track is served from the buffer.
#[test]
fn sequential_reads_hit_the_track_buffer() {
    let d = cell_snapshot(Config::D, IoKind::SeqRead);
    let hits = counter(&d, "disk.trackbuf_hits");
    assert!(
        hits > 0,
        "block-at-a-time sequential read never hit the track buffer"
    );
}

/// "The pageout daemon no longer wakes up to free pages when the system is
/// heavily I/O bound, since the I/O bound processes are doing it
/// themselves": with free-behind on, the reader frees more pages than the
/// daemon does.
#[test]
fn free_behind_frees_more_pages_than_the_daemon() {
    // 4 MB fits in the cache; at 16 MB the daemon out-frees the reader, 1,650 to 1,632 pages.
    let fits_in_cache = RunScale {
        file_bytes: 4 << 20,
        random_ops: 256,
        cpu_file_bytes: 4 << 20,
    };
    let sink = StatsSink::new();
    free_behind_run(fits_in_cache, &Runner::serial(Some(&sink)));
    let runs = sink.runs();
    let on = &runs
        .iter()
        .find(|r| r.id == "free-behind/on")
        .expect("free-behind/on run captured")
        .stats;
    let freed_by_reader = counter(on, "ufs.free_behind_pages");
    let freed_by_daemon = counter(on, "pageout.freed");
    assert!(
        freed_by_reader > freed_by_daemon,
        "free-behind ({freed_by_reader}) should out-free the daemon ({freed_by_daemon})"
    );
}
