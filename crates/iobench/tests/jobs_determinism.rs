//! The parallel harness contract: `--jobs N` changes only wall-clock
//! time. Every simulated run is a pure function of virtual time and the
//! runner re-emits outcomes in plan order, so the rendered tables, the
//! `--stats-json` document, the Chrome-trace export and the `--timeline`
//! document must be byte-identical whatever the jobs count.

use iobench::experiments::{fig10_run, fig10_table, fig11_table, RunScale, StatsSink};
use iobench::runner::Runner;
use iobench::traceout;
use iobench::volume::{volume_data, volume_ext_table, volume_table, VolumeSweep};
use simkit::SimDuration;
use volmgr::VolumeSpec;

/// A scale small enough to run the full 20-cell Figure 10 matrix in a
/// debug-build test.
fn tiny() -> RunScale {
    RunScale {
        file_bytes: 1 << 20,
        random_ops: 32,
        cpu_file_bytes: 1 << 20,
    }
}

/// Renders fig10/fig11 with a tracing and sampling sink at the given jobs
/// count and returns every output surface the CLI can emit.
fn fig10_outputs(jobs: usize) -> (String, String, String, String, String) {
    let sink = StatsSink::with_capture(true, Some(SimDuration::from_millis(50)));
    let runner = Runner::new(jobs, Some(&sink));
    let data = fig10_run(tiny(), &runner);
    let t10 = fig10_table(&data);
    let t11 = fig11_table(&data);
    let stats = sink.to_json("fig10");
    let trace = traceout::chrome_trace_json(&sink.runs());
    let timeline = sink.timeline_json("fig10");
    (t10, t11, stats, trace, timeline)
}

#[test]
fn fig10_is_byte_identical_across_jobs_counts() {
    let (t10_serial, t11_serial, stats_serial, trace_serial, timeline_serial) = fig10_outputs(1);
    let (t10_par, t11_par, stats_par, trace_par, timeline_par) = fig10_outputs(4);
    assert_eq!(
        t10_serial, t10_par,
        "Figure 10 table must not depend on --jobs"
    );
    assert_eq!(
        t11_serial, t11_par,
        "Figure 11 table must not depend on --jobs"
    );
    assert_eq!(
        stats_serial, stats_par,
        "--stats-json document must be byte-identical across --jobs"
    );
    assert_eq!(
        trace_serial, trace_par,
        "--trace export must be byte-identical across --jobs"
    );
    assert_eq!(
        timeline_serial, timeline_par,
        "--timeline document must be byte-identical across --jobs"
    );
    // Guard against the vacuous pass: all 20 runs captured and sampled,
    // spans present, and the sampled series merged into the trace as
    // counter tracks.
    assert_eq!(stats_serial.matches("\"id\":\"fig10/").count(), 20);
    assert_eq!(timeline_serial.matches("\"id\":\"fig10/").count(), 20);
    assert!(timeline_serial.contains(&format!("\"schema\":\"{}\"", iobench::TIMELINE_SCHEMA)));
    assert!(trace_serial.len() > 1000, "trace export should carry spans");
    assert!(
        trace_serial.contains("\"ph\":\"C\""),
        "counter tracks reach the trace"
    );
}

/// A reduced volume sweep covering all three RAID dispatch paths — one
/// spec per level, one cluster size, one extentfs comparison — small
/// enough for a debug-build test.
fn tiny_sweep() -> VolumeSweep {
    let spec = |s: &str| VolumeSpec::parse(s).unwrap();
    VolumeSweep {
        specs: vec![spec("raid0:2:16k"), spec("raid1:2"), spec("raid5:3:16k")],
        clusters_kb: vec![56],
        ext_specs: vec![spec("raid5:3:16k")],
    }
}

/// Renders the volume experiment with a tracing sink at the given jobs
/// count and returns every output surface the CLI can emit.
fn volume_outputs(jobs: usize) -> (String, String, String, String) {
    let sink = StatsSink::with_capture(true, None);
    let runner = Runner::new(jobs, Some(&sink));
    let sweep = tiny_sweep();
    let data = volume_data(&sweep, tiny(), &runner);
    let t = volume_table(&sweep, &data);
    let tx = volume_ext_table(&sweep, &data);
    let stats = sink.to_json("volume");
    let trace = traceout::chrome_trace_json(&sink.runs());
    (t, tx, stats, trace)
}

#[test]
fn volume_is_byte_identical_across_jobs_counts() {
    let (t_serial, tx_serial, stats_serial, trace_serial) = volume_outputs(1);
    let (t_par, tx_par, stats_par, trace_par) = volume_outputs(4);
    assert_eq!(t_serial, t_par, "volume table must not depend on --jobs");
    assert_eq!(
        tx_serial, tx_par,
        "UFS-vs-extentfs table must not depend on --jobs"
    );
    assert_eq!(
        stats_serial, stats_par,
        "--stats-json document must be byte-identical across --jobs"
    );
    assert_eq!(
        trace_serial, trace_par,
        "--trace export must be byte-identical across --jobs"
    );
    // 3 specs x 1 cluster x 2 kinds + 1 ext spec x 2 kinds = 8 runs.
    assert_eq!(stats_serial.matches("\"id\":\"volume/").count(), 8);
    // The array's fan-out is visible on every surface: per-spindle busy
    // counters in the snapshots, vol.spindle child spans in the trace.
    assert!(stats_serial.contains("disk.busy_ns{spindle=0}"));
    assert!(trace_serial.contains("vol.spindle"));
}
