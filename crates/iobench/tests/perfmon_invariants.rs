//! Invariants of the host-side profiler (`iobench --perf`) and the
//! virtual-time telemetry sampler (`iobench --timeline`).
//!
//! The profiler is only trustworthy if it is a pure observer: enabling it
//! must not move a byte of any virtual-time output surface (tables,
//! `--stats-json`, `--trace`, `--timeline`), at any `--jobs` count. And
//! the profile itself must hold up structurally — every phase closes,
//! per-worker phase time fits inside the worker's lifetime, and the named
//! top-level phases attribute (nearly) all measured wall-clock time.

use std::sync::Mutex;

use iobench::experiments::{fig10_run, fig10_table, fig11_table, RunScale, StatsSink};
use iobench::perfout::{is_top_phase, HostProfile};
use iobench::runner::Runner;
use iobench::traceout;
use simkit::perfmon;

/// perfmon state (the enabled flag, the record log) is process-global;
/// tests that enable and drain it must not interleave.
static PERFMON: Mutex<()> = Mutex::new(());

/// A scale small enough to run the full 20-cell Figure 10 matrix in a
/// debug-build test (mirrors `jobs_determinism.rs`).
fn tiny() -> RunScale {
    RunScale {
        file_bytes: 1 << 20,
        random_ops: 32,
        cpu_file_bytes: 1 << 20,
    }
}

/// Every output surface of a sampled + traced fig10 run:
/// `(fig10 table, fig11 table, stats JSON, trace JSON, timeline JSON)`.
fn fig10_outputs(jobs: usize) -> (String, String, String, String, String) {
    let sink = StatsSink::with_capture(true, Some(simkit::SimDuration::from_millis(50)));
    let runner = Runner::new(jobs, Some(&sink));
    let data = fig10_run(tiny(), &runner);
    let t10 = fig10_table(&data);
    let t11 = fig11_table(&data);
    let stats = sink.to_json("fig10");
    let timeline = sink.timeline_json("fig10");
    let trace = traceout::chrome_trace_json(&sink.runs());
    (t10, t11, stats, trace, timeline)
}

#[test]
fn profiler_is_a_pure_observer_and_attributes_wall_clock() {
    let _serialize = PERFMON.lock().unwrap();
    // Baseline: profiler off.
    let base = fig10_outputs(4);

    perfmon::set_enabled(true);
    let _ = perfmon::take_records(); // drop any leftovers from other code
    let serial = fig10_outputs(1);
    let serial_records = perfmon::take_records();
    let par = fig10_outputs(4);
    let par_records = perfmon::take_records();
    perfmon::set_enabled(false);

    // Observer contract: byte-identical outputs with profiling on vs off
    // and across jobs counts — tables, stats, trace, and timeline alike.
    assert_eq!(base, par, "profiling must not perturb any output surface");
    assert_eq!(serial, par, "outputs must not depend on --jobs");
    // Guard against the vacuous pass: sampled series actually present.
    assert!(par
        .4
        .contains(&format!("\"schema\":\"{}\"", iobench::TIMELINE_SCHEMA)));
    assert!(
        par.4.matches("\"id\":\"fig10/").count() == 20,
        "{}",
        par.4.len()
    );
    assert!(
        par.3.contains("\"ph\":\"C\""),
        "counter tracks reach the trace"
    );

    // Every recorded phase closed sanely (a PhaseGuard that never dropped
    // would simply be missing; what's here must be well-formed).
    for r in par_records.iter().chain(&serial_records) {
        assert!(r.start_ns <= r.end_ns, "phase {} runs backwards", r.name);
    }

    // Parallel profile structure: 4 workers, complete record set, the
    // top-level phases covering (nearly) all measured wall-clock time.
    let p = HostProfile::build(&par_records);
    assert_eq!(p.workers.len(), 4);
    for w in &p.workers {
        assert!(
            w.busy_ns + w.pickup_ns <= w.lifetime_ns,
            "worker {} phase time {} + {} exceeds lifetime {}",
            w.worker,
            w.busy_ns,
            w.pickup_ns,
            w.lifetime_ns
        );
        assert!((0.0..=1.0).contains(&w.utilization));
    }
    assert!(
        p.coverage >= 0.9,
        "top-level phases must attribute >=90% of wall-clock, got {}",
        p.coverage
    );
    // One setup/drive/capture triple per plan, one lifetime per worker.
    assert_eq!(p.phases["run.setup"].count, 20);
    assert_eq!(p.phases["run.drive"].count, 20);
    assert_eq!(p.phases["run.capture"].count, 20);
    assert_eq!(p.phases["runner.pickup"].count, 20);
    assert_eq!(p.phases["worker.lifetime"].count, 4);
    assert_eq!(p.phases["runner.fanout_wait"].count, 1);
    assert_eq!(p.phases["runner.emit"].count, 1);
    // Every run id surfaces with its drive time.
    assert_eq!(p.runs.len(), 20);
    assert!(p.runs.iter().all(|(id, _)| id.starts_with("fig10/")));
    // The report serializes with the advertised schema.
    let json = p.to_json("fig10", 4);
    assert!(json.contains(&format!("\"schema\":\"{}\"", iobench::PERF_SCHEMA)));

    // Serial profile shares the same shape: the loop reports as worker 0.
    let ps = HostProfile::build(&serial_records);
    assert_eq!(ps.workers.len(), 1);
    assert_eq!(ps.workers[0].worker, 0);
    // The same loop runs inline: one pickup per plan there too.
    assert_eq!(ps.phases["runner.pickup"].count, 20);
    assert!(ps.coverage >= 0.9, "serial coverage {}", ps.coverage);

    // The coverage numerator is exactly the documented top-phase set.
    for name in ["runner.pickup", "run.setup", "run.drive", "run.capture"] {
        assert!(is_top_phase(name));
    }
    for name in ["worker.lifetime", "world.build", "runner.emit"] {
        assert!(!is_top_phase(name));
    }
}

#[test]
fn disabled_profiler_records_nothing_during_runs() {
    let _serialize = PERFMON.lock().unwrap();
    assert!(!perfmon::enabled());
    let _ = perfmon::take_records();
    let sink = StatsSink::new();
    let runner = Runner::new(2, Some(&sink));
    let plans = (0..4)
        .map(|i| {
            iobench::RunPlan::new(format!("test/{i}"), move |sim: &simkit::Sim| {
                let c = sim.stats().counter("t.noop");
                sim.run_until(async move { c.inc() });
            })
        })
        .collect();
    runner.run(plans);
    let records = perfmon::take_records();
    assert!(records.is_empty(), "disabled profiler recorded {records:?}");
    assert_eq!(sink.len(), 4);
}
