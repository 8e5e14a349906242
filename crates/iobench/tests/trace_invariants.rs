//! Invariants of the span traces exported by `iobench --trace`.
//!
//! A trace is only trustworthy if its structure holds up: every span must
//! close, children must lie within their parents, and the trace must agree
//! with the independently-maintained metrics registry (per-stream disk
//! busy time). Tracing must also be an observer — turning it on must not
//! move a single counter.

use std::collections::BTreeMap;

use iobench::experiments::{fig10_plan, RunCapture, RunScale, StatsSink};
use iobench::traceout::chrome_trace_json;
use iobench::{Config, IoKind, Runner};
use simkit::Span;

/// One Figure 10 cell, run alone under a sink that traces or not.
fn cell(config: Config, kind: IoKind, tracing: bool) -> RunCapture {
    let sink = StatsSink::with_capture(tracing, None);
    Runner::serial(Some(&sink)).run(vec![fig10_plan(config, kind, RunScale::paper())]);
    let run = sink.runs()[0].clone();
    run
}

/// One traced Figure 10 cell: `(registry JSON, spans)`.
fn traced_cell(config: Config, kind: IoKind) -> (String, Vec<Span>) {
    let run = cell(config, kind, true);
    (run.stats, run.spans)
}

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

#[test]
fn every_span_closes_and_children_nest() {
    let (_stats, spans) = traced_cell(Config::A, IoKind::SeqWrite);
    assert!(!spans.is_empty(), "a traced run records spans");
    for s in &spans {
        let end = s
            .end
            .unwrap_or_else(|| panic!("span {} ({:?}) never closed", s.name, s.id));
        assert!(s.start <= end, "span {} ends before it starts", s.name);
        if !s.parent.is_none() {
            let p = &spans[s.parent.as_u64() as usize - 1];
            let pend = p.end.expect("parent closed");
            assert!(
                p.start <= s.start && end <= pend,
                "child {} [{}, {}] escapes parent {} [{}, {}]",
                s.name,
                s.start.as_nanos(),
                end.as_nanos(),
                p.name,
                p.start.as_nanos(),
                pend.as_nanos(),
            );
        }
    }
}

/// The trace and the metrics registry are two independent observers of the
/// same disk: per stream, the `disk.service` span durations must sum to
/// exactly the registry's `disk.busy_ns{stream=N}` counter.
#[test]
fn disk_service_spans_sum_to_stream_busy_time() {
    let (stats, spans) = traced_cell(Config::A, IoKind::SeqRead);
    let mut by_stream: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "disk.service") {
        *by_stream.entry(s.stream).or_default() +=
            s.duration().expect("service span closed").as_nanos();
    }
    assert!(!by_stream.is_empty(), "run serviced disk requests");
    for (stream, ns) in by_stream {
        let busy = counter(&stats, &format!("disk.busy_ns{{stream={stream}}}"));
        assert_eq!(
            ns, busy,
            "stream {stream}: service spans sum to {ns} but registry says {busy}"
        );
    }
}

/// `--trace` output is a pure function of the (deterministic) simulation:
/// two identical runs must serialize byte-identically.
#[test]
fn identical_runs_export_identical_traces() {
    let run = || chrome_trace_json(&[cell(Config::B, IoKind::SeqRead, true)]);
    let first = run();
    assert!(first.contains("\"ph\":\"X\""));
    assert_eq!(first, run(), "trace JSON must be deterministic");
}

/// Tracing is an observer: enabling it must not change a single metric.
/// (Spans live outside the registry; the simulation's virtual-time course
/// is identical either way.)
#[test]
fn enabling_the_tracer_does_not_move_the_stats() {
    let stats = |tracing: bool| cell(Config::B, IoKind::RandUpdate, tracing).stats;
    assert_eq!(stats(false), stats(true), "tracer perturbed the metrics");
}
