//! Trace export and analysis: Chrome trace-event JSON for the spans the
//! simulator records (`iobench --trace`), plus the latency-attribution and
//! per-fault timeline tables built from the same spans.
//!
//! Everything here is a pure function of the recorded spans, and spans are
//! a pure function of the virtual-time simulation — so two identical runs
//! produce byte-identical trace files. Timestamps are rendered in
//! microseconds with integer math (no floating point) to keep that true.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simkit::{json, Span, SpanId};

use crate::report::Table;

/// Nanoseconds rendered as microseconds with three decimals (the trace
/// event format's `ts`/`dur` unit), via integer math only.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn span_ns(s: &Span) -> u64 {
    s.duration().map(|d| d.as_nanos()).unwrap_or(0)
}

/// Index of `id` into a single run's span vector (ids are dense, starting
/// at 1, in recording order).
fn idx(id: SpanId) -> usize {
    id.as_u64() as usize - 1
}

/// The root ancestor of `span` within its run.
fn root_of(spans: &[Span], span: &Span) -> SpanId {
    let mut cur = span.id;
    let mut parent = span.parent;
    while !parent.is_none() {
        cur = parent;
        parent = spans[idx(parent)].parent;
    }
    cur
}

/// Serializes `(run id, spans)` captures as one Chrome trace-event JSON
/// document, loadable in `chrome://tracing` or Perfetto.
///
/// Layout: each `(run, stream)` pair becomes one process (`pid`), named
/// `"<run id> stream <N>"` via process-name metadata; within a process,
/// each request tree gets its own thread (`tid` = the root span's id), so
/// a request's spans stack below its root the way they nest. Spans still
/// open when the run ended (e.g. a read-ahead the workload never waited
/// for) are dropped — a complete event needs both bounds.
pub fn chrome_trace_json(runs: &[(String, Vec<Span>)]) -> String {
    chrome_trace_json_with_counters(runs, &[])
}

/// [`chrome_trace_json`], additionally merging sampled telemetry series
/// (the `--timeline` capture) into the document as Perfetto counter
/// tracks: each run whose id appears in `timelines` gets one extra
/// process (`"<run id> telemetry"`) carrying a `"ph":"C"` counter event
/// per sampled point, so cache occupancy, queue depth, and stall gauges
/// plot as graphs directly beneath that run's spans. Emitted only when
/// both `--trace` and `--timeline` are requested; determinism is
/// inherited (series are virtual-time pure, pids stay allocation-order).
pub fn chrome_trace_json_with_counters(
    runs: &[(String, Vec<Span>)],
    timelines: &[(String, Vec<simkit::perfmon::Series>)],
) -> String {
    let by_id: BTreeMap<&str, &Vec<simkit::perfmon::Series>> = timelines
        .iter()
        .map(|(id, series)| (id.as_str(), series))
        .collect();
    // One event per line: each starts with the separator and a newline.
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let process = |out: &mut String, pid: u64, name: &str| {
        json::sep(out);
        let _ = write!(
            out,
            "\n{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        json::string(out, name);
        out.push_str("}}");
    };
    let mut next_pid = 1u64;
    for (run_id, spans) in runs {
        // Deterministic pid per stream: ascending stream number.
        let mut pids: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            pids.entry(s.stream).or_insert(0);
        }
        for (stream, pid) in pids.iter_mut() {
            *pid = next_pid;
            next_pid += 1;
            process(&mut out, *pid, &format!("{run_id} stream {stream}"));
        }
        for s in spans {
            let Some(end) = s.end else { continue };
            json::sep(&mut out);
            out.push_str("\n{");
            json::key(&mut out, "name");
            json::string(&mut out, s.name);
            json::key(&mut out, "cat");
            json::string(&mut out, run_id);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
                us(s.start.as_nanos()),
                us(end.duration_since(s.start).as_nanos()),
                pids[&s.stream],
                root_of(spans, s).as_u64(),
            );
            for (k, v) in &s.args {
                json::key(&mut out, k);
                let _ = write!(out, "{v}");
            }
            out.push_str("}}");
        }
        if let Some(series) = by_id.get(run_id.as_str()) {
            let pid = next_pid;
            next_pid += 1;
            process(&mut out, pid, &format!("{run_id} telemetry"));
            for (name, points) in series.iter() {
                for (t, v) in points {
                    json::sep(&mut out);
                    out.push_str("\n{");
                    json::key(&mut out, "name");
                    json::string(&mut out, name);
                    let _ = write!(
                        out,
                        ",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"tid\":0,\"args\":{{\"value\":",
                        us(*t),
                    );
                    json::f64(&mut out, *v);
                    out.push_str("}}");
                }
            }
        }
    }
    if out.ends_with('[') {
        // No events: keep the empty document's blank line.
        out.push('\n');
    }
    out.push_str("\n]}\n");
    out
}

/// Where one stream's virtual time went, summed over a run's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamAttribution {
    pub stream: u32,
    /// `fs.read` + `fs.write` root spans (the foreground requests).
    pub requests: u64,
    /// Their total duration.
    pub request_ns: u64,
    /// Total duration of *all* root spans for the stream, including
    /// asynchronous read-ahead fills and write-cluster pushes. The layer
    /// sums below nest inside these roots, so each fraction of this total
    /// is well defined.
    pub total_root_ns: u64,
    /// Time requests sat in the disk queue (`disk.queue`).
    pub queue_ns: u64,
    /// Time the disk spent servicing the stream (`disk.service`).
    pub service_ns: u64,
    /// Time writers slept on the per-file write limit (`throttle.stall`).
    pub throttle_ns: u64,
    /// Time spent waiting for a free page (`cache.alloc_stall`).
    pub alloc_stall_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Reads absorbed by the drive's track buffer (`disk.trackbuf_hit`).
    pub trackbuf_hits: u64,
}

impl StreamAttribution {
    /// Cache hit fraction of all lookups, or `None` with no lookups.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// Per-stream latency attribution over one run's spans, ascending by
/// stream number.
pub fn attribute(spans: &[Span]) -> Vec<StreamAttribution> {
    let mut by_stream: BTreeMap<u32, StreamAttribution> = BTreeMap::new();
    for s in spans {
        let a = by_stream
            .entry(s.stream)
            .or_insert_with(|| StreamAttribution {
                stream: s.stream,
                ..Default::default()
            });
        let ns = span_ns(s);
        if s.parent.is_none() {
            a.total_root_ns += ns;
        }
        match s.name {
            "fs.read" | "fs.write" => {
                a.requests += 1;
                a.request_ns += ns;
            }
            "disk.queue" => a.queue_ns += ns,
            "disk.service" => a.service_ns += ns,
            "throttle.stall" => a.throttle_ns += ns,
            "cache.alloc_stall" => a.alloc_stall_ns += ns,
            "cache.hit" => a.cache_hits += 1,
            "cache.miss" => a.cache_misses += 1,
            "disk.trackbuf_hit" => a.trackbuf_hits += 1,
            _ => {}
        }
    }
    by_stream.into_values().collect()
}

/// Renders the per-stream latency-attribution table for one run: for each
/// stream, where its traced time went as a fraction of its total root-span
/// time (queue wait / disk service / throttle stall / page-alloc stall),
/// plus the cache hit rate and track-buffer absorption.
pub fn attribution_table(spans: &[Span]) -> String {
    let mut t = Table::new(&[
        "stream",
        "requests",
        "req ms",
        "queue",
        "service",
        "throttle",
        "alloc",
        "cache hits",
        "trackbuf",
    ]);
    let pct = |ns: u64, total: u64| -> String {
        if total == 0 {
            "-".into()
        } else {
            format!("{:.1}%", 100.0 * ns as f64 / total as f64)
        }
    };
    for a in attribute(spans) {
        t.row(vec![
            format!("{}", a.stream),
            format!("{}", a.requests),
            format!("{:.2}", a.request_ns as f64 / 1e6),
            pct(a.queue_ns, a.total_root_ns),
            pct(a.service_ns, a.total_root_ns),
            pct(a.throttle_ns, a.total_root_ns),
            pct(a.alloc_stall_ns, a.total_root_ns),
            a.hit_rate()
                .map(|r| format!("{:.1}%", 100.0 * r))
                .unwrap_or_else(|| "-".into()),
            format!("{}", a.trackbuf_hits),
        ]);
    }
    t.render()
}

/// Renders the first `max_roots` request trees *per distinct root name*
/// as a per-fault action timeline — the shape of the paper's Figures 3, 6
/// and 7, but reconstructed from a real trace instead of drawn by hand.
/// The per-name limit is what makes one run show a read tree, a write
/// tree and an async cluster push side by side rather than `max_roots`
/// copies of whatever phase ran first. Children are indented under their
/// parent and ordered by start time. Childless roots (e.g. untagged
/// metadata disk requests) are not trees and are skipped.
pub fn timeline_table(spans: &[Span], max_roots: usize) -> String {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if !s.parent.is_none() {
            children.entry(s.parent.as_u64()).or_default().push(s);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| (s.start, s.id.as_u64()));
    }
    // Action first: the first column is the only left-aligned one, which
    // is what keeps the depth indentation visible.
    let mut t = Table::new(&["action", "t (µs)", "dur (µs)", "detail"]);
    let mut emitted: BTreeMap<&str, usize> = BTreeMap::new();
    let mut stack: Vec<(&Span, usize)> = Vec::new();
    for s in spans {
        if !s.parent.is_none() || !children.contains_key(&s.id.as_u64()) {
            continue;
        }
        let n = emitted.entry(s.name).or_insert(0);
        if *n == max_roots {
            continue;
        }
        *n += 1;
        stack.push((s, 0));
        while let Some((span, depth)) = stack.pop() {
            let detail = span
                .args
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            t.row(vec![
                format!("{}{}", "  ".repeat(depth), span.name),
                us(span.start.as_nanos()),
                span.duration()
                    .map(|d| us(d.as_nanos()))
                    .unwrap_or_else(|| "open".into()),
                format!("stream={} {detail}", span.stream),
            ]);
            if let Some(kids) = children.get(&span.id.as_u64()) {
                for k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{Sim, SimDuration, SpanId};

    fn sample_run() -> (Sim, Vec<Span>) {
        let sim = Sim::new();
        sim.tracer().set_enabled(true);
        let tr = sim.tracer().clone();
        let s = sim.clone();
        sim.run_until(async move {
            let read = tr.start("fs.read", 1, SpanId::NONE);
            let get = tr.start("fs.getpage", 1, read);
            s.sleep(SimDuration::from_micros(3)).await;
            let q0 = s.now();
            s.sleep(SimDuration::from_micros(2)).await;
            tr.record("disk.queue", 1, get, q0, s.now());
            let svc = tr.start("disk.service", 1, get);
            s.sleep(SimDuration::from_micros(10)).await;
            tr.end(svc);
            tr.end(get);
            tr.end(read);
        });
        let spans = sim.tracer().take_spans();
        (sim, spans)
    }

    #[test]
    fn chrome_json_is_deterministic_and_complete() {
        let (_s1, spans1) = sample_run();
        let (_s2, spans2) = sample_run();
        let a = chrome_trace_json(&[("x/y".to_string(), spans1)]);
        let b = chrome_trace_json(&[("x/y".to_string(), spans2)]);
        assert_eq!(a, b, "identical runs export identical traces");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"disk.service\""));
        assert!(a.contains("\"name\":\"x/y stream 1\""));
        // All spans closed → one event per span plus one metadata record.
        assert_eq!(a.matches("\"ph\":\"X\"").count(), 4);
        assert_eq!(a.matches("\"ph\":\"M\"").count(), 1);
    }

    #[test]
    fn counter_tracks_merge_behind_span_pids() {
        let (_sim, spans) = sample_run();
        let timelines = vec![(
            "x/y".to_string(),
            vec![(
                "disk.queue_depth".to_string(),
                vec![(0u64, 1.0), (2_000, 0.0)],
            )],
        )];
        let merged = chrome_trace_json_with_counters(&[("x/y".to_string(), spans)], &timelines);
        assert_eq!(merged.matches("\"ph\":\"C\"").count(), 2);
        assert!(merged.contains("\"name\":\"x/y telemetry\""));
        assert!(merged.contains("\"args\":{\"value\":1}"));
        // Telemetry pid comes after the run's stream pid.
        assert!(merged.contains("\"ph\":\"X\""));
        // A run with no matching timeline gets no counter process.
        let (_sim2, spans2) = sample_run();
        let plain = chrome_trace_json_with_counters(&[("other".to_string(), spans2)], &timelines);
        assert_eq!(plain.matches("\"ph\":\"C\"").count(), 0);
        assert_eq!(plain.matches("\"ph\":\"M\"").count(), 1);
    }

    #[test]
    fn attribution_sums_layer_time() {
        let (_sim, spans) = sample_run();
        let per = attribute(&spans);
        assert_eq!(per.len(), 1);
        let a = &per[0];
        assert_eq!(a.stream, 1);
        assert_eq!(a.requests, 1);
        assert_eq!(a.request_ns, 15_000);
        assert_eq!(a.total_root_ns, 15_000);
        assert_eq!(a.queue_ns, 2_000);
        assert_eq!(a.service_ns, 10_000);
        let table = attribution_table(&spans);
        assert!(table.contains("13.3%"), "queue 2µs / 15µs:\n{table}");
        assert!(table.contains("66.7%"), "service 10µs / 15µs:\n{table}");
    }

    #[test]
    fn timeline_nests_children_under_roots() {
        let (_sim, spans) = sample_run();
        let table = timeline_table(&spans, 1);
        // Row 0 is the header, row 1 the separator.
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[2].contains("fs.read"));
        assert!(lines[3].contains("  fs.getpage"));
        assert!(lines[4].contains("    disk.queue"));
        assert!(lines[5].contains("    disk.service"));
    }
}
