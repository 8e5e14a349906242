//! Spans around the benchmark's own calls into the program, on both
//! clocks. Kept in memory while the rep runs and written out once at its
//! end; spans inside the program are a later issue (ROADMAP 5(e)).
//!
//! Tree: `run` -> `world.build` | `prep` | `measure` | `verify` ->
//! `op.read` | `op.write` | `op.fsync` | `op.meta`.

use std::io::{self, Write};
use std::time::Instant;

pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Which simulated run of the rep this span belongs to.
    pub run: u32,
    pub parent: SpanId,
    pub host_start_ns: u64,
    /// 0 until the span closes (host time starts at the log's epoch, and
    /// no span can close in the nanosecond it opened the log).
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn host_now(&self) -> u64 {
        // +1 keeps a closed span's end distinguishable from "still open".
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    pub fn open(&mut self, name: &'static str, run: u32, parent: SpanId, virt_ns: u64) -> SpanId {
        let host = self.host_now();
        self.spans.push(Span {
            name,
            run,
            parent,
            host_start_ns: host,
            host_end_ns: 0,
            virt_start_ns: virt_ns,
            virt_end_ns: virt_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId, virt_ns: u64) {
        let host = self.host_now();
        let s = &mut self.spans[id as usize];
        assert_eq!(s.host_end_ns, 0, "span {} closed twice", s.name);
        s.host_end_ns = host;
        s.virt_end_ns = virt_ns;
    }
}

/// Self time of every span on the host clock: the time during which it was
/// the innermost open span. For properly nested spans that is duration
/// minus children. Ops of concurrent streams overlap as siblings; there an
/// instant goes to the most recently opened span still open, so self times
/// always partition their root's duration exactly.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // (time, is_open, id): at equal times closes sort before opens, so a
    // span that ends where the next begins never counts as enclosing it.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.host_start_ns, true, i));
        events.push((s.host_end_ns, false, i));
    }
    events.sort_unstable();
    let mut self_ns = vec![0u64; spans.len()];
    // Open spans in opening order; the innermost is the last still open.
    let mut open: Vec<usize> = Vec::new();
    let mut closed = vec![false; spans.len()];
    let mut last = 0u64;
    for (t, is_open, i) in events {
        while open.last().is_some_and(|&top| closed[top]) {
            open.pop();
        }
        if let Some(&top) = open.last() {
            self_ns[top] += t - last;
        }
        last = t;
        if is_open {
            open.push(i);
        } else {
            closed[i] = true;
        }
    }
    self_ns
}

/// Checks the invariants a reader of the file relies on: every span
/// closed, every child inside its parent on both clocks and in the same
/// run, and the self times of each run adding up to that run's duration.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.host_end_ns == 0 {
            return Err(format!("span {i} ({}) never closed", s.name));
        }
        if s.host_end_ns < s.host_start_ns || s.virt_end_ns < s.virt_start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == NO_SPAN {
            continue;
        }
        let p = spans
            .get(s.parent as usize)
            .ok_or_else(|| format!("span {i} ({}) has no parent {}", s.name, s.parent))?;
        let inside = p.host_start_ns <= s.host_start_ns
            && s.host_end_ns <= p.host_end_ns
            && p.virt_start_ns <= s.virt_start_ns
            && s.virt_end_ns <= p.virt_end_ns;
        if !inside || p.run != s.run {
            return Err(format!(
                "span {i} ({}) escapes its parent {}",
                s.name, p.name
            ));
        }
    }
    let self_ns = self_times(spans);
    for (i, root) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == NO_SPAN)
    {
        let sum: u64 = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.run == root.run)
            .map(|(_, ns)| ns)
            .sum();
        if sum != root.host_ns() {
            return Err(format!(
                "run {}: self times sum to {sum} ns, span {i} lasted {} ns",
                root.run,
                root.host_ns()
            ));
        }
    }
    Ok(())
}

/// Writes the spans as one JSON document.
pub fn write_json(
    out: &mut impl Write,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> io::Result<()> {
    let self_ns = self_times(spans);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock_units\": \"ns\", \"spans\": ["
    )?;
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
             \"host_start\": {}, \"host_end\": {}, \"virt_start\": {}, \"virt_end\": {}, \
             \"host_self\": {own}}}{}",
            s.name,
            s.run,
            s.host_start_ns,
            s.host_end_ns,
            s.virt_start_ns,
            s.virt_end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, host: (u64, u64)) -> Span {
        Span {
            name,
            run: 0,
            parent,
            host_start_ns: host.0,
            host_end_ns: host.1,
            virt_start_ns: host.0,
            virt_end_ns: host.1,
        }
    }

    #[test]
    fn nested_self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", NO_SPAN, (10, 110)),
            span("prep", 0, (20, 50)),
            span("op.write", 1, (25, 30)),
            span("op.write", 1, (30, 45)),
            span("measure", 0, (50, 100)),
            span("op.read", 4, (60, 90)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 5, 15, 20, 30]);
        validate(&spans).unwrap();
    }

    #[test]
    fn overlapping_siblings_still_partition_the_run() {
        // Two streams' reads interleave: the later-opened one is innermost.
        let spans = vec![
            span("run", NO_SPAN, (0, 100)),
            span("measure", 0, (0, 100)),
            span("op.read", 1, (10, 60)),
            span("op.read", 1, (30, 80)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![0, 30, 20, 50]);
        assert_eq!(own.iter().sum::<u64>(), 100);
        validate(&spans).unwrap();
    }

    #[test]
    fn validation_catches_open_and_escaping_spans() {
        let mut spans = vec![span("run", NO_SPAN, (1, 50)), span("prep", 0, (10, 60))];
        assert!(validate(&spans).unwrap_err().contains("escapes"));
        spans[1].host_end_ns = 0;
        assert!(validate(&spans).unwrap_err().contains("never closed"));
    }

    #[test]
    fn log_records_both_clocks_and_serializes() {
        let mut log = SpanLog::default();
        let run = log.open("run", 3, NO_SPAN, 1000);
        let op = log.open("op.read", 3, run, 1500);
        log.close(op, 2500);
        log.close(run, 4000);
        validate(&log.spans).unwrap();
        assert_eq!(
            (log.spans[1].virt_start_ns, log.spans[1].virt_end_ns),
            (1500, 2500)
        );
        let mut out = Vec::new();
        write_json(&mut out, "seq_read", 7, &log.spans).unwrap();
        let doc = crate::json::Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let crate::json::Json::Arr(items) = doc.get("spans").unwrap() else {
            panic!("spans is an array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(items[0].get("parent"), Some(&crate::json::Json::Null));
    }
}
