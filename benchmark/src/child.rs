//! One rep, in a process of its own.
//!
//! Every simulated run's world stays allocated after its `Sim` is dropped
//! (daemon tasks hold `Sim` clones), about 24 MB per paper-scale run, so
//! reps cannot share a process: the parent re-executes this binary once
//! per rep and reads the rep's result, one JSON object, from its stdout.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use crate::alloc;
use crate::catalog::paper_a_over_d;
use crate::counts::{LayerCounts, RunFacts, NOT_APPLICABLE};
use crate::host;
use crate::json::Json;
use crate::layers;
use crate::probe::{new_rep, OpKind, PhaseResult, RepState};
use crate::span::{self, Span};
use crate::stats::{
    highest_supported_percentile, median, percentile_label, percentile_sorted, P50, P99,
};
use crate::workloads::{generate, run_rep, Scale, Workload};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepMode {
    /// Counting allocator armed: exact allocations, bytes, retention.
    Count,
    /// Everything disarmed: the rep that is timed.
    Timed,
    /// Spans recorded and written out.
    Traced,
    /// No workload: the layer unit costs.
    Layers,
}

impl RepMode {
    pub fn name(self) -> &'static str {
        match self {
            RepMode::Count => "count",
            RepMode::Timed => "timed",
            RepMode::Traced => "traced",
            RepMode::Layers => "layers",
        }
    }

    pub fn parse(s: &str) -> Option<RepMode> {
        [
            RepMode::Count,
            RepMode::Timed,
            RepMode::Traced,
            RepMode::Layers,
        ]
        .into_iter()
        .find(|m| m.name() == s)
    }
}

pub struct RepRequest {
    pub mode: RepMode,
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub corrupt: bool,
    /// Where a traced rep writes its spans.
    pub trace_file: Option<PathBuf>,
}

/// MB touched and released before the timed window: more than the rep's
/// peak RSS (the parent checks and says so if a change outgrows it).
pub fn arena_mb(workload: Workload, scale: Scale) -> usize {
    if !scale.full {
        return 96;
    }
    match workload {
        Workload::SeqRead => 640,
        Workload::SeqWrite => 512,
        Workload::SmallOps => 448,
        Workload::RaidStreams => 640,
    }
}

const LAYERS_ARENA_MB: usize = 512;

const MB: f64 = (1 << 20) as f64;

fn mb(bytes: u64) -> f64 {
    bytes as f64 / MB
}

fn num_map<'a>(entries: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    Json::obj(entries.into_iter().map(|(k, v)| (k, Json::Num(v))))
}

/// Runs the rep; the result object goes to the parent on stdout.
pub fn run(req: &RepRequest) -> Result<Json, String> {
    if req.mode == RepMode::Layers {
        host::pretouch(LAYERS_ARENA_MB);
        let yard0 = host::yardstick();
        let costs = layers::unit_costs();
        let speed = host::speed(yard0, host::yardstick());
        return Ok(Json::obj([
            (
                "unit_costs",
                num_map(costs.into_iter().map(|(k, ns)| (k, ns * speed))),
            ),
            ("host_speed", Json::Num(speed)),
        ]));
    }

    // (a) Back the pages this rep will touch, then forget the peak.
    let prewarm_s = host::pretouch(arena_mb(req.workload, req.scale));
    host::reset_peak_rss();

    // (b) Inputs and expectations, from the seed alone.
    let inputs = Rc::new(generate(req.workload, req.seed, req.scale, req.corrupt));
    let rep = new_rep(req.mode == RepMode::Traced);
    let mut counts = LayerCounts::default();
    let mut retained: Vec<(&'static str, i64)> = Vec::new();

    // (c) The window.
    let yard0 = host::yardstick();
    if req.mode == RepMode::Count {
        alloc::arm();
    }
    let mut live = alloc::snapshot().live;
    let (mut ops_seen, mut bytes_seen) = (0, 0);
    let faults0 = host::minor_faults();
    let wall0 = Instant::now();
    let cpu0 = host::on_cpu_ns();
    run_rep(req.workload, &inputs, &rep, |run| {
        let (ops, bytes) = {
            let st = rep.borrow();
            (st.attempted, st.moved_bytes)
        };
        let cpu_busy_ns = run.cpu.busy().as_nanos();
        let registry = counts.add_run(&RunFacts {
            sim: &run.sim,
            cell: run.cell,
            cpu_busy_ns,
            user_bytes: bytes - bytes_seen,
            ops: ops - ops_seen,
        })?;
        (ops_seen, bytes_seen) = (ops, bytes);
        {
            let mut st = rep.borrow_mut();
            st.digest.u64(run.sim.now().as_nanos());
            st.digest.u64(run.sim.polls());
            st.digest.u64(run.sim.spawned());
            st.digest.u64(cpu_busy_ns);
            st.digest.str(&registry);
        }
        // What is still allocated once the run's handles are gone is what
        // the run leaves behind for the rest of the process.
        let cell = run.cell.label();
        drop((registry, run));
        let now = alloc::snapshot().live;
        retained.push((cell, now - live));
        live = now;
        Ok(())
    })?;
    let cpu_s = (host::on_cpu_ns() - cpu0) as f64 / 1e9;
    let wall_s = wall0.elapsed().as_secs_f64();
    let faults = host::minor_faults() - faults0;
    let allocs = alloc::snapshot();
    alloc::disarm();
    let peak_rss_mb = host::peak_rss_kb() as f64 / 1024.0;
    let yard1 = host::yardstick();

    let mut st = rep.borrow_mut();
    let lat = std::mem::take(&mut st.lat_ns);
    for &ns in &lat {
        st.digest.u64(ns);
    }
    let (attempted, failed) = (st.attempted, st.failed);
    st.digest.u64(attempted);
    st.digest.u64(failed);

    // Host times are reported at reference speed: scaled by how fast the
    // yardstick ran around this rep. Phase intervals are wall time by
    // `Instant`, first scaled to on-CPU.
    let speed = host::speed(yard0, yard1);
    let on_cpu = if wall_s > 0.0 { cpu_s / wall_s } else { 1.0 };
    let phase_s = |ns: u64| ns as f64 / 1e9 * on_cpu * speed;
    let mut out = BTreeMap::from([
        ("mode".to_string(), Json::Str(req.mode.name().to_string())),
        ("digest".to_string(), Json::Str(st.digest.hex())),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("runs".to_string(), Json::Num(f64::from(st.runs))),
        ("exact".to_string(), exact_metrics(req.workload, &st, lat)?),
        (
            "host".to_string(),
            num_map([
                ("cpu_s", cpu_s * speed),
                ("cpu_raw_s", cpu_s),
                ("host_speed", speed),
                ("wall_s", wall_s),
                ("setup_s", phase_s(st.host.build_ns)),
                ("prep_s", phase_s(st.host.prep_ns)),
                ("measure_s", phase_s(st.host.measure_ns)),
                ("minor_faults", faults as f64),
                ("peak_rss_mb", peak_rss_mb),
                ("prewarm_s", prewarm_s),
                ("moved_mb", mb(st.moved_bytes)),
            ]),
        ),
        ("layers".to_string(), num_map(counts.metrics())),
        ("phases".to_string(), phase_table(&st.phases)),
    ]);
    if req.mode == RepMode::Count {
        out.insert(
            "alloc".to_string(),
            Json::obj([
                ("allocs", Json::Num(allocs.allocs as f64)),
                ("mb", Json::Num(mb(allocs.bytes))),
                (
                    "retained_mb_per_run",
                    Json::Num(
                        retained.iter().map(|r| r.1 as f64).sum::<f64>()
                            / MB
                            / retained.len() as f64,
                    ),
                ),
                ("retained_by_cell", retained_by_cell(&retained)),
            ]),
        );
    }
    if let Some(log) = &st.spans {
        let file = req
            .trace_file
            .as_ref()
            .ok_or("a traced rep needs --trace-file")?;
        out.insert("trace".to_string(), write_trace(req, file, &log.spans)?);
    }
    Ok(Json::Obj(out))
}

/// The virtual-time end-to-end metrics; all exact for a given seed.
fn exact_metrics(workload: Workload, st: &RepState, mut lat: Vec<u64>) -> Result<Json, String> {
    if lat.is_empty() || st.phases.is_empty() {
        return Err("the rep measured nothing".to_string());
    }
    lat.sort_unstable();
    let bytes: u64 = st.phases.iter().map(|p| p.bytes).sum();
    let virt_ns: u64 = st.phases.iter().map(|p| p.virt_ns).sum();
    let cpu_ns: u64 = st.phases.iter().map(|p| p.cpu_ns).sum();
    if bytes == 0 || virt_ns == 0 {
        return Err("no bytes moved in the measured phases".to_string());
    }
    let rate = |cell: &str, kind: &str| {
        st.phases
            .iter()
            .find(|p| p.cell == cell && p.kind == kind)
            .map(PhaseResult::kb_per_s)
    };
    let errs: Vec<f64> = workload
        .paper_kinds()
        .iter()
        .filter_map(|kind| {
            let paper = paper_a_over_d(kind)?;
            Some(((rate("ufs-A", kind)? / rate("ufs-D", kind)? - paper) / paper).abs() * 100.0)
        })
        .collect();
    if errs.len() != workload.paper_kinds().len() {
        return Err("a Figure 11 kind was not measured on both config A and config D".to_string());
    }
    let paper_err_pct = if errs.is_empty() {
        NOT_APPLICABLE
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    let tail = highest_supported_percentile(lat.len());
    Ok(Json::obj([
        (
            "sim_kb_per_s",
            Json::Num(bytes as f64 / 1024.0 / (virt_ns as f64 / 1e9)),
        ),
        (
            "sim_op_p50_us",
            Json::Num(percentile_sorted(&lat, P50) as f64 / 1e3),
        ),
        (
            "sim_op_p99_us",
            Json::Num(percentile_sorted(&lat, P99) as f64 / 1e3),
        ),
        (
            "sim_cpu_ms_per_mb",
            Json::Num(cpu_ns as f64 / 1e6 / mb(bytes)),
        ),
        ("paper_err_pct", Json::Num(paper_err_pct)),
        (
            "op_fail_frac",
            Json::Num(st.failed as f64 / st.attempted as f64),
        ),
        ("latency_samples", Json::Num(lat.len() as f64)),
        (
            "highest_supported_percentile",
            Json::Str(tail.map_or("none".to_string(), percentile_label)),
        ),
        (
            "sim_op_tail_us",
            Json::Num(tail.map_or(0.0, |p| percentile_sorted(&lat, p) as f64 / 1e3)),
        ),
    ]))
}

/// First-pass throughput and CPU cost of each (cell, kind).
fn phase_table(phases: &[PhaseResult]) -> Json {
    let mut seen = Vec::new();
    let mut rows = Vec::new();
    for p in phases {
        if seen.contains(&(p.cell, p.kind)) {
            continue;
        }
        seen.push((p.cell, p.kind));
        rows.push(Json::obj([
            ("cell", Json::Str(p.cell.to_string())),
            ("kind", Json::Str(p.kind.to_string())),
            ("kb_per_s", Json::Num(p.kb_per_s())),
            (
                "cpu_ms_per_mb",
                Json::Num(p.cpu_ns as f64 / 1e6 / mb(p.bytes)),
            ),
        ]));
    }
    Json::Arr(rows)
}

fn retained_by_cell(retained: &[(&'static str, i64)]) -> Json {
    let mut by_cell: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(cell, bytes) in retained {
        by_cell.entry(cell).or_default().push(bytes as f64 / MB);
    }
    Json::obj(
        by_cell
            .into_iter()
            .map(|(cell, mb)| (cell, Json::Num(median(&mb)))),
    )
}

/// Validates and writes the spans, and derives the host cost of one
/// benchmark-issued call of each kind.
fn write_trace(req: &RepRequest, path: &PathBuf, spans: &[Span]) -> Result<Json, String> {
    span::validate(spans)?;
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(io)?);
    span::write_json(&mut out, req.workload.name(), req.seed, spans).map_err(io)?;
    out.flush().map_err(io)?;

    let self_ns = span::self_times(spans);
    let mut doc = BTreeMap::from([
        ("file".to_string(), Json::Str(path.display().to_string())),
        ("spans".to_string(), Json::Num(spans.len() as f64)),
    ]);
    for kind in OpKind::ALL {
        let own: Vec<f64> = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == kind.span_name())
            .map(|(_, &ns)| ns as f64)
            .collect();
        doc.insert(
            format!("{}_host_ns", kind.span_name().replace('.', "_")),
            Json::Num(batched_median(&own)),
        );
        doc.insert(
            format!("{}_count", kind.span_name().replace('.', "_")),
            Json::Num(own.len() as f64),
        );
    }
    Ok(Json::Obj(doc))
}

/// Median over (up to) as many consecutive batches as the layer unit costs
/// use, of the mean within each batch: robust like a median, yet a mean
/// where it matters (most reads are cache hits; the few that are not
/// carry the cost).
fn batched_median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let per_batch = samples.len().div_ceil(layers::BATCHES);
    let means: Vec<f64> = samples
        .chunks(per_batch)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_median_is_a_median_of_batch_means() {
        assert_eq!(batched_median(&[]), 0.0);
        assert_eq!(batched_median(&[5.0, 1.0, 3.0]), 3.0);
        // 62 samples -> 31 batches of two; one wild batch does not move it.
        let mut v: Vec<f64> = (0..62).map(|i| f64::from(i % 2) * 2.0 + 1.0).collect();
        v[0] = 1e9;
        assert_eq!(batched_median(&v), 2.0);
    }
}
