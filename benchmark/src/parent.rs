//! The run of one workload: a count rep, timed reps until the time is up,
//! and with `--trace 1` a traced rep and the layer unit costs; then the
//! report and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::catalog::{Source, END_TO_END, PER_LAYER};
use crate::child::{arena_mb, RepMode};
use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::workloads::{Scale, Workload};

pub struct RunRequest {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub corrupt: bool,
}

/// Fewest timed reps a run reports a median of, whatever `--seconds` says.
const MIN_TIMED_REPS: usize = 5;

pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub digest: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub timed_reps: usize,
    /// All eleven end-to-end metrics, by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Every per-layer metric (`--trace 1` only).
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    /// The human-readable report.
    pub report: String,
}

/// Exit status a rep uses to say "I ran, and ops failed" (its result is
/// still on stdout), as opposed to crashing.
pub const EXIT_OPS_FAILED: u8 = 3;

/// Re-executes this binary for one rep and parses its result.
pub fn spawn_rep(
    req: &RunRequest,
    mode: RepMode,
    trace_file: Option<&PathBuf>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", mode.name(), "--workload", req.workload.name()])
        .args(["--seed", &req.seed.to_string()])
        .args(["--scale", if req.scale.full { "full" } else { "smoke" }]);
    if req.corrupt {
        cmd.arg("--corrupt");
    }
    if let Some(file) = trace_file {
        cmd.arg("--trace-file").arg(file);
    }
    // `output` waits for the child to end before it returns.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} rep: {e}", mode.name()))?;
    let code = out.status.code();
    if code != Some(0) && code != Some(i32::from(EXIT_OPS_FAILED)) {
        return Err(format!("the {} rep ended with {}", mode.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {} rep printed nothing", mode.name()))?;
    Json::parse(last).map_err(|e| format!("the {} rep's result does not parse: {e}", mode.name()))
}

fn field(doc: &Json, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("rep result has no number at {}", path.join(".")))
}

fn text<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("rep result has no string {key}"))
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

fn summarize(reps: &[Json], path: &[&str]) -> Result<Summary, String> {
    let values: Vec<f64> = reps
        .iter()
        .map(|r| field(r, path))
        .collect::<Result<_, _>>()?;
    let (q1, q3) = quartiles(&values);
    Ok(Summary {
        median: median(&values),
        q1,
        q3,
    })
}

pub fn run(req: &RunRequest) -> Result<Outcome, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(req.seconds);
    let mut notes: Vec<String> = Vec::new();

    let count = spawn_rep(req, RepMode::Count, None)?;
    let digest = text(&count, "digest")?.to_string();
    let failed = field(&count, &["failed"])? as u64;
    let attempted = field(&count, &["attempted"])? as u64;
    let mut correct = failed == 0;

    let mut traced = None;
    if req.trace {
        let file = PathBuf::from(format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-{}-{:#x}.json"),
            req.workload.name(),
            req.seed
        ));
        let rep = spawn_rep(req, RepMode::Traced, Some(&file))?;
        let costs = spawn_rep(req, RepMode::Layers, None)?;
        traced = Some((rep, costs));
    }

    let mut timed: Vec<Json> = Vec::new();
    while timed.len() < MIN_TIMED_REPS || Instant::now() < deadline {
        timed.push(spawn_rep(req, RepMode::Timed, None)?);
    }

    // Observers must not move a byte of virtual-time output: every rep,
    // armed, traced or plain, has to arrive at the count rep's digest.
    for rep in timed.iter().chain(traced.iter().map(|(rep, _)| rep)) {
        let (d, f) = (text(rep, "digest")?, field(rep, &["failed"])? as u64);
        if d != digest || f != failed {
            correct = false;
            notes.push(format!(
                "a {} rep disagrees with the count rep: digest {d} vs {digest}, {f} vs {failed} failed ops",
                text(rep, "mode")?
            ));
        }
    }

    let cpu = summarize(&timed, &["host", "cpu_s"])?;
    let cpu_raw = summarize(&timed, &["host", "cpu_raw_s"])?;
    let speed = summarize(&timed, &["host", "host_speed"])?;
    let setup = summarize(&timed, &["host", "setup_s"])?;
    let rss = summarize(&timed, &["host", "peak_rss_mb"])?;
    let faults = summarize(&timed, &["host", "minor_faults"])?;
    let arena = arena_mb(req.workload, req.scale) as f64;
    if rss.median >= arena {
        notes.push(format!(
            "peak RSS {:.0} MB has outgrown the {arena:.0} MB pre-touched arena: raise child::arena_mb",
            rss.median
        ));
    }

    let exact = |name: &str| field(&count, &["exact", name]);
    let end_to_end: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("sim_kb_per_s", exact("sim_kb_per_s")?),
        ("sim_op_p50_us", exact("sim_op_p50_us")?),
        ("sim_op_p99_us", exact("sim_op_p99_us")?),
        ("sim_cpu_ms_per_mb", exact("sim_cpu_ms_per_mb")?),
        ("paper_err_pct", exact("paper_err_pct")?),
        ("host_cpu_s", cpu.median),
        ("setup_s", setup.median),
        ("host_alloc_mb", field(&count, &["alloc", "mb"])?),
        ("host_peak_rss_mb", rss.median),
        ("host_minor_faults", faults.median),
        ("op_fail_frac", exact("op_fail_frac")?),
    ]);
    assert!(END_TO_END.iter().all(|m| end_to_end.contains_key(m.name)));
    if req.scale.full && exact("latency_samples")? < 1000.0 {
        correct = false;
        notes.push(
            "fewer than 1,000 latency samples: p99 has under ten samples beyond it".to_string(),
        );
    }

    let per_layer = match &traced {
        None => None,
        Some((rep, costs)) => Some(per_layer(&count, &timed, rep, costs, &end_to_end)?),
    };

    let mut report = String::new();
    let mut line = |s: String| {
        report.push_str(&s);
        report.push('\n');
    };
    line(format!(
        "workload {}  seed {:#x}  closed loop, {} runs per rep, {} timed reps (one process each)",
        req.workload.name(),
        req.seed,
        field(&count, &["runs"])?,
        timed.len()
    ));
    if let Some(Json::Arr(rows)) = count.get("phases") {
        for row in rows {
            line(format!(
                "  {:<13} {:<9} {:>9.1} KB/s {:>8.2} ms_virtual/MB",
                text(row, "cell")?,
                text(row, "kind")?,
                field(row, &["kb_per_s"])?,
                field(row, &["cpu_ms_per_mb"])?
            ));
        }
    }
    line("end-to-end".to_string());
    for m in &END_TO_END {
        let v = end_to_end[m.name];
        let extra = match m.name {
            "host_cpu_s" => format!(
                "  q1 {:.4} q3 {:.4} over {} reps; as measured {:.4} (q1 {:.4} q3 {:.4}) with the host at {:.2}x reference speed",
                cpu.q1,
                cpu.q3,
                timed.len(),
                cpu_raw.median,
                cpu_raw.q1,
                cpu_raw.q3,
                speed.median
            ),
            "setup_s" => format!("  q1 {:.4} q3 {:.4}", setup.q1, setup.q3),
            "host_peak_rss_mb" => format!("  q1 {:.1} q3 {:.1}", rss.q1, rss.q3),
            "host_minor_faults" => format!("  q1 {:.0} q3 {:.0}", faults.q1, faults.q3),
            "sim_op_p99_us" => format!(
                "  {} samples; highest supported percentile {} = {:.3}",
                exact("latency_samples")?,
                text(count.get("exact").unwrap_or(&Json::Null), "highest_supported_percentile")?,
                exact("sim_op_tail_us")?
            ),
            "paper_err_pct" if v < 0.0 => "  model unvalidated: the paper has no array figures".to_string(),
            "op_fail_frac" => format!("  {failed} of {attempted} ops"),
            _ => String::new(),
        };
        line(format!(
            "  {:<20} {:>16.6} {:<14}{extra}",
            m.name, v, m.unit
        ));
    }
    if let Some(Json::Obj(cells)) = count.get("alloc").and_then(|a| a.get("retained_by_cell")) {
        let cells: Vec<String> = cells
            .iter()
            .map(|(cell, mb)| format!("{cell} {:.1}", mb.as_f64().unwrap_or(0.0)))
            .collect();
        line(format!(
            "  retained MB per run, by cell: {}",
            cells.join(", ")
        ));
    }
    if let Some(layers) = &per_layer {
        line("per-layer".to_string());
        for m in &PER_LAYER {
            line(format!(
                "  {:<38} {:>18.6} {}",
                m.name, layers[m.name], m.unit
            ));
        }
        line("estimated share of host_cpu_s (count x unit cost / host_cpu_s)".to_string());
        if let Some((rep, _)) = &traced {
            for (what, ns) in host_shares(layers, rep)? {
                line(format!(
                    "  {:<58} {:>6.1} %",
                    what,
                    ns / 1e9 / cpu.median * 100.0
                ));
            }
            line(format!(
                "  spans: {}",
                text(rep.get("trace").unwrap_or(&Json::Null), "file")?
            ));
        }
    }
    for note in &notes {
        line(format!("note: {note}"));
    }
    line(format!("sim_digest {digest}"));
    line(format!("elapsed {:.1} s", started.elapsed().as_secs_f64()));

    Ok(Outcome {
        workload: req.workload,
        seed: req.seed,
        digest,
        correct,
        attempted,
        failed,
        timed_reps: timed.len(),
        end_to_end,
        per_layer,
        report,
    })
}

/// Assembles every per-layer metric from the reps that measured it.
fn per_layer(
    count: &Json,
    timed: &[Json],
    traced: &Json,
    costs: &Json,
    end_to_end: &BTreeMap<&'static str, f64>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let host = |key: &str| Ok::<f64, String>(summarize(timed, &["host", key])?.median);
    let cpu_s = end_to_end["host_cpu_s"];
    let moved_mb = field(count, &["host", "moved_mb"])?;
    // Span times are as measured; bring them to reference speed like the rest.
    let traced_speed = field(traced, &["host", "host_speed"])?;
    let op_ns = |kind: &str| {
        Ok::<f64, String>(field(traced, &["trace", &format!("op_{kind}_host_ns")])? * traced_speed)
    };
    let harness: BTreeMap<&str, f64> = BTreeMap::from([
        ("iobench.world_build_share", end_to_end["setup_s"] / cpu_s),
        ("iobench.prep_cpu_s", host("prep_s")?),
        ("iobench.measure_cpu_s", host("measure_s")?),
        (
            "iobench.retained_mb_per_run",
            field(count, &["alloc", "retained_mb_per_run"])?,
        ),
        ("iobench.allocs", field(count, &["alloc", "allocs"])?),
        (
            "iobench.alloc_kb_per_mb_moved",
            end_to_end["host_alloc_mb"] * 1024.0 / moved_mb,
        ),
        ("iobench.rep_wall_s", host("wall_s")?),
        (
            "iobench.polls_per_host_s",
            field(count, &["layers", "simkit.polls"])? / cpu_s,
        ),
        ("iobench.sim_mb_per_host_s", moved_mb / cpu_s),
        ("iobench.prewarm_s", host("prewarm_s")?),
        (
            "iobench.trace_overhead_pct",
            (field(traced, &["host", "cpu_s"])? / cpu_s - 1.0) * 100.0,
        ),
        ("iobench.op_read_host_ns", op_ns("read")?),
        ("iobench.op_write_host_ns", op_ns("write")?),
        ("iobench.op_fsync_host_ns", op_ns("fsync")?),
        ("iobench.op_meta_host_ns", op_ns("meta")?),
        ("iobench.paper_err_pct", end_to_end["paper_err_pct"]),
        ("iobench.op_fail_frac", end_to_end["op_fail_frac"]),
    ]);
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.source {
                Source::Count => field(count, &["layers", m.name])?,
                Source::UnitCost => field(costs, &["unit_costs", m.name])?,
                Source::Harness => *harness
                    .get(m.name)
                    .ok_or_else(|| format!("no harness value for {}", m.name))?,
            };
            Ok((m.name, v))
        })
        .collect()
}

/// Count x unit cost, in host ns per rep, for the products that make sense.
fn host_shares(
    layers: &BTreeMap<&'static str, f64>,
    traced: &Json,
) -> Result<Vec<(String, f64)>, String> {
    let l = |name: &str| layers[name];
    let mut rows = vec![
        (
            "simkit: tasks_spawned x spawn_join_ns".to_string(),
            l("simkit.tasks_spawned") * l("simkit.spawn_join_ns"),
        ),
        (
            "diskmodel: requests x the cheaper *_read_req_ns (a lower bound)".to_string(),
            l("diskmodel.requests")
                * l("diskmodel.seq_read_req_ns").min(l("diskmodel.rand_read_req_ns")),
        ),
        (
            "pagecache: creates x create_recycle_ns".to_string(),
            l("pagecache.creates") * l("pagecache.create_recycle_ns"),
        ),
    ];
    for kind in ["read", "write", "fsync", "meta"] {
        let n = field(traced, &["trace", &format!("op_{kind}_count")])?;
        rows.push((
            format!("iobench: op.{kind} calls x op_{kind}_host_ns (all layers below)"),
            n * l(&format!("iobench.op_{kind}_host_ns")),
        ));
    }
    Ok(rows)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

impl Outcome {
    /// The line the driver reads: `--trace 0` carries the end-to-end
    /// metrics `BENCHMARK.json` lists, `--trace 1` every per-layer metric.
    pub fn result_line(&self) -> String {
        let metrics = match &self.per_layer {
            Some(layers) => Json::obj(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, metric_json(layers[m.name], m.unit))),
            ),
            None => Json::obj(
                END_TO_END
                    .iter()
                    .filter(|m| m.driver_bound.is_some())
                    .map(|m| (m.name, metric_json(self.end_to_end[m.name], m.unit))),
            ),
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// This workload's entry in a result file (`--out`, read by `compare`).
    pub fn to_json(&self) -> Json {
        let mut doc = BTreeMap::from([
            ("seed".to_string(), Json::Str(format!("{:#x}", self.seed))),
            ("sim_digest".to_string(), Json::Str(self.digest.clone())),
            ("correct".to_string(), Json::Bool(self.correct)),
            ("timed_reps".to_string(), Json::Num(self.timed_reps as f64)),
            (
                "end_to_end".to_string(),
                Json::obj(
                    END_TO_END
                        .iter()
                        .map(|m| (m.name, metric_json(self.end_to_end[m.name], m.unit))),
                ),
            ),
        ]);
        if let Some(layers) = &self.per_layer {
            doc.insert(
                "per_layer".to_string(),
                Json::obj(
                    PER_LAYER
                        .iter()
                        .map(|m| (m.name, metric_json(layers[m.name], m.unit))),
                ),
            );
        }
        Json::Obj(doc)
    }
}
