//! Self-contained experiment drivers: each regenerates one of the paper's
//! tables or figures and returns it as rendered text (plus raw numbers for
//! tests and EXPERIMENTS.md).

use clufs::Tuning;
use diskmodel::{Disk, DiskParams};
use pagecache::{PageCacheParams, PageoutParams};
use simkit::{json, Sim};
use vfs::{FileSystem, World};

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::aging::{
    age_filesystem, clustering_decay, probe_extents, AgingOptions, DecayOptions, DecayPoint,
};
use crate::configs::{paper_ext_world, paper_world, Config, WorldOptions};
use crate::cpu_bench::mmap_read_cpu;
use crate::iobench::{run_iobench, BenchOptions, IoKind, Throughput};
use crate::musbus::{run_musbus, MusbusOptions};
use crate::report::{kbs, ratio, Table};
use crate::runner::{RunPlan, Runner};
use crate::streams::{run_streams, StreamsOptions};
use crate::{STATS_SCHEMA, TIMELINE_SCHEMA};

/// Collects labeled per-run metrics snapshots (and, with
/// [`StatsSink::with_tracing`], span traces) during an experiment.
///
/// Every experiment builds a fresh [`Sim`] (and therefore a fresh metrics
/// registry) per simulated run via [`StatsSink::sim`]; the driver captures
/// each run's full registry here, and the `--stats-json` flag serializes
/// the collection as one document (schema [`STATS_SCHEMA`], documented in
/// DESIGN.md "Observability"). Snapshots are pure functions of the
/// virtual-time simulation, so two identical runs produce byte-identical
/// documents.
#[derive(Default)]
pub struct StatsSink {
    /// `(run id, registry JSON)` in run order.
    runs: RefCell<Vec<(String, String)>>,
    /// Whether [`StatsSink::sim`] arms the span tracer on new sims.
    tracing: bool,
    /// Virtual-time telemetry sampling interval: when set,
    /// [`StatsSink::sim`] arms the sampler on new sims and the per-run
    /// series land in `timelines` (behind `--timeline`).
    sample_every: Option<simkit::SimDuration>,
    /// `(run id, drained spans)` in run order (empty unless tracing).
    traces: RefCell<Vec<(String, Vec<simkit::Span>)>>,
    /// `(run id, sampled series)` in run order (empty unless sampling).
    timelines: RefCell<Vec<(String, Vec<simkit::perfmon::Series>)>>,
}

impl StatsSink {
    /// Upper bound on sampler ticks per run: bounds the timeline document
    /// and guarantees the sampler task quiesces even if a run misbehaves.
    pub const MAX_SAMPLES_PER_RUN: u64 = 200_000;

    /// An empty sink.
    pub fn new() -> StatsSink {
        StatsSink::default()
    }

    /// An empty sink that also captures span traces: sims built through
    /// [`StatsSink::sim`] get their tracer enabled before the run, and
    /// [`StatsSink::push`] drains the recorded spans.
    pub fn with_tracing() -> StatsSink {
        StatsSink {
            tracing: true,
            ..StatsSink::default()
        }
    }

    /// An empty sink with both capture features selectable: span tracing
    /// (`--trace`) and virtual-time telemetry sampling at `sample_every`
    /// (`--timeline`/`--sample-every`). The CLI builds its sink here.
    pub fn with_capture(tracing: bool, sample_every: Option<simkit::SimDuration>) -> StatsSink {
        StatsSink {
            tracing,
            sample_every,
            ..StatsSink::default()
        }
    }

    /// Builds the sim an experiment run should use, with the span tracer
    /// enabled when this sink traces and the telemetry sampler armed when
    /// it samples. Experiments call this (via [`sink_sim`]) instead of
    /// `Sim::new()` so `--trace`/`--timeline` reach every run without
    /// per-experiment plumbing.
    pub fn sim(&self) -> Sim {
        let sim = Sim::new();
        if self.tracing {
            sim.tracer().set_enabled(true);
        }
        if let Some(every) = self.sample_every {
            sim.telemetry()
                .start(&sim, every, Self::MAX_SAMPLES_PER_RUN);
        }
        sim
    }

    /// Whether sims built through this sink record span traces.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The telemetry sampling interval, when this sink samples.
    pub fn sample_every(&self) -> Option<simkit::SimDuration> {
        self.sample_every
    }

    /// Captures `sim`'s entire metrics registry under `id`
    /// (`experiment/run` path style, e.g. `fig10/A/FSR`), draining the
    /// run's spans and sampled timeline alongside when enabled.
    pub fn push(&self, id: impl Into<String>, sim: &Sim) {
        let id = id.into();
        if self.tracing {
            self.traces
                .borrow_mut()
                .push((id.clone(), sim.tracer().take_spans()));
        }
        if self.sample_every.is_some() {
            self.timelines
                .borrow_mut()
                .push((id.clone(), sim.telemetry().take_series()));
        }
        self.runs.borrow_mut().push((id, sim.stats().to_json()));
    }

    /// Captures an already-serialized run outcome (how the parallel
    /// [`Runner`](crate::runner::Runner) re-emits worker results in plan
    /// order: workers serialize on their own thread, the sink only ever
    /// sees main-thread pushes).
    pub fn push_outcome(
        &self,
        id: &str,
        stats_json: Option<String>,
        spans: Vec<simkit::Span>,
        timeline: Vec<simkit::perfmon::Series>,
    ) {
        if self.tracing {
            self.traces.borrow_mut().push((id.to_string(), spans));
        }
        if self.sample_every.is_some() {
            self.timelines.borrow_mut().push((id.to_string(), timeline));
        }
        if let Some(stats) = stats_json {
            self.runs.borrow_mut().push((id.to_string(), stats));
        }
    }

    /// Number of captured runs.
    pub fn len(&self) -> usize {
        self.runs.borrow().len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The captured `(run id, registry JSON)` pairs, in run order.
    pub fn runs(&self) -> Vec<(String, String)> {
        self.runs.borrow().clone()
    }

    /// Consumes the sink, yielding the captured `(run id, registry JSON)`
    /// pairs without cloning them (use on emit paths; [`StatsSink::runs`]
    /// clones for callers that still need the sink).
    pub fn into_runs(self) -> Vec<(String, String)> {
        self.runs.into_inner()
    }

    /// The captured `(run id, spans)` traces, in run order (empty unless
    /// built with [`StatsSink::with_tracing`]).
    pub fn traces(&self) -> Vec<(String, Vec<simkit::Span>)> {
        self.traces.borrow().clone()
    }

    /// Consumes the sink, yielding the captured traces without cloning
    /// every span (traces dwarf the stats snapshots, so the `--trace`
    /// emit path uses this).
    pub fn into_traces(self) -> Vec<(String, Vec<simkit::Span>)> {
        self.traces.into_inner()
    }

    /// The captured `(run id, series)` timelines, in run order (empty
    /// unless the sink samples).
    pub fn timelines(&self) -> Vec<(String, Vec<simkit::perfmon::Series>)> {
        self.timelines.borrow().clone()
    }

    /// Serializes the sampled timelines as the `--timeline` document
    /// (schema [`TIMELINE_SCHEMA`]): per run, per metric, sparse
    /// `[virtual_ns, value]` points recorded only on change. A pure
    /// function of the virtual-time runs — byte-identical across
    /// identical invocations and any `--jobs` value.
    pub fn timeline_json(&self, experiment: &str) -> String {
        let every = self.sample_every.map(|d| d.as_nanos()).unwrap_or(0);
        let mut out = document_head(TIMELINE_SCHEMA, experiment);
        let _ = write!(out, ",\"sample_every_ns\":{every},\"runs\":[");
        for (id, series) in self.timelines.borrow().iter() {
            json::open_object(&mut out, "id", id);
            out.push_str(",\"series\":[");
            for (name, points) in series {
                json::open_object(&mut out, "name", name);
                out.push_str(",\"points\":[");
                for (t, v) in points {
                    json::sep(&mut out);
                    let _ = write!(out, "[{t},");
                    json::f64(&mut out, *v);
                    out.push(']');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Serializes the collection as the `--stats-json` document.
    pub fn to_json(&self, experiment: &str) -> String {
        let mut out = document_head(STATS_SCHEMA, experiment);
        out.push_str(",\"runs\":[");
        for (id, stats) in self.runs.borrow().iter() {
            json::open_object(&mut out, "id", id);
            let _ = write!(out, ",\"stats\":{stats}}}");
        }
        out.push_str("]}");
        out
    }
}

/// Opens a document: `{"schema":…,"experiment":…` (left open).
pub(crate) fn document_head(schema: &str, experiment: &str) -> String {
    let mut out = String::from("{");
    json::key(&mut out, "schema");
    json::string(&mut out, schema);
    json::key(&mut out, "experiment");
    json::string(&mut out, experiment);
    out
}

/// The [`Sim`] for one experiment run: `sink.sim()` when a sink is
/// attached (arming the tracer under `--trace`), a plain `Sim::new()`
/// otherwise.
fn sink_sim(sink: Option<&StatsSink>) -> Sim {
    sink.map(|s| s.sim()).unwrap_or_default()
}

/// Sizing for a full (paper-scale) or quick (CI-scale) run.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// IObench file size.
    pub file_bytes: u64,
    /// Random ops for FRR/FRU.
    pub random_ops: usize,
    /// Figure 12 file size.
    pub cpu_file_bytes: u64,
}

impl RunScale {
    /// The paper's sizes: 16 MB files.
    pub fn paper() -> RunScale {
        RunScale {
            file_bytes: 16 << 20,
            random_ops: 1024,
            cpu_file_bytes: 16 << 20,
        }
    }

    /// Reduced sizes for fast iteration and CI.
    pub fn quick() -> RunScale {
        RunScale {
            file_bytes: 4 << 20,
            random_ops: 256,
            cpu_file_bytes: 4 << 20,
        }
    }
}

/// Renders Figure 9 (the run-configuration matrix).
pub fn fig9_table() -> String {
    let mut t = Table::new(&[
        "",
        "cluster size",
        "rotdelay",
        "UFS version",
        "free behind",
        "write limit",
    ]);
    for c in Config::all() {
        let (cluster, rot, version, fb, wl) = c.figure9_row();
        t.row(vec![
            c.label().to_string(),
            cluster,
            format!("{rot}"),
            version.to_string(),
            if fb { "Yes" } else { "No" }.to_string(),
            if wl { "Yes" } else { "No" }.to_string(),
        ]);
    }
    t.render()
}

/// Raw Figure 10 rates: `rates[config][kind]` in KB/s.
pub type Fig10Data = Vec<Vec<f64>>;

/// Drives one Figure 10 cell (one config, one workload) on `sim`.
fn fig10_cell_on(sim: &Sim, config: Config, kind: IoKind, scale: RunScale) -> Throughput {
    let s = sim.clone();
    sim.run_until(async move {
        let w = paper_world(&s, config.tuning(), WorldOptions::default())
            .await
            .expect("world");
        measure(&w, "iobench.dat", kind, scale).await
    })
}

/// Runs one Figure 10 cell in a fresh world, capturing the run's metrics
/// snapshot into `sink` as `fig10/<config>/<kind>`. Public so tests can
/// assert on single-cell snapshots without paying for the whole matrix.
pub fn fig10_cell(
    config: Config,
    kind: IoKind,
    scale: RunScale,
    sink: Option<&StatsSink>,
) -> Throughput {
    let sim = sink_sim(sink);
    let t = fig10_cell_on(&sim, config, kind, scale);
    if let Some(sink) = sink {
        sink.push(format!("fig10/{}/{}", config.label(), kind.label()), &sim);
    }
    t
}

/// Runs the full Figure 10 matrix. Expensive (20 simulated runs), so the
/// cells fan out across the runner's worker threads.
pub fn fig10_run(scale: RunScale, runner: &Runner) -> Fig10Data {
    let mut plans = Vec::new();
    for c in Config::all() {
        for k in IoKind::all() {
            plans.push(RunPlan::new(
                format!("fig10/{}/{}", c.label(), k.label()),
                move |sim: &Sim| fig10_cell_on(sim, c, k, scale).kb_per_sec(),
            ));
        }
    }
    let rates = runner.run(plans);
    rates
        .chunks(IoKind::all().len())
        .map(|row| row.to_vec())
        .collect()
}

/// Renders Figure 10 from measured data.
pub fn fig10_table(data: &Fig10Data) -> String {
    let mut t = Table::new(&["", "FSR", "FSU", "FSW", "FRR", "FRU"]);
    for (i, c) in Config::all().iter().enumerate() {
        let mut row = vec![c.label().to_string()];
        row.extend(data[i].iter().map(|&r| kbs(r)));
        t.row(row);
    }
    t.render()
}

/// Renders Figure 11 (ratios A/B, A/C, A/D) from measured data.
pub fn fig11_table(data: &Fig10Data) -> String {
    let mut t = Table::new(&["", "FSR", "FSU", "FSW", "FRR", "FRU"]);
    for (i, label) in [(1usize, "A/B"), (2, "A/C"), (3, "A/D")] {
        let mut row = vec![label.to_string()];
        row.extend((0..5).map(|k| ratio(data[0][k], data[i][k])));
        t.row(row);
    }
    t.render()
}

/// Figure 12: CPU seconds to read a 16 MB file via mmap, new vs old UFS.
/// Returns `(rendered table, new_cpu_secs, old_cpu_secs)`.
pub fn fig12_run(scale: RunScale, runner: &Runner) -> (String, f64, f64) {
    let plan = |tuning: Tuning, id: &str| {
        RunPlan::new(format!("fig12/{id}"), move |sim: &Sim| {
            let s = sim.clone();
            sim.run_until(async move {
                let w = paper_world(&s, tuning, WorldOptions::default())
                    .await
                    .expect("world");
                mmap_read_cpu(&s, &w, "mmap.dat", scale.cpu_file_bytes)
                    .await
                    .expect("cpu bench")
                    .cpu
                    .as_secs_f64()
            })
        })
    };
    // The paper compares "4.1.1 UFS, no rotdelays" vs "4.1 UFS, rotdelays".
    let cpus = runner.run(vec![
        plan(Tuning::config_a(), "new"),
        plan(Tuning::config_d(), "old"),
    ]);
    let (new, old) = (cpus[0], cpus[1]);
    let mut t = Table::new(&["CPU", "Notes"]);
    let mb = scale.cpu_file_bytes >> 20;
    t.row(vec![
        format!("{new:.1}s"),
        format!("4.1.1 UFS, no rotdelays, {mb}MB mmap read"),
    ]);
    t.row(vec![
        format!("{old:.1}s"),
        format!("4.1 UFS, rotdelays, {mb}MB mmap read"),
    ]);
    (t.render(), new, old)
}

/// The allocator-contiguity study. Returns `(rendered, best_mean_bytes,
/// aged_mean_bytes)`.
pub fn extents_run(quick: bool, runner: &Runner) -> (String, f64, f64) {
    let (probe_mb, aged_target) = if quick { (4u64, 0.7) } else { (13u64, 0.88) };
    let probe2_mb = if quick { 4u64 } else { 16 };
    // Best case: fill a fresh partition with one file.
    let best_plan = RunPlan::new("extents/best", move |sim: &Sim| {
        let s = sim.clone();
        sim.run_until(async move {
            let w = paper_world(&s, Tuning::config_a(), WorldOptions::default())
                .await
                .expect("world");
            probe_extents(&w, "best.dat", probe_mb << 20)
                .await
                .expect("probe")
        })
    });
    // Worst case: fill the last 15% of a heavily fragmented partition.
    let worst_plan = RunPlan::new("extents/aged", move |sim: &Sim| {
        let s = sim.clone();
        sim.run_until(async move {
            let w = paper_world(&s, Tuning::config_a(), WorldOptions::default())
                .await
                .expect("world");
            age_filesystem(
                &w,
                AgingOptions {
                    target_fill: aged_target,
                    rounds: if quick { 2 } else { 5 },
                    seed: 0xA6E,
                },
            )
            .await
            .expect("aging");
            probe_extents(&w, "home/worst.dat", probe2_mb << 20)
                .await
                .expect("probe")
        })
    });
    let stats = runner.run(vec![best_plan, worst_plan]);
    let (best, worst) = (stats[0], stats[1]);
    let mut t = Table::new(&["case", "file", "extents", "mean extent", "max extent"]);
    for (label, st) in [("empty fs", &best), ("aged fs (last 15%)", &worst)] {
        t.row(vec![
            label.to_string(),
            format!("{:.1}MB", st.file_bytes as f64 / 1048576.0),
            format!("{}", st.extents),
            format!("{:.0}KB", st.mean_extent_bytes / 1024.0),
            format!("{}KB", st.max_extent_bytes / 1024),
        ]);
    }
    (t.render(), best.mean_extent_bytes, worst.mean_extent_bytes)
}

/// Knobs for the clustering-decay (aging) study, settable from the CLI.
#[derive(Clone, Copy, Debug)]
pub struct AgingParams {
    /// Churn rounds (the study emits `rounds + 1` decay points).
    pub rounds: usize,
    /// Target utilization each fill phase churns toward (`--utilization`).
    pub target_fill: f64,
    /// File-creation budget per churn round (`--age-ops`).
    pub ops_per_round: usize,
    /// extentfs inline-file threshold in bytes (`--inline-threshold`).
    pub inline_max: usize,
    /// Probe file size.
    pub probe_bytes: u64,
}

impl AgingParams {
    /// Paper-scale aging: the full 400 MB drive, 8 MB probes.
    pub fn paper() -> AgingParams {
        AgingParams {
            rounds: 4,
            target_fill: 0.85,
            ops_per_round: 4096,
            inline_max: 512,
            probe_bytes: 8 << 20,
        }
    }

    /// CI-scale aging: the small test world, 1 MB probes.
    pub fn quick() -> AgingParams {
        AgingParams {
            rounds: 2,
            target_fill: 0.70,
            ops_per_round: 512,
            inline_max: 512,
            probe_bytes: 1 << 20,
        }
    }
}

/// The fragmentation/aging study: churns a UFS and an extentfs volume
/// through the same create/delete mix and measures clustering decay —
/// probe-file mean extent length, contiguity fraction, and cold
/// sequential-read throughput — after each round. Returns the rendered
/// side-by-side table plus the raw per-file-system decay curves.
pub fn aging_run(
    params: AgingParams,
    quick: bool,
    runner: &Runner,
) -> (String, Vec<(&'static str, Vec<DecayPoint>)>) {
    let decay_opts = DecayOptions {
        rounds: params.rounds,
        target_fill: params.target_fill,
        ops_per_round: params.ops_per_round,
        probe_bytes: params.probe_bytes,
        seed: 0xA6E,
    };
    let ufs_plan = RunPlan::new("aging/ufs", move |sim: &Sim| {
        let s = sim.clone();
        sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: !quick,
                ..WorldOptions::default()
            };
            let w = paper_world(&s, Tuning::config_a(), opts)
                .await
                .expect("world");
            // UFS ages a `/home` directory; extentfs is flat.
            w.fs.mkdir("home").await.expect("mkdir");
            clustering_decay(&w, "home/", &decay_opts)
                .await
                .expect("decay")
        })
    });
    let inline_max = params.inline_max;
    let ext_plan = RunPlan::new("aging/extentfs", move |sim: &Sim| {
        let s = sim.clone();
        sim.run_until(async move {
            let (disk_params, cache_params, pageout_params, ninodes) = if quick {
                (
                    DiskParams::small_test(),
                    PageCacheParams::small_test(),
                    PageoutParams::small_test(),
                    256,
                )
            } else {
                (
                    DiskParams::sun0424(),
                    PageCacheParams::sparcstation_8mb(),
                    PageoutParams::sparcstation(),
                    2048,
                )
            };
            let mut fs_params = extentfs::ExtentFsParams::with_extent_blocks(15);
            fs_params.inline_max = inline_max;
            let w = extentfs::build_world_on(
                &s,
                Rc::new(Disk::new(&s, disk_params)),
                cache_params,
                pageout_params,
                ninodes,
                fs_params,
            )
            .expect("format");
            clustering_decay(&w, "", &decay_opts).await.expect("decay")
        })
    });
    let mut results = runner.run(vec![ufs_plan, ext_plan]);
    let ext = results.pop().expect("extentfs decay");
    let ufs = results.pop().expect("ufs decay");
    let mut t = Table::new(&[
        "round",
        "UFS mean ext",
        "UFS contig",
        "UFS seq rd",
        "extfs mean ext",
        "extfs contig",
        "extfs seq rd",
    ]);
    for (u, e) in ufs.iter().zip(&ext) {
        t.row(vec![
            format!("{}", u.round),
            format!("{:.0}KB", u.mean_extent_kb),
            format!("{:.2}", u.contiguity_fraction),
            kbs(u.seq_read_kb_s),
            format!("{:.0}KB", e.mean_extent_kb),
            format!("{:.2}", e.contiguity_fraction),
            kbs(e.seq_read_kb_s),
        ]);
    }
    (t.render(), vec![("ufs", ufs), ("extentfs", ext)])
}

/// MusBus comparison (should improve "only slightly"). Returns
/// `(rendered, ratio_old_over_new)`.
pub fn musbus_run(runner: &Runner) -> (String, f64) {
    let plan = |tuning: Tuning, id: &str| {
        RunPlan::new(format!("musbus/{id}"), move |sim: &Sim| {
            let s = sim.clone();
            sim.run_until(async move {
                let w = paper_world(&s, tuning, WorldOptions::default())
                    .await
                    .expect("world");
                run_musbus(&s, &w, MusbusOptions::default())
                    .await
                    .expect("musbus")
            })
        })
    };
    let results = runner.run(vec![
        plan(Tuning::config_a(), "A"),
        plan(Tuning::config_d(), "D"),
    ]);
    let (new, old) = (results[0], results[1]);
    let ratio = old.mean_iteration.as_secs_f64() / new.mean_iteration.as_secs_f64();
    let mut t = Table::new(&["config", "mean script iteration", "bytes moved"]);
    t.row(vec![
        "A (clustered)".into(),
        format!("{}", new.mean_iteration),
        format!("{}", new.bytes_moved),
    ]);
    t.row(vec![
        "D (stock 4.1)".into(),
        format!("{}", old.mean_iteration),
        format!("{}", old.bytes_moved),
    ]);
    (t.render(), ratio)
}

// ---- ablations ----

/// World with a customized drive (for the driver-clustering and
/// track-buffer ablations).
async fn custom_disk_world(sim: &Sim, tuning: Tuning, disk_params: DiskParams) -> ufs::World {
    let mut params = ufs::UfsParams::with_tuning(tuning);
    params.maxbpg = None;
    ufs_build(sim, disk_params, params).await
}

async fn ufs_build(sim: &Sim, disk_params: DiskParams, params: ufs::UfsParams) -> ufs::World {
    ufs::build_world(
        sim,
        disk_params,
        PageCacheParams::sparcstation_8mb(),
        ufs::MkfsOptions::sun0424(),
        params,
    )
    .await
    .expect("world")
}

pub(crate) fn bench_opts(scale: RunScale) -> BenchOptions {
    BenchOptions {
        file_bytes: scale.file_bytes,
        io_bytes: 8192,
        random_ops: scale.random_ops,
        seed: 0x1991,
    }
}

/// One IObench workload on `path` at the run's scale, on either file
/// system.
pub(crate) async fn measure<F: FileSystem>(
    w: &World<F>,
    path: &str,
    kind: IoKind,
    scale: RunScale,
) -> Throughput {
    run_iobench(w, path, kind, bench_opts(scale))
        .await
        .expect("iobench")
}

/// The rejected "file system tuning" alternative (rotdelay 0, still
/// block-at-a-time) and the rejected "driver clustering" alternative, vs
/// the shipped configurations. Returns the rendered comparison.
pub fn rejected_alternatives_run(scale: RunScale, runner: &Runner) -> String {
    let plan = |tuning: Tuning, coalesce: Option<u32>, kind: IoKind, id: &str| {
        RunPlan::new(
            format!("alternatives/{id}/{}", kind.label()),
            move |sim: &Sim| {
                let s = sim.clone();
                sim.run_until(async move {
                    let dp = DiskParams {
                        coalesce_limit: coalesce,
                        ..DiskParams::sun0424()
                    };
                    let w = custom_disk_world(&s, tuning, dp).await;
                    measure(&w, "abl.dat", kind, scale).await.kb_per_sec()
                })
            },
        )
    };
    let rows = [
        ("B: stock + heuristics", "B", Tuning::config_b(), None),
        (
            "tuning only (rotdelay=0)",
            "tuning-only",
            Tuning::tuning_only(),
            None,
        ),
        (
            "driver clustering (rotdelay=0)",
            "driver-clustering",
            Tuning::tuning_only(),
            Some(112),
        ),
        ("A: fs clustering", "A", Tuning::config_a(), None),
    ];
    let mut plans = Vec::new();
    for (_, id, tuning, coalesce) in rows {
        plans.push(plan(tuning, coalesce, IoKind::SeqRead, id));
        plans.push(plan(tuning, coalesce, IoKind::SeqWrite, id));
    }
    let rates = runner.run(plans);
    let mut t = Table::new(&["alternative", "FSR", "FSW"]);
    for (i, (label, ..)) in rows.into_iter().enumerate() {
        t.row(vec![
            label.to_string(),
            kbs(rates[2 * i]),
            kbs(rates[2 * i + 1]),
        ]);
    }
    t.render()
}

/// Clustered UFS vs the extent-based file system at several user-chosen
/// extent sizes (the title claim). Returns the rendered comparison.
pub fn extentfs_comparison_run(scale: RunScale, runner: &Runner) -> String {
    let plan_extentfs = |extent_blocks: u32, kind: IoKind| {
        RunPlan::new(
            format!("extentfs/{extent_blocks}blk/{}", kind.label()),
            move |sim: &Sim| {
                let s = sim.clone();
                sim.run_until(async move {
                    let w = paper_ext_world(
                        &s,
                        Rc::new(Disk::new(&s, DiskParams::sun0424())),
                        256,
                        extentfs::ExtentFsParams::with_extent_blocks(extent_blocks),
                    );
                    measure(&w, "ext.dat", kind, scale).await.kb_per_sec()
                })
            },
        )
    };
    let plan_ufs = |tuning: Tuning, kind: IoKind| {
        RunPlan::new(
            format!("extentfs/ufs-A/{}", kind.label()),
            move |sim: &Sim| {
                let s = sim.clone();
                sim.run_until(async move {
                    let w = paper_world(&s, tuning, WorldOptions::default())
                        .await
                        .expect("world");
                    measure(&w, "abl.dat", kind, scale).await.kb_per_sec()
                })
            },
        )
    };
    let rows = [
        ("extentfs, 8KB extents (too small)", 1u32),
        ("extentfs, 56KB extents", 7),
        ("extentfs, 120KB extents", 15),
    ];
    let mut plans = Vec::new();
    for (_, blocks) in rows {
        plans.push(plan_extentfs(blocks, IoKind::SeqRead));
        plans.push(plan_extentfs(blocks, IoKind::SeqWrite));
    }
    plans.push(plan_ufs(Tuning::config_a(), IoKind::SeqRead));
    plans.push(plan_ufs(Tuning::config_a(), IoKind::SeqWrite));
    let rates = runner.run(plans);
    let mut t = Table::new(&["file system", "FSR", "FSW"]);
    for (i, (label, _)) in rows.into_iter().enumerate() {
        t.row(vec![
            label.to_string(),
            kbs(rates[2 * i]),
            kbs(rates[2 * i + 1]),
        ]);
    }
    t.row(vec![
        "clustered UFS (120KB clusters)".to_string(),
        kbs(rates[6]),
        kbs(rates[7]),
    ]);
    t.render()
}

/// Write-limit sweep: FRU throughput and writer-memory footprint with no
/// limit vs several limits (the fairness tradeoff). Returns the rendered
/// table.
pub fn write_limit_sweep_run(scale: RunScale, runner: &Runner) -> String {
    let plan = |limit: Option<u32>, id: &str| {
        RunPlan::new(format!("write-limit/{id}"), move |sim: &Sim| {
            let s = sim.clone();
            sim.run_until(async move {
                let tuning = Tuning {
                    write_limit: limit,
                    ..Tuning::config_a()
                };
                let w = paper_world(&s, tuning, WorldOptions::default())
                    .await
                    .expect("world");
                let rate = measure(&w, "abl.dat", IoKind::RandUpdate, scale)
                    .await
                    .kb_per_sec();
                let stalls = w.cache.stats().alloc_stalls;
                (rate, stalls)
            })
        })
    };
    let rows = [
        ("none (config D style)", "none", None),
        ("240KB (shipped)", "240KB", Some(240 * 1024)),
        ("24KB (too small)", "24KB", Some(24 * 1024)),
    ];
    let results = runner.run(rows.iter().map(|&(_, id, limit)| plan(limit, id)).collect());
    let mut t = Table::new(&["write limit", "FRU KB/s", "page alloc stalls"]);
    for ((label, ..), (rate, stalls)) in rows.into_iter().zip(results) {
        t.row(vec![label.to_string(), kbs(rate), format!("{stalls}")]);
    }
    t.render()
}

/// Free-behind cache-survival experiment: a large sequential read streams
/// through memory while another "user" keeps a working set warm; measures
/// how much of that working set survives and how hard the pageout daemon
/// had to work. Returns `(rendered, survivors_with, survivors_without)`.
pub fn free_behind_run(scale: RunScale, runner: &Runner) -> (String, usize, usize) {
    let plan = |free_behind: bool| -> RunPlan<(usize, u64, u64)> {
        let id = format!("free-behind/{}", if free_behind { "on" } else { "off" });
        RunPlan::new(id, move |sim: &Sim| {
            let s = sim.clone();
            sim.run_until(async move {
                let tuning = Tuning {
                    free_behind,
                    ..Tuning::config_a()
                };
                let w = paper_world(&s, tuning, WorldOptions::default())
                    .await
                    .expect("world");
                // Resident working set: a 2 MB file, fully read.
                let hot = w.fs.create("hot.dat").await.expect("create");
                let payload = vec![1u8; 8192];
                for i in 0..256u64 {
                    use vfs::Vnode as _;
                    hot.write(i * 8192, &payload, vfs::AccessMode::Copy)
                        .await
                        .expect("write");
                }
                {
                    use vfs::Vnode as _;
                    hot.fsync().await.expect("fsync");
                    hot.read(0, 2 << 20, vfs::AccessMode::Copy)
                        .await
                        .expect("read");
                }
                let hot_id = {
                    use vfs::Vnode as _;
                    hot.id()
                };
                let before = w.cache.resident_of(hot_id);
                assert!(before > 0);
                // The "other user": periodically touches the working set, as an
                // interactive process would. Touching refreshes reference bits;
                // the two-handed clock only evicts pages that stay untouched
                // for a whole handspread.
                let stop = std::rc::Rc::new(std::cell::Cell::new(false));
                {
                    let cache = w.cache.clone();
                    let stop = std::rc::Rc::clone(&stop);
                    let s2 = s.clone();
                    s.spawn(async move {
                        while !stop.get() {
                            for i in 0..256u64 {
                                if let Some(id) = cache.lookup(pagecache::PageKey {
                                    vnode: hot_id,
                                    offset: i * 8192,
                                }) {
                                    cache.set_referenced(id);
                                }
                            }
                            s2.sleep(simkit::SimDuration::from_millis(600)).await;
                        }
                    });
                }
                // The streaming read: bigger than memory.
                measure(&w, "stream.dat", IoKind::SeqRead, scale).await;
                stop.set(true);
                let survivors = w.cache.resident_of(hot_id);
                let scans = w.daemon.stats().scanned;
                let fb = w.fs.stats().free_behinds;
                (survivors, scans, fb)
            })
        })
    };
    let results = runner.run(vec![plan(true), plan(false)]);
    let (with_fb, scans_with, fb_count) = results[0];
    let (without_fb, scans_without, _) = results[1];
    let mut t = Table::new(&[
        "free behind",
        "hot pages surviving",
        "daemon pages scanned",
        "pages freed behind",
    ]);
    t.row(vec![
        "on".into(),
        format!("{with_fb}"),
        format!("{scans_with}"),
        format!("{fb_count}"),
    ]);
    t.row(vec![
        "off".into(),
        format!("{without_fb}"),
        format!("{scans_without}"),
        "0".into(),
    ]);
    (t.render(), with_fb, without_fb)
}

/// Multi-stream fairness: `streams` concurrent sequential streams —
/// alternating writers and readers — compete for one config-A mount. The
/// labelled `…{stream=N}` metrics attribute disk traffic, write-throttle
/// stalls, and achieved write-cluster sizes to each stream; the per-stream
/// disk columns (plus the untagged stream-0 remainder: metadata and
/// cleaner traffic) sum to the global `disk.sectors_*` counters. Returns
/// the rendered table.
pub fn streams_run(streams: u32, scale: RunScale, runner: &Runner) -> String {
    // One simulated run; the whole table (which reads per-stream metrics
    // off the sim's registry) is rendered inside the plan because the
    // `!Send` sim cannot leave its worker thread — only the finished
    // String crosses back.
    let plan = RunPlan::new(format!("streams/{streams}"), move |sim: &Sim| {
        let s = sim.clone();
        let per_stream_bytes = (scale.file_bytes / 4).max(512 * 1024);
        let runs = sim.run_until(async move {
            let w = paper_world(&s, Tuning::config_a(), WorldOptions::default())
                .await
                .expect("world");
            run_streams(
                &w,
                StreamsOptions {
                    streams,
                    file_bytes: per_stream_bytes,
                    io_bytes: 8192,
                },
            )
            .await
            .expect("streams")
        });
        let st = sim.stats();
        let per = |base: &str| -> std::collections::BTreeMap<u32, u64> {
            st.stream_counter_values(base).into_iter().collect()
        };
        let rd = per("disk.sectors_read");
        let wr = per("disk.sectors_written");
        let stalls = per("core.throttle_stalls");
        // 512-byte sectors → KB.
        let sector_kb = |m: &std::collections::BTreeMap<u32, u64>, stream: u32| {
            m.get(&stream).copied().unwrap_or(0) / 2
        };
        let mut t = Table::new(&[
            "stream",
            "file",
            "role",
            "KB/s",
            "disk rd KB",
            "disk wr KB",
            "stalls",
            "avg wr cluster",
        ]);
        for r in &runs {
            let avg = st
                .histogram_totals(&simkit::stats::StatsRegistry::stream_name(
                    "iopath.cluster_write_blocks",
                    r.stream,
                ))
                .filter(|&(n, _)| n > 0)
                .map(|(n, sum)| format!("{:.1}", sum as f64 / n as f64))
                .unwrap_or_else(|| "-".into());
            t.row(vec![
                format!("{}", r.stream),
                r.name.clone(),
                r.role.label().to_string(),
                kbs(r.kb_per_sec()),
                format!("{}", sector_kb(&rd, r.stream)),
                format!("{}", sector_kb(&wr, r.stream)),
                format!("{}", stalls.get(&r.stream).copied().unwrap_or(0)),
                avg,
            ]);
        }
        t.row(vec![
            "0".into(),
            "(untagged)".into(),
            "meta".into(),
            "-".into(),
            format!("{}", sector_kb(&rd, 0)),
            format!("{}", sector_kb(&wr, 0)),
            format!("{}", stalls.get(&0).copied().unwrap_or(0)),
            "-".into(),
        ]);
        t.render()
    });
    runner.run(vec![plan]).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_renders_four_rows() {
        let s = fig9_table();
        assert_eq!(s.lines().count(), 6);
        assert!(s.contains("120KB"));
        assert!(s.contains("SunOS 4.1.1"));
    }
}
