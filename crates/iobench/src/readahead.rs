//! The `readahead` experiment: strided reads vs prefetch policy.
//!
//! The paper's predictor speculates exactly one cluster ahead of a
//! sequential stream; a strided scan (fixed records separated by fixed
//! gaps — scientific codes, column scans) defeats it on every record
//! boundary. This experiment sweeps stride × record size × policy
//! (`off`, the paper's `fixed`-one-cluster, and the `adaptive`
//! distance-ramping stride detector) over clustered UFS and extentfs on a
//! striped array, and reports throughput, prefetch accuracy, and the
//! wasted-read fraction per cell.

use clufs::{PrefetchPolicy, Tuning};
use diskmodel::DiskParams;
use simkit::Sim;
use vfs::{FileSystem, World};
use volmgr::VolumeSpec;

use crate::configs::{paper_ext_world, paper_world, WorldOptions};
use crate::experiments::RunScale;
use crate::iobench::{run_strided_read, StrideOptions};
use crate::report::{kbs, ratio, Table};
use crate::runner::{RunPlan, Runner};

/// The stride × record cells, in KB. The first row is a plain sequential
/// scan (stride == record) — the sanity cell where `adaptive` must match
/// `fixed`.
pub const CELLS: [(u64, u64); 5] = [(8, 8), (64, 8), (256, 8), (64, 32), (256, 32)];

/// The policy columns, in table order.
pub const POLICIES: [PrefetchPolicy; 3] = [
    PrefetchPolicy::Off,
    PrefetchPolicy::Fixed,
    PrefetchPolicy::Adaptive,
];

/// One measured cell: throughput plus the run's prefetch counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RaCell {
    /// Measured strided-read rate, KB/s.
    pub kbs: f64,
    /// `io.prefetch_issued` — speculative blocks sent to the device.
    pub issued: u64,
    /// `io.prefetch_hits` — prefetched pages later claimed by a demand
    /// access (pages are blocks, so this shares units with `issued`).
    pub hits: u64,
    /// `io.prefetch_wasted_bytes` — prefetched bytes recycled or
    /// invalidated without ever being claimed.
    pub wasted: u64,
}

impl RaCell {
    /// Fraction of speculative blocks that a demand access later claimed.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.hits as f64 / self.issued as f64
    }

    /// Fraction of speculative bytes read for nothing.
    pub fn wasted_fraction(&self) -> f64 {
        let issued_bytes = self.issued * 8192;
        if issued_bytes == 0 {
            return 0.0;
        }
        self.wasted as f64 / issued_bytes as f64
    }
}

fn pct(f: f64) -> String {
    format!("{:.0}%", f * 100.0)
}

/// `-` for cells where no prefetch can be issued (`off`).
fn pct_or_dash(cell: &RaCell) -> String {
    if cell.issued == 0 {
        "-".to_string()
    } else {
        pct(cell.accuracy())
    }
}

fn stride_opts(scale: RunScale, stride_kb: u64, record_kb: u64) -> StrideOptions {
    StrideOptions {
        file_bytes: scale.file_bytes,
        record_bytes: record_kb * 1024,
        stride_bytes: stride_kb * 1024,
        io_bytes: 8192,
    }
}

/// Reads the run's prefetch counters off its (fresh, per-run) registry,
/// and records the measured throughput there so the stats JSON carries it
/// (the CI smoke job compares policies straight off the document).
fn counters(sim: &Sim, kbs: f64) -> RaCell {
    let stats = sim.stats();
    stats.counter("bench.kb_per_s").add(kbs as u64);
    RaCell {
        kbs,
        issued: stats.counter("io.prefetch_issued").get(),
        hits: stats.counter("io.prefetch_hits").get(),
        wasted: stats.counter("io.prefetch_wasted_bytes").get(),
    }
}

/// The file systems compared, in table order: clustered UFS (config A
/// placement) on one drive, extentfs (120 KB extents) on a two-way stripe.
const FS_LABELS: [(&str, &str); 2] = [("ufs-A", "clustered UFS"), ("ext-raid0", "extentfs raid0")];

async fn strided<F: FileSystem>(w: &World<F>, opts: StrideOptions) -> f64 {
    run_strided_read(w, "stride.dat", opts)
        .await
        .expect("strided read")
        .kb_per_sec()
}

/// One cell: file system `fs` (an index into [`FS_LABELS`]) under the
/// selected policy.
fn cell(
    sim: &Sim,
    fs: usize,
    policy: PrefetchPolicy,
    stride_kb: u64,
    record_kb: u64,
    scale: RunScale,
) -> RaCell {
    let s = sim.clone();
    let opts = stride_opts(scale, stride_kb, record_kb);
    let kbs = sim.run_until(async move {
        if fs == 0 {
            let tuning = Tuning {
                prefetch: policy,
                ..Tuning::config_a()
            };
            let w = paper_world(&s, tuning, WorldOptions::default())
                .await
                .expect("world");
            strided(&w, opts).await
        } else {
            let spec = VolumeSpec::parse("raid0:2:64k").expect("built-in spec");
            let mut params = extentfs::ExtentFsParams::with_extent_blocks(15);
            params.prefetch = policy;
            let disk = volmgr::build(&s, &spec, DiskParams::sun0424());
            strided(&paper_ext_world(&s, disk, 256, params), opts).await
        }
    });
    counters(sim, kbs)
}

/// The run plan for one cell, `readahead/<fs>/<policy>/s<KB>/r<KB>`.
fn plan(
    fs: usize,
    policy: PrefetchPolicy,
    stride_kb: u64,
    record_kb: u64,
    scale: RunScale,
) -> RunPlan<RaCell> {
    RunPlan::new(
        format!(
            "readahead/{}/{}/s{stride_kb}/r{record_kb}",
            FS_LABELS[fs].0,
            policy.label()
        ),
        move |sim: &Sim| cell(sim, fs, policy, stride_kb, record_kb, scale),
    )
}

/// Raw sweep results: `cells[fs][cell][policy]`, fs 0 = UFS, 1 = extentfs.
pub type RaData = Vec<Vec<Vec<RaCell>>>;

/// Runs the full sweep (2 file systems × 5 cells × 3 policies = 30
/// independent runs) across the runner's workers.
pub fn readahead_data(scale: RunScale, runner: &Runner) -> RaData {
    let mut plans = Vec::new();
    for fs in 0..FS_LABELS.len() {
        for (stride_kb, record_kb) in CELLS {
            for policy in POLICIES {
                plans.push(plan(fs, policy, stride_kb, record_kb, scale));
            }
        }
    }
    let flat = runner.run(plans);
    flat.chunks(POLICIES.len())
        .collect::<Vec<_>>()
        .chunks(CELLS.len())
        .map(|fs| fs.iter().map(|c| c.to_vec()).collect())
        .collect()
}

/// Renders the three tables: throughput vs stride, prefetch accuracy, and
/// wasted-read fraction.
pub fn readahead_tables(data: &RaData) -> String {
    let mut thr = Table::new(&[
        "file system / pattern",
        "off",
        "fixed-1",
        "adaptive",
        "adaptive/fixed",
    ]);
    let mut acc = Table::new(&["file system / pattern", "fixed-1", "adaptive"]);
    let mut waste = Table::new(&["file system / pattern", "fixed-1", "adaptive"]);
    for (fs, (_, fs_label)) in FS_LABELS.iter().enumerate() {
        for (ci, (stride_kb, record_kb)) in CELLS.into_iter().enumerate() {
            let label = if stride_kb == record_kb {
                format!("{fs_label}, sequential")
            } else {
                format!("{fs_label}, {record_kb}KB every {stride_kb}KB")
            };
            let row = &data[fs][ci];
            thr.row(vec![
                label.clone(),
                kbs(row[0].kbs),
                kbs(row[1].kbs),
                kbs(row[2].kbs),
                ratio(row[2].kbs, row[1].kbs),
            ]);
            acc.row(vec![
                label.clone(),
                pct_or_dash(&row[1]),
                pct_or_dash(&row[2]),
            ]);
            waste.row(vec![
                label,
                pct(row[1].wasted_fraction()),
                pct(row[2].wasted_fraction()),
            ]);
        }
    }
    format!(
        "Strided read throughput (KB/s):\n{}\nPrefetch accuracy (claimed/issued blocks):\n{}\nWasted-read fraction (unclaimed/issued bytes):\n{}",
        thr.render(),
        acc.render(),
        waste.render()
    )
}

/// The `iobench readahead` experiment: runs the sweep and renders it.
pub fn readahead_run(scale: RunScale, runner: &Runner) -> String {
    readahead_tables(&readahead_data(scale, runner))
}

/// One user-selected cell (`--readahead`/`--stride`/`--record-size`):
/// both file systems at one pattern under one policy.
pub fn readahead_cell_run(
    policy: PrefetchPolicy,
    stride_kb: u64,
    record_kb: u64,
    scale: RunScale,
    runner: &Runner,
) -> String {
    let plans = (0..FS_LABELS.len())
        .map(|fs| plan(fs, policy, stride_kb, record_kb, scale))
        .collect();
    let cells = runner.run(plans);
    let mut t = Table::new(&[
        "file system",
        "KB/s",
        "issued blks",
        "hit blks",
        "accuracy",
        "wasted",
    ]);
    for ((_, fs), cell) in FS_LABELS.iter().zip(&cells) {
        t.row(vec![
            fs.to_string(),
            kbs(cell.kbs),
            cell.issued.to_string(),
            cell.hits.to_string(),
            pct_or_dash(cell),
            pct(cell.wasted_fraction()),
        ]);
    }
    format!(
        "{record_kb}KB records every {stride_kb}KB, policy {}:\n{}",
        policy.label(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_fixed_on_strided_ufs() {
        // 8 KB records every 256 KB: the stride outruns even a 120 KB
        // cluster, so the paper's predictor never hits and the stride
        // detector's record prefetch is pure profit.
        let scale = RunScale::quick();
        let fixed = cell(&Sim::new(), 0, PrefetchPolicy::Fixed, 256, 8, scale);
        let adaptive = cell(&Sim::new(), 0, PrefetchPolicy::Adaptive, 256, 8, scale);
        assert!(
            adaptive.kbs >= 1.2 * fixed.kbs,
            "adaptive {:.0} KB/s should beat fixed {:.0} KB/s by 1.2x",
            adaptive.kbs,
            fixed.kbs
        );
        assert!(
            adaptive.accuracy() > 0.3,
            "stride detector should land a useful share of its guesses: {:?}",
            adaptive
        );
    }

    #[test]
    fn sequential_cell_matches_fixed_predictor() {
        // On a pure sequential scan the adaptive engine must not lose to
        // the paper's predictor.
        let scale = RunScale::quick();
        let fixed = cell(&Sim::new(), 0, PrefetchPolicy::Fixed, 8, 8, scale);
        let adaptive = cell(&Sim::new(), 0, PrefetchPolicy::Adaptive, 8, 8, scale);
        assert!(
            adaptive.kbs >= 0.95 * fixed.kbs,
            "adaptive {:.0} KB/s regressed sequential vs fixed {:.0} KB/s",
            adaptive.kbs,
            fixed.kbs
        );
    }

    #[test]
    fn extentfs_strided_cell_improves_and_counts() {
        let scale = RunScale::quick();
        let fixed = cell(&Sim::new(), 1, PrefetchPolicy::Fixed, 256, 32, scale);
        let adaptive = cell(&Sim::new(), 1, PrefetchPolicy::Adaptive, 256, 32, scale);
        assert!(adaptive.issued > 0, "adaptive issued no prefetch");
        assert!(
            adaptive.kbs >= fixed.kbs,
            "adaptive {:.0} KB/s lost to fixed {:.0} KB/s",
            adaptive.kbs,
            fixed.kbs
        );
    }

    #[test]
    fn off_policy_issues_nothing() {
        let cell = cell(
            &Sim::new(),
            0,
            PrefetchPolicy::Off,
            64,
            8,
            RunScale::quick(),
        );
        assert_eq!(cell.issued, 0);
        assert_eq!(cell.hits, 0);
    }
}
