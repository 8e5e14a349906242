//! The `iobench volume` experiment: cluster size × stripe width × spindle
//! count on `volmgr` RAID arrays.
//!
//! The paper tunes clustering against one spindle; an array changes the
//! geometry underneath the cluster executor. A cluster that is a whole
//! number of stripe rows keeps every spindle streaming, one that straddles
//! a chunk boundary splits into scatter/gather child transfers, and on
//! RAID-5 a cluster smaller than a full row pays the read-modify-write
//! small-write penalty. The sweep measures all three effects, plus the
//! UFS-vs-extentfs ratio on an array (does extent-like allocation still
//! matter when the device itself stripes?).

use clufs::{Tuning, BLOCK_SIZE};
use diskmodel::DiskParams;
use pagecache::PageCacheParams;
use simkit::Sim;
use ufs::{build_world_on, MkfsOptions, UfsParams, World};
use volmgr::VolumeSpec;

use crate::configs::paper_ext_world;
use crate::experiments::{measure, RunScale};
use crate::iobench::IoKind;
use crate::report::{kbs, ratio, Table};
use crate::runner::{RunPlan, Runner};

/// What the sweep covers. [`VolumeSweep::paper`] is the full matrix the
/// CLI runs; tests and `--volume <spec>` restrict it.
#[derive(Clone, Debug)]
pub struct VolumeSweep {
    /// Arrays for the stripe-alignment table (every spec × every cluster).
    pub specs: Vec<VolumeSpec>,
    /// UFS cluster sizes in KB (`maxcontig` = KB·1024 / block size).
    pub clusters_kb: Vec<u32>,
    /// Arrays that additionally get the UFS-vs-extentfs comparison.
    pub ext_specs: Vec<VolumeSpec>,
}

fn spec(s: &str) -> VolumeSpec {
    VolumeSpec::parse(s).expect("built-in spec")
}

impl VolumeSweep {
    /// The full sweep: stripe width × spindle count across all three RAID
    /// levels, three cluster sizes, and one extentfs comparison per level.
    pub fn paper() -> VolumeSweep {
        VolumeSweep {
            specs: vec![
                spec("raid0:2:64k"),
                spec("raid0:4:16k"),
                spec("raid0:4:64k"),
                spec("raid0:4:128k"),
                spec("raid0:8:64k"),
                spec("raid1:2"),
                spec("raid5:5:16k"),
                spec("raid5:5:64k"),
                spec("raid5:5:128k"),
            ],
            clusters_kb: vec![16, 56, 120],
            ext_specs: vec![spec("raid0:4:64k"), spec("raid1:2"), spec("raid5:5:64k")],
        }
    }

    /// Restricts the sweep to one array (the `--volume <spec>` flag): all
    /// cluster sizes, plus that array's extentfs comparison.
    pub fn only(spec: VolumeSpec) -> VolumeSweep {
        VolumeSweep {
            specs: vec![spec],
            clusters_kb: vec![16, 56, 120],
            ext_specs: vec![spec],
        }
    }
}

/// Builds a full-scale world mounted on the array `spec` describes (one
/// `sun0424` drive per spindle) with the given cluster size.
async fn volume_world(sim: &Sim, spec: &VolumeSpec, cluster_kb: u32) -> World {
    let tuning = Tuning {
        maxcontig: cluster_kb * 1024 / BLOCK_SIZE,
        ..Tuning::config_a()
    };
    let disk = volmgr::build(sim, spec, DiskParams::sun0424());
    build_world_on(
        sim,
        disk,
        PageCacheParams::sparcstation_8mb(),
        MkfsOptions::sun0424(),
        UfsParams::with_tuning(tuning),
    )
    .await
    .expect("volume world")
}

/// One array cell, in KB/s: UFS at `cluster_kb`, or with `None` extentfs
/// at 120 KB extents (the paper's best).
fn cell(
    sim: &Sim,
    spec: VolumeSpec,
    cluster_kb: Option<u32>,
    kind: IoKind,
    scale: RunScale,
) -> f64 {
    let s = sim.clone();
    let rate = sim.run_until(async move {
        match cluster_kb {
            Some(kb) => {
                let w = volume_world(&s, &spec, kb).await;
                measure(&w, "vol.dat", kind, scale).await
            }
            None => {
                let w = paper_ext_world(
                    &s,
                    volmgr::build(&s, &spec, DiskParams::sun0424()),
                    256,
                    extentfs::ExtentFsParams::with_extent_blocks(15),
                );
                measure(&w, "vol.dat", kind, scale).await
            }
        }
    });
    rate.kb_per_sec()
}

/// Raw sweep results, for tests and EXPERIMENTS.md.
pub struct VolumeData {
    /// `ufs[spec][cluster][0]` = FSR, `[1]` = FSW, in KB/s.
    pub ufs: Vec<Vec<[f64; 2]>>,
    /// `ext[i]` = (FSR, FSW) for `sweep.ext_specs[i]`.
    pub ext: Vec<[f64; 2]>,
}

/// Runs the sweep on the runner's workers and returns raw rates. Run ids
/// are `volume/<spec>/c<KB>k/<kind>` and `volume/<spec>/ext/<kind>`.
pub fn volume_data(sweep: &VolumeSweep, scale: RunScale, runner: &Runner) -> VolumeData {
    let mut plans = Vec::new();
    for sp in &sweep.specs {
        for &kb in &sweep.clusters_kb {
            for kind in [IoKind::SeqRead, IoKind::SeqWrite] {
                let sp = *sp;
                plans.push(RunPlan::new(
                    format!("volume/{sp}/c{kb}k/{}", kind.label()),
                    move |sim: &Sim| cell(sim, sp, Some(kb), kind, scale),
                ));
            }
        }
    }
    for sp in &sweep.ext_specs {
        for kind in [IoKind::SeqRead, IoKind::SeqWrite] {
            let sp = *sp;
            plans.push(RunPlan::new(
                format!("volume/{sp}/ext/{}", kind.label()),
                move |sim: &Sim| cell(sim, sp, None, kind, scale),
            ));
        }
    }
    let rates = runner.run(plans);
    let ncl = sweep.clusters_kb.len();
    let ufs_total = sweep.specs.len() * ncl * 2;
    let ufs = rates[..ufs_total]
        .chunks(ncl * 2)
        .map(|per_spec| per_spec.chunks(2).map(|c| [c[0], c[1]]).collect())
        .collect();
    let ext = rates[ufs_total..].chunks(2).map(|c| [c[0], c[1]]).collect();
    VolumeData { ufs, ext }
}

/// Renders the stripe-alignment table: FSR/FSW per array per cluster size.
pub fn volume_table(sweep: &VolumeSweep, data: &VolumeData) -> String {
    let mut header = vec!["volume".to_string()];
    for &kb in &sweep.clusters_kb {
        header.push(format!("FSR {kb}K"));
        header.push(format!("FSW {kb}K"));
    }
    let cols: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&cols);
    for (i, sp) in sweep.specs.iter().enumerate() {
        let mut row = vec![sp.to_string()];
        for c in 0..sweep.clusters_kb.len() {
            row.push(kbs(data.ufs[i][c][0]));
            row.push(kbs(data.ufs[i][c][1]));
        }
        t.row(row);
    }
    t.render()
}

/// Renders the UFS-vs-extentfs-on-an-array table. UFS numbers come from
/// the sweep's largest cluster size.
pub fn volume_ext_table(sweep: &VolumeSweep, data: &VolumeData) -> String {
    let last = sweep.clusters_kb.len() - 1;
    let mut t = Table::new(&[
        "volume", "UFS FSR", "ext FSR", "ext/UFS", "UFS FSW", "ext FSW", "ext/UFS",
    ]);
    for (i, sp) in sweep.ext_specs.iter().enumerate() {
        let u = sweep
            .specs
            .iter()
            .position(|s| s == sp)
            .map(|j| data.ufs[j][last])
            .unwrap_or([0.0, 0.0]);
        t.row(vec![
            sp.to_string(),
            kbs(u[0]),
            kbs(data.ext[i][0]),
            ratio(data.ext[i][0], u[0]),
            kbs(u[1]),
            kbs(data.ext[i][1]),
            ratio(data.ext[i][1], u[1]),
        ]);
    }
    t.render()
}

/// Drives the whole experiment and renders both tables (the CLI entry
/// point). `only` restricts the sweep to one array (`--volume <spec>`).
pub fn volume_run(only: Option<&VolumeSpec>, scale: RunScale, runner: &Runner) -> String {
    let sweep = match only {
        Some(sp) => VolumeSweep::only(*sp),
        None => VolumeSweep::paper(),
    };
    let data = volume_data(&sweep, scale, runner);
    let mut out = String::new();
    out.push_str("Stripe alignment: UFS transfer rates (KB/s) by cluster size\n\n");
    out.push_str(&volume_table(&sweep, &data));
    out.push_str("\nUFS (largest cluster) vs extentfs (120KB extents) on an array\n\n");
    out.push_str(&volume_ext_table(&sweep, &data));
    out
}
