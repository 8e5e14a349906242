//! The Figure 9 run matrix and full-scale world construction.

use clufs::Tuning;
use diskmodel::{DiskParams, SharedDevice};
use extentfs::{ExtentFs, ExtentFsParams};
use pagecache::{PageCacheParams, PageoutParams};
use simkit::Sim;
use ufs::{build_world, MkfsOptions, UfsParams, World};
use vfs::FsResult;

/// One row of Figure 9.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// SunOS 4.1.1 with 120 KB clusters, no rotdelay, free-behind, limits.
    A,
    /// SunOS 4.1 code (block-at-a-time, 4 ms rotdelay) plus free-behind
    /// and write limits.
    B,
    /// As B without free-behind.
    C,
    /// Stock SunOS 4.1: no free-behind, no write limit.
    D,
}

impl Config {
    /// All four rows in paper order.
    pub fn all() -> [Config; 4] {
        [Config::A, Config::B, Config::C, Config::D]
    }

    /// The tuning for this row.
    pub fn tuning(self) -> Tuning {
        match self {
            Config::A => Tuning::config_a(),
            Config::B => Tuning::config_b(),
            Config::C => Tuning::config_c(),
            Config::D => Tuning::config_d(),
        }
    }

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Config::A => "A",
            Config::B => "B",
            Config::C => "C",
            Config::D => "D",
        }
    }

    /// The Figure 9 descriptive columns:
    /// (cluster size, rotdelay, UFS version, free behind, write limit).
    pub fn figure9_row(self) -> (String, u32, &'static str, bool, bool) {
        let t = self.tuning();
        (
            format!("{}KB", t.cluster_bytes() / 1024),
            t.rotdelay_ms,
            if t.clustering {
                "SunOS 4.1.1"
            } else {
                "SunOS 4.1"
            },
            t.free_behind,
            t.write_limit.is_some(),
        )
    }
}

/// Scaling knobs for experiment worlds.
#[derive(Clone, Copy, Debug)]
pub struct WorldOptions {
    /// Use the full 400 MB drive and 8 MB memory (the measurement machine);
    /// `false` builds the small test world.
    pub full_scale: bool,
    /// Enable the Further Work `B_ORDER` ordered-metadata mode.
    pub ordered_metadata: bool,
    /// Enable the Further Work bmap extent-tuple cache.
    pub bmap_cache: bool,
    /// Enable the Further Work request-size ("random clustering") hint.
    pub random_cluster_hint: bool,
    /// Enable the Further Work UFS_HOLE bmap-skip optimization.
    pub ufs_hole_opt: bool,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            full_scale: true,
            ordered_metadata: false,
            bmap_cache: false,
            random_cluster_hint: false,
            ufs_hole_opt: false,
        }
    }
}

/// Builds the paper's measurement machine with the given tuning: 20 MHz
/// SPARCstation CPU costs, 8 MB of memory, and the 400 MB SCSI drive with a
/// track buffer, pageout daemon and cleaner wired up.
pub async fn paper_world(sim: &Sim, tuning: Tuning, opts: WorldOptions) -> FsResult<World> {
    // Wall-clock phase (nested inside `run.drive` in the host profile):
    // world construction — mkfs, mount, cache build — is a real fraction
    // of short runs and should be visible separately from the drive loop.
    let _build = simkit::perfmon::phase("world.build");
    let mut tuning = tuning;
    tuning.bmap_cache = opts.bmap_cache;
    tuning.random_cluster_hint = opts.random_cluster_hint;
    tuning.ufs_hole_opt = opts.ufs_hole_opt;
    let mut params = if opts.full_scale {
        UfsParams::with_tuning(tuning)
    } else {
        UfsParams::test(tuning)
    };
    params.ordered_metadata = opts.ordered_metadata;
    if opts.full_scale {
        build_world(
            sim,
            DiskParams::sun0424(),
            PageCacheParams::sparcstation_8mb(),
            MkfsOptions::sun0424(),
            params,
        )
        .await
    } else {
        build_world(
            sim,
            DiskParams::small_test(),
            PageCacheParams::small_test(),
            MkfsOptions::small_test(),
            params,
        )
        .await
    }
}

/// The comparator on the same machine: extentfs with room for `ninodes`
/// files on `disk`, under the 8 MB of memory and the pageout daemon
/// [`paper_world`] gives UFS.
pub fn paper_ext_world(
    sim: &Sim,
    disk: SharedDevice,
    ninodes: u32,
    params: ExtentFsParams,
) -> vfs::World<ExtentFs> {
    extentfs::build_world_on(
        sim,
        disk,
        PageCacheParams::sparcstation_8mb(),
        PageoutParams::sparcstation(),
        ninodes,
        params,
    )
    .expect("format")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_rows_match_paper() {
        let rows: Vec<_> = Config::all().iter().map(|c| c.figure9_row()).collect();
        assert_eq!(rows[0], ("120KB".to_string(), 0, "SunOS 4.1.1", true, true));
        assert_eq!(rows[1], ("8KB".to_string(), 4, "SunOS 4.1", true, true));
        assert_eq!(rows[2], ("8KB".to_string(), 4, "SunOS 4.1", false, true));
        assert_eq!(rows[3], ("8KB".to_string(), 4, "SunOS 4.1", false, false));
    }

    #[test]
    fn full_scale_world_builds() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let w = paper_world(&s, Config::A.tuning(), WorldOptions::default())
                .await
                .unwrap();
            // ~400 MB drive formatted: tens of thousands of data blocks.
            assert!(w.fs.capacity_blocks() > 40_000);
            assert_eq!(w.cache.total_pages(), 768);
        });
    }
}
