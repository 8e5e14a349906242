//! File system tuning parameters and the paper's Figure 9 configurations.

use crate::prefetch::PrefetchPolicy;

/// Tunable parameters controlling placement and I/O policy.
///
/// These correspond to the knobs discussed throughout the paper:
/// `maxcontig`/`rotdelay` steer the (unchanged) FFS allocator's placement,
/// and the boolean switches select between the old (SunOS 4.1) and new
/// (SunOS 4.1.1) code paths — the paper's test kernel had exactly such
/// "variables that enable and disable the old and new code".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuning {
    /// Desired cluster size in file system blocks. "Previously, when
    /// rotdelay was zero, maxcontig had no meaning, but now it always
    /// indicates cluster size."
    pub maxcontig: u32,
    /// Placement gap between successive blocks, in milliseconds. The
    /// minimum non-zero value is one block time (4 ms for 8 KB blocks).
    pub rotdelay_ms: u32,
    /// `true` selects the clustered `getpage`/`putpage` implementation
    /// (SunOS 4.1.1); `false` the block-at-a-time code (SunOS 4.1).
    pub clustering: bool,
    /// MRU-style self-service page freeing for large sequential reads.
    pub free_behind: bool,
    /// Per-file limit (bytes) on dirty data in the disk queue; `None`
    /// reproduces the "one process locks down all of memory" behavior.
    pub write_limit: Option<u32>,
    /// Further Work: per-inode cache of `<lbn, pbn, len>` extent tuples.
    pub bmap_cache: bool,
    /// Further Work: use the request size passed down from `rdwr` as a
    /// hint to cluster apparently-random reads.
    pub random_cluster_hint: bool,
    /// Further Work: skip the `bmap` call on cache hits for files known to
    /// have no holes.
    pub ufs_hole_opt: bool,
    /// Which prefetch engine the read path runs. Both code paths have
    /// sequential read-ahead — `Fixed` is the paper's predictor — and
    /// `Off` is the ablation.
    pub prefetch: PrefetchPolicy,
}

/// File system block size used throughout the reproduction (8 KB).
pub const BLOCK_SIZE: u32 = 8192;

/// The paper's per-file write limit: "currently 240KB".
pub const WRITE_LIMIT_BYTES: u32 = 240 * 1024;

/// Device-error retries the I/O path attempts per transfer before
/// surfacing an I/O error (transient media errors clear under retry;
/// latent ones and dead devices do not).
pub const IO_RETRY_MAX: u32 = 4;

/// Base backoff between retries, milliseconds; doubles per attempt.
pub const IO_RETRY_BACKOFF_MS: u32 = 2;

/// Histogram buckets for cluster and extent lengths in blocks; maxcontig
/// presets are 1, 7 and 15 blocks, so power-of-two buckets up to 64 cover
/// them.
pub const LEN_EDGES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

impl Tuning {
    /// Figure 9 run "A": 120 KB clusters, no rotdelay, SunOS 4.1.1 code,
    /// free-behind and write limits on.
    pub fn config_a() -> Tuning {
        Tuning {
            maxcontig: 120 * 1024 / BLOCK_SIZE, // 15 blocks
            rotdelay_ms: 0,
            clustering: true,
            free_behind: true,
            write_limit: Some(WRITE_LIMIT_BYTES),
            bmap_cache: false,
            random_cluster_hint: false,
            ufs_hole_opt: false,
            prefetch: PrefetchPolicy::Fixed,
        }
    }

    /// Figure 9 run "B": 8 KB blocks, 4 ms rotdelay, SunOS 4.1 code, but
    /// with the new free-behind and write-limit heuristics.
    pub fn config_b() -> Tuning {
        Tuning {
            maxcontig: 1,
            rotdelay_ms: 4,
            clustering: false,
            free_behind: true,
            write_limit: Some(WRITE_LIMIT_BYTES),
            bmap_cache: false,
            random_cluster_hint: false,
            ufs_hole_opt: false,
            prefetch: PrefetchPolicy::Fixed,
        }
    }

    /// Figure 9 run "C": as "B" but without free-behind.
    pub fn config_c() -> Tuning {
        Tuning {
            free_behind: false,
            ..Self::config_b()
        }
    }

    /// Figure 9 run "D": a close approximation of stock SunOS 4.1 — no
    /// free-behind, no write limit, 1-block clusters, 4 ms rotdelay.
    pub fn config_d() -> Tuning {
        Tuning {
            free_behind: false,
            write_limit: None,
            ..Self::config_b()
        }
    }

    /// The shipped SunOS 4.1.1 default: as "A" but with 56 KB clusters
    /// ("56KB is used because there are still drivers out there with 16 bit
    /// limitations").
    pub fn sunos_411_default() -> Tuning {
        Tuning {
            maxcontig: 56 * 1024 / BLOCK_SIZE, // 7 blocks
            ..Self::config_a()
        }
    }

    /// The rejected "file system tuning" alternative: rotdelay 0 (to exploit
    /// track buffers) but still block-at-a-time I/O.
    pub fn tuning_only() -> Tuning {
        Tuning {
            rotdelay_ms: 0,
            ..Self::config_b()
        }
    }

    /// Desired cluster size in bytes.
    pub fn cluster_bytes(&self) -> u32 {
        self.maxcontig * BLOCK_SIZE
    }

    /// Effective cluster size in blocks for I/O planning: 1 when the old
    /// code path is selected.
    pub fn io_cluster_blocks(&self) -> u32 {
        if self.clustering {
            self.maxcontig.max(1)
        } else {
            1
        }
    }

    /// Placement gap in blocks for the allocator, given the block transfer
    /// time. A 4 ms rotdelay with 4 ms blocks means "skip one block slot".
    pub fn rotdelay_blocks(&self, block_time_ms: f64) -> u32 {
        if self.rotdelay_ms == 0 {
            0
        } else {
            (self.rotdelay_ms as f64 / block_time_ms).ceil() as u32
        }
    }
}

impl Default for Tuning {
    fn default() -> Self {
        Self::sunos_411_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_matrix() {
        // Reproduces Figure 9's columns exactly.
        let a = Tuning::config_a();
        assert_eq!(a.cluster_bytes(), 120 * 1024);
        assert_eq!(a.rotdelay_ms, 0);
        assert!(a.clustering && a.free_behind && a.write_limit.is_some());

        let b = Tuning::config_b();
        assert_eq!(b.cluster_bytes(), 8 * 1024);
        assert_eq!(b.rotdelay_ms, 4);
        assert!(!b.clustering && b.free_behind && b.write_limit.is_some());

        let c = Tuning::config_c();
        assert!(!c.free_behind && c.write_limit.is_some());

        let d = Tuning::config_d();
        assert!(!d.free_behind && d.write_limit.is_none());
    }

    #[test]
    fn shipped_default_is_56kb() {
        let t = Tuning::sunos_411_default();
        assert_eq!(t.cluster_bytes(), 56 * 1024);
        assert_eq!(t.maxcontig, 7);
    }

    #[test]
    fn io_cluster_collapses_without_clustering() {
        let mut t = Tuning::config_a();
        assert_eq!(t.io_cluster_blocks(), 15);
        t.clustering = false;
        assert_eq!(t.io_cluster_blocks(), 1);
    }

    #[test]
    fn rotdelay_blocks_rounds_up() {
        let b = Tuning::config_b();
        // 4 ms gap with ~4.2 ms blocks: one block slot.
        assert_eq!(b.rotdelay_blocks(4.17), 1);
        // 4 ms gap with 2 ms blocks: two block slots.
        assert_eq!(b.rotdelay_blocks(2.0), 2);
        // No rotdelay: contiguous.
        assert_eq!(Tuning::config_a().rotdelay_blocks(4.17), 0);
    }
}
