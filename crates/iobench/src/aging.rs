//! The allocator-contiguity study.
//!
//! "We tried several tests, ranging from filling up an entire partition
//! with one file to filling up the last 15% of a heavily fragmented /home
//! partition. In the best case, the average extent size was 1.5MB in a
//! 13MB file. In the worst case, the average extent size was 62KB in a
//! 16MB file."

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ufs::World;
use vfs::{AccessMode, FileSystem, FsError, FsResult, Vnode};

/// Mean extent statistics for one probe file.
#[derive(Clone, Copy, Debug)]
pub struct ExtentStats {
    /// File size in bytes.
    pub file_bytes: u64,
    /// Number of physically contiguous extents.
    pub extents: usize,
    /// Mean extent size in bytes.
    pub mean_extent_bytes: f64,
    /// Largest extent in bytes.
    pub max_extent_bytes: u64,
}

/// Writes a probe file of `bytes` and measures its physical contiguity.
pub async fn probe_extents(world: &World, path: &str, bytes: u64) -> FsResult<ExtentStats> {
    let (_, written, extents) = write_probe(&world.fs, path, bytes).await?;
    let total_blocks: u64 = extents.iter().map(|e| e.2 as u64).sum();
    let max = extents.iter().map(|e| e.2 as u64).max().unwrap_or(0);
    Ok(ExtentStats {
        file_bytes: written,
        extents: extents.len(),
        mean_extent_bytes: if extents.is_empty() {
            0.0
        } else {
            total_blocks as f64 * 8192.0 / extents.len() as f64
        },
        max_extent_bytes: max * 8192,
    })
}

/// Churn parameters for aging a file system.
#[derive(Clone, Copy, Debug)]
pub struct AgingOptions {
    /// Target fullness (fraction of data blocks) after churn.
    pub target_fill: f64,
    /// Number of create/remove churn rounds.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AgingOptions {
    fn default() -> Self {
        AgingOptions {
            target_fill: 0.80,
            rounds: 3,
            seed: 0xA6E,
        }
    }
}

/// Ages the file system like a `/home` partition: `opts.rounds` churn
/// rounds under `home/`, each filling toward the target and then deleting
/// a random subset, leaving scattered free space. Returns the number of
/// files left on disk.
pub async fn age_filesystem(world: &World, opts: AgingOptions) -> FsResult<usize> {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let (mut alive, mut counter) = (Vec::new(), 0);
    world.fs.mkdir("home").await?;
    for _ in 0..opts.rounds {
        churn_round(
            &world.fs,
            "home/",
            &mut rng,
            &mut alive,
            &mut counter,
            opts.target_fill,
            usize::MAX,
        )
        .await?;
    }
    Ok(alive.len())
}

/// What the clustering-decay study reads off a file system beyond
/// [`FileSystem`]: its space accounting and a file's physical layout.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait AgedFs: FileSystem {
    /// Total data blocks in the volume.
    fn capacity_blocks(&self) -> u64;

    /// Free data blocks.
    fn free_blocks(&self) -> u64;

    /// The file's physical extent map as `(logical, physical, blocks)`.
    async fn extent_map(f: &Self::File) -> FsResult<Vec<(u64, u64, u32)>>;
}

impl AgedFs for ufs::Ufs {
    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks()
    }

    fn free_blocks(&self) -> u64 {
        self.free_blocks()
    }

    async fn extent_map(f: &ufs::UfsFile) -> FsResult<Vec<(u64, u64, u32)>> {
        f.extents().await
    }
}

impl AgedFs for extentfs::ExtentFs {
    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks()
    }

    fn free_blocks(&self) -> u64 {
        self.free_blocks()
    }

    async fn extent_map(f: &extentfs::ExtFile) -> FsResult<Vec<(u64, u64, u32)>> {
        f.extents().await
    }
}

/// Sizing for the clustering-decay study.
#[derive(Clone, Copy, Debug)]
pub struct DecayOptions {
    /// Churn rounds; the study emits `rounds + 1` points (round 0 is the
    /// fresh file system).
    pub rounds: usize,
    /// Target fullness each fill phase churns toward.
    pub target_fill: f64,
    /// Cap on file creations per fill phase (the `--age-ops` budget).
    pub ops_per_round: usize,
    /// Probe file size.
    pub probe_bytes: u64,
    /// Churn RNG seed.
    pub seed: u64,
}

/// One measured point of clustering decay: how fragmented a probe file
/// written at this age comes out, and what that does to sequential reads.
#[derive(Clone, Copy, Debug)]
pub struct DecayPoint {
    /// Churn rounds completed before the probe (0 = fresh).
    pub round: usize,
    /// Mean extent length of the probe file, in KB.
    pub mean_extent_kb: f64,
    /// Fraction of logically adjacent block pairs that are physically
    /// adjacent (1.0 = one extent).
    pub contiguity_fraction: f64,
    /// Cold sequential re-read throughput of the probe, KB/s.
    pub seq_read_kb_s: f64,
}

/// Writes `bytes` to a new file at `path` (fewer if the disk fills),
/// fsyncs it, and returns it with the bytes written and its extent map.
async fn write_probe<F: AgedFs>(
    fs: &F,
    path: &str,
    bytes: u64,
) -> FsResult<(F::File, u64, Vec<(u64, u64, u32)>)> {
    // Zero payload: contents are never read back, and the sparse sector
    // store does not materialize zero chunks, so probe files cost no host
    // memory no matter how large the partition is.
    let payload = vec![0u8; 8192];
    let f = fs.create(path).await?;
    let mut written = 0u64;
    while written < bytes {
        match f.write(written, &payload, AccessMode::Copy).await {
            Ok(()) => written += payload.len() as u64,
            Err(FsError::NoSpace) => break,
            Err(e) => return Err(e),
        }
    }
    f.fsync().await?;
    let extents = F::extent_map(&f).await?;
    Ok((f, written, extents))
}

/// Writes a probe file under `dir`, measures its extent map and cold
/// sequential-read throughput, then removes it.
async fn decay_probe<F: AgedFs>(
    w: &vfs::World<F>,
    dir: &str,
    round: usize,
    probe_bytes: u64,
) -> FsResult<DecayPoint> {
    let (sim, fs) = (&w.sim, &w.fs);
    let path = format!("{dir}probe.dat");
    let (f, written, extents) = write_probe(fs, &path, probe_bytes).await?;
    let blocks: u64 = extents.iter().map(|e| e.2 as u64).sum();
    let adjacent: u64 = extents.iter().map(|e| e.2 as u64 - 1).sum();
    let contiguity = if blocks > 1 {
        adjacent as f64 / (blocks - 1) as f64
    } else {
        1.0
    };
    let mean_extent_kb = if extents.is_empty() {
        0.0
    } else {
        blocks as f64 * 8.0 / extents.len() as f64
    };
    w.invalidate(&f);
    let t0 = sim.now();
    let mut buf = vec![0u8; 8192];
    let mut off = 0u64;
    while off < written {
        let n = f.read_into(off, &mut buf, AccessMode::Copy).await?;
        if n == 0 {
            break;
        }
        off += n as u64;
    }
    let elapsed = sim.now().duration_since(t0);
    let seq_read_kb_s = if elapsed.is_zero() {
        0.0
    } else {
        off as f64 / 1024.0 / elapsed.as_secs_f64()
    };
    fs.remove(&path).await?;
    Ok(DecayPoint {
        round,
        mean_extent_kb,
        contiguity_fraction: contiguity,
        seq_read_kb_s,
    })
}

/// One churn round: fill toward `target_fill` with at most `max_files`
/// mixed-size files, then delete a random 40%.
async fn churn_round<F: AgedFs>(
    fs: &F,
    dir: &str,
    rng: &mut SmallRng,
    alive: &mut Vec<String>,
    counter: &mut usize,
    target_fill: f64,
    max_files: usize,
) -> FsResult<()> {
    let capacity = fs.capacity_blocks();
    // Zeros: never read for content, never materialized by the store.
    let payload = vec![0u8; 8192];
    for _ in 0..max_files {
        let used = capacity - fs.free_blocks();
        if used as f64 / capacity as f64 >= target_fill {
            break;
        }
        let name = format!("{dir}f{counter}");
        *counter += 1;
        // Mixed sizes: mostly small, some large (log-ish distribution).
        let kb = match rng.gen_range(0..10) {
            0..=5 => rng.gen_range(1..16),   // small
            6..=8 => rng.gen_range(16..256), // medium
            _ => rng.gen_range(256..2048),   // large
        };
        let f = match fs.create(&name).await {
            Ok(f) => f,
            // A full inode table ends the fill phase like a full disk.
            Err(FsError::NoInodes) => break,
            Err(e) => return Err(e),
        };
        let mut off = 0u64;
        let mut full = false;
        while off < kb as u64 * 1024 {
            match f.write(off, &payload, AccessMode::Copy).await {
                Ok(()) => off += 8192,
                Err(FsError::NoSpace) => {
                    full = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        f.fsync().await?;
        alive.push(name);
        if full {
            break;
        }
    }
    let mut survivors = Vec::new();
    for name in alive.drain(..) {
        if rng.gen_bool(0.4) {
            fs.remove(&name).await?;
        } else {
            survivors.push(name);
        }
    }
    *alive = survivors;
    Ok(())
}

/// The clustering-decay study: probes a fresh file system, then
/// alternates churn rounds with probes, tracking how allocator
/// contiguity (and with it sequential-read throughput) decays with age.
/// Every file lives under `dir` (`""`, or an existing directory with its
/// trailing slash).
pub async fn clustering_decay<F: AgedFs>(
    w: &vfs::World<F>,
    dir: &str,
    opts: &DecayOptions,
) -> FsResult<Vec<DecayPoint>> {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut alive = Vec::new();
    let mut counter = 0usize;
    let mut points = vec![decay_probe(w, dir, 0, opts.probe_bytes).await?];
    for round in 1..=opts.rounds {
        churn_round(
            &w.fs,
            dir,
            &mut rng,
            &mut alive,
            &mut counter,
            opts.target_fill,
            opts.ops_per_round,
        )
        .await?;
        points.push(decay_probe(w, dir, round, opts.probe_bytes).await?);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{paper_world, Config, WorldOptions};
    use simkit::Sim;

    #[test]
    fn fresh_fs_probe_is_highly_contiguous() {
        let sim = Sim::new();
        let s = sim.clone();
        let stats = sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: false,
                ..WorldOptions::default()
            };
            let w = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            probe_extents(&w, "probe", 2 << 20).await.unwrap()
        });
        assert_eq!(stats.file_bytes, 2 << 20);
        // A fresh fs should produce a handful of long extents (indirect
        // blocks interrupt the run), not block-sized fragments.
        assert!(
            stats.mean_extent_bytes > 256.0 * 1024.0,
            "mean extent {} too small",
            stats.mean_extent_bytes
        );
    }

    #[test]
    fn aged_fs_probe_is_more_fragmented() {
        let sim = Sim::new();
        let s = sim.clone();
        let (fresh, aged) = sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: false,
                ..WorldOptions::default()
            };
            let w1 = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            let fresh = probe_extents(&w1, "probe", 1 << 20).await.unwrap();
            let w2 = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            age_filesystem(
                &w2,
                AgingOptions {
                    target_fill: 0.6,
                    rounds: 2,
                    seed: 3,
                },
            )
            .await
            .unwrap();
            let aged = probe_extents(&w2, "probe", 1 << 20).await.unwrap();
            (fresh, aged)
        });
        assert!(
            aged.mean_extent_bytes < fresh.mean_extent_bytes,
            "aging should fragment: fresh {} vs aged {}",
            fresh.mean_extent_bytes,
            aged.mean_extent_bytes
        );
        assert!(aged.file_bytes > 0);
    }
}
