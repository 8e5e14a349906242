//! The IObench transfer-rate workloads.
//!
//! "The columns are headed by a three letter name indicating the type of
//! I/O. The first letter means File system, the second letter indicates
//! Sequential or Random, and the third letter indicates Read, Write, or
//! Update. The difference between write and update is that in the update
//! case the file's blocks have already been allocated."

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simkit::{SimDuration, SimTime};
use vfs::{AccessMode, FileSystem, FsResult, Vnode, World};

/// The five workload types of Figures 10/11.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoKind {
    /// FSR: sequential read.
    SeqRead,
    /// FSU: sequential update (blocks already allocated).
    SeqUpdate,
    /// FSW: sequential write (fresh allocation).
    SeqWrite,
    /// FRR: random read.
    RandRead,
    /// FRU: random update.
    RandUpdate,
}

impl IoKind {
    /// All five, in the paper's column order.
    pub fn all() -> [IoKind; 5] {
        [
            IoKind::SeqRead,
            IoKind::SeqUpdate,
            IoKind::SeqWrite,
            IoKind::RandRead,
            IoKind::RandUpdate,
        ]
    }

    /// Paper column label.
    pub fn label(self) -> &'static str {
        match self {
            IoKind::SeqRead => "FSR",
            IoKind::SeqUpdate => "FSU",
            IoKind::SeqWrite => "FSW",
            IoKind::RandRead => "FRR",
            IoKind::RandUpdate => "FRU",
        }
    }
}

/// A measured transfer rate.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Bytes moved by the measured phase.
    pub bytes: u64,
    /// Virtual time the phase took.
    pub elapsed: SimDuration,
}

impl Throughput {
    /// KB/s (the unit of Figure 10).
    pub fn kb_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / 1024.0 / self.elapsed.as_secs_f64()
    }
}

/// Workload sizing.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// File size in bytes (must exceed memory for the read workloads to
    /// touch the disk; the measurement machine has 6 MB of page cache).
    pub file_bytes: u64,
    /// Per-call transfer size (IObench used ordinary read/write of block-
    /// sized requests).
    pub io_bytes: usize,
    /// Number of random operations for FRR/FRU.
    pub random_ops: usize,
    /// RNG seed for the random offsets.
    pub seed: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            file_bytes: 16 << 20,
            io_bytes: 8192,
            random_ops: 1024,
            seed: 0x1991,
        }
    }
}

/// Distinct random block indices: a seeded shuffle of the file's blocks,
/// truncated to `ops` (sampling without replacement, so the random
/// workloads never revisit an in-flight block).
fn random_blocks(nio: usize, ops: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks: Vec<u64> = (0..nio as u64).collect();
    blocks.shuffle(&mut rng);
    blocks.truncate(ops.min(nio));
    blocks
}

/// Runs one IObench workload against `path` on the machine `w` and
/// returns the measured rate. The file is created/prepared as the workload
/// requires; preparation is excluded from the measurement.
pub async fn run_iobench<F: FileSystem>(
    w: &World<F>,
    path: &str,
    kind: IoKind,
    opts: BenchOptions,
) -> FsResult<Throughput> {
    let (sim, fs) = (&w.sim, &w.fs);
    let payload: Vec<u8> = (0..opts.io_bytes).map(|i| (i % 251) as u8).collect();
    let nio = (opts.file_bytes / opts.io_bytes as u64) as usize;

    // ---- preparation (unmeasured) ----
    let file = match kind {
        IoKind::SeqWrite => fs.create(path).await?,
        _ => {
            // The file must exist with all blocks allocated.
            let f = fs.create(path).await?;
            for i in 0..nio {
                f.write(i as u64 * opts.io_bytes as u64, &payload, AccessMode::Copy)
                    .await?;
            }
            f.fsync().await?;
            f
        }
    };
    match kind {
        IoKind::SeqRead | IoKind::RandRead => w.invalidate(&file),
        _ => {}
    }

    // ---- measured phase ----
    // Read workloads reuse one buffer across every call (the point of the
    // `read_into` primitive): no per-request allocation in the hot loop.
    let mut buf = vec![0u8; opts.io_bytes];
    let t0 = sim.now();
    let bytes = match kind {
        IoKind::SeqRead => {
            let mut total = 0u64;
            for i in 0..nio {
                let got = file
                    .read_into(i as u64 * opts.io_bytes as u64, &mut buf, AccessMode::Copy)
                    .await?;
                total += got as u64;
            }
            total
        }
        IoKind::SeqUpdate | IoKind::SeqWrite => {
            for i in 0..nio {
                file.write(i as u64 * opts.io_bytes as u64, &payload, AccessMode::Copy)
                    .await?;
            }
            file.fsync().await?;
            opts.file_bytes
        }
        IoKind::RandRead => {
            let mut total = 0u64;
            for block in random_blocks(nio, opts.random_ops, opts.seed) {
                let got = file
                    .read_into(block * opts.io_bytes as u64, &mut buf, AccessMode::Copy)
                    .await?;
                total += got as u64;
            }
            total
        }
        IoKind::RandUpdate => {
            for block in random_blocks(nio, opts.random_ops, opts.seed) {
                file.write(block * opts.io_bytes as u64, &payload, AccessMode::Copy)
                    .await?;
            }
            file.fsync().await?;
            (opts.random_ops * opts.io_bytes) as u64
        }
    };
    let elapsed = sim.now().duration_since(t0);
    let _ = SimTime::ZERO;
    Ok(Throughput { bytes, elapsed })
}

/// Sizing for the strided-read workload (`iobench readahead`).
#[derive(Clone, Copy, Debug)]
pub struct StrideOptions {
    /// File size in bytes.
    pub file_bytes: u64,
    /// Bytes read at each record start.
    pub record_bytes: u64,
    /// Distance between successive record starts; `record_bytes` means a
    /// plain sequential scan.
    pub stride_bytes: u64,
    /// Per-call transfer size within a record.
    pub io_bytes: usize,
}

/// Runs a strided read against `path` on `w`: `record_bytes` are read at
/// every `stride_bytes` boundary (the fixed access pattern of scientific
/// codes and column scans that defeats a sequential-only predictor). The
/// file is written and evicted first; preparation is excluded from the
/// measurement. The cache is invalidated again after the measured phase so
/// speculative reads that never got used are charged to
/// `io.prefetch_wasted_bytes` before the run's registry is snapshotted.
pub async fn run_strided_read<F: FileSystem>(
    w: &World<F>,
    path: &str,
    opts: StrideOptions,
) -> FsResult<Throughput> {
    let (sim, fs) = (&w.sim, &w.fs);
    assert!(opts.record_bytes >= opts.io_bytes as u64);
    assert!(opts.stride_bytes >= opts.record_bytes);
    let payload: Vec<u8> = (0..opts.io_bytes).map(|i| (i % 251) as u8).collect();
    let nio = (opts.file_bytes / opts.io_bytes as u64) as usize;

    // ---- preparation (unmeasured) ----
    let file = fs.create(path).await?;
    for i in 0..nio {
        file.write(i as u64 * opts.io_bytes as u64, &payload, AccessMode::Copy)
            .await?;
    }
    file.fsync().await?;
    w.invalidate(&file);

    // ---- measured phase ----
    let mut buf = vec![0u8; opts.io_bytes];
    let t0 = sim.now();
    let mut total = 0u64;
    let mut start = 0u64;
    while start + opts.record_bytes <= opts.file_bytes {
        let mut off = start;
        while off < start + opts.record_bytes {
            let got = file.read_into(off, &mut buf, AccessMode::Copy).await?;
            total += got as u64;
            off += opts.io_bytes as u64;
        }
        start += opts.stride_bytes;
    }
    let elapsed = sim.now().duration_since(t0);
    // Let in-flight speculative fills complete (virtual time) so the final
    // invalidate never meets a busy page, then retire the stragglers.
    sim.sleep(SimDuration::from_secs(2)).await;
    w.invalidate(&file);
    Ok(Throughput {
        bytes: total,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{paper_world, Config, WorldOptions};
    use simkit::Sim;

    fn small_opts() -> BenchOptions {
        BenchOptions {
            file_bytes: 1 << 20, // 1 MB on the small test world.
            io_bytes: 8192,
            random_ops: 64,
            seed: 7,
        }
    }

    #[test]
    fn all_kinds_run_on_small_world() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: false,
                ..WorldOptions::default()
            };
            let w = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            for kind in IoKind::all() {
                let t = run_iobench(&w, &format!("bench-{}", kind.label()), kind, small_opts())
                    .await
                    .unwrap();
                assert!(t.kb_per_sec() > 0.0, "{}: zero throughput", kind.label());
                w.fs.remove(&format!("bench-{}", kind.label()))
                    .await
                    .unwrap();
            }
        });
    }

    #[test]
    fn sequential_read_faster_clustered_than_blocked() {
        let sim = Sim::new();
        let s = sim.clone();
        let (a, d) = sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: false,
                ..WorldOptions::default()
            };
            let wa = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            let a = run_iobench(&wa, "f", IoKind::SeqRead, small_opts())
                .await
                .unwrap();
            let wd = paper_world(&s, Config::D.tuning(), opts).await.unwrap();
            let d = run_iobench(&wd, "f", IoKind::SeqRead, small_opts())
                .await
                .unwrap();
            (a.kb_per_sec(), d.kb_per_sec())
        });
        assert!(
            a > d,
            "clustered sequential read ({a:.0} KB/s) should beat blocked ({d:.0} KB/s)"
        );
    }
}
