//! The Figure 12 CPU comparison: mmap-mode sequential read of a 16 MB file.
//!
//! "The benchmark is similar to IObench, in fact it shows identical I/O
//! rates, but uses the mmap interface to avoid the copying of data from the
//! kernel to the user ... The cpu times show the seconds used by the CPU to
//! read a 16MB file."

use simkit::{Sim, SimDuration};
use vfs::{AccessMode, FileSystem, FsResult, Vnode};

/// Result of one CPU-overhead run.
#[derive(Clone, Copy, Debug)]
pub struct CpuBenchResult {
    /// Virtual CPU seconds consumed by the measured read phase.
    pub cpu: SimDuration,
    /// Wall (virtual) time of the measured phase.
    pub elapsed: SimDuration,
    /// Bytes read.
    pub bytes: u64,
}

/// Reads `file_bytes` of `path` through the mapped (no-copy) access path
/// and reports the CPU time charged. Preparation (writing the file,
/// invalidating the cache) is excluded.
pub async fn mmap_read_cpu(
    sim: &Sim,
    world: &ufs::World,
    path: &str,
    file_bytes: u64,
) -> FsResult<CpuBenchResult> {
    let io = 8192usize;
    let n = (file_bytes / io as u64) as usize;
    let payload: Vec<u8> = (0..io).map(|i| (i % 253) as u8).collect();
    let f = world.fs.create(path).await?;
    for i in 0..n {
        f.write(i as u64 * io as u64, &payload, AccessMode::Copy)
            .await?;
    }
    f.fsync().await?;
    world.invalidate(&f);

    let cpu0 = world.cpu.busy();
    let t0 = sim.now();
    let mut bytes = 0u64;
    let mut buf = vec![0u8; io];
    for i in 0..n {
        let got = f
            .read_into(i as u64 * io as u64, &mut buf, AccessMode::Mapped)
            .await?;
        bytes += got as u64;
    }
    Ok(CpuBenchResult {
        cpu: world.cpu.busy() - cpu0,
        elapsed: sim.now().duration_since(t0),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{paper_world, Config, WorldOptions};

    #[test]
    fn new_path_uses_less_cpu_than_old() {
        let sim = Sim::new();
        let s = sim.clone();
        let (new, old) = sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: false,
                ..WorldOptions::default()
            };
            let wa = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            let new = mmap_read_cpu(&s, &wa, "m", 1 << 20).await.unwrap();
            let wd = paper_world(&s, Config::D.tuning(), opts).await.unwrap();
            let old = mmap_read_cpu(&s, &wd, "m", 1 << 20).await.unwrap();
            (new, old)
        });
        // With zero-cost test worlds both are zero; this test only checks
        // the harness runs and moves the right amount of data.
        assert_eq!(new.bytes, 1 << 20);
        assert_eq!(old.bytes, 1 << 20);
    }
}
