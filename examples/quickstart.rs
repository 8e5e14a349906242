//! Quickstart: build a simulated SPARCstation-with-SCSI-disk world, mount
//! the clustered UFS, and watch cluster I/O happen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use clufs::Tuning;
use iobench::{paper_world, WorldOptions};
use simkit::Sim;
use vfs::{AccessMode, FileSystem, Vnode};

fn main() {
    // Everything runs inside a deterministic simulation with a virtual
    // clock; `run_until` drives the world until the async block finishes.
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        // The paper's measurement machine: 20 MHz SPARCstation 1, 8 MB of
        // memory, 400 MB SCSI disk with a track buffer — freshly formatted
        // and mounted with SunOS 4.1.1 tuning (120 KB clusters).
        let world = paper_world(&s, Tuning::config_a(), WorldOptions::default())
            .await
            .expect("build world");
        println!(
            "mounted: {} data blocks ({} MB), {} pages of memory",
            world.fs.capacity_blocks(),
            world.fs.capacity_blocks() * 8192 / (1 << 20),
            world.cache.total_pages()
        );

        // Write a 1 MB file through the ordinary write(2) path.
        let file = world.fs.create("demo/data.bin").await;
        // Oops: parent directory doesn't exist yet.
        assert!(file.is_err());
        world.fs.mkdir("demo").await.expect("mkdir");
        let file = world.fs.create("demo/data.bin").await.expect("create");
        let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        file.write(0, &payload, AccessMode::Copy)
            .await
            .expect("write");
        file.fsync().await.expect("fsync");
        println!("wrote {} bytes at virtual time {}", payload.len(), s.now());

        // Where did the allocator put it? (Contiguously, modulo the
        // indirect block — this is what makes clustering possible.)
        println!("physical layout (lbn, pbn, blocks):");
        for ext in file.extents().await.expect("extents") {
            println!("  lbn {:4} -> pbn {:6}  x{}", ext.0, ext.1, ext.2);
        }

        // Drop the cache and read it back sequentially: watch the cluster
        // machinery move 15 blocks per disk I/O.
        world.invalidate(&file);
        world.fs.reset_stats();
        world.disk.reset_stats();
        let t0 = s.now();
        let back = file
            .read(0, payload.len(), AccessMode::Copy)
            .await
            .expect("read");
        assert_eq!(back, payload, "data round-trips");
        let elapsed = s.now().duration_since(t0);
        let fs_stats = world.fs.stats();
        let disk = world.disk.stats();
        println!(
            "\nsequential re-read: {} KB in {} = {:.0} KB/s",
            payload.len() / 1024,
            elapsed,
            payload.len() as f64 / 1024.0 / elapsed.as_secs_f64()
        );
        println!(
            "  {} blocks moved in {} disk reads ({} sync + {} read-ahead clusters)",
            fs_stats.blocks_read, disk.reads, fs_stats.sync_reads, fs_stats.readaheads
        );
        println!(
            "  getpage calls: {} ({} served from cache)",
            fs_stats.getpage_calls, fs_stats.getpage_hits
        );
        println!("  CPU charged: {}", world.cpu.busy());

        // Clean unmount leaves a consistent image.
        world.fs.clone().unmount().await.expect("unmount");
        let report = ufs::fsck(&*world.disk).await.expect("fsck");
        println!(
            "\nfsck: {} files, {} dirs, {} blocks in use, clean = {}",
            report.files,
            report.dirs,
            report.used_blocks,
            report.is_clean()
        );
        assert!(report.is_clean());
    });
}
