//! End-to-end file system benchmarks on the small test world: allocator
//! behavior, sequential and random data paths under both the old and new
//! code paths.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use clufs::Tuning;
use simkit::Sim;
use ufs::build_test_world;
use vfs::{AccessMode, FileSystem, Vnode};

fn seq_write_read(tuning: Tuning, bytes: usize) -> u64 {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = build_test_world(&s, tuning).await.unwrap();
        let f = w.fs.create("bench").await.unwrap();
        let payload = vec![0xCD; 8192];
        let mut off = 0u64;
        while (off as usize) < bytes {
            f.write(off, &payload, AccessMode::Copy).await.unwrap();
            off += 8192;
        }
        f.fsync().await.unwrap();
        w.invalidate(&f);
        let mut total = 0u64;
        let mut off = 0u64;
        while (off as usize) < bytes {
            total += f.read(off, 8192, AccessMode::Copy).await.unwrap().len() as u64;
            off += 8192;
        }
        total
    })
}

fn bench_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("ufs_data_path");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("clustered_1mb_roundtrip", |b| {
        b.iter(|| seq_write_read(Tuning::config_a(), 1 << 20))
    });
    g.bench_function("block_at_a_time_1mb_roundtrip", |b| {
        b.iter(|| seq_write_read(Tuning::config_d(), 1 << 20))
    });
    g.finish();
}

fn bench_namespace(c: &mut Criterion) {
    let mut g = c.benchmark_group("ufs_namespace");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("create_write_remove_50", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.run_until(async move {
                let w = build_test_world(&s, Tuning::config_a()).await.unwrap();
                for i in 0..50 {
                    let f = w.fs.create(&format!("f{i}")).await.unwrap();
                    f.write(0, &[1u8; 4000], AccessMode::Copy).await.unwrap();
                }
                for i in 0..50 {
                    w.fs.remove(&format!("f{i}")).await.unwrap();
                }
                w.fs.free_blocks()
            })
        })
    });
    g.finish();
}

fn bench_mkfs_fsck(c: &mut Criterion) {
    let mut g = c.benchmark_group("ufs_admin");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("mkfs_mount_fsck", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.run_until(async move {
                let w = build_test_world(&s, Tuning::config_a()).await.unwrap();
                let f = w.fs.create("x").await.unwrap();
                f.write(0, &[9u8; 100_000], AccessMode::Copy).await.unwrap();
                w.fs.clone().unmount().await.unwrap();
                let report = ufs::fsck(&*w.disk).await.unwrap();
                assert!(report.is_clean());
                report.used_blocks
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_paths, bench_namespace, bench_mkfs_fsck);
criterion_main!(benches);
