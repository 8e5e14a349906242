//! Model-based property testing: drive the full UFS stack with random
//! operation sequences and check it against a trivial in-memory model
//! (name → bytes). After every sequence the on-disk image must also pass
//! fsck. This is the broadest correctness net in the repository: it
//! exercises allocation, holes, truncation, clustering, the page cache,
//! the pageout daemon and the cleaner all at once.

use std::collections::HashMap;

use clufs::Tuning;
use proptest::prelude::*;
use simkit::Sim;
use ufs::build_test_world;
use vfs::{AccessMode, FileSystem, FsError, Vnode};

/// One step of the workload.
#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    /// Write `len` bytes of `seed` at `off` into file `id`.
    Write {
        id: u8,
        off: u32,
        len: u16,
        seed: u8,
    },
    /// Read `len` bytes at `off` from file `id` and compare to the model.
    Read {
        id: u8,
        off: u32,
        len: u16,
    },
    Truncate {
        id: u8,
        size: u32,
    },
    Remove(u8),
    Fsync(u8),
    SyncAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Offsets up to ~400 KB and writes up to 32 KB keep the total inside
    // the small test disk while still crossing the indirect boundary
    // (96 KB) and the cache size (256 KB).
    prop_oneof![
        (0u8..4).prop_map(Op::Create),
        (0u8..4, 0u32..400_000, 1u16..32_768, any::<u8>())
            .prop_map(|(id, off, len, seed)| Op::Write { id, off, len, seed }),
        (0u8..4, 0u32..450_000, 1u16..32_768).prop_map(|(id, off, len)| Op::Read { id, off, len }),
        (0u8..4, 0u32..450_000).prop_map(|(id, size)| Op::Truncate { id, size }),
        (0u8..4).prop_map(Op::Remove),
        (0u8..4).prop_map(Op::Fsync),
        Just(Op::SyncAll),
    ]
}

fn fill(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn run_sequence(ops: Vec<Op>, tuning: Tuning) {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = build_test_world(&s, tuning).await.unwrap();
        // The reference model: file contents by name.
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Create(id) => {
                    let f = w.fs.create(&format!("f{id}")).await.unwrap();
                    assert_eq!(f.size(), 0, "create truncates");
                    model.insert(id, Vec::new());
                }
                Op::Write { id, off, len, seed } => {
                    let Some(content) = model.get_mut(&id) else {
                        continue;
                    };
                    let f = w.fs.open(&format!("f{id}")).await.unwrap();
                    let data = fill(len as usize, seed);
                    match f.write(off as u64, &data, AccessMode::Copy).await {
                        Ok(()) => {
                            let end = off as usize + len as usize;
                            if content.len() < end {
                                content.resize(end, 0);
                            }
                            content[off as usize..end].copy_from_slice(&data);
                        }
                        Err(FsError::NoSpace) => { /* Model unchanged. */ }
                        Err(e) => panic!("write failed: {e}"),
                    }
                }
                Op::Read { id, off, len } => {
                    let Some(content) = model.get(&id) else {
                        continue;
                    };
                    let f = w.fs.open(&format!("f{id}")).await.unwrap();
                    assert_eq!(f.size(), content.len() as u64, "size agrees");
                    let got = f
                        .read(off as u64, len as usize, AccessMode::Copy)
                        .await
                        .unwrap();
                    let expect: &[u8] = if (off as usize) < content.len() {
                        &content[off as usize..content.len().min(off as usize + len as usize)]
                    } else {
                        &[]
                    };
                    assert_eq!(got, expect, "read mismatch f{id} @{off}+{len}");
                }
                Op::Truncate { id, size } => {
                    let Some(content) = model.get_mut(&id) else {
                        continue;
                    };
                    let f = w.fs.open(&format!("f{id}")).await.unwrap();
                    f.truncate(size as u64).await.unwrap();
                    if (size as usize) < content.len() {
                        content.truncate(size as usize);
                    } else {
                        content.resize(size as usize, 0); // Hole extension.
                    }
                }
                Op::Remove(id) => {
                    if model.remove(&id).is_some() {
                        w.fs.remove(&format!("f{id}")).await.unwrap();
                        assert_eq!(
                            w.fs.open(&format!("f{id}")).await.err(),
                            Some(FsError::NotFound)
                        );
                    }
                }
                Op::Fsync(id) => {
                    if model.contains_key(&id) {
                        let f = w.fs.open(&format!("f{id}")).await.unwrap();
                        f.fsync().await.unwrap();
                    }
                }
                Op::SyncAll => {
                    w.fs.sync().await.unwrap();
                }
            }
        }
        // Final: full contents agree, then the image checks out on disk.
        for (id, content) in &model {
            let f = w.fs.open(&format!("f{id}")).await.unwrap();
            let got = f.read(0, content.len(), AccessMode::Copy).await.unwrap();
            assert_eq!(&got, content, "final content f{id}");
        }
        w.cache.assert_consistent();
        w.fs.clone().unmount().await.unwrap();
        let report = ufs::fsck(&*w.disk).await.unwrap();
        assert!(report.is_clean(), "fsck: {:?}", report.errors);
        assert_eq!(report.files as usize, model.len());
    });
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // Each case simulates a full world; keep CI time sane.
        .. ProptestConfig::default()
    })]

    /// The clustered file system agrees with the model under arbitrary
    /// operation sequences, and leaves a clean image.
    #[test]
    fn clustered_fs_matches_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_sequence(ops, Tuning::config_a());
    }

    /// So does the old block-at-a-time path (same on-disk format!).
    #[test]
    fn block_fs_matches_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_sequence(ops, Tuning::config_d());
    }
}

/// Cross-path check: an image written by the clustered code must read back
/// identically under the old code, and vice versa — the "no on-disk format
/// change" constraint, verified bidirectionally.
#[test]
fn images_are_interchangeable_between_code_paths() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let w = build_test_world(&s, Tuning::config_a()).await.unwrap();
        let data = fill(300_000, 42);
        let f = w.fs.create("cross").await.unwrap();
        f.write(0, &data, AccessMode::Copy).await.unwrap();
        w.fs.clone().unmount().await.unwrap();

        // Remount the same disk with the OLD code path. (Each fresh cache
        // needs a pageout daemon or large reads exhaust its 32 pages.)
        let cpu = simkit::Cpu::new(&s);
        let cache = pagecache::PageCache::new(&s, pagecache::PageCacheParams::small_test());
        let (_d1, _rx1) = pagecache::PageoutDaemon::spawn(
            &s,
            &cache,
            None,
            pagecache::PageoutParams::small_test(),
        );
        let mut params = ufs::UfsParams::test(Tuning::config_d());
        params.mount_id = 2;
        let old = ufs::Ufs::mount(&s, &cpu, &cache, &w.disk, params, None)
            .await
            .unwrap();
        let f2 = old.open("cross").await.unwrap();
        let back = f2.read(0, data.len(), AccessMode::Copy).await.unwrap();
        assert_eq!(back, data);
        // Append under the old path, remount under the new, verify.
        f2.write(data.len() as u64, &fill(50_000, 7), AccessMode::Copy)
            .await
            .unwrap();
        old.clone().unmount().await.unwrap();

        let cache2 = pagecache::PageCache::new(&s, pagecache::PageCacheParams::small_test());
        let (_d2, _rx2) = pagecache::PageoutDaemon::spawn(
            &s,
            &cache2,
            None,
            pagecache::PageoutParams::small_test(),
        );
        let mut params = ufs::UfsParams::test(Tuning::config_a());
        params.mount_id = 3;
        let newer = ufs::Ufs::mount(&s, &cpu, &cache2, &w.disk, params, None)
            .await
            .unwrap();
        let f3 = newer.open("cross").await.unwrap();
        assert_eq!(f3.size(), 350_000);
        let tail = f3
            .read(data.len() as u64, 50_000, AccessMode::Copy)
            .await
            .unwrap();
        assert_eq!(tail, fill(50_000, 7));
        let report = ufs::fsck(&*w.disk).await.unwrap();
        // Mounted (not cleanly unmounted) but structurally sound after the
        // old mount's unmount; the new mount dirtied only the clean flag.
        assert!(
            report.errors.is_empty(),
            "cross-path image errors: {:?}",
            report.errors
        );
    });
}
