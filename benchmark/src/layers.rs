//! Host unit costs: what one call into one isolated layer costs this host,
//! in nanoseconds. Each figure is the median of [`BATCHES`] batches (after
//! one discarded warm-up batch); inputs and results pass through
//! `black_box`. Multiplied by the per-layer counts of a workload they give
//! that layer's estimated share of `host_cpu_s`.
//!
//! `vfs::iopath` has no figure of its own: `IoPath` / `IoIntent` are what
//! ROADMAP 3(a) reshapes, and a benchmark bound to them could not compare
//! before with after. Its cost is the `*.seq_*_block_ns` front-end figures
//! minus the device and cache unit costs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use clufs::{DelayedWrite, WriteThrottle};
use diskmodel::{BlockDeviceExt, Disk, DiskParams, SectorStore, SharedDevice};
use extentfs::alloc::BuddyAllocator;
use extentfs::tree::{ExtentRec, ExtentTree};
use extentfs::{ExtentFs, ExtentFsParams};
use pagecache::{PageCache, PageCacheParams, PageKey};
use simkit::{Cpu, Sim, SimDuration};
use ufs::{MkfsOptions, UfsParams};
use vfs::{AccessMode, FileSystem, Vnode};
use volmgr::{Volume, VolumeSpec};

use crate::gen::{fill_pattern, Rng, BLOCK};
use crate::stats::median;
use crate::world::{build_ext, build_ufs, Cell, Machine};

pub const BATCHES: usize = 31;

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as u64, black_box(out))
}

/// Median ns per unit over the batches; `batch` returns (ns, units) of its
/// timed section and may do untimed set-up around it.
fn per_unit(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, units) = batch();
            ns as f64 / units as f64
        })
        .collect();
    median(&samples)
}

fn pattern(len: usize, key: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_pattern(&mut v, key);
    v
}

pub fn unit_costs() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    simkit_costs(&mut out);
    clufs_costs(&mut out);
    extent_structures(&mut out);
    store_costs(&mut out);
    pagecache_costs(&mut out);
    disk_costs(&mut out);
    volume_costs(&mut out);
    front_end(
        &mut out,
        ["ufs.seq_read_block_ns", "ufs.seq_write_block_ns"],
        build_ufs(&Sim::new(), Cell::UfsA),
    );
    front_end(
        &mut out,
        ["extentfs.seq_read_block_ns", "extentfs.seq_write_block_ns"],
        build_ext(&Sim::new(), Cell::Ext, 64),
    );
    construction(&mut out);
    out
}

type Costs = BTreeMap<&'static str, f64>;

fn simkit_costs(out: &mut Costs) {
    const N: u64 = 2048;
    out.insert(
        "simkit.spawn_join_ns",
        per_unit(|| {
            let sim = Sim::new();
            let s = sim.clone();
            let (ns, _) = timed(|| {
                sim.run_until(async move {
                    let mut sum = 0;
                    for i in 0..N {
                        sum += s.spawn(async move { black_box(i) }).await;
                    }
                    sum
                })
            });
            (ns, N)
        }),
    );
    out.insert(
        "simkit.timer_ns",
        per_unit(|| {
            let sim = Sim::new();
            let s = sim.clone();
            let (ns, _) = timed(|| {
                sim.run_until(async move {
                    for _ in 0..N {
                        s.sleep(black_box(SimDuration::from_micros(1))).await;
                    }
                    s.now()
                })
            });
            (ns, N)
        }),
    );
    let sim = Sim::new();
    let counter = sim.stats().counter("bench.counter");
    out.insert(
        "simkit.counter_add_ns",
        per_unit(|| {
            let (ns, _) = timed(|| {
                for _ in 0..N * 32 {
                    counter.add(black_box(1));
                }
                counter.get()
            });
            (ns, N * 32)
        }),
    );
    let hist = sim
        .stats()
        .histogram("bench.hist", &[1, 2, 4, 8, 16, 32, 64, 128, 512, 2048]);
    out.insert(
        "simkit.histogram_observe_ns",
        per_unit(|| {
            let (ns, _) = timed(|| {
                for i in 0..N * 32 {
                    hist.observe(black_box(i & 1023));
                }
                hist.count()
            });
            (ns, N * 32)
        }),
    );
}

fn clufs_costs(out: &mut Costs) {
    const N: u64 = 15 * 1024;
    out.insert(
        "clufs.delayed_write_ns",
        per_unit(|| {
            let mut dw = DelayedWrite::new();
            let (ns, _) = timed(|| {
                let mut pushes = 0u64;
                for page in 0..N {
                    pushes +=
                        u64::from(dw.on_putpage(black_box(page), 15) != clufs::WriteAction::Delay);
                }
                pushes
            });
            (ns, N)
        }),
    );
    let sim = Sim::new();
    let throttle = WriteThrottle::new(&sim, Some(clufs::WRITE_LIMIT_BYTES));
    out.insert(
        "clufs.throttle_ns",
        per_unit(|| {
            let th = throttle.clone();
            let (ns, _) = timed(|| {
                sim.run_until(async move {
                    for _ in 0..4096 {
                        let token = th.begin_write(black_box(BLOCK as u64)).await;
                        th.complete(token);
                    }
                    th.in_flight()
                })
            });
            (ns, 4096)
        }),
    );
}

fn extent_structures(out: &mut Costs) {
    const N: u64 = 1024;
    // Records two blocks apart never coalesce, so every insert adds one.
    let rec = |i: u64| ExtentRec {
        logical: i * 32,
        pbn: (i * 64) as u32,
        len: 16,
    };
    out.insert(
        "extentfs.tree_insert_ns",
        per_unit(|| {
            let mut tree = ExtentTree::new();
            let (ns, _) = timed(|| {
                for i in 0..N {
                    tree.insert(black_box(rec(i)));
                }
                tree.nextents()
            });
            (ns, N)
        }),
    );
    let mut tree = ExtentTree::new();
    (0..N).for_each(|i| tree.insert(rec(i)));
    let mut rng = Rng::new(1);
    out.insert(
        "extentfs.tree_lookup_ns",
        per_unit(|| {
            let (ns, _) = timed(|| {
                let mut found = 0u64;
                for _ in 0..N * 8 {
                    found += u64::from(tree.lookup(black_box(rng.below(N * 32))).is_some());
                }
                found
            });
            (ns, N * 8)
        }),
    );
    // A 400 MB volume's worth of blocks; 120 KB requests as the mounts make.
    let mut buddy = BuddyAllocator::new(48 * 1024);
    out.insert(
        "extentfs.buddy_alloc_free_ns",
        per_unit(|| {
            let (ns, _) = timed(|| {
                let runs: Vec<_> = (0..512)
                    .map(|_| buddy.alloc(black_box(15), None).expect("space"))
                    .collect();
                for r in &runs {
                    buddy.free_run(r.start, r.len).expect("allocated above");
                }
                runs.len()
            });
            (ns, 512)
        }),
    );
}

/// 120 KB transfers, the cluster size, over a 16 MB resident region.
const XFER_SECTORS: u32 = 240;
const REGION_SECTORS: u64 = 32 * 1024;

fn store_costs(out: &mut Costs) {
    let mut store = SectorStore::new(512, 800_000);
    let data = pattern(XFER_SECTORS as usize * 512, 3);
    let kb = u64::from(XFER_SECTORS) / 2;
    let slots = REGION_SECTORS / u64::from(XFER_SECTORS);
    out.insert(
        "diskmodel.store_write_ns_per_kb",
        per_unit(|| {
            let (ns, _) = timed(|| {
                for i in 0..slots {
                    store.write(black_box(i * u64::from(XFER_SECTORS)), XFER_SECTORS, &data);
                }
                store.resident_chunks()
            });
            (ns, slots * kb)
        }),
    );
    out.insert(
        "diskmodel.store_read_ns_per_kb",
        per_unit(|| {
            let (ns, _) = timed(|| {
                let mut sum = 0usize;
                for i in 0..slots {
                    sum += store
                        .read(black_box(i * u64::from(XFER_SECTORS)), XFER_SECTORS)
                        .len();
                }
                sum
            });
            (ns, slots * kb)
        }),
    );
}

fn pagecache_costs(out: &mut Costs) {
    let params = PageCacheParams::sparcstation_8mb();
    let sim = Sim::new();
    out.insert(
        "pagecache.new_ns",
        per_unit(|| {
            let (ns, caches) = timed(|| [(); 4].map(|_| PageCache::new(&sim, params)));
            drop(caches);
            (ns, 4)
        }),
    );

    let cache = PageCache::new(&sim, params);
    let pages = params.total_pages as u64;
    let key = |vnode: u64, page: u64| PageKey {
        vnode,
        offset: page * BLOCK as u64,
    };
    // Every page gets an identity and goes back on the free list, so each
    // later create recycles the oldest one — the steady state of a scan.
    let fill = |vnode: u64, n: u64, free: bool| {
        let c = cache.clone();
        sim.run_until(async move {
            for p in 0..n {
                let id = c.create(key(vnode, p)).await;
                c.unbusy(id);
                if free {
                    c.free_page(id);
                }
            }
        })
    };
    fill(1, pages, true);
    let mut vnode = 1;
    out.insert(
        "pagecache.create_recycle_ns",
        per_unit(|| {
            vnode += 1;
            let (ns, _) = timed(|| fill(black_box(vnode), pages, true));
            (ns, pages)
        }),
    );
    out.insert(
        "pagecache.lookup_hit_ns",
        per_unit(|| {
            let (ns, _) = timed(|| {
                let mut hits = 0u64;
                for p in 0..pages * 4 {
                    hits += u64::from(cache.lookup(black_box(key(vnode, p % pages))).is_some());
                }
                hits
            });
            (ns, pages * 4)
        }),
    );
    let id = cache.lookup(key(vnode, 0)).expect("resident");
    let mut buf = vec![0u8; BLOCK];
    out.insert(
        "pagecache.copy_ns_per_kb",
        per_unit(|| {
            let (ns, _) = timed(|| {
                for _ in 0..1024 {
                    cache.read_at(black_box(id), 0, &mut buf);
                }
                buf[0]
            });
            (ns, 1024 * (BLOCK as u64 / 1024))
        }),
    );
    cache.invalidate_vnode(vnode, 0);
    out.insert(
        "pagecache.invalidate_ns_per_page",
        per_unit(|| {
            vnode += 1;
            fill(vnode, 512, false);
            let (ns, _) = timed(|| cache.invalidate_vnode(black_box(vnode), 0));
            (ns, 512)
        }),
    );
}

/// Fills the first [`REGION_SECTORS`] of `dev`, so reads copy real chunks.
fn prefill(sim: &Sim, dev: &SharedDevice) {
    let d = Rc::clone(dev);
    let data = pattern(XFER_SECTORS as usize * 512, 5);
    sim.run_until(async move {
        for lba in (0..REGION_SECTORS).step_by(XFER_SECTORS as usize) {
            d.write(lba, XFER_SECTORS, data.clone()).await;
        }
    });
}

/// `n` transfers of `nsect` sectors, one after the other, at `stride`.
fn sequential(
    sim: &Sim,
    dev: &SharedDevice,
    write: Option<&[u8]>,
    nsect: u32,
    stride: u64,
    n: u64,
) -> (u64, u64) {
    let d = Rc::clone(dev);
    let data = write.map(<[u8]>::to_vec);
    let (ns, _) = timed(|| {
        sim.run_until(async move {
            let mut bytes = 0;
            for i in 0..n {
                let lba = black_box(i * stride % REGION_SECTORS);
                match &data {
                    // The API takes the payload by value; the copy is part
                    // of what a write request costs its caller.
                    Some(data) => d.write(lba, nsect, data.clone()).await,
                    None => bytes += d.read(lba, nsect).await.len(),
                }
            }
            bytes
        })
    });
    (ns, n)
}

fn disk_costs(out: &mut Costs) {
    let sim = Sim::new();
    let disk: SharedDevice = Rc::new(Disk::new(&sim, DiskParams::sun0424()));
    prefill(&sim, &disk);
    let stride = u64::from(XFER_SECTORS);
    out.insert(
        "diskmodel.seq_read_req_ns",
        per_unit(|| sequential(&sim, &disk, None, XFER_SECTORS, stride, 64)),
    );
    let data = pattern(XFER_SECTORS as usize * 512, 7);
    out.insert(
        "diskmodel.write_req_ns",
        per_unit(|| sequential(&sim, &disk, Some(&data), XFER_SECTORS, stride, 64)),
    );
    // 8 KB reads at random blocks of the region, 32 outstanding: the queue
    // and its sort do work the sequential case never sees.
    let mut rng = Rng::new(2);
    out.insert(
        "diskmodel.rand_read_req_ns",
        per_unit(|| {
            let lbas: Vec<u64> = (0..128)
                .map(|_| rng.below(REGION_SECTORS / 16) * 16)
                .collect();
            let d = Rc::clone(&disk);
            let (ns, _) = timed(|| {
                sim.run_until(async move {
                    let mut bytes = 0;
                    for wave in lbas.chunks(32) {
                        let handles: Vec<_> = wave
                            .iter()
                            .map(|&lba| d.submit_read(black_box(lba), 16))
                            .collect();
                        for h in handles {
                            bytes += h.wait().await.data.map_or(0, |v| v.len());
                        }
                    }
                    bytes
                })
            });
            (ns, 128)
        }),
    );
}

fn volume_costs(out: &mut Costs) {
    let build = |spec: &str| {
        let sim = Sim::new();
        let spec = VolumeSpec::parse(spec).expect("built-in spec");
        let vol = Volume::new(&sim, &spec, DiskParams::sun0424());
        let dev: SharedDevice = Rc::new(vol.clone());
        prefill(&sim, &dev);
        (sim, vol, dev)
    };
    let stride = u64::from(XFER_SECTORS);
    let (sim, _, raid0) = build("raid0:4:64k");
    out.insert(
        "volmgr.raid0_read_req_ns",
        per_unit(|| sequential(&sim, &raid0, None, XFER_SECTORS, stride, 32)),
    );
    let (sim, vol, raid5) = build("raid5:4:32k");
    out.insert(
        "volmgr.raid5_read_req_ns",
        per_unit(|| sequential(&sim, &raid5, None, XFER_SECTORS, stride, 32)),
    );
    // A row is three 32 KB data stripes: 192 sectors.
    let row = pattern(192 * 512, 11);
    out.insert(
        "volmgr.raid5_full_row_write_req_ns",
        per_unit(|| sequential(&sim, &raid5, Some(&row), 192, 192, 32)),
    );
    let block = pattern(BLOCK, 13);
    out.insert(
        "volmgr.raid5_partial_write_req_ns",
        per_unit(|| sequential(&sim, &raid5, Some(&block), 16, 192, 32)),
    );
    vol.fail_spindle(1);
    out.insert(
        "volmgr.raid5_degraded_read_req_ns",
        per_unit(|| sequential(&sim, &raid5, None, XFER_SECTORS, stride, 32)),
    );
}

/// The vnode front end of one file system on the paper's single drive:
/// 8 KB sequential reads (cold) and writes (with their `fsync`) of a 4 MB
/// file, under the given `[read, write]` names. For UFS also create +
/// remove pairs and `fsck` of the result.
fn front_end<F>(out: &mut Costs, [read_name, write_name]: [&'static str; 2], m: Machine<F>)
where
    F: FileSystem + 'static,
    F::File: 'static,
{
    const BLOCKS: u64 = 512;
    let is_ufs = read_name.starts_with("ufs.");
    let sim = m.sim.clone();
    let m = Rc::new(m);
    let payload = Rc::new(pattern(BLOCK, 17));

    let mut generation = 0;
    out.insert(
        write_name,
        per_unit(|| {
            generation += 1;
            let (m2, path) = (Rc::clone(&m), format!("w{generation}"));
            let file =
                Rc::new(sim.run_until(async move { m2.fs.create(&path).await.expect("create") }));
            let (f, data) = (Rc::clone(&file), Rc::clone(&payload));
            let (ns, _) = timed(|| {
                sim.run_until(async move {
                    for b in 0..BLOCKS {
                        f.write(black_box(b * BLOCK as u64), &data, AccessMode::Copy)
                            .await
                            .expect("write");
                    }
                    f.fsync().await.expect("fsync");
                })
            });
            drop(file);
            let (m2, path) = (Rc::clone(&m), format!("w{generation}"));
            sim.run_until(async move { m2.fs.remove(&path).await.expect("remove") });
            (ns, BLOCKS)
        }),
    );

    let (m2, data) = (Rc::clone(&m), Rc::clone(&payload));
    let file = Rc::new(sim.run_until(async move {
        let f = m2.fs.create("r").await.expect("create");
        for b in 0..BLOCKS {
            f.write(b * BLOCK as u64, &data, AccessMode::Copy)
                .await
                .expect("write");
        }
        f.fsync().await.expect("fsync");
        f
    }));
    out.insert(
        read_name,
        per_unit(|| {
            let (s, f) = (sim.clone(), Rc::clone(&file));
            // Let read-ahead land, then start cold.
            sim.run_until(async move { s.sleep(SimDuration::from_secs(2)).await });
            m.invalidate(&f);
            let (ns, _) = timed(|| {
                sim.run_until(async move {
                    let mut buf = vec![0u8; BLOCK];
                    let mut bytes = 0;
                    for b in 0..BLOCKS {
                        bytes += f
                            .read_into(black_box(b * BLOCK as u64), &mut buf, AccessMode::Copy)
                            .await
                            .expect("read");
                    }
                    bytes
                })
            });
            (ns, BLOCKS)
        }),
    );

    if is_ufs {
        out.insert(
            "ufs.create_remove_ns",
            per_unit(|| {
                let m2 = Rc::clone(&m);
                let (ns, _) = timed(|| {
                    sim.run_until(async move {
                        for i in 0..64 {
                            let path = format!("c{i}");
                            drop(m2.fs.create(black_box(&path)).await.expect("create"));
                            m2.fs.remove(&path).await.expect("remove");
                        }
                    })
                });
                (ns, 64)
            }),
        );
        let m2 = Rc::clone(&m);
        sim.run_until(async move { m2.fs.sync().await.expect("sync") });
        out.insert(
            "ufs.fsck_ns",
            per_unit(|| {
                let disk = Rc::clone(&m.disk);
                let (ns, report) =
                    timed(|| sim.run_until(async move { ufs::fsck(&*disk).await.expect("fsck") }));
                assert!(report.is_clean(), "fsck: {:?}", report.errors);
                (ns, 1)
            }),
        );
    }
}

/// Formatting and mounting. `ufs.mount_ns` is what `build_world_on` costs
/// beyond the `mkfs` and the page cache it contains (mount is not called
/// on its own: its signature is not among the stable bindings).
fn construction(out: &mut Costs) {
    let drive = |sim: &Sim| -> SharedDevice { Rc::new(Disk::new(sim, DiskParams::sun0424())) };
    let mkfs = || {
        let sim = Sim::new();
        let (disk, s) = (drive(&sim), sim.clone());
        timed(|| {
            sim.run_until(async move {
                ufs::mkfs(&s, &*disk, MkfsOptions::sun0424())
                    .await
                    .expect("mkfs")
            })
        })
        .0
    };
    out.insert("ufs.mkfs_ns", per_unit(|| (mkfs(), 1)));
    out.insert(
        "ufs.mount_ns",
        per_unit(|| {
            let sim = Sim::new();
            let (disk, s) = (drive(&sim), sim.clone());
            let (world_ns, _) = timed(|| {
                sim.run_until(async move {
                    ufs::build_world_on(
                        &s,
                        disk,
                        PageCacheParams::sparcstation_8mb(),
                        MkfsOptions::sun0424(),
                        UfsParams::with_tuning(clufs::Tuning::config_a()),
                    )
                    .await
                    .expect("world")
                    .cache
                    .total_pages()
                })
            });
            let (cache_ns, _) = timed(|| PageCache::new(&sim, PageCacheParams::sparcstation_8mb()));
            (world_ns.saturating_sub(mkfs() + cache_ns), 1)
        }),
    );
    out.insert(
        "extentfs.format_ns",
        per_unit(|| {
            let sim = Sim::new();
            let (disk, cpu) = (drive(&sim), Cpu::new(&sim));
            let cache = PageCache::new(&sim, PageCacheParams::sparcstation_8mb());
            let params = ExtentFsParams::with_extent_blocks(15);
            let (ns, _) =
                timed(|| ExtentFs::format(&sim, &cpu, &cache, &disk, 256, params).expect("format"));
            (ns, 1)
        }),
    );
}
