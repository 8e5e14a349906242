//! `fsck` and `fsck_repair` on deliberately damaged images.
//!
//! Each case builds a small populated image, unmounts it and damages it
//! through the raw disk. `fsck` must name the damage, `fsck_repair` must
//! fix exactly what `fsck` reported, a second `fsck` must be clean, and
//! the repaired image must mount and take new files.
//!
//! An image of the paper's drive pins the walk's report and the device
//! requests it costs, and a fault under an inode table pins its error.

use std::rc::Rc;

use clufs::Tuning;
use diskmodel::{BlockDeviceExt, DiskParams, FaultDevice, FaultPlan, SharedDevice};
use pagecache::{PageCache, PageCacheParams};
use simkit::{Cpu, Sim};
use ufs::layout::{CgHeader, DINODE_SIZE, ROOT_INO, SB_BLOCK, SECTORS_PER_BLOCK};
use ufs::{
    build_test_world, build_world, fsck, fsck_repair, Dinode, FsckReport, MkfsOptions, Superblock,
    Ufs, UfsParams,
};
use vfs::{AccessMode, FileSystem, FsError, Vnode};

async fn read_block(disk: &SharedDevice, pbn: u64) -> Vec<u8> {
    disk.read(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK)
        .await
}

async fn write_block(disk: &SharedDevice, pbn: u64, data: Vec<u8>) {
    disk.write(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK, data)
        .await;
}

/// Formats a test disk, creates `dirs` and then `files` (path, blocks of
/// data), and unmounts.
async fn image(s: &Sim, dirs: &[&str], files: &[(&str, usize)]) -> SharedDevice {
    let w = build_test_world(s, Tuning::config_a()).await.unwrap();
    for d in dirs {
        w.fs.mkdir(d).await.unwrap();
    }
    for &(path, blocks) in files {
        let f = w.fs.create(path).await.unwrap();
        f.write(0, &vec![7u8; blocks * 8192], AccessMode::Copy)
            .await
            .unwrap();
    }
    w.fs.clone().unmount().await.unwrap();
    w.disk
}

/// The raw-disk view of an unmounted image.
struct Raw {
    disk: SharedDevice,
    sb: Superblock,
}

impl Raw {
    async fn new(disk: SharedDevice) -> Raw {
        let sb = Superblock::decode(&read_block(&disk, SB_BLOCK).await).unwrap();
        Raw { disk, sb }
    }

    async fn edit_block(&self, pbn: u64, f: impl FnOnce(&mut [u8])) {
        let mut data = read_block(&self.disk, pbn).await;
        f(&mut data);
        write_block(&self.disk, pbn, data).await;
    }

    async fn edit_sb(&self, f: impl FnOnce(&mut Superblock)) {
        let mut sb = self.sb.clone();
        f(&mut sb);
        write_block(&self.disk, SB_BLOCK, sb.encode()).await;
    }

    async fn cg(&self, cgx: u32) -> CgHeader {
        CgHeader::decode(&read_block(&self.disk, self.sb.cg_start(cgx)).await).unwrap()
    }

    async fn edit_cg(&self, cgx: u32, f: impl FnOnce(&mut CgHeader)) {
        let mut cg = self.cg(cgx).await;
        f(&mut cg);
        write_block(&self.disk, self.sb.cg_start(cgx), cg.encode()).await;
    }

    /// Edits the raw bytes of dinode `ino`.
    async fn edit_dinode_bytes(&self, ino: u32, f: impl FnOnce(&mut [u8])) {
        let (pbn, idx) = self.sb.inode_location(ino);
        self.edit_block(pbn, |b| {
            f(&mut b[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE])
        })
        .await;
    }

    async fn dinode(&self, ino: u32) -> Dinode {
        let (pbn, idx) = self.sb.inode_location(ino);
        let b = read_block(&self.disk, pbn).await;
        Dinode::decode(&b[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE]).unwrap()
    }

    async fn edit_dinode(&self, ino: u32, f: impl FnOnce(&mut Dinode)) {
        let mut din = self.dinode(ino).await;
        f(&mut din);
        self.edit_dinode_bytes(ino, |b| b.copy_from_slice(&din.encode()))
            .await;
    }

    /// The directory block and byte offset of `name`'s entry in directory
    /// `dir`, and the inode it names.
    async fn entry(&self, dir: u32, name: &str) -> (u64, usize, u32) {
        for &pbn in self.dinode(dir).await.direct.iter().filter(|&&p| p != 0) {
            let data = read_block(&self.disk, pbn as u64).await;
            let mut pos = 0;
            while pos + 5 <= data.len() {
                let ino = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
                let len = data[pos + 4] as usize;
                if ino == 0 && len == 0 {
                    break;
                }
                if ino != 0 && &data[pos + 5..pos + 5 + len] == name.as_bytes() {
                    return (pbn as u64, pos, ino);
                }
                pos += 5 + len;
            }
        }
        panic!("no entry {name} in dir {dir}");
    }

    async fn ino(&self, name: &str) -> u32 {
        self.entry(ROOT_INO, name).await.2
    }

    /// Points `name`'s root-directory entry at `ino`.
    async fn set_entry(&self, name: &str, ino: u32) {
        let (pbn, pos, _) = self.entry(ROOT_INO, name).await;
        self.edit_block(pbn, |b| b[pos..pos + 4].copy_from_slice(&ino.to_le_bytes()))
            .await;
    }

    /// `pbn`'s cylinder group and its index within the group's data.
    fn data_slot(&self, pbn: u64) -> (u32, u32) {
        let cgx = self.sb.cg_of_block(pbn).unwrap();
        (cgx, (pbn - self.sb.cg_data_start(cgx)) as u32)
    }
}

/// One kind of damage, applied to the [`fixture`] image.
#[derive(Clone, Copy, Debug)]
enum Damage {
    CgIndex,
    CgMagic,
    CgBitmapSize,
    UndecodableDinode,
    /// The last slot of the first inode-table block.
    UndecodableSlot63,
    /// The first slot of the second block.
    UndecodableSlot64,
    /// The last inode of the last group: the end of the last table.
    UndecodableLastInode,
    InodeBitCleared,
    InodeBitSet,
    PointerToMetadata,
    DoubleClaim,
    BlockCount,
    EntryToFreeInode,
    Orphan,
    Nlink,
    BlockBitCleared,
    BlockBitSet,
    CgFreeBlocks,
    SuperblockCounts,
    NoGroups,
    GroupTooSmall,
    NoDataBlocks,
    NoRootInode,
    GroupsPastEnd,
    PastDevice,
}

/// Files `x` and `y` (two blocks each), `big` (20 blocks, through its
/// indirect block), and `d/a` (three blocks).
async fn fixture(s: &Sim) -> SharedDevice {
    image(s, &["d"], &[("x", 2), ("y", 2), ("big", 20), ("d/a", 3)]).await
}

async fn damage(raw: &Raw, what: Damage) {
    let (x, y) = (raw.ino("x").await, raw.ino("y").await);
    let x_block = raw.dinode(x).await.direct[0];
    let ipc = raw.sb.inodes_per_cg;
    let free_ino = raw.cg(0).await.first_free_inode(ipc).unwrap();
    match what {
        Damage::CgIndex => raw.edit_cg(0, |cg| cg.cgx = 9).await,
        Damage::CgMagic => raw.edit_block(raw.sb.cg_start(0), |b| b[..4].fill(0)).await,
        Damage::CgBitmapSize => raw.edit_cg(0, |cg| _ = cg.block_bitmap.pop()).await,
        // Kind 0xffff is no file kind.
        Damage::UndecodableDinode => raw.edit_dinode_bytes(x, |b| b[..2].fill(0xff)).await,
        Damage::UndecodableSlot63 => raw.edit_dinode_bytes(63, |b| b[..2].fill(0xff)).await,
        Damage::UndecodableSlot64 => raw.edit_dinode_bytes(64, |b| b[..2].fill(0xff)).await,
        Damage::UndecodableLastInode => {
            let last = raw.sb.total_inodes() - 1;
            raw.edit_dinode_bytes(last, |b| b[..2].fill(0xff)).await
        }
        Damage::InodeBitCleared => raw.edit_cg(y / ipc, |cg| _ = cg.clear_inode(y % ipc)).await,
        Damage::InodeBitSet => raw.edit_cg(0, |cg| _ = cg.set_inode(free_ino)).await,
        Damage::PointerToMetadata => {
            let cg_block = raw.sb.cg_start(0) as u32;
            raw.edit_dinode(x, |d| d.direct[0] = cg_block).await
        }
        Damage::DoubleClaim => raw.edit_dinode(y, |d| d.direct[0] = x_block).await,
        Damage::BlockCount => raw.edit_dinode(x, |d| d.blocks += 3).await,
        Damage::EntryToFreeInode => raw.set_entry("x", free_ino).await,
        Damage::Orphan => raw.set_entry("y", 0).await,
        Damage::Nlink => raw.edit_dinode(x, |d| d.nlink = 5).await,
        Damage::BlockBitCleared => {
            let (cgx, i) = raw.data_slot(x_block as u64);
            raw.edit_cg(cgx, |cg| _ = cg.clear_block(i)).await
        }
        Damage::BlockBitSet => {
            let n = raw.sb.data_blocks_per_cg();
            raw.edit_cg(0, |cg| _ = cg.set_block(cg.first_free_block(0, n).unwrap()))
                .await
        }
        Damage::CgFreeBlocks => raw.edit_cg(0, |cg| cg.free_blocks -= 2).await,
        Damage::SuperblockCounts => {
            raw.edit_sb(|sb| {
                sb.free_blocks += 1;
                sb.free_inodes -= 1;
            })
            .await
        }
        Damage::NoGroups => raw.edit_sb(|sb| sb.ncg = 0).await,
        Damage::GroupTooSmall => raw.edit_sb(|sb| sb.blocks_per_cg = 1).await,
        Damage::NoDataBlocks => {
            raw.edit_sb(|sb| sb.blocks_per_cg = sb.cg_meta_blocks())
                .await
        }
        Damage::NoRootInode => raw.edit_sb(|sb| sb.inodes_per_cg = 0).await,
        Damage::GroupsPastEnd => raw.edit_sb(|sb| sb.ncg += 1000).await,
        Damage::PastDevice => raw.edit_sb(|sb| sb.total_blocks *= 2).await,
    }
}

/// What one damaged image went through: the check, the repair, the check
/// after it, and a check after a mount that wrote a new file.
struct Outcome {
    check: FsckReport,
    repair: FsckReport,
    recheck: FsckReport,
    after_use: FsckReport,
}

/// Checks, repairs and rechecks `disk`, then mounts it, writes a file and
/// checks once more.
async fn check_repair_mount(s: &Sim, disk: SharedDevice) -> Outcome {
    let check = fsck(&*disk).await.unwrap();
    let repair = fsck_repair(&*disk).await.unwrap();
    let recheck = fsck(&*disk).await.unwrap();
    let cpu = Cpu::new(s);
    let cache = PageCache::new(s, PageCacheParams::small_test());
    let mut params = UfsParams::test(Tuning::config_a());
    params.mount_id = 2;
    let fs = Ufs::mount(s, &cpu, &cache, &disk, params, None)
        .await
        .expect("repaired image mounts");
    let f = fs.create("after").await.unwrap();
    f.write(0, &[1u8; 3 * 8192], AccessMode::Copy)
        .await
        .unwrap();
    drop(f);
    fs.unmount().await.unwrap();
    let after_use = fsck(&*disk).await.unwrap();
    Outcome {
        check,
        repair,
        recheck,
        after_use,
    }
}

#[test]
fn every_corruption_is_found_then_repaired() {
    let cases: [(Damage, &[&str]); 19] = [
        (Damage::CgIndex, &["cg 0: header claims index 9"]),
        (Damage::CgMagic, &["cg 0: bad magic", "ino 0: reserved"]),
        (Damage::CgBitmapSize, &["cg 0: bad magic or bitmap size"]),
        (Damage::UndecodableDinode, &["undecodable dinode"]),
        (Damage::UndecodableSlot63, &["ino 63: undecodable dinode"]),
        (Damage::UndecodableSlot64, &["ino 64: undecodable dinode"]),
        // The fixture's one group holds 128 inodes.
        (
            Damage::UndecodableLastInode,
            &["ino 127: undecodable dinode"],
        ),
        (
            Damage::InodeBitCleared,
            &["dinode in use but bitmap says free"],
        ),
        (
            Damage::InodeBitSet,
            &["allocated in bitmap but dinode is free"],
        ),
        (Damage::PointerToMetadata, &["pointer to non-data block"]),
        (Damage::DoubleClaim, &["claimed by both"]),
        (Damage::BlockCount, &["dinode claims 5 blocks, found 2"]),
        (
            Damage::EntryToFreeInode,
            &["entry references unallocated ino"],
        ),
        (Damage::Orphan, &["unreachable (orphan)"]),
        (Damage::Nlink, &["nlink 5 but 1 directory references"]),
        (Damage::BlockBitCleared, &["claimed but free in bitmap"]),
        (Damage::BlockBitSet, &["allocated in bitmap but unclaimed"]),
        (Damage::CgFreeBlocks, &["cg 0: free_blocks"]),
        (
            Damage::SuperblockCounts,
            &["superblock free_blocks", "superblock free_inodes"],
        ),
    ];
    for (what, names) in cases {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.run_until(async move {
            let raw = Raw::new(fixture(&s).await).await;
            damage(&raw, what).await;
            check_repair_mount(&s, raw.disk).await
        });
        let errors = &out.check.errors;
        for name in names {
            assert!(
                errors.iter().any(|e| e.contains(name)),
                "{what:?}: no finding names {name:?}: {errors:?}"
            );
        }
        assert!(out.check.unfixable.is_empty(), "{what:?}: {:?}", out.check);
        assert_eq!(out.repair.repaired, *errors, "{what:?}: dry run != repair");
        assert!(out.repair.errors.is_empty(), "{what:?}: {:?}", out.repair);
        assert!(out.recheck.is_clean(), "{what:?}: {:?}", out.recheck.errors);
        assert!(
            out.after_use.is_clean(),
            "{what:?}: {:?}",
            out.after_use.errors
        );
    }
}

/// Each damaged superblock (`damage`'s geometry rows) alone.
async fn damaged_superblock(s: &Sim, what: Damage) -> SharedDevice {
    let raw = Raw::new(fixture(s).await).await;
    damage(&raw, what).await;
    raw.disk
}

/// The superblock geometries that do not fit the fixture's device.
const ABSURD_GEOMETRY: [Damage; 6] = [
    Damage::NoGroups,
    Damage::GroupTooSmall,
    Damage::NoDataBlocks,
    Damage::NoRootInode,
    Damage::GroupsPastEnd,
    Damage::PastDevice,
];

/// A superblock whose geometry does not fit the device is one `unfixable`
/// finding, never a walk past the device's end: the check names it, the
/// repair leaves it alone, and the image is the same afterwards.
#[test]
fn absurd_geometry_is_unfixable() {
    for what in ABSURD_GEOMETRY {
        let sim = Sim::new();
        let s = sim.clone();
        let (check, repair, before, after) = sim.run_until(async move {
            let disk = damaged_superblock(&s, what).await;
            let before = read_block(&disk, SB_BLOCK).await;
            let check = fsck(&*disk).await.unwrap();
            let repair = fsck_repair(&*disk).await.unwrap();
            (check, repair, before, read_block(&disk, SB_BLOCK).await)
        });
        assert_eq!(check.unfixable.len(), 1, "{what:?}: {check:?}");
        assert!(
            check.unfixable[0].contains("does not fit the"),
            "{what:?}: {check:?}"
        );
        assert!(check.errors.is_empty(), "{what:?}: {check:?}");
        assert_eq!(repair.unfixable, check.unfixable, "{what:?}");
        assert!(repair.repaired.is_empty(), "{what:?}: {repair:?}");
        assert_eq!(before, after, "{what:?}: repair wrote the superblock");
    }
}

#[test]
fn mount_refuses_absurd_geometry() {
    for what in ABSURD_GEOMETRY {
        let sim = Sim::new();
        let s = sim.clone();
        let mounted = sim.run_until(async move {
            let disk = damaged_superblock(&s, what).await;
            let cpu = Cpu::new(&s);
            let cache = PageCache::new(&s, PageCacheParams::small_test());
            let mut params = UfsParams::test(Tuning::config_a());
            params.mount_id = 2;
            Ufs::mount(&s, &cpu, &cache, &disk, params, None)
                .await
                .map(drop)
        });
        assert_eq!(mounted, Err(FsError::Corrupt), "{what:?}");
    }
}

#[test]
fn pointer_past_device_end_is_reported_not_followed() {
    let sim = Sim::new();
    let s = sim.clone();
    let out = sim.run_until(async move {
        let raw = Raw::new(fixture(&s).await).await;
        let big = raw.ino("big").await;
        raw.edit_dinode(big, |d| d.indirect = u32::MAX).await;
        check_repair_mount(&s, raw.disk).await
    });
    assert!(
        out.check
            .errors
            .iter()
            .any(|e| e.contains("pointer to non-data block 4294967295")),
        "{:?}",
        out.check.errors
    );
    assert_eq!(out.repair.repaired, out.check.errors);
    assert!(out.recheck.is_clean(), "{:?}", out.recheck.errors);
    assert!(out.after_use.is_clean(), "{:?}", out.after_use.errors);
}

#[test]
fn orphans_are_reported_in_inode_order() {
    let sim = Sim::new();
    let s = sim.clone();
    let (first, second) = sim.run_until(async move {
        let names: Vec<String> = (0..8).map(|i| format!("d/f{i}")).collect();
        let files: Vec<(&str, usize)> = names.iter().map(|n| (n.as_str(), 1)).collect();
        let raw = Raw::new(image(&s, &["d"], &files).await).await;
        raw.set_entry("d", 0).await;
        let first = fsck(&*raw.disk).await.unwrap();
        let second = fsck(&*raw.disk).await.unwrap();
        (first, second)
    });
    assert_eq!(first.errors, second.errors);
    let orphans: Vec<u32> = first
        .errors
        .iter()
        .filter(|e| e.ends_with("unreachable (orphan)"))
        .map(|e| e["ino ".len()..e.find(':').unwrap()].parse().unwrap())
        .collect();
    assert_eq!(orphans.len(), 9, "d and its 8 files: {:?}", first.errors);
    assert!(
        orphans.windows(2).all(|w| w[0] < w[1]),
        "orphans out of inode order: {orphans:?}"
    );
}

/// A clean image of the paper's drive (`sun0424`: 24 groups, each with a
/// 16-block table of 1,024 inodes): 300 small files in two directories, a
/// 2 MB and a 20 MB file, and a fast symlink.
async fn paper_image(s: &Sim) -> SharedDevice {
    let w = build_world(
        s,
        DiskParams::sun0424(),
        PageCacheParams::sparcstation_8mb(),
        MkfsOptions::sun0424(),
        UfsParams::test(Tuning::config_a()),
    )
    .await
    .unwrap();
    for d in ["a", "b"] {
        w.fs.mkdir(d).await.unwrap();
    }
    for i in 0..300 {
        let f =
            w.fs.create(&format!("{}/f{i}", ["a", "b"][i % 2]))
                .await
                .unwrap();
        f.write(0, &vec![7u8; (i % 24 + 1) * 1024], AccessMode::Copy)
            .await
            .unwrap();
    }
    let mb = vec![9u8; 1 << 20];
    for (name, len) in [("two", 2), ("twenty", 20)] {
        let f = w.fs.create(name).await.unwrap();
        for i in 0..len {
            f.write(i << 20, &mb, AccessMode::Copy).await.unwrap();
        }
    }
    w.fs.symlink("link", "a/f0").await.unwrap();
    w.fs.clone().unmount().await.unwrap();
    w.disk
}

/// The walk reads each group's inode table in one transfer. On the paper's
/// drive the report is the one the walk that read a block per inode gave
/// (in 24,606 reads), and the reads are the superblock, two per group
/// (header and table) and the map and directory blocks.
#[test]
fn paper_image_check_reads_each_inode_table_once() {
    let sim = Sim::new();
    let s = sim.clone();
    let (report, reads, ncg) = sim.run_until(async move {
        let disk = paper_image(&s).await;
        let before = disk.stats().reads;
        let report = fsck(&*disk).await.unwrap();
        let reads = disk.stats().reads - before;
        let sb = Superblock::decode(&read_block(&disk, SB_BLOCK).await).unwrap();
        (report, reads, sb.ncg as u64)
    });
    assert!(report.is_clean(), "{:?}", report.errors);
    assert!(report.was_clean);
    assert_eq!(
        (
            report.checked,
            report.files,
            report.dirs,
            report.used_blocks
        ),
        (73342, 303, 3, 3415)
    );
    assert_eq!(ncg, 24);
    // Map blocks: the 2 MB file's indirect block, the 20 MB file's
    // indirect, double-indirect and one second-level block. Directory
    // blocks: one each for the root, `a` and `b`.
    let maps_and_dirs = 4 + 3;
    assert!(
        reads <= 1 + 2 * ncg + maps_and_dirs,
        "{reads} reads for {ncg} groups"
    );
}

/// A sector of group 1's inode table that fails every read makes the check
/// and the repair return `FsError::Io` once the device's retries are spent.
#[test]
fn unreadable_inode_table_is_an_io_error() {
    let sim = Sim::new();
    let s = sim.clone();
    let (check, repair) = sim.run_until(async move {
        let base = paper_image(&s).await;
        let sb = Superblock::decode(&read_block(&base, SB_BLOCK).await).unwrap();
        let lba = (sb.cg_start(1) + 3) * SECTORS_PER_BLOCK as u64 + 5;
        let plan = FaultPlan::parse(&format!("media=0:{lba}+1")).unwrap();
        let disk: SharedDevice = Rc::new(FaultDevice::new(&s, base, plan.for_spindle(0), 0));
        let check = fsck(&*disk).await.map(drop);
        let repair = fsck_repair(&*disk).await.map(drop);
        (check, repair)
    });
    assert_eq!(check, Err(FsError::Io));
    assert_eq!(repair, Err(FsError::Io));
}
