//! `fsck` and `fsck_repair`: an independent consistency checker that reads
//! the raw disk, and the repair that writes its fixes back.
//!
//! Both are one walk. The walk applies every fix to its in-memory copy of
//! the maps in either mode, so [`fsck`] is exactly a dry run of
//! [`fsck_repair`]: what `fsck` reports as `errors` is what `fsck_repair`
//! reports as `repaired`, and only the repair writes anything.
//!
//! Deliberately shares no code with the mount path (beyond the layout
//! definitions), so it cross-checks what the file system actually wrote:
//! bitmap vs reachability, duplicate claims, pointer validity, link counts,
//! size/blocks agreement, and summary counters.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::mem;

use diskmodel::{BlockDevice, BlockDeviceExt};
use vfs::{FsError, FsResult};

use crate::layout::{
    CgHeader, Dinode, FileKind, Superblock, BLOCK_SIZE, DINODE_SIZE, NDADDR, PTRS_PER_BLOCK,
    ROOT_INO, SB_BLOCK, SECTORS_PER_BLOCK,
};

/// Outcome of a check or repair.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Human-readable inconsistencies; empty means the file system is
    /// consistent.
    pub errors: Vec<String>,
    /// Objects examined: cylinder groups, inode slots, and data blocks
    /// cross-checked against the bitmaps.
    pub checked: u64,
    /// Findings [`fsck_repair`] fixed on disk: the `errors` [`fsck`]
    /// reports for the same image. Plain [`fsck`] never writes.
    pub repaired: Vec<String>,
    /// Damage found that cannot be repaired from on-disk state alone
    /// (restore from backup territory, e.g. an unreadable superblock).
    pub unfixable: Vec<String>,
    /// Regular files found.
    pub files: u32,
    /// Directories found.
    pub dirs: u32,
    /// Data+indirect blocks in use.
    pub used_blocks: u64,
    /// Whether the superblock carried the clean-unmount flag.
    pub was_clean: bool,
}

impl FsckReport {
    /// True when no inconsistencies were found (repairs already applied do
    /// not count against cleanliness; unrepairable damage does).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.unfixable.is_empty()
    }
}

/// Reads `n` blocks from `pbn` into `buf` and hands it back: the passes
/// below read every inode table (one transfer per group), indirect and
/// directory block of the disk, one after another, through a few reused
/// allocations. An error that outlasts the device's bounded retry is
/// `FsError::Io`.
async fn read_blocks(disk: &dyn BlockDevice, pbn: u64, n: u32, buf: Vec<u8>) -> FsResult<Vec<u8>> {
    disk.try_read_into(pbn * SECTORS_PER_BLOCK as u64, n * SECTORS_PER_BLOCK, buf)
        .await
        .map_err(|_| FsError::Io)
}

/// Writes block `pbn` and hands the buffer back, like [`read_blocks`].
async fn write_block(disk: &dyn BlockDevice, pbn: u64, data: Vec<u8>) -> FsResult<Vec<u8>> {
    disk.try_write_from(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK, data)
        .await
        .map_err(|_| FsError::Io)
}

fn read_ptr(block: &[u8], idx: usize) -> u32 {
    let off = idx * 4;
    u32::from_le_bytes(block[off..off + 4].try_into().unwrap())
}

/// Sets bit `i` of `bitmap` to `on` and returns whether it changed. The
/// group's free counters are left alone: pass 3 recounts them.
fn set_bit(bitmap: &mut [u8], i: u32, on: bool) -> bool {
    let (byte, bit) = (&mut bitmap[(i / 8) as usize], 1u8 << (i % 8));
    let was = *byte & bit != 0;
    if on {
        *byte |= bit;
    } else {
        *byte &= !bit;
    }
    was != on
}

/// Offers the first `n` pointers of map block `map` to `claim`, which
/// zeroes the ones it rejects. Returns how many it accepted and whether a
/// slot was zeroed.
fn claim_slots(map: &mut [u8], n: usize, mut claim: impl FnMut(&mut u32) -> bool) -> (u32, bool) {
    let (mut accepted, mut zeroed) = (0, false);
    for slot in map[..n * 4].chunks_exact_mut(4) {
        let was = u32::from_le_bytes((&*slot).try_into().unwrap());
        let mut p = was;
        if claim(&mut p) {
            accepted += 1;
        } else if p != was {
            slot.copy_from_slice(&p.to_le_bytes());
            zeroed = true;
        }
    }
    (accepted, zeroed)
}

/// Files a block the walk changed for write-back, or hands an unchanged
/// block's buffer back for the next read.
fn keep(dirty: &mut BTreeMap<u64, Vec<u8>>, pbn: u32, data: Vec<u8>, changed: bool) -> Vec<u8> {
    if !changed {
        return data;
    }
    dirty.insert(pbn as u64, data);
    Vec::new()
}

/// Checks the file system on `disk`. Damage is reported, never repaired;
/// an undecodable superblock comes back as an `unfixable` finding rather
/// than an error return, so callers can print one structured report for
/// any state of the disk. A read the device fails past its bounded retry
/// is `Err(FsError::Io)`.
pub async fn fsck(disk: &dyn BlockDevice) -> FsResult<FsckReport> {
    walk(disk, false).await
}

/// Repairs the file system on `disk` by rebuilding the maps from what the
/// inodes and directories actually reference: the walk [`fsck`] does, with
/// its fixes written back and the clean flag set. Each finding lands in
/// `report.repaired`.
///
/// Damage with no on-disk recovery (an undecodable superblock, a missing
/// root directory) is reported `unfixable`, the findings stay in
/// `errors`, and the disk is left untouched. A [`fsck`] run after a
/// repair with nothing unfixable reports clean. A device error is
/// `Err(FsError::Io)`, and one during the write-back leaves the repair
/// part-way.
pub async fn fsck_repair(disk: &dyn BlockDevice) -> FsResult<FsckReport> {
    walk(disk, true).await
}

/// The one walk behind [`fsck`] and [`fsck_repair`], in the order the
/// passes depend on each other:
///
/// 1. Walk every dinode. A pointer is followed only once it is claimed;
///    an invalid or already-claimed one (first claimant wins) is dropped,
///    and each inode's block count is recomputed.
/// 2. Walk the directory tree from the root: drop entries naming free
///    inodes, free the inodes no directory names (orphans) with their
///    blocks, and set regular files' link counts to the references found.
/// 3. Rebuild the block bitmaps from the surviving claims, and recount the
///    groups' and the superblock's free counters.
///
/// Every fix lands in the walk's own copy of the maps, whatever `repair`
/// says. `repair` only decides whether the fixes are written back and the
/// findings count as `repaired`.
async fn walk(disk: &dyn BlockDevice, repair: bool) -> FsResult<FsckReport> {
    let mut report = FsckReport::default();
    let mut buf = read_blocks(disk, SB_BLOCK, 1, Vec::new()).await?;
    let Some(mut sb) = Superblock::decode(&buf) else {
        report
            .unfixable
            .push("superblock: bad magic; restore from backup".to_string());
        return Ok(report);
    };
    let device_blocks = disk.total_sectors() / SECTORS_PER_BLOCK as u64;
    if !sb.fits(device_blocks) {
        report.unfixable.push(format!(
            "superblock: geometry ({} groups of {} blocks, {} inodes each, {} blocks) \
             does not fit the {device_blocks}-block device; restore from backup",
            sb.ncg, sb.blocks_per_cg, sb.inodes_per_cg, sb.total_blocks
        ));
        return Ok(report);
    }
    report.was_clean = sb.clean;

    // Group headers. One that does not decode to this file system's
    // bitmap sizes is rebuilt empty; the passes below refill it.
    let bitmap_bytes = (
        (sb.data_blocks_per_cg() as usize).div_ceil(8),
        (sb.inodes_per_cg as usize).div_ceil(8),
    );
    let mut cgs = Vec::new();
    for cgx in 0..sb.ncg {
        report.checked += 1;
        buf = read_blocks(disk, sb.cg_start(cgx), 1, buf).await?;
        cgs.push(match CgHeader::decode(&buf) {
            Some(cg) if (cg.block_bitmap.len(), cg.inode_bitmap.len()) == bitmap_bytes => {
                if cg.cgx != cgx {
                    report
                        .errors
                        .push(format!("cg {cgx}: header claims index {}", cg.cgx));
                }
                CgHeader { cgx, ..cg }
            }
            _ => {
                report
                    .errors
                    .push(format!("cg {cgx}: bad magic or bitmap size"));
                CgHeader::empty(&sb, cgx)
            }
        });
    }
    // Inodes 0 and 1 are reserved: allocated, never walked.
    if let Some(cg) = cgs.first_mut() {
        for ino in 0..2 {
            if set_bit(&mut cg.inode_bitmap, ino, true) {
                report
                    .errors
                    .push(format!("ino {ino}: reserved but free in bitmap"));
            }
        }
    }

    // Pass 1: walk inodes, collect block claims. Each group's inode table
    // (`inode_blocks_per_cg` contiguous blocks after its header) is read
    // whole, in one transfer into one reused buffer, when the walk enters
    // the group; its dinodes are decoded from there.
    let mut claims: HashMap<u64, u32> = HashMap::new(); // pbn -> claiming ino
    let mut dinodes: HashMap<u32, Dinode> = HashMap::new();
    // What the fixes changed, for the write-back: dinodes, and the map and
    // directory blocks (by pbn, in the buffers they were read into).
    let mut dirty_inos = BTreeSet::new();
    let mut dirty_blocks = BTreeMap::new();
    // The second-level map of a double-indirect walk, read while `buf`
    // holds the first.
    let mut buf2 = Vec::new();
    // Claims the block `p` names for `ino`, or zeroes `p`.
    let mut claim = |errors: &mut Vec<String>, ino: u32, p: &mut u32| {
        let pbn = *p as u64;
        if pbn == 0 {
            return false;
        }
        if !sb.is_data_block(pbn) {
            errors.push(format!("ino {ino}: pointer to non-data block {pbn}"));
        } else if let Some(prev) = claims.get(&pbn) {
            errors.push(format!(
                "block {pbn} claimed by both ino {prev} and ino {ino}"
            ));
        } else {
            claims.insert(pbn, ino);
            return true;
        }
        *p = 0;
        false
    };

    let mut table = Vec::new();
    for ino in 2..sb.total_inodes() {
        report.checked += 1;
        let (cgx, slot) = (ino / sb.inodes_per_cg, ino % sb.inodes_per_cg);
        if slot == 0 || ino == 2 {
            table =
                read_blocks(disk, sb.cg_start(cgx) + 1, sb.inode_blocks_per_cg(), table).await?;
        }
        let cg = &mut cgs[cgx as usize];
        let at = slot as usize * DINODE_SIZE;
        let Some(mut din) = Dinode::decode(&table[at..at + DINODE_SIZE]) else {
            // Nothing recoverable in the slot: free it.
            report.errors.push(format!("ino {ino}: undecodable dinode"));
            set_bit(&mut cg.inode_bitmap, slot, false);
            dinodes.insert(ino, Dinode::free());
            dirty_inos.insert(ino);
            continue;
        };
        let in_use = din.kind != FileKind::Free;
        if set_bit(&mut cg.inode_bitmap, slot, in_use) {
            report.errors.push(if in_use {
                format!("ino {ino}: dinode in use but bitmap says free")
            } else {
                format!("ino {ino}: allocated in bitmap but dinode is free")
            });
        }
        match din.kind {
            FileKind::Regular | FileKind::Symlink => report.files += 1,
            FileKind::Directory => report.dirs += 1,
            FileKind::Free => continue,
        }
        let before = (din.direct, din.indirect, din.double, din.blocks);
        if din.inline.is_some() {
            if din.blocks != 0 {
                report.errors.push(format!(
                    "ino {ino}: inline data but blocks = {}",
                    din.blocks
                ));
                din.blocks = 0;
            }
        } else {
            let nblocks = din.size.div_ceil(BLOCK_SIZE as u64);
            let mut counted = 0;
            for p in din.direct.iter_mut().take(NDADDR.min(nblocks as usize)) {
                counted += claim(&mut report.errors, ino, p) as u32;
            }
            if claim(&mut report.errors, ino, &mut din.indirect) {
                let covered = nblocks
                    .saturating_sub(NDADDR as u64)
                    .min(PTRS_PER_BLOCK as u64);
                let mut map =
                    read_blocks(disk, din.indirect as u64, 1, mem::take(&mut buf)).await?;
                let (n, changed) = claim_slots(&mut map, covered as usize, |p| {
                    claim(&mut report.errors, ino, p)
                });
                counted += 1 + n;
                buf = keep(&mut dirty_blocks, din.indirect, map, changed);
            }
            if claim(&mut report.errors, ino, &mut din.double) {
                let mut l1 = read_blocks(disk, din.double as u64, 1, mem::take(&mut buf)).await?;
                let (n, l1_changed) = claim_slots(&mut l1, PTRS_PER_BLOCK, |p| {
                    claim(&mut report.errors, ino, p)
                });
                counted += 1 + n;
                for i in 0..PTRS_PER_BLOCK {
                    let mid = read_ptr(&l1, i);
                    if mid == 0 {
                        continue;
                    }
                    let mut l2 = read_blocks(disk, mid as u64, 1, mem::take(&mut buf2)).await?;
                    let (n, changed) = claim_slots(&mut l2, PTRS_PER_BLOCK, |p| {
                        claim(&mut report.errors, ino, p)
                    });
                    counted += n;
                    buf2 = keep(&mut dirty_blocks, mid, l2, changed);
                }
                buf = keep(&mut dirty_blocks, din.double, l1, l1_changed);
            }
            if counted != din.blocks {
                report.errors.push(format!(
                    "ino {ino}: dinode claims {} blocks, found {counted}",
                    din.blocks
                ));
                din.blocks = counted;
            }
        }
        if (din.direct, din.indirect, din.double, din.blocks) != before {
            dirty_inos.insert(ino);
        }
        dinodes.insert(ino, din);
    }

    // Pass 2: directory connectivity and link counts.
    match dinodes.get(&ROOT_INO) {
        Some(d) if d.kind == FileKind::Directory => {}
        _ => {
            report
                .unfixable
                .push("root directory missing or not a directory".to_string());
            return Ok(report);
        }
    }
    let mut link_refs: HashMap<u32, u16> = HashMap::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(ROOT_INO);
    visited.insert(ROOT_INO);
    while let Some(dir_ino) = queue.pop_front() {
        let din = &dinodes[&dir_ino];
        let (direct, nblocks) = (din.direct, din.size.div_ceil(BLOCK_SIZE as u64));
        for &p in direct.iter().take(nblocks.min(NDADDR as u64) as usize) {
            if p == 0 {
                continue;
            }
            let mut data = read_blocks(disk, p as u64, 1, mem::take(&mut buf)).await?;
            let mut changed = false;
            let mut pos = 0usize;
            while pos + 5 <= BLOCK_SIZE {
                let entry = pos;
                let ino = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
                let namelen = data[pos + 4] as usize;
                if ino == 0 && namelen == 0 {
                    break;
                }
                pos += 5 + namelen;
                if ino == 0 {
                    continue;
                }
                match dinodes.get(&ino) {
                    Some(d) if d.kind != FileKind::Free => {
                        *link_refs.entry(ino).or_insert(0) += 1;
                        if d.kind == FileKind::Directory && visited.insert(ino) {
                            queue.push_back(ino);
                        }
                    }
                    _ => {
                        report.errors.push(format!(
                            "dir {dir_ino}: entry references unallocated ino {ino}"
                        ));
                        data[entry..entry + 4].fill(0);
                        changed = true;
                    }
                }
            }
            buf = keep(&mut dirty_blocks, p, data, changed);
        }
    }
    for ino in 2..sb.total_inodes() {
        let Some(din) = dinodes.get_mut(&ino) else {
            continue;
        };
        if ino == ROOT_INO || din.kind == FileKind::Free {
            continue;
        }
        let refs = link_refs.get(&ino).copied().unwrap_or(0);
        if refs == 0 {
            report
                .errors
                .push(format!("ino {ino}: allocated but unreachable (orphan)"));
            match din.kind {
                FileKind::Directory => report.dirs -= 1,
                _ => report.files -= 1,
            }
            *din = Dinode::free();
            claims.retain(|_, &mut owner| owner != ino);
            let cg = &mut cgs[(ino / sb.inodes_per_cg) as usize];
            set_bit(&mut cg.inode_bitmap, ino % sb.inodes_per_cg, false);
            dirty_inos.insert(ino);
        } else if din.kind == FileKind::Regular && refs != din.nlink {
            report.errors.push(format!(
                "ino {ino}: nlink {} but {refs} directory references",
                din.nlink
            ));
            din.nlink = refs;
            dirty_inos.insert(ino);
        }
    }
    report.used_blocks = claims.len() as u64;

    // Pass 3: bitmap vs claims, and summary counters.
    let (mut free_blocks, mut free_inodes) = (0u64, 0u64);
    for (cgx, cg) in cgs.iter_mut().enumerate() {
        let mut used = 0u32;
        for i in 0..sb.data_blocks_per_cg() {
            report.checked += 1;
            let pbn = sb.cg_data_start(cgx as u32) + i as u64;
            // cg 0 data block 0 is the root directory's block even on a
            // freshly formatted image.
            let claimed = claims.contains_key(&pbn) || (cgx == 0 && i == 0);
            used += claimed as u32;
            if set_bit(&mut cg.block_bitmap, i, claimed) {
                report.errors.push(if claimed {
                    format!("block {pbn}: claimed but free in bitmap")
                } else {
                    format!("block {pbn}: allocated in bitmap but unclaimed")
                });
            }
        }
        let inodes_used = (0..sb.inodes_per_cg)
            .filter(|&i| cg.inode_allocated(i))
            .count() as u32;
        for (what, counter, expect) in [
            (
                "free_blocks",
                &mut cg.free_blocks,
                sb.data_blocks_per_cg() - used,
            ),
            (
                "free_inodes",
                &mut cg.free_inodes,
                sb.inodes_per_cg - inodes_used,
            ),
        ] {
            if *counter != expect {
                report.errors.push(format!(
                    "cg {cgx}: {what} {counter} but bitmap shows {expect}"
                ));
                *counter = expect;
            }
        }
        free_blocks += cg.free_blocks as u64;
        free_inodes += cg.free_inodes as u64;
    }
    for (what, counter, expect) in [
        ("free_blocks", &mut sb.free_blocks, free_blocks),
        ("free_inodes", &mut sb.free_inodes, free_inodes),
    ] {
        if *counter != expect {
            report
                .errors
                .push(format!("superblock {what} {counter} != cg total {expect}"));
            *counter = expect;
        }
    }

    // Write back everything that changed: map and directory blocks, dirty
    // dinodes, every group header, and the superblock last.
    if repair {
        for (pbn, data) in dirty_blocks {
            write_block(disk, pbn, data).await?;
        }
        for ino in dirty_inos {
            let (pbn, idx) = sb.inode_location(ino);
            buf = read_blocks(disk, pbn, 1, buf).await?;
            buf[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE]
                .copy_from_slice(&dinodes[&ino].encode());
            buf = write_block(disk, pbn, buf).await?;
        }
        for (cgx, cg) in cgs.iter().enumerate() {
            write_block(disk, sb.cg_start(cgx as u32), cg.encode()).await?;
        }
        sb.clean = true;
        write_block(disk, SB_BLOCK, sb.encode()).await?;
        report.repaired = mem::take(&mut report.errors);
    }
    Ok(report)
}
