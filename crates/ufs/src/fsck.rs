//! `fsck`: an independent consistency checker that reads the raw disk.
//!
//! Deliberately shares no code with the mount path (beyond the layout
//! definitions), so it cross-checks what the file system actually wrote:
//! bitmap vs reachability, duplicate claims, pointer validity, link counts,
//! size/blocks agreement, and summary counters.

use std::collections::{HashMap, HashSet, VecDeque};

use diskmodel::{BlockDevice, BlockDeviceExt};
use vfs::FsResult;

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
    /// Repairs applied ([`fsck_repair`] only; plain [`fsck`] never writes).
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

/// Reads block `pbn` into `buf` and hands it back: the passes below read
/// every inode-table, indirect and directory block of the disk, one after
/// another, through the same allocation.
///
/// # Panics
///
/// Panics on an unrecoverable device error, like [`BlockDeviceExt::read`].
async fn read_block(disk: &dyn BlockDevice, pbn: u64, buf: Vec<u8>) -> Vec<u8> {
    disk.try_read_into(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK, buf)
        .await
        .expect("unrecoverable device error on read")
}

fn read_ptr(block: &[u8], idx: usize) -> u32 {
    let off = idx * 4;
    u32::from_le_bytes(block[off..off + 4].try_into().unwrap())
}

/// Checks the file system on `disk`. Damage is reported, never repaired;
/// an undecodable superblock comes back as an `unfixable` finding rather
/// than an error return, so callers can print one structured report for
/// any state of the disk.
pub async fn fsck(disk: &dyn BlockDevice) -> FsResult<FsckReport> {
    let mut report = FsckReport::default();
    let mut buf = read_block(disk, SB_BLOCK, Vec::new()).await;
    let Some(sb) = Superblock::decode(&buf) else {
        report
            .unfixable
            .push("superblock: bad magic; restore from backup".to_string());
        return Ok(report);
    };
    report.was_clean = sb.clean;

    // Group headers.
    let mut cgs = Vec::new();
    for cgx in 0..sb.ncg {
        report.checked += 1;
        buf = read_block(disk, sb.cg_start(cgx), buf).await;
        match CgHeader::decode(&buf) {
            Some(cg) if cg.cgx == cgx => cgs.push(cg),
            Some(cg) => {
                report
                    .errors
                    .push(format!("cg {cgx}: header claims index {}", cg.cgx));
                cgs.push(cg);
            }
            None => {
                report.errors.push(format!("cg {cgx}: bad magic"));
                cgs.push(CgHeader::empty(&sb, cgx));
            }
        }
    }

    // Pass 1: walk inodes, collect block claims.
    let mut claims: HashMap<u64, u32> = HashMap::new(); // pbn -> first claiming ino
    let mut dinodes: HashMap<u32, Dinode> = HashMap::new();
    // The second-level map of a double-indirect walk, read while `buf`
    // holds the first.
    let mut buf2 = Vec::new();
    let mut claim = |report: &mut FsckReport, ino: u32, pbn: u64| {
        if !sb.is_data_block(pbn) {
            report
                .errors
                .push(format!("ino {ino}: pointer to non-data block {pbn}"));
            return false;
        }
        if let Some(prev) = claims.get(&pbn) {
            report.errors.push(format!(
                "block {pbn} claimed by both ino {prev} and ino {ino}"
            ));
            return false;
        }
        claims.insert(pbn, ino);
        true
    };

    for ino in 0..sb.total_inodes() {
        if ino < 2 {
            continue; // Reserved.
        }
        report.checked += 1;
        let (pbn, idx) = sb.inode_location(ino);
        buf = read_block(disk, pbn, buf).await;
        let din = match Dinode::decode(&buf[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE]) {
            Some(d) => d,
            None => {
                report.errors.push(format!("ino {ino}: undecodable dinode"));
                continue;
            }
        };
        let cg = &cgs[(ino / sb.inodes_per_cg) as usize];
        let in_bitmap = cg.inode_allocated(ino % sb.inodes_per_cg);
        match (din.kind, in_bitmap) {
            (FileKind::Free, false) => continue,
            (FileKind::Free, true) => {
                report
                    .errors
                    .push(format!("ino {ino}: allocated in bitmap but dinode is free"));
                continue;
            }
            (_, false) => {
                report
                    .errors
                    .push(format!("ino {ino}: dinode in use but bitmap says free"));
            }
            (_, true) => {}
        }
        match din.kind {
            FileKind::Regular | FileKind::Symlink => report.files += 1,
            FileKind::Directory => report.dirs += 1,
            FileKind::Free => unreachable!(),
        }
        // Walk block pointers.
        let mut counted = 0u32;
        if din.inline.is_none() {
            let nblocks = din.size.div_ceil(BLOCK_SIZE as u64);
            for i in 0..NDADDR.min(nblocks as usize) {
                let p = din.direct[i];
                if p != 0 && claim(&mut report, ino, p as u64) {
                    counted += 1;
                }
            }
            if din.indirect != 0 {
                if claim(&mut report, ino, din.indirect as u64) {
                    counted += 1;
                }
                buf = read_block(disk, din.indirect as u64, buf).await;
                let covered = nblocks
                    .saturating_sub(NDADDR as u64)
                    .min(PTRS_PER_BLOCK as u64);
                for i in 0..covered as usize {
                    let p = read_ptr(&buf, i);
                    if p != 0 && claim(&mut report, ino, p as u64) {
                        counted += 1;
                    }
                }
            }
            if din.double != 0 {
                if claim(&mut report, ino, din.double as u64) {
                    counted += 1;
                }
                buf = read_block(disk, din.double as u64, buf).await;
                for i in 0..PTRS_PER_BLOCK {
                    let mid = read_ptr(&buf, i);
                    if mid == 0 {
                        continue;
                    }
                    if claim(&mut report, ino, mid as u64) {
                        counted += 1;
                    }
                    buf2 = read_block(disk, mid as u64, buf2).await;
                    for j in 0..PTRS_PER_BLOCK {
                        let p = read_ptr(&buf2, j);
                        if p != 0 && claim(&mut report, ino, p as u64) {
                            counted += 1;
                        }
                    }
                }
            }
            if counted != din.blocks {
                report.errors.push(format!(
                    "ino {ino}: dinode claims {} blocks, found {counted}",
                    din.blocks
                ));
            }
        } else if din.blocks != 0 {
            report.errors.push(format!(
                "ino {ino}: inline data but blocks = {}",
                din.blocks
            ));
        }
        dinodes.insert(ino, din);
    }
    report.used_blocks = claims.len() as u64;

    // Pass 2: directory connectivity and link counts.
    let mut link_refs: HashMap<u32, u16> = HashMap::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut queue = VecDeque::new();
    if dinodes.contains_key(&ROOT_INO) {
        queue.push_back(ROOT_INO);
        visited.insert(ROOT_INO);
    } else {
        report.errors.push("root directory missing".to_string());
    }
    while let Some(dir_ino) = queue.pop_front() {
        let din = dinodes[&dir_ino].clone();
        let nblocks = din.size.div_ceil(BLOCK_SIZE as u64);
        for lbn in 0..nblocks.min(NDADDR as u64) {
            let p = din.direct[lbn as usize];
            if p == 0 {
                continue;
            }
            buf = read_block(disk, p as u64, buf).await;
            let data = &buf;
            let mut pos = 0usize;
            while pos + 5 <= BLOCK_SIZE {
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
                    None => report.errors.push(format!(
                        "dir {dir_ino}: entry references unallocated ino {ino}"
                    )),
                    Some(d) => {
                        *link_refs.entry(ino).or_insert(0) += 1;
                        if d.kind == FileKind::Directory && visited.insert(ino) {
                            queue.push_back(ino);
                        }
                    }
                }
            }
        }
    }
    for (&ino, din) in &dinodes {
        if ino == ROOT_INO {
            continue;
        }
        let refs = link_refs.get(&ino).copied().unwrap_or(0);
        if refs == 0 {
            report
                .errors
                .push(format!("ino {ino}: allocated but unreachable (orphan)"));
        } else if din.kind == FileKind::Regular && refs != din.nlink {
            report.errors.push(format!(
                "ino {ino}: nlink {} but {} directory references",
                din.nlink, refs
            ));
        }
    }

    // Pass 3: bitmap vs claims, and summary counters.
    let mut free_blocks_maps = 0u64;
    let mut free_inodes_maps = 0u64;
    for (cgx, cg) in cgs.iter().enumerate() {
        let mut cg_used = 0u32;
        for i in 0..sb.data_blocks_per_cg() {
            report.checked += 1;
            let pbn = sb.cg_data_start(cgx as u32) + i as u64;
            let bit = cg.block_allocated(i);
            let claimed = claims.contains_key(&pbn) || (cgx == 0 && i == 0);
            // (cg 0 data block 0 is the root directory block, claimed via
            // the root dinode walk above — it IS in claims; the extra
            // clause keeps mkfs-only images clean.)
            if bit && !claimed && !(cgx == 0 && i == 0) {
                report
                    .errors
                    .push(format!("block {pbn}: allocated in bitmap but unclaimed"));
            }
            if !bit && claims.contains_key(&pbn) {
                report
                    .errors
                    .push(format!("block {pbn}: claimed but free in bitmap"));
            }
            if bit {
                cg_used += 1;
            }
        }
        let expect_free = sb.data_blocks_per_cg() - cg_used;
        if cg.free_blocks != expect_free {
            report.errors.push(format!(
                "cg {cgx}: free_blocks {} but bitmap shows {expect_free}",
                cg.free_blocks
            ));
        }
        free_blocks_maps += cg.free_blocks as u64;
        free_inodes_maps += cg.free_inodes as u64;
    }
    if sb.free_blocks != free_blocks_maps {
        report.errors.push(format!(
            "superblock free_blocks {} != cg total {free_blocks_maps}",
            sb.free_blocks
        ));
    }
    if sb.free_inodes != free_inodes_maps {
        report.errors.push(format!(
            "superblock free_inodes {} != cg total {free_inodes_maps}",
            sb.free_inodes
        ));
    }
    Ok(report)
}

async fn write_block(disk: &dyn BlockDevice, pbn: u64, data: Vec<u8>) {
    disk.write(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK, data)
        .await;
}

/// Repairs the file system on `disk` by rebuilding the maps from what the
/// inodes and directories actually reference — the classic fsck recipe,
/// in the order the passes depend on each other:
///
/// 1. Walk every dinode, dropping invalid block pointers (out of range, or
///    already claimed by an earlier inode — first claimant wins) and
///    recomputing each inode's block count.
/// 2. Walk the directory tree from the root: zero entries that point at
///    unallocated inodes, free inodes no directory references (orphans),
///    and reset regular files' link counts to the observed reference
///    count.
/// 3. Rebuild every cylinder group's bitmaps and free counters from the
///    surviving claims, recompute the superblock summaries, and set the
///    clean flag.
///
/// Every change lands in `report.repaired`. Damage with no on-disk
/// recovery (an undecodable superblock) is reported `unfixable` and the
/// disk is left untouched. A [`fsck`] run after a successful repair
/// reports clean.
pub async fn fsck_repair(disk: &dyn BlockDevice) -> FsResult<FsckReport> {
    let mut report = FsckReport::default();
    let mut buf = read_block(disk, SB_BLOCK, Vec::new()).await;
    let Some(mut sb) = Superblock::decode(&buf) else {
        report
            .unfixable
            .push("superblock: bad magic; restore from backup".to_string());
        return Ok(report);
    };
    report.was_clean = sb.clean;

    // Group headers; an undecodable header is rebuilt from scratch (its
    // bitmaps are fully reconstructed in pass 3 anyway).
    let mut cgs = Vec::new();
    for cgx in 0..sb.ncg {
        report.checked += 1;
        buf = read_block(disk, sb.cg_start(cgx), buf).await;
        match CgHeader::decode(&buf) {
            Some(mut cg) => {
                if cg.cgx != cgx {
                    report
                        .repaired
                        .push(format!("cg {cgx}: corrected header index {}", cg.cgx));
                    cg.cgx = cgx;
                }
                cgs.push(cg);
            }
            None => {
                report
                    .repaired
                    .push(format!("cg {cgx}: rebuilt undecodable header"));
                cgs.push(CgHeader::empty(&sb, cgx));
            }
        }
    }

    // Pass 1: walk inodes; sanitize pointers; collect claims.
    let mut claims: HashMap<u64, u32> = HashMap::new(); // pbn -> claiming ino
    let mut dinodes: HashMap<u32, Dinode> = HashMap::new();
    let mut dirty_inos: HashSet<u32> = HashSet::new();
    // Indirect blocks whose pointer arrays were sanitized, by pbn. A
    // sanitized block keeps its buffer; every other read reuses `buf`
    // (`buf2` under a double-indirect walk's first-level map).
    let mut dirty_indirects: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut buf2 = Vec::new();

    for ino in 2..sb.total_inodes() {
        report.checked += 1;
        let (pbn, idx) = sb.inode_location(ino);
        buf = read_block(disk, pbn, buf).await;
        let cgx = (ino / sb.inodes_per_cg) as usize;
        let bit = ino % sb.inodes_per_cg;
        let mut din = match Dinode::decode(&buf[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE]) {
            Some(d) => d,
            None => {
                // Nothing recoverable in the slot: free it.
                report
                    .repaired
                    .push(format!("ino {ino}: cleared undecodable dinode"));
                if cgs[cgx].clear_inode(bit) {
                    cgs[cgx].free_inodes += 1;
                }
                dinodes.insert(ino, Dinode::free());
                dirty_inos.insert(ino);
                continue;
            }
        };
        if din.kind == FileKind::Free {
            if cgs[cgx].clear_inode(bit) {
                report
                    .repaired
                    .push(format!("ino {ino}: freed in bitmap to match free dinode"));
                cgs[cgx].free_inodes += 1;
            }
            continue;
        }
        if cgs[cgx].set_inode(bit) {
            report
                .repaired
                .push(format!("ino {ino}: marked allocated in bitmap"));
            cgs[cgx].free_inodes = cgs[cgx].free_inodes.saturating_sub(1);
        }
        match din.kind {
            FileKind::Regular | FileKind::Symlink => report.files += 1,
            FileKind::Directory => report.dirs += 1,
            FileKind::Free => unreachable!(),
        }
        if din.inline.is_some() {
            if din.blocks != 0 {
                report
                    .repaired
                    .push(format!("ino {ino}: zeroed block count of inline file"));
                din.blocks = 0;
                dirty_inos.insert(ino);
            }
            dinodes.insert(ino, din);
            continue;
        }
        // Sanitize a pointer slot in place: invalid or double-claimed
        // pointers are zeroed (first claimant keeps the block).
        let mut claim = |report: &mut FsckReport, p: &mut u32, what: &str| -> bool {
            if *p == 0 {
                return false;
            }
            let pbn = *p as u64;
            if !sb.is_data_block(pbn) {
                report.repaired.push(format!(
                    "ino {ino}: dropped {what} pointer to invalid block {pbn}"
                ));
                *p = 0;
                return false;
            }
            if let Some(&prev) = claims.get(&pbn) {
                report.repaired.push(format!(
                    "ino {ino}: dropped {what} pointer to block {pbn} (kept by ino {prev})"
                ));
                *p = 0;
                return false;
            }
            claims.insert(pbn, ino);
            true
        };
        let mut counted = 0u32;
        let nblocks = din.size.div_ceil(BLOCK_SIZE as u64);
        let mut direct = din.direct;
        for (i, p) in direct
            .iter_mut()
            .enumerate()
            .take(NDADDR.min(nblocks as usize))
        {
            let _ = i;
            if claim(&mut report, p, "direct") {
                counted += 1;
            }
        }
        if direct != din.direct {
            din.direct = direct;
            dirty_inos.insert(ino);
        }
        let mut indirect = din.indirect;
        if claim(&mut report, &mut indirect, "indirect") {
            counted += 1;
            let mut ind = read_block(disk, indirect as u64, std::mem::take(&mut buf)).await;
            let covered = nblocks
                .saturating_sub(NDADDR as u64)
                .min(PTRS_PER_BLOCK as u64);
            let mut changed = false;
            for i in 0..covered as usize {
                let mut p = read_ptr(&ind, i);
                if claim(&mut report, &mut p, "indirect data") {
                    counted += 1;
                } else if read_ptr(&ind, i) != 0 {
                    ind[i * 4..i * 4 + 4].copy_from_slice(&0u32.to_le_bytes());
                    changed = true;
                }
            }
            if changed {
                dirty_indirects.insert(indirect as u64, ind);
            } else {
                buf = ind;
            }
        }
        if indirect != din.indirect {
            din.indirect = indirect;
            dirty_inos.insert(ino);
        }
        let mut double = din.double;
        if claim(&mut report, &mut double, "double-indirect") {
            counted += 1;
            let mut l1 = read_block(disk, double as u64, std::mem::take(&mut buf)).await;
            let mut l1_changed = false;
            for i in 0..PTRS_PER_BLOCK {
                let mut mid = read_ptr(&l1, i);
                if mid == 0 {
                    continue;
                }
                if claim(&mut report, &mut mid, "double-indirect map") {
                    counted += 1;
                    let mut l2 = read_block(disk, mid as u64, std::mem::take(&mut buf2)).await;
                    let mut l2_changed = false;
                    for j in 0..PTRS_PER_BLOCK {
                        let mut p = read_ptr(&l2, j);
                        if p == 0 {
                            continue;
                        }
                        if claim(&mut report, &mut p, "double-indirect data") {
                            counted += 1;
                        } else {
                            l2[j * 4..j * 4 + 4].copy_from_slice(&0u32.to_le_bytes());
                            l2_changed = true;
                        }
                    }
                    if l2_changed {
                        dirty_indirects.insert(mid as u64, l2);
                    } else {
                        buf2 = l2;
                    }
                } else {
                    l1[i * 4..i * 4 + 4].copy_from_slice(&0u32.to_le_bytes());
                    l1_changed = true;
                }
            }
            if l1_changed {
                dirty_indirects.insert(double as u64, l1);
            } else {
                buf = l1;
            }
        }
        if double != din.double {
            din.double = double;
            dirty_inos.insert(ino);
        }
        if counted != din.blocks {
            report.repaired.push(format!(
                "ino {ino}: corrected block count {} -> {counted}",
                din.blocks
            ));
            din.blocks = counted;
            dirty_inos.insert(ino);
        }
        dinodes.insert(ino, din);
    }

    // Pass 2: reachability from the root. Directory blocks with entries
    // pointing at unallocated inodes are rewritten with those entries
    // zeroed; everything never reached is an orphan and gets freed.
    let mut link_refs: HashMap<u32, u16> = HashMap::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut queue = VecDeque::new();
    match dinodes.get(&ROOT_INO) {
        Some(d) if d.kind == FileKind::Directory => {
            queue.push_back(ROOT_INO);
            visited.insert(ROOT_INO);
        }
        _ => {
            report
                .unfixable
                .push("root directory missing or not a directory".to_string());
            return Ok(report);
        }
    }
    while let Some(dir_ino) = queue.pop_front() {
        let din = dinodes[&dir_ino].clone();
        let nblocks = din.size.div_ceil(BLOCK_SIZE as u64);
        for lbn in 0..nblocks.min(NDADDR as u64) {
            let p = din.direct[lbn as usize];
            if p == 0 {
                continue;
            }
            let mut data = read_block(disk, p as u64, std::mem::take(&mut buf)).await;
            let mut changed = false;
            let mut pos = 0usize;
            while pos + 5 <= BLOCK_SIZE {
                let ino = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
                let namelen = data[pos + 4] as usize;
                if ino == 0 && namelen == 0 {
                    break;
                }
                let entry = pos;
                pos += 5 + namelen;
                if ino == 0 {
                    continue;
                }
                match dinodes.get(&ino) {
                    None
                    | Some(Dinode {
                        kind: FileKind::Free,
                        ..
                    }) => {
                        report.repaired.push(format!(
                            "dir {dir_ino}: zeroed entry referencing unallocated ino {ino}"
                        ));
                        data[entry..entry + 4].copy_from_slice(&0u32.to_le_bytes());
                        changed = true;
                    }
                    Some(d) => {
                        *link_refs.entry(ino).or_insert(0) += 1;
                        if d.kind == FileKind::Directory && visited.insert(ino) {
                            queue.push_back(ino);
                        }
                    }
                }
            }
            if changed {
                write_block(disk, p as u64, data).await;
            } else {
                buf = data;
            }
        }
    }
    let inos: Vec<u32> = {
        let mut v: Vec<u32> = dinodes.keys().copied().collect();
        v.sort_unstable();
        v
    };
    for ino in inos {
        if ino == ROOT_INO || dinodes[&ino].kind == FileKind::Free {
            continue;
        }
        let refs = link_refs.get(&ino).copied().unwrap_or(0);
        if refs == 0 {
            // Orphan: free the inode and release its blocks.
            report
                .repaired
                .push(format!("ino {ino}: cleared unreachable inode"));
            claims.retain(|_, &mut owner| owner != ino);
            let cgx = (ino / sb.inodes_per_cg) as usize;
            if cgs[cgx].clear_inode(ino % sb.inodes_per_cg) {
                cgs[cgx].free_inodes += 1;
            }
            match dinodes[&ino].kind {
                FileKind::Directory => report.dirs -= 1,
                _ => report.files -= 1,
            }
            dinodes.insert(ino, Dinode::free());
            dirty_inos.insert(ino);
        } else {
            let din = dinodes.get_mut(&ino).unwrap();
            if din.kind == FileKind::Regular && refs != din.nlink {
                report.repaired.push(format!(
                    "ino {ino}: corrected nlink {} -> {refs}",
                    din.nlink
                ));
                din.nlink = refs;
                dirty_inos.insert(ino);
            }
        }
    }
    report.used_blocks = claims.len() as u64;

    // Pass 3: rebuild the block bitmaps and free counters from the claims
    // that survived, and refresh the superblock summaries.
    let mut free_blocks_total = 0u64;
    let mut free_inodes_total = 0u64;
    for (cgx, cg) in cgs.iter_mut().enumerate() {
        let mut flipped = 0u32;
        let mut used = 0u32;
        for i in 0..sb.data_blocks_per_cg() {
            report.checked += 1;
            let pbn = sb.cg_data_start(cgx as u32) + i as u64;
            // cg 0 data block 0 is the root directory's block even on a
            // freshly formatted image.
            let should = claims.contains_key(&pbn) || (cgx == 0 && i == 0);
            let changed = if should {
                cg.set_block(i)
            } else {
                cg.clear_block(i)
            };
            if changed {
                flipped += 1;
            }
            if should {
                used += 1;
            }
        }
        if flipped > 0 {
            report
                .repaired
                .push(format!("cg {cgx}: rebuilt block bitmap ({flipped} bits)"));
        }
        let expect_free = sb.data_blocks_per_cg() - used;
        if cg.free_blocks != expect_free {
            report.repaired.push(format!(
                "cg {cgx}: corrected free_blocks {} -> {expect_free}",
                cg.free_blocks
            ));
            cg.free_blocks = expect_free;
        }
        free_blocks_total += cg.free_blocks as u64;
        free_inodes_total += cg.free_inodes as u64;
    }
    if sb.free_blocks != free_blocks_total {
        report.repaired.push(format!(
            "superblock: corrected free_blocks {} -> {free_blocks_total}",
            sb.free_blocks
        ));
        sb.free_blocks = free_blocks_total;
    }
    if sb.free_inodes != free_inodes_total {
        report.repaired.push(format!(
            "superblock: corrected free_inodes {} -> {free_inodes_total}",
            sb.free_inodes
        ));
        sb.free_inodes = free_inodes_total;
    }
    if !sb.clean {
        report
            .repaired
            .push("superblock: set clean after repair".to_string());
        sb.clean = true;
    }

    // Write back everything that changed: sanitized indirect blocks,
    // dirty dinodes (grouped per inode-table block), every group header,
    // and the superblock last.
    for (pbn, data) in dirty_indirects {
        write_block(disk, pbn, data).await;
    }
    let mut by_block: HashMap<u64, Vec<u32>> = HashMap::new();
    for &ino in &dirty_inos {
        by_block
            .entry(sb.inode_location(ino).0)
            .or_default()
            .push(ino);
    }
    let mut blocks: Vec<u64> = by_block.keys().copied().collect();
    blocks.sort_unstable();
    for pbn in blocks {
        let mut data = read_block(disk, pbn, Vec::new()).await;
        for &ino in &by_block[&pbn] {
            let idx = sb.inode_location(ino).1;
            data[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE]
                .copy_from_slice(&dinodes[&ino].encode());
        }
        write_block(disk, pbn, data).await;
    }
    for (cgx, cg) in cgs.iter().enumerate() {
        write_block(disk, sb.cg_start(cgx as u32), cg.encode()).await;
    }
    write_block(disk, SB_BLOCK, sb.encode()).await;
    Ok(report)
}
