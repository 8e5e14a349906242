//! `mkfs`: formats a disk with an empty file system.

use diskmodel::{BlockDevice, BlockDeviceExt};
use simkit::Sim;
use vfs::{FsError, FsResult};

use crate::layout::{
    CgHeader, Dinode, FileKind, Superblock, BLOCK_SIZE, CG_MAGIC, CG_START, DINODE_SIZE,
    INODES_PER_BLOCK, ROOT_INO, SB_BLOCK, SB_MAGIC, SECTORS_PER_BLOCK,
};

/// Formatting options.
#[derive(Clone, Copy, Debug)]
pub struct MkfsOptions {
    /// Blocks per cylinder group (metadata + data).
    pub blocks_per_cg: u32,
    /// Inodes per cylinder group.
    pub inodes_per_cg: u32,
    /// Reserved free space percentage ("usually 10%").
    pub minfree_pct: u8,
    /// Persisted rotdelay tuning, milliseconds.
    pub rotdelay_ms: u8,
    /// Persisted maxcontig tuning, blocks.
    pub maxcontig: u8,
}

impl MkfsOptions {
    /// Defaults for the paper's 400 MB drive: 16 MB groups.
    pub fn sun0424() -> MkfsOptions {
        MkfsOptions {
            blocks_per_cg: 2048,
            inodes_per_cg: 1024,
            minfree_pct: 10,
            rotdelay_ms: 0,
            maxcontig: 7,
        }
    }

    /// Small groups for unit tests (512 blocks = 4 MB per group).
    pub fn small_test() -> MkfsOptions {
        MkfsOptions {
            blocks_per_cg: 512,
            inodes_per_cg: 128,
            minfree_pct: 10,
            rotdelay_ms: 0,
            maxcontig: 7,
        }
    }
}

/// Formats `disk` and returns the superblock that was written.
///
/// Lays down: boot block (untouched), superblock, and per group a header
/// block, a zeroed inode table, and (for group 0) the root directory.
pub async fn mkfs(sim: &Sim, disk: &dyn BlockDevice, opts: MkfsOptions) -> FsResult<Superblock> {
    let _ = sim;
    let total_sectors = disk.total_sectors();
    let total_blocks = total_sectors / SECTORS_PER_BLOCK as u64;
    if total_blocks < CG_START + opts.blocks_per_cg as u64 {
        return Err(FsError::Invalid);
    }
    let ncg = ((total_blocks - CG_START) / opts.blocks_per_cg as u64) as u32;
    assert!(
        opts.inodes_per_cg.is_multiple_of(INODES_PER_BLOCK as u32),
        "inodes_per_cg must fill whole blocks"
    );
    let mut sb = Superblock {
        magic: SB_MAGIC,
        total_blocks,
        blocks_per_cg: opts.blocks_per_cg,
        inodes_per_cg: opts.inodes_per_cg,
        ncg,
        minfree_pct: opts.minfree_pct,
        rotdelay_ms: opts.rotdelay_ms,
        maxcontig: opts.maxcontig,
        clean: true,
        free_blocks: 0,
        free_inodes: 0,
    };
    // Sanity: the cg header must fit in one block.
    let _probe = CgHeader::empty(&sb, 0).encode();

    let mut total_free_blocks = 0u64;
    let mut total_free_inodes = 0u64;
    // Every zero block is written from this one buffer: a completion hands
    // its buffer back, and the device only reads it.
    let mut zero = vec![0u8; BLOCK_SIZE];
    for cgx in 0..ncg {
        let mut cg = CgHeader::empty(&sb, cgx);
        if cgx == 0 {
            // Inodes 0 and 1 are reserved; 2 is the root directory; the
            // root's single directory block is the first data block.
            cg.set_inode(0);
            cg.set_inode(1);
            cg.set_inode(ROOT_INO);
            cg.set_block(0);
        }
        total_free_blocks += cg.free_blocks as u64;
        total_free_inodes += cg.free_inodes as u64;
        write_block(disk, sb.cg_start(cgx), cg.encode()).await;
        // Zero the inode table.
        for b in 0..sb.inode_blocks_per_cg() {
            zero = write_block(disk, sb.cg_start(cgx) + 1 + b as u64, zero).await;
        }
    }

    // Root directory: inode + one (empty) directory block.
    let root_block = sb.cg_data_start(0);
    let mut root = Dinode::new(FileKind::Directory);
    root.nlink = 2;
    root.size = BLOCK_SIZE as u64;
    root.blocks = 1;
    root.direct[0] = root_block as u32;
    let (ipbn, idx) = sb.inode_location(ROOT_INO);
    let mut itable = vec![0u8; BLOCK_SIZE];
    itable[idx * DINODE_SIZE..(idx + 1) * DINODE_SIZE].copy_from_slice(&root.encode());
    write_block(disk, ipbn, itable).await;
    write_block(disk, root_block, zero).await;

    sb.free_blocks = total_free_blocks;
    sb.free_inodes = total_free_inodes;
    write_block(disk, SB_BLOCK, sb.encode()).await;
    debug_assert_eq!(sb.magic, SB_MAGIC);
    debug_assert_eq!(CG_MAGIC, 0x0909_1991);
    Ok(sb)
}

/// Writes block `pbn` and returns the buffer its completion handed back;
/// panics on an unrecoverable device error, like [`BlockDeviceExt::write`].
async fn write_block(disk: &dyn BlockDevice, pbn: u64, data: Vec<u8>) -> Vec<u8> {
    disk.try_write_from(pbn * SECTORS_PER_BLOCK as u64, SECTORS_PER_BLOCK, data)
        .await
        .expect("unrecoverable device error on write")
}
