//! The on-disk format: superblock, cylinder groups, dinodes.
//!
//! The format is FFS-shaped: the disk is divided into cylinder groups, each
//! with its own free-block bitmap, inode bitmap and inode table, so related
//! data can be placed together and the allocator has per-region free
//! accounting. Keeping this format **fixed** is the paper's core constraint:
//! every clustering change must work on top of it.
//!
//! Differences from historical FFS are deliberate simplifications that do
//! not affect the paper's experiments (documented in DESIGN.md): block
//! pointers are in 8 KB block units (no 1 KB fragments), there is one
//! superblock (no rotating replicas), and directory blocks use a simple
//! packed entry format.

/// Bytes per file system block.
pub const BLOCK_SIZE: usize = 8192;
/// Bytes per disk sector.
pub const SECTOR_SIZE: usize = 512;
/// Sectors per file system block.
pub const SECTORS_PER_BLOCK: u32 = (BLOCK_SIZE / SECTOR_SIZE) as u32;
/// Direct block pointers per dinode.
pub const NDADDR: usize = 12;
/// Block pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;
/// Bytes per on-disk inode.
pub const DINODE_SIZE: usize = 128;
/// Dinodes per file system block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / DINODE_SIZE;
/// Maximum bytes of inline ("data in the inode") file content, stored in
/// the block-pointer area like SunOS fast symlinks.
pub const INLINE_MAX: usize = NDADDR * 4 + 8; // 56 bytes.
/// Maximum file name length.
pub const NAME_MAX: usize = 255;
/// Superblock magic ("McKusick's number" stand-in).
pub const SB_MAGIC: u32 = 0x0119_9101;
/// Cylinder group magic.
pub const CG_MAGIC: u32 = 0x0909_1991;
/// The root directory's inode number.
pub const ROOT_INO: u32 = 2;
/// Physical block of the superblock (block 0 is the boot block).
pub const SB_BLOCK: u64 = 1;
/// First block of the first cylinder group.
pub const CG_START: u64 = 2;

/// Largest representable file, in blocks.
pub fn max_file_blocks() -> u64 {
    NDADDR as u64 + PTRS_PER_BLOCK as u64 + (PTRS_PER_BLOCK as u64) * (PTRS_PER_BLOCK as u64)
}

/// The superblock: global geometry and tuning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Identifies a valid file system.
    pub magic: u32,
    /// Total file system blocks on the device.
    pub total_blocks: u64,
    /// Data+metadata blocks per cylinder group.
    pub blocks_per_cg: u32,
    /// Inodes per cylinder group.
    pub inodes_per_cg: u32,
    /// Number of cylinder groups.
    pub ncg: u32,
    /// Reserved free-space percentage (the allocator's slack; "usually
    /// 10%").
    pub minfree_pct: u8,
    /// Persisted tuning: placement gap in milliseconds.
    pub rotdelay_ms: u8,
    /// Persisted tuning: desired cluster size in blocks.
    pub maxcontig: u8,
    /// Set when the file system was cleanly unmounted.
    pub clean: bool,
    /// Free data blocks (summary; authoritative copies in the cgs).
    pub free_blocks: u64,
    /// Free inodes (summary).
    pub free_inodes: u64,
}

impl Superblock {
    /// Serializes to one sector's worth of bytes (padded).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let mut w = Writer::new(&mut buf);
        w.u32(self.magic);
        w.u64(self.total_blocks);
        w.u32(self.blocks_per_cg);
        w.u32(self.inodes_per_cg);
        w.u32(self.ncg);
        w.u8(self.minfree_pct);
        w.u8(self.rotdelay_ms);
        w.u8(self.maxcontig);
        w.u8(self.clean as u8);
        w.u64(self.free_blocks);
        w.u64(self.free_inodes);
        buf
    }

    /// Parses a superblock; `None` if the magic is wrong.
    pub fn decode(buf: &[u8]) -> Option<Superblock> {
        let mut r = Reader::new(buf);
        let magic = r.u32()?;
        if magic != SB_MAGIC {
            return None;
        }
        Some(Superblock {
            magic,
            total_blocks: r.u64()?,
            blocks_per_cg: r.u32()?,
            inodes_per_cg: r.u32()?,
            ncg: r.u32()?,
            minfree_pct: r.u8()?,
            rotdelay_ms: r.u8()?,
            maxcontig: r.u8()?,
            clean: r.u8()? != 0,
            free_blocks: r.u64()?,
            free_inodes: r.u64()?,
        })
    }

    /// Whether this geometry fits a device of `device_blocks` blocks: at
    /// least one group; in each, room for the header, the inode table and
    /// at least one data block; inodes enough that group 0 holds the root;
    /// and the last group ending inside `total_blocks`, which must itself
    /// fit on the device. Everything below trusts these, so `mount` and
    /// `fsck` check them right after decoding.
    pub fn fits(&self, device_blocks: u64) -> bool {
        self.ncg >= 1
            && self.blocks_per_cg > self.cg_meta_blocks()
            && self.inodes_per_cg > ROOT_INO
            && self.cg_start(self.ncg) <= self.total_blocks
            && self.total_blocks <= device_blocks
    }

    /// Blocks the inode table occupies in each cylinder group.
    pub fn inode_blocks_per_cg(&self) -> u32 {
        self.inodes_per_cg.div_ceil(INODES_PER_BLOCK as u32)
    }

    /// Metadata blocks at the head of each cg (header + inode table).
    pub fn cg_meta_blocks(&self) -> u32 {
        1 + self.inode_blocks_per_cg()
    }

    /// Data blocks per cylinder group.
    pub fn data_blocks_per_cg(&self) -> u32 {
        self.blocks_per_cg - self.cg_meta_blocks()
    }

    /// First physical block of cylinder group `cgx`.
    pub fn cg_start(&self, cgx: u32) -> u64 {
        CG_START + cgx as u64 * self.blocks_per_cg as u64
    }

    /// First data block of cylinder group `cgx`.
    pub fn cg_data_start(&self, cgx: u32) -> u64 {
        self.cg_start(cgx) + self.cg_meta_blocks() as u64
    }

    /// The cylinder group containing physical block `pbn`, if it is a data
    /// block.
    pub fn cg_of_block(&self, pbn: u64) -> Option<u32> {
        if pbn < CG_START {
            return None;
        }
        let cgx = ((pbn - CG_START) / self.blocks_per_cg as u64) as u32;
        if cgx < self.ncg {
            Some(cgx)
        } else {
            None
        }
    }

    /// Whether `pbn` is a data block (not boot/superblock/cg metadata).
    pub fn is_data_block(&self, pbn: u64) -> bool {
        match self.cg_of_block(pbn) {
            Some(cgx) => pbn >= self.cg_data_start(cgx),
            None => false,
        }
    }

    /// Total data-block capacity.
    pub fn total_data_blocks(&self) -> u64 {
        self.ncg as u64 * self.data_blocks_per_cg() as u64
    }

    /// Data blocks held back by the minfree reserve.
    pub fn minfree_blocks(&self) -> u64 {
        self.total_data_blocks() * self.minfree_pct as u64 / 100
    }

    /// Physical block holding dinode `ino`, plus its index within that
    /// block.
    pub fn inode_location(&self, ino: u32) -> (u64, usize) {
        let cgx = ino / self.inodes_per_cg;
        let idx = (ino % self.inodes_per_cg) as usize;
        let block = self.cg_start(cgx) + 1 + (idx / INODES_PER_BLOCK) as u64;
        (block, idx % INODES_PER_BLOCK)
    }

    /// Total inodes.
    pub fn total_inodes(&self) -> u32 {
        self.ncg * self.inodes_per_cg
    }
}

/// Per-cylinder-group header: free bitmaps and counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CgHeader {
    /// Identifies a valid group.
    pub magic: u32,
    /// Group index.
    pub cgx: u32,
    /// Free data blocks in this group.
    pub free_blocks: u32,
    /// Free inodes in this group.
    pub free_inodes: u32,
    /// One bit per data block: set = allocated.
    pub block_bitmap: Vec<u8>,
    /// One bit per inode: set = allocated.
    pub inode_bitmap: Vec<u8>,
}

impl CgHeader {
    /// A fresh group with everything free.
    pub fn empty(sb: &Superblock, cgx: u32) -> CgHeader {
        CgHeader {
            magic: CG_MAGIC,
            cgx,
            free_blocks: sb.data_blocks_per_cg(),
            free_inodes: sb.inodes_per_cg,
            block_bitmap: vec![0u8; (sb.data_blocks_per_cg() as usize).div_ceil(8)],
            inode_bitmap: vec![0u8; (sb.inodes_per_cg as usize).div_ceil(8)],
        }
    }

    /// Serializes to one block.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps do not fit in one block (mkfs sizes them).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let need = 4 + 4 + 4 + 4 + 4 + self.block_bitmap.len() + 4 + self.inode_bitmap.len();
        assert!(need <= BLOCK_SIZE, "cg header does not fit in a block");
        let mut w = Writer::new(&mut buf);
        w.u32(self.magic);
        w.u32(self.cgx);
        w.u32(self.free_blocks);
        w.u32(self.free_inodes);
        w.u32(self.block_bitmap.len() as u32);
        w.bytes(&self.block_bitmap);
        w.u32(self.inode_bitmap.len() as u32);
        w.bytes(&self.inode_bitmap);
        buf
    }

    /// Parses a group header; `None` on bad magic or malformed lengths.
    pub fn decode(buf: &[u8]) -> Option<CgHeader> {
        let mut r = Reader::new(buf);
        let magic = r.u32()?;
        if magic != CG_MAGIC {
            return None;
        }
        let cgx = r.u32()?;
        let free_blocks = r.u32()?;
        let free_inodes = r.u32()?;
        let bb_len = r.u32()? as usize;
        let block_bitmap = r.take(bb_len)?;
        let ib_len = r.u32()? as usize;
        let inode_bitmap = r.take(ib_len)?;
        Some(CgHeader {
            magic,
            cgx,
            free_blocks,
            free_inodes,
            block_bitmap,
            inode_bitmap,
        })
    }

    /// Whether data block `i` (group-relative) is allocated.
    pub fn block_allocated(&self, i: u32) -> bool {
        self.block_bitmap[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// Marks data block `i` allocated; returns false if it already was.
    pub fn set_block(&mut self, i: u32) -> bool {
        let byte = &mut self.block_bitmap[(i / 8) as usize];
        let bit = 1u8 << (i % 8);
        if *byte & bit != 0 {
            return false;
        }
        *byte |= bit;
        self.free_blocks -= 1;
        true
    }

    /// Marks data block `i` free; returns false if it already was free.
    pub fn clear_block(&mut self, i: u32) -> bool {
        let byte = &mut self.block_bitmap[(i / 8) as usize];
        let bit = 1u8 << (i % 8);
        if *byte & bit == 0 {
            return false;
        }
        *byte &= !bit;
        self.free_blocks += 1;
        true
    }

    /// Whether inode slot `i` is allocated.
    pub fn inode_allocated(&self, i: u32) -> bool {
        self.inode_bitmap[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// Marks inode slot `i` allocated; returns false if it already was.
    pub fn set_inode(&mut self, i: u32) -> bool {
        let byte = &mut self.inode_bitmap[(i / 8) as usize];
        let bit = 1u8 << (i % 8);
        if *byte & bit != 0 {
            return false;
        }
        *byte |= bit;
        self.free_inodes -= 1;
        true
    }

    /// Marks inode slot `i` free; returns false if it already was free.
    pub fn clear_inode(&mut self, i: u32) -> bool {
        let byte = &mut self.inode_bitmap[(i / 8) as usize];
        let bit = 1u8 << (i % 8);
        if *byte & bit == 0 {
            return false;
        }
        *byte &= !bit;
        self.free_inodes += 1;
        true
    }

    /// First free data block at or after `from`, wrapping within the
    /// group's `nbits` valid slots. Picks the same block a bit-by-bit
    /// probe of `block_allocated` would, but skips fully-allocated bytes
    /// whole — on a mostly-full group that is the difference between one
    /// probe per slot and one per eight.
    pub fn first_free_block(&self, from: u32, nbits: u32) -> Option<u32> {
        first_zero_bit(&self.block_bitmap, from, nbits)
            .or_else(|| first_zero_bit(&self.block_bitmap, 0, from))
    }

    /// First free inode slot among the group's `nbits` slots.
    pub fn first_free_inode(&self, nbits: u32) -> Option<u32> {
        first_zero_bit(&self.inode_bitmap, 0, nbits)
    }
}

/// Index of the first zero bit in `[lo, hi)`, byte at a time.
fn first_zero_bit(bitmap: &[u8], lo: u32, hi: u32) -> Option<u32> {
    if lo >= hi {
        return None;
    }
    let first = (lo / 8) as usize;
    let last = ((hi - 1) / 8) as usize;
    for (byte, &bits) in bitmap.iter().enumerate().take(last + 1).skip(first) {
        let mut free = !bits;
        if byte == first {
            free &= 0xFFu8 << (lo % 8);
        }
        let valid = hi - byte as u32 * 8; // Bits of this byte below `hi`.
        if valid < 8 {
            free &= (1u8 << valid) - 1;
        }
        if free != 0 {
            return Some(byte as u32 * 8 + free.trailing_zeros());
        }
    }
    None
}

/// File kind stored in the dinode mode field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Unallocated dinode slot.
    Free,
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link (target stored inline when short).
    Symlink,
}

impl FileKind {
    fn to_u16(self) -> u16 {
        match self {
            FileKind::Free => 0,
            FileKind::Regular => 1,
            FileKind::Directory => 2,
            FileKind::Symlink => 3,
        }
    }

    fn from_u16(v: u16) -> Option<FileKind> {
        Some(match v {
            0 => FileKind::Free,
            1 => FileKind::Regular,
            2 => FileKind::Directory,
            3 => FileKind::Symlink,
            _ => return None,
        })
    }
}

/// The on-disk inode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dinode {
    /// File kind.
    pub kind: FileKind,
    /// Hard link count.
    pub nlink: u16,
    /// File size in bytes.
    pub size: u64,
    /// Data blocks allocated (including indirect blocks), for `du`-style
    /// accounting and fsck cross-checks.
    pub blocks: u32,
    /// Direct block pointers (0 = hole/unallocated).
    pub direct: [u32; NDADDR],
    /// Single-indirect block pointer.
    pub indirect: u32,
    /// Double-indirect block pointer.
    pub double: u32,
    /// Inline file content ("data in the inode" / fast symlink). When
    /// `Some`, the pointer fields are unused and the content lives here.
    pub inline: Option<Vec<u8>>,
}

impl Dinode {
    /// An unallocated slot.
    pub fn free() -> Dinode {
        Dinode {
            kind: FileKind::Free,
            nlink: 0,
            size: 0,
            blocks: 0,
            direct: [0; NDADDR],
            indirect: 0,
            double: 0,
            inline: None,
        }
    }

    /// A fresh empty file/directory/symlink inode.
    pub fn new(kind: FileKind) -> Dinode {
        Dinode {
            kind,
            nlink: 1,
            ..Dinode::free()
        }
    }

    /// Serializes into exactly [`DINODE_SIZE`] bytes.
    pub fn encode(&self) -> [u8; DINODE_SIZE] {
        let mut buf = [0u8; DINODE_SIZE];
        let inline_len = self.inline.as_ref().map(|d| d.len()).unwrap_or(0);
        assert!(inline_len <= INLINE_MAX, "inline data too large");
        {
            let mut w = Writer::new(&mut buf);
            w.u16(self.kind.to_u16());
            w.u16(self.nlink);
            w.u64(self.size);
            w.u32(self.blocks);
            // Flag byte: 1 = pointer area holds inline data.
            w.u8(self.inline.is_some() as u8);
            w.u8(inline_len as u8);
            match &self.inline {
                Some(data) => {
                    w.bytes(data);
                }
                None => {
                    for d in self.direct {
                        w.u32(d);
                    }
                    w.u32(self.indirect);
                    w.u32(self.double);
                }
            }
        }
        buf
    }

    /// Parses [`DINODE_SIZE`] bytes; `None` on a malformed kind.
    pub fn decode(buf: &[u8]) -> Option<Dinode> {
        let mut r = Reader::new(buf);
        let kind = FileKind::from_u16(r.u16()?)?;
        let nlink = r.u16()?;
        let size = r.u64()?;
        let blocks = r.u32()?;
        let has_inline = r.u8()? != 0;
        let inline_len = r.u8()? as usize;
        let mut dinode = Dinode {
            kind,
            nlink,
            size,
            blocks,
            direct: [0; NDADDR],
            indirect: 0,
            double: 0,
            inline: None,
        };
        if has_inline {
            if inline_len > INLINE_MAX {
                return None;
            }
            dinode.inline = Some(r.take(inline_len)?);
        } else {
            for d in dinode.direct.iter_mut() {
                *d = r.u32()?;
            }
            dinode.indirect = r.u32()?;
            dinode.double = r.u32()?;
        }
        Some(dinode)
    }
}

// ---- little-endian packing helpers ----

struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    fn new(buf: &'a mut [u8]) -> Self {
        Writer { buf, pos: 0 }
    }

    fn u8(&mut self, v: u8) {
        self.buf[self.pos] = v;
        self.pos += 1;
    }

    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf[self.pos..self.pos + v.len()].copy_from_slice(v);
        self.pos += v.len();
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take_arr()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take_arr()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take_arr()?))
    }

    fn take_arr<const N: usize>(&mut self) -> Option<[u8; N]> {
        let slice = self.buf.get(self.pos..self.pos + N)?;
        self.pos += N;
        Some(slice.try_into().unwrap())
    }

    fn take(&mut self, n: usize) -> Option<Vec<u8>> {
        let slice = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sb() -> Superblock {
        Superblock {
            magic: SB_MAGIC,
            total_blocks: 2 + 4 * 512,
            blocks_per_cg: 512,
            inodes_per_cg: 128,
            ncg: 4,
            minfree_pct: 10,
            rotdelay_ms: 4,
            maxcontig: 7,
            clean: true,
            free_blocks: 2000,
            free_inodes: 500,
        }
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = sample_sb();
        let buf = sb.encode();
        assert_eq!(Superblock::decode(&buf), Some(sb));
    }

    #[test]
    fn superblock_bad_magic_rejected() {
        let mut buf = sample_sb().encode();
        buf[0] ^= 0xff;
        assert_eq!(Superblock::decode(&buf), None);
    }

    #[test]
    fn superblock_geometry_helpers() {
        let sb = sample_sb();
        // 128 inodes / 64 per block = 2 inode blocks; +1 header = 3 meta.
        assert_eq!(sb.inode_blocks_per_cg(), 2);
        assert_eq!(sb.cg_meta_blocks(), 3);
        assert_eq!(sb.data_blocks_per_cg(), 509);
        assert_eq!(sb.cg_start(0), 2);
        assert_eq!(sb.cg_start(1), 2 + 512);
        assert_eq!(sb.cg_data_start(0), 5);
        assert!(!sb.is_data_block(0));
        assert!(!sb.is_data_block(2)); // cg header
        assert!(!sb.is_data_block(4)); // inode table
        assert!(sb.is_data_block(5));
        assert_eq!(sb.cg_of_block(5), Some(0));
        assert_eq!(sb.cg_of_block(2 + 512), Some(1));
        assert_eq!(sb.total_data_blocks(), 4 * 509);
        assert_eq!(sb.minfree_blocks(), 4 * 509 / 10);
    }

    #[test]
    fn inode_location() {
        let sb = sample_sb();
        // ino 0..63 in block cg_start+1; 64..127 in cg_start+2.
        assert_eq!(sb.inode_location(0), (3, 0));
        assert_eq!(sb.inode_location(63), (3, 63));
        assert_eq!(sb.inode_location(64), (4, 0));
        // Second group.
        assert_eq!(sb.inode_location(128), (2 + 512 + 1, 0));
    }

    #[test]
    fn cg_header_roundtrip_and_bitmaps() {
        let sb = sample_sb();
        let mut cg = CgHeader::empty(&sb, 1);
        assert!(cg.set_block(0));
        assert!(cg.set_block(100));
        assert!(!cg.set_block(100), "double alloc detected");
        assert!(cg.set_inode(5));
        assert_eq!(cg.free_blocks, sb.data_blocks_per_cg() - 2);
        assert_eq!(cg.free_inodes, 127);
        let buf = cg.encode();
        let back = CgHeader::decode(&buf).unwrap();
        assert_eq!(back, cg);
        assert!(back.block_allocated(100));
        assert!(!back.block_allocated(99));
        assert!(back.inode_allocated(5));
    }

    #[test]
    fn cg_clear_tracks_counts() {
        let sb = sample_sb();
        let mut cg = CgHeader::empty(&sb, 0);
        cg.set_block(7);
        assert!(cg.clear_block(7));
        assert!(!cg.clear_block(7), "double free detected");
        assert_eq!(cg.free_blocks, sb.data_blocks_per_cg());
    }

    #[test]
    fn dinode_roundtrip_pointers() {
        let mut d = Dinode::new(FileKind::Regular);
        d.size = 123456;
        d.blocks = 16;
        d.direct[0] = 100;
        d.direct[11] = 111;
        d.indirect = 200;
        d.double = 300;
        let buf = d.encode();
        assert_eq!(Dinode::decode(&buf), Some(d));
    }

    #[test]
    fn dinode_roundtrip_inline() {
        let mut d = Dinode::new(FileKind::Symlink);
        let target = b"/usr/lib/libc.so".to_vec();
        d.size = target.len() as u64;
        d.inline = Some(target);
        let buf = d.encode();
        assert_eq!(Dinode::decode(&buf), Some(d));
    }

    #[test]
    fn dinode_inline_max_fits() {
        let mut d = Dinode::new(FileKind::Regular);
        d.inline = Some(vec![0xab; INLINE_MAX]);
        d.size = INLINE_MAX as u64;
        let buf = d.encode();
        let back = Dinode::decode(&buf).unwrap();
        assert_eq!(back.inline.as_ref().unwrap().len(), INLINE_MAX);
    }

    #[test]
    fn free_dinode_is_all_zero_kind() {
        let d = Dinode::free();
        let buf = d.encode();
        let back = Dinode::decode(&buf).unwrap();
        assert_eq!(back.kind, FileKind::Free);
    }

    #[test]
    fn max_file_size_is_large() {
        // 12 + 2048 + 2048^2 blocks ≈ 32 GB at 8 KB blocks.
        assert!(max_file_blocks() * BLOCK_SIZE as u64 > 30 << 30);
    }
}
