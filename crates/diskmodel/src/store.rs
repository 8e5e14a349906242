//! Sparse byte storage behind the simulated platters.
//!
//! The disk stores *real data* so the file system above it round-trips
//! metadata and file contents for real (and `fsck` can check genuinely
//! written state). Storage is sparse: untouched regions read back as zeros
//! without occupying host memory.

use std::collections::HashMap;

const CHUNK_SECTORS: u64 = 128; // 64 KB chunks at 512 B sectors.

/// Yields one chunk-aligned run per chunk touched by `[lba, lba + nsect)`:
/// `(chunk_idx, byte offset within the chunk, byte offset within the
/// transfer, run length in bytes)`. Lets `read_into`/`write` do one hash
/// lookup and one `copy_from_slice` per chunk instead of one per sector.
fn chunk_runs(
    lba: u64,
    nsect: u32,
    sector_size: usize,
) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let end = lba + nsect as u64;
    let mut sector = lba;
    std::iter::from_fn(move || {
        if sector >= end {
            return None;
        }
        let chunk_idx = sector / CHUNK_SECTORS;
        let chunk_end = (chunk_idx + 1) * CHUNK_SECTORS;
        let stop = end.min(chunk_end);
        let run = (stop - sector) as usize * sector_size;
        let within = (sector % CHUNK_SECTORS) as usize * sector_size;
        let xfer = (sector - lba) as usize * sector_size;
        sector = stop;
        Some((chunk_idx, within, xfer, run))
    })
}

/// Word-at-a-time zero check: benchmark writes are predominantly zero
/// payloads over absent chunks, so this runs over nearly every written
/// byte and a per-byte loop would dominate the submit path.
fn is_all_zero(data: &[u8]) -> bool {
    let (head, words, tail) = unsafe { data.align_to::<u64>() };
    head.iter().all(|&b| b == 0) && words.iter().all(|&w| w == 0) && tail.iter().all(|&b| b == 0)
}

/// Sparse sector-addressed storage.
pub struct SectorStore {
    sector_size: usize,
    total_sectors: u64,
    chunks: HashMap<u64, Vec<u8>>,
}

impl SectorStore {
    /// Creates a zero-filled store of `total_sectors` sectors.
    pub fn new(sector_size: u32, total_sectors: u64) -> Self {
        SectorStore {
            sector_size: sector_size as usize,
            total_sectors,
            chunks: HashMap::new(),
        }
    }

    /// Bytes per sector.
    pub fn sector_size(&self) -> usize {
        self.sector_size
    }

    /// Total capacity in sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Number of materialized (written-to) chunks, for memory accounting.
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Clips `nsect` so `[lba, lba + nsect)` stays within capacity. Out of
    /// range is an upstream bug (devices validate at submit): the debug
    /// build trips the assertion, the release build clamps — unreachable
    /// sectors read as zeros and writes beyond the end are dropped —
    /// instead of corrupting memory or dying.
    fn clip_range(&self, lba: u64, nsect: u32) -> u32 {
        debug_assert!(
            lba + nsect as u64 <= self.total_sectors,
            "sector range {lba}+{nsect} beyond capacity {}",
            self.total_sectors
        );
        self.total_sectors.saturating_sub(lba).min(nsect as u64) as u32
    }

    /// Reads `nsect` sectors starting at `lba` into a fresh buffer.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the range exceeds the device capacity;
    /// release builds return zeros for the out-of-range tail.
    pub fn read(&self, lba: u64, nsect: u32) -> Vec<u8> {
        let mut out = vec![0u8; nsect as usize * self.sector_size];
        self.read_into(lba, nsect, &mut out);
        out
    }

    /// Reads `nsect` sectors starting at `lba` into `out` (exactly `nsect`
    /// sectors long). Every byte of `out` is overwritten — sectors never
    /// written read as zeros — so a recycled buffer cannot leak what it
    /// held before.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the range exceeds capacity or `out` has the
    /// wrong length; release builds fill what `out` can hold and zero the
    /// out-of-range tail.
    pub fn read_into(&self, lba: u64, nsect: u32, out: &mut [u8]) {
        let mut clipped = self.clip_range(lba, nsect);
        debug_assert_eq!(
            out.len(),
            nsect as usize * self.sector_size,
            "read buffer length mismatch"
        );
        clipped = clipped.min((out.len() / self.sector_size) as u32);
        for (chunk_idx, within, xfer, run) in chunk_runs(lba, clipped, self.sector_size) {
            let dst = &mut out[xfer..xfer + run];
            match self.chunks.get(&chunk_idx) {
                Some(chunk) => dst.copy_from_slice(&chunk[within..within + run]),
                None => dst.fill(0),
            }
        }
        out[clipped as usize * self.sector_size..].fill(0);
    }

    /// Writes `data` (must be exactly `nsect` sectors) starting at `lba`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the range exceeds capacity or `data` has the
    /// wrong length; release builds clip to the sectors actually covered.
    pub fn write(&mut self, lba: u64, nsect: u32, data: &[u8]) {
        let mut clipped = self.clip_range(lba, nsect);
        debug_assert_eq!(
            data.len(),
            nsect as usize * self.sector_size,
            "write data length mismatch"
        );
        // A short payload covers fewer sectors than claimed: write what is
        // actually there rather than reading past the slice.
        clipped = clipped.min((data.len() / self.sector_size) as u32);
        let sector_size = self.sector_size;
        for (chunk_idx, within, xfer, run) in chunk_runs(lba, clipped, sector_size) {
            let src = &data[xfer..xfer + run];
            // Writing zeros over an absent chunk is a no-op: absent chunks
            // already read back as zeros, and not materializing them keeps
            // host memory proportional to *distinct* data written, not to
            // partition size (benchmark workloads write zero payloads).
            if let Some(chunk) = self.chunks.get_mut(&chunk_idx) {
                chunk[within..within + run].copy_from_slice(src);
            } else if !is_all_zero(src) {
                let chunk = self
                    .chunks
                    .entry(chunk_idx)
                    .or_insert_with(|| vec![0u8; CHUNK_SECTORS as usize * sector_size]);
                chunk[within..within + run].copy_from_slice(src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let s = SectorStore::new(512, 100);
        let data = s.read(10, 4);
        assert_eq!(data.len(), 4 * 512);
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(s.resident_chunks(), 0, "reads do not materialize chunks");
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = SectorStore::new(512, 1000);
        let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
        s.write(42, 3, &data);
        assert_eq!(s.read(42, 3), data);
        // Partial overlap.
        assert_eq!(s.read(43, 1), data[512..1024].to_vec());
    }

    #[test]
    fn write_crossing_chunk_boundary() {
        let mut s = SectorStore::new(512, 1000);
        let data: Vec<u8> = (0..4 * 512).map(|i| (i % 17) as u8).collect();
        s.write(126, 4, &data); // Chunk size is 128 sectors.
        assert_eq!(s.read(126, 4), data);
        assert_eq!(s.resident_chunks(), 2);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SectorStore::new(512, 100);
        s.write(5, 1, &[1u8; 512]);
        s.write(5, 1, &[2u8; 512]);
        assert_eq!(s.read(5, 1), vec![2u8; 512]);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn read_past_end_panics() {
        let s = SectorStore::new(512, 10);
        s.read(8, 4);
    }

    #[test]
    fn read_into_overwrites_a_recycled_buffer() {
        let mut s = SectorStore::new(512, 1000);
        s.write(127, 1, &[7u8; 512]); // Last sector of chunk 0; chunk 1 absent.
        let mut buf = vec![0xAAu8; 3 * 512];
        s.read_into(126, 3, &mut buf);
        assert_eq!(buf, s.read(126, 3));
        assert!(buf[..512].iter().all(|&b| b == 0), "unwritten, same chunk");
        assert!(buf[512..1024].iter().all(|&b| b == 7));
        assert!(buf[1024..].iter().all(|&b| b == 0), "absent chunk");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn short_write_panics() {
        let mut s = SectorStore::new(512, 10);
        s.write(0, 2, &[0u8; 512]);
    }
}
