//! Seeded inputs and their oracle.
//!
//! Everything the file systems are asked to do is generated here from
//! `--seed`, before the timed window opens: block patterns, random block
//! orders, and the create / write / read-back / truncate / remove mix.
//! Every file byte is a function of (seed, path, block, version), and the
//! expected result of every read is known without asking the program.

use std::collections::BTreeMap;

pub const BLOCK: usize = 8192;

/// SplitMix64 — the benchmark's own generator, so a change to the
/// repository's RNGs cannot move the inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-dependent combination of two words into one key.
pub fn mix(a: u64, b: u64) -> u64 {
    finalize(a.rotate_left(23) ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

pub fn path_key(seed: u64, path: &str) -> u64 {
    path.bytes()
        .fold(mix(seed, path.len() as u64), |k, b| mix(k, b as u64))
}

/// The pattern stream for `key`, eight bytes at a time. Words are never
/// all-zero in practice, which matters: the sparse sector store drops
/// all-zero writes, and a zero block would read back right from a disk
/// that never stored it.
fn words(key: u64) -> impl Iterator<Item = u64> {
    let mut x = key | 1;
    std::iter::repeat_with(move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^ (x >> 29)
    })
}

/// Fills `buf` with the pattern for `key`.
pub fn fill_pattern(buf: &mut [u8], key: u64) {
    let mut w = words(key);
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&w.next().expect("endless").to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = w.next().expect("endless").to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Word-at-a-time content hash (not FNV: a byte-serial hash would cost
/// more host time than the simulated read it checks).
pub fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = 0x1991_0000_0000_0000u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
    finalize(h)
}

/// `k` distinct values of `0..n` in seeded random order (a partial
/// Fisher-Yates shuffle): random block I/O without replacement, so no op
/// revisits a block another op has in flight.
pub fn sample_distinct(rng: &mut Rng, n: u64, k: usize) -> Vec<u64> {
    let k = k.min(n as usize);
    let mut all: Vec<u64> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// Oracle for a file of whole blocks: block `b` holds the pattern for
/// (seed, path, b, version of b), and an update writes the next version.
pub struct BlockFile {
    pub path: String,
    key: u64,
    versions: Vec<u8>,
    /// `--corrupt`: expect one wrong byte in block 0, to prove that a
    /// mismatch is noticed and counted.
    corrupt: bool,
}

impl BlockFile {
    pub fn new(seed: u64, path: &str, blocks: u64, corrupt: bool) -> BlockFile {
        BlockFile {
            path: path.to_string(),
            key: path_key(seed, path),
            versions: vec![0; blocks as usize],
            corrupt,
        }
    }

    pub fn blocks(&self) -> u64 {
        self.versions.len() as u64
    }

    fn block_key(&self, block: u64) -> u64 {
        mix(mix(self.key, block), self.versions[block as usize] as u64)
    }

    /// The bytes block `block` currently holds.
    pub fn fill(&self, block: u64, buf: &mut [u8]) {
        assert_eq!(buf.len(), BLOCK);
        fill_pattern(buf, self.block_key(block));
    }

    /// Moves `block` to its next version and fills `buf` with it — the
    /// payload of an update.
    pub fn fill_update(&mut self, block: u64, buf: &mut [u8]) {
        let v = &mut self.versions[block as usize];
        *v = v.wrapping_add(1);
        self.fill(block, buf);
    }

    /// Whether `got` is what block `block` must hold.
    pub fn matches(&self, block: u64, got: &[u8]) -> bool {
        if got.len() != BLOCK {
            return false;
        }
        let flip = if self.corrupt && block == 0 { 0xff } else { 0 };
        got.chunks_exact(8)
            .zip(words(self.block_key(block)))
            .enumerate()
            .all(|(i, (c, w))| {
                let want = if i == 0 { w ^ flip } else { w };
                c == want.to_le_bytes()
            })
    }
}

/// One step of the small-file mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaOp {
    Create {
        file: u32,
    },
    /// Writes the pattern for `key`, `len` bytes at `off`.
    Write {
        file: u32,
        off: u64,
        len: u32,
        key: u64,
    },
    /// Reopens the file by name and reads its last `len` bytes, from `off`
    /// to EOF, whose content hashes to `hash`.
    ReadBack {
        file: u32,
        off: u64,
        len: u32,
        hash: u64,
    },
    Truncate {
        file: u32,
        size: u64,
    },
    Remove {
        file: u32,
    },
}

pub fn meta_path(file: u32) -> String {
    format!("m{file:05}")
}

pub const META_MAX_WRITE: u64 = 64 << 10;
const META_MAX_SIZE: u64 = 192 << 10;

/// In-memory model of the small-file namespace.
#[derive(Default)]
pub struct MetaOracle {
    files: BTreeMap<u32, Vec<u8>>,
}

impl MetaOracle {
    /// Applies `op`; for a read-back, returns the hash of the range read.
    pub fn apply(&mut self, op: &MetaOp) -> Option<u64> {
        match *op {
            MetaOp::Create { file } => {
                assert!(
                    self.files.insert(file, Vec::new()).is_none(),
                    "create of a live file"
                );
                None
            }
            MetaOp::Write {
                file,
                off,
                len,
                key,
            } => {
                let data = self.files.get_mut(&file).expect("write to a live file");
                let end = off as usize + len as usize;
                if data.len() < end {
                    data.resize(end, 0);
                }
                fill_pattern(&mut data[off as usize..end], key);
                None
            }
            MetaOp::ReadBack { file, off, len, .. } => {
                let data = &self.files[&file];
                Some(hash_bytes(&data[off as usize..off as usize + len as usize]))
            }
            MetaOp::Truncate { file, size } => {
                self.files
                    .get_mut(&file)
                    .expect("truncate of a live file")
                    .resize(size as usize, 0);
                None
            }
            MetaOp::Remove { file } => {
                assert!(self.files.remove(&file).is_some(), "remove of a live file");
                None
            }
        }
    }

    #[cfg(test)]
    pub fn live(&self) -> Vec<u32> {
        self.files.keys().copied().collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Create,
    Write,
    ReadBack,
    Truncate,
    Remove,
}

/// Twenty steps of the mix: 3 creates, 7 writes, 6 read-backs, 2
/// truncates, 2 removes.
const DECK: [Kind; 20] = {
    use Kind::*;
    [
        Create, Write, ReadBack, Write, Truncate, Write, ReadBack, Create, Write, ReadBack, Remove,
        Write, ReadBack, Create, Write, ReadBack, Truncate, Write, ReadBack, Remove,
    ]
};

/// The `k`-th point of a low-discrepancy sequence in `[0, 1)`: evenly
/// spread quantiles, whichever prefix of the sequence is used.
fn quantile(k: usize) -> f64 {
    ((k as f64 + 0.5) * 0.618_033_988_749_894_9).fract()
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Generates `nops` steps over at most `max_files` live files, replaying
/// them against a [`MetaOracle`] as it goes so every read-back carries the
/// hash it must produce.
///
/// Every seed deals from the same deck: the same number of each kind of
/// op, and the same set of sizes (a third of the writes fit an
/// inode-resident file, a third stay within one block, a third span up to
/// eight). The seed decides the order, the files and the offsets. Drawing
/// kinds and sizes independently per op instead made the phase's KB/s
/// swing 5-8% from seed to seed on nothing but the luck of the mix.
pub fn gen_meta_ops(seed: u64, nops: usize, max_files: usize) -> Vec<MetaOp> {
    let mut rng = Rng::new(mix(seed, 0x6d65_7461));
    let mut kinds: Vec<Kind> = DECK.iter().copied().cycle().take(nops).collect();
    let writes = kinds.iter().filter(|&&k| k == Kind::Write).count();
    let mut write_lens: Vec<(u64, u64)> = (0..writes)
        .map(|k| {
            let cap = [512, BLOCK as u64, META_MAX_WRITE][k % 3];
            // Paired with where the write goes: one in ten rewrites the
            // head, three land inside the file, six append.
            (1 + (quantile(k / 3) * cap as f64) as u64, (k % 10) as u64)
        })
        .collect();
    // Read-back lengths and truncate points, as fractions.
    let mut fractions: Vec<f64> = (0..nops - writes).map(quantile).collect();
    shuffle(&mut kinds[1..], &mut rng);
    shuffle(&mut write_lens, &mut rng);
    shuffle(&mut fractions, &mut rng);
    let (mut write_lens, mut fractions) = (write_lens.into_iter(), fractions.into_iter());

    let mut oracle = MetaOracle::default();
    let mut live: Vec<u32> = Vec::new();
    let mut next_file = 0u32;
    let mut ops = Vec::with_capacity(nops);
    for i in 0..nops {
        // A kind that cannot be played now (nothing to remove, nothing to
        // read) trades places with the next one in the deck that can.
        let nonempty: Vec<usize> = (0..live.len())
            .filter(|&s| !oracle.files[&live[s]].is_empty())
            .collect();
        let playable = |k: Kind| match k {
            Kind::Create => live.len() < max_files,
            Kind::ReadBack => !nonempty.is_empty(),
            Kind::Write | Kind::Truncate | Kind::Remove => !live.is_empty(),
        };
        match (i..nops).find(|&j| playable(kinds[j])) {
            Some(j) => kinds.swap(i, j),
            // Only creates are left and the namespace is full: make room.
            None => kinds[i] = Kind::Remove,
        }

        let slot = |rng: &mut Rng, slots: usize| rng.below(slots as u64) as usize;
        let op = match kinds[i] {
            Kind::Create => {
                live.push(next_file);
                next_file += 1;
                MetaOp::Create {
                    file: next_file - 1,
                }
            }
            Kind::Write => {
                let file = live[slot(&mut rng, live.len())];
                let size = oracle.files[&file].len() as u64;
                let (len, place) = write_lens.next().expect("one per write");
                let mut off = match place {
                    0 => 0,
                    1..=3 => rng.below(size + 1),
                    _ => size,
                };
                if off + len > META_MAX_SIZE {
                    off = 0;
                }
                MetaOp::Write {
                    file,
                    off,
                    len: len as u32,
                    key: mix(seed, i as u64),
                }
            }
            Kind::ReadBack => {
                let file = live[nonempty[slot(&mut rng, nonempty.len())]];
                let size = oracle.files[&file].len() as u64;
                // The tail of the file, so the read ends at EOF.
                let fraction = fractions.next().expect("one per op that is not a write");
                let len = (1 + (fraction * META_MAX_WRITE as f64) as u64).min(size);
                MetaOp::ReadBack {
                    file,
                    off: size - len,
                    len: len as u32,
                    hash: 0,
                }
            }
            Kind::Truncate => {
                let file = live[slot(&mut rng, live.len())];
                let size = oracle.files[&file].len() as u64;
                // Shrink only: extentfs does not extend a file on truncate.
                let fraction = fractions.next().expect("one per op that is not a write");
                MetaOp::Truncate {
                    file,
                    size: (fraction * (size + 1) as f64) as u64,
                }
            }
            Kind::Remove => MetaOp::Remove {
                file: live.swap_remove(slot(&mut rng, live.len())),
            },
        };
        let op = match (oracle.apply(&op), op) {
            (Some(hash), MetaOp::ReadBack { file, off, len, .. }) => MetaOp::ReadBack {
                file,
                off,
                len,
                hash,
            },
            (_, op) => op,
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_a_function_of_the_seed() {
        assert_eq!(gen_meta_ops(7, 500, 40), gen_meta_ops(7, 500, 40));
        assert_ne!(gen_meta_ops(7, 500, 40), gen_meta_ops(8, 500, 40));
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        assert_eq!(
            sample_distinct(&mut a, 2048, 1024),
            sample_distinct(&mut b, 2048, 1024)
        );
        assert_ne!(
            sample_distinct(&mut a, 2048, 1024),
            sample_distinct(&mut c, 2048, 1024)
        );
    }

    #[test]
    fn samples_are_distinct_and_in_range() {
        let mut picks = sample_distinct(&mut Rng::new(1), 100, 60);
        assert_eq!(picks.len(), 60);
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks.len(), 60);
        assert!(picks.iter().all(|&p| p < 100));
        assert_eq!(sample_distinct(&mut Rng::new(1), 5, 60).len(), 5);
    }

    #[test]
    fn meta_mix_covers_every_op_and_respects_limits() {
        let ops = gen_meta_ops(0x1991, 2000, 400);
        assert_eq!(ops.len(), 2000);
        let count = |f: fn(&MetaOp) -> bool| ops.iter().filter(|o| f(o)).count();
        assert!(count(|o| matches!(o, MetaOp::Create { .. })) > 100);
        assert!(count(|o| matches!(o, MetaOp::Write { .. })) > 400);
        assert!(count(|o| matches!(o, MetaOp::ReadBack { .. })) > 300);
        assert!(count(|o| matches!(o, MetaOp::Truncate { .. })) > 50);
        assert!(count(|o| matches!(o, MetaOp::Remove { .. })) > 50);
        let mut oracle = MetaOracle::default();
        for op in &ops {
            if let MetaOp::Write { len, off, .. } = op {
                assert!(*len as u64 <= META_MAX_WRITE && off + *len as u64 <= META_MAX_SIZE);
            }
            oracle.apply(op);
            assert!(oracle.live().len() <= 400);
        }
    }

    #[test]
    fn every_seed_deals_the_same_deck() {
        let tally = |seed| {
            let ops = gen_meta_ops(seed, 2000, 400);
            let mut lens: Vec<u32> = Vec::new();
            let mut kinds = [0usize; 5];
            for op in &ops {
                match op {
                    MetaOp::Create { .. } => kinds[0] += 1,
                    MetaOp::Write { len, .. } => {
                        kinds[1] += 1;
                        lens.push(*len);
                    }
                    MetaOp::ReadBack { .. } => kinds[2] += 1,
                    MetaOp::Truncate { .. } => kinds[3] += 1,
                    MetaOp::Remove { .. } => kinds[4] += 1,
                }
            }
            lens.sort_unstable();
            (kinds, lens)
        };
        let (kinds, lens) = tally(1);
        assert_eq!(kinds, [300, 700, 600, 200, 200]);
        for seed in 2..6 {
            assert_eq!(tally(seed), (kinds, lens.clone()), "seed {seed}");
        }
    }

    #[test]
    fn replayed_op_list_reproduces_every_expected_hash() {
        // An independent replay (plain byte vectors, no generator state)
        // must arrive at the hashes the generator wrote into the ops.
        let ops = gen_meta_ops(42, 1500, 60);
        let mut files: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut checked = 0;
        for op in &ops {
            match *op {
                MetaOp::Create { file } => {
                    files.insert(file, Vec::new());
                }
                MetaOp::Write {
                    file,
                    off,
                    len,
                    key,
                } => {
                    let mut data = vec![0u8; len as usize];
                    fill_pattern(&mut data, key);
                    let f = files.get_mut(&file).unwrap();
                    let end = off as usize + data.len();
                    if f.len() < end {
                        f.resize(end, 0);
                    }
                    f[off as usize..end].copy_from_slice(&data);
                }
                MetaOp::ReadBack {
                    file,
                    off,
                    len,
                    hash,
                } => {
                    let f = &files[&file];
                    assert_eq!(
                        hash_bytes(&f[off as usize..(off + len as u64) as usize]),
                        hash
                    );
                    checked += 1;
                }
                MetaOp::Truncate { file, size } => {
                    files.get_mut(&file).unwrap().resize(size as usize, 0)
                }
                MetaOp::Remove { file } => {
                    files.remove(&file).unwrap();
                }
            }
        }
        assert!(checked > 200);
    }

    #[test]
    fn block_oracle_tracks_versions_and_notices_one_wrong_byte() {
        let mut f = BlockFile::new(9, "a.dat", 4, false);
        let mut buf = vec![0u8; BLOCK];
        f.fill(2, &mut buf);
        assert!(f.matches(2, &buf));
        assert!(!f.matches(1, &buf), "blocks differ");
        assert!(
            !BlockFile::new(9, "b.dat", 4, false).matches(2, &buf),
            "paths differ"
        );
        assert!(
            !BlockFile::new(10, "a.dat", 4, false).matches(2, &buf),
            "seeds differ"
        );
        let old = buf.clone();
        f.fill_update(2, &mut buf);
        assert!(
            f.matches(2, &buf) && !f.matches(2, &old),
            "an update is a new version"
        );
        buf[BLOCK - 1] ^= 1;
        assert!(!f.matches(2, &buf));
        // The deliberately corrupted expectation rejects correct data.
        let c = BlockFile::new(9, "a.dat", 4, true);
        c.fill(0, &mut buf);
        assert!(!c.matches(0, &buf));
        c.fill(1, &mut buf);
        assert!(c.matches(1, &buf));
        assert!(buf.iter().any(|&b| b != 0));
    }
}
