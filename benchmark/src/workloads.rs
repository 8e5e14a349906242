//! The four workloads. Each is a closed loop: one simulated process (four
//! in `raid_streams`) issues its next call when the previous one returns.
//!
//! A *cell* is one machine configuration; a *run* is one cell driven once
//! in a fresh `Sim`; a *rep* replays the workload's cell list `passes`
//! times in one child process.

use std::collections::BTreeMap;
use std::rc::Rc;

use simkit::{Cpu, Sim, SimDuration};
use vfs::{AccessMode, FileSystem, Vnode};

use crate::gen::{
    fill_pattern, gen_meta_ops, hash_bytes, meta_path, mix, sample_distinct, BlockFile, MetaOp,
    Rng, BLOCK,
};
use crate::probe::{OpKind, PhaseClass, Rep, Run};
use crate::world::{build_ext, build_ufs, Cell, FinalCheck, Machine};

const BLOCK64: u64 = BLOCK as u64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SeqRead,
    SeqWrite,
    SmallOps,
    RaidStreams,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SeqRead,
        Workload::SeqWrite,
        Workload::SmallOps,
        Workload::RaidStreams,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqRead => "seq_read",
            Workload::SeqWrite => "seq_write",
            Workload::SmallOps => "small_ops",
            Workload::RaidStreams => "raid_streams",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn cells(self) -> &'static [Cell] {
        match self {
            Workload::SeqRead => &[Cell::UfsA, Cell::UfsD, Cell::Ext, Cell::UfsAMapped],
            Workload::SeqWrite | Workload::SmallOps => &[Cell::UfsA, Cell::UfsD, Cell::Ext],
            Workload::RaidStreams => &[Cell::UfsARaid5, Cell::ExtRaid0],
        }
    }

    /// The Figure 10 kinds whose A/D ratio the workload reproduces; empty
    /// where the paper has no reference (the model is then unvalidated).
    pub fn paper_kinds(self) -> &'static [&'static str] {
        match self {
            Workload::SeqRead => &["FSR"],
            Workload::SeqWrite => &["FSW", "FSU"],
            Workload::SmallOps => &["FRR", "FRU"],
            Workload::RaidStreams => &[],
        }
    }
}

/// Input sizes. Full scale is the paper's (16 MB files against a 6 MB
/// cache); smoke scale is for `--check` and finishes in well under a second.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Blocks in each sequential / random-access file (16 MB).
    pub file_blocks: u64,
    /// Random reads and random updates, each.
    pub rand_ops: usize,
    /// Blocks in the file that fits the cache (2 MB).
    pub hit_blocks: u64,
    pub meta_ops: usize,
    pub meta_files: usize,
    /// Blocks in the strided reader's file (64 MB).
    pub stride_blocks: u64,
    pub full: bool,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            file_blocks: 2048,
            rand_ops: 1024,
            hit_blocks: 256,
            meta_ops: 2000,
            meta_files: 400,
            stride_blocks: 8192,
            full: true,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            file_blocks: 160,
            rand_ops: 48,
            hit_blocks: 32,
            meta_ops: 150,
            meta_files: 24,
            stride_blocks: 640,
            full: false,
        }
    }

    /// How many times a rep replays the workload's cell list, fixed so a
    /// full-scale rep costs 0.5-0.8 s on-CPU at the seed commit.
    pub fn passes(&self, workload: Workload) -> u32 {
        if !self.full {
            return 1;
        }
        match workload {
            Workload::SeqRead => 4,
            Workload::SeqWrite => 4,
            Workload::SmallOps => 3,
            Workload::RaidStreams => 1,
        }
    }
}

/// Strided reader: a 32 KB record at every 256 KB.
const RECORD_BLOCKS: u64 = 4;
const STRIDE_BLOCKS: u64 = 32;

/// Everything generated from the seed before the timed window opens.
pub struct Inputs {
    pub seed: u64,
    pub scale: Scale,
    pub corrupt: bool,
    /// `small_ops`: blocks of the random reads and of the random updates.
    rand_reads: Vec<u64>,
    rand_updates: Vec<u64>,
    meta: Vec<MetaOp>,
    /// `raid_streams`: virtual ns each stream waits before its first call.
    /// (Where the strided reader's records start is *not* seeded: their
    /// alignment with extents and stripes moves extentfs' throughput by
    /// 13%, which is a finding about the fixed predictor, not noise to
    /// average over.)
    stagger_ns: [u64; 4],
}

pub fn generate(workload: Workload, seed: u64, scale: Scale, corrupt: bool) -> Inputs {
    let mut inputs = Inputs {
        seed,
        scale,
        corrupt,
        rand_reads: Vec::new(),
        rand_updates: Vec::new(),
        meta: Vec::new(),
        stagger_ns: [0; 4],
    };
    match workload {
        Workload::SeqRead | Workload::SeqWrite => {}
        Workload::SmallOps => {
            let mut rng = Rng::new(mix(seed, 0x7261_6e64));
            inputs.rand_reads = sample_distinct(&mut rng, scale.file_blocks, scale.rand_ops);
            inputs.rand_updates = sample_distinct(&mut rng, scale.file_blocks, scale.rand_ops);
            inputs.meta = gen_meta_ops(seed, scale.meta_ops, scale.meta_files);
        }
        Workload::RaidStreams => {
            let mut rng = Rng::new(mix(seed, 0x7261_6964));
            // Streams arrive within 50 ms of each other, in seeded order.
            inputs.stagger_ns = std::array::from_fn(|_| rng.below(50_000_000));
        }
    }
    inputs
}

impl Inputs {
    fn block_file(&self, path: &str, blocks: u64) -> BlockFile {
        BlockFile::new(self.seed, path, blocks, self.corrupt)
    }
}

/// What [`run_rep`] hands back per finished run, for the registry harvest.
pub struct FinishedRun {
    pub sim: Sim,
    pub cpu: Cpu,
    pub cell: Cell,
}

/// Drives one rep: every pass, every cell, each in a fresh `Sim`.
/// `after_run` sees each finished run before its world is dropped.
pub fn run_rep(
    workload: Workload,
    inputs: &Rc<Inputs>,
    rep: &Rep,
    mut after_run: impl FnMut(FinishedRun) -> Result<(), String>,
) -> Result<(), String> {
    for _ in 0..inputs.scale.passes(workload) {
        for &cell in workload.cells() {
            let sim = Sim::new();
            let run = Run::start(rep, cell.label(), &sim);
            let build = run.phase(PhaseClass::Build, "", None);
            let cpu = if cell.is_ufs() {
                let m = build_ufs(&sim, cell);
                build.finish(&run, 0);
                let cpu = m.cpu.clone();
                sim.run_until(drive(workload, run.clone(), m, cell, Rc::clone(inputs)));
                cpu
            } else {
                // Room for the small-file mix plus the block files.
                let m = build_ext(&sim, cell, inputs.scale.meta_files as u32 + 16);
                build.finish(&run, 0);
                let cpu = m.cpu.clone();
                sim.run_until(drive(workload, run.clone(), m, cell, Rc::clone(inputs)));
                cpu
            };
            run.finish();
            after_run(FinishedRun { sim, cpu, cell })?;
        }
    }
    Ok(())
}

async fn drive<F>(workload: Workload, run: Run, m: Machine<F>, cell: Cell, inputs: Rc<Inputs>)
where
    F: FinalCheck + 'static,
    F::File: 'static,
{
    match workload {
        Workload::SeqRead => seq_read(&run, &m, cell, &inputs).await,
        Workload::SeqWrite => seq_write(&run, &m, &inputs).await,
        Workload::SmallOps => small_ops(&run, &m, &inputs).await,
        Workload::RaidStreams => raid_streams(&run, &m, &inputs).await,
    }
    let verify = run.phase(PhaseClass::Verify, "", None);
    let deep = workload == Workload::SmallOps;
    run.final_check(m.fs.is_consistent(&m.disk, deep).await);
    verify.finish(&run, 0);
}

// ---- calls shared by the workloads -------------------------------------

/// Writes `blocks`, one 8 KB call each, with the bytes `payload` puts in
/// the buffer for them; returns the bytes accepted.
async fn write_blocks<V: Vnode>(
    run: &Run,
    file: &V,
    blocks: impl IntoIterator<Item = u64>,
    mut payload: impl FnMut(u64, &mut [u8]),
) -> u64 {
    let mut buf = vec![0u8; BLOCK];
    let mut bytes = 0;
    for b in blocks {
        payload(b, &mut buf);
        let res = run.op(
            OpKind::Write,
            file.write(b * BLOCK64, &buf, AccessMode::Copy),
        );
        if res.await.is_some() {
            run.moved(BLOCK64);
            bytes += BLOCK64;
        }
    }
    bytes
}

/// Writes every block of `oracle` in order, as it currently stands.
async fn write_all<V: Vnode>(run: &Run, file: &V, oracle: &BlockFile) -> u64 {
    write_blocks(run, file, 0..oracle.blocks(), |b, buf| oracle.fill(b, buf)).await
}

/// Overwrites `blocks` with their next version.
async fn update<V: Vnode>(
    run: &Run,
    file: &V,
    oracle: &mut BlockFile,
    blocks: impl IntoIterator<Item = u64>,
) -> u64 {
    write_blocks(run, file, blocks, |b, buf| oracle.fill_update(b, buf)).await
}

/// Reads `blocks` one 8 KB call each and compares every one with the
/// oracle; returns the bytes that were right.
async fn read_blocks<V: Vnode>(
    run: &Run,
    file: &V,
    oracle: &BlockFile,
    blocks: impl IntoIterator<Item = u64>,
    mode: AccessMode,
) -> u64 {
    let mut buf = vec![0u8; BLOCK];
    let mut bytes = 0;
    for b in blocks {
        let res = run.op(OpKind::Read, file.read_into(b * BLOCK64, &mut buf, mode));
        if let Some(n) = res.await {
            run.moved(n as u64);
            if n == BLOCK && oracle.matches(b, &buf) {
                bytes += BLOCK64;
            } else {
                run.wrong_bytes();
            }
        }
    }
    bytes
}

async fn fsync<V: Vnode>(run: &Run, file: &V) {
    run.op(OpKind::Fsync, file.fsync()).await;
}

/// Creates `oracle`'s file, lays it down and drops it from the cache: the
/// unmeasured preparation of every read phase, which then starts cold.
async fn lay_down<F: FileSystem>(run: &Run, m: &Machine<F>, oracle: &BlockFile) -> Option<F::File> {
    let file = run.op(OpKind::Meta, m.fs.create(&oracle.path)).await?;
    write_all(run, &file, oracle).await;
    fsync(run, &file).await;
    m.invalidate(&file);
    Some(file)
}

// ---- seq_read ------------------------------------------------------------

/// The paper's FSR: 8 KB sequential reads of a 16 MB file through a 6 MB
/// cache that starts invalidated.
async fn seq_read<F: FileSystem>(run: &Run, m: &Machine<F>, cell: Cell, inputs: &Inputs) {
    let oracle = inputs.block_file("seq.dat", inputs.scale.file_blocks);
    let prep = run.phase(PhaseClass::Prep, "", None);
    let file = lay_down(run, m, &oracle).await;
    prep.finish(run, 0);
    let Some(file) = file else { return };

    let measure = run.phase(PhaseClass::Measure, "FSR", Some(&m.cpu));
    let bytes = read_blocks(run, &file, &oracle, 0..oracle.blocks(), cell.mode()).await;
    measure.finish(run, bytes);
}

// ---- seq_write -----------------------------------------------------------

/// FSW then FSU of one file: fresh allocation, then update in place, each
/// with its `fsync` inside the measured phase.
async fn seq_write<F: FileSystem>(run: &Run, m: &Machine<F>, inputs: &Inputs) {
    let mut oracle = inputs.block_file("seq.dat", inputs.scale.file_blocks);
    let prep = run.phase(PhaseClass::Prep, "", None);
    let file = run.op(OpKind::Meta, m.fs.create(&oracle.path)).await;
    prep.finish(run, 0);
    let Some(file) = file else { return };

    let measure = run.phase(PhaseClass::Measure, "FSW", Some(&m.cpu));
    let bytes = write_all(run, &file, &oracle).await;
    fsync(run, &file).await;
    measure.finish(run, bytes);

    let measure = run.phase(PhaseClass::Measure, "FSU", Some(&m.cpu));
    let all = 0..oracle.blocks();
    let bytes = update(run, &file, &mut oracle, all.clone()).await;
    fsync(run, &file).await;
    measure.finish(run, bytes);

    // Read everything back from the disk, not from the cache.
    let verify = run.phase(PhaseClass::Verify, "", None);
    m.invalidate(&file);
    read_blocks(run, &file, &oracle, all, AccessMode::Copy).await;
    verify.finish(run, 0);
}

// ---- small_ops -----------------------------------------------------------

/// Random block I/O, a cache-resident file, and a small-file mix: many
/// events per byte, clustering and prefetch bypassed.
async fn small_ops<F: FileSystem>(run: &Run, m: &Machine<F>, inputs: &Inputs) {
    let scale = inputs.scale;
    let mut big = inputs.block_file("rand.dat", scale.file_blocks);
    let prep = run.phase(PhaseClass::Prep, "", None);
    let file = lay_down(run, m, &big).await;
    prep.finish(run, 0);
    let Some(file) = file else { return };

    let measure = run.phase(PhaseClass::Measure, "FRR", Some(&m.cpu));
    let reads = inputs.rand_reads.iter().copied();
    let bytes = read_blocks(run, &file, &big, reads, AccessMode::Copy).await;
    measure.finish(run, bytes);

    let measure = run.phase(PhaseClass::Measure, "FRU", Some(&m.cpu));
    let updates = inputs.rand_updates.iter().copied();
    let bytes = update(run, &file, &mut big, updates).await;
    fsync(run, &file).await;
    measure.finish(run, bytes);

    // A file a third the size of the cache, read twice: the first pass
    // fills the cache, the second is the hit path.
    let small = inputs.block_file("hit.dat", scale.hit_blocks);
    let prep = run.phase(PhaseClass::Prep, "", None);
    let hit = lay_down(run, m, &small).await;
    prep.finish(run, 0);
    let Some(hit) = hit else { return };
    let measure = run.phase(PhaseClass::Measure, "hit", Some(&m.cpu));
    let mut bytes = 0;
    for _ in 0..2 {
        bytes += read_blocks(run, &hit, &small, 0..small.blocks(), AccessMode::Copy).await;
    }
    measure.finish(run, bytes);

    let measure = run.phase(PhaseClass::Measure, "meta", Some(&m.cpu));
    let bytes = meta_mix(run, &m.fs, &inputs.meta).await;
    measure.finish(run, bytes);
}

/// Replays the generated create / write / read-back / truncate / remove
/// list. A read-back reopens the file by name and reads its tail, so it
/// ends at EOF and leaves no read-ahead in flight for a following truncate
/// or remove to trip over. Returns the user bytes moved correctly.
async fn meta_mix<F: FileSystem>(run: &Run, fs: &F, ops: &[MetaOp]) -> u64 {
    let mut open: BTreeMap<u32, F::File> = BTreeMap::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut bytes = 0;
    for op in ops {
        match *op {
            MetaOp::Create { file } => {
                if let Some(f) = run.op(OpKind::Meta, fs.create(&meta_path(file))).await {
                    open.insert(file, f);
                }
            }
            MetaOp::Write {
                file,
                off,
                len,
                key,
            } => {
                let Some(f) = open.get(&file) else { continue };
                buf.resize(len as usize, 0);
                fill_pattern(&mut buf, key);
                let res = run.op(OpKind::Write, f.write(off, &buf, AccessMode::Copy));
                if res.await.is_some() {
                    run.moved(len as u64);
                    bytes += len as u64;
                }
            }
            MetaOp::ReadBack {
                file,
                off,
                len,
                hash,
            } => {
                let Some(f) = run.op(OpKind::Meta, fs.open(&meta_path(file))).await else {
                    continue;
                };
                buf.resize(len as usize, 0);
                let res = run.op(OpKind::Read, f.read_into(off, &mut buf, AccessMode::Copy));
                if let Some(n) = res.await {
                    run.moved(n as u64);
                    if n == len as usize && hash_bytes(&buf) == hash {
                        bytes += n as u64;
                    } else {
                        run.wrong_bytes();
                    }
                }
            }
            MetaOp::Truncate { file, size } => {
                let Some(f) = open.get(&file) else { continue };
                run.op(OpKind::Meta, f.truncate(size)).await;
            }
            MetaOp::Remove { file } => {
                open.remove(&file);
                run.op(OpKind::Meta, fs.remove(&meta_path(file))).await;
            }
        }
    }
    // Flush the survivors one by one, in name order. `FileSystem::sync`
    // would do it in `HashMap` order (both file systems keep their open
    // files in one), which differs from process to process and with it
    // every virtual time after; with nothing left dirty the order is moot.
    for f in open.values() {
        fsync(run, f).await;
    }
    bytes
}

// ---- raid_streams --------------------------------------------------------

/// One reading stream: its file, what the file holds, the blocks it reads.
struct Reader<V> {
    file: Rc<V>,
    oracle: Rc<BlockFile>,
    blocks: Vec<u64>,
}

/// Four concurrent streams on an array: two sequential readers, a strided
/// reader and a sequential writer; on the RAID-5 cell the readers then run
/// again with a spindle failed.
async fn raid_streams<F>(run: &Run, m: &Machine<F>, inputs: &Inputs)
where
    F: FileSystem,
    F::File: 'static,
{
    let scale = inputs.scale;
    let sequential = |path| {
        let oracle = inputs.block_file(path, scale.file_blocks);
        let blocks = (0..oracle.blocks()).collect();
        (oracle, blocks)
    };
    let strided = {
        let oracle = inputs.block_file("stride.dat", scale.stride_blocks);
        let records = (0..scale.stride_blocks)
            .step_by(STRIDE_BLOCKS as usize)
            .filter(|r| r + RECORD_BLOCKS <= scale.stride_blocks)
            .flat_map(|r| r..r + RECORD_BLOCKS)
            .collect();
        (oracle, records)
    };
    let written = Rc::new(inputs.block_file("w.dat", scale.file_blocks));

    let prep = run.phase(PhaseClass::Prep, "", None);
    let mut readers = Vec::new();
    for (oracle, blocks) in [sequential("r0.dat"), sequential("r1.dat"), strided] {
        let Some(file) = lay_down(run, m, &oracle).await else {
            prep.finish(run, 0);
            return;
        };
        readers.push(Reader {
            file: Rc::new(file),
            oracle: Rc::new(oracle),
            blocks,
        });
    }
    let wfile = run.op(OpKind::Meta, m.fs.create(&written.path)).await;
    prep.finish(run, 0);
    let Some(wfile) = wfile.map(Rc::new) else {
        return;
    };

    let spawn_readers = |stagger: bool| -> Vec<simkit::JoinHandle<u64>> {
        readers
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let (run, f, oracle, blocks) = (
                    run.clone(),
                    Rc::clone(&r.file),
                    Rc::clone(&r.oracle),
                    r.blocks.clone(),
                );
                let delay = if stagger { inputs.stagger_ns[i] } else { 0 };
                run.sim().clone().spawn(async move {
                    run.sim().sleep(SimDuration::from_nanos(delay)).await;
                    read_blocks(&run, &*f, &oracle, blocks, AccessMode::Copy).await
                })
            })
            .collect()
    };

    let measure = run.phase(PhaseClass::Measure, "healthy", Some(&m.cpu));
    let mut streams = spawn_readers(true);
    streams.push({
        let (run, f, oracle) = (run.clone(), Rc::clone(&wfile), Rc::clone(&written));
        let delay = inputs.stagger_ns[3];
        run.sim().clone().spawn(async move {
            run.sim().sleep(SimDuration::from_nanos(delay)).await;
            let bytes = write_all(&run, &*f, &oracle).await;
            fsync(&run, &*f).await;
            bytes
        })
    });
    let mut bytes = 0;
    for s in streams {
        bytes += s.await;
    }
    measure.finish(run, bytes);

    // Speculative reads may still be in flight; a busy page cannot be
    // invalidated, so let them land before going cold again.
    let prep = run.phase(PhaseClass::Prep, "", None);
    run.sim().sleep(SimDuration::from_secs(5)).await;
    if let Some(volume) = &m.volume {
        volume.fail_spindle(1);
    }
    for r in &readers {
        m.invalidate(&r.file);
    }
    m.invalidate(&wfile);
    prep.finish(run, 0);

    if m.volume.is_some() {
        let measure = run.phase(PhaseClass::Measure, "degraded", Some(&m.cpu));
        let mut bytes = 0;
        for s in spawn_readers(false) {
            bytes += s.await;
        }
        measure.finish(run, bytes);
    }

    // The writer's file comes back from the array (through parity
    // reconstruction on the degraded cell).
    let verify = run.phase(PhaseClass::Verify, "", None);
    let all = 0..written.blocks();
    read_blocks(run, &*wfile, &written, all, AccessMode::Copy).await;
    verify.finish(run, 0);
}
