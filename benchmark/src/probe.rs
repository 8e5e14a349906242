//! What a rep records while it drives the program: virtual-time op
//! latencies, measured-phase throughput and CPU, failures, host time per
//! phase class, and (traced reps only) a span per benchmark-issued call.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use simkit::{Cpu, Sim};
use vfs::FsResult;

use crate::span::{SpanId, SpanLog, NO_SPAN};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    Read,
    Write,
    Fsync,
    /// create / open / truncate / remove: namespace and allocation work
    /// that moves no user bytes. Counted and spanned, but not part of the
    /// read/write/fsync latency distribution.
    Meta,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Read, OpKind::Write, OpKind::Fsync, OpKind::Meta];

    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Read => "op.read",
            OpKind::Write => "op.write",
            OpKind::Fsync => "op.fsync",
            OpKind::Meta => "op.meta",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseClass {
    Build,
    Prep,
    Measure,
    Verify,
}

impl PhaseClass {
    fn span_name(self) -> &'static str {
        match self {
            PhaseClass::Build => "world.build",
            PhaseClass::Prep => "prep",
            PhaseClass::Measure => "measure",
            PhaseClass::Verify => "verify",
        }
    }
}

/// One measured phase of one run: the unit of throughput and CPU cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseResult {
    pub cell: &'static str,
    /// `FSR`, `FSW`, `FSU`, `FRR`, `FRU`, `hit`, `meta`, `healthy`, `degraded`.
    pub kind: &'static str,
    pub bytes: u64,
    pub virt_ns: u64,
    pub cpu_ns: u64,
}

impl PhaseResult {
    pub fn kb_per_s(&self) -> f64 {
        self.bytes as f64 / 1024.0 / (self.virt_ns as f64 / 1e9)
    }
}

/// Running 64-bit digest of every virtual-time output of a rep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(31);
    }

    pub fn str(&mut self, s: &str) {
        self.u64(crate::gen::hash_bytes(s.as_bytes()));
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Wall nanoseconds (by `Instant`) spent in each phase class. The rep's
/// on-CPU total comes from `/proc/self/schedstat`, which only ticks every
/// few ms; these finer intervals are scaled by the rep's on-CPU / wall
/// ratio when they are reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTimes {
    pub build_ns: u64,
    pub prep_ns: u64,
    pub measure_ns: u64,
}

#[derive(Default)]
pub struct RepState {
    /// Virtual ns of each read / write / fsync issued in a measured phase.
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Ops issued by kind, indexed as [`OpKind::ALL`], all phases.
    pub ops: [u64; 4],
    /// User bytes through `read_into` / `write`, all phases.
    pub moved_bytes: u64,
    pub phases: Vec<PhaseResult>,
    pub host: HostTimes,
    pub digest: Digest,
    pub spans: Option<SpanLog>,
    pub runs: u32,
}

pub type Rep = Rc<RefCell<RepState>>;

pub fn new_rep(traced: bool) -> Rep {
    Rc::new(RefCell::new(RepState {
        spans: traced.then(SpanLog::default),
        ..RepState::default()
    }))
}

struct RunInner {
    rep: Rep,
    id: u32,
    cell: &'static str,
    sim: Sim,
    run_span: SpanId,
    /// The open phase, if any: its span and whether ops in it are measured.
    phase: Cell<Option<(SpanId, bool)>>,
}

/// Handle to one simulated run; clones share it (stream tasks each hold one).
#[derive(Clone)]
pub struct Run(Rc<RunInner>);

/// An open phase; [`Phase::finish`] closes it.
pub struct Phase {
    class: PhaseClass,
    kind: &'static str,
    span: SpanId,
    host: Instant,
    virt0: u64,
    cpu0: Option<(Cpu, u64)>,
}

impl Run {
    pub fn start(rep: &Rep, cell: &'static str, sim: &Sim) -> Run {
        let mut st = rep.borrow_mut();
        let id = st.runs;
        st.runs += 1;
        let virt = sim.now().as_nanos();
        let run_span = match &mut st.spans {
            Some(log) => log.open("run", id, NO_SPAN, virt),
            None => NO_SPAN,
        };
        drop(st);
        Run(Rc::new(RunInner {
            rep: Rc::clone(rep),
            id,
            cell,
            sim: sim.clone(),
            run_span,
            phase: Cell::new(None),
        }))
    }

    pub fn sim(&self) -> &Sim {
        &self.0.sim
    }

    fn virt_now(&self) -> u64 {
        self.0.sim.now().as_nanos()
    }

    fn open_span(&self, name: &'static str, parent: SpanId) -> SpanId {
        match &mut self.0.rep.borrow_mut().spans {
            Some(log) => log.open(name, self.0.id, parent, self.virt_now()),
            None => NO_SPAN,
        }
    }

    fn close_span(&self, span: SpanId) {
        if let Some(log) = &mut self.0.rep.borrow_mut().spans {
            log.close(span, self.virt_now());
        }
    }

    /// Opens a phase. `cpu` is given for measured phases, whose CPU charge
    /// is part of the result.
    pub fn phase(&self, class: PhaseClass, kind: &'static str, cpu: Option<&Cpu>) -> Phase {
        assert!(self.0.phase.get().is_none(), "phases do not nest");
        let span = self.open_span(class.span_name(), self.0.run_span);
        self.0.phase.set(Some((span, class == PhaseClass::Measure)));
        Phase {
            class,
            kind,
            span,
            host: Instant::now(),
            virt0: self.virt_now(),
            cpu0: cpu.map(|c| (c.clone(), c.busy().as_nanos())),
        }
    }

    /// Closes the run's span after its last phase.
    pub fn finish(self) {
        assert!(self.0.phase.get().is_none(), "run finished inside a phase");
        self.close_span(self.0.run_span);
    }

    /// Issues one call into the program and accounts for it. `Err` counts
    /// as a failed op and yields `None`.
    pub async fn op<T>(&self, kind: OpKind, fut: impl Future<Output = FsResult<T>>) -> Option<T> {
        let (phase_span, measured) = self.0.phase.get().expect("op outside any phase");
        let v0 = self.virt_now();
        let span = self.open_span(kind.span_name(), phase_span);
        let res = fut.await;
        self.close_span(span);
        let mut st = self.0.rep.borrow_mut();
        st.attempted += 1;
        st.ops[kind as usize] += 1;
        if measured && kind != OpKind::Meta {
            st.lat_ns.push(self.virt_now() - v0);
        }
        match res {
            Ok(v) => Some(v),
            Err(_) => {
                st.failed += 1;
                None
            }
        }
    }

    /// Counts user bytes moved by a read or write that succeeded.
    pub fn moved(&self, bytes: u64) {
        self.0.rep.borrow_mut().moved_bytes += bytes;
    }

    /// An op that returned `Ok` but delivered the wrong bytes.
    pub fn wrong_bytes(&self) {
        self.0.rep.borrow_mut().failed += 1;
    }

    /// The end-of-run consistency check, counted as one more op.
    pub fn final_check(&self, clean: bool) {
        let mut st = self.0.rep.borrow_mut();
        st.attempted += 1;
        st.failed += u64::from(!clean);
    }
}

impl Phase {
    /// Closes the phase; a measured phase reports the user bytes it moved.
    pub fn finish(self, run: &Run, bytes: u64) {
        run.close_span(self.span);
        run.0.phase.set(None);
        let host_ns = self.host.elapsed().as_nanos() as u64;
        let virt_ns = run.virt_now() - self.virt0;
        let mut st = run.0.rep.borrow_mut();
        match self.class {
            PhaseClass::Build => st.host.build_ns += host_ns,
            PhaseClass::Prep => st.host.prep_ns += host_ns,
            PhaseClass::Measure => st.host.measure_ns += host_ns,
            PhaseClass::Verify => {}
        }
        if self.class == PhaseClass::Measure {
            let (cpu, busy0) = self.cpu0.expect("measured phases take the CPU");
            let r = PhaseResult {
                cell: run.0.cell,
                kind: self.kind,
                bytes,
                virt_ns,
                cpu_ns: cpu.busy().as_nanos() - busy0,
            };
            st.digest.str(r.cell);
            st.digest.str(r.kind);
            st.digest.u64(r.bytes);
            st.digest.u64(r.virt_ns);
            st.digest.u64(r.cpu_ns);
            st.phases.push(r);
        }
    }
}
