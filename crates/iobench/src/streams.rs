//! Multi-stream fairness workload.
//!
//! N concurrent sequential streams — alternating writers and readers —
//! share one mount. Every open file carries its own [`vfs::StreamId`], so
//! the labelled registry metrics (`disk.sectors_*{stream=N}`,
//! `core.throttle_stalls{stream=N}`, `iopath.cluster_*_blocks{stream=N}`)
//! attribute the disk's bandwidth, the throttle's stalls and the achieved
//! cluster sizes to each competing stream. This is the measurement behind
//! the paper's fairness argument: the per-file write limit is what keeps
//! one fat writer from starving everyone else.

use simkit::SimDuration;
use vfs::{AccessMode, FileSystem, FsResult, Vnode, World};

/// What one stream does during the measured phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamRole {
    /// Sequential writer into a fresh (empty) file, then fsync.
    Writer,
    /// Sequential reader of a prepared, cache-cold file.
    Reader,
}

impl StreamRole {
    /// Streams alternate writer/reader, starting with a writer.
    pub fn of(index: u32) -> StreamRole {
        if index.is_multiple_of(2) {
            StreamRole::Writer
        } else {
            StreamRole::Reader
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            StreamRole::Writer => "writer",
            StreamRole::Reader => "reader",
        }
    }
}

/// Workload sizing.
#[derive(Clone, Copy, Debug)]
pub struct StreamsOptions {
    /// Number of concurrent streams.
    pub streams: u32,
    /// Bytes each stream moves.
    pub file_bytes: u64,
    /// Per-call transfer size.
    pub io_bytes: usize,
}

impl Default for StreamsOptions {
    fn default() -> Self {
        StreamsOptions {
            streams: 4,
            file_bytes: 8 << 20,
            io_bytes: 8192,
        }
    }
}

/// One stream's measured outcome.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The file the stream worked on.
    pub name: String,
    /// The stream label its requests carried (`…{stream=N}`).
    pub stream: u32,
    /// Writer or reader.
    pub role: StreamRole,
    /// Bytes moved during the measured phase.
    pub bytes: u64,
    /// Virtual time the stream's phase took.
    pub elapsed: SimDuration,
}

impl StreamRun {
    /// The stream's individual transfer rate.
    pub fn kb_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / 1024.0 / self.elapsed.as_secs_f64()
    }
}

/// Runs `opts.streams` concurrent streams on the machine `w` and returns
/// each stream's outcome, in stream-index order.
///
/// Preparation (creating every file up front — which fixes the stream-id
/// assignment order — and seeding + cache-invalidating the readers' files)
/// is excluded from the measurement.
pub async fn run_streams<F>(w: &World<F>, opts: StreamsOptions) -> FsResult<Vec<StreamRun>>
where
    F: FileSystem,
    F::File: 'static,
{
    let (sim, fs) = (&w.sim, &w.fs);
    let payload: Vec<u8> = (0..opts.io_bytes).map(|i| (i % 251) as u8).collect();
    let nio = (opts.file_bytes / opts.io_bytes as u64) as usize;

    // ---- preparation (unmeasured) ----
    let mut files = Vec::new();
    for i in 0..opts.streams {
        let name = format!("stream{i}.dat");
        let role = StreamRole::of(i);
        let f = fs.create(&name).await?;
        if role == StreamRole::Reader {
            for b in 0..nio {
                f.write(b as u64 * opts.io_bytes as u64, &payload, AccessMode::Copy)
                    .await?;
            }
            f.fsync().await?;
            w.invalidate(&f);
        }
        files.push((name, role, f));
    }

    // ---- measured phase: all streams at once ----
    let mut handles = Vec::new();
    for (name, role, f) in files {
        let s = sim.clone();
        let payload = payload.clone();
        let io_bytes = opts.io_bytes;
        handles.push(sim.spawn(async move {
            let t0 = s.now();
            let bytes = match role {
                StreamRole::Writer => {
                    for b in 0..nio {
                        f.write(b as u64 * io_bytes as u64, &payload, AccessMode::Copy)
                            .await
                            .expect("stream write");
                    }
                    f.fsync().await.expect("stream fsync");
                    nio as u64 * io_bytes as u64
                }
                StreamRole::Reader => {
                    let mut buf = vec![0u8; io_bytes];
                    let mut total = 0u64;
                    for b in 0..nio {
                        total += f
                            .read_into(b as u64 * io_bytes as u64, &mut buf, AccessMode::Copy)
                            .await
                            .expect("stream read") as u64;
                    }
                    total
                }
            };
            StreamRun {
                name,
                stream: f.stream().as_u32(),
                role,
                bytes,
                elapsed: s.now().duration_since(t0),
            }
        }));
    }
    let mut out = Vec::new();
    for h in handles {
        out.push(h.await);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{paper_world, Config, WorldOptions};
    use simkit::Sim;

    #[test]
    fn streams_interleave_and_tag() {
        let sim = Sim::new();
        let s = sim.clone();
        let runs = sim.run_until(async move {
            let opts = WorldOptions {
                full_scale: false,
                ..WorldOptions::default()
            };
            let w = paper_world(&s, Config::A.tuning(), opts).await.unwrap();
            run_streams(
                &w,
                StreamsOptions {
                    streams: 4,
                    file_bytes: 512 * 1024,
                    io_bytes: 8192,
                },
            )
            .await
            .unwrap()
        });
        assert_eq!(runs.len(), 4);
        // Every stream moved its bytes and carries a distinct non-zero id.
        let mut ids: Vec<u32> = runs.iter().map(|r| r.stream).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "stream ids must be distinct: {runs:?}");
        assert!(ids.iter().all(|&i| i > 0), "0 is the untagged stream");
        for r in &runs {
            assert_eq!(r.bytes, 512 * 1024, "{}", r.name);
            assert!(r.kb_per_sec() > 0.0);
        }
        assert_eq!(runs[0].role, StreamRole::Writer);
        assert_eq!(runs[1].role, StreamRole::Reader);
        // The disk saw tagged traffic for both roles.
        let st = sim.stats();
        assert!(st.stream_counter_sum("disk.sectors_read") > 0);
        assert!(st.stream_counter_sum("disk.sectors_written") > 0);
    }
}
