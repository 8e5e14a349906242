//! The paper's motivating application: "Applications such as video and
//! sound require much higher data rates than are available today through
//! UFS."
//!
//! A player must consume frames at a fixed rate; every time the file system
//! cannot deliver the next frame by its deadline, the stream stutters.
//! This example plays the same "video" off the old (SunOS 4.1) and new
//! (4.1.1 clustered) file systems and counts dropped frames.
//!
//! ```text
//! cargo run --release --example video_stream
//! ```

use clufs::Tuning;
use iobench::{paper_world, WorldOptions};
use simkit::{Sim, SimDuration};
use vfs::{AccessMode, FileSystem, Vnode};

/// One video: ~34 seconds at ~10.5 frames/s, 90 KB per frame (≈950 KB/s —
/// above the old UFS's ~880 KB/s sequential ceiling, comfortably inside
/// the clustered ~1.6 MB/s).
const FRAMES: usize = 360;
const FRAME_BYTES: usize = 90 * 1024;
const FRAME_PERIOD_MS: u64 = 95;
/// Frames buffered before playback starts (every real player does this).
const WARMUP_FRAMES: usize = 12;

fn play(label: &str, tuning: Tuning) {
    let sim = Sim::new();
    let s = sim.clone();
    let (dropped, rebuffer) = sim.run_until(async move {
        let world = paper_world(&s, tuning, WorldOptions::default())
            .await
            .expect("world");
        // Lay the movie down on disk, then flush the cache: playback must
        // stream from the platters.
        let movie = world.fs.create("movie.vid").await.expect("create");
        let frame: Vec<u8> = (0..FRAME_BYTES).map(|i| (i % 250) as u8).collect();
        for i in 0..FRAMES {
            movie
                .write((i * FRAME_BYTES) as u64, &frame, AccessMode::Copy)
                .await
                .expect("write");
        }
        movie.fsync().await.expect("fsync");
        world.invalidate(&movie);

        // Play like a real player: the reader runs up to WARMUP_FRAMES
        // ahead of the display clock (a jitter buffer); frame i is due on
        // screen at start + (i + WARMUP_FRAMES) * period. A frame whose
        // read completes after its display time is dropped.
        let mut dropped = 0usize;
        let mut worst = SimDuration::ZERO;
        let period = SimDuration::from_millis(FRAME_PERIOD_MS);
        let start = s.now();
        for i in 0..FRAMES {
            // Cap the read lead: do not fetch frame i before its slot.
            let fetch_at = start + period * i as u64;
            if s.now() < fetch_at {
                s.sleep(fetch_at.duration_since(s.now())).await;
            }
            let data = movie
                .read((i * FRAME_BYTES) as u64, FRAME_BYTES, AccessMode::Copy)
                .await
                .expect("read");
            assert_eq!(data.len(), FRAME_BYTES);
            let display = start + period * (i + WARMUP_FRAMES) as u64;
            let now = s.now();
            if now > display {
                dropped += 1;
                let late = now.duration_since(display);
                if late > worst {
                    worst = late;
                }
            }
        }
        (dropped, worst)
    });
    println!("{label:30} dropped {dropped:3}/{FRAMES} frames, worst lateness {rebuffer}");
}

fn main() {
    println!(
        "streaming {} KB/s of video from disk ({} KB frames @ {} ms):\n",
        FRAME_BYTES as u64 * 1000 / FRAME_PERIOD_MS / 1024,
        FRAME_BYTES / 1024,
        FRAME_PERIOD_MS
    );
    play("SunOS 4.1 (block at a time)", Tuning::config_d());
    play("SunOS 4.1.1 (120KB clusters)", Tuning::config_a());
}
