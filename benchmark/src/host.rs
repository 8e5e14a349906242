//! Host-side readings, all from `/proc/self` (no `unsafe`, no extra crates).
//!
//! - on-CPU time: first field of `/proc/self/schedstat`, nanoseconds the
//!   main thread has run. It advances at scheduler-tick granularity (4 ms
//!   on this guest), so it times whole reps; shorter intervals are timed
//!   with `Instant` and scaled by the rep's on-CPU / wall ratio.
//! - minor faults: field 10 of `/proc/self/stat`.
//! - peak RSS: `VmHWM` in `/proc/self/status`, reset by writing `5` to
//!   `/proc/self/clear_refs`.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Nanoseconds this process's main thread has spent on a CPU.
pub fn on_cpu_ns() -> u64 {
    read("/proc/self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat: first field is on-CPU ns")
}

/// Minor page faults taken so far.
pub fn minor_faults() -> u64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after the
    // closing parenthesis, where field 3 (state) comes first.
    let rest = &stat[stat.rfind(')').expect("stat: comm field") + 1..];
    rest.split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("stat: field 10 is minflt")
}

/// Peak resident set size since the last [`reset_peak_rss`], in KB.
pub fn peak_rss_kb() -> u64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status: VmHWM line")
}

/// Resets `VmHWM` to the current RSS.
pub fn reset_peak_rss() {
    fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM through clear_refs");
}

/// Touches and releases `mb` megabytes, so the pages the rep is about to
/// fault in are already backed by the host (a first touch of an unbacked
/// guest page costs ~25 us here, a backed one ~1.5 us, and the difference
/// was the whole run-to-run spread). Returns the wall seconds it took.
pub fn pretouch(mb: usize) -> f64 {
    let t = Instant::now();
    let mut arena = vec![0u8; mb << 20];
    for i in (0..arena.len()).step_by(4096) {
        arena[i] = 1;
    }
    black_box(&arena);
    drop(arena);
    t.elapsed().as_secs_f64()
}

/// What one [`yardstick`] took on this host, in its median state, at the
/// seed commit. Host times are reported as if the host always ran at this
/// speed.
pub const YARDSTICK_REF_S: f64 = 0.048;

/// How fast the host ran, against the reference, between two yardsticks
/// that took `before` and `after` seconds: the factor that brings a host
/// time measured between them to reference speed.
pub fn speed(before: f64, after: f64) -> f64 {
    2.0 * YARDSTICK_REF_S / (before + after)
}

/// A fixed piece of work with the simulator's own mix of host costs —
/// first-touch page faults, 8 KB block copies through a working set larger
/// than the caches, and small-object bookkeeping in a map — timed by
/// `Instant`. Returns the seconds it took.
///
/// This host's speed drifts by 10-20% over minutes and from process to
/// process, for memory-bound work above all. Run right before and after a
/// rep, the yardstick drifts with it (correlation 0.77 per rep, 0.9 per
/// run), so dividing by it takes most of the drift out: over runs of 18
/// reps the spread of the median fell from 8-13% to 3-5%.
pub fn yardstick() -> f64 {
    use std::collections::BTreeMap;
    // Above glibc's largest dynamic mmap threshold (32 MB): freeing a
    // smaller mapping would raise the threshold for the rest of the
    // process, and the rep would run under another malloc than a fresh
    // process gets (seq_write took 9% fewer page faults that way).
    const WORKING_SET: usize = 33 << 20;
    const BLOCK: usize = 8192;
    let t = Instant::now();
    // Fresh memory: every page of both buffers faults in.
    let mut src = vec![0u8; WORKING_SET];
    let mut dst = vec![0u8; WORKING_SET];
    let mut h = 0x1991u64;
    for (i, (s, d)) in src
        .chunks_exact_mut(BLOCK)
        .zip(dst.chunks_exact_mut(BLOCK))
        .enumerate()
    {
        s[i % BLOCK] = h as u8;
        d.copy_from_slice(s);
        h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(d[BLOCK - 1 - i % BLOCK]);
    }
    // Warm memory, out of order: cache and TLB misses, no faults.
    let blocks = WORKING_SET / BLOCK;
    for i in 0..2 * blocks {
        let (a, b) = ((i * 7919) % blocks * BLOCK, (i * 104_729) % blocks * BLOCK);
        dst[a..a + BLOCK].copy_from_slice(&src[b..b + BLOCK]);
    }
    // Small allocations and ordered-map churn, as the executor, the
    // registries and the extent trees do.
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    for i in 0..60_000u64 {
        h = (h ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
        map.insert(h % 4096, Box::new([h; 4]));
        if let Some(v) = map.get(&(h >> 32 & 4095)) {
            h ^= v[1];
        }
    }
    black_box((&dst, &map, h));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_takes_a_plausible_time() {
        let s = yardstick();
        assert!(
            s > YARDSTICK_REF_S / 20.0 && s < YARDSTICK_REF_S * 50.0,
            "{s} s"
        );
    }

    #[test]
    fn proc_readers_parse() {
        let cpu = on_cpu_ns();
        let flt = minor_faults();
        assert!(peak_rss_kb() > 0);
        assert!(pretouch(8) > 0.0);
        assert!(minor_faults() > flt, "pretouch faults pages in");
        assert!(on_cpu_ns() >= cpu);
    }
}
