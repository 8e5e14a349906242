//! Host-profile report building for `iobench --perf`.
//!
//! Consumes the wall-clock phase records collected by `simkit::perfmon`
//! during a run and turns them into (a) a machine-readable report (schema
//! `iobench-perf/v2`) naming the top wall-clock sinks, per-worker
//! utilization, and allocation churn per phase, and (b) a compact summary
//! table for stderr.
//!
//! Phase taxonomy (recorded by `iobench::runner`):
//!
//! - `worker.lifetime` — brackets each worker's loop; the denominator for
//!   utilization and coverage.
//! - `runner.pickup`, `run.setup`, `run.drive`, `run.capture` — the
//!   top-level, non-overlapping stages inside a lifetime; their sum over
//!   all workers is the numerator of `coverage`.
//! - `world.build` — nested inside `run.drive` (reported, but excluded
//!   from coverage so nothing is counted twice).
//! - `runner.fanout_wait` / `runner.emit` — main-thread phases, reported
//!   separately (they overlap worker lifetimes by design).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simkit::json;
use simkit::perfmon::{PhaseRecord, MAIN_THREAD};
use simkit::SimDuration;

use crate::experiments::document_head;
use crate::PERF_SCHEMA;

/// Top-level phases whose per-worker sum defines attribution coverage.
/// Everything else is either the container (`worker.lifetime`), nested
/// (`world.build`), or overlapping main-thread work.
const TOP_PHASES: [&str; 4] = ["runner.pickup", "run.setup", "run.drive", "run.capture"];

/// Aggregated view of one phase name across the whole run.
#[derive(Clone, Debug, Default)]
pub struct PhaseAgg {
    pub count: u64,
    pub total_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// One worker's wall-clock accounting.
#[derive(Clone, Debug)]
pub struct WorkerProfile {
    /// Worker index ([`MAIN_THREAD`] never appears here).
    pub worker: u32,
    /// Total `worker.lifetime` time.
    pub lifetime_ns: u64,
    /// Time inside `run.setup` + `run.drive` + `run.capture`.
    pub busy_ns: u64,
    /// Time inside `runner.pickup`.
    pub pickup_ns: u64,
    /// Lifetime not attributed to any top-level phase.
    pub idle_ns: u64,
    /// `busy_ns / lifetime_ns` (0 for an empty lifetime).
    pub utilization: f64,
}

/// The assembled host profile (see module docs).
#[derive(Clone, Debug, Default)]
pub struct HostProfile {
    /// Per-worker accounting, sorted by worker index.
    pub workers: Vec<WorkerProfile>,
    /// Per-phase aggregates, keyed by phase name.
    pub phases: BTreeMap<&'static str, PhaseAgg>,
    /// `run.drive` time per run label, plan-order-independent (sorted by
    /// descending time, then label).
    pub runs: Vec<(String, u64)>,
    /// Fraction of summed worker lifetimes attributed to [`TOP_PHASES`].
    pub coverage: f64,
}

impl HostProfile {
    /// Builds the profile from drained perfmon records.
    pub fn build(records: &[PhaseRecord]) -> HostProfile {
        let mut phases: BTreeMap<&'static str, PhaseAgg> = BTreeMap::new();
        let mut runs: BTreeMap<String, u64> = BTreeMap::new();
        // worker → (lifetime, busy, pickup)
        let mut per_worker: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
        for r in records {
            let agg = phases.entry(r.name).or_default();
            agg.count += 1;
            agg.total_ns += r.duration_ns();
            agg.allocs += r.allocs;
            agg.alloc_bytes += r.alloc_bytes;
            if r.name == "run.drive" {
                if let Some(label) = &r.label {
                    *runs.entry(label.to_string()).or_default() += r.duration_ns();
                }
            }
            if r.worker != MAIN_THREAD {
                let w = per_worker.entry(r.worker).or_default();
                match r.name {
                    "worker.lifetime" => w.0 += r.duration_ns(),
                    "runner.pickup" => w.2 += r.duration_ns(),
                    "run.setup" | "run.drive" | "run.capture" => w.1 += r.duration_ns(),
                    _ => {}
                }
            }
        }
        let workers: Vec<WorkerProfile> = per_worker
            .into_iter()
            .map(
                |(worker, (lifetime_ns, busy_ns, pickup_ns))| WorkerProfile {
                    worker,
                    lifetime_ns,
                    busy_ns,
                    pickup_ns,
                    idle_ns: lifetime_ns.saturating_sub(busy_ns + pickup_ns),
                    utilization: if lifetime_ns == 0 {
                        0.0
                    } else {
                        busy_ns as f64 / lifetime_ns as f64
                    },
                },
            )
            .collect();
        let measured: u64 = workers.iter().map(|w| w.lifetime_ns).sum();
        let attributed: u64 = workers.iter().map(|w| w.busy_ns + w.pickup_ns).sum();
        let mut runs: Vec<(String, u64)> = runs.into_iter().collect();
        runs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        HostProfile {
            workers,
            phases,
            runs,
            coverage: if measured == 0 {
                0.0
            } else {
                attributed as f64 / measured as f64
            },
        }
    }

    /// Phase aggregates sorted by descending total time (name-tiebroken),
    /// the "top wall-clock sinks" ordering.
    pub fn sinks(&self) -> Vec<(&'static str, &PhaseAgg)> {
        let mut v: Vec<_> = self.phases.iter().map(|(n, a)| (*n, a)).collect();
        v.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// Serializes the profile as the `--perf` document (schema
    /// [`PERF_SCHEMA`]). Wall-clock values are inherently
    /// run-to-run variable; this document is diagnostic, not part of the
    /// byte-identity surface.
    pub fn to_json(&self, experiment: &str, jobs: usize) -> String {
        let mut out = document_head(PERF_SCHEMA, experiment);
        let _ = write!(out, ",\"jobs\":{jobs},\"coverage\":");
        json::f64(&mut out, self.coverage);
        out.push_str(",\"workers\":[");
        for w in &self.workers {
            json::sep(&mut out);
            let _ = write!(
                out,
                "{{\"worker\":{},\"lifetime_ns\":{},\"busy_ns\":{},\"pickup_ns\":{},\
                 \"idle_ns\":{},\"utilization\":",
                w.worker, w.lifetime_ns, w.busy_ns, w.pickup_ns, w.idle_ns,
            );
            json::f64(&mut out, w.utilization);
            out.push('}');
        }
        out.push_str("],\"phases\":[");
        for (name, a) in self.sinks() {
            json::open_object(&mut out, "name", name);
            let mean = a.total_ns.checked_div(a.count).unwrap_or(0);
            let _ = write!(
                out,
                ",\"count\":{},\"total_ns\":{},\"mean_ns\":{mean},\
                 \"allocs\":{},\"alloc_bytes\":{}}}",
                a.count, a.total_ns, a.allocs, a.alloc_bytes
            );
        }
        out.push_str("],\"runs\":[");
        for (label, ns) in &self.runs {
            json::open_object(&mut out, "id", label);
            let _ = write!(out, ",\"drive_ns\":{ns}}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the stderr summary: top sinks, per-worker utilization, and
    /// coverage. Kept off stdout so experiment output stays byte-identical
    /// whether or not profiling is on.
    pub fn summary(&self, experiment: &str, jobs: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host profile: {experiment} --jobs {jobs} (coverage {:.1}%)",
            self.coverage * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>6} {:>12} {:>12} {:>12} {:>14}",
            "phase", "count", "total ms", "mean us", "allocs", "alloc KB"
        );
        for (name, a) in self.sinks() {
            let mean_us = if a.count == 0 {
                0.0
            } else {
                a.total_ns as f64 / a.count as f64 / 1e3
            };
            let _ = writeln!(
                out,
                "  {:<18} {:>6} {:>12.2} {:>12.1} {:>12} {:>14.1}",
                name,
                a.count,
                a.total_ns as f64 / 1e6,
                mean_us,
                a.allocs,
                a.alloc_bytes as f64 / 1024.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<8} {:>12} {:>12} {:>12} {:>12}",
            "worker", "lifetime ms", "busy ms", "idle ms", "util %"
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  {:<8} {:>12.2} {:>12.2} {:>12.2} {:>12.1}",
                w.worker,
                w.lifetime_ns as f64 / 1e6,
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6,
                w.utilization * 100.0
            );
        }
        if !self.runs.is_empty() {
            let _ = writeln!(out, "  slowest runs:");
            for (label, ns) in self.runs.iter().take(5) {
                let _ = writeln!(out, "    {:<28} {:>10.2} ms", label, *ns as f64 / 1e6);
            }
        }
        out
    }
}

/// Whether `name` counts toward attribution coverage (exported for the
/// invariant tests).
pub fn is_top_phase(name: &str) -> bool {
    TOP_PHASES.contains(&name)
}

/// Parses the strict `--sample-every` grammar: a positive integer with an
/// optional `us`/`ms`/`s` unit suffix; a bare number means milliseconds
/// of virtual time. Anything else (zero, signs, fractions, unknown units,
/// overflow) is an error string for the CLI to report alongside usage.
pub fn parse_sample_every(s: &str) -> Result<SimDuration, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("us") {
        (d, 1_000u64)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1_000_000)
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "invalid --sample-every {s:?}: expected a positive integer with \
             optional us/ms/s suffix"
        ));
    }
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("invalid --sample-every {s:?}: number out of range"))?;
    if n == 0 {
        return Err(format!(
            "invalid --sample-every {s:?}: interval must be > 0"
        ));
    }
    let ns = n
        .checked_mul(mult)
        .ok_or_else(|| format!("invalid --sample-every {s:?}: number out of range"))?;
    Ok(SimDuration::from_nanos(ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, worker: u32, start: u64, end: u64) -> PhaseRecord {
        PhaseRecord {
            name,
            label: None,
            worker,
            start_ns: start,
            end_ns: end,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn profile_attributes_and_covers() {
        let mut records = vec![
            rec("worker.lifetime", 0, 0, 100),
            rec("runner.pickup", 0, 0, 5),
            rec("run.setup", 0, 5, 15),
            rec("run.drive", 0, 15, 90),
            rec("run.capture", 0, 90, 98),
            rec("world.build", 0, 16, 30), // nested: must not double count
            rec("runner.emit", MAIN_THREAD, 100, 110),
        ];
        records[3].label = Some("fig10/A/FSR".into());
        let p = HostProfile::build(&records);
        assert_eq!(p.workers.len(), 1);
        let w = &p.workers[0];
        assert_eq!(w.lifetime_ns, 100);
        assert_eq!(w.busy_ns, 10 + 75 + 8);
        assert_eq!(w.pickup_ns, 5);
        assert_eq!(w.idle_ns, 100 - 98);
        assert!((p.coverage - 0.98).abs() < 1e-9, "coverage {}", p.coverage);
        assert_eq!(p.runs, vec![("fig10/A/FSR".to_string(), 75)]);
        let json = p.to_json("fig10", 4);
        assert!(json.contains(&format!("\"schema\":\"{PERF_SCHEMA}\"")));
        assert!(json.contains("\"jobs\":4"));
        assert!(json.contains("\"worker\":0"));
        assert!(json.contains("\"id\":\"fig10/A/FSR\",\"drive_ns\":75"));
        // Sinks are sorted by total time: run.drive (75) leads.
        let first = json.find("\"name\":\"run.drive\"").unwrap();
        let second = json.find("\"name\":\"run.setup\"").unwrap();
        assert!(first < second);
        let table = p.summary("fig10", 4);
        assert!(table.contains("run.drive"));
        assert!(table.contains("coverage 98.0%"));
    }

    #[test]
    fn empty_profile_is_well_formed() {
        let p = HostProfile::build(&[]);
        assert_eq!(p.coverage, 0.0);
        let json = p.to_json("none", 1);
        assert!(json.contains("\"workers\":[]"));
    }

    #[test]
    fn sample_every_grammar() {
        assert_eq!(parse_sample_every("10").unwrap().as_nanos(), 10_000_000);
        assert_eq!(parse_sample_every("10ms").unwrap().as_nanos(), 10_000_000);
        assert_eq!(parse_sample_every("250us").unwrap().as_nanos(), 250_000);
        assert_eq!(parse_sample_every("2s").unwrap().as_nanos(), 2_000_000_000);
        for bad in [
            "",
            "0",
            "0ms",
            "-5",
            "1.5ms",
            "5m",
            "ms",
            "1e3",
            " 5",
            "99999999999999999999s",
        ] {
            assert!(parse_sample_every(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn top_phase_classification() {
        assert!(is_top_phase("run.drive"));
        assert!(is_top_phase("runner.pickup"));
        assert!(!is_top_phase("worker.lifetime"));
        assert!(!is_top_phase("world.build"));
    }
}
