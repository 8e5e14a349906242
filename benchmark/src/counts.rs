//! Per-layer counts and virtual time, read from each run's registry
//! (`sim.stats()`) in the count rep and summed over the rep's runs.
//!
//! A name the program is expected to register and does not is an error,
//! never a silent 0: a renamed counter must fail the benchmark, not flatten
//! a metric. Only counters the program creates on first use (retries,
//! errors, degraded reads) may be absent, and then they are 0.

use std::collections::BTreeMap;

use simkit::Sim;

use crate::world::Cell;

/// "Does not apply to this workload" (no run has the layer): volume
/// metrics without a volume. All real values are non-negative.
pub const NOT_APPLICABLE: f64 = -1.0;

/// What the harness knows about a finished run, beside its registry.
pub struct RunFacts<'a> {
    pub sim: &'a Sim,
    pub cell: Cell,
    /// Virtual CPU time charged in the run (`Cpu::busy()`).
    pub cpu_busy_ns: u64,
    /// User bytes the benchmark moved through vnode calls in the run.
    pub user_bytes: u64,
    /// Calls the benchmark issued in the run.
    pub ops: u64,
}

#[derive(Default)]
pub struct LayerCounts {
    sums: BTreeMap<&'static str, f64>,
}

struct Registry<'a> {
    sim: &'a Sim,
    values: BTreeMap<String, f64>,
}

impl Registry<'_> {
    fn required(&self, name: &str) -> Result<f64, String> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| format!("registry has no metric named {name}"))
    }

    /// A counter the program registers on first increment.
    fn on_first_use(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn prefix_sum(&self, prefix: &str) -> f64 {
        self.values
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// (observations, sum) over every histogram whose name starts with
    /// `prefix` — the per-stream `iopath.*{stream=N}` families.
    fn histogram_family(&self, prefix: &str) -> (f64, f64) {
        self.values
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, _)| self.sim.stats().histogram_totals(k))
            .fold((0.0, 0.0), |(n, s), (count, sum)| {
                (n + count as f64, s + sum as f64)
            })
    }
}

impl LayerCounts {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Adds the run's value of each named registry metric to the sum kept
    /// under the same name.
    fn add_required(&mut self, reg: &Registry, names: &[&'static str]) -> Result<(), String> {
        for &name in names {
            self.add(name, reg.required(name)?);
        }
        Ok(())
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Folds one finished run in. Also returns the run's registry as JSON,
    /// for the digest.
    pub fn add_run(&mut self, run: &RunFacts) -> Result<String, String> {
        let mut values = BTreeMap::new();
        run.sim.stats().for_each_numeric(|name, v| {
            values.insert(name.to_string(), v);
        });
        let reg = Registry {
            sim: run.sim,
            values,
        };

        self.add("runs", 1.0);
        self.add("ops", run.ops as f64);
        self.add("user_bytes", run.user_bytes as f64);
        self.add("polls", run.sim.polls() as f64);
        self.add("spawned", run.sim.spawned() as f64);

        self.add_required(
            &reg,
            &[
                "disk.reads",
                "disk.writes",
                "disk.sectors_read",
                "disk.sectors_written",
                "disk.busy_ns",
                "disk.seek_time_ns",
                "disk.rot_wait_ns",
                "disk.transfer_time_ns",
                "disk.queue_wait_ns",
                "disk.trackbuf_hits",
                "disk.trackbuf_misses",
                "disk.requests_coalesced",
                "cache.hits",
                "cache.misses",
                "cache.creates",
                "cache.reclaims",
                "cache.alloc_stalls",
                "cache.alloc_stall_ns",
                "pageout.scanned",
                "pageout.freed",
                "io.prefetch_issued",
                "io.prefetch_hits",
                "io.prefetch_wasted_bytes",
            ],
        )?;
        self.add("io.retries", reg.on_first_use("io.retries"));
        self.add("io.errors", reg.prefix_sum("io.errors{"));
        let (n, blocks) = reg.histogram_family("iopath.cluster_read_blocks{");
        self.add("iopath.read_clusters", n);
        self.add("iopath.read_blocks", blocks);
        let (n, blocks) = reg.histogram_family("iopath.cluster_write_blocks{");
        self.add("iopath.write_clusters", n);
        self.add("iopath.write_blocks", blocks);

        if run.cell.has_write_limit() {
            self.add_required(&reg, &["core.throttle_stalls", "core.throttle_stall_ns"])?;
        }

        if run.cell.is_ufs() {
            self.add_required(
                &reg,
                &[
                    "ufs.bmap_calls",
                    "ufs.blocks_read",
                    "ufs.blocks_written",
                    "ufs.getpage_calls",
                    "ufs.cluster_writes",
                    "ufs.free_behind_pages",
                    "ufs.sync_reads",
                ],
            )?;
            self.add("ufs.cpu_ns", run.cpu_busy_ns as f64);
        } else {
            // Gauges over the live files at the end of the run; averaged
            // over the rep's extentfs runs.
            self.add("ext.runs", 1.0);
            self.add_required(
                &reg,
                &[
                    "extentfs.extents_per_file",
                    "extentfs.mean_extent_blocks",
                    "extentfs.inline_files",
                    "extentfs.short_extents",
                ],
            )?;
        }

        if run.cell.volume().is_some() {
            let busy = run
                .sim
                .stats()
                .labelled_counter_values("disk.busy_ns", "spindle");
            if busy.is_empty() {
                return Err("registry has no disk.busy_ns{spindle=K} series".to_string());
            }
            let max = busy.iter().map(|&(_, v)| v).max().unwrap_or(0) as f64;
            let mean = busy.iter().map(|&(_, v)| v as f64).sum::<f64>() / busy.len() as f64;
            self.add("vol.runs", 1.0);
            self.add("vol.busy_imbalance", max / mean);
            self.add(
                "vol.member_bytes",
                512.0
                    * (reg.required("disk.sectors_read")?
                        + reg.required("disk.sectors_written")?),
            );
            self.add("vol.user_bytes", run.user_bytes as f64);
            self.add("vol.degraded_reads", reg.on_first_use("vol.degraded_reads"));
        }
        Ok(run.sim.stats().to_json())
    }

    /// The count-and-virtual-time per-layer metrics, by published name.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let g = |k| self.get(k);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let secs = |k| self.get(k) / 1e9;
        let requests = g("disk.reads") + g("disk.writes");
        let sectors = g("disk.sectors_read") + g("disk.sectors_written");
        let lookups = g("cache.hits") + g("cache.misses");
        let volume = |v: f64| {
            if g("vol.runs") > 0.0 {
                v
            } else {
                NOT_APPLICABLE
            }
        };
        BTreeMap::from([
            ("simkit.polls", g("polls")),
            ("simkit.tasks_spawned", g("spawned")),
            ("simkit.polls_per_op", ratio(g("polls"), g("ops"))),
            ("diskmodel.requests", requests),
            ("diskmodel.kb_per_request", ratio(sectors / 2.0, requests)),
            ("diskmodel.busy_s", secs("disk.busy_ns")),
            ("diskmodel.seek_s", secs("disk.seek_time_ns")),
            ("diskmodel.rot_wait_s", secs("disk.rot_wait_ns")),
            ("diskmodel.transfer_s", secs("disk.transfer_time_ns")),
            ("diskmodel.queue_wait_s", secs("disk.queue_wait_ns")),
            (
                "diskmodel.trackbuf_hit_ratio",
                ratio(
                    g("disk.trackbuf_hits"),
                    g("disk.trackbuf_hits") + g("disk.trackbuf_misses"),
                ),
            ),
            ("diskmodel.coalesced", g("disk.requests_coalesced")),
            (
                "volmgr.io_amplification",
                volume(ratio(g("vol.member_bytes"), g("vol.user_bytes"))),
            ),
            (
                "volmgr.spindle_busy_imbalance",
                volume(ratio(g("vol.busy_imbalance"), g("vol.runs"))),
            ),
            ("volmgr.degraded_reads", volume(g("vol.degraded_reads"))),
            ("pagecache.hit_ratio", ratio(g("cache.hits"), lookups)),
            ("pagecache.creates", g("cache.creates")),
            ("pagecache.reclaims", g("cache.reclaims")),
            ("pagecache.alloc_stalls", g("cache.alloc_stalls")),
            ("pagecache.alloc_stall_s", secs("cache.alloc_stall_ns")),
            ("pagecache.pageout_scanned", g("pageout.scanned")),
            ("pagecache.pageout_freed", g("pageout.freed")),
            ("vfs.prefetch_issued", g("io.prefetch_issued")),
            (
                "vfs.prefetch_hit_ratio",
                ratio(g("io.prefetch_hits"), g("io.prefetch_issued")),
            ),
            (
                "vfs.prefetch_wasted_kb",
                g("io.prefetch_wasted_bytes") / 1024.0,
            ),
            (
                "vfs.cluster_read_blocks_mean",
                ratio(g("iopath.read_blocks"), g("iopath.read_clusters")),
            ),
            (
                "vfs.cluster_write_blocks_mean",
                ratio(g("iopath.write_blocks"), g("iopath.write_clusters")),
            ),
            ("vfs.retries", g("io.retries")),
            ("vfs.errors", g("io.errors")),
            ("clufs.throttle_stalls", g("core.throttle_stalls")),
            ("clufs.throttle_stall_s", secs("core.throttle_stall_ns")),
            (
                "ufs.bmap_calls_per_block",
                ratio(
                    g("ufs.bmap_calls"),
                    g("ufs.blocks_read") + g("ufs.blocks_written"),
                ),
            ),
            ("ufs.getpage_calls", g("ufs.getpage_calls")),
            ("ufs.cluster_writes", g("ufs.cluster_writes")),
            ("ufs.free_behind_pages", g("ufs.free_behind_pages")),
            ("ufs.sync_reads", g("ufs.sync_reads")),
            ("ufs.cpu_s", secs("ufs.cpu_ns")),
            (
                "extentfs.extents_per_file",
                ratio(g("extentfs.extents_per_file"), g("ext.runs")),
            ),
            (
                "extentfs.mean_extent_blocks",
                ratio(g("extentfs.mean_extent_blocks"), g("ext.runs")),
            ),
            ("extentfs.short_extents", g("extentfs.short_extents")),
            (
                "extentfs.inline_files",
                ratio(g("extentfs.inline_files"), g("ext.runs")),
            ),
        ])
    }
}
