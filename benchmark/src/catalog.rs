//! Every published name in one place: metrics with unit, direction and
//! bounds, and workloads with the reason they exist. `BENCHMARK.json` is
//! generated from here (`twoclock benchmark-json`), and a test keeps the
//! committed file in step.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// How `compare` judges two values of a metric taken with the *same*
/// seed. (With different seeds nothing is exact and every metric falls
/// back to its driver bound.)
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Rule {
    /// A function of the configuration: must be equal.
    Exact,
    /// May worsen by this share of the base value.
    Share(f64),
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rule: Rule,
    /// The bound in `BENCHMARK.json`: the share of the parent's median the
    /// metric may worsen by when runs use *different* seeds and happen
    /// minutes apart. At least three times the widest spread seen over ten
    /// seeds on any workload (README, "Bounds"), which is why these are
    /// wider than `rule`. `None` keeps the metric out of `BENCHMARK.json`:
    /// one is 0 by design, the other is undefined on a workload.
    pub driver_bound: Option<f64>,
}

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "sim_kb_per_s",
        unit: "KB/s",
        better: Better::Higher,
        rule: Rule::Exact,
        driver_bound: Some(0.08),
    },
    EndToEnd {
        name: "sim_op_p50_us",
        unit: "us_virtual",
        better: Better::Lower,
        rule: Rule::Exact,
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "sim_op_p99_us",
        unit: "us_virtual",
        better: Better::Lower,
        rule: Rule::Exact,
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "sim_cpu_ms_per_mb",
        unit: "ms_virtual/MB",
        better: Better::Lower,
        rule: Rule::Exact,
        driver_bound: Some(0.03),
    },
    EndToEnd {
        name: "paper_err_pct",
        unit: "%",
        better: Better::Lower,
        rule: Rule::Exact,
        driver_bound: None,
    },
    EndToEnd {
        name: "host_cpu_s",
        unit: "s",
        better: Better::Lower,
        rule: Rule::Share(0.10),
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        rule: Rule::Share(0.10),
        driver_bound: Some(0.25),
    },
    // Not `Exact`: `std`'s `HashMap` seeds its hasher per process, and that
    // decides when a table with tombstones rehashes, so a rep may make a
    // handful of allocations more or fewer (parts per million).
    EndToEnd {
        name: "host_alloc_mb",
        unit: "MB",
        better: Better::Lower,
        rule: Rule::Share(0.005),
        driver_bound: Some(0.01),
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        rule: Rule::Share(0.03),
        driver_bound: Some(0.06),
    },
    EndToEnd {
        name: "host_minor_faults",
        unit: "count",
        better: Better::Lower,
        rule: Rule::Share(0.03),
        driver_bound: Some(0.06),
    },
    EndToEnd {
        name: "op_fail_frac",
        unit: "ratio",
        better: Better::Lower,
        rule: Rule::Exact,
        driver_bound: None,
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Source {
    /// The count rep's registries (exact).
    Count,
    /// The layer micro-benchmarks (`layers.rs`).
    UnitCost,
    /// The reps of the run itself: timed, count and traced.
    Harness,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Count,
    }
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::UnitCost,
    }
}

const fn harness(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Harness,
    }
}

use Better::{Higher, Lower};

/// Layer = crate name. Virtual seconds carry the unit `s_virtual`.
pub const PER_LAYER: [PerLayer; 91] = [
    count("simkit.polls", "count", Lower),
    count("simkit.tasks_spawned", "count", Lower),
    count("simkit.polls_per_op", "count", Lower),
    cost("simkit.spawn_join_ns", "ns"),
    cost("simkit.timer_ns", "ns"),
    cost("simkit.counter_add_ns", "ns"),
    cost("simkit.histogram_observe_ns", "ns"),
    count("diskmodel.requests", "count", Lower),
    count("diskmodel.kb_per_request", "KB", Higher),
    count("diskmodel.busy_s", "s_virtual", Lower),
    count("diskmodel.seek_s", "s_virtual", Lower),
    count("diskmodel.rot_wait_s", "s_virtual", Lower),
    count("diskmodel.transfer_s", "s_virtual", Lower),
    count("diskmodel.queue_wait_s", "s_virtual", Lower),
    count("diskmodel.trackbuf_hit_ratio", "ratio", Higher),
    count("diskmodel.coalesced", "count", Higher),
    cost("diskmodel.seq_read_req_ns", "ns"),
    cost("diskmodel.rand_read_req_ns", "ns"),
    cost("diskmodel.write_req_ns", "ns"),
    cost("diskmodel.store_read_ns_per_kb", "ns/KB"),
    cost("diskmodel.store_write_ns_per_kb", "ns/KB"),
    count("volmgr.io_amplification", "ratio", Lower),
    count("volmgr.spindle_busy_imbalance", "ratio", Lower),
    count("volmgr.degraded_reads", "count", Lower),
    cost("volmgr.raid0_read_req_ns", "ns"),
    cost("volmgr.raid5_read_req_ns", "ns"),
    cost("volmgr.raid5_full_row_write_req_ns", "ns"),
    cost("volmgr.raid5_partial_write_req_ns", "ns"),
    cost("volmgr.raid5_degraded_read_req_ns", "ns"),
    count("pagecache.hit_ratio", "ratio", Higher),
    count("pagecache.creates", "count", Lower),
    count("pagecache.reclaims", "count", Higher),
    count("pagecache.alloc_stalls", "count", Lower),
    count("pagecache.alloc_stall_s", "s_virtual", Lower),
    count("pagecache.pageout_scanned", "count", Lower),
    count("pagecache.pageout_freed", "count", Lower),
    cost("pagecache.new_ns", "ns"),
    cost("pagecache.lookup_hit_ns", "ns"),
    cost("pagecache.create_recycle_ns", "ns"),
    cost("pagecache.copy_ns_per_kb", "ns/KB"),
    cost("pagecache.invalidate_ns_per_page", "ns"),
    count("vfs.prefetch_issued", "blocks", Lower),
    count("vfs.prefetch_hit_ratio", "ratio", Higher),
    count("vfs.prefetch_wasted_kb", "KB", Lower),
    count("vfs.cluster_read_blocks_mean", "blocks", Higher),
    count("vfs.cluster_write_blocks_mean", "blocks", Higher),
    count("vfs.retries", "count", Lower),
    count("vfs.errors", "count", Lower),
    count("clufs.throttle_stalls", "count", Lower),
    count("clufs.throttle_stall_s", "s_virtual", Lower),
    cost("clufs.delayed_write_ns", "ns"),
    cost("clufs.throttle_ns", "ns"),
    count("ufs.bmap_calls_per_block", "ratio", Lower),
    count("ufs.getpage_calls", "count", Lower),
    count("ufs.cluster_writes", "count", Lower),
    count("ufs.free_behind_pages", "count", Higher),
    count("ufs.sync_reads", "count", Lower),
    count("ufs.cpu_s", "s_virtual", Lower),
    cost("ufs.mkfs_ns", "ns"),
    cost("ufs.mount_ns", "ns"),
    cost("ufs.create_remove_ns", "ns"),
    cost("ufs.seq_read_block_ns", "ns"),
    cost("ufs.seq_write_block_ns", "ns"),
    cost("ufs.fsck_ns", "ns"),
    count("extentfs.extents_per_file", "count", Lower),
    count("extentfs.mean_extent_blocks", "blocks", Higher),
    count("extentfs.short_extents", "count", Lower),
    count("extentfs.inline_files", "count", Higher),
    cost("extentfs.format_ns", "ns"),
    cost("extentfs.tree_insert_ns", "ns"),
    cost("extentfs.tree_lookup_ns", "ns"),
    cost("extentfs.buddy_alloc_free_ns", "ns"),
    cost("extentfs.seq_read_block_ns", "ns"),
    cost("extentfs.seq_write_block_ns", "ns"),
    harness("iobench.world_build_share", "ratio", Lower),
    harness("iobench.prep_cpu_s", "s", Lower),
    harness("iobench.measure_cpu_s", "s", Lower),
    harness("iobench.retained_mb_per_run", "MB", Lower),
    harness("iobench.allocs", "count", Lower),
    harness("iobench.alloc_kb_per_mb_moved", "KB/MB", Lower),
    harness("iobench.rep_wall_s", "s", Lower),
    harness("iobench.polls_per_host_s", "1/s", Higher),
    harness("iobench.sim_mb_per_host_s", "MB/s", Higher),
    harness("iobench.prewarm_s", "s", Lower),
    harness("iobench.trace_overhead_pct", "%", Lower),
    harness("iobench.op_read_host_ns", "ns", Lower),
    harness("iobench.op_write_host_ns", "ns", Lower),
    harness("iobench.op_fsync_host_ns", "ns", Lower),
    harness("iobench.op_meta_host_ns", "ns", Lower),
    // The two end-to-end figures that cannot be `end_to_end` entries of
    // BENCHMARK.json, so that a driver run still records them.
    harness("iobench.paper_err_pct", "%", Lower),
    harness("iobench.op_fail_frac", "ratio", Lower),
];

/// Figure 11, row A/D: the paper's speed-up of config A over config D.
pub fn paper_a_over_d(kind: &str) -> Option<f64> {
    match kind {
        "FSR" => Some(2.15),
        "FSU" | "FSW" => Some(1.89),
        "FRR" => Some(1.04),
        "FRU" => Some(0.83),
        _ => None,
    }
}

pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::SeqRead => {
            "the title claim (FSR, 16 MB file vs 6 MB cache): cluster reads, fixed prefetch, free-behind, \
             disk transfer and copies; few events per MB, no allocator, no volume"
        }
        Workload::SeqWrite => {
            "FSW then FSU with fsync: the same layers used the other way - cluster writes, delayed write, \
             write limit, allocators - so a read-side gain that costs writes shows"
        }
        Workload::SmallOps => {
            "random 8 KB I/O, a cache-resident file and a small-file mix: clustering and prefetch bypassed, \
             many events per byte - executor, disk queue, directories, allocators, extent trees"
        }
        Workload::RaidStreams => {
            "four concurrent streams on RAID-5 and RAID-0, then degraded: the only load on volmgr, executor \
             concurrency, adaptive/stride prefetch and throttle contention"
        }
    }
}

/// How long a driver run measures. 92 driver runs of this plus the fixed
/// cost per run and two 20-40 s builds stay under two thirds of the cap.
pub const RUN_SECONDS: u32 = 20;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let better = |b: Better| {
        Json::Str(
            match b {
                Better::Higher => "higher",
                Better::Lower => "lower",
            }
            .to_string(),
        )
    };
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|&w| Json::obj([("name", s(w.name())), ("why", s(why(w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        Some(Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.driver_bound?)),
                        ]))
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = (END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        for m in &END_TO_END {
            assert!(
                m.driver_bound.is_none_or(|b| b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower && setup.driver_bound.is_some());
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().render().len() < 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), benchmark_json());
    }
}
