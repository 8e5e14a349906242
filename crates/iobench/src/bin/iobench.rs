//! CLI to regenerate the paper's tables and figures.
//!
//! ```text
//! iobench fig9|fig10|fig11|fig12|extents|aging|musbus|alternatives|extentfs|\
//!         write-limit|free-behind|streams|volume|faults|readahead|all \
//!         [--jobs N] [--streams N] [--volume <spec>] \
//!         [--faults <spec>] \
//!         [--readahead fixed|adaptive|off] [--stride <bytes>] \
//!         [--record-size <bytes>] \
//!         [--age-ops N] [--utilization F] [--inline-threshold B] \
//!         [--stats-json <path>] [--trace <path>] \
//!         [--timeline <path>] [--sample-every <N[us|ms|s]>]
//! ```
//!
//! `--jobs N` fans an experiment's independent simulated runs out across N
//! worker threads (default: all available cores; `--jobs 1` runs serially).
//! Every run is a pure function of virtual time and results are re-emitted
//! in run order, so stdout, `--stats-json`, and `--trace` are
//! byte-identical for any jobs count. `--stats-json <path>` writes every
//! simulated run's full metrics-registry snapshot (schema
//! `iobench-stats/v8`; see DESIGN.md "Observability") so benchmark
//! trajectories can be diffed across changes. `--trace <path>` records
//! per-request spans through the whole I/O path and writes them as Chrome
//! trace-event JSON (open in `chrome://tracing` or Perfetto), and prints
//! each run's latency-attribution table. `--streams N` sets the stream
//! count for the multi-stream fairness workload (and selects it when no
//! experiment is named). `--volume <spec>` restricts the volume experiment
//! to one array — specs are `raid0:<spindles>:<stripe>` (e.g.
//! `raid0:4:64k`), `raid1:<spindles>` (e.g. `raid1:2`), or
//! `raid5:<spindles>:<stripe>` (e.g. `raid5:5:64k`) — and selects the
//! volume experiment when none is named. `--faults <spec>` configures the
//! fault-injection experiment with a deterministic fault plan (grammar:
//! `seed=N`, `media=<spindle>:<lba>+<nsect>`,
//! `transient=<spindle>:<lba>+<nsect>x<count>`, `die=<spindle>@<time>`,
//! `cut=<time>`, comma-separated; see DESIGN.md "Fault injection") applied
//! to the members of one array (`--volume`, default `raid5:5:64k`), and
//! selects the faults experiment when none is named; a plan naming a
//! spindle the target array does not have exits 2. The aging study takes
//! `--age-ops N` (positive per-round churn budget), `--utilization F`
//! (target fullness, strictly between 0 and 1), and `--inline-threshold B`
//! (extentfs inline-file cutoff in bytes, at most one 8 KB block);
//! malformed values exit 2 with usage, like every other flag.
//! The readahead experiment sweeps stride × record size × prefetch policy
//! by default; `--readahead fixed|adaptive|off`, `--stride <bytes>`, and
//! `--record-size <bytes>` (positive multiples of 8192, `k`/`m` suffixes
//! accepted, stride ≥ record) instead run the one selected cell — and any
//! of them selects the readahead experiment when none is named. Anything
//! else (an unknown policy, a size that is not a positive block multiple,
//! a stride smaller than the record) exits 2 with usage.
//! Unrecognized flags are an error.
//!
//! `--timeline <path>` turns on the virtual-time telemetry sampler and
//! writes per-run metric time series (schema `iobench-timeline/v1`);
//! `--sample-every <N[us|ms|s]>` sets the sampling interval (virtual
//! time; bare numbers are milliseconds; default 10ms) and is only
//! meaningful alongside `--timeline`. When both `--trace` and
//! `--timeline` are given, the sampled series are also merged into the
//! Chrome trace as Perfetto counter tracks. The sampler only observes:
//! stdout, `--stats-json` and `--trace` stay byte-identical whether or
//! not `--timeline` is given.

use diskmodel::FaultPlan;
use iobench::experiments::{
    aging_run, extentfs_comparison_run, extents_run, fig10_run, fig10_table, fig11_table,
    fig12_run, fig9_table, free_behind_run, musbus_run, rejected_alternatives_run, streams_run,
    write_limit_sweep_run, AgingParams, RunScale, StatsSink,
};
use iobench::faults::faults_run;
use iobench::readahead::{readahead_cell_run, readahead_run};
use iobench::runner::Runner;
use iobench::traceout;
use iobench::volume::volume_run;
use simkit::SimDuration;
use volmgr::VolumeSpec;

/// Everything an experiment reads: the parsed flags and the runner.
struct Ctx<'a> {
    scale: RunScale,
    nstreams: u32,
    aging: AgingParams,
    volume: Option<VolumeSpec>,
    faults: Option<FaultPlan>,
    /// `(policy, stride KB, record KB)` when a readahead flag selected one
    /// cell instead of the sweep.
    ra_cell: Option<(clufs::PrefetchPolicy, u64, u64)>,
    runner: Runner<'a>,
}

/// One section of the output: the names that select it, its header line
/// (`{streams}` stands for the stream count), and the body under it.
struct Experiment {
    names: &'static [&'static str],
    title: &'static str,
    run: fn(&Ctx) -> String,
}

/// Every experiment, in the order `all` prints them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["fig9"],
        title: "Figure 9: IObench run descriptions",
        run: |_| fig9_table(),
    },
    Experiment {
        names: &["fig10", "fig11"],
        title: "Figure 10: IObench transfer rates in KB/second",
        run: |c| {
            let data = fig10_run(c.scale, &c.runner);
            format!(
                "{}\nFigure 11: IObench transfer rate ratios\n\n{}",
                fig10_table(&data),
                fig11_table(&data)
            )
        },
    },
    Experiment {
        names: &["fig12"],
        title: "Figure 12: System CPU comparison",
        run: |c| fig12_run(c.scale, &c.runner).0,
    },
    Experiment {
        names: &["extents"],
        title: "Allocator contiguity study",
        run: |c| extents_run(&c.runner).0,
    },
    Experiment {
        names: &["aging"],
        title: "Clustering decay under aging (UFS vs extentfs)",
        run: |c| aging_run(c.aging, &c.runner).0,
    },
    Experiment {
        names: &["musbus"],
        title: "MusBus-like timesharing mix",
        run: |c| {
            let (table, ratio) = musbus_run(&c.runner);
            format!("{table}\nold/new iteration-time ratio: {ratio:.2}\n")
        },
    },
    Experiment {
        names: &["alternatives"],
        title: "Rejected alternatives",
        run: |c| rejected_alternatives_run(c.scale, &c.runner),
    },
    Experiment {
        names: &["extentfs"],
        title: "Extent-based file system vs clustered UFS",
        run: |c| extentfs_comparison_run(c.scale, &c.runner),
    },
    Experiment {
        names: &["write-limit"],
        title: "Write-limit sweep",
        run: |c| write_limit_sweep_run(c.scale, &c.runner),
    },
    Experiment {
        names: &["free-behind"],
        title: "Free-behind cache survival",
        run: |c| free_behind_run(c.scale, &c.runner).0,
    },
    Experiment {
        names: &["streams"],
        title: "Multi-stream fairness ({streams} tagged streams)",
        run: |c| streams_run(c.nstreams, c.scale, &c.runner),
    },
    Experiment {
        names: &["volume"],
        title: "RAID volumes: cluster size x stripe width x spindle count",
        run: |c| volume_run(c.volume.as_ref(), c.scale, &c.runner),
    },
    Experiment {
        names: &["faults"],
        title: "Fault injection: I/O error path, degraded service, and rebuild",
        run: |c| faults_run(c.faults.as_ref(), c.volume.as_ref(), &c.runner),
    },
    Experiment {
        names: &["readahead"],
        title: "Adaptive readahead: strided reads vs prefetch policy",
        run: |c| match c.ra_cell {
            Some((policy, stride_kb, record_kb)) => {
                readahead_cell_run(policy, stride_kb, record_kb, c.scale, &c.runner)
            }
            None => readahead_run(c.scale, &c.runner),
        },
    },
];

/// `fig9|fig10|...|all`: every name the first argument may take.
fn experiment_names() -> String {
    let names = EXPERIMENTS.iter().flat_map(|e| e.names).copied();
    names.chain(["all"]).collect::<Vec<_>>().join("|")
}

fn usage() -> ! {
    eprintln!(
        "usage: iobench {} \
         [--jobs N] [--streams N] [--volume <spec>] \
         [--faults <spec>] \
         [--readahead fixed|adaptive|off] [--stride <bytes>] \
         [--record-size <bytes>] \
         [--age-ops N] [--utilization F] [--inline-threshold B] \
         [--stats-json <path>] [--trace <path>] \
         [--timeline <path>] [--sample-every <N[us|ms|s]>]\n\
         volume specs: raid0:<spindles>:<stripe> | raid1:<spindles> | \
         raid5:<spindles>:<stripe>  (e.g. raid0:4:64k, raid1:2, raid5:5:64k)\n\
         fault plans: comma-separated seed=N | media=<sp>:<lba>+<nsect> | \
         transient=<sp>:<lba>+<nsect>x<count> | die=<sp>@<time> | \
         cut=<time>  (e.g. seed=7,transient=0:100+64x2,die=1@2s); applied \
         to the --volume array (default raid5:5:64k)\n\
         readahead: --readahead is one of fixed|adaptive|off, --stride and \
         --record-size are positive multiples of 8192 bytes (k/m suffixes \
         accepted) with stride >= record; given any of them the experiment \
         runs that one cell instead of the sweep\n\
         aging: --age-ops is a positive churn budget per round, \
         --utilization a target fill in (0, 1), --inline-threshold an \
         extentfs inline-file cutoff in bytes (0..=8192)\n\
         timeline: --timeline writes an iobench-timeline/v1 \
         sampled-metrics document; --sample-every takes a positive \
         integer with optional us/ms/s suffix (virtual time, default \
         10ms) and requires --timeline",
        experiment_names()
    );
    std::process::exit(2);
}

/// Extracts `--flag <value>` from `args`, if present.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
        eprintln!("{flag} requires a value");
        usage();
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Extracts `--flag N` (a positive count) from `args`, if present.
fn take_count_flag(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a count argument");
        usage();
    }
    let n: usize = match args[i + 1].parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} requires a positive count");
            usage();
        }
    };
    args.remove(i + 1);
    args.remove(i);
    Some(n)
}

/// Parses the strict `--sample-every` grammar: a positive integer with an
/// optional `us`/`ms`/`s` unit suffix; a bare number means milliseconds
/// of virtual time. Anything else (zero, signs, fractions, unknown units,
/// overflow) is an error string for the CLI to report alongside usage.
fn parse_sample_every(s: &str) -> Result<SimDuration, String> {
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stats_path = take_value_flag(&mut args, "--stats-json");
    let trace_path = take_value_flag(&mut args, "--trace");
    let timeline_path = take_value_flag(&mut args, "--timeline");
    let sample_every_arg = take_value_flag(&mut args, "--sample-every");
    if sample_every_arg.is_some() && timeline_path.is_none() {
        eprintln!("--sample-every requires --timeline (there is nowhere to put samples)");
        usage();
    }
    // Sampling is active iff `--timeline` was given; the interval defaults
    // to 10ms of virtual time.
    let sample_every = timeline_path.as_ref().map(|_| {
        sample_every_arg.as_deref().map_or_else(
            || SimDuration::from_millis(10),
            |s| {
                parse_sample_every(s).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                })
            },
        )
    });
    let jobs = take_count_flag(&mut args, "--jobs").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let nstreams = take_count_flag(&mut args, "--streams").map(|n| n as u32);
    let age_ops = take_count_flag(&mut args, "--age-ops");
    let utilization = take_value_flag(&mut args, "--utilization").map(|s| match s.parse::<f64>() {
        Ok(f) if f > 0.0 && f < 1.0 => f,
        _ => {
            eprintln!("--utilization {s}: expected a fraction strictly between 0 and 1");
            usage();
        }
    });
    let inline_threshold =
        take_value_flag(&mut args, "--inline-threshold").map(|s| match s.parse::<usize>() {
            Ok(b) if b <= 8192 => b,
            _ => {
                eprintln!("--inline-threshold {s}: expected a byte count of at most 8192");
                usage();
            }
        });
    let ra_policy = take_value_flag(&mut args, "--readahead").map(|s| {
        clufs::PrefetchPolicy::parse(&s).unwrap_or_else(|| {
            eprintln!("--readahead {s}: expected one of fixed|adaptive|off");
            usage();
        })
    });
    // `--stride`/`--record-size` take byte counts that must be positive
    // multiples of the 8192-byte block (k/m suffixes accepted).
    let block_multiple = |flag: &str, s: &str| -> u64 {
        let (digits, mult) = match s.strip_suffix(['k', 'K']) {
            Some(d) => (d, 1024u64),
            None => match s.strip_suffix(['m', 'M']) {
                Some(d) => (d, 1024 * 1024),
                None => (s, 1),
            },
        };
        match digits.parse::<u64>() {
            Ok(n) if n > 0 && (n * mult) % 8192 == 0 => n * mult,
            _ => {
                eprintln!("{flag} {s}: expected a positive multiple of 8192 bytes");
                usage();
            }
        }
    };
    let stride_bytes =
        take_value_flag(&mut args, "--stride").map(|s| block_multiple("--stride", &s));
    let record_bytes =
        take_value_flag(&mut args, "--record-size").map(|s| block_multiple("--record-size", &s));
    let ra_cell = if ra_policy.is_some() || stride_bytes.is_some() || record_bytes.is_some() {
        let stride = stride_bytes.unwrap_or(256 * 1024);
        let record = record_bytes.unwrap_or(8192);
        if stride < record {
            eprintln!(
                "--stride {stride} is smaller than --record-size {record}; \
                 records may not overlap"
            );
            usage();
        }
        Some((
            ra_policy.unwrap_or(clufs::PrefetchPolicy::Adaptive),
            stride / 1024,
            record / 1024,
        ))
    } else {
        None
    };
    let volume_spec = take_value_flag(&mut args, "--volume").map(|s| {
        VolumeSpec::parse(&s).unwrap_or_else(|e| {
            eprintln!("--volume {s}: {e}");
            usage();
        })
    });
    let fault_plan = take_value_flag(&mut args, "--faults").map(|s| {
        let plan = FaultPlan::parse(&s).unwrap_or_else(|e| {
            eprintln!("--faults {s}: {e}");
            usage();
        });
        // The plan configures the members of the target array; a clause
        // naming a spindle the array does not have would silently never
        // fire, so reject it up front.
        let width = volume_spec.as_ref().map_or(5, |v| v.spindles);
        if let Some(m) = plan.max_spindle() {
            if m >= width {
                eprintln!(
                    "--faults {s}: plan names spindle {m} but the target \
                     array has only {width} (0..={})",
                    width - 1
                );
                usage();
            }
        }
        plan
    });
    // Every recognized flag has been consumed: anything left that looks
    // like a flag is a typo the user should hear about, not a silent no-op.
    if let Some(bad) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unrecognized flag: {bad}");
        usage();
    }
    if args.len() > 1 {
        eprintln!("unexpected argument: {}", args[1]);
        usage();
    }
    // A bare `--faults <spec>` selects the faults experiment; a bare
    // `--streams N` selects the streams experiment; a bare
    // `--volume <spec>` selects the volume experiment; a bare aging knob
    // selects the aging study.
    let default_what = if ra_cell.is_some() {
        "readahead"
    } else if fault_plan.is_some() {
        "faults"
    } else if nstreams.is_some() {
        "streams"
    } else if volume_spec.is_some() {
        "volume"
    } else if age_ops.is_some() || utilization.is_some() || inline_threshold.is_some() {
        "aging"
    } else {
        "all"
    };
    let what = args.first().map(|s| s.as_str()).unwrap_or(default_what);
    let nstreams = nstreams.unwrap_or(4);
    let mut aging_params = AgingParams::paper();
    if let Some(n) = age_ops {
        aging_params.ops_per_round = n;
    }
    if let Some(f) = utilization {
        aging_params.target_fill = f;
    }
    if let Some(b) = inline_threshold {
        aging_params.inline_max = b;
    }

    let sink = if trace_path.is_some() || stats_path.is_some() || timeline_path.is_some() {
        Some(StatsSink::with_capture(trace_path.is_some(), sample_every))
    } else {
        None
    };
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| what == "all" || e.names.contains(&what))
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {what}");
        usage();
    }
    let ctx = Ctx {
        scale: RunScale::paper(),
        nstreams,
        aging: aging_params,
        volume: volume_spec,
        faults: fault_plan,
        ra_cell,
        runner: Runner::new(jobs, sink.as_ref()),
    };
    for e in selected {
        let title = e.title.replace("{streams}", &ctx.nstreams.to_string());
        println!("{title}\n");
        println!("{}", (e.run)(&ctx));
    }

    if let (Some(path), Some(sink)) = (&stats_path, &sink) {
        let doc = sink.to_json(what);
        write_doc(path, &doc, format_args!("{} run snapshot(s)", sink.len()));
    }
    if let (Some(path), Some(sink)) = (&timeline_path, &sink) {
        let doc = sink.timeline_json(what);
        write_doc(
            path,
            &doc,
            format_args!("{} sampled run timeline(s)", sink.len()),
        );
    }
    if let (Some(path), Some(sink)) = (&trace_path, &sink) {
        // With `--timeline` too, the sampled series ride along as Perfetto
        // counter tracks.
        let runs = sink.runs();
        println!("Per-run latency attribution (from --trace spans)\n");
        for run in runs.iter() {
            println!("{}:", run.id);
            println!("{}", traceout::attribution_table(&run.spans));
        }
        if let Some(run) = runs.first() {
            println!(
                "Per-fault action timeline (first tree per root kind, {})\n",
                run.id
            );
            println!("{}", traceout::timeline_table(&run.spans, 1));
        }
        let spans: usize = runs.iter().map(|r| r.spans.len()).sum();
        write_doc(
            path,
            &traceout::chrome_trace_json(&runs),
            format_args!("{spans} span(s) across {} run(s)", runs.len()),
        );
    }
}

/// Writes one output document to `path` and says so on stderr as
/// "wrote <what> to <path>", or exits 1 if it cannot.
fn write_doc(path: &str, doc: &str, what: std::fmt::Arguments) {
    match std::fs::write(path, doc) {
        Ok(()) => eprintln!("wrote {what} to {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
