//! Multi-stream pipeline guarantees: the fairness experiment's exported
//! snapshot is deterministic, and the per-stream labelled disk counters
//! partition the global ones exactly (stream 0 carries the untagged
//! metadata remainder, so nothing is double-counted or lost).

use clufs::Tuning;
use iobench::experiments::{streams_run, RunScale, StatsSink};
use iobench::runner::Runner;
use iobench::{paper_world, run_streams, StreamsOptions, WorldOptions};
use proptest::prelude::*;
use simkit::Sim;

/// Two identical `iobench streams --stats-json` exports must be
/// byte-identical: the workload runs in virtual time, so the whole
/// registry — including every labelled `…{stream=N}` series — is a pure
/// function of the configuration.
#[test]
fn streams_stats_json_is_deterministic() {
    let export = || {
        let sink = StatsSink::new();
        let table = streams_run(3, RunScale::quick(), &Runner::serial(Some(&sink)));
        (table, sink.to_json("streams"))
    };
    let (t1, j1) = export();
    let (t2, j2) = export();
    assert_eq!(t1, t2, "rendered fairness table must be identical");
    assert_eq!(j1, j2, "--stats-json document must be byte-identical");
    assert!(j1.contains(&format!("\"schema\":\"{}\"", iobench::STATS_SCHEMA)));
    assert!(
        j1.contains("{stream="),
        "labelled per-stream metrics must be exported"
    );
}

fn sector_partition(streams: u32, nio: u64) -> (u64, u64, u64, u64, usize) {
    let sim = Sim::new();
    let s = sim.clone();
    let runs = sim.run_until(async move {
        let opts = WorldOptions {
            full_scale: false,
            ..WorldOptions::default()
        };
        let w = paper_world(&s, Tuning::config_a(), opts).await.unwrap();
        run_streams(
            &w,
            StreamsOptions {
                streams,
                file_bytes: nio * 8192,
                io_bytes: 8192,
            },
        )
        .await
        .unwrap()
    });
    let st = sim.stats();
    (
        st.stream_counter_sum("disk.sectors_read"),
        st.counter_value("disk.sectors_read"),
        st.stream_counter_sum("disk.sectors_written"),
        st.counter_value("disk.sectors_written"),
        runs.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Whatever the stream count and per-stream size, every disk sector is
    /// attributed to exactly one stream: the labelled counters sum to the
    /// global `disk.sectors_*`.
    #[test]
    fn per_stream_disk_counters_partition_the_globals(
        streams in 1u32..5,
        nio in 8u64..25,
    ) {
        let (rd_sum, rd_global, wr_sum, wr_global, n) = sector_partition(streams, nio);
        prop_assert_eq!(n, streams as usize);
        prop_assert_eq!(rd_sum, rd_global);
        prop_assert_eq!(wr_sum, wr_global);
        prop_assert!(wr_global > 0, "the workload must hit the disk");
    }
}
