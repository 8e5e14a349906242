//! Acceptance for `iobench faults`: the built-in matrix is byte-identical
//! at any jobs count, survives mid-run spindle death on RAID-1/5 with zero
//! integrity errors, completes its online rebuild, and exercises the
//! bounded-retry path on RAID-0.

use diskmodel::FaultPlan;
use iobench::faults::{faults_data, faults_table};
use iobench::runner::Runner;
use volmgr::VolumeSpec;

#[test]
fn default_matrix_is_clean_and_jobs_invariant() {
    // The serial matrix runs beside the parallel one, so that it does not
    // leave the other cores idle for half of the test.
    let (serial, cells) = std::thread::scope(|s| {
        let serial = s.spawn(|| faults_data(None, None, &Runner::new(1, None)));
        let cells = faults_data(None, None, &Runner::new(4, None));
        (serial.join().expect("the serial matrix panicked"), cells)
    });
    assert_eq!(
        faults_table(&serial),
        faults_table(&cells),
        "output must be byte-identical at any --jobs"
    );

    assert_eq!(cells.len(), 6, "3 arrays x 2 file systems");
    for c in &cells {
        assert_eq!(c.mismatches, 0, "{}: integrity errors under faults", c.id);
        assert!(c.injected > 0, "{}: scenario injected no faults", c.id);
        assert!(
            !c.integrity.contains("DIRTY") && !c.integrity.contains("problem"),
            "{}: {}",
            c.id,
            c.integrity
        );
        assert!(
            c.phases.iter().any(|p| p.label == "healthy"),
            "{}: no healthy phase",
            c.id
        );
    }
    // Redundant arrays served degraded reads and completed the rebuild.
    for c in cells.iter().filter(|c| !c.volume.starts_with("raid0")) {
        assert!(c.degraded_reads > 0, "{}: never read degraded", c.id);
        assert!(c.rebuild_rows > 0, "{}: rebuild never ran", c.id);
        for want in ["degraded", "rebuilt"] {
            assert!(
                c.phases.iter().any(|p| p.label == want),
                "{}: missing {want} phase ({:?})",
                c.id,
                c.phases.iter().map(|p| p.label).collect::<Vec<_>>()
            );
        }
    }
    // The stripe (no redundancy) healed through bounded retries instead.
    for c in cells.iter().filter(|c| c.volume.starts_with("raid0")) {
        assert!(c.io_retries > 0, "{}: bounded retry never exercised", c.id);
        assert!(
            c.phases.iter().any(|p| p.label == "faulted"),
            "{}: missing faulted phase",
            c.id
        );
    }
}

#[test]
fn custom_plan_targets_one_array() {
    // A user plan: transient errors on spindle 0, spindle 1 dies at 2s.
    let plan = FaultPlan::parse("seed=9,transient=0:100+64x2,die=1@2s").unwrap();
    let spec = VolumeSpec::parse("raid5:4:16k").unwrap();
    let cells = faults_data(Some(&plan), Some(&spec), &Runner::new(2, None));
    assert_eq!(cells.len(), 2, "one array x 2 file systems");
    for c in &cells {
        assert_eq!(c.volume, "raid5:4:16k");
        assert_eq!(c.mismatches, 0, "{}: parity must absorb the death", c.id);
        assert!(c.rebuild_rows > 0, "{}: dead member not rebuilt", c.id);
    }
}
