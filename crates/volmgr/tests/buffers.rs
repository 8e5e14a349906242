//! The buffer contract through a volume (see `diskmodel::BlockDevice`): the
//! parent request's buffer comes back with its completion — the same
//! allocation, healthy or degraded, served or failed — while the child
//! requests run on the volume's own free-list buffers.

use diskmodel::{BlockDevice, DiskOp, DiskParams, DiskRequest, IoResult, IoStatus};
use simkit::{Sim, SpanId};
use volmgr::{Volume, VolumeSpec};

fn pattern(seed: u8, nsect: u32) -> Vec<u8> {
    (0..nsect as usize * 512)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

/// Runs one request with `buf` as its buffer; returns the completion and
/// whether it handed back that very allocation.
async fn transfer(v: &Volume, op: DiskOp, lba: u64, nsect: u32, buf: Vec<u8>) -> (IoResult, bool) {
    let ptr = buf.as_ptr();
    let res = v
        .submit(DiskRequest {
            op,
            lba,
            nsect,
            data: Some(buf),
            ordered: false,
            stream: 3,
            span: SpanId::NONE,
        })
        .wait()
        .await;
    let same = res.data.as_ref().is_some_and(|b| b.as_ptr() == ptr);
    (res, same)
}

#[test]
fn the_parents_buffer_comes_back_healthy_and_degraded() {
    // Unaligned, several rows long: partial chunks at both ends, full rows
    // between (RAID-5 takes the RMW and the full-row path in one request).
    const LBA: u64 = 10;
    const N: u32 = 200;
    for spec in ["raid0:4:16k", "raid1:2", "raid5:4:16k"] {
        let sim = Sim::new();
        let v = Volume::new(
            &sim,
            &VolumeSpec::parse(spec).unwrap(),
            DiskParams::small_test(),
        );
        let redundant = !spec.starts_with("raid0");
        sim.run_until(async move {
            let (res, same) = transfer(&v, DiskOp::Write, LBA, N, pattern(1, N)).await;
            assert_eq!(res.status, IoStatus::Ok, "{spec}: healthy write");
            assert!(same, "{spec}: healthy write returned another buffer");
            assert_eq!(res.data.unwrap(), pattern(1, N), "{spec}: payload changed");

            let (res, same) =
                transfer(&v, DiskOp::Read, LBA, N, vec![0xEE; N as usize * 512]).await;
            assert_eq!(res.status, IoStatus::Ok, "{spec}: healthy read");
            assert!(same, "{spec}: healthy read returned another buffer");
            assert_eq!(
                res.data.unwrap(),
                pattern(1, N),
                "{spec}: healthy read bytes"
            );

            v.fail_spindle(1);
            let (res, same) =
                transfer(&v, DiskOp::Read, LBA, N, vec![0xEE; N as usize * 512]).await;
            assert!(same, "{spec}: degraded read returned another buffer");
            if redundant {
                assert_eq!(res.status, IoStatus::Ok, "{spec}: degraded read");
                assert_eq!(res.data.unwrap(), pattern(1, N), "{spec}: reconstruction");
            } else {
                assert_eq!(
                    res.status,
                    IoStatus::DeviceGone,
                    "{spec}: nothing to fall back on"
                );
            }

            let (res, same) = transfer(&v, DiskOp::Write, LBA, N, pattern(2, N)).await;
            assert!(same, "{spec}: degraded write returned another buffer");
            if redundant {
                assert_eq!(res.status, IoStatus::Ok, "{spec}: degraded write");
                let (res, _) =
                    transfer(&v, DiskOp::Read, LBA, N, vec![0xEE; N as usize * 512]).await;
                assert_eq!(
                    res.data.unwrap(),
                    pattern(2, N),
                    "{spec}: degraded write lost"
                );
            } else {
                assert_eq!(
                    res.status,
                    IoStatus::DeviceGone,
                    "{spec}: a chunk has no home"
                );
            }
        });
    }
}
