//! The buffer contract (see `BlockDevice`): a request's buffer travels down
//! with it and comes back with its completion — the same allocation, on
//! every path, whatever the status.

use std::rc::Rc;

use diskmodel::{
    BlockDevice, BlockDeviceExt, Disk, DiskOp, DiskParams, DiskRequest, FaultDevice, IoHandle,
    IoResult, IoStatus, SharedDevice, SpindleFaults,
};
use simkit::{Sim, SimTime, SpanId};

fn pattern(seed: u8, nsect: u32) -> Vec<u8> {
    (0..nsect as usize * 512)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Submits `buf` as the request's buffer and returns the handle with the
/// buffer's address, to compare with what the completion hands back.
fn submit(
    dev: &dyn BlockDevice,
    op: DiskOp,
    lba: u64,
    nsect: u32,
    stream: u32,
    buf: Vec<u8>,
) -> (IoHandle, *const u8) {
    let ptr = buf.as_ptr();
    let handle = dev.submit(DiskRequest {
        op,
        lba,
        nsect,
        data: Some(buf),
        ordered: false,
        stream,
        span: SpanId::NONE,
    });
    (handle, ptr)
}

/// Runs one request with `buf` as its buffer; returns the completion and
/// whether it handed back that very allocation.
async fn transfer(
    dev: &dyn BlockDevice,
    op: DiskOp,
    lba: u64,
    nsect: u32,
    buf: Vec<u8>,
) -> (IoResult, bool) {
    let (handle, ptr) = submit(dev, op, lba, nsect, 0, buf);
    let res = handle.wait().await;
    let same = res.data.as_ref().is_some_and(|b| b.as_ptr() == ptr);
    (res, same)
}

/// A read buffer full of bytes the device must not leave behind.
fn dirty(nsect: u32) -> Vec<u8> {
    vec![0xEE; nsect as usize * 512]
}

#[test]
fn coalesced_batch_fills_each_requesters_own_buffer() {
    let sim = Sim::new();
    let disk = Disk::new(
        &sim,
        DiskParams {
            coalesce_limit: Some(112),
            ..DiskParams::small_test()
        },
    );
    let d = disk.clone();
    sim.run_until(async move {
        // Contiguous requests of mixed sizes from three streams, queued
        // behind a far-away read so the driver merges them.
        let sizes = [8u32, 3, 16, 1, 12, 5];
        let lbas: Vec<u64> = sizes
            .iter()
            .scan(40u64, |next, &n| {
                let lba = *next;
                *next += n as u64;
                Some(lba)
            })
            .collect();

        let busy = d.submit_read(3000, 4);
        let writes: Vec<_> = (0..sizes.len())
            .map(|i| {
                let data = pattern(i as u8, sizes[i]);
                submit(&d, DiskOp::Write, lbas[i], sizes[i], 1 + i as u32 % 3, data)
            })
            .collect();
        busy.wait().await;
        for (i, (h, ptr)) in writes.into_iter().enumerate() {
            let res = h.wait().await;
            assert_eq!(res.status, IoStatus::Ok);
            let back = res.data.expect("a write hands its payload back");
            assert_eq!(back.as_ptr(), ptr, "write {i}: a different allocation");
            assert_eq!(
                back,
                pattern(i as u8, sizes[i]),
                "write {i}: payload changed"
            );
        }
        assert!(d.stats().coalesced >= 4, "the writes did not coalesce");

        let merged = d.stats().coalesced;
        let busy = d.submit_read(3000, 4);
        let reads: Vec<_> = (0..sizes.len())
            .map(|i| {
                let stream = 1 + (i as u32 + 1) % 3;
                submit(&d, DiskOp::Read, lbas[i], sizes[i], stream, dirty(sizes[i]))
            })
            .collect();
        busy.wait().await;
        for (i, (h, ptr)) in reads.into_iter().enumerate() {
            let res = h.wait().await;
            assert_eq!(res.status, IoStatus::Ok);
            let back = res.data.expect("reads return data");
            assert_eq!(back.as_ptr(), ptr, "read {i}: not the submitted buffer");
            assert_eq!(back, pattern(i as u8, sizes[i]), "read {i}: wrong bytes");
        }
        assert!(
            d.stats().coalesced >= merged + 4,
            "the reads did not coalesce"
        );
    });
}

#[test]
fn every_completion_returns_the_submitted_buffer() {
    let sim = Sim::new();
    let disk = Disk::new(&sim, DiskParams::small_test());
    let base: SharedDevice = Rc::new(disk.clone());
    let dev = FaultDevice::new(
        &sim,
        base,
        SpindleFaults {
            media: vec![(100, 8)],
            ..Default::default()
        },
        7,
    );
    let s = sim.clone();
    sim.run_until(async move {
        // Ok, both directions, on the bare drive and through the wrapper.
        for d in [&disk as &dyn BlockDevice, &dev] {
            let (res, same) = transfer(d, DiskOp::Write, 0, 4, pattern(9, 4)).await;
            assert_eq!((res.status, same), (IoStatus::Ok, true));
            let (res, same) = transfer(d, DiskOp::Read, 0, 4, dirty(4)).await;
            assert_eq!((res.status, same), (IoStatus::Ok, true));
            assert_eq!(res.data.unwrap(), pattern(9, 4));
        }

        // Injected media error: nothing moved, the buffer still comes back.
        for op in [DiskOp::Read, DiskOp::Write] {
            let (res, same) = transfer(&dev, op, 102, 2, pattern(1, 2)).await;
            assert_eq!((res.status, same), (IoStatus::MediaError, true));
        }

        // Death in flight: submitted alive, the completion finds a corpse.
        let die = s.now() + simkit::SimDuration::from_millis(2);
        dev.schedule_death(die);
        let (res, same) = transfer(&dev, DiskOp::Read, 6000, 64 * 3, dirty(64 * 3)).await;
        assert_eq!((res.status, same), (IoStatus::DeviceGone, true));
        assert!(res.finished_at >= die);

        // Death before submit: the request never reaches the drive.
        assert!(s.now() >= die);
        for op in [DiskOp::Read, DiskOp::Write] {
            let (res, same) = transfer(&dev, op, 0, 2, pattern(2, 2)).await;
            assert_eq!((res.status, same), (IoStatus::DeviceGone, true));
        }
    });
}

#[test]
fn try_read_into_reuses_the_callers_allocation_across_retries() {
    let sim = Sim::new();
    let base: SharedDevice = Rc::new(Disk::new(&sim, DiskParams::small_test()));
    let dev = FaultDevice::new(&sim, base, SpindleFaults::default(), 7);
    let s = sim.clone();
    sim.run_until(async move {
        dev.write(16, 16, pattern(3, 16)).await;
        // Sized by the call, whatever the buffer's length was.
        let mut buf = Vec::with_capacity(16 * 512);
        let ptr = buf.as_ptr();
        buf.extend_from_slice(&[0xEE; 100]);
        dev.arm_transient(16, 16, 2);
        let buf = dev.try_read_into(16, 16, buf).await.expect("heals");
        assert_eq!(s.stats().counter_value("fault.injected{kind=media}"), 2);
        assert_eq!((buf.as_ptr(), &buf), (ptr, &pattern(3, 16)));
        // And again through the same allocation, for a shorter transfer.
        let buf = dev.try_read_into(20, 4, buf).await.expect("healthy");
        assert_eq!(
            (buf.as_ptr(), &buf[..]),
            (ptr, &pattern(3, 16)[4 * 512..8 * 512])
        );
        // A write retry resubmits its payload rather than copying it.
        dev.arm_transient(16, 16, 2);
        dev.try_write(16, 4, pattern(5, 4)).await.expect("heals");
        assert_eq!(dev.read(16, 4).await, pattern(5, 4));
        // Terminal failure: the status, not a panic.
        dev.schedule_death(SimTime::ZERO);
        assert_eq!(
            dev.try_read_into(0, 1, buf).await,
            Err(IoStatus::DeviceGone)
        );
    });
}
