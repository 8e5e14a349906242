//! The storage seam: what the I/O path needs from "a thing that services
//! [`DiskRequest`]s".
//!
//! Everything above the driver — the cluster executor, the file systems,
//! the benchmarks — used to hold a concrete [`Disk`](crate::Disk). The
//! trait splits that dependency so a composed device (a RAID volume in
//! `volmgr`, fanning one request out across several spindles) can stand in
//! for a single drive without the layers above noticing. Only geometry the
//! upper layers actually consume is exposed: the sector size (transfer
//! alignment), the device length, and the nominal media rate (the
//! `rotdelay` → blocks conversion); cylinders, heads and zones stay the
//! drive's private business, because a volume has no single answer for
//! them.

use std::rc::Rc;

use simkit::SpanId;

use crate::disk::DiskStats;
use crate::request::{DiskOp, DiskRequest, IoHandle, IoStatus};

/// A request-queueing block device: one disk, or a volume composed of
/// several.
///
/// Object-safe by design — mounts hold `Rc<dyn BlockDevice>` (see
/// [`SharedDevice`]). The async wait side lives on [`IoHandle`]; the
/// convenience read/write wrappers live in [`BlockDeviceExt`] so this
/// trait stays dyn-compatible.
///
/// # The buffer travels with the request
///
/// [`DiskRequest::data`] is the request's transfer buffer in both
/// directions, the way `struct buf` carries `b_un.b_addr` down the driver
/// and back to `biodone`. A write submits its payload there; a read may
/// submit the buffer to be filled (exactly `nsect` sectors long — every
/// byte of it is overwritten) or `None` to have the device allocate one.
/// **Every** completion hands the buffer back in [`IoResult::data`],
/// whatever its status: `Ok`, `MediaError` or `DeviceGone`, before or
/// after the request reached a mechanism, from a drive, a fault wrapper or
/// a volume. A layer that keeps a [`FreeList`] therefore allocates nothing
/// per transfer, and a retry resubmits the buffer that came back. Only a
/// read submitted without a buffer can complete without one, when it fails
/// before any device allocated it.
///
/// [`IoResult::data`]: crate::IoResult::data
/// [`FreeList`]: crate::FreeList
pub trait BlockDevice {
    /// Submits an arbitrary request (including `ordered` barriers) and
    /// returns the handle to await its completion.
    ///
    /// Malformed requests (zero length, out of range, buffer length
    /// mismatch, write without payload) are bugs in the layer above:
    /// implementations trip a `debug_assert!` and, in release builds,
    /// complete the handle with [`IoStatus::MediaError`] instead of
    /// panicking.
    fn submit(&self, req: DiskRequest) -> IoHandle;

    /// Bytes per sector (the transfer alignment unit).
    fn sector_size(&self) -> u32;

    /// Addressable sectors. Requests must lie in `[0, total_sectors)`.
    fn total_sectors(&self) -> u64;

    /// Nominal media time to transfer one sector, nanoseconds (the
    /// fastest zone for zoned drives; a representative child for
    /// volumes). Upper layers use it for the `rotdelay` → blocks
    /// conversion, not for exact accounting.
    fn sector_time_ns(&self) -> u64;

    /// Snapshot of accumulated statistics (volumes: summed over
    /// spindles).
    fn stats(&self) -> DiskStats;

    /// Resets accumulated statistics.
    fn reset_stats(&self);

    /// Requests currently waiting for service (volumes: summed over
    /// spindles).
    fn queue_len(&self) -> usize;

    /// Stops the service task(s) once the queue drains.
    fn shutdown(&self);

    /// Submits a read of `nsect` sectors at `lba` (untagged stream).
    fn submit_read(&self, lba: u64, nsect: u32) -> IoHandle {
        self.submit_read_for(lba, nsect, None, 0, SpanId::NONE)
    }

    /// Submits a read into `buf` (`None`: the device allocates) on behalf
    /// of `stream`, parenting the device's trace spans under `span`.
    fn submit_read_for(
        &self,
        lba: u64,
        nsect: u32,
        buf: Option<Vec<u8>>,
        stream: u32,
        span: SpanId,
    ) -> IoHandle {
        self.submit(DiskRequest {
            op: DiskOp::Read,
            lba,
            nsect,
            data: buf,
            ordered: false,
            stream,
            span,
        })
    }

    /// Submits a write of `data` (exactly `nsect` sectors) at `lba`
    /// (untagged stream).
    fn submit_write(&self, lba: u64, nsect: u32, data: Vec<u8>) -> IoHandle {
        self.submit_write_for(lba, nsect, data, 0, SpanId::NONE)
    }

    /// Submits a write on behalf of `stream`, parenting the device's trace
    /// spans under `span`.
    fn submit_write_for(
        &self,
        lba: u64,
        nsect: u32,
        data: Vec<u8>,
        stream: u32,
        span: SpanId,
    ) -> IoHandle {
        self.submit(DiskRequest {
            op: DiskOp::Write,
            lba,
            nsect,
            data: Some(data),
            ordered: false,
            stream,
            span,
        })
    }
}

/// A shared handle to any block device — the type mounts actually hold.
pub type SharedDevice = Rc<dyn BlockDevice>;

/// Immediate resubmissions [`BlockDeviceExt::try_read_into`] and
/// [`try_write_from`] attempt on a transient [`IoStatus::MediaError`]
/// before giving up. Resubmission is free in virtual time (the mechanism
/// still charges rotation for the retry pass), so there is no backoff
/// here — the policy-level retry with backoff lives in `vfs::iopath`.
///
/// [`try_write_from`]: BlockDeviceExt::try_write_from
pub const EXT_RETRIES: u32 = 4;

/// Await-style convenience over any [`BlockDevice`] (including `dyn`).
/// Separate from the object-safe trait because async methods would make it
/// non-dispatchable.
#[allow(async_fn_in_trait)] // Single-threaded simulation: futures are !Send by design.
pub trait BlockDeviceExt: BlockDevice {
    /// Read into the caller's buffer and wait, resubmitting up to
    /// [`EXT_RETRIES`] times on a media error (transient faults clear under
    /// retry; latent ones do not). The buffer is sized to the transfer
    /// here and comes back filled, so a loop can read block after block
    /// through one allocation; `Vec::new()` asks for a fresh one.
    async fn try_read_into(&self, lba: u64, nsect: u32, buf: Vec<u8>) -> Result<Vec<u8>, IoStatus>;

    /// Write and wait, with the same bounded retry as
    /// [`BlockDeviceExt::try_read_into`], handing the buffer back — for
    /// loops that write block after block from one allocation.
    async fn try_write_from(
        &self,
        lba: u64,
        nsect: u32,
        data: Vec<u8>,
    ) -> Result<Vec<u8>, IoStatus>;

    /// Read and wait.
    ///
    /// # Panics
    ///
    /// Panics if the device reports an unrecoverable error — for callers
    /// (mkfs, tests) that run on devices known to be healthy. Fallible
    /// paths use [`BlockDeviceExt::try_read_into`].
    async fn read(&self, lba: u64, nsect: u32) -> Vec<u8>;

    /// Write and wait.
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable device errors, like
    /// [`BlockDeviceExt::read`].
    async fn write(&self, lba: u64, nsect: u32, data: Vec<u8>);
}

/// The one read-and-wait loop: a retry resubmits whatever buffer the
/// failed completion handed back. `None` lets the device allocate the
/// buffer when it services the read.
async fn read_retrying<T: BlockDevice + ?Sized>(
    dev: &T,
    lba: u64,
    nsect: u32,
    mut buf: Option<Vec<u8>>,
) -> Result<Vec<u8>, IoStatus> {
    let mut attempt = 0;
    loop {
        let res = dev
            .submit_read_for(lba, nsect, buf, 0, SpanId::NONE)
            .wait()
            .await;
        match res.status {
            IoStatus::Ok => return Ok(res.data.expect("read returns data")),
            IoStatus::MediaError if attempt < EXT_RETRIES => {
                attempt += 1;
                buf = res.data;
            }
            status => return Err(status),
        }
    }
}

// `read` and `write` reach their loop through one more async fn each. Their
// futures sit inside the boxed futures of every mkfs, mount and metadata
// write, so this layer sets the size of those allocations. The host heap
// layout follows from the sizes, and so does how often glibc trims a
// dropped world's memory and faults it back in. Awaiting the loops
// directly changed how often each of those modes comes up, and the
// benchmark's `seq_write` `host_minor_faults` median flipped between them
// from run to run.

async fn read_fresh<T: BlockDevice + ?Sized>(
    dev: &T,
    lba: u64,
    nsect: u32,
) -> Result<Vec<u8>, IoStatus> {
    read_retrying(dev, lba, nsect, None).await
}

async fn write_dropping<T: BlockDevice + ?Sized>(
    dev: &T,
    lba: u64,
    nsect: u32,
    data: Vec<u8>,
) -> Result<(), IoStatus> {
    dev.try_write_from(lba, nsect, data).await.map(drop)
}

impl<T: BlockDevice + ?Sized> BlockDeviceExt for T {
    async fn try_read_into(
        &self,
        lba: u64,
        nsect: u32,
        mut buf: Vec<u8>,
    ) -> Result<Vec<u8>, IoStatus> {
        buf.resize(nsect as usize * self.sector_size() as usize, 0);
        read_retrying(self, lba, nsect, Some(buf)).await
    }

    async fn try_write_from(
        &self,
        lba: u64,
        nsect: u32,
        mut data: Vec<u8>,
    ) -> Result<Vec<u8>, IoStatus> {
        let mut attempt = 0;
        loop {
            let res = self.submit_write(lba, nsect, data).wait().await;
            match res.status {
                IoStatus::Ok => return Ok(res.data.expect("a completion returns its buffer")),
                IoStatus::MediaError if attempt < EXT_RETRIES => {
                    attempt += 1;
                    data = res.data.expect("a completion returns its buffer");
                }
                status => return Err(status),
            }
        }
    }

    async fn read(&self, lba: u64, nsect: u32) -> Vec<u8> {
        read_fresh(self, lba, nsect)
            .await
            .expect("unrecoverable device error on read")
    }

    async fn write(&self, lba: u64, nsect: u32, data: Vec<u8>) {
        write_dropping(self, lba, nsect, data)
            .await
            .expect("unrecoverable device error on write");
    }
}
