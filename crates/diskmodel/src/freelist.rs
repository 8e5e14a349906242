//! A free list of transfer buffers.
//!
//! A request's buffer travels with it (see [`BlockDevice`]) and comes back
//! with its completion, so a layer that issues transfers in a steady state
//! needs no allocation per transfer: it lends a buffer from its free list
//! at submit and takes it back at completion. The list has no size knob:
//! it never holds more buffers than the lender had in flight at once —
//! which the write limit and the prefetch window bound — nor more than
//! [`IDLE_BYTES_MAX`].
//!
//! [`BlockDevice`]: crate::BlockDevice

use std::cell::{Cell, RefCell};

/// The most a list keeps idle: eight of the paper's 120 KB clusters, a
/// whole adaptive read-ahead window or several RAID rows. Only a burst
/// goes over it — a mount with no write limit (the paper's config D) can
/// have a cache-full of 8 KB writes in flight — and what a burst leaves
/// behind is freed, not kept for a burst that may never recur: a list
/// lives as long as its world, and a runner may keep hundreds of those.
/// (Unbounded lists cost the four benchmark workloads 6–10% of peak RSS;
/// 1 MB costs 1–2%, and 256 KB makes a RAID-5 array allocate half again
/// as much.)
const IDLE_BYTES_MAX: usize = 1 << 20;

/// Idle transfer buffers of one lender (`vfs::iopath`, a `volmgr` volume).
#[derive(Default)]
pub struct FreeList {
    idle: RefCell<Vec<Vec<u8>>>,
    idle_bytes: Cell<usize>,
    lent: Cell<usize>,
}

impl FreeList {
    /// An empty list.
    pub fn new() -> FreeList {
        FreeList::default()
    }

    /// Lends a buffer of exactly `len` bytes: the most recently returned
    /// one, grown if it is too small, or a fresh one when none is idle.
    /// The contents are whatever its last borrower left — a buffer lent for
    /// a read is overwritten whole by the device, a writer fills it.
    pub fn take(&self, len: usize) -> Vec<u8> {
        let mut buf = self.idle.borrow_mut().pop().unwrap_or_default();
        self.idle_bytes.set(self.idle_bytes.get() - buf.capacity());
        buf.resize(len, 0);
        self.lent.set(self.lent.get() + 1);
        buf
    }

    /// [`FreeList::take`], zero-filled (an XOR accumulator).
    pub fn take_zeroed(&self, len: usize) -> Vec<u8> {
        let mut buf = self.take(len);
        buf.fill(0);
        buf
    }

    /// Takes back a buffer lent by [`FreeList::take`]; it is freed instead
    /// of kept if the list already holds its 1 MB (`IDLE_BYTES_MAX`).
    pub fn give(&self, buf: Vec<u8>) {
        let lent = self.lent.get().checked_sub(1);
        self.lent
            .set(lent.expect("more buffers returned than lent"));
        let idle_bytes = self.idle_bytes.get() + buf.capacity();
        if idle_bytes <= IDLE_BYTES_MAX {
            self.idle_bytes.set(idle_bytes);
            self.idle.borrow_mut().push(buf);
        }
    }

    /// Takes back whatever buffer a completion returned
    /// ([`IoResult::data`](crate::IoResult::data)).
    pub fn release(&self, returned: Option<Vec<u8>>) {
        if let Some(buf) = returned {
            self.give(buf);
        }
    }

    /// Buffers lent and not yet returned.
    pub fn lent(&self) -> usize {
        self.lent.get()
    }

    /// Buffers waiting to be lent.
    pub fn idle(&self) -> usize {
        self.idle.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_the_allocation_and_sizes_it_to_the_borrower() {
        let list = FreeList::new();
        let a = list.take(4096);
        let ptr = a.as_ptr();
        assert_eq!((list.lent(), list.idle()), (1, 0));
        list.give(a);
        assert_eq!((list.lent(), list.idle()), (0, 1));
        let b = list.take(512);
        assert_eq!((b.len(), b.as_ptr()), (512, ptr));
        list.give(b);
        let c = list.take_zeroed(4096);
        assert_eq!(c.as_ptr(), ptr, "growth within capacity stays in place");
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn a_burst_leaves_a_bounded_list_behind() {
        let list = FreeList::new();
        let burst: Vec<Vec<u8>> = (0..1000).map(|_| list.take(8192)).collect();
        assert_eq!(list.lent(), 1000);
        burst.into_iter().for_each(|b| list.give(b));
        assert_eq!(list.lent(), 0);
        assert_eq!(list.idle(), IDLE_BYTES_MAX / 8192);
        // Draining the list and refilling it keeps the byte count honest.
        let again: Vec<Vec<u8>> = (0..list.idle()).map(|_| list.take(512)).collect();
        assert_eq!(list.idle(), 0);
        again.into_iter().for_each(|b| list.give(b));
        assert_eq!(list.idle(), IDLE_BYTES_MAX / 8192);
    }
}
