//! A free list of transfer buffers.
//!
//! A request's buffer travels with it (see [`BlockDevice`]) and comes back
//! with its completion, so a layer that issues transfers in a steady state
//! needs no allocation per transfer: it lends a buffer from its free list
//! at submit and takes it back at completion. The list has no size knob
//! and frees nothing: it holds what the lender had in flight at its peak —
//! which the write limit and the prefetch window bound, and a mount with
//! neither (the paper's config D) by the page cache — so a second burst
//! allocates no more than the first, and it is freed with the lender, when
//! its world is dropped.
//!
//! [`BlockDevice`]: crate::BlockDevice

use std::cell::{Cell, RefCell};

/// Idle transfer buffers of one lender (`vfs::iopath`, a `volmgr` volume).
#[derive(Default)]
pub struct FreeList {
    idle: RefCell<Vec<Vec<u8>>>,
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

    /// Takes back a buffer lent by [`FreeList::take`].
    pub fn give(&self, buf: Vec<u8>) {
        let lent = self.lent.get().checked_sub(1);
        self.lent
            .set(lent.expect("more buffers returned than lent"));
        self.idle.borrow_mut().push(buf);
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
    fn a_burst_leaves_its_buffers_for_the_next_one() {
        let list = FreeList::new();
        let burst: Vec<Vec<u8>> = (0..1000).map(|_| list.take(8192)).collect();
        assert_eq!(list.lent(), 1000);
        let mut ptrs: Vec<*const u8> = burst.iter().map(|b| b.as_ptr()).collect();
        burst.into_iter().for_each(|b| list.give(b));
        assert_eq!((list.lent(), list.idle()), (0, 1000));
        // The next burst is served from the list: the same allocations.
        let again: Vec<Vec<u8>> = (0..1000).map(|_| list.take(8192)).collect();
        assert_eq!(list.idle(), 0);
        let mut ptrs_again: Vec<*const u8> = again.iter().map(|b| b.as_ptr()).collect();
        ptrs.sort();
        ptrs_again.sort();
        assert_eq!(ptrs, ptrs_again);
        again.into_iter().for_each(|b| list.give(b));
        assert_eq!(list.idle(), 1000);
    }
}
