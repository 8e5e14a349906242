//! The CPU cost model: what each traversal of the file system code costs.
//!
//! "Measuring the existing UFS showed that about half of a 12MIPS CPU was
//! used to get half of the disk bandwidth of a 1.5MB/second disk." The
//! clustering argument is that these per-call costs are amortized over
//! clusters instead of blocks. The constants below are calibrated so that
//! the block-at-a-time configuration reproduces that measurement (roughly
//! 5 ms of CPU per 8 KB block moved through `read(2)`, dominated by the
//! copy), and so Figure 12's mmap comparison lands near the paper's 25%
//! CPU saving.

use simkit::SimDuration;

/// Per-operation CPU charges for the simulated kernel.
#[derive(Clone, Copy, Debug)]
pub struct CpuCosts {
    /// Entering and exiting `read(2)`/`write(2)` (per call).
    pub syscall: SimDuration,
    /// A page fault resolved through the object chain into `getpage`
    /// (address space → segment → vnode), when the page must be found or
    /// created.
    pub fault: SimDuration,
    /// A `getpage` that finds the page in the cache with a valid
    /// translation (the cheap revisit path).
    pub page_hit: SimDuration,
    /// One `bmap` translation using the inode's direct pointers.
    pub bmap: SimDuration,
    /// Additional cost when `bmap` must go through an indirect block.
    pub bmap_indirect: SimDuration,
    /// Building and issuing one disk request (driver entry, `disksort`,
    /// command setup).
    pub io_setup: SimDuration,
    /// Fielding one disk completion interrupt.
    pub io_intr: SimDuration,
    /// Kernel map/unmap of one file block in `ufs_rdwr`.
    pub map_unmap: SimDuration,
    /// One `putpage` traversal.
    pub putpage: SimDuration,
    /// Copy rate between kernel and user space, in bytes per second
    /// (`copyin`/`copyout`).
    pub copy_bytes_per_sec: f64,
    /// Block allocation (bitmap search + cg update), beyond the bmap cost.
    pub alloc: SimDuration,
    /// Directory entry scan/update per block examined.
    pub dir_block: SimDuration,
}

impl CpuCosts {
    /// Calibrated for the paper's 20 MHz / ~12 MIPS SPARCstation 1.
    pub fn sparcstation_1() -> CpuCosts {
        CpuCosts {
            syscall: SimDuration::from_micros(150),
            fault: SimDuration::from_micros(1400),
            page_hit: SimDuration::from_micros(1150),
            bmap: SimDuration::from_micros(50),
            bmap_indirect: SimDuration::from_micros(50),
            io_setup: SimDuration::from_micros(150),
            io_intr: SimDuration::from_micros(100),
            map_unmap: SimDuration::from_micros(400),
            putpage: SimDuration::from_micros(300),
            copy_bytes_per_sec: 6.0e6, // ~6 MB/s kernel-user copy on a SS1.
            alloc: SimDuration::from_micros(150),
            dir_block: SimDuration::from_micros(100),
        }
    }

    /// A free CPU (all charges zero) for tests that only exercise logic.
    pub fn free() -> CpuCosts {
        CpuCosts {
            syscall: SimDuration::ZERO,
            fault: SimDuration::ZERO,
            page_hit: SimDuration::ZERO,
            bmap: SimDuration::ZERO,
            bmap_indirect: SimDuration::ZERO,
            io_setup: SimDuration::ZERO,
            io_intr: SimDuration::ZERO,
            map_unmap: SimDuration::ZERO,
            putpage: SimDuration::ZERO,
            copy_bytes_per_sec: f64::INFINITY,
            alloc: SimDuration::ZERO,
            dir_block: SimDuration::ZERO,
        }
    }

    /// Copy charge for `bytes` of copyin/copyout.
    pub fn copy(&self, bytes: usize) -> SimDuration {
        vfs::frontend::copy_time(self.copy_bytes_per_sec, bytes)
    }

    /// The entries the shared vnode front end and its I/O executor charge.
    pub fn front_end(&self) -> vfs::frontend::Costs {
        vfs::frontend::Costs {
            syscall: self.syscall,
            fault: self.fault,
            page_hit: self.page_hit,
            rmw_fault: self.fault,
            map_unmap: self.map_unmap,
            putpage: self.putpage,
            copy_bytes_per_sec: self.copy_bytes_per_sec,
            io: vfs::iopath::IoCosts {
                io_setup: self.io_setup,
                io_intr: self.io_intr,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_read_cpu_cost_matches_paper_scale() {
        // Old path, one 8 KB block through read(2): fault + bmap + two I/O
        // setups (block + read-ahead) + interrupts + map/unmap + copy.
        // The paper implies ~5 ms of CPU per 10.7 ms block time (50% CPU at
        // half bandwidth).
        let c = CpuCosts::sparcstation_1();
        let per_block = c.fault
            + c.bmap * 2
            + c.io_setup * 2
            + c.io_intr * 2
            + c.map_unmap
            + c.putpage
            + c.copy(8192);
        let ms = per_block.as_millis_f64();
        assert!(
            (3.0..7.0).contains(&ms),
            "per-block CPU {ms:.2} ms outside the calibration band"
        );
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let c = CpuCosts::sparcstation_1();
        assert_eq!(c.copy(0), SimDuration::ZERO);
        let one = c.copy(8192);
        let four = c.copy(4 * 8192);
        let diff = (one * 4).as_nanos().abs_diff(four.as_nanos());
        assert!(diff <= 4, "linear within rounding: {one} * 4 vs {four}");
    }

    #[test]
    fn free_costs_are_zero() {
        let c = CpuCosts::free();
        assert_eq!(c.copy(1 << 20), SimDuration::ZERO);
        assert_eq!(c.syscall, SimDuration::ZERO);
    }
}
