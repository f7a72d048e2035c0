//! Per-socket physical frame allocator.
//!
//! The allocator stands in for the Linux buddy allocator.  Each socket has its
//! own pool of frames; requests either name a socket explicitly ("strict"
//! allocation, the mode page-table replication uses) or go through a
//! [`PlacementPolicy`](crate::PlacementPolicy) via
//! [`PolicyEngine`](crate::PolicyEngine).
//!
//! Frames are handed out from a per-socket bump pointer and a free list.
//! Which frames are currently allocated is one bit per frame, kept only for
//! the prefix of the socket's range the bump pointer has passed: allocation,
//! free and the membership test are O(1), and cloning an allocator copies
//! one bit per frame ever handed out (plus the free lists).

use crate::error::MemError;
use crate::fragmentation::FragmentationModel;
use crate::frame::{FrameId, FrameSpace, FRAMES_PER_HUGE_PAGE};
use mitosis_numa::{Machine, SocketId};

/// Per-socket allocation state.
#[derive(Debug, Clone)]
struct SocketPool {
    /// First frame of the socket's range.
    start: u64,
    /// Next never-allocated frame (bump pointer within the socket's range).
    next: u64,
    /// End of the socket's range (exclusive).
    end: u64,
    /// Frames returned by `free` that can be reused for 4 KiB allocations.
    free_list: Vec<FrameId>,
    /// One bit per frame of `[start, next)`, set while the frame is
    /// allocated.  Frames at or beyond `next` were never handed out.
    in_use: Vec<u64>,
    /// Number of frames currently allocated.
    allocated: u64,
    /// High-water mark of allocated frames.
    peak_allocated: u64,
}

impl SocketPool {
    fn free_frames(&self) -> u64 {
        (self.end - self.next) + self.free_list.len() as u64
    }

    /// Moves the bump pointer to `next`, growing the bitmap to cover it.
    fn bump_to(&mut self, next: u64) {
        self.next = next;
        self.in_use
            .resize((next - self.start).div_ceil(64) as usize, 0);
    }

    fn is_set(&self, pfn: u64) -> bool {
        let bit = pfn - self.start;
        self.in_use
            .get((bit / 64) as usize)
            .is_some_and(|word| word & (1 << (bit % 64)) != 0)
    }

    /// Sets or clears the bit of a frame the bump pointer has passed.
    fn mark(&mut self, pfn: u64, allocated: bool) {
        let bit = pfn - self.start;
        let word = &mut self.in_use[(bit / 64) as usize];
        if allocated {
            *word |= 1 << (bit % 64);
        } else {
            *word &= !(1 << (bit % 64));
        }
    }
}

/// Allocation statistics for one socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Frames currently allocated on the socket.
    pub allocated_frames: u64,
    /// Peak number of simultaneously allocated frames.
    pub peak_allocated_frames: u64,
    /// Frames still available on the socket.
    pub free_frames: u64,
}

/// Per-socket physical frame allocator with huge-frame support and an
/// external-fragmentation model.
///
/// # Example
///
/// ```
/// use mitosis_numa::{MachineConfig, SocketId};
/// use mitosis_mem::FrameAllocator;
///
/// let machine = MachineConfig::two_socket_small().build();
/// let mut alloc = FrameAllocator::new(&machine);
/// let on_zero = alloc.alloc_on(SocketId::new(0))?;
/// let on_one = alloc.alloc_on(SocketId::new(1))?;
/// assert_ne!(on_zero, on_one);
/// alloc.free(on_zero)?;
/// # Ok::<(), mitosis_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    space: FrameSpace,
    pools: Vec<SocketPool>,
    fragmentation: FragmentationModel,
}

impl FrameAllocator {
    /// Creates an allocator covering the machine's physical memory.
    pub fn new(machine: &Machine) -> Self {
        FrameAllocator::with_frame_space(FrameSpace::new(machine))
    }

    /// Creates an allocator over an explicit frame space (useful for tests).
    pub fn with_frame_space(space: FrameSpace) -> Self {
        let pools = (0..space.sockets())
            .map(|s| {
                let range = space.range_of(SocketId::new(s as u16));
                SocketPool {
                    start: range.start.pfn(),
                    next: range.start.pfn(),
                    end: range.end.pfn(),
                    free_list: Vec::new(),
                    in_use: Vec::new(),
                    allocated: 0,
                    peak_allocated: 0,
                }
            })
            .collect();
        FrameAllocator {
            space,
            pools,
            fragmentation: FragmentationModel::none(),
        }
    }

    /// Installs an external-fragmentation model (affects huge allocations).
    pub fn set_fragmentation(&mut self, model: FragmentationModel) {
        self.fragmentation = model;
    }

    /// The frame space this allocator manages.
    pub fn frame_space(&self) -> &FrameSpace {
        &self.space
    }

    /// Allocates one 4 KiB frame on exactly the given socket.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if the socket has no free frame.
    pub fn alloc_on(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        let pool = self
            .pools
            .get_mut(socket.index())
            .ok_or(MemError::OutOfMemory { socket })?;
        let frame = if let Some(frame) = pool.free_list.pop() {
            frame
        } else if pool.next < pool.end {
            let frame = FrameId::new(pool.next);
            pool.bump_to(pool.next + 1);
            frame
        } else {
            return Err(MemError::OutOfMemory { socket });
        };
        pool.mark(frame.pfn(), true);
        pool.allocated += 1;
        pool.peak_allocated = pool.peak_allocated.max(pool.allocated);
        Ok(frame)
    }

    /// Allocates one 4 KiB frame on the given socket, falling back to the
    /// other sockets in index order if it is full.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::MachineOutOfMemory`] if every socket is full.
    pub fn alloc_preferring(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        if let Ok(frame) = self.alloc_on(socket) {
            return Ok(frame);
        }
        for s in 0..self.space.sockets() {
            if s == socket.index() {
                continue;
            }
            if let Ok(frame) = self.alloc_on(SocketId::new(s as u16)) {
                return Ok(frame);
            }
        }
        Err(MemError::MachineOutOfMemory)
    }

    /// Allocates a 2 MiB-aligned run of 512 contiguous frames on the given
    /// socket, returning the first frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::HugeAllocationFailed`] if the socket cannot supply
    /// a contiguous aligned run, either because it is out of memory or
    /// because the fragmentation model rejects the request.
    pub fn alloc_huge_on(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        if self.fragmentation.huge_allocation_fails() {
            return Err(MemError::HugeAllocationFailed { socket });
        }
        let pool = self
            .pools
            .get_mut(socket.index())
            .ok_or(MemError::HugeAllocationFailed { socket })?;
        // Huge allocations are carved from the never-allocated region only;
        // the free list holds individual 4 KiB frames which we do not try to
        // coalesce (the fragmentation model covers that behaviour).
        let aligned = pool.next.div_ceil(FRAMES_PER_HUGE_PAGE) * FRAMES_PER_HUGE_PAGE;
        if aligned + FRAMES_PER_HUGE_PAGE > pool.end {
            return Err(MemError::HugeAllocationFailed { socket });
        }
        // Frames skipped for alignment go to the free list.
        for pfn in pool.next..aligned {
            pool.free_list.push(FrameId::new(pfn));
        }
        pool.bump_to(aligned + FRAMES_PER_HUGE_PAGE);
        for pfn in aligned..pool.next {
            pool.mark(pfn, true);
        }
        pool.allocated += FRAMES_PER_HUGE_PAGE;
        pool.peak_allocated = pool.peak_allocated.max(pool.allocated);
        Ok(FrameId::new(aligned))
    }

    /// Frees a previously allocated 4 KiB frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotAllocated`] if the frame is not currently
    /// allocated.
    pub fn free(&mut self, frame: FrameId) -> Result<(), MemError> {
        if !self.is_allocated(frame) {
            return Err(MemError::NotAllocated { pfn: frame.pfn() });
        }
        self.release(frame);
        Ok(())
    }

    /// Frees a 2 MiB run previously returned by [`Self::alloc_huge_on`].
    /// The run is checked whole before any frame is freed, so a failed call
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotAllocated`] naming the first frame of the run
    /// that is not currently allocated.
    pub fn free_huge(&mut self, first: FrameId) -> Result<(), MemError> {
        if let Some(missing) = (0..FRAMES_PER_HUGE_PAGE)
            .map(|i| first.offset(i))
            .find(|frame| !self.is_allocated(*frame))
        {
            return Err(MemError::NotAllocated { pfn: missing.pfn() });
        }
        for i in 0..FRAMES_PER_HUGE_PAGE {
            self.release(first.offset(i));
        }
        Ok(())
    }

    /// Returns an allocated frame to its socket's free list.
    fn release(&mut self, frame: FrameId) {
        let pool = &mut self.pools[self.space.socket_of(frame).index()];
        pool.mark(frame.pfn(), false);
        pool.free_list.push(frame);
        pool.allocated -= 1;
    }

    /// Returns `true` if `frame` is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        self.space.contains(frame)
            && self.pools[self.space.socket_of(frame).index()].is_set(frame.pfn())
    }

    /// Number of frames currently allocated across the whole machine.
    pub fn total_allocated(&self) -> u64 {
        self.pools.iter().map(|p| p.allocated).sum()
    }

    /// Allocation statistics for one socket.
    pub fn stats(&self, socket: SocketId) -> AllocStats {
        let pool = &self.pools[socket.index()];
        AllocStats {
            allocated_frames: pool.allocated,
            peak_allocated_frames: pool.peak_allocated,
            free_frames: pool.free_frames(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_allocator() -> FrameAllocator {
        FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 2048))
    }

    #[test]
    fn allocations_land_on_the_requested_socket() {
        let mut alloc = small_allocator();
        for _ in 0..16 {
            let f0 = alloc.alloc_on(SocketId::new(0)).unwrap();
            let f1 = alloc.alloc_on(SocketId::new(1)).unwrap();
            assert_eq!(alloc.frame_space().socket_of(f0), SocketId::new(0));
            assert_eq!(alloc.frame_space().socket_of(f1), SocketId::new(1));
        }
        assert_eq!(alloc.total_allocated(), 32);
    }

    #[test]
    fn strict_allocation_fails_when_socket_is_full() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 4));
        for _ in 0..4 {
            alloc.alloc_on(SocketId::new(0)).unwrap();
        }
        assert_eq!(
            alloc.alloc_on(SocketId::new(0)),
            Err(MemError::OutOfMemory {
                socket: SocketId::new(0)
            })
        );
        // Preferring allocation falls over to socket 1.
        let fallback = alloc.alloc_preferring(SocketId::new(0)).unwrap();
        assert_eq!(alloc.frame_space().socket_of(fallback), SocketId::new(1));
    }

    #[test]
    fn freed_frames_are_reused() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(0)).unwrap();
        alloc.free(f).unwrap();
        assert!(!alloc.is_allocated(f));
        let g = alloc.alloc_on(SocketId::new(0)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(0)).unwrap();
        alloc.free(f).unwrap();
        assert_eq!(alloc.free(f), Err(MemError::NotAllocated { pfn: f.pfn() }));
    }

    #[test]
    fn huge_allocations_are_aligned_and_contiguous() {
        let mut alloc = small_allocator();
        // Misalign the bump pointer first.
        let _ = alloc.alloc_on(SocketId::new(0)).unwrap();
        let huge = alloc.alloc_huge_on(SocketId::new(0)).unwrap();
        assert!(huge.is_huge_aligned());
        for i in 0..FRAMES_PER_HUGE_PAGE {
            assert!(alloc.is_allocated(huge.offset(i)));
        }
        alloc.free_huge(huge).unwrap();
        for i in 0..FRAMES_PER_HUGE_PAGE {
            assert!(!alloc.is_allocated(huge.offset(i)));
        }
    }

    #[test]
    fn failed_free_huge_changes_nothing() {
        let mut alloc = small_allocator();
        let socket = SocketId::new(0);
        let huge = alloc.alloc_huge_on(socket).unwrap();
        // A frame in the middle of the run is already free: the run as a
        // whole is not allocated, so freeing it must be refused outright.
        let hole = huge.offset(100);
        alloc.free(hole).unwrap();
        let total = alloc.total_allocated();
        let stats = alloc.stats(socket);
        assert_eq!(
            alloc.free_huge(huge),
            Err(MemError::NotAllocated { pfn: hole.pfn() })
        );
        assert_eq!(alloc.total_allocated(), total);
        assert_eq!(alloc.stats(socket), stats);
        for i in 0..FRAMES_PER_HUGE_PAGE {
            assert_eq!(alloc.is_allocated(huge.offset(i)), i != 100);
        }
        // The free list holds only the hole, not the frames before it.
        assert_eq!(alloc.alloc_on(socket).unwrap(), hole);
        assert_eq!(alloc.stats(socket).free_frames, stats.free_frames - 1);
    }

    #[test]
    fn huge_allocation_fails_under_full_fragmentation() {
        let mut alloc = small_allocator();
        alloc.set_fragmentation(FragmentationModel::with_probability(1.0));
        assert_eq!(
            alloc.alloc_huge_on(SocketId::new(0)),
            Err(MemError::HugeAllocationFailed {
                socket: SocketId::new(0)
            })
        );
        // Base-page allocation still succeeds.
        assert!(alloc.alloc_on(SocketId::new(0)).is_ok());
    }

    #[test]
    fn huge_allocation_fails_when_not_enough_contiguous_memory() {
        let mut alloc =
            FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(1, 100));
        assert!(alloc.alloc_huge_on(SocketId::new(0)).is_err());
    }

    #[test]
    fn stats_track_allocated_peak_and_free() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(0)).unwrap();
        let g = alloc.alloc_on(SocketId::new(0)).unwrap();
        alloc.free(f).unwrap();
        let stats = alloc.stats(SocketId::new(0));
        assert_eq!(stats.allocated_frames, 1);
        assert_eq!(stats.peak_allocated_frames, 2);
        assert_eq!(stats.free_frames, 2048 - 1);
        let _ = g;
    }
}
