//! Model-based check of the bitmap-backed `FrameAllocator`: random
//! sequences of allocations and frees — double frees, stray frees and huge
//! frees over partially freed runs included — must produce exactly what a
//! reference allocator that tracks membership in a `BTreeSet` produces.
//! The frames handed out, every error, `is_allocated`, `total_allocated`
//! and the per-socket statistics are compared after every step.

use mitosis_mem::{
    AllocStats, FrameAllocator, FrameId, FrameSpace, MemError, FRAMES_PER_HUGE_PAGE,
};
use mitosis_numa::SocketId;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One socket of the reference allocator.
#[derive(Debug)]
struct ModelPool {
    next: u64,
    end: u64,
    free_list: Vec<FrameId>,
    allocated: u64,
    peak: u64,
}

/// The reference: the same bump-pointer and LIFO free-list policy, with
/// membership in an ordered set and `free_huge` checking the whole run
/// before freeing any of it.
#[derive(Debug)]
struct Model {
    space: FrameSpace,
    pools: Vec<ModelPool>,
    allocated: BTreeSet<FrameId>,
}

impl Model {
    fn new(space: FrameSpace) -> Self {
        let pools = (0..space.sockets())
            .map(|s| {
                let range = space.range_of(SocketId::new(s as u16));
                ModelPool {
                    next: range.start.pfn(),
                    end: range.end.pfn(),
                    free_list: Vec::new(),
                    allocated: 0,
                    peak: 0,
                }
            })
            .collect();
        Model {
            space,
            pools,
            allocated: BTreeSet::new(),
        }
    }

    fn take(&mut self, socket: usize, frames: u64) {
        let pool = &mut self.pools[socket];
        pool.allocated += frames;
        pool.peak = pool.peak.max(pool.allocated);
    }

    fn alloc_on(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        let pool = &mut self.pools[socket.index()];
        let frame = match pool.free_list.pop() {
            Some(frame) => frame,
            None if pool.next < pool.end => {
                pool.next += 1;
                FrameId::new(pool.next - 1)
            }
            None => return Err(MemError::OutOfMemory { socket }),
        };
        self.take(socket.index(), 1);
        self.allocated.insert(frame);
        Ok(frame)
    }

    fn alloc_preferring(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        let order = std::iter::once(socket.index())
            .chain((0..self.pools.len()).filter(|s| *s != socket.index()));
        for s in order {
            if let Ok(frame) = self.alloc_on(SocketId::new(s as u16)) {
                return Ok(frame);
            }
        }
        Err(MemError::MachineOutOfMemory)
    }

    fn alloc_huge_on(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        let pool = &mut self.pools[socket.index()];
        let aligned = pool.next.div_ceil(FRAMES_PER_HUGE_PAGE) * FRAMES_PER_HUGE_PAGE;
        if aligned + FRAMES_PER_HUGE_PAGE > pool.end {
            return Err(MemError::HugeAllocationFailed { socket });
        }
        pool.free_list
            .extend((pool.next..aligned).map(FrameId::new));
        pool.next = aligned + FRAMES_PER_HUGE_PAGE;
        self.take(socket.index(), FRAMES_PER_HUGE_PAGE);
        let first = FrameId::new(aligned);
        self.allocated
            .extend((0..FRAMES_PER_HUGE_PAGE).map(|i| first.offset(i)));
        Ok(first)
    }

    fn release(&mut self, frame: FrameId) {
        self.allocated.remove(&frame);
        let pool = &mut self.pools[self.space.socket_of(frame).index()];
        pool.free_list.push(frame);
        pool.allocated -= 1;
    }

    fn free(&mut self, frame: FrameId) -> Result<(), MemError> {
        if !self.allocated.contains(&frame) {
            return Err(MemError::NotAllocated { pfn: frame.pfn() });
        }
        self.release(frame);
        Ok(())
    }

    fn free_huge(&mut self, first: FrameId) -> Result<(), MemError> {
        let run = (0..FRAMES_PER_HUGE_PAGE).map(|i| first.offset(i));
        if let Some(missing) = run.clone().find(|f| !self.allocated.contains(f)) {
            return Err(MemError::NotAllocated { pfn: missing.pfn() });
        }
        run.for_each(|frame| self.release(frame));
        Ok(())
    }

    fn stats(&self, socket: usize) -> AllocStats {
        let pool = &self.pools[socket];
        AllocStats {
            allocated_frames: pool.allocated,
            peak_allocated_frames: pool.peak,
            free_frames: (pool.end - pool.next) + pool.free_list.len() as u64,
        }
    }
}

/// Frames per socket to draw from: tight enough that base allocations
/// exhaust a socket, a non-power-of-two size whose second socket starts
/// unaligned (huge allocations skip frames onto the free list), and a
/// power-of-two size.
const FRAMES_PER_SOCKET: [u64; 3] = [40, 1100, 2048];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_allocator_matches_the_btreeset_model(
        sockets in 1usize..4,
        size in 0usize..3,
        ops in prop::collection::vec((0u8..5, 0u16..4, 0usize..4096), 1..160),
    ) {
        let space = FrameSpace::with_frames_per_socket(sockets, FRAMES_PER_SOCKET[size]);
        let mut alloc = FrameAllocator::with_frame_space(space.clone());
        let mut model = Model::new(space.clone());
        // Every frame either side handed out, plus an interior frame of each
        // huge run: the pool that frees (and double frees) pick from.
        let mut seen: Vec<FrameId> = Vec::new();
        for (step, &(kind, socket, pick)) in ops.iter().enumerate() {
            let socket = SocketId::new(socket % sockets as u16);
            let chosen = if seen.is_empty() || pick % 8 == 0 {
                // A stray frame, possibly outside physical memory.
                FrameId::new(pick as u64 % (space.total_frames() + 16))
            } else {
                seen[pick % seen.len()]
            };
            let (got, want) = match kind {
                0 => (alloc.alloc_on(socket), model.alloc_on(socket)),
                1 => (alloc.alloc_preferring(socket), model.alloc_preferring(socket)),
                2 => {
                    let (got, want) = (alloc.alloc_huge_on(socket), model.alloc_huge_on(socket));
                    if let Ok(first) = want {
                        seen.push(first.offset(pick as u64 % FRAMES_PER_HUGE_PAGE));
                    }
                    (got, want)
                }
                3 => (
                    alloc.free(chosen).map(|()| chosen),
                    model.free(chosen).map(|()| chosen),
                ),
                _ => (
                    alloc.free_huge(chosen).map(|()| chosen),
                    model.free_huge(chosen).map(|()| chosen),
                ),
            };
            prop_assert_eq!(got, want, "step {} ({}, {:?}, {:?})", step, kind, socket, chosen);
            if let Ok(frame) = want {
                seen.push(frame);
            }
            prop_assert_eq!(alloc.total_allocated(), model.allocated.len() as u64);
            for s in 0..sockets {
                prop_assert_eq!(alloc.stats(SocketId::new(s as u16)), model.stats(s), "step {}", step);
            }
            for frame in &seen {
                prop_assert_eq!(alloc.is_allocated(*frame), model.allocated.contains(frame));
            }
        }
        for pfn in 0..space.total_frames() + 16 {
            let frame = FrameId::new(pfn);
            prop_assert_eq!(alloc.is_allocated(frame), model.allocated.contains(&frame));
        }
    }
}
