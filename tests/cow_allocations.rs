//! Copy-on-write breaks cost no host allocations.
//!
//! A break resolves its leaf once, rewrites it in place and records a
//! one-page shootdown, which the caller drains into a plan buffer it
//! reuses.  Nothing on that path allocates per break: the only host
//! allocations left are the amortised growth of the structures that hold
//! the new frames (frame-table slab and directory, allocator bitmap).
//! This binary installs a counting global allocator to hold it to that.

use mitosis::Mitosis;
use mitosis_numa::{MachineConfig, SocketId};
use mitosis_pt::{PageSize, ShootdownPlan};
use mitosis_vmm::{MmapFlags, ShootdownMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract for a
        // block `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn copy_on_write_breaks_do_not_allocate_per_break() {
    const PAGES: u64 = 2048;
    const BREAKS: u64 = 1024;
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(MachineConfig::two_socket_small().build());
    system.set_shootdown_mode(ShootdownMode::Ranged);
    let pid = system.create_process(SocketId::new(0)).expect("process");
    let page = PageSize::Base4K.bytes();
    let region = system
        .mmap(pid, PAGES * page, MmapFlags::populate().without_thp())
        .expect("populated mmap");
    mitosis
        .enable_for_process(&mut system, pid, None)
        .expect("replicate");
    system.fork(pid).expect("fork");
    let mut plan = ShootdownPlan::default();
    system.drain_shootdown_plan(&mut plan);

    let mut break_page = |system: &mut mitosis_vmm::System, index: u64| {
        let addr = region.add((index * 1031 % PAGES) * page);
        let fault = system
            .handle_fault_access(pid, addr, SocketId::new(0), true)
            .expect("copy-on-write break");
        system.drain_shootdown_plan(&mut plan);
        assert!(!fault.already_mapped);
        assert_eq!(plan.pages(), 1);
    };
    // The first break sizes the plan buffers.
    break_page(&mut system, 0);
    let before = ALLOCS.load(Ordering::Relaxed);
    for index in 1..=BREAKS {
        break_page(&mut system, index);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    // Per-break allocation would show as at least one per break; geometric
    // slab and bitmap growth stays logarithmic in the frames added.
    assert!(
        allocs <= BREAKS / 64,
        "{allocs} host allocations over {BREAKS} copy-on-write breaks"
    );
}
