//! Heap allocations per visited configuration of the explorer, counted
//! by a global allocator local to this test binary. The explorer keeps
//! each component state and each step once, and stores the traces of
//! the configurations it builds as nodes in one block per build chunk,
//! so a visited configuration costs a fraction of an allocation.

use revisionist_simulations::protocols::racing_system;
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One test, so no other test of this binary allocates while it counts.
#[test]
fn racing3_allocates_a_fraction_of_a_block_per_state() {
    let inputs: Vec<Value> = (1..=3).map(Value::Int).collect();
    let initial = racing_system(2, &inputs);
    for threads in [1, 2] {
        let explorer = Explorer::new(Limits { max_depth: 20, max_configs: usize::MAX })
            .with_threads(threads);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = explorer.explore_parallel(&initial, &|_| None).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let per_state = allocations as f64 / report.configs_visited as f64;
        eprintln!(
            "threads {threads}: {allocations} allocations over {} states, {per_state:.3} per state",
            report.configs_visited
        );
        assert!(report.configs_visited > 100_000, "{report:?}");
        assert!(per_state <= 0.3, "threads {threads}: {per_state:.3} allocations per state");
    }
}
