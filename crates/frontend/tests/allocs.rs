//! Allocation budget of the front end, as a deterministic count: parsing
//! a suite kernel may allocate at most 8 blocks more than cloning the
//! tree it returns. The clone is the floor — every name, every `Box`ed
//! expression node and every statement list is one allocation — so the
//! budget leaves room for the parser's own few scratch vectors and
//! nothing per token.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread; what it returns is dropped
/// outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn parse_allocates_at_most_the_tree_plus_eight() {
    let mut rows = Vec::new();
    for spec in vapor_kernels::suite() {
        let (parse, k) = allocations(|| vapor_frontend::parse_kernel(spec.source).unwrap());
        let (clone, copy) = allocations(|| k.clone());
        assert_eq!(copy, k);
        rows.push((spec.name, parse, clone));
    }
    let over: Vec<String> = rows
        .iter()
        .filter(|(_, parse, clone)| parse > &(clone + 8))
        .map(|(name, parse, clone)| format!("{name}: parse {parse} vs clone {clone}"))
        .collect();
    let mean = |pick: fn(&(&str, usize, usize)) -> usize| {
        rows.iter().map(pick).sum::<usize>() as f64 / rows.len() as f64
    };
    assert!(
        over.is_empty(),
        "parse_kernel over its allocation budget (mean parse {:.1} vs clone {:.1}):\n{}",
        mean(|r| r.1),
        mean(|r| r.2),
        over.join("\n")
    );
}
