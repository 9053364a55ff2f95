//! Allocation budget of the decoder, as a deterministic count: decoding a
//! suite module may allocate at most 2 blocks more than cloning the
//! module it returns. The clone is the floor — every name, every
//! statement list and every source or guard list is one allocation — so
//! the budget leaves nothing per byte, per tag or per error path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vapor_bytecode::{decode_module, encode_module, BcModule};
use vapor_vectorizer::{emit_scalar_function, vectorize, VectorizeOptions};

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
fn decode_allocates_at_most_the_module_plus_two() {
    let mut over = Vec::new();
    for spec in vapor_kernels::suite() {
        let k = spec.kernel();
        for (what, func) in [
            ("split", vectorize(&k, &VectorizeOptions::default()).func),
            ("scalar", emit_scalar_function(&k)),
        ] {
            let bytes = encode_module(&BcModule::single(func));
            let (decode, m) = allocations(|| decode_module(&bytes).unwrap());
            let (clone, copy) = allocations(|| m.clone());
            assert_eq!(copy, m);
            if decode > clone + 2 {
                over.push(format!(
                    "{} ({what}): decode {decode} vs clone {clone}",
                    spec.name
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "decode_module over its allocation budget:\n{}",
        over.join("\n")
    );
}
