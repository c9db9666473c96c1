//! The heap the resident learn sketches hold is counted exactly and
//! stays compact. On a `serve_read`-shaped corpus of small flat-WAN (W6)
//! devices, the bytes a counting allocator sees the sketches hold equal
//! the sum of `ConfigSketch::heap_bytes`, and average under 48 KiB per
//! configuration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use concord::core::{sketch_config, ConfigSketch, Dataset, LearnParams};
use concord::datagen::{generate_role, RoleSpec, Style};

thread_local! {
    /// Bytes this thread allocated and has not freed. Const-initialized
    /// and without a destructor, so reading or updating it never
    /// allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to the current thread's live-byte count. Other threads'
/// allocations go to their own counts, so the test harness's threads do
/// not disturb the measuring one.
fn count(delta: isize) {
    // Fails only while the thread's locals are being torn down, after
    // the measurement is over.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The system allocator, counting each thread's live bytes.
struct ThreadCounting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting only updates a
// thread-local `Cell` and never allocates or touches the blocks.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for
        // `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by
        // `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

#[test]
fn resident_sketches_are_counted_exactly_and_compact() {
    let spec = RoleSpec {
        name: "W6".into(),
        devices: 64,
        style: Style::WanFlat,
        blocks: 2,
        with_metadata: false,
    };
    let role = generate_role(&spec, 59);
    let ds = Dataset::from_named_texts(&role.configs, &role.metadata).unwrap();
    let params = LearnParams::default();
    let sketches: Vec<ConfigSketch> = (0..ds.configs.len())
        .map(|ci| sketch_config(&ds, ci, &params))
        .collect();
    let counted: usize = sketches.iter().map(ConfigSketch::heap_bytes).sum();

    // What each sketch frees when dropped is what it held.
    let mut held = 0;
    for sketch in sketches {
        let before = live();
        drop(sketch);
        held += before - live();
    }
    assert_eq!(
        held, counted as isize,
        "heap_bytes must match the allocator"
    );

    let mean = counted / ds.configs.len();
    assert!(
        mean < 48 * 1024,
        "{mean} bytes of sketch per config, over 48 KiB"
    );
}
