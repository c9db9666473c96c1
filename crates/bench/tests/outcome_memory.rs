//! The heap the cached per-configuration check outcomes hold is counted
//! exactly. On a faulted EdgeIndent corpus with metadata, checked in full
//! and then again after an edit-local recheck, the bytes a counting
//! allocator sees freed when the outcomes `check_parts` returned are
//! dropped, once the engine that shared them is gone, equal STATS
//! `memory.outcome_bytes`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use concord_datagen::faults::{incidents, inject};
use concord_datagen::{generate_role_with, RoleSpec, Style};
use concord_engine::{Engine, EngineOptions};

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
fn cached_outcomes_are_counted_exactly() {
    let spec = RoleSpec {
        name: "E1".to_string(),
        devices: 8,
        style: Style::EdgeIndent,
        blocks: 16,
        with_metadata: true,
    };
    let role = generate_role_with(&spec, 59, false);
    let mut engine = Engine::from_corpus(&role.configs, &role.metadata, EngineOptions::default())
        .expect("corpus builds");
    engine.relearn();

    // Fault three devices, check them in full, then fault a fourth and
    // check it edit-locally, so the outcomes hold violations both found
    // and carried.
    let faults = [
        incidents::MISSING_AGGREGATE,
        incidents::ROGUE_VLAN_BLOCK,
        incidents::VRF_INSERTION,
        incidents::ROGUE_VLAN_BLOCK,
    ];
    for (i, fault) in faults.into_iter().enumerate().take(3) {
        let (name, text) = &role.configs[i];
        let planted = inject(text, fault).expect("edge configs carry every marker");
        engine.upsert_config(name, &planted.text);
    }
    engine.check_parts().expect("contracts loaded");
    let (name, text) = &role.configs[3];
    let planted = inject(text, faults[3]).expect("edge configs carry every marker");
    engine.upsert_config(name, &planted.text);
    let mut outcomes = engine.check_parts().expect("contracts loaded").configs;
    assert!(
        outcomes[3].rerun.relational < outcomes[4].rerun.relational,
        "an edit-local recheck next to a full run"
    );
    assert!(outcomes.iter().any(|o| !o.violations.is_empty()));

    let counted = engine.snapshot_stats().memory.outcome_bytes;
    assert!(counted > 0);
    drop(engine);

    // Every outcome is now held only here: clearing the list frees what
    // the engine's slots held.
    let before = live();
    outcomes.clear();
    assert_eq!(
        before - live(),
        counted as isize,
        "outcome_bytes must match the allocator"
    );
}
