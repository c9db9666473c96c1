//! A deterministic work-stealing parallel-map helper.
//!
//! Both learning and checking parallelize over configurations (§4 exposes a
//! parallelism flag). Workers claim items one at a time from a shared
//! atomic cursor, so a skewed item (one huge configuration among many
//! small ones) occupies a single worker while the rest drain the remaining
//! items — unlike the earlier fixed-chunk splitter, which stalled every
//! worker behind the slowest chunk. Results are reassembled in input
//! order, so outputs are identical at every parallelism level.
//!
//! Worker panics are caught, all workers are joined, and the *first*
//! worker's original panic payload is re-raised on the calling thread, so
//! `assert!` messages and `panic!` payloads inside the mapped closure
//! survive intact.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Maps `f` over `items` using up to `parallelism` worker threads.
///
/// Results are returned in input order. `parallelism <= 1` (or a tiny
/// input) runs inline with no thread overhead.
///
/// # Panics
///
/// If `f` panics on any item, the panic payload of the first failing
/// worker is re-raised after all workers have stopped.
pub fn map<T, R, F>(items: &[T], f: F, parallelism: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if parallelism <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = parallelism.min(items.len());

    // The scheduler: a shared cursor over item indices. Claiming is
    // first-come-first-served (work stealing degenerates to an atomic
    // fetch-add when every worker steals from one global deque), while
    // output order is restored by scattering on the claimed index.
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);

    type WorkerOutcome<R> = Result<Vec<(usize, R)>, Box<dyn std::any::Any + Send + 'static>>;

    let outcomes: Vec<WorkerOutcome<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let poisoned = &poisoned;
                let f = &f;
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut local = Vec::new();
                        loop {
                            if poisoned.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(&items[i])));
                        }
                        local
                    }))
                    .inspect_err(|_| poisoned.store(true, Ordering::Relaxed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker caught its own unwind"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut first_panic = None;
    for outcome in outcomes {
        match outcome {
            Ok(pairs) => {
                for (i, r) in pairs {
                    slots[i] = Some(r);
                }
            }
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }

    slots
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = map(&items, |&x| x * 2, 4);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback() {
        let items = vec![1, 2, 3];
        assert_eq!(map(&items, |&x| x + 1, 1), vec![2, 3, 4]);
        assert_eq!(map(&items, |&x| x + 1, 0), vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_items() {
        let items = vec![5, 6];
        assert_eq!(map(&items, |&x| x, 16), vec![5, 6]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        assert!(map(&items, |&x| x, 8).is_empty());
    }

    #[test]
    fn parallel_equals_sequential() {
        let items: Vec<u64> = (0..997).collect();
        let seq = map(&items, |&x| x.wrapping_mul(31).rotate_left(7), 1);
        let par = map(&items, |&x| x.wrapping_mul(31).rotate_left(7), 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn skewed_items_do_not_serialize_the_rest() {
        // One item 100x heavier than the others: with chunked scheduling
        // at 4 workers the heavy item's chunk also carried ~250 light
        // items; with per-item claiming it carries only itself. We can't
        // assert wall-clock robustly, but we can assert correctness under
        // heavy skew.
        let items: Vec<u64> = (0..1000).collect();
        let out = map(
            &items,
            |&x| {
                let spins = if x == 0 { 100_000 } else { 100 };
                (0..spins).fold(x, |acc, i| acc.wrapping_add(i ^ acc.rotate_left(3)))
            },
            4,
        );
        let expected = map(
            &items,
            |&x| {
                let spins = if x == 0 { 100_000 } else { 100 };
                (0..spins).fold(x, |acc, i| acc.wrapping_add(i ^ acc.rotate_left(3)))
            },
            1,
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn worker_panic_propagates_original_payload() {
        let items: Vec<u32> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(
                &items,
                |&x| {
                    if x == 13 {
                        panic!("boom on item {x}");
                    }
                    x
                },
                4,
            )
        }))
        .expect_err("map must propagate the worker panic");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload is the original panic message");
        assert_eq!(message, "boom on item 13");
    }

    #[test]
    fn panic_in_sequential_mode_also_propagates() {
        let items = vec![1u8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(&items, |_| -> u8 { panic!("inline boom") }, 1)
        }))
        .expect_err("inline panic propagates");
        assert_eq!(*caught.downcast_ref::<&str>().unwrap(), "inline boom");
    }
}
