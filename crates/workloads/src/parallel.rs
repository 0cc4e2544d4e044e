//! Order-preserving parallel map on `std` scoped threads.
//!
//! The figure sweeps evaluate many independent `(configuration, rate)`
//! points; each point runs a complete simulation, so the sweep is
//! embarrassingly parallel. Rayon is not part of the approved offline crate
//! set, so this module provides the one primitive the harness needs: a
//! `parallel_map` that executes a job per input item on a bounded worker
//! pool and returns results in input order.
//!
//! Work distribution uses an atomic cursor over the input slice (dynamic
//! load balancing — simulation points near saturation run much longer than
//! low-load points, so static chunking would straggle).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Render a panic payload the way the default hook does: `&str` and
/// `String` payloads verbatim, anything else opaquely.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Map `f` over `items` using up to `threads` workers, preserving input
/// order in the output.
///
/// `threads == 0` or `threads == 1` (or a single item) degrades to a
/// sequential map.
///
/// # Panics
///
/// A panic in `f` is re-raised on the caller's thread with the failing
/// item identified (its index and `Debug` rendering) and the original
/// message preserved — not swallowed into an opaque "worker thread
/// panicked". Remaining in-flight items still complete; the first
/// panicking item (by index) wins when several fail.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync + std::fmt::Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

    // `f` runs inside `catch_unwind`, never under a lock, and every
    // locked update is a single assignment — so a poisoned lock still
    // guards valid data and is recovered rather than propagated.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(r) => {
                        *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                    }
                    Err(payload) => {
                        let mut slot = failure.lock().unwrap_or_else(PoisonError::into_inner);
                        match &*slot {
                            Some((first, _)) if *first <= i => {}
                            _ => *slot = Some((i, payload)),
                        }
                        break;
                    }
                }
            });
        }
    });

    let failure = failure.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some((i, payload)) = failure {
        let msg = panic_message(payload.as_ref());
        if payload.downcast_ref::<&str>().is_some() || payload.downcast_ref::<String>().is_some() {
            panic!("worker panicked on item {i} ({:?}): {msg}", items[i]);
        }
        // Non-string payload: identify the item, then hand the original
        // payload back unaltered for upstream downcasts.
        eprintln!("worker panicked on item {i} ({:?})", items[i]);
        resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot must be filled")
        })
        .collect()
}

/// Pick a worker count: `requested` if nonzero, otherwise the machine's
/// available parallelism (at least 1).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, 8, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn sequential_fallbacks() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 0, |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let n = 1000;
        let hits = AtomicU64::new(0);
        let items: Vec<usize> = (0..n).collect();
        let out = parallel_map(&items, 16, |&i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), n as u64);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn unbalanced_work_completes() {
        // Items with wildly different costs must all finish (dynamic
        // scheduling regression test).
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 4, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn effective_threads_resolves() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn worker_panic_identifies_the_item() {
        let items: Vec<u32> = (0..32).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 17 {
                    panic!("replicate exploded");
                }
                x
            })
        })
        .expect_err("the worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("contextualised panics carry a String payload");
        assert!(msg.contains("item 17"), "missing item index: {msg}");
        assert!(msg.contains("replicate exploded"), "missing cause: {msg}");
    }

    #[test]
    fn other_items_survive_a_panicking_sibling() {
        // A panic on one item must not poison siblings mid-flight: the
        // scope still joins cleanly and the panic carries context.
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 8, |&x| {
                if x == 0 {
                    panic!("first item fails");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                x
            })
        })
        .expect_err("the worker panic must propagate");
        let msg = caught.downcast_ref::<String>().unwrap();
        assert!(msg.contains("item 0"), "lowest failing index wins: {msg}");
    }

    #[test]
    fn a_panic_with_every_worker_busy_neither_deadlocks_nor_poisons() {
        // Item 5 panics only once all 8 workers hold an item (the barrier
        // forces the interleaving), so its siblings are mid-flight and
        // store their results after the failure slot was written. The
        // caller must get the contextualised panic — not a hang, and not
        // a `PoisonError` from a lock.
        let items: Vec<u32> = (0..8).collect();
        let gate = std::sync::Barrier::new(items.len());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 8, |&x| {
                gate.wait();
                if x == 5 {
                    panic!("replicate exploded");
                }
                x
            })
        }))
        .expect_err("the worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("a PoisonError payload would not be a String");
        assert!(msg.contains("item 5"), "missing item index: {msg}");
        assert!(msg.contains("replicate exploded"), "missing cause: {msg}");
        assert!(!msg.contains("Poison"), "lock poisoning leaked: {msg}");
    }

    #[test]
    fn non_string_payloads_resume_unaltered() {
        #[derive(Debug, PartialEq)]
        struct Custom(u32);
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 3 {
                    std::panic::panic_any(Custom(3));
                }
                x
            })
        })
        .expect_err("the worker panic must propagate");
        let payload = caught
            .downcast_ref::<Custom>()
            .expect("typed payloads survive for upstream downcasts");
        assert_eq!(*payload, Custom(3));
    }
}
