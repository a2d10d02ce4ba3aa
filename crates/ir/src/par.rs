//! The workspace's one way to split work over cores: [`fan_out`] runs
//! contiguous batches of items on scoped threads with the caller as worker
//! 0, and [`available_threads`] is the one reading of the core count.
//!
//! There is no persistent pool: a call spawns `batches - 1` scoped threads
//! and joins them before it returns, so nothing outlives the borrow of the
//! items and the closure.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

/// The machine's available parallelism, or 1 when it cannot be read.
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Apply `f` to every item over up to `workers` threads and return the
/// results in item order.
///
/// `items` is split into `min(workers, items.len())` contiguous batches of
/// near-equal length (the first `len % batches` one item longer). Batch 0
/// runs on the calling thread; every other batch gets one scoped thread, so
/// one worker or one item spawns nothing. A panic in any batch is re-raised
/// on the caller with its original payload (the lowest batch's, if several
/// panic) once every batch has finished.
pub fn fan_out<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let batches = workers.min(n);
    if batches <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (base, extra) = (n / batches, n % batches);
    let mut rest = items.into_iter();
    let mut split = (0..batches).map(|b| {
        rest.by_ref()
            .take(base + usize::from(b < extra))
            .collect::<Vec<T>>()
    });
    let mine = split.next().unwrap_or_default();
    let f = &f;
    let run = move |batch: Vec<T>| batch.into_iter().map(f).collect::<Vec<R>>();
    let parts = thread::scope(|s| {
        let theirs: Vec<_> = split.map(|batch| s.spawn(move || run(batch))).collect();
        let first = panic::catch_unwind(AssertUnwindSafe(|| run(mine)));
        // Join every batch before re-raising, so a panic never leaves a
        // sibling running past the return.
        std::iter::once(first)
            .chain(theirs.into_iter().map(|h| h.join()))
            .collect::<Vec<_>>()
    });
    match parts.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(parts) => parts.into_iter().flatten().collect(),
        Err(payload) => panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};

    #[test]
    fn results_keep_item_order_for_any_worker_count() {
        for n in [3usize, 4, 5, 17] {
            for workers in [2usize, 4, 8] {
                let items: Vec<usize> = (0..n).collect();
                let got = fan_out(workers, items, |i| i * 10);
                assert_eq!(
                    got,
                    (0..n).map(|i| i * 10).collect::<Vec<_>>(),
                    "n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_caller() {
        let caller = thread::current().id();
        for (workers, n) in [(0usize, 5usize), (1, 5), (4, 1)] {
            let seen = Mutex::new(Vec::new());
            let got = fan_out(workers, (0..n).collect(), |i| {
                seen.lock().unwrap().push(thread::current().id());
                i
            });
            assert_eq!(got, (0..n).collect::<Vec<_>>());
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), n);
            assert!(
                seen.iter().all(|&id| id == caller),
                "workers={workers} n={n} spawned"
            );
        }
    }

    #[test]
    fn batch_zero_is_the_caller_and_the_rest_are_not() {
        let caller = thread::current().id();
        let ids = fan_out(3, (0..6).collect(), |_: usize| thread::current().id());
        // Batches [0,1] [2,3] [4,5]: the caller runs exactly the first.
        assert_eq!(ids[0], caller);
        assert_eq!(ids[1], caller);
        assert!(ids[2..].iter().all(|&id| id != caller));
        assert_eq!(ids[2], ids[3]);
        assert_eq!(ids[4], ids[5]);
        assert_ne!(ids[2], ids[4]);
    }

    #[test]
    fn zero_items_is_empty() {
        let got: Vec<u8> = fan_out(4, Vec::<u8>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn a_panic_off_the_caller_is_reraised_after_every_batch_finished() {
        // Batches [0] (the caller), [1] and [2]: the two siblings only
        // finish once batch 1 is on its way into the panic.
        let finished = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(3, vec![0usize, 1, 2], |i| {
                if i == 1 {
                    tx.send(()).unwrap();
                    tx.send(()).unwrap();
                    panic!("batch one failed");
                }
                rx.lock().unwrap().recv().unwrap();
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"batch one failed"));
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "re-raised before the other batches finished"
        );
    }
}
