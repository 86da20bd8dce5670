//! A minimal scoped worker pool: order-preserving parallel map over owned
//! items with a fixed thread count.
//!
//! Like the in-repo [`crate::SplitMix64`], this exists so the workspace
//! needs no external dependency (rayon et al.): `std::thread::scope` is
//! enough for the driver's per-variant fan-out and the harness's sweep
//! over (benchmark × device) cells. Work is pulled from a shared atomic
//! cursor, so uneven item costs balance across workers, and results land in
//! the slot of their input index — callers observe exactly the order they
//! passed in, which is what keeps parallel tuning deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `threads` workers, preserving input
/// order in the result.
///
/// `threads <= 1` (or a single item) runs inline on the caller's thread
/// with no synchronisation at all, so the sequential path stays the
/// sequential path. A panic in `f` propagates to the caller once the scope
/// joins.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = lock_ok(&work[i]).take().expect("each item taken once");
                let r = f(item);
                *lock_ok(&slots[i]) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("scope joined, every slot filled")
        })
        .collect()
}

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let got = parallel_map(threads, items.clone(), |i| i * 3);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let got: Vec<usize> = parallel_map(4, Vec::<usize>::new(), |i| i);
        assert!(got.is_empty());
        assert_eq!(parallel_map(4, vec![41], |i| i + 1), vec![42]);
    }

    #[test]
    fn work_is_actually_distributed() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let ids = parallel_map(4, (0..64).collect::<Vec<_>>(), |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected more than one worker thread");
    }
}
