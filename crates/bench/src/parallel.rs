//! Multi-seed parallel runner: N independent simulations on N threads.
//!
//! Experiments almost always sweep something embarrassingly parallel —
//! seeds, node counts, failover modes — where each run builds its own
//! [`siphoc_simnet::world::World`] from scratch. [`run_indexed`] fans such a
//! sweep out over a bounded worker pool: results come back in input
//! order, each run is exactly the run a sequential loop would have
//! produced (worlds share nothing), and `jobs = 1` degenerates to a
//! plain inline loop so single-threaded behavior is untouched.
//!
//! Note the caveat every parallel benchmark harness carries: wall-clock
//! timings taken *inside* concurrently running jobs contend for cores
//! and caches. Use `jobs > 1` to cut sweep latency, and `jobs = 1` when
//! individual per-run timings must be publication-grade.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A take-a-number dispenser for dynamic work distribution: each
/// [`WorkCursor::claim`] returns a distinct index in `0..limit` (in
/// arrival order) until the range is exhausted. [`run_indexed`] hands
/// jobs to whichever thread frees up first, and depends on every index
/// being claimed exactly once regardless of thread timing.
struct WorkCursor {
    next: AtomicUsize,
    limit: usize,
}

impl WorkCursor {
    fn new(limit: usize) -> WorkCursor {
        WorkCursor {
            next: AtomicUsize::new(0),
            limit,
        }
    }

    /// Claims the next unclaimed index, or `None` once all are taken.
    #[inline]
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.limit).then_some(i)
    }
}

/// Runs `f(0..count)` across up to `jobs` worker threads and returns the
/// results in index order.
///
/// Work is handed out dynamically (an atomic cursor), so uneven run
/// times — a 10 k-node scenario next to a 50-node one — still pack the
/// pool. `jobs` is clamped to `[1, count]`; with one job (or one item)
/// everything runs inline on the caller's thread with no pool at all.
///
/// # Panics
///
/// Panics if any job panics (the panic is propagated once all workers
/// have stopped).
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, count.max(1));
    if jobs <= 1 {
        return (0..count).map(f).collect();
    }
    let cursor = WorkCursor::new(count);
    let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                while let Some(i) = cursor.claim() {
                    let r = f(i);
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("job {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_cursor_hands_out_each_index_once_then_none() {
        let c = WorkCursor::new(3);
        assert_eq!(c.claim(), Some(0));
        assert_eq!(c.claim(), Some(1));
        assert_eq!(c.claim(), Some(2));
        assert_eq!(c.claim(), None);
        assert_eq!(c.claim(), None);
    }

    #[test]
    fn results_come_back_in_input_order() {
        let got = run_indexed(4, 17, |i| i * 3);
        assert_eq!(got, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let got = run_indexed(1, 5, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let got = run_indexed(16, 2, |i| i);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn zero_items_yield_empty() {
        let got: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(got.is_empty());
    }
}
