//! Deterministic parallel fan-out for independent replications.
//!
//! Simulation studies run many independent replications; [`par_map`] spreads
//! them over `std::thread::scope` while keeping the output order — and
//! therefore every downstream statistic — identical to a sequential run.
//! Determinism comes from the caller seeding each task by *index* (see
//! [`crate::rng::Xoshiro256StarStar::stream`]), never from thread identity.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every index in `0..n`, in parallel, returning results in
/// index order. `f` must be deterministic in its index argument for the
/// overall computation to be reproducible.
///
/// Work is distributed by atomic work-stealing over a shared counter, so
/// uneven task costs balance automatically. With `threads == 1` (or `n <= 1`)
/// the computation runs on the calling thread.
///
/// # Panics
/// Propagates panics from worker tasks.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    {
        // Hand each worker a disjoint view of the output slots through a raw
        // chunked split: we instead collect per-worker (index, value) pairs to
        // stay in safe Rust, then scatter.
        let results: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        for bucket in results {
            for (i, v) in bucket {
                slots[i] = Some(v);
            }
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("par_map: missing result slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map(0, 4, |i| i as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_index_order() {
        let out = par_map(100, 8, |i| i * i);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn sequential_path_matches_parallel() {
        let seq = par_map(57, 1, |i| (i as f64).sqrt());
        let par = par_map(57, 4, |i| (i as f64).sqrt());
        assert_eq!(seq, par);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Heavier work for small indices — just assert completion/correctness.
        let out = par_map(32, 4, |i| {
            let mut acc = 0u64;
            for k in 0..(if i < 4 { 200_000 } else { 100 }) {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 32);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = par_map(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
