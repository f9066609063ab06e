//! Scoped-thread data parallelism for the model and trial hot paths.
//!
//! The tuning service refits surrogates on every proposal, so model
//! work is provider-side overhead that scales with tenant traffic
//! (§IV). This module gives the crates a tiny, dependency-light
//! fork/join layer over `crossbeam::thread::scope`, used by per-tree
//! forest induction, EI candidate scoring, k-medoids swap scoring, the
//! executor's trial rounds and the service's tenant fan-out. The GP hyperparameter grid is not
//! among them: [`crate::GpFitCache`] grows its 15 factors on the calling
//! thread, because forking 5 length scales cost more than the
//! factorizations (traced perfbench on 2 vCPUs put the fit at
//! 0.33–0.43 ms per tune on one thread against 1.5–2.9 ms fanned out).
//!
//! * [`par_map`] — order-preserving parallel map over a slice;
//! * [`par_chunks`] — order-preserving parallel flat-map over contiguous
//!   chunks (lets workers reuse per-chunk scratch buffers);
//! * [`num_threads`] — worker count from `available_parallelism`, with a
//!   `SEAMLESS_THREADS` environment override.
//!
//! Every function has a sequential fallback for tiny inputs or a single
//! worker, and both helpers take an explicit thread count variant
//! (`*_threads`) so equivalence tests can pin the fan-out. Callers are
//! responsible for keeping results deterministic: closures must be pure
//! functions of their input (seed-split RNGs, no shared mutable state),
//! and both helpers return results in input order regardless of the
//! thread count.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SEAMLESS_THREADS";

/// The process-wide worker count: `SEAMLESS_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// Resolved once and cached (the hot paths call this per fit).
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| threads_from(std::env::var(THREADS_ENV).ok().as_deref()))
}

/// Pure resolution logic behind [`num_threads`], separated for tests.
pub(crate) fn threads_from(env: Option<&str>) -> usize {
    if let Some(v) = env {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parallel map with the process-wide thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, num_threads(), f)
}

/// Parallel map with an explicit thread count. Results are returned in
/// input order; with `threads <= 1` (or fewer than two items) this is a
/// plain sequential map, and both paths call `f` on items in the same
/// order within each contiguous chunk.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    let per_chunk: Vec<Vec<R>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move |_| c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
    .expect("scope itself cannot fail");
    per_chunk.into_iter().flatten().collect()
}

/// Parallel flat-map over contiguous chunks, with the process-wide
/// thread count. `f` receives whole chunks (at least `min_chunk` items
/// each, except possibly the last) so it can amortize per-chunk scratch
/// allocations; the concatenated output preserves input order.
pub fn par_chunks<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    par_chunks_threads(items, num_threads(), min_chunk, f)
}

/// Parallel chunked flat-map with an explicit thread count. Inputs
/// smaller than two chunks (or `threads <= 1`) run sequentially as one
/// chunk.
pub fn par_chunks_threads<T, R, F>(items: &[T], threads: usize, min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let min_chunk = min_chunk.max(1);
    let threads = threads.max(1).min(items.len() / min_chunk);
    if threads <= 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads).max(min_chunk);
    let f = &f;
    let per_chunk: Vec<Vec<R>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move |_| f(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_chunks worker panicked"))
            .collect()
    })
    .expect("scope itself cannot fail");
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(par_map_threads(&items, threads, |x| x * x), expect);
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map_threads::<u32, u32, _>(&[], 8, |x| *x), vec![]);
        assert_eq!(par_map_threads(&[5u32], 8, |x| x + 1), vec![6]);
    }

    #[test]
    fn par_chunks_matches_flat_map() {
        let items: Vec<i64> = (0..131).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 16] {
            let got =
                par_chunks_threads(&items, threads, 10, |c| c.iter().map(|x| x * 3).collect());
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn par_chunks_respects_min_chunk_sequentially() {
        // 8 items with min_chunk 100 => single sequential chunk.
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let got = par_chunks_threads(&[1u8; 8][..], 8, 100, |c| {
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            c.to_vec()
        });
        assert_eq!(got.len(), 8);
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        // Invalid values fall back to the machine's parallelism (>= 1).
        assert!(threads_from(Some("zero")) >= 1);
        assert!(threads_from(Some("0")) >= 1);
        assert!(threads_from(None) >= 1);
    }
}
