//! Deterministic parallel map over index ranges.
//!
//! The analytics sweeps (clustering over every node, feature extraction for
//! every account, per-suspect defense verdicts, CV folds) are all shaped
//! like `(0..len).map(f).collect()` with a pure `f`. This module runs that
//! shape across threads while keeping the output **bit-identical** to the
//! serial loop: the index range is split into contiguous chunks, each
//! worker computes its chunk in index order, and the caller joins the
//! workers in spawn order, concatenating their chunks by position. No
//! reduction reassociation, no work stealing — so floating-point results
//! cannot differ from the serial path.
//!
//! Thread count comes from the `RENREN_THREADS` environment variable when
//! set (any value ≥ 1), otherwise from `std::thread::available_parallelism`.
//! With one thread (or one-element inputs) everything runs inline on the
//! calling thread with zero spawn overhead.

use std::thread;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "RENREN_THREADS";

/// The number of worker threads parallel maps will use: the
/// `RENREN_THREADS` override when set and ≥ 1, else available parallelism.
pub fn num_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(0..len).map(f).collect()`, computed on [`num_threads`] threads with
/// output order (and every output bit) identical to the serial loop.
pub fn map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(len, || (), move |(), i| f(i))
}

/// Like [`map_indexed`], with a per-worker scratch state built by `init`
/// (e.g. a [`NeighborScratch`](crate::snapshot::NeighborScratch) or an
/// RNG-free reusable buffer). `init` runs once per worker chunk; `f` must
/// produce output independent of the scratch's history for determinism to
/// hold — scratch is for *allocations*, not for values.
pub fn map_indexed_with<S, T, I, F>(len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = num_threads().min(len);
    if threads <= 1 {
        let mut scratch = init();
        return (0..len).map(|i| f(&mut scratch, i)).collect();
    }

    let chunk = len.div_ceil(threads);
    let (init, f) = (&init, &f);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                scope.spawn(move || {
                    let mut scratch = init();
                    (start..end).map(|i| f(&mut scratch, i)).collect::<Vec<T>>()
                })
            })
            .collect();
        join_in_order(workers, len)
    })
}

/// Concatenate worker chunks in spawn order — which is index order — and
/// re-raise a worker's panic on the calling thread with its own payload.
fn join_in_order<T>(workers: Vec<thread::ScopedJoinHandle<'_, Vec<T>>>, len: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    for worker in workers {
        match worker.join() {
            Ok(vals) => out.extend(vals),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// `items.into_iter().map(f).collect()` across threads: each item is
/// *moved* into exactly one worker and mapped there, with the output
/// reassembled in input order. This is the primitive for stateful shard
/// workers — each shard's (large, owned) state travels to a worker thread
/// for the duration of one epoch and comes back transformed, with no
/// sharing and no locks. Output position `i` always holds `f(items[i])`,
/// so results are bit-identical at every thread count.
pub fn map_owned<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let threads = num_threads().min(len);
    if threads <= 1 {
        return items.into_iter().map(&f).collect();
    }

    let chunk = len.div_ceil(threads);
    // Split into contiguous per-worker chunks up front; ownership of each
    // chunk moves into its worker thread.
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let part: Vec<T> = it.by_ref().take(chunk).collect();
        if part.is_empty() {
            break;
        }
        chunks.push(part);
    }

    let f = &f;
    thread::scope(|scope| {
        let workers: Vec<_> = chunks
            .into_iter()
            .map(|part| scope.spawn(move || part.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        join_in_order(workers, len)
    })
}

/// `items.iter().map(f).collect()` across threads, order-preserving.
pub fn map_slice<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body` with `RENREN_THREADS` pinned, restoring the prior value.
    /// Env vars are process-global, so tests touching them share one lock.
    fn with_threads_env(value: Option<&str>, body: impl FnOnce()) {
        use std::sync::{Mutex, OnceLock};
        static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let _guard = ENV_LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
        let prior = std::env::var(THREADS_ENV).ok();
        match value {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        body();
        match prior {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn matches_serial_map_exactly() {
        for &threads in &["1", "2", "3", "8"] {
            with_threads_env(Some(threads), || {
                let expected: Vec<f64> = (0..103).map(|i| (i as f64).sqrt().sin()).collect();
                let got = map_indexed(103, |i| (i as f64).sqrt().sin());
                assert_eq!(got, expected, "threads={threads}");
            });
        }
    }

    #[test]
    fn handles_short_and_empty_inputs() {
        with_threads_env(Some("4"), || {
            assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
            assert_eq!(map_indexed(1, |i| i * 7), vec![0]);
            assert_eq!(map_indexed(3, |i| i), vec![0, 1, 2]);
        });
    }

    #[test]
    fn scratch_is_per_worker() {
        with_threads_env(Some("4"), || {
            // Each worker's scratch counts its own calls; outputs stay
            // index-determined regardless of which worker computed them.
            let got = map_indexed_with(
                20,
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    i * 2
                },
            );
            assert_eq!(got, (0..20).map(|i| i * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn env_override_controls_thread_count() {
        with_threads_env(Some("3"), || assert_eq!(num_threads(), 3));
        with_threads_env(Some("not-a-number"), || {
            assert!(num_threads() >= 1);
        });
        with_threads_env(Some("0"), || assert!(num_threads() >= 1));
    }

    #[test]
    fn map_owned_moves_items_and_preserves_order() {
        for &threads in &["1", "2", "8"] {
            with_threads_env(Some(threads), || {
                // Non-Clone, non-Copy items prove real moves.
                let items: Vec<Box<usize>> = (0..23).map(Box::new).collect();
                let got = map_owned(items, |b| *b * 3);
                assert_eq!(got, (0..23).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
            });
        }
        with_threads_env(Some("4"), || {
            assert_eq!(map_owned(Vec::<u8>::new(), |b| b), Vec::<u8>::new());
        });
    }

    #[test]
    fn worker_panic_reraises_its_payload() {
        with_threads_env(Some("4"), || {
            let caught = std::panic::catch_unwind(|| {
                map_indexed(8, |i| if i == 5 { panic!("chunk-{i}") } else { i })
            });
            let payload = caught.expect_err("worker panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("chunk-5")
            );
        });
    }

    #[test]
    fn map_slice_preserves_order() {
        with_threads_env(Some("2"), || {
            let items: Vec<String> = (0..9).map(|i| format!("s{i}")).collect();
            let got = map_slice(&items, |s| s.len());
            assert_eq!(got, vec![2; 9]);
        });
    }
}
