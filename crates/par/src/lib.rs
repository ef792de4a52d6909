//! The default worker count of `igdb serve`, with a scoped override.
//!
//! The build is serial (every reading since PR 11 had two threads no
//! faster than one; see EXPERIMENTS.md). What is left here sizes the query
//! server's worker pool when `--workers` is absent, and lets the benchmark
//! pin that count per scope.

use std::cell::Cell;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The innermost active [`with_threads`] count on this thread, else
/// `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE.with(|o| o.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` with [`num_threads`] pinned to `n` (at least 1) on the calling
/// thread. The override is thread-local and restored on exit (including
/// unwind), so concurrent tests can pin different counts without racing on
/// the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|o| o.set(prev));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_nests_and_restores() {
        assert_eq!(THREAD_OVERRIDE.with(|o| o.get()), None);
        with_threads(2, || {
            assert_eq!(num_threads(), 2);
            with_threads(5, || assert_eq!(num_threads(), 5));
            assert_eq!(num_threads(), 2);
        });
        assert_eq!(THREAD_OVERRIDE.with(|o| o.get()), None);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let r = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(THREAD_OVERRIDE.with(|o| o.get()), None);
    }

    #[test]
    fn with_threads_zero_clamps_to_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }
}
