//! Opt-in parallel execution of the ingestion hot paths.
//!
//! Built with the `rayon` cargo feature, the per-chunk stages of the XES
//! and CSV importers — trace-chunk parsing and CSV row sniffing — fan out
//! over all cores. Without the feature every function here degenerates to
//! its serial form and [`set_parallel`] is a no-op, so callers never need
//! `cfg` guards. This toggle is the only one in the system:
//! `gecco_core::parallel` re-exports [`set_parallel`] and
//! [`parallel_enabled`] and reads them for its own hot paths, so one call
//! switches ingestion and the core pipeline together.
//!
//! Parallel ingestion is **bit-identical** to serial ingestion: chunks are
//! parsed into fragments with thread-local interners and merged in document
//! order, so symbol and class-id assignment never depends on the worker
//! count (asserted by `tests/ingest_equivalence.rs`).

// gecco-lint: allow-file(unordered-par) — this module IS the ingestion-side order-preserving
// seam: chunk results are merged in document order, proven bit-identical to serial ingestion
// by the xes/csv equivalence tests
#[cfg(feature = "rayon")]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "rayon")]
static PARALLEL: AtomicBool = AtomicBool::new(true);

/// Enables or disables parallel ingestion process-wide.
///
/// Without the `rayon` feature this is a no-op and ingestion is always
/// serial. Results are identical either way; only wall-clock time changes.
pub fn set_parallel(enabled: bool) {
    #[cfg(feature = "rayon")]
    PARALLEL.store(enabled, Ordering::Relaxed);
    #[cfg(not(feature = "rayon"))]
    let _ = enabled;
}

/// Whether parallel ingestion is compiled in *and* currently enabled.
pub fn parallel_enabled() -> bool {
    #[cfg(feature = "rayon")]
    {
        PARALLEL.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "rayon"))]
    {
        false
    }
}

/// Number of workers a parallel fan-out would use right now (1 when
/// parallelism is compiled out, disabled, or the machine has one core).
pub(crate) fn worker_count() -> usize {
    #[cfg(feature = "rayon")]
    {
        if parallel_enabled() {
            rayon::current_num_threads()
        } else {
            1
        }
    }
    #[cfg(not(feature = "rayon"))]
    {
        1
    }
}

/// Maps `f` over `items`, in parallel when enabled and there are at least
/// `min_items` of them; output order always matches input order.
pub(crate) fn par_map<T, R, F>(items: &[T], min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    #[cfg(feature = "rayon")]
    {
        use rayon::prelude::*;
        if parallel_enabled() && items.len() >= min_items && rayon::current_num_threads() > 1 {
            return items.par_iter().map(f).collect();
        }
    }
    let _ = min_items;
    items.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, 1, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn toggle_round_trips() {
        let initial = parallel_enabled();
        set_parallel(false);
        assert!(!parallel_enabled());
        assert_eq!(worker_count(), 1);
        set_parallel(true);
        assert_eq!(parallel_enabled(), cfg!(feature = "rayon"));
        set_parallel(initial);
    }
}
