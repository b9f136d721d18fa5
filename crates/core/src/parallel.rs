//! Opt-in parallel execution of the candidate-generation hot path.
//!
//! Built with the `rayon` cargo feature, the expensive, embarrassingly
//! parallel pieces of Step 1 — per-candidate constraint checks, per-trace
//! distance accumulation, and DFG pre-/postset indexing — fan out over all
//! cores. Without the feature every function here degenerates to its serial
//! form and [`set_parallel`] is a no-op, so callers never need `cfg` guards.
//!
//! Parallel runs are **bit-identical** to serial runs: work is split into
//! ordered chunks, partial results are combined in the exact order the
//! serial code would produce them (floating-point accumulation included),
//! and budget/shortcut bookkeeping is replayed serially against
//! pre-evaluated verdicts. `parallel == serial` is asserted by
//! `tests/parallel_equivalence.rs`.
//!
//! Parallelism defaults to **on** when the feature is compiled in; flip it
//! at runtime with [`set_parallel`] (process-wide, e.g. for A/B
//! benchmarking — see `bench_candidates`). There is one toggle for the
//! whole system: [`set_parallel`] and [`parallel_enabled`] are
//! `gecco_eventlog`'s, so one call switches ingestion and Steps 1–2
//! together (this crate's `rayon` feature turns on `gecco-eventlog/rayon`).
//! The worker count follows the `RAYON_NUM_THREADS` environment variable,
//! falling back to the number of available cores.

// gecco-lint: allow-file(unordered-par) — this module IS the order-preserving seam: work is
// split into ordered chunks and reassembled in input order, proven bit-identical to serial
// execution by tests/parallel_equivalence.rs
pub use gecco_eventlog::{parallel_enabled, set_parallel};

/// Whether a parallel fan-out would actually use more than one worker.
/// Lets hot paths skip parallel-shaped work (chunking, per-worker state)
/// that costs more than the serial loop when only one thread is available.
pub(crate) fn parallel_active() -> bool {
    #[cfg(feature = "rayon")]
    {
        parallel_enabled() && rayon::current_num_threads() > 1
    }
    #[cfg(not(feature = "rayon"))]
    {
        false
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

/// Maps `f` over `items` with per-worker state: every worker (one
/// contiguous chunk of the input) builds its own `S` via `init` and threads
/// it through its chunk. Output order always matches input order.
///
/// This is how the chunk workers get a private
/// [`gecco_eventlog::EvalContext`] — the context's scratch buffers are not
/// `Sync`, so each worker rebuilds one from the shared
/// [`gecco_eventlog::ContextParts`] and reuses it across its whole chunk.
pub(crate) fn par_map_scoped<T, R, S, I, F>(items: &[T], min_items: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    #[cfg(feature = "rayon")]
    {
        use rayon::prelude::*;
        let threads = rayon::current_num_threads();
        if parallel_enabled() && items.len() >= min_items && threads > 1 {
            let chunk_size = items.len().div_ceil(threads);
            let per_chunk: Vec<Vec<R>> = items
                .par_chunks(chunk_size)
                .map(|chunk| {
                    let mut state = init();
                    chunk.iter().map(|item| f(&mut state, item)).collect()
                })
                .collect();
            return per_chunk.into_iter().flatten().collect();
        }
    }
    let _ = min_items;
    let mut state = init();
    items.iter().map(|item| f(&mut state, item)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_scoped_matches_serial_map() {
        let items: Vec<u32> = (0..200).collect();
        let out = par_map_scoped(&items, 1, Vec::<u32>::new, |scratch, &x| {
            scratch.push(x); // reused within a worker's chunk
            x * 2
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, 1, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }
}
