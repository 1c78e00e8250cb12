//! Parallel sweep harness: fans independent simulator-per-config runs
//! across scoped worker threads.
//!
//! Every experiment in this crate is a sweep of *independent*
//! configurations — each point builds its own [`sal_des::Simulator`]
//! (or NoC [`sal_noc::Network`]), runs it, and reduces to a result
//! row. No state is shared between points, so the sweep parallelises
//! trivially: [`parallel_map`] claims configurations from a shared
//! work list and writes each result into the slot of its *input*
//! index, making the output order — and therefore every downstream
//! table — identical to the sequential run regardless of which worker
//! finishes first.
//!
//! A worker panic is re-raised in the caller after all other workers
//! drain the remaining work; a poisoned run can never hang or
//! silently drop rows.

use std::sync::Mutex;

/// Worker-thread count: the `SAL_SWEEP_THREADS` environment variable
/// if set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn thread_count() -> usize {
    if let Some(n) = std::env::var("SAL_SWEEP_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to [`thread_count`] scoped threads,
/// returning the results in input order.
///
/// # Panics
///
/// Re-raises the first worker's panic. The surviving workers finish
/// the remaining items first, so the panic path joins every thread —
/// it cannot hang.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, thread_count(), f)
}

/// [`parallel_map`] with an explicit worker count (exposed for tests;
/// experiments should use [`parallel_map`]).
pub fn parallel_map_with<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = workers.min(n);
    // Work list and result slots. Items are *taken* from the back of
    // the list (cheap pop) — claim order is irrelevant because each
    // result lands in the slot of its original index.
    let work: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let first_panic = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    // Hold the lock only for the pop: the simulation
                    // itself runs unlocked, so workers overlap fully
                    // and a panic inside `f` cannot poison the list.
                    let claimed = work.lock().expect("work list poisoned").pop();
                    match claimed {
                        Some((idx, item)) => {
                            let out = f(item);
                            results.lock().expect("result list poisoned")[idx] = Some(out);
                        }
                        None => break,
                    }
                })
            })
            .collect();
        // Join every worker before re-raising, keeping the first
        // panic's payload.
        handles.into_iter().filter_map(|h| h.join().err()).reduce(|first, _| first)
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    let slots = results.into_inner().expect("result list poisoned");
    slots
        .into_iter()
        .map(|slot| slot.expect("no panic, so every slot was filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_keep_input_order_despite_scheduling() {
        // Early items sleep longest, so with 4 workers the completion
        // order is roughly reversed — the output must not be.
        let items: Vec<usize> = (0..32).collect();
        let out = parallel_map_with(items, 4, |i| {
            std::thread::sleep(Duration::from_micros(((32 - i) * 50) as u64));
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |i: u64| i.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let seq = parallel_map_with((0..100).collect(), 1, f);
        let par = parallel_map_with((0..100).collect(), 8, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_panic_is_reraised_after_the_sweep_drains() {
        let done = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(|| {
            parallel_map_with((0..16).collect::<Vec<usize>>(), 4, |i| {
                assert!(i != 3, "boom at {i}");
                done.fetch_add(1, Ordering::Relaxed);
                i
            })
        })
        .unwrap_err();
        let message = payload.downcast_ref::<String>().expect("assert! panics with a String");
        assert!(message.contains("boom at 3"), "got: {message}");
        // The surviving workers drained the rest of the sweep.
        assert_eq!(done.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn single_worker_and_empty_inputs() {
        assert_eq!(parallel_map_with(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map_with(vec![7], 4, |x: u8| x + 1), vec![8]);
        assert_eq!(parallel_map_with(vec![1, 2, 3], 1, |x: u8| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn thread_count_env_override() {
        // Not a parallel test of the env var itself (process-global),
        // just the parse contract: garbage and zero fall back.
        assert!(thread_count() >= 1);
    }
}
