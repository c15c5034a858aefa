//! Deterministic parallel execution of independent campaign runs.
//!
//! Every run is seeded up front, so distributing runs across worker
//! threads changes wall-clock time but not a single result: the output
//! vector is indexed by run, not by completion order.

use std::sync::atomic::{AtomicUsize, Ordering};

use wtnc_sim::SimRng;

/// Runs a campaign's `runs` independent runs: draws one seed per run
/// from `base_seed`, executes `f(seed)` for each over
/// [`default_workers`] threads, and returns the results in seed order.
pub(crate) fn run_runs<R, F>(base_seed: u64, runs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let mut rng = SimRng::seed_from(base_seed);
    let seeds: Vec<u64> = (0..runs).map(|_| rng.bits()).collect();
    run_seeded(&seeds, default_workers(), |_, seed| f(seed))
}

/// Executes `f(index, seed)` for every seed, spread over up to
/// `max_workers` OS threads (clamped to the number of seeds), and
/// returns the results in seed order.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn run_seeded<R, F>(seeds: &[u64], max_workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
{
    let n = seeds.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = max_workers.clamp(1, n);
    if workers == 1 {
        return seeds.iter().enumerate().map(|(i, &s)| f(i, s)).collect();
    }

    // Workers pull the next run off a shared counter and tag each
    // result with its run index; one sort by index afterwards restores
    // seed order regardless of completion order.
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut acc = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        acc.push((i, f(i, seeds[i])));
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("campaign worker panicked"));
        }
    });

    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(indexed.iter().enumerate().all(|(k, &(i, _))| k == i), "every run ran once");
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// The worker count for campaign runs: the machine's available
/// parallelism. Fan-out never changes a result, only wall time.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_seed_order() {
        let seeds: Vec<u64> = (0..57).collect();
        let out = run_seeded(&seeds, 8, |i, s| {
            // Uneven work so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros((s % 7) * 50));
            (i, s * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, seeds[i] * 2);
        }
    }

    #[test]
    fn seed_order_survives_reversed_completion_order() {
        // Early runs sleep longest, so with many workers the *last*
        // seeds complete first — the strongest scramble of completion
        // order the merge must undo.
        let seeds: Vec<u64> = (0..24).map(|i| i * 3 + 1).collect();
        let n = seeds.len();
        let out = run_seeded(&seeds, 8, |i, s| {
            std::thread::sleep(std::time::Duration::from_micros(((n - i) as u64) * 120));
            (i as u64) << 32 | s
        });
        let expected: Vec<u64> =
            seeds.iter().enumerate().map(|(i, &s)| (i as u64) << 32 | s).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_equals_serial() {
        let seeds: Vec<u64> = (100..160).collect();
        let serial = run_seeded(&seeds, 1, |i, s| s.wrapping_mul(31).wrapping_add(i as u64));
        let parallel = run_seeded(&seeds, 6, |i, s| s.wrapping_mul(31).wrapping_add(i as u64));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_runs_keeps_the_seed_order() {
        let mut rng = SimRng::seed_from(42);
        let expected: Vec<u64> = (0..9).map(|_| rng.bits()).collect();
        assert_eq!(run_runs(42, 9, |seed| seed), expected);
        assert!(run_runs(42, 0, |seed| seed).is_empty());
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<u64> = run_seeded(&[], 4, |_, s| s);
        assert!(out.is_empty());
        let out = run_seeded(&[9], 4, |_, s| s + 1);
        assert_eq!(out, vec![10]);
        assert!(default_workers() >= 1);
    }
}
