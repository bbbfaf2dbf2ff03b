//! A deterministic scoped worker pool for embarrassingly parallel,
//! index-addressed work.
//!
//! [`run_indexed`] evaluates a pure task function over `0..count` and
//! returns the results **in index order**, regardless of how many
//! worker threads execute them. Each worker takes the next index from
//! one shared counter when it finishes its last, so tasks of uneven cost
//! spread over the workers whatever their order; each worker returns
//! `(index, result)` pairs, and the caller-side merge places them back
//! by index — so the only thing parallelism changes is wall-clock time,
//! never the result. With one thread (or one task) no
//! threads are spawned at all; the exact same task function runs
//! inline, which is what makes the GA's serial and parallel paths
//! bit-identical by construction rather than by testing luck.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task(0..count)` over at most `threads` workers, returning
/// results in index order.
///
/// `task` must be pure with respect to the index (it may read shared
/// state, never write it) — the contract that makes the output
/// independent of the thread count. Public so downstream drivers (the
/// design-space exploration engine, benchmark harnesses) can fan
/// embarrassingly parallel work over the same deterministic pool the
/// GA uses.
pub fn run_indexed<T, F>(threads: usize, count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_on(&mut vec![(); threads.max(1)], count, |(), index| {
        task(index)
    })
}

/// [`run_indexed`] over one worker per element of `scratch`, lending
/// worker `w` the caller's `scratch[w]` mutably alongside each index —
/// so state a caller keeps across calls (the GA's per-worker buffers
/// live for a whole run, not a generation) is built once.
///
/// The scratch is an *allocation cache*, not a communication channel:
/// `task`'s result must be a pure function of the index exactly as in
/// [`run_indexed`] — it may use the scratch for reusable buffers but
/// must not let values computed for one index leak into another's
/// result. The GA threads its fitness-evaluation scratch (core-time
/// buffers, dirty masks, chain states) through here so the hot loop
/// stops allocating per offspring while staying bit-identical across
/// thread counts.
///
/// # Panics
///
/// Panics if `scratch` is empty and `count` is not 0.
pub(crate) fn run_indexed_on<T, S, F>(scratch: &mut [S], count: usize, task: F) -> Vec<T>
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = scratch.len().min(count);
    if workers <= 1 {
        return (0..count)
            .map(|index| task(&mut scratch[0], index))
            .collect();
    }
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (task, next) = (&task, &next);
        let handles: Vec<_> = scratch[..workers]
            .iter_mut()
            .map(|scratch| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // The counter hands out indices and publishes no
                        // data: results reach the caller through `join`.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            return out;
                        }
                        out.push((index, task(scratch, index)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (index, value) in handle.join().expect("worker thread panicked") {
                slots[index] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_single_task_edge_cases() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        assert_eq!(run_indexed(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn scratch_variant_matches_plain_for_any_thread_count() {
        for threads in [1, 2, 5, 32] {
            // The scratches outlive a call: the second one reuses them.
            // Each is a buffer and the log of the indices it served.
            let mut scratch = vec![(Vec::new(), Vec::new()); threads];
            for _ in 0..2 {
                let out = run_indexed_on(&mut scratch, 41, |(buf, log), i| {
                    // Use the scratch as a buffer; result depends only on i.
                    buf.clear();
                    buf.extend(0..i);
                    log.push(i);
                    buf.iter().sum::<usize>()
                });
                assert_eq!(
                    out,
                    (0..41).map(|i| i * (i.max(1) - 1) / 2).collect::<Vec<_>>()
                );
            }
            // Every index ran exactly once per call, each with the
            // scratch of the worker that ran it, and no worker beyond
            // the index count was lent one.
            let mut served: Vec<usize> = scratch.iter().flat_map(|(_, log)| log.clone()).collect();
            served.sort_unstable();
            let want: Vec<usize> = (0..41).flat_map(|i| [i, i]).collect();
            assert_eq!(served, want, "{threads} threads");
            for (buf, log) in &scratch {
                assert_eq!(buf.len(), log.last().copied().unwrap_or(0));
            }
            assert!(scratch[41.min(threads)..]
                .iter()
                .all(|(_, log)| log.is_empty()));
        }
    }
}
