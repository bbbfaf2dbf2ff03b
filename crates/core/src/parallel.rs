//! A deterministic scoped worker pool for embarrassingly parallel,
//! index-addressed work.
//!
//! [`run_indexed`] evaluates a pure task function over `0..count` and
//! returns the results **in index order**, regardless of how many
//! worker threads execute them. Work is distributed by static striding
//! (worker `w` of `t` takes indices `w, w+t, w+2t, …`), each worker
//! returns `(index, result)` pairs, and the caller-side merge places
//! them back by index — so the only thing parallelism changes is
//! wall-clock time, never the result. With one thread (or one task) no
//! threads are spawned at all; the exact same task function runs
//! inline, which is what makes the GA's serial and parallel paths
//! bit-identical by construction rather than by testing luck.

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
    std::thread::scope(|scope| {
        let task = &task;
        let handles: Vec<_> = scratch[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, scratch)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(count.div_ceil(workers));
                    let mut index = w;
                    while index < count {
                        out.push((index, task(scratch, index)));
                        index += workers;
                    }
                    out
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
            let mut scratch = vec![Vec::new(); threads];
            for _ in 0..2 {
                let out = run_indexed_on(&mut scratch, 41, |buf: &mut Vec<usize>, i| {
                    // Use the scratch as a buffer; result depends only on i.
                    buf.clear();
                    buf.extend(0..i);
                    buf.iter().sum::<usize>()
                });
                assert_eq!(
                    out,
                    (0..41).map(|i| i * (i.max(1) - 1) / 2).collect::<Vec<_>>()
                );
            }
            // Worker `w` was lent `scratch[w]`: its last index is the
            // largest one congruent to `w`.
            for (w, buf) in scratch.iter().enumerate().take(41) {
                assert_eq!(buf.len(), (40 - w) / threads * threads + w);
            }
        }
    }
}
