//! Order-preserving parallel iteration for the evaluation hot paths.
//!
//! Accuracy evaluation scores each sampled point independently, which makes the
//! improve/Pareto loop embarrassingly parallel (cf. *Fast Mixed-Precision Real
//! Evaluation*). With the `parallel` feature (default) the helpers here run on
//! one process-wide pool of persistent worker threads; without it they degrade
//! to plain serial iteration and the crate stays single-threaded.
//!
//! How a map runs on the pool:
//!
//! * **Workers persist.** The pool starts lazily at the first parallel map and
//!   grows to one worker fewer than the configured thread count; its threads
//!   live for the rest of the process. The thread that issues a map works on
//!   it too, so a map uses the issuer plus at most `threads - 1` helpers.
//! * **Units are claimed.** Each map is a range of units — indices, or blocks
//!   of indices for [`par_map_blocks_with`], whose boundaries are fixed by
//!   the block size alone — handed out one at a time by an atomic cursor, so
//!   a thread that finishes early takes more units instead of idling.
//! * **Results land in slots.** Every unit writes its result straight into a
//!   pre-sized output slot at its own index; nothing is merged afterwards.
//!   Which thread ran a unit therefore cannot change the output: it equals
//!   the serial loop bit for bit, at any thread count (the argument is
//!   spelled out in docs/SEARCH.md).
//! * **Nested maps are helped.** A map issued from inside another map's unit
//!   joins the pool like any other: its issuer claims its units and idle
//!   threads help. A thread waiting for its own map's last units helps only
//!   maps nested deeper than its own, which keeps every wait finite.
//! * **Single units run inline.** A map of fewer than two units (indices,
//!   or blocks) runs as a plain loop on the calling thread.
//!
//! [`Session::compile_many`](crate::Session::compile_many) is one such map
//! over benchmarks, each unit preparing its benchmark and then issuing a
//! nested map over targets. A benchmark's compiles are therefore claimable
//! the moment its preparation succeeds, with no barrier between the two
//! phases, and the thread that prepared it runs them before it claims
//! another preparation.
//!
//! A panic in a unit is caught on the thread that ran it. Threads stop
//! claiming new units, every claimed unit finishes, and the payload of the
//! panicking unit with the *lowest* index resumes on the calling thread —
//! the panic the serial loop would have raised.
//!
//! The worker count defaults to the machine's available parallelism and can be
//! overridden at runtime with [`set_thread_count`] or the `CHASSIS_THREADS`
//! environment variable (useful for benchmarking the serial/parallel paths
//! against each other in one process).

// Part of the `compile_many` call path: every failure must be a typed error
// or a transported panic payload, never an ad-hoc unwrap (see
// docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(feature = "parallel")]
mod pool;
#[cfg(feature = "parallel")]
use pool::{Claim, Slots};

/// 0 means "not overridden": fall back to `CHASSIS_THREADS`, then to the
/// machine's available parallelism.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker count used by the `par_*` helpers; `0` restores the
/// default (the `CHASSIS_THREADS` environment variable, or all cores).
pub fn set_thread_count(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The configured thread count, before clamping to a map's length.
///
/// `CHASSIS_THREADS` is read and parsed once per process (the helpers sit on
/// the evaluation hot path, and the variable cannot meaningfully change
/// mid-run); [`set_thread_count`] remains live at every call.
fn configured_threads() -> usize {
    static ENV_DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => *ENV_DEFAULT.get_or_init(|| {
            std::env::var("CHASSIS_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                })
        }),
        n => n,
    }
}

/// The number of threads (the caller included) the `par_*` helpers will use
/// for `len` units of work.
pub fn effective_threads(len: usize) -> usize {
    configured_threads().min(len).max(1)
}

/// Maps `f` over the index range `0..len`, returning results in index order.
///
/// This is the core primitive: the output is identical to
/// `(0..len).map(f).collect()` at any thread count — no index buffer is
/// materialized on either path.
pub fn par_map_range<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range_with(len, || (), |(), i| f(i))
}

/// Like [`par_map_range`], but each participating thread first builds private
/// scratch state with `init` and threads it through every index it claims.
///
/// This is how the evaluation hot loop shares a compiled
/// [`Program`](targets::compile::Program) across threads: the program (and
/// the resolved point columns) are borrowed immutably by every thread, while
/// each thread's register file is built once per map — not once per point —
/// by `init`. The state cannot influence results (it is scratch space), so
/// the output remains bit-identical to the serial path at any thread count.
pub fn par_map_range_with<S, R, I, F>(len: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    // Chaos harness: an armed `par.spawn` abort degrades the map to the
    // inline path, which is bit-identical by construction.
    #[cfg(feature = "parallel")]
    {
        let threads = effective_threads(len);
        if len >= 2 && threads > 1 && !fault::point("par.spawn") {
            return claim_range(len, threads, &init, &f);
        }
    }
    let mut state = init();
    (0..len).map(|i| f(&mut state, i)).collect()
}

/// [`par_map_range`] for the job-level maps of
/// [`Session::compile_many`](crate::Session::compile_many), whose units are
/// the jobs' own panic boundaries. It skips the `par.spawn` fault point: a
/// panic injected there would sit outside every job and could only escape.
pub(crate) fn par_map_jobs<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    #[cfg(feature = "parallel")]
    {
        let threads = effective_threads(len);
        if len >= 2 && threads > 1 {
            return claim_range(len, threads, &|| (), &|(), i| f(i));
        }
    }
    (0..len).map(f).collect()
}

/// Runs a map of `len` indices on the pool with up to `threads` threads
/// (the caller included), each result written into its own slot.
#[cfg(feature = "parallel")]
fn claim_range<S, R, I, F>(len: usize, threads: usize, init: &I, f: &F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let mut out: Vec<R> = Vec::with_capacity(len);
    let slots = Slots(out.as_mut_ptr());
    let claim = Claim::new(len, init, |state: &mut S, i| {
        // SAFETY: `i < len` is within the buffer's capacity, and the cursor
        // hands every index to exactly one thread, so no two writes alias.
        unsafe { slots.at(i).write(f(state, i)) };
    });
    pool::execute(&claim, threads - 1);
    match claim.finish() {
        None => {
            // SAFETY: no unit panicked, so every index in `0..len` was
            // claimed and written exactly once; `execute` returned only after
            // the last helper left, which orders those writes before this
            // read.
            unsafe { out.set_len(len) };
            out
        }
        Some(panic) => {
            for i in panic.written() {
                // SAFETY: `written` lists exactly the slots a unit completed,
                // each initialized once and never read or dropped since.
                unsafe { slots.at(i).drop_in_place() };
            }
            std::panic::resume_unwind(panic.payload)
        }
    }
}

/// Like [`par_map_range_with`], but the unit of work is a *block* of
/// consecutive indices instead of one index: `fill(state, start, out)` must
/// fill `out[l]` with the result for index `start + l`.
///
/// This is the block evaluator's fan-out primitive: each thread builds its
/// scratch state (a columnar register file) once with `init`, then claims
/// blocks one at a time, writing results straight into the block's slice of
/// the output — no per-point and no per-block allocation in the steady
/// state. Block boundaries are multiples of `block` whatever the thread
/// count, so the sequence of blocks evaluated is identical at every thread
/// count; combined with a `fill` whose per-index results are
/// position-independent (the block engine is bit-identical at any width),
/// the output equals the serial sweep bit for bit.
pub fn par_map_blocks_with<S, R, I, F>(len: usize, block: usize, init: I, fill: F) -> Vec<R>
where
    R: Send + Clone + Default,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [R]) + Sync,
{
    let block = block.max(1);
    let mut out = vec![R::default(); len];
    #[cfg(feature = "parallel")]
    {
        let n_blocks = len.div_ceil(block);
        let threads = effective_threads(n_blocks);
        if n_blocks >= 2 && threads > 1 && !fault::point("par.spawn") {
            let slots = Slots(out.as_mut_ptr());
            let claim = Claim::new(n_blocks, &init, |state: &mut S, b| {
                let start = b * block;
                // SAFETY: `b < n_blocks`, so the block lies within `out`; the
                // cursor hands every block to exactly one thread, so the slices
                // are disjoint, and `out` is not touched until `execute` returns.
                let piece = unsafe {
                    std::slice::from_raw_parts_mut(slots.at(start), block.min(len - start))
                };
                fill(state, start, piece);
            });
            pool::execute(&claim, threads - 1);
            if let Some(panic) = claim.finish() {
                std::panic::resume_unwind(panic.payload);
            }
            return out;
        }
    }
    let mut state = init();
    for (b, piece) in out.chunks_mut(block).enumerate() {
        fill(&mut state, b * block, piece);
    }
    out
}

/// Maps `f` over `items`, returning results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Serializes tests that mutate the global thread-count override; shared with
/// other in-crate test modules so they cannot race each other.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_override_is_respected() {
        let _guard = test_lock();
        set_thread_count(3);
        assert_eq!(effective_threads(100), 3);
        assert_eq!(effective_threads(2), 2);
        set_thread_count(0);
        assert!(effective_threads(100) >= 1);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let _guard = test_lock();
        let items: Vec<f64> = (0..997).map(|i| i as f64 * 0.1).collect();
        set_thread_count(1);
        let serial = par_map(&items, |&x| x.sin() + x.sqrt());
        for threads in [2, 4, 7] {
            set_thread_count(threads);
            let parallel = par_map(&items, |&x| x.sin() + x.sqrt());
            // Bit-identical, not approximately equal: claiming must not
            // change any per-item computation.
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "results differ at {threads} threads");
        }
        set_thread_count(0);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn nested_maps_are_helped_by_other_threads() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        let _guard = test_lock();
        set_thread_count(3);
        // Every nested unit waits until three distinct threads have run
        // nested units. At most two threads can hold an outer unit, so the
        // rendezvous completes only if a third thread helps a nested map;
        // were nested maps serial, it would time out and fail below.
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let three = Condvar::new();
        let nested = par_map_range(2, |i| {
            par_map_range(50, |j| {
                let mut threads = seen.lock().unwrap();
                threads.insert(std::thread::current().id());
                three.notify_all();
                let _ = three
                    .wait_timeout_while(threads, Duration::from_secs(10), |t| t.len() < 3)
                    .unwrap();
                i * 1000 + j
            })
        });
        for (i, inner) in nested.iter().enumerate() {
            assert_eq!(*inner, (0..50).map(|j| i * 1000 + j).collect::<Vec<_>>());
        }
        // Concurrent tests' threads may help too, so more than three is fine.
        assert!(
            seen.lock().unwrap().len() >= 3,
            "a third thread should have helped the nested maps"
        );
        set_thread_count(0);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn one_row_of_jobs_still_fans_its_columns_out() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        let _guard = test_lock();
        set_thread_count(2);
        // The shape of `compile_many` on one benchmark and three targets:
        // the outer job map has a single unit and runs inline, and the
        // nested map over targets must still reach a second thread. Every
        // nested unit waits until two threads have run one.
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let two = Condvar::new();
        let grid = par_map_jobs(1, |row| {
            par_map_jobs(3, |col| {
                let mut threads = seen.lock().unwrap();
                threads.insert(std::thread::current().id());
                two.notify_all();
                let _ = two
                    .wait_timeout_while(threads, Duration::from_secs(10), |t| t.len() < 2)
                    .unwrap();
                (row, col)
            })
        });
        assert_eq!(grid, vec![vec![(0, 0), (0, 1), (0, 2)]]);
        assert!(
            seen.lock().unwrap().len() >= 2,
            "a second thread should have run one of the row's columns"
        );
        set_thread_count(0);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn the_lowest_panicking_index_wins_at_every_thread_count() {
        let _guard = test_lock();
        for threads in [1, 2, 3, 7] {
            set_thread_count(threads);
            let finished = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(|| {
                par_map_range(64, |i| {
                    // The higher index panics first; the lower one only
                    // after a delay, so claiming order alone cannot pick it.
                    if i == 41 {
                        panic!("index 41");
                    }
                    if i == 17 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("index 17");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                    vec![i; 3]
                })
            });
            let payload = caught.expect_err("the map must panic");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("index 17"),
                "{threads} threads"
            );
            // Every claimed unit finished before the payload resumed: no
            // thread is still writing once the caller sees the panic.
            let after = finished.load(Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(after, finished.load(Ordering::Relaxed), "{threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn stateful_map_is_identical_across_thread_counts() {
        let _guard = test_lock();
        // Thread-private scratch (as used for register files) must not change
        // results, whoever claims which index.
        let run = || {
            par_map_range_with(503, Vec::<f64>::new, |scratch, i| {
                scratch.push(i as f64);
                (i as f64).sqrt() + scratch.len() as f64 * 0.0
            })
        };
        set_thread_count(1);
        let serial = run();
        for threads in [2, 5] {
            set_thread_count(threads);
            let parallel = run();
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "stateful results differ at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn block_map_matches_index_map_at_every_thread_count() {
        let _guard = test_lock();
        // A length that is not a multiple of the block size, so the ragged
        // tail block is exercised at every thread count.
        let len = 509;
        let block = 16;
        let run = || {
            par_map_blocks_with(
                len,
                block,
                || (),
                |(), start, out| {
                    for (l, slot) in out.iter_mut().enumerate() {
                        *slot = ((start + l) as f64).sqrt() + start as f64 * 0.0;
                    }
                },
            )
        };
        let expected: Vec<f64> = (0..len).map(|i| (i as f64).sqrt()).collect();
        set_thread_count(1);
        let serial = run();
        assert_eq!(serial.len(), len);
        let same = serial
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "serial block map diverges from the plain map");
        for threads in [2, 3, 8] {
            set_thread_count(threads);
            let parallel = run();
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "block results differ at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn block_map_sees_identical_block_starts_at_every_thread_count() {
        let _guard = test_lock();
        // Record each index's block start: claiming must never move a block
        // boundary (that is what keeps block-sensitive state private).
        let len = 100;
        let run = || {
            par_map_blocks_with(
                len,
                8,
                || (),
                |(), start, out| {
                    out.fill(start);
                },
            )
        };
        set_thread_count(1);
        let serial = run();
        for threads in [2, 4, 7] {
            set_thread_count(threads);
            assert_eq!(serial, run(), "block starts moved at {threads} threads");
        }
        set_thread_count(0);
        // Blocks are exactly the serial chunking: 0,0,...,8,8,...
        assert!(serial.iter().enumerate().all(|(i, &s)| s == i / 8 * 8));
    }

    #[test]
    fn block_map_empty_and_tiny_inputs() {
        assert!(
            par_map_blocks_with(0, 64, || (), |(), _, out: &mut [f64]| out.fill(1.0)).is_empty()
        );
        let one = par_map_blocks_with(
            1,
            64,
            || (),
            |(), start, out: &mut [f64]| out.fill(start as f64 + 7.0),
        );
        assert_eq!(one, vec![7.0]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
        assert_eq!(par_map_range(4, |i| i * i), vec![0, 1, 4, 9]);
    }
}
