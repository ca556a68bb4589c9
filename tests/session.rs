//! Integration tests of the session API: prepare-once/compile-many
//! determinism, the prepare-exactly-once guarantee of `compile_many`, budget
//! degradation, progress observability, and thread-count independence of the
//! parallel search.

use chassis::{
    Budget, CancelToken, CompilationResult, Config, ErrorKind, Phase, Progress, SearchControl,
    Session,
};
use fpcore::parse_fpcore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use targets::builtin;

/// A benchmark every builtin target (including bare arith) can compile.
fn polynomial() -> fpcore::FPCore {
    parse_fpcore("(FPCore (x) :pre (and (> x -100) (< x 100)) (+ (* x (* x x)) (* 3 x)))").unwrap()
}

/// A cancellation-prone benchmark where the search meaningfully improves
/// accuracy (so the frontier has several points).
fn cancellation() -> fpcore::FPCore {
    parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e14)) (- (sqrt (+ x 1)) (sqrt x)))").unwrap()
}

/// Bit-exact comparison of two compilation results: same frontier, same
/// scores, same rendered programs, same initial program.
fn assert_bit_identical(a: &CompilationResult, b: &CompilationResult, what: &str) {
    assert_eq!(
        a.implementations.len(),
        b.implementations.len(),
        "{what}: frontier sizes differ"
    );
    for (x, y) in a.implementations.iter().zip(&b.implementations) {
        assert_eq!(x.rendered, y.rendered, "{what}: programs differ");
        assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{what}: costs differ");
        assert_eq!(
            x.error_bits.to_bits(),
            y.error_bits.to_bits(),
            "{what}: errors differ"
        );
        assert_eq!(
            x.accuracy_bits.to_bits(),
            y.accuracy_bits.to_bits(),
            "{what}: accuracies differ"
        );
    }
    assert_eq!(a.initial.rendered, b.initial.rendered, "{what}: initial");
    assert_eq!(
        a.initial.error_bits.to_bits(),
        b.initial.error_bits.to_bits(),
        "{what}: initial error"
    );
    assert_eq!(a.samples.train, b.samples.train, "{what}: train points");
    assert_eq!(a.samples.test, b.samples.test, "{what}: test points");
}

#[test]
fn prepare_once_compile_twice_matches_fresh_compiles() {
    // Same seed ⇒ one prepared state compiled twice is bit-identical to two
    // fresh sessions each doing their own prepare+compile — i.e. sharing the
    // preparation across calls (and targets) changes nothing but the cost.
    let core = polynomial();
    for target_name in ["c99", "arith"] {
        let target = builtin::by_name(target_name).unwrap();
        let session = Session::new(Config::fast());
        let prepared = session.prepare(&core).unwrap();
        let first = prepared.compile(&target).unwrap();
        let second = prepared.compile(&target).unwrap();
        assert_bit_identical(&first, &second, &format!("{target_name}: repeat compile"));
        assert_eq!(session.prepare_count(), 1);

        let fresh = Session::new(Config::fast())
            .compile(&core, &target)
            .unwrap();
        assert_bit_identical(&first, &fresh, &format!("{target_name}: fresh session"));
    }
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    // The parallel search (candidate batches, scoring, regime sweeps, final
    // evaluation) must reproduce the serial result exactly at the same seed:
    // all fan-out is order-preserving and admission stays serial. Forcing the
    // global thread count is safe against concurrently running tests because
    // every result is thread-count-independent by construction.
    let core = cancellation();
    for target_name in ["c99", "arith-fma"] {
        let target = builtin::by_name(target_name).unwrap();
        chassis::par::set_thread_count(1);
        let serial = Session::new(Config::fast())
            .compile(&core, &target)
            .unwrap();
        for threads in [2, 8] {
            chassis::par::set_thread_count(threads);
            let parallel = Session::new(Config::fast())
                .compile(&core, &target)
                .unwrap();
            assert_bit_identical(
                &serial,
                &parallel,
                &format!("{target_name} at {threads} threads"),
            );
        }
        chassis::par::set_thread_count(0);
    }
}

#[test]
fn compile_many_prepares_each_benchmark_exactly_once() {
    // The acceptance property of the session redesign: N targets compile while
    // sampling + Rival ground truth run once per benchmark — and the fanned-out
    // results are bit-identical to the per-target path at the same seed.
    let cores = vec![polynomial(), cancellation()];
    let target_list: Vec<_> = ["c99", "arith-fma", "vdt"]
        .iter()
        .map(|n| builtin::by_name(n).unwrap())
        .collect();
    let session = Session::new(Config::fast());
    let rows = session.compile_many(&cores, &target_list);

    assert_eq!(
        session.prepare_count(),
        cores.len(),
        "one preparation per benchmark, not per (benchmark, target)"
    );
    assert_eq!(rows.len(), cores.len());
    for (core, row) in cores.iter().zip(&rows) {
        assert_eq!(row.len(), target_list.len());
        for (target, outcome) in target_list.iter().zip(row) {
            let fanned = outcome.as_ref().expect("all jobs compile");
            // The per-target reference path: a fresh session, one target.
            let reference = Session::new(Config::fast()).compile(core, target).unwrap();
            assert_bit_identical(fanned, &reference, &format!("fig8-style {}", target.name));
        }
    }

    // A second sweep over the same corpus hits the cache entirely.
    let again = session.compile_many(&cores, &target_list);
    assert_eq!(session.prepare_count(), cores.len());
    for (row_a, row_b) in rows.iter().zip(&again) {
        for (a, b) in row_a.iter().zip(row_b) {
            assert_bit_identical(a.as_ref().unwrap(), b.as_ref().unwrap(), "repeat sweep");
        }
    }
}

#[test]
fn compile_many_reports_prepare_failures_per_benchmark() {
    let unsamplable = parse_fpcore("(FPCore (x) :pre (< x (- x 1)) (+ x 1))").unwrap();
    let cores = vec![polynomial(), unsamplable];
    let target_list = vec![
        builtin::by_name("c99").unwrap(),
        builtin::by_name("arith").unwrap(),
    ];
    let session = Session::new(Config::fast());
    let rows = session.compile_many(&cores, &target_list);
    assert!(rows[0].iter().all(Result::is_ok));
    assert!(
        rows[1]
            .iter()
            .all(|r| matches!(r, Err(chassis::CompileError::Sampling(_)))),
        "a benchmark that cannot be sampled errors in every column"
    );
}

#[test]
fn compile_many_grid_is_bit_identical_across_thread_counts() {
    // Preparations and their benchmarks' compiles overlap on the pool;
    // whichever thread takes which job, the grid, the failed cells and their events must be
    // exactly the serial ones. The mix has a benchmark that cannot be
    // sampled (its whole row errors) and an operator bare `arith` cannot
    // express (one Unsupported cell in an otherwise prepared row).
    let cores = vec![
        polynomial(),
        parse_fpcore("(FPCore (x) :pre (< x (- x 1)) (+ x 1))").unwrap(),
        parse_fpcore("(FPCore (x) :pre (and (> x -1) (< x 1)) (sin x))").unwrap(),
    ];
    let target_list = vec![
        builtin::by_name("c99").unwrap(),
        builtin::by_name("arith").unwrap(),
    ];
    let run = || {
        let failed: Mutex<Vec<(usize, usize, ErrorKind)>> = Mutex::new(Vec::new());
        let observer = |event: &Progress| {
            if let Progress::JobFailed {
                benchmark,
                target,
                kind,
            } = *event
            {
                failed.lock().unwrap().push((benchmark, target, kind));
            }
        };
        let session = Session::new(Config::fast());
        let ctl = SearchControl::new().with_progress(&observer);
        let grid = session.compile_many_with(&cores, &target_list, &ctl);
        assert_eq!(
            session.prepare_count(),
            cores.len(),
            "one preparation per distinct benchmark"
        );
        (grid, failed.into_inner().unwrap())
    };

    chassis::par::set_thread_count(1);
    let (serial, serial_failed) = run();
    assert_eq!(
        serial_failed,
        vec![
            (1, 0, ErrorKind::Sampling),
            (1, 1, ErrorKind::Sampling),
            (2, 1, ErrorKind::Unsupported),
        ],
        "one JobFailed per failed cell, in (benchmark, target) order"
    );
    for threads in [2, 3] {
        chassis::par::set_thread_count(threads);
        let (grid, failed) = run();
        assert_eq!(failed, serial_failed, "{threads} threads: JobFailed events");
        for (b, (row_a, row_b)) in serial.iter().zip(&grid).enumerate() {
            for (t, (a, b_cell)) in row_a.iter().zip(row_b).enumerate() {
                let what = format!("{threads} threads, cell ({b}, {t})");
                match (a, b_cell) {
                    (Ok(a), Ok(b)) => assert_bit_identical(a, b, &what),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
                    _ => panic!("{what}: outcome changed"),
                }
            }
        }
    }
    chassis::par::set_thread_count(0);
}

#[test]
fn nested_maps_from_pool_workers_return_ordered_results() {
    // Every outer unit issues its own map from whichever pool thread runs
    // it; those maps are helped by idle threads and must still return their
    // results in index order.
    for threads in [2, 3] {
        chassis::par::set_thread_count(threads);
        let outer: Vec<usize> = (0..8).collect();
        let nested = chassis::par::par_map(&outer, |&i| {
            chassis::par::par_map_range(300, move |j| i * 1000 + j)
        });
        for (i, inner) in nested.iter().enumerate() {
            let expected: Vec<usize> = (0..300).map(|j| i * 1000 + j).collect();
            assert_eq!(*inner, expected, "{threads} threads, outer index {i}");
        }
    }
    chassis::par::set_thread_count(0);
}

#[test]
fn tiny_budgets_still_yield_an_initial_containing_frontier() {
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    // Iteration budget of zero: the improve loop never runs; the frontier is
    // exactly the initial program.
    let exhausted = AtomicUsize::new(0);
    let observer = |event: &Progress| {
        if matches!(event, Progress::BudgetExhausted { .. }) {
            exhausted.fetch_add(1, Ordering::Relaxed);
        }
    };
    let ctl = SearchControl::new()
        .with_progress(&observer)
        .with_budget(Budget::iterations(0));
    let result = prepared.compile_with(&target, &ctl).unwrap();
    assert!(
        !result.implementations.is_empty(),
        "a budgeted search must keep a valid frontier"
    );
    assert!(
        result
            .implementations
            .iter()
            .any(|imp| imp.rendered == result.initial.rendered),
        "the initial program must be on the zero-iteration frontier"
    );
    assert!(exhausted.load(Ordering::Relaxed) >= 1);
    // The accessors work on the degraded frontier.
    let _ = result.most_accurate();
    let _ = result.cheapest();

    // Wall-clock budget of zero: every phase cuts immediately, but the result
    // still contains the initial program.
    let ctl = SearchControl::new().with_budget(Budget::wall_clock(Duration::ZERO));
    let result = prepared.compile_with(&target, &ctl).unwrap();
    assert!(!result.implementations.is_empty());
    assert!(result
        .implementations
        .iter()
        .any(|imp| imp.rendered == result.initial.rendered));

    // An unlimited budget through the same code path matches the plain call.
    let unlimited = prepared
        .compile_with(
            &target,
            &SearchControl::new().with_budget(Budget::UNLIMITED),
        )
        .unwrap();
    let plain = prepared.compile(&target).unwrap();
    assert_bit_identical(&unlimited, &plain, "explicit unlimited budget");
}

#[test]
fn an_unfired_cancel_token_is_observationally_inert_at_any_thread_count() {
    // Cancellation is polled at exactly the points the wall-clock budget
    // already checks, so a token that never fires must not change a single
    // bit of the result — serial or parallel.
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    chassis::par::set_thread_count(1);
    let baseline = Session::new(Config::fast())
        .compile(&core, &target)
        .unwrap();
    for threads in [1, 2, 8] {
        chassis::par::set_thread_count(threads);
        let token = CancelToken::new();
        let session = Session::new(Config::fast());
        let prepared = session.prepare(&core).unwrap();
        let ctl = SearchControl::new().with_cancel(&token);
        let result = prepared.compile_with(&target, &ctl).unwrap();
        assert!(!token.is_cancelled());
        assert_bit_identical(
            &baseline,
            &result,
            &format!("unfired cancel token at {threads} threads"),
        );
    }
    chassis::par::set_thread_count(0);
}

#[test]
fn a_pre_fired_cancel_token_degrades_like_an_exhausted_budget() {
    // A token fired before the search starts must behave exactly like a
    // zero wall-clock budget: Ok, initial-containing frontier, and one
    // JobCancelled event — never an error.
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    let token = CancelToken::new();
    token.cancel();
    let cancelled_events = AtomicUsize::new(0);
    let observer = |event: &Progress| {
        if matches!(event, Progress::JobCancelled) {
            cancelled_events.fetch_add(1, Ordering::Relaxed);
        }
    };
    let ctl = SearchControl::new()
        .with_cancel(&token)
        .with_progress(&observer);
    let result = prepared.compile_with(&target, &ctl).unwrap();
    assert!(
        result
            .implementations
            .iter()
            .any(|imp| imp.rendered == result.initial.rendered),
        "a cancelled search keeps the initial program on its frontier"
    );
    assert_eq!(cancelled_events.load(Ordering::Relaxed), 1);
}

#[test]
fn progress_events_trace_the_search() {
    let core = cancellation();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    let events: Mutex<Vec<Progress>> = Mutex::new(Vec::new());
    let observer = |event: &Progress| events.lock().unwrap().push(*event);
    let ctl = SearchControl::new().with_progress(&observer);
    let result = prepared.compile_with(&target, &ctl).unwrap();
    let events = events.into_inner().unwrap();

    // Phases arrive in pipeline order.
    let phases: Vec<Phase> = events
        .iter()
        .filter_map(|e| match e {
            Progress::PhaseStarted { phase } => Some(*phase),
            _ => None,
        })
        .collect();
    assert_eq!(
        phases,
        vec![
            Phase::Lowering,
            Phase::Improve,
            Phase::Regimes,
            Phase::FinalEvaluation
        ]
    );
    // Every improve iteration and at least the initial admission are reported.
    let iterations = events
        .iter()
        .filter(|e| matches!(e, Progress::ImproveIteration { .. }))
        .count();
    assert!(iterations >= 1, "at least one improve iteration runs");
    let admitted = events
        .iter()
        .filter(|e| matches!(e, Progress::FrontierPointAdmitted { .. }))
        .count();
    assert!(
        admitted >= result.implementations.len().min(2),
        "frontier admissions are observable"
    );
    // Observation must not perturb the result.
    let silent = prepared.compile(&target).unwrap();
    assert_bit_identical(&result, &silent, "observed vs silent");
}

#[test]
fn sessions_with_different_seeds_draw_different_points() {
    let core = cancellation();
    let session_a = Session::new(Config::fast());
    let session_b = Session::new(Config::fast().with_seed(0xD15EA5E));
    let a = session_a.prepare(&core).unwrap();
    let b = session_b.prepare(&core).unwrap();
    assert_ne!(a.samples().train, b.samples().train);
    assert_eq!(session_b.seed(), 0xD15EA5E);
}
