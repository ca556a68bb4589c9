//! Metrics both kinds of workload compute: result quality, latency
//! percentiles, and the per-layer figures of the compiler's own layers.

use crate::report::Report;
use crate::stats;
use crate::trace::{ms, Trace};
use chassis::{CompilationResult, SearchStats};
use std::time::{Duration, Instant};
use targets::Target;

/// Speedup and accuracy gain of Ok results over their initial programs.
///
/// The speedup of one result is its initial cost over the cost of the
/// cheapest frontier point at least as accurate as the initial program; the
/// gain is the best accuracy minus the initial accuracy, in bits.
pub fn quality<'a>(results: impl IntoIterator<Item = &'a CompilationResult>) -> (f64, f64, usize) {
    let mut speedups = Vec::new();
    let mut gains = Vec::new();
    for r in results {
        let cheapest = r
            .implementations
            .iter()
            .filter(|i| i.error_bits <= r.initial.error_bits)
            .map(|i| i.cost)
            .fold(r.initial.cost, f64::min);
        speedups.push(r.initial.cost / cheapest);
        gains.push(r.most_accurate().accuracy_bits - r.initial.accuracy_bits);
    }
    (
        stats::geomean(&speedups),
        stats::mean(&gains),
        speedups.len(),
    )
}

/// Records the latency median and tail with their sample counts. The tail is
/// the highest percentile `basis` samples support: the sample count every
/// run of the workload is guaranteed to take.
pub fn latency(report: &mut Report, samples: &[f64], basis: usize, what: &str) {
    let p50 = stats::percentile(samples, 50.0);
    let tail = stats::tail_percentile(basis).and_then(|p| stats::percentile(samples, p));
    report.set("latency_p50_ms", p50.map_or(f64::NAN, |p| p.value));
    report.set("latency_tail_ms", tail.map_or(f64::NAN, |p| p.value));
    let show = |p: Option<stats::Pct>| {
        p.map_or("n/a".to_owned(), |p| format!("p{} {:.3} ms", p.p, p.value))
    };
    report.note(format!(
        "latency ({what}): n={} (percentile basis {basis}), median {}, tail {}",
        samples.len(),
        show(p50),
        show(tail)
    ));
}

/// `session.prepare_*` from per-prepare times on the benchmark's clock.
pub fn prepare_metrics(report: &mut Report, prepare_ms: &[f64], failed: usize) {
    report.set("session.prepare_ms", prepare_ms.iter().sum());
    report.set(
        "session.prepare_p50_ms",
        stats::percentile(prepare_ms, 50.0).map_or(f64::NAN, |p| p.value),
    );
    report.set(
        "session.prepare_max_ms",
        prepare_ms.iter().copied().fold(0.0, f64::max),
    );
    report.set("session.prepare_failed", failed as f64);
    report.note(format!(
        "session.prepare: n={} prepares, {failed} failed; prepare_ms sums per-prepare wall time across threads",
        prepare_ms.len()
    ));
}

/// Phase, search and truth metrics from a trace and the results' stats.
pub fn search_metrics<'a>(
    report: &mut Report,
    t: &Trace,
    stats: impl Iterator<Item = &'a SearchStats>,
) {
    let s = stats.fold(SearchStats::default(), |acc, s| acc.merged(s));
    for (name, i) in [
        ("session.lowering_ms", 0),
        ("session.improve_ms", 1),
        ("session.regimes_ms", 2),
        ("session.final_ms", 3),
    ] {
        report.set(name, t.phase_ms[i]);
    }
    report.set("improve.iterations", t.iterations as f64);
    report.set("improve.candidates_scored", s.candidates_scored as f64);
    report.set("improve.admitted", t.admitted as f64);
    report.set(
        "improve.admit_ratio",
        t.admitted as f64 / s.candidates_scored.max(1) as f64,
    );
    report.set("regimes.inferred", t.regimes as f64);
    report.set("egraph.saturation_ms", ms(s.saturation));
    report.set("verify.programs", t.verified as f64);
    report.set("verify.regs_saved", t.regs_saved as f64);
    report.set("rival.truth_ms", ms(s.truths.eval_time));
    report.set("rival.truth_hits", s.truths.hits as f64);
    report.set("rival.truth_misses", s.truths.misses as f64);
    report.set("rival.node_evals", s.truths.node_evals as f64);
    report.set("rival.evals_saved", s.truths.evals_saved() as f64);
    report.note(
        "phase times sum per-job wall time across threads; improve.admit_ratio is admitted over candidates scored; rival.* are SearchStats.truths summed over Ok cells",
    );
}

/// `targets.eval_mpts_per_s`: every frontier program's `eval_columns` over
/// its test points, timed from outside (compilation to bytecode excluded).
pub fn eval_metrics(report: &mut Report, ok: &[(&Target, &CompilationResult)]) {
    const REPEATS: usize = 64;
    let mut points = 0usize;
    let mut busy = Duration::ZERO;
    for (target, result) in ok {
        let s = &result.samples;
        for imp in &result.implementations {
            let program = targets::compile(target, &imp.expr);
            let t = Instant::now();
            for _ in 0..REPEATS {
                std::hint::black_box(program.eval_columns(&s.vars, std::hint::black_box(&s.test)));
            }
            busy += t.elapsed();
            points += REPEATS * s.test_len();
        }
    }
    report.set(
        "targets.eval_mpts_per_s",
        points as f64 / busy.as_secs_f64() / 1e6,
    );
    report.note(format!(
        "targets.eval_mpts_per_s: {points} point evaluations in {:.3} ms, single thread",
        ms(busy)
    ));
}
