//! The offline workloads: a fresh `Session` compiles a benchmark × target
//! grid with `compile_many`, pass after pass, for the run's duration.
//!
//! * `corpus-cold` — the corpus minus its two zero-valued benchmarks, for
//!   `c99` and `arith-fma`: the compile behind the paper's figures, where
//!   `prepare` (sampling plus Rival truth) dominates.
//! * `retarget` — the benchmarks that prepare, for all nine builtin targets
//!   (the paper's Table 6): the same preparation shared by nine searches, so
//!   lowering, improve, regimes and final evaluation dominate.

use crate::check;
use crate::metrics;
use crate::report::Report;
use crate::stats;
use crate::sys;
use crate::trace::{ms, Trace, Tracer};
use chassis::{
    CompilationResult, CompileError, Config, ErrorKind, Prepared, Progress, SearchControl, Session,
};
use fpcore::FPCore;
use std::time::{Duration, Instant};
use targets::Target;

/// Corpus benchmarks whose real value is identically zero: Rival never
/// converges on them and the sampler spends its whole attempt budget before
/// a typed ground-truth error (about 30 s and 60 s on two cores). They would
/// swamp every other cost in a corpus pass; the `zero-truth` mode measures
/// that path on its own.
pub const ZERO_VALUED: [&str; 2] = ["cot-difference", "exp-sq-difference"];

/// Corpus benchmarks that fail sampling at the default session seed (and at
/// every other seed tried); `retarget` leaves them out so that its jobs are
/// all searches.
pub const UNPREPARABLE: [&str; 5] = [
    "triangle-area-heron",
    "projectile-range",
    "pendulum-period",
    "doppler-shift",
    "snell-refraction",
];

/// Set-up is timed in blocks of this many input builds: one build takes
/// under a millisecond, where a single timing is mostly scheduler noise.
const SETUP_BLOCK: usize = 50;

/// Blocks timed before every pass; the median block's time per build is
/// reported. Spread over the run, the blocks see the same phases of a shared
/// machine as the passes do, rather than only its state in the run's first
/// second.
const SETUP_BLOCKS_PER_PASS: usize = 2;

/// Passes per run at least, so every run can compare two passes' results.
const MIN_PASSES: usize = 2;

/// One workload's inputs.
pub struct Batch {
    /// Benchmarks, in the run's seeded order.
    pub cores: Vec<FPCore>,
    /// Targets, in builtin order.
    pub targets: Vec<Target>,
    /// Session configuration: the daemon's default `fast` profile.
    pub config: Config,
}

/// Builds a workload's inputs: the corpus in corpus order at the profile's
/// default sampling seed, whatever the workload seed.
///
/// Both ways a seed could vary these inputs change how much work a pass
/// holds, which is what the workload measures. Seeded sampling seeds moved
/// the CPU per job by 14% across five seeds. A seeded order moves work
/// between the contiguous chunks `chassis::par` hands its workers, so wall
/// time follows the order as well as the code. A fixed input also makes the
/// quality figures repeat exactly.
pub fn inputs(workload: &str) -> Batch {
    let retarget = workload == "retarget";
    let cores = benchsuite::all()
        .iter()
        .filter(|b| !(ZERO_VALUED.contains(&b.name) || retarget && UNPREPARABLE.contains(&b.name)))
        .map(benchsuite::Benchmark::fpcore)
        .collect();
    let targets = if retarget {
        targets::builtin::all_targets()
    } else {
        ["c99", "arith-fma"]
            .iter()
            .map(|n| targets::builtin::by_name(n).expect("builtin target"))
            .collect()
    };
    Batch {
        cores,
        targets,
        config: Config::fast(),
    }
}

/// Builds the inputs [`SETUP_BLOCKS_PER_PASS`] × [`SETUP_BLOCK`] times,
/// adding each block's time per build to `times`.
fn timed_setup(workload: &str, times: &mut Vec<f64>) -> Batch {
    let mut batch = None;
    for _ in 0..SETUP_BLOCKS_PER_PASS {
        let t = Instant::now();
        for _ in 0..SETUP_BLOCK {
            batch = Some(std::hint::black_box(inputs(workload)));
        }
        times.push(t.elapsed().as_secs_f64() / SETUP_BLOCK as f64);
    }
    batch.expect("at least one setup")
}

type Grid = Vec<Vec<Result<CompilationResult, CompileError>>>;

/// One pass's outcome.
struct Pass {
    grid: Grid,
    wall: Duration,
    cpu_s: f64,
}

fn untraced_pass(batch: &Batch, tracer: &Tracer) -> Pass {
    let observe = |e: &Progress| tracer.observe(e);
    let ctl = SearchControl::new().with_progress(&observe);
    let cpu = sys::cpu_seconds();
    let started = Instant::now();
    let session = Session::new(batch.config.clone());
    let grid = session.compile_many_with(&batch.cores, &batch.targets, &ctl);
    Pass {
        wall: started.elapsed(),
        cpu_s: sys::cpu_seconds() - cpu,
        grid,
    }
}

/// A pass with every layer timed from outside: each `Session::prepare` on
/// the benchmark's clock (in parallel, as `compile_many` prepares), then
/// `compile_many_with` over the prepared benchmarks under a full tracer.
struct TracedPass {
    pass: Pass,
    prepare_ms: Vec<f64>,
    prepare_wall: Duration,
    prepare_failed: usize,
}

fn traced_pass(batch: &Batch, tracer: &Tracer) -> TracedPass {
    let observe = |e: &Progress| tracer.observe(e);
    let ctl = SearchControl::new().with_progress(&observe);
    let cpu = sys::cpu_seconds();
    let started = Instant::now();
    let session = Session::new(batch.config.clone());
    let prepared: Vec<(f64, Result<Prepared, CompileError>)> =
        chassis::par::par_map(&batch.cores, |core| {
            let t = Instant::now();
            let p = session.prepare(core);
            (ms(t.elapsed()), p)
        });
    let prepare_wall = started.elapsed();
    // Failed preparations are not cached, so only prepared benchmarks go on
    // to `compile_many` (which would otherwise sample them again).
    let ready: Vec<FPCore> = batch
        .cores
        .iter()
        .zip(&prepared)
        .filter(|(_, (_, p))| p.is_ok())
        .map(|(c, _)| c.clone())
        .collect();
    let mut rows = session
        .compile_many_with(&ready, &batch.targets, &ctl)
        .into_iter();
    let wall = started.elapsed();
    let cpu_s = sys::cpu_seconds() - cpu;
    let grid = prepared
        .iter()
        .map(|(_, p)| match p {
            Ok(_) => rows.next().expect("one row per prepared benchmark"),
            Err(e) => batch.targets.iter().map(|_| Err(e.clone())).collect(),
        })
        .collect();
    TracedPass {
        prepare_ms: prepared.iter().map(|(t, _)| *t).collect(),
        prepare_failed: prepared.iter().filter(|(_, p)| p.is_err()).count(),
        prepare_wall,
        pass: Pass { grid, wall, cpu_s },
    }
}

/// What the checks found in one pass.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    by_kind: [u64; 5],
}

fn kind_slot(kind: ErrorKind) -> usize {
    match kind {
        ErrorKind::Unsupported => 0,
        ErrorKind::Sampling => 1,
        ErrorKind::GroundTruth => 2,
        ErrorKind::Internal => 3,
        ErrorKind::ResourceExhausted => 4,
    }
}

fn check_grid(batch: &Batch, grid: &Grid, out: &mut Outcomes) {
    for row in grid {
        for (cell, target) in row.iter().zip(&batch.targets) {
            out.attempted += 1;
            match cell {
                Ok(result) => {
                    if let Err(why) = check::check_result(target, result) {
                        out.failed += 1;
                        out.mismatches.push(format!("{}: {why}", target.name));
                    }
                }
                Err(e) => {
                    out.by_kind[kind_slot(e.kind())] += 1;
                    if e.kind() == ErrorKind::Internal {
                        out.failed += 1;
                    }
                }
            }
        }
    }
}

fn ok_results(grid: &Grid) -> impl Iterator<Item = &CompilationResult> {
    grid.iter().flatten().filter_map(|c| c.as_ref().ok())
}

/// Runs `corpus-cold` or `retarget`.
pub fn run(workload: &str, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let batch = timed_setup(workload, &mut setups);
    let jobs = batch.cores.len() * batch.targets.len();
    report.note(format!(
        "{workload}: {} benchmarks x {} targets = {jobs} jobs per pass, config fast, session seed {}",
        batch.cores.len(),
        batch.targets.len(),
        batch.config.seed
    ));

    let mut outcomes = Outcomes::default();
    let mut fingerprints = Vec::new();
    if trace {
        run_traced(&batch, &mut report, &mut outcomes, &mut fingerprints);
    } else {
        let tracer = Tracer::new(false);
        let budget = Duration::from_secs(seconds);
        let started = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        while passes.len() < MIN_PASSES || started.elapsed() < budget {
            if !passes.is_empty() {
                timed_setup(workload, &mut setups);
            }
            let pass = untraced_pass(&batch, &tracer);
            check_grid(&batch, &pass.grid, &mut outcomes);
            fingerprints.push(check::fingerprint(pass.grid.iter().flatten()));
            // Later passes only need their digest, wall and CPU time.
            let keep = passes.is_empty();
            passes.push(if keep {
                pass
            } else {
                Pass {
                    grid: Vec::new(),
                    ..pass
                }
            });
        }
        // Medians over passes: one pass slowed by a neighbour on a shared
        // machine moves the total, not the median.
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| jobs as f64 / p.wall.as_secs_f64())
            .collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s * 1e3 / jobs as f64).collect();
        report.set("setup_s", stats::median(&setups));
        report.note(format!(
            "setup_s: median over {} blocks of {SETUP_BLOCK} setups, {SETUP_BLOCKS_PER_PASS} before each pass, of the time per setup (corpus parse, target tables, config): {setups:.7?} s",
            setups.len()
        ));
        report.set("jobs_per_s", stats::median(&rates));
        report.set("cpu_ms_per_job", stats::median(&cpus));
        report.set("peak_rss_mb", sys::peak_rss_mb());
        let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
        let cpu: f64 = passes.iter().map(|p| p.cpu_s).sum();
        let (speedup, gain, n) = metrics::quality(ok_results(&passes[0].grid));
        report.set("quality.speedup_geomean", speedup);
        report.set("quality.accuracy_gain_bits", gain);
        let job_ms = tracer.take().job_ms;
        metrics::latency(
            &mut report,
            &job_ms,
            n * MIN_PASSES,
            "search latency per Ok job, lowering start to final evaluation end",
        );
        report.note(format!(
            "{} passes, {wall:.3} s wall, {cpu:.3} s CPU; jobs_per_s and cpu_ms_per_job are medians over passes of {rates:.3?} jobs/s and {cpus:.3?} ms",
            passes.len(),
        ));
        report.note(format!(
            "quality over {n} Ok cells of pass 1; base: each cell's initial program"
        ));
    }
    finish(&mut report, &outcomes, &fingerprints);
    report
}

fn finish(report: &mut Report, outcomes: &Outcomes, fingerprints: &[String]) {
    let repeatable = fingerprints.windows(2).all(|w| w[0] == w[1]);
    report.note(format!(
        "frontier fingerprint {} over {} passes ({})",
        fingerprints.first().map_or("none", String::as_str),
        fingerprints.len(),
        if repeatable { "identical" } else { "DIFFERENT" }
    ));
    for m in outcomes.mismatches.iter().take(5) {
        report.note(format!("MISMATCH {m}"));
    }
    report.correct = outcomes.mismatches.is_empty() && repeatable;
    report.attempted = outcomes.attempted;
    report.failed = outcomes.failed + u64::from(!repeatable);
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    let passes = fingerprints.len().max(1) as f64;
    for (name, slot) in [
        ("jobs.unsupported", 0),
        ("jobs.sampling", 1),
        ("jobs.ground_truth", 2),
        ("jobs.internal", 3),
    ] {
        report.set(name, outcomes.by_kind[slot] as f64 / passes);
    }
    report.note(format!(
        "outcomes per pass: unsupported {}, sampling {}, ground-truth {}, internal {}, resource-exhausted {}",
        outcomes.by_kind[0] as f64 / passes,
        outcomes.by_kind[1] as f64 / passes,
        outcomes.by_kind[2] as f64 / passes,
        outcomes.by_kind[3] as f64 / passes,
        outcomes.by_kind[4] as f64 / passes
    ));
}

fn run_traced(
    batch: &Batch,
    report: &mut Report,
    outcomes: &mut Outcomes,
    fingerprints: &mut Vec<String>,
) {
    // The untraced pass is the base of the tracing overhead.
    let base = untraced_pass(batch, &Tracer::new(false));
    check_grid(batch, &base.grid, outcomes);
    fingerprints.push(check::fingerprint(base.grid.iter().flatten()));
    drop(base.grid);

    let tracer = Tracer::new(true);
    let traced = traced_pass(batch, &tracer);
    let pass = &traced.pass;
    check_grid(batch, &pass.grid, outcomes);
    fingerprints.push(check::fingerprint(pass.grid.iter().flatten()));
    let t: Trace = tracer.take();

    report.set(
        "trace.overhead_frac",
        pass.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0,
    );
    report.note(format!(
        "trace.overhead_frac: traced pass {:.3} s over untraced pass {:.3} s, minus 1",
        pass.wall.as_secs_f64(),
        base.wall.as_secs_f64()
    ));
    metrics::prepare_metrics(report, &traced.prepare_ms, traced.prepare_failed);
    report.note(format!(
        "prepare share of the traced pass: {:.3} ({:.3} s of {:.3} s wall)",
        traced.prepare_wall.as_secs_f64() / pass.wall.as_secs_f64(),
        traced.prepare_wall.as_secs_f64(),
        pass.wall.as_secs_f64()
    ));
    let ok: Vec<(&Target, &CompilationResult)> = pass
        .grid
        .iter()
        .flat_map(|row| row.iter().zip(&batch.targets))
        .filter_map(|(c, t)| c.as_ref().ok().map(|r| (t, r)))
        .collect();
    metrics::search_metrics(report, &t, ok.iter().map(|(_, r)| &r.stats));
    metrics::eval_metrics(report, &ok);
    let threads = sys::threads();
    report.set(
        "par.busy_frac",
        pass.cpu_s / (pass.wall.as_secs_f64() * threads as f64),
    );
    report.note(format!(
        "par.busy_frac: {:.3} s CPU / ({:.3} s wall x {threads} threads), traced pass",
        pass.cpu_s,
        pass.wall.as_secs_f64()
    ));
}
