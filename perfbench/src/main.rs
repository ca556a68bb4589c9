//! The Chassis benchmark: one command, named workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`. Lines
//! before it record the environment, sample counts and the base of every
//! ratio. See `perfbench/README.md` for the workloads and why each exists.

mod batch;
mod check;
mod metrics;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use service::json::Json;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads `BENCHMARK.json` lists; `zero-truth` is an extra, see
/// [`zero_truth`].
pub const WORKLOADS: [&str; 3] = ["corpus-cold", "retarget", "serve-mixed"];

/// SplitMix64: the benchmark's own seeded generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for one use (`tag`) of the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    SplitMix(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Fisher–Yates shuffle under `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The escalation-heavy path on its own: a cold `prepare` of
/// `cot-difference`, whose real value is identically zero, so Rival never
/// converges and the sampler spends its whole attempt budget before a typed
/// ground-truth error. One prepare takes 15 to 30 s on two cores, and there
/// is no frontier to score, so this mode reports a single time and is not
/// among the workloads `BENCHMARK.json` lists.
fn zero_truth() -> Json {
    let core = benchsuite::by_name(batch::ZERO_VALUED[0])
        .expect("corpus benchmark")
        .fpcore();
    let session = chassis::Session::new(chassis::Config::fast());
    let cpu = sys::cpu_seconds();
    let t = Instant::now();
    let outcome = session.prepare(&core);
    let wall = t.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu;
    let correct = matches!(outcome, Err(chassis::CompileError::GroundTruth(_)));
    println!(
        "# zero-truth: cold prepare of {} ends in {:?}",
        batch::ZERO_VALUED[0],
        outcome.err()
    );
    let metric = |value: f64, unit: &str| {
        Json::Obj(vec![
            ("value".to_owned(), Json::from_f64(value)),
            ("unit".to_owned(), Json::Str(unit.to_owned())),
        ])
    };
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::from_u64(1)),
        ("failed".to_owned(), Json::from_u64(u64::from(!correct))),
        (
            "metrics".to_owned(),
            Json::Obj(vec![
                ("prepare_s".to_owned(), metric(wall, "s")),
                ("cpu_s".to_owned(), metric(cpu, "s")),
                ("peak_rss_mb".to_owned(), metric(sys::peak_rss_mb(), "MiB")),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, value) in sys::environment() {
        println!("# env {name}: {value}");
    }
    println!("# env load_before: {}", sys::load());
    let steal_before = sys::steal_ticks();
    println!(
        "# run workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = match args.workload.as_str() {
        "corpus-cold" | "retarget" => batch::run(&args.workload, args.seconds, args.trace),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        "zero-truth" => {
            println!("{}", zero_truth());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}; expected one of {WORKLOADS:?} or zero-truth");
            return ExitCode::from(2);
        }
    };
    let steal_after = sys::steal_ticks();
    let (stolen, ticks) = (
        steal_after.0.saturating_sub(steal_before.0),
        steal_after.1.saturating_sub(steal_before.1).max(1),
    );
    report.note(format!(
        "env load_after: {}; {stolen} of {ticks} CPU ticks stolen during the run ({:.2}%)",
        sys::load(),
        stolen as f64 * 100.0 / ticks as f64
    ));
    match report.print(args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
