//! `serve-mixed`: the compile daemon in process, with a persistent store in a
//! fresh directory, under load from this process.
//!
//! A hot set is compiled during set-up. The untraced run then alternates, in
//! [`ROUNDS`] rounds, a block of misses (fresh-seed requests, each a
//! `prepare` plus a one-target search that writes the store) sent back to
//! back on one connection at a time, and a block of hot-set hits (memory
//! reads) sent back to back over `nproc` connections (see [`rounds`]). The
//! misses set the latency figures, the hits `jobs_per_s`. Both blocks keep
//! the machine busy, and the rounds spread each class over the whole run, so
//! a slow stretch of a shared machine falls on both alike.
//!
//! The traced run keeps the open-loop view for the per-layer figures: nine
//! in ten requests ask for a hot-set entry on a seeded Poisson schedule, one
//! in ten is a miss, evenly spaced (see [`schedule`]), and each latency is
//! measured from the request's due time, so a stalled daemon shows in every
//! request queued behind it. Its figures are not end-to-end metrics: between
//! open-loop requests the CPUs idle, and on a shared virtual machine a served
//! miss then took 1.4 to 2.4 times its direct compile, by how busy the host
//! was, where back-to-back misses take about 1.1 times.
//!
//! The misses are the same requests in the same order in every run: the
//! benchmark pool walked in fixed permutations, so every run compiles each
//! benchmark about equally often. The seed decides when requests arrive and
//! which hot entry each hit asks for, not which compiles a run holds.

use crate::batch::{UNPREPARABLE, ZERO_VALUED};
use crate::check;
use crate::metrics;
use crate::report::Report;
use crate::stats;
use crate::sys;
use crate::trace::{ms, Tracer};
use chassis::{CompilationResult, CompileError, Config, Progress, SearchControl, Session};
use service::json::Json;
use service::{client, ServerConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use targets::Target;

/// Offered load of the traced run's open-loop window, requests per second:
/// with one miss in ten, a window of 20 s or more holds the 100 misses a p90
/// needs.
pub const RATE: f64 = 50.0;
/// Share of requests that carry a fresh seed.
pub const MISS_SHARE: f64 = 0.10;
/// Entries compiled during set-up and then requested again.
pub const HOT_SET: usize = 16;
/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Offered rates of the traced run's capacity ladder, requests per second.
pub const LADDER: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
/// Rounds of the untraced run, each a block of misses and a block of hits.
pub const ROUNDS: usize = 10;
/// Misses of the untraced run per second of `--seconds`: 180 for 30 s, which
/// support a p90 and take about 11 s on two cores.
const MISSES_PER_S: usize = 6;
/// Share of `--seconds` the untraced run spends in hit blocks.
const HIT_SHARE: f64 = 0.4;
/// Requests per ladder step: 20 misses, enough for their median.
const LADDER_STEP: usize = 200;
/// A ladder step meets the latency limits when the p90 of its hits and the
/// median of its misses are at most these.
pub const HIT_LIMIT_MS: f64 = 25.0;
/// See [`HIT_LIMIT_MS`].
pub const MISS_LIMIT_MS: f64 = 250.0;
/// A ladder step keeps up when it answers at least this share of its
/// offered rate; below it, the backlog grows.
const KEEP_UP: f64 = 0.95;

/// One compile request: a corpus benchmark, a builtin target, a seed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Req {
    /// Index into [`pool`].
    pub bench: usize,
    /// Index into `targets::builtin::all_targets()`.
    pub target: usize,
    /// Sampling seed.
    pub seed: u64,
}

/// One scheduled request.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Arrival {
    /// Due time, from the start of the window.
    pub due: Duration,
    /// What to ask for.
    pub req: Req,
    /// Whether it was planned as a hot-set hit.
    pub hot: bool,
}

/// The benchmarks requests are drawn from: the corpus minus its
/// zero-valued benchmarks.
pub fn pool() -> Vec<&'static benchsuite::Benchmark> {
    benchsuite::all()
        .iter()
        .filter(|b| !ZERO_VALUED.contains(&b.name))
        .collect()
}

/// Seed of the request population: the hot-set candidates and the misses
/// are the same in every run, so every run holds the same compile work and
/// the quality figures repeat. The workload seed decides when requests
/// arrive, which of them are misses, the misses' order, and which hot entry
/// each hit asks for.
const POPULATION: u64 = 0x00C0_FFEE;

/// Indices into [`pool`] of the benchmarks that prepare. Requests for the
/// others fail sampling after spending the sampler's whole attempt budget,
/// so they would be neither hits (failures are not stored) nor misses that
/// run a search.
fn preparable() -> Vec<usize> {
    let pool = pool();
    (0..pool.len())
        .filter(|&i| !UNPREPARABLE.contains(&pool[i].name))
        .collect()
}

/// Hot-set candidates in the order set-up tries them: benchmarks that
/// prepare, each for a drawn target (an unsupported pair is skipped).
pub fn hot_candidates() -> Vec<Req> {
    let mut order = preparable();
    crate::shuffle(&mut order, crate::mix(POPULATION, 1));
    let mut rng = crate::SplitMix(crate::mix(POPULATION, 2));
    let seed = crate::mix(POPULATION, 3) >> 16;
    order
        .into_iter()
        .map(|bench| Req {
            bench,
            target: rng.below(9),
            seed,
        })
        .collect()
}

/// `m` miss requests for schedule `stream`: the preparable benchmarks
/// walked in permutations, so every one is asked for about equally often,
/// each request with a drawn target and a seed of its own.
pub fn misses(stream: u64, m: usize) -> Vec<Req> {
    let mut rng = crate::SplitMix(crate::mix(POPULATION, 10 + stream));
    let mut order: Vec<usize> = Vec::with_capacity(m + pool().len());
    while order.len() < m {
        let mut cycle = preparable();
        crate::shuffle(&mut cycle, rng.next_u64());
        order.extend(cycle);
    }
    let base = crate::mix(POPULATION, 100 + stream) >> 16;
    (0..m)
        .map(|k| Req {
            bench: order[k],
            target: rng.below(9),
            seed: base + k as u64,
        })
        .collect()
}

/// `n` arrivals at `rate` per second over `n / rate` seconds: exactly
/// `round(n × MISS_SHARE)` of them are the stream's [`misses`], in the
/// stream's fixed order, the rest hot-set hits.
///
/// Hits arrive as a Poisson process conditioned on their count (exponential
/// gaps rescaled to the span). Misses arrive evenly spaced from a seeded
/// phase, in the same order whatever the seed: they share one client thread,
/// so a miss due while a slow one is still compiling waits behind it. Poisson
/// bursts of misses set their p90 by where the bursts fell (it spread 24%
/// across ten seeds), and a seeded order by which slow compiles came to sit
/// next to each other. Even spacing and a fixed order leave the misses' own
/// compile times, the same in every run, to set it.
pub fn schedule(seed: u64, stream: u64, rate: f64, n: usize, hot: &[Req]) -> Vec<Arrival> {
    let mut rng = crate::SplitMix(crate::mix(seed, 100 + stream));
    let span = n as f64 / rate;
    let m = (n as f64 * MISS_SHARE).round() as usize;
    let phase = rng.unit();
    let mut plan: Vec<Arrival> = misses(stream, m)
        .into_iter()
        .enumerate()
        .map(|(k, req)| Arrival {
            due: Duration::from_secs_f64((k as f64 + phase) * span / m as f64),
            req,
            hot: false,
        })
        .collect();
    let mut t = 0.0;
    let gaps: Vec<f64> = (0..=n - m)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln();
            t
        })
        .collect();
    plan.extend(gaps[..n - m].iter().map(|at| Arrival {
        due: Duration::from_secs_f64(at * span / t),
        req: hot[rng.below(hot.len())],
        hot: true,
    }));
    plan.sort_by_key(|a| a.due);
    plan
}

/// The `POST /compile` body for a request.
pub fn body(req: &Req, targets: &[Target]) -> String {
    Json::Obj(vec![
        (
            "fpcore".to_owned(),
            Json::Str(pool()[req.bench].source.to_owned()),
        ),
        (
            "target".to_owned(),
            Json::Str(targets[req.target].name.clone()),
        ),
        ("seed".to_owned(), Json::from_u64(req.seed)),
        ("config".to_owned(), Json::Str("fast".to_owned())),
        ("client".to_owned(), Json::Str("perfbench".to_owned())),
    ])
    .to_string()
}

/// One answered (or failed) request.
struct Sent {
    req: Req,
    latency_ms: f64,
    late_ms: f64,
    /// `None` on a transport error.
    status: Option<u16>,
    body: String,
    /// How many answers this one stands for: the closed-loop hit phase keeps
    /// each distinct answer once, with its count.
    times: u64,
}

impl Sent {
    fn cache(&self) -> &str {
        // The daemon injects `"cache":"<how>"` as the first member.
        let tail = self.body.strip_prefix("{\"cache\":\"").unwrap_or("");
        tail.split('"').next().unwrap_or("")
    }

    fn hit(&self) -> bool {
        matches!(self.cache(), "memory" | "disk")
    }
}

/// Sends a schedule open loop from at most `nproc` threads, one connection
/// each at a time; returns the answers in schedule order and the window's
/// wall time in seconds.
///
/// With two or more threads, hits and misses queue for separate threads: a
/// hit then never waits behind a miss in the load generator, only in the
/// daemon, so hit latency measures the daemon's hit path under miss load.
fn drive(addr: std::net::SocketAddr, plan: &[Arrival], targets: &[Target]) -> (Vec<Sent>, f64) {
    let bodies: Vec<String> = plan.iter().map(|a| body(&a.req, targets)).collect();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let queues: Vec<Vec<usize>> = if threads == 1 {
        vec![(0..plan.len()).collect()]
    } else {
        let class = |hot: bool| (0..plan.len()).filter(|&i| plan[i].hot == hot).collect();
        vec![class(true), class(false)]
    };
    let cursors: Vec<AtomicUsize> = queues.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let (mut sent, end) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (queue, cursor) = (&queues[t % queues.len()], &cursors[t % queues.len()]);
                let (bodies, start) = (&bodies, start);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(&i) = queue.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let due = start + plan[i].due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent_at = Instant::now();
                        let answer = client::post_json(addr, "/compile", &bodies[i]);
                        let done = Instant::now();
                        let (status, body) = match answer {
                            Ok(r) => (Some(r.status), r.body),
                            Err(e) => (None, e),
                        };
                        mine.push((
                            i,
                            Sent {
                                req: plan[i].req,
                                latency_ms: ms(done.saturating_duration_since(due)),
                                late_ms: ms(sent_at.saturating_duration_since(due)),
                                status,
                                body,
                                times: 1,
                            },
                        ));
                    }
                    (mine, Instant::now())
                })
            })
            .collect();
        let mut all = Vec::with_capacity(plan.len());
        let mut end = start;
        for w in workers {
            let (mine, finished) = w.join().expect("a load thread never panics");
            all.extend(mine);
            end = end.max(finished);
        }
        (all, end)
    });
    sent.sort_by_key(|(i, _)| *i);
    let window = end.saturating_duration_since(start).as_secs_f64();
    (sent.into_iter().map(|(_, s)| s).collect(), window)
}

/// One hit block: `nproc` client threads, one connection each at a time, ask
/// for hot-set entries back to back (each thread in its own order, seeded by
/// `seed` and `round`) for `span`. Returns the answers and the block's wall
/// time, and tallies every distinct answer into `distinct` for the
/// correctness check.
///
/// The load threads share the machine with the daemon, so the rate is that
/// of the whole loop: HTTP both ways, JSON, keying and the memory store.
fn hit_block(
    addr: std::net::SocketAddr,
    (seed, round): (u64, usize),
    span: Duration,
    bodies: &[(Req, String)],
    distinct: &mut Vec<Sent>,
) -> (u64, f64) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let start = Instant::now();
    let answered: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let tag = 200 + (round * threads + t) as u64;
                    let mut rng = crate::SplitMix(crate::mix(seed, tag));
                    let mut mine = Vec::new();
                    while start.elapsed() < span {
                        let (req, body) = &bodies[rng.below(bodies.len())];
                        let (status, body) = match client::post_json(addr, "/compile", body) {
                            Ok(r) => (Some(r.status), r.body),
                            Err(e) => (None, e),
                        };
                        tally(
                            &mut mine,
                            Sent {
                                req: *req,
                                latency_ms: 0.0,
                                late_ms: 0.0,
                                status,
                                body,
                                times: 1,
                            },
                        );
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a load thread never panics"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut count = 0;
    for s in answered.into_iter().flatten() {
        count += s.times;
        tally(distinct, s);
    }
    (count, wall)
}

/// Adds an answer to a list of distinct answers with their counts.
fn tally(distinct: &mut Vec<Sent>, s: Sent) {
    match distinct
        .iter_mut()
        .find(|d| d.req == s.req && d.status == s.status && d.body == s.body)
    {
        Some(d) => d.times += s.times,
        None => distinct.push(s),
    }
}

/// The untraced measurement: [`ROUNDS`] rounds, each a block of misses sent
/// back to back, one at a time, then a block of hits (see [`hit_block`]).
/// Sets the end-to-end figures and returns the misses' answers and the
/// distinct hit answers.
fn rounds(
    report: &mut Report,
    addr: std::net::SocketAddr,
    seed: u64,
    seconds: u64,
    hot: &[Req],
    targets: &[Target],
) -> (Vec<Sent>, Vec<Sent>) {
    let m = (MISSES_PER_S * seconds as usize).max(ROUNDS);
    let planned: Vec<(Req, String)> = misses(0, m)
        .into_iter()
        .map(|r| (r, body(&r, targets)))
        .collect();
    let hit_bodies: Vec<(Req, String)> = hot.iter().map(|r| (*r, body(r, targets))).collect();
    let span = Duration::from_secs_f64(seconds as f64 * HIT_SHARE / ROUNDS as f64);
    let (mut sent, mut hits) = (Vec::with_capacity(m), Vec::new());
    let (mut miss_cpu, mut miss_wall) = (0.0, 0.0);
    let mut rates = Vec::with_capacity(ROUNDS);
    let (mut answered, mut hit_wall) = (0, 0.0);
    for (round, block) in planned.chunks(m.div_ceil(ROUNDS)).enumerate() {
        let cpu = sys::cpu_seconds();
        let t = Instant::now();
        for (req, body) in block {
            let sent_at = Instant::now();
            let answer = client::post_json(addr, "/compile", body);
            let latency_ms = ms(sent_at.elapsed());
            let (status, body) = match answer {
                Ok(r) => (Some(r.status), r.body),
                Err(e) => (None, e),
            };
            sent.push(Sent {
                req: *req,
                latency_ms,
                late_ms: 0.0,
                status,
                body,
                times: 1,
            });
        }
        miss_wall += t.elapsed().as_secs_f64();
        miss_cpu += sys::cpu_seconds() - cpu;
        let (n, wall) = hit_block(addr, (seed, round), span, &hit_bodies, &mut hits);
        rates.push(n as f64 / wall);
        answered += n;
        hit_wall += wall;
    }
    // The system's own high-water mark: the reference compiles that follow
    // are the benchmark's checking, not the daemon's work.
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set("jobs_per_s", answered as f64 / hit_wall);
    report.set("cpu_ms_per_job", miss_cpu * 1e3 / m as f64);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    report.note(format!(
        "serve-mixed: {} rounds of a miss block ({m} misses in all, back to back, one at a time) and a {span:?} hit block over {threads} connections; config fast",
        rates.len()
    ));
    report.note(format!(
        "jobs_per_s: {answered} hot-set hits answered in {hit_wall:.3} s of hit blocks; per round {rates:.0?} answers/s"
    ));
    report.note(format!(
        "cpu_ms_per_job: {miss_cpu:.2} s process CPU over {m} misses in {miss_wall:.3} s of miss blocks"
    ));
    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    metrics::latency(
        report,
        &latencies,
        m,
        "misses, from send to answer, each a fresh-seed prepare plus a one-target search",
    );
    (sent, hits)
}

/// The direct in-process compile of each distinct request, the reference
/// the served bodies must match.
struct Direct {
    result: Result<CompilationResult, CompileError>,
    total_ms: f64,
    prepare_ms: f64,
}

fn direct(req: &Req, targets: &[Target], ctl: &SearchControl) -> Direct {
    let core = pool()[req.bench].fpcore();
    let session = Session::new(Config::fast().with_seed(req.seed));
    let t = Instant::now();
    let prepared = session.prepare(&core);
    let prepare_ms = ms(t.elapsed());
    let result = prepared.and_then(|p| p.compile_with(&targets[req.target], ctl));
    Direct {
        result,
        total_ms: ms(t.elapsed()),
        prepare_ms,
    }
}

/// Where store directories go, inside the working directory.
const SCRATCH: &str = ".perfbench_tmp";

/// A fresh store directory.
fn scratch_dir(tag: usize) -> PathBuf {
    Path::new(SCRATCH).join(format!("serve-{}-{tag}", std::process::id()))
}

struct Daemon {
    handle: service::Handle,
    dir: PathBuf,
    hot: Vec<Req>,
}

impl Daemon {
    fn stop(self) {
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds once the last store directory is gone.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

/// Starts the daemon on a fresh store and compiles the hot set through it.
fn setup(tag: usize, targets: &[Target]) -> Daemon {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the working directory is writable");
    let handle = service::start(ServerConfig {
        disk_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("the daemon starts on a free loopback port");
    let mut hot = Vec::with_capacity(HOT_SET);
    for req in hot_candidates() {
        if hot.len() == HOT_SET {
            break;
        }
        // Only results the store keeps can be hit later: typed failures are
        // recomputed on every request, so they stay out of the hot set.
        if client::post_json(handle.addr(), "/compile", &body(&req, targets))
            .is_ok_and(|r| r.status == 200)
        {
            hot.push(req);
        }
    }
    Daemon { handle, dir, hot }
}

fn stat(addr: std::net::SocketAddr, field: &str) -> f64 {
    client::get(addr, "/stats")
        .ok()
        .and_then(|r| Json::parse(&r.body).ok())
        .and_then(|d| d.get(field).and_then(Json::as_u64))
        .map_or(f64::NAN, |v| v as f64)
}

fn pct(samples: &[f64], p: f64) -> f64 {
    stats::percentile(samples, p).map_or(f64::NAN, |p| p.value)
}

/// Runs `serve-mixed`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let targets = targets::builtin::all_targets();
    let daemon = setups(&mut report, &targets);
    let addr = daemon.handle.addr();
    let mut ladder = Vec::new();
    let (mut sent, closed) = if trace {
        (
            window(&mut report, addr, seed, seconds, &daemon.hot, &targets),
            Vec::new(),
        )
    } else {
        rounds(&mut report, addr, seed, seconds, &daemon.hot, &targets)
    };
    if trace {
        for (step, &rate) in LADDER.iter().enumerate() {
            let plan = schedule(seed, 1 + step as u64, rate, LADDER_STEP, &daemon.hot);
            let (more, window_s) = drive(addr, &plan, &targets);
            ladder.push((rate, sent.len(), more.len(), window_s));
            sent.extend(more);
        }
        let rtts: Vec<f64> = (0..40)
            .map(|_| {
                let t = Instant::now();
                let _ = client::get(addr, "/healthz");
                ms(t.elapsed())
            })
            .collect();
        report.set("net.healthz_rtt_ms", pct(&rtts, 50.0));
        report.note("net.healthz_rtt_ms: median of 40 GET /healthz on an idle daemon");
    }
    let hot = daemon.hot.clone();
    Daemon::stop(daemon);
    if trace {
        tracing_overhead(&mut report, &hot, &targets);
    }

    // The reference compiles, one per distinct request, on this thread so
    // each uses the full `par` width as the daemon's jobs do.
    let tracer = Tracer::new(true);
    let observe = |e: &Progress| tracer.observe(e);
    let ctl = if trace {
        SearchControl::new().with_progress(&observe)
    } else {
        SearchControl::new()
    };
    let mut refs: HashMap<Req, Direct> = HashMap::new();
    let mut order = Vec::new();
    for s in sent.iter().chain(&closed) {
        refs.entry(s.req).or_insert_with(|| {
            order.push(s.req);
            direct(&s.req, &targets, &ctl)
        });
    }
    verdicts(&mut report, sent.iter().chain(&closed), &refs, &targets);
    let ok: Vec<(&Target, &CompilationResult)> = order
        .iter()
        .filter_map(|r| {
            let result = refs[r].result.as_ref().ok()?;
            Some((&targets[r.target], result))
        })
        .collect();
    let (speedup, gain, cells) = metrics::quality(ok.iter().map(|(_, r)| *r));
    report.set("quality.speedup_geomean", speedup);
    report.set("quality.accuracy_gain_bits", gain);
    report.note(format!(
        "quality over {cells} distinct Ok requests; base: each request's initial program; {} distinct requests compiled directly as the reference",
        order.len()
    ));

    if trace {
        metrics::search_metrics(
            &mut report,
            &tracer.take(),
            ok.iter().map(|(_, r)| &r.stats),
        );
        metrics::eval_metrics(&mut report, &ok);
        let prepare: Vec<f64> = order.iter().map(|r| refs[r].prepare_ms).collect();
        let failed = order
            .iter()
            .filter(|r| {
                matches!(
                    refs[*r].result,
                    Err(CompileError::Sampling(_) | CompileError::GroundTruth(_))
                )
            })
            .count();
        metrics::prepare_metrics(&mut report, &prepare, failed);
        let waits: Vec<f64> = sent
            .iter()
            .filter(|s| s.status == Some(200) && !s.hit())
            .map(|s| s.latency_ms - refs[&s.req].total_ms)
            .collect();
        report.set("pool.wait_ms", stats::median(&waits));
        report.note(format!(
            "pool.wait_ms: median over {} misses of latency minus the direct compile of the same request",
            waits.len()
        ));
        ladder_metrics(&mut report, &sent, &refs, &ladder);
        replay_metrics(&mut report, &sent, &targets);
    }
    report
}

/// `trace.overhead_frac`: the load runs untraced in both modes, so the
/// traced work is the reference compiles. Each hot-set request is compiled
/// directly without and then with the full tracer; the overhead is the
/// traced total over the untraced one, minus 1.
fn tracing_overhead(report: &mut Report, hot: &[Req], targets: &[Target]) {
    let tracer = Tracer::new(true);
    let observe = |e: &Progress| tracer.observe(e);
    let traced = SearchControl::new().with_progress(&observe);
    let plain = SearchControl::new();
    let (mut base_ms, mut traced_ms) = (0.0, 0.0);
    for req in hot {
        base_ms += direct(req, targets, &plain).total_ms;
        traced_ms += direct(req, targets, &traced).total_ms;
    }
    report.set("trace.overhead_frac", traced_ms / base_ms - 1.0);
    report.note(format!(
        "trace.overhead_frac: {} hot-set requests compiled directly, {traced_ms:.3} ms traced over {base_ms:.3} ms untraced, minus 1",
        hot.len()
    ));
}

/// Sets the daemon up [`SETUP_REPEATS`] times, reports the median set-up
/// time, and keeps the last daemon running.
fn setups(report: &mut Report, targets: &[Target]) -> Daemon {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let t = Instant::now();
        daemon = Some(setup(k, targets));
        times.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one setup");
    report.set("setup_s", stats::median(&times));
    report.note(format!(
        "setup_s: median of {SETUP_REPEATS} setups (daemon start on a fresh store, {} hot entries compiled)",
        daemon.hot.len()
    ));
    daemon
}

/// The traced run's open-loop window: the seeded schedule at [`RATE`] for
/// `seconds`.
fn window(
    report: &mut Report,
    addr: std::net::SocketAddr,
    seed: u64,
    seconds: u64,
    hot: &[Req],
    targets: &[Target],
) -> Vec<Sent> {
    let n = (RATE * seconds as f64).round() as usize;
    let plan = schedule(seed, 0, RATE, n, hot);
    let counters = [
        ("store.hits_memory", "hits_memory"),
        ("store.misses", "misses"),
        ("daemon.compiles", "compiles"),
        ("daemon.coalesced", "coalesced"),
        ("daemon.queue_rejected", "queue_rejected"),
    ];
    let before: Vec<f64> = counters.iter().map(|(_, f)| stat(addr, f)).collect();
    let cpu = sys::cpu_seconds();
    let (sent, window_s) = drive(addr, &plan, targets);
    let cpu_s = sys::cpu_seconds() - cpu;
    for ((name, field), b) in counters.iter().zip(before) {
        report.set(name, stat(addr, field) - b);
    }
    let threads = sys::threads();
    report.set("par.busy_frac", cpu_s / (window_s * threads as f64));
    report.note(format!(
        "serve-mixed: open loop at {RATE} req/s (hits Poisson, misses evenly spaced), {n} requests, {} planned misses, config fast, {} client threads",
        plan.iter().filter(|a| !a.hot).count(),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    ));
    report.note(format!(
        "window {window_s:.3} s, {cpu_s:.3} s CPU (daemon and load threads together); par.busy_frac = CPU / (window x {threads} threads); daemon counters are deltas over the window"
    ));
    class_latency(report, &sent);
    sent
}

/// Checks every answer against its reference compile and records the
/// outcome counts.
///
/// A wrong answer — a served body that differs from the direct compile, or a
/// typed error that is not the one the direct compile returns — makes the
/// run incorrect. A transport error, a refusal, or a 5xx other than the
/// typed 501 `Unsupported` is a failure.
fn verdicts<'a>(
    report: &mut Report,
    sent: impl Iterator<Item = &'a Sent>,
    refs: &HashMap<Req, Direct>,
    targets: &[Target],
) {
    let mut wrong = Vec::new();
    let mut failures = Vec::new();
    let mut kinds: HashMap<String, u64> = HashMap::new();
    let (mut attempted, mut n_wrong, mut n_failed) = (0, 0, 0);
    for s in sent {
        attempted += s.times;
        let (w, f) = (wrong.len(), failures.len());
        match (s.status, &refs[&s.req].result) {
            (None, _) => failures.push(format!("transport error: {}", s.body)),
            (Some(200), Ok(direct)) => {
                if let Err(why) = check::served_matches(&s.body, direct)
                    .and_then(|()| check::check_result(&targets[s.req.target], direct))
                {
                    wrong.push(why);
                }
            }
            (Some(status), Err(e)) => {
                let kind = e.kind().to_string();
                *kinds.entry(kind.clone()).or_default() += s.times;
                let served_kind = Json::parse(&s.body)
                    .ok()
                    .and_then(|d| {
                        let k = d.get("error")?.get("kind")?.as_str()?;
                        Some(k.to_owned())
                    })
                    .unwrap_or_default();
                if status != service::server::status_for(e.kind()) || served_kind != kind {
                    wrong.push(format!(
                        "{status} {served_kind} served, {kind} compiled directly"
                    ));
                } else if e.kind() == chassis::ErrorKind::Internal {
                    failures.push(format!("{status} internal error"));
                }
            }
            (Some(status), Ok(_)) => {
                failures.push(format!("{status} served for a request that compiles"));
            }
        }
        n_wrong += s.times * (wrong.len() - w) as u64;
        n_failed += s.times * (failures.len() - f) as u64;
    }
    for why in wrong
        .iter()
        .map(|w| format!("MISMATCH {w}"))
        .chain(failures.iter().map(|f| format!("FAILED {f}")))
        .take(5)
    {
        report.note(why);
    }
    report.correct = wrong.is_empty();
    report.attempted = attempted;
    report.failed = n_wrong + n_failed;
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    for (name, kind) in [
        ("jobs.unsupported", "unsupported"),
        ("jobs.sampling", "sampling"),
        ("jobs.ground_truth", "ground-truth"),
        ("jobs.internal", "internal"),
    ] {
        report.set(name, kinds.get(kind).copied().unwrap_or(0) as f64);
    }
}

fn class_latency(report: &mut Report, sent: &[Sent]) {
    let hits: Vec<f64> = sent
        .iter()
        .filter(|s| s.hit())
        .map(|s| s.latency_ms)
        .collect();
    let misses: Vec<f64> = sent
        .iter()
        .filter(|s| !s.hit())
        .map(|s| s.latency_ms)
        .collect();
    let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
    report.set("serve.hit_p50_ms", pct(&hits, 50.0));
    report.set("serve.hit_p90_ms", pct(&hits, 90.0));
    report.set("serve.miss_p50_ms", pct(&misses, 50.0));
    report.set("serve.miss_p90_ms", pct(&misses, 90.0));
    report.set("gen.late_p90_ms", pct(&late, 90.0));
    let show = |v: &[f64], p: f64| {
        stats::percentile(v, p).map_or("n/a (fewer than 10 samples beyond)".to_owned(), |x| {
            format!("{:.3} ms", x.value)
        })
    };
    report.note(format!(
        "hits n={}: p50 {}, p90 {}, p99 {}; misses n={}: p50 {}, p90 {}; generator lateness n={}: p90 {}, p99 {}",
        hits.len(),
        show(&hits, 50.0),
        show(&hits, 90.0),
        show(&hits, 99.0),
        misses.len(),
        show(&misses, 50.0),
        show(&misses, 90.0),
        late.len(),
        show(&late, 90.0),
        show(&late, 99.0)
    ));
}

/// `serve.max_rps`: the highest ladder rate whose requests all succeed,
/// whose hits and misses meet [`HIT_LIMIT_MS`] and [`MISS_LIMIT_MS`], and
/// which is answered at [`KEEP_UP`] of its offered rate or better.
fn ladder_metrics(
    report: &mut Report,
    sent: &[Sent],
    refs: &HashMap<Req, Direct>,
    ladder: &[(f64, usize, usize, f64)],
) {
    let mut max_rps = 0.0;
    for &(rate, from, n, window_s) in ladder {
        let step = &sent[from..from + n];
        let class = |hit: bool| -> Vec<f64> {
            step.iter()
                .filter(|s| s.hit() == hit)
                .map(|s| s.latency_ms)
                .collect()
        };
        let hit_p90 = pct(&class(true), 90.0);
        let miss_p50 = pct(&class(false), 50.0);
        let answered = n as f64 / window_s;
        let ok = step.iter().all(|s| match s.status {
            Some(200) => true,
            Some(status) => refs[&s.req]
                .result
                .as_ref()
                .is_err_and(|e| service::server::status_for(e.kind()) == status),
            None => false,
        });
        let meets = ok
            && hit_p90 <= HIT_LIMIT_MS
            && miss_p50 <= MISS_LIMIT_MS
            && answered >= KEEP_UP * rate;
        if meets {
            max_rps = rate;
        }
        report.note(format!(
            "ladder {rate} req/s: n={n}, hit p90 {hit_p90:.3} ms (limit {HIT_LIMIT_MS}), miss p50 {miss_p50:.3} ms (limit {MISS_LIMIT_MS}), answered {answered:.1} req/s (at least {KEEP_UP} x offered), all ok {ok}: {}",
            if meets { "meets" } else { "misses" }
        ));
    }
    report.set("serve.max_rps", max_rps);
}

/// Per-layer service timings from an in-process replay of the run's own
/// request and response bodies.
fn replay_metrics(report: &mut Report, sent: &[Sent], targets: &[Target]) {
    let requests: Vec<String> = sent.iter().map(|s| body(&s.req, targets)).collect();
    let n = requests.len() as f64;
    let per = |t: Instant, count: f64| t.elapsed().as_secs_f64() * 1e6 / count;

    let raw: Vec<String> = requests
        .iter()
        .map(|b| {
            format!(
                "POST /compile HTTP/1.1\r\nHost: chassis\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )
        })
        .collect();
    let t = Instant::now();
    for r in &raw {
        let parsed = service::http::read_request(&mut std::io::Cursor::new(r.as_bytes()), None);
        std::hint::black_box(parsed.is_ok_and(|r| r.is_some()));
    }
    report.set("http.read_request_us", per(t, n));

    let t = Instant::now();
    let docs: Vec<Json> = requests
        .iter()
        .filter_map(|b| Json::parse(std::hint::black_box(b)).ok())
        .collect();
    report.set("json.parse_us", per(t, n));

    let t = Instant::now();
    let cores: Vec<fpcore::FPCore> = docs
        .iter()
        .filter_map(|d| d.get("fpcore").and_then(Json::as_str))
        .filter_map(|text| fpcore::parse_fpcore(text).ok())
        .collect();
    report.set("fpcore.parse_us", per(t, n));

    let t = Instant::now();
    let keys: Vec<String> = sent
        .iter()
        .zip(&cores)
        .map(|(s, core)| service::content_key(core, &targets[s.req.target], s.req.seed, "fast"))
        .collect();
    report.set("service.content_key_us", per(t, n));

    let answers: Vec<Json> = sent
        .iter()
        .filter(|s| s.status == Some(200))
        .filter_map(|s| Json::parse(&s.body).ok())
        .collect();
    let t = Instant::now();
    let emitted: usize = answers.iter().map(|a| a.to_string().len()).sum();
    std::hint::black_box(emitted);
    report.set("json.emit_us", per(t, answers.len().max(1) as f64));

    let dir = scratch_dir(99);
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(store) = service::ResultStore::open(&service::StoreConfig {
        memory_capacity: ServerConfig::default().memory_capacity,
        disk_dir: Some(dir.clone()),
    }) {
        let stored: Vec<(&String, &Sent)> = keys
            .iter()
            .zip(sent)
            .filter(|(_, s)| s.status == Some(200))
            .collect();
        let t = Instant::now();
        for (key, s) in &stored {
            store.put(key, &s.body);
        }
        report.set("store.put_us", per(t, stored.len().max(1) as f64));
        let t = Instant::now();
        for (key, _) in &stored {
            std::hint::black_box(store.get(key));
        }
        report.set("store.get_us", per(t, stored.len().max(1) as f64));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(SCRATCH);
    report.note(format!(
        "replay: {} request bodies through http::read_request, json::parse, fpcore parse and content_key; {} answers re-emitted and put/get through a fresh disk-backed store",
        requests.len(),
        answers.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> Vec<Req> {
        hot_candidates()[..HOT_SET].to_vec()
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_inputs() {
        let a = schedule(7, 0, RATE, 500, &hot());
        assert_eq!(a, schedule(7, 0, RATE, 500, &hot()));
        assert_ne!(a, schedule(8, 0, RATE, 500, &hot()));
        assert_ne!(a, schedule(7, 1, RATE, 500, &hot()));
        let targets = targets::builtin::all_targets();
        let bodies: Vec<String> = a.iter().map(|x| body(&x.req, &targets)).collect();
        let again: Vec<String> = a.iter().map(|x| body(&x.req, &targets)).collect();
        assert_eq!(bodies, again);
        // Another seed reorders the same population.
        let population = |plan: &[Arrival]| {
            let mut m: Vec<(usize, usize, u64)> = plan
                .iter()
                .filter(|a| !a.hot)
                .map(|a| (a.req.bench, a.req.target, a.req.seed))
                .collect();
            m.sort_unstable();
            m
        };
        assert_eq!(
            population(&a),
            population(&schedule(8, 0, RATE, 500, &hot()))
        );
    }

    #[test]
    fn a_schedule_has_the_planned_shape() {
        let plan = schedule(11, 0, RATE, 1000, &hot());
        let misses: Vec<&Arrival> = plan.iter().filter(|a| !a.hot).collect();
        assert_eq!(misses.len(), 100);
        // Every miss carries a seed no other request uses.
        let mut seeds: Vec<u64> = misses.iter().map(|a| a.req.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 100);
        // Misses walk the preparable benchmarks evenly: 100 misses over 73
        // benchmarks ask for each one once or twice.
        let mut asked = vec![0; pool().len()];
        for a in &misses {
            asked[a.req.bench] += 1;
        }
        for (i, &k) in asked.iter().enumerate() {
            let expected = if preparable().contains(&i) {
                1..=2
            } else {
                0..=0
            };
            assert!(expected.contains(&k), "benchmark {i} asked {k} times");
        }
        assert!(plan
            .iter()
            .filter(|a| a.hot)
            .all(|a| hot().contains(&a.req)));
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
        // Every request is due within the span the rate gives.
        let span = plan.last().expect("non-empty").due.as_secs_f64();
        assert!(
            span < 1000.0 / RATE && span > 0.9 * 1000.0 / RATE,
            "span {span}"
        );
        // Misses are evenly spaced.
        let due: Vec<f64> = misses.iter().map(|a| a.due.as_secs_f64()).collect();
        let step = 1000.0 / RATE / 100.0;
        assert!(due.windows(2).all(|w| ((w[1] - w[0]) - step).abs() < 1e-9));
    }
}
