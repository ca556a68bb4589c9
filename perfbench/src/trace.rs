//! The benchmark's own clock on the compiler's `Progress` events.
//!
//! Events arrive synchronously on the thread doing the work, and a job's
//! phases run in order on one thread (nested `par` calls inside a worker run
//! serially), so a `(thread, phase)` pair identifies an open phase. The
//! untraced runs keep only each job's latency — from its `Lowering` start to
//! its `FinalEvaluation` finish; the traced run also sums phase times and
//! counts the search's events.

use chassis::{Phase, Progress};
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Per-phase wall time and event counts, summed over every job observed.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Milliseconds in lowering, improve, regimes and final evaluation.
    pub phase_ms: [f64; 4],
    /// `ImproveIteration` events.
    pub iterations: u64,
    /// `FrontierPointAdmitted` events.
    pub admitted: u64,
    /// `RegimesInferred` events.
    pub regimes: u64,
    /// Programs verified (`ProgramsVerified`).
    pub verified: u64,
    /// Registers liveness-driven compaction saved on verified programs.
    pub regs_saved: u64,
    /// One latency per completed job, in milliseconds.
    pub job_ms: Vec<f64>,
}

/// Open phases by thread and phase slot, with their start times.
type Open = HashMap<(ThreadId, usize), Instant>;

/// A `Progress` observer that timestamps events as it receives them.
pub struct Tracer {
    full: bool,
    state: Mutex<(Open, Trace)>,
}

fn slot(phase: Phase) -> Option<usize> {
    match phase {
        Phase::Lowering => Some(0),
        Phase::Improve => Some(1),
        Phase::Regimes => Some(2),
        Phase::FinalEvaluation => Some(3),
        Phase::Prepare => None,
    }
}

impl Tracer {
    /// An observer that records job latencies only (`full == false`) or
    /// every phase and event (`full == true`).
    pub fn new(full: bool) -> Tracer {
        Tracer {
            full,
            state: Mutex::new((HashMap::new(), Trace::default())),
        }
    }

    /// Handles one event; install with `SearchControl::with_progress`.
    pub fn observe(&self, event: &Progress) {
        let now = Instant::now();
        let thread = std::thread::current().id();
        let mut guard = self
            .state
            .lock()
            .expect("a tracer never panics holding its lock");
        let (open, trace) = &mut *guard;
        match *event {
            Progress::PhaseStarted { phase } => {
                if let Some(i) = slot(phase) {
                    if self.full || i == 0 {
                        open.insert((thread, i), now);
                    }
                }
            }
            Progress::PhaseFinished { phase, .. } => {
                let Some(i) = slot(phase) else { return };
                if self.full {
                    if let Some(t) = open.get(&(thread, i)) {
                        trace.phase_ms[i] += ms(now - *t);
                    }
                }
                if i == 3 {
                    if let Some(t) = open.get(&(thread, 0)) {
                        trace.job_ms.push(ms(now - *t));
                    }
                }
            }
            Progress::ImproveIteration { .. } if self.full => trace.iterations += 1,
            Progress::FrontierPointAdmitted { .. } if self.full => trace.admitted += 1,
            Progress::RegimesInferred { .. } if self.full => trace.regimes += 1,
            Progress::ProgramsVerified {
                programs,
                regs,
                regs_compacted,
            } if self.full => {
                trace.verified += programs as u64;
                trace.regs_saved += regs.saturating_sub(regs_compacted) as u64;
            }
            _ => {}
        }
    }

    /// Everything recorded so far.
    pub fn take(&self) -> Trace {
        let mut guard = self
            .state
            .lock()
            .expect("a tracer never panics holding its lock");
        guard.0.clear();
        std::mem::take(&mut guard.1)
    }
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
