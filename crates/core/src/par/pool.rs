//! The process-wide pool behind [`chassis::par`](super): a registry of maps
//! with claimable units, the persistent workers that help with them, and
//! [`Claim`], a map's range of units behind an atomic cursor.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A map as the pool sees it, its types erased.
pub(super) trait Work: Sync {
    /// Claims and runs units until none is ready. Must not unwind: units
    /// catch their own panics.
    fn run(&self);
    /// Whether a unit is ready to claim (a hint: another thread may take
    /// it first).
    fn ready(&self) -> bool;
    /// Whether no unit will become ready again. Units already claimed
    /// may still be running.
    fn finished(&self) -> bool;
}

/// How long an idle thread spins, watching for work, before it sleeps.
/// Sweeps come back to back (one per candidate program). On a 2-core
/// x86-64 VM a sleeping worker joins a new map 15–20 µs after it is
/// issued, a spinning one within about 3 µs.
const SPIN: Duration = Duration::from_micros(50);

/// A registered map.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Work + 'static));

// SAFETY: the pointee is `Sync`, and `execute` keeps it alive for as long
// as the pointer is registered or a helper holds a seat on it.
unsafe impl Send for JobPtr {}

impl JobPtr {
    fn is(self, other: JobPtr) -> bool {
        std::ptr::addr_eq(self.0, other.0)
    }
}

struct Entry {
    job: JobPtr,
    /// How many maps enclose this one (0 for a map issued outside any).
    depth: usize,
    /// Threads other than the issuer currently running its units.
    helpers: usize,
    seats: usize,
}

struct State {
    jobs: Vec<Entry>,
    workers: usize,
    sleeping: usize,
}

static STATE: Mutex<State> = Mutex::new(State {
    jobs: Vec::new(),
    workers: 0,
    sleeping: 0,
});
static WAKE: Condvar = Condvar::new();
/// Bumped whenever a map is registered or loses its last helper. Written
/// only under the `STATE` lock; the relaxed reads outside it are spin
/// hints, and every decision to sleep re-reads it under the lock, so no
/// wake-up is lost.
static EPOCH: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// The depth of a map issued from this thread: one more than the
    /// depth of the map whose unit the thread is running, 0 outside any.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn lock() -> MutexGuard<'static, State> {
    // No user code runs under this lock and every update leaves the
    // state consistent, so a poisoned lock's contents are still valid.
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn announce(state: &State) {
    EPOCH.fetch_add(1, Ordering::Relaxed);
    if state.sleeping > 0 {
        WAKE.notify_all();
    }
}

/// Runs `job` on the calling thread, with up to `seats` pool threads
/// helping, and returns once every unit has finished.
pub(super) fn execute(job: &dyn Work, seats: usize) {
    let depth = DEPTH.with(Cell::get);
    // SAFETY: only the lifetime is erased. The entry holding this pointer
    // is removed below, after its last helper has left, before `job`'s
    // borrow ends; helpers dereference it only while holding a seat.
    // Nothing in between unwinds: `Work::run` catches unit panics, and
    // the pool code itself does not panic.
    let ptr = JobPtr(unsafe {
        std::mem::transmute::<*const (dyn Work + '_), *const (dyn Work + 'static)>(job)
    });
    {
        let mut state = lock();
        grow(&mut state);
        state.jobs.push(Entry {
            job: ptr,
            depth,
            helpers: 0,
            seats,
        });
        announce(&state);
    }
    loop {
        DEPTH.with(|d| d.set(depth + 1));
        job.run();
        DEPTH.with(|d| d.set(depth));
        if job.finished() {
            break;
        }
        drop(wait(depth, |_| job.ready() || job.finished()));
    }
    let mut state = wait(depth, |state| {
        state
            .jobs
            .iter()
            .find(|e| e.job.is(ptr))
            .is_none_or(|e| e.helpers == 0)
    });
    state.jobs.retain(|e| !e.job.is(ptr));
}

/// Starts workers until the pool has one fewer than the configured
/// thread count. Workers are never joined: they live, parked when idle,
/// until the process exits.
fn grow(state: &mut State) {
    let wanted = super::configured_threads().saturating_sub(1);
    while state.workers < wanted {
        let id = state.workers;
        let spawned = std::thread::Builder::new()
            .name(format!("chassis-par-{id}"))
            .spawn(move || worker(id));
        if spawned.is_err() {
            // The issuer runs every unit itself; nothing is lost.
            break;
        }
        state.workers += 1;
    }
}

fn worker(id: usize) {
    let mut state = lock();
    loop {
        // Workers beyond a lowered thread count stay parked.
        let active = id + 1 < super::configured_threads();
        if active {
            if let Some((job, depth)) = take_seat(&mut state, None) {
                drop(state);
                help(job, depth);
                state = lock();
                continue;
            }
        }
        state = idle(state, active);
    }
}

/// Takes a seat on the deepest ready map (the most recent among equals),
/// considering only maps deeper than `above` when given.
fn take_seat(state: &mut State, above: Option<usize>) -> Option<(JobPtr, usize)> {
    let mut best: Option<usize> = None;
    for (k, e) in state.jobs.iter().enumerate() {
        if e.helpers >= e.seats || above.is_some_and(|d| e.depth <= d) {
            continue;
        }
        // SAFETY: a registered entry's job is alive (see `execute`).
        if !unsafe { &*e.job.0 }.ready() {
            continue;
        }
        if best.is_none_or(|b| e.depth >= state.jobs[b].depth) {
            best = Some(k);
        }
    }
    let entry = &mut state.jobs[best?];
    entry.helpers += 1;
    Some((entry.job, entry.depth))
}

/// Runs units of `job` (at `depth`) from a seat, then gives the seat up.
fn help(job: JobPtr, depth: usize) {
    let outer = DEPTH.with(|d| d.replace(depth + 1));
    // SAFETY: the seat keeps the job registered, and so alive.
    unsafe { &*job.0 }.run();
    DEPTH.with(|d| d.set(outer));
    let mut state = lock();
    if let Some(entry) = state.jobs.iter_mut().find(|e| e.job.is(job)) {
        entry.helpers -= 1;
        if entry.helpers == 0 {
            announce(&state);
        }
    }
}

/// Blocks until `done` holds, helping maps deeper than `depth` meanwhile,
/// and returns with the lock held. Helping only deeper maps keeps every
/// wait finite: each thread's stack of waits strictly deepens, and the
/// deepest units wait on nothing.
fn wait(depth: usize, done: impl Fn(&State) -> bool) -> MutexGuard<'static, State> {
    let mut state = lock();
    loop {
        if done(&state) {
            return state;
        }
        if let Some((job, d)) = take_seat(&mut state, Some(depth)) {
            drop(state);
            help(job, d);
            state = lock();
            continue;
        }
        state = idle(state, true);
    }
}

/// Waits for the next announcement: spinning for up to [`SPIN`] first
/// when `spin`, then asleep on the condition variable.
fn idle(state: MutexGuard<'static, State>, spin: bool) -> MutexGuard<'static, State> {
    let seen = EPOCH.load(Ordering::Relaxed);
    let mut state = state;
    if spin {
        drop(state);
        let start = Instant::now();
        while EPOCH.load(Ordering::Relaxed) == seen && start.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        state = lock();
    }
    if EPOCH.load(Ordering::Relaxed) == seen {
        state.sleeping += 1;
        state = WAKE.wait(state).unwrap_or_else(PoisonError::into_inner);
        state.sleeping -= 1;
    }
    state
}

/// The output buffer of a map, shared by every thread that writes into it.
pub(super) struct Slots<R>(pub(super) *mut R);

// SAFETY: threads only write disjoint slots (each unit is claimed once), and
// the owning thread reads them only after every writer has left the map.
// `R: Send` because results built on one thread are dropped on another.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    /// The slot at `i`. A method rather than a field access, so that closures
    /// capture the whole (`Sync`) wrapper, not the bare pointer.
    pub(super) fn at(&self, i: usize) -> *mut R {
        self.0.wrapping_add(i)
    }
}

/// A caught panic: the payload to resume and which slots were still written.
pub(super) struct Caught {
    pub(super) payload: Box<dyn Any + Send>,
    claimed: usize,
    failed: Vec<usize>,
}

impl Caught {
    /// The claimed units that completed: every claimed unit either wrote its
    /// slot or panicked.
    pub(super) fn written(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.claimed).filter(|i| !self.failed.contains(i))
    }
}

/// The panics of one map: the lowest-index payload and every failed unit.
#[derive(Default)]
struct Panics {
    lowest: Option<(usize, Box<dyn Any + Send>)>,
    failed: Vec<usize>,
}

impl Panics {
    fn record(&mut self, unit: usize, payload: Box<dyn Any + Send>) {
        self.failed.push(unit);
        if self.lowest.as_ref().is_none_or(|(k, _)| unit < *k) {
            self.lowest = Some((unit, payload));
        }
    }
}

/// One map's units, claimed through an atomic cursor.
pub(super) struct Claim<'a, S, I, U> {
    units: usize,
    cursor: AtomicUsize,
    /// Set by the first panic: units not yet claimed are all above the
    /// panicking one, so their results could never be returned.
    stop: AtomicBool,
    panics: Mutex<Panics>,
    init: &'a I,
    unit: U,
    state: PhantomData<fn() -> S>,
}

impl<'a, S, I, U> Claim<'a, S, I, U>
where
    I: Fn() -> S + Sync,
    U: Fn(&mut S, usize) + Sync,
{
    pub(super) fn new(units: usize, init: &'a I, unit: U) -> Self {
        Claim {
            units,
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panics: Mutex::new(Panics::default()),
            init,
            unit,
            state: PhantomData,
        }
    }

    /// The lowest-index panic, if any unit panicked.
    pub(super) fn finish(self) -> Option<Caught> {
        let claimed = self.cursor.into_inner().min(self.units);
        let panics = self
            .panics
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        panics.lowest.map(|(_, payload)| Caught {
            payload,
            claimed,
            failed: panics.failed,
        })
    }
}

impl<S, I, U> Work for Claim<'_, S, I, U>
where
    I: Fn() -> S + Sync,
    U: Fn(&mut S, usize) + Sync,
{
    fn run(&self) {
        // Built on the first claim, so `init` runs only on threads that get
        // a unit, and its panic is attributed to that unit.
        let mut state = None;
        // Relaxed suffices: the cursor only hands out distinct indices, and
        // `stop` is a hint (a unit claimed after it is set still completes).
        // Results are published by the pool's lock when the thread leaves.
        while !self.stop.load(Ordering::Relaxed) {
            let unit = self.cursor.fetch_add(1, Ordering::Relaxed);
            if unit >= self.units {
                return;
            }
            // AssertUnwindSafe: after a panic this thread's state is dropped
            // unused and the map resumes the panic, so nothing observes it.
            let ran = catch_unwind(AssertUnwindSafe(|| {
                (self.unit)(state.get_or_insert_with(self.init), unit);
            }));
            if let Err(payload) = ran {
                // Every update leaves the record consistent, so a poisoned
                // lock's contents are still valid.
                self.panics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record(unit, payload);
                self.stop.store(true, Ordering::Relaxed);
                return;
            }
        }
    }

    fn ready(&self) -> bool {
        !self.stop.load(Ordering::Relaxed) && self.cursor.load(Ordering::Relaxed) < self.units
    }

    fn finished(&self) -> bool {
        !self.ready()
    }
}
