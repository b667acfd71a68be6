//! The persistent render worker pool.
//!
//! Every data-parallel pass in the workspace — tile rendering
//! ([`crate::tiles`]), the SPARW splat/normalize/classify/crack-fill waves
//! (`cicero::sparw`), the serve layer's concurrent session stepping and
//! reference renders, and the bakes ([`crate::bake`]: the hash levels'
//! residuals, the tensor's texel sweeps and the hash model's sampled
//! support) — used to spawn fresh `std::thread::scope` crews per frame.
//! Spawning a thread costs tens of microseconds; a small frame's worth of
//! pixel work can be cheaper than the crew that renders it, and the warp
//! path paid that tax up to four times per frame. This module replaces all
//! of it with one process-wide pool of **parked** worker threads:
//!
//! - [`RenderPool::global`] — the shared pool. Workers are spawned on first
//!   demand (up to [`RenderPool::cap`]), then live for the process. After
//!   warm-up a frame performs **zero thread spawns and zero heap
//!   allocations** in checkout, dispatch, barrier and release.
//! - [`RenderPool::checkout`] — reserves up to `extra` idle workers for one
//!   caller. A checkout is the unit of exclusivity: disjoint checkouts (e.g.
//!   several serve sessions stepping concurrently) proceed fully
//!   independently, which is how the serve layer partitions one host thread
//!   budget across sessions.
//! - [`Checkout::run`] — one *pass*: the closure runs once per lane (the
//!   caller is lane 0, each checked-out worker one more), then all lanes meet
//!   at a barrier. Running several passes on one checkout is the
//!   pass-barrier protocol that replaced SPARW's four spawn waves.
//! - [`Checkout::run_items`] — the one rule by which every pass splits its
//!   work: the caller hands in disjoint items (`chunks_mut` bands zipped
//!   with their index, `iter_mut` over its entries), each lane gets one
//!   first, and the lanes pull the rest. The borrow checker proves the
//!   items disjoint, so the callers stay in safe code. The crate-private
//!   `BandLanes` runs it on one lane per core with scratch of each lane's
//!   own, for the bakes.
//!
//! Checkouts are opportunistic: if the pool is capped or other checkouts
//! hold the workers, the caller gets fewer lanes (possibly just itself) and
//! the pass runs with less parallelism. That is always safe because every
//! pass routed through the pool is **bit-identical at any lane count** — the
//! contract established by the tile engine and enforced by
//! `tests/frame_matrix.rs`. Parallelism here is a pure wall-clock
//! knob; nothing about the output, the statistics or the simulated timelines
//! may depend on how many workers answered.
//!
//! The job-dispatch trampoline, the gate and the worker loop below are this
//! file's unsafe code; outside tests the only other is [`crate::simd`]'s
//! x86_64 intrinsics. Each block's SAFETY note names the test that
//! stresses it.

#![allow(unsafe_code)]

use cicero_telemetry as telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::Thread;

/// Hard lane ceiling per checkout: lane bookkeeping lives in fixed-size
/// stack arrays so a checkout never allocates. 64 lanes comfortably covers
/// any host this simulator targets.
pub const MAX_LANES: usize = 64;

/// A pass dispatched to one worker: a lifetime-erased pointer to the
/// caller's closure plus the barrier it reports to. The leader blocks on the
/// [`Gate`] before its `run` call returns, so the pointers never outlive the
/// borrow they were made from.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    lane: usize,
    gate: *const Gate,
}

// SAFETY: `data` is only dereferenced between dispatch and the lane's
// `Gate::complete`, and `gate` only up to the decrement inside it;
// `Checkout::run` does not return (even by unwinding) until every dispatched
// lane has made that decrement — the pointees are live for the whole window
// in which a worker can touch them. The closure behind `data` is `Sync`, and
// every field of `Gate` is. Stressed by `panic_mid_pass` (both of its tests:
// no lane may still be inside the closure when the pass unwinds).
unsafe impl Send for Job {}

/// Monomorphic trampoline giving `Job` a thin function pointer instead of a
/// fat `dyn` pointer (whose layout is unspecified).
unsafe fn run_job<F: Fn(usize) + Sync>(data: *const (), lane: usize) {
    // SAFETY: `data` was produced from `&F` in `Checkout::run`, which keeps
    // the closure alive until the gate opens, also when a lane panics
    // (`panic_mid_pass`).
    unsafe { (*(data as *const F))(lane) }
}

/// The barrier one pass's lanes report to. Lives on the leader's stack —
/// creating it never allocates — so it is gone the moment the leader sees
/// `remaining == 0`: a lane's decrement must be its **last** access.
///
/// That rules out waking the leader through anything stored in the gate (a
/// mutex and condvar here once were: the last lane locked and notified
/// *after* its decrement, by which time the leader's spin could have
/// returned and a later pass's gate could sit at the same address — a
/// clobbered lock word, and now and then a lost wake-up). The leader parks
/// instead, and each lane takes its own handle to the leader's thread
/// before it decrements.
struct Gate {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    leader: Thread,
}

impl Gate {
    fn new(lanes: usize) -> Self {
        Gate {
            remaining: AtomicUsize::new(lanes),
            panicked: AtomicBool::new(false),
            // A clone of the thread's own handle: a reference count, no
            // allocation.
            leader: std::thread::current(),
        }
    }

    /// Called by each worker lane when its pass body returns (or panicked).
    ///
    /// Takes a pointer, not `&self`: the gate may be popped while this
    /// function is still running, and a reference argument would promise
    /// otherwise.
    ///
    /// # Safety
    ///
    /// `gate` must point to a gate whose count still includes the calling
    /// lane, and the caller must not touch the gate again.
    unsafe fn complete(gate: *const Gate, panicked: bool) {
        // SAFETY: the leader cannot see `remaining == 0` before this lane's
        // decrement below, so the gate is live for both accesses
        // (`empty_passes_never_lose_a_wakeup` reuses the gate's stack slot
        // thousands of times with lanes descheduled here).
        let leader = unsafe {
            if panicked {
                (*gate).panicked.store(true, Ordering::Release);
            }
            (*gate).leader.clone()
        };
        // SAFETY: as above. Release publishes this lane's writes (the pass
        // body's and `panicked`) to the leader's acquiring load in `wait`;
        // nothing after this line reads or writes the gate (stressed as
        // above).
        let last = unsafe { (*gate).remaining.fetch_sub(1, Ordering::AcqRel) == 1 };
        if last {
            // Our own handle: valid whether or not the gate still exists.
            // If the leader's spin already returned, the token makes some
            // later `park` of that thread return early, which `park`
            // allows and `wait` re-checks for.
            leader.unpark();
        }
    }

    /// Leader-side barrier: a short spin (passes are often tiny), then park.
    fn wait(&self) {
        for _ in 0..128 {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        // An `unpark` before this `park` leaves a token and the `park`
        // returns at once, so the last lane's wake-up cannot be lost
        // between the load and the park.
        while self.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

/// Ensures the leader waits for every dispatched lane even if its own lane-0
/// body panics — workers must never outlive the borrows in their `Job`.
struct GateGuard<'g>(&'g Gate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// What a parked worker wakes up to.
enum Mail {
    Run(Job),
    Retire,
}

/// One pool worker's mailbox. The worker parks here between passes.
struct WorkerShared {
    slot: Mutex<Option<Mail>>,
    cv: Condvar,
}

impl WorkerShared {
    fn send(&self, mail: Mail) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "worker dispatched while busy");
        *slot = Some(mail);
        self.cv.notify_one();
    }

    fn receive(&self) -> Mail {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(mail) = slot.take() {
                return mail;
            }
            slot = self.cv.wait(slot).unwrap();
        }
    }
}

fn worker_loop(shared: Arc<WorkerShared>) {
    loop {
        // Park-time accounting: the receive() wait is this worker's idle
        // interval. Clocks are read only while the recorder is live, so a
        // disabled recorder costs one relaxed load per wake.
        let idle_t0 = telemetry::is_enabled().then(telemetry::now_ns);
        let mail = shared.receive();
        if let Some(t0) = idle_t0 {
            telemetry::worker_idle_ns(telemetry::now_ns().saturating_sub(t0));
        }
        match mail {
            Mail::Run(job) => {
                let busy_t0 = telemetry::is_enabled().then(telemetry::now_ns);
                // SAFETY: see `Job` — the closure and gate outlive this call
                // because the leader blocks on the gate, whatever the pool's
                // cap does meanwhile (`set_cap_mid_pass_hands_out_every_item_once`).
                let result = catch_unwind(AssertUnwindSafe(|| unsafe {
                    (job.call)(job.data, job.lane)
                }));
                // SAFETY: the leader waits for this lane's decrement, which
                // `complete` makes exactly once, and `job.gate` is not used
                // after it, a panicking job's too
                // (`worker_lane_panicking_mid_pass_reaches_the_caller_every_time`).
                unsafe { Gate::complete(job.gate, result.is_err()) };
                if let Some(t0) = busy_t0 {
                    let t1 = telemetry::now_ns();
                    let dur = t1.saturating_sub(t0);
                    telemetry::span_at(telemetry::Phase::PoolJob, t0, t1, job.lane as u64, 0, 0);
                    telemetry::worker_busy_ns(dur);
                    telemetry::observe(telemetry::Hist::PoolJobNs, dur);
                    telemetry::add(telemetry::Counter::PoolJobs, 1);
                }
            }
            Mail::Retire => return,
        }
    }
}

/// Worker registry: the idle stack plus the live/cap accounting.
struct Registry {
    idle: Vec<Arc<WorkerShared>>,
    live: usize,
    cap: usize,
}

struct PoolInner {
    registry: Mutex<Registry>,
    /// Total worker threads ever spawned — the zero-spawn acceptance check
    /// (`tests/zero_alloc.rs`) reads this before/after warmed frames.
    spawned_total: AtomicU64,
}

/// A pool of persistent, parked render workers.
///
/// The engine routes everything through the process-wide
/// [`RenderPool::global`]; isolated pools ([`RenderPool::new`]) exist for
/// tests and embedders that need private worker accounting.
pub struct RenderPool {
    inner: Arc<PoolInner>,
}

impl RenderPool {
    /// Creates an isolated pool capped at `cap` workers (clamped to
    /// [`MAX_LANES`]` - 1`). Workers spawn on first checkout.
    pub fn new(cap: usize) -> Self {
        RenderPool {
            inner: Arc::new(PoolInner {
                registry: Mutex::new(Registry {
                    idle: Vec::new(),
                    live: 0,
                    cap: cap.min(MAX_LANES - 1),
                }),
                spawned_total: AtomicU64::new(0),
            }),
        }
    }

    /// The shared process-wide pool. Workers are spawned lazily by
    /// [`checkout`](Self::checkout), so merely touching the pool costs
    /// nothing.
    pub fn global() -> &'static RenderPool {
        static POOL: OnceLock<RenderPool> = OnceLock::new();
        POOL.get_or_init(|| RenderPool::new(MAX_LANES))
    }

    /// Reserves up to `extra` workers for the caller (fewer if the pool is
    /// capped or contended — possibly zero, in which case every pass simply
    /// runs inline on the caller). Workers spawned or reserved here stay
    /// with the checkout across any number of passes and return to the idle
    /// stack when it drops. After warm-up this never allocates and never
    /// spawns.
    pub fn checkout(&self, extra: usize) -> Checkout<'_> {
        let want = extra.min(MAX_LANES - 1);
        let mut workers: [Option<Arc<WorkerShared>>; MAX_LANES - 1] = std::array::from_fn(|_| None);
        let mut n = 0;
        if want > 0 {
            let mut reg = self.inner.registry.lock().unwrap();
            let idle_before = reg.idle.len();
            while n < want {
                if let Some(w) = reg.idle.pop() {
                    workers[n] = Some(w);
                    n += 1;
                } else if reg.live < reg.cap {
                    let shared = Arc::new(WorkerShared {
                        slot: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    let for_thread = shared.clone();
                    std::thread::Builder::new()
                        .name("cicero-render".into())
                        .spawn(move || worker_loop(for_thread))
                        .expect("spawn render pool worker");
                    reg.live += 1;
                    self.inner.spawned_total.fetch_add(1, Ordering::Relaxed);
                    workers[n] = Some(shared);
                    n += 1;
                } else {
                    break;
                }
            }
            drop(reg);
            if telemetry::is_enabled() {
                telemetry::add(telemetry::Counter::PoolCheckouts, 1);
                telemetry::add(telemetry::Counter::PoolLaneShortfall, (want - n) as u64);
                telemetry::observe(telemetry::Hist::PoolIdleAtCheckout, idle_before as u64);
                telemetry::observe(telemetry::Hist::PoolLanesGranted, n as u64);
            }
        }
        Checkout {
            pool: &self.inner,
            workers,
            count: n,
        }
    }

    /// Caps the number of live workers. Idle workers above the cap retire
    /// immediately; checked-out ones retire when released. Raising the cap
    /// lets future checkouts grow the pool again — output never depends on
    /// pool size, so resizing mid-run is always safe.
    pub fn set_cap(&self, cap: usize) {
        let mut reg = self.inner.registry.lock().unwrap();
        reg.cap = cap.min(MAX_LANES - 1);
        while reg.live > reg.cap {
            match reg.idle.pop() {
                Some(w) => {
                    w.send(Mail::Retire);
                    reg.live -= 1;
                }
                None => break, // busy workers retire on release
            }
        }
    }

    /// The current worker cap.
    pub fn cap(&self) -> usize {
        self.inner.registry.lock().unwrap().cap
    }

    /// Live workers (idle + checked out).
    #[cfg(test)]
    fn live_workers(&self) -> usize {
        self.inner.registry.lock().unwrap().live
    }

    /// Workers currently parked on the idle stack.
    #[cfg(test)]
    fn idle_workers(&self) -> usize {
        self.inner.registry.lock().unwrap().idle.len()
    }

    /// Total worker threads ever spawned by this pool. Stable between two
    /// reads ⇔ the work in between ran entirely on resident workers.
    pub fn spawned_total(&self) -> u64 {
        self.inner.spawned_total.load(Ordering::Relaxed)
    }
}

/// A reservation of pool workers for one caller; see [`RenderPool::checkout`].
///
/// Dropping the checkout releases the workers (retiring any above the pool
/// cap). Release never blocks: by the time `run` returns, every lane has
/// passed the barrier.
pub struct Checkout<'p> {
    pool: &'p PoolInner,
    workers: [Option<Arc<WorkerShared>>; MAX_LANES - 1],
    count: usize,
}

impl Checkout<'_> {
    /// Parallel lanes of this checkout: the caller plus every reserved
    /// worker. Always at least 1.
    pub fn lanes(&self) -> usize {
        self.count + 1
    }

    /// Runs one pass: `f(lane)` for every lane in `0..lanes()`, the caller
    /// executing lane 0 inline, then all lanes synchronize at a barrier.
    /// With no reserved workers this is exactly `f(0)`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any lane (after all lanes have finished, so
    /// no borrow escapes).
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.count == 0 {
            f(0);
            return;
        }
        let pass_t0 = telemetry::is_enabled().then(telemetry::now_ns);
        let gate = Gate::new(self.count);
        for (i, w) in self.workers[..self.count].iter().enumerate() {
            let job = Job {
                data: &f as *const F as *const (),
                call: run_job::<F>,
                lane: i + 1,
                gate: &gate,
            };
            w.as_ref().expect("reserved worker").send(Mail::Run(job));
        }
        {
            let _wait_even_on_panic = GateGuard(&gate);
            f(0);
        }
        if gate.panicked.load(Ordering::Acquire) {
            panic!("render pool worker panicked during a pass");
        }
        if let Some(t0) = pass_t0 {
            let t1 = telemetry::now_ns();
            telemetry::span_at(
                telemetry::Phase::PoolPass,
                t0,
                t1,
                self.lanes() as u64,
                0,
                0,
            );
            telemetry::observe(telemetry::Hist::PoolPassNs, t1.saturating_sub(t0));
        }
    }

    /// Runs one pass over `items`, disjoint pieces of work (`chunks_mut`
    /// bands zipped with their index, `iter_mut` over entries), handing
    /// each item to exactly one lane: `body(lane, lane_items)` runs once per
    /// lane and takes that lane's items from `lane_items`.
    ///
    /// While items last, every lane gets at least one — lane `k` item `k`
    /// first — so a warm-up pass warms every worker's thread-local scratch
    /// whatever the timing (the pool legs of `tests/zero_alloc.rs` rely on
    /// it); after that the lanes pull the rest in order. With one lane, or
    /// at most one item, `body(0, items)` runs inline on the caller and no
    /// pass is dispatched. The output is the same at any lane count as long
    /// as what an item produces depends on the item alone.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run); no item is handed out twice.
    pub fn run_items<I, F>(&self, items: I, body: F)
    where
        I: Iterator + Send,
        I::Item: Send,
        F: Fn(usize, &mut dyn Iterator<Item = I::Item>) + Sync,
    {
        let mut items = items.peekable();
        let head = items.next();
        if self.count == 0 || items.peek().is_none() {
            body(0, &mut head.into_iter().chain(items));
            return;
        }
        let mut first: [Option<I::Item>; MAX_LANES] = std::array::from_fn(|_| None);
        first[0] = head;
        for slot in &mut first[1..self.lanes()] {
            *slot = items.next();
        }
        let hand = Mutex::new(HandOut { first, rest: items });
        self.run(|lane| body(lane, &mut LaneItems { lane, hand: &hand }));
    }
}

/// The items of one [`Checkout::run_items`] pass: each lane's first item,
/// then the rest.
struct HandOut<I: Iterator> {
    first: [Option<I::Item>; MAX_LANES],
    rest: I,
}

/// One lane's items of a [`HandOut`]: its first, then the next of the rest.
struct LaneItems<'h, I: Iterator> {
    lane: usize,
    hand: &'h Mutex<HandOut<I>>,
}

impl<I: Iterator> Iterator for LaneItems<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let mut hand = self.hand.lock().expect("the items' iterator panicked");
        hand.first[self.lane].take().or_else(|| hand.rest.next())
    }
}

impl Drop for RenderPool {
    fn drop(&mut self) {
        // Only isolated pools drop (the global one lives for the process).
        // `Checkout`s borrow the pool, so every worker is back on the idle
        // stack by now; retire them all.
        let mut reg = self.inner.registry.lock().unwrap();
        while let Some(w) = reg.idle.pop() {
            w.send(Mail::Retire);
            reg.live -= 1;
        }
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if self.count == 0 {
            return;
        }
        let mut reg = self.pool.registry.lock().unwrap();
        for w in self.workers[..self.count].iter_mut() {
            let w = w.take().expect("reserved worker");
            if reg.live > reg.cap {
                w.send(Mail::Retire);
                reg.live -= 1;
            } else {
                reg.idle.push(w);
            }
        }
    }
}

/// Lanes a pass that wants the whole host asks for, the caller's included:
/// one per core.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The lanes of one [`RenderPool::global`] checkout, each with a scratch
/// `S` of its own, for passes that [`run`](Self::run) over the bands of an
/// output slice. The scratch is made once, on the caller's thread, and
/// serves every band of every pass until the `BandLanes` drops.
///
/// A pass's output is the same at any lane count as long as each element
/// of it is a function of its own index and of what the pass reads (never
/// of which lane, band or scratch computed it): the bands are disjoint,
/// and every element is written by exactly one of them.
pub(crate) struct BandLanes<S> {
    lanes: Checkout<'static>,
    /// One per lane; a lane locks its own once a pass.
    scratch: Vec<Mutex<S>>,
}

impl<S: Send> BandLanes<S> {
    /// Checks out up to `lanes` lanes (the caller's included; fewer if the
    /// pool is short, at least one) and makes each lane's scratch with
    /// `make`.
    pub(crate) fn new(lanes: usize, mut make: impl FnMut() -> S) -> Self {
        let lanes = RenderPool::global().checkout(lanes.saturating_sub(1));
        let scratch = std::iter::repeat_with(|| Mutex::new(make()))
            .take(lanes.lanes())
            .collect();
        BandLanes { lanes, scratch }
    }

    /// One pass: splits `out` into at most [`MAX_LANES`] bands, each a
    /// multiple of `align` elements long but the last, and calls
    /// `body(scratch, first, band)` once per band, with `first` the band's
    /// offset in `out`, through [`Checkout::run_items`]: each lane calls
    /// with its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `align == 0`, or propagates a panic of `body`.
    pub(crate) fn run<T: Send>(
        &self,
        out: &mut [T],
        align: usize,
        body: impl Fn(&mut S, usize, &mut [T]) + Sync,
    ) {
        let chunk = out
            .len()
            .div_ceil(MAX_LANES)
            .next_multiple_of(align)
            .max(align);
        self.lanes
            .run_items(out.chunks_mut(chunk).enumerate(), |lane, bands| {
                let scratch = self.scratch[lane].lock();
                let scratch = &mut *scratch.expect("an earlier pass panicked on this scratch");
                for (band, out) in bands {
                    body(scratch, band * chunk, out);
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn lanes_cover_every_index_exactly_once() {
        let pool = RenderPool::new(3);
        let co = pool.checkout(3);
        assert_eq!(co.lanes(), 4);
        let hits: Vec<AtomicU32> = (0..co.lanes()).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..100 {
            co.run(|lane| {
                hits[lane].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn checkout_reuses_workers_without_respawning() {
        let pool = RenderPool::new(2);
        {
            let co = pool.checkout(2);
            co.run(|_| {});
        }
        let before = pool.spawned_total();
        for _ in 0..50 {
            let co = pool.checkout(2);
            co.run(|_| {});
        }
        assert_eq!(
            pool.spawned_total(),
            before,
            "warmed checkouts must not spawn"
        );
        assert_eq!(before, 2);
    }

    #[test]
    fn zero_worker_checkout_runs_inline() {
        let pool = RenderPool::new(2);
        let co = pool.checkout(0);
        assert_eq!(co.lanes(), 1);
        let ran = AtomicU32::new(0);
        co.run(|lane| {
            assert_eq!(lane, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn band_lanes_write_every_element_once_and_make_scratch_once() {
        for lanes in 1..=3 {
            let made = AtomicU32::new(0);
            let band_lanes = BandLanes::new(lanes, || {
                made.fetch_add(1, Ordering::Relaxed);
                0_usize
            });
            let granted = made.load(Ordering::Relaxed) as usize;
            assert!((1..=lanes).contains(&granted), "{granted} of {lanes}");
            for len in [0, 1, 7, 8, 1000] {
                let mut out = vec![usize::MAX; len];
                let bands = AtomicU32::new(0);
                band_lanes.run(&mut out, 8, |calls, first, band| {
                    *calls += 1;
                    bands.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(first % 8, 0, "a band starts off the alignment");
                    for (i, v) in band.iter_mut().enumerate() {
                        assert_eq!(*v, usize::MAX, "written twice");
                        *v = first + i;
                    }
                });
                assert_eq!(out, (0..len).collect::<Vec<_>>(), "{lanes} lanes");
                assert!(bands.load(Ordering::Relaxed) as usize <= MAX_LANES);
            }
            assert_eq!(made.load(Ordering::Relaxed) as usize, granted);
        }
    }

    #[test]
    fn run_items_hands_each_item_to_one_lane_and_every_lane_one() {
        let pool = RenderPool::new(4);
        let caller = std::thread::current().id();
        for extra in 0..4 {
            let co = pool.checkout(extra);
            let lanes = co.lanes();
            for n in [0, 1, 2, 3, 4, 7, 100] {
                let mut taker = vec![usize::MAX; n];
                let (calls, away) = (AtomicU32::new(0), AtomicU32::new(0));
                co.run_items(taker.iter_mut(), |lane, items| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if std::thread::current().id() != caller {
                        away.fetch_add(1, Ordering::Relaxed);
                    }
                    for t in items {
                        assert_eq!(*t, usize::MAX, "an item handed out twice");
                        *t = lane;
                    }
                });
                assert!(taker.iter().all(|&t| t < lanes), "an item never ran");
                let (calls, away) = (calls.into_inner(), away.into_inner());
                if lanes == 1 || n <= 1 {
                    // Inline: one call on the caller, no pass dispatched.
                    assert_eq!((calls, away), (1, 0), "{lanes} lanes, {n} items");
                } else {
                    assert_eq!(calls as usize, lanes, "{lanes} lanes, {n} items");
                    // Lane `k` takes item `k` first, whatever the timing.
                    let firsts: Vec<usize> = taker.iter().copied().take(lanes).collect();
                    let want: Vec<usize> = (0..lanes.min(n)).collect();
                    assert_eq!(firsts, want, "{lanes} lanes, {n} items");
                }
            }
        }
    }

    #[test]
    fn pool_resize_retires_and_regrows() {
        let pool = RenderPool::new(8);
        {
            let co = pool.checkout(3);
            co.run(|_| {});
        }
        pool.set_cap(0);
        assert_eq!(pool.live_workers(), 0);
        let co = pool.checkout(4);
        assert_eq!(co.lanes(), 1, "capped pool must degrade to inline");
        drop(co);
        pool.set_cap(8);
        let co = pool.checkout(2);
        assert_eq!(co.lanes(), 3);
        co.run(|_| {});
    }

    #[test]
    fn busy_workers_above_the_cap_retire_on_release() {
        let pool = RenderPool::new(4);
        let co = pool.checkout(3);
        pool.set_cap(1); // all three are checked out: none can retire yet
        assert_eq!(pool.live_workers(), 3);
        drop(co);
        assert_eq!(pool.live_workers(), 1);
        assert_eq!(pool.idle_workers(), 1);
    }

    /// Runs `stress` on a thread of its own and fails if it is not done in
    /// 120 s: a lost wake-up parks a pass for good, and that has to read as
    /// a failed test, not as a hung suite.
    fn under_watchdog(stress: impl FnOnce() + Send + 'static) {
        let (done, watchdog) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            stress();
            done.send(()).ok();
        });
        watchdog
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a pool pass hung or panicked: lost wake-up at the gate");
        stress.join().unwrap();
    }

    /// More lanes than the host has cores, so that at any moment some lane
    /// is descheduled in the middle of whatever it was doing.
    fn oversubscribed_lanes() -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (4 * cores).clamp(8, MAX_LANES - 1)
    }

    #[test]
    fn empty_passes_never_lose_a_wakeup() {
        // The gate's hazard: a pass so short that the leader's spin returns
        // (and the next pass's gate reuses the stack slot) while the last
        // lane of the previous pass is still inside `complete`. Thousands
        // of empty passes on more lanes than the host has cores keep lanes
        // descheduled right there; flipping the cap mixes retiring and
        // respawning workers in.
        under_watchdog(|| {
            let lanes = oversubscribed_lanes();
            let pool = RenderPool::new(lanes);
            let hits = AtomicU32::new(0);
            let mut expected = 0;
            for round in 0..400 {
                pool.set_cap(if round % 3 == 2 { lanes / 2 } else { lanes });
                let co = pool.checkout(lanes);
                for _ in 0..25 {
                    co.run(|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    expected += co.lanes() as u32;
                }
            }
            assert_eq!(hits.load(Ordering::Relaxed), expected);
        });
    }

    /// 10³ passes in each of which one lane unwinds while the others are
    /// mid-pass: a worker lane (a different one every pass) or the leader,
    /// whose own unwind has to wait at the gate (`GateGuard`) for every lane
    /// it dispatched. Each time the panic must reach the caller, no lane may
    /// still be inside the closure — it borrows this frame's locals — and
    /// the next pass on the same checkout must run on every lane.
    fn panic_mid_pass(leader_panics: bool) {
        struct Left<'a>(&'a AtomicU32);
        impl Drop for Left<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        under_watchdog(move || {
            let pool = RenderPool::new(oversubscribed_lanes());
            let co = pool.checkout(oversubscribed_lanes());
            let lanes = co.lanes() as u32;
            assert!(lanes > 2);
            for pass in 0..1000 {
                let victim = if leader_panics {
                    0
                } else {
                    1 + pass % (co.lanes() - 1)
                };
                let (entered, left) = (AtomicU32::new(0), AtomicU32::new(0));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    co.run(|lane| {
                        entered.fetch_add(1, Ordering::Relaxed);
                        let _left = Left(&left);
                        if lane == victim {
                            // Unwinds exactly like `panic!`, without the
                            // hook's line on stderr a thousand times.
                            std::panic::resume_unwind(Box::new("lane panic"));
                        }
                        std::thread::yield_now();
                    });
                }));
                assert!(outcome.is_err(), "pass {pass}: the panic was swallowed");
                assert_eq!(entered.load(Ordering::Relaxed), lanes, "pass {pass}");
                assert_eq!(
                    left.load(Ordering::Relaxed),
                    lanes,
                    "pass {pass}: a lane outlived the closure"
                );
                let hits = AtomicU32::new(0);
                co.run(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), lanes, "after pass {pass}");
            }
        });
    }

    #[test]
    fn worker_lane_panicking_mid_pass_reaches_the_caller_every_time() {
        panic_mid_pass(false);
    }

    #[test]
    fn leader_lane_panicking_mid_pass_waits_for_every_worker() {
        panic_mid_pass(true);
    }

    #[test]
    fn set_cap_mid_pass_hands_out_every_item_once() {
        // Lanes drop the cap to zero and raise it back while the others
        // are mid-pass: idle workers retire under the pass's feet, the
        // checked-out ones must finish it and retire (or park) on release.
        under_watchdog(|| {
            let lanes = oversubscribed_lanes();
            let pool = RenderPool::new(lanes);
            for round in 0..100 {
                let co = pool.checkout(lanes);
                for pass in 0..5 {
                    let mut hits = vec![0_u32; 3 * co.lanes() + round % 7];
                    co.run_items(hits.iter_mut().enumerate(), |_, items| {
                        for (i, hit) in items {
                            pool.set_cap(if (i + pass) % 2 == 0 { 0 } else { lanes });
                            *hit += 1;
                            std::thread::yield_now();
                        }
                    });
                    assert!(hits.iter().all(|&h| h == 1), "round {round} pass {pass}");
                }
                drop(co);
                let (idle, live) = (pool.idle_workers(), pool.live_workers());
                assert_eq!(idle, live, "round {round}: a worker still out");
                assert!(live <= pool.cap(), "round {round}: {live} workers live");
            }
        });
    }

    #[test]
    fn an_item_panicking_mid_hand_out_runs_no_item_twice() {
        // One item's body unwinds while the other lanes are pulling items:
        // the panic reaches the caller, no item ran twice, and the next pass
        // on the same checkout runs every item.
        under_watchdog(|| {
            let pool = RenderPool::new(oversubscribed_lanes());
            let co = pool.checkout(oversubscribed_lanes());
            let n = 4 * co.lanes();
            for pass in 0..500 {
                let victim = (7 * pass) % n;
                let mut hits = vec![0_u32; n];
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    co.run_items(hits.iter_mut().enumerate(), |_, items| {
                        for (i, hit) in items {
                            *hit += 1;
                            if i == victim {
                                std::panic::resume_unwind(Box::new("item panic"));
                            }
                            std::thread::yield_now();
                        }
                    });
                }));
                assert!(outcome.is_err(), "pass {pass}: the panic was swallowed");
                assert_eq!(hits[victim], 1, "pass {pass}");
                assert!(
                    hits.iter().all(|&h| h <= 1),
                    "pass {pass}: an item ran twice"
                );
                let mut hits = vec![0_u32; n];
                co.run_items(hits.iter_mut(), |_, items| items.for_each(|h| *h += 1));
                assert!(hits.iter().all(|&h| h == 1), "after pass {pass}");
            }
        });
    }

    #[test]
    fn checkout_inside_a_lane_completes_and_returns_its_workers() {
        // What the serve scheduler's reference fan-out does: sessions step on
        // the lanes of one checkout, and a session that needs a reference
        // renders it tile-parallel — a second checkout, taken and run from
        // inside a lane of the first one's pass. The outer lanes ask for
        // more workers than the cap leaves, so some nested checkouts come
        // back short or empty and run inline.
        under_watchdog(|| {
            let pool = RenderPool::new(oversubscribed_lanes());
            let outer = pool.checkout(3);
            assert_eq!(outer.lanes(), 4);
            let (granted, ran) = (AtomicU32::new(0), AtomicU32::new(0));
            for _ in 0..200 {
                outer.run(|_| {
                    let inner = pool.checkout(3);
                    granted.fetch_add(inner.lanes() as u32, Ordering::Relaxed);
                    for _ in 0..3 {
                        inner.run(|_| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
            assert_eq!(
                ran.load(Ordering::Relaxed),
                3 * granted.load(Ordering::Relaxed)
            );
            assert!(granted.load(Ordering::Relaxed) > 200 * 4, "never nested");
            drop(outer);
            assert_eq!(
                pool.idle_workers(),
                pool.live_workers(),
                "a nested checkout kept a worker"
            );
        });
    }

    #[test]
    fn worker_panic_propagates_to_leader() {
        let pool = RenderPool::new(1);
        let co = pool.checkout(1);
        assert_eq!(co.lanes(), 2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            co.run(|lane| {
                if lane == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The worker survives its panic and keeps serving passes.
        let ok = AtomicU32::new(0);
        co.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }
}
