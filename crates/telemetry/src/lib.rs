//! Frame-level telemetry for the Cicero workspace: phase spans, counters,
//! fixed-bucket histograms, and trace export.
//!
//! Cicero's argument is a *phase-level* accounting of where neural-rendering
//! time goes (plan vs. gather vs. MLP vs. warp — paper §II), so the
//! reproduction carries a standing instrumentation layer instead of one-off
//! bench binaries. Design constraints, in order:
//!
//! 1. **Never perturb outputs.** Telemetry is observe-only: no control flow,
//!    scheduling decision or float computation anywhere in the workspace may
//!    depend on it. The determinism suite pins this down by diffing frames
//!    and full `ServiceReport`s with the recorder enabled vs. disabled.
//! 2. **Zero allocation, zero locks on the hot path.** Events land in
//!    pre-allocated per-thread ring buffers whose slots are `AtomicU64`
//!    words; the owning thread writes them with relaxed stores, readers
//!    (exporters) load them with relaxed loads. The only lock is a registry
//!    mutex taken once per thread, at ring creation — which the standard
//!    warm-up frame covers, exactly like the growth of the renderer's
//!    per-thread sample scratch.
//!    `tests/zero_alloc.rs` counts 0 allocations/frame with telemetry both
//!    off **and** on.
//! 3. **Disabled means a branch.** Every probe starts with one relaxed load
//!    of a global `AtomicBool`; when it reads `false` the probe returns
//!    before touching a clock or a ring.
//!
//! # Clocks
//!
//! Two time bases coexist in one trace:
//!
//! - **Host clock** — wall-clock nanoseconds since recorder creation
//!   ([`ClockMode::Wall`]), or a manually driven counter
//!   ([`ClockMode::Manual`]) so unit tests get bit-stable timestamps.
//!   Host spans record real CPU phases: gather, MLP block, warp passes,
//!   pool jobs.
//! - **Simulated SoC clock** — the serve layer's event loop runs on
//!   simulated seconds; [`sim_span`] records those timestamps directly
//!   (seconds → ns), so the exported trace shows the *simulated* worker
//!   schedule on its own process track, deterministic by construction.
//!
//! # Export
//!
//! [`chrome_trace`] renders everything as chrome-trace JSON (open in
//! `chrome://tracing` or Perfetto): host threads under pid 0, the simulated
//! SoC under pid 1. [`prometheus_text`] snapshots counters, histograms and
//! per-worker busy/idle tallies in Prometheus text exposition format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod export;
mod phase;

pub use phase::{Counter, Hist, Phase};

// ---------------------------------------------------------------------------
// Global recorder
// ---------------------------------------------------------------------------

/// Fast-path gate: every probe is `if !is_enabled() { return }`.
static ENABLED: AtomicBool = AtomicBool::new(false);

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Words per ring slot: `[meta, t0, t1, a, b, c]`.
const SLOT_WORDS: usize = 6;

/// Default events retained per thread before the ring wraps.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Reserved [`sim_span`] track for scheduler-level (not per-worker) spans,
/// e.g. ready-batch dispatches; exporters label it `sim-scheduler`.
pub const SIM_SCHEDULER_TRACK: u32 = u32::MAX;

/// Power-of-two histogram buckets: bucket `i` counts values `< 2^i`.
const HIST_BUCKETS: usize = 44;

const KIND_SPAN: u64 = 1;
const KIND_INSTANT: u64 = 2;
const KIND_SIM_SPAN: u64 = 3;

/// Which time base [`now_ns`] reads for host-side spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Wall-clock nanoseconds since the recorder was created.
    Wall,
    /// A manually driven counter ([`set_manual_ns`] / [`advance_manual_ns`]);
    /// used by tests that need bit-stable timestamps.
    Manual,
}

struct HistData {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistData {
    fn new() -> Self {
        HistData {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = (64 - u64::leading_zeros(value | 1) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// The process-wide recorder: thread-ring registry, counters, histograms and
/// the clock. Created once, on first [`enable`]; never torn down.
struct Recorder {
    epoch: Instant,
    clock_mode: AtomicU8,
    manual_ns: AtomicU64,
    ring_capacity: AtomicUsize,
    next_tid: AtomicU32,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    counters: [AtomicU64; Counter::COUNT],
    hists: [HistData; Hist::COUNT],
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            clock_mode: AtomicU8::new(0),
            manual_ns: AtomicU64::new(0),
            ring_capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            next_tid: AtomicU32::new(0),
            rings: Mutex::new(Vec::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistData::new()),
        }
    }
}

fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

/// One thread's pre-allocated event ring plus its pool-worker tallies.
///
/// Only the owning thread stores into `words`/`head`; exporters read with
/// relaxed loads. A wrapped-over slot may therefore be *logically* torn in a
/// snapshot taken mid-write — acceptable for telemetry, and impossible in
/// practice because exports run at quiescent points (end of run, test
/// teardown).
struct ThreadRing {
    tid: u32,
    label: String,
    capacity: usize,
    /// Monotonic count of events ever pushed; the live window is the last
    /// `min(head, capacity)` slots.
    head: AtomicU64,
    words: Box<[AtomicU64]>,
    /// Pool-worker busy/idle/job tallies ([`worker_busy_ns`] et al.),
    /// exported as labelled Prometheus series.
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    jobs: AtomicU64,
}

impl ThreadRing {
    #[allow(clippy::too_many_arguments)] // one flat slot write, not an API
    fn push(&self, kind: u64, phase: Phase, track: u32, t0: u64, t1: u64, a: u64, b: u64, c: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = (head as usize % self.capacity) * SLOT_WORDS;
        let meta = kind | ((phase as u64) << 4) | ((track as u64) << 16);
        let w = &self.words;
        w[slot].store(meta, Ordering::Relaxed);
        w[slot + 1].store(t0, Ordering::Relaxed);
        w[slot + 2].store(t1, Ordering::Relaxed);
        w[slot + 3].store(a, Ordering::Relaxed);
        w[slot + 4].store(b, Ordering::Relaxed);
        w[slot + 5].store(c, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Events in the live window. Read from `head` at snapshot time, like
    /// [`ThreadRing::dropped`]: `push` keeps no tally of either.
    fn retained(&self) -> u64 {
        self.head.load(Ordering::Acquire).min(self.capacity as u64)
    }

    /// Events pushed and since overwritten.
    fn dropped(&self) -> u64 {
        self.head.load(Ordering::Acquire) - self.retained()
    }
}

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

/// Creates and registers this thread's ring. Allocates — runs once per
/// thread, inside the warm-up frame, never on a warmed hot path.
fn register_ring() -> Arc<ThreadRing> {
    let rec = recorder();
    let capacity = rec.ring_capacity.load(Ordering::Relaxed).max(16);
    let words = (0..capacity * SLOT_WORDS)
        .map(|_| AtomicU64::new(0))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let tid = rec.next_tid.fetch_add(1, Ordering::Relaxed);
    let label = std::thread::current()
        .name()
        .map_or_else(|| format!("thread-{tid}"), str::to_owned);
    let ring = Arc::new(ThreadRing {
        tid,
        label,
        capacity,
        head: AtomicU64::new(0),
        words,
        busy_ns: AtomicU64::new(0),
        idle_ns: AtomicU64::new(0),
        jobs: AtomicU64::new(0),
    });
    rec.rings.lock().unwrap().push(ring.clone());
    ring
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    RING.with(|cell| f(cell.get_or_init(register_ring)));
}

// ---------------------------------------------------------------------------
// Lifecycle and clock
// ---------------------------------------------------------------------------

/// Turns the recorder on with the default per-thread ring capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_RING_CAPACITY);
}

/// Turns the recorder on, retaining up to `events_per_thread` events per
/// thread (rings created *after* this call use the new capacity; existing
/// rings keep theirs).
pub fn enable_with_capacity(events_per_thread: usize) {
    recorder()
        .ring_capacity
        .store(events_per_thread.max(16), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Probes become a single relaxed load; recorded
/// events stay exportable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether probes currently record. One relaxed atomic load.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every ring, counter, histogram and worker tally (rings stay
/// allocated and registered). The manual clock rewinds to zero.
pub fn reset() {
    let rec = recorder();
    for ring in rec.rings.lock().unwrap().iter() {
        ring.head.store(0, Ordering::Relaxed);
        ring.busy_ns.store(0, Ordering::Relaxed);
        ring.idle_ns.store(0, Ordering::Relaxed);
        ring.jobs.store(0, Ordering::Relaxed);
    }
    for c in &rec.counters {
        c.store(0, Ordering::Relaxed);
    }
    for h in &rec.hists {
        h.reset();
    }
    rec.manual_ns.store(0, Ordering::Relaxed);
}

/// Selects the host time base (wall vs. manual).
#[cfg(test)]
fn set_clock(mode: ClockMode) {
    let v = match mode {
        ClockMode::Wall => 0,
        ClockMode::Manual => 1,
    };
    recorder().clock_mode.store(v, Ordering::Relaxed);
}

/// Sets the manual clock (only read under [`ClockMode::Manual`]).
pub fn set_manual_ns(ns: u64) {
    recorder().manual_ns.store(ns, Ordering::Relaxed);
}

/// Advances the manual clock.
pub fn advance_manual_ns(ns: u64) {
    recorder().manual_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Current host timestamp in nanoseconds under the active clock mode.
pub fn now_ns() -> u64 {
    let rec = recorder();
    if rec.clock_mode.load(Ordering::Relaxed) == 1 {
        rec.manual_ns.load(Ordering::Relaxed)
    } else {
        rec.epoch.elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// A live host-clock span; records on drop. Inert (field copies only, no
/// clock read) when the recorder is disabled at creation.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    phase: Phase,
    start_ns: u64,
    a: u64,
    b: u64,
    c: u64,
    armed: bool,
}

impl Span {
    /// Attaches/overrides the third argument (e.g. a workload discriminator
    /// only known mid-span).
    pub fn set_arg_c(&mut self, c: u64) {
        self.c = c;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed || !is_enabled() {
            return;
        }
        let end = now_ns();
        with_ring(|r| {
            r.push(
                KIND_SPAN,
                self.phase,
                0,
                self.start_ns,
                end.max(self.start_ns),
                self.a,
                self.b,
                self.c,
            )
        });
    }
}

/// Opens a host-clock span for `phase`.
#[inline]
pub fn span(phase: Phase) -> Span {
    span_ab(phase, 0, 0)
}

/// Opens a host-clock span carrying two id arguments (session/frame/lane…).
#[inline]
pub fn span_ab(phase: Phase, a: u64, b: u64) -> Span {
    let armed = is_enabled();
    Span {
        phase,
        start_ns: if armed { now_ns() } else { 0 },
        a,
        b,
        c: 0,
        armed,
    }
}

/// Records a host-clock span from explicit timestamps (both obtained from
/// [`now_ns`]). For call sites that bracket several phases with one pair of
/// clock reads per boundary instead of a guard per phase.
#[inline]
pub fn span_at(phase: Phase, t0: u64, t1: u64, a: u64, b: u64, c: u64) {
    if !is_enabled() {
        return;
    }
    with_ring(|r| r.push(KIND_SPAN, phase, 0, t0, t1.max(t0), a, b, c));
}

/// Records a zero-duration host-clock event (admissions, cache hits…).
#[inline]
pub fn instant(phase: Phase, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    let t = now_ns();
    with_ring(|r| r.push(KIND_INSTANT, phase, 0, t, t, a, b, 0));
}

/// Records a span on the **simulated** SoC clock: `start_s..end_s` are
/// simulated seconds, `track` is the simulated worker/track id. Exported
/// under its own trace process, so the simulated schedule is inspectable
/// next to (and independent of) host time.
#[inline]
pub fn sim_span(phase: Phase, track: u32, start_s: f64, end_s: f64, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    let t0 = (start_s.max(0.0) * 1e9) as u64;
    let t1 = ((end_s.max(0.0) * 1e9) as u64).max(t0);
    with_ring(|r| r.push(KIND_SIM_SPAN, phase, track, t0, t1, a, b, 0));
}

/// Adds `n` to a global counter.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !is_enabled() {
        return;
    }
    recorder().counters[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Records one observation into a fixed-bucket (power-of-two) histogram.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if !is_enabled() {
        return;
    }
    recorder().hists[hist as usize].observe(value);
}

/// Reads a counter's current value (for tests and report plumbing).
pub fn counter_value(counter: Counter) -> u64 {
    match GLOBAL.get() {
        Some(rec) => rec.counters[counter as usize].load(Ordering::Relaxed),
        None => 0,
    }
}

/// Tallies pool-worker busy time onto the calling thread's ring.
#[inline]
pub fn worker_busy_ns(ns: u64) {
    if !is_enabled() {
        return;
    }
    with_ring(|r| {
        r.busy_ns.fetch_add(ns, Ordering::Relaxed);
        r.jobs.fetch_add(1, Ordering::Relaxed);
    });
}

/// Tallies pool-worker idle (parked / waiting for work) time onto the
/// calling thread's ring.
#[inline]
pub fn worker_idle_ns(ns: u64) {
    if !is_enabled() {
        return;
    }
    with_ring(|r| {
        r.idle_ns.fetch_add(ns, Ordering::Relaxed);
    });
}

/// Sums `per_ring` over every thread ring.
fn sum_rings(per_ring: impl Fn(&ThreadRing) -> u64) -> u64 {
    match GLOBAL.get() {
        Some(rec) => rec.rings.lock().unwrap().iter().map(|r| per_ring(r)).sum(),
        None => 0,
    }
}

/// Total events currently retained across all thread rings.
pub fn event_count() -> u64 {
    sum_rings(ThreadRing::retained)
}

/// Total events the rings have overwritten since the last [`reset`]: a ring
/// keeps its newest `capacity` events and wraps over the rest silently, so a
/// trace or a per-phase total read from the rings is short by this many
/// events. Exported as `cicero_telemetry_events_dropped_total`; when it is
/// not zero, raise [`enable_with_capacity`] or trace a shorter run.
pub fn events_dropped() -> u64 {
    sum_rings(ThreadRing::dropped)
}

// ---------------------------------------------------------------------------
// Export (implementations in `export`)
// ---------------------------------------------------------------------------

/// Renders every retained event as chrome-trace JSON (Perfetto-loadable).
pub fn chrome_trace() -> String {
    export::chrome_trace(GLOBAL.get())
}

/// Snapshots counters, histograms and per-worker tallies in Prometheus text
/// exposition format.
pub fn prometheus_text() -> String {
    export::prometheus_text(GLOBAL.get())
}

/// Writes [`chrome_trace`] to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace())
}

/// Writes [`prometheus_text`] to `path`.
pub fn write_prometheus(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, prometheus_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole suite shares one process-global recorder, so it runs as a
    /// single `#[test]` (same discipline as `tests/zero_alloc.rs`).
    #[test]
    fn recorder_end_to_end() {
        // Disabled: probes record nothing, spans are inert.
        assert!(!is_enabled());
        add(Counter::PoolJobs, 5);
        instant(Phase::CacheHit, 1, 2);
        drop(span(Phase::Frame));
        assert_eq!(event_count(), 0);
        assert_eq!(counter_value(Counter::PoolJobs), 0);

        // Manual clock: timestamps are bit-stable.
        enable_with_capacity(64);
        set_clock(ClockMode::Manual);
        reset();
        set_manual_ns(1_000);
        {
            let mut s = span_ab(Phase::Frame, 7, 3);
            s.set_arg_c(1);
            advance_manual_ns(500);
        }
        instant(Phase::Admit, 9, 0);
        sim_span(Phase::ServeFrame, 2, 0.5, 0.75, 7, 3);
        add(Counter::PoolJobs, 2);
        observe(Hist::FrameNs, 500);
        assert_eq!(event_count(), 3);
        assert_eq!(counter_value(Counter::PoolJobs), 2);

        let trace = chrome_trace();
        assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"frame\""));
        // Frame span: ts 1.000 µs, dur 0.500 µs, args a=7 b=3 c=1.
        assert!(trace.contains("\"ts\":1.000,\"dur\":0.500"), "{trace}");
        // Simulated span lands on pid 1, track 2, at 0.5 s = 500000 µs.
        assert!(trace.contains("\"pid\":1,\"tid\":2"), "{trace}");
        assert!(trace.contains("\"ts\":500000.000"), "{trace}");
        // Deterministic under the manual clock: a second render is identical.
        assert_eq!(trace, chrome_trace());

        let prom = prometheus_text();
        assert!(prom.contains("cicero_pool_jobs_total 2"), "{prom}");
        assert!(prom.contains("cicero_frame_ns_count 1"), "{prom}");
        assert!(prom.contains("cicero_frame_ns_sum 500"), "{prom}");
        assert!(prom.contains("le=\"+Inf\""), "{prom}");

        // Ring wrap: capacity bounds retention, pushes never fail, and what
        // was overwritten is counted and exported, not silent.
        assert_eq!(events_dropped(), 0);
        assert!(
            prom.contains("cicero_telemetry_events_dropped_total 0"),
            "{prom}"
        );
        reset();
        for i in 0..100u64 {
            instant(Phase::CacheMiss, i, 0);
        }
        assert_eq!(event_count(), 64);
        assert_eq!(events_dropped(), 36);
        let prom = prometheus_text();
        assert!(
            prom.contains("cicero_telemetry_events_dropped_total 36"),
            "{prom}"
        );
        let trace = chrome_trace();
        assert!(
            trace.contains("\"name\":\"events_dropped\",\"args\":{\"count\":36}"),
            "{trace}"
        );
        reset();
        assert_eq!(events_dropped(), 0);

        // Worker tallies surface as labelled series.
        worker_busy_ns(123);
        worker_idle_ns(45);
        let prom = prometheus_text();
        assert!(prom.contains("cicero_pool_worker_busy_ns"), "{prom}");

        disable();
        set_clock(ClockMode::Wall);
        let before = event_count();
        drop(span(Phase::Frame));
        assert_eq!(event_count(), before);
    }
}
