//! Service-level reporting: throughput, tail latency, deadline misses,
//! per-session quality, QoS degradations and prefetch economics.

use crate::cache::RefCacheStats;
use crate::fault::FaultReport;
use crate::policy::Degradation;
use crate::scheduler::FrameServer;
use crate::session::{QosClass, SessionId};
use serde::Serialize;

/// One QoS degradation granted at admission: which session, and what the
/// [`LoadAdaptiveDegrade`](crate::policy::LoadAdaptiveDegrade) ladder traded
/// away to admit it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DegradationRecord {
    /// The admitted session.
    pub session: SessionId,
    /// The session's name (from its spec).
    pub name: String,
    /// What was degraded.
    pub degradation: Degradation,
}

/// One served frame, as the scheduler saw it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FrameRecord {
    /// The session the frame belongs to.
    pub session: SessionId,
    /// Trajectory frame index within the session.
    pub frame_index: usize,
    /// When the client expected the frame, simulated seconds.
    pub arrival_s: f64,
    /// When a worker started it.
    pub start_s: f64,
    /// When it completed.
    pub completion_s: f64,
    /// Its QoS deadline.
    pub deadline_s: f64,
    /// Worker that executed it.
    pub worker: usize,
    /// Whether it was a full (reference/bootstrap) render.
    pub full_render: bool,
}

impl FrameRecord {
    /// Client-observed latency: completion minus expected arrival.
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }

    /// Whether the frame missed its deadline.
    pub fn missed_deadline(&self) -> bool {
        self.completion_s > self.deadline_s
    }
}

/// Per-session aggregate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionSummary {
    /// Session id.
    pub id: SessionId,
    /// Session name (from the spec).
    pub name: String,
    /// QoS class.
    pub qos: QosClass,
    /// Frames served.
    pub frames: usize,
    /// Mean client-observed latency, seconds.
    pub mean_latency_s: f64,
    /// Worst client-observed latency, seconds.
    pub max_latency_s: f64,
    /// Frames past their deadline.
    pub deadline_misses: u64,
    /// MSE-averaged PSNR over quality-sampled frames, dB (NaN if quality
    /// collection was off).
    pub mean_psnr_db: f64,
    /// Reference frames this session obtained from the shared cache.
    pub cache_hits: u64,
}

/// Overload-control accounting for one [`crate::FrameServer::run`], carried
/// on [`ServiceReport::overload`]. All quantities are simulated time only, so
/// the report is bit-identical at any host thread budget.
///
/// A server without an armed [`OverloadControl`](crate::OverloadControl) —
/// or an armed one that never queued, shed or pushed back — reports exactly
/// [`OverloadReport::default()`]: all counters zero, `goodput_fps` zero,
/// per-class SLO attainment `1.0`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverloadReport {
    /// Submissions that entered the pending-admission queue instead of
    /// admitting immediately.
    pub enqueued: u64,
    /// Queued submissions later admitted at full fidelity once load drained.
    pub queue_admits: u64,
    /// Queued submissions admitted through the brownout ladder (degraded)
    /// when their SLO deadline arrived before capacity did.
    pub brownout_admits: u64,
    /// Submissions shed from the queue: the deadline-aware victim predicted
    /// to miss its SLO, not the newest arrival.
    pub sheds: u64,
    /// Sheds by QoS class, indexed by
    /// [`QosClass::priority`](crate::QosClass::priority)
    /// (interactive, standard, best-effort).
    pub sheds_by_class: [u64; 3],
    /// Frames the shed sessions would have served, by QoS class — the demand
    /// denominator behind [`slo_attainment`](Self::slo_attainment).
    pub shed_frames_by_class: [u64; 3],
    /// Submissions pushed back with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) because the
    /// queue was full and the incoming request was the worst SLO risk.
    pub backpressure: u64,
    /// Admissions a [`Fleet`](crate::Fleet) diverted off their primary shard
    /// to a sibling with headroom (divert before shed). Always zero on a
    /// bare server.
    pub diversions: u64,
    /// Deepest the pending queue ever got.
    pub queue_peak: u64,
    /// Queue-depth histogram, sampled at each enqueue: depth buckets
    /// `0, 1, 2–3, 4–7, 8–15, 16+` *before* the new entry joins.
    pub queue_depth_hist: [u64; 6],
    /// Longest simulated wait between enqueue and admission, seconds.
    pub max_queue_wait_s: f64,
    /// On-time frames per second of makespan: throughput that met its
    /// deadline. Goodput ≤ throughput by construction.
    pub goodput_fps: f64,
    /// Per-class SLO attainment: on-time served frames over demanded frames
    /// (served + shed), indexed like [`sheds_by_class`](Self::sheds_by_class).
    /// A class with no demand reports `1.0`.
    pub slo_attainment: [f64; 3],
}

impl Default for OverloadReport {
    fn default() -> Self {
        OverloadReport {
            enqueued: 0,
            queue_admits: 0,
            brownout_admits: 0,
            sheds: 0,
            sheds_by_class: [0; 3],
            shed_frames_by_class: [0; 3],
            backpressure: 0,
            diversions: 0,
            queue_peak: 0,
            queue_depth_hist: [0; 6],
            max_queue_wait_s: 0.0,
            goodput_fps: 0.0,
            slo_attainment: [1.0; 3],
        }
    }
}

impl OverloadReport {
    /// Whether any overload machinery actually engaged (queueing, shedding,
    /// backpressure or diversion). `false` on every disarmed or underloaded
    /// run.
    pub fn engaged(&self) -> bool {
        self.enqueued > 0 || self.sheds > 0 || self.backpressure > 0 || self.diversions > 0
    }

    /// The histogram bucket for a queue depth: `0, 1, 2–3, 4–7, 8–15, 16+`.
    pub fn depth_bucket(depth: usize) -> usize {
        match depth {
            0 => 0,
            1 => 1,
            2..=3 => 2,
            4..=7 => 3,
            8..=15 => 4,
            _ => 5,
        }
    }
}

/// Aggregate serving statistics for one [`crate::FrameServer::run`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceReport {
    /// Every served frame, in dispatch (readiness) order. With one worker
    /// this coincides with completion order; across several workers
    /// completion times may interleave.
    pub records: Vec<FrameRecord>,
    /// Per-session aggregates, in admission order.
    pub sessions: Vec<SessionSummary>,
    /// Total frames served.
    pub frames: usize,
    /// End-to-end simulated makespan, seconds.
    pub makespan_s: f64,
    /// Aggregate throughput: frames / makespan.
    pub throughput_fps: f64,
    /// Median client-observed latency, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile client-observed latency, seconds.
    pub p99_latency_s: f64,
    /// Frames that missed their QoS deadline.
    pub deadline_misses: u64,
    /// Miss fraction over all frames.
    pub deadline_miss_rate: f64,
    /// Reference-cache counters.
    pub cache: RefCacheStats,
    /// Reference renders dispatched to the pool (cache misses that became
    /// batch jobs, plus speculative prefetch renders).
    pub reference_jobs: u64,
    /// Speculative reference renders issued by the prefetch policy (also
    /// included in `reference_jobs`); their hit/waste economics live in
    /// [`cache`](Self::cache).
    pub prefetch_jobs: u64,
    /// QoS degradations granted at admission, in admission order. Empty
    /// under the default reject-at-admission policy.
    pub degradations: Vec<DegradationRecord>,
    /// Mean worker utilization over the makespan.
    pub pool_utilization: f64,
    /// Workers in the pool.
    pub workers: usize,
    /// Fault-injection and recovery accounting. Exactly
    /// [`FaultReport::default()`] (all zero, availability `1.0`) on a server
    /// without an armed [`FaultPlan`](crate::FaultPlan) — or with one that
    /// never fired.
    pub faults: FaultReport,
    /// Overload-control accounting. Exactly [`OverloadReport::default()`] on
    /// a server without an armed [`OverloadControl`](crate::OverloadControl)
    /// — or with one that never engaged.
    pub overload: OverloadReport,
}

impl ServiceReport {
    /// `q`-th percentile (0–100) of client-observed latency.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let mut lat: Vec<f64> = self.records.iter().map(FrameRecord::latency_s).collect();
        percentile(&mut lat, q)
    }
}

/// `n / d`, or zero when there is nothing to divide by — an empty run has no
/// rate, not an undefined one.
pub(crate) fn rate(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The figures every report derives from its frame records alone — one
/// server's or a whole fleet's.
pub(crate) struct Totals {
    pub(crate) frames: usize,
    pub(crate) makespan_s: f64,
    pub(crate) throughput_fps: f64,
    pub(crate) p50_latency_s: f64,
    pub(crate) p99_latency_s: f64,
    pub(crate) deadline_misses: u64,
    pub(crate) deadline_miss_rate: f64,
}

impl Totals {
    pub(crate) fn of<'r>(records: impl Iterator<Item = &'r FrameRecord> + Clone) -> Self {
        let mut latencies: Vec<f64> = records.clone().map(FrameRecord::latency_s).collect();
        let frames = latencies.len();
        let makespan_s = records.clone().map(|r| r.completion_s).fold(0.0, f64::max);
        let deadline_misses = records.filter(|r| r.missed_deadline()).count() as u64;
        Totals {
            frames,
            makespan_s,
            throughput_fps: rate(frames as f64, makespan_s),
            p50_latency_s: percentile(&mut latencies, 50.0),
            p99_latency_s: percentile(&mut latencies, 99.0),
            deadline_misses,
            deadline_miss_rate: rate(deadline_misses as f64, frames as f64),
        }
    }
}

/// Frames served and frames served on time per QoS class (indexed by
/// [`QosClass::priority`]), over the sessions `sessions` summarizes —
/// resident ones only: a fleet accounts a migrated session on its
/// destination shard.
pub(crate) fn class_tally(
    sessions: &[SessionSummary],
    records: &[FrameRecord],
) -> ([u64; 3], [u64; 3]) {
    let slots = sessions.iter().map(|s| s.id + 1).max().unwrap_or(0);
    let mut class_of: Vec<Option<usize>> = vec![None; slots];
    for s in sessions {
        class_of[s.id] = Some(s.qos.priority() as usize);
    }
    let (mut served, mut on_time) = ([0u64; 3], [0u64; 3]);
    for r in records {
        if let Some(&Some(c)) = class_of.get(r.session) {
            served[c] += 1;
            on_time[c] += u64::from(!r.missed_deadline());
        }
    }
    (served, on_time)
}

impl FrameServer<'_> {
    /// The service report of everything served so far on this server's
    /// timeline.
    pub(crate) fn report(&self) -> ServiceReport {
        let records = self.records.clone();
        let totals = Totals::of(records.iter());
        let sessions: Vec<SessionSummary> = self
            .sessions
            .iter()
            .map(|s| SessionSummary {
                id: s.id,
                name: s.spec.name.clone(),
                qos: s.spec.qos,
                frames: s.latencies.len(),
                mean_latency_s: rate(s.latencies.iter().sum(), s.latencies.len() as f64),
                max_latency_s: s.latencies.iter().cloned().fold(0.0, f64::max),
                deadline_misses: s.deadline_misses,
                mean_psnr_db: s.mean_psnr(),
                cache_hits: s.cache_hits,
            })
            .collect();
        let mut faults = FaultReport::default();
        if let Some(inj) = &self.injector {
            faults = inj.report.clone();
            faults.availability = 1.0 - rate(faults.unrecovered as f64, totals.frames as f64);
        }
        let mut overload = OverloadReport::default();
        if let Some(st) = &self.overload {
            overload = st.report.clone();
            // Goodput: only frames that met their deadline count.
            let on_time = totals.frames as u64 - totals.deadline_misses;
            overload.goodput_fps = rate(on_time as f64, totals.makespan_s);
            // Per-class SLO attainment over the demand the server knows
            // about: served frames plus the frames shed sessions would have
            // served.
            let (served, met) = class_tally(&sessions, &records);
            for c in 0..3 {
                let demand = served[c] + overload.shed_frames_by_class[c];
                if demand > 0 {
                    overload.slo_attainment[c] = met[c] as f64 / demand as f64;
                }
            }
        }
        ServiceReport {
            frames: totals.frames,
            makespan_s: totals.makespan_s,
            throughput_fps: totals.throughput_fps,
            p50_latency_s: totals.p50_latency_s,
            p99_latency_s: totals.p99_latency_s,
            deadline_misses: totals.deadline_misses,
            deadline_miss_rate: totals.deadline_miss_rate,
            cache: self.cache.stats(),
            reference_jobs: self.reference_jobs,
            prefetch_jobs: self.prefetch_jobs,
            degradations: self.degradations.clone(),
            pool_utilization: self.pool.utilization(totals.makespan_s),
            workers: self.pool.len(),
            sessions,
            records,
            faults,
            overload,
        }
    }
}

/// Nearest-rank percentile of `values` (sorted in place); NaN when empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * (values.len() - 1) as f64).round() as usize;
    values[rank.min(values.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0); // rank round(1.5) = 2
        assert!(percentile(&mut [], 50.0).is_nan());
    }

    #[test]
    fn percentile_empty_is_nan_at_every_rank() {
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert!(percentile(&mut [], q).is_nan());
        }
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        for q in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&mut [7.25], q), 7.25);
        }
    }

    #[test]
    fn percentile_p0_p100_are_min_max() {
        let mut v = vec![9.0, -3.0, 5.0, 0.5, 2.0];
        assert_eq!(percentile(&mut v, 0.0), -3.0);
        assert_eq!(percentile(&mut v, 100.0), 9.0);
        // Over-range q clamps to the last element rather than indexing past
        // the end.
        assert_eq!(percentile(&mut v, 150.0), 9.0);
    }

    #[test]
    fn overload_default_is_disengaged_with_full_attainment() {
        let r = OverloadReport::default();
        assert!(!r.engaged());
        assert_eq!(r.slo_attainment, [1.0; 3]);
        assert_eq!(r.queue_depth_hist, [0; 6]);
    }

    #[test]
    fn depth_buckets_partition_the_depth_axis() {
        let want = [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (15, 4),
            (16, 5),
            (1000, 5),
        ];
        for (depth, bucket) in want {
            assert_eq!(OverloadReport::depth_bucket(depth), bucket, "depth {depth}");
        }
    }

    #[test]
    fn percentile_sorts_its_input() {
        // Unsorted and reverse-sorted inputs agree with the sorted one: the
        // function owns the ordering, callers never pre-sort.
        let mut unsorted = vec![0.3, 0.1, 0.9, 0.7, 0.5];
        let mut reversed = vec![0.9, 0.7, 0.5, 0.3, 0.1];
        let mut sorted = vec![0.1, 0.3, 0.5, 0.7, 0.9];
        for q in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let want = percentile(&mut sorted, q);
            assert_eq!(percentile(&mut unsorted, q), want);
            assert_eq!(percentile(&mut reversed, q), want);
        }
    }
}
