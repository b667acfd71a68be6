//! The fixed vocabulary of phases, counters and histograms.
//!
//! A closed enum (rather than string names) keeps the hot path free of
//! hashing and allocation: a probe stores one byte of phase id into its ring
//! slot, and the exporters translate to names once, at snapshot time.

/// Every span/instant kind the workspace records, across all three layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    // --- field: sample engine (batched SoA path, per block flush) ---
    /// Ray marching + gather planning between two block flushes.
    Plan,
    /// Feature gather for one sample block.
    Gather,
    /// MLP forward over one staged block.
    MlpBlock,
    /// Activation decode (σ/rgb heads) for one block.
    Decode,
    /// One pool tile render (claim → render → commit).
    RenderTile,
    // --- field/core: SPARW warp passes ---
    /// Forward splat of reference pixels into target bands.
    WarpSplat,
    /// Sequential cross-band seam resolve.
    WarpResolve,
    /// Accumulator normalize pass.
    WarpNormalize,
    /// Hole/crack classification pass.
    WarpClassify,
    /// Crack-fill interpolation pass.
    WarpCrackFill,
    // --- field: render pool ---
    /// One worker-side pool job (lane body between barriers).
    PoolJob,
    /// One leader-side pool pass (checkout `run`: dispatch → barrier).
    PoolPass,
    // --- core: pipeline sessions ---
    /// One `PipelineSession::step` frame (args: session, frame, workload).
    Frame,
    /// Full reference render inside a step.
    ReferenceRender,
    /// Sparse (warp + patch) render inside a step.
    SparseRender,
    // --- serve: scheduler ---
    /// One ready-batch dispatch in the serving loop (simulated clock).
    ServeBatch,
    /// One served frame on a simulated worker (simulated clock).
    ServeFrame,
    /// One reference render job on a simulated worker (simulated clock).
    ServeReference,
    /// A session admitted (args: session, QoS class).
    Admit,
    /// A session rejected at admission.
    Reject,
    /// A QoS degradation granted at admission.
    Degrade,
    /// Reference cache lookup hit.
    CacheHit,
    /// Reference cache lookup miss.
    CacheMiss,
    /// Speculative (prefetch) insert into the reference cache.
    CachePrefetch,
    // --- serve: fault injection & recovery ---
    /// A fault fired (args: session, subject index, fault kind tag).
    FaultInject,
    /// A crashed job retried with deterministic backoff.
    FaultRetry,
    /// Recovery fell back past retries (args: session, reference,
    /// 0 = stale-warp fallback, 1 = degraded re-render).
    FaultFallback,
    /// A worker was quarantined after a simulated crash.
    Quarantine,
    /// A watchdog grant: a fault-affected deadline overrun forgiven within
    /// the policy's slack.
    WatchdogGrant,
    // --- serve: fleet health & failover ---
    /// A fleet shard missed a heartbeat (args: shard, heartbeat index).
    HeartbeatMiss,
    /// A shard was declared dead after consecutive heartbeat misses
    /// (args: shard, live sessions to drain).
    ShardCrash,
    /// A shard's whole pool browned out (args: shard, heartbeat index).
    ShardBrownout,
    /// A session migrated to a surviving shard (args: global session,
    /// source shard).
    SessionMigrate,
    // --- serve: overload control ---
    /// A submission entered the pending-admission queue (args: ticket, QoS
    /// class).
    OverloadEnqueue,
    /// A queued submission was shed as the predicted-worst SLO risk
    /// (args: ticket, QoS class).
    OverloadShed,
    /// A fleet admission diverted off its saturated primary shard
    /// (args: destination shard, primary shard).
    OverloadDivert,
}

/// The phase vocabulary: each phase, its name, its trace category and the
/// names of its three generic argument slots (in trace `args` order), one
/// row per variant in declaration order — a phase's id is its row index, and
/// `vocabulary_tables_round_trip` holds the table to the enum.
#[rustfmt::skip]
const PHASES: [(Phase, &str, &str, [&str; 3]); 36] = [
    (Phase::Plan, "plan", "field", ["samples", "b", "c"]),
    (Phase::Gather, "gather", "field", ["samples", "b", "c"]),
    (Phase::MlpBlock, "mlp_block", "field", ["samples", "b", "c"]),
    (Phase::Decode, "decode", "field", ["samples", "b", "c"]),
    (Phase::RenderTile, "render_tile", "field", ["tile", "rows", "c"]),
    (Phase::WarpSplat, "warp_splat", "core", ["a", "b", "c"]),
    (Phase::WarpResolve, "warp_resolve", "core", ["a", "b", "c"]),
    (Phase::WarpNormalize, "warp_normalize", "core", ["a", "b", "c"]),
    (Phase::WarpClassify, "warp_classify", "core", ["a", "b", "c"]),
    (Phase::WarpCrackFill, "warp_crack_fill", "core", ["a", "b", "c"]),
    (Phase::PoolJob, "pool_job", "field", ["lane", "lanes", "c"]),
    (Phase::PoolPass, "pool_pass", "field", ["lanes", "b", "c"]),
    (Phase::Frame, "frame", "core", ["session", "frame", "full_render"]),
    (Phase::ReferenceRender, "reference_render", "core", ["session", "frame", "c"]),
    (Phase::SparseRender, "sparse_render", "core", ["session", "frame", "c"]),
    (Phase::ServeBatch, "serve_batch", "serve", ["jobs", "b", "c"]),
    (Phase::ServeFrame, "serve_frame", "serve", ["session", "frame", "c"]),
    (Phase::ServeReference, "serve_reference", "serve", ["session", "frame", "c"]),
    (Phase::Admit, "admit", "serve", ["session", "qos", "c"]),
    (Phase::Reject, "reject", "serve", ["session", "qos", "c"]),
    (Phase::Degrade, "degrade", "serve", ["session", "window", "c"]),
    (Phase::CacheHit, "cache_hit", "serve", ["a", "b", "c"]),
    (Phase::CacheMiss, "cache_miss", "serve", ["a", "b", "c"]),
    (Phase::CachePrefetch, "cache_prefetch", "serve", ["a", "b", "c"]),
    (Phase::FaultInject, "fault_inject", "serve", ["session", "subject", "kind"]),
    (Phase::FaultRetry, "fault_retry", "serve", ["session", "subject", "attempt"]),
    (Phase::FaultFallback, "fault_fallback", "serve", ["session", "reference", "rung"]),
    (Phase::Quarantine, "quarantine", "serve", ["worker", "b", "c"]),
    (Phase::WatchdogGrant, "watchdog_grant", "serve", ["session", "frame", "c"]),
    (Phase::HeartbeatMiss, "heartbeat_miss", "serve", ["shard", "heartbeat", "c"]),
    (Phase::ShardCrash, "shard_crash", "serve", ["shard", "sessions", "c"]),
    (Phase::ShardBrownout, "shard_brownout", "serve", ["shard", "heartbeat", "c"]),
    (Phase::SessionMigrate, "session_migrate", "serve", ["session", "from_shard", "c"]),
    (Phase::OverloadEnqueue, "overload_enqueue", "serve", ["ticket", "qos", "c"]),
    (Phase::OverloadShed, "overload_shed", "serve", ["ticket", "qos", "c"]),
    (Phase::OverloadDivert, "overload_divert", "serve", ["shard", "primary", "c"]),
];

impl Phase {
    /// Stable snake_case name used in trace and metric output.
    pub fn name(self) -> &'static str {
        PHASES[self as usize].1
    }

    /// Trace category (`cat` field): which layer emitted the event.
    pub fn category(self) -> &'static str {
        PHASES[self as usize].2
    }

    /// Names for the three generic argument slots, in trace `args` order.
    pub fn arg_names(self) -> [&'static str; 3] {
        PHASES[self as usize].3
    }

    pub(crate) fn from_u8(v: u8) -> Option<Phase> {
        PHASES.get(v as usize).map(|row| row.0)
    }
}

/// Global monotonic counters (Prometheus `_total` series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Pool checkouts granted (one per parallel pass setup).
    PoolCheckouts,
    /// Lanes the pool could not supply at checkout (requested − granted).
    PoolLaneShortfall,
    /// Worker-side pool jobs executed.
    PoolJobs,
    /// Pipeline frames stepped.
    FramesStepped,
    /// Full reference renders performed by sessions.
    ReferenceRenders,
    /// Sparse (warped) renders performed by sessions.
    SparseRenders,
    /// Ready batches dispatched by the serving loop.
    ServeBatches,
    /// Frames served to clients.
    ServeFrames,
    /// Reference render jobs dispatched to the simulated pool.
    ServeReferenceJobs,
    /// Speculative prefetch render jobs dispatched.
    ServePrefetchJobs,
    /// Sessions admitted.
    Admitted,
    /// Sessions rejected at admission.
    Rejected,
    /// QoS degradations granted.
    Degraded,
    /// Reference cache hits.
    CacheHits,
    /// Reference cache misses.
    CacheMisses,
    /// Speculative inserts into the reference cache.
    CachePrefetchInserts,
    /// Faults injected (all kinds).
    FaultsInjected,
    /// Retries performed after simulated crashes.
    FaultRetries,
    /// Recoveries past retries (stale-warp fallbacks + degraded re-renders).
    FaultFallbacks,
    /// Worker quarantines after simulated crashes.
    Quarantines,
    /// Watchdog grants for fault-affected deadline overruns.
    WatchdogGrants,
    /// Fleet heartbeat misses drawn from the fault plan.
    HeartbeatMisses,
    /// Shards declared dead after consecutive heartbeat misses.
    ShardCrashes,
    /// Whole-shard brownouts (every worker quarantined at once).
    ShardBrownouts,
    /// Sessions migrated to a surviving shard during failover.
    SessionMigrations,
    /// Submissions queued by the overload controller.
    OverloadEnqueued,
    /// Queued submissions shed as predicted SLO misses.
    OverloadSheds,
    /// Submissions pushed back with an explicit `Overloaded` retry hint.
    OverloadBackpressure,
    /// Fleet admissions diverted off a saturated primary shard.
    OverloadDiversions,
    /// Candidate steps the batched marcher looked at (space skipping makes
    /// this less than `RenderStats::samples_indexed`, which counts every
    /// candidate, looked at or jumped over).
    MarchStepsVisited,
    /// Lanes the batched sample engine gathered and decoded.
    SampleLanesEvaluated,
    /// Evaluated lanes that were committed (`RenderStats::samples_processed`
    /// of the batched engine); the rest were parked past an early exit.
    SampleLanesCommitted,
}

/// The counter vocabulary: each counter and its Prometheus series name
/// (without the `cicero_` prefix / `_total` suffix), in declaration order.
const COUNTERS: [(Counter, &str); Counter::COUNT] = [
    (Counter::PoolCheckouts, "pool_checkouts"),
    (Counter::PoolLaneShortfall, "pool_lane_shortfall"),
    (Counter::PoolJobs, "pool_jobs"),
    (Counter::FramesStepped, "frames_stepped"),
    (Counter::ReferenceRenders, "reference_renders"),
    (Counter::SparseRenders, "sparse_renders"),
    (Counter::ServeBatches, "serve_batches"),
    (Counter::ServeFrames, "serve_frames"),
    (Counter::ServeReferenceJobs, "serve_reference_jobs"),
    (Counter::ServePrefetchJobs, "serve_prefetch_jobs"),
    (Counter::Admitted, "sessions_admitted"),
    (Counter::Rejected, "sessions_rejected"),
    (Counter::Degraded, "sessions_degraded"),
    (Counter::CacheHits, "cache_hits"),
    (Counter::CacheMisses, "cache_misses"),
    (Counter::CachePrefetchInserts, "cache_prefetch_inserts"),
    (Counter::FaultsInjected, "faults_injected"),
    (Counter::FaultRetries, "fault_retries"),
    (Counter::FaultFallbacks, "fault_fallbacks"),
    (Counter::Quarantines, "quarantines"),
    (Counter::WatchdogGrants, "watchdog_grants"),
    (Counter::HeartbeatMisses, "heartbeat_misses"),
    (Counter::ShardCrashes, "shard_crashes"),
    (Counter::ShardBrownouts, "shard_brownouts"),
    (Counter::SessionMigrations, "session_migrations"),
    (Counter::OverloadEnqueued, "overload_enqueued"),
    (Counter::OverloadSheds, "overload_sheds"),
    (Counter::OverloadBackpressure, "overload_backpressure"),
    (Counter::OverloadDiversions, "overload_diversions"),
    (Counter::MarchStepsVisited, "march_steps_visited"),
    (Counter::SampleLanesEvaluated, "sample_lanes_evaluated"),
    (Counter::SampleLanesCommitted, "sample_lanes_committed"),
];

impl Counter {
    /// Number of counters (sizes the recorder's fixed array).
    pub const COUNT: usize = 32;

    /// Prometheus series name (without the `cicero_` prefix / `_total`
    /// suffix).
    pub fn name(self) -> &'static str {
        COUNTERS[self as usize].1
    }

    pub(crate) fn from_usize(v: usize) -> Option<Counter> {
        COUNTERS.get(v).map(|row| row.0)
    }
}

/// Fixed power-of-two-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Whole-frame step duration, ns.
    FrameNs,
    /// Leader-side pool pass duration, ns.
    PoolPassNs,
    /// Worker-side pool job duration, ns.
    PoolJobNs,
    /// Idle pool workers observed at checkout (queue-depth proxy: how much
    /// spare capacity the pool had when a pass arrived).
    PoolIdleAtCheckout,
    /// Lanes granted per checkout.
    PoolLanesGranted,
    /// Ready-batch size (jobs per dispatch) in the serving loop.
    ServeBatchJobs,
    /// Extra attempts a crashed job needed before recovery (observed only
    /// when at least one retry happened).
    RetryAttempts,
    /// Pending-admission queue depth observed at each enqueue.
    OverloadQueueDepth,
}

/// The histogram vocabulary: each histogram and its Prometheus series name
/// (without the `cicero_` prefix), in declaration order.
const HISTS: [(Hist, &str); Hist::COUNT] = [
    (Hist::FrameNs, "frame_ns"),
    (Hist::PoolPassNs, "pool_pass_ns"),
    (Hist::PoolJobNs, "pool_job_ns"),
    (Hist::PoolIdleAtCheckout, "pool_idle_at_checkout"),
    (Hist::PoolLanesGranted, "pool_lanes_granted"),
    (Hist::ServeBatchJobs, "serve_batch_jobs"),
    (Hist::RetryAttempts, "retry_attempts"),
    (Hist::OverloadQueueDepth, "overload_queue_depth"),
];

impl Hist {
    /// Number of histograms (sizes the recorder's fixed array).
    pub const COUNT: usize = 8;

    /// Prometheus series name (without the `cicero_` prefix).
    pub fn name(self) -> &'static str {
        HISTS[self as usize].1
    }

    pub(crate) fn from_usize(v: usize) -> Option<Hist> {
        HISTS.get(v).map(|row| row.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every table row sits at its variant's discriminant (so decoding an
    /// id gives back the variant that was recorded, and a row dropped from
    /// or misplaced in a table shows up here), and no two rows of a
    /// vocabulary share a name.
    #[test]
    fn vocabulary_tables_round_trip() {
        for (id, &(phase, name, ..)) in PHASES.iter().enumerate() {
            assert_eq!(phase as usize, id, "{name} is out of place");
            assert_eq!(Phase::from_u8(phase as u8), Some(phase));
        }
        for (id, &(counter, name)) in COUNTERS.iter().enumerate() {
            assert_eq!(counter as usize, id, "{name} is out of place");
            assert_eq!(Counter::from_usize(counter as usize), Some(counter));
        }
        for (id, &(hist, name)) in HISTS.iter().enumerate() {
            assert_eq!(hist as usize, id, "{name} is out of place");
            assert_eq!(Hist::from_usize(hist as usize), Some(hist));
        }
        // The last variants: a table cut short at its end has no row to be
        // out of place.
        assert_eq!(Phase::OverloadDivert.name(), "overload_divert");
        assert_eq!(
            Counter::SampleLanesCommitted.name(),
            "sample_lanes_committed"
        );
        assert_eq!(Hist::OverloadQueueDepth.name(), "overload_queue_depth");
        let unique = |names: Vec<&str>| names.iter().collect::<HashSet<_>>().len() == names.len();
        assert!(unique(PHASES.iter().map(|row| row.1).collect()));
        assert!(unique(COUNTERS.iter().map(|row| row.1).collect()));
        assert!(unique(HISTS.iter().map(|row| row.1).collect()));
    }
}
