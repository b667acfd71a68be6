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

impl Phase {
    /// Stable snake_case name used in trace and metric output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Gather => "gather",
            Phase::MlpBlock => "mlp_block",
            Phase::Decode => "decode",
            Phase::RenderTile => "render_tile",
            Phase::WarpSplat => "warp_splat",
            Phase::WarpResolve => "warp_resolve",
            Phase::WarpNormalize => "warp_normalize",
            Phase::WarpClassify => "warp_classify",
            Phase::WarpCrackFill => "warp_crack_fill",
            Phase::PoolJob => "pool_job",
            Phase::PoolPass => "pool_pass",
            Phase::Frame => "frame",
            Phase::ReferenceRender => "reference_render",
            Phase::SparseRender => "sparse_render",
            Phase::ServeBatch => "serve_batch",
            Phase::ServeFrame => "serve_frame",
            Phase::ServeReference => "serve_reference",
            Phase::Admit => "admit",
            Phase::Reject => "reject",
            Phase::Degrade => "degrade",
            Phase::CacheHit => "cache_hit",
            Phase::CacheMiss => "cache_miss",
            Phase::CachePrefetch => "cache_prefetch",
            Phase::FaultInject => "fault_inject",
            Phase::FaultRetry => "fault_retry",
            Phase::FaultFallback => "fault_fallback",
            Phase::Quarantine => "quarantine",
            Phase::WatchdogGrant => "watchdog_grant",
            Phase::HeartbeatMiss => "heartbeat_miss",
            Phase::ShardCrash => "shard_crash",
            Phase::ShardBrownout => "shard_brownout",
            Phase::SessionMigrate => "session_migrate",
            Phase::OverloadEnqueue => "overload_enqueue",
            Phase::OverloadShed => "overload_shed",
            Phase::OverloadDivert => "overload_divert",
        }
    }

    /// Trace category (`cat` field): which layer emitted the event.
    pub fn category(self) -> &'static str {
        match self {
            Phase::Plan
            | Phase::Gather
            | Phase::MlpBlock
            | Phase::Decode
            | Phase::RenderTile
            | Phase::PoolJob
            | Phase::PoolPass => "field",
            Phase::WarpSplat
            | Phase::WarpResolve
            | Phase::WarpNormalize
            | Phase::WarpClassify
            | Phase::WarpCrackFill
            | Phase::Frame
            | Phase::ReferenceRender
            | Phase::SparseRender => "core",
            Phase::ServeBatch
            | Phase::ServeFrame
            | Phase::ServeReference
            | Phase::Admit
            | Phase::Reject
            | Phase::Degrade
            | Phase::CacheHit
            | Phase::CacheMiss
            | Phase::CachePrefetch
            | Phase::FaultInject
            | Phase::FaultRetry
            | Phase::FaultFallback
            | Phase::Quarantine
            | Phase::WatchdogGrant
            | Phase::HeartbeatMiss
            | Phase::ShardCrash
            | Phase::ShardBrownout
            | Phase::SessionMigrate
            | Phase::OverloadEnqueue
            | Phase::OverloadShed
            | Phase::OverloadDivert => "serve",
        }
    }

    /// Names for the three generic argument slots, in trace `args` order.
    pub fn arg_names(self) -> [&'static str; 3] {
        match self {
            Phase::Frame => ["session", "frame", "full_render"],
            Phase::ReferenceRender | Phase::SparseRender => ["session", "frame", "c"],
            Phase::ServeBatch => ["jobs", "b", "c"],
            Phase::ServeFrame => ["session", "frame", "c"],
            Phase::ServeReference => ["session", "frame", "c"],
            Phase::Admit | Phase::Reject => ["session", "qos", "c"],
            Phase::Degrade => ["session", "window", "c"],
            Phase::PoolJob => ["lane", "lanes", "c"],
            Phase::PoolPass => ["lanes", "b", "c"],
            Phase::RenderTile => ["tile", "rows", "c"],
            Phase::Plan | Phase::Gather | Phase::MlpBlock | Phase::Decode => ["samples", "b", "c"],
            Phase::FaultInject => ["session", "subject", "kind"],
            Phase::FaultRetry => ["session", "subject", "attempt"],
            Phase::FaultFallback => ["session", "reference", "rung"],
            Phase::Quarantine => ["worker", "b", "c"],
            Phase::WatchdogGrant => ["session", "frame", "c"],
            Phase::HeartbeatMiss | Phase::ShardBrownout => ["shard", "heartbeat", "c"],
            Phase::ShardCrash => ["shard", "sessions", "c"],
            Phase::SessionMigrate => ["session", "from_shard", "c"],
            Phase::OverloadEnqueue | Phase::OverloadShed => ["ticket", "qos", "c"],
            Phase::OverloadDivert => ["shard", "primary", "c"],
            _ => ["a", "b", "c"],
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Phase> {
        const ALL: [Phase; 36] = [
            Phase::Plan,
            Phase::Gather,
            Phase::MlpBlock,
            Phase::Decode,
            Phase::RenderTile,
            Phase::WarpSplat,
            Phase::WarpResolve,
            Phase::WarpNormalize,
            Phase::WarpClassify,
            Phase::WarpCrackFill,
            Phase::PoolJob,
            Phase::PoolPass,
            Phase::Frame,
            Phase::ReferenceRender,
            Phase::SparseRender,
            Phase::ServeBatch,
            Phase::ServeFrame,
            Phase::ServeReference,
            Phase::Admit,
            Phase::Reject,
            Phase::Degrade,
            Phase::CacheHit,
            Phase::CacheMiss,
            Phase::CachePrefetch,
            Phase::FaultInject,
            Phase::FaultRetry,
            Phase::FaultFallback,
            Phase::Quarantine,
            Phase::WatchdogGrant,
            Phase::HeartbeatMiss,
            Phase::ShardCrash,
            Phase::ShardBrownout,
            Phase::SessionMigrate,
            Phase::OverloadEnqueue,
            Phase::OverloadShed,
            Phase::OverloadDivert,
        ];
        ALL.get(v as usize).copied()
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

impl Counter {
    /// Number of counters (sizes the recorder's fixed array).
    pub const COUNT: usize = 32;

    /// Prometheus series name (without the `cicero_` prefix / `_total`
    /// suffix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PoolCheckouts => "pool_checkouts",
            Counter::PoolLaneShortfall => "pool_lane_shortfall",
            Counter::PoolJobs => "pool_jobs",
            Counter::FramesStepped => "frames_stepped",
            Counter::ReferenceRenders => "reference_renders",
            Counter::SparseRenders => "sparse_renders",
            Counter::ServeBatches => "serve_batches",
            Counter::ServeFrames => "serve_frames",
            Counter::ServeReferenceJobs => "serve_reference_jobs",
            Counter::ServePrefetchJobs => "serve_prefetch_jobs",
            Counter::Admitted => "sessions_admitted",
            Counter::Rejected => "sessions_rejected",
            Counter::Degraded => "sessions_degraded",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CachePrefetchInserts => "cache_prefetch_inserts",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultRetries => "fault_retries",
            Counter::FaultFallbacks => "fault_fallbacks",
            Counter::Quarantines => "quarantines",
            Counter::WatchdogGrants => "watchdog_grants",
            Counter::HeartbeatMisses => "heartbeat_misses",
            Counter::ShardCrashes => "shard_crashes",
            Counter::ShardBrownouts => "shard_brownouts",
            Counter::SessionMigrations => "session_migrations",
            Counter::OverloadEnqueued => "overload_enqueued",
            Counter::OverloadSheds => "overload_sheds",
            Counter::OverloadBackpressure => "overload_backpressure",
            Counter::OverloadDiversions => "overload_diversions",
            Counter::MarchStepsVisited => "march_steps_visited",
            Counter::SampleLanesEvaluated => "sample_lanes_evaluated",
            Counter::SampleLanesCommitted => "sample_lanes_committed",
        }
    }

    pub(crate) fn from_usize(v: usize) -> Option<Counter> {
        const ALL: [Counter; Counter::COUNT] = [
            Counter::PoolCheckouts,
            Counter::PoolLaneShortfall,
            Counter::PoolJobs,
            Counter::FramesStepped,
            Counter::ReferenceRenders,
            Counter::SparseRenders,
            Counter::ServeBatches,
            Counter::ServeFrames,
            Counter::ServeReferenceJobs,
            Counter::ServePrefetchJobs,
            Counter::Admitted,
            Counter::Rejected,
            Counter::Degraded,
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CachePrefetchInserts,
            Counter::FaultsInjected,
            Counter::FaultRetries,
            Counter::FaultFallbacks,
            Counter::Quarantines,
            Counter::WatchdogGrants,
            Counter::HeartbeatMisses,
            Counter::ShardCrashes,
            Counter::ShardBrownouts,
            Counter::SessionMigrations,
            Counter::OverloadEnqueued,
            Counter::OverloadSheds,
            Counter::OverloadBackpressure,
            Counter::OverloadDiversions,
            Counter::MarchStepsVisited,
            Counter::SampleLanesEvaluated,
            Counter::SampleLanesCommitted,
        ];
        ALL.get(v).copied()
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

impl Hist {
    /// Number of histograms (sizes the recorder's fixed array).
    pub const COUNT: usize = 8;

    /// Prometheus series name (without the `cicero_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Hist::FrameNs => "frame_ns",
            Hist::PoolPassNs => "pool_pass_ns",
            Hist::PoolJobNs => "pool_job_ns",
            Hist::PoolIdleAtCheckout => "pool_idle_at_checkout",
            Hist::PoolLanesGranted => "pool_lanes_granted",
            Hist::ServeBatchJobs => "serve_batch_jobs",
            Hist::RetryAttempts => "retry_attempts",
            Hist::OverloadQueueDepth => "overload_queue_depth",
        }
    }

    pub(crate) fn from_usize(v: usize) -> Option<Hist> {
        const ALL: [Hist; Hist::COUNT] = [
            Hist::FrameNs,
            Hist::PoolPassNs,
            Hist::PoolJobNs,
            Hist::PoolIdleAtCheckout,
            Hist::PoolLanesGranted,
            Hist::ServeBatchJobs,
            Hist::RetryAttempts,
            Hist::OverloadQueueDepth,
        ];
        ALL.get(v).copied()
    }
}
