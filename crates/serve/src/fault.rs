//! Deterministic fault injection for the frame server.
//!
//! A production fleet fails constantly — workers die mid-render, caches go
//! bad, pose feeds stall — and a scheduler that has only ever seen a
//! fault-free world cannot be trusted at scale. This module makes failure a
//! first-class, **reproducible** input: a [`FaultPlan`] is a seeded schedule
//! of injected faults, and the scheduler consults it at its existing
//! sequential seams (reference commit, target bookkeeping, demand cache
//! lookup, pose ingestion).
//!
//! # Determinism contract
//!
//! The standing serve invariant — bit-identical [`ServiceReport`]s at any
//! host thread budget — extends to chaos runs. Every injection decision is a
//! **keyed, idempotent draw**: a fixed-seed hash of
//! `(seed, fault kind, key triple)` compared against the kind's rate, never a
//! sequential RNG stream. Keyed draws are order-independent, so the same
//! `(session, job, attempt)` asks the same question and gets the same answer
//! regardless of how host threads interleaved the surrounding work, and no
//! wall-clock or ambient state is ever consulted. A zero-rate plan draws
//! `false` everywhere and leaves the server byte-identical to an un-armed
//! one — `tests/fault_recovery.rs` asserts both properties.
//!
//! Decisions are pure integer hashing over stack bytes: arming the injector
//! adds **zero heap allocations** per warmed frame (`tests/zero_alloc.rs`).
//!
//! # Fault taxonomy
//!
//! - [`FaultKind::WorkerCrash`] — a simulated reference/target job dies
//!   partway through its priced duration; the worker is quarantined and the
//!   recovery ladder (retry → stale warp → degraded re-render; see
//!   [`RetryWithBackoff`](crate::policy::RetryWithBackoff)) takes over.
//! - [`FaultKind::Straggler`] — the job completes but takes
//!   [`straggler_factor`](FaultPlan::straggler_factor)× its priced time.
//! - [`FaultKind::CacheCorruption`] — a resident reference-cache entry is
//!   detected corrupt at demand lookup and invalidated, forcing a fresh
//!   render.
//! - [`FaultKind::PoseStall`] — a streamed pose arrives
//!   [`stall_s`](FaultPlan::stall_s) late, shifting the session's later
//!   frame arrivals (and deadlines) by the accumulated delay.
//! - [`FaultKind::PoseDrop`] — a streamed pose is lost in flight; the
//!   session simply serves one fewer frame.
//! - [`FaultKind::ShardCrash`] — a whole [`Fleet`](crate::Fleet) shard
//!   misses a heartbeat; [`miss_threshold`](crate::FleetConfig::miss_threshold)
//!   consecutive misses declare the shard dead and its live sessions fail
//!   over to survivors.
//! - [`FaultKind::ShardBrownout`] — a shard's entire simulated pool stalls
//!   for [`brownout_s`](FaultPlan::brownout_s) (thermal throttle, network
//!   partition healing): the shard survives, its frames run late.
//!
//! The shard kinds are drawn by the fleet's health model, keyed
//! `(shard, heartbeat index, 0)` against the **base** plan seed; the
//! per-shard servers draw their worker/cache/pose faults against
//! shard-decorrelated seeds so chaos is not mirrored across shards.
//!
//! [`ServiceReport`]: crate::ServiceReport

use crate::policy::fnv1a;
use serde::Serialize;

/// The keyed idempotent draw shared by every deterministic generator in this
/// crate: FNV-1a over the `(tag, a, b, c)` key bytes, xor-folded with `seed`,
/// then one xorshift64* round. Pure stack arithmetic — no allocation, no
/// state, order-independent by construction, so the same question always
/// gets the same 64-bit answer regardless of host-thread interleaving.
///
/// `tag` is a domain-separation namespace: [`FaultPlan`] draws use tags 1–7
/// (one per [`FaultKind`]), the traffic generators in [`crate::traffic`] use
/// tags 101+. New domains must pick unused tags so schedules never alias.
pub fn keyed_draw(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&tag.to_le_bytes());
    bytes[8..16].copy_from_slice(&a.to_le_bytes());
    bytes[16..24].copy_from_slice(&b.to_le_bytes());
    bytes[24..].copy_from_slice(&c.to_le_bytes());
    let mut x = seed ^ fnv1a(&bytes);
    if x == 0 {
        x = 0x9e37_79b9_7f4a_7c15; // xorshift's fixed point; any odd seed
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// [`keyed_draw`] mapped to a 53-bit uniform in `[0, 1)` — the unit draw
/// behind [`FaultPlan::fires`] and the traffic generators' inverse-CDF
/// sampling.
pub fn keyed_unit(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
    (keyed_draw(seed, tag, a, b, c) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The kinds of injected faults. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A simulated worker dies partway through a job.
    WorkerCrash,
    /// A job takes `straggler_factor`× its priced duration.
    Straggler,
    /// A resident cache entry is detected corrupt at lookup.
    CacheCorruption,
    /// A streamed pose arrives late.
    PoseStall,
    /// A streamed pose is lost in flight.
    PoseDrop,
    /// A fleet shard misses a heartbeat (consecutive misses kill it).
    ShardCrash,
    /// A fleet shard's whole pool stalls for a bounded window.
    ShardBrownout,
}

impl FaultKind {
    /// Stable snake_case label (logs, digests).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::Straggler => "straggler",
            FaultKind::CacheCorruption => "cache_corruption",
            FaultKind::PoseStall => "pose_stall",
            FaultKind::PoseDrop => "pose_drop",
            FaultKind::ShardCrash => "shard_crash",
            FaultKind::ShardBrownout => "shard_brownout",
        }
    }

    /// Domain-separation tag mixed into every draw for this kind.
    fn tag(self) -> u64 {
        match self {
            FaultKind::WorkerCrash => 1,
            FaultKind::Straggler => 2,
            FaultKind::CacheCorruption => 3,
            FaultKind::PoseStall => 4,
            FaultKind::PoseDrop => 5,
            FaultKind::ShardCrash => 6,
            FaultKind::ShardBrownout => 7,
        }
    }
}

/// A seeded, fully deterministic fault schedule.
///
/// Rates are per-decision probabilities in `[0, 1]`; a rate of `0` never
/// fires and `1` always fires, exactly (no floating-point edge where a
/// zero-rate plan could still draw a fault). [`with_rate`](Self::with_rate)
/// builds the standard mix the swarm matrix's chaos legs run, scaling every
/// rate from one knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the keyed draw schedule. Two runs with equal seeds (and equal
    /// workloads) inject identical faults.
    pub seed: u64,
    /// Probability a reference/target attempt crashes.
    pub crash_rate: f64,
    /// Fraction of the priced duration a crashed attempt still bills to its
    /// worker before dying.
    pub crash_fraction: f64,
    /// Probability a job straggles.
    pub straggler_rate: f64,
    /// Duration multiplier for straggling jobs.
    pub straggler_factor: f64,
    /// Probability a resident cache entry is corrupt at demand lookup.
    pub corruption_rate: f64,
    /// Probability a streamed pose stalls.
    pub stall_rate: f64,
    /// Ingest delay of a stalled pose, simulated seconds.
    pub stall_s: f64,
    /// Probability a streamed pose is dropped.
    pub drop_rate: f64,
    /// Probability a fleet shard misses one heartbeat. Drawn by the fleet's
    /// health model per `(shard, heartbeat)`; ignored by a bare
    /// [`FrameServer`](crate::FrameServer).
    pub shard_crash_rate: f64,
    /// Probability a fleet shard browns out at a heartbeat.
    pub shard_brownout_rate: f64,
    /// Duration of an injected shard brownout, simulated seconds.
    pub brownout_s: f64,
}

impl FaultPlan {
    /// The default per-decision fault rate: the one [`seeded`](Self::seeded)
    /// plans (and the swarm matrix's chaos legs) inject at.
    pub const DEFAULT_RATE: f64 = 0.02;

    /// The standard mix at [`DEFAULT_RATE`](Self::DEFAULT_RATE).
    pub fn seeded(seed: u64) -> Self {
        Self::with_rate(seed, Self::DEFAULT_RATE)
    }

    /// The standard mix with every rate scaled from `rate`: crashes,
    /// stragglers, corruptions and stalls at `rate`, drops at `rate / 4`
    /// (losing poses shrinks sessions, so drops stay rarer than delays).
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            crash_rate: rate,
            crash_fraction: 0.35,
            straggler_rate: rate,
            straggler_factor: 4.0,
            corruption_rate: rate,
            stall_rate: rate,
            stall_s: 0.05,
            drop_rate: 0.25 * rate,
            shard_crash_rate: rate,
            shard_brownout_rate: rate,
            brownout_s: 0.1,
        }
    }

    /// A plan that never fires — armed plumbing, zero faults. Byte-identical
    /// serving to an un-armed server.
    pub fn zero(seed: u64) -> Self {
        Self::with_rate(seed, 0.0)
    }

    /// The plan a [`Fleet`](crate::Fleet) hands shard `shard`: identical
    /// rates, seed decorrelated by the shard index so chaos is not mirrored
    /// across shards. Shard 0 keeps the base seed **unchanged**, which is
    /// what makes a fleet of one byte-identical to a bare server under the
    /// same plan.
    pub fn for_shard(&self, shard: usize) -> Self {
        let mut plan = *self;
        plan.seed = self.seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        plan
    }

    fn rate_of(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::WorkerCrash => self.crash_rate,
            FaultKind::Straggler => self.straggler_rate,
            FaultKind::CacheCorruption => self.corruption_rate,
            FaultKind::PoseStall => self.stall_rate,
            FaultKind::PoseDrop => self.drop_rate,
            FaultKind::ShardCrash => self.shard_crash_rate,
            FaultKind::ShardBrownout => self.shard_brownout_rate,
        }
    }

    /// Whether the fault `kind` fires for the decision keyed `(a, b, c)`.
    ///
    /// Idempotent and order-independent: the answer depends only on the plan
    /// and the key, so repeated evaluation and host-thread interleaving
    /// cannot change it. Key conventions (the scheduler's; any caller-chosen
    /// scheme works as long as distinct decisions get distinct keys):
    /// crashes key `(session, job index, attempt·4 | job domain)`, stragglers
    /// `(session, job index, job domain)`, corruptions
    /// `(session, reference index, 0)`, stalls/drops
    /// `(session, push attempt, 0)`.
    pub fn fires(&self, kind: FaultKind, a: u64, b: u64, c: u64) -> bool {
        let rate = self.rate_of(kind);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        keyed_unit(self.seed, kind.tag(), a, b, c) < rate
    }
}

/// One fallback-warp recovery: a reference whose fresh render was abandoned
/// and replaced by the best stale cached reference within the recovery
/// policy's pose-error radius.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FallbackRecord {
    /// The recovering session.
    pub session: usize,
    /// The session's reference slot that fell back.
    pub ref_index: usize,
    /// Position error between the intended and the stale pose, world units.
    pub pos_error: f32,
    /// Rotation error between the intended and the stale pose, radians.
    pub rot_error: f32,
    /// Target frames planned (so far) to warp from this reference.
    pub frames: usize,
}

/// Fault and recovery accounting for one [`crate::FrameServer`] lifetime,
/// carried on [`ServiceReport::faults`](crate::ServiceReport::faults).
///
/// An un-armed server — and an armed one whose plan never fired — reports
/// exactly [`FaultReport::default()`]: all counters zero, availability `1.0`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultReport {
    /// Injected worker crashes (failed render attempts).
    pub worker_crashes: u64,
    /// Injected stragglers (jobs slowed by the straggler factor).
    pub stragglers: u64,
    /// Cache entries invalidated as corrupt at demand lookup.
    pub cache_corruptions: u64,
    /// Streamed poses that arrived late.
    pub pose_stalls: u64,
    /// Streamed poses lost in flight.
    pub pose_drops: u64,
    /// Crashed attempts retried with deterministic backoff.
    pub retries: u64,
    /// References recovered by warping from a stale cached entry.
    pub fallback_warps: u64,
    /// Target frames planned to warp from a fallback reference.
    pub fallback_warp_frames: u64,
    /// References recovered by a final guaranteed (degraded) re-render after
    /// retries were exhausted and no stale entry was in radius.
    pub degraded_rerenders: u64,
    /// Workers taken out of rotation after a crash.
    pub quarantines: u64,
    /// Quarantined workers returned to rotation (every quarantine ends).
    pub respawns: u64,
    /// Fault-affected deadline overruns the per-frame watchdog converted
    /// into grants (within the recovery policy's slack) instead of leaving
    /// as silent misses.
    pub watchdog_grants: u64,
    /// Fault-affected deadline overruns beyond the watchdog slack — the
    /// frames counted against [`availability`](Self::availability).
    pub unrecovered: u64,
    /// Simulated seconds spent recovering: failed partial attempts plus
    /// backoff waits, summed over all retries.
    pub time_to_recover_s: f64,
    /// `1 − unrecovered / frames`: the fraction of served frames that were
    /// not fault-lost beyond the watchdog slack. `1.0` when nothing fired.
    pub availability: f64,
    /// Every fallback-warp recovery, in commit order.
    pub fallbacks: Vec<FallbackRecord>,
}

impl Default for FaultReport {
    fn default() -> Self {
        FaultReport {
            worker_crashes: 0,
            stragglers: 0,
            cache_corruptions: 0,
            pose_stalls: 0,
            pose_drops: 0,
            retries: 0,
            fallback_warps: 0,
            fallback_warp_frames: 0,
            degraded_rerenders: 0,
            quarantines: 0,
            respawns: 0,
            watchdog_grants: 0,
            unrecovered: 0,
            time_to_recover_s: 0.0,
            availability: 1.0,
            fallbacks: Vec::new(),
        }
    }
}

impl FaultReport {
    /// Total injected faults, all kinds.
    pub fn injected(&self) -> u64 {
        self.worker_crashes
            + self.stragglers
            + self.cache_corruptions
            + self.pose_stalls
            + self.pose_drops
    }

    /// Total recovery actions: retries, fallback warps, degraded re-renders
    /// and watchdog grants.
    pub fn recoveries(&self) -> u64 {
        self.retries + self.fallback_warps + self.degraded_rerenders + self.watchdog_grants
    }
}

/// The armed injector one [`crate::FrameServer`] carries: the plan plus the
/// running [`FaultReport`]. Decisions ([`fires`](Self::fires)) are pure; all
/// accounting is mutated by the scheduler at its sequential seams, so the
/// report is bit-identical at any host thread budget.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    pub(crate) report: FaultReport,
}

impl FaultInjector {
    /// Arms `plan` with zeroed accounting.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            report: FaultReport::default(),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Keyed decision draw — see [`FaultPlan::fires`].
    pub fn fires(&self, kind: FaultKind, a: u64, b: u64, c: u64) -> bool {
        self.plan.fires(kind, a, b, c)
    }

    /// The accounting accumulated so far.
    pub fn report(&self) -> &FaultReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [FaultKind; 7] = [
        FaultKind::WorkerCrash,
        FaultKind::Straggler,
        FaultKind::CacheCorruption,
        FaultKind::PoseStall,
        FaultKind::PoseDrop,
        FaultKind::ShardCrash,
        FaultKind::ShardBrownout,
    ];

    #[test]
    fn draws_are_keyed_and_idempotent() {
        let plan = FaultPlan::seeded(42);
        for kind in ALL_KINDS {
            for key in 0..64u64 {
                let first = plan.fires(kind, key, key / 3, key % 5);
                for _ in 0..3 {
                    assert_eq!(first, plan.fires(kind, key, key / 3, key % 5));
                }
            }
        }
    }

    #[test]
    fn zero_rate_never_fires_and_unit_rate_always_fires() {
        let zero = FaultPlan::zero(7);
        let mut one = FaultPlan::with_rate(7, 1.0);
        one.drop_rate = 1.0;
        for a in 0..256u64 {
            for kind in ALL_KINDS {
                assert!(!zero.fires(kind, a, 1, 2));
                assert!(one.fires(kind, a, 1, 2));
            }
        }
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::with_rate(1234, 0.1);
        let fired = (0..10_000u64)
            .filter(|&a| plan.fires(FaultKind::WorkerCrash, a, 0, 0))
            .count();
        assert!(
            (700..1300).contains(&fired),
            "10% rate fired {fired}/10000 times"
        );
    }

    #[test]
    fn seeds_decorrelate_and_kinds_domain_separate() {
        let a = FaultPlan::with_rate(1, 0.5);
        let b = FaultPlan::with_rate(2, 0.5);
        let mut differs_by_seed = false;
        let mut differs_by_kind = false;
        for key in 0..256u64 {
            differs_by_seed |= a.fires(FaultKind::WorkerCrash, key, 0, 0)
                != b.fires(FaultKind::WorkerCrash, key, 0, 0);
            differs_by_kind |= a.fires(FaultKind::WorkerCrash, key, 0, 0)
                != a.fires(FaultKind::Straggler, key, 0, 0);
        }
        assert!(differs_by_seed, "seeds must change the schedule");
        assert!(differs_by_kind, "kinds must draw independently");
    }

    #[test]
    fn golden_draws_never_change_across_refactors() {
        // Every recorded chaos digest (the swarm matrix's fault_digest and
        // fleet_digest lines) depends on the exact keyed-draw schedule.
        // This pins `fires()` for a fixed seed over a fixed key lattice: 32
        // draws per kind, packed LSB-first into one u32 per kind in ALL_KINDS
        // order. If a refactor changes any bit here it silently invalidates
        // every recorded digest — fix the refactor, never the constants.
        const GOLDEN: [u32; 7] = [
            0x1131_1015,
            0x0000_8020,
            0x2090_2649,
            0x1400_0c80,
            0x0090_0000,
            0x0314_c1d0,
            0x2872_020e,
        ];
        let plan = FaultPlan::with_rate(42, 0.3);
        let mut masks = [0u32; 7];
        for (k, kind) in ALL_KINDS.iter().enumerate() {
            for i in 0..32u64 {
                let (a, b, c) = (i / 4, (i / 2) % 2, i % 2);
                if plan.fires(*kind, a, b, c) {
                    masks[k] |= 1 << i;
                }
            }
        }
        assert_eq!(
            masks, GOLDEN,
            "keyed draw schedule drifted: got {masks:#010x?}"
        );
    }

    #[test]
    fn shard_seed_derivation_keeps_shard_zero_and_decorrelates_the_rest() {
        let base = FaultPlan::with_rate(42, 0.5);
        assert_eq!(base.for_shard(0), base);
        let s1 = base.for_shard(1);
        let s2 = base.for_shard(2);
        assert_ne!(s1.seed, base.seed);
        assert_ne!(s1.seed, s2.seed);
        // Rates are untouched — only the seed moves.
        assert_eq!(s1.crash_rate, base.crash_rate);
        assert_eq!(s1.shard_crash_rate, base.shard_crash_rate);
        let mut differs = false;
        for key in 0..256u64 {
            differs |= base.fires(FaultKind::ShardCrash, key, 0, 0)
                != s1.fires(FaultKind::ShardCrash, key, 0, 0);
        }
        assert!(differs, "shard seeds must change the schedule");
    }

    #[test]
    fn keyed_unit_is_a_unit_draw_and_separates_tags() {
        let mut differs = false;
        for i in 0..512u64 {
            let u = keyed_unit(42, 101, i, i / 3, i % 5);
            assert!((0.0..1.0).contains(&u), "draw out of unit range: {u}");
            differs |= keyed_draw(42, 101, i, 0, 0) != keyed_draw(42, 102, i, 0, 0);
        }
        assert!(differs, "tags must domain-separate the draw stream");
    }

    #[test]
    fn empty_report_is_default_and_fully_available() {
        let r = FaultReport::default();
        assert_eq!(r.injected(), 0);
        assert_eq!(r.recoveries(), 0);
        assert_eq!(r.availability, 1.0);
        assert_eq!(FaultInjector::new(FaultPlan::zero(0)).report(), &r);
    }
}
