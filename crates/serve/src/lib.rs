//! **cicero-serve**: a multi-session frame-serving subsystem over the Cicero
//! pipeline.
//!
//! The core crate reproduces the paper's single-trajectory pipeline; this
//! crate scales it to a fleet. The observation (paper Fig. 19b remote
//! scenario; Potamoi's unified streaming architecture) is that reference
//! renders are the expensive, *batchable* resource while warped target
//! frames are cheap — exactly the structure a multi-tenant scheduler can
//! exploit:
//!
//! - [`session`] — client sessions: trajectory + intrinsics + scenario +
//!   [`QosClass`] deadlines,
//! - [`admission`] — load-estimating admission control so a saturated pool
//!   degrades by rejecting, not by missing every deadline,
//! - [`overload`] — the front door: one [`Submission`] through one
//!   [`FrameServer::submit`] (or [`Fleet::submit`]), and the SLO-aware
//!   pending-admission queue behind it ([`OverloadControl`]),
//! - [`scheduler`] — the [`FrameServer`]: each round batches pending
//!   reference renders across a
//!   [`WorkerPool`](cicero_accel::pool::WorkerPool) of simulated SoCs and
//!   overlaps them with target-frame warps, generalizing the single-client
//!   warping-window overlap (Fig. 10/11b) — four stages, listed in its
//!   module docs,
//! - [`cache`] — a pose-quantized [`RefCache`] so co-located sessions in the
//!   same scene share warp sources,
//! - [`fleet`] — the [`Fleet`]: N shard servers behind a
//!   [`ShardRouting`] router, with
//!   heartbeat health checks, shard-level fault domains and bit-identical
//!   failover migration,
//! - [`fault`] — seeded, fully deterministic fault injection
//!   ([`FaultPlan`]) with a recovery ladder
//!   ([`RetryWithBackoff`]): retry with backoff, warp from the best
//!   stale cached reference, degraded re-render,
//! - [`traffic`] — deterministic traffic profiles ([`TrafficProfile`]) with
//!   seeded generators (Zipf scene popularity, diurnal and flash-crowd
//!   arrivals) and the [`run_replay`] harness that drives a server from a
//!   profile with backpressure-honoring clients,
//! - [`report`] — [`ServiceReport`]: throughput, p50/p99 frame latency,
//!   deadline misses, per-session PSNR, fault/recovery/overload accounting.
//!
//! # Example
//!
//! ```no_run
//! use cicero::pipeline::PipelineConfig;
//! use cicero_field::{bake, GridConfig};
//! use cicero_math::Intrinsics;
//! use cicero_scene::{library, Trajectory};
//! use cicero_serve::{FrameServer, QosClass, ServeConfig, SessionSpec, Submission};
//!
//! let scene = library::scene_by_name("lego").unwrap();
//! let model = bake::bake_grid(&scene, &GridConfig::default());
//! let traj = Trajectory::orbit(&scene, 30, 30.0);
//! let mut server = FrameServer::new(ServeConfig::default());
//! let spec = SessionSpec {
//!     name: "hmd-0".into(),
//!     scene_key: "lego".into(),
//!     qos: QosClass::Interactive,
//!     start_offset_s: 0.0,
//!     config: PipelineConfig::default(),
//! };
//! let k = Intrinsics::from_fov(128, 128, 0.9);
//! server.submit(Submission::trajectory(spec, &scene, &model, &traj, k)).unwrap();
//! let report = server.run();
//! println!("{:.0} fps, p99 {:.1} ms", report.throughput_fps, report.p99_latency_s * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
mod dispatch;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod overload;
pub mod policy;
mod recovery;
pub mod report;
pub mod scheduler;
pub mod session;
pub mod traffic;

pub use admission::{AdmissionController, AdmissionError, AdmissionPolicy};
pub use cache::{CachedReference, RefCache, RefCacheConfig, RefCacheStats};
pub use error::ServeError;
pub use fault::{
    keyed_draw, keyed_unit, FallbackRecord, FaultInjector, FaultKind, FaultPlan, FaultReport,
};
pub use fleet::{Fleet, FleetConfig, FleetReport, MigrationRecord};
pub use overload::{Feed, OverloadControl, Submission, SubmitOutcome, TicketId, TicketState};
pub use policy::{
    Degradation, IdleWorkerPrefetch, LoadAdaptiveDegrade, Policies, RetryWithBackoff,
    SceneAffinity, ShardRouting,
};
pub use report::{DegradationRecord, FrameRecord, OverloadReport, ServiceReport, SessionSummary};
pub use scheduler::{FrameServer, ServeConfig};
pub use session::{QosClass, SessionId, SessionSpec};
pub use traffic::{
    run_replay, ArrivalProcess, ClientStats, PathKind, ReplayOptions, ReplayOutcome, TrafficAssets,
    TrafficError, TrafficModel, TrafficProfile, TrafficSession,
};
