//! **Cicero**: sparse radiance warping, fully-streaming NeRF rendering and
//! bank-conflict-free feature gathering.
//!
//! This crate is the reproduction of the primary contribution of *Cicero:
//! Addressing Algorithmic and Architectural Bottlenecks in Neural Rendering
//! by Radiance Warping and Memory Optimizations* (ISCA 2024). It composes the
//! workspace substrates — analytic scenes (`cicero-scene`), baked radiance
//! fields (`cicero-field`), memory simulators (`cicero-mem`) and hardware
//! models (`cicero-accel`) — into the paper's end-to-end system:
//!
//! - [`sparw`] — the SPARW algorithm (§III): point-cloud conversion (Eq. 1),
//!   rigid transformation (Eq. 2), z-buffered re-projection (Eq. 3), sparse
//!   NeRF hole filling (Eq. 4, [`render_target`]: the one target-frame
//!   path), void detection, and the warp-angle heuristic φ,
//! - [`schedule`] — warping windows and off-trajectory reference-pose
//!   extrapolation (Eq. 5–6) that lets reference rendering overlap target
//!   rendering (Fig. 10/11),
//! - [`baselines`] — the DS-2 and Temp-N comparison methods of Fig. 16,
//! - [`traffic`] — replay of gather traces through cache/DRAM/bank simulators
//!   for the pixel-centric baseline and the fully-streaming MVoxel/RIT path
//!   (§IV-A/B),
//! - [`pipeline`] — the frame-loop orchestrator producing images, PSNR and
//!   per-frame time/energy reports for every variant × scenario of §V.
//!
//! # Example
//!
//! ```no_run
//! use cicero::pipeline::{run_pipeline, PipelineConfig};
//! use cicero_field::{bake, GridConfig};
//! use cicero_math::Intrinsics;
//! use cicero_scene::{library, Trajectory};
//!
//! let scene = library::scene_by_name("lego").unwrap();
//! let model = bake::bake_grid(&scene, &GridConfig { resolution: 64, ..Default::default() });
//! let traj = Trajectory::orbit(&scene, 8, 30.0);
//! let run = run_pipeline(&scene, &model, &traj, Intrinsics::from_fov(128, 128, 0.9),
//!                        &PipelineConfig::default());
//! println!("mean FPS {:.1}, mean PSNR {:.1} dB", run.mean_fps(), run.mean_psnr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod pipeline;
pub mod schedule;
pub mod sparw;
pub mod traffic;

pub use cicero_accel::soc::{Scenario, Variant};
pub use pipeline::{
    run_pipeline, FrameOutcome, PipelineConfig, PipelineRun, PipelineSession, SessionError,
    SessionStep,
};
pub use schedule::{FramePlan, RefPlacement, Schedule};
pub use sparw::{
    render_target, warp_frame, warp_frame_into, warp_frame_timed, PixelSource, TargetFrame,
    TargetViolation, WarpOptions, WarpResult, WarpScratch, WarpStats, WarpTiming,
};
