//! Procedural analytic scenes, ground-truth volume rendering and camera
//! trajectories for the Cicero reproduction.
//!
//! The paper evaluates on Synthetic-NeRF, Unbounded-360 and Tanks-and-Temples
//! scenes with offline-trained NeRF models. Neither the datasets nor trained
//! checkpoints are available offline, so this crate substitutes *analytic*
//! scenes: signed-distance primitives with procedural materials and a known
//! closed-form density/radiance field. The substitution is documented in
//! `DESIGN.md` §3; everything the paper measures (warp overlap, disocclusion
//! rates, DRAM access patterns, PSNR deltas between pipeline variants) depends
//! only on scene geometry, camera motion and encoding layout — all preserved.
//!
//! Key pieces:
//!
//! - [`AnalyticScene`] — a collection of SDF [`Object`]s with a smooth density
//!   shell and Blinn-Phong-style radiance; it implements [`RadianceSource`],
//!   the interface shared with the learned fields in `cicero-field`.
//! - [`volume`] — the single shared volume-rendering integrator, used both for
//!   ground truth here and by the NeRF renderer, so quality comparisons never
//!   diverge on integration math.
//! - [`library`] — eight Synthetic-NeRF-like scenes plus two real-world-like
//!   scenes (`bonsai`, `ignatius`).
//! - [`Trajectory`] — orbit / handheld / fly-through camera paths at a chosen
//!   frame rate, with subsampling to produce the paper's 1 FPS variants.
//!
//! # Example
//!
//! ```
//! use cicero_scene::{library, Trajectory};
//!
//! let scene = library::scene_by_name("lego").unwrap();
//! let traj = Trajectory::orbit(&scene, 8, 30.0);
//! assert_eq!(traj.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ground_truth;
mod lanes;
pub mod library;
mod material;
mod primitive;
mod scene;
mod trajectory;
pub mod volume;

pub use material::{Material, Texture};
pub use primitive::{Object, Shape};
pub use scene::{AnalyticScene, Nearest, RadianceSource, SceneBuilder, SourceSample, CULL_PAD};
pub use trajectory::{Trajectory, TrajectoryKind};
