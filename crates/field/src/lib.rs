//! The NeRF substrate: voxel-grid, hash-grid and factorized-tensor encodings,
//! decoder MLPs, occupancy grids and an instrumented volume renderer.
//!
//! This crate builds the three model families the paper evaluates (§V):
//!
//! - [`GridModel`] — dense voxel features, DirectVoxGO-like,
//! - [`HashModel`] — multi-resolution hash encoding, Instant-NGP-like
//!   (8 levels, dense at coarse levels, hashed at fine levels),
//! - [`TensorModel`] — VM-factorized tensors, TensoRF-like,
//!
//! all sharing one [`NerfModel`] interface and one [`Decoder`] MLP. Models are
//! *baked* from `cicero-scene` analytic scenes (see [`bake`]) instead of
//! trained — the paper only measures inference, and baking preserves every
//! property the evaluation depends on: feature memory layout, per-sample
//! gather patterns, MLP compute cost and finite reconstruction error.
//!
//! The instrumented renderer ([`render`]) exposes per-stage statistics
//! (Indexing / Gathering / Feature-Computation work, paper Fig. 3) and streams
//! [`GatherPlan`]s to a [`GatherSink`] so the memory simulators in
//! `cicero-mem` can replay exact access traces.
//!
//! # Example
//!
//! ```
//! use cicero_field::{bake, GridConfig, NerfModel};
//! use cicero_scene::library;
//!
//! let scene = library::scene_by_name("mic").unwrap();
//! let model = bake::bake_grid(&scene, &GridConfig { resolution: 24, ..Default::default() });
//! assert!(model.memory_footprint_bytes() > 0);
//! ```

// `deny` instead of `forbid`: the two exceptions are `pool`, which implements
// the persistent worker pool's job dispatch and disjoint-slice primitives,
// and `simd`, whose x86 backends use unaligned load/store intrinsics behind
// slice-length asserts and enter the AVX and AVX-512 instances of a kernel
// behind run-time detection (every block SAFETY-annotated). Everything else in the crate
// remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bake;
mod decoder;
mod encoding;
mod mlp;
mod model;
mod occupancy;
mod plan;
pub mod pool;
pub mod render;
pub mod simd;
pub mod tiles;

pub use decoder::{Decoder, SpecularHead};
pub use encoding::grid::{DenseGrid, GridConfig};
pub use encoding::hash::{HashConfig, HashGrid};
pub use encoding::tensor::{TensorConfig, VmTensor};
pub use mlp::{Mlp, MlpBlockScratch, MlpScratch};
pub use model::{GridModel, HashModel, ModelKind, ModelSource, NerfModel, TensorModel};
pub use occupancy::OccupancyGrid;
pub use plan::{GatherPlan, GatherSink, LevelGather, NullSink, RegionId};
pub use pool::{Checkout, RenderPool};
pub use render::{RenderOptions, RenderStats, StatsViolation, DEFAULT_SAMPLE_BLOCK};
pub use tiles::{render_full_tiled, render_tiled, TileOptions};
