//! The [`NerfModel`] interface and the three model families.
//!
//! A model bundles an encoding (features + gather plans), a [`Decoder`], an
//! [`OccupancyGrid`] and background radiance. The interface is deliberately
//! the *paper's* pipeline cut: `plan_at` is Indexing (I), `features_into` is
//! Feature Gathering (G), `Decoder::decode` is Feature Computation (F).

use crate::decoder::Decoder;
use crate::encoding::grid::DenseGrid;
use crate::encoding::hash::HashGrid;
use crate::encoding::tensor::VmTensor;
use crate::occupancy::OccupancyGrid;
use crate::plan::{GatherPlan, RegionId};
use cicero_math::{Aabb, Vec3};
use cicero_scene::RadianceSource;

/// Which model family an implementation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Dense voxel grid (DirectVoxGO-like).
    Grid,
    /// Multi-resolution hash encoding (Instant-NGP-like).
    Hash,
    /// VM-factorized tensor (TensoRF-like).
    Tensor,
}

impl ModelKind {
    /// Human-readable algorithm name used in experiment tables.
    pub fn algorithm_name(&self) -> &'static str {
        match self {
            ModelKind::Grid => "DirectVoxGO",
            ModelKind::Hash => "Instant-NGP",
            ModelKind::Tensor => "TensoRF",
        }
    }

    /// All model kinds in the paper's presentation order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Hash, ModelKind::Grid, ModelKind::Tensor];
}

/// A baked neural radiance field.
///
/// `Sync` is a supertrait: models are immutable at inference time, and the
/// tile-parallel renderer ([`crate::tiles`]) shares one model reference
/// across its worker threads. All three built-in families are plain data and
/// satisfy it automatically.
pub trait NerfModel: Sync {
    /// Model family.
    fn kind(&self) -> ModelKind;

    /// Scene bounds of the encoding.
    fn bounds(&self) -> Aabb;

    /// Background radiance.
    fn background(&self) -> Vec3;

    /// Gathers and interpolates the feature vector at `p` into `out`
    /// (Feature Gathering, stage G).
    fn features_into(&self, p: Vec3, out: &mut Vec<f32>);

    /// Batched feature gathering for a block of sample positions, written in
    /// SoA layout: feature `c` of sample `s` goes to `out[c * stride + s]`
    /// (the decoder's staged input matrix; see
    /// [`crate::Decoder::stage_block`]).
    ///
    /// Implementations must be **bit-identical** per sample to
    /// [`NerfModel::features_into`] — the batched render path relies on it.
    /// The default transposes through a temporary vector (allocating; correct
    /// but slow); the built-in families override it with true SoA kernels
    /// that hoist level-constant work out of the sample loop.
    fn features_into_block(&self, ps: &[Vec3], out: &mut [f32], stride: usize) {
        let mut tmp = Vec::new();
        for (s, &p) in ps.iter().enumerate() {
            self.features_into(p, &mut tmp);
            for (c, &v) in tmp.iter().enumerate() {
                out[c * stride + s] = v;
            }
        }
    }

    /// The memory accesses a query at `p` performs (stage G's traffic).
    fn plan_at(&self, p: Vec3) -> GatherPlan;

    /// Writes the gather plan at `p` into `out`, reusing its level buffer.
    /// The renderer's per-sample path: allocation-free once `out` is warm.
    /// The default falls back to [`NerfModel::plan_at`]; the built-in
    /// families override it with true in-place fills.
    fn plan_into(&self, p: Vec3, out: &mut GatherPlan) {
        *out = self.plan_at(p);
    }

    /// The decoder MLP (stage F).
    fn decoder(&self) -> &Decoder;

    /// Coarse occupancy for empty-space skipping (stage I).
    fn occupancy(&self) -> &OccupancyGrid;

    /// Feature storage bytes in DRAM (excludes MLP weights).
    fn memory_footprint_bytes(&self) -> u64;

    /// Sizes of each contiguous storage region, in [`RegionId`] order.
    /// Regions are laid out back-to-back in the model's DRAM image.
    fn region_sizes(&self) -> Vec<(RegionId, u64)>;

    /// Queries density and radiance at a point (G + F composed).
    fn query(&self, p: Vec3, dir: Vec3) -> (f32, Vec3) {
        let mut feats = Vec::new();
        self.features_into(p, &mut feats);
        self.decoder().decode(&feats, dir)
    }
}

/// Adapts a [`NerfModel`] to the scene crate's [`RadianceSource`], applying
/// occupancy-based empty-space skipping, so models can be rendered by the
/// shared ground-truth integrator for functional tests.
pub struct ModelSource<'a, M: NerfModel + ?Sized>(pub &'a M);

impl<M: NerfModel + ?Sized> RadianceSource for ModelSource<'_, M> {
    fn density_at(&self, p: Vec3) -> f32 {
        if !self.0.occupancy().occupied(p) {
            return 0.0;
        }
        self.0.query(p, Vec3::Z).0
    }

    fn radiance_at(&self, p: Vec3, dir: Vec3) -> Vec3 {
        self.0.query(p, dir).1
    }

    fn bounds(&self) -> Aabb {
        self.0.bounds()
    }

    fn background(&self) -> Vec3 {
        self.0.background()
    }
}

macro_rules! model_struct {
    ($(#[$doc:meta])* $name:ident, $enc:ty, $kind:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            /// The feature encoding.
            pub encoding: $enc,
            /// The feature decoder.
            pub decoder: Decoder,
            /// Empty-space occupancy.
            pub occupancy: OccupancyGrid,
            /// Background radiance.
            pub background: Vec3,
            /// Scene this model was baked from.
            pub scene_name: String,
        }

        impl NerfModel for $name {
            fn kind(&self) -> ModelKind {
                $kind
            }
            fn bounds(&self) -> Aabb {
                self.encoding.bounds()
            }
            fn background(&self) -> Vec3 {
                self.background
            }
            fn features_into(&self, p: Vec3, out: &mut Vec<f32>) {
                self.encoding.interpolate_into(p, out);
            }
            fn features_into_block(&self, ps: &[Vec3], out: &mut [f32], stride: usize) {
                self.encoding.interpolate_block_into(ps, out, stride);
            }
            fn plan_at(&self, p: Vec3) -> GatherPlan {
                self.encoding.gather_plan(p)
            }
            fn plan_into(&self, p: Vec3, out: &mut GatherPlan) {
                self.encoding.gather_plan_into(p, out);
            }
            fn decoder(&self) -> &Decoder {
                &self.decoder
            }
            fn occupancy(&self) -> &OccupancyGrid {
                &self.occupancy
            }
            fn memory_footprint_bytes(&self) -> u64 {
                self.encoding.storage_bytes()
            }
            fn region_sizes(&self) -> Vec<(RegionId, u64)> {
                self.region_sizes_impl()
            }
        }
    };
}

model_struct!(
    /// Dense voxel-grid model (DirectVoxGO-like).
    GridModel,
    DenseGrid,
    ModelKind::Grid
);
model_struct!(
    /// Multi-resolution hash model (Instant-NGP-like).
    HashModel,
    HashGrid,
    ModelKind::Hash
);
model_struct!(
    /// VM-factorized tensor model (TensoRF-like).
    TensorModel,
    VmTensor,
    ModelKind::Tensor
);

impl GridModel {
    fn region_sizes_impl(&self) -> Vec<(RegionId, u64)> {
        vec![(RegionId(0), self.encoding.storage_bytes())]
    }
}

impl HashModel {
    fn region_sizes_impl(&self) -> Vec<(RegionId, u64)> {
        (0..self.encoding.config().levels)
            .map(|l| (RegionId(l as u16), self.encoding.level_bytes(l)))
            .collect()
    }
}

impl TensorModel {
    fn region_sizes_impl(&self) -> Vec<(RegionId, u64)> {
        (0..6)
            .map(|r| (RegionId(r as u16), self.encoding.region_bytes(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bake;
    use crate::encoding::grid::GridConfig;
    use cicero_scene::library;

    #[test]
    fn kinds_have_paper_names() {
        assert_eq!(ModelKind::Grid.algorithm_name(), "DirectVoxGO");
        assert_eq!(ModelKind::Hash.algorithm_name(), "Instant-NGP");
        assert_eq!(ModelKind::Tensor.algorithm_name(), "TensoRF");
        assert_eq!(ModelKind::ALL.len(), 3);
    }

    #[test]
    fn grid_model_region_layout_is_single_region() {
        let scene = library::scene_by_name("mic").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 12,
                ..Default::default()
            },
        );
        let regions = model.region_sizes();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].1, model.memory_footprint_bytes());
    }

    #[test]
    fn model_source_respects_occupancy() {
        let scene = library::scene_by_name("mic").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 16,
                ..Default::default()
            },
        );
        let src = ModelSource(&model);
        // Far corner of the bounds: no geometry → zero density via occupancy.
        let corner = model.bounds().max - cicero_math::Vec3::splat(1e-3);
        assert_eq!(src.density_at(corner), 0.0);
    }

    /// What the batched renderer's plan elision rests on: a sample's gather
    /// plan adds the same entry reads and bytes to the stats wherever the
    /// sample is, so one plan per render tells both.
    #[test]
    fn plan_entry_reads_and_bytes_do_not_depend_on_the_position() {
        use crate::encoding::{hash::HashConfig, tensor::TensorConfig};
        let scene = library::scene_by_name("mic").unwrap();
        let hash = HashConfig {
            levels: 4,
            base_resolution: 4,
            max_resolution: 24,
            table_size_log2: 10,
            ..Default::default()
        };
        let models: [Box<dyn NerfModel>; 3] = [
            Box::new(bake::bake_grid(
                &scene,
                &GridConfig {
                    resolution: 12,
                    ..Default::default()
                },
            )),
            Box::new(bake::bake_hash(&scene, &hash)),
            Box::new(bake::bake_tensor(
                &scene,
                &TensorConfig {
                    resolution: 12,
                    ..Default::default()
                },
            )),
        ];
        for model in &models {
            let b = model.bounds();
            // Inside, on grid vertices (cell corners, faces, the two
            // extreme corners of the bounds) and outside.
            let vertex = |x: f32, y: f32, z: f32| b.min + b.size() * Vec3::new(x, y, z) / 12.0;
            let positions = [
                b.center(),
                b.min + b.size() * 0.317,
                vertex(0.0, 0.0, 0.0),
                vertex(12.0, 12.0, 12.0),
                vertex(3.0, 7.0, 11.0),
                vertex(12.0, 5.5, 0.0),
                b.max + b.size(),
                b.min - b.size() * 0.01,
            ];
            let mut plan = GatherPlan::default();
            let costs = positions.map(|p| {
                model.plan_into(p, &mut plan);
                (plan.entry_reads(), plan.bytes())
            });
            assert!(costs[0].0 > 0 && costs[0].1 > 0);
            assert_eq!(costs, [costs[0]; 8], "{:?}", model.kind());
        }
    }
}
