//! Baking: fitting encodings to analytic scenes without gradient descent.
//!
//! The paper evaluates *inference* of offline-trained models. We substitute
//! training with deterministic baking from the analytic scene (DESIGN.md §3):
//!
//! - **grid** — direct vertex assignment (exact up to trilinear resolution),
//! - **hash** — coarse-to-fine *residual* scatter-averaging: each level stores
//!   the residual of the reconstruction through the previous levels; hash
//!   collisions average, producing the same kind of finite reconstruction
//!   error a trained Instant-NGP exhibits,
//! - **tensor** — greedy rank-1 deflation with power iterations (a few ALS
//!   sweeps), the deterministic analogue of TensoRF's factor optimization.
//!
//! Every baked vertex stores the seven decoder signals
//! `[σ_raw, c_r, c_g, c_b, q_x, q_y, q_z]` (see [`crate::Decoder`]).

use crate::decoder::{inverse_softplus, Decoder, SpecularHead, SIGNALS};
use crate::encoding::grid::{DenseGrid, GridConfig};
use crate::encoding::hash::{HashConfig, HashGrid};
use crate::encoding::tensor::{TensorConfig, VmTensor, ORIENTATIONS};
use crate::model::{GridModel, HashModel, ModelKind, TensorModel};
use crate::occupancy::{Lattice, OccupancyGrid};
use cicero_math::Vec3;
use cicero_scene::{AnalyticScene, RadianceSource};

/// Options shared by all bakers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BakeOptions {
    /// Occupancy grid resolution per axis.
    pub occupancy_resolution: usize,
    /// Decoder MLP hidden width.
    pub decoder_hidden: usize,
    /// Power-iteration sweeps per rank-1 tensor component.
    pub tensor_power_iters: usize,
}

impl Default for BakeOptions {
    fn default() -> Self {
        BakeOptions {
            occupancy_resolution: 48,
            decoder_hidden: 64,
            tensor_power_iters: 2,
        }
    }
}

/// Evaluates the seven decoder signals of `scene` at `p`.
///
/// `model_shininess` is the single Phong exponent the baked decoder will use;
/// material lobes with other exponents are re-folded toward it (their
/// mismatch becomes reconstruction error, standing in for training residual).
pub fn signals_at(scene: &AnalyticScene, p: Vec3, model_shininess: f32) -> [f32; SIGNALS] {
    let mut s = [0.0_f32; SIGNALS];
    let near = scene.nearest(p);
    s[0] = inverse_softplus(near.density());
    // Radiance signals only matter where interpolation can reach matter.
    if near.distance < scene.shell_width * 2.0 {
        let (c, lobe) = near.surface();
        s[1] = c.x;
        s[2] = c.y;
        s[3] = c.z;
        if let Some((q, m_mat)) = lobe {
            // q = refl · (spec·I)^(1/m_mat); re-fold for the model exponent.
            let strength = q.length().powf(m_mat);
            let q_model = q.normalized() * strength.powf(1.0 / model_shininess);
            s[4] = q_model.x;
            s[5] = q_model.y;
            s[6] = q_model.z;
        }
    }
    s
}

fn specular_head(scene: &AnalyticScene) -> Option<SpecularHead> {
    scene.has_specular().then(|| SpecularHead {
        shininess: scene.dominant_shininess(),
    })
}

fn bake_occupancy(scene: &AnalyticScene, res: usize) -> OccupancyGrid {
    // The signed distance is the density's clearance (the union SDF is
    // 1-Lipschitz and the shell's ramp is exactly zero outside it).
    OccupancyGrid::from_density(
        RadianceSource::bounds(scene),
        res,
        |p| {
            let near = scene.nearest(p);
            (near.density(), near.distance)
        },
        1e-2,
    )
}

/// Bakes a dense-grid (DirectVoxGO-like) model with default options.
pub fn bake_grid(scene: &AnalyticScene, cfg: &GridConfig) -> GridModel {
    bake_grid_with(scene, cfg, &BakeOptions::default())
}

/// Bakes a dense-grid model.
pub fn bake_grid_with(scene: &AnalyticScene, cfg: &GridConfig, opts: &BakeOptions) -> GridModel {
    let bounds = RadianceSource::bounds(scene);
    let shin = scene.dominant_shininess();
    let mut grid = DenseGrid::new(*cfg, bounds);
    let n = grid.verts_per_axis() as u32;
    let mut feats = vec![0.0_f32; cfg.channels];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let p = grid.vertex_position(x, y, z);
                let s = signals_at(scene, p, shin);
                feats[..SIGNALS].copy_from_slice(&s);
                grid.set_vertex(x, y, z, &feats);
            }
        }
    }
    let mut occupancy = bake_occupancy(scene, opts.occupancy_resolution);
    occupancy.tighten(Lattice::Grid(cfg.resolution as u32), |x, y, z| {
        grid.vertex(x as u32, y as u32, z as u32)[0]
    });
    GridModel {
        encoding: grid,
        decoder: Decoder::new(cfg.channels, opts.decoder_hidden, specular_head(scene)),
        occupancy,
        background: scene.background(),
        scene_name: scene.name.clone(),
    }
}

/// Bakes a hash-encoded (Instant-NGP-like) model with default options.
pub fn bake_hash(scene: &AnalyticScene, cfg: &HashConfig) -> HashModel {
    bake_hash_with(scene, cfg, &BakeOptions::default())
}

/// Bakes a hash-encoded model (coarse-to-fine residual scatter-averaging).
pub fn bake_hash_with(scene: &AnalyticScene, cfg: &HashConfig, opts: &BakeOptions) -> HashModel {
    let bounds = RadianceSource::bounds(scene);
    let occupancy = bake_occupancy(scene, opts.occupancy_resolution);
    let mut grid = HashGrid::new(*cfg, bounds);
    fit_hash_levels(scene, &occupancy, &mut grid, RECONSTRUCT_BATCH);
    let f = cfg.features_per_entry;

    // Decode matrix: signal i sums slot i of every level (residual scheme).
    let in_dim = cfg.levels * f;
    let rows: Vec<Vec<f32>> = (0..SIGNALS)
        .map(|i| {
            let mut row = vec![0.0; in_dim];
            for level in 0..cfg.levels {
                row[level * f + i] = 1.0;
            }
            row
        })
        .collect();
    HashModel {
        encoding: grid,
        decoder: Decoder::with_matrix(in_dim, opts.decoder_hidden, &rows, specular_head(scene)),
        occupancy,
        background: scene.background(),
        scene_name: scene.name.clone(),
    }
}

/// Vertices of a hash level whose reconstruction through the coarser levels
/// one block gather computes.
const RECONSTRUCT_BATCH: usize = 256;

/// Fits every level of `grid`, coarse first: each entry stores the
/// average of the residuals [`level_residuals`] scattered into it.
fn fit_hash_levels(
    scene: &AnalyticScene,
    occupancy: &OccupancyGrid,
    grid: &mut HashGrid,
    batch: usize,
) {
    for level in 0..grid.config().levels {
        let (mut sums, counts) = level_residuals(scene, occupancy, grid, level, batch);
        store_level(grid, level, &mut sums, &counts);
    }
}

/// Per entry of `level`, the sum of what its visited vertices scatter
/// into it — their target signals minus their reconstruction through the
/// levels before it — and how many did.
///
/// The reconstructions run `batch` vertices at a time through
/// [`HashGrid::interpolate_levels_block_into`], then each vertex's levels
/// are summed in order and scattered in visiting order: per vertex the
/// arithmetic of `HashGrid::reconstruct_signals` (the test oracle) and
/// the same update order of the sums, so every batch size gives the same
/// bits.
fn level_residuals(
    scene: &AnalyticScene,
    occupancy: &OccupancyGrid,
    grid: &HashGrid,
    level: usize,
    batch: usize,
) -> (Vec<f32>, Vec<u32>) {
    let shin = scene.dominant_shininess();
    let f = grid.config().features_per_entry;
    let table_len = grid.levels()[level].table_len;
    let (mut sums, mut counts) = (vec![0.0_f32; table_len * f], vec![0u32; table_len]);
    let mut queue: Vec<[u32; 3]> = Vec::with_capacity(batch);
    let mut ps = Vec::with_capacity(batch);
    let mut recon = vec![0.0_f32; level * f * batch];
    let mut flush = |queue: &mut Vec<[u32; 3]>| {
        ps.clear();
        ps.extend(
            queue
                .iter()
                .map(|&[x, y, z]| grid.vertex_position(level, x, y, z)),
        );
        grid.interpolate_levels_block_into(level, &ps, &mut recon, batch);
        for (s, &[x, y, z]) in queue.iter().enumerate() {
            let target = signals_at(scene, ps[s], shin);
            let mut signals = [0.0_f32; SIGNALS];
            for l in 0..level {
                for (i, v) in signals.iter_mut().enumerate() {
                    *v += recon[(l * f + i) * batch + s];
                }
            }
            let e = grid.entry_index(level, x, y, z) as usize;
            for i in 0..SIGNALS {
                sums[e * f + i] += target[i] - signals[i];
            }
            counts[e] += 1;
        }
        queue.clear();
    };
    level_vertices(grid, level, occupancy, |vertex| {
        queue.push(vertex);
        if queue.len() == batch {
            flush(&mut queue);
        }
    });
    flush(&mut queue);
    (sums, counts)
}

/// The vertices a hash level is fitted at, in visiting order. Coarse
/// levels: every vertex (cheap, and empty space must carry its negative
/// density raw value). Fine levels: only vertices near occupied space —
/// hashed entries never see empty-space noise.
fn level_vertices(
    grid: &HashGrid,
    level: usize,
    occupancy: &OccupancyGrid,
    mut visit: impl FnMut([u32; 3]),
) {
    let res = grid.levels()[level].resolution;
    let verts = res + 1;
    let dense_visit_cap = 200_000;
    if verts * verts * verts <= dense_visit_cap {
        for z in 0..verts as u32 {
            for y in 0..verts as u32 {
                for x in 0..verts as u32 {
                    visit([x, y, z]);
                }
            }
        }
        return;
    }
    let mut visited = vec![false; verts * verts * verts];
    let occ_res = occupancy.resolution();
    let scale = res as f32 / occ_res as f32;
    for oz in 0..occ_res {
        for oy in 0..occ_res {
            for ox in 0..occ_res {
                if !occupancy.cell(ox as isize, oy as isize, oz as isize) {
                    continue;
                }
                let lo = |c: usize| ((c as f32 * scale).floor() as usize).min(res);
                let hi = |c: usize| (((c + 1) as f32 * scale).ceil() as usize + 1).min(verts);
                for z in lo(oz)..hi(oz) {
                    for y in lo(oy)..hi(oy) {
                        for x in lo(ox)..hi(ox) {
                            let vi = (z * verts + y) * verts + x;
                            if !visited[vi] {
                                visited[vi] = true;
                                visit([x as u32, y as u32, z as u32]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Writes each entry of `level` that a vertex reached: the average of the
/// residuals scattered into it, rounded to a half as the entry stores it,
/// so the finer levels fit their residuals against the stored values.
fn store_level(grid: &mut HashGrid, level: usize, sums: &mut [f32], counts: &[u32]) {
    let f = grid.config().features_per_entry;
    for (e, (&count, average)) in counts.iter().zip(sums.chunks_exact_mut(f)).enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f32;
            for v in average.iter_mut() {
                *v *= inv;
            }
            grid.set_entry(level, e as u64, average);
        }
    }
}

/// Bakes a VM-tensor (TensoRF-like) model with default options.
pub fn bake_tensor(scene: &AnalyticScene, cfg: &TensorConfig) -> TensorModel {
    bake_tensor_with(scene, cfg, &BakeOptions::default())
}

/// Bakes a VM-tensor model via greedy rank-1 deflation.
pub fn bake_tensor_with(
    scene: &AnalyticScene,
    cfg: &TensorConfig,
    opts: &BakeOptions,
) -> TensorModel {
    let bounds = RadianceSource::bounds(scene);
    let shin = scene.dominant_shininess();
    let res = cfg.resolution;
    let k = cfg.components_per_signal;
    let mut tensor = VmTensor::new(*cfg, bounds);
    let ch = tensor.channels();

    // Texel-aligned sample positions (matches runtime interpolation).
    let coord = |i: usize| i as f32 / (res - 1) as f32;
    let pos = |x: usize, y: usize, z: usize| {
        bounds.min
            + Vec3::new(
                bounds.size().x * coord(x),
                bounds.size().y * coord(y),
                bounds.size().z * coord(z),
            )
    };

    for signal in 0..SIGNALS {
        // Residual volume for this signal.
        let mut t = vec![0.0_f32; res * res * res];
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    t[(z * res + y) * res + x] = signals_at(scene, pos(x, y, z), shin)[signal];
                }
            }
        }
        let idx3 = |x: usize, y: usize, z: usize| (z * res + y) * res + x;
        for (oi, o) in ORIENTATIONS.iter().enumerate() {
            // (a, b, w) → (x, y, z) mapping for this orientation.
            let map = |a: usize, b: usize, w: usize| match o {
                crate::encoding::tensor::Orientation::XyZ => idx3(a, b, w),
                crate::encoding::tensor::Orientation::XzY => idx3(a, w, b),
                crate::encoding::tensor::Orientation::YzX => idx3(w, a, b),
            };
            for comp in 0..k {
                let mut line = vec![1.0_f32; res];
                let mut plane = vec![0.0_f32; res * res];
                for _ in 0..opts.tensor_power_iters.max(1) {
                    // Plane update: P(a,b) = Σ_w R L(w) / Σ L².
                    let l2: f32 = line.iter().map(|v| v * v).sum();
                    if l2 < 1e-12 {
                        break;
                    }
                    for b in 0..res {
                        for a in 0..res {
                            let mut acc = 0.0;
                            for (w, lv) in line.iter().enumerate() {
                                acc += t[map(a, b, w)] * lv;
                            }
                            plane[b * res + a] = acc / l2;
                        }
                    }
                    // Line update: L(w) = Σ_ab R P(a,b) / Σ P².
                    let p2: f32 = plane.iter().map(|v| v * v).sum();
                    if p2 < 1e-12 {
                        break;
                    }
                    for (w, lv) in line.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for b in 0..res {
                            for a in 0..res {
                                acc += t[map(a, b, w)] * plane[b * res + a];
                            }
                        }
                        *lv = acc / p2;
                    }
                }
                // Deflate and store.
                for (w, lv) in line.iter().enumerate() {
                    for b in 0..res {
                        for a in 0..res {
                            t[map(a, b, w)] -= plane[b * res + a] * lv;
                        }
                    }
                }
                let c = signal * k + comp;
                for b in 0..res {
                    for a in 0..res {
                        tensor.plane_mut(oi)[(b * res + a) * ch + c] = plane[b * res + a];
                    }
                }
                for (w, lv) in line.iter().enumerate() {
                    tensor.line_mut(oi)[w * ch + c] = *lv;
                }
            }
        }
    }

    let mut occupancy = bake_occupancy(scene, opts.occupancy_resolution);
    occupancy.tighten(Lattice::Tensor(res), |x, y, z| {
        tensor.vertex_density_raw([x, y, z])
    });
    TensorModel {
        encoding: tensor,
        decoder: Decoder::new(SIGNALS, opts.decoder_hidden, specular_head(scene)),
        occupancy,
        background: scene.background(),
        scene_name: scene.name.clone(),
    }
}

/// Bakes a model of the given kind at a resolution scale suitable for
/// experiments (`scale` ≈ cells per axis for grid-like encodings).
pub fn bake_by_kind(scene: &AnalyticScene, kind: ModelKind, scale: usize) -> Box<dyn NerfModelBox> {
    match kind {
        ModelKind::Grid => Box::new(bake_grid(
            scene,
            &GridConfig {
                resolution: scale,
                ..Default::default()
            },
        )),
        ModelKind::Hash => Box::new(bake_hash(
            scene,
            &HashConfig {
                max_resolution: scale,
                ..Default::default()
            },
        )),
        ModelKind::Tensor => Box::new(bake_tensor(
            scene,
            &TensorConfig {
                resolution: scale.max(8),
                ..Default::default()
            },
        )),
    }
}

/// Object-safe alias used by `bake_by_kind`.
pub trait NerfModelBox: crate::model::NerfModel + Send + Sync {}
impl<T: crate::model::NerfModel + Send + Sync> NerfModelBox for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NerfModel;
    use cicero_scene::library;

    fn scene() -> AnalyticScene {
        library::scene_by_name("mic").unwrap()
    }

    #[test]
    fn grid_bake_reproduces_density_inside_object() {
        let s = scene();
        let model = bake_grid(
            &s,
            &GridConfig {
                resolution: 32,
                ..Default::default()
            },
        );
        // Head of the mic: sphere at (0, 0.55, 0), radius 0.28.
        let p = Vec3::new(0.0, 0.55, 0.0);
        let (sigma, _) = model.query(p, Vec3::Z);
        let truth = s.density_at(p);
        assert!(
            (sigma - truth).abs() / truth.max(1.0) < 0.25,
            "sigma {sigma} vs truth {truth}"
        );
    }

    #[test]
    fn grid_bake_zero_density_in_empty_space() {
        let s = scene();
        let model = bake_grid(
            &s,
            &GridConfig {
                resolution: 32,
                ..Default::default()
            },
        );
        let p = model.bounds().max - Vec3::splat(1e-2);
        let (sigma, _) = model.query(p, Vec3::Z);
        assert!(sigma < 0.1, "ghost density {sigma}");
    }

    #[test]
    fn grid_bake_colors_match_truth_near_surface() {
        let s = scene();
        let model = bake_grid(
            &s,
            &GridConfig {
                resolution: 48,
                ..Default::default()
            },
        );
        // Just inside the mic head surface.
        let p = Vec3::new(0.0, 0.55 + 0.22, 0.0);
        let (_, rgb) = model.query(p, Vec3::new(0.0, -1.0, 0.0));
        let truth = s.radiance_at(p, Vec3::new(0.0, -1.0, 0.0));
        assert!(
            (rgb - truth).length() < 0.35,
            "rgb {rgb} vs {truth} (discretized reconstruction)"
        );
    }

    #[test]
    fn hash_bake_converges_with_levels() {
        let s = scene();
        let cfg = HashConfig {
            levels: 4,
            base_resolution: 8,
            max_resolution: 48,
            table_size_log2: 14,
            ..Default::default()
        };
        let model = bake_hash(&s, &cfg);
        let p = Vec3::new(0.0, 0.55, 0.0);
        let (sigma, _) = model.query(p, Vec3::Z);
        let truth = s.density_at(p);
        assert!(
            (sigma - truth).abs() / truth.max(1.0) < 0.5,
            "sigma {sigma} vs {truth}"
        );
    }

    /// [`level_residuals`] with each vertex reconstructed on its own by
    /// `reconstruct_signals`: its oracle.
    fn level_residuals_per_vertex(
        scene: &AnalyticScene,
        occupancy: &OccupancyGrid,
        grid: &HashGrid,
        level: usize,
    ) -> (Vec<f32>, Vec<u32>) {
        let shin = scene.dominant_shininess();
        let f = grid.config().features_per_entry;
        let table_len = grid.levels()[level].table_len;
        let (mut sums, mut counts) = (vec![0.0_f32; table_len * f], vec![0u32; table_len]);
        level_vertices(grid, level, occupancy, |[x, y, z]| {
            let p = grid.vertex_position(level, x, y, z);
            let target = signals_at(scene, p, shin);
            let recon = grid.reconstruct_signals(p, level);
            let e = grid.entry_index(level, x, y, z) as usize;
            for i in 0..SIGNALS {
                sums[e * f + i] += target[i] - recon[i];
            }
            counts[e] += 1;
        });
        (sums, counts)
    }

    /// Every stored half of every level.
    fn table_bits(grid: &HashGrid) -> Vec<u16> {
        grid.levels()
            .iter()
            .flat_map(|l| l.data.iter().copied())
            .collect()
    }

    #[test]
    fn batched_bake_reconstruction_is_the_per_vertex_one() {
        // Over a 2¹⁰ table: level 0 (9³ vertices) dense, levels 1–3 hashed;
        // level 3 (65³ vertices) visits only those near occupied space and
        // sums three coarser levels, where the order of the sum shows.
        let s = scene();
        let cfg = HashConfig {
            levels: 4,
            base_resolution: 8,
            max_resolution: 64,
            table_size_log2: 10,
            ..Default::default()
        };
        let bounds = RadianceSource::bounds(&s);
        let occupancy = bake_occupancy(&s, 24);
        let mut oracle = HashGrid::new(cfg, bounds);
        assert!(oracle.levels()[0].dense && !oracle.levels()[1].dense);
        // The residuals, f32 sums before any rounding, level by level.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for level in 0..cfg.levels {
            let (mut want, counts) = level_residuals_per_vertex(&s, &occupancy, &oracle, level);
            assert!(
                want.iter().any(|&v| v != 0.0),
                "level {level}: nothing fitted"
            );
            for batch in [1, 16, RECONSTRUCT_BATCH] {
                let (got, got_counts) = level_residuals(&s, &occupancy, &oracle, level, batch);
                assert_eq!(got_counts, counts, "level {level}, batch {batch}");
                assert!(bits(&got) == bits(&want), "level {level}, batch {batch}");
            }
            store_level(&mut oracle, level, &mut want, &counts);
        }
        // And the whole bake stores the same tables at every batch size.
        for batch in [1, 16, RECONSTRUCT_BATCH] {
            let mut grid = HashGrid::new(cfg, bounds);
            fit_hash_levels(&s, &occupancy, &mut grid, batch);
            assert!(table_bits(&grid) == table_bits(&oracle), "batch {batch}");
        }
    }

    /// Bakes `name` with `HashConfig::default()` and asserts no stored half
    /// is ±∞ or NaN: a residual past 65 504 would round to ∞ and a NaN
    /// signal would stay NaN, and either poisons every sample that reads
    /// the entry.
    fn assert_finite_halves(name: &str) {
        let s = library::scene_by_name(name).unwrap();
        let model = bake_hash(&s, &HashConfig::default());
        for (li, l) in model.encoding.levels().iter().enumerate() {
            let bad = l.data.iter().position(|&h| h & 0x7c00 == 0x7c00);
            assert_eq!(bad, None, "{name}, level {li}: a non-finite half");
        }
    }

    /// The benchmark's scene; its twin below bakes every library scene.
    #[test]
    fn baked_hash_tables_store_finite_halves() {
        assert_finite_halves("lego");
    }

    #[test]
    #[ignore = "slow unoptimized: CI runs it in the release-mode oracle step"]
    fn baked_hash_tables_store_finite_halves_every_scene() {
        for name in library::SYNTHETIC_SCENES
            .iter()
            .chain(&library::REAL_WORLD_SCENES)
        {
            assert_finite_halves(name);
        }
    }

    #[test]
    fn tensor_bake_recovers_bulk_density() {
        let s = scene();
        let model = bake_tensor(
            &s,
            &TensorConfig {
                resolution: 48,
                components_per_signal: 4,
                bytes_per_value: 2,
            },
        );
        let p = Vec3::new(0.0, 0.55, 0.0);
        let (sigma, _) = model.query(p, Vec3::Z);
        let truth = s.density_at(p);
        // Factorized encodings are the loosest approximation; demand sign and
        // order of magnitude.
        assert!(sigma > truth * 0.2, "sigma {sigma} vs {truth}");
    }

    #[test]
    fn specular_scene_gets_specular_decoder() {
        let s = library::scene_by_name("materials").unwrap();
        let model = bake_grid(
            &s,
            &GridConfig {
                resolution: 16,
                ..Default::default()
            },
        );
        assert!(model.decoder.specular().is_some());
        let diffuse = bake_grid(
            &scene(),
            &GridConfig {
                resolution: 16,
                ..Default::default()
            },
        );
        // `mic` has specular metal → also specular; use `lego` for diffuse.
        let lego = library::scene_by_name("lego").unwrap();
        let lego_model = bake_grid(
            &lego,
            &GridConfig {
                resolution: 16,
                ..Default::default()
            },
        );
        assert!(lego_model.decoder.specular().is_none());
        drop(diffuse);
    }

    #[test]
    fn bake_by_kind_produces_all_kinds() {
        let s = library::scene_by_name("lego").unwrap();
        for kind in ModelKind::ALL {
            let m = bake_by_kind(&s, kind, 16);
            assert_eq!(m.kind(), kind);
            assert!(m.memory_footprint_bytes() > 0);
        }
    }
}
