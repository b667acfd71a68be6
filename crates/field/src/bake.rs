//! Baking: fitting encodings to analytic scenes without gradient descent.
//!
//! The paper evaluates *inference* of offline-trained models. We substitute
//! training with deterministic baking from the analytic scene (DESIGN.md §3):
//!
//! - **grid** — direct vertex assignment (exact up to trilinear resolution),
//! - **hash** — coarse-to-fine *residual* scatter-averaging: each level stores
//!   the residual of the reconstruction through the previous levels; hash
//!   collisions average, producing the same kind of finite reconstruction
//!   error a trained Instant-NGP exhibits; then the model's own density
//!   support is *sampled*, as Instant-NGP's density grid is: a cell of a
//!   lattice at half the finest resolution stays occupied iff one of its
//!   eight interior sub-samples reads σ_raw above `RAW_EMPTY` (a sample,
//!   not a proof like the grid's and tensor's masks, so frames move a
//!   little against the unmasked model; see `OccupancyGrid::tighten_sampled`),
//! - **tensor** — greedy rank-1 deflation with power iterations (a few ALS
//!   sweeps), the deterministic analogue of TensoRF's factor optimization.
//!   One sweep classifies each texel (a bit: are all seven signals the
//!   empty-space constants?), each signal is then evaluated only where it
//!   can vary, and the power iterations sweep the residual volume in memory
//!   order; none of it moves a bit against the textbook loops, which the
//!   tests keep as the oracle (see [`bake_tensor_with`]).
//!
//! Every baked vertex stores the seven decoder signals
//! `[σ_raw, c_r, c_g, c_b, q_x, q_y, q_z]` (see [`crate::Decoder`]).

use crate::decoder::{inverse_softplus, Decoder, SpecularHead, SIGNALS};
use crate::encoding::grid::{DenseGrid, GridConfig};
use crate::encoding::hash::{HashConfig, HashGrid};
use crate::encoding::tensor::{Orientation, TensorConfig, VmTensor, ORIENTATIONS};
use crate::model::{GridModel, HashModel, ModelKind, TensorModel};
use crate::occupancy::{Lattice, OccupancyGrid};
use crate::simd::{round_to_half, widen_half};
use cicero_math::Vec3;
use cicero_scene::{AnalyticScene, Nearest, RadianceSource};

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
    signals_of(scene, &scene.nearest(p), model_shininess)
}

/// [`signals_at`] from the scene's [`Nearest`] at the point.
fn signals_of(scene: &AnalyticScene, near: &Nearest, model_shininess: f32) -> [f32; SIGNALS] {
    let mut s = [0.0_f32; SIGNALS];
    s[0] = inverse_softplus(near.density());
    if radiance_reaches(scene, near.distance) {
        let (c, lobe) = near.surface();
        s[1] = c.x;
        s[2] = c.y;
        s[3] = c.z;
        if let Some((q, m_mat)) = lobe {
            let q_model = refold_lobe(q, m_mat, model_shininess);
            s[4] = q_model.x;
            s[5] = q_model.y;
            s[6] = q_model.z;
        }
    }
    s
}

/// `signals_of(scene, near, model_shininess)[i]`, bit for bit, computing
/// only what signal `i` reads: σ_raw shades nothing, and the radiance
/// signals are zero beyond radiance reach.
fn signal_of(scene: &AnalyticScene, near: &Nearest, model_shininess: f32, i: usize) -> f32 {
    if i == 0 {
        return inverse_softplus(near.density());
    }
    if !radiance_reaches(scene, near.distance) {
        return 0.0;
    }
    let (c, lobe) = near.surface();
    match i {
        1..=3 => c[i - 1],
        _ => lobe.map_or(0.0, |(q, m_mat)| {
            refold_lobe(q, m_mat, model_shininess)[i - 4]
        }),
    }
}

/// Calls `visit(i, near)` for each `i` of `indices`, in order, with `near`
/// the scene at `pos(i)`: [`AnalyticScene::nearest`], queried eight points
/// at a time through [`AnalyticScene::nearest8`].
fn for_each_nearest<'s>(
    scene: &'s AnalyticScene,
    indices: impl IntoIterator<Item = usize>,
    pos: impl Fn(usize) -> Vec3,
    mut visit: impl FnMut(usize, &Nearest<'s>),
) {
    let (mut idx, mut pts, mut n) = ([0_usize; 8], [Vec3::ZERO; 8], 0);
    for i in indices {
        (idx[n], pts[n]) = (i, pos(i));
        n += 1;
        if n == 8 {
            for (&i, near) in idx.iter().zip(&scene.nearest8(&pts)) {
                visit(i, near);
            }
            n = 0;
        }
    }
    // The lanes past `n` still hold earlier points; their answers are
    // dropped.
    for (&i, near) in idx[..n].iter().zip(&scene.nearest8(&pts)) {
        visit(i, near);
    }
}

/// Whether a point at union distance `distance` stores radiance signals:
/// they only matter where interpolation can reach matter (a NaN distance
/// does not).
fn radiance_reaches(scene: &AnalyticScene, distance: f32) -> bool {
    distance < scene.shell_width * 2.0
}

/// A lobe `q = refl · (spec·I)^(1/m_mat)` re-folded for the model exponent.
fn refold_lobe(q: Vec3, m_mat: f32, model_shininess: f32) -> Vec3 {
    let strength = q.length().powf(m_mat);
    q.normalized() * strength.powf(1.0 / model_shininess)
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
            scene
                .nearest8(p)
                .map(|near| (near.density(), near.distance))
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
    let mut row = Vec::with_capacity(n as usize);
    for z in 0..n {
        for y in 0..n {
            row.clear();
            row.extend((0..n).map(|x| grid.vertex_position(x, y, z)));
            for_each_nearest(
                scene,
                0..n as usize,
                |x| row[x],
                |x, near| {
                    feats[..SIGNALS].copy_from_slice(&signals_of(scene, near, shin));
                    grid.set_vertex(x as u32, y, z, &feats);
                },
            );
        }
    }
    let mut occupancy = bake_occupancy(scene, opts.occupancy_resolution);
    occupancy.tighten(Lattice::Grid(cfg.resolution as u32), |x, y, z| {
        grid.vertex_density_raw([x, y, z].map(|v| v as u32))
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
    let mut occupancy = bake_occupancy(scene, opts.occupancy_resolution);
    let mut grid = HashGrid::new(*cfg, bounds);
    fit_hash_levels(scene, &occupancy, &mut grid, RECONSTRUCT_BATCH);
    let f = cfg.features_per_entry;
    occupancy.tighten_sampled(hash_support_cells(cfg), |feats, ps, raw| {
        sigma_raw_block(&grid, ps, feats, raw)
    });

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

/// Cells per axis of a hash model's sampled support
/// ([`OccupancyGrid::tighten_sampled`]): half the finest level's, so a cell
/// spans two of its cells and each sub-sample sits in a cell of its own
/// (128 at the default configuration), up to [`MAX_SUPPORT_CELLS`].
fn hash_support_cells(cfg: &HashConfig) -> usize {
    (cfg.max_resolution / 2).clamp(1, MAX_SUPPORT_CELLS)
}

/// The finest sampled support a hash model gets: its mask is one bit a
/// cell, 16 MiB at 512³, while [`HashConfig::check`] lets the finest level
/// reach 2²⁴ cells per axis, where a lattice of half that needs 2⁶⁹ bits.
const MAX_SUPPORT_CELLS: usize = 512;

/// The raw density (decoder signal 0) of `grid` at each of `ps`, into
/// `out`: one block gather into `feats`, then slot 0 summed over the
/// levels in level order — the first row of the decode matrix
/// [`bake_hash_with`] builds, which the decoder's MLP passes through bit
/// for bit.
fn sigma_raw_block(grid: &HashGrid, ps: &[Vec3], feats: &mut Vec<f32>, out: &mut [f32]) {
    let (f, stride) = (grid.config().features_per_entry, ps.len());
    feats.resize(grid.config().levels * f * stride, 0.0);
    grid.interpolate_block_into(ps, feats, stride);
    for (s, raw) in out[..stride].iter_mut().enumerate() {
        *raw = feats
            .chunks_exact(f * stride)
            .map(|level| level[s])
            .fold(0.0, |a, v| a + v);
    }
}

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
    let mut targets = Vec::with_capacity(batch);
    let mut flush = |queue: &mut Vec<[u32; 3]>| {
        ps.clear();
        ps.extend(
            queue
                .iter()
                .map(|&[x, y, z]| grid.vertex_position(level, x, y, z)),
        );
        grid.interpolate_levels_block_into(level, &ps, &mut recon, batch);
        targets.clear();
        for_each_nearest(
            scene,
            0..ps.len(),
            |s| ps[s],
            |_, near| {
                targets.push(signals_of(scene, near, shin));
            },
        );
        for (s, &[x, y, z]) in queue.iter().enumerate() {
            let target = targets[s];
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
///
/// Signal by signal, the texel lattice's residual volume is factored one
/// rank-1 component at a time (per orientation, per component): power
/// iterations alternate the plane `P(a,b) = Σ_w R·L(w) / Σ L²` and the line
/// `L(w) = Σ_ab R·P(a,b) / Σ P²` from a line of ones, then `P ⊗ L` with
/// `P` and `L` rounded to the halves the tensor stores is subtracted from
/// the residual: later components fit what the earlier ones stored, as
/// finer hash levels fit their residuals against the rounded coarser ones.
///
/// The bake pays about one scene query per texel and signal where the
/// signal can vary, and none where it cannot:
///
/// - one classifying sweep fills σ_raw and marks, one bit a texel, where
///   all seven signals are the empty-space constants `[σ_raw(0), 0, …, 0]`
///   (no density and no radiance within reach);
/// - the radiance signals are zero at a marked texel, `signal_of` —
///   which computes only what its signal reads — elsewhere, and the three
///   lobe signals of a scene without a specular material are zero
///   everywhere, without a query;
/// - both sweeps query the scene eight texels at a time
///   ([`AnalyticScene::nearest8`]);
/// - the plane update, the line update and the deflation each sweep the
///   volume once in memory order, `(z, y, x)`, into per-cell and per-line
///   accumulators.
///
/// None of this moves a bit of the planes and lines: every signal value
/// is the one [`signals_at`] gives, and each accumulator receives its terms
/// in the order the textbook loops above take them (ascending `w` for a
/// plane cell, ascending `(b, a)` for a line cell), and Rust never fuses a
/// multiply into an add.
pub fn bake_tensor_with(
    scene: &AnalyticScene,
    cfg: &TensorConfig,
    opts: &BakeOptions,
) -> TensorModel {
    let mut tensor = VmTensor::new(*cfg, RadianceSource::bounds(scene));
    fit_tensor(scene, &mut tensor, opts.tensor_power_iters);
    let mut occupancy = bake_occupancy(scene, opts.occupancy_resolution);
    occupancy.tighten(Lattice::Tensor(cfg.resolution), |x, y, z| {
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

/// Fits every plane and line of `tensor` to `scene`'s signals at its texels
/// (see [`bake_tensor_with`]); the residual volume is gone when it returns.
fn fit_tensor(scene: &AnalyticScene, tensor: &mut VmTensor, iters: usize) {
    let bounds = tensor.bounds();
    let shin = scene.dominant_shininess();
    let cfg = *tensor.config();
    let (res, k) = (cfg.resolution, cfg.components_per_signal);

    // Texel-aligned sample positions (matches runtime interpolation).
    let coord = |i: usize| i as f32 / (res - 1) as f32;
    let pos = |i: usize| {
        let (x, y, z) = (i % res, i / res % res, i / (res * res));
        bounds.min
            + Vec3::new(
                bounds.size().x * coord(x),
                bounds.size().y * coord(y),
                bounds.size().z * coord(z),
            )
    };

    // The classifying sweep, which is also signal 0's: σ_raw into the
    // residual volume, and a bit where all seven signals are
    // `[empty_raw, 0, …, 0]` — no density and beyond radiance reach (a NaN
    // distance or density stays unmarked, and is evaluated).
    let empty_raw = inverse_softplus(0.0);
    let mut t = vec![0.0_f32; res * res * res];
    let mut empty = vec![0_u64; t.len().div_ceil(64)];
    for_each_nearest(scene, 0..t.len(), pos, |i, near| {
        t[i] = inverse_softplus(near.density());
        if t[i] == empty_raw && !radiance_reaches(scene, near.distance) {
            empty[i / 64] |= 1 << (i % 64);
        }
    });
    let lobe_free = !scene.has_specular();

    let mut plane = vec![0.0_f32; res * res];
    let mut line = vec![0.0_f32; res];
    for signal in 0..SIGNALS {
        // Residual volume for this signal; the radiance signals are zero
        // wherever the texel is empty.
        match signal {
            0 => {}
            4.. if lobe_free => t.fill(0.0),
            _ => {
                t.fill(0.0);
                let filled = (0..t.len()).filter(|&i| empty[i / 64] >> (i % 64) & 1 == 0);
                for_each_nearest(scene, filled, pos, |i, near| {
                    t[i] = signal_of(scene, near, shin, signal);
                });
            }
        }
        for (oi, &o) in ORIENTATIONS.iter().enumerate() {
            for comp in 0..k {
                fit_rank1(&mut t, o, iters, &mut plane, &mut line);
                tensor.set_component(oi, signal * k + comp, &plane, &line);
            }
        }
    }
}

/// Fits one rank-1 component of the residual `t` (`res³`, x fastest) in
/// orientation `o` — `plane` over its cells `b·res + a`, `line` over `w` —
/// by at most `iters` power iterations from a line of ones, rounds both to
/// the values their halves hold, and deflates that out of `t`.
fn fit_rank1(t: &mut [f32], o: Orientation, iters: usize, plane: &mut [f32], line: &mut [f32]) {
    line.fill(1.0);
    plane.fill(0.0);
    for _ in 0..iters.max(1) {
        let l2: f32 = line.iter().map(|v| v * v).sum();
        if l2 < 1e-12 {
            break;
        }
        plane.fill(0.0);
        plane_sums(t, o, line, plane);
        for p in plane.iter_mut() {
            *p /= l2;
        }
        let p2: f32 = plane.iter().map(|v| v * v).sum();
        if p2 < 1e-12 {
            break;
        }
        line.fill(0.0);
        line_sums(t, o, plane, line);
        for l in line.iter_mut() {
            *l /= p2;
        }
    }
    for v in plane.iter_mut().chain(line.iter_mut()) {
        *v = widen_half(round_to_half(*v));
    }
    deflate(t, o, plane, line);
}

/// `acc[b·res + a] += Σ_w t(a, b, w)·line[w]`, each cell's terms in
/// ascending `w`.
fn plane_sums(t: &[f32], o: Orientation, line: &[f32], acc: &mut [f32]) {
    let res = line.len();
    match o {
        Orientation::XyZ | Orientation::XzY => {
            for (r, row) in t.chunks_exact(res).enumerate() {
                let (b, w) = row_plane_line(o, r, res);
                axpy(&mut acc[b * res..][..res], row, line[w]);
            }
        }
        Orientation::YzX => {
            for (acc, slab) in acc.chunks_exact_mut(res).zip(t.chunks_exact(res * res)) {
                dot_rows(acc, slab, line);
            }
        }
    }
}

/// For an orientation whose plane runs along x, the plane row `b` and the
/// line cell `w` of the volume's row `r = z·res + y`.
fn row_plane_line(o: Orientation, r: usize, res: usize) -> (usize, usize) {
    let (z, y) = (r / res, r % res);
    match o {
        Orientation::XyZ => (y, z),
        _ => (z, y),
    }
}

/// `acc[w] += Σ_ab t(a, b, w)·plane[b·res + a]`, each line cell's terms in
/// ascending `(b, a)`.
fn line_sums(t: &[f32], o: Orientation, plane: &[f32], acc: &mut [f32]) {
    let res = acc.len();
    match o {
        // A z slab is line cell z's whole sum, in (y, x) order.
        Orientation::XyZ => dot_rows(acc, t, plane),
        Orientation::XzY => {
            for (plane, slab) in plane.chunks_exact(res).zip(t.chunks_exact(res * res)) {
                dot_rows(acc, slab, plane);
            }
        }
        Orientation::YzX => {
            for (row, &p) in t.chunks_exact(res).zip(plane) {
                axpy(acc, row, p);
            }
        }
    }
}

/// `t(a, b, w) -= plane[b·res + a]·line[w]`.
fn deflate(t: &mut [f32], o: Orientation, plane: &[f32], line: &[f32]) {
    let res = line.len();
    for (r, row) in t.chunks_exact_mut(res).enumerate() {
        match o {
            Orientation::XyZ | Orientation::XzY => {
                let (b, w) = row_plane_line(o, r, res);
                axpy_neg(row, &plane[b * res..][..res], line[w]);
            }
            // The plane runs along (y, z): its cell is the row.
            Orientation::YzX => axpy_neg(row, line, plane[r]),
        }
    }
}

/// `acc[i] += v[i]·s`.
fn axpy(acc: &mut [f32], v: &[f32], s: f32) {
    for (a, &v) in acc.iter_mut().zip(v) {
        *a += v * s;
    }
}

/// `acc[i] -= v[i]·s`.
fn axpy_neg(acc: &mut [f32], v: &[f32], s: f32) {
    for (a, &v) in acc.iter_mut().zip(v) {
        *a -= v * s;
    }
}

/// Rows [`dot_rows`] runs side by side: independent sums, so each add
/// need not wait for the one before it.
const DOT_ROWS: usize = 8;

/// `acc[j] += rows[j] · v` for each row `j` of `rows` (`acc.len()` rows of
/// `v.len()`), each sum taken in ascending element order.
fn dot_rows(acc: &mut [f32], rows: &[f32], v: &[f32]) {
    let n = v.len();
    let mut accs = acc.chunks_exact_mut(DOT_ROWS);
    let mut blocks = rows.chunks_exact(DOT_ROWS * n);
    for (acc, block) in (&mut accs).zip(&mut blocks) {
        let rows: [&[f32]; DOT_ROWS] = std::array::from_fn(|j| &block[j * n..][..n]);
        let mut s: [f32; DOT_ROWS] = std::array::from_fn(|j| acc[j]);
        for (x, &vx) in v.iter().enumerate() {
            for (s, row) in s.iter_mut().zip(&rows) {
                *s += row[x] * vx;
            }
        }
        acc.copy_from_slice(&s);
    }
    for (a, row) in accs
        .into_remainder()
        .iter_mut()
        .zip(blocks.remainder().chunks_exact(n))
    {
        for (&r, &vx) in row.iter().zip(v) {
            *a += r * vx;
        }
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

    /// What the hash model's sampled support reads as the raw density is
    /// the decoder's signal 0 bit for bit: [`sigma_raw_block`]'s slot-0 sum
    /// against the MLP's first output on a block of hash samples, through
    /// the block kernel and per sample, at 8 and 11 features per entry. The
    /// block mixes samples above and at or below `RAW_EMPTY`.
    #[test]
    fn hash_opacity_raw_is_the_decoders_signal_0() {
        use crate::occupancy::RAW_EMPTY;
        use crate::MlpBlockScratch;
        let scene = library::scene_by_name("lego").unwrap();
        for features_per_entry in [8, 11] {
            let cfg = HashConfig {
                levels: 6,
                base_resolution: 4,
                max_resolution: 40,
                table_size_log2: 11,
                features_per_entry,
                ..Default::default()
            };
            let model = bake_hash(&scene, &cfg);
            let (b, k) = (model.bounds(), 301);
            // A slanted line through the bounds, its two ends on the faces.
            let ps: Vec<Vec3> = (0..k)
                .map(|i| {
                    let u = i as f32 / (k - 1) as f32;
                    b.min + b.size() * Vec3::new(u, 0.3 + 0.4 * u, 1.0 - 0.8 * u)
                })
                .collect();
            let mut raws = vec![0.0; k];
            sigma_raw_block(&model.encoding, &ps, &mut Vec::new(), &mut raws);
            let decoder = &model.decoder;
            let fd = decoder.feature_dim();
            let mut block = MlpBlockScratch::new();
            let input = decoder.stage_block(&mut block, k);
            model.features_into_block(&ps, &mut input[..fd * k], k);
            let signal_0 = decoder.mlp().forward_block(&mut block, k)[..k].to_vec();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&raws), bits(&signal_0), "{features_per_entry}");
            let mut feats = Vec::new();
            for (&p, &raw) in ps.iter().zip(&raws) {
                model.features_into(p, &mut feats);
                feats.extend([0.0, 0.0, 1.0]);
                let one = decoder.mlp().forward(&feats)[0];
                assert_eq!(raw.to_bits(), one.to_bits(), "{features_per_entry} {p:?}");
            }
            let live = raws.iter().filter(|&&r| r > RAW_EMPTY).count();
            assert!(live > 10 && live < k - 10, "{live} of {k} above RAW_EMPTY");
        }
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

    /// Asserts no half of `table` is ±∞ or NaN: a value past 65 504 would
    /// round to ∞ and a NaN signal would stay NaN, and either poisons every
    /// sample that reads the entry.
    fn assert_finite(table: &[u16], what: &str) {
        let bad = table.iter().position(|&h| h & 0x7c00 == 0x7c00);
        assert_eq!(bad, None, "{what}: a non-finite half");
    }

    /// Bakes `name` with `HashConfig::default()` and asserts every stored
    /// half is finite.
    fn assert_finite_halves(name: &str) {
        let s = library::scene_by_name(name).unwrap();
        let model = bake_hash(&s, &HashConfig::default());
        for (li, l) in model.encoding.levels().iter().enumerate() {
            assert_finite(&l.data, &format!("{name}, level {li}"));
        }
    }

    /// Bakes `name`'s grid at `grid_res` cells and its tensor at
    /// `tensor_res` texels (default channels and components) and asserts
    /// every stored half is finite: the grid's vertices, and the tensor's
    /// planes and lines, whose deflation subtracts the rounded terms.
    fn assert_finite_grid_and_tensor_halves(name: &str, grid_res: usize, tensor_res: usize) {
        let s = library::scene_by_name(name).unwrap();
        let grid = bake_grid(
            &s,
            &GridConfig {
                resolution: grid_res,
                ..Default::default()
            },
        );
        assert_finite(grid.encoding.halves(), &format!("{name}, grid"));
        let tensor = bake_tensor(
            &s,
            &TensorConfig {
                resolution: tensor_res,
                ..Default::default()
            },
        );
        for o in 0..ORIENTATIONS.len() {
            let t = &tensor.encoding;
            assert_finite(t.plane(o), &format!("{name}, tensor plane {o}"));
            assert_finite(t.line(o), &format!("{name}, tensor line {o}"));
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

    /// The benchmark's scene at the benchmark's grid (48³) and a reduced
    /// tensor; its twin below bakes every library scene at the figures'
    /// grid (128³) and the default tensor.
    #[test]
    fn baked_grids_and_tensors_store_finite_halves() {
        assert_finite_grid_and_tensor_halves("lego", 48, 32);
    }

    #[test]
    #[ignore = "slow unoptimized: CI runs it in the release-mode oracle step"]
    fn baked_grids_and_tensors_store_finite_halves_every_scene() {
        let tensor_res = TensorConfig::default().resolution;
        for name in library::SYNTHETIC_SCENES
            .iter()
            .chain(&library::REAL_WORLD_SCENES)
        {
            assert_finite_grid_and_tensor_halves(name, 128, tensor_res);
        }
    }

    /// The tensor bake as one [`signals_at`] call per signal per texel,
    /// power iterations that walk the volume cell by cell, and a deflation
    /// of each term as its halves store it: the oracle [`bake_tensor_with`]
    /// is held to, bit for bit.
    fn bake_tensor_reference(
        scene: &AnalyticScene,
        cfg: &TensorConfig,
        opts: &BakeOptions,
    ) -> TensorModel {
        let bounds = RadianceSource::bounds(scene);
        let shin = scene.dominant_shininess();
        let res = cfg.resolution;
        let k = cfg.components_per_signal;
        let mut tensor = VmTensor::new(*cfg, bounds);
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
                    Orientation::XyZ => idx3(a, b, w),
                    Orientation::XzY => idx3(a, w, b),
                    Orientation::YzX => idx3(w, a, b),
                };
                for comp in 0..k {
                    let mut line = vec![1.0_f32; res];
                    let mut plane = vec![0.0_f32; res * res];
                    for _ in 0..opts.tensor_power_iters.max(1) {
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
                    // The term as the tensor stores it, in halves.
                    let stored = |v: f32| widen_half(round_to_half(v));
                    for (w, lv) in line.iter().enumerate() {
                        for b in 0..res {
                            for a in 0..res {
                                t[map(a, b, w)] -= stored(plane[b * res + a]) * stored(*lv);
                            }
                        }
                    }
                    tensor.set_component(oi, signal * k + comp, &plane, &line);
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

    /// Bakes `name` at `resolution` texels and `components` per signal both
    /// ways and asserts the planes, lines and tightened occupancy agree
    /// bit for bit.
    fn assert_tensor_bake_is_the_reference(name: &str, resolution: usize, components: usize) {
        let s = library::scene_by_name(name).unwrap();
        let cfg = TensorConfig {
            resolution,
            components_per_signal: components,
            ..Default::default()
        };
        let opts = BakeOptions::default();
        let (got, want) = (
            bake_tensor_with(&s, &cfg, &opts),
            bake_tensor_reference(&s, &cfg, &opts),
        );
        let at = format!("{name}, {resolution}³, {components} components");
        for o in 0..ORIENTATIONS.len() {
            let (g, w) = (&got.encoding, &want.encoding);
            assert!(g.plane(o) == w.plane(o), "{at}: plane {o}");
            assert!(g.line(o) == w.line(o), "{at}: line {o}");
        }
        assert!(got.occupancy == want.occupancy, "{at}: occupancy");
    }

    /// Odd and even lattices, one to four components, on a diffuse, a
    /// specular and a real-world scene; the twin below bakes every library
    /// scene at the default size.
    #[test]
    fn tensor_bake_is_the_reference_bake() {
        for name in ["lego", "materials", library::REAL_WORLD_SCENES[0]] {
            for resolution in [17, 24] {
                for components in [1, 3, 4] {
                    assert_tensor_bake_is_the_reference(name, resolution, components);
                }
            }
        }
    }

    #[test]
    #[ignore = "slow unoptimized: CI runs it in the release-mode oracle step"]
    fn tensor_bake_is_the_reference_bake_every_scene() {
        let cfg = TensorConfig::default();
        for name in library::SYNTHETIC_SCENES
            .iter()
            .chain(&library::REAL_WORLD_SCENES)
        {
            assert_tensor_bake_is_the_reference(name, cfg.resolution, cfg.components_per_signal);
        }
    }

    /// Each signal [`signal_of`] computes from the batched query of a point
    /// ([`for_each_nearest`], over a lattice whose last batch is partial)
    /// is the one [`signals_at`] computes there alone.
    #[test]
    fn signal_at_is_signals_at() {
        let n = 9;
        for name in library::SYNTHETIC_SCENES
            .iter()
            .chain(&library::REAL_WORLD_SCENES)
        {
            let s = library::scene_by_name(name).unwrap();
            let (b, shin) = (RadianceSource::bounds(&s), s.dominant_shininess());
            let f = |c: usize| c as f32 / (n - 1) as f32;
            let pos = |i: usize| {
                let [x, y, z] = [i % n, i / n % n, i / (n * n)].map(f);
                b.min + Vec3::new(b.size().x * x, b.size().y * y, b.size().z * z)
            };
            let mut visited = 0;
            for_each_nearest(&s, 0..n * n * n, pos, |i, near| {
                assert_eq!(i, visited, "{name}: visiting order");
                visited += 1;
                let all = signals_at(&s, pos(i), shin);
                for (k, v) in all.iter().enumerate() {
                    let one = signal_of(&s, near, shin, k);
                    assert_eq!(one.to_bits(), v.to_bits(), "{name} at {i}, signal {k}");
                }
            });
            assert_eq!(visited, n * n * n);
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
