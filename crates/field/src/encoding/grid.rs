//! Dense voxel-grid encoding (DirectVoxGO-style).
//!
//! Every vertex of a `res³` voxel grid carries a feature vector of `channels`
//! values. Queries trilinearly interpolate the eight vertices of the
//! containing voxel — the canonical Feature Gathering pattern of the paper's
//! Fig. 1 ("each ray sample gathers and interpolates 3D features from eight
//! vertices of the intersected voxel").
//!
//! Vertices are stored as IEEE half floats, the paper's fp16 MVoxels and
//! the width the memory model prices ([`GridConfig::bytes_per_channel`]).
//! A write rounds each value to the nearest half
//! ([`DenseGrid::set_vertex`]); every read widens it back exactly, so the
//! block gather and the per-sample interpolation see the same f32 values
//! on every backend.

use crate::encoding::{
    cell_fraction, dense_corners, gather_level, normalize_chunk, trilinear_weights, Addressing,
    CHUNK,
};
use crate::plan::{GatherPlan, LevelGather, RegionId};
use crate::simd::{self, round_to_half, widen_half, Kernel, Lanes};
use cicero_math::{Aabb, Vec3};

/// Configuration of a dense feature grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Cells per axis (vertices per axis = `resolution + 1`).
    pub resolution: usize,
    /// Feature channels per vertex (≥ 7; extra channels are padding carried
    /// at full memory cost, like real models' unused capacity).
    pub channels: usize,
    /// Stored width of a channel value in bytes; only 2 (an IEEE half, as
    /// in the paper's 32-channel × 2-byte MVoxels) is accepted, so the
    /// width the memory model prices is the one stored.
    pub bytes_per_channel: u32,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            resolution: 160,
            channels: 12,
            bytes_per_channel: 2,
        }
    }
}

impl GridConfig {
    /// Whether a [`DenseGrid`] can be built from this configuration: at
    /// least one cell per axis, at least the seven decoder signals per
    /// vertex, 2 bytes a channel (vertices are stored as halves), and no
    /// more feature values than the gather indexes in `u32`.
    ///
    /// # Errors
    ///
    /// What is wrong, in words.
    pub fn check(&self) -> Result<(), String> {
        if self.resolution == 0 {
            return Err("resolution 0: a grid needs at least one cell per axis".into());
        }
        if self.channels < 7 {
            return Err(format!(
                "channels {}: need at least 7 channels for the decoder signals",
                self.channels
            ));
        }
        if self.bytes_per_channel != 2 {
            return Err(format!(
                "bytes_per_channel {}: vertices are stored as halves, 2 bytes a channel",
                self.bytes_per_channel
            ));
        }
        let values = (self.resolution as u64)
            .checked_add(1)
            .and_then(|per_axis| per_axis.checked_pow(3))
            .and_then(|verts| verts.checked_mul(self.channels as u64));
        if values.is_none_or(|values| values > u32::MAX as u64) {
            return Err(format!(
                "resolution {} × channels {}: the grid's feature values must be indexable in u32",
                self.resolution, self.channels
            ));
        }
        Ok(())
    }
}

/// A dense vertex-feature grid over an axis-aligned bound.
#[derive(Debug, Clone)]
pub struct DenseGrid {
    cfg: GridConfig,
    bounds: Aabb,
    /// Vertex-major storage, `data[vertex * channels + c]`: IEEE half
    /// floats, widened to f32 as they are read.
    data: Vec<u16>,
}

impl DenseGrid {
    /// Creates a zero-filled grid.
    ///
    /// # Panics
    ///
    /// Panics if [`GridConfig::check`] refuses `cfg`: `channels < 7`,
    /// `resolution == 0`, `bytes_per_channel != 2`, or more than
    /// `u32::MAX` feature values (the gather indexes them in `u32`).
    pub fn new(cfg: GridConfig, bounds: Aabb) -> Self {
        if let Err(msg) = cfg.check() {
            panic!("invalid grid configuration: {msg}");
        }
        let verts = (cfg.resolution + 1).pow(3);
        DenseGrid {
            cfg,
            bounds,
            data: vec![0; verts * cfg.channels],
        }
    }

    /// Grid configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Grid bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Vertices per axis.
    pub fn verts_per_axis(&self) -> usize {
        self.cfg.resolution + 1
    }

    /// Flat vertex index of `(x, y, z)`.
    #[inline]
    pub fn vertex_index(&self, x: u32, y: u32, z: u32) -> u64 {
        let n = self.verts_per_axis() as u64;
        (z as u64 * n + y as u64) * n + x as u64
    }

    /// World position of vertex `(x, y, z)`.
    pub fn vertex_position(&self, x: u32, y: u32, z: u32) -> Vec3 {
        let s = self.bounds.size();
        let r = self.cfg.resolution as f32;
        self.bounds.min + Vec3::new(s.x * x as f32 / r, s.y * y as f32 / r, s.z * z as f32 / r)
    }

    /// Writes the feature vector of a vertex, each value rounded to the
    /// nearest half, ties to even.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != channels` or the vertex is out of range.
    pub fn set_vertex(&mut self, x: u32, y: u32, z: u32, features: &[f32]) {
        assert_eq!(features.len(), self.cfg.channels);
        let n = self.verts_per_axis() as u32;
        assert!(x < n && y < n && z < n, "vertex out of range");
        let base = self.vertex_index(x, y, z) as usize * self.cfg.channels;
        for (h, &v) in self.data[base..].iter_mut().zip(features) {
            *h = round_to_half(v);
        }
    }

    /// The feature vector of a vertex, widened from its halves.
    pub fn vertex(&self, x: u32, y: u32, z: u32) -> impl ExactSizeIterator<Item = f32> + '_ {
        let base = self.vertex_index(x, y, z) as usize * self.cfg.channels;
        self.data[base..base + self.cfg.channels]
            .iter()
            .map(|&h| widen_half(h))
    }

    /// Channel 0 (`σ_raw`) of vertex `(x, y, z)`: what
    /// [`DenseGrid::interpolate_into`] gives there, where every weight but
    /// the vertex's own is zero.
    pub(crate) fn vertex_density_raw(&self, [x, y, z]: [u32; 3]) -> f32 {
        widen_half(self.data[self.vertex_index(x, y, z) as usize * self.cfg.channels])
    }

    /// Every stored half, vertex-major.
    #[cfg(test)]
    pub(crate) fn halves(&self) -> &[u16] {
        &self.data
    }

    /// Continuous grid coordinates of a world point (`[0, res]³` inside).
    fn grid_coords(&self, p: Vec3) -> Vec3 {
        self.bounds.normalize(p) * self.cfg.resolution as f32
    }

    /// Trilinearly interpolates features at `p` into `out`.
    ///
    /// `out` is cleared and filled with `channels` values. Points outside the
    /// bounds clamp to the border (the occupancy grid prevents the renderer
    /// from ever sampling there).
    pub fn interpolate_into(&self, p: Vec3, out: &mut Vec<f32>) {
        let g = self.grid_coords(p);
        let res = self.cfg.resolution as u32;
        let (cx, fx) = cell_fraction(g.x, res);
        let (cy, fy) = cell_fraction(g.y, res);
        let (cz, fz) = cell_fraction(g.z, res);
        let w = trilinear_weights(fx, fy, fz);
        out.clear();
        out.resize(self.cfg.channels, 0.0);
        for (corner, &weight) in w.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            let vx = cx + (corner as u32 & 1);
            let vy = cy + ((corner as u32 >> 1) & 1);
            let vz = cz + ((corner as u32 >> 2) & 1);
            let base = self.vertex_index(vx, vy, vz) as usize * self.cfg.channels;
            for (o, &h) in out
                .iter_mut()
                .zip(&self.data[base..base + self.cfg.channels])
            {
                *o += weight * widen_half(h);
            }
        }
    }

    /// Batched trilinear interpolation for a block of sample positions, in
    /// SoA layout: channel `c` of sample `s` is written to
    /// `out[c * stride + s]` (the decoder's staged input matrix).
    ///
    /// One body on every [`simd`] backend: per chunk of [`CHUNK`] samples,
    /// [`gather_level`]'s index pass and then its accumulate pass, which
    /// loads each vertex row of halves as one vector, widened by
    /// [`Lanes::load_half`]. Bit-identical to
    /// [`DenseGrid::interpolate_into`] per sample.
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short or `stride < ps.len()`.
    pub fn interpolate_block_into(&self, ps: &[Vec3], out: &mut [f32], stride: usize) {
        assert!(stride >= ps.len(), "stride shorter than the block");
        assert!(
            out.len() >= self.cfg.channels * stride,
            "output matrix too short"
        );
        simd::dispatch(BlockGather {
            grid: self,
            ps,
            out,
            stride,
        });
    }

    /// The gather plan (memory touches) for a query at `p`.
    pub fn plan_at(&self, p: Vec3, region: RegionId) -> LevelGather {
        let g = self.grid_coords(p);
        let res = self.cfg.resolution as u32;
        let cell = [g.x, g.y, g.z].map(|u| cell_fraction(u, res).0);
        LevelGather {
            region,
            resolution: [res + 1, res + 1, res + 1],
            cell,
            entries: dense_corners(res + 1, cell).map(u64::from),
            entry_count: 8,
            entry_bytes: (self.cfg.channels as u32) * self.cfg.bytes_per_channel,
            dense: true,
        }
    }

    /// Full gather plan wrapping the single level.
    pub fn gather_plan(&self, p: Vec3) -> GatherPlan {
        let mut plan = GatherPlan::default();
        self.gather_plan_into(p, &mut plan);
        plan
    }

    /// Fills `out` with the gather plan at `p`, reusing its level buffer
    /// (allocation-free once warm).
    pub fn gather_plan_into(&self, p: Vec3, out: &mut GatherPlan) {
        out.clear();
        out.levels.push(self.plan_at(p, RegionId(0)));
    }

    /// Feature storage bytes: the stored vertices' size, as
    /// `bytes_per_channel` is the stored width.
    pub fn storage_bytes(&self) -> u64 {
        (self.verts_per_axis() as u64).pow(3)
            * self.cfg.channels as u64
            * self.cfg.bytes_per_channel as u64
    }
}

/// [`DenseGrid::interpolate_block_into`] as a [`Kernel`].
struct BlockGather<'a> {
    grid: &'a DenseGrid,
    ps: &'a [Vec3],
    out: &'a mut [f32],
    stride: usize,
}

impl Kernel for BlockGather<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(self) {
        let (grid, stride) = (self.grid, self.stride);
        let (res, ch) = (grid.cfg.resolution as u32, grid.cfg.channels);
        let at = Addressing::Dense { n: res + 1 };
        for (ci, chunk) in self.ps.chunks(CHUNK).enumerate() {
            let ns = normalize_chunk(&grid.bounds, chunk);
            let (rows, len) = (&mut self.out[ci * CHUNK..], chunk.len());
            gather_level::<W, H, Q>(&grid.data, ch, res, at, &ns, len, rows, stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::testing;
    use crate::simd::Backend;

    fn small_grid() -> DenseGrid {
        DenseGrid::new(
            GridConfig {
                resolution: 4,
                channels: 7,
                bytes_per_channel: 2,
            },
            Aabb::centered_cube(1.0),
        )
    }

    /// A 4³ grid of `channels` per vertex, every vertex filled.
    fn filled_grid(channels: usize) -> DenseGrid {
        let mut g = DenseGrid::new(
            GridConfig {
                resolution: 4,
                channels,
                bytes_per_channel: 2,
            },
            Aabb::centered_cube(1.0),
        );
        let n = g.verts_per_axis() as u32;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let f: Vec<f32> = (0..channels as u32)
                        .map(|c| ((x * 59 + y * 11 + z * 3 + c) as f32 * 0.211).sin())
                        .collect();
                    g.set_vertex(x, y, z, &f);
                }
            }
        }
        g
    }

    /// The block gather on one named backend, over a NaN-filled matrix.
    fn gather_on(backend: Backend, g: &DenseGrid, ps: &[Vec3], stride: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; g.cfg.channels * stride];
        simd::run_on(
            backend,
            BlockGather {
                grid: g,
                ps,
                out: &mut out,
                stride,
            },
        );
        out
    }

    #[test]
    fn block_gather_matches_per_sample_bitwise() {
        // On 8-lane backends 8 = one W group, 13 = W + H + a 1-lane tail,
        // 20 = two W + H; on 16-lane ones 8 = H, 13 = H + Q + a tail,
        // 20 = W + Q.
        for channels in [8, 13, 20] {
            let g = filled_grid(channels);
            testing::assert_matches_per_sample(
                &format!("{channels} channels"),
                g.bounds(),
                |backend, ps, stride| gather_on(backend, &g, ps, stride),
                |p, out| g.interpolate_into(p, out),
            );
        }
    }

    #[test]
    fn wide_block_interpolation_matches_scalar_bitwise() {
        // Samples straddle interior cells, faces and the clamped boundary.
        let g = filled_grid(13);
        let ps: Vec<Vec3> = (0..17)
            .map(|i| {
                let t = i as f32 * 0.47;
                Vec3::new(t.sin() * 1.1, (t * 1.9).cos() * 1.1, (t * 0.7).sin())
            })
            .collect();
        testing::assert_backends_agree(&ps, ps.len() + 2, |backend, ps, stride| {
            gather_on(backend, &g, ps, stride)
        });
    }

    #[test]
    fn vertex_roundtrip() {
        let mut g = small_grid();
        let f = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        g.set_vertex(2, 3, 1, &f);
        assert!(g.vertex(2, 3, 1).eq(f));
        assert_eq!(g.vertex_density_raw([2, 3, 1]), 1.0);
        // A value between two halves is stored as the nearer one, and one
        // past the largest half as ∞.
        let f = [1.0 + 1.0 / 4096.0, -0.1, 65520.0, 0.0, 0.0, 0.0, 0.0];
        g.set_vertex(2, 3, 1, &f);
        let stored: Vec<f32> = g.vertex(2, 3, 1).collect();
        assert_eq!(
            stored[..3],
            [1.0, widen_half(round_to_half(-0.1)), f32::INFINITY]
        );
        assert_ne!(stored[1], -0.1);
    }

    #[test]
    fn interpolation_at_vertex_is_exact() {
        let mut g = small_grid();
        let f = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0];
        g.set_vertex(2, 2, 2, &f);
        let p = g.vertex_position(2, 2, 2);
        let mut out = Vec::new();
        g.interpolate_into(p, &mut out);
        assert!((out[0] - 1.0).abs() < 1e-5);
        assert!((out[6] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn interpolation_is_linear_along_edge() {
        let mut g = small_grid();
        g.set_vertex(0, 0, 0, &[0.0; 7]);
        g.set_vertex(1, 0, 0, &[4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let a = g.vertex_position(0, 0, 0);
        let b = g.vertex_position(1, 0, 0);
        let mid = a.lerp(b, 0.25);
        let mut out = Vec::new();
        g.interpolate_into(mid, &mut out);
        assert!((out[0] - 1.0).abs() < 1e-4, "{}", out[0]);
    }

    #[test]
    fn plan_covers_eight_distinct_vertices() {
        let g = small_grid();
        let plan = g.gather_plan(Vec3::new(0.1, 0.1, 0.1));
        assert_eq!(plan.levels.len(), 1);
        let l = &plan.levels[0];
        assert_eq!(l.entry_count, 8);
        let mut e = l.entries().to_vec();
        e.sort_unstable();
        e.dedup();
        assert_eq!(e.len(), 8, "vertices must be distinct");
        assert!(l.dense);
        assert_eq!(l.entry_bytes, 7 * 2);
    }

    #[test]
    fn block_interpolation_matches_scalar_bitwise() {
        let mut g = small_grid();
        let n = g.verts_per_axis() as u32;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let f: Vec<f32> = (0..7)
                        .map(|c| ((x * 49 + y * 7 + z + c) as f32 * 0.137).sin())
                        .collect();
                    g.set_vertex(x, y, z, &f);
                }
            }
        }
        let ps: Vec<Vec3> = (0..13)
            .map(|i| {
                let t = i as f32 * 0.31;
                Vec3::new(
                    (t).sin() * 0.6,
                    (t * 1.7).cos() * 0.6,
                    (t * 0.9).sin() * 0.6,
                )
            })
            .collect();
        let stride = ps.len() + 3; // padded stride: block may be wider than filled lanes
        let mut soa = vec![f32::NAN; 7 * stride];
        g.interpolate_block_into(&ps, &mut soa, stride);
        let mut scalar = Vec::new();
        for (s, &p) in ps.iter().enumerate() {
            g.interpolate_into(p, &mut scalar);
            for (c, &v) in scalar.iter().enumerate() {
                assert_eq!(soa[c * stride + s], v, "sample {s} channel {c}");
            }
        }
    }

    #[test]
    fn outside_points_clamp() {
        let g = small_grid();
        let mut out = Vec::new();
        g.interpolate_into(Vec3::splat(99.0), &mut out);
        assert_eq!(out.len(), 7); // border vertex features (zeros)
        let plan = g.gather_plan(Vec3::splat(99.0));
        assert_eq!(plan.levels[0].cell, [3, 3, 3]); // last cell
    }

    #[test]
    fn storage_accounts_vertices_and_precision() {
        let g = small_grid();
        assert_eq!(g.storage_bytes(), 5u64.pow(3) * 7 * 2);
    }

    /// What the memory model prices is what is stored.
    #[test]
    fn storage_bytes_are_the_bytes_held() {
        for cfg in [*small_grid().config(), GridConfig::default()] {
            let g = DenseGrid::new(cfg, Aabb::centered_cube(1.0));
            let held = std::mem::size_of_val(g.data.as_slice());
            assert_eq!(g.storage_bytes(), held as u64, "{cfg:?}");
        }
    }

    #[test]
    fn default_config_is_paper_scale() {
        let cfg = GridConfig::default();
        let g = DenseGrid::new(cfg, Aabb::centered_cube(1.0));
        // DirectVoxGO-like: order 100 MB (paper Fig. 2 x-axis).
        let mb = g.storage_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb > 50.0 && mb < 200.0, "{mb} MB");
    }

    /// `check` refuses exactly what `new` cannot build, at the edges: the
    /// largest 7-channel grid indexable in `u32` is 848³ (849³ vertices ×
    /// 7 = 4 291 720 343 values), and a resolution whose vertex count
    /// overflows is refused, not wrapped.
    #[test]
    fn check_refuses_what_new_cannot_build() {
        let cfg = |resolution, channels| GridConfig {
            resolution,
            channels,
            bytes_per_channel: 2,
        };
        let width = |bytes_per_channel| GridConfig {
            bytes_per_channel,
            ..cfg(8, 12)
        };
        for ok in [cfg(1, 7), cfg(160, 12), cfg(848, 7), cfg(4, 64)] {
            assert_eq!(ok.check(), Ok(()), "{ok:?}");
        }
        for (bad, why) in [
            (cfg(0, 12), "resolution 0"),
            (cfg(8, 6), "channels 6"),
            (cfg(8, 0), "channels 0"),
            (cfg(849, 7), "indexable in u32"),
            (cfg(2048, 12), "indexable in u32"),
            (cfg(usize::MAX, 12), "indexable in u32"),
            (width(4), "bytes_per_channel 4"),
            (width(1), "bytes_per_channel 1"),
            (width(0), "bytes_per_channel 0"),
        ] {
            let msg = bad.check().expect_err("refused");
            assert!(msg.contains(why), "{bad:?}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid grid configuration: channels 6")]
    fn new_panics_through_check() {
        DenseGrid::new(
            GridConfig {
                resolution: 4,
                channels: 6,
                bytes_per_channel: 2,
            },
            Aabb::centered_cube(1.0),
        );
    }
}
