//! Multi-resolution hash encoding (Instant-NGP-style).
//!
//! `levels` grids of geometrically increasing resolution share per-level
//! feature tables of bounded size. Coarse levels fit densely (entry index =
//! vertex index, streamable); fine levels exceed the table and fall back to a
//! spatial hash — the inherently irregular accesses the paper calls out in
//! §IV-A ("this reversion happens in, for instance, Instant-NGP from level 5
//! (out of 8 levels) onwards").
//!
//! Rows are stored as IEEE half floats, as Instant-NGP stores its tables:
//! the width the memory model prices ([`HashConfig::bytes_per_feature`]).
//! A write rounds each value to the nearest half ([`HashGrid::set_entry`]);
//! every read widens it back exactly, so the block gather and the
//! per-sample interpolation see the same f32 values on every backend.

use crate::encoding::{
    cell_fraction, gather_level, normalize_chunk, trilinear_weights, Addressing, CHUNK,
};
use crate::plan::{GatherPlan, LevelGather, RegionId};
use crate::simd::{self, round_to_half, widen_half, Kernel, Lanes};
use cicero_math::{Aabb, Vec3};

/// Configuration of the hash encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashConfig {
    /// Number of resolution levels (the paper models Instant-NGP with 8).
    pub levels: usize,
    /// Cells per axis at the coarsest level.
    pub base_resolution: usize,
    /// Cells per axis at the finest level.
    pub max_resolution: usize,
    /// log2 of per-level table entries.
    pub table_size_log2: u32,
    /// Feature channels per entry.
    pub features_per_entry: usize,
    /// Stored width of a feature value in bytes; only 2 (an IEEE half) is
    /// accepted, so the width the memory model prices is the one stored.
    pub bytes_per_feature: u32,
}

impl Default for HashConfig {
    fn default() -> Self {
        HashConfig {
            levels: 8,
            base_resolution: 16,
            max_resolution: 256,
            table_size_log2: 19,
            features_per_entry: 8,
            bytes_per_feature: 2,
        }
    }
}

impl HashConfig {
    /// Whether a [`HashGrid`] can be built from this configuration: at
    /// least one level, at least one cell per axis at the coarsest level,
    /// resolutions that do not shrink and stay within 2²⁴ cells per axis
    /// (the gather's cell split is exact in f32 up to there), at least the
    /// seven decoder signals per entry, 2 bytes a feature (rows are stored
    /// as halves), and no more feature values in a level than the gather
    /// indexes in `u32`.
    ///
    /// # Errors
    ///
    /// What is wrong, in words.
    pub fn check(&self) -> Result<(), String> {
        if self.levels == 0 {
            return Err("levels 0: an encoding needs at least one level".into());
        }
        if self.base_resolution == 0 {
            return Err("base_resolution 0: a level needs at least one cell per axis".into());
        }
        if self.max_resolution < self.base_resolution {
            return Err(format!(
                "max_resolution {} below base_resolution {}",
                self.max_resolution, self.base_resolution
            ));
        }
        if self.max_resolution > 1 << 24 {
            return Err(format!(
                "max_resolution {}: cells per axis must be exact in f32",
                self.max_resolution
            ));
        }
        if self.features_per_entry < 7 {
            return Err(format!(
                "features_per_entry {}: per-level features must carry all 7 decoder signals",
                self.features_per_entry
            ));
        }
        if self.bytes_per_feature != 2 {
            return Err(format!(
                "bytes_per_feature {}: rows are stored as halves, 2 bytes a feature",
                self.bytes_per_feature
            ));
        }
        let values = (self.table_size_log2 < 32)
            .then(|| (self.features_per_entry as u64).checked_mul(1 << self.table_size_log2))
            .flatten();
        if values.is_none_or(|values| values > u32::MAX as u64) {
            return Err(format!(
                "table_size_log2 {} × features {}: a level's feature values must be indexable in u32",
                self.table_size_log2, self.features_per_entry
            ));
        }
        Ok(())
    }
}

/// One resolution level.
#[derive(Debug, Clone)]
pub struct HashLevel {
    /// Cells per axis.
    pub resolution: usize,
    /// Entries in this level's table.
    pub table_len: usize,
    /// Dense vertex addressing (no hashing)?
    pub dense: bool,
    /// Feature storage, `data[entry * features + c]`: IEEE half floats,
    /// as in Instant-NGP, widened to f32 as they are read.
    pub(crate) data: Vec<u16>,
}

/// The full multi-resolution encoding.
#[derive(Debug, Clone)]
pub struct HashGrid {
    cfg: HashConfig,
    bounds: Aabb,
    levels: Vec<HashLevel>,
}

/// Instant-NGP's spatial hash primes.
pub(crate) const PRIMES: [u64; 3] = [1, 2_654_435_761, 805_459_861];

impl HashLevel {
    /// How the level addresses its entries: dense vertex indices, or the
    /// spatial hash wrapped by the power-of-two table mask.
    #[inline(always)]
    pub(crate) fn addressing(&self) -> Addressing {
        if self.dense {
            Addressing::Dense {
                n: self.resolution as u32 + 1,
            }
        } else {
            Addressing::Hashed {
                mask: self.table_len as u32 - 1,
            }
        }
    }

    /// Entry indices of the 8 corners of cell `c`, corner `b` at
    /// `(b&1, (b>>1)&1, (b>>2)&1)`: [`HashGrid::entry_index`] for all of
    /// them at once, in `u32`, with the y and z products shared. Hashed
    /// levels wrap: the power-of-two mask keeps only low bits, and the low
    /// 32 bits of the `u64` products are the `u32` products (`PRIMES` and
    /// the mask fit `u32`; [`HashConfig::check`] holds the table to it).
    #[inline(always)]
    pub(crate) fn corner_entries(&self, cell: [u32; 3]) -> [u32; 8] {
        self.addressing().corners(cell)
    }
}

impl HashGrid {
    /// Creates a zero-filled encoding.
    ///
    /// # Panics
    ///
    /// Panics if [`HashConfig::check`] refuses `cfg`: no levels, a
    /// coarsest level of 0 cells, resolutions that shrink or pass 2²⁴
    /// cells per axis, `features_per_entry < 7`, `bytes_per_feature != 2`,
    /// or a level's table holding more than `u32::MAX` feature values.
    pub fn new(cfg: HashConfig, bounds: Aabb) -> Self {
        if let Err(msg) = cfg.check() {
            panic!("invalid hash configuration: {msg}");
        }
        let table_len = 1usize << cfg.table_size_log2;
        let growth = if cfg.levels > 1 {
            (cfg.max_resolution as f64 / cfg.base_resolution as f64)
                .powf(1.0 / (cfg.levels as f64 - 1.0))
        } else {
            1.0
        };
        let levels = (0..cfg.levels)
            .map(|l| {
                let resolution =
                    ((cfg.base_resolution as f64) * growth.powi(l as i32)).round() as usize;
                let dense_verts = (resolution + 1).pow(3);
                let dense = dense_verts <= table_len;
                let len = if dense { dense_verts } else { table_len };
                HashLevel {
                    resolution,
                    table_len: len,
                    dense,
                    data: vec![0; len * cfg.features_per_entry],
                }
            })
            .collect();
        HashGrid {
            cfg,
            bounds,
            levels,
        }
    }

    /// Encoding configuration.
    pub fn config(&self) -> &HashConfig {
        &self.cfg
    }

    /// Encoding bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Per-level metadata.
    pub fn levels(&self) -> &[HashLevel] {
        &self.levels
    }

    /// Index of the first level that uses hashed (non-streamable) addressing,
    /// or `levels` if every level is dense.
    pub fn first_hashed_level(&self) -> usize {
        self.levels
            .iter()
            .position(|l| !l.dense)
            .unwrap_or(self.levels.len())
    }

    /// Entry index for vertex `(x, y, z)` of `level`.
    pub fn entry_index(&self, level: usize, x: u32, y: u32, z: u32) -> u64 {
        let l = &self.levels[level];
        if l.dense {
            let n = (l.resolution + 1) as u64;
            (z as u64 * n + y as u64) * n + x as u64
        } else {
            let h = (x as u64).wrapping_mul(PRIMES[0])
                ^ (y as u64).wrapping_mul(PRIMES[1])
                ^ (z as u64).wrapping_mul(PRIMES[2]);
            h & (l.table_len as u64 - 1)
        }
    }

    /// Writes `values` into the first `values.len()` features of one entry
    /// (baking), each rounded to the nearest half, ties to even.
    ///
    /// # Panics
    ///
    /// Panics if `values` is longer than `features_per_entry` or the entry
    /// is outside the level's table.
    pub fn set_entry(&mut self, level: usize, entry: u64, values: &[f32]) {
        let f = self.cfg.features_per_entry;
        assert!(
            values.len() <= f,
            "{} values for {f} features",
            values.len()
        );
        let base = entry as usize * f;
        let row = &mut self.levels[level].data[base..base + values.len()];
        for (h, &v) in row.iter_mut().zip(values) {
            *h = round_to_half(v);
        }
    }

    /// World position of vertex `(x, y, z)` at `level`.
    pub fn vertex_position(&self, level: usize, x: u32, y: u32, z: u32) -> Vec3 {
        let s = self.bounds.size();
        let r = self.levels[level].resolution as f32;
        self.bounds.min + Vec3::new(s.x * x as f32 / r, s.y * y as f32 / r, s.z * z as f32 / r)
    }

    /// Interpolates one level's features at `p`, accumulating `weight *
    /// feature` into `out[..features_per_entry]`.
    pub fn interpolate_level_into(&self, level: usize, p: Vec3, out: &mut [f32]) {
        let l = &self.levels[level];
        let g = self.bounds.normalize(p) * l.resolution as f32;
        let res = l.resolution as u32;
        let (cx, fx) = cell_fraction(g.x, res);
        let (cy, fy) = cell_fraction(g.y, res);
        let (cz, fz) = cell_fraction(g.z, res);
        let w = trilinear_weights(fx, fy, fz);
        let f = self.cfg.features_per_entry;
        for v in out.iter_mut().take(f) {
            *v = 0.0;
        }
        for (corner, &weight) in w.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            let vx = cx + (corner as u32 & 1);
            let vy = cy + ((corner as u32 >> 1) & 1);
            let vz = cz + ((corner as u32 >> 2) & 1);
            let e = self.entry_index(level, vx, vy, vz);
            let base = e as usize * f;
            for (o, &h) in out.iter_mut().zip(&l.data[base..base + f]) {
                *o += weight * widen_half(h);
            }
        }
    }

    /// Concatenated multi-level interpolation: `levels × features_per_entry`
    /// values, coarse level first.
    pub fn interpolate_into(&self, p: Vec3, out: &mut Vec<f32>) {
        let f = self.cfg.features_per_entry;
        out.clear();
        out.resize(self.cfg.levels * f, 0.0);
        for level in 0..self.cfg.levels {
            self.interpolate_level_into(level, p, &mut out[level * f..(level + 1) * f]);
        }
    }

    /// Batched multi-level interpolation for a block of sample positions, in
    /// SoA layout: concatenated feature `i` (level-major, as in
    /// [`HashGrid::interpolate_into`]) of sample `s` is written to
    /// `out[i * stride + s]`.
    ///
    /// One body on every [`simd`] backend: per chunk of [`CHUNK`] samples
    /// the positions are normalised once, then each level runs
    /// [`gather_level`] — an index pass, then an accumulate pass that loads
    /// each entry row of halves as one vector, widened by
    /// [`Lanes::load_half`]. Bit-identical to
    /// [`HashGrid::interpolate_into`] per sample.
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short or `stride < ps.len()`.
    pub fn interpolate_block_into(&self, ps: &[Vec3], out: &mut [f32], stride: usize) {
        self.interpolate_levels_block_into(self.cfg.levels, ps, out, stride);
    }

    /// [`HashGrid::interpolate_block_into`] over the first `levels` levels
    /// only: the bake reconstructs a level's vertices through the coarser
    /// ones with it.
    ///
    /// # Panics
    ///
    /// Panics if `levels` exceeds the encoding's, `out` is too short or
    /// `stride < ps.len()`.
    pub(crate) fn interpolate_levels_block_into(
        &self,
        levels: usize,
        ps: &[Vec3],
        out: &mut [f32],
        stride: usize,
    ) {
        assert!(stride >= ps.len(), "stride shorter than the block");
        assert!(
            out.len() >= levels * self.cfg.features_per_entry * stride,
            "output matrix too short"
        );
        simd::dispatch(BlockGather {
            levels: &self.levels[..levels],
            grid: self,
            ps,
            out,
            stride,
        });
    }

    /// Sums per-level features into the 7 decoder signals (the residual
    /// scheme: every level stores a residual of the same signals): the
    /// per-vertex oracle of the bake's batched reconstruction.
    #[cfg(test)]
    pub(crate) fn reconstruct_signals(&self, p: Vec3, up_to_level: usize) -> [f32; 7] {
        let f = self.cfg.features_per_entry;
        let mut buf = vec![0.0; f];
        let mut signals = [0.0_f32; 7];
        for level in 0..up_to_level.min(self.cfg.levels) {
            self.interpolate_level_into(level, p, &mut buf);
            for (s, v) in signals.iter_mut().zip(buf.iter()) {
                *s += v;
            }
        }
        signals
    }

    /// Gather plan for a query at `p`: one [`LevelGather`] per level, with
    /// region ids `0..levels` (level ℓ lives in region ℓ).
    pub fn gather_plan(&self, p: Vec3) -> GatherPlan {
        let mut plan = GatherPlan {
            levels: Vec::with_capacity(self.cfg.levels),
        };
        self.gather_plan_into(p, &mut plan);
        plan
    }

    /// Fills `out` with the gather plan at `p`, reusing its level buffer
    /// (allocation-free once warm).
    pub fn gather_plan_into(&self, p: Vec3, plan: &mut GatherPlan) {
        plan.clear();
        let n = self.bounds.normalize(p);
        for (li, l) in self.levels.iter().enumerate() {
            let res = l.resolution as u32;
            let g = n * res as f32;
            let cell = [g.x, g.y, g.z].map(|u| cell_fraction(u, res).0);
            plan.levels.push(LevelGather {
                region: RegionId(li as u16),
                resolution: [res + 1, res + 1, res + 1],
                cell,
                entries: l.corner_entries(cell).map(u64::from),
                entry_count: 8,
                entry_bytes: self.cfg.features_per_entry as u32 * self.cfg.bytes_per_feature,
                dense: l.dense,
            });
        }
    }

    /// Total feature storage bytes: the stored tables' size, as
    /// `bytes_per_feature` is the stored width.
    pub fn storage_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| {
                l.table_len as u64
                    * self.cfg.features_per_entry as u64
                    * self.cfg.bytes_per_feature as u64
            })
            .sum()
    }

    /// Storage bytes of one level.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].table_len as u64
            * self.cfg.features_per_entry as u64
            * self.cfg.bytes_per_feature as u64
    }
}

/// [`HashGrid::interpolate_levels_block_into`] as a [`Kernel`].
struct BlockGather<'a> {
    /// The levels gathered, coarse first.
    levels: &'a [HashLevel],
    grid: &'a HashGrid,
    ps: &'a [Vec3],
    out: &'a mut [f32],
    stride: usize,
}

impl Kernel for BlockGather<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(self) {
        let (grid, stride) = (self.grid, self.stride);
        let f = grid.cfg.features_per_entry;
        for (ci, chunk) in self.ps.chunks(CHUNK).enumerate() {
            let ns = normalize_chunk(&grid.bounds, chunk);
            for (li, l) in self.levels.iter().enumerate() {
                let rows = &mut self.out[li * f * stride + ci * CHUNK..];
                let (res, at, len) = (l.resolution as u32, l.addressing(), chunk.len());
                gather_level::<W, H, Q>(&l.data, f, res, at, &ns, len, rows, stride);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::testing;
    use crate::simd::Backend;

    fn grid() -> HashGrid {
        HashGrid::new(
            HashConfig {
                levels: 4,
                base_resolution: 4,
                max_resolution: 32,
                table_size_log2: 10,
                features_per_entry: 7,
                bytes_per_feature: 2,
            },
            Aabb::centered_cube(1.0),
        )
    }

    /// A value a half holds exactly, from `seed`: a multiple of 2⁻¹⁰ in
    /// [−1, 1).
    fn exact_half(seed: u64) -> f32 {
        (seed % 2048) as f32 / 1024.0 - 1.0
    }

    /// A 4-level grid over a 2¹⁰ table (levels 0–1 dense, 2–3 hashed) with
    /// `features` per entry, every entry filled with values halves hold
    /// exactly.
    fn filled_grid(features: usize) -> HashGrid {
        let mut g = HashGrid::new(
            HashConfig {
                features_per_entry: features,
                ..*grid().config()
            },
            Aabb::centered_cube(1.0),
        );
        for level in 0..4 {
            for e in 0..g.levels()[level].table_len as u64 {
                let row: Vec<f32> = (0..features as u64)
                    .map(|c| exact_half(e * 13 + c * 331 + level as u64 * 5))
                    .collect();
                g.set_entry(level, e, &row);
            }
        }
        g
    }

    /// Feature `c` of entry `e` of `level`, widened.
    fn stored(g: &HashGrid, level: usize, e: u64, c: usize) -> f32 {
        widen_half(g.levels()[level].data[e as usize * g.cfg.features_per_entry + c])
    }

    /// The block gather on one named backend, over a NaN-filled matrix.
    fn gather_on(backend: Backend, g: &HashGrid, ps: &[Vec3], stride: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; g.cfg.levels * g.cfg.features_per_entry * stride];
        simd::run_on(
            backend,
            BlockGather {
                levels: &g.levels,
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
        // On 8-lane backends 7 = H + three 1-lane tails, 8 = W, 11 = W +
        // tails, 16 = two W, 28 = three W + H; on 16-lane ones 7 = Q + tails,
        // 8 = H, 11 = H + tails, 16 = W, 28 = W + H + Q.
        for features in [7, 8, 11, 16, 28] {
            let g = filled_grid(features);
            assert!(g.levels()[1].dense && !g.levels()[2].dense);
            testing::assert_matches_per_sample(
                &format!("{features} features"),
                g.bounds(),
                |backend, ps, stride| gather_on(backend, &g, ps, stride),
                |p, out| g.interpolate_into(p, out),
            );
        }
    }

    #[test]
    fn wide_block_interpolation_matches_scalar_bitwise() {
        // 11 features are one 8-lane group plus a 3-feature tail, across
        // dense and hashed levels.
        let g = filled_grid(11);
        let ps: Vec<Vec3> = (0..19)
            .map(|i| {
                let t = i as f32 * 0.53;
                Vec3::new(t.sin() * 1.1, (t * 2.3).cos() * 1.1, (t * 0.8).sin())
            })
            .collect();
        testing::assert_backends_agree(&ps, ps.len() + 1, |backend, ps, stride| {
            gather_on(backend, &g, ps, stride)
        });
    }

    /// Cells of a `res³` grid from a seeded xorshift, the far corner first.
    fn seeded_cells(res: u32, count: usize) -> impl Iterator<Item = [u32; 3]> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ res as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as u32 % res
        };
        std::iter::once([res - 1; 3]).chain((1..count).map(move |_| [next(), next(), next()]))
    }

    #[test]
    fn corner_entries_match_entry_index() {
        // The shared-factor u32 form against the public u64 oracle, on the
        // paper-scale table and on one small enough to wrap often.
        for g in [
            HashGrid::new(HashConfig::default(), Aabb::centered_cube(1.0)),
            grid(),
        ] {
            for (li, l) in g.levels().iter().enumerate() {
                for cell in seeded_cells(l.resolution as u32, 10_000) {
                    for (b, &e) in l.corner_entries(cell).iter().enumerate() {
                        let [x, y, z] = [0, 1, 2].map(|axis| cell[axis] + (b as u32 >> axis & 1));
                        assert_eq!(
                            e as u64,
                            g.entry_index(li, x, y, z),
                            "level {li} cell {cell:?} corner {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "indexable in u32")]
    fn oversized_table_is_rejected() {
        // 2³⁰ entries × 8 features overflow the u32 base index; the check
        // fires before anything is allocated.
        HashGrid::new(
            HashConfig {
                table_size_log2: 30,
                ..Default::default()
            },
            Aabb::centered_cube(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "exact in f32")]
    fn oversized_resolution_is_rejected() {
        HashGrid::new(
            HashConfig {
                base_resolution: 16,
                max_resolution: (1 << 24) + 1,
                ..Default::default()
            },
            Aabb::centered_cube(1.0),
        );
    }

    #[test]
    fn coarse_levels_dense_fine_levels_hashed() {
        let g = grid();
        // 4³ grid: 125 vertices <= 1024 → dense. 32³: 35937 > 1024 → hashed.
        assert!(g.levels()[0].dense);
        assert!(!g.levels()[3].dense);
        assert!(g.first_hashed_level() > 0);
        assert!(g.first_hashed_level() < 4);
    }

    #[test]
    fn default_config_reverts_at_level_five() {
        // The paper: Instant-NGP reverts to non-streaming "from level 5 (out
        // of 8 levels) onwards". With T=2^19 and growth 16→256, level 4
        // (res 78, 79³ ≈ 493k ≤ 524k) is the last dense level.
        let g = HashGrid::new(HashConfig::default(), Aabb::centered_cube(1.0));
        assert_eq!(g.config().levels, 8);
        assert_eq!(g.first_hashed_level(), 5, "paper's level-5 reversion");
    }

    #[test]
    fn hash_stays_in_table() {
        let g = grid();
        for v in 0..100u32 {
            let e = g.entry_index(3, v * 7, v * 13, v * 29);
            assert!((e as usize) < g.levels()[3].table_len);
        }
    }

    #[test]
    fn dense_entry_is_vertex_index() {
        let g = grid();
        let n = (g.levels()[0].resolution + 1) as u64;
        assert_eq!(g.entry_index(0, 1, 2, 3), (3 * n + 2) * n + 1);
    }

    #[test]
    fn vertex_write_read_roundtrip() {
        let mut g = grid();
        let e = g.entry_index(1, 2, 2, 2);
        g.set_entry(1, e, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(stored(&g, 1, e, 2), 3.0);
        // A value between two halves is stored as the nearer one.
        g.set_entry(1, e, &[1.0 + 1.0 / 4096.0]);
        assert_eq!(stored(&g, 1, e, 0), 1.0);
        assert_eq!(
            stored(&g, 1, e, 1),
            2.0,
            "only the values given are written"
        );
    }

    #[test]
    fn storage_matches_pricing() {
        // What the memory model prices is what is stored: 36.7 MB of
        // halves on the default configuration, half the f32 tables.
        let g = HashGrid::new(HashConfig::default(), Aabb::centered_cube(1.0));
        let stored: usize = g
            .levels()
            .iter()
            .map(|l| std::mem::size_of_val(l.data.as_slice()))
            .sum();
        assert_eq!(g.storage_bytes(), stored as u64);
        let level_sum: u64 = (0..g.levels().len()).map(|l| g.level_bytes(l)).sum();
        assert_eq!(level_sum, stored as u64);
        assert!(
            (36.6e6..36.8e6).contains(&(stored as f64)),
            "{stored} bytes"
        );
    }

    /// `check` refuses exactly what `new` cannot build, at the edges: the
    /// largest 7-feature table indexable in `u32` is 2²⁹ entries (3.76 G
    /// values), and a feature count whose table overflows is refused, not
    /// wrapped.
    #[test]
    fn check_refuses_what_new_cannot_build() {
        let base = *grid().config();
        let with = |edit: fn(&mut HashConfig)| {
            let mut cfg = base;
            edit(&mut cfg);
            cfg
        };
        let ok = [
            base,
            HashConfig::default(),
            with(|c| (c.levels, c.base_resolution, c.max_resolution) = (1, 1, 1)),
            with(|c| c.max_resolution = 1 << 24),
            with(|c| c.table_size_log2 = 29),
        ];
        for cfg in ok {
            assert_eq!(cfg.check(), Ok(()), "{cfg:?}");
        }
        let bad = [
            (with(|c| c.levels = 0), "levels 0"),
            (with(|c| c.base_resolution = 0), "base_resolution 0"),
            (with(|c| c.max_resolution = 3), "below base_resolution 4"),
            (with(|c| c.max_resolution = (1 << 24) + 1), "exact in f32"),
            (with(|c| c.features_per_entry = 6), "features_per_entry 6"),
            (with(|c| c.bytes_per_feature = 4), "bytes_per_feature 4"),
            (with(|c| c.bytes_per_feature = 0), "bytes_per_feature 0"),
            (with(|c| c.table_size_log2 = 30), "indexable in u32"),
            (with(|c| c.table_size_log2 = 32), "indexable in u32"),
            (
                with(|c| c.features_per_entry = usize::MAX),
                "indexable in u32",
            ),
        ];
        for (cfg, why) in bad {
            let msg = cfg.check().expect_err("refused");
            assert!(msg.contains(why), "{cfg:?}: {msg}");
        }
    }

    /// What the memory model prices is what is stored, on the small grid
    /// too (the default configuration is `storage_matches_pricing`).
    #[test]
    fn storage_bytes_are_the_bytes_held() {
        let g = grid();
        for (li, l) in g.levels().iter().enumerate() {
            let held = std::mem::size_of_val(l.data.as_slice()) as u64;
            assert_eq!(g.level_bytes(li), held, "level {li}");
        }
        let held: usize = g
            .levels()
            .iter()
            .map(|l| std::mem::size_of_val(l.data.as_slice()))
            .sum();
        assert_eq!(g.storage_bytes(), held as u64);
    }

    #[test]
    #[should_panic(
        expected = "invalid hash configuration: bytes_per_feature 4: rows are stored as halves"
    )]
    fn other_feature_widths_are_rejected() {
        HashGrid::new(
            HashConfig {
                bytes_per_feature: 4,
                ..Default::default()
            },
            Aabb::centered_cube(1.0),
        );
    }

    #[test]
    fn interpolation_at_vertex_recovers_entry() {
        let mut g = grid();
        let e = g.entry_index(0, 2, 2, 2);
        g.set_entry(0, e, &[9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let p = g.vertex_position(0, 2, 2, 2);
        let mut out = vec![0.0; 7];
        g.interpolate_level_into(0, p, &mut out);
        // Finer levels' vertices at the same position may collide in dense
        // tables only if written; here only level 0 holds data.
        assert!((out[0] - 9.0).abs() < 1e-4);
    }

    #[test]
    fn reconstruct_sums_levels() {
        let mut g = grid();
        let p = Vec3::new(0.1, 0.2, -0.3);
        // Write constant 1.0 into signal 0 of every entry of levels 0 and 1.
        for level in 0..2 {
            for e in 0..g.levels()[level].table_len as u64 {
                g.set_entry(level, e, &[1.0]);
            }
        }
        let s = g.reconstruct_signals(p, 2);
        assert!((s[0] - 2.0).abs() < 1e-4, "{}", s[0]);
        let s1 = g.reconstruct_signals(p, 1);
        assert!((s1[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn block_interpolation_matches_scalar_bitwise() {
        let mut g = grid();
        for level in 0..4 {
            for e in 0..g.levels()[level].table_len as u64 {
                let row = (0..7).map(|c| exact_half(e * 7 + level as u64 * 13 + c * 331));
                g.set_entry(level, e, &row.collect::<Vec<_>>());
            }
        }
        let ps: Vec<Vec3> = (0..11)
            .map(|i| {
                let t = i as f32 * 0.47;
                Vec3::new(
                    (t).cos() * 0.7,
                    (t * 1.3).sin() * 0.7,
                    (t * 0.6).cos() * 0.7,
                )
            })
            .collect();
        let stride = ps.len();
        let mut soa = vec![f32::NAN; 4 * 7 * stride];
        g.interpolate_block_into(&ps, &mut soa, stride);
        let mut scalar = Vec::new();
        for (s, &p) in ps.iter().enumerate() {
            g.interpolate_into(p, &mut scalar);
            for (c, &v) in scalar.iter().enumerate() {
                assert_eq!(soa[c * stride + s], v, "sample {s} feature {c}");
            }
        }
    }

    #[test]
    fn plan_marks_hashed_levels_non_dense() {
        let g = grid();
        let plan = g.gather_plan(Vec3::ZERO);
        assert_eq!(plan.levels.len(), 4);
        assert!(plan.levels[0].dense);
        assert!(!plan.levels[3].dense);
        assert_eq!(plan.levels[0].region, RegionId(0));
        assert_eq!(plan.levels[3].region, RegionId(3));
    }

    #[test]
    fn storage_respects_table_cap() {
        let g = grid();
        let per_entry = 7 * 2;
        let expected: u64 = g
            .levels()
            .iter()
            .map(|l| l.table_len as u64 * per_entry as u64)
            .sum();
        assert_eq!(g.storage_bytes(), expected);
        // Hashed level capped at table_len.
        assert_eq!(g.levels()[3].table_len, 1024);
    }
}
