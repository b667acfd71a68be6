//! Feature encodings: the data structures Feature Gathering reads.
//!
//! Three families cover the paper's evaluation matrix (§V, "NeRF Algorithms"):
//! dense voxel grids (DirectVoxGO), multi-resolution hash tables (Instant-NGP)
//! and factorized tensors (TensoRF).

pub mod grid;
pub mod hash;
pub mod tensor;

use crate::simd::{Lanes, MAX_LANES};
use cicero_math::{Aabb, Vec3};

/// Trilinear interpolation weights for a fractional cell position.
///
/// Returns the eight corner weights in `(dx, dy, dz)` binary order:
/// index `b` weights corner `(b&1, (b>>1)&1, (b>>2)&1)`.
pub(crate) fn trilinear_weights(fx: f32, fy: f32, fz: f32) -> [f32; 8] {
    let (gx, gy, gz) = (1.0 - fx, 1.0 - fy, 1.0 - fz);
    [
        gx * gy * gz,
        fx * gy * gz,
        gx * fy * gz,
        fx * fy * gz,
        gx * gy * fz,
        fx * gy * fz,
        gx * fy * fz,
        fx * fy * fz,
    ]
}

/// Splits a continuous grid coordinate into (cell, fraction), clamping so the
/// cell has a valid `+1` neighbor in a grid with `cells` cells per axis.
///
/// The clamp leaves nothing below zero, so truncation is the floor — and an
/// inline conversion where `f32::floor` is a libm call on baseline x86_64.
#[inline(always)]
pub(crate) fn cell_fraction(u: f32, cells: u32) -> (u32, f32) {
    let clamped = u.clamp(0.0, cells as f32 - 1e-4);
    let cell = (clamped as u32).min(cells - 1);
    (cell, clamped - cell as f32)
}

/// The 8 corners of a cell from its per-axis terms (`[at the cell, one on]`),
/// corner `b` at `(b&1, (b>>1)&1, (b>>2)&1)`: each term is computed once
/// for the four corners that share it.
#[inline(always)]
fn corners(x: [u32; 2], y: [u32; 2], z: [u32; 2], join: impl Fn(u32, u32, u32) -> u32) -> [u32; 8] {
    std::array::from_fn(|b| join(x[b & 1], y[b >> 1 & 1], z[b >> 2]))
}

/// How a level turns the 8 corner vertices of a cell into entry indices.
/// The chunk pass ([`IndexPass::fill`]) and the per-sample oracles
/// ([`dense_corners`], `HashLevel::corner_entries`) both read it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Addressing {
    /// The vertex index `(z·n + y)·n + x` in a grid of `n` vertices per
    /// axis.
    Dense { n: u32 },
    /// Instant-NGP's spatial hash `x·π₁ ⊕ y·π₂ ⊕ z·π₃` in `u32`, wrapped to
    /// the table by the power-of-two `mask`.
    Hashed { mask: u32 },
}

impl Addressing {
    /// Entry indices of the 8 corners of cell `c`, corner `b` at
    /// `(b&1, (b>>1)&1, (b>>2)&1)`: the per-sample oracle of the chunk
    /// pass's corner offsets. Hashed, the low 32 bits of the `u64` products
    /// are the `u32` products, and the mask keeps only low bits.
    #[inline(always)]
    pub(crate) fn corners(self, [cx, cy, cz]: [u32; 3]) -> [u32; 8] {
        let term = |c: u32, f: u32| [c.wrapping_mul(f), (c + 1).wrapping_mul(f)];
        let x = [cx, cx + 1];
        match self {
            Addressing::Dense { n } => {
                corners(x, term(cy, n), term(cz, n * n), |x, y, z| z + y + x)
            }
            Addressing::Hashed { mask } => {
                let [_, p1, p2] = hash::PRIMES.map(|p| p as u32);
                corners(x, term(cy, p1), term(cz, p2), |x, y, z| (x ^ y ^ z) & mask)
            }
        }
    }
}

/// Dense vertex indices `(z·n + y)·n + x` of the corners of cell `c` in a
/// grid of `n` vertices per axis.
#[inline(always)]
pub(crate) fn dense_corners(n: u32, cell: [u32; 3]) -> [u32; 8] {
    Addressing::Dense { n }.corners(cell)
}

/// Samples per chunk of a block gather. A chunk's positions are normalised
/// once for all levels, and a level's index pass fills stack arrays this
/// long before its accumulate pass reads any entry row.
pub(crate) const CHUNK: usize = 16;

/// A chunk's positions normalised into `bounds`, one array per axis (the
/// tail stays zero).
#[inline(always)]
pub(crate) fn normalize_chunk(bounds: &Aabb, chunk: &[Vec3]) -> [[f32; CHUNK]; 3] {
    let mut ns = [[0.0f32; CHUNK]; 3];
    for (s, &p) in chunk.iter().enumerate() {
        let n = bounds.normalize(p);
        (ns[0][s], ns[1][s], ns[2][s]) = (n.x, n.y, n.z);
    }
    ns
}

/// One level's index pass over a chunk, run across its samples: lane `s`
/// of every array is sample `s`.
struct IndexPass {
    /// Per axis, the cell of [`cell_fraction`].
    cells: [[u32; CHUNK]; 3],
    /// Per axis, the fraction of [`cell_fraction`].
    fractions: [[f32; CHUNK]; 3],
    /// Per corner, the weight of [`trilinear_weights`].
    weights: [[f32; CHUNK]; 8],
    /// Per corner, the first feature of its entry row: entry × width.
    offsets: [[u32; CHUNK]; 8],
}

impl IndexPass {
    /// All lanes zero, ready for [`IndexPass::fill`].
    const ZERO: IndexPass = IndexPass {
        cells: [[0; CHUNK]; 3],
        fractions: [[0.0; CHUNK]; 3],
        weights: [[0.0; CHUNK]; 8],
        offsets: [[0; CHUNK]; 8],
    };

    /// The pass over grid coordinates `g` (per axis, normalised × cells) on
    /// a lattice of `cells` cells per axis whose entries hold `width`
    /// features. Every lane is computed, the chunk's zero tail too.
    ///
    /// The cell split is [`Lanes::cell_fraction`] and the weights are
    /// [`trilinear_weights`]' products, each a `W` op on `W::N` samples.
    /// The corner offsets are [`Addressing::corners`], `u32` code, in a
    /// loop over the chunk's samples that the compiler vectorises across
    /// them in each backend's trampoline (`vpmulld` on `zmm` in the
    /// AVX-512 one).
    #[inline(always)]
    fn fill<W: Lanes>(&mut self, g: &[[f32; CHUNK]; 3], cells: u32, at: Addressing, width: u32) {
        const { assert!(CHUNK.is_multiple_of(W::N)) };
        let one = W::splat(1.0);
        for s in (0..CHUNK).step_by(W::N) {
            // Per axis `[1 - f, f]`: the weight factor of the cell's vertex
            // and of the one after it.
            let mut factors = [[one; 2]; 3];
            for axis in 0..3 {
                let f = W::load(&g[axis][s..]).cell_fraction(cells, &mut self.cells[axis][s..]);
                f.store(&mut self.fractions[axis][s..]);
                factors[axis] = [one.sub(f), f];
            }
            let [x, y, z] = factors;
            let xy = [
                x[0].mul(y[0]),
                x[1].mul(y[0]),
                x[0].mul(y[1]),
                x[1].mul(y[1]),
            ];
            for (b, weights) in self.weights.iter_mut().enumerate() {
                xy[b & 3].mul(z[b >> 2]).store(&mut weights[s..]);
            }
        }
        // One closure per variant, so the loop over lanes has no branch.
        match at {
            Addressing::Dense { n } => self.offsets(width, |c| Addressing::Dense { n }.corners(c)),
            Addressing::Hashed { mask } => {
                self.offsets(width, |c| Addressing::Hashed { mask }.corners(c))
            }
        }
    }

    /// Every lane's corner offsets: its cell's `corners`, times `width`.
    #[inline(always)]
    fn offsets(&mut self, width: u32, corners: impl Fn([u32; 3]) -> [u32; 8]) {
        for s in 0..CHUNK {
            let entries = corners([0, 1, 2].map(|axis| self.cells[axis][s]));
            for (offsets, e) in self.offsets.iter_mut().zip(entries) {
                offsets[s] = e * width;
            }
        }
    }
}

/// One trilinear level of a block gather over the first `len` samples of
/// a chunk of normalised positions `ns`: feature `c` of sample `s` goes to
/// `rows[c * stride + s]`.
///
/// `data` holds `width` features per entry, entry-major, stored as IEEE
/// halves, over a grid of `cells` cells per axis, addressed by `at`. The [`IndexPass`] runs across
/// the chunk's samples; the accumulate pass then loads entry rows, per
/// lane group of features and sample. Per sample this is the per-sample
/// oracle's sequence — same cell split, same weights, accumulators from
/// 0.0 adding `weight * feature` in ascending corner order, zero weights
/// skipped — so it is bit-identical to it on every [`Lanes`] backend.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gather_level<W: Lanes, H: Lanes, Q: Lanes>(
    data: &[u16],
    width: usize,
    cells: u32,
    at: Addressing,
    ns: &[[f32; CHUNK]; 3],
    len: usize,
    rows: &mut [f32],
    stride: usize,
) {
    let mut g = [[0.0f32; CHUNK]; 3];
    let scale = W::splat(cells as f32);
    for (g, ns) in g.iter_mut().zip(ns) {
        for s in (0..CHUNK).step_by(W::N) {
            W::load(&ns[s..]).mul(scale).store(&mut g[s..]);
        }
    }
    let mut pass = IndexPass::ZERO;
    pass.fill::<W>(&g, cells, at, width as u32);
    let mut tile = [[0.0f32; MAX_LANES]; CHUNK];
    let mut c = 0;
    while c + W::N <= width {
        accumulate::<W>(data, &pass, len, c, &mut tile, rows, stride);
        c += W::N;
    }
    if c + H::N <= width {
        accumulate::<H>(data, &pass, len, c, &mut tile, rows, stride);
        c += H::N;
    }
    if c + Q::N <= width {
        accumulate::<Q>(data, &pass, len, c, &mut tile, rows, stride);
        c += Q::N;
    }
    while c < width {
        accumulate::<[f32; 1]>(data, &pass, len, c, &mut tile, rows, stride);
        c += 1;
    }
}

/// Features `c..c + V::N` of the first `len` samples of a chunk: per
/// sample the weighted sum of its 8 entry rows, one widening vector load
/// ([`Lanes::load_half`]) per live corner, staged in `tile`; then each of
/// the `V::N` feature rows is written contiguously.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn accumulate<V: Lanes>(
    data: &[u16],
    pass: &IndexPass,
    len: usize,
    c: usize,
    tile: &mut [[f32; MAX_LANES]; CHUNK],
    rows: &mut [f32],
    stride: usize,
) {
    const { assert!(V::N <= MAX_LANES) };
    for (s, lanes) in tile.iter_mut().enumerate().take(len) {
        let mut acc = V::splat(0.0);
        for (weights, offsets) in pass.weights.iter().zip(&pass.offsets) {
            let weight = weights[s];
            if weight != 0.0 {
                let row = &data[offsets[s] as usize + c..];
                acc = acc.add_mul(V::splat(weight), V::load_half(row));
            }
        }
        acc.store(lanes);
    }
    for dc in 0..V::N {
        let row = &mut rows[(c + dc) * stride..][..len];
        for (v, lanes) in row.iter_mut().zip(tile.iter()) {
            *v = lanes[dc];
        }
    }
}

/// What the three encodings' block-gather tests share. A gather under test
/// is a closure `(backend, positions, stride) -> matrix` that runs the
/// encoding's kernel over a NaN-filled SoA matrix.
#[cfg(test)]
pub(crate) mod testing {
    use crate::simd::Backend;
    use cicero_math::{Aabb, Vec3};

    /// Every backend this build can run on this host; the others get a
    /// skip note.
    fn backends() -> Vec<Backend> {
        let (run, skip): (Vec<_>, Vec<_>) = Backend::ALL.into_iter().partition(|b| b.supported());
        for b in skip {
            println!("skipping {b:?}: not supported in this build on this host");
        }
        run
    }

    /// `k` positions cycling through: inside the bounds, outside them, on a
    /// vertex of every resolution (`bounds.min`: all-zero fractions, so
    /// seven zero weights), on a vertex of even resolutions (the centre),
    /// at `bounds.max` (the clamped last cell), and inside with one
    /// non-finite or negative-zero coordinate ([`odd_coordinate`]). The
    /// cycle starts at `k`, so short blocks between them still see every
    /// kind.
    fn positions(bounds: Aabb, k: usize) -> Vec<Vec3> {
        let (centre, half) = ((bounds.min + bounds.max) * 0.5, bounds.size() * 0.5);
        (k..2 * k)
            .map(|i| {
                let t = i as f32 * 0.53;
                let (x, y, z) = (t.sin(), (t * 2.3).cos(), (t * 0.8).sin());
                let offset = Vec3::new(x * half.x, y * half.y, z * half.z);
                match i % 8 {
                    0 => centre + offset * 0.9,
                    1 => centre + offset * 1.7,
                    2 => bounds.min,
                    3 => centre,
                    4 => bounds.max,
                    kind => odd_coordinate(centre + offset * 0.9, kind - 5),
                }
            })
            .collect()
    }

    /// `p` with one coordinate replaced, by `kind` 0, 1 or 2: x by NaN,
    /// y by +∞ (−∞ if `p.x < 0`), z by −0.0.
    fn odd_coordinate(mut p: Vec3, kind: usize) -> Vec3 {
        match kind {
            0 => p.x = f32::NAN,
            1 => p.y = f32::INFINITY.copysign(p.x),
            _ => p.z = -0.0,
        }
        p
    }

    /// Holds `gather` to the per-sample `oracle`, bit for bit, on every
    /// supported backend × block sizes below, at and across the 4-, 8- and
    /// 16-lane groups and the 16-sample chunk, with `stride > k` and the
    /// padding columns left untouched.
    pub fn assert_matches_per_sample(
        what: &str,
        bounds: Aabb,
        gather: impl Fn(Backend, &[Vec3], usize) -> Vec<f32>,
        oracle: impl Fn(Vec3, &mut Vec<f32>),
    ) {
        let mut expected = Vec::new();
        for backend in backends() {
            for k in [1, 3, 4, 5, 8, 13, 16, 17, 33, 64] {
                let ps = positions(bounds, k);
                let stride = k + 3;
                let out = gather(backend, &ps, stride);
                for (s, &p) in ps.iter().enumerate() {
                    oracle(p, &mut expected);
                    for (row, &v) in expected.iter().enumerate() {
                        assert_eq!(
                            out[row * stride + s].to_bits(),
                            v.to_bits(),
                            "{what}, {backend:?}, block {k}, sample {s}, row {row}"
                        );
                    }
                }
                let padding = out.chunks(stride).flat_map(|row| &row[k..]);
                assert!(
                    padding.copied().all(f32::is_nan),
                    "{what}: wrote past the block"
                );
            }
        }
    }

    /// Backend against backend on one block, no per-sample oracle in
    /// between: every supported instance must equal the portable one. The
    /// block is `ps` and then three positions from its first one, each with
    /// one odd coordinate (NaN, ±∞, −0.0).
    pub fn assert_backends_agree(
        ps: &[Vec3],
        stride: usize,
        gather: impl Fn(Backend, &[Vec3], usize) -> Vec<f32>,
    ) {
        let odd = (0..3).map(|kind| odd_coordinate(ps[0], kind));
        let ps: Vec<Vec3> = ps.iter().copied().chain(odd).collect();
        let stride = stride + 3;
        let bits = |out: Vec<f32>| out.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let scalar = bits(gather(Backend::Portable, &ps, stride));
        for backend in backends() {
            assert_eq!(bits(gather(backend, &ps, stride)), scalar, "{backend:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::hash::{HashConfig, HashGrid};
    use crate::simd::{self, Backend, Kernel};
    use proptest::prelude::*;

    /// Cases of the index pass's property test; its `_10x` twin runs ten
    /// times as many.
    const PASS_CASES: u32 = 256;

    /// [`IndexPass::fill`] on one backend.
    struct FillPass<'a> {
        g: &'a [[f32; CHUNK]; 3],
        cells: u32,
        at: Addressing,
        width: u32,
        pass: &'a mut IndexPass,
    }

    impl Kernel for FillPass<'_> {
        #[inline(always)]
        fn run<W: Lanes, H: Lanes, Q: Lanes>(self) {
            self.pass.fill::<W>(self.g, self.cells, self.at, self.width);
        }
    }

    /// One chunk of grid coordinates on a `cells` lattice: the edge values
    /// — NaN, ±∞, ±0.0, ±`f32::MIN_POSITIVE`, `cells − 1e-4` and one ulp
    /// either side, `cells − 1`, `cells` — then draws from a wide range and
    /// from the lattice, the 48 values dealt out to the 48 lanes from
    /// `start` in steps of `step` (prime to 48, so each lane gets one).
    fn coordinates(
        cells: u32,
        wide: &[f32],
        inside: &[f32],
        start: usize,
        step: usize,
    ) -> [[f32; CHUNK]; 3] {
        let (edge, n) = (cells as f32 - 1e-4, cells as f32);
        let mut values = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            edge,
            edge.next_up(),
            edge.next_down(),
            n - 1.0,
            n,
        ];
        values.extend(wide);
        values.extend(inside.iter().map(|u| u * n));
        assert_eq!(values.len(), 3 * CHUNK);
        let mut g = [[0.0; CHUNK]; 3];
        for (i, &v) in values.iter().enumerate() {
            let lane = (start + i * step) % (3 * CHUNK);
            g[lane / CHUNK][lane % CHUNK] = v;
        }
        g
    }

    /// The index pass on every supported backend, lane by lane, against
    /// the per-sample oracles bit for bit: `cell_fraction`'s cells and
    /// fractions, `trilinear_weights`, and the corner entries of
    /// `dense_corners` or `HashLevel::corner_entries` times the width. The
    /// hashed level's table is smaller than its lattice, so it hashes.
    fn index_pass_matches_oracles(
        wide: &[f32],
        inside: &[f32],
        pick: usize,
        start: usize,
        step: usize,
    ) {
        let cells = [1u32, 2, 78, 256][pick % 4];
        let width = [8u32, 11][pick / 4 % 2];
        let step = [1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47][step];
        let g = coordinates(cells, wide, inside, start, step);
        let hashed = HashGrid::new(
            HashConfig {
                levels: 1,
                base_resolution: cells as usize,
                max_resolution: cells as usize,
                table_size_log2: if cells < 10 { 2 } else { 12 },
                ..Default::default()
            },
            Aabb::centered_cube(1.0),
        );
        let level = &hashed.levels()[0];
        assert!(!level.dense);
        let dense = Addressing::Dense { n: cells + 1 };
        check_pass(&g, cells, width, dense, |c| dense_corners(cells + 1, c));
        check_pass(&g, cells, width, level.addressing(), |c| {
            level.corner_entries(c)
        });
    }

    /// [`IndexPass::fill`] of `g` on every supported backend, each lane held
    /// to `cell_fraction`, `trilinear_weights` and `oracle` times `width`.
    #[allow(clippy::needless_range_loop)]
    fn check_pass(
        g: &[[f32; CHUNK]; 3],
        cells: u32,
        width: u32,
        at: Addressing,
        oracle: impl Fn([u32; 3]) -> [u32; 8],
    ) {
        for backend in Backend::ALL.into_iter().filter(|b| b.supported()) {
            let mut pass = IndexPass::ZERO;
            let kernel = FillPass {
                g,
                cells,
                at,
                width,
                pass: &mut pass,
            };
            simd::run_on(backend, kernel);
            for s in 0..CHUNK {
                let split = [0, 1, 2].map(|axis| cell_fraction(g[axis][s], cells));
                for (axis, &(cell, fraction)) in split.iter().enumerate() {
                    let (u, got) = (g[axis][s], pass.fractions[axis][s]);
                    let at = (backend, at, cells, s, axis, u);
                    assert_eq!(pass.cells[axis][s], cell, "{at:?}");
                    assert_eq!(got.to_bits(), fraction.to_bits(), "{at:?}");
                }
                let weights = trilinear_weights(split[0].1, split[1].1, split[2].1);
                let entries = oracle(split.map(|(cell, _)| cell));
                for b in 0..8 {
                    let at = (backend, at, cells, s, b);
                    assert_eq!(pass.weights[b][s].to_bits(), weights[b].to_bits(), "{at:?}");
                    assert_eq!(pass.offsets[b][s], entries[b] * width, "{at:?}");
                }
            }
        }
    }

    /// `cell_fraction` as it was, with the libm floor.
    fn cell_fraction_floor(u: f32, cells: u32) -> (u32, f32) {
        let clamped = u.clamp(0.0, cells as f32 - 1e-4);
        let cell = (clamped.floor() as u32).min(cells - 1);
        (cell, clamped - cell as f32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Truncation gives the floor's cell and fraction bit for bit:
        /// nothing below zero survives the clamp.
        #[test]
        fn truncated_cell_is_the_floored_cell(
            wide in -1e6f32..1e6,
            near in -2e-4f32..2e-4,
            tiny in -1e-38f32..1e-38,
            pick in 0usize..5,
        ) {
            let cells = [1u32, 2, 78, 256, 4096][pick];
            let edge = cells as f32;
            for u in [
                wide, tiny, edge + near, near, 0.0, -0.0, edge - 1e-4, edge + 1e-4,
                f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MIN_POSITIVE, -f32::MIN_POSITIVE,
                wide.rem_euclid(edge), (wide * 1e-3).rem_euclid(edge),
            ] {
                let (cell, fraction) = cell_fraction(u, cells);
                let (floor_cell, floor_fraction) = cell_fraction_floor(u, cells);
                prop_assert_eq!(cell, floor_cell, "u = {u}, cells = {cells}");
                prop_assert_eq!(fraction.to_bits(), floor_fraction.to_bits(), "u = {u}, cells = {cells}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(PASS_CASES))]

        /// The chunk's index pass is the per-sample oracles, lane by lane,
        /// on every backend.
        #[test]
        fn index_pass_is_the_per_sample_oracles(
            wide in prop::collection::vec(-1e6f32..1e6, 18..19),
            inside in prop::collection::vec(-0.5f32..1.5, 18..19),
            pick in 0usize..8,
            start in 0usize..48,
            step in 0usize..16,
        ) {
            index_pass_matches_oracles(&wide, &inside, pick, start, step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10 * PASS_CASES))]

        /// The same with ten times the cases; CI runs it in release.
        #[test]
        #[ignore = "slow unoptimized: CI runs it in the release-mode SIMD step"]
        fn index_pass_is_the_per_sample_oracles_10x(
            wide in prop::collection::vec(-1e6f32..1e6, 18..19),
            inside in prop::collection::vec(-0.5f32..1.5, 18..19),
            pick in 0usize..8,
            start in 0usize..48,
            step in 0usize..16,
        ) {
            index_pass_matches_oracles(&wide, &inside, pick, start, step);
        }
    }

    #[test]
    fn dense_corners_are_the_nested_vertex_index() {
        let n = 79u32;
        for cell in [[0, 0, 0], [3, 77, 12], [77, 77, 77]] {
            for (b, &e) in dense_corners(n, cell).iter().enumerate() {
                let [x, y, z] = [0, 1, 2].map(|axis| cell[axis] + (b as u32 >> axis & 1));
                assert_eq!(e, (z * n + y) * n + x, "cell {cell:?} corner {b}");
            }
        }
    }

    #[test]
    fn zero_weight_corners_are_skipped_not_multiplied() {
        // A sample on vertex 0 of a 2-cell level weights corner 0 alone;
        // the other rows hold inf, and 0 × inf would be NaN.
        let mut data = [simd::round_to_half(f32::INFINITY); 27];
        data[0] = simd::round_to_half(3.0);
        let mut rows = [f32::NAN];
        let (at, ns) = (Addressing::Dense { n: 3 }, [[0.0; CHUNK]; 3]);
        gather_level::<[f32; 8], [f32; 4], [f32; 4]>(&data, 1, 2, at, &ns, 1, &mut rows, 1);
        assert_eq!(rows, [3.0]);
    }

    #[test]
    fn weights_sum_to_one() {
        let w = trilinear_weights(0.3, 0.7, 0.1);
        let sum: f32 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn corner_weights_are_one_hot() {
        let w = trilinear_weights(0.0, 0.0, 0.0);
        assert!((w[0] - 1.0).abs() < 1e-6);
        let w = trilinear_weights(1.0, 1.0, 1.0);
        assert!((w[7] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cell_fraction_clamps_to_last_cell() {
        let (c, f) = cell_fraction(7.999, 8);
        assert_eq!(c, 7);
        assert!(f > 0.9);
        let (c, f) = cell_fraction(9.5, 8);
        assert_eq!(c, 7);
        assert!(f < 1.0);
        let (c, _) = cell_fraction(-2.0, 8);
        assert_eq!(c, 0);
    }
}
