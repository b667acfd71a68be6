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
pub(crate) fn corners(
    x: [u32; 2],
    y: [u32; 2],
    z: [u32; 2],
    join: impl Fn(u32, u32, u32) -> u32,
) -> [u32; 8] {
    std::array::from_fn(|b| join(x[b & 1], y[b >> 1 & 1], z[b >> 2]))
}

/// Dense vertex indices `(z·n + y)·n + x` of the corners of cell `c` in a
/// grid of `n` vertices per axis.
#[inline(always)]
pub(crate) fn dense_corners(n: u32, [cx, cy, cz]: [u32; 3]) -> [u32; 8] {
    let (y, z) = ([cy * n, (cy + 1) * n], [cz * n * n, (cz + 1) * n * n]);
    corners([cx, cx + 1], y, z, |x, y, z| z + y + x)
}

/// Samples per chunk of a block gather. A chunk's positions are normalised
/// once for all levels, and a level's index pass fills stack arrays this
/// long before its accumulate pass reads any entry row.
pub(crate) const CHUNK: usize = 16;

/// A chunk's positions normalised into `bounds` (the tail stays zero).
#[inline(always)]
pub(crate) fn normalize_chunk(bounds: &Aabb, chunk: &[Vec3]) -> [Vec3; CHUNK] {
    let mut ns = [Vec3::ZERO; CHUNK];
    for (n, &p) in ns.iter_mut().zip(chunk) {
        *n = bounds.normalize(p);
    }
    ns
}

/// One trilinear level of a block gather over a chunk of normalised
/// positions `ns`: feature `c` of sample `s` goes to `rows[c * stride + s]`.
///
/// `data` holds `width` features per entry, entry-major, over a grid of
/// `cells` cells per axis; `corners` maps a cell to its 8 entry indices.
/// Per sample this is the per-sample oracle's sequence — same cell split,
/// same weights, accumulators from 0.0 adding `weight * feature` in
/// ascending corner order, zero weights skipped — so it is bit-identical
/// to it on every [`Lanes`] backend.
#[inline(always)]
pub(crate) fn gather_level<W: Lanes, H: Lanes, Q: Lanes>(
    data: &[f32],
    width: usize,
    cells: u32,
    ns: &[Vec3],
    corners: impl Fn([u32; 3]) -> [u32; 8],
    rows: &mut [f32],
    stride: usize,
) {
    let mut bases = [[0u32; 8]; CHUNK];
    let mut weights = [[0.0f32; 8]; CHUNK];
    for (s, &n) in ns.iter().enumerate() {
        let g = n * cells as f32;
        let (cx, fx) = cell_fraction(g.x, cells);
        let (cy, fy) = cell_fraction(g.y, cells);
        let (cz, fz) = cell_fraction(g.z, cells);
        weights[s] = trilinear_weights(fx, fy, fz);
        bases[s] = corners([cx, cy, cz]).map(|e| e * width as u32);
    }
    for s in 0..ns.len() {
        let (bases, weights, out) = (&bases[s], &weights[s], &mut rows[s..]);
        let mut c = 0;
        while c + W::N <= width {
            blend::<W>(data, bases, weights, c, out, stride);
            c += W::N;
        }
        if c + H::N <= width {
            blend::<H>(data, bases, weights, c, out, stride);
            c += H::N;
        }
        if c + Q::N <= width {
            blend::<Q>(data, bases, weights, c, out, stride);
            c += Q::N;
        }
        while c < width {
            blend::<[f32; 1]>(data, bases, weights, c, out, stride);
            c += 1;
        }
    }
}

/// Features `c..c + V::N` of one sample: the weighted sum of its 8 entry
/// rows, one vector load per live corner, scattered down `out`'s column.
#[inline(always)]
fn blend<V: Lanes>(
    data: &[f32],
    bases: &[u32; 8],
    weights: &[f32; 8],
    c: usize,
    out: &mut [f32],
    stride: usize,
) {
    const { assert!(V::N <= MAX_LANES) };
    let mut acc = V::splat(0.0);
    for (&base, &weight) in bases.iter().zip(weights) {
        if weight != 0.0 {
            acc = acc.add_mul(V::splat(weight), V::load(&data[base as usize + c..]));
        }
    }
    let mut lanes = [0.0f32; MAX_LANES];
    acc.store(&mut lanes);
    for (dc, &v) in lanes[..V::N].iter().enumerate() {
        out[(c + dc) * stride] = v;
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
    /// and at `bounds.max` (the clamped last cell). The cycle starts at
    /// `k`, so short blocks between them still see every kind.
    fn positions(bounds: Aabb, k: usize) -> Vec<Vec3> {
        let (centre, half) = ((bounds.min + bounds.max) * 0.5, bounds.size() * 0.5);
        (k..2 * k)
            .map(|i| {
                let t = i as f32 * 0.53;
                let (x, y, z) = (t.sin(), (t * 2.3).cos(), (t * 0.8).sin());
                let offset = Vec3::new(x * half.x, y * half.y, z * half.z);
                match i % 5 {
                    0 => centre + offset * 0.9,
                    1 => centre + offset * 1.7,
                    2 => bounds.min,
                    3 => centre,
                    _ => bounds.max,
                }
            })
            .collect()
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
    /// between: every supported instance must equal the portable one.
    pub fn assert_backends_agree(
        ps: &[Vec3],
        stride: usize,
        gather: impl Fn(Backend, &[Vec3], usize) -> Vec<f32>,
    ) {
        let bits = |out: Vec<f32>| out.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let scalar = bits(gather(Backend::Portable, ps, stride));
        for backend in backends() {
            assert_eq!(bits(gather(backend, ps, stride)), scalar, "{backend:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let mut data = [f32::INFINITY; 27];
        data[0] = 3.0;
        let mut rows = [f32::NAN];
        let corners = |cell| dense_corners(3, cell);
        let ns = [Vec3::ZERO];
        gather_level::<[f32; 8], [f32; 4], [f32; 4]>(&data, 1, 2, &ns, corners, &mut rows, 1);
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
