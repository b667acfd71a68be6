//! Coarse occupancy grids for empty-space skipping.
//!
//! All three model families (and the baseline GPU renderer) prune ray samples
//! in known-empty space during Indexing, as the original algorithms do. The
//! paper's fairness note (DESIGN.md §5) applies: occupancy skipping is enabled
//! identically in the pixel-centric baseline and the fully-streaming path.

use cicero_math::{Aabb, Ray, Vec3};

/// Empty cells kept around the `res³` grid on every side. The inner ring
/// holds the cells a point on a max face of the bounds addresses (index
/// `res`) and their mirror images, so they carry true distances like any
/// other cell; the outer ring is only ever read, as "nothing here", by the
/// chamfer's neighbour taps.
const PAD: usize = 2;

/// A voxel grid over an axis-aligned bound that stores, per cell, the
/// chessboard distance (in cells, saturating at 255) to the nearest occupied
/// cell: `0` is an occupied cell, and from a cell at distance `d` every cell
/// less than `d` away along all three axes is empty — which is what lets the
/// batched marcher skip space instead of testing every step.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    res: usize,
    bounds: Aabb,
    /// Shortest edge of a cell, in world units.
    min_cell: f32,
    /// `(res + 2·PAD)³` distance bytes, x fastest.
    dist: Vec<u8>,
}

impl OccupancyGrid {
    /// Builds a grid of `res³` cells where a cell is occupied iff `f` returns
    /// `true` for any of its 2×2×2 interior sub-sample points.
    ///
    /// # Panics
    ///
    /// Panics if `res == 0`.
    pub fn from_fn(bounds: Aabb, res: usize, mut f: impl FnMut(Vec3) -> bool) -> Self {
        Self::from_probe(bounds, res, |p| (f(p), 0.0))
    }

    /// [`Self::from_fn`] for a predicate that comes with a clearance:
    /// `probe(p)` also returns a radius around `p` inside which the predicate
    /// is false everywhere (`0.0`: no claim). A sub-sample whose clearance
    /// covers the rest of its cell settles the cell without asking them.
    fn from_probe(bounds: Aabb, res: usize, mut probe: impl FnMut(Vec3) -> (bool, f32)) -> Self {
        let cell = bounds.size() / res as f32;
        // No two sub-samples of a cell are further apart than half its
        // diagonal; the margin covers the rounding of their positions and
        // of the clearance (see `cicero_scene::volume`'s).
        let reach = cell.length() * 0.5 + 1e-4;
        Self::from_cells(bounds, res, |x, y, z| {
            let base =
                bounds.min + Vec3::new(x as f32 * cell.x, y as f32 * cell.y, z as f32 * cell.z);
            for sz in 0..2 {
                for sy in 0..2 {
                    for sx in 0..2 {
                        let p = base
                            + Vec3::new(
                                (sx as f32 + 0.5) * cell.x * 0.5,
                                (sy as f32 + 0.5) * cell.y * 0.5,
                                (sz as f32 + 0.5) * cell.z * 0.5,
                            );
                        let (hit, clearance) = probe(p);
                        if hit {
                            return true;
                        }
                        if clearance > reach {
                            return false;
                        }
                    }
                }
            }
            false
        })
    }

    /// Builds an occupancy grid of the cells where the density exceeds
    /// `threshold`, with one cell of dilation, so trilinear interpolation
    /// never reads outside marked cells.
    ///
    /// `sample(p)` returns the density at `p` and a radius around `p` inside
    /// which the density is exactly zero — `0.0` (no claim) is always legal,
    /// and so is any under-estimate. The grid is the same with and without
    /// the claim; with it, empty space costs one sample per cell, not eight.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative (a density of zero must not mark).
    pub fn from_density(
        bounds: Aabb,
        res: usize,
        sample: impl Fn(Vec3) -> (f32, f32),
        threshold: f32,
    ) -> Self {
        assert!(threshold >= 0.0, "negative density threshold");
        let raw = Self::from_probe(bounds, res, |p| {
            let (density, clearance) = sample(p);
            (density > threshold, clearance)
        });
        raw.dilated()
    }

    /// Marks the cells `occupied` selects (asked in z, y, x raster order),
    /// then turns the marks into distances.
    fn from_cells(
        bounds: Aabb,
        res: usize,
        mut occupied: impl FnMut(usize, usize, usize) -> bool,
    ) -> Self {
        assert!(res > 0);
        let n = res + 2 * PAD;
        let cell = bounds.size() / res as f32;
        let mut grid = OccupancyGrid {
            res,
            bounds,
            min_cell: cell.x.min(cell.y).min(cell.z),
            dist: vec![u8::MAX; n * n * n],
        };
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    if occupied(x, y, z) {
                        let i = grid.index(x, y, z);
                        grid.dist[i] = 0;
                    }
                }
            }
        }
        grid.chamfer();
        grid
    }

    /// Two-pass chessboard distance transform over every cell but the outer
    /// padding ring: a forward raster sweep relaxes each cell against the 13
    /// neighbours before it, a backward sweep against the 13 after it. With
    /// unit weights on the 26-neighbourhood the two sweeps are exact.
    fn chamfer(&mut self) {
        let n = self.res + 2 * PAD;
        let mut before = [0usize; 13];
        let mut taps = before.iter_mut();
        for dz in 0..=1 {
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let off = (dz * n as isize + dy) * n as isize + dx;
                    if off > 0 {
                        *taps.next().expect("13 raster-earlier neighbours") = off as usize;
                    }
                }
            }
        }
        let d = &mut self.dist[..];
        let rows = (1..n - 1).flat_map(|z| (1..n - 1).map(move |y| (z * n + y) * n));
        for row in rows.clone() {
            for i in row + 1..row + n - 1 {
                let near = before.iter().fold(u8::MAX, |m, &b| m.min(d[i - b]));
                d[i] = d[i].min(near.saturating_add(1));
            }
        }
        for row in rows.rev() {
            for i in (row + 1..row + n - 1).rev() {
                let near = before.iter().fold(u8::MAX, |m, &b| m.min(d[i + b]));
                d[i] = d[i].min(near.saturating_add(1));
            }
        }
    }

    /// Storage index of a cell; coordinates up to `res` (the inner padding
    /// ring) are valid.
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        let n = self.res + 2 * PAD;
        ((z + PAD) * n + y + PAD) * n + x + PAD
    }

    /// Cell occupancy by integer coordinate (out-of-range ⇒ `false`).
    pub fn cell(&self, x: isize, y: isize, z: isize) -> bool {
        let inside = |v: isize| (0..self.res as isize).contains(&v);
        inside(x)
            && inside(y)
            && inside(z)
            && self.dist[self.index(x as usize, y as usize, z as usize)] == 0
    }

    /// Chessboard distance, in cells, from the cell holding the world point
    /// to the nearest occupied cell, saturating at 255; `0` iff the point is
    /// [`occupied`](Self::occupied). A point outside the bounds reads `1`:
    /// not occupied, and nothing known about its surroundings.
    pub fn clearance(&self, p: Vec3) -> u8 {
        if !self.bounds.contains(p) {
            return 1;
        }
        // Inside the bounds every component lands in `0..=res`; `res` (a
        // point on a max face) is a padding cell, empty by construction.
        let n = self.bounds.normalize(p) * self.res as f32;
        self.dist[self.index(n.x as usize, n.y as usize, n.z as usize)]
    }

    /// Walks the candidate steps `from..n` of a march along `ray` — candidate
    /// `i` sits at `t0 + (i + ½)·step` — to the first one that is
    /// [`occupied`](Self::occupied). Returns its index, or `n` when there is
    /// none, and how many candidates the walk looked at.
    ///
    /// The index is the one a test of every candidate in turn would find,
    /// but from an empty cell at clearance `d` the walk jumps: `ray.dir` is
    /// unit length, so `j` candidates on the position has moved less than
    /// `j·step / min_cell` cells along any axis and its cell index at most
    /// one more than that, rounded down. While that stays below `d` the
    /// cell is empty, or the position has left the bounds; either way
    /// `occupied` would have said no. A quarter cell of the `d − 1` is held
    /// back for the rounding of the positions themselves.
    pub fn first_occupied_step(
        &self,
        ray: &Ray,
        t0: f32,
        step: f32,
        from: u32,
        n: u32,
    ) -> (u32, u32) {
        let steps_per_cell = self.min_cell / step;
        let (mut i, mut looked) = (from, 0);
        while i < n {
            let d = self.clearance(ray.at(t0 + (i as f32 + 0.5) * step));
            looked += 1;
            if d == 0 {
                return (i, looked);
            }
            i = i.saturating_add(if d == 1 {
                1
            } else {
                1 + ((d as f32 - 1.25) * steps_per_cell) as u32
            });
        }
        (n, looked)
    }

    /// Whether the world point lies in an occupied cell.
    pub fn occupied(&self, p: Vec3) -> bool {
        self.clearance(p) == 0
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Grid bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Fraction of occupied cells.
    #[cfg(test)]
    fn occupancy_ratio(&self) -> f32 {
        let occupied = self.dist.iter().filter(|&&d| d == 0).count();
        occupied as f32 / (self.res * self.res * self.res) as f32
    }

    /// Returns a copy with every occupied cell dilated by one cell (26-neighborhood).
    pub fn dilated(&self) -> OccupancyGrid {
        Self::from_cells(self.bounds, self.res, |x, y, z| {
            self.dist[self.index(x, y, z)] <= 1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn sphere_grid(res: usize) -> OccupancyGrid {
        OccupancyGrid::from_fn(Aabb::centered_cube(1.0), res, |p| p.length() < 0.5)
    }

    /// Two blobs in a box with three different edge lengths, so cells are
    /// not cubes and an axis mix-up shows.
    fn two_blob_grid(res: usize) -> OccupancyGrid {
        let bounds = Aabb::new(Vec3::new(-1.0, -0.5, -2.0), Vec3::new(2.0, 1.0, 1.5));
        OccupancyGrid::from_fn(bounds, res, |p| {
            (p - Vec3::new(-0.4, 0.1, -1.2)).length() < 0.35
                || (p - Vec3::new(1.3, 0.6, 0.8)).length() < 0.25
        })
    }

    /// A seeded point in the box `scale` times the size of `bounds` about
    /// its centre.
    fn point_about(bounds: Aabb, scale: f32, rng: &mut TestRng) -> Vec3 {
        let mut unit = || rng.next_unit() as f32 - 0.5;
        bounds.center() + bounds.size() * Vec3::new(unit(), unit(), unit()) * scale
    }

    #[test]
    fn center_occupied_corner_empty() {
        let g = sphere_grid(16);
        assert!(g.occupied(Vec3::ZERO));
        assert!(!g.occupied(Vec3::splat(0.9)));
        assert!(!g.occupied(Vec3::splat(5.0)));
    }

    #[test]
    fn ratio_approximates_sphere_volume() {
        let g = sphere_grid(32);
        // Sphere volume fraction in the cube: (4/3 π 0.5³) / 2³ ≈ 0.065.
        let r = g.occupancy_ratio();
        assert!(r > 0.04 && r < 0.15, "ratio {r}");
    }

    #[test]
    fn dilation_grows_but_preserves_original() {
        let g = sphere_grid(16);
        let d = g.dilated();
        assert!(d.occupancy_ratio() > g.occupancy_ratio());
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    if g.cell(x, y, z) {
                        assert!(d.cell(x, y, z));
                    }
                }
            }
        }
    }

    #[test]
    fn from_density_includes_dilation() {
        let g = OccupancyGrid::from_density(
            Aabb::centered_cube(1.0),
            8,
            |p| (if p.length() < 0.3 { 10.0 } else { 0.0 }, 0.0),
            0.5,
        );
        // A point just outside the sphere but within one cell should be marked.
        assert!(g.occupied(Vec3::new(0.4, 0.0, 0.0)));
    }

    /// A density that states its clearance builds the same grid from far
    /// fewer samples: the analytic scenes' bake, where the clearance is the
    /// signed distance.
    #[test]
    fn clearance_saves_samples_and_changes_no_cell() {
        use cicero_scene::{library, RadianceSource};
        use std::cell::Cell;
        for name in ["lego", "ship", "materials"] {
            let scene = library::scene_by_name(name).unwrap();
            let asked = Cell::new(0u32);
            let build = |with_clearance: bool| {
                asked.set(0);
                let grid = OccupancyGrid::from_density(
                    scene.bounds(),
                    24,
                    |p| {
                        asked.set(asked.get() + 1);
                        let near = scene.nearest(p);
                        let clearance = if with_clearance { near.distance } else { 0.0 };
                        (near.density(), clearance)
                    },
                    1e-2,
                );
                (grid, asked.get())
            };
            let (plain, plain_samples) = build(false);
            let (skipping, samples) = build(true);
            assert_eq!(skipping.dist, plain.dist, "{name}");
            assert!(
                samples * 2 < plain_samples,
                "{name}: {samples} samples vs {plain_samples}"
            );
        }
    }

    #[test]
    fn out_of_range_cells_are_empty() {
        let g = sphere_grid(8);
        assert!(!g.cell(-1, 0, 0));
        assert!(!g.cell(0, 8, 0));
    }

    #[test]
    fn clearance_is_the_chessboard_distance_to_the_nearest_occupied_cell() {
        let res = 20isize;
        let g = two_blob_grid(res as usize);
        let cells =
            || (0..res).flat_map(|z| (0..res).flat_map(move |y| (0..res).map(move |x| [x, y, z])));
        let occupied: Vec<[isize; 3]> = cells().filter(|c| g.cell(c[0], c[1], c[2])).collect();
        assert!(occupied.len() > 50 && occupied.len() < 4000);
        let cell = g.bounds().size() / res as f32;
        for c in cells() {
            let brute = occupied
                .iter()
                .map(|o| (0..3).map(|a| (o[a] - c[a]).abs()).max().unwrap())
                .min()
                .unwrap();
            let center = g.bounds().min
                + Vec3::new(
                    (c[0] as f32 + 0.5) * cell.x,
                    (c[1] as f32 + 0.5) * cell.y,
                    (c[2] as f32 + 0.5) * cell.z,
                );
            assert_eq!(g.clearance(center) as isize, brute, "cell {c:?}");
        }
    }

    #[test]
    fn occupied_is_zero_clearance_is_the_cell_lookup() {
        let g = two_blob_grid(20).dilated();
        let b = g.bounds();
        // What `occupied` has always meant, spelled through `cell`.
        let by_cell = |p: Vec3| {
            let n = b.normalize(p) * 20.0;
            b.contains(p) && g.cell(n.x as isize, n.y as isize, n.z as isize)
        };
        let mut rng = TestRng::from_case("occupied_is_zero_clearance", 0);
        let (mut inside, mut hits) = (0, 0);
        for i in 0..10_000 {
            // A box half again as large as the bounds, so a good share of
            // the points is outside; every fourth point is then snapped onto
            // a face, an edge or a corner of the bounds.
            let mut p = point_about(b, 1.5, &mut rng);
            if i % 4 == 0 {
                let snap = rng.next_u64();
                for axis in 0..3 {
                    match snap >> (2 * axis) & 3 {
                        0 => p[axis] = b.min[axis],
                        1 => p[axis] = b.max[axis],
                        _ => {}
                    }
                }
            }
            assert_eq!(g.occupied(p), by_cell(p), "{p:?}");
            assert_eq!(g.occupied(p), g.clearance(p) == 0, "{p:?}");
            inside += b.contains(p) as u32;
            hits += g.occupied(p) as u32;
        }
        assert!(inside > 2_000 && inside < 8_000 && hits > 100);
        for p in [
            b.max,
            b.min,
            b.max + Vec3::splat(1e-3),
            b.min - Vec3::splat(1e-3),
        ] {
            assert_eq!(g.occupied(p), by_cell(p), "{p:?}");
            assert!(g.clearance(p) > 0, "{p:?}");
        }
    }

    /// One case of the walk property: seeded rays at three step lengths
    /// through a seeded blob field at two resolutions, every
    /// `first_occupied_step` answer against the walk that tests each
    /// candidate in turn.
    fn walk_matches_per_step(seed: u64) {
        let mut rng = TestRng::from_case("walk_matches_per_step", seed as u32);
        let bounds = Aabb::new(Vec3::new(-1.0, -0.5, -2.0), Vec3::new(2.0, 1.0, 1.5));
        let at = |rng: &mut TestRng, scale: f32| point_about(bounds, scale, rng);
        let blobs: Vec<(Vec3, f32)> = (0..3)
            .map(|_| (at(&mut rng, 0.8), 0.1 + 0.3 * rng.next_unit() as f32))
            .collect();
        let grids = [8, 48].map(|res| {
            let inside = |p: Vec3| blobs.iter().any(|&(c, r)| (p - c).length() < r);
            OccupancyGrid::from_density(bounds, res, |p| (inside(p) as u32 as f32, 0.0), 0.5)
        });
        let (mut candidates, mut looked_at) = (0, 0);
        for i in 0..48 {
            // From inside or outside the box, towards a point near a blob's
            // surface, where a jump too far lands in an occupied cell.
            let origin = at(&mut rng, 2.5);
            let (center, radius) = blobs[i % 3];
            let target = center + (at(&mut rng, 1.0) - bounds.center()).normalized() * radius;
            let ray = Ray::new(origin, target - origin);
            let Some((t0, t1)) = bounds.intersect(&ray) else {
                continue;
            };
            for (grid, step) in grids
                .iter()
                .flat_map(|g| [0.003, 0.01, 0.05].map(|s| (g, s)))
            {
                let n = ((t1 - t0) / step).ceil() as u32;
                let occupied = |i: u32| grid.occupied(ray.at(t0 + (i as f32 + 0.5) * step));
                let mut from = 0;
                while from < n {
                    let (found, looked) = grid.first_occupied_step(&ray, t0, step, from, n);
                    let per_step = (from..n).find(|&i| occupied(i)).unwrap_or(n);
                    assert_eq!(found, per_step, "from {from} of {n}, step {step}");
                    assert!(looked <= found - from + (found < n) as u32);
                    looked_at += looked;
                    from = found + 1;
                }
                candidates += n;
            }
        }
        // Not vacuous: the walk did jump.
        assert!(
            looked_at * 4 < candidates * 3,
            "{looked_at} of {candidates}"
        );
    }

    const WALK_CASES: u32 = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(WALK_CASES))]

        /// The skipping walk stops at exactly the occupied step indices of
        /// the per-step walk, so it also counts the same `samples_indexed`.
        #[test]
        fn skipping_walk_visits_the_occupied_steps(seed in 0u64..1 << 32) {
            walk_matches_per_step(seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10 * WALK_CASES))]

        /// The same with ten times the cases; CI runs it in release.
        #[test]
        #[ignore = "slow unoptimized: CI runs it in the release-mode SIMD step"]
        fn skipping_walk_visits_the_occupied_steps_10x(seed in 0u64..1 << 32) {
            walk_matches_per_step(seed);
        }
    }
}
