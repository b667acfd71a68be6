//! Coarse occupancy grids for empty-space skipping.
//!
//! All three model families (and the baseline GPU renderer) prune ray samples
//! in known-empty space during Indexing, as the original algorithms do. The
//! paper's fairness note (DESIGN.md §5) applies: occupancy skipping is enabled
//! identically in the pixel-centric baseline and the fully-streaming path.

use crate::encoding::cell_fraction;
use crate::encoding::tensor::{texel, texel_floor};
use crate::pool::{Bands, RenderPool, MAX_LANES};
use cicero_math::{Aabb, Ray, Vec3};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The raw density (decoder signal 0, before the softplus) at or below which
/// a sample contributes nothing: a lattice cell of a grid or tensor model
/// whose eight corners all read `<= RAW_EMPTY` is dropped from the occupied
/// set (see [`OccupancyGrid::tighten`]), and so is a cell of a hash model's
/// plain lattice whose eight interior sub-samples all do (see
/// [`OccupancyGrid::tighten_sampled`]). The first is a proof that every
/// point of the cell is at or below the constant; the hash model's is a
/// sample of eight points, and points between them may read above it.
///
/// How large a `step` that is exact for. The renderer's
/// `alpha = 1.0 - (-softplus(raw) * step).exp()` is `0.0` in f32 exactly
/// when the exponential rounds to `1.0`, i.e. when `softplus(raw) * step <=
/// 2⁻²⁵ ≈ 2.98e-8` (half the gap between `1.0` and the f32 below it; the tie
/// rounds to even, which is `1.0`). `softplus(x) = ln(1 + eˣ) ≈ eˣ` down
/// here, so the largest exact step is `2⁻²⁵ / e^RAW_EMPTY`:
///
/// | `RAW_EMPTY` | `softplus` | exact for `step <=` |
/// |---|---|---|
/// | −13.0 | 2.260e-6 | 0.0131 |
/// | −13.9 | 9.19e-7 | 0.0324 |
///
/// −13 is the one in use: it is exact at the 0.01 of the frozen benchmark
/// and of every figure, with room (raw −12.72 would still do at 0.01) for
/// the rounding of the interpolation itself, which can land a few ulp
/// above its largest corner. −13.9 would also cover `PipelineConfig`'s
/// default 0.02, and on the dense grid — whose empty vertices hold exactly
/// −14 and whose shell vertices sit above −13.87 — it prunes the same cells;
/// but the tensor's empty space is a rank-4 *approximation* of −14 and
/// ripples about it, and there −13.9 gives up a third of the gain (share
/// of a full frame's committed samples dropped at −13 / −13.9: lego tensor
/// 128 37.7 / 26.9 %, materials tensor 128 47.0 / 33.1 %, lego tensor 48
/// 27.9 / 19.5 %; lego grid 128 39.7 % at both). Past the exact step a
/// dropped sample carried `alpha = 2⁻²⁴`: at the serve paths' 0.04 the
/// frames move in the ninth digit of PSNR.
pub(crate) const RAW_EMPTY: f32 = -13.0;

/// The interpolation lattice of a model, as far as addressing a cell of it
/// goes: which cell a point interpolates from is the encoding's own
/// expression, so a sample is never tested against a cell other than the
/// one its features come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lattice {
    /// [`crate::DenseGrid`] of this many cells per axis (trilinear over the
    /// cell's eight vertices).
    Grid(u32),
    /// [`crate::VmTensor`] of this many texels per axis: one cell between
    /// each pair of neighbouring texels, shared by planes and lines.
    Tensor(usize),
    /// A plain lattice of this many cells per axis over the grid's bounds,
    /// addressed as a grid of as many cells would be. It has no vertices of
    /// a model behind it: [`OccupancyGrid::tighten_sampled`] marks its
    /// cells by sub-samples of the density.
    Sampled(u32),
}

impl Lattice {
    /// Cells per axis.
    fn cells(self) -> usize {
        match self {
            Lattice::Grid(cells) | Lattice::Sampled(cells) => cells as usize,
            Lattice::Tensor(texels) => texels - 1,
        }
    }

    /// The cell a point at normalised coordinates `u` interpolates from (a
    /// sampled lattice: the cell it lies in).
    #[inline(always)]
    fn cell(self, u: Vec3) -> [usize; 3] {
        match self {
            Lattice::Grid(cells) | Lattice::Sampled(cells) => {
                let g = u * cells as f32;
                [g.x, g.y, g.z].map(|g| cell_fraction(g, cells).0 as usize)
            }
            Lattice::Tensor(res) => [u.x, u.y, u.z].map(|n| texel_floor(texel(n, res), res).0),
        }
    }
}

/// Which cells of a model's lattice are empty — every corner's raw density
/// at or below [`RAW_EMPTY`] (a [`Lattice::Sampled`] one: every interior
/// sub-sample's) — one bit a cell, x fastest.
#[derive(Debug, Clone, PartialEq)]
struct Support {
    lattice: Lattice,
    empty: Vec<u64>,
}

impl Support {
    fn bit(&self, [x, y, z]: [usize; 3]) -> (usize, u64) {
        let n = self.lattice.cells();
        let i = (z * n + y) * n + x;
        (i / 64, 1 << (i % 64))
    }

    fn is_empty(&self, cell: [usize; 3]) -> bool {
        let (word, bit) = self.bit(cell);
        self.empty[word] & bit != 0
    }
}

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
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    res: usize,
    bounds: Aabb,
    /// Shortest edge of a cell, in world units.
    min_cell: f32,
    /// `(res + 2·PAD)³` distance bytes, x fastest.
    dist: Vec<u8>,
    /// The model's own density support, when the grid has been
    /// [tightened](Self::tighten): a point in an occupied cell (distance 0)
    /// whose lattice cell is empty is not occupied after all.
    support: Option<Support>,
}

/// Held back from a clearance before the sweep skips whole cells on it. A
/// clearance `c` read at a sub-sample proves the predicate false at every
/// point nearer than `c`, in exact arithmetic; a skipped cell's sub-samples
/// sit at `bounds.min + x·cell + (s + ½)·cell/2` per axis, each product and
/// sum rounded once. With coordinates |p| ≲ 3 (every library scene) those
/// positions are good to a few ulps of 3 (≈ 10⁻⁶) and the union SDF a
/// clearance comes from to a few ulps more: under 10⁻⁵ together, and the
/// margin is ten times that (as `cicero_scene::volume`'s `CLEARANCE_MARGIN`
/// argues for the marcher's jumps).
const CLEARANCE_MARGIN: f32 = 1e-4;

/// Points a [`OccupancyGrid::tighten_sampled`] call asks its density at once.
const SAMPLED_BATCH: usize = 256;

/// Interior sub-sample `s` (x, then y, then z fastest bit) of the cell `at`
/// of a lattice of `cell`-sized cells from `origin`: the centre of one of
/// the cell's eight octants.
fn sub_sample(origin: Vec3, cell: Vec3, [x, y, z]: [usize; 3], s: usize) -> Vec3 {
    let base = origin + Vec3::new(x as f32 * cell.x, y as f32 * cell.y, z as f32 * cell.z);
    base + Vec3::new(
        ((s & 1) as f32 + 0.5) * cell.x * 0.5,
        ((s >> 1 & 1) as f32 + 0.5) * cell.y * 0.5,
        ((s >> 2) as f32 + 0.5) * cell.z * 0.5,
    )
}

impl OccupancyGrid {
    /// Builds a grid of `res³` cells where a cell is occupied iff `f` returns
    /// `true` for any of its 2×2×2 interior sub-sample points. `f` may be
    /// asked the same point more than once.
    ///
    /// # Panics
    ///
    /// Panics if `res == 0`.
    pub fn from_fn(bounds: Aabb, res: usize, mut f: impl FnMut(Vec3) -> bool) -> Self {
        let mut grid = Self::sweep(bounds, res, |p| p.map(|p| (f(p), 0.0)));
        grid.chamfer();
        grid
    }

    /// Builds an occupancy grid of the cells where the density exceeds
    /// `threshold`, with one cell of dilation. For a model whose lattice is
    /// at least as fine as this grid, that keeps every point whose
    /// interpolation reads a dense vertex inside the marked cells; a coarser
    /// lattice (a 24³ grid under the default 48³ occupancy) interpolates
    /// across two occupancy cells, one more than the dilation covers, and
    /// its faint outermost fringe is skipped.
    ///
    /// `sample(p)` answers for eight points at once, lane by lane: the
    /// density at `p[l]` and a clearance, a radius around `p[l]` inside
    /// which the density is exactly zero. A claim must be a true radius (an
    /// under-estimate is always legal); `0.0`, any negative value and NaN
    /// claim nothing, and `+∞` says the density is zero everywhere. The
    /// grid is the same with and without the claims; with them, a cell whose
    /// first sub-sample clears the other seven is settled by one sample, not
    /// eight, and the cells further along its row that the clearance also
    /// covers are not sampled at all. A point may be asked more than once.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative (a density of zero must not mark)
    /// or `res == 0`.
    pub fn from_density(
        bounds: Aabb,
        res: usize,
        mut sample: impl FnMut(&[Vec3; 8]) -> [(f32, f32); 8],
        threshold: f32,
    ) -> Self {
        assert!(threshold >= 0.0, "negative density threshold");
        Self::sweep(bounds, res, |p| {
            sample(p).map(|(density, clearance)| (density > threshold, clearance))
        })
        .dilated()
    }

    /// Marks the cells of which `probe` is true at any of the 2×2×2
    /// interior sub-samples, and takes no distances yet (see
    /// [`chamfer`](Self::chamfer)). `probe` answers eight points at once,
    /// each with a clearance: a radius around the point inside which it is
    /// false everywhere (see [`Self::from_density`] for what may be
    /// claimed).
    ///
    /// Eight `(y, z)` rows run in lockstep, each lane at its own cell `x`;
    /// a lane whose row ends takes the next row (z, then y). One call asks
    /// every lane's cell at its first sub-sample: a hit marks the cell, a
    /// clearance that covers the cell settles it empty and skips every
    /// further cell of the row whose farthest sub-sample it also covers,
    /// and any other cell is settled at once by one call over its eight
    /// sub-samples, which marks it iff a hit comes before a covering
    /// clearance in sub-sample order (z, y, x) — the rule of asking the
    /// cell alone, for any answers. A cell skipped on a true radius holds
    /// no hit, so with true claims the marks are the claim-free rule's.
    fn sweep(
        bounds: Aabb,
        res: usize,
        mut probe: impl FnMut(&[Vec3; 8]) -> [(bool, f32); 8],
    ) -> Self {
        let mut grid = Self::unmarked(bounds, res);
        let cell = bounds.size() / res as f32;
        // No two sub-samples of a cell are further apart than half its
        // diagonal; the margin covers the rounding of their positions and
        // of the clearance.
        let reach = cell.length() * 0.5 + CLEARANCE_MARGIN;
        let sub_sample = |at, s| sub_sample(bounds.min, cell, at, s);
        // Cells past this one that a clearance `c` read at its first
        // sub-sample also covers: cell `x + j`'s farthest sub-sample is
        // `(j + ½, ½, ½)` cells away. A NaN or negative quotient casts to 0,
        // `+∞` to the rest of the row.
        let skipped = |c: f32| {
            let across = (c - CLEARANCE_MARGIN).powi(2) - 0.25 * (cell.y.powi(2) + cell.z.powi(2));
            (across.sqrt() / cell.x - 0.5) as usize
        };
        let settle = |answers: [(bool, f32); 8]| {
            answers
                .into_iter()
                .find_map(|(hit, c)| (hit || c > reach).then_some(hit))
                .unwrap_or(false)
        };
        let mut rows = (0..res).flat_map(|z| (0..res).map(move |y| [0, y, z]));
        let mut lanes: [Option<[usize; 3]>; 8] = [None; 8];
        loop {
            for lane in lanes.iter_mut().filter(|l| l.is_none()) {
                *lane = rows.next();
            }
            // Idle lanes (the sweep's last rows) ask a live lane's point
            // again; their answers are dropped.
            let Some(&live) = lanes.iter().flatten().next() else {
                break;
            };
            let first = probe(&lanes.map(|at| sub_sample(at.unwrap_or(live), 0)));
            for (lane, (hit, c)) in lanes.iter_mut().zip(first) {
                let Some(at) = lane else { continue };
                let step = if hit {
                    grid.mark(*at);
                    1
                } else if c > reach {
                    skipped(c).saturating_add(1)
                } else {
                    if settle(probe(&std::array::from_fn(|s| sub_sample(*at, s)))) {
                        grid.mark(*at);
                    }
                    1
                };
                at[0] = at[0].saturating_add(step);
                if at[0] >= res {
                    *lane = None;
                }
            }
        }
        grid
    }

    /// A grid of `res³` cells with none of them marked and no distances
    /// yet: [`mark`](Self::mark) the occupied ones, then
    /// [`chamfer`](Self::chamfer).
    fn unmarked(bounds: Aabb, res: usize) -> Self {
        assert!(res > 0);
        let n = res + 2 * PAD;
        let cell = bounds.size() / res as f32;
        OccupancyGrid {
            res,
            bounds,
            min_cell: cell.x.min(cell.y).min(cell.z),
            dist: vec![u8::MAX; n * n * n],
            support: None,
        }
    }

    fn mark(&mut self, [x, y, z]: [usize; 3]) {
        let i = self.index(x, y, z);
        self.dist[i] = 0;
    }

    /// Two-pass chessboard distance transform over every cell but the outer
    /// padding ring: a forward raster sweep relaxes each cell against the 13
    /// neighbours before it, a backward sweep against the 13 after it. With
    /// unit weights on the 26-neighbourhood the two sweeps are exact.
    ///
    /// Twelve of the 13 neighbours lie in rows the sweep has finished, so a
    /// row first takes their minimum cell by cell, a loop without a carried
    /// dependency; only the neighbour in the row itself is then relaxed in
    /// sweep order. `min` and the saturating `+ 1` commute, so every cell
    /// ends where relaxing it against all 13 at once would leave it.
    fn chamfer(&mut self) {
        let n = self.res + 2 * PAD;
        let mut across = [0usize; 12];
        let mut taps = across.iter_mut();
        for dz in 0..=1 {
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let off = (dz * n as isize + dy) * n as isize + dx;
                    if off > 1 {
                        *taps
                            .next()
                            .expect("12 raster-earlier neighbours off the row") = off as usize;
                    }
                }
            }
        }
        let d = &mut self.dist[..];
        let mut near = vec![u8::MAX; n - 2];
        let rows = (1..n - 1).flat_map(|z| (1..n - 1).map(move |y| (z * n + y) * n + 1));
        for row in rows.clone() {
            near.fill(u8::MAX);
            for &b in &across {
                for (m, &v) in near.iter_mut().zip(&d[row - b..]) {
                    *m = (*m).min(v);
                }
            }
            for (i, &m) in (row..).zip(&near) {
                d[i] = d[i].min(m.min(d[i - 1]).saturating_add(1));
            }
        }
        for row in rows.rev() {
            near.fill(u8::MAX);
            for &b in &across {
                for (m, &v) in near.iter_mut().zip(&d[row + b..]) {
                    *m = (*m).min(v);
                }
            }
            for (i, &m) in (row..row + n - 2).zip(&near).rev() {
                d[i] = d[i].min(m.min(d[i + 1]).saturating_add(1));
            }
        }
    }

    /// Storage index of a cell; coordinates up to `res` (the inner padding
    /// ring) are valid.
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        let n = self.res + 2 * PAD;
        ((z + PAD) * n + y + PAD) * n + x + PAD
    }

    /// Drops from the occupied set what the model itself leaves empty:
    /// `raw(x, y, z)` is the model's raw density at vertex `(x, y, z)` of
    /// `lattice`, and a lattice cell with all eight corners at or below
    /// [`RAW_EMPTY`] stops being [`occupied`](Self::occupied) (its points
    /// read a clearance of `1`: not occupied, nothing known around them).
    ///
    /// Exact, not sampled: inside one lattice cell the raw density is
    /// multi-affine in the position (trilinear for the grid; for the tensor
    /// a sum of bilinear plane × linear line over one shared texel lattice),
    /// so its maximum over the cell is at a corner, and at or below
    /// `RAW_EMPTY` a sample's `alpha` is `0.0` — it would have been gathered
    /// and decoded to add nothing. The new occupied set is a subset of the
    /// old one, so frames stay what they were, bit for bit, at every `step`
    /// the constant's table allows.
    ///
    /// Only lattice cells that overlap an occupied cell of this grid are
    /// looked at — the mask is not consulted for a point of any other, and
    /// its bit stays clear, the answer that changes nothing — and `raw` is
    /// called at most once per vertex.
    pub(crate) fn tighten(
        &mut self,
        lattice: Lattice,
        mut raw: impl FnMut(usize, usize, usize) -> f32,
    ) {
        let mut support = self.candidates(lattice);
        let n = lattice.cells();
        // One dense vertex refutes the (up to eight) candidates it is a
        // corner of; a vertex with none left around it is not asked.
        let around = |v: usize| v.saturating_sub(1)..(v + 1).min(n);
        for z in 0..=n {
            for y in 0..=n {
                for x in 0..=n {
                    let cells = || {
                        around(z).flat_map(move |cz| {
                            around(y).flat_map(move |cy| around(x).map(move |cx| [cx, cy, cz]))
                        })
                    };
                    if cells().any(|c| support.is_empty(c)) && raw(x, y, z) > RAW_EMPTY {
                        for c in cells() {
                            let (word, bit) = support.bit(c);
                            support.empty[word] &= !bit;
                        }
                    }
                }
            }
        }
        self.support = Some(support);
    }

    /// A support on `lattice` whose empty bits mark the candidates: every
    /// lattice cell that overlaps an occupied cell of this grid.
    fn candidates(&self, lattice: Lattice) -> Support {
        let (n, res) = (lattice.cells(), self.res);
        let mut support = Support {
            lattice,
            empty: vec![0; (n * n * n).div_ceil(64)],
        };
        let span = |c: usize| c * n / res..((c + 1) * n).div_ceil(res);
        for z in 0..res {
            for y in 0..res {
                for x in (0..res).filter(|&x| self.dist[self.index(x, y, z)] == 0) {
                    for cz in span(z) {
                        for cy in span(y) {
                            for cx in span(x) {
                                let (word, bit) = support.bit([cx, cy, cz]);
                                support.empty[word] |= bit;
                            }
                        }
                    }
                }
            }
        }
        support
    }

    /// Drops from the occupied set what the model leaves empty at every
    /// sub-sample of a plain lattice of `cells³` cells over the grid's
    /// bounds ([`Lattice::Sampled`]): a lattice cell whose 2×2×2 interior
    /// sub-samples (the sweep's, see [`sub_sample`]) all read a raw density
    /// at or below [`RAW_EMPTY`] stops being [`occupied`](Self::occupied).
    /// `raw(ps, out)` writes the raw density at each point of `ps` into
    /// `out`.
    ///
    /// **A sample, not a proof.** Unlike [`tighten`](Self::tighten), which
    /// reads every corner of a multi-affine cell, eight points say nothing
    /// of the rest of the cell: a hash model's levels interpolate across
    /// many such cells at once and their sum can peak between the
    /// sub-samples. A sample the mask drops may have carried a small
    /// `alpha`, and the frames move (below one 8-bit step on every library
    /// scene at 128², the renderer's tests hold it), as Instant-NGP's own
    /// density grid moves them.
    ///
    /// The candidates are the lattice cells that overlap an occupied cell of
    /// this grid, as for `tighten`. They are asked in eight passes, one per
    /// sub-sample, up to [`SAMPLED_BATCH`] points a call: a pass asks only
    /// the candidates no earlier pass found live, so a cell stops at its
    /// first sub-sample above `RAW_EMPTY`, and only the cells the mask drops
    /// are asked all eight. The mask's words are split into up to
    /// [`MAX_LANES`] bands that the lanes of a [`RenderPool::global`]
    /// checkout (one per core) claim in turn, each running the eight passes
    /// over its band with a scratch `S` of its own; every cell is decided by
    /// its own sub-samples alone, so the mask is the same at any lane count.
    pub(crate) fn tighten_sampled<S: Default>(
        &mut self,
        cells: usize,
        raw: impl Fn(&mut S, &[Vec3], &mut [f32]) + Sync,
    ) {
        let mut support = self.candidates(Lattice::Sampled(cells as u32));
        let (origin, cell) = (self.bounds.min, self.bounds.size() / cells as f32);
        let at = |i: usize| [i % cells, i / cells % cells, i / (cells * cells)];
        let chunk = support.empty.len().div_ceil(MAX_LANES).max(1);
        let bands = Bands::new(&mut support.empty, chunk);
        // The next band to claim; it orders nothing else (`Bands::take`
        // hands each band's words over).
        let next = AtomicUsize::new(0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lanes = RenderPool::global().checkout(cores.min(bands.len()).saturating_sub(1));
        lanes.run(|_| {
            let mut scratch = S::default();
            let (mut open, mut ps) = (Vec::with_capacity(SAMPLED_BATCH), Vec::new());
            let mut raws = vec![0.0; SAMPLED_BATCH];
            // `open` holds cell indices; a live one's bit is cleared.
            let mut ask = |open: &mut Vec<usize>, s: usize, first: usize, words: &mut [u64]| {
                ps.clear();
                ps.extend(open.iter().map(|&i| sub_sample(origin, cell, at(i), s)));
                raw(&mut scratch, &ps, &mut raws[..ps.len()]);
                for (&i, &r) in open.iter().zip(&raws) {
                    if r > RAW_EMPTY {
                        words[(i - first) / 64] &= !(1 << (i % 64));
                    }
                }
                open.clear();
            };
            loop {
                let band = next.fetch_add(1, Ordering::Relaxed);
                if band >= bands.len() {
                    break;
                }
                let (words, first) = (bands.take(band), band * chunk * 64);
                for s in 0..8 {
                    // Each word is copied as it is read: a batch clears bits
                    // of words the walk has passed.
                    for w in 0..words.len() {
                        let mut bits = words[w];
                        while bits != 0 {
                            open.push(first + w * 64 + bits.trailing_zeros() as usize);
                            bits &= bits - 1;
                            if open.len() == SAMPLED_BATCH {
                                ask(&mut open, s, first, words);
                            }
                        }
                    }
                    ask(&mut open, s, first, words);
                }
            }
        });
        self.support = Some(support);
    }

    /// Cell occupancy by integer coordinate (out-of-range ⇒ `false`), as
    /// marked at construction: a support mask is not consulted.
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
    /// not occupied, and nothing known about its surroundings — and so does
    /// a point of an occupied cell that the model's own density support
    /// leaves empty, so the distances themselves, and the jumps they
    /// license, are untouched by it. Every baked model carries that mask: a
    /// grid or tensor model's is exact (`tighten`), a hash model's is
    /// sampled (`tighten_sampled`) and may leave out points of small
    /// density.
    pub fn clearance(&self, p: Vec3) -> u8 {
        if !self.bounds.contains(p) {
            return 1;
        }
        // Inside the bounds every component lands in `0..=res`; `res` (a
        // point on a max face) is a padding cell, empty by construction.
        let u = self.bounds.normalize(p);
        let n = u * self.res as f32;
        let d = self.dist[self.index(n.x as usize, n.y as usize, n.z as usize)];
        match &self.support {
            Some(support) if d == 0 && support.is_empty(support.lattice.cell(u)) => 1,
            _ => d,
        }
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

    /// The grid as it was before [`tighten`](Self::tighten) or
    /// [`tighten_sampled`](Self::tighten_sampled): the other side of the
    /// grid and tensor masks' exactness tests and of the hash mask's
    /// quality claims. Not a switch — nothing outside the crate's tests can
    /// un-mask a model.
    #[cfg(test)]
    pub(crate) fn untightened(&self) -> OccupancyGrid {
        OccupancyGrid {
            support: None,
            ..self.clone()
        }
    }

    /// Fraction of occupied cells.
    #[cfg(test)]
    fn occupancy_ratio(&self) -> f32 {
        let occupied = self.dist.iter().filter(|&&d| d == 0).count();
        occupied as f32 / (self.res * self.res * self.res) as f32
    }

    /// Returns a copy with every occupied cell dilated by one cell
    /// (26-neighborhood), and no support mask. Only the marks (distance 0)
    /// are read, so a grid whose distances are not taken yet dilates the
    /// same.
    pub fn dilated(&self) -> OccupancyGrid {
        let res = self.res;
        let mut grid = Self::unmarked(self.bounds, res);
        let around = |c: usize| c.saturating_sub(1)..(c + 2).min(res);
        for z in 0..res {
            for y in 0..res {
                for x in (0..res).filter(|&x| self.dist[self.index(x, y, z)] == 0) {
                    for nz in around(z) {
                        for ny in around(y) {
                            for nx in around(x) {
                                grid.mark([nx, ny, nz]);
                            }
                        }
                    }
                }
            }
        }
        grid.chamfer();
        grid
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
            |p| p.map(|p| (if p.length() < 0.3 { 10.0 } else { 0.0 }, 0.0)),
            0.5,
        );
        // A point just outside the sphere but within one cell should be marked.
        assert!(g.occupied(Vec3::new(0.4, 0.0, 0.0)));
    }

    /// The per-cell build the sweep replaced, kept as its oracle: each cell
    /// alone, in z, y, x raster order, asked at its sub-samples one at a
    /// time until a hit marks it or a clearance covering the rest of the
    /// cell settles it empty.
    fn from_probe(
        bounds: Aabb,
        res: usize,
        mut probe: impl FnMut(Vec3) -> (bool, f32),
    ) -> OccupancyGrid {
        let mut grid = OccupancyGrid::unmarked(bounds, res);
        let cell = bounds.size() / res as f32;
        let reach = cell.length() * 0.5 + 1e-4;
        let mut occupied = |x: usize, y: usize, z: usize| {
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
        };
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    if occupied(x, y, z) {
                        grid.mark([x, y, z]);
                    }
                }
            }
        }
        chamfer_per_cell(&mut grid);
        grid
    }

    /// The distance transform as it was: each cell relaxed against its 13
    /// raster-earlier (then later) neighbours at once.
    fn chamfer_per_cell(grid: &mut OccupancyGrid) {
        let n = grid.res + 2 * PAD;
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
        let d = &mut grid.dist[..];
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

    /// The dilation as it was: every cell within distance 1, through
    /// [`chamfer_per_cell`].
    fn dilated_by_distance(grid: &OccupancyGrid) -> OccupancyGrid {
        let mut dilated = OccupancyGrid::unmarked(grid.bounds, grid.res);
        for z in 0..grid.res {
            for y in 0..grid.res {
                for x in 0..grid.res {
                    if grid.dist[grid.index(x, y, z)] <= 1 {
                        dilated.mark([x, y, z]);
                    }
                }
            }
        }
        chamfer_per_cell(&mut dilated);
        dilated
    }

    /// [`OccupancyGrid::sweep`] with the eight-point probe counted: the
    /// grid, its distances taken, and the number of calls made.
    fn counted_sweep(
        bounds: Aabb,
        res: usize,
        mut probe: impl FnMut(&[Vec3; 8]) -> [(bool, f32); 8],
    ) -> (OccupancyGrid, usize) {
        let mut calls = 0;
        let mut grid = OccupancyGrid::sweep(bounds, res, |p| {
            calls += 1;
            probe(p)
        });
        grid.chamfer();
        (grid, calls)
    }

    /// Holds the sweep of `scene` at `res` to the oracle and to the sweep
    /// without a claim, `dist` byte for byte, and the bake's dilated grid
    /// to the oracle's dilated the old way. Returns the probe calls of the
    /// sweep and of the sweep without a claim, and the points the oracle
    /// asked.
    fn assert_sweep_is_the_oracle(name: &str, res: usize) -> (usize, usize, usize) {
        use cicero_scene::{library, RadianceSource};
        let scene = library::scene_by_name(name).unwrap();
        let bounds = scene.bounds();
        let hit = |density: f32| density > 1e-2;
        let (swept, calls) = counted_sweep(bounds, res, |p| {
            scene
                .nearest8(p)
                .map(|near| (hit(near.density()), near.distance))
        });
        let (plain, plain_calls) = counted_sweep(bounds, res, |p| {
            scene.nearest8(p).map(|near| (hit(near.density()), 0.0))
        });
        let mut asked = 0;
        let oracle = from_probe(bounds, res, |p| {
            asked += 1;
            let near = scene.nearest(p);
            (hit(near.density()), near.distance)
        });
        assert_eq!(swept.dist, oracle.dist, "{name} at {res}");
        assert_eq!(swept.dist, plain.dist, "{name} at {res}");
        let baked = OccupancyGrid::from_density(
            bounds,
            res,
            |p| {
                scene
                    .nearest8(p)
                    .map(|near| (near.density(), near.distance))
            },
            1e-2,
        );
        assert_eq!(
            baked.dist,
            dilated_by_distance(&oracle).dist,
            "{name} at {res}"
        );
        (calls, plain_calls, asked)
    }

    /// A density that states its clearance builds the same grid from far
    /// fewer samples: the analytic scenes' bake, where the clearance is the
    /// signed distance. Every library scene, at resolutions whose rows are
    /// shorter than, as long as and just longer than the eight lanes, and
    /// whose row counts leave lanes idle at the end of the sweep.
    #[test]
    fn clearance_saves_samples_and_changes_no_cell() {
        use cicero_scene::library::{REAL_WORLD_SCENES, SYNTHETIC_SCENES};
        for name in SYNTHETIC_SCENES.iter().chain(&REAL_WORLD_SCENES) {
            for res in [1, 3, 7, 8, 9, 17] {
                assert_sweep_is_the_oracle(name, res);
            }
            // Eight points a call, and the claims skip most of the calls
            // (24³: 1349–4237 calls, 12801–14761 without the claim, and
            // the oracle asks 16544–29544 points one at a time).
            let (calls, plain, asked) = assert_sweep_is_the_oracle(name, 24);
            assert!(
                calls * 2 < plain && calls * 4 < asked,
                "{name}: {calls} calls, {plain} without the claim, the oracle asked {asked}"
            );
        }
    }

    /// The same at the bake's default 48³ and at 128³; CI runs it in
    /// release.
    #[test]
    #[ignore = "slow unoptimized: CI runs it in the release-mode oracle step"]
    fn occupancy_sweep_is_the_oracle_every_scene() {
        use cicero_scene::library::{REAL_WORLD_SCENES, SYNTHETIC_SCENES};
        for name in SYNTHETIC_SCENES.iter().chain(&REAL_WORLD_SCENES) {
            for res in [48, 128] {
                assert_sweep_is_the_oracle(name, res);
            }
        }
    }

    /// One case of the sphere-union property: seeded spheres in a seeded box
    /// with three different edge lengths, the clearance their union's exact
    /// signed distance, at a seeded resolution; the sweep against the
    /// oracle and against the sweep without a claim, and its dilation
    /// against the old one.
    fn sweep_matches_oracle_on_spheres(seed: u64) {
        let mut rng = TestRng::from_case("sweep_matches_oracle_on_spheres", seed as u32);
        let mut unit = || rng.next_unit() as f32;
        let min = Vec3::new(unit() - 2.0, unit() - 0.5, unit() * 3.0 - 1.0);
        let size = Vec3::new(0.3 + 2.5 * unit(), 0.3 + 2.5 * unit(), 0.3 + 2.5 * unit());
        let bounds = Aabb::new(min, min + size);
        let spheres: Vec<(Vec3, f32)> = (0..1 + (unit() * 5.0) as usize)
            .map(|_| {
                let at = Vec3::new(unit(), unit(), unit()) * 1.2 - Vec3::splat(0.1);
                (min + size * at, 0.02 + 0.3 * unit() * size.min_element())
            })
            .collect();
        let res = 1 + (unit() * 26.0) as usize;
        let distance = |p: Vec3| {
            spheres
                .iter()
                .fold(f32::INFINITY, |d, &(c, r)| d.min((p - c).length() - r))
        };
        let (swept, _) = counted_sweep(bounds, res, |p| {
            p.map(|p| {
                let d = distance(p);
                (d < 0.0, d)
            })
        });
        let oracle = from_probe(bounds, res, |p| (distance(p) < 0.0, 0.0));
        let plain = OccupancyGrid::from_fn(bounds, res, |p| distance(p) < 0.0);
        assert_eq!(
            swept.dist, oracle.dist,
            "res {res}, {spheres:?} in {bounds:?}"
        );
        assert_eq!(
            plain.dist, oracle.dist,
            "res {res}, {spheres:?} in {bounds:?}"
        );
        assert_eq!(
            swept.dilated().dist,
            dilated_by_distance(&oracle).dist,
            "res {res}, {spheres:?} in {bounds:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sweep marks what the per-cell oracle marks, on any union of
        /// spheres whose clearance is its exact signed distance.
        #[test]
        fn occupancy_sweep_is_the_oracle_on_sphere_unions(seed in 0u64..1 << 32) {
            sweep_matches_oracle_on_spheres(seed);
        }
    }

    /// What the sweep makes of a clearance at its edges: NaN, `−∞`, `−0`
    /// and `0` claim nothing, so they ask what the claim-free sweep asks; a
    /// finite claim skips exactly the cells whose farthest sub-sample it
    /// covers, less the margin; `+∞` empties the rest of the row. And a
    /// cell is settled by the oracle's rule whatever the answers.
    #[test]
    fn occupancy_sweep_edge_clearances() {
        let bounds = Aabb::new(Vec3::new(-1.0, -0.5, -2.0), Vec3::new(2.0, 1.0, 1.5));
        let blob = |p: Vec3| (p - Vec3::new(0.4, 0.1, -0.2)).length() < 0.6;
        for res in [1, 5, 9, 16] {
            let oracle = from_probe(bounds, res, |p| (blob(p), 0.0));
            let (_, claim_free) = counted_sweep(bounds, res, |p| p.map(|p| (blob(p), 0.0)));
            for c in [f32::NAN, -f32::NAN, f32::NEG_INFINITY, -0.0, 0.0] {
                let (grid, calls) = counted_sweep(bounds, res, |p| p.map(|p| (blob(p), c)));
                assert_eq!(grid.dist, oracle.dist, "{c} at {res}");
                assert_eq!(calls, claim_free, "{c} at {res}");
            }
            // Nothing is asked past the first cell of a row: the grid is
            // empty even where the (lying) probe would hit.
            let rows = res * res;
            let (grid, calls) =
                counted_sweep(bounds, res, |p| p.map(|p| (p.x > 0.0, f32::INFINITY)));
            assert_eq!(calls, rows.div_ceil(8), "at {res}");
            assert_eq!(grid.occupancy_ratio(), 0.0, "at {res}");
            // A constant finite claim `c`: each lane steps `1 + k` cells a
            // call, `k` the last cell past the current one whose farthest
            // sub-sample, `(k + ½, ½, ½)` cells away, lies within `c` less
            // the margin (a `c` well clear of every boundary).
            let cell = bounds.size() / res as f32;
            // Arbitrary answers, true or not, whose claims skip no further
            // cell: every cell is settled by the oracle's rule, in its
            // order.
            let reach = cell.length() * 0.5 + 1e-4;
            let claims = [f32::NAN, 0.0, 0.5 * reach, 1.01 * reach, -1.0];
            let arbitrary = |p: Vec3| {
                let mut h = p.x.to_bits() as u64 ^ (p.y.to_bits() as u64) << 21;
                h = (h ^ (p.z.to_bits() as u64) << 42).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 29;
                (h & 7 == 0, claims[(h >> 8) as usize % claims.len()])
            };
            let (grid, _) = counted_sweep(bounds, res, |p| p.map(arbitrary));
            let oracle = from_probe(bounds, res, arbitrary);
            assert_eq!(grid.dist, oracle.dist, "arbitrary answers at {res}");
            let half = |a: f32| (0.5 * a) as f64;
            for cells_across in [0.9, 1.3, 2.7, 6.2, 40.0] {
                let c = cells_across * cell.x;
                if c <= cell.length() * 0.5 + 1e-4 {
                    continue;
                }
                let within = |k: usize| {
                    let dx = (k as f64 + 0.5) * cell.x as f64;
                    (dx * dx + half(cell.y).powi(2) + half(cell.z).powi(2)).sqrt()
                        <= (c - 1e-4) as f64
                };
                let k = (1..=res).take_while(|&k| within(k)).count();
                let (grid, calls) = counted_sweep(bounds, res, |p| p.map(|_| (false, c)));
                assert_eq!(grid.occupancy_ratio(), 0.0);
                assert_eq!(
                    calls,
                    rows.div_ceil(8) * res.div_ceil(1 + k),
                    "{cells_across} cells at {res}"
                );
            }
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

    /// A blob field's grid tightened by a synthetic model on `lattice`: raw
    /// density −14 everywhere but inside the blobs shrunk to 0.8 of their
    /// radius, so the mask takes the outer shell of every blob away.
    fn tightened_by_shrunk_blobs(
        grid: &OccupancyGrid,
        lattice: Lattice,
        blobs: &[(Vec3, f32)],
    ) -> OccupancyGrid {
        let (b, n) = (grid.bounds(), lattice.cells() as f32);
        let mut tight = grid.clone();
        tight.tighten(lattice, |x, y, z| {
            let p = b.min + b.size() * Vec3::new(x as f32, y as f32, z as f32) / n;
            let dense = blobs.iter().any(|&(c, r)| (p - c).length() < 0.8 * r);
            if dense {
                0.0
            } else {
                -14.0
            }
        });
        tight
    }

    /// Seeded probe points for the addressing properties: a box half again
    /// as large as `bounds`, so a good share is outside; every fourth point
    /// is then snapped onto a face, an edge or a corner of the bounds, and
    /// every fourth-plus-one onto planes of a lattice of `cells` per axis.
    fn probe_points(bounds: Aabb, cells: usize, rng: &mut TestRng, count: usize) -> Vec<Vec3> {
        (0..count)
            .map(|i| {
                let mut p = point_about(bounds, 1.5, rng);
                let snap = rng.next_u64();
                for axis in 0..3 {
                    let pick = snap >> (8 * axis);
                    match (i % 4, pick & 3) {
                        (0, 0) => p[axis] = bounds.min[axis],
                        (0, 1) => p[axis] = bounds.max[axis],
                        (1, 0 | 1) => {
                            let k = (pick >> 2) as usize % (cells + 1);
                            p[axis] =
                                bounds.min[axis] + bounds.size()[axis] * k as f32 / cells as f32;
                        }
                        _ => {}
                    }
                }
                p
            })
            .collect()
    }

    #[test]
    fn occupied_is_zero_clearance_is_the_cell_lookup() {
        let blobs = [
            (Vec3::new(-0.4, 0.1, -1.2), 0.35),
            (Vec3::new(1.3, 0.6, 0.8), 0.25),
        ];
        let plain = two_blob_grid(20).dilated();
        let b = plain.bounds();
        let masked = [Lattice::Grid(20), Lattice::Grid(9), Lattice::Tensor(32)]
            .map(|lattice| tightened_by_shrunk_blobs(&plain, lattice, &blobs));
        let mut rng = TestRng::from_case("occupied_is_zero_clearance", 0);
        for g in std::iter::once(&plain).chain(&masked) {
            // What `occupied` means, spelled through `cell` and the mask's
            // own bit.
            let by_cell = |p: Vec3| {
                let n = b.normalize(p) * 20.0;
                let kept = g.support.as_ref().is_none_or(|s| {
                    let cell = s.lattice.cell(b.normalize(p));
                    assert!(cell.iter().all(|&c| c < s.lattice.cells()), "{p:?}");
                    !s.is_empty(cell)
                });
                b.contains(p) && g.cell(n.x as isize, n.y as isize, n.z as isize) && kept
            };
            let (mut inside, mut hits, mut masked_away) = (0, 0, 0);
            for p in probe_points(
                b,
                g.support.as_ref().map_or(20, |s| s.lattice.cells()),
                &mut rng,
                10_000,
            ) {
                assert_eq!(g.occupied(p), by_cell(p), "{p:?}");
                assert_eq!(g.occupied(p), g.clearance(p) == 0, "{p:?}");
                // Only ever tighter, and the distances are the plain grid's.
                assert!(plain.occupied(p) || !g.occupied(p), "{p:?}");
                if plain.occupied(p) && !g.occupied(p) {
                    assert_eq!(g.clearance(p), 1, "{p:?}");
                    masked_away += 1;
                } else {
                    assert_eq!(g.clearance(p), plain.clearance(p), "{p:?}");
                }
                inside += b.contains(p) as u32;
                hits += g.occupied(p) as u32;
            }
            assert!(
                inside > 2_000 && inside < 8_000 && hits > 30,
                "{inside} inside, {hits} hits, {masked_away} masked"
            );
            assert_eq!(masked_away > 50, g.support.is_some());
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
    }

    /// The mask is addressed with the encoding's own arithmetic: the lattice
    /// cell it tests for a point is the cell whose corner entries the
    /// point's gather plan lists, wherever the point is.
    #[test]
    fn mask_addresses_the_cell_the_plan_lists() {
        use crate::bake;
        use crate::encoding::{dense_corners, grid::GridConfig, tensor::TensorConfig};
        use crate::model::NerfModel;
        use crate::plan::GatherPlan;
        let scene = cicero_scene::library::scene_by_name("lego").unwrap();
        let mut rng = TestRng::from_case("mask_addresses_the_cell", 0);
        let mut plan = GatherPlan::default();
        let addressed = |occupancy: &OccupancyGrid, p: Vec3| {
            let support = occupancy
                .support
                .as_ref()
                .expect("a baked model is tightened");
            support.lattice.cell(occupancy.bounds().normalize(p))
        };
        for res in [12u32, 17] {
            let model = bake::bake_grid(
                &scene,
                &GridConfig {
                    resolution: res as usize,
                    ..Default::default()
                },
            );
            for p in probe_points(model.bounds(), res as usize, &mut rng, 4_000) {
                let cell = addressed(&model.occupancy, p).map(|c| c as u32);
                model.plan_into(p, &mut plan);
                let level = &plan.levels[0];
                assert_eq!((plan.levels.len(), level.region.0), (1, 0));
                assert_eq!(level.cell, cell, "{p:?}");
                assert_eq!(
                    level.entries(),
                    dense_corners(res + 1, cell).map(u64::from),
                    "{p:?}"
                );
            }
        }
        for res in [12usize, 17] {
            let model = bake::bake_tensor(
                &scene,
                &TensorConfig {
                    resolution: res,
                    components_per_signal: 2,
                    ..Default::default()
                },
            );
            for p in probe_points(model.bounds(), res - 1, &mut rng, 4_000) {
                let [x, y, z] = addressed(&model.occupancy, p).map(|c| c as u64);
                model.plan_into(p, &mut plan);
                let r = res as u64;
                // Per orientation (XY·Z, XZ·Y, YZ·X): the plane cell's four
                // texels, then the line cell's two.
                for (o, (u, v, w)) in [(x, y, z), (x, z, y), (y, z, x)].into_iter().enumerate() {
                    let at = v * r + u;
                    let (plane, line) = (&plan.levels[2 * o], &plan.levels[2 * o + 1]);
                    assert_eq!(plane.entries(), [at, at + 1, at + r, at + r + 1], "{p:?}");
                    assert_eq!(line.entries(), [w, w + 1], "{p:?}");
                }
            }
        }
    }

    /// What the mask claims of a cell it calls empty, on baked models:
    /// anywhere in it the raw density is at most `RAW_EMPTY` (up to the
    /// rounding of the interpolation) and the sample's alpha at the
    /// benchmark's step is exactly zero.
    #[test]
    fn empty_cells_hold_no_density_anywhere() {
        use crate::bake;
        use crate::encoding::{grid::GridConfig, tensor::TensorConfig};
        use crate::model::NerfModel;
        let mut rng = TestRng::from_case("empty_cells_hold_no_density", 0);
        let mut feats = Vec::new();
        for name in ["lego", "ship"] {
            let scene = cicero_scene::library::scene_by_name(name).unwrap();
            let grid = bake::bake_grid(
                &scene,
                &GridConfig {
                    resolution: 32,
                    ..Default::default()
                },
            );
            let tensor = bake::bake_tensor(
                &scene,
                &TensorConfig {
                    resolution: 40,
                    ..Default::default()
                },
            );
            let models: [&dyn NerfModel; 2] = [&grid, &tensor];
            for model in models {
                let (occupancy, b) = (model.occupancy(), model.bounds());
                let (support, loose) =
                    (occupancy.support.as_ref().unwrap(), occupancy.untightened());
                let n = support.lattice.cells();
                let unit = |rng: &mut TestRng| match rng.next_u64() % 8 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.next_unit() as f32,
                };
                let (mut empty, mut dropped) = (0, 0);
                for _ in 0..40_000 {
                    let cell = [0; 3].map(|_| rng.next_u64() as usize % n);
                    if !support.is_empty(cell) {
                        continue;
                    }
                    empty += 1;
                    let at = cell.map(|c| (c as f32 + unit(&mut rng)) / n as f32);
                    let p = b.min + b.size() * Vec3::new(at[0], at[1], at[2]);
                    model.features_into(p, &mut feats);
                    assert!(
                        feats[0] <= RAW_EMPTY + 1e-3,
                        "{name} {p:?}: raw {}",
                        feats[0]
                    );
                    let (sigma, _) = model.decoder().decode(&feats, Vec3::Z);
                    assert_eq!(1.0 - (-sigma * 0.01).exp(), 0.0, "{name} {p:?}");
                    // Interior points are the cell's own, and are dropped.
                    let interior = at.iter().zip(cell).all(|(&a, c)| {
                        let f = a * n as f32 - c as f32;
                        f > 0.01 && f < 0.99
                    });
                    if interior && b.contains(p) {
                        assert!(!occupancy.occupied(p), "{name} {p:?}");
                        dropped += loose.occupied(p) as u32;
                    }
                }
                // Not vacuous: candidates were found empty, and that took
                // points away from the occupied set.
                assert!(
                    empty > 500 && dropped > 300,
                    "{name}: {empty} empty, {dropped} dropped"
                );
            }
        }
    }

    /// The sampled support's per-cell reference: every candidate cell of a
    /// baked hash model asked at all eight sub-samples, one point at a time,
    /// through `features_into` and the decoder's MLP (signal 0, the raw
    /// density).
    fn sampled_support_per_cell(model: &crate::HashModel) -> Support {
        use crate::model::NerfModel;
        let grid = &model.occupancy;
        let lattice = grid
            .support
            .as_ref()
            .expect("a baked model is tightened")
            .lattice;
        let cells = lattice.cells();
        let mut support = grid.untightened().candidates(lattice);
        let (origin, cell) = (grid.bounds().min, grid.bounds().size() / cells as f32);
        let mut input = Vec::new();
        for z in 0..cells {
            for y in 0..cells {
                for x in 0..cells {
                    let candidate = support.is_empty([x, y, z]);
                    let live = candidate
                        && (0..8).any(|s| {
                            model.features_into(sub_sample(origin, cell, [x, y, z], s), &mut input);
                            input.extend([0.0, 0.0, 1.0]);
                            model.decoder().mlp().forward(&input)[0] > RAW_EMPTY
                        });
                    if live {
                        let (word, bit) = support.bit([x, y, z]);
                        support.empty[word] &= !bit;
                    }
                }
            }
        }
        support
    }

    /// A baked hash model's sampled support (the passes over sub-sample
    /// indices, on the pool's lanes, through the block gather and the
    /// slot-0 sum) is the per-cell reference's, bit for bit: dense and
    /// hashed levels, 8 and 11 features per entry, at half the finest
    /// resolution. It is a sample of the density, not a proof that a cell
    /// is empty; this holds the sampling to its rule, and the renderer's
    /// `hash_opacity` tests hold what it costs the frames.
    #[test]
    fn hash_opacity_mask_is_the_per_cell_reference() {
        use crate::bake;
        use crate::encoding::hash::HashConfig;
        let count = |s: &Support| s.empty.iter().map(|w| w.count_ones()).sum::<u32>();
        for (name, features_per_entry, max_resolution) in
            [("lego", 8, 48), ("ship", 11, 40), ("ficus", 8, 33)]
        {
            let scene = cicero_scene::library::scene_by_name(name).unwrap();
            let cfg = HashConfig {
                levels: 5,
                base_resolution: 6,
                max_resolution,
                table_size_log2: 12,
                features_per_entry,
                ..Default::default()
            };
            let model = bake::bake_hash(&scene, &cfg);
            let support = model.occupancy.support.as_ref().unwrap();
            let cells = (max_resolution / 2) as u32;
            assert_eq!(support.lattice, Lattice::Sampled(cells), "{name}");
            assert!(model.encoding.first_hashed_level() < cfg.levels, "{name}");
            assert!(support == &sampled_support_per_cell(&model), "{name}");
            // Not vacuous: some candidates are dropped and most are kept.
            let candidates = count(&model.occupancy.untightened().candidates(support.lattice));
            let dropped = count(support);
            println!("{name}: {dropped} of {candidates} candidates dropped");
            assert!(dropped > 0 && 2 * dropped < candidates, "{name}");
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
        let plain = [8, 48].map(|res| {
            let inside = |p: Vec3| blobs.iter().any(|&(c, r)| (p - c).length() < r);
            OccupancyGrid::from_density(
                bounds,
                res,
                |p| p.map(|p| (inside(p) as u32 as f32, 0.0)),
                0.5,
            )
        });
        // Each also under a support mask, on a lattice of either kind that
        // is coarser than one grid and finer than the other.
        let grids = [
            tightened_by_shrunk_blobs(&plain[0], Lattice::Grid(20), &blobs),
            tightened_by_shrunk_blobs(&plain[1], Lattice::Tensor(32), &blobs),
            plain[0].clone(),
            plain[1].clone(),
        ];
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
