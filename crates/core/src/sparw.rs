//! SPARW: sparse radiance warping (paper §III).
//!
//! Given a *reference frame* (color + depth) rendered at a nearby pose, a
//! *target frame* is synthesized by:
//!
//! 1. back-projecting every reference pixel to a 3-D point (Eq. 1),
//! 2. transforming the point cloud into the target camera frame (Eq. 2),
//! 3. z-buffered forward splatting through the target projection (Eq. 3),
//! 4. classifying the remaining holes into *void* (nothing along the ray —
//!    skipped via the depth test of §III-B step 4) and *disoccluded* pixels,
//!    which alone are re-rendered by the NeRF model (Eq. 4).
//!
//! The warp-angle heuristic (§III-C, Fig. 26) optionally rejects warps whose
//! reference/target rays subtend more than φ at the scene point — the
//! diffuse-radiance approximation degrades there.
//!
//! [`render_target`] is the whole step — warp, then sparse-render the mask —
//! and the one place a target frame is made; [`warp_frame`] and its
//! variants are the warp alone.

use cicero_field::pool::{Checkout, RenderPool};
use cicero_field::simd::{self, Kernel, Lanes, MAX_LANES};
use cicero_field::{
    render_tiled, GatherSink, NerfModel, RenderOptions, RenderStats, StatsViolation, TileOptions,
};
use cicero_math::{Camera, Mat3, Vec3};
use cicero_scene::ground_truth::Frame;
use cicero_telemetry as telemetry;
use std::time::Instant;

/// Warping options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WarpOptions {
    /// Warp-angle threshold φ in radians; `None` warps unconditionally
    /// (the paper only enables φ for the low-FPS experiments of §VI-F).
    pub phi: Option<f32>,
}

/// Depth at which a hole pixel's ray is probed for void classification.
const VOID_PROBE_DEPTH: f32 = 1.0e3;

/// Provenance of each target pixel after warping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelSource {
    /// Reused from the reference frame.
    Warped,
    /// Hole caused by disocclusion (or splat cracks) — needs sparse NeRF.
    Disoccluded,
    /// Nothing along the ray; filled with background, no rendering needed.
    Void,
    /// Warp rejected by the φ heuristic — needs sparse NeRF.
    RejectedByAngle,
}

/// Result of warping one target frame.
#[derive(Debug, Clone)]
pub struct WarpResult {
    /// The warped frame (holes carry the background color / infinite depth).
    pub frame: Frame,
    /// Per-pixel provenance, row-major.
    pub status: Vec<PixelSource>,
}

/// Aggregate warp statistics (paper Fig. 7 and §III-A's disocclusion rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarpStats {
    /// Total target pixels.
    pub total: u64,
    /// Pixels reused from the reference.
    pub warped: u64,
    /// Disoccluded pixels (sparse NeRF work).
    pub disoccluded: u64,
    /// Void pixels (background, skipped by the depth test).
    pub void_pixels: u64,
    /// Pixels rejected by the φ heuristic (sparse NeRF work).
    pub rejected: u64,
}

impl WarpStats {
    /// Fraction of pixels that did *not* need NeRF rendering — the paper's
    /// "overlapped" percentage (>98% on Synthetic-NeRF).
    pub fn overlap_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.warped + self.void_pixels) as f64 / self.total as f64
    }

    /// Fraction of pixels requiring sparse NeRF rendering.
    pub fn render_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.disoccluded + self.rejected) as f64 / self.total as f64
    }

    /// Adds another frame's counts.
    pub fn accumulate(&mut self, o: &WarpStats) {
        self.total += o.total;
        self.warped += o.warped;
        self.disoccluded += o.disoccluded;
        self.void_pixels += o.void_pixels;
        self.rejected += o.rejected;
    }
}

impl WarpResult {
    /// A 0 × 0 result for [`warp_frame_into`] to shape and fill.
    pub fn empty() -> Self {
        WarpResult {
            frame: Frame {
                color: cicero_math::Image::new(0, 0, Vec3::ZERO),
                depth: cicero_math::DepthMap::empty(0, 0),
            },
            status: Vec::new(),
        }
    }

    /// The sparse-rendering mask (row-major): `true` where the NeRF model
    /// must run (Eq. 4's `Γ_sp`).
    pub fn render_mask(&self) -> Vec<bool> {
        self.status
            .iter()
            .map(|s| matches!(s, PixelSource::Disoccluded | PixelSource::RejectedByAngle))
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> WarpStats {
        let mut st = WarpStats {
            total: self.status.len() as u64,
            ..Default::default()
        };
        for s in &self.status {
            match s {
                PixelSource::Warped => st.warped += 1,
                PixelSource::Disoccluded => st.disoccluded += 1,
                PixelSource::Void => st.void_pixels += 1,
                PixelSource::RejectedByAngle => st.rejected += 1,
            }
        }
        st
    }
}

/// A forward-splatted contribution to one target pixel (steps 1–3's point
/// rasterization), of unit weight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Splat {
    tx: u32,
    ty: u32,
    z: f32,
    color: Vec3,
    rejected: bool,
}

/// Reusable warp working memory.
///
/// One warp at `tw × th` touches several full-frame scratch buffers (splat
/// lists, z-buffer, accumulators, status snapshots). Allocating them per
/// frame dominated small-frame warps; a scratch carried across frames (e.g.
/// by `PipelineSession`) reuses every buffer. Contents never leak between
/// warps — each pass clears before filling — so warping through a reused
/// scratch is bit-identical to warping through a fresh one.
#[derive(Debug, Default)]
pub struct WarpScratch {
    /// Per-band splat lists (one band per worker thread; band order =
    /// reference row order, so concatenation reproduces the sequential
    /// splat order exactly).
    band_splats: Vec<Vec<Splat>>,
    /// Per-target-pixel nearest splat depth.
    zmin: Vec<f32>,
    /// Weighted color accumulator.
    acc_color: Vec<Vec3>,
    /// Weight accumulator.
    acc_w: Vec<f32>,
    /// Weighted depth accumulator.
    acc_z: Vec<f32>,
    /// Weight rejected by the φ heuristic.
    rej_w: Vec<f32>,
    /// Status snapshot read by the classification/crack-fill passes.
    snapshot: Vec<PixelSource>,
    /// Color snapshot for the crack-fill pass.
    color_snap: Vec<Vec3>,
    /// Depth snapshot for the crack-fill pass.
    depth_snap: Vec<f32>,
}

impl WarpScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clears `v` and refills it with `n` copies of `fill`, keeping capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Generates the splats of reference rows `rows` into `out` (cleared first).
fn splat_rows(
    reference: &Frame,
    ref_cam: &Camera,
    tgt_cam: &Camera,
    opts: &WarpOptions,
    rows: std::ops::Range<usize>,
    out: &mut Vec<Splat>,
) {
    out.clear();
    simd::dispatch(SplatRows {
        reference,
        ref_cam,
        tgt_cam,
        opts,
        rows,
        out,
    });
}

/// The splat pass over a band of reference rows, as a [`Kernel`]: the
/// reprojection chain for `W::N` consecutive pixels of a row runs through
/// [`WarpChain`] (bit-identical to the camera methods, see its docs); the
/// per-pixel finish — depth validity, behind-camera rejection, φ test, taps,
/// pushes — is scalar code in [`push_splats`], in left-to-right pixel order.
/// A row's last group is padded with non-finite depths: those lanes are
/// computed and discarded like any background pixel.
struct SplatRows<'a> {
    reference: &'a Frame,
    ref_cam: &'a Camera,
    tgt_cam: &'a Camera,
    opts: &'a WarpOptions,
    rows: std::ops::Range<usize>,
    out: &'a mut Vec<Splat>,
}

impl Kernel for SplatRows<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(self) {
        let rw = self.ref_cam.intrinsics.width;
        let chain = WarpChain::new(self.ref_cam, self.tgt_cam);
        let depth = self.reference.depth.pixels();
        let mut us = [0.0f32; MAX_LANES];
        for y in self.rows {
            let v = W::splat(y as f32 + 0.5);
            for x in (0..rw).step_by(W::N) {
                let n = W::N.min(rw - x);
                let mut d = [f32::INFINITY; MAX_LANES];
                d[..n].copy_from_slice(&depth[y * rw + x..][..n]);
                for (lane, u) in us.iter_mut().enumerate() {
                    *u = (x + lane) as f32 + 0.5;
                }
                let [pwx, pwy, pwz, ut, vt, zt] = chain.run_staged(W::load(&us), v, W::load(&d));
                for lane in 0..n {
                    if !d[lane].is_finite() || zt[lane] <= 1e-6 {
                        continue; // background, or behind the target camera — Eq. 2+3
                    }
                    push_splats(
                        self.reference,
                        self.ref_cam,
                        self.tgt_cam,
                        self.opts,
                        x + lane,
                        y,
                        Vec3::new(pwx[lane], pwy[lane], pwz[lane]),
                        ut[lane],
                        vt[lane],
                        zt[lane],
                        self.out,
                    );
                }
            }
        }
    }
}

/// The tail of one splat-pass pixel: the φ rejection test and the
/// bounds-checked push, on the per-lane values of [`WarpChain`].
#[allow(clippy::too_many_arguments)]
fn push_splats(
    reference: &Frame,
    ref_cam: &Camera,
    tgt_cam: &Camera,
    opts: &WarpOptions,
    x: usize,
    y: usize,
    p_world: Vec3,
    ut: f32,
    vt: f32,
    zt: f32,
    out: &mut Vec<Splat>,
) {
    let (tw, th) = (tgt_cam.intrinsics.width, tgt_cam.intrinsics.height);
    let rejected = match opts.phi {
        Some(phi) => {
            // θ of Fig. 8: angle at P between the two camera rays.
            let theta =
                (ref_cam.pose.position - p_world).angle_between(tgt_cam.pose.position - p_world);
            theta > phi
        }
        None => false,
    };
    // The point lands on its nearest pixel with unit weight — the paper's
    // "the pixel value Px can be simply reused in Py". Crisp (no resampling
    // blur), at the cost of ±half-pixel alignment.
    let tx = (ut - 0.5).round() as i64;
    let ty = (vt - 0.5).round() as i64;
    if tx < 0 || ty < 0 || tx >= tw as i64 || ty >= th as i64 {
        return;
    }
    out.push(Splat {
        tx: tx as u32,
        ty: ty as u32,
        z: zt,
        color: *reference.color.get(x, y),
        rejected,
    });
}

/// Hoisted constants for the reprojection chain
/// `dst.project_world(src.unproject_to_world(u, v, d))`, run on any
/// [`Lanes`] vector. The camera methods are its oracle.
///
/// Bit-identity argument, op by op against them:
///
/// - `Intrinsics::unproject`: `(u - c) * d / focal` — the chain issues the
///   same sub / mul / div sequence per lane.
/// - `Pose::to_world`: `rotation.rotate(p) + position` where
///   `Quat::rotate` is `to_mat3() * v` and `Mat3 * Vec3` expands to
///   `cols[0]*v.x + cols[1]*v.y + cols[2]*v.z` — per component that is
///   `(m00*x + m01*y) + m02*z`, the exact tree [`mat_row`] builds; the
///   position add follows, componentwise. Hoisting `to_mat3()` is safe:
///   the quaternion is fixed, so every per-pixel call rebuilds the same
///   matrix bits.
/// - `Pose::to_camera`: `conjugate().rotate(p - position)` — componentwise
///   sub first, then the same matrix tree with the conjugate matrix.
/// - `Intrinsics::project`: `focal * x / z + c` — same mul / div / add
///   sequence; the chain computes all lanes unconditionally (IEEE division
///   never traps; z ≤ 1e-6 lanes produce garbage that callers discard
///   exactly where `project` returns `None`).
struct WarpChain {
    src_cx: f32,
    src_cy: f32,
    src_focal: f32,
    src_m: Mat3,
    src_pos: Vec3,
    dst_mc: Mat3,
    dst_pos: Vec3,
    dst_cx: f32,
    dst_cy: f32,
    dst_focal: f32,
}

/// One rotation-matrix row applied to every lane: `(a*x + b*y) + c*z`, the
/// per-component tree of `Mat3 * Vec3` (two left-associated Vec3 adds).
#[inline(always)]
fn mat_row<V: Lanes>(a: f32, b: f32, c: f32, x: V, y: V, z: V) -> V {
    V::splat(a)
        .mul(x)
        .add_mul(V::splat(b), y)
        .add_mul(V::splat(c), z)
}

impl WarpChain {
    fn new(src: &Camera, dst: &Camera) -> Self {
        Self {
            src_cx: src.intrinsics.cx,
            src_cy: src.intrinsics.cy,
            src_focal: src.intrinsics.focal,
            src_m: src.pose.rotation.to_mat3(),
            src_pos: src.pose.position,
            dst_mc: dst.pose.rotation.conjugate().to_mat3(),
            dst_pos: dst.pose.position,
            dst_cx: dst.intrinsics.cx,
            dst_cy: dst.intrinsics.cy,
            dst_focal: dst.intrinsics.focal,
        }
    }

    /// Every lane of unproject → to-world → to-camera → project. Returns
    /// `[p_world.x, p_world.y, p_world.z, u_dst, v_dst, z_dst]`; a lane is
    /// valid (`project` returns `Some`) iff its `z_dst > 1e-6`.
    #[inline(always)]
    fn run<V: Lanes>(&self, u: V, v: V, d: V) -> [V; 6] {
        let focal = V::splat(self.src_focal);
        let px = u.sub(V::splat(self.src_cx)).mul(d).div(focal);
        let py = v.sub(V::splat(self.src_cy)).mul(d).div(focal);
        let m = &self.src_m;
        let wx =
            mat_row(m.cols[0].x, m.cols[1].x, m.cols[2].x, px, py, d).add(V::splat(self.src_pos.x));
        let wy =
            mat_row(m.cols[0].y, m.cols[1].y, m.cols[2].y, px, py, d).add(V::splat(self.src_pos.y));
        let wz =
            mat_row(m.cols[0].z, m.cols[1].z, m.cols[2].z, px, py, d).add(V::splat(self.src_pos.z));
        let qx = wx.sub(V::splat(self.dst_pos.x));
        let qy = wy.sub(V::splat(self.dst_pos.y));
        let qz = wz.sub(V::splat(self.dst_pos.z));
        let mc = &self.dst_mc;
        let rx = mat_row(mc.cols[0].x, mc.cols[1].x, mc.cols[2].x, qx, qy, qz);
        let ry = mat_row(mc.cols[0].y, mc.cols[1].y, mc.cols[2].y, qx, qy, qz);
        let rz = mat_row(mc.cols[0].z, mc.cols[1].z, mc.cols[2].z, qx, qy, qz);
        let df = V::splat(self.dst_focal);
        let ut = df.mul(rx).div(rz).add(V::splat(self.dst_cx));
        let vt = df.mul(ry).div(rz).add(V::splat(self.dst_cy));
        [wx, wy, wz, ut, vt, rz]
    }

    /// [`WarpChain::run`] with its six results stored to stack arrays, for
    /// the per-lane scalar finish (lanes past `V::N` stay zero).
    #[inline(always)]
    fn run_staged<V: Lanes>(&self, u: V, v: V, d: V) -> [[f32; MAX_LANES]; 6] {
        const { assert!(V::N <= MAX_LANES) };
        let mut staged = [[0.0f32; MAX_LANES]; 6];
        let lanes = self.run(u, v, d);
        let mut i = 0;
        while i < 6 {
            lanes[i].store(&mut staged[i]);
            i += 1;
        }
        staged
    }
}

/// The normalize pass over one target band, as a [`Kernel`]: the weight
/// reciprocal and normalized depth for `V::N` consecutive pixels run on
/// lanes (`div` / `mul` are per-lane the scalar `1.0 / w` and `z * inv`),
/// the per-pixel coverage gate, `Vec3` color scale and status write stay
/// scalar. Uncovered lanes are computed and discarded (IEEE division never
/// traps: a zero weight just yields an unused `inf`). The band's tail goes
/// through the same group at `H`, `Q` and then `[f32; 1]`.
struct NormalizeBand<'a> {
    acc_color: &'a [Vec3],
    acc_z: &'a [f32],
    acc_w: &'a [f32],
    rej_w: &'a [f32],
    /// Frame index of the band's first pixel.
    base: usize,
    cb: &'a mut [Vec3],
    db: &'a mut [f32],
    sb: &'a mut [PixelSource],
}

impl Kernel for NormalizeBand<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(mut self) {
        let len = self.sb.len();
        let mut local = 0;
        while local + W::N <= len {
            self.group::<W>(local);
            local += W::N;
        }
        if local + H::N <= len {
            self.group::<H>(local);
            local += H::N;
        }
        if local + Q::N <= len {
            self.group::<Q>(local);
            local += Q::N;
        }
        while local < len {
            self.group::<[f32; 1]>(local);
            local += 1;
        }
    }
}

impl NormalizeBand<'_> {
    /// Band pixels `local..local + V::N`.
    #[inline(always)]
    fn group<V: Lanes>(&mut self, local: usize) {
        const { assert!(V::N <= MAX_LANES) };
        let idx0 = self.base + local;
        let (mut inv, mut dz) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
        let winv = V::splat(1.0).div(V::load(&self.acc_w[idx0..]));
        winv.store(&mut inv);
        V::load(&self.acc_z[idx0..]).mul(winv).store(&mut dz);
        for lane in 0..V::N {
            let idx = idx0 + lane;
            // Coverage gate: every splat weighs one, so this admits exactly
            // the pixels at least one splat reached; the rest stay holes,
            // classified below.
            if self.acc_w[idx] < 0.75 {
                continue;
            }
            self.cb[local + lane] = self.acc_color[idx] * inv[lane];
            self.db[local + lane] = dz[lane];
            self.sb[local + lane] = if self.rej_w[idx] * 2.0 > self.acc_w[idx] {
                PixelSource::RejectedByAngle
            } else {
                PixelSource::Warped
            };
        }
    }
}

/// The void-classification pass over one target band, as a [`Kernel`]: hole
/// pixels are collected into batches of `W::N` and their far-probe
/// reprojection (target unproject at [`VOID_PROBE_DEPTH`] → reference project)
/// runs through [`WarpChain`]; the per-pixel finish — texel rounding,
/// frustum / background test, warped-neighbor scan, write — stays scalar in
/// [`classify_finish`]. Deferring a pixel's finish to its batch cannot
/// change results: decisions read only the status *snapshot* and the
/// reference frame, never in-band writes. The band's last batch runs partly
/// filled; its spare lanes are computed and discarded.
struct ClassifyBand<'a> {
    reference: &'a Frame,
    ref_cam: &'a Camera,
    tgt_cam: &'a Camera,
    snapshot: &'a [PixelSource],
    background: Vec3,
    /// First target row of the band.
    y0: usize,
    cb: &'a mut [Vec3],
    sb: &'a mut [PixelSource],
}

impl Kernel for ClassifyBand<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(mut self) {
        const { assert!(W::N <= MAX_LANES) };
        let tw = self.tgt_cam.intrinsics.width;
        let chain = WarpChain::new(self.tgt_cam, self.ref_cam);
        let mut locs = [0usize; MAX_LANES];
        let (mut us, mut vs) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
        let mut n = 0;
        for local in 0..self.sb.len() {
            if self.sb[local] != PixelSource::Disoccluded {
                continue;
            }
            let idx = self.y0 * tw + local;
            locs[n] = local;
            us[n] = (idx % tw) as f32 + 0.5;
            vs[n] = (idx / tw) as f32 + 0.5;
            n += 1;
            if n == W::N {
                self.flush::<W>(&chain, &locs[..n], &us, &vs);
                n = 0;
            }
        }
        self.flush::<W>(&chain, &locs[..n], &us, &vs);
    }
}

impl ClassifyBand<'_> {
    /// Probes and finishes the batched holes `locs`; `us` / `vs` lanes past
    /// `locs.len()` hold stale pixels, computed and discarded.
    #[inline(always)]
    fn flush<V: Lanes>(
        &mut self,
        chain: &WarpChain,
        locs: &[usize],
        us: &[f32; MAX_LANES],
        vs: &[f32; MAX_LANES],
    ) {
        let (tw, th) = (
            self.tgt_cam.intrinsics.width,
            self.tgt_cam.intrinsics.height,
        );
        let (rw, rh) = (
            self.ref_cam.intrinsics.width,
            self.ref_cam.intrinsics.height,
        );
        let probe = V::splat(VOID_PROBE_DEPTH);
        let [_, _, _, ru, rv, rz] = chain.run_staged(V::load(us), V::load(vs), probe);
        for (lane, &local) in locs.iter().enumerate() {
            // A hole whose far probe lands on reference background is void.
            let is_void = rz[lane] > 1e-6 && {
                let rx = (ru[lane] - 0.5).round() as i64;
                let ry = (rv[lane] - 0.5).round() as i64;
                if rx >= 0 && ry >= 0 && rx < rw as i64 && ry < rh as i64 {
                    !self
                        .reference
                        .depth
                        .get(rx as usize, ry as usize)
                        .is_finite()
                } else {
                    false // outside the reference frustum: must render
                }
            };
            classify_finish(
                self.snapshot,
                self.background,
                tw,
                th,
                self.y0 * tw + local,
                is_void,
                &mut self.cb[local],
                &mut self.sb[local],
            );
        }
    }
}

/// The tail of one void-classification pixel, once `is_void` has been
/// decided: the warped-neighbor scan and the Void / background write.
#[allow(clippy::too_many_arguments)]
fn classify_finish(
    snapshot: &[PixelSource],
    background: Vec3,
    tw: usize,
    th: usize,
    idx: usize,
    is_void: bool,
    cb: &mut Vec3,
    sb: &mut PixelSource,
) {
    let (tx, ty) = (idx % tw, idx / tw);
    let near_surface = {
        let mut found = false;
        'scan: for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (nx, ny) = (tx as i64 + dx, ty as i64 + dy);
                if nx < 0 || ny < 0 || nx >= tw as i64 || ny >= th as i64 {
                    continue;
                }
                if snapshot[ny as usize * tw + nx as usize] == PixelSource::Warped {
                    found = true;
                    break 'scan;
                }
            }
        }
        found
    };
    if is_void && !near_surface {
        *sb = PixelSource::Void;
    } else {
        // Rejected-by-angle pixels that lost the z-test race stay
        // disoccluded; color remains background until sparse NeRF.
        *cb = background;
    }
}

/// Minimum rows per worker band: waking a pool lane costs more than
/// processing a few short rows, so tiny frames use fewer bands than the
/// checkout has lanes. Banding never affects results, only dispatch
/// overhead.
const MIN_BAND_ROWS: usize = 8;

/// Runs `f` once per row band of the target frame, one band per lane of the
/// pool checkout ([`Checkout::run_items`]). Each invocation gets the band's
/// first row and disjoint mutable slices of the frame color/depth and the
/// status map; the closure may freely read shared state. Per-pixel work is
/// independent, so the result is identical at any lane count.
fn for_each_target_band<F>(co: &Checkout<'_>, out: &mut WarpResult, f: F)
where
    F: Fn(usize, &mut [Vec3], &mut [f32], &mut [PixelSource]) + Sync,
{
    let WarpResult { frame, status } = out;
    let (tw, th) = (frame.width(), frame.height());
    let n_bands = co.lanes().min(th.div_ceil(MIN_BAND_ROWS)).max(1);
    let rows_per_band = th.div_ceil(n_bands).max(1);
    let chunk = (rows_per_band * tw).max(1);
    let bands = (frame.color.pixels_mut().chunks_mut(chunk))
        .zip(frame.depth.pixels_mut().chunks_mut(chunk))
        .zip(status.chunks_mut(chunk))
        .enumerate();
    co.run_items(bands, |_, bands| {
        for (band, ((cb, db), sb)) in bands {
            f(band * rows_per_band, cb, db, sb);
        }
    });
}

/// Wall-clock time spent in each warp pass, seconds — the per-pass
/// breakdown the frozen benchmark reports as `core.sparw.*_ms`. Accumulates
/// across warps; zero a fresh instance per measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WarpTiming {
    /// Splat generation (pool pass 1).
    pub splat_s: f64,
    /// Sequential z-buffer resolve (reference-row order, leader only).
    pub resolve_s: f64,
    /// Normalize/classify-warped pass (pool pass 2).
    pub normalize_s: f64,
    /// Void/disocclusion classification pass (pool pass 3).
    pub classify_s: f64,
    /// Crack-fill pass (pool pass 4).
    pub crack_fill_s: f64,
}

impl WarpTiming {
    /// Sum over all passes.
    pub fn total_s(&self) -> f64 {
        self.splat_s + self.resolve_s + self.normalize_s + self.classify_s + self.crack_fill_s
    }
}

/// Closes a warp's passes one after another: each [`close`](Self::close)
/// charges the interval since the previous one to a [`WarpTiming`] slot
/// (when the caller asked for the breakdown) and emits the matching
/// telemetry span.
struct PassClock<'t> {
    timing: Option<&'t mut WarpTiming>,
    last: Instant,
    /// Pass boundary on the telemetry clock; zero means "recorder was off
    /// when the warp started", which skips span emission for this warp.
    span_mark: u64,
}

impl<'t> PassClock<'t> {
    fn start(timing: Option<&'t mut WarpTiming>) -> Self {
        PassClock {
            timing,
            last: Instant::now(),
            span_mark: if telemetry::is_enabled() {
                telemetry::now_ns()
            } else {
                0
            },
        }
    }

    fn close(&mut self, slot: fn(&mut WarpTiming) -> &mut f64, phase: telemetry::Phase) {
        let now = Instant::now();
        if let Some(t) = self.timing.as_deref_mut() {
            *slot(t) += (now - self.last).as_secs_f64();
        }
        self.last = now;
        if self.span_mark != 0 && telemetry::is_enabled() {
            let now_ns = telemetry::now_ns();
            telemetry::span_at(phase, self.span_mark, now_ns, 0, 0, 0);
            self.span_mark = now_ns;
        }
    }
}

/// A target frame of [`render_target`].
#[derive(Debug, Clone, PartialEq)]
pub struct TargetFrame {
    /// The warped frame, its holes filled by the sparse render.
    pub frame: Frame,
    /// What the warp supplied and what it left to the render.
    pub warp: WarpStats,
    /// The sparse render's work.
    pub render: RenderStats,
}

/// A law of [`TargetFrame`] that a target frame breaks; see
/// [`TargetFrame::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetViolation {
    /// `warped + disoccluded + void_pixels + rejected` is not `total`.
    ClassesMissTotal {
        /// The four classes' pixels, summed.
        classes: u64,
        /// `total`.
        total: u64,
    },
    /// `total` is not the frame's pixel count.
    TotalMissesFrame {
        /// `total`.
        total: u64,
        /// The frame's width × height.
        pixels: u64,
    },
    /// The sparse render did not march one ray per pixel it was given.
    RaysMissRendered {
        /// `render.rays`.
        rays: u64,
        /// `disoccluded + rejected`.
        rendered: u64,
    },
    /// The sparse render breaks a law of [`RenderStats::check`] over the
    /// `disoccluded + rejected` pixels it was given.
    Render(StatsViolation),
}

impl TargetFrame {
    /// The laws of a target frame of `model`:
    ///
    /// - every pixel is in exactly one of the warp's classes:
    ///   `warped + disoccluded + void_pixels + rejected == total`;
    /// - `total` is the frame's width × height;
    /// - the sparse render marches one ray per pixel it renders:
    ///   `render.rays == disoccluded + rejected`;
    /// - it keeps [`RenderStats::check`]'s other laws over those pixels
    ///   (its `rays <= pixels` is the law above, reported once, there).
    ///
    /// # Errors
    ///
    /// Every law broken, in that order.
    pub fn check<M: NerfModel + ?Sized>(&self, model: &M) -> Result<(), Vec<TargetViolation>> {
        let w = &self.warp;
        let sum = |counts: &[u64]| counts.iter().fold(0_u64, |a, &c| a.saturating_add(c));
        let mut broken = Vec::new();
        let classes = sum(&[w.warped, w.disoccluded, w.void_pixels, w.rejected]);
        if classes != w.total {
            broken.push(TargetViolation::ClassesMissTotal {
                classes,
                total: w.total,
            });
        }
        let pixels = (self.frame.width() * self.frame.height()) as u64;
        if w.total != pixels {
            broken.push(TargetViolation::TotalMissesFrame {
                total: w.total,
                pixels,
            });
        }
        let rendered = sum(&[w.disoccluded, w.rejected]);
        if self.render.rays != rendered {
            broken.push(TargetViolation::RaysMissRendered {
                rays: self.render.rays,
                rendered,
            });
        }
        if let Err(render) = self.render.check(model, rendered) {
            let others = render
                .into_iter()
                .filter(|v| !matches!(v, StatsViolation::RaysAbovePixels { .. }));
            broken.extend(others.map(TargetViolation::Render));
        }
        if broken.is_empty() {
            Ok(())
        } else {
            Err(broken)
        }
    }
}

/// SPARW's target frame (Eq. 4): warps `reference` (rendered at `ref_cam`)
/// to `cam` over `model`'s background, then renders exactly the pixels of
/// the warp's [`WarpResult::render_mask`] into the warped frame through
/// `sink`.
///
/// The one target-frame path: pipeline sessions, the figures' measured
/// target, Temp-N's chain and Fig. 9 all make their target frames here.
/// The warp and the render both run on `tile.threads` pool lanes; the
/// frame, both statistics and the sink's sample stream are bit-identical at
/// any lane count, as [`warp_frame_into`] and [`render_tiled`] are.
///
/// # Panics
///
/// Panics if the reference frame's dimensions differ from `ref_cam`'s
/// intrinsics, or if a pool worker panics.
#[allow(clippy::too_many_arguments)]
pub fn render_target<M: NerfModel + ?Sized, S: GatherSink>(
    model: &M,
    opts: &RenderOptions,
    reference: &Frame,
    ref_cam: &Camera,
    cam: &Camera,
    warp: &WarpOptions,
    scratch: &mut WarpScratch,
    tile: &TileOptions,
    sink: &mut S,
) -> TargetFrame {
    let mut warped = WarpResult::empty();
    warp_frame_into(
        reference,
        ref_cam,
        cam,
        model.background(),
        warp,
        scratch,
        tile.threads,
        &mut warped,
    );
    let (stats, mask) = (warped.stats(), warped.render_mask());
    let mut frame = warped.frame;
    let render = render_tiled(model, cam, opts, Some(&mask), &mut frame, sink, tile);
    TargetFrame {
        frame,
        warp: stats,
        render,
    }
}

/// Warps `reference` (rendered at `ref_cam`) to the pose of `tgt_cam`.
///
/// `background` fills void/hole pixels until sparse rendering replaces the
/// disoccluded ones. Allocates fresh working memory and runs
/// single-threaded; frame loops use [`warp_frame_into`].
///
/// # Panics
///
/// Panics if the reference frame's dimensions differ from `ref_cam`'s
/// intrinsics.
pub fn warp_frame(
    reference: &Frame,
    ref_cam: &Camera,
    tgt_cam: &Camera,
    background: Vec3,
    opts: &WarpOptions,
) -> WarpResult {
    let mut out = WarpResult::empty();
    let scratch = &mut WarpScratch::new();
    warp_frame_into(
        reference, ref_cam, tgt_cam, background, opts, scratch, 1, &mut out,
    );
    out
}

/// [`warp_frame`] through reusable working memory and `threads` pool lanes,
/// writing into a caller-owned result: frame loops that keep `out` (and
/// `scratch`) across frames perform **zero heap allocations per warp** once
/// warm — `tests/zero_alloc.rs` enforces this, pool checkout and pass
/// barriers included. Dimension changes re-shape `out`; contents never leak
/// between warps.
///
/// The splat, normalize, hole-classification and crack-fill passes all run
/// on **one** checkout of the persistent render pool — one worker
/// reservation per frame with a barrier between passes. The output is
/// **bit-identical** to the sequential warp at any lane count (per-pixel
/// work is independent, and the one order-sensitive float accumulation —
/// splat resolution — always runs in reference row order).
///
/// # Panics
///
/// Panics if the reference frame's dimensions differ from `ref_cam`'s
/// intrinsics, or if a pool worker panics.
#[allow(clippy::too_many_arguments)]
pub fn warp_frame_into(
    reference: &Frame,
    ref_cam: &Camera,
    tgt_cam: &Camera,
    background: Vec3,
    opts: &WarpOptions,
    scratch: &mut WarpScratch,
    threads: usize,
    out: &mut WarpResult,
) {
    warp_frame_impl(
        reference, ref_cam, tgt_cam, background, opts, scratch, threads, out, None,
    );
}

/// [`warp_frame_into`] returning a fresh result, that also accumulates the
/// wall-clock per-pass breakdown into `timing` (benchmark instrumentation).
///
/// # Panics
///
/// Same contract as [`warp_frame_into`].
#[allow(clippy::too_many_arguments)]
pub fn warp_frame_timed(
    reference: &Frame,
    ref_cam: &Camera,
    tgt_cam: &Camera,
    background: Vec3,
    opts: &WarpOptions,
    scratch: &mut WarpScratch,
    threads: usize,
    timing: &mut WarpTiming,
) -> WarpResult {
    let mut out = WarpResult::empty();
    warp_frame_impl(
        reference,
        ref_cam,
        tgt_cam,
        background,
        opts,
        scratch,
        threads,
        &mut out,
        Some(timing),
    );
    out
}

/// One warp as a list of passes: shape the output, then splat → resolve →
/// normalize → classify → crack-fill, each closed on the pass clock.
#[allow(clippy::too_many_arguments)]
fn warp_frame_impl(
    reference: &Frame,
    ref_cam: &Camera,
    tgt_cam: &Camera,
    background: Vec3,
    opts: &WarpOptions,
    scratch: &mut WarpScratch,
    threads: usize,
    out: &mut WarpResult,
    timing: Option<&mut WarpTiming>,
) {
    assert_eq!(
        (reference.width(), reference.height()),
        (ref_cam.intrinsics.width, ref_cam.intrinsics.height),
        "reference frame/camera mismatch"
    );
    let mut clock = PassClock::start(timing);
    shape_output(out, tgt_cam, background);
    // One checkout serves every pass of this warp: the workers are reserved
    // once, each `co.run_items` is one pass-barrier cycle, and the workers return
    // to the pool when the checkout drops at the end of the warp.
    let warp = Warp {
        reference,
        ref_cam,
        tgt_cam,
        background,
        opts,
        co: RenderPool::global().checkout(threads.max(1) - 1),
    };
    let n_bands = warp.splat(scratch);
    clock.close(|t| &mut t.splat_s, telemetry::Phase::WarpSplat);
    warp.resolve(scratch, n_bands);
    clock.close(|t| &mut t.resolve_s, telemetry::Phase::WarpResolve);
    warp.normalize(scratch, out);
    clock.close(|t| &mut t.normalize_s, telemetry::Phase::WarpNormalize);
    warp.classify(scratch, out);
    clock.close(|t| &mut t.classify_s, telemetry::Phase::WarpClassify);
    warp.fill_cracks(scratch, out);
    clock.close(|t| &mut t.crack_fill_s, telemetry::Phase::WarpCrackFill);
}

/// Shapes `out` for a warp to `tgt_cam`: every pixel background at infinite
/// depth and `Disoccluded`. Reuses the buffers when dimensions match.
fn shape_output(out: &mut WarpResult, tgt_cam: &Camera, background: Vec3) {
    let (tw, th) = (tgt_cam.intrinsics.width, tgt_cam.intrinsics.height);
    if out.frame.width() != tw || out.frame.height() != th {
        out.frame = Frame {
            color: cicero_math::Image::new(tw, th, background),
            depth: cicero_math::DepthMap::empty(tw, th),
        };
    } else {
        out.frame.color.fill(background);
        out.frame.depth.fill(f32::INFINITY);
    }
    refill(&mut out.status, tw * th, PixelSource::Disoccluded);
}

/// What every pass of one warp reads: the inputs and the pool checkout.
struct Warp<'a> {
    reference: &'a Frame,
    ref_cam: &'a Camera,
    tgt_cam: &'a Camera,
    background: Vec3,
    opts: &'a WarpOptions,
    co: Checkout<'a>,
}

impl Warp<'_> {
    /// Steps 1-3: point cloud conversion, transform, forward splatting (the
    /// "standard rasterization pipeline" of Eq. 3). Splat generation is
    /// per-reference-pixel independent: each band of reference rows fills
    /// its own list of `scratch.band_splats`. Returns the bands filled.
    fn splat(&self, scratch: &mut WarpScratch) -> usize {
        let rh = self.ref_cam.intrinsics.height;
        let n_bands = self.co.lanes().min(rh.div_ceil(MIN_BAND_ROWS)).max(1);
        let rows_per_band = rh.div_ceil(n_bands).max(1);
        let n_bands = rh.div_ceil(rows_per_band).max(1);
        if scratch.band_splats.len() < n_bands {
            // Never shrink: capacities stay warm even when the pool serves
            // fewer lanes on a contended frame. Only bands `..n_bands` are
            // filled here and resolved next.
            scratch.band_splats.resize_with(n_bands, Vec::new);
        }
        let (reference, ref_cam, tgt_cam, opts) =
            (self.reference, self.ref_cam, self.tgt_cam, self.opts);
        let bands = scratch.band_splats[..n_bands].iter_mut().enumerate();
        self.co.run_items(bands, |_, bands| {
            for (band, splats) in bands {
                let y0 = band * rows_per_band;
                let y1 = (y0 + rows_per_band).min(rh);
                splat_rows(reference, ref_cam, tgt_cam, opts, y0..y1, splats);
            }
        });
        n_bands
    }

    /// Resolve: a z-buffer over the splats, then the contributions within a
    /// depth tolerance of each pixel's front surface accumulate. Sequential
    /// in band (= reference row) order: float accumulation order is exactly
    /// the sequential warp's, so sums are bit-identical.
    fn resolve(&self, scratch: &mut WarpScratch, n_bands: usize) {
        let (tw, th) = (
            self.tgt_cam.intrinsics.width,
            self.tgt_cam.intrinsics.height,
        );
        refill(&mut scratch.zmin, tw * th, f32::INFINITY);
        refill(&mut scratch.acc_color, tw * th, Vec3::ZERO);
        refill(&mut scratch.acc_w, tw * th, 0.0f32);
        refill(&mut scratch.acc_z, tw * th, 0.0f32);
        refill(&mut scratch.rej_w, tw * th, 0.0f32);
        for band in &scratch.band_splats[..n_bands] {
            for s in band {
                let idx = s.ty as usize * tw + s.tx as usize;
                if s.z < scratch.zmin[idx] {
                    scratch.zmin[idx] = s.z;
                }
            }
        }
        for band in &scratch.band_splats[..n_bands] {
            for s in band {
                let idx = s.ty as usize * tw + s.tx as usize;
                let front = scratch.zmin[idx];
                let tol = (front * 0.02).max(0.02);
                if s.z > front + tol {
                    continue; // occluded contribution
                }
                scratch.acc_color[idx] += s.color;
                scratch.acc_z[idx] += s.z;
                scratch.acc_w[idx] += 1.0;
                if s.rejected {
                    scratch.rej_w[idx] += 1.0;
                }
            }
        }
    }

    /// Normalize: covered pixels take their weighted color and depth and
    /// become `Warped` (or `RejectedByAngle`).
    fn normalize(&self, scratch: &WarpScratch, out: &mut WarpResult) {
        let tw = self.tgt_cam.intrinsics.width;
        for_each_target_band(&self.co, out, |y0, cb, db, sb| {
            simd::dispatch(NormalizeBand {
                acc_color: &scratch.acc_color,
                acc_z: &scratch.acc_z,
                acc_w: &scratch.acc_w,
                rej_w: &scratch.rej_w,
                base: y0 * tw,
                cb,
                db,
                sb,
            });
        });
    }

    /// Step 4's depth test: classify remaining holes. A hole whose far probe
    /// lands on reference background is void — nothing along the ray — and
    /// needs no rendering. Neighbor lookups read a status snapshot; the only
    /// in-pass transition is Disoccluded → Void, which the Warped scan never
    /// observes, so snapshot reads equal the sequential in-place reads.
    fn classify(&self, scratch: &mut WarpScratch, out: &mut WarpResult) {
        scratch.snapshot.clear();
        scratch.snapshot.extend_from_slice(&out.status);
        let snapshot = &scratch.snapshot;
        for_each_target_band(&self.co, out, |y0, cb, _db, sb| {
            simd::dispatch(ClassifyBand {
                reference: self.reference,
                ref_cam: self.ref_cam,
                tgt_cam: self.tgt_cam,
                snapshot,
                background: self.background,
                y0,
                cb,
                sb,
            });
        });
    }

    /// Crack filling: single-pixel splat holes surrounded by warped pixels
    /// are reconstruction artifacts of nearest-pixel splatting, not
    /// disocclusions (any point-cloud renderer with a ≥ 1 px splat kernel, as
    /// the paper's rasterization pipeline implies, covers them); a hole with
    /// at least five warped neighbors of eight is inpainted from them instead
    /// of being sent to sparse NeRF. True disocclusions are wider than one
    /// pixel and survive untouched. Neighbor reads come
    /// from snapshots; only Disoccluded pixels are written and only Warped
    /// ones are read, so snapshot values equal live values.
    fn fill_cracks(&self, scratch: &mut WarpScratch, out: &mut WarpResult) {
        let (tw, th) = (
            self.tgt_cam.intrinsics.width,
            self.tgt_cam.intrinsics.height,
        );
        scratch.snapshot.clear();
        scratch.snapshot.extend_from_slice(&out.status);
        scratch.color_snap.clear();
        scratch
            .color_snap
            .extend_from_slice(out.frame.color.pixels());
        scratch.depth_snap.clear();
        scratch
            .depth_snap
            .extend_from_slice(out.frame.depth.pixels());
        let snapshot = &scratch.snapshot;
        let (color_snap, depth_snap) = (&scratch.color_snap, &scratch.depth_snap);
        for_each_target_band(&self.co, out, |y0, cb, db, sb| {
            for (local, st) in sb.iter_mut().enumerate() {
                let idx = y0 * tw + local;
                if snapshot[idx] != PixelSource::Disoccluded {
                    continue;
                }
                let (tx, ty) = (idx % tw, idx / tw);
                let mut warped_neighbors = 0;
                let mut color = Vec3::ZERO;
                let mut depth = 0.0f32;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let (nx, ny) = (tx as i64 + dx, ty as i64 + dy);
                        if nx < 0 || ny < 0 || nx >= tw as i64 || ny >= th as i64 {
                            continue;
                        }
                        let n_idx = ny as usize * tw + nx as usize;
                        if snapshot[n_idx] == PixelSource::Warped {
                            warped_neighbors += 1;
                            color += color_snap[n_idx];
                            depth += depth_snap[n_idx];
                        }
                    }
                }
                if warped_neighbors >= 5 {
                    let inv = 1.0 / warped_neighbors as f32;
                    cb[local] = color * inv;
                    db[local] = depth * inv;
                    *st = PixelSource::Warped;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_field::simd::{run_on, Backend};
    use cicero_math::{Intrinsics, Pose};
    use cicero_scene::ground_truth::render_frame;
    use cicero_scene::volume::MarchParams;
    use cicero_scene::{library, RadianceSource};

    fn setup(dx: f32) -> (cicero_scene::AnalyticScene, Camera, Camera, Frame) {
        let scene = library::scene_by_name("lego").unwrap();
        let k = Intrinsics::from_fov(64, 64, 0.9);
        let ref_cam = Camera::new(
            k,
            Pose::look_at(Vec3::new(0.0, 1.3, -2.8), Vec3::ZERO, Vec3::Y),
        );
        let tgt_cam = Camera::new(
            k,
            Pose::look_at(Vec3::new(dx, 1.3, -2.8), Vec3::ZERO, Vec3::Y),
        );
        let reference = render_frame(&scene, &ref_cam, &MarchParams::default());
        (scene, ref_cam, tgt_cam, reference)
    }

    /// The backends this build can run on this host, with a skip note for
    /// the others.
    fn backends() -> Vec<Backend> {
        let (run, skip): (Vec<_>, Vec<_>) = Backend::ALL.into_iter().partition(|b| b.supported());
        for b in skip {
            println!("skipping {b:?}: not supported in this build on this host");
        }
        run
    }

    /// Element counts that end in every kind of last group on 8- and
    /// 16-lane backends: one over a 4-lane vector, exact, `H` + `Q` + 1,
    /// a 16-lane group and a 4-lane one, and several groups with and without
    /// a tail.
    const WIDTHS: [usize; 6] = [5, 8, 13, 20, 33, 64];

    /// `n` chain inputs through every lane vector of a backend, the last
    /// group of each padded the way the passes pad theirs.
    struct ChainCheck<'a> {
        src: &'a Camera,
        dst: &'a Camera,
        n: usize,
        /// `(Some, None)` lanes of `project_world` seen so far.
        seen: &'a mut (usize, usize),
    }

    impl Kernel for ChainCheck<'_> {
        #[inline(always)]
        fn run<W: Lanes, H: Lanes, Q: Lanes>(mut self) {
            self.check::<W>();
            self.check::<H>();
            self.check::<Q>();
            self.check::<[f32; 1]>();
        }
    }

    impl ChainCheck<'_> {
        #[inline(always)]
        fn check<V: Lanes>(&mut self) {
            let (src, dst) = (self.src, self.dst);
            let (w, h) = (src.intrinsics.width as f32, src.intrinsics.height as f32);
            let chain = WarpChain::new(src, dst);
            for at in (0..self.n).step_by(V::N) {
                let n = V::N.min(self.n - at);
                let (mut us, mut vs) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
                let mut ds = [f32::INFINITY; MAX_LANES];
                for lane in 0..n {
                    let i = (at + lane) as f32;
                    us[lane] = (i * 7.3).sin().abs() * (w - 1.0) + 0.5;
                    vs[lane] = (i * 3.1).cos().abs() * (h - 1.0) + 0.5;
                    // Every fifth depth is background; the finite ones reach
                    // from in front of `dst` to well behind it.
                    if (at + lane) % 5 != 4 {
                        ds[lane] = 0.5 + (i * 1.7).sin().abs() * 9.0;
                    }
                }
                let [wx, wy, wz, ut, vt, zt] =
                    chain.run_staged(V::load(&us), V::load(&vs), V::load(&ds));
                for lane in (0..n).filter(|&lane| ds[lane].is_finite()) {
                    let at = format!("{} lanes, element {}", V::N, at + lane);
                    let p_world = src.unproject_to_world(us[lane], vs[lane], ds[lane]);
                    assert_eq!(wx[lane].to_bits(), p_world.x.to_bits(), "{at}: wx");
                    assert_eq!(wy[lane].to_bits(), p_world.y.to_bits(), "{at}: wy");
                    assert_eq!(wz[lane].to_bits(), p_world.z.to_bits(), "{at}: wz");
                    match dst.project_world(p_world) {
                        Some((su, sv, sz)) => {
                            self.seen.0 += 1;
                            assert!(zt[lane] > 1e-6, "{at}: validity");
                            assert_eq!(ut[lane].to_bits(), su.to_bits(), "{at}: u");
                            assert_eq!(vt[lane].to_bits(), sv.to_bits(), "{at}: v");
                            assert_eq!(zt[lane].to_bits(), sz.to_bits(), "{at}: z");
                        }
                        None => {
                            self.seen.1 += 1;
                            assert!(zt[lane] <= 1e-6, "{at}: validity");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_warp_chain_matches_camera_methods_bitwise() {
        // The lemma behind the splat and classify passes: every lane of
        // WarpChain must equal dst.project_world(src.unproject_to_world) bit
        // for bit, including the world-space intermediate, whatever its
        // neighbours hold (background depths, points behind `dst`). Both
        // chain directions over a translated + rotated camera pair that
        // face each other, on every lane vector of every backend.
        let k = Intrinsics::from_fov(64, 48, 0.9);
        let cam_a = Camera::new(
            k,
            Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        );
        let cam_b = Camera::new(
            k,
            Pose::look_at(Vec3::new(-0.9, 0.4, 2.8), Vec3::new(0.2, 0.1, 0.0), Vec3::Y),
        );
        for backend in backends() {
            let mut seen = (0, 0);
            for (src, dst) in [(&cam_a, &cam_b), (&cam_b, &cam_a)] {
                for n in WIDTHS {
                    let seen = &mut seen;
                    run_on(backend, ChainCheck { src, dst, n, seen });
                }
            }
            assert!(
                seen.0 > 0 && seen.1 > 0,
                "{backend:?}: {seen:?} (in front, behind)"
            );
        }
    }

    /// The splat pass one pixel at a time through the camera methods: what
    /// [`SplatRows`] must reproduce on every backend.
    fn reference_splats(
        reference: &Frame,
        ref_cam: &Camera,
        tgt_cam: &Camera,
        opts: &WarpOptions,
    ) -> (Vec<Splat>, usize) {
        let (mut out, mut behind) = (Vec::new(), 0);
        for y in 0..reference.height() {
            for x in 0..reference.width() {
                let d = *reference.depth.get(x, y);
                if !d.is_finite() {
                    continue;
                }
                let (u, v) = (x as f32 + 0.5, y as f32 + 0.5);
                let p_world = ref_cam.unproject_to_world(u, v, d); // Eq. 1 (+pose)
                let Some((ut, vt, zt)) = tgt_cam.project_world(p_world) else {
                    behind += 1;
                    continue; // behind the target camera — Eq. 2+3
                };
                push_splats(
                    reference, ref_cam, tgt_cam, opts, x, y, p_world, ut, vt, zt, &mut out,
                );
            }
        }
        (out, behind)
    }

    #[test]
    fn wide_splat_pass_matches_scalar_bitwise() {
        // The one splat body on every backend against the per-pixel loop, on
        // real rendered references at row widths that end in every kind of
        // padded group: background (non-finite) depths, with and without
        // the φ test, and a target camera inside the object
        // looking away, so part of the point cloud is behind it.
        let (scene, ref_cam, tgt_cam, _) = setup(0.12);
        let inside = Pose::look_at(Vec3::new(0.0, 0.5, -0.2), Vec3::new(0.0, 0.3, 3.0), Vec3::Y);
        let mut behind_total = 0;
        for width in WIDTHS {
            let k = Intrinsics::from_fov(width, 24, 0.9);
            let rc = Camera::new(k, ref_cam.pose);
            let frame = render_frame(&scene, &rc, &MarchParams::default());
            assert!(frame.depth.pixels().iter().any(|d| !d.is_finite()));
            for tgt_pose in [tgt_cam.pose, inside] {
                let tc = Camera::new(k, tgt_pose);
                for phi in [None, Some(0.02)] {
                    let opts = WarpOptions { phi };
                    let (want, behind) = reference_splats(&frame, &rc, &tc, &opts);
                    behind_total += behind;
                    for backend in backends() {
                        let mut got = Vec::new();
                        run_on(
                            backend,
                            SplatRows {
                                reference: &frame,
                                ref_cam: &rc,
                                tgt_cam: &tc,
                                opts: &opts,
                                rows: 0..24,
                                out: &mut got,
                            },
                        );
                        assert_eq!(got, want, "{backend:?} width={width} phi={phi:?}");
                    }
                }
            }
            let (front, _) = reference_splats(
                &frame,
                &rc,
                &Camera::new(k, tgt_cam.pose),
                &WarpOptions::default(),
            );
            assert!(!front.is_empty(), "width {width}: no splats");
        }
        assert!(behind_total > 0, "no point fell behind a target camera");
    }

    #[test]
    fn wide_normalize_pass_matches_scalar_bitwise() {
        // Bands of every tail shape cut out of larger accumulators (so the
        // band is not the frame), with zero, sub-threshold, fractional and
        // multi-splat weights and every share of rejected weight.
        let total = 200;
        let acc_w: Vec<f32> = (0..total)
            .map(|i| [0.0, 0.4, 0.75, 1.0, 2.37][i % 5] * (1.0 + (i as f32 * 0.7).sin() * 0.01))
            .collect();
        let acc_z: Vec<f32> = (0..total)
            .map(|i| acc_w[i] * (2.0 + (i as f32).cos()))
            .collect();
        let rej_w: Vec<f32> = (0..total)
            .map(|i| acc_w[i] * [0.0, 0.5, 0.51, 1.0][i % 4])
            .collect();
        let acc_color: Vec<Vec3> = (0..total)
            .map(|i| Vec3::new(acc_w[i] * 0.3, (i as f32 * 0.1).sin().abs(), 0.9))
            .collect();
        let mut seen = Vec::new();
        for len in WIDTHS {
            let base = 17;
            // The per-pixel loop.
            let mut want = (
                vec![Vec3::ZERO; len],
                vec![f32::INFINITY; len],
                vec![PixelSource::Disoccluded; len],
            );
            for local in 0..len {
                let idx = base + local;
                if acc_w[idx] < 0.75 {
                    continue;
                }
                let inv = 1.0 / acc_w[idx];
                want.0[local] = acc_color[idx] * inv;
                want.1[local] = acc_z[idx] * inv;
                want.2[local] = if rej_w[idx] * 2.0 > acc_w[idx] {
                    PixelSource::RejectedByAngle
                } else {
                    PixelSource::Warped
                };
            }
            seen.extend_from_slice(&want.2);
            for backend in backends() {
                let mut got = (
                    vec![Vec3::ZERO; len],
                    vec![f32::INFINITY; len],
                    vec![PixelSource::Disoccluded; len],
                );
                run_on(
                    backend,
                    NormalizeBand {
                        acc_color: &acc_color,
                        acc_z: &acc_z,
                        acc_w: &acc_w,
                        rej_w: &rej_w,
                        base,
                        cb: &mut got.0,
                        db: &mut got.1,
                        sb: &mut got.2,
                    },
                );
                assert_eq!(got.2, want.2, "{backend:?} len {len}: status");
                assert_eq!(got.0, want.0, "{backend:?} len {len}: color");
                let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.1), bits(&want.1), "{backend:?} len {len}: depth");
            }
        }
        for status in [
            PixelSource::Disoccluded,
            PixelSource::Warped,
            PixelSource::RejectedByAngle,
        ] {
            assert!(seen.contains(&status), "no {status:?} pixel");
        }
    }

    #[test]
    fn wide_classify_pass_matches_scalar_bitwise() {
        // Bands holding 0, 1, 7, 8 and 9 holes (no batch, one partly filled,
        // one short of full, exactly full, full plus one) against the
        // per-pixel loop through the camera methods. Two targets: a small
        // pan, whose far probes land on reference background or surface,
        // and a camera turned away, whose probes leave the reference
        // frustum or fall behind the reference camera.
        let (_, ref_cam, tgt_cam, reference) = setup(0.12);
        let away = Camera::new(
            tgt_cam.intrinsics,
            Pose::look_at(
                Vec3::new(0.4, 1.3, -2.8),
                Vec3::new(3.0, 1.0, -6.0),
                Vec3::Y,
            ),
        );
        let background = Vec3::new(0.1, 0.2, 0.3);
        let (tw, th) = (64usize, 64usize);
        let y0 = 8;
        let band = y0 * tw..(y0 + 16) * tw;
        let mut outcomes = (0, 0);
        for tc in [&tgt_cam, &away] {
            for holes in [0usize, 1, 7, 8, 9] {
                // Holes scattered over the band; one other pixel in eleven is
                // warped (so some holes have a warped neighbour and some do
                // not), the rest already void.
                let mut snapshot: Vec<PixelSource> = (0..tw * th)
                    .map(|i| match i % 11 {
                        0 => PixelSource::Warped,
                        _ => PixelSource::Void,
                    })
                    .collect();
                for j in 0..holes {
                    snapshot[band.start + (j * 149 + 5) % band.len()] = PixelSource::Disoccluded;
                }
                // The per-pixel loop.
                let mut want = (
                    vec![Vec3::ZERO; band.len()],
                    snapshot[band.clone()].to_vec(),
                );
                for local in 0..band.len() {
                    if want.1[local] != PixelSource::Disoccluded {
                        continue;
                    }
                    let idx = band.start + local;
                    let (tx, ty) = (idx % tw, idx / tw);
                    let (u, v) = (tx as f32 + 0.5, ty as f32 + 0.5);
                    let far_world = tc.unproject_to_world(u, v, VOID_PROBE_DEPTH);
                    let is_void = match ref_cam.project_world(far_world) {
                        Some((ru, rv, _)) => {
                            let rx = (ru - 0.5).round() as i64;
                            let ry = (rv - 0.5).round() as i64;
                            if rx >= 0 && ry >= 0 && rx < 64 && ry < 64 {
                                !reference.depth.get(rx as usize, ry as usize).is_finite()
                            } else {
                                false // outside the reference frustum: must render
                            }
                        }
                        None => false,
                    };
                    let near_surface = (-1i64..=1).any(|dy| {
                        (-1i64..=1).any(|dx| {
                            let (nx, ny) = (tx as i64 + dx, ty as i64 + dy);
                            (0..tw as i64).contains(&nx)
                                && (0..th as i64).contains(&ny)
                                && snapshot[ny as usize * tw + nx as usize] == PixelSource::Warped
                        })
                    });
                    if is_void && !near_surface {
                        want.1[local] = PixelSource::Void;
                        outcomes.0 += 1;
                    } else {
                        want.0[local] = background;
                        outcomes.1 += 1;
                    }
                }
                for backend in backends() {
                    let mut got = (
                        vec![Vec3::ZERO; band.len()],
                        snapshot[band.clone()].to_vec(),
                    );
                    run_on(
                        backend,
                        ClassifyBand {
                            reference: &reference,
                            ref_cam: &ref_cam,
                            tgt_cam: tc,
                            snapshot: &snapshot,
                            background,
                            y0,
                            cb: &mut got.0,
                            sb: &mut got.1,
                        },
                    );
                    assert_eq!(got, want, "{backend:?}, {holes} holes");
                }
            }
        }
        assert!(
            outcomes.0 > 0 && outcomes.1 > 0,
            "{outcomes:?} (void, must render)"
        );
    }

    #[test]
    fn identity_warp_reproduces_reference() {
        let (scene, ref_cam, _, reference) = setup(0.0);
        let r = warp_frame(
            &reference,
            &ref_cam,
            &ref_cam,
            scene.background(),
            &WarpOptions::default(),
        );
        let stats = r.stats();
        // Identity: every surface pixel warps onto itself. The conservative
        // void guard re-renders a one-pixel silhouette ring, nothing more.
        assert!(
            (stats.disoccluded as f64) < 0.06 * stats.total as f64,
            "only the silhouette ring may re-render: {} of {}",
            stats.disoccluded,
            stats.total
        );
        assert_eq!(stats.rejected, 0);
        assert!(stats.overlap_fraction() > 0.94);
        // Warped pixels must reproduce the reference exactly; the
        // disoccluded silhouette ring awaits sparse rendering and is
        // excluded (the pipeline fills it with the NeRF model).
        let mut err = 0.0f64;
        let mut n = 0u64;
        for y in 0..reference.height() {
            for x in 0..reference.width() {
                if r.status[y * reference.width() + x] == PixelSource::Warped {
                    let d = *r.frame.color.get(x, y) - *reference.color.get(x, y);
                    err += d.length() as f64;
                    n += 1;
                }
            }
        }
        assert!(n > 0);
        // Directly warped pixels are exact; the only contributors are the
        // few crack-filled silhouette pixels carrying neighbor averages.
        assert!(
            err / (n as f64) < 0.01,
            "identity warp error {}",
            err / n as f64
        );
    }

    #[test]
    fn small_motion_warp_is_accurate_and_mostly_overlapping() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.06);
        let r = warp_frame(
            &reference,
            &ref_cam,
            &tgt_cam,
            scene.background(),
            &WarpOptions::default(),
        );
        let stats = r.stats();
        // Paper §III-A: >95% overlap for adjacent frames.
        assert!(
            stats.overlap_fraction() > 0.9,
            "overlap {:.3}",
            stats.overlap_fraction()
        );
        // Warped pixels approximate the true render well.
        let truth = render_frame(&scene, &tgt_cam, &MarchParams::default());
        let mut err = 0.0;
        let mut n = 0;
        for y in 0..64 {
            for x in 0..64 {
                if r.status[y * 64 + x] == PixelSource::Warped {
                    let d = *r.frame.color.get(x, y) - *truth.color.get(x, y);
                    err += d.length() as f64;
                    n += 1;
                }
            }
        }
        assert!(n > 0);
        assert!(
            err / (n as f64) < 0.12,
            "mean warped error {}",
            err / n as f64
        );
    }

    #[test]
    fn disocclusion_appears_with_larger_motion() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.6);
        let r = warp_frame(
            &reference,
            &ref_cam,
            &tgt_cam,
            scene.background(),
            &WarpOptions::default(),
        );
        let stats = r.stats();
        assert!(stats.disoccluded > 0, "large motion must disocclude");
        assert!(stats.render_fraction() < 0.5, "but most pixels still reuse");
    }

    #[test]
    fn void_pixels_dominate_empty_background() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.05);
        let r = warp_frame(
            &reference,
            &ref_cam,
            &tgt_cam,
            scene.background(),
            &WarpOptions::default(),
        );
        let stats = r.stats();
        // The lego scene leaves much of the 64×64 frame empty.
        assert!(stats.void_pixels as f64 / stats.total as f64 > 0.3);
    }

    #[test]
    fn phi_zero_rejects_all_offset_warps() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.2);
        let opts = WarpOptions { phi: Some(0.0) };
        let r = warp_frame(&reference, &ref_cam, &tgt_cam, scene.background(), &opts);
        let stats = r.stats();
        assert_eq!(stats.warped, 0, "φ = 0 must reject every warp");
        assert!(stats.rejected > 0);
        // All rejected pixels appear in the render mask.
        let mask = r.render_mask();
        assert_eq!(
            mask.iter().filter(|&&b| b).count() as u64,
            stats.rejected + stats.disoccluded
        );
    }

    #[test]
    fn phi_large_rejects_nothing() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.2);
        let strict = warp_frame(
            &reference,
            &ref_cam,
            &tgt_cam,
            scene.background(),
            &WarpOptions {
                phi: Some(std::f32::consts::PI),
            },
        );
        assert_eq!(strict.stats().rejected, 0);
    }

    #[test]
    fn parallel_warp_is_bit_identical_and_scratch_reuse_is_clean() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.12);
        for opts in [WarpOptions::default(), WarpOptions { phi: Some(0.05) }] {
            let seq = warp_frame(&reference, &ref_cam, &tgt_cam, scene.background(), &opts);
            let mut scratch = WarpScratch::new();
            let mut par = WarpResult::empty();
            for threads in [1, 2, 3, 8] {
                // The same scratch and output serve every thread count back
                // to back: reuse must not leak state between warps.
                warp_frame_into(
                    &reference,
                    &ref_cam,
                    &tgt_cam,
                    scene.background(),
                    &opts,
                    &mut scratch,
                    threads,
                    &mut par,
                );
                assert_eq!(par.frame, seq.frame, "{threads} threads, {opts:?}");
                assert_eq!(par.status, seq.status, "{threads} threads, {opts:?}");
            }
        }
    }

    #[test]
    fn warped_depth_is_consistent() {
        let (scene, ref_cam, tgt_cam, reference) = setup(0.05);
        let r = warp_frame(
            &reference,
            &ref_cam,
            &tgt_cam,
            scene.background(),
            &WarpOptions::default(),
        );
        let truth = render_frame(&scene, &tgt_cam, &MarchParams::default());
        let mut err = 0.0f64;
        let mut n = 0u64;
        for y in 0..64 {
            for x in 0..64 {
                if r.status[y * 64 + x] == PixelSource::Warped && truth.depth.get(x, y).is_finite()
                {
                    err += (*r.frame.depth.get(x, y) - *truth.depth.get(x, y)).abs() as f64;
                    n += 1;
                }
            }
        }
        assert!(n > 0);
        assert!(
            err / (n as f64) < 0.1,
            "mean depth error {}",
            err / n as f64
        );
    }

    /// A real target frame keeps [`TargetFrame::check`]'s laws, and each
    /// law, broken on its own, is reported as itself.
    #[test]
    fn target_frame_check_reports_each_broken_law() {
        use cicero_field::{bake, GridConfig, NullSink};
        let (scene, ref_cam, tgt_cam, reference) = setup(0.2);
        let cfg = GridConfig {
            resolution: 24,
            ..Default::default()
        };
        let model = bake::bake_grid(&scene, &cfg);
        let opts = RenderOptions::default();
        let tile = TileOptions::default();
        let target = render_target(
            &model,
            &opts,
            &reference,
            &ref_cam,
            &tgt_cam,
            &WarpOptions::default(),
            &mut WarpScratch::new(),
            &tile,
            &mut NullSink,
        );
        assert_eq!(target.check(&model), Ok(()));
        let (w, r) = (target.warp, target.render);
        assert!(w.warped > 0 && w.disoccluded > 0 && r.rays > 0, "{w:?}");
        let broken = |edit: fn(&mut TargetFrame)| {
            let mut t = target.clone();
            edit(&mut t);
            t.check(&model).unwrap_err()
        };
        assert_eq!(
            broken(|t| t.warp.void_pixels += 1),
            [TargetViolation::ClassesMissTotal {
                classes: w.total + 1,
                total: w.total
            }]
        );
        assert_eq!(
            broken(|t| {
                t.warp.total += 1;
                t.warp.warped += 1;
            }),
            [TargetViolation::TotalMissesFrame {
                total: w.total + 1,
                pixels: w.total
            }]
        );
        // A void pixel rendered: one ray more than the render was given.
        let holes = w.disoccluded + w.rejected;
        assert_eq!(
            broken(|t| {
                t.warp.disoccluded -= 1;
                t.warp.void_pixels += 1;
            }),
            [TargetViolation::RaysMissRendered {
                rays: holes,
                rendered: holes - 1
            }]
        );
        // A hole left unrendered: one ray fewer.
        assert_eq!(
            broken(|t| t.render.rays -= 1),
            [TargetViolation::RaysMissRendered {
                rays: holes - 1,
                rendered: holes
            }]
        );
    }
}
