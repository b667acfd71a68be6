//! VM-factorized tensor encoding (TensoRF-style).
//!
//! The 3-D signal grid is approximated as a sum of plane×line outer products
//! over the three axis orientations: for orientation `XY·Z`,
//! `T(x,y,z) ≈ Σ_k P_k(x,y) · L_k(z)`, and likewise for `XZ·Y` and `YZ·X`.
//! Each of the 7 decoder signals gets `components_per_signal` components per
//! orientation. Plane texels store all `signals × components` channels
//! contiguously, so one bilinear plane gather reads 4 entries and one line
//! gather reads 2 — the paper's "factorized tensor" feature representation
//! with its own distinctive memory footprint and access shape.
//!
//! Planes and lines are stored as IEEE half floats, the width the memory
//! model prices ([`TensorConfig::bytes_per_value`]). A write rounds each
//! value to the nearest half ([`VmTensor::set_component`]); every read
//! widens it back exactly, so the block gather and the per-sample
//! interpolation see the same f32 values on every backend.

use crate::plan::{GatherPlan, LevelGather, RegionId};
use crate::simd::{self, round_to_half, widen_half, Kernel, Lanes, MAX_LANES};
use cicero_math::{Aabb, Vec3};

/// Number of decoder signals (mirrors `decoder::SIGNALS`).
const SIGNALS: usize = 7;

/// Configuration of the VM tensor encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorConfig {
    /// Plane (and line) resolution per axis.
    pub resolution: usize,
    /// Rank-1 components per signal per orientation.
    pub components_per_signal: usize,
    /// Stored width of a plane or line value in bytes; only 2 (an IEEE
    /// half) is accepted, so the width the memory model prices is the one
    /// stored.
    pub bytes_per_value: u32,
}

impl Default for TensorConfig {
    fn default() -> Self {
        TensorConfig {
            resolution: 128,
            components_per_signal: 4,
            bytes_per_value: 2,
        }
    }
}

impl TensorConfig {
    /// Whether a [`VmTensor`] can be built from this configuration: at
    /// least two texels per axis (a lerp needs a texel after the first),
    /// at least one component per signal, 2 bytes a value (planes and lines
    /// are stored as halves), and no more plane values than `u32` indexes.
    ///
    /// # Errors
    ///
    /// What is wrong, in words.
    pub fn check(&self) -> Result<(), String> {
        if self.resolution < 2 {
            return Err(format!(
                "resolution {}: a tensor needs at least 2 texels per axis",
                self.resolution
            ));
        }
        if self.components_per_signal == 0 {
            return Err("components_per_signal 0: each signal needs a component".into());
        }
        if self.bytes_per_value != 2 {
            return Err(format!(
                "bytes_per_value {}: planes and lines are stored as halves, 2 bytes a value",
                self.bytes_per_value
            ));
        }
        let values = (self.resolution as u64)
            .checked_pow(2)
            .and_then(|texels| texels.checked_mul(SIGNALS as u64))
            .and_then(|v| v.checked_mul(self.components_per_signal as u64));
        if values.is_none_or(|values| values > u32::MAX as u64) {
            return Err(format!(
                "resolution {} × components {}: a plane's values must be indexable in u32",
                self.resolution, self.components_per_signal
            ));
        }
        Ok(())
    }
}

/// The three plane/line orientations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Plane over (x, y), line over z.
    XyZ,
    /// Plane over (x, z), line over y.
    XzY,
    /// Plane over (y, z), line over x.
    YzX,
}

/// All orientations in storage order.
pub const ORIENTATIONS: [Orientation; 3] = [Orientation::XyZ, Orientation::XzY, Orientation::YzX];

impl Orientation {
    /// Splits per-axis coordinates into (plane_u, plane_v, line_w).
    #[inline]
    fn split<T>(self, [x, y, z]: [T; 3]) -> (T, T, T) {
        match self {
            Orientation::XyZ => (x, y, z),
            Orientation::XzY => (x, z, y),
            Orientation::YzX => (y, z, x),
        }
    }
}

/// Continuous texel coordinate of a normalized coordinate in `[0,1]`, on a
/// lattice of `res` texels per axis.
#[inline(always)]
pub(crate) fn texel(n: f32, res: usize) -> f32 {
    (n.clamp(0.0, 1.0)) * (res - 1) as f32
}

/// Lower texel and lerp fraction of a continuous texel coordinate — the
/// one place a texel is addressed (the occupancy grid's support mask
/// addresses its cells through it too). `u` is never negative, so truncation
/// is the floor (and no libm call on baseline x86_64).
#[inline(always)]
pub(crate) fn texel_floor(u: f32, res: usize) -> (usize, f32) {
    let x0 = (u as usize).min(res - 2);
    (x0, (u - x0 as f32).clamp(0.0, 1.0))
}

/// A VM-factorized feature field.
#[derive(Debug, Clone)]
pub struct VmTensor {
    cfg: TensorConfig,
    bounds: Aabb,
    /// 3 planes: `planes[o][ (v*res + u) * channels + c ]`, IEEE halves.
    planes: [Vec<u16>; 3],
    /// 3 lines: `lines[o][ w * channels + c ]`, IEEE halves.
    lines: [Vec<u16>; 3],
}

impl VmTensor {
    /// Creates a zero-filled tensor field.
    ///
    /// # Panics
    ///
    /// Panics if [`TensorConfig::check`] refuses `cfg`: fewer than 2
    /// texels per axis, no components, `bytes_per_value != 2`, or more
    /// plane values than `u32` indexes.
    pub fn new(cfg: TensorConfig, bounds: Aabb) -> Self {
        if let Err(msg) = cfg.check() {
            panic!("invalid tensor configuration: {msg}");
        }
        let ch = SIGNALS * cfg.components_per_signal;
        let plane = vec![0; cfg.resolution * cfg.resolution * ch];
        let line = vec![0; cfg.resolution * ch];
        VmTensor {
            cfg,
            bounds,
            planes: [plane.clone(), plane.clone(), plane],
            lines: [line.clone(), line.clone(), line],
        }
    }

    /// Configuration.
    pub fn config(&self) -> &TensorConfig {
        &self.cfg
    }

    /// Bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Channels per texel (`signals × components_per_signal`).
    pub fn channels(&self) -> usize {
        SIGNALS * self.cfg.components_per_signal
    }

    /// Writes channel `c` of orientation `o`: `plane[b·res + a]` into
    /// plane texel `(a, b)` and `line[w]` into line texel `w`, each rounded
    /// to the nearest half, ties to even.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a channel, or `plane` and `line` are not `res²`
    /// and `res` values.
    pub fn set_component(&mut self, o: usize, c: usize, plane: &[f32], line: &[f32]) {
        let (res, ch) = (self.cfg.resolution, self.channels());
        assert!(c < ch, "channel {c} of {ch}");
        assert_eq!(plane.len(), res * res, "plane values");
        assert_eq!(line.len(), res, "line values");
        let store = |texels: &mut [u16], values: &[f32]| {
            for (texel, &v) in texels.chunks_exact_mut(ch).zip(values) {
                texel[c] = round_to_half(v);
            }
        };
        store(&mut self.planes[o], plane);
        store(&mut self.lines[o], line);
    }

    /// Plane storage for orientation `o`: IEEE halves.
    #[cfg(test)]
    pub(crate) fn plane(&self, o: usize) -> &[u16] {
        &self.planes[o]
    }

    /// Line storage for orientation `o`: IEEE halves.
    #[cfg(test)]
    pub(crate) fn line(&self, o: usize) -> &[u16] {
        &self.lines[o]
    }

    /// Bilinear sample of plane `o` at continuous texel coords, one channel.
    fn sample_plane(&self, o: usize, u: f32, v: f32, c: usize) -> f32 {
        let res = self.cfg.resolution;
        let ch = self.channels();
        let (x0, fx) = texel_floor(u, res);
        let (y0, fy) = texel_floor(v, res);
        let at = |x: usize, y: usize| widen_half(self.planes[o][(y * res + x) * ch + c]);
        let top = at(x0, y0) * (1.0 - fx) + at(x0 + 1, y0) * fx;
        let bot = at(x0, y0 + 1) * (1.0 - fx) + at(x0 + 1, y0 + 1) * fx;
        top * (1.0 - fy) + bot * fy
    }

    /// Linear sample of line `o` at continuous texel coord, one channel.
    fn sample_line(&self, o: usize, w: f32, c: usize) -> f32 {
        let ch = self.channels();
        let (w0, fw) = texel_floor(w, self.cfg.resolution);
        let at = |w: usize| widen_half(self.lines[o][w * ch + c]);
        at(w0) * (1.0 - fw) + at(w0 + 1) * fw
    }

    /// Evaluates the 7 signals at world position `p` into `out`.
    ///
    /// `out` is cleared and resized to 7.
    pub fn interpolate_into(&self, p: Vec3, out: &mut Vec<f32>) {
        let n = self.bounds.normalize(p);
        out.clear();
        out.resize(SIGNALS, 0.0);
        let k = self.cfg.components_per_signal;
        for (oi, o) in ORIENTATIONS.iter().enumerate() {
            let (pu, pv, lw) = o.split([n.x, n.y, n.z]);
            let [u, v, w] = [pu, pv, lw].map(|n| texel(n, self.cfg.resolution));
            for (s, slot) in out.iter_mut().enumerate().take(SIGNALS) {
                let mut acc = 0.0;
                for comp in 0..k {
                    let c = s * k + comp;
                    acc += self.sample_plane(oi, u, v, c) * self.sample_line(oi, w, c);
                }
                *slot += acc;
            }
        }
    }

    /// Signal 0 (`σ_raw`) at texel vertex `(x, y, z)`: what
    /// [`VmTensor::interpolate_into`] sums there, where every lerp fraction
    /// is zero — per orientation, the components of the vertex's own plane
    /// texel times its line texel.
    pub(crate) fn vertex_density_raw(&self, vertex: [usize; 3]) -> f32 {
        let (res, ch, k) = (
            self.cfg.resolution,
            self.channels(),
            self.cfg.components_per_signal,
        );
        let mut raw = 0.0;
        for (oi, o) in ORIENTATIONS.iter().enumerate() {
            let (a, b, w) = o.split(vertex);
            let plane = &self.planes[oi][(b * res + a) * ch..][..k];
            let line = &self.lines[oi][w * ch..][..k];
            raw += plane
                .iter()
                .zip(line)
                .map(|(&p, &l)| widen_half(p) * widen_half(l))
                .sum::<f32>();
        }
        raw
    }

    /// Batched signal evaluation for a block of sample positions, in SoA
    /// layout: signal `sig` of sample `s` is written to
    /// `out[sig * stride + s]`.
    ///
    /// One body on every [`simd`] backend: per sample and orientation the
    /// texels are addressed once, the four plane taps and two line taps are
    /// loaded as channel vectors of halves, widened by
    /// [`Lanes::load_half`], and their product streams into the
    /// per-signal component sums in ascending channel order. Bit-identical
    /// to [`VmTensor::interpolate_into`] per sample, at any channel count.
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short or `stride < ps.len()`.
    pub fn interpolate_block_into(&self, ps: &[Vec3], out: &mut [f32], stride: usize) {
        assert!(stride >= ps.len(), "stride shorter than the block");
        assert!(out.len() >= SIGNALS * stride, "output matrix too short");
        simd::dispatch(BlockGather {
            tensor: self,
            ps,
            out,
            stride,
        });
    }

    /// Gather plan: 4-entry bilinear reads on 3 planes (regions 0–2) and
    /// 2-entry linear reads on 3 lines (regions 3–5).
    pub fn gather_plan(&self, p: Vec3) -> GatherPlan {
        let mut plan = GatherPlan {
            levels: Vec::with_capacity(6),
        };
        self.gather_plan_into(p, &mut plan);
        plan
    }

    /// Fills `out` with the gather plan at `p`, reusing its level buffer
    /// (allocation-free once warm).
    pub fn gather_plan_into(&self, p: Vec3, plan: &mut GatherPlan) {
        plan.clear();
        let n = self.bounds.normalize(p);
        let res = self.cfg.resolution as u32;
        let entry_bytes = self.channels() as u32 * self.cfg.bytes_per_value;
        for (oi, o) in ORIENTATIONS.iter().enumerate() {
            let (pu, pv, lw) = o.split([n.x, n.y, n.z]);
            let [x0, y0, w0] =
                [pu, pv, lw].map(|n| texel_floor(texel(n, res as usize), res as usize).0 as u32);
            let mut pe = [0u64; 8];
            pe[0] = (y0 * res + x0) as u64;
            pe[1] = (y0 * res + x0 + 1) as u64;
            pe[2] = ((y0 + 1) * res + x0) as u64;
            pe[3] = ((y0 + 1) * res + x0 + 1) as u64;
            plan.levels.push(LevelGather {
                region: RegionId(oi as u16),
                resolution: [res, res, 1],
                cell: [x0, y0, 0],
                entries: pe,
                entry_count: 4,
                entry_bytes,
                dense: true,
            });
            let mut le = [0u64; 8];
            le[0] = w0 as u64;
            le[1] = (w0 + 1) as u64;
            plan.levels.push(LevelGather {
                region: RegionId((3 + oi) as u16),
                resolution: [res, 1, 1],
                cell: [w0, 0, 0],
                entries: le,
                entry_count: 2,
                entry_bytes,
                dense: true,
            });
        }
    }

    /// Total feature storage bytes (planes + lines): the stored halves'
    /// size, as `bytes_per_value` is the stored width.
    pub fn storage_bytes(&self) -> u64 {
        let ch = self.channels() as u64;
        let res = self.cfg.resolution as u64;
        let b = self.cfg.bytes_per_value as u64;
        3 * res * res * ch * b + 3 * res * ch * b
    }

    /// Storage bytes of region `r` (0–2 planes, 3–5 lines).
    pub fn region_bytes(&self, r: usize) -> u64 {
        let ch = self.channels() as u64;
        let res = self.cfg.resolution as u64;
        let b = self.cfg.bytes_per_value as u64;
        if r < 3 {
            res * res * ch * b
        } else {
            res * ch * b
        }
    }
}

/// [`VmTensor::interpolate_block_into`] as a [`Kernel`].
struct BlockGather<'a> {
    tensor: &'a VmTensor,
    ps: &'a [Vec3],
    out: &'a mut [f32],
    stride: usize,
}

impl Kernel for BlockGather<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(self) {
        let (t, out, stride) = (self.tensor, self.out, self.stride);
        let (res, ch, k) = (t.cfg.resolution, t.channels(), t.cfg.components_per_signal);
        for (s, &p) in self.ps.iter().enumerate() {
            let n = t.bounds.normalize(p);
            for sig in 0..SIGNALS {
                out[sig * stride + s] = 0.0;
            }
            for (oi, o) in ORIENTATIONS.iter().enumerate() {
                let (pu, pv, lw) = o.split([n.x, n.y, n.z]);
                let [(x0, fx), (y0, fy), (w0, fw)] =
                    [pu, pv, lw].map(|n| texel_floor(texel(n, res), res));
                let plane = &t.planes[oi][(y0 * res + x0) * ch..];
                let line = &t.lines[oi][w0 * ch..];
                let below = &plane[res * ch..];
                let taps = Taps {
                    rows: [plane, &plane[ch..], below, &below[ch..], line, &line[ch..]],
                    fractions: [fx, fy, fw],
                };
                // The per-sample path's reduction: a signal's components
                // summed from 0.0 in ascending order, the sum added to the
                // signal's output once complete.
                let (mut at, mut summed, mut acc) = (s, 0, 0.0);
                let mut reduce = |products: &[f32]| {
                    for &v in products {
                        acc += v;
                        summed += 1;
                        if summed == k {
                            out[at] += acc;
                            (at, summed, acc) = (at + stride, 0, 0.0);
                        }
                    }
                };
                let mut c = 0;
                while c + W::N <= ch {
                    reduce(&taps.products::<W>(c)[..W::N]);
                    c += W::N;
                }
                if c + H::N <= ch {
                    reduce(&taps.products::<H>(c)[..H::N]);
                    c += H::N;
                }
                if c + Q::N <= ch {
                    reduce(&taps.products::<Q>(c)[..Q::N]);
                    c += Q::N;
                }
                while c < ch {
                    reduce(&taps.products::<[f32; 1]>(c)[..1]);
                    c += 1;
                }
            }
        }
    }
}

/// One sample's taps in one orientation: the channel rows of plane texels
/// `(x0, y0)`, `(x0+1, y0)`, `(x0, y0+1)`, `(x0+1, y0+1)` and line texels
/// `w0`, `w0+1`, and the lerp fractions along u, v and w.
struct Taps<'a> {
    rows: [&'a [u16]; 6],
    fractions: [f32; 3],
}

impl Taps<'_> {
    /// [`VmTensor::sample_plane`] times [`VmTensor::sample_line`] for
    /// channels `c..c + V::N`, one lane each (the first `V::N` values).
    #[inline(always)]
    fn products<V: Lanes>(&self, c: usize) -> [f32; MAX_LANES] {
        const { assert!(V::N <= MAX_LANES) };
        // No `array::map` over the loads and splats: a `Lanes` op inside a
        // std helper's closure is compiled outside the backend trampoline.
        let [p00, p10, p01, p11, l0, l1] = self.rows;
        let [fx, fy, fw] = self.fractions;
        let (gx, fx) = (V::splat(1.0 - fx), V::splat(fx));
        let top = V::load_half(&p00[c..])
            .mul(gx)
            .add_mul(V::load_half(&p10[c..]), fx);
        let bot = V::load_half(&p01[c..])
            .mul(gx)
            .add_mul(V::load_half(&p11[c..]), fx);
        let plane = top.mul(V::splat(1.0 - fy)).add_mul(bot, V::splat(fy));
        let line = V::load_half(&l0[c..])
            .mul(V::splat(1.0 - fw))
            .add_mul(V::load_half(&l1[c..]), V::splat(fw));
        let mut products = [0.0f32; MAX_LANES];
        plane.mul(line).store(&mut products);
        products
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::testing;
    use crate::simd::Backend;

    fn tensor() -> VmTensor {
        VmTensor::new(
            TensorConfig {
                resolution: 8,
                components_per_signal: 2,
                bytes_per_value: 2,
            },
            Aabb::centered_cube(1.0),
        )
    }

    /// Writes every value of `t` through [`VmTensor::set_component`]: the
    /// `i`-th value of plane `o` in storage order is `plane(i, o)`, and of
    /// line `o` is `line(i, o)`.
    fn fill(
        t: &mut VmTensor,
        plane: impl Fn(usize, usize) -> f32,
        line: impl Fn(usize, usize) -> f32,
    ) {
        let (res, ch) = (t.cfg.resolution, t.channels());
        for o in 0..3 {
            for c in 0..ch {
                let p: Vec<f32> = (0..res * res).map(|cell| plane(cell * ch + c, o)).collect();
                let l: Vec<f32> = (0..res).map(|w| line(w * ch + c, o)).collect();
                t.set_component(o, c, &p, &l);
            }
        }
    }

    /// An 8-texel tensor of `components` per signal, every value filled.
    fn filled_tensor(components: usize) -> VmTensor {
        let mut t = VmTensor::new(
            TensorConfig {
                resolution: 8,
                components_per_signal: components,
                bytes_per_value: 2,
            },
            Aabb::centered_cube(1.0),
        );
        fill(
            &mut t,
            |i, o| ((i * 7 + o * 3) as f32 * 0.149).sin(),
            |i, o| ((i * 5 + o * 11) as f32 * 0.097).cos(),
        );
        t
    }

    /// The block gather on one named backend, over a NaN-filled matrix.
    fn gather_on(backend: Backend, t: &VmTensor, ps: &[Vec3], stride: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; SIGNALS * stride];
        simd::run_on(
            backend,
            BlockGather {
                tensor: t,
                ps,
                out: &mut out,
                stride,
            },
        );
        out
    }

    #[test]
    fn block_gather_matches_per_sample_bitwise() {
        // Channels 7 = H + tails, 21 = two W + H + a tail, 35 = four W +
        // tails on 8-lane backends; 7 = Q + tails, 21 = W + Q + a tail,
        // 35 = two W + tails on 16-lane ones. 3 and 5 components straddle
        // the lane groups. 12 components are 84 channels, past the old
        // kernel's 64-channel product buffer.
        for components in [1, 3, 5, 12] {
            let t = filled_tensor(components);
            testing::assert_matches_per_sample(
                &format!("{components} components"),
                t.bounds(),
                |backend, ps, stride| gather_on(backend, &t, ps, stride),
                |p, out| t.interpolate_into(p, out),
            );
        }
    }

    #[test]
    fn wide_block_interpolation_matches_scalar_bitwise() {
        // 3 components are 21 channels, two 8-lane groups plus a tail.
        let t = filled_tensor(3);
        assert_eq!(t.channels(), 21);
        let ps: Vec<Vec3> = (0..15)
            .map(|i| {
                let t = i as f32 * 0.43;
                Vec3::new(t.sin() * 1.2, (t * 1.3).cos() * 1.2, (t * 0.9).sin())
            })
            .collect();
        testing::assert_backends_agree(&ps, ps.len() + 4, |backend, ps, stride| {
            gather_on(backend, &t, ps, stride)
        });
    }

    #[test]
    fn zero_tensor_evaluates_to_zero() {
        let t = tensor();
        let mut out = Vec::new();
        t.interpolate_into(Vec3::new(0.3, -0.2, 0.5), &mut out);
        assert_eq!(out, vec![0.0; 7]);
    }

    #[test]
    fn rank_one_product_reconstructs() {
        let mut t = tensor();
        let res = 8;
        // Signal 0, component 0 of orientation XY·Z: plane = texel u / 4,
        // line = 2, values halves hold exactly.
        let plane: Vec<f32> = (0..res * res)
            .map(|cell| (cell % res) as f32 / 4.0)
            .collect();
        t.set_component(0, 0, &plane, &[2.0; 8]);
        // Point with normalized coords (0.5, *, *) → texel u 3.5, plane
        // value 0.875, product 1.75.
        let mut out = Vec::new();
        t.interpolate_into(Vec3::new(0.0, 0.1, -0.4), &mut out);
        assert!((out[0] - 1.75).abs() < 1e-4, "{}", out[0]);
        assert!(out[1].abs() < 1e-6);
    }

    #[test]
    fn orientations_accumulate() {
        let mut t = tensor();
        // Constant 1 × 1 on signal 2, component 0, in all three
        // orientations.
        for o in 0..3 {
            t.set_component(o, 2 * 2, &[1.0; 64], &[1.0; 8]);
        }
        let mut out = Vec::new();
        t.interpolate_into(Vec3::ZERO, &mut out);
        assert!((out[2] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn block_interpolation_matches_scalar_bitwise() {
        let mut t = tensor();
        fill(
            &mut t,
            |i, o| ((i + o * 31) as f32 * 0.113).sin(),
            |i, o| ((i + o * 17) as f32 * 0.207).cos(),
        );
        assert_eq!(t.channels(), 14);
        let ps: Vec<Vec3> = (0..9)
            .map(|i| {
                let s = i as f32 * 0.53;
                Vec3::new(
                    (s).sin() * 0.8,
                    (s * 1.9).cos() * 0.8,
                    (s * 0.7).sin() * 0.8,
                )
            })
            .collect();
        let stride = ps.len() + 1;
        let mut soa = vec![f32::NAN; 7 * stride];
        t.interpolate_block_into(&ps, &mut soa, stride);
        let mut scalar = Vec::new();
        for (s, &p) in ps.iter().enumerate() {
            t.interpolate_into(p, &mut scalar);
            for (sig, &v) in scalar.iter().enumerate() {
                assert_eq!(soa[sig * stride + s], v, "sample {s} signal {sig}");
            }
        }
    }

    #[test]
    fn plan_shape_matches_vm_structure() {
        let t = tensor();
        let plan = t.gather_plan(Vec3::new(0.2, 0.2, 0.2));
        assert_eq!(plan.levels.len(), 6);
        let plane_gathers: Vec<_> = plan.levels.iter().filter(|l| l.entry_count == 4).collect();
        let line_gathers: Vec<_> = plan.levels.iter().filter(|l| l.entry_count == 2).collect();
        assert_eq!(plane_gathers.len(), 3);
        assert_eq!(line_gathers.len(), 3);
        // Channel-packed texels: entry bytes = channels × precision.
        assert_eq!(plan.levels[0].entry_bytes, (7 * 2 * 2) as u32);
    }

    #[test]
    fn storage_sums_regions() {
        let t = tensor();
        let total: u64 = (0..6).map(|r| t.region_bytes(r)).sum();
        assert_eq!(t.storage_bytes(), total);
    }

    /// What the memory model prices is what is stored, region by region.
    #[test]
    fn storage_bytes_are_the_bytes_held() {
        for cfg in [*tensor().config(), TensorConfig::default()] {
            let t = VmTensor::new(cfg, Aabb::centered_cube(1.0));
            let regions = t.planes.iter().chain(&t.lines);
            let held: Vec<u64> = regions
                .map(|r| std::mem::size_of_val(r.as_slice()) as u64)
                .collect();
            let priced: Vec<u64> = (0..6).map(|r| t.region_bytes(r)).collect();
            assert_eq!(priced, held, "{cfg:?}");
            assert_eq!(t.storage_bytes(), held.iter().sum::<u64>(), "{cfg:?}");
        }
    }

    #[test]
    fn set_component_stores_the_nearest_half() {
        let mut t = tensor();
        let mut plane = [0.0f32; 64];
        (plane[0], plane[1], plane[2]) = (1.0 + 1.0 / 4096.0, -0.1, 65520.0);
        t.set_component(1, 3, &plane, &[0.5; 8]);
        let ch = t.channels();
        let stored = |i: usize| widen_half(t.plane(1)[i * ch + 3]);
        assert_eq!(
            [stored(0), stored(1), stored(2)],
            [1.0, widen_half(round_to_half(-0.1)), f32::INFINITY]
        );
        assert!(t
            .line(1)
            .chunks(ch)
            .all(|texel| widen_half(texel[3]) == 0.5));
        // Only channel 3 of orientation 1 was written.
        assert_eq!(t.plane(1).iter().filter(|&&h| h != 0).count(), 3);
        assert!(t.plane(0).iter().chain(t.line(0)).all(|&h| h == 0));
    }

    /// `check` refuses exactly what `new` cannot build, at the edges: the
    /// largest one-component tensor indexable in `u32` has 24 770 texels a
    /// side (24 770² × 7 = 4 294 870 300 values), and a resolution whose
    /// square overflows is refused, not wrapped.
    #[test]
    fn check_refuses_what_new_cannot_build() {
        let cfg = |resolution, components_per_signal| TensorConfig {
            resolution,
            components_per_signal,
            bytes_per_value: 2,
        };
        let width = |bytes_per_value| TensorConfig {
            bytes_per_value,
            ..cfg(8, 2)
        };
        for ok in [cfg(2, 1), cfg(128, 4), cfg(24_770, 1), cfg(8, 64)] {
            assert_eq!(ok.check(), Ok(()), "{ok:?}");
        }
        for (bad, why) in [
            (cfg(0, 4), "resolution 0"),
            (cfg(1, 4), "resolution 1"),
            (cfg(8, 0), "components_per_signal 0"),
            (cfg(24_771, 1), "indexable in u32"),
            (cfg(4096, 64), "indexable in u32"),
            (cfg(usize::MAX, 4), "indexable in u32"),
            (width(4), "bytes_per_value 4"),
            (width(1), "bytes_per_value 1"),
        ] {
            let msg = bad.check().expect_err("refused");
            assert!(msg.contains(why), "{bad:?}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid tensor configuration: bytes_per_value 4")]
    fn new_panics_through_check() {
        VmTensor::new(
            TensorConfig {
                bytes_per_value: 4,
                ..*tensor().config()
            },
            Aabb::centered_cube(1.0),
        );
    }

    #[test]
    fn border_queries_clamp() {
        let t = tensor();
        let mut out = Vec::new();
        t.interpolate_into(Vec3::splat(50.0), &mut out);
        assert_eq!(out.len(), 7);
        let plan = t.gather_plan(Vec3::splat(50.0));
        for l in &plan.levels {
            for &e in l.entries() {
                assert!(e < (8 * 8) as u64);
            }
        }
    }
}
