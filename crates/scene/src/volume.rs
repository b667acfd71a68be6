//! The shared volume-rendering integrator.
//!
//! Both the analytic ground truth and every learned field in `cicero-field`
//! render through this one implementation of the classic emission-absorption
//! quadrature (paper §II-B, "Feature Computation" accumulation):
//!
//! ```text
//! α_i = 1 − exp(−σ_i · δ)          (per-sample opacity)
//! T_i = Π_{j<i} (1 − α_j)          (transmittance)
//! C   = Σ T_i · α_i · c_i + T_N · background
//! ```
//!
//! Keeping one integrator guarantees that PSNR comparisons between pipeline
//! variants measure the *algorithms* (warping, streaming) and never a drift in
//! integration math.

use crate::RadianceSource;
use cicero_math::{Ray, Vec3};

/// Ray-marching parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarchParams {
    /// World-space distance between consecutive samples.
    pub step: f32,
    /// Stop marching when transmittance falls below this threshold.
    pub early_stop: f32,
    /// Opacity (1 − T) above which a pixel is considered surface rather than
    /// background; controls depth-map validity for warping.
    pub surface_opacity: f32,
}

impl Default for MarchParams {
    fn default() -> Self {
        MarchParams {
            step: 0.01,
            early_stop: 1e-3,
            surface_opacity: 0.5,
        }
    }
}

/// Result of integrating one ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarchResult {
    /// Composited radiance including background contribution.
    pub color: Vec3,
    /// Opacity-weighted expected ray parameter `E[t]`, or `f32::INFINITY`
    /// when the ray never accumulated `surface_opacity` (background pixel).
    pub depth_t: f32,
    /// Remaining transmittance after the volume.
    pub transmittance: f32,
    /// Queries made of the source ([`RadianceSource::sample_at`] calls): the
    /// steps of the interval minus those the source's clearance let the
    /// marcher jump and those behind an early stop.
    pub samples: u32,
}

/// Held back from a source's clearance before it is turned into skipped
/// steps. A clearance `c` read at step `i` proves the density zero at every
/// point nearer than `c` to `ray.at(t_i)`, and step `i + j` lies `j·step`
/// further along a unit direction — in exact arithmetic. In `f32`, with the
/// library scenes' sample points at |p| ≲ 3 and their cameras' ray
/// parameters at t ≲ 8, `t_i` and `ray.at(t_i)` are good to an ulp of 8
/// (≈ 10⁻⁶), the direction's length to 10⁻⁷ of t, and the signed distance
/// the clearance comes from to a few ulps of 3 (< 10⁻⁶); all of it together
/// stays under 10⁻⁵, and the margin is ten times that.
const CLEARANCE_MARGIN: f32 = 1e-4;

/// Integrates `src` along `ray` over the parametric interval `[t0, t1]`.
///
/// Samples are placed at interval midpoints (`t0 + (i + ½)·step`), which makes
/// the quadrature exact for piecewise-constant fields aligned to the steps and
/// keeps results independent of where `t0` falls relative to the volume.
///
/// An empty sample contributes nothing, so the steps inside the
/// [clearance](crate::SourceSample::clearance) the source reports around one
/// are not queried at all: the result is bit-identical to visiting every
/// step, which is what a source without a clearance (the trait's default)
/// still gets.
pub fn march_ray<S: RadianceSource + ?Sized>(
    src: &S,
    ray: &Ray,
    t0: f32,
    t1: f32,
    params: &MarchParams,
) -> MarchResult {
    let mut color = Vec3::ZERO;
    let mut transmittance = 1.0_f32;
    let mut depth_acc = 0.0_f32;
    let mut opacity_acc = 0.0_f32;
    let mut samples = 0u32;

    let n = ((t1 - t0) / params.step).ceil() as u32;
    let mut i = 0u32;
    while i < n {
        let t = t0 + (i as f32 + 0.5) * params.step;
        if t >= t1 {
            break;
        }
        let s = src.sample_at(ray.at(t), ray.dir);
        samples += 1;
        i += 1;
        if s.sigma <= 0.0 {
            // Steps `i .. i + j` with `j·step <= clearance - margin` are
            // empty too (a non-positive or NaN quotient casts to 0).
            let jump = ((s.clearance - CLEARANCE_MARGIN) / params.step) as u32;
            i = i.saturating_add(jump);
            continue;
        }
        let alpha = 1.0 - (-s.sigma * params.step).exp();
        let weight = transmittance * alpha;
        color += s.radiance * weight;
        depth_acc += t * weight;
        opacity_acc += weight;
        transmittance *= 1.0 - alpha;
        if transmittance < params.early_stop {
            transmittance = 0.0;
            break;
        }
    }

    color += src.background() * transmittance;
    let depth_t = if opacity_acc >= params.surface_opacity {
        depth_acc / opacity_acc
    } else {
        f32::INFINITY
    };
    MarchResult {
        color,
        depth_t,
        transmittance,
        samples,
    }
}

/// Integrates a ray against the source's own bounds.
///
/// Rays that miss the bounds return the background immediately.
pub fn march_ray_auto<S: RadianceSource + ?Sized>(
    src: &S,
    ray: &Ray,
    params: &MarchParams,
) -> MarchResult {
    match src.bounds().intersect(ray) {
        Some((t0, t1)) => march_ray(src, ray, t0, t1, params),
        None => MarchResult {
            color: src.background(),
            depth_t: f32::INFINITY,
            transmittance: 1.0,
            samples: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_math::Aabb;

    /// A homogeneous box of density `sigma` emitting constant radiance.
    struct Slab {
        sigma: f32,
        radiance: Vec3,
        bg: Vec3,
    }

    impl RadianceSource for Slab {
        fn density_at(&self, p: Vec3) -> f32 {
            if self.bounds().contains(p) {
                self.sigma
            } else {
                0.0
            }
        }
        fn radiance_at(&self, _p: Vec3, _d: Vec3) -> Vec3 {
            self.radiance
        }
        fn bounds(&self) -> Aabb {
            Aabb::centered_cube(1.0)
        }
        fn background(&self) -> Vec3 {
            self.bg
        }
    }

    fn z_ray() -> Ray {
        Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z)
    }

    #[test]
    fn empty_volume_returns_background() {
        let s = Slab {
            sigma: 0.0,
            radiance: Vec3::ONE,
            bg: Vec3::new(0.1, 0.2, 0.3),
        };
        let r = march_ray_auto(&s, &z_ray(), &MarchParams::default());
        assert!((r.color - s.bg).length() < 1e-6);
        assert_eq!(r.depth_t, f32::INFINITY);
        assert!((r.transmittance - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dense_volume_matches_beer_lambert() {
        // Analytic: T = exp(-sigma * L) through a slab of thickness L = 2.
        let s = Slab {
            sigma: 1.5,
            radiance: Vec3::ONE,
            bg: Vec3::ZERO,
        };
        let r = march_ray_auto(
            &s,
            &z_ray(),
            &MarchParams {
                step: 0.001,
                ..Default::default()
            },
        );
        let expected_t = (-1.5_f32 * 2.0).exp();
        assert!(
            (r.transmittance - expected_t).abs() < 1e-2,
            "{} vs {expected_t}",
            r.transmittance
        );
        // Emission: C = (1 - T) * radiance for constant fields.
        assert!((r.color.x - (1.0 - expected_t)).abs() < 1e-2);
    }

    #[test]
    fn opaque_volume_reports_front_surface_depth() {
        let s = Slab {
            sigma: 500.0,
            radiance: Vec3::ONE,
            bg: Vec3::ZERO,
        };
        let r = march_ray_auto(&s, &z_ray(), &MarchParams::default());
        // Front face of the unit cube is at t = 4 for a camera at z=-5.
        assert!((r.depth_t - 4.0).abs() < 0.05, "depth {}", r.depth_t);
        assert!(r.transmittance < 1e-3);
    }

    #[test]
    fn miss_ray_does_no_sampling() {
        let s = Slab {
            sigma: 10.0,
            radiance: Vec3::ONE,
            bg: Vec3::ZERO,
        };
        let ray = Ray::new(Vec3::new(0.0, 5.0, -5.0), Vec3::Z);
        let r = march_ray_auto(&s, &ray, &MarchParams::default());
        assert_eq!(r.samples, 0);
        assert_eq!(r.depth_t, f32::INFINITY);
    }

    #[test]
    fn early_stop_reduces_samples() {
        let s = Slab {
            sigma: 500.0,
            radiance: Vec3::ONE,
            bg: Vec3::ZERO,
        };
        let full = march_ray_auto(
            &s,
            &z_ray(),
            &MarchParams {
                early_stop: 0.0,
                ..Default::default()
            },
        );
        let early = march_ray_auto(
            &s,
            &z_ray(),
            &MarchParams {
                early_stop: 1e-2,
                ..Default::default()
            },
        );
        assert!(early.samples < full.samples);
        // Early stop truncates at most `early_stop` of the radiance per channel.
        assert!((early.color - full.color).length() < 1e-2 * 3f32.sqrt() + 1e-6);
    }

    #[test]
    fn translucency_blends_with_background() {
        let s = Slab {
            sigma: 0.2,
            radiance: Vec3::X,
            bg: Vec3::Z,
        };
        let r = march_ray_auto(&s, &z_ray(), &MarchParams::default());
        assert!(
            r.color.x > 0.0 && r.color.z > 0.0,
            "both media contribute: {}",
            r.color
        );
        // Thin volume: no surface.
        assert_eq!(r.depth_t, f32::INFINITY);
    }
}
