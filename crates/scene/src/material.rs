//! Surface materials and procedural textures.

use cicero_math::Vec3;

/// A procedural albedo texture evaluated at world-space positions.
///
/// High-frequency texture content matters for the reproduction: the PSNR gaps
/// between Cicero's warping, DS-2's downsampling and the full-render baseline
/// (paper Fig. 16) only appear when frames carry detail finer than two pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Texture {
    /// A single constant color.
    Solid(Vec3),
    /// A 3-D checkerboard alternating two colors with the given cell size.
    Checker {
        /// First cell color.
        a: Vec3,
        /// Second cell color.
        b: Vec3,
        /// Cell edge length in world units.
        scale: f32,
    },
    /// Axis-aligned stripes along Y alternating two colors.
    Stripes {
        /// First stripe color.
        a: Vec3,
        /// Second stripe color.
        b: Vec3,
        /// Stripe period in world units.
        period: f32,
    },
    /// Deterministic value noise blending two colors.
    Noise {
        /// Color at noise value 0.
        a: Vec3,
        /// Color at noise value 1.
        b: Vec3,
        /// Noise feature size in world units.
        scale: f32,
    },
}

impl Texture {
    /// Evaluates the texture at world position `p`.
    pub fn sample(&self, p: Vec3) -> Vec3 {
        match *self {
            Texture::Solid(c) => c,
            Texture::Checker { a, b, scale } => {
                let q = p / scale;
                // Wrapping: at |q| past 2⁶² the saturated casts' sum
                // overflows, and only its parity is read.
                let parity = (floor(q.x) as i64)
                    .wrapping_add(floor(q.y) as i64)
                    .wrapping_add(floor(q.z) as i64)
                    .rem_euclid(2);
                if parity == 0 {
                    a
                } else {
                    b
                }
            }
            Texture::Stripes { a, b, period } => {
                let t = fract(fract(p.y / period) + 1.0);
                if t < 0.5 {
                    a
                } else {
                    b
                }
            }
            Texture::Noise { a, b, scale } => a.lerp(b, value_noise(p / scale)),
        }
    }
}

/// Below this magnitude an `f32` may have a fraction; at and above it every
/// finite `f32` is an integer.
const FRACTIONAL_BELOW: f32 = 8_388_608.0; // 2²³

/// `x.trunc()`, exactly, inline: `f32::trunc` and `f32::floor` are calls
/// into the compiler's runtime library on a baseline x86_64 build (SSE2
/// has no `roundss`). Below 2²³ the `i32` round trip truncates exactly;
/// the sign is `x`'s, so `trunc(-0.5) == -0.0`. At or above 2²³, ±∞ and
/// NaN, `x` is its own truncation.
#[inline]
fn trunc(x: f32) -> f32 {
    if x.abs() < FRACTIONAL_BELOW {
        (x as i32 as f32).copysign(x)
    } else {
        x
    }
}

/// `x.floor()`, exactly, inline (see [`trunc`]): one below the truncation
/// where that is above `x`, with `x`'s sign, so `floor(-0.0) == -0.0`.
#[inline]
fn floor(x: f32) -> f32 {
    if x.abs() < FRACTIONAL_BELOW {
        let t = x as i32 as f32;
        (if t > x { t - 1.0 } else { t }).copysign(x)
    } else {
        x
    }
}

/// `x.fract()`: `x - trunc(x)`.
#[inline]
fn fract(x: f32) -> f32 {
    x - trunc(x)
}

/// Deterministic trilinear value noise in `[0, 1]`.
fn value_noise(p: Vec3) -> f32 {
    let base = Vec3::new(floor(p.x), floor(p.y), floor(p.z));
    let f = p - base;
    // Smooth the interpolation weights.
    let f = Vec3::new(smooth(f.x), smooth(f.y), smooth(f.z));
    let mut acc = 0.0;
    for dz in 0..2 {
        for dy in 0..2 {
            for dx in 0..2 {
                let corner = base + Vec3::new(dx as f32, dy as f32, dz as f32);
                let w = (if dx == 0 { 1.0 - f.x } else { f.x })
                    * (if dy == 0 { 1.0 - f.y } else { f.y })
                    * (if dz == 0 { 1.0 - f.z } else { f.z });
                acc += w * hash3(corner);
            }
        }
    }
    acc
}

fn smooth(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// Hashes an integer lattice point to `[0, 1]`.
fn hash3(p: Vec3) -> f32 {
    let (x, y, z) = (p.x as i64 as u64, p.y as i64 as u64, p.z as i64 as u64);
    let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ y.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ z.wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h & 0xFFFF_FFFF) as f32 / u32::MAX as f32
}

/// Surface material: albedo texture plus emissive and specular terms.
///
/// The specular term matters for the paper's §VI-F discussion: SPARW's
/// radiance-reuse assumption (`P→Px` radiance ≈ `P→Py` radiance) degrades on
/// non-diffuse surfaces, which the warp-angle threshold φ (Fig. 26) mitigates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Diffuse albedo texture.
    pub albedo: Texture,
    /// View-independent emitted radiance.
    pub emissive: Vec3,
    /// Specular reflectance strength in `[0, 1]`; 0 = perfectly diffuse.
    pub specular: f32,
    /// Phong shininess exponent (only meaningful when `specular > 0`).
    pub shininess: f32,
}

impl Material {
    /// A perfectly diffuse material with the given texture.
    pub fn diffuse(albedo: Texture) -> Self {
        Material {
            albedo,
            emissive: Vec3::ZERO,
            specular: 0.0,
            shininess: 1.0,
        }
    }

    /// A diffuse solid color.
    pub fn solid(color: Vec3) -> Self {
        Material::diffuse(Texture::Solid(color))
    }

    /// Adds a specular lobe to the material.
    pub fn with_specular(mut self, strength: f32, shininess: f32) -> Self {
        self.specular = strength.clamp(0.0, 1.0);
        self.shininess = shininess.max(1.0);
        self
    }
}

impl Default for Material {
    fn default() -> Self {
        Material::solid(Vec3::splat(0.7))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Texture::sample`] as it was written on `f32::floor` and
    /// `f32::fract`: the oracle of the inline roundings.
    fn sample_reference(t: &Texture, p: Vec3) -> Vec3 {
        match *t {
            Texture::Solid(c) => c,
            Texture::Checker { a, b, scale } => {
                let q = p / scale;
                // Summed as a release build sums (an overflow wraps).
                let parity = (q.x.floor() as i64)
                    .wrapping_add(q.y.floor() as i64)
                    .wrapping_add(q.z.floor() as i64)
                    .rem_euclid(2);
                if parity == 0 {
                    a
                } else {
                    b
                }
            }
            Texture::Stripes { a, b, period } => {
                let t = ((p.y / period).fract() + 1.0).fract();
                if t < 0.5 {
                    a
                } else {
                    b
                }
            }
            Texture::Noise { a, b, scale } => a.lerp(b, value_noise_reference(p / scale)),
        }
    }

    fn value_noise_reference(p: Vec3) -> f32 {
        let base = Vec3::new(p.x.floor(), p.y.floor(), p.z.floor());
        let f = p - base;
        let f = Vec3::new(smooth(f.x), smooth(f.y), smooth(f.z));
        let mut acc = 0.0;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let corner = base + Vec3::new(dx as f32, dy as f32, dz as f32);
                    let w = (if dx == 0 { 1.0 - f.x } else { f.x })
                        * (if dy == 0 { 1.0 - f.y } else { f.y })
                        * (if dz == 0 { 1.0 - f.z } else { f.z });
                    acc += w * hash3(corner);
                }
            }
        }
        acc
    }

    /// Equal bit for bit, or both NaN (a produced NaN's sign and payload
    /// are unspecified).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every 4099th `f32` bit pattern (a prime stride, so every exponent
    /// and both signs are visited), then the roundings' edges.
    fn patterns() -> impl Iterator<Item = f32> {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            FRACTIONAL_BELOW,
            -FRACTIONAL_BELOW,
            FRACTIONAL_BELOW - 0.5,
            -(FRACTIONAL_BELOW - 0.5),
            f32::MIN_POSITIVE,
            -1e-45,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        (0..=u32::MAX)
            .step_by(4099)
            .map(f32::from_bits)
            .chain(edges)
    }

    #[test]
    fn inline_roundings_are_the_library_ones() {
        for x in patterns() {
            assert!(same(floor(x), x.floor()), "floor({x:e})");
            assert!(same(trunc(x), x.trunc()), "trunc({x:e})");
            assert!(same(fract(x), x.fract()), "fract({x:e})");
        }
        assert_eq!(floor(-0.0).to_bits(), (-0.0_f32).to_bits());
    }

    #[test]
    fn textures_are_the_floor_based_reference() {
        let (a, b) = (Vec3::new(0.1, 0.2, 0.3), Vec3::new(0.9, 0.6, 0.4));
        let textures = [1.0, 0.07].map(|scale| {
            [
                Texture::Checker { a, b, scale },
                Texture::Stripes {
                    a,
                    b,
                    period: scale,
                },
                Texture::Noise { a, b, scale },
            ]
        });
        for x in patterns() {
            // Three different coordinates from one pattern.
            let y = f32::from_bits(x.to_bits().wrapping_mul(0x9E37_79B9));
            let p = Vec3::new(x, y, -x);
            for t in textures.iter().flatten() {
                let (got, want) = (t.sample(p), sample_reference(t, p));
                assert!(
                    same(got.x, want.x) && same(got.y, want.y) && same(got.z, want.z),
                    "{t:?} at {p:?}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn solid_is_position_independent() {
        let t = Texture::Solid(Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(t.sample(Vec3::ZERO), t.sample(Vec3::splat(9.0)));
    }

    #[test]
    fn checker_alternates() {
        let t = Texture::Checker {
            a: Vec3::ZERO,
            b: Vec3::ONE,
            scale: 1.0,
        };
        let c0 = t.sample(Vec3::new(0.5, 0.5, 0.5));
        let c1 = t.sample(Vec3::new(1.5, 0.5, 0.5));
        assert_ne!(c0, c1);
        let c2 = t.sample(Vec3::new(2.5, 0.5, 0.5));
        assert_eq!(c0, c2);
    }

    #[test]
    fn checker_handles_negative_coordinates() {
        let t = Texture::Checker {
            a: Vec3::ZERO,
            b: Vec3::ONE,
            scale: 1.0,
        };
        let c0 = t.sample(Vec3::new(0.5, 0.5, 0.5));
        let c_neg = t.sample(Vec3::new(-0.5, 0.5, 0.5));
        assert_ne!(c0, c_neg);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let t = Texture::Noise {
            a: Vec3::ZERO,
            b: Vec3::ONE,
            scale: 0.3,
        };
        for i in 0..50 {
            let p = Vec3::new(i as f32 * 0.17, -(i as f32) * 0.05, 1.0);
            let s = t.sample(p);
            assert_eq!(s, t.sample(p));
            assert!(s.x >= 0.0 && s.x <= 1.0);
        }
    }

    #[test]
    fn noise_is_continuous() {
        let t = Texture::Noise {
            a: Vec3::ZERO,
            b: Vec3::ONE,
            scale: 1.0,
        };
        let a = t.sample(Vec3::new(0.5, 0.5, 0.5));
        let b = t.sample(Vec3::new(0.5001, 0.5, 0.5));
        assert!((a - b).length() < 1e-2);
    }

    #[test]
    fn material_builders_compose() {
        let m = Material::solid(Vec3::ONE).with_specular(0.5, 32.0);
        assert_eq!(m.specular, 0.5);
        assert_eq!(m.shininess, 32.0);
    }

    #[test]
    fn specular_strength_is_clamped() {
        let m = Material::solid(Vec3::ONE).with_specular(7.0, 0.1);
        assert_eq!(m.specular, 1.0);
        assert_eq!(m.shininess, 1.0);
    }
}
