//! Unit quaternions for rotation interpolation and extrapolation.

use crate::{Mat3, Vec3};
use std::ops::Mul;

/// A unit quaternion representing a 3-D rotation.
///
/// SPARW extrapolates the pose of off-trajectory reference frames from the two
/// most recent target poses (paper Eq. 5–6). The paper specifies the position
/// extrapolation; we extend it to orientation by extrapolating in the
/// quaternion tangent space ([`Quat::slerp`] with `t > 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// Vector part, x.
    pub x: f32,
    /// Vector part, y.
    pub y: f32,
    /// Vector part, z.
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Rotation of `angle` radians about a (not necessarily unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Quat {
        let axis = axis.normalized();
        let (s, c) = (angle * 0.5).sin_cos();
        Quat {
            w: c,
            x: axis.x * s,
            y: axis.y * s,
            z: axis.z * s,
        }
    }

    /// Builds a quaternion from an orthonormal rotation matrix.
    pub fn from_mat3(m: &Mat3) -> Quat {
        // Shepperd's method: pick the numerically largest pivot.
        let (r0, r1, r2) = (m.row(0), m.row(1), m.row(2));
        let trace = r0.x + r1.y + r2.z;
        let q = if trace > 0.0 {
            let s = (trace + 1.0).sqrt() * 2.0;
            Quat {
                w: 0.25 * s,
                x: (r2.y - r1.z) / s,
                y: (r0.z - r2.x) / s,
                z: (r1.x - r0.y) / s,
            }
        } else if r0.x > r1.y && r0.x > r2.z {
            let s = (1.0 + r0.x - r1.y - r2.z).sqrt() * 2.0;
            Quat {
                w: (r2.y - r1.z) / s,
                x: 0.25 * s,
                y: (r0.y + r1.x) / s,
                z: (r0.z + r2.x) / s,
            }
        } else if r1.y > r2.z {
            let s = (1.0 + r1.y - r0.x - r2.z).sqrt() * 2.0;
            Quat {
                w: (r0.z - r2.x) / s,
                x: (r0.y + r1.x) / s,
                y: 0.25 * s,
                z: (r1.z + r2.y) / s,
            }
        } else {
            let s = (1.0 + r2.z - r0.x - r1.y).sqrt() * 2.0;
            Quat {
                w: (r1.x - r0.y) / s,
                x: (r0.z + r2.x) / s,
                y: (r1.z + r2.y) / s,
                z: 0.25 * s,
            }
        };
        q.normalized()
    }

    /// Converts to a rotation matrix.
    pub fn to_mat3(self) -> Mat3 {
        let Quat { w, x, y, z } = self;
        Mat3::from_rows(
            Vec3::new(
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ),
            Vec3::new(
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ),
            Vec3::new(
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ),
        )
    }

    /// Quaternion conjugate (inverse for unit quaternions).
    #[inline]
    pub fn conjugate(self) -> Quat {
        Quat {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Returns the normalized quaternion.
    ///
    /// A quaternion whose norm is NaN normalises to NaN components without
    /// tripping the zero-quaternion assertion.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the quaternion is (near) zero.
    pub fn normalized(self) -> Quat {
        let n = (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt();
        debug_assert!(n > 1e-12 || n.is_nan(), "normalizing a zero quaternion");
        Quat {
            w: self.w / n,
            x: self.x / n,
            y: self.y / n,
            z: self.z / n,
        }
    }

    /// Dot product of quaternion components.
    #[inline]
    pub fn dot(self, o: Quat) -> f32 {
        self.w * o.w + self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Rotates a vector.
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        self.to_mat3() * v
    }

    /// Spherical linear interpolation; `t` may lie outside `[0, 1]`, in which
    /// case the rotation is extrapolated along the same geodesic.
    ///
    /// SPARW uses `t > 1` to predict the orientation of a future reference
    /// frame from the two most recent target-frame orientations.
    pub fn slerp(self, mut other: Quat, t: f32) -> Quat {
        let mut cos = self.dot(other);
        // Take the short arc.
        if cos < 0.0 {
            other = Quat {
                w: -other.w,
                x: -other.x,
                y: -other.y,
                z: -other.z,
            };
            cos = -cos;
        }
        if cos > 0.9995 {
            // Nearly identical: fall back to (extrapolating) nlerp.
            return Quat {
                w: self.w + (other.w - self.w) * t,
                x: self.x + (other.x - self.x) * t,
                y: self.y + (other.y - self.y) * t,
                z: self.z + (other.z - self.z) * t,
            }
            .normalized();
        }
        let theta = cos.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin_theta;
        let b = (t * theta).sin() / sin_theta;
        Quat {
            w: a * self.w + b * other.w,
            x: a * self.x + b * other.x,
            y: a * self.y + b * other.y,
            z: a * self.z + b * other.z,
        }
        .normalized()
    }

    /// Rotation angle in radians between this orientation and `other`.
    pub fn angle_to(self, other: Quat) -> f32 {
        let d = self.dot(other).abs().clamp(0.0, 1.0);
        2.0 * d.acos()
    }
}

impl Mul for Quat {
    type Output = Quat;
    /// Hamilton product: `self * other` applies `other` first, then `self`.
    fn mul(self, o: Quat) -> Quat {
        Quat {
            w: self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            x: self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            y: self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            z: self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn axis_angle_rotates_correctly() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let v = q.rotate(Vec3::X);
        assert!((v - Vec3::Y).length() < 1e-6);
    }

    #[test]
    fn mat3_roundtrip() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, -0.5), 1.234);
        let q2 = Quat::from_mat3(&q.to_mat3());
        // q and -q encode the same rotation.
        assert!(q.dot(q2).abs() > 1.0 - 1e-5);
    }

    #[test]
    fn conjugate_is_inverse() {
        let q = Quat::from_axis_angle(Vec3::Y, 0.8);
        let v = Vec3::new(0.3, -0.2, 0.9);
        let roundtrip = q.conjugate().rotate(q.rotate(v));
        assert!((roundtrip - v).length() < 1e-6);
    }

    #[test]
    fn slerp_interpolates_angle() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Z, 1.0);
        let mid = a.slerp(b, 0.5);
        assert!((mid.angle_to(a) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn slerp_extrapolates_past_one() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Z, 0.4);
        let extra = a.slerp(b, 2.0);
        let expected = Quat::from_axis_angle(Vec3::Z, 0.8);
        assert!(extra.angle_to(expected) < 1e-4);
    }

    #[test]
    fn hamilton_product_composes() {
        let a = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let b = Quat::from_axis_angle(Vec3::X, PI);
        let v = Vec3::new(0.0, 1.0, 0.0);
        let composed = (a * b).rotate(v);
        let sequential = a.rotate(b.rotate(v));
        assert!((composed - sequential).length() < 1e-5);
    }
}
