//! 3×3 and 4×4 column-major matrices.

use crate::{Vec3, Vec4};
use std::ops::Mul;

/// A 3×3 column-major matrix (rotations, intrinsics `K`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Columns of the matrix.
    pub cols: [Vec3; 3],
}

/// A 4×4 column-major matrix (homogeneous rigid transforms, projections).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Columns of the matrix.
    pub cols: [Vec4; 4],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::IDENTITY
    }
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        cols: [
            Vec3 {
                x: 1.0,
                y: 0.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 1.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 0.0,
                z: 1.0,
            },
        ],
    };

    /// Builds a matrix from three columns.
    #[inline]
    pub const fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Mat3 { cols: [c0, c1, c2] }
    }

    /// Builds a matrix from rows (convenient for writing literals).
    #[inline]
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Mat3::from_cols(
            Vec3::new(r0.x, r1.x, r2.x),
            Vec3::new(r0.y, r1.y, r2.y),
            Vec3::new(r0.z, r1.z, r2.z),
        )
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows(self.cols[0], self.cols[1], self.cols[2])
    }

    /// Determinant.
    #[inline]
    pub fn determinant(&self) -> f32 {
        self.cols[0].dot(self.cols[1].cross(self.cols[2]))
    }

    /// Matrix inverse.
    ///
    /// Returns `None` when the matrix is singular (|det| < 1e-12).
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        let c0 = self.cols[1].cross(self.cols[2]) * inv_det;
        let c1 = self.cols[2].cross(self.cols[0]) * inv_det;
        let c2 = self.cols[0].cross(self.cols[1]) * inv_det;
        // Rows of the inverse are the scaled cross products; transpose back to columns.
        Some(Mat3::from_rows(c0, c1, c2))
    }

    /// Row `i` of the matrix.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.cols[0][i], self.cols[1][i], self.cols[2][i])
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, o: Mat3) -> Mat3 {
        Mat3 {
            cols: [self * o.cols[0], self * o.cols[1], self * o.cols[2]],
        }
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        cols: [
            Vec4 {
                x: 1.0,
                y: 0.0,
                z: 0.0,
                w: 0.0,
            },
            Vec4 {
                x: 0.0,
                y: 1.0,
                z: 0.0,
                w: 0.0,
            },
            Vec4 {
                x: 0.0,
                y: 0.0,
                z: 1.0,
                w: 0.0,
            },
            Vec4 {
                x: 0.0,
                y: 0.0,
                z: 0.0,
                w: 1.0,
            },
        ],
    };

    /// Builds a matrix from four columns.
    #[inline]
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Mat4 {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Builds a rigid transform from a rotation and a translation.
    #[inline]
    pub fn from_rotation_translation(r: Mat3, t: Vec3) -> Self {
        Mat4::from_cols(
            r.cols[0].extend(0.0),
            r.cols[1].extend(0.0),
            r.cols[2].extend(0.0),
            t.extend(1.0),
        )
    }

    /// The upper-left 3×3 block.
    #[inline]
    pub fn rotation_part(&self) -> Mat3 {
        Mat3::from_cols(
            self.cols[0].truncate(),
            self.cols[1].truncate(),
            self.cols[2].truncate(),
        )
    }

    /// The translation column.
    #[inline]
    pub fn translation_part(&self) -> Vec3 {
        self.cols[3].truncate()
    }

    /// Transforms a point (applies rotation and translation).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        (self.rotation_part() * p) + self.translation_part()
    }

    /// Inverse of a rigid transform (rotation must be orthonormal).
    ///
    /// Much cheaper than a general 4×4 inverse and exact for camera poses.
    pub fn rigid_inverse(&self) -> Mat4 {
        let rt = self.rotation_part().transpose();
        let t = self.translation_part();
        Mat4::from_rotation_translation(rt, -(rt * t))
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    #[inline]
    fn mul(self, o: Mat4) -> Mat4 {
        Mat4 {
            cols: [
                self * o.cols[0],
                self * o.cols[1],
                self * o.cols[2],
                self * o.cols[3],
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quat;

    fn assert_vec_close(a: Vec3, b: Vec3, eps: f32) {
        assert!((a - b).length() < eps, "{a} != {b}");
    }

    #[test]
    fn identity_is_neutral() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
        assert_eq!(Mat4::IDENTITY.transform_point(v), v);
    }

    #[test]
    fn rotation_preserves_length() {
        let about = |axis, angle| Quat::from_axis_angle(axis, angle).to_mat3();
        let r = about(Vec3::Y, 0.7) * about(Vec3::X, -1.2) * about(Vec3::Z, 2.5);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(((r * v).length() - v.length()).abs() < 1e-5);
        assert!((r.determinant() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.5),
            Vec3::new(-1.0, 3.0, 0.0),
            Vec3::new(0.0, 0.25, 1.5),
        );
        let inv = m.inverse().expect("invertible");
        let prod = m * inv;
        for i in 0..3 {
            assert_vec_close(prod.cols[i], Mat3::IDENTITY.cols[i], 1e-5);
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat3::from_cols(Vec3::X, Vec3::X, Vec3::Y);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn rigid_inverse_undoes_transform() {
        let rotation = Quat::from_axis_angle(Vec3::Z, 1.0).to_mat3();
        let m = Mat4::from_rotation_translation(rotation, Vec3::new(3.0, -1.0, 2.0));
        let p = Vec3::new(0.5, 0.25, -4.0);
        let q = m.transform_point(p);
        assert_vec_close(m.rigid_inverse().transform_point(q), p, 1e-5);
    }

    #[test]
    fn matrix_vector_matches_rows() {
        let m = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        let v = Vec3::new(1.0, 1.0, 1.0);
        assert_vec_close(m * v, Vec3::new(6.0, 15.0, 24.0), 1e-6);
        assert_eq!(m.row(0), Vec3::new(1.0, 2.0, 3.0));
    }
}
