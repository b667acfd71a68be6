//! Small fixed-size `f32` vectors.

use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 2-component `f32` vector (pixel coordinates, plane features).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-component `f32` vector (positions, directions, RGB radiance).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-component `f32` vector (homogeneous coordinates, RGBA).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

macro_rules! impl_binops {
    ($ty:ident, $($f:ident),+) => {
        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, o: $ty) -> $ty { $ty { $($f: self.$f + o.$f),+ } }
        }
        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, o: $ty) -> $ty { $ty { $($f: self.$f - o.$f),+ } }
        }
        impl Mul for $ty {
            type Output = $ty;
            /// Component-wise (Hadamard) product.
            #[inline]
            fn mul(self, o: $ty) -> $ty { $ty { $($f: self.$f * o.$f),+ } }
        }
        impl Mul<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, s: f32) -> $ty { $ty { $($f: self.$f * s),+ } }
        }
        impl Mul<$ty> for f32 {
            type Output = $ty;
            #[inline]
            fn mul(self, v: $ty) -> $ty { v * self }
        }
        impl Div<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, s: f32) -> $ty { $ty { $($f: self.$f / s),+ } }
        }
        impl Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty { $ty { $($f: -self.$f),+ } }
        }
        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, o: $ty) { $(self.$f += o.$f;)+ }
        }
        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, o: $ty) { $(self.$f -= o.$f;)+ }
        }
        impl MulAssign<f32> for $ty {
            #[inline]
            fn mul_assign(&mut self, s: f32) { $(self.$f *= s;)+ }
        }
        impl DivAssign<f32> for $ty {
            #[inline]
            fn div_assign(&mut self, s: f32) { $(self.$f /= s;)+ }
        }
        impl $ty {
            /// Dot product.
            #[inline]
            pub fn dot(self, o: $ty) -> f32 {
                let mut acc = 0.0;
                $(acc += self.$f * o.$f;)+
                acc
            }
            /// Euclidean length.
            #[inline]
            pub fn length(self) -> f32 { self.dot(self).sqrt() }
            /// Squared Euclidean length (avoids the square root).
            #[inline]
            pub fn length_squared(self) -> f32 { self.dot(self) }
            /// Returns the unit-length vector pointing the same way.
            ///
            /// A vector whose length is NaN normalises to NaN components
            /// without tripping the zero-length assertion: a NaN pose's
            /// rays reach the renderers, which treat them as misses.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if the vector is (near) zero length.
            #[inline]
            pub fn normalized(self) -> $ty {
                let len = self.length();
                debug_assert!(len > 1e-12 || len.is_nan(), "normalizing a zero-length vector");
                self / len
            }
            /// Component-wise minimum.
            #[inline]
            pub fn min(self, o: $ty) -> $ty { $ty { $($f: self.$f.min(o.$f)),+ } }
            /// Component-wise maximum.
            #[inline]
            pub fn max(self, o: $ty) -> $ty { $ty { $($f: self.$f.max(o.$f)),+ } }
            /// Component-wise absolute value.
            #[inline]
            pub fn abs(self) -> $ty { $ty { $($f: self.$f.abs()),+ } }
            /// Linear interpolation: `self` at `t == 0`, `o` at `t == 1`.
            #[inline]
            pub fn lerp(self, o: $ty, t: f32) -> $ty { self + (o - self) * t }
            /// Largest component value.
            #[inline]
            pub fn max_element(self) -> f32 {
                let mut m = f32::NEG_INFINITY;
                $(m = m.max(self.$f);)+
                m
            }
            /// Smallest component value.
            #[inline]
            pub fn min_element(self) -> f32 {
                let mut m = f32::INFINITY;
                $(m = m.min(self.$f);)+
                m
            }
            /// `true` when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                let mut ok = true;
                $(ok &= self.$f.is_finite();)+
                ok
            }
        }
    };
}

impl_binops!(Vec2, x, y);
impl_binops!(Vec3, x, y, z);
impl_binops!(Vec4, x, y, z, w);

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec2 { x: v, y: v }
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// All ones.
    pub const ONE: Vec3 = Vec3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };
    /// Unit X axis.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit Y axis.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit Z axis.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Extends to homogeneous coordinates with the given `w`.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }

    /// Component by index: `0 → x`, `1 → y`, `2 → z`; `None` out of range.
    ///
    /// The safe counterpart of `v[i]` for computed indices.
    #[inline]
    pub const fn get(self, i: usize) -> Option<f32> {
        match i {
            0 => Some(self.x),
            1 => Some(self.y),
            2 => Some(self.z),
            _ => None,
        }
    }

    /// Mutable component by index; `None` out of range.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut f32> {
        match i {
            0 => Some(&mut self.x),
            1 => Some(&mut self.y),
            2 => Some(&mut self.z),
            _ => None,
        }
    }

    /// Angle in radians between `self` and `o` (both need not be normalized).
    ///
    /// This is the quantity θ of the paper's Fig. 8: the angle subtended at a
    /// scene point by the reference-camera ray and the target-camera ray, used
    /// by the SPARW warping heuristic.
    #[inline]
    pub fn angle_between(self, o: Vec3) -> f32 {
        let denom = (self.length_squared() * o.length_squared()).sqrt();
        if denom <= 1e-20 {
            return 0.0;
        }
        let c = (self.dot(o) / denom).clamp(-1.0, 1.0);
        c.acos()
    }
}

impl Vec4 {
    /// The zero vector.
    pub const ZERO: Vec4 = Vec4 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
        w: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Vec4 { x, y, z, w }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec4 {
            x: v,
            y: v,
            z: v,
            w: v,
        }
    }

    /// Drops the `w` component.
    #[inline]
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective division: `(x, y, z) / w`.
    #[inline]
    pub fn project(self) -> Vec3 {
        self.truncate() / self.w
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    /// `v[i]` for a trusted index. Hot warp/gather loops only ever index
    /// with `i < 3`; prefer [`Vec3::get`] when the index is computed.
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        debug_assert!(i < 3, "Vec3 index {i} out of range");
        match i {
            0 => &self.x,
            1 => &self.y,
            _ => &self.z,
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        debug_assert!(i < 3, "Vec3 index {i} out of range");
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            _ => &mut self.z,
        }
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn dot_and_cross_orthogonality() {
        let a = Vec3::X;
        let b = Vec3::Y;
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::Z);
        assert_eq!(b.cross(a), -Vec3::Z);
    }

    #[test]
    fn normalize_gives_unit_length() {
        let v = Vec3::new(3.0, 4.0, 12.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        let theta = Vec3::X.angle_between(Vec3::Y);
        assert!((theta - std::f32::consts::FRAC_PI_2).abs() < 1e-6);
        // Parallel vectors subtend zero angle regardless of magnitude.
        assert!(Vec3::X.angle_between(Vec3::X * 10.0) < 1e-6);
    }

    #[test]
    fn homogeneous_project() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.project(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn index_access() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        v[1] = 7.0;
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 7.0);
        assert_eq!(v[2], 3.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn index_out_of_range_panics_in_debug() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn get_is_total() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v.get(0), Some(1.0));
        assert_eq!(v.get(1), Some(2.0));
        assert_eq!(v.get(2), Some(3.0));
        assert_eq!(v.get(3), None);
        assert_eq!(v.get(usize::MAX), None);
    }

    #[test]
    fn get_mut_mutates_components() {
        let mut v = Vec3::ZERO;
        *v.get_mut(1).unwrap() = 5.0;
        assert_eq!(v, Vec3::new(0.0, 5.0, 0.0));
        assert!(v.get_mut(3).is_none());
    }

    #[test]
    fn min_max_elements() {
        let v = Vec3::new(-1.0, 5.0, 2.0);
        assert_eq!(v.max_element(), 5.0);
        assert_eq!(v.min_element(), -1.0);
        assert_eq!(v.abs().min_element(), 1.0);
    }
}
