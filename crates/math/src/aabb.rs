//! Axis-aligned bounding boxes.

use crate::{Ray, Vec3};

/// An axis-aligned bounding box, used for scene bounds and voxel-grid extents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from two corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component of `min` exceeds `max`.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z);
        Aabb { min, max }
    }

    /// A cube centered at the origin with the given half extent.
    #[inline]
    pub fn centered_cube(half: f32) -> Self {
        Aabb::new(Vec3::splat(-half), Vec3::splat(half))
    }

    /// Box dimensions.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Box center.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// `true` if the point lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.y >= self.min.y
            && p.z >= self.min.z
            && p.x <= self.max.x
            && p.y <= self.max.y
            && p.z <= self.max.z
    }

    /// Maps a point to normalized `[0,1]³` coordinates within the box.
    #[inline]
    pub fn normalize(&self, p: Vec3) -> Vec3 {
        let s = self.size();
        Vec3::new(
            (p.x - self.min.x) / s.x,
            (p.y - self.min.y) / s.y,
            (p.z - self.min.z) / s.z,
        )
    }

    /// Slab-test intersection of a ray with the box.
    ///
    /// Returns the parametric entry/exit interval `(t_near, t_far)` clipped to
    /// `t >= 0`, or `None` when the ray misses. This interval bounds NeRF ray
    /// marching so no samples are wasted outside the scene volume.
    ///
    /// A ray with a zero direction component whose origin lies on one of
    /// that axis's slab planes computes `0 · ∞ = NaN` there; `f32::max` and
    /// `f32::min` drop the NaN, so the axis imposes no constraint and the
    /// test errs toward a hit, never toward a miss.
    ///
    /// An unbounded interval is `None` too: no ray with a finite origin and
    /// a non-zero direction has one through a finite box, and a zero or
    /// all-NaN direction (whose every axis drops out as above) must not
    /// hand a marcher `t_far = ∞` to step towards.
    pub fn intersect(&self, ray: &Ray) -> Option<(f32, f32)> {
        let mut t0 = 0.0_f32;
        let mut t1 = f32::INFINITY;
        for axis in 0..3 {
            let inv = 1.0 / ray.dir[axis];
            let mut near = (self.min[axis] - ray.origin[axis]) * inv;
            let mut far = (self.max[axis] - ray.origin[axis]) * inv;
            if inv < 0.0 {
                std::mem::swap(&mut near, &mut far);
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
        (t1 < f32::INFINITY).then_some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_normalize() {
        let b = Aabb::centered_cube(1.0);
        assert!(b.contains(Vec3::ZERO));
        assert!(!b.contains(Vec3::new(1.5, 0.0, 0.0)));
        let n = b.normalize(Vec3::new(0.0, 1.0, -1.0));
        assert!((n - Vec3::new(0.5, 1.0, 0.0)).length() < 1e-6);
    }

    #[test]
    fn ray_through_center_hits() {
        let b = Aabb::centered_cube(1.0);
        let r = Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::new(0.0, 0.0, -1.0));
        let (t0, t1) = b.intersect(&r).expect("hit");
        assert!((t0 - 4.0).abs() < 1e-5);
        assert!((t1 - 6.0).abs() < 1e-5);
    }

    #[test]
    fn ray_missing_returns_none() {
        let b = Aabb::centered_cube(1.0);
        let r = Ray::new(Vec3::new(0.0, 5.0, 5.0), Vec3::new(0.0, 0.0, -1.0));
        assert!(b.intersect(&r).is_none());
    }

    #[test]
    fn ray_in_a_slab_plane_hits_through_the_nan() {
        let b = Aabb::centered_cube(1.0);
        // Parallel to x (either sign of zero) on the max and the min plane.
        for (x, dir_x) in [(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0)] {
            let r = Ray::new(Vec3::new(x, 0.0, 5.0), Vec3::new(dir_x, 0.0, -1.0));
            // The slab test's term for the plane the origin lies on.
            assert!(((x - r.origin.x) * (1.0 / r.dir.x)).is_nan());
            assert_eq!(b.intersect(&r), Some((4.0, 6.0)), "x {x}, dir.x {dir_x}");
        }
        // One ulp off the plane, outside, the same ray misses.
        let r = Ray::new(
            Vec3::new(1.0 + f32::EPSILON, 0.0, 5.0),
            Vec3::new(0.0, 0.0, -1.0),
        );
        assert_eq!(b.intersect(&r), None);
    }

    #[test]
    fn unbounded_intervals_miss() {
        let b = Aabb::centered_cube(1.0);
        // `Ray::new` normalises; these directions are set as they arrive.
        let ray = |origin: Vec3, dir: Vec3| Ray { origin, dir };
        for origin in [Vec3::ZERO, Vec3::new(0.5, -0.5, 0.25), Vec3::splat(5.0)] {
            for dir in [
                Vec3::splat(f32::NAN),
                Vec3::ZERO,
                -Vec3::ZERO,
                Vec3::new(f32::NAN, 0.0, f32::NAN),
            ] {
                assert_eq!(b.intersect(&ray(origin, dir)), None, "{origin:?} {dir:?}");
            }
        }
        // One finite axis bounds the interval again.
        let r = ray(Vec3::new(0.0, 0.0, 5.0), Vec3::new(f32::NAN, 0.0, -1.0));
        assert_eq!(b.intersect(&r), Some((4.0, 6.0)));
    }

    #[test]
    fn ray_starting_inside_clips_to_zero() {
        let b = Aabb::centered_cube(2.0);
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        let (t0, t1) = b.intersect(&r).expect("hit");
        assert_eq!(t0, 0.0);
        assert!((t1 - 2.0).abs() < 1e-5);
    }
}
