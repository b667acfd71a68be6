//! Signed-distance primitives and scene objects.

use crate::lanes::{F, V};
use crate::Material;
use cicero_math::{Aabb, Vec3};

/// A signed-distance shape centered at the origin.
///
/// Negative distances are inside the shape. Scenes position shapes through the
/// owning [`Object`]'s translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A sphere of the given radius.
    Sphere {
        /// Sphere radius.
        radius: f32,
    },
    /// An axis-aligned box with the given half extents.
    Box {
        /// Half extents along each axis.
        half: Vec3,
    },
    /// A torus in the XZ plane.
    Torus {
        /// Distance from center to tube center.
        major: f32,
        /// Tube radius.
        minor: f32,
    },
    /// A capped vertical (Y-axis) cylinder.
    Cylinder {
        /// Cylinder radius.
        radius: f32,
        /// Half height.
        half_height: f32,
    },
    /// A box with rounded edges.
    RoundedBox {
        /// Half extents before rounding.
        half: Vec3,
        /// Rounding radius.
        round: f32,
    },
    /// A capsule between two points (in object space).
    Capsule {
        /// First endpoint.
        a: Vec3,
        /// Second endpoint.
        b: Vec3,
        /// Capsule radius.
        radius: f32,
    },
}

impl Shape {
    /// Signed distance from point `p` (object space) to the shape surface.
    ///
    /// One lane of the shape's only distance body, the one
    /// [`AnalyticScene::nearest8`](crate::AnalyticScene::nearest8) runs
    /// eight points at a time.
    #[inline]
    pub fn sdf(&self, p: Vec3) -> f32 {
        self.sdf_lanes(&V::from_points(&[p])).0[0]
    }

    /// [`sdf`](Self::sdf) at `N` points, lane by lane.
    #[inline]
    pub(crate) fn sdf_lanes<const N: usize>(&self, p: &V<N>) -> F<N> {
        let p = *p;
        match *self {
            Shape::Sphere { radius } => p.length() - radius,
            Shape::Box { half } => {
                let q = p.abs() - half;
                q.max_splat(0.0).length() + q.max_element().min(F::splat(0.0))
            }
            Shape::Torus { major, minor } => {
                let q = V {
                    x: (p.x * p.x + p.z * p.z).sqrt() - major,
                    y: p.y,
                    z: F::splat(0.0),
                };
                q.length() - minor
            }
            Shape::Cylinder {
                radius,
                half_height,
            } => {
                let d_radial = (p.x * p.x + p.z * p.z).sqrt() - radius;
                let d_axial = p.y.abs() - half_height;
                let zero = F::splat(0.0);
                let outside = V {
                    x: d_radial.max(zero),
                    y: d_axial.max(zero),
                    z: zero,
                }
                .length();
                outside + d_radial.max(d_axial).min(zero)
            }
            Shape::RoundedBox { half, round } => {
                let q = p.abs() - half;
                q.max_splat(0.0).length() + q.max_element().min(F::splat(0.0)) - round
            }
            Shape::Capsule { a, b, radius } => {
                let pa = p - a;
                let ba = b - a;
                let h = (pa.dot_vec(ba) / ba.length_squared()).clamp(0.0, 1.0);
                (pa - ba * h).length() - radius
            }
        }
    }

    /// A conservative axis-aligned bound of the shape (object space).
    pub fn bounds(&self) -> Aabb {
        match *self {
            Shape::Sphere { radius } => Aabb::centered_cube(radius),
            Shape::Box { half } => Aabb::new(-half, half),
            Shape::Torus { major, minor } => {
                let r = major + minor;
                Aabb::new(Vec3::new(-r, -minor, -r), Vec3::new(r, minor, r))
            }
            Shape::Cylinder {
                radius,
                half_height,
            } => Aabb::new(
                Vec3::new(-radius, -half_height, -radius),
                Vec3::new(radius, half_height, radius),
            ),
            Shape::RoundedBox { half, round } => {
                Aabb::new(-(half + Vec3::splat(round)), half + Vec3::splat(round))
            }
            Shape::Capsule { a, b, radius } => {
                let r = Vec3::splat(radius);
                Aabb::new(a.min(b) - r, a.max(b) + r)
            }
        }
    }
}

/// A positioned, textured shape inside an [`crate::AnalyticScene`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Object {
    /// Shape geometry.
    pub shape: Shape,
    /// World-space translation of the shape center.
    pub position: Vec3,
    /// Surface material.
    pub material: Material,
}

impl Object {
    /// Creates an object at `position`.
    pub fn new(shape: Shape, position: Vec3, material: Material) -> Self {
        Object {
            shape,
            position,
            material,
        }
    }

    /// Signed distance from world point `p`.
    #[inline]
    pub fn sdf(&self, p: Vec3) -> f32 {
        self.shape.sdf(p - self.position)
    }

    /// [`sdf`](Self::sdf) at `N` world points, lane by lane.
    #[inline]
    pub(crate) fn sdf_lanes<const N: usize>(&self, p: &V<N>) -> F<N> {
        self.shape.sdf_lanes(&(*p - self.position))
    }

    /// World-space bounding box.
    pub fn bounds(&self) -> Aabb {
        let b = self.shape.bounds();
        Aabb::new(b.min + self.position, b.max + self.position)
    }

    /// Outward surface normal via central differences of the SDF: the six
    /// probes `p ± ε·axis` are one eight-lane evaluation.
    pub fn normal(&self, p: Vec3) -> Vec3 {
        const EPS: f32 = 1e-3;
        let probes = [
            p + Vec3::X * EPS,
            p - Vec3::X * EPS,
            p + Vec3::Y * EPS,
            p - Vec3::Y * EPS,
            p + Vec3::Z * EPS,
            p - Vec3::Z * EPS,
            // Two spare lanes, read by no one.
            p,
            p,
        ];
        let d = self.sdf_lanes(&V::from_points(&probes)).0;
        let g = Vec3::new(d[0] - d[1], d[2] - d[3], d[4] - d[5]);
        if g.length_squared() < 1e-20 {
            Vec3::Y
        } else {
            g.normalized()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar signed distance as it was written before the lane body:
    /// the oracle [`Shape::sdf`] and its eight-lane use are held to.
    fn sdf_reference(shape: &Shape, p: Vec3) -> f32 {
        match *shape {
            Shape::Sphere { radius } => p.length() - radius,
            Shape::Box { half } => {
                let q = p.abs() - half;
                q.max(Vec3::ZERO).length() + q.max_element().min(0.0)
            }
            Shape::Torus { major, minor } => {
                let q = Vec3::new((p.x * p.x + p.z * p.z).sqrt() - major, p.y, 0.0);
                q.length() - minor
            }
            Shape::Cylinder {
                radius,
                half_height,
            } => {
                let d_radial = (p.x * p.x + p.z * p.z).sqrt() - radius;
                let d_axial = p.y.abs() - half_height;
                let outside = Vec3::new(d_radial.max(0.0), d_axial.max(0.0), 0.0).length();
                outside + d_radial.max(d_axial).min(0.0)
            }
            Shape::RoundedBox { half, round } => {
                let q = p.abs() - half;
                q.max(Vec3::ZERO).length() + q.max_element().min(0.0) - round
            }
            Shape::Capsule { a, b, radius } => {
                let pa = p - a;
                let ba = b - a;
                let h = (pa.dot(ba) / ba.length_squared()).clamp(0.0, 1.0);
                (pa - ba * h).length() - radius
            }
        }
    }

    /// The normal as six scalar distance calls: the oracle of
    /// [`Object::normal`].
    fn normal_reference(o: &Object, p: Vec3) -> Vec3 {
        const EPS: f32 = 1e-3;
        let d = |q: Vec3| sdf_reference(&o.shape, q - o.position);
        let g = Vec3::new(
            d(p + Vec3::X * EPS) - d(p - Vec3::X * EPS),
            d(p + Vec3::Y * EPS) - d(p - Vec3::Y * EPS),
            d(p + Vec3::Z * EPS) - d(p - Vec3::Z * EPS),
        );
        if g.length_squared() < 1e-20 {
            Vec3::Y
        } else {
            g.normalized()
        }
    }

    /// Every kind of shape, the capsule also degenerate (`a == b`, whose
    /// projection divides 0 by 0).
    fn every_shape() -> [Shape; 8] {
        [
            Shape::Sphere { radius: 0.7 },
            Shape::Box {
                half: Vec3::new(0.3, 0.5, 0.2),
            },
            Shape::Torus {
                major: 0.6,
                minor: 0.2,
            },
            Shape::Cylinder {
                radius: 0.4,
                half_height: 0.8,
            },
            Shape::RoundedBox {
                half: Vec3::splat(0.4),
                round: 0.1,
            },
            Shape::Capsule {
                a: Vec3::new(-0.2, 0.1, 0.0),
                b: Vec3::new(0.3, 0.6, -0.1),
                radius: 0.25,
            },
            Shape::Capsule {
                a: Vec3::ZERO,
                b: Vec3::ZERO,
                radius: 0.25,
            },
            Shape::Box { half: Vec3::ZERO },
        ]
    }

    /// Coordinates no proptest range draws: NaN, ±∞, ±0, subnormals, the
    /// largest magnitudes the scenes could be asked about, and plain ones.
    const EDGES: [f32; 12] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        1e30,
        -1e30,
        f32::MAX,
        1.0,
        -0.5,
    ];

    /// `a` and `b` are the same `f32` bit for bit, or both NaN: Rust leaves
    /// the sign and payload of a NaN an operation produces unspecified
    /// (the compiler may commute an add's operands), and nothing downstream
    /// reads them.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Asserts the one-lane and the eight-lane distance of `shape` are the
    /// reference's ([`same`]) at each of `points` (any count).
    fn assert_lanes_are_the_reference(shape: &Shape, points: &[Vec3]) {
        for p in points {
            let (got, want) = (shape.sdf(*p), sdf_reference(shape, *p));
            assert!(same(got, want), "{shape:?} at {p:?}: {got} vs {want}");
        }
        for chunk in points.chunks(8) {
            let mut lanes = [Vec3::ZERO; 8];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let got = shape.sdf_lanes(&V::from_points(&lanes)).0;
            for (p, got) in lanes.iter().zip(got) {
                let want = sdf_reference(shape, *p);
                assert!(
                    same(got, want),
                    "{shape:?}, 8 lanes, at {p:?}: {got} vs {want}"
                );
            }
        }
    }

    /// Asserts `o.normal(p)` is the six-call reference's bit for bit.
    fn assert_normal_is_the_reference(o: &Object, p: Vec3) {
        let (got, want) = (o.normal(p), normal_reference(o, p));
        let bits = |v: Vec3| [v.x, v.y, v.z].map(f32::to_bits);
        assert_eq!(bits(got), bits(want), "{:?} at {p:?}", o.shape);
    }

    #[test]
    fn sdf_lanes_are_the_scalar_reference_at_the_edges() {
        let mut points = Vec::new();
        for &x in &EDGES {
            for &y in &EDGES {
                for &z in &EDGES {
                    points.push(Vec3::new(x, y, z));
                }
            }
        }
        for shape in every_shape() {
            assert_lanes_are_the_reference(&shape, &points);
        }
        // The NaN-dropping `max` survives: a NaN point reads −∞ in a box.
        let b = Shape::Box {
            half: Vec3::splat(1.0),
        };
        assert_eq!(b.sdf(Vec3::splat(f32::NAN)), f32::NEG_INFINITY);
    }

    /// At points whose squared length is finite, of the shapes with a
    /// gradient: a NaN gradient trips `normalized`'s debug assertion on
    /// both sides.
    #[test]
    fn normal_is_the_six_call_reference() {
        let finite = [0.0, -0.0, 1e-40, -1e-40, 1e18, -1e18, 1.0, -0.5, 0.35];
        for shape in &every_shape()[..6] {
            let o = Object::new(*shape, Vec3::new(0.1, -0.2, 0.05), Material::default());
            for &x in &finite {
                for &y in &finite {
                    for &z in &finite {
                        assert_normal_is_the_reference(&o, Vec3::new(x, y, z));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sdf_lanes_are_the_scalar_reference(
            coords in prop::collection::vec((-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0), 1..40),
        ) {
            let points: Vec<Vec3> = coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            for shape in every_shape() {
                assert_lanes_are_the_reference(&shape, &points);
            }
            for shape in &every_shape()[..6] {
                let o = Object::new(*shape, Vec3::new(0.3, 0.1, -0.2), Material::default());
                for p in &points {
                    assert_normal_is_the_reference(&o, *p);
                }
            }
        }
    }

    #[test]
    fn sphere_sdf_signs() {
        let s = Shape::Sphere { radius: 1.0 };
        assert!(s.sdf(Vec3::ZERO) < 0.0);
        assert!((s.sdf(Vec3::X) - 0.0).abs() < 1e-6);
        assert!(s.sdf(Vec3::X * 2.0) > 0.0);
    }

    #[test]
    fn box_sdf_on_faces() {
        let b = Shape::Box {
            half: Vec3::new(1.0, 2.0, 3.0),
        };
        assert!((b.sdf(Vec3::new(1.0, 0.0, 0.0))).abs() < 1e-6);
        assert!((b.sdf(Vec3::new(2.0, 0.0, 0.0)) - 1.0).abs() < 1e-6);
        assert!(b.sdf(Vec3::ZERO) < 0.0);
    }

    #[test]
    fn torus_sdf_center_of_tube() {
        let t = Shape::Torus {
            major: 2.0,
            minor: 0.5,
        };
        // The circle x²+z²=4, y=0 is the tube center: distance = -minor.
        assert!((t.sdf(Vec3::new(2.0, 0.0, 0.0)) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn cylinder_contains_axis() {
        let c = Shape::Cylinder {
            radius: 0.5,
            half_height: 1.0,
        };
        assert!(c.sdf(Vec3::ZERO) < 0.0);
        assert!(c.sdf(Vec3::new(0.0, 1.5, 0.0)) > 0.0);
        assert!(c.sdf(Vec3::new(1.0, 0.0, 0.0)) > 0.0);
    }

    #[test]
    fn capsule_distance_from_segment() {
        let c = Shape::Capsule {
            a: Vec3::ZERO,
            b: Vec3::Y,
            radius: 0.25,
        };
        assert!((c.sdf(Vec3::new(0.5, 0.5, 0.0)) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bounds_contain_surface_points() {
        let shapes = [
            Shape::Sphere { radius: 0.7 },
            Shape::Box {
                half: Vec3::new(0.3, 0.5, 0.2),
            },
            Shape::Torus {
                major: 0.6,
                minor: 0.2,
            },
            Shape::Cylinder {
                radius: 0.4,
                half_height: 0.8,
            },
            Shape::RoundedBox {
                half: Vec3::splat(0.4),
                round: 0.1,
            },
        ];
        for s in shapes {
            let b = s.bounds();
            // Sample a coarse grid; any point with sdf <= 0 must be inside bounds.
            for i in 0..512 {
                let p = Vec3::new(
                    ((i % 8) as f32 / 7.0 - 0.5) * 3.0,
                    (((i / 8) % 8) as f32 / 7.0 - 0.5) * 3.0,
                    ((i / 64) as f32 / 7.0 - 0.5) * 3.0,
                );
                if s.sdf(p) <= 0.0 {
                    assert!(b.contains(p), "{s:?} point {p} escapes bounds");
                }
            }
        }
    }

    #[test]
    fn object_translation_shifts_sdf() {
        let o = Object::new(
            Shape::Sphere { radius: 1.0 },
            Vec3::new(5.0, 0.0, 0.0),
            Material::default(),
        );
        assert!(o.sdf(Vec3::new(5.0, 0.0, 0.0)) < 0.0);
        assert!(o.sdf(Vec3::ZERO) > 0.0);
        assert!(o.bounds().contains(Vec3::new(5.5, 0.0, 0.0)));
    }

    #[test]
    fn normal_points_outward_on_sphere() {
        let o = Object::new(
            Shape::Sphere { radius: 1.0 },
            Vec3::ZERO,
            Material::default(),
        );
        let n = o.normal(Vec3::new(0.0, 1.0, 0.0));
        assert!((n - Vec3::Y).length() < 1e-2);
    }
}
