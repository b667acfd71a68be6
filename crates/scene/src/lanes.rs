//! `N` lanes of `f32` arithmetic: the one body of every shape's signed
//! distance, evaluated at one point ([`Shape::sdf`](crate::Shape::sdf))
//! or at eight ([`AnalyticScene::nearest8`](crate::AnalyticScene::nearest8)).
//!
//! Every operation applies the scalar `f32` operation lane by lane, with
//! the operands in the scalar expression's order, so each lane's result is
//! the scalar one bit for bit (Rust neither fuses nor reassociates float
//! arithmetic): `f32::max` / `f32::min` keep dropping a NaN operand, and a
//! length stays `sqrt(0 + x² + y² + z²)`, as [`Vec3::length`] computes it.
//! The fixed-length loops over arrays are what the compiler vectorises
//! (SSE2 on the baseline x86_64 build); there is no intrinsic here.

use cicero_math::Vec3;
use std::ops::{Add, Div, Mul, Sub};

/// `N` lanes of one `f32` value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F<const N: usize>(pub(crate) [f32; N]);

impl<const N: usize> F<N> {
    /// Every lane `v`.
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        F([v; N])
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = f(*v);
        }
        F(out)
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = self.0;
        for (v, &o) in out.iter_mut().zip(&o.0) {
            *v = f(*v, o);
        }
        F(out)
    }

    /// Lane-wise `f32::abs`.
    #[inline(always)]
    pub(crate) fn abs(self) -> Self {
        self.map(f32::abs)
    }

    /// Lane-wise `f32::sqrt`.
    #[inline(always)]
    pub(crate) fn sqrt(self) -> Self {
        self.map(f32::sqrt)
    }

    /// Lane-wise `f32::max`: a NaN lane of either side yields the other.
    #[inline(always)]
    pub(crate) fn max(self, o: Self) -> Self {
        self.zip(o, f32::max)
    }

    /// Lane-wise `f32::min`: a NaN lane of either side yields the other.
    #[inline(always)]
    pub(crate) fn min(self, o: Self) -> Self {
        self.zip(o, f32::min)
    }

    /// Lane-wise `f32::clamp` (a NaN lane stays NaN).
    #[inline(always)]
    pub(crate) fn clamp(self, lo: f32, hi: f32) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }
}

macro_rules! lane_ops {
    ($($op:ident $f:ident),+) => {$(
        impl<const N: usize> $op for F<N> {
            type Output = F<N>;
            #[inline(always)]
            fn $f(self, o: F<N>) -> F<N> {
                self.zip(o, |a, b| a.$f(b))
            }
        }
        /// Every lane against one scalar right-hand side.
        impl<const N: usize> $op<f32> for F<N> {
            type Output = F<N>;
            #[inline(always)]
            fn $f(self, s: f32) -> F<N> {
                self.map(|a| a.$f(s))
            }
        }
    )+};
}

lane_ops!(Add add, Sub sub, Mul mul, Div div);

/// `N` points, one lane each: the 3-vector arithmetic of [`Vec3`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct V<const N: usize> {
    pub(crate) x: F<N>,
    pub(crate) y: F<N>,
    pub(crate) z: F<N>,
}

impl<const N: usize> V<N> {
    /// The points `p`, lane `i` holding `p[i]`.
    #[inline(always)]
    pub(crate) fn from_points(p: &[Vec3; N]) -> Self {
        V {
            x: F(p.map(|p| p.x)),
            y: F(p.map(|p| p.y)),
            z: F(p.map(|p| p.z)),
        }
    }

    /// [`Vec3::abs`].
    #[inline(always)]
    pub(crate) fn abs(self) -> Self {
        V {
            x: self.x.abs(),
            y: self.y.abs(),
            z: self.z.abs(),
        }
    }

    /// [`Vec3::max`] against `Vec3::splat(s)`.
    #[inline(always)]
    pub(crate) fn max_splat(self, s: f32) -> Self {
        let s = F::splat(s);
        V {
            x: self.x.max(s),
            y: self.y.max(s),
            z: self.z.max(s),
        }
    }

    /// [`Vec3::dot`] with one vector `o` for every lane: `0 + x·o.x + y·o.y
    /// + z·o.z`.
    #[inline(always)]
    pub(crate) fn dot_vec(self, o: Vec3) -> F<N> {
        F::splat(0.0) + self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// [`Vec3::length`]: `sqrt(0 + x² + y² + z²)`.
    #[inline(always)]
    pub(crate) fn length(self) -> F<N> {
        (F::splat(0.0) + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// [`Vec3::max_element`]: `(-∞).max(x).max(y).max(z)`.
    #[inline(always)]
    pub(crate) fn max_element(self) -> F<N> {
        F::splat(f32::NEG_INFINITY)
            .max(self.x)
            .max(self.y)
            .max(self.z)
    }
}

impl<const N: usize> Sub for V<N> {
    type Output = V<N>;
    #[inline(always)]
    fn sub(self, o: V<N>) -> V<N> {
        V {
            x: self.x - o.x,
            y: self.y - o.y,
            z: self.z - o.z,
        }
    }
}

/// One vector subtracted from every lane.
impl<const N: usize> Sub<Vec3> for V<N> {
    type Output = V<N>;
    #[inline(always)]
    fn sub(self, o: Vec3) -> V<N> {
        V {
            x: self.x - o.x,
            y: self.y - o.y,
            z: self.z - o.z,
        }
    }
}

/// `v * s` with one vector `v` and a scalar per lane: lane `i` is
/// `Vec3 * f32` of `v` and `s[i]`.
impl<const N: usize> Mul<F<N>> for Vec3 {
    type Output = V<N>;
    #[inline(always)]
    fn mul(self, s: F<N>) -> V<N> {
        V {
            x: F::splat(self.x) * s,
            y: F::splat(self.y) * s,
            z: F::splat(self.z) * s,
        }
    }
}
