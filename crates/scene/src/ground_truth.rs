//! Ground-truth frame rendering from analytic scenes.
//!
//! The paper's quality metric (PSNR) compares rendered frames to dataset
//! photographs. Our substitution renders the analytic scene directly with the
//! shared volume integrator — baked NeRF encodings then score finite PSNR
//! against this ground truth (their discretization error plays the role of the
//! trained model's reconstruction error), and SPARW/DS-2/Temp variants stack
//! further losses on top exactly as in the paper's Fig. 16.

use crate::volume::MarchParams;
use crate::{AnalyticScene, RadianceSource};
use cicero_math::{Camera, DepthMap, Image, RgbImage};

/// An RGB frame with its z-depth map.
///
/// SPARW consumes both: colors to warp, depths to build the point cloud
/// (paper Eq. 1). Background pixels carry `f32::INFINITY` depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Rendered radiance.
    pub color: RgbImage,
    /// Per-pixel z-depth (camera-space z, not ray length).
    pub depth: DepthMap,
}

impl Frame {
    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.color.width()
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.color.height()
    }
}

/// Renders a full frame of `scene` from `camera` by per-pixel ray marching.
///
/// Returns the color image and the z-depth map. This is the reference-quality
/// path — every pixel is integrated, no reuse, no approximation. Each ray is
/// marched by [`AnalyticScene::march`], against only the objects it can
/// meet; the pixels are bit for bit those of marching the whole scene.
pub fn render_frame(scene: &AnalyticScene, camera: &Camera, params: &MarchParams) -> Frame {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let mut color = RgbImage::black(w, h);
    let mut depth = DepthMap::empty(w, h);
    for y in 0..h {
        for x in 0..w {
            let (u, v) = (x as f32 + 0.5, y as f32 + 0.5);
            let ray = camera.primary_ray(u, v);
            let r = scene.march(&ray, params);
            *color.get_mut(x, y) = r.color;
            *depth.get_mut(x, y) = if r.depth_t.is_finite() {
                r.depth_t * camera.z_scale(u, v)
            } else {
                f32::INFINITY
            };
        }
    }
    Frame { color, depth }
}

/// Creates an all-background frame (used as the canvas for warping).
pub fn background_frame<S: RadianceSource + ?Sized>(src: &S, w: usize, h: usize) -> Frame {
    Frame {
        color: Image::new(w, h, src.background()),
        depth: DepthMap::empty(w, h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Material, SceneBuilder, Shape};
    use cicero_math::{Intrinsics, Pose, Vec3};

    fn sphere_scene() -> crate::AnalyticScene {
        SceneBuilder::new("t")
            .object(
                Shape::Sphere { radius: 0.8 },
                Vec3::ZERO,
                Material::solid(Vec3::ONE),
            )
            .build()
    }

    fn camera(w: usize, h: usize) -> Camera {
        Camera::new(
            Intrinsics::from_fov(w, h, 0.9),
            Pose::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y),
        )
    }

    #[test]
    fn center_pixel_sees_sphere_border_sees_background() {
        let scene = sphere_scene();
        let cam = camera(33, 33);
        let f = render_frame(&scene, &cam, &MarchParams::default());
        assert!(
            f.depth.get(16, 16).is_finite(),
            "center should hit the sphere"
        );
        assert!(
            f.depth.get(0, 0).is_infinite(),
            "corner should be background"
        );
        // The lit sphere is brighter than the dark background.
        assert!(f.color.get(16, 16).length() > f.color.get(0, 0).length());
    }

    #[test]
    fn depth_is_z_not_ray_length() {
        let scene = sphere_scene();
        let cam = camera(33, 33);
        let f = render_frame(&scene, &cam, &MarchParams::default());
        // Center ray: sphere front at z = -0.8 → depth ≈ 3 - 0.8 (soft shell shifts slightly in).
        let d = *f.depth.get(16, 16);
        assert!((d - 2.2).abs() < 0.1, "depth {d}");
        // Off-center pixels see the sphere slightly farther in z? No: z-depth of a
        // sphere's visible surface is minimized at the silhouette tangent point;
        // just check it stays within the sphere's z-extent.
        for y in 0..33 {
            for x in 0..33 {
                let d = *f.depth.get(x, y);
                if d.is_finite() {
                    assert!(d > 2.0 && d < 3.2, "depth {d} out of range at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn coverage_grows_with_fov_narrowing() {
        let scene = sphere_scene();
        let wide = render_frame(&scene, &camera(21, 21), &MarchParams::default());
        let narrow_cam = Camera::new(
            Intrinsics::from_fov(21, 21, 0.4),
            Pose::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y),
        );
        let narrow = render_frame(&scene, &narrow_cam, &MarchParams::default());
        assert!(narrow.depth.coverage() > wide.depth.coverage());
    }
}
