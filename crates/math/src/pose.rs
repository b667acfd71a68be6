//! Rigid camera poses (SE(3)) and the pose extrapolation used by SPARW.

use crate::{Mat3, Mat4, Quat, Vec3};

/// A rigid camera-to-world transform.
///
/// `position` is the camera center expressed in world coordinates and
/// `rotation` maps camera-space directions to world space. The camera space
/// follows the computer-vision convention used by the paper's Eq. 1 and Eq. 3:
/// **+Z looks forward, +X right, +Y down**, so the depth of a visible point is
/// simply its camera-space `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Camera center in world coordinates.
    pub position: Vec3,
    /// Camera-to-world rotation.
    pub rotation: Quat,
}

impl Default for Pose {
    fn default() -> Self {
        Pose {
            position: Vec3::ZERO,
            rotation: Quat::IDENTITY,
        }
    }
}

impl Pose {
    /// The identity pose (camera at origin looking down world +Z).
    pub const IDENTITY: Pose = Pose {
        position: Vec3::ZERO,
        rotation: Quat::IDENTITY,
    };

    /// Creates a pose from a position and a rotation.
    #[inline]
    pub fn new(position: Vec3, rotation: Quat) -> Self {
        Pose { position, rotation }
    }

    /// Builds a pose with the camera at `eye` looking at `target`.
    ///
    /// `up` is the world-space up hint (usually `Vec3::Y`). Because camera
    /// space is +Y-down, the image "up" maps to `-Y` in camera coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `eye == target` or `up` is parallel to the
    /// viewing direction.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Pose {
        let forward = (target - eye).normalized(); // camera +Z
        let up_orth = up - forward * up.dot(forward);
        debug_assert!(
            up_orth.length() > 1e-6,
            "up is parallel to the view direction"
        );
        let down = -up_orth.normalized(); // camera +Y (image rows grow downward)
        let right = down.cross(forward); // camera +X; x = y × z keeps det = +1
        let rot = Mat3::from_cols(right, down, forward);
        Pose::new(eye, Quat::from_mat3(&rot))
    }

    /// World-space forward direction (camera +Z).
    #[inline]
    pub fn forward(&self) -> Vec3 {
        self.rotation.rotate(Vec3::Z)
    }

    /// Transforms a point from camera space to world space.
    #[inline]
    pub fn to_world(&self, p_cam: Vec3) -> Vec3 {
        self.rotation.rotate(p_cam) + self.position
    }

    /// Transforms a point from world space to camera space.
    #[inline]
    pub fn to_camera(&self, p_world: Vec3) -> Vec3 {
        self.rotation.conjugate().rotate(p_world - self.position)
    }

    /// Rotates a camera-space direction into world space.
    #[inline]
    pub fn dir_to_world(&self, d_cam: Vec3) -> Vec3 {
        self.rotation.rotate(d_cam)
    }

    /// The homogeneous camera-to-world matrix.
    pub fn to_mat4(&self) -> Mat4 {
        Mat4::from_rotation_translation(self.rotation.to_mat3(), self.position)
    }

    /// Extrapolates a future pose from two past poses (paper Eq. 5–6).
    ///
    /// With `prev` rendered at time step `k-1` and `cur` at step `k`, returns
    /// the pose predicted `steps_ahead` frame intervals after `cur`, assuming
    /// constant linear and angular velocity. SPARW uses
    /// `steps_ahead = N / 2` so the reference frame sits roughly at the center
    /// of its warping window of `N` target frames.
    pub fn extrapolate(prev: &Pose, cur: &Pose, steps_ahead: f32) -> Pose {
        let velocity = cur.position - prev.position; // Eq. 5 with Δt = 1 frame
        Pose {
            position: cur.position + velocity * steps_ahead, // Eq. 6
            rotation: prev.rotation.slerp(cur.rotation, 1.0 + steps_ahead),
        }
    }

    /// Translation distance plus a rotation-angle proxy to another pose.
    ///
    /// Used by tests and heuristics to assert "nearby camera poses".
    pub fn distance_to(&self, other: &Pose) -> f32 {
        (self.position - other.position).length() + self.rotation.angle_to(other.rotation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn look_at_points_forward() {
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y);
        let fwd = pose.forward();
        assert!((fwd - Vec3::Z).length() < 1e-5, "forward was {fwd}");
    }

    #[test]
    fn look_at_basis_is_right_handed_and_upright() {
        // A person standing at -Z facing +Z with their head along +Y has
        // their right hand pointing toward -X; image rows grow toward -Y.
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y);
        let right = pose.rotation.rotate(Vec3::X);
        let down = pose.rotation.rotate(Vec3::Y);
        assert!((right + Vec3::X).length() < 1e-5, "right was {right}");
        assert!((down + Vec3::Y).length() < 1e-5, "down was {down}");
        // Right-handedness: x × y = z.
        let fwd = pose.rotation.rotate(Vec3::Z);
        assert!((right.cross(down) - fwd).length() < 1e-5);
    }

    #[test]
    fn world_camera_roundtrip() {
        let pose = Pose::look_at(Vec3::new(3.0, 2.0, -4.0), Vec3::new(0.5, 0.0, 0.0), Vec3::Y);
        let p = Vec3::new(0.1, -0.7, 1.3);
        let roundtrip = pose.to_world(pose.to_camera(p));
        assert!((roundtrip - p).length() < 1e-4);
    }

    #[test]
    fn visible_point_has_positive_depth() {
        let pose = Pose::look_at(Vec3::new(0.0, 1.0, -6.0), Vec3::ZERO, Vec3::Y);
        let cam = pose.to_camera(Vec3::ZERO);
        assert!(
            cam.z > 0.0,
            "target should be in front of the camera, got {cam}"
        );
    }

    #[test]
    fn transform_to_matches_manual_composition() {
        let a = Pose::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y);
        let b = Pose::look_at(Vec3::new(1.0, 0.5, -5.0), Vec3::ZERO, Vec3::Y);
        // The paper's `T_ref→tgt` of Eq. 2, from the homogeneous matrices.
        let t = b.to_mat4().rigid_inverse() * a.to_mat4();
        let p_world = Vec3::new(0.2, -0.3, 0.4);
        let via_t = t.transform_point(a.to_camera(p_world));
        let direct = b.to_camera(p_world);
        assert!((via_t - direct).length() < 1e-4);
    }

    #[test]
    fn extrapolate_continues_linear_motion() {
        let p0 = Pose::new(Vec3::ZERO, Quat::IDENTITY);
        let p1 = Pose::new(Vec3::new(0.1, 0.0, 0.0), Quat::IDENTITY);
        let future = Pose::extrapolate(&p0, &p1, 8.0);
        assert!((future.position - Vec3::new(0.9, 0.0, 0.0)).length() < 1e-5);
    }

    #[test]
    fn extrapolate_continues_rotation() {
        let p0 = Pose::new(Vec3::ZERO, Quat::IDENTITY);
        let p1 = Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::Y, 0.05));
        let future = Pose::extrapolate(&p0, &p1, 3.0);
        let expected = Quat::from_axis_angle(Vec3::Y, 0.2);
        assert!(future.rotation.angle_to(expected) < 1e-4);
    }
}
