//! Rigid-body transforms: the special Euclidean group SE(3).

use crate::mat::{Mat3, Mat4};
use crate::quat::Quat;
use crate::vec::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Mul;

/// A rigid-body transform (rotation + translation).
///
/// The convention throughout the workspace is *camera-to-world*: a frame's
/// pose maps points in the camera frame into the world frame.
///
/// # Examples
///
/// ```
/// use slam_math::{Se3, Vec3};
///
/// let a = Se3::from_translation(Vec3::X);
/// let b = Se3::from_translation(Vec3::Y);
/// let c = a * b;
/// assert!((c.translation() - Vec3::new(1.0, 1.0, 0.0)).norm() < 1e-6);
/// assert!((c * c.inverse()).is_identity(1e-6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Se3 {
    rotation: Mat3,
    translation: Vec3,
}

/// A minimal 6-vector twist `(v, ω)` — translational then rotational part —
/// used by the ICP solver and the `exp`/`log` maps.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Twist {
    /// Translational velocity component.
    pub v: Vec3,
    /// Rotational velocity component (axis-angle vector).
    pub w: Vec3,
}

impl Twist {
    /// Creates a twist from its two 3-vectors.
    pub const fn new(v: Vec3, w: Vec3) -> Twist {
        Twist { v, w }
    }

    /// Creates a twist from a 6-element array `[v, ω]`.
    pub fn from_array(a: [f32; 6]) -> Twist {
        Twist {
            v: Vec3::new(a[0], a[1], a[2]),
            w: Vec3::new(a[3], a[4], a[5]),
        }
    }

    /// The twist as a 6-element array `[v, ω]`.
    pub fn to_array(self) -> [f32; 6] {
        [self.v.x, self.v.y, self.v.z, self.w.x, self.w.y, self.w.z]
    }

    /// Euclidean norm of the 6-vector.
    pub fn norm(self) -> f32 {
        (self.v.norm_squared() + self.w.norm_squared()).sqrt()
    }
}

impl Se3 {
    /// The identity transform.
    pub const IDENTITY: Se3 = Se3 {
        rotation: Mat3::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Creates a transform from a rotation matrix and translation vector.
    ///
    /// The rotation is *not* checked for orthonormality; use
    /// [`Se3::orthonormalized`] after long accumulation chains.
    pub fn new(rotation: Mat3, translation: Vec3) -> Se3 {
        Se3 {
            rotation,
            translation,
        }
    }

    /// A pure translation.
    pub fn from_translation(t: Vec3) -> Se3 {
        Se3 {
            rotation: Mat3::IDENTITY,
            translation: t,
        }
    }

    /// A rotation of `angle` radians about `axis` followed by translation `t`.
    pub fn from_axis_angle(axis: Vec3, angle: f32, t: Vec3) -> Se3 {
        Se3 {
            rotation: Mat3::from_axis_angle(axis, angle),
            translation: t,
        }
    }

    /// Builds a pose from a unit quaternion and translation.
    pub fn from_quat_translation(q: Quat, t: Vec3) -> Se3 {
        Se3 {
            rotation: q.to_mat3(),
            translation: t,
        }
    }

    /// A "look-at" camera pose: camera at `eye`, optical axis (+z) pointing
    /// at `target`, `up` fixing the roll. Returns a camera-to-world pose.
    ///
    /// Falls back to the identity rotation if `eye` and `target` coincide.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Se3 {
        let forward = match (target - eye).normalized() {
            Some(f) => f,
            None => return Se3::from_translation(eye),
        };
        let right = match forward.cross(up).normalized() {
            Some(r) => r,
            // forward parallel to up: pick any perpendicular
            None => forward.cross(Vec3::X).normalized().unwrap_or(Vec3::Y),
        };
        let down = forward.cross(right); // +y in camera convention points "down"
                                         // columns are the camera basis vectors expressed in world coordinates
        Se3 {
            rotation: Mat3::from_col_vecs(right, down, forward),
            translation: eye,
        }
    }

    /// The rotation part.
    #[inline]
    pub fn rotation(&self) -> Mat3 {
        self.rotation
    }

    /// The translation part.
    #[inline]
    pub fn translation(&self) -> Vec3 {
        self.translation
    }

    /// The rotation as a unit quaternion.
    pub fn rotation_quat(&self) -> Quat {
        Quat::from_mat3(&self.rotation)
    }

    /// Transforms a point (rotation then translation).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// Transforms a direction (rotation only).
    #[inline]
    pub fn transform_vector(&self, d: Vec3) -> Vec3 {
        self.rotation * d
    }

    /// The inverse transform.
    pub fn inverse(&self) -> Se3 {
        let rt = self.rotation.transpose();
        Se3 {
            rotation: rt,
            translation: -(rt * self.translation),
        }
    }

    /// Converts to a homogeneous 4×4 matrix.
    pub fn to_mat4(&self) -> Mat4 {
        Mat4::from_rotation_translation(self.rotation, self.translation)
    }

    /// Extracts the rigid transform from the upper 3×4 block of `m`.
    pub fn from_mat4(m: &Mat4) -> Se3 {
        Se3 {
            rotation: m.rotation(),
            translation: m.translation(),
        }
    }

    /// The exponential map from a twist to a rigid transform (Rodrigues +
    /// the SE(3) `V` matrix for the translation part).
    pub fn exp(xi: Twist) -> Se3 {
        let theta = xi.w.norm();
        if theta < crate::EPS {
            // first-order approximation
            return Se3 {
                rotation: Mat3::IDENTITY + Mat3::skew(xi.w),
                translation: xi.v,
            }
            .orthonormalized();
        }
        let k = Mat3::skew(xi.w * (1.0 / theta));
        let (s, c) = theta.sin_cos();
        let r = Mat3::IDENTITY + k * s + (k * k) * (1.0 - c);
        let v_mat = Mat3::IDENTITY + k * ((1.0 - c) / theta) + (k * k) * ((theta - s) / theta);
        Se3 {
            rotation: r,
            translation: v_mat * xi.v,
        }
    }

    /// The logarithm map from a rigid transform back to a twist.
    ///
    /// Inverse of [`Se3::exp`] for rotation angles in `(-π, π)`.
    pub fn log(&self) -> Twist {
        let cos_theta = crate::clamp((self.rotation.trace() - 1.0) * 0.5, -1.0, 1.0);
        let theta = cos_theta.acos();
        if theta < crate::EPS {
            let w = Vec3::new(
                (self.rotation.m[2][1] - self.rotation.m[1][2]) * 0.5,
                (self.rotation.m[0][2] - self.rotation.m[2][0]) * 0.5,
                (self.rotation.m[1][0] - self.rotation.m[0][1]) * 0.5,
            );
            return Twist {
                v: self.translation,
                w,
            };
        }
        let factor = theta / (2.0 * theta.sin());
        let w = Vec3::new(
            (self.rotation.m[2][1] - self.rotation.m[1][2]) * factor,
            (self.rotation.m[0][2] - self.rotation.m[2][0]) * factor,
            (self.rotation.m[1][0] - self.rotation.m[0][1]) * factor,
        );
        let k = Mat3::skew(w * (1.0 / theta));
        let (s, c) = theta.sin_cos();
        let v_mat = Mat3::IDENTITY + k * ((1.0 - c) / theta) + (k * k) * ((theta - s) / theta);
        let v = v_mat
            .inverse()
            .map(|inv| inv * self.translation)
            .unwrap_or(self.translation);
        Twist { v, w }
    }

    /// Re-orthonormalises the rotation part; see [`Mat3::orthonormalized`].
    pub fn orthonormalized(&self) -> Se3 {
        Se3 {
            rotation: self.rotation.orthonormalized(),
            translation: self.translation,
        }
    }

    /// True when the transform is within `tol` of the identity (rotation in
    /// Frobenius norm, translation in Euclidean norm).
    pub fn is_identity(&self, tol: f32) -> bool {
        self.rotation.distance(&Mat3::IDENTITY) < tol && self.translation.norm() < tol
    }

    /// True when every rotation and translation component is finite.
    ///
    /// ```
    /// use slam_math::{Se3, Vec3};
    /// assert!(Se3::from_translation(Vec3::X).is_finite());
    /// assert!(!Se3::from_translation(Vec3::new(f32::NAN, 1.0, 0.0)).is_finite());
    /// ```
    pub fn is_finite(&self) -> bool {
        self.translation.is_finite() && self.rotation.m.iter().flatten().all(|v| v.is_finite())
    }

    /// Translational distance between two poses.
    pub fn translation_distance(&self, other: &Se3) -> f32 {
        (self.translation - other.translation).norm()
    }

    /// Rotational distance between two poses, in radians.
    pub fn rotation_angle_to(&self, other: &Se3) -> f32 {
        let rel = self.rotation.transpose() * other.rotation;
        let cos_theta = crate::clamp((rel.trace() - 1.0) * 0.5, -1.0, 1.0);
        cos_theta.acos()
    }

    /// Interpolates between two poses: slerp on the rotation, lerp on the
    /// translation. `t = 0` yields `self`, `t = 1` yields `other`.
    pub fn interpolate(&self, other: &Se3, t: f32) -> Se3 {
        let q = self.rotation_quat().slerp(other.rotation_quat(), t);
        Se3 {
            rotation: q.to_mat3(),
            translation: self.translation.lerp(other.translation, t),
        }
    }
}

impl Default for Se3 {
    fn default() -> Se3 {
        Se3::IDENTITY
    }
}

impl Mul for Se3 {
    type Output = Se3;
    /// Composition: `(a * b)` applies `b` first, then `a`.
    fn mul(self, rhs: Se3) -> Se3 {
        Se3 {
            rotation: self.rotation * rhs.rotation,
            translation: self.rotation * rhs.translation + self.translation,
        }
    }
}

impl fmt::Display for Se3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Se3 {{ t: {}, q: {} }}",
            self.translation,
            self.rotation_quat()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::FRAC_PI_2;

    fn assert_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-4, "{a} != {b}");
    }

    #[test]
    fn compose_then_invert_is_identity() {
        let a = Se3::from_axis_angle(Vec3::new(1.0, 0.5, -0.3), 0.7, Vec3::new(1.0, 2.0, 3.0));
        assert!((a * a.inverse()).is_identity(1e-5));
        assert!((a.inverse() * a).is_identity(1e-5));
    }

    #[test]
    fn composition_order() {
        let a = Se3::from_translation(Vec3::X);
        let b = Se3::from_axis_angle(Vec3::Z, FRAC_PI_2, Vec3::ZERO);
        // a * b: rotate first, then translate
        let p = (a * b).transform_point(Vec3::X);
        assert_close(p, Vec3::new(1.0, 1.0, 0.0));
        // b * a: translate first, then rotate
        let p = (b * a).transform_point(Vec3::X);
        assert_close(p, Vec3::new(0.0, 2.0, 0.0));
    }

    #[test]
    fn exp_log_roundtrip() {
        let xi = Twist::new(Vec3::new(0.1, -0.2, 0.3), Vec3::new(0.4, 0.2, -0.5));
        let t = Se3::exp(xi);
        let back = t.log();
        assert!((back.v - xi.v).norm() < 1e-4, "v mismatch");
        assert!((back.w - xi.w).norm() < 1e-4, "w mismatch");
    }

    #[test]
    fn exp_of_zero_is_identity() {
        assert!(Se3::exp(Twist::default()).is_identity(1e-6));
    }

    #[test]
    fn exp_small_angle_stable() {
        let xi = Twist::new(Vec3::new(1e-4, 0.0, 0.0), Vec3::new(0.0, 1e-5, 0.0));
        let t = Se3::exp(xi);
        assert!((t.translation() - xi.v).norm() < 1e-5);
        let back = t.log();
        assert!((back.w - xi.w).norm() < 1e-5);
    }

    #[test]
    fn look_at_points_camera_z_at_target() {
        let eye = Vec3::new(0.0, 1.0, -3.0);
        let target = Vec3::new(0.0, 1.0, 2.0);
        let pose = Se3::look_at(eye, target, Vec3::Y);
        // +z in camera coordinates must map to the direction towards target
        let dir = pose.transform_vector(Vec3::Z);
        assert_close(dir, (target - eye).normalized().unwrap());
        assert_close(pose.translation(), eye);
        // rotation is orthonormal
        let r = pose.rotation();
        assert!((r.determinant() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn look_at_degenerate_falls_back() {
        let pose = Se3::look_at(Vec3::X, Vec3::X, Vec3::Y);
        assert_close(pose.translation(), Vec3::X);
    }

    #[test]
    fn twist_array_roundtrip() {
        let xi = Twist::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(xi.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(xi.norm() > 9.5);
    }

    #[test]
    fn interpolate_endpoints() {
        let a = Se3::from_translation(Vec3::X);
        let b = Se3::from_axis_angle(Vec3::Z, 1.0, Vec3::Y);
        assert!(a.interpolate(&b, 0.0).translation_distance(&a) < 1e-6);
        assert!(a.interpolate(&b, 1.0).translation_distance(&b) < 1e-6);
        let mid = a.interpolate(&b, 0.5);
        assert!((mid.rotation_angle_to(&a) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn rotation_angle_between_poses() {
        let a = Se3::IDENTITY;
        let b = Se3::from_axis_angle(Vec3::Y, 0.75, Vec3::ZERO);
        assert!((a.rotation_angle_to(&b) - 0.75).abs() < 1e-5);
    }

    #[test]
    fn mat4_roundtrip() {
        let a = Se3::from_axis_angle(Vec3::new(0.1, 0.9, 0.4), 1.2, Vec3::new(-1.0, 0.5, 2.0));
        let b = Se3::from_mat4(&a.to_mat4());
        assert!(a.translation_distance(&b) < 1e-6);
        assert!(a.rotation_angle_to(&b) < 1e-5);
    }
}
