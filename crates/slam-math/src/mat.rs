//! Row-major 3×3 and 4×4 matrices.

use crate::vec::{Vec3, Vec4};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major 3×3 `f32` matrix, primarily used for rotations.
///
/// # Examples
///
/// ```
/// use slam_math::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f32::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Row-major entries: `m[row][col]`.
    pub m: [[f32; 3]; 3],
}

/// A row-major 4×4 `f32` matrix for homogeneous transforms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat4 {
    /// Row-major entries: `m[row][col]`.
    pub m: [[f32; 4]; 4],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn from_rows(m: [[f32; 3]; 3]) -> Mat3 {
        Mat3 { m }
    }

    /// Creates a matrix whose columns are the given vectors.
    #[inline]
    pub fn from_col_vecs(c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3 {
        Mat3 {
            m: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    /// A diagonal matrix with the given diagonal.
    #[inline]
    pub fn from_diagonal(d: Vec3) -> Mat3 {
        let mut m = Mat3::ZERO;
        m.m[0][0] = d.x;
        m.m[1][1] = d.y;
        m.m[2][2] = d.z;
        m
    }

    /// Rotation about the x axis by `angle` radians.
    pub fn rotation_x(angle: f32) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    }

    /// Rotation about the y axis by `angle` radians.
    pub fn rotation_y(angle: f32) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    }

    /// Rotation about the z axis by `angle` radians.
    pub fn rotation_z(angle: f32) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Rotation of `angle` radians about an arbitrary (not necessarily unit)
    /// `axis`, via Rodrigues' formula. A degenerate axis yields the identity.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Mat3 {
        let axis = match axis.normalized() {
            Some(a) => a,
            None => return Mat3::IDENTITY,
        };
        let (s, c) = angle.sin_cos();
        let k = Mat3::skew(axis);
        Mat3::IDENTITY + k * s + (k * k) * (1.0 - c)
    }

    /// The skew-symmetric (cross-product) matrix of `v`: `skew(v) * w == v.cross(w)`.
    #[inline]
    pub fn skew(v: Vec3) -> Mat3 {
        Mat3::from_rows([[0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0]])
    }

    /// Outer product `a * bᵀ`.
    #[inline]
    pub fn outer(a: Vec3, b: Vec3) -> Mat3 {
        Mat3::from_rows([
            [a.x * b.x, a.x * b.y, a.x * b.z],
            [a.y * b.x, a.y * b.y, a.y * b.z],
            [a.z * b.x, a.z * b.y, a.z * b.z],
        ])
    }

    /// The transpose.
    #[inline]
    pub fn transpose(&self) -> Mat3 {
        let m = &self.m;
        Mat3::from_rows([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    /// Row `i` as a vector.
    ///
    /// # Panics
    ///
    /// Panics when `i > 2`.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::from(self.m[i])
    }

    /// Column `j` as a vector.
    ///
    /// # Panics
    ///
    /// Panics when `j > 2`.
    #[inline]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    /// Determinant.
    pub fn determinant(&self) -> f32 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Trace (sum of the diagonal).
    #[inline]
    pub fn trace(&self) -> f32 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Matrix inverse, or `None` when the determinant is (almost) zero.
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < crate::EPS {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / det;
        let cof = |r0: usize, c0: usize, r1: usize, c1: usize| {
            m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
        };
        Some(Mat3::from_rows([
            [
                cof(1, 1, 2, 2) * inv_det,
                -cof(0, 1, 2, 2) * inv_det,
                cof(0, 1, 1, 2) * inv_det,
            ],
            [
                -cof(1, 0, 2, 2) * inv_det,
                cof(0, 0, 2, 2) * inv_det,
                -cof(0, 0, 1, 2) * inv_det,
            ],
            [
                cof(1, 0, 2, 1) * inv_det,
                -cof(0, 0, 2, 1) * inv_det,
                cof(0, 0, 1, 1) * inv_det,
            ],
        ]))
    }

    /// Re-orthonormalises a nearly-orthonormal rotation matrix using one
    /// round of Gram–Schmidt. Keeps accumulated ICP pose updates on SO(3).
    pub fn orthonormalized(&self) -> Mat3 {
        let c0 = self.col(0).normalized_or_zero();
        let mut c1 = self.col(1) - c0 * self.col(1).dot(c0);
        c1 = c1.normalized_or_zero();
        let c2 = c0.cross(c1);
        Mat3::from_col_vecs(c0, c1, c2)
    }

    /// Frobenius norm of the difference to another matrix.
    pub fn distance(&self, other: &Mat3) -> f32 {
        let mut s = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let d = self.m[r][c] - other.m[r][c];
                s += d * d;
            }
        }
        s.sqrt()
    }
}

impl Default for Mat3 {
    fn default() -> Mat3 {
        Mat3::IDENTITY
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += self.m[r][k] * rhs.m[k][c];
                }
                out.m[r][c] = s;
            }
        }
        out
    }
}

impl Mul<f32> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f32) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] *= s;
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] += rhs.m[r][c];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] -= rhs.m[r][c];
            }
        }
        out
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..3 {
            writeln!(
                f,
                "[{:8.4} {:8.4} {:8.4}]",
                self.m[r][0], self.m[r][1], self.m[r][2]
            )?;
        }
        Ok(())
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        m: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    };

    /// The zero matrix.
    pub const ZERO: Mat4 = Mat4 { m: [[0.0; 4]; 4] };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn from_rows(m: [[f32; 4]; 4]) -> Mat4 {
        Mat4 { m }
    }

    /// Builds a rigid transform matrix from a rotation and translation.
    pub fn from_rotation_translation(r: Mat3, t: Vec3) -> Mat4 {
        Mat4::from_rows([
            [r.m[0][0], r.m[0][1], r.m[0][2], t.x],
            [r.m[1][0], r.m[1][1], r.m[1][2], t.y],
            [r.m[2][0], r.m[2][1], r.m[2][2], t.z],
            [0.0, 0.0, 0.0, 1.0],
        ])
    }

    /// The upper-left 3×3 block.
    pub fn rotation(&self) -> Mat3 {
        Mat3::from_rows([
            [self.m[0][0], self.m[0][1], self.m[0][2]],
            [self.m[1][0], self.m[1][1], self.m[1][2]],
            [self.m[2][0], self.m[2][1], self.m[2][2]],
        ])
    }

    /// The translation column.
    pub fn translation(&self) -> Vec3 {
        Vec3::new(self.m[0][3], self.m[1][3], self.m[2][3])
    }

    /// Transforms a point (applies rotation and translation).
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let v = *self * p.extend(1.0);
        v.truncate()
    }

    /// Transforms a direction (rotation only).
    pub fn transform_vector(&self, d: Vec3) -> Vec3 {
        let v = *self * d.extend(0.0);
        v.truncate()
    }
}

impl Default for Mat4 {
    fn default() -> Mat4 {
        Mat4::IDENTITY
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    fn mul(self, v: Vec4) -> Vec4 {
        let row = |r: usize| Vec4::new(self.m[r][0], self.m[r][1], self.m[r][2], self.m[r][3]);
        Vec4::new(row(0).dot(v), row(1).dot(v), row(2).dot(v), row(3).dot(v))
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::ZERO;
        for r in 0..4 {
            for c in 0..4 {
                let mut s = 0.0;
                for k in 0..4 {
                    s += self.m[r][k] * rhs.m[k][c];
                }
                out.m[r][c] = s;
            }
        }
        out
    }
}

impl fmt::Display for Mat4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..4 {
            writeln!(
                f,
                "[{:8.4} {:8.4} {:8.4} {:8.4}]",
                self.m[r][0], self.m[r][1], self.m[r][2], self.m[r][3]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    fn assert_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn identity_is_neutral() {
        let m = Mat3::rotation_x(0.3) * Mat3::rotation_y(-0.7);
        assert!((m * Mat3::IDENTITY).distance(&m) < 1e-6);
        assert!((Mat3::IDENTITY * m).distance(&m) < 1e-6);
    }

    #[test]
    fn axis_rotations() {
        assert_close(Mat3::rotation_z(FRAC_PI_2) * Vec3::X, Vec3::Y);
        assert_close(Mat3::rotation_x(FRAC_PI_2) * Vec3::Y, Vec3::Z);
        assert_close(Mat3::rotation_y(FRAC_PI_2) * Vec3::Z, Vec3::X);
    }

    #[test]
    fn axis_angle_matches_elementary_rotations() {
        for angle in [0.1f32, 0.9, -1.4, PI - 0.01] {
            let a = Mat3::from_axis_angle(Vec3::Z, angle);
            let b = Mat3::rotation_z(angle);
            assert!(a.distance(&b) < 1e-5);
        }
    }

    #[test]
    fn degenerate_axis_yields_identity() {
        let m = Mat3::from_axis_angle(Vec3::ZERO, 1.0);
        assert!(m.distance(&Mat3::IDENTITY) < 1e-6);
    }

    #[test]
    fn skew_reproduces_cross_product() {
        let v = Vec3::new(0.3, -1.0, 2.0);
        let w = Vec3::new(-0.5, 0.2, 0.9);
        assert_close(Mat3::skew(v) * w, v.cross(w));
    }

    #[test]
    fn inverse_of_rotation_is_transpose() {
        let r = Mat3::from_axis_angle(Vec3::new(1.0, 2.0, -0.5), 0.8);
        let inv = r.inverse().unwrap();
        assert!(inv.distance(&r.transpose()) < 1e-5);
    }

    #[test]
    fn inverse_roundtrip_general_matrix() {
        let m = Mat3::from_rows([[2.0, 1.0, 0.0], [0.5, 3.0, -1.0], [0.0, 0.25, 1.5]]);
        let inv = m.inverse().unwrap();
        assert!((m * inv).distance(&Mat3::IDENTITY) < 1e-5);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn determinant_of_rotation_is_one() {
        let r = Mat3::from_axis_angle(Vec3::new(0.2, 0.5, 0.8), 1.1);
        assert!((r.determinant() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn orthonormalize_restores_rotation() {
        let mut r = Mat3::rotation_y(0.4);
        // perturb
        r.m[0][0] += 0.01;
        r.m[1][2] -= 0.02;
        let q = r.orthonormalized();
        assert!((q.determinant() - 1.0).abs() < 1e-4);
        assert!((q * q.transpose()).distance(&Mat3::IDENTITY) < 1e-4);
    }

    #[test]
    fn mat4_rigid_transform() {
        let r = Mat3::rotation_z(FRAC_PI_2);
        let t = Vec3::new(1.0, 2.0, 3.0);
        let m = Mat4::from_rotation_translation(r, t);
        assert_close(m.transform_point(Vec3::X), Vec3::new(1.0, 3.0, 3.0));
        assert_close(m.transform_vector(Vec3::X), Vec3::Y);
        assert_eq!(m.translation(), t);
        assert!(m.rotation().distance(&r) < 1e-6);
    }

    #[test]
    fn mat4_multiplication_composes() {
        let a = Mat4::from_rotation_translation(Mat3::rotation_x(0.2), Vec3::X);
        let b = Mat4::from_rotation_translation(Mat3::rotation_y(-0.3), Vec3::Y);
        let p = Vec3::new(0.1, 0.2, 0.3);
        assert_close(
            (a * b).transform_point(p),
            a.transform_point(b.transform_point(p)),
        );
    }

    #[test]
    fn outer_product() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        let m = Mat3::outer(a, b);
        assert_eq!(m.m[1][2], 12.0);
        assert_eq!(m.m[2][0], 12.0);
    }
}
