//! Small fixed-size `f32` vectors.
//!
//! These are deliberately plain value types with public fields (they are
//! "compound, passive data structures" in the C spirit) and implement the
//! arithmetic operators one expects from a graphics/robotics vector type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 2-D `f32` vector, used for image-plane coordinates.
///
/// # Examples
///
/// ```
/// use slam_math::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f32,
    /// Vertical component.
    pub y: f32,
}

/// A 3-D `f32` vector, used for points, directions and normals.
///
/// # Examples
///
/// ```
/// use slam_math::Vec3;
/// let a = Vec3::new(1.0, 0.0, 0.0);
/// let b = Vec3::new(0.0, 1.0, 0.0);
/// assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-D `f32` vector, used for homogeneous coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W (homogeneous) component.
    pub w: f32,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Vec2 {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f32 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.dot(self)
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// All components one.
    pub const ONE: Vec3 = Vec3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };
    /// Unit vector along +x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Vec3 {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.dot(self)
    }

    /// Returns the unit vector in the direction of `self`, or `None` when
    /// the length is below [`crate::EPS`].
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < crate::EPS {
            None
        } else {
            Some(self / n)
        }
    }

    /// Like [`Vec3::normalized`] but returns the zero vector for degenerate
    /// inputs instead of `None`. Useful in shading/normal-map code where a
    /// hole simply propagates.
    #[inline]
    pub fn normalized_or_zero(self) -> Vec3 {
        self.normalized().unwrap_or(Vec3::ZERO)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Smallest component.
    #[inline]
    pub fn min_component(self) -> f32 {
        self.x.min(self.y).min(self.z)
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f32) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f32 {
        (self - rhs).norm()
    }

    /// True when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Extends to homogeneous coordinates with the given `w`.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4 {
            x: self.x,
            y: self.y,
            z: self.z,
            w,
        }
    }

    /// The components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
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

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Vec4 {
        Vec4 { x, y, z, w }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec4) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z + self.w * rhs.w
    }

    /// Drops the homogeneous component without dividing.
    #[inline]
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Performs the homogeneous divide, returning `None` when `w` is
    /// (almost) zero.
    #[inline]
    pub fn project(self) -> Option<Vec3> {
        if self.w.abs() < crate::EPS {
            None
        } else {
            Some(Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w))
        }
    }
}

macro_rules! impl_vec_ops {
    ($ty:ident, $($f:ident),+) => {
        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, rhs: $ty) -> $ty { $ty { $($f: self.$f + rhs.$f),+ } }
        }
        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, rhs: $ty) -> $ty { $ty { $($f: self.$f - rhs.$f),+ } }
        }
        impl Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty { $ty { $($f: -self.$f),+ } }
        }
        impl Mul<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: f32) -> $ty { $ty { $($f: self.$f * rhs),+ } }
        }
        impl Mul<$ty> for f32 {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: $ty) -> $ty { rhs * self }
        }
        impl Div<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, rhs: f32) -> $ty { $ty { $($f: self.$f / rhs),+ } }
        }
        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: $ty) { *self = *self + rhs; }
        }
        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: $ty) { *self = *self - rhs; }
        }
        impl MulAssign<f32> for $ty {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) { *self = *self * rhs; }
        }
        impl DivAssign<f32> for $ty {
            #[inline]
            fn div_assign(&mut self, rhs: f32) { *self = *self / rhs; }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);
impl_vec_ops!(Vec4, x, y, z, w);

impl Index<usize> for Vec3 {
    type Output = f32;

    /// # Panics
    ///
    /// Panics when `i > 2`.
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            // xtask-allow: panic-path — reason: std `Index` contract: out-of-bounds access must panic (documented above)
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    /// # Panics
    ///
    /// Panics when `i > 2`.
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            // xtask-allow: panic-path — reason: std `IndexMut` contract: out-of-bounds access must panic (documented above)
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl From<[f32; 3]> for Vec3 {
    fn from(a: [f32; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    fn from(v: Vec3) -> [f32; 3] {
        v.to_array()
    }
}

impl From<(f32, f32)> for Vec2 {
    fn from((x, y): (f32, f32)) -> Vec2 {
        Vec2::new(x, y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

impl fmt::Display for Vec4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.4}, {:.4}, {:.4}, {:.4})",
            self.x, self.y, self.z, self.w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn cross_is_antisymmetric() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        assert_eq!(a.cross(b), -(b.cross(a)));
    }

    #[test]
    fn normalized_rejects_tiny_vectors() {
        assert!(Vec3::new(1e-9, 0.0, 0.0).normalized().is_none());
        let v = Vec3::new(0.0, 3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::ZERO;
        let b = Vec3::ONE;
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::splat(0.5));
    }

    #[test]
    fn homogeneous_roundtrip() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        let h = v.extend(2.0);
        assert_eq!(h.project().unwrap(), v / 2.0);
        assert_eq!(h.truncate(), v);
        assert!(v.extend(0.0).project().is_none());
    }

    #[test]
    fn indexing_matches_fields() {
        let mut v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[2], 9.0);
        v[1] = -1.0;
        assert_eq!(v.y, -1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn min_max_components() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 6.0));
        assert_eq!(a.max_component(), 5.0);
        assert_eq!(a.min_component(), 1.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
        assert!(!format!("{}", Vec2::ZERO).is_empty());
        assert!(!format!("{}", Vec4::ZERO).is_empty());
    }

    #[test]
    fn array_conversions_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let a: [f32; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }
}
