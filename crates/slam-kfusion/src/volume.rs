//! Backend-agnostic volume abstraction: the [`Volume`] trait both TSDF
//! backends satisfy, the [`VolumeStorage`] dispatch enum the pipeline
//! holds, and the versioned on-disk dump format (v3) that serialises
//! either backend while still loading legacy dense dumps.

use crate::image::DepthImage;
use crate::tsdf::TsdfVolume;
use crate::tsdf_sparse::{SparseTsdfVolume, BRICK_SIDE};
use crate::workload::Workload;
use serde::{Deserialize, Serialize};
use slam_math::camera::PinholeCamera;
use slam_math::{Se3, Vec3};
use slam_trace::Tracer;

/// Magic bytes of the versioned volume dump format.
pub const DUMP_MAGIC_V3: &[u8; 4] = b"TSV3";
/// Magic bytes of the legacy dense-only dump format.
pub const DUMP_MAGIC_LEGACY: &[u8; 4] = b"TSDF";

/// The operations every TSDF volume backend provides: geometry queries
/// for raycasting and meshing plus the fusion kernel itself.
///
/// Both implementations share the per-voxel fusion math (see
/// `tsdf::integrate_span`), so a voxel observed by both backends holds
/// bit-identical values; they differ only in which voxels are stored.
pub trait Volume {
    /// Voxels per side.
    fn resolution(&self) -> usize;

    /// Physical size of the cube side in metres.
    fn size(&self) -> f32;

    /// Side of one voxel in metres.
    fn voxel_size(&self) -> f32;

    /// Memory footprint of the voxel storage in bytes.
    fn memory_bytes(&self) -> usize;

    /// Number of voxels that have received at least one observation.
    fn occupied_voxels(&self) -> usize;

    /// TSDF value of voxel `(x, y, z)`; `1.0` where unobserved.
    fn voxel_tsdf(&self, x: usize, y: usize, z: usize) -> f32;

    /// Integration weight of voxel `(x, y, z)`; `0.0` where unobserved.
    fn voxel_weight(&self, x: usize, y: usize, z: usize) -> f32;

    /// World-space centre of voxel `(x, y, z)`.
    fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        let v = self.voxel_size();
        Vec3::new(
            (x as f32 + 0.5) * v,
            (y as f32 + 0.5) * v,
            (z as f32 + 0.5) * v,
        )
    }

    /// Trilinearly-interpolated TSDF at a world point, or `None` when
    /// the point is outside the volume or entirely unobserved.
    fn sample(&self, p: Vec3) -> Option<f32>;

    /// TSDF gradient at a world point via central differences of
    /// trilinear samples; `None` near the border or unobserved space.
    fn gradient(&self, p: Vec3) -> Option<Vec3>;

    /// Hint for the ray marcher: a safe distance (in multiples of the
    /// unit direction `dir`) the ray can advance from `p` without
    /// crossing any stored surface. `0.0` means "no hint". The dense
    /// backend gives none per ray: a per-ray leap over free blocks was
    /// measured 35 % slower than stepping, since such walks averaged
    /// under two steps. It bounds the free space of a whole tile of
    /// rays at once instead ([`Volume::free_prefix`]), which answers
    /// 83 % of the samples of a QVGA raycast in the living room.
    fn free_space_skip(&self, p: Vec3, dir: Vec3) -> f32 {
        let _ = (p, dir);
        0.0
    }

    /// How many of the ray parameters `ts[0], ts[1], …` (ascending and
    /// non-negative) every ray of `rays` provably samples in a free cell:
    /// for each of the first `K` entries `t`, the `f32` point
    /// `origin + dir * t` of every ray lands in a cell
    /// [`Volume::sample`] answers with `Some(1.0)`. The marcher then
    /// starts each ray at `ts[K]`, exactly where its own per-step march
    /// would be. `0` is always sound and is the default, so the sparse
    /// backend marches every sample.
    fn free_prefix(&self, rays: &RayBundle, ts: &[f32]) -> usize {
        let _ = (rays, ts);
        0
    }

    /// Fuses one depth frame into the volume; see
    /// [`TsdfVolume::integrate`] for the parameter contract.
    /// Bit-identical across thread counts for every backend.
    ///
    /// # Panics
    ///
    /// Panics when the camera resolution does not match the depth image.
    #[allow(clippy::too_many_arguments)]
    fn integrate(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> Workload;
}

/// A bundle of rays that share one origin, for [`Volume::free_prefix`]:
/// component `a` of the exact direction of every ray lies in
/// `dir_lo[a] ..= dir_hi[a]`, and the `f32` direction the marcher
/// steps along is within `dir_err` of that exact direction on every
/// axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayBundle {
    /// The rays' common origin, exactly as the marcher uses it.
    pub origin: Vec3,
    /// Per-axis lower bound of the exact unit directions.
    pub dir_lo: [f64; 3],
    /// Per-axis upper bound of the exact unit directions.
    pub dir_hi: [f64; 3],
    /// Per-axis bound on the `f32` error of the marcher's directions.
    pub dir_err: f64,
}

impl Volume for TsdfVolume {
    fn resolution(&self) -> usize {
        TsdfVolume::resolution(self)
    }

    fn size(&self) -> f32 {
        TsdfVolume::size(self)
    }

    fn voxel_size(&self) -> f32 {
        TsdfVolume::voxel_size(self)
    }

    fn memory_bytes(&self) -> usize {
        TsdfVolume::memory_bytes(self)
    }

    fn occupied_voxels(&self) -> usize {
        TsdfVolume::occupied_voxels(self)
    }

    fn voxel_tsdf(&self, x: usize, y: usize, z: usize) -> f32 {
        TsdfVolume::voxel_tsdf(self, x, y, z)
    }

    fn voxel_weight(&self, x: usize, y: usize, z: usize) -> f32 {
        TsdfVolume::voxel_weight(self, x, y, z)
    }

    fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        TsdfVolume::voxel_center(self, x, y, z)
    }

    fn sample(&self, p: Vec3) -> Option<f32> {
        TsdfVolume::sample(self, p)
    }

    fn gradient(&self, p: Vec3) -> Option<Vec3> {
        TsdfVolume::gradient(self, p)
    }

    fn free_prefix(&self, rays: &RayBundle, ts: &[f32]) -> usize {
        TsdfVolume::free_prefix(self, rays, ts)
    }

    fn integrate(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> Workload {
        TsdfVolume::integrate(self, depth, camera, pose, mu, max_weight, threads, tracer)
    }
}

/// Why a volume dump did not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DumpError {
    /// The bytes lack the dump's structure: magic, header bounds,
    /// lengths, brick side or brick ids.
    Malformed(String),
    /// A voxel holds a value that no fusion can produce.
    Voxel(BadVoxel),
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::Malformed(why) => f.write_str(why),
            DumpError::Voxel(v) => v.fmt(f),
        }
    }
}

impl std::error::Error for DumpError {}

impl From<String> for DumpError {
    fn from(why: String) -> DumpError {
        DumpError::Malformed(why)
    }
}

impl From<&str> for DumpError {
    fn from(why: &str) -> DumpError {
        DumpError::Malformed(why.to_owned())
    }
}

/// A dumped voxel that no fusion can produce, named by its grid
/// coordinates `[x, y, z]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadVoxel {
    /// Grid coordinates of the voxel.
    pub at: [usize; 3],
    /// Its stored tsdf.
    pub tsdf: f32,
    /// Its stored weight.
    pub weight: f32,
    /// Which rule it breaks.
    pub fault: VoxelFault,
}

impl std::fmt::Display for BadVoxel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [x, y, z] = self.at;
        let why = match self.fault {
            VoxelFault::Tsdf => "tsdf must be finite and within [-1, 1]",
            VoxelFault::Weight => "weight must be finite and non-negative",
            VoxelFault::Unobserved => "an unobserved voxel must hold tsdf 1.0",
        };
        write!(
            f,
            "voxel ({x}, {y}, {z}) holds tsdf {} with weight {}: {why}",
            self.tsdf, self.weight
        )
    }
}

/// The rules every fused voxel keeps. Fusion averages observations
/// `min(sdf / mu, 1) >= -1` with weights `>= 1`, and an unobserved
/// voxel reads as `tsdf = 1.0`. A decoded voxel that breaks one would
/// poison the next integrate (`(NaN + 1).min(max_weight)` is
/// `max_weight`) or change value under the readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoxelFault {
    /// The tsdf is non-finite or outside `[-1, 1]`.
    Tsdf,
    /// The weight is negative or non-finite.
    Weight,
    /// The weight is zero but the tsdf is not `1.0`.
    Unobserved,
}

impl VoxelFault {
    /// The first rule `(tsdf, weight)` breaks, if any.
    pub(crate) fn of(tsdf: f32, weight: f32) -> Option<VoxelFault> {
        if !(weight.is_finite() && weight >= 0.0) {
            Some(VoxelFault::Weight)
        } else if !(tsdf.is_finite() && (-1.0..=1.0).contains(&tsdf)) {
            Some(VoxelFault::Tsdf)
        } else if weight == 0.0 && tsdf != 1.0 {
            Some(VoxelFault::Unobserved)
        } else {
            None
        }
    }
}

/// Which TSDF storage backend a pipeline run uses — a design-space knob
/// (`KFusionConfig::volume_backend`).
// serialised by variant name ("Dense"/"Sparse"), like every other enum
// knob in the workspace; Display/FromStr use the lowercase CLI form
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum VolumeBackend {
    /// One flat `resolution³` array pair — simple, but memory scales
    /// cubically whether or not space is observed.
    #[default]
    Dense,
    /// 8³ voxel bricks allocated on first touch inside the truncation
    /// band — memory scales with observed surface, not volume.
    Sparse,
}

impl std::fmt::Display for VolumeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VolumeBackend::Dense => "dense",
            VolumeBackend::Sparse => "sparse",
        })
    }
}

impl std::str::FromStr for VolumeBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(VolumeBackend::Dense),
            "sparse" => Ok(VolumeBackend::Sparse),
            other => Err(format!("unknown volume backend {other:?}")),
        }
    }
}

/// The volume a pipeline actually holds: one of the two backends, with
/// static dispatch per arm in the hot paths and a common serialised
/// form (the v3 dump) for both.
#[derive(Debug, Clone)]
pub enum VolumeStorage {
    /// Dense flat-array backend.
    Dense(TsdfVolume),
    /// Sparse brick-table backend.
    Sparse(SparseTsdfVolume),
}

impl VolumeStorage {
    /// Creates an empty volume of the requested backend: the public
    /// constructor of both [`TsdfVolume`] and [`SparseTsdfVolume`].
    ///
    /// # Panics
    ///
    /// Panics when `resolution == 0` or `size <= 0`.
    pub fn new(backend: VolumeBackend, resolution: usize, size: f32) -> VolumeStorage {
        match backend {
            VolumeBackend::Dense => VolumeStorage::Dense(TsdfVolume::new(resolution, size)),
            VolumeBackend::Sparse => VolumeStorage::Sparse(SparseTsdfVolume::new(resolution, size)),
        }
    }

    /// Which backend this storage is.
    pub fn backend(&self) -> VolumeBackend {
        match self {
            VolumeStorage::Dense(_) => VolumeBackend::Dense,
            VolumeStorage::Sparse(_) => VolumeBackend::Sparse,
        }
    }

    /// The dense volume, when this storage is dense.
    pub fn as_dense(&self) -> Option<&TsdfVolume> {
        match self {
            VolumeStorage::Dense(v) => Some(v),
            VolumeStorage::Sparse(_) => None,
        }
    }

    /// The sparse volume, when this storage is sparse.
    pub fn as_sparse(&self) -> Option<&SparseTsdfVolume> {
        match self {
            VolumeStorage::Dense(_) => None,
            VolumeStorage::Sparse(v) => Some(v),
        }
    }

    /// Serialises the volume into the versioned dump format:
    /// `"TSV3", backend: u32, resolution: u32, size: f32, payload`.
    ///
    /// The dense payload is the `tsdf[]` array (`1.0` where unobserved)
    /// then the `weight[]` array;
    /// the sparse payload is `brick_side: u32, brick_count: u32` then
    /// the allocated bricks sorted by brick id (`id: u32, tsdf[512],
    /// weight[512]`), so the dump is canonical regardless of the
    /// allocation history.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DUMP_MAGIC_V3);
        out.extend_from_slice(
            &match self {
                VolumeStorage::Dense(_) => 0u32,
                VolumeStorage::Sparse(_) => 1u32,
            }
            .to_le_bytes(),
        );
        out.extend_from_slice(&(self.resolution() as u32).to_le_bytes());
        out.extend_from_slice(&self.size().to_le_bytes());
        match self {
            VolumeStorage::Dense(v) => v.payload_to_bytes(&mut out),
            VolumeStorage::Sparse(v) => v.payload_to_bytes(&mut out),
        }
        out
    }

    /// Reconstructs a volume from [`VolumeStorage::to_bytes`] output or
    /// from a legacy dense dump ([`TsdfVolume::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found, or the first voxel
    /// that no fusion can produce.
    // `!(size > 0.0)` is deliberate: it also rejects NaN
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn from_bytes(bytes: &[u8]) -> Result<VolumeStorage, DumpError> {
        if bytes.len() >= 4 && &bytes[..4] == DUMP_MAGIC_LEGACY {
            return TsdfVolume::from_bytes(bytes).map(VolumeStorage::Dense);
        }
        if bytes.len() < 16 || &bytes[..4] != DUMP_MAGIC_V3 {
            return Err("not a TSV3 volume dump".into());
        }
        let word = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let backend = word(4);
        let resolution = word(8) as usize;
        let size = f32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        // same bounds as `KFusionConfig::validate` and the legacy parser
        if !(16..=1024).contains(&resolution) {
            return Err(format!("implausible resolution {resolution}").into());
        }
        if !(size > 0.0) || size > 100.0 {
            return Err(format!("implausible size {size}").into());
        }
        let payload = &bytes[16..];
        match backend {
            0 => TsdfVolume::from_payload(resolution, size, payload).map(VolumeStorage::Dense),
            1 => {
                SparseTsdfVolume::from_payload(resolution, size, payload).map(VolumeStorage::Sparse)
            }
            other => Err(format!("unknown volume backend tag {other}").into()),
        }
    }
}

impl Volume for VolumeStorage {
    fn resolution(&self) -> usize {
        match self {
            VolumeStorage::Dense(v) => v.resolution(),
            VolumeStorage::Sparse(v) => v.resolution(),
        }
    }

    fn size(&self) -> f32 {
        match self {
            VolumeStorage::Dense(v) => v.size(),
            VolumeStorage::Sparse(v) => v.size(),
        }
    }

    fn voxel_size(&self) -> f32 {
        match self {
            VolumeStorage::Dense(v) => v.voxel_size(),
            VolumeStorage::Sparse(v) => v.voxel_size(),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            VolumeStorage::Dense(v) => v.memory_bytes(),
            VolumeStorage::Sparse(v) => v.memory_bytes(),
        }
    }

    fn occupied_voxels(&self) -> usize {
        match self {
            VolumeStorage::Dense(v) => v.occupied_voxels(),
            VolumeStorage::Sparse(v) => v.occupied_voxels(),
        }
    }

    fn voxel_tsdf(&self, x: usize, y: usize, z: usize) -> f32 {
        match self {
            VolumeStorage::Dense(v) => v.voxel_tsdf(x, y, z),
            VolumeStorage::Sparse(v) => v.voxel_tsdf(x, y, z),
        }
    }

    fn voxel_weight(&self, x: usize, y: usize, z: usize) -> f32 {
        match self {
            VolumeStorage::Dense(v) => v.voxel_weight(x, y, z),
            VolumeStorage::Sparse(v) => v.voxel_weight(x, y, z),
        }
    }

    fn sample(&self, p: Vec3) -> Option<f32> {
        match self {
            VolumeStorage::Dense(v) => v.sample(p),
            VolumeStorage::Sparse(v) => v.sample(p),
        }
    }

    fn gradient(&self, p: Vec3) -> Option<Vec3> {
        match self {
            VolumeStorage::Dense(v) => v.gradient(p),
            VolumeStorage::Sparse(v) => v.gradient(p),
        }
    }

    fn free_space_skip(&self, p: Vec3, dir: Vec3) -> f32 {
        match self {
            VolumeStorage::Dense(_) => 0.0,
            VolumeStorage::Sparse(v) => Volume::free_space_skip(v, p, dir),
        }
    }

    fn free_prefix(&self, rays: &RayBundle, ts: &[f32]) -> usize {
        match self {
            VolumeStorage::Dense(v) => v.free_prefix(rays, ts),
            VolumeStorage::Sparse(_) => 0,
        }
    }

    fn integrate(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> Workload {
        match self {
            VolumeStorage::Dense(v) => {
                v.integrate(depth, camera, pose, mu, max_weight, threads, tracer)
            }
            VolumeStorage::Sparse(v) => {
                v.integrate(depth, camera, pose, mu, max_weight, threads, tracer)
            }
        }
    }
}

/// Asserts that the sparse payload header advertises the compiled brick
/// side; used by the parser and pinned by tests.
pub(crate) fn expect_brick_side(side: u32) -> Result<(), String> {
    if side as usize != BRICK_SIDE {
        return Err(format!(
            "unsupported brick side {side} (expected {BRICK_SIDE})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image2D;

    fn integrated(backend: VolumeBackend) -> VolumeStorage {
        let cam = PinholeCamera::tiny();
        let mut vol = VolumeStorage::new(backend, 32, 2.0);
        let mut depth = Image2D::new(cam.width, cam.height, 1.0f32);
        for y in 0..cam.height {
            for x in 0..cam.width {
                depth.set(x, y, 0.9 + (x as f32 * 0.002) + (y as f32 * 0.001));
            }
        }
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        for _ in 0..2 {
            vol.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        }
        vol
    }

    #[test]
    fn a_non_finite_pose_fuses_nothing() {
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.0f32);
        let tilted = slam_math::Mat3::from_diagonal(Vec3::new(1.0, f32::NAN, 1.0));
        let poses = [
            Se3::from_translation(Vec3::new(f32::NAN, 1.0, 0.0)),
            Se3::from_translation(Vec3::new(1.0, f32::NEG_INFINITY, 0.0)),
            Se3::new(tilted, Vec3::new(1.0, 1.0, 0.0)),
        ];
        for backend in [VolumeBackend::Dense, VolumeBackend::Sparse] {
            for pose in &poses {
                let mut vol = VolumeStorage::new(backend, 32, 2.0);
                let work = vol.integrate(&depth, &cam, pose, 0.2, 100.0, 0, Tracer::off());
                assert!(work.is_zero(), "{backend} {pose:?}: {work:?}");
                assert_eq!(vol.occupied_voxels(), 0, "{backend} {pose:?}");
                let fresh = VolumeStorage::new(backend, 32, 2.0).to_bytes();
                assert!(vol.to_bytes() == fresh, "{backend} {pose:?}");
                // `Debug` shows every voxel, summary bit, brick and table
                // entry, so a fused volume must keep its whole state
                let mut fused = integrated(backend);
                let before = format!("{fused:?}");
                fused.integrate(&depth, &cam, pose, 0.2, 100.0, 0, Tracer::off());
                assert!(format!("{fused:?}") == before, "{backend} {pose:?}");
            }
        }
    }

    #[test]
    fn v3_roundtrip_dense() {
        let vol = integrated(VolumeBackend::Dense);
        let bytes = vol.to_bytes();
        assert_eq!(&bytes[..4], DUMP_MAGIC_V3);
        let back = VolumeStorage::from_bytes(&bytes).unwrap();
        assert_eq!(back.backend(), VolumeBackend::Dense);
        assert_eq!(back.to_bytes(), bytes, "roundtrip must be canonical");
        assert_eq!(back.occupied_voxels(), vol.occupied_voxels());
    }

    #[test]
    fn v3_roundtrip_sparse() {
        let vol = integrated(VolumeBackend::Sparse);
        assert!(vol.occupied_voxels() > 0, "test scene fused nothing");
        let bytes = vol.to_bytes();
        let back = VolumeStorage::from_bytes(&bytes).unwrap();
        assert_eq!(back.backend(), VolumeBackend::Sparse);
        assert_eq!(back.to_bytes(), bytes, "roundtrip must be canonical");
        assert_eq!(back.occupied_voxels(), vol.occupied_voxels());
        for z in (0..32).step_by(3) {
            for y in (0..32).step_by(3) {
                for x in (0..32).step_by(3) {
                    assert_eq!(back.voxel_tsdf(x, y, z), vol.voxel_tsdf(x, y, z));
                    assert_eq!(back.voxel_weight(x, y, z), vol.voxel_weight(x, y, z));
                }
            }
        }
    }

    #[test]
    fn legacy_dense_dumps_still_load() {
        let vol = integrated(VolumeBackend::Dense);
        let dense = vol.as_dense().unwrap();
        let legacy = dense.to_bytes();
        assert_eq!(&legacy[..4], DUMP_MAGIC_LEGACY);
        let back = VolumeStorage::from_bytes(&legacy).unwrap();
        assert_eq!(back.backend(), VolumeBackend::Dense);
        assert_eq!(back.occupied_voxels(), vol.occupied_voxels());
    }

    #[test]
    fn corruption_grid_rejects_malformed_dumps() {
        let vol = integrated(VolumeBackend::Sparse);
        let good = vol.to_bytes();
        assert!(VolumeStorage::from_bytes(&good).is_ok());
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(VolumeStorage::from_bytes(&bad).is_err());
        // truncated header
        assert!(VolumeStorage::from_bytes(&good[..10]).is_err());
        // unknown backend tag
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&7u32.to_le_bytes());
        assert!(VolumeStorage::from_bytes(&bad).is_err());
        // implausible resolution (both edges)
        for res in [15u32, 1025] {
            let mut bad = good.clone();
            bad[8..12].copy_from_slice(&res.to_le_bytes());
            let err = VolumeStorage::from_bytes(&bad).unwrap_err().to_string();
            assert!(err.contains("implausible resolution"), "{err}");
        }
        // implausible size (NaN and oversized)
        for size in [f32::NAN, 101.0] {
            let mut bad = good.clone();
            bad[12..16].copy_from_slice(&size.to_le_bytes());
            let err = VolumeStorage::from_bytes(&bad).unwrap_err().to_string();
            assert!(err.contains("implausible size"), "{err}");
        }
        // unsupported brick side
        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&16u32.to_le_bytes());
        let err = VolumeStorage::from_bytes(&bad).unwrap_err().to_string();
        assert!(err.contains("brick side"), "{err}");
        // mismatched brick count (header says one more than stored)
        let count = u32::from_le_bytes([good[20], good[21], good[22], good[23]]);
        let mut bad = good.clone();
        bad[20..24].copy_from_slice(&(count + 1).to_le_bytes());
        assert!(VolumeStorage::from_bytes(&bad).is_err());
        // truncated payload
        let mut bad = good.clone();
        bad.pop();
        assert!(VolumeStorage::from_bytes(&bad).is_err());
        // out-of-order brick ids break the canonical-form contract
        if count >= 2 {
            let mut bad = good.clone();
            let rec = 4 + BRICK_SIDE * BRICK_SIDE * BRICK_SIDE * 8;
            let (a, b) = (24, 24 + rec);
            let first: Vec<u8> = bad[a..a + rec].to_vec();
            let second: Vec<u8> = bad[b..b + rec].to_vec();
            bad[a..a + rec].copy_from_slice(&second);
            bad[b..b + rec].copy_from_slice(&first);
            let err = VolumeStorage::from_bytes(&bad).unwrap_err().to_string();
            assert!(err.contains("ascending"), "{err}");
        }
        // a dense voxel that is unobserved yet stores a tsdf other than 1.0
        let good = integrated(VolumeBackend::Dense).to_bytes();
        assert!(VolumeStorage::from_bytes(&good).is_ok());
        let n = 32 * 32 * 32;
        let word = |at: usize| [good[at], good[at + 1], good[at + 2], good[at + 3]];
        let weight = |i: usize| f32::from_le_bytes(word(16 + 4 * (n + i)));
        let i = (0..n)
            .find(|&i| weight(i) == 0.0)
            .expect("an unobserved voxel");
        let mut bad = good.clone();
        bad[16 + 4 * i..20 + 4 * i].copy_from_slice(&(-0.25f32).to_le_bytes());
        let err = VolumeStorage::from_bytes(&bad).unwrap_err();
        let DumpError::Voxel(v) = err else {
            panic!("{err:?}")
        };
        assert_eq!(
            (v.at, v.fault),
            ([i % 32, i / 32 % 32, i / 1024], VoxelFault::Unobserved)
        );
    }

    #[test]
    fn sparse_dumps_reject_voxels_fusion_cannot_produce() {
        let good = integrated(VolumeBackend::Sparse).to_bytes();
        let vol = VolumeStorage::from_bytes(&good).unwrap();
        // brick record b starts at 24 + b * rec: id, tsdf[512], weight[512]
        let voxels = BRICK_SIDE * BRICK_SIDE * BRICK_SIDE;
        let rec = 4 + voxels * 8;
        let count = u32::from_le_bytes([good[20], good[21], good[22], good[23]]) as usize;
        let word = |at: usize| [good[at], good[at + 1], good[at + 2], good[at + 3]];
        let weight =
            |(b, i): (usize, usize)| f32::from_le_bytes(word(24 + b * rec + 4 + 4 * (voxels + i)));
        let bps = 32usize.div_ceil(BRICK_SIDE);
        let at = |(b, i): (usize, usize)| {
            let id = u32::from_le_bytes(word(24 + b * rec)) as usize;
            [
                id % bps * BRICK_SIDE + i % BRICK_SIDE,
                id / bps % bps * BRICK_SIDE + i / BRICK_SIDE % BRICK_SIDE,
                id / (bps * bps) * BRICK_SIDE + i / (BRICK_SIDE * BRICK_SIDE),
            ]
        };
        let mut all = (0..count).flat_map(|b| (0..voxels).map(move |i| (b, i)));
        let unobserved = all
            .clone()
            .find(|&v| weight(v) == 0.0)
            .expect("an unobserved voxel");
        let observed = all.find(|&v| weight(v) > 0.0).expect("an observed voxel");
        for v in [unobserved, observed] {
            let [x, y, z] = at(v);
            assert_eq!(vol.voxel_weight(x, y, z), weight(v), "coordinates of {v:?}");
        }
        // (voxel, 0 = tsdf / 1 = weight, forged value, expected fault)
        let cases = [
            (unobserved, 0, 0.5, VoxelFault::Unobserved),
            (unobserved, 0, f32::NAN, VoxelFault::Tsdf),
            (unobserved, 1, -0.5, VoxelFault::Weight),
            (observed, 0, f32::NAN, VoxelFault::Tsdf),
            (observed, 0, f32::INFINITY, VoxelFault::Tsdf),
            (observed, 0, -2.0, VoxelFault::Tsdf),
            (observed, 1, f32::NAN, VoxelFault::Weight),
            (observed, 1, f32::NEG_INFINITY, VoxelFault::Weight),
        ];
        for ((b, i), array, value, fault) in cases {
            let mut bad = good.clone();
            let o = 24 + b * rec + 4 + 4 * (array * voxels + i);
            bad[o..o + 4].copy_from_slice(&f32::to_le_bytes(value));
            match VolumeStorage::from_bytes(&bad) {
                Err(DumpError::Voxel(v)) => {
                    assert_eq!((v.at, v.fault), (at((b, i)), fault), "{v}");
                }
                other => panic!("brick {b} voxel {i}, array {array}, value {value}: {other:?}"),
            }
        }
    }

    /// The dump a decoded volume re-serialises to, in the format it was
    /// read from.
    fn reencode(bytes: &[u8], vol: &VolumeStorage) -> Vec<u8> {
        if bytes.starts_with(DUMP_MAGIC_LEGACY) {
            vol.as_dense().expect("legacy dumps are dense").to_bytes()
        } else {
            vol.to_bytes()
        }
    }

    #[test]
    fn mutated_dumps_decode_to_an_error_or_round_trip() {
        use crate::tsdf::tests::SplitMix64;
        let dense = integrated(VolumeBackend::Dense);
        let seeds = [
            ("dense legacy", dense.as_dense().unwrap().to_bytes()),
            ("dense v3", dense.to_bytes()),
            ("sparse v3", integrated(VolumeBackend::Sparse).to_bytes()),
        ];
        for (what, seed) in &seeds {
            let back = VolumeStorage::from_bytes(seed).expect(what);
            assert_eq!(&reencode(seed, &back), seed, "{what}: seed round trip");
        }
        let mutants = if cfg!(miri) { 12 } else { 10_000 };
        let mut rng = SplitMix64(0xd0_f022);
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let mut accepted = [0usize; 3];
        // rejections for a voxel fusion cannot produce, by seed and fault
        let mut voxel_faults = [[0usize; 3]; 3];
        let fault_index = |f: VoxelFault| match f {
            VoxelFault::Tsdf => 0,
            VoxelFault::Weight => 1,
            VoxelFault::Unobserved => 2,
        };
        for case in 0..mutants {
            let (what, seed) = &seeds[case % seeds.len()];
            let mut bytes = seed.clone();
            for _ in 0..1 + below(3) {
                // half the edits land in the header, where the structure
                // is decided
                let reach = if below(2) == 0 {
                    bytes.len().min(32)
                } else {
                    bytes.len()
                };
                let at = below(reach + 1);
                match below(4) {
                    0 | 1 if at < bytes.len() => bytes[at] ^= 1 << below(8),
                    2 => bytes.insert(at, below(256) as u8),
                    _ => bytes.truncate(at),
                }
            }
            let decoded = std::panic::catch_unwind(|| VolumeStorage::from_bytes(&bytes));
            let Ok(decoded) = decoded else {
                panic!("{what} mutant {case} panicked the decoder");
            };
            match decoded {
                Ok(vol) => {
                    accepted[case % seeds.len()] += 1;
                    assert!(
                        reencode(&bytes, &vol) == bytes,
                        "{what} mutant {case} was accepted but does not round-trip"
                    );
                }
                Err(DumpError::Voxel(v)) => {
                    voxel_faults[case % seeds.len()][fault_index(v.fault)] += 1;
                }
                Err(DumpError::Malformed(_)) => {}
            }
        }
        if !cfg!(miri) {
            // payload flips survive; the loop exercises the accept path
            assert!(accepted.iter().all(|&a| a > 0), "accepted {accepted:?}");
            // and every voxel rule rejects some flips
            assert!(
                (0..3).all(|f| voxel_faults.iter().any(|seed| seed[f] > 0)),
                "voxel faults by seed [tsdf, weight, unobserved]: {voxel_faults:?}"
            );
        }
    }

    #[test]
    fn backend_knob_parses_and_displays() {
        assert_eq!(VolumeBackend::default(), VolumeBackend::Dense);
        assert_eq!(VolumeBackend::Dense.to_string(), "dense");
        assert_eq!(VolumeBackend::Sparse.to_string(), "sparse");
        assert_eq!("sparse".parse::<VolumeBackend>(), Ok(VolumeBackend::Sparse));
        assert!("voxelhash".parse::<VolumeBackend>().is_err());
        // wire format is the variant name, matching the AlgoId precedent
        let json = serde_json::to_string(&VolumeBackend::Sparse).unwrap();
        assert_eq!(json, "\"Sparse\"");
        let back: VolumeBackend = serde_json::from_str(&json).unwrap();
        assert_eq!(back, VolumeBackend::Sparse);
    }
}
