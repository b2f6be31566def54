//! The truncated signed distance function (TSDF) volume and its
//! integration kernel.

use crate::image::DepthImage;
use crate::volume::{BadVoxel, DumpError, VoxelFault};
use crate::workload::Workload;
use slam_math::camera::PinholeCamera;
use slam_math::{Se3, Vec3};
use slam_trace::Tracer;
use std::ops::Range;

/// Voxels per chunk of [`integrate_span`]'s three passes.
const CHUNK: usize = 64;

/// Per-chunk working memory of [`integrate_span`]. Each band task owns
/// one and passes it to every span it fuses: zeroing a fresh one per
/// call would cost more than an 8-voxel brick row of the sparse backend
/// takes to fuse.
pub(crate) struct SpanScratch {
    /// Camera-frame `z` of each voxel centre.
    z: [f32; CHUNK],
    /// `!0` where the voxel is in front of the near plane and projects
    /// into the image, `0` elsewhere.
    mask: [u32; CHUNK],
    /// Row-major pixel index of the projection; `0` where `mask` is.
    pixel: [u32; CHUNK],
    /// The depth sample at `pixel`.
    depth: [f32; CHUNK],
}

impl SpanScratch {
    pub(crate) fn new() -> SpanScratch {
        SpanScratch {
            z: [0.0; CHUNK],
            mask: [0; CHUNK],
            pixel: [0; CHUNK],
            depth: [0.0; CHUNK],
        }
    }
}

/// `new` where `mask` is `!0`, `old` where it is `0`, bit for bit.
#[inline]
fn select(mask: u32, new: f32, old: f32) -> f32 {
    f32::from_bits(new.to_bits() & mask | old.to_bits() & !mask)
}

/// Fuses one contiguous x-span of voxels into `tsdf`/`weight` and
/// returns `(ops, updated)` for the workload model.
///
/// The span covers global voxel x-coordinates `x0 .. x0 + tsdf.len()`
/// of a single `(y, z)` row. `row_base` is the camera-frame position of
/// the voxel centre at global `x = 0` and `dx_cam` the camera-frame
/// step per voxel along world +x, so every voxel evaluates the closed
/// form `cam_p = row_base + dx_cam * x`. That keeps the dense and
/// sparse volume backends bit-identical per voxel.
///
/// The span runs in chunks of [`CHUNK`] voxels, each in three passes,
/// so that the arithmetic compiles to vector instructions:
///
/// 1. **Projection**: camera-frame `z`, the pixel `(u, v)` and a
///    `0` / `!0` mask of "in front of the near plane and inside the
///    image" for every voxel, branch-free. The pixel index comes from
///    `(u + 0.5) as i32`, which decides the image test exactly as a cast
///    to `usize` would once `u ≥ −0.5` (and maps NaN to pixel 0 alike);
///    masked-out voxels read pixel 0.
/// 2. **Gather**: one depth load per voxel, nothing else.
/// 3. **Update**: the mask also takes in "finite, positive depth" and
///    "not occluded"; every voxel computes its fused value and writes
///    it, or its old bits, through a bit-mask select. An `if` between
///    two floats would compile to a branch, and a branch per voxel is
///    what kept the kernel scalar.
///
/// Every voxel runs the same IEEE operations in the same order as a
/// plain per-voxel loop that `continue`s past each failed test, so the
/// result is bit-identical to that loop (which the tests keep as the
/// oracle), and the op counts `4·len + 6·front + 8·updated` are the
/// same whole numbers.
///
/// Non-finite depth samples are rejected: a plain `d <= 0.0` guard is
/// false for NaN, which would poison the running average permanently.
///
/// The stored `tsdf` of an unobserved voxel (`w_old == 0`) never reaches
/// the result: `t·0` is a zero for every finite `t`, and adding a zero to
/// `tsdf_obs` returns it unchanged. So a zero-initialised volume fuses
/// bit-identically to one filled with `1.0`. Every fused voxel gets
/// `weight ≥ min(1, max_weight) > 0`, since `KFusionConfig::validate`
/// guarantees `max_weight ≥ 1`.
// `!(z <= 0.001)` and `!(u < -0.5)` are deliberate: NaN passes both
#[allow(clippy::too_many_arguments, clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn integrate_span(
    depth: &DepthImage,
    camera: &PinholeCamera,
    row_base: Vec3,
    dx_cam: Vec3,
    x0: usize,
    tsdf: &mut [f32],
    weight: &mut [f32],
    mu: f32,
    max_weight: f32,
    scratch: &mut SpanScratch,
) -> (f64, f64) {
    debug_assert_eq!(tsdf.len(), weight.len());
    debug_assert!(x0 + tsdf.len() <= i32::MAX as usize);
    let pixels = depth.as_slice();
    let (width, height) = (camera.width as i32, camera.height as i32);
    let (mut front, mut updated) = (0u32, 0u32);
    let chunks = tsdf.chunks_mut(CHUNK).zip(weight.chunks_mut(CHUNK));
    for (c, (tsdf, weight)) in chunks.enumerate() {
        let n = tsdf.len();
        let first = (x0 + c * CHUNK) as i32;
        let lanes = scratch.z[..n]
            .iter_mut()
            .zip(&mut scratch.mask[..n])
            .zip(&mut scratch.pixel[..n]);
        for (i, ((z, mask), pixel)) in lanes.enumerate() {
            let cam_p = row_base + dx_cam * ((first + i as i32) as f32);
            let in_front = !(cam_p.z <= 0.001);
            let u = camera.fx * cam_p.x / cam_p.z + camera.cx;
            let v = camera.fy * cam_p.y / cam_p.z + camera.cy;
            // nearest-pixel lookup (truncation would bias the fusion)
            let (ui, vi) = ((u + 0.5) as i32, (v + 0.5) as i32);
            let inside = !(u < -0.5) & !(v < -0.5) & (ui < width) & (vi < height);
            let m = 0u32.wrapping_sub(u32::from(in_front & inside));
            *z = cam_p.z;
            *mask = m;
            *pixel = vi.wrapping_mul(width).wrapping_add(ui) as u32 & m;
            front += u32::from(in_front);
        }
        for (d, &pixel) in scratch.depth[..n].iter_mut().zip(&scratch.pixel[..n]) {
            // only a zero-pixel image lacks pixel 0
            *d = pixels.get(pixel as usize).copied().unwrap_or(0.0);
        }
        let lanes = scratch.z[..n]
            .iter()
            .zip(&scratch.mask[..n])
            .zip(&scratch.depth[..n])
            .zip(tsdf.iter_mut().zip(weight.iter_mut()));
        for (((&z, &mask), &d), (t, w)) in lanes {
            // projective signed distance along the optical axis
            let sdf = d - z;
            let fused = d.is_finite() & (d > 0.0) & !(sdf < -mu);
            let m = mask & 0u32.wrapping_sub(u32::from(fused));
            let tsdf_obs = (sdf / mu).min(1.0);
            let w_old = *w;
            let w_new = (w_old + 1.0).min(max_weight);
            let t_new = (*t * w_old + tsdf_obs) / (w_old + 1.0);
            *t = select(m, t_new, *t);
            *w = select(m, w_new, w_old);
            updated += m & 1;
        }
    }
    let ops = 4 * tsdf.len() as u64 + 6 * u64::from(front) + 8 * u64::from(updated);
    (ops as f64, f64::from(updated))
}

/// Depth of the z-layers integrate bands are made of
/// (`band_ranges(ceil(res / 8))`), and the multiple `row_span` rounds
/// its spans out to.
const BLOCK: usize = 8;

/// The TSDF a voxel reads as: its stored value when observed, `1.0`
/// otherwise (the storage of an unobserved voxel is meaningless).
#[inline]
fn gated(tsdf: f32, weight: f32) -> f32 {
    if weight > 0.0 {
        tsdf
    } else {
        1.0
    }
}

/// `x.floor()`, bit for bit, inlined: without SSE4.1 the standard
/// `floor` is a libm call, a measurable share of the sample, gradient
/// and free-space-skip paths of both backends.
/// Below 2^23 in magnitude the truncation `x as i32` is exact; every
/// larger or non-finite `x` is its own floor.
#[inline]
pub(crate) fn floor(x: f32) -> f32 {
    if x.abs() < 8_388_608.0 {
        let t = x as i32 as f32;
        if t == x {
            x // integral, including -0.0
        } else if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x
    }
}

/// Refreshes the free bits of voxels `x0 .. x0 + tsdf.len()` of one row
/// in `bits`, that row's words: a voxel is free when it is observed with
/// `tsdf == 1.0`. A word is written only when it changes, so the pages
/// of rows no frame ever frees stay uncommitted.
fn refresh_free_bits(tsdf: &[f32], weight: &[f32], x0: usize, bits: &mut [u64]) {
    let x1 = x0 + tsdf.len();
    let mut x = x0;
    while x < x1 {
        let (k, lo) = (x / 64, x % 64);
        let n = (64 - lo).min(x1 - x);
        let voxels = tsdf[x - x0..x - x0 + n].iter().zip(&weight[x - x0..]);
        let mut free = 0u64;
        for (i, (&t, &w)) in voxels.enumerate() {
            free |= u64::from(w > 0.0 && t == 1.0) << i;
        }
        let mask = (u64::MAX >> (64 - n)) << lo;
        let word = bits[k] & !mask | free << lo;
        if word != bits[k] {
            bits[k] = word;
        }
        x += n;
    }
}

/// Derives the cell bits of cell layers `layers` from the voxel bits
/// (both `(z, y, word)` order, `words` per row; `z` counts layers from
/// the start of the slices, so a band can pass its own): the cell with
/// lowest corner `(x, y, z)` is free when voxels `x` and `x + 1` of rows
/// `(y, z)`, `(y + 1, z)`, `(y, z + 1)` and `(y + 1, z + 1)` all are, so
/// cell layer `z` reads voxel layers `z` and `z + 1`. Cells on the far
/// faces have no eight corners and stay clear, as do the padding bits
/// past `x = res - 2`, since no voxel bit at or past `res` is ever set. A
/// word is written only when it changes.
fn derive_cells(
    voxel_free: &[u64],
    cell_free: &mut [u64],
    res: usize,
    words: usize,
    layers: Range<usize>,
) {
    let row = |y: usize, z: usize| (z * res + y) * words;
    for z in layers {
        for y in 0..res - 1 {
            let [r00, r10, r01, r11] = [(y, z), (y + 1, z), (y, z + 1), (y + 1, z + 1)]
                .map(|(y, z)| &voxel_free[row(y, z)..row(y, z) + words]);
            let out = &mut cell_free[row(y, z)..row(y, z) + words];
            // right to left, so bit 0 of the next word is at hand
            let mut next = 0u64;
            for k in (0..words).rev() {
                let a = r00[k] & r10[k] & r01[k] & r11[k];
                let cells = a & (a >> 1 | next << 63);
                if out[k] != cells {
                    out[k] = cells;
                }
                next = a;
            }
        }
    }
}

/// The voxels of one `(y, z)` row that [`integrate_span`] could update,
/// widened by at least two voxels and rounded out to segment boundaries;
/// every voxel outside the span provably fails its near-plane or
/// in-image test. `row_base`/`dx_cam` are the kernel's own `f32` row
/// geometry.
///
/// Each test is a half-line in `x`: with `X, Y, Z` affine in `x`,
/// `u >= -0.5` in front of the camera is `fx·X + (cx + 0.5)·Z >= 0`, and
/// likewise for the other three image borders. The `f32` rounding of
/// the camera-frame point and of the projection is bounded and added as
/// slack on the value side, so a row parallel to a border (zero slope)
/// is decided by the sign of its constant term alone. Non-finite or
/// implausibly large geometry visits the whole row.
fn row_span(row_base: Vec3, dx_cam: Vec3, res: usize, camera: &PinholeCamera) -> Range<usize> {
    let f64s = |v: Vec3| [f64::from(v.x), f64::from(v.y), f64::from(v.z)];
    let (b, d) = (f64s(row_base), f64s(dx_cam));
    let last = (res - 1) as f64;
    let reach: [f64; 3] = std::array::from_fn(|i| b[i].abs() + d[i].abs() * last);
    if !reach.iter().all(|r| r.is_finite() && *r < 1e6) {
        return 0..res;
    }
    // one rounded product and one rounded sum per coordinate need
    // `EPSILON · reach`; four times that also covers this f64 arithmetic
    let eps = f64::from(f32::EPSILON);
    let err: [f64; 3] = std::array::from_fn(|i| 4.0 * eps * reach[i] + 1e-30);
    let (mut lo, mut hi) = (0.0f64, last);
    // keeps the x with `a + s·x >= 0`
    let mut keep = |a: f64, s: f64| {
        if s > 0.0 {
            lo = lo.max(-a / s);
        } else if s < 0.0 {
            hi = hi.min(-a / s);
        } else if a < 0.0 {
            hi = -1.0;
        }
    };
    keep(b[2] - f64::from(0.001f32) + err[2], d[2]);
    let u_axis = (camera.fx, camera.cx, camera.width);
    let v_axis = (camera.fy, camera.cy, camera.height);
    for (i, (f, c, n)) in [u_axis, v_axis].into_iter().enumerate() {
        let (f, c, n) = (f64::from(f), f64::from(c), n as f64);
        // bound on the f32 projection error of an in-image pixel coordinate
        let e_px = 8.0 * eps * (n + 1.0 + c.abs());
        // pixel >= -0.5  ⇒  f·p + (c + 0.5)·z >= 0
        let k = c + 0.5 + e_px;
        let slack = f.abs() * err[i] + k.abs() * err[2];
        keep(f * b[i] + k * b[2] + slack, f * d[i] + k * d[2]);
        // pixel < n - 0.5  ⇒  f·p + (c - n + 0.5)·z < 0
        let k = c - n + 0.5 - e_px;
        let slack = f.abs() * err[i] + k.abs() * err[2];
        keep(slack - (f * b[i] + k * b[2]), -(f * d[i] + k * d[2]));
    }
    if lo > hi {
        return 0..0;
    }
    let start = (lo.floor() as usize).saturating_sub(2) / BLOCK * BLOCK;
    let end = ((hi.ceil() as usize + 3).div_ceil(BLOCK) * BLOCK).min(res);
    start..end
}

/// The workload ops [`integrate_span`] would count for the voxels of a
/// row outside `span`: 4 each, plus 6 for each in front of the near
/// plane (none of them is updated). The `f32` camera z is monotone in x
/// (rounded products and sums are), so the voxels in front form a
/// prefix or a suffix of the row, found by binary search.
// `!(z <= 0.001)` is deliberate: it is the kernel's own test
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn skipped_ops(row_base: Vec3, dx_cam: Vec3, res: usize, span: &Range<usize>) -> f64 {
    let skipped = res - span.len();
    if skipped == 0 {
        return 0.0;
    }
    // the same expression and test as `integrate_span`
    let in_front = |x: usize| !((row_base + dx_cam * (x as f32)).z <= 0.001);
    let front = if dx_cam.z >= 0.0 {
        first_true(res, in_front)..res
    } else {
        0..first_true(res, |x| !in_front(x))
    };
    let overlap = |r: Range<usize>| {
        r.end
            .min(front.end)
            .saturating_sub(r.start.max(front.start))
    };
    let front_skipped = overlap(0..span.start) + overlap(span.end..res);
    (4 * skipped + 6 * front_skipped) as f64
}

/// The first `x` in `0..n` where `pred` holds (`n` when none does), for
/// a `pred` that is false and then true along `0..n`.
fn first_true(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A dense voxel grid storing a truncated signed distance to the nearest
/// surface (normalised to `[-1, 1]`) and an integration weight per voxel.
///
/// The volume spans the axis-aligned cube `[0, size]³` in world
/// coordinates, matching the KinectFusion convention where the camera
/// starts inside the volume.
///
/// The voxel storage is zero-initialised, so the allocator hands back
/// untouched pages that take no resident memory until a frame fuses into
/// them. A voxel with `!(weight > 0.0)` reads as `1.0` whatever its
/// stored `tsdf`: every reader gates on the weight, and the dump writers
/// emit the gated value.
///
/// Beside the voxels the volume keeps a derived **free-space summary**
/// (never serialised): one bit per voxel, set when it is observed with
/// `tsdf == 1.0`, and one bit per interpolation cell, set when all eight
/// of its corners are. [`TsdfVolume::sample`] answers a free cell from
/// one bit test, without reading voxels.
///
/// # Examples
///
/// Volumes are built through [`VolumeStorage::new`](crate::VolumeStorage::new):
///
/// ```
/// use slam_kfusion::{TsdfVolume, VolumeBackend, VolumeStorage};
/// let storage = VolumeStorage::new(VolumeBackend::Dense, 32, 2.0);
/// let vol: &TsdfVolume = storage.as_dense().expect("a dense volume");
/// assert_eq!(vol.resolution(), 32);
/// assert!((vol.voxel_size() - 0.0625).abs() < 1e-7);
/// assert_eq!(vol.occupied_voxels(), 0);
/// ```
///
/// The constructor itself is crate-private:
///
/// ```compile_fail,E0624
/// use slam_kfusion::{TsdfVolume, VolumeBackend, VolumeStorage};
/// let vol = TsdfVolume::new(32, 2.0);
/// ```
///
/// So are the voxel arrays; reads go through the [`Volume`](crate::Volume)
/// trait:
///
/// ```compile_fail,E0616
/// use slam_kfusion::{VolumeBackend, VolumeStorage};
/// let storage = VolumeStorage::new(VolumeBackend::Dense, 32, 2.0);
/// let first = storage.as_dense().expect("a dense volume").tsdf[0];
/// ```
#[derive(Debug, Clone)]
pub struct TsdfVolume {
    resolution: usize,
    size: f32,
    voxel: f32,
    /// `1 / voxel`, the world-to-grid scale.
    inv_voxel: f32,
    /// `(resolution - 1) as f32`: a cell's lowest corner lies below it
    /// on every axis.
    cell_max: f32,
    tsdf: Vec<f32>,
    weight: Vec<f32>,
    /// Bit words per `(y, z)` row, `ceil(resolution / 64)`.
    row_words: usize,
    /// Free voxel bits, `(z, y, word)` order, `x = 64·word + bit`.
    voxel_free: Vec<u64>,
    /// Free cell bits, indexed by the cell's lowest corner like
    /// `voxel_free`.
    cell_free: Vec<u64>,
}

impl TsdfVolume {
    /// Creates an empty volume: every voxel unobserved (weight `0`),
    /// reading as distance `1.0`.
    ///
    /// # Panics
    ///
    /// Panics when `resolution == 0` or `size <= 0`.
    pub(crate) fn new(resolution: usize, size: f32) -> TsdfVolume {
        assert!(resolution > 0, "resolution must be positive");
        assert!(size > 0.0, "size must be positive");
        let n = resolution * resolution * resolution;
        TsdfVolume::assemble(resolution, size, vec![0.0; n], vec![0.0; n])
    }

    /// A volume over the given voxels with every summary bit clear
    /// (exact for a new volume). The bitmaps are zero-initialised, so
    /// they commit memory only where a bit is ever set.
    fn assemble(resolution: usize, size: f32, tsdf: Vec<f32>, weight: Vec<f32>) -> TsdfVolume {
        let voxel = size / resolution as f32;
        let words = resolution.div_ceil(64);
        TsdfVolume {
            resolution,
            size,
            voxel,
            inv_voxel: 1.0 / voxel,
            cell_max: (resolution - 1) as f32,
            tsdf,
            weight,
            row_words: words,
            voxel_free: vec![0; resolution * resolution * words],
            cell_free: vec![0; resolution * resolution * words],
        }
    }

    /// Voxels per side.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Physical size of the cube side in metres.
    pub fn size(&self) -> f32 {
        self.size
    }

    /// Side of one voxel in metres.
    pub fn voxel_size(&self) -> f32 {
        self.voxel
    }

    /// Memory footprint of the voxel data in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.tsdf.len() + self.weight.len()) * std::mem::size_of::<f32>()
    }

    /// Number of voxels that have received at least one observation.
    pub fn occupied_voxels(&self) -> usize {
        self.weight.iter().filter(|&&w| w > 0.0).count()
    }

    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.resolution + y) * self.resolution + x
    }

    /// Appends the dense dump payload to `out`: `tsdf[]` then `weight[]`,
    /// z-major, x fastest, little-endian. An unobserved voxel emits the
    /// `1.0` it reads as, never its raw storage.
    pub(crate) fn payload_to_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.tsdf.len() * 8);
        for (&t, &w) in self.tsdf.iter().zip(&self.weight) {
            out.extend_from_slice(&gated(t, w).to_le_bytes());
        }
        for w in &self.weight {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Parses the payload written by [`TsdfVolume::payload_to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns the first problem found: a length other than
    /// `resolution³ × 8` bytes, or the first voxel (in storage order)
    /// that no fusion can produce ([`VoxelFault`]).
    pub(crate) fn from_payload(
        resolution: usize,
        size: f32,
        payload: &[u8],
    ) -> Result<Self, DumpError> {
        let n = resolution * resolution * resolution;
        if payload.len() != n * 8 {
            return Err(
                format!("expected {} payload bytes, found {}", n * 8, payload.len()).into(),
            );
        }
        let read_f32s = |bytes: &[u8]| -> Vec<f32> {
            let words = bytes.chunks_exact(4);
            words
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect()
        };
        let (tsdf, weight) = payload.split_at(n * 4);
        let (tsdf, weight) = (read_f32s(tsdf), read_f32s(weight));
        for (i, (&t, &w)) in tsdf.iter().zip(&weight).enumerate() {
            if let Some(fault) = VoxelFault::of(t, w) {
                let at = [
                    i % resolution,
                    (i / resolution) % resolution,
                    i / (resolution * resolution),
                ];
                return Err(DumpError::Voxel(BadVoxel {
                    at,
                    tsdf: t,
                    weight: w,
                    fault,
                }));
            }
        }
        Ok(TsdfVolume::from_raw(resolution, size, tsdf, weight))
    }

    /// Rebuilds a volume from raw storage (the dump readers), deriving
    /// its free-space summary with one scan.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match `resolution³`.
    pub(crate) fn from_raw(resolution: usize, size: f32, tsdf: Vec<f32>, weight: Vec<f32>) -> Self {
        let n = resolution * resolution * resolution;
        assert_eq!(tsdf.len(), n, "tsdf storage length mismatch");
        assert_eq!(weight.len(), n, "weight storage length mismatch");
        let mut vol = TsdfVolume::assemble(resolution, size, tsdf, weight);
        vol.rebuild_summary();
        vol
    }

    /// Derives every summary bit from the voxels.
    fn rebuild_summary(&mut self) {
        let (res, words) = (self.resolution, self.row_words);
        let rows = self.tsdf.chunks(res).zip(self.weight.chunks(res));
        for ((t, w), bits) in rows.zip(self.voxel_free.chunks_mut(words)) {
            refresh_free_bits(t, w, 0, bits);
        }
        let layers = 0..res.saturating_sub(1);
        derive_cells(&self.voxel_free, &mut self.cell_free, res, words, layers);
    }

    /// Whether the interpolation cell with lowest corner `(x, y, z)` is
    /// free: all eight corners observed with `tsdf == 1.0`.
    #[inline]
    fn cell_is_free(&self, x: usize, y: usize, z: usize) -> bool {
        let word = self.cell_free[(z * self.resolution + y) * self.row_words + x / 64];
        word >> (x % 64) & 1 != 0
    }

    /// Clears every cell bit, so `sample` reads voxels everywhere (the
    /// reference the summary is tested against).
    #[cfg(test)]
    pub(crate) fn clear_summary(&mut self) {
        self.cell_free.fill(0);
    }

    /// TSDF value of voxel `(x, y, z)`; `1.0` where unobserved.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is out of range.
    pub fn voxel_tsdf(&self, x: usize, y: usize, z: usize) -> f32 {
        assert!(
            x < self.resolution && y < self.resolution && z < self.resolution,
            "voxel out of range"
        );
        let idx = self.index(x, y, z);
        gated(self.tsdf[idx], self.weight[idx])
    }

    /// Integration weight of voxel `(x, y, z)`.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is out of range.
    pub fn voxel_weight(&self, x: usize, y: usize, z: usize) -> f32 {
        assert!(
            x < self.resolution && y < self.resolution && z < self.resolution,
            "voxel out of range"
        );
        self.weight[self.index(x, y, z)]
    }

    /// World-space centre of voxel `(x, y, z)`.
    pub fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        Vec3::new(
            (x as f32 + 0.5) * self.voxel,
            (y as f32 + 0.5) * self.voxel,
            (z as f32 + 0.5) * self.voxel,
        )
    }

    /// Trilinearly-interpolated TSDF at a world point, or `None` when the
    /// point is outside the volume or entirely unobserved (all eight
    /// neighbouring voxels have zero weight).
    ///
    /// A free cell returns `1.0` from one bit test, without reading the
    /// voxel arrays: the interpolation of eight `1.0` corners is
    /// `1 + 0·t` at every level.
    #[inline]
    pub fn sample(&self, p: Vec3) -> Option<f32> {
        let g = p * self.inv_voxel - Vec3::splat(0.5);
        let max = self.cell_max;
        // `read_cell`'s bounds test, on `g` itself: `max` is whole, so
        // `floor(g) < max` iff `g < max`, and inside the grid `floor` is
        // the truncation. A NaN point fails it and takes the corner read,
        // which interpolates NaN.
        let inside = g.x >= 0.0 && g.y >= 0.0 && g.z >= 0.0 && g.x < max && g.y < max && g.z < max;
        if inside {
            // through `i32`: a cast straight to `usize` costs extra
            // saturation code, a measurable share of a free step
            let (x, y, z) = (
                g.x as i32 as usize,
                g.y as i32 as usize,
                g.z as i32 as usize,
            );
            if self.cell_is_free(x, y, z) {
                return Some(1.0);
            }
        }
        self.read_cell(g)
    }

    /// [`TsdfVolume::sample`] at grid point `g` (voxel centres at whole
    /// coordinates) from the eight corner voxels, without the summary.
    fn read_cell(&self, g: Vec3) -> Option<f32> {
        let x0 = floor(g.x);
        let y0 = floor(g.y);
        let z0 = floor(g.z);
        let max = self.cell_max;
        // a NaN point passes this test and interpolates NaN
        if x0 < 0.0 || y0 < 0.0 || z0 < 0.0 || x0 >= max || y0 >= max || z0 >= max {
            return None;
        }
        let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
        let mut c = [0.0f32; 8];
        let mut any_observed = false;
        for (i, corner) in c.iter_mut().enumerate() {
            let idx = self.index(xi + (i & 1), yi + ((i >> 1) & 1), zi + ((i >> 2) & 1));
            let w = self.weight[idx];
            *corner = gated(self.tsdf[idx], w);
            any_observed |= w > 0.0;
        }
        if !any_observed {
            return None;
        }
        Some(slam_math::interp::trilerp(c, g.x - x0, g.y - y0, g.z - z0))
    }

    /// TSDF gradient (points from inside to outside) at a world point
    /// via central differences of trilinear samples one voxel apart;
    /// `None` near the volume border or in unobserved space. All six
    /// shifted samples come from one 4³-neighbourhood fetch
    /// ([`slam_math::interp::central_gradient`]) instead of six
    /// independent bounds-checked samples.
    pub fn gradient(&self, p: Vec3) -> Option<Vec3> {
        // below 4³ there is no cell with a one-voxel border on each side
        if self.resolution < 4 {
            return None;
        }
        let g = p * self.inv_voxel - Vec3::splat(0.5);
        let x0 = floor(g.x);
        let y0 = floor(g.y);
        let z0 = floor(g.z);
        // the 4³ block spans grid offsets -1..=2, and the shifted cells
        // interpolate inside it, so the base corner needs a one-voxel
        // border on each side
        let max = (self.resolution - 3) as f32;
        if x0 < 1.0 || y0 < 1.0 || z0 < 1.0 || x0 > max || y0 > max || z0 > max {
            return None;
        }
        let (xi, yi, zi) = (x0 as usize, y0 as usize, z0 as usize);
        let mut c = [0.0f32; 64];
        let mut any_observed = false;
        for dz in 0..4 {
            for dy in 0..4 {
                let row = self.index(xi - 1, yi - 1 + dy, zi - 1 + dz);
                for dx in 0..4 {
                    let w = self.weight[row + dx];
                    c[(dz * 4 + dy) * 4 + dx] = gated(self.tsdf[row + dx], w);
                    any_observed |= w > 0.0;
                }
            }
        }
        if !any_observed {
            return None;
        }
        let (dx, dy, dz) = slam_math::interp::central_gradient(&c, g.x - x0, g.y - y0, g.z - z0);
        Some(Vec3::new(dx, dy, dz))
    }

    /// Fuses one depth frame into the volume and returns the measured
    /// [`Workload`].
    ///
    /// `pose` is the camera-to-world pose of the frame, `mu` the
    /// truncation distance in metres, `max_weight` the running-average
    /// cap. A pose with a non-finite component fuses nothing and returns
    /// [`Workload::ZERO`].
    ///
    /// Runs on the shared [`slam_exec`] worker pool with up to `threads`
    /// threads (`0` = all available) over fixed z-slabs, recording an
    /// `integrate` kernel span plus per-slab band spans into `tracer`.
    /// Each voxel is written exactly once and the slab layout depends
    /// only on the resolution, so the result is bit-identical for every
    /// thread count, traced or not.
    ///
    /// Each row visits only the span of voxels the camera can reach
    /// (see `row_span`) and refreshes the free bits of that span. Each
    /// band then derives the cell bits of its z-layers but the last, and
    /// the cell layers on the seams between bands follow them. The returned
    /// [`Workload`] still counts the full `res³` sweep, exactly as if
    /// every voxel had been visited.
    ///
    /// # Panics
    ///
    /// Panics when the camera resolution does not match the depth image.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate(
        &mut self,
        depth: &DepthImage,
        camera: &PinholeCamera,
        pose: &Se3,
        mu: f32,
        max_weight: f32,
        threads: usize,
        tracer: &Tracer,
    ) -> Workload {
        let _kernel = tracer.kernel_span("integrate");
        assert_eq!(
            (camera.width, camera.height),
            (depth.width(), depth.height()),
            "camera/image resolution mismatch"
        );
        if !pose.is_finite() {
            return Workload::ZERO;
        }
        let world_to_cam = pose.inverse();
        let res = self.resolution;
        let voxel = self.voxel;
        // camera-frame step for one voxel along world +x (the innermost
        // loop direction: indices are z-major, x fastest)
        let r = world_to_cam.rotation();
        let dx_cam = r * Vec3::new(voxel, 0.0, 0.0);
        let threads = slam_exec::effective_threads(threads);
        let slab = res * res; // voxels per z slice
        let words = self.row_words;
        let depth_ref = depth;
        // split the storage into bands of whole 8-voxel z-layers; each
        // voxel and summary bit is written exactly once and the band
        // layout is fixed by `res`, so the result is independent of the
        // thread count
        let bands = slam_exec::band_ranges(res.div_ceil(BLOCK));
        // the first z-layer of every band but the first
        let seams: Vec<usize> = bands.iter().skip(1).map(|b| b.start * BLOCK).collect();
        let mut tasks: Vec<slam_exec::Task<'_, (f64, f64)>> = Vec::new();
        {
            let mut t_rest: &mut [f32] = &mut self.tsdf;
            let mut w_rest: &mut [f32] = &mut self.weight;
            let mut f_rest: &mut [u64] = &mut self.voxel_free;
            let mut c_rest: &mut [u64] = &mut self.cell_free;
            for band in bands {
                let z0 = band.start * BLOCK;
                let zn = (band.end * BLOCK).min(res) - z0;
                let (tsdf_chunk, t_next) = t_rest.split_at_mut(zn * slab);
                let (weight_chunk, w_next) = w_rest.split_at_mut(zn * slab);
                let (free_chunk, f_next) = f_rest.split_at_mut(zn * res * words);
                let (cell_chunk, c_next) = c_rest.split_at_mut(zn * res * words);
                t_rest = t_next;
                w_rest = w_next;
                f_rest = f_next;
                c_rest = c_next;
                tasks.push(Box::new(move || {
                    let mut ops: f64 = 0.0;
                    let mut updated: f64 = 0.0;
                    let mut scratch = SpanScratch::new();
                    for row in 0..zn * res {
                        let (z, y) = (z0 + row / res, row % res);
                        // camera-frame position of the voxel centre at
                        // global x = 0 of this (y, z) row
                        let row_world = Vec3::new(
                            0.5 * voxel,
                            (y as f32 + 0.5) * voxel,
                            (z as f32 + 0.5) * voxel,
                        );
                        let row_base = world_to_cam.transform_point(row_world);
                        // voxels outside the span cannot change: skip
                        // them, keep their free bits, count their ops
                        let span = row_span(row_base, dx_cam, res, camera);
                        ops += skipped_ops(row_base, dx_cam, res, &span);
                        if span.is_empty() {
                            continue;
                        }
                        let voxels = row * res + span.start..row * res + span.end;
                        let (o, u) = integrate_span(
                            depth_ref,
                            camera,
                            row_base,
                            dx_cam,
                            span.start,
                            &mut tsdf_chunk[voxels.clone()],
                            &mut weight_chunk[voxels.clone()],
                            mu,
                            max_weight,
                            &mut scratch,
                        );
                        ops += o;
                        updated += u;
                        refresh_free_bits(
                            &tsdf_chunk[voxels.clone()],
                            &weight_chunk[voxels],
                            span.start,
                            &mut free_chunk[row * words..(row + 1) * words],
                        );
                    }
                    // a cell layer reads its own voxel layer and the next
                    // one, so the band's last cell layer waits for the
                    // next band's voxels
                    derive_cells(free_chunk, cell_chunk, res, words, 0..zn - 1);
                    (ops, updated)
                }));
            }
        }
        // ordered fold over the fixed band layout: deterministic (every
        // term is a whole number, so the sum is exact in any order)
        let (ops, updated) = slam_exec::run_tasks(tracer, "integrate", threads, tasks)
            .into_iter()
            .fold((0.0, 0.0), |(a, b), (o, u)| (a + o, b + u));
        for seam in seams {
            let layer = seam - 1..seam;
            derive_cells(&self.voxel_free, &mut self.cell_free, res, words, layer);
        }
        let voxels = (res * res * res) as f64;
        Workload::new(ops, voxels * 2.0 + updated * 16.0)
    }

    /// Serialises the volume into a compact little-endian binary blob
    /// (`magic, resolution, size, tsdf[], weight[]`) — the dump format
    /// the CLI's volume export uses.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.tsdf.len() * 8);
        out.extend_from_slice(b"TSDF");
        out.extend_from_slice(&(self.resolution as u32).to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        self.payload_to_bytes(&mut out);
        out
    }

    /// Reconstructs a volume from [`TsdfVolume::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found, or the first voxel
    /// that no fusion can produce.
    // `!(size > 0.0)` is deliberate: it also rejects NaN
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn from_bytes(bytes: &[u8]) -> Result<TsdfVolume, DumpError> {
        if bytes.len() < 12 || &bytes[..4] != b"TSDF" {
            return Err("not a TSDF volume dump".into());
        }
        let resolution = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        let size = f32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        // same bounds as `KFusionConfig::validate`: a forged dump must
        // not materialize a volume the config layer forbids
        if !(16..=1024).contains(&resolution) {
            return Err(format!("implausible resolution {resolution}").into());
        }
        if !(size > 0.0) || size > 100.0 {
            return Err(format!("implausible size {size}").into());
        }
        TsdfVolume::from_payload(resolution, size, &bytes[12..])
    }

    /// Compares the stored implicit surface against a reference signed
    /// distance function, returning the mean absolute surface error in
    /// metres over voxels near the zero crossing (|tsdf| < 0.5 and
    /// observed). Returns `None` when no voxels qualify.
    ///
    /// Used by the reconstruction-accuracy metric: the reference is the
    /// synthetic scene's exact SDF.
    pub fn surface_error(&self, reference: impl Fn(Vec3) -> f32, mu: f32) -> Option<f32> {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        let res = self.resolution;
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    let idx = self.index(x, y, z);
                    if self.weight[idx] <= 0.0 || self.tsdf[idx].abs() >= 0.5 {
                        continue;
                    }
                    let p = self.voxel_center(x, y, z);
                    // stored tsdf approximates distance/mu
                    let stored = self.tsdf[idx] * mu;
                    let actual = reference(p);
                    sum += f64::from((stored - actual).abs());
                    count += 1;
                }
            }
        }
        (count > 0).then(|| (sum / count as f64) as f32)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::image::Image2D;
    use slam_math::Mat3;

    /// Integrates a flat wall at `z = wall_z` seen from the origin.
    fn integrated_wall(res: usize, size: f32, wall_z: f32, frames: usize) -> TsdfVolume {
        let cam = PinholeCamera::tiny();
        let mut vol = TsdfVolume::new(res, size);
        let depth = Image2D::new(cam.width, cam.height, wall_z);
        // camera at the volume centre (x/y), at z=0, looking +z
        let pose = Se3::from_translation(Vec3::new(size / 2.0, size / 2.0, 0.0));
        for _ in 0..frames {
            vol.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        }
        vol
    }

    #[test]
    fn new_volume_is_empty() {
        let vol = TsdfVolume::new(16, 1.0);
        assert_eq!(vol.occupied_voxels(), 0);
        assert_eq!(vol.voxel_tsdf(0, 0, 0), 1.0);
        assert_eq!(vol.voxel_weight(8, 8, 8), 0.0);
        assert_eq!(vol.memory_bytes(), 16 * 16 * 16 * 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_panics() {
        let _ = TsdfVolume::new(0, 1.0);
    }

    #[test]
    fn integration_observes_voxels() {
        let vol = integrated_wall(32, 2.0, 1.0, 1);
        assert!(
            vol.occupied_voxels() > 1000,
            "got {}",
            vol.occupied_voxels()
        );
    }

    #[test]
    fn tsdf_sign_flips_across_wall() {
        let vol = integrated_wall(32, 2.0, 1.0, 3);
        // sample along the optical axis: in front of the wall (z < 1) the
        // tsdf is positive, behind it negative
        let front = vol.sample(Vec3::new(1.0, 1.0, 0.9)).expect("observed");
        let behind = vol.sample(Vec3::new(1.0, 1.0, 1.1)).expect("observed");
        assert!(front > 0.0, "front {front}");
        assert!(behind < 0.0, "behind {behind}");
    }

    #[test]
    fn zero_crossing_at_surface() {
        let vol = integrated_wall(64, 2.0, 1.0, 3);
        // bisect the zero crossing along the centre ray
        let mut lo = 0.8f32;
        let mut hi = 1.2f32;
        for _ in 0..30 {
            let mid = 0.5 * (lo + hi);
            let v = vol.sample(Vec3::new(1.0, 1.0, mid)).expect("observed");
            if v > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let crossing = 0.5 * (lo + hi);
        assert!((crossing - 1.0).abs() < 0.02, "surface at {crossing}");
    }

    #[test]
    fn gradient_points_towards_camera_side() {
        let vol = integrated_wall(32, 2.0, 1.0, 3);
        let g = vol.gradient(Vec3::new(1.0, 1.0, 1.0)).expect("observed");
        // tsdf decreases with z here, so gradient z must be negative
        assert!(g.z < 0.0, "gradient {g}");
    }

    #[test]
    fn sample_outside_returns_none() {
        let vol = TsdfVolume::new(16, 1.0);
        assert!(vol.sample(Vec3::new(-0.5, 0.5, 0.5)).is_none());
        assert!(vol.sample(Vec3::new(0.5, 0.5, 2.0)).is_none());
    }

    #[test]
    fn sample_unobserved_returns_none() {
        let vol = TsdfVolume::new(16, 1.0);
        assert!(vol.sample(Vec3::new(0.5, 0.5, 0.5)).is_none());
    }

    #[test]
    fn weight_saturates_at_max() {
        let cam = PinholeCamera::tiny();
        let mut vol = TsdfVolume::new(16, 2.0);
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        for _ in 0..5 {
            vol.integrate(&depth, &cam, &pose, 0.2, 3.0, 0, Tracer::off());
        }
        let max_w = (0..16)
            .flat_map(|z| (0..16).flat_map(move |y| (0..16).map(move |x| (x, y, z))))
            .map(|(x, y, z)| vol.voxel_weight(x, y, z))
            .fold(0.0f32, f32::max);
        assert!(max_w <= 3.0 + 1e-6);
        assert!(max_w > 2.9);
    }

    #[test]
    fn occluded_space_stays_unobserved() {
        let vol = integrated_wall(32, 2.0, 1.0, 1);
        // far behind the wall (z = 1.8): occluded, never updated
        assert!(vol.sample(Vec3::new(1.0, 1.0, 1.9)).is_none());
    }

    #[test]
    fn integration_is_thread_count_invariant() {
        let cam = PinholeCamera::tiny();
        // structured depth so updates vary across the volume
        let mut depth = Image2D::new(cam.width, cam.height, 1.0f32);
        for y in 0..cam.height {
            for x in 0..cam.width {
                depth.set(x, y, 0.8 + (x as f32 * 0.002) + (y as f32 * 0.001));
            }
        }
        // tilted, so most rows are clipped to part of their length
        let pose = Se3::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.5, Vec3::new(0.6, 1.0, 0.1));
        // 33³: does not divide evenly into bands or blocks
        let run = |threads: usize| {
            let mut vol = TsdfVolume::new(33, 2.0);
            let w1 = vol.integrate(&depth, &cam, &pose, 0.2, 100.0, threads, Tracer::off());
            let w2 = vol.integrate(&depth, &cam, &pose, 0.2, 100.0, threads, Tracer::off());
            let summary = (vol.voxel_free.clone(), vol.cell_free.clone());
            (vol.to_bytes(), summary, w1.ops.to_bits(), w2.ops.to_bits())
        };
        let reference = run(1);
        for threads in [2usize, 4, 7] {
            assert_eq!(run(threads), reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn integration_workload_scales_with_resolution() {
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut small = TsdfVolume::new(16, 2.0);
        let mut large = TsdfVolume::new(32, 2.0);
        let w_small = small.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        let w_large = large.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        assert!(
            w_large.ops > 4.0 * w_small.ops,
            "8x voxels should cost much more"
        );
        assert!(w_large.bytes > 4.0 * w_small.bytes);
    }

    #[test]
    fn volume_bytes_roundtrip() {
        let vol = integrated_wall(24, 2.0, 1.0, 2);
        let bytes = vol.to_bytes();
        let back = TsdfVolume::from_bytes(&bytes).unwrap();
        assert_eq!(back.resolution(), vol.resolution());
        assert_eq!(back.size(), vol.size());
        assert_eq!(back.occupied_voxels(), vol.occupied_voxels());
        for z in (0..24).step_by(5) {
            for y in (0..24).step_by(5) {
                for x in (0..24).step_by(5) {
                    assert_eq!(back.voxel_tsdf(x, y, z), vol.voxel_tsdf(x, y, z));
                    assert_eq!(back.voxel_weight(x, y, z), vol.voxel_weight(x, y, z));
                }
            }
        }
    }

    #[test]
    fn volume_from_bytes_rejects_garbage() {
        assert!(TsdfVolume::from_bytes(b"nope").is_err());
        assert!(TsdfVolume::from_bytes(b"TSDF").is_err());
        let good = integrated_wall(16, 1.0, 0.5, 1).to_bytes();
        assert!(TsdfVolume::from_bytes(&good[..good.len() - 1]).is_err());
        // voxels that no fusion can produce, each named by the error
        let n = 16 * 16 * 16;
        let word = |i: usize| [good[i], good[i + 1], good[i + 2], good[i + 3]];
        let weight = |i: usize| f32::from_le_bytes(word(12 + 4 * (n + i)));
        let unobserved = (0..n)
            .find(|&i| weight(i) == 0.0)
            .expect("an unobserved voxel");
        let observed = (0..n)
            .find(|&i| weight(i) > 0.0)
            .expect("an observed voxel");
        // (voxel, 0 = tsdf / 1 = weight, forged value, expected fault)
        let cases = [
            (unobserved, 0, 0.5, Some(VoxelFault::Unobserved)),
            (unobserved, 0, f32::NAN, Some(VoxelFault::Tsdf)),
            (unobserved, 1, f32::NAN, Some(VoxelFault::Weight)),
            (observed, 0, f32::NAN, Some(VoxelFault::Tsdf)),
            (observed, 0, f32::NEG_INFINITY, Some(VoxelFault::Tsdf)),
            (observed, 0, 1.5, Some(VoxelFault::Tsdf)),
            (observed, 0, -1.0 - f32::EPSILON, Some(VoxelFault::Tsdf)),
            (observed, 1, f32::NAN, Some(VoxelFault::Weight)),
            (observed, 1, f32::INFINITY, Some(VoxelFault::Weight)),
            (observed, 1, -1.0, Some(VoxelFault::Weight)),
            // the edges fusion can reach stay legal
            (observed, 0, -1.0, None),
            (observed, 0, 1.0, None),
        ];
        for (i, array, value, fault) in cases {
            let mut bad = good.clone();
            let at = 12 + 4 * (array * n + i);
            bad[at..at + 4].copy_from_slice(&f32::to_le_bytes(value));
            match (TsdfVolume::from_bytes(&bad), fault) {
                (Ok(_), None) => {}
                (Err(DumpError::Voxel(v)), Some(fault)) => {
                    assert_eq!(v.fault, fault, "{v}");
                    assert_eq!(v.at, [i % 16, i / 16 % 16, i / 256], "{v}");
                    assert!(v.to_string().starts_with("voxel ("), "{v}");
                }
                (got, _) => panic!("voxel {i}, array {array}, value {value}: {got:?}"),
            }
        }
        // implausible header values
        let mut bad = b"TSDF".to_vec();
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(TsdfVolume::from_bytes(&bad).is_err());
    }

    #[test]
    fn from_bytes_bounds_match_config_validate() {
        // the config layer accepts resolutions 16..=1024; the dump
        // parser must agree at both edges
        let small = integrated_wall(16, 1.0, 0.5, 1);
        let back = TsdfVolume::from_bytes(&small.to_bytes()).expect("16 is the legal floor");
        assert_eq!(back.resolution(), 16);
        assert_eq!(back.occupied_voxels(), small.occupied_voxels());
        // 15 used to slip through the old `resolution == 0` guard
        let mut forged = b"TSDF".to_vec();
        forged.extend_from_slice(&15u32.to_le_bytes());
        forged.extend_from_slice(&1.0f32.to_le_bytes());
        forged.extend_from_slice(&vec![0u8; 15 * 15 * 15 * 8]);
        let err = TsdfVolume::from_bytes(&forged).unwrap_err().to_string();
        assert!(err.contains("implausible resolution"), "{err}");
        // 1024 passes the resolution gate (we can't afford the 8.6 GB
        // body here, so the failure must be about the length instead)
        let mut huge = b"TSDF".to_vec();
        huge.extend_from_slice(&1024u32.to_le_bytes());
        huge.extend_from_slice(&1.0f32.to_le_bytes());
        let err = TsdfVolume::from_bytes(&huge).unwrap_err().to_string();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn integration_rejects_non_finite_depth() {
        // a NaN/Inf-laced frame must leave every voxel finite and every
        // poisoned pixel unobserved
        let cam = PinholeCamera::tiny();
        let mut depth = Image2D::new(cam.width, cam.height, 1.0f32);
        for y in 0..cam.height {
            for x in 0..cam.width {
                match (x + y * cam.width) % 5 {
                    0 => depth.set(x, y, f32::NAN),
                    1 => depth.set(x, y, f32::INFINITY),
                    2 => depth.set(x, y, f32::NEG_INFINITY),
                    _ => {}
                }
            }
        }
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut vol = TsdfVolume::new(32, 2.0);
        vol.integrate(&depth, &cam, &pose, 0.2, 100.0, 0, Tracer::off());
        let res = vol.resolution();
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    assert!(
                        vol.voxel_tsdf(x, y, z).is_finite(),
                        "NaN escaped into tsdf at ({x},{y},{z})"
                    );
                    assert!(
                        vol.voxel_weight(x, y, z).is_finite(),
                        "NaN escaped into weight at ({x},{y},{z})"
                    );
                }
            }
        }
        // the surviving finite pixels still fuse normally
        assert!(vol.occupied_voxels() > 500, "got {}", vol.occupied_voxels());
    }

    #[test]
    fn surface_error_against_exact_plane() {
        let vol = integrated_wall(64, 2.0, 1.0, 5);
        // the exact SDF of the wall half-space z >= 1 is (1 - z)… distance
        // to surface along z for points in front: z - 1 is negative inside
        let err = vol
            .surface_error(|p| 1.0 - p.z, 0.2)
            .expect("surface voxels exist");
        // note: reference here is signed distance *to the wall plane* with
        // the same sign convention (positive in front)
        assert!(err < 0.05, "mean surface error {err} m");
    }

    #[test]
    fn floor_matches_std_bit_for_bit() {
        let mut rng = SplitMix64(0xf1);
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            1.0 - f32::EPSILON / 2.0,
            -f32::MIN_POSITIVE,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_609.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut values = edges.to_vec();
        for _ in 0..10_000 {
            values.push(f32::from_bits(rng.next_u64() as u32));
            values.push(rng.f32_in(-600.0, 600.0));
        }
        for x in values {
            let (got, want) = (floor(x), x.floor());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "floor({x:e}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn gradient_on_tiny_volumes_is_none() {
        for res in 1..4 {
            let vol = TsdfVolume::new(res, 1.0);
            for p in [Vec3::splat(0.0), Vec3::splat(0.5), Vec3::splat(0.99)] {
                assert_eq!(vol.gradient(p), None, "resolution {res} at {p}");
            }
        }
    }

    /// SplitMix64: a tiny seeded generator for test poses.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi` (up to rounding).
        pub(crate) fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
            let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            lo + (hi - lo) * unit
        }
    }

    /// A random camera-to-world pose around a volume of side `size`:
    /// anywhere from half a side outside it to inside it, any rotation.
    pub(crate) fn random_pose(rng: &mut SplitMix64, size: f32) -> Se3 {
        let mut coord = || rng.f32_in(-0.5 * size, 1.5 * size);
        let t = Vec3::new(coord(), coord(), coord());
        let axis = Vec3::new(rng.f32_in(-1.0, 1.0), rng.f32_in(-1.0, 1.0), 0.5);
        Se3::from_axis_angle(axis, rng.f32_in(-3.1, 3.1), t)
    }

    /// A depth frame with a slanted surface, a step and holes.
    pub(crate) fn structured_depth(cam: &PinholeCamera) -> DepthImage {
        let mut depth = Image2D::new(cam.width, cam.height, 0.0f32);
        for y in 0..cam.height {
            for x in 0..cam.width {
                let d = match (x / 8 + y / 8) % 11 {
                    0 => 0.0,
                    1 => f32::NAN,
                    _ if x > cam.width / 2 => 0.7 + y as f32 * 0.004,
                    _ => 1.1 + x as f32 * 0.003,
                };
                depth.set(x, y, d);
            }
        }
        depth
    }

    /// The oracle for [`integrate_span`]: the plain per-voxel loop that
    /// `continue`s past each failed test.
    #[allow(clippy::too_many_arguments)]
    fn reference_span(
        depth: &DepthImage,
        camera: &PinholeCamera,
        row_base: Vec3,
        dx_cam: Vec3,
        x0: usize,
        tsdf: &mut [f32],
        weight: &mut [f32],
        mu: f32,
        max_weight: f32,
    ) -> (f64, f64) {
        let mut ops: f64 = 0.0;
        let mut updated: f64 = 0.0;
        for (i, (t, w)) in tsdf.iter_mut().zip(weight.iter_mut()).enumerate() {
            let cam_p = row_base + dx_cam * ((x0 + i) as f32);
            ops += 4.0;
            if cam_p.z <= 0.001 {
                continue;
            }
            let u = camera.fx * cam_p.x / cam_p.z + camera.cx;
            let v = camera.fy * cam_p.y / cam_p.z + camera.cy;
            ops += 6.0;
            if u < -0.5 || v < -0.5 {
                continue;
            }
            let (ui, vi) = ((u + 0.5) as usize, (v + 0.5) as usize);
            if ui >= camera.width || vi >= camera.height {
                continue;
            }
            let d = depth.get(ui, vi);
            if !d.is_finite() || d <= 0.0 {
                continue;
            }
            let sdf = d - cam_p.z;
            if sdf < -mu {
                continue;
            }
            let tsdf_obs = (sdf / mu).min(1.0);
            let w_old = *w;
            let w_new = (w_old + 1.0).min(max_weight);
            *t = (*t * w_old + tsdf_obs) / (w_old + 1.0);
            *w = w_new;
            ops += 8.0;
            updated += 1.0;
        }
        (ops, updated)
    }

    /// A depth frame of random samples, a sixth of them NaN, ±inf, zero
    /// or negative.
    fn laced_depth(rng: &mut SplitMix64, cam: &PinholeCamera) -> DepthImage {
        let mut depth = Image2D::new(cam.width, cam.height, 0.0f32);
        for d in depth.as_mut_slice() {
            let pick = rng.next_u64() % 36;
            *d = match pick {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => rng.f32_in(-3.0, -1e-6),
                _ => rng.f32_in(0.05, 4.0),
            };
        }
        depth
    }

    /// A row geometry `(row_base, dx_cam)` of one of five kinds, named
    /// by the returned label.
    fn random_row(rng: &mut SplitMix64) -> (&'static str, Vec3, Vec3) {
        let kind = rng.next_u64() % 5;
        let unit = |rng: &mut SplitMix64| rng.f32_in(-1.0, 1.0);
        match kind {
            // a row of a volume seen from a random pose
            0 => {
                let (size, res) = (2.0, 128.0);
                let world_to_cam = random_pose(rng, size).inverse();
                let voxel = size / res;
                let (y, z) = (rng.f32_in(0.0, res).floor(), rng.f32_in(0.0, res).floor());
                let row_world = Vec3::new(0.5, y + 0.5, z + 0.5) * voxel;
                let dx = world_to_cam.rotation() * Vec3::new(voxel, 0.0, 0.0);
                ("posed", world_to_cam.transform_point(row_world), dx)
            }
            // starts behind the camera, may cross the near plane
            1 => {
                let base = Vec3::new(unit(rng), unit(rng), rng.f32_in(-3.0, 0.0005));
                let dx = Vec3::new(unit(rng), unit(rng), rng.f32_in(-0.5, 1.0)) * 0.02;
                ("behind", base, dx)
            }
            // hugs the near plane: one of `u`, `v` up to ±1e12, at a
            // log-uniform distance (past `i32` in about half the cases),
            // the other one mostly inside the image
            2 => {
                let z = rng.f32_in(0.0009, 0.003);
                let far = 10f32.powf(rng.f32_in(0.0, 7.0)) * unit(rng).signum();
                let near = unit(rng) * z;
                let (x, y) = if rng.next_u64().is_multiple_of(2) {
                    (far, near)
                } else {
                    (near, far)
                };
                let dx = Vec3::new(unit(rng), unit(rng), rng.f32_in(-1e-5, 1e-5));
                ("grazing", Vec3::new(x, y, z), dx)
            }
            // non-finite geometry, from a pose or directly
            3 => {
                let bad =
                    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(rng.next_u64() % 3) as usize];
                let pose = if rng.next_u64().is_multiple_of(2) {
                    Se3::from_translation(Vec3::new(bad, 1.0, 0.0))
                } else {
                    Se3::from_axis_angle(Vec3::Y, bad, Vec3::new(1.0, 1.0, 0.0))
                };
                let world_to_cam = pose.inverse();
                let row_world = Vec3::new(0.01, 1.0, rng.f32_in(0.1, 2.0));
                let mut dx = world_to_cam.rotation() * Vec3::new(0.02, 0.0, 0.0);
                if rng.next_u64().is_multiple_of(4) {
                    dx[(rng.next_u64() % 3) as usize] = bad;
                }
                ("non-finite", world_to_cam.transform_point(row_world), dx)
            }
            // in front, sweeping across the image
            _ => {
                let base = Vec3::new(rng.f32_in(-3.0, 0.5), unit(rng), rng.f32_in(0.2, 3.0));
                let dx = Vec3::new(rng.f32_in(0.0, 0.05), unit(rng) * 0.01, unit(rng) * 0.01);
                ("in front", base, dx)
            }
        }
    }

    #[test]
    fn integrate_span_matches_the_per_voxel_oracle() {
        let mut rng = SplitMix64(0x5ca7);
        let cams = [PinholeCamera::tiny(), PinholeCamera::tiny().scaled_down(4)];
        let (frames, cases) = if cfg!(miri) { (1, 200) } else { (4, 6_000) };
        let depths: Vec<Vec<DepthImage>> = cams
            .iter()
            .map(|cam| (0..frames).map(|_| laced_depth(&mut rng, cam)).collect())
            .collect();
        let edges = [63usize, 64, 65, 128];
        let mut scratch = SpanScratch::new();
        let (mut voxels, mut fused, mut capped, mut kept) = (0usize, 0usize, 0usize, 0usize);
        for case in 0..cases {
            let c = (rng.next_u64() % 2) as usize;
            let frame = rng.next_u64() as usize % frames;
            let (cam, depth) = (&cams[c], &depths[c][frame]);
            let (kind, row_base, dx_cam) = random_row(&mut rng);
            let len = if case % 5 == 0 {
                edges[case / 5 % edges.len()]
            } else {
                1 + (rng.next_u64() % 200) as usize
            };
            let x0 = if case % 3 == 0 {
                0
            } else {
                (rng.next_u64() % 300) as usize
            };
            let max_weight = [1.0, 1.5, 100.0][(rng.next_u64() % 3) as usize];
            let mu = [1e-6, 0.15, 0.6, 40.0][(rng.next_u64() % 4) as usize];
            // unobserved, observed, or observed at the cap
            let mut tsdf = vec![0.0f32; len];
            let mut weight = vec![0.0f32; len];
            for (t, w) in tsdf.iter_mut().zip(weight.iter_mut()) {
                match rng.next_u64() % 4 {
                    0 => *t = [0.0, 1.0][(rng.next_u64() % 2) as usize],
                    1 => {
                        *t = rng.f32_in(-1.0, 1.0);
                        *w = max_weight;
                    }
                    _ => {
                        *t = rng.f32_in(-1.0, 1.0);
                        *w = rng.f32_in(0.5, max_weight);
                    }
                }
            }
            let (old_t, old_w) = (bits(&tsdf), bits(&weight));
            let (mut want_t, mut want_w) = (tsdf.clone(), weight.clone());
            let want = reference_span(
                depth,
                cam,
                row_base,
                dx_cam,
                x0,
                &mut want_t,
                &mut want_w,
                mu,
                max_weight,
            );
            let got = integrate_span(
                depth,
                cam,
                row_base,
                dx_cam,
                x0,
                &mut tsdf,
                &mut weight,
                mu,
                max_weight,
                &mut scratch,
            );
            let what =
                format!("case {case} ({kind}): len {len}, x0 {x0}, mu {mu}, cap {max_weight}");
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: ops");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: updated");
            assert_eq!(bits(&tsdf), bits(&want_t), "{what}: tsdf");
            assert_eq!(bits(&weight), bits(&want_w), "{what}: weight");
            voxels += len;
            fused += want.1 as usize;
            for i in 0..len {
                let observed = old_w[i] != 0;
                let changed = want_t[i].to_bits() != old_t[i];
                capped += usize::from(f32::from_bits(old_w[i]) == max_weight && changed);
                kept += usize::from(observed && !changed && want_w[i].to_bits() == old_w[i]);
            }
        }
        // the cases reach every outcome: fused, capped, left alone
        assert!(fused * 20 > voxels, "{fused} of {voxels} voxels fused");
        assert!(capped > 0 && kept > 0, "{capped} capped, {kept} kept");
    }

    /// The unclipped kernel: the oracle over every whole row.
    fn reference_integrate(
        vol: &mut TsdfVolume,
        depth: &DepthImage,
        cam: &PinholeCamera,
        pose: &Se3,
        mu: f32,
    ) -> Workload {
        // the entry rejects a non-finite pose before any row runs
        if !pose.is_finite() {
            return Workload::ZERO;
        }
        let world_to_cam = pose.inverse();
        let (res, voxel) = (vol.resolution, vol.voxel);
        let dx_cam = world_to_cam.rotation() * Vec3::new(voxel, 0.0, 0.0);
        let (mut ops, mut updated) = (0.0, 0.0);
        for z in 0..res {
            for y in 0..res {
                let row_world = Vec3::new(
                    0.5 * voxel,
                    (y as f32 + 0.5) * voxel,
                    (z as f32 + 0.5) * voxel,
                );
                let row_base = world_to_cam.transform_point(row_world);
                let at = vol.index(0, y, z);
                let (o, u) = reference_span(
                    depth,
                    cam,
                    row_base,
                    dx_cam,
                    0,
                    &mut vol.tsdf[at..at + res],
                    &mut vol.weight[at..at + res],
                    mu,
                    100.0,
                );
                ops += o;
                updated += u;
            }
        }
        vol.rebuild_summary();
        Workload::new(ops, (res * res * res) as f64 * 2.0 + updated * 16.0)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that the incrementally kept summary equals a rebuild.
    fn assert_summary_exact(vol: &TsdfVolume, what: &str) {
        let mut rebuilt = vol.clone();
        rebuilt.rebuild_summary();
        assert!(
            vol.voxel_free == rebuilt.voxel_free,
            "{what}: voxel bits stale"
        );
        assert!(
            vol.cell_free == rebuilt.cell_free,
            "{what}: cell bits stale"
        );
    }

    /// Counts the interpolation cells that are free (their bit is set),
    /// unobserved (no corner observed) and mixed (anything else).
    fn cell_classes(vol: &TsdfVolume) -> [usize; 3] {
        let res = vol.resolution;
        let mut counts = [0; 3];
        for z in 0..res - 1 {
            for y in 0..res - 1 {
                for x in 0..res - 1 {
                    let observed = (0..8).any(|i| {
                        vol.voxel_weight(x + (i & 1), y + ((i >> 1) & 1), z + (i >> 2)) > 0.0
                    });
                    counts[if vol.cell_is_free(x, y, z) {
                        0
                    } else if observed {
                        2
                    } else {
                        1
                    }] += 1;
                }
            }
        }
        counts
    }

    /// Camera poses every clipping path must get right.
    fn clip_poses(size: f32, random: usize) -> Vec<(String, Se3)> {
        let c = Vec3::splat(0.5 * size);
        // exact axis permutations: zero slopes in the row geometry
        let axis_aligned = [
            Mat3::from_col_vecs(Vec3::X, Vec3::Y, Vec3::Z),
            Mat3::from_col_vecs(Vec3::Y, Vec3::Z, Vec3::X),
            Mat3::from_col_vecs(Vec3::Z, Vec3::X, Vec3::Y),
            Mat3::from_col_vecs(-Vec3::X, Vec3::Y, -Vec3::Z),
            Mat3::from_col_vecs(Vec3::X, -Vec3::Z, Vec3::Y),
        ];
        let mut poses: Vec<(String, Se3)> = axis_aligned
            .iter()
            .enumerate()
            .map(|(i, &r)| (format!("axis-aligned {i}"), Se3::new(r, c)))
            .collect();
        let outside = Vec3::new(0.5 * size, 0.5 * size, -1.5 * size);
        poses.push(("outside, facing in".into(), Se3::from_translation(outside)));
        let away = Mat3::from_col_vecs(-Vec3::X, Vec3::Y, -Vec3::Z);
        poses.push(("outside, facing away".into(), Se3::new(away, outside)));
        poses.push((
            "far outside".into(),
            Se3::from_translation(Vec3::splat(50.0)),
        ));
        let nan = Vec3::new(f32::NAN, 0.5, 0.5);
        poses.push(("non-finite".into(), Se3::from_translation(nan)));
        let mut rng = SplitMix64(0x7d5f);
        for i in 0..random {
            poses.push((format!("random {i}"), random_pose(&mut rng, size)));
        }
        poses
    }

    #[test]
    fn clipped_integrate_matches_full_rows() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let mu = 0.15;
        // 100³ fuses in 13 bands: its cell layers derive inside the
        // bands and across 12 band seams
        let resolutions: &[usize] = if cfg!(miri) {
            &[16, 20]
        } else {
            &[16, 20, 64, 100]
        };
        for &res in resolutions {
            let size = 2.0;
            let random = if cfg!(miri) { 2 } else { 12 };
            let poses = clip_poses(size, random);
            let mut vol = TsdfVolume::new(res, size);
            let mut reference = vol.clone();
            let mut clipped_rows = false;
            // one volume accumulates every pose, so later frames fuse
            // into observed, free and mixed regions alike
            for (what, pose) in &poses {
                let what = format!("{res}³, {what}");
                let work = vol.integrate(&depth, &cam, pose, mu, 100.0, 1, Tracer::off());
                let want = reference_integrate(&mut reference, &depth, &cam, pose, mu);
                assert_eq!(bits(&vol.tsdf), bits(&reference.tsdf), "{what}: tsdf");
                assert_eq!(bits(&vol.weight), bits(&reference.weight), "{what}: weight");
                assert_eq!(work.ops.to_bits(), want.ops.to_bits(), "{what}: ops");
                assert_eq!(work.bytes.to_bits(), want.bytes.to_bits(), "{what}: bytes");
                assert_summary_exact(&vol, &what);
                let world_to_cam = pose.inverse();
                let dx_cam = world_to_cam.rotation() * Vec3::new(vol.voxel, 0.0, 0.0);
                let row_base = world_to_cam.transform_point(Vec3::splat(0.5 * vol.voxel));
                clipped_rows |= row_span(row_base, dx_cam, res, &cam).len() < res;
            }
            assert!(clipped_rows, "{res}³: no row was clipped");
            let [free, _, mixed] = cell_classes(&vol);
            assert!(free > 0, "{res}³: no free cell");
            assert!(mixed > 0, "{res}³: no mixed cell");
        }
    }

    #[test]
    fn row_span_falls_back_to_whole_rows_on_non_finite_geometry() {
        let cam = PinholeCamera::tiny();
        let nan = Vec3::new(0.0, f32::NAN, 1.0);
        assert_eq!(row_span(nan, Vec3::X, 20, &cam), 0..20);
        assert_eq!(
            row_span(Vec3::Z, Vec3::splat(f32::INFINITY), 20, &cam),
            0..20
        );
        // behind the camera with a zero slope: nothing to visit
        assert_eq!(row_span(-Vec3::Z, Vec3::X * 0.1, 20, &cam), 0..0);
        // straight ahead: the span is segment-aligned and covers the centre
        let span = row_span(Vec3::new(-1.0, 0.0, 2.0), Vec3::X * 0.1, 20, &cam);
        assert_eq!(span.start % BLOCK, 0);
        assert!(span.contains(&10), "{span:?}");
    }

    #[test]
    fn sample_with_summary_matches_voxel_reads() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        // a wall seen head-on leaves whole blocks free in front of it
        let mut vol = integrated_wall(64, 2.0, 1.6, 2);
        let mut rng = SplitMix64(0x5a17);
        for _ in 0..2 {
            let pose = random_pose(&mut rng, 2.0);
            vol.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
        }
        let [free, unobserved, mixed] = cell_classes(&vol);
        assert!(free > 0, "no free cell");
        assert!(unobserved > 0, "no unobserved cell");
        assert!(mixed > 0, "no mixed cell");
        let mut plain = vol.clone();
        plain.clear_summary();
        let samples = if cfg!(miri) { 500 } else { 20_000 };
        for _ in 0..samples {
            let p = Vec3::new(
                rng.f32_in(-0.1, 2.1),
                rng.f32_in(-0.1, 2.1),
                rng.f32_in(-0.1, 2.1),
            );
            let (got, want) = (vol.sample(p), plain.sample(p));
            assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "at {p}");
        }
    }

    #[test]
    fn dumps_restore_the_summary() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let mut vol = TsdfVolume::new(20, 2.0);
        let mut rng = SplitMix64(0xd0);
        for _ in 0..3 {
            vol.integrate(
                &depth,
                &cam,
                &random_pose(&mut rng, 2.0),
                0.15,
                100.0,
                0,
                Tracer::off(),
            );
        }
        let legacy = TsdfVolume::from_bytes(&vol.to_bytes()).expect("legacy dump");
        let v3 = crate::volume::VolumeStorage::Dense(vol.clone()).to_bytes();
        let v3 = crate::volume::VolumeStorage::from_bytes(&v3).expect("v3 dump");
        let v3 = v3.as_dense().expect("dense dump").clone();
        for (what, back) in [("legacy", legacy), ("v3", v3)] {
            assert!(back.voxel_free == vol.voxel_free, "{what}: voxel bits");
            assert!(back.cell_free == vol.cell_free, "{what}: cell bits");
        }
    }

    #[test]
    fn zero_initialised_storage_matches_the_filled_representation() {
        use crate::mesh::marching_cubes;
        use crate::raycast::{raycast, RaycastParams};
        use crate::volume::VolumeStorage;
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let (size, mu) = (2.0, 0.15);
        let (res, frames, samples, thread_counts, view): (usize, usize, usize, &[usize], _) =
            if cfg!(miri) {
                (16, 2, 50, &[1, 7], cam.scaled_down(4))
            } else {
                (40, 6, 2_000, &[1, 2, 7], cam)
            };
        let mut rng = SplitMix64(0x2e70);
        let fresh = TsdfVolume::new(res, size);
        for _ in 0..samples {
            let p = Vec3::new(
                rng.f32_in(0.0, size),
                rng.f32_in(0.0, size),
                rng.f32_in(0.0, size),
            );
            assert_eq!(fresh.sample(p), None, "sample at {p}");
            assert_eq!(fresh.gradient(p), None, "gradient at {p}");
            let voxel = |c: f32| ((c / fresh.voxel) as usize).min(res - 1);
            assert_eq!(fresh.voxel_tsdf(voxel(p.x), voxel(p.y), voxel(p.z)), 1.0);
        }
        // a head-on view that surely fuses, then random ones
        let mut poses = vec![Se3::from_translation(Vec3::new(1.0, 1.0, 0.0))];
        poses.extend((1..frames).map(|_| random_pose(&mut rng, size)));
        let params = RaycastParams {
            near: 0.1,
            far: 4.0,
            step_fraction: 0.5,
            mu,
        };
        let n = res * res * res;
        for &threads in thread_counts {
            let mut zeroed = TsdfVolume::new(res, size);
            let mut filled = TsdfVolume::from_raw(res, size, vec![1.0; n], vec![0.0; n]);
            for (i, pose) in poses.iter().enumerate() {
                let what = format!("{threads} threads, frame {i}");
                let got = zeroed.integrate(&depth, &cam, pose, mu, 100.0, threads, Tracer::off());
                let want = filled.integrate(&depth, &cam, pose, mu, 100.0, threads, Tracer::off());
                assert_eq!(got.ops.to_bits(), want.ops.to_bits(), "{what}: ops");
                assert_eq!(got.bytes.to_bits(), want.bytes.to_bits(), "{what}: bytes");
                assert!(zeroed.voxel_free == filled.voxel_free, "{what}: voxel bits");
                assert!(zeroed.cell_free == filled.cell_free, "{what}: cell bits");
                let (got, got_work) =
                    raycast(&zeroed, &view, pose, &params, threads, Tracer::off());
                let (want, want_work) =
                    raycast(&filled, &view, pose, &params, threads, Tracer::off());
                assert_eq!(got.vertices, want.vertices, "{what}: vertices");
                assert_eq!(got.normals, want.normals, "{what}: normals");
                assert_eq!(got_work.ops.to_bits(), want_work.ops.to_bits(), "{what}");
                assert_eq!(
                    got_work.bytes.to_bits(),
                    want_work.bytes.to_bits(),
                    "{what}"
                );
            }
            assert!(zeroed.occupied_voxels() > 0, "nothing fused");
            assert_eq!(zeroed.to_bytes(), filled.to_bytes(), "legacy dump");
            let v3 = |v: &TsdfVolume| VolumeStorage::Dense(v.clone()).to_bytes();
            assert_eq!(v3(&zeroed), v3(&filled), "v3 dump");
            let got = marching_cubes(&zeroed, threads, Tracer::off());
            let want = marching_cubes(&filled, threads, Tracer::off());
            assert!(!want.is_empty(), "no surface to mesh");
            assert_eq!(got.vertices, want.vertices, "mesh vertices");
            assert_eq!(got.triangles, want.triangles, "mesh triangles");
        }
    }

    /// Asserts every summary bit against its definition, read from the
    /// voxels: a voxel bit is set iff the voxel is observed with
    /// `tsdf == 1.0`, a cell bit iff all eight corners of a cell inside
    /// the volume are; every padding bit is clear.
    fn assert_bits_follow_the_rule(vol: &TsdfVolume, what: &str) {
        let (res, words) = (vol.resolution, vol.row_words);
        let free = |x: usize, y: usize, z: usize| {
            let i = vol.index(x, y, z);
            vol.weight[i] > 0.0 && vol.tsdf[i] == 1.0
        };
        for z in 0..res {
            for y in 0..res {
                for x in 0..64 * words {
                    let (k, bit) = ((z * res + y) * words + x / 64, x % 64);
                    let voxel = x < res && free(x, y, z);
                    assert_eq!(
                        vol.voxel_free[k] >> bit & 1 != 0,
                        voxel,
                        "{what}: voxel bit {x}"
                    );
                    let inside = x + 1 < res && y + 1 < res && z + 1 < res;
                    let cell = inside
                        && (0..8).all(|i| free(x + (i & 1), y + ((i >> 1) & 1), z + (i >> 2)));
                    assert_eq!(
                        vol.cell_free[k] >> bit & 1 != 0,
                        cell,
                        "{what}: cell ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_bits_are_exact_across_word_edges() {
        let cam = PinholeCamera::tiny();
        let size = 2.0;
        // looking along +x at a wall beyond the volume frees whole rows,
        // up to the far face x = res - 1
        let far = Image2D::new(cam.width, cam.height, 5.0f32);
        let along_x = Se3::look_at(Vec3::new(-1.0, 1.0, 1.0), Vec3::new(2.0, 1.0, 1.0), Vec3::Y);
        let mut rng = SplitMix64(0x64b1);
        let mut frames = vec![(far, along_x)];
        for _ in 0..3 {
            frames.push((structured_depth(&cam), random_pose(&mut rng, size)));
        }
        // 33 and 48 pad their one word, 64 fills it, 100 straddles two
        for res in [33usize, 48, 64, 100] {
            let run = |threads: usize| {
                let mut vol = TsdfVolume::new(res, size);
                for (i, (depth, pose)) in frames.iter().enumerate() {
                    vol.integrate(depth, &cam, pose, 0.15, 100.0, threads, Tracer::off());
                    assert_summary_exact(&vol, &format!("{res}³, {threads} threads, frame {i}"));
                }
                vol
            };
            let vol = run(1);
            assert_bits_follow_the_rule(&vol, &format!("{res}³"));
            for threads in [2, 7] {
                let other = run(threads);
                assert!(
                    other.voxel_free == vol.voxel_free,
                    "{res}³, {threads} threads"
                );
                assert!(
                    other.cell_free == vol.cell_free,
                    "{res}³, {threads} threads"
                );
            }
            // the free cells reach the last cell of a row and, at 100³,
            // both sides of the word boundary
            let mut edges = vec![res - 2];
            if res > 65 {
                edges.extend([63, 64]);
            }
            for x in edges.iter().copied() {
                let any = (0..res - 1).any(|z| (0..res - 1).any(|y| vol.cell_is_free(x, y, z)));
                assert!(any, "{res}³: no free cell at x = {x}");
            }
            let [free, _, mixed] = cell_classes(&vol);
            assert!(
                free > 0 && mixed > 0,
                "{res}³: {free} free, {mixed} mixed cells"
            );
            let mut plain = vol.clone();
            plain.clear_summary();
            let voxel = vol.voxel;
            edges.extend([0, 62, 63, res - 3]);
            for i in 0..40_000 {
                let mut c = || rng.f32_in(-0.1, size + 0.1);
                let mut p = Vec3::new(c(), c(), c());
                match i % 8 {
                    // a NaN point reads the cell at index 0 of that axis
                    0 => p[i / 8 % 3] = f32::NAN,
                    // inside or beside the edge cells
                    1..=3 => {
                        p.x = (edges[i % edges.len()] as f32 + 0.5 + rng.f32_in(-0.5, 1.5)) * voxel
                    }
                    _ => {}
                }
                let (got, want) = (vol.sample(p), plain.sample(p));
                assert_eq!(
                    got.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "{res}³ at {p}"
                );
            }
        }
    }
}
