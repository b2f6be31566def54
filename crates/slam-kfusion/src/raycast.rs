//! Surface prediction: raycasting the TSDF volume into vertex and normal
//! maps.
//!
//! The raycast output is the reference "model" the ICP tracker aligns each
//! new frame against; its quality (and cost) depends on the volume
//! resolution and `mu`, which is one of the key levers in the paper's
//! performance–accuracy trade-off.

use crate::image::{Image2D, NormalMap, VertexMap};
use crate::volume::{RayBundle, Volume};
use crate::workload::Workload;
use slam_math::camera::PinholeCamera;
use slam_math::{Se3, Vec3};
use slam_trace::Tracer;
use std::ops::Range;

/// The raycast model prediction: per-pixel world-frame surface points and
/// normals. Invalid pixels hold zero vectors (tested via
/// [`RaycastResult::is_valid`]).
#[derive(Debug, Clone)]
pub struct RaycastResult {
    /// World-frame surface points.
    pub vertices: VertexMap,
    /// World-frame outward surface normals (unit length where valid).
    pub normals: NormalMap,
    /// The camera-to-world pose the rays were cast from.
    pub pose: Se3,
}

impl RaycastResult {
    /// True when pixel `(x, y)` found a surface.
    pub fn is_valid(&self, x: usize, y: usize) -> bool {
        self.normals.get(x, y).norm_squared() > 0.25
    }

    /// Fraction of pixels that found a surface.
    pub fn valid_fraction(&self) -> f32 {
        if self.normals.is_empty() {
            return 0.0;
        }
        let valid = self
            .normals
            .as_slice()
            .iter()
            .filter(|n| n.norm_squared() > 0.25)
            .count();
        valid as f32 / self.normals.len() as f32
    }
}

/// Raycasting parameters.
#[derive(Debug, Clone, Copy)]
pub struct RaycastParams {
    /// Near clipping distance in metres.
    pub near: f32,
    /// Far clipping distance in metres.
    pub far: f32,
    /// Step length as a fraction of `mu` while marching in free space.
    pub step_fraction: f32,
    /// TSDF truncation distance (metres), for step sizing.
    pub mu: f32,
}

impl Default for RaycastParams {
    fn default() -> RaycastParams {
        RaycastParams {
            near: 0.3,
            far: 6.0,
            step_fraction: 0.5,
            mu: 0.1,
        }
    }
}

/// Casts one ray through the volume. Returns the world-space hit point,
/// or `None` if the ray leaves the far plane or never sees observed space
/// with a zero crossing. Adds the number of samples taken to `steps`
/// (for workload accounting) and the number of them `prefix` answered
/// to `skipped`.
///
/// `prefix` is `ts[..=K]` of the frame's free-sample sequence (empty for
/// none): the ray's first `K` samples are proven free, so when the ray
/// starts at `ts[0]` it takes them at once and marches on from `ts[K]`,
/// exactly as stepping through them would have left it.
fn march_ray<V: Volume + ?Sized>(
    volume: &V,
    origin: Vec3,
    dir: Vec3,
    params: &RaycastParams,
    prefix: &[f32],
    steps: &mut u32,
    skipped: &mut u32,
) -> Option<Vec3> {
    // clip the ray against the volume's AABB so misses cost nothing and
    // hits only march the in-volume segment (as the original KinectFusion
    // raycaster does)
    let (t_enter, t_exit) = ray_aabb(origin, dir, volume.size())?;
    let step = (params.mu * params.step_fraction).max(volume.voxel_size() * 0.5);
    let mut t = params.near.max(t_enter);
    let t_far = params.far.min(t_exit);
    let mut prev: Option<(f32, f32)> = None; // (t, tsdf)
    if let [first, .., _] = prefix {
        if first.to_bits() == t.to_bits() {
            let k = prefix.len() - 1;
            // the proven samples the march takes before `t_far` stops it
            let taken = prefix[..k].partition_point(|&s| s < t_far);
            *steps += taken as u32;
            *skipped += taken as u32;
            if taken < k {
                return None;
            }
            t = prefix[k];
            prev = Some((prefix[k - 1], 1.0));
        }
    }
    while t < t_far {
        *steps += 1;
        let p = origin + dir * t;
        match volume.sample(p) {
            Some(v) => {
                if let Some((pt, pv)) = prev {
                    if pv > 0.0 && v <= 0.0 {
                        // zero crossing between pt and t: linear interpolation
                        let tt = pt + (t - pt) * pv / (pv - v);
                        return Some(origin + dir * tt);
                    }
                }
                // started inside the surface: no visible front face
                if prev.is_none() && v <= 0.0 {
                    return None;
                }
                prev = Some((t, v));
                // adaptive step: far from the surface we can stride at
                // almost the truncation distance
                t += if v > 0.8 { params.mu * 0.8 } else { step };
            }
            None => {
                prev = None;
                // a sparse backend can certify a longer leap through
                // unallocated bricks; the dense backend returns 0.0 and
                // falls back to the plain step
                t += volume.free_space_skip(p, dir).max(step);
            }
        }
    }
    None
}

/// Intersects a ray with the volume cube `[0, size]³`; returns the
/// in-volume parameter interval, or `None` when the ray misses entirely.
fn ray_aabb(origin: Vec3, dir: Vec3, size: f32) -> Option<(f32, f32)> {
    let mut t_enter = 0.0f32;
    let mut t_exit = f32::INFINITY;
    for axis in 0..3 {
        let o = origin[axis];
        let d = dir[axis];
        if d.abs() < 1e-9 {
            if o < 0.0 || o > size {
                return None;
            }
            continue;
        }
        let t0 = (0.0 - o) / d;
        let t1 = (size - o) / d;
        let (lo, hi) = if t0 < t1 { (t0, t1) } else { (t1, t0) };
        t_enter = t_enter.max(lo);
        t_exit = t_exit.min(hi);
        if t_enter > t_exit {
            return None;
        }
    }
    Some((t_enter, t_exit))
}

/// The sample parameters every ray shares while it reads free cells:
/// `T₀ = near` (the start of any ray from a camera strictly inside the
/// volume, whose `ray_aabb` entry is 0) and `Tᵢ₊₁ = Tᵢ + μ·0.8` in `f32`,
/// the marcher's own sum, up to the first past the far plane or the
/// volume's far corner. Empty when no ray can start at `T₀` that way:
/// from a camera outside the volume or on its faces, or with a step that
/// does not advance.
fn free_samples<V: Volume + ?Sized>(volume: &V, origin: Vec3, params: &RaycastParams) -> Vec<f32> {
    let size = volume.size();
    let o = [origin.x, origin.y, origin.z];
    if !o.iter().all(|&c| c > 0.0 && c < size) {
        return Vec::new();
    }
    // no ray leaves the volume later than its far corner
    let reach = o
        .iter()
        .map(|&c| c.max(size - c).powi(2))
        .sum::<f32>()
        .sqrt()
        * 1.01
        + volume.voxel_size();
    let end = params.far.min(reach);
    let mut t = params.near.max(0.0);
    let mut ts = vec![t];
    while t < end {
        let next = t + params.mu * 0.8;
        let advances = next > t;
        if !advances {
            return Vec::new();
        }
        t = next;
        ts.push(t);
    }
    ts
}

/// Side in pixels of the square tiles whose rays share one free prefix.
const TILE: usize = 8;

/// `ts[..=K]` for the rays through pixels `xs × ys`, `K` their free
/// prefix in `volume` ([`Volume::free_prefix`]); empty when `K = 0`.
fn tile_prefix<'a, V: Volume + ?Sized>(
    volume: &V,
    camera: &PinholeCamera,
    pose: &Se3,
    ts: &'a [f32],
    xs: Range<usize>,
    ys: Range<usize>,
) -> &'a [f32] {
    let Some((_, samples)) = ts.split_last() else {
        return &[];
    };
    if samples.is_empty() {
        return &[];
    }
    match tile_rays(camera, pose, xs, ys).map_or(0, |rays| volume.free_prefix(&rays, samples)) {
        0 => &[],
        k => &ts[..=k],
    }
}

/// The exact directions of the rays through pixels `xs × ys` from
/// `pose`, as a [`RayBundle`].
///
/// Every such direction is `R·v/|v|` with `v = ((x − cx)/fx,
/// (y − cy)/fy, 1)`. The `v` of the rectangle's pixels lie in the
/// convex cone of half-angle `β` about the centre's direction `c`, `β`
/// the widest angle to a corner (convex while `β < π/2`; wider tiles get
/// `None`). For a row `r` of `R` at angle `α` to `c`, `r·u` over that
/// cone is `|r|·cos θ` with `θ ∈ [α − β, α + β] ∩ [0, π]`, expanded
/// below with the sines and cosines of `α` and `β` from dot and cross
/// products. The `f32` `ray_direction` and rotation err by under
/// `6ε·|r|` per component; `dir_err` allows `32ε`, which also covers
/// the rounding of this `f64` arithmetic.
fn tile_rays(
    camera: &PinholeCamera,
    pose: &Se3,
    xs: Range<usize>,
    ys: Range<usize>,
) -> Option<RayBundle> {
    let unit = |x: f64, y: f64| {
        let v = [
            (x - f64::from(camera.cx)) / f64::from(camera.fx),
            (y - f64::from(camera.cy)) / f64::from(camera.fy),
            1.0,
        ];
        v.map(|c| c / dot(v, v).sqrt())
    };
    let (x0, x1) = (xs.start as f64, (xs.end - 1) as f64);
    let (y0, y1) = (ys.start as f64, (ys.end - 1) as f64);
    let c = unit((x0 + x1) / 2.0, (y0 + y1) / 2.0);
    // the widest corner has the smallest cosine and the largest sine
    let (mut cos_b, mut sin_b) = (1.0f64, 0.0f64);
    for (x, y) in [(x0, y0), (x1, y0), (x0, y1), (x1, y1)] {
        let u = unit(x, y);
        cos_b = cos_b.min(dot(u, c));
        sin_b = sin_b.max(norm(cross(u, c)));
    }
    let convex = cos_b > 0.5;
    if !convex {
        return None;
    }
    let rot = pose.rotation();
    let mut bundle = RayBundle {
        origin: pose.translation(),
        dir_lo: [0.0; 3],
        dir_hi: [0.0; 3],
        dir_err: 0.0,
    };
    let mut scale = 1.0f64;
    for a in 0..3 {
        let r = rot.row(a);
        let r = [r.x, r.y, r.z].map(f64::from);
        let (cos_a, sin_a) = (dot(r, c), norm(cross(r, c)));
        let n = norm(r);
        // cos(α − β) unless α ≤ β, cos(α + β) unless α + β ≥ π
        bundle.dir_hi[a] = if cos_a >= n * cos_b {
            n
        } else {
            cos_a * cos_b + sin_a * sin_b
        };
        bundle.dir_lo[a] = if cos_a <= -n * cos_b {
            -n
        } else {
            cos_a * cos_b - sin_a * sin_b
        };
        scale = scale.max(n);
    }
    bundle.dir_err = 32.0 * f64::from(f32::EPSILON) * scale;
    Some(bundle)
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

/// Raycasts the volume from `pose`, producing the model maps for ICP.
/// Works over any [`Volume`] backend.
///
/// Runs on the shared [`slam_exec`] worker pool with up to `threads`
/// threads (`0` = all available) over fixed bands of whole 8-row tile
/// rows, recording a `raycast` kernel span plus per-band spans into
/// `tracer`. Every pixel is written exactly once and the band layout
/// depends only on the image height, so the output is bit-identical for
/// every thread count, traced or not.
///
/// The image splits into 8×8-pixel tiles (partial at its bottom and
/// right edges). A tile first asks the volume
/// for the free prefix of its rays ([`Volume::free_prefix`]), a pure
/// function of the tile, the pose and the volume; its rays then skip
/// those samples with the result and step count of marching them. A
/// pose with a non-finite component casts no ray: all-zero maps and
/// [`Workload::ZERO`]. A traced run counts `raycast.steps`,
/// `raycast.skipped_steps` (the samples the tile bounds answered) and
/// `raycast.valid_px`.
pub fn raycast<V: Volume + Sync + ?Sized>(
    volume: &V,
    camera: &PinholeCamera,
    pose: &Se3,
    params: &RaycastParams,
    threads: usize,
    tracer: &Tracer,
) -> (RaycastResult, Workload) {
    let _kernel = tracer.kernel_span("raycast");
    let (w, h) = (camera.width, camera.height);
    let mut vertices = Image2D::new(w, h, Vec3::ZERO);
    let mut normals = Image2D::new(w, h, Vec3::ZERO);
    if !pose.is_finite() {
        let result = RaycastResult {
            vertices,
            normals,
            pose: *pose,
        };
        return (result, Workload::ZERO);
    }
    let origin = pose.translation();
    let ts = free_samples(volume, origin, params);
    let ts = ts.as_slice();
    let threads = slam_exec::effective_threads(threads);
    let mut tasks: Vec<slam_exec::Task<'_, [u64; 3]>> = Vec::new();
    {
        let mut v_rest: &mut [Vec3] = vertices.as_mut_slice();
        let mut n_rest: &mut [Vec3] = normals.as_mut_slice();
        // bands of whole tile rows
        for tiles in slam_exec::band_ranges(h.div_ceil(TILE)) {
            let band = tiles.start * TILE..(tiles.end * TILE).min(h);
            let (v_band, v_next) = v_rest.split_at_mut(band.len() * w);
            let (n_band, n_next) = n_rest.split_at_mut(band.len() * w);
            v_rest = v_next;
            n_rest = n_next;
            tasks.push(Box::new(move || {
                // steps, skipped steps, valid pixels
                let mut counts = [0u64; 3];
                for ty in band.clone().step_by(TILE) {
                    let ys = ty..(ty + TILE).min(band.end);
                    for tx in (0..w).step_by(TILE) {
                        let xs = tx..(tx + TILE).min(w);
                        let prefix = tile_prefix(volume, camera, pose, ts, xs.clone(), ys.clone());
                        for (y, x) in ys.clone().flat_map(|y| xs.clone().map(move |x| (y, x))) {
                            let dir =
                                pose.transform_vector(camera.ray_direction(x as f32, y as f32));
                            let (mut steps, mut skipped) = (0u32, 0u32);
                            let hit = march_ray(
                                volume,
                                origin,
                                dir,
                                params,
                                prefix,
                                &mut steps,
                                &mut skipped,
                            )
                            .and_then(|hit| Some((hit, volume.gradient(hit)?.normalized()?)));
                            if let Some((hit, n)) = hit {
                                let i = (y - band.start) * w + x;
                                v_band[i] = hit;
                                n_band[i] = n;
                                counts[2] += 1;
                            }
                            counts[0] += u64::from(steps);
                            counts[1] += u64::from(skipped);
                        }
                    }
                }
                counts
            }));
        }
    }
    let [total_steps, skipped, valid] = slam_exec::run_tasks(tracer, "raycast", threads, tasks)
        .into_iter()
        .fold([0u64; 3], |acc, c| std::array::from_fn(|i| acc[i] + c[i]));
    tracer.counter("raycast.steps", total_steps);
    tracer.counter("raycast.skipped_steps", skipped);
    tracer.counter("raycast.valid_px", valid);
    // per step: one trilinear sample (~30 ops, 8 voxel reads) — this is the
    // dominant cost; plus per-pixel setup and the gradient at the hit
    let ops = total_steps as f64 * 30.0 + (w * h) as f64 * 20.0;
    let bytes = total_steps as f64 * 8.0 * 4.0 + (w * h) as f64 * 24.0;
    (
        RaycastResult {
            vertices,
            normals,
            pose: *pose,
        },
        Workload::new(ops, bytes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image2D;
    use crate::tsdf::tests::{random_pose, structured_depth, SplitMix64};
    use crate::tsdf::TsdfVolume;
    use crate::tsdf_sparse::SparseTsdfVolume;
    use slam_math::Mat3;
    use std::collections::BTreeMap;

    /// Builds a volume with a wall at z = 1 m integrated from the pose the
    /// test raycasts from.
    fn wall_volume() -> (TsdfVolume, PinholeCamera, Se3) {
        let cam = PinholeCamera::tiny();
        let mut vol = TsdfVolume::new(64, 2.0);
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        for _ in 0..3 {
            vol.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
        }
        (vol, cam, pose)
    }

    fn params() -> RaycastParams {
        RaycastParams {
            near: 0.3,
            far: 3.0,
            step_fraction: 0.5,
            mu: 0.15,
        }
    }

    #[test]
    fn raycast_recovers_wall_depth() {
        let (vol, cam, pose) = wall_volume();
        let (result, work) = raycast(&vol, &cam, &pose, &params(), 0, Tracer::off());
        assert!(work.ops > 0.0);
        let centre = result.vertices.get(cam.width / 2, cam.height / 2);
        // wall surface is the plane z = 1 (world)
        assert!((centre.z - 1.0).abs() < 0.03, "hit at z={}", centre.z);
        assert!(result.is_valid(cam.width / 2, cam.height / 2));
    }

    #[test]
    fn raycast_normals_face_camera() {
        let (vol, cam, pose) = wall_volume();
        let (result, _) = raycast(&vol, &cam, &pose, &params(), 0, Tracer::off());
        let n = result.normals.get(cam.width / 2, cam.height / 2);
        // outward normal of the wall faces -z (towards the camera);
        // tsdf gradient points from inside (-) to outside (+) = towards camera
        assert!(n.z < -0.9, "normal {n}");
        assert!((n.norm() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn raycast_mostly_valid_for_wall() {
        let (vol, cam, pose) = wall_volume();
        let (result, _) = raycast(&vol, &cam, &pose, &params(), 0, Tracer::off());
        assert!(
            result.valid_fraction() > 0.7,
            "valid {}",
            result.valid_fraction()
        );
    }

    #[test]
    fn empty_volume_yields_no_hits() {
        let cam = PinholeCamera::tiny();
        let vol = TsdfVolume::new(32, 2.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let (result, _) = raycast(&vol, &cam, &pose, &params(), 0, Tracer::off());
        assert_eq!(result.valid_fraction(), 0.0);
    }

    #[test]
    fn raycast_from_shifted_pose_sees_consistent_geometry() {
        let (vol, cam, pose) = wall_volume();
        // move 10 cm towards the wall: predicted depth shrinks by 10 cm
        let closer = Se3::from_translation(Vec3::new(1.0, 1.0, 0.1));
        let (result, _) = raycast(&vol, &cam, &closer, &params(), 0, Tracer::off());
        let centre = result.vertices.get(cam.width / 2, cam.height / 2);
        assert!(
            (centre.z - 1.0).abs() < 0.03,
            "world-space hit stays at the wall"
        );
        let _ = pose;
    }

    #[test]
    fn raycast_is_thread_count_invariant() {
        let (vol, cam, pose) = wall_volume();
        let (reference, ref_work) = raycast(&vol, &cam, &pose, &params(), 1, Tracer::off());
        for threads in [2usize, 4, 7] {
            let (result, work) = raycast(&vol, &cam, &pose, &params(), threads, Tracer::off());
            assert_eq!(
                result.vertices, reference.vertices,
                "{threads} threads diverged"
            );
            assert_eq!(
                result.normals, reference.normals,
                "{threads} threads diverged"
            );
            assert_eq!(work.ops.to_bits(), ref_work.ops.to_bits());
        }
    }

    #[test]
    fn sparse_backend_recovers_wall_and_skips_free_space() {
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut dense = TsdfVolume::new(64, 2.0);
        let mut sparse = SparseTsdfVolume::new(64, 2.0);
        for _ in 0..3 {
            dense.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
            sparse.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
        }
        let (dr, dw) = raycast(&dense, &cam, &pose, &params(), 0, Tracer::off());
        let (sr, sw) = raycast(&sparse, &cam, &pose, &params(), 0, Tracer::off());
        assert!(sr.valid_fraction() > 0.7, "valid {}", sr.valid_fraction());
        // both backends must land on the same wall
        let dc = dr.vertices.get(cam.width / 2, cam.height / 2);
        let sc = sr.vertices.get(cam.width / 2, cam.height / 2);
        assert!(
            (dc.z - sc.z).abs() < 0.02,
            "dense z={} sparse z={}",
            dc.z,
            sc.z
        );
        // the sparse march leaps unallocated bricks, so it takes fewer
        // steps (its workload counts the actual samples)
        assert!(
            sw.ops < dw.ops,
            "sparse raycast ({}) not cheaper than dense ({})",
            sw.ops,
            dw.ops
        );
    }

    #[test]
    fn sparse_raycast_is_thread_count_invariant() {
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut vol = SparseTsdfVolume::new(64, 2.0);
        for _ in 0..3 {
            vol.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
        }
        let (reference, ref_work) = raycast(&vol, &cam, &pose, &params(), 1, Tracer::off());
        for threads in [2usize, 4, 7] {
            let (result, work) = raycast(&vol, &cam, &pose, &params(), threads, Tracer::off());
            assert_eq!(
                result.vertices, reference.vertices,
                "{threads} threads diverged"
            );
            assert_eq!(
                result.normals, reference.normals,
                "{threads} threads diverged"
            );
            assert_eq!(work.ops.to_bits(), ref_work.ops.to_bits());
        }
    }

    #[test]
    fn free_space_summary_leaves_the_raycast_unchanged() {
        let cam = PinholeCamera::tiny();
        let size = 2.0;
        let (mut vol, _, centre) = wall_volume();
        let mut rng = SplitMix64(0xca57);
        let depth = structured_depth(&cam);
        for _ in 0..2 {
            vol.integrate(
                &depth,
                &cam,
                &random_pose(&mut rng, size),
                0.15,
                100.0,
                0,
                Tracer::off(),
            );
        }
        let mut plain = vol.clone();
        plain.clear_summary();
        let (views, thread_counts): (usize, &[usize]) = if cfg!(miri) {
            (0, &[1, 7])
        } else {
            (6, &[1, 2, 4, 7])
        };
        let mut poses = vec![centre];
        poses.extend((0..views).map(|_| random_pose(&mut rng, size)));
        let mut hits = 0.0;
        for pose in &poses {
            let (want, want_work) = raycast(&plain, &cam, pose, &params(), 1, Tracer::off());
            for &threads in thread_counts {
                let (got, got_work) = raycast(&vol, &cam, pose, &params(), threads, Tracer::off());
                assert_eq!(got.vertices, want.vertices, "{threads} threads");
                assert_eq!(got.normals, want.normals, "{threads} threads");
                assert_eq!(got_work.ops.to_bits(), want_work.ops.to_bits());
                assert_eq!(got_work.bytes.to_bits(), want_work.bytes.to_bits());
            }
            hits += want.valid_fraction();
        }
        assert!(hits > 0.5, "too few rays hit a surface");
    }

    /// The per-step march every ray took before the tile bound, kept
    /// verbatim as the reference the tiled raycast must equal.
    fn reference_march<V: Volume + ?Sized>(
        volume: &V,
        origin: Vec3,
        dir: Vec3,
        params: &RaycastParams,
        steps: &mut u32,
    ) -> Option<Vec3> {
        let (t_enter, t_exit) = ray_aabb(origin, dir, volume.size())?;
        let step = (params.mu * params.step_fraction).max(volume.voxel_size() * 0.5);
        let mut t = params.near.max(t_enter);
        let t_far = params.far.min(t_exit);
        let mut prev: Option<(f32, f32)> = None;
        while t < t_far {
            *steps += 1;
            let p = origin + dir * t;
            match volume.sample(p) {
                Some(v) => {
                    if let Some((pt, pv)) = prev {
                        if pv > 0.0 && v <= 0.0 {
                            let tt = pt + (t - pt) * pv / (pv - v);
                            return Some(origin + dir * tt);
                        }
                    }
                    if prev.is_none() && v <= 0.0 {
                        return None;
                    }
                    prev = Some((t, v));
                    t += if v > 0.8 { params.mu * 0.8 } else { step };
                }
                None => {
                    prev = None;
                    t += volume.free_space_skip(p, dir).max(step);
                }
            }
        }
        None
    }

    /// The reference raycast: every pixel marched step by step, serially.
    fn reference_raycast<V: Volume + ?Sized>(
        volume: &V,
        camera: &PinholeCamera,
        pose: &Se3,
        params: &RaycastParams,
    ) -> (RaycastResult, Workload) {
        let (w, h) = (camera.width, camera.height);
        let mut vertices = Image2D::new(w, h, Vec3::ZERO);
        let mut normals = Image2D::new(w, h, Vec3::ZERO);
        let mut total_steps = 0u64;
        for y in 0..h {
            for x in 0..w {
                let dir = pose.transform_vector(camera.ray_direction(x as f32, y as f32));
                let mut steps = 0u32;
                let hit = reference_march(volume, pose.translation(), dir, params, &mut steps);
                if let Some(hit) = hit {
                    if let Some(n) = volume.gradient(hit).and_then(Vec3::normalized) {
                        vertices.set(x, y, hit);
                        normals.set(x, y, n);
                    }
                }
                total_steps += u64::from(steps);
            }
        }
        let ops = total_steps as f64 * 30.0 + (w * h) as f64 * 20.0;
        let bytes = total_steps as f64 * 8.0 * 4.0 + (w * h) as f64 * 24.0;
        let result = RaycastResult {
            vertices,
            normals,
            pose: *pose,
        };
        (result, Workload::new(ops, bytes))
    }

    /// The tiled raycast at `threads`, its counters, and the reference.
    fn tiled_and_reference<V: Volume + Sync + ?Sized>(
        volume: &V,
        camera: &PinholeCamera,
        pose: &Se3,
        params: &RaycastParams,
        threads: usize,
        what: &str,
    ) -> BTreeMap<&'static str, u64> {
        let (want, want_work) = reference_raycast(volume, camera, pose, params);
        let tracer = Tracer::new();
        let (got, got_work) = raycast(volume, camera, pose, params, threads, &tracer);
        assert_eq!(got.vertices, want.vertices, "{what}: vertices");
        assert_eq!(got.normals, want.normals, "{what}: normals");
        assert_eq!(
            got_work.ops.to_bits(),
            want_work.ops.to_bits(),
            "{what}: ops"
        );
        assert_eq!(
            got_work.bytes.to_bits(),
            want_work.bytes.to_bits(),
            "{what}: bytes"
        );
        let counters = tracer.drain().counters_with_prefix("raycast.");
        let steps = (want_work.ops - (camera.pixel_count() * 20) as f64) / 30.0;
        assert_eq!(counters["raycast.steps"] as f64, steps, "{what}: steps");
        assert!(
            counters["raycast.skipped_steps"] <= counters["raycast.steps"],
            "{what}: more samples skipped than taken"
        );
        let valid = (0..camera.height)
            .flat_map(|y| (0..camera.width).map(move |x| (x, y)))
            .filter(|&(x, y)| want.is_valid(x, y))
            .count();
        assert_eq!(counters["raycast.valid_px"], valid as u64, "{what}: valid");
        counters
    }

    /// A camera-to-world pose strictly inside a volume of side `size`,
    /// any rotation.
    fn inside_pose(rng: &mut SplitMix64, size: f32) -> Se3 {
        let mut coord = || rng.f32_in(0.25 * size, 0.75 * size);
        let t = Vec3::new(coord(), coord(), coord());
        let axis = Vec3::new(rng.f32_in(-1.0, 1.0), rng.f32_in(-1.0, 1.0), 0.5);
        Se3::from_axis_angle(axis, rng.f32_in(-3.1, 3.1), t)
    }

    #[test]
    fn tiled_raycast_matches_the_per_step_march() {
        // (resolution, size, mu, camera): 8×8 tiles, partial at the
        // right and bottom edges of all but the first camera
        let cam = PinholeCamera::new;
        let cases: Vec<(usize, f32, f32, PinholeCamera)> = if cfg!(miri) {
            vec![(32, 2.0, 0.1, cam(11, 9, 8.0, 8.0, 5.0, 4.0))]
        } else {
            vec![
                (32, 2.0, 0.2, PinholeCamera::tiny()),
                (48, 2.0, 0.01, cam(45, 27, 30.0, 30.0, 22.0, 13.0)),
                (64, 2.0, 0.05, cam(37, 29, 40.0, 40.0, 18.5, 14.5)),
                (100, 3.0, 0.12, PinholeCamera::tiny()),
                (128, 2.0, 0.03, cam(61, 43, 55.0, 50.0, 30.0, 21.0)),
                (256, 4.0, 0.1, cam(81, 61, 66.0, 66.0, 40.0, 30.0)),
            ]
        };
        let (views, thread_counts): (usize, &[usize]) = if cfg!(miri) {
            (1, &[1, 2])
        } else {
            (3, &[1, 2, 7])
        };
        let mut rng = SplitMix64(0x7113);
        let mut skipped = 0;
        for (case, (res, size, mu, cam)) in cases.into_iter().enumerate() {
            let mut vol = TsdfVolume::new(res, size);
            let mut sparse = SparseTsdfVolume::new(res, size);
            let depth = structured_depth(&cam);
            let fused: Vec<Se3> = (0..views).map(|_| inside_pose(&mut rng, size)).collect();
            for pose in &fused {
                vol.integrate(&depth, &cam, pose, mu, 100.0, 0, Tracer::off());
                sparse.integrate(&depth, &cam, pose, mu, 100.0, 0, Tracer::off());
            }
            let params = RaycastParams {
                near: rng.f32_in(0.05, 0.4),
                far: size * 1.8,
                step_fraction: 0.5,
                mu,
            };
            // inside: the fused views and fresh ones; outside; on a face
            let mut poses = fused.clone();
            poses.extend((0..views).map(|_| inside_pose(&mut rng, size)));
            poses.extend((0..views).map(|_| random_pose(&mut rng, size)));
            for (i, pose) in fused.iter().enumerate() {
                let t = pose.translation();
                let mut t = [t.x, t.y, t.z];
                t[i % 3] = if i % 2 == 0 { 0.0 } else { size };
                poses.push(Se3::new(pose.rotation(), Vec3::from(t)));
            }
            for (i, pose) in poses.iter().enumerate() {
                let t = pose.translation();
                let inside = [t.x, t.y, t.z].iter().all(|&c| c > 0.0 && c < size);
                for &threads in thread_counts {
                    let what = format!("case {case} ({res}³, μ {mu}), pose {i}, {threads} threads");
                    let counters = tiled_and_reference(&vol, &cam, pose, &params, threads, &what);
                    let skips = counters["raycast.skipped_steps"];
                    assert!(inside || skips == 0, "{what}: skipped from outside");
                    skipped += skips;
                    let what = format!("{what}, sparse");
                    let counters =
                        tiled_and_reference(&sparse, &cam, pose, &params, threads, &what);
                    assert_eq!(counters["raycast.skipped_steps"], 0, "{what}: skipped");
                }
            }
        }
        assert!(skipped > 0, "no tile proved a free sample");
        rounded_ray_case(thread_counts);
    }

    /// A ray along +z through grid x-coordinate `n − δ`, whose `f32`
    /// evaluation rounds up to exactly `n`, the first unobserved cell: the
    /// bound must not trust the exact coordinate.
    fn rounded_ray_case(thread_counts: &[usize]) {
        let (res, size) = (48usize, 2.0f32);
        let inv = 1.0 / TsdfVolume::new(res, size).voxel_size();
        // x·inv just below n + ½ in exact arithmetic, n + ½ in `f32`
        let (n, ox) = (8..res - 8)
            .find_map(|n| {
                let target = n as f32 + 0.5;
                let mut ox = target / inv;
                for _ in 0..4 {
                    ox = f32::from_bits(ox.to_bits() + 1);
                }
                (0..8)
                    .map(|_| {
                        ox = f32::from_bits(ox.to_bits() - 1);
                        ox
                    })
                    .find(|&ox| {
                        f64::from(ox) * f64::from(inv) < f64::from(target) && ox * inv == target
                    })
                    .map(|ox| (n, ox))
            })
            .expect("an origin whose grid coordinate rounds up");
        // voxels below x = n observed free, the rest unobserved: cell
        // n − 1 is free, cell n reads `None`
        let count = res * res * res;
        let weight: Vec<f32> = (0..count)
            .map(|i| if i % res < n { 1.0 } else { 0.0 })
            .collect();
        let vol = TsdfVolume::from_raw(res, size, vec![1.0; count], weight);
        // the 1×1 corner tile's ray, pixel (8, 8), runs along +z exactly
        let cam = PinholeCamera::new(9, 9, 10.0, 10.0, 8.0, 8.0);
        let pose = Se3::from_translation(Vec3::new(ox, 0.5 * size + 0.01, 0.3));
        let dir = pose.transform_vector(cam.ray_direction(8.0, 8.0));
        assert_eq!(dir, Vec3::Z);
        assert_eq!(vol.sample(pose.translation() + dir * 0.5), None);
        let params = RaycastParams {
            near: 0.2,
            far: 3.6,
            step_fraction: 0.5,
            mu: 0.1,
        };
        for &threads in thread_counts {
            tiled_and_reference(&vol, &cam, &pose, &params, threads, "rounded ray");
        }
    }

    #[test]
    fn non_finite_pose_casts_no_ray() {
        let cam = PinholeCamera::tiny();
        let depth = Image2D::new(cam.width, cam.height, 1.0);
        let pose = Se3::from_translation(Vec3::new(1.0, 1.0, 0.0));
        let mut dense = TsdfVolume::new(64, 2.0);
        let mut sparse = SparseTsdfVolume::new(64, 2.0);
        dense.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
        sparse.integrate(&depth, &cam, &pose, 0.15, 100.0, 0, Tracer::off());
        let mut rotation = Mat3::IDENTITY;
        rotation.m[1][2] = f32::INFINITY;
        let bad = [
            Se3::from_translation(Vec3::new(1.0, f32::NAN, 0.0)),
            Se3::from_translation(Vec3::new(f32::NEG_INFINITY, 1.0, 0.0)),
            Se3::new(rotation, Vec3::new(1.0, 1.0, 0.0)),
        ];
        for pose in &bad {
            let dense = raycast(&dense, &cam, pose, &params(), 0, Tracer::off());
            let sparse = raycast(&sparse, &cam, pose, &params(), 0, Tracer::off());
            for (result, work) in [dense, sparse] {
                assert_eq!(work, Workload::ZERO, "{pose:?}");
                assert!(result.vertices.as_slice().iter().all(|&v| v == Vec3::ZERO));
                assert!(result.normals.as_slice().iter().all(|&n| n == Vec3::ZERO));
            }
        }
    }

    #[test]
    fn ray_aabb_intersections() {
        // ray through the middle of a 2m cube
        let (t0, t1) = ray_aabb(Vec3::new(1.0, 1.0, -1.0), Vec3::Z, 2.0).unwrap();
        assert!((t0 - 1.0).abs() < 1e-5);
        assert!((t1 - 3.0).abs() < 1e-5);
        // ray starting inside
        let (t0, t1) = ray_aabb(Vec3::new(1.0, 1.0, 1.0), Vec3::Z, 2.0).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 1.0).abs() < 1e-5);
        // miss
        assert!(ray_aabb(Vec3::new(5.0, 5.0, -1.0), Vec3::Z, 2.0).is_none());
        // axis-parallel ray outside the slab
        assert!(ray_aabb(Vec3::new(-1.0, 1.0, 1.0), Vec3::Z, 2.0).is_none());
    }

    #[test]
    fn rays_missing_volume_are_cheap() {
        let cam = PinholeCamera::tiny();
        let vol = TsdfVolume::new(32, 2.0);
        // camera far outside looking away from the volume
        let pose = Se3::from_translation(Vec3::new(10.0, 10.0, 10.0));
        let (result, work) = raycast(&vol, &cam, &pose, &params(), 0, Tracer::off());
        assert_eq!(result.valid_fraction(), 0.0);
        // only per-pixel setup cost, no marching
        assert!(work.ops < (cam.pixel_count() as f64) * 25.0);
    }

    #[test]
    fn workload_counts_steps() {
        let (vol, cam, pose) = wall_volume();
        let near = raycast(&vol, &cam, &pose, &params(), 0, Tracer::off()).1;
        let far_params = RaycastParams {
            far: 1.05,
            ..params()
        };
        let short = raycast(&vol, &cam, &pose, &far_params, 0, Tracer::off()).1;
        assert!(
            near.ops >= short.ops,
            "longer march must cost at least as much"
        );
    }
}
