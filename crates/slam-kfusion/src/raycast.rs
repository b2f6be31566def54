//! Surface prediction: raycasting the TSDF volume into vertex and normal
//! maps.
//!
//! The raycast output is the reference "model" the ICP tracker aligns each
//! new frame against; its quality (and cost) depends on the volume
//! resolution and `mu`, which is one of the key levers in the paper's
//! performance–accuracy trade-off.

use crate::image::{Image2D, NormalMap, VertexMap};
use crate::volume::Volume;
use crate::workload::Workload;
use slam_math::camera::PinholeCamera;
use slam_math::{Se3, Vec3};
use slam_trace::Tracer;

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
/// with a zero crossing. Also returns the number of steps marched (for
/// workload accounting) via the `steps` out-counter.
fn march_ray<V: Volume + ?Sized>(
    volume: &V,
    origin: Vec3,
    dir: Vec3,
    params: &RaycastParams,
    steps: &mut u32,
) -> Option<Vec3> {
    // clip the ray against the volume's AABB so misses cost nothing and
    // hits only march the in-volume segment (as the original KinectFusion
    // raycaster does)
    let (t_enter, t_exit) = ray_aabb(origin, dir, volume.size())?;
    let step = (params.mu * params.step_fraction).max(volume.voxel_size() * 0.5);
    let mut t = params.near.max(t_enter);
    let t_far = params.far.min(t_exit);
    let mut prev: Option<(f32, f32)> = None; // (t, tsdf)
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

/// Raycasts the volume from `pose`, producing the model maps for ICP.
/// Works over any [`Volume`] backend.
///
/// Runs on the shared [`slam_exec`] worker pool with up to `threads`
/// threads (`0` = all available) over fixed row bands, recording a
/// `raycast` kernel span plus per-band spans into `tracer`. Every pixel
/// is written exactly once and the band layout depends only on the
/// image height, so the output is bit-identical for every thread count,
/// traced or not.
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
    let origin = pose.translation();
    let threads = slam_exec::effective_threads(threads);
    let mut tasks: Vec<slam_exec::Task<'_, u64>> = Vec::new();
    {
        let mut v_rest: &mut [Vec3] = vertices.as_mut_slice();
        let mut n_rest: &mut [Vec3] = normals.as_mut_slice();
        for band in slam_exec::band_ranges(h) {
            let (v_band, v_next) = v_rest.split_at_mut(band.len() * w);
            let (n_band, n_next) = n_rest.split_at_mut(band.len() * w);
            v_rest = v_next;
            n_rest = n_next;
            let y0 = band.start;
            tasks.push(Box::new(move || {
                let mut band_steps: u64 = 0;
                for (i, (v_out, n_out)) in v_band.iter_mut().zip(n_band.iter_mut()).enumerate() {
                    let x = i % w;
                    let y = y0 + i / w;
                    let dir = pose.transform_vector(camera.ray_direction(x as f32, y as f32));
                    let mut steps = 0u32;
                    if let Some(hit) = march_ray(volume, origin, dir, params, &mut steps) {
                        if let Some(g) = volume.gradient(hit) {
                            if let Some(n) = g.normalized() {
                                *v_out = hit;
                                *n_out = n;
                            }
                        }
                    }
                    band_steps += u64::from(steps);
                }
                band_steps
            }));
        }
    }
    let total_steps: u64 = slam_exec::run_tasks(tracer, "raycast", threads, tasks)
        .into_iter()
        .sum();
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
    use crate::tsdf::TsdfVolume;
    use crate::tsdf_sparse::SparseTsdfVolume;

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
        use crate::tsdf::tests::{random_pose, structured_depth, SplitMix64};
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
