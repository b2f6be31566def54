//! Point-to-plane ICP with projective data association — the KinectFusion
//! tracking kernel.
//!
//! Each iteration associates every valid pixel of the current frame's
//! vertex map with the model prediction (raycast maps) by projecting the
//! transformed point into the model camera, then solves the linearised
//! point-to-plane system for a 6-DoF pose update.

use crate::config::KFusionConfig;
use crate::image::{NormalMap, VertexMap};
use crate::raycast::RaycastResult;
use crate::workload::Workload;
use slam_math::camera::PinholeCamera;
use slam_math::se3::Twist;
use slam_math::solve::NormalEquations;
use slam_math::{Se3, Vec3};
use slam_trace::Tracer;

/// Outcome of tracking one frame.
#[derive(Debug, Clone, Copy)]
pub struct TrackResult {
    /// The estimated camera-to-world pose.
    pub pose: Se3,
    /// Whether tracking converged with enough inliers.
    pub tracked: bool,
    /// RMS point-to-plane residual of the final iteration (metres).
    pub rms_residual: f64,
    /// Fraction of pixels with a valid association in the final iteration
    /// at the finest level.
    pub matched_fraction: f64,
    /// ICP iterations actually executed (across all levels).
    pub iterations: usize,
}

/// One pyramid level's input data for tracking.
#[derive(Debug, Clone)]
pub struct TrackLevel {
    /// Camera-frame vertex map of the current frame at this level.
    pub vertices: VertexMap,
    /// Camera-frame normal map of the current frame at this level.
    pub normals: NormalMap,
    /// Intrinsics at this level.
    pub camera: PinholeCamera,
}

/// Accumulated result of a single ICP iteration.
struct IterationStats {
    update: Twist,
    rms: f64,
    matched: usize,
    total_valid: usize,
    solved: bool,
}

/// Runs one ICP iteration at one level. Returns the accumulated stats and
/// the workload of the association pass.
///
/// The association runs on the shared [`slam_exec`] worker pool over fixed
/// row bands; each band accumulates a partial [`NormalEquations`] and the
/// partials are merged **in band order**, so the solved update is
/// bit-identical for every thread count (`config.threads`, `0` = all
/// available).
fn icp_iteration(
    level: &TrackLevel,
    model: &RaycastResult,
    model_camera: &PinholeCamera,
    pose: &Se3,
    config: &KFusionConfig,
    tracer: &Tracer,
) -> (IterationStats, Workload) {
    let model_inv = model.pose.inverse();
    let normal_cos_min = config.icp_normal_threshold.cos();
    let threads = slam_exec::effective_threads(config.threads);
    // merge the per-band partial systems in band order: the fixed band
    // layout makes the floating-point accumulation order canonical
    let (ne, matched, total_valid) =
        slam_exec::run_bands(tracer, "track", threads, level.camera.height, |rows| {
            let mut ne = NormalEquations::<6>::new();
            let mut matched = 0usize;
            let mut total_valid = 0usize;
            for y in rows {
                for x in 0..level.camera.width {
                    let v = level.vertices.get(x, y);
                    // `z <= 0.0` is false for NaN: require finite depth so a
                    // poisoned vertex cannot reach the normal equations
                    if !v.z.is_finite() || v.z <= 0.0 {
                        continue;
                    }
                    let n_cur = level.normals.get(x, y);
                    if !n_cur.norm_squared().is_finite() || n_cur.norm_squared() < 0.25 {
                        continue;
                    }
                    total_valid += 1;
                    // current point in world coordinates under the pose estimate
                    let p_world = pose.transform_point(v);
                    // project into the model camera
                    let p_model_cam = model_inv.transform_point(p_world);
                    let Some(px) = model_camera.project(p_model_cam) else {
                        continue;
                    };
                    if !model_camera.contains(px) {
                        continue;
                    }
                    // round to the nearest pixel — truncation would bias the
                    // association half a pixel towards the origin
                    let (ui, vi) = ((px.x + 0.5) as usize, (px.y + 0.5) as usize);
                    if ui >= model_camera.width || vi >= model_camera.height {
                        continue;
                    }
                    let v_ref = model.vertices.get(ui, vi);
                    let n_ref = model.normals.get(ui, vi);
                    if !n_ref.norm_squared().is_finite() || n_ref.norm_squared() < 0.25 {
                        continue;
                    }
                    let diff = v_ref - p_world;
                    // reject non-finite model vertices the same way: a
                    // `> threshold` comparison is false for NaN and would
                    // let a poisoned association through
                    if !diff.norm().is_finite() || diff.norm() > config.icp_dist_threshold {
                        continue;
                    }
                    let n_world_cur = pose.transform_vector(n_cur);
                    if n_world_cur.dot(n_ref) < normal_cos_min {
                        continue;
                    }
                    matched += 1;
                    let r = f64::from(n_ref.dot(diff));
                    let cross = p_world.cross(n_ref);
                    let j = [
                        f64::from(n_ref.x),
                        f64::from(n_ref.y),
                        f64::from(n_ref.z),
                        f64::from(cross.x),
                        f64::from(cross.y),
                        f64::from(cross.z),
                    ];
                    // Huber weighting: down-weight residuals beyond ~1 cm so depth
                    // discontinuities and TSDF skirts do not drag the solution
                    const HUBER_DELTA: f64 = 0.01;
                    let w = if r.abs() <= HUBER_DELTA {
                        1.0
                    } else {
                        HUBER_DELTA / r.abs()
                    };
                    ne.add_row(&j, r, w);
                }
            }
            (ne, matched, total_valid)
        })
        .into_iter()
        .fold(
            (NormalEquations::<6>::new(), 0usize, 0usize),
            |(mut ne, matched, total_valid), (band_ne, band_matched, band_valid)| {
                ne.merge(&band_ne);
                (ne, matched + band_matched, total_valid + band_valid)
            },
        );
    let pixels = level.camera.pixel_count() as f64;
    // association: transform + project + lookups + checks ≈ 40 ops/pixel;
    // matched pixels additionally accumulate a 6-dof row (~60 ops)
    let work = Workload::new(
        pixels * 40.0 + matched as f64 * 60.0,
        pixels * (24.0 + 24.0) + matched as f64 * 48.0,
    );
    let min_rows = 64.min((pixels as usize / 10).max(6));
    if matched < min_rows {
        return (
            IterationStats {
                update: Twist::default(),
                rms: ne.rms_residual(),
                matched,
                total_valid,
                solved: false,
            },
            work,
        );
    }
    let solved = {
        let _solve = tracer.kernel_span("solve");
        ne.solve()
    };
    match solved {
        Ok(x) => {
            let update = Twist::new(
                Vec3::new(x[0] as f32, x[1] as f32, x[2] as f32),
                Vec3::new(x[3] as f32, x[4] as f32, x[5] as f32),
            );
            (
                IterationStats {
                    update,
                    rms: ne.rms_residual(),
                    matched,
                    total_valid,
                    solved: true,
                },
                work,
            )
        }
        Err(_) => (
            IterationStats {
                update: Twist::default(),
                rms: ne.rms_residual(),
                matched,
                total_valid,
                solved: false,
            },
            work,
        ),
    }
}

/// Tracks the current frame against the model prediction.
///
/// `levels` must be ordered finest (level 0, full compute resolution)
/// first; iteration counts come from `config.pyramid_iterations`
/// (finest-first as well). `model_camera` is the intrinsics the model maps
/// were raycast with (level 0 resolution).
///
/// Returns the [`TrackResult`] plus the workloads of the association
/// (`Track`) and solver (`Solve`) kernels.
///
/// Records `track` / `solve` kernel spans, per-band association spans
/// and an `icp.iterations` counter into `tracer`. Tracing never changes
/// the estimated pose.
pub fn track(
    levels: &[TrackLevel],
    model: &RaycastResult,
    model_camera: &PinholeCamera,
    initial_pose: &Se3,
    config: &KFusionConfig,
    tracer: &Tracer,
) -> (TrackResult, Workload, Workload) {
    let _kernel = tracer.kernel_span("track");
    let mut pose = *initial_pose;
    let mut track_work = Workload::ZERO;
    let mut solve_work = Workload::ZERO;
    let mut iterations = 0usize;
    let mut last_rms = 0.0f64;
    let mut last_matched_fraction = 0.0f64;
    let mut any_solved = false;
    // coarse-to-fine: iterate levels from last (coarsest) to first
    for (li, level) in levels.iter().enumerate().rev() {
        let max_iter = config.pyramid_iterations.get(li).copied().unwrap_or(0);
        for _ in 0..max_iter {
            let (stats, work) = icp_iteration(level, model, model_camera, &pose, config, tracer);
            track_work += work;
            // 6x6 cholesky + substitutions ≈ 500 flops
            solve_work += Workload::new(500.0, 36.0 * 8.0 * 3.0);
            iterations += 1;
            if li == 0 {
                last_rms = stats.rms;
                last_matched_fraction = if stats.total_valid > 0 {
                    stats.matched as f64 / stats.total_valid as f64
                } else {
                    0.0
                };
            }
            if !stats.solved {
                break;
            }
            any_solved = true;
            pose = (Se3::exp(stats.update) * pose).orthonormalized();
            if stats.update.norm() < config.icp_threshold {
                break;
            }
        }
    }
    let tracked = any_solved
        && last_matched_fraction >= f64::from(config.min_track_fraction)
        && last_rms.is_finite()
        && last_rms < 0.05;
    tracer.counter("icp.iterations", iterations as u64);
    (
        TrackResult {
            pose,
            tracked,
            rms_residual: last_rms,
            matched_fraction: last_matched_fraction,
            iterations,
        },
        track_work,
        solve_work,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image2D;
    use crate::preprocess::{depth2vertex, vertex2normal};
    use crate::raycast::{raycast, RaycastParams};
    use crate::tsdf::TsdfVolume;

    /// Builds a wall-and-bump scene: depth image of a wall at 1.5 m with a
    /// square bump at 1.2 m — enough structure to constrain all six DoF
    /// only partially (a plane constrains 3), so we add a second bump.
    fn structured_depth(cam: &PinholeCamera) -> Image2D<f32> {
        let mut depth = Image2D::new(cam.width, cam.height, 1.5f32);
        for y in 20..60 {
            for x in 20..60 {
                depth.set(x, y, 1.2);
            }
        }
        for y in 70..100 {
            for x in 100..140 {
                depth.set(x, y, 1.35);
            }
        }
        depth
    }

    /// Integrates the structured scene from a known pose and returns the
    /// volume plus the raycast model at that pose.
    fn model_setup(cam: &PinholeCamera, pose: &Se3) -> (TsdfVolume, RaycastResult) {
        let mut vol = TsdfVolume::new(128, 4.0);
        let depth = structured_depth(cam);
        for _ in 0..3 {
            vol.integrate(&depth, cam, pose, 0.1, 100.0, 0, Tracer::off());
        }
        let params = RaycastParams {
            near: 0.3,
            far: 4.0,
            step_fraction: 0.4,
            mu: 0.1,
        };
        let (model, _) = raycast(&vol, cam, pose, &params, 0, Tracer::off());
        (vol, model)
    }

    fn levels_from_depth(depth: &Image2D<f32>, cam: &PinholeCamera) -> Vec<TrackLevel> {
        // single level is enough for unit tests
        let (v, _) = depth2vertex(depth, cam, 0, Tracer::off());
        let (n, _) = vertex2normal(&v, 0, Tracer::off());
        vec![TrackLevel {
            vertices: v,
            normals: n,
            camera: *cam,
        }]
    }

    fn test_config() -> KFusionConfig {
        KFusionConfig {
            pyramid_iterations: [10, 0, 0],
            ..KFusionConfig::fast_test()
        }
    }

    #[test]
    fn tracking_identity_converges_immediately() {
        let cam = PinholeCamera::tiny();
        let pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        let (result, tw, sw) = track(&levels, &model, &cam, &pose, &test_config(), Tracer::off());
        assert!(result.tracked);
        assert!(
            result.pose.translation_distance(&pose) < 0.01,
            "drifted {}",
            result.pose.translation_distance(&pose)
        );
        assert!(result.rms_residual < 0.01);
        assert!(tw.ops > 0.0);
        assert!(sw.ops > 0.0);
    }

    #[test]
    fn tracking_recovers_small_translation() {
        let cam = PinholeCamera::tiny();
        let true_pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &true_pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        // start the estimate 2 cm off; ICP must pull it back
        let bad = Se3::from_translation(Vec3::new(2.0, 2.0, 0.02));
        let (result, _, _) = track(&levels, &model, &cam, &bad, &test_config(), Tracer::off());
        assert!(result.tracked, "lost: matched {}", result.matched_fraction);
        let err = result.pose.translation_distance(&true_pose);
        assert!(err < 0.008, "residual error {err} m");
    }

    #[test]
    fn tracking_recovers_small_rotation() {
        let cam = PinholeCamera::tiny();
        let true_pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &true_pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        let bad = true_pose * Se3::from_axis_angle(Vec3::Y, 0.01, Vec3::ZERO);
        let (result, _, _) = track(&levels, &model, &cam, &bad, &test_config(), Tracer::off());
        assert!(result.tracked);
        let rot_err = result.pose.rotation_angle_to(&true_pose);
        assert!(rot_err < 0.005, "residual rotation {rot_err} rad");
    }

    #[test]
    fn tracking_fails_without_model() {
        let cam = PinholeCamera::tiny();
        let pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let empty = TsdfVolume::new(32, 4.0);
        let params = RaycastParams::default();
        let (model, _) = raycast(&empty, &cam, &pose, &params, 0, Tracer::off());
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        let (result, _, _) = track(&levels, &model, &cam, &pose, &test_config(), Tracer::off());
        assert!(!result.tracked);
    }

    #[test]
    fn tracking_recovers_combined_motion() {
        let cam = PinholeCamera::tiny();
        let true_pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &true_pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        // simultaneous small rotation + translation offset; the
        // rotation/translation coupling on mostly-frontal geometry makes
        // this a slow convergence valley, so allow plenty of iterations
        let bad = true_pose
            * Se3::from_axis_angle(
                Vec3::new(0.3, 1.0, 0.1),
                0.008,
                Vec3::new(0.01, -0.008, 0.012),
            );
        let mut config = test_config();
        config.pyramid_iterations = [40, 0, 0];
        config.icp_threshold = 1e-7;
        let (result, _, _) = track(&levels, &model, &cam, &bad, &config, Tracer::off());
        assert!(result.tracked);
        // On mostly-frontal geometry the lateral translation is only
        // weakly observable (aperture problem), so assert on what
        // point-to-plane ICP actually optimises: the plane residual and
        // the rotation.
        assert!(
            result.rms_residual < 2e-3,
            "plane residual did not converge: {}",
            result.rms_residual
        );
        assert!(
            result.pose.rotation_angle_to(&true_pose) < 0.01,
            "rotation residual {}",
            result.pose.rotation_angle_to(&true_pose)
        );
        // the depth direction (fully observable) must be recovered
        let dz = (result.pose.translation().z - true_pose.translation().z).abs();
        assert!(dz < 0.004, "z residual {dz}");
    }

    #[test]
    fn tracking_is_thread_count_invariant() {
        let cam = PinholeCamera::tiny();
        let true_pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &true_pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        let bad = Se3::from_translation(Vec3::new(2.0, 2.0, 0.02));
        let run = |threads: usize| {
            let mut config = test_config();
            config.threads = threads;
            track(&levels, &model, &cam, &bad, &config, Tracer::off()).0
        };
        let reference = run(1);
        // a probe point captures the full rigid transform bit-exactly
        let probe = Vec3::new(0.3, -0.2, 1.7);
        let ref_probe = reference.pose.transform_point(probe);
        for threads in [2usize, 4, 7] {
            let result = run(threads);
            let p = result.pose.transform_point(probe);
            for (a, b) in [(p.x, ref_probe.x), (p.y, ref_probe.y), (p.z, ref_probe.z)] {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads diverged");
            }
            assert_eq!(
                result.rms_residual.to_bits(),
                reference.rms_residual.to_bits()
            );
            assert_eq!(result.iterations, reference.iterations);
            assert_eq!(
                result.matched_fraction.to_bits(),
                reference.matched_fraction.to_bits()
            );
        }
    }

    #[test]
    fn track_reports_iteration_counts() {
        let cam = PinholeCamera::tiny();
        let pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        let mut config = test_config();
        config.pyramid_iterations = [3, 0, 0];
        config.icp_threshold = 1e-12; // never converge early
        let (result, _, _) = track(&levels, &model, &cam, &pose, &config, Tracer::off());
        assert_eq!(result.iterations, 3);
    }

    #[test]
    fn icp_threshold_limits_iterations() {
        let cam = PinholeCamera::tiny();
        let pose = Se3::from_translation(Vec3::new(2.0, 2.0, 0.0));
        let (_vol, model) = model_setup(&cam, &pose);
        let depth = structured_depth(&cam);
        let levels = levels_from_depth(&depth, &cam);
        // already aligned + loose threshold ⇒ early exit
        let mut config = test_config();
        config.icp_threshold = 1e-2;
        let (result, _, _) = track(&levels, &model, &cam, &pose, &config, Tracer::off());
        assert!(
            result.iterations <= 2,
            "took {} iterations",
            result.iterations
        );
    }
}
