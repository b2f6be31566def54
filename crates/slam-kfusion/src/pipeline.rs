//! The per-frame KinectFusion pipeline orchestration.

use crate::config::{KFusionConfig, TrackingReference};
use crate::icp::{track, TrackLevel, TrackResult};
use crate::image::{DepthImage, Image2D};
use crate::preprocess::{bilateral_filter, depth2vertex, half_sample, mm2meters, vertex2normal};
use crate::raycast::{raycast, RaycastParams, RaycastResult};
use crate::volume::{Volume, VolumeStorage};
use crate::workload::{FrameWorkload, Kernel};
use slam_math::camera::PinholeCamera;
use slam_math::Se3;
use slam_trace::{Clock, Tracer, WallClock};
use std::sync::Arc;

/// The shared measurement front-end of every depth-based algorithm:
/// millimetre → metre conversion (with `compute_size_ratio`
/// down-sampling) followed by the optional bilateral filter. Records the
/// per-kernel workload into `fw`.
pub(crate) fn preprocess_depth(
    depth_mm: &[u16],
    sensor_camera: &PinholeCamera,
    config: &KFusionConfig,
    fw: &mut FrameWorkload,
    tracer: &Tracer,
) -> DepthImage {
    let (raw_m, work) = {
        let _k = tracer.kernel_span("mm2meters");
        mm2meters(
            depth_mm,
            sensor_camera.width,
            sensor_camera.height,
            config.compute_size_ratio,
        )
    };
    fw.record(Kernel::Mm2Meters, work);
    if config.bilateral_filter {
        let (f, work) = bilateral_filter(&raw_m, 2, 1.5, 0.1, config.threads, tracer);
        fw.record(Kernel::BilateralFilter, work);
        f
    } else {
        raw_m
    }
}

/// Builds the three-level tracking pyramid (half-sampled depths plus
/// vertex/normal maps) from the filtered depth on up to `threads` pool
/// threads. Shared by every algorithm that tracks with the pyramidal
/// ICP.
pub(crate) fn build_pyramid_levels(
    filtered: &DepthImage,
    pyramid_cameras: &[PinholeCamera; 3],
    threads: usize,
    fw: &mut FrameWorkload,
    tracer: &Tracer,
) -> Vec<TrackLevel> {
    let mut depths = Vec::with_capacity(3);
    depths.push(filtered.clone());
    for level in 1..3 {
        let (half, work) = half_sample(&depths[level - 1], 0.1, threads, tracer);
        fw.record(Kernel::HalfSample, work);
        depths.push(half);
    }
    depths
        .into_iter()
        .enumerate()
        .map(|(level, depth)| {
            let camera = pyramid_cameras[level];
            let (vertices, vw) = depth2vertex(&depth, &camera, threads, tracer);
            fw.record(Kernel::Depth2Vertex, vw);
            let (normals, nw) = vertex2normal(&vertices, threads, tracer);
            fw.record(Kernel::Vertex2Normal, nw);
            TrackLevel {
                vertices,
                normals,
                camera,
            }
        })
        .collect()
}

/// Lifts a level's camera-frame measured maps into world coordinates —
/// the "previous frame as tracking reference" representation shared by
/// the frame-to-frame tracking modes.
pub(crate) fn lift_to_world(level: &TrackLevel, pose: &Se3) -> RaycastResult {
    let mut vertices = Image2D::new(
        level.camera.width,
        level.camera.height,
        slam_math::Vec3::ZERO,
    );
    let mut normals = Image2D::new(
        level.camera.width,
        level.camera.height,
        slam_math::Vec3::ZERO,
    );
    for y in 0..level.camera.height {
        for x in 0..level.camera.width {
            let v = level.vertices.get(x, y);
            let n = level.normals.get(x, y);
            // the finite check keeps an Inf vertex (NaN already fails the
            // `>` comparisons) out of the world-frame reference maps
            if v.z.is_finite()
                && v.z > 0.0
                && n.norm_squared().is_finite()
                && n.norm_squared() > 0.25
            {
                vertices.set(x, y, pose.transform_point(v));
                normals.set(x, y, pose.transform_vector(n));
            }
        }
    }
    RaycastResult {
        vertices,
        normals,
        pose: *pose,
    }
}

/// Everything the pipeline produced for one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Frame index (0-based).
    pub frame_index: usize,
    /// The estimated camera-to-world pose after this frame.
    pub pose: Se3,
    /// Whether the frame is considered successfully tracked. Frame 0 and
    /// frames skipped by `tracking_rate` count as tracked.
    pub tracked: bool,
    /// RMS point-to-plane residual of the final ICP iteration (metres);
    /// `0.0` when tracking did not run.
    pub rms_residual: f64,
    /// Fraction of valid pixels with ICP associations; `0.0` when
    /// tracking did not run.
    pub matched_fraction: f64,
    /// ICP iterations executed this frame.
    pub icp_iterations: usize,
    /// Whether the frame was integrated into the volume.
    pub integrated: bool,
    /// Whether the model was re-raycast after this frame.
    pub raycasted: bool,
    /// Measured per-kernel workload of this frame.
    pub workload: FrameWorkload,
    /// Wall-clock time this frame took on the host, in seconds. (The
    /// *modelled* device time comes from `slam-power` applied to
    /// `workload`.)
    pub wall_time: f64,
}

/// The KinectFusion dense SLAM system.
///
/// Feed depth frames (millimetres, row-major, `0` = hole) through
/// [`SlamAlgorithm`](crate::SlamAlgorithm), or metre-unit maps through
/// [`KinectFusion::process_depth_frame`]; read back poses and the TSDF
/// model. See the [crate-level documentation](crate) for an example.
///
/// The trait is the one millimetre-frame entry: the inherent
/// `process_frame` behind it is crate-private, so this does not compile
/// outside the crate,
///
/// ```compile_fail,E0624
/// use slam_kfusion::{KFusionConfig, KinectFusion, SlamAlgorithm};
/// use slam_math::{camera::PinholeCamera, Se3};
/// use slam_trace::Tracer;
/// let camera = PinholeCamera::tiny();
/// let mut kf = KinectFusion::new(KFusionConfig::fast_test(), camera, Se3::IDENTITY);
/// kf.process_frame(&vec![2000u16; camera.pixel_count()], Tracer::off());
/// ```
///
/// while the same frame through the trait does:
///
/// ```
/// use slam_kfusion::{KFusionConfig, KinectFusion, SlamAlgorithm};
/// use slam_math::{camera::PinholeCamera, Se3};
/// use slam_trace::Tracer;
/// let camera = PinholeCamera::tiny();
/// let mut kf = KinectFusion::new(KFusionConfig::fast_test(), camera, Se3::IDENTITY);
/// kf.step_frame_traced(&vec![2000u16; camera.pixel_count()], Tracer::off());
/// ```
#[derive(Debug)]
pub struct KinectFusion {
    config: KFusionConfig,
    sensor_camera: PinholeCamera,
    compute_camera: PinholeCamera,
    pyramid_cameras: [PinholeCamera; 3],
    volume: VolumeStorage,
    pose: Se3,
    model: Option<RaycastResult>,
    /// Previous frame's measured maps in world coordinates, kept when
    /// frame-to-frame tracking is selected.
    prev_frame_maps: Option<RaycastResult>,
    frame_index: usize,
    lost_frames: usize,
    /// Time source for [`FrameResult::wall_time`]. Defaults to
    /// [`WallClock`]; tests inject a
    /// [`MockClock`](slam_trace::MockClock) to pin timing plumbing
    /// deterministically.
    clock: Arc<dyn Clock>,
}

impl KinectFusion {
    /// Creates a pipeline for a sensor with the given intrinsics, starting
    /// at `initial_pose` (camera-to-world, world = the `[0, volume_size]³`
    /// volume frame).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`KFusionConfig::validate`].
    pub fn new(
        config: KFusionConfig,
        sensor_camera: PinholeCamera,
        initial_pose: Se3,
    ) -> KinectFusion {
        let validation = config.validate();
        assert!(
            validation.is_ok(),
            "invalid KinectFusion configuration: {validation:?}"
        );
        let compute_camera = sensor_camera.scaled_down(config.compute_size_ratio);
        let pyramid_cameras = [
            compute_camera,
            compute_camera.scaled_down(2),
            compute_camera.scaled_down(4),
        ];
        let volume = VolumeStorage::new(
            config.volume_backend,
            config.volume_resolution,
            config.volume_size,
        );
        KinectFusion {
            config,
            sensor_camera,
            compute_camera,
            pyramid_cameras,
            volume,
            pose: initial_pose,
            model: None,
            prev_frame_maps: None,
            frame_index: 0,
            lost_frames: 0,
            clock: Arc::new(WallClock::new()),
        }
    }

    /// Replaces the time source behind [`FrameResult::wall_time`]
    /// (builder style). The default is [`WallClock`]; inject a
    /// [`MockClock`](slam_trace::MockClock) to make timing
    /// deterministic in tests. The clock never influences the pipeline's
    /// outputs — only the reported `wall_time`.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> KinectFusion {
        self.clock = clock;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &KFusionConfig {
        &self.config
    }

    /// The sensor intrinsics this pipeline was built for.
    pub fn sensor_camera(&self) -> &PinholeCamera {
        &self.sensor_camera
    }

    /// The intrinsics at compute resolution (after `compute_size_ratio`).
    pub fn compute_camera(&self) -> &PinholeCamera {
        &self.compute_camera
    }

    /// The current pose estimate (camera-to-world).
    pub fn current_pose(&self) -> Se3 {
        self.pose
    }

    /// The TSDF model built so far, in whichever backend
    /// [`crate::volume::VolumeBackend`] the configuration selected.
    pub fn volume(&self) -> &VolumeStorage {
        &self.volume
    }

    /// Number of frames processed so far.
    pub fn frames_processed(&self) -> usize {
        self.frame_index
    }

    /// Number of frames on which tracking failed.
    pub fn lost_frames(&self) -> usize {
        self.lost_frames
    }

    /// The most recent raycast model prediction, if any.
    pub fn model(&self) -> Option<&RaycastResult> {
        self.model.as_ref()
    }

    fn raycast_params(&self) -> RaycastParams {
        RaycastParams {
            near: 0.2,
            far: self.config.volume_size * 1.8,
            step_fraction: 0.5,
            mu: self.config.mu,
        }
    }

    /// Processes one depth frame and advances the pipeline state,
    /// recording a `frame` span with the full kernel/band hierarchy and
    /// the pipeline counters into `tracer`. Tracing never changes the
    /// pipeline's outputs — a traced run is bit-identical to an untraced
    /// one (the determinism suite asserts this). Callers outside the
    /// crate go through [`SlamAlgorithm::step_frame`](crate::SlamAlgorithm::step_frame).
    ///
    /// # Panics
    ///
    /// Panics when `depth_mm.len()` does not match the sensor resolution.
    pub(crate) fn process_frame(&mut self, depth_mm: &[u16], tracer: &Tracer) -> FrameResult {
        assert_eq!(
            depth_mm.len(),
            self.sensor_camera.pixel_count(),
            "depth buffer does not match sensor resolution"
        );
        let _frame = tracer.frame_span("frame");
        let start_ns = self.clock.now_ns();
        let mut fw = FrameWorkload::new();
        let filtered =
            preprocess_depth(depth_mm, &self.sensor_camera, &self.config, &mut fw, tracer);
        self.advance(filtered, fw, start_ns, tracer)
    }

    /// Processes one *metre-unit* depth map already at compute resolution
    /// (after `compute_size_ratio`), bypassing the millimetre wire
    /// format, and records the kernel hierarchy into `tracer`. Real
    /// float-depth datasets — and hostile sensor inputs carrying NaN/Inf
    /// pixels, which `u16` millimetres cannot encode — enter the pipeline
    /// here; every downstream kernel treats a non-finite sample exactly
    /// like a hole (`0`), so such frames degrade coverage but never
    /// poison the model or the trajectory.
    ///
    /// # Panics
    ///
    /// Panics when `depth_m` does not match the compute resolution.
    pub fn process_depth_frame(&mut self, depth_m: &DepthImage, tracer: &Tracer) -> FrameResult {
        assert_eq!(
            (depth_m.width(), depth_m.height()),
            (self.compute_camera.width, self.compute_camera.height),
            "depth map does not match compute resolution"
        );
        let _frame = tracer.frame_span("frame");
        let start_ns = self.clock.now_ns();
        let mut fw = FrameWorkload::new();
        let filtered = if self.config.bilateral_filter {
            let (f, work) = bilateral_filter(depth_m, 2, 1.5, 0.1, self.config.threads, tracer);
            fw.record(Kernel::BilateralFilter, work);
            f
        } else {
            depth_m.clone()
        };
        self.advance(filtered, fw, start_ns, tracer)
    }

    /// The shared back half of a frame step: pyramid, tracking,
    /// integration and model prediction over an already-filtered
    /// metre-unit depth map at compute resolution.
    fn advance(
        &mut self,
        filtered: DepthImage,
        mut fw: FrameWorkload,
        start_ns: u64,
        tracer: &Tracer,
    ) -> FrameResult {
        let levels = build_pyramid_levels(
            &filtered,
            &self.pyramid_cameras,
            self.config.threads,
            &mut fw,
            tracer,
        );

        // --- tracking ------------------------------------------------------
        let is_first = self.frame_index == 0;
        let should_track = !is_first && self.frame_index.is_multiple_of(self.config.tracking_rate);
        let mut tracked = true;
        let mut track_result: Option<TrackResult> = None;
        if should_track {
            let reference = match self.config.tracking_reference {
                TrackingReference::Model => self.model.as_ref(),
                TrackingReference::PreviousFrame => self.prev_frame_maps.as_ref(),
            };
            if let Some(model) = reference {
                let (result, track_work, solve_work) = track(
                    &levels,
                    model,
                    &self.compute_camera,
                    &self.pose,
                    &self.config,
                    tracer,
                );
                fw.record(Kernel::Track, track_work);
                fw.record(Kernel::Solve, solve_work);
                tracked = result.tracked;
                if result.tracked {
                    self.pose = result.pose;
                } else {
                    self.lost_frames += 1;
                }
                track_result = Some(result);
            } else {
                tracked = false;
                self.lost_frames += 1;
            }
        }

        // --- integration ---------------------------------------------------
        let should_integrate = (tracked || self.frame_index < 4)
            && self
                .frame_index
                .is_multiple_of(self.config.integration_rate);
        if should_integrate {
            // `VolumeStorage` dispatches on the backend once per call, so
            // the hot per-voxel loops run statically typed
            let work = self.volume.integrate(
                &filtered,
                &self.compute_camera,
                &self.pose,
                self.config.mu,
                self.config.max_weight,
                self.config.threads,
                tracer,
            );
            fw.record(Kernel::Integrate, work);
        }

        // --- model prediction ----------------------------------------------
        let should_raycast =
            self.frame_index.is_multiple_of(self.config.raycast_rate) || self.model.is_none();
        if should_raycast {
            let params = self.raycast_params();
            let (model, work) = match &self.volume {
                VolumeStorage::Dense(v) => raycast(
                    v,
                    &self.compute_camera,
                    &self.pose,
                    &params,
                    self.config.threads,
                    tracer,
                ),
                VolumeStorage::Sparse(v) => raycast(
                    v,
                    &self.compute_camera,
                    &self.pose,
                    &params,
                    self.config.threads,
                    tracer,
                ),
            };
            fw.record(Kernel::Raycast, work);
            self.model = Some(model);
        }

        // keep the previous-frame reference when frame-to-frame tracking
        // is selected: the finest level's maps, lifted to world coordinates
        if self.config.tracking_reference == TrackingReference::PreviousFrame {
            self.prev_frame_maps = Some(lift_to_world(&levels[0], &self.pose));
        }

        let result = FrameResult {
            frame_index: self.frame_index,
            pose: self.pose,
            tracked,
            rms_residual: track_result.as_ref().map_or(0.0, |r| r.rms_residual),
            matched_fraction: track_result.as_ref().map_or(0.0, |r| r.matched_fraction),
            icp_iterations: track_result.as_ref().map_or(0, |r| r.iterations),
            integrated: should_integrate,
            raycasted: should_raycast,
            workload: fw,
            wall_time: self.clock.now_ns().saturating_sub(start_ns) as f64 / 1e9,
        };
        self.frame_index += 1;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Volume;

    fn flat_depth(camera: &PinholeCamera, mm: u16) -> Vec<u16> {
        vec![mm; camera.pixel_count()]
    }

    /// Depth with structure: a wall plus two bumps (same layout as the ICP
    /// tests, enough to constrain the pose).
    fn structured_depth(camera: &PinholeCamera) -> Vec<u16> {
        let mut d = flat_depth(camera, 1500);
        for y in 20..60 {
            for x in 20..60 {
                d[y * camera.width + x] = 1200;
            }
        }
        for y in 70..100 {
            for x in 100..140 {
                d[y * camera.width + x] = 1350;
            }
        }
        d
    }

    fn center_pose() -> Se3 {
        Se3::from_translation(slam_math::Vec3::new(2.0, 2.0, 0.2))
    }

    #[test]
    fn first_frame_bootstraps() {
        let cam = PinholeCamera::tiny();
        let mut kf = KinectFusion::new(KFusionConfig::fast_test(), cam, center_pose());
        let r = kf.process_frame(&structured_depth(&cam), Tracer::off());
        assert!(r.tracked);
        assert!(r.integrated);
        assert!(r.raycasted);
        assert_eq!(r.frame_index, 0);
        assert!(kf.volume().occupied_voxels() > 0);
        assert!(kf.model().is_some());
        assert_eq!(kf.frames_processed(), 1);
    }

    #[test]
    fn static_camera_stays_put() {
        let cam = PinholeCamera::tiny();
        let init = center_pose();
        let mut kf = KinectFusion::new(KFusionConfig::fast_test(), cam, init);
        let depth = structured_depth(&cam);
        for _ in 0..5 {
            let r = kf.process_frame(&depth, Tracer::off());
            assert!(r.tracked, "frame {} lost", r.frame_index);
        }
        let drift = kf.current_pose().translation_distance(&init);
        assert!(drift < 0.01, "static camera drifted {drift} m");
        assert_eq!(kf.lost_frames(), 0);
    }

    #[test]
    fn sparse_backend_tracks_like_dense() {
        use crate::volume::VolumeBackend;
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let run = |backend| {
            let mut config = KFusionConfig::fast_test();
            config.volume_backend = backend;
            let mut kf = KinectFusion::new(config, cam, center_pose());
            for _ in 0..5 {
                let r = kf.process_frame(&depth, Tracer::off());
                assert!(r.tracked, "frame {} lost on {backend}", r.frame_index);
            }
            kf
        };
        let dense = run(VolumeBackend::Dense);
        let sparse = run(VolumeBackend::Sparse);
        assert_eq!(sparse.volume().backend(), VolumeBackend::Sparse);
        assert!(sparse.volume().occupied_voxels() > 0);
        // the sparse marcher leaps surface-free bricks where the dense
        // one strides, so raycast sample positions — and through ICP,
        // poses — are close but not bit-equal; sub-voxel agreement is
        // the contract here (fast_test voxels are ~3 cm), and voxel
        // equivalence is asserted bit-exactly in tsdf_sparse
        let d = dense
            .current_pose()
            .translation_distance(&sparse.current_pose());
        assert!(d < 8e-3, "backends diverged {d} m");
    }

    #[test]
    fn workload_covers_all_phases() {
        let cam = PinholeCamera::tiny();
        let mut kf = KinectFusion::new(KFusionConfig::fast_test(), cam, center_pose());
        let depth = structured_depth(&cam);
        kf.process_frame(&depth, Tracer::off());
        let r = kf.process_frame(&depth, Tracer::off());
        for kernel in [
            Kernel::Mm2Meters,
            Kernel::BilateralFilter,
            Kernel::HalfSample,
            Kernel::Depth2Vertex,
            Kernel::Vertex2Normal,
            Kernel::Track,
            Kernel::Solve,
            Kernel::Integrate,
            Kernel::Raycast,
        ] {
            assert!(
                !r.workload.kernel(kernel).is_zero(),
                "kernel {kernel} recorded no work"
            );
        }
        assert!(r.wall_time > 0.0);
    }

    #[test]
    fn wall_time_comes_from_the_injected_clock() {
        use slam_trace::MockClock;
        let cam = PinholeCamera::tiny();
        let mut kf = KinectFusion::new(KFusionConfig::fast_test(), cam, center_pose())
            .with_clock(Arc::new(MockClock::new(500_000)));
        let r = kf.process_frame(&structured_depth(&cam), Tracer::off());
        // exactly two readings per frame, one step (0.5 ms) apart —
        // deterministic regardless of host speed
        assert_eq!(r.wall_time, 0.0005);
        let r = kf.process_frame(&structured_depth(&cam), Tracer::off());
        assert_eq!(r.wall_time, 0.0005);
    }

    #[test]
    fn traced_run_is_bit_identical_and_hierarchical() {
        use slam_trace::{MockClock, SpanLevel, Tracer};
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let mut plain = KinectFusion::new(KFusionConfig::fast_test(), cam, center_pose());
        let mut traced = KinectFusion::new(KFusionConfig::fast_test(), cam, center_pose());
        let tracer = Tracer::with_clock(MockClock::new(1));
        let probe = slam_math::Vec3::new(0.3, -0.2, 1.7);
        for i in 0..3 {
            let a = plain.process_frame(&depth, Tracer::off());
            let b = traced.process_frame(&depth, &tracer);
            let (pa, pb) = (a.pose.transform_point(probe), b.pose.transform_point(probe));
            for (x, y) in [(pa.x, pb.x), (pa.y, pb.y), (pa.z, pb.z)] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "frame {i}: tracing perturbed the pose"
                );
            }
            assert_eq!(a.tracked, b.tracked);
            assert_eq!(a.icp_iterations, b.icp_iterations);
        }
        let trace = tracer.drain();
        let frames: Vec<_> = trace
            .spans()
            .filter(|s| s.level == SpanLevel::Frame)
            .collect();
        assert_eq!(frames.len(), 3);
        // kernel spans nest inside their frame: opened after (seq) and
        // contained in time
        for k in trace.spans().filter(|s| s.level == SpanLevel::Kernel) {
            let parent = frames
                .iter()
                .rfind(|f| f.seq < k.seq)
                .expect("kernel span outside any frame");
            assert!(k.start_ns >= parent.start_ns && k.end_ns <= parent.end_ns);
        }
        let profile = trace.profile();
        for name in ["bilateral", "track", "integrate", "raycast"] {
            assert!(
                profile.get_at(SpanLevel::Kernel, name).is_some(),
                "no {name} kernel span recorded"
            );
        }
        assert!(trace.counter_total("icp.iterations") > 0);
        assert!(trace.counter_total("pool.tasks") > 0);
    }

    #[test]
    fn disabling_bilateral_removes_its_work() {
        let cam = PinholeCamera::tiny();
        let mut config = KFusionConfig::fast_test();
        config.bilateral_filter = false;
        let mut kf = KinectFusion::new(config, cam, center_pose());
        let r = kf.process_frame(&structured_depth(&cam), Tracer::off());
        assert!(r.workload.kernel(Kernel::BilateralFilter).is_zero());
    }

    #[test]
    fn integration_rate_skips_frames() {
        let cam = PinholeCamera::tiny();
        let mut config = KFusionConfig::fast_test();
        config.integration_rate = 2;
        let mut kf = KinectFusion::new(config, cam, center_pose());
        let depth = structured_depth(&cam);
        let r0 = kf.process_frame(&depth, Tracer::off());
        let r1 = kf.process_frame(&depth, Tracer::off());
        let r2 = kf.process_frame(&depth, Tracer::off());
        assert!(r0.integrated);
        assert!(!r1.integrated, "frame 1 must be skipped at rate 2");
        assert!(r2.integrated);
    }

    #[test]
    fn tracking_rate_skips_tracking() {
        let cam = PinholeCamera::tiny();
        let mut config = KFusionConfig::fast_test();
        config.tracking_rate = 2;
        let mut kf = KinectFusion::new(config, cam, center_pose());
        let depth = structured_depth(&cam);
        kf.process_frame(&depth, Tracer::off());
        let r1 = kf.process_frame(&depth, Tracer::off());
        let r2 = kf.process_frame(&depth, Tracer::off());
        assert_eq!(r1.icp_iterations, 0, "odd frame skipped at rate 2");
        assert!(r2.icp_iterations > 0);
    }

    #[test]
    fn compute_size_ratio_shrinks_work() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let run = |csr: usize| {
            let mut config = KFusionConfig::fast_test();
            config.compute_size_ratio = csr;
            let mut kf = KinectFusion::new(config, cam, center_pose());
            kf.process_frame(&depth, Tracer::off());
            kf.process_frame(&depth, Tracer::off()).workload.total()
        };
        let full = run(1);
        let quarter = run(4);
        assert!(
            quarter.ops < full.ops,
            "csr=4 ({:.2e}) should do less work than csr=1 ({:.2e})",
            quarter.ops,
            full.ops
        );
    }

    #[test]
    #[should_panic(expected = "does not match sensor resolution")]
    fn wrong_buffer_size_panics() {
        let cam = PinholeCamera::tiny();
        let mut kf = KinectFusion::new(KFusionConfig::fast_test(), cam, Se3::IDENTITY);
        kf.process_frame(&[0u16; 10], Tracer::off());
    }

    #[test]
    #[should_panic(expected = "invalid KinectFusion configuration")]
    fn invalid_config_panics() {
        let mut config = KFusionConfig::fast_test();
        config.compute_size_ratio = 3;
        let _ = KinectFusion::new(config, PinholeCamera::tiny(), Se3::IDENTITY);
    }

    #[test]
    fn raycast_rate_reuses_model() {
        let cam = PinholeCamera::tiny();
        let mut config = KFusionConfig::fast_test();
        config.raycast_rate = 3;
        let mut kf = KinectFusion::new(config, cam, center_pose());
        let depth = structured_depth(&cam);
        let r0 = kf.process_frame(&depth, Tracer::off());
        let r1 = kf.process_frame(&depth, Tracer::off());
        let r2 = kf.process_frame(&depth, Tracer::off());
        let r3 = kf.process_frame(&depth, Tracer::off());
        assert!(r0.raycasted, "frame 0 must bootstrap the model");
        assert!(!r1.raycasted);
        assert!(!r2.raycasted);
        assert!(r3.raycasted);
        // tracking still works against the stale model
        assert!(r1.tracked && r2.tracked && r3.tracked);
    }

    #[test]
    fn frame_to_frame_mode_tracks_without_model() {
        use crate::config::TrackingReference;
        let cam = PinholeCamera::tiny();
        let mut config = KFusionConfig::fast_test();
        config.tracking_reference = TrackingReference::PreviousFrame;
        // raycast almost never: frame-to-frame does not need it
        config.raycast_rate = 30;
        let mut kf = KinectFusion::new(config, cam, center_pose());
        let depth = structured_depth(&cam);
        for i in 0..4 {
            let r = kf.process_frame(&depth, Tracer::off());
            assert!(r.tracked, "frame {i} lost in frame-to-frame mode");
        }
        let drift = kf.current_pose().translation_distance(&center_pose());
        assert!(drift < 0.02, "static frame-to-frame drifted {drift} m");
    }

    #[test]
    fn all_holes_frame_is_lost_but_survives() {
        let cam = PinholeCamera::tiny();
        let mut kf = KinectFusion::new(KFusionConfig::fast_test(), cam, center_pose());
        kf.process_frame(&structured_depth(&cam), Tracer::off());
        let r = kf.process_frame(&flat_depth(&cam, 0), Tracer::off());
        assert!(!r.tracked);
        assert_eq!(kf.lost_frames(), 1);
        // pipeline keeps going on the next good frame
        let r = kf.process_frame(&structured_depth(&cam), Tracer::off());
        assert!(r.tracked);
    }
}
