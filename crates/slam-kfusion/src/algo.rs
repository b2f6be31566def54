//! The algorithm abstraction: every dense SLAM pipeline in the workspace
//! runs behind the [`SlamAlgorithm`] trait, and [`AlgoId`] is the stable
//! handle the evaluation layers (driver, engine cache, orchestrators,
//! bins) use to pick one without naming concrete types.
//!
//! The contract an implementor signs up for:
//!
//! * **Construction** from the shared [`KFusionConfig`] knob set, the
//!   sensor intrinsics and a ground-truth initial pose (the SLAMBench
//!   evaluation protocol). Knobs without an analogue are ignored, and
//!   the algorithm's [`AlgoId::parameter_space`] descriptor tells the
//!   DSE layer which knobs are actually live.
//! * **Determinism**: [`SlamAlgorithm::step_frame_traced`] must be
//!   bit-identical for any `threads` value and with or without an
//!   enabled tracer — route all parallelism through `slam_exec` and
//!   keep private reductions ordered (the cross-algorithm determinism
//!   suite pins this).
//! * **Workload honesty**: every kernel invocation records its measured
//!   [`crate::workload::Workload`] so `slam-power` can cost the run on
//!   device models.

use crate::config::KFusionConfig;
use crate::mesh::{marching_cubes, TriangleMesh};
use crate::odometry::PointOdometry;
use crate::pipeline::{FrameResult, KinectFusion};
use serde::{Deserialize, Serialize};
use slam_math::camera::PinholeCamera;
use slam_math::Se3;
use slam_trace::Tracer;
use std::fmt;
use std::str::FromStr;

/// A dense SLAM pipeline the evaluation stack can drive frame by frame.
///
/// Object-safe: the generic driver holds a `Box<dyn SlamAlgorithm>`
/// created through [`AlgoId::create`].
pub trait SlamAlgorithm {
    /// Processes one depth frame (millimetres, row-major, `0` = hole)
    /// and advances the pipeline state, recording spans/counters into
    /// `tracer`. Tracing must never change the outputs.
    ///
    /// # Panics
    ///
    /// Panics when `depth_mm.len()` does not match the sensor
    /// resolution the algorithm was created for.
    fn step_frame_traced(&mut self, depth_mm: &[u16], tracer: &Tracer) -> FrameResult;

    /// [`SlamAlgorithm::step_frame_traced`] with tracing disabled.
    ///
    /// # Panics
    ///
    /// Panics when `depth_mm.len()` does not match the sensor
    /// resolution.
    fn step_frame(&mut self, depth_mm: &[u16]) -> FrameResult {
        self.step_frame_traced(depth_mm, Tracer::off())
    }

    /// The current pose estimate (camera-to-world).
    fn current_pose(&self) -> Se3;

    /// Number of frames processed so far.
    fn frames_processed(&self) -> usize;

    /// Number of frames on which tracking failed.
    fn lost_frames(&self) -> usize;

    /// Extracts a triangle mesh of the reconstruction, if this
    /// algorithm builds a meshable model (`None` otherwise). `threads`
    /// follows the usual `0 = all available` convention and never
    /// changes the mesh bits.
    fn extract_mesh(&self, threads: usize) -> Option<TriangleMesh>;
}

/// The domain of one algorithm parameter, in DSE terms. A plain-data
/// mirror of the `slam-dse` domain kinds so algorithm crates can
/// describe their space without depending on the DSE layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamDomain {
    /// An ordered discrete set of allowed values.
    Ordinal(&'static [f64]),
    /// A continuous interval, linear scale.
    Real {
        /// Smallest allowed value.
        lo: f64,
        /// Largest allowed value.
        hi: f64,
    },
    /// A continuous interval explored on a logarithmic scale.
    LogReal {
        /// Smallest allowed value.
        lo: f64,
        /// Largest allowed value.
        hi: f64,
    },
    /// An integer range (inclusive).
    Integer {
        /// Smallest allowed value.
        lo: i64,
        /// Largest allowed value.
        hi: i64,
    },
    /// A boolean flag.
    Flag,
}

/// One tunable parameter of an algorithm's design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamDescriptor {
    /// The knob's name. Names shared with [`KFusionConfig`] fields map
    /// onto those fields when the DSE layer decodes a design point
    /// (`pyramid_l0..l2` address `pyramid_iterations`).
    pub name: &'static str,
    /// The knob's domain.
    pub domain: ParamDomain,
}

/// The KinectFusion design space — the ISPASS'18 paper's ten knobs plus
/// the TSDF storage backend (appended last so existing design-point
/// encodings keep their indices).
const KFUSION_SPACE: &[ParamDescriptor] = &[
    ParamDescriptor {
        name: "compute_size_ratio",
        domain: ParamDomain::Ordinal(&[1.0, 2.0, 4.0, 8.0]),
    },
    ParamDescriptor {
        name: "icp_threshold",
        domain: ParamDomain::LogReal { lo: 1e-6, hi: 1e-4 },
    },
    ParamDescriptor {
        name: "mu",
        domain: ParamDomain::Real { lo: 0.01, hi: 0.2 },
    },
    ParamDescriptor {
        name: "volume_resolution",
        domain: ParamDomain::Ordinal(&[32.0, 64.0, 96.0, 128.0, 192.0, 256.0]),
    },
    ParamDescriptor {
        name: "pyramid_l0",
        domain: ParamDomain::Integer { lo: 1, hi: 10 },
    },
    ParamDescriptor {
        name: "pyramid_l1",
        domain: ParamDomain::Integer { lo: 0, hi: 5 },
    },
    ParamDescriptor {
        name: "pyramid_l2",
        domain: ParamDomain::Integer { lo: 0, hi: 4 },
    },
    ParamDescriptor {
        name: "tracking_rate",
        domain: ParamDomain::Integer { lo: 1, hi: 3 },
    },
    ParamDescriptor {
        name: "integration_rate",
        domain: ParamDomain::Integer { lo: 1, hi: 5 },
    },
    ParamDescriptor {
        name: "bilateral_filter",
        domain: ParamDomain::Flag,
    },
    ParamDescriptor {
        name: "volume_backend",
        domain: ParamDomain::Flag,
    },
];

/// The point-odometry design space: the TSDF-specific knob (`mu`) is
/// gone, `volume_resolution` doubles as the point-map binning grid, and
/// `integration_rate` is the fusion cadence — nine knobs.
const ODOMETRY_SPACE: &[ParamDescriptor] = &[
    ParamDescriptor {
        name: "compute_size_ratio",
        domain: ParamDomain::Ordinal(&[1.0, 2.0, 4.0, 8.0]),
    },
    ParamDescriptor {
        name: "icp_threshold",
        domain: ParamDomain::LogReal { lo: 1e-6, hi: 1e-4 },
    },
    ParamDescriptor {
        name: "volume_resolution",
        domain: ParamDomain::Ordinal(&[32.0, 64.0, 96.0, 128.0, 192.0, 256.0]),
    },
    ParamDescriptor {
        name: "pyramid_l0",
        domain: ParamDomain::Integer { lo: 1, hi: 10 },
    },
    ParamDescriptor {
        name: "pyramid_l1",
        domain: ParamDomain::Integer { lo: 0, hi: 5 },
    },
    ParamDescriptor {
        name: "pyramid_l2",
        domain: ParamDomain::Integer { lo: 0, hi: 4 },
    },
    ParamDescriptor {
        name: "tracking_rate",
        domain: ParamDomain::Integer { lo: 1, hi: 3 },
    },
    ParamDescriptor {
        name: "integration_rate",
        domain: ParamDomain::Integer { lo: 1, hi: 5 },
    },
    ParamDescriptor {
        name: "bilateral_filter",
        domain: ParamDomain::Flag,
    },
];

/// Stable identifier of a registered algorithm.
///
/// The [`AlgoId::id`] string is part of the evaluation engine's
/// content-addressed cache key — never change it for an existing
/// variant.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum AlgoId {
    /// Frame-to-model dense SLAM over a TSDF volume (Newcombe et al.,
    /// ISMAR 2011) — the paper's algorithm.
    #[default]
    KinectFusion,
    /// Frame-to-frame ICP odometry with point-based fusion — cheaper,
    /// no volume, drifts open-loop.
    PointOdometry,
}

impl AlgoId {
    /// Every registered algorithm, in declaration order.
    pub const ALL: [AlgoId; 2] = [AlgoId::KinectFusion, AlgoId::PointOdometry];

    /// The stable string id used in cache keys and reports.
    pub fn id(self) -> &'static str {
        match self {
            AlgoId::KinectFusion => "kfusion",
            AlgoId::PointOdometry => "point-odometry",
        }
    }

    /// Instantiates the algorithm for a sensor, starting at
    /// `initial_pose` (camera-to-world).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`KFusionConfig::validate`].
    pub fn create(
        self,
        config: &KFusionConfig,
        camera: PinholeCamera,
        initial_pose: Se3,
    ) -> Box<dyn SlamAlgorithm> {
        match self {
            AlgoId::KinectFusion => {
                Box::new(KinectFusion::new(config.clone(), camera, initial_pose))
            }
            AlgoId::PointOdometry => {
                Box::new(PointOdometry::new(config.clone(), camera, initial_pose))
            }
        }
    }

    /// The algorithm's typed design-space descriptor: which
    /// [`KFusionConfig`] knobs are live for this algorithm and over
    /// what domains. The DSE layer builds its search space from this,
    /// so the space is no longer hard-wired to KinectFusion.
    pub fn parameter_space(self) -> &'static [ParamDescriptor] {
        match self {
            AlgoId::KinectFusion => KFUSION_SPACE,
            AlgoId::PointOdometry => ODOMETRY_SPACE,
        }
    }
}

impl fmt::Display for AlgoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl FromStr for AlgoId {
    type Err = String;

    /// Parses a stable algorithm id. The error message enumerates every
    /// valid name: it surfaces verbatim in user-facing rejections (CLI
    /// argument errors, `slam-serve` 400 responses), where "unknown
    /// algorithm" alone would leave the caller guessing.
    fn from_str(s: &str) -> Result<AlgoId, String> {
        AlgoId::ALL
            .into_iter()
            .find(|a| a.id() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = AlgoId::ALL.iter().map(|a| a.id()).collect();
                format!(
                    "unknown algorithm {s:?}; valid algorithms: {}",
                    known.join(", ")
                )
            })
    }
}

impl SlamAlgorithm for KinectFusion {
    fn step_frame_traced(&mut self, depth_mm: &[u16], tracer: &Tracer) -> FrameResult {
        self.process_frame(depth_mm, tracer)
    }

    fn current_pose(&self) -> Se3 {
        KinectFusion::current_pose(self)
    }

    fn frames_processed(&self) -> usize {
        KinectFusion::frames_processed(self)
    }

    fn lost_frames(&self) -> usize {
        KinectFusion::lost_frames(self)
    }

    fn extract_mesh(&self, threads: usize) -> Option<TriangleMesh> {
        // match once so marching cubes runs statically dispatched on the
        // concrete backend instead of through the storage enum per voxel
        Some(match self.volume() {
            crate::volume::VolumeStorage::Dense(v) => marching_cubes(v, threads, Tracer::off()),
            crate::volume::VolumeStorage::Sparse(v) => marching_cubes(v, threads, Tracer::off()),
        })
    }
}

impl SlamAlgorithm for PointOdometry {
    fn step_frame_traced(&mut self, depth_mm: &[u16], tracer: &Tracer) -> FrameResult {
        self.process_frame(depth_mm, tracer)
    }

    fn current_pose(&self) -> Se3 {
        PointOdometry::current_pose(self)
    }

    fn frames_processed(&self) -> usize {
        PointOdometry::frames_processed(self)
    }

    fn lost_frames(&self) -> usize {
        PointOdometry::lost_frames(self)
    }

    fn extract_mesh(&self, _threads: usize) -> Option<TriangleMesh> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structured_depth(camera: &PinholeCamera) -> Vec<u16> {
        let mut d = vec![1500u16; camera.pixel_count()];
        for y in 20..60 {
            for x in 20..60 {
                d[y * camera.width + x] = 1200;
            }
        }
        d
    }

    #[test]
    fn ids_are_stable_and_round_trip() {
        assert_eq!(AlgoId::KinectFusion.id(), "kfusion");
        assert_eq!(AlgoId::PointOdometry.id(), "point-odometry");
        for a in AlgoId::ALL {
            assert_eq!(a.id().parse::<AlgoId>().unwrap(), a);
            assert_eq!(format!("{a}"), a.id());
        }
        assert!("nonesuch".parse::<AlgoId>().is_err());
        assert_eq!(AlgoId::default(), AlgoId::KinectFusion);
    }

    #[test]
    fn parse_error_lists_every_valid_name() {
        let err = "nonesuch".parse::<AlgoId>().unwrap_err();
        assert!(err.contains("\"nonesuch\""), "echoes the input: {err}");
        for a in AlgoId::ALL {
            assert!(err.contains(a.id()), "missing {} in: {err}", a.id());
        }
    }

    #[test]
    fn every_algorithm_steps_through_the_trait() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let pose = Se3::from_translation(slam_math::Vec3::new(2.0, 2.0, 0.2));
        for id in AlgoId::ALL {
            let mut alg = id.create(&KFusionConfig::fast_test(), cam, pose);
            for i in 0..3 {
                let r = alg.step_frame(&depth);
                assert!(r.tracked, "{id}: frame {i} lost");
                assert_eq!(r.frame_index, i);
            }
            assert_eq!(alg.frames_processed(), 3);
            assert_eq!(alg.lost_frames(), 0);
            let drift = alg.current_pose().translation_distance(&pose);
            assert!(drift < 0.05, "{id}: static drift {drift} m");
        }
    }

    #[test]
    fn mesh_extraction_is_optional_per_algorithm() {
        let cam = PinholeCamera::tiny();
        let depth = structured_depth(&cam);
        let pose = Se3::from_translation(slam_math::Vec3::new(2.0, 2.0, 0.2));
        let mut kf = AlgoId::KinectFusion.create(&KFusionConfig::fast_test(), cam, pose);
        let mut odo = AlgoId::PointOdometry.create(&KFusionConfig::fast_test(), cam, pose);
        for _ in 0..3 {
            kf.step_frame(&depth);
            odo.step_frame(&depth);
        }
        let mesh = kf.extract_mesh(1).expect("KinectFusion builds a volume");
        assert!(mesh.triangle_count() > 0);
        assert!(odo.extract_mesh(1).is_none(), "odometry has no mesh");
    }

    #[test]
    fn parameter_spaces_differ_per_algorithm() {
        let kf = AlgoId::KinectFusion.parameter_space();
        let odo = AlgoId::PointOdometry.parameter_space();
        assert_eq!(kf.len(), 11);
        assert_eq!(odo.len(), 9);
        assert!(kf.iter().any(|p| p.name == "mu"));
        assert!(
            !odo.iter().any(|p| p.name == "mu"),
            "odometry has no TSDF mu"
        );
        // the backend knob is appended last so the ten original knob
        // indices — part of existing design-point encodings — are stable
        assert_eq!(kf.last().map(|p| p.name), Some("volume_backend"));
        assert!(
            !odo.iter().any(|p| p.name == "volume_backend"),
            "odometry has no TSDF volume"
        );
    }

    #[test]
    fn serde_id_is_variant_name() {
        // PipelineRun serialises AlgoId; pin the wire format
        assert_eq!(
            serde_json::to_string(&AlgoId::PointOdometry).unwrap(),
            "\"PointOdometry\""
        );
        let back: AlgoId = serde_json::from_str("\"KinectFusion\"").unwrap();
        assert_eq!(back, AlgoId::KinectFusion);
    }
}
