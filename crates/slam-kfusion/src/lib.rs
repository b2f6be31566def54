//! A from-scratch KinectFusion (Newcombe et al., ISMAR 2011) dense SLAM
//! pipeline with the algorithmic parameterisation of SLAMBench.
//!
//! The pipeline consumes a stream of depth images (millimetres, `0` =
//! hole) and produces a camera pose per frame plus a dense TSDF model of
//! the scene. Per frame it runs the classic kernel chain:
//!
//! ```text
//! mm2meters → bilateral filter → pyramid (half-sample)
//!           → depth2vertex / vertex2normal
//!           → ICP tracking against the raycast model
//!           → TSDF integration → raycast (model prediction)
//! ```
//!
//! The hot kernels (bilateral filter, ICP association, TSDF
//! integration, raycast, marching cubes) execute on the workspace's
//! shared persistent worker pool, the [`slam_exec`] crate, with
//! deterministic size-only partitioning: outputs are bit-identical
//! regardless of the `threads` knob in [`config::KFusionConfig`]. The
//! thread-count derivation ([`slam_exec::effective_threads`]), the
//! pool's helping between concurrent runs and the thread budgets
//! ([`slam_exec::with_thread_budget`]) live there too; import them from
//! `slam_exec` directly.
//!
//! Every kernel is instrumented with a [`workload::Workload`] —
//! arithmetic-op and memory-byte counts — which the `slam-power` crate
//! turns into modelled execution time and energy on embedded devices.
//! This is what lets the workspace reproduce the paper's
//! performance/accuracy/power trade-off studies without the original
//! hardware.
//!
//! The algorithmic parameters exposed by [`config::KFusionConfig`]
//! (volume resolution, TSDF truncation `mu`, `compute_size_ratio`, ICP
//! threshold, pyramid iterations, tracking/integration rates) are exactly
//! the knobs the ISPASS'18 paper's design-space exploration sweeps.
//!
//! # Examples
//!
//! ```
//! use slam_kfusion::{KFusionConfig, KinectFusion, SlamAlgorithm};
//! use slam_math::camera::PinholeCamera;
//! use slam_math::Se3;
//!
//! let camera = PinholeCamera::tiny();
//! let config = KFusionConfig::fast_test();
//! let mut kf = KinectFusion::new(config, camera, Se3::IDENTITY);
//! // feed a synthetic flat-wall depth image (2 m everywhere)
//! let depth_mm = vec![2000u16; camera.pixel_count()];
//! let result = kf.step_frame(&depth_mm);
//! assert!(result.tracked);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod algo;
pub mod config;
pub mod icp;
pub mod image;
mod mc_tables;
pub mod mesh;
pub mod odometry;
pub mod pipeline;
pub mod preprocess;
pub mod raycast;
pub mod tsdf;
pub mod tsdf_sparse;
pub mod volume;
pub mod workload;

pub use algo::{AlgoId, ParamDescriptor, ParamDomain, SlamAlgorithm};
pub use config::{ConfigError, KFusionConfig};
pub use image::Image2D;
pub use mesh::{marching_cubes, TriangleMesh};
pub use odometry::PointOdometry;
pub use pipeline::{FrameResult, KinectFusion};
pub use tsdf::TsdfVolume;
pub use tsdf_sparse::SparseTsdfVolume;
pub use volume::{
    BadVoxel, DumpError, RayBundle, Volume, VolumeBackend, VolumeStorage, VoxelFault,
};
pub use workload::{FrameWorkload, Kernel, Workload};
