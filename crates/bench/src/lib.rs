//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`; see
//! the experiment index in `DESIGN.md` and the recorded outcomes in
//! `EXPERIMENTS.md`. The binaries print plain-text tables and ASCII
//! charts so a reproduction can be eyeballed in a terminal.

#![deny(unsafe_code)]

use slam_kfusion::KFusionConfig;
use slam_math::camera::PinholeCamera;
use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
use slam_scene::noise::DepthNoiseModel;
use slambench::engine::{EvalEngine, RunOutcome};
use slambench::run::PipelineRun;

/// The sensor used by the exploration figures: half-resolution (320×240),
/// which keeps hundreds of pipeline evaluations affordable while
/// preserving the paper's kernel cost mix (the pixel kernels scale with
/// the image, the TSDF volume work does not — at 160×120 the volume
/// dominates so much that speed-ups become exaggerated).
pub fn exploration_camera() -> PinholeCamera {
    PinholeCamera::new(320, 240, 262.5, 262.5, 159.5, 119.5)
}

/// The quarter-resolution sensor for fast examples and smoke tests.
pub fn tiny_camera() -> PinholeCamera {
    PinholeCamera::tiny()
}

/// The full Kinect sensor, used for the headline (E4) experiment.
pub fn headline_camera() -> PinholeCamera {
    PinholeCamera::kinect()
}

/// The benchmark sequence at a given camera and frame count: the
/// living-room scene with Kinect noise (the workspace's ICL-NUIM
/// `living_room` stand-in).
pub fn living_room_dataset(camera: PinholeCamera, frames: usize) -> SyntheticDataset {
    let mut dc = DatasetConfig::living_room();
    dc.camera = camera;
    dc.frame_count = frames;
    dc.noise = DepthNoiseModel {
        max_range: 6.0,
        ..DepthNoiseModel::kinect()
    };
    SyntheticDataset::generate(&dc)
}

/// The "XU3-tuned" configuration: a dense configuration frozen here so
/// that `fig3_phones` and `headline` are reproducible without re-running
/// the search. It is not `fig2_dse`'s current best feasible point: that
/// one is sparse (csr 8, μ 0.132, `results/fig2_dse.txt`), because the
/// exploration still sweeps `volume_backend`. Re-derive this config once
/// the KinectFusion space no longer holds the backend.
pub fn xu3_tuned_config() -> KFusionConfig {
    KFusionConfig {
        compute_size_ratio: 2,
        icp_threshold: 2e-5,
        mu: 0.075,
        volume_resolution: 96,
        pyramid_iterations: [4, 2, 2],
        tracking_rate: 1,
        integration_rate: 2,
        raycast_rate: 1,
        bilateral_filter: true,
        ..KFusionConfig::default()
    }
}

/// The paper's quality thresholds (Figure 2 right): accurate, fast,
/// power-efficient.
pub mod thresholds {
    /// Max ATE limit in metres ("Accurate (Max ATE < 5 cm)").
    pub const MAX_ATE_M: f64 = 0.05;
    /// FPS target ("Fast (Speed > 30 FPS)").
    pub const FPS: f64 = 30.0;
    /// Power limit in watts ("Power efficient (consumption < 3 W)").
    pub const WATTS: f64 = 3.0;
}

/// Evaluates `configs` on `engine` as one concurrent batch and returns the
/// runs in request order.
///
/// # Panics
///
/// Panics when the batch is rejected or a run panicked: a figure needs
/// every one of its runs.
pub fn evaluate_all(
    engine: &EvalEngine,
    dataset: &SyntheticDataset,
    configs: &[KFusionConfig],
) -> Vec<PipelineRun> {
    match engine.evaluate_batch(dataset, configs) {
        // a figure missing one of its runs would print a wrong table
        Ok(outcomes) => outcomes.into_iter().map(RunOutcome::expect_run).collect(),
        // xtask-allow: panic-path — reason: a figure with a rejected batch has nothing to print; the bins run fixed, valid configurations
        Err(e) => panic!("batch evaluation failed: {e}"),
    }
}

/// Formats a float with fixed decimals for table cells.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_config_is_valid_and_lighter_than_default() {
        let tuned = xu3_tuned_config();
        tuned.validate().unwrap();
        let default = KFusionConfig::default();
        assert!(tuned.volume_resolution < default.volume_resolution);
        assert!(tuned.compute_size_ratio > default.compute_size_ratio);
        assert!(tuned.total_icp_iterations() < default.total_icp_iterations());
    }

    #[test]
    fn dataset_helper_generates() {
        let d = living_room_dataset(exploration_camera(), 3);
        assert_eq!(d.len(), 3);
        assert!(d.frames()[0].valid_depth_fraction() > 0.5);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
