//! Running the pipeline over a dataset and costing the result on devices.

use serde::{Deserialize, Serialize};
use slam_kfusion::{AlgoId, FrameWorkload, KFusionConfig, Kernel};
use slam_math::Se3;
use slam_metrics::ate::{ate, AteOptions, AteResult};
use slam_metrics::timing::SequenceTiming;
use slam_power::{DeviceModel, RunCost};
use slam_scene::dataset::SyntheticDataset;
use slam_trace::Tracer;

/// Per-frame outcome of a pipeline run (device independent).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Frame index.
    pub index: usize,
    /// Estimated pose after the frame.
    pub pose: Se3,
    /// Ground-truth pose of the frame.
    pub ground_truth: Se3,
    /// Whether tracking succeeded.
    pub tracked: bool,
    /// Measured per-kernel workload.
    pub workload: FrameWorkload,
    /// Host wall-clock seconds for this frame.
    pub wall_time: f64,
}

/// The device-independent result of running one configuration over one
/// dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineRun {
    /// The algorithm that ran (defaults to KinectFusion so pre-existing
    /// serialised runs deserialise unchanged).
    #[serde(default)]
    pub algorithm: AlgoId,
    /// The configuration that ran.
    pub config: KFusionConfig,
    /// Name of the dataset.
    pub dataset: String,
    /// Per-frame records.
    pub frames: Vec<FrameRecord>,
    /// Trajectory accuracy vs. ground truth (SLAMBench style, no
    /// alignment: the run is seeded with the ground-truth initial pose).
    pub ate: AteResult,
    /// Number of tracking failures.
    pub lost_frames: usize,
}

impl PipelineRun {
    /// Total workload summed over all frames.
    pub fn total_workload(&self) -> FrameWorkload {
        let mut total = FrameWorkload::new();
        for f in &self.frames {
            total.merge(&f.workload);
        }
        total
    }

    /// Replays the run's workload trace on a device model.
    pub fn cost_on(&self, device: &DeviceModel) -> DeviceRunReport {
        self.cost_on_inner(device, false)
    }

    /// Like [`PipelineRun::cost_on`] but honouring the device's sustained
    /// thermal budget (phones throttle under continuous load).
    pub fn cost_on_sustained(&self, device: &DeviceModel) -> DeviceRunReport {
        self.cost_on_inner(device, true)
    }

    fn cost_on_inner(&self, device: &DeviceModel, sustained: bool) -> DeviceRunReport {
        let mut cost = RunCost::default();
        let mut timing = SequenceTiming::new();
        let mut per_kernel: Vec<(Kernel, f64)> = Kernel::ALL.iter().map(|&k| (k, 0.0)).collect();
        for f in &self.frames {
            let fc = if sustained {
                device.execute_frame_sustained(&f.workload)
            } else {
                device.execute_frame(&f.workload)
            };
            cost.frames += 1;
            cost.seconds += fc.seconds;
            cost.joules += fc.joules;
            timing.push(fc.seconds);
            for kc in &fc.kernels {
                if let Some(e) = per_kernel.iter_mut().find(|(k, _)| *k == kc.kernel) {
                    e.1 += kc.seconds;
                }
            }
        }
        DeviceRunReport {
            device: device.name.clone(),
            run_cost: cost,
            timing,
            kernel_seconds: per_kernel,
        }
    }

    /// Host wall-clock total, seconds (useful for criterion-style
    /// comparisons, not for the paper's figures).
    pub fn wall_seconds(&self) -> f64 {
        self.frames.iter().map(|f| f.wall_time).sum()
    }
}

/// A pipeline run costed on one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceRunReport {
    /// Device name.
    pub device: String,
    /// Aggregate time/energy.
    pub run_cost: RunCost,
    /// Per-frame modelled times.
    pub timing: SequenceTiming,
    /// Modelled seconds per kernel over the whole run, in
    /// [`Kernel::ALL`] order.
    pub kernel_seconds: Vec<(Kernel, f64)>,
}

impl DeviceRunReport {
    /// The kernel consuming the most modelled time.
    pub fn dominant_kernel(&self) -> Kernel {
        self.kernel_seconds
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(k, _)| *k)
            .unwrap_or(Kernel::Integrate)
    }
}

/// Runs one algorithm/configuration over every frame of `dataset`,
/// recording spans and counters into `tracer`.
///
/// This is the single place where the workspace steps a
/// [`slam_kfusion::SlamAlgorithm`] over a dataset. Only the
/// [`EvalEngine`](crate::engine::EvalEngine) calls it, and every
/// orchestrator, bin and test reaches it through the engine, so new
/// algorithms plug in everywhere at once.
///
/// # Panics
///
/// Panics when the dataset is empty.
pub(crate) fn run_algorithm(
    algorithm: AlgoId,
    dataset: &SyntheticDataset,
    config: &KFusionConfig,
    tracer: &Tracer,
) -> PipelineRun {
    assert!(!dataset.is_empty(), "cannot run on an empty dataset");
    let init = dataset.frames()[0].ground_truth;
    let mut alg = algorithm.create(config, *dataset.camera(), init);
    let frames: Vec<FrameRecord> = dataset
        .frames()
        .iter()
        .map(|frame| {
            let r = alg.step_frame_traced(&frame.depth_mm, tracer);
            FrameRecord {
                index: frame.index,
                pose: r.pose,
                ground_truth: frame.ground_truth,
                tracked: r.tracked,
                workload: r.workload,
                wall_time: r.wall_time,
            }
        })
        .collect();
    let est: Vec<Se3> = frames.iter().map(|f| f.pose).collect();
    let gt: Vec<Se3> = frames.iter().map(|f| f.ground_truth).collect();
    // xtask-allow: panic-path — reason: the non-empty assert above gives equal-length, non-empty trajectories
    let ate = ate(&est, &gt, AteOptions::default()).expect("non-empty trajectories");
    PipelineRun {
        algorithm,
        config: config.clone(),
        dataset: dataset.config().name.clone(),
        frames,
        ate,
        lost_frames: alg.lost_frames(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slam_power::devices::{odroid_xu3, raspberry_pi2};
    use slam_scene::dataset::DatasetConfig;

    fn run(algorithm: AlgoId, dataset: &SyntheticDataset) -> PipelineRun {
        run_algorithm(
            algorithm,
            dataset,
            &KFusionConfig::fast_test(),
            Tracer::off(),
        )
    }

    fn tiny_run() -> PipelineRun {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = 6;
        let dataset = SyntheticDataset::generate(&dc);
        run(AlgoId::KinectFusion, &dataset)
    }

    #[test]
    fn run_produces_complete_records() {
        let run = tiny_run();
        assert_eq!(run.frames.len(), 6);
        assert_eq!(run.ate.errors.len(), 6);
        assert!(
            run.ate.max < 0.2,
            "tiny scene should track, ATE {}",
            run.ate.max
        );
        assert_eq!(run.dataset, "tiny_test");
        assert!(run.wall_seconds() > 0.0);
    }

    #[test]
    fn total_workload_sums_frames() {
        let run = tiny_run();
        let total = run.total_workload().total();
        let manual: f64 = run.frames.iter().map(|f| f.workload.total().ops).sum();
        assert!((total.ops - manual).abs() < 1e-6);
        assert!(total.ops > 0.0);
    }

    #[test]
    fn cost_on_devices_orders_sensibly() {
        let run = tiny_run();
        let xu3 = run.cost_on(&odroid_xu3());
        let pi = run.cost_on(&raspberry_pi2());
        assert_eq!(xu3.run_cost.frames, 6);
        assert!(pi.run_cost.seconds > xu3.run_cost.seconds);
        assert!(xu3.run_cost.average_watts() > 0.0);
        assert_eq!(xu3.timing.len(), 6);
    }

    #[test]
    fn dominant_kernel_is_a_heavy_one() {
        let run = tiny_run();
        let report = run.cost_on(&odroid_xu3());
        let k = report.dominant_kernel();
        assert!(
            matches!(
                k,
                Kernel::Integrate | Kernel::Raycast | Kernel::Track | Kernel::BilateralFilter
            ),
            "unexpected dominant kernel {k}"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = 0;
        let dataset = SyntheticDataset::generate(&dc);
        let _ = run(AlgoId::KinectFusion, &dataset);
    }

    #[test]
    fn every_algorithm_runs_through_the_generic_driver() {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = 5;
        let dataset = SyntheticDataset::generate(&dc);
        for &algo in &AlgoId::ALL {
            let run = run(algo, &dataset);
            assert_eq!(run.algorithm, algo);
            assert_eq!(run.frames.len(), 5, "{algo} truncated the dataset");
            assert!(
                run.ate.max < 0.5,
                "{algo} diverged on the tiny scene, ATE {}",
                run.ate.max
            );
        }
    }
}
