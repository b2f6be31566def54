//! Multi-sequence benchmark suites: run a set of (sequence ×
//! configuration) pairs and tabulate speed/accuracy/power per cell —
//! the shape of the original SLAMBench result tables.

use crate::engine::{EvalEngine, RunOutcome};
use serde::{Deserialize, Serialize};
use slam_kfusion::KFusionConfig;
use slam_math::camera::PinholeCamera;
use slam_power::DeviceModel;
use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
use slam_scene::noise::DepthNoiseModel;
use slam_scene::presets;
use std::fmt;

/// A named benchmark sequence (dataset recipe).
#[derive(Debug, Clone)]
pub struct Sequence {
    /// Sequence name (e.g. `"living_room/kt2"`).
    pub name: String,
    /// The dataset recipe.
    pub config: DatasetConfig,
}

/// The standard sequence suite: the four living-room trajectories plus
/// the office and corridor scenes, at the given camera and length.
pub fn standard_suite(camera: PinholeCamera, frames: usize) -> Vec<Sequence> {
    let mut suite = Vec::new();
    for k in 0..4 {
        let mut dc = DatasetConfig::living_room();
        dc.name = format!("living_room/kt{k}");
        dc.trajectory = presets::living_room_kt(k);
        dc.camera = camera;
        dc.frame_count = frames;
        suite.push(Sequence {
            name: dc.name.clone(),
            config: dc,
        });
    }
    let mut office = DatasetConfig::office();
    office.camera = camera;
    office.frame_count = frames;
    suite.push(Sequence {
        name: "office/wobble".into(),
        config: office,
    });
    let corridor = DatasetConfig {
        name: "corridor/walk".into(),
        scene: presets::corridor(),
        trajectory: presets::corridor_trajectory(),
        camera,
        frame_count: frames,
        fps: 30.0,
        noise: DepthNoiseModel {
            max_range: 6.0,
            ..DepthNoiseModel::kinect()
        },
        seed: 0xC0441D04,
        time_step: 0.0101,
    };
    suite.push(Sequence {
        name: corridor.name.clone(),
        config: corridor,
    });
    suite
}

/// The adversarial suite: sequences built to separate algorithms, not
/// configurations. Each sequence attacks a structural assumption —
/// frame-to-model trackers coast on the accumulated TSDF where
/// frame-to-frame odometry has only the previous (degraded) frame, and
/// vice versa — so algorithms that tie on [`standard_suite`] diverge
/// measurably here in ATE or lost frames.
///
/// * `blank_corridor/dropout` — the featureless hallway under 35 % depth
///   dropout: the aperture problem with most of the evidence removed.
/// * `warehouse/aisle` — a regular grid of identical pillars: aliased
///   geometry where a drifted tracker re-converges onto the wrong
///   pillar.
/// * `corridor/dropout` — the landmarked corridor under the same heavy
///   dropout, the control pairing for `blank_corridor/dropout`.
///
/// One attack cannot ride this suite's millimetre wire format: NaN/Inf
/// laced sensor frames (`u16` has no NaN). Those are built with
/// [`slam_scene::noise::lace_non_finite`] and fed through the pipeline's
/// float-depth entry point instead; the `non_finite` integration suite
/// asserts nothing escapes into the model, the poses or the ATE.
pub fn adversarial_suite(camera: PinholeCamera, frames: usize) -> Vec<Sequence> {
    let heavy_dropout = DepthNoiseModel {
        dropout: 0.35,
        max_range: 6.0,
        ..DepthNoiseModel::kinect()
    };
    let blank = DatasetConfig {
        name: "blank_corridor/dropout".into(),
        scene: presets::blank_corridor(),
        trajectory: presets::corridor_trajectory(),
        camera,
        frame_count: frames,
        fps: 30.0,
        noise: heavy_dropout,
        seed: 0xAD5E_0001,
        time_step: 0.0101,
    };
    let warehouse = DatasetConfig {
        name: "warehouse/aisle".into(),
        scene: presets::warehouse(),
        trajectory: presets::warehouse_trajectory(),
        camera,
        frame_count: frames,
        fps: 30.0,
        noise: DepthNoiseModel {
            max_range: 6.0,
            ..DepthNoiseModel::kinect()
        },
        seed: 0xAD5E_0002,
        time_step: 0.0101,
    };
    let corridor = DatasetConfig {
        name: "corridor/dropout".into(),
        scene: presets::corridor(),
        trajectory: presets::corridor_trajectory(),
        camera,
        frame_count: frames,
        fps: 30.0,
        noise: heavy_dropout,
        seed: 0xAD5E_0003,
        time_step: 0.0101,
    };
    [blank, warehouse, corridor]
        .into_iter()
        .map(|config| Sequence {
            name: config.name.clone(),
            config,
        })
        .collect()
}

/// One suite cell: a configuration's result on a sequence, costed on a
/// device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteCell {
    /// Sequence name.
    pub sequence: String,
    /// Configuration label.
    pub config: String,
    /// Max ATE, metres.
    pub max_ate_m: f64,
    /// Mean ATE, metres.
    pub mean_ate_m: f64,
    /// Tracking failures.
    pub lost_frames: usize,
    /// Modelled FPS on the device.
    pub fps: f64,
    /// Modelled average power on the device, watts.
    pub watts: f64,
}

/// One grid cell the suite could not fill: the configuration was
/// quarantined on that sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteFailure {
    /// Sequence name.
    pub sequence: String,
    /// Configuration label.
    pub config: String,
    /// Why the engine gave up
    /// ([`QuarantinedConfig::cause`](crate::fault::QuarantinedConfig)).
    pub cause: String,
}

/// The suite's result: the filled cells plus the cells that failed.
/// Look cells up by `(sequence, config)` id with [`SuiteReport::cell`]
/// instead of positional indexing — a failed cell shifts positions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Stable id of the algorithm that filled the grid
    /// ([`AlgoId::id`](slam_kfusion::AlgoId::id)); empty in reports
    /// serialised before the algorithm abstraction (those were all
    /// KinectFusion).
    #[serde(default)]
    pub algorithm: String,
    /// Filled cells, `(sequence-major, configuration-minor)` order,
    /// failed cells omitted.
    pub cells: Vec<SuiteCell>,
    /// Cells with no result, with the reported cause.
    pub failures: Vec<SuiteFailure>,
}

/// Why a [`SuiteReport::cell`] lookup found no filled cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteError {
    /// The cell was attempted but its run was quarantined.
    CellFailed {
        /// Sequence name.
        sequence: String,
        /// Configuration label.
        config: String,
        /// Why the engine gave up on the run.
        cause: String,
    },
    /// No such `(sequence, config)` pair exists in the report at all —
    /// the id is wrong, not the run.
    NoSuchCell {
        /// Sequence name looked up.
        sequence: String,
        /// Configuration label looked up.
        config: String,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::CellFailed {
                sequence,
                config,
                cause,
            } => write!(f, "suite cell ({sequence}, {config}) failed: {cause}"),
            SuiteError::NoSuchCell { sequence, config } => {
                write!(f, "no suite cell ({sequence}, {config})")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

impl SuiteReport {
    /// Resolves a cell by `(sequence, config)` id. Distinguishes a cell
    /// whose run failed ([`SuiteError::CellFailed`], with the cause)
    /// from an id that was never part of the grid
    /// ([`SuiteError::NoSuchCell`]).
    pub fn cell(&self, sequence: &str, config: &str) -> Result<&SuiteCell, SuiteError> {
        if let Some(cell) = self
            .cells
            .iter()
            .find(|c| c.sequence == sequence && c.config == config)
        {
            return Ok(cell);
        }
        if let Some(failure) = self
            .failures
            .iter()
            .find(|f| f.sequence == sequence && f.config == config)
        {
            return Err(SuiteError::CellFailed {
                sequence: failure.sequence.clone(),
                config: failure.config.clone(),
                cause: failure.cause.clone(),
            });
        }
        Err(SuiteError::NoSuchCell {
            sequence: sequence.to_string(),
            config: config.to_string(),
        })
    }
}

/// Runs every configuration over every sequence on `eval`, costing on
/// `device`. The engine is the algorithm handle: the grid runs whatever
/// algorithm the engine carries, so a head-to-head comparison gives each
/// algorithm its own engine and the reports never share cached runs.
/// Each sequence's configurations are evaluated as one concurrent engine
/// batch; the cell grid is identical to serial evaluation.
///
/// Cells land in `(sequence-major, configuration-minor)` order. A
/// quarantined run does not abort the suite: the affected cell moves to
/// [`SuiteReport::failures`] and the rest of the grid fills normally.
pub fn run_suite_with_engine(
    eval: &EvalEngine,
    sequences: &[Sequence],
    configs: &[(String, KFusionConfig)],
    device: &DeviceModel,
) -> SuiteReport {
    let mut report = SuiteReport {
        algorithm: eval.algorithm().id().to_string(),
        ..SuiteReport::default()
    };
    let batch: Vec<KFusionConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    for seq in sequences {
        let dataset = SyntheticDataset::generate(&seq.config);
        let outcomes = match eval.evaluate_batch(&dataset, &batch) {
            Ok(outcomes) => outcomes,
            // xtask-allow: panic-path — reason: empty datasets / invalid configs violate the suite's documented precondition; per-slot failures never reach this arm
            Err(e) => panic!("suite evaluation failed: {e}"),
        };
        for ((label, _), outcome) in configs.iter().zip(&outcomes) {
            let run = match outcome {
                RunOutcome::Done(run) => run,
                RunOutcome::Failed(q) => {
                    report.failures.push(SuiteFailure {
                        sequence: seq.name.clone(),
                        config: label.clone(),
                        cause: q.cause.clone(),
                    });
                    continue;
                }
            };
            let cost = run.cost_on(device);
            report.cells.push(SuiteCell {
                sequence: seq.name.clone(),
                config: label.clone(),
                max_ate_m: run.ate.max,
                mean_ate_m: run.ate.mean,
                lost_frames: run.lost_frames,
                fps: cost.run_cost.mean_fps(),
                watts: cost.run_cost.average_watts(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use slam_kfusion::AlgoId;
    use slam_power::devices::odroid_xu3;

    fn tiny_camera() -> PinholeCamera {
        PinholeCamera::tiny()
    }

    #[test]
    fn standard_suite_contains_six_distinct_sequences() {
        let suite = standard_suite(tiny_camera(), 10);
        assert_eq!(suite.len(), 6);
        let mut names: Vec<_> = suite.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
        assert!(names.iter().any(|n| n.contains("corridor")));
    }

    #[test]
    fn run_suite_produces_full_grid() {
        let suite = &standard_suite(tiny_camera(), 5)[..2];
        let configs = vec![
            ("fast".to_string(), KFusionConfig::fast_test()),
            ("tiny".to_string(), {
                let mut c = KFusionConfig::fast_test();
                c.volume_resolution = 32;
                c
            }),
        ];
        let report = run_suite_with_engine(&EvalEngine::new(), suite, &configs, &odroid_xu3());
        assert!(
            report.failures.is_empty(),
            "no faults injected, no failures"
        );
        let cells = report.cells;
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert!(cell.fps > 0.0);
            assert!(cell.watts > 0.0);
            assert!(cell.max_ate_m >= cell.mean_ate_m);
        }
        // grid order: sequence-major
        assert_eq!(cells[0].sequence, cells[1].sequence);
        assert_ne!(cells[1].sequence, cells[2].sequence);
    }

    #[test]
    fn adversarial_suite_names_three_hostile_sequences() {
        let suite = adversarial_suite(tiny_camera(), 8);
        assert_eq!(suite.len(), 3);
        let names: Vec<_> = suite.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"blank_corridor/dropout"));
        assert!(names.contains(&"warehouse/aisle"));
        // the blank corridor really is the heavy-dropout variant
        let blank = &suite[0].config;
        assert!(blank.noise.dropout > 0.3, "got {}", blank.noise.dropout);
    }

    #[test]
    fn report_records_the_algorithm_that_ran() {
        let suite = &standard_suite(tiny_camera(), 4)[..1];
        let configs = vec![("fast".to_string(), KFusionConfig::fast_test())];
        let kf = run_suite_with_engine(&EvalEngine::new(), suite, &configs, &odroid_xu3());
        assert_eq!(kf.algorithm, AlgoId::KinectFusion.id());
        let odometry = EvalEngine::new().with_algorithm(AlgoId::PointOdometry);
        let odo = run_suite_with_engine(&odometry, suite, &configs, &odroid_xu3());
        assert_eq!(odo.algorithm, AlgoId::PointOdometry.id());
        assert_eq!(odo.cells.len(), 1);
    }

    #[test]
    fn corridor_is_harder_than_living_room() {
        let camera = tiny_camera();
        let suite = standard_suite(camera, 12);
        let configs = vec![("fast".to_string(), {
            let mut c = KFusionConfig::fast_test();
            c.volume_resolution = 128;
            c
        })];
        let report = run_suite_with_engine(&EvalEngine::new(), &suite, &configs, &odroid_xu3());
        let kt2 = report.cell("living_room/kt2", "fast").unwrap();
        let corridor = report.cell("corridor/walk", "fast").unwrap();
        let err = report.cell("corridor/walk", "no-such-config").unwrap_err();
        assert_eq!(
            err,
            SuiteError::NoSuchCell {
                sequence: "corridor/walk".to_string(),
                config: "no-such-config".to_string(),
            }
        );
        assert!(
            corridor.max_ate_m > kt2.max_ate_m * 0.8,
            "the aperture-problem corridor ({:.4} m) should not be easier than the \
             feature-rich living room ({:.4} m)",
            corridor.max_ate_m,
            kt2.max_ate_m
        );
    }
}
