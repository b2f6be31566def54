//! Design-space exploration of a SLAM algorithm's configuration on a
//! device model — the machinery behind the paper's Figure 2 and headline
//! result.
//!
//! The [`EvalEngine`] is the algorithm handle: every entry point
//! explores the space of [`EvalEngine::algorithm`] (built from the
//! algorithm's own parameter descriptor). The active sweep has one
//! loop, shared by [`explore_with_engine`] and [`explore_until`]; the
//! random sweep is one engine batch.
//!
//! Both sweeps resume through the engine's disk cache alone: the
//! learner and the sampler are seeded and their objectives are
//! modelled, so running a sweep again on an engine over the same cache
//! proposes the same configurations and serves every finished run as a
//! disk hit.

use crate::config_space::{decode_for, encode_for, space_for};
use crate::engine::{EvalEngine, RunOutcome};
use crate::fault::QuarantinedConfig;
use crate::run::PipelineRun;
use serde::{Deserialize, Serialize};
use slam_dse::active::{ActiveLearner, ActiveLearnerOptions, BatchEval};
use slam_dse::Evaluation;
use slam_kfusion::KFusionConfig;
use slam_power::DeviceModel;
use slam_scene::dataset::SyntheticDataset;

/// Objectives fed to the learner for a quarantined evaluation: a point
/// so bad the optimiser steers away from the region without ever
/// treating the failure as a measurement.
pub(crate) const FAILED_OBJECTIVES: [f64; 3] = [1e9, 1e9, 1e9];

/// Options for [`explore_with_engine`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Total pipeline evaluations to spend.
    pub budget: usize,
    /// Active-learner settings (seed, batch sizes, forest).
    pub learner: ActiveLearnerOptions,
    /// The paper's accuracy constraint: max ATE must stay below this
    /// (metres) for a configuration to count as feasible.
    pub accuracy_limit: f64,
    /// Worker threads for the pipeline kernels during each evaluation
    /// (`0` = all available). Outputs are identical for any value.
    pub threads: usize,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            budget: 120,
            learner: ActiveLearnerOptions::default(),
            accuracy_limit: 0.05,
            threads: 0,
        }
    }
}

impl ExploreOptions {
    /// A tiny exploration for tests.
    pub fn fast() -> ExploreOptions {
        ExploreOptions {
            budget: 12,
            learner: ActiveLearnerOptions::fast(),
            accuracy_limit: 0.05,
            threads: 0,
        }
    }
}

/// One configuration with its measured objectives on the target device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredConfig {
    /// Encoded parameter vector.
    pub x: Vec<f64>,
    /// Decoded configuration.
    pub config: KFusionConfig,
    /// Modelled mean seconds per frame on the device (the paper's
    /// "Runtime (sec)" axis).
    pub runtime_s: f64,
    /// Maximum ATE over the sequence, metres (the "Max ATE (m)" axis).
    pub max_ate_m: f64,
    /// Modelled average power, watts.
    pub watts: f64,
    /// Convenience: `1 / runtime_s`.
    pub fps: f64,
}

impl MeasuredConfig {
    /// Whether the configuration meets the accuracy constraint.
    pub fn is_accurate(&self, limit: f64) -> bool {
        self.max_ate_m <= limit
    }

    pub(crate) fn objectives(&self) -> Vec<f64> {
        vec![self.runtime_s, self.max_ate_m, self.watts]
    }
}

/// One evaluation of a sweep, in evaluation order. Failures are
/// recorded too: the learner was fed dummy objectives for a
/// quarantined slot.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedEval {
    /// A successful measurement.
    Measured(MeasuredConfig),
    /// A quarantined evaluation.
    Failed {
        /// The encoded parameter vector that was proposed.
        x: Vec<f64>,
        /// Why the engine gave up on it.
        quarantined: QuarantinedConfig,
    },
}

impl RecordedEval {
    /// The objectives the learner was fed for this evaluation.
    pub fn objectives(&self) -> Vec<f64> {
        match self {
            RecordedEval::Measured(m) => m.objectives(),
            RecordedEval::Failed { .. } => FAILED_OBJECTIVES.to_vec(),
        }
    }
}

/// The outcome of an exploration (Figure 2's data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreOutcome {
    /// Everything evaluated, in evaluation order.
    pub measured: Vec<MeasuredConfig>,
    /// How many of `measured` came from the initial random design.
    pub initial_count: usize,
    /// The measured default configuration (the baseline point in the
    /// figure).
    pub default_config: MeasuredConfig,
    /// The accuracy constraint used.
    pub accuracy_limit: f64,
    /// Configurations the engine quarantined during this exploration
    /// (its run panicked): dropped from `measured`, reported here.
    #[serde(default)]
    pub quarantined: Vec<QuarantinedConfig>,
}

impl ExploreOutcome {
    /// The feasible (accurate-enough) configuration with the lowest
    /// runtime — the "best configuration" the paper deploys on the XU3
    /// and the phones.
    pub fn best_feasible(&self) -> Option<&MeasuredConfig> {
        self.measured
            .iter()
            .filter(|m| m.is_accurate(self.accuracy_limit))
            .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
    }

    /// The non-dominated subset over (runtime, maxATE, watts).
    pub fn pareto(&self) -> Vec<&MeasuredConfig> {
        let evals: Vec<Evaluation> = self
            .measured
            .iter()
            .map(|m| Evaluation::new(m.x.clone(), m.objectives()))
            .collect();
        let front = slam_dse::pareto::pareto_front(&evals);
        front
            .iter()
            .filter_map(|f| self.measured.iter().find(|m| m.x == f.x))
            .collect()
    }
}

/// Builds a [`MeasuredConfig`] by replaying a pipeline run's workload
/// trace on the device model.
fn measured_from_run(
    x: &[f64],
    config: KFusionConfig,
    run: &PipelineRun,
    device: &DeviceModel,
) -> MeasuredConfig {
    let report = run.cost_on(device);
    let runtime_s = report.timing.mean_frame_time();
    // a run that lost tracking for good is useless regardless of its ATE
    // numbers mid-run; penalise by reporting the worst-case error bound
    let max_ate_m = if run.lost_frames > run.frames.len() / 2 {
        f64::from(config.volume_size)
    } else {
        run.ate.max
    };
    MeasuredConfig {
        x: x.to_vec(),
        config,
        runtime_s,
        max_ate_m,
        watts: report.run_cost.average_watts(),
        fps: if runtime_s > 0.0 {
            1.0 / runtime_s
        } else {
            0.0
        },
    }
}

/// Measures one encoded configuration on `(dataset, device)` through
/// `eval`: a repeated configuration is served from the cache, and a
/// fresh engine always executes the run.
///
/// # Panics
///
/// Panics when the dataset is empty or the run panicked (see
/// [`EvalEngine::evaluate`]).
pub fn measure(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    x: &[f64],
) -> MeasuredConfig {
    measure_on_threads(eval, dataset, device, x, 0)
}

fn measure_on_threads(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    x: &[f64],
    threads: usize,
) -> MeasuredConfig {
    let mut config = decode_for(eval.algorithm(), x);
    config.threads = threads;
    let run = eval.evaluate(dataset, &config);
    measured_from_run(x, config, &run, device)
}

/// Evaluates a batch of encoded configurations as one engine batch, with
/// per-slot fault tolerance: a quarantined slot is recorded as a failure
/// (the learner sees [`FAILED_OBJECTIVES`]) instead of aborting the
/// sweep.
fn evaluate_points(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    xs: &[Vec<f64>],
    threads: usize,
) -> Vec<RecordedEval> {
    let configs: Vec<KFusionConfig> = xs
        .iter()
        .map(|x| {
            let mut config = decode_for(eval.algorithm(), x);
            config.threads = threads;
            config
        })
        .collect();
    let outcomes = match eval.evaluate_batch(dataset, &configs) {
        Ok(outcomes) => outcomes,
        // xtask-allow: panic-path — reason: empty datasets / invalid decoded configs violate the sweeps' documented precondition; per-slot failures never reach this arm
        Err(e) => panic!("exploration batch failed: {e}"),
    };
    xs.iter()
        .zip(configs)
        .zip(outcomes)
        .map(|((x, config), outcome)| match outcome {
            RunOutcome::Done(run) => {
                RecordedEval::Measured(measured_from_run(x, config, &run, device))
            }
            RunOutcome::Failed(q) => RecordedEval::Failed {
                x: x.clone(),
                quarantined: q,
            },
        })
        .collect()
}

/// Splits a sweep's evaluation record into its measurements (in order)
/// and its distinct quarantined configurations.
fn split_record(record: Vec<RecordedEval>) -> (Vec<MeasuredConfig>, Vec<QuarantinedConfig>) {
    let mut measured = Vec::new();
    let mut quarantined = Vec::new();
    for r in record {
        match r {
            RecordedEval::Measured(m) => measured.push(m),
            RecordedEval::Failed { quarantined: q, .. } => push_quarantine(&mut quarantined, q),
        }
    }
    (measured, quarantined)
}

/// Records a quarantined configuration once per distinct configuration.
pub(crate) fn push_quarantine(list: &mut Vec<QuarantinedConfig>, q: QuarantinedConfig) {
    if !list.iter().any(|seen| seen.config == q.config) {
        list.push(q);
    }
}

/// Runs the HyperMapper-style active exploration (Figure 2's "Active
/// learning" series) on `eval`, e.g. a fresh engine or one with a warm
/// disk cache shared across bench bins. Each proposal batch from the
/// active learner is evaluated concurrently through the engine; the
/// outcome is identical to evaluating serially, and deterministic in
/// `options.learner.seed`.
///
/// A killed exploration resumes by running it again on an engine over
/// the same disk cache: the seeded learner proposes the same
/// configurations, every run that finished before the kill is a disk
/// hit, and only the rest execute.
pub fn explore_with_engine(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    options: &ExploreOptions,
) -> ExploreOutcome {
    let (record, initial_count, _) = explore_loop(eval, dataset, device, options, usize::MAX);
    let (measured, quarantined) = split_record(record);
    let default_config = measure_on_threads(
        eval,
        dataset,
        device,
        &encode_for(eval.algorithm(), &KFusionConfig::default()),
        options.threads,
    );
    ExploreOutcome {
        measured,
        initial_count,
        default_config,
        accuracy_limit: options.accuracy_limit,
        quarantined,
    }
}

/// Runs the exploration of [`explore_with_engine`] until it has
/// recorded at least `evaluations` evaluations, stopping at the first
/// batch boundary at or past that count. Returns the evaluation record
/// in order, and whether the learner loop ended (its schedule or the
/// budget ran out) rather than stopping early.
///
/// The record is a prefix of what the uninterrupted exploration
/// evaluates, so a caller that serves an exploration a slice at a time
/// calls this with a growing count on one engine: the engine's cache
/// answers the evaluations of earlier slices.
pub fn explore_until(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    options: &ExploreOptions,
    evaluations: usize,
) -> (Vec<RecordedEval>, bool) {
    let (record, _, ended) = explore_loop(eval, dataset, device, options, evaluations);
    (record, ended)
}

/// The active-learning loop behind both explore entry points: the
/// evaluation record, the size of the initial design, and whether the
/// learner loop ran to its end rather than suspending at the first
/// batch boundary at or past `stop_at` evaluations.
fn explore_loop(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    options: &ExploreOptions,
    stop_at: usize,
) -> (Vec<RecordedEval>, usize, bool) {
    let mut record: Vec<RecordedEval> = Vec::new();
    let space = space_for(eval.algorithm());
    let mut learner = ActiveLearner::new(space, 3, options.learner);
    let (result, suspended) = learner.run_batched_resumable(options.budget, |xs| {
        if record.len() >= stop_at {
            return BatchEval::Suspend;
        }
        let batch = evaluate_points(eval, dataset, device, xs, options.threads);
        let objectives = batch.iter().map(RecordedEval::objectives).collect();
        record.extend(batch);
        BatchEval::Evaluated(objectives)
    });
    (record, result.initial_count, !suspended)
}

/// Evaluates `n` uniform random configurations (Figure 2's "Random
/// sampling" baseline) on `eval`. The draws are evaluated as one engine
/// batch: misses run concurrently on the shared worker pool, each under
/// an inner kernel-thread budget so sweep-level and kernel-level
/// parallelism never multiply past the machine. Deterministic in
/// `seed`; a quarantined draw is reported, not fatal.
///
/// A killed sweep resumes by running it again on an engine over the
/// same disk cache: the draws that finished are disk hits, and the
/// batch that was in flight runs again.
pub fn random_sweep_with_engine(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    n: usize,
    seed: u64,
) -> RandomSweepOutcome {
    use rand::SeedableRng;
    let space = space_for(eval.algorithm());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let samples = slam_dse::sampler::random_samples(&space, n, &mut rng);
    let (measured, quarantined) = split_record(evaluate_points(eval, dataset, device, &samples, 0));
    RandomSweepOutcome {
        measured,
        quarantined,
    }
}

/// The result of a fault-tolerant random sweep: successful measurements
/// in draw order plus the quarantined configurations that were dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomSweepOutcome {
    /// Measurements for every draw that ran, in
    /// draw order.
    pub measured: Vec<MeasuredConfig>,
    /// Draws whose runs were quarantined.
    pub quarantined: Vec<QuarantinedConfig>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use slam_kfusion::AlgoId;
    use slam_power::devices::odroid_xu3;
    use slam_scene::dataset::DatasetConfig;
    use slam_scene::noise::DepthNoiseModel;

    fn tiny_dataset(frames: usize) -> SyntheticDataset {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = frames;
        dc.noise = DepthNoiseModel::ideal();
        SyntheticDataset::generate(&dc)
    }

    #[test]
    fn measure_default_config() {
        let dataset = tiny_dataset(4);
        let m = measure(
            &EvalEngine::new(),
            &dataset,
            &odroid_xu3(),
            &encode_for(AlgoId::KinectFusion, &KFusionConfig::fast_test()),
        );
        assert!(m.runtime_s > 0.0);
        assert!(m.watts > 0.0);
        assert!(m.fps > 0.0);
        assert!(m.max_ate_m < 1.0);
    }

    #[test]
    fn smaller_volume_is_faster() {
        let dataset = tiny_dataset(4);
        let dev = odroid_xu3();
        let mut small = KFusionConfig::fast_test();
        small.volume_resolution = 32;
        let mut large = KFusionConfig::fast_test();
        large.volume_resolution = 192;
        let eval = EvalEngine::new();
        let x = |c: &KFusionConfig| encode_for(AlgoId::KinectFusion, c);
        let ms = measure(&eval, &dataset, &dev, &x(&small));
        let ml = measure(&eval, &dataset, &dev, &x(&large));
        assert!(
            ms.runtime_s < ml.runtime_s,
            "{} !< {}",
            ms.runtime_s,
            ml.runtime_s
        );
    }

    #[test]
    fn explore_runs_within_budget_and_finds_feasible() {
        let dataset = tiny_dataset(4);
        let outcome = explore_with_engine(
            &EvalEngine::new(),
            &dataset,
            &odroid_xu3(),
            &ExploreOptions::fast(),
        );
        assert!(outcome.measured.len() <= 12);
        assert!(outcome.initial_count <= outcome.measured.len());
        assert!(outcome.default_config.runtime_s > 0.0);
        // the tiny scene tracks easily: something feasible must exist
        assert!(outcome.best_feasible().is_some());
        let pareto = outcome.pareto();
        assert!(!pareto.is_empty());
        assert!(pareto.len() <= outcome.measured.len());
    }

    #[test]
    fn random_sweep_is_deterministic_and_parallel_safe() {
        let dataset = tiny_dataset(3);
        let dev = odroid_xu3();
        let sweep = || random_sweep_with_engine(&EvalEngine::new(), &dataset, &dev, 6, 99);
        let (a, b) = (sweep(), sweep());
        assert_eq!(a.measured.len(), 6);
        assert!(a.quarantined.is_empty());
        for (x, y) in a.measured.iter().zip(&b.measured) {
            assert_eq!(x.x, y.x);
            assert!((x.runtime_s - y.runtime_s).abs() < 1e-12);
            assert!((x.max_ate_m - y.max_ate_m).abs() < 1e-12);
        }
    }

    #[test]
    fn explore_through_warm_engine_is_identical_and_cached() {
        let dataset = tiny_dataset(4);
        let dev = odroid_xu3();
        let opts = ExploreOptions::fast();
        let cold = explore_with_engine(&EvalEngine::new(), &dataset, &dev, &opts);
        let eval = EvalEngine::new();
        let warm_first = explore_with_engine(&eval, &dataset, &dev, &opts);
        let misses_after_first = eval.stats().misses;
        let warm_second = explore_with_engine(&eval, &dataset, &dev, &opts);
        assert_eq!(
            eval.stats().misses,
            misses_after_first,
            "re-exploring on a warm engine must be pure cache hits"
        );
        // ExploreOutcome holds no wall-clock fields: byte-identical
        let json = |o: &ExploreOutcome| serde_json::to_string(o).unwrap();
        assert_eq!(json(&cold), json(&warm_first));
        assert_eq!(json(&cold), json(&warm_second));
    }

    #[test]
    fn failed_evals_feed_dummy_objectives() {
        let r = RecordedEval::Failed {
            x: vec![0.5, 0.25],
            quarantined: QuarantinedConfig {
                config: KFusionConfig::fast_test(),
                cause: "injected".to_string(),
            },
        };
        assert_eq!(r.objectives(), FAILED_OBJECTIVES.to_vec());
    }

    #[test]
    fn best_feasible_respects_limit() {
        let dataset = tiny_dataset(4);
        let outcome = explore_with_engine(
            &EvalEngine::new(),
            &dataset,
            &odroid_xu3(),
            &ExploreOptions::fast(),
        );
        if let Some(best) = outcome.best_feasible() {
            assert!(best.max_ate_m <= outcome.accuracy_limit);
            // nothing feasible is faster
            for m in &outcome.measured {
                if m.is_accurate(outcome.accuracy_limit) {
                    assert!(m.runtime_s >= best.runtime_s - 1e-12);
                }
            }
        }
    }
}
