//! Incremental co-design exploration: algorithmic parameters *and* the
//! device's DVFS operating point explored jointly.
//!
//! The poster's headline result ("dense 3D mapping and tracking in the
//! real-time range within a 1 W power budget") comes from this co-design
//! step of Bodin et al. (PACT'16): the optimization-space is the product
//! of the algorithm space and low-level architectural choices, and the
//! exploration is *incremental* — a configuration's pipeline behaviour
//! (trajectory, workload trace) is independent of the architectural
//! point, so re-costing the same algorithmic configuration at a new DVFS
//! point is nearly free. The memoisation lives in the shared
//! [`EvalEngine`]: this module only charges the *pipeline budget* per
//! distinct algorithmic sub-vector and lets the engine deduplicate the
//! actual runs.

use crate::config_space::{decode_for, space_for};
use crate::engine::{EvalEngine, RunOutcome};
use crate::explore::{push_quarantine, MeasuredConfig, FAILED_OBJECTIVES};
use crate::fault::QuarantinedConfig;
use slam_dse::active::{ActiveLearner, ActiveLearnerOptions};
use slam_dse::space::{Domain, ParameterSpace};
use slam_kfusion::{AlgoId, KFusionConfig};
use slam_power::DeviceModel;
use slam_scene::dataset::SyntheticDataset;
use std::collections::BTreeSet;

/// The joint space of any registered algorithm: its own parameter space
/// plus the DVFS frequency scale.
pub fn codesign_space_for(algorithm: AlgoId) -> ParameterSpace {
    let mut space = space_for(algorithm);
    space.add("dvfs_scale", Domain::real(0.2, 1.0));
    space
}

/// Splits an encoded co-design vector (in `codesign_space_for(algorithm)`
/// order) into the algorithm's configuration and the DVFS scale.
///
/// # Panics
///
/// Panics when the vector does not have
/// `codesign_space_for(algorithm).len()` entries.
pub fn decode_codesign_for(algorithm: AlgoId, x: &[f64]) -> (KFusionConfig, f64) {
    assert_eq!(
        x.len(),
        algorithm.parameter_space().len() + 1,
        "encoded co-design vector has wrong length"
    );
    let config = decode_for(algorithm, &x[..x.len() - 1]);
    let dvfs = x[x.len() - 1].clamp(0.2, 1.0);
    (config, dvfs)
}

/// One explored co-design point.
#[derive(Debug, Clone)]
pub struct CoDesignPoint {
    /// The measured configuration (runtime/ATE/power at the chosen DVFS
    /// point).
    pub measured: MeasuredConfig,
    /// The DVFS scale of this point.
    pub dvfs: f64,
}

/// Options for [`codesign_explore_with_engine`].
#[derive(Debug, Clone)]
pub struct CoDesignOptions {
    /// Total *pipeline* evaluations allowed (cache hits do not count —
    /// that is the "incremental" part).
    pub pipeline_budget: usize,
    /// Total surrogate-guided evaluations (including cache hits).
    pub evaluation_budget: usize,
    /// Active-learner settings.
    pub learner: ActiveLearnerOptions,
    /// Accuracy constraint (max ATE, metres).
    pub accuracy_limit: f64,
    /// Power budget (average watts) the deployment must meet.
    pub power_budget: f64,
}

impl Default for CoDesignOptions {
    fn default() -> CoDesignOptions {
        CoDesignOptions {
            pipeline_budget: 60,
            evaluation_budget: 160,
            learner: ActiveLearnerOptions::default(),
            accuracy_limit: 0.05,
            power_budget: 1.0,
        }
    }
}

impl CoDesignOptions {
    /// A tiny budget for tests.
    pub fn fast() -> CoDesignOptions {
        CoDesignOptions {
            pipeline_budget: 8,
            evaluation_budget: 25,
            learner: ActiveLearnerOptions::fast(),
            accuracy_limit: 0.05,
            power_budget: 1.0,
        }
    }
}

/// Outcome of a co-design exploration.
#[derive(Debug, Clone)]
pub struct CoDesignOutcome {
    /// Every evaluated point.
    pub points: Vec<CoDesignPoint>,
    /// Distinct pipeline runs that were actually executed (the rest were
    /// memoised re-costings).
    pub pipeline_runs: usize,
    /// The accuracy constraint used.
    pub accuracy_limit: f64,
    /// The power budget used.
    pub power_budget: f64,
    /// Configurations the engine gave up on (each proposal of one
    /// became a dummy infeasible point instead of aborting the
    /// exploration).
    pub quarantined: Vec<QuarantinedConfig>,
}

impl CoDesignOutcome {
    /// The fastest point satisfying both the accuracy and power
    /// constraints.
    pub fn best_within_budgets(&self) -> Option<&CoDesignPoint> {
        self.points
            .iter()
            .filter(|p| {
                p.measured.max_ate_m <= self.accuracy_limit && p.measured.watts <= self.power_budget
            })
            .min_by(|a, b| a.measured.runtime_s.total_cmp(&b.measured.runtime_s))
    }
}

/// Key for the pipeline-budget accounting: the algorithmic sub-vector,
/// bitwise.
fn algo_key(x: &[f64]) -> Vec<u64> {
    x[..x.len() - 1].iter().map(|v| v.to_bits()).collect()
}

/// Runs the joint exploration of [`EvalEngine::algorithm`] on `eval`.
/// Each proposal batch is evaluated concurrently through the engine; the
/// budget accounting and outcome are identical to serial evaluation, and
/// deterministic in the learner seed.
pub fn codesign_explore_with_engine(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    device: &DeviceModel,
    options: &CoDesignOptions,
) -> CoDesignOutcome {
    let algorithm = eval.algorithm();
    let space = codesign_space_for(algorithm);
    let mut learner = ActiveLearner::new(space, 3, options.learner);
    // BTreeSet, not HashSet: keyed by float bit patterns, and a
    // nondeterministic iteration order must never leak into outputs
    let mut charged: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut points: Vec<CoDesignPoint> = Vec::new();
    let mut quarantined: Vec<QuarantinedConfig> = Vec::new();
    let pipeline_budget = options.pipeline_budget;
    learner.run_batched(options.evaluation_budget, |xs| {
        // replicate the serial budget accounting in batch order: a point
        // whose algorithmic sub-vector is new once the budget is spent
        // gets an infeasible (large but surrogate-safe) dummy and no
        // pipeline run; re-costings of charged sub-vectors stay free
        let mut decided: Vec<Option<(KFusionConfig, f64)>> = Vec::with_capacity(xs.len());
        for x in xs {
            let key = algo_key(x);
            if !charged.contains(&key) {
                if charged.len() >= pipeline_budget {
                    decided.push(None);
                    continue;
                }
                charged.insert(key);
            }
            decided.push(Some(decode_codesign_for(algorithm, x)));
        }
        let configs: Vec<KFusionConfig> = decided
            .iter()
            .flatten()
            .map(|(config, _)| config.clone())
            .collect();
        let outcomes = match eval.evaluate_batch(dataset, &configs) {
            Ok(outcomes) => outcomes,
            // xtask-allow: panic-path — reason: empty datasets / invalid configs violate codesign_explore's documented precondition; per-slot failures never reach this arm
            Err(e) => panic!("co-design evaluation failed: {e}"),
        };
        let mut outcome_iter = outcomes.iter();
        decided
            .into_iter()
            .zip(xs)
            .map(|(d, x)| {
                let Some((config, dvfs)) = d else {
                    return FAILED_OBJECTIVES.to_vec();
                };
                // xtask-allow: panic-path — reason: evaluate_batch returns one outcome per decided config by construction
                let outcome = outcome_iter.next().expect("one outcome per decided config");
                let run = match outcome {
                    RunOutcome::Done(run) => run,
                    RunOutcome::Failed(q) => {
                        push_quarantine(&mut quarantined, q.clone());
                        return FAILED_OBJECTIVES.to_vec();
                    }
                };
                let report = run.cost_on(&device.at_dvfs(dvfs));
                let runtime_s = report.timing.mean_frame_time();
                let max_ate_m = if run.lost_frames > run.frames.len() / 2 {
                    f64::from(config.volume_size)
                } else {
                    run.ate.max
                };
                let watts = report.run_cost.average_watts();
                let measured = MeasuredConfig {
                    x: x.to_vec(),
                    config,
                    runtime_s,
                    max_ate_m,
                    watts,
                    fps: if runtime_s > 0.0 {
                        1.0 / runtime_s
                    } else {
                        0.0
                    },
                };
                let obj = vec![runtime_s, max_ate_m, watts];
                points.push(CoDesignPoint { measured, dvfs });
                obj
            })
            .collect()
    });
    CoDesignOutcome {
        pipeline_runs: charged.len(),
        points,
        accuracy_limit: options.accuracy_limit,
        power_budget: options.power_budget,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slam_power::devices::odroid_xu3;
    use slam_scene::dataset::DatasetConfig;

    fn dataset() -> SyntheticDataset {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = 4;
        SyntheticDataset::generate(&dc)
    }

    #[test]
    fn codesign_space_extends_algorithm_space() {
        let space = codesign_space_for(AlgoId::KinectFusion);
        assert_eq!(space.len(), space_for(AlgoId::KinectFusion).len() + 1);
        assert!(space.index_of("dvfs_scale").is_some());
        for &algo in &AlgoId::ALL {
            let joint = codesign_space_for(algo);
            assert_eq!(joint.len(), algo.parameter_space().len() + 1);
            assert!(joint.index_of("dvfs_scale").is_some());
        }
    }

    #[test]
    fn decode_splits_config_and_dvfs() {
        let space = codesign_space_for(AlgoId::KinectFusion);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let x = space.sample(&mut rng);
        let (config, dvfs) = decode_codesign_for(AlgoId::KinectFusion, &x);
        config.validate().unwrap();
        assert!((0.2..=1.0).contains(&dvfs));
    }

    #[test]
    fn exploration_respects_pipeline_budget() {
        let outcome = codesign_explore_with_engine(
            &EvalEngine::new(),
            &dataset(),
            &odroid_xu3(),
            &CoDesignOptions::fast(),
        );
        assert!(outcome.pipeline_runs <= 8);
        assert!(!outcome.points.is_empty());
        // more evaluations than pipeline runs ⇒ memoisation worked
        // (not guaranteed on minuscule budgets, so only sanity-check)
        assert!(outcome.points.len() >= outcome.pipeline_runs.min(outcome.points.len()));
    }

    #[test]
    fn lower_dvfs_same_config_uses_less_power() {
        let dataset = dataset();
        let device = odroid_xu3();
        let space = codesign_space_for(AlgoId::KinectFusion);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let mut x = space.sample(&mut rng);
        let n = x.len();
        x[n - 1] = 1.0;
        let (config, _) = decode_codesign_for(AlgoId::KinectFusion, &x);
        let run = EvalEngine::new().evaluate(&dataset, &config);
        let full = run.cost_on(&device.at_dvfs(1.0));
        let slow = run.cost_on(&device.at_dvfs(0.4));
        assert!(slow.run_cost.average_watts() < full.run_cost.average_watts());
        assert!(slow.run_cost.seconds > full.run_cost.seconds);
    }

    #[test]
    fn codesign_on_warm_engine_is_bitwise_identical() {
        let dataset = dataset();
        let device = odroid_xu3();
        let opts = CoDesignOptions::fast();
        let cold = codesign_explore_with_engine(&EvalEngine::new(), &dataset, &device, &opts);
        let eval = EvalEngine::new();
        let warm_first = codesign_explore_with_engine(&eval, &dataset, &device, &opts);
        let warm_second = codesign_explore_with_engine(&eval, &dataset, &device, &opts);
        let sig = |o: &CoDesignOutcome| -> Vec<(u64, u64, u64, u64)> {
            o.points
                .iter()
                .map(|p| {
                    (
                        p.measured.runtime_s.to_bits(),
                        p.measured.max_ate_m.to_bits(),
                        p.measured.watts.to_bits(),
                        p.dvfs.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(cold.pipeline_runs, warm_first.pipeline_runs);
        assert_eq!(cold.pipeline_runs, warm_second.pipeline_runs);
        assert_eq!(sig(&cold), sig(&warm_first));
        assert_eq!(sig(&cold), sig(&warm_second));
    }

    #[test]
    fn best_within_budgets_respects_both_constraints() {
        let outcome = codesign_explore_with_engine(
            &EvalEngine::new(),
            &dataset(),
            &odroid_xu3(),
            &CoDesignOptions::fast(),
        );
        if let Some(best) = outcome.best_within_budgets() {
            assert!(best.measured.max_ate_m <= outcome.accuracy_limit);
            assert!(best.measured.watts <= outcome.power_budget);
        }
    }
}
