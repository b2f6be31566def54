//! The HyperMapper active-learning loop.
//!
//! Figure 2 of the paper: random-sample the configuration space, fit one
//! random-forest predictor per objective, then iteratively evaluate the
//! configurations the surrogate predicts to be near the Pareto front
//! (exploiting) or to be uncertain (exploring).

use crate::forest::{RandomForest, RandomForestOptions};
use crate::pareto::{dominates, pareto_front};
use crate::space::ParameterSpace;
use crate::Evaluation;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Options of the active learner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveLearnerOptions {
    /// Evaluations in the initial random design.
    pub initial_samples: usize,
    /// Active-learning iterations after the initial design.
    pub iterations: usize,
    /// Configurations evaluated per iteration.
    pub batch_size: usize,
    /// Surrogate candidates scored per iteration (predictions are cheap;
    /// this is typically 10–100× the evaluation budget).
    pub candidates_per_iteration: usize,
    /// Fraction of each batch drawn from uncertain rather than
    /// Pareto-optimal candidates (exploration).
    pub exploration_fraction: f64,
    /// RNG seed (the whole exploration is deterministic given the seed and
    /// a deterministic evaluator).
    pub seed: u64,
    /// Random-forest options for the per-objective surrogates.
    pub forest: RandomForestOptions,
}

impl Default for ActiveLearnerOptions {
    fn default() -> ActiveLearnerOptions {
        ActiveLearnerOptions {
            initial_samples: 40,
            iterations: 10,
            batch_size: 8,
            candidates_per_iteration: 2000,
            exploration_fraction: 0.25,
            seed: 2018,
            forest: RandomForestOptions::default(),
        }
    }
}

impl ActiveLearnerOptions {
    /// A tiny budget for unit tests.
    pub fn fast() -> ActiveLearnerOptions {
        ActiveLearnerOptions {
            initial_samples: 10,
            iterations: 3,
            batch_size: 3,
            candidates_per_iteration: 200,
            exploration_fraction: 0.25,
            seed: 7,
            forest: RandomForestOptions::fast(),
        }
    }
}

/// The batch evaluator's verdict in a resumable run: either the batch's
/// objective vectors, or a request to suspend the loop at this batch
/// boundary (checkpointing callers use this to end a session cleanly).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchEval {
    /// One objective vector per proposed configuration.
    Evaluated(Vec<Vec<f64>>),
    /// Stop before evaluating this batch;
    /// [`ActiveLearner::run_batched_resumable`] returns immediately
    /// with `suspended = true`.
    Suspend,
}

/// The outcome of an exploration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplorationResult {
    /// Every evaluated configuration, in evaluation order (the initial
    /// design first).
    pub evaluations: Vec<Evaluation>,
    /// How many of `evaluations` came from the initial random design.
    pub initial_count: usize,
    /// The non-dominated subset of all evaluations.
    pub pareto_front: Vec<Evaluation>,
}

/// A multi-objective active learner over a [`ParameterSpace`].
#[derive(Debug, Clone)]
pub struct ActiveLearner {
    space: ParameterSpace,
    objectives: usize,
    options: ActiveLearnerOptions,
}

impl ActiveLearner {
    /// Creates a learner for `objectives` minimised objectives.
    ///
    /// # Panics
    ///
    /// Panics when the space is empty or `objectives == 0`.
    pub fn new(
        space: ParameterSpace,
        objectives: usize,
        options: ActiveLearnerOptions,
    ) -> ActiveLearner {
        assert!(!space.is_empty(), "parameter space must not be empty");
        assert!(objectives > 0, "need at least one objective");
        ActiveLearner {
            space,
            objectives,
            options,
        }
    }

    /// The parameter space being explored.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Runs the full exploration: `budget` total evaluations are spent
    /// (initial design + active batches; the learner stops early when the
    /// budget is exhausted mid-batch).
    ///
    /// The evaluator maps an encoded configuration to its objective vector
    /// (all minimised). It must return `objectives` values; non-finite
    /// values mark failed runs and are treated as very bad.
    pub fn run(
        &mut self,
        budget: usize,
        mut evaluator: impl FnMut(&[f64]) -> Vec<f64>,
    ) -> ExplorationResult {
        self.run_batched(budget, |batch| batch.iter().map(|x| evaluator(x)).collect())
    }

    /// Like [`ActiveLearner::run`], but handing the evaluator whole
    /// proposal batches instead of single configurations, so independent
    /// evaluations can run concurrently (the `slambench` evaluation
    /// engine schedules them on the shared worker pool).
    ///
    /// Given the same seed, budget and a deterministic evaluator, the
    /// proposals, the evaluation order and the result are identical to
    /// [`ActiveLearner::run`]'s: the RNG is consumed only by the
    /// proposal step, never by evaluation, and a batch overshooting the
    /// budget is truncated to exactly the prefix `run` would have
    /// evaluated before stopping.
    pub fn run_batched(
        &mut self,
        budget: usize,
        mut evaluator: impl FnMut(&[Vec<f64>]) -> Vec<Vec<f64>>,
    ) -> ExplorationResult {
        let (result, suspended) =
            self.run_batched_resumable(budget, |batch| BatchEval::Evaluated(evaluator(batch)));
        debug_assert!(!suspended, "a plain evaluator cannot suspend");
        result
    }

    /// Like [`ActiveLearner::run_batched`], but the evaluator may answer
    /// a proposal batch with [`BatchEval::Suspend`] to stop the loop
    /// cleanly at that batch boundary — the mechanism checkpointing
    /// sweep drivers use to end a session without losing determinism.
    ///
    /// Returns the (possibly partial) result and whether the loop was
    /// suspended. A suspended loop consumed the RNG exactly as far as
    /// the evaluations it performed, so re-running with the same seed
    /// and an evaluator that replays the recorded prefix reproduces the
    /// remaining proposals bit-identically.
    pub fn run_batched_resumable(
        &mut self,
        budget: usize,
        mut evaluator: impl FnMut(&[Vec<f64>]) -> BatchEval,
    ) -> (ExplorationResult, bool) {
        let objectives = self.objectives;
        let mut rng = ChaCha8Rng::seed_from_u64(self.options.seed);
        let mut evaluations: Vec<Evaluation> = Vec::new();
        let mut suspended = false;
        let mut evaluate_batch =
            |batch: Vec<Vec<f64>>, evals: &mut Vec<Evaluation>, suspended: &mut bool| {
                if batch.is_empty() {
                    return;
                }
                let results = match evaluator(&batch) {
                    BatchEval::Evaluated(results) => results,
                    BatchEval::Suspend => {
                        *suspended = true;
                        return;
                    }
                };
                assert_eq!(
                    results.len(),
                    batch.len(),
                    "batch evaluator returned wrong result count"
                );
                for (x, mut obj) in batch.into_iter().zip(results) {
                    assert_eq!(
                        obj.len(),
                        objectives,
                        "evaluator returned wrong objective count"
                    );
                    for o in &mut obj {
                        if !o.is_finite() {
                            // large finite penalty; f64::MAX would overflow the
                            // surrogate's variance computation
                            *o = 1e12;
                        }
                        // clamp extreme finite values for the same reason
                        *o = o.clamp(-1e12, 1e12);
                    }
                    evals.push(Evaluation::new(x, obj));
                }
            };

        // ---- phase 1: initial random design --------------------------------
        let initial = self.options.initial_samples.min(budget);
        let design = crate::sampler::latin_hypercube(&self.space, initial, &mut rng);
        evaluate_batch(design, &mut evaluations, &mut suspended);
        let initial_count = evaluations.len();

        // ---- phase 2: active learning ---------------------------------------
        if !suspended {
            for _iter in 0..self.options.iterations {
                if evaluations.len() >= budget {
                    break;
                }
                let mut batch = self.propose_batch(&evaluations, &mut rng);
                batch.truncate(budget - evaluations.len());
                evaluate_batch(batch, &mut evaluations, &mut suspended);
                if suspended {
                    break;
                }
            }
        }

        let front = pareto_front(&evaluations);
        (
            ExplorationResult {
                evaluations,
                initial_count,
                pareto_front: front,
            },
            suspended,
        )
    }

    /// Proposes the next batch from the surrogate models.
    fn propose_batch(&self, evaluations: &[Evaluation], rng: &mut impl Rng) -> Vec<Vec<f64>> {
        let features: Vec<Vec<f64>> = evaluations
            .iter()
            .map(|e| self.space.normalize(&e.x))
            .collect();
        // one forest per objective
        let forests: Vec<RandomForest> = (0..self.objectives)
            .map(|k| {
                let y: Vec<f64> = evaluations.iter().map(|e| e.objectives[k]).collect();
                RandomForest::fit(&features, &y, &self.options.forest, rng)
            })
            .collect();
        // candidate pool: random samples plus mutations of the current front
        let front = pareto_front(evaluations);
        let mut candidates: Vec<Vec<f64>> =
            Vec::with_capacity(self.options.candidates_per_iteration);
        for i in 0..self.options.candidates_per_iteration {
            if !front.is_empty() && i.is_multiple_of(2) {
                let parent = &front[rng.gen_range(0..front.len())];
                candidates.push(self.space.mutate(&parent.x, rng));
            } else {
                candidates.push(self.space.sample(rng));
            }
        }
        // score candidates with the surrogates
        struct Scored {
            x: Vec<f64>,
            predicted: Vec<f64>,
            uncertainty: f64,
        }
        let scored: Vec<Scored> = candidates
            .into_iter()
            .map(|x| {
                let f = self.space.normalize(&x);
                let mut predicted = Vec::with_capacity(self.objectives);
                let mut uncertainty = 0.0;
                for forest in &forests {
                    let (mean, std) = forest.predict_with_std(&f);
                    predicted.push(mean);
                    uncertainty += std;
                }
                Scored {
                    x,
                    predicted,
                    uncertainty,
                }
            })
            .collect();
        // predicted Pareto candidates (exploitation)
        let mut predicted_front_idx: Vec<usize> = Vec::new();
        for (i, s) in scored.iter().enumerate() {
            let dominated = scored
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && dominates(&o.predicted, &s.predicted));
            if !dominated {
                predicted_front_idx.push(i);
            }
        }
        // uncertainty ranking (exploration)
        let mut by_uncertainty: Vec<usize> = (0..scored.len()).collect();
        by_uncertainty.sort_by(|&a, &b| scored[b].uncertainty.total_cmp(&scored[a].uncertainty));
        let explore_n = ((self.options.batch_size as f64 * self.options.exploration_fraction)
            .round() as usize)
            .min(self.options.batch_size);
        let exploit_n = self.options.batch_size - explore_n;
        let mut batch: Vec<Vec<f64>> = Vec::with_capacity(self.options.batch_size);
        let mut used: Vec<usize> = Vec::new();
        // exploit: spread over the predicted front
        for k in 0..exploit_n {
            if predicted_front_idx.is_empty() {
                break;
            }
            let idx = predicted_front_idx
                [(k * predicted_front_idx.len()) / exploit_n.max(1) % predicted_front_idx.len()];
            if !used.contains(&idx) {
                used.push(idx);
                batch.push(scored[idx].x.clone());
            }
        }
        // explore: most uncertain
        for &idx in &by_uncertainty {
            if batch.len() >= self.options.batch_size {
                break;
            }
            if !used.contains(&idx) {
                used.push(idx);
                batch.push(scored[idx].x.clone());
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Domain;

    fn one_d_space() -> ParameterSpace {
        let mut s = ParameterSpace::new();
        s.add("x", Domain::real(0.0, 1.0));
        s
    }

    #[test]
    fn finds_single_objective_minimum() {
        // minimise (x - 0.62)²
        let mut learner = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let result = learner.run(40, |x| vec![(x[0] - 0.62).powi(2)]);
        let best = crate::pareto::best_by_objective(&result.evaluations, 0).unwrap();
        assert!(
            (best.x[0] - 0.62).abs() < 0.08,
            "best x = {} after {} evals",
            best.x[0],
            result.evaluations.len()
        );
    }

    #[test]
    fn respects_budget() {
        let mut learner = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let mut calls = 0usize;
        let result = learner.run(17, |x| {
            calls += 1;
            vec![x[0]]
        });
        assert!(calls <= 17);
        assert_eq!(result.evaluations.len(), calls);
        assert!(result.initial_count <= 10);
    }

    #[test]
    fn active_beats_random_on_equal_budget() {
        // a deceptive 2-D function with a narrow valley: active learning
        // should find lower values than pure random sampling
        let mut space = ParameterSpace::new();
        space
            .add("a", Domain::real(0.0, 1.0))
            .add("b", Domain::real(0.0, 1.0));
        let f = |x: &[f64]| {
            let v = (x[0] - 0.8).powi(2) * 4.0 + (x[1] - 0.2).powi(2) * 4.0;
            vec![v]
        };
        let budget = 60;
        // average over several seeds: a single random run can get lucky
        let seeds = [42u64, 43, 44, 45, 46];
        let mut active_sum = 0.0;
        let mut random_sum = 0.0;
        for &seed in &seeds {
            let mut opts = ActiveLearnerOptions::fast();
            opts.initial_samples = 15;
            opts.iterations = 20;
            opts.seed = seed;
            let mut learner = ActiveLearner::new(space.clone(), 1, opts);
            let active = learner.run(budget, |x| f(x));
            active_sum += crate::pareto::best_by_objective(&active.evaluations, 0)
                .unwrap()
                .objectives[0];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            random_sum += crate::sampler::random_samples(&space, budget, &mut rng)
                .iter()
                .map(|x| f(x)[0])
                .fold(f64::INFINITY, f64::min);
        }
        assert!(
            active_sum <= random_sum,
            "mean best: active {active_sum} vs random {random_sum}"
        );
    }

    #[test]
    fn multi_objective_front_is_nondominated() {
        let mut learner = ActiveLearner::new(one_d_space(), 2, ActiveLearnerOptions::fast());
        let result = learner.run(30, |x| vec![(x[0] - 0.2).powi(2), (x[0] - 0.9).powi(2)]);
        assert!(!result.pareto_front.is_empty());
        for a in &result.pareto_front {
            for b in &result.pareto_front {
                assert!(!dominates(&a.objectives, &b.objectives) || a == b);
            }
        }
        // Pareto-optimal x lie between the two optima
        for e in &result.pareto_front {
            assert!((0.1..=1.0).contains(&e.x[0]), "x = {}", e.x[0]);
        }
    }

    #[test]
    fn non_finite_objectives_are_quarantined() {
        let mut learner = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let result = learner.run(20, |x| {
            if x[0] < 0.5 {
                vec![f64::NAN]
            } else {
                vec![x[0]]
            }
        });
        // the front must consist of finite, valid runs
        for e in &result.pareto_front {
            assert!(e.objectives[0] <= 1.0);
        }
    }

    #[test]
    fn batched_run_matches_serial_run() {
        // run() is the single-evaluation wrapper over run_batched(); pin
        // that they stay equivalent, including mid-batch budget
        // truncation (10 initial + 3 + 3 + 1-of-3 = 17)
        let f = |x: &[f64]| vec![(x[0] - 0.4).powi(2)];
        let mut serial_learner = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let serial = serial_learner.run(17, |x| f(x));
        let mut batched_learner =
            ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let mut batch_sizes = Vec::new();
        let batched = batched_learner.run_batched(17, |batch| {
            batch_sizes.push(batch.len());
            batch.iter().map(|x| f(x)).collect()
        });
        assert_eq!(serial, batched);
        assert_eq!(batch_sizes, vec![10, 3, 3, 1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut learner = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
            learner.run(25, |x| vec![(x[0] - 0.3).abs()])
        };
        let a = run();
        let b = run();
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn suspended_run_resumes_bit_identically_via_replay() {
        let f = |x: &[f64]| vec![(x[0] - 0.4).powi(2)];
        // reference: one uninterrupted run
        let mut full_learner = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let full = full_learner.run_batched(16, |batch| batch.iter().map(|x| f(x)).collect());
        // session 1: suspend once 12 evaluations are done
        let mut record: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let mut first = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let (_, suspended) = first.run_batched_resumable(16, |batch| {
            if record.len() >= 12 {
                return BatchEval::Suspend;
            }
            let results: Vec<Vec<f64>> = batch.iter().map(|x| f(x)).collect();
            for (x, obj) in batch.iter().zip(&results) {
                record.push((x.clone(), obj.clone()));
            }
            BatchEval::Evaluated(results)
        });
        assert!(suspended);
        assert!(record.len() >= 12 && record.len() < 16);
        // session 2: replay the record, evaluate the rest fresh
        let mut replay = std::collections::VecDeque::from(record);
        let mut second = ActiveLearner::new(one_d_space(), 1, ActiveLearnerOptions::fast());
        let (resumed, suspended) = second.run_batched_resumable(16, |batch| {
            let results: Vec<Vec<f64>> = batch
                .iter()
                .map(|x| {
                    if let Some((rx, robj)) = replay.pop_front() {
                        assert_eq!(&rx, x, "replayed proposal must match");
                        robj
                    } else {
                        f(x)
                    }
                })
                .collect();
            BatchEval::Evaluated(results)
        });
        assert!(!suspended);
        assert_eq!(resumed, full);
    }

    #[test]
    #[should_panic(expected = "wrong objective count")]
    fn evaluator_must_match_objectives() {
        let mut learner = ActiveLearner::new(one_d_space(), 2, ActiveLearnerOptions::fast());
        let _ = learner.run(5, |_| vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_space_panics() {
        let _ = ActiveLearner::new(ParameterSpace::new(), 1, ActiveLearnerOptions::fast());
    }
}
