//! SLAMBench in Rust: a performance, accuracy and energy benchmarking
//! framework for dense SLAM, reproducing
//! *"Algorithmic Performance-Accuracy Trade-off in 3D Vision
//! Applications"* (Bodin et al., ISPASS 2018).
//!
//! The framework composes the workspace's substrates:
//!
//! * [`slam_scene`] — synthetic RGB-D datasets with exact ground truth
//!   (the ICL-NUIM stand-in),
//! * [`slam_kfusion`] — the KinectFusion pipeline with SLAMBench's
//!   algorithmic parameters,
//! * [`slam_metrics`] — ATE/RPE accuracy and timing metrics,
//! * [`slam_power`] — analytic device models (ODROID XU3, phone fleet),
//! * [`slam_dse`] — the HyperMapper-style design-space explorer.
//!
//! The central abstraction is the split between a device-independent
//! [`run::PipelineRun`] (trajectory + per-frame workload trace) and
//! device costing ([`run::PipelineRun::cost_on`]): one pipeline execution
//! can be "replayed" onto any number of device models, which is what
//! makes exploring 83 phones (Figure 3) or hundreds of DSE
//! configurations (Figure 2) tractable.
//!
//! There is one way to run an evaluation: the [`engine::EvalEngine`]. It
//! carries the algorithm, the tracer and the fault policy, keeps a
//! content-addressed run cache (keyed by algorithm, dataset identity and
//! the algorithmic configuration bits), and its
//! [`engine::EvalEngine::evaluate_batch`] schedules independent pipeline
//! runs concurrently on the shared worker pool while staying
//! bit-identical to serial evaluation. The driver that steps an
//! algorithm over a dataset is private to the crate, and each
//! orchestrator has exactly one entry point taking `&EvalEngine`:
//!
//! | Entry point | Evaluates |
//! |---|---|
//! | [`engine::EvalEngine::evaluate`] | one configuration (panics on failure) |
//! | [`engine::EvalEngine::evaluate_batch`] | a batch, one [`engine::RunOutcome`] per slot |
//! | [`explore::measure`] | one encoded configuration, costed on a device |
//! | [`explore::explore_with_engine`] / [`explore::explore_until`] | the active-learning loop, whole or up to an evaluation count |
//! | [`explore::random_sweep_with_engine`] | the random baseline |
//! | [`codesign::codesign_explore_with_engine`] | the algorithm × DVFS co-design loop |
//! | [`fleet::fleet_speedups_with_engine`] | the phone-fleet study |
//! | [`suite::run_suite_with_engine`] | a sequence × configuration grid |
//!
//! A fresh `EvalEngine::new()` always executes the run; pick the
//! algorithm with [`engine::EvalEngine::with_algorithm`] and record spans
//! with [`engine::EvalEngine::with_tracer`].
//!
//! The engine's disk cache ([`engine::EvalEngine::with_disk_cache`]) is
//! also the one resume record: every sweep is seeded, so a killed sweep
//! run again on an engine over the same cache directory proposes the
//! same configurations, serves each finished run as a disk hit and
//! executes only the rest.
//!
//! # Quickstart
//!
//! ```
//! use slambench::engine::EvalEngine;
//! use slam_kfusion::KFusionConfig;
//! use slam_power::devices::odroid_xu3;
//! use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
//!
//! let mut dc = DatasetConfig::tiny_test();
//! dc.frame_count = 5;
//! let dataset = SyntheticDataset::generate(&dc);
//!
//! let engine = EvalEngine::new();
//! let mut small = KFusionConfig::fast_test();
//! small.volume_resolution = 32;
//! let outcomes = engine
//!     .evaluate_batch(&dataset, &[KFusionConfig::fast_test(), small])
//!     .expect("valid configurations on a non-empty dataset");
//! let runs: Vec<_> = outcomes.iter().filter_map(|o| o.run()).collect();
//! for run in &runs {
//!     let on_xu3 = run.cost_on(&odroid_xu3());
//!     println!("ATE {:.3} m at {:.1} FPS, {:.2} W",
//!              run.ate.max, on_xu3.run_cost.mean_fps(), on_xu3.run_cost.average_watts());
//! }
//!
//! // a repeated request is a cache hit — no pipeline re-execution
//! let again = engine.evaluate(&dataset, &KFusionConfig::fast_test());
//! assert_eq!(again.ate.max, runs[0].ate.max);
//! assert_eq!(engine.stats().hits, 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod codesign;
pub mod config_space;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod fleet;
pub mod run;
pub mod suite;

pub use codesign::{
    codesign_explore_with_engine, codesign_space_for, decode_codesign_for, CoDesignOptions,
    CoDesignOutcome,
};
pub use config_space::{decode_for, encode_for, space_for};
pub use engine::{
    load_json, run_fingerprint, save_json_atomic, EngineStats, EvalEngine, EvalError, RunOutcome,
};
pub use explore::{
    explore_until, explore_with_engine, measure, random_sweep_with_engine, ExploreOptions,
    ExploreOutcome, MeasuredConfig, RandomSweepOutcome, RecordedEval,
};
pub use fault::{Deadline, FaultPlan, FaultPolicy, MockRunClock, QuarantinedConfig, RetryPolicy};
pub use fleet::{fleet_speedups_with_engine, FleetEntry, FleetOutcome, FleetSkip};
pub use run::{DeviceRunReport, FrameRecord, PipelineRun};
pub use suite::{
    adversarial_suite, run_suite_with_engine, standard_suite, Sequence, SuiteCell, SuiteError,
    SuiteFailure, SuiteReport,
};
