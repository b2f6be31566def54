//! The wire types of the campaign API.
//!
//! Everything on the wire is JSON over HTTP/1.1. The grammar (also in
//! `DESIGN.md` §14):
//!
//! ```text
//! POST   /campaigns                 CampaignRequest  → 202 Submitted | 400 ErrorBody
//! GET    /campaigns/<id>                             → 200 CampaignStatus
//! GET    /campaigns/<id>/outcomes?from=K&wait=1      → 200 OutcomesPage
//! GET    /campaigns/<id>/stream?from=K               → 200 chunked, one OutcomeRecord per line
//! DELETE /campaigns/<id>                             → 200 CampaignStatus (cancelled)
//! GET    /stats                                      → 200 ServerStatsReport
//! GET    /healthz                                    → 200 {"ok":true}
//! ```
//!
//! Validation happens at this boundary: an unknown algorithm name is
//! rejected with the [`AlgoId`](slam_kfusion::AlgoId) parse error
//! verbatim (which lists every valid name), an invalid configuration
//! with the [`ConfigError`](slam_kfusion::config::ConfigError) message,
//! an empty dataset with the engine's `EmptyDataset` message.

use serde::{Deserialize, Serialize};
use slam_kfusion::KFusionConfig;
use slam_scene::dataset::DatasetConfig;
use slambench::engine::{EngineStats, RunOutcome};
use slambench::explore::{MeasuredConfig, RecordedEval};
use slambench::fault::QuarantinedConfig;
use slambench::run::PipelineRun;

/// Scheduling class of a campaign. Interactive campaigns are always
/// served before batch campaigns; within a class the scheduler is
/// least-recently-served round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Priority {
    /// Served ahead of every batch campaign (a human is waiting).
    Interactive,
    /// The default class: long sweeps and explorations.
    #[default]
    Batch,
}

/// What a campaign evaluates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignKind {
    /// One configuration on the request's dataset.
    Single {
        /// The configuration to evaluate.
        config: KFusionConfig,
    },
    /// An explicit list of configurations on the request's dataset, in
    /// order.
    Sweep {
        /// The configurations to evaluate.
        configs: Vec<KFusionConfig>,
    },
    /// Every configuration on every sequence of a named built-in suite
    /// (`"standard"` or `"adversarial"`), sequence-major. The request's
    /// dataset supplies the camera; `frames` the sequence length.
    Suite {
        /// Built-in suite name: `"standard"` or `"adversarial"`.
        suite: String,
        /// Frames per sequence.
        frames: usize,
        /// The configurations to grade on each sequence.
        configs: Vec<KFusionConfig>,
    },
    /// `n` seeded random samples of the algorithm's parameter space on
    /// the request's dataset.
    RandomSweep {
        /// Number of samples.
        n: usize,
        /// RNG seed: the same seed always proposes the same configs.
        seed: u64,
    },
    /// A HyperMapper-style active-learning exploration of the
    /// algorithm's parameter space (at most `budget` evaluations, fewer
    /// when the learner's schedule ends first), streaming each measured
    /// point. Resumes across server restarts from the shared disk
    /// cache.
    Explore {
        /// Total evaluation budget.
        budget: usize,
        /// Learner RNG seed.
        seed: u64,
    },
}

impl CampaignKind {
    /// Stable kind name for status reports.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignKind::Single { .. } => "single",
            CampaignKind::Sweep { .. } => "sweep",
            CampaignKind::Suite { .. } => "suite",
            CampaignKind::RandomSweep { .. } => "random_sweep",
            CampaignKind::Explore { .. } => "explore",
        }
    }
}

/// A campaign submission: `POST /campaigns`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRequest {
    /// Stable algorithm id (`"kfusion"`, `"point-odometry"`, …).
    pub algorithm: String,
    /// The dataset recipe evaluated against (suite campaigns use only
    /// its camera).
    pub dataset: DatasetConfig,
    /// What to evaluate.
    pub kind: CampaignKind,
    /// Scheduling class (default batch).
    #[serde(default)]
    pub priority: Priority,
    /// Device model name for explore objectives (default `"ODROID
    /// XU3"`); looked up case-insensitively in the `slam_power`
    /// catalogue.
    #[serde(default)]
    pub device: Option<String>,
}

/// How one evaluation slot ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeStatus {
    /// The run finished; `run` holds it.
    Done,
    /// The run panicked; `quarantined` says why.
    Failed,
    /// An exploration point: `measured` holds the objectives.
    Measured,
}

/// One streamed per-run outcome. `index` is the campaign-wide
/// evaluation index (dense, starting at 0), which is also the stream
/// cursor for `?from=`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutcomeRecord {
    /// Campaign-wide evaluation index.
    pub index: usize,
    /// Sequence name, for suite campaigns.
    #[serde(default)]
    pub sequence: Option<String>,
    /// How the slot ended.
    pub status: OutcomeStatus,
    /// The full run, for `done` slots.
    #[serde(default)]
    pub run: Option<PipelineRun>,
    /// The measured objectives, for exploration points.
    #[serde(default)]
    pub measured: Option<MeasuredConfig>,
    /// The quarantine record, for `failed` slots.
    #[serde(default)]
    pub quarantined: Option<QuarantinedConfig>,
}

impl OutcomeRecord {
    /// Wraps an engine [`RunOutcome`] as the record at `index`.
    pub fn from_outcome(index: usize, sequence: Option<String>, outcome: RunOutcome) -> Self {
        let (status, run, quarantined) = match outcome {
            RunOutcome::Done(run) => (OutcomeStatus::Done, Some(run), None),
            RunOutcome::Failed(q) => (OutcomeStatus::Failed, None, Some(q)),
        };
        OutcomeRecord {
            index,
            sequence,
            status,
            run,
            measured: None,
            quarantined,
        }
    }

    /// Wraps one evaluation of an exploration as the record at `index`.
    pub fn from_recorded(index: usize, eval: RecordedEval) -> Self {
        let (status, measured, quarantined) = match eval {
            RecordedEval::Measured(m) => (OutcomeStatus::Measured, Some(m), None),
            RecordedEval::Failed { quarantined, .. } => {
                (OutcomeStatus::Failed, None, Some(quarantined))
            }
        };
        OutcomeRecord {
            index,
            sequence: None,
            status,
            run: None,
            measured,
            quarantined,
        }
    }
}

/// Campaign lifecycle state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignPhase {
    /// Accepted, no quantum served yet.
    Queued,
    /// At least one quantum served.
    Running,
    /// Every evaluation finished.
    Complete,
    /// Cancelled by `DELETE /campaigns/<id>`; outcomes already streamed
    /// stay readable.
    Cancelled,
    /// The campaign aborted with an engine error.
    Failed {
        /// The error message.
        error: String,
    },
}

impl CampaignPhase {
    /// Whether the campaign will never produce further outcomes.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignPhase::Complete | CampaignPhase::Cancelled | CampaignPhase::Failed { .. }
        )
    }
}

/// `GET /campaigns/<id>` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: u64,
    /// Stable algorithm id.
    pub algorithm: String,
    /// Campaign kind name (`"sweep"`, `"explore"`, …).
    pub kind: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Lifecycle state.
    pub phase: CampaignPhase,
    /// Total evaluations the campaign will produce.
    pub total: usize,
    /// Outcomes produced so far.
    pub completed: usize,
}

/// `POST /campaigns` success response (202).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submitted {
    /// The new campaign's id.
    pub id: u64,
    /// Total evaluations the campaign will produce.
    pub total: usize,
}

/// Any error response body (4xx / 5xx).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable cause; parse errors and validation messages
    /// surface verbatim.
    pub error: String,
}

/// `GET /campaigns/<id>/outcomes` response: the records at
/// `[from, from + records.len())` plus whether the campaign is
/// terminal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutcomesPage {
    /// Index of the first record in `records`.
    pub from: usize,
    /// The records (possibly empty).
    pub records: Vec<OutcomeRecord>,
    /// Whether the campaign is terminal: no further records will ever
    /// arrive past `from + records.len()`.
    pub done: bool,
}

/// `GET /stats` response: shard-aware engine aggregation plus every
/// campaign's status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStatsReport {
    /// Number of engine shards.
    pub shards: usize,
    /// Per-shard cache/fault counters, shard-index order (merged across
    /// algorithms within a shard).
    pub per_shard: Vec<EngineStats>,
    /// Element-wise sum of `per_shard`
    /// ([`EngineStats::merge`](slambench::engine::EngineStats::merge)).
    pub merged: EngineStats,
    /// Requests served by a non-home shard's warm cache.
    pub cross_shard_hits: u64,
    /// Datasets the hub rendered (one per distinct sequence that no
    /// live campaign already held).
    #[serde(default)]
    pub datasets_rendered: u64,
    /// Campaign datasets served from the hub's store without a render.
    #[serde(default)]
    pub datasets_shared: u64,
    /// Every campaign the server knows, id order.
    pub campaigns: Vec<CampaignStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            (
                CampaignKind::Single {
                    config: KFusionConfig::fast_test(),
                },
                "single",
            ),
            (CampaignKind::Sweep { configs: vec![] }, "sweep"),
            (
                CampaignKind::Suite {
                    suite: "standard".into(),
                    frames: 3,
                    configs: vec![],
                },
                "suite",
            ),
            (CampaignKind::RandomSweep { n: 4, seed: 7 }, "random_sweep"),
            (CampaignKind::Explore { budget: 9, seed: 7 }, "explore"),
        ];
        for (kind, name) in kinds {
            assert_eq!(kind.name(), name);
        }
    }

    #[test]
    fn request_round_trips_and_defaults_apply() {
        let req = CampaignRequest {
            algorithm: "kfusion".into(),
            dataset: DatasetConfig::tiny_test(),
            kind: CampaignKind::RandomSweep { n: 3, seed: 42 },
            priority: Priority::Interactive,
            device: Some("ODROID XU3".into()),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: CampaignRequest = serde_json::from_str(&json).unwrap();
        // re-encoding is the cheapest deep-equality check: the request
        // holds foreign structs that do not implement `PartialEq`
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // priority and device are optional on the wire
        let minimal = format!(
            "{{\"algorithm\":\"kfusion\",\"dataset\":{},\"kind\":{{\"Single\":{{\"config\":{}}}}}}}",
            serde_json::to_string(&DatasetConfig::tiny_test()).unwrap(),
            serde_json::to_string(&KFusionConfig::fast_test()).unwrap(),
        );
        let parsed: CampaignRequest = serde_json::from_str(&minimal).unwrap();
        assert_eq!(parsed.priority, Priority::Batch);
        assert_eq!(parsed.device, None);
    }

    #[test]
    fn terminal_phases_are_terminal() {
        assert!(!CampaignPhase::Queued.is_terminal());
        assert!(!CampaignPhase::Running.is_terminal());
        assert!(CampaignPhase::Complete.is_terminal());
        assert!(CampaignPhase::Cancelled.is_terminal());
        assert!(CampaignPhase::Failed { error: "x".into() }.is_terminal());
    }
}
