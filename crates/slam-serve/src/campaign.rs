//! Campaign state machines: validation at the trust boundary, work-unit
//! expansion, the per-campaign outcome log, cancellation, and spec
//! persistence.
//!
//! A [`Campaign`] is built from a wire
//! [`CampaignRequest`] by
//! [`Campaign::build`], which is where every untrusted field is
//! checked: the algorithm name (rejected with the
//! [`AlgoId`] parse error verbatim, which lists
//! the valid names), the device name, every configuration, the dataset
//! and the suite name. A campaign that builds is guaranteed evaluable.
//!
//! The campaign's spec (`{id, request, done}`) is persisted through the
//! engine's atomic-JSON helpers under
//! `<state_dir>/campaigns/<id>.json` the moment it is accepted, and
//! rewritten with `done: true` on any terminal phase — so a killed
//! server finds exactly the in-flight campaigns on restart and rebuilds
//! them from their requests. Work units are re-derived
//! deterministically from the request (synthetic datasets, seeded
//! samples and the seeded learner regenerate bit-identically), and the
//! engine's shared disk cache replays every pre-kill evaluation —
//! including its recorded wall times — so resumed campaigns stream
//! byte-identical outcomes.

use crate::datasets::DatasetStore;
use crate::protocol::{
    CampaignKind, CampaignPhase, CampaignRequest, CampaignStatus, OutcomeRecord, Priority,
};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use slam_kfusion::{AlgoId, KFusionConfig};
use slam_power::devices::{all_devices, by_name, odroid_xu3};
use slam_power::DeviceModel;
use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
use slambench::engine::{load_json, save_json_atomic};
use slambench::explore::ExploreOptions;
use slambench::suite::{adversarial_suite, standard_suite};
use slambench::{decode_for, space_for};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One evaluation slot of a unit-list campaign.
#[derive(Debug, Clone)]
pub struct WorkUnit {
    /// Index into the campaign's dataset list.
    pub dataset: usize,
    /// Sequence name, for suite campaigns.
    pub sequence: Option<String>,
    /// The configuration to evaluate.
    pub config: KFusionConfig,
}

/// The evaluable form of a campaign.
#[derive(Debug)]
pub enum Work {
    /// A fixed list of evaluation slots (single, sweep, suite,
    /// random-sweep campaigns).
    Units {
        /// The generated datasets the units index into, shared through
        /// the hub's [`DatasetStore`].
        datasets: Vec<Arc<SyntheticDataset>>,
        /// The slots, in streaming order.
        units: Vec<WorkUnit>,
    },
    /// An active-learning exploration, served a slice at a time through
    /// [`explore_until`](slambench::explore::explore_until) (the
    /// proposals depend on earlier measurements, so there is no
    /// up-front unit list).
    Explore {
        /// The dataset explored over, shared through the hub's
        /// [`DatasetStore`].
        dataset: Arc<SyntheticDataset>,
        /// Exploration settings (budget, seeded learner).
        options: ExploreOptions,
    },
}

/// Mutable campaign progress, behind one mutex. The outcome log is
/// append-only; `outcomes.len()` is the streaming cursor.
#[derive(Debug)]
struct ProgressState {
    phase: CampaignPhase,
    outcomes: Vec<OutcomeRecord>,
}

/// One accepted campaign. See the [module docs](self).
#[derive(Debug)]
pub struct Campaign {
    /// Campaign id (assigned by the hub, stable across restarts).
    pub id: u64,
    /// The parsed algorithm.
    pub algorithm: AlgoId,
    /// Scheduling class.
    pub priority: Priority,
    /// The resolved device model (explore objectives).
    pub device: DeviceModel,
    /// The originating request, as persisted.
    pub request: CampaignRequest,
    /// Total evaluations the campaign will produce — for an
    /// exploration, the most its learner's schedule can produce.
    pub total: usize,
    /// The evaluable work.
    pub work: Work,
    progress: Mutex<ProgressState>,
    wakeup: Condvar,
    cancelled: AtomicBool,
    leased: AtomicBool,
    served_tick: AtomicU64,
}

fn join_device_names() -> String {
    all_devices()
        .iter()
        .map(|d| d.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

impl Campaign {
    /// Validates `request` and expands it into an evaluable campaign,
    /// taking its datasets from `store` (rendered there only if no
    /// live campaign already holds them).
    ///
    /// # Errors
    ///
    /// A human-readable message, surfaced verbatim as the HTTP 400
    /// body: unknown algorithm (listing the valid names), unknown
    /// device (listing the catalogue), invalid configuration, empty or
    /// unrenderable dataset ([`DatasetConfig::validate`]), unknown
    /// suite, or an empty work list.
    pub fn build(
        id: u64,
        request: CampaignRequest,
        store: &DatasetStore,
    ) -> Result<Campaign, String> {
        let algorithm: AlgoId = request.algorithm.parse()?;
        let device = match &request.device {
            None => odroid_xu3(),
            Some(name) => by_name(name).ok_or_else(|| {
                format!(
                    "unknown device {name:?}; valid devices: {}",
                    join_device_names()
                )
            })?,
        };
        // every dataset is checked before any is rendered: an oversized
        // camera would abort the process inside the renderer's allocation
        let check_dataset = |config: &DatasetConfig| {
            config
                .validate()
                .map_err(|e| format!("invalid dataset {:?}: {e}", config.name))
        };
        let needs_request_dataset = !matches!(request.kind, CampaignKind::Suite { .. });
        if needs_request_dataset {
            if request.dataset.frame_count == 0 {
                return Err("cannot evaluate on an empty dataset".to_string());
            }
            check_dataset(&request.dataset)?;
        }
        let validate = |config: &KFusionConfig| {
            config
                .validate()
                .map_err(|e| format!("invalid configuration: {e}"))
        };
        let (total, work) = match &request.kind {
            CampaignKind::Single { config } => {
                validate(config)?;
                let dataset = store.get(&request.dataset);
                let units = vec![WorkUnit {
                    dataset: 0,
                    sequence: None,
                    config: config.clone(),
                }];
                (
                    1,
                    Work::Units {
                        datasets: vec![dataset],
                        units,
                    },
                )
            }
            CampaignKind::Sweep { configs } => {
                if configs.is_empty() {
                    return Err("sweep has no configurations".to_string());
                }
                for config in configs {
                    validate(config)?;
                }
                let dataset = store.get(&request.dataset);
                let units = configs
                    .iter()
                    .map(|config| WorkUnit {
                        dataset: 0,
                        sequence: None,
                        config: config.clone(),
                    })
                    .collect::<Vec<_>>();
                (
                    units.len(),
                    Work::Units {
                        datasets: vec![dataset],
                        units,
                    },
                )
            }
            CampaignKind::Suite {
                suite,
                frames,
                configs,
            } => {
                if configs.is_empty() {
                    return Err("suite campaign has no configurations".to_string());
                }
                for config in configs {
                    validate(config)?;
                }
                if *frames == 0 {
                    return Err("cannot evaluate on an empty dataset".to_string());
                }
                let sequences = match suite.as_str() {
                    "standard" => standard_suite(request.dataset.camera, *frames),
                    "adversarial" => adversarial_suite(request.dataset.camera, *frames),
                    other => {
                        return Err(format!(
                            "unknown suite {other:?}; valid suites: standard, adversarial"
                        ))
                    }
                };
                for seq in &sequences {
                    check_dataset(&seq.config)?;
                }
                let mut datasets = Vec::with_capacity(sequences.len());
                let mut units = Vec::with_capacity(sequences.len() * configs.len());
                for (si, seq) in sequences.iter().enumerate() {
                    datasets.push(store.get(&seq.config));
                    for config in configs {
                        units.push(WorkUnit {
                            dataset: si,
                            sequence: Some(seq.name.clone()),
                            config: config.clone(),
                        });
                    }
                }
                (units.len(), Work::Units { datasets, units })
            }
            CampaignKind::RandomSweep { n, seed } => {
                if *n == 0 {
                    return Err("random sweep has no samples".to_string());
                }
                let space = space_for(algorithm);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
                let samples = slam_dse::sampler::random_samples(&space, *n, &mut rng);
                let dataset = store.get(&request.dataset);
                let units = samples
                    .iter()
                    .map(|x| WorkUnit {
                        dataset: 0,
                        sequence: None,
                        config: decode_for(algorithm, x),
                    })
                    .collect::<Vec<_>>();
                (
                    units.len(),
                    Work::Units {
                        datasets: vec![dataset],
                        units,
                    },
                )
            }
            CampaignKind::Explore { budget, seed } => {
                if *budget == 0 {
                    return Err("exploration has no budget".to_string());
                }
                let dataset = store.get(&request.dataset);
                // small budgets use the fast learner profile so tiny
                // interactive explorations are not dominated by the
                // default 40-point initial design
                let mut learner = if *budget <= 24 {
                    slam_dse::active::ActiveLearnerOptions::fast()
                } else {
                    slam_dse::active::ActiveLearnerOptions::default()
                };
                learner.seed = *seed;
                // the initial design plus every iteration's batch
                let schedule = learner.initial_samples + learner.iterations * learner.batch_size;
                let options = ExploreOptions {
                    budget: *budget,
                    learner,
                    ..ExploreOptions::default()
                };
                ((*budget).min(schedule), Work::Explore { dataset, options })
            }
        };
        Ok(Campaign {
            id,
            algorithm,
            priority: request.priority,
            device,
            request,
            total,
            work,
            progress: Mutex::new(ProgressState {
                phase: CampaignPhase::Queued,
                outcomes: Vec::new(),
            }),
            wakeup: Condvar::new(),
            cancelled: AtomicBool::new(false),
            leased: AtomicBool::new(false),
            served_tick: AtomicU64::new(0),
        })
    }

    fn lock_progress(&self) -> MutexGuard<'_, ProgressState> {
        // the log is append-only and the phase a single enum write, so
        // a poisoned lock cannot expose a torn state
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The campaign's lifecycle state.
    pub fn phase(&self) -> CampaignPhase {
        self.lock_progress().phase.clone()
    }

    /// Outcomes streamed so far — also the index the next quantum
    /// starts from.
    pub fn completed(&self) -> usize {
        self.lock_progress().outcomes.len()
    }

    /// The wire status of this campaign.
    pub fn status(&self) -> CampaignStatus {
        let progress = self.lock_progress();
        CampaignStatus {
            id: self.id,
            algorithm: self.algorithm.id().to_string(),
            kind: self.request.kind.name().to_string(),
            priority: self.priority,
            phase: progress.phase.clone(),
            total: self.total,
            completed: progress.outcomes.len(),
        }
    }

    /// Appends a quantum's outcomes to the log and advances the phase
    /// (`Running`, or `Complete` once the log is full or `ended` says
    /// the work has nothing more to produce — an exploration whose
    /// learner loop ended). Records arriving after cancellation are
    /// dropped: the log never grows past what the cancel point
    /// promised. Wakes every waiting reader.
    pub fn append(&self, records: Vec<OutcomeRecord>, ended: bool) {
        let mut progress = self.lock_progress();
        if !progress.phase.is_terminal() {
            progress.outcomes.extend(records);
            progress.phase = if ended || progress.outcomes.len() >= self.total {
                CampaignPhase::Complete
            } else {
                CampaignPhase::Running
            };
        }
        self.wakeup.notify_all();
    }

    /// Cancels the campaign: the phase becomes `Cancelled` immediately
    /// (unless already terminal), the executor's in-flight quantum is
    /// discarded on arrival, and streamed readers are woken to observe
    /// the terminal state. Returns the post-cancel status.
    pub fn cancel(&self) -> CampaignStatus {
        self.cancelled.store(true, Ordering::SeqCst);
        {
            let mut progress = self.lock_progress();
            if !progress.phase.is_terminal() {
                progress.phase = CampaignPhase::Cancelled;
            }
            self.wakeup.notify_all();
        }
        self.status()
    }

    /// Whether [`Campaign::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Marks the campaign failed with an engine error message.
    pub fn mark_failed(&self, error: String) {
        let mut progress = self.lock_progress();
        if !progress.phase.is_terminal() {
            progress.phase = CampaignPhase::Failed { error };
        }
        self.wakeup.notify_all();
    }

    /// Whether an executor should pick this campaign up.
    pub fn wants_work(&self) -> bool {
        !self.leased.load(Ordering::SeqCst) && {
            let progress = self.lock_progress();
            !progress.phase.is_terminal() && progress.outcomes.len() < self.total
        }
    }

    /// Claims the campaign for one executor (at most one runs a
    /// campaign's quanta at a time, keeping the outcome log ordered).
    pub fn try_lease(&self) -> bool {
        self.leased
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases the executor's claim.
    pub fn release(&self) {
        self.leased.store(false, Ordering::SeqCst);
    }

    /// Records when the scheduler last served this campaign (fairness:
    /// least-recently-served runs first within a priority class).
    pub fn touch(&self, tick: u64) {
        self.served_tick.store(tick, Ordering::SeqCst);
    }

    /// The scheduler tick this campaign was last served at.
    pub fn last_served(&self) -> u64 {
        self.served_tick.load(Ordering::SeqCst)
    }

    /// The outcomes from `from` onward plus whether the campaign is
    /// terminal. With `wait`, blocks (bounded at roughly a minute)
    /// until a record past `from` lands or the campaign is terminal —
    /// the long-poll behind `?wait=1` and the streaming endpoint.
    pub fn page_from(&self, from: usize, wait: bool) -> (Vec<OutcomeRecord>, bool) {
        let mut progress = self.lock_progress();
        if wait {
            let mut patience = 1200u32; // × 50 ms ≈ one minute
            while progress.outcomes.len() <= from && !progress.phase.is_terminal() && patience > 0 {
                let (next, _timeout) = self
                    .wakeup
                    .wait_timeout(progress, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                progress = next;
                patience -= 1;
            }
        }
        let start = from.min(progress.outcomes.len());
        (
            progress.outcomes[start..].to_vec(),
            progress.phase.is_terminal(),
        )
    }
}

/// The persisted form of a campaign: enough to rebuild it after a kill.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// The campaign's id (also the file stem).
    pub id: u64,
    /// The originating request, verbatim.
    pub request: CampaignRequest,
    /// Whether the campaign reached a terminal phase — done specs are
    /// not resumed.
    pub done: bool,
}

/// The campaign spec directory under a server state dir.
pub fn spec_dir(state_dir: &Path) -> PathBuf {
    state_dir.join("campaigns")
}

fn spec_path(state_dir: &Path, id: u64) -> PathBuf {
    spec_dir(state_dir).join(format!("{id:08}.json"))
}

/// Atomically persists one campaign spec. Best-effort, like every
/// persistence layer here: a failed save costs resume, not
/// correctness.
pub fn save_spec(state_dir: &Path, spec: &CampaignSpec) -> bool {
    save_json_atomic(&spec_path(state_dir, spec.id), spec)
}

/// Loads every parseable campaign spec under `state_dir`, id order.
/// Unreadable or corrupt files are skipped — the same tolerance policy
/// as the engine's disk cache.
pub fn load_specs(state_dir: &Path) -> Vec<CampaignSpec> {
    let Ok(entries) = std::fs::read_dir(spec_dir(state_dir)) else {
        return Vec::new();
    };
    let mut specs: Vec<CampaignSpec> = entries
        .flatten()
        .filter_map(|entry| load_json(&entry.path()))
        .collect();
    specs.sort_by_key(|spec| spec.id);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{OutcomeStatus, Priority};
    use slam_trace::Tracer;

    fn build(id: u64, request: CampaignRequest) -> Result<Campaign, String> {
        Campaign::build(id, request, &DatasetStore::new(Tracer::disabled()))
    }

    fn request(kind: CampaignKind) -> CampaignRequest {
        let mut dataset = DatasetConfig::tiny_test();
        dataset.frame_count = 3;
        CampaignRequest {
            algorithm: "kfusion".into(),
            dataset,
            kind,
            priority: Priority::Batch,
            device: None,
        }
    }

    fn record(index: usize) -> OutcomeRecord {
        OutcomeRecord {
            index,
            sequence: None,
            status: OutcomeStatus::Failed,
            run: None,
            measured: None,
            quarantined: None,
        }
    }

    #[test]
    fn unknown_algorithm_error_lists_valid_names() {
        let mut req = request(CampaignKind::Single {
            config: KFusionConfig::fast_test(),
        });
        req.algorithm = "orb-slam".into();
        let err = build(1, req).unwrap_err();
        assert!(err.contains("orb-slam"), "{err}");
        for algo in AlgoId::ALL {
            assert!(err.contains(algo.id()), "{err} missing {}", algo.id());
        }
    }

    #[test]
    fn unknown_device_and_suite_are_rejected() {
        let mut req = request(CampaignKind::Single {
            config: KFusionConfig::fast_test(),
        });
        req.device = Some("cray-1".into());
        let err = build(1, req).unwrap_err();
        assert!(
            err.contains("cray-1") && err.contains("ODROID XU3"),
            "{err}"
        );

        let req = request(CampaignKind::Suite {
            suite: "weird".into(),
            frames: 3,
            configs: vec![KFusionConfig::fast_test()],
        });
        let err = build(1, req).unwrap_err();
        assert!(err.contains("weird") && err.contains("standard"), "{err}");
    }

    #[test]
    fn invalid_config_and_empty_work_are_rejected() {
        let mut bad = KFusionConfig::fast_test();
        bad.compute_size_ratio = 3;
        let err = build(1, request(CampaignKind::Single { config: bad })).unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");

        let err = build(1, request(CampaignKind::Sweep { configs: vec![] })).unwrap_err();
        assert!(err.contains("no configurations"), "{err}");

        let mut req = request(CampaignKind::Single {
            config: KFusionConfig::fast_test(),
        });
        req.dataset.frame_count = 0;
        let err = build(1, req).unwrap_err();
        assert!(err.contains("empty dataset"), "{err}");
    }

    #[test]
    fn suite_expands_sequence_major() {
        let configs = vec![KFusionConfig::fast_test(), {
            let mut c = KFusionConfig::fast_test();
            c.volume_resolution = 32;
            c
        }];
        let campaign = build(
            1,
            request(CampaignKind::Suite {
                suite: "standard".into(),
                frames: 2,
                configs: configs.clone(),
            }),
        )
        .unwrap();
        let Work::Units { datasets, units } = &campaign.work else {
            panic!("suite expands to units");
        };
        assert_eq!(campaign.total, datasets.len() * configs.len());
        assert_eq!(units.len(), campaign.total);
        // sequence-major: every config of sequence 0 before sequence 1
        assert_eq!(units[0].dataset, 0);
        assert_eq!(units[1].dataset, 0);
        assert_eq!(units[configs.len()].dataset, 1);
        assert!(units[0]
            .sequence
            .as_deref()
            .is_some_and(|s| s.contains("living_room")));
    }

    #[test]
    fn suite_sequences_are_shared_with_a_later_suite() {
        let store = DatasetStore::new(Tracer::disabled());
        let suite = |configs| {
            request(CampaignKind::Suite {
                suite: "standard".into(),
                frames: 2,
                configs,
            })
        };
        let first = Campaign::build(1, suite(vec![KFusionConfig::fast_test()]), &store).unwrap();
        let rendered = store.rendered();
        let mut coarse = KFusionConfig::fast_test();
        coarse.volume_resolution = 32;
        let second = Campaign::build(2, suite(vec![coarse]), &store).unwrap();
        let (Work::Units { datasets: a, .. }, Work::Units { datasets: b, .. }) =
            (&first.work, &second.work)
        else {
            panic!("suites expand to units");
        };
        assert!(a.len() > 1);
        assert_eq!(rendered, a.len() as u64);
        assert_eq!(
            store.rendered(),
            rendered,
            "the second suite renders nothing"
        );
        assert_eq!(store.shared(), a.len() as u64);
        assert!(a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)));
    }

    #[test]
    fn rejected_requests_render_nothing() {
        let store = DatasetStore::new(Tracer::disabled());
        let mut bad = KFusionConfig::fast_test();
        bad.compute_size_ratio = 3;
        assert!(Campaign::build(1, request(CampaignKind::Single { config: bad }), &store).is_err());
        assert_eq!(store.rendered(), 0);
    }

    #[test]
    fn unrenderable_datasets_are_rejected_before_rendering() {
        let single = || {
            request(CampaignKind::Single {
                config: KFusionConfig::fast_test(),
            })
        };
        let mut oversized = single();
        (
            oversized.dataset.camera.width,
            oversized.dataset.camera.height,
        ) = (30_000, 30_000);
        let mut zero_sized = single();
        zero_sized.dataset.camera.width = 0;
        let mut nan_intrinsics = single();
        nan_intrinsics.dataset.camera.fx = f32::NAN;
        let mut too_many_frames = single();
        too_many_frames.dataset.frame_count = 1 << 25;
        let mut oversized_suite = request(CampaignKind::Suite {
            suite: "standard".into(),
            frames: 1 << 25,
            configs: vec![KFusionConfig::fast_test()],
        });
        oversized_suite.dataset.frame_count = 1;
        let cases = [
            ("oversized camera", oversized, "outside 1..=4096"),
            ("zero-sized camera", zero_sized, "outside 1..=4096"),
            ("NaN intrinsics", nan_intrinsics, "intrinsics"),
            ("oversized frame count", too_many_frames, "exceed"),
            ("oversized suite", oversized_suite, "exceed"),
        ];
        for (what, req, message) in cases {
            let store = DatasetStore::new(Tracer::disabled());
            let err = Campaign::build(1, req, &store).unwrap_err();
            assert!(
                err.contains("invalid dataset") && err.contains(message),
                "{what}: {err}"
            );
            assert_eq!(store.rendered(), 0, "{what} rendered a dataset");
        }
    }

    #[test]
    fn random_sweep_is_seed_deterministic() {
        let sweep = |seed| build(1, request(CampaignKind::RandomSweep { n: 4, seed })).unwrap();
        let (a, b, c) = (sweep(7), sweep(7), sweep(8));
        let configs = |campaign: &Campaign| {
            let Work::Units { units, .. } = &campaign.work else {
                panic!("random sweep expands to units");
            };
            units.iter().map(|u| u.config.clone()).collect::<Vec<_>>()
        };
        assert_eq!(configs(&a), configs(&b));
        assert_ne!(configs(&a), configs(&c));
        assert_eq!(a.total, 4);
    }

    #[test]
    fn append_cancel_and_page_follow_the_lifecycle() {
        let campaign = build(1, request(CampaignKind::RandomSweep { n: 3, seed: 1 })).unwrap();
        assert_eq!(campaign.phase(), CampaignPhase::Queued);
        assert!(campaign.wants_work());
        assert!(campaign.try_lease());
        assert!(!campaign.wants_work()); // leased
        campaign.append(vec![record(0)], false);
        assert_eq!(campaign.phase(), CampaignPhase::Running);
        let (records, done) = campaign.page_from(0, false);
        assert_eq!(records.len(), 1);
        assert!(!done);
        let status = campaign.cancel();
        assert_eq!(status.phase, CampaignPhase::Cancelled);
        assert_eq!(status.completed, 1);
        // a late quantum after cancellation is dropped
        campaign.append(vec![record(1)], false);
        let (records, done) = campaign.page_from(0, true);
        assert_eq!(records.len(), 1);
        assert!(done);
        campaign.release();
        assert!(!campaign.wants_work()); // terminal
    }

    #[test]
    fn completion_is_reached_exactly_at_total() {
        let campaign = build(1, request(CampaignKind::RandomSweep { n: 2, seed: 1 })).unwrap();
        campaign.append(vec![record(0), record(1)], false);
        assert_eq!(campaign.phase(), CampaignPhase::Complete);
        let (records, done) = campaign.page_from(1, true);
        assert_eq!(records.len(), 1);
        assert!(done);
    }

    #[test]
    fn specs_round_trip_in_id_order() {
        let dir = std::env::temp_dir().join(format!("slam-serve-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for id in [3u64, 1, 2] {
            let spec = CampaignSpec {
                id,
                request: request(CampaignKind::RandomSweep { n: 2, seed: id }),
                done: id == 2,
            };
            assert!(save_spec(&dir, &spec));
        }
        // a corrupt file is skipped, not fatal
        std::fs::write(spec_dir(&dir).join("junk.json"), "{ nope").unwrap();
        let specs = load_specs(&dir);
        assert_eq!(
            specs.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(specs[1].done);
        assert!(!specs[0].done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Feeds mutants of a saved `Sweep` spec through `load_specs`: bit
    /// flips, inserted, deleted and truncated bytes, and JSON values
    /// replaced by out-of-range or ill-typed literals. Oracle: nothing
    /// panics; every spec that loads re-saves and re-loads to the same
    /// JSON; its dataset validates to `Ok` or a typed error, and a
    /// campaign built from an invalid one is rejected before rendering.
    #[test]
    fn mutated_specs_load_as_skips_or_stable_specs() {
        use crate::server::tests::SplitMix64;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let root =
            std::env::temp_dir().join(format!("slam-serve-spec-fuzz-{}", std::process::id()));
        let (dir, resaved) = (root.join("mutant"), root.join("resaved"));
        let _ = std::fs::remove_dir_all(&root);
        let mut coarse = KFusionConfig::fast_test();
        coarse.volume_resolution = 32;
        let spec = CampaignSpec {
            id: 7,
            request: request(CampaignKind::Sweep {
                configs: vec![KFusionConfig::fast_test(), coarse],
            }),
            done: false,
        };
        assert!(save_spec(&dir, &spec));
        let path = spec_path(&dir, spec.id);
        let seed = std::fs::read(&path).unwrap();
        assert_eq!(load_specs(&dir).len(), 1, "the seed spec does not load");
        let literals: [&[u8]; 7] = [
            b"-1",
            b"1e400",
            b"18446744073709551616",
            b"null",
            br#""\ud800""#,
            b"[]",
            b"{}",
        ];
        let mutants = if cfg!(miri) { 12 } else { 20_000 };
        let mut rng = SplitMix64(0x5bec_7a11);
        let (mut accepted, mut invalid) = (0usize, 0usize);
        for case in 0..mutants {
            let mut bytes = seed.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() + 1);
                match rng.below(6) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes.insert(at, rng.below(256) as u8),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => bytes.truncate(at),
                    _ => {
                        // the value after the first `:` from `at` on, up
                        // to the next `,`, `}` or `]`, becomes a literal
                        let Some(colon) = bytes[at..].iter().position(|&b| b == b':') else {
                            continue;
                        };
                        let start = at + colon + 1;
                        let len = bytes[start..]
                            .iter()
                            .position(|b| b",}]".contains(b))
                            .unwrap_or(bytes.len() - start);
                        let literal = literals[rng.below(literals.len())];
                        bytes.splice(start..start + len, literal.iter().copied());
                    }
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let what = format!("mutant {case}: {}", String::from_utf8_lossy(&bytes));
            let Ok(loaded) = catch_unwind(|| load_specs(&dir)) else {
                panic!("{what} panicked load_specs");
            };
            assert!(loaded.len() <= 1, "{what}: {} specs", loaded.len());
            let Some(spec) = loaded.into_iter().next() else {
                continue;
            };
            accepted += 1;
            let _ = std::fs::remove_dir_all(&resaved);
            assert!(save_spec(&resaved, &spec), "{what}: does not re-save");
            let reloaded = load_specs(&resaved);
            let json =
                |s: &CampaignSpec| serde_json::to_string(s).expect("a saved spec serialises");
            assert_eq!(reloaded.len(), 1, "{what}: does not re-load");
            assert_eq!(
                json(&reloaded[0]),
                json(&spec),
                "{what}: re-loads different"
            );
            let Ok(valid) = catch_unwind(|| spec.request.dataset.validate()) else {
                panic!("{what} panicked validate");
            };
            if valid.is_err() {
                invalid += 1;
                let store = DatasetStore::new(Tracer::disabled());
                let built = catch_unwind(AssertUnwindSafe(|| {
                    Campaign::build(spec.id, spec.request.clone(), &store).map(|_| ())
                }));
                let Ok(built) = built else {
                    panic!("{what} panicked Campaign::build");
                };
                assert!(built.is_err(), "{what}: an invalid dataset builds");
                assert_eq!(store.rendered(), 0, "{what}: rendered");
            }
        }
        if !cfg!(miri) {
            // the loop reaches both sides of the parser and of `validate`
            assert!(
                accepted > 100 && invalid > 0,
                "{accepted} accepted, {invalid} invalid"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
