//! The [`CampaignHub`]: a fair scheduler multiplexing concurrent
//! campaigns over the shared worker pool.
//!
//! A small pool of executor threads repeatedly picks the next runnable
//! campaign and serves it one *quantum* (a few evaluations), so a long
//! batch sweep cannot starve an interactive request that arrives
//! mid-flight. Selection order: interactive before batch, then
//! least-recently-served, then lowest id — a priority-class round-robin.
//! While `k` campaigns run concurrently, each quantum caps its kernel
//! threads at `available / k`
//! ([`with_thread_budget`](slam_exec::with_thread_budget)), so
//! outer × inner parallelism never oversubscribes the machine and every
//! campaign keeps making progress.
//!
//! Determinism is unaffected by any of this: quanta evaluate through
//! the sharded engine (bit-identical at any thread budget), and each
//! campaign's outcome log is appended by at most one executor at a time
//! (a lease), in unit order.
//!
//! Persistence: campaign specs are saved on submit and marked done on
//! any terminal phase, and every evaluation lands in the shared disk
//! cache. [`CampaignHub::start`] reloads every non-done spec, so killing
//! the process mid-campaign loses nothing but the current quantum — and
//! even that re-evaluates from the shared disk cache bit-identically.
//! An exploration is served by re-running its seeded learner a little
//! further each quantum ([`explore_until`]): the engine's memory cache
//! answers the evaluations already streamed, and after a restart the
//! disk cache does.
//!
//! Datasets: every campaign — submitted or rebuilt on restart — takes
//! its datasets from the hub's [`DatasetStore`], so one sequence is
//! rendered once per hub however many campaigns evaluate on it.

use crate::campaign::{load_specs, save_spec, Campaign, CampaignSpec, Work};
use crate::datasets::DatasetStore;
use crate::protocol::{OutcomeRecord, Priority, ServerStatsReport, Submitted};
use crate::shard::ShardedEngine;
use slam_trace::Tracer;
use slambench::explore::explore_until;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Hub construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Engine shards per algorithm (minimum 1).
    pub shards: usize,
    /// Executor threads serving campaign quanta. Zero is legitimate:
    /// the hub accepts and persists campaigns but never runs them —
    /// the tests use it to stage a kill before any work starts.
    pub executors: usize,
    /// Evaluations per scheduling quantum (minimum 1): the fairness
    /// granularity and the cancel/kill resolution.
    pub quantum: usize,
    /// Server state directory: `cache/` (shared disk cache) and
    /// `campaigns/` (specs).
    pub state_dir: PathBuf,
    /// Tracer for `serve.*` counters and spans (disabled by default).
    pub tracer: Tracer,
}

impl ServeOptions {
    /// Defaults: 2 shards, 2 executors, quantum 4, disabled tracer.
    /// Every engine shard runs the default fault policy, which sets no
    /// wall-clock deadline: a served exploration replays the same way
    /// in every quantum.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            shards: 2,
            executors: 2,
            quantum: 4,
            state_dir: state_dir.into(),
            tracer: Tracer::disabled(),
        }
    }
}

struct Registry {
    campaigns: BTreeMap<u64, Arc<Campaign>>,
    next_id: u64,
}

struct HubShared {
    engine: ShardedEngine,
    datasets: DatasetStore,
    tracer: Tracer,
    quantum: usize,
    shards: usize,
    state_dir: PathBuf,
    reg: Mutex<Registry>,
    work_ready: Condvar,
    stop: AtomicBool,
    tick: AtomicU64,
    active: AtomicUsize,
}

impl HubShared {
    fn lock_reg(&self) -> MutexGuard<'_, Registry> {
        // registry mutations are single map inserts; a poisoned lock
        // cannot expose a torn registry
        self.reg.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Picks the next campaign an executor should serve, without leasing
/// it: interactive before batch, then least recently served, then
/// lowest id.
fn select_candidate(registry: &Registry) -> Option<Arc<Campaign>> {
    let mut best: Option<&Arc<Campaign>> = None;
    for campaign in registry.campaigns.values() {
        if !campaign.wants_work() {
            continue;
        }
        let beats = match best {
            None => true,
            Some(current) => {
                let rank = |c: &Campaign| {
                    (
                        match c.priority {
                            Priority::Interactive => 0u8,
                            Priority::Batch => 1u8,
                        },
                        c.last_served(),
                        c.id,
                    )
                };
                rank(campaign) < rank(current)
            }
        };
        if beats {
            best = Some(campaign);
        }
    }
    best.cloned()
}

/// The campaign scheduler and engine front-door. Cheap to share:
/// clones hand out the same hub.
#[derive(Clone)]
pub struct CampaignHub {
    shared: Arc<HubShared>,
    executors: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl CampaignHub {
    /// Builds the sharded engine, reloads every non-done campaign spec
    /// under the state dir, and spawns the executor pool.
    pub fn start(options: ServeOptions) -> CampaignHub {
        let shards = options.shards.max(1);
        let engine = ShardedEngine::new(
            shards,
            &options.state_dir.join("cache"),
            options.tracer.clone(),
        );
        let datasets = DatasetStore::new(options.tracer.clone());
        let mut campaigns = BTreeMap::new();
        let mut next_id = 1u64;
        for spec in load_specs(&options.state_dir) {
            next_id = next_id.max(spec.id + 1); // done specs still burn their ids
            if spec.done {
                continue;
            }
            if let Ok(campaign) = Campaign::build(spec.id, spec.request, &datasets) {
                campaigns.insert(spec.id, Arc::new(campaign));
            }
        }
        let shared = Arc::new(HubShared {
            engine,
            datasets,
            tracer: options.tracer,
            quantum: options.quantum.max(1),
            shards,
            state_dir: options.state_dir,
            reg: Mutex::new(Registry { campaigns, next_id }),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            tick: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        });
        let executors = (0..options.executors)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("slam-serve-exec-{i}"))
                    .spawn(move || run_executor(&shared))
                    .ok()
            })
            .collect();
        CampaignHub {
            shared,
            executors: Arc::new(Mutex::new(executors)),
        }
    }

    /// Validates and accepts a campaign. The spec is persisted before
    /// this returns, so an accepted campaign survives a kill even if it
    /// never got scheduled.
    ///
    /// # Errors
    ///
    /// The [`Campaign::build`] validation message, verbatim — the HTTP
    /// layer ships it as the 400 body.
    pub fn submit(&self, request: crate::protocol::CampaignRequest) -> Result<Submitted, String> {
        let id = {
            let mut registry = self.shared.lock_reg();
            let id = registry.next_id;
            registry.next_id += 1; // burnt even if validation fails
            id
        };
        let campaign = Campaign::build(id, request, &self.shared.datasets)?;
        let total = campaign.total;
        save_spec(
            &self.shared.state_dir,
            &CampaignSpec {
                id,
                request: campaign.request.clone(),
                done: false,
            },
        );
        self.shared
            .lock_reg()
            .campaigns
            .insert(id, Arc::new(campaign));
        self.shared.work_ready.notify_all();
        Ok(Submitted { id, total })
    }

    /// The campaign with this id, if the hub knows it.
    pub fn campaign(&self, id: u64) -> Option<Arc<Campaign>> {
        self.shared.lock_reg().campaigns.get(&id).cloned()
    }

    /// Every campaign, id order.
    pub fn campaigns(&self) -> Vec<Arc<Campaign>> {
        self.shared.lock_reg().campaigns.values().cloned().collect()
    }

    /// Cancels a campaign: terminal immediately, in-flight quantum
    /// discarded on arrival. Returns the post-cancel status, or `None`
    /// for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<crate::protocol::CampaignStatus> {
        let campaign = self.campaign(id)?;
        let status = campaign.cancel();
        persist_phase(&self.shared, &campaign);
        Some(status)
    }

    /// The sharded engine core (warm-up and inspection surface for the
    /// integration tests).
    pub fn engine(&self) -> &ShardedEngine {
        &self.shared.engine
    }

    /// The tracer `serve.*` counters and spans record into.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// The shard-aware stats report behind `GET /stats`.
    pub fn stats_report(&self) -> ServerStatsReport {
        ServerStatsReport {
            shards: self.shared.engine.shard_count(),
            per_shard: self.shared.engine.per_shard_stats(),
            merged: self.shared.engine.merged_stats(),
            cross_shard_hits: self.shared.engine.cross_shard_hits(),
            datasets_rendered: self.shared.datasets.rendered(),
            datasets_shared: self.shared.datasets.shared(),
            campaigns: self.campaigns().iter().map(|c| c.status()).collect(),
        }
    }

    /// Stops the executor pool without waiting for campaigns to finish
    /// — kill semantics: non-terminal campaigns keep `done: false` on
    /// disk and are resumed by the next [`CampaignHub::start`] on the
    /// same state dir. (Only the executor currently mid-quantum is
    /// joined; its last quantum re-evaluates from the disk cache on
    /// resume either way.)
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = {
            let mut executors = self
                .executors
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            executors.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Saves the campaign's spec with `done` reflecting whether its phase
/// is terminal.
fn persist_phase(shared: &HubShared, campaign: &Campaign) {
    save_spec(
        &shared.state_dir,
        &CampaignSpec {
            id: campaign.id,
            request: campaign.request.clone(),
            done: campaign.phase().is_terminal(),
        },
    );
}

fn run_executor(shared: &HubShared) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let candidate = {
            let registry = shared.lock_reg();
            select_candidate(&registry)
        };
        let Some(campaign) = candidate.filter(|c| c.try_lease()) else {
            // idle (or lost the lease race): wait for a submit, a
            // release, or shutdown
            let registry = shared.lock_reg();
            let _wait = shared.tracer.section_span("serve.queue_wait");
            let _ = shared
                .work_ready
                .wait_timeout(registry, Duration::from_millis(50));
            continue;
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        run_quantum(shared, &campaign);
        shared.active.fetch_sub(1, Ordering::SeqCst);
        campaign.release();
        shared.work_ready.notify_all();
    }
}

/// Serves one quantum of one campaign: a few evaluations under a fair
/// share of the kernel thread budget.
fn run_quantum(shared: &HubShared, campaign: &Campaign) {
    let tick = shared.tick.fetch_add(1, Ordering::SeqCst) + 1;
    campaign.touch(tick);
    shared.tracer.counter("serve.quantum", 1);
    let concurrent = shared.active.load(Ordering::SeqCst).max(1);
    let budget = (slam_exec::available_threads() / concurrent).max(1);
    let start = campaign.completed();
    if start >= campaign.total {
        return;
    }
    match &campaign.work {
        Work::Units { datasets, units } => {
            let end = (start + shared.quantum).min(units.len());
            let chunk = &units[start..end];
            let mut records = Vec::with_capacity(chunk.len());
            // evaluate consecutive same-dataset slices as one engine
            // batch (suite campaigns interleave datasets)
            let mut i = 0;
            while i < chunk.len() {
                let ds = chunk[i].dataset;
                let mut j = i + 1;
                while j < chunk.len() && chunk[j].dataset == ds {
                    j += 1;
                }
                let configs: Vec<_> = chunk[i..j].iter().map(|u| u.config.clone()).collect();
                let outcome = slam_exec::with_thread_budget(budget, || {
                    shared
                        .engine
                        .evaluate_outcomes(campaign.algorithm, &datasets[ds], &configs)
                });
                match outcome {
                    Ok(outcomes) => {
                        for (k, outcome) in outcomes.into_iter().enumerate() {
                            records.push(OutcomeRecord::from_outcome(
                                start + i + k,
                                chunk[i + k].sequence.clone(),
                                outcome,
                            ));
                        }
                    }
                    Err(e) => {
                        campaign.mark_failed(e.to_string());
                        persist_phase(shared, campaign);
                        return;
                    }
                }
                i = j;
                if campaign.is_cancelled() {
                    break;
                }
            }
            campaign.append(records, false);
        }
        Work::Explore { dataset, options } => {
            // an exploration is a sequential learner loop: pin it to
            // one shard (by campaign id, so concurrent explorations
            // spread out), whose cache answers the slices already
            // streamed
            let shard = (campaign.id % shared.shards as u64) as usize;
            let engine = shared.engine.engine(campaign.algorithm, shard);
            let (record, ended) = slam_exec::with_thread_budget(budget, || {
                explore_until(
                    engine,
                    dataset,
                    &campaign.device,
                    options,
                    start + shared.quantum,
                )
            });
            let records = record
                .into_iter()
                .enumerate()
                .skip(start)
                .map(|(index, eval)| OutcomeRecord::from_recorded(index, eval))
                .collect();
            campaign.append(records, ended);
        }
    }
    if campaign.phase().is_terminal() {
        persist_phase(shared, campaign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CampaignKind, CampaignPhase, CampaignRequest, OutcomeStatus};
    use slam_kfusion::KFusionConfig;
    use slam_scene::dataset::{DatasetConfig, SyntheticDataset};

    fn tmp_state(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slam-serve-hub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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

    fn wait_terminal(campaign: &Campaign) -> CampaignPhase {
        for _ in 0..600 {
            let (_, done) = campaign.page_from(campaign.completed(), true);
            if done {
                break;
            }
        }
        campaign.phase()
    }

    #[test]
    fn sweep_campaign_runs_to_completion() {
        let dir = tmp_state("sweep");
        let hub = CampaignHub::start(ServeOptions::new(&dir));
        let mut coarse = KFusionConfig::fast_test();
        coarse.volume_resolution = 32;
        let submitted = hub
            .submit(request(CampaignKind::Sweep {
                configs: vec![KFusionConfig::fast_test(), coarse],
            }))
            .unwrap();
        assert_eq!(submitted.total, 2);
        let campaign = hub.campaign(submitted.id).unwrap();
        assert_eq!(wait_terminal(&campaign), CampaignPhase::Complete);
        let (records, done) = campaign.page_from(0, false);
        assert!(done);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].index, 0);
        assert_eq!(records[1].index, 1);
        assert!(records.iter().all(|r| r.run.is_some()));
        let stats = hub.stats_report();
        assert_eq!(stats.per_shard.len(), 2);
        assert_eq!(stats.merged.misses, 2);
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_campaign_streams_measured_points() {
        let dir = tmp_state("explore");
        let hub = CampaignHub::start(ServeOptions::new(&dir));
        let submitted = hub
            .submit(request(CampaignKind::Explore {
                budget: 6,
                seed: 11,
            }))
            .unwrap();
        let campaign = hub.campaign(submitted.id).unwrap();
        assert_eq!(wait_terminal(&campaign), CampaignPhase::Complete);
        let (records, done) = campaign.page_from(0, false);
        assert!(done);
        assert_eq!(records.len(), 6);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.index, i);
            assert!(matches!(
                record.status,
                OutcomeStatus::Measured | OutcomeStatus::Failed
            ));
        }
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_submission_is_rejected_and_burns_no_campaign() {
        let dir = tmp_state("reject");
        let hub = CampaignHub::start(ServeOptions::new(&dir));
        let mut req = request(CampaignKind::Single {
            config: KFusionConfig::fast_test(),
        });
        req.algorithm = "nonesuch".into();
        let err = hub.submit(req).unwrap_err();
        assert!(err.contains("nonesuch") && err.contains("kfusion"), "{err}");
        assert!(hub.campaigns().is_empty());
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The datasets a campaign evaluates on.
    fn datasets_of(campaign: &Campaign) -> Vec<Arc<SyntheticDataset>> {
        match &campaign.work {
            Work::Units { datasets, .. } => datasets.clone(),
            Work::Explore { dataset, .. } => vec![Arc::clone(dataset)],
        }
    }

    #[test]
    fn submits_of_one_dataset_share_one_render() {
        let dir = tmp_state("share");
        let mut options = ServeOptions::new(&dir);
        options.executors = 0;
        let hub = CampaignHub::start(options);
        let single = request(CampaignKind::Single {
            config: KFusionConfig::fast_test(),
        });
        let a = hub.submit(single.clone()).unwrap();
        let b = hub
            .submit(request(CampaignKind::Explore { budget: 2, seed: 3 }))
            .unwrap();
        let mut reseeded = single;
        reseeded.dataset.seed += 1;
        let c = hub.submit(reseeded).unwrap();
        let ds = |id| datasets_of(&hub.campaign(id).unwrap());
        assert!(Arc::ptr_eq(&ds(a.id)[0], &ds(b.id)[0]));
        assert!(!Arc::ptr_eq(&ds(a.id)[0], &ds(c.id)[0]));
        let stats = hub.stats_report();
        assert_eq!((stats.datasets_rendered, stats.datasets_shared), (2, 1));
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restarted_campaigns_share_through_the_store() {
        let dir = tmp_state("restart-share");
        let mut options = ServeOptions::new(&dir);
        options.executors = 0;
        let hub = CampaignHub::start(options.clone());
        let ids: Vec<u64> = (0..3)
            .map(|seed| {
                hub.submit(request(CampaignKind::RandomSweep { n: 2, seed }))
                    .unwrap()
                    .id
            })
            .collect();
        hub.shutdown();
        let hub2 = CampaignHub::start(options);
        let stats = hub2.stats_report();
        assert_eq!((stats.datasets_rendered, stats.datasets_shared), (1, 2));
        let first = datasets_of(&hub2.campaign(ids[0]).unwrap());
        for &id in &ids[1..] {
            assert!(Arc::ptr_eq(
                &first[0],
                &datasets_of(&hub2.campaign(id).unwrap())[0]
            ));
        }
        // a submit after the restart joins the same dataset
        let next = hub2
            .submit(request(CampaignKind::Single {
                config: KFusionConfig::fast_test(),
            }))
            .unwrap();
        assert!(Arc::ptr_eq(
            &first[0],
            &datasets_of(&hub2.campaign(next.id).unwrap())[0]
        ));
        assert_eq!(hub2.stats_report().datasets_rendered, 1);
        hub2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_dataset_outcomes_match_a_serial_engine_on_a_fresh_render() {
        let dir = tmp_state("identity");
        let hub = CampaignHub::start(ServeOptions::new(&dir));
        let mut coarse = KFusionConfig::fast_test();
        coarse.volume_resolution = 32;
        let configs = vec![KFusionConfig::fast_test(), coarse];
        // the first campaign renders, the second evaluates a new
        // configuration (no cache hit) on the shared copy
        let ids: Vec<u64> = configs
            .iter()
            .map(|config| {
                hub.submit(request(CampaignKind::Single {
                    config: config.clone(),
                }))
                .unwrap()
                .id
            })
            .collect();
        let stats = hub.stats_report();
        assert_eq!((stats.datasets_rendered, stats.datasets_shared), (1, 1));
        let fresh =
            SyntheticDataset::generate(&request(CampaignKind::Sweep { configs: vec![] }).dataset);
        let serial = slambench::engine::EvalEngine::new();
        let canonical = |run: &slambench::run::PipelineRun| {
            let mut run = run.clone();
            for frame in &mut run.frames {
                frame.wall_time = 0.0;
            }
            serde_json::to_string(&run).unwrap()
        };
        for (&id, config) in ids.iter().zip(&configs) {
            let campaign = hub.campaign(id).unwrap();
            assert_eq!(wait_terminal(&campaign), CampaignPhase::Complete);
            let (records, _) = campaign.page_from(0, false);
            assert_eq!(records.len(), 1);
            let run = records[0]
                .run
                .as_ref()
                .expect("a done outcome carries its run");
            assert_eq!(canonical(run), canonical(&serial.evaluate(&fresh, config)));
        }
        assert_eq!(hub.stats_report().merged.misses, 2);
        hub.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn selection_prefers_interactive_then_least_recently_served() {
        let mk = |id, priority| {
            let mut req = request(CampaignKind::RandomSweep { n: 3, seed: id });
            req.priority = priority;
            Arc::new(Campaign::build(id, req, &DatasetStore::new(Tracer::disabled())).unwrap())
        };
        let batch_old = mk(1, Priority::Batch);
        let batch_new = mk(2, Priority::Batch);
        let interactive = mk(3, Priority::Interactive);
        batch_old.touch(1);
        batch_new.touch(5);
        interactive.touch(9);
        let mut registry = Registry {
            campaigns: BTreeMap::new(),
            next_id: 4,
        };
        for c in [&batch_old, &batch_new, &interactive] {
            registry.campaigns.insert(c.id, Arc::clone(c));
        }
        // interactive wins despite being most recently served
        assert_eq!(select_candidate(&registry).unwrap().id, 3);
        // with interactive leased, the least-recently-served batch wins
        assert!(interactive.try_lease());
        assert_eq!(select_candidate(&registry).unwrap().id, 1);
        // ties broken by id
        batch_old.touch(5);
        assert_eq!(select_candidate(&registry).unwrap().id, 1);
        // nothing runnable → None
        assert!(batch_old.try_lease());
        assert!(batch_new.try_lease());
        assert!(select_candidate(&registry).is_none());
    }

    #[test]
    fn restart_resumes_a_submitted_campaign_with_its_id() {
        let dir = tmp_state("resume");
        let mut options = ServeOptions::new(&dir);
        options.executors = 0; // the kill lands before any executor runs it
        let hub = CampaignHub::start(options);
        let mut coarse = KFusionConfig::fast_test();
        coarse.volume_resolution = 32;
        let submitted = hub
            .submit(request(CampaignKind::Sweep {
                configs: vec![KFusionConfig::fast_test(), coarse],
            }))
            .unwrap();
        hub.shutdown(); // the campaign is still queued at the kill
        let hub2 = CampaignHub::start(ServeOptions::new(&dir));
        let campaign = hub2
            .campaign(submitted.id)
            .expect("non-done campaign resumed under its original id");
        assert_eq!(wait_terminal(&campaign), CampaignPhase::Complete);
        assert_eq!(campaign.completed(), 2);
        // ids are never reused across restarts
        let next = hub2
            .submit(request(CampaignKind::Single {
                config: KFusionConfig::fast_test(),
            }))
            .unwrap();
        assert!(next.id > submitted.id);
        hub2.shutdown();
        // a second restart does not resurrect the completed campaign
        let hub3 = CampaignHub::start(ServeOptions::new(&dir));
        assert!(hub3.campaign(submitted.id).is_none());
        hub3.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_stops_a_campaign_short() {
        let dir = tmp_state("cancel");
        let mut options = ServeOptions::new(&dir);
        options.quantum = 1;
        options.executors = 1;
        let hub = CampaignHub::start(options);
        let configs: Vec<KFusionConfig> = (0..6)
            .map(|i| {
                let mut c = KFusionConfig::fast_test();
                c.volume_resolution = 32 + 16 * i;
                c
            })
            .collect();
        let submitted = hub
            .submit(request(CampaignKind::Sweep { configs }))
            .unwrap();
        let campaign = hub.campaign(submitted.id).unwrap();
        // wait for at least one outcome, then cancel
        let _ = campaign.page_from(0, true);
        let status = hub.cancel(submitted.id).unwrap();
        assert_eq!(status.phase, CampaignPhase::Cancelled);
        let (records, done) = campaign.page_from(0, false);
        assert!(done);
        assert!(records.len() < 6, "cancel should land before completion");
        // the log never grows after the cancel point
        let frozen = records.len();
        hub.shutdown();
        assert_eq!(campaign.completed(), frozen);
        // a cancelled campaign is done on disk: restart ignores it
        let hub2 = CampaignHub::start(ServeOptions::new(&dir));
        assert!(hub2.campaign(submitted.id).is_none());
        hub2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
