//! Loopback integration tests for the `slam-serve` campaign server:
//! concurrent clients against a sharded engine must be bit-identical to
//! a serial single-engine run, malformed requests get typed 400s, a
//! campaign cancels mid-flight, a served exploration streams exactly
//! what one direct exploration records, and a killed server resumes
//! in-flight campaigns from its persisted state with byte-identical
//! outcomes.

use slam_dse::active::ActiveLearnerOptions;
use slam_kfusion::KFusionConfig;
use slam_power::devices::odroid_xu3;
use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
use slam_serve::{
    serve, CampaignHub, CampaignKind, CampaignPhase, CampaignRequest, CampaignStatus, Client,
    ErrorBody, OutcomeRecord, OutcomeStatus, OutcomesPage, Priority, ServeOptions,
    ServerStatsReport, Submitted,
};
use slambench::engine::{EvalEngine, RunOutcome};
use slambench::explore::{explore_until, ExploreOptions};
use slambench::run::PipelineRun;
use std::path::PathBuf;
use std::time::Duration;

/// A unique scratch state dir per test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slam-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_dataset(frames: usize) -> DatasetConfig {
    let mut dc = DatasetConfig::tiny_test();
    dc.frame_count = frames;
    dc
}

/// Distinct-but-valid configurations, keyed so every (client, slot)
/// pair maps to a different point of the space.
fn config_for(client: usize, slot: usize) -> KFusionConfig {
    let mut c = KFusionConfig::fast_test();
    c.volume_resolution = 32;
    c.pyramid_iterations = [1 + (client % 3), 1 + (slot % 2), 1];
    c
}

fn sweep_request(client: usize, slots: usize, frames: usize) -> CampaignRequest {
    CampaignRequest {
        algorithm: "kfusion".to_string(),
        dataset: tiny_dataset(frames),
        kind: CampaignKind::Sweep {
            configs: (0..slots).map(|j| config_for(client, j)).collect(),
        },
        priority: Priority::Batch,
        device: None,
    }
}

fn start_server(
    state_dir: &PathBuf,
    shards: usize,
    executors: usize,
    quantum: usize,
) -> (CampaignHub, slam_serve::ServeHandle) {
    let mut options = ServeOptions::new(state_dir);
    options.shards = shards;
    options.executors = executors;
    options.quantum = quantum;
    let hub = CampaignHub::start(options);
    let handle = serve(hub.clone(), "127.0.0.1:0").expect("loopback bind");
    (hub, handle)
}

/// Polls a campaign to completion, returning its outcome records.
fn drain_outcomes(client: Client, id: u64, total: usize) -> Vec<OutcomeRecord> {
    let mut records = Vec::new();
    while records.len() < total {
        let page: OutcomesPage = client
            .get(&format!(
                "/campaigns/{id}/outcomes?from={}&wait=1",
                records.len()
            ))
            .expect("server reachable")
            .json()
            .expect("outcomes page decodes");
        let stalled = page.records.is_empty();
        records.extend(page.records);
        if page.done || stalled && records.len() >= total {
            break;
        }
    }
    records
}

/// Serialises a run with `wall_time` zeroed: the one field that is
/// nondeterministic on fresh executions.
fn run_fingerprint(run: &PipelineRun) -> String {
    let mut normalized = run.clone();
    for frame in &mut normalized.frames {
        frame.wall_time = 0.0;
    }
    serde_json::to_string(&normalized).expect("run serialises")
}

#[test]
fn concurrent_clients_over_shards_match_a_serial_engine_bit_identically() {
    let clients = 4usize;
    let slots = 3usize;
    let frames = 4usize;
    let state = scratch_dir("concurrent");
    let (hub, handle) = start_server(&state, 2, 3, 2);
    let addr = handle.addr();

    // hammer the server from four concurrent clients
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let client = Client::new(addr);
            // xtask-allow: threading — reason: integration clients model independent processes; the exec pool is never entered from these threads
            std::thread::spawn(move || {
                let request = sweep_request(c, slots, frames);
                let submitted: Submitted = client
                    .post("/campaigns", &request)
                    .expect("server reachable")
                    .json()
                    .expect("submit decodes");
                assert_eq!(submitted.total, slots);
                drain_outcomes(client, submitted.id, submitted.total)
            })
        })
        .collect();
    let streamed: Vec<Vec<OutcomeRecord>> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    // the serial ground truth: one engine, no shards, no server
    let engine = EvalEngine::new();
    for (c, records) in streamed.iter().enumerate() {
        assert_eq!(records.len(), slots, "client {c} got every outcome");
        let dataset = SyntheticDataset::generate(&tiny_dataset(frames));
        let configs: Vec<KFusionConfig> = (0..slots).map(|j| config_for(c, j)).collect();
        let serial = engine
            .evaluate_batch(&dataset, &configs)
            .expect("serial batch evaluates");
        for (record, outcome) in records.iter().zip(&serial) {
            assert_eq!(record.status, OutcomeStatus::Done);
            let served = record.run.as_ref().expect("done record carries its run");
            let RunOutcome::Done(expected) = outcome else {
                panic!("serial outcome unexpectedly not Done");
            };
            assert_eq!(
                run_fingerprint(served),
                run_fingerprint(expected),
                "client {c} record {} diverges from the serial engine",
                record.index
            );
        }
    }

    // the stats surface agrees with the sharding story
    let stats: ServerStatsReport = Client::new(addr)
        .get("/stats")
        .expect("server reachable")
        .json()
        .expect("stats decode");
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.campaigns.len(), clients);
    handle.stop();
    hub.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn streamed_outcomes_match_polled_pages() {
    let state = scratch_dir("stream");
    let (hub, handle) = start_server(&state, 2, 2, 2);
    let client = Client::new(handle.addr());
    let submitted: Submitted = client
        .post("/campaigns", &sweep_request(0, 3, 3))
        .expect("server reachable")
        .json()
        .expect("submit decodes");
    // the chunked stream blocks until the campaign is terminal
    let lines = client
        .stream(&format!("/campaigns/{}/stream?from=0", submitted.id))
        .expect("stream completes");
    let polled = drain_outcomes(client, submitted.id, submitted.total);
    assert_eq!(lines.len(), polled.len());
    for (line, record) in lines.iter().zip(&polled) {
        assert_eq!(
            line,
            &serde_json::to_string(record).expect("record serialises"),
            "stream and page disagree at index {}",
            record.index
        );
    }
    handle.stop();
    hub.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn malformed_requests_get_typed_errors() {
    let state = scratch_dir("badreq");
    let (hub, handle) = start_server(&state, 1, 1, 2);
    let client = Client::new(handle.addr());

    // non-JSON body → 400 with a parse message
    let resp = client
        .post("/campaigns", &"{ this is not a campaign")
        .expect("server reachable");
    assert_eq!(resp.status, 400);
    let err: ErrorBody = resp.json().expect("error body decodes");
    assert!(
        err.error.contains("invalid campaign request"),
        "{}",
        err.error
    );

    // unknown algorithm → 400 listing every registered algorithm id
    let mut request = sweep_request(0, 1, 3);
    request.algorithm = "nonesuch".to_string();
    let resp = client
        .post("/campaigns", &request)
        .expect("server reachable");
    assert_eq!(resp.status, 400);
    let err: ErrorBody = resp.json().expect("error body decodes");
    for needle in ["nonesuch", "kfusion", "point-odometry"] {
        assert!(
            err.error.contains(needle),
            "{:?} missing {needle}",
            err.error
        );
    }

    // empty sweep → 400; the campaign id is burnt but nothing runs
    let mut request = sweep_request(0, 1, 3);
    request.kind = CampaignKind::Sweep { configs: vec![] };
    let resp = client
        .post("/campaigns", &request)
        .expect("server reachable");
    assert_eq!(resp.status, 400);

    // unknown campaign and unknown route → 404
    assert_eq!(client.get("/campaigns/999").expect("reachable").status, 404);
    assert_eq!(client.get("/no/such/route").expect("reachable").status, 404);
    handle.stop();
    hub.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancel_stops_a_campaign_mid_flight() {
    let state = scratch_dir("cancel");
    // quantum 1 + one executor: outcomes land one at a time, so the
    // cancel races only against single evaluations
    let (hub, handle) = start_server(&state, 1, 1, 1);
    let client = Client::new(handle.addr());
    let submitted: Submitted = client
        .post("/campaigns", &sweep_request(1, 8, 4))
        .expect("server reachable")
        .json()
        .expect("submit decodes");
    // wait until at least one outcome exists, then cancel
    let first: OutcomesPage = client
        .get(&format!(
            "/campaigns/{}/outcomes?from=0&wait=1",
            submitted.id
        ))
        .expect("server reachable")
        .json()
        .expect("page decodes");
    assert!(!first.records.is_empty(), "campaign started");
    let resp = client
        .delete(&format!("/campaigns/{}", submitted.id))
        .expect("server reachable");
    assert_eq!(resp.status, 200);
    let status: CampaignStatus = resp.json().expect("status decodes");
    assert!(
        matches!(
            status.phase,
            CampaignPhase::Cancelled | CampaignPhase::Running
        ),
        "cancel acknowledged, got {:?}",
        status.phase
    );
    // the campaign settles into Cancelled with a short outcome log
    let mut last = status;
    for _ in 0..600 {
        if last.phase.is_terminal() {
            break;
        }
        last = client
            .get(&format!("/campaigns/{}", submitted.id))
            .expect("server reachable")
            .json()
            .expect("status decodes");
    }
    assert_eq!(last.phase, CampaignPhase::Cancelled);
    assert!(
        last.completed < submitted.total,
        "cancel landed mid-campaign ({}/{})",
        last.completed,
        submitted.total
    );
    handle.stop();
    hub.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn killed_server_resumes_campaigns_byte_identically() {
    let state = scratch_dir("resume");
    let slots = 8usize;
    // first life: single executor, quantum 1 — the kill lands after the
    // first outcome, well before the campaign finishes
    let (hub, handle) = start_server(&state, 2, 1, 1);
    let client = Client::new(handle.addr());
    let submitted: Submitted = client
        .post("/campaigns", &sweep_request(2, slots, 4))
        .expect("server reachable")
        .json()
        .expect("submit decodes");
    let first: OutcomesPage = client
        .get(&format!(
            "/campaigns/{}/outcomes?from=0&wait=1",
            submitted.id
        ))
        .expect("server reachable")
        .json()
        .expect("page decodes");
    assert!(
        !first.records.is_empty(),
        "campaign started before the kill"
    );
    let pre_kill: Vec<String> = first
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serialises"))
        .collect();
    // kill: tear the server down mid-campaign
    handle.stop();
    hub.shutdown();

    // second life: same state dir; the campaign resumes under its id
    let (hub2, handle2) = start_server(&state, 2, 2, 2);
    let client2 = Client::new(handle2.addr());
    let records = drain_outcomes(client2, submitted.id, slots);
    assert_eq!(records.len(), slots, "resumed campaign ran to completion");
    let status: CampaignStatus = client2
        .get(&format!("/campaigns/{}", submitted.id))
        .expect("server reachable")
        .json()
        .expect("status decodes");
    assert_eq!(status.phase, CampaignPhase::Complete);
    // pre-kill outcomes replay byte-identically — wall_time included,
    // because the disk cache returns recorded runs verbatim
    for (i, expected) in pre_kill.iter().enumerate() {
        let replayed = serde_json::to_string(&records[i]).expect("record serialises");
        assert_eq!(&replayed, expected, "outcome {i} diverged across the kill");
    }
    handle2.stop();
    hub2.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

fn explore_request(budget: usize, seed: u64) -> CampaignRequest {
    CampaignRequest {
        algorithm: "kfusion".to_string(),
        dataset: tiny_dataset(3),
        kind: CampaignKind::Explore { budget, seed },
        priority: Priority::Batch,
        device: None,
    }
}

/// The records a served `Explore { budget, seed }` campaign must
/// stream: one direct `explore_until` call over its whole budget on a
/// fresh engine, with the fast learner profile the hub picks for a
/// small budget, under a kernel-thread budget of `threads`.
fn direct_exploration(budget: usize, seed: u64, threads: usize) -> Vec<String> {
    let dataset = SyntheticDataset::generate(&tiny_dataset(3));
    let mut learner = ActiveLearnerOptions::fast();
    learner.seed = seed;
    let options = ExploreOptions {
        budget,
        learner,
        ..ExploreOptions::default()
    };
    let (record, ended) = slam_exec::with_thread_budget(threads, || {
        explore_until(
            &EvalEngine::new(),
            &dataset,
            &odroid_xu3(),
            &options,
            budget,
        )
    });
    assert!(
        ended,
        "a whole-budget call runs the learner loop to its end"
    );
    record
        .into_iter()
        .enumerate()
        .map(|(index, eval)| json(&OutcomeRecord::from_recorded(index, eval)))
        .collect()
}

fn json(record: &OutcomeRecord) -> String {
    serde_json::to_string(record).expect("record serialises")
}

fn submit(client: &Client, request: &CampaignRequest) -> Submitted {
    client
        .post("/campaigns", request)
        .expect("server reachable")
        .json()
        .expect("submit decodes")
}

fn status_of(client: &Client, id: u64) -> CampaignStatus {
    client
        .get(&format!("/campaigns/{id}"))
        .expect("server reachable")
        .json()
        .expect("status decodes")
}

#[test]
fn explore_campaign_streams_the_records_of_one_direct_exploration() {
    let state = scratch_dir("explore-direct");
    let (budget, seed) = (12, 11);
    // quantum 1: every quantum re-runs the learner one batch further
    let (hub, handle) = start_server(&state, 2, 1, 1);
    let client = Client::new(handle.addr());
    let submitted = submit(&client, &explore_request(budget, seed));
    assert_eq!(submitted.total, budget);
    let streamed: Vec<String> = drain_outcomes(client, submitted.id, submitted.total)
        .iter()
        .map(json)
        .collect();
    assert_eq!(
        status_of(&client, submitted.id).phase,
        CampaignPhase::Complete
    );
    // the quanta replayed earlier slices from the engine's memory cache
    let stats = hub.stats_report();
    assert!(stats.merged.misses <= budget);
    assert!(stats.merged.hits > 0);
    handle.stop();
    hub.shutdown();
    for threads in [1, 2, 7] {
        assert_eq!(
            streamed,
            direct_exploration(budget, seed, threads),
            "{threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn explore_campaign_past_its_learner_schedule_completes() {
    let state = scratch_dir("explore-schedule");
    let (hub, handle) = start_server(&state, 2, 1, 4);
    let client = Client::new(handle.addr());
    // the fast profile's schedule: 10 initial samples + 3 batches of 3
    let submitted = submit(&client, &explore_request(22, 11));
    assert_eq!(submitted.total, 19, "the total is what the schedule yields");
    // poll for up to two minutes: a campaign that never completes fails
    // here instead of hanging the suite
    let mut status = status_of(&client, submitted.id);
    for _ in 0..2_400 {
        if status.phase.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        status = status_of(&client, submitted.id);
    }
    assert_eq!(
        status.phase,
        CampaignPhase::Complete,
        "stuck at {}/{}",
        status.completed,
        status.total
    );
    assert_eq!(status.completed, 19);
    handle.stop();
    hub.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn killed_server_resumes_an_exploration_from_the_disk_cache() {
    let state = scratch_dir("explore-resume");
    let (budget, seed) = (19, 5);
    // first life: one executor, quantum 1 — the kill lands after the
    // first page, at most one batch later
    let (hub, handle) = start_server(&state, 2, 1, 1);
    let client = Client::new(handle.addr());
    let submitted = submit(&client, &explore_request(budget, seed));
    let first: OutcomesPage = client
        .get(&format!(
            "/campaigns/{}/outcomes?from=0&wait=1",
            submitted.id
        ))
        .expect("server reachable")
        .json()
        .expect("page decodes");
    assert!(
        !first.records.is_empty(),
        "exploration started before the kill"
    );
    handle.stop();
    hub.shutdown();

    // second life: the same state dir resumes the campaign under its id
    let (hub2, handle2) = start_server(&state, 2, 1, 1);
    let client2 = Client::new(handle2.addr());
    let streamed: Vec<String> = drain_outcomes(client2, submitted.id, budget)
        .iter()
        .map(json)
        .collect();
    assert_eq!(
        status_of(&client2, submitted.id).phase,
        CampaignPhase::Complete
    );
    // the runs of the first life came back from the disk cache
    let stats = hub2.stats_report();
    assert!(
        stats.merged.disk_hits >= first.records.len(),
        "{} disk hits for {} pre-kill records",
        stats.merged.disk_hits,
        first.records.len()
    );
    assert!(stats.merged.misses <= budget - first.records.len());
    handle2.stop();
    hub2.shutdown();
    for (i, record) in first.records.iter().enumerate() {
        assert_eq!(
            json(record),
            streamed[i],
            "record {i} diverged across the kill"
        );
    }
    assert_eq!(streamed, direct_exploration(budget, seed, 2));
    let _ = std::fs::remove_dir_all(&state);
}
