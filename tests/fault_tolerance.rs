//! Fault-tolerant evaluation: injected run panics, deadlines, retry and
//! quarantine, disk-cache IO errors, and resuming a killed sweep from
//! the disk cache. Every fault here comes from a seeded [`FaultPlan`], so each
//! scenario is bit-reproducible at any thread count.

use slam_kfusion::{AlgoId, KFusionConfig};
use slam_power::devices::odroid_xu3;
use slam_power::fleet::phone_fleet;
use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
use slam_scene::noise::DepthNoiseModel;
use slambench::engine::{EvalEngine, RunOutcome};
use slambench::explore::{
    explore_until, explore_with_engine, measure, random_sweep_with_engine, ExploreOptions,
};
use slambench::fault::{Deadline, FaultPlan, FaultPolicy, MockRunClock, RetryPolicy};
use slambench::fleet::{fleet_speedups_with_engine, memory_capped_volume};
use slambench::suite::{run_suite_with_engine, standard_suite, SuiteError};
use slambench::{config_space::encode_for, ExploreOutcome};
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_dataset(frames: usize) -> SyntheticDataset {
    let mut dc = DatasetConfig::tiny_test();
    dc.frame_count = frames;
    dc.noise = DepthNoiseModel::ideal();
    SyntheticDataset::generate(&dc)
}

fn config_with_volume(vr: usize) -> KFusionConfig {
    let mut c = KFusionConfig::fast_test();
    c.volume_resolution = vr;
    c
}

/// A unique scratch directory per test (disk caches).
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slambench-ft-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// run isolation: a panicking run fails its slot, nothing else
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_fails_only_its_slot_and_engine_survives() {
    let dataset = tiny_dataset(3);
    let engine = EvalEngine::new().with_fault_plan(FaultPlan {
        panic_on_volume: vec![96],
        ..FaultPlan::default()
    });
    let configs = [
        config_with_volume(32),
        config_with_volume(96), // cursed
        config_with_volume(64),
    ];
    let outcomes = engine.evaluate_batch(&dataset, &configs).unwrap();
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes[0].is_done());
    assert!(outcomes[2].is_done());
    let q = outcomes[1].failure().unwrap();
    assert_eq!(q.config.volume_resolution, 96);
    assert_eq!(q.attempts, 1);
    assert!(q.cause.contains("injected persistent fault"));
    let stats = engine.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.misses, 3);

    // the mid-batch panic must not poison the engine: the same engine
    // keeps serving healthy configurations
    let again = engine.evaluate(&dataset, &config_with_volume(32));
    assert_eq!(again.frames.len(), 3);
    assert_eq!(engine.stats().hits, 1);
}

#[test]
fn batch_api_surfaces_a_failed_slot_as_a_typed_error() {
    let dataset = tiny_dataset(3);
    let engine = EvalEngine::new().with_fault_plan(FaultPlan {
        panic_on_volume: vec![96],
        ..FaultPlan::default()
    });
    let configs = [config_with_volume(32), config_with_volume(96)];
    let outcomes = engine.evaluate_batch(&dataset, &configs).unwrap();
    assert!(outcomes[0].is_done());
    let RunOutcome::Failed(q) = &outcomes[1] else {
        unreachable!("expected Failed, got {:?}", outcomes[1]);
    };
    assert_eq!(q.config.volume_resolution, 96);
    assert!(q.cause.contains("injected persistent fault"));
}

#[test]
fn quarantined_configs_fail_fast_on_later_requests() {
    let dataset = tiny_dataset(3);
    let engine = EvalEngine::new().with_fault_plan(FaultPlan {
        panic_on_volume: vec![96],
        ..FaultPlan::default()
    });
    let cursed = [config_with_volume(96)];
    let first = engine.evaluate_batch(&dataset, &cursed).unwrap();
    assert!(first[0].failure().is_some());
    assert_eq!(engine.stats().misses, 1);

    // the second request is answered from the quarantine record: no
    // execution, no retry, same typed outcome
    let second = engine.evaluate_batch(&dataset, &cursed).unwrap();
    assert!(second[0].failure().is_some());
    let stats = engine.stats();
    assert_eq!(stats.misses, 1, "quarantine must prevent re-execution");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(engine.quarantined().len(), 1);
}

// ---------------------------------------------------------------------------
// retry: transient faults recover deterministically
// ---------------------------------------------------------------------------

#[test]
fn transient_fault_recovers_via_retry_and_result_is_unaffected() {
    let dataset = tiny_dataset(3);
    let config = config_with_volume(32);
    let clean = EvalEngine::new().evaluate(&dataset, &config);

    // scan seeds for one whose first attempt panics and second succeeds;
    // each seed's behaviour is deterministic, so the scan is stable
    let mut recovered_seed = None;
    for seed in 0..64 {
        let engine = EvalEngine::new()
            .with_policy(FaultPolicy {
                retry: RetryPolicy::retries(1),
                ..FaultPolicy::default()
            })
            .with_fault_plan(FaultPlan {
                seed,
                transient_panic_rate: 0.5,
                ..FaultPlan::default()
            });
        let outcomes = engine
            .evaluate_batch(&dataset, std::slice::from_ref(&config))
            .unwrap();
        // retries == 1 alone also matches "retried and failed again";
        // demand the retry actually recovered the run
        if engine.stats().retries == 1 && outcomes[0].is_done() {
            let run = outcomes[0].run().unwrap();
            // the retried run is bit-identical to a fault-free one
            assert_eq!(run.ate.errors, clean.ate.errors);
            assert_eq!(engine.stats().failed, 0);
            recovered_seed = Some(seed);
            break;
        }
    }
    let seed = recovered_seed.unwrap();

    // same seed, fresh engine: the exact same fault pattern replays
    let engine = EvalEngine::new()
        .with_policy(FaultPolicy {
            retry: RetryPolicy::retries(1),
            ..FaultPolicy::default()
        })
        .with_fault_plan(FaultPlan {
            seed,
            transient_panic_rate: 0.5,
            ..FaultPlan::default()
        });
    let _ = engine.evaluate(&dataset, &config);
    assert_eq!(engine.stats().retries, 1);
}

#[test]
fn persistent_fault_exhausts_retries_and_counts_attempts() {
    let dataset = tiny_dataset(3);
    let engine = EvalEngine::new()
        .with_policy(FaultPolicy {
            retry: RetryPolicy::retries(2),
            ..FaultPolicy::default()
        })
        .with_fault_plan(FaultPlan {
            panic_on_volume: vec![96],
            ..FaultPlan::default()
        });
    let outcomes = engine
        .evaluate_batch(&dataset, &[config_with_volume(96)])
        .unwrap();
    let q = outcomes[0].failure().unwrap();
    assert_eq!(q.attempts, 3, "all allowed attempts must be consumed");
    let stats = engine.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.failed, 1);
}

// ---------------------------------------------------------------------------
// deadlines: runaway configurations are cut off deterministically
// ---------------------------------------------------------------------------

#[test]
fn wall_deadline_times_out_runs_deterministically_on_mock_clock() {
    let dataset = tiny_dataset(6);
    let make_engine = || {
        EvalEngine::new()
            .with_policy(FaultPolicy {
                deadline: Deadline::wall_ns(300),
                ..FaultPolicy::default()
            })
            .with_run_clock(Arc::new(MockRunClock { step_ns: 100 }))
    };
    let engine = make_engine();
    let outcomes = engine
        .evaluate_batch(&dataset, &[config_with_volume(32)])
        .unwrap();
    let RunOutcome::TimedOut(run) = &outcomes[0] else {
        unreachable!("expected TimedOut, got {:?}", outcomes[0]);
    };
    // per-run clock: one read at start + one per budget check, 100 ns
    // each → the check before frame 3 sees 300 ns elapsed
    assert_eq!(run.frames.len(), 3);
    assert_eq!(engine.stats().timed_out, 1);

    // timed-out runs are never cached: a later request re-evaluates
    let again = engine
        .evaluate_batch(&dataset, &[config_with_volume(32)])
        .unwrap();
    assert!(matches!(again[0], RunOutcome::TimedOut(_)));
    assert_eq!(engine.stats().misses, 2);
    assert_eq!(engine.stats().hits, 0);

    // a fresh engine with the same mock clock truncates identically,
    // even with the batch running other slots concurrently
    let batch = [
        config_with_volume(32),
        config_with_volume(64),
        config_with_volume(96),
    ];
    let concurrent = make_engine().evaluate_batch(&dataset, &batch).unwrap();
    for outcome in &concurrent {
        let RunOutcome::TimedOut(r) = outcome else {
            unreachable!("expected TimedOut, got {outcome:?}");
        };
        assert_eq!(r.frames.len(), 3);
    }
    assert_eq!(concurrent[0].run().unwrap().ate.errors, run.ate.errors);
}

#[test]
fn slow_run_injection_trips_the_deadline_only_for_targeted_volumes() {
    let dataset = tiny_dataset(6);
    let engine = EvalEngine::new()
        .with_policy(FaultPolicy {
            deadline: Deadline::wall_ns(2_000),
            ..FaultPolicy::default()
        })
        .with_run_clock(Arc::new(MockRunClock { step_ns: 100 }))
        .with_fault_plan(FaultPlan {
            slow_on_volume: vec![64],
            slow_frame_penalty_ns: 900,
            ..FaultPlan::default()
        });
    let outcomes = engine
        .evaluate_batch(&dataset, &[config_with_volume(64), config_with_volume(32)])
        .unwrap();
    // slowed: elapsed before frame k is k*(100+900) → cut at frame 2
    let RunOutcome::TimedOut(slowed) = &outcomes[0] else {
        unreachable!("expected TimedOut, got {:?}", outcomes[0]);
    };
    assert_eq!(slowed.frames.len(), 2);
    // untargeted volume: 5 checks * 100 ns stays inside the budget
    assert!(outcomes[1].is_done());
    assert_eq!(outcomes[1].run().unwrap().frames.len(), 6);
}

// ---------------------------------------------------------------------------
// disk-cache IO errors: degraded to misses, never fatal
// ---------------------------------------------------------------------------

#[test]
fn disk_io_errors_degrade_to_cache_misses() {
    let dataset = tiny_dataset(3);
    let config = config_with_volume(32);
    let dir = scratch_dir("diskerr");
    let faulty_plan = FaultPlan {
        seed: 5,
        disk_error_rate: 1.0,
        ..FaultPlan::default()
    };

    // every store fails: nothing lands on disk, results are unaffected
    let writer = EvalEngine::with_disk_cache(&dir).with_fault_plan(faulty_plan.clone());
    let first = writer.evaluate(&dataset, &config);
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) == 0,
        "injected store errors must suppress persistence"
    );

    // a healthy engine persists; a faulty reader then treats every load
    // as a miss and silently re-evaluates to the identical run
    let healthy = EvalEngine::with_disk_cache(&dir);
    let persisted = healthy.evaluate(&dataset, &config);
    assert_eq!(persisted.ate.errors, first.ate.errors);
    let reader = EvalEngine::with_disk_cache(&dir).with_fault_plan(faulty_plan);
    let reread = reader.evaluate(&dataset, &config);
    assert_eq!(reread.ate.errors, first.ate.errors);
    let stats = reader.stats();
    assert_eq!(
        stats.disk_hits, 0,
        "injected load errors must read as misses"
    );
    assert_eq!(stats.misses, 1);

    // without injection the same file serves a disk hit
    let clean_reader = EvalEngine::with_disk_cache(&dir);
    let _ = clean_reader.evaluate(&dataset, &config);
    assert_eq!(clean_reader.stats().disk_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// sensor dropout: an all-frames-lost run is a result, not a crash
// ---------------------------------------------------------------------------

#[test]
fn total_sensor_dropout_yields_lost_frames_and_worst_case_ate() {
    let mut dc = DatasetConfig::tiny_test();
    dc.frame_count = 5;
    dc.noise = DepthNoiseModel {
        dropout: 1.0, // every pixel reads as a hole
        ..DepthNoiseModel::ideal()
    };
    let dataset = SyntheticDataset::generate(&dc);
    let config = config_with_volume(64);
    let run = EvalEngine::new().evaluate(&dataset, &config);
    assert_eq!(run.frames.len(), 5);
    assert!(
        run.lost_frames >= 4,
        "blind frames must be flagged lost, got {}",
        run.lost_frames
    );
    assert!(run.ate.max.is_finite());

    // the exploration layer penalises the run with the worst-case error
    // bound instead of trusting its meaningless mid-run ATE
    let m = measure(
        &EvalEngine::new(),
        &dataset,
        &odroid_xu3(),
        &encode_for(AlgoId::KinectFusion, &config),
    );
    assert_eq!(m.max_ate_m, f64::from(m.config.volume_size));
}

// ---------------------------------------------------------------------------
// orchestrators: quarantines are reported, never fatal
// ---------------------------------------------------------------------------

#[test]
fn explore_reports_quarantined_configs_and_keeps_sweeping() {
    let dataset = tiny_dataset(3);
    // every volume except the default 256 is cursed: proposals landing
    // there quarantine, the sweep and the baseline still complete
    let engine = EvalEngine::new().with_fault_plan(FaultPlan {
        panic_on_volume: vec![32, 64, 96, 128, 192],
        ..FaultPlan::default()
    });
    let outcome = explore_with_engine(&engine, &dataset, &odroid_xu3(), &ExploreOptions::fast());
    assert!(
        !outcome.quarantined.is_empty(),
        "cursed volumes must be reported"
    );
    for m in &outcome.measured {
        assert_eq!(m.config.volume_resolution, 256);
    }
    for q in &outcome.quarantined {
        assert!(q.cause.contains("injected persistent fault"));
    }
    assert_eq!(outcome.default_config.config.volume_resolution, 256);
}

#[test]
fn random_sweep_reports_a_quarantined_draw_and_keeps_sweeping() {
    let dataset = tiny_dataset(3);
    let device = odroid_xu3();
    let plan = FaultPlan {
        panic_on_volume: vec![64],
        ..FaultPlan::default()
    };
    let (n, seed) = (12, 5);
    let engine = EvalEngine::new().with_fault_plan(plan.clone());
    let outcome = random_sweep_with_engine(&engine, &dataset, &device, n, seed);
    assert!(
        !outcome.quarantined.is_empty(),
        "a draw at the cursed volume must be reported"
    );
    for q in &outcome.quarantined {
        assert_eq!(q.config.volume_resolution, 64);
        assert!(q.cause.contains("injected persistent fault"));
    }
    for m in &outcome.measured {
        assert_ne!(m.config.volume_resolution, 64);
    }
    assert_eq!(outcome.measured.len() + outcome.quarantined.len(), n);
}

#[test]
fn fleet_skips_phones_behind_a_quarantined_run_with_reasons() {
    let dataset = tiny_dataset(4);
    let default_cfg = config_with_volume(192);
    let tuned_cfg = config_with_volume(32);
    let fleet = phone_fleet(2018);
    // curse every reduced capped volume: low-RAM phones lose their
    // default run and are skipped; full-volume phones report normally
    let engine = EvalEngine::new().with_fault_plan(FaultPlan {
        panic_on_volume: vec![64, 96, 128],
        ..FaultPlan::default()
    });
    let outcome = fleet_speedups_with_engine(&engine, &dataset, &default_cfg, &tuned_cfg, &fleet);
    assert_eq!(outcome.entries.len() + outcome.skipped.len(), fleet.len());
    let capped: usize = fleet
        .iter()
        .filter(|p| memory_capped_volume(192, p.ram_mb) < 192)
        .count();
    assert!(capped > 0, "fleet must contain memory-constrained phones");
    assert_eq!(outcome.skipped.len(), capped);
    for skip in &outcome.skipped {
        assert!(
            skip.reason.contains("quarantined"),
            "unexpected skip reason: {}",
            skip.reason
        );
    }
    for entry in &outcome.entries {
        assert_eq!(entry.default_volume, 192);
        assert!(entry.speedup > 0.0);
    }
}

#[test]
fn suite_reports_failed_cells_and_fills_the_rest() {
    let sequences = &standard_suite(slam_math::camera::PinholeCamera::tiny(), 4)[..2];
    let configs = vec![
        ("good".to_string(), config_with_volume(32)),
        ("bad".to_string(), config_with_volume(96)),
    ];
    let engine = EvalEngine::new().with_fault_plan(FaultPlan {
        panic_on_volume: vec![96],
        ..FaultPlan::default()
    });
    let report = run_suite_with_engine(&engine, sequences, &configs, &odroid_xu3());
    assert_eq!(report.cells.len(), 2);
    assert_eq!(report.failures.len(), 2);
    for seq in sequences {
        assert!(report.cell(&seq.name, "good").is_ok());
        let err = report.cell(&seq.name, "bad").unwrap_err();
        let SuiteError::CellFailed { cause, .. } = err else {
            unreachable!("expected CellFailed, got {err:?}");
        };
        assert!(cause.contains("injected persistent fault"));
    }
    assert!(matches!(
        report.cell("no/such", "good"),
        Err(SuiteError::NoSuchCell { .. })
    ));
}

// ---------------------------------------------------------------------------
// resume: a killed sweep run again on the same disk cache is bit-identical
// ---------------------------------------------------------------------------

/// The kernel-thread budgets the resumed sweeps run under.
const THREAD_BUDGETS: [usize; 3] = [1, 2, 7];

#[test]
fn suspended_explore_resumes_bit_identically() {
    let dataset = tiny_dataset(3);
    let device = odroid_xu3();
    let options = ExploreOptions::fast();
    let json = |o: &ExploreOutcome| serde_json::to_string(o).unwrap();

    // the uninterrupted reference sweep
    let reference = json(&explore_with_engine(
        &EvalEngine::new(),
        &dataset,
        &device,
        &options,
    ));

    for threads in THREAD_BUDGETS {
        let dir = scratch_dir(&format!("resume-explore-{threads}"));
        slam_exec::with_thread_budget(threads, || {
            // session 1 "dies" at the first batch boundary past 5
            // evaluations, leaving only its disk-cache entries behind
            let (record, ended) = explore_until(
                &EvalEngine::with_disk_cache(&dir),
                &dataset,
                &device,
                &options,
                5,
            );
            let completed = record.len();
            assert!(!ended);
            assert!(completed >= 5 && completed < options.budget);

            // session 2: a fresh engine (the process was killed) over the
            // same cache runs the whole exploration again
            let engine2 = EvalEngine::with_disk_cache(&dir);
            let resumed = explore_with_engine(&engine2, &dataset, &device, &options);
            // every finished run is a disk hit; only the remainder (plus
            // the default baseline) may execute
            assert_eq!(engine2.stats().disk_hits, completed, "{threads} threads");
            assert!(engine2.stats().misses <= options.budget - completed + 1);
            assert_eq!(json(&resumed), reference, "{threads} threads");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn suspended_random_sweep_resumes_bit_identically_across_failures() {
    let dataset = tiny_dataset(3);
    let device = odroid_xu3();
    let plan = FaultPlan {
        panic_on_volume: vec![96, 128],
        ..FaultPlan::default()
    };
    let (n, seed) = (10, 77);
    let engine = || EvalEngine::new().with_fault_plan(plan.clone());
    let json = |o: &slambench::RandomSweepOutcome| serde_json::to_string(o).unwrap();

    // uninterrupted reference under the same fault plan
    let reference = random_sweep_with_engine(&engine(), &dataset, &device, n, seed);
    assert!(!reference.quarantined.is_empty(), "the plan must bite");

    for threads in THREAD_BUDGETS {
        let dir = scratch_dir(&format!("resume-random-{threads}"));
        let on_disk = || EvalEngine::with_disk_cache(&dir).with_fault_plan(plan.clone());
        slam_exec::with_thread_budget(threads, || {
            // session 1 is killed after the first 4 draws: a sweep of the
            // same seed draws the same prefix
            let first = random_sweep_with_engine(&on_disk(), &dataset, &device, 4, seed);
            let finished = first.measured.len();

            // session 2 resumes on a fresh engine over the same cache: the
            // finished draws are disk hits, a quarantined draw fails again
            let engine2 = on_disk();
            let resumed = random_sweep_with_engine(&engine2, &dataset, &device, n, seed);
            assert_eq!(engine2.stats().disk_hits, finished, "{threads} threads");
            assert_eq!(json(&resumed), json(&reference), "{threads} threads");
            assert_eq!(resumed.measured.len() + resumed.quarantined.len(), n);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
