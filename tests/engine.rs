//! The evaluation engine's contract, end to end.
//!
//! * **Batch = serial, bitwise.** `evaluate_batch` must return
//!   bit-identical `PipelineRun`s versus one-at-a-time serial evaluation,
//!   in any batch order and at any thread budget. The *only* field
//!   allowed to differ is `FrameRecord::wall_time` (host wall-clock).
//! * **Cache hits are clones.** A repeated request returns the cached
//!   struct verbatim — including its recorded wall times.
//! * **The disk cache is safe.** Entries round-trip across engine
//!   instances, and corrupt, truncated or edited files degrade to
//!   re-evaluation, never to a panic or a wrong answer (a seeded
//!   mutation loop over a real entry pins this).

use slam_kfusion::{AlgoId, KFusionConfig};
use slambench::engine::{EvalEngine, EvalError};
use slambench::run::PipelineRun;
use slambench_suite::test_dataset;

/// A canonical JSON form with the one nondeterministic field zeroed, so
/// equality of strings is bit-equality of everything else (serde_json is
/// built with `float_roundtrip`).
fn canon(run: &PipelineRun) -> String {
    let mut clean = run.clone();
    for frame in &mut clean.frames {
        frame.wall_time = 0.0;
    }
    serde_json::to_string(&clean).expect("serialisable run")
}

/// One batch through a fresh engine, every slot unwrapped to its run.
fn batch_runs(
    dataset: &slam_scene::dataset::SyntheticDataset,
    configs: &[KFusionConfig],
) -> Vec<PipelineRun> {
    EvalEngine::new()
        .evaluate_batch(dataset, configs)
        .expect("a valid batch")
        .iter()
        .map(|outcome| outcome.run().cloned().expect("every slot ran"))
        .collect()
}

/// Five distinct configurations spanning the knobs the cache key covers.
fn batch_configs() -> Vec<KFusionConfig> {
    let base = KFusionConfig::fast_test();
    let mut out = vec![base.clone()];
    let mut a = base.clone();
    a.volume_resolution = 32;
    out.push(a);
    let mut b = base.clone();
    b.compute_size_ratio = 2;
    out.push(b);
    let mut c = base.clone();
    c.pyramid_iterations = [3, 2, 1];
    out.push(c);
    let mut d = base;
    d.integration_rate = 2;
    out.push(d);
    out
}

/// A batch whose first run costs over ten times each of the others (a
/// 128³ volume at full resolution against 32³ volumes at a quarter):
/// with more than one thread the cheap runs finish early and the
/// waiting caller helps the tail run's kernel bands.
fn mixed_cost_configs() -> Vec<KFusionConfig> {
    let mut heavy = KFusionConfig::fast_test();
    heavy.volume_resolution = 128;
    let mut out = vec![heavy];
    for iterations in [[4, 3, 2], [3, 2, 1], [2, 1, 1]] {
        let mut cheap = KFusionConfig::fast_test();
        cheap.volume_resolution = 32;
        cheap.compute_size_ratio = 4;
        cheap.pyramid_iterations = iterations;
        out.push(cheap);
    }
    out
}

/// Batch evaluation of `configs` equals one-at-a-time single-threaded
/// evaluation at thread budgets 1, 2 and 7, unbudgeted, and in the
/// batch order `order` (indices into `configs`, duplicates allowed).
fn assert_batch_matches_serial(
    dataset: &slam_scene::dataset::SyntheticDataset,
    configs: &[KFusionConfig],
    order: &[usize],
) {
    // serial reference: one at a time, single-threaded
    let reference: Vec<String> = slam_exec::with_thread_budget(1, || {
        configs
            .iter()
            .map(|c| canon(&EvalEngine::new().evaluate(dataset, c)))
            .collect()
    });

    for budget in [1usize, 2, 7] {
        let runs = slam_exec::with_thread_budget(budget, || batch_runs(dataset, configs));
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                canon(run),
                reference[i],
                "run {i} diverged at thread budget {budget}"
            );
        }
    }

    // any batch order, including in-batch duplicates
    let shuffled: Vec<KFusionConfig> = order.iter().map(|&i| configs[i].clone()).collect();
    let runs = batch_runs(dataset, &shuffled);
    for (slot, (&i, run)) in order.iter().zip(&runs).enumerate() {
        assert_eq!(
            canon(run),
            reference[i],
            "shuffled slot {slot} (config {i}) diverged"
        );
    }
}

#[test]
fn batch_is_bit_identical_to_serial_at_any_thread_budget_and_order() {
    let dataset = test_dataset(4);
    assert_batch_matches_serial(&dataset, &batch_configs(), &[4, 2, 0, 3, 1, 2, 2]);
    // the heavy run first (claimed by the caller) and last (likely
    // claimed by a worker and helped by the waiting caller)
    assert_batch_matches_serial(&dataset, &mixed_cost_configs(), &[1, 2, 3, 0, 2]);
}

#[test]
fn cache_hit_returns_the_identical_struct() {
    let dataset = test_dataset(3);
    let engine = EvalEngine::new();
    let config = KFusionConfig::fast_test();
    let first = engine.evaluate(&dataset, &config);
    let second = engine.evaluate(&dataset, &config);
    // full equality, wall times included: a hit is a clone, not a re-run
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
    assert_eq!(engine.stats().hits, 1);
    assert_eq!(engine.stats().misses, 1);
}

/// A scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slambench-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_cache_round_trips_across_engine_instances() {
    let dir = scratch_dir("roundtrip");
    let dataset = test_dataset(3);
    let config = KFusionConfig::fast_test();

    let writer = EvalEngine::with_disk_cache(&dir);
    let first = writer.evaluate(&dataset, &config);
    assert_eq!(writer.stats().misses, 1);

    let reader = EvalEngine::with_disk_cache(&dir);
    assert!(reader.is_cached(&dataset, &config));
    let second = reader.evaluate(&dataset, &config);
    let stats = reader.stats();
    assert_eq!(stats.misses, 0, "disk entry must serve the request");
    assert_eq!(stats.disk_hits + stats.hits, 1);
    // byte-identical, wall times included: the run was persisted whole
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );

    // a different config is still a miss
    let mut other = config.clone();
    other.volume_resolution = 32;
    assert!(!reader.is_cached(&dataset, &other));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_truncated_disk_entries_degrade_to_misses() {
    let dir = scratch_dir("corrupt");
    let dataset = test_dataset(3);
    let config = KFusionConfig::fast_test();

    let writer = EvalEngine::with_disk_cache(&dir);
    let reference = writer.evaluate(&dataset, &config);

    for (label, mangle) in [
        ("garbage", b"not json at all {{{".to_vec() as Vec<u8>),
        ("empty", Vec::new()),
    ] {
        for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
            std::fs::write(entry.expect("dir entry").path(), &mangle).expect("writable");
        }
        let reader = EvalEngine::with_disk_cache(&dir);
        let run = reader.evaluate(&dataset, &config); // must not panic
        assert_eq!(
            reader.stats().misses,
            1,
            "{label}: a bad file must read as a miss"
        );
        assert_eq!(
            canon(&run),
            canon(&reference),
            "{label}: re-evaluation diverged"
        );
    }

    // truncation: chop a freshly persisted valid entry in half
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("readable");
        std::fs::write(&path, &text[..text.len() / 2]).expect("writable");
    }
    let reader = EvalEngine::with_disk_cache(&dir);
    let run = reader.evaluate(&dataset, &config);
    assert_eq!(
        reader.stats().misses,
        1,
        "truncated file must read as a miss"
    );
    assert_eq!(canon(&run), canon(&reference));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_errors_surface_without_evaluating() {
    let dataset = test_dataset(3);
    let engine = EvalEngine::new();
    let mut bad = KFusionConfig::fast_test();
    bad.volume_resolution = 7; // below the [16, 1024] range
    let err = engine
        .evaluate_batch(&dataset, &[KFusionConfig::fast_test(), bad])
        .expect_err("invalid config must be rejected");
    assert!(matches!(err, EvalError::InvalidConfig(_)));
    assert_eq!(
        engine.stats().requests(),
        0,
        "validation failure must reject the whole batch before any run"
    );

    let empty = test_dataset(0);
    let err = engine
        .evaluate_batch(&empty, &[KFusionConfig::fast_test()])
        .expect_err("empty dataset must be rejected");
    assert_eq!(err, EvalError::EmptyDataset);
}

#[test]
fn algorithms_never_share_or_alias_cache_entries() {
    let dir = scratch_dir("algo-keys");
    let dataset = test_dataset(3);
    let config = KFusionConfig::fast_test();

    // the same (dataset, config) evaluated by both algorithms through a
    // SHARED disk-cache directory
    let kfusion = EvalEngine::with_disk_cache(&dir).with_algorithm(AlgoId::KinectFusion);
    let kf_run = kfusion.evaluate(&dataset, &config);
    assert_eq!(kfusion.stats().misses, 1);

    let odometry = EvalEngine::with_disk_cache(&dir).with_algorithm(AlgoId::PointOdometry);
    assert!(
        !odometry.is_cached(&dataset, &config),
        "a KinectFusion entry must never answer a point-odometry request"
    );
    let odo_run = odometry.evaluate(&dataset, &config);
    assert_eq!(
        odometry.stats().misses,
        1,
        "the odometry engine must evaluate, not alias the KinectFusion entry"
    );

    // two algorithms, two distinct files under the same directory
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(files.len(), 2, "each algorithm persists its own entry");

    // the runs really are different computations
    assert_eq!(kf_run.algorithm, AlgoId::KinectFusion);
    assert_eq!(odo_run.algorithm, AlgoId::PointOdometry);
    assert_ne!(
        canon(&kf_run),
        canon(&odo_run),
        "the two algorithms must not produce bit-identical runs"
    );

    // fresh engines over the shared directory each warm-start from their
    // own entry
    for (algo, reference) in [
        (AlgoId::KinectFusion, &kf_run),
        (AlgoId::PointOdometry, &odo_run),
    ] {
        let reader = EvalEngine::with_disk_cache(&dir).with_algorithm(algo);
        assert!(reader.is_cached(&dataset, &config), "{algo}");
        let run = reader.evaluate(&dataset, &config);
        assert_eq!(reader.stats().misses, 0, "{algo}: disk entry must serve");
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            serde_json::to_string(reference).unwrap(),
            "{algo}: the persisted run must round-trip whole"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_v1_disk_entries_read_as_misses_not_aliased_hits() {
    let dir = scratch_dir("legacy-v1");
    let dataset = test_dataset(3);
    let config = KFusionConfig::fast_test();

    let writer = EvalEngine::with_disk_cache(&dir);
    let reference = writer.evaluate(&dataset, &config);

    // rewrite every entry as a version-1 file: no `version`, no
    // `algorithm` — the pre-abstraction layout
    let strip = |text: &str, field: &str| -> String {
        let start = text
            .find(&format!("\"{field}\":"))
            .unwrap_or_else(|| panic!("entry has no {field}"));
        let end = start + text[start..].find(',').expect("not the last field") + 1;
        format!("{}{}", &text[..start], &text[end..])
    };
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("readable");
        let legacy = strip(&strip(&text, "version"), "algorithm");
        std::fs::write(&path, legacy).expect("writable");
    }

    let reader = EvalEngine::with_disk_cache(&dir);
    let run = reader.evaluate(&dataset, &config); // must not panic
    assert_eq!(
        reader.stats().misses,
        1,
        "a v1 entry must re-key as a miss, never alias"
    );
    assert_eq!(canon(&run), canon(&reference));

    let _ = std::fs::remove_dir_all(&dir);
}

/// SplitMix64: the seeded generator of the mutation loop below.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[test]
fn mutated_disk_entries_read_as_misses_or_the_identical_run() {
    let dir = scratch_dir("mutants");
    let dataset = test_dataset(3);
    let config = KFusionConfig::fast_test();
    let reference = EvalEngine::with_disk_cache(&dir).evaluate(&dataset, &config);
    let reference_json = serde_json::to_string(&reference).unwrap();
    let path = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .next()
        .expect("one persisted entry")
        .expect("dir entry")
        .path();
    let pristine = std::fs::read(&path).expect("readable");
    let run_at = pristine
        .windows(6)
        .position(|w| w == b"\"run\":")
        .expect("the entry holds a run");
    let run_digits: Vec<usize> = (run_at..pristine.len())
        .filter(|&i| pristine[i].is_ascii_digit())
        .collect();

    // values a decoder must reject or carry through intact
    const SPLICES: &[&str] = &[
        "-1",
        "1e400",
        "18446744073709551616",
        "null",
        "\"\\ud800\"",
        "[]",
        "{}",
    ];
    const KINDS: usize = 6;
    let mut rng = SplitMix64(0xd15c_ac4e);
    let (mut hits, mut misses, mut reruns) = ([0usize; KINDS], [0usize; KINDS], 0usize);
    for case in 0..20_000 {
        let kind = case % KINDS;
        let mut bytes = pristine.clone();
        let at = rng.below(bytes.len());
        match kind {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 => {
                let at = run_digits[rng.below(run_digits.len())];
                bytes[at] = b'0' + (bytes[at] - b'0' + 1 + rng.below(9) as u8) % 10;
            }
            3 => bytes.insert(at, rng.below(256) as u8),
            4 => {
                bytes.remove(at);
            }
            _ => {
                // replace the text from `at` to the next delimiter (a
                // scalar value, often) by a splice
                let end = bytes[at..]
                    .iter()
                    .position(|b| b",}]".contains(b))
                    .map_or(bytes.len(), |n| at + n);
                let splice = SPLICES[rng.below(SPLICES.len())].bytes();
                bytes.splice(at..end, splice);
            }
        }
        std::fs::write(&path, &bytes).expect("writable");
        let reader = EvalEngine::with_disk_cache(&dir);
        let load = std::panic::AssertUnwindSafe(|| reader.is_cached(&dataset, &config));
        let Ok(loaded) = std::panic::catch_unwind(load) else {
            panic!("mutant {case} (kind {kind}) panicked the load");
        };
        if loaded {
            // accepted: it must be the very run that was persisted
            hits[kind] += 1;
            let run = reader.evaluate(&dataset, &config);
            assert_eq!(reader.stats().misses, 0);
            assert_eq!(
                serde_json::to_string(&run).unwrap(),
                reference_json,
                "mutant {case} (kind {kind}) was served as a different run"
            );
        } else {
            // a miss re-runs the pipeline, which never reads the file: a
            // sample of the misses checks the re-run
            misses[kind] += 1;
            if misses[kind] % 200 == 1 {
                let run = reader.evaluate(&dataset, &config);
                assert_eq!(reader.stats().misses, 1, "mutant {case} must re-run");
                assert_eq!(canon(&run), canon(&reference), "mutant {case} re-run");
                reruns += 1;
            }
        }
    }
    // every kind of mutation breaks the entry most of the time (a digit
    // bump inside the run always changes it unless the bumped number
    // parses to the same value)
    assert!(
        misses.iter().all(|&m| m > 0),
        "misses {misses:?}, hits {hits:?}"
    );
    assert_eq!(hits[1], 0, "a truncated entry was accepted");
    assert!(reruns >= KINDS);

    let _ = std::fs::remove_dir_all(&dir);
}
