//! Checkpoint/resume for long evaluation sweeps.
//!
//! A multi-hour design-space exploration killed at evaluation 900 of
//! 1000 should not restart from zero. The checkpointed sweep drivers
//! ([`explore_checkpointed`](crate::explore::explore_checkpointed),
//! [`random_sweep_checkpointed`](crate::explore::random_sweep_checkpointed))
//! atomically write a JSON [`SweepCheckpoint`] under
//! `results/checkpoints/` every N evaluations; on resume the recorded
//! evaluations are replayed through the same deterministic loop —
//! verified bitwise against what the loop re-proposes — so the final
//! outcome is bit-identical to an uninterrupted sweep with the same
//! seed, at any thread count.
//!
//! Checkpoint IO is best-effort in the same spirit as the engine's disk
//! cache: a missing, corrupt, truncated, or metadata-mismatched
//! checkpoint is ignored and the sweep starts fresh; a failed save only
//! costs resume granularity. Writes go through a temp-file + rename so
//! a crash mid-write can never leave a half-written checkpoint under
//! the final name.

use crate::explore::{MeasuredConfig, FAILED_OBJECTIVES};
use crate::fault::QuarantinedConfig;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Where, how often, and whether to resume a checkpointed sweep.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding checkpoint files (default
    /// `results/checkpoints`).
    pub dir: PathBuf,
    /// File stem for this sweep's checkpoint (one sweep = one file).
    pub label: String,
    /// Checkpoint every N completed evaluations (minimum 1).
    pub every: usize,
    /// Whether to load an existing checkpoint before starting.
    pub resume: bool,
    /// Stop cleanly once at least this many evaluations are recorded
    /// (checked at batch boundaries) — the test hook that simulates a
    /// killed sweep without killing the process. `None` runs to
    /// completion.
    pub stop_after: Option<usize>,
}

impl CheckpointOptions {
    /// Defaults: `results/checkpoints/<label>.json`, checkpoint every 8
    /// evaluations, resume enabled, no stop.
    pub fn new(label: impl Into<String>) -> CheckpointOptions {
        CheckpointOptions {
            dir: PathBuf::from("results/checkpoints"),
            label: label.into(),
            every: 8,
            resume: true,
            stop_after: None,
        }
    }

    /// The checkpoint file path for this sweep.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.json", self.label))
    }
}

/// One recorded evaluation, in evaluation order. Failures are recorded
/// too: replay must feed the learner exactly what the original loop fed
/// it, including the dummy objectives of quarantined slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecordedEval {
    /// A successful (possibly deadline-degraded) measurement.
    Measured(MeasuredConfig),
    /// A quarantined evaluation; the learner saw
    /// [`FAILED_OBJECTIVES`](crate::explore)-style dummy objectives.
    Failed {
        /// The encoded parameter vector that was proposed.
        x: Vec<f64>,
        /// Why the engine gave up on it.
        quarantined: QuarantinedConfig,
    },
}

impl RecordedEval {
    /// The proposal vector this evaluation answered.
    pub fn x(&self) -> &[f64] {
        match self {
            RecordedEval::Measured(m) => &m.x,
            RecordedEval::Failed { x, .. } => x,
        }
    }

    /// The objectives the learner was fed for this evaluation.
    pub fn objectives(&self) -> Vec<f64> {
        match self {
            RecordedEval::Measured(m) => m.objectives(),
            RecordedEval::Failed { .. } => FAILED_OBJECTIVES.to_vec(),
        }
    }
}

/// The persisted state of one sweep: identifying metadata plus every
/// completed evaluation. Resume validates the metadata before trusting
/// the record — a checkpoint from a different seed, budget, dataset,
/// device, or thread knob is silently ignored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Which sweep driver wrote this (`"explore"`, `"random_sweep"`).
    pub kind: String,
    /// Stable id of the algorithm swept
    /// ([`AlgoId::id`](slam_kfusion::AlgoId::id)). Defaults to the
    /// KinectFusion id so pre-algorithm checkpoints keep resuming
    /// KinectFusion sweeps and are rejected by any other algorithm.
    #[serde(default = "default_algorithm")]
    pub algorithm: String,
    /// The sweep's RNG seed.
    pub seed: u64,
    /// Total evaluation budget of the sweep.
    pub budget: usize,
    /// [`dataset_fingerprint`](crate::engine::dataset_fingerprint) of
    /// the dataset swept over.
    pub dataset_fingerprint: u64,
    /// Target device name.
    pub device: String,
    /// Kernel thread knob the sweep measures with.
    pub threads: usize,
    /// Evaluations completed so far, in evaluation order.
    pub completed: Vec<RecordedEval>,
}

fn default_algorithm() -> String {
    slam_kfusion::AlgoId::KinectFusion.id().to_string()
}

impl SweepCheckpoint {
    /// Whether this checkpoint's identifying metadata matches `meta`
    /// (everything except `completed`).
    pub fn matches(&self, meta: &SweepCheckpoint) -> bool {
        self.kind == meta.kind
            && self.algorithm == meta.algorithm
            && self.seed == meta.seed
            && self.budget == meta.budget
            && self.dataset_fingerprint == meta.dataset_fingerprint
            && self.device == meta.device
            && self.threads == meta.threads
    }

    /// A copy of this checkpoint's metadata carrying `completed`.
    pub fn with_completed(&self, completed: Vec<RecordedEval>) -> SweepCheckpoint {
        SweepCheckpoint {
            completed,
            ..self.clone()
        }
    }
}

/// Loads any JSON-persisted state, tolerantly: any IO or parse failure
/// reads as "no state". The generic primitive under
/// [`load_checkpoint`]; other persistence layers (the `slam-serve`
/// campaign store) build on it so every resume path shares one
/// tolerance policy.
pub fn load_json<T: serde::Deserialize>(path: &Path) -> Option<T> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Atomically persists any serialisable state (write temp file, then
/// rename). Best-effort: returns whether the save landed; a failed
/// save is not an error, it only costs resume granularity. The generic
/// primitive under [`save_checkpoint`].
pub fn save_json_atomic<T: Serialize>(path: &Path, value: &T) -> bool {
    let Ok(text) = serde_json::to_string(value) else {
        return false;
    };
    let Some(dir) = path.parent() else {
        return false;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, text).is_err() {
        return false;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

/// Loads a checkpoint, tolerantly: any IO or parse failure reads as "no
/// checkpoint".
pub fn load_checkpoint(path: &Path) -> Option<SweepCheckpoint> {
    load_json(path)
}

/// Atomically persists a checkpoint (write temp file, then rename).
/// Best-effort: returns whether the save landed; a failed save is not
/// an error, it only costs resume granularity.
pub fn save_checkpoint(path: &Path, checkpoint: &SweepCheckpoint) -> bool {
    save_json_atomic(path, checkpoint)
}

/// How a checkpointed sweep session ended.
#[derive(Debug)]
pub enum SweepProgress<T> {
    /// The sweep ran to completion.
    Complete(T),
    /// The session stopped at a batch boundary (the
    /// [`CheckpointOptions::stop_after`] hook); the checkpoint at
    /// `path` holds `completed` evaluations and a later session with
    /// `resume: true` continues from it.
    Suspended {
        /// Evaluations recorded so far.
        completed: usize,
        /// The checkpoint file to resume from.
        path: PathBuf,
    },
}

impl<T> SweepProgress<T> {
    /// The completed outcome, if the sweep finished.
    pub fn complete(self) -> Option<T> {
        match self {
            SweepProgress::Complete(outcome) => Some(outcome),
            SweepProgress::Suspended { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SweepCheckpoint {
        SweepCheckpoint {
            kind: "explore".to_string(),
            algorithm: slam_kfusion::AlgoId::KinectFusion.id().to_string(),
            seed: 7,
            budget: 12,
            dataset_fingerprint: 0xfeed,
            device: "xu3".to_string(),
            threads: 0,
            completed: Vec::new(),
        }
    }

    #[test]
    fn metadata_match_ignores_completed() {
        let mut a = meta();
        a.completed = Vec::new();
        let b = meta().with_completed(vec![RecordedEval::Failed {
            x: vec![1.0],
            quarantined: QuarantinedConfig {
                config: slam_kfusion::KFusionConfig::fast_test(),
                attempts: 1,
                cause: "injected".to_string(),
            },
        }]);
        assert!(a.matches(&b));
        let mut c = meta();
        c.seed = 8;
        assert!(!a.matches(&c));
        let mut d = meta();
        d.device = "pi2".to_string();
        assert!(!a.matches(&d));
        let mut e = meta();
        e.algorithm = slam_kfusion::AlgoId::PointOdometry.id().to_string();
        assert!(!a.matches(&e));
    }

    #[test]
    fn pre_algorithm_checkpoints_default_to_kfusion() {
        // a v1 checkpoint JSON has no `algorithm` field
        let cp = meta().with_completed(Vec::new());
        let json = serde_json::to_string(&cp).unwrap();
        let v1 = json.replace("\"algorithm\":\"kfusion\",", "");
        assert_ne!(json, v1, "test must actually strip the field");
        let back: SweepCheckpoint = serde_json::from_str(&v1).unwrap();
        assert_eq!(back.algorithm, "kfusion");
        assert!(back.matches(&meta()));
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join(format!("slambench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("unit.json");
        assert!(load_checkpoint(&path).is_none());
        let cp = meta().with_completed(Vec::new());
        assert!(save_checkpoint(&path, &cp));
        let back = load_checkpoint(&path);
        assert!(back.is_some_and(|b| b.matches(&meta())));
        // corrupt file reads as no checkpoint
        std::fs::write(&path, "{ not json").ok();
        assert!(load_checkpoint(&path).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_evals_replay_dummy_objectives() {
        let r = RecordedEval::Failed {
            x: vec![0.5, 0.25],
            quarantined: QuarantinedConfig {
                config: slam_kfusion::KFusionConfig::fast_test(),
                attempts: 2,
                cause: "injected".to_string(),
            },
        };
        assert_eq!(r.x(), &[0.5, 0.25]);
        assert_eq!(r.objectives(), FAILED_OBJECTIVES.to_vec());
    }

    /// SplitMix64 (Steele, Lea & Flood 2014): a tiny seeded generator.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    #[test]
    fn mutated_checkpoints_load_as_none_or_round_trip() {
        use crate::engine::EvalEngine;
        use crate::explore::random_sweep_checkpointed;
        use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
        let dir = std::env::temp_dir().join(format!("slambench-ckpt-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // a real checkpoint, as a sweep writes it
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = 3;
        let dataset = SyntheticDataset::generate(&dc);
        let mut ckpt = CheckpointOptions::new("seed");
        ckpt.dir = dir.clone();
        let device = slam_power::devices::odroid_xu3();
        let swept = random_sweep_checkpointed(&EvalEngine::new(), &dataset, &device, 3, 5, &ckpt);
        assert!(swept.complete().is_some());
        let seed = std::fs::read(ckpt.path()).unwrap();
        assert_eq!(load_checkpoint(&ckpt.path()).unwrap().completed.len(), 3);

        // values a decoder must reject or carry through a re-save intact
        const SPLICES: &[&str] = &[
            "-1",
            "1e400",
            "18446744073709551616",
            "null",
            "\"\\ud800\"",
            "[]",
            "{}",
        ];
        let (mutant_path, resave_path) = (dir.join("mutant.json"), dir.join("resave.json"));
        let mut rng = SplitMix64(0xc4ec_4901);
        let mut accepted = 0usize;
        for case in 0..20_000 {
            let mut bytes = seed.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() + 1);
                match rng.below(5) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes.insert(at, rng.below(256) as u8),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => bytes.truncate(at),
                    _ => {
                        // replace the text from `at` to the next
                        // delimiter (a scalar value, often) by a splice
                        let end = bytes[at..]
                            .iter()
                            .position(|b| b",}]".contains(b))
                            .map_or(bytes.len(), |n| at + n);
                        let splice = SPLICES[rng.below(SPLICES.len())].bytes();
                        bytes.splice(at..end, splice);
                    }
                }
            }
            std::fs::write(&mutant_path, &bytes).unwrap();
            let loaded = std::panic::catch_unwind(|| load_checkpoint(&mutant_path));
            assert!(loaded.is_ok(), "mutant {case} panicked the loader");
            let Ok(Some(cp)) = loaded else { continue };
            accepted += 1;
            assert!(
                save_checkpoint(&resave_path, &cp),
                "mutant {case}: re-save failed"
            );
            let back = load_checkpoint(&resave_path);
            assert!(
                back.as_ref()
                    .is_some_and(|b| b.matches(&cp) && b.completed.len() == cp.completed.len()),
                "mutant {case} was accepted but does not round-trip"
            );
        }
        // byte flips inside strings and numbers survive: the loop
        // exercises the accept path
        assert!(accepted > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
