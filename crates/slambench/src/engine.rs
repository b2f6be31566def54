//! The unified evaluation engine: one memoising, batch-parallel service
//! behind every orchestrator.
//!
//! The paper's expensive half is not one KinectFusion run but *hundreds*
//! of them: the HyperMapper active-learning loop (Figure 2), the
//! incremental co-design step, and the 83-phone fleet replay (Figure 3)
//! all re-evaluate configurations. [`EvalEngine`] centralises that cost:
//!
//! * **Content-addressed run cache.** Every [`PipelineRun`] is keyed by
//!   `(algorithm id, dataset id, config bits)` — the algorithm id is the
//!   stable [`AlgoId::id`] string, the dataset id is a hash of the full
//!   serialised [`DatasetConfig`](slam_scene::dataset::DatasetConfig),
//!   the config bits are the serialised [`KFusionConfig`] with the
//!   `threads` knob normalised to `0`. The `threads` knob is excluded
//!   because kernel outputs are bit-identical across thread counts (see
//!   [`slam_exec`]): it changes host wall time only, so two
//!   configurations differing only in `threads` share one cache entry.
//!   Two algorithms sharing dataset and config bits never share an
//!   entry.
//! * **Optional on-disk persistence.** [`EvalEngine::with_disk_cache`]
//!   spills every entry to one JSON file per run under the given
//!   directory (the bench bins use `results/cache/`), giving warm starts
//!   across process invocations. Disk entries are verified against the
//!   full key and a checksum of the run on load; a corrupt, truncated,
//!   edited or mismatched file is silently treated as a miss and
//!   re-evaluated — the disk cache can never produce a wrong result or a
//!   panic.
//! * **Batch-parallel evaluation.** [`EvalEngine::evaluate_batch`]
//!   schedules the batch's cache misses concurrently on the shared
//!   worker pool, one pool job per run. Each run's kernels ask for the
//!   configuration's own `threads`; the calling thread, waiting on the
//!   batch, helps with the kernel bands of the runs still going once
//!   its own are done (see [`slam_exec::run_tasks`]), so a batch's tail
//!   run gets the cores its finished siblings freed. A thread budget the
//!   caller set ([`with_thread_budget`](slam_exec::with_thread_budget),
//!   as the serve scheduler does per quantum) bounds how many runs go
//!   at once and caps the kernels of the runs on the caller's own
//!   thread; a budget of one keeps the whole batch there. A traced batch
//!   records how many jobs the caller ran by helping as its
//!   `pool.helped` counter.
//!
//! # Determinism
//!
//! Batch evaluation returns bit-identical [`PipelineRun`]s versus serial
//! evaluation, in any batch order, at any thread count, because each run
//! is already thread-count-invariant (size-only banding in
//! [`slam_exec`]) and runs share no mutable state: the cache is
//! only read before and written after the parallel section. The single
//! exception is [`FrameRecord::wall_time`](crate::run::FrameRecord):
//! host wall-clock is inherently nondeterministic and is pinned by
//! `tests/engine.rs` to be the *only* field that may differ.

use crate::fault::{FaultPlan, QuarantinedConfig};
use crate::run::{run_algorithm, PipelineRun};
use serde::{Deserialize, Serialize};
use slam_kfusion::config::ConfigError;
use slam_kfusion::{AlgoId, KFusionConfig};
use slam_scene::dataset::SyntheticDataset;
use slam_trace::Tracer;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Why the engine refused to evaluate a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The configuration failed [`KFusionConfig::validate`].
    InvalidConfig(ConfigError),
    /// The dataset has no frames to run over.
    EmptyDataset,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            EvalError::EmptyDataset => write!(f, "cannot evaluate on an empty dataset"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::InvalidConfig(e) => Some(e),
            EvalError::EmptyDataset => None,
        }
    }
}

impl From<ConfigError> for EvalError {
    fn from(e: ConfigError) -> EvalError {
        EvalError::InvalidConfig(e)
    }
}

/// Per-slot result of a batch evaluation: a run finishes or fails.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run processed every frame of the dataset.
    Done(PipelineRun),
    /// The run panicked; the configuration is quarantined and this
    /// record says why. Later requests for it fail fast.
    Failed(QuarantinedConfig),
}

impl RunOutcome {
    /// The run, when the slot finished.
    pub fn run(&self) -> Option<&PipelineRun> {
        match self {
            RunOutcome::Done(run) => Some(run),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The quarantine record, when the slot failed.
    pub fn failure(&self) -> Option<&QuarantinedConfig> {
        match self {
            RunOutcome::Failed(q) => Some(q),
            _ => None,
        }
    }

    /// Whether the run finished.
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done(_))
    }

    /// Consumes the outcome and returns its run.
    ///
    /// # Panics
    ///
    /// Panics with the quarantine cause when the slot failed: for callers
    /// that cannot go on without this run.
    pub fn expect_run(self) -> PipelineRun {
        match self {
            RunOutcome::Done(run) => run,
            // xtask-allow: panic-path — reason: the documented panicking contract of the consuming accessor; run() and failure() are the fallible forms
            RunOutcome::Failed(q) => panic!("run failed: {}", q.cause),
        }
    }
}

/// Cache traffic counters, one increment per requested evaluation, plus
/// the failure counter. Serialisable so stats surfaces
/// (the `slam-serve` `/stats` endpoint, bench reports) can ship them
/// as JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests answered from the in-memory cache (including duplicates
    /// within one batch, which share the batch's single execution).
    pub hits: usize,
    /// Requests answered by loading a persisted run from disk.
    pub disk_hits: usize,
    /// Requests that executed the pipeline.
    pub misses: usize,
    /// Requests answered by a quarantine record (fail-fast, no
    /// execution).
    pub quarantined: usize,
    /// Always 0: runs are never cut short. Kept only because the
    /// benchmark's reports still read it.
    pub timed_out: usize,
    /// Executions that panicked and created a quarantine record.
    pub failed: usize,
}

impl EngineStats {
    /// Total evaluations requested.
    pub fn requests(&self) -> usize {
        self.hits + self.disk_hits + self.misses + self.quarantined
    }

    /// Element-wise sum of a set of per-engine counters — the aggregation
    /// used wherever several engines serve one logical workload (the
    /// sharded server core, fleet summaries). Summing is exact: each
    /// counter counts disjoint per-engine events.
    pub fn merge(stats: &[EngineStats]) -> EngineStats {
        let mut total = EngineStats::default();
        for s in stats {
            total.hits += s.hits;
            total.disk_hits += s.disk_hits;
            total.misses += s.misses;
            total.quarantined += s.quarantined;
            total.timed_out += s.timed_out;
            total.failed += s.failed;
        }
        total
    }
}

/// Version of the on-disk cache entry layout. Bumped to 2 when the
/// algorithm id joined the key: every entry now records which algorithm
/// produced it, and version-1 files (no `version`/`algorithm` fields)
/// fail deserialisation and read as misses — never as aliased hits.
/// Bumped to 3 when entries gained the run checksum.
const CACHE_SCHEMA_VERSION: u32 = 3;

/// The content address of one pipeline run: algorithm + dataset id +
/// config bits (with the pure-performance `threads` knob normalised
/// away).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RunKey {
    algorithm: AlgoId,
    dataset: u64,
    config: String,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn dataset_id(dataset: &SyntheticDataset) -> u64 {
    // DatasetConfig is a plain data struct; serialisation cannot fail,
    // and the empty fallback would only merge caches of datasets that
    // both failed to serialise
    let bytes = serde_json::to_vec(dataset.config()).unwrap_or_default();
    fnv1a(&bytes)
}

fn config_bits(config: &KFusionConfig) -> String {
    let mut canonical = config.clone();
    canonical.threads = 0; // bit-identical outputs across thread counts
    serde_json::to_string(&canonical).unwrap_or_default()
}

/// Stable 64-bit digest of a run key — the disk-cache file name.
fn key_hash(key: &RunKey) -> u64 {
    let mut bytes = key.algorithm.id().as_bytes().to_vec();
    bytes.push(0); // separator: id strings never contain NUL
    bytes.extend_from_slice(&key.dataset.to_le_bytes());
    bytes.extend_from_slice(key.config.as_bytes());
    fnv1a(&bytes)
}

/// The stable 64-bit content address of one evaluation request — the
/// same digest the engine uses for its cache keys and disk-cache file
/// names. Exposed so shard routers can place a request on the shard
/// that owns its cache entry: `run_fingerprint(...) % shard_count` is
/// stable across processes, thread counts, and the `threads` knob
/// (which is normalised out of the key).
pub fn run_fingerprint(
    algorithm: AlgoId,
    dataset: &SyntheticDataset,
    config: &KFusionConfig,
) -> u64 {
    key_hash(&RunKey {
        algorithm,
        dataset: dataset_id(dataset),
        config: config_bits(config),
    })
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One persisted cache entry: the full key is stored alongside the run
/// so a load can verify it got the file it asked for (hash collisions,
/// truncation, stale schema all fail the check and fall back to a miss),
/// and `checksum` — FNV-1a of the run's JSON — lets it verify the run
/// itself: an edit inside `run` that still parses reads as a miss too.
/// The `version`, `algorithm` and `checksum` fields are deliberately
/// *not* defaulted: an older file is missing one, fails to deserialise,
/// and falls back to a safe miss.
#[derive(Serialize, Deserialize)]
struct DiskEntry {
    version: u32,
    algorithm: String,
    dataset: u64,
    config: String,
    checksum: u64,
    run: PipelineRun,
}

/// The checksum a [`DiskEntry`] stores: FNV-1a of the run's JSON, which
/// round-trips bit-exactly, so a run that parses back unchanged always
/// re-encodes to the same bytes.
fn run_checksum(run: &PipelineRun) -> Option<u64> {
    serde_json::to_string(run)
        .ok()
        .map(|json| fnv1a(json.as_bytes()))
}

struct EngineState {
    cache: BTreeMap<RunKey, PipelineRun>,
    quarantine: BTreeMap<RunKey, QuarantinedConfig>,
    stats: EngineStats,
}

impl EngineState {
    fn new() -> EngineState {
        EngineState {
            cache: BTreeMap::new(),
            quarantine: BTreeMap::new(),
            stats: EngineStats::default(),
        }
    }
}

/// The evaluation service: a content-addressed [`PipelineRun`] cache
/// with batch-parallel miss execution. See the [module docs](self) for
/// the cache keying and determinism arguments.
///
/// # Examples
///
/// ```
/// use slambench::engine::EvalEngine;
/// use slam_kfusion::KFusionConfig;
/// use slam_scene::dataset::{DatasetConfig, SyntheticDataset};
///
/// let mut dc = DatasetConfig::tiny_test();
/// dc.frame_count = 4;
/// let dataset = SyntheticDataset::generate(&dc);
/// let engine = EvalEngine::new();
/// let run = engine.evaluate(&dataset, &KFusionConfig::fast_test());
/// // the second request is a cache hit: no pipeline execution
/// let again = engine.evaluate(&dataset, &KFusionConfig::fast_test());
/// assert_eq!(run.ate.max, again.ate.max);
/// assert_eq!(engine.stats().misses, 1);
/// assert_eq!(engine.stats().hits, 1);
/// ```
pub struct EvalEngine {
    state: Mutex<EngineState>,
    algorithm: AlgoId,
    disk_dir: Option<PathBuf>,
    tracer: Tracer,
    plan: FaultPlan,
}

impl Default for EvalEngine {
    fn default() -> EvalEngine {
        EvalEngine::new()
    }
}

impl EvalEngine {
    /// An engine with an in-memory cache only.
    pub fn new() -> EvalEngine {
        EvalEngine {
            state: Mutex::new(EngineState::new()),
            algorithm: AlgoId::default(),
            disk_dir: None,
            tracer: Tracer::disabled(),
            plan: FaultPlan::default(),
        }
    }

    /// An engine that additionally persists every run under `dir` (one
    /// JSON file per entry) and consults those files on a memory miss —
    /// warm starts across bench-bin invocations. The directory is
    /// created lazily on first write; all disk I/O is best-effort and
    /// can only ever fall back to re-evaluation.
    pub fn with_disk_cache(dir: impl Into<PathBuf>) -> EvalEngine {
        EvalEngine {
            disk_dir: Some(dir.into()),
            ..EvalEngine::new()
        }
    }

    /// Sets the algorithm this engine evaluates (builder style). The
    /// default is [`AlgoId::KinectFusion`], the historical behaviour.
    /// The algorithm id is part of every cache key, so engines over
    /// different algorithms never share or alias entries even when they
    /// share a disk-cache directory.
    pub fn with_algorithm(mut self, algorithm: AlgoId) -> EvalEngine {
        self.algorithm = algorithm;
        self
    }

    /// The algorithm this engine evaluates.
    pub fn algorithm(&self) -> AlgoId {
        self.algorithm
    }

    /// Installs a fault-injection plan (tests only; the default plan
    /// injects nothing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> EvalEngine {
        self.plan = plan;
        self
    }

    /// Every configuration quarantined so far, in key order.
    pub fn quarantined(&self) -> Vec<QuarantinedConfig> {
        self.lock().quarantine.values().cloned().collect()
    }

    /// Attaches a [`Tracer`]: every cache classification bumps an
    /// `engine.cache_hit` / `engine.disk_hit` / `engine.cache_miss`
    /// counter, each batch opens an `engine.batch` section span, and
    /// miss executions record their full frame/kernel/band span tree
    /// (see [`slam_trace`]). With the default disabled tracer all of
    /// this is a no-op; either way results are bit-identical.
    pub fn with_tracer(mut self, tracer: Tracer) -> EvalEngine {
        self.tracer = tracer;
        self
    }

    /// The tracer evaluations record into (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The on-disk cache directory, if persistence is enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Cache traffic so far.
    pub fn stats(&self) -> EngineStats {
        self.lock().stats
    }

    /// Whether `(dataset, config)` is already resolvable without running
    /// the pipeline (in memory, or loadable from the disk cache).
    pub fn is_cached(&self, dataset: &SyntheticDataset, config: &KFusionConfig) -> bool {
        let key = RunKey {
            algorithm: self.algorithm,
            dataset: dataset_id(dataset),
            config: config_bits(config),
        };
        if self.lock().cache.contains_key(&key) {
            return true;
        }
        if let Some(run) = self.load_from_disk(&key) {
            self.lock().cache.insert(key, run);
            return true;
        }
        false
    }

    /// Evaluates one configuration, serving it from the cache when
    /// possible. A fresh engine always executes the run.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid, the dataset is empty or
    /// the run panicked (now or in an earlier request). Callers that must
    /// survive any of these use [`EvalEngine::evaluate_batch`].
    pub fn evaluate(&self, dataset: &SyntheticDataset, config: &KFusionConfig) -> PipelineRun {
        match self.evaluate_batch(dataset, std::slice::from_ref(config)) {
            // one outcome per request
            Ok(mut outcomes) => outcomes.swap_remove(0).expect_run(),
            // xtask-allow: panic-path — reason: the documented panicking contract of the one-shot evaluator; evaluate_batch is the fallible form
            Err(e) => panic!("evaluation failed: {e}"),
        }
    }

    /// Evaluates a batch of configurations, scheduling the cache misses
    /// concurrently on the shared worker pool, and returns one
    /// [`RunOutcome`] per request, in request order. A panicking run (real
    /// or injected) affects only its own slot: it comes back as
    /// [`RunOutcome::Failed`], its configuration is quarantined, and
    /// every other slot's result is returned intact. Failed runs are
    /// never cached; the quarantine record makes later requests for the
    /// configuration fail fast.
    ///
    /// # Errors
    ///
    /// [`EvalError::InvalidConfig`] for the first configuration failing
    /// [`KFusionConfig::validate`]; [`EvalError::EmptyDataset`] when the
    /// dataset has no frames. Per-slot failures are *not* errors here.
    pub fn evaluate_batch(
        &self,
        dataset: &SyntheticDataset,
        configs: &[KFusionConfig],
    ) -> Result<Vec<RunOutcome>, EvalError> {
        if configs.is_empty() {
            return Ok(Vec::new());
        }
        if dataset.is_empty() {
            return Err(EvalError::EmptyDataset);
        }
        for config in configs {
            config.validate()?;
        }
        let _batch = self.tracer.section_span("engine.batch");
        let ds = dataset_id(dataset);
        let keys: Vec<RunKey> = configs
            .iter()
            .map(|config| RunKey {
                algorithm: self.algorithm,
                dataset: ds,
                config: config_bits(config),
            })
            .collect();

        // classify each request; collect the distinct misses in request
        // order (the deterministic execution + insertion order)
        enum Slot {
            /// Resolvable from the cache at assembly time.
            Ready,
            /// Answered by an existing quarantine record.
            Quarantined(QuarantinedConfig),
            /// Index into this batch's miss list.
            Miss(usize),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(configs.len());
        let mut miss_keys: Vec<RunKey> = Vec::new();
        let mut miss_configs: Vec<KFusionConfig> = Vec::new();
        {
            let mut state = self.lock();
            for (key, config) in keys.iter().zip(configs) {
                if state.cache.contains_key(key) {
                    state.stats.hits += 1;
                    self.tracer.counter("engine.cache_hit", 1);
                    slots.push(Slot::Ready);
                } else if let Some(q) = state.quarantine.get(key).cloned() {
                    // fail fast: this configuration already panicked in
                    // an earlier batch
                    state.stats.quarantined += 1;
                    self.tracer.counter("engine.quarantine_hit", 1);
                    slots.push(Slot::Quarantined(q));
                } else if let Some(i) = miss_keys.iter().position(|k| k == key) {
                    // duplicate within this batch: shares the single
                    // execution already scheduled
                    state.stats.hits += 1;
                    self.tracer.counter("engine.cache_hit", 1);
                    slots.push(Slot::Miss(i));
                } else if let Some(run) = self.load_from_disk(key) {
                    state.stats.disk_hits += 1;
                    self.tracer.counter("engine.disk_hit", 1);
                    state.cache.insert(key.clone(), run);
                    slots.push(Slot::Ready);
                } else {
                    state.stats.misses += 1;
                    self.tracer.counter("engine.cache_miss", 1);
                    slots.push(Slot::Miss(miss_keys.len()));
                    miss_keys.push(key.clone());
                    miss_configs.push(config.clone());
                }
            }
        }

        // run the misses concurrently, each isolated behind its own
        // catch_unwind; the cache lock is never held inside the parallel
        // section, and bookkeeping happens in miss order afterwards, so
        // scheduling cannot influence the cache
        let mut miss_results: Vec<RunOutcome> = Vec::new();
        if !miss_configs.is_empty() {
            // each run is one pool job whose kernels ask for the
            // configuration's own `threads`; waiting here, outside any
            // job, this thread helps the runs still going once its own
            // are done
            let workers = slam_exec::effective_threads(0).min(miss_configs.len());
            let tasks: Vec<slam_exec::Task<'_, RunOutcome>> = miss_configs
                .iter()
                .map(|config| {
                    Box::new(move || self.execute_isolated(dataset, config))
                        as slam_exec::Task<'_, RunOutcome>
                })
                .collect();
            let helped = slam_exec::helped_jobs();
            miss_results = slam_exec::run_tasks(Tracer::off(), "batch", workers, tasks);
            self.tracer
                .counter("pool.helped", slam_exec::helped_jobs() - helped);
            let mut state = self.lock();
            for (key, result) in miss_keys.iter().zip(&miss_results) {
                match result {
                    RunOutcome::Done(run) => {
                        self.store_to_disk(key, run);
                        state.cache.insert(key.clone(), run.clone());
                    }
                    RunOutcome::Failed(q) => {
                        state.stats.failed += 1;
                        self.tracer.counter("engine.run_failed", 1);
                        state.quarantine.insert(key.clone(), q.clone());
                    }
                }
            }
        }

        let state = self.lock();
        let mut out = Vec::with_capacity(configs.len());
        for ((slot, key), config) in slots.iter().zip(&keys).zip(configs) {
            // reported runs are thread-count-agnostic cache entries;
            // restore the thread knob the caller actually asked for
            let with_threads = |mut run: PipelineRun| {
                run.config.threads = config.threads;
                run
            };
            out.push(match slot {
                Slot::Ready => {
                    // xtask-allow: panic-path — reason: a Ready slot was in the cache (or inserted from disk) at classification time
                    let run = state.cache.get(key).cloned().expect("ready slot resolved");
                    RunOutcome::Done(with_threads(run))
                }
                Slot::Quarantined(q) => RunOutcome::Failed(q.clone()),
                Slot::Miss(i) => match &miss_results[*i] {
                    RunOutcome::Done(run) => RunOutcome::Done(with_threads(run.clone())),
                    RunOutcome::Failed(q) => RunOutcome::Failed(q.clone()),
                },
            });
        }
        Ok(out)
    }

    /// Executes one cache miss behind a `catch_unwind` boundary: a
    /// panicking run (real, or injected by the fault plan) becomes
    /// [`RunOutcome::Failed`]. Never panics and never touches the
    /// engine lock.
    fn execute_isolated(&self, dataset: &SyntheticDataset, config: &KFusionConfig) -> RunOutcome {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if let Some(cause) = self.plan.injected_panic(config) {
                // xtask-allow: panic-path — reason: deliberate fault injection, caught by the catch_unwind just above
                panic!("{cause}");
            }
            run_algorithm(self.algorithm, dataset, config, &self.tracer)
        }));
        match caught {
            Ok(run) => RunOutcome::Done(run),
            Err(payload) => RunOutcome::Failed(QuarantinedConfig {
                config: config.clone(),
                cause: panic_message(payload.as_ref()),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineState> {
        // a poisoned lock only means another evaluation panicked; the
        // cache itself is never left mid-update (entries are inserted
        // whole), so continuing with the inner state is sound
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn disk_path(&self, key: &RunKey) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        Some(dir.join(format!("{:016x}.json", key_hash(key))))
    }

    fn load_from_disk(&self, key: &RunKey) -> Option<PipelineRun> {
        let path = self.disk_path(key)?;
        let entry: DiskEntry = load_json(&path)?;
        // verify the schema version, the full key and the run checksum: a
        // hash collision, truncated write, schema drift or an edited run
        // must read as a miss, never as a wrong answer
        (entry.version == CACHE_SCHEMA_VERSION
            && entry.algorithm == key.algorithm.id()
            && entry.dataset == key.dataset
            && entry.config == key.config
            && run_checksum(&entry.run) == Some(entry.checksum))
        .then_some(entry.run)
    }

    fn store_to_disk(&self, key: &RunKey, run: &PipelineRun) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        let Some(checksum) = run_checksum(run) else {
            return;
        };
        let entry = DiskEntry {
            version: CACHE_SCHEMA_VERSION,
            algorithm: key.algorithm.id().to_string(),
            dataset: key.dataset,
            config: key.config.clone(),
            checksum,
            run: run.clone(),
        };
        save_json_atomic(&path, &entry);
    }
}

/// Loads JSON-persisted state, tolerantly: any IO or parse failure
/// reads as "no state". The one loader under the disk cache and the
/// `slam-serve` campaign store, so both share one tolerance policy.
pub fn load_json<T: serde::Deserialize>(path: &Path) -> Option<T> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Persists serialisable state atomically: it writes a temp file, then
/// renames it over `path`, so a crashed or concurrent writer can never
/// leave a half-written file under the final name. Every call writes its
/// own temp file (process id plus a process-wide counter), so two
/// threads saving the same path never write into one file. Best-effort:
/// returns whether the save landed; a failed save is not an error, it
/// only costs a warm start or a resume later.
pub fn save_json_atomic<T: Serialize>(path: &Path, value: &T) -> bool {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let Ok(text) = serde_json::to_string(value) else {
        return false;
    };
    let Some(dir) = path.parent() else {
        return false;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let save = SAVES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{save}", std::process::id()));
    if std::fs::write(&tmp, text).is_err() {
        return false;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use slam_scene::dataset::DatasetConfig;

    fn tiny_dataset(frames: usize) -> SyntheticDataset {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = frames;
        SyntheticDataset::generate(&dc)
    }

    #[test]
    fn key_ignores_threads_knob() {
        let a = KFusionConfig::fast_test();
        let mut b = a.clone();
        b.threads = 7;
        assert_eq!(config_bits(&a), config_bits(&b));
        let mut c = a.clone();
        c.volume_resolution = 32;
        assert_ne!(config_bits(&a), config_bits(&c));
    }

    #[test]
    fn key_separates_volume_backends() {
        // the sparse and dense backends are distinct cache identities:
        // their runs differ (raycast stride in free space), so a hit on
        // the other backend's entry would return the wrong trajectory
        let a = KFusionConfig::fast_test();
        let mut b = a.clone();
        b.volume_backend = slam_kfusion::VolumeBackend::Sparse;
        assert_ne!(config_bits(&a), config_bits(&b));
        let dataset = tiny_dataset(4);
        assert_ne!(
            run_fingerprint(AlgoId::KinectFusion, &dataset, &a),
            run_fingerprint(AlgoId::KinectFusion, &dataset, &b)
        );
    }

    #[test]
    fn dataset_id_separates_datasets() {
        let a = tiny_dataset(4);
        let b = tiny_dataset(5);
        assert_ne!(dataset_id(&a), dataset_id(&b));
        assert_eq!(dataset_id(&a), dataset_id(&tiny_dataset(4)));
    }

    #[test]
    fn cache_hit_skips_execution_and_reports_requested_threads() {
        let dataset = tiny_dataset(4);
        let engine = EvalEngine::new();
        let config = KFusionConfig::fast_test();
        let first = engine.evaluate(&dataset, &config);
        let mut threaded = config.clone();
        threaded.threads = 3;
        let second = engine.evaluate(&dataset, &threaded);
        assert_eq!(
            engine.stats(),
            EngineStats {
                hits: 1,
                misses: 1,
                ..EngineStats::default()
            }
        );
        assert_eq!(second.config.threads, 3);
        assert_eq!(first.ate.errors, second.ate.errors);
    }

    #[test]
    fn duplicate_requests_in_one_batch_share_one_execution() {
        let dataset = tiny_dataset(4);
        let engine = EvalEngine::new();
        let config = KFusionConfig::fast_test();
        let runs = engine
            .evaluate_batch(&dataset, &[config.clone(), config.clone(), config])
            .unwrap();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(RunOutcome::is_done));
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.requests(), 3);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let dataset = tiny_dataset(4);
        let engine = EvalEngine::new();
        let mut config = KFusionConfig::fast_test();
        config.compute_size_ratio = 3;
        let err = engine
            .evaluate_batch(&dataset, std::slice::from_ref(&config))
            .unwrap_err();
        let EvalError::InvalidConfig(e) = err else {
            // xtask-allow: panic-path — reason: test assertion on the error variant
            panic!("expected InvalidConfig, got {err:?}");
        };
        assert_eq!(e.parameter(), "compute_size_ratio");
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let dataset = tiny_dataset(0);
        let engine = EvalEngine::new();
        let err = engine
            .evaluate_batch(&dataset, &[KFusionConfig::fast_test()])
            .unwrap_err();
        assert_eq!(err, EvalError::EmptyDataset);
    }

    #[test]
    fn tracer_counts_cache_traffic_and_records_miss_spans() {
        let dataset = tiny_dataset(3);
        let tracer = Tracer::new();
        let engine = EvalEngine::new().with_tracer(tracer.clone());
        let config = KFusionConfig::fast_test();
        let first = engine.evaluate(&dataset, &config);
        let second = engine.evaluate(&dataset, &config);
        assert_eq!(first.ate.errors, second.ate.errors);
        let trace = tracer.drain();
        assert_eq!(trace.counter_total("engine.cache_miss"), 1);
        assert_eq!(trace.counter_total("engine.cache_hit"), 1);
        assert_eq!(trace.counter_total("engine.disk_hit"), 0);
        // the miss executed under the tracer: one frame span per frame,
        // and both evaluate() calls opened a batch section span
        let frames = trace
            .spans()
            .filter(|s| s.level == slam_trace::SpanLevel::Frame)
            .count();
        assert_eq!(frames, 3);
        let batches = trace.spans().filter(|s| s.name == "engine.batch").count();
        assert_eq!(batches, 2);
        // the batch with a miss reports its helping (none: one run)
        let helped: Vec<u64> = trace
            .counters()
            .filter(|c| c.name == "pool.helped")
            .map(|c| c.value)
            .collect();
        assert_eq!(helped, [0]);
        // a disabled engine records nothing
        let silent = EvalEngine::new();
        let _ = silent.evaluate(&dataset, &config);
        assert!(!silent.tracer().enabled());
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = EngineStats {
            hits: 1,
            disk_hits: 2,
            misses: 3,
            quarantined: 4,
            timed_out: 6,
            failed: 7,
        };
        let b = EngineStats {
            hits: 10,
            ..EngineStats::default()
        };
        let merged = EngineStats::merge(&[a, b, EngineStats::default()]);
        assert_eq!(merged.hits, 11);
        assert_eq!(merged.disk_hits, 2);
        assert_eq!(merged.misses, 3);
        assert_eq!(merged.quarantined, 4);
        assert_eq!(merged.timed_out, 6);
        assert_eq!(merged.failed, 7);
        assert_eq!(merged.requests(), a.requests() + b.requests());
        assert_eq!(EngineStats::merge(&[]), EngineStats::default());
        // round-trips through JSON for the server stats endpoint
        let json = serde_json::to_string(&merged).unwrap();
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn run_fingerprint_matches_cache_identity() {
        let dataset = tiny_dataset(4);
        let config = KFusionConfig::fast_test();
        let mut threaded = config.clone();
        threaded.threads = 9;
        // the threads knob is normalised out, like the cache key
        assert_eq!(
            run_fingerprint(AlgoId::KinectFusion, &dataset, &config),
            run_fingerprint(AlgoId::KinectFusion, &dataset, &threaded),
        );
        // algorithm and config changes move the fingerprint
        assert_ne!(
            run_fingerprint(AlgoId::KinectFusion, &dataset, &config),
            run_fingerprint(AlgoId::PointOdometry, &dataset, &config),
        );
        let mut coarse = config.clone();
        coarse.volume_resolution = 32;
        assert_ne!(
            run_fingerprint(AlgoId::KinectFusion, &dataset, &config),
            run_fingerprint(AlgoId::KinectFusion, &dataset, &coarse),
        );
    }

    #[test]
    fn concurrent_saves_of_one_path_never_tear_it() {
        const WRITERS: u64 = 8;
        const SAVES: usize = 200;
        let dir = std::env::temp_dir().join(format!("slambench-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("entry.json");
        // one value per writer, each of a different length, so a file
        // torn between two of them is neither
        let values: Vec<Vec<u64>> = (0..WRITERS)
            .map(|w| vec![w; 1 + 300 * w as usize])
            .collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        // writers and the reader start together
        let start = std::sync::Barrier::new(values.len() + 1);
        std::thread::scope(|scope| {
            let writers: Vec<_> = values
                .iter()
                .map(|value| {
                    let (path, start) = (&path, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..SAVES).all(|_| save_json_atomic(path, value))
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                start.wait();
                let mut loads = 0usize;
                while !done.load(Ordering::Acquire) {
                    // once the file exists, every load sees one whole value
                    if path.exists() {
                        let loaded: Option<Vec<u64>> = load_json(&path);
                        assert!(loaded.is_some_and(|v| values.contains(&v)));
                        loads += 1;
                    }
                }
                loads
            });
            let landed: Vec<bool> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            // stop the reader before any assert can unwind past it
            done.store(true, Ordering::Release);
            let loads = reader.join().unwrap();
            assert!(landed.iter().all(|&ok| ok), "every save lands");
            assert!(loads > 0);
        });
        let last: Vec<u64> = load_json(&path).unwrap();
        assert!(values.contains(&last));
        // no temp file is left behind
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_is_free() {
        let dataset = tiny_dataset(0); // not even touched
        let engine = EvalEngine::new();
        assert!(engine.evaluate_batch(&dataset, &[]).unwrap().is_empty());
        assert_eq!(engine.stats().requests(), 0);
    }
}
