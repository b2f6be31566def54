//! The sharded engine core: N [`EvalEngine`]s per algorithm with
//! fingerprint routing and cross-shard cache lookup.
//!
//! Each evaluation request has a stable home shard —
//! [`run_fingerprint`] modulo the
//! shard count — so repeated requests for one configuration always land
//! on the engine already holding its cache entry, and concurrent
//! campaigns spread naturally over shards. Before any run, every other
//! shard is probed ([`EvalEngine::is_cached`]): a configuration warmed
//! by a different campaign on a different shard is served from that
//! shard's memory instead of re-executing, counted in
//! [`ShardedEngine::cross_shard_hits`].
//!
//! All shards share one on-disk cache directory. This is safe by
//! construction: entries are content-addressed (file name = key hash)
//! and written via write-then-rename, so concurrent writers either
//! agree byte-for-byte or the last rename wins with identical content —
//! and it is what makes a killed server's warm state survive into the
//! next process.
//!
//! # Determinism
//!
//! Routing is a pure function of the request (the fingerprint
//! normalises the `threads` knob away), shard batches are evaluated in
//! ascending shard order, and each [`EvalEngine`] batch is itself
//! bit-identical to serial evaluation — so a sharded batch returns
//! bit-identical outcomes to one engine evaluating the same configs
//! serially, at any shard count.

use slam_kfusion::{AlgoId, KFusionConfig};
use slam_scene::dataset::SyntheticDataset;
use slam_trace::Tracer;
use slambench::engine::{run_fingerprint, EngineStats, EvalEngine, EvalError, RunOutcome};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// N engine shards per registered algorithm, with fingerprint routing
/// and cross-shard cache lookup. See the [module docs](self).
pub struct ShardedEngine {
    shards: usize,
    engines: BTreeMap<AlgoId, Vec<EvalEngine>>,
    tracer: Tracer,
    cross_shard_hits: AtomicU64,
}

impl ShardedEngine {
    /// Builds `shards` engines (minimum 1) for every registered
    /// algorithm, all persisting to `disk_dir` and running under the
    /// default fault policy. The tracer records cache traffic and
    /// cross-shard hits.
    pub fn new(shards: usize, disk_dir: &Path, tracer: Tracer) -> ShardedEngine {
        let shards = shards.max(1);
        let mut engines = BTreeMap::new();
        for algo in AlgoId::ALL {
            let row: Vec<EvalEngine> = (0..shards)
                .map(|_| {
                    EvalEngine::with_disk_cache(disk_dir)
                        .with_algorithm(algo)
                        .with_tracer(tracer.clone())
                })
                .collect();
            engines.insert(algo, row);
        }
        ShardedEngine {
            shards,
            engines,
            tracer,
            cross_shard_hits: AtomicU64::new(0),
        }
    }

    /// Number of shards per algorithm.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The home shard of one request: `run_fingerprint % shards`,
    /// stable across processes and thread knobs.
    pub fn home_shard(
        &self,
        algorithm: AlgoId,
        dataset: &SyntheticDataset,
        config: &KFusionConfig,
    ) -> usize {
        (run_fingerprint(algorithm, dataset, config) % self.shards as u64) as usize
    }

    /// Direct access to one shard's engine — the warm-up and inspection
    /// surface used by the scheduler (explorations run on a single
    /// pinned shard) and the integration tests.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= shard_count()`.
    pub fn engine(&self, algorithm: AlgoId, shard: usize) -> &EvalEngine {
        let row = self.row(algorithm);
        // xtask-allow: panic-path — reason: shard bounds are a caller contract, documented above
        &row[shard]
    }

    fn row(&self, algorithm: AlgoId) -> &[EvalEngine] {
        // every AlgoId::ALL entry is populated in new(); BTreeMap get
        // can only miss if AlgoId grew a variant without ALL, which the
        // algo unit tests pin
        self.engines
            .get(&algorithm)
            .map_or(&[], |row| row.as_slice())
    }

    /// Routes each request to a shard: home when the home shard can
    /// serve it (or nobody can), otherwise the first other shard whose
    /// cache is already warm (a cross-shard hit).
    fn route(
        &self,
        algorithm: AlgoId,
        dataset: &SyntheticDataset,
        config: &KFusionConfig,
    ) -> usize {
        let home = self.home_shard(algorithm, dataset, config);
        let row = self.row(algorithm);
        let Some(home_engine) = row.get(home) else {
            return home;
        };
        // the home probe also consults the shared disk cache (and
        // promotes), so reaching the cross-shard scan means the entry
        // can only exist in another shard's memory
        if home_engine.is_cached(dataset, config) {
            return home;
        }
        for (idx, engine) in row.iter().enumerate() {
            if idx != home && engine.is_cached(dataset, config) {
                self.cross_shard_hits.fetch_add(1, Ordering::Relaxed);
                self.tracer.counter("serve.cross_shard_hit", 1);
                return idx;
            }
        }
        home
    }

    /// Evaluates a batch through the shards: route each request
    /// (cross-shard lookup first), evaluate the per-shard groups in
    /// ascending shard order, and scatter the outcomes back to request
    /// order. Bit-identical to one engine evaluating the batch.
    ///
    /// # Errors
    ///
    /// [`EvalError::InvalidConfig`] for the first invalid
    /// configuration, [`EvalError::EmptyDataset`] when the dataset has
    /// no frames — checked up front, before any routing or execution.
    pub fn evaluate_outcomes(
        &self,
        algorithm: AlgoId,
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
        // group request indices by target shard, preserving request
        // order within each group
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, config) in configs.iter().enumerate() {
            let shard = self.route(algorithm, dataset, config);
            groups.entry(shard).or_default().push(i);
        }
        let row = self.row(algorithm);
        let mut slots: Vec<Option<RunOutcome>> = vec![None; configs.len()];
        for (shard, indices) in &groups {
            let Some(engine) = row.get(*shard) else {
                continue;
            };
            let group: Vec<KFusionConfig> = indices.iter().map(|&i| configs[i].clone()).collect();
            let outcomes = engine.evaluate_batch(dataset, &group)?;
            for (&i, outcome) in indices.iter().zip(outcomes) {
                slots[i] = Some(outcome);
            }
        }
        Ok(slots
            .into_iter()
            // xtask-allow: panic-path — reason: every request index was grouped under exactly one shard above
            .map(|slot| slot.expect("every slot routed to a shard"))
            .collect())
    }

    /// Per-shard cache/fault counters, shard-index order, each merged
    /// across the shard's per-algorithm engines.
    pub fn per_shard_stats(&self) -> Vec<EngineStats> {
        (0..self.shards)
            .map(|shard| {
                let per_algo: Vec<EngineStats> = self
                    .engines
                    .values()
                    .filter_map(|row| row.get(shard))
                    .map(|engine| engine.stats())
                    .collect();
                EngineStats::merge(&per_algo)
            })
            .collect()
    }

    /// Element-wise sum of [`ShardedEngine::per_shard_stats`].
    pub fn merged_stats(&self) -> EngineStats {
        EngineStats::merge(&self.per_shard_stats())
    }

    /// Requests served by a non-home shard's warm memory cache.
    pub fn cross_shard_hits(&self) -> u64 {
        self.cross_shard_hits.load(Ordering::Relaxed)
    }
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

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("slam-serve-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn configs() -> Vec<KFusionConfig> {
        let base = KFusionConfig::fast_test();
        let mut coarse = base.clone();
        coarse.volume_resolution = 32;
        let mut icp = base.clone();
        icp.icp_threshold = base.icp_threshold * 2.0;
        vec![base, coarse, icp]
    }

    #[test]
    fn routing_is_stable_and_ignores_threads() {
        let dir = tmp_dir("route");
        let sharded = ShardedEngine::new(4, &dir, Tracer::disabled());
        let dataset = tiny_dataset(3);
        for config in configs() {
            let home = sharded.home_shard(AlgoId::KinectFusion, &dataset, &config);
            assert!(home < 4);
            let mut threaded = config.clone();
            threaded.threads = 5;
            assert_eq!(
                home,
                sharded.home_shard(AlgoId::KinectFusion, &dataset, &threaded)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_batch_matches_single_engine() {
        let dir = tmp_dir("match");
        let sharded = ShardedEngine::new(3, &dir, Tracer::disabled());
        let dataset = tiny_dataset(3);
        let cfgs = configs();
        let outcomes = sharded
            .evaluate_outcomes(AlgoId::KinectFusion, &dataset, &cfgs)
            .unwrap();
        let reference = EvalEngine::new();
        for (outcome, config) in outcomes.iter().zip(&cfgs) {
            let run = outcome.run().expect("deterministic configs complete");
            let want = reference.evaluate(&dataset, config);
            assert_eq!(run.ate.errors, want.ate.errors);
            assert_eq!(run.lost_frames, want.lost_frames);
            assert_eq!(run.config, want.config);
        }
        // every request was a miss exactly once across the shards
        let merged = sharded.merged_stats();
        assert_eq!(merged.misses, cfgs.len());
        assert_eq!(merged.hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_non_home_shard_is_a_cross_shard_hit() {
        let dir = tmp_dir("cross");
        let sharded = ShardedEngine::new(2, &dir, Tracer::disabled());
        let dataset = tiny_dataset(3);
        let config = KFusionConfig::fast_test();
        let home = sharded.home_shard(AlgoId::KinectFusion, &dataset, &config);
        let other = 1 - home;
        // warm the non-home shard directly, then delete the disk entry
        // so only that shard's *memory* can serve the request
        let _ = sharded
            .engine(AlgoId::KinectFusion, other)
            .evaluate(&dataset, &config);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(sharded.cross_shard_hits(), 0);
        let outcomes = sharded
            .evaluate_outcomes(
                AlgoId::KinectFusion,
                &dataset,
                std::slice::from_ref(&config),
            )
            .unwrap();
        assert!(outcomes[0].is_done());
        assert_eq!(sharded.cross_shard_hits(), 1);
        // served from the warm shard's cache: no second execution
        assert_eq!(sharded.merged_stats().misses, 1);
        assert_eq!(sharded.merged_stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_shard_stats_cover_all_algorithms() {
        let dir = tmp_dir("stats");
        let sharded = ShardedEngine::new(2, &dir, Tracer::disabled());
        let dataset = tiny_dataset(3);
        let config = KFusionConfig::fast_test();
        for algo in AlgoId::ALL {
            let _ = sharded
                .evaluate_outcomes(algo, &dataset, std::slice::from_ref(&config))
                .unwrap();
        }
        let per_shard = sharded.per_shard_stats();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(EngineStats::merge(&per_shard).misses, AlgoId::ALL.len());
        assert_eq!(sharded.merged_stats().requests(), AlgoId::ALL.len(),);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_config_rejected_before_any_execution() {
        let dir = tmp_dir("invalid");
        let sharded = ShardedEngine::new(2, &dir, Tracer::disabled());
        let dataset = tiny_dataset(3);
        let mut bad = KFusionConfig::fast_test();
        bad.compute_size_ratio = 3;
        let err = sharded
            .evaluate_outcomes(AlgoId::KinectFusion, &dataset, &[bad])
            .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)));
        assert_eq!(sharded.merged_stats().requests(), 0);
        assert_eq!(
            sharded
                .evaluate_outcomes(
                    AlgoId::KinectFusion,
                    &tiny_dataset(0),
                    &[KFusionConfig::fast_test()]
                )
                .unwrap_err(),
            EvalError::EmptyDataset
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
