//! The mobile-fleet evaluation (Figure 3): deploying the default and the
//! XU3-tuned configuration across the 83-phone catalogue and reporting
//! each device's speed-up.
//!
//! Two realities of the crowdsourced study are modelled here (documented
//! in `DESIGN.md`):
//!
//! * **memory limits** — the benchmark app caps the TSDF volume at what
//!   the device can allocate, so low-RAM phones run the *default*
//!   configuration at a reduced volume resolution (which compresses
//!   their speed-up),
//! * **thermal throttling** — phones are passively cooled and drop their
//!   DVFS point under sustained load, which hits the power-hungry
//!   default configuration harder than the tuned one (stretching the
//!   speed-up on hot devices).

use crate::engine::{EvalEngine, RunOutcome};
use serde::{Deserialize, Serialize};
use slam_kfusion::KFusionConfig;
use slam_power::fleet::Tier;
use slam_power::PhoneSpec;
use slam_scene::dataset::SyntheticDataset;
use std::collections::BTreeMap;

/// One phone's result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetEntry {
    /// Fleet index of the phone.
    pub index: usize,
    /// Device name.
    pub name: String,
    /// SoC name.
    pub soc: String,
    /// Market tier.
    pub tier: Tier,
    /// Whether the phone's GPU is usable for compute.
    pub gpu: bool,
    /// Installed RAM, MB.
    pub ram_mb: usize,
    /// The volume resolution the default configuration actually ran at
    /// on this phone (memory-capped).
    pub default_volume: usize,
    /// Modelled mean frame time with the default configuration, seconds.
    pub default_s: f64,
    /// Modelled mean frame time with the tuned configuration, seconds.
    pub tuned_s: f64,
    /// `default_s / tuned_s` — the paper's Figure 3 metric.
    pub speedup: f64,
}

/// A phone dropped from the fleet report because a run it depends on was
/// quarantined — the crowdsourced-study reality that some devices fail
/// and the campaign reports them instead of dying.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSkip {
    /// Fleet index of the phone.
    pub index: usize,
    /// Device name.
    pub name: String,
    /// Why the phone has no entry.
    pub reason: String,
}

/// The fleet study's result: per-phone entries plus the phones skipped
/// because a required run failed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// One entry per phone whose runs all completed, in fleet order.
    pub entries: Vec<FleetEntry>,
    /// Phones without an entry, with the reported reason.
    pub skipped: Vec<FleetSkip>,
}

/// The fraction of device RAM the benchmark app can realistically devote
/// to the TSDF volume.
const VOLUME_RAM_FRACTION: f64 = 0.15;

/// The volume resolutions the app falls back through when memory is
/// tight, largest first.
const VOLUME_LADDER: [usize; 5] = [256, 192, 128, 96, 64];

/// The largest volume resolution (from the app's fallback ladder, capped
/// at `requested`) whose TSDF fits the phone's volume-memory budget.
pub fn memory_capped_volume(requested: usize, ram_mb: usize) -> usize {
    let budget_bytes = ram_mb as f64 * 1e6 * VOLUME_RAM_FRACTION;
    for &vr in &VOLUME_LADDER {
        if vr > requested {
            continue;
        }
        let bytes = (vr * vr * vr * 8) as f64; // two f32 fields per voxel
        if bytes <= budget_bytes {
            return vr;
        }
    }
    VOLUME_LADDER[VOLUME_LADDER.len() - 1]
}

/// Runs the Figure 3 study: the default and tuned configurations across
/// the fleet, with per-phone memory capping and thermal throttling.
///
/// The pipeline executes once per *distinct* memory-capped default volume
/// (the workload trace is device-independent), so the whole 83-phone
/// fleet costs a handful of pipeline runs. A quarantined run does not
/// abort the study: the phones depending on it are skipped with a
/// reported reason ([`FleetOutcome::skipped`]).
///
/// The engine is the algorithm handle: the study deploys whatever
/// algorithm the engine carries. The tuned configuration and the
/// distinct memory-capped default volumes are evaluated as one
/// concurrent engine batch, then replayed per phone.
pub fn fleet_speedups_with_engine(
    eval: &EvalEngine,
    dataset: &SyntheticDataset,
    default_config: &KFusionConfig,
    tuned_config: &KFusionConfig,
    fleet: &[PhoneSpec],
) -> FleetOutcome {
    // distinct memory-capped default volumes, in fleet order
    let mut volumes: Vec<usize> = Vec::new();
    for phone in fleet {
        let vr = memory_capped_volume(default_config.volume_resolution, phone.ram_mb);
        if !volumes.contains(&vr) {
            volumes.push(vr);
        }
    }
    let mut configs: Vec<KFusionConfig> = Vec::with_capacity(volumes.len() + 1);
    configs.push(tuned_config.clone());
    configs.extend(volumes.iter().map(|&vr| {
        let mut c = default_config.clone();
        c.volume_resolution = vr;
        c
    }));
    let outcomes = match eval.evaluate_batch(dataset, &configs) {
        Ok(outcomes) => outcomes,
        // xtask-allow: panic-path — reason: empty datasets / invalid configs violate the fleet study's documented precondition; per-slot failures never reach this arm
        Err(e) => panic!("fleet evaluation failed: {e}"),
    };
    // only a quarantined run makes a phone unreportable
    let tuned = &outcomes[0];
    let default_by_vr: BTreeMap<usize, &RunOutcome> =
        volumes.iter().copied().zip(outcomes[1..].iter()).collect();
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    for phone in fleet {
        let vr = memory_capped_volume(default_config.volume_resolution, phone.ram_mb);
        let (tuned_run, default_run) = match (tuned, default_by_vr.get(&vr).copied()) {
            (RunOutcome::Done(t), Some(RunOutcome::Done(d))) => (t, d),
            (tuned, default) => {
                let reason = match (tuned, default) {
                    (RunOutcome::Failed(q), _) => {
                        format!("tuned configuration quarantined: {}", q.cause)
                    }
                    (_, Some(RunOutcome::Failed(q))) => format!(
                        "default configuration at capped volume {vr} quarantined: {}",
                        q.cause
                    ),
                    _ => format!("no run for capped volume {vr}"),
                };
                skipped.push(FleetSkip {
                    index: phone.index,
                    name: phone.device.name.clone(),
                    reason,
                });
                continue;
            }
        };
        let default_s = default_run
            .cost_on_sustained(&phone.device)
            .timing
            .mean_frame_time();
        // fragile OpenCL drivers run the stock configuration but fail
        // on the tuned configuration's work sizes → CPU fallback
        let tuned_device = if phone.gpu_fragile {
            let mut d = phone.device.clone();
            d.gpu_compute_usable = false;
            d
        } else {
            phone.device.clone()
        };
        let tuned_s = tuned_run
            .cost_on_sustained(&tuned_device)
            .timing
            .mean_frame_time();
        entries.push(FleetEntry {
            index: phone.index,
            name: phone.device.name.clone(),
            soc: phone.device.soc.clone(),
            tier: phone.tier,
            gpu: phone.device.has_usable_gpu(),
            ram_mb: phone.ram_mb,
            default_volume: vr,
            default_s,
            tuned_s,
            speedup: if tuned_s > 0.0 {
                default_s / tuned_s
            } else {
                0.0
            },
        });
    }
    FleetOutcome { entries, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slam_power::fleet::phone_fleet;
    use slam_scene::dataset::{DatasetConfig, SyntheticDataset};

    fn dataset() -> SyntheticDataset {
        let mut dc = DatasetConfig::tiny_test();
        dc.frame_count = 4;
        SyntheticDataset::generate(&dc)
    }

    fn configs() -> (KFusionConfig, KFusionConfig) {
        let mut default_cfg = KFusionConfig::fast_test();
        default_cfg.volume_resolution = 192;
        let mut tuned_cfg = KFusionConfig::fast_test();
        tuned_cfg.volume_resolution = 64;
        tuned_cfg.compute_size_ratio = 2;
        tuned_cfg.pyramid_iterations = [3, 2, 2];
        (default_cfg, tuned_cfg)
    }

    #[test]
    fn memory_cap_ladder() {
        // 4 GB: full 256³ (134 MB) fits in a 600 MB budget
        assert_eq!(memory_capped_volume(256, 4096), 256);
        // 1 GB: budget 150 MB ≥ 134 MB → 256 still fits
        assert_eq!(memory_capped_volume(256, 1024), 256);
        // 768 MB: budget 115 MB → falls to 192 (57 MB)
        assert_eq!(memory_capped_volume(256, 768), 192);
        // 256 MB: budget 38 MB → falls to 128 (17 MB)
        assert_eq!(memory_capped_volume(256, 256), 128);
        // the cap never exceeds the requested resolution
        assert_eq!(memory_capped_volume(96, 4096), 96);
    }

    #[test]
    fn every_phone_gets_an_entry() {
        let (d, t) = configs();
        let fleet = phone_fleet(2018);
        let outcome = fleet_speedups_with_engine(&EvalEngine::new(), &dataset(), &d, &t, &fleet);
        assert!(outcome.skipped.is_empty(), "no faults injected, no skips");
        let entries = outcome.entries;
        assert_eq!(entries.len(), fleet.len());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.index, i);
            assert!(e.default_s > 0.0);
            assert!(e.tuned_s > 0.0);
            assert!(e.default_volume <= 192);
        }
    }

    #[test]
    fn tuned_config_speeds_up_most_phones() {
        let (d, t) = configs();
        let fleet = phone_fleet(2018);
        let entries =
            fleet_speedups_with_engine(&EvalEngine::new(), &dataset(), &d, &t, &fleet).entries;
        let faster = entries.iter().filter(|e| e.speedup > 1.0).count();
        assert!(
            faster * 10 >= entries.len() * 8,
            "tuned config should win on most phones, won on {faster}/{}",
            entries.len()
        );
    }

    #[test]
    fn speedups_vary_across_the_fleet() {
        let (d, t) = configs();
        let fleet = phone_fleet(2018);
        let entries =
            fleet_speedups_with_engine(&EvalEngine::new(), &dataset(), &d, &t, &fleet).entries;
        let min = entries
            .iter()
            .map(|e| e.speedup)
            .fold(f64::INFINITY, f64::min);
        let max = entries.iter().map(|e| e.speedup).fold(0.0f64, f64::max);
        assert!(
            max / min > 1.5,
            "device heterogeneity should spread the speed-ups ({min:.2}..{max:.2})"
        );
    }

    #[test]
    fn fleet_study_runs_for_every_algorithm() {
        let (d, t) = configs();
        let fleet = &phone_fleet(2018)[..3];
        let ds = dataset();
        for &algo in &slam_kfusion::AlgoId::ALL {
            let eval = EvalEngine::new().with_algorithm(algo);
            let outcome = fleet_speedups_with_engine(&eval, &ds, &d, &t, fleet);
            assert!(outcome.skipped.is_empty(), "{algo}: no faults, no skips");
            assert_eq!(outcome.entries.len(), fleet.len(), "{algo}");
        }
    }

    #[test]
    fn low_ram_phones_run_reduced_default_volume() {
        let (d, t) = configs();
        let fleet = phone_fleet(2018);
        let entries =
            fleet_speedups_with_engine(&EvalEngine::new(), &dataset(), &d, &t, &fleet).entries;
        let capped = entries.iter().filter(|e| e.default_volume < 192).count();
        assert!(
            capped > 0,
            "the fleet should contain memory-constrained phones"
        );
    }
}
