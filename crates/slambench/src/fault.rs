//! Run isolation records for the evaluation engine: the
//! [`QuarantinedConfig`] a panicking run leaves behind, and the
//! [`FaultPlan`] test hook that makes a run panic on purpose.
//!
//! The paper's design-space exploration spends thousands of KinectFusion
//! evaluations per device, and the 83-phone fleet study only works
//! because one bad run cannot take down the campaign. The engine runs
//! every cache miss behind its own `catch_unwind`: a run that panics
//! fails only its own batch slot, its configuration is quarantined, and
//! the orchestrators report it (the learner sees a worst-case point)
//! instead of aborting.

use serde::{Deserialize, Serialize};
use slam_kfusion::KFusionConfig;
use std::fmt;

/// The typed record of a configuration the engine gave up on: its run
/// panicked, so the configuration is quarantined and later requests for
/// it fail fast instead of re-running it.
///
/// Orchestrators collect these into their summaries
/// ([`ExploreOutcome::quarantined`](crate::explore::ExploreOutcome),
/// fleet skips, suite failures) so a campaign report always says *which*
/// configurations were dropped and why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedConfig {
    /// The configuration whose run panicked.
    pub config: KFusionConfig,
    /// The panic message.
    pub cause: String,
}

impl fmt::Display for QuarantinedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "quarantined: {}", self.cause)
    }
}

/// A test hook that sends a real panic through the real pool: every run
/// at one of [`FaultPlan::panic_on_volume`]'s volume resolutions panics
/// inside its pool job, where the engine's isolation must catch it.
///
/// The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Volume resolutions whose runs panic.
    pub panic_on_volume: Vec<usize>,
}

impl FaultPlan {
    /// The cause string when a run of `config` should panic.
    pub(crate) fn injected_panic(&self, config: &KFusionConfig) -> Option<String> {
        self.panic_on_volume
            .contains(&config.volume_resolution)
            .then(|| {
                format!(
                    "injected persistent fault (volume {})",
                    config.volume_resolution
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_targeted_volumes_panic() {
        let plan = FaultPlan {
            panic_on_volume: vec![96],
        };
        let mut config = KFusionConfig::fast_test();
        config.volume_resolution = 64;
        assert_eq!(plan.injected_panic(&config), None);
        assert_eq!(FaultPlan::default().injected_panic(&config), None);
        config.volume_resolution = 96;
        let cause = plan.injected_panic(&config).unwrap();
        assert!(cause.contains("injected persistent fault"));
        let q = QuarantinedConfig { config, cause };
        assert_eq!(
            q.to_string(),
            "quarantined: injected persistent fault (volume 96)"
        );
    }
}
