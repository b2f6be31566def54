//! Accuracy and performance metrics for SLAM evaluation, following the
//! SLAMBench methodology:
//!
//! * [`mod@ate`] — absolute trajectory error (the paper's "Max ATE" axis),
//!   with optional Horn alignment as in the TUM RGB-D / ICL-NUIM tools,
//! * [`mod@rpe`] — relative pose error (drift per interval),
//! * [`timing`] — per-frame and per-kernel time aggregation and FPS,
//! * [`trajectory_io`] — TUM-format trajectory import/export,
//! * [`report`] — plain-text tables used by the figure-regeneration
//!   binaries.
//!
//! # Examples
//!
//! ```
//! use slam_metrics::ate::{ate, AteOptions};
//! use slam_math::{Se3, Vec3};
//!
//! let gt = vec![Se3::IDENTITY, Se3::from_translation(Vec3::X)];
//! let est = vec![Se3::IDENTITY, Se3::from_translation(Vec3::new(1.0, 0.02, 0.0))];
//! let result = ate(&est, &gt, AteOptions::default()).unwrap();
//! assert!((result.max - 0.02).abs() < 1e-6);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod ate;
pub mod report;
pub mod rpe;
pub mod timing;
pub mod trajectory_io;

pub use ate::{ate, AteOptions, AteResult};
pub use rpe::{rpe, RpeResult};
pub use timing::{SequenceTiming, TimingRecord};
pub use trajectory_io::{parse_tum, to_tum, TimedPose};
