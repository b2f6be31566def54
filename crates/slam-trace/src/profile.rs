//! Aggregated per-kernel profile table.

use crate::{SpanEvent, SpanLevel};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics for one `(level, name)` span population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Hierarchy level of the aggregated spans.
    pub level: SpanLevel,
    /// Span name (for kernels, matches `Kernel::name()`).
    pub name: &'static str,
    /// Number of spans aggregated.
    pub count: usize,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
    /// Median span (upper median for even counts), nanoseconds.
    pub median_ns: u64,
}

impl ProfileRow {
    /// Total duration in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// A per-`(level, name)` aggregation of a trace's spans, the textual
/// counterpart of the paper's per-kernel timing tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Rows grouped by level (frame, kernel, band, section), each level
    /// sorted by descending total time.
    rows: Vec<ProfileRow>,
}

impl Profile {
    pub(crate) fn from_spans<'a>(spans: impl Iterator<Item = &'a SpanEvent>) -> Profile {
        let mut durations: BTreeMap<(SpanLevel, &'static str), Vec<u64>> = BTreeMap::new();
        for s in spans {
            durations
                .entry((s.level, s.name))
                .or_default()
                .push(s.duration_ns());
        }
        let mut rows: Vec<ProfileRow> = durations
            .into_iter()
            .map(|((level, name), mut ds)| {
                ds.sort_unstable();
                ProfileRow {
                    level,
                    name,
                    count: ds.len(),
                    total_ns: ds.iter().sum(),
                    min_ns: ds.first().copied().unwrap_or(0),
                    max_ns: ds.last().copied().unwrap_or(0),
                    median_ns: ds.get(ds.len() / 2).copied().unwrap_or(0),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.level.cmp(&b.level).then(b.total_ns.cmp(&a.total_ns)));
        Profile { rows }
    }

    /// All rows, grouped by level, each level sorted by descending
    /// total time.
    pub fn rows(&self) -> &[ProfileRow] {
        &self.rows
    }

    /// The row for `name` at the given level, if any spans were seen.
    pub fn get_at(&self, level: SpanLevel, name: &str) -> Option<&ProfileRow> {
        self.rows
            .iter()
            .find(|r| r.level == level && r.name == name)
    }

    /// The first row matching `name` at any level (levels scanned in
    /// `Frame > Kernel > Band > Section` order).
    pub fn get(&self, name: &str) -> Option<&ProfileRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Sum of `total_ns` over all rows at `level`.
    pub fn level_total_ns(&self, level: SpanLevel) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.level == level)
            .map(|r| r.total_ns)
            .sum()
    }

    /// Fraction of the level's total time spent in `name` (0 when the
    /// level is empty).
    pub fn share(&self, level: SpanLevel, name: &str) -> f64 {
        let total = self.level_total_ns(level);
        if total == 0 {
            return 0.0;
        }
        self.get_at(level, name)
            .map(|r| r.total_ns as f64 / total as f64)
            .unwrap_or(0.0)
    }

    /// Renders a fixed-width text table (one row per `(level, name)`),
    /// suitable for printing from bench bins.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:<16} {:>6} {:>12} {:>12} {:>7}",
            "level", "name", "count", "total ms", "median ms", "share"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:>6} {:>12.3} {:>12.3} {:>6.1}%",
                r.level.category(),
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.median_ns as f64 / 1e6,
                100.0 * self.share(r.level, r.name),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MockClock, Tracer};

    #[test]
    fn aggregates_count_total_median_share() {
        let t = Tracer::with_clock(MockClock::new(5));
        for _ in 0..3 {
            let _k = t.kernel_span("bilateral");
        }
        {
            let _k = t.kernel_span("integrate");
        }
        let profile = t.drain().profile();
        let bil = profile.get_at(SpanLevel::Kernel, "bilateral").unwrap();
        // each span = open read + close read = 5ns apart
        assert_eq!(bil.count, 3);
        assert_eq!((bil.min_ns, bil.max_ns, bil.median_ns), (5, 5, 5));
        assert_eq!(bil.total_ns, 15);
        let share = profile.share(SpanLevel::Kernel, "bilateral");
        assert!((share - 0.75).abs() < 1e-12, "{share}");
        assert_eq!(profile.get("bilateral").map(|r| r.count), Some(3));
        assert!(profile.get_at(SpanLevel::Frame, "bilateral").is_none());
    }

    #[test]
    fn rows_sorted_by_level_then_total() {
        let t = Tracer::with_clock(MockClock::new(1));
        {
            let _f = t.frame_span("frame");
            for _ in 0..5 {
                let _k = t.kernel_span("raycast");
            }
            let _k = t.kernel_span("track");
        }
        let profile = t.drain().profile();
        let order: Vec<_> = profile.rows().iter().map(|r| (r.level, r.name)).collect();
        assert_eq!(
            order,
            vec![
                (SpanLevel::Frame, "frame"),
                (SpanLevel::Kernel, "raycast"),
                (SpanLevel::Kernel, "track"),
            ]
        );
        let rendered = profile.render();
        assert!(rendered.contains("raycast"), "{rendered}");
        assert!(rendered.contains("share"), "{rendered}");
    }

    #[test]
    fn empty_profile_is_benign() {
        let profile = Profile::default();
        assert!(profile.rows().is_empty());
        assert_eq!(profile.level_total_ns(SpanLevel::Kernel), 0);
        assert_eq!(profile.share(SpanLevel::Kernel, "x"), 0.0);
    }
}
