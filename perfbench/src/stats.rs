//! Sample statistics and the result line every run prints.

use std::fmt::Write as _;

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank.
///
/// `f64::INFINITY` stands for a request that never completed: it sorts
/// last, so it counts against the upper percentiles as a missed limit.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a handful of repeated measurements (the middle value, or the
/// mean of the two middle values). Used for set-up times and per-layer
/// figures, where a run holds too few repetitions for [`percentile`].
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean of repeated whole-run measurements.
///
/// On a host whose speed flips between a fast and a slow mode for seconds
/// at a time, a run's median lands in whichever mode held longer and jumps
/// between runs; the mean moves smoothly with the share of time spent in
/// each mode, so it repeats better from run to run.
pub fn mean_of(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run reports: operations attempted and failed, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted (scenario runs, refreshes, probes...).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Checks that failed, in words (printed to stderr).
    pub failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    unavailable: Vec<String>,
}

impl Report {
    /// Records one metric. Panics on an illegal name or a repeated one —
    /// both are bugs in the benchmark itself.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a metric when the value exists and is finite (a percentile
    /// with too few samples does not). A metric of the result line left
    /// unrecorded fails the run in [`Report::conform`]; any other figure is
    /// listed as not available.
    pub fn metric_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.metric(name, v, unit),
            _ => self.unavailable.push(name.to_owned()),
        }
    }

    /// Counts one failed check.
    pub fn fail(&mut self, why: String) {
        self.fail_many(1, why);
    }

    /// Counts `count` failed operations sharing one reason (none when
    /// `count` is 0).
    pub fn fail_many(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            self.failures.push(why);
        }
    }

    /// Checks `ok`, counting a failure with `why` when it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Counts a failure for every metric of `schema` the run did not
    /// record, or recorded in another unit.
    pub fn conform(&mut self, schema: &[(String, &'static str)]) {
        for (name, unit) in schema {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                None => self.fail(format!("metric {name} was not measured")),
                Some((_, _, u)) if u != unit => {
                    self.fail(format!("metric {name} measured in {u}, not {unit}"));
                }
                Some(_) => {}
            }
        }
    }

    /// The workload-specific figures outside `schema`, one `# name = value
    /// unit` line each, for the reader of the log.
    pub fn details(&self, schema: &[(String, &'static str)]) -> Vec<String> {
        self.metrics
            .iter()
            .filter(|(name, _, _)| schema.iter().all(|(n, _)| n != name))
            .map(|(name, value, unit)| format!("# {name} = {value} {unit}"))
            .chain(
                self.unavailable
                    .iter()
                    .filter(|name| schema.iter().all(|(n, _)| n != *name))
                    .map(|name| format!("# {name} = n/a (too few samples)")),
            )
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of `schema`, in its order.
    pub fn render(&self, schema: &[(String, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let chosen = schema
            .iter()
            .filter_map(|(name, _)| self.metrics.iter().find(|(n, _, _)| n == name));
        for (i, (name, value, unit)) in chosen.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), None, "rank 10 of 19 leaves 9 beyond");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let mut v: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        assert_eq!(percentile(&v, 50.0), Some(49.0));
        assert_eq!(percentile(&v, 90.0), Some(89.0));
        v.reverse();
        assert_eq!(percentile(&v, 50.0), Some(49.0));
    }

    #[test]
    fn missing_samples_count_as_slowest() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in v.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 50.0), Some(511.0));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn mean_of_small_sets() {
        assert_eq!(mean_of(&[]), None);
        assert_eq!(mean_of(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("netsim.events_per_s"));
        assert!(valid_name("gen.late_ms_p99"));
        assert!(valid_name("0k-name"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn render_keeps_the_schema_and_details_the_rest() {
        let schema = vec![("setup_s".to_owned(), "s"), ("op_ms".to_owned(), "ms")];
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("op_ms", 1.5, "ms");
        r.metric("extra", 2.0, "count");
        r.metric("setup_s", 0.25, "s");
        r.conform(&schema);
        assert_eq!(
            r.render(&schema),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"op_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(r.details(&schema), vec!["# extra = 2 count".to_owned()]);
        r.fail("x".into());
        assert!(r
            .render(&schema)
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn a_missing_or_mismeasured_schema_metric_is_a_failure() {
        let schema = vec![("setup_s".to_owned(), "s"), ("op_ms".to_owned(), "ms")];
        let mut r = Report::default();
        r.metric("setup_s", 0.25, "ms");
        r.metric_opt("op_ms", None, "ms");
        r.metric_opt("tail_ms", None, "ms");
        r.conform(&schema);
        assert_eq!(r.failed, 2);
        assert_eq!(
            r.details(&schema),
            vec!["# tail_ms = n/a (too few samples)".to_owned()]
        );
    }
}
