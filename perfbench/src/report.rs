//! Metric tables, the outcome of one run, and its printed form.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// End-to-end metrics (`--trace 0`): every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("makespan_ms_p50", "ms"),
    ("makespan_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). Counts are per instance (the whole
/// measured phase is the one instance of `server`); `_per_nk` is per
/// 1 000 items. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("deque.switches_per_nk", "count/1k"),
    ("deque.allocated", "count"),
    ("deque.max_per_worker", "count"),
    ("registry.steal_attempts", "count"),
    ("registry.steal_hit_ratio", "ratio"),
    ("registry.dead_targets", "count"),
    ("registry.tasks_per_steal", "ratio"),
    ("task.polls_per_task", "ratio"),
    ("task.unparks_per_nk", "count/1k"),
    ("task.spawn_call_ns", "ns"),
    ("task.dispatch_us_p50", "us"),
    ("task.dispatch_us_p99", "us"),
    ("task.reply_queue_us_p50", "us"),
    ("timer.lateness_us_p50", "us"),
    ("timer.lateness_us_p99", "us"),
    ("timer.resumes_per_batch", "ratio"),
    ("timer.suspensions", "count"),
    ("timer.resumes", "count"),
    ("reactor.ingress_us_p50", "us"),
    ("reactor.ingress_us_p99", "us"),
    ("reactor.readiness_events", "count"),
    ("reactor.wakeups", "count"),
    ("reactor.requests_per_wakeup", "ratio"),
    ("reactor.timeouts", "count"),
    ("tcp.write_us_p50", "us"),
    ("tcp.write_us_p99", "us"),
    ("tcp.egress_us_p50", "us"),
    ("compute.leaf_us_p50", "us"),
    ("obs.metrics_snapshot_us", "us"),
    ("obs.prometheus_export_us", "us"),
    ("obs.trace_overhead", "ratio"),
    ("bench.gen_lateness_ms_p99", "ms"),
    ("bench.unattributed_us_p50", "us"),
    ("bench.unattributed_us_p99", "us"),
    ("bound.ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked: instances, requests, set-ups and shutdowns.
    pub attempted: u64,
    /// One named cause per failed operation.
    pub failures: Vec<String>,
    /// Metric values with the sample count behind each percentile.
    pub metrics: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Context printed before the result: stamps and layer breakdowns.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed with `cause` unless `ok`.
    pub fn op(&mut self, ok: bool, cause: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(cause());
        }
    }

    /// Records a plain metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, None));
    }

    /// Records percentile `pm` (per-mille) of `sorted` as `name`.
    pub fn pct(&mut self, name: &'static str, sorted: &[f64], pm: u32) {
        self.supported(name, sorted.len(), pm);
        self.metrics
            .insert(name, (stats::percentile(sorted, pm), Some(sorted.len())));
    }

    /// Records per-window percentile `pm` summarised over the windows;
    /// every window must support the percentile on its own.
    pub fn windowed(&mut self, name: &'static str, w: &mut stats::Windows, pm: u32) {
        let (value, samples, thinnest) = w.result(pm);
        self.supported(name, thinnest, pm);
        self.notes.push(format!("{name}: {}", w.describe()));
        self.metrics.insert(name, (value, Some(samples)));
    }

    /// A tail percentile without [`stats::MIN_BEYOND`] samples beyond it
    /// is a failed check, not a number.
    fn supported(&mut self, name: &str, n: usize, pm: u32) {
        let enough = if pm == 500 {
            n > 0
        } else {
            stats::beyond(n, pm) >= stats::MIN_BEYOND
        };
        self.op(enough, || {
            format!(
                "{name}: {n} samples leave {} beyond {}, need {}",
                stats::beyond(n, pm),
                stats::label(pm),
                stats::MIN_BEYOND
            )
        });
    }

    /// Notes the highest well-supported percentile of a sample set.
    pub fn note_tail(&mut self, what: &str, sorted: &[f64], unit: &str) {
        let n = sorted.len();
        match stats::tail_percentile(n) {
            Some(pm) => self.notes.push(format!(
                "tail {what}: {} = {:.4} {unit} (n={n})",
                stats::label(pm),
                stats::percentile(sorted, pm)
            )),
            None => self
                .notes
                .push(format!("tail {what}: too few samples (n={n})")),
        }
    }

    /// Prints the notes, every metric of `table` by name, and the
    /// one-line JSON result last. A metric that is missing from an
    /// end-to-end run, or not finite, fails the run.
    pub fn print(mut self, table: &[(&'static str, &'static str)], end_to_end: bool) {
        for &(name, _) in table {
            match self.metrics.get(name) {
                Some((v, _)) if v.is_finite() => {}
                Some((v, _)) => self.failures.push(format!("{name} is not finite ({v})")),
                None if end_to_end => self.failures.push(format!("{name} was not measured")),
                None => {}
            }
        }
        for note in &self.notes {
            println!("{note}");
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(1);
        println!(
            "metric failed_frac = {} ({failed} of {attempted})",
            failed as f64 / attempted as f64
        );
        let mut json = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let (value, samples) = match self.metrics.get(name) {
                Some(&(v, n)) if v.is_finite() => (v, n),
                _ => (0.0, None),
            };
            match samples {
                Some(n) => println!("metric {name} = {value} {unit} (n={n})"),
                None if self.metrics.contains_key(name) => {
                    println!("metric {name} = {value} {unit}")
                }
                None => println!("metric {name} = {value} {unit} (not exercised)"),
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        for f in &self.failures {
            println!("FAILED {f}");
            eprintln!("perfbench: FAILED {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failed == 0
        );
    }
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn short_tail_is_a_failed_check() {
        let mut o = Outcome::default();
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        o.pct("makespan_ms_p50", &v, 500);
        o.pct("makespan_ms_p90", &v, 900);
        assert_eq!(o.attempted, 2);
        assert_eq!(o.failures.len(), 1);
        assert!(o.failures[0].starts_with("makespan_ms_p90"));
    }
}
