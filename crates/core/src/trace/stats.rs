//! Derived statistics: the paper's quantities measured on a real run.

use std::collections::HashMap;
use std::fmt;

use super::{EventKind, StealOutcome, TraceEvent};

/// Number of power-of-two latency buckets (covers 1ns..≈17min).
const BUCKETS: usize = 40;

/// In-flight suspension record while pairing lifecycle events:
/// `(suspend_ts, Some((enabled_at, ready_ts)))` once delivery was seen.
type Lifecycle = (Option<u64>, Option<(u64, u64)>);

/// A log₂-bucketed latency histogram over nanosecond samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` ns (bucket 0 also takes
/// zero). Quantiles are reported as the upper bound of the bucket the
/// quantile falls in — at most 2× off, which is plenty for the
/// order-of-magnitude latency questions the paper asks.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Adds one sample, in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        let idx = (63 - nanos.max(1).leading_zeros()) as usize;
        self.buckets[idx.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds (saturating).
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Iterates the buckets as `(upper_bound_ns, count)` pairs — bucket
    /// `i` covers `[2^i, 2^(i+1))` ns, reported by its upper bound.
    /// Counts are per-bucket (not cumulative); exporters wanting
    /// Prometheus-style cumulative `le` buckets accumulate while walking.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (1u64 << (i + 1).min(63), c))
    }

    /// True if no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest sample, in nanoseconds (0 when empty).
    pub fn min_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket holding quantile `q` (`0.0..=1.0`), in
    /// nanoseconds. Returns 0 when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }
}

/// Formats nanoseconds with a human unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{}.{}µs", ns / 1_000, (ns % 1_000) / 100),
        1_000_000..=999_999_999 => format!("{}.{}ms", ns / 1_000_000, (ns % 1_000_000) / 100_000),
        _ => format!(
            "{}.{}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 100_000_000
        ),
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(no samples)");
        }
        write!(
            f,
            "n={} min={} mean={} p50≤{} p90≤{} p99≤{} max={}",
            self.count,
            fmt_ns(self.min_nanos()),
            fmt_ns(self.mean_nanos()),
            fmt_ns(self.quantile_nanos(0.50)),
            fmt_ns(self.quantile_nanos(0.90)),
            fmt_ns(self.quantile_nanos(0.99)),
            fmt_ns(self.max_nanos()),
        )
    }
}

/// Statistics derived from a [`Trace`](super::Trace): every number the
/// ISSUE's empirical checks need, computed in one pass over the events.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct TraceStats {
    /// Steal attempts recorded (the paper's `R`).
    pub steal_attempts: u64,
    /// Attempts that returned a task.
    pub steal_successes: u64,
    /// Attempts that found an empty/freed victim.
    pub steal_empty: u64,
    /// Attempts abandoned after losing pop-top races.
    pub steal_lost_race: u64,
    /// Attempts whose live-set draw raced the victim's `free()` and found
    /// it dead (freed, not reused); ~0 in practice.
    pub steal_dead: u64,
    /// Multi-task steal batches recorded (steal-half claims of ≥ 2).
    pub steal_batches: u64,
    /// Tasks claimed across all multi-task batches.
    pub steal_batch_tasks: u64,
    /// Largest single steal batch.
    pub max_steal_batch: u64,
    /// Suspensions registered.
    pub suspensions: u64,
    /// Resume events delivered (sum of batch lengths).
    pub resumes_delivered: u64,
    /// Resume batches delivered.
    pub resume_batches: u64,
    /// Largest delivered batch.
    pub max_resume_batch: u64,
    /// Deque switches (idle worker resumed a ready deque).
    pub deque_switches: u64,
    /// Live-set registry shard compactions.
    pub registry_compactions: u64,
    /// Parks recorded.
    pub parks: u64,
    /// Unparks recorded.
    pub unparks: u64,
    /// External injections recorded.
    pub injects: u64,
    /// I/O readiness waits registered with a reactor driver.
    pub io_registrations: u64,
    /// Kernel readiness events the reactor turned into completions.
    pub io_readiness_events: u64,
    /// I/O waits withdrawn without readiness (cancel/timeout/shutdown).
    pub io_deregistrations: u64,
    /// Worker scheduler-loop deaths recorded (supervised panics).
    pub worker_deaths: u64,
    /// Worker respawns recorded (each follows a death on the same ring).
    pub worker_respawns: u64,
    /// Deques rescued across all respawns (sum of per-respawn counts;
    /// cross-checks the `deques_rescued` metric).
    pub rescued_deques: u64,
    /// Suspension registration → enable (delivery) latency: the latency
    /// the operation actually incurred.
    pub suspend_to_enable: LatencyHistogram,
    /// Enable → ready latency: delivery until the owner drained the event
    /// into a deque (the scheduler's share of resume delay).
    pub enable_to_ready: LatencyHistogram,
    /// Ready → executed latency: in-deque wait until the resumed task's
    /// next poll.
    pub ready_to_exec: LatencyHistogram,
    /// Per-worker live-deque high-water marks (Lemma 7: ≤ `U + 1`).
    pub deque_high_water: Vec<u64>,
}

impl TraceStats {
    /// Computes the statistics from `events` recorded across `workers`
    /// rings.
    pub fn from_events(events: &[TraceEvent], workers: usize) -> TraceStats {
        let mut live = LiveStats::new(workers);
        live.observe(events);
        live.into_stats()
    }

    /// Fraction of steal attempts that succeeded (`0.0` when none).
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_successes as f64 / self.steal_attempts as f64
        }
    }

    /// The largest per-worker deque high-water mark.
    pub fn max_deque_high_water(&self) -> u64 {
        self.deque_high_water.iter().copied().max().unwrap_or(0)
    }
}

/// Incremental [`TraceStats`] folder for live observation: feed it
/// [`TraceReader`](super::TraceReader) batches as they arrive and read
/// the running statistics between polls. Suspension lifecycles are paired
/// across batches — a `Suspend` in one poll and its `ResumeExec` three
/// polls later still produce one latency sample.
#[derive(Debug, Clone, Default)]
pub struct LiveStats {
    stats: TraceStats,
    /// seq → (suspend_ts, (enabled_at, ready_ts)); carried across
    /// batches so lifecycles split over polls still pair up.
    pending: HashMap<u64, Lifecycle>,
}

impl LiveStats {
    /// Creates an empty folder covering `workers` rings.
    pub fn new(workers: usize) -> LiveStats {
        LiveStats {
            stats: TraceStats {
                deque_high_water: vec![0; workers],
                ..TraceStats::default()
            },
            pending: HashMap::new(),
        }
    }

    /// The statistics folded so far.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Consumes the folder, returning the statistics.
    pub fn into_stats(self) -> TraceStats {
        self.stats
    }

    /// Suspension lifecycles still in flight (seen but not yet executed).
    pub fn pending_lifecycles(&self) -> usize {
        self.pending.len()
    }

    /// Folds one batch of events into the running statistics.
    pub fn observe(&mut self, events: &[TraceEvent]) {
        let s = &mut self.stats;
        let pending = &mut self.pending;
        for ev in events {
            match ev.kind {
                EventKind::Steal { outcome, .. } => {
                    s.steal_attempts += 1;
                    match outcome {
                        StealOutcome::Success => s.steal_successes += 1,
                        StealOutcome::Empty => s.steal_empty += 1,
                        StealOutcome::LostRace => s.steal_lost_race += 1,
                        StealOutcome::Dead => s.steal_dead += 1,
                    }
                }
                EventKind::StealBatch { n, .. } => {
                    s.steal_batches += 1;
                    s.steal_batch_tasks += n as u64;
                    s.max_steal_batch = s.max_steal_batch.max(n as u64);
                }
                EventKind::Suspend { seq, .. } => {
                    s.suspensions += 1;
                    pending.entry(seq).or_default().0 = Some(ev.ts);
                }
                EventKind::Resume { batch_len, .. } => {
                    s.resume_batches += 1;
                    s.resumes_delivered += batch_len as u64;
                    s.max_resume_batch = s.max_resume_batch.max(batch_len as u64);
                }
                EventKind::ResumeReady { seq, enabled_at } => {
                    let entry = pending.entry(seq).or_default();
                    entry.1 = Some((enabled_at, ev.ts));
                }
                EventKind::ResumeExec { seq } => {
                    if let Some((suspend, Some((enabled_at, ready_ts)))) = pending.remove(&seq) {
                        if let Some(suspend_ts) = suspend {
                            s.suspend_to_enable
                                .record(enabled_at.saturating_sub(suspend_ts));
                        }
                        s.enable_to_ready
                            .record(ready_ts.saturating_sub(enabled_at));
                        s.ready_to_exec.record(ev.ts.saturating_sub(ready_ts));
                    }
                }
                EventKind::DequeSwitch { .. } => s.deque_switches += 1,
                EventKind::DequeAlloc { live } => {
                    if let Some(hw) = s.deque_high_water.get_mut(ev.worker as usize) {
                        *hw = (*hw).max(live as u64);
                    }
                }
                EventKind::DequeRelease { .. } => {}
                EventKind::RegistryCompact { .. } => s.registry_compactions += 1,
                EventKind::Park => s.parks += 1,
                EventKind::Unpark { .. } => s.unparks += 1,
                EventKind::Inject => s.injects += 1,
                EventKind::IoRegister { .. } => s.io_registrations += 1,
                EventKind::IoReady { .. } => s.io_readiness_events += 1,
                EventKind::IoDeregister { .. } => s.io_deregistrations += 1,
                EventKind::WorkerDeath { .. } => s.worker_deaths += 1,
                EventKind::WorkerRespawn { rescued, .. } => {
                    s.worker_respawns += 1;
                    s.rescued_deques += rescued as u64;
                }
            }
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "steals            : {}/{} succeeded ({:.1}%), {} empty, {} lost races, {} dead",
            self.steal_successes,
            self.steal_attempts,
            self.steal_success_rate() * 100.0,
            self.steal_empty,
            self.steal_lost_race,
            self.steal_dead,
        )?;
        writeln!(
            f,
            "steal batches     : {} batches, {} tasks (max batch {})",
            self.steal_batches, self.steal_batch_tasks, self.max_steal_batch,
        )?;
        writeln!(
            f,
            "suspensions       : {} registered, {} resumed in {} batches (max batch {})",
            self.suspensions, self.resumes_delivered, self.resume_batches, self.max_resume_batch,
        )?;
        writeln!(f, "suspend→enable    : {}", self.suspend_to_enable)?;
        writeln!(f, "enable→ready      : {}", self.enable_to_ready)?;
        writeln!(f, "ready→executed    : {}", self.ready_to_exec)?;
        writeln!(
            f,
            "deque switches    : {}  parks: {}  unparks: {}  injects: {}  compactions: {}",
            self.deque_switches, self.parks, self.unparks, self.injects, self.registry_compactions,
        )?;
        writeln!(
            f,
            "io waits          : {} registered, {} readiness, {} deregistered",
            self.io_registrations, self.io_readiness_events, self.io_deregistrations,
        )?;
        if self.worker_deaths > 0 || self.worker_respawns > 0 {
            writeln!(
                f,
                "worker deaths     : {} died, {} respawned, {} deques rescued",
                self.worker_deaths, self.worker_respawns, self.rescued_deques,
            )?;
        }
        write!(
            f,
            "deque high-water  : {:?} (max {})",
            self.deque_high_water,
            self.max_deque_high_water(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SuspendKind, NONE_ID};
    use super::*;

    fn ev(ts: u64, worker: u32, kind: EventKind) -> TraceEvent {
        TraceEvent { ts, worker, kind }
    }

    #[test]
    fn histogram_basics() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        for v in [100, 200, 400, 800, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_nanos(), 100);
        assert_eq!(h.max_nanos(), 100_000);
        assert!(h.mean_nanos() > 0);
        // The median (3rd of 5) is 400, bucket [256,512) → upper bound 512.
        assert_eq!(h.quantile_nanos(0.5), 512);
        assert!(h.quantile_nanos(1.0) >= 100_000 / 2);
        assert!(!format!("{h}").is_empty());
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_nanos(), 0);
    }

    #[test]
    fn stats_steals_and_rate() {
        let mk = |o| EventKind::Steal {
            victim_deque: 1,
            victim_worker: 0,
            outcome: o,
        };
        let events = vec![
            ev(1, 0, mk(StealOutcome::Success)),
            ev(2, 0, mk(StealOutcome::Empty)),
            ev(3, 1, mk(StealOutcome::Empty)),
            ev(4, 1, mk(StealOutcome::LostRace)),
        ];
        let s = TraceStats::from_events(&events, 2);
        assert_eq!(s.steal_attempts, 4);
        assert_eq!(s.steal_successes, 1);
        assert_eq!(s.steal_empty, 2);
        assert_eq!(s.steal_lost_race, 1);
        assert!((s.steal_success_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn stats_steal_batches_counted() {
        let events = vec![
            ev(1, 0, EventKind::StealBatch { victim: 3, n: 4 }),
            ev(2, 1, EventKind::StealBatch { victim: 3, n: 2 }),
        ];
        let s = TraceStats::from_events(&events, 2);
        assert_eq!(s.steal_batches, 2);
        assert_eq!(s.steal_batch_tasks, 6);
        assert_eq!(s.max_steal_batch, 4);
        assert!(format!("{s}").contains("steal batches"));
    }

    #[test]
    fn stats_suspension_lifecycle_pairs_by_seq() {
        let events = vec![
            ev(
                100,
                0,
                EventKind::Suspend {
                    deque: 0,
                    kind: SuspendKind::Timer,
                    seq: 7,
                },
            ),
            ev(
                500,
                NONE_ID,
                EventKind::Resume {
                    batch_len: 1,
                    tick: 3,
                },
            ),
            ev(
                600,
                0,
                EventKind::ResumeReady {
                    seq: 7,
                    enabled_at: 500,
                },
            ),
            ev(900, 0, EventKind::ResumeExec { seq: 7 }),
        ];
        let s = TraceStats::from_events(&events, 1);
        assert_eq!(s.suspensions, 1);
        assert_eq!(s.resumes_delivered, 1);
        assert_eq!(s.suspend_to_enable.count(), 1);
        assert_eq!(s.suspend_to_enable.min_nanos(), 400);
        assert_eq!(s.enable_to_ready.min_nanos(), 100);
        assert_eq!(s.ready_to_exec.min_nanos(), 300);
    }

    #[test]
    fn stats_io_events_counted() {
        let events = vec![
            ev(1, 0, EventKind::IoRegister { token: 1 }),
            ev(2, NONE_ID, EventKind::IoReady { token: 1 }),
            ev(3, 0, EventKind::IoRegister { token: 2 }),
            ev(4, 0, EventKind::IoDeregister { token: 2 }),
        ];
        let s = TraceStats::from_events(&events, 1);
        assert_eq!(s.io_registrations, 2);
        assert_eq!(s.io_readiness_events, 1);
        assert_eq!(s.io_deregistrations, 1);
        assert!(format!("{s}").contains("io waits"));
    }

    #[test]
    fn live_stats_pairs_lifecycles_across_batches() {
        let mut ls = LiveStats::new(1);
        ls.observe(&[ev(
            100,
            0,
            EventKind::Suspend {
                deque: 0,
                kind: SuspendKind::Timer,
                seq: 7,
            },
        )]);
        assert_eq!(ls.stats().suspensions, 1);
        assert_eq!(ls.pending_lifecycles(), 1);
        ls.observe(&[ev(
            600,
            0,
            EventKind::ResumeReady {
                seq: 7,
                enabled_at: 500,
            },
        )]);
        ls.observe(&[ev(900, 0, EventKind::ResumeExec { seq: 7 })]);
        assert_eq!(ls.stats().suspend_to_enable.count(), 1);
        assert_eq!(ls.stats().suspend_to_enable.min_nanos(), 400);
        assert_eq!(ls.stats().ready_to_exec.min_nanos(), 300);
        assert_eq!(ls.pending_lifecycles(), 0);
    }

    #[test]
    fn histogram_buckets_iterate_with_bounds() {
        let mut h = LatencyHistogram::default();
        h.record(3); // bucket [2,4) → upper bound 4
        h.record(1000); // bucket [512,1024) → wait: 1000 < 1024, idx 9 → le 1024
        let nonzero: Vec<(u64, u64)> = h.buckets().filter(|&(_, c)| c > 0).collect();
        assert_eq!(nonzero, vec![(4, 1), (1024, 1)]);
        assert_eq!(h.sum_nanos(), 1003);
        assert_eq!(h.buckets().map(|(_, c)| c).sum::<u64>(), h.count());
    }

    #[test]
    fn stats_high_water_per_worker() {
        let events = vec![
            ev(1, 0, EventKind::DequeAlloc { live: 1 }),
            ev(2, 0, EventKind::DequeAlloc { live: 2 }),
            ev(3, 0, EventKind::DequeRelease { live: 1 }),
            ev(4, 1, EventKind::DequeAlloc { live: 5 }),
        ];
        let s = TraceStats::from_events(&events, 2);
        assert_eq!(s.deque_high_water, vec![2, 5]);
        assert_eq!(s.max_deque_high_water(), 5);
    }
}
