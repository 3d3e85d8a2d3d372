//! Per-layer numbers that come from the runtime's public counters and
//! from timing its observability calls.

use std::time::Instant;

use lhws::{MetricsSnapshot, Runtime};

use crate::report::Outcome;
use crate::stats;

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records the L0–L4 counter metrics from `d`, the `metrics()` delta over
/// the measured phase, which ran `instances` instances of `items` items.
pub fn counters(o: &mut Outcome, d: &MetricsSnapshot, instances: f64, items: f64) {
    let per = |v: u64| ratio(v as f64, instances);
    let per_nk = |v: u64| ratio(v as f64 * 1000.0, items);
    o.set("deque.switches_per_nk", per_nk(d.deque_switches));
    o.set("deque.allocated", per(d.deques_allocated));
    o.set("deque.max_per_worker", d.max_deques_per_worker as f64);
    o.set("registry.steal_attempts", per(d.steals_attempted));
    o.set(
        "registry.steal_hit_ratio",
        ratio(d.steals_succeeded as f64, d.steals_attempted as f64),
    );
    o.set("registry.dead_targets", per(d.steals_dead_target));
    // Single steals move one task each and leave `steal_batch_tasks` 0.
    let moved = d.steal_batch_tasks.max(d.steals_succeeded);
    o.set(
        "registry.tasks_per_steal",
        ratio(moved as f64, d.steals_succeeded as f64),
    );
    o.set(
        "task.polls_per_task",
        ratio(d.polls as f64, d.tasks_spawned as f64),
    );
    o.set("task.unparks_per_nk", per_nk(d.unparks));
    o.set(
        "timer.resumes_per_batch",
        ratio(d.resumes as f64, d.pfor_batches as f64),
    );
    o.set("timer.suspensions", per(d.suspensions));
    o.set("timer.resumes", per(d.resumes));
    o.set("reactor.readiness_events", per(d.io_readiness_events));
    o.set("reactor.timeouts", per(d.io_timeouts));
}

/// L6: the cost of one `Runtime::metrics` snapshot and one Prometheus
/// export, each the median of repeated calls on the idle runtime.
pub fn obs_costs(o: &mut Outcome, rt: &Runtime) {
    let time_us = |reps: usize, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&samples)
    };
    let snapshot = time_us(201, &mut || {
        std::hint::black_box(rt.metrics());
    });
    let observer = rt.observe();
    let mut exported = true;
    let export = time_us(41, &mut || {
        exported &= std::hint::black_box(observer.export_prometheus()).is_some();
    });
    o.op(exported, || {
        "export_prometheus returned None on a live runtime".into()
    });
    o.set("obs.metrics_snapshot_us", snapshot);
    o.set("obs.prometheus_export_us", export);
}
