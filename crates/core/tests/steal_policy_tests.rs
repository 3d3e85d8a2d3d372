//! Integration tests for the thief's steal path: steal-half batching
//! under `steal_batch_limit`, alone and under injected steal failures,
//! and the default single-task steal.

use lhws_core::{join_all, spawn, FaultPlan, Runtime};

/// Spawns `n` trivial tasks from one producer task (building one deep
/// deque for thieves to batch against) and sums the results.
fn scatter(rt: &Runtime, n: u64) -> u64 {
    rt.block_on(async move {
        let handles: Vec<_> = (0..n).map(|i| spawn(async move { i })).collect();
        join_all(handles).await.into_iter().sum()
    })
}

fn expected(n: u64) -> u64 {
    n * (n - 1) / 2
}

#[test]
fn uniform_steal_half_lands_batches() {
    // One producer builds a deep deque; three thieves with a batch cap
    // of 8 must claim multi-task batches from it.
    let rt = Runtime::builder()
        .workers(4)
        .steal_batch_limit(8)
        .trace_capacity(1 << 16)
        .build()
        .unwrap();
    for _ in 0..5 {
        assert_eq!(scatter(&rt, 4_000), expected(4_000));
    }
    let m = rt.metrics();
    assert!(
        m.steal_batch_tasks >= 2,
        "deep-deque run should land at least one multi-task batch: {m}"
    );
    // The StealBatch trace stream agrees with the counter when no events
    // were dropped.
    let trace = rt
        .observe()
        .trace_reader()
        .expect("tracing enabled")
        .poll_events()
        .into_trace();
    if trace.dropped == 0 {
        let s = trace.stats();
        assert_eq!(s.steal_batch_tasks, m.steal_batch_tasks, "{s}");
        assert!(s.max_steal_batch <= 8, "cap respected: {s}");
        assert!(s.steal_batches <= s.steal_attempts, "{s}");
    }
}

#[test]
fn steal_half_completes_under_steal_faults() {
    let rt = Runtime::builder()
        .workers(4)
        .steal_batch_limit(16)
        .fault_plan(FaultPlan::new(5).steal_fail(100_000))
        .build()
        .unwrap();
    for _ in 0..10 {
        assert_eq!(scatter(&rt, 2_000), expected(2_000));
    }
    let m = rt.metrics();
    assert!(m.steals_succeeded <= m.steals_attempted, "{m}");
    let report = rt.shutdown();
    assert_eq!(report.metrics.suspensions, report.metrics.resumes);
}

#[test]
fn default_config_keeps_single_steals() {
    // The default (steal_batch_limit 1) must never take the batch path.
    let rt = Runtime::builder().workers(4).build().unwrap();
    assert_eq!(scatter(&rt, 2_000), expected(2_000));
    let m = rt.metrics();
    assert_eq!(m.steal_batch_tasks, 0, "{m}");
}
