//! Shared machinery for the benchmark harness binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §3 for the index); the
//! helpers here provide the map-reduce workload used by Figure 11, simple
//! flag parsing (no CLI dependency), and plain-text table output.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws_core::{join_all, par_map_reduce, simulate_latency, Config, LatencyMode, Runtime};
use lhws_deque::{chase_lev, ChaseLevWorker, Registry, Steal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sequential naive Fibonacci — the paper's per-leaf computation
/// (`fib(30)` in the original evaluation).
pub fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Parameters of the Figure 11 benchmark: map-reduce over `n` remote
/// values, each incurring `delta` of latency then computing `fib(fib_n)`,
/// summed modulo a large constant.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Params {
    /// Number of remote values (the paper: 5000). Equals the suspension
    /// width.
    pub n: u64,
    /// Simulated latency per fetch.
    pub delta: Duration,
    /// Fibonacci index computed per element (the paper: 30).
    pub fib_n: u64,
}

/// The paper's "large constant" modulus for the running sum.
pub const MODULUS: u64 = 1_000_000_007;

/// Runs the Figure 11 benchmark once on a fresh runtime and returns the
/// wall-clock time and the checksum.
pub fn run_fig11(params: Fig11Params, workers: usize, mode: LatencyMode) -> (Duration, u64) {
    let rt = Runtime::new(Config::default().workers(workers).mode(mode)).unwrap();
    let delta = params.delta;
    let fib_n = params.fib_n;
    let start = Instant::now();
    let sum = rt.block_on(async move {
        par_map_reduce(
            0,
            params.n,
            move |_i| async move {
                // The paper's benchmark "simulates a latency of δ ms by
                // sleeping for δ ms and then immediately returning 30".
                simulate_latency(delta).await;
                fib(fib_n) % MODULUS
            },
            |a, b| (a + b) % MODULUS,
            0,
        )
        .await
    });
    (start.elapsed(), sum)
}

/// Expected checksum for [`run_fig11`] (for validating harness runs).
pub fn fig11_checksum(params: Fig11Params) -> u64 {
    let per = fib(params.fib_n) % MODULUS;
    (0..params.n).fold(0u64, |acc, _| (acc + per) % MODULUS)
}

/// Minimal flag parser: `--name value` pairs and bare subcommands.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse() -> Args {
        let mut out = Args::default();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.pairs.push((name.to_string(), it.next().unwrap()));
                    }
                    _ => out.flags.push(name.to_string()),
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Value of `--name`, parsed, or the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// True if `--name` appeared as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string value of `--name`, when it was given one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Formats a speedup ×100 value as e.g. "12.34".
pub fn fmt_x100(v: u64) -> String {
    format!("{}.{:02}", v / 100, v % 100)
}

/// Standard worker counts for a host-limited sweep: 1, 2, 4, ... up to the
/// available parallelism.
pub fn host_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut ps = vec![1usize];
    let mut p = 2;
    while p < max {
        ps.push(p);
        p *= 2;
    }
    if *ps.last().unwrap() != max {
        ps.push(max);
    }
    ps
}

// ---------------------------------------------------------------------
// Resume-path benchmark (suspension-register/resume throughput).
// ---------------------------------------------------------------------

/// One measured configuration of the resume-path benchmark: `suspensions`
/// register+resume round-trips through the timer wheel at `workers`
/// workers, taking `elapsed` of wall clock in total.
#[derive(Debug, Clone)]
pub struct ResumeMeasurement {
    /// Worker-thread count.
    pub workers: usize,
    /// Total register+resume pairs driven through the timer.
    pub suspensions: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl ResumeMeasurement {
    /// Register+resume pairs per second.
    pub fn throughput(&self) -> f64 {
        self.suspensions as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Builds a runtime configured for resume-path measurements.
pub fn resume_rt(workers: usize) -> Runtime {
    Runtime::new(Config::default().workers(workers).seed(7)).unwrap()
}

/// Drives one wave of `tasks` suspensions, each expiring `horizon` after
/// its first poll: every task registers with the timer, deadlines land
/// densely across the spawn window, and the wave completes when every
/// resumed task has run. This is the suspension/resume hot path end to
/// end — register, expire, batch-deliver, drain, reinject. (`horizon` is
/// per-task, not a common absolute deadline: an absolute deadline in the
/// past would complete without ever touching the timer.)
pub fn resume_wave(rt: &Runtime, tasks: u64, horizon: Duration) {
    rt.block_on(async move {
        let hs: Vec<_> = (0..tasks)
            .map(|_| {
                lhws_core::spawn(async move {
                    simulate_latency(horizon).await;
                })
            })
            .collect();
        join_all(hs).await;
    });
}

/// Measures `rounds` waves of `tasks` suspensions on a fresh runtime and
/// returns the aggregate measurement. Panics if the runtime's metrics
/// disagree with the requested suspension count (a lost or duplicated
/// resume would corrupt the benchmark silently otherwise).
pub fn measure_resume(
    workers: usize,
    tasks: u64,
    rounds: u64,
    horizon: Duration,
) -> ResumeMeasurement {
    let rt = resume_rt(workers);
    resume_wave(&rt, tasks.min(512), horizon); // warm up workers and timer
    let before = rt.metrics();
    let t = Instant::now();
    for _ in 0..rounds {
        resume_wave(&rt, tasks, horizon);
    }
    let elapsed = t.elapsed();
    let d = rt.metrics().since(&before);
    assert_eq!(d.suspensions, tasks * rounds, "every task registered once");
    assert_eq!(d.resumes, tasks * rounds, "every registration resumed once");
    ResumeMeasurement {
        workers,
        suspensions: tasks * rounds,
        elapsed,
    }
}

/// Shard count for the steal-benchmark registry — stands in for the
/// worker count of a medium-sized runtime.
const STEAL_SHARDS: usize = 8;

/// Builds a registry of `deques` live deques with `items` stealable
/// items each. The worker handles are returned too: dropping one would
/// sever its stealer.
fn steal_registry(deques: usize, items: usize) -> (Arc<Registry<u64>>, Vec<ChaseLevWorker<u64>>) {
    let reg = Registry::with_capacity_and_shards(deques, STEAL_SHARDS);
    let mut handles = Vec::with_capacity(deques);
    for i in 0..deques {
        let (w, s) = chase_lev::deque();
        reg.register(i % STEAL_SHARDS, s).expect("sized to fit");
        for item in 0..items {
            w.push_bottom(item as u64);
        }
        handles.push(w);
    }
    (Arc::new(reg), handles)
}

// ---------------------------------------------------------------------
// Steal-policy benchmark (steal-half batching vs single steals).
// ---------------------------------------------------------------------

/// One measured configuration of the steal-policy benchmark: `thieves`
/// threads drain a pool of live deques preloaded with `depth` items each,
/// stealing single items (`batch_limit == 1`, the paper's single-task
/// steal) or steal-half batches capped at `batch_limit`. Every probe
/// draws a fresh uniform victim from the live set, like the worker's.
#[derive(Debug, Clone)]
pub struct StealPolicyMeasurement {
    /// Steal-half cap; `1` uses the plain single-steal entry point.
    pub batch_limit: usize,
    /// Thief-thread count.
    pub thieves: usize,
    /// Items preloaded per victim deque.
    pub depth: usize,
    /// Total tasks drained across all rounds.
    pub tasks: u64,
    /// Victim draws.
    pub draws: u64,
    /// Drain rounds run (each drains the full pool once).
    pub rounds: u64,
    /// Total wall-clock time (drain phases only; registry rebuilds are
    /// excluded).
    pub elapsed: Duration,
    /// The fastest single round's drain time.
    pub best_round: Duration,
}

impl StealPolicyMeasurement {
    /// Mean tasks acquired per second over all rounds.
    pub fn task_throughput(&self) -> f64 {
        self.tasks as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Best-round tasks per second — the headline number. The min-time
    /// estimator is robust to scheduler interference (CI hosts can
    /// report a single hardware slot, so a round occasionally loses
    /// whole quanta to unrelated load); the mean is reported alongside.
    pub fn peak_throughput(&self) -> f64 {
        let per_round = self.tasks as f64 / (self.rounds as f64).max(1.0);
        per_round / self.best_round.as_secs_f64().max(1e-9)
    }

    /// Mean tasks per successful victim acquisition (≥ 1 under batching).
    pub fn tasks_per_draw(&self) -> f64 {
        self.tasks as f64 / (self.draws as f64).max(1.0)
    }
}

/// Live deques in the steal-policy pool (8 per shard): enough spread that
/// thieves collide on victims at realistic rates, small enough that a
/// drain actually finishes.
const POLICY_DEQUES: usize = 64;

/// Measures task-acquisition throughput for one steal-policy cell:
/// rounds of building a 64-deque pool (`POLICY_DEQUES`) at `depth` items
/// each, then timing `thieves` threads draining it completely. Rounds
/// repeat until ≈`target_tasks` tasks have been drained (at most 256
/// rounds, so shallow shapes stay bounded).
pub fn measure_steal_policy(
    batch_limit: usize,
    thieves: usize,
    depth: usize,
    target_tasks: u64,
) -> StealPolicyMeasurement {
    use std::sync::atomic::{AtomicU64, Ordering};

    let per_round = (POLICY_DEQUES * depth) as u64;
    // At least 4 rounds so the best-round (min-time) estimator has
    // samples to pick from even on the deep shapes.
    let rounds = (target_tasks.div_ceil(per_round)).clamp(4, 256);
    let mut tasks = 0u64;
    let mut draws = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut best_round = Duration::MAX;

    for round in 0..rounds {
        let (reg, handles) = steal_registry(POLICY_DEQUES, depth);
        let remaining = AtomicU64::new(per_round);
        let t = Instant::now();
        let round_draws: u64 = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..thieves)
                .map(|tid| {
                    let reg = Arc::clone(&reg);
                    let remaining = &remaining;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0x1DEA_0000 + round * 131 + tid as u64);
                        let mut draws = 0u64;
                        let mut out: Vec<u64> = Vec::with_capacity(batch_limit);
                        let mut misses = 0u32;
                        while remaining.load(Ordering::Relaxed) > 0 {
                            let Some(id) = reg.random_live_id(rng.gen()) else {
                                break;
                            };
                            draws += 1;
                            let got = if batch_limit <= 1 {
                                // The dedicated single-steal entry point.
                                match reg.steal(id) {
                                    Steal::Success(_) => 1,
                                    _ => 0,
                                }
                            } else {
                                out.clear();
                                match reg.steal_batch(id, batch_limit, &mut out) {
                                    Steal::Success(n) => n as u64,
                                    _ => 0,
                                }
                            };
                            if got > 0 {
                                remaining.fetch_sub(got, Ordering::Relaxed);
                                misses = 0;
                            } else {
                                // Brief spin backoff like the worker's
                                // probe loop, then yield the OS thread:
                                // on an oversubscribed host a spinning
                                // thief would otherwise burn its whole
                                // quantum starving the thieves that
                                // still have work to claim.
                                if misses < 3 {
                                    for _ in 0..(1u32 << misses) {
                                        std::hint::spin_loop();
                                    }
                                } else {
                                    std::thread::yield_now();
                                }
                                misses = (misses + 1).min(3);
                            }
                        }
                        draws
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("thief thread panicked"))
                .sum()
        });
        let dt = t.elapsed();
        elapsed += dt;
        best_round = best_round.min(dt);
        tasks += per_round;
        draws += round_draws;
        drop(handles);
    }

    StealPolicyMeasurement {
        batch_limit,
        thieves,
        depth,
        tasks,
        draws,
        rounds,
        elapsed,
        best_round,
    }
}

/// Writes steal-policy measurements as JSON (hand-rolled — the workspace
/// builds offline, without serde). Includes the batched/single throughput
/// ratio per (thieves, depth) point; the acceptance number is
/// ≥1.3x for steal-half on the deep-victim shape at ≥4 thieves.
pub fn write_bench_steal_policy_json(
    path: &std::path::Path,
    mode: &str,
    measurements: &[StealPolicyMeasurement],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"steal_policy\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    ));
    out.push_str("  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batch_limit\": {}, \"thieves\": {}, \
             \"depth\": {}, \"tasks\": {}, \"draws\": {}, \"tasks_per_draw\": {:.3}, \
             \"rounds\": {}, \"elapsed_ns\": {}, \"tasks_per_sec\": {:.1}, \
             \"peak_tasks_per_sec\": {:.1}}}{}\n",
            m.batch_limit,
            m.thieves,
            m.depth,
            m.tasks,
            m.draws,
            m.tasks_per_draw(),
            m.rounds,
            m.elapsed.as_nanos(),
            m.task_throughput(),
            m.peak_throughput(),
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedup_batch_over_single\": [\n");
    let mut pairs: Vec<(usize, usize, usize, f64)> = Vec::new();
    for b in measurements.iter().filter(|m| m.batch_limit > 1) {
        if let Some(s) = measurements
            .iter()
            .find(|m| m.batch_limit == 1 && m.thieves == b.thieves && m.depth == b.depth)
        {
            pairs.push((
                b.batch_limit,
                b.thieves,
                b.depth,
                // Speedups compare the robust (best-round) estimates.
                b.peak_throughput() / s.peak_throughput().max(1e-9),
            ));
        }
    }
    for (i, (l, p, d, x)) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batch_limit\": {l}, \"thieves\": {p}, \
             \"depth\": {d}, \"speedup\": {x:.2}}}{}\n",
            if i + 1 < pairs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Re-exported for harness binaries.
pub use lhws_core as core_rt;
pub use lhws_dag as dag;
pub use lhws_sim as sim;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_values() {
        assert_eq!(fib(10), 55);
        assert_eq!(fib(20), 6765);
    }

    #[test]
    fn checksum_matches_run() {
        let params = Fig11Params {
            n: 8,
            delta: Duration::from_millis(1),
            fib_n: 12,
        };
        let (_, sum) = run_fig11(params, 2, LatencyMode::Hide);
        assert_eq!(sum, fig11_checksum(params));
        let (_, sum_b) = run_fig11(params, 2, LatencyMode::Block);
        assert_eq!(sum_b, fig11_checksum(params));
    }

    #[test]
    fn host_sweep_shape() {
        let ps = host_sweep();
        assert_eq!(ps[0], 1);
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fmt_x100_format() {
        assert_eq!(fmt_x100(1234), "12.34");
        assert_eq!(fmt_x100(100), "1.00");
        assert_eq!(fmt_x100(5), "0.05");
    }
}
