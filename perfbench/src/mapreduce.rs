//! `mapreduce` and `suspend_storm`: the paper's Figure 11 map-reduce on
//! the real runtime. Every item awaits `simulate_latency(δ)` and then
//! computes `fib(leaf)`; `par_map_reduce` sums the items mod 1e9+7.
//!
//! Neither workload has random input: the seed is recorded, and the
//! inputs are the same for every seed.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::{par_map_reduce, simulate_latency, Runtime};

use crate::layers;
use crate::report::{self, Outcome};
use crate::stats::{self, Windows};
use crate::{check_shutdown, fib, fib_iter, runtime, WORKERS};

/// Modulus of the map-reduce checksum.
const MODULUS: u64 = 1_000_000_007;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Items per instance whose latency is recorded (every `stride`-th).
const SAMPLED_ITEMS: u64 = 4096;

/// One map-reduce instance: `n` items of `δ` latency then `fib(leaf)`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: u64,
    pub delta: Duration,
    pub leaf: u32,
}

/// Figure 11 scaled to P = 2: compute-bound once latency is hidden.
pub const MAPREDUCE: Shape = Shape {
    n: 4096,
    delta: Duration::from_millis(10),
    leaf: 22,
};

/// Nearly empty leaves: each item is one suspend → timer → resume trip.
pub const SUSPEND_STORM: Shape = Shape {
    n: 16_384,
    delta: Duration::from_millis(1),
    leaf: 0,
};

/// Stamps, in ns since `epoch`, of every `stride`-th item of the
/// running instance. Each sampled slot is rewritten by every instance.
struct Probe {
    epoch: Instant,
    stride: u64,
    start: Vec<AtomicU64>,
    resumed: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
}

impl Probe {
    fn new(n: u64) -> Probe {
        let stride = (n / SAMPLED_ITEMS).max(1);
        let slots = n.div_ceil(stride) as usize;
        let col = || (0..slots).map(|_| AtomicU64::new(0)).collect();
        Probe {
            epoch: Instant::now(),
            stride,
            start: col(),
            resumed: col(),
            done: col(),
        }
    }

    fn stamp(&self, col: &[AtomicU64], slot: usize) {
        let ns = self.epoch.elapsed().as_nanos() as u64;
        col[slot].store(ns, Ordering::Relaxed);
    }

    fn ms_between(from: &AtomicU64, to: &AtomicU64) -> f64 {
        let (a, b) = (from.load(Ordering::Relaxed), to.load(Ordering::Relaxed));
        b.saturating_sub(a) as f64 / 1e6
    }
}

/// The checksum's closed form: `Σ (fib(leaf) + i) mod p` over `0..n`.
fn expected(shape: Shape) -> u64 {
    let n = u128::from(shape.n);
    let f = u128::from(fib_iter(shape.leaf));
    ((n * f + n * (n - 1) / 2) % u128::from(MODULUS)) as u64
}

/// Runs one instance; returns the checksum and the makespan.
fn instance(rt: &Runtime, shape: Shape, probe: &Arc<Probe>, traced: bool) -> (u64, Duration) {
    let p = probe.clone();
    let item = move |i: u64| {
        let p = p.clone();
        async move {
            let slot = i
                .is_multiple_of(p.stride)
                .then_some((i / p.stride) as usize);
            if let Some(s) = slot {
                p.stamp(&p.start, s);
            }
            simulate_latency(shape.delta).await;
            if let (true, Some(s)) = (traced, slot) {
                p.stamp(&p.resumed, s);
            }
            let v = (fib(black_box(shape.leaf)) + i) % MODULUS;
            if let Some(s) = slot {
                p.stamp(&p.done, s);
            }
            v
        }
    };
    let t = Instant::now();
    let sum = rt.block_on(par_map_reduce(
        0,
        shape.n,
        item,
        |a, b| (a + b) % MODULUS,
        0,
    ));
    (sum, t.elapsed())
}

/// Serial time of one `fib(leaf)` in seconds: median of timed batches.
fn serial_leaf_s(leaf: u32) -> f64 {
    let per = if leaf >= 16 { 1 } else { 1000 };
    let batches: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                black_box(fib(black_box(leaf)));
            }
            t.elapsed().as_secs_f64() / per as f64
        })
        .collect();
    stats::median(&batches)
}

/// Runs `shape` for `seconds` after set-up and one warm-up instance.
/// `skew` is added to the expected checksum; it is 0 except in the
/// self-test that shows a wrong checksum is counted as a failure.
pub fn run(shape: Shape, seconds: f64, trace: bool, skew: u64) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.notes.push(format!(
        "shape: n={} delta_ms={} leaf=fib({}) workers={WORKERS}; no random input",
        shape.n,
        shape.delta.as_secs_f64() * 1e3,
        shape.leaf
    ));
    let t_leaf = trace.then(|| serial_leaf_s(shape.leaf));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut rt: Option<Runtime> = None;
    for _ in 0..SETUPS {
        if let Some(old) = rt.take() {
            check_shutdown(&mut o, old.shutdown(), "set-up runtime");
        }
        let t = Instant::now();
        let fresh = runtime()?;
        fresh.block_on(async {});
        setups.push(t.elapsed().as_secs_f64());
        rt = Some(fresh);
    }
    let rt = rt.expect("at least one set-up");

    let want = expected(shape).wrapping_add(skew) % MODULUS;
    let probe = Arc::new(Probe::new(shape.n));
    let check = |o: &mut Outcome, sum: u64, d: &lhws::MetricsSnapshot| {
        o.op(
            sum == want && d.suspensions == shape.n && d.resumes == shape.n,
            || {
                format!(
                    "instance: checksum {sum} (want {want}), suspensions {} and resumes {} (want {} each)",
                    d.suspensions, d.resumes, shape.n
                )
            },
        );
    };

    let before = rt.metrics();
    let (sum, _) = instance(&rt, shape, &probe, false);
    check(&mut o, sum, &rt.metrics().delta(&before));

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Item percentiles per window of about one instance's samples,
    // reported as the median over windows.
    let window = |pms: &[u32]| Windows::new(pms, SAMPLED_ITEMS as usize, 500);
    let (mut latency, mut lateness, mut leaf) =
        (window(&[500, 990]), window(&[500, 990]), window(&[500]));
    let delta_us = shape.delta.as_secs_f64() * 1e6;
    let slots = 0..probe.start.len();
    let start = rt.metrics();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let is_traced = trace && i % 2 == 1;
        i += 1;
        let before = rt.metrics();
        let (sum, makespan) = instance(&rt, shape, &probe, is_traced);
        check(&mut o, sum, &rt.metrics().delta(&before));
        let ms = makespan.as_secs_f64() * 1e3;
        if is_traced {
            traced.push(ms);
            lateness.extend(
                slots.clone().map(|s| {
                    Probe::ms_between(&probe.start[s], &probe.resumed[s]) * 1e3 - delta_us
                }),
            );
            leaf.extend(
                slots
                    .clone()
                    .map(|s| Probe::ms_between(&probe.resumed[s], &probe.done[s]) * 1e3),
            );
        } else {
            plain.push(ms);
            latency.extend(
                slots
                    .clone()
                    .map(|s| Probe::ms_between(&probe.start[s], &probe.done[s])),
            );
        }
    }
    let measured = rt.metrics().delta(&start);

    if trace {
        layers::counters(&mut o, &measured, i as f64, (i * shape.n) as f64);
        layers::obs_costs(&mut o, &rt);
        o.windowed("timer.lateness_us_p50", &mut lateness, 500);
        o.windowed("timer.lateness_us_p99", &mut lateness, 990);
        o.windowed("compute.leaf_us_p50", &mut leaf, 500);
        let base = stats::median(&plain);
        o.set("obs.trace_overhead", stats::median(&traced) / base);
        let t_leaf = t_leaf.expect("timed when tracing");
        let bound_ms = (shape.n as f64 * t_leaf / WORKERS as f64 + shape.delta.as_secs_f64()) * 1e3;
        o.notes.push(format!(
            "bound: n*t_leaf/P + delta = {bound_ms:.4} ms (t_leaf = {:.4} us)",
            t_leaf * 1e6
        ));
        o.set("bound.ratio", base / bound_ms);
    } else {
        let makespans = stats::sorted(&plain);
        o.set("setup_s", stats::median(&setups));
        o.pct("makespan_ms_p50", &makespans, 500);
        o.pct("makespan_ms_p90", &makespans, 900);
        o.note_tail("makespan", &makespans, "ms");
        o.windowed("latency_ms_p50", &mut latency, 500);
        o.windowed("latency_ms_p99", &mut latency, 990);
        let busy_s: f64 = plain.iter().sum::<f64>() / 1e3;
        o.set(
            "goodput_rps",
            (plain.len() as u64 * shape.n) as f64 / busy_s,
        );
    }
    o.notes.push(format!(
        "instances: {} measured ({} traced), set-ups: {SETUPS}",
        i,
        traced.len()
    ));
    check_shutdown(&mut o, rt.shutdown(), "final runtime");
    if let Some(mb) = report::peak_rss_mb() {
        o.set("peak_rss_mb", mb);
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        n: 64,
        delta: Duration::from_millis(1),
        leaf: 10,
    };

    #[test]
    fn closed_form_matches_a_serial_sum() {
        let serial = (0..TINY.n).fold(0, |acc, i| (acc + (fib(TINY.leaf) + i) % MODULUS) % MODULUS);
        assert_eq!(expected(TINY), serial);
    }

    #[test]
    fn tiny_mapreduce_and_storm_pass_their_checks() {
        for shape in [TINY, Shape { leaf: 0, ..TINY }] {
            for trace in [false, true] {
                let o = run(shape, 0.5, trace, 0).expect("runs");
                assert!(o.failures.is_empty(), "{:?}", o.failures);
                assert!(o.attempted > SETUPS as u64);
            }
        }
    }

    #[test]
    fn wrong_checksum_is_counted() {
        let o = run(TINY, 0.5, false, 1).expect("runs");
        // The warm-up and every measured instance fail, nothing else.
        assert!(o.failures.len() >= 100, "{:?}", o.failures);
        assert!(o
            .failures
            .iter()
            .all(|f| f.starts_with("instance: checksum")));
    }
}
