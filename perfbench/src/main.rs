//! End-to-end and per-layer benchmark of the lhws runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mapreduce|suspend_storm|server --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints notes and every metric by name and unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate run that reports the
//! per-layer metrics from the benchmark's own spans around its calls
//! into the facade and from the runtime's `metrics()` counters.

mod layers;
mod mapreduce;
mod report;
mod server;
mod stats;

use std::process::{Command, ExitCode};

use lhws::{LatencyMode, Runtime, ShutdownReport};

use report::{Outcome, END_TO_END, PER_LAYER};

/// Worker threads of every runtime the benchmark builds.
pub const WORKERS: usize = 2;

/// Builds a runtime the way every workload does: defaults except the
/// worker count and Hide mode.
pub fn runtime() -> Result<Runtime, String> {
    Runtime::builder()
        .workers(WORKERS)
        .mode(LatencyMode::Hide)
        .build()
        .map_err(|e| format!("runtime: {e}"))
}

/// Naive doubly recursive Fibonacci: the leaves' CPU work.
pub fn fib(k: u32) -> u64 {
    if k < 2 {
        u64::from(k)
    } else {
        fib(k - 1) + fib(k - 2)
    }
}

/// `fib(k)` by iteration, for the checks.
pub fn fib_iter(k: u32) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..k {
        (a, b) = (b, a + b);
    }
    a
}

/// Counts a shutdown as one operation: it must leave no suspension
/// unresumed and cancel no I/O wait.
pub fn check_shutdown(o: &mut Outcome, r: ShutdownReport, what: &str) {
    o.op(
        r.leaked_suspensions == 0 && r.canceled_io_waits == 0 && r.poisoned_worker.is_none(),
        || {
            format!(
                "{what}: unclean shutdown ({} leaked suspensions, {} canceled I/O waits, poisoned worker {:?})",
                r.leaked_suspensions, r.canceled_io_waits, r.poisoned_worker
            )
        },
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Trimmed output of a successful `cmd`, or `unknown`.
fn probe(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the result was measured on and with.
fn stamp(args: &Args) -> String {
    // `GIT_DIR` pins the lookup to this checkout: outside a git
    // repository the commit reads `unknown` instead of a parent's.
    let commit = probe(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_DIR", ".git"),
    );
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp: workload={} seed={} seconds={} trace={} commit={commit} nproc={nproc} \
         kernel={kernel} rustc=\"{}\" lhws={} offered_rate_rps={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        probe(Command::new("rustc").arg("--version")),
        lhws::VERSION,
        if args.workload == "server" {
            server::RATE
        } else {
            0.0
        },
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "mapreduce" => mapreduce::run(mapreduce::MAPREDUCE, args.seconds, args.trace, 0),
        "suspend_storm" => mapreduce::run(mapreduce::SUSPEND_STORM, args.seconds, args.trace, 0),
        "server" => server::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(mut outcome) => {
            outcome.notes.insert(0, stamp(&args));
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            outcome.print(table, !args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_forms_agree() {
        for k in 0..25 {
            assert_eq!(fib(k), fib_iter(k));
        }
    }
}
