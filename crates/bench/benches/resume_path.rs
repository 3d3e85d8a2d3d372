//! The suspension/resume hot path: register+resume throughput of the
//! sharded timer wheel at 1 and 8 workers.
//!
//! Each iteration drives one wave of suspensions with a common deadline
//! through a long-lived runtime: register → expire → batch-deliver →
//! drain → reinject → join. After the criterion loops, a direct
//! measurement pass prints the throughput per worker count and checks
//! that every registration resumed exactly once.
//!
//! Run modes: `cargo bench --bench resume_path` (full), `-- --test`
//! (single-iteration smoke, small measurement pass), `-- --quick`.

use std::time::Duration;

use criterion::Criterion;
use lhws_bench::{measure_resume, resume_rt, resume_wave};

const WORKERS: [usize; 2] = [1, 8];
const HORIZON: Duration = Duration::from_millis(1);

fn bench_resume_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("resume_path");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(6));

    for p in WORKERS {
        let rt = resume_rt(p);
        g.bench_function(format!("wheel_p{p}"), |b| {
            b.iter(|| resume_wave(&rt, 2_000, HORIZON));
        });
    }
    g.finish();
}

fn measure(smoke: bool) {
    let (tasks, rounds) = if smoke { (500, 1) } else { (8_000, 6) };
    for p in WORKERS {
        let m = measure_resume(p, tasks, rounds, HORIZON);
        println!(
            "resume_path wheel_p{}: {:.0} register+resume/s",
            m.workers,
            m.throughput()
        );
    }
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_resume_path(&mut c);
    let smoke = std::env::args().any(|a| a == "--test" || a == "--quick");
    measure(smoke);
}
