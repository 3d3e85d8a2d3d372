//! Microbenchmarks of the Chase–Lev deque: owner push/pop throughput,
//! uncontended steal throughput, and an owner racing one thief.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lhws_deque::chase_lev::deque;

fn bench_owner_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("deque_owner_push_pop");
    g.bench_function("chase_lev", |b| {
        let (w, _s) = deque::<usize>();
        b.iter(|| {
            for i in 0..256 {
                w.push_bottom(i);
            }
            let mut acc = 0usize;
            while let Some(v) = w.pop_bottom() {
                acc = acc.wrapping_add(v);
            }
            acc
        });
    });
    g.finish();
}

fn bench_steals(c: &mut Criterion) {
    let mut g = c.benchmark_group("deque_steal");
    g.bench_function("chase_lev", |b| {
        b.iter_batched(
            || {
                let (w, s) = deque::<usize>();
                for i in 0..256 {
                    w.push_bottom(i);
                }
                (w, s)
            },
            |(_w, s)| {
                let mut acc = 0usize;
                while let Some(v) = s.steal().success() {
                    acc = acc.wrapping_add(v);
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_contended_steals(c: &mut Criterion) {
    let mut g = c.benchmark_group("deque_contended");
    g.sample_size(10);
    g.bench_function("chase_lev", |b| {
        b.iter(|| {
            let (w, s) = deque::<usize>();
            let thief = std::thread::spawn(move || {
                let mut got = 0usize;
                let mut misses = 0usize;
                while misses < 10_000 {
                    match s.steal() {
                        lhws_deque::Steal::Success(_) => {
                            got += 1;
                            misses = 0;
                        }
                        _ => misses += 1,
                    }
                }
                got
            });
            let mut own = 0usize;
            for i in 0..20_000 {
                w.push_bottom(i);
                if i % 2 == 0 && w.pop_bottom().is_some() {
                    own += 1;
                }
            }
            while w.pop_bottom().is_some() {
                own += 1;
            }
            let stolen = thief.join().unwrap();
            assert_eq!(own + stolen, 20_000);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_owner_ops,
    bench_steals,
    bench_contended_steals
);
criterion_main!(benches);
