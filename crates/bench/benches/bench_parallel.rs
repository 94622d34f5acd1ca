//! E11 timing: sequential vs parallel all-paths enumeration (IPPS angle).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ict_graph::parallel::{parallel_simple_paths, ParallelOptions};
use ict_graph::paths::all_simple_paths;
use std::hint::black_box;

fn bench_parallel_enumeration(c: &mut Criterion) {
    // Graph level, like E11: the parallel enumerator is experiment
    // apparatus, not a Step 7 option, so it is timed against the
    // sequential DFS directly.
    let infra = netgen::random::complete(9);
    let (graph, index) = infra.to_graph();
    let (source, target) = (index["n0"], index["n8"]);

    let mut group = c.benchmark_group("parallel/k9_all_paths");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(all_simple_paths(&graph, source, target).len()))
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let options = ParallelOptions {
                    threads,
                    ..Default::default()
                };
                b.iter(|| black_box(parallel_simple_paths(&graph, source, target, options).len()))
            },
        );
    }
    group.finish();
}

fn bench_parallel_monte_carlo(c: &mut Criterion) {
    // Monte-Carlo availability fan-out (dependability engine).
    let path_sets: Vec<Vec<usize>> = (0..8).map(|i| vec![0, 1 + i, 9]).collect();
    let availability = vec![0.99; 10];
    let mut group = c.benchmark_group("parallel/monte_carlo_100k");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| {
                let r = dependability::montecarlo::estimate_single(
                    &availability,
                    &path_sets,
                    100_000,
                    w,
                    42,
                );
                black_box(r.estimate)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_enumeration,
    bench_parallel_monte_carlo
);
criterion_main!(benches);
