//! Step-2 solver ablation: DLX exact cover vs simplex branch-and-bound on
//! synthetic weighted set-partitioning instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gecco_solver::SetPartitionProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random partitionable instance: `n` elements, singletons (guaranteeing
/// feasibility) plus `extra` random sets of size 2–4.
fn instance(n: usize, extra: usize, seed: u64) -> SetPartitionProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = SetPartitionProblem::new(n);
    for e in 0..n {
        p.add_set(vec![e], 1.0);
    }
    for _ in 0..extra {
        let len = rng.random_range(2..=4usize.min(n));
        let mut members: Vec<usize> = (0..n).collect();
        for i in (1..members.len()).rev() {
            members.swap(i, rng.random_range(0..=i));
        }
        members.truncate(len);
        p.add_set(members, 0.3 + rng.random::<f64>());
    }
    p
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("setpart");
    group.sample_size(10);
    for (n, extra) in [(12usize, 30usize), (20, 80)] {
        let p = instance(n, extra, 99);
        group.bench_with_input(BenchmarkId::new("dlx", format!("{n}x{extra}")), &p, |b, p| {
            b.iter(|| p.solve().expect("feasible"))
        });
        group.bench_with_input(
            BenchmarkId::new("simplex_bnb", format!("{n}x{extra}")),
            &p,
            |b, p| b.iter(|| p.solve_bnb().expect("feasible")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
