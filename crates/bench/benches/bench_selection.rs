//! Step-2 selection ablation: the presolved/decomposed/parallel production
//! route versus the un-presolved oracles (DLX and simplex
//! branch-and-bound).
//!
//! Four instance shapes:
//! * `fig7_pool` — a candidate pool at the scale of the paper's Fig. 7
//!   (one connected block, overlapping candidates, duplicates);
//! * `single_block` — one dense component where only dedup/dominance and
//!   the warm start/lower bound can help;
//! * `multi_component` — many independent blocks, the shape where
//!   connected-component decomposition (and, under `rayon`, the parallel
//!   component fan-out) pays off;
//! * `multi_component_bounded` — the same blocks under global
//!   `count(groups)` bounds, exercising the cardinality-aware component
//!   DP: decomposition must stay within ~2× of the unbounded variant
//!   even though component solutions can no longer be combined freely.
//!
//! Configs: `dlx_presolve/off` and `bnb_presolve/off` (the oracles
//! [`SetPartitionProblem::solve`] and [`SetPartitionProblem::solve_bnb`]),
//! `dlx_presolve/on` (the production route), plus its `on_par` variant
//! when parallelism is compiled in (identical results, different
//! wall-clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gecco_core::{parallel_enabled, set_parallel, solve_set_partition, SelectionOptions};
use gecco_solver::SetPartitionProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One feasible block over `[base, base + n)`: singletons (guaranteeing
/// feasibility) plus `extra` random sets of size 2–4, plus a few
/// duplicates of existing sets at a different cost.
fn add_block(p: &mut SetPartitionProblem, base: usize, n: usize, extra: usize, rng: &mut StdRng) {
    let mut added: Vec<Vec<usize>> = Vec::new();
    for e in 0..n {
        p.add_set(vec![base + e], 0.8 + rng.random::<f64>() * 0.4);
    }
    for _ in 0..extra {
        let len = rng.random_range(2..=4usize.min(n));
        let mut members: Vec<usize> = (base..base + n).collect();
        for i in (1..members.len()).rev() {
            members.swap(i, rng.random_range(0..=i));
        }
        members.truncate(len);
        members.sort_unstable();
        p.add_set(members.clone(), 0.3 + rng.random::<f64>() * len as f64);
        added.push(members);
    }
    // Duplicates: every fourth extra set re-added at a different cost.
    for members in added.iter().step_by(4) {
        p.add_set(members.clone(), 0.3 + rng.random::<f64>() * members.len() as f64);
    }
}

/// A pool at the scale of Fig. 7: 8 classes, overlapping candidates.
fn fig7_pool() -> SetPartitionProblem {
    let mut p = SetPartitionProblem::new(8);
    add_block(&mut p, 0, 8, 24, &mut StdRng::seed_from_u64(7));
    p
}

/// One dense 24-element component with 96 extra sets.
fn single_block() -> SetPartitionProblem {
    let mut p = SetPartitionProblem::new(24);
    add_block(&mut p, 0, 24, 96, &mut StdRng::seed_from_u64(24));
    p
}

/// Eight independent 8-element blocks (24 extra sets each): the
/// decomposition showcase.
fn multi_component() -> SetPartitionProblem {
    let mut rng = StdRng::seed_from_u64(64);
    let blocks = 8;
    let mut p = SetPartitionProblem::new(8 * blocks);
    for b in 0..blocks {
        add_block(&mut p, 8 * b, 8, 24, &mut rng);
    }
    p
}

/// The same eight blocks with global group-count bounds. Before the
/// cardinality frontier DP, bounds forced one monolithic solve; with it
/// the instance decomposes and should land within ~2× of the unbounded
/// decomposed solve.
fn multi_component_bounded() -> SetPartitionProblem {
    let mut p = multi_component();
    p.min_sets = Some(24);
    p.max_sets = Some(56);
    p
}

fn bench_selection(c: &mut Criterion) {
    let instances = [
        ("fig7_pool", fig7_pool()),
        ("single_block", single_block()),
        ("multi_component", multi_component()),
        ("multi_component_bounded", multi_component_bounded()),
    ];
    for (name, problem) in instances {
        let mut group = c.benchmark_group(format!("selection_{name}"));
        group.sample_size(10);
        set_parallel(false);
        group.bench_with_input(BenchmarkId::new("dlx_presolve", "off"), &problem, |b, p| {
            b.iter(|| p.solve().expect("feasible"))
        });
        group.bench_with_input(BenchmarkId::new("bnb_presolve", "off"), &problem, |b, p| {
            b.iter(|| p.solve_bnb().expect("feasible"))
        });
        let options = SelectionOptions::default();
        group.bench_with_input(BenchmarkId::new("dlx_presolve", "on"), &problem, |b, p| {
            b.iter(|| solve_set_partition(p, options).expect("feasible"))
        });
        // Parallel component fan-out (bit-identical, different clock).
        set_parallel(true);
        if parallel_enabled() {
            group.bench_with_input(BenchmarkId::new("dlx_presolve", "on_par"), &problem, |b, p| {
                b.iter(|| solve_set_partition(p, options).expect("feasible"))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
