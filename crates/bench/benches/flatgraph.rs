//! Micro-benchmarks for the flat-graph (CSR) hot paths at the paper's
//! scale points: lowering, Howard analysis, ordering refinement, and
//! MCKP presolve, each at soc:1k and soc:10k.
//!
//! These are the four paths the CSR refactor touches — per-node `Vec`
//! adjacency replaced by offset arrays in the lowering and the ratio
//! graph, a reused Howard scratch arena, in-place swap evaluation in
//! refinement, and the per-class dominance presolve of the MCKP engine —
//! so this suite is where a layout regression shows up first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ilp::{McItem, Mckp, Row};
use std::hint::black_box;
use sysgraph::lower_to_tmg;

const SIZES: [usize; 2] = [1_000, 10_000];

fn ordered_system(n: usize) -> sysgraph::SystemGraph {
    let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, 42));
    let mut sys = soc.system;
    let solution = chanorder::order_channels(&sys);
    solution.ordering.apply_to(&mut sys).expect("valid");
    sys
}

fn bench_lower(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_lower");
    group.sample_size(10);
    for &n in &SIZES {
        let sys = ordered_system(n);
        group.bench_with_input(BenchmarkId::new("lower", n), &sys, |b, s| {
            b.iter(|| black_box(lower_to_tmg(s)));
        });
    }
    group.finish();
}

fn bench_howard(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_howard");
    group.sample_size(10);
    for &n in &SIZES {
        let lowered = lower_to_tmg(&ordered_system(n));
        group.bench_with_input(BenchmarkId::new("howard", n), &lowered, |b, l| {
            b.iter(|| black_box(tmg::analyze(l.tmg())));
        });
    }
    group.finish();
}

fn bench_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_order");
    group.sample_size(10);
    for &n in &SIZES {
        let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, 42));
        group.bench_with_input(BenchmarkId::new("order", n), &soc.system, |b, s| {
            b.iter(|| black_box(chanorder::order_channels(s)));
        });
    }
    group.finish();
}

/// Area-recovery-shaped MCKP: one class per process, four
/// implementations each, with latency weights only in every tenth class
/// (the critical ones).
///
/// Deliberately presolve-bound: in weightless classes the best-value
/// implementation dominates the rest, so dominance collapses 90 % of the
/// classes; in weighted classes value and weight both rise with `i`, so
/// every pairwise test runs but nothing prunes.
fn mckp_problem(classes: usize) -> Mckp {
    Mckp {
        classes: (0..classes)
            .map(|g| {
                (0..4)
                    .map(|i| McItem {
                        value: i as f64 * (1.0 + (g % 5) as f64 * 0.1),
                        weight: if g % 10 == 0 { i as i64 + 1 } else { 0 },
                    })
                    .collect()
            })
            .collect(),
        row: Row::AtMost(classes as i64 / 2 + 8),
        forbidden: Vec::new(),
    }
}

fn bench_presolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("flatgraph_presolve");
    group.sample_size(10);
    for &n in &SIZES {
        let p = mckp_problem(n);
        // Each weightless class decides all four items: three dominated,
        // the survivor fixed.
        let expected = (n - n.div_ceil(10)) * 4;
        assert_eq!(
            ilp::presolve_eliminated(&p),
            expected,
            "dominance must collapse every weightless class"
        );
        group.bench_with_input(BenchmarkId::new("presolve", n), &p, |b, p| {
            b.iter(|| black_box(ilp::presolve_eliminated(p)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lower,
    bench_howard,
    bench_order,
    bench_presolve
);
criterion_main!(benches);
