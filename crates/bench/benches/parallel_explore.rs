//! Parallel exploration engine and campaign runner throughput.
//!
//! Scaling of the level-synchronised frontier explorer across thread
//! counts on the racing state space, and campaign runs-per-second for
//! the seeded scheduler-mix matrix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsim_protocols::racing::racing_system;
use rsim_smr::campaign::{run_campaign, CampaignConfig, SchedulerSpec};
use rsim_smr::explore::{Explorer, Limits};
use rsim_smr::value::Value;
use std::hint::black_box;

fn ints(n: usize) -> Vec<Value> {
    (1..=n as i64).map(Value::Int).collect()
}

fn bench_explore_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_explore");
    group.sample_size(10);
    let sys = racing_system(2, &ints(3));
    let limits = Limits { max_depth: 64, max_configs: 10_000 };
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("racing3", threads),
            &threads,
            |b, &threads| {
                let explorer = Explorer::new(limits).with_threads(threads);
                b.iter(|| {
                    black_box(
                        explorer.explore_parallel(&sys, &|_| None).unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_solo_termination_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_solo_check");
    group.sample_size(10);
    let sys = racing_system(2, &ints(3));
    let limits = Limits { max_depth: 6, max_configs: 3_000 };
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("racing3", threads),
            &threads,
            |b, &threads| {
                let explorer = Explorer::new(limits).with_threads(threads);
                b.iter(|| {
                    black_box(
                        explorer
                            .check_solo_termination(&sys, 60)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("racing3_mix", threads),
            &threads,
            |b, &threads| {
                let config = CampaignConfig {
                    schedulers: vec![
                        SchedulerSpec::RoundRobin,
                        SchedulerSpec::Random,
                        SchedulerSpec::Quantum(2),
                    ],
                    seed_start: 0,
                    runs: 100,
                    budget: 1_000,
                    threads,
                };
                b.iter(|| {
                    black_box(run_campaign(
                        &config,
                        |_seed| racing_system(2, &ints(3)),
                        &|_| None,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_explore_threads,
    bench_solo_termination_threads,
    bench_campaign
);
criterion_main!(benches);
