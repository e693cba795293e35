//! E12 — fault-injection overhead and crash-placement certification.
//!
//! Cost of the [`FaultScheduler`] wrapper relative to the bare
//! scheduler it wraps, and the end-to-end cost of certifying an
//! exhaustive single-crash plan space and the augmented snapshot under
//! every single crash and stall placement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsim_protocols::racing::racing_system;
use rsim_smr::campaign::{run_fault_campaign, CampaignConfig, SchedulerSpec};
use rsim_smr::fault::{FaultPlan, FaultScheduler};
use rsim_smr::value::Value;
use rsim_snapshot::certify::certify_block_update_faults;
use std::hint::black_box;

fn racing3() -> rsim_smr::system::System {
    racing_system(2, &[Value::Int(1), Value::Int(2), Value::Int(3)])
}

fn bench_scheduler_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_fault_wrapper_overhead");
    group.bench_function("bare_rr", |b| {
        b.iter(|| {
            let mut sys = racing3();
            let mut sched = SchedulerSpec::RoundRobin.build(1);
            sys.run(&mut *sched, 4_000).unwrap();
            black_box(sys.trace().len())
        })
    });
    group.bench_function("empty_plan", |b| {
        b.iter(|| {
            let mut sys = racing3();
            let mut sched =
                FaultScheduler::new(SchedulerSpec::RoundRobin.build(1), FaultPlan::none());
            sys.run(&mut sched, 4_000).unwrap();
            black_box(sys.trace().len())
        })
    });
    group.bench_function("crash_and_stall_plan", |b| {
        let plan = FaultPlan::parse("crash@0:3+stall@1:2-20").unwrap();
        b.iter(|| {
            let mut sys = racing3();
            let mut sched =
                FaultScheduler::new(SchedulerSpec::RoundRobin.build(1), plan.clone());
            sys.run(&mut sched, 4_000).unwrap();
            black_box(sys.trace().len())
        })
    });
    group.finish();
}

fn bench_crash_placement_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_crash_placement_campaign");
    group.sample_size(10);
    for &seeds in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("seeds{seeds}")),
            &seeds,
            |b, &seeds| {
                let config = CampaignConfig {
                    schedulers: vec![SchedulerSpec::RoundRobin],
                    seed_start: 0,
                    runs: seeds,
                    budget: 4_000,
                    threads: 1,
                };
                let plans = FaultPlan::single_crash_plans(3, 5);
                b.iter(|| {
                    black_box(run_fault_campaign(&config, &plans, |_| racing3(), &|_, _| None))
                })
            },
        );
    }
    group.finish();
}

fn bench_snapshot_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_snapshot_certification");
    for &f in &[2usize, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(f), &f, |b, &f| {
            b.iter(|| black_box(certify_block_update_faults(f, 2)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scheduler_overhead,
    bench_crash_placement_campaign,
    bench_snapshot_certification
);
criterion_main!(benches);
