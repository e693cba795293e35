//! Regenerates every quantitative claim recorded in EXPERIMENTS.md.
//!
//! Run with `cargo run --release --example experiments_report`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revisionist_simulations::core::bounds;
use revisionist_simulations::core::simulation::{Simulation, SimulationConfig};
use revisionist_simulations::core::stats;
use revisionist_simulations::protocols::approx::{approx_system, rounds_for_epsilon};
use revisionist_simulations::protocols::racing::{racing_system, PhasedRacing};
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::process::ProcessId;
use revisionist_simulations::smr::value::{Dyadic, Value};
use revisionist_simulations::snapshot::client::AugOp;
use revisionist_simulations::snapshot::real::RealSystem;
use revisionist_simulations::snapshot::spec;
use revisionist_simulations::solo::convert::determinized_system;
use revisionist_simulations::solo::machine::RandomizedRacing;
use revisionist_simulations::tasks::agreement::consensus;
use revisionist_simulations::tasks::sperner::{verify_sperner, Complex, Labeling};
use revisionist_simulations::tasks::task::ColorlessTask;
use std::collections::BTreeSet;
use std::sync::Arc;

fn main() {
    e1_e3_augmented_snapshot();
    e4_e5_simulation_and_replay();
    e6_kset_bounds();
    e7_approx();
    e7b_subdivision_chain();
    e8_solo_conversion();
    e10_sperner();
    e11_bg_contrast();
}

fn random_aug_run(f: usize, m: usize, ops: usize, seed: u64) -> RealSystem {
    let mut rs = RealSystem::new(f, m);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining = vec![ops; f];
    let mut counter = 0i64;
    loop {
        let live: Vec<usize> = (0..f)
            .filter(|&p| remaining[p] > 0 || !rs.is_idle(p))
            .collect();
        if live.is_empty() {
            break;
        }
        let pid = live[rng.gen_range(0..live.len())];
        if rs.is_idle(pid) {
            remaining[pid] -= 1;
            counter += 1;
            let op = if rng.gen_bool(0.5) {
                AugOp::Scan
            } else {
                let r = rng.gen_range(1..=m);
                let mut comps: Vec<usize> = (0..m).collect();
                for i in (1..comps.len()).rev() {
                    comps.swap(i, rng.gen_range(0..=i));
                }
                comps.truncate(r);
                let values =
                    comps.iter().map(|_| Value::Int(counter)).collect();
                AugOp::BlockUpdate { components: comps, values }
            };
            rs.begin(pid, op);
        }
        rs.step(pid);
    }
    rs
}

fn e1_e3_augmented_snapshot() {
    println!("## E1–E3: augmented snapshot (§3)\n");
    let mut runs = 0;
    let mut atomic = 0;
    let mut yields = 0;
    let mut scans = 0;
    let mut max_scan_steps = 0;
    let mut spec_ok = 0;
    for seed in 0..200u64 {
        let f = 2 + (seed as usize % 4);
        let m = 1 + (seed as usize % 4);
        let rs = random_aug_run(f, m, 5, seed);
        let report = spec::check(&rs, m);
        runs += 1;
        if report.is_ok() {
            spec_ok += 1;
        }
        atomic += report.atomic_block_updates;
        yields += report.yielded_block_updates;
        scans += report.scans;
        for rec in rs.oplog() {
            if let revisionist_simulations::snapshot::client::AugOutcome::Scan(s) =
                &rec.outcome
            {
                max_scan_steps = max_scan_steps.max(s.steps);
            }
        }
    }
    println!("- {runs} random contended runs (f∈2..=5, m∈1..=4): spec holds in {spec_ok}/{runs}");
    println!("- Block-Updates: {atomic} atomic, {yields} yields (Theorem 20 checked per-run)");
    println!("- Scans: {scans}; max Scan step count observed: {max_scan_steps} (Lemma 2 bound 2k+3 checked per-run)");
    println!("- Block-Update step counts: always 6 (atomic) / 5 (yield) — asserted by the checker\n");
}

fn e4_e5_simulation_and_replay() {
    println!("## E4–E5: simulation wait-freedom, budgets, replay (§4)\n");
    for (n, m, f, d) in
        [(4usize, 2usize, 2usize, 0usize), (6, 2, 3, 0), (6, 3, 2, 0), (5, 2, 3, 1)]
    {
        let runs = 50u64;
        let inputs: Vec<Value> = (1..=f as i64).map(Value::Int).collect();
        let config = SimulationConfig::new(n, m, f, d);
        // The seed grid fans out across all cores; the aggregate is
        // identical to the sequential sweep.
        let point = stats::sweep_parallel(
            config,
            &inputs,
            move |i| PhasedRacing::new(m, Value::Int(i as i64 + 1)),
            &consensus(),
            0..runs,
            20_000_000,
            0,
        )
        .unwrap();
        assert_eq!(point.wait_free, point.runs);
        let budgets: Vec<String> = (0..f)
            .map(|i| {
                if i < f - d {
                    format!("{}≤{}", point.max_block_updates[i], bounds::b_bound(m, i + 1))
                } else {
                    // Direct simulators' Block-Update counts track Π's
                    // step complexity, not b(i).
                    format!("{} (direct)", point.max_block_updates[i])
                }
            })
            .collect();
        println!(
            "- n={n} m={m} f={f} d={d}: {}/{runs} wait-free, replay \
             {}/{runs}; max H-steps {}; max BU per sim vs b(i): [{}]",
            point.wait_free,
            point.replay_ok,
            point.max_h_steps,
            budgets.join(", ")
        );
    }
    println!();
}

fn e6_kset_bounds() {
    println!("## E6: k-set agreement space bounds (Corollary 33)\n");
    println!("| n | k | x | lower | upper | feasibility ⇔ m<lower |");
    println!("|---|---|---|-------|-------|------------------------|");
    for (n, k, x) in [(4usize, 1usize, 1usize), (8, 1, 1), (8, 7, 1), (16, 3, 2), (32, 4, 3)] {
        let lo = bounds::kset_space_lower_bound(n, k, x);
        let hi = bounds::kset_space_upper_bound(n, k, x);
        let mech = (1..=n)
            .all(|m| bounds::simulation_feasible(n, m, k + 1, x) == (m < lo));
        println!("| {n} | {k} | {x} | {lo} | {hi} | {mech} |");
    }
    // Extraction of violations below the bound.
    let inputs = [Value::Int(1), Value::Int(2)];
    let mut first_violation = None;
    for seed in 0..300u64 {
        let config = SimulationConfig::new(4, 2, 2, 0);
        let mut sim = Simulation::new(config, inputs.to_vec(), |i| {
            PhasedRacing::new(2, Value::Int([1, 2][i]))
        })
        .unwrap();
        sim.run_random(seed, 4_000_000).unwrap();
        let outs: Vec<Value> = sim.outputs().into_iter().flatten().collect();
        if consensus().validate(&inputs, &outs).is_err() {
            first_violation = Some(seed);
            break;
        }
    }
    println!(
        "\n- Reduction run (n=4, m=2 < 4, f=2): first extracted consensus violation at seed {:?}",
        first_violation
    );
    // Exhaustive protocol facts.
    let sys = racing_system(1, &inputs);
    let v = revisionist_simulations::tasks::violation::search_exhaustive(
        &sys,
        &inputs,
        &consensus(),
        Limits { max_depth: 40, max_configs: 500_000 },
    )
    .unwrap();
    println!(
        "- Exhaustive check: racing on m=1 register violates consensus ({})\n",
        if v.is_some() { "violation found" } else { "?" }
    );
}

fn e7_approx() {
    println!("## E7: ε-approximate agreement (Corollary 34)\n");
    println!("| ε | solo steps (upper) | L = ½log₃(1/ε) (lower) |");
    println!("|---|--------------------|-------------------------|");
    for e in [4u32, 8, 16, 20] {
        let mut sys = approx_system(&[Dyadic::zero(), Dyadic::one()], rounds_for_epsilon(e));
        sys.run_solo(ProcessId(0), 1_000_000).unwrap();
        println!(
            "| 2^-{e} | {} | {:.2} |",
            sys.trace().len(),
            bounds::approx_step_lower_bound(e)
        );
    }
    println!("\n| n | bound at ε=2^-8 | ε=2^-64 | ε=2^-4096 |");
    println!("|---|------|------|------|");
    for n in [4usize, 16, 64] {
        println!(
            "| {n} | {:.2} | {:.2} | {:.2} |",
            bounds::approx_space_lower_bound(n, 8),
            bounds::approx_space_lower_bound(n, 64),
            bounds::approx_space_lower_bound(n, 4096),
        );
    }
    println!();
}

fn e7b_subdivision_chain() {
    use revisionist_simulations::tasks::chain::terminal_adjacency;
    println!("## E7b: the subdivided-path protocol complex (Hoest–Shavit)\n");
    println!("| rounds | nodes | edges | connected | max edge spread |");
    println!("|---|---|---|---|---|");
    for rounds in 1..=4u32 {
        let sys = approx_system(&[Dyadic::zero(), Dyadic::one()], rounds);
        let report = terminal_adjacency(
            &sys,
            Limits { max_depth: 40, max_configs: 3_000_000 },
        )
        .unwrap();
        println!(
            "| {rounds} | {} | {} | {} | {:?} |",
            report.nodes.len(),
            report.edges.len(),
            report.is_connected(),
            report.max_edge_spread()
        );
    }
    println!();
}

fn e11_bg_contrast() {
    use revisionist_simulations::core::bg::{BgSimulation, BgStatus};
    println!("## E11: BG contrast (paper §1)\n");
    let mut bg = BgSimulation::new(
        4,
        vec![Value::Int(1), Value::Int(2)],
        |v| PhasedRacing::new(2, v.clone()),
        100_000,
    );
    bg.step(0).unwrap(); // q0 crashes in the unsafe window
    for _ in 0..1_000 {
        bg.step(1).unwrap();
    }
    let blocked = matches!(bg.status(1), BgStatus::Blocked(_));
    let config = SimulationConfig::new(4, 2, 2, 0);
    let mut sim = Simulation::new(config, vec![Value::Int(1), Value::Int(2)], |i| {
        PhasedRacing::new(2, Value::Int([1, 2][i]))
    })
    .unwrap();
    sim.step(0).unwrap();
    let mut steps = 1;
    while sim.output(1).is_none() {
        let progressed = sim.step(1).unwrap();
        assert!(progressed || sim.output(1).is_some());
        steps += 1;
    }
    println!("- q0 crashes after one step:");
    println!("  - BG: q1 {} (safe-agreement window held by the corpse)",
        if blocked { "BLOCKED forever" } else { "not blocked?!" });
    println!("  - revisionist: q1 terminates in {steps} H-steps (wait-free)\n");
}

fn e8_solo_conversion() {
    println!("## E8: Theorem 35 conversion (§5)\n");
    let machine = Arc::new(RandomizedRacing::new(2));
    let sys = determinized_system(
        Arc::clone(&machine),
        &[Value::Int(1), Value::Int(2)],
        100_000,
    );
    let explorer = Explorer::new(Limits { max_depth: 12, max_configs: 60_000 })
        .with_threads(0);
    let report = explorer.check_solo_termination(&sys, 50).unwrap();
    println!(
        "- Determinized randomized racing (m=2, 2 procs): solo termination from all \
         {} reachable configs: {}",
        report.configs_visited,
        if report.is_clean() { "VERIFIED" } else { "FAILED" }
    );
    let mut sys2 = determinized_system(Arc::clone(&machine), &[Value::Int(9)], 100_000);
    let out = sys2.run_solo(ProcessId(0), 1_000).unwrap();
    println!(
        "- Solo run: output {out} in {} steps (= shortest solo path); space unchanged: {} registers\n",
        sys2.trace().len(),
        sys2.space_complexity()
    );
}

fn e10_sperner() {
    println!("## E10: Sperner substrate\n");
    let mut rng = StdRng::seed_from_u64(99);
    for (dim, depth) in [(1usize, 3usize), (2, 2), (2, 3), (3, 1)] {
        let c = Complex::standard(dim).subdivide(depth);
        let mut counts = BTreeSet::new();
        for _ in 0..50 {
            let l = Labeling::random_sperner(&c, &mut rng);
            counts.insert(verify_sperner(&c, &l).unwrap());
        }
        println!(
            "- dim {dim}, depth {depth}: {} cells, {} vertices; panchromatic counts \
             over 50 random Sperner labelings: {:?} (all odd)",
            c.simplices().len(),
            c.vertex_count(),
            counts
        );
    }
}
