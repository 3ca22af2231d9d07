//! Fault-ablation benchmark: cost and determinism of the fault-injected
//! engine (`run_with_faults`) against the plan-free engine.
//!
//! Full mode drives the paper-scale evaluation — 1,000 servers over 288
//! five-minute steps — three ways: plan-free, zero-fault plan (must be
//! bit-identical to plan-free *and* is the overhead measurement of the
//! fault layer itself), and a hazard-sampled accelerated-demo plan run
//! with 1 and 8 workers (must be bit-identical to each other, and the
//! ledger must reconcile its per-class attribution to < 1e-9 relative
//! error). Results land in `BENCH_faults.json` (override with `--out
//! <path>`). `--smoke` shrinks to 200 servers × 24 steps for CI.
//!
//! Wall-clock numbers are reported, not asserted; every determinism and
//! reconciliation property *is* asserted — those must hold everywhere.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_faults::{FaultPlan, HazardRates};
use h2p_sched::LoadBalance;
use h2p_workload::{TraceGenerator, TraceKind};
use std::num::NonZeroUsize;
use std::time::Instant;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn bit_identical(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.steps().len() == b.steps().len() && a.steps().iter().zip(b.steps()).all(|(x, y)| x == y)
}

fn main() {
    let h2p_bench::BenchArgs { smoke, out } = h2p_bench::BenchArgs::parse("BENCH_faults.json");

    let (servers, steps) = if smoke { (200, 24) } else { (1000, 288) };
    let cluster = TraceGenerator::paper(TraceKind::Irregular, h2p_bench::EXPERIMENT_SEED)
        .with_servers(servers)
        .with_steps(steps)
        .generate();
    let sim = Simulator::paper_default().unwrap();
    let circ = sim.config().servers_per_circulation;

    // Baseline: plan-free engine.
    let t = Instant::now();
    let plain = sim.run(&cluster, &LoadBalance).unwrap();
    let plain_seconds = t.elapsed().as_secs_f64();

    // Zero-fault plan: measures the fault layer's overhead and proves
    // it invisible.
    let t = Instant::now();
    let zero = sim
        .run_with_faults(&cluster, &LoadBalance, &FaultPlan::none())
        .unwrap();
    let zero_seconds = t.elapsed().as_secs_f64();
    assert!(
        bit_identical(&plain, &zero.result),
        "zero-fault plan diverged from the plan-free engine"
    );

    // Hazard-sampled faults, 1 vs 8 workers.
    let plan = FaultPlan::from_hazards(
        &HazardRates::accelerated_demo(),
        h2p_bench::EXPERIMENT_SEED,
        cluster.servers(),
        circ,
        cluster.steps(),
        cluster.interval(),
    )
    .unwrap();
    let t = Instant::now();
    let one = sim
        .clone()
        .with_workers(nz(1))
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();
    let faulted_seq_seconds = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let eight = sim
        .clone()
        .with_workers(nz(8))
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();
    let faulted_par_seconds = t.elapsed().as_secs_f64();

    assert!(
        bit_identical(&one.result, &eight.result),
        "faulted run diverged across worker counts"
    );
    assert_eq!(one.ledger, eight.ledger, "ledgers diverged across workers");
    let reconciliation = one.ledger.reconciliation_error();
    assert!(
        reconciliation < 1e-9,
        "ledger attribution failed to reconcile: {reconciliation}"
    );

    let ledger = &one.ledger;
    let report = serde_json::json!({
        "bench": "faults",
        "smoke": smoke,
        "servers": servers,
        "steps": steps,
        "trace": "Irregular",
        "seed": h2p_bench::EXPERIMENT_SEED,
        "plain_seconds": plain_seconds,
        "zero_fault_seconds": zero_seconds,
        "faulted_seq_seconds": faulted_seq_seconds,
        "faulted_par_seconds": faulted_par_seconds,
        "zero_fault_bit_identical": true,
        "worker_bit_identical": true,
        "reconciliation_error": reconciliation,
        "healthy_harvest_j": ledger.healthy_harvest().value(),
        "faulted_harvest_j": ledger.faulted_harvest().value(),
        "harvest_delta_j": ledger.harvest_delta().value(),
        "sensor_delta_j": ledger.class_harvest_delta(h2p_faults::FaultClass::Sensor).value(),
        "pump_delta_j": ledger.class_harvest_delta(h2p_faults::FaultClass::Pump).value(),
        "teg_delta_j": ledger.class_harvest_delta(h2p_faults::FaultClass::Teg).value(),
        "pue_delta": ledger.pue_delta(),
        "ere_delta": ledger.ere_delta(),
        "throttled_server_steps": ledger.throttled_server_steps(),
        "fallback_steps": ledger.fallback_steps(),
        "faulted_circulation_steps": ledger.faulted_circulation_steps(),
        "offline_circulation_steps": ledger.offline_circulation_steps(),
    });
    std::fs::write(&out, format!("{report}\n")).unwrap();
    let shown = out.canonicalize().unwrap_or(out);

    println!("fault ablation bench ({servers} servers x {steps} steps):");
    println!("  plan-free:        {plain_seconds:.3} s");
    println!("  zero-fault plan:  {zero_seconds:.3} s (bit-identical)");
    println!("  faulted 1 worker: {faulted_seq_seconds:.3} s");
    println!("  faulted 8 workers:{faulted_par_seconds:.3} s (bit-identical)");
    println!(
        "  harvest delta: {:.1} J ({:.2} % of healthy), reconciliation {reconciliation:.2e}",
        ledger.harvest_delta().value(),
        100.0 * ledger.harvest_delta().value() / ledger.healthy_harvest().value().max(1e-30),
    );
    println!("  wrote {}", shown.display());
}
