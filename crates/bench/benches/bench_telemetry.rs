//! Telemetry-overhead benchmark: the observed engine against the
//! observation-free engine (ISSUE 4 / DESIGN.md §10).
//!
//! Full mode drives the paper-scale evaluation — 1,000 servers over 288
//! five-minute steps — twice with a disabled registry and twice fully
//! instrumented (counters, span histograms, pool telemetry, optimizer
//! search counters), taking the min wall time of each. Results must be
//! bit-identical both ways (asserted everywhere), and in full mode the
//! enabled path must stay within the 5 % overhead budget (asserted; the
//! smoke run is too short for stable timing, so smoke only reports).
//! A faulted pass exercises the journal. Results land in
//! `BENCH_telemetry.json` (override with `--out <path>`); `--smoke`
//! shrinks to 200 servers × 24 steps for CI.

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
use h2p_telemetry::{Registry, RunReport};
use h2p_workload::{TraceGenerator, TraceKind};
use std::time::Instant;

/// Repetitions per configuration; min-of-N suppresses scheduler noise.
const REPS: usize = 5;

/// The full-mode overhead budget: enabled ≤ 1.05× disabled.
const OVERHEAD_BUDGET: f64 = 0.05;

fn bit_identical(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.steps().len() == b.steps().len() && a.steps().iter().zip(b.steps()).all(|(x, y)| x == y)
}

fn main() {
    let h2p_bench::BenchArgs { smoke, out } = h2p_bench::BenchArgs::parse("BENCH_telemetry.json");

    let (servers, steps) = if smoke { (200, 24) } else { (1000, 288) };
    let cluster = TraceGenerator::paper(TraceKind::Irregular, h2p_bench::EXPERIMENT_SEED)
        .with_servers(servers)
        .with_steps(steps)
        .generate();
    let sim = Simulator::paper_default().unwrap();

    // Untimed warmup: touch the whole working set (lookup space,
    // allocator, page cache) before any stopwatch starts.
    let _ = sim.clone().run(&cluster, &LoadBalance).unwrap();

    // Interleaved disabled/enabled pairs, min of REPS each. Each rep
    // gets a fresh clone so both configurations start from a cold
    // setting cache, and interleaving cancels slow machine-wide drift
    // (thermal throttling, background load) that back-to-back blocks
    // would charge to whichever ran second.
    let mut disabled_seconds = f64::INFINITY;
    let mut enabled_seconds = f64::INFINITY;
    let mut baseline = None;
    let mut registry = Registry::new();
    for _ in 0..REPS {
        // Disabled registry: the pre-PR fast path — one branch per
        // would-be observation.
        let rep_sim = sim.clone().with_telemetry(&Registry::disabled());
        let t = Instant::now();
        let r = rep_sim.run(&cluster, &LoadBalance).unwrap();
        disabled_seconds = disabled_seconds.min(t.elapsed().as_secs_f64());
        let baseline = baseline.get_or_insert(r);

        // Fully instrumented: fresh registry per rep so counter totals
        // in the report describe exactly one run.
        let rep_registry = Registry::new();
        let observed_sim = sim.clone().with_telemetry(&rep_registry);
        let t = Instant::now();
        let r = observed_sim.run(&cluster, &LoadBalance).unwrap();
        enabled_seconds = enabled_seconds.min(t.elapsed().as_secs_f64());
        assert!(
            bit_identical(baseline, &r),
            "telemetry changed the simulation output"
        );
        registry = rep_registry;
    }

    let overhead = enabled_seconds / disabled_seconds - 1.0;
    if !smoke {
        assert!(
            overhead <= OVERHEAD_BUDGET,
            "telemetry overhead {:.2} % exceeds the {:.0} % budget \
             (enabled {enabled_seconds:.3} s vs disabled {disabled_seconds:.3} s)",
            100.0 * overhead,
            100.0 * OVERHEAD_BUDGET,
        );
    }

    // A faulted pass under a hazard-sampled plan exercises the fault
    // journal; its events are deterministic in (plan, geometry).
    let plan = FaultPlan::from_hazards(
        &HazardRates::accelerated_demo(),
        h2p_bench::EXPERIMENT_SEED,
        cluster.servers(),
        sim.config().servers_per_circulation,
        cluster.steps(),
        cluster.interval(),
    )
    .unwrap();
    let fault_registry = Registry::new();
    let t = Instant::now();
    let faulted = sim
        .clone()
        .with_telemetry(&fault_registry)
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();
    let faulted_seconds = t.elapsed().as_secs_f64();
    drop(faulted);
    let fault_events = fault_registry.journal_events().len();

    let counters = serde_json::Value::Object(
        registry
            .counters()
            .into_iter()
            .map(|(k, v)| (k, serde_json::to_value(&v)))
            .collect(),
    );
    let report = RunReport::from_registry(&registry);
    let json = serde_json::json!({
        "bench": "telemetry",
        "smoke": smoke,
        "servers": servers,
        "steps": steps,
        "trace": "Irregular",
        "seed": h2p_bench::EXPERIMENT_SEED,
        "reps": REPS,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "overhead_fraction": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "overhead_asserted": !smoke,
        "bit_identical": true,
        "faulted_seconds": faulted_seconds,
        "fault_journal_events": fault_events,
        "counters": counters,
    });
    std::fs::write(&out, format!("{json}\n")).unwrap();
    let shown = out.canonicalize().unwrap_or(out);

    println!("telemetry overhead bench ({servers} servers x {steps} steps, min of {REPS}):");
    println!("  disabled registry: {disabled_seconds:.3} s");
    println!(
        "  enabled registry:  {enabled_seconds:.3} s ({:+.2} % — bit-identical)",
        100.0 * overhead
    );
    println!("  faulted + journal: {faulted_seconds:.3} s ({fault_events} journal events)");
    println!("{report}");
    println!("  wrote {}", shown.display());
}
