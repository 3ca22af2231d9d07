//! Closed-loop placement benchmark (the gate behind `BENCH_jobs.json`):
//! the three [`PlacementPolicy`] implementations race on the same
//! synthetic job sets across every trace class and two scheduling
//! policies, and the thermal-aware policies must justify themselves.
//!
//! For each `(trace kind, scheduling policy, placement policy)` cell
//! the harness synthesizes a slot-structured job set (concurrency never
//! exceeds the server count, so every capacity-respecting policy
//! places the *same* work — the comparison is placement quality, never
//! admission luck), places it with [`PlacementEngine`], runs the
//! synthesized trace through the simulation engine, and reports TEG
//! harvest, pump overhead, net harvest (TEG − pump), partial PUE/ERE,
//! and throttle violations.
//!
//! Hard gates, asserted on the Common class under both scheduling
//! policies:
//!
//! * every policy serves identical demand (equal served work, zero
//!   rejections);
//! * zero throttle violations everywhere, counted by placement and by
//!   the simulation run over its trace with the same rule (a looked-up
//!   die temperature above `Simulator::max_operating`), so placement
//!   may chase harvest but never past the model's envelope;
//! * the better of `CoolestFirst` / `HarvestAware` strictly beats
//!   `RoundRobin` on net harvest.
//!
//! Full mode runs 200 servers × 96 steps; `--smoke` shrinks to
//! 80 servers × 24 steps for CI. `--out <path>` overrides the report
//! location (default: the workspace root, where CI collects
//! `BENCH_*.json` artifacts).

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use h2p_core::simulation::Simulator;
use h2p_jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_workload::TraceKind;
use std::time::Instant;

/// One benchmark cell: a placement policy's showing on one trace class
/// under one scheduling policy.
struct Cell {
    trace: &'static str,
    sched: &'static str,
    placement: PlacementPolicyKind,
    placed: usize,
    rejected: usize,
    migrated: usize,
    served_demand_steps: f64,
    throttle_violations: usize,
    sim_violations: usize,
    avg_teg_w: f64,
    avg_pump_w: f64,
    net_harvest_w: f64,
    partial_pue: f64,
    partial_ere: f64,
    seconds: f64,
}

fn run_cell(
    sim: &Simulator,
    sched: &dyn SchedulingPolicy,
    sched_name: &'static str,
    kind: TraceKind,
    placement: PlacementPolicyKind,
    servers: usize,
    steps: usize,
) -> Cell {
    let engine = PlacementEngine::new(sim, sched, servers, steps).unwrap();
    let jobs = synthetic_jobs(
        kind,
        h2p_bench::EXPERIMENT_SEED,
        servers,
        steps,
        engine.interval(),
    );
    let t0 = Instant::now();
    let run = engine.place(&jobs, &mut *placement.build()).unwrap();
    let result = sim.run(&run.trace, sched).unwrap();
    let seconds = t0.elapsed().as_secs_f64();

    let avg_teg = result.average_teg_power().unwrap().value();
    let avg_pump = result
        .steps()
        .iter()
        .map(|s| s.pump_power_per_server.value())
        .sum::<f64>()
        / result.steps().len() as f64;
    Cell {
        trace: kind.name(),
        sched: sched_name,
        placement,
        placed: run.outcome.placed,
        rejected: run.outcome.rejected,
        migrated: run.outcome.migrated,
        served_demand_steps: run.outcome.served_demand_steps,
        throttle_violations: run.outcome.throttle_violations,
        sim_violations: result.total_violations(),
        avg_teg_w: avg_teg,
        avg_pump_w: avg_pump,
        net_harvest_w: avg_teg - avg_pump,
        partial_pue: result.partial_pue().unwrap(),
        partial_ere: result.partial_ere().unwrap(),
        seconds,
    }
}

fn cell_json(c: &Cell) -> serde_json::Value {
    serde_json::json!({
        "trace": c.trace,
        "sched": c.sched,
        "placement": c.placement.name(),
        "placed": c.placed,
        "rejected": c.rejected,
        "migrated": c.migrated,
        "served_demand_steps": c.served_demand_steps,
        "throttle_violations": c.throttle_violations,
        "sim_violations": c.sim_violations,
        "avg_teg_w_per_server": c.avg_teg_w,
        "avg_pump_w_per_server": c.avg_pump_w,
        "net_harvest_w_per_server": c.net_harvest_w,
        "partial_pue": c.partial_pue,
        "partial_ere": c.partial_ere,
        "seconds": c.seconds,
    })
}

fn main() {
    let h2p_bench::BenchArgs { smoke, out } = h2p_bench::BenchArgs::parse("BENCH_jobs.json");

    let (servers, steps) = if smoke { (80, 24) } else { (200, 96) };
    let sim = Simulator::paper_default().unwrap();
    let scheds: [(&dyn SchedulingPolicy, &'static str); 2] = [
        (&Original, "TEG_Original"),
        (&LoadBalance, "TEG_LoadBalance"),
    ];

    let mut cells = Vec::new();
    for kind in TraceKind::all() {
        for (sched, sched_name) in scheds {
            for placement in PlacementPolicyKind::ALL {
                cells.push(run_cell(
                    &sim, sched, sched_name, kind, placement, servers, steps,
                ));
            }
        }
    }

    println!(
        "jobs bench ({servers} servers x {steps} steps, seed {}):",
        h2p_bench::EXPERIMENT_SEED
    );
    println!(
        "  {:<10} {:<16} {:<14} {:>7} {:>9} {:>9} {:>8} {:>6}",
        "trace", "sched", "placement", "teg W", "pump W", "net W", "pPUE", "viol"
    );
    for c in &cells {
        println!(
            "  {:<10} {:<16} {:<14} {:>7.3} {:>9.3} {:>9.3} {:>8.4} {:>6}",
            c.trace,
            c.sched,
            c.placement.name(),
            c.avg_teg_w,
            c.avg_pump_w,
            c.net_harvest_w,
            c.partial_pue,
            c.throttle_violations + c.sim_violations,
        );
    }

    // Gate 1: equal served work per (trace, sched) group — the slot
    // synthesis guarantees it, so inequality means a policy dropped
    // work (and its harvest numbers would be incomparable).
    for group in cells.chunks(PlacementPolicyKind::ALL.len()) {
        let baseline = group[0].served_demand_steps;
        for c in group {
            assert_eq!(
                c.rejected, 0,
                "{}/{}/{} rejected jobs",
                c.trace, c.sched, c.placement
            );
            assert!(
                (c.served_demand_steps - baseline).abs() < 1e-9,
                "{}/{} served work diverged: {} vs {}",
                c.trace,
                c.sched,
                c.served_demand_steps,
                baseline
            );
        }
    }

    // Gate 2: the envelope holds everywhere, by placement's count and
    // the engine's (one rule, one envelope).
    for c in &cells {
        assert_eq!(
            c.throttle_violations + c.sim_violations,
            0,
            "{}/{}/{} violated the throttle envelope",
            c.trace,
            c.sched,
            c.placement
        );
    }

    // Gate 3 (the acceptance inequality): on the Common class, under
    // each scheduling policy, the better thermal-aware policy strictly
    // out-harvests the load-oblivious RoundRobin baseline net of pump
    // power.
    let mut acceptance = Vec::new();
    for (_, sched_name) in scheds {
        let pick = |p: PlacementPolicyKind| {
            cells
                .iter()
                .find(|c| c.trace == "common" && c.sched == sched_name && c.placement == p)
                .unwrap()
        };
        let rr = pick(PlacementPolicyKind::RoundRobin);
        let best = [
            pick(PlacementPolicyKind::CoolestFirst),
            pick(PlacementPolicyKind::HarvestAware),
        ]
        .into_iter()
        .max_by(|a, b| a.net_harvest_w.total_cmp(&b.net_harvest_w))
        .unwrap();
        println!(
            "  common/{sched_name}: best thermal-aware ({}) net {:.4} W vs round_robin {:.4} W",
            best.placement.name(),
            best.net_harvest_w,
            rr.net_harvest_w
        );
        assert!(
            best.net_harvest_w > rr.net_harvest_w,
            "common/{sched_name}: thermal-aware placement ({}) did not beat round_robin \
             on net harvest ({} vs {})",
            best.placement.name(),
            best.net_harvest_w,
            rr.net_harvest_w
        );
        acceptance.push(serde_json::json!({
            "trace": "common",
            "sched": sched_name,
            "winner": best.placement.name(),
            "winner_net_harvest_w": best.net_harvest_w,
            "round_robin_net_harvest_w": rr.net_harvest_w,
            "margin_w": best.net_harvest_w - rr.net_harvest_w,
        }));
    }

    let report = serde_json::json!({
        "bench": "jobs",
        "smoke": smoke,
        "servers": servers,
        "steps": steps,
        "seed": h2p_bench::EXPERIMENT_SEED,
        "cells": cells.iter().map(cell_json).collect::<Vec<_>>(),
        "acceptance": acceptance,
    });
    std::fs::write(&out, format!("{report}\n")).unwrap();
    let shown = out.canonicalize().unwrap_or(out);
    println!("  wrote {}", shown.display());
}
