//! Serving-layer benchmark: the `h2p-serve` scheduler against naive
//! per-request engine runs (ISSUE 5 / DESIGN.md §11).
//!
//! A closed loop of clients submits a 50 %-duplicate scenario mix for
//! several rounds (round two onward replays the mix, as a dashboard
//! refresh would). The naive baseline runs every request directly on
//! one warm engine; the service coalesces duplicates within a drain
//! and answers repeats from its result cache, so it executes each
//! distinct scenario exactly once across the whole load. Responses are
//! asserted bit-identical to the direct runs (both modes); full mode
//! additionally asserts the >= 2x throughput bar from the serving
//! charter. Queue-wait p50/p99 come from the `serve.wait_nanos`
//! histogram. Results land in `BENCH_serve.json` (override with
//! `--out <path>`); `--smoke` shrinks to 200 servers x 24 steps
//! for CI.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
use h2p_sched::LoadBalance;
use h2p_serve::{
    Admission, PolicyKind, ScenarioKey, ScenarioRequest, ScenarioService, ServiceConfig, TraceSpec,
};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_workload::TraceKind;
use std::collections::HashMap;
use std::time::Instant;

/// Replays of the whole mix; round one is cold, later rounds hit the
/// result cache (the dashboard-refresh pattern).
const ROUNDS: usize = 2;

/// The serving charter's full-mode bar: service throughput must be at
/// least this multiple of the naive per-request baseline on the 50 %-
/// duplicate mix.
const SPEEDUP_BAR: f64 = 2.0;

fn bit_identical(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.steps().len() == b.steps().len() && a.steps().iter().zip(b.steps()).all(|(x, y)| x == y)
}

fn main() {
    let h2p_bench::BenchArgs { smoke, out } = h2p_bench::BenchArgs::parse("BENCH_serve.json");

    let (servers, steps) = if smoke { (200, 24) } else { (1000, 288) };
    let workers = h2p_exec::worker_count();

    // The 50 %-duplicate mix: each distinct scenario appears twice per
    // round, interleaved the way independent clients would submit them.
    let distinct: Vec<ScenarioRequest> = TraceKind::all()
        .into_iter()
        .map(|kind| {
            let mut req = ScenarioRequest::new(
                TraceSpec {
                    kind,
                    seed: h2p_bench::EXPERIMENT_SEED,
                    servers,
                    steps,
                },
                PolicyKind::LoadBalance,
            );
            req.workers = workers;
            req
        })
        .collect();
    let mix: Vec<ScenarioRequest> = distinct.iter().chain(distinct.iter()).cloned().collect();
    let requests_total = mix.len() * ROUNDS;

    // Untimed warmup engine (touches the lookup space, allocator and
    // page cache); also produces the reference results the timed paths
    // must match bit-for-bit.
    let engine_for = |circulation: usize| {
        let mut config = SimulationConfig::paper_default();
        config.servers_per_circulation = circulation;
        Simulator::new(&ServerModel::paper_default(), config)
            .unwrap()
            .with_workers(workers)
    };
    let warmup_engine = engine_for(distinct[0].servers_per_circulation);
    let reference: HashMap<ScenarioKey, SimulationResult> = distinct
        .iter()
        .map(|req| {
            let result = warmup_engine
                .run(&req.trace.generate(), &LoadBalance)
                .unwrap();
            (req.key(), result)
        })
        .collect();

    // Naive per-request execution: what every caller did before the
    // serving layer existed (cf. `examples/`) — build a simulator,
    // generate the trace, run, even for exact repeats. No shared
    // engine state, no dedup, no result reuse.
    let t = Instant::now();
    let mut naive_runs = 0usize;
    for _ in 0..ROUNDS {
        for req in &mix {
            let engine = engine_for(req.servers_per_circulation);
            let result = engine.run(&req.trace.generate(), &LoadBalance).unwrap();
            assert!(bit_identical(&result, &reference[&req.key()]));
            naive_runs += 1;
        }
    }
    let naive_seconds = t.elapsed().as_secs_f64();

    // Service under the same closed-loop load: submit one round, drain,
    // repeat. Coalescing handles the in-flight duplicates; the result
    // cache handles the cross-round repeats.
    let registry = Registry::new();
    let service = ScenarioService::new(ServiceConfig::default()).with_telemetry(&registry);
    let t = Instant::now();
    let mut responses_total = 0usize;
    for _ in 0..ROUNDS {
        for req in &mix {
            assert!(matches!(
                service.submit(req.clone()),
                Admission::Enqueued { .. }
            ));
        }
        for response in service.drain() {
            let served = response.served.as_ref().unwrap();
            assert!(
                bit_identical(&served.output.result, &reference[&response.key]),
                "served result diverged from the direct run"
            );
            responses_total += 1;
        }
    }
    let serve_seconds = t.elapsed().as_secs_f64();
    assert_eq!(responses_total, requests_total, "every request answered");

    let stats = service.stats();
    assert_eq!(
        stats.runs_executed,
        distinct.len() as u64,
        "each distinct scenario must execute exactly once"
    );
    // Coalesced within rounds, cached across rounds.
    assert_eq!(stats.coalesced as usize, distinct.len());
    assert_eq!(stats.cache.hits as usize, mix.len() * (ROUNDS - 1));

    let naive_throughput = naive_runs as f64 / naive_seconds;
    let serve_throughput = responses_total as f64 / serve_seconds;
    let speedup = serve_throughput / naive_throughput;
    if !smoke {
        assert!(
            speedup >= SPEEDUP_BAR,
            "service throughput {serve_throughput:.2} req/s is only {speedup:.2}x the \
             naive baseline {naive_throughput:.2} req/s (bar: {SPEEDUP_BAR}x)"
        );
    }

    let histograms: HashMap<String, _> = registry.histograms().into_iter().collect();
    let wait = &histograms["serve.wait_nanos"];
    let wait_p50_nanos = wait.quantile_upper_bound(0.50).unwrap_or(0);
    let wait_p99_nanos = wait.quantile_upper_bound(0.99).unwrap_or(0);
    let service_hist = &histograms["serve.service_nanos"];
    let service_p99_nanos = service_hist.quantile_upper_bound(0.99).unwrap_or(0);

    let json = serde_json::json!({
        "bench": "serve",
        "smoke": smoke,
        "servers": servers,
        "steps": steps,
        "seed": h2p_bench::EXPERIMENT_SEED,
        "rounds": ROUNDS,
        "distinct_scenarios": distinct.len(),
        "requests_total": requests_total,
        "duplicate_fraction": 0.5,
        "naive_seconds": naive_seconds,
        "serve_seconds": serve_seconds,
        "naive_throughput_rps": naive_throughput,
        "serve_throughput_rps": serve_throughput,
        "speedup": speedup,
        "speedup_bar": SPEEDUP_BAR,
        "speedup_asserted": !smoke,
        "bit_identical": true,
        "runs_executed": stats.runs_executed,
        "coalesced": stats.coalesced,
        "cache_hits": stats.cache.hits,
        "wait_p50_nanos": wait_p50_nanos,
        "wait_p99_nanos": wait_p99_nanos,
        "service_p99_nanos": service_p99_nanos,
    });
    std::fs::write(&out, format!("{json}\n")).unwrap();
    let shown = out.canonicalize().unwrap_or(out);

    println!(
        "serve bench ({servers} servers x {steps} steps, {} distinct x 50% dup x {ROUNDS} rounds):",
        distinct.len()
    );
    println!(
        "  naive:   {naive_runs} engine runs in {naive_seconds:.3} s ({naive_throughput:.2} req/s)"
    );
    println!(
        "  service: {} engine runs for {responses_total} responses in {serve_seconds:.3} s ({serve_throughput:.2} req/s, {speedup:.2}x)",
        stats.runs_executed
    );
    println!(
        "  queue wait p50 <= {:.1} us, p99 <= {:.1} us; service p99 <= {:.1} ms",
        wait_p50_nanos as f64 / 1e3,
        wait_p99_nanos as f64 / 1e3,
        service_p99_nanos as f64 / 1e6,
    );
    println!("  wrote {}", shown.display());
}
