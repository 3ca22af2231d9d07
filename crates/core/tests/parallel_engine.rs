//! Equivalence tests for the parallel simulation engine: sharding the
//! circulations of a control interval across worker threads must be
//! invisible in the results (bit-identical to the sequential path), and
//! the engine's chunked, cached aggregation must match a naive
//! reference built from the public substrate APIs.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_cooling::{CoolingOptimizer, PlantLoad};
use h2p_core::fleet::EngineLayout;
use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::{SimulationConfig, Simulator};
use h2p_faults::{FaultClass, FaultEvent, FaultKind, FaultPlan, HazardRates};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::ServerModel;
use h2p_units::{Celsius, DegC, LitersPerHour, Seconds, Utilization, Watts};
use h2p_workload::{ClusterTrace, Trace, TraceGenerator, TraceKind};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// 90 servers over 40-server circulations: two full circulations plus a
/// ragged 10-server tail, the shape most likely to expose merge-order
/// or weighting divergence between the sequential and parallel paths.
fn ragged_cluster(kind: TraceKind) -> ClusterTrace {
    TraceGenerator::paper(kind, 31)
        .with_servers(90)
        .with_steps(12)
        .generate()
}

#[test]
fn parallel_runs_are_bit_identical_to_sequential() {
    let sim = Simulator::paper_default().unwrap();
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let seq = sim
                .clone()
                .with_workers(nz(1))
                .run(&cluster, policy)
                .unwrap();
            for workers in [2usize, 4, 7] {
                let par = sim
                    .clone()
                    .with_workers(nz(workers))
                    .run(&cluster, policy)
                    .unwrap();
                assert_eq!(seq.steps().len(), par.steps().len());
                for (a, b) in seq.steps().iter().zip(par.steps()) {
                    assert_eq!(a, b, "{kind}/{}/{workers} workers", seq.policy());
                }
            }
        }
    }
}

#[test]
fn worker_counts_beyond_circulation_count_are_harmless() {
    // More workers than circulations (and than CPUs): excess lanes idle,
    // results unchanged.
    let sim = Simulator::paper_default().unwrap();
    let cluster = ragged_cluster(TraceKind::Common);
    let seq = sim
        .clone()
        .with_workers(nz(1))
        .run(&cluster, &LoadBalance)
        .unwrap();
    let flooded = sim
        .with_workers(nz(64))
        .run(&cluster, &LoadBalance)
        .unwrap();
    for (a, b) in seq.steps().iter().zip(flooded.steps()) {
        assert_eq!(a, b);
    }
}

/// The zero-fault faulted path must be *bitwise* identical to the
/// plan-free engine for every trace class and scheduling policy — the
/// fault layer is provably invisible when no fault is scheduled.
#[test]
fn zero_fault_plan_is_bitwise_identical_to_plan_free_engine() {
    let sim = Simulator::paper_default().unwrap();
    let plan = FaultPlan::none();
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let plain = sim.run(&cluster, policy).unwrap();
            let faulted = sim.run_with_faults(&cluster, policy, &plan).unwrap();
            assert_eq!(plain.steps().len(), faulted.result.steps().len());
            for (a, b) in plain.steps().iter().zip(faulted.result.steps()) {
                assert_eq!(a, b, "{kind}/{}", plain.policy());
            }
            assert_eq!(faulted.ledger.harvest_delta().value(), 0.0);
            assert_eq!(faulted.ledger.reconciliation_error(), 0.0);
        }
    }
}

/// A mixed explicit fault plan touching every fault class, sized for
/// the ragged 90-server cluster.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::from_events(
        vec![
            FaultEvent::permanent(
                FaultKind::TegOpenCircuit {
                    server: 3,
                    failed_devices: 4,
                },
                2,
            ),
            FaultEvent::permanent(
                FaultKind::TegOpenCircuit {
                    server: 85,
                    failed_devices: 12,
                },
                0,
            ),
            FaultEvent::windowed(FaultKind::PumpOutage { circulation: 2 }, 3, 9),
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 0,
                    derate: 0.6,
                },
                1,
                11,
            ),
            FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 1,
                    reading: Celsius::new(80.0),
                },
                4,
                8,
            ),
            FaultEvent::windowed(
                FaultKind::SensorNoise {
                    circulation: 0,
                    sigma: DegC::new(2.0),
                },
                0,
                12,
            ),
        ],
        seed,
    )
    .unwrap()
}

/// Sharding a *faulted* run across workers must also be invisible:
/// same seed, same plan → bit-identical records and identical ledgers
/// for every worker count.
#[test]
fn faulted_runs_are_bit_identical_across_worker_counts() {
    let sim = Simulator::paper_default().unwrap();
    let cluster = ragged_cluster(TraceKind::Irregular);
    let plan = mixed_plan(42);
    let seq = sim
        .clone()
        .with_workers(nz(1))
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();
    assert!(seq.ledger.harvest_delta().value() > 0.0);
    for workers in [2usize, 4, 8] {
        let par = sim
            .clone()
            .with_workers(nz(workers))
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();
        for (a, b) in seq.result.steps().iter().zip(par.result.steps()) {
            assert_eq!(a, b, "{workers} workers");
        }
        assert_eq!(seq.ledger, par.ledger, "{workers} workers");
    }
}

/// Acceptance run at paper scale: a hazard-sampled fault plan over
/// 1,000 servers × 288 steps must produce bit-identical results and
/// ledgers with 1 and 8 workers, and the ledger must reconcile its
/// per-class attribution against the healthy/faulted harvest delta to
/// < 1e-9 relative error.
#[test]
fn paper_scale_faulted_run_is_deterministic_and_reconciles() {
    let sim = Simulator::paper_default().unwrap();
    let cluster = TraceGenerator::paper(TraceKind::Common, 20200530)
        .with_servers(1000)
        .with_steps(288)
        .generate();
    let circ = sim.config().servers_per_circulation;
    let plan = FaultPlan::from_hazards(
        &HazardRates::accelerated_demo(),
        20200530,
        cluster.servers(),
        circ,
        cluster.steps(),
        cluster.interval(),
    )
    .unwrap();
    assert!(!plan.is_zero(), "demo hazards must schedule faults");

    let one = sim
        .clone()
        .with_workers(nz(1))
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();
    let eight = sim
        .clone()
        .with_workers(nz(8))
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();

    assert_eq!(one.result.steps().len(), 288);
    for (a, b) in one.result.steps().iter().zip(eight.result.steps()) {
        assert_eq!(a, b);
    }
    assert_eq!(one.ledger, eight.ledger);

    // Ledger reconciliation: per-class attribution telescopes to the
    // healthy-minus-faulted harvest delta.
    assert!(one.ledger.reconciliation_error() < 1e-9);
    // And the ledger's healthy world agrees with an independent
    // plan-free run of the same cluster.
    let healthy = sim.run(&cluster, &LoadBalance).unwrap();
    let independent = healthy.total_harvested().value();
    let ledger_healthy = one.ledger.healthy_harvest().value();
    assert!(
        (independent - ledger_healthy).abs() <= independent.abs() * 1e-9,
        "ledger healthy {ledger_healthy} vs independent {independent}"
    );
    let delta = independent - one.result.total_harvested().value();
    let ledger_delta = one.ledger.harvest_delta().value();
    let scale = delta.abs().max(ledger_delta.abs()).max(1e-30);
    assert!(
        (delta - ledger_delta).abs() / scale < 1e-9,
        "ledger delta {ledger_delta} vs independent {delta}"
    );
}

/// FNV-1a over raw 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Faulted-run bits, pinned: every `StepRecord` field and every
/// `FaultLedger` accessor of 108 runs (3 trace kinds × {no plan, the
/// mixed plan, a hazard-sampled plan} × both layouts × {dense, exact,
/// 0.02 kernel} × both policies) hash to a digest recorded before the
/// fault layers were rerouted through the scalar pass. Any change to a
/// faulted run's bits changes the digest.
#[test]
fn faulted_run_bits_match_the_recorded_digest() {
    const RECORDED: u64 = 0x5da6_7e6e_c646_e13d;
    let base = Simulator::paper_default().unwrap().with_workers(nz(2));
    // Sampled on an hourly step so 12 steps see all three fault classes
    // (at the trace's 5-minute step the demo hazards rarely fire).
    let hazard = FaultPlan::from_hazards(
        &HazardRates::accelerated_demo(),
        7,
        90,
        base.config().servers_per_circulation,
        12,
        Seconds::new(3600.0),
    )
    .unwrap();
    assert_eq!(
        hazard.events().len(),
        5,
        "the hazard-sampled plan must fault"
    );
    let plans = [FaultPlan::none(), mixed_plan(42), hazard];
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for plan in &plans {
            for layout in [EngineLayout::Scalar, EngineLayout::Columns] {
                for mode in [None, Some(0.0), Some(0.02)] {
                    let sim = match mode {
                        None => base.clone(),
                        Some(t) => base
                            .clone()
                            .with_kernel_tolerance(KernelTolerance::uniform(t).unwrap()),
                    }
                    .with_layout(layout);
                    for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
                        let run = sim.run_with_faults(&cluster, policy, plan).unwrap();
                        for s in run.result.steps() {
                            h.eat(s.time.value().to_bits());
                            h.eat(s.teg_power_per_server.value().to_bits());
                            h.eat(s.cpu_power_per_server.value().to_bits());
                            h.eat(s.pump_power_per_server.value().to_bits());
                            h.eat(s.cooling_power_per_server.value().to_bits());
                            h.eat(s.mean_inlet.value().to_bits());
                            h.eat(s.mean_outlet.value().to_bits());
                            h.eat(s.mean_utilization.value().to_bits());
                            h.eat(s.peak_utilization.value().to_bits());
                            h.eat(s.thermal_violations as u64);
                        }
                        let l = &run.ledger;
                        for joules in [
                            l.healthy_harvest(),
                            l.faulted_harvest(),
                            l.harvest_delta(),
                            l.class_harvest_delta(FaultClass::Sensor),
                            l.class_harvest_delta(FaultClass::Pump),
                            l.class_harvest_delta(FaultClass::Teg),
                            l.attributed_harvest_delta(),
                        ] {
                            h.eat(joules.value().to_bits());
                        }
                        for ratio in [
                            l.reconciliation_error(),
                            l.healthy_pue(),
                            l.faulted_pue(),
                            l.healthy_ere(),
                            l.faulted_ere(),
                            l.pue_delta(),
                            l.ere_delta(),
                        ] {
                            h.eat(ratio.to_bits());
                        }
                        h.eat(l.throttled_server_steps());
                        h.eat(l.fallback_steps());
                        h.eat(l.faulted_circulation_steps());
                        h.eat(l.offline_circulation_steps());
                    }
                }
            }
        }
    }
    assert_eq!(h.0, RECORDED, "faulted-run digest {:016x}", h.0);
}

/// A simulator with 7-server circulations shared across proptest cases
/// (the lookup-space fit dominates construction cost).
fn small_sim() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut cfg = SimulationConfig::paper_default();
        cfg.servers_per_circulation = 7;
        Simulator::new(&ServerModel::paper_default(), cfg).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // `Simulator::run` must agree with a naive reference that walks the
    // public substrate APIs directly — per circulation: schedule, pick
    // the optimizer's setting, evaluate each server — with no worker
    // pool, no setting cache and no partial-sum merge.
    #[test]
    fn engine_matches_naive_unchunked_reference(
        xs in proptest::collection::vec(0.0f64..=1.0, 4..=48),
        servers in 1usize..=16,
    ) {
        let steps = (xs.len() / servers).clamp(1, 4);
        let interval = Seconds::minutes(5.0);
        let traces: Vec<Trace> = (0..servers)
            .map(|s| {
                let samples: Vec<f64> = (0..steps)
                    .map(|t| xs[(s * steps + t) % xs.len()])
                    .collect();
                Trace::new(interval, samples).unwrap()
            })
            .collect();
        let cluster = ClusterTrace::new(traces).unwrap();

        let sim = small_sim();
        let model = ServerModel::paper_default();
        let run = sim.run(&cluster, &LoadBalance).unwrap();
        prop_assert_eq!(run.steps().len(), steps);

        let n = servers as f64;
        for (step, rec) in run.steps().iter().enumerate() {
            let time = Seconds::new(interval.value() * step as f64);
            let cold = sim.config().cold_source.temperature(time);
            let optimizer = CoolingOptimizer::new(
                sim.lookup_space(),
                sim.config().module,
                sim.config().pump,
                sim.config().t_safe,
                sim.config().tolerance,
                cold,
            )
            .unwrap();

            let loads = cluster.utilizations_at(step);
            let mut teg = 0.0;
            let mut cpu = 0.0;
            let mut pump = 0.0;
            let mut flow = 0.0;
            let mut inlet = 0.0;
            let mut outlet = 0.0;
            let mut util = 0.0;
            let mut peak = Utilization::IDLE;
            let mut violations = 0usize;
            for chunk in loads.chunks(7) {
                let u_ctrl = LoadBalance.control_utilization(chunk);
                let chosen = optimizer.optimize(u_ctrl).unwrap();
                pump += chosen.pump_power.value() * chunk.len() as f64;
                flow += chosen.setting.flow.value() * chunk.len() as f64;
                inlet += chosen.setting.inlet.value() * chunk.len() as f64;
                for &u in &LoadBalance.schedule(chunk) {
                    let out = sim
                        .lookup_space()
                        .outlet_temperature(u, chosen.setting.flow, chosen.setting.inlet)
                        .unwrap();
                    let die = sim
                        .lookup_space()
                        .cpu_temperature(u, chosen.setting.flow, chosen.setting.inlet)
                        .unwrap();
                    if die > model.spec().max_operating {
                        violations += 1;
                    }
                    teg += sim.config().module.max_power(out - cold).value();
                    cpu += model.power_model().base_power(u).value();
                    outlet += out.value();
                    util += u.value();
                    peak = peak.max(u);
                }
            }
            let plant = sim.config().plant.power(PlantLoad {
                heat: Watts::new(cpu),
                supply_setpoint: Celsius::new(inlet / n),
                total_flow: LitersPerHour::new(flow),
            });

            prop_assert!((rec.teg_power_per_server.value() - teg / n).abs() < 1e-9);
            prop_assert!((rec.cpu_power_per_server.value() - cpu / n).abs() < 1e-9);
            prop_assert!((rec.pump_power_per_server.value() - pump / n).abs() < 1e-9);
            prop_assert!(
                (rec.cooling_power_per_server.value() - plant.total().value() / n).abs() < 1e-9
            );
            prop_assert!((rec.mean_inlet.value() - inlet / n).abs() < 1e-9);
            prop_assert!((rec.mean_outlet.value() - outlet / n).abs() < 1e-9);
            prop_assert!((rec.mean_utilization.value() - util / n).abs() < 1e-9);
            prop_assert_eq!(rec.peak_utilization, peak);
            prop_assert_eq!(rec.thermal_violations, violations);
        }
    }
}
