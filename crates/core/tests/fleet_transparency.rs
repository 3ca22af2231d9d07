//! The fleet transparency contract (DESIGN.md §14): the column-major
//! (struct-of-arrays) hot path must be **bit-identical** to the
//! retained scalar reference — for every trace class, scheduling
//! policy and worker count, in dense, kernel-exact *and* fault-injected
//! mode — and the streaming fleet runner (`Simulator::run_fleet`) must
//! reproduce the materialized run exactly for every chunk plan, with or
//! without a change kernel.
//!
//! The scalar path (`EngineLayout::Scalar`) is the oracle; it was kept
//! verbatim for exactly this purpose, like the dense stepper before it.

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

use h2p_core::fleet::{ChunkPlan, EngineLayout, PlanError};
use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
use h2p_core::H2pError;
use h2p_faults::{FaultEvent, FaultKind, FaultPlan};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_units::{Celsius, DegC};
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

const WORKERS: [usize; 3] = [1, 2, 5];

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// The shared-seed generator behind every differential pair: 90 servers
/// over 40-server circulations (two full circulations plus a ragged
/// 10-server tail — the shape most likely to expose chunk misalignment).
fn ragged_generator(kind: TraceKind) -> TraceGenerator {
    TraceGenerator::paper(kind, 31)
        .with_servers(90)
        .with_steps(12)
}

fn ragged_cluster(kind: TraceKind) -> ClusterTrace {
    ragged_generator(kind).generate()
}

fn assert_bit_identical(a: &SimulationResult, b: &SimulationResult, what: &str) {
    assert_eq!(a.steps().len(), b.steps().len(), "{what}: step count");
    for (i, (x, y)) in a.steps().iter().zip(b.steps()).enumerate() {
        assert_eq!(x, y, "{what}: step {i} diverged");
    }
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// A mixed plan touching every fault class including the CDU outage,
/// sized for the ragged 90-server cluster.
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
            FaultEvent::windowed(FaultKind::CduOutage { circulation: 1 }, 5, 7),
        ],
        seed,
    )
    .unwrap()
}

/// Dense mode: the column engine must reproduce the scalar reference
/// bit-for-bit for every trace class × both paper policies × {1, 2, 5}
/// workers, from shared seeds.
#[test]
fn column_layout_is_bit_identical_to_scalar_dense() {
    let sim = Simulator::paper_default().unwrap();
    assert_eq!(sim.layout(), EngineLayout::Columns);
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let scalar = sim
                .clone()
                .with_layout(EngineLayout::Scalar)
                .run(&cluster, policy)
                .unwrap();
            for workers in WORKERS {
                let columns = sim
                    .clone()
                    .with_workers(nz(workers))
                    .with_layout(EngineLayout::Columns)
                    .run(&cluster, policy)
                    .unwrap();
                assert_bit_identical(
                    &scalar,
                    &columns,
                    &format!("dense/{kind}/{}/{workers} workers", scalar.policy()),
                );
            }
        }
    }
}

/// Kernel-exact mode: the layout dispatch lives below the kernel, so
/// tolerance-0 kernel runs must agree across layouts too (both equal to
/// the dense oracle by the §13 contract, hence to each other — asserted
/// directly here from shared seeds).
#[test]
fn column_layout_is_bit_identical_under_exact_kernel() {
    let sim = Simulator::paper_default()
        .unwrap()
        .with_kernel_tolerance(KernelTolerance::exact());
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let scalar = sim
                .clone()
                .with_layout(EngineLayout::Scalar)
                .run(&cluster, policy)
                .unwrap();
            for workers in WORKERS {
                let columns = sim
                    .clone()
                    .with_workers(nz(workers))
                    .run(&cluster, policy)
                    .unwrap();
                assert_bit_identical(
                    &scalar,
                    &columns,
                    &format!("kernel/{kind}/{}/{workers} workers", scalar.policy()),
                );
            }
        }
    }
}

/// Faulted mode: records *and* the attribution ledger must match across
/// layouts with every fault class active, and the telemetry-visible run
/// and step counts must agree (the layouts differ in arithmetic shape
/// only, never in control flow).
#[test]
fn column_layout_is_bit_identical_on_faulted_runs() {
    let sim = Simulator::paper_default().unwrap();
    let plan = mixed_plan(42);
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        let scalar_registry = Registry::new();
        let scalar = sim
            .clone()
            .with_layout(EngineLayout::Scalar)
            .with_telemetry(&scalar_registry)
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();
        for workers in WORKERS {
            let columns_registry = Registry::new();
            let columns = sim
                .clone()
                .with_workers(nz(workers))
                .with_telemetry(&columns_registry)
                .run_with_faults(&cluster, &LoadBalance, &plan)
                .unwrap();
            assert_bit_identical(
                &scalar.result,
                &columns.result,
                &format!("faulted/{kind}/{workers} workers"),
            );
            assert_eq!(scalar.ledger, columns.ledger, "{kind}/{workers} workers");
            for name in ["engine.runs", "engine.steps"] {
                assert_eq!(
                    counter(&scalar_registry, name),
                    counter(&columns_registry, name),
                    "{kind}/{workers} workers: {name}"
                );
            }
        }
    }
}

/// The streaming fleet runner must reproduce the materialized run
/// bit-for-bit — for every trace class × both policies × {1, 2, 5}
/// workers × several chunk granularities (single-circulation chunks,
/// two-circulation chunks, one chunk swallowing the whole fleet) ×
/// both layouts — and agree on the telemetry-visible run/step counts.
#[test]
fn fleet_runner_is_bit_identical_to_materialized_run() {
    let sim = Simulator::paper_default().unwrap();
    for kind in TraceKind::all() {
        let generator = ragged_generator(kind);
        let cluster = generator.generate();
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            for layout in [EngineLayout::Scalar, EngineLayout::Columns] {
                let mat_registry = Registry::new();
                let materialized = sim
                    .clone()
                    .with_layout(layout)
                    .with_telemetry(&mat_registry)
                    .run(&cluster, policy)
                    .unwrap();
                for circs_per_chunk in [1, 2, 1000] {
                    for workers in WORKERS {
                        let plan = ChunkPlan::new(90, nz(40), nz(circs_per_chunk)).unwrap();
                        let fleet_registry = Registry::new();
                        let fleet = sim
                            .clone()
                            .with_workers(nz(workers))
                            .with_layout(layout)
                            .with_telemetry(&fleet_registry)
                            .run_fleet(&generator, policy, &plan)
                            .unwrap();
                        let what = format!(
                            "fleet/{kind}/{}/{layout:?}/cpc {circs_per_chunk}/{workers} workers",
                            materialized.policy()
                        );
                        assert_bit_identical(&materialized, &fleet, &what);
                        for name in ["engine.runs", "engine.steps"] {
                            assert_eq!(
                                counter(&mat_registry, name),
                                counter(&fleet_registry, name),
                                "{what}: {name}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `run_fleet` honours a configured kernel: a streamed exact kernel
/// reproduces the materialized dense oracle bit-for-bit, and a streamed
/// tolerant kernel reproduces the materialized kernel run at the same
/// tolerance — records and evaluated/held accounting alike — for every
/// chunk granularity × {1, 2, 5} workers. (The fleet runner used to run
/// dense whatever the kernel configuration.)
#[test]
fn fleet_runner_honours_the_kernel() {
    let sim = Simulator::paper_default().unwrap();
    let generator = ragged_generator(TraceKind::Common);
    let cluster = generator.generate();
    let dense = sim.run(&cluster, &LoadBalance).unwrap();
    let tolerant = sim
        .clone()
        .with_kernel_tolerance(KernelTolerance::uniform(0.01).unwrap());
    let mat_registry = Registry::new();
    let materialized = tolerant
        .clone()
        .with_telemetry(&mat_registry)
        .run(&cluster, &LoadBalance)
        .unwrap();
    assert!(
        counter(&mat_registry, "engine.circulations_held") > 0,
        "tolerance 0.01 must hold some evaluations"
    );
    for circs_per_chunk in [1, 2, 1000] {
        for workers in WORKERS {
            let plan = ChunkPlan::new(90, nz(40), nz(circs_per_chunk)).unwrap();
            let what = format!("cpc {circs_per_chunk}/{workers} workers");
            let exact = sim
                .clone()
                .with_workers(nz(workers))
                .with_kernel_tolerance(KernelTolerance::exact())
                .run_fleet(&generator, &LoadBalance, &plan)
                .unwrap();
            assert_bit_identical(&dense, &exact, &format!("exact kernel/{what}"));

            let fleet_registry = Registry::new();
            let streamed = tolerant
                .clone()
                .with_workers(nz(workers))
                .with_telemetry(&fleet_registry)
                .run_fleet(&generator, &LoadBalance, &plan)
                .unwrap();
            assert_bit_identical(&materialized, &streamed, &format!("kernel 0.01/{what}"));
            for name in ["engine.circulations_evaluated", "engine.circulations_held"] {
                assert_eq!(
                    counter(&mat_registry, name),
                    counter(&fleet_registry, name),
                    "kernel 0.01/{what}: {name}"
                );
            }
        }
    }
}

/// A simulator with single-server circulations (the degenerate
/// circulation → chunk → lane corner).
fn single_server_circ_sim() -> Simulator {
    let mut cfg = SimulationConfig::paper_default();
    cfg.servers_per_circulation = 1;
    Simulator::new(&ServerModel::paper_default(), cfg).unwrap()
}

/// Single-server chunks (circulation size 1, one circulation per
/// chunk): the most fragmented plan possible still reproduces the
/// materialized run exactly.
#[test]
fn single_server_chunks_are_bit_identical() {
    let sim = single_server_circ_sim();
    let generator = TraceGenerator::paper(TraceKind::Drastic, 7)
        .with_servers(5)
        .with_steps(6);
    let cluster = generator.generate();
    let materialized = sim.run(&cluster, &LoadBalance).unwrap();
    let plan = ChunkPlan::new(5, nz(1), nz(1)).unwrap();
    assert_eq!(plan.n_chunks(), 5);
    let fleet = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    assert_bit_identical(&materialized, &fleet, "single-server chunks");
}

/// A chunk larger than the whole fleet degenerates to one resident
/// chunk and stays bit-identical.
#[test]
fn chunk_larger_than_fleet_is_bit_identical() {
    let sim = Simulator::paper_default().unwrap();
    let generator = ragged_generator(TraceKind::Irregular);
    let cluster = generator.generate();
    let materialized = sim.run(&cluster, &LoadBalance).unwrap();
    let plan = ChunkPlan::new(90, nz(40), nz(10_000)).unwrap();
    assert_eq!(plan.n_chunks(), 1);
    let fleet = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    assert_bit_identical(&materialized, &fleet, "one-chunk fleet");
}

/// Zero-server fleets are typed errors at plan construction — the same
/// family of typed errors (`H2pError::EmptyRun`) the scalar aggregates
/// return for empty runs, never a panic.
#[test]
fn zero_server_fleet_is_a_typed_error() {
    assert_eq!(ChunkPlan::new(0, nz(40), nz(1)), Err(PlanError::EmptyFleet));
    assert_eq!(
        ChunkPlan::sized_for(0, nz(40), 1024, 1 << 20),
        Err(PlanError::EmptyFleet)
    );
}

/// A plan that disagrees with the generator (server count) or the
/// simulator configuration (circulation size) is a typed
/// `FleetPlanMismatch`, not a silent misalignment.
#[test]
fn mismatched_plans_are_typed_errors() {
    let sim = Simulator::paper_default().unwrap();
    let generator = ragged_generator(TraceKind::Common);
    let wrong_servers = ChunkPlan::new(91, nz(40), nz(2)).unwrap();
    assert!(matches!(
        sim.run_fleet(&generator, &LoadBalance, &wrong_servers),
        Err(H2pError::FleetPlanMismatch {
            what: "server count",
            expected: 90,
            got: 91,
        })
    ));
    let wrong_circ = ChunkPlan::new(90, nz(41), nz(2)).unwrap();
    assert!(matches!(
        sim.run_fleet(&generator, &LoadBalance, &wrong_circ),
        Err(H2pError::FleetPlanMismatch {
            what: "circulation size",
            expected: 40,
            got: 41,
        })
    ));
}

/// An all-offline run (CDU outage over every circulation and every
/// step) must return the same typed `H2pError::EmptyRun` from the
/// power-ratio aggregates on both layouts, with bit-identical records.
#[test]
fn all_offline_steps_return_empty_run_on_both_layouts() {
    let sim = Simulator::paper_default().unwrap();
    let cluster = ragged_cluster(TraceKind::Common);
    let outage = FaultPlan::from_events(
        (0..3)
            .map(|c| FaultEvent::windowed(FaultKind::CduOutage { circulation: c }, 0, 12))
            .collect(),
        9,
    )
    .unwrap();
    let mut runs = Vec::new();
    for layout in [EngineLayout::Scalar, EngineLayout::Columns] {
        let run = sim
            .clone()
            .with_layout(layout)
            .run_with_faults(&cluster, &LoadBalance, &outage)
            .unwrap();
        assert_eq!(
            run.result.partial_pue(),
            Err(H2pError::EmptyRun),
            "{layout:?}: all-offline run must report EmptyRun"
        );
        runs.push(run);
    }
    assert_bit_identical(&runs[0].result, &runs[1].result, "all-offline");
    assert_eq!(runs[0].ledger, runs[1].ledger);
}

/// The layout knob itself: default is the column engine, and the
/// builder round-trips.
#[test]
fn layout_configuration_round_trips() {
    let sim = Simulator::paper_default().unwrap();
    assert_eq!(sim.layout(), EngineLayout::Columns);
    let scalar = sim.clone().with_layout(EngineLayout::Scalar);
    assert_eq!(scalar.layout(), EngineLayout::Scalar);
    assert_eq!(
        scalar.with_layout(EngineLayout::Columns).layout(),
        EngineLayout::Columns
    );
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Layout transparency as a property: random fleet shapes and seeds,
    // both policies, any worker count — scalar and columns agree
    // bit-for-bit, and the streamed fleet run agrees with both.
    #[test]
    fn layouts_and_fleet_runner_agree_for_random_fleets(
        servers in 1usize..=30,
        steps in 1usize..=6,
        seed in 0u64..=1000,
        circs_per_chunk in 1usize..=5,
        workers in 1usize..=5,
        balance in proptest::bool::ANY,
    ) {
        let sim = small_sim();
        let policy: &dyn SchedulingPolicy = if balance { &LoadBalance } else { &Original };
        let generator = TraceGenerator::paper(TraceKind::Drastic, seed)
            .with_servers(servers)
            .with_steps(steps);
        let cluster = generator.generate();
        let scalar = sim
            .clone()
            .with_layout(EngineLayout::Scalar)
            .run(&cluster, policy)
            .unwrap();
        let columns = sim
            .clone()
            .with_workers(nz(workers))
            .run(&cluster, policy)
            .unwrap();
        prop_assert_eq!(scalar.steps().len(), columns.steps().len());
        for (a, b) in scalar.steps().iter().zip(columns.steps()) {
            prop_assert_eq!(a, b);
        }
        let circ = sim.config().servers_per_circulation.min(servers).max(1);
        let plan = ChunkPlan::new(servers, nz(circ), nz(circs_per_chunk)).unwrap();
        let fleet = sim
            .clone()
            .with_workers(nz(workers))
            .run_fleet(&generator, policy, &plan)
            .unwrap();
        for (a, b) in scalar.steps().iter().zip(fleet.steps()) {
            prop_assert_eq!(a, b);
        }
    }

    // A ChunkPlan never splits a circulation, covers the fleet exactly
    // once in index order, and its shard size always lands chunk
    // boundaries on circulation boundaries.
    #[test]
    fn chunk_plans_never_split_a_circulation(
        servers in 1usize..=5000,
        circ in 1usize..=64,
        circs_per_chunk in 1usize..=64,
    ) {
        let plan = ChunkPlan::new(servers, nz(circ), nz(circs_per_chunk)).unwrap();
        let mut cursor = 0usize;
        for chunk in plan.chunks() {
            prop_assert_eq!(chunk.servers.start, cursor);
            prop_assert_eq!(chunk.servers.start % circ, 0, "chunk start off-boundary");
            prop_assert_eq!(chunk.servers.start, chunk.circulations.start * circ);
            prop_assert!(
                chunk.servers.end % circ == 0 || chunk.servers.end == servers,
                "chunk end splits a circulation"
            );
            prop_assert!(chunk.servers.end - chunk.servers.start
                <= plan.max_chunk_servers().get());
            cursor = chunk.servers.end;
        }
        prop_assert_eq!(cursor, servers);
        prop_assert_eq!(plan.n_chunks(), plan.chunks().count());
    }
}
