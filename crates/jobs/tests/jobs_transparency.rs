//! The placement transparency contract (DESIGN.md §16): a
//! placement-synthesized trace is an ordinary materialized trace, so
//! every engine driver must produce **bit-identical** results over it
//! — dense and kernel-exact, scalar and column layouts, every worker
//! count — and the load-oblivious `RoundRobin` baseline over jobs that
//! reproduce a constant-demand trace must match running that trace
//! directly, to the bit. Placement decides cooling through the
//! simulator's own cached decision path, so a placement is equally
//! blind to how warm that cache is.
//!
//! Placement's own output is pinned too: a digest recorded before the
//! admission path and the thermal pass were restructured, and a
//! lowered-envelope run where placement's violation count must equal
//! the engine's.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_precision_loss
)]

use h2p_core::fleet::EngineLayout;
use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
use h2p_jobs::{
    synthetic_jobs, ClusterView, HarvestAware, Job, PlacementEngine, PlacementPolicy,
    PlacementPolicyKind, PlacementRun, RoundRobin,
};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::{CpuSpec, PowersaveGovernor, ServerModel};
use h2p_telemetry::Registry;
use h2p_units::{Celsius, Seconds, Utilization};
use h2p_workload::{ClusterTrace, Trace, TraceKind};
use std::num::NonZeroUsize;
use std::sync::OnceLock;

const WORKERS: [usize; 3] = [1, 2, 5];
const SERVERS: usize = 20;
const STEPS: usize = 12;

/// A simulator with 8-server circulations, so 20 servers make two
/// full circulations plus a ragged 4-server tail (the shape most likely
/// to expose chunk misalignment), and a cold setting cache (a clone
/// would keep the warm memo).
fn fresh_sim() -> Simulator {
    let mut config = SimulationConfig::paper_default();
    config.servers_per_circulation = 8;
    Simulator::new(&ServerModel::paper_default(), config).unwrap()
}

/// The shared base simulator, built once because fitting the lookup
/// space is the expensive part.
fn base_sim() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(fresh_sim)
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn assert_bit_identical(a: &SimulationResult, b: &SimulationResult, what: &str) {
    assert_eq!(a.steps().len(), b.steps().len(), "{what}: step count");
    for (i, (x, y)) in a.steps().iter().zip(b.steps()).enumerate() {
        assert_eq!(x, y, "{what}: step {i} diverged");
    }
}

fn assert_same_placement(a: &PlacementRun, b: &PlacementRun, what: &str) {
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.trace.steps(), b.trace.steps(), "{what}: step count");
    for step in 0..a.trace.steps() {
        let (x, y) = (a.trace.utilizations_at(step), b.trace.utilizations_at(step));
        let bits =
            |col: &[Utilization]| col.iter().map(|u| u.value().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&y), "{what}: column {step}");
    }
}

#[test]
fn placement_is_bit_identical_across_workers_drivers_and_layouts() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let jobs = synthetic_jobs(TraceKind::Common, 7, SERVERS, STEPS, engine.interval());

    for kind in PlacementPolicyKind::ALL {
        let run = engine.place(&jobs, &mut *kind.build()).unwrap();
        assert_eq!(run.outcome.rejected, 0, "{kind}: synthetic set must fit");
        let baseline = sim
            .clone()
            .with_workers(nz(1))
            .run(&run.trace, &Original)
            .unwrap();

        for workers in WORKERS {
            for exact_kernel in [false, true] {
                for layout in [EngineLayout::Scalar, EngineLayout::Columns] {
                    let mut variant = sim.clone().with_workers(nz(workers)).with_layout(layout);
                    if exact_kernel {
                        variant = variant.with_kernel_tolerance(KernelTolerance::exact());
                    }
                    let result = variant.run(&run.trace, &Original).unwrap();
                    assert_bit_identical(
                        &baseline,
                        &result,
                        &format!(
                            "{kind}: workers={workers} kernel={exact_kernel} layout={layout:?}"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn placement_itself_is_reproducible() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let jobs = synthetic_jobs(TraceKind::Drastic, 11, SERVERS, STEPS, engine.interval());
    for kind in PlacementPolicyKind::ALL {
        let a = engine.place(&jobs, &mut *kind.build()).unwrap();
        let b = engine.place(&jobs, &mut *kind.build()).unwrap();
        assert_eq!(a.outcome, b.outcome, "{kind}: outcome must reproduce");
        for step in 0..STEPS {
            assert_eq!(
                a.trace.utilizations_at(step),
                b.trace.utilizations_at(step),
                "{kind}: column {step} must reproduce"
            );
        }
    }
}

#[test]
fn round_robin_reproduces_the_constant_trace_run_to_the_bit() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let interval = engine.interval();
    let demand = 0.35_f64;

    // One whole-horizon job per server, all arriving at time zero:
    // RoundRobin lays them out one per server, so the synthesized
    // trace is the constant-demand cluster.
    let jobs: Vec<_> = (0..SERVERS)
        .map(|i| {
            h2p_jobs::Job::new(
                i as u64,
                Seconds::new(0.0),
                Seconds::new(interval.value() * STEPS as f64),
                Utilization::saturating(demand),
            )
            .unwrap()
        })
        .collect();
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, SERVERS);
    assert_eq!(run.outcome.rejected, 0);

    let constant = ClusterTrace::new(
        (0..SERVERS)
            .map(|_| Trace::new(interval, vec![demand; STEPS]).unwrap())
            .collect(),
    )
    .unwrap();
    for step in 0..STEPS {
        assert_eq!(
            run.trace.utilizations_at(step),
            constant.utilizations_at(step),
            "column {step}"
        );
    }

    let placed = sim.run(&run.trace, &Original).unwrap();
    let direct = sim.run(&constant, &Original).unwrap();
    assert_bit_identical(&placed, &direct, "round robin vs generated constant");
}

#[test]
fn queue_overflow_and_horizon_rejections_are_accounted() {
    let sim = base_sim();
    // Two servers, jobs of 0.9 demand: only two fit at once.
    let engine = PlacementEngine::new(sim, &Original, 2, 4)
        .unwrap()
        .with_queue_capacity(1);
    let interval = engine.interval();
    let whole_run = Seconds::new(interval.value() * 4.0);
    let jobs: Vec<_> = (0..4)
        .map(|i| {
            h2p_jobs::Job::new(
                i,
                Seconds::new(0.0),
                whole_run,
                Utilization::saturating(0.9),
            )
            .unwrap()
        })
        .collect();
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    // Jobs 0 and 1 run for the whole horizon; job 2 waits in the
    // queue until the horizon ends; job 3 overflows the queue.
    assert_eq!(run.outcome.placed, 2);
    assert_eq!(run.outcome.rejected, 2);

    // A job arriving past the horizon is rejected up front.
    let late = vec![h2p_jobs::Job::new(
        9,
        Seconds::new(interval.value() * 40.0),
        whole_run,
        Utilization::saturating(0.1),
    )
    .unwrap()];
    let run = engine.place(&late, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, 0);
    assert_eq!(run.outcome.rejected, 1);
}

#[test]
fn delayed_placement_records_queue_wait() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, 1, 6).unwrap();
    let interval = engine.interval();
    // One server: the second job must wait until the first releases.
    let jobs = vec![
        h2p_jobs::Job::new(
            0,
            Seconds::new(0.0),
            Seconds::new(interval.value() * 2.0),
            Utilization::saturating(0.8),
        )
        .unwrap(),
        h2p_jobs::Job::new(
            1,
            Seconds::new(0.0),
            Seconds::new(interval.value()),
            Utilization::saturating(0.8),
        )
        .unwrap(),
    ];
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, 2);
    assert_eq!(run.outcome.rejected, 0);
    assert_eq!(run.outcome.max_queue_wait_steps, 2);
}

#[test]
fn placement_shares_the_simulators_cache_transparently() {
    let jobs = synthetic_jobs(
        TraceKind::Irregular,
        5,
        SERVERS,
        STEPS,
        PlacementEngine::new(base_sim(), &Original, SERVERS, STEPS)
            .unwrap()
            .interval(),
    );
    let place = |sim: &Simulator| {
        PlacementEngine::new(sim, &Original, SERVERS, STEPS)
            .unwrap()
            .place(&jobs, &mut HarvestAware::new())
            .unwrap()
    };

    // A placement alone on a fresh simulator fills its cache, and every
    // optimizer decision it takes is one of those misses.
    let registry = Registry::new();
    let fresh = fresh_sim().with_telemetry(&registry);
    let cold_run = place(&fresh);
    assert!(
        fresh.cache_stats().misses > 0,
        "placement must use the cache"
    );
    let counters: std::collections::BTreeMap<String, u64> =
        registry.counters().into_iter().collect();
    assert_eq!(counters["optimizer.decisions"], counters["cache.misses"]);

    // Warm a second simulator with an engine run and a prior placement:
    // the same placement, and the engine run over it, keep every bit.
    let warm = fresh_sim();
    let other = synthetic_jobs(
        TraceKind::Drastic,
        3,
        SERVERS,
        STEPS,
        cold_run.trace.interval(),
    );
    let prior = PlacementEngine::new(&warm, &Original, SERVERS, STEPS)
        .unwrap()
        .place(&other, &mut HarvestAware::new())
        .unwrap();
    warm.run(&prior.trace, &Original).unwrap();
    warm.run(&cold_run.trace, &Original).unwrap();
    let hits = warm.cache_stats().hits;
    let warm_run = place(&warm);
    assert!(warm.cache_stats().hits > hits, "the warm cache must answer");
    assert_same_placement(&cold_run, &warm_run, "fresh vs warm cache");

    let on_warm = warm.run(&warm_run.trace, &Original).unwrap();
    let on_fresh = fresh_sim().run(&warm_run.trace, &Original).unwrap();
    assert_bit_identical(&on_fresh, &on_warm, "engine run after placement");
}

#[test]
fn a_job_outliving_any_horizon_serves_until_the_horizon() {
    // Any finite positive duration is a valid job; a huge one must not
    // overflow the end-step arithmetic (a panic in debug builds, an
    // early release after wrapping in release builds).
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, 40, 6).unwrap();
    let jobs = vec![h2p_jobs::Job::new(
        0,
        Seconds::new(400.0),
        Seconds::new(1e300),
        Utilization::saturating(0.5),
    )
    .unwrap()];
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, 1);
    assert_eq!(run.outcome.rejected, 0);
    // Arrives in step 1 of 6, then runs to the horizon: 5 × 0.5.
    assert_eq!(run.outcome.served_demand_steps, 2.5);
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_run(&mut self, run: &PlacementRun) {
        for step in 0..run.trace.steps() {
            for u in run.trace.utilizations_at(step) {
                self.eat(u.value().to_bits());
            }
        }
        let o = run.outcome;
        for count in [
            o.placed,
            o.rejected,
            o.migrated,
            o.throttle_violations,
            o.max_queue_wait_steps,
        ] {
            self.eat(count as u64);
        }
        self.eat(o.served_demand_steps.to_bits());
    }
}

/// A test policy that ignores capacity: it names servers in a fixed
/// stride, so a deferred job's recorded first choice differs from the
/// server it lands on when the queue re-admits it (a migration).
struct Stride(usize);

impl PlacementPolicy for Stride {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn place(&mut self, _job: &Job, view: &ClusterView<'_>) -> Option<usize> {
        self.0 += 7;
        Some(self.0 % view.servers())
    }
}

/// More work than 80 servers hold: 40 arrivals per step of 3–7 steps
/// at 0.3–0.9 demand each.
fn oversubscribed_jobs(interval: Seconds) -> Vec<Job> {
    (0..480_u64)
        .map(|i| {
            Job::new(
                i,
                Seconds::new(interval.value() * (i / 40) as f64),
                Seconds::new(interval.value() * (3 + i % 5) as f64),
                Utilization::saturating(0.3 + 0.1 * (i % 7) as f64),
            )
            .unwrap()
        })
        .collect()
}

/// The paper-scale probe shape: two 40-server circulations.
const PROBE_SERVERS: usize = 80;
const PROBE_STEPS: usize = 24;
const SCHEDS: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];

#[test]
fn placement_bits_match_the_recorded_digest() {
    let sim = Simulator::paper_default().unwrap();
    let mut digest = Fnv::new();
    for kind in TraceKind::all() {
        for sched in SCHEDS {
            let engine = PlacementEngine::new(&sim, sched, PROBE_SERVERS, PROBE_STEPS).unwrap();
            let jobs = synthetic_jobs(kind, 7, PROBE_SERVERS, PROBE_STEPS, engine.interval());
            for policy in PlacementPolicyKind::ALL {
                digest.eat_run(&engine.place(&jobs, &mut *policy.build()).unwrap());
            }
        }
    }

    // Over-subscribed: queue re-admission, migration and rejection all
    // contribute to the digest.
    let (mut migrated, mut rejected, mut waited) = (0, 0, 0);
    for sched in SCHEDS {
        let engine = PlacementEngine::new(&sim, sched, PROBE_SERVERS, PROBE_STEPS)
            .unwrap()
            .with_queue_capacity(16);
        let jobs = oversubscribed_jobs(engine.interval());
        let mut policies: Vec<Box<dyn PlacementPolicy>> =
            PlacementPolicyKind::ALL.iter().map(|k| k.build()).collect();
        policies.push(Box::new(Stride(0)));
        for mut policy in policies {
            let run = engine.place(&jobs, &mut *policy).unwrap();
            migrated += run.outcome.migrated;
            rejected += run.outcome.rejected;
            waited += run.outcome.max_queue_wait_steps;
            digest.eat_run(&run);
        }
    }
    assert!(migrated > 0 && rejected > 0 && waited > 0);
    assert_eq!(format!("{:016x}", digest.0), "1ff6da12e1250b1d");
}

#[test]
fn placement_counts_violations_against_the_simulators_envelope() {
    let paper = ServerModel::paper_default();
    let mut any = 0;
    for envelope in [60.0, 62.5] {
        let model = ServerModel::new(
            *paper.power_model(),
            *paper.cold_plate(),
            PowersaveGovernor::paper_default(),
            CpuSpec {
                max_operating: Celsius::new(envelope),
                ..CpuSpec::e5_2650_v3()
            },
        );
        let sim = Simulator::new(&model, SimulationConfig::paper_default()).unwrap();
        for sched in SCHEDS {
            let engine = PlacementEngine::new(&sim, sched, PROBE_SERVERS, PROBE_STEPS).unwrap();
            let jobs = synthetic_jobs(
                TraceKind::Common,
                7,
                PROBE_SERVERS,
                PROBE_STEPS,
                engine.interval(),
            );
            for policy in PlacementPolicyKind::ALL {
                let placed = engine.place(&jobs, &mut *policy.build()).unwrap();
                let engine_count = sim.run(&placed.trace, sched).unwrap().total_violations();
                assert_eq!(
                    placed.outcome.throttle_violations,
                    engine_count,
                    "{envelope} °C, {}, {policy}",
                    sched.name()
                );
                any += engine_count;
            }
        }
    }
    assert!(any > 0, "the lowered envelope must bite somewhere");
}
