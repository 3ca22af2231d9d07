//! Replay fidelity: the layer replay must make exactly the engine's
//! `optimize` calls and reproduce its net harvest bit for bit, so the
//! per-layer times it records are shares of the engine's real work.
//! Runs on the seed the benchmark was developed with and on one that
//! was never used while writing it.

use h2p_core::fleet::{ChunkPlan, EngineLayout};
use h2p_core::simulation::Simulator;
use h2p_perfbench::digest::net_harvest_w;
use h2p_perfbench::engine::{self, CellRun, EngineWorkload};
use h2p_perfbench::fleet::FleetStream;
use h2p_perfbench::metrics::Outcome;
use h2p_perfbench::paper::PaperSweep;
use h2p_perfbench::reference;
use h2p_perfbench::replay::{Replay, ReplayRun};
use h2p_perfbench::spans::SpanLog;
use h2p_perfbench::RunArgs;
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_telemetry::Registry;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};
use std::num::NonZeroUsize;

/// The seed the benchmark was developed with, and one never used
/// while writing it.
const SEEDS: [u64; 2] = [1, 7_919_113];

fn one_worker() -> Simulator {
    Simulator::paper_default()
        .unwrap()
        .with_workers(NonZeroUsize::MIN)
}

fn decisions(registry: &Registry) -> u64 {
    registry
        .counters()
        .into_iter()
        .find(|(name, _)| name == "optimizer.decisions")
        .map_or(0, |(_, v)| v)
}

#[test]
fn dense_replay_matches_the_engine() {
    let policies: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];
    for seed in SEEDS {
        for kind in TraceKind::all() {
            let cluster = TraceGenerator::paper(kind, seed)
                .with_servers(200)
                .with_steps(48)
                .generate();
            for policy in policies {
                let sim = one_worker();
                let registry = Registry::new();
                let result = sim
                    .clone()
                    .with_telemetry(&registry)
                    .run(&cluster, policy)
                    .unwrap();
                let mut log = SpanLog::new();
                let replay = Replay::new(&sim)
                    .run_cluster(&mut log, 0, &cluster, policy)
                    .unwrap();
                let what = format!("seed {seed} {kind} {}", policy.name());
                assert_eq!(replay.counts.optimize_calls, decisions(&registry), "{what}");
                assert_eq!(
                    replay.net_harvest_w.to_bits(),
                    net_harvest_w(&result).to_bits(),
                    "{what}"
                );
                assert_eq!(replay.counts.lookups, (200 * 48) as u64, "{what}");
                let spans = log.totals();
                assert_eq!(
                    spans["cooling.optimize"].count, replay.counts.optimize_calls,
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn fleet_replay_matches_the_engine() {
    for seed in SEEDS {
        let sim = one_worker();
        let generator = TraceGenerator::paper(TraceKind::Common, seed)
            .with_servers(300)
            .with_steps(24);
        let circ = NonZeroUsize::new(sim.config().servers_per_circulation).unwrap();
        let plan = ChunkPlan::new(300, circ, NonZeroUsize::new(3).unwrap()).unwrap();
        let registry = Registry::new();
        let result = sim
            .clone()
            .with_telemetry(&registry)
            .run_fleet(&generator, &LoadBalance, &plan)
            .unwrap();
        let mut log = SpanLog::new();
        let replay = Replay::new(&sim)
            .run_fleet(&mut log, 0, &generator, &LoadBalance, &plan)
            .unwrap();
        assert_eq!(
            replay.counts.optimize_calls,
            decisions(&registry),
            "seed {seed}"
        );
        assert_eq!(
            replay.net_harvest_w.to_bits(),
            net_harvest_w(&result).to_bits(),
            "seed {seed}"
        );
        assert_eq!(log.totals()["workload.shard"].count, plan.n_chunks() as u64);
    }
}

/// A one-cell workload small enough for a test of the runner's
/// Scalar-layout check and traced replay.
struct Tiny {
    sim: Simulator,
    cluster: ClusterTrace,
}

impl EngineWorkload for Tiny {
    fn cells(&self) -> usize {
        1
    }

    fn cell_name(&self, _cell: usize) -> String {
        "tiny".to_owned()
    }

    fn server_steps(&self, _cell: usize) -> f64 {
        (self.cluster.servers() * self.cluster.steps()) as f64
    }

    fn time_setup(&self) -> Result<f64, String> {
        Ok(0.0)
    }

    fn run_cell(
        &self,
        _cell: usize,
        registry: Option<&Registry>,
        layout: EngineLayout,
    ) -> Result<CellRun, String> {
        let mut sim = self.sim.clone().with_layout(layout);
        if let Some(registry) = registry {
            sim = sim.with_telemetry(registry);
        }
        let t0 = std::time::Instant::now();
        let result = sim
            .run(&self.cluster, &LoadBalance)
            .map_err(|e| e.to_string())?;
        Ok(CellRun {
            seconds: t0.elapsed().as_secs_f64(),
            digest: h2p_perfbench::digest::result_digest(&result),
            net_w: net_harvest_w(&result),
            teg_w: h2p_perfbench::digest::mean_teg_w(&result),
        })
    }

    fn is_dense(&self, _cell: usize) -> bool {
        true
    }

    fn reference_runs(&self) -> Result<Vec<(String, u64)>, String> {
        Ok(Vec::new())
    }

    fn exact_decisions(&self) -> bool {
        true
    }

    fn check(&self, _runs: &[Vec<CellRun>], _out: &mut Outcome) {}

    fn replay(&self, log: &mut SpanLog) -> Result<Vec<ReplayRun>, String> {
        Ok(vec![Replay::new(&self.sim).run_cluster(
            log,
            0,
            &self.cluster,
            &LoadBalance,
        )?])
    }

    fn layer_metrics(&self, _log: &mut SpanLog, _out: &mut Outcome) -> Result<(), String> {
        Ok(())
    }
}

fn measure_tiny(trace: bool) -> Outcome {
    let tiny = Tiny {
        sim: one_worker(),
        cluster: TraceGenerator::paper(TraceKind::Drastic, SEEDS[1])
            .with_servers(80)
            .with_steps(12)
            .generate(),
    };
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay-fidelity");
    std::fs::create_dir_all(&out_dir).unwrap();
    let args = RunArgs {
        workload: "tiny".to_owned(),
        seed: SEEDS[1],
        seconds: 0.01,
        trace,
        corrupt_reference: false,
        out_dir,
    };
    let mut out = Outcome::default();
    engine::measure(&tiny, &args, 0.0, &mut out).unwrap();
    out
}

#[test]
fn every_run_matches_the_scalar_layout() {
    let clean = measure_tiny(false);
    assert_eq!(clean.failed, 0, "{:?}", clean.notes);
    assert!(clean.attempted >= 3);
}

#[test]
fn the_committed_reference_passes_and_a_corrupted_one_fails() {
    let seed = reference::seed().unwrap();
    let workloads: [(&str, Box<dyn EngineWorkload>); 2] = [
        ("paper-sweep", Box::new(PaperSweep::setup(seed).unwrap())),
        ("fleet-stream", Box::new(FleetStream::setup(seed).unwrap())),
    ];
    for (name, workload) in workloads {
        let runs = workload.reference_runs().unwrap();
        assert_eq!(runs.len(), reference::stored(name).unwrap().len(), "{name}");
        let mut clean = Outcome::default();
        reference::check(name, &runs, false, &mut clean);
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);
        assert_eq!(clean.attempted, runs.len() as u64, "{name}");
        let mut corrupted = Outcome::default();
        reference::check(name, &runs, true, &mut corrupted);
        assert_eq!(corrupted.failed, corrupted.attempted, "{name}");
    }
}

#[test]
fn the_traced_run_checks_the_replay_against_the_engine() {
    let traced = measure_tiny(true);
    assert_eq!(traced.failed, 0, "{:?}", traced.notes);
    // One replay check of the net harvest and one of the call count.
    assert!(traced.attempted >= 2);
    assert!(traced.values["cooling.optimize_us"] > 0.0);
    assert_eq!(traced.values["server.lookups"], (80 * 12) as f64);
}
