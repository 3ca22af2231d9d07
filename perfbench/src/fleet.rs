//! `fleet-stream`: `Simulator::run_fleet` on the Common trace under
//! `TEG_LoadBalance`, for a fleet eight times paper scale, streamed in
//! `ChunkPlan` chunks under a trace budget small enough to force
//! several resident chunks, on up to two worker lanes.

use crate::digest::{mean_teg_w, net_harvest_w, result_digest};
use crate::engine::{CellRun, EngineWorkload};
use crate::host;
use crate::metrics::Outcome;
use crate::replay::{Replay, ReplayRun};
use crate::spans::SpanLog;
use h2p_core::fleet::{ChunkPlan, EngineLayout};
use h2p_core::simulation::Simulator;
use h2p_sched::LoadBalance;
use h2p_telemetry::Registry;
use h2p_workload::{TraceGenerator, TraceKind};
use serde_json::json;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Fleet size in servers.
pub const SERVERS: usize = 8000;
/// Five-minute control intervals (24 hours).
pub const STEPS: usize = 288;
/// Worker lanes wanted (clamped to `nproc`).
pub const WORKERS: usize = 2;
/// Resident-trace budget handed to `ChunkPlan::sized_for`.
pub const TRACE_BUDGET_BYTES: usize = 4 << 20;
/// Servers of the reference set's fleet (12.5 circulations).
pub const REFERENCE_SERVERS: usize = 500;
/// Control intervals of the reference set's fleet.
pub const REFERENCE_STEPS: usize = 48;

/// The streamed fleet's inputs.
pub struct FleetStream {
    sim: Simulator,
    generator: TraceGenerator,
    plan: ChunkPlan,
    seed: u64,
}

/// Conservative resident bytes of one circulation's trace shard.
fn per_circulation_bytes(circ: usize, steps: usize) -> usize {
    circ * (steps * 8 + 96)
}

impl FleetStream {
    /// Builds the simulator, the lazy generator, and the chunk plan.
    ///
    /// # Errors
    ///
    /// Simulator or plan construction failures.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let workers = NonZeroUsize::new(host::lanes(WORKERS)).unwrap_or(NonZeroUsize::MIN);
        let sim = Simulator::paper_default()
            .map_err(|e| e.to_string())?
            .with_workers(workers);
        let circ = sim.config().servers_per_circulation;
        let generator = TraceGenerator::paper(TraceKind::Common, seed)
            .with_servers(SERVERS)
            .with_steps(STEPS);
        let plan = ChunkPlan::sized_for(
            SERVERS,
            NonZeroUsize::new(circ).unwrap_or(NonZeroUsize::MIN),
            per_circulation_bytes(circ, STEPS),
            TRACE_BUDGET_BYTES,
        )
        .map_err(|e| e.to_string())?;
        Ok(FleetStream {
            sim,
            generator,
            plan,
            seed,
        })
    }

    /// Worker lanes in use.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.sim.workers().get()
    }

    /// Resident chunks per run.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.plan.n_chunks()
    }

    /// Digests of a materialized run and of a streamed run, one
    /// circulation per chunk, of a slice of 2.5 circulations × 24 steps
    /// generated from `seed`.
    fn slice_digests(&self, seed: u64) -> Result<(u64, u64), String> {
        let circ = self.sim.config().servers_per_circulation;
        let generator = TraceGenerator::paper(TraceKind::Common, seed)
            .with_servers(2 * circ + circ / 2)
            .with_steps(24);
        let one = NonZeroUsize::MIN;
        let circ_nz = NonZeroUsize::new(circ).unwrap_or(one);
        let plan = ChunkPlan::new(generator.servers(), circ_nz, one).map_err(|e| e.to_string())?;
        let materialized = self
            .sim
            .run(&generator.generate(), &LoadBalance)
            .map_err(|e| e.to_string())?;
        let streamed = self
            .sim
            .run_fleet(&generator, &LoadBalance, &plan)
            .map_err(|e| e.to_string())?;
        Ok((result_digest(&materialized), result_digest(&streamed)))
    }
}

impl EngineWorkload for FleetStream {
    fn cells(&self) -> usize {
        1
    }

    fn cell_name(&self, _cell: usize) -> String {
        format!("common/TEG_LoadBalance/fleet-{SERVERS}")
    }

    fn server_steps(&self, _cell: usize) -> f64 {
        (SERVERS * STEPS) as f64
    }

    fn time_setup(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        std::hint::black_box(FleetStream::setup(self.seed)?);
        Ok(t0.elapsed().as_secs_f64())
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
        let t0 = Instant::now();
        let result = sim
            .run_fleet(&self.generator, &LoadBalance, &self.plan)
            .map_err(|e| e.to_string())?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok(CellRun {
            seconds,
            digest: result_digest(&result),
            net_w: net_harvest_w(&result),
            teg_w: mean_teg_w(&result),
        })
    }

    fn is_dense(&self, _cell: usize) -> bool {
        true
    }

    /// The streamed slice, and a fleet of [`REFERENCE_SERVERS`] ×
    /// [`REFERENCE_STEPS`] streamed three circulations per chunk on the
    /// run's lanes.
    fn reference_runs(&self) -> Result<Vec<(String, u64)>, String> {
        let seed = crate::reference::seed()?;
        let (_, slice) = self.slice_digests(seed)?;
        let circ = self.sim.config().servers_per_circulation;
        let generator = TraceGenerator::paper(TraceKind::Common, seed)
            .with_servers(REFERENCE_SERVERS)
            .with_steps(REFERENCE_STEPS);
        let plan = ChunkPlan::new(
            REFERENCE_SERVERS,
            NonZeroUsize::new(circ).unwrap_or(NonZeroUsize::MIN),
            NonZeroUsize::new(3).unwrap_or(NonZeroUsize::MIN),
        )
        .map_err(|e| e.to_string())?;
        let fleet = self
            .sim
            .run_fleet(&generator, &LoadBalance, &plan)
            .map_err(|e| e.to_string())?;
        Ok(vec![
            ("slice".to_owned(), slice),
            (format!("fleet-{REFERENCE_SERVERS}"), result_digest(&fleet)),
        ])
    }

    fn exact_decisions(&self) -> bool {
        self.workers() == 1
    }

    fn check(&self, _runs: &[Vec<CellRun>], out: &mut Outcome) {
        match self.slice_digests(self.seed) {
            Ok((materialized, streamed)) => out.op(materialized == streamed, || {
                "streamed slice diverged from the materialized run".to_owned()
            }),
            Err(e) => out.op(false, || format!("streamed slice: {e}")),
        }
        out.detail(
            "fleet",
            json!({
                "servers": SERVERS,
                "steps": STEPS,
                "workers": self.workers(),
                "chunks": self.chunks(),
                "circs_per_chunk": self.plan.circs_per_chunk().get(),
                "trace_budget_bytes": TRACE_BUDGET_BYTES,
            }),
        );
    }

    fn replay(&self, log: &mut SpanLog) -> Result<Vec<ReplayRun>, String> {
        let run =
            Replay::new(&self.sim).run_fleet(log, 0, &self.generator, &LoadBalance, &self.plan)?;
        Ok(vec![run])
    }

    fn layer_metrics(&self, log: &mut SpanLog, out: &mut Outcome) -> Result<(), String> {
        let shard_ns = log.totals().get("workload.shard").map_or(0, |t| t.total_ns);
        out.set("workload.generate_s", shard_ns as f64 / 1e9);
        Ok(())
    }
}
