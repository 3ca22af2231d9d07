//! `paper-sweep`: the paper's Fig. 14/15 evaluation. Every trace class
//! under `TEG_Original` and `TEG_LoadBalance` at 1,000 servers × 288
//! five-minute steps through `Simulator::run` on one worker, each cell
//! once on the dense oracle and once on the change kernel at
//! tolerance 0.01.

use crate::digest::{mean_teg_w, net_harvest_w, result_digest};
use crate::engine::{CellRun, EngineWorkload};
use crate::metrics::Outcome;
use crate::replay::{Replay, ReplayRun};
use crate::spans::SpanLog;
use crate::stats::median;
use h2p_core::fleet::EngineLayout;
use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::Simulator;
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_telemetry::Registry;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Servers per cell (the paper's cluster size).
pub const SERVERS: usize = 1000;
/// Five-minute control intervals per cell (24 hours).
pub const STEPS: usize = 288;
/// The kernel's tolerance on both axes.
pub const KERNEL_TOLERANCE: f64 = 0.01;
/// Servers per cell of the reference set.
pub const REFERENCE_SERVERS: usize = 200;
/// Control intervals per cell of the reference set.
pub const REFERENCE_STEPS: usize = 96;
/// Timed trace generations behind `workload.generate_s`.
const GENERATE_REPEATS: usize = 5;
/// Largest accepted relative error of a kernel cell's mean TEG power
/// against its dense cell.
pub const KERNEL_ERR_LIMIT: f64 = 0.05;

/// The two scheduling policies of the paper's evaluation.
const SCHEDS: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];

/// The sweep's inputs, built once per run.
pub struct PaperSweep {
    sim: Simulator,
    traces: Vec<ClusterTrace>,
    servers: usize,
    steps: usize,
    seed: u64,
}

impl PaperSweep {
    /// Builds the simulator and generates one trace per class from
    /// `seed` at paper scale.
    ///
    /// # Errors
    ///
    /// Simulator construction failures.
    pub fn setup(seed: u64) -> Result<Self, String> {
        PaperSweep::sized(seed, SERVERS, STEPS)
    }

    /// [`setup`](Self::setup) at `servers` × `steps`.
    ///
    /// # Errors
    ///
    /// Simulator construction failures.
    pub fn sized(seed: u64, servers: usize, steps: usize) -> Result<Self, String> {
        let sim = Simulator::paper_default()
            .map_err(|e| e.to_string())?
            .with_workers(NonZeroUsize::MIN);
        let traces = generate(seed, servers, steps);
        Ok(PaperSweep {
            sim,
            traces,
            servers,
            steps,
            seed,
        })
    }

    /// `(trace, scheduling policy, kernel?)` of a cell. Cells come in
    /// dense/kernel pairs.
    fn cell(&self, cell: usize) -> (usize, &'static dyn SchedulingPolicy, bool) {
        let pair = cell / 2;
        (
            pair / SCHEDS.len(),
            SCHEDS[pair % SCHEDS.len()],
            cell % 2 == 1,
        )
    }
}

impl EngineWorkload for PaperSweep {
    fn cells(&self) -> usize {
        self.traces.len() * SCHEDS.len() * 2
    }

    fn cell_name(&self, cell: usize) -> String {
        let (trace, sched, kernel) = self.cell(cell);
        format!(
            "{}/{}/{}",
            TraceKind::all()[trace].name(),
            sched.name(),
            if kernel { "kernel" } else { "dense" }
        )
    }

    fn server_steps(&self, _cell: usize) -> f64 {
        (self.servers * self.steps) as f64
    }

    fn time_setup(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        std::hint::black_box(PaperSweep::sized(self.seed, self.servers, self.steps)?);
        Ok(t0.elapsed().as_secs_f64())
    }

    fn run_cell(
        &self,
        cell: usize,
        registry: Option<&Registry>,
        layout: EngineLayout,
    ) -> Result<CellRun, String> {
        let (trace, sched, kernel) = self.cell(cell);
        let mut sim = self.sim.clone().with_layout(layout);
        if kernel {
            let tolerance =
                KernelTolerance::uniform(KERNEL_TOLERANCE).map_err(|e| e.to_string())?;
            sim = sim.with_kernel_tolerance(tolerance);
        }
        if let Some(registry) = registry {
            sim = sim.with_telemetry(registry);
        }
        let t0 = Instant::now();
        let result = sim
            .run(&self.traces[trace], sched)
            .map_err(|e| e.to_string())?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok(CellRun {
            seconds,
            digest: result_digest(&result),
            net_w: net_harvest_w(&result),
            teg_w: mean_teg_w(&result),
        })
    }

    fn is_dense(&self, cell: usize) -> bool {
        !self.cell(cell).2
    }

    /// Every dense cell at [`REFERENCE_SERVERS`] × [`REFERENCE_STEPS`].
    fn reference_runs(&self) -> Result<Vec<(String, u64)>, String> {
        let reference = PaperSweep::sized(
            crate::reference::seed()?,
            REFERENCE_SERVERS,
            REFERENCE_STEPS,
        )?;
        (0..reference.cells())
            .filter(|&c| reference.is_dense(c))
            .map(|cell| {
                let run = reference.run_cell(cell, None, EngineLayout::Columns)?;
                Ok((reference.cell_name(cell), run.digest))
            })
            .collect()
    }

    fn exact_decisions(&self) -> bool {
        true
    }

    fn check(&self, runs: &[Vec<CellRun>], out: &mut Outcome) {
        // Each kernel cell's accuracy against its dense oracle cell.
        let mut worst: f64 = 0.0;
        for kernel_cell in (1..runs.len()).step_by(2) {
            let (Some(dense), Some(kernel)) =
                (runs[kernel_cell - 1].first(), runs[kernel_cell].first())
            else {
                continue;
            };
            let err = (kernel.teg_w - dense.teg_w).abs() / dense.teg_w.abs().max(f64::MIN_POSITIVE);
            worst = worst.max(err);
            out.op(err <= KERNEL_ERR_LIMIT, || {
                format!(
                    "{}: kernel error {err} exceeds {KERNEL_ERR_LIMIT}",
                    self.cell_name(kernel_cell)
                )
            });
        }
        out.set("core.kernel_err_rel", worst);
    }

    fn replay(&self, log: &mut SpanLog) -> Result<Vec<ReplayRun>, String> {
        (0..self.cells())
            .filter(|&c| self.is_dense(c))
            .map(|cell| {
                let (trace, sched, _) = self.cell(cell);
                Replay::new(&self.sim).run_cluster(log, cell as u64, &self.traces[trace], sched)
            })
            .collect()
    }

    /// Besides trace generation, the sweep's traced run probes the
    /// placement and serving layers in-process on inputs from the same
    /// seed: they lie off the sweep's path, and no workload of the
    /// benchmark runs them (see `README.md`).
    fn layer_metrics(&self, log: &mut SpanLog, out: &mut Outcome) -> Result<(), String> {
        let generate_s: Vec<f64> = (0..GENERATE_REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(generate(self.seed, self.servers, self.steps));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        out.set("workload.generate_s", median(&generate_s));
        crate::placement::probe_layers(self.seed, out)?;
        crate::gateway::probe_layers(self.seed, log, out)
    }
}

/// One trace per class, generated from `seed`.
fn generate(seed: u64, servers: usize, steps: usize) -> Vec<ClusterTrace> {
    TraceKind::all()
        .into_iter()
        .map(|kind| {
            TraceGenerator::paper(kind, seed)
                .with_servers(servers)
                .with_steps(steps)
                .generate()
        })
        .collect()
}
