//! The engine's one driver: the only code that walks circulations ×
//! control intervals (paper Sec. V-C; DESIGN.md §8). `Simulator::run`,
//! `run_fleet` and `run_with_faults` all call [`Simulator::drive`].
//!
//! 1. **Source.** A [`Source`] yields resident chunks of the cluster:
//!    the whole materialized trace as one chunk, or `ShardStream`
//!    shards, one per `ChunkPlan` chunk.
//! 2. **Lanes.** Inside a chunk each `h2p-exec` lane takes one
//!    circulation across all control intervals. At each step the lane
//!    decides whether to hold or evaluate (the change kernel's state is
//!    a lane-local `Option<HeldDecision>`) and evaluates under its
//!    [`Overlay`], whose fault effects are pure functions of
//!    `(plan, circulation, step)`.
//! 3. **Fold.** After the lanes finish, each step's accumulator absorbs
//!    the chunk's partials in circulation-index order — the same
//!    addition sequence a step-major loop runs, so results are
//!    bit-identical for every worker count and chunk plan.

use crate::kernel::{HeldDecision, KernelStats};
use crate::simulation::{CircPartial, Simulator, StepFold};
use crate::H2pError;
use h2p_cooling::CoolingOptimizer;
use h2p_exec::ChunkPlan;
use h2p_sched::SchedulingPolicy;
use h2p_units::{Celsius, Seconds, Utilization};
use h2p_workload::{ClusterTrace, TraceGenerator};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

/// Where a run's resident chunks come from.
pub(crate) enum Source<'a> {
    /// A materialized trace: one chunk holding every circulation.
    Trace(&'a ClusterTrace),
    /// Generated shards, one per chunk of the plan (never the whole
    /// trace at once).
    Shards {
        generator: &'a TraceGenerator,
        plan: &'a ChunkPlan,
    },
}

impl Source<'_> {
    pub(crate) fn servers(&self) -> usize {
        match self {
            Source::Trace(trace) => trace.servers(),
            Source::Shards { generator, .. } => generator.servers(),
        }
    }

    pub(crate) fn steps(&self) -> usize {
        match self {
            Source::Trace(trace) => trace.steps(),
            Source::Shards { generator, .. } => generator.steps(),
        }
    }

    pub(crate) fn interval(&self) -> Seconds {
        match self {
            Source::Trace(trace) => trace.interval(),
            Source::Shards { generator, .. } => generator.interval(),
        }
    }

    /// Simulated time at the start of `step`.
    pub(crate) fn time(&self, step: usize) -> Seconds {
        Seconds::new(self.interval().value() * step as f64)
    }
}

/// One circulation-step as a lane evaluates it.
#[derive(Clone, Copy)]
pub(crate) struct At<'a, 'o> {
    pub(crate) circ: usize,
    pub(crate) step: usize,
    pub(crate) cold: Celsius,
    /// The optimizer for the true cold reading `cold`.
    pub(crate) optimizer: &'a CoolingOptimizer<'o>,
}

/// What a lane evaluates each circulation-step under: the plain engine
/// ([`Healthy`]) or a fault overlay. The overlay picks the partial a
/// lane carries, so plan-free runs carry plain [`CircPartial`]s.
pub(crate) trait Overlay: Sync {
    /// One circulation-step's contribution.
    type Partial: Copy + Send;
    /// One control interval's reduction of partials.
    type Fold: Default;

    /// Whether a fault is live on `circ` at `step`.
    fn live(&self, circ: usize, step: usize) -> bool;

    /// Evaluates one circulation-step.
    fn evaluate(
        &self,
        sim: &Simulator,
        at: At<'_, '_>,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
    ) -> Result<Self::Partial, H2pError>;

    /// The partial a held decision replays as.
    fn replay(held: CircPartial) -> Self::Partial;

    /// The partial a kernel may hold, or `None` when the evaluation ran
    /// under a live fault (it must never replay after recovery).
    fn anchor(partial: &Self::Partial) -> Option<CircPartial>;

    /// Absorbs one partial. Callers add in circulation-index order
    /// (f64 addition is not associative).
    fn add(fold: &mut Self::Fold, partial: &Self::Partial);
}

/// The plan-free overlay: no fault is ever live.
pub(crate) struct Healthy;

impl Overlay for Healthy {
    type Partial = CircPartial;
    type Fold = StepFold;

    fn live(&self, _circ: usize, _step: usize) -> bool {
        false
    }

    fn evaluate(
        &self,
        sim: &Simulator,
        at: At<'_, '_>,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
    ) -> Result<CircPartial, H2pError> {
        sim.simulate_circulation(chunk, policy, at.optimizer, at.cold)
    }

    fn replay(held: CircPartial) -> CircPartial {
        held
    }

    fn anchor(partial: &CircPartial) -> Option<CircPartial> {
        Some(*partial)
    }

    fn add(fold: &mut StepFold, partial: &CircPartial) {
        fold.add(*partial);
    }
}

impl Simulator {
    /// Servers per circulation for a cluster of `servers`.
    pub(crate) fn circulation_size(&self, servers: usize) -> usize {
        self.config.servers_per_circulation.min(servers).max(1)
    }

    /// Runs `policy` over every circulation × control interval of
    /// `source` under `overlay` (and the configured kernel, if any),
    /// returning one fold per control interval.
    ///
    /// # Errors
    ///
    /// Optimizer construction failures, the lowest-indexed
    /// circulation's evaluation error, and
    /// [`H2pError::FleetPlanMismatch`] when the shard stream runs dry
    /// before the plan does.
    pub(crate) fn drive<O: Overlay>(
        &self,
        source: &Source<'_>,
        policy: &dyn SchedulingPolicy,
        overlay: &O,
    ) -> Result<Vec<O::Fold>, H2pError> {
        let n_steps = source.steps();
        let circ_size = self.circulation_size(source.servers());

        // The optimizer depends only on the cold-source temperature:
        // construct one per distinct cold reading over the whole run (a
        // constant source gets exactly one), not one per step.
        let mut colds = Vec::with_capacity(n_steps);
        let mut optimizers: HashMap<u64, CoolingOptimizer<'_>> = HashMap::new();
        for step in 0..n_steps {
            let cold = self.config.cold_source.temperature(source.time(step));
            if let Entry::Vacant(entry) = optimizers.entry(cold.value().to_bits()) {
                entry.insert(self.new_optimizer(cold)?);
            }
            colds.push(cold);
        }
        let colds: Vec<(Celsius, &CoolingOptimizer<'_>)> = colds
            .into_iter()
            .map(|cold| (cold, &optimizers[&cold.value().to_bits()]))
            .collect();

        let mut folds: Vec<O::Fold> = (0..n_steps).map(|_| O::Fold::default()).collect();
        // One resident chunk: `trace` holds the servers from
        // `first_server` on, and `circs` are its circulations.
        let mut run_chunk = |trace: &ClusterTrace, circs: Range<usize>, first_server: usize| {
            let circs: Vec<usize> = circs.collect();
            let lanes = h2p_exec::try_par_map_observed(
                &self.telemetry.pool,
                self.workers,
                &circs,
                |_, &circ| {
                    let start = circ * circ_size - first_server;
                    let servers = start..start.saturating_add(circ_size).min(trace.servers());
                    self.lane(trace, servers, circ, &colds, policy, overlay)
                },
            )?;
            for lane in &lanes {
                for (fold, partial) in folds.iter_mut().zip(lane) {
                    O::add(fold, partial);
                }
            }
            Ok::<(), H2pError>(())
        };
        match source {
            Source::Trace(trace) => {
                run_chunk(trace, 0..trace.servers().div_ceil(circ_size), 0)?;
            }
            Source::Shards { generator, plan } => {
                let mut shards = generator.shards(plan.max_chunk_servers());
                for chunk in plan.chunks() {
                    let shard = shards.next().ok_or(H2pError::FleetPlanMismatch {
                        what: "shard count",
                        expected: chunk.index + 1,
                        got: chunk.index,
                    })?;
                    debug_assert_eq!(shard.start_server(), chunk.servers.start);
                    run_chunk(shard.cluster(), chunk.circulations, chunk.servers.start)?;
                }
            }
        }

        self.telemetry.note_run(n_steps);
        Ok(folds)
    }

    /// One lane: circulation `circ` (the `servers` of `trace`) across
    /// every control interval, holding or evaluating at each step.
    fn lane<O: Overlay>(
        &self,
        trace: &ClusterTrace,
        servers: Range<usize>,
        circ: usize,
        colds: &[(Celsius, &CoolingOptimizer<'_>)],
        policy: &dyn SchedulingPolicy,
        overlay: &O,
    ) -> Result<Vec<O::Partial>, H2pError> {
        let mut partials = Vec::with_capacity(colds.len());
        let mut loads: Vec<Utilization> = Vec::with_capacity(servers.len());
        let mut held: Option<HeldDecision> = None;
        let mut was_live = false;
        let mut tally = KernelStats::default();
        for (step, &(cold, optimizer)) in colds.iter().enumerate() {
            loads.clear();
            loads.extend(servers.clone().map(|s| trace.trace(s).get(step)));
            let mut u_ctrl = 0.0;
            if let Some(tolerance) = self.kernel {
                // A live fault, or its recovery step, forces a fresh
                // evaluation: degradation is never skipped, and a hold
                // never outlives a fault window.
                let live = overlay.live(circ, step);
                if live || was_live {
                    held = None;
                    tally.forced += 1;
                }
                was_live = live;
                u_ctrl = policy.control_utilization(&loads).value();
                if let Some(hold) = held
                    .as_ref()
                    .filter(|h| h.holds(tolerance, &loads, u_ctrl, cold.value()))
                {
                    partials.push(O::replay(hold.partial));
                    tally.held += 1;
                    continue;
                }
            }
            let t0 = self.telemetry.registry.now_nanos();
            let at = At {
                circ,
                step,
                cold,
                optimizer,
            };
            let partial = overlay.evaluate(self, at, &loads, policy)?;
            self.telemetry
                .circ_wall
                .record(self.telemetry.registry.now_nanos().saturating_sub(t0));
            tally.evaluated += 1;
            if self.kernel.is_some() {
                if let Some(anchor) = O::anchor(&partial) {
                    held = Some(HeldDecision::new(&loads, u_ctrl, cold.value(), anchor));
                }
            }
            partials.push(partial);
        }
        if self.kernel.is_some() {
            self.telemetry.note_kernel(&tally);
        }
        Ok(partials)
    }
}
