//! Trace-driven datacenter simulation (paper Sec. V-C, Figs. 14-15).
//!
//! The engine divides the cluster into water circulations of
//! `servers_per_circulation` servers (the paper's CDU granularity —
//! "servers in one or several racks are controlled by one CDU and share
//! the same water circulation"). Every control interval, for every
//! circulation:
//!
//! 1. the scheduling policy rearranges the interval's loads and names
//!    the control utilization (`U_max` or `U_avg`, Step 1);
//! 2. the cooling optimizer picks `{f, T_warm_in}` from the lookup
//!    space (Steps 2-3);
//! 3. every server's coolant outlet and TEG output follow from its own
//!    (post-scheduling) load under the shared setting.
//!
//! # Parallel execution & determinism
//!
//! Circulations never interact within a control interval, so the
//! engine's one driver (`crate::driver`) gives each worker lane
//! (`h2p-exec`) one circulation across all intervals and folds the
//! per-circulation partial aggregates **in circulation-index order**.
//! Sequential (`workers = 1`) and parallel runs therefore produce
//! bit-identical [`SimulationResult`]s: every partial is a pure
//! function of its circulation's loads, and the fold order never
//! depends on thread scheduling.
//!
//! Two hot-path reuses keep the engine fast without breaking that
//! contract (see DESIGN.md §8 for the invariants):
//!
//! * **optimizer hoisting** — a [`CoolingOptimizer`] depends only on
//!   the cold-source temperature, so one is constructed per *distinct*
//!   cold value rather than once per step;
//! * **exact-key setting cache** — optimizer choices are memoized under
//!   the exact `(u_control, cold)` bit pattern, shared across
//!   circulations, steps, threads and runs. Because
//!   [`CoolingOptimizer::optimize`] is deterministic in those exact
//!   inputs, a cache hit returns the same bits a fresh search would —
//!   the cache is observationally transparent. (An earlier revision
//!   quantized the cold temperature to 1/16 °C in a run-wide key, which
//!   silently replayed settings optimized for one cold temperature at
//!   another as the source drifted.)

use crate::driver::{Healthy, Source};
use crate::fleet::{EngineLayout, FleetColumns};
use crate::kernel::{KernelStats, KernelTolerance};
use crate::H2pError;
use h2p_cooling::{CoolingOptimizer, CoolingPlant, OptimizedSetting, PlantLoad};
use h2p_exec::{ChunkPlan, PoolTelemetry};
use h2p_hydraulics::{ColdSource, Pump};
use h2p_sched::SchedulingPolicy;
use h2p_server::{CpuPowerModel, LookupSpace, ServerModel};
use h2p_teg::TegModule;
use h2p_telemetry::{BucketSpec, Counter, Histogram, Registry};
use h2p_units::{Celsius, DegC, Joules, Seconds, Utilization, Watts};
use h2p_workload::{ClusterTrace, TraceGenerator};
use std::cell::RefCell;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::{PoisonError, RwLock};

/// Configuration of the simulated H2P datacenter.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Servers sharing one CDU/water circulation.
    pub servers_per_circulation: usize,
    /// CPU safety target (the controller's `T_safe`).
    pub t_safe: Celsius,
    /// Half-width of the safety band used in Step 2.
    pub tolerance: DegC,
    /// Cold-water source for the TEG cold loop.
    pub cold_source: ColdSource,
    /// TEGs per CPU.
    pub module: TegModule,
    /// Per-branch pump model.
    pub pump: Pump,
    /// The cooling plant (tower + chiller + FWS pumping) used for the
    /// PUE/ERE accounting.
    pub plant: CoolingPlant,
}

impl SimulationConfig {
    /// The paper's evaluation configuration: 40-server circulations
    /// (a rack pair per CDU), `T_safe = 62 °C ± 1 °C`, constant 20 °C
    /// cold water, 12 TEGs per CPU, prototype pump.
    #[must_use]
    pub fn paper_default() -> Self {
        SimulationConfig {
            servers_per_circulation: 40,
            t_safe: Celsius::new(62.0),
            tolerance: DegC::new(1.0),
            cold_source: ColdSource::paper_default(),
            module: TegModule::paper_module(),
            pump: Pump::paper_tcs_pump(),
            plant: CoolingPlant::paper_default(),
        }
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig::paper_default()
    }
}

/// Aggregates for one control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Simulated time at the start of the interval.
    pub time: Seconds,
    /// Mean per-server TEG output over the interval.
    pub teg_power_per_server: Watts,
    /// Mean per-server CPU power (Eq. 20) over the interval.
    pub cpu_power_per_server: Watts,
    /// Mean per-server pump power.
    pub pump_power_per_server: Watts,
    /// Mean per-server cooling-plant power (tower + chiller + FWS
    /// pumps).
    pub cooling_power_per_server: Watts,
    /// Server-weighted mean of the chosen inlet temperatures over the
    /// *online* servers: each circulation's inlet counts once per
    /// server it cools, so a ragged final circulation (cluster size not
    /// divisible by the circulation size) contributes proportionally to
    /// its size, and circulations isolated offline by faults don't
    /// count at all (they cool nothing). With every server offline this
    /// falls back to the configured `t_safe` (the plant sees zero heat
    /// and zero flow then, so the value is inert).
    pub mean_inlet: Celsius,
    /// Mean coolant outlet temperature across servers.
    pub mean_outlet: Celsius,
    /// Cluster-mean utilization after scheduling.
    pub mean_utilization: Utilization,
    /// Cluster-peak utilization after scheduling.
    pub peak_utilization: Utilization,
    /// Servers whose predicted die exceeded the CPU maximum operating
    /// temperature this interval (should stay zero).
    pub thermal_violations: usize,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    policy: &'static str,
    interval: Seconds,
    servers: usize,
    steps: Vec<StepRecord>,
}

impl SimulationResult {
    /// Assembles a result from pre-merged step records (used by the
    /// fault-injected engine in [`crate::faulted`]).
    pub(crate) fn from_parts(
        policy: &'static str,
        interval: Seconds,
        servers: usize,
        steps: Vec<StepRecord>,
    ) -> Self {
        SimulationResult {
            policy,
            interval,
            servers,
            steps,
        }
    }

    /// The policy that produced this run.
    #[must_use]
    pub fn policy(&self) -> &'static str {
        self.policy
    }

    /// The control interval.
    #[must_use]
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Number of simulated servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Per-interval records (the Fig. 14 series).
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Mean of `field` over the recorded steps, or
    /// [`H2pError::EmptyRun`] when no step was recorded. An earlier
    /// revision divided by `len().max(1)`, silently laundering an
    /// empty run into a plausible 0 W that downstream TCO math would
    /// happily consume; the typed error matches
    /// [`partial_pue`](Self::partial_pue)/[`partial_ere`](Self::partial_ere).
    fn average_over_steps(&self, field: impl Fn(&StepRecord) -> f64) -> Result<Watts, H2pError> {
        if self.steps.is_empty() {
            return Err(H2pError::EmptyRun);
        }
        let total: f64 = self.steps.iter().map(field).sum();
        Ok(Watts::new(total / self.steps.len() as f64))
    }

    /// Time-average per-server TEG output (the headline Fig. 14 number).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run with no recorded steps,
    /// where the average is undefined.
    pub fn average_teg_power(&self) -> Result<Watts, H2pError> {
        self.average_over_steps(|s| s.teg_power_per_server.value())
    }

    /// Peak per-server TEG output over the run (zero on an empty run —
    /// a maximum over nothing, not an average, so no value is being
    /// fabricated).
    #[must_use]
    pub fn peak_teg_power(&self) -> Watts {
        self.steps
            .iter()
            .map(|s| s.teg_power_per_server)
            .fold(Watts::zero(), Watts::max)
    }

    /// Time-average per-server CPU power.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run with no recorded steps,
    /// where the average is undefined.
    pub fn average_cpu_power(&self) -> Result<Watts, H2pError> {
        self.average_over_steps(|s| s.cpu_power_per_server.value())
    }

    /// Time-average per-server cooling-plant power.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run with no recorded steps,
    /// where the average is undefined.
    pub fn average_cooling_power(&self) -> Result<Watts, H2pError> {
        self.average_over_steps(|s| s.cooling_power_per_server.value())
    }

    /// Partial PUE over CPU + cooling + TCS pumps (lighting and power
    /// delivery excluded): `(IT + cooling + pumps) / IT`. Warm-water
    /// operation keeps this close to 1.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run that recorded no IT
    /// power (an empty step list), where the ratio is undefined.
    pub fn partial_pue(&self) -> Result<f64, H2pError> {
        let it = self.average_cpu_power()?.value();
        if !(it > 0.0) {
            return Err(H2pError::EmptyRun);
        }
        let pumps = self
            .average_over_steps(|s| s.pump_power_per_server.value())?
            .value();
        Ok((it + self.average_cooling_power()?.value() + pumps) / it)
    }

    /// Partial ERE (Sec. II-C): the partial PUE numerator minus the TEG
    /// harvest, over IT power. H2P pushes this below the partial PUE.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run that recorded no IT
    /// power, where the ratio is undefined.
    pub fn partial_ere(&self) -> Result<f64, H2pError> {
        Ok(self.partial_pue()? - self.pre())
    }

    /// Power reusing efficiency over the run (paper Eq. 19, Fig. 15).
    /// An empty run reuses nothing: this stays infallible through
    /// [`crate::metrics::pre`]'s documented zero-CPU contract (0 when
    /// no CPU power was recorded).
    #[must_use]
    pub fn pre(&self) -> f64 {
        let n = self.steps.len().max(1) as f64;
        let teg: f64 = self
            .steps
            .iter()
            .map(|s| s.teg_power_per_server.value())
            .sum();
        let cpu: f64 = self
            .steps
            .iter()
            .map(|s| s.cpu_power_per_server.value())
            .sum();
        crate::metrics::pre(Watts::new(teg / n), Watts::new(cpu / n))
    }

    /// Total electrical energy harvested by all TEGs over the run.
    #[must_use]
    pub fn total_harvested(&self) -> Joules {
        self.steps
            .iter()
            .map(|s| (s.teg_power_per_server * self.servers as f64).energy_over(self.interval))
            .sum()
    }

    /// Total thermal violations over the run (must be zero for a sound
    /// controller).
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.steps.iter().map(|s| s.thermal_violations).sum()
    }
}

/// Exact cache key for one optimizer decision: the raw bit patterns of
/// the control utilization and the cold-source temperature. Two keys
/// are equal only when both inputs are *bit-identical*, so a hit can
/// never replay a setting optimized under different physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SettingKey {
    u_control: u64,
    cold: u64,
}

impl SettingKey {
    fn new(u_control: Utilization, cold: Celsius) -> Self {
        SettingKey {
            u_control: u_control.value().to_bits(),
            cold: cold.value().to_bits(),
        }
    }
}

/// Bound on the optimizer-setting memo, in entries (see
/// [`SettingCache`]). Distinct keys are `(u_control, cold)` bit
/// patterns; a paper-scale run with a drifting cold source produces a
/// few thousand, so 65 536 entries (a few MiB) is generous headroom
/// while capping a pathological trace's footprint.
pub const SETTING_CACHE_CAPACITY: usize = 1 << 16;

/// Always-on statistics of the optimizer-setting cache (see
/// [`Simulator::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to a fresh optimizer search.
    pub misses: u64,
    /// Settings written into the memo.
    pub insertions: u64,
    /// Entries dropped by capacity flushes.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Shared memo of optimizer decisions, readable from every worker
/// thread. Values are pure functions of their exact key, so concurrent
/// insertion races are benign: whichever thread wins writes the same
/// bits the loser would have.
///
/// # Capacity bound & eviction
///
/// The map is bounded at `capacity` entries
/// ([`SETTING_CACHE_CAPACITY`] by default): an insert that would
/// exceed the bound first flushes the whole epoch (clears the map).
/// Epoch flushing is the simplest policy that is *provably* harmless
/// here — every value is a pure function of its exact-bit key, so
/// evicting any entry can only cost a recomputation, never change a
/// result — and it needs no per-entry bookkeeping on the hit path.
/// Hit/miss/insert/evict counters are always live (they are plain
/// atomics), so [`Simulator::cache_stats`] works with or without a
/// telemetry registry attached.
#[derive(Debug)]
struct SettingCache {
    map: RwLock<HashMap<SettingKey, OptimizedSetting>>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl Default for SettingCache {
    fn default() -> Self {
        SettingCache::with_capacity(SETTING_CACHE_CAPACITY)
    }
}

impl SettingCache {
    fn with_capacity(capacity: usize) -> Self {
        SettingCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn get(&self, key: &SettingKey) -> Option<OptimizedSetting> {
        let found = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied();
        match found {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        found
    }

    fn insert(&self, key: SettingKey, setting: OptimizedSetting) {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= self.capacity && !map.contains_key(&key) {
            // Epoch flush: drop everything rather than track recency.
            // Transparent by construction (values are pure functions of
            // keys), and the counters make it visible.
            self.evictions
                .add(u64::try_from(map.len()).unwrap_or(u64::MAX));
            map.clear();
        }
        map.insert(key, setting);
        self.insertions.incr();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: self
                .map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }

    /// Exposes the counter handles for registration with a telemetry
    /// registry (shared, not copied).
    fn counters(&self) -> [(&'static str, &Counter); 4] {
        [
            ("cache.hits", &self.hits),
            ("cache.misses", &self.misses),
            ("cache.insertions", &self.insertions),
            ("cache.evictions", &self.evictions),
        ]
    }
}

impl Clone for SettingCache {
    /// A clone keeps the warm memo but starts its own statistics:
    /// per-[`Simulator`] counters would be misleading if two engines
    /// shared them.
    fn clone(&self) -> Self {
        SettingCache {
            map: RwLock::new(
                self.map
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            capacity: self.capacity,
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }
}

/// The engine's telemetry handles, resolved once per attachment (see
/// [`Simulator::with_telemetry`]). The disabled bundle makes every
/// observation a branch; the engine's numeric path is identical either
/// way (asserted by `tests/telemetry_transparency.rs`).
#[derive(Debug, Clone)]
pub(crate) struct EngineTelemetry {
    pub(crate) registry: Registry,
    pub(crate) pool: PoolTelemetry,
    pub(crate) circ_wall: Histogram,
    runs: Counter,
    steps: Counter,
    /// Kernel accounting: circulation-steps re-simulated vs. answered
    /// from held decisions, and the forced (fault-demanded) subset.
    circs_evaluated: Counter,
    circs_held: Counter,
    kernel_forced: Counter,
}

impl EngineTelemetry {
    fn disabled() -> Self {
        EngineTelemetry {
            registry: Registry::disabled(),
            pool: PoolTelemetry::disabled(),
            circ_wall: Histogram::disabled(),
            runs: Counter::new(),
            steps: Counter::new(),
            circs_evaluated: Counter::new(),
            circs_held: Counter::new(),
            kernel_forced: Counter::new(),
        }
    }

    fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return EngineTelemetry::disabled();
        }
        EngineTelemetry {
            registry: registry.clone(),
            pool: PoolTelemetry::from_registry(registry),
            // A crate-internal name with one fixed spec never collides.
            circ_wall: registry
                .histogram(
                    "engine.circulation_wall_nanos",
                    &BucketSpec::duration_default(),
                )
                .unwrap_or_else(|_| Histogram::disabled()),
            runs: registry.counter("engine.runs"),
            steps: registry.counter("engine.steps"),
            circs_evaluated: registry.counter("engine.circulations_evaluated"),
            circs_held: registry.counter("engine.circulations_held"),
            kernel_forced: registry.counter("engine.kernel_forced"),
        }
    }

    /// Records one finished run of `steps` control intervals.
    pub(crate) fn note_run(&self, steps: usize) {
        if self.registry.is_enabled() {
            self.runs.incr();
            self.steps.add(u64::try_from(steps).unwrap_or(u64::MAX));
        }
    }

    /// Records one kernel lane's evaluated/held/forced split.
    pub(crate) fn note_kernel(&self, tally: &KernelStats) {
        if self.registry.is_enabled() {
            self.circs_evaluated.add(tally.evaluated);
            self.circs_held.add(tally.held);
            self.kernel_forced.add(tally.forced);
        }
    }
}

/// Partial aggregates of one circulation over one control interval —
/// the unit of work a worker thread produces. Summation happens within
/// the circulation (server order), and partials merge in
/// circulation-index order, so the grand totals are independent of how
/// circulations were sharded across threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CircPartial {
    pub(crate) teg: f64,
    pub(crate) cpu: f64,
    pub(crate) pump: f64,
    pub(crate) flow: f64,
    /// Inlet temperature weighted by the circulation's server count
    /// (the per-server weighting behind `StepRecord::mean_inlet`).
    pub(crate) inlet_weighted: f64,
    pub(crate) outlet: f64,
    pub(crate) util: f64,
    pub(crate) peak: Utilization,
    pub(crate) violations: usize,
    /// Servers this circulation actually cooled this interval — the
    /// circulation size normally, `0` when isolated offline. The
    /// supply-setpoint mean divides by this, not the cluster size, so
    /// offline circulations (whose `inlet_weighted` is 0) cannot drag
    /// the setpoint toward 0 °C.
    pub(crate) online: usize,
}

impl CircPartial {
    /// The all-zero partial an *isolated* (offline) circulation
    /// contributes: no load, no harvest, no flow, no online servers.
    pub(crate) fn offline() -> Self {
        CircPartial {
            teg: 0.0,
            cpu: 0.0,
            pump: 0.0,
            flow: 0.0,
            inlet_weighted: 0.0,
            outlet: 0.0,
            util: 0.0,
            peak: Utilization::IDLE,
            violations: 0,
            online: 0,
        }
    }
}

/// Running reduction of one control interval's [`CircPartial`]s. Each
/// field is one f64 accumulator whose additions happen in
/// circulation-index order whatever the source's chunking, so `run`,
/// `run_fleet` and `run_with_faults` execute the exact same addition
/// sequence — their bit-identity rests on this type being the only fold
/// implementation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepFold {
    teg_sum: f64,
    cpu_sum: f64,
    pump_sum: f64,
    flow_sum: f64,
    inlet_sum: f64,
    outlet_sum: f64,
    util_sum: f64,
    peak: Utilization,
    violations: usize,
    online: usize,
}

impl Default for StepFold {
    fn default() -> Self {
        StepFold {
            teg_sum: 0.0,
            cpu_sum: 0.0,
            pump_sum: 0.0,
            flow_sum: 0.0,
            inlet_sum: 0.0,
            outlet_sum: 0.0,
            util_sum: 0.0,
            peak: Utilization::IDLE,
            violations: 0,
            online: 0,
        }
    }
}

impl StepFold {
    /// Absorbs one circulation's partial. Callers must add partials in
    /// circulation-index order (f64 addition is not associative).
    pub(crate) fn add(&mut self, p: CircPartial) {
        self.teg_sum += p.teg;
        self.cpu_sum += p.cpu;
        self.pump_sum += p.pump;
        self.flow_sum += p.flow;
        self.inlet_sum += p.inlet_weighted;
        self.outlet_sum += p.outlet;
        self.util_sum += p.util;
        self.peak = self.peak.max(p.peak);
        self.violations += p.violations;
        self.online += p.online;
    }
}

/// The trace-driven H2P simulator.
///
/// Building a simulator runs the measurement campaign that fits the
/// lookup space (once); individual [`run`](Simulator::run)s then share
/// it, along with the optimizer-setting cache (see the
/// [module docs](self) for the determinism contract).
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) config: SimulationConfig,
    pub(crate) space: LookupSpace,
    pub(crate) power_model: CpuPowerModel,
    pub(crate) max_operating: Celsius,
    pub(crate) workers: NonZeroUsize,
    cache: SettingCache,
    pub(crate) telemetry: EngineTelemetry,
    /// `None` evaluates every circulation-step (the bit-identity
    /// oracle); `Some` lets lanes hold unchanged circulations.
    pub(crate) kernel: Option<KernelTolerance>,
    /// Which inner-loop layout evaluates circulations: the column-major
    /// hot path (default) or the retained scalar reference.
    pub(crate) layout: EngineLayout,
}

impl Simulator {
    /// Creates a simulator for a server model and configuration.
    ///
    /// The worker count defaults to the machine's available parallelism
    /// (see [`with_workers`](Self::with_workers)).
    ///
    /// # Errors
    ///
    /// Propagates lookup-space construction failures.
    pub fn new(model: &ServerModel, config: SimulationConfig) -> Result<Self, H2pError> {
        let space = LookupSpace::paper_grid(model)?;
        Ok(Simulator {
            config,
            space,
            power_model: *model.power_model(),
            max_operating: model.spec().max_operating,
            workers: h2p_exec::worker_count(),
            cache: SettingCache::default(),
            telemetry: EngineTelemetry::disabled(),
            kernel: None,
            layout: EngineLayout::default(),
        })
    }

    /// The paper's simulator: calibrated server model and paper
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates lookup-space construction failures.
    pub fn paper_default() -> Result<Self, H2pError> {
        Simulator::new(
            &ServerModel::paper_default(),
            SimulationConfig::paper_default(),
        )
    }

    /// Sets the number of worker threads that circulations are sharded
    /// across (`1` forces the spawn-free sequential path). Results are
    /// bit-identical for every worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }

    /// The worker-thread count used by [`run`](Self::run).
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// Routes runs through the change-detection event kernel (see
    /// [`crate::kernel`]): a circulation is re-simulated only when its
    /// control utilization or the cold-source temperature moved beyond
    /// `tolerance` since its last evaluation, when a fault event
    /// touches it, or when it has no held decision yet.
    ///
    /// [`KernelTolerance::exact`] degenerates to the exact stepper —
    /// bit-identical to the default dense engine for every trace,
    /// policy, worker count, chunk plan and fault plan (the
    /// transparency contract); non-zero tolerances trade a bounded
    /// accuracy delta for skipping unchanged circulations. Applies to
    /// [`run`](Self::run), [`run_fleet`](Self::run_fleet) and
    /// [`run_with_faults`](Self::run_with_faults) alike.
    #[must_use]
    pub fn with_kernel_tolerance(mut self, tolerance: KernelTolerance) -> Self {
        self.kernel = Some(tolerance);
        self
    }

    /// Reverts [`with_kernel_tolerance`](Self::with_kernel_tolerance):
    /// runs evaluate every circulation-step again.
    #[must_use]
    pub fn without_kernel(mut self) -> Self {
        self.kernel = None;
        self
    }

    /// The configured kernel tolerance (`None` = dense oracle).
    #[must_use]
    pub fn kernel_tolerance(&self) -> Option<KernelTolerance> {
        self.kernel
    }

    /// Selects the inner-loop layout (see [`EngineLayout`]). The
    /// column-major default and the retained scalar reference are
    /// bit-identical for every trace, policy, worker count, kernel
    /// tolerance, and fault plan — `tests/fleet_transparency.rs` is the
    /// differential oracle guarding that contract, so the layout is
    /// purely a performance knob.
    #[must_use]
    pub fn with_layout(mut self, layout: EngineLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The inner-loop layout runs evaluate under.
    #[must_use]
    pub fn layout(&self) -> EngineLayout {
        self.layout
    }

    /// Attaches a telemetry registry: the circulation wall-time
    /// histogram, pool telemetry, run/step and kernel counters, and the cache
    /// counters all become visible through `registry` (and in its
    /// [`RunReport`](h2p_telemetry::RunReport)). Attaching
    /// [`Registry::disabled`] detaches. Simulation *results* are
    /// bit-identical with telemetry attached or not — observation
    /// never feeds back into the physics.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = EngineTelemetry::from_registry(registry);
        for (name, counter) in self.cache.counters() {
            registry.register_counter(name, counter);
        }
        self
    }

    /// The attached telemetry registry ([`Registry::disabled`] when
    /// none was attached).
    #[must_use]
    pub fn telemetry_registry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// Always-on statistics of the optimizer-setting cache. Works
    /// without [`with_telemetry`](Self::with_telemetry): the counters
    /// behind it are plain atomics that count regardless of
    /// observation.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The fitted lookup space.
    #[must_use]
    pub fn lookup_space(&self) -> &LookupSpace {
        &self.space
    }

    /// Runs a policy over a cluster trace.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::NoFeasibleSetting`] if the optimizer cannot
    /// serve some interval (cannot happen on the paper grid) and
    /// propagates lookup errors.
    pub fn run(
        &self,
        cluster: &ClusterTrace,
        policy: &dyn SchedulingPolicy,
    ) -> Result<SimulationResult, H2pError> {
        self.run_healthy(&Source::Trace(cluster), policy)
    }

    /// Streams a fleet-scale run without ever materializing the full
    /// trace: shards are generated on demand, one resident chunk at a
    /// time, following the [`ChunkPlan`]'s circulation → chunk → lane
    /// hierarchy. The result is **bit-identical** to materializing the
    /// trace with [`TraceGenerator::generate`] and calling
    /// [`run`](Self::run) on the same simulator, kernel included
    /// (`tests/fleet_transparency.rs` is the oracle).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::FleetPlanMismatch`] when the plan's server
    /// count or circulation size disagrees with the generator or the
    /// simulator configuration, and otherwise the same errors as
    /// [`run`](Self::run).
    pub fn run_fleet(
        &self,
        generator: &TraceGenerator,
        policy: &dyn SchedulingPolicy,
        plan: &ChunkPlan,
    ) -> Result<SimulationResult, H2pError> {
        let servers = generator.servers();
        let circ_size = self.circulation_size(servers);
        if plan.servers() != servers {
            return Err(H2pError::FleetPlanMismatch {
                what: "server count",
                expected: servers,
                got: plan.servers(),
            });
        }
        if plan.circulation_size().get() != circ_size {
            return Err(H2pError::FleetPlanMismatch {
                what: "circulation size",
                expected: circ_size,
                got: plan.circulation_size().get(),
            });
        }
        self.run_healthy(&Source::Shards { generator, plan }, policy)
    }

    /// The plan-free run behind [`run`](Self::run) and
    /// [`run_fleet`](Self::run_fleet).
    fn run_healthy(
        &self,
        source: &Source<'_>,
        policy: &dyn SchedulingPolicy,
    ) -> Result<SimulationResult, H2pError> {
        let folds = self.drive(source, policy, &Healthy)?;
        let servers = source.servers();
        let steps = folds
            .iter()
            .enumerate()
            .map(|(step, fold)| self.finish_step(source.time(step), servers, fold))
            .collect();
        Ok(SimulationResult {
            policy: policy.name(),
            interval: source.interval(),
            servers,
            steps,
        })
    }

    /// Turns a completed [`StepFold`] into the interval's
    /// [`StepRecord`].
    pub(crate) fn finish_step(&self, time: Seconds, servers: usize, fold: &StepFold) -> StepRecord {
        let StepFold {
            teg_sum,
            cpu_sum,
            pump_sum,
            flow_sum,
            inlet_sum,
            outlet_sum,
            util_sum,
            peak,
            violations,
            online,
        } = *fold;
        let n = servers as f64;
        // The supply setpoint averages over *online* servers only:
        // offline circulations contribute `inlet_weighted = 0`, and
        // dividing by the cluster size would drag the setpoint toward
        // 0 °C and mis-price chiller energy under heavy faults. With
        // every server offline there is no supply water to set at all
        // (heat and flow are both zero, so the plant draws nothing);
        // `t_safe` stands in as an inert, physically sane placeholder.
        let setpoint = if online > 0 {
            Celsius::new(inlet_sum / online as f64)
        } else {
            self.config.t_safe
        };
        let plant_power = self.config.plant.power(PlantLoad {
            heat: Watts::new(cpu_sum),
            supply_setpoint: setpoint,
            total_flow: h2p_units::LitersPerHour::new(flow_sum),
        });
        StepRecord {
            time,
            teg_power_per_server: Watts::new(teg_sum / n),
            cpu_power_per_server: Watts::new(cpu_sum / n),
            pump_power_per_server: Watts::new(pump_sum / n),
            cooling_power_per_server: plant_power.total() / n,
            mean_inlet: setpoint,
            mean_outlet: Celsius::new(outlet_sum / n),
            mean_utilization: Utilization::saturating(util_sum / n),
            peak_utilization: peak,
            thermal_violations: violations,
        }
    }

    /// Simulates one circulation over one control interval: schedule,
    /// pick the cooling setting, evaluate every server under it. Pure
    /// in its inputs (the setting cache only memoizes a deterministic
    /// search), so safe and deterministic from any worker thread.
    ///
    /// Dispatches on the configured [`EngineLayout`]: the column-major
    /// hot path by default, the retained scalar reference on request.
    /// The two are bit-identical (see [`crate::fleet`] and
    /// `tests/fleet_transparency.rs`); every engine mode — dense,
    /// kernel, fleet, faulted (healthy layer) — funnels through this
    /// dispatcher, so the layout choice composes with all of them.
    pub(crate) fn simulate_circulation(
        &self,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
        optimizer: &CoolingOptimizer<'_>,
        cold: Celsius,
    ) -> Result<CircPartial, H2pError> {
        match self.layout {
            EngineLayout::Scalar => {
                self.simulate_circulation_scalar(chunk, policy, optimizer, cold)
            }
            EngineLayout::Columns => {
                self.simulate_circulation_columns(chunk, policy, optimizer, cold)
            }
        }
    }

    /// The retained per-server scalar reference path — kept verbatim as
    /// the bit-identity oracle for the column engine, exactly as the
    /// runs without a kernel are the oracle for the kernel.
    pub(crate) fn simulate_circulation_scalar(
        &self,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
        optimizer: &CoolingOptimizer<'_>,
        cold: Celsius,
    ) -> Result<CircPartial, H2pError> {
        let scheduled = policy.schedule(chunk);
        let u_ctrl = policy.control_utilization(chunk);
        let chosen = self.optimized_setting(optimizer, u_ctrl, cold)?;
        let mut partial = CircPartial {
            teg: 0.0,
            cpu: 0.0,
            pump: chosen.pump_power.value() * scheduled.len() as f64,
            flow: chosen.setting.flow.value() * scheduled.len() as f64,
            inlet_weighted: chosen.setting.inlet.value() * scheduled.len() as f64,
            outlet: 0.0,
            util: 0.0,
            peak: Utilization::IDLE,
            violations: 0,
            online: scheduled.len(),
        };
        for &u in &scheduled {
            let outlet =
                self.space
                    .outlet_temperature(u, chosen.setting.flow, chosen.setting.inlet)?;
            let die = self
                .space
                .cpu_temperature(u, chosen.setting.flow, chosen.setting.inlet)?;
            if die > self.max_operating {
                partial.violations += 1;
            }
            partial.teg += self.config.module.max_power(outlet - cold).value();
            partial.cpu += self.power_model.base_power(u).value();
            partial.outlet += outlet.value();
            partial.util += u.value();
            partial.peak = partial.peak.max(u);
        }
        Ok(partial)
    }

    /// The column-major hot path: the same per-element physics as the
    /// scalar reference, restructured into per-column passes over a
    /// thread-local [`FleetColumns`] scratch so the pure-arithmetic
    /// passes (TEG ΔT, Eq. 6 harvest) run as autovectorizable slice
    /// loops.
    ///
    /// Bit-identity argument: every per-element function call is
    /// identical to the scalar path's (`outlet - cold` on `Celsius` is
    /// `DegC(a.value() - b.value())`, recomputed here from the stored
    /// column values), and every accumulator (`teg`, `cpu`, `outlet`,
    /// `util`) is reduced in server order — splitting one interleaved
    /// loop into per-accumulator loops never reorders any individual
    /// accumulator's additions. `peak` (a max) and `violations` (a
    /// count) are order-insensitive anyway.
    pub(crate) fn simulate_circulation_columns(
        &self,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
        optimizer: &CoolingOptimizer<'_>,
        cold: Celsius,
    ) -> Result<CircPartial, H2pError> {
        thread_local! {
            // Per-thread scratch so worker lanes never contend and the
            // columns' allocations are reused across circulation-steps.
            static SCRATCH: RefCell<FleetColumns> = RefCell::new(FleetColumns::default());
        }
        let scheduled = policy.schedule(chunk);
        let u_ctrl = policy.control_utilization(chunk);
        let chosen = self.optimized_setting(optimizer, u_ctrl, cold)?;
        SCRATCH.with(|cell| {
            let mut columns = cell.borrow_mut();
            self.evaluate_columns(&scheduled, &chosen, cold, &mut columns)
        })
    }

    /// The column passes behind
    /// [`simulate_circulation_columns`](Self::simulate_circulation_columns).
    fn evaluate_columns(
        &self,
        scheduled: &[Utilization],
        chosen: &OptimizedSetting,
        cold: Celsius,
        columns: &mut FleetColumns,
    ) -> Result<CircPartial, H2pError> {
        let n = scheduled.len();
        columns.begin(n);
        let flow = chosen.setting.flow;
        let inlet = chosen.setting.inlet;

        for (slot, &u) in columns.utilization.iter_mut().zip(scheduled) {
            *slot = u.value();
        }

        // Lookup pass: outlet temperature and the die-temperature
        // violation count (the interpolations share their operands, so
        // one pass keeps both surfaces hot in cache). Errors propagate
        // at the first failing server, like the scalar path.
        let mut violations = 0usize;
        for (slot, &u) in columns.outlet.iter_mut().zip(scheduled) {
            let outlet = self.space.outlet_temperature(u, flow, inlet)?;
            let die = self.space.cpu_temperature(u, flow, inlet)?;
            if die > self.max_operating {
                violations += 1;
            }
            *slot = outlet.value();
        }

        // TEG ΔT: a pure slice subtraction (autovectorizes).
        let cold_value = cold.value();
        for (delta, &outlet) in columns.teg_delta.iter_mut().zip(columns.outlet.iter()) {
            *delta = outlet - cold_value;
        }

        // Eq. 6 harvest over the ΔT column: the clamped quadratic is
        // branch-light and vectorizes well.
        for (harvest, &delta) in columns
            .harvest_power
            .iter_mut()
            .zip(columns.teg_delta.iter())
        {
            *harvest = self.config.module.max_power(DegC::new(delta)).value();
        }

        // Eq. 20 CPU power over the utilization column.
        for (power, &u) in columns.cpu_power.iter_mut().zip(scheduled) {
            *power = self.power_model.base_power(u).value();
        }

        // Reduce, one accumulator per column, each in server order.
        let mut partial = CircPartial {
            teg: 0.0,
            cpu: 0.0,
            pump: chosen.pump_power.value() * n as f64,
            flow: flow.value() * n as f64,
            inlet_weighted: inlet.value() * n as f64,
            outlet: 0.0,
            util: 0.0,
            peak: Utilization::IDLE,
            violations,
            online: n,
        };
        for &w in &columns.harvest_power {
            partial.teg += w;
        }
        for &w in &columns.cpu_power {
            partial.cpu += w;
        }
        for &t in &columns.outlet {
            partial.outlet += t;
        }
        for &u in &columns.utilization {
            partial.util += u;
        }
        for &u in scheduled {
            partial.peak = partial.peak.max(u);
        }
        Ok(partial)
    }

    /// Builds a cooling optimizer against the engine's lookup space for
    /// one cold-side temperature, wired into the engine's telemetry.
    /// The driver builds one optimizer per distinct cold-source
    /// reading.
    pub(crate) fn new_optimizer(&self, cold: Celsius) -> Result<CoolingOptimizer<'_>, H2pError> {
        Ok(CoolingOptimizer::new(
            &self.space,
            self.config.module,
            self.config.pump,
            self.config.t_safe,
            self.config.tolerance,
            cold,
        )?
        .with_telemetry(&self.telemetry.registry))
    }

    /// Resolves the cooling setting for a control utilization, through
    /// the shared exact-key cache.
    pub(crate) fn optimized_setting(
        &self,
        optimizer: &CoolingOptimizer<'_>,
        u_ctrl: Utilization,
        cold: Celsius,
    ) -> Result<OptimizedSetting, H2pError> {
        let key = SettingKey::new(u_ctrl, cold);
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let chosen = optimizer
            .optimize(u_ctrl)
            .ok_or(H2pError::NoFeasibleSetting {
                control_utilization: u_ctrl.value(),
            })?;
        self.cache.insert(key, chosen);
        Ok(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_sched::{LoadBalance, Original};
    use h2p_workload::{TraceGenerator, TraceKind};

    fn small_cluster(kind: TraceKind) -> ClusterTrace {
        TraceGenerator::paper(kind, 7)
            .with_servers(80)
            .with_steps(36)
            .generate()
    }

    #[test]
    fn load_balance_beats_original() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Drastic);
        let orig = sim.run(&cluster, &Original).unwrap();
        let lb = sim.run(&cluster, &LoadBalance).unwrap();
        assert!(
            lb.average_teg_power().unwrap() > orig.average_teg_power().unwrap(),
            "lb {} vs orig {}",
            lb.average_teg_power().unwrap(),
            orig.average_teg_power().unwrap()
        );
    }

    #[test]
    fn generation_in_paper_band() {
        // Per-CPU averages must land in the paper's 3-5 W decade.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let lb = sim.run(&cluster, &LoadBalance).unwrap();
        let avg = lb.average_teg_power().unwrap().value();
        assert!((3.0..=5.5).contains(&avg), "avg = {avg}");
    }

    #[test]
    fn pre_in_paper_band() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let lb = sim.run(&cluster, &LoadBalance).unwrap();
        let pre = lb.pre();
        assert!((0.08..=0.22).contains(&pre), "pre = {pre}");
    }

    #[test]
    fn no_thermal_violations() {
        let sim = Simulator::paper_default().unwrap();
        for kind in TraceKind::all() {
            let cluster = small_cluster(kind);
            for policy in [&Original as &dyn h2p_sched::SchedulingPolicy, &LoadBalance] {
                let r = sim.run(&cluster, policy).unwrap();
                assert_eq!(r.total_violations(), 0, "{kind}/{}", r.policy());
            }
        }
    }

    #[test]
    fn result_accounting_consistent() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Irregular);
        let r = sim.run(&cluster, &LoadBalance).unwrap();
        assert_eq!(r.steps().len(), 36);
        assert_eq!(r.servers(), 80);
        assert_eq!(r.policy(), "TEG_LoadBalance");
        assert!(r.peak_teg_power() >= r.average_teg_power().unwrap());
        // total harvested == avg power × servers × duration.
        let expect = r.average_teg_power().unwrap().value() * 80.0 * r.interval().value() * 36.0;
        assert!((r.total_harvested().value() - expect).abs() < expect * 1e-9);
    }

    #[test]
    fn generation_anticorrelates_with_utilization() {
        // Fig. 14a's visual: high-utilization intervals generate less.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Drastic);
        let r = sim.run(&cluster, &Original).unwrap();
        let util: Vec<f64> = r
            .steps()
            .iter()
            .map(|s| s.peak_utilization.value())
            .collect();
        let teg: Vec<f64> = r
            .steps()
            .iter()
            .map(|s| s.teg_power_per_server.value())
            .collect();
        let corr = h2p_stats::descriptive::correlation(&util, &teg).unwrap();
        assert!(corr < -0.3, "correlation = {corr}");
    }

    #[test]
    fn warm_water_pue_near_one_and_ere_below_it() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let r = sim.run(&cluster, &LoadBalance).unwrap();
        let pue = r.partial_pue().unwrap();
        // Chiller-free warm-water operation: cooling + pumps stay a few
        // percent of IT.
        assert!((1.0..=1.15).contains(&pue), "partial PUE = {pue}");
        let ere = r.partial_ere().unwrap();
        assert!(ere < pue, "reuse must push ERE below PUE");
        assert!(ere > 0.5, "sanity: ere = {ere}");
        assert!(r.average_cooling_power().unwrap().value() > 0.0);
    }

    #[test]
    fn smaller_circulations_help_original() {
        // With fewer servers per circulation the hottest-server cap is
        // less binding for the unbalanced policy.
        let cluster = small_cluster(TraceKind::Drastic);
        let model = ServerModel::paper_default();
        let mut cfg_small = SimulationConfig::paper_default();
        cfg_small.servers_per_circulation = 10;
        let mut cfg_large = SimulationConfig::paper_default();
        cfg_large.servers_per_circulation = 80;
        let small = Simulator::new(&model, cfg_small).unwrap();
        let large = Simulator::new(&model, cfg_large).unwrap();
        let p_small = small
            .run(&cluster, &Original)
            .unwrap()
            .average_teg_power()
            .unwrap();
        let p_large = large
            .run(&cluster, &Original)
            .unwrap()
            .average_teg_power()
            .unwrap();
        assert!(p_small > p_large, "small {p_small} vs large {p_large}");
    }

    #[test]
    fn setting_cache_is_transparent_under_a_drifting_cold_source() {
        // Regression test for the stale-cache bug: the old run-wide key
        // quantized the cold temperature to 1/16 °C, so as the source
        // drifted, settings optimized at one cold temperature were
        // silently replayed at another. With exact keys, no two
        // decisions of a drifting-cold run share a key — a quantized
        // key would hit here — and a warm rerun replays exactly the
        // settings the cold run computed.
        let mut cfg = SimulationConfig::paper_default();
        cfg.cold_source = ColdSource::Seasonal {
            mean: Celsius::new(17.5),
            amplitude: DegC::new(2.5),
            period: Seconds::hours(6.0),
        };
        let sim = Simulator::new(&ServerModel::paper_default(), cfg).unwrap();
        let cluster = small_cluster(TraceKind::Irregular);
        let cached = sim.run(&cluster, &LoadBalance).unwrap();
        let first = sim.cache_stats();
        assert_eq!(first.hits, 0, "a drifting-cold run must never hit");
        assert!(first.misses > 0);
        let warm = sim.run(&cluster, &LoadBalance).unwrap();
        let second = sim.cache_stats();
        assert_eq!(second.misses, first.misses, "a warm rerun is all hits");
        assert_eq!(second.hits, first.misses);
        assert_eq!(cached.steps().len(), warm.steps().len());
        for (a, b) in cached.steps().iter().zip(warm.steps()) {
            assert_eq!(a, b);
        }
        // Sanity: the drifting source genuinely changes the physics
        // relative to the constant-source run.
        let constant = Simulator::paper_default()
            .unwrap()
            .run(&cluster, &LoadBalance)
            .unwrap();
        assert_ne!(
            cached.average_teg_power().unwrap(),
            constant.average_teg_power().unwrap()
        );
    }

    #[test]
    fn cache_survives_across_runs_without_leaking_state() {
        // The cache is shared across runs on one simulator; hits must
        // return exactly what a cold-cache simulator computes.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let first = sim.run(&cluster, &LoadBalance).unwrap();
        let warm = sim.run(&cluster, &LoadBalance).unwrap();
        let cold_cache = Simulator::paper_default()
            .unwrap()
            .run(&cluster, &LoadBalance)
            .unwrap();
        for ((a, b), c) in first
            .steps()
            .iter()
            .zip(warm.steps())
            .zip(cold_cache.steps())
        {
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn mean_inlet_is_server_weighted_on_ragged_clusters() {
        // 90 servers ÷ 40 per circulation → chunks of 40, 40 and 10
        // servers. The mean inlet must weight the 10-server tail by
        // 10/90, not by a full 1/3 as the per-circulation mean did.
        let sim = Simulator::paper_default().unwrap();
        let cluster = TraceGenerator::paper(TraceKind::Drastic, 13)
            .with_servers(90)
            .with_steps(6)
            .generate();
        let r = sim.run(&cluster, &Original).unwrap();
        let optimizer = CoolingOptimizer::new(
            sim.lookup_space(),
            sim.config().module,
            sim.config().pump,
            sim.config().t_safe,
            sim.config().tolerance,
            Celsius::new(20.0),
        )
        .unwrap();
        let mut some_step_distinguishes = false;
        for (step, rec) in r.steps().iter().enumerate() {
            let loads = cluster.utilizations_at(step);
            let mut weighted = 0.0;
            let mut unweighted = 0.0;
            let mut circulations = 0.0;
            for chunk in loads.chunks(40) {
                let u = Original.control_utilization(chunk);
                let inlet = optimizer.optimize(u).unwrap().setting.inlet.value();
                weighted += inlet * chunk.len() as f64;
                unweighted += inlet;
                circulations += 1.0;
            }
            let expect = weighted / 90.0;
            assert!(
                (rec.mean_inlet.value() - expect).abs() < 1e-12,
                "step {step}: {} vs {expect}",
                rec.mean_inlet
            );
            if (expect - unweighted / circulations).abs() > 1e-9 {
                some_step_distinguishes = true;
            }
        }
        assert!(
            some_step_distinguishes,
            "trace must exercise the ragged-weighting difference"
        );
    }

    #[test]
    fn partial_metrics_report_empty_runs_as_typed_errors() {
        let empty = SimulationResult {
            policy: "TEG_Original",
            interval: Seconds::minutes(5.0),
            servers: 0,
            steps: Vec::new(),
        };
        assert!(matches!(empty.partial_pue(), Err(H2pError::EmptyRun)));
        assert!(matches!(empty.partial_ere(), Err(H2pError::EmptyRun)));
        // ISSUE 7 regression: the averages used to return a plausible
        // 0 W on an empty run (`len().max(1)`), which TCO math happily
        // consumed. They now fail typed like the ratios.
        assert!(matches!(empty.average_teg_power(), Err(H2pError::EmptyRun)));
        assert!(matches!(empty.average_cpu_power(), Err(H2pError::EmptyRun)));
        assert!(matches!(
            empty.average_cooling_power(),
            Err(H2pError::EmptyRun)
        ));
        // `pre` and `peak_teg_power` keep their documented infallible
        // contracts: zero CPU power → PRE 0, max over nothing → 0 W.
        assert_eq!(empty.pre(), 0.0);
        assert_eq!(empty.peak_teg_power().value(), 0.0);
    }

    #[test]
    fn worker_count_is_configurable_and_visible() {
        let sim = Simulator::paper_default().unwrap();
        assert!(sim.workers().get() >= 1);
        let forced = sim.with_workers(NonZeroUsize::new(3).unwrap());
        assert_eq!(forced.workers().get(), 3);
    }

    fn dummy_setting(flow: f64) -> OptimizedSetting {
        OptimizedSetting {
            setting: h2p_server::CoolingSetting {
                flow: h2p_units::LitersPerHour::new(flow),
                inlet: Celsius::new(45.0),
            },
            teg_power: Watts::new(4.0),
            pump_power: Watts::new(0.5),
            net_power: Watts::new(3.5),
            outlet: Celsius::new(55.0),
            cpu_temperature: Celsius::new(61.5),
            in_band: true,
        }
    }

    #[test]
    fn setting_cache_bound_is_enforced_by_epoch_flush() {
        // Regression test for the unbounded-memo hazard: a long run
        // with ever-fresh (u, cold) bit patterns must not grow the map
        // past its capacity.
        let cache = SettingCache::with_capacity(4);
        for i in 0..23u32 {
            let key = SettingKey::new(
                Utilization::saturating(f64::from(i) / 23.0),
                Celsius::new(20.0),
            );
            cache.insert(key, dummy_setting(f64::from(i)));
            assert!(
                cache.stats().entries <= 4,
                "entries {} exceeded capacity after insert {i}",
                cache.stats().entries
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 23);
        // 23 inserts into 4 slots: flush at every 4th fresh key.
        assert!(stats.evictions >= 16, "evictions = {}", stats.evictions);
        // Re-inserting a resident key must not flush.
        let resident_before = cache.stats().entries;
        let key = SettingKey::new(Utilization::saturating(22.0 / 23.0), Celsius::new(20.0));
        cache.insert(key, dummy_setting(22.0));
        assert_eq!(cache.stats().entries, resident_before);
    }

    #[test]
    fn cache_stats_work_without_telemetry() {
        let sim = Simulator::paper_default().unwrap();
        let zero = sim.cache_stats();
        assert_eq!((zero.hits, zero.misses, zero.entries), (0, 0, 0));
        let cluster = small_cluster(TraceKind::Common);
        let first = sim.run(&cluster, &LoadBalance).unwrap();
        let cold_stats = sim.cache_stats();
        assert!(cold_stats.misses > 0, "first run must miss");
        assert_eq!(cold_stats.insertions, cold_stats.misses);
        assert_eq!(cold_stats.entries as u64, cold_stats.insertions);
        assert_eq!(cold_stats.evictions, 0, "paper-scale keys fit the bound");
        let warm = sim.run(&cluster, &LoadBalance).unwrap();
        let warm_stats = sim.cache_stats();
        assert_eq!(
            warm_stats.misses, cold_stats.misses,
            "second identical run must be all hits"
        );
        assert!(warm_stats.hits > cold_stats.hits);
        for (a, b) in first.steps().iter().zip(warm.steps()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn attached_telemetry_observes_the_run_without_changing_it() {
        let registry = h2p_telemetry::Registry::new();
        let bare = Simulator::paper_default().unwrap();
        let observed = Simulator::paper_default()
            .unwrap()
            .with_telemetry(&registry);
        assert!(observed.telemetry_registry().is_enabled());
        let cluster = small_cluster(TraceKind::Drastic);
        let a = bare.run(&cluster, &LoadBalance).unwrap();
        let b = observed.run(&cluster, &LoadBalance).unwrap();
        for (x, y) in a.steps().iter().zip(b.steps()) {
            assert_eq!(x, y, "telemetry must not perturb results");
        }

        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["engine.runs"], 1);
        assert_eq!(counters["engine.steps"], 36);
        assert!(counters["pool.tasks"] > 0);
        assert_eq!(
            counters["cache.hits"] + counters["cache.misses"],
            {
                let s = observed.cache_stats();
                s.hits + s.misses
            },
            "registered cache counters share the simulator's"
        );

        let hists: std::collections::BTreeMap<String, h2p_telemetry::Histogram> =
            registry.histograms().into_iter().collect();
        // 80 servers ÷ 40 per circulation = 2 circulations × 36 steps.
        assert_eq!(hists["engine.circulation_wall_nanos"].count(), 72);

        let report = h2p_telemetry::RunReport::from_registry(&registry);
        assert!(!report.is_empty());
        assert!(report.render().contains("engine.circulation_wall_nanos"));
    }
}
