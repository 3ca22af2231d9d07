//! The layer replay: one engine run re-enacted from outside the
//! engine, calling each crate's public functions in the engine's order
//! and timing every call.
//!
//! Per circulation and control interval the engine schedules the
//! circulation (`h2p-sched`), asks the cooling optimizer for a setting
//! (`h2p-cooling`, memoized on the exact bits of the control
//! utilization and cold-source temperature, as the engine's
//! `SettingCache` does), then looks up each server's outlet and die
//! temperature under that setting (`h2p-server`). The replay performs
//! exactly these calls, in the same order, and folds TEG and pump
//! power in the engine's summation order. It therefore makes as many
//! `optimize` calls as the engine's `optimizer.decisions` counter on a
//! one-worker dense run and reproduces the run's net harvest bit for
//! bit (`tests/replay_fidelity.rs`), so the per-layer times it records
//! are shares of the engine's real work.

use crate::spans::{SpanId, SpanLog};
use h2p_cooling::{CoolingOptimizer, OptimizedSetting};
use h2p_core::fleet::ChunkPlan;
use h2p_core::simulation::Simulator;
use h2p_sched::SchedulingPolicy;
use h2p_units::{Celsius, Seconds, Utilization};
use h2p_workload::{ClusterTrace, TraceGenerator};
use std::collections::HashMap;

/// Call counts of one or more replayed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// `CoolingOptimizer::optimize` calls (memo misses).
    pub optimize_calls: u64,
    /// Decisions answered from the exact-bit memo.
    pub memo_hits: u64,
    /// Per-server outlet + die lookup pairs.
    pub lookups: u64,
    /// Circulation-steps replayed.
    pub circulation_steps: u64,
}

/// One replayed run's outcome.
#[derive(Debug, Clone, Copy)]
pub struct ReplayRun {
    /// Call counts of this run.
    pub counts: ReplayCounts,
    /// Mean TEG minus mean pump power per server, in W.
    pub net_harvest_w: f64,
}

/// Replays engine runs of one simulator. The memo lives as long as the
/// replay, like the engine's setting cache lives as long as the
/// simulator: use one `Replay` per engine run being re-enacted.
pub struct Replay<'a> {
    sim: &'a Simulator,
    optimizers: HashMap<u64, CoolingOptimizer<'a>>,
    memo: HashMap<(u64, u64), OptimizedSetting>,
    counts: ReplayCounts,
}

impl<'a> Replay<'a> {
    /// A replay against `sim`'s configuration and lookup space, with a
    /// cold memo.
    #[must_use]
    pub fn new(sim: &'a Simulator) -> Self {
        Replay {
            sim,
            optimizers: HashMap::new(),
            memo: HashMap::new(),
            counts: ReplayCounts::default(),
        }
    }

    /// The cold-source temperature at control interval `step`.
    fn cold_at(&self, interval: Seconds, step: usize) -> Celsius {
        let time = Seconds::new(interval.value() * step as f64);
        self.sim.config().cold_source.temperature(time)
    }

    /// Builds the optimizer for `cold` once, as the engine does.
    fn ensure_optimizer(&mut self, cold: Celsius) -> Result<(), String> {
        let bits = cold.value().to_bits();
        if !self.optimizers.contains_key(&bits) {
            let config = self.sim.config();
            let optimizer = CoolingOptimizer::new(
                self.sim.lookup_space(),
                config.module,
                config.pump,
                config.t_safe,
                config.tolerance,
                cold,
            )
            .map_err(|e| format!("optimizer construction: {e}"))?;
            self.optimizers.insert(bits, optimizer);
        }
        Ok(())
    }

    /// One circulation over one control interval; returns its TEG and
    /// pump power sums (W, summed in server order).
    fn circulation(
        &mut self,
        log: &mut SpanLog,
        parent: SpanId,
        request: u64,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
        cold: Celsius,
    ) -> Result<(f64, f64), String> {
        let t0 = log.now();
        let scheduled = policy.schedule(chunk);
        let u_ctrl = policy.control_utilization(chunk);
        let t1 = log.now();
        let key = (u_ctrl.value().to_bits(), cold.value().to_bits());
        let (chosen, computed) = match self.memo.get(&key) {
            Some(hit) => (*hit, false),
            None => {
                let optimizer = self
                    .optimizers
                    .get(&key.1)
                    .ok_or("optimizer missing for a cold reading")?;
                let chosen = optimizer
                    .optimize(u_ctrl)
                    .ok_or_else(|| format!("no feasible setting at u = {}", u_ctrl.value()))?;
                self.memo.insert(key, chosen);
                (chosen, true)
            }
        };
        let t2 = log.now();
        let space = self.sim.lookup_space();
        let (flow, inlet) = (chosen.setting.flow, chosen.setting.inlet);
        let mut outlets = Vec::with_capacity(scheduled.len());
        for &u in &scheduled {
            let outlet = space
                .outlet_temperature(u, flow, inlet)
                .map_err(|e| format!("outlet lookup: {e}"))?;
            space
                .cpu_temperature(u, flow, inlet)
                .map_err(|e| format!("die lookup: {e}"))?;
            outlets.push(outlet);
        }
        let t3 = log.now();
        let module = self.sim.config().module;
        let mut teg = 0.0;
        for &outlet in &outlets {
            teg += module.max_power(outlet - cold).value();
        }
        let pump = chosen.pump_power.value() * scheduled.len() as f64;
        let t4 = log.now();

        let circ = log.record("core.circulation", Some(parent), request, t0, t4);
        log.record("sched.schedule", Some(circ), request, t0, t1);
        if computed {
            log.record("cooling.optimize", Some(circ), request, t1, t2);
        } else {
            log.record("core.setting_cache", Some(circ), request, t1, t2);
        }
        log.record("server.lookup", Some(circ), request, t2, t3);
        self.counts.optimize_calls += u64::from(computed);
        self.counts.memo_hits += u64::from(!computed);
        self.counts.lookups += scheduled.len() as u64;
        self.counts.circulation_steps += 1;
        Ok((teg, pump))
    }

    /// Replays a dense `Simulator::run` of `cluster` under `policy`.
    ///
    /// # Errors
    ///
    /// Optimizer or lookup failures, as the engine would report them.
    pub fn run_cluster(
        &mut self,
        log: &mut SpanLog,
        request: u64,
        cluster: &ClusterTrace,
        policy: &dyn SchedulingPolicy,
    ) -> Result<ReplayRun, String> {
        let before = self.counts;
        let servers = cluster.servers();
        let circ_size = self
            .sim
            .config()
            .servers_per_circulation
            .min(servers)
            .max(1);
        let root = log.open("replay.run", None, request);
        let mut folds = Vec::with_capacity(cluster.steps());
        for step in 0..cluster.steps() {
            let step_span = log.open("core.step", Some(root), request);
            let cold = self.cold_at(cluster.interval(), step);
            self.ensure_optimizer(cold)?;
            let loads = cluster.utilizations_at(step);
            let (mut teg_sum, mut pump_sum) = (0.0, 0.0);
            for chunk in loads.chunks(circ_size) {
                let (teg, pump) = self.circulation(log, step_span, request, chunk, policy, cold)?;
                teg_sum += teg;
                pump_sum += pump;
            }
            folds.push((teg_sum, pump_sum));
            log.close(step_span);
        }
        log.close(root);
        Ok(self.finish(before, servers, &folds))
    }

    /// Replays `Simulator::run_fleet` over `generator`'s shards under
    /// `plan`: chunk by chunk, each circulation across all control
    /// intervals, folded per interval in circulation order.
    ///
    /// # Errors
    ///
    /// Optimizer or lookup failures, or a plan that does not match
    /// the generator.
    pub fn run_fleet(
        &mut self,
        log: &mut SpanLog,
        request: u64,
        generator: &TraceGenerator,
        policy: &dyn SchedulingPolicy,
        plan: &ChunkPlan,
    ) -> Result<ReplayRun, String> {
        let before = self.counts;
        let servers = generator.servers();
        let circ_size = self
            .sim
            .config()
            .servers_per_circulation
            .min(servers)
            .max(1);
        let colds: Vec<Celsius> = (0..generator.steps())
            .map(|step| self.cold_at(generator.interval(), step))
            .collect();
        for &cold in &colds {
            self.ensure_optimizer(cold)?;
        }
        let root = log.open("replay.run", None, request);
        let mut folds = vec![(0.0, 0.0); generator.steps()];
        let mut shards = generator.shards(plan.max_chunk_servers());
        for chunk in plan.chunks() {
            let chunk_span = log.open("core.chunk", Some(root), request);
            let gen_span = log.open("workload.shard", Some(chunk_span), request);
            let shard = shards.next().ok_or("shard stream ended before the plan")?;
            log.close(gen_span);
            let trace = shard.cluster();
            let mut loads = Vec::with_capacity(circ_size);
            for circ in chunk.circulations.clone() {
                let start = (circ - chunk.circulations.start) * circ_size;
                let end = (start + circ_size).min(trace.servers());
                for (step, &cold) in colds.iter().enumerate() {
                    loads.clear();
                    loads.extend((start..end).map(|s| trace.trace(s).get(step)));
                    let (teg, pump) =
                        self.circulation(log, chunk_span, request, &loads, policy, cold)?;
                    folds[step].0 += teg;
                    folds[step].1 += pump;
                }
            }
            log.close(chunk_span);
        }
        log.close(root);
        Ok(self.finish(before, servers, &folds))
    }

    /// Turns per-interval (TEG, pump) sums into the run's outcome with
    /// the engine's per-server division and time-mean order.
    fn finish(&self, before: ReplayCounts, servers: usize, folds: &[(f64, f64)]) -> ReplayRun {
        let n = servers as f64;
        let steps = folds.len().max(1) as f64;
        let teg: f64 = folds.iter().map(|(teg, _)| teg / n).sum();
        let pump: f64 = folds.iter().map(|(_, pump)| pump / n).sum();
        ReplayRun {
            counts: ReplayCounts {
                optimize_calls: self.counts.optimize_calls - before.optimize_calls,
                memo_hits: self.counts.memo_hits - before.memo_hits,
                lookups: self.counts.lookups - before.lookups,
                circulation_steps: self.counts.circulation_steps - before.circulation_steps,
            },
            net_harvest_w: teg / steps - pump / steps,
        }
    }
}
