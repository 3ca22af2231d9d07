//! The fault-injected simulation engine: [`Simulator::run_with_faults`].
//!
//! Runs a [`FaultPlan`] through the trace engine with **per-circulation
//! fault isolation** (a faulted circulation degrades — it never aborts
//! the run) and **layered attribution**. Every faulted
//! circulation-step is evaluated in four layers:
//!
//! | layer | what changes | harvest |
//! |-------|--------------|---------|
//! | **H** | nothing (the healthy world)                          | `teg_H` |
//! | **S** | the *setting* follows the corrupted sensor reading   | `teg_S` |
//! | **P** | plus the pump derate/outage (clamped flow, throttle) | `teg_P` |
//! | **F** | plus TEG open-circuit failures (the actual output)   | `teg_F` |
//!
//! Layer H is `Simulator::simulate_circulation`, the plan-free code
//! itself. Layers S, P and F are runs of the engine's one scalar pass
//! (`Simulator::scalar_pass`) under a setting, a throttle cap and a
//! per-server harvest derate: S runs layer S's setting uncapped, P the
//! pump-derated flow capped to its safe utilization, and F is P's pass
//! with each server's harvest derated by its TEG failures (`teg_P` is
//! that pass's un-derated harvest). With no pump fault live, P is S's
//! setting uncapped, so one pass yields S, P and F.
//!
//! The per-class deltas `H−S` (sensor), `S−P` (pump) and `P−F` (TEG)
//! telescope to `H−F`, so the [`FaultLedger`]'s per-class attribution
//! reconciles with the total healthy-vs-faulted harvest delta to
//! floating-point round-off (the acceptance bound is 1e-9 relative).
//!
//! # Degradation semantics
//!
//! * **Sensor faults** corrupt only the *decision* input: the optimizer
//!   sees the corrupted cold-source reading, the physics keeps the true
//!   one. Die-temperature predictions are independent of the cold
//!   source, so a setting optimized under a wrong-but-plausible reading
//!   is still thermally safe — it just harvests less. An *implausible*
//!   reading (outside the plan's plausibility band, or any reading the
//!   optimizer cannot serve) forces the **clamped fallback setting**:
//!   maximum flow at the coolest grid inlet, the most conservative
//!   point of the paper grid.
//! * **Pump faults** scale the achieved flow (outage → the grid's
//!   minimum, standing in for residual/thermosiphon flow, at zero pump
//!   power). Reduced flow means hotter dies, so the engine re-derives
//!   the largest safe utilization on the *interpolated lookup space*
//!   ([`ThrottleController::max_safe_utilization_in_space`]) and
//!   throttles each server to it — the same space the engine predicts
//!   temperatures from, so an admitted load can never register as a
//!   phantom violation.
//! * **TEG faults** derate each failed server's harvest through the
//!   plan's [`ModuleReliability`](h2p_teg::reliability::ModuleReliability)
//!   wiring topology (series → zero, bypass → proportional). Electrical
//!   only; no thermal feedback.
//! * If even the degraded evaluation fails, the circulation is
//!   **isolated offline** for that step (zero contribution) and the
//!   whole healthy harvest is attributed to the leading active fault
//!   class. The run continues.
//!
//! # Determinism
//!
//! All fault effects are pure functions of `(plan, circulation, step)`,
//! so the plan rides the engine's one driver as an [`Overlay`]: lanes
//! stay one circulation across all steps, and partials fold in
//! circulation-index order — runs are bit-identical across worker
//! counts, and a zero-fault plan reproduces the plan-free engine
//! bit-for-bit (both share `StepFold` and
//! `Simulator::simulate_circulation`).

use crate::driver::{At, Overlay, Source};
use crate::simulation::{
    CircPartial, ScalarPass, SimulationResult, Simulator, StepFold, StepRecord,
};
use crate::H2pError;
use h2p_faults::{
    ActiveFaults, CompiledFaults, FaultClass, FaultLedger, FaultPlan, StepAttribution, StepPowers,
};
use h2p_sched::SchedulingPolicy;
use h2p_server::{CoolingSetting, ThrottleController};
use h2p_teg::reliability::ModuleReliability;
use h2p_units::{Celsius, LitersPerHour, Utilization, Watts};
use h2p_workload::ClusterTrace;

/// Result of a fault-injected run: the degraded-world series plus the
/// degradation account.
#[derive(Debug, Clone)]
pub struct FaultedRun {
    /// The run as actually simulated (faults applied).
    pub result: SimulationResult,
    /// Healthy-vs-faulted accounting: per-class harvest attribution,
    /// PUE/ERE deltas, degradation counters.
    pub ledger: FaultLedger,
}

/// One circulation's contribution to a fault-injected interval.
#[derive(Clone, Copy)]
struct FaultedPartial {
    /// The world as simulated (faults applied) — feeds the result.
    faulted: CircPartial,
    /// The counterfactual healthy world — feeds the ledger.
    healthy: CircPartial,
    /// Telescoping per-class harvest deltas in [`FaultClass::ALL`]
    /// order — `[H−S, S−P, P−F]` — watts.
    attr: [f64; 3],
    /// Server-steps throttled by the pump-fault path.
    throttled: u64,
    /// Whether the clamped fallback setting was forced.
    fallback: bool,
    /// Whether the circulation was isolated offline this step.
    offline: bool,
    /// Whether any fault was active this circulation-step.
    faulted_active: bool,
}

impl FaultedPartial {
    fn healthy_passthrough(partial: CircPartial) -> Self {
        FaultedPartial {
            faulted: partial,
            healthy: partial,
            attr: [0.0; 3],
            throttled: 0,
            fallback: false,
            offline: false,
            faulted_active: false,
        }
    }

    /// A faulted circulation isolated offline: zero load, zero harvest,
    /// zero flow, with the whole healthy harvest attributed to `lead`.
    fn offline(healthy: CircPartial, lead: FaultClass, fallback: bool) -> Self {
        FaultedPartial {
            faulted: CircPartial::offline(),
            healthy,
            attr: FaultClass::ALL.map(|class| if class == lead { healthy.teg } else { 0.0 }),
            throttled: 0,
            fallback,
            offline: true,
            faulted_active: true,
        }
    }
}

/// One control interval's reduction of [`FaultedPartial`]s: both
/// worlds' folds plus the ledger's attribution and counters.
#[derive(Default)]
struct FaultFold {
    faulted: StepFold,
    healthy: StepFold,
    attr: [f64; 3],
    throttled: u64,
    fallback: u64,
    offline: u64,
    faulted_active: u64,
}

/// A compiled fault plan as the driver's overlay. A plausible corrupted
/// cold reading is decided by [`Simulator::cooling_setting`] like any
/// other; a reading that is implausible, or that the optimizer cannot
/// serve, takes the clamped fallback.
struct FaultOverlay {
    compiled: CompiledFaults,
}

impl Overlay for FaultOverlay {
    type Partial = FaultedPartial;
    type Fold = FaultFold;

    fn live(&self, circ: usize, step: usize) -> bool {
        self.compiled.active_at(circ, step).is_some()
    }

    fn evaluate(
        &self,
        sim: &Simulator,
        at: At,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
    ) -> Result<FaultedPartial, H2pError> {
        sim.simulate_circulation_faulted(&self.compiled, at, chunk, policy)
    }

    /// A held decision is always fault-free: it replays through the
    /// same passthrough a fault-free evaluation takes.
    fn replay(held: CircPartial) -> FaultedPartial {
        FaultedPartial::healthy_passthrough(held)
    }

    fn anchor(partial: &FaultedPartial) -> Option<CircPartial> {
        (!partial.faulted_active).then_some(partial.faulted)
    }

    fn add(fold: &mut FaultFold, p: &FaultedPartial) {
        fold.faulted.add(p.faulted);
        fold.healthy.add(p.healthy);
        for (sum, delta) in fold.attr.iter_mut().zip(p.attr) {
            *sum += delta;
        }
        fold.throttled += p.throttled;
        fold.fallback += u64::from(p.fallback);
        fold.offline += u64::from(p.offline);
        fold.faulted_active += u64::from(p.faulted_active);
    }
}

impl Simulator {
    /// Runs a policy over a cluster trace with a fault plan injected.
    ///
    /// A zero-fault plan ([`FaultPlan::none`]) produces a result
    /// bit-identical to [`run`](Simulator::run); any plan produces
    /// bit-identical results across worker counts (see the
    /// [module docs](self)).
    ///
    /// With a telemetry registry attached
    /// ([`with_telemetry`](Simulator::with_telemetry)), every per-class
    /// fault activation and recovery is journaled — one
    /// [`h2p_faults::FAULT_ACTIVATED_EVENT`] /
    /// [`h2p_faults::FAULT_RECOVERED_EVENT`] event per transition,
    /// carrying the class label, circulation, and step.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`run`](Simulator::run) from the
    /// healthy evaluation path. Failures on *degraded* paths never
    /// error: the affected circulation is isolated offline for the
    /// step instead.
    pub fn run_with_faults(
        &self,
        cluster: &ClusterTrace,
        policy: &dyn SchedulingPolicy,
        plan: &FaultPlan,
    ) -> Result<FaultedRun, H2pError> {
        let source = Source::Trace(cluster);
        let servers = cluster.servers();
        let overlay = FaultOverlay {
            compiled: plan.compile(servers, self.circulation_size(servers), cluster.steps()),
        };
        let folds = self.drive(&source, policy, &overlay)?;

        // The faulted world goes through the same fold as the plan-free
        // engine; the healthy counterfactual feeds the ledger.
        let n = servers as f64;
        let totals = |r: &StepRecord| StepPowers {
            teg: Watts::new(r.teg_power_per_server.value() * n),
            it: Watts::new(r.cpu_power_per_server.value() * n),
            pump: Watts::new(r.pump_power_per_server.value() * n),
            plant: Watts::new(r.cooling_power_per_server.value() * n),
        };
        let mut ledger = FaultLedger::new(cluster.interval());
        let mut steps = Vec::with_capacity(folds.len());
        for (step, fold) in folds.iter().enumerate() {
            overlay
                .compiled
                .journal_transitions_at(&self.telemetry.registry, step);
            let time = source.time(step);
            let faulted_rec = self.finish_step(time, servers, &fold.faulted);
            let healthy_rec = self.finish_step(time, servers, &fold.healthy);
            ledger.record_step(totals(&healthy_rec), totals(&faulted_rec));
            ledger.note_throttled(fold.throttled);
            ledger.note_fallback(fold.fallback);
            ledger.note_offline(fold.offline);
            ledger.note_faulted_circulation(fold.faulted_active);
            let [sensor, pump, teg] = fold.attr.map(Watts::new);
            ledger.record_attribution(StepAttribution { sensor, pump, teg });
            steps.push(faulted_rec);
        }

        Ok(FaultedRun {
            result: SimulationResult::from_parts(policy.name(), cluster.interval(), servers, steps),
            ledger,
        })
    }

    /// The clamped fallback setting for implausible sensor readings:
    /// maximum flow at the coolest grid inlet — the most conservative
    /// corner of the paper grid, safe for any load — and its per-server
    /// pump power.
    fn fallback_setting(&self) -> (CoolingSetting, Watts) {
        let flow = self
            .space
            .flow_axis()
            .last()
            .copied()
            .unwrap_or(LitersPerHour::new(250.0).value());
        let inlet = self
            .space
            .inlet_axis()
            .first()
            .copied()
            .unwrap_or(Celsius::new(20.0).value());
        let flow = LitersPerHour::new(flow);
        let pump = self.config.pump.power(flow).unwrap_or(Watts::zero());
        let setting = CoolingSetting {
            flow,
            inlet: Celsius::new(inlet),
        };
        (setting, pump)
    }

    /// One circulation-step under faults: healthy layer first (the
    /// counterfactual), then the degraded layers. Pure in its inputs,
    /// like `simulate_circulation`.
    fn simulate_circulation_faulted(
        &self,
        compiled: &CompiledFaults,
        at: At,
        chunk: &[Utilization],
        policy: &dyn SchedulingPolicy,
    ) -> Result<FaultedPartial, H2pError> {
        let At { circ, step, cold } = at;
        // Layer H — exactly the plan-free computation (shared code, so
        // a zero-fault plan is bit-identical by construction).
        let healthy = self.simulate_circulation(chunk, policy, cold)?;
        let Some(active) = compiled.active_at(circ, step) else {
            return Ok(FaultedPartial::healthy_passthrough(healthy));
        };
        if active.cdu_out {
            // CDU outage: the circulation is isolated offline for the
            // whole window. The healthy harvest goes to the pump class
            // (the CDU's pump/exchanger subsystem is what failed).
            return Ok(FaultedPartial::offline(healthy, FaultClass::Pump, false));
        }

        let scheduled = policy.schedule(chunk);
        let u_ctrl = policy.control_utilization(chunk);

        // Layer S's setting — what the controller actually picks, seeing
        // the (possibly corrupted) cold reading.
        let served = match active.sensor {
            Some(sensor) => Some(sensor.corrupt(cold))
                .filter(|&sensed| compiled.is_plausible(sensed))
                .and_then(|sensed| self.cooling_setting(u_ctrl, sensed).ok()),
            None => Some(self.cooling_setting(u_ctrl, cold)?),
        };
        let fallback = served.is_none();
        let (setting, pump) = served.map_or_else(
            || self.fallback_setting(),
            |chosen| (chosen.setting, chosen.pump_power),
        );

        let wiring = compiled.module_wiring();
        match self.degraded_layers(&scheduled, setting, pump, &active, cold, wiring) {
            Ok((f, teg_s)) => Ok(FaultedPartial {
                faulted: f.partial,
                healthy,
                attr: [
                    healthy.teg - teg_s,
                    teg_s - f.harvest,
                    f.harvest - f.partial.teg,
                ],
                throttled: f.throttled,
                fallback,
                offline: false,
                faulted_active: true,
            }),
            // Isolation: the degraded path could not be evaluated. The
            // circulation goes offline for this step; the whole healthy
            // harvest is attributed to the leading fault.
            Err(_) => {
                let lead = if active.sensor.is_some() {
                    FaultClass::Sensor
                } else if active.pump_out || active.pump_factor < 1.0 {
                    FaultClass::Pump
                } else {
                    FaultClass::Teg
                };
                Ok(FaultedPartial::offline(healthy, lead, fallback))
            }
        }
    }

    /// Layers S, P and F under layer S's `setting` (and its per-server
    /// `pump` power): returns layer F's pass, whose `harvest` is
    /// `teg_P`, and `teg_S`.
    fn degraded_layers(
        &self,
        scheduled: &[Utilization],
        setting: CoolingSetting,
        pump: Watts,
        active: &ActiveFaults,
        cold: Celsius,
        wiring: &ModuleReliability,
    ) -> Result<(ScalarPass, f64), H2pError> {
        let derate = |offset| active.teg_fraction(offset, wiring);
        // Layer P's flow: the derate clamped onto the grid, the grid
        // minimum on outage.
        let flow = if active.pump_out {
            self.grid_min_flow()
        } else if active.pump_factor < 1.0 {
            LitersPerHour::new(
                (setting.flow.value() * active.pump_factor).max(self.grid_min_flow().value()),
            )
        } else {
            // No pump fault: layer P is layer S's setting, uncapped (the
            // optimizer's setting is safe by construction), so one pass
            // yields `teg_S = teg_P` and layer F.
            let f = self.scalar_pass(scheduled, setting, pump, cold, Utilization::FULL, derate)?;
            return Ok((f, f.harvest));
        };
        let teg_s = self
            .scalar_pass(scheduled, setting, pump, cold, Utilization::FULL, |_| 1.0)?
            .harvest;
        // Pump power at the *achieved* flow (zero on outage). Reduced
        // flow can push dies past the envelope: re-derive the safe cap
        // on the interpolated space and throttle to it.
        let pump = if active.pump_out {
            Watts::zero()
        } else {
            self.config.pump.power(flow)?
        };
        let cap = ThrottleController::new(self.max_operating).max_safe_utilization_in_space(
            &self.space,
            flow,
            setting.inlet,
        )?;
        let setting = CoolingSetting {
            flow,
            inlet: setting.inlet,
        };
        let f = self.scalar_pass(scheduled, setting, pump, cold, cap, derate)?;
        Ok((f, teg_s))
    }

    fn grid_min_flow(&self) -> LitersPerHour {
        LitersPerHour::new(
            self.space
                .flow_axis()
                .first()
                .copied()
                .unwrap_or(LitersPerHour::new(20.0).value()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_faults::{FaultEvent, FaultKind};
    use h2p_sched::LoadBalance;
    use h2p_units::DegC;
    use h2p_workload::{TraceGenerator, TraceKind};

    fn cluster() -> ClusterTrace {
        TraceGenerator::paper(TraceKind::Common, 11)
            .with_servers(80)
            .with_steps(24)
            .generate()
    }

    fn sim() -> Simulator {
        Simulator::paper_default().unwrap()
    }

    fn assert_bit_identical(
        a: &crate::simulation::SimulationResult,
        b: &crate::simulation::SimulationResult,
    ) {
        assert_eq!(a.steps().len(), b.steps().len());
        for (x, y) in a.steps().iter().zip(b.steps()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn zero_fault_plan_matches_plan_free_run() {
        let sim = sim();
        let cluster = cluster();
        let plain = sim.run(&cluster, &LoadBalance).unwrap();
        let faulted = sim
            .run_with_faults(&cluster, &LoadBalance, &FaultPlan::none())
            .unwrap();
        assert_bit_identical(&plain, &faulted.result);
        assert_eq!(faulted.ledger.harvest_delta().value(), 0.0);
        assert_eq!(faulted.ledger.reconciliation_error(), 0.0);
        assert_eq!(faulted.ledger.faulted_circulation_steps(), 0);
        // Healthy and faulted worlds agree exactly.
        assert_eq!(
            faulted.ledger.healthy_harvest(),
            faulted.ledger.faulted_harvest()
        );
    }

    #[test]
    fn teg_failures_derate_harvest_and_attribute_to_teg_class() {
        let sim = sim();
        let cluster = cluster();
        // Kill 6 of 12 devices on servers 0-9 (circulation 0), bypass
        // wiring -> those modules produce half power.
        let events = (0..10)
            .map(|s| {
                FaultEvent::permanent(
                    FaultKind::TegOpenCircuit {
                        server: s,
                        failed_devices: 6,
                    },
                    0,
                )
            })
            .collect();
        let plan = FaultPlan::from_events(events, 1).unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert!(ledger.harvest_delta().value() > 0.0);
        // All loss on the TEG class; sensor/pump deltas are exactly 0.
        assert_eq!(ledger.class_harvest_delta(FaultClass::Sensor).value(), 0.0);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Pump).value(), 0.0);
        assert!(ledger.reconciliation_error() < 1e-9);
        // Electrical-only fault: IT power unchanged, so the delta is
        // exactly the healthy harvest of 10 half-derated modules.
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let expect = healthy.total_harvested().value();
        let got = ledger.healthy_harvest().value();
        assert!((got - expect).abs() <= expect.abs() * 1e-9);
    }

    #[test]
    fn windowed_fault_is_journaled_without_changing_the_run() {
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::PumpOutage { circulation: 1 },
                6,
                18,
            )],
            2,
        )
        .unwrap();
        let plain = sim()
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();

        let registry = h2p_telemetry::Registry::new();
        let observed = sim()
            .with_telemetry(&registry)
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();
        assert_bit_identical(&plain.result, &observed.result);

        let journal = registry.journal_events();
        let transitions: Vec<(String, f64)> = journal
            .iter()
            .filter(|e| {
                e.name == h2p_faults::FAULT_ACTIVATED_EVENT
                    || e.name == h2p_faults::FAULT_RECOVERED_EVENT
            })
            .map(|e| {
                assert_eq!(e.field("class").and_then(|v| v.as_str()), Some("pump"));
                assert_eq!(e.field("circulation").and_then(|v| v.as_f64()), Some(1.0));
                (
                    e.name.clone(),
                    e.field("step").and_then(|v| v.as_f64()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                (h2p_faults::FAULT_ACTIVATED_EVENT.to_owned(), 6.0),
                (h2p_faults::FAULT_RECOVERED_EVENT.to_owned(), 18.0),
            ]
        );
        // Engine spans covered the faulted run too.
        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["engine.runs"], 1);
        assert_eq!(counters["engine.steps"], 24);
    }

    #[test]
    fn pump_outage_degrades_one_circulation_without_aborting() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::PumpOutage { circulation: 1 },
                6,
                18,
            )],
            2,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert_eq!(ledger.faulted_circulation_steps(), 12);
        assert_eq!(ledger.offline_circulation_steps(), 0, "degrade, not abort");
        // The pump class carries the delta (outage changes flow and
        // therefore outlets; sensors and TEGs are untouched).
        assert_eq!(ledger.class_harvest_delta(FaultClass::Sensor).value(), 0.0);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Teg).value(), 0.0);
        assert!(ledger.reconciliation_error() < 1e-9);
        // Pump energy drops during the outage window.
        assert!(
            ledger.faulted_harvest().value() != ledger.healthy_harvest().value()
                || ledger.harvest_delta().value() == 0.0
        );
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let pump_healthy: f64 = healthy
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        let pump_faulted: f64 = run
            .result
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        assert!(pump_faulted < pump_healthy, "outage must cut pump power");
    }

    #[test]
    fn implausible_stuck_sensor_forces_fallback() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 0,
                    reading: Celsius::new(99.0), // outside [0, 45]
                },
                0,
                24,
            )],
            3,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert_eq!(ledger.fallback_steps(), 24);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Pump).value(), 0.0);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Teg).value(), 0.0);
        assert!(ledger.reconciliation_error() < 1e-9);
        // The fallback (max flow, coolest inlet) is thermally safe.
        assert_eq!(run.result.total_violations(), 0);
        // Max-flow fallback draws more pump power than the optimum.
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let pump_healthy: f64 = healthy
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        let pump_faulted: f64 = run
            .result
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        assert!(pump_faulted > pump_healthy);
    }

    #[test]
    fn plausible_stuck_sensor_shifts_setting_but_stays_safe() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 0,
                    reading: Celsius::new(35.0), // plausible, but 15 °C off
                },
                0,
                24,
            )],
            4,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        assert_eq!(
            run.ledger.fallback_steps(),
            0,
            "plausible reading is served"
        );
        // Die temperatures are cold-independent, so no violations even
        // under a corrupted decision.
        assert_eq!(run.result.total_violations(), 0);
        assert!(run.ledger.reconciliation_error() < 1e-9);
        assert_eq!(
            run.ledger.class_harvest_delta(FaultClass::Pump).value(),
            0.0
        );
        assert_eq!(run.ledger.class_harvest_delta(FaultClass::Teg).value(), 0.0);
    }

    #[test]
    fn noisy_sensor_is_deterministic_across_repeat_runs() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::SensorNoise {
                    circulation: 1,
                    sigma: DegC::new(4.0),
                },
                0,
                24,
            )],
            99,
        )
        .unwrap();
        let a = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let b = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        assert_bit_identical(&a.result, &b.result);
        assert_eq!(a.ledger, b.ledger);
        assert!(a.ledger.reconciliation_error() < 1e-9);
    }

    #[test]
    fn combined_fault_classes_reconcile_and_attribute_separately() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![
                FaultEvent::permanent(
                    FaultKind::TegOpenCircuit {
                        server: 45,
                        failed_devices: 12,
                    },
                    0,
                ),
                FaultEvent::windowed(
                    FaultKind::PumpDegraded {
                        circulation: 1,
                        derate: 0.4,
                    },
                    4,
                    20,
                ),
                FaultEvent::windowed(
                    FaultKind::SensorStuck {
                        circulation: 0,
                        // Implausible -> clamped fallback (max flow, min
                        // inlet), which shifts outlets and thus harvest.
                        reading: Celsius::new(99.0),
                    },
                    0,
                    12,
                ),
            ],
            17,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert!(ledger.reconciliation_error() < 1e-9);
        // Every class carries a non-zero share.
        for class in FaultClass::ALL {
            assert!(
                ledger.class_harvest_delta(class).value().abs() > 0.0,
                "{} delta must be non-zero",
                class.label()
            );
        }
        // Ledger delta agrees with an independently computed healthy
        // run to the acceptance bound.
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let independent = healthy.total_harvested().value() - run.result.total_harvested().value();
        let ledger_delta = ledger.harvest_delta().value();
        let scale = independent.abs().max(ledger_delta.abs()).max(1e-30);
        assert!(
            (independent - ledger_delta).abs() / scale < 1e-9,
            "ledger {ledger_delta} vs independent {independent}"
        );
        // ERE worsens under faults (less harvest).
        assert!(ledger.ere_delta() > 0.0);
    }
}
