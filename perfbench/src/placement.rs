//! In-process probe of the placement layer, `h2p-jobs`, made by the
//! traced `paper-sweep` run: for every trace class, one job set from
//! `synthetic_jobs` is placed by `PlacementEngine::place` under
//! `round_robin`, `coolest_first`, and `harvest_aware`, for both
//! scheduling policies, with the jobs counters attached.

use crate::metrics::Outcome;
use h2p_core::simulation::Simulator;
use h2p_jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_telemetry::Registry;
use h2p_workload::TraceKind;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Servers per placement (one circulation).
pub const SERVERS: usize = 40;
/// Control intervals per placement.
pub const STEPS: usize = 48;

const SCHEDS: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];
const POLICIES: [PlacementPolicyKind; 3] = PlacementPolicyKind::ALL;

/// Places one job set per trace class under every placement and
/// scheduling policy, timing `PlacementEngine::place`, and sets the
/// `jobs.*` metrics. Checks, one operation each, that every placement
/// rejects no job and violates no throttle cap, and that the three
/// policies of a (job set, scheduling policy) group serve the same
/// work.
///
/// # Errors
///
/// Simulator or placement-engine failures.
pub fn probe_layers(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let sim = Simulator::paper_default()
        .map_err(|e| e.to_string())?
        .with_workers(NonZeroUsize::MIN);
    let interval = PlacementEngine::new(&sim, &LoadBalance, SERVERS, STEPS)
        .map_err(|e| e.to_string())?
        .interval();
    let registry = Registry::new();
    let mut seconds = [0.0; POLICIES.len()];
    for kind in TraceKind::all() {
        let jobs = synthetic_jobs(kind, seed, SERVERS, STEPS, interval);
        for sched in SCHEDS {
            let mut served = Vec::with_capacity(POLICIES.len());
            for (p, policy) in POLICIES.iter().enumerate() {
                let cell = format!("{}/{}/{}", kind.name(), sched.name(), policy.name());
                let engine = PlacementEngine::new(&sim, sched, SERVERS, STEPS)
                    .map_err(|e| e.to_string())?
                    .with_telemetry(&registry);
                let t0 = Instant::now();
                let run = engine
                    .place(&jobs, &mut *policy.build())
                    .map_err(|e| format!("{cell}: {e}"))?;
                seconds[p] += t0.elapsed().as_secs_f64();
                let o = run.outcome;
                out.op(o.rejected == 0 && o.throttle_violations == 0, || {
                    format!(
                        "{cell}: rejected {} jobs with {} throttle violations",
                        o.rejected, o.throttle_violations
                    )
                });
                served.push(o.served_demand_steps);
            }
            for (policy, work) in POLICIES.iter().zip(&served).skip(1) {
                out.op((work - served[0]).abs() < 1e-9, || {
                    format!(
                        "{}/{}: {} served {work} server-steps, {} served {}",
                        kind.name(),
                        sched.name(),
                        policy.name(),
                        POLICIES[0].name(),
                        served[0]
                    )
                });
            }
        }
    }
    for (policy, secs) in POLICIES.iter().zip(seconds) {
        let name = match policy {
            PlacementPolicyKind::RoundRobin => "jobs.place_s.round_robin",
            PlacementPolicyKind::CoolestFirst => "jobs.place_s.coolest_first",
            PlacementPolicyKind::HarvestAware => "jobs.place_s.harvest_aware",
        };
        out.set(name, secs);
    }
    let totals = crate::engine::registry_totals(&registry);
    let get = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    out.set("jobs.placed", get("jobs.placed"));
    out.set("jobs.rejected", get("jobs.rejected"));
    out.set("jobs.queue_wait_steps", get("jobs.queue_wait_steps.sum"));
    Ok(())
}
