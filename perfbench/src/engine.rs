//! The shared runner of the engine workloads: timed passes over
//! a workload's cells, output checks, end-to-end metrics, and the
//! traced run's counters, replay, and per-layer metrics.

use crate::metrics::Outcome;
use crate::replay::ReplayRun;
use crate::spans::SpanLog;
use crate::stats::{median, ratio};
use crate::{host, RunArgs};
use h2p_core::fleet::EngineLayout;
use h2p_telemetry::Registry;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Fewest timed passes of each kind (untraced, traced) in a run.
const MIN_PASSES: usize = 3;
/// Set-ups timed before each pass, so that `setup_s` samples the host
/// over the whole window like the passes do.
const SETUPS_PER_PASS: usize = 2;
/// Most cells an untraced pass runs at once (clamped to `nproc`).
///
/// On the two-core host this was written on, foreign load slowed one
/// thread by up to 40 % in spells of seconds to minutes, and a workload
/// that kept both cores busy moved far less than one that ran on a
/// single thread: over the same ten 30-second windows, the median pass
/// of `paper-sweep` spread 0.10 (interquartile range over median) with
/// two cells at a time against 0.18 with one.
const LANES: usize = 2;

/// One timed cell run.
#[derive(Debug, Clone, Copy)]
pub struct CellRun {
    /// Wall time of the timed operation, in s.
    pub seconds: f64,
    /// Digest over every step record of the run's result.
    pub digest: u64,
    /// Net harvest (TEG − pump) per server, in W.
    pub net_w: f64,
    /// Mean TEG power per server, in W.
    pub teg_w: f64,
}

/// An engine workload: a fixed list of cells, each one timed
/// operation on a fresh engine (cold setting cache).
pub trait EngineWorkload: Sync {
    /// Number of cells in one pass.
    fn cells(&self) -> usize;

    /// Human-readable cell name.
    fn cell_name(&self, cell: usize) -> String;

    /// Simulated server-steps of one run of `cell`.
    fn server_steps(&self, cell: usize) -> f64;

    /// Builds the workload's inputs afresh from the run's seed, as its
    /// set-up did, and returns the seconds that took.
    ///
    /// # Errors
    ///
    /// Set-up failures.
    fn time_setup(&self) -> Result<f64, String>;

    /// Runs `cell` once on a fresh engine under `layout`, with
    /// `registry` attached when given.
    ///
    /// # Errors
    ///
    /// Any engine or placement failure.
    fn run_cell(
        &self,
        cell: usize,
        registry: Option<&Registry>,
        layout: EngineLayout,
    ) -> Result<CellRun, String>;

    /// Dense cells: checked against a `Scalar`-layout run, counted in
    /// `net_harvest_w`, and re-enacted by the replay.
    fn is_dense(&self, cell: usize) -> bool;

    /// The workload's fixed-seed reference set: named digests of runs
    /// on inputs from [`crate::reference::seed`], independent of the
    /// run's own seed, checked against the committed digests.
    ///
    /// # Errors
    ///
    /// Set-up or engine failures.
    fn reference_runs(&self) -> Result<Vec<(String, u64)>, String>;

    /// Whether the engine makes exactly one `optimize` call per replay
    /// memo miss (true when dense cells run on one worker; parallel
    /// lanes may both miss the same key).
    fn exact_decisions(&self) -> bool;

    /// Workload-specific output checks over every timed run (`runs`
    /// indexed by cell).
    fn check(&self, runs: &[Vec<CellRun>], out: &mut Outcome);

    /// Re-enacts every dense cell, in cell order, through the layer
    /// replay.
    ///
    /// # Errors
    ///
    /// Replay failures.
    fn replay(&self, log: &mut SpanLog) -> Result<Vec<ReplayRun>, String>;

    /// Workload-specific per-layer metrics of the traced run.
    ///
    /// # Errors
    ///
    /// Failures of extra layer probes.
    fn layer_metrics(&self, log: &mut SpanLog, out: &mut Outcome) -> Result<(), String>;
}

/// Counters and histogram sums (as `<name>.sum`) of one registry.
pub fn registry_totals(registry: &Registry) -> BTreeMap<String, f64> {
    let mut totals: BTreeMap<String, f64> = registry
        .counters()
        .into_iter()
        .map(|(name, v)| (name, v as f64))
        .collect();
    for (name, hist) in registry.histograms() {
        totals.insert(format!("{name}.sum"), hist.sum() as f64);
    }
    totals
}

/// Measures `w` for `args.seconds`, checks every output, and sets the
/// end-to-end metrics (untraced) or per-layer metrics (traced).
/// `setup_s` is the time of the set-up that built `w`.
///
/// Untraced passes run the cells on up to [`LANES`] threads, each
/// taking the next cell in order, and a pass's time is its wall time;
/// the traced run takes the cells one at a time, so that the replayed
/// layers compare with engine runs that had the host to themselves. A
/// cell's time is the median of its runs; every run's seconds are kept
/// in the record.
///
/// # Errors
///
/// Set-up failures of the repeated set-ups, replay failures, the
/// workload's layer-probe failures, and span-log write failures.
pub fn measure(
    w: &dyn EngineWorkload,
    args: &RunArgs,
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = w.cells();
    let mut untraced: Vec<Vec<CellRun>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<CellRun>> = vec![Vec::new(); n];
    let mut decisions: Vec<Option<f64>> = vec![None; n];
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    let mut traced_passes = 0usize;
    let mut setups = vec![setup_s];
    let mut pass_seconds = Vec::new();
    let mut log = SpanLog::new();
    let lanes = if args.trace {
        1
    } else {
        host::lanes(LANES).min(n)
    };

    // Timed window. Traced runs alternate untraced and traced passes,
    // so the observation overhead is measured under the same noise.
    let start = Instant::now();
    let mut pass = 0usize;
    let per_kind = |pass: usize| if args.trace { pass / 2 } else { pass };
    while per_kind(pass) < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let observed = args.trace && pass % 2 == 1;
        traced_passes += usize::from(observed);
        for _ in 0..SETUPS_PER_PASS {
            setups.push(w.time_setup()?);
        }
        let p0 = Instant::now();
        let runs = run_pass(w, lanes, observed, &log);
        pass_seconds.push(p0.elapsed().as_secs_f64());
        for PassRun {
            cell,
            registry,
            t0,
            t1,
            result,
        } in runs
        {
            match result {
                Ok(run) => {
                    if let Some(reg) = &registry {
                        log.record("engine.run", None, cell as u64, t0, t1);
                        let totals = registry_totals(reg);
                        decisions[cell] = totals.get("optimizer.decisions").copied();
                        for (name, v) in totals {
                            *counters.entry(name).or_default() += v;
                        }
                        traced[cell].push(run);
                    } else {
                        untraced[cell].push(run);
                    }
                }
                Err(e) => out.op(false, || format!("{}: {e}", w.cell_name(cell))),
            }
        }
        pass += 1;
    }

    // Output checks: the fixed-seed reference set against the committed
    // digests; dense cells against a Scalar-layout run of the same cell,
    // every other cell against its own first run (determinism).
    match w.reference_runs() {
        Ok(runs) => crate::reference::check(&args.workload, &runs, args.corrupt_reference, out),
        Err(e) => out.op(false, || format!("reference set: {e}")),
    }
    let all_runs: Vec<Vec<CellRun>> = (0..n)
        .map(|c| untraced[c].iter().chain(&traced[c]).copied().collect())
        .collect();
    let mut scalar_seconds = 0.0;
    let mut dense_median_seconds = 0.0;
    for (cell, all) in all_runs.iter().enumerate() {
        let expected = if w.is_dense(cell) {
            dense_median_seconds += median(&seconds_of(&untraced[cell]));
            match w.run_cell(cell, None, EngineLayout::Scalar) {
                Ok(scalar) => {
                    scalar_seconds += scalar.seconds;
                    Some(scalar.digest)
                }
                Err(e) => {
                    out.op(false, || format!("{} Scalar run: {e}", w.cell_name(cell)));
                    None
                }
            }
        } else {
            all.first().map(|r| r.digest)
        };
        for run in all {
            out.op(Some(run.digest) == expected, || {
                format!(
                    "{}: digest {:016x} does not match the expected {}",
                    w.cell_name(cell),
                    run.digest,
                    expected.map_or_else(|| "(none)".to_owned(), |d| format!("{d:016x}"))
                )
            });
        }
    }
    w.check(&all_runs, out);

    let medians: Vec<f64> = untraced.iter().map(|r| median(&seconds_of(r))).collect();
    let dense: Vec<usize> = (0..n).filter(|&c| w.is_dense(c)).collect();
    out.detail(
        "cells",
        serde_json::Value::Array(
            (0..n)
                .map(|c| {
                    json!({
                        "cell": w.cell_name(c),
                        "runs": untraced[c].len(),
                        "median_s": medians[c],
                        "seconds": seconds_of(&untraced[c]),
                        "net_harvest_w": untraced[c].first().map_or(0.0, |r| r.net_w),
                        "teg_w": untraced[c].first().map_or(0.0, |r| r.teg_w),
                    })
                })
                .collect(),
        ),
    );

    if !args.trace {
        let steps: f64 = (0..n).map(|c| w.server_steps(c)).sum();
        let harvest: Vec<f64> = dense
            .iter()
            .filter_map(|&c| untraced[c].first().map(|r| r.net_w))
            .collect();
        out.set("setup_s", median(&setups));
        out.set("server_steps_per_s", ratio(steps, median(&pass_seconds)));
        out.set("net_harvest_w", crate::stats::mean(&harvest));
        out.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0));
        out.detail(
            "samples",
            json!(untraced.iter().map(Vec::len).sum::<usize>()),
        );
        out.detail("setup_seconds", json!(setups));
        out.detail("lanes", json!(lanes));
        out.detail("pass_seconds", json!(pass_seconds));
        return Ok(());
    }

    // Traced run: observation overhead, program counters per pass.
    let traced_total: f64 = traced.iter().map(|r| median(&seconds_of(r))).sum();
    let untraced_total: f64 = medians.iter().sum();
    out.set(
        "telemetry.overhead_frac",
        ratio(traced_total, untraced_total) - 1.0,
    );
    let per_pass =
        |name: &str| counters.get(name).copied().unwrap_or(0.0) / traced_passes.max(1) as f64;
    out.set("cooling.decisions", per_pass("optimizer.decisions"));
    out.set("cooling.score_evals", per_pass("optimizer.score_evals"));
    out.set(
        "cooling.fallback_scans",
        per_pass("optimizer.fallback_scans"),
    );
    let (hits, misses) = (per_pass("cache.hits"), per_pass("cache.misses"));
    out.set("core.cache_hits", hits);
    out.set("core.cache_misses", misses);
    out.set("core.cache_hit_ratio", ratio(hits, hits + misses));
    let (evaluated, held) = (
        per_pass("engine.circulations_evaluated"),
        per_pass("engine.circulations_held"),
    );
    out.set("core.kernel_eval_ratio", ratio(evaluated, evaluated + held));
    out.set("exec.tasks", per_pass("pool.tasks"));
    out.set("exec.lanes_spawned", per_pass("pool.lanes_spawned"));
    out.set("exec.inline_runs", per_pass("pool.inline_runs"));
    let (busy, idle) = (
        per_pass("pool.lane_busy_nanos.sum"),
        per_pass("pool.lane_idle_nanos.sum"),
    );
    out.set("exec.busy_share", ratio(busy, busy + idle));
    out.set(
        "core.scalar_over_columns",
        ratio(scalar_seconds, dense_median_seconds),
    );

    // Layer replay of every dense cell, checked against the engine.
    let replays = w.replay(&mut log)?;
    let mut lookups = 0.0;
    for (&cell, replay) in dense.iter().zip(&replays) {
        let engine_net = untraced[cell].first().map_or(f64::NAN, |r| r.net_w);
        out.op(
            replay.net_harvest_w.to_bits() == engine_net.to_bits(),
            || {
                format!(
                    "{}: replayed net harvest {} differs from the engine's {engine_net}",
                    w.cell_name(cell),
                    replay.net_harvest_w
                )
            },
        );
        let calls = replay.counts.optimize_calls as f64;
        lookups += replay.counts.lookups as f64;
        if let (Some(d), true) = (decisions[cell], w.exact_decisions()) {
            out.op(calls == d, || {
                format!(
                    "{}: replay made {calls} optimize calls, the engine {d}",
                    w.cell_name(cell)
                )
            });
        }
    }

    let totals = log.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let sched = totals.get("sched.schedule").copied().unwrap_or_default();
    out.set(
        "sched.schedule_ns",
        ratio(sched.self_ns as f64, sched.count as f64),
    );
    out.set(
        "cooling.optimize_us",
        median(&log.durations("cooling.optimize")) / 1e3,
    );
    out.set(
        "cooling.optimize_share",
        ratio(total_ns("cooling.optimize") / 1e9, dense_median_seconds),
    );
    out.set(
        "server.lookup_ns",
        ratio(total_ns("server.lookup"), lookups),
    );
    out.set("server.lookups", lookups);
    let layers = total_ns("sched.schedule")
        + total_ns("cooling.optimize")
        + total_ns("core.setting_cache")
        + total_ns("server.lookup");
    out.set("core.residual_s", dense_median_seconds - layers / 1e9);
    w.layer_metrics(&mut log, out)?;

    let path = args
        .out_dir
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    log.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.detail("spans", json!(path.display().to_string()));
    Ok(())
}

/// One cell's run within a pass.
struct PassRun {
    cell: usize,
    registry: Option<Registry>,
    /// Start and end on the span log's clock.
    t0: u64,
    t1: u64,
    result: Result<CellRun, String>,
}

/// Runs every cell of `w` once on `lanes` threads, each taking the next
/// cell in order, with a fresh registry per cell when `observed`;
/// returns the runs in cell order. One lane runs on the calling thread,
/// so that a one-lane workload allocates as it would without the
/// benchmark.
fn run_pass(w: &dyn EngineWorkload, lanes: usize, observed: bool, log: &SpanLog) -> Vec<PassRun> {
    let next = AtomicUsize::new(0);
    let lane = || {
        let mut runs = Vec::new();
        loop {
            let cell = next.fetch_add(1, Ordering::Relaxed);
            if cell >= w.cells() {
                return runs;
            }
            let registry = observed.then(Registry::new);
            let t0 = log.now();
            let result = w.run_cell(cell, registry.as_ref(), EngineLayout::Columns);
            let t1 = log.now();
            runs.push(PassRun {
                cell,
                registry,
                t0,
                t1,
                result,
            });
        }
    };
    if lanes == 1 {
        return lane();
    }
    let mut runs: Vec<PassRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes).map(|_| scope.spawn(lane)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    runs.sort_by_key(|r| r.cell);
    runs
}

fn seconds_of(runs: &[CellRun]) -> Vec<f64> {
    runs.iter().map(|r| r.seconds).collect()
}
